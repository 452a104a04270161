//! ILP as a service: one resident p²-mdie mesh serving several jobs.
//!
//! A [`Service`] builds the cluster once — workers adopt the compiled KB
//! snapshot at construction and then stay resident — and every submission
//! after that ships only its job description (examples, settings, rules to
//! score). Here two coverage queries and a full learning run are submitted
//! concurrently over one standing two-worker mesh; the mesh multiplexes
//! them back to back, each on the resident KB (a job's asserts are undone
//! at its end), and the service report shows the one-time KB ship
//! amortized across all three.
//!
//! ```sh
//! cargo run --release --example service
//! ```

use p2mdie::core::driver::{run_parallel, ParallelConfig};
use p2mdie::core::job::{JobSpec, JobState};
use p2mdie::core::scheduler::{Service, ServiceConfig};
use p2mdie::ilp::settings::Width;

fn main() {
    let ds = p2mdie::datasets::trains(20, 5);
    let workers = 2;
    let width = Width::Limit(10);

    // Rules for the coverage queries: what a fresh one-shot run learns.
    // (Also the reference the service's learning job must reproduce.)
    let reference = run_parallel(
        &ds.engine,
        &ds.examples,
        &ParallelConfig::new(workers, width, 5),
    )
    .expect("one-shot reference run");
    let rules = reference.clauses();

    println!(
        "dataset: {} ({} pos / {} neg), resident mesh: {workers} workers, Beowulf-2005\n",
        ds.name,
        ds.examples.num_pos(),
        ds.examples.num_neg()
    );

    // Build the mesh once. The compiled KB ships to every worker here and
    // never again.
    let service = Service::new(&ds.engine, ServiceConfig::new(workers));

    // Submit all three jobs up front: the handles return immediately and
    // the scheduler multiplexes the queue over the standing workers.
    let full_theory = service
        .submit(JobSpec::coverage(ds.examples.clone(), rules.clone()))
        .expect("submit coverage #1");
    let first_rule = service
        .submit(JobSpec::coverage(
            ds.examples.clone(),
            vec![rules[0].clone()],
        ))
        .expect("submit coverage #2");
    let learn = service
        .submit(
            JobSpec::learn(ds.examples.clone())
                .with_seed(5)
                .with_width(width),
        )
        .expect("submit learn");
    println!(
        "submitted: {} (coverage, {} rules), {} (coverage, 1 rule), {} (learning run)\n",
        full_theory.id(),
        rules.len(),
        first_rule.id(),
        learn.id()
    );

    // Coverage query #1: global (pos, neg) counts for the whole theory.
    let outcome = full_theory.wait();
    assert_eq!(outcome.state, JobState::Done, "{:?}", outcome.error);
    println!(
        "{} — theory coverage over the full example set:",
        outcome.id
    );
    for (rule, (pos, neg)) in rules.iter().zip(outcome.coverage()) {
        println!("  ({pos:>3}+/{neg:>2}-)  {}", rule.display(&ds.syms));
    }
    println!(
        "  [{} B / {} msgs / {:.3} s virtual]\n",
        outcome.accounting.bytes, outcome.accounting.messages, outcome.accounting.vtime
    );

    // Coverage query #2: just the first rule.
    let outcome = first_rule.wait();
    assert_eq!(outcome.state, JobState::Done, "{:?}", outcome.error);
    let (pos, neg) = outcome.coverage()[0];
    println!(
        "{} — first rule alone covers {pos}+/{neg}-  [{} B / {} msgs]\n",
        outcome.id, outcome.accounting.bytes, outcome.accounting.messages
    );

    // The learning run: a complete p²-mdie induction as one queued job,
    // bit-identical to the one-shot entry point with the same seed.
    let outcome = learn.wait();
    assert_eq!(outcome.state, JobState::Done, "{:?}", outcome.error);
    let learned = outcome.learned();
    println!(
        "{} — learned theory ({} epochs):",
        outcome.id, learned.epochs
    );
    for rule in &learned.theory {
        println!(
            "  [epoch {}, origin w{}] ({}+/{}-)  {}",
            rule.epoch,
            rule.origin,
            rule.pos,
            rule.neg,
            rule.clause.display(&ds.syms)
        );
    }
    assert_eq!(
        learned.theory, reference.theory,
        "a service learning job must match the one-shot run bit for bit"
    );
    println!("  identical to the fresh-mesh one-shot run with the same seed\n");

    let report = service.shutdown().expect("clean shutdown");
    let job_bytes: u64 = report.total_bytes;
    println!(
        "service lifetime: {} jobs over one mesh — {} B / {} msgs total, \
         master vtime {:.3} s, {} dropped sends",
        report.jobs_run,
        job_bytes,
        report.total_messages,
        report.master_vtime,
        report.dropped_sends
    );
}
