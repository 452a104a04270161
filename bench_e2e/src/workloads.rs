//! The four workloads: their inputs, the one operation each repeats, and
//! how that operation's output is checked.
//!
//! A *round* executes the workload's operation once on the workload's
//! *timed input*, which is the same for every seed: the dataset and the
//! partition are generated from [`INPUT_SEED`]. The work of an ILP learning
//! run is chaotic in its input — at one size, another dataset seed moves
//! the inference steps of a learn 3x, another partition seed alone 6x — so
//! timed inputs drawn from `--seed` would make every timing a lottery over
//! seeds. What `--seed` draws are the *canaries*: small inputs the same
//! operation is warmed up on, checked like every other execution.

use crate::procfs::{cpu_seconds, CpuSet};
use crate::spans::Recorder;
use p2mdie_cluster::CostModel;
use p2mdie_core::{
    run_parallel, run_sequential_timed, JobSpec, JobState, ParallelConfig, ParallelReport, Service,
    ServiceConfig, TcpConfig, TransportKind,
};
use p2mdie_datasets::Dataset;
use p2mdie_ilp::refine::splitmix64;
use p2mdie_ilp::{Bitset, Examples, IlpEngine, Width};
use p2mdie_logic::clause::Clause;
use p2mdie_logic::SymbolTable;
use std::path::PathBuf;
use std::time::Instant;

/// Worker ranks of every parallel workload: the box this was sized on has
/// two cores, so no run may use more than two compute threads/processes.
pub const RANKS: usize = 2;
/// Pipeline width of the learning workloads (the paper's `W = 10`).
const WIDTH: Width = Width::Limit(10);
/// Dataset and partition seed of every timed input: the year of the paper.
pub const INPUT_SEED: u64 = 2005;
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CarcSeq,
    CarcPipeP2,
    MeshPipeP2Tcp,
    PyrSvcTcp,
}

/// How big a run is: dataset scale of the timed input and of the canaries,
/// jobs per service lifetime (service workload only), and how often the
/// traced pass executes each whole learn it times (the fastest counts, as
/// in the rounds).
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    pub scale: f64,
    pub canary_scale: f64,
    pub jobs: usize,
    pub learn_reps: usize,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CarcSeq,
        Workload::CarcPipeP2,
        Workload::MeshPipeP2Tcp,
        Workload::PyrSvcTcp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CarcSeq => "carc-seq",
            Workload::CarcPipeP2 => "carc-pipe-p2",
            Workload::MeshPipeP2Tcp => "mesh-pipe-p2-tcp",
            Workload::PyrSvcTcp => "pyr-svc-tcp",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Does the workload spawn `p2mdie-worker` processes?
    pub fn uses_worker_processes(self) -> bool {
        matches!(self, Workload::MeshPipeP2Tcp | Workload::PyrSvcTcp)
    }

    /// `mesh` and `pyrimidines` run at the size of the paper's Table 1;
    /// `carcinogenesis` at 0.3 of it (49+/41−), because on the 2-vCPU box
    /// this was sized on (README, "Sizing") an operation has to stay near
    /// one second for a 20 s run to hold enough rounds that some of them
    /// dodge the host's slow phases. `quick` is the smoke-test scale.
    pub fn sizing(self, quick: bool) -> Sizing {
        let (scale, canary_scale, jobs) = match (self, quick) {
            (Workload::CarcSeq | Workload::CarcPipeP2, false) => (0.3, 0.1, 0),
            (Workload::MeshPipeP2Tcp, false) => (1.0, 0.15, 0),
            (Workload::PyrSvcTcp, false) => (1.0, 0.25, 100),
            (Workload::CarcSeq | Workload::CarcPipeP2, true) => (0.15, 0.1, 0),
            (Workload::MeshPipeP2Tcp, true) => (0.1, 0.1, 0),
            (Workload::PyrSvcTcp, true) => (0.1, 0.1, 40),
        };
        Sizing {
            scale,
            canary_scale,
            jobs,
            learn_reps: if quick { 1 } else { 5 },
        }
    }
}

/// Deterministic outputs of one operation. Everything here must repeat
/// exactly on the same input.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    pub epochs: u64,
    pub rules: u64,
    pub set_aside: u64,
    /// Metered inference steps, all ranks.
    pub steps: u64,
    /// Steps of the busiest rank.
    pub max_rank_steps: u64,
    pub bytes: u64,
    pub messages: u64,
    pub dropped: u64,
    pub vtime_s: f64,
    pub bag_size: u64,
    pub bag_accepted: u64,
    /// Master-endpoint traffic attributed to jobs (`JobAccounting`).
    pub job_bytes: u64,
    pub job_messages: u64,
    /// FNV-1a hash of the theory's text.
    pub theory_hash: u64,
}

/// FNV-1a over the clauses' texts, one per line.
pub fn theory_hash(theory: &[Clause], syms: &SymbolTable) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for c in theory {
        for b in c.display(syms).to_string().bytes().chain([b'\n']) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// What one operation (one learn call, or one service lifetime with its job
/// loop) measured and produced.
#[derive(Clone, Debug, Default)]
pub struct OpOutput {
    /// The timed part: the learn call, or the closed job loop.
    pub wall_s: f64,
    /// CPU seconds of the whole operation — for the service workload the
    /// whole lifetime, because worker processes are billed when reaped.
    pub cpu_s: f64,
    /// Service workload: mesh spawn + rendezvous + KB ship + the warm-up job
    /// that serves as readiness barrier. 0 elsewhere.
    pub up_s: f64,
    /// One entry per completed user-visible operation: the learn call, or
    /// each job.
    pub latencies_ms: Vec<f64>,
    /// User-visible operations attempted (one learn call, or the jobs of
    /// the loop) and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    pub counts: Counts,
    /// Why operations failed (for stderr; empty on a clean run).
    pub errors: Vec<String>,
}

impl OpOutput {
    /// Counts one more failed operation, never more than were attempted: a
    /// learn call that trips two checks is still one failed call.
    fn fail(&mut self, why: String) {
        self.failed = (self.failed + 1).min(self.attempted);
        self.errors.push(why);
    }
}

/// One input: the timed one (`index` 0) or a canary (1, 2, …).
pub struct Instance {
    pub index: usize,
    /// Dataset seed and partition seed.
    pub seed: u64,
    scale: f64,
    pub ds: Dataset,
    /// Dataset generation + engine build, fastest pass so far.
    pub gen_s: f64,
    /// Service workload: the rules the jobs query, and each rule's
    /// `(pos, neg)` cover from a direct `IlpEngine::evaluate`.
    pub rules: Vec<Clause>,
    pub rule_cover: Vec<(u32, u32)>,
    /// `mesh-pipe-p2-tcp`: counts of the in-process twin run of set-up
    /// (same input, KB shipped), which the TCP run must reproduce.
    twin: Option<Counts>,
    /// Counts of the first execution; every later one must reproduce them.
    reference: Option<Counts>,
}

/// Where the `p2mdie-worker` binary is, the CPUs the run was started on (it
/// pins itself to the lowest of them), and the run's sizing.
pub struct Env {
    pub worker_bin: PathBuf,
    pub cpus: CpuSet,
    pub jobs: usize,
    pub learn_reps: usize,
}

/// Dataset and partition seed of canary `index` (1, 2, …) of a run.
pub fn canary_seed(seed: u64, index: usize) -> u64 {
    splitmix64(seed ^ splitmix64(index as u64))
}

fn generate(w: Workload, scale: f64, seed: u64) -> Dataset {
    let mut ds = match w {
        Workload::CarcSeq | Workload::CarcPipeP2 => p2mdie_datasets::carcinogenesis(scale, seed),
        Workload::MeshPipeP2Tcp => p2mdie_datasets::mesh(scale, seed),
        Workload::PyrSvcTcp => p2mdie_datasets::pyrimidines(scale, seed),
    };
    if w == Workload::CarcSeq {
        // The plain single-threaded baseline: no coverage fan-out either.
        ds.engine.settings.eval_threads = 1;
    }
    ds
}

/// The parallel learn every workload and probe uses: two ranks, `W = 10`,
/// the input's seed as partition seed.
pub fn parallel_cfg(seed: u64) -> ParallelConfig {
    ParallelConfig::new(RANKS, WIDTH, seed)
}

/// One timed pass of set-up: dataset generation + engine build.
fn timed_generate(
    w: Workload,
    scale: f64,
    seed: u64,
    index: usize,
    rec: &mut Recorder,
) -> (f64, Dataset) {
    let started = Instant::now();
    let ds = rec.time("datasets.generate", index, || generate(w, scale, seed));
    (started.elapsed().as_secs_f64(), ds)
}

impl Instance {
    /// Sets the input up once more and throws the copy away: a few
    /// milliseconds of allocation-heavy work, whose first pass pays the page
    /// faults of a growing heap and whose every pass costs whatever the
    /// host makes memory cost at that moment. A run repeats it before each
    /// round, so that `setup_s` — the fastest pass — has as many chances to
    /// dodge a slow phase of the host as the rounds have.
    pub fn set_up_again(&mut self, w: Workload, rec: &mut Recorder) {
        let (pass_s, _) = timed_generate(w, self.scale, self.seed, self.index, rec);
        self.gen_s = self.gen_s.min(pass_s);
    }
}

/// Builds the workload's input for `seed` at `scale`, including the untimed
/// references (the service workload's rules, the TCP workload's in-process
/// twin). A reference that cannot be had is an error: there is nothing to
/// measure against.
pub fn build_instance(
    w: Workload,
    scale: f64,
    seed: u64,
    index: usize,
    rec: &mut Recorder,
) -> Result<Instance, String> {
    let (gen_s, ds) = timed_generate(w, scale, seed, index, rec);
    let mut inst = Instance {
        index,
        seed,
        scale,
        ds,
        gen_s,
        rules: Vec::new(),
        rule_cover: Vec::new(),
        twin: None,
        reference: None,
    };
    match w {
        Workload::CarcSeq | Workload::CarcPipeP2 => {}
        Workload::MeshPipeP2Tcp => {
            // The TCP run must reproduce its in-process twin (same input,
            // KB shipped): theory, epochs and per-rank steps.
            let cfg = parallel_cfg(seed).with_kb_shipping();
            let rep = rec
                .time("core.run_parallel[twin]", index, || {
                    run_parallel(&inst.ds.engine, &inst.ds.examples, &cfg)
                })
                .map_err(|e| format!("input {index}: in-process twin: {e}"))?;
            inst.twin = Some(twin_counts(&parallel_counts(&rep, &inst.ds.syms)));
        }
        Workload::PyrSvcTcp => {
            let cfg = parallel_cfg(seed);
            let rep = rec
                .time("core.run_parallel[rules]", index, || {
                    run_parallel(&inst.ds.engine, &inst.ds.examples, &cfg)
                })
                .map_err(|e| format!("input {index}: reference learn: {e}"))?;
            if rep.theory.is_empty() {
                return Err(format!("input {index}: reference learn found no rule"));
            }
            inst.rules = rep.clauses();
            inst.rule_cover = inst
                .rules
                .iter()
                .map(|r| {
                    let cov = inst.ds.engine.evaluate(r, &inst.ds.examples, None, None);
                    (cov.pos_count(), cov.neg_count())
                })
                .collect();
        }
    }
    Ok(inst)
}

/// The part of a parallel run's counts that a TCP run shares with its
/// in-process twin (traffic differs: nothing promises equal framing).
fn twin_counts(c: &Counts) -> Counts {
    Counts {
        epochs: c.epochs,
        rules: c.rules,
        set_aside: c.set_aside,
        steps: c.steps,
        max_rank_steps: c.max_rank_steps,
        theory_hash: c.theory_hash,
        ..Counts::default()
    }
}

fn parallel_counts(rep: &ParallelReport, syms: &SymbolTable) -> Counts {
    Counts {
        epochs: u64::from(rep.epochs),
        rules: rep.theory.len() as u64,
        set_aside: u64::from(rep.set_aside),
        steps: rep.worker_steps.iter().sum(),
        max_rank_steps: rep.worker_steps.iter().copied().max().unwrap_or(0),
        bytes: rep.total_bytes,
        messages: rep.total_messages,
        dropped: rep.dropped_sends,
        vtime_s: rep.vtime,
        bag_size: rep.traces.iter().map(|t| u64::from(t.bag_size)).sum(),
        bag_accepted: rep.traces.iter().map(|t| u64::from(t.accepted)).sum(),
        theory_hash: theory_hash(&rep.clauses(), syms),
        ..Counts::default()
    }
}

/// Re-scores a learned theory with `IlpEngine::evaluate`: every rule must
/// be consistent modulo `noise`, and the theory complete modulo the
/// examples the run itself reported as set aside.
pub fn check_theory(
    engine: &IlpEngine,
    examples: &Examples,
    theory: &[Clause],
    set_aside: u64,
) -> Result<(), String> {
    let mut covered = Bitset::new(examples.num_pos());
    for (i, rule) in theory.iter().enumerate() {
        let cov = engine.evaluate(rule, examples, None, None);
        if cov.neg_count() > engine.settings.noise {
            return Err(format!(
                "rule {i} covers {} negatives, noise allows {}",
                cov.neg_count(),
                engine.settings.noise
            ));
        }
        covered.union_with(&cov.pos);
    }
    let uncovered = (examples.num_pos() - covered.count()) as u64;
    if uncovered > set_aside {
        return Err(format!(
            "{uncovered} positives uncovered, only {set_aside} were set aside"
        ));
    }
    Ok(())
}

/// Executes the workload's operation once on `inst`.
pub fn run_op(w: Workload, inst: &mut Instance, env: &Env, rec: &mut Recorder) -> OpOutput {
    let cpu_before = cpu_seconds();
    let (mut out, theory) = match w {
        Workload::CarcSeq => learn_sequential(inst, rec),
        Workload::CarcPipeP2 => learn_parallel(inst, parallel_cfg(inst.seed), rec),
        Workload::MeshPipeP2Tcp => {
            let tcp = TcpConfig::with_worker_bin(&env.worker_bin);
            let cfg = parallel_cfg(inst.seed).with_transport(TransportKind::Tcp(tcp));
            learn_parallel(inst, cfg, rec)
        }
        Workload::PyrSvcTcp => (serve_jobs(inst, env, rec), None),
    };
    out.cpu_s = cpu_seconds() - cpu_before;
    if out.counts.dropped > 0 {
        out.fail(format!(
            "input {}: {} dropped sends",
            inst.index, out.counts.dropped
        ));
    }
    if out.failed > 0 {
        // Already counted; its counts are no reference and need none.
        return out;
    }
    match &inst.reference {
        // Same input, same output, to the last counted byte.
        Some(reference) => {
            if *reference != out.counts {
                out.fail(format!(
                    "input {}: {:?} differs from the first execution's {reference:?}",
                    inst.index, out.counts
                ));
            }
        }
        // First execution: check the output itself, then keep it as the
        // reference for every later round.
        None => {
            if let Some(theory) = theory {
                let ds = &inst.ds;
                if let Err(e) =
                    check_theory(&ds.engine, &ds.examples, &theory, out.counts.set_aside)
                {
                    out.fail(format!("input {}: {e}", inst.index));
                }
            }
            if inst
                .twin
                .as_ref()
                .is_some_and(|t| *t != twin_counts(&out.counts))
            {
                out.fail(format!(
                    "input {}: TCP run {:?} differs from its in-process twin {:?}",
                    inst.index, out.counts, inst.twin
                ));
            }
            inst.reference = Some(out.counts.clone());
        }
    }
    out
}

/// A learn operation's output plus the theory to re-score (`None` when the
/// call failed).
type Learned = (OpOutput, Option<Vec<Clause>>);

fn learn_sequential(inst: &Instance, rec: &mut Recorder) -> Learned {
    let model = CostModel::beowulf_2005();
    let rep = rec.time("core.run_sequential_timed", inst.index, || {
        run_sequential_timed(&inst.ds.engine, &inst.ds.examples, &model)
    });
    let wall_s = rep.wall.as_secs_f64();
    let out = OpOutput {
        wall_s,
        latencies_ms: vec![wall_s * 1e3],
        attempted: 1,
        counts: Counts {
            epochs: u64::from(rep.epochs),
            rules: rep.theory.len() as u64,
            set_aside: u64::from(rep.set_aside),
            steps: rep.steps,
            max_rank_steps: rep.steps,
            vtime_s: rep.vtime,
            theory_hash: theory_hash(&rep.theory, &inst.ds.syms),
            ..Counts::default()
        },
        ..OpOutput::default()
    };
    (out, Some(rep.theory))
}

fn learn_parallel(inst: &Instance, cfg: ParallelConfig, rec: &mut Recorder) -> Learned {
    // Timed from outside: a TCP run's spawn and teardown are part of what
    // a caller of `run_parallel` waits for.
    let started = Instant::now();
    let result = rec.time("core.run_parallel", inst.index, || {
        run_parallel(&inst.ds.engine, &inst.ds.examples, &cfg)
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut out = OpOutput {
        wall_s,
        latencies_ms: vec![wall_s * 1e3],
        attempted: 1,
        ..OpOutput::default()
    };
    match result {
        Err(e) => {
            out.fail(format!("input {}: run_parallel: {e}", inst.index));
            (out, None)
        }
        Ok(rep) => {
            out.counts = parallel_counts(&rep, &inst.ds.syms);
            if rep.stalled {
                out.fail(format!("input {}: master stalled", inst.index));
            }
            (out, Some(rep.clauses()))
        }
    }
}

/// How many rules job `i` queries: the first `1 + i % rules` of the theory,
/// so that a lifetime's jobs run from one rule to the whole theory.
pub fn job_rules(i: usize, rules: usize) -> usize {
    1 + i % rules
}

/// One service lifetime: bring a resident TCP mesh up, run a closed loop of
/// coverage jobs (one client, one job in flight), shut the mesh down.
fn serve_jobs(inst: &Instance, env: &Env, rec: &mut Recorder) -> OpOutput {
    let mut out = OpOutput {
        attempted: env.jobs as u64,
        ..OpOutput::default()
    };
    let examples = &inst.ds.examples;
    let tcp = TcpConfig::with_worker_bin(&env.worker_bin);

    let started = Instant::now();
    let up = rec.begin("core.Service::new_tcp+barrier", inst.index);
    let service = Service::new_tcp(&inst.ds.engine, ServiceConfig::new(RANKS), &tcp);
    // Readiness barrier: a first coverage job. (`Service::metrics()` before
    // the first job kills a TCP mesh — see the README — so it cannot be.)
    let barrier = service
        .submit(JobSpec::coverage(
            examples.clone(),
            inst.rules[..1].to_vec(),
        ))
        .map(|h| h.wait());
    rec.end(up);
    out.up_s = started.elapsed().as_secs_f64();
    match barrier {
        Ok(o) if o.state == JobState::Done => {}
        Ok(o) => out.errors.push(format!("barrier job: {:?}", o.error)),
        Err(e) => out.errors.push(format!("barrier job: {e}")),
    }
    if !out.errors.is_empty() {
        // The mesh never came up: every job of this lifetime is lost.
        out.failed = out.attempted;
        let _ = service.shutdown();
        return out;
    }

    let loop_open = rec.begin("job-loop", inst.index);
    let loop_started = Instant::now();
    for i in 0..env.jobs {
        let picked = job_rules(i, inst.rules.len());
        let spec = JobSpec::coverage(examples.clone(), inst.rules[..picked].to_vec());
        let job_started = Instant::now();
        let job = rec.begin("core.Service::submit+wait", inst.index);
        let outcome = service.submit(spec).map(|h| h.wait());
        rec.end(job);
        out.latencies_ms
            .push(job_started.elapsed().as_secs_f64() * 1e3);
        match outcome {
            Err(e) => out.fail(format!("input {} job {i}: {e}", inst.index)),
            Ok(o) if o.state != JobState::Done => {
                out.fail(format!("input {} job {i}: {:?}", inst.index, o.error));
            }
            Ok(o) => {
                let want = &inst.rule_cover[..picked];
                if o.coverage() != want {
                    out.fail(format!(
                        "input {} job {i}: cover {:?}, direct evaluate says {want:?}",
                        inst.index,
                        o.coverage()
                    ));
                }
                let acc = &o.accounting;
                out.counts.steps += acc.master_steps + acc.worker_steps.iter().sum::<u64>();
                out.counts.job_bytes += acc.bytes;
                out.counts.job_messages += acc.messages;
            }
        }
    }
    out.wall_s = loop_started.elapsed().as_secs_f64();
    rec.end(loop_open);

    match rec.time("core.Service::shutdown", inst.index, || service.shutdown()) {
        Err(e) => out.fail(format!("input {}: shutdown: {e}", inst.index)),
        Ok(rep) => {
            out.counts.rules = inst.rules.len() as u64;
            out.counts.max_rank_steps = rep.worker_steps.iter().copied().max().unwrap_or(0);
            out.counts.bytes = rep.total_bytes;
            out.counts.messages = rep.total_messages;
            out.counts.dropped = rep.dropped_sends;
            out.counts.vtime_s = rep.master_vtime;
            out.counts.theory_hash = theory_hash(&inst.rules, &inst.ds.syms);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_distinct() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn canary_seeds_differ_by_seed_and_by_index() {
        let a: Vec<u64> = (1..5).map(|i| canary_seed(7, i)).collect();
        let b: Vec<u64> = (1..5).map(|i| canary_seed(8, i)).collect();
        for i in 0..4 {
            assert_ne!(a[i], b[i]);
            for j in 0..i {
                assert_ne!(a[i], a[j]);
            }
        }
        assert_eq!(canary_seed(7, 3), a[2], "same seed, same input");
    }

    #[test]
    fn jobs_run_from_one_rule_to_the_whole_theory() {
        let sizes: Vec<usize> = (0..7).map(|i| job_rules(i, 3)).collect();
        assert_eq!(sizes, [1, 2, 3, 1, 2, 3, 1]);
        assert_eq!(job_rules(9, 1), 1);
    }

    #[test]
    fn a_quick_sequential_learn_passes_its_own_checks() {
        let mut rec = Recorder::new(true);
        let scale = Workload::CarcSeq.sizing(true).canary_scale;
        let mut inst = build_instance(Workload::CarcSeq, scale, 1, 0, &mut rec).unwrap();
        let env = Env {
            worker_bin: PathBuf::new(),
            cpus: crate::procfs::affinity().unwrap(),
            jobs: 0,
            learn_reps: 1,
        };
        let first = run_op(Workload::CarcSeq, &mut inst, &env, &mut rec);
        let second = run_op(Workload::CarcSeq, &mut inst, &env, &mut rec);
        assert_eq!((first.failed, second.failed), (0, 0), "{:?}", first.errors);
        assert_eq!(first.counts, second.counts);
        assert!(first.counts.steps > 0 && first.counts.rules > 0);
        // A later execution that differs from the first must be noticed.
        inst.reference.as_mut().unwrap().steps += 1;
        assert_eq!(
            run_op(Workload::CarcSeq, &mut inst, &env, &mut rec).failed,
            1
        );
    }

    #[test]
    fn one_call_that_trips_two_checks_fails_once() {
        let mut out = OpOutput {
            attempted: 1,
            ..OpOutput::default()
        };
        out.fail("dropped sends".to_owned());
        out.fail("differs from the first execution".to_owned());
        assert_eq!((out.failed, out.errors.len()), (1, 2));
    }
}
