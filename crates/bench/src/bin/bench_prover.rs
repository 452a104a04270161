//! Before/after benchmark of the deduction stack's data layouts and of the
//! resident service, behind `BENCH_prover.json`:
//!
//! 1. `worker_startup` — building the background KB fresh (consult the
//!    textual theory: parse, intern, index) vs adopting a serialized
//!    compiled-KB snapshot (decode bytes, validate, done — see
//!    `p2mdie_logic::snapshot`);
//! 2. `fact_memory` — resident fact-store bytes of the column-native
//!    layout vs the retired duplicate row+column layout, on the
//!    carcinogenesis and trains background KBs;
//! 3. `posting_memory` — resident posting-index bytes of the CSR layout
//!    (sorted keys + run offsets + one contiguous index buffer) vs the
//!    retired per-key `FxHashMap<TermId, Vec<u32>>` layout, on the same
//!    background KBs. Exact byte accounting, so CI enforces it
//!    deterministically alongside `fact_memory` (`--fact-memory-only`);
//! 4. `warm_job_submit` — one coverage job on a *resident* service mesh
//!    (submit, wait; the compiled KB already shipped and adopted) vs the
//!    one-shot shape that builds a fresh mesh, ships the KB, runs the
//!    same job, and tears the mesh down.
//!
//! The timings of the seed's prover, coverage and search against the
//! current ones are retired with the seed copy they raced; their last
//! numbers are in the repository history of `BENCH_prover.json`. What the
//! prover computes is held to the reference prover of
//! `crates/logic/tests/oracle` by the differential tests instead.
//!
//! Writes the numbers to `BENCH_prover.json` (repo root) and exits non-zero
//! when the worker-startup speedup falls below 5x, the warm-job-submit
//! speedup falls below 5x, the fact-memory reduction falls below 1.8x, or
//! the posting-memory reduction falls below 1.5x.

use p2mdie_cluster::codec::{from_bytes, to_bytes};
use p2mdie_datasets::carcinogenesis;
use p2mdie_ilp::coverage::{evaluate_rule_threads, Coverage};
use p2mdie_ilp::refine::RuleShape;
use p2mdie_logic::kb::KnowledgeBase;
use p2mdie_logic::snapshot::KbSnapshot;
use p2mdie_logic::symbol::SymbolTable;
use p2mdie_logic::Program;
use std::hint::black_box;
use std::time::Instant;

/// Best-of-N wall time for a routine, in nanoseconds per run.
fn best_ns<F: FnMut()>(samples: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

struct Entry {
    name: &'static str,
    before_ns: f64,
    after_ns: f64,
}

impl Entry {
    fn speedup(&self) -> f64 {
        self.before_ns / self.after_ns
    }
}

/// `fact_memory`: exact byte accounting of the column-native fact store vs
/// the retired row+column layout. Deterministic (no timing), so CI enforces
/// this gate unconditionally via `--fact-memory-only`.
fn fact_memory_entries(kb: &KnowledgeBase) -> Vec<(&'static str, usize, usize)> {
    let tr = p2mdie_datasets::trains(20, 7);
    vec![
        (
            "carcinogenesis",
            kb.row_baseline_bytes(),
            kb.fact_store_bytes(),
        ),
        (
            "trains",
            tr.engine.kb.row_baseline_bytes(),
            tr.engine.kb.fact_store_bytes(),
        ),
    ]
}

/// `posting_memory`: exact byte accounting of the CSR posting
/// store vs the retired per-key hashmap layout it replaced. Deterministic
/// (no timing), enforced by CI alongside `fact_memory`.
fn posting_memory_entries(kb: &KnowledgeBase) -> Vec<(&'static str, usize, usize)> {
    let tr = p2mdie_datasets::trains(20, 7);
    vec![
        (
            "carcinogenesis",
            kb.posting_hashmap_baseline_bytes(),
            kb.posting_store_bytes(),
        ),
        (
            "trains",
            tr.engine.kb.posting_hashmap_baseline_bytes(),
            tr.engine.kb.posting_store_bytes(),
        ),
    ]
}

/// Prints the fact-memory rows and returns whether any misses the 1.8x bar.
fn report_fact_memory(fact_memory: &[(&str, usize, usize)]) -> bool {
    let mut failed = false;
    for (name, baseline, store) in fact_memory {
        let reduction = *baseline as f64 / *store as f64;
        println!(
            "fact_memory/{name:<12} rows+cols {baseline:>10} B   columns {store:>10} B   reduction {reduction:>5.2}x"
        );
        if reduction < 1.8 {
            eprintln!(
                "FAIL: fact_memory/{name} reduction {reduction:.2}x is below the 1.8x acceptance bar"
            );
            failed = true;
        }
    }
    failed
}

/// Prints the posting-memory rows and returns whether any misses the 1.5x
/// bar.
fn report_posting_memory(posting_memory: &[(&str, usize, usize)]) -> bool {
    let mut failed = false;
    for (name, baseline, store) in posting_memory {
        let reduction = *baseline as f64 / *store as f64;
        println!(
            "posting_memory/{name:<9} hashmap   {baseline:>10} B   CSR     {store:>10} B   reduction {reduction:>5.2}x"
        );
        if reduction < 1.5 {
            eprintln!(
                "FAIL: posting_memory/{name} reduction {reduction:.2}x is below the 1.5x acceptance bar"
            );
            failed = true;
        }
    }
    failed
}

fn main() {
    if std::env::args().any(|a| a == "--fact-memory-only") {
        let d = carcinogenesis(0.5, 7);
        let fact_failed = report_fact_memory(&fact_memory_entries(&d.engine.kb));
        let posting_failed = report_posting_memory(&posting_memory_entries(&d.engine.kb));
        if fact_failed || posting_failed {
            std::process::exit(1);
        }
        return;
    }
    let mut entries: Vec<Entry> = Vec::new();
    let samples = 7;

    // ---- Carcinogenesis-scale KB.
    let d = carcinogenesis(0.5, 7);
    let proof = d.engine.settings.proof;
    let kb = &d.engine.kb;
    let bottom = d.engine.saturate(&d.examples.pos[0]).expect("saturates");

    // The refinement walk the metrics sample below replays: down the
    // lattice one level at a time, the first few successors of the current
    // node (the breadth-first frontier slice), then into the first of them.
    // Levels: 0 (root) .. max_body.
    let max_body = d.engine.settings.max_body;
    let mut levels: Vec<Vec<RuleShape>> = vec![vec![RuleShape::empty()]];
    let mut shape = RuleShape::empty();
    for _ in 0..max_body {
        let succ: Vec<RuleShape> = shape
            .successors(&bottom, max_body)
            .into_iter()
            .take(3)
            .collect();
        if succ.is_empty() {
            break;
        }
        shape = succ[0].clone();
        levels.push(succ);
    }
    let level_clauses: Vec<Vec<_>> = levels
        .iter()
        .map(|l| l.iter().map(|s| s.to_clause(&bottom)).collect())
        .collect();

    // ---- 1. Worker startup: fresh build vs snapshot load.
    // "Fresh" is what every rank of a real deployment does today: read the
    // background theory in its textual (Prolog) form and rebuild symbols,
    // arena, columns, posting lists, and compiled rules from scratch.
    // "Snapshot" is the PR-3 path: decode the wire bytes of the master's
    // compiled KB and adopt it after structural validation. Bar: >= 5x.
    {
        let syms = &d.syms;
        // Literal renderer that re-parses: comparison/arith builtins print
        // infix (the clause pretty-printer emits them prefix, which the
        // parser rejects at term position).
        let infix = ["=", "\\=", "<", "=<", ">", ">=", "=:=", "=\\=", "is"];
        let render_lit = |l: &p2mdie_logic::clause::Literal| -> String {
            let name = syms.name(l.pred);
            if l.args.len() == 2 && infix.contains(&&*name) {
                format!(
                    "{} {} {}",
                    l.args[0].display(syms),
                    name,
                    l.args[1].display(syms)
                )
            } else {
                format!("{}", l.display(syms))
            }
        };
        let mut src = String::new();
        for key in kb.predicates() {
            for f in kb.facts_for(key) {
                src.push_str(&format!("{}.\n", f.display(syms)));
            }
            for r in kb.rules_for(key) {
                let body: Vec<String> = r.body.iter().map(&render_lit).collect();
                src.push_str(&format!(
                    "{} :- {}.\n",
                    r.head.display(syms),
                    body.join(", ")
                ));
            }
        }
        let snap_bytes = to_bytes(&kb.to_snapshot());

        // Both paths must produce the same store before we time anything.
        let mut prog = Program::new();
        prog.consult(&src).expect("background theory re-parses");
        prog.kb_mut().optimize();
        assert_eq!(prog.kb().num_facts(), kb.num_facts(), "parse lost facts");
        let loaded = KnowledgeBase::from_snapshot(
            from_bytes::<KbSnapshot>(snap_bytes.clone()).expect("snapshot decodes"),
            SymbolTable::new(),
        )
        .expect("snapshot validates");
        assert_eq!(loaded.num_facts(), kb.num_facts(), "snapshot lost facts");
        assert_eq!(loaded.num_rules(), kb.num_rules(), "snapshot lost rules");

        // Time construction only — the clock stops before the store is
        // dropped (teardown is not startup, and both sides tear down the
        // same store).
        let mut before = f64::INFINITY;
        for _ in 0..samples {
            let start = Instant::now();
            let mut prog = Program::new();
            prog.consult(black_box(&src)).expect("consult");
            // Every dataset loader ends its bulk load this way.
            prog.kb_mut().optimize();
            black_box(prog.kb().num_facts());
            before = before.min(start.elapsed().as_nanos() as f64);
            drop(prog);
        }
        let mut after = f64::INFINITY;
        for _ in 0..samples {
            let start = Instant::now();
            let snap: KbSnapshot =
                from_bytes(black_box(snap_bytes.clone())).expect("snapshot decodes");
            let loaded = KnowledgeBase::from_snapshot(snap, SymbolTable::new()).expect("validates");
            black_box(loaded.num_facts());
            after = after.min(start.elapsed().as_nanos() as f64);
            drop(loaded);
        }
        entries.push(Entry {
            name: "worker_startup",
            before_ns: before,
            after_ns: after,
        });
    }

    // ---- 2. Fact-store memory: the column-native store vs the retired
    // row+column layout (every fact kept a second time as a row `Literal`
    // next to its indexable-prefix columns). Bytes are computed from the
    // same KB by the store's own accounting (`fact_store_bytes` /
    // `row_baseline_bytes`), so the comparison is exact, not sampled; the
    // shared arena and posting lists are excluded, while arena terms that
    // exist only for past-prefix columns are charged to the new layout.
    // Alongside the bytes, bit-identity is re-asserted on the trains
    // workload. Acceptance bar: >= 1.8x smaller.
    let fact_memory = fact_memory_entries(kb);

    // ---- 3. Posting-index memory: CSR (sorted keys + run offsets + one
    // contiguous index buffer) vs the retired per-key hashmap. Exact byte
    // accounting from the store itself. Acceptance bar: >= 1.5x smaller.
    let posting_memory = posting_memory_entries(kb);

    // ---- 4. Warm job submission: the same coverage job (one head-only
    // clause, always-true body, so the measured cost is the job machinery,
    // not deduction) submitted to a *standing* resident mesh vs run in the
    // one-shot shape — build a fresh service, ship the compiled KB, run
    // the job, tear the mesh down — that every pre-PR-8 entry point paid
    // per call. Bar: >= 5x.
    {
        use p2mdie_core::job::{JobSpec, JobState};
        use p2mdie_core::scheduler::{Service, ServiceConfig};

        let head_only = vec![level_clauses[0][0].clone()];
        let submit_once = |service: &Service| {
            let outcome = service
                .submit(JobSpec::coverage(d.examples.clone(), head_only.clone()))
                .expect("queue has room for one job")
                .wait();
            assert_eq!(outcome.state, JobState::Done, "{:?}", outcome.error);
            black_box(outcome.coverage().len());
        };

        let before = best_ns(samples, || {
            let service = Service::new(&d.engine, ServiceConfig::new(2));
            submit_once(&service);
            service.shutdown().expect("clean teardown");
        });
        let warm = Service::new(&d.engine, ServiceConfig::new(2));
        submit_once(&warm); // adopt the KB before the clock starts
        let after = best_ns(samples, || submit_once(&warm));
        warm.shutdown().expect("clean teardown");
        entries.push(Entry {
            name: "warm_job_submit",
            before_ns: before,
            after_ns: after,
        });
    }

    // ---- Flight-recorder sample: one instrumented refinement-coverage
    // pass with the prover hot counters on, snapshotted into the report's
    // machine-readable `metrics` block. Sampling is re-disabled before any
    // timing could be affected (all timed loops above ran with it off, so
    // the gated speedups measure the zero-overhead path).
    let metrics_snapshot = {
        use p2mdie_obs::metrics::hot;
        hot::reset();
        hot::enable();
        let mut masks: Option<Coverage> = None;
        for level in &level_clauses {
            let mut first_cov: Option<Coverage> = None;
            for clause in level {
                let cov = evaluate_rule_threads(
                    kb,
                    proof,
                    clause,
                    &d.examples,
                    masks.as_ref().map(|m| &m.pos),
                    masks.as_ref().map(|m| &m.neg),
                    1,
                );
                if first_cov.is_none() {
                    first_cov = Some(cov);
                }
            }
            masks = first_cov;
        }
        hot::disable();
        p2mdie_obs::MetricsSnapshot::from_entries(hot::entries())
    };

    // ---- Report.
    let mut json = String::from("{\n  \"description\": \"worker_startup: fresh textual consult vs compiled-KB snapshot load; fact_memory: column-native fact store vs the retired row+column layout (exact byte accounting; shared arena/postings excluded, column-only arena growth past the indexable prefix charged to the new layout); posting_memory: CSR posting store vs the retired per-key hashmap layout (exact byte accounting); warm_job_submit: one coverage job on a standing resident service mesh vs the one-shot build-ship-run-teardown shape. Best-of-N wall times\",\n  \"benches\": {\n");
    for e in entries.iter() {
        println!(
            "{:<24} before {:>12.0} ns   after {:>12.0} ns   speedup {:>5.2}x",
            e.name,
            e.before_ns,
            e.after_ns,
            e.speedup()
        );
        json.push_str(&format!(
            "    \"{}\": {{ \"before_ns\": {:.0}, \"after_ns\": {:.0}, \"speedup\": {:.3} }},\n",
            e.name,
            e.before_ns,
            e.after_ns,
            e.speedup(),
        ));
    }
    json.push_str("    \"fact_memory\": {\n");
    for (i, (name, baseline, store)) in fact_memory.iter().enumerate() {
        let reduction = *baseline as f64 / *store as f64;
        json.push_str(&format!(
            "      \"{}\": {{ \"row_baseline_bytes\": {}, \"column_store_bytes\": {}, \"reduction\": {:.3} }}{}\n",
            name,
            baseline,
            store,
            reduction,
            if i + 1 < fact_memory.len() { "," } else { "" }
        ));
    }
    json.push_str("    },\n    \"posting_memory\": {\n");
    for (i, (name, baseline, store)) in posting_memory.iter().enumerate() {
        let reduction = *baseline as f64 / *store as f64;
        json.push_str(&format!(
            "      \"{}\": {{ \"hashmap_baseline_bytes\": {}, \"csr_store_bytes\": {}, \"reduction\": {:.3} }}{}\n",
            name,
            baseline,
            store,
            reduction,
            if i + 1 < posting_memory.len() { "," } else { "" }
        ));
    }
    json.push_str("    }\n  },\n  \"metrics\": ");
    json.push_str(&metrics_snapshot.to_json(2));
    json.push_str("\n}\n");
    let memory_failed = report_fact_memory(&fact_memory) | report_posting_memory(&posting_memory);
    std::fs::write("BENCH_prover.json", &json).expect("write BENCH_prover.json");
    println!("\nwrote BENCH_prover.json");

    let mut failed = memory_failed;
    for (name, bar) in [("worker_startup", 5.0), ("warm_job_submit", 5.0)] {
        let e = entries
            .iter()
            .find(|e| e.name == name)
            .expect("gated entry present");
        if e.speedup() < bar {
            eprintln!(
                "FAIL: {name} speedup {:.2}x is below the {bar}x acceptance bar",
                e.speedup()
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
