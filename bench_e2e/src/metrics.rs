//! The metric tables: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` is generated from these (`--benchmark-json`)
//! and a test keeps the checked-in file equal to them.

use crate::json::{obj, Json};
use crate::workloads::Workload;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// End-to-end metrics with the share of the parent's median by which each
/// may worsen. The benchmark contract asks for three times the spread ten
/// runs show and allows 0.25 at most. On the shared 2-vCPU VM this was
/// sized on, sets of ten runs spread the timings by 1–3 % in a quiet hour
/// and by up to 13 % in one where three of the ten fell into a slow phase
/// of the host (README, "Measured spreads and the bounds"), so the timings
/// take the cap; resident memory spread by up to 4.6 %.
pub const END_TO_END: [(MetricDef, f64); 5] = [
    (lower("run_wall_s", "s"), 0.25),
    (lower("cpu_s", "s"), 0.25),
    (lower("setup_s", "s"), 0.25),
    (lower("peak_rss_mb", "MB"), 0.1),
    (lower("job_p50_ms", "ms"), 0.25),
];

/// Per-layer metrics (layer = crate), measured from outside in the traced
/// pass. A workload that bypasses a layer reports 0 for it.
pub const PER_LAYER: [MetricDef; 57] = [
    lower("datasets.generate_s", "s"),
    lower("datasets.facts", "count"),
    lower("datasets.pos", "count"),
    lower("datasets.neg", "count"),
    higher("logic.prove_steps_per_s", "1/s"),
    lower("logic.prove_steps", "count"),
    lower("logic.snapshot_encode_ms", "ms"),
    lower("logic.snapshot_restore_ms", "ms"),
    lower("logic.snapshot_bytes", "B"),
    lower("logic.fact_store_bytes", "B"),
    lower("logic.posting_store_bytes", "B"),
    higher("logic.kernel_invocations", "count"),
    higher("logic.posting_probe_hits", "count"),
    lower("logic.posting_probe_misses", "count"),
    higher("logic.batch_occupancy_mean", "count"),
    lower("ilp.saturate_s", "s"),
    lower("ilp.saturate_steps", "count"),
    lower("ilp.bottom_literals_mean", "count"),
    lower("ilp.search_s", "s"),
    lower("ilp.search_nodes", "count"),
    lower("ilp.search_steps", "count"),
    higher("ilp.search_good_per_node", "ratio"),
    lower("ilp.evaluate_s", "s"),
    lower("ilp.evaluate_steps", "count"),
    lower("ilp.ledger_residual", "ratio"),
    higher("cluster.codec_encode_mb_per_s", "MB/s"),
    higher("cluster.codec_decode_mb_per_s", "MB/s"),
    lower("cluster.mesh_rtt_us", "us"),
    lower("cluster.tcp_rtt_us", "us"),
    higher("cluster.tcp_mb_per_s", "MB/s"),
    lower("cluster.bytes_total", "B"),
    lower("cluster.messages_total", "count"),
    lower("cluster.bytes_per_message", "B"),
    lower("cluster.dropped_sends", "count"),
    lower("cluster.vtime_s", "s"),
    lower("cluster.vtime_wall_ratio", "ratio"),
    higher("cluster.vtime_speedup", "ratio"),
    higher("cluster.wall_speedup", "ratio"),
    lower("core.epochs", "count"),
    lower("core.rules", "count"),
    lower("core.set_aside", "count"),
    lower("core.worker_steps_total", "count"),
    lower("core.worker_steps_imbalance", "ratio"),
    higher("core.steps_per_message", "count"),
    higher("core.bag_accept_ratio", "ratio"),
    lower("core.theory_hash", "hash"),
    lower("core.spawn_ship_s", "s"),
    lower("core.null_job_us_inproc", "us"),
    lower("core.null_job_us_tcp", "us"),
    lower("core.job_bytes", "B"),
    lower("core.job_messages", "count"),
    lower("core.job_p99_ms", "ms"),
    lower("core.svc_up_s", "s"),
    lower("obs.trace_overhead_ratio", "ratio"),
    lower("obs.events_total", "count"),
    lower("obs.ring_overflows", "count"),
    lower("bench.span_overhead_ratio", "ratio"),
];

/// Is the metric a count made by the program (or a ratio of such counts)?
/// Two runs of the same code on the same seed must agree on those exactly.
pub fn is_deterministic(m: &MetricDef) -> bool {
    match m.name {
        // Depends on how fast the recorder's writer thread drains.
        "obs.ring_overflows" => false,
        "cluster.vtime_s"
        | "cluster.vtime_speedup"
        | "ilp.search_good_per_node"
        | "core.worker_steps_imbalance"
        | "core.bag_accept_ratio" => true,
        _ => matches!(m.unit, "count" | "B" | "hash"),
    }
}

/// Why each workload exists, in one line (`workloads[].why`).
pub fn why(w: Workload) -> &'static str {
    match w {
        Workload::CarcSeq => {
            "single-threaded run_sequential baseline: only logic+ilp run, so a protocol or \
             transport change must not move it and a prover, coverage or search change must"
        }
        Workload::CarcPipeP2 => {
            "the paper's pipelined algorithm on an in-process p=2 mesh where deduction \
             dominates (200 k steps per message); with carc-seq on the same input it gives \
             the wall speedup"
        }
        Workload::MeshPipeP2Tcp => {
            "Table-1-size mesh over real p2mdie-worker processes: 10 k steps per message, so \
             spawn, KB ship, protocol, codec and sockets weigh 20x more per step than on \
             carc-pipe-p2"
        }
        Workload::PyrSvcTcp => {
            "same layers used differently: fixed-rule coverage jobs on Table-1-size \
             pyrimidines, request/response over a resident TCP service, scheduler and \
             SubmitJob framing; no search"
        }
    }
}

fn better_str(b: Better) -> &'static str {
    match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    }
}

/// The `BENCHMARK.json` document.
pub fn benchmark_json() -> Json {
    let workloads = Workload::ALL
        .into_iter()
        .map(|w| obj([("name", w.name().into()), ("why", why(w).into())]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|(m, bound)| {
            obj([
                ("name", m.name.into()),
                ("unit", m.unit.into()),
                ("better", better_str(m.better).into()),
                ("bound", (*bound).into()),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            obj([
                ("name", m.name.into()),
                ("unit", m.unit.into()),
                ("better", better_str(m.better).into()),
            ])
        })
        .collect();
    obj([
        (
            "command",
            Json::Arr(vec!["bash".into(), "bench_e2e/run.sh".into()]),
        ),
        ("paths", Json::Arr(vec!["bench_e2e".into()])),
        ("run_seconds", RUN_SECONDS.into()),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn legal_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
    }

    #[test]
    fn tables_obey_the_benchmark_contract() {
        let mut names = BTreeSet::new();
        let defs = END_TO_END.iter().map(|(m, _)| m).chain(PER_LAYER.iter());
        for m in defs {
            assert!(legal_name(m.name), "{}", m.name);
            assert!(names.insert(m.name), "{} is used twice", m.name);
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16 && m.unit.chars().all(unit_ok));
        }
        for (m, bound) in &END_TO_END {
            assert!(*bound > 0.0 && *bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|(m, _)| m.name == "setup_s")
            .unwrap();
        assert_eq!((setup.0.unit, setup.0.better), ("s", Better::Lower));
        let largest = END_TO_END.iter().map(|(_, b)| *b).fold(0.0, f64::max);
        assert_eq!(setup.1, largest, "setup_s carries the largest bound");
        assert!(PER_LAYER.len() <= 128 && (2..=8).contains(&Workload::ALL.len()));
        for w in Workload::ALL {
            assert!(legal_name(w.name()) && names.insert(w.name()));
            assert!(why(w).len() <= 200 && !why(w).contains('\n'));
        }
        // 4 + 22 runs per workload, each well under run_seconds + 15 s of
        // set-up, warm-up and checks, plus two builds, within 3420 s.
        let runs = 4 + 22 * Workload::ALL.len() as u64;
        assert!(runs * (RUN_SECONDS + 15) + 2 * 90 < 3420);
    }

    #[test]
    fn checked_in_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            Json::parse(&text),
            Ok(benchmark_json()),
            "regenerate with `bash bench_e2e/run.sh --benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn deterministic_columns_are_the_counted_ones() {
        let det = |name: &str| {
            let m = PER_LAYER.iter().find(|m| m.name == name).expect(name);
            is_deterministic(m)
        };
        for name in [
            "logic.prove_steps",
            "ilp.search_steps",
            "logic.snapshot_bytes",
            "cluster.bytes_total",
            "cluster.bytes_per_message",
            "cluster.messages_total",
            "core.job_messages",
            "core.epochs",
            "core.rules",
            "core.theory_hash",
            "cluster.vtime_s",
        ] {
            assert!(det(name), "{name}");
        }
        for name in [
            "ilp.search_s",
            "cluster.tcp_rtt_us",
            "logic.prove_steps_per_s",
            "cluster.wall_speedup",
            "obs.trace_overhead_ratio",
        ] {
            assert!(!det(name), "{name}");
        }
    }
}
