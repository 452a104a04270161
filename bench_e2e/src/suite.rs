//! The suite: every workload, each run in a fresh child process of this
//! executable (so `peak_rss_mb` and `cpu_s` belong to that run alone),
//! workloads interleaved round-robin so that drift of the host hits all
//! alike. Prints every metric by name with its unit and writes the full
//! result to `<target dir>/bench_e2e/result.json`.
//!
//! `--aa` runs the set twice and judges the benchmark the way the driver
//! does: per workload × end-to-end metric, the spread over the seeds of
//! each set and the shift of the median between the sets, against the
//! metric's bound; every deterministic count must agree exactly.

use crate::json::{obj, Json};
use crate::metrics::{is_deterministic, Better, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::run::out_dir;
use crate::stats::{median, quartiles, spread};
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

/// Untraced runs (seeds `seed`, `seed+1`, …) per workload in one set.
fn runs_per_set(quick: bool, aa: bool) -> u64 {
    match (quick, aa) {
        (true, _) => 1,
        (false, true) => 10,
        (false, false) => 3,
    }
}

/// Seconds a run measures: `run_seconds` of `BENCHMARK.json`, or a token
/// amount for the smoke test.
pub fn run_seconds(quick: bool) -> f64 {
    if quick {
        0.5
    } else {
        RUN_SECONDS as f64
    }
}

/// `name -> value` of one child run, plus its operation counts.
struct ChildResult {
    metrics: BTreeMap<String, f64>,
    attempted: f64,
    failed: f64,
    raw: Json,
}

fn run_child(w: Workload, seed: u64, trace: bool, quick: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &run_seconds(quick).to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("spawning {}: {e}", w.name()))?;
    if !output.status.success() {
        return Err(format!(
            "{} seed {seed}: child exited with {}",
            w.name(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let raw = Json::parse(last).map_err(|e| format!("{} seed {seed}: {e}", w.name()))?;
    let field = |k: &str| raw.get(k).and_then(Json::as_f64);
    let Some(Json::Obj(entries)) = raw.get("metrics") else {
        return Err(format!("{} seed {seed}: result has no metrics", w.name()));
    };
    let metrics = entries
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        metrics,
        attempted: field("attempted").unwrap_or(0.0),
        failed: field("failed").unwrap_or(0.0),
        raw,
    })
}

/// One full set: per workload the untraced runs and one traced run.
#[derive(Default)]
struct Set {
    /// workload → end-to-end metric → one value per run.
    end_to_end: BTreeMap<&'static str, BTreeMap<String, Vec<f64>>>,
    /// workload → per-layer metric → value of the traced run.
    per_layer: BTreeMap<&'static str, BTreeMap<String, f64>>,
    attempted: BTreeMap<&'static str, f64>,
    failed: BTreeMap<&'static str, f64>,
    raw: Vec<Json>,
    errors: Vec<String>,
}

fn run_set(seed: u64, quick: bool, aa: bool) -> Set {
    let mut set = Set::default();
    let record = |set: &mut Set, w: Workload, seed: u64, trace: bool| {
        eprintln!(
            "bench_e2e: — {} seed {seed} trace {} —",
            w.name(),
            u8::from(trace)
        );
        match run_child(w, seed, trace, quick) {
            Err(e) => set.errors.push(e),
            Ok(child) => {
                *set.attempted.entry(w.name()).or_default() += child.attempted;
                *set.failed.entry(w.name()).or_default() += child.failed;
                if trace {
                    set.per_layer.insert(w.name(), child.metrics);
                } else {
                    let per_metric = set.end_to_end.entry(w.name()).or_default();
                    for (k, v) in child.metrics {
                        per_metric.entry(k).or_default().push(v);
                    }
                }
                set.raw.push(obj([
                    ("workload", w.name().into()),
                    ("seed", seed.into()),
                    ("trace", trace.into()),
                    ("result", child.raw),
                ]));
            }
        }
    };
    for run in 0..runs_per_set(quick, aa) {
        for w in Workload::ALL {
            record(&mut set, w, seed + run, false);
        }
    }
    for w in Workload::ALL {
        record(&mut set, w, seed, true);
    }
    set
}

fn print_set(set: &Set) {
    for w in Workload::ALL {
        let name = w.name();
        println!("\n== {name} ==");
        let (attempted, failed) = (
            set.attempted.get(name).copied().unwrap_or(0.0),
            set.failed.get(name).copied().unwrap_or(0.0),
        );
        println!(
            "  {:<34} {:>16.6} ratio   ({failed} of {attempted} operations)",
            "fail_share",
            if attempted > 0.0 {
                failed / attempted
            } else {
                1.0
            }
        );
        for (m, _) in &END_TO_END {
            let values = set.end_to_end.get(name).and_then(|e| e.get(m.name));
            let values = values.map(Vec::as_slice).unwrap_or_default();
            let iqr = quartiles(values).map_or(String::new(), |[q1, _, q3]| {
                format!(
                    "   q1 {q1:.6} q3 {q3:.6} spread {:.4}",
                    spread(values).unwrap_or(0.0)
                )
            });
            println!(
                "  {:<34} {:>16.6} {:<6} n={}{iqr}",
                m.name,
                median(values),
                m.unit,
                values.len()
            );
        }
        for m in &PER_LAYER {
            let v = set.per_layer.get(name).and_then(|p| p.get(m.name));
            println!(
                "  {:<34} {:>16.6} {}",
                m.name,
                v.copied().unwrap_or(0.0),
                m.unit
            );
        }
    }
}

/// Share by which `second` is worse than `first`, in the metric's direction.
fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// The A/A verdict: returns the number of failed checks.
fn judge(a: &Set, b: &Set) -> usize {
    let mut failures = 0;
    println!("\n== A/A: two sets of the same code ==");
    println!(
        "  {:<18} {:<18} {:>12} {:>8} {:>12} {:>8} {:>8} {:>6}",
        "workload", "metric", "median A", "spread", "median B", "spread", "shift", "bound"
    );
    for w in Workload::ALL {
        for (m, bound) in &END_TO_END {
            let values = |s: &Set| -> Vec<f64> {
                let e = s.end_to_end.get(w.name()).and_then(|e| e.get(m.name));
                e.cloned().unwrap_or_default()
            };
            let (va, vb) = (values(a), values(b));
            let (sa, sb) = (spread(&va).unwrap_or(0.0), spread(&vb).unwrap_or(0.0));
            let shift = worsening(m.better, median(&va), median(&vb));
            // The driver exempts the spread of setup_s, not its shift.
            let steady = m.name == "setup_s" || (sa <= *bound && sb <= *bound);
            let pass = steady && shift <= *bound && !va.is_empty() && !vb.is_empty();
            failures += usize::from(!pass);
            println!(
                "  {:<18} {:<18} {:>12.6} {:>8.4} {:>12.6} {:>8.4} {:>+8.4} {:>6} {}",
                w.name(),
                m.name,
                median(&va),
                sa,
                median(&vb),
                sb,
                shift,
                bound,
                if pass { "PASS" } else { "FAIL" }
            );
        }
        for m in PER_LAYER.iter().filter(|m| is_deterministic(m)) {
            let value = |s: &Set| {
                s.per_layer
                    .get(w.name())
                    .and_then(|p| p.get(m.name))
                    .copied()
            };
            if value(a) != value(b) {
                failures += 1;
                println!(
                    "  {:<18} {:<34} {:?} != {:?}  FAIL (deterministic count)",
                    w.name(),
                    m.name,
                    value(a),
                    value(b)
                );
            }
        }
    }
    println!("  deterministic counts compared exactly; {failures} check(s) failed");
    failures
}

pub fn run(seed: u64, quick: bool, aa: bool) -> ExitCode {
    // Refuse to start a long suite on a stale or missing worker binary.
    if let Err(e) = crate::env::worker_bin() {
        eprintln!("bench_e2e: {e}");
        return ExitCode::FAILURE;
    }
    let sets: Vec<Set> = (0..if aa { 2 } else { 1 })
        .map(|_| run_set(seed, quick, aa))
        .collect();
    let mut problems = 0;
    for set in &sets {
        print_set(set);
        for e in &set.errors {
            eprintln!("bench_e2e: FAILED: {e}");
        }
        problems += set.errors.len();
        problems += set.failed.values().filter(|f| **f > 0.0).count();
    }
    if let [a, b] = sets.as_slice() {
        problems += judge(a, b);
    }
    let result = obj([
        ("host", crate::env::host_info(seed)),
        ("quick", quick.into()),
        (
            "sets",
            Json::Arr(sets.into_iter().map(|s| Json::Arr(s.raw)).collect()),
        ),
    ]);
    let dir = out_dir();
    let path = dir.join("result.json");
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, result.pretty())) {
        Ok(()) => println!("\nfull result: {}", path.display()),
        Err(e) => {
            eprintln!("bench_e2e: writing {}: {e}", path.display());
            problems += 1;
        }
    }
    if problems == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("bench_e2e: {problems} problem(s)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert_eq!(worsening(Better::Lower, 2.0, 2.5), 0.25);
        assert_eq!(worsening(Better::Lower, 2.0, 1.5), -0.25);
        assert_eq!(worsening(Better::Higher, 2.0, 1.5), 0.25);
    }
}
