//! One run of one workload: warm-up on the seed's canaries, set-up of the
//! timed input, timed rounds, the end-to-end metrics — and, with
//! `--trace 1`, the traced pass and per-layer metrics. This is what the
//! benchmark driver invokes.

use crate::json::{obj, Json};
use crate::layers;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::procfs::{affinity, peak_rss_mb, set_affinity};
use crate::spans::Recorder;
use crate::stats::{median, minimum};
use crate::workloads::{build_instance, canary_seed, run_op, Counts, Env, Instance, Workload};
use crate::workloads::{OpOutput, INPUT_SEED};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Canaries per run: inputs drawn from `--seed` on which the operation is
/// executed (and checked) before timing starts. They also page the worker
/// binary in and give the allocator its arenas.
const CANARIES: usize = 2;
/// Timed rounds are repeated until the measuring time is up, but never
/// fewer than this.
const MIN_ROUNDS: usize = 3;

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

/// One execution of the operation on the timed input.
pub struct Round {
    /// The timed part: the learn call, or the job loop.
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Service workload: mesh bring-up including the barrier job.
    pub up_s: f64,
    /// Latency of each user-visible call: the one learn call, or the jobs.
    pub latencies_ms: Vec<f64>,
    pub counts: Counts,
    /// Whether the harness recorder was on during this round.
    pub traced: bool,
}

/// Failure bookkeeping for the result line.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records a failed operation outside the rounds (the probes' calls
    /// and self-checks).
    pub fn fail(&mut self, why: &str) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("bench_e2e: FAILED: {why}");
    }

    /// Adds an executed operation's verdicts.
    pub fn add(&mut self, out: &OpOutput) {
        self.attempted += out.attempted;
        self.failed += out.failed;
        for e in &out.errors {
            eprintln!("bench_e2e: FAILED: {e}");
        }
    }
}

fn one_round(
    w: Workload,
    input: &mut Instance,
    env: &Env,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Round {
    let out = run_op(w, input, env, rec);
    tally.add(&out);
    Round {
        wall_s: out.wall_s,
        cpu_s: out.cpu_s,
        up_s: out.up_s,
        latencies_ms: out.latencies_ms,
        counts: out.counts,
        traced: false,
    }
}

/// Where result and trace files go: next to the build products.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("bench_e2e")
}

fn metrics_json<'a>(
    defs: impl Iterator<Item = &'a MetricDef>,
    values: &BTreeMap<&'static str, f64>,
) -> Json {
    Json::Obj(
        defs.map(|m| {
            // A layer the workload bypasses reports 0.
            let value = values.get(m.name).copied().unwrap_or(0.0);
            let entry = obj([("value", value.into()), ("unit", m.unit.into())]);
            (m.name.to_owned(), entry)
        })
        .collect(),
    )
}

/// Runs the workload and returns the result object whose rendering is the
/// last line of standard output.
pub fn run(args: &RunArgs) -> Result<Json, String> {
    let w = args.workload;
    let sizing = w.sizing(args.quick);
    let env = Env {
        worker_bin: if w.uses_worker_processes() {
            crate::env::worker_bin()?
        } else {
            PathBuf::new()
        },
        cpus: affinity()?,
        jobs: sizing.jobs,
        learn_reps: sizing.learn_reps,
    };
    // Everything a run times executes on one CPU: this thread, and the rank
    // threads and worker processes started from it, which inherit the
    // restriction. Two ranks then take turns instead of running side by
    // side, so the timings are those of the work done, not of how well the
    // host placed two vCPUs at that minute (README, "Why one CPU").
    set_affinity(env.cpus.lowest_only())?;
    let mut rec = Recorder::new(args.trace);
    let mut tally = Tally::default();

    let warm = rec.begin("warm-up", 0);
    for index in 1..=CANARIES {
        let seed = canary_seed(args.seed, index);
        let mut canary = build_instance(w, sizing.canary_scale, seed, index, &mut rec)?;
        tally.add(&run_op(w, &mut canary, &env, &mut rec));
    }
    rec.end(warm);

    let setup = rec.begin("set-up", 0);
    let mut input = build_instance(w, sizing.scale, INPUT_SEED, 0, &mut rec)?;
    rec.end(setup);

    // The traced pass spends half its time on rounds (alternating the
    // recorder off and on, which prices the harness's own spans) and the
    // other half on the layer probes.
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < budget {
        let traced = args.trace && rounds.len() % 2 == 1;
        rec.set_on(traced);
        input.set_up_again(w, &mut rec);
        let open = rec.begin("round", 0);
        let mut round = one_round(w, &mut input, &env, &mut rec, &mut tally);
        rec.end(open);
        round.traced = traced;
        rounds.push(round);
    }
    rec.set_on(args.trace);

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    if args.trace {
        layers::measure(
            w,
            &mut input,
            &env,
            &rounds,
            &mut rec,
            &mut tally,
            &mut values,
        );
        let dir = out_dir();
        let path = dir.join(format!("trace-{}.json", w.name()));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, rec.chrome_trace(w.name()).render()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("bench_e2e: harness trace written to {}", path.display());
        for (name, l) in rec.ledger() {
            eprintln!(
                "bench_e2e: span {name:<36} n={:<6} total={:>9.4}s self={:>9.4}s",
                l.count, l.total_s, l.self_s
            );
        }
    } else {
        // Every timing is that of the fastest repetition: interference from
        // the host only ever adds time, and on the box this was sized on the
        // fastest of a run's rounds repeats several times better than
        // their median does (README, "Why the fastest round").
        let fastest =
            |f: &dyn Fn(&Round) -> f64| minimum(&rounds.iter().map(f).collect::<Vec<_>>());
        let up: Vec<f64> = rounds.iter().map(|r| r.up_s).collect();
        values.insert("run_wall_s", fastest(&|r| r.wall_s));
        values.insert("cpu_s", fastest(&|r| r.cpu_s));
        values.insert("setup_s", input.gen_s + minimum(&up));
        values.insert("peak_rss_mb", peak_rss_mb());
        // The latency a client of one call sees: the round's median job, or
        // its one learn call (which makes this `run_wall_s` in ms there).
        values.insert("job_p50_ms", fastest(&|r| median(&r.latencies_ms)));
    }

    let metrics = if args.trace {
        metrics_json(PER_LAYER.iter(), &values)
    } else {
        metrics_json(END_TO_END.iter().map(|(m, _)| m), &values)
    };
    let walls: Vec<String> = rounds.iter().map(|r| format!("{:.3}", r.wall_s)).collect();
    eprintln!(
        "bench_e2e: {} seed {} — round walls [{}] s, {} of {} operations failed",
        w.name(),
        args.seed,
        walls.join(" "),
        tally.failed,
        tally.attempted
    );
    Ok(obj([
        ("correct", (tally.failed == 0).into()),
        ("attempted", tally.attempted.into()),
        ("failed", tally.failed.into()),
        ("metrics", metrics),
    ]))
}
