//! The traced pass: per-layer metrics measured from outside, by timing
//! calls into each crate's public functions (layer = crate). Every call is
//! wrapped in a harness span, so the trace file shows where the pass spent
//! its time and the ledger gives each span's self time.
//!
//! Layer probes that replay work (`ilp.*`, `logic.prove_*`, snapshots, the
//! codec) run on the workload's timed input; run counts (`cluster.*`,
//! `core.*`) come from the rounds of the workload itself.

use crate::procfs::set_affinity;
use crate::run::{Round, Tally};
use crate::spans::Recorder;
use crate::stats::{median, minimum, percentile};
use crate::workloads::{parallel_cfg, run_op, Env, Instance, Workload, RANKS};
use p2mdie_cluster::codec::{from_bytes, to_bytes, Wire};
use p2mdie_cluster::comm::Endpoint;
use p2mdie_cluster::net::{worker_connect, MasterRendezvous};
use p2mdie_cluster::transport::{MeshTransport, Transport};
use p2mdie_cluster::{CostModel, TrafficStats};
use p2mdie_core::{run_parallel, run_sequential_timed, JobSpec, JobState};
use p2mdie_core::{Service, ServiceConfig, TcpConfig};
use p2mdie_ilp::{evaluate_rule, saturate, search_rules, Examples, IlpEngine};
use p2mdie_logic::clause::Clause;
use p2mdie_logic::{Bindings, KbSnapshot, KnowledgeBase, Prover, SymbolTable};
use p2mdie_obs::metrics::hot;
use p2mdie_obs::MetricValue;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Passes of the prove replay (one pass over a small input is too short
/// to time).
const REPLAY_PASSES: usize = 20;
/// Snapshot encodes and restores; the median counts.
const SNAPSHOT_REPS: usize = 5;
/// Encode/decode repetitions per payload.
const CODEC_REPS: usize = 10;
const PING_PONGS: usize = 2000;
const SMALL_MESSAGE: usize = 64;
const LARGE_MESSAGE: usize = 64 * 1024;
const LARGE_MESSAGES: usize = 400;
const NULL_JOBS: usize = 200;
/// Executions of the operation with the `crates/obs` recorder on, and as
/// many with it off.
const RECORDER_PASSES: usize = 3;
const NET_TIMEOUT: Duration = Duration::from_secs(30);

type Values = BTreeMap<&'static str, f64>;

fn add(values: &mut Values, name: &'static str, v: f64) {
    *values.entry(name).or_insert(0.0) += v;
}

fn fastest_wall(rounds: &[Round]) -> f64 {
    minimum(&rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>())
}

pub fn measure(
    w: Workload,
    input: &mut Instance,
    env: &Env,
    rounds: &[Round],
    rec: &mut Recorder,
    tally: &mut Tally,
    values: &mut Values,
) {
    let pass = rec.begin("traced-pass", 0);
    let ds = &input.ds;
    values.insert("datasets.generate_s", input.gen_s);
    values.insert("datasets.facts", ds.engine.kb.num_facts() as f64);
    values.insert("datasets.pos", ds.examples.num_pos() as f64);
    values.insert("datasets.neg", ds.examples.num_neg() as f64);

    // The sequential probes run the way `carc-seq` does: one thread.
    let mut engine = ds.engine.clone();
    engine.settings.eval_threads = 1;
    let examples = &ds.examples;
    hot::reset();
    let theory = if w == Workload::PyrSvcTcp {
        // No learn in this workload: the jobs evaluate fixed rules, and so
        // does the sampling of the program's hot-path counters.
        hot::enable();
        rec.time("ilp.evaluate[hot counters on]", 0, || {
            for rule in &input.rules {
                black_box(engine.evaluate(rule, examples, None, None));
            }
        });
        hot::disable();
        input.rules.clone()
    } else {
        learn_probes(&engine, examples, input.seed, env, rec, tally, values)
    };
    hot_counters(values);

    let (steps, seconds) = rec.time("logic.prove[replay]", 0, || {
        prove_replay(&engine, examples, &theory)
    });
    values.insert("logic.prove_steps", steps as f64);
    values.insert("logic.prove_steps_per_s", steps as f64 / seconds);

    let kb = &engine.kb;
    values.insert("logic.fact_store_bytes", kb.fact_store_bytes() as f64);
    values.insert("logic.posting_store_bytes", kb.posting_store_bytes() as f64);
    let (mut encode_ms, mut restore_ms) = (Vec::new(), Vec::new());
    for _ in 0..SNAPSHOT_REPS {
        let started = Instant::now();
        let snap = rec.time("logic.to_snapshot", 0, || kb.to_snapshot());
        encode_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let started = Instant::now();
        let restored = rec.time("logic.from_snapshot", 0, || {
            KnowledgeBase::from_snapshot(snap, SymbolTable::new())
        });
        restore_ms.push(started.elapsed().as_secs_f64() * 1e3);
        if restored.map_or(true, |r| r.num_facts() != kb.num_facts()) {
            tally.fail("the KB snapshot does not restore");
        }
    }
    values.insert("logic.snapshot_encode_ms", median(&encode_ms));
    values.insert("logic.snapshot_restore_ms", median(&restore_ms));

    let mut codec = CodecTotals::default();
    let bytes = codec.round_trip::<KbSnapshot>(&kb.to_snapshot(), rec);
    values.insert("logic.snapshot_bytes", bytes as f64);
    codec.round_trip(&(examples.pos.clone(), examples.neg.clone()), rec);
    codec.round_trip(&theory, rec);
    if codec.undecodable {
        tally.fail("a payload does not decode");
    }
    let mb = codec.bytes as f64 / 1e6;
    values.insert("cluster.codec_encode_mb_per_s", mb / codec.encode_s);
    values.insert("cluster.codec_decode_mb_per_s", mb / codec.decode_s);

    transport_probes(rec, tally, values);
    run_counts(w, rounds, values);
    if w == Workload::MeshPipeP2Tcp {
        // What real processes add to the same run: spawn, rendezvous, KB
        // ship over sockets, teardown. Against the in-process run that
        // ships the KB too.
        let cfg = parallel_cfg(input.seed).with_kb_shipping();
        let engine = input.ds.engine.clone();
        let examples = input.ds.examples.clone();
        let [twin_s, tcp_s] = fastest_in_turns(env.learn_reps, |turn| {
            if turn == 0 {
                let started = Instant::now();
                let twin = rec.time("core.run_parallel[twin]", 0, || {
                    run_parallel(&engine, &examples, &cfg)
                });
                match twin {
                    Ok(_) => Some(started.elapsed().as_secs_f64()),
                    Err(e) => {
                        tally.fail(&format!("in-process twin: {e}"));
                        None
                    }
                }
            } else {
                let out = run_op(w, input, env, rec);
                tally.add(&out);
                Some(out.wall_s)
            }
        });
        values.insert("core.spawn_ship_s", tcp_s - twin_s);
    }
    if w == Workload::PyrSvcTcp {
        service_probes(input, env, rounds, rec, tally, values);
    }
    recorder_overhead(w, input, env, rounds, rec, tally, values);
    rec.end(pass);
}

/// Executes `N` operations in turns, `reps` times over, and returns the
/// fastest wall of each (`timed(k)` runs operation `k` and returns its
/// seconds, `None` if it failed). Taken in turns they see the same phases of
/// the host, so their ratio or difference is steadier than either alone.
fn fastest_in_turns<const N: usize>(
    reps: usize,
    mut timed: impl FnMut(usize) -> Option<f64>,
) -> [f64; N] {
    let mut fastest = [f64::INFINITY; N];
    for _ in 0..reps {
        for (turn, best) in fastest.iter_mut().enumerate() {
            if let Some(seconds) = timed(turn) {
                *best = best.min(seconds);
            }
        }
    }
    // An operation that never succeeded has no time (and has been counted
    // as failed by `timed`).
    fastest.map(|s| if s.is_finite() { s } else { 0.0 })
}

/// The probes that replay a whole learn on the timed input: the sequential
/// run against the in-process parallel one (both clocks), the `ilp.*`
/// ledger, and the program's hot-path counters. Returns the learned theory.
fn learn_probes(
    engine: &IlpEngine,
    examples: &Examples,
    seed: u64,
    env: &Env,
    rec: &mut Recorder,
    tally: &mut Tally,
    values: &mut Values,
) -> Vec<Clause> {
    let model = CostModel::beowulf_2005();
    let cfg = parallel_cfg(seed);
    let mut reference = None;
    let (mut seq_vtime_s, mut par_vtime_s) = (0.0, 0.0);
    // The one place where two ranks may run side by side: the wall speedup
    // is a statement about parallel hardware, so it is measured on all the
    // CPUs the run was given — and is as unsteady as their placement.
    if let Err(e) = set_affinity(env.cpus) {
        tally.fail(&e);
    }
    let [seq_s, par_s] = fastest_in_turns(env.learn_reps, |turn| {
        let started = Instant::now();
        if turn == 0 {
            let rep = rec.time("core.run_sequential_timed", 0, || {
                run_sequential_timed(engine, examples, &model)
            });
            seq_vtime_s = rep.vtime;
            reference = Some((rep.theory, rep.steps));
        } else {
            match rec.time("core.run_parallel", 0, || {
                run_parallel(engine, examples, &cfg)
            }) {
                Ok(rep) => par_vtime_s = rep.vtime,
                Err(e) => {
                    tally.fail(&format!("in-process run_parallel: {e}"));
                    return None;
                }
            }
        }
        Some(started.elapsed().as_secs_f64())
    });
    if let Err(e) = set_affinity(env.cpus.lowest_only()) {
        tally.fail(&e);
    }
    values.insert("cluster.vtime_speedup", seq_vtime_s / par_vtime_s);
    values.insert("cluster.wall_speedup", seq_s / par_s);

    // ilp.*: three spans per epoch plus what is left of the replayed run;
    // of the replays the fastest one speaks.
    let ledger = (0..env.learn_reps.max(1))
        .map(|_| ledger_replay(engine, examples, rec))
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .expect("at least one replay");
    if reference != Some((ledger.theory.clone(), ledger.steps)) {
        tally.fail(&format!(
            "the Figure 1 replay ({} rules, {} steps) does not reproduce run_sequential",
            ledger.theory.len(),
            ledger.steps
        ));
    }
    let get = |k: &str| ledger.sums.get(k).copied().unwrap_or(0.0);
    let spans = get("ilp.saturate_s") + get("ilp.search_s") + get("ilp.evaluate_s");
    let residual = (ledger.wall_s - spans) / ledger.wall_s;
    if residual > 0.05 {
        eprintln!("bench_e2e: WARNING: ilp.ledger_residual {residual:.4} exceeds 0.05");
    }
    values.insert("ilp.ledger_residual", residual);
    values.insert(
        "ilp.bottom_literals_mean",
        get("bottom_literals") / get("saturations").max(1.0),
    );
    values.insert(
        "ilp.search_good_per_node",
        get("search_good") / get("ilp.search_nodes").max(1.0),
    );
    // The sums named like metrics are metrics; the others were scaffolding.
    values.extend(ledger.sums.iter().filter(|(k, _)| k.starts_with("ilp.")));

    // The program's own hot-path counters, sampled during one more
    // sequential learn that is not timed for anything else.
    hot::enable();
    rec.time("ilp.run_sequential[hot counters on]", 0, || {
        black_box(engine.run_sequential(examples));
    });
    hot::disable();
    ledger.theory
}

/// One replay of the covering loop: what it learned, and its span sums.
struct Ledger {
    theory: Vec<Clause>,
    steps: u64,
    wall_s: f64,
    sums: Values,
}

/// The covering loop of Figure 1 rebuilt from the public `saturate`,
/// `search_rules` and `evaluate_rule`, a span around each call. Mirrors
/// `p2mdie_ilp::run_sequential` decision for decision; the caller asserts
/// that theory and step total come out the same.
fn ledger_replay(engine: &IlpEngine, examples: &Examples, rec: &mut Recorder) -> Ledger {
    let IlpEngine {
        kb,
        modes,
        settings,
    } = engine;
    let mut sums = Values::new();
    let values = &mut sums;
    let ledger = rec.begin("ilp.ledger", 0);
    let mut theory = Vec::new();
    let mut steps = 0u64;
    let mut live = examples.full_pos_live();
    while let Some(seed_idx) = live.first() {
        let seed = &examples.pos[seed_idx];
        let open = rec.begin("ilp.saturate", 0);
        let bottom = saturate(kb, modes, settings, seed);
        add(values, "ilp.saturate_s", rec.end(open));
        let Some(bottom) = bottom else {
            live.clear(seed_idx);
            continue;
        };
        steps += bottom.steps;
        add(values, "ilp.saturate_steps", bottom.steps as f64);
        add(values, "saturations", 1.0);
        add(values, "bottom_literals", bottom.body_len() as f64);

        let open = rec.begin("ilp.search_rules", 0);
        let found = search_rules(kb, settings, &bottom, examples, Some(&live), &[]);
        add(values, "ilp.search_s", rec.end(open));
        steps += found.steps;
        add(values, "ilp.search_steps", found.steps as f64);
        add(values, "ilp.search_nodes", found.nodes as f64);
        add(values, "search_good", found.good.len() as f64);

        let Some(best) = found.best() else {
            live.clear(seed_idx);
            continue;
        };
        let clause = best.shape.to_clause(&bottom);
        let open = rec.begin("ilp.evaluate_rule", 0);
        let cov = evaluate_rule(kb, settings.proof, &clause, examples, Some(&live), None);
        add(values, "ilp.evaluate_s", rec.end(open));
        steps += cov.steps;
        add(values, "ilp.evaluate_steps", cov.steps as f64);
        live.difference_with(&cov.pos);
        live.clear(seed_idx);
        theory.push(clause);
    }
    Ledger {
        theory,
        steps,
        wall_s: rec.end(ledger),
        sums,
    }
}

/// For every learned rule × example: bind the head to the example, prove
/// the body. Returns the steps of one pass and the seconds of the fastest.
fn prove_replay(engine: &IlpEngine, examples: &Examples, theory: &[Clause]) -> (u64, f64) {
    let prover = Prover::new(&engine.kb, engine.settings.proof);
    let mut steps = 0u64;
    let mut fastest_s = f64::INFINITY;
    for _ in 0..REPLAY_PASSES {
        steps = 0;
        let started = Instant::now();
        for rule in theory {
            for example in examples.pos.iter().chain(&examples.neg) {
                let mut bindings = Bindings::new();
                if bindings.unify_literals(&rule.head, example, false) {
                    let (proved, stats) = prover.prove_with_bindings(&rule.body, bindings);
                    black_box(proved);
                    steps += stats.steps;
                }
            }
        }
        fastest_s = fastest_s.min(started.elapsed().as_secs_f64());
    }
    (steps, fastest_s)
}

fn hot_counters(values: &mut Values) {
    for entry in hot::entries() {
        match (entry.name.as_str(), entry.value) {
            ("prover_all_ground_kernel_total", MetricValue::Counter(n)) => {
                values.insert("logic.kernel_invocations", n as f64);
            }
            ("prover_posting_probe_hits_total", MetricValue::Counter(n)) => {
                values.insert("logic.posting_probe_hits", n as f64);
            }
            ("prover_posting_probe_misses_total", MetricValue::Counter(n)) => {
                values.insert("logic.posting_probe_misses", n as f64);
            }
            ("prover_batch_occupancy", MetricValue::Histogram { count, sum, .. }) => {
                values.insert(
                    "logic.batch_occupancy_mean",
                    sum as f64 / count.max(1) as f64,
                );
            }
            _ => {}
        }
    }
    hot::reset();
}

/// Encode/decode totals over the workload's real payloads: per payload its
/// bytes once, and the seconds of its fastest encode and decode.
#[derive(Default)]
struct CodecTotals {
    bytes: u64,
    encode_s: f64,
    decode_s: f64,
    undecodable: bool,
}

impl CodecTotals {
    /// Times `CODEC_REPS` encodes and decodes of `value`; returns the
    /// encoded length.
    fn round_trip<T: Wire>(&mut self, value: &T, rec: &mut Recorder) -> usize {
        let (mut encode_s, mut decode_s) = (f64::INFINITY, f64::INFINITY);
        let mut len = 0;
        for _ in 0..CODEC_REPS {
            let open = rec.begin("cluster.to_bytes", 0);
            let encoded = to_bytes(black_box(value));
            encode_s = encode_s.min(rec.end(open));
            len = encoded.len();
            let open = rec.begin("cluster.from_bytes", 0);
            self.undecodable |= from_bytes::<T>(encoded).is_err();
            decode_s = decode_s.min(rec.end(open));
        }
        self.bytes += len as u64;
        self.encode_s += encode_s;
        self.decode_s += decode_s;
        len
    }
}

/// Ping-pong between rank 0 (here) and rank 1 (`peer`, on its own thread):
/// the median round trip of a small message in µs, then the one-way rate of
/// large messages in MB/s.
fn ping_pong<T: Transport + Send>(mut here: Endpoint<T>, mut peer: Endpoint<T>) -> (f64, f64) {
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for _ in 0..PING_PONGS {
                let m = peer.recv_from(0).expect("ping");
                peer.send_bytes(0, m);
            }
            for _ in 0..LARGE_MESSAGES {
                peer.recv_from(0).expect("bulk message");
            }
            peer.send(0, &1u8);
        });
        // A `Vec<u8>` goes on the wire as a 4-byte length plus its bytes.
        let small = to_bytes(&vec![0u8; SMALL_MESSAGE - 4]);
        let mut rtt_us = Vec::with_capacity(PING_PONGS);
        for _ in 0..PING_PONGS {
            let started = Instant::now();
            here.send_bytes(1, small.clone());
            here.recv_from(1).expect("pong");
            rtt_us.push(started.elapsed().as_secs_f64() * 1e6);
        }
        let large = to_bytes(&vec![0u8; LARGE_MESSAGE - 4]);
        let started = Instant::now();
        for _ in 0..LARGE_MESSAGES {
            here.send_bytes(1, large.clone());
        }
        here.recv_from(1).expect("bulk ack");
        let mb = (LARGE_MESSAGES * LARGE_MESSAGE) as f64 / 1e6;
        (median(&rtt_us), mb / started.elapsed().as_secs_f64())
    })
}

fn endpoint<T: Transport>(rank: usize, transport: T) -> Endpoint<T> {
    Endpoint::from_parts(rank, 2, transport, CostModel::free(), TrafficStats::new(2))
}

/// Transport floor: the in-process mesh and a loopback TCP pair, threads
/// only, no worker process.
fn transport_probes(rec: &mut Recorder, tally: &mut Tally, values: &mut Values) {
    let mut mesh = MeshTransport::mesh(2).into_iter();
    let (here, peer) = (mesh.next().expect("rank 0"), mesh.next().expect("rank 1"));
    let (rtt, _) = rec.time("cluster.MeshTransport[ping-pong]", 0, || {
        ping_pong(endpoint(0, here), endpoint(1, peer))
    });
    values.insert("cluster.mesh_rtt_us", rtt);

    let pair = rec.time("cluster.MasterRendezvous+worker_connect", 0, || {
        let rendezvous = MasterRendezvous::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = rendezvous
            .local_addr()
            .map_err(|e| e.to_string())?
            .to_string();
        std::thread::scope(|scope| {
            let worker = scope.spawn(move || worker_connect(&addr, 1, NET_TIMEOUT));
            let master = rendezvous.accept_workers(1, CostModel::free(), NET_TIMEOUT);
            let worker = worker.join().expect("worker_connect panicked");
            match (master, worker) {
                (Ok(m), Ok((w, _model))) => Ok((m, w)),
                (Err(e), _) | (_, Err(e)) => Err(e.to_string()),
            }
        })
    });
    match pair {
        Err(e) => tally.fail(&format!("loopback TCP pair: {e}")),
        Ok((here, peer)) => {
            let (rtt, rate) = rec.time("cluster.TcpTransport[ping-pong]", 0, || {
                ping_pong(endpoint(0, here), endpoint(1, peer))
            });
            values.insert("cluster.tcp_rtt_us", rtt);
            values.insert("cluster.tcp_mb_per_s", rate);
        }
    }
}

/// `cluster.*` / `core.*` counts of one round of the workload itself. The
/// rounds all agree (checked when they ran), so the first one speaks.
fn run_counts(w: Workload, rounds: &[Round], values: &mut Values) {
    let c = &rounds[0].counts;
    let run_wall_s = fastest_wall(rounds);
    let ranks = if w == Workload::CarcSeq { 1 } else { RANKS };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    values.insert("cluster.bytes_total", c.bytes as f64);
    values.insert("cluster.messages_total", c.messages as f64);
    values.insert("cluster.bytes_per_message", ratio(c.bytes, c.messages));
    values.insert("cluster.dropped_sends", c.dropped as f64);
    values.insert("cluster.vtime_s", c.vtime_s);
    values.insert("cluster.vtime_wall_ratio", c.vtime_s / run_wall_s);
    values.insert("core.epochs", c.epochs as f64);
    values.insert("core.rules", c.rules as f64);
    values.insert("core.set_aside", c.set_aside as f64);
    values.insert("core.worker_steps_total", c.steps as f64);
    // The slowest rank sets each epoch: max ÷ mean of the per-rank steps.
    let imbalance = ratio(c.max_rank_steps * ranks as u64, c.steps);
    values.insert("core.worker_steps_imbalance", imbalance);
    values.insert("core.steps_per_message", ratio(c.steps, c.messages));
    values.insert("core.bag_accept_ratio", ratio(c.bag_accepted, c.bag_size));
    // 53 bits survive the trip through a JSON number.
    values.insert("core.theory_hash", (c.theory_hash >> 11) as f64);
}

/// Median round trip (µs) of a coverage job with no rule on `service`,
/// after a barrier job; shuts the service down.
fn null_job_us(service: Service, inst: &Instance) -> Result<f64, String> {
    let examples = &inst.ds.examples;
    let run = || -> Result<f64, String> {
        let barrier = JobSpec::coverage(examples.clone(), inst.rules[..1].to_vec());
        let done = service.submit(barrier).map_err(|e| e.to_string())?.wait();
        if done.state != JobState::Done {
            return Err(format!("barrier job: {:?}", done.error));
        }
        let mut us = Vec::with_capacity(NULL_JOBS);
        for _ in 0..NULL_JOBS {
            let spec = JobSpec::coverage(examples.clone(), Vec::new());
            let started = Instant::now();
            let done = service.submit(spec).map_err(|e| e.to_string())?.wait();
            us.push(started.elapsed().as_secs_f64() * 1e6);
            if done.state != JobState::Done {
                return Err(format!("null job: {:?}", done.error));
            }
        }
        Ok(median(&us))
    };
    let result = run();
    let down = service.shutdown().map_err(|e| format!("shutdown: {e}"));
    result.and_then(|us| down.map(|_| us))
}

/// Scheduler + framing + transport floor: a coverage job with no rule, on
/// an in-process and on a TCP resident mesh; and the job-loop figures.
fn service_probes(
    inst: &Instance,
    env: &Env,
    rounds: &[Round],
    rec: &mut Recorder,
    tally: &mut Tally,
    values: &mut Values,
) {
    let engine = &inst.ds.engine;
    let cfg = ServiceConfig::new(RANKS);
    let tcp = TcpConfig::with_worker_bin(&env.worker_bin);
    let inproc = rec.time("core.Service::new[null jobs]", inst.index, || {
        null_job_us(Service::new(engine, cfg.clone()), inst)
    });
    let over_tcp = rec.time("core.Service::new_tcp[null jobs]", inst.index, || {
        null_job_us(Service::new_tcp(engine, cfg, &tcp), inst)
    });
    for (metric, result) in [
        ("core.null_job_us_inproc", inproc),
        ("core.null_job_us_tcp", over_tcp),
    ] {
        match result {
            Ok(us) => drop(values.insert(metric, us)),
            Err(e) => tally.fail(&format!("{metric}: {e}")),
        }
    }
    let jobs = env.jobs.max(1) as f64;
    values.insert("core.job_bytes", rounds[0].counts.job_bytes as f64 / jobs);
    values.insert(
        "core.job_messages",
        rounds[0].counts.job_messages as f64 / jobs,
    );
    let all = |f: fn(&Round) -> &Vec<f64>| -> Vec<f64> {
        rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    values.insert(
        "core.job_p99_ms",
        percentile(&all(|r| &r.latencies_ms), 99.0),
    );
    let up: Vec<f64> = rounds.iter().map(|r| r.up_s).collect();
    values.insert("core.svc_up_s", minimum(&up));
}

/// What recording costs: the operation with the flight recorder of
/// `crates/obs` switched on and off in turns, and the harness's own spans
/// from the alternating rounds. Fastest against fastest.
fn recorder_overhead(
    w: Workload,
    input: &mut Instance,
    env: &Env,
    rounds: &[Round],
    rec: &mut Recorder,
    tally: &mut Tally,
    values: &mut Values,
) {
    let wall_of = |traced: bool| {
        let walls: Vec<f64> = rounds
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.wall_s)
            .collect();
        minimum(&walls)
    };
    values.insert("bench.span_overhead_ratio", wall_of(true) / wall_of(false));

    let [plain_s, recorded_s] = fastest_in_turns(RECORDER_PASSES, |turn| {
        if turn == 0 {
            let out = run_op(w, input, env, rec);
            tally.add(&out);
            return Some(out.wall_s);
        }
        let open = rec.begin("obs.trace[recorder on]", 0);
        let started = p2mdie_obs::trace::start(p2mdie_obs::trace::TraceConfig::default());
        let out = run_op(w, input, env, rec);
        let finished = p2mdie_obs::trace::finish();
        rec.end(open);
        tally.add(&out);
        match finished {
            Some((trace, summary)) if started => {
                values.insert("obs.events_total", trace.events.len() as f64);
                add(values, "obs.ring_overflows", summary.ring_overflows as f64);
                Some(out.wall_s)
            }
            _ => {
                tally.fail("the obs flight recorder did not start");
                None
            }
        }
    });
    values.insert("obs.trace_overhead_ratio", recorded_s / plain_s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::build_instance;

    #[test]
    fn ledger_replay_reproduces_run_sequential_and_sums_to_its_wall() {
        let mut rec = Recorder::new(true);
        let scale = Workload::CarcSeq.sizing(true).canary_scale;
        let inst = build_instance(Workload::CarcSeq, scale, 3, 0, &mut rec).unwrap();
        let reference = inst.ds.engine.run_sequential(&inst.ds.examples);
        let Ledger {
            theory,
            steps,
            wall_s,
            sums: values,
        } = ledger_replay(&inst.ds.engine, &inst.ds.examples, &mut rec);
        let expected: Vec<Clause> = reference.theory.into_iter().map(|r| r.clause).collect();
        assert_eq!((theory, steps), (expected, reference.steps));
        let parts = values["ilp.saturate_steps"] + values["ilp.search_steps"];
        assert_eq!(parts + values["ilp.evaluate_steps"], steps as f64);
        let spans = values["ilp.saturate_s"] + values["ilp.search_s"] + values["ilp.evaluate_s"];
        assert!(
            spans <= wall_s && spans > 0.5 * wall_s,
            "{spans} of {wall_s}"
        );
        let ledger = rec.ledger();
        assert_eq!(ledger["ilp.ledger"].count, 1);
        assert_eq!(ledger["ilp.saturate"].count as f64, values["saturations"]);
    }

    #[test]
    fn mesh_ping_pong_measures_something() {
        let mut mesh = MeshTransport::mesh(2).into_iter();
        let (here, peer) = (mesh.next().unwrap(), mesh.next().unwrap());
        let (rtt_us, mb_per_s) = ping_pong(endpoint(0, here), endpoint(1, peer));
        assert!(rtt_us > 0.0 && mb_per_s > 0.0);
    }
}
