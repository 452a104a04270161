//! `reproduce` — regenerates every table and figure of Fonseca et al.,
//! "A pipelined data-parallel algorithm for ILP" (CLUSTER 2005).
//!
//! ```text
//! reproduce all                  # everything (Tables 1-7 + Figure 3/4)
//! reproduce table1 ... table7    # one table (table7 = data-pipeline vs
//!                                # search-partition, unlimited width)
//! reproduce figure3              # pipeline trace (Figures 3-4)
//! reproduce ablation             # strategy ablation (p2-mdie vs baselines)
//! Options:
//!   --scale X     example-count scale factor (default 0.25; 1.0 = paper)
//!   --seed N      master seed (default 2005)
//!   --folds K     cross-validation folds (default 5, as in the paper)
//!   --procs LIST  processor counts (default 2,4,8; table7 runs at the last)
//!   --datasets L  comma list (default carcinogenesis,mesh,pyrimidines)
//!   --quiet       suppress per-run progress on stderr
//! ```
//!
//! An unknown table, dataset or option exits 2 with the usage line before
//! any work starts, and so does a size no run can take: `--procs` outside
//! `1..=254`, fewer than 2 `--folds`, a `--scale` that is not a positive
//! number.
//!
//! Times are *virtual seconds* under the Beowulf-2005 cost model; speedup,
//! communication, epoch and accuracy columns are directly comparable to the
//! paper's (what stands in for the paper's cluster and for its datasets is
//! stated in `p2mdie_cluster::vtime` and in `p2mdie_datasets`).

use p2mdie_cluster::CostModel;
use p2mdie_core::baselines::{run_coverage_parallel, EvalGranularity};
use p2mdie_core::driver::{run_parallel, run_sequential_timed, ParallelConfig};
use p2mdie_core::report::render_pipeline_trace;
use p2mdie_core::{Strategy, MAX_WORKERS};
use p2mdie_eval::sweep::{run_sweep, SweepConfig};
use p2mdie_eval::tables;
use p2mdie_ilp::settings::Width;

/// What `reproduce` can be asked to run.
const WHAT: [&str; 10] = [
    "all", "table1", "table2", "table3", "table4", "table5", "table6", "table7", "figure3",
    "ablation",
];

struct Args {
    what: Vec<String>,
    scale: f64,
    seed: u64,
    folds: usize,
    procs: Vec<usize>,
    datasets: Vec<String>,
    verbose: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        what: Vec::new(),
        scale: 0.25,
        seed: 2005,
        folds: 5,
        procs: vec![2, 4, 8],
        datasets: p2mdie_datasets::PAPER_DATASETS
            .iter()
            .map(|s| s.to_string())
            .collect(),
        verbose: true,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut grab = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--scale" => args.scale = grab("--scale")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.seed = grab("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--folds" => args.folds = grab("--folds")?.parse().map_err(|e| format!("{e}"))?,
            "--procs" => {
                args.procs = grab("--procs")?
                    .split(',')
                    .map(|s| s.parse().map_err(|e| format!("{e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--datasets" => {
                args.datasets = grab("--datasets")?
                    .split(',')
                    .map(|s| s.to_owned())
                    .collect();
                if let Some(bad) = args
                    .datasets
                    .iter()
                    .find(|d| !p2mdie_datasets::PAPER_DATASETS.contains(&d.as_str()))
                {
                    return Err(format!("unknown dataset {bad}"));
                }
            }
            "--quiet" => args.verbose = false,
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other if WHAT.contains(&other) => args.what.push(other.to_owned()),
            other => return Err(format!("unknown table {other}")),
        }
    }
    // Sizes no run can take are refused here too, before any rank starts.
    if !(args.scale.is_finite() && args.scale > 0.0) {
        return Err(format!("--scale {} is not a positive number", args.scale));
    }
    if args.folds < 2 {
        return Err(format!(
            "--folds {} leaves no fold to test on (2 at least)",
            args.folds
        ));
    }
    if let Some(p) = args.procs.iter().find(|p| !(1..=MAX_WORKERS).contains(*p)) {
        return Err(format!("--procs {p} is outside 1..={MAX_WORKERS}"));
    }
    if args.what.is_empty() {
        args.what.push("all".to_owned());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: reproduce [all|table1..table7|figure3|ablation] [--scale X] [--seed N] [--folds K] [--procs 2,4,8] [--datasets a,b] [--quiet]");
            std::process::exit(2);
        }
    };

    let wants = |k: &str| args.what.iter().any(|w| w == k || w == "all");
    let needs_sweep = ["table2", "table3", "table4", "table5", "table6", "table7"]
        .iter()
        .any(|t| wants(t));

    // Table 1 always reports the paper-scale characterization; the sweep
    // scale only affects the measured tables.
    if wants("table1") {
        let mut out = String::from("Table 1. Datasets Characterization\n");
        out.push_str("+-----------------+------+------+\n");
        out.push_str("| Dataset         | |E+| | |E-| |\n");
        out.push_str("+-----------------+------+------+\n");
        for name in &args.datasets {
            let d = p2mdie_datasets::by_name(name, 1.0, args.seed).expect("checked by parse_args");
            let (p, n) = d.characterization();
            out.push_str(&format!("| {name:<15} | {p:>4} | {n:>4} |\n"));
        }
        out.push_str("+-----------------+------+------+\n");
        println!("{out}");
    }

    if needs_sweep {
        let cfg = SweepConfig {
            datasets: args.datasets.clone(),
            scale: args.scale,
            seed: args.seed,
            folds: args.folds,
            procs: args.procs.clone(),
            widths: vec![Width::Unlimited, Width::Limit(10)],
            model: CostModel::beowulf_2005(),
            strategies: if wants("table7") {
                Strategy::ALL.to_vec()
            } else {
                Vec::new()
            },
            verbose: args.verbose,
        };
        eprintln!(
            "running sweep: scale={} folds={} procs={:?} ({} full learning runs)",
            cfg.scale,
            cfg.folds,
            cfg.procs,
            // The grid's cell serves the data pipeline's strategy row.
            cfg.datasets.len()
                * cfg.folds
                * (1 + cfg.procs.len() * cfg.widths.len()
                    + cfg
                        .strategies
                        .iter()
                        .filter(|s| **s != Strategy::DataPipeline)
                        .count()),
        );
        let res = run_sweep(&cfg);
        println!(
            "(sweep at scale {}, {} folds, virtual Beowulf-2005 cost model)\n",
            cfg.scale, cfg.folds
        );
        if wants("table2") {
            println!("{}", tables::table2(&res));
        }
        if wants("table3") {
            println!("{}", tables::table3(&res));
        }
        if wants("table4") {
            println!("{}", tables::table4(&res));
        }
        if wants("table5") {
            println!("{}", tables::table5(&res));
        }
        if wants("table6") {
            println!("{}", tables::table6(&res));
        }
        if wants("table7") {
            println!("{}", tables::table7(&res));
        }
    }

    if wants("ablation") {
        // Strategy ablation (not a paper table; supports §4.1 and §6):
        // p²-mdie vs data-parallel coverage testing (Konstantopoulos
        // per-clause / Graham per-level) vs per-epoch repartitioning.
        let model = CostModel::beowulf_2005();
        let p = 4;
        println!(
            "Ablation. Parallelization strategies (scale {}, p = {p})\n",
            args.scale
        );
        println!(
            "{:<34} {:>10} {:>9} {:>10} {:>8}",
            "strategy", "T(p) [s]", "speedup", "MBytes", "msgs"
        );
        for name in &args.datasets {
            let ds = p2mdie_datasets::by_name(name, args.scale, args.seed)
                .expect("checked by parse_args");
            let seq = run_sequential_timed(&ds.engine, &ds.examples, &model);
            println!("--- {name} (T(1) = {:.0} s) ---", seq.vtime);
            let p2 = run_parallel(
                &ds.engine,
                &ds.examples,
                &ParallelConfig::new(p, Width::Limit(10), args.seed),
            )
            .expect("p2mdie run");
            println!(
                "{:<34} {:>10.0} {:>9.2} {:>10.2} {:>8}",
                "p2-mdie (width 10)",
                p2.vtime,
                seq.vtime / p2.vtime,
                p2.megabytes(),
                p2.total_messages
            );
            let rp = run_parallel(
                &ds.engine,
                &ds.examples,
                &ParallelConfig::new(p, Width::Limit(10), args.seed)
                    .with_strategy(Strategy::Redeal),
            )
            .expect("re-dealing run");
            println!(
                "{:<34} {:>10.0} {:>9.2} {:>10.2} {:>8}",
                "p2-mdie + epoch repartitioning",
                rp.vtime,
                seq.vtime / rp.vtime,
                rp.megabytes(),
                rp.total_messages
            );
            for (label, gran) in [
                ("coverage-parallel (per level)", EvalGranularity::PerLevel),
                ("coverage-parallel (per clause)", EvalGranularity::PerClause),
            ] {
                let cfg = ParallelConfig::new(p, Width::Unlimited, args.seed);
                let cp = run_coverage_parallel(&ds.engine, &ds.examples, &cfg, gran)
                    .expect("baseline run");
                println!(
                    "{:<34} {:>10.0} {:>9.2} {:>10.2} {:>8}",
                    label,
                    cp.vtime,
                    seq.vtime / cp.vtime,
                    cp.megabytes(),
                    cp.total_messages
                );
            }
        }
        println!();
    }

    if wants("figure3") {
        // One small run with 3 workers; render the first two epochs'
        // pipeline activity, reproducing Figures 3-4 from a live run.
        let ds = p2mdie_datasets::carcinogenesis(0.15, args.seed);
        let cfg = ParallelConfig::new(3, Width::Limit(10), args.seed);
        let rep = run_parallel(&ds.engine, &ds.examples, &cfg).expect("figure3 run");
        println!("Figure 3/4. Pipelined rule search with 3 workers (live trace)\n");
        for trace in rep.traces.iter().take(2) {
            println!("{}", render_pipeline_trace(trace, &ds.syms));
        }
        println!(
            "run summary: {} epochs, {} rules, T({}) = {:.0} virtual s, {:.2} MB",
            rep.epochs,
            rep.theory.len(),
            cfg.workers,
            rep.vtime,
            rep.megabytes()
        );
    }
}
