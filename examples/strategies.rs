//! The strategy seam, side by side: the same learning task solved under
//! each of the three ways the runtime deals a run's examples —
//!
//! * `data-pipeline` — the paper's §4 protocol: examples partitioned once,
//!   pipelined rule searches, globally-scored rule bag;
//! * `search-partition` — hypothesis-parallel: every rank holds the full
//!   example set and searches a disjoint slice of the refinement lattice;
//! * `redeal` — the paper's protocol with the live examples re-dealt before
//!   every epoch (§4.1's rejected alternative).
//!
//! The run ends with the eval crate's cross-strategy comparison table
//! (Table 7) over two datasets.
//!
//! ```sh
//! cargo run --release --example strategies
//! ```

use p2mdie::cluster::CostModel;
use p2mdie::core::driver::{run_parallel, run_sequential_timed, ParallelConfig};
use p2mdie::core::Strategy;
use p2mdie::eval::sweep::{run_sweep, SweepConfig};
use p2mdie::eval::tables;
use p2mdie::ilp::settings::Width;

fn main() {
    let ds = p2mdie::datasets::trains(16, 5);
    println!(
        "dataset: {} — {} eastbound / {} westbound trains\n",
        ds.name,
        ds.examples.num_pos(),
        ds.examples.num_neg()
    );

    let seq = run_sequential_timed(&ds.engine, &ds.examples, &CostModel::beowulf_2005());
    println!(
        "sequential MDIE baseline:  T = {:>7.1} virtual s  ({} epochs, {} rules)",
        seq.vtime,
        seq.epochs,
        seq.theory.len()
    );

    for strategy in Strategy::ALL {
        let cfg = ParallelConfig::new(3, Width::Limit(10), 5).with_strategy(strategy);
        let rep = run_parallel(&ds.engine, &ds.examples, &cfg).expect("strategy run");
        println!(
            "{:<18} p = 3:  T = {:>7.1} virtual s  speedup {:>5.2}  \
             ({} epochs, {} rules, {:.3} MB)",
            strategy.label(),
            rep.vtime,
            seq.vtime / rep.vtime,
            rep.epochs,
            rep.theory.len(),
            rep.megabytes(),
        );
    }

    // The eval crate's strategy axis: every strategy on two datasets,
    // cross-validated, rendered as Table 7.
    println!("\nrunning the cross-strategy sweep (2 datasets, 2 folds)...\n");
    let sweep = SweepConfig {
        datasets: vec!["carcinogenesis".into(), "mesh".into()],
        scale: 0.12,
        seed: 2005,
        folds: 2,
        procs: vec![2],
        widths: vec![Width::Limit(10)],
        model: CostModel::beowulf_2005(),
        strategies: Strategy::ALL.to_vec(),
        verbose: false,
    };
    let res = run_sweep(&sweep);
    println!("{}", tables::table7(&res));
    println!("(times are virtual Beowulf-2005 seconds)");
}
