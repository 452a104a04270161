//! The experiment driver: runs the paper's full §5 protocol — 5-fold CV of
//! the sequential baseline and of p²-mdie at every (width, processors)
//! configuration — and collects the raw series Tables 2–6 are rendered
//! from.

use crate::accuracy::score_theory;
use crate::folds::stratified_folds;
use p2mdie_cluster::CostModel;
use p2mdie_core::driver::{run_parallel, run_sequential_timed, ParallelConfig};
use p2mdie_core::Strategy;
use p2mdie_datasets::Dataset;
use p2mdie_ilp::settings::Width;

/// Sweep configuration (defaults reproduce the paper's grid).
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Dataset names (`p2mdie_datasets::by_name`).
    pub datasets: Vec<String>,
    /// Example-count scale factor (1.0 = the paper's Table 1 sizes).
    pub scale: f64,
    /// Master seed (dataset generation, folds, partitioning).
    pub seed: u64,
    /// Number of cross-validation folds (the paper uses 5).
    pub folds: usize,
    /// Processor counts (the paper uses 2, 4, 8).
    pub procs: Vec<usize>,
    /// Pipeline widths (the paper uses nolimit and 10).
    pub widths: Vec<Width>,
    /// Virtual-time cost model.
    pub model: CostModel,
    /// Strategies for the cross-strategy axis (Table 7). Each one runs at
    /// `widths[0]` × `procs.last()` so the comparison is apples-to-apples
    /// (Table 7's caption names the cell); the paper's grid (Tables 2–6)
    /// always runs the data-pipeline protocol, and its cell serves that
    /// strategy's row. Empty disables the axis.
    pub strategies: Vec<Strategy>,
    /// Print per-run progress to stderr.
    pub verbose: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            datasets: p2mdie_datasets::PAPER_DATASETS
                .iter()
                .map(|s| s.to_string())
                .collect(),
            scale: 1.0,
            seed: 2005,
            folds: 5,
            procs: vec![2, 4, 8],
            widths: vec![Width::Unlimited, Width::Limit(10)],
            model: CostModel::beowulf_2005(),
            strategies: vec![Strategy::DataPipeline],
            verbose: false,
        }
    }
}

/// Per-fold series of one configuration.
#[derive(Clone, Debug, Default)]
pub struct RunSeries {
    /// Virtual execution times (seconds), one per fold.
    pub times: Vec<f64>,
    /// Test-fold accuracies (percent).
    pub accs: Vec<f64>,
    /// Epoch counts.
    pub epochs: Vec<f64>,
    /// Communication volumes (MBytes).
    pub mbytes: Vec<f64>,
    /// Per-fold speedups vs the sequential fold time.
    pub speedups: Vec<f64>,
}

/// All results for one dataset.
#[derive(Clone, Debug)]
pub struct DatasetSweep {
    /// Dataset name.
    pub name: String,
    /// |E+| at the swept scale.
    pub pos: usize,
    /// |E−| at the swept scale.
    pub neg: usize,
    /// Sequential baseline series.
    pub seq: RunSeries,
    /// One series per `(width, procs)` cell, in sweep order.
    pub cells: Vec<(Width, usize, RunSeries)>,
    /// One series per strategy on the cross-strategy axis (all at
    /// `widths[0]` × `procs.last()`), in config order.
    pub strategy_cells: Vec<(Strategy, RunSeries)>,
}

impl DatasetSweep {
    /// Finds a cell's series.
    pub fn cell(&self, width: Width, procs: usize) -> Option<&RunSeries> {
        self.cells
            .iter()
            .find(|(w, p, _)| *w == width && *p == procs)
            .map(|(_, _, s)| s)
    }

    /// Finds a strategy cell's series.
    pub fn strategy_cell(&self, strategy: Strategy) -> Option<&RunSeries> {
        self.strategy_cells
            .iter()
            .find(|(s, _)| *s == strategy)
            .map(|(_, s)| s)
    }
}

/// The whole sweep's results.
#[derive(Clone, Debug)]
pub struct SweepResults {
    /// The configuration the sweep ran with.
    pub config: SweepConfig,
    /// Per-dataset results, in config order.
    pub datasets: Vec<DatasetSweep>,
}

/// Runs the full experiment grid.
///
/// # Panics
/// Panics on unknown dataset names or on a worker failure (both are bugs,
/// not recoverable conditions, in this harness).
pub fn run_sweep(cfg: &SweepConfig) -> SweepResults {
    let mut datasets = Vec::with_capacity(cfg.datasets.len());
    for name in &cfg.datasets {
        let ds = p2mdie_datasets::by_name(name, cfg.scale, cfg.seed)
            .unwrap_or_else(|| panic!("unknown dataset `{name}`"));
        datasets.push(sweep_dataset(&ds, cfg));
    }
    SweepResults {
        config: cfg.clone(),
        datasets,
    }
}

fn sweep_dataset(ds: &Dataset, cfg: &SweepConfig) -> DatasetSweep {
    let folds = stratified_folds(&ds.examples, cfg.folds, cfg.seed);
    let mut out = DatasetSweep {
        name: ds.name.to_owned(),
        pos: ds.examples.num_pos(),
        neg: ds.examples.num_neg(),
        seq: RunSeries::default(),
        cells: cfg
            .widths
            .iter()
            .flat_map(|w| cfg.procs.iter().map(|p| (*w, *p, RunSeries::default())))
            .collect::<Vec<_>>(),
        strategy_cells: cfg
            .strategies
            .iter()
            .map(|s| (*s, RunSeries::default()))
            .collect::<Vec<_>>(),
    };
    let strategy_width = cfg.widths.first().copied().unwrap_or(Width::Unlimited);
    let strategy_procs = cfg.procs.last().copied().unwrap_or(2);
    // The data pipeline's strategy row is the grid's cell at the same
    // (width, procs), run with the same seed: it is taken from there, not
    // run twice.
    let from_grid = out.cell(strategy_width, strategy_procs).is_some();
    let grid_row = |s: &Strategy| from_grid && *s == Strategy::DataPipeline;

    for (fi, fold) in folds.iter().enumerate() {
        // Sequential baseline for this fold.
        let seq = run_sequential_timed(&ds.engine, &fold.train, &cfg.model);
        let seq_acc = score_theory(&ds.engine, &seq.theory, &fold.test).accuracy_pct();
        if cfg.verbose {
            eprintln!(
                "[{}] fold {fi}: seq t={:.0}s epochs={} acc={:.1}% (wall {:.1}s)",
                ds.name,
                seq.vtime,
                seq.epochs,
                seq_acc,
                seq.wall.as_secs_f64()
            );
        }
        out.seq.times.push(seq.vtime);
        out.seq.accs.push(seq_acc);
        out.seq.epochs.push(seq.epochs as f64);
        out.seq.mbytes.push(0.0);
        out.seq.speedups.push(1.0);

        // The grid, then the cross-strategy axis: every strategy at the same
        // (width, procs) cell, against the same folds, so Table 7 compares
        // like with like.
        let grid = out.cells.iter_mut().map(|(w, p, series)| {
            let label = format!("p={p} w={}", w.label());
            let pcfg = cell_config(cfg, *p, *w, fi, Strategy::DataPipeline);
            (label, pcfg, series)
        });
        let strategies = out.strategy_cells.iter_mut().filter(|(s, _)| !grid_row(s));
        let strategies = strategies.map(|(strat, series)| {
            let pcfg = cell_config(cfg, strategy_procs, strategy_width, fi, *strat);
            (format!("strategy={strat}"), pcfg, series)
        });
        for (label, pcfg, series) in grid.chain(strategies) {
            let rep = run_parallel(&ds.engine, &fold.train, &pcfg)
                .unwrap_or_else(|e| panic!("parallel run ({label}) failed: {e}"));
            let acc = score_theory(&ds.engine, &rep.clauses(), &fold.test).accuracy_pct();
            if cfg.verbose {
                eprintln!(
                    "[{}] fold {fi}: {label} t={:.0}s speedup={:.2} epochs={} {:.1}MB acc={:.1}% (wall {:.1}s)",
                    ds.name,
                    rep.vtime,
                    seq.vtime / rep.vtime,
                    rep.epochs,
                    rep.megabytes(),
                    acc,
                    rep.wall.as_secs_f64()
                );
            }
            series.times.push(rep.vtime);
            series.accs.push(acc);
            series.epochs.push(rep.epochs as f64);
            series.mbytes.push(rep.megabytes());
            series.speedups.push(seq.vtime / rep.vtime);
        }
    }
    if let Some(cell) = out.cell(strategy_width, strategy_procs).cloned() {
        for (_, series) in out.strategy_cells.iter_mut().filter(|(s, _)| grid_row(s)) {
            *series = cell.clone();
        }
    }
    out
}

fn cell_config(
    cfg: &SweepConfig,
    workers: usize,
    width: Width,
    fold: usize,
    strategy: Strategy,
) -> ParallelConfig {
    ParallelConfig {
        workers,
        width,
        model: cfg.model,
        seed: cfg.seed.wrapping_add(fold as u64),
        ship_kb: false,
        transport: p2mdie_core::driver::TransportKind::InProcess,
        recovery: p2mdie_core::driver::RecoveryPolicy::Abort,
        chaos: Vec::new(),
        strategy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature sweep on a tiny scale: exercises the full pipeline
    /// (folds × configs × datasets) end to end.
    #[test]
    fn mini_sweep_produces_full_grid() {
        let cfg = SweepConfig {
            datasets: vec!["carcinogenesis".into()],
            scale: 0.08,
            seed: 1,
            folds: 2,
            procs: vec![2],
            widths: vec![Width::Limit(4)],
            model: CostModel::beowulf_2005(),
            strategies: Vec::new(),
            verbose: false,
        };
        let res = run_sweep(&cfg);
        assert_eq!(res.datasets.len(), 1);
        let d = &res.datasets[0];
        assert_eq!(d.seq.times.len(), 2);
        assert_eq!(d.cells.len(), 1);
        assert!(d.strategy_cells.is_empty());
        let cell = d.cell(Width::Limit(4), 2).unwrap();
        assert_eq!(cell.times.len(), 2);
        assert!(cell.times.iter().all(|t| *t > 0.0));
        assert!(cell.accs.iter().all(|a| (0.0..=100.0).contains(a)));
        assert!(cell.mbytes.iter().all(|m| *m > 0.0));
    }

    /// The cross-strategy axis: every strategy on two datasets, each
    /// producing a complete series.
    #[test]
    fn strategy_axis_covers_every_strategy_on_two_datasets() {
        let cfg = SweepConfig {
            datasets: vec!["carcinogenesis".into(), "mesh".into()],
            scale: 0.08,
            seed: 7,
            folds: 2,
            procs: vec![2],
            widths: vec![Width::Limit(4)],
            model: CostModel::beowulf_2005(),
            strategies: Strategy::ALL.to_vec(),
            verbose: false,
        };
        let res = run_sweep(&cfg);
        assert_eq!(res.datasets.len(), 2);
        for d in &res.datasets {
            assert_eq!(d.strategy_cells.len(), Strategy::ALL.len());
            for strat in Strategy::ALL {
                let s = d.strategy_cell(strat).unwrap();
                assert_eq!(s.times.len(), 2);
                assert!(s.times.iter().all(|t| *t > 0.0), "{strat} on {}", d.name);
                assert!(s.accs.iter().all(|a| (0.0..=100.0).contains(a)));
            }
        }
    }
}
