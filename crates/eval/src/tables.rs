//! Renders the sweep results as the paper's Tables 1–6 (ASCII).

use crate::stats::{mean, stddev};
use crate::sweep::{RunSeries, SweepResults};
use crate::ttest::paired_ttest;
use p2mdie_ilp::settings::Width;
use std::fmt::Write as _;

/// Renders a fixed-width ASCII table.
pub fn render_table(title: &str, header: &[String], rows: &[Vec<String>]) -> String {
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let rule = |out: &mut String| {
        for w in &widths {
            let _ = write!(out, "+-{}-", "-".repeat(*w));
        }
        let _ = writeln!(out, "+");
    };
    let line = |out: &mut String, cells: &[String]| {
        for (i, w) in widths.iter().enumerate().take(ncols) {
            let empty = String::new();
            let c = cells.get(i).unwrap_or(&empty);
            let _ = write!(out, "| {c:>w$} ");
        }
        let _ = writeln!(out, "|");
    };
    rule(&mut out);
    line(&mut out, header);
    rule(&mut out);
    for row in rows {
        line(&mut out, row);
    }
    rule(&mut out);
    out
}

fn cell_label(width: Width) -> String {
    width.label()
}

/// Table 1: dataset characterization (|E+|, |E−|).
pub fn table1(res: &SweepResults) -> String {
    let header = vec!["Dataset".to_owned(), "|E+|".to_owned(), "|E-|".to_owned()];
    let rows: Vec<Vec<String>> = res
        .datasets
        .iter()
        .map(|d| vec![d.name.clone(), d.pos.to_string(), d.neg.to_string()])
        .collect();
    render_table("Table 1. Datasets Characterization", &header, &rows)
}

fn grid_table<F>(res: &SweepResults, title: &str, include_seq: bool, f: F) -> String
where
    F: Fn(&RunSeries) -> String,
{
    let mut header = vec!["Dataset".to_owned(), "Width".to_owned()];
    if include_seq {
        header.push("1".to_owned());
    }
    for p in &res.config.procs {
        header.push(p.to_string());
    }
    let mut rows = Vec::new();
    for d in &res.datasets {
        for (wi, w) in res.config.widths.iter().enumerate() {
            let mut row = vec![d.name.clone(), cell_label(*w)];
            if include_seq {
                row.push(if wi == 0 { f(&d.seq) } else { "-".to_owned() });
            }
            for p in &res.config.procs {
                let s = d.cell(*w, *p).expect("cell present");
                row.push(f(s));
            }
            rows.push(row);
        }
    }
    render_table(title, &header, &rows)
}

/// Table 2: average speedup per (width, processors).
pub fn table2(res: &SweepResults) -> String {
    grid_table(res, "Table 2. Average speedup observed", false, |s| {
        format!("{:.2}", mean(&s.speedups))
    })
}

/// Table 3: average execution time (virtual seconds).
pub fn table3(res: &SweepResults) -> String {
    grid_table(
        res,
        "Table 3. Average execution time (in seconds)",
        true,
        |s| format!("{:.0}", mean(&s.times)),
    )
}

/// Table 4: average communication exchanged (MBytes).
pub fn table4(res: &SweepResults) -> String {
    grid_table(
        res,
        "Table 4. Average communication exchanged (in MBytes)",
        false,
        |s| format!("{:.1}", mean(&s.mbytes)),
    )
}

/// Table 5: average number of epochs.
pub fn table5(res: &SweepResults) -> String {
    grid_table(res, "Table 5. Average number of epochs", false, |s| {
        format!("{:.0}", mean(&s.epochs))
    })
}

/// Table 6: average predictive accuracy ± std, with `*` marking cells whose
/// paired t-test against the sequential run is significant at 98%.
pub fn table6(res: &SweepResults) -> String {
    let mut header = vec!["Dataset".to_owned(), "Width".to_owned(), "1".to_owned()];
    for p in &res.config.procs {
        header.push(p.to_string());
    }
    let mut rows = Vec::new();
    for d in &res.datasets {
        for (wi, w) in res.config.widths.iter().enumerate() {
            let mut row = vec![d.name.clone(), cell_label(*w)];
            row.push(if wi == 0 {
                format!("{:.2} ({:.2})", mean(&d.seq.accs), stddev(&d.seq.accs))
            } else {
                "-".to_owned()
            });
            for p in &res.config.procs {
                let s = d.cell(*w, *p).expect("cell present");
                let star = match paired_ttest(&s.accs, &d.seq.accs) {
                    Some(t) if t.significant_at(0.98) => "*",
                    _ => "",
                };
                row.push(format!(
                    "{star}{:.2} ({:.2})",
                    mean(&s.accs),
                    stddev(&s.accs)
                ));
            }
            rows.push(row);
        }
    }
    render_table(
        "Table 6. Average predictive accuracy (std in parenthesis)",
        &header,
        &rows,
    )
}

/// Table 7 (beyond the paper): cross-strategy comparison. One row per
/// dataset × strategy, every strategy run at the same `(width, procs)`
/// cell — named in the caption — over the same folds.
pub fn table7(res: &SweepResults) -> String {
    let header = vec![
        "Dataset".to_owned(),
        "Strategy".to_owned(),
        "Speedup".to_owned(),
        "Time (s)".to_owned(),
        "Epochs".to_owned(),
        "Comm (MB)".to_owned(),
        "Accuracy".to_owned(),
    ];
    let mut rows = Vec::new();
    for d in &res.datasets {
        for (strat, s) in &d.strategy_cells {
            rows.push(vec![
                d.name.clone(),
                strat.label().to_owned(),
                format!("{:.2}", mean(&s.speedups)),
                format!("{:.0}", mean(&s.times)),
                format!("{:.0}", mean(&s.epochs)),
                format!("{:.3}", mean(&s.mbytes)),
                format!("{:.2} ({:.2})", mean(&s.accs), stddev(&s.accs)),
            ]);
        }
    }
    // The cell of `SweepConfig::strategies`: the last of `procs`, the first
    // of `widths`.
    let cfg = &res.config;
    let caption = format!(
        "Table 7. Cross-strategy comparison (p = {}, W = {}, {} folds)",
        cfg.procs.last().copied().unwrap_or(2),
        cell_label(cfg.widths.first().copied().unwrap_or(Width::Unlimited)),
        cfg.folds
    );
    render_table(&caption, &header, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{DatasetSweep, SweepConfig};
    use p2mdie_core::Strategy;

    fn fake_results() -> SweepResults {
        let config = SweepConfig {
            datasets: vec!["toy".into()],
            procs: vec![2, 4],
            widths: vec![Width::Unlimited, Width::Limit(10)],
            strategies: Strategy::ALL.to_vec(),
            ..SweepConfig::default()
        };
        let series = |t: f64| RunSeries {
            times: vec![t, t + 1.0],
            accs: vec![60.0, 62.0],
            epochs: vec![10.0, 12.0],
            mbytes: vec![1.5, 2.5],
            speedups: vec![2.0, 2.2],
        };
        SweepResults {
            config,
            datasets: vec![DatasetSweep {
                name: "toy".into(),
                pos: 100,
                neg: 50,
                seq: series(100.0),
                cells: vec![
                    (Width::Unlimited, 2, series(50.0)),
                    (Width::Unlimited, 4, series(25.0)),
                    (Width::Limit(10), 2, series(45.0)),
                    (Width::Limit(10), 4, series(20.0)),
                ],
                strategy_cells: vec![
                    (Strategy::DataPipeline, series(25.0)),
                    (Strategy::SearchPartition, series(28.0)),
                    (Strategy::Redeal, series(22.0)),
                ],
            }],
        }
    }

    #[test]
    fn all_tables_render() {
        let r = fake_results();
        let t1 = table1(&r);
        assert!(t1.contains("toy") && t1.contains("100") && t1.contains("50"));
        let t2 = table2(&r);
        assert!(t2.contains("2.10"), "{t2}");
        let t3 = table3(&r);
        assert!(t3.contains("100") && t3.contains("nolimit"));
        let t4 = table4(&r);
        assert!(t4.contains("2.0"));
        let t5 = table5(&r);
        assert!(t5.contains("11"));
        let t6 = table6(&r);
        assert!(t6.contains("61.00"));
    }

    /// Table 7 renders one row per strategy, labelled, and its caption
    /// names the cell they ran at: the last of `procs`, the first of
    /// `widths`.
    #[test]
    fn table7_has_a_row_per_strategy() {
        let r = fake_results();
        let t7 = table7(&r);
        for strat in Strategy::ALL {
            assert!(t7.contains(strat.label()), "missing {strat} row:\n{t7}");
        }
        assert!(t7.contains("(p = 4, W = nolimit, 5 folds)"), "{t7}");
    }

    #[test]
    fn render_table_aligns_columns() {
        let s = render_table(
            "T",
            &["a".into(), "bb".into()],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        for line in s.lines().skip(1) {
            if line.starts_with('|') {
                assert_eq!(line.len(), s.lines().nth(1).unwrap().len());
            }
        }
    }
}
