//! Metrics in one scope: the process-wide prover hot counters ([`hot`]),
//! and the serializable [`MetricsSnapshot`] a rank's `MetricsReport`
//! carries, with Prometheus-text and JSON encoders.
//!
//! A snapshot is built where it is read: a worker answers a metrics query
//! with its endpoint and memo state plus the hot counters, assembled into
//! [`MetricEntry`]s on the spot ([`MetricsSnapshot::from_entries`]). The hot
//! counters are one statically-allocated block for the prover's innermost
//! loops, guarded by their own single relaxed atomic load; disabled (the
//! default) the guard is the entire cost.

use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Snapshots.
// ---------------------------------------------------------------------------

/// One metric's value in a snapshot.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotone counter.
    Counter(u64),
    /// Point-in-time gauge.
    Gauge(f64),
    /// Log₂-bucket histogram: only non-empty buckets are carried, as
    /// `(bucket index, count)`; bucket 0 holds zero values, bucket `i ≥ 1`
    /// values in `[2^(i-1), 2^i)`.
    Histogram {
        /// Total observations.
        count: u64,
        /// Sum of observed values.
        sum: u64,
        /// Non-empty `(bucket, count)` pairs, bucket-ascending.
        buckets: Vec<(u8, u64)>,
    },
}

/// One named metric in a snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricEntry {
    /// Metric name, optionally with `{label="value"}` suffix.
    pub name: String,
    /// The value.
    pub value: MetricValue,
}

/// A sorted, serializable set of metrics (what `MetricsReport` carries
/// over the wire and `Service::metrics` returns).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Entries, name-ascending.
    pub entries: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    /// Builds a snapshot from loose entries (sorts by name).
    pub fn from_entries(mut entries: Vec<MetricEntry>) -> MetricsSnapshot {
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { entries }
    }

    /// Looks up one entry by exact name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| &e.value)
    }

    /// The counter value of `name`, or 0.
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(n)) => *n,
            _ => 0,
        }
    }

    /// The gauge value of `name`, or 0.0.
    pub fn gauge(&self, name: &str) -> f64 {
        match self.get(name) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0.0,
        }
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (`# TYPE` lines grouped per base name; histograms expand to
    /// cumulative `_bucket{le=…}` samples plus `_sum`/`_count`).
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        let mut typed: Vec<&str> = Vec::new();
        for e in &self.entries {
            let base = e.name.split('{').next().unwrap_or(&e.name);
            match &e.value {
                MetricValue::Counter(n) => {
                    if !typed.contains(&base) {
                        typed.push(base);
                        let _ = writeln!(out, "# TYPE {base} counter");
                    }
                    let _ = writeln!(out, "{} {n}", e.name);
                }
                MetricValue::Gauge(v) => {
                    if !typed.contains(&base) {
                        typed.push(base);
                        let _ = writeln!(out, "# TYPE {base} gauge");
                    }
                    let _ = writeln!(out, "{} {v}", e.name);
                }
                MetricValue::Histogram {
                    count,
                    sum,
                    buckets,
                } => {
                    if !typed.contains(&base) {
                        typed.push(base);
                        let _ = writeln!(out, "# TYPE {base} histogram");
                    }
                    let mut cumulative = 0u64;
                    for (bucket, n) in buckets {
                        cumulative += n;
                        // Bucket `i ≥ 1` holds [2^(i-1), 2^i); its inclusive
                        // upper bound is 2^i − 1. Bucket 0 holds exactly 0.
                        let le = if *bucket == 0 {
                            0u64
                        } else {
                            (1u64 << bucket).wrapping_sub(1)
                        };
                        let _ = writeln!(out, "{base}_bucket{{le=\"{le}\"}} {cumulative}");
                    }
                    let _ = writeln!(out, "{base}_bucket{{le=\"+Inf\"}} {count}");
                    let _ = writeln!(out, "{base}_sum {sum}");
                    let _ = writeln!(out, "{base}_count {count}");
                }
            }
        }
        out
    }

    /// Renders the snapshot as a deterministic JSON object (the `metrics`
    /// block `bench_prover` embeds in `BENCH_prover.json`). `indent` is
    /// the number of leading spaces on each line.
    pub fn to_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let inner = " ".repeat(indent + 2);
        let mut out = String::from("{\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&inner);
            crate::json::escape_into(&e.name, &mut out);
            out.push_str(": ");
            match &e.value {
                MetricValue::Counter(n) => {
                    let _ = write!(out, "{n}");
                }
                MetricValue::Gauge(v) => {
                    if v.is_finite() {
                        let _ = write!(out, "{v}");
                    } else {
                        out.push_str("null");
                    }
                }
                MetricValue::Histogram {
                    count,
                    sum,
                    buckets,
                } => {
                    let _ = write!(out, "{{ \"count\": {count}, \"sum\": {sum}, \"buckets\": [");
                    for (j, (bucket, n)) in buckets.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "[{bucket}, {n}]");
                    }
                    out.push_str("] }");
                }
            }
            if i + 1 < self.entries.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str(&pad);
        out.push('}');
        out
    }
}

// ---------------------------------------------------------------------------
// Process-wide prover hot counters.
// ---------------------------------------------------------------------------

/// Statically-allocated counters for the prover's innermost loops, behind
/// a single relaxed-load sampling guard. Process-wide by design: the
/// deduction kernels have no rank identity (worker processes of a TCP mesh
/// are one rank per process anyway; in-process meshes aggregate all ranks
/// here — documented, and still the actionable signal: probe selectivity
/// is an engine property, not a rank property). What the rule search's
/// coverage memo did is not counted here: each memo keeps its own
/// statistics, which a worker's metrics report carries per rank.
pub mod hot {
    use super::{MetricEntry, MetricValue};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static POSTING_PROBE_HITS: AtomicU64 = AtomicU64::new(0);
    static POSTING_PROBE_MISSES: AtomicU64 = AtomicU64::new(0);

    /// Is hot-counter sampling on? One relaxed load — the entire cost of
    /// every instrumentation site while sampling is off.
    #[inline(always)]
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Turns sampling on: every event is counted.
    pub fn enable() {
        ENABLED.store(true, Ordering::Relaxed);
    }

    /// Turns sampling off.
    pub fn disable() {
        ENABLED.store(false, Ordering::Relaxed);
    }

    /// Counts one event on `counter` while sampling is on.
    #[inline(always)]
    fn count(counter: &AtomicU64) {
        if enabled() {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A posting-list probe found a run.
    #[inline(always)]
    pub fn posting_probe_hit() {
        count(&POSTING_PROBE_HITS);
    }

    /// A posting-list probe found nothing.
    #[inline(always)]
    pub fn posting_probe_miss() {
        count(&POSTING_PROBE_MISSES);
    }

    /// Zeroes every hot counter (test isolation; the enabled flag is
    /// untouched).
    pub fn reset() {
        POSTING_PROBE_HITS.store(0, Ordering::Relaxed);
        POSTING_PROBE_MISSES.store(0, Ordering::Relaxed);
    }

    /// The hot counters as snapshot entries (merged into metric reports).
    pub fn entries() -> Vec<MetricEntry> {
        vec![
            MetricEntry {
                name: "prover_posting_probe_hits_total".to_owned(),
                value: MetricValue::Counter(POSTING_PROBE_HITS.load(Ordering::Relaxed)),
            },
            MetricEntry {
                name: "prover_posting_probe_misses_total".to_owned(),
                value: MetricValue::Counter(POSTING_PROBE_MISSES.load(Ordering::Relaxed)),
            },
        ]
    }

    /// Sum of events recorded so far (zero-overhead tests assert this
    /// stays 0 while sampling is off).
    pub fn total_recorded() -> u64 {
        POSTING_PROBE_HITS.load(Ordering::Relaxed) + POSTING_PROBE_MISSES.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, value: MetricValue) -> MetricEntry {
        MetricEntry {
            name: name.to_owned(),
            value,
        }
    }

    /// A counter family with two labels, a gauge, and a histogram holding
    /// 3 (bucket 2, le 3) and 9 (bucket 4, le 15), given out of order.
    fn sample() -> MetricsSnapshot {
        MetricsSnapshot::from_entries(vec![
            entry("queue_depth", MetricValue::Gauge(4.0)),
            entry("jobs_total{class=\"learn\"}", MetricValue::Counter(1)),
            entry(
                "batch",
                MetricValue::Histogram {
                    count: 2,
                    sum: 12,
                    buckets: vec![(2, 1), (4, 1)],
                },
            ),
            entry("jobs_total{class=\"coverage\"}", MetricValue::Counter(2)),
        ])
    }

    #[test]
    fn counters_gauges_histograms_snapshot_sorted() {
        let snap = sample();
        let names: Vec<&str> = snap.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "batch",
                "jobs_total{class=\"coverage\"}",
                "jobs_total{class=\"learn\"}",
                "queue_depth"
            ]
        );
        assert_eq!(snap.counter("jobs_total{class=\"coverage\"}"), 2);
        assert_eq!(snap.gauge("queue_depth"), 4.0);
        assert_eq!(snap.counter("absent"), 0);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = sample().prometheus();
        assert!(text.contains("# TYPE jobs_total counter\n"), "{text}");
        assert!(text.contains("jobs_total{class=\"coverage\"} 2\n"));
        assert!(text.contains("jobs_total{class=\"learn\"} 1\n"));
        assert!(text.contains("# TYPE queue_depth gauge\nqueue_depth 4\n"));
        assert!(text.contains("# TYPE batch histogram\n"));
        // Cumulative buckets, each labelled with its inclusive upper bound.
        assert!(text.contains("batch_bucket{le=\"3\"} 1\n"), "{text}");
        assert!(text.contains("batch_bucket{le=\"15\"} 2\n"), "{text}");
        assert!(text.contains("batch_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("batch_sum 12\n"));
        assert!(text.contains("batch_count 2\n"));
        // The TYPE line appears exactly once per family.
        assert_eq!(text.matches("# TYPE jobs_total").count(), 1);
    }

    #[test]
    fn json_encoding_is_deterministic() {
        let snap = MetricsSnapshot::from_entries(vec![
            entry("n", MetricValue::Counter(7)),
            entry("g", MetricValue::Gauge(1.5)),
            entry(
                "h",
                MetricValue::Histogram {
                    count: 1,
                    sum: 2,
                    buckets: vec![(2, 1)],
                },
            ),
        ]);
        let a = snap.to_json(2);
        assert_eq!(a, snap.clone().to_json(2));
        assert!(a.contains("\"n\": 7"));
        assert!(a.contains("\"g\": 1.5"));
        assert!(a.contains("\"h\": { \"count\": 1, \"sum\": 2, \"buckets\": [[2, 1]] }"));
        // It must parse as JSON (the bench file embeds it verbatim).
        crate::json::parse(&a).expect("valid JSON");
    }

    /// The hot counters are process-wide statics, so tests that flip the
    /// guard must not interleave.
    fn hot_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn hot_counters_gate_on_the_sampling_guard() {
        let _guard = hot_lock();
        hot::disable();
        hot::reset();
        hot::posting_probe_hit();
        assert_eq!(hot::total_recorded(), 0, "disabled guard records nothing");
        hot::enable();
        hot::posting_probe_hit();
        hot::posting_probe_miss();
        assert_eq!(hot::total_recorded(), 2);
        let snap = MetricsSnapshot::from_entries(hot::entries());
        assert_eq!(snap.counter("prover_posting_probe_hits_total"), 1);
        assert_eq!(snap.counter("prover_posting_probe_misses_total"), 1);
        hot::disable();
        hot::reset();
    }
}
