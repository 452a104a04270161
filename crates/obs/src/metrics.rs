//! The metrics registry: counters, gauges, and fixed log₂-bucket
//! histograms with `Arc`'d-atomic handles (hot-path updates are a relaxed
//! `fetch_add`, no allocation, no lock), plus the serializable
//! [`MetricsSnapshot`] with Prometheus-text and JSON encoders.
//!
//! Two scopes exist:
//!
//! * **Registries** ([`Registry`]) — explicit instances; the service layer
//!   keeps one per rank ([`rank_registry`]) so a worker's
//!   `MetricsReport` is genuinely per-worker (each worker *process* of a
//!   TCP mesh has its own globals anyway; in-process ranks get their own
//!   registry by construction).
//! * **Hot counters** ([`hot`]) — one process-wide, statically-allocated
//!   block for the prover's innermost loops, where even a registry-handle
//!   field would be invasive. Guarded by its own single relaxed atomic
//!   load; disabled (the default) the guard is the entire cost.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: bucket 0 holds zero values, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)` — every `u64` maps to exactly one.
pub const HISTO_BUCKETS: usize = 65;

// ---------------------------------------------------------------------------
// Handles.
// ---------------------------------------------------------------------------

/// A monotone counter handle.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle (an `f64` stored as bits).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// The fixed-bucket histogram storage (see [`HISTO_BUCKETS`]).
#[derive(Debug)]
pub struct Histo {
    buckets: [AtomicU64; HISTO_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histo {
    /// An empty histogram (const, so it can back a `static`).
    pub const fn new() -> Histo {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histo {
            buckets: [ZERO; HISTO_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Index of the bucket holding `v`.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Records one observation — three relaxed `fetch_add`s, nothing else.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Snapshot of the non-empty buckets.
    pub fn load(&self) -> MetricValue {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((i as u8, n));
            }
        }
        MetricValue::Histogram {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl Default for Histo {
    fn default() -> Histo {
        Histo::new()
    }
}

/// A histogram handle.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<Histo>);

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.record(v);
    }
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<Histo>),
}

/// A named collection of metrics. Cloning shares the underlying storage.
/// Registration (name lookup) takes a lock and may allocate; the returned
/// handles never do either.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    slots: Arc<Mutex<BTreeMap<String, Slot>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Gets or creates the counter `name`. Panics if `name` is already
    /// registered as a different kind (a wiring bug, not a runtime
    /// condition).
    pub fn counter(&self, name: &str) -> Counter {
        let mut slots = self.slots.lock().expect("registry lock");
        match slots
            .entry(name.to_owned())
            .or_insert_with(|| Slot::Counter(Arc::new(AtomicU64::new(0))))
        {
            Slot::Counter(c) => Counter(Arc::clone(c)),
            _ => panic!("metric `{name}` is not a counter"),
        }
    }

    /// Gets or creates the gauge `name` (panics on a kind clash).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut slots = self.slots.lock().expect("registry lock");
        match slots
            .entry(name.to_owned())
            .or_insert_with(|| Slot::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))))
        {
            Slot::Gauge(g) => Gauge(Arc::clone(g)),
            _ => panic!("metric `{name}` is not a gauge"),
        }
    }

    /// Gets or creates the histogram `name` (panics on a kind clash).
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut slots = self.slots.lock().expect("registry lock");
        match slots
            .entry(name.to_owned())
            .or_insert_with(|| Slot::Histogram(Arc::new(Histo::new())))
        {
            Slot::Histogram(h) => Histogram(Arc::clone(h)),
            _ => panic!("metric `{name}` is not a histogram"),
        }
    }

    /// A sorted, serializable snapshot of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let slots = self.slots.lock().expect("registry lock");
        let entries = slots
            .iter()
            .map(|(name, slot)| MetricEntry {
                name: name.clone(),
                value: match slot {
                    Slot::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                    Slot::Gauge(g) => MetricValue::Gauge(f64::from_bits(g.load(Ordering::Relaxed))),
                    Slot::Histogram(h) => h.load(),
                },
            })
            .collect();
        MetricsSnapshot { entries }
    }

    /// Total registered metrics (tests).
    pub fn len(&self) -> usize {
        self.slots.lock().expect("registry lock").len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The per-rank registry map: get-or-create the [`Registry`] for `rank`.
/// In-process ranks share the process but not the registry; worker
/// processes of a TCP mesh naturally hold only their own rank's entry.
pub fn rank_registry(rank: usize) -> Registry {
    let mut map = rank_registries().lock().expect("rank registry lock");
    map.entry(rank).or_default().clone()
}

/// Drops every per-rank registry (test isolation between service runs in
/// one process).
pub fn reset_rank_registries() {
    rank_registries()
        .lock()
        .expect("rank registry lock")
        .clear();
}

fn rank_registries() -> &'static Mutex<BTreeMap<usize, Registry>> {
    static MAP: Mutex<BTreeMap<usize, Registry>> = Mutex::new(BTreeMap::new());
    &MAP
}

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
    /// `(bucket index, count)` with the index meaning of
    /// [`Histo::bucket_of`].
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

/// A sorted, serializable view of a registry (what `MetricsReport`
/// carries over the wire and `Service::metrics` returns).
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
/// is an engine property, not a rank property). The rule search's coverage
/// memo counters live here too: they explain the probe counts (a memo hit
/// is a proof, and its probes, that never ran; a partial hit one that ran
/// on the examples that changed only).
pub mod hot {
    use super::{MetricEntry, MetricValue};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static POSTING_PROBE_HITS: AtomicU64 = AtomicU64::new(0);
    static POSTING_PROBE_MISSES: AtomicU64 = AtomicU64::new(0);
    static SEARCH_MEMO_HITS: AtomicU64 = AtomicU64::new(0);
    static SEARCH_MEMO_MISSES: AtomicU64 = AtomicU64::new(0);
    static SEARCH_MEMO_PARTIAL: AtomicU64 = AtomicU64::new(0);
    static SEARCH_MEMO_EVICTED: AtomicU64 = AtomicU64::new(0);
    // Sampling ratio: record every Nth event, weight-scaled by N so the
    // exported totals stay unbiased. 1 (the default) records everything
    // and never touches TICK — exact counts, unchanged behavior.
    static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(1);
    static TICK: AtomicU64 = AtomicU64::new(0);

    /// Is hot-counter sampling on? One relaxed load — the entire cost of
    /// every instrumentation site while sampling is off.
    #[inline(always)]
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Turns sampling on. If `P2MDIE_HOT_SAMPLE` is set to an integer N,
    /// the sampling ratio is taken from it (record every Nth event,
    /// weighted by N); unset or unparsable leaves the ratio as configured
    /// (default 1 = record everything).
    pub fn enable() {
        if let Ok(s) = std::env::var("P2MDIE_HOT_SAMPLE") {
            if let Ok(n) = s.trim().parse::<u64>() {
                set_sample_every(n);
            }
        }
        ENABLED.store(true, Ordering::Relaxed);
    }

    /// Turns sampling off.
    pub fn disable() {
        ENABLED.store(false, Ordering::Relaxed);
    }

    /// Sets the sampling ratio: record every `every`-th event, scaling
    /// each recorded event by `every` so totals remain unbiased in
    /// expectation. 0 is clamped to 1 (record everything, exact).
    pub fn set_sample_every(every: u64) {
        SAMPLE_EVERY.store(every.max(1), Ordering::Relaxed);
    }

    /// The current sampling ratio.
    pub fn sample_every() -> u64 {
        SAMPLE_EVERY.load(Ordering::Relaxed)
    }

    /// The weight of this event if it is sampled, `None` if it is skipped.
    /// At ratio 1 this is branch-only (no tick traffic); at ratio N every
    /// Nth event across all hot sites is recorded with weight N.
    #[inline(always)]
    fn sample_weight() -> Option<u64> {
        let every = SAMPLE_EVERY.load(Ordering::Relaxed);
        if every <= 1 {
            return Some(1);
        }
        let t = TICK.fetch_add(1, Ordering::Relaxed);
        t.is_multiple_of(every).then_some(every)
    }

    /// Counts one event on `counter`, sampled and weighted as configured.
    #[inline(always)]
    fn count(counter: &AtomicU64) {
        if enabled() {
            if let Some(w) = sample_weight() {
                counter.fetch_add(w, Ordering::Relaxed);
            }
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

    /// A search node took its coverage from the coverage memo (no proof ran).
    #[inline(always)]
    pub fn search_memo_hit() {
        count(&SEARCH_MEMO_HITS);
    }

    /// A search node found no usable memo entry and was proved.
    #[inline(always)]
    pub fn search_memo_miss() {
        count(&SEARCH_MEMO_MISSES);
    }

    /// A search node was served by a difference proof: its memo entry plus
    /// a proof on the examples that left or joined the live mask.
    #[inline(always)]
    pub fn search_memo_partial() {
        count(&SEARCH_MEMO_PARTIAL);
    }

    /// The coverage memo evicted an entry to stay within its budget.
    #[inline(always)]
    pub fn search_memo_evicted() {
        count(&SEARCH_MEMO_EVICTED);
    }

    /// Zeroes every hot counter and the sampling tick (test isolation;
    /// the enabled flag and sampling ratio are untouched).
    pub fn reset() {
        POSTING_PROBE_HITS.store(0, Ordering::Relaxed);
        POSTING_PROBE_MISSES.store(0, Ordering::Relaxed);
        SEARCH_MEMO_HITS.store(0, Ordering::Relaxed);
        SEARCH_MEMO_MISSES.store(0, Ordering::Relaxed);
        SEARCH_MEMO_PARTIAL.store(0, Ordering::Relaxed);
        SEARCH_MEMO_EVICTED.store(0, Ordering::Relaxed);
        TICK.store(0, Ordering::Relaxed);
    }

    /// The hot counters as snapshot entries (merged into metric reports).
    pub fn entries() -> Vec<MetricEntry> {
        let mut entries = vec![
            MetricEntry {
                name: "prover_posting_probe_hits_total".to_owned(),
                value: MetricValue::Counter(POSTING_PROBE_HITS.load(Ordering::Relaxed)),
            },
            MetricEntry {
                name: "prover_posting_probe_misses_total".to_owned(),
                value: MetricValue::Counter(POSTING_PROBE_MISSES.load(Ordering::Relaxed)),
            },
        ];
        // The search family joins once it has moved: a mesh that runs no
        // sampled search (a coverage service, say) ships no bytes for it in
        // its `MetricsReport`s.
        let search = [
            ("search_memo_hits_total", &SEARCH_MEMO_HITS),
            ("search_memo_misses_total", &SEARCH_MEMO_MISSES),
            ("search_memo_partial_total", &SEARCH_MEMO_PARTIAL),
            ("search_memo_evicted_total", &SEARCH_MEMO_EVICTED),
        ]
        .map(|(name, counter)| (name, counter.load(Ordering::Relaxed)));
        if search.iter().any(|&(_, n)| n > 0) {
            entries.extend(search.map(|(name, n)| MetricEntry {
                name: name.to_owned(),
                value: MetricValue::Counter(n),
            }));
        }
        entries
    }

    /// Sum of events recorded so far (zero-overhead tests assert this
    /// stays 0 while sampling is off).
    pub fn total_recorded() -> u64 {
        POSTING_PROBE_HITS.load(Ordering::Relaxed)
            + POSTING_PROBE_MISSES.load(Ordering::Relaxed)
            + SEARCH_MEMO_HITS.load(Ordering::Relaxed)
            + SEARCH_MEMO_MISSES.load(Ordering::Relaxed)
            + SEARCH_MEMO_PARTIAL.load(Ordering::Relaxed)
            + SEARCH_MEMO_EVICTED.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_snapshot_sorted() {
        let reg = Registry::new();
        reg.counter("b_total").add(3);
        reg.gauge("a_depth").set(2.5);
        let h = reg.histogram("c_sizes");
        h.record(0);
        h.record(1);
        h.record(5);
        h.record(5);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["a_depth", "b_total", "c_sizes"]);
        assert_eq!(snap.counter("b_total"), 3);
        assert_eq!(snap.gauge("a_depth"), 2.5);
        assert_eq!(
            snap.get("c_sizes"),
            Some(&MetricValue::Histogram {
                count: 4,
                sum: 11,
                buckets: vec![(0, 1), (1, 1), (3, 2)],
            })
        );
    }

    #[test]
    fn handles_share_storage_and_reregistration_is_idempotent() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("x").get(), 3);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_clash_panics() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn prometheus_exposition_shape() {
        let reg = Registry::new();
        reg.counter("jobs_total{class=\"coverage\"}").add(2);
        reg.counter("jobs_total{class=\"learn\"}").inc();
        reg.gauge("queue_depth").set(4.0);
        let h = reg.histogram("batch");
        h.record(3);
        h.record(9);
        let text = reg.snapshot().prometheus();
        assert!(text.contains("# TYPE jobs_total counter\n"), "{text}");
        assert!(text.contains("jobs_total{class=\"coverage\"} 2\n"));
        assert!(text.contains("jobs_total{class=\"learn\"} 1\n"));
        assert!(text.contains("# TYPE queue_depth gauge\nqueue_depth 4\n"));
        assert!(text.contains("# TYPE batch histogram\n"));
        // 3 lands in bucket 2 (le 3), 9 in bucket 4 (le 15); cumulative.
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
        let reg = Registry::new();
        reg.counter("n").add(7);
        reg.gauge("g").set(1.5);
        reg.histogram("h").record(2);
        let a = reg.snapshot().to_json(2);
        let b = reg.snapshot().to_json(2);
        assert_eq!(a, b);
        assert!(a.contains("\"n\": 7"));
        assert!(a.contains("\"g\": 1.5"));
        assert!(a.contains("\"h\": { \"count\": 1, \"sum\": 2, \"buckets\": [[2, 1]] }"));
        // It must parse as JSON (the bench file embeds it verbatim).
        crate::json::parse(&a).expect("valid JSON");
    }

    /// The hot counters are process-wide statics, so tests that flip the
    /// guard or the sampling ratio must not interleave.
    fn hot_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn hot_counters_gate_on_the_sampling_guard() {
        let _guard = hot_lock();
        hot::disable();
        hot::set_sample_every(1);
        hot::reset();
        hot::posting_probe_hit();
        hot::search_memo_hit();
        assert_eq!(hot::total_recorded(), 0, "disabled guard records nothing");
        hot::enable();
        hot::posting_probe_hit();
        hot::posting_probe_miss();
        assert_eq!(hot::total_recorded(), 2);
        let snap = MetricsSnapshot::from_entries(hot::entries());
        assert_eq!(snap.counter("prover_posting_probe_hits_total"), 1);
        assert_eq!(snap.counter("prover_posting_probe_misses_total"), 1);
        assert!(
            hot::entries()
                .iter()
                .all(|e| !e.name.starts_with("search_memo")),
            "the search family is reported only once it has moved"
        );
        hot::search_memo_hit();
        hot::search_memo_hit();
        hot::search_memo_miss();
        hot::search_memo_partial();
        assert_eq!(hot::total_recorded(), 6);
        let snap = MetricsSnapshot::from_entries(hot::entries());
        assert_eq!(snap.counter("search_memo_hits_total"), 2);
        assert_eq!(snap.counter("search_memo_misses_total"), 1);
        assert_eq!(snap.counter("search_memo_partial_total"), 1);
        assert_eq!(snap.counter("search_memo_evicted_total"), 0);
        hot::search_memo_evicted();
        let snap = MetricsSnapshot::from_entries(hot::entries());
        assert_eq!(snap.counter("search_memo_evicted_total"), 1);
        hot::disable();
        hot::reset();
    }

    /// At ratio N every Nth event is recorded with weight N, so exported
    /// totals equal the true event count whenever it is a multiple of N —
    /// deterministic here because the tick is reset and events are serial.
    #[test]
    fn sampled_hot_counters_are_weight_scaled() {
        let _guard = hot_lock();
        hot::disable();
        hot::set_sample_every(4);
        hot::reset();
        hot::enable();
        for _ in 0..8 {
            hot::posting_probe_hit();
        }
        // Ticks 0..8: ticks 0 and 4 sample, each with weight 4.
        let snap = MetricsSnapshot::from_entries(hot::entries());
        assert_eq!(snap.counter("prover_posting_probe_hits_total"), 8);
        assert_eq!(hot::sample_every(), 4);
        hot::disable();
        hot::set_sample_every(1);
        hot::reset();
    }

    #[test]
    fn bucket_of_covers_the_u64_range() {
        assert_eq!(Histo::bucket_of(0), 0);
        assert_eq!(Histo::bucket_of(1), 1);
        assert_eq!(Histo::bucket_of(2), 2);
        assert_eq!(Histo::bucket_of(3), 2);
        assert_eq!(Histo::bucket_of(4), 3);
        assert_eq!(Histo::bucket_of(u64::MAX), 64);
    }
}
