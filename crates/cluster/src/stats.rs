//! Per-link traffic accounting.
//!
//! Every `send` records its exact encoded byte count against the
//! `(from, to)` link. Summing the matrix reproduces the paper's Table 4
//! ("average communication exchanged in MBytes").

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, thread-safe traffic counters for a cluster of `size` ranks.
#[derive(Clone, Debug)]
pub struct TrafficStats {
    size: usize,
    bytes: Arc<Vec<AtomicU64>>,
    messages: Arc<Vec<AtomicU64>>,
    dropped: Arc<Vec<AtomicU64>>,
    /// Bytes/messages sent while the owning endpoint was in its recovery
    /// phase — a *subset* of the matrix above (recovery traffic is real
    /// traffic; these totals let reports state how much of it the
    /// repartition-and-resume protocol added).
    recovery_bytes: Arc<AtomicU64>,
    recovery_messages: Arc<AtomicU64>,
}

impl TrafficStats {
    /// Creates zeroed counters for `size` ranks.
    pub fn new(size: usize) -> Self {
        TrafficStats {
            size,
            bytes: Arc::new((0..size * size).map(|_| AtomicU64::new(0)).collect()),
            messages: Arc::new((0..size * size).map(|_| AtomicU64::new(0)).collect()),
            dropped: Arc::new((0..size * size).map(|_| AtomicU64::new(0)).collect()),
            recovery_bytes: Arc::new(AtomicU64::new(0)),
            recovery_messages: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    #[inline]
    fn idx(&self, from: usize, to: usize) -> usize {
        // invariant: callers pass ranks of this cluster (`Endpoint` checks a
        // destination, the runtimes a reporting rank).
        assert!(from < self.size && to < self.size, "rank out of range");
        from * self.size + to
    }

    /// Records one message of `bytes` bytes on the `(from, to)` link.
    pub fn record(&self, from: usize, to: usize, bytes: usize) {
        let i = self.idx(from, to);
        self.bytes[i].fetch_add(bytes as u64, Ordering::Relaxed);
        self.messages[i].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one *dropped* send on the `(from, to)` link: the envelope
    /// was built and accounted, but the transport could not hand it off
    /// (the receiver was gone or the stream broke). A non-zero dropped
    /// count on a run that did not fail is a lost-message bug — it is
    /// surfaced in the run outcome precisely so it cannot stay invisible.
    pub fn record_dropped(&self, from: usize, to: usize) {
        let i = self.idx(from, to);
        self.dropped[i].fetch_add(1, Ordering::Relaxed);
    }

    /// Tallies one recovery-phase message of `bytes` bytes (in *addition*
    /// to the normal [`record`](TrafficStats::record) for the link — the
    /// recovery totals are a labelled subset, not a separate matrix).
    pub fn record_recovery(&self, bytes: usize) {
        self.recovery_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.recovery_messages.fetch_add(1, Ordering::Relaxed);
    }

    /// Total bytes sent during recovery phases.
    pub fn recovery_bytes(&self) -> u64 {
        self.recovery_bytes.load(Ordering::Relaxed)
    }

    /// Total messages sent during recovery phases.
    pub fn recovery_messages(&self) -> u64 {
        self.recovery_messages.load(Ordering::Relaxed)
    }

    /// Merges recovery totals reported by another process.
    pub fn absorb_recovery(&self, bytes: u64, messages: u64) {
        self.recovery_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.recovery_messages
            .fetch_add(messages, Ordering::Relaxed);
    }

    /// Bytes sent on a specific link.
    pub fn bytes_between(&self, from: usize, to: usize) -> u64 {
        self.bytes[self.idx(from, to)].load(Ordering::Relaxed)
    }

    /// Dropped sends on a specific link.
    pub fn dropped_between(&self, from: usize, to: usize) -> u64 {
        self.dropped[self.idx(from, to)].load(Ordering::Relaxed)
    }

    /// Messages sent on a specific link.
    pub fn messages_between(&self, from: usize, to: usize) -> u64 {
        self.messages[self.idx(from, to)].load(Ordering::Relaxed)
    }

    /// Total bytes over all links.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().map(|a| a.load(Ordering::Relaxed)).sum()
    }

    /// Total messages over all links.
    pub fn total_messages(&self) -> u64 {
        self.messages
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .sum()
    }

    /// Total traffic in megabytes (10^6 bytes, as the paper reports).
    pub fn total_megabytes(&self) -> f64 {
        self.total_bytes() as f64 / 1.0e6
    }

    /// Total dropped sends over all links.
    pub fn total_dropped(&self) -> u64 {
        self.dropped.iter().map(|a| a.load(Ordering::Relaxed)).sum()
    }

    /// A plain snapshot of the byte matrix (`[from][to]`).
    pub fn byte_matrix(&self) -> Vec<Vec<u64>> {
        (0..self.size)
            .map(|f| (0..self.size).map(|t| self.bytes_between(f, t)).collect())
            .collect()
    }

    /// One rank's send row as plain `(bytes, messages, dropped)` triples —
    /// what a worker *process* reports back to the master at shutdown so
    /// the master's statistics cover the whole cluster, not just its own
    /// links (each process only ever records its own sends).
    pub fn send_row(&self, from: usize) -> Vec<(u64, u64, u64)> {
        (0..self.size)
            .map(|to| {
                let i = self.idx(from, to);
                (
                    self.bytes[i].load(Ordering::Relaxed),
                    self.messages[i].load(Ordering::Relaxed),
                    self.dropped[i].load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    /// Merges a send row reported by another process (see [`send_row`];
    /// counters add, so merging the same row twice double-counts).
    ///
    /// [`send_row`]: TrafficStats::send_row
    pub fn absorb_row(&self, from: usize, row: &[(u64, u64, u64)]) {
        // invariant: `run_cluster_tcp` refuses a report whose row is wider.
        assert!(row.len() <= self.size, "row wider than the cluster");
        for (to, (b, m, d)) in row.iter().enumerate() {
            let i = self.idx(from, to);
            self.bytes[i].fetch_add(*b, Ordering::Relaxed);
            self.messages[i].fetch_add(*m, Ordering::Relaxed);
            self.dropped[i].fetch_add(*d, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let s = TrafficStats::new(3);
        s.record(0, 1, 100);
        s.record(0, 1, 50);
        s.record(2, 0, 7);
        assert_eq!(s.bytes_between(0, 1), 150);
        assert_eq!(s.messages_between(0, 1), 2);
        assert_eq!(s.bytes_between(1, 0), 0);
        assert_eq!(s.total_bytes(), 157);
        assert_eq!(s.total_messages(), 3);
    }

    #[test]
    fn megabytes_use_decimal_units() {
        let s = TrafficStats::new(2);
        s.record(0, 1, 2_500_000);
        assert!((s.total_megabytes() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn matrix_snapshot_matches() {
        let s = TrafficStats::new(2);
        s.record(1, 0, 9);
        assert_eq!(s.byte_matrix(), vec![vec![0, 0], vec![9, 0]]);
    }

    #[test]
    fn clones_share_counters() {
        let s = TrafficStats::new(2);
        let s2 = s.clone();
        s2.record(0, 1, 4);
        assert_eq!(s.total_bytes(), 4);
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn out_of_range_rank_panics() {
        TrafficStats::new(2).record(0, 2, 1);
    }

    #[test]
    fn dropped_sends_are_counted_separately() {
        let s = TrafficStats::new(2);
        s.record(0, 1, 10);
        s.record_dropped(0, 1);
        assert_eq!(s.dropped_between(0, 1), 1);
        assert_eq!(s.dropped_between(1, 0), 0);
        assert_eq!(s.total_dropped(), 1);
        // Dropped sends do not perturb the byte/message counters.
        assert_eq!(s.total_bytes(), 10);
        assert_eq!(s.total_messages(), 1);
    }

    #[test]
    fn recovery_totals_are_a_labelled_subset() {
        let s = TrafficStats::new(2);
        s.record(0, 1, 10);
        s.record_recovery(10);
        s.record(0, 1, 5);
        assert_eq!(s.recovery_bytes(), 10);
        assert_eq!(s.recovery_messages(), 1);
        // Recovery traffic is still counted in the matrix totals.
        assert_eq!(s.total_bytes(), 15);
        s.absorb_recovery(3, 2);
        assert_eq!(s.recovery_bytes(), 13);
        assert_eq!(s.recovery_messages(), 3);
    }

    #[test]
    fn rows_roundtrip_across_processes() {
        let worker = TrafficStats::new(3);
        worker.record(1, 0, 100);
        worker.record(1, 2, 7);
        worker.record_dropped(1, 2);
        let master = TrafficStats::new(3);
        master.record(0, 1, 40);
        master.absorb_row(1, &worker.send_row(1));
        assert_eq!(master.bytes_between(1, 0), 100);
        assert_eq!(master.bytes_between(1, 2), 7);
        assert_eq!(master.dropped_between(1, 2), 1);
        assert_eq!(master.total_bytes(), 147);
        assert_eq!(master.total_messages(), 3);
    }
}
