//! The communication endpoint: the paper's §2.2 abstraction.
//!
//! Exactly three operations, with the paper's semantics:
//!
//! * [`Endpoint::send`] — non-blocking point-to-point send;
//! * [`Endpoint::broadcast`] — non-blocking send to every other rank;
//! * [`Endpoint::recv_from`] — *blocking* receive from a named source rank
//!   (MPI `MPI_Recv` with an explicit source), buffering messages from
//!   other sources until asked for.
//!
//! Every send is timestamped with its virtual arrival time at the
//! destination (`sender_clock + latency + bytes/bandwidth`); every receive
//! Lamport-merges the arrival into the receiver's clock. Every payload's
//! exact encoded size is recorded in the shared [`TrafficStats`], and a
//! send the transport could not deliver is counted there as a *dropped*
//! send (never silently discarded).
//!
//! The endpoint is generic over the [`Transport`] that actually moves the
//! bytes: the in-process [`MeshTransport`] (the default — crossbeam
//! channels between threads) or the socket-backed
//! [`crate::net::TcpTransport`] (real processes, length-prefixed frames).
//! Everything in this module — clocks, statistics, source buffering,
//! poison propagation — is identical on both, which is what makes a
//! multi-process run bit-for-bit reproducible against the simulation.

use crate::codec::{from_bytes, to_bytes, DecodeError, Wire};
use crate::stats::TrafficStats;
use crate::transport::{MeshTransport, Transport, TransportEvent};
use crate::vtime::{CostModel, VirtualClock};
use bytes::Bytes;
use p2mdie_obs::{event, span, Span, Tracer};
use std::collections::VecDeque;

/// A timestamped message in flight.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Sender rank.
    pub from: usize,
    /// Virtual time at which the message reaches the destination.
    pub arrival: f64,
    /// True for the internal failure-propagation marker (the sender failed;
    /// the payload is empty).
    pub poison: bool,
    /// Encoded payload.
    pub payload: Bytes,
}

/// How a link to a peer died.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkFault {
    /// The peer's link closed: it exited (cleanly or not) without `Stop`
    /// or poison, or its stream broke.
    Closed,
    /// The peer delivered bytes that did not parse as a frame; the link is
    /// treated as dead from that point on.
    Malformed(&'static str),
    /// Rank `origin` failed and sent the poison marker: the run is over, and
    /// whoever is told so is a victim of that failure, not a cause. Sticky —
    /// every later receive on the endpoint reports it again, whatever the
    /// source, so a rank that is woken winds down instead of blocking anew.
    Poison {
        /// The rank whose failure ended the run.
        origin: usize,
    },
}

/// A blocking receive failed: the awaited peer's link is dead (closed, or
/// broken by a malformed frame), or another rank's failure ended the run.
/// Rank-tagged so the failure is diagnosable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecvError {
    /// The rank whose receive failed.
    pub rank: usize,
    /// The source rank it was waiting on.
    pub from: usize,
    /// What killed the link.
    pub fault: LinkFault,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.fault {
            LinkFault::Closed => write!(
                f,
                "rank {}: channel closed while receiving from rank {} (peer exited early?)",
                self.rank, self.from
            ),
            LinkFault::Malformed(ctx) => write!(
                f,
                "rank {}: malformed frame from rank {} ({ctx})",
                self.rank, self.from
            ),
            LinkFault::Poison { origin } => write!(
                f,
                "rank {}: poisoned by rank {origin} while receiving from rank {}",
                self.rank, self.from
            ),
        }
    }
}

impl std::error::Error for RecvError {}

/// Why a [`Endpoint::recv_msg`] call failed: the link died under the
/// receive, or the frame arrived but would not decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// The link to the peer died mid-receive.
    Closed(RecvError),
    /// The payload was truncated or malformed.
    Decode(DecodeError),
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Closed(e) => e.fmt(f),
            CommError::Decode(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CommError {}

impl From<RecvError> for CommError {
    fn from(e: RecvError) -> Self {
        CommError::Closed(e)
    }
}

impl From<DecodeError> for CommError {
    fn from(e: DecodeError) -> Self {
        CommError::Decode(e)
    }
}

/// The one failure value of the protocol layers: a receive that cannot be
/// acted on — the link died under it, the frame would not decode, or it
/// decoded to something the protocol's state must refuse. It is the `Err` of
/// every protocol function (`Msg::recv` in the core crate and everything
/// above it) and of the closures the runtimes take, which map it to a
/// rank-tagged `ClusterError`.
#[derive(Clone, Debug)]
pub struct CommFailure {
    /// The rank whose receive failed.
    pub rank: usize,
    /// The peer it was receiving from.
    pub from: usize,
    /// What the protocol expected to receive.
    pub expected: String,
    /// The underlying communication error.
    pub error: CommError,
}

impl std::fmt::Display for CommFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {}: failed receiving {} from rank {}: {}",
            self.rank, self.expected, self.from, self.error
        )
    }
}

impl std::error::Error for CommFailure {}

impl CommFailure {
    /// The rank whose failure woke this one, when this is the poison marker
    /// surfacing: the runtimes report that rank and skip its victims.
    pub fn poisoned_by(&self) -> Option<usize> {
        match self.error {
            CommError::Closed(RecvError {
                fault: LinkFault::Poison { origin },
                ..
            }) => Some(origin),
            _ => None,
        }
    }
}

/// One rank's communication endpoint, generic over the [`Transport`] that
/// moves the bytes (defaults to the in-process mesh).
pub struct Endpoint<T: Transport = MeshTransport> {
    rank: usize,
    size: usize,
    transport: T,
    pending: Vec<VecDeque<Envelope>>,
    /// Per-peer link obituaries (only transports with per-peer links — TCP
    /// — ever populate these).
    faults: Vec<Option<LinkFault>>,
    /// The whole fabric is gone; nothing will ever arrive again.
    fabric_closed: bool,
    /// Ranks this endpoint has *acknowledged* as dead (recovery mode):
    /// their link faults are expected and no longer abort receives.
    down: Vec<bool>,
    /// While set, sends are additionally tallied in the recovery totals of
    /// [`TrafficStats`] (so reports can separate recovery traffic from the
    /// algorithm's own).
    recovery_phase: bool,
    clock: VirtualClock,
    model: CostModel,
    stats: TrafficStats,
    compute_steps: u64,
    /// The rank whose poison marker ended the run (this one, once it sent
    /// its own).
    poisoned: Option<usize>,
    /// Flight-recorder handle for this rank. When no trace session is
    /// active (the default), every use is one relaxed atomic load.
    tracer: Tracer,
    /// The open `recovery` span while [`Endpoint::set_recovery_phase`] is
    /// on, so recovery traffic shows as a phase in the trace timeline.
    recovery_span: Option<Span>,
}

impl<T: Transport> Endpoint<T> {
    /// Assembles an endpoint from its parts. `rank` must be a valid index
    /// for `size` ranks, and `stats` must be sized for the same cluster.
    ///
    /// This is how the runtime builds in-process endpoints and how a
    /// worker *process* builds its endpoint around a freshly-connected
    /// [`crate::net::TcpTransport`].
    pub fn from_parts(
        rank: usize,
        size: usize,
        transport: T,
        model: CostModel,
        stats: TrafficStats,
    ) -> Self {
        // invariant: both are the caller's description of its own mesh.
        assert!(rank < size, "rank {rank} out of range for size {size}");
        assert_eq!(stats.size(), size, "stats sized for a different cluster");
        Endpoint {
            rank,
            size,
            transport,
            pending: (0..size).map(|_| VecDeque::new()).collect(),
            faults: vec![None; size],
            fabric_closed: false,
            down: vec![false; size],
            recovery_phase: false,
            clock: VirtualClock::new(),
            model,
            stats,
            compute_steps: 0,
            poisoned: None,
            tracer: Tracer::for_rank(rank),
            recovery_span: None,
        }
    }

    /// This rank's flight-recorder handle (copyable; free when tracing is
    /// off).
    #[inline]
    pub fn tracer(&self) -> Tracer {
        self.tracer
    }

    /// This rank's id (0 = master).
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks (workers + master).
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of worker ranks (`size - 1`).
    #[inline]
    pub fn workers(&self) -> usize {
        self.size - 1
    }

    /// Current virtual time at this rank.
    #[inline]
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// The cost model in force.
    #[inline]
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Shared traffic statistics.
    #[inline]
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Direct access to the transport (used by the process runtime to
    /// exchange shutdown reports outside the metered protocol).
    #[inline]
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Total metered compute steps charged so far.
    #[inline]
    pub fn compute_steps(&self) -> u64 {
        self.compute_steps
    }

    /// Charges `steps` inference steps of compute to this rank's clock.
    pub fn advance_steps(&mut self, steps: u64) {
        self.compute_steps += steps;
        self.clock.advance(self.model.compute_time(steps));
    }

    /// Advances the clock by raw seconds (setup costs etc.).
    pub fn advance_secs(&mut self, secs: f64) {
        self.clock.advance(secs);
    }

    /// Non-blocking send of an encodable message to rank `to`.
    pub fn send<T2: Wire>(&mut self, to: usize, msg: &T2) {
        self.send_bytes(to, to_bytes(msg));
    }

    /// Non-blocking send of pre-encoded bytes to rank `to`. A send the
    /// transport cannot deliver (receiver gone, stream broken) is counted
    /// as a dropped send in the traffic statistics — the run outcome
    /// exposes the total, so lost messages are diagnosable.
    pub fn send_bytes(&mut self, to: usize, payload: Bytes) {
        // invariant: destinations are the protocol's own arithmetic on ranks
        // of this mesh; a rank a frame names is checked where it is read.
        assert!(to < self.size, "destination rank {to} out of range");
        assert_ne!(to, self.rank, "no loopback sends in this protocol");
        self.stats.record(self.rank, to, payload.len());
        if self.recovery_phase {
            self.stats.record_recovery(payload.len());
        }
        self.clock.advance(self.model.send_overhead);
        let arrival = self.clock.now() + self.model.transfer_time(payload.len());
        let bytes = payload.len();
        let env = Envelope {
            from: self.rank,
            arrival,
            poison: false,
            payload,
        };
        let delivered = self.transport.send(to, env);
        if !delivered {
            self.stats.record_dropped(self.rank, to);
        }
        event!(
            self.tracer,
            "send",
            self.clock.now(),
            to = to,
            bytes = bytes,
            arrival = arrival,
            dropped = !delivered,
        );
    }

    /// Puts every message this rank sent on the wire: the transport may
    /// hold sends until then ([`Transport::flush`]), and every receive
    /// flushes first. A held message that could not be written after all is
    /// counted as a dropped send, once.
    pub fn flush(&mut self) {
        for to in self.transport.flush() {
            self.stats.record_dropped(self.rank, to);
        }
    }

    /// Non-blocking broadcast to every other rank (implemented, like LAM on
    /// switched Ethernet, as point-to-point sends — each counted in the
    /// traffic statistics).
    pub fn broadcast<T2: Wire>(&mut self, msg: &T2) {
        let payload = to_bytes(msg);
        for to in 0..self.size {
            if to != self.rank {
                self.send_bytes(to, payload.clone());
            }
        }
    }

    /// Blocking receive of the next message *from a specific rank*,
    /// buffering messages from other sources. Merges the arrival time into
    /// this rank's clock and charges the receive overhead.
    ///
    /// Returns a rank-tagged [`RecvError`] — never hangs, never unwinds —
    /// when nothing more can arrive: the peer's link died (process exit,
    /// stream error, or a malformed frame on a socket transport), reported
    /// after any already-buffered messages from it were delivered, or a rank
    /// failed and its poison marker arrived ([`LinkFault::Poison`], naming
    /// that rank; from then on every receive returns it again).
    pub fn recv_from(&mut self, from: usize) -> Result<Bytes, RecvError> {
        self.recv_any(&[from], false).map(|(_, bytes)| bytes)
    }

    /// Blocking receive from a specific rank, decoded. Dead-link and
    /// malformed-frame failures both arrive as a [`CommError`] value, so
    /// protocol layers can diagnose (or recover) with `?`.
    pub fn recv_msg<T2: Wire>(&mut self, from: usize) -> Result<T2, CommError> {
        Ok(from_bytes(self.recv_from(from)?)?)
    }

    /// The [`CommFailure`] of this rank failing to receive what the
    /// protocol `expected` from rank `from`.
    pub fn failure(&self, from: usize, expected: &str, error: impl Into<CommError>) -> CommFailure {
        CommFailure {
            rank: self.rank,
            from,
            expected: expected.to_owned(),
            error: error.into(),
        }
    }

    /// The [`CommFailure`] of a frame from rank `from` that decoded and
    /// still cannot be acted on — `why`: not the kind the protocol
    /// `expected` in this state, or contents the receiver must not run on —
    /// so that it is reported as every other bad frame is.
    pub fn refusal(&self, from: usize, expected: &str, why: &'static str) -> CommFailure {
        self.failure(from, expected, DecodeError::new(why))
    }

    /// Blocks for one transport event. Returns the envelope when a message
    /// arrived; otherwise records what the event said — a link's fault, the
    /// fabric's closure, or the origin of a poison marker — for the receive
    /// loop to return, and yields `None`.
    fn pump(&mut self) -> Option<Envelope> {
        match self.transport.recv() {
            TransportEvent::Envelope(env) if env.poison => {
                self.poisoned.get_or_insert(env.from);
                None
            }
            TransportEvent::Envelope(env) => Some(env),
            TransportEvent::Closed { peer: Some(p) } => {
                self.faults[p].get_or_insert(LinkFault::Closed);
                None
            }
            TransportEvent::Closed { peer: None } => {
                self.fabric_closed = true;
                None
            }
            TransportEvent::Malformed { peer, context } => {
                self.faults[peer].get_or_insert(LinkFault::Malformed(context));
                None
            }
        }
    }

    /// The receive loop under the three public receives: the next message
    /// from the first of `sources` that has one buffered, else whatever
    /// arrives from any of them, everything else being buffered for later.
    /// `Err` names the rank at fault: the poisoned run's awaited source, a
    /// source whose link is dead, or — when `watching` — the lowest rank
    /// with a dead link that was not [marked down](Endpoint::mark_down).
    fn recv_any(&mut self, sources: &[usize], watching: bool) -> Result<(usize, Bytes), RecvError> {
        // invariant: as for a send's destination.
        assert!(
            sources.iter().all(|&s| s < self.size),
            "source rank out of range"
        );
        self.flush();
        let rank = self.rank;
        let err = |from, fault| Err(RecvError { rank, from, fault });
        loop {
            if let Some(origin) = self.poisoned {
                return err(sources[0], LinkFault::Poison { origin });
            }
            for &s in sources {
                if let Some(env) = self.pending[s].pop_front() {
                    return Ok((s, self.deliver(env)));
                }
            }
            let fault_of = |r: usize| Some((r, self.faults[r]?));
            let dead = match watching {
                true => (0..self.size).filter(|&r| !self.down[r]).find_map(fault_of),
                false => sources.iter().copied().find_map(fault_of),
            };
            if let Some((from, fault)) = dead {
                return err(from, fault);
            }
            if self.fabric_closed {
                return err(sources[0], LinkFault::Closed);
            }
            if let Some(env) = self.pump() {
                self.pending[env.from].push_back(env);
            }
        }
    }

    /// Blocking receive from `from` that *watches every other link*: the
    /// moment any rank not already [marked down](Endpoint::mark_down) has
    /// a dead link, the wait ends with a [`RecvError`] whose `from` is that
    /// rank — which need not be the one waited on; this is the recovering
    /// master's membership-event primitive. A fault on an acknowledged-dead
    /// rank is expected and ignored. A poison marker is returned as by
    /// [`Endpoint::recv_from`].
    pub fn recv_from_watching(&mut self, from: usize) -> Result<Bytes, RecvError> {
        self.recv_any(&[from], true).map(|(_, bytes)| bytes)
    }

    /// Blocking receive from whichever of two ranks delivers first
    /// (already-buffered messages from `a` win ties). Used by recovering
    /// workers that must hear either the ring predecessor *or* a master
    /// abort. A dead link on either source is returned as a [`RecvError`]
    /// naming it, a poison marker as by [`Endpoint::recv_from`].
    pub fn recv_from_either(&mut self, a: usize, b: usize) -> Result<(usize, Bytes), RecvError> {
        self.recv_any(&[a, b], false)
    }

    /// Acknowledges `rank` as dead: its link fault (present or future) no
    /// longer aborts [`Endpoint::recv_from_watching`].
    pub fn mark_down(&mut self, rank: usize) {
        self.down[rank] = true;
    }

    /// The ranks acknowledged dead so far, ascending.
    pub fn downed(&self) -> Vec<usize> {
        (0..self.size).filter(|&r| self.down[r]).collect()
    }

    /// Discards everything buffered from `rank` (stale in-flight messages
    /// from a dead peer must not leak into the resumed protocol).
    pub fn clear_pending(&mut self, rank: usize) {
        self.pending[rank].clear();
    }

    /// Toggles the recovery-traffic phase: while on, sends are additionally
    /// tallied in the recovery totals of [`TrafficStats`], and the phase
    /// shows as one `recovery` span on this rank's trace timeline.
    pub fn set_recovery_phase(&mut self, on: bool) {
        if on && !self.recovery_phase {
            self.recovery_span = Some(span!(self.tracer, "recovery", self.clock.now()));
        } else if !on {
            if let Some(s) = self.recovery_span.take() {
                s.end(self.clock.now());
            }
        }
        self.recovery_phase = on;
    }

    fn deliver(&mut self, env: Envelope) -> Bytes {
        self.clock.merge(env.arrival);
        self.clock.advance(self.model.recv_overhead);
        event!(
            self.tracer,
            "recv",
            self.clock.now(),
            from = env.from,
            bytes = env.payload.len(),
        );
        env.payload
    }

    /// Sends the poison marker to every other rank — this rank failed, by
    /// returning an error or by unwinding, and nobody may stay blocked on it
    /// — unless the run is already poisoned, by this rank or another.
    pub fn broadcast_poison(&mut self) {
        if self.poisoned.is_some() {
            return;
        }
        self.poisoned = Some(self.rank);
        for to in 0..self.size {
            if to != self.rank {
                let _ = self.transport.send(
                    to,
                    Envelope {
                        from: self.rank,
                        arrival: self.clock.now(),
                        poison: true,
                        payload: Bytes::new(),
                    },
                );
            }
        }
    }

    /// Runs `f` on this endpoint; should it unwind — a genuine bug, failures
    /// being values — the poison marker goes out on the way, so that the
    /// peers are woken and the panic can travel on without a deadlock.
    pub fn poisoning_on_unwind<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        struct Guard<'a, T: Transport>(&'a mut Endpoint<T>);
        impl<T: Transport> Drop for Guard<'_, T> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.broadcast_poison();
                }
            }
        }
        let guard = Guard(self);
        f(&mut *guard.0)
    }
}

impl<T: Transport> std::fmt::Debug for Endpoint<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Endpoint(rank {}/{}, t={:.6}s)",
            self.rank,
            self.size,
            self.now()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::to_bytes;
    use crate::transport::{MeshItem, MeshTransport};
    use crossbeam::channel::unbounded;

    fn two_rank_endpoint() -> (Endpoint, crossbeam::channel::Sender<MeshItem>) {
        let stats = TrafficStats::new(2);
        let (tx0, _rx0) = unbounded::<MeshItem>();
        let (tx1, rx1) = unbounded::<MeshItem>();
        let transport = MeshTransport::from_channels(vec![tx0.clone(), tx0], rx1);
        let ep = Endpoint::from_parts(1, 2, transport, CostModel::free(), stats);
        (ep, tx1)
    }

    /// A peer that exits early closes the mesh channel; the receive must
    /// surface a rank-tagged error (and keep delivering already-buffered
    /// envelopes first), not panic.
    #[test]
    fn closed_channel_surfaces_as_recv_error() {
        let (mut ep, tx1) = two_rank_endpoint();
        tx1.send(MeshItem::Env(Envelope {
            from: 0,
            arrival: 0.0,
            poison: false,
            payload: to_bytes(&7u32),
        }))
        .unwrap();
        drop(tx1); // the peer "exits"

        let first: u32 = ep.recv_msg(0).unwrap();
        assert_eq!(first, 7, "in-flight messages still deliver");
        assert_eq!(
            ep.recv_from(0).unwrap_err(),
            RecvError {
                rank: 1,
                from: 0,
                fault: LinkFault::Closed
            }
        );
        match ep.recv_msg::<u32>(0) {
            Err(CommError::Closed(e)) => {
                assert_eq!((e.rank, e.from), (1, 0));
                assert!(format!("{e}").contains("rank 1"), "error names the rank");
            }
            other => panic!("expected a closed-channel error, got {other:?}"),
        }
    }

    /// A send the transport cannot deliver must land in the dropped-send
    /// counters, not vanish.
    #[test]
    fn undeliverable_send_is_counted_as_dropped() {
        let stats = TrafficStats::new(2);
        let (tx0, rx0) = unbounded::<MeshItem>();
        let (tx1, rx1) = unbounded::<MeshItem>();
        drop(rx0); // rank 0's receiver is gone
        let transport = MeshTransport::from_channels(vec![tx0, tx1], rx1);
        let mut ep = Endpoint::from_parts(1, 2, transport, CostModel::free(), stats.clone());
        ep.send(0, &42u64);
        assert_eq!(stats.total_dropped(), 1);
        assert_eq!(stats.dropped_between(1, 0), 1);
        // The attempted bytes are still accounted (they "would have
        // crossed the network"), which is what makes the drop visible as a
        // discrepancy rather than a silent hole.
        assert_eq!(stats.total_bytes(), 8);
        drop(ep);
    }

    /// The recovering master's primitive: a watching receive must abort
    /// the moment any unacknowledged rank dies, resume ignoring that rank
    /// once it is marked down, and still deliver live traffic.
    #[test]
    fn watching_receive_turns_death_into_an_event() {
        let mut mesh = MeshTransport::mesh(3);
        let t0 = mesh.remove(0);
        let handle = t0.down_handle(0);
        let mut ep0 = Endpoint::from_parts(0, 3, t0, CostModel::free(), TrafficStats::new(3));

        handle.notify(2); // rank 2 "dies"
        let died = ep0.recv_from_watching(1).unwrap_err();
        assert_eq!((died.from, died.fault), (2, LinkFault::Closed));

        ep0.mark_down(2);
        assert_eq!(ep0.downed(), vec![2]);
        let mut t1 = mesh.remove(0); // rank 1's transport
        assert!(t1.send(
            0,
            Envelope {
                from: 1,
                arrival: 0.0,
                poison: false,
                payload: to_bytes(&9u32),
            }
        ));
        let bytes = ep0.recv_from_watching(1).unwrap();
        assert_eq!(from_bytes::<u32>(bytes).unwrap(), 9);
    }

    #[test]
    fn recv_from_either_takes_whichever_source_delivers() {
        let mut mesh = MeshTransport::mesh(3);
        let t0 = mesh.remove(0);
        let mut ep0 = Endpoint::from_parts(0, 3, t0, CostModel::free(), TrafficStats::new(3));
        let mut t2 = mesh.remove(1); // rank 2's transport
        assert!(t2.send(
            0,
            Envelope {
                from: 2,
                arrival: 0.0,
                poison: false,
                payload: to_bytes(&5u32),
            }
        ));
        let (from, bytes) = ep0.recv_from_either(1, 2).unwrap();
        assert_eq!(from, 2);
        assert_eq!(from_bytes::<u32>(bytes).unwrap(), 5);
    }

    /// A poison marker is a value the receive returns, naming the rank that
    /// failed, before anything still buffered and on every later receive
    /// whatever the source; the endpoint that was told does not tell others.
    #[test]
    fn poison_is_a_sticky_receive_error_naming_its_origin() {
        let mut mesh = MeshTransport::mesh(3);
        let mut t2 = mesh.pop().expect("rank 2");
        let mut t1 = mesh.pop().expect("rank 1");
        let t0 = mesh.pop().expect("rank 0");
        let mut ep0 = Endpoint::from_parts(0, 3, t0, CostModel::free(), TrafficStats::new(3));
        let envelope = |from, poison| Envelope {
            from,
            arrival: 0.0,
            poison,
            payload: if poison { Bytes::new() } else { to_bytes(&1u8) },
        };
        assert!(t1.send(0, envelope(1, false)));
        assert!(t2.send(0, envelope(2, true)));
        let poisoned = |from| RecvError {
            rank: 0,
            from,
            fault: LinkFault::Poison { origin: 2 },
        };
        // Waiting on rank 2 buffers rank 1's message and meets the marker.
        assert_eq!(ep0.recv_from(2).unwrap_err(), poisoned(2));
        assert_eq!(ep0.recv_from(1).unwrap_err(), poisoned(1));
        assert_eq!(ep0.recv_from_watching(1).unwrap_err(), poisoned(1));
        assert_eq!(ep0.recv_from_either(2, 1).unwrap_err(), poisoned(2));
        let failure = ep0.failure(1, "a reply", poisoned(1));
        assert_eq!(failure.poisoned_by(), Some(2));
        assert_eq!(ep0.refusal(1, "a reply", "not one").poisoned_by(), None);
        // A victim does not poison in turn: rank 1's next item is rank 2's.
        ep0.broadcast_poison();
        assert!(t2.send(1, envelope(2, false)));
        assert!(matches!(
            t1.recv(),
            TransportEvent::Envelope(Envelope { from: 2, .. })
        ));
    }

    #[test]
    fn comm_failure_displays_rank_tagged() {
        let f = CommFailure {
            rank: 0,
            from: 2,
            expected: "RulesFound".to_owned(),
            error: CommError::Closed(RecvError {
                rank: 0,
                from: 2,
                fault: LinkFault::Malformed("frame length"),
            }),
        };
        let s = format!("{f}");
        assert!(s.contains("rank 0"), "{s}");
        assert!(s.contains("rank 2"), "{s}");
        assert!(s.contains("RulesFound"), "{s}");
        assert!(s.contains("malformed"), "{s}");
    }
}
