//! The pluggable transport layer underneath [`crate::comm::Endpoint`].
//!
//! The paper's algorithm ran on LAM/MPI over a Beowulf cluster; this
//! reproduction started with ranks as threads and links as channels. The
//! [`Transport`] trait is the seam between those two worlds: everything
//! *above* it — virtual-clock metering, per-link traffic statistics, the
//! `recv_from` source buffering that makes runs deterministic — lives in
//! `Endpoint` and is transport-agnostic; everything *below* it is "move
//! these [`Envelope`]s between ranks".
//!
//! Two base transports ship:
//!
//! * [`MeshTransport`] — the in-process mesh: every rank is an OS thread
//!   and every link an unbounded channel. This is the default (and what
//!   [`crate::run_cluster`] uses), because it is fastest, needs no setup,
//!   and keeps whole cluster simulations in one address space. All the
//!   paper-shaped measurements (Table 4 traffic, `master_vtime`) are taken
//!   on this transport.
//! * [`crate::net::TcpTransport`] — real sockets: every rank is an OS
//!   *process* and every link a `TcpStream` carrying length-prefixed
//!   frames (see [`crate::net`] for the frame format and the rendezvous
//!   handshake). Use it when workers must actually live in separate
//!   processes — on one machine for fault isolation, or on a real cluster.
//!
//! Both transports carry the same [`Envelope`]: the payload bytes plus the
//! sender rank, the poison flag, and the *virtual arrival time* — so a
//! multi-process run Lamport-merges exactly the same clock values as the
//! in-process simulation and stays bit-for-bit deterministic.
//!
//! # Death notifications
//!
//! A TCP link reports a dead peer naturally (`Closed { peer: Some(r) }`
//! when the stream breaks), but the in-process mesh cannot: every rank
//! holds a clone of every sender, so one rank's exit never closes a
//! survivor's channel. The mesh therefore carries an out-of-band item
//! alongside envelopes — the runtime supervisor grabs a [`DownHandle`] to
//! a rank before spawning it and injects a [`MeshItem::Down`] when that
//! rank's thread dies, which the receiving transport surfaces as the same
//! `Closed { peer: Some(r) }` event a broken socket would produce. Failure
//! detection thus looks identical above the [`Transport`] seam on both
//! substrates.
//!
//! # Chaos testing
//!
//! [`ChaosTransport`] wraps any transport with deterministic, seed-driven
//! fault injection: kill-after-N-sends, random drops, one-message delays
//! (reordering), and payload truncation. It exists so every recovery path
//! in the master's supervision loop can be exercised in-process under
//! `cargo test` — no sockets, no subprocesses, and the same faults every
//! run (the generator is a seeded [`StdRng`]). The master rank is normally
//! wrapped with a no-op [`ChaosConfig`] so only workers die.

use crate::comm::Envelope;
use crossbeam::channel::{unbounded, Receiver, Sender};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What a blocking [`Transport::recv`] can yield besides a message.
#[derive(Debug)]
pub enum TransportEvent {
    /// A message arrived.
    Envelope(Envelope),
    /// A link closed. `Some(rank)` names the peer whose link died (a
    /// process exit, a stream error, or an injected [`MeshItem::Down`]);
    /// `None` means the whole fabric is gone and no message will ever
    /// arrive again.
    Closed {
        /// The dead peer, when the transport can tell.
        peer: Option<usize>,
    },
    /// A peer delivered bytes that do not parse as a frame. The link is
    /// dead from this point on (resynchronizing inside a corrupt byte
    /// stream is not attempted).
    Malformed {
        /// The offending peer.
        peer: usize,
        /// What failed to parse.
        context: &'static str,
    },
}

/// Moves [`Envelope`]s between ranks. See the [module docs](self) for the
/// contract split between `Endpoint` and the transport.
pub trait Transport {
    /// Best-effort, non-blocking send to rank `to`. Returns `false` when
    /// the envelope could not be handed off (peer gone, stream broken);
    /// the caller accounts such losses as dropped sends. The transport may
    /// hold the envelope until the next [`Transport::flush`].
    fn send(&mut self, to: usize, env: Envelope) -> bool;

    /// Puts every envelope that `send` accepted on the wire, and returns the
    /// destination of each one that could not be written after all (one
    /// entry per envelope), for the caller to account as dropped sends.
    ///
    /// The contract: a frame is on the wire before the sender's next
    /// receive returns. [`crate::comm::Endpoint`] flushes at the top of
    /// every receive — also one its own buffers serve without asking the
    /// transport, so no frame waits out a stage of compute — and `recv`
    /// itself flushes first. The in-process mesh hands an envelope over in
    /// `send`, so its flush has nothing to do.
    fn flush(&mut self) -> Vec<usize> {
        Vec::new()
    }

    /// Blocks until the next event: a message from any peer, or a link
    /// failure. Ordering per peer is FIFO; ordering across peers is
    /// arrival order.
    fn recv(&mut self) -> TransportEvent;
}

/// One item on an in-process mesh channel: a protocol envelope, or an
/// out-of-band death notification injected by the runtime supervisor (see
/// the [module docs](self)).
#[derive(Debug)]
pub enum MeshItem {
    /// A protocol message.
    Env(Envelope),
    /// "Rank `r` is dead" — surfaced as `Closed { peer: Some(r) }`.
    Down(usize),
}

/// A cloneable handle that injects a death notification into one rank's
/// mesh channel. The in-process runtime hands the master a handle per
/// worker so a worker thread's demise becomes a per-peer closure event,
/// exactly like a broken TCP stream.
#[derive(Clone)]
pub struct DownHandle {
    tx: Sender<MeshItem>,
}

impl DownHandle {
    /// Notifies the handle's owner that `rank` died. Returns `false` when
    /// the owner itself is already gone.
    pub fn notify(&self, rank: usize) -> bool {
        self.tx.send(MeshItem::Down(rank)).is_ok()
    }
}

/// The in-process transport: one unbounded channel per rank, every rank
/// holding a sender to every other. This is exactly the substrate the
/// simulator has always run on, now behind the [`Transport`] seam.
pub struct MeshTransport {
    senders: Vec<Sender<MeshItem>>,
    rx: Receiver<MeshItem>,
}

impl MeshTransport {
    /// Assembles one rank's transport from raw channel halves (tests and
    /// custom topologies; [`MeshTransport::mesh`] is the usual entry).
    pub fn from_channels(senders: Vec<Sender<MeshItem>>, rx: Receiver<MeshItem>) -> MeshTransport {
        MeshTransport { senders, rx }
    }

    /// Builds the full `size`-rank mesh, returning one transport per rank
    /// (index = rank).
    pub fn mesh(size: usize) -> Vec<MeshTransport> {
        let mut txs = Vec::with_capacity(size);
        let mut rxs = Vec::with_capacity(size);
        for _ in 0..size {
            let (tx, rx) = unbounded::<MeshItem>();
            txs.push(tx);
            rxs.push(rx);
        }
        rxs.into_iter()
            .map(|rx| MeshTransport {
                senders: txs.clone(),
                rx,
            })
            .collect()
    }

    /// A handle that injects death notifications into rank `to`'s channel.
    pub fn down_handle(&self, to: usize) -> DownHandle {
        DownHandle {
            tx: self.senders[to].clone(),
        }
    }
}

impl Transport for MeshTransport {
    fn send(&mut self, to: usize, env: Envelope) -> bool {
        self.senders[to].send(MeshItem::Env(env)).is_ok()
    }

    fn recv(&mut self) -> TransportEvent {
        match self.rx.recv() {
            Ok(MeshItem::Env(env)) => TransportEvent::Envelope(env),
            Ok(MeshItem::Down(rank)) => TransportEvent::Closed { peer: Some(rank) },
            // The mesh shares one channel per receiver, so spontaneous
            // closure is only observable in aggregate: every peer's sender
            // is gone.
            Err(_) => TransportEvent::Closed { peer: None },
        }
    }
}

// ---------------------------------------------------------------------------
// Chaos: deterministic fault injection over any transport.
// ---------------------------------------------------------------------------

/// What faults a [`ChaosTransport`] injects. The default is a no-op (no
/// faults); build up from there. All randomness comes from a seeded
/// generator, so a given config produces the same fault sequence every
/// run.
#[derive(Clone, Debug, Default)]
pub struct ChaosConfig {
    /// After this many successful `send` calls the transport dies: every
    /// later send fails and every later recv reports the fabric closed —
    /// the in-process equivalent of `kill -9` on the rank.
    pub kill_after_sends: Option<u64>,
    /// Probability that a send is silently swallowed (reported delivered,
    /// never arrives).
    pub drop_prob: f64,
    /// Probability that a received envelope is held back until one more
    /// event is delivered — a single-message reorder. Breaks the per-peer
    /// FIFO contract [`crate::comm::Endpoint`] relies on, so this knob is
    /// for transport-level unit tests only.
    pub delay_prob: f64,
    /// Probability that a sent envelope's payload is truncated to half its
    /// length (surfaces as a decode failure at the receiver).
    pub truncate_prob: f64,
    /// Seed for the fault generator.
    pub seed: u64,
}

impl ChaosConfig {
    /// A no-fault config with the given seed.
    pub fn new(seed: u64) -> Self {
        ChaosConfig {
            seed,
            ..ChaosConfig::default()
        }
    }

    /// Kills the transport after `n` sends.
    pub fn kill_after_sends(mut self, n: u64) -> Self {
        self.kill_after_sends = Some(n);
        self
    }

    /// Drops each send with probability `p`.
    pub fn drop_prob(mut self, p: f64) -> Self {
        self.drop_prob = p;
        self
    }

    /// Delays (reorders by one) each received envelope with probability
    /// `p`.
    pub fn delay_prob(mut self, p: f64) -> Self {
        self.delay_prob = p;
        self
    }

    /// Truncates each sent payload with probability `p`.
    pub fn truncate_prob(mut self, p: f64) -> Self {
        self.truncate_prob = p;
        self
    }

    fn is_noop(&self) -> bool {
        self.kill_after_sends.is_none()
            && self.drop_prob == 0.0
            && self.delay_prob == 0.0
            && self.truncate_prob == 0.0
    }
}

/// Deterministic fault injection over any [`Transport`] (see the
/// [module docs](self)).
pub struct ChaosTransport<T> {
    inner: T,
    cfg: ChaosConfig,
    rng: StdRng,
    sends: u64,
    dead: bool,
    delayed: Option<Envelope>,
}

impl<T: Transport> ChaosTransport<T> {
    /// Wraps `inner` with the faults described by `cfg`.
    pub fn new(inner: T, cfg: ChaosConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        ChaosTransport {
            inner,
            cfg,
            rng,
            sends: 0,
            dead: false,
            delayed: None,
        }
    }

    /// Whether the kill switch has fired.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// The wrapped transport.
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn send(&mut self, to: usize, env: Envelope) -> bool {
        if self.dead {
            return false;
        }
        if let Some(n) = self.cfg.kill_after_sends {
            if self.sends >= n {
                self.dead = true;
                return false;
            }
        }
        self.sends += 1;
        if self.cfg.drop_prob > 0.0 && self.rng.random_bool(self.cfg.drop_prob) {
            return true; // swallowed: "delivered", never arrives
        }
        let env = if self.cfg.truncate_prob > 0.0
            && !env.payload.is_empty()
            && self.rng.random_bool(self.cfg.truncate_prob)
        {
            Envelope {
                payload: env.payload.slice(..env.payload.len() / 2),
                ..env
            }
        } else {
            env
        };
        self.inner.send(to, env)
    }

    fn flush(&mut self) -> Vec<usize> {
        self.inner.flush()
    }

    fn recv(&mut self) -> TransportEvent {
        if self.dead {
            return TransportEvent::Closed { peer: None };
        }
        if let Some(env) = self.delayed.take() {
            return TransportEvent::Envelope(env);
        }
        match self.inner.recv() {
            TransportEvent::Envelope(env)
                if self.cfg.delay_prob > 0.0 && self.rng.random_bool(self.cfg.delay_prob) =>
            {
                match self.inner.recv() {
                    // Hold the rolled envelope back until after this one
                    // (released from `delayed` on the next recv).
                    TransportEvent::Envelope(next) => {
                        self.delayed = Some(env);
                        TransportEvent::Envelope(next)
                    }
                    // Nothing left to reorder past: deliver in order (a
                    // mesh closure is sticky and re-surfaces next recv).
                    _ => TransportEvent::Envelope(env),
                }
            }
            other => other,
        }
    }
}

/// Wraps `inner` only when `cfg` actually injects faults; a no-op config
/// still wraps (uniform types for callers) but spends no RNG draws.
pub fn maybe_chaos<T: Transport>(inner: T, cfg: Option<ChaosConfig>) -> ChaosTransport<T> {
    match cfg {
        Some(cfg) if !cfg.is_noop() => ChaosTransport::new(inner, cfg),
        _ => ChaosTransport::new(inner, ChaosConfig::default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn env(from: usize) -> Envelope {
        Envelope {
            from,
            arrival: 0.0,
            poison: false,
            payload: Bytes::from(b"x".as_slice()),
        }
    }

    fn env_payload(from: usize, payload: &[u8]) -> Envelope {
        Envelope {
            from,
            arrival: 0.0,
            poison: false,
            payload: Bytes::from(payload.to_vec()),
        }
    }

    /// A one-directional rank-0 → rank-1 pair where rank 1 holds no sender
    /// at all, so dropping rank 0's transport closes rank 1's channel (the
    /// full mesh keeps every channel open via each rank's own sender
    /// clone).
    fn one_way_pair() -> (MeshTransport, MeshTransport) {
        let (tx0, rx0) = unbounded::<MeshItem>();
        let (tx1, rx1) = unbounded::<MeshItem>();
        let t0 = MeshTransport::from_channels(vec![tx0, tx1], rx0);
        let t1 = MeshTransport::from_channels(Vec::new(), rx1);
        (t0, t1)
    }

    #[test]
    fn mesh_routes_between_ranks() {
        let mut mesh = MeshTransport::mesh(3);
        let mut t2 = mesh.pop().unwrap();
        let mut t1 = mesh.pop().unwrap();
        let mut t0 = mesh.pop().unwrap();
        assert!(t0.send(1, env(0)));
        assert!(t2.send(1, env(2)));
        for _ in 0..2 {
            match t1.recv() {
                TransportEvent::Envelope(e) => assert!(e.from == 0 || e.from == 2),
                other => panic!("expected an envelope, got {other:?}"),
            }
        }
    }

    #[test]
    fn send_to_dead_peer_fails() {
        let mut mesh = MeshTransport::mesh(2);
        let mut t1 = mesh.pop().unwrap();
        drop(mesh); // rank 0 exited; its receiver is gone
        assert!(!t1.send(0, env(1)));
    }

    #[test]
    fn down_notification_surfaces_as_per_peer_closure() {
        let mut mesh = MeshTransport::mesh(3);
        let handle = mesh[0].down_handle(0);
        let mut t0 = mesh.remove(0);
        assert!(handle.notify(2));
        match t0.recv() {
            TransportEvent::Closed { peer: Some(2) } => {}
            other => panic!("expected Closed{{Some(2)}}, got {other:?}"),
        }
    }

    #[test]
    fn chaos_kill_after_sends_is_exact() {
        let mesh = MeshTransport::mesh(2);
        let mut it = mesh.into_iter();
        let t0 = it.next().unwrap();
        let _keep = it.next().unwrap(); // keep rank 1's receiver alive
        let mut chaos = ChaosTransport::new(t0, ChaosConfig::new(7).kill_after_sends(3));
        for _ in 0..3 {
            assert!(chaos.send(1, env(0)));
        }
        assert!(!chaos.send(1, env(0)), "send 4 must fail");
        assert!(chaos.is_dead());
        match chaos.recv() {
            TransportEvent::Closed { peer: None } => {}
            other => panic!("dead transport must report fabric closed, got {other:?}"),
        }
    }

    #[test]
    fn chaos_drop_swallows_deterministically() {
        let run = |seed| {
            let (t0, mut t1) = one_way_pair();
            let mut chaos = ChaosTransport::new(t0, ChaosConfig::new(seed).drop_prob(0.5));
            for i in 0..20 {
                assert!(chaos.send(1, env_payload(0, &[i])));
            }
            drop(chaos);
            let mut got = Vec::new();
            loop {
                match t1.recv() {
                    TransportEvent::Envelope(e) => got.push(e.payload.as_slice()[0]),
                    TransportEvent::Closed { .. } => break,
                    other => panic!("unexpected {other:?}"),
                }
            }
            got
        };
        let a = run(11);
        assert!(a.len() < 20, "some sends must be dropped");
        assert!(!a.is_empty(), "some sends must survive");
        assert_eq!(a, run(11), "same seed, same fault sequence");
        assert_ne!(a, run(12), "different seed, different faults");
    }

    #[test]
    fn chaos_delay_reorders_by_one() {
        let (mut t0, t1) = one_way_pair();
        for i in 0..6 {
            assert!(t0.send(1, env_payload(0, &[i])));
        }
        drop(t0); // channel closes once the six envelopes drain
        let mut chaos = ChaosTransport::new(t1, ChaosConfig::new(3).delay_prob(1.0));
        let mut got = Vec::new();
        for _ in 0..6 {
            match chaos.recv() {
                TransportEvent::Envelope(e) => got.push(e.payload.as_slice()[0]),
                other => panic!("unexpected {other:?}"),
            }
        }
        // Every envelope rolls a delay, so consecutive pairs swap.
        assert_eq!(got, vec![1, 0, 3, 2, 5, 4]);
    }

    #[test]
    fn chaos_truncation_halves_payloads() {
        let mut mesh = MeshTransport::mesh(2);
        let mut t1 = mesh.pop().unwrap();
        let t0 = mesh.pop().unwrap();
        let mut chaos = ChaosTransport::new(t0, ChaosConfig::new(5).truncate_prob(1.0));
        assert!(chaos.send(1, env_payload(0, &[1, 2, 3, 4])));
        match t1.recv() {
            TransportEvent::Envelope(e) => assert_eq!(e.payload.as_slice(), &[1, 2]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn noop_chaos_is_transparent() {
        let mut mesh = MeshTransport::mesh(2);
        let mut t1 = mesh.pop().unwrap();
        let t0 = mesh.pop().unwrap();
        let mut chaos = maybe_chaos(t0, None);
        for i in 0..10 {
            assert!(chaos.send(1, env_payload(0, &[i])));
        }
        for i in 0..10 {
            match t1.recv() {
                TransportEvent::Envelope(e) => assert_eq!(e.payload.as_slice(), &[i]),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
