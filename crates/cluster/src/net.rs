//! Socket-backed transport: real OS processes over a localhost-or-LAN TCP
//! mesh.
//!
//! This is the layer that turns the simulator into a system that can run
//! on an actual cluster, the way the paper ran on LAM/MPI over switched
//! Ethernet. It is deliberately **std-only** (no async runtime, no socket
//! crates): non-blocking `std::net::TcpStream`s served by the rank's own
//! thread are exactly enough for the paper's static, deterministic message
//! pattern, and keep the offline shim setup untouched. The one call std
//! does not wrap is unix `poll(2)`, declared in a small shim of this crate;
//! the transport needs a unix host.
//!
//! # One thread per rank
//!
//! A rank's sends and receives run on the thread that runs its protocol;
//! the transport starts no thread.
//!
//! * **Sending** appends the frame to the peer's write buffer. The buffers
//!   go out — one write per peer, however many frames a burst holds — when
//!   the rank next receives: [`crate::comm::Endpoint`] flushes at the top of
//!   every receive, also one its pending queues serve
//!   ([`Transport::flush`]). A poison marker and a frame over 64 KiB are
//!   written through at once.
//! * **Receiving** waits in `poll(2)` on every live socket and reads each
//!   one that is readable into its link's [`FrameReader`]; complete frames
//!   queue up as events in arrival order.
//! * **Writes never deadlock.** The sockets are non-blocking: while a
//!   write waits for room, the same `poll` keeps reading every peer, so two
//!   ranks writing to each other never block on each other.
//! * **Delivery stays honest.** A buffered frame whose write fails later is
//!   counted once as a dropped send, at the next flush. The shutdown report
//!   and the report collection flush first, and a dropped transport still
//!   flushes, for two seconds at most.
//!
//! Grouping frames into writes changes only how they fall into TCP
//! segments: every frame keeps its bytes and its arrival stamp, so clocks,
//! counts and traffic are those of a write per frame.
//!
//! # Frame format
//!
//! Every link carries length-prefixed frames:
//!
//! ```text
//! [len: u32 le] [kind: u8] [body…]          (len counts kind + body)
//! ```
//!
//! The kind byte and the body are [`Frame`]'s wire table (a
//! `p2mdie_logic::wire_enum!` next to the enum, the one place the layout is
//! written; `tests/golden/wire_layout.txt` pins its bytes) under the rules
//! of [`p2mdie_logic::wire`]. In prose:
//!
//! * kind 0, **Envelope** — `from: u32`, `poison: bool`, `arrival: f64`,
//!   then the payload bytes, uncounted, to the end of the frame. The
//!   *virtual arrival time* travels in the frame, so a receiving process
//!   Lamport-merges the exact same clock value the in-process simulation
//!   would — multi-process runs stay bit-for-bit deterministic.
//! * kind 1, **Hello** — `magic: u32`, `version: u16`, `rank: u32`,
//!   `addr: string` (the dialer's own listening address; empty on
//!   worker-to-worker dials). The rendezvous handshake.
//! * kind 2, **Roster** — the [`CostModel`] (five `f64`s), every worker's
//!   `(rank, address)`, and `recording: bool`, whether the master has a
//!   trace session active (a worker process then records too). Master →
//!   worker, once, after all workers said hello.
//! * kind 3, **Report** — a [`WorkerReport`]: `vtime: f64`, `steps: u64`,
//!   the sender's traffic row, its two recovery-traffic counters, and its
//!   trace records (empty unless the roster said the master records).
//!   Worker → master, once, at shutdown, *outside* the metered protocol
//!   (reports are bookkeeping, not algorithm traffic).
//!
//! Frames are decoded by the incremental [`FrameReader`], which accepts
//! arbitrary stream fragmentation — byte-at-a-time, coalesced, split
//! mid-length or mid-payload — and either yields exactly the frames that
//! were written or fails cleanly ([`DecodeError`], no panic, no partial
//! frame ever surfaced).
//!
//! # Rendezvous handshake
//!
//! Connection establishment is master-anchored:
//!
//! 1. the master binds a listener and spawns/awaits `p` workers;
//! 2. each worker binds its *own* listener, dials the master, and sends
//!    `Hello { rank, addr }`;
//! 3. once all `p` ranks said hello, the master sends every worker the
//!    `Roster` (cost model + every worker's address + whether it records);
//! 4. worker `k` dials every worker `j < k` (sending a `Hello` so the
//!    acceptor knows who called) and accepts dials from every `j > k`.
//!
//! The result is a full TCP mesh with the same topology as the in-process
//! channel mesh. Poison/shutdown propagation works across the process
//! boundary because poison is just an envelope flag: a failing worker
//! broadcasts poison frames before exiting — every peer's receive then
//! returns [`LinkFault::Poison`](crate::comm::LinkFault) naming it — and
//! a worker that dies without them is returned as a per-link closure at
//! every peer instead of a hang.
//!
//! # How a run fails
//!
//! As in [`crate::runtime`], failures are values: the master closure of
//! [`run_cluster_tcp`] returns `Result<_, CommFailure>`, and what the
//! caller gets is a [`ClusterError`] naming the rank at the root —
//! [`ClusterError::Comm`] for a peer the master lost or had to refuse,
//! [`ClusterError::WorkerFailed`] / [`ClusterError::WorkerPanicked`] for a
//! worker process whose poison marker woke the master (told apart by the
//! process's exit code, see [`PROTOCOL_FAILURE_EXIT`]), each quoting the
//! child's exit status and stderr. A master *panic* is a bug and travels on
//! through the caller; on its way the workers are poisoned and the child
//! processes killed.
//!
//! Every handshake step is bounded twice: the run-level `timeout` caps the
//! whole rendezvous, and each *connection* additionally gets
//! [`HANDSHAKE_TIMEOUT`] (tunable via the `_opts` entry points) to
//! complete its `Hello` — so one peer that connects and goes silent fails
//! the rendezvous fast with a `NetError` naming the peer, instead of
//! stalling the mesh until the global watchdog.
//!
//! # When to use which transport
//!
//! Use the default in-process mesh ([`crate::run_cluster`]) for
//! simulations, tests, and all paper-shaped measurements — it is faster
//! and needs no setup. Use this module (via `run_cluster_tcp` or the core
//! crate's `ParallelConfig::with_transport`) when worker ranks must be
//! real OS processes: fault isolation, real clusters, or validating that
//! nothing silently depends on shared memory.

use crate::codec::{DecodeError, Wire};
use crate::comm::{CommFailure, Endpoint, Envelope};
use crate::poll::{PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};
use crate::runtime::{ClusterError, ClusterOutcome};
use crate::stats::TrafficStats;
use crate::transport::{Transport, TransportEvent};
use crate::vtime::CostModel;
use bytes::Bytes;
use p2mdie_logic::wire::decode_exact;
use p2mdie_obs::Event;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::process::Child;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Handshake magic ("p2md").
pub const MAGIC: u32 = 0x7032_6d64;
/// Wire-protocol version; bumped on any frame-format *or payload-shape*
/// change (v2: `KbSnapshot` columns became full-arity when the fact store
/// went column-native; v3: the shutdown `Report` frame grew the worker's
/// recovery-traffic counters, and the protocol itself gained the
/// worker-death recovery messages — a v2 peer would mis-parse both;
/// v4: `PredSnapshot` columns flattened to one position-major stripe run
/// and posting lists moved from sorted pairs to CSR keys/offs/idx runs;
/// v5: the protocol gained the resident-service job-control messages —
/// `SubmitJob`, its acknowledgement (retired in v13) and `JobResult` — and
/// workers became resident between jobs, so a v4 peer would mis-parse a
/// job submission and would exit where a v5 worker idles;
/// v6: the protocol gained the introspection pair `MetricsQuery` /
/// `MetricsReport` — the master pulls live per-worker metric snapshots
/// between jobs, which a v5 idle loop would reject as an unexpected
/// message;
/// v7: the strategy seam — `WorkerConfig` grew the search strategy and its
/// seed, the protocol gained a worker↔worker `Constraint` broadcast (tag
/// 27), and the shutdown `Report` frame grew two counters for that traffic
/// — a v6 peer would mis-parse all three;
/// v8: one bootstrap framing — a worker process is handed its work as a
/// `SubmitJob` whether the mesh is resident or one-shot, so the v3
/// `Configure`/`LoadPartition` pair and the advisory `CancelJob` are
/// retired; a v7 worker would sit waiting for a `Configure` that never
/// comes, and a v7 master would send frames a v8 worker refuses to decode;
/// v9: `SubmitJob` carries the rank's example subset as an option — absent
/// when the rank kept it from its previous job — where v8 had the two
/// lists, so either peer would mis-parse the other's job submission;
/// v10: the strategy that sent `Constraint` is gone, and with it tag 27,
/// strategy tag 2 and the two `Report` counters — a v9 worker's report is
/// 16 bytes longer than a v10 master reads, and a v9 peer's tag 27 or
/// strategy tag 2 is refused;
/// v11: the `Roster` frame grew whether the master records and the
/// shutdown `Report` frame the worker's trace records, so a worker process's
/// timeline comes home in-band — a v10 peer reads either frame short);
/// v12: message tag 15, which armed a worker's recovery at any point of a
/// job, is retired — a job's worker configuration says whether it recovers,
/// in the slot of its old re-dealing flag — and re-dealing is strategy tag
/// 3: a v12 worker refuses a v11 master's arming frame, and reads its
/// re-dealing job as one that recovers;
/// v13: message tag 22, the empty acknowledgement a worker sent for every
/// `SubmitJob`, is retired — a job's frames follow its submission at once
/// and its `JobResult` is the only answer — so a v12 master would wait for
/// an acknowledgement a v13 worker never sends, and a v13 master refuses a
/// v12 worker's;
/// v14: `JobResult` grew the bytes and messages the rank sent for the job,
/// so a master accounts a job's whole-mesh traffic over TCP as in process —
/// either peer reads the other's `JobResult` at the wrong length).
pub const PROTOCOL_VERSION: u16 = 14;
/// Default per-connection handshake bound: once a peer has *connected*, it
/// gets this long to complete its `Hello` (and a roster-fed worker dial
/// this long to succeed) before the rendezvous gives up on it. Without a
/// per-connection bound, a peer that connects and then goes silent — a
/// half-dead process, a port scanner, a partitioned host — stalls the
/// whole mesh until the run's *global* watchdog (typically 60 s) instead
/// of failing fast with a diagnosis. The global deadline still caps
/// everything; this bound only tightens the per-peer wait.
pub const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);
/// Upper bound on one frame's body (guards against garbage length
/// prefixes; a compiled-KB snapshot for the paper-scale datasets is a few
/// MB, so 1 GiB is generous).
pub const MAX_FRAME: u32 = 1 << 30;
/// Exit code a *resident* worker process uses when its master link closed
/// while it sat idle between jobs: an orderly disconnect (or a kill landing
/// in the idle window), not a mid-job failure. Distinct from 0 (clean
/// shutdown after a report), [`BOOTSTRAP_FAILURE_EXIT`],
/// [`PROTOCOL_FAILURE_EXIT`], [`PANIC_EXIT`] and [`POISONED_EXIT`], so a
/// post-shutdown signal is never misreported as a mid-run crash — the
/// child-failure diagnosis maps each to its own message.
pub const IDLE_DISCONNECT_EXIT: i32 = 4;
/// Exit code of a worker process whose bootstrap delivered no usable KB
/// snapshot: the first frame was something else, would not decode or
/// validate, or the master link died before it came.
pub const BOOTSTRAP_FAILURE_EXIT: i32 = 5;
/// Exit code of a worker process whose protocol failed mid-run with a typed
/// [`CommFailure`] — a peer's link died under a receive, or a frame had to
/// be refused. The process poisons the run first.
pub const PROTOCOL_FAILURE_EXIT: i32 = 6;
/// Exit code of a worker process that panicked (a bug; Rust's own code for
/// it). The process poisons the run first.
pub const PANIC_EXIT: i32 = 101;
/// Exit code of a worker process woken by another rank's poison marker: a
/// victim of the failure, not its cause.
pub const POISONED_EXIT: i32 = 102;

// ---------------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------------

/// Cluster setup over sockets failed (bind, dial, or handshake).
#[derive(Debug)]
pub struct NetError {
    /// What went wrong.
    pub message: String,
}

impl NetError {
    fn new(message: impl Into<String>) -> Self {
        NetError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::new(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Frames.
// ---------------------------------------------------------------------------

/// A worker's shutdown report: final clock, metered steps, its send row of
/// the traffic matrix (each process only records its own sends, so the
/// master aggregates these to recover whole-cluster statistics), and its
/// trace records.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkerReport {
    /// Final virtual clock.
    pub vtime: f64,
    /// Metered compute steps.
    pub steps: u64,
    /// `(bytes, messages, dropped)` per destination rank.
    pub sends: Vec<(u64, u64, u64)>,
    /// Bytes this worker sent during recovery phases (a labelled subset of
    /// `sends`, so the master can keep recovery traffic out of the
    /// paper-shaped numbers).
    pub recovery_bytes: u64,
    /// Messages this worker sent during recovery phases.
    pub recovery_messages: u64,
    /// The worker's trace records, for the master's session; empty when
    /// the master was not recording as the mesh formed.
    pub records: Vec<Event>,
}
p2mdie_logic::wire_struct!(WorkerReport {
    vtime,
    steps,
    sends,
    recovery_bytes,
    recovery_messages,
    records,
});

/// One decoded frame (see the [module docs](self) for the byte layout).
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// A protocol message between ranks.
    Envelope {
        /// Sender rank.
        from: u32,
        /// Poison marker.
        poison: bool,
        /// Virtual arrival time at the destination.
        arrival: f64,
        /// Encoded payload.
        payload: Vec<u8>,
    },
    /// Rendezvous: "I am rank `rank`, my listener is at `addr`".
    Hello {
        /// Handshake magic; must equal [`MAGIC`].
        magic: u32,
        /// Protocol version; must equal [`PROTOCOL_VERSION`].
        version: u16,
        /// The dialer's rank.
        rank: u32,
        /// The dialer's own listening address ("" on worker-worker dials).
        addr: String,
    },
    /// Rendezvous: the master's answer — cost model, every worker's
    /// address, and whether the master records.
    Roster {
        /// The cost model every rank must meter with.
        model: CostModel,
        /// `(rank, address)` of every worker, rank-ascending.
        addrs: Vec<(u32, String)>,
        /// Whether the master had a trace session active as the mesh
        /// formed: a worker then records and reports its records.
        recording: bool,
    },
    /// A worker's shutdown report.
    Report(WorkerReport),
}

p2mdie_logic::wire_enum!(Frame, "frame kind" {
    0 => Envelope { from, poison, arrival, ..payload },
    1 => Hello { magic, version, rank, addr },
    2 => Roster { model, addrs, recording },
    3 => Report(report),
});

/// Encodes one frame, length prefix included.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    append_frame(&mut out, frame, &[]);
    out
}

/// Appends the length prefix, `frame`, and then `tail` as further body
/// bytes to `out`. An envelope's payload is the uncounted end of its frame,
/// so an envelope encoded with an empty payload plus the payload as `tail`
/// is the same frame, built without first copying the payload into a
/// [`Frame`].
fn append_frame(out: &mut Vec<u8>, frame: &Frame, tail: &[u8]) {
    let start = out.len();
    out.reserve(32 + tail.len()); // an envelope has 18 bytes before its payload
    out.extend_from_slice(&[0; 4]); // length patched below
    frame.encode(out);
    out.extend_from_slice(tail);
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Incremental frame decoder over an arbitrarily-fragmented byte stream.
///
/// Push chunks in arrival order; [`FrameReader::next_frame`] yields
/// `Ok(Some(frame))` for every complete frame, `Ok(None)` while a frame is
/// still incomplete (a truncated stream simply never completes — no
/// partial frame is surfaced), and `Err` the moment the stream is
/// unparseable (a bad length prefix or body). After an error the reader is
/// poisoned: the same error returns forever, because resynchronizing
/// inside a corrupt stream is not meaningful.
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
}

impl FrameReader {
    /// A fresh reader with an empty buffer.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Appends freshly-read stream bytes.
    pub fn push(&mut self, chunk: &[u8]) {
        if self.start == self.buf.len() && self.start > 0 {
            self.buf.clear();
            self.start = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Bytes buffered but not yet consumed by a decoded frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Tries to decode the next complete frame.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, DecodeError> {
        let mut rest = &self.buf[self.start..];
        let Ok(len) = u32::decode(&mut rest) else {
            return Ok(None); // the length prefix itself is still incomplete
        };
        if len == 0 || len > MAX_FRAME {
            return Err(DecodeError::new("frame length"));
        }
        let len = len as usize;
        if rest.len() < len {
            return Ok(None);
        }
        let frame = decode_exact(&rest[..len])?;
        self.start += 4 + len;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > (1 << 16) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Ok(Some(frame))
    }
}

// ---------------------------------------------------------------------------
// The TCP transport.
// ---------------------------------------------------------------------------

/// A frame whose encoding is longer than this is written through at once
/// instead of waiting for the rank's next receive: a KB snapshot or an
/// example subset gains nothing from sharing a write, and the link's buffer
/// would otherwise keep a copy of it.
const WRITE_THROUGH: usize = 64 * 1024;
/// Bound on the flush a dropped transport still attempts, so that a peer
/// which stopped reading cannot hold up this rank's teardown.
const DROP_FLUSH_TIMEOUT: Duration = Duration::from_secs(2);

/// One peer's link: the non-blocking socket, the decoder its bytes go into,
/// and the frames sent to it that wait for this rank's next receive.
struct Link {
    stream: TcpStream,
    reader: FrameReader,
    /// Encoded frames not yet on the wire; `written` of its bytes are.
    out: Vec<u8>,
    written: usize,
    /// How many frames `out` holds, to count as dropped should it fail.
    frames: usize,
    /// Whether the peer may still send: false once its stream ended, broke
    /// or carried bytes that do not parse.
    reading: bool,
    /// Whether writes still go through: false once one failed, and every
    /// later send to the peer is a dropped send.
    writable: bool,
}

impl Link {
    fn pending(&self) -> bool {
        self.writable && self.written < self.out.len()
    }
}

/// A full-mesh TCP transport for one rank: one duplex stream per peer, all
/// of them served by the rank's own thread. A send appends the frame to the
/// peer's buffer; the buffers go out, one write per peer, when the rank
/// next receives ([`Transport::flush`]); a receive waits in `poll(2)` on
/// every live socket and reads each into its link's [`FrameReader`]. Built
/// by [`MasterRendezvous::accept_workers`] (rank 0) or [`worker_connect`]
/// (ranks 1..=p).
pub struct TcpTransport {
    rank: usize,
    /// Index = peer rank; `None` for self.
    links: Vec<Option<Link>>,
    /// What the sockets delivered and no receive has taken yet, in arrival
    /// order.
    ready: VecDeque<TransportEvent>,
    /// The destination of every buffered frame whose write failed, for the
    /// next [`Transport::flush`] to report.
    dropped: Vec<usize>,
    reports: Vec<Option<WorkerReport>>,
    recording: bool,
    /// Read scratch, and the `poll` set with the peer of each entry; kept
    /// so a receive allocates nothing.
    chunk: Vec<u8>,
    fds: Vec<PollFd>,
    fd_peers: Vec<usize>,
}

impl TcpTransport {
    /// Assembles the transport from established, handshaken streams
    /// (index = peer rank; `None` for self). Any bytes a handshake read
    /// over-consumed are carried in the per-stream [`FrameReader`]s, and
    /// the frames they already complete are ready at once.
    fn assemble(
        rank: usize,
        peers: Vec<Option<(TcpStream, FrameReader)>>,
        recording: bool,
    ) -> io::Result<Self> {
        let size = peers.len();
        let mut links = Vec::with_capacity(size);
        for slot in peers {
            links.push(match slot {
                None => None,
                Some((stream, reader)) => {
                    stream.set_nodelay(true)?;
                    stream.set_nonblocking(true)?;
                    Some(Link {
                        stream,
                        reader,
                        out: Vec::new(),
                        written: 0,
                        frames: 0,
                        reading: true,
                        writable: true,
                    })
                }
            });
        }
        let mut transport = TcpTransport {
            rank,
            links,
            ready: VecDeque::new(),
            dropped: Vec::new(),
            reports: vec![None; size],
            recording,
            chunk: vec![0; 64 * 1024],
            fds: Vec::with_capacity(size),
            fd_peers: Vec::with_capacity(size),
        };
        for peer in 0..size {
            transport.decode(peer, false);
        }
        Ok(transport)
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total ranks in the mesh (self included).
    pub fn size(&self) -> usize {
        self.links.len()
    }

    /// Whether the master had a trace session active as the mesh formed
    /// (the roster's word on a worker). A worker process that sees `true`
    /// records, and sends its records in its shutdown report.
    pub fn master_records(&self) -> bool {
        self.recording
    }

    /// Appends bytes no statistic counts — a shutdown report, a test's raw
    /// bytes — to the link to `to` and writes them through, with everything
    /// buffered before them. Returns whether they reached the socket.
    fn write_through(&mut self, to: usize, bytes: &[u8]) -> bool {
        let Some(link) = self.links[to].as_mut().filter(|l| l.writable) else {
            return false;
        };
        link.out.extend_from_slice(bytes);
        self.flush_until(Some(to), None);
        self.links[to].as_ref().is_some_and(|l| l.writable)
    }

    /// Sends the shutdown report to the master (rank 0), after every frame
    /// still buffered. Bookkeeping, not protocol traffic: not metered, not
    /// counted in the statistics.
    pub fn send_report(&mut self, report: &WorkerReport) -> bool {
        self.flush_until(None, None);
        let bytes = encode_frame(&Frame::Report(report.clone()));
        self.write_through(0, &bytes)
    }

    /// Writes raw bytes to a peer, bypassing the frame codec. A failure-
    /// injection aid for tests (malformed-frame propagation); never used
    /// by the protocol itself.
    pub fn send_raw_bytes(&mut self, to: usize, bytes: &[u8]) -> bool {
        self.write_through(to, bytes)
    }

    /// Master-side: writes what is still buffered, then waits until every
    /// worker's shutdown [`WorkerReport`] arrived, the links died, or
    /// `timeout` elapsed. Returns the reports collected so far, indexed by
    /// rank.
    pub fn collect_reports(&mut self, timeout: Duration) -> &[Option<WorkerReport>] {
        self.collect_reports_except(timeout, &[])
    }

    /// [`TcpTransport::collect_reports`] excusing `dead` ranks: a worker
    /// that died mid-run (and was recovered around) will never report, so
    /// waiting the full timeout for it would turn every self-healed run
    /// into a timeout-length teardown.
    pub fn collect_reports_except(
        &mut self,
        timeout: Duration,
        dead: &[usize],
    ) -> &[Option<WorkerReport>] {
        let deadline = Instant::now() + timeout;
        self.flush_until(None, Some(deadline));
        while (1..self.reports.len()).any(|k| self.reports[k].is_none() && !dead.contains(&k)) {
            self.ready.clear(); // late envelopes and closures
            let now = Instant::now();
            if now >= deadline || !self.poll_round(None, Some(deadline - now)) {
                break; // timeout, or every link gone
            }
        }
        &self.reports
    }

    /// Writes the buffered frames of `only` (of every peer when `None`)
    /// until none is left, reading every readable socket meanwhile, so that
    /// two ranks writing to each other never block on each other. With a
    /// `deadline`, whatever is still buffered then stays so.
    fn flush_until(&mut self, only: Option<usize>, deadline: Option<Instant>) {
        loop {
            let mut left = false;
            for peer in 0..self.links.len() {
                if only.is_none_or(|o| o == peer) && !self.write_out(peer) {
                    left = true;
                }
            }
            if !left {
                return;
            }
            let timeout = match deadline {
                None => None,
                Some(d) => match d.checked_duration_since(Instant::now()) {
                    Some(t) if !t.is_zero() => Some(t),
                    _ => return,
                },
            };
            if !self.poll_round(only, timeout) {
                return;
            }
        }
    }

    /// One `poll(2)` round: waits up to `timeout` (`None`: without bound)
    /// until a reading link is readable or a link of `writes` (every link
    /// when `None`) with frames buffered is writable, then reads what is
    /// ready. Returns `false` when there was nothing to wait on.
    fn poll_round(&mut self, writes: Option<usize>, timeout: Option<Duration>) -> bool {
        self.fds.clear();
        self.fd_peers.clear();
        for (peer, link) in self.links.iter().enumerate() {
            let Some(link) = link else { continue };
            let mut events = 0;
            if link.reading {
                events |= POLLIN;
            }
            if link.pending() && writes.is_none_or(|w| w == peer) {
                events |= POLLOUT;
            }
            if events != 0 {
                self.fds.push(PollFd {
                    fd: link.stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
                self.fd_peers.push(peer);
            }
        }
        if self.fds.is_empty() {
            return false;
        }
        match crate::poll::wait(&mut self.fds, timeout) {
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return true,
            // The kernel refused the wait itself (out of memory): no socket
            // can be served any more, so every link counts as gone.
            Err(_) => {
                for peer in 0..self.links.len() {
                    self.fail_write(peer);
                    self.end_reading(peer, TransportEvent::Closed { peer: Some(peer) });
                }
                return false;
            }
        }
        for i in 0..self.fds.len() {
            if self.fds[i].revents & (POLLIN | POLLERR | POLLHUP) != 0 {
                self.read_in(self.fd_peers[i]);
            }
        }
        true
    }

    /// Writes as much of the peer's buffer as the socket takes without
    /// blocking. Returns whether nothing is left buffered.
    fn write_out(&mut self, peer: usize) -> bool {
        let Some(link) = self.links[peer].as_mut() else {
            return true;
        };
        while link.pending() {
            match link.stream.write(&link.out[link.written..]) {
                Ok(0) => break,
                Ok(n) => link.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        if link.pending() {
            self.fail_write(peer);
            return true;
        }
        link.out.clear();
        if link.out.capacity() > 2 * WRITE_THROUGH {
            link.out = Vec::new(); // a large frame's copy goes with it
        }
        link.written = 0;
        link.frames = 0;
        true
    }

    /// The link's writes failed: its buffered frames are dropped sends, and
    /// so is every later send to it.
    fn fail_write(&mut self, peer: usize) {
        let Some(link) = self.links[peer].as_mut().filter(|l| l.writable) else {
            return;
        };
        link.writable = false;
        self.dropped.extend(std::iter::repeat_n(peer, link.frames));
        link.out = Vec::new();
        link.written = 0;
        link.frames = 0;
    }

    /// Reads one chunk of what the peer's socket holds into its reader and
    /// decodes it. One chunk per `poll` round, not all there is: a bulk
    /// stream is then decoded about as fast as it is consumed, and few of
    /// its payloads are alive at once (reading a whole burst ahead, each
    /// payload freshly allocated and all freed together, halved the
    /// large-message rate of a loopback pair).
    fn read_in(&mut self, peer: usize) {
        let Some(link) = self.links[peer].as_mut().filter(|l| l.reading) else {
            return;
        };
        loop {
            match link.stream.read(&mut self.chunk) {
                Ok(0) => return self.decode(peer, true),
                Ok(n) => {
                    link.reader.push(&self.chunk[..n]);
                    return self.decode(peer, false);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return self.decode(peer, true),
            }
        }
    }

    /// Turns every complete frame in the peer's reader into a ready event
    /// (a shutdown report is kept aside); a frame that cannot be taken, or
    /// the stream's end once every frame before it was, ends the reading.
    fn decode(&mut self, peer: usize, ended: bool) {
        let Some(link) = self.links[peer].as_mut().filter(|l| l.reading) else {
            return;
        };
        let malformed = loop {
            match link.reader.next_frame() {
                Ok(None) => break None,
                Ok(Some(Frame::Envelope {
                    from,
                    poison,
                    arrival,
                    payload,
                })) => {
                    if from as usize != peer {
                        break Some("envelope source rank");
                    }
                    self.ready.push_back(TransportEvent::Envelope(Envelope {
                        from: peer,
                        arrival,
                        poison,
                        payload: Bytes::from(payload),
                    }));
                }
                Ok(Some(Frame::Report(report))) => self.reports[peer] = Some(report),
                Ok(Some(Frame::Hello { .. } | Frame::Roster { .. })) => {
                    break Some("handshake frame after handshake")
                }
                Err(e) => break Some(e.context),
            }
        };
        match malformed {
            Some(context) => self.end_reading(peer, TransportEvent::Malformed { peer, context }),
            None if ended => self.end_reading(peer, TransportEvent::Closed { peer: Some(peer) }),
            None => {}
        }
    }

    /// Stops reading the peer's link, with `why` as its last event.
    fn end_reading(&mut self, peer: usize, why: TransportEvent) {
        if let Some(link) = self.links[peer].as_mut().filter(|l| l.reading) {
            link.reading = false;
            self.ready.push_back(why);
        }
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, to: usize, env: Envelope) -> bool {
        let Some(link) = self.links[to].as_mut().filter(|l| l.writable) else {
            return false;
        };
        // The payload is copied exactly once, straight into the buffer,
        // instead of first into an owned `Frame`.
        let head = Frame::Envelope {
            from: env.from as u32,
            poison: env.poison,
            arrival: env.arrival,
            payload: Vec::new(),
        };
        let start = link.out.len();
        append_frame(&mut link.out, &head, env.payload.as_slice());
        link.frames += 1;
        if !env.poison && link.out.len() - start <= WRITE_THROUGH {
            return true;
        }
        // A poison marker must wake the peer now, and a large frame goes
        // out on its own (see `WRITE_THROUGH`); should the write fail, the
        // next flush reports the frame dropped.
        self.flush_until(Some(to), None);
        true
    }

    fn flush(&mut self) -> Vec<usize> {
        self.flush_until(None, None);
        std::mem::take(&mut self.dropped)
    }

    fn recv(&mut self) -> TransportEvent {
        self.flush_until(None, None);
        loop {
            if let Some(event) = self.ready.pop_front() {
                return event;
            }
            if !self.poll_round(None, None) {
                return TransportEvent::Closed { peer: None };
            }
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.flush_until(None, Some(Instant::now() + DROP_FLUSH_TIMEOUT));
        for link in self.links.iter().flatten() {
            let _ = link.stream.shutdown(Shutdown::Both);
        }
    }
}

// ---------------------------------------------------------------------------
// Rendezvous.
// ---------------------------------------------------------------------------

/// Reads exactly one frame from `stream`, blocking up to `deadline`.
/// Over-read bytes stay buffered in `reader` (they may already contain the
/// peer's next frames — the caller must carry the reader forward).
fn read_one_frame(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    deadline: Instant,
    what: &str,
) -> Result<Frame, NetError> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match reader.next_frame() {
            Ok(Some(f)) => return Ok(f),
            Ok(None) => {}
            Err(e) => return Err(NetError::new(format!("{what}: {e}"))),
        }
        let now = Instant::now();
        if now >= deadline {
            return Err(NetError::new(format!("{what}: handshake timed out")));
        }
        stream.set_read_timeout(Some(deadline - now))?;
        match stream.read(&mut chunk) {
            Ok(0) => return Err(NetError::new(format!("{what}: peer closed the connection"))),
            Ok(n) => reader.push(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Err(NetError::new(format!("{what}: handshake timed out")))
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// Accepts one connection, waiting up to `deadline`: the listener is
/// non-blocking, so a dead dialer cannot hang the handshake, and the wait
/// between attempts is a `poll(2)` on it that returns as a dialer arrives.
fn accept_one(
    listener: &TcpListener,
    deadline: Instant,
    what: &str,
) -> Result<TcpStream, NetError> {
    listener.set_nonblocking(true)?;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                return Ok(stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                let now = Instant::now();
                if now >= deadline {
                    return Err(NetError::new(format!("{what}: accept timed out")));
                }
                let mut fds = [PollFd {
                    fd: listener.as_raw_fd(),
                    events: POLLIN,
                    revents: 0,
                }];
                match crate::poll::wait(&mut fds, Some(deadline - now)) {
                    Err(e) if e.kind() != io::ErrorKind::Interrupted => return Err(e.into()),
                    _ => {}
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
}

fn check_hello(frame: Frame, workers: usize, what: &str) -> Result<(usize, String), NetError> {
    let Frame::Hello {
        magic,
        version,
        rank,
        addr,
    } = frame
    else {
        return Err(NetError::new(format!("{what}: expected a Hello frame")));
    };
    if magic != MAGIC {
        return Err(NetError::new(format!("{what}: bad handshake magic")));
    }
    if version != PROTOCOL_VERSION {
        return Err(NetError::new(format!(
            "{what}: protocol version {version} != {PROTOCOL_VERSION}"
        )));
    }
    let rank = rank as usize;
    if rank == 0 || rank > workers {
        return Err(NetError::new(format!("{what}: rank {rank} out of range")));
    }
    Ok((rank, addr))
}

/// The master side of the rendezvous: bind, then
/// [`accept_workers`](MasterRendezvous::accept_workers).
pub struct MasterRendezvous {
    listener: TcpListener,
}

impl MasterRendezvous {
    /// Binds the master listener (use port 0 for an ephemeral port).
    pub fn bind(addr: &str) -> Result<Self, NetError> {
        Ok(MasterRendezvous {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound address workers must dial.
    pub fn local_addr(&self) -> Result<SocketAddr, NetError> {
        Ok(self.listener.local_addr()?)
    }

    /// Runs the master's half of the handshake: accept `workers` hellos,
    /// send every worker the roster, assemble the transport (rank 0).
    /// Each accepted connection gets [`HANDSHAKE_TIMEOUT`] to complete its
    /// `Hello`; use [`MasterRendezvous::accept_workers_opts`] to tighten.
    pub fn accept_workers(
        self,
        workers: usize,
        model: CostModel,
        timeout: Duration,
    ) -> Result<TcpTransport, NetError> {
        self.accept_workers_opts(workers, model, timeout, HANDSHAKE_TIMEOUT)
    }

    /// [`MasterRendezvous::accept_workers`] with an explicit per-connection
    /// handshake bound: a peer that connects but never sends `Hello` fails
    /// the rendezvous after `handshake` (naming the peer's address) instead
    /// of consuming the whole global `timeout`.
    pub fn accept_workers_opts(
        self,
        workers: usize,
        model: CostModel,
        timeout: Duration,
        handshake: Duration,
    ) -> Result<TcpTransport, NetError> {
        let deadline = Instant::now() + timeout;
        let mut slots: Vec<Option<(TcpStream, FrameReader, String)>> = Vec::new();
        slots.resize_with(workers + 1, || None);
        for _ in 0..workers {
            // Waiting for a *connection* is bounded only globally (workers
            // may legitimately take a while to spawn); once connected, the
            // peer must say hello within the per-connection bound.
            let mut stream = accept_one(&self.listener, deadline, "master rendezvous")?;
            let peer = stream
                .peer_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "<unknown peer>".to_owned());
            let conn_deadline = deadline.min(Instant::now() + handshake);
            let what = format!("master rendezvous: peer {peer}");
            let mut reader = FrameReader::new();
            let hello = read_one_frame(&mut stream, &mut reader, conn_deadline, &what)?;
            let (rank, addr) = check_hello(hello, workers, &what)?;
            if slots[rank].is_some() {
                return Err(NetError::new(format!(
                    "master rendezvous: rank {rank} connected twice"
                )));
            }
            if addr.is_empty() {
                return Err(NetError::new(format!(
                    "master rendezvous: rank {rank} sent no listener address"
                )));
            }
            slots[rank] = Some((stream, reader, addr));
        }
        let addrs: Vec<(u32, String)> = slots
            .iter()
            .enumerate()
            .filter_map(|(r, s)| s.as_ref().map(|(_, _, a)| (r as u32, a.clone())))
            .collect();
        let recording = p2mdie_obs::trace::enabled();
        let roster = encode_frame(&Frame::Roster {
            model,
            addrs: addrs.clone(),
            recording,
        });
        let mut peers: Vec<Option<(TcpStream, FrameReader)>> = Vec::with_capacity(workers + 1);
        peers.push(None); // self (rank 0)
        for slot in slots.into_iter().skip(1) {
            // invariant: `workers` hellos, each of a rank in `1..=workers`
            // (`check_hello`) that had not connected before, fill every slot.
            let (mut stream, reader, _) = slot.expect("all ranks accounted for");
            stream.write_all(&roster)?;
            peers.push(Some((stream, reader)));
        }
        Ok(TcpTransport::assemble(0, peers, recording)?)
    }
}

/// The worker side of the rendezvous: dial the master, announce the rank,
/// receive the roster, complete the worker-to-worker mesh. Returns the
/// transport plus the [`CostModel`] the master dictated (the worker's
/// endpoint must meter with exactly the master's model, or virtual time
/// diverges).
pub fn worker_connect(
    master_addr: &str,
    rank: usize,
    timeout: Duration,
) -> Result<(TcpTransport, CostModel), NetError> {
    worker_connect_opts(master_addr, rank, timeout, HANDSHAKE_TIMEOUT)
}

/// [`worker_connect`] with an explicit per-connection handshake bound (see
/// [`MasterRendezvous::accept_workers_opts`]): mesh dials and accepted
/// peers' `Hello`s are each bounded by `handshake`, so one silent peer
/// fails this worker's rendezvous fast instead of stalling it until the
/// global `timeout`.
pub fn worker_connect_opts(
    master_addr: &str,
    rank: usize,
    timeout: Duration,
    handshake: Duration,
) -> Result<(TcpTransport, CostModel), NetError> {
    // invariant: the caller's own rank, not anything a peer sent.
    assert!(rank >= 1, "worker ranks start at 1");
    let deadline = Instant::now() + timeout;

    // Dial the master first: the local address of that stream names the
    // interface that reaches the cluster, so binding our own listener
    // there (instead of hard-coding loopback) advertises an address other
    // hosts' workers can actually dial.
    let master_sock = resolve(master_addr)?;
    let mut master = dial(master_sock, deadline, "worker rendezvous")?;
    let listener = TcpListener::bind((master.local_addr()?.ip(), 0))?;
    let my_addr = listener.local_addr()?.to_string();
    master.write_all(&encode_frame(&Frame::Hello {
        magic: MAGIC,
        version: PROTOCOL_VERSION,
        rank: rank as u32,
        addr: my_addr,
    }))?;
    let mut master_reader = FrameReader::new();
    // The roster only goes out once *every* rank said hello, so this wait
    // legitimately depends on the slowest sibling: bound it by the global
    // deadline, not the per-connection one.
    let roster = read_one_frame(
        &mut master,
        &mut master_reader,
        deadline,
        "worker rendezvous",
    )?;
    let Frame::Roster {
        model,
        addrs,
        recording,
    } = roster
    else {
        return Err(NetError::new("worker rendezvous: expected a Roster frame"));
    };
    let workers = addrs.len();
    if rank > workers {
        return Err(NetError::new(format!(
            "worker rendezvous: rank {rank} not in a {workers}-worker roster"
        )));
    }

    let mut peers: Vec<Option<(TcpStream, FrameReader)>> = Vec::new();
    peers.resize_with(workers + 1, || None);
    peers[0] = Some((master, master_reader));

    // Dial every lower-ranked worker; they accept and read our hello. A
    // rostered peer's listener is already bound (workers bind before their
    // hello), so each dial gets the per-connection bound, not the global.
    for (peer, addr) in &addrs {
        let peer = *peer as usize;
        if peer >= rank {
            continue;
        }
        let sock = resolve(addr)?;
        let conn_deadline = deadline.min(Instant::now() + handshake);
        let mut stream = dial(sock, conn_deadline, &format!("worker mesh: rank {peer}"))?;
        stream.write_all(&encode_frame(&Frame::Hello {
            magic: MAGIC,
            version: PROTOCOL_VERSION,
            rank: rank as u32,
            addr: String::new(),
        }))?;
        peers[peer] = Some((stream, FrameReader::new()));
    }

    // Accept every higher-ranked worker's dial; once connected, a peer
    // must complete its hello within the per-connection bound.
    for _ in rank + 1..=workers {
        let mut stream = accept_one(&listener, deadline, "worker mesh")?;
        let peer_addr = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown peer>".to_owned());
        let conn_deadline = deadline.min(Instant::now() + handshake);
        let what = format!("worker mesh: peer {peer_addr}");
        let mut reader = FrameReader::new();
        let hello = read_one_frame(&mut stream, &mut reader, conn_deadline, &what)?;
        let (peer, _) = check_hello(hello, workers, &what)?;
        if peer <= rank {
            return Err(NetError::new(format!(
                "worker mesh: unexpected dial from rank {peer}"
            )));
        }
        if peers[peer].is_some() {
            return Err(NetError::new(format!(
                "worker mesh: rank {peer} dialed twice"
            )));
        }
        peers[peer] = Some((stream, reader));
    }

    Ok((TcpTransport::assemble(rank, peers, recording)?, model))
}

fn resolve(addr: &str) -> Result<SocketAddr, NetError> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| NetError::new(format!("address `{addr}` did not resolve")))
}

/// First retry pause after a refused dial; doubles per attempt.
const DIAL_BACKOFF_BASE: Duration = Duration::from_millis(4);
/// Ceiling on the (pre-jitter) retry pause.
const DIAL_BACKOFF_CAP: Duration = Duration::from_millis(256);

/// The pause before retry number `attempt` (0-based): exponential from
/// [`DIAL_BACKOFF_BASE`] capped at [`DIAL_BACKOFF_CAP`], with uniform
/// jitter in `[½·pause, pause]` so a whole cohort of workers restarting at
/// once (exactly the recovery scenario) spreads its dials instead of
/// hammering the listener in lockstep.
fn dial_backoff(attempt: u32, rng: &mut rand::rngs::StdRng) -> Duration {
    use rand::Rng as _;
    let exp = DIAL_BACKOFF_BASE
        .saturating_mul(1u32 << attempt.min(16))
        .min(DIAL_BACKOFF_CAP);
    let micros = exp.as_micros() as u64;
    Duration::from_micros(rng.random_range(micros / 2..=micros))
}

/// Dials with jittered-exponential-backoff retries until `deadline` (the
/// peer's listener may not be up yet when processes race through startup,
/// and a recovering mesh redials en masse).
fn dial(addr: SocketAddr, deadline: Instant, what: &str) -> Result<TcpStream, NetError> {
    use rand::SeedableRng as _;
    // Deterministic but caller-distinct jitter: different ranks dial with
    // different `what` strings, so their schedules decorrelate.
    let mut seed = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
    for b in what.bytes().chain(addr.port().to_le_bytes()) {
        seed = (seed ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut attempt = 0u32;
    loop {
        let now = Instant::now();
        if now >= deadline {
            return Err(NetError::new(format!("{what}: dialing {addr} timed out")));
        }
        match TcpStream::connect_timeout(&addr, deadline - now) {
            Ok(s) => return Ok(s),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionRefused | io::ErrorKind::ConnectionReset
                ) =>
            {
                std::thread::sleep(dial_backoff(attempt, &mut rng).min(deadline - now));
                attempt += 1;
            }
            Err(e) => return Err(NetError::new(format!("{what}: dialing {addr}: {e}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// The multi-process runtime.
// ---------------------------------------------------------------------------

/// Bound on collecting one child's stderr during a failure diagnosis (see
/// [`ChildSet::diagnose`]).
const STDERR_COLLECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Tracks the spawned worker processes; kills whatever is still alive on
/// drop so a failed run never leaks children.
struct ChildSet {
    children: Vec<(usize, Child, Option<std::process::ExitStatus>)>,
}

impl ChildSet {
    fn new() -> Self {
        ChildSet {
            children: Vec::new(),
        }
    }

    fn push(&mut self, rank: usize, child: Child) {
        self.children.push((rank, child, None));
    }

    /// Polls until every child exited or `timeout` elapsed; stragglers are
    /// killed and reaped. A child reports before it exits, so the first
    /// polls come soon — 100 µs apart, doubling to 5 ms — and a reap does
    /// not wait out a fixed quantum after the last report.
    fn wait_all(&mut self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        let mut pause = Duration::from_micros(100);
        loop {
            let mut all_done = true;
            for (_, child, status) in self.children.iter_mut() {
                if status.is_none() {
                    match child.try_wait() {
                        Ok(Some(s)) => *status = Some(s),
                        _ => all_done = false,
                    }
                }
            }
            let now = Instant::now();
            if all_done || now >= deadline {
                break;
            }
            std::thread::sleep(pause.min(deadline - now));
            pause = (pause * 2).min(Duration::from_millis(5));
        }
        for (_, child, status) in self.children.iter_mut() {
            if status.is_none() {
                let _ = child.kill();
                if let Ok(s) = child.wait() {
                    *status = Some(s);
                }
            }
        }
    }

    /// Exit status + captured stderr for one rank (call after `wait_all`).
    ///
    /// Stderr is read on a helper thread bounded by
    /// [`STDERR_COLLECT_TIMEOUT`]: a wedged worker (or a grandchild it
    /// leaked) can hold the pipe's write end open indefinitely, and an
    /// unbounded `read_to_string` here would turn one stuck process into a
    /// stuck *teardown*. On timeout the reader thread is abandoned (it
    /// exits whenever the pipe finally closes) and the diagnosis says so.
    fn diagnose(&mut self, rank: usize, fallback: &str) -> String {
        for (r, child, status) in self.children.iter_mut() {
            if *r != rank {
                continue;
            }
            // What the worker binary's own exit codes mean; any other status
            // (a panic's 101, a signal) is quoted as it is.
            let story = status.and_then(|s| s.code()).and_then(|code| match code {
                IDLE_DISCONNECT_EXIT => {
                    Some("was disconnected while idle between jobs; not a mid-job failure")
                }
                BOOTSTRAP_FAILURE_EXIT => Some("was given no usable KB snapshot at bootstrap"),
                PROTOCOL_FAILURE_EXIT => {
                    Some("failed mid-run on a dead link or a frame it had to refuse")
                }
                POISONED_EXIT => Some("was woken by another rank's failure"),
                _ => None,
            });
            let mut msg = match (*status, story) {
                (Some(s), Some(story)) => format!("process {story} ({s})"),
                (Some(s), None) => format!("process exited with {s}"),
                (None, _) => fallback.to_owned(),
            };
            if let Some(mut err) = child.stderr.take() {
                let (tx, rx) = mpsc::channel();
                let spawned = std::thread::Builder::new()
                    .name(format!("p2mdie-stderr-r{rank}"))
                    .spawn(move || {
                        let mut text = String::new();
                        let _ = err.read_to_string(&mut text);
                        let _ = tx.send(text);
                    })
                    .is_ok();
                match if spawned {
                    rx.recv_timeout(STDERR_COLLECT_TIMEOUT).ok()
                } else {
                    None
                } {
                    Some(text) if !text.trim().is_empty() => {
                        msg.push_str("; stderr: ");
                        msg.push_str(text.trim());
                    }
                    Some(_) => {}
                    None => msg.push_str("; stderr: <collection timed out>"),
                }
            }
            return msg;
        }
        fallback.to_owned()
    }

    /// Whether `rank`'s process ended in a typed failure of its own — one of
    /// the two codes the worker binary keeps for that — and not in a panic,
    /// a signal or as another rank's victim (call after `wait_all`).
    fn failed_typed(&self, rank: usize) -> bool {
        self.children.iter().any(|(r, _, status)| {
            let code = status.and_then(|s| s.code());
            *r == rank && matches!(code, Some(BOOTSTRAP_FAILURE_EXIT | PROTOCOL_FAILURE_EXIT))
        })
    }

    /// The lowest-ranked child that exited abnormally, if any (call after
    /// `wait_all`). Ranks in `excused` — workers whose death the run
    /// already recovered from — do not count as failures.
    fn first_failure(&mut self, excused: &[usize]) -> Option<usize> {
        let mut failed: Vec<usize> = self
            .children
            .iter()
            .filter(|(r, _, s)| !excused.contains(r) && s.map(|s| !s.success()).unwrap_or(true))
            .map(|(r, _, _)| *r)
            .collect();
        failed.sort_unstable();
        failed.first().copied()
    }
}

impl Drop for ChildSet {
    fn drop(&mut self) {
        for (_, child, status) in self.children.iter_mut() {
            if status.is_none() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

/// Runs a master–worker cluster where every worker is a real OS process
/// connected over localhost TCP.
///
/// The caller provides `spawn`, which must launch the worker process for
/// a given rank, pointing it at the master's rendezvous address (the core
/// crate's `p2mdie-worker` binary is the standard worker; pipe its stderr
/// if you want it quoted in failure diagnoses). Everything else mirrors
/// [`crate::run_cluster`]: the master closure runs on the calling thread,
/// worker failures are returned as rank-tagged [`ClusterError`]s instead of
/// hangs (see the [module docs](self)), and the returned [`ClusterOutcome`]
/// carries whole-cluster statistics (worker processes report their clocks,
/// steps, and traffic rows in a shutdown frame).
///
/// A trace session the caller has active as the mesh forms records every
/// rank: the roster tells each worker process to record, and the records in
/// its shutdown report join the session ([`p2mdie_obs::trace::absorb`]).
/// This function never starts or finishes a session.
pub fn run_cluster_tcp<R>(
    workers: usize,
    model: CostModel,
    timeout: Duration,
    mut spawn: impl FnMut(usize, SocketAddr) -> io::Result<Child>,
    master: impl FnOnce(&mut Endpoint<TcpTransport>) -> Result<R, CommFailure>,
) -> Result<ClusterOutcome<R>, ClusterError> {
    // invariant: the caller's configuration, not anything a peer sent.
    assert!(workers >= 1, "need at least one worker");
    let net_err = |e: NetError| ClusterError::Net { message: e.message };

    let rendezvous = MasterRendezvous::bind("127.0.0.1:0").map_err(net_err)?;
    let addr = rendezvous.local_addr().map_err(net_err)?;

    let mut children = ChildSet::new();
    for rank in 1..=workers {
        match spawn(rank, addr) {
            Ok(child) => children.push(rank, child),
            Err(e) => {
                return Err(ClusterError::Net {
                    message: format!("spawning worker rank {rank}: {e}"),
                })
            }
        }
    }

    let transport = rendezvous
        .accept_workers(workers, model, timeout)
        .map_err(net_err)?;
    let size = workers + 1;
    let stats = TrafficStats::new(size);
    let mut ep = Endpoint::from_parts(0, size, transport, model, stats.clone());

    let result = match ep.poisoning_on_unwind(master) {
        Ok(r) => r,
        Err(failure) => {
            // Wake every worker that is still blocked, then diagnose.
            ep.broadcast_poison();
            drop(ep);
            children.wait_all(timeout);
            // Woken by a worker's poison marker: that worker is the error.
            if let Some(rank) = failure.poisoned_by() {
                let message = children.diagnose(rank, "poisoned the run");
                return Err(match children.failed_typed(rank) {
                    true => ClusterError::WorkerFailed { rank, message },
                    false => ClusterError::WorkerPanicked { rank, message },
                });
            }
            let message = match children.diagnose(failure.from, "") {
                detail if detail.is_empty() => failure.to_string(),
                detail => format!("{failure} [{detail}]"),
            };
            return Err(ClusterError::Comm {
                rank: failure.from,
                message,
            });
        }
    };

    // Gather the workers' shutdown reports and reap the processes. A rank
    // the master acknowledged as dead mid-run (worker-death recovery) is
    // excused: it will never report, its abnormal exit is the fault the
    // run already healed, and its traffic row is simply lost (its sends
    // were received and metered by the survivors' clocks regardless).
    let recovered_dead = ep.downed();
    ep.flush(); // the workers' idle `Stop`s, its write failures counted
    let reports = ep
        .transport_mut()
        .collect_reports_except(timeout, &recovered_dead)
        .to_vec();
    children.wait_all(timeout);
    let mut worker_vtimes = Vec::with_capacity(workers);
    let mut worker_steps = Vec::with_capacity(workers);
    for (rank, report) in reports.into_iter().enumerate().take(workers + 1).skip(1) {
        match report {
            Some(rep) if rep.sends.len() > size => {
                let message = "shutdown report: a traffic row wider than the cluster".to_owned();
                return Err(ClusterError::WorkerProcess { rank, message });
            }
            Some(rep) => {
                stats.absorb_row(rank, &rep.sends);
                stats.absorb_recovery(rep.recovery_bytes, rep.recovery_messages);
                worker_vtimes.push(rep.vtime);
                worker_steps.push(rep.steps);
                p2mdie_obs::trace::absorb(rep.records);
            }
            None if recovered_dead.contains(&rank) => {
                worker_vtimes.push(0.0);
                worker_steps.push(0);
            }
            None => {
                let message = children.diagnose(rank, "exited without a shutdown report");
                return Err(ClusterError::WorkerProcess { rank, message });
            }
        }
    }
    if let Some(rank) = children.first_failure(&recovered_dead) {
        let message = children.diagnose(rank, "did not exit");
        return Err(ClusterError::WorkerProcess { rank, message });
    }

    crate::runtime::warn_dropped_sends(stats.total_dropped(), ep.now());
    Ok(ClusterOutcome {
        result,
        master_vtime: ep.now(),
        worker_vtimes,
        master_steps: ep.compute_steps(),
        worker_steps,
        dropped_sends: stats.total_dropped(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_frame(from: u32, payload: &[u8]) -> Frame {
        Frame::Envelope {
            from,
            poison: false,
            arrival: 1.25,
            payload: payload.to_vec(),
        }
    }

    /// One named frame per kind (two envelopes: plain and poison). The
    /// round-trip, golden-layout, truncation and corruption tests all walk
    /// this list.
    fn frame_samples() -> Vec<(&'static str, Frame)> {
        vec![
            ("Envelope/plain", env_frame(3, b"hello")),
            (
                "Envelope/poison",
                Frame::Envelope {
                    from: 0,
                    poison: true,
                    arrival: 0.0,
                    payload: vec![],
                },
            ),
            (
                "Hello",
                Frame::Hello {
                    magic: MAGIC,
                    // The version the layout was recorded at: the line pins
                    // where the field lies, not today's number.
                    version: 8,
                    rank: 2,
                    addr: "127.0.0.1:9999".to_owned(),
                },
            ),
            (
                "Roster",
                Frame::Roster {
                    model: CostModel::beowulf_2005(),
                    addrs: vec![(1, "a:1".to_owned()), (2, "b:2".to_owned())],
                    recording: true,
                },
            ),
            (
                "Report",
                Frame::Report(WorkerReport {
                    vtime: 12.5,
                    steps: 99,
                    sends: vec![(1, 2, 0), (0, 0, 3)],
                    recovery_bytes: 77,
                    recovery_messages: 4,
                    records: vec![Event {
                        rank: 2,
                        seq: 0,
                        vt: 0.5,
                        wall_ns: 0,
                        phase: p2mdie_obs::Phase::Begin,
                        name: "stage".into(),
                        args: vec![("epoch".into(), p2mdie_obs::Value::U64(1))],
                    }],
                }),
            ),
        ]
    }

    #[test]
    fn frames_roundtrip() {
        let frames = frame_samples();
        let mut reader = FrameReader::new();
        for (_, f) in &frames {
            reader.push(&encode_frame(f));
        }
        for (_, f) in &frames {
            assert_eq!(reader.next_frame().unwrap().as_ref(), Some(f));
        }
        assert_eq!(reader.next_frame().unwrap(), None);
        assert_eq!(reader.buffered(), 0);
    }

    /// The byte layout of every frame kind is the one recorded in
    /// `tests/golden/wire_layout.txt`: name, length (prefix included), and
    /// the bytes in hex.
    #[test]
    fn frame_layout_matches_golden() {
        let lines: Vec<String> = frame_samples()
            .iter()
            .map(|(name, frame)| {
                let bytes = encode_frame(frame);
                let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
                format!("frame {name} {} {hex}", bytes.len())
            })
            .collect();
        let golden: Vec<&str> = include_str!("../../../tests/golden/wire_layout.txt")
            .lines()
            .filter(|l| l.starts_with("frame "))
            .collect();
        assert_eq!(lines, golden, "recorded:\n{}", lines.join("\n"));
    }

    /// Every strict prefix of a frame's stream stays pending; a cut *body*
    /// under a matching length prefix is refused (except inside an
    /// envelope's payload, which is uncounted); and every single-byte
    /// substitution — `0x00`, `0xFF`, the low bit flipped — yields a frame,
    /// pends or is refused without panicking.
    #[test]
    fn truncated_and_corrupted_frames_never_panic() {
        let read = |raw: &[u8]| {
            let mut reader = FrameReader::new();
            reader.push(raw);
            reader.next_frame()
        };
        for (name, frame) in frame_samples() {
            let bytes = encode_frame(&frame);
            for cut in 0..bytes.len() {
                assert_eq!(read(&bytes[..cut]), Ok(None), "{name}: cut at {cut}");
                if cut > 4 {
                    let mut raw = bytes[..cut].to_vec();
                    raw[..4].copy_from_slice(&((cut - 4) as u32).to_le_bytes());
                    let in_payload = matches!(frame, Frame::Envelope { .. }) && cut >= 4 + 14;
                    assert_eq!(read(&raw).is_err(), !in_payload, "{name}: body of {cut}");
                }
            }
            let mut raw = bytes.clone();
            for i in 0..raw.len() {
                let old = raw[i];
                for new in [0x00, 0xFF, old ^ 1] {
                    raw[i] = new;
                    let _ = read(&raw);
                }
                raw[i] = old;
            }
        }
    }

    #[test]
    fn byte_at_a_time_delivery_decodes_identically() {
        let frames = vec![env_frame(1, b"abc"), env_frame(2, &[0u8; 100])];
        let stream: Vec<u8> = frames.iter().flat_map(encode_frame).collect();
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        for b in stream {
            reader.push(&[b]);
            while let Some(f) = reader.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
    }

    #[test]
    fn truncated_stream_never_surfaces_a_partial_frame() {
        let bytes = encode_frame(&env_frame(1, b"payload"));
        for cut in 0..bytes.len() {
            let mut reader = FrameReader::new();
            reader.push(&bytes[..cut]);
            assert_eq!(
                reader.next_frame().unwrap(),
                None,
                "cut at {cut} must stay pending"
            );
        }
    }

    #[test]
    fn garbage_length_prefix_fails_cleanly() {
        let mut reader = FrameReader::new();
        reader.push(&0xFFFF_FFFFu32.to_le_bytes());
        let err = reader.next_frame().unwrap_err();
        assert_eq!(err.context, "frame length");
        // Poisoned: the error sticks.
        reader.push(b"more");
        assert!(reader.next_frame().is_err());
    }

    /// A peer built before the last protocol change is turned away at the
    /// handshake with an error naming both versions, before any payload it
    /// would mis-parse is sent.
    #[test]
    fn a_peer_of_the_previous_protocol_version_is_refused_at_the_handshake() {
        let hello = |version| Frame::Hello {
            magic: MAGIC,
            version,
            rank: 1,
            addr: "127.0.0.1:9".to_owned(),
        };
        assert_eq!(PROTOCOL_VERSION, 14, "a bump moves this test with it");
        let refused = check_hello(hello(13), 2, "worker hello").unwrap_err();
        assert!(
            refused.message.contains("protocol version 13 != 14"),
            "{}",
            refused.message
        );
        let (rank, _) = check_hello(hello(PROTOCOL_VERSION), 2, "worker hello").unwrap();
        assert_eq!(rank, 1);
    }

    #[test]
    fn bad_kind_and_trailing_bytes_are_rejected() {
        let mut raw = encode_frame(&env_frame(1, b"x"));
        raw[4] = 200; // kind byte
        let mut reader = FrameReader::new();
        reader.push(&raw);
        assert_eq!(reader.next_frame().unwrap_err().context, "frame kind");

        // A Hello whose body claims a longer string than the frame holds.
        let mut raw = encode_frame(&Frame::Hello {
            magic: MAGIC,
            version: PROTOCOL_VERSION,
            rank: 1,
            addr: "abcdef".to_owned(),
        });
        let last = raw.len() - 1;
        raw.truncate(last); // shorten body…
        let new_len = (raw.len() - 4) as u32;
        raw[..4].copy_from_slice(&new_len.to_le_bytes()); // …but fix the prefix
        let mut reader = FrameReader::new();
        reader.push(&raw);
        assert!(reader.next_frame().is_err());

        // A v9 `Report` (two more `u64` counters after the recovery pair)
        // and a v10 one (no records: four bytes short).
        let v11 = encode_frame(&Frame::Report(WorkerReport {
            vtime: 1.0,
            steps: 5,
            sends: vec![(1, 1, 0)],
            recovery_bytes: 0,
            recovery_messages: 0,
            records: vec![],
        }));
        let v10 = &v11[..v11.len() - 4];
        for mut raw in [[v10, &[0u8; 16]].concat(), v10.to_vec()] {
            let new_len = (raw.len() - 4) as u32;
            raw[..4].copy_from_slice(&new_len.to_le_bytes());
            let mut reader = FrameReader::new();
            reader.push(&raw);
            assert!(reader.next_frame().is_err());
        }
    }

    #[test]
    fn dial_backoff_is_exponential_capped_and_jittered() {
        use rand::rngs::StdRng;
        use rand::SeedableRng as _;

        let mut rng = StdRng::seed_from_u64(9);
        for attempt in 0..20 {
            let exp = DIAL_BACKOFF_BASE
                .saturating_mul(1u32 << attempt.min(16))
                .min(DIAL_BACKOFF_CAP);
            let d = dial_backoff(attempt, &mut rng);
            assert!(d <= exp, "attempt {attempt}: {d:?} above the envelope");
            assert!(d >= exp / 2, "attempt {attempt}: {d:?} below half jitter");
            assert!(d <= DIAL_BACKOFF_CAP);
        }
        // Deterministic: same seed, same schedule.
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        let sa: Vec<Duration> = (0..8).map(|i| dial_backoff(i, &mut a)).collect();
        let sb: Vec<Duration> = (0..8).map(|i| dial_backoff(i, &mut b)).collect();
        assert_eq!(sa, sb);
        // Jittered: a different seed gives a different schedule.
        let mut c = StdRng::seed_from_u64(4);
        let sc: Vec<Duration> = (0..8).map(|i| dial_backoff(i, &mut c)).collect();
        assert_ne!(sa, sc);
    }

    /// Each exit code the worker binary keeps for a way of ending — idle
    /// disconnect, bootstrap failure, typed mid-run failure, woken victim —
    /// gets its own sentence in the child-failure diagnosis; a panic's 101
    /// is reported as the bare status.
    #[test]
    fn idle_disconnect_exit_code_gets_a_friendly_diagnosis() {
        let spawn = |code: i32| {
            std::process::Command::new("sh")
                .args(["-c", &format!("exit {code}")])
                .stderr(std::process::Stdio::piped())
                .spawn()
                .expect("spawn sh")
        };
        let rows = [
            (IDLE_DISCONNECT_EXIT, "idle between jobs", false),
            (PANIC_EXIT, "exited with", false),
            (BOOTSTRAP_FAILURE_EXIT, "no usable KB snapshot", true),
            (PROTOCOL_FAILURE_EXIT, "a frame it had to refuse", true),
            (POISONED_EXIT, "another rank's failure", false),
        ];
        let mut children = ChildSet::new();
        for (i, (code, ..)) in rows.iter().enumerate() {
            children.push(i + 1, spawn(*code));
        }
        children.wait_all(Duration::from_secs(10));
        for (i, (code, says, typed)) in rows.iter().enumerate() {
            let text = children.diagnose(i + 1, "fallback");
            assert!(text.contains(says), "exit {code}: {text}");
            let others = rows.iter().filter(|(c, ..)| c != code);
            for (_, not_this, _) in others.filter(|(c, ..)| *c != PANIC_EXIT) {
                assert!(!text.contains(not_this), "exit {code}: {text}");
            }
            assert_eq!(children.failed_typed(i + 1), *typed, "exit {code}");
        }
        assert!(children
            .diagnose(1, "fallback")
            .contains("not a mid-job failure"));
        // All are still *failures* from the mesh's point of view: the
        // distinct code only changes the story, not the verdict.
        assert_eq!(children.first_failure(&[]), Some(1));
        assert_eq!(children.first_failure(&[1]), Some(2));
    }

    #[test]
    fn arrival_time_is_bit_exact() {
        let arrival = 1_234.567_890_123_456_7;
        let bytes = encode_frame(&Frame::Envelope {
            from: 1,
            poison: false,
            arrival,
            payload: vec![],
        });
        let mut reader = FrameReader::new();
        reader.push(&bytes);
        let Some(Frame::Envelope { arrival: got, .. }) = reader.next_frame().unwrap() else {
            panic!("expected envelope");
        };
        assert_eq!(got.to_bits(), arrival.to_bits());
    }
}
