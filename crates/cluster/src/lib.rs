//! Message-passing cluster substrate with a LogP-style virtual-time model.
//!
//! Plays the role LAM/MPI + the 8-CPU Beowulf cluster played in Fonseca et
//! al. (CLUSTER 2005). Ranks carry deterministic virtual clocks so that
//! execution time, speedup, and communication volume can be *measured*
//! (the substitution is stated in [`vtime`]) — and the transport underneath
//! is pluggable: ranks can be OS threads joined by channels (the default
//! simulator) or real OS processes joined by a TCP mesh.
//!
//! * [`codec`] — `to_bytes` / `from_bytes` over the byte-accurate wire
//!   codec of [`p2mdie_logic::wire`] (Table 4's MBytes);
//! * [`vtime`] — the cost model (`t_step`, latency, bandwidth) and clocks;
//! * [`stats`] — per-link traffic counters (dropped sends included);
//! * [`comm`] — the paper's §2.2 primitives: non-blocking `send` and
//!   `broadcast`, blocking `recv_from`, on a generic [`Endpoint`];
//! * [`transport`] — the [`Transport`] seam, the in-process
//!   [`MeshTransport`], and the fault-injecting [`ChaosTransport`];
//! * [`net`] — the socket-backed [`TcpTransport`]: length-prefixed frames,
//!   the rendezvous handshake, and the multi-process runtime
//!   [`run_cluster_tcp`];
//! * [`runtime`] — the in-process runtime
//!   `run_cluster(p, model, master, worker)`. Both closures return
//!   `Result<_, CommFailure>`: a rank that cannot go on returns its failure,
//!   and the run reports the rank at the root as a [`ClusterError`].
//!
//! ```
//! use p2mdie_cluster::{run_cluster, CostModel};
//!
//! let out = run_cluster(
//!     2,
//!     CostModel::free(),
//!     |ep| {
//!         ep.broadcast(&21u64);
//!         let mut sum = 0;
//!         for w in 1..=2 {
//!             sum += ep.recv_msg::<u64>(w).map_err(|e| ep.failure(w, "a product", e))?;
//!         }
//!         Ok(sum)
//!     },
//!     |ep| {
//!         let x: u64 = ep.recv_msg(0).map_err(|e| ep.failure(0, "a factor", e))?;
//!         ep.send(0, &(x * ep.rank() as u64));
//!         Ok(())
//!     },
//! )
//! .unwrap();
//! assert_eq!(out.result, 21 + 42);
//! ```

pub mod codec;
pub mod comm;
pub mod net;
#[cfg(unix)]
mod poll;
pub mod runtime;
pub mod stats;
pub mod transport;
pub mod vtime;

#[cfg(not(unix))]
compile_error!("the TCP transport waits on its sockets with unix `poll(2)`");

pub use codec::{from_bytes, to_bytes, DecodeError, Wire};
pub use comm::{CommError, CommFailure, Endpoint, Envelope, LinkFault, RecvError};
pub use net::{
    run_cluster_tcp, worker_connect, Frame, FrameReader, MasterRendezvous, NetError, TcpTransport,
    WorkerReport,
};
pub use runtime::{panic_message, run_cluster, run_cluster_with, ClusterError, ClusterOutcome};
pub use stats::TrafficStats;
pub use transport::{
    maybe_chaos, ChaosConfig, ChaosTransport, DownHandle, MeshItem, MeshTransport, Transport,
    TransportEvent,
};
pub use vtime::{CostModel, VirtualClock};
