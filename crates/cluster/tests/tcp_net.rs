//! Socket-level tests of the TCP transport: the rendezvous handshake, the
//! worker-to-worker mesh, virtual-time carriage in frames, poison
//! propagation across the "process" boundary (threads with real sockets
//! here; real processes are exercised in `crates/core/tests/`), and
//! dead-link surfacing.

use p2mdie_cluster::comm::{Endpoint, LinkFault};
use p2mdie_cluster::net::{worker_connect, MasterRendezvous, TcpTransport, WorkerReport};
use p2mdie_cluster::{CostModel, TrafficStats};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(20);

/// Spins up a real TCP mesh of `workers` worker threads plus the master on
/// the calling thread.
fn tcp_mesh<R: Send>(
    workers: usize,
    model: CostModel,
    master: impl FnOnce(&mut Endpoint<TcpTransport>) -> R + Send,
    worker: impl Fn(&mut Endpoint<TcpTransport>) + Send + Sync,
) -> R {
    let rendezvous = MasterRendezvous::bind("127.0.0.1:0").unwrap();
    let addr = rendezvous.local_addr().unwrap().to_string();
    std::thread::scope(|scope| {
        for rank in 1..=workers {
            let addr = addr.clone();
            let worker = &worker;
            scope.spawn(move || {
                let (transport, model) = worker_connect(&addr, rank, TIMEOUT).unwrap();
                let size = transport.size();
                let mut ep =
                    Endpoint::from_parts(rank, size, transport, model, TrafficStats::new(size));
                // A worker that panics wakes its peers, as the runtimes do.
                if catch_unwind(AssertUnwindSafe(|| worker(&mut ep))).is_err() {
                    ep.broadcast_poison();
                }
            });
        }
        let transport = rendezvous.accept_workers(workers, model, TIMEOUT).unwrap();
        let size = workers + 1;
        let mut ep = Endpoint::from_parts(0, size, transport, model, TrafficStats::new(size));
        master(&mut ep)
    })
}

/// Master ↔ workers and worker ↔ worker links all carry traffic, sources
/// are buffered per rank, and the Lamport clocks merge the same values the
/// in-process mesh would (latency model applied at the sender).
#[test]
fn rendezvous_builds_a_full_mesh_with_virtual_time() {
    let model = CostModel {
        latency: 0.25,
        ..CostModel::free()
    };
    let t_master = tcp_mesh(
        3,
        model,
        |ep| {
            for k in 1..=3 {
                ep.send(k, &(k as u64 * 100));
            }
            // Receive in reverse order to exercise the pending buffers.
            for k in (1..=3).rev() {
                let v: u64 = ep.recv_msg(k).unwrap();
                assert_eq!(v, k as u64 * 100 + k as u64);
            }
            ep.now()
        },
        |ep| {
            let me = ep.rank();
            let v: u64 = ep.recv_msg(0).unwrap();
            // Ring hop: pass it through the worker mesh before answering.
            let next = me % 3 + 1;
            let prev = if me == 1 { 3 } else { me - 1 };
            ep.send(next, &v);
            let w: u64 = ep.recv_msg(prev).unwrap();
            assert_eq!(w, prev as u64 * 100);
            ep.send(0, &(me as u64 * 100 + me as u64));
        },
    );
    // Master sent at t=0; answers needed ≥ 3 hops of 0.25s latency.
    assert!(t_master >= 0.75, "master clock {t_master} missed the hops");
}

/// A worker panic must poison every rank across the sockets: the master's
/// blocking receive returns `LinkFault::Poison { origin }` instead of
/// hanging.
#[test]
fn poison_propagates_across_sockets() {
    let caught = tcp_mesh(
        2,
        CostModel::free(),
        |ep| {
            // Block on the *failing* rank: its link carries the poison
            // frame before the stream close (per-link FIFO), so the master
            // is deterministically told it is poisoned. (Blocking on rank 1
            // instead would race poison-from-2 against closed-1 — rank 1
            // exits as soon as the poison reaches *it* — and sometimes
            // surface the benign-but-different `LinkFault::Closed`; rank 1
            // below still covers being woken while blocked on another
            // peer.)
            match ep.recv_from(2) {
                Err(e) => match e.fault {
                    LinkFault::Poison { origin } => origin,
                    other => panic!("master woken without poison: {other:?}"),
                },
                Ok(x) => panic!("expected poison, got {x:?}"),
            }
        },
        |ep| {
            if ep.rank() == 2 {
                panic!("injected worker failure");
            }
            // Rank 1 blocks on the master; poison from rank 2 must wake it
            // (or, racing it, the close of the master's link once the
            // master was woken and left).
            assert!(ep.recv_from(0).is_err());
        },
    );
    assert_eq!(caught, 2, "poison must name the failing rank");
}

/// A worker that exits without `Stop` or poison surfaces as a rank-tagged
/// `RecvError` with `LinkFault::Closed` at the master — not a hang.
#[test]
fn early_exit_surfaces_as_closed_link() {
    tcp_mesh(
        2,
        CostModel::free(),
        |ep| {
            // Rank 1 stays healthy and answers; rank 2 just leaves.
            let v: u32 = ep.recv_msg(1).unwrap();
            assert_eq!(v, 11);
            let err = ep.recv_from(2).unwrap_err();
            assert_eq!((err.rank, err.from, err.fault), (0, 2, LinkFault::Closed));
            // Rank 1's link is unaffected.
            ep.send(1, &1u32);
        },
        |ep| {
            if ep.rank() == 1 {
                ep.send(0, &11u32);
                let _: u32 = ep.recv_msg(0).unwrap();
            }
            // Rank 2 exits immediately: its streams close.
        },
    );
}

/// Garbage bytes on a link surface as `LinkFault::Malformed` naming the
/// offending peer, and the shutdown report still travels on healthy links.
#[test]
fn malformed_bytes_surface_as_malformed_link() {
    tcp_mesh(
        2,
        CostModel::free(),
        |ep| {
            let err = ep.recv_from(2).unwrap_err();
            assert_eq!((err.rank, err.from), (0, 2));
            assert!(
                matches!(err.fault, LinkFault::Malformed(_)),
                "got {:?}",
                err.fault
            );
            // Collect rank 1's report to prove healthy links survive.
            let _: u32 = ep.recv_msg(1).unwrap();
            ep.send(1, &0u8);
            let reports = ep.transport_mut().collect_reports(TIMEOUT).to_vec();
            assert!(reports[1].is_some(), "healthy rank 1 reported");
        },
        |ep| {
            if ep.rank() == 2 {
                // A length prefix far beyond MAX_FRAME.
                ep.transport_mut()
                    .send_raw_bytes(0, &0xFFFF_FFFFu32.to_le_bytes());
                return;
            }
            ep.send(0, &7u32);
            let _: u8 = ep.recv_msg(0).unwrap();
            let report = WorkerReport {
                vtime: ep.now(),
                steps: ep.compute_steps(),
                sends: ep.stats().send_row(ep.rank()),
                recovery_bytes: 0,
                recovery_messages: 0,
                records: Vec::new(),
            };
            assert!(ep.transport_mut().send_report(&report));
        },
    );
}

/// Worker reports carry the clocks, steps, and traffic rows the master
/// needs to reconstruct whole-cluster statistics.
#[test]
fn shutdown_reports_reach_the_master() {
    let model = CostModel {
        sec_per_step: 1.0,
        ..CostModel::free()
    };
    tcp_mesh(
        2,
        model,
        |ep| {
            for k in 1..=2 {
                let _: u64 = ep.recv_msg(k).unwrap();
            }
            ep.broadcast(&0u8);
            let reports = ep.transport_mut().collect_reports(TIMEOUT).to_vec();
            let stats = ep.stats().clone();
            for (k, slot) in reports.iter().enumerate().skip(1) {
                let rep = slot.as_ref().expect("report arrived");
                assert_eq!(rep.steps, k as u64 * 3);
                assert!(rep.vtime >= rep.steps as f64);
                stats.absorb_row(k, &rep.sends);
            }
            // Master broadcast (2 msgs) + one answer per worker = 4 total.
            assert_eq!(stats.total_messages(), 4);
            assert_eq!(stats.dropped_between(1, 0), 0);
        },
        |ep| {
            let me = ep.rank();
            ep.advance_steps(me as u64 * 3);
            ep.send(0, &(me as u64));
            let _: u8 = ep.recv_msg(0).unwrap();
            let report = WorkerReport {
                vtime: ep.now(),
                steps: ep.compute_steps(),
                sends: ep.stats().send_row(me),
                recovery_bytes: 0,
                recovery_messages: 0,
                records: Vec::new(),
            };
            assert!(ep.transport_mut().send_report(&report));
        },
    );
}

/// A peer that *connects* to the master but never sends its `Hello` must
/// fail the rendezvous after the per-connection handshake bound — naming
/// the silent peer — instead of stalling the mesh until the global
/// watchdog (the regression this guards: rendezvous reads used to be
/// bounded only by the run-level timeout, so one half-dead dialer consumed
/// the entire budget).
#[test]
fn stalled_peer_fails_master_rendezvous_fast() {
    use p2mdie_cluster::net::MasterRendezvous;
    use std::net::TcpStream;
    use std::time::Instant;

    let rendezvous = MasterRendezvous::bind("127.0.0.1:0").unwrap();
    let addr = rendezvous.local_addr().unwrap().to_string();
    // The fake peer: completes TCP, then goes silent (kept alive so the
    // stream never closes — closure would be the *other* failure path).
    let stalled = TcpStream::connect(&addr).expect("fake peer connects");
    let started = Instant::now();
    let err = match rendezvous.accept_workers_opts(
        1,
        CostModel::free(),
        TIMEOUT, // global watchdog: 20 s — must NOT be what bounds us
        Duration::from_millis(200),
    ) {
        Err(e) => e,
        Ok(_) => panic!("a silent peer must fail the handshake"),
    };
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "stalled peer held the rendezvous for {elapsed:?} (global-watchdog stall)"
    );
    assert!(
        err.message.contains("timed out"),
        "diagnosis must say the handshake timed out: {}",
        err.message
    );
    assert!(
        err.message.contains("peer 127.0.0.1"),
        "diagnosis must name the silent peer: {}",
        err.message
    );
    drop(stalled);
}

/// Same stall on the worker-to-worker mesh: a higher-ranked "worker" that
/// dials but never says hello must fail the accepting worker's rendezvous
/// within the per-connection bound, not the global timeout.
#[test]
fn stalled_peer_fails_worker_mesh_fast() {
    use p2mdie_cluster::net::{worker_connect_opts, MasterRendezvous};
    use std::net::TcpStream;
    use std::time::Instant;

    let rendezvous = MasterRendezvous::bind("127.0.0.1:0").unwrap();
    let addr = rendezvous.local_addr().unwrap().to_string();
    // Rank 1 of a 2-worker mesh: after the roster it accepts rank 2's
    // dial. The fake rank 2 below completes the master handshake honestly
    // (so the roster goes out) but then dials rank 1 and goes silent.
    let worker = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let started = Instant::now();
            let err = worker_connect_opts(&addr, 1, TIMEOUT, Duration::from_millis(200))
                .map(|_| ())
                .expect_err("a silent mesh peer must fail the handshake");
            (err, started.elapsed())
        }
    });
    let master = std::thread::spawn(move || {
        // Manual master half: accept both hellos, send the roster, then
        // keep the streams alive while rank 1 times out on rank 2.
        let t = rendezvous
            .accept_workers_opts(2, CostModel::free(), TIMEOUT, TIMEOUT)
            .map(|_| ());
        // Rank 1 fails its mesh accept and drops its master link; the
        // transport surfaces that as a closure, which is fine here.
        drop(t);
    });
    // Fake rank 2: real hello to the master, silence toward rank 1.
    let mut master_stream = TcpStream::connect(&addr).expect("fake rank 2 dials master");
    {
        use p2mdie_cluster::net::{encode_frame, Frame, FrameReader, MAGIC, PROTOCOL_VERSION};
        use std::io::{Read, Write};
        let my_listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        master_stream
            .write_all(&encode_frame(&Frame::Hello {
                magic: MAGIC,
                version: PROTOCOL_VERSION,
                rank: 2,
                addr: my_listener.local_addr().unwrap().to_string(),
            }))
            .unwrap();
        // Read the roster, find rank 1's address, dial it — then nothing.
        let mut reader = FrameReader::new();
        let mut chunk = [0u8; 4096];
        let rank1_addr = loop {
            if let Some(Frame::Roster { addrs, .. }) = reader.next_frame().unwrap() {
                break addrs
                    .iter()
                    .find(|(r, _)| *r == 1)
                    .map(|(_, a)| a.clone())
                    .expect("rank 1 in roster");
            }
            let n = master_stream.read(&mut chunk).unwrap();
            assert!(n > 0, "master closed before sending the roster");
            reader.push(&chunk[..n]);
        };
        let _silent = TcpStream::connect(&rank1_addr).expect("fake dial to rank 1");
        let (err, elapsed) = worker.join().expect("rank 1 thread");
        assert!(
            elapsed < Duration::from_secs(5),
            "stalled mesh peer held rank 1 for {elapsed:?}"
        );
        assert!(
            err.message.contains("timed out") && err.message.contains("peer 127.0.0.1"),
            "diagnosis must name the silent mesh peer: {}",
            err.message
        );
    }
    drop(master_stream);
    master.join().expect("master thread");
}

/// Runs `f` on a thread of its own; a hang fails the test after `bound`
/// instead of stalling the suite (the thread is left behind).
fn within<R: Send + 'static>(bound: Duration, f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    let r = rx
        .recv_timeout(bound)
        .unwrap_or_else(|_| panic!("no result within {bound:?} (deadlock?)"));
    handle.join().expect("the bounded thread finished");
    r
}

/// A send is held until the sender's next receive, and that includes a
/// receive its own buffers serve without asking the transport: the frame
/// must not wait while the sender then does something else for a while.
#[test]
fn a_frame_leaves_at_a_receive_served_from_the_pending_queue() {
    use std::sync::{mpsc, Mutex};
    use std::time::Instant;
    // Rank 2 speaks only once rank 1's word is on the wire.
    let (said, heard) = mpsc::channel();
    let heard = Mutex::new(heard);
    tcp_mesh(
        2,
        CostModel::free(),
        |ep| {
            // Rank 1's word is buffered while the master waits on rank 2.
            let _: u8 = ep.recv_msg(2).unwrap();
            ep.send(1, &7u32);
            let _: u8 = ep.recv_msg(1).unwrap(); // served from the queue
            std::thread::sleep(Duration::from_secs(2));
            let waited: u64 = ep.recv_msg(1).unwrap();
            assert!(waited < 1000, "the frame was held for {waited} ms");
        },
        |ep| match ep.rank() {
            1 => {
                ep.send(0, &1u8);
                ep.flush();
                said.send(()).expect("rank 2 listens");
                let waiting = Instant::now();
                let got: u32 = ep.recv_msg(0).unwrap();
                assert_eq!(got, 7);
                ep.send(0, &(waiting.elapsed().as_millis() as u64));
                ep.flush();
            }
            _ => {
                heard
                    .lock()
                    .expect("one listener")
                    .recv()
                    .expect("rank 1 spoke");
                ep.send(0, &2u8);
                ep.flush();
            }
        },
    );
}

/// Two ranks that each send the other more than any socket buffer holds
/// before either receives both complete: a rank blocked writing still
/// reads what its peer writes.
#[test]
fn two_ranks_sending_each_other_16_mib_before_receiving_both_complete() {
    let big = vec![0x5au8; 16 << 20];
    within(Duration::from_secs(60), move || {
        let answer = big.clone();
        tcp_mesh(
            1,
            CostModel::free(),
            move |ep| {
                ep.send(1, &big);
                let got: Vec<u8> = ep.recv_msg(1).unwrap();
                assert_eq!(got, big);
                let intact: bool = ep.recv_msg(1).unwrap();
                assert!(intact, "rank 1 received another envelope");
            },
            move |ep| {
                ep.send(0, &answer);
                let got: Vec<u8> = ep.recv_msg(0).unwrap();
                ep.send(0, &(got == answer));
                ep.flush();
            },
        )
    });
}

/// A peer that closed its end is named by the next receive as a closed
/// link, on a pair as on a larger mesh.
#[test]
fn a_closed_peer_is_named_by_the_next_receive() {
    within(Duration::from_secs(30), || {
        tcp_mesh(
            1,
            CostModel::free(),
            |ep| {
                let err = ep.recv_from(1).unwrap_err();
                assert_eq!((err.rank, err.from, err.fault), (0, 1, LinkFault::Closed));
            },
            |_| {}, // rank 1 leaves at once
        )
    });
}

/// A send held in the buffer is not counted as dropped when it is made,
/// but once, at the flush whose write fails; a send to a link already
/// known broken is dropped at once.
#[test]
fn a_held_frame_whose_write_fails_is_counted_dropped_once() {
    within(Duration::from_secs(30), || {
        tcp_mesh(
            1,
            CostModel::free(),
            |ep| {
                let dropped = |ep: &Endpoint<TcpTransport>| ep.stats().dropped_between(0, 1);
                assert!(ep.recv_from(1).is_err(), "rank 1 left");
                // The first write to a closed peer still succeeds; the
                // peer's reset answers it.
                ep.send(1, &1u8);
                ep.flush();
                std::thread::sleep(Duration::from_millis(200));
                ep.send(1, &2u8);
                assert_eq!(dropped(ep), 0, "held, not yet written");
                ep.flush();
                assert_eq!(dropped(ep), 1, "its write failed at the flush");
                ep.send(1, &3u8);
                assert_eq!(dropped(ep), 2, "the link is known broken");
                ep.flush();
                assert_eq!(dropped(ep), 2, "each frame counted once");
            },
            |_| {},
        )
    });
}
