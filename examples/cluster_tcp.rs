//! Real multi-process cluster run: the same p²-mdie induction, once as the
//! in-process simulation and once as master + real `p2mdie-worker` OS
//! processes over a localhost TCP mesh — and a proof that the two agree
//! bit for bit.
//!
//! ```sh
//! cargo build -p p2mdie-core --bin p2mdie-worker
//! cargo run --release --example cluster_tcp                # in-process only
//! cargo run --release --example cluster_tcp -- --transport tcp
//! ```

use p2mdie::core::driver::{run_parallel, ParallelConfig, TransportKind};
use p2mdie::core::remote::TcpConfig;
use p2mdie::ilp::settings::Width;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tcp = match args.as_slice() {
        [] => false,
        [flag, value] if flag == "--transport" && value == "tcp" => true,
        [flag, value] if flag == "--transport" && value == "inproc" => false,
        _ => {
            eprintln!("usage: cluster_tcp [--transport tcp|inproc]");
            std::process::exit(1);
        }
    };

    let ds = p2mdie::datasets::trains(20, 5);
    let workers = 2;
    // A TCP run always ships the compiled KB (worker processes inherit no
    // memory); enable it in-process too so the two runs are like for like.
    let cfg = ParallelConfig::new(workers, Width::Limit(10), 5).with_kb_shipping();

    println!(
        "dataset: {} ({} pos / {} neg), p = {workers}, model = Beowulf-2005\n",
        ds.name,
        ds.examples.num_pos(),
        ds.examples.num_neg()
    );

    let inproc = run_parallel(&ds.engine, &ds.examples, &cfg).expect("in-process run");
    println!(
        "in-process threads:   {} rules, {} epochs, T(p) = {:.1} virtual s, {:.3} MB",
        inproc.theory.len(),
        inproc.epochs,
        inproc.vtime,
        inproc.megabytes()
    );

    if !tcp {
        println!("\n(pass `--transport tcp` to repeat this run with real worker processes)");
        return;
    }

    let tcp_cfg = match p2mdie::core::remote::default_worker_bin() {
        Some(bin) => TcpConfig::with_worker_bin(bin),
        None => {
            eprintln!(
                "cannot find the p2mdie-worker binary — build it first:\n  \
                 cargo build -p p2mdie-core --bin p2mdie-worker\n\
                 (or set P2MDIE_WORKER_BIN)"
            );
            std::process::exit(1);
        }
    };
    let cfg_tcp = cfg.clone().with_transport(TransportKind::Tcp(tcp_cfg));
    let remote = run_parallel(&ds.engine, &ds.examples, &cfg_tcp).expect("TCP run");
    println!(
        "real OS processes:    {} rules, {} epochs, T(p) = {:.1} virtual s, {:.3} MB, \
         dropped sends: {}",
        remote.theory.len(),
        remote.epochs,
        remote.vtime,
        remote.megabytes(),
        remote.dropped_sends
    );

    assert_eq!(
        inproc.theory, remote.theory,
        "multi-process induction must be bit-identical"
    );
    assert_eq!(inproc.worker_steps, remote.worker_steps);
    println!(
        "\nidentical theory, coverage counts, and per-rank inference steps — \
         {} workers ran as real processes over {} virtual-time-carrying TCP frames.",
        workers,
        remote.total_messages + remote.control_messages
    );

    println!("\ninduced theory:");
    for rule in &remote.theory {
        println!(
            "  [epoch {}, origin w{}] ({}+/{}-)  {}",
            rule.epoch,
            rule.origin,
            rule.pos,
            rule.neg,
            rule.clause.display(&ds.syms)
        );
    }
}
