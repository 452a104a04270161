//! Microbenchmarks of the cluster substrate: codec throughput and a full
//! master-worker round trip (including the virtual-time bookkeeping).

use criterion::{criterion_group, criterion_main, Criterion};
use p2mdie_cluster::codec::{from_bytes, to_bytes};
use p2mdie_cluster::{run_cluster, CostModel};
use p2mdie_core::protocol::Msg;
use p2mdie_datasets::carcinogenesis;
use std::hint::black_box;

fn bench_codec(c: &mut Criterion) {
    // A realistic MarkCovered message with a 3-literal clause.
    let d = carcinogenesis(0.1, 7);
    let bottom = d.engine.saturate(&d.examples.pos[0]).expect("saturates");
    let shape =
        p2mdie_ilp::refine::RuleShape::from_indices((0..bottom.body_len().min(3) as u32).collect());
    let msg = Msg::MarkCovered {
        rule: shape.to_clause(&bottom),
    };
    let encoded = to_bytes(&msg);
    c.bench_function("codec/encode_mark_covered", |bench| {
        bench.iter(|| black_box(to_bytes(black_box(&msg))))
    });
    c.bench_function("codec/decode_mark_covered", |bench| {
        bench.iter(|| black_box(from_bytes::<Msg>(black_box(encoded.clone())).unwrap()))
    });
}

fn bench_roundtrip(c: &mut Criterion) {
    let mut g = c.benchmark_group("cluster");
    g.sample_size(10);
    g.bench_function("spawn_and_pingpong_4_workers", |bench| {
        bench.iter(|| {
            let out = run_cluster(
                4,
                CostModel::beowulf_2005(),
                |ep| {
                    ep.broadcast(&1u64);
                    Ok((1..=4).map(|w| ep.recv_msg::<u64>(w).unwrap()).sum::<u64>())
                },
                |ep| {
                    let x: u64 = ep.recv_msg(0).unwrap();
                    ep.send(0, &(x + ep.rank() as u64));
                    Ok(())
                },
            )
            .unwrap();
            black_box(out.result)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_codec, bench_roundtrip);
criterion_main!(benches);
