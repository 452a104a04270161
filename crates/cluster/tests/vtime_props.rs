//! Properties of the virtual-time substrate under random message
//! schedules: clocks never go backwards, byte accounting is exact, and
//! runs are deterministic.

use p2mdie_cluster::{run_cluster, CostModel};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A random fan-out/fan-in schedule: the master sends each worker a
    /// random number of payloads, workers echo them back with random
    /// compute. Clocks must be monotone and bytes must match exactly.
    #[test]
    fn random_schedules_behave(
        sizes in proptest::collection::vec(1usize..200, 1..4),
        steps in proptest::collection::vec(0u64..500, 1..4),
    ) {
        let p = sizes.len();
        let model = CostModel::beowulf_2005();
        let expected_bytes: u64 = sizes.iter().map(|s| (*s as u64 + 4) * 2).sum();
        let out = run_cluster(
            p,
            model,
            |ep| {
                let mut t_prev = 0.0;
                for (k, s) in sizes.iter().enumerate() {
                    ep.send(k + 1, &vec![0u8; *s]);
                    assert!(ep.now() >= t_prev, "master clock went backwards");
                    t_prev = ep.now();
                }
                for k in 1..=sizes.len() {
                    let _: Vec<u8> = ep.recv_msg(k).unwrap();
                    assert!(ep.now() >= t_prev, "master clock went backwards");
                    t_prev = ep.now();
                }
                Ok(ep.now())
            },
            |ep| {
                let r = ep.rank();
                let data: Vec<u8> = ep.recv_msg(0).unwrap();
                ep.advance_steps(steps[(r - 1) % steps.len()]);
                ep.send(0, &data);
                Ok(())
            },
        )
        .unwrap();
        prop_assert_eq!(out.stats.total_bytes(), expected_bytes);
        prop_assert_eq!(out.stats.total_messages(), 2 * p as u64);
        // Master's makespan dominates every worker's compute time.
        for (i, st) in out.worker_steps.iter().enumerate() {
            prop_assert_eq!(*st, steps[i % steps.len()]);
        }
        // Determinism: run the identical schedule again.
        let again = run_cluster(
            p,
            model,
            |ep| {
                for (k, s) in sizes.iter().enumerate() {
                    ep.send(k + 1, &vec![0u8; *s]);
                }
                for k in 1..=sizes.len() {
                    let _: Vec<u8> = ep.recv_msg(k).unwrap();
                }
                Ok(ep.now())
            },
            |ep| {
                let r = ep.rank();
                let data: Vec<u8> = ep.recv_msg(0).unwrap();
                ep.advance_steps(steps[(r - 1) % steps.len()]);
                ep.send(0, &data);
                Ok(())
            },
        )
        .unwrap();
        prop_assert!((out.result - again.result).abs() < 1e-12);
    }
}
