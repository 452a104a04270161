//! Random, even example partitioning (paper Fig. 5, step 2).
//!
//! "At step 1, the master randomly and evenly partitions the examples into
//! `p` subsets." Positives and negatives are partitioned independently so
//! every worker sees a representative class mix; the shuffle is seeded, so
//! a run is reproducible end to end.

use p2mdie_ilp::examples::Examples;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The index assignment produced by [`partition_examples`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// For each worker, the indices of its positive examples in the
    /// original set.
    pub pos: Vec<Vec<usize>>,
    /// For each worker, the indices of its negative examples.
    pub neg: Vec<Vec<usize>>,
}

impl Partition {
    /// Deals `n_pos` positives and `n_neg` negatives to `p` workers,
    /// randomly and evenly: the assignment [`partition_examples`] builds its
    /// subsets from.
    pub fn deal(n_pos: usize, n_neg: usize, p: usize, seed: u64) -> Partition {
        // invariant: the caller's worker count, not anything a peer sent.
        assert!(p >= 1, "need at least one subset");
        let mut rng = StdRng::seed_from_u64(seed);
        let pos = deal(n_pos, p, &mut rng);
        let neg = deal(n_neg, p, &mut rng);
        Partition { pos, neg }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.pos.len()
    }
}

fn deal(n: usize, p: usize, rng: &mut StdRng) -> Vec<Vec<usize>> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    let mut out = vec![Vec::with_capacity(n / p + 1); p];
    for (i, e) in idx.into_iter().enumerate() {
        out[i % p].push(e);
    }
    out
}

/// Splits `examples` into `p` random, even subsets.
///
/// Returns the per-worker example sets plus the index assignment (useful
/// for tests and for mapping local coverage back to global indices).
pub fn partition_examples(examples: &Examples, p: usize, seed: u64) -> (Vec<Examples>, Partition) {
    let part = Partition::deal(examples.num_pos(), examples.num_neg(), p, seed);
    let subsets = (0..p)
        .map(|k| examples.subset(&part.pos[k], &part.neg[k]))
        .collect();
    (subsets, part)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2mdie_logic::clause::Literal;
    use p2mdie_logic::symbol::SymbolTable;
    use p2mdie_logic::term::Term;

    fn ex(n_pos: usize, n_neg: usize) -> Examples {
        let t = SymbolTable::new();
        let p = t.intern("p");
        Examples::new(
            (0..n_pos)
                .map(|i| Literal::new(p, vec![Term::Int(i as i64)]))
                .collect(),
            (0..n_neg)
                .map(|i| Literal::new(p, vec![Term::Int(1000 + i as i64)]))
                .collect(),
        )
    }

    #[test]
    fn partition_is_a_permutation() {
        let e = ex(23, 17);
        let (_, part) = partition_examples(&e, 4, 42);
        let mut all_pos: Vec<usize> = part.pos.iter().flatten().copied().collect();
        all_pos.sort_unstable();
        assert_eq!(all_pos, (0..23).collect::<Vec<_>>());
        let mut all_neg: Vec<usize> = part.neg.iter().flatten().copied().collect();
        all_neg.sort_unstable();
        assert_eq!(all_neg, (0..17).collect::<Vec<_>>());
    }

    #[test]
    fn subsets_are_even() {
        let e = ex(23, 17);
        let (subs, _) = partition_examples(&e, 4, 7);
        let pos_sizes: Vec<usize> = subs.iter().map(|s| s.num_pos()).collect();
        let neg_sizes: Vec<usize> = subs.iter().map(|s| s.num_neg()).collect();
        assert_eq!(pos_sizes.iter().sum::<usize>(), 23);
        assert_eq!(neg_sizes.iter().sum::<usize>(), 17);
        assert!(pos_sizes.iter().max().unwrap() - pos_sizes.iter().min().unwrap() <= 1);
        assert!(neg_sizes.iter().max().unwrap() - neg_sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn seeded_and_deterministic() {
        let e = ex(50, 50);
        let a = partition_examples(&e, 8, 1).1;
        let b = partition_examples(&e, 8, 1).1;
        let c = partition_examples(&e, 8, 2).1;
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should shuffle differently");
    }

    #[test]
    fn single_worker_gets_everything_shuffled() {
        let e = ex(10, 5);
        let (subs, _) = partition_examples(&e, 1, 3);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].num_pos(), 10);
        assert_eq!(subs[0].num_neg(), 5);
    }

    #[test]
    fn more_workers_than_examples_leaves_some_empty() {
        let e = ex(2, 1);
        let (subs, _) = partition_examples(&e, 4, 0);
        assert_eq!(subs.iter().map(|s| s.num_pos()).sum::<usize>(), 2);
        assert!(subs.iter().filter(|s| s.num_pos() == 0).count() >= 2);
    }
}
