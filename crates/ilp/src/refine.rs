//! Downward refinement over the bottom clause.
//!
//! Following Progol/April, the search space for one seed example is the set
//! of clauses whose body is a subset of ⊥e's body (ordered by index). A
//! [`RuleShape`] is such a subset; refinement appends a bottom literal with
//! a *strictly larger index* whose input variables are all bound by the head
//! or by already-selected literals. Because saturation emits producers
//! before consumers (see `bottom.rs`), increasing-index enumeration reaches
//! every dataflow-closed subset exactly once — the lattice is explored
//! without duplicates. The search's frontier relies on this: it keeps no
//! set of visited shapes, and skips a built successor only when it is one
//! of the search's seeds (`crate::search`), the one way a shape can be
//! reached twice; `tests/node_compile.rs` walks the real datasets' lattices
//! and fails if a successor repeats.

use crate::bottom::BottomClause;
use p2mdie_logic::clause::Clause;
use p2mdie_logic::term::VarId;

/// A candidate rule: indices (ascending) into the bottom clause's body.
#[derive(
    Clone,
    Debug,
    Default,
    PartialEq,
    Eq,
    Hash,
    PartialOrd,
    Ord,
    serde::Serialize,
    serde::Deserialize,
)]
pub struct RuleShape {
    /// Selected bottom-literal indices, strictly ascending.
    pub lits: Vec<u32>,
}
p2mdie_logic::wire_struct!(RuleShape { lits });

impl RuleShape {
    /// The most general rule: head with an empty body.
    pub fn empty() -> Self {
        RuleShape::default()
    }

    /// Builds a shape from indices (must be strictly ascending).
    pub fn from_indices(lits: Vec<u32>) -> Self {
        debug_assert!(lits.windows(2).all(|w| w[0] < w[1]), "indices must ascend");
        RuleShape { lits }
    }

    /// Number of body literals.
    pub fn body_len(&self) -> usize {
        self.lits.len()
    }

    /// Materializes the shape against its bottom clause.
    pub fn to_clause(&self, bottom: &BottomClause) -> Clause {
        Clause::new(
            bottom.head.clone(),
            self.lits
                .iter()
                .map(|&i| bottom.lits[i as usize].lit.clone())
                .collect(),
        )
    }

    /// The variables bound once this shape's literals are in the clause —
    /// head variables plus every variable of every selected literal — into
    /// `bound`, in the memory it holds.
    pub(crate) fn bound_vars_into(&self, bottom: &BottomClause, bound: &mut Vec<VarId>) {
        bound.clear();
        bound.extend_from_slice(&bottom.head_vars);
        for &i in &self.lits {
            let bl = &bottom.lits[i as usize];
            for &v in bl.inputs.iter().chain(bl.outputs.iter()) {
                if !bound.contains(&v) {
                    bound.push(v);
                }
            }
        }
    }

    /// Where this shape's successors start: one past its last literal.
    pub(crate) fn append_from(&self) -> usize {
        self.lits.last().map_or(0, |&i| i as usize + 1)
    }
}

/// The lattice's one admissibility rule: the first literal of ⊥e at index
/// `from` or later that a shape of `body_len` literals binding `bound` (its
/// [`RuleShape::bound_vars_into`]) may append — one whose input variables are
/// all bound — and none once the shape has `max_body` literals. Asked from
/// [`RuleShape::append_from`], then from one past each answer, it lists the
/// shape's successors in index order, which the search's frontier builds
/// one at a time.
pub(crate) fn next_appendable(
    bottom: &BottomClause,
    bound: &[VarId],
    body_len: usize,
    max_body: usize,
    from: usize,
) -> Option<usize> {
    if body_len >= max_body {
        return None;
    }
    (from..bottom.lits.len()).find(|&j| bottom.lits[j].inputs.iter().all(|v| bound.contains(v)))
}

/// SplitMix64 — the small deterministic mixer used for lattice partitioning
/// (no external RNG dependency).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A disjoint slice of the refinement lattice for hypothesis-parallel
/// search (the "data-parallel Aleph" strategy: same examples everywhere,
/// different parts of the search space per rank).
///
/// Because refinement only ever appends a strictly larger index, every
/// non-empty shape keeps the first literal it was born with —
/// the lattice is a forest of complete subtrees rooted at the one-literal
/// shapes. Partitioning by a salted hash of that *first* literal therefore
/// yields disjoint, collectively exhaustive subtrees: no shape is reachable
/// from two slices, and every shape is reachable from exactly one. The
/// empty shape (the shared root) is admitted by every slice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatticeSlice {
    /// This slice's index in `0..of`.
    pub rank: u64,
    /// Total number of slices.
    pub of: u64,
    /// Shared salt (derived from the job seed) so reruns and resubmissions
    /// repartition identically.
    pub salt: u64,
}

impl LatticeSlice {
    /// True when `shape` belongs to this slice of the lattice.
    pub fn admits(&self, shape: &RuleShape) -> bool {
        if self.of <= 1 {
            return true;
        }
        match shape.lits.first() {
            // The shared root: every slice starts its search there.
            None => true,
            Some(&first) => splitmix64(u64::from(first) ^ self.salt) % self.of == self.rank,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bottom::BottomLiteral;
    use p2mdie_logic::clause::Literal;
    use p2mdie_logic::symbol::SymbolTable;
    use p2mdie_logic::term::Term;

    /// Hand-built bottom clause:
    ///   head  p(V0)
    ///   0: q(V0, V1)   inputs [0], outputs [1]
    ///   1: r(V1)       inputs [1], outputs []
    ///   2: s(V0)       inputs [0], outputs []
    fn bottom() -> (SymbolTable, BottomClause) {
        let t = SymbolTable::new();
        let lit = |n: &str, args: Vec<Term>| Literal::new(t.intern(n), args);
        let b = BottomClause {
            head: lit("p", vec![Term::Var(0)]),
            head_vars: vec![0],
            lits: vec![
                BottomLiteral {
                    lit: lit("q", vec![Term::Var(0), Term::Var(1)]),
                    inputs: vec![0],
                    outputs: vec![1],
                    depth: 1,
                },
                BottomLiteral {
                    lit: lit("r", vec![Term::Var(1)]),
                    inputs: vec![1],
                    outputs: vec![],
                    depth: 2,
                },
                BottomLiteral {
                    lit: lit("s", vec![Term::Var(0)]),
                    inputs: vec![0],
                    outputs: vec![],
                    depth: 1,
                },
            ],
            num_vars: 2,
            example: lit("p", vec![Term::Sym(t.intern("a"))]),
            steps: 0,
        };
        (t, b)
    }

    /// A shape's successors, in index order, by the one admissibility rule.
    fn successors(shape: &RuleShape, b: &BottomClause, max_body: usize) -> Vec<RuleShape> {
        let mut bound = Vec::new();
        shape.bound_vars_into(b, &mut bound);
        let next = |from| next_appendable(b, &bound, shape.body_len(), max_body, from);
        std::iter::successors(next(shape.append_from()), |&j| next(j + 1))
            .map(|j| RuleShape::from_indices([&shape.lits[..], &[j as u32]].concat()))
            .collect()
    }

    #[test]
    fn empty_successors_respect_dataflow() {
        let (_, b) = bottom();
        let succ = successors(&RuleShape::empty(), &b, 4);
        // r needs V1 which is not yet bound; q and s are addable.
        let idx: Vec<Vec<u32>> = succ.into_iter().map(|s| s.lits).collect();
        assert_eq!(idx, vec![vec![0], vec![2]]);
    }

    #[test]
    fn outputs_unlock_consumers() {
        let (_, b) = bottom();
        let succ = successors(&RuleShape::from_indices(vec![0]), &b, 4);
        let idx: Vec<Vec<u32>> = succ.into_iter().map(|s| s.lits).collect();
        assert_eq!(idx, vec![vec![0, 1], vec![0, 2]]);
    }

    #[test]
    fn max_body_stops_expansion() {
        let (_, b) = bottom();
        assert!(successors(&RuleShape::from_indices(vec![0]), &b, 1).is_empty());
    }

    #[test]
    fn to_clause_materializes_selected_literals() {
        let (t, b) = bottom();
        let c = RuleShape::from_indices(vec![0, 1]).to_clause(&b);
        assert_eq!(format!("{}", c.display(&t)), "p(A) :- q(A,B), r(B).");
    }

    /// All dataflow-closed shapes of the hand-built bottom clause.
    fn all_shapes() -> Vec<RuleShape> {
        let (_, b) = bottom();
        let mut seen = std::collections::HashSet::new();
        let mut queue = vec![RuleShape::empty()];
        while let Some(s) = queue.pop() {
            if !seen.insert(s.clone()) {
                continue;
            }
            queue.extend(successors(&s, &b, 4));
        }
        seen.into_iter().collect()
    }

    #[test]
    fn lattice_slices_partition_every_nonempty_shape() {
        let shapes = all_shapes();
        for of in 1..=4u64 {
            for shape in &shapes {
                let admitting = (0..of)
                    .filter(|&rank| LatticeSlice { rank, of, salt: 42 }.admits(shape))
                    .count() as u64;
                if shape.lits.is_empty() {
                    assert_eq!(admitting, of, "shared root belongs to every slice");
                } else {
                    assert_eq!(admitting, 1, "{shape:?} must land on exactly one slice");
                }
            }
        }
    }

    #[test]
    fn lattice_slices_are_subtree_closed() {
        // Whatever slice admits a shape also admits all its successors —
        // the partition never cuts a subtree in half.
        let (_, b) = bottom();
        let slice = LatticeSlice {
            rank: 1,
            of: 3,
            salt: 7,
        };
        for shape in all_shapes() {
            if !shape.lits.is_empty() && slice.admits(&shape) {
                for succ in successors(&shape, &b, 4) {
                    assert!(slice.admits(&succ));
                }
            }
        }
    }

    #[test]
    fn lattice_enumeration_reaches_all_closed_subsets() {
        let (_, b) = bottom();
        // BFS from empty must reach exactly the dataflow-closed subsets:
        // {}, {0}, {2}, {0,1}, {0,2}, {0,1,2}.
        let mut seen = std::collections::HashSet::new();
        let mut queue = vec![RuleShape::empty()];
        while let Some(s) = queue.pop() {
            if !seen.insert(s.clone()) {
                continue;
            }
            queue.extend(successors(&s, &b, 4));
        }
        assert_eq!(seen.len(), 6);
        assert!(seen.contains(&RuleShape::from_indices(vec![0, 1, 2])));
        assert!(!seen.contains(&RuleShape::from_indices(vec![1])));
    }
}
