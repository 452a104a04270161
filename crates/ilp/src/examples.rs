//! Example stores: the `E+` / `E-` of the paper.

use crate::bitset::Bitset;
use p2mdie_logic::clause::Literal;

/// A set of ground positive and negative examples of the target predicate.
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Examples {
    /// Positive examples (`E+`).
    pub pos: Vec<Literal>,
    /// Negative examples (`E-`).
    pub neg: Vec<Literal>,
}

p2mdie_logic::wire_struct!(Examples { pos, neg });

impl Examples {
    /// Creates an example set.
    pub fn new(pos: Vec<Literal>, neg: Vec<Literal>) -> Self {
        Examples { pos, neg }
    }

    /// `|E+|`.
    pub fn num_pos(&self) -> usize {
        self.pos.len()
    }

    /// `|E-|`.
    pub fn num_neg(&self) -> usize {
        self.neg.len()
    }

    /// Total example count.
    pub fn len(&self) -> usize {
        self.pos.len() + self.neg.len()
    }

    /// True when there are no examples at all.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty() && self.neg.is_empty()
    }

    /// An all-live bitset over the positive examples.
    pub fn full_pos_live(&self) -> Bitset {
        Bitset::full(self.pos.len())
    }

    /// Builds the subset selected by index lists (used for partitioning and
    /// cross-validation folds). Indices must be in range.
    pub fn subset(&self, pos_idx: &[usize], neg_idx: &[usize]) -> Examples {
        Examples {
            pos: pos_idx.iter().map(|&i| self.pos[i].clone()).collect(),
            neg: neg_idx.iter().map(|&i| self.neg[i].clone()).collect(),
        }
    }

    /// Whether [`Examples::subset`] of the same index lists would equal
    /// `other`, without building it.
    pub fn subset_is(&self, pos_idx: &[usize], neg_idx: &[usize], other: &Examples) -> bool {
        let same = |idx: &[usize], from: &[Literal], theirs: &[Literal]| {
            idx.len() == theirs.len() && idx.iter().zip(theirs).all(|(&i, l)| from[i] == *l)
        };
        same(pos_idx, &self.pos, &other.pos) && same(neg_idx, &self.neg, &other.neg)
    }

    /// Concatenates several example sets (fold assembly).
    pub fn concat<'a>(parts: impl IntoIterator<Item = &'a Examples>) -> Examples {
        let mut out = Examples::default();
        for p in parts {
            out.pos.extend(p.pos.iter().cloned());
            out.neg.extend(p.neg.iter().cloned());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2mdie_logic::symbol::SymbolTable;
    use p2mdie_logic::term::Term;

    fn ex(n: usize, m: usize) -> Examples {
        let t = SymbolTable::new();
        let p = t.intern("p");
        Examples::new(
            (0..n)
                .map(|i| Literal::new(p, vec![Term::Int(i as i64)]))
                .collect(),
            (0..m)
                .map(|i| Literal::new(p, vec![Term::Int(-(i as i64) - 1)]))
                .collect(),
        )
    }

    #[test]
    fn counts() {
        let e = ex(3, 2);
        assert_eq!(e.num_pos(), 3);
        assert_eq!(e.num_neg(), 2);
        assert_eq!(e.len(), 5);
        assert!(!e.is_empty());
        assert_eq!(e.full_pos_live().count(), 3);
    }

    #[test]
    fn subset_selects_by_index() {
        let e = ex(4, 4);
        let s = e.subset(&[0, 2], &[3]);
        assert_eq!(s.num_pos(), 2);
        assert_eq!(s.num_neg(), 1);
        assert_eq!(s.pos[1], e.pos[2]);
    }

    #[test]
    fn concat_joins() {
        let a = ex(2, 1);
        let b = ex(3, 2);
        let c = Examples::concat([&a, &b]);
        assert_eq!(c.num_pos(), 5);
        assert_eq!(c.num_neg(), 3);
    }
}
