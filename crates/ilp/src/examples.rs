//! Example stores: the `E+` / `E-` of the paper.
//!
//! Each half of an [`Examples`] is an [`ExampleList`]: immutable and shared,
//! so a clone is a reference count and so is its drop. A job, a client and a
//! dealing can all hold the same set without copying a literal; a changed
//! set is a new list. On the wire a list is a `Vec<Literal>`, byte for byte.

use crate::bitset::Bitset;
use p2mdie_logic::clause::Literal;
use p2mdie_logic::wire::{DecodeError, Wire};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, shared list of ground examples: cloning or dropping one is
/// a reference count. It reads as a `[Literal]`, prints as one, and encodes
/// as a `Vec<Literal>`. Equality is by value, and answers at once for two
/// handles on the same allocation.
#[derive(Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct ExampleList(Arc<[Literal]>);

impl ExampleList {
    /// Whether `self` and `other` are handles on one allocation.
    pub fn shares(&self, other: &ExampleList) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Deref for ExampleList {
    type Target = [Literal];

    fn deref(&self) -> &[Literal] {
        &self.0
    }
}

impl<'a> IntoIterator for &'a ExampleList {
    type Item = &'a Literal;
    type IntoIter = std::slice::Iter<'a, Literal>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl From<Vec<Literal>> for ExampleList {
    fn from(list: Vec<Literal>) -> Self {
        ExampleList(list.into())
    }
}

impl FromIterator<Literal> for ExampleList {
    fn from_iter<I: IntoIterator<Item = Literal>>(iter: I) -> Self {
        ExampleList(iter.into_iter().collect())
    }
}

impl PartialEq for ExampleList {
    fn eq(&self, other: &ExampleList) -> bool {
        self.shares(other) || self.0[..] == other.0[..]
    }
}

impl fmt::Debug for ExampleList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl Wire for ExampleList {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(inp: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(ExampleList(Wire::decode(inp)?))
    }
}

/// A set of ground positive and negative examples of the target predicate.
/// A clone shares both lists (see [`ExampleList`]).
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Examples {
    /// Positive examples (`E+`).
    pub pos: ExampleList,
    /// Negative examples (`E-`).
    pub neg: ExampleList,
}

p2mdie_logic::wire_struct!(Examples { pos, neg });

impl Examples {
    /// Creates an example set.
    pub fn new(pos: Vec<Literal>, neg: Vec<Literal>) -> Self {
        Examples {
            pos: pos.into(),
            neg: neg.into(),
        }
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

    /// Concatenates several example sets (fold assembly).
    pub fn concat<'a>(parts: impl IntoIterator<Item = &'a Examples>) -> Examples {
        let parts: Vec<&Examples> = parts.into_iter().collect();
        Examples {
            pos: parts.iter().flat_map(|p| p.pos.iter().cloned()).collect(),
            neg: parts.iter().flat_map(|p| p.neg.iter().cloned()).collect(),
        }
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
