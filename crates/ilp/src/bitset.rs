//! A fixed-length bitset used for example coverage.
//!
//! Coverage of a rule over an example set is a pair of bitsets (positive /
//! negative cover). Covering-loop bookkeeping is then cheap set algebra:
//! `live &= !covered`. Stored as `u64` blocks; all binary operations require
//! equal lengths.

/// A fixed-length set of bits.
#[derive(Clone, Default, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Bitset {
    blocks: Vec<u64>,
    len: usize,
}

impl Bitset {
    /// Creates an all-zero bitset of `len` bits.
    pub fn new(len: usize) -> Self {
        Bitset {
            blocks: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a bitset with every bit in `0..len` set.
    pub fn full(len: usize) -> Self {
        let mut b = Self::new(len);
        for i in 0..b.blocks.len() {
            b.blocks[i] = u64::MAX;
        }
        b.trim();
        b
    }

    /// Builds a bitset of `len` bits from set indices.
    pub fn from_indices(len: usize, indices: impl IntoIterator<Item = usize>) -> Self {
        let mut b = Self::new(len);
        for i in indices {
            b.set(i);
        }
        b
    }

    /// Builds a bitset of `len` bits from its `u64` words, lowest bits
    /// first; bits beyond `len` in the last word are dropped.
    pub fn from_words(len: usize, words: impl IntoIterator<Item = u64>) -> Self {
        let mut b = Bitset {
            blocks: words.into_iter().collect(),
            len,
        };
        assert_eq!(b.blocks.len(), len.div_ceil(64), "bitset word count");
        b.trim();
        b
    }

    /// Empties the set and makes it `len` bits long, in the memory it holds
    /// (it allocates only to grow).
    pub fn reset(&mut self, len: usize) {
        self.blocks.clear();
        self.blocks.resize(len.div_ceil(64), 0);
        self.len = len;
    }

    /// [`Bitset::from_words`] into the memory this set holds.
    pub fn assign_words(&mut self, len: usize, words: &[u64]) {
        assert_eq!(words.len(), len.div_ceil(64), "bitset word count");
        self.blocks.clear();
        self.blocks.extend_from_slice(words);
        self.len = len;
        self.trim();
    }

    /// Makes the set a copy of `other`, in the memory it holds.
    pub fn copy_from(&mut self, other: &Bitset) {
        self.assign_words(other.len, &other.blocks);
    }

    /// The bits as `u64` words, lowest bits first; bits beyond `len` are 0.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.blocks
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitset has zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Clears bits beyond `len` in the last block (invariant restorer).
    fn trim(&mut self) {
        let extra = self.blocks.len() * 64 - self.len;
        if extra > 0 {
            if let Some(last) = self.blocks.last_mut() {
                *last &= u64::MAX >> extra;
            }
        }
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.blocks[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.blocks[i / 64] &= !(1u64 << (i % 64));
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        (self.blocks[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// True when at least one bit is set.
    pub fn any(&self) -> bool {
        self.blocks.iter().any(|&b| b != 0)
    }

    /// True when no bit is set.
    pub fn none(&self) -> bool {
        !self.any()
    }

    /// Index of the lowest set bit, if any.
    pub fn first(&self) -> Option<usize> {
        for (bi, &b) in self.blocks.iter().enumerate() {
            if b != 0 {
                return Some(bi * 64 + b.trailing_zeros() as usize);
            }
        }
        None
    }

    /// The seed cursor of the covering loops: the lowest set bit strictly
    /// after `prev`, wrapping to [`Bitset::first`] when `prev` is `None` or
    /// nothing is set after it. `prev` itself need not be set any more.
    pub fn next_after(&self, prev: Option<usize>) -> Option<usize> {
        prev.and_then(|p| (p + 1..self.len).find(|&i| self.get(i)))
            .or_else(|| self.first())
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &Bitset) {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &Bitset) {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= b;
        }
    }

    /// In-place difference (`self &= !other`).
    pub fn difference_with(&mut self, other: &Bitset) {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= !b;
        }
    }

    /// Number of bits set in both.
    pub fn intersection_count(&self, other: &Bitset) -> usize {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        self.blocks
            .iter()
            .zip(&other.blocks)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// True when every set bit of `self` is also set in `other`.
    pub fn is_subset(&self, other: &Bitset) -> bool {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterator over set-bit indices, ascending.
    pub fn iter_ones(&self) -> Ones<'_> {
        Ones {
            set: self,
            block: 0,
            bits: self.blocks.first().copied().unwrap_or(0),
        }
    }
}

impl std::fmt::Debug for Bitset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bitset[{}/{}]{{", self.count(), self.len)?;
        for (n, i) in self.iter_ones().enumerate() {
            if n > 0 {
                write!(f, ",")?;
            }
            if n >= 16 {
                write!(f, "..")?;
                break;
            }
            write!(f, "{i}")?;
        }
        write!(f, "}}")
    }
}

/// Iterator produced by [`Bitset::iter_ones`].
pub struct Ones<'a> {
    set: &'a Bitset,
    block: usize,
    bits: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.bits != 0 {
                let tz = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(self.block * 64 + tz);
            }
            self.block += 1;
            if self.block >= self.set.blocks.len() {
                return None;
            }
            self.bits = self.set.blocks[self.block];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut b = Bitset::new(100);
        assert!(!b.get(63));
        b.set(63);
        b.set(64);
        b.set(99);
        assert!(b.get(63) && b.get(64) && b.get(99));
        assert_eq!(b.count(), 3);
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn full_respects_length() {
        let b = Bitset::full(70);
        assert_eq!(b.count(), 70);
        let b = Bitset::full(64);
        assert_eq!(b.count(), 64);
        let b = Bitset::full(0);
        assert_eq!(b.count(), 0);
        assert!(b.none());
    }

    #[test]
    fn set_algebra() {
        let a = Bitset::from_indices(10, [1, 3, 5]);
        let b = Bitset::from_indices(10, [3, 5, 7]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.count(), 4);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter_ones().collect::<Vec<_>>(), vec![3, 5]);
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter_ones().collect::<Vec<_>>(), vec![1]);
        assert_eq!(a.intersection_count(&b), 2);
        assert!(i.is_subset(&a) && i.is_subset(&b));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn first_and_iteration_order() {
        let b = Bitset::from_indices(200, [150, 3, 64]);
        assert_eq!(b.first(), Some(3));
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![3, 64, 150]);
    }

    #[test]
    fn next_after_is_a_wrapping_cursor() {
        let mut b = Bitset::from_indices(130, [3, 64, 129]);
        assert_eq!(b.next_after(None), Some(3));
        assert_eq!(b.next_after(Some(3)), Some(64));
        assert_eq!(b.next_after(Some(64)), Some(129));
        // Nothing after the last bit, or after the end: wrap around.
        assert_eq!(b.next_after(Some(129)), Some(3));
        assert_eq!(b.next_after(Some(500)), Some(3));
        // The previous seed was covered (cleared) in the meantime.
        b.clear(64);
        assert_eq!(b.next_after(Some(64)), Some(129));
        // A cursor on the only set bit finds it again.
        let one = Bitset::from_indices(10, [7]);
        assert_eq!(one.next_after(Some(7)), Some(7));
        assert_eq!(Bitset::new(10).next_after(Some(2)), None);
        assert_eq!(Bitset::new(0).next_after(None), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut b = Bitset::new(10);
        b.set(10);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut a = Bitset::new(10);
        let b = Bitset::new(11);
        a.union_with(&b);
    }
}
