//! Offline shim for `bytes`: the cheaply-cloneable immutable byte buffer
//! (`Bytes`) that encoded messages travel in. The wire codec itself reads
//! and writes std buffers (`p2mdie_logic::wire`), so `BytesMut`, `Buf` and
//! `BufMut` are not shimmed.

use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

/// Cheaply-cloneable immutable bytes: a shared backing buffer plus a view
/// window. Cloning and slicing are O(1).
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Length of the view in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The viewed bytes as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Copies the view into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// O(1) sub-view; panics when the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            lo <= hi && hi <= self.len(),
            "slice {lo}..{hi} out of range {}",
            self.len()
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: v.into(),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        v.to_vec().into()
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_slice() {
        let b: Bytes = vec![1, 2, 3, 4, 5].into();
        assert_eq!(b.len(), 5);
        let s = b.slice(1..4);
        assert_eq!(s.as_slice(), [2, 3, 4]);
        assert_eq!(s.slice(..2).to_vec(), vec![2, 3]);
        assert_eq!(b.clone(), b);
        assert!(Bytes::new().is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_past_the_end_panics() {
        Bytes::from(vec![1, 2]).slice(..3);
    }
}
