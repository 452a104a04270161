//! String interning.
//!
//! Every functor, predicate and constant name is interned once into a
//! [`SymbolTable`] and referred to by a compact [`SymbolId`]. The table is
//! cheaply cloneable (shared behind an `Arc`), append-only, and thread-safe,
//! so the cluster substrate can ship terms between ranks as raw ids: all
//! ranks of a run share one table, exactly like all nodes of the paper's
//! Beowulf cluster loaded identical data files and therefore agreed on the
//! meaning of every name.

use crate::fxhash::FxHashMap;
use parking_lot::RwLock;
use std::fmt;
use std::sync::Arc;

/// Compact identifier for an interned string.
#[derive(
    Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct SymbolId(pub u32);
crate::wire_struct!(SymbolId { 0 });

impl SymbolId {
    /// The raw index of this symbol.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for SymbolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

#[derive(Default)]
struct Inner {
    names: Vec<Arc<str>>,
    map: FxHashMap<Arc<str>, SymbolId>,
}

/// A shared, append-only string interner.
///
/// Cloning a `SymbolTable` clones the *handle*; both handles observe the
/// same set of symbols. Interning the same string twice always yields the
/// same [`SymbolId`].
#[derive(Clone, Default)]
pub struct SymbolTable {
    inner: Arc<RwLock<Inner>>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its stable id.
    pub fn intern(&self, name: &str) -> SymbolId {
        if let Some(&id) = self.inner.read().map.get(name) {
            return id;
        }
        let mut inner = self.inner.write();
        Self::intern_locked(&mut inner, name)
    }

    /// Interns a whole batch of names in order under **one** lock
    /// acquisition, returning their ids. This is the snapshot-load path:
    /// a dictionary of thousands of names interns in one critical section
    /// instead of paying a read-probe + write-lock round trip per name.
    pub fn intern_all<S: AsRef<str>>(&self, names: &[S]) -> Vec<SymbolId> {
        let mut inner = self.inner.write();
        inner.names.reserve(names.len());
        inner.map.reserve(names.len());
        names
            .iter()
            .map(|n| Self::intern_locked(&mut inner, n.as_ref()))
            .collect()
    }

    fn intern_locked(inner: &mut Inner, name: &str) -> SymbolId {
        if let Some(&id) = inner.map.get(name) {
            return id;
        }
        let id = SymbolId(inner.names.len() as u32);
        let arc: Arc<str> = Arc::from(name);
        inner.names.push(arc.clone());
        inner.map.insert(arc, id);
        id
    }

    /// Returns the string for `id`. Panics if `id` was not produced by this
    /// table (or a clone of it).
    pub fn name(&self, id: SymbolId) -> Arc<str> {
        self.inner.read().names[id.index()].clone()
    }

    /// Looks up an already-interned string without inserting.
    pub fn lookup(&self, name: &str) -> Option<SymbolId> {
        self.inner.read().map.get(name).copied()
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.inner.read().names.len()
    }

    /// True when no symbol has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if both handles refer to the same underlying table.
    pub fn same_table(&self, other: &SymbolTable) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Every interned name in id order (a point-in-time copy; the table may
    /// grow concurrently). This is the symbol dictionary a
    /// [`crate::snapshot::KbSnapshot`] carries so a restore into a *fresh*
    /// table reproduces the exact same ids.
    pub fn names(&self) -> Vec<Arc<str>> {
        self.inner.read().names.clone()
    }
}

impl fmt::Debug for SymbolTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SymbolTable({} symbols)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let t = SymbolTable::new();
        let a = t.intern("foo");
        let b = t.intern("foo");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_names_get_distinct_ids() {
        let t = SymbolTable::new();
        let a = t.intern("foo");
        let b = t.intern("bar");
        assert_ne!(a, b);
        assert_eq!(&*t.name(a), "foo");
        assert_eq!(&*t.name(b), "bar");
    }

    #[test]
    fn clones_share_storage() {
        let t = SymbolTable::new();
        let t2 = t.clone();
        let a = t.intern("shared");
        assert_eq!(t2.lookup("shared"), Some(a));
        assert!(t.same_table(&t2));
    }

    #[test]
    fn intern_all_matches_one_by_one() {
        let a = SymbolTable::new();
        let b = SymbolTable::new();
        b.intern("pre_existing");
        let names = ["x", "y", "x", "pre_existing", "z"];
        let batch = a.intern_all(&names);
        let single: Vec<SymbolId> = names.iter().map(|n| a.intern(n)).collect();
        assert_eq!(batch, single);
        // Batched interning into a non-empty table reuses existing ids.
        let batch_b = b.intern_all(&names);
        assert_eq!(batch_b[3], b.lookup("pre_existing").unwrap());
        assert_eq!(batch_b[0], batch_b[2]);
    }

    #[test]
    fn lookup_missing_is_none() {
        let t = SymbolTable::new();
        assert_eq!(t.lookup("nope"), None);
        assert!(t.is_empty());
    }

    #[test]
    fn concurrent_interning_agrees() {
        let t = SymbolTable::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let t = t.clone();
                std::thread::spawn(move || {
                    (0..100)
                        .map(|i| t.intern(&format!("s{i}")).0)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<u32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in results.windows(2) {
            assert_eq!(w[0], w[1]);
        }
        assert_eq!(t.len(), 100);
    }
}
