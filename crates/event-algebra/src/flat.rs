//! Small flat collections for runtime state.
//!
//! An event actor's sets (promises seen, holds, requests in flight) and a
//! monitor's maps (facts by sequence number, open watches) hold a handful
//! of entries, live for one workflow instance, and are emptied when the
//! instance slot they sit in is reused for the next one. A `BTreeSet`
//! frees its nodes on `clear` and allocates them again on the next
//! insert; a sorted `Vec` keeps its buffer, iterates in the same (key)
//! order, and at these sizes a binary search beats a tree descent.
//! Tables keyed by symbol (which node hosts an event's actor, who
//! subscribes to it) are read on every message and never change: those
//! are dense vectors indexed by the symbol id ([`SymbolMap`]), and so is a
//! run report's per-symbol table, filled once in symbol order.

use crate::symbol::SymbolId;

/// A set kept as a sorted, deduplicated vector. Iterates in ascending
/// order, like a `BTreeSet`; `clear` keeps the allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortedSet<T>(Vec<T>);

impl<T> Default for SortedSet<T> {
    fn default() -> SortedSet<T> {
        SortedSet(Vec::new())
    }
}

impl<T: Ord> SortedSet<T> {
    /// The empty set.
    pub fn new() -> SortedSet<T> {
        SortedSet::default()
    }

    /// Add `x`; `false` if it was already present.
    pub fn insert(&mut self, x: T) -> bool {
        match self.0.binary_search(&x) {
            Ok(_) => false,
            Err(at) => {
                self.0.insert(at, x);
                true
            }
        }
    }

    /// Remove `x`; `false` if it was not present.
    pub fn remove(&mut self, x: &T) -> bool {
        match self.0.binary_search(x) {
            Ok(at) => {
                self.0.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// `true` if `x` is in the set.
    pub fn contains(&self, x: &T) -> bool {
        self.0.binary_search(x).is_ok()
    }

    /// Keep only the elements `keep` accepts.
    pub fn retain(&mut self, keep: impl FnMut(&T) -> bool) {
        self.0.retain(keep);
    }

    /// Empty the set, keeping its buffer.
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

impl<T> std::ops::Deref for SortedSet<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.0
    }
}

impl<'a, T> IntoIterator for &'a SortedSet<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// A map kept as a vector of `(key, value)` pairs sorted by key.
/// Iterates in ascending key order, like a `BTreeMap`; `clear` keeps the
/// allocation. Keys that mostly arrive in ascending order (sequence
/// numbers) append without shifting anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortedMap<K, V>(Vec<(K, V)>);

impl<K, V> Default for SortedMap<K, V> {
    fn default() -> SortedMap<K, V> {
        SortedMap(Vec::new())
    }
}

impl<K: Ord + Copy, V> SortedMap<K, V> {
    /// The empty map.
    pub fn new() -> SortedMap<K, V> {
        SortedMap::default()
    }

    fn position(&self, key: K) -> Result<usize, usize> {
        // The common insert is past the last key: skip the search.
        match self.0.last() {
            Some(&(last, _)) if last < key => Err(self.0.len()),
            _ => self.0.binary_search_by_key(&key, |&(k, _)| k),
        }
    }

    /// The value at `key`.
    pub fn get(&self, key: K) -> Option<&V> {
        self.position(key).ok().map(|at| &self.0[at].1)
    }

    /// Mutable access to the value at `key`.
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        self.position(key).ok().map(|at| &mut self.0[at].1)
    }

    /// Set `key` to `value`, returning the value it replaces.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.position(key) {
            Ok(at) => Some(std::mem::replace(&mut self.0[at].1, value)),
            Err(at) => {
                self.0.insert(at, (key, value));
                None
            }
        }
    }

    /// The value at `key`, inserting `make()` first if there is none.
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        let at = match self.position(key) {
            Ok(at) => at,
            Err(at) => {
                self.0.insert(at, (key, make()));
                at
            }
        };
        &mut self.0[at].1
    }

    /// Remove `key`, returning its value.
    pub fn remove(&mut self, key: K) -> Option<V> {
        self.position(key).ok().map(|at| self.0.remove(at).1)
    }

    /// How many keys are smaller than `key`.
    pub fn rank(&self, key: K) -> usize {
        self.position(key).unwrap_or_else(|at| at)
    }

    /// Mutable access to every entry, in key order. Values only: the
    /// keys stay sorted.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (K, &mut V)> {
        self.0.iter_mut().map(|(k, v)| (*k, v))
    }

    /// Keep only the entries `keep` accepts, visited in key order; it may
    /// change the values it keeps.
    pub fn retain(&mut self, mut keep: impl FnMut(K, &mut V) -> bool) {
        self.0.retain_mut(|(k, v)| keep(*k, v));
    }

    /// Empty the map, keeping its buffer.
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

impl<K, V> std::ops::Deref for SortedMap<K, V> {
    type Target = [(K, V)];
    fn deref(&self) -> &[(K, V)] {
        &self.0
    }
}

/// A map keyed by [`SymbolId`] kept as a vector indexed by the id: a
/// lookup is one bounds check. Symbol ids are dense (a table interns them
/// `0, 1, 2, …`), so the vector is as long as the largest key inserted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolMap<T>(Vec<Option<T>>);

impl<T> Default for SymbolMap<T> {
    fn default() -> SymbolMap<T> {
        SymbolMap(Vec::new())
    }
}

impl<T> SymbolMap<T> {
    /// The empty map.
    pub fn new() -> SymbolMap<T> {
        SymbolMap::default()
    }

    /// The empty map, with room for symbols `0..n` before it reallocates.
    pub fn with_capacity(n: usize) -> SymbolMap<T> {
        SymbolMap(Vec::with_capacity(n))
    }

    /// Set `sym` to `value`, returning the value it replaces.
    pub fn insert(&mut self, sym: SymbolId, value: T) -> Option<T> {
        let ix = sym.0 as usize;
        if ix >= self.0.len() {
            self.0.resize_with(ix + 1, || None);
        }
        self.0[ix].replace(value)
    }

    /// The value at `sym`.
    pub fn get(&self, sym: &SymbolId) -> Option<&T> {
        self.0.get(sym.0 as usize)?.as_ref()
    }

    /// Mutable access to the value at `sym`.
    pub fn get_mut(&mut self, sym: &SymbolId) -> Option<&mut T> {
        self.0.get_mut(sym.0 as usize)?.as_mut()
    }

    /// The values, in symbol order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.0.iter().flatten()
    }

    /// Every entry, in symbol order.
    pub fn iter(&self) -> impl Iterator<Item = (SymbolId, &T)> {
        self.0.iter().enumerate().filter_map(|(ix, v)| Some((SymbolId(ix as u32), v.as_ref()?)))
    }
}

impl<T> std::ops::Index<SymbolId> for SymbolMap<T> {
    type Output = T;
    fn index(&self, sym: SymbolId) -> &T {
        self.get(&sym).unwrap_or_else(|| panic!("no entry for symbol {}", sym.0))
    }
}

impl<T> std::ops::Index<&SymbolId> for SymbolMap<T> {
    type Output = T;
    fn index(&self, sym: &SymbolId) -> &T {
        &self[*sym]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn symbol_map_reads_what_was_inserted() {
        let mut map = SymbolMap::new();
        assert_eq!(map.get(&SymbolId(3)), None);
        assert_eq!(map.insert(SymbolId(3), 'c'), None);
        assert_eq!(map.insert(SymbolId(1), 'a'), None);
        assert_eq!(map.insert(SymbolId(3), 'd'), Some('c'));
        assert_eq!((map[SymbolId(1)], map[&SymbolId(3)]), ('a', 'd'));
        assert_eq!(map.get(&SymbolId(0)), None, "a gap below a key");
        assert_eq!(map.get(&SymbolId(9)), None, "past the last key");
        *map.get_mut(&SymbolId(1)).unwrap() = 'b';
        assert_eq!(map.values().copied().collect::<String>(), "bd", "symbol order");
        let entries: Vec<_> = map.iter().map(|(s, &v)| (s.0, v)).collect();
        assert_eq!(entries, [(1, 'b'), (3, 'd')], "keys with their values, gaps skipped");
        assert_eq!(SymbolMap::<char>::with_capacity(8), SymbolMap::new());
    }

    /// The same operations on the flat and the tree collection give the
    /// same answers and the same iteration order.
    #[test]
    fn sorted_collections_agree_with_their_btree_counterparts() {
        let (mut set, mut tree_set) = (SortedSet::new(), BTreeSet::new());
        let (mut map, mut tree_map) = (SortedMap::new(), BTreeMap::new());
        let mut x = 0x9E37_79B9u32;
        for step in 0..400u32 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let key = (x >> 24) % 24;
            if step % 3 == 2 {
                assert_eq!(set.remove(&key), tree_set.remove(&key));
                assert_eq!(map.remove(key), tree_map.remove(&key));
            } else {
                assert_eq!(set.insert(key), tree_set.insert(key));
                assert_eq!(map.insert(key, step), tree_map.insert(key, step));
                *map.get_or_insert_with(key + 1, || 0) += 1;
                *tree_map.entry(key + 1).or_insert(0) += 1;
            }
            assert_eq!(set.contains(&key), tree_set.contains(&key));
            assert_eq!(map.get(key), tree_map.get(&key));
            assert_eq!(map.get_mut(key), tree_map.get_mut(&key));
            assert_eq!(map.rank(key), tree_map.range(..key).count());
            assert!(set.iter().eq(tree_set.iter()));
            assert!(map.iter().map(|(k, v)| (k, v)).eq(tree_map.iter()));
        }
        set.retain(|k| k % 2 == 0);
        tree_set.retain(|k| k % 2 == 0);
        assert!(set.iter().eq(tree_set.iter()));
        for (_, v) in map.iter_mut() {
            *v += 1;
        }
        assert!(map.iter().map(|&(k, v)| (k, v - 1)).eq(tree_map.iter().map(|(&k, &v)| (k, v))));
        map.retain(|k, v| {
            *v -= 1;
            k % 3 != 0
        });
        tree_map.retain(|k, _| k % 3 != 0);
        assert!(map.iter().map(|(k, v)| (k, v)).eq(tree_map.iter()));
        set.clear();
        map.clear();
        assert!(set.is_empty() && map.is_empty());
    }
}
