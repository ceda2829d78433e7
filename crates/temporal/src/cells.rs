//! A conjunct's `(symbol, mask)` cells: up to [`INLINE_CELLS`] kept in
//! place, more spilled to one heap vector.
//!
//! Every conjunct of every compiled guard of the benchmark templates
//! constrains at most four symbols (DESIGN §3b, "Layout"), so the common
//! conjunct owns no allocation for its masks. Comparison, hashing and
//! debug output are those of the cell slice: where the cells live is
//! invisible to the guard kernel's canonical order.

use event_algebra::SymbolId;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// One symbol's mask inside a conjunct.
pub(crate) type Cell = (SymbolId, u8);

/// How many cells a conjunct keeps in place. The kernel's differential
/// suite draws its guards from six symbols; this must stay below that, or
/// the spilled layout would never be compared with the reference there
/// (`the_inline_capacity_leaves_the_heap_layout_under_test`).
pub(crate) const INLINE_CELLS: usize = 4;

const EMPTY: Cell = (SymbolId(0), 0);

/// Sorted mask cells, inline up to [`INLINE_CELLS`].
#[derive(Clone)]
pub(crate) enum Cells {
    /// The first `len` cells are live.
    Inline { len: u8, cells: [Cell; INLINE_CELLS] },
    /// More than [`INLINE_CELLS`] cells at some point; never moves back.
    Heap(Vec<Cell>),
}

impl Default for Cells {
    fn default() -> Cells {
        Cells::Inline { len: 0, cells: [EMPTY; INLINE_CELLS] }
    }
}

impl Cells {
    /// Room for `n` cells: in place when they fit.
    pub(crate) fn with_capacity(n: usize) -> Cells {
        if n <= INLINE_CELLS {
            Cells::default()
        } else {
            Cells::Heap(Vec::with_capacity(n))
        }
    }

    /// `true` once the cells live on the heap.
    #[cfg(test)]
    pub(crate) fn spilled(&self) -> bool {
        matches!(self, Cells::Heap(_))
    }

    /// The heap vector, moving the inline cells there first.
    fn spill(&mut self) -> &mut Vec<Cell> {
        if let Cells::Inline { len, cells } = self {
            let mut v = Vec::with_capacity(2 * INLINE_CELLS);
            v.extend_from_slice(&cells[..usize::from(*len)]);
            *self = Cells::Heap(v);
        }
        match self {
            Cells::Heap(v) => v,
            Cells::Inline { .. } => unreachable!("spilled above"),
        }
    }

    pub(crate) fn push(&mut self, cell: Cell) {
        let at = self.len();
        self.insert(at, cell);
    }

    pub(crate) fn insert(&mut self, at: usize, cell: Cell) {
        match self {
            Cells::Inline { len, cells } if usize::from(*len) < INLINE_CELLS => {
                let n = usize::from(*len);
                cells.copy_within(at..n, at + 1);
                cells[at] = cell;
                *len += 1;
            }
            _ => self.spill().insert(at, cell),
        }
    }

    pub(crate) fn remove(&mut self, at: usize) -> Cell {
        match self {
            Cells::Inline { len, cells } => {
                let n = usize::from(*len);
                assert!(at < n, "cell {at} of {n}");
                let cell = cells[at];
                cells.copy_within(at + 1..n, at);
                *len -= 1;
                cell
            }
            Cells::Heap(v) => v.remove(at),
        }
    }

    pub(crate) fn extend_from_slice(&mut self, more: &[Cell]) {
        match self {
            Cells::Inline { len, cells } if usize::from(*len) + more.len() <= INLINE_CELLS => {
                let n = usize::from(*len);
                cells[n..n + more.len()].copy_from_slice(more);
                *len += more.len() as u8;
            }
            _ => self.spill().extend_from_slice(more),
        }
    }
}

impl Deref for Cells {
    type Target = [Cell];

    fn deref(&self) -> &[Cell] {
        match self {
            Cells::Inline { len, cells } => &cells[..usize::from(*len)],
            Cells::Heap(v) => v,
        }
    }
}

impl DerefMut for Cells {
    fn deref_mut(&mut self) -> &mut [Cell] {
        match self {
            Cells::Inline { len, cells } => &mut cells[..usize::from(*len)],
            Cells::Heap(v) => v,
        }
    }
}

impl FromIterator<Cell> for Cells {
    fn from_iter<I: IntoIterator<Item = Cell>>(iter: I) -> Cells {
        let iter = iter.into_iter();
        let mut out = Cells::with_capacity(iter.size_hint().0);
        for cell in iter {
            out.push(cell);
        }
        out
    }
}

impl PartialEq for Cells {
    fn eq(&self, other: &Cells) -> bool {
        **self == **other
    }
}

impl Eq for Cells {}

impl PartialOrd for Cells {
    fn partial_cmp(&self, other: &Cells) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cells {
    fn cmp(&self, other: &Cells) -> Ordering {
        (**self).cmp(&**other)
    }
}

impl Hash for Cells {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl std::fmt::Debug for Cells {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(s: u32) -> Cell {
        (SymbolId(s), (s % 14 + 1) as u8)
    }

    /// Every operation on either layout leaves the cells a `Vec` would
    /// hold, and the two layouts compare and hash as their slices.
    #[test]
    fn both_layouts_behave_as_a_vector() {
        let mut cells = Cells::default();
        let mut model: Vec<Cell> = Vec::new();
        for (k, s) in [5u32, 1, 9, 3, 7, 2, 8].into_iter().enumerate() {
            let at = model.partition_point(|&(t, _)| t.0 < s);
            cells.insert(at, cell(s));
            model.insert(at, cell(s));
            assert_eq!(&*cells, &model[..]);
            assert_eq!(cells.spilled(), k >= INLINE_CELLS);
        }
        assert_eq!(cells.remove(2), model.remove(2));
        assert_eq!(&*cells, &model[..]);
        let inline: Cells = model[..3].iter().copied().collect();
        let heap: Cells = {
            let mut h = Cells::with_capacity(INLINE_CELLS + 1);
            h.extend_from_slice(&model[..3]);
            h
        };
        assert!(!inline.spilled() && heap.spilled());
        assert_eq!(inline, heap);
        assert_eq!(inline.cmp(&heap), Ordering::Equal);
        let hash = |c: &Cells| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            c.hash(&mut h);
            h.finish()
        };
        let slice_hash = {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            model[..3].to_vec().hash(&mut h);
            h.finish()
        };
        assert_eq!((hash(&inline), hash(&heap)), (slice_hash, slice_hash));
        let mut grown = inline.clone();
        grown.extend_from_slice(&model[3..]);
        assert_eq!(&*grown, &model[..]);
        grown.push(cell(30));
        assert_eq!(grown.last(), Some(&cell(30)));
    }
}
