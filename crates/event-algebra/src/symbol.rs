//! Interned event symbols and literals.
//!
//! The paper's alphabet `Γ` consists of *significant event* symbols `Σ` plus
//! their complements: `e ∈ Σ` implies `e, ē ∈ Γ` (Syntax 1). We intern symbol
//! names into dense `u32` ids so that expressions, traces, and guard tables
//! never touch strings on hot paths, and represent a member of `Γ` as a
//! [`Literal`]: a symbol id plus a polarity bit.

use std::collections::HashMap;
use std::fmt;

/// A dense identifier for an event symbol in `Σ`.
///
/// Ids are allocated consecutively from 0 by a [`SymbolTable`], so they can
/// be used to index vectors (e.g. per-symbol knowledge states in guards).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymbolId(pub u32);

impl SymbolId {
    /// The symbol's index, usable to address per-symbol side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SymbolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Whether a literal denotes the event itself or its complement `ē`.
///
/// The complement `ē` is itself an event (e.g. *abort* complementing
/// *commit*): exactly one of `e`, `ē` occurs on any maximal trace, and no
/// trace contains both (Definition 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Polarity {
    /// The event `e` itself.
    Pos,
    /// The complementary event `ē`.
    Neg,
}

impl Polarity {
    /// The opposite polarity.
    #[inline]
    pub fn flipped(self) -> Polarity {
        match self {
            Polarity::Pos => Polarity::Neg,
            Polarity::Neg => Polarity::Pos,
        }
    }
}

/// A member of the alphabet `Γ`: an event symbol or its complement.
///
/// Packed into a single `u32` (`symbol << 1 | polarity`) so literals are
/// `Copy`, order cheaply, and hash as machine words.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Literal(u32);

impl Literal {
    /// The positive literal `e` for `sym`.
    #[inline]
    pub fn pos(sym: SymbolId) -> Literal {
        Literal(sym.0 << 1)
    }

    /// The complement literal `ē` for `sym`.
    #[inline]
    pub fn neg(sym: SymbolId) -> Literal {
        Literal(sym.0 << 1 | 1)
    }

    /// Build a literal from a symbol and polarity.
    #[inline]
    pub fn new(sym: SymbolId, pol: Polarity) -> Literal {
        match pol {
            Polarity::Pos => Literal::pos(sym),
            Polarity::Neg => Literal::neg(sym),
        }
    }

    /// The underlying event symbol.
    #[inline]
    pub fn symbol(self) -> SymbolId {
        SymbolId(self.0 >> 1)
    }

    /// This literal's polarity.
    #[inline]
    pub fn polarity(self) -> Polarity {
        if self.0 & 1 == 0 {
            Polarity::Pos
        } else {
            Polarity::Neg
        }
    }

    /// `true` if this is a positive (uncomplemented) event.
    #[inline]
    pub fn is_pos(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complementary literal: `e ↦ ē`, `ē ↦ e` (we identify `ē̄` with `e`).
    #[inline]
    pub fn complement(self) -> Literal {
        Literal(self.0 ^ 1)
    }

    /// `true` if `other` is the complement of `self`.
    #[inline]
    pub fn is_complement_of(self, other: Literal) -> bool {
        self.0 ^ 1 == other.0
    }

    /// This literal over `binding[symbol]`: its symbol read as a rank
    /// into a binding (see [`crate::Expr::shape`]).
    ///
    /// # Panics
    ///
    /// If `binding` does not cover the rank.
    #[inline]
    pub fn rebind(self, binding: &[SymbolId]) -> Literal {
        Literal::new(binding[self.symbol().index()], self.polarity())
    }

    /// A dense index over `Γ` (`2 * symbol + polarity`), usable for bitsets.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Inverse of [`Literal::index`].
    #[inline]
    pub fn from_index(ix: usize) -> Literal {
        Literal(ix as u32)
    }
}

impl fmt::Debug for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_pos() {
            write!(f, "Lit({})", self.symbol().0)
        } else {
            write!(f, "Lit(~{})", self.symbol().0)
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_pos() {
            write!(f, "e{}", self.symbol().0)
        } else {
            write!(f, "~e{}", self.symbol().0)
        }
    }
}

/// An interner mapping human-readable event names to [`SymbolId`]s.
///
/// A table corresponds to the set `Σ` of significant events of one workflow
/// universe. Complements are not named separately: the complement of the
/// event named `"commit"` is displayed as `~commit`.
#[derive(Debug, Default, Clone)]
pub struct SymbolTable {
    names: Vec<String>,
    index: HashMap<String, SymbolId>,
}

impl SymbolTable {
    /// An empty table.
    pub fn new() -> SymbolTable {
        SymbolTable::default()
    }

    /// Intern `name`, returning the existing id if already present.
    pub fn intern(&mut self, name: &str) -> SymbolId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = SymbolId(
            u32::try_from(self.names.len()).expect("more than u32::MAX event symbols interned"),
        );
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        id
    }

    /// Intern `name` and return the positive literal for it.
    pub fn event(&mut self, name: &str) -> Literal {
        Literal::pos(self.intern(name))
    }

    /// Intern `name` and return the complement literal for it.
    pub fn complement_of(&mut self, name: &str) -> Literal {
        Literal::neg(self.intern(name))
    }

    /// Look up an already-interned name.
    pub fn lookup(&self, name: &str) -> Option<SymbolId> {
        self.index.get(name).copied()
    }

    /// The name for `id`, if `id` was allocated by this table.
    pub fn name(&self, id: SymbolId) -> Option<&str> {
        self.names.get(id.index()).map(String::as_str)
    }

    /// Render a literal using this table's names (`commit` / `~commit`).
    pub fn literal_name(&self, lit: Literal) -> String {
        let base = self
            .name(lit.symbol())
            .map(str::to_owned)
            .unwrap_or_else(|| format!("e{}", lit.symbol().0));
        if lit.is_pos() {
            base
        } else {
            format!("~{base}")
        }
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` if no symbols have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate over all interned symbol ids.
    pub fn ids(&self) -> impl Iterator<Item = SymbolId> + '_ {
        (0..self.names.len() as u32).map(SymbolId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("commit");
        let b = t.intern("commit");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn intern_allocates_dense_ids() {
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        let c = t.intern("c");
        assert_eq!((a.0, b.0, c.0), (0, 1, 2));
        assert_eq!(t.name(b), Some("b"));
        assert_eq!(t.name(SymbolId(99)), None);
    }

    #[test]
    fn literal_packing_roundtrip() {
        let s = SymbolId(41);
        let e = Literal::pos(s);
        let ne = Literal::neg(s);
        assert_eq!(e.symbol(), s);
        assert_eq!(ne.symbol(), s);
        assert!(e.is_pos());
        assert!(!ne.is_pos());
        assert_eq!(e.polarity(), Polarity::Pos);
        assert_eq!(ne.polarity(), Polarity::Neg);
    }

    #[test]
    fn complement_is_involutive() {
        let e = Literal::pos(SymbolId(7));
        assert_eq!(e.complement().complement(), e);
        assert_ne!(e.complement(), e);
        assert!(e.is_complement_of(e.complement()));
        assert!(!e.is_complement_of(e));
        assert_eq!(e.complement().symbol(), e.symbol());
    }

    #[test]
    fn literal_index_roundtrip() {
        for raw in [0usize, 1, 5, 100] {
            let l = Literal::from_index(raw);
            assert_eq!(l.index(), raw);
        }
    }

    #[test]
    fn literal_display_uses_table_names() {
        let mut t = SymbolTable::new();
        let c = t.event("commit");
        assert_eq!(t.literal_name(c), "commit");
        assert_eq!(t.literal_name(c.complement()), "~commit");
    }

    #[test]
    fn polarity_flip() {
        assert_eq!(Polarity::Pos.flipped(), Polarity::Neg);
        assert_eq!(Polarity::Neg.flipped(), Polarity::Pos);
    }
}
