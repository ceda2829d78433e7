//! Hash-consed expression arena: the interned DAG representation of `E`.
//!
//! [`Expr`] is a deep tree of `Vec<Expr>`; every memo table keyed on it
//! hashes and clones whole subtrees. The arena interns each distinct
//! subterm exactly once and hands out a `Copy`-able [`ExprId`], so
//!
//! - structural equality and hashing are O(1) (id comparison),
//! - shared subterms cost nothing to "clone",
//! - memo caches for [`normalize`](ExprArena::normalize) and
//!   [`residuate`](ExprArena::residuate) persist across calls — the
//!   second residuation of a state is a table lookup.
//!
//! The arena's one job is compiling: [`crate::DependencyMachine`]s are
//! built on it. Questions about a state (satisfiable? required?) are
//! answered by the machine's tables at run time and by the tree algebra
//! (`residue.rs`) as the reference.
//!
//! The arena's smart constructors maintain the same canonical invariants
//! as [`Expr`]'s ([`Expr::seq`]/[`Expr::or`]/[`Expr::and`]): flattened
//! n-ary nodes, unit and annihilator collapse, sorted-and-deduplicated
//! `+`/`|` children (sorted by id rather than by tree order — the child
//! *multiset* is identical, so [`ExprArena::expr`] round-trips through the
//! tree constructors to the same canonical [`Expr`]). The tree
//! implementation stays as the reference oracle; the property suite in
//! `tests/arena_oracle.rs` checks agreement on random expressions.
//!
//! Storage is flat: a node is a kind and two spans, one into a shared
//! pool of children and one into a shared pool of symbols, and the
//! interning index is an open-addressed table of ids that hashes a
//! candidate's children where they are gathered (a stack the
//! constructors share) and probes the pool to compare. Interning a node
//! allocates nothing of its own; the arena's few buffers grow, and a
//! compile sizes them up front ([`ExprArena::reserve`]).

use crate::expr::{rank_literal, Expr};
use crate::fxhash::{FxHashMap, FxHasher};
use crate::symbol::{Literal, SymbolId};
use std::hash::Hasher;
use std::ops::Range;

/// Interned handle to an expression in an [`ExprArena`].
///
/// Ids are only meaningful relative to the arena that produced them. Two
/// ids from the same arena are equal iff the expressions are structurally
/// equal (hash-consing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExprId(u32);

impl ExprId {
    /// Dense index of this node, usable for side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What an interned node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Zero,
    Top,
    Lit,
    Seq,
    Or,
    And,
}

/// One interned node: a kind and two spans into the arena's pools. A
/// literal's span is its one symbol, and `lit` holds it; an n-ary node's
/// children are `kids[kids.start..kids.end]` of [`ExprArena::kids`].
/// Every node's sorted, deduplicated symbols (`Γ_E` modulo polarity) are
/// its span of [`ExprArena::syms`].
#[derive(Debug, Clone, Copy)]
struct Node {
    kind: Kind,
    lit: Literal,
    kids: (u32, u32),
    syms: (u32, u32),
    /// `true` if no `+`/`|` occurs under `·` (precondition of R3/R7/R8).
    normal: bool,
}

/// A hash-consing arena for event expressions with persistent memo caches
/// for normalization and residuation. Nodes keep their children and
/// symbols as spans into two shared pools, and the interning index is an
/// open-addressed table of ids that probes those pools: a node costs no
/// allocation of its own.
#[derive(Debug, Clone)]
pub struct ExprArena {
    nodes: Vec<Node>,
    /// Every n-ary node's children, back to back.
    kids: Vec<ExprId>,
    /// Every node's symbols, back to back.
    syms: Vec<SymbolId>,
    /// The interning index: `id + 1` of the node hashed to each slot (by
    /// linear probing), 0 for an empty slot; never more than half full.
    slots: Vec<u32>,
    /// Children being gathered for a constructor: each call works above
    /// the height it found and leaves the stack there.
    stack: Vec<ExprId>,
    norm_cache: FxHashMap<ExprId, ExprId>,
    residue_cache: FxHashMap<(ExprId, Literal), ExprId>,
}

impl Default for ExprArena {
    fn default() -> Self {
        Self::new()
    }
}

/// Sort and deduplicate `v[from..]`.
fn sort_dedup<T: Ord + Copy>(v: &mut Vec<T>, from: usize) {
    v[from..].sort_unstable();
    let mut end = from;
    for k in from..v.len() {
        if end == from || v[end - 1] != v[k] {
            v[end] = v[k];
            end += 1;
        }
    }
    v.truncate(end);
}

/// Hash of a node by its content: its kind and its literal or children.
fn content_hash(kind: Kind, lit: Literal, kids: &[ExprId]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u8(kind as u8);
    match kind {
        Kind::Lit => h.write_u32(lit.index() as u32),
        _ => kids.iter().for_each(|k| h.write_u32(k.0)),
    }
    h.finish()
}

impl ExprArena {
    /// The interned `0`.
    pub const ZERO: ExprId = ExprId(0);
    /// The interned `⊤`.
    pub const TOP: ExprId = ExprId(1);

    /// An arena holding only the constants `0` and `⊤`, with room for
    /// the expressions of a few small dependencies.
    pub fn new() -> ExprArena {
        let mut arena = ExprArena {
            nodes: Vec::with_capacity(64),
            kids: Vec::with_capacity(128),
            syms: Vec::with_capacity(128),
            slots: vec![0; 128],
            stack: Vec::with_capacity(32),
            norm_cache: FxHashMap::default(),
            residue_cache: FxHashMap::default(),
        };
        let zero = arena.mk(Kind::Zero, Literal::from_index(0), 0);
        let top = arena.mk(Kind::Top, Literal::from_index(0), 0);
        debug_assert_eq!(zero, Self::ZERO);
        debug_assert_eq!(top, Self::TOP);
        arena
    }

    /// Room for `nodes` more interned nodes and `residuals` more memoized
    /// residuations without growing a table.
    pub fn reserve(&mut self, nodes: usize, residuals: usize) {
        self.nodes.reserve(nodes);
        self.kids.reserve(2 * nodes);
        self.syms.reserve(2 * nodes);
        self.grow_slots(self.nodes.len() + nodes);
        self.residue_cache.reserve(residuals);
    }

    /// Number of distinct interned subterms.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if only the constants are interned.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 2
    }

    fn kids_of(&self, node: Node) -> Range<usize> {
        node.kids.0 as usize..node.kids.1 as usize
    }

    /// Make the interning table big enough for `nodes` nodes at most
    /// half full, re-placing every node if it grows.
    fn grow_slots(&mut self, nodes: usize) {
        if 2 * nodes <= self.slots.len() {
            return;
        }
        let size = (2 * nodes).next_power_of_two();
        self.slots.clear();
        self.slots.resize(size, 0);
        for ix in 0..self.nodes.len() {
            let node = self.nodes[ix];
            let hash = content_hash(node.kind, node.lit, &self.kids[self.kids_of(node)]);
            let mut at = hash as usize & (size - 1);
            while self.slots[at] != 0 {
                at = (at + 1) & (size - 1);
            }
            self.slots[at] = ix as u32 + 1;
        }
    }

    /// Intern the node of `kind` over `lit` (a literal) or over the
    /// children `stack[from..]` (an n-ary node), and drop those from the
    /// stack.
    fn mk(&mut self, kind: Kind, lit: Literal, from: usize) -> ExprId {
        let hash = content_hash(kind, lit, &self.stack[from..]);
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        while let Some(id) = self.slots[at].checked_sub(1) {
            let node = self.nodes[id as usize];
            let same = node.kind == kind
                && match kind {
                    Kind::Lit => node.lit == lit,
                    _ => self.kids[self.kids_of(node)] == self.stack[from..],
                };
            if same {
                self.stack.truncate(from);
                return ExprId(id);
            }
            at = (at + 1) & mask;
        }
        let id = ExprId(u32::try_from(self.nodes.len()).expect("arena overflow"));
        self.slots[at] = id.0 + 1;
        let kids = (self.kids.len() as u32, (self.kids.len() + self.stack.len() - from) as u32);
        self.kids.extend_from_slice(&self.stack[from..]);
        self.stack.truncate(from);
        let syms_from = self.syms.len();
        let normal = match kind {
            Kind::Zero | Kind::Top => true,
            Kind::Lit => {
                self.syms.push(lit.symbol());
                true
            }
            Kind::Seq | Kind::Or | Kind::And => {
                let mut normal = true;
                for k in kids.0 as usize..kids.1 as usize {
                    let child = self.nodes[self.kids[k].index()];
                    normal &= match kind {
                        Kind::Seq => child.kind == Kind::Lit,
                        _ => child.normal,
                    };
                    self.syms.extend_from_within(child.syms.0 as usize..child.syms.1 as usize);
                }
                sort_dedup(&mut self.syms, syms_from);
                normal
            }
        };
        let syms = (syms_from as u32, self.syms.len() as u32);
        self.nodes.push(Node { kind, lit, kids, syms, normal });
        self.grow_slots(self.nodes.len());
        id
    }

    // ------------------------------------------------------------------
    // Smart constructors (mirror `Expr::{seq,or,and}` exactly).
    // ------------------------------------------------------------------

    /// The atom for literal `l`.
    pub fn lit(&mut self, l: Literal) -> ExprId {
        let from = self.stack.len();
        self.mk(Kind::Lit, l, from)
    }

    /// Smart constructor for `E₁ · E₂ · …` (see [`Expr::seq`]).
    pub fn seq(&mut self, parts: impl IntoIterator<Item = ExprId>) -> ExprId {
        let from = self.stack.len();
        self.stack.extend(parts);
        self.seq_from(from)
    }

    /// Smart constructor for `E₁ + E₂ + …` (see [`Expr::or`]).
    pub fn or(&mut self, parts: impl IntoIterator<Item = ExprId>) -> ExprId {
        let from = self.stack.len();
        self.stack.extend(parts);
        self.or_from(from)
    }

    /// Smart constructor for `E₁ | E₂ | …` (see [`Expr::and`]).
    pub fn and(&mut self, parts: impl IntoIterator<Item = ExprId>) -> ExprId {
        let from = self.stack.len();
        self.stack.extend(parts);
        self.and_from(from)
    }

    /// Replace the parts `stack[from..]` of an n-ary `kind` node with its
    /// flattened children — a part of the same kind contributes its own —
    /// skipping the unit; `false` if a part is the annihilator.
    fn flatten(&mut self, kind: Kind, from: usize, unit: ExprId, annihilator: ExprId) -> bool {
        let parts = self.stack.len();
        for ix in from..parts {
            let p = self.stack[ix];
            if p == annihilator {
                self.stack.truncate(from);
                return false;
            }
            let node = self.nodes[p.index()];
            if node.kind == kind {
                let kids = self.kids_of(node);
                self.stack.extend_from_slice(&self.kids[kids]);
            } else if p != unit {
                self.stack.push(p);
            }
        }
        self.stack.drain(from..parts);
        true
    }

    /// The one child `stack[from]` (dropped from the stack), if it is
    /// the only one.
    fn single(&mut self, from: usize) -> Option<ExprId> {
        (self.stack.len() == from + 1).then(|| self.stack.pop().expect("one child"))
    }

    /// [`ExprArena::seq`] of the parts `stack[from..]`.
    fn seq_from(&mut self, from: usize) -> ExprId {
        if !self.flatten(Kind::Seq, from, Self::TOP, Self::ZERO) {
            return Self::ZERO;
        }
        if self.stack.len() == from {
            return Self::TOP;
        }
        if let Some(only) = self.single(from) {
            return only;
        }
        // An all-literal sequence repeating a symbol denotes ∅.
        for k in from..self.stack.len() {
            let node = self.nodes[self.stack[k].index()];
            if node.kind != Kind::Lit {
                break;
            }
            let repeats = (from..k)
                .any(|j| self.nodes[self.stack[j].index()].lit.symbol() == node.lit.symbol());
            if repeats {
                self.stack.truncate(from);
                return Self::ZERO;
            }
        }
        self.mk(Kind::Seq, Literal::from_index(0), from)
    }

    /// [`ExprArena::or`] of the parts `stack[from..]`.
    fn or_from(&mut self, from: usize) -> ExprId {
        if !self.flatten(Kind::Or, from, Self::ZERO, Self::TOP) {
            return Self::TOP;
        }
        sort_dedup(&mut self.stack, from);
        if self.stack.len() == from {
            return Self::ZERO;
        }
        if let Some(only) = self.single(from) {
            return only;
        }
        self.mk(Kind::Or, Literal::from_index(0), from)
    }

    /// [`ExprArena::and`] of the parts `stack[from..]`.
    fn and_from(&mut self, from: usize) -> ExprId {
        if !self.flatten(Kind::And, from, Self::TOP, Self::ZERO) {
            return Self::ZERO;
        }
        sort_dedup(&mut self.stack, from);
        // e | ē denotes ∅.
        let lit = |arena: &ExprArena, k: usize| {
            let node = arena.nodes[arena.stack[k].index()];
            (node.kind == Kind::Lit).then_some(node.lit)
        };
        for k in from..self.stack.len() {
            let Some(l) = lit(self, k) else { continue };
            if (from..k).any(|j| lit(self, j).is_some_and(|m| m.is_complement_of(l))) {
                self.stack.truncate(from);
                return Self::ZERO;
            }
        }
        if self.stack.len() == from {
            return Self::TOP;
        }
        if let Some(only) = self.single(from) {
            return only;
        }
        self.mk(Kind::And, Literal::from_index(0), from)
    }

    /// The constructor of an n-ary `kind` over the parts `stack[from..]`.
    fn build(&mut self, kind: Kind, from: usize) -> ExprId {
        match kind {
            Kind::Seq => self.seq_from(from),
            Kind::Or => self.or_from(from),
            _ => self.and_from(from),
        }
    }

    // ------------------------------------------------------------------
    // Tree interchange.
    // ------------------------------------------------------------------

    /// Intern a tree expression. Children go through the arena smart
    /// constructors, so non-canonical trees are canonicalized on the way
    /// in (trees built via `Expr`'s own smart constructors are preserved
    /// structurally).
    pub fn intern(&mut self, e: &Expr) -> ExprId {
        self.intern_mapped(e, &|l| l)
    }

    /// Intern the [shape](Expr::shape) of `e` and return its binding:
    /// `(intern(&shape), binding)` for `(shape, binding) = e.shape()`,
    /// with the ranks substituted during the one interning walk instead
    /// of in a second tree. Hash-consing makes the id the shape's key:
    /// two dependencies have the same id iff they differ by an
    /// order-preserving renaming of their symbols.
    pub fn intern_shape(&mut self, e: &Expr) -> (ExprId, Vec<SymbolId>) {
        let binding = e.binding();
        let id = self.intern_mapped(e, &|l| rank_literal(&binding, l));
        (id, binding)
    }

    fn intern_mapped(&mut self, e: &Expr, f: &impl Fn(Literal) -> Literal) -> ExprId {
        let (kind, parts) = match e {
            Expr::Zero => return Self::ZERO,
            Expr::Top => return Self::TOP,
            Expr::Lit(l) => return self.lit(f(*l)),
            Expr::Seq(v) => (Kind::Seq, v),
            Expr::Or(v) => (Kind::Or, v),
            Expr::And(v) => (Kind::And, v),
        };
        let from = self.stack.len();
        for p in parts {
            let id = self.intern_mapped(p, f);
            self.stack.push(id);
        }
        self.build(kind, from)
    }

    /// Materialize `id` back into a canonical tree [`Expr`]. Rebuilding
    /// through the tree smart constructors restores `Expr`'s child order
    /// for `+`/`|`, so `expr(intern(e)) == e` for canonical `e`.
    pub fn expr(&self, id: ExprId) -> Expr {
        let node = self.nodes[id.index()];
        let kids = self.kids[self.kids_of(node)].iter().map(|&c| self.expr(c));
        match node.kind {
            Kind::Zero => Expr::Zero,
            Kind::Top => Expr::Top,
            Kind::Lit => Expr::Lit(node.lit),
            Kind::Seq => Expr::seq(kids),
            Kind::Or => Expr::or(kids),
            Kind::And => Expr::and(kids),
        }
    }

    // ------------------------------------------------------------------
    // Queries (O(1) via per-node meta).
    // ------------------------------------------------------------------

    /// `true` for the interned `0`.
    pub fn is_zero(&self, id: ExprId) -> bool {
        id == Self::ZERO
    }

    /// `true` for the interned `⊤`.
    pub fn is_top(&self, id: ExprId) -> bool {
        id == Self::TOP
    }

    /// Sorted symbols mentioned by `id` (`Γ_E` modulo polarity).
    pub fn symbols(&self, id: ExprId) -> &[SymbolId] {
        let (start, end) = self.nodes[id.index()].syms;
        &self.syms[start as usize..end as usize]
    }

    /// `true` if `sym` (either polarity) is mentioned by `id`.
    pub fn mentions(&self, id: ExprId, sym: SymbolId) -> bool {
        self.symbols(id).binary_search(&sym).is_ok()
    }

    /// `true` if `id` has no `+`/`|` under `·` (cached at intern time).
    pub fn is_normal(&self, id: ExprId) -> bool {
        self.nodes[id.index()].normal
    }

    /// `Γ_E` as a sorted literal vector: both polarities of every
    /// mentioned symbol (agrees with [`Expr::gamma`] iteration order).
    pub fn alphabet(&self, id: ExprId) -> Vec<Literal> {
        (self.symbols(id).iter()).flat_map(|&s| [Literal::pos(s), Literal::neg(s)]).collect()
    }

    // ------------------------------------------------------------------
    // Memoized algebra operations.
    // ------------------------------------------------------------------

    /// Normalize `id` into the `·`-over-`+`/`|`-free form required by the
    /// residuation rules. Already-normal nodes return themselves without a
    /// cache probe; results persist for the arena's lifetime.
    pub fn normalize(&mut self, id: ExprId) -> ExprId {
        let node = self.nodes[id.index()];
        if node.normal {
            return id;
        }
        if let Some(&n) = self.norm_cache.get(&id) {
            return n;
        }
        let n = match node.kind {
            Kind::Zero | Kind::Top | Kind::Lit => id,
            Kind::Or | Kind::And => {
                let from = self.stack.len();
                for k in self.kids_of(node) {
                    let c = self.normalize(self.kids[k]);
                    self.stack.push(c);
                }
                self.build(node.kind, from)
            }
            Kind::Seq => {
                let mut acc = Self::TOP;
                for k in self.kids_of(node) {
                    let nc = self.normalize(self.kids[k]);
                    acc = self.product(acc, nc);
                }
                acc
            }
        };
        self.norm_cache.insert(id, n);
        n
    }

    /// The normalized product `a · b` of two normal expressions,
    /// distributing `·` outward over `+` and `|` on either side (mirrors
    /// `norm::product`).
    fn product(&mut self, a: ExprId, b: ExprId) -> ExprId {
        let (na, nb) = (self.nodes[a.index()], self.nodes[b.index()]);
        let (kind, left) = match (na.kind, nb.kind) {
            (Kind::Zero, _) | (_, Kind::Zero) => return Self::ZERO,
            (Kind::Top, _) => return b,
            (_, Kind::Top) => return a,
            (Kind::Or, _) => (Kind::Or, true),
            (_, Kind::Or) => (Kind::Or, false),
            (Kind::And, _) => (Kind::And, true),
            (_, Kind::And) => (Kind::And, false),
            _ => return self.seq([a, b]),
        };
        let from = self.stack.len();
        for k in self.kids_of(if left { na } else { nb }) {
            let c = self.kids[k];
            let p = if left { self.product(c, b) } else { self.product(a, c) };
            self.stack.push(p);
        }
        self.build(kind, from)
    }

    /// Symbolic residuation `id / by` (rules R1–R8). Normalizes first if
    /// needed; the result is again normal. Memoized persistently on
    /// `(ExprId, Literal)`.
    pub fn residuate(&mut self, id: ExprId, by: Literal) -> ExprId {
        let n = self.normalize(id);
        self.residuate_normal(n, by)
    }

    /// Residuation on an id known to be normal.
    pub fn residuate_normal(&mut self, id: ExprId, by: Literal) -> ExprId {
        let node = self.nodes[id.index()];
        debug_assert!(node.normal);
        if let Some(&r) = self.residue_cache.get(&(id, by)) {
            return r;
        }
        let r = match node.kind {
            // R1: 0/e = 0.  R2: ⊤/e = ⊤.
            Kind::Zero => Self::ZERO,
            Kind::Top => Self::TOP,
            Kind::Lit => {
                if node.lit == by {
                    Self::TOP // R3 with empty tail.
                } else if node.lit.is_complement_of(by) {
                    Self::ZERO // R8 degenerate.
                } else {
                    id // R6.
                }
            }
            // R4/R5: distribute over + and |.
            Kind::Or | Kind::And => {
                let from = self.stack.len();
                for k in self.kids_of(node) {
                    let c = self.residuate_normal(self.kids[k], by);
                    self.stack.push(c);
                }
                self.build(node.kind, from)
            }
            Kind::Seq => {
                let head = self.nodes[self.kids[node.kids.0 as usize].index()];
                if !self.mentions(id, by.symbol()) {
                    id // R6.
                } else if head.kind == Kind::Lit && head.lit == by {
                    // R3: (e·E)/e = E.
                    let from = self.stack.len();
                    let tail = node.kids.0 as usize + 1..node.kids.1 as usize;
                    self.stack.extend_from_slice(&self.kids[tail]);
                    self.seq_from(from)
                } else {
                    Self::ZERO // R7/R8.
                }
            }
        };
        self.residue_cache.insert((id, by), r);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::residue::residuate;
    use crate::symbol::SymbolTable;
    use crate::{normalize, Expr};

    fn setup() -> (SymbolTable, Literal, Literal) {
        let mut t = SymbolTable::new();
        let e = t.event("e");
        let f = t.event("f");
        (t, e, f)
    }

    fn d_precedes(e: Literal, f: Literal) -> Expr {
        Expr::or([
            Expr::lit(e.complement()),
            Expr::lit(f.complement()),
            Expr::seq([Expr::lit(e), Expr::lit(f)]),
        ])
    }

    #[test]
    fn round_trips_canonical_trees() {
        let (mut t, e, f) = setup();
        let g = t.event("g");
        let cases = [
            Expr::Top,
            Expr::Zero,
            Expr::lit(e),
            d_precedes(e, f),
            Expr::or([Expr::lit(e.complement()), Expr::lit(f)]),
            Expr::and([Expr::lit(e), Expr::or([Expr::lit(f), Expr::lit(g.complement())])]),
            Expr::seq([Expr::lit(e), Expr::lit(f), Expr::lit(g)]),
        ];
        let mut arena = ExprArena::new();
        for c in cases {
            let id = arena.intern(&c);
            assert_eq!(arena.expr(id), c, "round trip of {c}");
        }
    }

    #[test]
    fn interning_is_hash_consed() {
        let (_, e, f) = setup();
        let mut arena = ExprArena::new();
        let a = arena.intern(&d_precedes(e, f));
        let b = arena.intern(&d_precedes(e, f));
        assert_eq!(a, b);
        let before = arena.len();
        let _ = arena.intern(&d_precedes(e, f));
        assert_eq!(arena.len(), before, "re-interning allocates nothing");
    }

    #[test]
    fn intern_shape_is_intern_of_the_shape() {
        let lit = |s: u32| Expr::event(SymbolId(s));
        let cases = [
            Expr::Top,
            lit(9),
            Expr::or([Expr::comp(SymbolId(7)), Expr::seq([lit(3), lit(40)])]),
            Expr::and([lit(12), Expr::or([lit(5), Expr::comp(SymbolId(30))])]),
        ];
        let mut arena = ExprArena::new();
        for d in cases {
            let (shape, binding) = d.shape();
            assert_eq!(arena.intern_shape(&d), (arena.intern(&shape), binding), "{d}");
        }
        // One key for every order-preserving renaming, another otherwise.
        let arrow = |a: u32, b: u32| Expr::or([Expr::comp(SymbolId(a)), lit(b)]);
        let key = |arena: &mut ExprArena, d: &Expr| arena.intern_shape(d).0;
        assert_eq!(key(&mut arena, &arrow(1, 2)), key(&mut arena, &arrow(10, 77)));
        assert_ne!(key(&mut arena, &arrow(1, 2)), key(&mut arena, &arrow(2, 1)));
    }

    #[test]
    fn constructors_mirror_tree_invariants() {
        let (_, e, f) = setup();
        let mut arena = ExprArena::new();
        let le = arena.lit(e);
        let lne = arena.lit(e.complement());
        let lf = arena.lit(f);
        // e + 0 = e; e + ⊤ = ⊤; e|ē = 0; e·e = 0; ⊤ units drop.
        let ze = ExprArena::ZERO;
        assert_eq!(arena.or([ze, le]), le);
        assert_eq!(arena.or([ExprArena::TOP, le]), ExprArena::TOP);
        assert_eq!(arena.and([le, lne]), ExprArena::ZERO);
        assert_eq!(arena.seq([le, le]), ExprArena::ZERO);
        assert_eq!(arena.seq([ExprArena::TOP, lf, ExprArena::TOP]), lf);
        // Or is idempotent and order-insensitive.
        assert_eq!(arena.or([lf, le]), arena.or([le, lf]));
    }

    #[test]
    fn residuate_agrees_with_tree_on_paper_walks() {
        let (_, e, f) = setup();
        let d = d_precedes(e, f);
        let mut arena = ExprArena::new();
        let id = arena.intern(&d);
        for by in [e, e.complement(), f, f.complement()] {
            let r = arena.residuate(id, by);
            assert_eq!(arena.expr(r), residuate(&d, by), "D</{by}");
            // Second level of the walk.
            for by2 in [e, e.complement(), f, f.complement()] {
                let r2 = arena.residuate(r, by2);
                assert_eq!(arena.expr(r2), residuate(&residuate(&d, by), by2), "D</{by}/{by2}");
            }
        }
    }

    #[test]
    fn normalize_agrees_with_tree() {
        let (mut t, e, f) = setup();
        let g = t.event("g");
        // (e+f)·g needs distribution.
        let raw = Expr::Seq(vec![Expr::Or(vec![Expr::lit(e), Expr::lit(f)]), Expr::lit(g)]);
        let mut arena = ExprArena::new();
        let id = arena.intern(&raw);
        let n = arena.normalize(id);
        assert!(arena.is_normal(n));
        assert_eq!(arena.expr(n), normalize(&raw));
    }

    #[test]
    fn memo_caches_persist_across_calls() {
        let (_, e, f) = setup();
        let mut arena = ExprArena::new();
        let id = arena.intern(&d_precedes(e, f));
        let r1 = arena.residuate(id, e);
        let nodes_after_first = arena.len();
        let r2 = arena.residuate(id, e);
        assert_eq!(r1, r2);
        assert_eq!(arena.len(), nodes_after_first, "memo hit allocates nothing");
    }

    #[test]
    fn alphabet_matches_gamma_order() {
        let (_, e, f) = setup();
        let d = d_precedes(e, f);
        let mut arena = ExprArena::new();
        let id = arena.intern(&d);
        let tree: Vec<Literal> = d.gamma().into_iter().collect();
        assert_eq!(arena.alphabet(id), tree);
    }
}
