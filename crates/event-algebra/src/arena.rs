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

use crate::expr::{rank_literal, Expr};
use crate::fxhash::FxHashMap;
use crate::symbol::{Literal, SymbolId};
use std::collections::BTreeSet;
use std::sync::Arc;

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

/// One interned node: children are ids, not trees. The child list is
/// shared, so the node table, the interning index and a walk that holds a
/// node while it extends the arena all copy a pointer, not the list.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Node {
    Zero,
    Top,
    Lit(Literal),
    Seq(Arc<[ExprId]>),
    Or(Arc<[ExprId]>),
    And(Arc<[ExprId]>),
}

/// Per-node cached facts, computed once at interning time.
#[derive(Debug, Clone)]
struct Meta {
    /// Sorted, deduplicated symbols mentioned by the node (`Γ_E` modulo
    /// polarity).
    syms: Box<[SymbolId]>,
    /// `true` if no `+`/`|` occurs under `·` (precondition of R3/R7/R8).
    normal: bool,
}

/// A hash-consing arena for event expressions with persistent memo caches
/// for normalization and residuation.
#[derive(Debug, Clone)]
pub struct ExprArena {
    nodes: Vec<Node>,
    meta: Vec<Meta>,
    index: FxHashMap<Node, ExprId>,
    norm_cache: FxHashMap<ExprId, ExprId>,
    residue_cache: FxHashMap<(ExprId, Literal), ExprId>,
}

impl Default for ExprArena {
    fn default() -> Self {
        Self::new()
    }
}

impl ExprArena {
    /// The interned `0`.
    pub const ZERO: ExprId = ExprId(0);
    /// The interned `⊤`.
    pub const TOP: ExprId = ExprId(1);

    /// An arena holding only the constants `0` and `⊤`.
    pub fn new() -> ExprArena {
        let mut arena = ExprArena {
            nodes: Vec::new(),
            meta: Vec::new(),
            index: FxHashMap::default(),
            norm_cache: FxHashMap::default(),
            residue_cache: FxHashMap::default(),
        };
        let zero = arena.mk(Node::Zero);
        let top = arena.mk(Node::Top);
        debug_assert_eq!(zero, Self::ZERO);
        debug_assert_eq!(top, Self::TOP);
        arena
    }

    /// Room for `nodes` more interned nodes and `residuals` more memoized
    /// residuations without growing a table.
    pub fn reserve(&mut self, nodes: usize, residuals: usize) {
        self.nodes.reserve(nodes);
        self.meta.reserve(nodes);
        self.index.reserve(nodes);
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

    fn mk(&mut self, node: Node) -> ExprId {
        if let Some(&id) = self.index.get(&node) {
            return id;
        }
        let meta = self.meta_of(&node);
        let id = ExprId(u32::try_from(self.nodes.len()).expect("arena overflow"));
        self.nodes.push(node.clone());
        self.meta.push(meta);
        self.index.insert(node, id);
        id
    }

    fn meta_of(&self, node: &Node) -> Meta {
        match node {
            Node::Zero | Node::Top => Meta { syms: Box::new([]), normal: true },
            Node::Lit(l) => Meta { syms: Box::new([l.symbol()]), normal: true },
            Node::Seq(v) => Meta {
                syms: self.merge_syms(v),
                normal: v.iter().all(|&c| matches!(self.nodes[c.index()], Node::Lit(_))),
            },
            Node::Or(v) | Node::And(v) => Meta {
                syms: self.merge_syms(v),
                normal: v.iter().all(|&c| self.meta[c.index()].normal),
            },
        }
    }

    fn merge_syms(&self, kids: &[ExprId]) -> Box<[SymbolId]> {
        let mut syms: Vec<SymbolId> = Vec::new();
        for &c in kids {
            syms.extend_from_slice(&self.meta[c.index()].syms);
        }
        syms.sort_unstable();
        syms.dedup();
        syms.into_boxed_slice()
    }

    // ------------------------------------------------------------------
    // Smart constructors (mirror `Expr::{seq,or,and}` exactly).
    // ------------------------------------------------------------------

    /// The atom for literal `l`.
    pub fn lit(&mut self, l: Literal) -> ExprId {
        self.mk(Node::Lit(l))
    }

    /// Smart constructor for `E₁ · E₂ · …` (see [`Expr::seq`]).
    pub fn seq(&mut self, parts: impl IntoIterator<Item = ExprId>) -> ExprId {
        let mut out: Vec<ExprId> = Vec::new();
        for p in parts {
            match &self.nodes[p.index()] {
                Node::Zero => return Self::ZERO,
                Node::Top => {}
                Node::Seq(inner) => out.extend(inner.iter().copied()),
                _ => out.push(p),
            }
        }
        match out.len() {
            0 => Self::TOP,
            1 => out[0],
            _ => {
                // An all-literal sequence repeating a symbol denotes ∅.
                let mut syms = BTreeSet::new();
                for &p in &out {
                    match self.nodes[p.index()] {
                        Node::Lit(l) => {
                            if !syms.insert(l.symbol()) {
                                return Self::ZERO;
                            }
                        }
                        _ => break,
                    }
                }
                self.mk(Node::Seq(Arc::from(out)))
            }
        }
    }

    /// Smart constructor for `E₁ + E₂ + …` (see [`Expr::or`]).
    pub fn or(&mut self, parts: impl IntoIterator<Item = ExprId>) -> ExprId {
        let mut out: Vec<ExprId> = Vec::new();
        for p in parts {
            match &self.nodes[p.index()] {
                Node::Zero => {}
                Node::Top => return Self::TOP,
                Node::Or(inner) => out.extend(inner.iter().copied()),
                _ => out.push(p),
            }
        }
        out.sort_unstable();
        out.dedup();
        match out.len() {
            0 => Self::ZERO,
            1 => out[0],
            _ => self.mk(Node::Or(Arc::from(out))),
        }
    }

    /// Smart constructor for `E₁ | E₂ | …` (see [`Expr::and`]).
    pub fn and(&mut self, parts: impl IntoIterator<Item = ExprId>) -> ExprId {
        let mut out: Vec<ExprId> = Vec::new();
        for p in parts {
            match &self.nodes[p.index()] {
                Node::Top => {}
                Node::Zero => return Self::ZERO,
                Node::And(inner) => out.extend(inner.iter().copied()),
                _ => out.push(p),
            }
        }
        out.sort_unstable();
        out.dedup();
        // e | ē denotes ∅: complementary literals always sort adjacent.
        let mut lits: Vec<Literal> = out
            .iter()
            .filter_map(|&p| match self.nodes[p.index()] {
                Node::Lit(l) => Some(l),
                _ => None,
            })
            .collect();
        lits.sort_unstable();
        for w in lits.windows(2) {
            if w[0].is_complement_of(w[1]) {
                return Self::ZERO;
            }
        }
        match out.len() {
            0 => Self::TOP,
            1 => out[0],
            _ => self.mk(Node::And(Arc::from(out))),
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
        match e {
            Expr::Zero => Self::ZERO,
            Expr::Top => Self::TOP,
            Expr::Lit(l) => self.lit(f(*l)),
            Expr::Seq(v) => {
                let kids: Vec<ExprId> = v.iter().map(|p| self.intern_mapped(p, f)).collect();
                self.seq(kids)
            }
            Expr::Or(v) => {
                let kids: Vec<ExprId> = v.iter().map(|p| self.intern_mapped(p, f)).collect();
                self.or(kids)
            }
            Expr::And(v) => {
                let kids: Vec<ExprId> = v.iter().map(|p| self.intern_mapped(p, f)).collect();
                self.and(kids)
            }
        }
    }

    /// Materialize `id` back into a canonical tree [`Expr`]. Rebuilding
    /// through the tree smart constructors restores `Expr`'s child order
    /// for `+`/`|`, so `expr(intern(e)) == e` for canonical `e`.
    pub fn expr(&self, id: ExprId) -> Expr {
        match &self.nodes[id.index()] {
            Node::Zero => Expr::Zero,
            Node::Top => Expr::Top,
            Node::Lit(l) => Expr::Lit(*l),
            Node::Seq(v) => Expr::seq(v.iter().map(|&c| self.expr(c))),
            Node::Or(v) => Expr::or(v.iter().map(|&c| self.expr(c))),
            Node::And(v) => Expr::and(v.iter().map(|&c| self.expr(c))),
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
        &self.meta[id.index()].syms
    }

    /// `true` if `sym` (either polarity) is mentioned by `id`.
    pub fn mentions(&self, id: ExprId, sym: SymbolId) -> bool {
        self.meta[id.index()].syms.binary_search(&sym).is_ok()
    }

    /// `true` if `id` has no `+`/`|` under `·` (cached at intern time).
    pub fn is_normal(&self, id: ExprId) -> bool {
        self.meta[id.index()].normal
    }

    /// `Γ_E` as a sorted literal vector: both polarities of every
    /// mentioned symbol (agrees with [`Expr::gamma`] iteration order).
    pub fn alphabet(&self, id: ExprId) -> Vec<Literal> {
        self.meta[id.index()]
            .syms
            .iter()
            .flat_map(|&s| [Literal::pos(s), Literal::neg(s)])
            .collect()
    }

    // ------------------------------------------------------------------
    // Memoized algebra operations.
    // ------------------------------------------------------------------

    /// Normalize `id` into the `·`-over-`+`/`|`-free form required by the
    /// residuation rules. Already-normal nodes return themselves without a
    /// cache probe; results persist for the arena's lifetime.
    pub fn normalize(&mut self, id: ExprId) -> ExprId {
        if self.meta[id.index()].normal {
            return id;
        }
        if let Some(&n) = self.norm_cache.get(&id) {
            return n;
        }
        let n = match self.nodes[id.index()].clone() {
            Node::Zero | Node::Top | Node::Lit(_) => id,
            Node::Or(v) => {
                let kids: Vec<ExprId> = v.iter().map(|&c| self.normalize(c)).collect();
                self.or(kids)
            }
            Node::And(v) => {
                let kids: Vec<ExprId> = v.iter().map(|&c| self.normalize(c)).collect();
                self.and(kids)
            }
            Node::Seq(v) => {
                let mut acc = Self::TOP;
                for &c in v.iter() {
                    let nc = self.normalize(c);
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
        match (self.nodes[a.index()].clone(), self.nodes[b.index()].clone()) {
            (Node::Zero, _) | (_, Node::Zero) => Self::ZERO,
            (Node::Top, _) => b,
            (_, Node::Top) => a,
            (Node::Or(xs), _) => {
                let kids: Vec<ExprId> = xs.iter().map(|&x| self.product(x, b)).collect();
                self.or(kids)
            }
            (_, Node::Or(ys)) => {
                let kids: Vec<ExprId> = ys.iter().map(|&y| self.product(a, y)).collect();
                self.or(kids)
            }
            (Node::And(xs), _) => {
                let kids: Vec<ExprId> = xs.iter().map(|&x| self.product(x, b)).collect();
                self.and(kids)
            }
            (_, Node::And(ys)) => {
                let kids: Vec<ExprId> = ys.iter().map(|&y| self.product(a, y)).collect();
                self.and(kids)
            }
            _ => self.seq([a, b]),
        }
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
        debug_assert!(self.meta[id.index()].normal);
        if let Some(&r) = self.residue_cache.get(&(id, by)) {
            return r;
        }
        let r = match self.nodes[id.index()].clone() {
            // R1: 0/e = 0.  R2: ⊤/e = ⊤.
            Node::Zero => Self::ZERO,
            Node::Top => Self::TOP,
            Node::Lit(l) => {
                if l == by {
                    Self::TOP // R3 with empty tail.
                } else if l.is_complement_of(by) {
                    Self::ZERO // R8 degenerate.
                } else {
                    id // R6.
                }
            }
            // R4/R5: distribute over + and |.
            Node::Or(v) => {
                let kids: Vec<ExprId> = v.iter().map(|&c| self.residuate_normal(c, by)).collect();
                self.or(kids)
            }
            Node::And(v) => {
                let kids: Vec<ExprId> = v.iter().map(|&c| self.residuate_normal(c, by)).collect();
                self.and(kids)
            }
            Node::Seq(v) => {
                if !self.mentions(id, by.symbol()) {
                    id // R6.
                } else if self.nodes[v[0].index()] == Node::Lit(by) {
                    // R3: (e·E)/e = E.
                    let tail: Vec<ExprId> = v[1..].to_vec();
                    self.seq(tail)
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
