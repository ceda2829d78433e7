//! Canonical guard representation and the simplifier (Sections 4.2–4.3).
//!
//! At any (maximal trace, index) pair, each symbol `s` is in exactly one
//! of four *knowledge states*:
//!
//! | state | meaning                                   | atoms true        |
//! |-------|-------------------------------------------|-------------------|
//! | `A`   | `e` has occurred                          | `□e ◇e ¬ē`        |
//! | `B`   | `ē` has occurred                          | `□ē ◇ē ¬e`        |
//! | `C`   | neither yet; `e` will occur               | `◇e ¬e ¬ē`        |
//! | `D`   | neither yet; `ē` will occur               | `◇ē ¬e ¬ē`        |
//!
//! Every guard atom over a literal (`□l`, `◇l`, `¬l`) denotes a subset of
//! `{A,B,C,D}`, so a conjunction of atoms is a *mask* per symbol, and a
//! guard is a union of such conjuncts (DNF). On this representation the
//! identities of Example 8 — `◇e + ◇ē = ⊤`, `◇e | ◇ē = 0`, `¬e + □e = ⊤`,
//! `¬e | □e = 0`, `¬e + □ē = ¬e` — are decided *exactly* by mask algebra.
//!
//! The one construct that escapes per-symbol masks is `◇(E)` for a
//! sequence `E = l₁·l₂·…` (order matters across symbols). Those are kept
//! as symbolic atoms and never reduced by facts: a guard carrying one is
//! evaluated on traces ([`Guard::eval`]) or weakened first by Definition
//! 2's "small insight" ([`Guard::weaken_sequences`]: sequences become
//! conjunctions, sound because the other events' guards enforce the
//! order). Facts enter a guard in one way, as the set of facts heard
//! ([`Guard::under`]), so the result never depends on their order.
//!
//! One test decides validity: the cofactor walk behind
//! [`Guard::covered`] — does the guard hold on every assignment of a
//! possible state to each symbol? — which [`Guard::is_top`] and
//! [`Guard::equiv_masks`] run too. It splits on one symbol at a time, is
//! exact at any number of symbols, and works on a caller's reusable
//! stack ([`CoverScratch`]), so an actor's guard table deciding whether
//! a guard holds on every state its facts allow does not allocate for
//! it.
//!
//! Two properties of the representation carry the workflow compile.
//! *Equivariance*: masks are sorted by symbol, sequence atoms and
//! conjuncts lexicographically, and the canonicaliser scans in that
//! order, so every operation commutes with an order-preserving renaming
//! of the symbols and a guard synthesized over symbol ranks is
//! [rebound](Guard::rebind) rather than recomputed. *Disjoint products*:
//! the conjunction of canonical guards over disjoint symbol sets has
//! nothing to absorb or merge, so [`Guard::and`] returns the sorted cross
//! product — the representation-level twin of Theorems 2/4, and the
//! reason a compiled guard is kept as a [`crate::FactoredGuard`] and
//! never multiplied out at run time.

use crate::cells::{Cell, Cells};
use crate::texpr::TExpr;
use event_algebra::{normalize, Expr, Literal, Polarity, SymbolId, Trace};
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// Bit for state `A` (the event occurred).
pub const ST_A: u8 = 1;
/// Bit for state `B` (the complement occurred).
pub const ST_B: u8 = 2;
/// Bit for state `C` (neither yet; the event will occur).
pub const ST_C: u8 = 4;
/// Bit for state `D` (neither yet; the complement will occur).
pub const ST_D: u8 = 8;
/// All four states — an unconstrained symbol.
pub const ST_FULL: u8 = 15;

/// The mask of `□l`: the literal has occurred.
pub fn occurred_mask(pol: Polarity) -> u8 {
    match pol {
        Polarity::Pos => ST_A,
        Polarity::Neg => ST_B,
    }
}

/// The mask of `◇l`: the literal has occurred or is guaranteed to.
pub fn eventually_mask(pol: Polarity) -> u8 {
    match pol {
        Polarity::Pos => ST_A | ST_C,
        Polarity::Neg => ST_B | ST_D,
    }
}

/// The mask of `¬l`: the literal has not occurred yet.
pub fn not_yet_mask(pol: Polarity) -> u8 {
    match pol {
        Polarity::Pos => ST_B | ST_C | ST_D,
        Polarity::Neg => ST_A | ST_C | ST_D,
    }
}

/// `u ⊨ l₁·l₂·…·lₖ` for a sequence atom (pure literals, the only form a
/// canonical [`Conjunct`] stores). Semantics 3 asks for a consecutive
/// split of `u` whose parts contain the factors pointwise; for literal
/// factors that is exactly an in-order subsequence match, decided in one
/// linear scan. The naive route — build an `Expr::Seq` and call
/// `satisfies`, which enumerates (and clones) every split — is what the
/// online monitor used to pay on every faithful-guard check.
fn seq_satisfied(u: &Trace, seq: &[Literal]) -> bool {
    let mut need = seq.iter();
    let mut next = need.next();
    for &l in u.events() {
        match next {
            None => break,
            Some(&want) if want == l => next = need.next(),
            Some(_) => {}
        }
    }
    next.is_none()
}

/// The knowledge state of `sym` on maximal trace `u` at index `i`.
pub fn state_on(u: &Trace, i: usize, sym: SymbolId) -> u8 {
    let pos = Literal::pos(sym);
    let neg = Literal::neg(sym);
    if u.contains_by(pos, i) {
        ST_A
    } else if u.contains_by(neg, i) {
        ST_B
    } else if u.contains(pos) {
        ST_C
    } else if u.contains(neg) {
        ST_D
    } else {
        panic!("trace {u} is not maximal for symbol {sym}");
    }
}

/// The signature bit of `sym`: conjunct signatures are 64-bit Bloom
/// words over the constrained symbols, so two symbols may share a bit and
/// every signature test below is a one-sided filter.
fn sig_bit(sym: SymbolId) -> u64 {
    1 << (sym.0 & 63)
}

/// `small ⊆ big` for two sorted, deduplicated slices.
fn sorted_subset<T: Ord>(small: &[T], big: &[T]) -> bool {
    let mut rest = big.iter();
    small.iter().all(|x| rest.by_ref().find(|y| *y >= x) == Some(x))
}

/// Insert into a sorted, deduplicated vector.
fn sorted_insert<T: Ord>(v: &mut Vec<T>, x: T) {
    if let Err(at) = v.binary_search(&x) {
        v.insert(at, x);
    }
}

/// One DNF conjunct: a mask per constrained symbol plus residual `◇(seq)`
/// atoms, both as flat sorted sequences — every binary operation on
/// conjuncts is a merge walk over them. The derived order (masks, then
/// sequence atoms, lexicographically) is the canonical conjunct order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Conjunct {
    /// Per-symbol state masks, sorted by symbol; absent symbols are
    /// unconstrained ([`ST_FULL`]). Invariant: stored masks are never `0`
    /// or `ST_FULL`. Inline up to `INLINE_CELLS` cells.
    masks: Cells,
    /// `◇(l₁·l₂·…)` atoms, sorted and deduplicated, each with ≥ 2 literals
    /// (single literals fold into the mask) over pairwise distinct
    /// symbols.
    seqs: Vec<Vec<Literal>>,
    /// The union of [`sig_bit`] over `masks`. A function of `masks`, so
    /// comparing it last leaves the derived order and equality unchanged.
    sig: u64,
}

impl Conjunct {
    /// The unconstrained conjunct (`⊤`).
    pub fn top() -> Conjunct {
        Conjunct::default()
    }

    /// `true` if no constraints remain — the conjunct (hence the guard)
    /// holds now.
    pub fn is_top(&self) -> bool {
        self.masks.is_empty() && self.seqs.is_empty()
    }

    fn position(&self, sym: SymbolId) -> Result<usize, usize> {
        self.masks.binary_search_by_key(&sym, |&(s, _)| s)
    }

    /// The mask for `sym` (`ST_FULL` when unconstrained).
    pub fn mask(&self, sym: SymbolId) -> u8 {
        if self.sig & sig_bit(sym) == 0 {
            return ST_FULL;
        }
        self.position(sym).map_or(ST_FULL, |at| self.masks[at].1)
    }

    /// Constrained symbols, in order.
    pub fn constrained_symbols(&self) -> impl Iterator<Item = (SymbolId, u8)> + '_ {
        self.masks.iter().copied()
    }

    /// The residual sequence atoms.
    pub fn seq_atoms(&self) -> impl Iterator<Item = &Vec<Literal>> {
        self.seqs.iter()
    }

    /// Intersect a mask constraint; returns `false` if the conjunct dies.
    #[must_use]
    fn constrain(&mut self, sym: SymbolId, mask: u8) -> bool {
        match self.position(sym) {
            // A stored mask is a proper subset of the states, and so is
            // anything it is intersected with.
            Ok(at) => {
                self.masks[at].1 &= mask;
                self.masks[at].1 != 0
            }
            Err(at) => {
                let m = mask & ST_FULL;
                if m != 0 && m != ST_FULL {
                    self.masks.insert(at, (sym, m));
                    self.sig |= sig_bit(sym);
                }
                m != 0
            }
        }
    }

    /// Replace `sym`'s mask by `mask` (dropping the entry at `ST_FULL`).
    fn set_mask(&mut self, sym: SymbolId, mask: u8) {
        match (self.position(sym), mask == ST_FULL) {
            (Ok(at), true) => {
                self.masks.remove(at);
                // Another symbol may share the bit: rebuild, not clear.
                self.sig = self.masks.iter().fold(0, |sig, &(s, _)| sig | sig_bit(s));
            }
            (Ok(at), false) => self.masks[at].1 = mask,
            (Err(_), true) => {}
            (Err(at), false) => {
                self.masks.insert(at, (sym, mask));
                self.sig |= sig_bit(sym);
            }
        }
    }

    /// The conjunction of two conjuncts; `None` if some symbol's masks
    /// are disjoint.
    fn meet(&self, other: &Conjunct) -> Option<Conjunct> {
        let (a, b): (&[Cell], &[Cell]) = (&self.masks, &other.masks);
        let mut masks = Cells::default();
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Less => {
                    masks.push(a[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    masks.push(b[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    let m = a[i].1 & b[j].1;
                    if m == 0 {
                        return None;
                    }
                    masks.push((a[i].0, m));
                    i += 1;
                    j += 1;
                }
            }
        }
        masks.extend_from_slice(&a[i..]);
        masks.extend_from_slice(&b[j..]);
        let mut seqs = self.seqs.clone();
        for seq in &other.seqs {
            sorted_insert(&mut seqs, seq.clone());
        }
        Some(Conjunct { masks, seqs, sig: self.sig | other.sig })
    }

    /// `self` implies `other`: every state vector satisfying `self`
    /// satisfies `other` (used for absorption). `other`'s constrained
    /// symbols must then all be constrained here, which the signatures
    /// rule out for most pairs without looking at the masks.
    fn implies(&self, other: &Conjunct) -> bool {
        if other.sig & !self.sig != 0 {
            return false;
        }
        let mut mine = self.masks.iter();
        other.masks.iter().all(|&(s, om)| {
            mine.by_ref().find(|&&(t, _)| t >= s).is_some_and(|&(t, m)| t == s && m & !om == 0)
        }) && sorted_subset(&other.seqs, &self.seqs)
    }

    /// If the two conjuncts are identical except for one symbol's mask,
    /// that symbol and the union of its two masks.
    fn sibling(&self, other: &Conjunct) -> Option<(SymbolId, u8)> {
        if (self.sig ^ other.sig).count_ones() > 1 || self.seqs != other.seqs {
            return None;
        }
        let (a, b): (&[Cell], &[Cell]) = (&self.masks, &other.masks);
        let (mut i, mut j) = (0, 0);
        let mut only = None;
        while i < a.len() || j < b.len() {
            let (s, am, bm) = match (a.get(i), b.get(j)) {
                (Some(&(s, am)), Some(&(t, bm))) if s == t => (s, am, bm),
                (Some(&(s, am)), Some(&(t, _))) if s < t => (s, am, ST_FULL),
                (Some(&(s, am)), None) => (s, am, ST_FULL),
                (_, Some(&(t, bm))) => (t, ST_FULL, bm),
                (None, None) => unreachable!("loop condition"),
            };
            i += usize::from(am != ST_FULL);
            j += usize::from(bm != ST_FULL);
            if am != bm && only.replace((s, am | bm)).is_some() {
                return None;
            }
        }
        only
    }

    /// The masks as far as `known(s)`, the states each symbol can still be
    /// in, allows: each narrowed to it, one it implies discharged
    /// forever; `None` when one contradicts it (the conjunct dies).
    /// Sequence atoms are not kept.
    fn narrowed(&self, known: impl Fn(SymbolId) -> u8) -> Option<Conjunct> {
        let mut n = Conjunct { masks: Cells::with_capacity(self.masks.len()), ..Conjunct::top() };
        for &(s, m) in self.masks.iter() {
            let k = known(s) & ST_FULL;
            if k & m == 0 {
                return None;
            }
            if k & !m != 0 {
                n.masks.push((s, k & m));
                n.sig |= sig_bit(s);
            }
        }
        Some(n)
    }

    /// `true` if `known` narrows, discharges or contradicts some mask:
    /// [`Conjunct::narrowed`] would change the conjunct.
    fn open_under(&self, known: impl Fn(SymbolId) -> u8) -> bool {
        self.masks.iter().any(|&(s, m)| {
            let k = known(s) & ST_FULL;
            k & m != m || k & !m == 0
        })
    }

    /// Evaluate on a maximal trace at an index (sequence atoms are
    /// index-independent because embedded algebra expressions are
    /// index-monotone and the trace is maximal).
    pub fn eval(&self, u: &Trace, i: usize) -> bool {
        self.masks.iter().all(|&(s, m)| state_on(u, i, s) & m != 0)
            && self.seqs.iter().all(|seq| seq_satisfied(u, seq))
    }
}

/// A row of the cofactor walk: what is left of conjunct `conj` of guard
/// `side` once the symbols before its cell `at` are fixed to states it
/// admits.
#[derive(Debug, Clone, Copy)]
struct Row {
    side: u8,
    conj: u32,
    at: u32,
}

/// The masks admitting each state `1 << k`, by `k`, as 16-bit sets: bit
/// `m` is set iff mask `m` contains the state.
const ADMITTING: [u16; 4] = [0xAAAA, 0xCCCC, 0xF0F0, 0xFF00];

/// The cofactor walk's stack of rows. A caller that keeps one across
/// calls of [`Guard::covered`] walks without allocating once the stack
/// has grown to what its guards need.
#[derive(Debug, Clone, Default)]
pub struct CoverScratch {
    rows: Vec<Row>,
}

impl CoverScratch {
    /// `true` iff the conjuncts without `◇(sequence)` atoms of the two
    /// guards `g` hold on exactly the same assignments of a state in
    /// `possible(s)` to each symbol `s` — the kernel's one validity test;
    /// an empty `possible(s)` leaves nothing to tell them apart. Leaves
    /// the stack empty.
    fn agree(&mut self, g: [&[Conjunct]; 2], possible: impl Fn(SymbolId) -> u8) -> bool {
        for (side, cs) in (0..).zip(g) {
            let usable = (0..).zip(cs).filter(|(_, c)| c.seqs.is_empty());
            self.rows.extend(usable.map(|(conj, _)| Row { side, conj, at: 0 }));
        }
        let same = cofactors_agree(g, &mut self.rows, 0, [false; 2], &possible);
        self.rows.clear();
        same
    }
}

/// [`CoverScratch::agree`] on the rows `rows[from..]`, for guards that do
/// not hold yet, and `holds` for those that do. A guard with an empty row
/// holds on every assignment below, and one with no row on none: where
/// both guards are decided so, the walk stops. Otherwise it splits on the
/// smallest symbol the rows constrain and walks the cofactor of each of
/// its possible states: the rows the state admits, with the symbol
/// dropped (rows are sorted, so fixing it drops a row or its head).
/// States that select the same rows share one cofactor, pushed onto the
/// stack and popped again. Exact at any width, exponential only when the
/// guards are.
fn cofactors_agree(
    g: [&[Conjunct]; 2],
    rows: &mut Vec<Row>,
    from: usize,
    mut holds: [bool; 2],
    possible: &impl Fn(SymbolId) -> u8,
) -> bool {
    let cells = |r: Row| &g[usize::from(r.side)][r.conj as usize].masks[r.at as usize..];
    // Which guards still have rows, and the split: the smallest head and
    // the masks met on it.
    let (mut open, mut split) = ([false; 2], None);
    for &r in &rows[from..] {
        let Some(&(s, m)) = cells(r).first() else {
            holds[usize::from(r.side)] = true;
            continue;
        };
        open[usize::from(r.side)] = true;
        match split {
            Some((t, ref mut seen)) if t == s => *seen |= 1 << m,
            Some((t, _)) if t < s => {}
            _ => split = Some((s, 1u16 << m)),
        }
    }
    if let Some(same) = decided(holds, open) {
        return same;
    }
    let (sym, seen) = split.expect("an undecided guard has a row");
    let can = possible(sym);
    (0..4).filter(|&k| can >> k & 1 == 1).all(|k| {
        if (0..k).any(|j| can >> j & 1 == 1 && seen & ADMITTING[j] == seen & ADMITTING[k]) {
            return true;
        }
        let (st, to) = (1 << k, rows.len());
        let (mut below, mut open) = (holds, [false; 2]);
        for i in from..to {
            let (r, c) = (rows[i], cells(rows[i]));
            let side = usize::from(r.side);
            match c.first() {
                _ if below[side] => {}
                Some(&(s, m)) if s == sym && m & st == 0 => {}
                Some(&(s, _)) if s == sym && c.len() == 1 => below[side] = true,
                head => {
                    open[side] = true;
                    let at = r.at + u32::from(head.is_some_and(|&(s, _)| s == sym));
                    rows.push(Row { at, ..r });
                }
            }
        }
        let same =
            decided(below, open).unwrap_or_else(|| cofactors_agree(g, rows, to, below, possible));
        rows.truncate(to);
        same
    })
}

/// Whether two guards agree, where both are decided: a guard that holds
/// (`holds`) is `⊤`, and one that does not and has no row left (not
/// `open`) is `0`.
fn decided(holds: [bool; 2], open: [bool; 2]) -> Option<bool> {
    let value = |side: usize| if holds[side] { Some(true) } else { (!open[side]).then_some(false) };
    Some(value(0)? == value(1)?)
}

/// A guard: a disjunction of [`Conjunct`]s, kept canonical (sorted,
/// deduplicated, absorption-reduced). The empty disjunction is `0`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Guard {
    conjuncts: Vec<Conjunct>,
}

impl Guard {
    /// The guard `⊤` — the event may always occur.
    pub fn top() -> Guard {
        Guard { conjuncts: vec![Conjunct::top()] }
    }

    /// The guard `0` — the event may never occur.
    pub fn bottom() -> Guard {
        Guard { conjuncts: Vec::new() }
    }

    /// The atomic guard `□l`.
    pub fn occurred(l: Literal) -> Guard {
        Guard::from_mask(l.symbol(), occurred_mask(l.polarity()))
    }

    /// The atomic guard `◇l`.
    pub fn eventually(l: Literal) -> Guard {
        Guard::from_mask(l.symbol(), eventually_mask(l.polarity()))
    }

    /// The atomic guard `¬l`.
    pub fn not_yet(l: Literal) -> Guard {
        Guard::from_mask(l.symbol(), not_yet_mask(l.polarity()))
    }

    /// A single-symbol mask guard.
    pub fn from_mask(sym: SymbolId, mask: u8) -> Guard {
        if mask == 0 {
            return Guard::bottom();
        }
        let mut c = Conjunct::top();
        let ok = c.constrain(sym, mask);
        debug_assert!(ok);
        Guard { conjuncts: vec![c] }
    }

    /// `◇(E)` for an algebra expression: `◇` distributes over `+` and `|`
    /// (embedded expressions are index-monotone), single literals fold to
    /// mask atoms, and literal sequences stay symbolic.
    pub fn eventually_expr(e: &Expr) -> Guard {
        Guard::eventually_normal(&normalize(e))
    }

    /// [`Guard::eventually_expr`] for an expression already in normal
    /// form (no `+`/`|` under `·`), which [`normalize`] would hand back
    /// unchanged.
    pub fn eventually_normal(e: &Expr) -> Guard {
        match e {
            Expr::Zero => Guard::bottom(),
            Expr::Top => Guard::top(),
            Expr::Lit(l) => Guard::eventually(*l),
            Expr::Or(v) => {
                v.iter().fold(Guard::bottom(), |acc, p| acc.or_owned(Guard::eventually_normal(p)))
            }
            Expr::And(v) => {
                v.iter().fold(Guard::top(), |acc, p| acc.and(&Guard::eventually_normal(p)))
            }
            Expr::Seq(v) => {
                let lits: Vec<Literal> = v
                    .iter()
                    .map(|p| match p {
                        Expr::Lit(l) => *l,
                        other => panic!("normalized Seq contains non-literal {other}"),
                    })
                    .collect();
                Guard { conjuncts: vec![Conjunct { seqs: vec![lits], ..Conjunct::top() }] }
            }
        }
    }

    /// The conjuncts (canonical order).
    pub fn conjuncts(&self) -> &[Conjunct] {
        &self.conjuncts
    }

    /// Disjunction.
    pub fn or(&self, other: &Guard) -> Guard {
        // A guard is always canonical and canonicalisation is idempotent,
        // so `x + 0` needs no pass of its own.
        if other.is_bottom() {
            return self.clone();
        }
        if self.is_bottom() {
            return other.clone();
        }
        let mut cs = Vec::with_capacity(self.conjuncts.len() + other.conjuncts.len());
        cs.extend(self.conjuncts.iter().chain(&other.conjuncts).cloned());
        Guard::canonical(cs)
    }

    /// [`Guard::or`] by value: the accumulator of a sum keeps its
    /// conjuncts instead of copying them per term. Canonicalisation sorts
    /// its input first, so which operand's conjuncts come first is
    /// immaterial.
    pub fn or_owned(self, other: Guard) -> Guard {
        if other.is_bottom() {
            return self;
        }
        if self.is_bottom() {
            return other;
        }
        let mut cs = self.conjuncts;
        cs.extend(other.conjuncts);
        Guard::canonical(cs)
    }

    /// Conjunction (cross product of conjuncts).
    pub fn and(&self, other: &Guard) -> Guard {
        // As in `or`: `x | ⊤` is `x`, already canonical. Absorption
        // leaves a guard holding the ⊤ conjunct nothing else.
        if other.holds_now() {
            return self.clone();
        }
        if self.holds_now() {
            return other.clone();
        }
        if self.disjoint_from(other) {
            return self.disjoint_product(other);
        }
        let mut cs = Vec::with_capacity(self.conjuncts.len() * other.conjuncts.len());
        for a in &self.conjuncts {
            // A contradictory pair drops out; the other b-conjuncts may
            // still combine with `a`.
            cs.extend(other.conjuncts.iter().filter_map(|b| a.meet(b)));
        }
        Guard::canonical(cs)
    }

    /// The conjunction of two canonical guards over disjoint symbol sets:
    /// the sorted cross product. Over disjoint alphabets `aᵢ|bⱼ` implies
    /// `aₖ|bₗ` iff `aᵢ` implies `aₖ` and `bⱼ` implies `bₗ`, and two
    /// products are one mask apart only if they share one factor and the
    /// other two are one mask apart: the operands are canonical, so
    /// nothing is equal, absorbed or merged and `canonical` would only
    /// sort. [`Guard::and`] and [`FactoredGuard::expand`] both multiply
    /// through here.
    ///
    /// [`FactoredGuard::expand`]: crate::FactoredGuard::expand
    pub(crate) fn disjoint_product(&self, other: &Guard) -> Guard {
        let mut cs = Vec::with_capacity(self.conjuncts.len() * other.conjuncts.len());
        for a in &self.conjuncts {
            cs.extend(
                other.conjuncts.iter().map(|b| a.meet(b).expect("disjoint masks never clash")),
            );
        }
        cs.sort_unstable();
        Guard { conjuncts: cs }
    }

    /// The conjuncts, by value.
    pub(crate) fn into_conjuncts(self) -> Vec<Conjunct> {
        self.conjuncts
    }

    /// `true` if no symbol is mentioned (by a mask or a sequence atom) in
    /// both guards: each symbol of the guard with fewer conjuncts is
    /// looked up in the other's, behind its conjuncts' signature filters.
    fn disjoint_from(&self, other: &Guard) -> bool {
        let (small, big) = if self.conjuncts.len() <= other.conjuncts.len() {
            (self, other)
        } else {
            (other, self)
        };
        small.symbols_all(|s| !big.mentions(s))
    }

    /// The guard over `binding`'s symbols: every `SymbolId(r)` becomes
    /// `binding[r]`. `binding` must be strictly increasing. Every order
    /// this module relies on — masks by symbol, sequence atoms and
    /// conjuncts lexicographically, the canonicaliser's scan — compares
    /// symbols only with each other (the signature is a one-sided filter
    /// and is recomputed here), so the operations commute with an
    /// order-preserving renaming and the result is canonical as it stands:
    /// a guard synthesized once over a dependency's
    /// [shape](event_algebra::Expr::shape) is rebound per dependency.
    ///
    /// # Panics
    ///
    /// If the guard mentions a rank `binding` does not cover.
    pub fn rebind(&self, binding: &[SymbolId]) -> Guard {
        debug_assert!(binding.windows(2).all(|w| w[0] < w[1]), "binding must preserve order");
        let conjuncts = (self.conjuncts.iter())
            .map(|c| {
                let masks: Cells = c.masks.iter().map(|&(s, m)| (binding[s.index()], m)).collect();
                let seqs =
                    c.seqs.iter().map(|q| q.iter().map(|l| l.rebind(binding)).collect()).collect();
                let sig = masks.iter().fold(0, |sig, &(s, _)| sig | sig_bit(s));
                Conjunct { masks, seqs, sig }
            })
            .collect();
        Guard { conjuncts }
    }

    /// `self | ¬f₁ | ¬f₂ | …`, one conjunction per literal in order — the
    /// "nothing else has happened yet" factor of Definition 2's first
    /// term.
    pub fn and_not_yet(&self, lits: &[Literal]) -> Guard {
        let not_yet =
            |acc: Guard, f: &Literal| acc.and_mask(f.symbol(), not_yet_mask(f.polarity()));
        lits.iter().fold(self.clone(), not_yet)
    }

    /// `self | `[`Guard::from_mask`]`(sym, mask)` by value: every conjunct
    /// is constrained in place, and the one-cell guard is never built.
    /// When no conjunct mentions `sym` the result is the disjoint product
    /// and is only re-sorted, as in [`Guard::and`]; otherwise it is
    /// canonicalised as `and` would the same cross product.
    pub fn and_mask(self, sym: SymbolId, mask: u8) -> Guard {
        let mentioned = self.mentions(sym);
        let mut cs = self.conjuncts;
        cs.retain_mut(|c| c.constrain(sym, mask));
        if mentioned {
            Guard::canonical(cs)
        } else {
            cs.sort_unstable();
            Guard { conjuncts: cs }
        }
    }

    /// Canonicalize: drop dead conjuncts, sort, dedupe, absorb, and merge
    /// sibling conjuncts that differ in a single symbol's mask.
    ///
    /// The merge step is not confluent — `{x:A,y:A}`, `{x:A,y:B}`,
    /// `{x:B,y:A}` reduce to two different pairs depending on which merge
    /// fires first — and the actors read the conjunct structure to decide
    /// promises, so the scan order below (first mergeable pair in `(i, j)`
    /// order, the two `swap_remove`s, re-absorption, restart) is part of
    /// what a guard *is*, not an implementation detail.
    ///
    /// The passes work inside `cs`'s buffer: equal conjuncts are equal in
    /// every field, so an unstable sort orders them as a stable one would.
    fn canonical(mut cs: Vec<Conjunct>) -> Guard {
        if cs.len() < 2 {
            return Guard { conjuncts: cs };
        }
        // Absorption: drop any conjunct that implies another. The kept
        // conjuncts are `cs[..kept]`, in the order they were kept.
        cs.sort_unstable();
        cs.dedup();
        let mut kept = 0;
        for i in 0..cs.len() {
            let (keep, rest) = cs.split_at_mut(i);
            let c = &rest[0];
            if keep[..kept].iter().any(|k| c.implies(k)) {
                continue;
            }
            // `keep.retain(|k| !k.implies(c))`, then `keep.push(c)`.
            let mut still = 0;
            for j in 0..kept {
                if !keep[j].implies(c) {
                    keep.swap(still, j);
                    still += 1;
                }
            }
            cs.swap(still, i);
            kept = still + 1;
        }
        cs.truncate(kept);
        let mut keep = cs;
        // Merge: two conjuncts identical except one symbol's mask unite
        // into a single conjunct with the mask union (repeat to fixpoint).
        loop {
            let mut merged = false;
            'pairs: for i in 0..keep.len() {
                for j in (i + 1)..keep.len() {
                    let Some((only, union)) = keep[i].sibling(&keep[j]) else { continue };
                    keep.swap_remove(j);
                    let mut c = keep.swap_remove(i);
                    c.set_mask(only, union);
                    // Re-run absorption against the merged conjunct.
                    keep.retain(|k| !k.implies(&c));
                    if !keep.iter().any(|k| c.implies(k)) {
                        keep.push(c);
                    }
                    merged = true;
                    break 'pairs;
                }
            }
            if !merged {
                break;
            }
        }
        keep.sort_unstable();
        Guard { conjuncts: keep }
    }

    /// `true` if this is syntactically `0` (no conjunct left) — for
    /// literal-level guards this is also semantic falsity.
    pub fn is_bottom(&self) -> bool {
        self.conjuncts.is_empty()
    }

    /// `true` if some conjunct is fully discharged — the guard holds *now*
    /// regardless of any other symbol's state.
    pub fn holds_now(&self) -> bool {
        self.conjuncts.iter().any(Conjunct::is_top)
    }

    /// Semantic tautology check: [`Guard::covered`] with every state
    /// possible. Exact for guards without sequence atoms, at any number
    /// of symbols; conjuncts carrying sequence atoms are conservatively
    /// treated as non-covering, so `true` is always sound.
    pub fn is_top(&self) -> bool {
        self.covered(|_| ST_FULL, &mut CoverScratch::default())
    }

    /// Exact semantic equivalence for guards without sequence atoms (the
    /// cofactor walk of [`Guard::covered`], on both guards); guards with
    /// sequence atoms compare structurally (callers needing exact
    /// equivalence with sequences use trace enumeration — see
    /// `equiv::guards_equivalent`).
    pub fn equiv_masks(&self, other: &Guard) -> bool {
        if self == other {
            return true;
        }
        if self.has_seq_atoms() || other.has_seq_atoms() {
            return false;
        }
        let g = [&self.conjuncts[..], &other.conjuncts];
        CoverScratch::default().agree(g, |_| ST_FULL)
    }

    /// `true` if any conjunct carries a `◇(sequence)` atom.
    pub fn has_seq_atoms(&self) -> bool {
        self.conjuncts.iter().any(|c| !c.seqs.is_empty())
    }

    /// Evaluate on a maximal trace at an index — the reference semantics
    /// used in the Theorem 6 checks.
    pub fn eval(&self, u: &Trace, i: usize) -> bool {
        self.conjuncts.iter().any(|c| c.eval(u, i))
    }

    /// All symbols the guard mentions — these are the events whose
    /// announcements the owning actor must subscribe to.
    pub fn symbols(&self) -> BTreeSet<SymbolId> {
        let mut out = BTreeSet::new();
        self.symbols_all(|s| {
            out.insert(s);
            true
        });
        out
    }

    /// `true` iff every symbol the guard mentions satisfies `pred` — the
    /// allocation-free form of [`Guard::symbols`]. The online monitor asks
    /// "are all of this guard's symbols resolved?" after every gated
    /// firing, where materialising the symbol set would dominate the
    /// whole check.
    pub fn symbols_all(&self, mut pred: impl FnMut(SymbolId) -> bool) -> bool {
        self.conjuncts.iter().all(|c| {
            c.masks.iter().all(|&(s, _)| pred(s))
                && c.seqs.iter().flatten().all(|l| pred(l.symbol()))
        })
    }

    /// `true` if some mask constrains `sym` or some sequence atom
    /// mentions it.
    pub fn mentions(&self, sym: SymbolId) -> bool {
        self.conjuncts
            .iter()
            .any(|c| c.mask(sym) != ST_FULL || c.seqs.iter().flatten().any(|l| l.symbol() == sym))
    }

    /// Coverage: is the guard true for every assignment of a state from
    /// `possible(s)` to each symbol `s`? Conjuncts with `◇(sequence)`
    /// atoms cannot witness: a guard with no other conjunct is not
    /// covered, and neither is one whose other conjuncts constrain a
    /// symbol with no possible state (`possible(s) == 0`). A lone
    /// conjunct covers iff it admits every possible state of each of its
    /// symbols; between more, the cofactor walk checked against `⊤`
    /// decides, exact at any number of symbols, with `scratch` as its
    /// stack.
    pub fn covered(&self, possible: impl Fn(SymbolId) -> u8, scratch: &mut CoverScratch) -> bool {
        let usable = || self.conjuncts.iter().filter(|c| c.seqs.is_empty());
        let mut first = usable();
        match (first.next(), first.next()) {
            (None, _) => false,
            (Some(c), None) => c
                .masks
                .iter()
                .all(|&(s, m)| matches!(possible(s), can if can != 0 && can & !m == 0)),
            // The walk reads an empty possible set as no assignment to
            // refute: it is looked for once the walk has said yes.
            _ => {
                scratch.agree([&self.conjuncts, &[Conjunct::top()]], &possible)
                    && usable().all(|c| c.masks.iter().all(|&(s, _)| possible(s) != 0))
            }
        }
    }

    /// `true` if some conjunct without `◇(sequence)` atoms has every mask
    /// `(s, m)` accepted by `ok` — the promise-grant test's "eventually
    /// dischargeable" (a guard that holds now has the empty conjunct).
    pub fn dischargeable(&self, mut ok: impl FnMut(SymbolId, u8) -> bool) -> bool {
        self.conjuncts.iter().any(|c| c.seqs.is_empty() && c.masks.iter().all(|&(s, m)| ok(s, m)))
    }

    /// Replace every `◇(l₁·…·lₖ)` atom by the conjunction `◇l₁|…|◇lₖ` —
    /// the paper's "small insight" in Section 4.2: the guards on the other
    /// events already enforce the order, so an event's own guard only
    /// needs the eventual occurrences.
    pub fn weaken_sequences(&self) -> Guard {
        if !self.has_seq_atoms() {
            return self.clone();
        }
        let mut out = Vec::with_capacity(self.conjuncts.len());
        'conj: for c in &self.conjuncts {
            let mut n = Conjunct { masks: c.masks.clone(), seqs: Vec::new(), sig: c.sig };
            for &l in c.seqs.iter().flatten() {
                if !n.constrain(l.symbol(), eventually_mask(l.polarity())) {
                    continue 'conj;
                }
            }
            out.push(n);
        }
        Guard::canonical(out)
    }

    /// The guard at a set of facts — Section 4.3's proof rules — for a
    /// guard without `◇(sequence)` atoms (weaken those first):
    /// `known(s)` is the set of knowledge states the facts heard about
    /// `s` leave it ([`ST_FULL`] when nothing was heard, the intersection
    /// of their [closures](crate::Fact::closure_mask) otherwise). Every
    /// constraint is narrowed to what is known of its symbol; one the
    /// knowledge implies is dropped (`□l` and `◇l` once `□l` is heard,
    /// `◇l` once `◇l` is) and one it contradicts kills its conjunct (`¬l`
    /// once `□l` is heard, `◇l̄` once `◇l` is), while a promise leaves
    /// `□l` and `¬l` pending. Canonicalising
    /// can merge two narrowed masks into one the knowledge implies
    /// (`{B} ∪ {D}` after `◇l̄`), so the step repeats until it decides
    /// nothing more. The result depends on the knowledge alone, never on
    /// the order the facts came in.
    pub fn under(&self, known: impl Fn(SymbolId) -> u8) -> Guard {
        debug_assert!(!self.has_seq_atoms(), "a fact set decides masks only");
        let open = |g: &Guard| g.conjuncts.iter().any(|c| c.open_under(&known));
        let narrow = |g: &Guard| {
            Guard::canonical(g.conjuncts.iter().filter_map(|c| c.narrowed(&known)).collect())
        };
        let mut guard = narrow(self);
        while open(&guard) {
            guard = narrow(&guard);
        }
        guard
    }
}

impl Guard {
    /// Render the guard back into `T` syntax, choosing minimal atom
    /// combinations per mask (table-driven).
    pub fn to_texpr(&self) -> TExpr {
        if self.is_bottom() {
            return TExpr::Zero;
        }
        let parts = self.conjuncts.iter().map(|c| {
            let mut factors: Vec<TExpr> = Vec::new();
            for &(s, m) in c.masks.iter() {
                factors.push(mask_to_texpr(s, m));
            }
            for seq in &c.seqs {
                factors.push(TExpr::Eventually(Box::new(TExpr::Seq(
                    seq.iter().map(|&l| TExpr::Occ(l)).collect(),
                ))));
            }
            TExpr::and(factors)
        });
        TExpr::or(parts)
    }
}

/// Render one symbol's mask as the minimal `T` combination, per the
/// 16-entry table derived from the state/atom correspondence.
fn mask_to_texpr(s: SymbolId, m: u8) -> TExpr {
    let e = Literal::pos(s);
    let ne = Literal::neg(s);
    let box_e = TExpr::occurred(e);
    let box_ne = TExpr::occurred(ne);
    let dia_e = TExpr::eventually(e);
    let dia_ne = TExpr::eventually(ne);
    let not_e = TExpr::not_yet(e);
    let not_ne = TExpr::not_yet(ne);
    match m {
        0 => TExpr::Zero,
        1 => box_e,                                            // {A} = □e
        2 => box_ne,                                           // {B} = □ē
        3 => TExpr::or([box_e, box_ne]),                       // {A,B}
        4 => TExpr::and([dia_e, not_e]),                       // {C}
        5 => dia_e,                                            // {A,C} = ◇e
        6 => TExpr::or([box_ne, TExpr::and([dia_e, not_e])]),  // {B,C}
        7 => TExpr::or([dia_e, box_ne]),                       // {A,B,C}
        8 => TExpr::and([dia_ne, not_ne]),                     // {D}
        9 => TExpr::or([box_e, TExpr::and([dia_ne, not_ne])]), // {A,D}
        10 => dia_ne,                                          // {B,D} = ◇ē
        11 => TExpr::or([dia_ne, box_e]),                      // {A,B,D}
        12 => TExpr::and([not_e, not_ne]),                     // {C,D}
        13 => not_ne,                                          // {A,C,D} = ¬ē
        14 => not_e,                                           // {B,C,D} = ¬e
        _ => TExpr::Top,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fact;
    use event_algebra::SymbolTable;

    /// `g` at the fact set `facts`.
    fn at(g: &Guard, facts: &[Fact]) -> Guard {
        g.under(|s| {
            let about = facts.iter().filter(|f| f.literal().symbol() == s);
            about.fold(ST_FULL, |k, f| k & f.closure_mask())
        })
    }

    fn setup() -> (SymbolTable, Literal, Literal) {
        let mut t = SymbolTable::new();
        let e = t.event("e");
        let f = t.event("f");
        (t, e, f)
    }

    #[test]
    fn example8_identities() {
        let (_, e, _) = setup();
        // (a) □e + □ē ≠ ⊤.
        assert!(!Guard::occurred(e).or(&Guard::occurred(e.complement())).is_top());
        // (b) ◇e + ◇ē = ⊤.
        assert!(Guard::eventually(e).or(&Guard::eventually(e.complement())).is_top());
        // (c) ◇e | ◇ē = 0.
        assert!(Guard::eventually(e).and(&Guard::eventually(e.complement())).is_bottom());
        // (d) ◇e + □ē ≠ ⊤.
        assert!(!Guard::eventually(e).or(&Guard::occurred(e.complement())).is_top());
        // (e) ¬e is the boolean complement of □e.
        assert!(Guard::not_yet(e).or(&Guard::occurred(e)).is_top());
        assert!(Guard::not_yet(e).and(&Guard::occurred(e)).is_bottom());
        // (f) ¬e + □ē = ¬e.
        let lhs = Guard::not_yet(e).or(&Guard::occurred(e.complement()));
        assert!(lhs.equiv_masks(&Guard::not_yet(e)));
        assert_eq!(lhs, Guard::not_yet(e));
    }

    #[test]
    fn box_entails_diamond_in_masks() {
        let (_, e, _) = setup();
        // □e + ◇e = ◇e; □e | ◇e = □e.
        assert_eq!(Guard::occurred(e).or(&Guard::eventually(e)), Guard::eventually(e));
        assert_eq!(Guard::occurred(e).and(&Guard::eventually(e)), Guard::occurred(e));
    }

    #[test]
    fn paper_reduction_of_d_precedes_guard() {
        // (¬f|¬f̄) + □f̄ reduces to ¬f (end of Example 9.6).
        let (_, _, f) = setup();
        let lhs = Guard::not_yet(f)
            .and(&Guard::not_yet(f.complement()))
            .or(&Guard::occurred(f.complement()));
        assert_eq!(lhs, Guard::not_yet(f));
    }

    #[test]
    fn example9_8_shape_is_canonical() {
        // ◇ē + □e has two conjuncts that cannot merge: {B,D} ∪ {A}.
        let (_, e, _) = setup();
        let g = Guard::eventually(e.complement()).or(&Guard::occurred(e));
        assert_eq!(g.conjuncts().len(), 1, "masks on one symbol merge: {{A,B,D}}");
        assert_eq!(g.conjuncts()[0].mask(e.symbol()), ST_A | ST_B | ST_D);
        let rendered = g.to_texpr();
        // Renders as ◇ē + □e per the mask table.
        assert_eq!(rendered, TExpr::or([TExpr::eventually(e.complement()), TExpr::occurred(e)]));
    }

    #[test]
    fn and_cross_product_kills_contradictions() {
        let (_, e, f) = setup();
        let g1 = Guard::occurred(e).or(&Guard::eventually(f));
        let g2 = Guard::not_yet(e);
        let g = g1.and(&g2);
        // □e|¬e dies; ◇f|¬e survives.
        assert_eq!(g.conjuncts().len(), 1);
        assert!(!g.is_bottom());
    }

    #[test]
    fn occurrence_proof_rules() {
        let (_, e, f) = setup();
        let occurred = |g: Guard, l: Literal| at(&g, &[Fact::Occurred(l)]);
        // □e arriving reduces ◇e and □e to ⊤ and ¬e to 0.
        assert!(occurred(Guard::eventually(e), e).is_top());
        assert!(occurred(Guard::occurred(e), e).is_top());
        assert!(occurred(Guard::not_yet(e), e).is_bottom());
        // □ē arriving reduces □e/◇e to 0 and ¬e to ⊤.
        assert!(occurred(Guard::occurred(e), e.complement()).is_bottom());
        assert!(occurred(Guard::eventually(e), e.complement()).is_bottom());
        assert!(occurred(Guard::not_yet(e), e.complement()).is_top());
        // Unrelated symbols are untouched.
        let g = Guard::eventually(f);
        assert_eq!(occurred(g.clone(), e), g);
    }

    #[test]
    fn promise_proof_rules() {
        let (_, e, _) = setup();
        let promised = |g: Guard| at(&g, &[Fact::Promised(e)]);
        // ◇e arriving discharges ◇e…
        assert!(promised(Guard::eventually(e)).is_top());
        // …kills ◇ē and □ē…
        assert!(promised(Guard::eventually(e.complement())).is_bottom());
        assert!(promised(Guard::occurred(e.complement())).is_bottom());
        // …and leaves □e and ¬e pending (narrowed but not discharged).
        assert_eq!(promised(Guard::occurred(e)), Guard::occurred(e));
        assert_eq!(promised(Guard::not_yet(e)), Guard::from_mask(e.symbol(), ST_C));
        // Both facts about e: its occurrence decides what the promise
        // left pending, whichever came first.
        let both = [Fact::Promised(e), Fact::Occurred(e)];
        assert!(at(&Guard::occurred(e), &both).is_top());
        assert!(at(&Guard::not_yet(e), &both).is_bottom());
    }

    #[test]
    fn eventually_expr_distributes() {
        let (_, e, f) = setup();
        // ◇(e + f) = ◇e + ◇f.
        let g = Guard::eventually_expr(&Expr::or([Expr::lit(e), Expr::lit(f)]));
        assert_eq!(g, Guard::eventually(e).or(&Guard::eventually(f)));
        // ◇(e | f) = ◇e | ◇f.
        let g2 = Guard::eventually_expr(&Expr::and([Expr::lit(e), Expr::lit(f)]));
        assert_eq!(g2, Guard::eventually(e).and(&Guard::eventually(f)));
        // ◇⊤ = ⊤, ◇0 = 0.
        assert!(Guard::eventually_expr(&Expr::Top).is_top());
        assert!(Guard::eventually_expr(&Expr::Zero).is_bottom());
        // ◇(f̄ + f) = ⊤ (used in Example 9.6).
        let g3 = Guard::eventually_expr(&Expr::or([Expr::lit(f), Expr::lit(f.complement())]));
        assert!(g3.is_top());
    }

    #[test]
    fn weaken_sequences_is_the_small_insight() {
        let (_, e, f) = setup();
        let g = Guard::eventually_expr(&Expr::seq([Expr::lit(e), Expr::lit(f)]));
        let w = g.weaken_sequences();
        assert!(!w.has_seq_atoms());
        assert_eq!(w, Guard::eventually(e).and(&Guard::eventually(f)));
    }

    #[test]
    fn eval_matches_mask_semantics() {
        let (_, e, f) = setup();
        let u = Trace::new([e, f]).unwrap();
        // ¬f holds at indices 0 and 1, not at 2.
        let g = Guard::not_yet(f);
        assert!(g.eval(&u, 0));
        assert!(g.eval(&u, 1));
        assert!(!g.eval(&u, 2));
        // ◇ē + □e: at 0 — e will occur but hasn't; ◇ē false, □e false → false.
        let g2 = Guard::eventually(e.complement()).or(&Guard::occurred(e));
        assert!(!g2.eval(&u, 0));
        assert!(g2.eval(&u, 1));
    }

    #[test]
    fn eval_seq_atom_is_whole_trace() {
        let (_, e, f) = setup();
        let g = Guard::eventually_expr(&Expr::seq([Expr::lit(e), Expr::lit(f)]));
        let u = Trace::new([e, f]).unwrap();
        let v = Trace::new([f, e]).unwrap();
        for i in 0..=2 {
            assert!(g.eval(&u, i));
            assert!(!g.eval(&v, i));
        }
    }

    #[test]
    fn symbols_cover_masks_and_seqs() {
        let (_, e, f) = setup();
        let g = Guard::not_yet(e)
            .and(&Guard::eventually_expr(&Expr::seq([Expr::lit(e), Expr::lit(f)])));
        let syms = g.symbols();
        assert!(syms.contains(&e.symbol()));
        assert!(syms.contains(&f.symbol()));
    }

    #[test]
    fn canonical_merges_adjacent_masks() {
        let (_, e, f) = setup();
        // (◇e|¬e) + □e = ◇e  ({C} ∪ {A} = {A,C}).
        let g = Guard::eventually(e).and(&Guard::not_yet(e)).or(&Guard::occurred(e));
        assert_eq!(g, Guard::eventually(e));
        let _ = f;
    }

    /// `⋀ᵢ (◇eᵢ + ◇ēᵢ)` over 14 symbols, multiplied out to its 2¹⁴
    /// conjuncts and *not* canonicalised (`or` would merge each factor to
    /// `⊤` on sight): the shape the old 4ⁿ odometer gave up on above 12
    /// symbols.
    fn wide_tautology() -> Guard {
        let conjuncts = (0..1u32 << 14)
            .map(|signs| {
                let mut c = Conjunct::top();
                for i in 0..14 {
                    let pol = if signs >> i & 1 == 0 { Polarity::Pos } else { Polarity::Neg };
                    assert!(c.constrain(SymbolId(i), eventually_mask(pol)));
                }
                c
            })
            .collect();
        Guard { conjuncts }
    }

    #[test]
    fn is_top_is_exact_at_fourteen_symbols() {
        let mut g = wide_tautology();
        assert!(!g.holds_now());
        assert!(g.is_top());
        assert!(g.equiv_masks(&Guard::top()));
        // One sign vector short of a tautology.
        g.conjuncts.remove(0x1234);
        assert!(!g.is_top());
        assert!(!g.equiv_masks(&Guard::top()));
        assert!(!g.equiv_masks(&wide_tautology()));
    }

    /// `◇s₀ ∧ … ∧ ◇s₃₉`, one conjunct over 40 symbols, and the same or
    /// `□s̄₃₉`, two conjuncts (so the walk runs), are decided where the
    /// odometer would have enumerated 2⁴⁰ assignments: every symbol may be
    /// in either state `◇sᵢ` admits.
    #[test]
    fn coverage_is_decided_at_forty_symbols() {
        let wide = (0..40)
            .fold(Guard::top(), |acc, s| acc.and(&Guard::eventually(Literal::pos(SymbolId(s)))));
        let last = SymbolId(39);
        let or_refused = wide.or(&Guard::occurred(Literal::neg(last)));
        assert_eq!(or_refused.conjuncts().len(), 2);
        let mut scratch = CoverScratch::default();
        let promised = eventually_mask(Polarity::Pos);
        let last_may_be = |states: u8| move |s: SymbolId| if s == last { states } else { promised };
        for g in [&wide, &or_refused] {
            assert!(g.covered(|_| promised, &mut scratch), "{g:?}");
            assert!(!g.covered(last_may_be(ST_FULL), &mut scratch), "{g:?}");
            assert!(!g.covered(|s| if s == SymbolId(0) { 0 } else { ST_A }, &mut scratch));
            assert!(!g.is_top());
        }
        assert!(!wide.covered(last_may_be(ST_A | ST_B | ST_C), &mut scratch));
        assert!(or_refused.covered(last_may_be(ST_A | ST_B | ST_C), &mut scratch));
    }

    #[test]
    fn and_not_yet_is_the_fold_of_single_conjunctions() {
        let mut t = SymbolTable::new();
        let [e, f, h] = ["e", "f", "h"].map(|n| t.event(n));
        let lits = [f, f.complement(), h, h.complement(), e.complement()];
        let fold = |g: &Guard| lits.iter().fold(g.clone(), |acc, &l| acc.and(&Guard::not_yet(l)));
        let samples = [
            Guard::top(),
            Guard::bottom(),
            Guard::eventually(e),
            Guard::occurred(e),
            Guard::occurred(e.complement()),
            Guard::eventually_expr(&Expr::seq([Expr::lit(e), Expr::lit(f)])),
            Guard::eventually(e).or(&Guard::occurred(f)),
        ];
        for g in &samples {
            assert_eq!(g.and_not_yet(&lits), fold(g), "{g:?}");
        }
        // □ē contradicts ¬ē.
        assert!(Guard::occurred(e.complement()).and_not_yet(&lits).is_bottom());
    }

    #[test]
    fn reductions_by_unmentioned_symbols_return_the_guard() {
        let mut t = SymbolTable::new();
        let [e, f, h] = ["e", "f", "h"].map(|n| t.event(n));
        let g = Guard::not_yet(e)
            .and(&Guard::eventually_expr(&Expr::seq([Expr::lit(e), Expr::lit(f)])));
        assert!(g.mentions(e.symbol()) && g.mentions(f.symbol()) && !g.mentions(h.symbol()));
        let w = g.weaken_sequences();
        assert_eq!(at(&w, &[Fact::Occurred(h)]), w);
        assert_eq!(at(&w, &[Fact::Promised(h.complement())]), w);
    }

    #[test]
    fn signatures_follow_the_masks() {
        // Symbols 1 and 65 share a signature bit: dropping one mask by a
        // merge must not hide the other from `mask`.
        let (a, b) = (SymbolId(1), SymbolId(65));
        let both = |ma: u8| Guard::from_mask(a, ma).and(&Guard::from_mask(b, ST_A));
        let g = both(ST_A | ST_B).or(&both(ST_C | ST_D));
        assert_eq!(g, Guard::from_mask(b, ST_A));
        assert_eq!(g.conjuncts()[0].mask(b), ST_A);
        assert_eq!(g.conjuncts()[0].mask(a), ST_FULL);
        assert!(g.mentions(b) && !g.mentions(a));
    }

    /// The by-value forms are the borrowed ones: `and_mask` is `and` with
    /// the one-mask guard (a mentioned symbol, a fresh one, `0` and
    /// `ST_FULL` masks, `⊤` and `0` operands), `or_owned` is `or`.
    #[test]
    fn by_value_forms_are_and_and_or() {
        let mut t = SymbolTable::new();
        let [e, f, h] = ["e", "f", "h"].map(|n| t.event(n));
        let samples = [
            Guard::top(),
            Guard::bottom(),
            Guard::not_yet(e),
            Guard::eventually(e).or(&Guard::occurred(f)),
            Guard::eventually_expr(&Expr::seq([Expr::lit(e), Expr::lit(f)])),
            Guard::occurred(f).and(&Guard::not_yet(e)).or(&Guard::eventually(h.complement())),
        ];
        for g in &samples {
            for sym in [e, f, h].map(|l| l.symbol()) {
                for mask in 0..=ST_FULL {
                    let want = g.and(&Guard::from_mask(sym, mask));
                    assert_eq!(g.clone().and_mask(sym, mask), want, "{g:?} | {sym}:{mask}");
                }
            }
            for other in &samples {
                assert_eq!(g.clone().or_owned(other.clone()), g.or(other), "{g:?} + {other:?}");
            }
        }
    }

    /// `tests/guard_kernel_props.rs` compares the kernel with its
    /// reference on guards over six symbols: a conjunct wide enough to
    /// spill must be among them, or the heap layout goes untested there.
    #[test]
    fn the_inline_capacity_leaves_the_heap_layout_under_test() {
        const KERNEL_PROPS_SYMBOLS: u32 = 6;
        assert!(crate::cells::INLINE_CELLS < KERNEL_PROPS_SYMBOLS as usize);
        let g = (0..KERNEL_PROPS_SYMBOLS)
            .fold(Guard::top(), |acc, s| acc.and(&Guard::from_mask(SymbolId(s), ST_A | ST_C)));
        let [c] = g.conjuncts() else { panic!("one conjunct: {g:?}") };
        assert!(c.masks.spilled());
        assert_eq!(c.constrained_symbols().count(), KERNEL_PROPS_SYMBOLS as usize);
        let narrow = at(&g, &[0, 1].map(|s| Fact::Occurred(Literal::pos(SymbolId(s)))));
        assert_eq!(
            narrow,
            (2..KERNEL_PROPS_SYMBOLS)
                .fold(Guard::top(), |acc, s| acc.and(&Guard::from_mask(SymbolId(s), ST_A | ST_C)))
        );
    }

    #[test]
    fn to_texpr_roundtrip_samples() {
        let (_, e, f) = setup();
        let samples = [
            Guard::top(),
            Guard::bottom(),
            Guard::not_yet(f),
            Guard::eventually(e.complement()).or(&Guard::occurred(e)),
            Guard::occurred(e).and(&Guard::eventually(f)),
        ];
        for g in &samples {
            let te = g.to_texpr();
            // Spot-check agreement on all maximal traces over {e,f}.
            let syms = [e.symbol(), f.symbol()];
            for u in event_algebra::enumerate_maximal(&syms) {
                for i in 0..=u.len() {
                    assert_eq!(
                        g.eval(&u, i),
                        crate::semantics::sat_at(&u, i, &te),
                        "guard {g:?} texpr {te} at {u},{i}"
                    );
                }
            }
        }
    }
}
