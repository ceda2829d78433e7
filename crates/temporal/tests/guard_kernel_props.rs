//! Differential tests for the flat guard kernel.
//!
//! [`reference`] holds the guard implementation the kernel replaced —
//! `BTreeMap` masks, `BTreeSet` sequence atoms, a canonicaliser that
//! allocates per conjunct pair — moved here verbatim as `RefGuard`, with
//! a fact-set reduction of its own (`RefGuard::under`) written since.
//! Canonicalisation is not confluent and the actors read the conjunct
//! structure, so "the same guard" means the same conjuncts in the same
//! order, not just the same predicate: every operation is run on both
//! implementations from the same recipe and compared conjunct for
//! conjunct.

use event_algebra::{enumerate_maximal, Expr, Literal, SymbolId};
use reference::{RefConjunct, RefGuard};
use std::cmp::Ordering;
use temporal::{Conjunct, CoverScratch, Fact, Guard, ST_A, ST_B, ST_C, ST_D, ST_FULL};
use testkit::{check, Exprs, Gen};

/// The implementation at the commit before the flat kernel. Test-only;
/// not every method it carried is exercised.
#[allow(dead_code)]
mod reference {
    use event_algebra::{normalize, Expr, Literal, SymbolId, Trace};
    use std::collections::{BTreeMap, BTreeSet};
    use temporal::{eventually_mask, not_yet_mask, occurred_mask, state_on, ST_A, ST_D, ST_FULL};

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

    /// One DNF conjunct: a mask per constrained symbol plus residual `◇(seq)`
    /// atoms.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
    pub struct RefConjunct {
        /// Per-symbol state masks; absent symbols are unconstrained
        /// ([`ST_FULL`]). Invariant: stored masks are never `0` or `ST_FULL`.
        masks: BTreeMap<SymbolId, u8>,
        /// `◇(l₁·l₂·…)` atoms, each with ≥ 2 literals (single literals fold
        /// into the mask) over pairwise distinct symbols.
        seqs: BTreeSet<Vec<Literal>>,
    }

    impl RefConjunct {
        /// The unconstrained conjunct (`⊤`).
        pub fn top() -> RefConjunct {
            RefConjunct::default()
        }

        /// `true` if no constraints remain — the conjunct (hence the guard)
        /// holds now.
        pub fn is_top(&self) -> bool {
            self.masks.is_empty() && self.seqs.is_empty()
        }

        /// The mask for `sym` (`ST_FULL` when unconstrained).
        pub fn mask(&self, sym: SymbolId) -> u8 {
            self.masks.get(&sym).copied().unwrap_or(ST_FULL)
        }

        /// Constrained symbols, in order.
        pub fn constrained_symbols(&self) -> impl Iterator<Item = (SymbolId, u8)> + '_ {
            self.masks.iter().map(|(&s, &m)| (s, m))
        }

        /// The residual sequence atoms.
        pub fn seq_atoms(&self) -> impl Iterator<Item = &Vec<Literal>> {
            self.seqs.iter()
        }

        /// Intersect a mask constraint; returns `false` if the conjunct dies.
        #[must_use]
        fn constrain(&mut self, sym: SymbolId, mask: u8) -> bool {
            let m = self.mask(sym) & mask;
            if m == 0 {
                return false;
            }
            if m == ST_FULL {
                self.masks.remove(&sym);
            } else {
                self.masks.insert(sym, m);
            }
            true
        }

        /// `self` implies `other`: every state vector satisfying `self`
        /// satisfies `other` (used for absorption).
        fn implies(&self, other: &RefConjunct) -> bool {
            other.masks.iter().all(|(&s, &om)| self.mask(s) & !om == 0)
                && other.seqs.is_subset(&self.seqs)
        }

        /// All symbols this conjunct mentions (masks and sequence atoms).
        pub fn symbols(&self) -> BTreeSet<SymbolId> {
            let mut out: BTreeSet<SymbolId> = self.masks.keys().copied().collect();
            for seq in &self.seqs {
                out.extend(seq.iter().map(|l| l.symbol()));
            }
            out
        }

        /// Evaluate on a maximal trace at an index (sequence atoms are
        /// index-independent because embedded algebra expressions are
        /// index-monotone and the trace is maximal).
        pub fn eval(&self, u: &Trace, i: usize) -> bool {
            self.masks.iter().all(|(&s, &m)| state_on(u, i, s) & m != 0)
                && self.seqs.iter().all(|seq| seq_satisfied(u, seq))
        }
    }

    /// A guard: a disjunction of [`RefConjunct`]s, kept canonical (sorted,
    /// deduplicated, absorption-reduced). The empty disjunction is `0`.
    #[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
    pub struct RefGuard {
        conjuncts: Vec<RefConjunct>,
    }

    impl RefGuard {
        /// The guard `⊤` — the event may always occur.
        pub fn top() -> RefGuard {
            RefGuard { conjuncts: vec![RefConjunct::top()] }
        }

        /// The guard `0` — the event may never occur.
        pub fn bottom() -> RefGuard {
            RefGuard { conjuncts: Vec::new() }
        }

        /// The atomic guard `□l`.
        pub fn occurred(l: Literal) -> RefGuard {
            RefGuard::from_mask(l.symbol(), occurred_mask(l.polarity()))
        }

        /// The atomic guard `◇l`.
        pub fn eventually(l: Literal) -> RefGuard {
            RefGuard::from_mask(l.symbol(), eventually_mask(l.polarity()))
        }

        /// The atomic guard `¬l`.
        pub fn not_yet(l: Literal) -> RefGuard {
            RefGuard::from_mask(l.symbol(), not_yet_mask(l.polarity()))
        }

        /// A single-symbol mask guard.
        pub fn from_mask(sym: SymbolId, mask: u8) -> RefGuard {
            if mask == 0 {
                return RefGuard::bottom();
            }
            let mut c = RefConjunct::top();
            let ok = c.constrain(sym, mask);
            debug_assert!(ok);
            RefGuard { conjuncts: vec![c] }
        }

        /// `◇(E)` for an algebra expression: `◇` distributes over `+` and `|`
        /// (embedded expressions are index-monotone), single literals fold to
        /// mask atoms, and literal sequences stay symbolic.
        pub fn eventually_expr(e: &Expr) -> RefGuard {
            fn go(e: &Expr) -> RefGuard {
                match e {
                    Expr::Zero => RefGuard::bottom(),
                    Expr::Top => RefGuard::top(),
                    Expr::Lit(l) => RefGuard::eventually(*l),
                    Expr::Or(v) => v.iter().fold(RefGuard::bottom(), |acc, p| acc.or(&go(p))),
                    Expr::And(v) => v.iter().fold(RefGuard::top(), |acc, p| acc.and(&go(p))),
                    Expr::Seq(v) => {
                        let lits: Vec<Literal> = v
                            .iter()
                            .map(|p| match p {
                                Expr::Lit(l) => *l,
                                other => panic!("normalized Seq contains non-literal {other}"),
                            })
                            .collect();
                        let mut c = RefConjunct::top();
                        c.seqs.insert(lits);
                        RefGuard { conjuncts: vec![c] }
                    }
                }
            }
            go(&normalize(e))
        }

        /// The conjuncts (canonical order).
        pub fn conjuncts(&self) -> &[RefConjunct] {
            &self.conjuncts
        }

        /// Disjunction.
        pub fn or(&self, other: &RefGuard) -> RefGuard {
            let mut cs = self.conjuncts.clone();
            cs.extend(other.conjuncts.iter().cloned());
            RefGuard::canonical(cs)
        }

        /// Conjunction (cross product of conjuncts).
        pub fn and(&self, other: &RefGuard) -> RefGuard {
            let mut cs = Vec::new();
            for a in &self.conjuncts {
                'pairs: for b in &other.conjuncts {
                    let mut c = a.clone();
                    for (&s, &m) in &b.masks {
                        if !c.constrain(s, m) {
                            // This particular pair is contradictory; the other
                            // b-conjuncts may still combine with `a`.
                            continue 'pairs;
                        }
                    }
                    c.seqs.extend(b.seqs.iter().cloned());
                    cs.push(c);
                }
            }
            RefGuard::canonical(cs)
        }

        /// Canonicalize: drop dead conjuncts, sort, dedupe, absorb, and merge
        /// sibling conjuncts that differ in a single symbol's mask.
        fn canonical(mut cs: Vec<RefConjunct>) -> RefGuard {
            // Absorption: drop any conjunct that implies another.
            let mut keep: Vec<RefConjunct> = Vec::with_capacity(cs.len());
            cs.sort();
            cs.dedup();
            for c in cs {
                if keep.iter().any(|k| c.implies(k)) {
                    continue;
                }
                keep.retain(|k| !k.implies(&c));
                keep.push(c);
            }
            // Merge: two conjuncts identical except one symbol's mask unite
            // into a single conjunct with the mask union (repeat to fixpoint).
            loop {
                let mut merged = false;
                'pairs: for i in 0..keep.len() {
                    for j in (i + 1)..keep.len() {
                        if keep[i].seqs != keep[j].seqs {
                            continue;
                        }
                        let (a, b) = (&keep[i], &keep[j]);
                        let syms: BTreeSet<SymbolId> =
                            a.masks.keys().chain(b.masks.keys()).copied().collect();
                        let diffs: Vec<SymbolId> =
                            syms.into_iter().filter(|&s| a.mask(s) != b.mask(s)).collect();
                        if let [only] = diffs[..] {
                            let union = a.mask(only) | b.mask(only);
                            let mut c = a.clone();
                            if union == ST_FULL {
                                c.masks.remove(&only);
                            } else {
                                c.masks.insert(only, union);
                            }
                            keep.swap_remove(j);
                            keep.swap_remove(i);
                            // Re-run absorption against the merged conjunct.
                            keep.retain(|k| !k.implies(&c));
                            if !keep.iter().any(|k| c.implies(k)) {
                                keep.push(c);
                            }
                            merged = true;
                            break 'pairs;
                        }
                    }
                }
                if !merged {
                    break;
                }
            }
            keep.sort();
            RefGuard { conjuncts: keep }
        }

        /// `true` if this is syntactically `0` (no conjunct left) — for
        /// literal-level guards this is also semantic falsity.
        pub fn is_bottom(&self) -> bool {
            self.conjuncts.is_empty()
        }

        /// `true` if some conjunct is fully discharged — the guard holds *now*
        /// regardless of any other symbol's state.
        pub fn holds_now(&self) -> bool {
            self.conjuncts.iter().any(RefConjunct::is_top)
        }

        /// Semantic tautology check.
        ///
        /// Exact for guards without sequence atoms (enumerates the 4ⁿ state
        /// vectors of the constrained symbols); conjuncts carrying sequence
        /// atoms are conservatively treated as non-covering, so `true` is
        /// always sound.
        pub fn is_top(&self) -> bool {
            if self.holds_now() {
                return true;
            }
            let syms: Vec<SymbolId> = self
                .conjuncts
                .iter()
                .flat_map(|c| c.masks.keys().copied())
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            if syms.len() > 12 {
                return false; // give up: callers fall back to semantic checks
            }
            let usable: Vec<&RefConjunct> =
                self.conjuncts.iter().filter(|c| c.seqs.is_empty()).collect();
            if usable.is_empty() {
                return false;
            }
            // Enumerate state vectors; each symbol independently takes A/B/C/D.
            let mut states = vec![ST_A; syms.len()];
            loop {
                let covered = usable
                    .iter()
                    .any(|c| syms.iter().zip(&states).all(|(&s, &st)| c.mask(s) & st != 0));
                if !covered {
                    return false;
                }
                // Advance the odometer.
                let mut k = 0;
                loop {
                    if k == syms.len() {
                        return true;
                    }
                    states[k] <<= 1;
                    if states[k] > ST_D {
                        states[k] = ST_A;
                        k += 1;
                    } else {
                        break;
                    }
                }
            }
        }

        /// Exact semantic equivalence for guards without sequence atoms;
        /// guards with sequence atoms compare structurally (callers needing
        /// exact equivalence with sequences use trace enumeration — see
        /// `equiv::guards_equivalent`).
        pub fn equiv_masks(&self, other: &RefGuard) -> bool {
            if self == other {
                return true;
            }
            if self.has_seq_atoms() || other.has_seq_atoms() {
                return false;
            }
            let syms: Vec<SymbolId> = self
                .conjuncts
                .iter()
                .chain(other.conjuncts.iter())
                .flat_map(|c| c.masks.keys().copied())
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            let mut states = vec![ST_A; syms.len()];
            loop {
                let eva = self
                    .conjuncts
                    .iter()
                    .any(|c| syms.iter().zip(&states).all(|(&s, &st)| c.mask(s) & st != 0));
                let evb = other
                    .conjuncts
                    .iter()
                    .any(|c| syms.iter().zip(&states).all(|(&s, &st)| c.mask(s) & st != 0));
                if eva != evb {
                    return false;
                }
                let mut k = 0;
                loop {
                    if k == syms.len() {
                        return true;
                    }
                    states[k] <<= 1;
                    if states[k] > ST_D {
                        states[k] = ST_A;
                        k += 1;
                    } else {
                        break;
                    }
                }
            }
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
            self.conjuncts.iter().flat_map(|c| c.symbols()).collect()
        }

        /// `true` iff every symbol the guard mentions satisfies `pred` — the
        /// allocation-free form of [`RefGuard::symbols`]. The online monitor asks
        /// "are all of this guard's symbols resolved?" after every gated
        /// firing, where materialising the symbol set would dominate the
        /// whole check.
        pub fn symbols_all(&self, mut pred: impl FnMut(SymbolId) -> bool) -> bool {
            for c in &self.conjuncts {
                for &s in c.masks.keys() {
                    if !pred(s) {
                        return false;
                    }
                }
                for seq in &c.seqs {
                    for l in seq {
                        if !pred(l.symbol()) {
                            return false;
                        }
                    }
                }
            }
            true
        }

        /// Replace every `◇(l₁·…·lₖ)` atom by the conjunction `◇l₁|…|◇lₖ` —
        /// the paper's "small insight" in Section 4.2: the guards on the other
        /// events already enforce the order, so an event's own guard only
        /// needs the eventual occurrences.
        pub fn weaken_sequences(&self) -> RefGuard {
            let mut out = Vec::new();
            'conj: for c in &self.conjuncts {
                let mut n = RefConjunct { masks: c.masks.clone(), seqs: BTreeSet::new() };
                for seq in &c.seqs {
                    for &l in seq {
                        if !n.constrain(l.symbol(), eventually_mask(l.polarity())) {
                            continue 'conj;
                        }
                    }
                }
                out.push(n);
            }
            RefGuard::canonical(out)
        }

        /// The guard at a set of facts, for a guard without sequence
        /// atoms: `known(s)` is the set of states the facts heard about
        /// `s` leave it. Each constraint is narrowed to what is known of
        /// its symbol — dropped when the knowledge implies it, its
        /// conjunct dropped when the knowledge contradicts it — and the
        /// result canonicalised, pass after pass, until a pass changes
        /// nothing. Written for these tests; the kernel it replaced had
        /// none.
        pub fn under(&self, known: impl Fn(SymbolId) -> u8) -> RefGuard {
            assert!(!self.has_seq_atoms(), "a fact set decides masks only");
            let mut guard = self.clone();
            loop {
                let mut out = Vec::new();
                'conj: for c in &guard.conjuncts {
                    let mut n = RefConjunct::top();
                    for (&s, &m) in &c.masks {
                        let k = known(s) & ST_FULL;
                        if k & m == 0 {
                            continue 'conj; // contradiction: conjunct dies
                        }
                        if k & !m != 0 && !n.constrain(s, k & m) {
                            continue 'conj;
                        }
                    }
                    out.push(n);
                }
                let next = RefGuard::canonical(out);
                if next == guard {
                    return guard;
                }
                guard = next;
            }
        }
    }
}

/// One conjunct, as both implementations expose it.
type Shape = (Vec<(SymbolId, u8)>, Vec<Vec<Literal>>);

/// The operations under test, over either implementation.
trait Kernel: Sized + Clone {
    type Conj: Ord;
    fn atom(kind: u32, l: Literal) -> Self;
    fn mask(sym: SymbolId, mask: u8) -> Self;
    fn dia(e: &Expr) -> Self;
    fn or(&self, other: &Self) -> Self;
    fn and(&self, other: &Self) -> Self;
    /// The guard at the fact set `facts`.
    fn at(&self, facts: &[Fact]) -> Self;
    fn weaken(&self) -> Self;
    fn conjs(&self) -> &[Self::Conj];
    fn shape(c: &Self::Conj) -> Shape;
    fn shapes(&self) -> Vec<Shape> {
        self.conjs().iter().map(Self::shape).collect()
    }
}

macro_rules! kernel {
    ($guard:ident, $conj:ident) => {
        impl Kernel for $guard {
            type Conj = $conj;
            fn atom(kind: u32, l: Literal) -> Self {
                match kind {
                    0 => $guard::occurred(l),
                    1 => $guard::not_yet(l),
                    2 => $guard::eventually(l),
                    3 => $guard::top(),
                    _ => $guard::bottom(),
                }
            }
            fn mask(sym: SymbolId, mask: u8) -> Self {
                $guard::from_mask(sym, mask)
            }
            fn dia(e: &Expr) -> Self {
                $guard::eventually_expr(e)
            }
            fn or(&self, other: &Self) -> Self {
                $guard::or(self, other)
            }
            fn and(&self, other: &Self) -> Self {
                $guard::and(self, other)
            }
            fn at(&self, facts: &[Fact]) -> Self {
                $guard::under(self, |s| {
                    let about = facts.iter().filter(|f| f.literal().symbol() == s);
                    about.fold(ST_FULL, |k, f| k & f.closure_mask())
                })
            }
            fn weaken(&self) -> Self {
                self.weaken_sequences()
            }
            fn conjs(&self) -> &[$conj] {
                self.conjuncts()
            }
            fn shape(c: &$conj) -> Shape {
                (c.constrained_symbols().collect(), c.seq_atoms().cloned().collect())
            }
        }
    };
}
kernel!(Guard, Conjunct);
kernel!(RefGuard, RefConjunct);

/// How to build a guard, independent of the implementation building it.
#[derive(Debug, Clone)]
enum Recipe {
    Atom(u32, Literal),
    Mask(SymbolId, u8),
    Dia(Expr),
    Or(Box<Recipe>, Box<Recipe>),
    And(Box<Recipe>, Box<Recipe>),
    /// The weakened guard at a fact set.
    At(Box<Recipe>, Vec<Fact>),
    Weaken(Box<Recipe>),
}

impl Recipe {
    fn build<K: Kernel>(&self) -> K {
        match self {
            Recipe::Atom(kind, l) => K::atom(*kind, *l),
            Recipe::Mask(sym, mask) => K::mask(*sym, *mask),
            Recipe::Dia(e) => K::dia(e),
            Recipe::Or(a, b) => a.build::<K>().or(&b.build()),
            Recipe::And(a, b) => a.build::<K>().and(&b.build()),
            Recipe::At(a, facts) => a.build::<K>().weaken().at(facts),
            Recipe::Weaken(a) => a.build::<K>().weaken(),
        }
    }
}

fn syms(n: u32) -> Vec<SymbolId> {
    (0..n).map(SymbolId).collect()
}

/// A sum of up to eight products of arbitrary masks over the first three
/// of `syms`: many conjuncts one symbol apart, so which pair merges first
/// decides the result.
fn siblings(g: &mut Gen, syms: &[SymbolId]) -> Recipe {
    let pool = &syms[..3];
    let product = |g: &mut Gen| {
        let factors = (0..g.range(2..=3usize))
            .map(|_| Recipe::Mask(pool[g.range(0..pool.len())], g.range(1..15u8)));
        factors.reduce(|acc, f| Recipe::And(Box::new(acc), Box::new(f))).expect("two factors")
    };
    let terms = g.len(2, 8);
    (0..terms)
        .map(|_| product(g))
        .reduce(|acc, t| Recipe::Or(Box::new(acc), Box::new(t)))
        .expect("two terms")
}

/// One to three facts about random literals of `syms`: a promise, an
/// occurrence, or both. Two about one symbol may contradict each other.
fn fact_set(g: &mut Gen, syms: &[SymbolId]) -> Vec<Fact> {
    let mut out = Vec::new();
    for _ in 0..g.range(1..=3usize) {
        let l = g.literal(syms);
        match g.range(0..3u32) {
            0 => out.push(Fact::Promised(l)),
            1 => out.push(Fact::Occurred(l)),
            _ => out.extend([Fact::Promised(l), Fact::Occurred(l)]),
        }
    }
    out
}

/// A random recipe over `syms`, at most `depth` (and the case's size)
/// operations deep. Constants are rare and `+` outweighs `|`, so the
/// guards keep several conjuncts for absorption and merging to work on.
fn recipe(g: &mut Gen, syms: &[SymbolId], depth: usize) -> Recipe {
    if depth.min(g.size()) == 0 || g.range(0..6u32) == 0 {
        return match g.range(0..12u32) {
            0 => Recipe::Atom(g.range(3..5u32), g.literal(syms)),
            1 | 2 => Recipe::Dia(g.term(syms, 2)),
            3 | 4 => siblings(g, syms),
            _ => Recipe::Atom(g.range(0..3u32), g.literal(syms)),
        };
    }
    let sub = |g: &mut Gen| Box::new(recipe(g, syms, depth - 1));
    match g.range(0..10u32) {
        0..=4 => Recipe::Or(sub(g), sub(g)),
        5..=7 => Recipe::And(sub(g), sub(g)),
        8 => Recipe::At(sub(g), fact_set(g, syms)),
        _ => Recipe::Weaken(sub(g)),
    }
}

/// Both implementations build `r` into the same conjuncts, in the same
/// order; returns the pair for further operations.
fn agree(r: &Recipe) -> (Guard, RefGuard) {
    let (new, old) = (r.build::<Guard>(), r.build::<RefGuard>());
    assert_eq!(new.shapes(), old.shapes(), "recipe {r:?}");
    (new, old)
}

/// `and`, `or`, the guard at a fact set and sequence weakening agree
/// conjunct for conjunct on random guard pairs over six symbols, and the
/// conjunct order is the same total order.
#[test]
fn operations_agree_conjunct_for_conjunct() {
    let syms = syms(6);
    check("operations_agree_conjunct_for_conjunct", 192, |g| {
        let (ra, rb) = (recipe(g, &syms, 5), recipe(g, &syms, 5));
        let ((a, ref_a), (b, ref_b)) = (agree(&ra), agree(&rb));
        assert_eq!(a.or(&b).shapes(), ref_a.or(&ref_b).shapes(), "{ra:?} + {rb:?}");
        assert_eq!(a.and(&b).shapes(), ref_a.and(&ref_b).shapes(), "{ra:?} | {rb:?}");
        assert_eq!(a.weaken_sequences().shapes(), ref_a.weaken_sequences().shapes(), "{ra:?}");
        let facts = fact_set(g, &syms);
        let (w, ref_w) = (a.weaken_sequences(), ref_a.weaken_sequences());
        assert_eq!(w.at(&facts).shapes(), ref_w.at(&facts).shapes(), "{ra:?} at {facts:?}");
        let all: Vec<&Conjunct> = a.conjuncts().iter().chain(b.conjuncts()).collect();
        let ref_all: Vec<&RefConjunct> =
            ref_a.conjuncts().iter().chain(ref_b.conjuncts()).collect();
        for (x, ref_x) in all.iter().zip(&ref_all) {
            for (y, ref_y) in all.iter().zip(&ref_all) {
                assert_eq!(x.cmp(y), ref_x.cmp(ref_y), "{x:?} vs {y:?}");
            }
        }
    });
}

/// Sums and products of sibling-rich guards, where the merge order shows.
#[test]
fn merge_order_agrees_on_sibling_rich_guards() {
    let syms = syms(4);
    check("merge_order_agrees_on_sibling_rich_guards", 256, |g| {
        let (ra, rb) = (siblings(g, &syms), siblings(g, &syms));
        agree(&Recipe::Or(Box::new(ra.clone()), Box::new(rb.clone())));
        agree(&Recipe::And(Box::new(ra.clone()), Box::new(rb)));
        let l = g.literal(&syms);
        agree(&Recipe::At(Box::new(ra.clone()), vec![Fact::Occurred(l)]));
        agree(&Recipe::At(Box::new(ra), vec![Fact::Promised(l)]));
    });
}

/// `and` skips canonicalisation when its operands mention disjoint
/// symbols and only sorts the cross product; the reference always
/// canonicalises it. Interleaved alphabets (so product masks interleave),
/// `◇(sequence)` atoms, `⊤` and `0` operands — and, in half the cases,
/// exactly one shared symbol, where the skip must *not* fire.
#[test]
fn disjoint_products_are_the_canonical_cross_product() {
    let all = syms(9);
    check("disjoint_products_are_the_canonical_cross_product", 320, |g| {
        let (mut left, mut right): (Vec<SymbolId>, Vec<SymbolId>) =
            all[..8].iter().partition(|s| s.0 % 2 == 0);
        if g.flip() {
            left.push(all[8]);
            right.push(all[8]);
        }
        let operand = |g: &mut Gen, pool: &[SymbolId]| match g.range(0..8u32) {
            0 => Recipe::Atom(g.range(3..5u32), g.literal(pool)),
            1 | 2 => siblings(g, pool),
            _ => recipe(g, pool, 4),
        };
        let (ra, rb) = (operand(g, &left), operand(g, &right));
        let ((a, ref_a), (b, ref_b)) = (agree(&ra), agree(&rb));
        assert_eq!(a.and(&b).shapes(), ref_a.and(&ref_b).shapes(), "{ra:?} | {rb:?}");
        assert_eq!(b.and(&a).shapes(), ref_b.and(&ref_a).shapes(), "{rb:?} | {ra:?}");
    });
}

/// `◇(E)` over the whole grammar of `E` (sequences of compound parts
/// included) builds the same guard.
#[test]
fn eventually_expr_agrees() {
    let syms = syms(6);
    check("eventually_expr_agrees", 192, |g| {
        agree(&Recipe::Dia(g.term(&syms, 3)));
    });
}

/// `eval` agrees on every maximal trace over four symbols, at every
/// index.
#[test]
fn eval_agrees_on_every_maximal_trace() {
    let syms = syms(4);
    let traces = enumerate_maximal(&syms);
    check("eval_agrees_on_every_maximal_trace", 64, |g| {
        let (new, old) = agree(&recipe(g, &syms, 4));
        for u in &traces {
            for i in 0..=u.len() {
                assert_eq!(new.eval(u, i), old.eval(u, i), "{new:?} on {u} at {i}");
            }
        }
    });
}

/// The merge step is not confluent: `{x:A,y:A}`, `{x:A,y:B}`, `{x:B,y:A}`
/// reduce to a different pair depending on which merge fires first. The
/// canonicaliser's scan takes the first mergeable pair in sorted order —
/// `{x:A,y:A}` with `{x:A,y:B}` — and both kernels must.
#[test]
fn non_confluent_triple_merges_in_scan_order() {
    let (x, y) = (Literal::pos(SymbolId(0)), Literal::pos(SymbolId(1)));
    let both = |l: Literal, m: Literal| {
        Box::new(Recipe::And(Box::new(Recipe::Atom(0, l)), Box::new(Recipe::Atom(0, m))))
    };
    let (aa, ab, ba) = (both(x, y), both(x, y.complement()), both(x.complement(), y));
    // (x:A,y:B) + (x:B,y:A) cannot merge, so the outer `or` canonicalises
    // all three conjuncts in one pass.
    let one_pass = Recipe::Or(aa.clone(), Box::new(Recipe::Or(ab.clone(), ba.clone())));
    let (g, _) = agree(&one_pass);
    let (a, b) = (temporal::ST_A, temporal::ST_B);
    let shape = |mx: u8, my: u8| (vec![(x.symbol(), mx), (y.symbol(), my)], vec![]);
    assert_eq!(g.shapes(), [shape(a, a | b), shape(b, a)]);
    // Folding the other way round merges on x first: a different guard
    // for the same predicate.
    let y_first = Recipe::Or(Box::new(Recipe::Or(aa, ba)), ab);
    let (h, _) = agree(&y_first);
    assert_eq!(h.shapes(), [shape(a, b), shape(a | b, a)]);
    assert_eq!(g.shapes().cmp(&h.shapes()), Ordering::Greater);
}

/// Coverage by enumeration: every assignment of a state from
/// `possible[s]` to each symbol the conjuncts without `◇(sequence)` atoms
/// constrain is covered by one of them. With no such conjunct, or one
/// constraining a symbol with no possible state, the guard is not
/// covered.
fn covered_by_enumeration(g: &Guard, possible: &[u8]) -> bool {
    let usable: Vec<&Conjunct> =
        g.conjuncts().iter().filter(|c| c.seq_atoms().next().is_none()).collect();
    let mut syms: Vec<SymbolId> =
        usable.iter().flat_map(|c| c.constrained_symbols().map(|(s, _)| s)).collect();
    syms.sort_unstable();
    syms.dedup();
    if usable.is_empty() || syms.iter().any(|s| possible[s.index()] == 0) {
        return false;
    }
    fn every(usable: &[&Conjunct], syms: &[SymbolId], possible: &[u8], at: &mut Vec<u8>) -> bool {
        let Some(&sym) = syms.get(at.len()) else {
            return usable
                .iter()
                .any(|c| syms.iter().zip(&*at).all(|(&s, &st)| c.mask(s) & st != 0));
        };
        [ST_A, ST_B, ST_C, ST_D].into_iter().filter(|&st| possible[sym.index()] & st != 0).all(
            |st| {
                at.push(st);
                let all = every(usable, syms, possible, at);
                at.pop();
                all
            },
        )
    }
    every(&usable, &syms, possible, &mut Vec::new())
}

/// `covered` is enumeration, on the weakened recipes over six symbols and
/// on the edge cases — `0` and a guard of `◇(sequence)` atoms only (no
/// usable conjunct), `⊤` (no symbols), an unweakened recipe (some
/// conjuncts unusable) — under random possible-state sets, a few of them
/// empty. One scratch serves every case.
#[test]
fn covered_is_enumeration() {
    let syms = syms(6);
    let scratch = std::cell::RefCell::new(CoverScratch::default());
    check("covered_is_enumeration", 256, |g| {
        let guard: Guard = match g.range(0..10u32) {
            0 => Guard::bottom(),
            1 => Guard::top(),
            2 => {
                let (a, b) = (g.literal(&syms[..3]), g.literal(&syms[3..]));
                Guard::eventually_expr(&Expr::seq([Expr::lit(a), Expr::lit(b)]))
            }
            3 => recipe(g, &syms, 4).build(),
            _ => Recipe::Weaken(Box::new(recipe(g, &syms, 4))).build(),
        };
        let possible: Vec<u8> = (0..syms.len())
            .map(|_| match g.range(0..12u32) {
                0 => 0,
                1..=3 => ST_FULL,
                _ => g.range(1..=ST_FULL),
            })
            .collect();
        let expected = covered_by_enumeration(&guard, &possible);
        let got = guard.covered(|s| possible[s.index()], &mut scratch.borrow_mut());
        assert_eq!(got, expected, "{guard:?} under {possible:?}");
    });
}
