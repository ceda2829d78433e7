//! Guard synthesis `G(D, e)` — Definition 2 (Section 4.2).
//!
//! ```text
//! G(D,e) ≜ (◇(D/e) | ⋀_{f ∈ Γ_{D^e}} ¬f)  +  Σ_{f ∈ Γ_{D^e}} (□f | G(D/f, e))
//! ```
//!
//! where `Γ_{D^e} = Γ_D − {e, ē}`. The first term covers the computations
//! where `e` occurs before any other relevant event (nothing else has
//! happened yet, and the rest of the dependency must still be satisfiable
//! after `e`); each sum term covers the computations where some other
//! relevant event `f` occurred first.
//!
//! The recursion terminates because `D/f` never mentions `f`'s symbol
//! again; it is memoized on the (normalized dependency, event) pair —
//! keyed by hash-consed [`ExprId`] so a memo probe hashes one word
//! instead of a cloned tree — since different interleavings reconverge on
//! the same residuals.
//!
//! Nothing in the recursion compares a symbol with anything but another
//! symbol (`Γ_{D^e}` is walked in literal order, `◇(D/e)` folded in the
//! tree's structural order, every guard operation is a merge over sorted
//! symbols), so `G(ρD, ρe) = ρ·G(D, e)` for every order-preserving
//! renaming `ρ`. [`GuardSynth::intern_shape`] interns a dependency's
//! [shape](Expr::shape): every dependency of that shape then hits the
//! same memo entries, and a workflow of nine `e → f` arrows runs the
//! recursion once (`tests/shape_props.rs` holds the equation to a
//! per-token synthesis, and shows the order-*reversing* renaming that
//! breaks it).

use event_algebra::{
    normalize, DependencyMachine, Expr, ExprArena, ExprId, FxHashMap, Literal, SymbolId,
};
use std::collections::BTreeSet;
use temporal::{occurred_mask, Guard};

/// A memo table for guard synthesis, reusable across events and
/// dependencies of one workflow. Owns an [`ExprArena`]: every residual
/// in the `G(D,e)` recursion is interned once, and the memo is keyed on
/// `(ExprId, Literal)`.
#[derive(Debug, Default)]
pub struct GuardSynth {
    arena: ExprArena,
    memo: FxHashMap<(ExprId, Literal), Guard>,
    /// `◇(R)` per residual `R`. The same residual is the "rest of the
    /// dependency" of many (state, event) pairs, and building its guard
    /// goes through the tree form — the arena orders `+`/`|` children by
    /// id, the tree by structure, and the order sums are folded in is
    /// part of the resulting guard — so it is built once per id.
    eventually: FxHashMap<ExprId, Guard>,
    /// `Γ_{D^e}` of every memo entry under construction, innermost last:
    /// an entry pushes its literals and pops them when it is done, so one
    /// buffer serves the whole recursion.
    gamma: Vec<Literal>,
}

impl GuardSynth {
    /// Fresh synthesizer.
    pub fn new() -> GuardSynth {
        GuardSynth::default()
    }

    /// Intern and normalize a dependency: the handle [`GuardSynth::guard_at`]
    /// takes, so a caller asking for many events' guards pays for the
    /// tree walk once.
    pub fn intern(&mut self, d: &Expr) -> ExprId {
        let raw = self.arena.intern(d);
        self.arena.normalize(raw)
    }

    /// Intern and normalize the [shape](Expr::shape) of a dependency and
    /// return its binding: `G(D, e)` is then
    /// `guard_at(id, e over its rank).rebind(&binding)`, and every
    /// dependency of the same shape gets the same id — so the same memo
    /// entries.
    pub fn intern_shape(&mut self, d: &Expr) -> (ExprId, Vec<SymbolId>) {
        let (raw, binding) = self.arena.intern_shape(d);
        (self.arena.normalize(raw), binding)
    }

    /// Size the arena's and the memo's tables for the shapes interned so
    /// far, `n` nodes: compiling the benchmark templates ends with at most
    /// `1.4 n` nodes, `5.4 n` residuations, `3.9 n` guard entries and
    /// `n` `◇(R)` guards, so the tables are allocated once instead of
    /// growing through every power of two.
    pub(crate) fn reserve_for_shapes(&mut self) {
        let n = self.arena.len();
        self.arena.reserve(n, 6 * n);
        self.memo.reserve(4 * n);
        self.eventually.reserve(n);
    }

    /// The residual machines of dependencies interned by
    /// [`GuardSynth::intern_shape`], one per `(id, binding)` in order:
    /// the synthesis recursion has residuated every state a machine
    /// explores, so after the guards this is a walk over the arena's memo.
    pub fn machines(&mut self, shaped: &[(ExprId, Vec<SymbolId>)]) -> Vec<DependencyMachine> {
        DependencyMachine::compile_shaped(&mut self.arena, shaped)
    }

    /// `G(D, e)` per Definition 2.
    pub fn guard(&mut self, d: &Expr, e: Literal) -> Guard {
        let id = self.intern(d);
        self.guard_at(id, e).clone()
    }

    /// `G(D, e)` for a dependency interned by [`GuardSynth::intern`],
    /// borrowed from the memo.
    pub fn guard_at(&mut self, id: ExprId, e: Literal) -> &Guard {
        self.synthesize(id, e);
        &self.memo[&(id, e)]
    }

    fn guard_normal(&mut self, d: &Expr, e: Literal) -> Guard {
        let id = self.arena.intern(d);
        debug_assert!(self.arena.is_normal(id));
        self.guard_at(id, e).clone()
    }

    /// Fill the memo entry for `(id, e)` and everything it rests on.
    fn synthesize(&mut self, id: ExprId, e: Literal) {
        if self.memo.contains_key(&(id, e)) {
            return;
        }
        // Γ_{D^e}: the relevant literals other than e's symbol, in the
        // alphabet's order.
        let start = self.gamma.len();
        for &s in self.arena.symbols(id).iter().filter(|&&s| s != e.symbol()) {
            self.gamma.extend([Literal::pos(s), Literal::neg(s)]);
        }
        let end = self.gamma.len();
        // First term: e occurs before any other relevant event.
        let after_e = self.arena.residuate_normal(id, e);
        let arena = &self.arena;
        let rest = (self.eventually.entry(after_e))
            // Residuals of a normal form are normal.
            .or_insert_with(|| Guard::eventually_normal(&arena.expr(after_e)));
        let mut result = rest.and_not_yet(&self.gamma[start..end]);
        // Sum terms: f occurred first. `□f | G(D/f, e)` is the memo entry
        // conjoined with `□f` in place, and the sum is folded by value.
        for k in start..end {
            let f = self.gamma[k];
            let sub_id = self.arena.residuate_normal(id, f);
            self.synthesize(sub_id, e);
            let term = self.memo[&(sub_id, e)].clone();
            result = result.or_owned(term.and_mask(f.symbol(), occurred_mask(f.polarity())));
        }
        self.gamma.truncate(start);
        self.memo.insert((id, e), result);
    }

    /// `G(D, e)` using the independence fast path: when `D` is a `+` or
    /// `|` of sub-dependencies over pairwise disjoint alphabets, Theorem 2
    /// / Theorem 4 let us synthesize per part and combine — avoiding the
    /// full recursion over `Γ_D` (benchmarked as experiment C6).
    pub fn guard_split(&mut self, d: &Expr, e: Literal) -> Guard {
        let d = normalize(d);
        self.guard_split_normal(&d, e)
    }

    fn guard_split_normal(&mut self, d: &Expr, e: Literal) -> Guard {
        let parts: Option<(&[Expr], bool)> = match &d {
            Expr::Or(v) => Some((v, true)),
            Expr::And(v) => Some((v, false)),
            _ => None,
        };
        if let Some((parts, is_or)) = parts {
            if pairwise_disjoint(parts) {
                // Only the part mentioning e's symbol contributes a
                // non-trivial recursion; the others still contribute
                // their full G (they may not mention e at all but their
                // guard on e is well-defined), so combine all parts.
                let mut acc: Option<Guard> = None;
                for p in parts {
                    let g = self.guard_split_normal(p, e);
                    acc = Some(match acc {
                        None => g,
                        Some(a) => {
                            if is_or {
                                a.or(&g)
                            } else {
                                a.and(&g)
                            }
                        }
                    });
                }
                return acc.unwrap_or_else(Guard::top);
            }
        }
        self.guard_normal(d, e)
    }

    /// Number of memoized entries (for introspection/benches).
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }
}

/// `true` if the parts mention pairwise disjoint symbol sets — the side
/// condition `Γ_D ∩ Γ_E = ∅` of Theorems 2 and 4.
pub fn pairwise_disjoint(parts: &[Expr]) -> bool {
    let mut seen: BTreeSet<SymbolId> = BTreeSet::new();
    for p in parts {
        let syms = p.symbols();
        if syms.iter().any(|s| seen.contains(s)) {
            return false;
        }
        seen.extend(syms);
    }
    true
}

/// One-shot convenience for `G(D, e)`.
pub fn guard_of(d: &Expr, e: Literal) -> Guard {
    GuardSynth::new().guard(d, e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use event_algebra::SymbolTable;
    use temporal::{guards_equivalent_auto, Guard};

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

    fn d_arrow(e: Literal, f: Literal) -> Expr {
        Expr::or([Expr::lit(e.complement()), Expr::lit(f)])
    }

    #[test]
    fn example9_constants_and_atoms() {
        let (_, e, _) = setup();
        // 1. G(⊤, e) = ⊤.
        assert!(guard_of(&Expr::Top, e).is_top());
        // 2. G(0, e) = 0.
        assert!(guard_of(&Expr::Zero, e).is_bottom());
        // 3. G(e, e) = ⊤.
        assert!(guard_of(&Expr::lit(e), e).is_top());
        // 4. G(ē, e) = 0.
        assert!(guard_of(&Expr::lit(e.complement()), e).is_bottom());
    }

    #[test]
    fn example9_d_precedes_guards() {
        let (_, e, f) = setup();
        let d = d_precedes(e, f);
        let mut s = GuardSynth::new();
        // 5. G(D<, ē) = ⊤.
        assert!(s.guard(&d, e.complement()).is_top());
        // 6. G(D<, e) = ¬f.
        assert_eq!(s.guard(&d, e), Guard::not_yet(f));
        // 7. G(D<, f̄) = ⊤.
        assert!(s.guard(&d, f.complement()).is_top());
        // 8. G(D<, f) = ◇ē + □e.
        let expected = Guard::eventually(e.complement()).or(&Guard::occurred(e));
        assert_eq!(s.guard(&d, f), expected);
    }

    #[test]
    fn example11_mutual_diamond_guards() {
        // D→ = ē + f and its transpose f̄ + e give e's guard ◇f and f's
        // guard ◇e.
        let (_, e, f) = setup();
        let d = d_arrow(e, f);
        let dt = Expr::or([Expr::lit(f.complement()), Expr::lit(e)]);
        let mut s = GuardSynth::new();
        assert_eq!(s.guard(&d, e), Guard::eventually(f));
        assert_eq!(s.guard(&dt, f), Guard::eventually(e));
        // The same-dependency guards on the *other* events:
        // G(D→, f) = ⊤ and G(D→, ē) = ⊤ are NOT generally ⊤ — compute them.
        // f's occurrence always keeps D→ satisfiable: guard is ⊤.
        assert!(s.guard(&d, f).is_top());
    }

    #[test]
    fn guard_on_unmentioned_event_gates_on_dependency_satisfaction() {
        // G(f, e) for e foreign to the dependency "f must occur": the
        // event may occur iff the dependency can still be satisfied, i.e.
        // ◇f (f promised or occurred).
        let (mut t, _, f) = setup();
        let g = t.event("g");
        let synth = guard_of(&Expr::lit(f), g);
        assert_eq!(synth, Guard::eventually(f));
    }

    #[test]
    fn memoization_reuses_residual_guards() {
        let (_, e, f) = setup();
        let mut s = GuardSynth::new();
        let _ = s.guard(&d_precedes(e, f), e);
        let before = s.memo_len();
        let _ = s.guard(&d_precedes(e, f), e);
        assert_eq!(s.memo_len(), before, "second call fully memoized");
    }

    #[test]
    fn split_path_agrees_with_definition2_on_disjoint_or() {
        let mut t = SymbolTable::new();
        let e = t.event("e");
        let f = t.event("f");
        let g = t.event("g");
        let h = t.event("h");
        // (ē + f) + (ḡ + h): disjoint alphabets.
        let d = Expr::Or(vec![
            Expr::or([Expr::lit(e.complement()), Expr::lit(f)]),
            Expr::or([Expr::lit(g.complement()), Expr::lit(h)]),
        ]);
        let mut s = GuardSynth::new();
        for lit in [e, f, g, h, e.complement(), g.complement()] {
            let full = s.guard(&d, lit);
            let fast = s.guard_split(&d, lit);
            assert!(guards_equivalent_auto(&full, &fast), "lit {lit}: {full:?} vs {fast:?}");
        }
    }

    #[test]
    fn split_path_agrees_on_disjoint_and() {
        let mut t = SymbolTable::new();
        let e = t.event("e");
        let f = t.event("f");
        let g = t.event("g");
        let h = t.event("h");
        let d = Expr::And(vec![
            Expr::or([Expr::lit(e.complement()), Expr::lit(f)]),
            Expr::or([Expr::lit(g.complement()), Expr::lit(h)]),
        ]);
        let mut s = GuardSynth::new();
        for lit in [e, f, g, h] {
            let full = s.guard(&d, lit);
            let fast = s.guard_split(&d, lit);
            assert!(guards_equivalent_auto(&full, &fast), "lit {lit}");
        }
    }

    #[test]
    fn pairwise_disjoint_detection() {
        let (_, e, f) = setup();
        assert!(pairwise_disjoint(&[Expr::lit(e), Expr::lit(f)]));
        assert!(!pairwise_disjoint(&[Expr::lit(e), Expr::lit(e.complement())]));
        assert!(pairwise_disjoint(&[]));
    }

    #[test]
    fn chain_guard_closed_form() {
        // G(e1·e2·e3, e2) = □e1 | ¬e3 | ◇(e3)  (the notice before Lemma 5,
        // with k = 2).
        let mut t = SymbolTable::new();
        let e1 = t.event("e1");
        let e2 = t.event("e2");
        let e3 = t.event("e3");
        let d = Expr::seq([Expr::lit(e1), Expr::lit(e2), Expr::lit(e3)]);
        let g = guard_of(&d, e2);
        let expected = Guard::occurred(e1).and(&Guard::not_yet(e3)).and(&Guard::eventually(e3));
        assert!(guards_equivalent_auto(&g, &expected), "{g:?}");
    }
}
