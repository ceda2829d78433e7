//! Mechanical checks of the paper's results on guard calculation
//! (Section 4.4): Theorem 2, Lemma 3, Theorem 4, Lemma 5, Definition 4 and
//! Theorem 6. Each function checks one instance exhaustively over the
//! relevant maximal-trace universe; the property-test suites instantiate
//! them with random dependencies.

use crate::paths::guard_via_paths;
use crate::synth::GuardSynth;
use crate::workflow::GuardScope;
use event_algebra::{enumerate_maximal, satisfies, Expr, Literal, SymbolId, Trace};
use std::collections::{BTreeMap, BTreeSet};
use temporal::{guards_equivalent, Guard};

fn union_symbols(exprs: &[&Expr], extra: Literal) -> Vec<SymbolId> {
    let mut syms: std::collections::BTreeSet<SymbolId> =
        exprs.iter().flat_map(|e| e.symbols()).collect();
    syms.insert(extra.symbol());
    syms.into_iter().collect()
}

/// Theorem 2: `G(D+E, e) = G(D,e) + G(E,e)` when `Γ_D ∩ Γ_E = ∅`.
pub fn check_thm2(d: &Expr, e2: &Expr, ev: Literal) -> bool {
    if d.symbols().intersection(&e2.symbols()).next().is_some() {
        return true; // side condition unmet: theorem says nothing
    }
    let mut s = GuardSynth::new();
    let lhs = s.guard(&Expr::Or(vec![d.clone(), e2.clone()]), ev);
    let rhs = s.guard(d, ev).or(&s.guard(e2, ev));
    guards_equivalent(&lhs, &rhs, &union_symbols(&[d, e2], ev))
}

/// Theorem 4: `G(D|E, e) = G(D,e) | G(E,e)` when `Γ_D ∩ Γ_E = ∅`.
pub fn check_thm4(d: &Expr, e2: &Expr, ev: Literal) -> bool {
    if d.symbols().intersection(&e2.symbols()).next().is_some() {
        return true;
    }
    let mut s = GuardSynth::new();
    let lhs = s.guard(&Expr::And(vec![d.clone(), e2.clone()]), ev);
    let rhs = s.guard(d, ev).and(&s.guard(e2, ev));
    guards_equivalent(&lhs, &rhs, &union_symbols(&[d, e2], ev))
}

/// `true` if `g`'s symbol never appears in a non-head position of a
/// sequence in (normalized) `d`. Residuation `D/g` captures *g occurred
/// first among D's relevant events*; when `g` may legitimately occur
/// later in a sequence, the case split of Lemma 3 loses those
/// computations — see `check_lemma3`.
pub fn lemma3_applicable(d: &Expr, g: Literal) -> bool {
    fn tails_ok(e: &Expr, sym: event_algebra::SymbolId) -> bool {
        match e {
            Expr::Zero | Expr::Top | Expr::Lit(_) => true,
            Expr::Seq(v) => v.iter().skip(1).all(|p| match p {
                Expr::Lit(l) => l.symbol() != sym,
                _ => true,
            }),
            Expr::Or(v) | Expr::And(v) => v.iter().all(|p| tails_ok(p, sym)),
        }
    }
    tails_ok(&event_algebra::normalize(d), g.symbol())
}

/// Lemma 3: `G(D,e) = ¬g|G(D,e) + □g|G(D/g,e)` for any `g ∉ {e, ē}`.
///
/// **Reproduction note:** the lemma as literally stated fails when `g`
/// can occur in the *tail* of a sequence of `D` (counterexample found by
/// the property tests: `D = ē₂·e₁`, `e = ē₀`, `g = e₁` — the trace
/// `⟨ē₂ e₁ ē₀⟩` satisfies `G(D,ē₀)` with `e₁` occurred, but `D/e₁ = 0`
/// because residuation means "e₁ occurred *first*"). Definition 2's own
/// recursion never exercises that case — it always residuates by the
/// first relevant occurrence — so the lemma is checked under the side
/// condition [`lemma3_applicable`].
pub fn check_lemma3(d: &Expr, ev: Literal, g: Literal) -> bool {
    if g.symbol() == ev.symbol() || !lemma3_applicable(d, g) {
        return true;
    }
    let mut s = GuardSynth::new();
    let lhs = s.guard(d, ev);
    let rhs = Guard::not_yet(g)
        .and(&lhs)
        .or(&Guard::occurred(g).and(&s.guard(&event_algebra::residuate(d, g), ev)));
    let mut syms = union_symbols(&[d], ev);
    if !syms.contains(&g.symbol()) {
        syms.push(g.symbol());
        syms.sort_unstable();
    }
    guards_equivalent(&lhs, &rhs, &syms)
}

/// Lemma 5: Definition 2 equals the path-based synthesis.
pub fn check_lemma5(d: &Expr, ev: Literal) -> bool {
    let mut s = GuardSynth::new();
    let def2 = s.guard(d, ev);
    let via = guard_via_paths(d, ev);
    guards_equivalent(&def2, &via, &union_symbols(&[d], ev))
}

/// The guards Definition 4 reads: for every literal `e` of the workflow's
/// alphabet, `G(D, e)` of each dependency `D` in scope for it — one guard
/// per dependency, synthesized here and never conjoined, so the reference
/// does not rest on [`crate::CompiledWorkflow`]'s conjunction.
pub fn guards_by_dependency(deps: &[Expr], scope: GuardScope) -> BTreeMap<Literal, Vec<Guard>> {
    let mut synth = GuardSynth::new();
    let ids: Vec<_> = deps.iter().map(|d| synth.intern(d)).collect();
    let symbols: Vec<BTreeSet<SymbolId>> = deps.iter().map(Expr::symbols).collect();
    let alphabet: BTreeSet<SymbolId> = symbols.iter().flatten().copied().collect();
    let literals = alphabet.iter().flat_map(|&s| [Literal::pos(s), Literal::neg(s)]);
    literals
        .map(|lit| {
            let in_scope = ids.iter().zip(&symbols).filter(|(_, syms)| scope.covers(syms, lit));
            (lit, in_scope.map(|(&id, _)| synth.guard_at(id, lit).clone()).collect())
        })
        .collect()
}

/// Definition 4: workflow `W` *generates* trace `u` iff before each event
/// `u_{j+1} = e`, every in-scope dependency's guard on `e`
/// ([`guards_by_dependency`]) holds at `j`.
pub fn generates(guards: &BTreeMap<Literal, Vec<Guard>>, u: &Trace) -> bool {
    u.events()
        .iter()
        .enumerate()
        .all(|(j, ev)| guards.get(ev).is_none_or(|deps| deps.iter().all(|g| g.eval(u, j))))
}

/// Theorem 6 for one workflow: over every maximal trace of the workflow's
/// alphabet, `W generates u ⟺ ∀D ∈ W: u ⊨ D`. Returns the first
/// counterexample if any.
pub fn check_thm6(deps: &[Expr], scope: GuardScope) -> Result<(), Trace> {
    let w = guards_by_dependency(deps, scope);
    let syms: BTreeSet<SymbolId> = deps.iter().flat_map(Expr::symbols).collect();
    let syms: Vec<SymbolId> = syms.into_iter().collect();
    for u in enumerate_maximal(&syms) {
        let gen = generates(&w, &u);
        let sat = deps.iter().all(|d| satisfies(&u, d));
        if gen != sat {
            return Err(u);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use event_algebra::SymbolTable;

    fn setup4() -> (SymbolTable, [Literal; 4]) {
        let mut t = SymbolTable::new();
        let e = t.event("e");
        let f = t.event("f");
        let g = t.event("g");
        let h = t.event("h");
        (t, [e, f, g, h])
    }

    fn d_arrow(a: Literal, b: Literal) -> Expr {
        Expr::or([Expr::lit(a.complement()), Expr::lit(b)])
    }

    fn d_precedes(a: Literal, b: Literal) -> Expr {
        Expr::or([
            Expr::lit(a.complement()),
            Expr::lit(b.complement()),
            Expr::seq([Expr::lit(a), Expr::lit(b)]),
        ])
    }

    #[test]
    fn thm2_on_disjoint_pairs() {
        let (_, [e, f, g, h]) = setup4();
        let d1 = d_arrow(e, f);
        let d2 = d_precedes(g, h);
        for ev in [e, f, g, h, e.complement(), h.complement()] {
            assert!(check_thm2(&d1, &d2, ev), "ev={ev}");
        }
    }

    #[test]
    fn thm4_on_disjoint_pairs() {
        let (_, [e, f, g, h]) = setup4();
        let d1 = d_arrow(e, f);
        let d2 = d_arrow(g, h);
        for ev in [e, f, g, h] {
            assert!(check_thm4(&d1, &d2, ev), "ev={ev}");
        }
    }

    #[test]
    fn lemma3_case_split() {
        let (_, [e, f, g, _]) = setup4();
        let d = d_precedes(e, f);
        for ev in [e, f] {
            for by in [f, f.complement(), g, g.complement(), e] {
                assert!(check_lemma3(&d, ev, by), "ev={ev} g={by}");
            }
        }
    }

    #[test]
    fn lemma5_on_examples() {
        let (_, [e, f, _, _]) = setup4();
        for d in [d_arrow(e, f), d_precedes(e, f)] {
            for ev in [e, f, e.complement(), f.complement()] {
                assert!(check_lemma5(&d, ev), "D={d} ev={ev}");
            }
        }
    }

    #[test]
    fn thm6_single_dependencies() {
        let (_, [e, f, _, _]) = setup4();
        for d in
            [d_arrow(e, f), d_precedes(e, f), Expr::lit(e), Expr::seq([Expr::lit(e), Expr::lit(f)])]
        {
            assert!(check_thm6(std::slice::from_ref(&d), GuardScope::Mentioning).is_ok(), "D={d}");
            assert!(check_thm6(std::slice::from_ref(&d), GuardScope::All).is_ok(), "D={d}");
        }
    }

    #[test]
    fn thm6_multi_dependency_workflows() {
        let (_, [e, f, g, _]) = setup4();
        let workflows: Vec<Vec<Expr>> = vec![
            vec![d_arrow(e, f), d_precedes(f, g)],
            vec![d_arrow(e, f), d_arrow(f, e)], // Example 11's cycle
            vec![d_precedes(e, f), d_precedes(f, g)],
            vec![Expr::lit(e), d_arrow(e, f)],
        ];
        for w in workflows {
            assert!(check_thm6(&w, GuardScope::Mentioning).is_ok(), "W={w:?}");
            assert!(check_thm6(&w, GuardScope::All).is_ok(), "W={w:?}");
        }
    }

    #[test]
    fn thm6_travel_workflow() {
        // Example 4's three dependencies, checked exhaustively over the
        // 5-symbol maximal universe (3840 traces).
        let mut t = SymbolTable::new();
        let s_buy = t.event("s_buy");
        let c_buy = t.event("c_buy");
        let s_book = t.event("s_book");
        let c_book = t.event("c_book");
        let s_cancel = t.event("s_cancel");
        let deps = vec![
            Expr::or([Expr::lit(s_buy.complement()), Expr::lit(s_book)]),
            Expr::or([
                Expr::lit(c_buy.complement()),
                Expr::seq([Expr::lit(c_book), Expr::lit(c_buy)]),
            ]),
            Expr::or([Expr::lit(c_book.complement()), Expr::lit(c_buy), Expr::lit(s_cancel)]),
        ];
        assert!(check_thm6(&deps, GuardScope::Mentioning).is_ok());
    }

    #[test]
    fn generates_spots_bad_prefix() {
        // In D<'s guards, f must not precede e unless ē is guaranteed:
        // the trace ⟨f e⟩ is not generated.
        let (_, [e, f, _, _]) = setup4();
        let w = guards_by_dependency(&[d_precedes(e, f)], GuardScope::Mentioning);
        let bad = Trace::new([f, e]).unwrap();
        assert!(!generates(&w, &bad));
        let good = Trace::new([e, f]).unwrap();
        assert!(generates(&w, &good));
    }
}
