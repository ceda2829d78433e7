//! Differential property tests for the goal-directed product search: on
//! random workflows every query must agree with a plain exhaustive search
//! written here, whatever propagation, pruning, ordering and witness
//! reuse did to get there. One more property holds the machines'
//! commutation test to brute-force schedule permutation.

use event_algebra::{
    enumerate_maximal, DependencyMachine, Expr, Literal, ProductMachine, Reach, StateBudget,
    StateId, SymbolId,
};
use std::collections::HashSet;
use testkit::{check, Exprs, Gen};

const CASES: u32 = 192;
const AMPLE: usize = 1 << 20;

/// One to five dependencies over at most eight symbols: the full grammar
/// (`·`, `+`, `|` over literals, `0` and `⊤`) in half the cases, which is
/// mostly contradictory, and satisfiable literal-sequence dependencies in
/// the other half, which mostly is not.
fn workflow(g: &mut Gen) -> Vec<Expr> {
    let syms: Vec<SymbolId> = (0..g.range(2..=8u32)).map(SymbolId).collect();
    let n = g.len(1, 5);
    if g.flip() {
        (0..n).map(|_| g.term(&syms, 2)).collect()
    } else {
        g.workflow(&syms, n, 2)
    }
}

/// The specification: visited-set DFS over tuples of machine states,
/// stepping each machine with [`DependencyMachine::step`], never taking an
/// `avoid` edge, pruning only tuples that hold a trap state.
fn reference(machines: &[DependencyMachine], alphabet: &[Literal], avoid: Option<Literal>) -> bool {
    let initial: Vec<StateId> = machines.iter().map(|m| m.initial).collect();
    let mut visited: HashSet<Vec<StateId>> = HashSet::from([initial.clone()]);
    let mut stack = vec![initial];
    while let Some(state) = stack.pop() {
        if state.iter().zip(machines).all(|(&s, m)| m.is_accepting(s)) {
            return true;
        }
        if state.iter().zip(machines).any(|(&s, m)| !m.is_live(s)) {
            continue;
        }
        for &lit in alphabet {
            if avoid == Some(lit) {
                continue;
            }
            let next: Vec<StateId> =
                state.iter().zip(machines).map(|(&s, m)| m.step(s, lit)).collect();
            if visited.insert(next.clone()) {
                stack.push(next);
            }
        }
    }
    false
}

fn queries(p: &ProductMachine) -> Vec<Option<Literal>> {
    std::iter::once(None).chain(p.alphabet().iter().copied().map(Some)).collect()
}

/// The witness of the `Yes` just returned is a real trace: every machine
/// accepts after it, and it does not contain `avoid`.
fn assert_witness(p: &ProductMachine, avoid: Option<Literal>) {
    let path = p.witness().expect("a Yes keeps its witness");
    assert!(path.iter().all(|&l| Some(l) != avoid), "witness {path:?} contains {avoid:?}");
    for m in p.machines() {
        let end = path.iter().fold(m.initial, |s, &l| m.step(s, l));
        assert!(m.is_accepting(end), "{} not accepted by {path:?}", m.dependency());
    }
}

#[test]
fn every_query_matches_the_exhaustive_search() {
    check("every_query_matches_the_exhaustive_search", CASES, |g| {
        let deps = workflow(g);
        let machines = DependencyMachine::compile_all(&deps);
        let mut shared = ProductMachine::from_machines(machines.clone());
        let mut budget = StateBudget::new(AMPLE);
        for avoid in queries(&shared) {
            let expected =
                if reference(&machines, shared.alphabet(), avoid) { Reach::Yes } else { Reach::No };
            // One product answering every query in turn reuses witnesses…
            assert_eq!(shared.reach_accepting(avoid, &mut budget), expected, "avoid {avoid:?}");
            // …a fresh one has to search.
            let mut fresh = ProductMachine::from_machines(machines.clone());
            let got = fresh.reach_accepting(avoid, &mut StateBudget::new(AMPLE));
            assert_eq!(got, expected, "fresh, avoid {avoid:?}");
            if expected.found() {
                assert_witness(&shared, avoid);
                assert_witness(&fresh, avoid);
            }
        }
    });
}

#[test]
fn classification_matches_the_exhaustive_search() {
    check("classification_matches_the_exhaustive_search", CASES, |g| {
        let deps = workflow(g);
        let machines = DependencyMachine::compile_all(&deps);
        let mut p = ProductMachine::from_machines(machines.clone());
        let verdict = p.classify(&mut StateBudget::new(AMPLE));
        assert!(!verdict.incomplete);
        let joint = reference(&machines, p.alphabet(), None);
        assert_eq!(verdict.joint.found(), joint);
        let dead: Vec<Literal> = p
            .alphabet()
            .iter()
            .copied()
            .filter(|l| joint && !reference(&machines, p.alphabet(), Some(l.complement())))
            .collect();
        assert_eq!(verdict.dead, dead);
    });
}

#[test]
fn a_tight_budget_cuts_off_but_never_lies() {
    check("a_tight_budget_cuts_off_but_never_lies", CASES, |g| {
        let deps = workflow(g);
        let machines = DependencyMachine::compile_all(&deps);
        let mut p = ProductMachine::from_machines(machines.clone());
        let mut budget = StateBudget::new(g.range(0..12usize));
        for avoid in queries(&p) {
            let got = p.reach_accepting(avoid, &mut budget);
            if !got.cutoff() {
                assert_eq!(got.found(), reference(&machines, p.alphabet(), avoid), "{avoid:?}");
            }
            if got.found() {
                assert_witness(&p, avoid);
            }
            assert!(budget.spent() <= budget.limit());
        }
    });
}

/// Soundness of commutation: a pair of symbols that `symbols_commute`
/// accepts on every machine may be transposed at any adjacent position of
/// any maximal trace without moving any machine to a different state. (The
/// converse need not hold — the all-states check is conservative about
/// states no consistent trace revisits — so only this direction is
/// asserted.)
#[test]
fn claimed_commutation_survives_every_adjacent_transposition() {
    check("claimed_commutation_survives_every_adjacent_transposition", 40, |g| {
        let syms: Vec<SymbolId> = (0..4).map(SymbolId).collect();
        let deps: Vec<Expr> = (0..g.len(1, 3)).map(|_| g.term(&syms, 2)).collect();
        let machines = DependencyMachine::compile_all(&deps);
        let commute =
            |a: SymbolId, b: SymbolId| a != b && machines.iter().all(|m| m.symbols_commute(a, b));
        let mut used: Vec<SymbolId> = deps.iter().flat_map(|d| d.symbols()).collect();
        used.sort();
        used.dedup();
        for u in enumerate_maximal(&used) {
            let ev = u.events();
            for i in 0..ev.len().saturating_sub(1) {
                if !commute(ev[i].symbol(), ev[i + 1].symbol()) {
                    continue;
                }
                let mut w = ev.to_vec();
                w.swap(i, i + 1);
                for m in &machines {
                    let q0 = ev.iter().fold(m.initial, |q, &l| m.step(q, l));
                    let q1 = w.iter().fold(m.initial, |q, &l| m.step(q, l));
                    assert_eq!(
                        q0,
                        q1,
                        "{} tells {} {} apart at {i}",
                        m.dependency(),
                        ev[i],
                        ev[i + 1]
                    );
                }
            }
        }
    });
}
