//! Property tests: the interference pass's commutation claims agree with
//! brute-force schedule permutation. On universes of at most four
//! symbols, every adjacent transposition of a claimed-commuting pair in
//! every maximal trace must leave every dependency machine in the same
//! final state — the dynamic meaning of the static certificate.

use analyze::{analyze_dependencies, AnalyzeOptions};
use event_algebra::{enumerate_maximal, DependencyMachine, Expr, SymbolId, SymbolTable};
use testkit::{check, Exprs, Gen};

const CASES: u32 = 40;

fn syms(range: std::ops::Range<u32>) -> Vec<SymbolId> {
    range.map(SymbolId).collect()
}

/// One to three dependencies over at most four symbols, each up to two
/// operator levels deep over the full grammar.
fn workflow(g: &mut Gen) -> Vec<Expr> {
    (0..g.len(1, 3)).map(|_| g.term(&syms(0..4), 2)).collect()
}

/// Soundness of the commutation relation: a pair the plan claims
/// commuting may be transposed at any adjacent position of any
/// maximal trace without moving any machine to a different state.
/// (The converse need not hold — the all-states machine check is
/// deliberately conservative about states no consistent trace
/// revisits — so only this direction is asserted.)
#[test]
fn claimed_commutation_survives_every_adjacent_transposition() {
    check("claimed_commutation_survives_every_adjacent_transposition", CASES, |g| {
        let deps = workflow(g);
        let mut syms: Vec<SymbolId> = deps.iter().flat_map(|d| d.symbols()).collect();
        syms.sort();
        syms.dedup();
        let table = SymbolTable::new();
        let r = analyze_dependencies(&deps, &table, &AnalyzeOptions::default());
        let plan = r.shard_plan.expect("the interference pass always emits a plan");
        let machines = DependencyMachine::compile_all(&deps);
        for u in enumerate_maximal(&syms) {
            let ev = u.events().to_vec();
            for i in 0..ev.len().saturating_sub(1) {
                if !plan.commutes(ev[i].symbol(), ev[i + 1].symbol()) {
                    continue;
                }
                let mut w = ev.clone();
                w.swap(i, i + 1);
                for (ix, m) in machines.iter().enumerate() {
                    let q0 = ev.iter().fold(m.initial, |q, &l| m.step(q, l));
                    let q1 = w.iter().fold(m.initial, |q, &l| m.step(q, l));
                    assert_eq!(
                        q0,
                        q1,
                        "dep {} distinguishes transposing {} and {} at position {}",
                        ix,
                        ev[i],
                        ev[i + 1],
                        i
                    );
                }
            }
        }
    });
}

/// Structural invariants of the certificate: independence refines
/// commutation, both relations are canonically ordered and sorted
/// (binary-searchable), and colocated pairs never commute.
#[test]
fn certificate_invariants() {
    check("certificate_invariants", CASES, |g| {
        let deps = workflow(g);
        let table = SymbolTable::new();
        let r = analyze_dependencies(&deps, &table, &AnalyzeOptions::default());
        let plan = r.shard_plan.expect("plan");
        for w in [&plan.commuting, &plan.independent] {
            assert!(w.windows(2).all(|p| p[0] < p[1]), "sorted, deduped");
            assert!(w.iter().all(|&(a, b)| a < b), "canonical pairs");
        }
        for &(a, b) in &plan.independent {
            assert!(plan.commutes(a, b), "independence refines commutation");
        }
        // Any analyzed pair the plan does not claim commuting must have
        // been colocated — non-commutable pairs never straddle shards.
        let analyzed: Vec<_> = plan.classes.iter().flat_map(|c| c.events.iter().copied()).collect();
        for (i, &a) in analyzed.iter().enumerate() {
            for &b in &analyzed[i + 1..] {
                if !plan.commutes(a, b) {
                    assert!(plan.colocated(a, b), "{a:?} {b:?} non-commutable yet split");
                }
            }
        }
    });
}
