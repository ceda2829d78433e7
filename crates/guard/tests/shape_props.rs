//! Compile by shape: what it rests on, and what would break it.
//!
//! `CompiledWorkflow::compile` and `DependencyMachine::compile_all`
//! compute over a dependency's [shape](Expr::shape) — its symbols
//! replaced by their ranks — and rebind the result. That is sound exactly
//! when synthesis and exploration commute with order-preserving
//! renamings, which is checked here against references that never take a
//! shape: `guard_of` per token, a tree-level machine explorer, and
//! `guards_by_dependency` for whole workflows.

use constrained_events::{models, WorkflowBuilder};
use event_algebra::{
    normalize, residuate, satisfiable, satisfiable_avoiding, DependencyMachine, Expr, Literal,
    StateId, SymbolId,
};
use guard::theorems::guards_by_dependency;
use guard::{guard_of, CompiledWorkflow, GuardScope};
use std::collections::HashMap;
use temporal::{Guard, ST_A, ST_B};
use testkit::{check, Exprs, Gen};

fn syms(n: u32) -> Vec<SymbolId> {
    (0..n).map(SymbolId).collect()
}

/// A strictly increasing image for the symbols `0..n`: gaps of random
/// width, wide enough to cross the 64-symbol signature word.
fn renaming(g: &mut Gen, n: usize) -> Vec<SymbolId> {
    let mut next = g.range(0..40u32);
    (0..n)
        .map(|_| {
            let here = next;
            next += g.range(1..50u32);
            SymbolId(here)
        })
        .collect()
}

/// `G(ρD, ρe) = ρ·G(D, e)` for every literal over the dependency's
/// universe — the last symbol of which the dependency never mentions, so
/// the foreign case is covered at both ends of the order.
#[test]
fn synthesis_commutes_with_order_preserving_renamings() {
    check("synthesis_commutes_with_order_preserving_renamings", 160, |g| {
        let universe = syms(5);
        let foreign_low = g.flip();
        let mentioned = if foreign_low { &universe[1..] } else { &universe[..4] };
        let d = g.dependency(mentioned, 3);
        let rho = renaming(g, universe.len());
        let rho_d = d.rebind(&rho);
        for &s in &universe {
            for e in [Literal::pos(s), Literal::neg(s)] {
                let expected = guard_of(&d, e).rebind(&rho);
                assert_eq!(guard_of(&rho_d, e.rebind(&rho)), expected, "D = {d}, e = {e}");
            }
        }
    });
}

/// The residual machine explored on trees — no arena, no shape — with
/// the compile's frontier discipline, so state numbers are comparable.
struct TreeMachine {
    alphabet: Vec<Literal>,
    states: Vec<Expr>,
    next: Vec<Vec<StateId>>,
}

fn tree_machine(d: &Expr) -> TreeMachine {
    let dep = normalize(d);
    let alphabet: Vec<Literal> = dep.gamma().into_iter().collect();
    let mut states = vec![dep.clone()];
    let mut index: HashMap<Expr, StateId> = HashMap::from([(dep, StateId(0))]);
    let mut next = vec![vec![StateId(0); alphabet.len()]];
    let mut frontier = vec![StateId(0)];
    while let Some(sid) = frontier.pop() {
        let state = states[sid.index()].clone();
        for (k, &lit) in alphabet.iter().enumerate() {
            if !state.mentions(lit.symbol()) {
                continue;
            }
            let to = residuate(&state, lit);
            let nid = *index.entry(to.clone()).or_insert_with(|| {
                let id = StateId(states.len() as u32);
                states.push(to);
                next.push(vec![id; alphabet.len()]);
                frontier.push(id);
                id
            });
            next[sid.index()][k] = nid;
        }
    }
    TreeMachine { alphabet, states, next }
}

/// The machine compiled through the shape of `ρD` is the tree machine of
/// `ρD`, table for table, and is the machine of `D` relabelled.
#[test]
fn machines_commute_with_order_preserving_renamings() {
    check("machines_commute_with_order_preserving_renamings", 160, |g| {
        let universe = syms(5);
        let d = g.dependency(&universe, 3);
        let rho = renaming(g, universe.len());
        let rho_d = d.rebind(&rho);
        let (m, rho_m) = (DependencyMachine::compile(&d), DependencyMachine::compile(&rho_d));
        let tree = tree_machine(&rho_d);
        assert_eq!(rho_m.alphabet, tree.alphabet, "D = {d}");
        assert_eq!(rho_m.state_count(), tree.states.len(), "D = {d}");
        let relabelled: Vec<Literal> = m.alphabet.iter().map(|l| l.rebind(&rho)).collect();
        assert_eq!(rho_m.alphabet, relabelled);
        let ids = |n: usize| (0..n as u32).map(StateId);
        let live: Vec<bool> = tree.states.iter().map(satisfiable).collect();
        assert_eq!(rho_m.live(), live);
        assert_eq!(m.live(), live);
        let where_is = |want: bool| -> Vec<StateId> {
            ids(live.len()).filter(|s| live[s.index()] == want).collect()
        };
        assert_eq!(rho_m.trap_states(), where_is(false));
        let accepting: Vec<StateId> =
            ids(tree.states.len()).filter(|s| tree.states[s.index()].is_top()).collect();
        assert_eq!(rho_m.accepting_states(), accepting);
        assert_eq!(m.accepting_states(), accepting);
        for s in ids(tree.states.len()) {
            let residual = &tree.states[s.index()];
            assert_eq!(&rho_m.state(s), residual, "state {s:?} of {rho_d}");
            assert_eq!(&m.state(s).rebind(&rho), residual);
            for (k, &l) in tree.alphabet.iter().enumerate() {
                assert_eq!(rho_m.step(s, l), tree.next[s.index()][k], "{s:?} --{l}-->");
                assert_eq!(m.step(s, m.alphabet[k]), tree.next[s.index()][k]);
                let avoiding = satisfiable_avoiding(residual, l);
                assert_eq!(rho_m.may_reach_avoiding(s, l), avoiding, "{residual} avoiding {l}");
                assert_eq!(m.may_reach_avoiding(s, m.alphabet[k]), avoiding);
            }
        }
    });
}

/// The can-fail witness: an order-*reversing* renaming does not commute
/// with canonicalisation, so a shape key computed from an unordered
/// renaming would hand one dependency another's guard. The non-confluent
/// triple `{x:A,y:A}, {x:A,y:B}, {x:B,y:A}` is symmetric under `x ↔ y`:
/// canonicalising the swapped input gives the same guard again, while
/// swapping the canonical result gives a different one.
#[test]
fn an_order_reversing_renaming_breaks_guard_equality() {
    let (x, y) = (SymbolId(0), SymbolId(1));
    let cell = |p, mp, q, mq| Guard::from_mask(p, mp).and(&Guard::from_mask(q, mq));
    let triple =
        |p, q| cell(p, ST_A, q, ST_A).or(&cell(p, ST_A, q, ST_B).or(&cell(p, ST_B, q, ST_A)));
    let canonical = triple(x, y);
    assert_eq!(canonical, cell(x, ST_A, y, ST_A | ST_B).or(&cell(x, ST_B, y, ST_A)));
    // σ = (x y) applied to the input: the same three conjuncts.
    assert_eq!(triple(y, x), canonical);
    // σ applied to the result: merged on the other symbol.
    let swapped = cell(y, ST_A, x, ST_A | ST_B).or(&cell(y, ST_B, x, ST_A));
    assert_eq!(swapped.conjuncts().len(), 2);
    assert_ne!(swapped, canonical);
    // An order-preserving renaming of the same triple does commute.
    let rho = [SymbolId(7), SymbolId(90)];
    assert_eq!(triple(rho[0], rho[1]), canonical.rebind(&rho));
}

/// `compile`'s conjoined guards against the per-token reference, one
/// guard per dependency folded in dependency order.
fn assert_compile_matches_reference(name: &str, deps: &[Expr], scope: GuardScope) {
    let compiled = CompiledWorkflow::compile(deps, scope);
    let reference = guards_by_dependency(deps, scope);
    assert_eq!(compiled.guards.len(), reference.len(), "{name}");
    for (lit, per_dependency) in &reference {
        let conjoined = per_dependency.iter().fold(Guard::top(), |acc, g| acc.and(g));
        assert_eq!(compiled.guards[lit], conjoined, "{name}: guard on {lit} under {scope:?}");
    }
}

fn benchmark_spec(name: &str) -> Vec<Expr> {
    let path = format!("{}/../../benchmark/specs/{name}.wf", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).expect(&path);
    WorkflowBuilder::from_spec(&src).expect(name).build().spec.dependencies
}

/// Every template the benchmark runs, plus `pipeline12` and `saga(5)`.
/// Under `GuardScope::All` every dependency meets every literal, and a
/// conjunction of guards that *share* symbols still canonicalises
/// quadratically — 11 s on `pipeline10` unoptimised, minutes on a saga,
/// at either commit — so only the small templates are held to both
/// scopes here; the random workflows below cover `All` in bulk.
#[test]
fn compiled_templates_match_the_per_token_reference() {
    let dependencies = |w: constrained_events::Workflow| w.spec.dependencies;
    let both_scopes = [
        ("travel", benchmark_spec("travel")),
        ("contingency(3, false)", dependencies(models::contingency(3, false))),
    ];
    let mentioning_only = [
        ("pipeline10", benchmark_spec("pipeline10")),
        ("pipeline12", benchmark_spec("pipeline12")),
        ("diamond(3)", dependencies(models::diamond(3))),
        ("saga(3, 3, Some(1))", dependencies(models::saga(3, 3, Some(1)))),
        ("saga(4, 3, None)", dependencies(models::saga(4, 3, None))),
        ("saga(5, 3, None)", dependencies(models::saga(5, 3, None))),
    ];
    for (name, deps) in &both_scopes {
        assert_compile_matches_reference(name, deps, GuardScope::All);
    }
    for (name, deps) in both_scopes.iter().chain(&mentioning_only) {
        assert_compile_matches_reference(name, deps, GuardScope::Mentioning);
    }
}

/// 300 random 3-dependency workflows over sparse symbol ids, both
/// scopes: repeated shapes, shared symbols and foreign literals in one
/// compile.
#[test]
fn compiled_random_workflows_match_the_per_token_reference() {
    check("compiled_random_workflows_match_the_per_token_reference", 300, |g| {
        let rho = renaming(g, 5);
        let deps: Vec<Expr> = g.workflow(&syms(5), 3, 3).iter().map(|d| d.rebind(&rho)).collect();
        for scope in [GuardScope::Mentioning, GuardScope::All] {
            assert_compile_matches_reference("random", &deps, scope);
        }
    });
}
