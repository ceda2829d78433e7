//! Pinned ceilings for the static checker's product search, as counts of
//! product states (host-independent): workflows whose interleavings the
//! search once enumerated must stay decided in a few hundred states, and
//! the plain exhaustive fallback must stay correct where neither root
//! propagation nor pruning can settle the verdict.

use analyze::{analyze_dependencies, analyze_workflow, AnalyzeOptions, Report};
use constrained_events::models::saga;
use constrained_events::LoweredWorkflow;
use event_algebra::{enumerate_maximal, parse_expr, satisfies, Expr, SymbolId, SymbolTable};

/// `benchmark/specs/pipeline12.wf` with `extra` declarations appended.
fn pipeline12(extra: &str) -> Report {
    let mut src = String::from("workflow pipeline12 {\n");
    for i in 0..12 {
        src.push_str(&format!("    event e{i};\n"));
    }
    for i in 0..11 {
        src.push_str(&format!("    dep d{i}: e{i} -> e{};\n", i + 1));
    }
    src.push_str(extra);
    src.push('}');
    let w = LoweredWorkflow::parse(&src).unwrap_or_else(|e| panic!("{e}"));
    analyze_workflow(&w, &AnalyzeOptions::default())
}

#[test]
fn saga4_is_decided_inside_the_default_budget() {
    // Ran the whole 2^20-state budget out (WF006, verdict incomplete)
    // while the search walked interleavings.
    let wf = saga(4, 3, None);
    let r = analyze_dependencies(&wf.spec.dependencies, &wf.spec.table, &AnalyzeOptions::default());
    assert!(!r.incomplete && !r.has_code("WF006"), "{}", r.summary_line());
    assert!(!r.jointly_contradictory);
    assert!(r.states_explored < 10_000, "{}", r.summary_line());
}

#[test]
fn pipeline12_needs_hundreds_of_states_not_tens_of_thousands() {
    let r = pipeline12("");
    assert!(r.is_clean() && !r.incomplete, "{}", r.render_text(None));
    assert!(r.dead.is_empty() && r.forced.is_empty());
    assert!(r.states_explored < 2_000, "{}", r.summary_line());
}

#[test]
fn a_contradiction_across_the_chain_is_found_at_the_root() {
    // e0 must occur, so must e1 … e11 — but e11 must not.
    let r = pipeline12("    dep first: e0;\n    dep last: ~e11;\n");
    assert!(r.jointly_contradictory && r.has_code("WF001"), "{}", r.render_text(None));
    assert!(!r.incomplete);
    assert!(r.states_explored < 100, "{}", r.summary_line());
}

#[test]
fn an_order_contradiction_still_takes_the_exhaustive_search() {
    // The first and last dependency need e0 and ~e4 in opposite orders.
    // Every machine can accept on its own and no two need complementary
    // literals, so only expanding states finds the contradiction.
    let mut t = SymbolTable::new();
    let deps: Vec<Expr> = ["e5.~e4.e0", "~e1 + e3", "e0.~e4"]
        .iter()
        .map(|s| parse_expr(s, &mut t).unwrap())
        .collect();
    let syms: Vec<SymbolId> = (0..t.len() as u32).map(SymbolId).collect();
    let brute = enumerate_maximal(&syms).iter().any(|u| deps.iter().all(|d| satisfies(u, d)));
    let r = analyze_dependencies(&deps, &t, &AnalyzeOptions::default());
    assert!(!brute && r.jointly_contradictory && !r.incomplete, "{}", r.render_text(None));
    assert!(r.states_explored > 0, "decided without a search: {}", r.summary_line());
}
