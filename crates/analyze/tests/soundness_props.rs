//! Property tests: on universes of at most four symbols, the analyzer's
//! core verdicts (joint contradiction, dead events, forced events) agree
//! with brute-force enumeration of the maximal trace universe `U_T`.

use analyze::{analyze_dependencies, AnalyzeOptions};
use event_algebra::{enumerate_maximal, satisfies, Expr, Literal, SymbolId, SymbolTable, Trace};
use testkit::{check, Exprs, Gen};

const CASES: u32 = 48;

fn syms(range: std::ops::Range<u32>) -> Vec<SymbolId> {
    range.map(SymbolId).collect()
}

/// One to three dependencies over at most four symbols, each up to two
/// operator levels deep over the full grammar.
fn workflow(g: &mut Gen) -> Vec<Expr> {
    (0..g.len(1, 3)).map(|_| g.term(&syms(0..4), 2)).collect()
}

#[test]
fn analyzer_agrees_with_trace_enumeration() {
    check("analyzer_agrees_with_trace_enumeration", CASES, |g| {
        let deps = workflow(g);
        let mut syms: Vec<SymbolId> = deps.iter().flat_map(|d| d.symbols()).collect();
        syms.sort();
        syms.dedup();
        let sat: Vec<Trace> = enumerate_maximal(&syms)
            .into_iter()
            .filter(|u| deps.iter().all(|d| satisfies(u, d)))
            .collect();
        let table = SymbolTable::new();
        let r = analyze_dependencies(&deps, &table, &AnalyzeOptions::default());
        assert!(!r.incomplete, "default budget must cover 4 symbols");
        assert_eq!(r.jointly_contradictory, sat.is_empty());
        for &s in &syms {
            let pos = Literal::pos(s);
            let brute_dead = !sat.is_empty() && sat.iter().all(|u| !u.contains(pos));
            let brute_forced = !sat.is_empty() && sat.iter().all(|u| u.contains(pos));
            assert_eq!(r.dead.contains(&pos), brute_dead, "dead({pos})");
            assert_eq!(r.forced.contains(&pos), brute_forced, "forced({pos})");
        }
        // The report's structured verdicts and its diagnostics agree.
        assert_eq!(r.has_code("WF002"), !r.dead.is_empty());
        assert_eq!(r.has_code("WF003"), !r.forced.is_empty());
    });
}

/// A tiny budget must never produce a wrong verdict — only an
/// incomplete one.
#[test]
fn cutoff_is_sound_not_wrong() {
    check("cutoff_is_sound_not_wrong", CASES, |g| {
        let deps = workflow(g);
        let budget = g.range(1usize..6);
        let table = SymbolTable::new();
        let full = analyze_dependencies(&deps, &table, &AnalyzeOptions::default());
        let tight = analyze_dependencies(&deps, &table, &AnalyzeOptions { state_budget: budget });
        assert!(!full.incomplete, "default budget must cover 4 symbols");
        if !tight.incomplete {
            assert_eq!(tight.jointly_contradictory, full.jointly_contradictory);
            assert_eq!(tight.dead.clone(), full.dead.clone());
            assert_eq!(tight.forced.clone(), full.forced.clone());
        } else {
            // Verdicts that *were* reached are sound: a dead/forced claim
            // only appears when its query ran to completion.
            for l in &tight.dead {
                assert!(full.dead.contains(l));
            }
            for l in &tight.forced {
                assert!(full.forced.contains(l));
            }
        }
    });
}
