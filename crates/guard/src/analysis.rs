//! Static workflow analysis at compilation time.
//!
//! Section 6: "The underlying execution mechanism should provide a
//! consistent view of the temporal order of events. The compilation
//! phase can detect these conditions and add messages to ensure that
//! there are no problems." This module is that compilation phase: it
//! inspects a workflow before execution and reports
//!
//! - **joint contradictions** — the dependencies admit no common
//!   satisfying trace at all (each may be satisfiable alone);
//! - **dead events** — events that can never occur in any satisfying
//!   trace (their guards are `0`; an attempt will be rejected);
//! - **forced events** — events that occur in *every* satisfying trace
//!   (if not triggerable, the workflow's liveness depends on their agent
//!   attempting them);
//! - **consensus pairs** — events whose guards mutually require each
//!   other's eventual occurrence (`◇`-cycles, Example 11): the promise
//!   protocol will be exercised;
//! - **agreement pairs** — events whose guards contain `¬` constraints
//!   on each other: the not-yet agreement with its priority rule will be
//!   exercised (potential hold contention).
//!
//! The joint quantifications (contradiction, dead, forced) run as
//! budgeted reachability over the product of the per-dependency
//! [`DependencyMachine`](event_algebra::DependencyMachine)s — see
//! [`event_algebra::ProductMachine::classify`] — instead of enumerating
//! residual expression sets: the machines collapse equivalent residuals
//! into shared states, the 2·|Σ|+1 queries share one goal-directed search
//! kernel and each other's witnesses, and an explicit state budget turns
//! pathological workflows into a reported cutoff rather than a hang.
//! Cycle detection here stays deliberately pairwise; the `analyze` crate
//! layers arbitrary-length cycle detection (strongly connected components
//! of the need graph) and structured diagnostics on top of this module.

use crate::workflow::{CompiledWorkflow, GuardScope};
use event_algebra::{Expr, Literal, ProductMachine, Reach, StateBudget};
use temporal::{needs, Need};

/// Default product-state budget for [`analyze`]. Generous: typical
/// workflow products stay well under a thousand states.
pub const DEFAULT_STATE_BUDGET: usize = 1 << 20;

/// The report produced by [`analyze`].
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// No trace satisfies all dependencies together.
    pub jointly_contradictory: bool,
    /// Events that can never occur in a satisfying execution.
    pub dead: Vec<Literal>,
    /// Events that occur in every satisfying execution.
    pub forced: Vec<Literal>,
    /// Pairs whose guards mutually require `◇` of each other
    /// (Example 11's consensus requirement).
    pub consensus_pairs: Vec<(Literal, Literal)>,
    /// Pairs `(e, f)` where `e`'s guard needs agreement that `f` has not
    /// yet occurred *and* vice versa (direct hold cycles; the runtime
    /// breaks them by symbol priority).
    pub agreement_cycles: Vec<(Literal, Literal)>,
    /// `true` when the state budget ran out before every reachability
    /// query completed: the verdicts above are sound where given, but
    /// some dead/forced classifications may be missing and
    /// `jointly_contradictory` may be a false negative (a cut-off joint
    /// query skips the dead/forced queries altogether).
    pub incomplete: bool,
    /// Product states the queries interned and charged to the budget
    /// (the initial state is free), as in `analyze::Report`.
    pub states_explored: usize,
}

impl Analysis {
    /// `true` when nothing problematic was found (and the analysis ran to
    /// completion).
    pub fn is_clean(&self) -> bool {
        !self.jointly_contradictory
            && self.dead.is_empty()
            && self.consensus_pairs.is_empty()
            && self.agreement_cycles.is_empty()
            && !self.incomplete
    }
}

/// Analyze a workflow's dependencies at compile time with the default
/// state budget.
pub fn analyze(dependencies: &[Expr]) -> Analysis {
    analyze_with_budget(dependencies, DEFAULT_STATE_BUDGET)
}

/// Analyze with an explicit product-state budget shared across all
/// reachability queries.
pub fn analyze_with_budget(dependencies: &[Expr], state_budget: usize) -> Analysis {
    let compiled = CompiledWorkflow::compile(dependencies, GuardScope::Mentioning);
    let mut report = Analysis::default();

    // Dead / forced events quantify over joint completions; a literal is
    // forced exactly when its complement is dead.
    let mut product = ProductMachine::from_machines(compiled.machines.clone());
    let mut budget = StateBudget::new(state_budget);
    let verdict = product.classify(&mut budget);
    report.jointly_contradictory = verdict.joint == Reach::No;
    report.incomplete = verdict.incomplete;
    report.forced = verdict.dead.iter().map(|l| l.complement()).collect();
    report.forced.sort();
    report.dead = verdict.dead;
    report.states_explored = budget.spent();

    let literals: Vec<Literal> =
        compiled.symbols.iter().flat_map(|&s| [Literal::pos(s), Literal::neg(s)]).collect();

    // Consensus / agreement pairs from the compiled guards' needs.
    let mut promise_needs: Vec<(Literal, Literal)> = Vec::new();
    let mut notyet_needs: Vec<(Literal, Literal)> = Vec::new();
    for &lit in &literals {
        let g = compiled.guard(lit).weaken_sequences();
        for conj in needs(&g) {
            for n in conj {
                match n {
                    Need::Promise(f) => promise_needs.push((lit, f)),
                    Need::NotYetAgreement(f) => notyet_needs.push((lit, f)),
                    _ => {}
                }
            }
        }
    }
    promise_needs.sort();
    promise_needs.dedup();
    notyet_needs.sort();
    notyet_needs.dedup();
    for &(a, b) in &promise_needs {
        if a < b && promise_needs.binary_search(&(b, a)).is_ok() {
            report.consensus_pairs.push((a, b));
        }
    }
    // A hold cycle is literal-exact: `a` waits for agreement that `b` has
    // not yet occurred while `b` waits on `a` — comparing symbols alone
    // would conflate `¬f` with `¬f̄`, which constrain different runs.
    for &(a, b) in &notyet_needs {
        if a < b && notyet_needs.binary_search(&(b, a)).is_ok() {
            report.agreement_cycles.push((a, b));
        }
    }
    report.consensus_pairs.sort();
    report.consensus_pairs.dedup();
    report.agreement_cycles.sort();
    report.agreement_cycles.dedup();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use event_algebra::{parse_expr, SymbolId, SymbolTable};

    #[test]
    fn clean_workflow_is_clean() {
        let mut t = SymbolTable::new();
        let d = parse_expr("~e + ~f + e.f", &mut t).unwrap();
        let a = analyze(&[d]);
        assert!(!a.jointly_contradictory);
        assert!(a.dead.is_empty(), "{a:?}");
        assert!(a.forced.is_empty(), "{a:?}");
        assert!(!a.incomplete);
    }

    #[test]
    fn detects_joint_contradiction() {
        // d1 requires e and f (conjunction with e·f order); d2 requires
        // f before e — individually satisfiable, jointly impossible.
        let mut t = SymbolTable::new();
        let d1 = parse_expr("e.f", &mut t).unwrap();
        let d2 = parse_expr("f.e", &mut t).unwrap();
        assert!(event_algebra::satisfiable(&d1));
        assert!(event_algebra::satisfiable(&d2));
        let a = analyze(&[d1, d2]);
        assert!(a.jointly_contradictory, "{a:?}");
    }

    #[test]
    fn detects_dead_and_forced_events() {
        let mut t = SymbolTable::new();
        // e must never occur; f must occur.
        let d1 = parse_expr("~e", &mut t).unwrap();
        let d2 = parse_expr("f", &mut t).unwrap();
        let e = t.event("e");
        let f = t.event("f");
        let a = analyze(&[d1, d2]);
        assert!(a.dead.contains(&e), "{a:?}");
        assert!(a.forced.contains(&e.complement()), "{a:?}");
        assert!(a.forced.contains(&f), "{a:?}");
        assert!(a.dead.contains(&f.complement()), "{a:?}");
    }

    #[test]
    fn detects_consensus_pairs() {
        // Example 11: D→ and its transpose give e ↦ ◇f and f ↦ ◇e.
        let mut t = SymbolTable::new();
        let d1 = parse_expr("~e + f", &mut t).unwrap();
        let d2 = parse_expr("~f + e", &mut t).unwrap();
        let e = t.event("e");
        let f = t.event("f");
        let a = analyze(&[d1, d2]);
        assert!(
            a.consensus_pairs.contains(&(e, f)) || a.consensus_pairs.contains(&(f, e)),
            "{a:?}"
        );
    }

    #[test]
    fn detects_agreement_cycles() {
        // Ground mutual exclusion (Example 13 for one iteration pair, in
        // both directions): each enter's guard carries ¬ on the other
        // enter — the not-yet agreement with priority will be exercised.
        let mut t = SymbolTable::new();
        let d12 = parse_expr("b2.b1 + ~e1 + ~b2 + e1.b2", &mut t).unwrap();
        let d21 = parse_expr("b1.b2 + ~e2 + ~b1 + e2.b1", &mut t).unwrap();
        let a = analyze(&[d12, d21]);
        assert!(!a.jointly_contradictory);
        assert!(!a.agreement_cycles.is_empty(), "{a:?}");
    }

    #[test]
    fn opposing_precedences_need_promises_not_agreements() {
        // e < f plus f < e: jointly "not both occur". The conjoined
        // guards strengthen ¬f ∧ (◇ē+□e)-style into promises of the
        // complements, so no agreement cycle is reported.
        let mut t = SymbolTable::new();
        let d1 = parse_expr("~e + ~f + e.f", &mut t).unwrap();
        let d2 = parse_expr("~f + ~e + f.e", &mut t).unwrap();
        let a = analyze(&[d1, d2]);
        assert!(!a.jointly_contradictory);
        assert!(a.agreement_cycles.is_empty(), "{a:?}");
        assert!(a.dead.is_empty(), "either may occur (just not both): {a:?}");
    }

    #[test]
    fn contradictory_random_pair_from_the_wild() {
        // The pair that motivated the dead-ness fix: dep1 requires e2's
        // occurrence, dep2 requires ē3·ē2 ordering — jointly they still
        // admit completions; analysis agrees with exhaustive search.
        let mut t = SymbolTable::new();
        let d1 = parse_expr("e1 | e2.e1 | (e0 + ~e0)", &mut t).unwrap();
        let d2 = parse_expr("~e3.~e2", &mut t).unwrap();
        let a = analyze(&[d1.clone(), d2.clone()]);
        let syms: Vec<SymbolId> = d1.symbols().union(&d2.symbols()).copied().collect();
        let brute = event_algebra::enumerate_maximal(&syms)
            .iter()
            .any(|u| event_algebra::satisfies(u, &d1) && event_algebra::satisfies(u, &d2));
        assert_eq!(!a.jointly_contradictory, brute);
    }

    #[test]
    fn reported_pairs_are_sorted_and_globally_deduplicated() {
        // Three arrow cycles sharing events produce pair lists whose
        // duplicates are not adjacent — the old `dedup()`-only cleanup
        // left repeats behind.
        let mut t = SymbolTable::new();
        let srcs = ["~a + b", "~b + a", "~a + c", "~c + a", "~b + c", "~c + b"];
        let ds: Vec<Expr> = srcs.iter().map(|s| parse_expr(s, &mut t).unwrap()).collect();
        let a = analyze(&ds);
        let mut sorted = a.consensus_pairs.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(a.consensus_pairs, sorted, "sorted and unique: {a:?}");
        assert!(!a.consensus_pairs.is_empty());
    }

    #[test]
    fn tight_budget_reports_incomplete_instead_of_hanging() {
        let mut t = SymbolTable::new();
        let srcs = ["~e1 + e2", "~e2 + e3", "~e3 + e4", "~e4 + e1"];
        let ds: Vec<Expr> = srcs.iter().map(|s| parse_expr(s, &mut t).unwrap()).collect();
        let a = analyze_with_budget(&ds, 3);
        assert!(a.incomplete, "{a:?}");
        assert!(!a.is_clean());
        // The joint query was cut off: no dead/forced query ran after it,
        // and the count is what the budget was charged.
        assert!(a.dead.is_empty() && a.forced.is_empty() && !a.jointly_contradictory, "{a:?}");
        assert_eq!(a.states_explored, 3);
    }

    #[test]
    fn ten_symbol_chain_completes_within_budget() {
        // A 9-dependency arrow chain over 10 symbols: the residual-set
        // enumeration the machines replaced blows up here; the product
        // stays small because equivalent residuals share states.
        let mut t = SymbolTable::new();
        let srcs: Vec<String> = (0..9).map(|i| format!("~e{} + e{}", i, i + 1)).collect();
        let ds: Vec<Expr> = srcs.iter().map(|s| parse_expr(s, &mut t).unwrap()).collect();
        let a = analyze(&ds);
        assert!(!a.incomplete, "explored {} states", a.states_explored);
        assert!(!a.jointly_contradictory);
        assert!(a.dead.is_empty(), "{a:?}");
        assert!(a.states_explored <= DEFAULT_STATE_BUDGET);
    }
}
