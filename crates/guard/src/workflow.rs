//! Workflow-level guard compilation.
//!
//! A workflow `W` is a set of dependencies. The guard on an event `e` due
//! to `W` is the conjunction of the guards due to the dependencies that
//! mention `e`'s symbol (Section 4.2) — dependencies over foreign symbols
//! contribute `⊤` by the independence theorems (Theorems 2/4), which the
//! property tests verify. [`CompiledWorkflow`] is the precompiled artifact
//! the schedulers consume: one guard per literal, per-dependency machines
//! for triggering analysis, and the subscription map that tells each event
//! which other events' announcements it needs.
//!
//! A workflow is written from a few dependency *types* (Section 5), so
//! [`CompiledWorkflow::compile`] compiles by [shape](Expr::shape): one
//! synthesis recursion and one machine exploration per distinct shape,
//! every dependency of that shape a rebinding of the result
//! ([`CompiledWorkflow::shape_count`] says how many there were). The
//! per-literal conjunction is never multiplied out: the guards of
//! dependencies that share no symbol besides the literal's own constrain
//! disjoint symbols, so each literal keeps a [`FactoredGuard`] — one
//! factor per group of dependencies linked by a shared symbol — and a
//! scheduler reduces only the factor a fact touches.

use crate::synth::GuardSynth;
use event_algebra::{DependencyMachine, Expr, ExprId, Literal, SymbolId};
use std::collections::{BTreeMap, BTreeSet};
use temporal::{FactoredGuard, Guard};

/// Which dependencies contribute to an event's conjoined guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GuardScope {
    /// Only dependencies mentioning the event's symbol (the paper's
    /// choice, enabling distribution).
    #[default]
    Mentioning,
    /// Every dependency in the workflow (the literal reading of
    /// Definition 4; used to validate that the restriction is harmless).
    All,
}

impl GuardScope {
    /// Does a dependency mentioning `symbols` (sorted) contribute to
    /// `lit`'s guard?
    pub(crate) fn covers(self, symbols: &[SymbolId], lit: Literal) -> bool {
        match self {
            GuardScope::Mentioning => symbols.binary_search(&lit.symbol()).is_ok(),
            GuardScope::All => true,
        }
    }
}

/// A workflow compiled into localized event guards.
#[derive(Debug, Clone)]
pub struct CompiledWorkflow {
    /// Per-literal conjoined guard, as its factors: one per group of the
    /// contributing dependencies linked by a symbol other than the
    /// literal's own, conjoined in dependency order within the group,
    /// except that a one-conjunct factor is multiplied into the first
    /// wider one. Contains an entry for every literal of every
    /// dependency's `Γ_D`.
    pub guards: BTreeMap<Literal, FactoredGuard>,
    /// The residual machine of each dependency (triggering analysis and
    /// the baseline schedulers reuse these).
    pub machines: Vec<DependencyMachine>,
    /// All symbols mentioned by the workflow, sorted.
    pub symbols: Vec<SymbolId>,
    /// The symbols each dependency mentions, sorted, by dependency index —
    /// what decides which guards a dependency contributes to and which
    /// announcements its residual trackers follow.
    pub dependency_symbols: Vec<Vec<SymbolId>>,
}

impl CompiledWorkflow {
    /// Compile a workflow: `G(D, e)` for every dependency `D` and every
    /// literal `e` in scope, conjoined per literal in dependency order
    /// within each factor.
    ///
    /// Each distinct [shape](Expr::shape) among the dependencies is
    /// synthesized once, over symbol ranks — the synthesizer's memo is
    /// keyed by the shape's interned id — and a dependency's guard is its
    /// shape's, [rebound](Guard::rebind). A literal foreign to a
    /// dependency (only [`GuardScope::All`] asks) stands at the first
    /// rank past the shape: `G(D, e)` never mentions `e`, so every
    /// foreign literal has the same guard.
    ///
    /// `G(D, e)` mentions only `Γ_D` minus `e`'s symbol, so two
    /// contributing dependencies can share a constrained symbol only if
    /// they share one other than `e`'s. Those are merged into one factor
    /// (union–find over the dependencies, linked through their symbols);
    /// the factors, in order of their first dependency, are disjoint.
    /// A factor of one conjunct is then multiplied into the first wider
    /// one: that never widens it, and saves a level of indirection on
    /// every reduction.
    pub fn compile(dependencies: &[Expr], scope: GuardScope) -> CompiledWorkflow {
        let mut synth = GuardSynth::new();
        let shaped: Vec<(ExprId, Vec<SymbolId>)> =
            dependencies.iter().map(|d| synth.intern_shape(d)).collect();
        synth.reserve_for_shapes();
        // A shape's binding is its dependency's sorted symbols.
        let mut symbols: Vec<SymbolId> =
            Vec::with_capacity(shaped.iter().map(|(_, binding)| binding.len()).sum());
        shaped.iter().for_each(|(_, binding)| symbols.extend_from_slice(binding));
        symbols.sort_unstable();
        symbols.dedup();
        let (mut guards, mut plan) = (BTreeMap::new(), Vec::new());
        for &sym in &symbols {
            factor_plan(&mut plan, &shaped, sym, scope);
            let factor_count = plan.iter().map(|&(_, slot)| slot + 1).max().unwrap_or(0);
            for lit in [Literal::pos(sym), Literal::neg(sym)] {
                let mut factors: Vec<Guard> = Vec::with_capacity(factor_count);
                for &(ix, slot) in &plan {
                    let (id, binding) = &shaped[ix];
                    let at_rank = match binding.binary_search(&sym) {
                        Ok(rank) => Literal::new(SymbolId(rank as u32), lit.polarity()),
                        Err(_) => Literal::pos(SymbolId(binding.len() as u32)),
                    };
                    let guard = synth.guard_at(*id, at_rank).rebind(binding);
                    match factors.get_mut(slot) {
                        Some(so_far) => *so_far = so_far.and(&guard),
                        None => factors.push(guard),
                    }
                }
                multiply_narrow(&mut factors);
                guards.insert(lit, FactoredGuard::new(factors));
            }
        }
        let machines = synth.machines(&shaped);
        let dependency_symbols = shaped.into_iter().map(|(_, binding)| binding).collect();
        CompiledWorkflow { guards, machines, symbols, dependency_symbols }
    }

    /// How many distinct [shapes](Expr::shape) the dependencies have:
    /// the number of machines (and of guard recursions per literal rank)
    /// the compile actually ran.
    pub fn shape_count(&self) -> usize {
        let machines = &self.machines;
        (0..machines.len())
            .filter(|&ix| !machines[..ix].iter().any(|m| m.same_shape(&machines[ix])))
            .count()
    }

    /// The conjoined guard on `lit`, multiplied out (`⊤` for literals
    /// outside the workflow's alphabet): what static callers render and
    /// analyse. Built on demand; a scheduler reads
    /// [`CompiledWorkflow::guard_ref`]'s factors instead.
    pub fn guard(&self, lit: Literal) -> Guard {
        self.guard_ref(lit).map_or_else(Guard::top, FactoredGuard::expand)
    }

    /// Borrowed view of the conjoined guard on `lit`, as its factors;
    /// `None` means the literal is outside the workflow's alphabet and its
    /// guard is `⊤`. The online monitor evaluates guards on every gated
    /// firing, factor by factor, without expanding or cloning them.
    pub fn guard_ref(&self, lit: Literal) -> Option<&FactoredGuard> {
        self.guards.get(&lit)
    }

    /// The symbols whose announcements `lit`'s actor must subscribe to:
    /// every symbol its guard mentions (excluding its own).
    pub fn subscriptions(&self, lit: Literal) -> BTreeSet<SymbolId> {
        let mut s = self.guard_ref(lit).map(FactoredGuard::symbols).unwrap_or_default();
        s.remove(&lit.symbol());
        s
    }

    /// Total size of all guards (node count of the rendered `T`
    /// expressions) — the size metric for experiment C5.
    pub fn total_guard_size(&self) -> usize {
        self.guards.values().map(|g| g.to_texpr().node_count()).sum()
    }

    /// The largest single event's guard (node count) — what one actor
    /// actually stores and evaluates locally.
    pub fn max_guard_size(&self) -> usize {
        self.guards.values().map(|g| g.to_texpr().node_count()).max().unwrap_or(0)
    }

    /// Total automata size (state count across dependency machines).
    pub fn total_machine_states(&self) -> usize {
        self.machines.iter().map(DependencyMachine::state_count).sum()
    }
}

/// `factors` with every one-conjunct factor multiplied into the first
/// wider one (into one another when none is wider): multiplying by one
/// conjunct never widens a guard, and a product reduced as one factor
/// costs less than the same product reduced as two.
fn multiply_narrow(factors: &mut Vec<Guard>) {
    if factors.len() < 2 {
        return;
    }
    let mut into = factors.iter().position(|f| f.conjuncts().len() > 1).unwrap_or(0);
    let mut k = 0;
    while k < factors.len() {
        if k == into || factors[k].conjuncts().len() != 1 {
            k += 1;
            continue;
        }
        let narrow = factors.remove(k);
        into -= usize::from(k < into);
        factors[into] = factors[into].and(&narrow);
    }
}

/// Fill `plan` with the dependencies contributing to the guards on
/// `own`'s literals, in order, each with the factor it joins: union–find
/// over those dependencies, two linked when they share a symbol other
/// than `own`; factors are numbered in order of their first dependency.
fn factor_plan(
    plan: &mut Vec<(usize, usize)>,
    shaped: &[(ExprId, Vec<SymbolId>)],
    own: SymbolId,
    scope: GuardScope,
) {
    let lit = Literal::pos(own);
    let symbols = |ix: usize| shaped[ix].1.as_slice();
    // `(dependency, parent)`; a parent is never after its child.
    plan.clear();
    let in_scope = (0..shaped.len()).filter(|&ix| scope.covers(symbols(ix), lit));
    plan.extend(in_scope.enumerate().map(|(k, ix)| (ix, k)));
    let root = |plan: &[(usize, usize)], mut k: usize| {
        while plan[k].1 != k {
            k = plan[k].1;
        }
        k
    };
    for k in 1..plan.len() {
        for j in 0..k {
            let (a, b) = (symbols(plan[j].0), symbols(plan[k].0));
            if a.iter().any(|s| *s != own && b.binary_search(s).is_ok()) {
                let (rj, rk) = (root(plan, j), root(plan, k));
                plan[rj.max(rk)].1 = rj.min(rk);
            }
        }
    }
    // Parents come first, so one pass in order points every entry at its
    // root and a second numbers the roots.
    for k in 0..plan.len() {
        plan[k].1 = plan[plan[k].1].1;
    }
    let mut factors = 0;
    for k in 0..plan.len() {
        let parent = plan[k].1;
        plan[k].1 = if parent == k {
            factors += 1;
            factors - 1
        } else {
            plan[parent].1
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::guard_of;
    use event_algebra::SymbolTable;
    use temporal::guards_equivalent_auto;

    fn travel() -> (SymbolTable, Vec<Expr>) {
        // Example 4: (1) s̄_buy + s_book, (2) c̄_buy + c_book·c_buy,
        // (3) c̄_book + c_buy + s_cancel.
        let mut t = SymbolTable::new();
        let s_buy = t.event("s_buy");
        let c_buy = t.event("c_buy");
        let s_book = t.event("s_book");
        let c_book = t.event("c_book");
        let s_cancel = t.event("s_cancel");
        let d1 = Expr::or([Expr::lit(s_buy.complement()), Expr::lit(s_book)]);
        let d2 = Expr::or([
            Expr::lit(c_buy.complement()),
            Expr::seq([Expr::lit(c_book), Expr::lit(c_buy)]),
        ]);
        let d3 = Expr::or([Expr::lit(c_book.complement()), Expr::lit(c_buy), Expr::lit(s_cancel)]);
        (t, vec![d1, d2, d3])
    }

    #[test]
    fn compiles_travel_workflow() {
        let (mut t, deps) = travel();
        let w = CompiledWorkflow::compile(&deps, GuardScope::Mentioning);
        assert_eq!(w.symbols.len(), 5);
        assert_eq!(w.guards.len(), 10);
        assert_eq!(w.machines.len(), 3);
        let mentioning =
            |l: Literal| w.dependency_symbols.iter().filter(|s| s.contains(&l.symbol())).count();
        // c_buy is mentioned by d2 and d3: its guard conjoins both.
        assert_eq!(mentioning(t.event("c_buy")), 2);
        // s_buy is mentioned only by d1.
        assert_eq!(mentioning(t.event("s_buy")), 1);
    }

    #[test]
    fn guard_of_foreign_literal_is_top() {
        let (_, deps) = travel();
        let w = CompiledWorkflow::compile(&deps, GuardScope::Mentioning);
        let foreign = Literal::pos(SymbolId(99));
        assert!(w.guard(foreign).is_top());
        assert!(w.subscriptions(foreign).is_empty());
    }

    #[test]
    fn mentioning_scope_matches_all_scope_semantically_on_guards_product() {
        // For each literal, conjoining over mentioning deps differs from
        // conjoining over all deps only by guards of foreign deps — and a
        // trace generated under one is generated under the other exactly
        // when it satisfies the workflow (checked in the theorem tests).
        // Here we sanity-check that both compile and foreign-dep guards
        // are not trivially ⊤ (they gate on dependency satisfaction).
        let (mut t, deps) = travel();
        let w_all = CompiledWorkflow::compile(&deps, GuardScope::All);
        let s_cancel = t.event("s_cancel");
        // d1 does not mention s_cancel; under All scope it contributes a
        // guard gating on d1's eventual satisfaction.
        assert!(!w_all.dependency_symbols[0].contains(&s_cancel.symbol()));
        let g = guard_of(&deps[0], s_cancel);
        assert!(!g.is_bottom() && !g.is_top());
        let every = deps.iter().fold(Guard::top(), |acc, d| acc.and(&guard_of(d, s_cancel)));
        assert!(guards_equivalent_auto(&w_all.guard(s_cancel), &every));
    }

    #[test]
    fn subscriptions_cover_guard_symbols() {
        let (mut t, deps) = travel();
        let w = CompiledWorkflow::compile(&deps, GuardScope::Mentioning);
        let c_buy = t.event("c_buy");
        let subs = w.subscriptions(c_buy);
        assert!(!subs.contains(&c_buy.symbol()));
        // c_buy's guard involves c_book (ordering) and s_cancel (dep 3).
        let c_book = t.event("c_book");
        assert!(subs.contains(&c_book.symbol()), "{subs:?}");
    }

    #[test]
    fn klein_arrow_guard_in_workflow() {
        // Single dependency D→: guard of e must be ◇f (cf. Example 11).
        let mut t = SymbolTable::new();
        let e = t.event("e");
        let f = t.event("f");
        let d = Expr::or([Expr::lit(e.complement()), Expr::lit(f)]);
        let w = CompiledWorkflow::compile(std::slice::from_ref(&d), GuardScope::Mentioning);
        assert_eq!(w.guard(e), Guard::eventually(f));
        assert!(w.guard(f).is_top());
    }

    #[test]
    fn conjoined_guard_equals_product_of_per_dep_guards() {
        let (_, deps) = travel();
        let w = CompiledWorkflow::compile(&deps, GuardScope::Mentioning);
        for &lit in w.guards.keys() {
            let product = deps
                .iter()
                .zip(&w.dependency_symbols)
                .filter(|(_, syms)| syms.contains(&lit.symbol()))
                .fold(Guard::top(), |acc, (d, _)| acc.and(&guard_of(d, lit)));
            assert!(guards_equivalent_auto(&product, &w.guard(lit)), "literal {lit}");
        }
    }

    #[test]
    fn size_metrics_are_positive() {
        let (_, deps) = travel();
        let w = CompiledWorkflow::compile(&deps, GuardScope::Mentioning);
        assert!(w.total_guard_size() > 0);
        assert!(w.total_machine_states() > deps.len());
    }
}
