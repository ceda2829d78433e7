//! Dependency state machines (Figure 2 and the automata of [2]).
//!
//! Enforcing a dependency symbolically walks a finite machine whose states
//! are the distinct residuals of the dependency and whose transitions are
//! residuation by the events of `Γ_D` (events outside `Γ_D` never change
//! the state, by rule R6). This is exactly the per-dependency automaton of
//! Attie et al. [2], obtained here for free from residuation; the machine
//! also powers the centralized baseline scheduler and the triggering
//! analysis.

use crate::arena::{ExprArena, ExprId};
use crate::expr::Expr;
use crate::fxhash::FxHashMap;
use crate::symbol::{Literal, SymbolId, SymbolTable};
use crate::trace::Trace;

/// Index of a state in a [`DependencyMachine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub u32);

impl StateId {
    /// The state's index into [`DependencyMachine::states`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The residual state machine of one dependency.
#[derive(Debug, Clone)]
pub struct DependencyMachine {
    /// The (normalized) dependency this machine enforces.
    pub dependency: Expr,
    /// All reachable residuals; `states[initial]` is the dependency itself.
    pub states: Vec<Expr>,
    /// The start state.
    pub initial: StateId,
    /// Transition function over `Γ_D`; literals outside the alphabet
    /// self-loop implicitly.
    pub transitions: FxHashMap<(StateId, Literal), StateId>,
    /// `Γ_D`: the relevant literals, closed under complement.
    pub alphabet: Vec<Literal>,
    /// `live[s]`: some accepting state is reachable from `s` (computed
    /// once at compile time; queried per-message by the scheduler).
    live: Vec<bool>,
    /// All accepting (`⊤`) states, computed at compile time.
    accepting: Vec<StateId>,
    /// All trap states (no accepting state reachable), computed at
    /// compile time.
    traps: Vec<StateId>,
    /// `avoid_live[k][s]`: an accepting state is reachable from `s`
    /// without taking any edge labeled `alphabet[k]` — the machine form
    /// of `satisfiable_avoiding`, precomputed so `requires_event` is a
    /// table lookup.
    avoid_live: Vec<Vec<bool>>,
}

impl DependencyMachine {
    /// Compile `dependency` into its residual machine by exploring the
    /// residuals in a private [`ExprArena`]. Terminates because
    /// residuation strictly removes the residuated symbol from the
    /// expression.
    pub fn compile(dependency: &Expr) -> DependencyMachine {
        Self::compile_in(&mut ExprArena::new(), dependency)
    }

    /// Like [`DependencyMachine::compile`], but interning residuals into a
    /// caller-supplied arena so repeated compilations (e.g. of a whole
    /// workflow's dependencies) share subterms and memo caches. States are
    /// keyed by `ExprId` — structural equality is an id comparison.
    pub fn compile_in(arena: &mut ExprArena, dependency: &Expr) -> DependencyMachine {
        let raw = arena.intern(dependency);
        let dep = arena.normalize(raw);
        Self::compile_normalized(arena, dep)
    }

    /// Compile from an id already interned and normalized in `arena` —
    /// the shared core of [`DependencyMachine::compile_in`] and
    /// [`DependencyMachine::compile_all`], which avoids re-walking the
    /// tree when the caller interned it to dedup.
    fn compile_normalized(arena: &mut ExprArena, dep: ExprId) -> DependencyMachine {
        let alphabet = arena.alphabet(dep);
        let mut ids: Vec<ExprId> = vec![dep];
        let mut index: FxHashMap<ExprId, StateId> = FxHashMap::default();
        index.insert(dep, StateId(0));
        let mut transitions = FxHashMap::default();
        let mut frontier = vec![StateId(0)];
        while let Some(sid) = frontier.pop() {
            let state = ids[sid.index()];
            for &lit in &alphabet {
                if !arena.mentions(state, lit.symbol()) {
                    continue; // R6: self-loop, left implicit.
                }
                let next = arena.residuate_normal(state, lit);
                let nid = *index.entry(next).or_insert_with(|| {
                    let id = StateId(ids.len() as u32);
                    ids.push(next);
                    frontier.push(id);
                    id
                });
                transitions.insert((sid, lit), nid);
            }
        }
        let states: Vec<Expr> = ids.iter().map(|&i| arena.expr(i)).collect();
        Self::finish(arena.expr(dep), states, transitions, alphabet)
    }

    /// Compile one machine per dependency in a single shared arena.
    /// Structurally identical dependencies (after normalization, decided
    /// by id equality) are compiled once and cloned — the common case for
    /// replicated workflow patterns.
    pub fn compile_all(dependencies: &[Expr]) -> Vec<DependencyMachine> {
        let mut arena = ExprArena::new();
        // Maps the normalized id to the first compiled machine's position:
        // distinct dependencies are never cloned, repeats clone once.
        let mut cache: FxHashMap<ExprId, usize> = FxHashMap::default();
        let mut machines: Vec<DependencyMachine> = Vec::with_capacity(dependencies.len());
        for d in dependencies {
            let raw = arena.intern(d);
            let id = arena.normalize(raw);
            match cache.get(&id) {
                Some(&ix) => {
                    let m = machines[ix].clone();
                    machines.push(m);
                }
                None => {
                    cache.insert(id, machines.len());
                    machines.push(DependencyMachine::compile_normalized(&mut arena, id));
                }
            }
        }
        machines
    }

    /// Reference compilation on the tree representation (the pre-arena
    /// code path): the oracle of the arena ≡ tree isomorphism tests in
    /// this crate, and compiled for them only.
    #[cfg(test)]
    pub(crate) fn compile_tree_reference(dependency: &Expr) -> DependencyMachine {
        let dep = crate::norm::normalize(dependency);
        let alphabet: Vec<Literal> = dep.gamma().into_iter().collect();
        let mut states: Vec<Expr> = vec![dep.clone()];
        let mut index: std::collections::HashMap<Expr, StateId> = Default::default();
        index.insert(dep.clone(), StateId(0));
        let mut transitions = FxHashMap::default();
        let mut frontier = vec![StateId(0)];
        while let Some(sid) = frontier.pop() {
            let state = states[sid.index()].clone();
            for &lit in &alphabet {
                if !state.mentions(lit.symbol()) {
                    continue; // R6: self-loop, left implicit.
                }
                let next = crate::residue::residuate(&state, lit);
                let nid = *index.entry(next.clone()).or_insert_with(|| {
                    let id = StateId(states.len() as u32);
                    states.push(next.clone());
                    frontier.push(id);
                    id
                });
                transitions.insert((sid, lit), nid);
            }
        }
        Self::finish(dep, states, transitions, alphabet)
    }

    /// Assemble the machine and precompute every per-state table the
    /// scheduler and the analyzer query: accepting states, liveness (one
    /// backward reachability), traps, and per-alphabet-literal avoidance
    /// liveness (backward reachability on the subgraph without that
    /// literal's edges).
    fn finish(
        dependency: Expr,
        states: Vec<Expr>,
        transitions: FxHashMap<(StateId, Literal), StateId>,
        alphabet: Vec<Literal>,
    ) -> DependencyMachine {
        let n = states.len();
        let accepting: Vec<StateId> =
            (0..n as u32).map(StateId).filter(|s| states[s.index()].is_top()).collect();
        let live = backward_reachable(n, &states, &transitions, None);
        let traps: Vec<StateId> =
            live.iter().enumerate().filter(|(_, &l)| !l).map(|(s, _)| StateId(s as u32)).collect();
        let avoid_live: Vec<Vec<bool>> = alphabet
            .iter()
            .map(|&lit| backward_reachable(n, &states, &transitions, Some(lit)))
            .collect();
        DependencyMachine {
            dependency,
            states,
            initial: StateId(0),
            transitions,
            alphabet,
            live,
            accepting,
            traps,
            avoid_live,
        }
    }

    /// Number of states (the size metric compared against guard sizes in
    /// experiment C5).
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// The residual expression at `sid`.
    pub fn state(&self, sid: StateId) -> &Expr {
        &self.states[sid.index()]
    }

    /// Step the machine: events outside `Γ_D` self-loop.
    pub fn step(&self, sid: StateId, lit: Literal) -> StateId {
        self.transitions.get(&(sid, lit)).copied().unwrap_or(sid)
    }

    /// Run a whole trace from the initial state.
    pub fn run(&self, u: &Trace) -> StateId {
        u.events().iter().fold(self.initial, |s, &l| self.step(s, l))
    }

    /// `true` if the state is the satisfied terminal `⊤`.
    pub fn is_accepting(&self, sid: StateId) -> bool {
        self.state(sid).is_top()
    }

    /// `true` if the state is the violated terminal `0`.
    pub fn is_violated(&self, sid: StateId) -> bool {
        self.state(sid).is_zero()
    }

    /// `true` if some maximal completion from `sid` satisfies the
    /// dependency — the safety condition a scheduler must preserve.
    /// O(1): liveness was computed once at compile time.
    pub fn is_live(&self, sid: StateId) -> bool {
        self.live[sid.index()]
    }

    /// Position of `lit` in the sorted alphabet, if it belongs to `Γ_D`.
    fn alphabet_ix(&self, lit: Literal) -> Option<usize> {
        self.alphabet.binary_search(&lit).ok()
    }

    /// `true` if an accepting state is reachable from `sid` without ever
    /// taking an edge labeled `avoid` — the machine form of
    /// [`crate::satisfiable_avoiding`] on the state's residual, as a
    /// table lookup. Literals outside `Γ_D` restrict nothing.
    pub fn may_reach_avoiding(&self, sid: StateId, avoid: Literal) -> bool {
        match self.alphabet_ix(avoid) {
            Some(k) => self.avoid_live[k][sid.index()],
            None => self.live[sid.index()],
        }
    }

    /// `true` if, at `sid`, every satisfying completion contains `lit`
    /// (so a triggerable `lit` must be proactively triggered). O(1) via
    /// the compile-time avoidance tables.
    pub fn requires_event(&self, sid: StateId, lit: Literal) -> bool {
        match self.alphabet_ix(lit) {
            Some(k) => self.live[sid.index()] && !self.avoid_live[k][sid.index()],
            // Events outside Γ_D never become required (R6).
            None => false,
        }
    }

    /// `true` if accepting `lit` at `sid` keeps the machine live — the
    /// scheduler's acceptance test (Section 3.4 conditions 1 and 2a).
    pub fn may_accept(&self, sid: StateId, lit: Literal) -> bool {
        self.is_live(self.step(sid, lit))
    }

    /// `true` if `a` and `b` commute on this machine: from *every* state,
    /// stepping `a` then `b` reaches the same state as `b` then `a`.
    /// Because the states of a compiled machine are exactly the reachable
    /// residuals, this decides whether adjacent occurrences of the two
    /// literals can be transposed in any trace without changing this
    /// dependency's residual (and hence its verdict) — the per-machine
    /// core of the interference analyzer's independence relation.
    pub fn literals_commute(&self, a: Literal, b: Literal) -> bool {
        (0..self.states.len() as u32)
            .map(StateId)
            .all(|q| self.step(self.step(q, a), b) == self.step(self.step(q, b), a))
    }

    /// `true` if the symbols commute in every polarity combination —
    /// the schedule-level independence test, used when the analyzer does
    /// not know which polarities a run will realize. Trivially `true`
    /// when either symbol is outside `Γ_D` (R6 self-loops commute with
    /// everything).
    pub fn symbols_commute(&self, a: SymbolId, b: SymbolId) -> bool {
        [Literal::pos(a), Literal::neg(a)].into_iter().all(|la| {
            [Literal::pos(b), Literal::neg(b)].into_iter().all(|lb| self.literals_commute(la, lb))
        })
    }

    /// All accepting (`⊤`) states, computed at compile time. Every state
    /// of a compiled machine is reachable from the initial state, so an
    /// empty result means the dependency admits no satisfying trace at
    /// all.
    pub fn accepting_states(&self) -> Vec<StateId> {
        self.accepting.clone()
    }

    /// `true` if the machine has any accepting state — i.e. the
    /// dependency is satisfiable on its own.
    pub fn has_accepting(&self) -> bool {
        !self.accepting.is_empty()
    }

    /// Per-state liveness: `live[s]` is `true` when some accepting state
    /// is reachable from `s`. Agrees with satisfiability of the residual
    /// expression; computed once at compile time by backward reachability.
    pub fn live(&self) -> &[bool] {
        &self.live
    }

    /// Owned copy of the compile-time liveness mask (see
    /// [`DependencyMachine::live`]).
    pub fn live_mask(&self) -> Vec<bool> {
        self.live.clone()
    }

    /// Trap states: states from which no accepting state is reachable
    /// (the violated terminal `0` and any other dead residual). A run
    /// entering a trap can only end with the dependency violated, so the
    /// scheduler must reject the event that would move there. Computed at
    /// compile time.
    pub fn trap_states(&self) -> Vec<StateId> {
        self.traps.clone()
    }

    /// Render the full transition relation, one line per edge, with state
    /// labels — regenerates Figure 2 when applied to `D<` and `D→`.
    pub fn render(&self, table: &SymbolTable) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "machine for {} ({} states)",
            self.dependency.display(table),
            self.state_count()
        );
        for (sid, st) in self.states.iter().enumerate() {
            let sid = StateId(sid as u32);
            let marker = if st.is_top() {
                " [accept]"
            } else if st.is_zero() {
                " [violate]"
            } else if sid == self.initial {
                " [initial]"
            } else {
                ""
            };
            let _ = writeln!(out, "  S{}: {}{}", sid.0, st.display(table), marker);
            let mut edges: Vec<(&Literal, &StateId)> = self
                .transitions
                .iter()
                .filter(|((s, _), _)| *s == sid)
                .map(|((_, l), t)| (l, t))
                .collect();
            edges.sort();
            for (l, t) in edges {
                let _ = writeln!(out, "    --{}--> S{}", table.literal_name(*l), t.0);
            }
        }
        out
    }
}

/// Backward reachability from the accepting (`⊤`) states over the
/// transition graph. With `forbidden` set, edges labeled with that literal
/// are excluded: the result is liveness under the constraint that
/// `forbidden` never occurs (implicit self-loops never change the state,
/// so they are irrelevant to reachability).
fn backward_reachable(
    n: usize,
    states: &[Expr],
    transitions: &FxHashMap<(StateId, Literal), StateId>,
    forbidden: Option<Literal>,
) -> Vec<bool> {
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (&(src, lit), &dst) in transitions {
        if forbidden == Some(lit) {
            continue;
        }
        preds[dst.index()].push(src.index());
    }
    let mut live = vec![false; n];
    let mut stack: Vec<usize> = (0..n).filter(|&s| states[s].is_top()).collect();
    for &s in &stack {
        live[s] = true;
    }
    while let Some(s) = stack.pop() {
        for &p in &preds[s] {
            if !live[p] {
                live[p] = true;
                stack.push(p);
            }
        }
    }
    live
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::satisfies;
    use crate::symbol::SymbolId;
    use crate::trace::enumerate_maximal;
    use std::collections::HashMap;

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
    fn figure2_d_precedes_machine_shape() {
        let (_, e, f) = setup();
        let m = DependencyMachine::compile(&d_precedes(e, f));
        // States: D<, ⊤, f+f̄, ē, 0 — exactly the five of Figure 2.
        assert_eq!(m.state_count(), 5);
        assert!(m.is_accepting(m.step(m.initial, e.complement())));
        assert!(m.is_accepting(m.step(m.initial, f.complement())));
        let after_e = m.step(m.initial, e);
        assert_eq!(*m.state(after_e), Expr::or([Expr::lit(f), Expr::lit(f.complement())]));
        let after_f = m.step(m.initial, f);
        assert_eq!(*m.state(after_f), Expr::lit(e.complement()));
        assert!(m.is_violated(m.step(after_f, e)));
        assert!(m.is_accepting(m.step(after_f, e.complement())));
    }

    #[test]
    fn figure2_d_arrow_machine_shape() {
        let (_, e, f) = setup();
        let m = DependencyMachine::compile(&d_arrow(e, f));
        // States: D→, ⊤, f (after e), ē (after f̄), and 0.
        assert_eq!(m.state_count(), 5);
        assert_eq!(*m.state(m.step(m.initial, f.complement())), Expr::lit(e.complement()));
        assert!(m.is_accepting(m.step(m.initial, f)));
        assert!(m.is_accepting(m.step(m.initial, e.complement())));
        let after_e = m.step(m.initial, e);
        assert_eq!(*m.state(after_e), Expr::lit(f));
        assert!(m.is_violated(m.step(after_e, f.complement())));
    }

    #[test]
    fn machine_accepts_exactly_the_satisfying_maximal_traces() {
        let (_, e, f) = setup();
        let syms = [SymbolId(0), SymbolId(1)];
        for d in [d_precedes(e, f), d_arrow(e, f)] {
            let m = DependencyMachine::compile(&d);
            for u in enumerate_maximal(&syms) {
                assert_eq!(m.is_accepting(m.run(&u)), satisfies(&u, &d), "D={d} u={u}");
            }
        }
    }

    #[test]
    fn irrelevant_events_self_loop() {
        let (_, e, f) = setup();
        let m = DependencyMachine::compile(&d_arrow(e, f));
        let g = Literal::pos(SymbolId(7));
        assert_eq!(m.step(m.initial, g), m.initial);
    }

    #[test]
    fn may_accept_blocks_dead_states() {
        let (_, e, f) = setup();
        let m = DependencyMachine::compile(&d_precedes(e, f));
        let after_f = m.step(m.initial, f);
        assert!(!m.may_accept(after_f, e), "e after f violates D<");
        assert!(m.may_accept(after_f, e.complement()));
        assert!(m.may_accept(m.initial, e));
    }

    #[test]
    fn requires_event_in_states() {
        let (_, e, f) = setup();
        let m = DependencyMachine::compile(&d_arrow(e, f));
        let after_e = m.step(m.initial, e);
        assert!(m.requires_event(after_e, f));
        assert!(!m.requires_event(m.initial, f));
    }

    #[test]
    fn arrow_commutes_precedence_does_not() {
        let (_, e, f) = setup();
        // D→ = ē + f: satisfaction never depends on the relative order of
        // e and f, and the machine proves it state by state.
        let arrow = DependencyMachine::compile(&d_arrow(e, f));
        assert!(arrow.literals_commute(e, f));
        assert!(arrow.symbols_commute(e.symbol(), f.symbol()));
        // D< = ē + f̄ + e·f: from the initial state e·f accepts while f·e
        // violates, so the pair must not commute.
        let prec = DependencyMachine::compile(&d_precedes(e, f));
        assert!(!prec.literals_commute(e, f));
        assert!(!prec.symbols_commute(e.symbol(), f.symbol()));
        // Symbols outside Γ_D self-loop (R6) and commute with everything.
        assert!(prec.symbols_commute(e.symbol(), SymbolId(9)));
    }

    #[test]
    fn commutation_matches_trace_transposition() {
        // Oracle: literals commute iff transposing them at the end of
        // every reachable prefix leaves the residual unchanged. Walk all
        // states (the reachable residuals) and compare against the
        // machine's verdict on the paper's two dependencies and a chain.
        let (mut t, e, f) = setup();
        let g = t.event("g");
        for d in
            [d_precedes(e, f), d_arrow(e, f), Expr::seq([Expr::lit(e), Expr::lit(f), Expr::lit(g)])]
        {
            let m = DependencyMachine::compile(&d);
            for &a in &m.alphabet {
                for &b in &m.alphabet {
                    let brute = (0..m.state_count() as u32).map(StateId).all(|q| {
                        m.state(m.step(m.step(q, a), b)) == m.state(m.step(m.step(q, b), a))
                    });
                    assert_eq!(m.literals_commute(a, b), brute, "D={d} a={a} b={b}");
                }
            }
        }
    }

    #[test]
    fn render_mentions_all_states() {
        let mut t = SymbolTable::new();
        let e = t.event("e");
        let f = t.event("f");
        let m = DependencyMachine::compile(&d_precedes(e, f));
        let s = m.render(&t);
        assert!(s.contains("[accept]"), "{s}");
        assert!(s.contains("[violate]"), "{s}");
        assert!(s.contains("[initial]"), "{s}");
        assert!(s.contains("--~e--> "), "{s}");
    }

    /// Check that two machines are isomorphic: a bijection between states
    /// matching residual labels, initial states, and every transition.
    fn assert_isomorphic(a: &DependencyMachine, b: &DependencyMachine) {
        assert_eq!(a.state_count(), b.state_count());
        assert_eq!(a.alphabet, b.alphabet);
        // States are distinct residuals, so the label map is the bijection.
        let to_b: HashMap<&Expr, StateId> =
            b.states.iter().enumerate().map(|(i, s)| (s, StateId(i as u32))).collect();
        assert_eq!(to_b.len(), b.state_count(), "states must be distinct");
        let map = |s: StateId| *to_b.get(a.state(s)).expect("state label present in both");
        assert_eq!(map(a.initial), b.initial);
        assert_eq!(a.transitions.len(), b.transitions.len());
        for (&(src, lit), &dst) in &a.transitions {
            assert_eq!(b.step(map(src), lit), map(dst), "edge {src:?} --{lit}-->");
        }
        // The compile-time tables must agree under the bijection too.
        for s in 0..a.state_count() as u32 {
            let (sa, sb) = (StateId(s), map(StateId(s)));
            assert_eq!(a.is_live(sa), b.is_live(sb));
            for &lit in &a.alphabet {
                assert_eq!(a.requires_event(sa, lit), b.requires_event(sb, lit));
                assert_eq!(a.may_reach_avoiding(sa, lit), b.may_reach_avoiding(sb, lit));
            }
        }
    }

    #[test]
    fn arena_and_tree_compiles_are_isomorphic() {
        // Pinned oracle: the arena-backed compile and the tree-reference
        // compile produce isomorphic state graphs on the paper's
        // dependencies and a 3-chain.
        let (mut t, e, f) = setup();
        let g = t.event("g");
        let cases = [
            d_precedes(e, f),
            d_arrow(e, f),
            Expr::seq([Expr::lit(e), Expr::lit(f), Expr::lit(g)]),
            Expr::and([d_arrow(e, f), d_arrow(f, g)]),
        ];
        for d in cases {
            let arena = DependencyMachine::compile(&d);
            let tree = DependencyMachine::compile_tree_reference(&d);
            assert_isomorphic(&arena, &tree);
        }
    }

    #[test]
    fn compile_time_tables_match_recomputation() {
        let (_, e, f) = setup();
        let m = DependencyMachine::compile(&d_precedes(e, f));
        for s in 0..m.state_count() as u32 {
            let s = StateId(s);
            assert_eq!(m.is_live(s), crate::satisfiable(m.state(s)), "live at {s:?}");
            for &lit in &m.alphabet {
                assert_eq!(
                    m.requires_event(s, lit),
                    crate::requires(m.state(s), lit),
                    "requires {lit} at {s:?}"
                );
                assert_eq!(
                    m.may_reach_avoiding(s, lit),
                    crate::satisfiable_avoiding(m.state(s), lit),
                    "avoiding {lit} at {s:?}"
                );
            }
        }
        assert_eq!(m.trap_states().len() + m.live().iter().filter(|&&l| l).count(), 5);
        assert_eq!(m.accepting_states().len(), 1);
    }

    #[test]
    fn chain_dependency_machine_is_linear_plus_kills() {
        // e1·e2·e3: states ⊤,0 and the 4 suffixes.
        let lits: Vec<Literal> = (0..3).map(|i| Literal::pos(SymbolId(i))).collect();
        let d = Expr::seq(lits.iter().map(|&l| Expr::lit(l)));
        let m = DependencyMachine::compile(&d);
        assert_eq!(m.state_count(), 5); // e1e2e3, e2e3, e3, ⊤, 0
        let mut s = m.initial;
        for &l in &lits {
            s = m.step(s, l);
        }
        assert!(m.is_accepting(s));
    }
}
