//! Dependency state machines (Figure 2 and the automata of [2]).
//!
//! Enforcing a dependency symbolically walks a finite machine whose states
//! are the distinct residuals of the dependency and whose transitions are
//! residuation by the events of `Γ_D` (events outside `Γ_D` never change
//! the state, by rule R6). This is exactly the per-dependency automaton of
//! Attie et al. [2], obtained here for free from residuation; the machine
//! also powers the centralized baseline scheduler and the triggering
//! analysis.
//!
//! # One machine per shape
//!
//! Exploration orders everything by the relative order of literals — the
//! sorted alphabet it iterates, the structural order of `+`/`|` children
//! in a residual — and compares symbols only with each other, so the
//! machine of `ρD` is the machine of `D` relabelled, state for state, for
//! every order-preserving renaming `ρ`. A [`DependencyMachine`] is
//! therefore a *binding* (its own alphabet) over a shared, immutable
//! machine compiled from the dependency's [shape](Expr::shape):
//! [`DependencyMachine::compile_all`] explores each distinct shape once,
//! every further dependency of that shape costs a reference count and its
//! alphabet, and cloning a machine costs the same.

use crate::arena::{ExprArena, ExprId};
use crate::expr::Expr;
use crate::fxhash::FxHashMap;
use crate::symbol::{Literal, SymbolId, SymbolTable};
use crate::trace::Trace;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Index of a state in a [`DependencyMachine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub u32);

impl StateId {
    /// The state's index among the machine's states.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The residual machine of one dependency shape, over symbol ranks: what
/// every [`DependencyMachine`] of that shape shares.
#[derive(Debug)]
struct MachineShape {
    /// All reachable residuals; `states[0]` is the normalized shape.
    states: Vec<Expr>,
    /// `Γ` of the normalized shape, sorted and closed under complement.
    alphabet: Vec<Literal>,
    /// `next[s * alphabet.len() + k]`: the state after `alphabet[k]` in
    /// state `s`, self-loops (R6) included.
    next: Vec<StateId>,
    /// `live[s]`: some accepting state is reachable from `s` (computed
    /// once at compile time; queried per-message by the scheduler).
    live: Vec<bool>,
    /// All accepting (`⊤`) states.
    accepting: Vec<StateId>,
    /// All trap states (no accepting state reachable).
    traps: Vec<StateId>,
    /// `avoid_live[k][s]`: an accepting state is reachable from `s`
    /// without taking any edge labeled `alphabet[k]` — the machine form
    /// of `satisfiable_avoiding`, precomputed so `requires_event` is a
    /// table lookup.
    avoid_live: Vec<Vec<bool>>,
}

impl MachineShape {
    /// Explore the residuals of `dep` (interned and normal in `arena`).
    /// Terminates because residuation strictly removes the residuated
    /// symbol from the expression. States are keyed by `ExprId` —
    /// structural equality is an id comparison.
    fn compile(arena: &mut ExprArena, dep: ExprId) -> MachineShape {
        let alphabet = arena.alphabet(dep);
        let mut ids: Vec<ExprId> = vec![dep];
        let mut index: FxHashMap<ExprId, StateId> = FxHashMap::default();
        index.insert(dep, StateId(0));
        // A state's row starts as self-loops (R6) and is filled in when
        // the state is expanded.
        let mut next: Vec<StateId> = vec![StateId(0); alphabet.len()];
        let mut frontier = vec![StateId(0)];
        while let Some(sid) = frontier.pop() {
            let state = ids[sid.index()];
            for (k, &lit) in alphabet.iter().enumerate() {
                if !arena.mentions(state, lit.symbol()) {
                    continue;
                }
                let to = arena.residuate_normal(state, lit);
                let nid = *index.entry(to).or_insert_with(|| {
                    let id = StateId(ids.len() as u32);
                    ids.push(to);
                    next.extend(std::iter::repeat_n(id, alphabet.len()));
                    frontier.push(id);
                    id
                });
                next[sid.index() * alphabet.len() + k] = nid;
            }
        }
        let states: Vec<Expr> = ids.iter().map(|&i| arena.expr(i)).collect();
        MachineShape::finish(states, alphabet, next)
    }

    /// Assemble the shape and precompute every per-state table the
    /// scheduler and the analyzer query: accepting states, liveness (one
    /// backward reachability), traps, and per-alphabet-literal avoidance
    /// liveness (backward reachability on the subgraph without that
    /// literal's edges).
    fn finish(states: Vec<Expr>, alphabet: Vec<Literal>, next: Vec<StateId>) -> MachineShape {
        let n = states.len();
        let accepting: Vec<StateId> =
            (0..n as u32).map(StateId).filter(|s| states[s.index()].is_top()).collect();
        // Reverse edges `(source, column)` by target, built once for all
        // the passes below. Self-loops never change the state, so they
        // are irrelevant to reachability and left out.
        let mut preds: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for (at, dst) in next.iter().enumerate() {
            let (src, k) = (at / alphabet.len(), at % alphabet.len());
            if dst.index() != src {
                preds[dst.index()].push((src, k));
            }
        }
        let live = backward_reachable(&preds, &accepting, None);
        let traps: Vec<StateId> =
            live.iter().enumerate().filter(|(_, &l)| !l).map(|(s, _)| StateId(s as u32)).collect();
        let avoid_live: Vec<Vec<bool>> =
            (0..alphabet.len()).map(|k| backward_reachable(&preds, &accepting, Some(k))).collect();
        MachineShape { states, alphabet, next, live, accepting, traps, avoid_live }
    }
}

/// The residual state machine of one dependency: a shape shared with
/// every dependency that differs from this one by an order-preserving
/// renaming, and this dependency's alphabet (see the module docs).
#[derive(Debug, Clone)]
pub struct DependencyMachine {
    shape: Arc<MachineShape>,
    /// The start state.
    pub initial: StateId,
    /// `Γ_D`: the relevant literals, sorted and closed under complement;
    /// literals outside it self-loop. `alphabet[k]` stands where the
    /// shape has its `k`-th literal.
    pub alphabet: Vec<Literal>,
}

impl DependencyMachine {
    /// Compile `dependency` into its residual machine.
    pub fn compile(dependency: &Expr) -> DependencyMachine {
        let mut all = Self::compile_all(std::slice::from_ref(dependency));
        all.pop().expect("one machine per dependency")
    }

    /// Compile one machine per dependency in a single shared arena,
    /// exploring each distinct [shape](Expr::shape) once: dependencies
    /// that differ by an order-preserving renaming — identical ones
    /// included — share one table.
    pub fn compile_all(dependencies: &[Expr]) -> Vec<DependencyMachine> {
        let mut arena = ExprArena::new();
        let shaped: Vec<(ExprId, Vec<SymbolId>)> = (dependencies.iter())
            .map(|d| {
                let (raw, binding) = arena.intern_shape(d);
                (arena.normalize(raw), binding)
            })
            .collect();
        Self::compile_shaped(&mut arena, &shaped)
    }

    /// [`DependencyMachine::compile_all`] for dependencies `arena` already
    /// holds: each is the id of its normalized shape
    /// ([`ExprArena::intern_shape`], then [`ExprArena::normalize`]) and
    /// its binding. A caller that has residuated the shapes in `arena`
    /// for its own purposes — guard synthesis walks the same residuals —
    /// gets the machines from the arena's memo.
    pub fn compile_shaped(
        arena: &mut ExprArena,
        shaped: &[(ExprId, Vec<SymbolId>)],
    ) -> Vec<DependencyMachine> {
        let mut shapes: FxHashMap<ExprId, Arc<MachineShape>> = FxHashMap::default();
        (shaped.iter())
            .map(|(id, binding)| {
                let shape = (shapes.entry(*id))
                    .or_insert_with(|| Arc::new(MachineShape::compile(arena, *id)));
                let alphabet = shape.alphabet.iter().map(|l| l.rebind(binding)).collect();
                DependencyMachine { shape: Arc::clone(shape), initial: StateId(0), alphabet }
            })
            .collect()
    }

    /// Reference compilation on the tree representation (the pre-arena
    /// code path): the oracle of the arena ≡ tree isomorphism tests in
    /// this crate, and compiled for them only. No shape is taken: the
    /// machine is its own shape under the identity binding.
    #[cfg(test)]
    pub(crate) fn compile_tree_reference(dependency: &Expr) -> DependencyMachine {
        let dep = crate::norm::normalize(dependency);
        let alphabet: Vec<Literal> = dep.gamma().into_iter().collect();
        let mut states: Vec<Expr> = vec![dep.clone()];
        let mut index: std::collections::HashMap<Expr, StateId> = Default::default();
        index.insert(dep, StateId(0));
        let mut next: Vec<StateId> = vec![StateId(0); alphabet.len()];
        let mut frontier = vec![StateId(0)];
        while let Some(sid) = frontier.pop() {
            let state = states[sid.index()].clone();
            for (k, &lit) in alphabet.iter().enumerate() {
                if !state.mentions(lit.symbol()) {
                    continue; // R6: self-loop.
                }
                let to = crate::residue::residuate(&state, lit);
                let nid = *index.entry(to.clone()).or_insert_with(|| {
                    let id = StateId(states.len() as u32);
                    states.push(to.clone());
                    next.extend(std::iter::repeat_n(id, alphabet.len()));
                    frontier.push(id);
                    id
                });
                next[sid.index() * alphabet.len() + k] = nid;
            }
        }
        let shape = Arc::new(MachineShape::finish(states, alphabet.clone(), next));
        DependencyMachine { shape, initial: StateId(0), alphabet }
    }

    /// `true` if both machines are bindings over one compiled shape: the
    /// two dependencies came out of one [`DependencyMachine::compile_all`]
    /// call and differ by an order-preserving renaming at most.
    pub fn same_shape(&self, other: &DependencyMachine) -> bool {
        Arc::ptr_eq(&self.shape, &other.shape)
    }

    /// Number of states (the size metric compared against guard sizes in
    /// experiment C5).
    pub fn state_count(&self) -> usize {
        self.shape.states.len()
    }

    /// The residual expression at `sid`: the shape's, over this
    /// machine's symbols.
    pub fn state(&self, sid: StateId) -> Expr {
        self.shape.states[sid.index()].map_literals(&|l| {
            let k = self.shape.alphabet.binary_search(&l).expect("a residual stays inside Γ_D");
            self.alphabet[k]
        })
    }

    /// The (normalized) dependency this machine enforces.
    pub fn dependency(&self) -> Expr {
        self.state(self.initial)
    }

    /// Step the machine: events outside `Γ_D` self-loop.
    pub fn step(&self, sid: StateId, lit: Literal) -> StateId {
        match self.alphabet_ix(lit) {
            Some(k) => self.shape.next[sid.index() * self.alphabet.len() + k],
            None => sid,
        }
    }

    /// Run a whole trace from the initial state.
    pub fn run(&self, u: &Trace) -> StateId {
        u.events().iter().fold(self.initial, |s, &l| self.step(s, l))
    }

    /// `true` if the state is the satisfied terminal `⊤`.
    pub fn is_accepting(&self, sid: StateId) -> bool {
        self.shape.states[sid.index()].is_top()
    }

    /// `true` if the state is the violated terminal `0`.
    pub fn is_violated(&self, sid: StateId) -> bool {
        self.shape.states[sid.index()].is_zero()
    }

    /// `true` if some maximal completion from `sid` satisfies the
    /// dependency — the safety condition a scheduler must preserve.
    /// O(1): liveness was computed once at compile time.
    pub fn is_live(&self, sid: StateId) -> bool {
        self.shape.live[sid.index()]
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
            Some(k) => self.shape.avoid_live[k][sid.index()],
            None => self.shape.live[sid.index()],
        }
    }

    /// [`DependencyMachine::may_reach_avoiding`] for a set of literals —
    /// the machine form of [`crate::satisfiable_avoiding_all`]. Avoiding
    /// at most one literal of `Γ_D` is a table lookup; more is a search of
    /// the states reachable from `sid` without the avoided edges.
    pub fn may_reach_avoiding_all(&self, sid: StateId, avoid: &BTreeSet<Literal>) -> bool {
        let columns: Vec<usize> = avoid.iter().filter_map(|&l| self.alphabet_ix(l)).collect();
        match columns[..] {
            [] => return self.shape.live[sid.index()],
            [k] => return self.shape.avoid_live[k][sid.index()],
            _ => {}
        }
        let width = self.alphabet.len();
        let mut seen = vec![false; self.state_count()];
        seen[sid.index()] = true;
        let mut stack = vec![sid];
        while let Some(s) = stack.pop() {
            if self.is_accepting(s) {
                return true;
            }
            for k in (0..width).filter(|k| !columns.contains(k)) {
                let to = self.shape.next[s.index() * width + k];
                if !std::mem::replace(&mut seen[to.index()], true) {
                    stack.push(to);
                }
            }
        }
        false
    }

    /// `true` if, at `sid`, every satisfying completion contains `lit`
    /// (so a triggerable `lit` must be proactively triggered). O(1) via
    /// the compile-time avoidance tables.
    pub fn requires_event(&self, sid: StateId, lit: Literal) -> bool {
        match self.alphabet_ix(lit) {
            Some(k) => self.shape.live[sid.index()] && !self.shape.avoid_live[k][sid.index()],
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
    /// independence fact a partial-order reduction of schedules needs.
    pub fn literals_commute(&self, a: Literal, b: Literal) -> bool {
        (0..self.state_count() as u32)
            .map(StateId)
            .all(|q| self.step(self.step(q, a), b) == self.step(self.step(q, b), a))
    }

    /// `true` if the symbols commute in every polarity combination —
    /// the schedule-level independence test, for when the caller does
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
        self.shape.accepting.clone()
    }

    /// `true` if the machine has any accepting state — i.e. the
    /// dependency is satisfiable on its own.
    pub fn has_accepting(&self) -> bool {
        !self.shape.accepting.is_empty()
    }

    /// Per-state liveness: `live[s]` is `true` when some accepting state
    /// is reachable from `s`. Agrees with satisfiability of the residual
    /// expression; computed once at compile time by backward reachability.
    pub fn live(&self) -> &[bool] {
        &self.shape.live
    }

    /// Trap states: states from which no accepting state is reachable
    /// (the violated terminal `0` and any other dead residual). A run
    /// entering a trap can only end with the dependency violated, so the
    /// scheduler must reject the event that would move there. Computed at
    /// compile time.
    pub fn trap_states(&self) -> Vec<StateId> {
        self.shape.traps.clone()
    }

    /// Render the full transition relation, one line per edge, with state
    /// labels — regenerates Figure 2 when applied to `D<` and `D→`.
    pub fn render(&self, table: &SymbolTable) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "machine for {} ({} states)",
            self.dependency().display(table),
            self.state_count()
        );
        for sid in (0..self.state_count() as u32).map(StateId) {
            let st = self.state(sid);
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
            // Residuating by a mentioned symbol removes it, so the edges
            // that leave a state are exactly the non-loops.
            for &l in &self.alphabet {
                let t = self.step(sid, l);
                if t != sid {
                    let _ = writeln!(out, "    --{}--> S{}", table.literal_name(l), t.0);
                }
            }
        }
        out
    }
}

/// Backward reachability from the `accepting` states over the reverse
/// edges `preds[target] = [(source, column)]`. With `forbidden` set,
/// edges of that column are excluded: the result is liveness under the
/// constraint that the column's literal never occurs.
fn backward_reachable(
    preds: &[Vec<(usize, usize)>],
    accepting: &[StateId],
    forbidden: Option<usize>,
) -> Vec<bool> {
    let mut live = vec![false; preds.len()];
    let mut stack: Vec<usize> = accepting.iter().map(|s| s.index()).collect();
    for &s in &stack {
        live[s] = true;
    }
    while let Some(s) = stack.pop() {
        for &(p, k) in &preds[s] {
            if forbidden != Some(k) && !live[p] {
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
        assert_eq!(m.state(after_e), Expr::or([Expr::lit(f), Expr::lit(f.complement())]));
        let after_f = m.step(m.initial, f);
        assert_eq!(m.state(after_f), Expr::lit(e.complement()));
        assert!(m.is_violated(m.step(after_f, e)));
        assert!(m.is_accepting(m.step(after_f, e.complement())));
    }

    #[test]
    fn figure2_d_arrow_machine_shape() {
        let (_, e, f) = setup();
        let m = DependencyMachine::compile(&d_arrow(e, f));
        // States: D→, ⊤, f (after e), ē (after f̄), and 0.
        assert_eq!(m.state_count(), 5);
        assert_eq!(m.state(m.step(m.initial, f.complement())), Expr::lit(e.complement()));
        assert!(m.is_accepting(m.step(m.initial, f)));
        assert!(m.is_accepting(m.step(m.initial, e.complement())));
        let after_e = m.step(m.initial, e);
        assert_eq!(m.state(after_e), Expr::lit(f));
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
        let ids = |m: &DependencyMachine| (0..m.state_count() as u32).map(StateId);
        // States are distinct residuals, so the label map is the bijection.
        let to_b: HashMap<Expr, StateId> = ids(b).map(|s| (b.state(s), s)).collect();
        assert_eq!(to_b.len(), b.state_count(), "states must be distinct");
        let map = |s: StateId| *to_b.get(&a.state(s)).expect("state label present in both");
        assert_eq!(map(a.initial), b.initial);
        // The compile-time tables must agree under the bijection too.
        for sa in ids(a) {
            let sb = map(sa);
            assert_eq!(a.is_live(sa), b.is_live(sb));
            for &lit in &a.alphabet {
                assert_eq!(b.step(sb, lit), map(a.step(sa, lit)), "edge {sa:?} --{lit}-->");
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
    fn renamed_dependencies_share_one_shape() {
        let (mut t, e, f) = setup();
        let (g, h) = (t.event("g"), t.event("h"));
        let deps = [d_arrow(e, f), d_arrow(g, h), d_arrow(f, e), d_arrow(e, f), d_precedes(f, h)];
        let ms = DependencyMachine::compile_all(&deps);
        // e→f, g→h and the repeat are one shape; f→e reverses the order of
        // its symbols and D< is another dependency altogether.
        assert!(ms[0].same_shape(&ms[1]) && ms[0].same_shape(&ms[3]));
        assert!(!ms[0].same_shape(&ms[2]) && !ms[0].same_shape(&ms[4]));
        for (m, d) in ms.iter().zip(&deps) {
            assert_isomorphic(m, &DependencyMachine::compile_tree_reference(d));
            assert_eq!(m.dependency(), crate::norm::normalize(d));
        }
        // A clone is another binding over the same shape.
        assert!(ms[4].clone().same_shape(&ms[4]));
    }

    #[test]
    fn compile_time_tables_match_recomputation() {
        let (_, e, f) = setup();
        let m = DependencyMachine::compile(&d_precedes(e, f));
        for s in 0..m.state_count() as u32 {
            let s = StateId(s);
            assert_eq!(m.is_live(s), crate::satisfiable(&m.state(s)), "live at {s:?}");
            for &lit in &m.alphabet {
                assert_eq!(
                    m.requires_event(s, lit),
                    crate::requires(&m.state(s), lit),
                    "requires {lit} at {s:?}"
                );
                assert_eq!(
                    m.may_reach_avoiding(s, lit),
                    crate::satisfiable_avoiding(&m.state(s), lit),
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
