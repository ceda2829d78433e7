//! Parametrized events and arbitrary tasks (Section 5).
//!
//! Event atoms carry a tuple of parameters (`e[x]`, `b2[y]`); variables
//! are implicitly universally quantified. Two mechanisms from the paper:
//!
//! - **Intra-workflow parameters** (Example 12): a workflow template whose
//!   variables are all bound when the key event occurs — instantiation
//!   yields an ordinary ground workflow, scheduled as in Section 4.
//! - **Inter-workflow / arbitrary tasks** (Examples 13–14): variables bind
//!   lazily as task iterations mint fresh event *tokens* (per-agent
//!   counters); ground dependencies are instantiated per binding
//!   combination, and guards grow, shrink, and *resurrect* as instances
//!   discharge ([`ParamGuard`]).

use event_algebra::{
    acceptance, verdict, Acceptance, DepTracker, Expr, Literal, SymbolId, SymbolTable, Trace,
};
use std::collections::{BTreeMap, BTreeSet};
use temporal::{occurred_mask, status, Guard, GuardStatus, ST_FULL};

pub use event_algebra::{Binding, PEvent, PExpr, PLit, Term};

/// Example 13's mutual-exclusion dependency (one direction): if `t1`
/// enters its critical section before `t2` does, `t1` exits before `t2`
/// enters. `b_` names the enter events, `e_` the exits; `x`/`y` are the
/// iteration variables.
pub fn mutex_dependency(b2: &str, b1: &str, e1: &str) -> PExpr {
    let x = [Term::Var("x".into())];
    let y = [Term::Var("y".into())];
    PExpr::Or(vec![
        PExpr::Seq(vec![PExpr::lit(b2, &y), PExpr::lit(b1, &x)]),
        PExpr::comp(e1, &x),
        PExpr::comp(b2, &y),
        PExpr::Seq(vec![PExpr::lit(e1, &x), PExpr::lit(b2, &y)]),
    ])
}

/// Both directions of Example 13 with *consistent* variable roles: `x`
/// always indexes task 1's iterations (`b1`/`e1`) and `y` task 2's
/// (`b2`/`e2`), in both templates.
///
/// (Calling [`mutex_dependency`] twice with the roles swapped silently
/// inverts which variable indexes which task, so cross-iteration
/// instances `(x=2, y=1)` of the second direction are never instantiated
/// — a bug our property tests caught by finding an interleaving where a
/// later iteration slipped into the other task's critical section.)
pub fn mutex_pair(b1: &str, e1: &str, b2: &str, e2: &str) -> (PExpr, PExpr) {
    let x = [Term::Var("x".into())];
    let y = [Term::Var("y".into())];
    let d12 = PExpr::Or(vec![
        PExpr::Seq(vec![PExpr::lit(b2, &y), PExpr::lit(b1, &x)]),
        PExpr::comp(e1, &x),
        PExpr::comp(b2, &y),
        PExpr::Seq(vec![PExpr::lit(e1, &x), PExpr::lit(b2, &y)]),
    ]);
    let d21 = PExpr::Or(vec![
        PExpr::Seq(vec![PExpr::lit(b1, &x), PExpr::lit(b2, &y)]),
        PExpr::comp(e2, &y),
        PExpr::comp(b1, &x),
        PExpr::Seq(vec![PExpr::lit(e2, &y), PExpr::lit(b1, &x)]),
    ]);
    (d12, d21)
}

/// Per-agent event counters: mint fresh tokens so event *types* in
/// looping tasks become distinct event *instances* (Section 5.2 — "each
/// agent can maintain a counter for each event and increment it whenever
/// it attempts an event").
#[derive(Debug, Default)]
pub struct TokenCounter {
    counts: BTreeMap<String, u64>,
}

impl TokenCounter {
    /// New counter set.
    pub fn new() -> TokenCounter {
        TokenCounter::default()
    }

    /// Mint the next token for `event_type` (1-based).
    pub fn mint(&mut self, event_type: &str) -> u64 {
        let c = self.counts.entry(event_type.to_owned()).or_insert(0);
        *c += 1;
        *c
    }

    /// Tokens minted so far for `event_type`.
    pub fn count(&self, event_type: &str) -> u64 {
        self.counts.get(event_type).copied().unwrap_or(0)
    }
}

/// The outcome of attempting a ground event at the dynamic scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The event occurred.
    Granted,
    /// The event parked (its guard is not yet discharged).
    Parked,
    /// The event can never occur (guard dead).
    Rejected,
}

/// A scheduler for parametrized dependencies over arbitrary (looping)
/// tasks: as variables acquire new values, dependency templates are
/// instantiated on demand, each ground dependency's *residual* is
/// advanced by occurrences, and acceptance follows Section 3.4: an event
/// is accepted iff every residual stays satisfiable in a future
/// consistent with the *inevitable* events (events a task guarantees to
/// perform, e.g. the exit of an entered critical section).
#[derive(Debug)]
pub struct DynamicScheduler {
    /// Ground symbol table (instances like `b1[3]`).
    pub table: SymbolTable,
    templates: Vec<PExpr>,
    var_values: BTreeMap<String, BTreeSet<u64>>,
    instantiated: BTreeSet<Vec<(String, u64)>>,
    /// Ground dependencies instantiated so far.
    pub ground_deps: Vec<Expr>,
    /// One tracker per ground dependency, following its residual.
    trackers: Vec<DepTracker>,
    occurred: Vec<Literal>,
    resolved: BTreeSet<SymbolId>,
    parked: BTreeSet<Literal>,
    inevitable: BTreeSet<Literal>,
}

impl DynamicScheduler {
    /// Scheduler over the given dependency templates.
    pub fn new(templates: Vec<PExpr>) -> DynamicScheduler {
        DynamicScheduler {
            table: SymbolTable::new(),
            templates,
            var_values: BTreeMap::new(),
            instantiated: BTreeSet::new(),
            ground_deps: Vec::new(),
            trackers: Vec::new(),
            occurred: Vec::new(),
            resolved: BTreeSet::new(),
            parked: BTreeSet::new(),
            inevitable: BTreeSet::new(),
        }
    }

    /// Bind a new value for `var` (a fresh task iteration), instantiating
    /// every template for every now-complete binding combination.
    pub fn bind(&mut self, var: &str, value: u64) {
        self.var_values.entry(var.to_owned()).or_default().insert(value);
        let templates = self.templates.clone();
        for t in &templates {
            let vars: Vec<String> = t.vars().into_iter().collect();
            if !vars.iter().any(|v| v == var) {
                continue;
            }
            if !vars.iter().all(|v| self.var_values.contains_key(v)) {
                continue;
            }
            self.enumerate_bindings(t, &vars, var, value);
        }
    }

    fn enumerate_bindings(&mut self, t: &PExpr, vars: &[String], fixed: &str, value: u64) {
        // Cartesian product over known values, with `fixed` pinned to the
        // new value (older combinations were instantiated earlier).
        let mut partial: Binding = BTreeMap::new();
        partial.insert(fixed.to_owned(), value);
        let free: Vec<&String> = vars.iter().filter(|v| v.as_str() != fixed).collect();
        self.product(t, &free, 0, &mut partial);
    }

    fn product(&mut self, t: &PExpr, free: &[&String], ix: usize, partial: &mut Binding) {
        if ix == free.len() {
            let key: Vec<(String, u64)> = {
                let mut k: Vec<(String, u64)> =
                    partial.iter().map(|(a, b)| (a.clone(), *b)).collect();
                k.push(("__tmpl".into(), self.template_index(t)));
                k
            };
            if !self.instantiated.insert(key) {
                return;
            }
            let ground = t.instantiate(partial, &mut self.table);
            self.add_ground_dep(ground);
            return;
        }
        let values: Vec<u64> = self
            .var_values
            .get(free[ix].as_str())
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        for v in values {
            partial.insert(free[ix].clone(), v);
            self.product(t, free, ix + 1, partial);
        }
        partial.remove(free[ix].as_str());
    }

    fn template_index(&self, t: &PExpr) -> u64 {
        self.templates.iter().position(|x| x == t).unwrap_or(0) as u64
    }

    fn add_ground_dep(&mut self, dep: Expr) {
        // The new dependency's residual starts at the dependency itself,
        // advanced by all past occurrences in order (the obligation
        // "grows" — Example 14's dynamics at the dependency level).
        let mut tracker = DepTracker::symbolic(&dep);
        for &f in &self.occurred {
            tracker.step(f);
        }
        self.ground_deps.push(dep);
        self.trackers.push(tracker);
    }

    /// Declare `instance` *inevitable*: some task guarantees it will
    /// occur (e.g. the exit event of an entered critical section). Future
    /// acceptance decisions only consider completions containing it.
    pub fn guarantee(&mut self, instance: &str) {
        let sym = self.table.intern(instance);
        self.inevitable.insert(Literal::pos(sym));
        self.wake_parked();
    }

    /// Attempt a ground event by instance name (e.g. `"b1[3]"`).
    pub fn attempt(&mut self, instance: &str) -> Outcome {
        let sym = self.table.intern(instance);
        self.attempt_lit(Literal::pos(sym))
    }

    /// Attempt a ground literal.
    pub fn attempt_lit(&mut self, lit: Literal) -> Outcome {
        if self.resolved.contains(&lit.symbol()) {
            return if self.occurred.contains(&lit) { Outcome::Granted } else { Outcome::Rejected };
        }
        match self.acceptability(lit) {
            Acceptance::Safe => {
                self.parked.remove(&lit);
                self.occur(lit);
                Outcome::Granted
            }
            Acceptance::Dead => {
                self.parked.remove(&lit);
                self.occur(lit.complement());
                Outcome::Rejected
            }
            Acceptance::Unsafe => {
                self.parked.insert(lit);
                Outcome::Parked
            }
        }
    }

    /// Section 3.4's acceptance test, instantiated with inevitability:
    /// `lit` may occur iff for every ground dependency, the residual after
    /// `lit` remains satisfiable by a completion avoiding the complements
    /// of all inevitable events.
    fn acceptability(&self, lit: Literal) -> Acceptance {
        let avoid: BTreeSet<Literal> = self.inevitable.iter().map(|l| l.complement()).collect();
        acceptance(&self.trackers, lit, &avoid)
    }

    fn occur(&mut self, lit: Literal) {
        self.occurred.push(lit);
        self.resolved.insert(lit.symbol());
        self.inevitable.remove(&lit);
        for t in &mut self.trackers {
            t.step(lit);
        }
        self.wake_parked();
    }

    /// Re-evaluate parked attempts (in literal order for determinism).
    fn wake_parked(&mut self) {
        loop {
            let parked: Vec<Literal> = self.parked.iter().copied().collect();
            let mut progressed = false;
            for p in parked {
                if !self.parked.contains(&p) || self.resolved.contains(&p.symbol()) {
                    continue;
                }
                match self.acceptability(p) {
                    Acceptance::Safe => {
                        self.parked.remove(&p);
                        self.occur(p);
                        progressed = true;
                    }
                    Acceptance::Dead => {
                        self.parked.remove(&p);
                        self.occur(p.complement());
                        progressed = true;
                    }
                    Acceptance::Unsafe => {}
                }
            }
            if !progressed {
                break;
            }
        }
    }

    /// Report an occurrence decided outside the scheduler (an immediate
    /// event).
    pub fn inform(&mut self, instance: &str) {
        let sym = self.table.intern(instance);
        let lit = Literal::pos(sym);
        if !self.resolved.contains(&sym) {
            self.occur(lit);
        }
    }

    /// The realized ground trace so far.
    pub fn trace(&self) -> Trace {
        Trace::new(self.occurred.iter().copied()).expect("occurrences resolve symbols once")
    }

    /// Events currently parked.
    pub fn parked(&self) -> Vec<Literal> {
        self.parked.iter().copied().collect()
    }

    /// Verify every instantiated ground dependency against the maximal
    /// extension of the realized trace (unresolved symbols complemented).
    pub fn all_satisfied(&self) -> bool {
        let symbols: BTreeSet<SymbolId> = self.ground_deps.iter().flat_map(Expr::symbols).collect();
        let unresolved: Vec<SymbolId> =
            symbols.into_iter().filter(|s| !self.resolved.contains(s)).collect();
        verdict(&self.trace(), &unresolved, &self.ground_deps).1.into_iter().all(|ok| ok)
    }
}

/// Instantiates the ground guard a template demands for one binding.
type TemplateFn = Box<dyn Fn(u64, &mut SymbolTable) -> Guard + Send>;

/// Example 14's parametrized guard: a template over a free variable whose
/// instances appear when matching tokens occur, are read at the facts
/// heard about their binding, and *resurrect* back to the template when
/// discharged.
pub struct ParamGuard {
    /// Template: for each binding of the free variable, this ground guard
    /// must hold (universal quantification).
    template: TemplateFn,
    /// Each binding met: its weakened instance and the occurrences heard
    /// about it. An instance is a function of that fact set alone
    /// ([`Guard::under`]), whatever order the facts came in.
    heard: BTreeMap<u64, (Guard, Vec<Literal>)>,
    /// Live instances that are neither discharged nor dead, each at its
    /// binding's facts.
    pub instances: BTreeMap<u64, Guard>,
    /// Bindings whose instance died (the guard is 0 overall while any
    /// exists).
    pub dead: BTreeSet<u64>,
}

impl std::fmt::Debug for ParamGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParamGuard")
            .field("instances", &self.instances)
            .field("dead", &self.dead)
            .finish_non_exhaustive()
    }
}

impl ParamGuard {
    /// Build from an instantiation function.
    pub fn new(template: impl Fn(u64, &mut SymbolTable) -> Guard + Send + 'static) -> ParamGuard {
        ParamGuard {
            template: Box::new(template),
            heard: BTreeMap::new(),
            instances: BTreeMap::new(),
            dead: BTreeSet::new(),
        }
    }

    /// A token `value` became relevant (e.g. `f[ŷ]` occurred): ensure the
    /// binding has an instance, add the fact to the binding's facts and
    /// read the instance at them. A discharged instance resurrects the
    /// template for that binding (it leaves [`ParamGuard::instances`]); a
    /// dead one moves to [`ParamGuard::dead`].
    pub fn on_fact(&mut self, value: u64, fact: Literal, table: &mut SymbolTable) {
        let template = &self.template;
        let (instance, facts) = self
            .heard
            .entry(value)
            .or_insert_with(|| (template(value, table).weaken_sequences(), Vec::new()));
        facts.push(fact);
        let at = instance.under(|s| {
            let about = facts.iter().filter(|l| l.symbol() == s);
            about.fold(ST_FULL, |k, l| k & occurred_mask(l.polarity()))
        });
        self.instances.remove(&value);
        match status(&at) {
            GuardStatus::EnabledNow => {}
            GuardStatus::Blocked => {
                self.instances.insert(value, at);
            }
            GuardStatus::Dead => {
                self.dead.insert(value);
            }
        }
    }

    /// The guard holds now iff no live blocking instance and no dead one
    /// exists (unseen bindings hold vacuously — `¬f[y]` is true for all
    /// fresh `y`).
    pub fn enabled_now(&self) -> bool {
        self.dead.is_empty() && self.instances.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instantiate_grounds_variables() {
        let mut table = SymbolTable::new();
        let t = PExpr::Or(vec![
            PExpr::comp("f", &[Term::Var("y".into())]),
            PExpr::lit("g", &[Term::Var("y".into())]),
        ]);
        let mut b = Binding::new();
        b.insert("y".into(), 3);
        let g = t.instantiate(&b, &mut table);
        assert!(table.lookup("f[3]").is_some());
        assert!(table.lookup("g[3]").is_some());
        assert_eq!(g.symbols().len(), 2);
    }

    #[test]
    #[should_panic(expected = "unbound variable")]
    fn instantiate_requires_complete_binding() {
        let mut table = SymbolTable::new();
        let t = PExpr::lit("f", &[Term::Var("y".into())]);
        let _ = t.instantiate(&Binding::new(), &mut table);
    }

    #[test]
    fn token_counters_mint_fresh_ids() {
        let mut c = TokenCounter::new();
        assert_eq!(c.mint("enter"), 1);
        assert_eq!(c.mint("enter"), 2);
        assert_eq!(c.mint("exit"), 1);
        assert_eq!(c.count("enter"), 2);
        assert_eq!(c.count("other"), 0);
    }

    #[test]
    fn example14_guard_grows_shrinks_resurrects() {
        // Guard on e[x]: ¬f[y] + □g[y], y free.
        let mut table = SymbolTable::new();
        let mut pg = ParamGuard::new(|y, table| {
            let f = table.event(&format!("f[{y}]"));
            let g = table.event(&format!("g[{y}]"));
            Guard::not_yet(f).or(&Guard::occurred(g))
        });
        // Initially enabled: no f[y] has happened.
        assert!(pg.enabled_now());
        // f[7] happens → instance □g[7] blocks.
        let f7 = table.event("f[7]");
        pg.on_fact(7, f7, &mut table);
        assert!(!pg.enabled_now());
        assert_eq!(pg.instances.len(), 1);
        // g[7] arrives → instance discharged, guard resurrected.
        let g7 = table.event("g[7]");
        pg.on_fact(7, g7, &mut table);
        assert!(pg.enabled_now());
        assert!(pg.instances.is_empty());
        // A different binding f[9] blocks again — growth after
        // resurrection (the loop case).
        let f9 = table.event("f[9]");
        pg.on_fact(9, f9, &mut table);
        assert!(!pg.enabled_now());
    }

    /// Every order of `items`.
    fn orders(items: &[Literal]) -> Vec<Vec<Literal>> {
        if items.is_empty() {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for (k, &first) in items.iter().enumerate() {
            let mut rest = items.to_vec();
            rest.remove(k);
            for mut tail in orders(&rest) {
                tail.insert(0, first);
                out.push(tail);
            }
        }
        out
    }

    /// Example 14's template widened to three symbols per binding,
    /// `¬f[y] + □g[y] ∧ □h[y]`, fed every consistent set of occurrences
    /// of one binding in every order: one `enabled_now` and one instance
    /// guard per fact set. (Reducing one fact at a time and dropping a
    /// discharged instance made `g[7] h[7] f[7]` block where `f[7] g[7]
    /// h[7]` enables.)
    #[test]
    fn a_bindings_facts_decide_its_instance_in_any_order() {
        let template = |y: u64, table: &mut SymbolTable| {
            let [f, g, h] = ["f", "g", "h"].map(|n| table.event(&format!("{n}[{y}]")));
            Guard::not_yet(f).or(&Guard::occurred(g).and(&Guard::occurred(h)))
        };
        let mut table = SymbolTable::new();
        let lits = ["f", "g", "h"].map(|n| table.event(&format!("{n}[7]")));
        // Each symbol: not heard of, occurred, or its complement occurred.
        for code in 0..27u32 {
            let facts: Vec<Literal> = (0..3)
                .filter_map(|k| match code / 3u32.pow(k) % 3 {
                    0 => None,
                    1 => Some(lits[k as usize]),
                    _ => Some(lits[k as usize].complement()),
                })
                .collect();
            let outcomes: Vec<(bool, Option<Guard>, bool)> = orders(&facts)
                .into_iter()
                .map(|order| {
                    let mut pg = ParamGuard::new(template);
                    for fact in order {
                        pg.on_fact(7, fact, &mut table);
                    }
                    (pg.enabled_now(), pg.instances.get(&7).cloned(), pg.dead.contains(&7))
                })
                .collect();
            assert!(outcomes.windows(2).all(|w| w[0] == w[1]), "{facts:?}: {outcomes:?}");
        }
        // All three occurred: discharged, in every order.
        let mut pg = ParamGuard::new(template);
        for fact in [lits[1], lits[2], lits[0]] {
            pg.on_fact(7, fact, &mut table);
        }
        assert!(pg.enabled_now() && pg.instances.is_empty() && pg.dead.is_empty());
    }

    #[test]
    fn dynamic_scheduler_enforces_pairwise_mutex() {
        // Both directions of Example 13.
        let (d12, d21) = mutex_pair("b1", "e1", "b2", "e2");
        let mut s = DynamicScheduler::new(vec![d12, d21]);
        // Iteration 1 of both tasks.
        s.bind("x", 1);
        s.bind("y", 1);
        assert_eq!(s.attempt("b1[1]"), Outcome::Granted);
        // Entering obligates the exit (task structure): e1[1] will occur.
        s.guarantee("e1[1]");
        // T2 cannot enter while T1 is inside.
        assert_eq!(s.attempt("b2[1]"), Outcome::Parked);
        // T1 exits -> T2's parked enter fires.
        assert_eq!(s.attempt("e1[1]"), Outcome::Granted);
        assert!(s.trace().contains(Literal::pos(s.table.lookup("b2[1]").unwrap())));
        s.guarantee("e2[1]");
        assert_eq!(s.attempt("e2[1]"), Outcome::Granted);
        assert!(s.all_satisfied(), "{}", s.trace());
    }

    #[test]
    fn dynamic_scheduler_handles_loops() {
        // Three iterations of each task, interleaved: the per-agent token
        // counter turns the looping event *types* into fresh instances and
        // each pair of iterations gets its own ground dependency.
        let (d12, d21) = mutex_pair("b1", "e1", "b2", "e2");
        let mut s = DynamicScheduler::new(vec![d12, d21]);
        let mut c1 = TokenCounter::new();
        let mut c2 = TokenCounter::new();
        for _ in 0..3 {
            let k = c1.mint("b1");
            s.bind("x", k);
            assert_eq!(s.attempt(&format!("b1[{k}]")), Outcome::Granted, "iter {k}");
            s.guarantee(&format!("e1[{k}]"));
            assert_eq!(s.attempt(&format!("e1[{k}]")), Outcome::Granted);

            let j = c2.mint("b2");
            s.bind("y", j);
            assert_eq!(s.attempt(&format!("b2[{j}]")), Outcome::Granted, "iter {j}");
            s.guarantee(&format!("e2[{j}]"));
            assert_eq!(s.attempt(&format!("e2[{j}]")), Outcome::Granted);
        }
        assert_eq!(s.ground_deps.len(), 2 * 9, "3x3 bindings per direction");
        assert!(s.all_satisfied(), "{}", s.trace());
    }

    #[test]
    fn never_both_inside_critical_section() {
        // Adversarial interleaving: T2 attempts to enter while T1 is
        // inside; the attempt parks and fires only after T1's exit.
        let (d12, d21) = mutex_pair("b1", "e1", "b2", "e2");
        let mut s = DynamicScheduler::new(vec![d12, d21]);
        for k in 1..=2u64 {
            s.bind("x", k);
            s.bind("y", k);
        }
        assert_eq!(s.attempt("b1[1]"), Outcome::Granted);
        s.guarantee("e1[1]");
        assert_eq!(s.attempt("b2[1]"), Outcome::Parked);
        assert_eq!(s.attempt("b2[2]"), Outcome::Parked);
        assert_eq!(s.attempt("e1[1]"), Outcome::Granted);
        // Both parked enters wake after T1's exit (Example 13 constrains
        // cross-task interleaving only; T2's own iterations are governed
        // by its task structure, not by this dependency).
        let woke1 = s.trace().contains(Literal::pos(s.table.lookup("b2[1]").unwrap()));
        let woke2 = s.trace().contains(Literal::pos(s.table.lookup("b2[2]").unwrap()));
        assert!(woke1 && woke2, "parked enters wake after exit: {}", s.trace());
        // Verify the realized trace never has b2[j] strictly inside
        // [b1[k], e1[k]] or vice versa.
        let trace = s.trace();
        let evs = trace.events();
        let pos_of = |n: &str| {
            s.table.lookup(n).and_then(|sym| evs.iter().position(|&l| l == Literal::pos(sym)))
        };
        for k in 1..=2u64 {
            for j in 1..=2u64 {
                if let (Some(b1), Some(e1), Some(b2)) = (
                    pos_of(&format!("b1[{k}]")),
                    pos_of(&format!("e1[{k}]")),
                    pos_of(&format!("b2[{j}]")),
                ) {
                    assert!(
                        !(b1 < b2 && b2 < e1),
                        "b2[{j}] inside T1's critical section {k}: {trace}"
                    );
                }
            }
        }
    }

    #[test]
    fn out_of_order_attempt_parks_then_fires() {
        // A strict order a·b: attempting b first is premature (parked,
        // not dead — b can still occur after a); once a occurs, the
        // parked b fires.
        let t = PExpr::Seq(vec![
            PExpr::lit("a", &[Term::Var("x".into())]),
            PExpr::lit("b", &[Term::Var("x".into())]),
        ]);
        let mut s = DynamicScheduler::new(vec![t]);
        s.bind("x", 1);
        assert_eq!(s.attempt("b[1]"), Outcome::Parked);
        assert_eq!(s.attempt("a[1]"), Outcome::Granted);
        let b = Literal::pos(s.table.lookup("b[1]").unwrap());
        assert!(s.trace().contains(b), "parked b fired after a: {}", s.trace());
        assert!(s.all_satisfied());
    }

    #[test]
    fn dead_attempt_rejects_and_complements() {
        // A prohibition ~a[x]: a can never occur in any satisfying
        // completion — attempting it is rejected and the complement
        // occurs.
        let t = PExpr::comp("a", &[Term::Var("x".into())]);
        let mut s = DynamicScheduler::new(vec![t]);
        s.bind("x", 1);
        assert_eq!(s.attempt("a[1]"), Outcome::Rejected);
        let a = Literal::pos(s.table.lookup("a[1]").unwrap());
        assert!(s.trace().contains(a.complement()));
        assert!(s.all_satisfied());
        // Repeat attempts stay rejected.
        assert_eq!(s.attempt("a[1]"), Outcome::Rejected);
    }
}
