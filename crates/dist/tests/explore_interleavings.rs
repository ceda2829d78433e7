//! Exhaustive interleaving exploration: for small workflows, every
//! possible delivery order of the protocol's messages is executed (DFS
//! over the pending-message set, cloning node state at each branch), and
//! every reachable terminal state is checked safe — the realized trace
//! satisfies all dependencies whenever all symbols resolved, and no actor
//! still holds still for a requester that decided. This is a
//! model check of the actor protocol itself, independent of any latency
//! model.

use agent::EventAttrs;
use dist::{build_workflow, ExecConfig, FreeEventSpec, Msg, Node, WorkflowSpec};
use event_algebra::{parse_expr, satisfies, Expr, Literal, SymbolId, SymbolTable, Trace};
use sim::{Ctx, NodeId, SiteId};

#[derive(Clone)]
struct State {
    nodes: Vec<Node>,
    pending: Vec<(NodeId, NodeId, Msg)>,
    delivered: u64,
}

struct Explorer {
    deps: Vec<Expr>,
    symbols: Vec<SymbolId>,
    actor_index: Vec<usize>,
    paths: u64,
    violations: Vec<String>,
    max_paths: u64,
}

impl Explorer {
    fn deliver(&mut self, mut st: State, ix: usize) -> State {
        let (from, to, msg) = st.pending.swap_remove(ix);
        st.delivered += 1;
        let mut outbox: Vec<(NodeId, Msg, u64)> = Vec::new();
        {
            let mut ctx = Ctx::manual(to, st.delivered, st.delivered, &mut outbox);
            use sim::Process;
            st.nodes[to.0 as usize].on_message(&mut ctx, from, msg);
        }
        for (t, m, _d) in outbox {
            st.pending.push((to, t, m));
        }
        st
    }

    fn check_terminal(&mut self, st: &State) {
        // Collect the realized trace from actor occurrence order.
        let mut occs: Vec<(u64, Literal)> = Vec::new();
        let mut unresolved = false;
        for (&s, &ix) in self.symbols.iter().zip(&self.actor_index) {
            let Node::Actor(a) = &st.nodes[ix] else { unreachable!() };
            match a.occurred {
                Some((l, _, seq)) => occs.push((seq, l)),
                None => unresolved = true,
            }
            let _ = s;
        }
        // No hold outlives its holder's decision.
        let decided = |s: SymbolId| occs.iter().any(|&(_, l)| l.symbol() == s);
        for &ix in &self.actor_index {
            let Node::Actor(a) = &st.nodes[ix] else { unreachable!() };
            for h in a.holds.iter().filter(|h| decided(h.symbol())) {
                self.violations.push(format!("{:?} still holds for {h:?}, which decided", a.sym));
            }
        }
        if unresolved {
            return; // liveness not asserted here; safety only
        }
        occs.sort_by_key(|&(s, _)| s);
        let trace = Trace::new(occs.iter().map(|&(_, l)| l)).expect("one per symbol");
        for d in &self.deps {
            if !satisfies(&trace, d) {
                self.violations.push(format!("trace {trace} violates {d}"));
            }
        }
    }

    fn dfs(&mut self, st: State) {
        if self.paths >= self.max_paths || !self.violations.is_empty() {
            return;
        }
        if st.pending.is_empty() {
            self.paths += 1;
            self.check_terminal(&st);
            return;
        }
        for ix in 0..st.pending.len() {
            let next = self.deliver(st.clone(), ix);
            self.dfs(next);
            if self.paths >= self.max_paths || !self.violations.is_empty() {
                return;
            }
        }
    }
}

fn explore(dep_srcs: &[&str], nsyms: u32, max_paths: u64) -> (u64, Vec<String>) {
    let mut table = SymbolTable::new();
    let deps: Vec<Expr> =
        dep_srcs.iter().map(|s| parse_expr(s, &mut table).expect("parse")).collect();
    let free_events = (0..nsyms)
        .map(|i| FreeEventSpec {
            site: SiteId(i),
            lit: Literal::pos(SymbolId(i)),
            attrs: EventAttrs::controllable(),
            attempt_after: Some(1),
        })
        .collect();
    let spec = WorkflowSpec { table, dependencies: deps.clone(), agents: vec![], free_events };
    let built = build_workflow(&spec, ExecConfig::seeded(0));
    let symbols = built.symbols.clone();
    let actor_index: Vec<usize> =
        symbols.iter().map(|s| built.routing.actor_of[s].0 as usize).collect();
    let nodes: Vec<Node> = built.nodes.into_iter().map(|(_, n)| n).collect();
    // Exploration has no clock, so injection delays are irrelevant here.
    let pending: Vec<(NodeId, NodeId, Msg)> =
        built.injections.into_iter().map(|(f, t, m, _)| (f, t, m)).collect();
    let mut ex =
        Explorer { deps, symbols, actor_index, paths: 0, violations: Vec::new(), max_paths };
    ex.dfs(State { nodes, pending, delivered: 0 });
    (ex.paths, ex.violations)
}

#[test]
fn d_precedes_is_safe_under_all_interleavings() {
    let (paths, violations) = explore(&["~e0 + ~e1 + e0.e1"], 2, 500_000);
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(paths, 5, "explored {paths} complete interleavings");
}

#[test]
fn d_arrow_is_safe_under_all_interleavings() {
    let (paths, violations) = explore(&["~e0 + e1"], 2, 500_000);
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(paths, 3, "explored {paths}");
}

#[test]
fn mutual_arrows_consensus_is_safe_under_all_interleavings() {
    // Example 11's cycle: both guards are ◇ of each other.
    let (paths, violations) = explore(&["~e0 + e1", "~e1 + e0"], 2, 500_000);
    assert!(violations.is_empty(), "{violations:?}");
    assert!(paths > 10, "explored {paths}");
}

#[test]
fn three_event_pipeline_is_safe_under_bounded_interleavings() {
    let (paths, violations) = explore(&["~e0 + ~e1 + e0.e1", "~e1 + ~e2 + e1.e2"], 3, 200_000);
    assert!(violations.is_empty(), "{violations:?}");
    assert!(paths > 10, "explored {paths}");
}
