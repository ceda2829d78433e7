//! The polling ablation of experiment C3: the paper's eager nodes, each
//! actor behind an inbox it reads once per period.
//!
//! The paper's scheduler is eager — an announcement re-evaluates the
//! attempts parked on it the moment it lands. The ablation it is compared
//! with keeps the protocol and the nodes exactly as [`build_workflow`]
//! returns them and changes only *when* an actor looks at its messages:
//! each actor reads its inbox at the instants `phase + k·period`, its
//! phase its own (distinct between actors as long as there are no more
//! actors than instants in a period), and handles what it finds there in
//! arrival order. Agents are not polled. The poll timer is a self-sent
//! [`Msg::Kick`], which no actor is sent otherwise, and it is armed only
//! when a message lands in an empty inbox, so a run still ends in
//! quiescence.

use crate::Workload;
use dist::{build_workflow, ExecConfig, Msg, Node};
use event_algebra::{verdict, Literal, SymbolId, Trace};
use sim::{Ctx, Network, NodeId, Process, Termination, Time};

/// The messages an actor has not read yet, with their senders.
type Inbox = Vec<(NodeId, Msg)>;

/// A node of the polled run: an actor with its `(period, phase, inbox)`,
/// or an agent, which handles each message as it lands.
struct Polled {
    node: Node,
    poll: Option<(Time, Time, Inbox)>,
}

impl Process<Msg> for Polled {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        let Some((period, phase, inbox)) = &mut self.poll else {
            return self.node.on_message(ctx, from, msg);
        };
        if from == ctx.self_id && msg == Msg::Kick {
            assert_eq!(ctx.now() % *period, *phase, "a poll lands on its actor's phase");
            for (from, msg) in std::mem::take(inbox) {
                self.node.on_message(ctx, from, msg);
            }
            return;
        }
        if inbox.is_empty() {
            // The first poll instant after the self-send's one-tick hop.
            let wait = (*phase + *period - (ctx.now() + 1) % *period) % *period;
            ctx.send_after(ctx.self_id, Msg::Kick, wait);
        }
        inbox.push((from, msg));
    }
}

/// What a polled run leaves.
#[derive(Debug)]
pub struct PolledRun {
    /// Events that occurred, `(literal, time, sequence)`, in occurrence
    /// order.
    pub occurrences: Vec<(Literal, Time, u64)>,
    /// Every dependency is satisfied on the maximal trace.
    pub all_satisfied: bool,
    /// Whether the run converged or ran out of budget.
    pub termination: Termination,
    /// Each actor's symbol and poll phase.
    pub phases: Vec<(SymbolId, Time)>,
}

/// Run a workload with every actor polling its inbox once per `period`
/// virtual ticks, on phases drawn from `seed`: a seeded shuffle of the
/// period's instants, dealt to the actors in node order. The network is
/// the default one, whose node-local hop is the one tick a poll timer's
/// wait allows for.
pub fn run_polled(w: &Workload, seed: u64, period: Time) -> PolledRun {
    let spec = w.spec();
    let config = ExecConfig { max_steps: 5_000_000, ..ExecConfig::seeded(seed) };
    let built = build_workflow(&spec, config.clone());
    let mut rng = seeded::Rng::seed_from_u64(seeded::mix64(seed));
    let mut instants: Vec<Time> = (0..period).collect();
    for i in (1..instants.len()).rev() {
        instants.swap(i, rng.random_range(0..=i));
    }
    let mut phases = instants.into_iter().cycle();
    let nodes = built.nodes.into_iter().map(|(site, node)| {
        let poll = matches!(node, Node::Actor(_))
            .then(|| (period, phases.next().expect("a period of a tick or more"), vec![]));
        (site, Polled { node, poll })
    });
    let mut net = Network::new(config.sim, nodes);
    for (from, to, msg, extra) in built.injections {
        net.inject_after(from, to, msg, extra);
    }
    let termination = net.run_to_quiescence(config.max_steps).termination;
    let (mut occurrences, mut unresolved, mut phases) = (vec![], vec![], vec![]);
    for polled in net.into_nodes() {
        if let (Node::Actor(a), Some((_, phase, _))) = (polled.node, polled.poll) {
            match a.occurred {
                Some(occurrence) => occurrences.push(occurrence),
                None => unresolved.push(a.sym),
            }
            phases.push((a.sym, phase));
        }
    }
    occurrences.sort_by_key(|&(_, t, q)| (t, q));
    let trace = Trace::new(occurrences.iter().map(|&(l, _, _)| l)).expect("one occurrence each");
    let all_satisfied = verdict(&trace, &unresolved, &spec.dependencies).1.iter().all(|&s| s);
    PolledRun { occurrences, all_satisfied, termination, phases }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prec_fanout_workload;

    /// On `root < leaf`, each event occurs at a poll instant of its own
    /// actor — never when the message that enables it lands — and the run
    /// still quiesces satisfied. A wrapper that handed messages on at once
    /// would fire the leaf one announcement latency after the root.
    #[test]
    fn a_polled_actor_acts_only_at_its_poll_instants() {
        let w = prec_fanout_workload(2, 2);
        for seed in 0..5 {
            let run = run_polled(&w, seed, 40);
            assert_eq!(run.termination, Termination::Quiescent, "seed {seed}");
            assert!(run.all_satisfied, "seed {seed}: {run:?}");
            assert_eq!(run.occurrences.len(), 2, "seed {seed}: {run:?}");
            for &(lit, at, _) in &run.occurrences {
                let (_, phase) = run.phases.iter().find(|(s, _)| *s == lit.symbol()).unwrap();
                assert_eq!(at % 40, *phase, "seed {seed}: {lit:?} at {at}, phase {phase}");
            }
            let (s0, s1) = (run.phases[0].1, run.phases[1].1);
            assert_ne!(s0, s1, "seed {seed}: two actors share a phase");
        }
    }
}
