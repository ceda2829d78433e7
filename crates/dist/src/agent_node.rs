//! The network-side wrapper around a [`TaskAgent`]: drives the task
//! through its script, requests permission for controllable events,
//! reports immediate ones, and services scheduler triggers (Section 2).

use crate::msg::Msg;
use agent::{EventIx, StateIx, TaskAgent};
use event_algebra::Literal;
use sim::{Ctx, NodeId};
use std::collections::VecDeque;
use std::sync::Arc;

use crate::actor::Routing;

/// One planned step of a task agent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScriptStep {
    /// Attempt (or, for immediate events, perform) the named event.
    Event(String),
    /// Think time: the task works locally for this many virtual ticks
    /// before its next step.
    Wait(u64),
}

/// What the agent intends to do, in order. Triggers from the scheduler
/// interleave with the script.
#[derive(Debug, Clone, Default)]
pub struct Script {
    /// Steps, executed in order as the skeleton allows.
    pub steps: Vec<ScriptStep>,
}

impl Script {
    /// A script attempting the named events in order.
    pub fn of(steps: &[&str]) -> Script {
        Script { steps: steps.iter().map(|s| ScriptStep::Event((*s).to_owned())).collect() }
    }

    /// A script with explicit steps (events and waits).
    pub fn steps(steps: Vec<ScriptStep>) -> Script {
        Script { steps }
    }

    /// Append an event step.
    pub fn then(mut self, name: &str) -> Script {
        self.steps.push(ScriptStep::Event(name.to_owned()));
        self
    }

    /// Append a think-time step.
    pub fn wait(mut self, ticks: u64) -> Script {
        self.steps.push(ScriptStep::Wait(ticks));
        self
    }
}

/// A resolved script step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Event(EventIx),
    Wait(u64),
}

/// The agent process: a task skeleton plus a driver. Built once per
/// instance slot; [`AgentNode::reset`] rewinds it for the next instance.
#[derive(Debug, Clone)]
pub struct AgentNode {
    /// The task skeleton.
    pub agent: TaskAgent,
    /// The state the skeleton starts every instance in.
    start: StateIx,
    /// The resolved script, as every instance starts it.
    plan: Vec<Step>,
    /// Per skeleton state, the events fireable from it now or later
    /// (sorted): a property of the skeleton, tabulated once.
    reachable: Vec<Vec<EventIx>>,
    script: VecDeque<Step>,
    pending_triggers: VecDeque<EventIx>,
    /// An attempt outstanding at the actor (event index).
    waiting: Option<EventIx>,
    /// A wait step in progress (think time; resumes on the timer kick).
    sleeping: bool,
    /// Events that were rejected (their complements occurred).
    pub rejected: Vec<EventIx>,
    /// The literals this agent fired, in order (local view).
    pub fired: Vec<Literal>,
    routing: Arc<Routing>,
}

impl AgentNode {
    /// Wrap `agent` with a script (event names must exist in the agent).
    pub fn new(agent: TaskAgent, script: &Script, routing: Arc<Routing>) -> AgentNode {
        let plan: Vec<Step> = script
            .steps
            .iter()
            .map(|step| match step {
                ScriptStep::Event(name) => Step::Event(
                    agent
                        .event_named(name)
                        .unwrap_or_else(|| panic!("agent {} has no event {name}", agent.name)),
                ),
                ScriptStep::Wait(t) => Step::Wait(*t),
            })
            .collect();
        AgentNode {
            start: agent.current,
            reachable: (0..agent.states.len()).map(|s| reachable_from(&agent, s)).collect(),
            agent,
            script: plan.iter().copied().collect(),
            plan,
            pending_triggers: VecDeque::new(),
            waiting: None,
            sleeping: false,
            rejected: Vec::new(),
            fired: Vec::new(),
            routing,
        }
    }

    /// Rewind to the state [`AgentNode::new`] builds, keeping every
    /// buffer.
    pub fn reset(&mut self) {
        self.agent.current = self.start;
        self.script.clear();
        self.script.extend(&self.plan);
        self.pending_triggers.clear();
        self.waiting = None;
        self.sleeping = false;
        self.rejected.clear();
        self.fired.clear();
    }

    fn actor_for(&self, ev: EventIx) -> NodeId {
        let lit = self.agent.literal_of(ev);
        self.routing.actor_of[lit.symbol()]
    }

    /// Handle a message from the scheduler (or the initial kick / a
    /// think-time wake-up).
    pub fn handle(&mut self, ctx: &mut Ctx<'_, Msg>, msg: Msg) {
        match msg {
            Msg::Kick => {
                self.sleeping = false;
            }
            Msg::Granted { lit } => {
                // Accept the verdict only if it matches the outstanding
                // attempt: after retransmissions or an actor restart, a
                // duplicate or stale verdict can arrive when we are not
                // (or no longer) waiting on that event — firing the wrong
                // transition on it would corrupt the task state machine.
                if self.waiting.map(|ev| self.agent.literal_of(ev)) == Some(lit) {
                    let ev = self.waiting.take().expect("checked above");
                    self.fire(ctx, ev);
                }
            }
            Msg::Rejected { lit } => {
                if self.waiting.map(|ev| self.agent.literal_of(ev)) == Some(lit) {
                    let ev = self.waiting.take().expect("checked above");
                    self.rejected.push(ev);
                }
            }
            Msg::Trigger { lit } => {
                if let Some(ev) = self.agent.events.iter().position(|e| e.literal == lit) {
                    if !self.pending_triggers.contains(&ev) {
                        self.pending_triggers.push_back(ev);
                    }
                }
            }
            other => panic!("agent {} received {other:?}", self.agent.name),
        }
        self.advance(ctx);
    }

    /// Fire a granted/triggered event locally and notify of any events
    /// that have become unreachable (their complements occurred).
    fn fire(&mut self, ctx: &mut Ctx<'_, Msg>, ev: EventIx) {
        let before = self.agent.current;
        self.agent.fire(ev).expect("scheduler granted an illegal transition");
        self.fired.push(self.agent.literal_of(ev));
        // Complements: events reachable before but not after are now
        // impossible in this task — their complements occur.
        let after = self.reachable_events();
        for &e in &self.reachable[before] {
            if e != ev && !after.contains(&e) && !self.fired.contains(&self.agent.literal_of(e)) {
                let lit = self.agent.literal_of(e);
                ctx.send(self.actor_for(e), Msg::Inform { lit: lit.complement() });
            }
        }
    }

    /// Events reachable (fireable eventually) from the current state.
    fn reachable_events(&self) -> &[EventIx] {
        &self.reachable[self.agent.current]
    }

    /// Take the next action: service a trigger if possible, else the next
    /// script step.
    fn advance(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.waiting.is_some() || self.sleeping {
            return;
        }
        // Triggers first (the scheduler's proactive requests).
        if let Some(pos) = self.pending_triggers.iter().position(|&ev| self.agent.can_fire(ev)) {
            let ev = self.pending_triggers.remove(pos).expect("index valid");
            self.start_attempt(ctx, ev);
            return;
        }
        // Script steps: skip steps that can no longer fire.
        while let Some(&step) = self.script.front() {
            match step {
                Step::Wait(ticks) => {
                    self.script.pop_front();
                    self.sleeping = true;
                    // Wake ourselves after the think time.
                    ctx.send_after(ctx.self_id, Msg::Kick, ticks);
                    return;
                }
                Step::Event(ev) => {
                    if self.agent.can_fire(ev) {
                        self.script.pop_front();
                        self.start_attempt(ctx, ev);
                        return;
                    }
                    // Unfireable right now: if it can never fire again,
                    // drop it; otherwise wait (a trigger may move the
                    // state machine).
                    if self.reachable_events().contains(&ev) {
                        return;
                    }
                    self.script.pop_front();
                }
            }
        }
    }

    /// Called by the executor after a crashed agent's state has been
    /// rebuilt by replaying its write-ahead log. An outstanding attempt
    /// is re-sent (the actor's attempt handling is idempotent, and if it
    /// already decided, it simply re-sends the verdict). A think-time nap
    /// is cut short — its wake-up timer died with the node.
    pub fn resume(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if let Some(ev) = self.waiting {
            let lit = self.agent.literal_of(ev);
            ctx.send(self.actor_for(ev), Msg::Attempt { lit });
            return;
        }
        self.sleeping = false;
        self.advance(ctx);
    }

    fn start_attempt(&mut self, ctx: &mut Ctx<'_, Msg>, ev: EventIx) {
        let lit = self.agent.literal_of(ev);
        let attrs = self.agent.events[ev].attrs;
        if attrs.controllable {
            self.waiting = Some(ev);
            ctx.send(self.actor_for(ev), Msg::Attempt { lit });
        } else {
            // Immediate: fire locally and inform.
            self.fire(ctx, ev);
            ctx.send(self.actor_for(ev), Msg::Inform { lit });
            self.advance(ctx);
        }
    }
}

/// The events fireable, now or after other transitions, from `state` of
/// `agent`, sorted.
fn reachable_from(agent: &TaskAgent, state: StateIx) -> Vec<EventIx> {
    let mut reach_states = vec![false; agent.states.len()];
    let mut stack = vec![state];
    reach_states[state] = true;
    while let Some(s) = stack.pop() {
        for &(from, _, to) in &agent.transitions {
            if from == s && !reach_states[to] {
                reach_states[to] = true;
                stack.push(to);
            }
        }
    }
    let mut evs: Vec<EventIx> = agent
        .transitions
        .iter()
        .filter(|&&(from, _, _)| reach_states[from])
        .map(|&(_, e, _)| e)
        .collect();
    evs.sort_unstable();
    evs.dedup();
    evs
}

#[cfg(test)]
mod tests {
    use super::*;
    use agent::library::rda_transaction;
    use event_algebra::SymbolTable;

    #[test]
    fn script_resolution_panics_on_unknown_event() {
        let mut t = SymbolTable::new();
        let a = rda_transaction("x", &mut t);
        let routing = Arc::new(Routing::default());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            AgentNode::new(a, &Script::of(&["frobnicate"]), routing)
        }));
        assert!(result.is_err());
    }

    #[test]
    fn script_of_builds_steps() {
        let s = Script::of(&["start", "commit"]);
        assert_eq!(
            s.steps,
            vec![ScriptStep::Event("start".into()), ScriptStep::Event("commit".into())]
        );
        let s2 = Script::of(&["start"]).wait(10).then("commit");
        assert_eq!(s2.steps.len(), 3);
        assert_eq!(s2.steps[1], ScriptStep::Wait(10));
    }
    // Behavior under scheduling is covered by the executor tests.
}
