//! Task agents and their coarse significant-event skeletons (Section 2).
//!
//! An agent embodies "a coarse description of the task, including only
//! states and transitions (or events) that are significant for
//! coordination". The agent interfaces the task with the scheduling
//! system: it informs the system of uncontrollable events (like *abort*),
//! requests permission for controllable ones (like *commit*), and causes
//! triggerable ones (like *start*) when the scheduler asks.

use event_algebra::{Expr, Literal, SymbolTable};
use std::fmt;

/// Scheduling attributes of a significant event (after \[2\] and \[14\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventAttrs {
    /// The scheduler may delay or permit the event (the agent requests
    /// permission and waits). Example: `commit`.
    pub controllable: bool,
    /// The scheduler may proactively cause the event in the task.
    /// Example: `start` of a subtask.
    pub triggerable: bool,
    /// The scheduler may permanently reject the event (forcing the agent
    /// down an alternative path). A non-rejectable, non-controllable event
    /// (like `abort`) must be accepted whenever the agent reports it.
    pub rejectable: bool,
}

impl EventAttrs {
    /// A controllable, rejectable event (e.g. `commit`).
    pub fn controllable() -> EventAttrs {
        EventAttrs { controllable: true, triggerable: false, rejectable: true }
    }

    /// A triggerable (and controllable) event (e.g. `start`).
    pub fn triggerable() -> EventAttrs {
        EventAttrs { controllable: true, triggerable: true, rejectable: true }
    }

    /// An immediate event the scheduler can neither delay nor reject
    /// (e.g. `abort`): it simply learns that it happened.
    pub fn immediate() -> EventAttrs {
        EventAttrs { controllable: false, triggerable: false, rejectable: false }
    }
}

/// Index of a state within a skeleton.
pub type StateIx = usize;

/// Index of a significant event within an agent.
pub type EventIx = usize;

/// One significant event of a task agent.
#[derive(Debug, Clone)]
pub struct AgentEvent {
    /// Name within the agent (e.g. `"commit"`).
    pub name: String,
    /// The global literal this event was registered as.
    pub literal: Literal,
    /// Scheduling attributes.
    pub attrs: EventAttrs,
}

/// A coarse task skeleton: states and significant-event transitions.
///
/// The *invisible* states of the task are not exposed; arbitrary internal
/// loops and branches hide between the significant transitions.
#[derive(Debug, Clone)]
pub struct TaskAgent {
    /// Agent name (used as an event-name prefix when registering).
    pub name: String,
    /// State names; index 0 is initial.
    pub states: Vec<String>,
    /// Significant events.
    pub events: Vec<AgentEvent>,
    /// Transitions `(from_state, event, to_state)`.
    pub transitions: Vec<(StateIx, EventIx, StateIx)>,
    /// Current state.
    pub current: StateIx,
}

impl TaskAgent {
    /// Start building an agent named `name`.
    pub fn builder(name: &str) -> TaskAgentBuilder {
        TaskAgentBuilder {
            name: name.to_owned(),
            states: Vec::new(),
            events: Vec::new(),
            transitions: Vec::new(),
        }
    }

    /// The events enabled in the current state.
    pub fn available(&self) -> Vec<EventIx> {
        let mut v: Vec<EventIx> = self
            .transitions
            .iter()
            .filter(|&&(from, _, _)| from == self.current)
            .map(|&(_, e, _)| e)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// `true` if `event` can fire from the current state.
    pub fn can_fire(&self, event: EventIx) -> bool {
        self.transitions.iter().any(|&(from, e, _)| from == self.current && e == event)
    }

    /// Fire `event`, moving to its target state.
    pub fn fire(&mut self, event: EventIx) -> Result<StateIx, IllegalTransition> {
        match self.transitions.iter().find(|&&(from, e, _)| from == self.current && e == event) {
            Some(&(_, _, to)) => {
                self.current = to;
                Ok(to)
            }
            None => Err(IllegalTransition {
                agent: self.name.clone(),
                state: self.states[self.current].clone(),
                event: self.events[event].name.clone(),
            }),
        }
    }

    /// `true` if no transition leaves the current state.
    pub fn is_terminal(&self) -> bool {
        self.available().is_empty()
    }

    /// Find an event by its local name.
    pub fn event_named(&self, name: &str) -> Option<EventIx> {
        self.events.iter().position(|e| e.name == name)
    }

    /// The literal registered for `event`.
    pub fn literal_of(&self, event: EventIx) -> Literal {
        self.events[event].literal
    }

    /// Derive the task's *structure dependencies*: for every pair of
    /// events `f`, `e` where `f` dominates `e` in the skeleton (every
    /// path from the initial state to a state from which `e` can fire
    /// passes through an `f`-transition), emit `ē + f·e` — "if e occurs,
    /// f occurred first". These encode the coarse task structure the
    /// agent exposes (Section 2) as ordinary dependencies, letting the
    /// scheduler reason that e.g. a commit can never happen once the
    /// start has been ruled out.
    pub fn structure_dependencies(&self) -> Vec<Expr> {
        let mut out = Vec::new();
        for e_ix in 0..self.events.len() {
            for f_ix in 0..self.events.len() {
                if e_ix == f_ix {
                    continue;
                }
                if self.dominates(f_ix, e_ix) {
                    let e = self.events[e_ix].literal;
                    let f = self.events[f_ix].literal;
                    out.push(Expr::or([
                        Expr::lit(e.complement()),
                        Expr::seq([Expr::lit(f), Expr::lit(e)]),
                    ]));
                }
            }
        }
        out
    }

    /// `true` if every path from the initial state to any source state of
    /// `e`-transitions passes through an `f`-transition.
    fn dominates(&self, f: EventIx, e: EventIx) -> bool {
        // Reachability from the initial state with f-transitions removed.
        let mut reach = vec![false; self.states.len()];
        let mut stack = vec![0usize];
        reach[0] = true;
        while let Some(s) = stack.pop() {
            for &(from, ev, to) in &self.transitions {
                if from == s && ev != f && !reach[to] {
                    reach[to] = true;
                    stack.push(to);
                }
            }
        }
        // e is dominated if none of its source states stays reachable.
        let mut has_source = false;
        for &(from, ev, _) in &self.transitions {
            if ev == e {
                has_source = true;
                if reach[from] {
                    return false;
                }
            }
        }
        has_source
    }

    /// Render the skeleton (used by the Figure 1 regeneration binary).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "agent {}:", self.name);
        for (ix, s) in self.states.iter().enumerate() {
            let mark = if ix == 0 {
                " (initial)"
            } else if self.transitions.iter().all(|&(f, _, _)| f != ix) {
                " (terminal)"
            } else {
                ""
            };
            let _ = writeln!(out, "  state {s}{mark}");
            for &(from, e, to) in &self.transitions {
                if from == ix {
                    let ev = &self.events[e];
                    let attrs = [
                        ev.attrs.controllable.then_some("controllable"),
                        ev.attrs.triggerable.then_some("triggerable"),
                        (!ev.attrs.rejectable && !ev.attrs.controllable).then_some("immediate"),
                    ]
                    .into_iter()
                    .flatten()
                    .collect::<Vec<_>>()
                    .join(",");
                    let _ = writeln!(out, "    --{} [{}]--> {}", ev.name, attrs, self.states[to]);
                }
            }
        }
        out
    }
}

/// Error: an event fired from a state with no such transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IllegalTransition {
    /// The agent in which the violation happened.
    pub agent: String,
    /// The state the agent was in.
    pub state: String,
    /// The event that was attempted.
    pub event: String,
}

impl fmt::Display for IllegalTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "agent {}: event {} is not enabled in state {}",
            self.agent, self.event, self.state
        )
    }
}

impl std::error::Error for IllegalTransition {}

/// Builder for [`TaskAgent`].
pub struct TaskAgentBuilder {
    name: String,
    states: Vec<String>,
    events: Vec<(String, EventAttrs)>,
    transitions: Vec<(StateIx, EventIx, StateIx)>,
}

impl TaskAgentBuilder {
    /// Add a state; the first added state is initial.
    pub fn state(mut self, name: &str) -> Self {
        assert!(!self.states.iter().any(|s| s == name), "duplicate state {name}");
        self.states.push(name.to_owned());
        self
    }

    /// Declare a significant event.
    pub fn event(mut self, name: &str, attrs: EventAttrs) -> Self {
        assert!(!self.events.iter().any(|(n, _)| n == name), "duplicate event {name}");
        self.events.push((name.to_owned(), attrs));
        self
    }

    /// Add a transition `from --event--> to` (all by name).
    pub fn transition(mut self, from: &str, event: &str, to: &str) -> Self {
        let f = self.states.iter().position(|s| s == from).expect("unknown from-state");
        let t = self.states.iter().position(|s| s == to).expect("unknown to-state");
        let e = self.events.iter().position(|(n, _)| n == event).expect("unknown event");
        self.transitions.push((f, e, t));
        self
    }

    /// Finish, registering each event as `"<agent>.<event>"` in `table`.
    pub fn build(self, table: &mut SymbolTable) -> TaskAgent {
        assert!(!self.states.is_empty(), "agent needs at least one state");
        let events = self
            .events
            .into_iter()
            .map(|(name, attrs)| {
                let literal = table.event(&format!("{}.{}", self.name, name));
                AgentEvent { name, literal, attrs }
            })
            .collect();
        TaskAgent {
            name: self.name,
            states: self.states,
            events,
            transitions: self.transitions,
            current: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple(table: &mut SymbolTable) -> TaskAgent {
        TaskAgent::builder("t")
            .state("init")
            .state("run")
            .state("done")
            .event("start", EventAttrs::triggerable())
            .event("finish", EventAttrs::controllable())
            .transition("init", "start", "run")
            .transition("run", "finish", "done")
            .build(table)
    }

    #[test]
    fn builder_wires_states_and_events() {
        let mut t = SymbolTable::new();
        let a = simple(&mut t);
        assert_eq!(a.states.len(), 3);
        assert_eq!(a.events.len(), 2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.name(a.events[0].literal.symbol()), Some("t.start"));
    }

    #[test]
    fn fire_follows_transitions() {
        let mut t = SymbolTable::new();
        let mut a = simple(&mut t);
        let start = a.event_named("start").unwrap();
        let finish = a.event_named("finish").unwrap();
        assert_eq!(a.available(), vec![start]);
        assert!(a.can_fire(start));
        assert!(!a.can_fire(finish));
        a.fire(start).unwrap();
        assert_eq!(a.available(), vec![finish]);
        a.fire(finish).unwrap();
        assert!(a.is_terminal());
    }

    #[test]
    fn illegal_transition_reports_context() {
        let mut t = SymbolTable::new();
        let mut a = simple(&mut t);
        let finish = a.event_named("finish").unwrap();
        let err = a.fire(finish).unwrap_err();
        assert_eq!(err.state, "init");
        assert_eq!(err.event, "finish");
        assert!(err.to_string().contains("not enabled"));
    }

    #[test]
    #[should_panic(expected = "duplicate state")]
    fn duplicate_states_rejected() {
        let _ = TaskAgent::builder("x").state("a").state("a");
    }

    #[test]
    fn render_contains_attrs() {
        let mut t = SymbolTable::new();
        let a = simple(&mut t);
        let r = a.render();
        assert!(r.contains("triggerable"), "{r}");
        assert!(r.contains("(initial)"), "{r}");
        assert!(r.contains("(terminal)"), "{r}");
    }
}
