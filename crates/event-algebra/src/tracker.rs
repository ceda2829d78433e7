//! Following one dependency's residual while a workflow runs.
//!
//! The paper's mechanism is one machine per dependency (Section 3.3,
//! Figure 2), asked two questions: *is this event required?* (Section
//! 3.3(b), which drives triggering) and *does accepting it keep the
//! dependency satisfiable?* (Section 3.4). [`DepTracker`] is that
//! mechanism, and every scheduler in the workspace — the distributed
//! actors, both centralized baselines and the Section 5 scheduler for
//! parametrized dependencies — follows its dependencies through it; they
//! differ in where they put a dependency's tracker, not in how it is
//! followed.
//!
//! The tracker has two arms. The compiled one steps a precompiled
//! [`DependencyMachine`]: an occurrence is one transition-table lookup
//! and the questions read compile-time reachability tables. Every
//! distributed actor uses it. The symbolic one re-residuates the
//! expression tree on every occurrence; it is semantically identical
//! (`tests/tracker_props.rs` holds the arms to each other query for
//! query, on random and on fixed dependencies) and has two run-time
//! callers: the centralized symbolic baseline (`baseline::Engine::Symbolic`,
//! the paper's Section 3.3 scheduler) and Section 5's
//! `dist::param::DynamicScheduler`, whose dependencies are instantiated
//! while it runs.

use crate::expr::Expr;
use crate::machine::{DependencyMachine, StateId};
use crate::norm::normalize;
use crate::residue::{
    requires, residuate, satisfiable, satisfiable_avoiding, satisfiable_avoiding_all,
};
use crate::symbol::Literal;
use std::collections::BTreeSet;

/// One dependency's residual, advanced by the events that occur.
#[derive(Debug, Clone)]
pub enum DepTracker {
    /// Precompiled automaton plus its current state (the fast path).
    Machine {
        /// The dependency's residual machine: a handle on the shape the
        /// compiled workflow owns.
        machine: DependencyMachine,
        /// Current residual state.
        state: StateId,
    },
    /// The residual expression, reduced by tree residuation (the oracle).
    Symbolic {
        /// The normalized dependency (rebuild base for ordered replays).
        base: Expr,
        /// The current residual.
        residual: Expr,
    },
}

impl DepTracker {
    /// Track via a precompiled machine, starting at its initial state.
    pub fn compiled(machine: DependencyMachine) -> DepTracker {
        let state = machine.initial;
        DepTracker::Machine { machine, state }
    }

    /// Track symbolically, starting at the normal form of `dependency`.
    pub fn symbolic(dependency: &Expr) -> DepTracker {
        let base = normalize(dependency);
        DepTracker::Symbolic { residual: base.clone(), base }
    }

    /// Fold one occurrence into the residual.
    pub fn step(&mut self, lit: Literal) {
        match self {
            DepTracker::Machine { machine, state } => *state = machine.step(*state, lit),
            DepTracker::Symbolic { residual, .. } => *residual = residuate(residual, lit),
        }
    }

    /// Back to the unreduced dependency (for ordered replays).
    pub fn reset(&mut self) {
        match self {
            DepTracker::Machine { machine, state } => *state = machine.initial,
            DepTracker::Symbolic { base, residual } => *residual = base.clone(),
        }
    }

    /// `true` if the dependency is undecided and every satisfying
    /// completion contains `lit` — the Section 3.3(b) triggering test.
    pub fn requires(&self, lit: Literal) -> bool {
        match self {
            DepTracker::Machine { machine, state } => machine.requires_event(*state, lit),
            DepTracker::Symbolic { residual, .. } => {
                !residual.is_top() && !residual.is_zero() && requires(residual, lit)
            }
        }
    }

    /// `true` if accepting `lit` now keeps the dependency satisfiable —
    /// the Section 3.4 acceptance test.
    pub fn live_after(&self, lit: Literal) -> bool {
        match self {
            DepTracker::Machine { machine, state } => machine.may_accept(*state, lit),
            DepTracker::Symbolic { residual, .. } => satisfiable(&residuate(residual, lit)),
        }
    }

    /// [`DepTracker::live_after`] in a future where no literal of `avoid`
    /// ever occurs. With `avoid` the complements of the *inevitable*
    /// events (those a task guarantees to perform, like the exit of an
    /// entered critical section), this is Section 3.4's test restricted
    /// to the completions consistent with those guarantees.
    pub fn live_after_avoiding(&self, lit: Literal, avoid: &BTreeSet<Literal>) -> bool {
        match self {
            DepTracker::Machine { machine, state } => {
                machine.may_reach_avoiding_all(machine.step(*state, lit), avoid)
            }
            DepTracker::Symbolic { residual, .. } => {
                satisfiable_avoiding_all(&residuate(residual, lit), avoid)
            }
        }
    }

    /// `true` if some satisfying completion from here contains `lit`, now
    /// or later. When none does, `lit` is *dead*: it can never be
    /// accepted, so its complement is forced. (A residual that is
    /// unsatisfiable right after `lit` only means *not yet*.)
    pub fn may_contain(&self, lit: Literal) -> bool {
        match self {
            DepTracker::Machine { machine, state } => {
                machine.may_reach_avoiding(*state, lit.complement())
            }
            DepTracker::Symbolic { residual, .. } => {
                satisfiable_avoiding(residual, lit.complement())
            }
        }
    }

    /// The current residual as an expression (diagnostics and audits; the
    /// machine form materializes its state's stored expression).
    pub fn residual(&self) -> Expr {
        match self {
            DepTracker::Machine { machine, state } => machine.state(*state),
            DepTracker::Symbolic { residual, .. } => residual.clone(),
        }
    }

    /// `(state id, liveness)` of the current residual, for trace records.
    /// Symbolic trackers have no compiled state id and report 0.
    pub fn obs_state(&self) -> (u32, bool) {
        match self {
            DepTracker::Machine { machine, state } => (state.0, !machine.is_violated(*state)),
            DepTracker::Symbolic { residual, .. } => (0, !residual.is_zero()),
        }
    }
}

/// What a scheduler holding every dependency may do with an attempted
/// event ([`acceptance`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acceptance {
    /// Every dependency stays satisfiable: the event may occur now.
    Safe,
    /// Not now, but some satisfying completion of every dependency still
    /// contains the event: the attempt parks.
    Unsafe,
    /// No satisfying completion of some dependency ever contains the
    /// event: it is rejected and its complement occurs.
    Dead,
}

/// Section 3.4's acceptance test over all of a scheduler's dependencies:
/// may `lit` occur now, in a future that avoids every literal of `avoid`
/// (see [`DepTracker::live_after_avoiding`]; a scheduler without
/// guarantees passes the empty set)? `Safe` excludes `Dead` — the
/// completion that keeps a dependency satisfiable after `lit` contains
/// `lit` — so the order of the two tests does not matter.
pub fn acceptance(trackers: &[DepTracker], lit: Literal, avoid: &BTreeSet<Literal>) -> Acceptance {
    if trackers.iter().all(|t| t.live_after_avoiding(lit, avoid)) {
        Acceptance::Safe
    } else if trackers.iter().all(|t| t.may_contain(lit)) {
        Acceptance::Unsafe
    } else {
        Acceptance::Dead
    }
}
