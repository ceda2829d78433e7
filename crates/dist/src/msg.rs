//! The wire protocol of the distributed event-centric scheduler
//! (Sections 2 and 4.3).
//!
//! Three kinds of traffic flow through the network:
//!
//! 1. **agent ↔ actor** — permission requests for controllable events,
//!    notifications of immediate events, grants/rejections, and proactive
//!    triggers;
//! 2. **actor → actor** — `□e` occurrence announcements (Section 4.3);
//! 3. **actor ↔ actor consensus** — `◇e` promises (Example 11) and the
//!    not-yet agreement used for `¬e` guards.

use event_algebra::Literal;
use sim::Time;

/// Identifies one workflow instance of a fleet.
///
/// It names an [`Arrival`](crate::Arrival) and its
/// [`InstanceOutcome`](crate::InstanceOutcome), and keys the log slices
/// its slot publishes to a shared [`NodeStore`](crate::NodeStore). No wire message
/// carries it: an instance runs alone on its slot's network, which is
/// reset before the next one, so there is no foreign traffic to address
/// (DESIGN.md §9, "Isolation by construction"). Single-instance runs are
/// [`InstanceId::ROOT`], the `Default`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct InstanceId(pub u64);

impl InstanceId {
    /// The implicit instance of every single-instance run.
    pub const ROOT: InstanceId = InstanceId(0);
}

impl std::fmt::Display for InstanceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// A message of the scheduling protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// Executor → agent: start driving your script (carries no literal).
    Kick,

    // ----- agent → actor -----
    /// A task agent requests permission for a controllable event.
    Attempt {
        /// The event being attempted.
        lit: Literal,
    },
    /// A task agent reports an immediate (nonrejectable, nondelayable)
    /// event such as `abort`: the scheduler has no choice but to accept.
    Inform {
        /// The event that happened.
        lit: Literal,
    },

    // ----- actor → agent -----
    /// Permission granted: the event has (logically) occurred; the agent
    /// fires the transition.
    Granted {
        /// The attempted event.
        lit: Literal,
    },
    /// Permission permanently denied (the guard reduced to `0`).
    Rejected {
        /// The attempted event.
        lit: Literal,
    },
    /// The scheduler proactively causes a triggerable event
    /// (Section 3.3(b)).
    Trigger {
        /// The event to perform.
        lit: Literal,
    },

    // ----- actor → actor -----
    /// `□e`: the event occurred. Receivers order the facts they hear by
    /// the occurrence's sequence number — the "consistent view of the
    /// temporal order of events" of Section 6 — and drop a repeat by it.
    Announce {
        /// The occurred event.
        lit: Literal,
        /// Global occurrence sequence number.
        seq: u64,
    },
    /// Request: "promise `◇lit` so that `for_lit` may proceed"
    /// (Example 11's consensus).
    PromiseRequest {
        /// The event whose promise is requested.
        lit: Literal,
        /// The requester's event (the granter may assume `◇for_lit`).
        for_lit: Literal,
    },
    /// Grant of `◇lit`: the granter's event is now obligated to occur.
    PromiseGrant {
        /// The promised event.
        lit: Literal,
    },
    /// The promise cannot be given (the event is dead or cannot be
    /// guaranteed).
    PromiseDeny {
        /// The event whose promise was requested.
        lit: Literal,
    },
    /// Query: "has `lit`'s symbol resolved? if not, hold it until I
    /// decide" — the agreement protocol behind `¬f` guards.
    NotYetQuery {
        /// The event asked about.
        lit: Literal,
        /// The requester's event.
        for_lit: Literal,
    },
    /// `lit` has not occurred; its actor holds it pending `Release`.
    NotYetGrant {
        /// The queried event.
        lit: Literal,
    },
    /// The query is refused by symbol priority: the queried event's
    /// actor is itself waiting for a hold from the requester, and its
    /// symbol precedes the requester's. The requester re-queries when new
    /// facts arrive. (A decided event answers a query by its announcement
    /// alone.)
    NotYetDeny {
        /// The queried event.
        lit: Literal,
    },
    /// The requester of a hold has decided (occurred, died, or gave up):
    /// the held event may proceed.
    Release {
        /// The previously held event.
        lit: Literal,
    },

    // ----- reliability layer (at-least-once delivery) -----
    /// A protocol message wrapped in a sender-assigned per-link sequence
    /// number. The receiver acks every copy and delivers the payload at
    /// most once (dedup by `(sender, seq)`), so retransmission gives
    /// at-least-once transport with exactly-once *processing*.
    Seq {
        /// Sender-assigned sequence number, monotone per (sender,
        /// receiver) pair.
        seq: u64,
        /// The wrapped protocol message.
        inner: Box<Msg>,
    },
    /// Acknowledges receipt of the envelope with this sequence number
    /// (acks themselves are fire-and-forget: a lost ack just causes a
    /// retransmission, which is then deduplicated).
    Ack {
        /// The acknowledged sequence number.
        seq: u64,
    },
    /// Self-addressed retransmission timer, one per node: when it fires,
    /// every envelope still unacked past its deadline is resent with
    /// backoff, and the timer is re-armed for the earliest deadline left.
    RetryTimer {
        /// The deadline this timer was armed for. A timer that is not
        /// the one its node has armed — it outlived a crash, or a sooner
        /// deadline superseded it — is ignored.
        at: Time,
    },
}

impl Msg {
    /// A short static label naming this message's kind, used by the
    /// flight recorder to tag network spans. A [`Msg::Seq`] envelope
    /// reports its payload's kind (the envelope lifecycle has its own
    /// `env_*` span family).
    pub fn kind_label(&self) -> &'static str {
        match self {
            Msg::Kick => "kick",
            Msg::Attempt { .. } => "attempt",
            Msg::Inform { .. } => "inform",
            Msg::Granted { .. } => "granted",
            Msg::Rejected { .. } => "rejected",
            Msg::Trigger { .. } => "trigger",
            Msg::Announce { .. } => "announce",
            Msg::PromiseRequest { .. } => "promise_req",
            Msg::PromiseGrant { .. } => "promise_grant",
            Msg::PromiseDeny { .. } => "promise_deny",
            Msg::NotYetQuery { .. } => "notyet_query",
            Msg::NotYetGrant { .. } => "notyet_grant",
            Msg::NotYetDeny { .. } => "notyet_deny",
            Msg::Release { .. } => "release",
            Msg::Seq { inner, .. } => inner.kind_label(),
            Msg::Ack { .. } => "ack",
            Msg::RetryTimer { .. } => "retry_timer",
        }
    }

    /// The literal this message concerns (`None` for [`Msg::Kick`] and
    /// the transport-level variants; a [`Msg::Seq`] envelope defers to
    /// its payload).
    pub fn literal(&self) -> Option<Literal> {
        match self {
            Msg::Kick | Msg::Ack { .. } | Msg::RetryTimer { .. } => None,
            Msg::Seq { inner, .. } => inner.literal(),
            Msg::Attempt { lit }
            | Msg::Inform { lit }
            | Msg::Granted { lit }
            | Msg::Rejected { lit }
            | Msg::Trigger { lit }
            | Msg::Announce { lit, .. }
            | Msg::PromiseRequest { lit, .. }
            | Msg::PromiseGrant { lit }
            | Msg::PromiseDeny { lit }
            | Msg::NotYetQuery { lit, .. }
            | Msg::NotYetGrant { lit }
            | Msg::NotYetDeny { lit }
            | Msg::Release { lit } => Some(*lit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use event_algebra::{Literal, SymbolId};

    #[test]
    fn literal_extraction_covers_all_variants() {
        let l = Literal::pos(SymbolId(3));
        let msgs = [
            Msg::Attempt { lit: l },
            Msg::Inform { lit: l },
            Msg::Granted { lit: l },
            Msg::Rejected { lit: l },
            Msg::Trigger { lit: l },
            Msg::Announce { lit: l, seq: 1 },
            Msg::PromiseRequest { lit: l, for_lit: l.complement() },
            Msg::PromiseGrant { lit: l },
            Msg::PromiseDeny { lit: l },
            Msg::NotYetQuery { lit: l, for_lit: l.complement() },
            Msg::NotYetGrant { lit: l },
            Msg::NotYetDeny { lit: l },
            Msg::Release { lit: l },
            Msg::Seq { seq: 9, inner: Box::new(Msg::Announce { lit: l, seq: 1 }) },
        ];
        for m in msgs {
            assert_eq!(m.literal(), Some(l), "{m:?}");
        }
        assert_eq!(Msg::Kick.literal(), None);
        assert_eq!(Msg::Ack { seq: 1 }.literal(), None);
        assert_eq!(Msg::RetryTimer { at: 64 }.literal(), None);
        assert_eq!(
            Msg::Seq { seq: 1, inner: Box::new(Msg::Kick) }.literal(),
            None,
            "envelope defers to payload"
        );
    }

    /// Every queue slot, envelope box and retransmission buffer entry is
    /// one `Msg`: the widest variant is `Announce` (literal, tick,
    /// sequence number) and nothing may grow the enum past it.
    #[test]
    fn a_message_is_three_words() {
        assert!(std::mem::size_of::<Msg>() <= 24, "{}", std::mem::size_of::<Msg>());
    }
}
