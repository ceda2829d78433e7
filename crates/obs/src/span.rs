//! The typed span/event model: what one record in the flight recorder says.
//!
//! Every [`TraceEvent`] is stamped with the virtual sim time, the node
//! (actor) and site it happened on, and an optional **causal parent**: the
//! span that was in scope when the record was made (usually the message
//! delivery being handled). Parent edges plus per-node program order (span
//! ids are allocated from one global monotone counter, and a node's records
//! are appended in execution order) make the record a happens-before DAG.

use std::borrow::Cow;
use std::fmt;

/// Virtual simulation time, identical to `sim::Time`.
pub type Time = u64;

/// Identifier of one recorded span/event.
///
/// Ids are allocated from a single monotone counter, so `a.id < b.id`
/// whenever `a` was recorded before `b` — program order within a node is
/// recoverable by sorting its records by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A literal of the alphabet `Γ`, decoupled from `event_algebra::Literal`
/// so this crate stays dependency-free.
///
/// Encodes `symbol << 1 | negated` — the same dense index
/// `event_algebra::Literal::index()` uses, so conversion is a cast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ObsLit(pub u32);

impl ObsLit {
    /// The positive literal for symbol `sym`.
    pub fn pos(sym: u32) -> ObsLit {
        ObsLit(sym << 1)
    }

    /// The complement literal for symbol `sym`.
    pub fn neg(sym: u32) -> ObsLit {
        ObsLit(sym << 1 | 1)
    }

    /// The symbol index.
    pub fn sym(self) -> u32 {
        self.0 >> 1
    }

    /// `true` if this is a complement (`ē`) literal.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// Render using a symbol-name table (`commit` / `~commit`); falls back
    /// to `e<id>` when the table is too short.
    pub fn name(self, symbols: &[String]) -> String {
        let base =
            symbols.get(self.sym() as usize).cloned().unwrap_or_else(|| format!("e{}", self.sym()));
        if self.is_neg() {
            format!("~{base}")
        } else {
            base
        }
    }
}

/// Outcome of one guard evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The guard is true on the current trace prefix — the event may fire.
    Enabled,
    /// Not yet true but still satisfiable — the attempt parks.
    Parked,
    /// No extension can satisfy a dependency — the attempt is rejected.
    Dead,
}

impl Verdict {
    /// Stable lower-case label used in JSON.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Enabled => "enabled",
            Verdict::Parked => "parked",
            Verdict::Dead => "dead",
        }
    }

    /// Inverse of [`Verdict::label`].
    pub fn from_label(s: &str) -> Option<Verdict> {
        match s {
            "enabled" => Some(Verdict::Enabled),
            "parked" => Some(Verdict::Parked),
            "dead" => Some(Verdict::Dead),
            _ => None,
        }
    }
}

/// One announced occurrence consumed by a guard evaluation: the literal
/// plus the global delivery sequence number and time of its establishment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fact {
    /// Global delivery sequence number of the establishing occurrence.
    pub seq: u64,
    /// The literal that occurred.
    pub lit: ObsLit,
    /// Virtual time of the establishing occurrence.
    pub at: Time,
}

/// What a recorded span says — the taxonomy covers the network, the
/// at-least-once transport, the per-symbol scheduler, promise rounds, and
/// the WAL (see DESIGN.md §6).
#[derive(Debug, Clone, PartialEq)]
pub enum SpanKind {
    // -- network (sim::net, sim::faults) --
    /// A message was accepted by the network for delivery.
    MsgSend {
        /// Sending node.
        from: u32,
        /// Receiving node.
        to: u32,
        /// Human-readable message discriminant (e.g. `announce`). Borrowed
        /// (`&'static`) on the runtime's recording path — send/deliver are
        /// the two highest-volume span kinds, and a per-span heap label
        /// shows up in the recorder-overhead benchmark; owned only when a
        /// recording is loaded back from JSON.
        label: Cow<'static, str>,
    },
    /// A message was delivered to its destination's handler.
    MsgDeliver {
        /// Sending node.
        from: u32,
        /// Receiving node.
        to: u32,
        /// Human-readable message discriminant.
        label: Cow<'static, str>,
    },
    /// The fault plan dropped a message on this link.
    FaultDrop {
        /// Sending node.
        from: u32,
        /// Receiving node.
        to: u32,
        /// The dropped message's discriminant, as `MsgSend` carries it.
        label: Cow<'static, str>,
    },
    /// The fault plan duplicated a message on this link.
    FaultDuplicate {
        /// Sending node.
        from: u32,
        /// Receiving node.
        to: u32,
        /// The duplicated message's discriminant.
        label: Cow<'static, str>,
    },
    /// The fault plan delayed a message by `by` ticks.
    FaultDelay {
        /// Sending node.
        from: u32,
        /// Receiving node.
        to: u32,
        /// Extra latency injected, in virtual ticks.
        by: u64,
    },
    /// A site partition swallowed a message.
    PartitionDrop {
        /// Sending node.
        from: u32,
        /// Receiving node.
        to: u32,
        /// The swallowed message's discriminant.
        label: Cow<'static, str>,
    },
    /// A delivery was dropped because the destination node was crashed.
    CrashDrop {
        /// The crashed destination node.
        node: u32,
    },
    /// A crashed node restarted (WAL replay follows).
    Restart {
        /// The restarting node.
        node: u32,
    },

    // -- at-least-once transport (dist::reliable) --
    /// First transmission of a sequence-numbered envelope.
    EnvSend {
        /// Destination node.
        to: u32,
        /// Per-(sender, receiver) envelope sequence number.
        seq: u64,
    },
    /// A retransmission after an ack timeout.
    EnvRetransmit {
        /// Destination node.
        to: u32,
        /// Envelope sequence number.
        seq: u64,
        /// Attempt count so far (1 = first retransmission).
        attempt: u32,
    },
    /// An ack was sent or processed for an envelope.
    EnvAck {
        /// The peer the ack travels to/from.
        peer: u32,
        /// Envelope sequence number being acknowledged.
        seq: u64,
    },
    /// A duplicate envelope was suppressed by receiver-side dedup.
    EnvDedupDrop {
        /// Originating node of the duplicate.
        from: u32,
        /// Envelope sequence number.
        seq: u64,
    },
    /// The transport gave up retransmitting an envelope.
    EnvGiveUp {
        /// Destination node.
        to: u32,
        /// Envelope sequence number.
        seq: u64,
    },

    // -- per-symbol scheduler (dist::actor) --
    /// An agent attempted its literal.
    Attempt {
        /// The attempted literal.
        lit: ObsLit,
    },
    /// One guard evaluation: verdict plus the announced facts consumed.
    GuardEval {
        /// The literal whose guard was evaluated.
        lit: ObsLit,
        /// The verdict on the current trace prefix.
        verdict: Verdict,
        /// Residual id: a fingerprint of the residual guard, equal for
        /// two evaluations of one recording that saw the same residual.
        residual: u32,
        /// The facts (announced occurrences) the evaluation consumed.
        facts: Vec<Fact>,
    },
    /// One residuation/FSM step of a single dependency tracker.
    DepStep {
        /// Index of the dependency within the workflow.
        dep: u32,
        /// The input literal folded into the residual.
        input: ObsLit,
        /// Post-step state id of the dependency's machine.
        state: u32,
        /// Whether the dependency is still satisfiable after the step.
        live: bool,
    },
    /// An announced fact was folded into this node's trackers.
    FactApplied {
        /// The fact's literal.
        lit: ObsLit,
        /// The fact's global delivery sequence number.
        seq: u64,
    },
    /// The literal occurred on this node.
    Occurred {
        /// The occurring literal.
        lit: ObsLit,
        /// Global delivery sequence number stamped on the occurrence.
        seq: u64,
        /// `true` if fired by mutual-promise acceptance rather than a
        /// plain guard flip.
        by_acceptance: bool,
    },
    /// An attempt parked awaiting further announcements.
    Parked {
        /// The parked literal.
        lit: ObsLit,
    },
    /// An attempt was rejected (guard dead).
    Rejected {
        /// The rejected literal.
        lit: ObsLit,
    },
    /// A parked attempt was re-triggered by new knowledge.
    Triggered {
        /// The re-triggered literal.
        lit: ObsLit,
    },

    // -- promise rounds --
    /// A promise round opened: `lit` asks peers to promise `for_lit`.
    PromiseOpen {
        /// The literal opening the round.
        lit: ObsLit,
        /// The peer literal whose promise is requested.
        for_lit: ObsLit,
    },
    /// This node granted a promise (`◇`) to a peer.
    PromiseGrant {
        /// The promised literal.
        lit: ObsLit,
        /// The requesting node.
        to: u32,
    },
    /// This node denied a promise request.
    PromiseDeny {
        /// The denied literal.
        lit: ObsLit,
        /// The requesting node.
        to: u32,
    },
    /// A promise round committed: mutual `◇` closed into an occurrence.
    PromiseCommit {
        /// The literal whose round committed.
        lit: ObsLit,
    },

    // -- write-ahead log (dist::exec / dist::wal) --
    /// A post-dedup message was appended to the node's WAL.
    WalAppend {
        /// Global delivery sequence number of the logged message.
        seq: u64,
    },
    /// A restart replayed `entries` WAL entries under their original
    /// delivery contexts.
    WalReplay {
        /// Number of entries replayed.
        entries: u64,
    },
}

impl SpanKind {
    /// Stable snake-case tag used in JSON and the Chrome export.
    pub fn tag(&self) -> &'static str {
        match self {
            SpanKind::MsgSend { .. } => "msg_send",
            SpanKind::MsgDeliver { .. } => "msg_deliver",
            SpanKind::FaultDrop { .. } => "fault_drop",
            SpanKind::FaultDuplicate { .. } => "fault_dup",
            SpanKind::FaultDelay { .. } => "fault_delay",
            SpanKind::PartitionDrop { .. } => "partition_drop",
            SpanKind::CrashDrop { .. } => "crash_drop",
            SpanKind::Restart { .. } => "restart",
            SpanKind::EnvSend { .. } => "env_send",
            SpanKind::EnvRetransmit { .. } => "env_rtx",
            SpanKind::EnvAck { .. } => "env_ack",
            SpanKind::EnvDedupDrop { .. } => "env_dedup",
            SpanKind::EnvGiveUp { .. } => "env_giveup",
            SpanKind::Attempt { .. } => "attempt",
            SpanKind::GuardEval { .. } => "guard_eval",
            SpanKind::DepStep { .. } => "dep_step",
            SpanKind::FactApplied { .. } => "fact_applied",
            SpanKind::Occurred { .. } => "occurred",
            SpanKind::Parked { .. } => "parked",
            SpanKind::Rejected { .. } => "rejected",
            SpanKind::Triggered { .. } => "triggered",
            SpanKind::PromiseOpen { .. } => "promise_open",
            SpanKind::PromiseGrant { .. } => "promise_grant",
            SpanKind::PromiseDeny { .. } => "promise_deny",
            SpanKind::PromiseCommit { .. } => "promise_commit",
            SpanKind::WalAppend { .. } => "wal_append",
            SpanKind::WalReplay { .. } => "wal_replay",
        }
    }

    /// `true` for span kinds the safety monitors and the causal audit's
    /// establisher check depend on: occurrences, fact applications, guard
    /// evaluations, promise-round phases, and the WAL. These are always
    /// recorded exactly; only the remaining kinds (transport envelope
    /// lifecycle, message traffic, scheduler bookkeeping, fault
    /// injections) are eligible for [`RecordConfig`] sampling.
    ///
    /// [`RecordConfig`]: crate::RecordConfig
    pub fn is_safety(&self) -> bool {
        matches!(
            self,
            SpanKind::Occurred { .. }
                | SpanKind::FactApplied { .. }
                | SpanKind::GuardEval { .. }
                | SpanKind::PromiseOpen { .. }
                | SpanKind::PromiseGrant { .. }
                | SpanKind::PromiseDeny { .. }
                | SpanKind::PromiseCommit { .. }
                | SpanKind::WalAppend { .. }
                | SpanKind::WalReplay { .. }
        )
    }

    /// One-line human rendering using a symbol-name table.
    pub fn describe(&self, symbols: &[String]) -> String {
        match self {
            SpanKind::MsgSend { from, to, label } => format!("send {label} n{from}->n{to}"),
            SpanKind::MsgDeliver { from, to, label } => format!("deliver {label} n{from}->n{to}"),
            SpanKind::FaultDrop { from, to, label } => {
                format!("fault: drop {label} n{from}->n{to}")
            }
            SpanKind::FaultDuplicate { from, to, label } => {
                format!("fault: duplicate {label} n{from}->n{to}")
            }
            SpanKind::FaultDelay { from, to, by } => format!("fault: delay n{from}->n{to} +{by}"),
            SpanKind::PartitionDrop { from, to, label } => {
                format!("partition drop {label} n{from}->n{to}")
            }
            SpanKind::CrashDrop { node } => format!("crash drop at n{node}"),
            SpanKind::Restart { node } => format!("restart n{node}"),
            SpanKind::EnvSend { to, seq } => format!("env send seq={seq} ->n{to}"),
            SpanKind::EnvRetransmit { to, seq, attempt } => {
                format!("env retransmit seq={seq} ->n{to} attempt={attempt}")
            }
            SpanKind::EnvAck { peer, seq } => format!("env ack seq={seq} peer=n{peer}"),
            SpanKind::EnvDedupDrop { from, seq } => format!("env dedup seq={seq} from=n{from}"),
            SpanKind::EnvGiveUp { to, seq } => format!("env give-up seq={seq} ->n{to}"),
            SpanKind::Attempt { lit } => format!("attempt {}", lit.name(symbols)),
            SpanKind::GuardEval { lit, verdict, facts, .. } => {
                let facts = facts
                    .iter()
                    .map(|f| format!("{}@{}", f.lit.name(symbols), f.seq))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!("guard({}) = {} [{facts}]", lit.name(symbols), verdict.label())
            }
            SpanKind::DepStep { dep, input, live, .. } => {
                let status = if *live { "live" } else { "dead" };
                format!("dep d{dep} / {} ({status})", input.name(symbols))
            }
            SpanKind::FactApplied { lit, seq } => {
                format!("apply fact {}@{seq}", lit.name(symbols))
            }
            SpanKind::Occurred { lit, seq, by_acceptance } => {
                let how = if *by_acceptance { " (by acceptance)" } else { "" };
                format!("occurred {}@{seq}{how}", lit.name(symbols))
            }
            SpanKind::Parked { lit } => format!("parked {}", lit.name(symbols)),
            SpanKind::Rejected { lit } => format!("rejected {}", lit.name(symbols)),
            SpanKind::Triggered { lit } => format!("triggered {}", lit.name(symbols)),
            SpanKind::PromiseOpen { lit, for_lit } => {
                format!("promise open {} for {}", lit.name(symbols), for_lit.name(symbols))
            }
            SpanKind::PromiseGrant { lit, to } => {
                format!("promise grant {} ->n{to}", lit.name(symbols))
            }
            SpanKind::PromiseDeny { lit, to } => {
                format!("promise deny {} ->n{to}", lit.name(symbols))
            }
            SpanKind::PromiseCommit { lit } => format!("promise commit {}", lit.name(symbols)),
            SpanKind::WalAppend { seq } => format!("wal append seq={seq}"),
            SpanKind::WalReplay { entries } => format!("wal replay {entries} entries"),
        }
    }
}

/// One record in the flight recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Globally monotone span id.
    pub id: SpanId,
    /// Causal parent: the span in scope when this record was made
    /// (typically the delivery being handled), or `None` for roots.
    pub parent: Option<SpanId>,
    /// Virtual sim time of the record.
    pub at: Time,
    /// Node (actor) the record belongs to.
    pub node: u32,
    /// Site the node lives on.
    pub site: u32,
    /// The typed payload.
    pub kind: SpanKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obslit_matches_literal_index_encoding() {
        assert_eq!(ObsLit::pos(3).0, 6);
        assert_eq!(ObsLit::neg(3).0, 7);
        assert!(ObsLit::neg(3).is_neg());
        assert!(!ObsLit::pos(3).is_neg());
        assert_eq!(ObsLit::neg(3).sym(), 3);
    }

    #[test]
    fn obslit_names_use_table() {
        let syms = vec!["buy.start".to_string(), "buy.commit".to_string()];
        assert_eq!(ObsLit::pos(1).name(&syms), "buy.commit");
        assert_eq!(ObsLit::neg(0).name(&syms), "~buy.start");
        assert_eq!(ObsLit::pos(9).name(&syms), "e9");
    }

    #[test]
    fn verdict_labels_roundtrip() {
        for v in [Verdict::Enabled, Verdict::Parked, Verdict::Dead] {
            assert_eq!(Verdict::from_label(v.label()), Some(v));
        }
        assert_eq!(Verdict::from_label("bogus"), None);
    }
}
