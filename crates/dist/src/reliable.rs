//! At-least-once transport for the scheduling protocol.
//!
//! The paper's protocol (Sections 4.3 and 6) assumes every `□e`
//! announcement and every `◇e` promise message eventually arrives. Over a
//! lossy network that assumption is earned, not free: this module wraps
//! each cross-node protocol message in a sequence-numbered envelope
//! ([`Msg::Seq`]), acks every received envelope, retransmits unacked
//! envelopes on a backoff timer, and deduplicates deliveries by
//! `(sender, seq)` so the receiver processes each payload exactly once.
//!
//! At-least-once delivery plus exactly-once processing restores the
//! idealized-channel premise of Theorem 2's safety argument: a guard
//! evaluated against deduplicated, per-link-ordered announcements sees
//! the same fact stream it would see on a perfect network, just later.

use crate::msg::Msg;
use event_algebra::{SortedMap, SortedSet};
use obs::{NodeObs, SpanKind};
use sim::{Ctx, NodeId, Time};
use std::collections::BTreeMap;

/// Tuning knobs of the reliability layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliableConfig {
    /// Initial retransmission timeout, in virtual ticks. Should exceed
    /// one round trip at the configured latency model.
    pub rto: Time,
    /// Multiplier applied to the timeout after every retransmission.
    pub backoff: u32,
    /// Give up on an envelope after this many transmissions (the
    /// protocol treats a peer as unreachable; a healed partition within
    /// the retry horizon is survived, a permanent one is not masked).
    pub max_attempts: u32,
    /// How long a `◇` promise request may stay unanswered before the
    /// round is aborted and retried ([`Msg::PromiseExpire`]).
    pub promise_timeout: Time,
}

impl Default for ReliableConfig {
    fn default() -> ReliableConfig {
        ReliableConfig { rto: 64, backoff: 2, max_attempts: 12, promise_timeout: 512 }
    }
}

/// Per-node reliability state: outgoing sequence counters, the
/// retransmission buffer, and the receive-side dedup set — sorted
/// vectors, so [`Reliable::reset`] keeps their buffers for the next
/// instance the node serves.
#[derive(Debug, Default)]
pub struct Reliable {
    config: ReliableConfig,
    /// Next sequence number per receiver.
    next_seq: SortedMap<NodeId, u64>,
    /// Unacked envelopes: `(receiver, seq) → (payload, attempts so far)`.
    unacked: SortedMap<(NodeId, u64), (Msg, u32)>,
    /// `(sender, seq)` of every envelope already delivered.
    seen: SortedSet<(NodeId, u64)>,
    /// Envelopes abandoned after `max_attempts` transmissions.
    pub gave_up: u64,
    /// Duplicate envelopes suppressed.
    pub duplicates_suppressed: u64,
    /// Retransmissions performed.
    pub retransmissions: u64,
    /// Flight-recorder handle (off by default): envelope sends,
    /// retransmissions, acks, dedup drops and give-ups become trace spans
    /// when a recorder is attached.
    pub obs: NodeObs,
}

impl Reliable {
    /// Fresh state with the given tuning.
    pub fn new(config: ReliableConfig) -> Reliable {
        Reliable { config, ..Reliable::default() }
    }

    /// The active tuning.
    pub fn config(&self) -> ReliableConfig {
        self.config
    }

    /// Forget every envelope sent, awaited or seen and zero the counters:
    /// the state [`Reliable::new`] builds, with the recorder handle set
    /// since. A crash does this to a transport, and so does its slot
    /// moving on to the next instance.
    pub fn reset(&mut self) {
        self.next_seq.clear();
        self.unacked.clear();
        self.seen.clear();
        self.gave_up = 0;
        self.duplicates_suppressed = 0;
        self.retransmissions = 0;
    }

    /// Number of envelopes awaiting ack.
    pub fn pending(&self) -> usize {
        self.unacked.len()
    }

    /// Send `msg` to `to` under an envelope, arming the retransmission
    /// timer. Used for every cross-node protocol message. Returns the
    /// sequence number used, so callers can persist it durably (see
    /// [`restore_seqs`](Reliable::restore_seqs)).
    pub fn send(&mut self, ctx: &mut Ctx<'_, Msg>, to: NodeId, msg: Msg) -> u64 {
        let seq = self.next_seq.get_or_insert_with(to, || 0);
        *seq += 1;
        let seq = *seq;
        self.obs.rec(ctx.now(), SpanKind::EnvSend { to: to.0, seq });
        ctx.send(to, Msg::Seq { seq, inner: Box::new(msg.clone()) });
        self.unacked.insert((to, seq), (msg, 1));
        ctx.send_after(ctx.self_id, Msg::RetryTimer { to, seq }, self.config.rto);
        seq
    }

    /// Restore outgoing sequence counters from durable storage after a
    /// crash. A restarted sender that reused sequence numbers would have
    /// its fresh messages silently discarded by receivers' dedup sets, so
    /// counters must continue past every number ever used.
    pub fn restore_seqs(&mut self, seqs: BTreeMap<NodeId, u64>) {
        self.next_seq.clear();
        for (to, seq) in seqs {
            self.next_seq.insert(to, seq);
        }
    }

    /// Restore the receive-side dedup sets from durable storage after a
    /// crash (the write-ahead log records each processed message's
    /// envelope). Without this, a peer retransmitting a pre-crash
    /// envelope after the restart would pass dedup as a first delivery
    /// and the payload would be processed — and logged — a second time.
    pub fn restore_seen(&mut self, envelopes: impl IntoIterator<Item = (NodeId, u64)>) {
        for envelope in envelopes {
            self.seen.insert(envelope);
        }
    }

    /// Handle an incoming transport-level message. Returns:
    ///
    /// - `Some((payload, envelope_seq))` for a first-delivery envelope
    ///   (the caller processes the payload exactly once; the envelope
    ///   sequence — `None` for raw, unwrapped messages — is what durable
    ///   logs persist so [`restore_seen`](Reliable::restore_seen) can
    ///   rebuild dedup after a crash);
    /// - `None` for acks, retry timers and duplicate envelopes, which
    ///   are consumed entirely by the transport.
    pub fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        msg: Msg,
    ) -> Option<(Msg, Option<u64>)> {
        match msg {
            Msg::Seq { seq, inner } => {
                // Ack every copy: the sender may have missed earlier acks.
                ctx.send(from, Msg::Ack { seq });
                if self.seen.insert((from, seq)) {
                    Some((*inner, Some(seq)))
                } else {
                    self.duplicates_suppressed += 1;
                    self.obs.rec(ctx.now(), SpanKind::EnvDedupDrop { from: from.0, seq });
                    None
                }
            }
            Msg::Ack { seq } => {
                self.unacked.remove((from, seq));
                self.obs.rec(ctx.now(), SpanKind::EnvAck { peer: from.0, seq });
                None
            }
            Msg::RetryTimer { to, seq } => {
                self.retransmit(ctx, to, seq);
                None
            }
            other => Some((other, None)),
        }
    }

    fn retransmit(&mut self, ctx: &mut Ctx<'_, Msg>, to: NodeId, seq: u64) {
        let Some((msg, attempts)) = self.unacked.get_mut((to, seq)) else {
            return; // acked in the meantime
        };
        if *attempts >= self.config.max_attempts {
            self.unacked.remove((to, seq));
            self.gave_up += 1;
            self.obs.rec(ctx.now(), SpanKind::EnvGiveUp { to: to.0, seq });
            return;
        }
        *attempts += 1;
        let attempt = *attempts;
        let exponent = (*attempts - 1).min(16);
        let rto = self.config.rto.saturating_mul(u64::from(self.config.backoff).pow(exponent));
        self.obs.rec(ctx.now(), SpanKind::EnvRetransmit { to: to.0, seq, attempt });
        ctx.send(to, Msg::Seq { seq, inner: Box::new(msg.clone()) });
        self.retransmissions += 1;
        ctx.send_after(ctx.self_id, Msg::RetryTimer { to, seq }, rto);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use event_algebra::{Literal, SymbolId};
    use sim::Time;

    fn ctx_parts() -> Vec<(NodeId, Msg, Time)> {
        Vec::new()
    }

    fn announce(sym: u32) -> Msg {
        Msg::Announce { lit: Literal::pos(SymbolId(sym)), at: 1, seq: 1 }
    }

    fn env(seq: u64, inner: Msg) -> Msg {
        Msg::Seq { seq, inner: Box::new(inner) }
    }

    #[test]
    fn send_wraps_and_arms_timer() {
        let mut r = Reliable::new(ReliableConfig::default());
        let mut out = ctx_parts();
        let mut ctx = Ctx::manual(NodeId(0), 0, 0, &mut out);
        r.send(&mut ctx, NodeId(1), announce(3));
        assert_eq!(r.pending(), 1);
        assert_eq!(out.len(), 2, "envelope + timer");
        assert!(matches!(&out[0], (NodeId(1), Msg::Seq { seq: 1, .. }, 0)));
        assert!(matches!(&out[1], (NodeId(0), Msg::RetryTimer { to: NodeId(1), seq: 1 }, _)));
    }

    #[test]
    fn first_delivery_passes_then_duplicates_suppressed() {
        let mut r = Reliable::new(ReliableConfig::default());
        let env = env(5, announce(2));
        let mut out = ctx_parts();
        let mut ctx = Ctx::manual(NodeId(1), 0, 0, &mut out);
        let first = r.on_message(&mut ctx, NodeId(0), env.clone());
        assert_eq!(first, Some((announce(2), Some(5))));
        let second = r.on_message(&mut ctx, NodeId(0), env);
        assert_eq!(second, None);
        assert_eq!(r.duplicates_suppressed, 1);
        // Both copies were acked.
        let acks = out
            .iter()
            .filter(|(to, m, _)| *to == NodeId(0) && matches!(m, Msg::Ack { seq: 5 }))
            .count();
        assert_eq!(acks, 2);
    }

    #[test]
    fn ack_cancels_retransmission() {
        let mut r = Reliable::new(ReliableConfig::default());
        let mut out = ctx_parts();
        let mut ctx = Ctx::manual(NodeId(0), 0, 0, &mut out);
        r.send(&mut ctx, NodeId(1), announce(1));
        assert_eq!(r.on_message(&mut ctx, NodeId(1), Msg::Ack { seq: 1 }), None);
        assert_eq!(r.pending(), 0);
        // The timer still fires, but finds nothing to resend.
        out.clear();
        let mut ctx = Ctx::manual(NodeId(0), 100, 0, &mut out);
        assert_eq!(
            r.on_message(&mut ctx, NodeId(0), Msg::RetryTimer { to: NodeId(1), seq: 1 }),
            None
        );
        assert!(out.is_empty());
        assert_eq!(r.retransmissions, 0);
    }

    #[test]
    fn unacked_envelope_is_retransmitted_with_backoff() {
        let cfg = ReliableConfig { rto: 10, backoff: 3, max_attempts: 3, promise_timeout: 99 };
        let mut r = Reliable::new(cfg);
        let mut out = ctx_parts();
        let mut ctx = Ctx::manual(NodeId(0), 0, 0, &mut out);
        r.send(&mut ctx, NodeId(1), announce(1));
        out.clear();
        let mut ctx = Ctx::manual(NodeId(0), 10, 0, &mut out);
        r.on_message(&mut ctx, NodeId(0), Msg::RetryTimer { to: NodeId(1), seq: 1 });
        assert_eq!(r.retransmissions, 1);
        assert!(matches!(&out[0], (NodeId(1), Msg::Seq { seq: 1, .. }, 0)));
        // Backoff: the re-armed timer waits rto * backoff.
        assert!(matches!(&out[1], (NodeId(0), Msg::RetryTimer { .. }, 30)));
        // Third timer firing hits max_attempts and gives up.
        out.clear();
        let mut ctx = Ctx::manual(NodeId(0), 40, 0, &mut out);
        r.on_message(&mut ctx, NodeId(0), Msg::RetryTimer { to: NodeId(1), seq: 1 });
        assert_eq!(r.retransmissions, 2);
        out.clear();
        let mut ctx = Ctx::manual(NodeId(0), 130, 0, &mut out);
        r.on_message(&mut ctx, NodeId(0), Msg::RetryTimer { to: NodeId(1), seq: 1 });
        assert!(out.is_empty(), "gave up after max_attempts");
        assert_eq!(r.gave_up, 1);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn non_transport_messages_pass_through() {
        let mut r = Reliable::new(ReliableConfig::default());
        let mut out = ctx_parts();
        let mut ctx = Ctx::manual(NodeId(1), 0, 0, &mut out);
        assert_eq!(r.on_message(&mut ctx, NodeId(0), Msg::Kick), Some((Msg::Kick, None)));
        assert!(out.is_empty());
    }

    #[test]
    fn restored_seen_set_suppresses_precrash_retransmissions() {
        // Receiver processes envelope 4, crashes, and is rebuilt with the
        // dedup set restored from its log: the peer's retransmission of
        // envelope 4 must be acked but not re-delivered, while a genuinely
        // new envelope still passes.
        let mut r = Reliable::new(ReliableConfig::default());
        r.restore_seen([(NodeId(0), 4)]);
        let mut out = ctx_parts();
        {
            let mut ctx = Ctx::manual(NodeId(1), 200, 0, &mut out);
            let dup = env(4, announce(2));
            assert_eq!(r.on_message(&mut ctx, NodeId(0), dup), None, "pre-crash dup suppressed");
            assert_eq!(r.duplicates_suppressed, 1);
            let fresh = env(5, announce(3));
            assert_eq!(r.on_message(&mut ctx, NodeId(0), fresh), Some((announce(3), Some(5))));
        }
        assert!(
            out.iter().any(|(to, m, _)| *to == NodeId(0) && matches!(m, Msg::Ack { seq: 4 })),
            "duplicate still acked so the sender stops retransmitting"
        );
    }

    #[test]
    fn restored_seq_counters_continue_past_old_numbers() {
        let mut r = Reliable::new(ReliableConfig::default());
        let mut out = ctx_parts();
        let mut ctx = Ctx::manual(NodeId(0), 0, 0, &mut out);
        assert_eq!(r.send(&mut ctx, NodeId(1), announce(1)), 1);
        assert_eq!(r.send(&mut ctx, NodeId(1), announce(2)), 2);
        // Crash: volatile state lost, counters restored from storage.
        let mut r2 = Reliable::new(ReliableConfig::default());
        r2.restore_seqs(BTreeMap::from([(NodeId(1), 2)]));
        out.clear();
        let mut ctx = Ctx::manual(NodeId(0), 50, 0, &mut out);
        assert_eq!(r2.send(&mut ctx, NodeId(1), announce(3)), 3, "no reuse");
    }

    #[test]
    fn per_receiver_sequence_spaces_are_independent() {
        let mut r = Reliable::new(ReliableConfig::default());
        let mut out = ctx_parts();
        let mut ctx = Ctx::manual(NodeId(0), 0, 0, &mut out);
        r.send(&mut ctx, NodeId(1), announce(1));
        r.send(&mut ctx, NodeId(2), announce(2));
        r.send(&mut ctx, NodeId(1), announce(3));
        let seqs: Vec<(NodeId, u64)> = out
            .iter()
            .filter_map(|(to, m, _)| match m {
                Msg::Seq { seq, .. } => Some((*to, *seq)),
                _ => None,
            })
            .collect();
        assert_eq!(seqs, vec![(NodeId(1), 1), (NodeId(2), 1), (NodeId(1), 2)]);
    }
}
