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
//! evaluated against deduplicated announcements sees the same fact set
//! it would see on a perfect network, just later. Order is *not*
//! restored: a retransmitted envelope is processed after anything its
//! sender sent since on the same link, so the protocol above may rely on
//! every message arriving once, never on two arriving in the order they
//! were sent (announcements carry their own occurrence sequence; a
//! not-yet grant is used or released by whoever receives it — see
//! [`SymbolActor`](crate::SymbolActor)).
//!
//! This is the only layer that recovers a lost message. The actors above
//! it keep no timeouts: a request stays outstanding until its envelope,
//! and the answer's, get through.

use crate::msg::Msg;
use event_algebra::{SortedMap, SortedSet};
use obs::SpanKind;
use sim::{Ctx, NodeId, Time};

/// Tuning knobs of the reliability layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliableConfig {
    /// Initial retransmission timeout, in virtual ticks. Should exceed
    /// one round trip at the configured latency model, and the default 64
    /// does on the default network (a 10–20-tick remote hop: envelope and
    /// ack take at most 40). It does not under the standard fault plans'
    /// `jitter(0, 20)`, which stretches a remote hop to 10–40 ticks and a
    /// round trip to 80: an envelope whose ack is merely late is then
    /// resent. That is safe — the receiver acks the copy and drops it
    /// unprocessed — and costs one envelope, one ack and one dedup lookup
    /// each time (`transport.dedup_dropped`; the benchmark's
    /// `dist.reliable.dedup_dropped_per_msg` reads about 0.09 on
    /// `fleet_faulty`, duplicates the fault layer injects included).
    pub rto: Time,
    /// Multiplier applied to the timeout after every retransmission.
    pub backoff: u32,
    /// Give up on an envelope after this many transmissions (the
    /// protocol treats a peer as unreachable; a healed partition within
    /// the retry horizon is survived, a permanent one is not masked).
    pub max_attempts: u32,
}

impl Default for ReliableConfig {
    fn default() -> ReliableConfig {
        ReliableConfig { rto: 64, backoff: 2, max_attempts: 12 }
    }
}

impl ReliableConfig {
    /// When an envelope transmitted for the `attempts`-th time at `now`
    /// is due for the next transmission: `now + rto · backoff^(attempts-1)`.
    fn deadline(&self, now: Time, attempts: u32) -> Time {
        let exponent = (attempts - 1).min(16);
        now.saturating_add(self.rto.saturating_mul(u64::from(self.backoff).pow(exponent)))
    }
}

/// An envelope awaiting its ack.
#[derive(Debug)]
struct Unacked {
    /// The payload, kept for retransmission.
    msg: Msg,
    /// Transmissions so far.
    attempts: u32,
    /// The tick from which the next timer firing retransmits it (or gives
    /// up on it): the last transmission's tick plus `rto · backoff^k`.
    due: Time,
}

/// Per-node reliability state: outgoing sequence counters, the
/// retransmission buffer, and the receive-side dedup set — sorted
/// vectors, so [`Reliable::reset`] keeps their buffers for the next
/// instance the node serves.
///
/// | part | fields | a crash ([`Reliable::crash`]) |
/// |---|---|---|
/// | durable | `next_seq` | keeps it: a restarted sender that reused a number would have its fresh messages discarded by receivers' dedup sets |
/// | volatile | `unacked`, `seen`, `armed`, the counters | forgets it: peers' retransmissions and the resume step cover what was unacked, and `seen` is rebuilt from the write-ahead log ([`Reliable::restore_seen`]) |
#[derive(Debug, Default)]
pub struct Reliable {
    config: ReliableConfig,
    /// Last sequence number used per receiver. Durable: written in place
    /// on every send, so there is nothing to restore after a crash.
    next_seq: SortedMap<NodeId, u64>,
    /// Unacked envelopes by `(receiver, seq)`.
    unacked: SortedMap<(NodeId, u64), Unacked>,
    /// `(sender, seq)` of every envelope already delivered.
    seen: SortedSet<(NodeId, u64)>,
    /// The deadline the node's one [`Msg::RetryTimer`] in flight was sent
    /// for; `None` when no timer is armed.
    armed: Option<Time>,
    /// Envelopes abandoned after `max_attempts` transmissions.
    pub gave_up: u64,
    /// Duplicate envelopes suppressed.
    pub duplicates_suppressed: u64,
    /// Retransmissions performed.
    pub retransmissions: u64,
    /// Retransmission timers delivered to this node.
    pub timer_fires: u64,
    /// Of those, the ones that found nothing due: every envelope acked in
    /// time, or a timer that was not the armed one.
    pub timer_idle: u64,
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

    /// The state [`Reliable::new`] builds: what a slot moving on to the
    /// next instance does to a transport.
    pub fn reset(&mut self) {
        self.next_seq.clear();
        self.crash();
    }

    /// Lose the volatile part — every envelope awaited or seen, the armed
    /// timer, the counters — and keep the outgoing sequence counters (see
    /// the table on [`Reliable`]). A timer armed before the crash may
    /// still be delivered after it; it is no longer the armed one and is
    /// ignored.
    pub fn crash(&mut self) {
        self.unacked.clear();
        self.seen.clear();
        self.armed = None;
        self.gave_up = 0;
        self.duplicates_suppressed = 0;
        self.retransmissions = 0;
        self.timer_fires = 0;
        self.timer_idle = 0;
    }

    /// Number of envelopes awaiting ack.
    pub fn pending(&self) -> usize {
        self.unacked.len()
    }

    /// Put the node's timer in flight for deadline `at`.
    fn arm(&mut self, ctx: &mut Ctx<'_, Msg>, at: Time) {
        self.armed = Some(at);
        ctx.send_after(ctx.self_id, Msg::RetryTimer { at }, at.saturating_sub(ctx.now()));
    }

    /// Send `msg` to `to` under an envelope. Used for every cross-node
    /// protocol message. The retransmission timer is armed only when none
    /// is in flight for a deadline at least as early: a burst of sends
    /// shares one timer.
    pub fn send(&mut self, ctx: &mut Ctx<'_, Msg>, to: NodeId, msg: Msg) {
        let seq = self.next_seq.get_or_insert_with(to, || 0);
        *seq += 1;
        let seq = *seq;
        ctx.rec(SpanKind::EnvSend { to: to.0, seq });
        ctx.send(to, Msg::Seq { seq, inner: Box::new(msg.clone()) });
        let due = self.config.deadline(ctx.now(), 1);
        self.unacked.insert((to, seq), Unacked { msg, attempts: 1, due });
        if self.armed.is_none_or(|armed| due < armed) {
            self.arm(ctx, due);
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
                    ctx.rec(SpanKind::EnvDedupDrop { from: from.0, seq });
                    None
                }
            }
            Msg::Ack { seq } => {
                self.unacked.remove((from, seq));
                ctx.rec(SpanKind::EnvAck { peer: from.0, seq });
                None
            }
            Msg::RetryTimer { at } => {
                self.on_timer(ctx, at);
                None
            }
            other => Some((other, None)),
        }
    }

    /// The node's timer fired: retransmit — or, after `max_attempts`
    /// transmissions, give up on — every envelope due by now, in
    /// `(receiver, seq)` order, and re-arm for the earliest deadline
    /// left. With nothing unacked no timer stays armed; the next send
    /// arms one.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, at: Time) {
        self.timer_fires += 1;
        if self.armed != Some(at) {
            self.timer_idle += 1;
            return;
        }
        self.armed = None;
        let (now, config) = (ctx.now(), self.config);
        let mut idle = true;
        self.unacked.retain(|(to, seq), e| {
            if e.due > now {
                return true;
            }
            idle = false;
            if e.attempts >= config.max_attempts {
                self.gave_up += 1;
                ctx.rec(SpanKind::EnvGiveUp { to: to.0, seq });
                return false;
            }
            e.attempts += 1;
            e.due = config.deadline(now, e.attempts);
            ctx.rec(SpanKind::EnvRetransmit { to: to.0, seq, attempt: e.attempts });
            ctx.send(to, Msg::Seq { seq, inner: Box::new(e.msg.clone()) });
            self.retransmissions += 1;
            true
        });
        self.timer_idle += u64::from(idle);
        if let Some(due) = self.unacked.iter().map(|(_, e)| e.due).min() {
            self.arm(ctx, due);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use event_algebra::{Literal, SymbolId};
    use std::collections::BTreeMap;

    const ME: NodeId = NodeId(0);

    fn announce(sym: u32) -> Msg {
        Msg::Announce { lit: Literal::pos(SymbolId(sym)), seq: 1 }
    }

    fn env(seq: u64, inner: Msg) -> Msg {
        Msg::Seq { seq, inner: Box::new(inner) }
    }

    /// One transport driven by hand as node 0: handler calls at chosen
    /// ticks, and the node's self-addressed timers queued here and
    /// delivered exactly at the deadline they were sent for (a timer
    /// link without latency).
    struct Bench {
        r: Reliable,
        /// The `at` of every timer in flight.
        timers: Vec<Time>,
    }

    impl Bench {
        fn new(config: ReliableConfig) -> Bench {
            Bench { r: Reliable::new(config), timers: Vec::new() }
        }

        /// Run `f` as one handler call at `now`. Timers it sends are
        /// queued; the `(receiver, seq)` of every envelope it sends are
        /// returned in send order; beyond acks it sends nothing else.
        fn handler(
            &mut self,
            now: Time,
            f: impl FnOnce(&mut Reliable, &mut Ctx<'_, Msg>),
        ) -> Vec<(NodeId, u64)> {
            let mut out = Vec::new();
            f(&mut self.r, &mut Ctx::manual(ME, now, 0, &mut out));
            let mut envelopes = Vec::new();
            for (to, msg, extra) in out {
                match msg {
                    Msg::RetryTimer { at } => {
                        assert_eq!((to, now + extra), (ME, at), "a timer arrives at its deadline");
                        self.timers.push(at);
                    }
                    Msg::Seq { seq, .. } => envelopes.push((to, seq)),
                    Msg::Ack { .. } => {}
                    other => panic!("unexpected {other:?} to {to:?}"),
                }
            }
            envelopes
        }

        fn send(&mut self, now: Time, to: u32, sym: u32) -> Vec<(NodeId, u64)> {
            self.handler(now, |r, ctx| r.send(ctx, NodeId(to), announce(sym)))
        }

        fn ack(&mut self, now: Time, from: u32, seq: u64) {
            let timers = self.timers.len();
            let sent = self.handler(now, |r, ctx| {
                assert_eq!(r.on_message(ctx, NodeId(from), Msg::Ack { seq }), None);
            });
            assert!(sent.is_empty() && self.timers.len() == timers, "an ack sends nothing");
        }

        /// Deliver every queued timer whose deadline is `now`, one
        /// handler call each; returns the envelopes they resent.
        fn fire(&mut self, now: Time) -> Vec<(NodeId, u64)> {
            let mut resent = Vec::new();
            while let Some(ix) = self.timers.iter().position(|&at| at == now) {
                let at = self.timers.remove(ix);
                resent.extend(self.handler(now, |r, ctx| {
                    assert_eq!(r.on_message(ctx, ME, Msg::RetryTimer { at }), None);
                }));
            }
            resent
        }
    }

    #[test]
    fn send_wraps_and_arms_timer() {
        let mut r = Reliable::new(ReliableConfig::default());
        let mut out = Vec::new();
        let mut ctx = Ctx::manual(ME, 7, 0, &mut out);
        r.send(&mut ctx, NodeId(1), announce(3));
        assert_eq!(r.pending(), 1);
        assert_eq!(out.len(), 2, "envelope + timer");
        assert!(matches!(&out[0], (NodeId(1), Msg::Seq { seq: 1, .. }, 0)));
        assert!(matches!(&out[1], (ME, Msg::RetryTimer { at: 71 }, 64)), "due at now + rto");
    }

    #[test]
    fn a_burst_of_sends_arms_one_timer() {
        let mut bench = Bench::new(ReliableConfig::default());
        let sent = bench.handler(5, |r, ctx| {
            for k in 0..6 {
                r.send(ctx, NodeId(1 + k % 3), announce(k));
            }
        });
        assert_eq!(sent.len(), 6);
        assert_eq!(bench.timers, vec![69], "one timer, for the burst's deadline");
        // A later handler, the timer still in flight, arms none either.
        assert_eq!(bench.send(20, 2, 9), vec![(NodeId(2), 3)]);
        assert_eq!(bench.timers, vec![69]);
        assert_eq!(bench.r.pending(), 7);
    }

    #[test]
    fn ack_cancels_retransmission() {
        let mut bench = Bench::new(ReliableConfig::default());
        bench.handler(0, |r, ctx| {
            r.send(ctx, NodeId(1), announce(1));
            r.send(ctx, NodeId(2), announce(2));
        });
        bench.ack(30, 1, 1);
        bench.ack(31, 2, 1);
        assert_eq!(bench.r.pending(), 0);
        assert_eq!(bench.fire(64), vec![], "nothing to resend");
        assert!(bench.timers.is_empty() && bench.r.armed.is_none(), "and no timer re-armed");
        assert_eq!((bench.r.timer_fires, bench.r.timer_idle, bench.r.retransmissions), (1, 1, 0));
        // The next send starts the next timer.
        bench.send(100, 1, 3);
        assert_eq!(bench.timers, vec![164]);
    }

    #[test]
    fn the_timer_is_rearmed_for_the_earliest_deadline_left() {
        let mut bench = Bench::new(ReliableConfig::default());
        bench.send(0, 1, 1);
        bench.send(10, 1, 2);
        bench.send(25, 2, 3);
        bench.ack(40, 1, 1);
        bench.ack(50, 1, 2);
        assert_eq!(bench.fire(64), vec![], "the envelope it was armed for is acked");
        assert_eq!(bench.timers, vec![89], "(n2, 1), sent at 25, is what is left");
        assert_eq!(bench.fire(89), vec![(NodeId(2), 1)]);
        assert_eq!(bench.timers, vec![89 + 128], "retransmitted once: backoff");
        assert_eq!((bench.r.timer_fires, bench.r.timer_idle, bench.r.retransmissions), (2, 1, 1));
    }

    #[test]
    fn first_delivery_passes_then_duplicates_suppressed() {
        let mut r = Reliable::new(ReliableConfig::default());
        let env = env(5, announce(2));
        let mut out = Vec::new();
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
    fn unacked_envelope_is_retransmitted_with_backoff() {
        let cfg = ReliableConfig { rto: 10, backoff: 3, max_attempts: 3 };
        let mut bench = Bench::new(cfg);
        bench.send(0, 1, 1);
        assert_eq!(bench.fire(10), vec![(NodeId(1), 1)]);
        assert_eq!(bench.timers, vec![40], "backoff: the next deadline is rto * backoff away");
        assert_eq!(bench.fire(40), vec![(NodeId(1), 1)]);
        assert_eq!(bench.timers, vec![130]);
        assert_eq!(bench.r.retransmissions, 2);
        // Three transmissions made: the third firing gives up.
        assert_eq!(bench.fire(130), vec![]);
        assert_eq!((bench.r.gave_up, bench.r.pending()), (1, 0));
        assert!(bench.timers.is_empty(), "nothing left to guard");
        assert_eq!((bench.r.timer_fires, bench.r.timer_idle), (3, 0), "giving up is not idling");
    }

    /// The one timer against the rule it replaces — a timer per
    /// envelope, re-armed `rto · backoff^k` after its k-th firing: over
    /// a random schedule of bursts, acks and envelopes never acked
    /// (dropped), every retransmission and every give-up happens at the
    /// tick the per-envelope rule puts it, a tick's retransmissions
    /// leaving in `(receiver, seq)` order.
    #[test]
    fn one_timer_retransmits_at_the_ticks_a_timer_per_envelope_would() {
        seeded::check("one_timer_retransmits_at_the_ticks_a_timer_per_envelope_would", 48, |g| {
            let cfg = ReliableConfig {
                rto: g.range(1u64..7),
                backoff: g.range(1u32..4),
                max_attempts: g.range(1u32..5),
            };
            let mut bench = Bench::new(cfg);
            // The model: per unacked envelope, transmissions so far and
            // the tick its own timer fires next.
            let mut model: BTreeMap<(NodeId, u64), (u32, Time)> = BTreeMap::new();
            let mut gave_up = 0;
            let busy = 10 + 10 * g.size() as Time;
            // Past `busy` nothing is sent or acked; every envelope left
            // runs out of attempts within 6 * (1 + 3 + 9 + 27) ticks.
            for now in 0..busy + 250 {
                let mut due = Vec::new();
                model.retain(|&key, (attempts, at)| {
                    if *at != now {
                        return true;
                    }
                    if *attempts >= cfg.max_attempts {
                        gave_up += 1;
                        return false;
                    }
                    *attempts += 1;
                    *at = now + cfg.rto * u64::from(cfg.backoff).pow(*attempts - 1);
                    due.push(key);
                    true
                });
                assert_eq!(bench.fire(now), due, "tick {now}");
                assert_eq!(bench.r.gave_up, gave_up, "tick {now}");
                if now < busy {
                    let burst: Vec<u32> = (0..g.range(0u32..4)).map(|_| g.range(1u32..4)).collect();
                    let sent = bench.handler(now, |r, ctx| {
                        for &to in &burst {
                            r.send(ctx, NodeId(to), announce(to));
                        }
                    });
                    model.extend(sent.into_iter().map(|key| (key, (1, now + cfg.rto))));
                    let outstanding: Vec<(NodeId, u64)> = model.keys().copied().collect();
                    for (from, seq) in outstanding {
                        if g.range(0u32..4) == 0 {
                            bench.ack(now, from.0, seq);
                            model.remove(&(from, seq));
                        }
                    }
                }
                assert_eq!(bench.r.pending(), model.len(), "tick {now}");
            }
            assert!(model.is_empty(), "the horizon outlasts every envelope");
            assert!(bench.timers.is_empty() && bench.r.armed.is_none(), "no timer outlives them");
        });
    }

    #[test]
    fn non_transport_messages_pass_through() {
        let mut r = Reliable::new(ReliableConfig::default());
        let mut out = Vec::new();
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
        let mut out = Vec::new();
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
    fn a_crash_keeps_the_sequence_counters_and_forgets_the_rest() {
        let mut bench = Bench::new(ReliableConfig::default());
        assert_eq!(bench.send(0, 1, 1), vec![(NodeId(1), 1)]);
        assert_eq!(bench.send(0, 1, 2), vec![(NodeId(1), 2)]);
        assert_eq!(bench.send(0, 2, 3), vec![(NodeId(2), 1)]);
        bench.handler(3, |r, ctx| {
            assert!(r.on_message(ctx, NodeId(1), env(9, announce(4))).is_some());
            assert!(r.on_message(ctx, NodeId(1), env(9, announce(4))).is_none());
        });
        assert_eq!(bench.fire(64).len(), 3);
        bench.r.crash();
        let r = &bench.r;
        assert!(r.unacked.is_empty() && r.seen.is_empty() && r.armed.is_none());
        let counters =
            [r.gave_up, r.duplicates_suppressed, r.retransmissions, r.timer_fires, r.timer_idle];
        assert_eq!(counters, [0; 5]);
        // Sequence numbers continue past every one used before the crash:
        // receivers' dedup sets would discard a reused one.
        assert_eq!(bench.send(300, 1, 5), vec![(NodeId(1), 3)], "no reuse");
        assert_eq!(bench.send(300, 2, 6), vec![(NodeId(2), 2)], "no reuse");
        bench.r.reset();
        assert!(bench.r.next_seq.is_empty(), "a reset forgets them too: the next instance");
    }

    #[test]
    fn a_timer_that_outlived_a_crash_is_ignored_and_starts_no_second_chain() {
        let mut bench = Bench::new(ReliableConfig::default());
        bench.send(0, 1, 1); // arms the timer for 64
        bench.r.crash();
        // The restarted node sends again before the old timer lands.
        bench.send(40, 1, 2);
        assert_eq!(bench.timers, vec![64, 104], "the pre-crash timer is still in flight");
        assert_eq!(bench.fire(64), vec![], "not the armed one: ignored");
        assert_eq!(bench.timers, vec![104], "and it re-armed nothing");
        assert_eq!((bench.r.timer_fires, bench.r.timer_idle), (1, 1));
        assert_eq!(bench.fire(104), vec![(NodeId(1), 2)], "the live chain is untouched");
        assert_eq!(bench.timers, vec![104 + 128], "one timer in flight, as ever");
    }

    #[test]
    fn a_sooner_deadline_supersedes_the_armed_timer() {
        // All that is unacked is deep in backoff, so the armed deadline is
        // far off; a fresh envelope is due sooner and may not wait for it.
        let mut bench = Bench::new(ReliableConfig::default());
        bench.send(0, 1, 1);
        assert_eq!(bench.fire(64), vec![(NodeId(1), 1)]);
        assert_eq!(bench.timers, vec![192]);
        bench.send(70, 2, 2);
        assert_eq!(bench.timers, vec![192, 134]);
        assert_eq!(bench.fire(134), vec![(NodeId(2), 1)]);
        assert_eq!(bench.timers, vec![192, 192], "re-armed for the older envelope's deadline");
        assert_eq!(bench.fire(192), vec![(NodeId(1), 1)], "resent once, by whichever lands first");
        assert_eq!(bench.r.retransmissions, 3);
    }

    #[test]
    fn per_receiver_sequence_spaces_are_independent() {
        let mut bench = Bench::new(ReliableConfig::default());
        let sent = bench.handler(0, |r, ctx| {
            r.send(ctx, NodeId(1), announce(1));
            r.send(ctx, NodeId(2), announce(2));
            r.send(ctx, NodeId(1), announce(3));
        });
        assert_eq!(sent, vec![(NodeId(1), 1), (NodeId(2), 1), (NodeId(1), 2)]);
    }
}
