//! A deterministic discrete-event message-passing network.
//!
//! This is the execution substrate standing in for the paper's distributed
//! actor prototype [15]: nodes (actors/agents) are placed on sites, and
//! messages between them experience configurable latencies — small within
//! a site, larger and jittered across sites. Delivery is driven by a
//! single virtual-time event queue with deterministic tie-breaking, so
//! every run is exactly reproducible from its seed while still exhibiting
//! genuine asynchrony (messages reorder across links).
//!
//! The queue is a calendar queue (`calendar`): a ring of 512 one-tick
//! buckets, found by a bitmap scan, plus an overflow heap for the rare
//! message due a full ring or more ahead. A send and a delivery each
//! touch one bucket, and the pop order is `(at, seq)` — the order a
//! binary heap over every in-flight message gives, which is what it
//! replaced (DESIGN.md §10).
//!
//! [`Network::step`] is the only event loop in the workspace: every
//! workflow instance on every entry point — solo, tenant fleet, parallel
//! fleet — is one `Network` run to quiescence, with faults, the
//! write-ahead log, the flight recorder and the fused monitors all
//! hanging off this one loop.
//!
//! A network outlives its runs. [`Network::reset`] returns everything the
//! network itself owns — queue, link clocks, clock, send sequence,
//! statistics, fault state, recorder, latency stream — to what
//! [`Network::new`] builds, every buffer kept, so the instances of a
//! fleet run one after another on the network their nodes were placed on
//! once; the nodes' own state is their owner's to reset
//! ([`Network::nodes_mut`]).

use crate::faults::{FaultPlan, FaultState, FaultStats, LinkDecision};
use crate::stats::NetStats;
use calendar::{Calendar, InFlight};
use obs::{FlightRecorder, SpanId, SpanKind};
use seeded::Rng;

mod calendar;

/// Address of a node (an actor or task agent) in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// A physical site; message latency depends on whether the endpoints
/// share a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub u32);

/// Virtual time, in abstract ticks.
pub type Time = u64;

/// How message latencies are sampled.
#[derive(Debug, Clone, Copy)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Fixed(Time),
    /// Uniform in `[min, max]` regardless of placement.
    Uniform {
        /// Minimum latency.
        min: Time,
        /// Maximum latency (inclusive).
        max: Time,
    },
    /// Intra-site messages take `local`; inter-site messages are uniform
    /// in `[remote_min, remote_max]` — the model used by the scalability
    /// experiments.
    PerHop {
        /// Latency within a site.
        local: Time,
        /// Minimum cross-site latency.
        remote_min: Time,
        /// Maximum cross-site latency (inclusive).
        remote_max: Time,
    },
}

impl Default for LatencyModel {
    fn default() -> LatencyModel {
        LatencyModel::PerHop { local: 1, remote_min: 10, remote_max: 20 }
    }
}

/// Network configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// RNG seed; two runs with equal seeds and inputs are identical.
    pub seed: u64,
    /// Latency sampling model. Whatever it samples, messages on the same
    /// (src, dst) link never overtake each other (per-link FIFO), as most
    /// transports guarantee; only a fault plan's jitter reorders them.
    pub latency: LatencyModel,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig { seed: 0xC0FFEE, latency: LatencyModel::default() }
    }
}

/// Context handed to a process while it handles a message: lets it send
/// messages, read the clock and record into the run's flight recorder.
pub struct Ctx<'a, M> {
    /// The node currently executing.
    pub self_id: NodeId,
    now: Time,
    delivery_seq: u64,
    outbox: &'a mut Vec<(NodeId, M, Time)>,
    /// The run's recorder, lent for this handler call; `None` when the
    /// run records nothing or the context was built by hand.
    lent: Option<Lent<'a>>,
}

/// The recorder as one handler call holds it: with the site of the node
/// handling, and the span the handler runs under.
struct Lent<'a> {
    recorder: &'a mut FlightRecorder,
    site: u32,
    /// The `MsgDeliver` or `Restart` span the network recorded before
    /// calling the handler.
    parent: Option<SpanId>,
}

impl<M> Ctx<'_, M> {
    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Global delivery sequence number of the message being handled —
    /// a total order consistent with virtual time, used to timestamp
    /// event occurrences unambiguously.
    pub fn delivery_seq(&self) -> u64 {
        self.delivery_seq
    }

    /// Send `msg` to `to` (delivery latency is sampled by the network).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push((to, msg, 0));
    }

    /// Send `msg` to `to` after an extra delay on top of the sampled
    /// network latency — used for timers and agent think time.
    pub fn send_after(&mut self, to: NodeId, msg: M, extra_delay: Time) {
        self.outbox.push((to, msg, extra_delay));
    }

    /// `true` when this handler's records are kept. Guard the
    /// construction of a costly span payload with it.
    #[inline]
    pub fn recording(&self) -> bool {
        self.lent.is_some()
    }

    /// Record `kind` now, for this node, under the span the handler runs
    /// under (its delivery, or its restart). Returns the new span's id,
    /// or `None` when nothing records.
    #[inline]
    pub fn rec(&mut self, kind: SpanKind) -> Option<SpanId> {
        let lent = self.lent.as_mut()?;
        Some(lent.recorder.record(self.now, self.self_id.0, lent.site, lent.parent, kind))
    }

    /// Record `kind` now, for this node, under `parent` instead.
    #[inline]
    pub fn rec_under(&mut self, parent: SpanId, kind: SpanKind) -> Option<SpanId> {
        let lent = self.lent.as_mut()?;
        Some(lent.recorder.record(self.now, self.self_id.0, lent.site, Some(parent), kind))
    }

    /// A context for the same handler call whose sends land in `outbox`:
    /// same node, clock, delivery sequence and recorder, records under
    /// the same span. What a layer that buffers its role's sends hands
    /// the role.
    pub fn child<'b>(&'b mut self, outbox: &'b mut Vec<(NodeId, M, Time)>) -> Ctx<'b, M> {
        let lent = self.lent.as_mut().map(|l| Lent { recorder: &mut *l.recorder, ..*l });
        Ctx { self_id: self.self_id, now: self.now, delivery_seq: self.delivery_seq, outbox, lent }
    }

    /// Construct a context manually — for test harnesses, exhaustive
    /// interleaving exploration and write-ahead-log replay, which drive
    /// [`Process`] nodes without a [`Network`]. It records nothing.
    pub fn manual(
        self_id: NodeId,
        now: Time,
        delivery_seq: u64,
        outbox: &mut Vec<(NodeId, M, Time)>,
    ) -> Ctx<'_, M> {
        Ctx { self_id, now, delivery_seq, outbox, lent: None }
    }
}

/// A message-driven process living on a node.
pub trait Process<M> {
    /// Handle one delivered message.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: M);

    /// Called when the node comes back from a crash (see
    /// [`FaultPlan::crash`]): volatile state is presumed lost, and the
    /// process should rebuild itself from durable storage and re-kick any
    /// in-flight work. The default is a no-op, which models a stateless
    /// node.
    fn on_restart(&mut self, _ctx: &mut Ctx<'_, M>) {}
}

/// How a [`Network::run_to_quiescence`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// No messages (or pending restarts) remained: the run converged.
    Quiescent,
    /// The step budget ran out with work still in flight — the run may or
    /// may not have converged, and downstream state is suspect.
    BudgetExhausted,
}

/// Result of [`Network::run_to_quiescence`]: how many deliveries happened
/// and whether the run actually converged or merely ran out of budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Deliveries (plus restarts) performed.
    pub steps: u64,
    /// Why the loop stopped.
    pub termination: Termination,
}

impl RunOutcome {
    /// `true` when the run converged rather than exhausting its budget.
    pub fn is_quiescent(&self) -> bool {
        self.termination == Termination::Quiescent
    }
}

/// The simulated network: owns the nodes, the event queue and the clock.
pub struct Network<M, P: Process<M>> {
    nodes: Vec<P>,
    sites: Vec<SiteId>,
    /// Each node's entry in `stats.per_site_deliveries`, found once here.
    site_slots: Vec<usize>,
    queue: Calendar<M>,
    time: Time,
    seq: u64,
    rng: Rng,
    config: SimConfig,
    /// Per-link FIFO clocks, an `n × n` table indexed by `from · n + to`.
    link_clock: Vec<Time>,
    /// The buffer every handler's sends land in, reused across deliveries.
    outbox: Vec<(NodeId, M, Time)>,
    stats: NetStats,
    faults: Option<FaultState>,
    /// The run's flight recorder, lent to every handler.
    recorder: Option<FlightRecorder>,
    label_fn: Option<fn(&M) -> &'static str>,
}

impl<M: Clone, P: Process<M>> Network<M, P> {
    /// Build a network from `(site, process)` pairs; node ids are assigned
    /// in order.
    pub fn new(config: SimConfig, nodes: impl IntoIterator<Item = (SiteId, P)>) -> Network<M, P> {
        let (sites, nodes): (Vec<SiteId>, Vec<P>) = nodes.into_iter().unzip();
        let stats = NetStats::for_sites(sites.iter().map(|s| s.0));
        let slot_of = |s: &SiteId| stats.per_site_deliveries.partition_point(|&(x, _)| x < s.0);
        let site_slots = sites.iter().map(slot_of).collect();
        // Room for a few messages in flight per node. The queue's slab
        // keeps whatever it grows to across `reset`, so a fleet's
        // instances on this network stop allocating here after the first.
        let n = nodes.len();
        Network {
            nodes,
            sites,
            site_slots,
            queue: Calendar::with_capacity(4 * n),
            time: 0,
            seq: 0,
            rng: Rng::seed_from_u64(config.seed),
            config,
            link_clock: vec![0; n * n],
            outbox: Vec::new(),
            stats,
            faults: None,
            recorder: None,
            label_fn: None,
        }
    }

    /// Return the network to the state [`Network::new`] leaves it in, for
    /// the next run over the same nodes: the queue (with whatever a
    /// budget-exhausted run left in it), the per-link FIFO clocks, the
    /// clock, the send sequence, the statistics, the installed fault plan
    /// and the recorder are cleared, and the latency stream restarts from
    /// `config.seed`. Every buffer keeps its capacity. The nodes are the
    /// caller's to reset ([`Network::nodes_mut`]); the network never looks
    /// inside them.
    pub fn reset(&mut self, config: SimConfig) {
        self.queue.clear();
        self.time = 0;
        self.seq = 0;
        self.rng = Rng::seed_from_u64(config.seed);
        self.config = config;
        self.link_clock.fill(0);
        self.outbox.clear();
        self.stats.clear();
        self.faults = None;
        self.recorder = None;
        self.label_fn = None;
    }

    /// Give the run a flight recorder. Every send, delivery, fault
    /// injection and restart is recorded from here on; `label` renders a
    /// message to a short discriminant for the `MsgSend`/`MsgDeliver`
    /// spans. Each handler is lent the recorder through its [`Ctx`], and
    /// what it records hangs off the delivery (or restart) that called it,
    /// as do the sends it makes.
    pub fn set_recorder(&mut self, recorder: FlightRecorder, label: fn(&M) -> &'static str) {
        self.recorder = Some(recorder);
        self.label_fn = Some(label);
    }

    /// Take the run's recorder out of the network: the run records
    /// nothing more.
    pub fn take_recorder(&mut self) -> Option<FlightRecorder> {
        self.recorder.take()
    }

    /// Record `kind` for `node` now, under `parent`, if the run records.
    fn rec(&mut self, node: NodeId, parent: Option<SpanId>, kind: SpanKind) -> Option<SpanId> {
        let site = self.site_of(node).0;
        Some(self.recorder.as_mut()?.record(self.time, node.0, site, parent, kind))
    }

    fn msg_label(&self, msg: &M) -> std::borrow::Cow<'static, str> {
        std::borrow::Cow::Borrowed(self.label_fn.map_or("msg", |f| f(msg)))
    }

    /// Install a fault plan; decisions are driven by the plan's own seed,
    /// so the latency stream is unaffected by whether faults are on.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(FaultState::new(plan));
    }

    /// Counters of what the fault layer did so far, if a plan is
    /// installed.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.faults.as_ref().map(|fs| &fs.stats)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The site of `node`.
    ///
    /// # Panics
    ///
    /// Panics, naming the id, when `node` is outside this network — an
    /// injection or a process addressed a node that does not exist.
    pub fn site_of(&self, node: NodeId) -> SiteId {
        match self.sites.get(node.0 as usize) {
            Some(&site) => site,
            None => {
                panic!("node id {} is outside this network of {} nodes", node.0, self.sites.len())
            }
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.time
    }

    /// Every node's process, by node id.
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Mutable access to every node's process, by node id.
    pub fn nodes_mut(&mut self) -> &mut [P] {
        &mut self.nodes
    }

    /// Immutable access to a node's process (for post-run inspection).
    pub fn node(&self, id: NodeId) -> &P {
        &self.nodes[id.0 as usize]
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn sample_latency(&mut self, from: NodeId, to: NodeId) -> Time {
        let lat = match self.config.latency {
            LatencyModel::Fixed(t) => t,
            LatencyModel::Uniform { min, max } => self.rng.random_range(min..=max),
            LatencyModel::PerHop { local, remote_min, remote_max } => {
                if self.site_of(from) == self.site_of(to) {
                    local
                } else {
                    self.rng.random_range(remote_min..=remote_max)
                }
            }
        };
        lat.max(1)
    }

    /// Inject a message from the outside world (e.g. a task agent's user
    /// request), delivered after sampled latency. Injected messages model
    /// the workload arriving, so the link-fault layer leaves them alone.
    pub fn inject(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.enqueue(from, to, msg, 0, true, None);
    }

    /// Inject a message with an extra delay on top of sampled latency:
    /// workload think-time arriving from the outside world. Fault-exempt
    /// like [`Network::inject`] (with `extra == 0` it is identical).
    pub fn inject_after(&mut self, from: NodeId, to: NodeId, msg: M, extra: Time) {
        self.enqueue(from, to, msg, extra, true, None);
    }

    /// Put `msg` on the wire; its spans hang off `parent`, the delivery
    /// or restart whose handler sent it (`None` for an injection).
    fn enqueue(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: M,
        extra: Time,
        exempt: bool,
        parent: Option<SpanId>,
    ) {
        // Self-sends are node-local timers, not network traffic: exempt
        // from link faults and partitions (a crashed node still loses
        // them, because delivery-time crash checks apply to everything).
        let bypass = exempt || from == to;
        let now = self.time;
        let (sf, st) = (self.site_of(from), self.site_of(to));
        let decision = match self.faults.as_mut() {
            Some(fs) if !bypass => {
                if fs.partitioned(sf, st, now) {
                    fs.stats.partition_dropped += 1;
                    let label = self.msg_label(&msg);
                    self.rec(
                        from,
                        parent,
                        SpanKind::PartitionDrop { from: from.0, to: to.0, label },
                    );
                    return;
                }
                fs.decide(from, to)
            }
            _ => LinkDecision { primary: Some(0), duplicate: None },
        };
        if self.recorder.is_some() && !bypass && self.faults.is_some() {
            match decision.primary {
                None => {
                    let label = self.msg_label(&msg);
                    self.rec(from, parent, SpanKind::FaultDrop { from: from.0, to: to.0, label });
                }
                Some(delay) if delay > 0 => {
                    let kind = SpanKind::FaultDelay { from: from.0, to: to.0, by: delay };
                    self.rec(from, parent, kind);
                }
                Some(_) => {}
            }
            if decision.duplicate.is_some() {
                let label = self.msg_label(&msg);
                self.rec(from, parent, SpanKind::FaultDuplicate { from: from.0, to: to.0, label });
            }
        }
        let Some(primary_delay) = decision.primary else {
            return;
        };
        match decision.duplicate {
            Some(dup_delay) => {
                self.schedule(from, to, msg.clone(), extra, primary_delay, parent);
                self.schedule(from, to, msg, extra, dup_delay, parent);
            }
            None => self.schedule(from, to, msg, extra, primary_delay, parent),
        }
    }

    fn schedule(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: M,
        extra: Time,
        fault_delay: Time,
        parent: Option<SpanId>,
    ) {
        let latency = self.sample_latency(from, to) + extra;
        let mut at = self.time + latency + fault_delay;
        // A fault-delayed copy is held "in the network" and released
        // late: it bypasses the FIFO clamp, which is exactly what makes
        // nonzero jitter produce reordering on FIFO links.
        if fault_delay == 0 {
            let clock = &mut self.link_clock[from.0 as usize * self.nodes.len() + to.0 as usize];
            at = at.max(*clock + 1);
            *clock = at;
        }
        let remote = self.site_of(from) != self.site_of(to);
        self.stats.record_send(remote, latency);
        self.seq += 1;
        let span = if self.recorder.is_some() {
            let kind = SpanKind::MsgSend { from: from.0, to: to.0, label: self.msg_label(&msg) };
            self.rec(from, parent, kind)
        } else {
            None
        };
        self.queue.push(self.time, InFlight { at, seq: self.seq, from, to, msg, span });
    }

    /// Deliver the next message, if any. Returns `false` when quiescent.
    /// Crash–restart windows from the fault plan are honoured here:
    /// messages due while their destination is down are dropped, and a
    /// pending restart fires (invoking [`Process::on_restart`]) before
    /// any delivery scheduled after it.
    pub fn step(&mut self) -> bool {
        loop {
            // Only a fault plan has restarts, so only then is the front's
            // tick worth finding twice.
            let (queue, now) = (&self.queue, self.time);
            let due = self.faults.as_ref().and_then(|fs| fs.due_restart(queue.peek_at(now)));
            if let Some((ix, node, at)) = due {
                self.perform_restart(ix, node, at);
                return true;
            }
            let Some(m) = self.queue.pop(self.time) else {
                return false;
            };
            self.time = self.time.max(m.at);
            if let Some(fs) = &mut self.faults {
                if fs.down(m.to, self.time) {
                    fs.stats.crash_dropped += 1;
                    self.rec(m.to, m.span, SpanKind::CrashDrop { node: m.to.0 });
                    continue;
                }
            }
            self.stats.record_delivery(self.site_slots[m.to.0 as usize]);
            let span = if self.recorder.is_some() {
                let label = self.msg_label(&m.msg);
                self.rec(m.to, m.span, SpanKind::MsgDeliver { from: m.from.0, to: m.to.0, label })
            } else {
                None
            };
            self.dispatch(m.to, span, |node, ctx| node.on_message(ctx, m.from, m.msg));
            return true;
        }
    }

    fn perform_restart(&mut self, ix: usize, node: NodeId, at: Time) {
        self.time = self.time.max(at);
        if let Some(fs) = &mut self.faults {
            fs.mark_restarted(ix);
        }
        let span = self.rec(node, None, SpanKind::Restart { node: node.0 });
        self.dispatch(node, span, |n, ctx| n.on_restart(ctx));
    }

    /// Run one of `node`'s handlers in a context lent the recorder under
    /// `span` (the delivery or restart that calls it), then put its sends
    /// on the wire under the same span, keeping the buffer for the next
    /// call.
    fn dispatch(
        &mut self,
        node: NodeId,
        span: Option<SpanId>,
        handler: impl FnOnce(&mut P, &mut Ctx<'_, M>),
    ) {
        let mut outbox = std::mem::take(&mut self.outbox);
        let site = self.site_of(node).0;
        let lent = self.recorder.as_mut().map(|recorder| Lent { recorder, site, parent: span });
        let delivery_seq = self.stats.delivered_total;
        let mut ctx =
            Ctx { self_id: node, now: self.time, delivery_seq, outbox: &mut outbox, lent };
        handler(&mut self.nodes[node.0 as usize], &mut ctx);
        for (to, msg, extra) in outbox.drain(..) {
            self.enqueue(node, to, msg, extra, false, span);
        }
        self.outbox = outbox;
    }

    /// Run until no work remains or `max_steps` deliveries happened.
    /// The returned [`RunOutcome`] says which: a budget-exhausted run is
    /// *not* evidence of convergence, and callers must check.
    pub fn run_to_quiescence(&mut self, max_steps: u64) -> RunOutcome {
        let mut steps = 0;
        while steps < max_steps {
            if !self.step() {
                return RunOutcome { steps, termination: Termination::Quiescent };
            }
            steps += 1;
        }
        let termination =
            if self.idle() { Termination::Quiescent } else { Termination::BudgetExhausted };
        RunOutcome { steps, termination }
    }

    /// `true` when nothing remains to do: no queued messages and no
    /// pending restarts. This is the convergence test
    /// [`Network::run_to_quiescence`] applies when its budget runs out;
    /// an external stepper driving [`Network::step`] itself uses it to
    /// report termination with exactly the same honesty.
    pub fn idle(&self) -> bool {
        self.queue.is_empty()
            && self.faults.as_ref().is_none_or(|fs| fs.due_restart(None).is_none())
    }

    /// Messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Consume the network, returning its nodes for post-run inspection.
    pub fn into_nodes(self) -> Vec<P> {
        self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};

    /// Echoes every `u64` message back, decremented, until zero.
    struct Countdown {
        received: Vec<(Time, u64)>,
    }

    impl Process<u64> for Countdown {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
            self.received.push((ctx.now(), msg));
            if msg > 0 {
                ctx.send(from, msg - 1);
            }
        }
    }

    fn two_nodes(config: SimConfig) -> Network<u64, Countdown> {
        Network::new(
            config,
            [
                (SiteId(0), Countdown { received: vec![] }),
                (SiteId(1), Countdown { received: vec![] }),
            ],
        )
    }

    #[test]
    fn ping_pong_terminates_and_counts() {
        let mut net = two_nodes(SimConfig::default());
        net.inject(NodeId(0), NodeId(1), 5);
        let out = net.run_to_quiescence(1_000);
        assert_eq!(out.steps, 6); // 5,4,3,2,1,0
        assert!(out.is_quiescent());
        assert_eq!(net.stats().sent_total, 6);
        assert_eq!(net.stats().delivered_total, 6);
        assert_eq!(net.node(NodeId(1)).received.len(), 3);
        assert_eq!(net.node(NodeId(0)).received.len(), 3);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let run = |seed| {
            let mut net =
                two_nodes(SimConfig { seed, latency: LatencyModel::Uniform { min: 1, max: 50 } });
            net.inject(NodeId(0), NodeId(1), 8);
            net.run_to_quiescence(1_000);
            (net.now(), net.node(NodeId(1)).received.clone())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0, "different seeds give different timings");
    }

    #[test]
    fn time_is_monotone_and_advances() {
        let mut net = two_nodes(SimConfig::default());
        net.inject(NodeId(0), NodeId(1), 3);
        let mut last = 0;
        while net.step() {
            assert!(net.now() >= last);
            last = net.now();
        }
        assert!(last > 0);
    }

    /// Records deliveries without replying.
    struct Sink {
        received: Vec<(Time, u64)>,
    }

    impl Process<u64> for Sink {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _from: NodeId, msg: u64) {
            self.received.push((ctx.now(), msg));
        }
    }

    fn two_sinks(config: SimConfig) -> Network<u64, Sink> {
        Network::new(
            config,
            [(SiteId(0), Sink { received: vec![] }), (SiteId(1), Sink { received: vec![] })],
        )
    }

    #[test]
    fn fifo_links_preserve_order() {
        let mut net =
            two_sinks(SimConfig { seed: 7, latency: LatencyModel::Uniform { min: 1, max: 100 } });
        // All messages flow node0 → node1 on one link: they must arrive in
        // injection order despite jittered latencies.
        for i in 0..20u64 {
            net.inject(NodeId(0), NodeId(1), 100 + i);
        }
        net.run_to_quiescence(10_000);
        let seen: Vec<u64> = net.node(NodeId(1)).received.iter().map(|&(_, m)| m).collect();
        assert_eq!(seen, (100..120).collect::<Vec<_>>());
    }

    #[test]
    fn per_hop_latency_distinguishes_sites() {
        let config = SimConfig {
            seed: 3,
            latency: LatencyModel::PerHop { local: 1, remote_min: 50, remote_max: 60 },
        };
        let mut net = Network::new(
            config,
            [
                (SiteId(0), Countdown { received: vec![] }),
                (SiteId(0), Countdown { received: vec![] }),
                (SiteId(1), Countdown { received: vec![] }),
            ],
        );
        net.inject(NodeId(0), NodeId(1), 0); // local
        net.inject(NodeId(0), NodeId(2), 0); // remote
        net.run_to_quiescence(10);
        let local_t = net.node(NodeId(1)).received[0].0;
        let remote_t = net.node(NodeId(2)).received[0].0;
        assert!(local_t <= 2, "local {local_t}");
        assert!(remote_t >= 50, "remote {remote_t}");
        assert_eq!(net.stats().sent_remote, 1);
        assert_eq!(net.stats().sent_total, 2);
    }

    #[test]
    fn quiescence_on_empty_queue() {
        let mut net = two_nodes(SimConfig::default());
        let out = net.run_to_quiescence(10);
        assert_eq!(out, RunOutcome { steps: 0, termination: Termination::Quiescent });
        assert!(!net.step());
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let mut net = two_nodes(SimConfig::default());
        net.inject(NodeId(0), NodeId(1), 100);
        let out = net.run_to_quiescence(3);
        assert_eq!(out.steps, 3);
        assert_eq!(out.termination, Termination::BudgetExhausted);
        assert!(!out.is_quiescent());
        // Exactly exhausting the budget on the last delivery still counts
        // as quiescent: nothing is left in flight.
        let mut net = two_nodes(SimConfig::default());
        net.inject(NodeId(0), NodeId(1), 2);
        let out = net.run_to_quiescence(3);
        assert_eq!(out, RunOutcome { steps: 3, termination: Termination::Quiescent });
    }

    #[test]
    fn delivery_seqs_are_unique_and_time_monotone() {
        /// Records `(now, delivery_seq)` without replying.
        struct SeqSink(Vec<(Time, u64)>);
        impl Process<u64> for SeqSink {
            fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _from: NodeId, _msg: u64) {
                self.0.push((ctx.now(), ctx.delivery_seq()));
            }
        }
        let config = SimConfig { seed: 3, latency: LatencyModel::Uniform { min: 1, max: 6 } };
        let mut net = Network::new(config, (0..4).map(|i| (SiteId(i), SeqSink(vec![]))));
        for i in 0..16u64 {
            net.inject_after(NodeId(0), NodeId((i % 4) as u32), i, i % 5);
        }
        assert!(net.run_to_quiescence(1_000).is_quiescent());
        let mut all: Vec<(Time, u64)> = net.into_nodes().into_iter().flat_map(|s| s.0).collect();
        all.sort_unstable_by_key(|&(_, q)| q);
        let seqs: Vec<u64> = all.iter().map(|&(_, q)| q).collect();
        assert_eq!(seqs, (1..=16).collect::<Vec<u64>>(), "delivery sequences are dense from 1");
        assert!(all.windows(2).all(|w| w[0].0 <= w[1].0), "seq order refines time order");
    }

    /// A process that addresses a node outside its network is a wiring
    /// bug; it must say which id, not die on a slice index.
    #[test]
    #[should_panic(expected = "node id 7 is outside this network of 2 nodes")]
    fn a_send_outside_the_network_names_the_id() {
        struct Stray;
        impl Process<u64> for Stray {
            fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _from: NodeId, msg: u64) {
                ctx.send(NodeId(7), msg);
            }
        }
        let mut net = Network::new(SimConfig::default(), [(SiteId(0), Stray), (SiteId(0), Stray)]);
        net.inject(NodeId(0), NodeId(1), 1);
        net.run_to_quiescence(10);
    }

    use crate::faults::FaultPlan;

    /// A reset network repeats a fresh one's run: same deliveries at the
    /// same times with the same sequence numbers and statistics, also
    /// after a run that ended with messages queued, faults installed and
    /// another seed.
    #[test]
    fn a_reset_network_runs_like_a_new_one() {
        let config = SimConfig { seed: 9, latency: LatencyModel::Uniform { min: 1, max: 40 } };
        let run = |net: &mut Network<u64, Countdown>| {
            net.inject(NodeId(0), NodeId(1), 9);
            net.inject_after(NodeId(1), NodeId(0), 4, 7);
            let outcome = net.run_to_quiescence(1_000);
            let received: Vec<_> = net.nodes().iter().map(|n| n.received.clone()).collect();
            (outcome, net.now(), net.stats().clone(), received)
        };
        let fresh = run(&mut two_nodes(config));

        let mut net = two_nodes(SimConfig { seed: 3, ..config });
        net.set_faults(FaultPlan::new(1).duplicate_rate(1.0).jitter(0, 30));
        net.inject(NodeId(0), NodeId(1), 50);
        let cut_short = net.run_to_quiescence(5);
        assert_eq!(cut_short.termination, Termination::BudgetExhausted);
        assert!(net.in_flight() > 0 && net.fault_stats().is_some());

        net.reset(config);
        assert!(net.idle() && net.now() == 0 && net.fault_stats().is_none());
        assert_eq!(net.stats(), two_nodes(config).stats());
        for node in net.nodes_mut() {
            node.received.clear();
        }
        assert_eq!(run(&mut net), fresh);
    }

    #[test]
    fn dropped_messages_never_arrive() {
        let mut net = two_sinks(SimConfig::default());
        net.set_faults(FaultPlan::new(9).drop_rate(1.0));
        for i in 0..10u64 {
            net.inject(NodeId(0), NodeId(1), i); // injection is exempt
        }
        net.run_to_quiescence(1_000);
        assert_eq!(net.node(NodeId(1)).received.len(), 10);

        // Node-to-node traffic is not exempt: replies all vanish.
        let mut net = two_nodes(SimConfig::default());
        net.set_faults(FaultPlan::new(9).drop_rate(1.0));
        net.inject(NodeId(0), NodeId(1), 5);
        let out = net.run_to_quiescence(1_000);
        assert_eq!(out.steps, 1, "only the injected message is delivered");
        assert_eq!(net.fault_stats().unwrap().dropped, 1);
    }

    /// On the first delivery, sends `count` messages to node 1.
    struct Burst {
        count: u64,
    }
    impl Process<u64> for Burst {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _from: NodeId, _msg: u64) {
            for i in 0..self.count {
                ctx.send(NodeId(1), i);
            }
        }
    }

    #[test]
    fn duplicates_arrive_twice() {
        // Injection is exempt; the burst relay's sends are node-to-node
        // and each is duplicated with certainty.
        let mut net = Network::new(
            SimConfig::default(),
            [
                (SiteId(0), BurstOrSink::Burst(Burst { count: 5 })),
                (SiteId(1), BurstOrSink::Sink(Sink { received: vec![] })),
            ],
        );
        net.set_faults(FaultPlan::new(4).duplicate_rate(1.0));
        net.inject(NodeId(1), NodeId(0), 0);
        net.run_to_quiescence(1_000);
        assert_eq!(net.fault_stats().unwrap().duplicated, 5);
        let BurstOrSink::Sink(sink) = net.node(NodeId(1)) else {
            panic!("node 1 is the sink");
        };
        assert_eq!(sink.received.len(), 10, "each of 5 sends arrives twice");
    }

    /// Either role, so one network can mix processes.
    enum BurstOrSink {
        Burst(Burst),
        Sink(Sink),
    }
    impl Process<u64> for BurstOrSink {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
            match self {
                BurstOrSink::Burst(b) => b.on_message(ctx, from, msg),
                BurstOrSink::Sink(s) => s.on_message(ctx, from, msg),
            }
        }
    }

    #[test]
    fn self_sends_bypass_link_faults() {
        /// Schedules itself a timer chain; link faults must not break it.
        struct Timer {
            fired: u32,
        }
        impl Process<u64> for Timer {
            fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _from: NodeId, msg: u64) {
                self.fired += 1;
                if msg > 0 {
                    ctx.send_after(ctx.self_id, msg - 1, 5);
                }
            }
        }
        let mut net = Network::new(SimConfig::default(), [(SiteId(0), Timer { fired: 0 })]);
        net.set_faults(FaultPlan::new(2).drop_rate(1.0).duplicate_rate(1.0));
        net.inject(NodeId(0), NodeId(0), 4);
        net.run_to_quiescence(100);
        assert_eq!(net.node(NodeId(0)).fired, 5);
        assert_eq!(net.fault_stats().unwrap().dropped, 0);
    }

    #[test]
    fn partition_blocks_then_heals() {
        let mut net = two_nodes(SimConfig { seed: 5, latency: LatencyModel::Fixed(1) });
        net.set_faults(FaultPlan::new(5).partition(SiteId(0), SiteId(1), 0, 50));
        net.inject(NodeId(0), NodeId(1), 3);
        net.run_to_quiescence(1_000);
        // The injected message arrives (exempt), but the reply at t≈2 is
        // cut by the partition.
        assert_eq!(net.node(NodeId(0)).received.len(), 0);
        assert_eq!(net.fault_stats().unwrap().partition_dropped, 1);

        // Same scenario after the heal time: full ping-pong completes.
        let mut net = two_nodes(SimConfig { seed: 5, latency: LatencyModel::Fixed(60) });
        net.set_faults(FaultPlan::new(5).partition(SiteId(0), SiteId(1), 0, 50));
        net.inject(NodeId(0), NodeId(1), 3);
        let out = net.run_to_quiescence(1_000);
        assert_eq!(out.steps, 4);
        assert_eq!(net.fault_stats().unwrap().partition_dropped, 0);
    }

    #[test]
    fn crashed_node_loses_messages_and_restart_hook_runs() {
        /// Counts deliveries; on restart announces itself to node 0.
        struct Phoenix {
            received: Vec<u64>,
            restarts: u32,
        }
        impl Process<u64> for Phoenix {
            fn on_message(&mut self, _ctx: &mut Ctx<'_, u64>, _from: NodeId, msg: u64) {
                self.received.push(msg);
            }
            fn on_restart(&mut self, ctx: &mut Ctx<'_, u64>) {
                self.restarts += 1;
                ctx.send(NodeId(0), 999);
            }
        }
        let config = SimConfig { seed: 1, latency: LatencyModel::Fixed(1) };
        let mut net = Network::new(
            config,
            [
                (SiteId(0), Phoenix { received: vec![], restarts: 0 }),
                (SiteId(1), Phoenix { received: vec![], restarts: 0 }),
            ],
        );
        net.set_faults(FaultPlan::new(0).crash(NodeId(1), 2, Some(100)));
        net.inject(NodeId(0), NodeId(1), 1); // arrives ~t=1, before crash
        net.inject(NodeId(0), NodeId(1), 2); // FIFO pushes to t=2: lost
        let out = net.run_to_quiescence(1_000);
        assert!(out.is_quiescent());
        assert_eq!(net.node(NodeId(1)).received, vec![1]);
        assert_eq!(net.node(NodeId(1)).restarts, 1);
        // The restart announcement reached node 0 after the restart time.
        assert_eq!(net.node(NodeId(0)).received, vec![999]);
        assert!(net.now() >= 100);
        let stats = net.fault_stats().unwrap();
        assert_eq!(stats.crash_dropped, 1);
        assert_eq!(stats.restarts, 1);
    }

    #[test]
    fn faulty_runs_are_deterministic_per_seed() {
        let run = |fault_seed| {
            let mut net = two_nodes(SimConfig {
                seed: 42,
                latency: LatencyModel::Uniform { min: 1, max: 30 },
            });
            net.set_faults(
                FaultPlan::new(fault_seed).drop_rate(0.2).duplicate_rate(0.2).jitter(0, 9),
            );
            net.inject(NodeId(0), NodeId(1), 12);
            net.run_to_quiescence(10_000);
            let stats = *net.fault_stats().unwrap();
            (net.now(), stats, net.node(NodeId(1)).received.clone())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "fault seed changes the run");
    }

    #[test]
    fn jitter_reorders_even_on_fifo_links() {
        // A burst of 30 node-to-node messages on a FIFO link with fixed
        // base latency: without jitter they arrive in order, with jitter
        // the fault-delayed copies bypass the FIFO clamp and overtake.
        let mut net = Network::new(
            SimConfig { seed: 11, latency: LatencyModel::Fixed(2) },
            [
                (SiteId(0), BurstOrSink::Burst(Burst { count: 30 })),
                (SiteId(1), BurstOrSink::Sink(Sink { received: vec![] })),
            ],
        );
        net.set_faults(FaultPlan::new(13).jitter(0, 40));
        net.inject(NodeId(1), NodeId(0), 0);
        net.run_to_quiescence(10_000);
        let BurstOrSink::Sink(sink) = net.node(NodeId(1)) else {
            panic!("node 1 is the sink");
        };
        let seen: Vec<u64> = sink.received.iter().map(|&(_, m)| m).collect();
        assert_eq!(seen.len(), 30, "nothing dropped, nothing duplicated");
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_ne!(seen, sorted, "expected at least one reordering");
        assert!(net.fault_stats().unwrap().delayed > 0);
    }

    /// A queued message as the reference sees it: `(at, seq, from, to)`.
    type Key = (Time, u64, NodeId, NodeId);

    /// Relays every message to one or two random nodes, some sends held
    /// back past the calendar's wheel, until its budget is spent; on a
    /// restart it pings node 0.
    struct Spray {
        rng: Rng,
        nodes: u32,
        left: u32,
    }

    impl Process<u64> for Spray {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _from: NodeId, msg: u64) {
            if self.left == 0 {
                return;
            }
            self.left -= 1;
            for _ in 0..self.rng.random_range(1..=2u32) {
                let to = NodeId(self.rng.random_range(0..self.nodes));
                let span = calendar::WHEEL as Time;
                let extra = match self.rng.random_range(0..10u32) {
                    0 => self.rng.random_range(span - 30..=span + 30),
                    1 => self.rng.random_range(0..=3 * span),
                    _ => self.rng.random_range(0..=4),
                };
                ctx.send_after(to, msg + 1, extra);
            }
        }

        fn on_restart(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.send(NodeId(0), 0);
        }
    }

    fn spray(config: SimConfig, nodes: u32, left: u32) -> Network<u64, Spray> {
        Network::new(
            config,
            (0..nodes).map(|i| {
                let rng = Rng::seed_from_u64(config.seed ^ u64::from(i));
                (SiteId(i % 2), Spray { rng, nodes, left })
            }),
        )
    }

    /// Step `net` at most `budget` times, holding its queue to a
    /// `BinaryHeap` kept here: before every step the restart horizon the
    /// network sees is the heap's front, and the messages a step takes
    /// off the queue (one delivery, after any crash-dropped ones) are the
    /// heap's next ones. Returns them in `(at, seq)` order, and how many
    /// messages were sent a full wheel turn or more ahead of the clock.
    fn step_against_heap<P: Process<u64>>(
        net: &mut Network<u64, P>,
        budget: usize,
    ) -> (Vec<Key>, usize) {
        let mut reference: BinaryHeap<Reverse<Key>> = BinaryHeap::new();
        let mut known: BTreeSet<u64> = BTreeSet::new();
        let (mut taken, mut far) = (Vec::new(), 0);
        for _ in 0..budget {
            for key in net.queue.entries() {
                if known.insert(key.1) {
                    far += usize::from(key.0 - net.now() >= calendar::WHEEL as Time);
                    reference.push(Reverse(key));
                }
            }
            assert_eq!(net.queue.peek_at(net.now()), reference.peek().map(|Reverse(k)| k.0));
            if !net.step() {
                assert!(reference.is_empty(), "an idle network left {} queued", reference.len());
                break;
            }
            let left: BTreeSet<u64> = net.queue.entries().iter().map(|k| k.1).collect();
            let gone = known.iter().filter(|seq| !left.contains(seq)).count();
            for _ in 0..gone {
                let Reverse(next) = reference.pop().expect("the reference holds what was taken");
                assert!(!left.contains(&next.1), "{next:?} is still queued, later ones are not");
                known.remove(&next.1);
                taken.push(next);
            }
        }
        (taken, far)
    }

    /// The calendar queue delivers what a binary heap would, through the
    /// network: random latencies and extra delays on both sides of the
    /// wheel span, with and without jitter,
    /// duplicates and drops.
    #[test]
    fn the_calendar_queue_delivers_in_binary_heap_order() {
        let span = calendar::WHEEL as Time;
        for seed in 0..12 {
            let latency = if seed % 2 == 0 {
                LatencyModel::Uniform { min: 1, max: span + 40 }
            } else {
                LatencyModel::PerHop { local: 1, remote_min: 10, remote_max: 20 }
            };
            let config = SimConfig { seed, latency };
            let mut net = spray(config, 5, 40);
            if seed % 4 < 2 {
                net.set_faults(
                    FaultPlan::new(seed).duplicate_rate(0.3).drop_rate(0.1).jitter(0, span + 100),
                );
            }
            net.inject(NodeId(0), NodeId(1), 0);
            net.inject_after(NodeId(2), NodeId(3), 0, 2 * span);
            let (taken, far) = step_against_heap(&mut net, 100_000);
            assert!(net.idle(), "seed {seed}");
            assert!(taken.len() > 100, "seed {seed}: only {} deliveries", taken.len());
            assert!(far > 5, "seed {seed}: {far} sends past the wheel");
        }
    }

    /// A restart due between queued messages fires exactly there: the
    /// horizon the network compares it with is the heap's front.
    #[test]
    fn a_restart_between_queued_messages_keeps_heap_order() {
        for seed in 0..8 {
            let config = SimConfig { seed, latency: LatencyModel::Uniform { min: 1, max: 60 } };
            let mut net = spray(config, 4, 60);
            net.set_faults(FaultPlan::new(seed).crash(NodeId(1), 40, Some(300)).jitter(0, 700));
            net.inject(NodeId(0), NodeId(1), 0);
            net.inject(NodeId(0), NodeId(2), 0);
            let (taken, _) = step_against_heap(&mut net, 100_000);
            let stats = *net.fault_stats().expect("faults installed");
            assert_eq!(stats.restarts, 1, "seed {seed}");
            assert!(taken.iter().any(|k| k.0 < 300) && taken.iter().any(|k| k.0 > 300));
        }
    }

    /// A reset with messages still queued leaves nothing of them behind:
    /// the next run is held to a fresh heap and repeats a new network's.
    #[test]
    fn a_reset_mid_run_empties_the_calendar() {
        let span = calendar::WHEEL as Time;
        let config = SimConfig { seed: 4, latency: LatencyModel::Uniform { min: 1, max: 90 } };
        let start = |net: &mut Network<u64, Spray>| {
            net.inject(NodeId(0), NodeId(1), 0);
            net.inject_after(NodeId(1), NodeId(2), 0, span + 3);
        };
        let mut fresh = spray(config, 3, 30);
        start(&mut fresh);
        let (whole, _) = step_against_heap(&mut fresh, 100_000);

        let mut net = spray(SimConfig { seed: 9, ..config }, 3, 30);
        net.set_faults(FaultPlan::new(2).duplicate_rate(0.5).jitter(0, 2 * span));
        start(&mut net);
        step_against_heap(&mut net, 40);
        assert!(net.in_flight() > 0, "the cut-short run left messages queued");
        net.reset(config);
        assert_eq!(net.in_flight(), 0);
        for (i, node) in net.nodes_mut().iter_mut().enumerate() {
            *node = Spray { rng: Rng::seed_from_u64(config.seed ^ i as u64), nodes: 3, left: 30 };
        }
        start(&mut net);
        assert_eq!(step_against_heap(&mut net, 100_000).0, whole);
    }

    /// Per-site counters are one entry per site the network places a node
    /// on, however sparse the site numbers, and publish exactly the
    /// `net.deliveries` series a map from site to count did: one per site
    /// with a delivery, none for a site without.
    #[test]
    fn sparse_sites_publish_the_series_a_map_would() {
        let config = SimConfig { seed: 2, latency: LatencyModel::Uniform { min: 1, max: 9 } };
        let sites = [1_000_000, 7, 7, 42];
        let run = |net: &mut Network<u64, Countdown>| {
            net.inject(NodeId(0), NodeId(1), 6);
            net.inject(NodeId(2), NodeId(0), 3);
            assert!(net.run_to_quiescence(1_000).is_quiescent());
        };
        let mut net =
            Network::new(config, sites.map(|site| (SiteId(site), Countdown { received: vec![] })));
        run(&mut net);
        let mut reference: BTreeMap<u32, u64> = BTreeMap::new();
        for (node, site) in net.nodes().iter().zip(sites) {
            if !node.received.is_empty() {
                *reference.entry(site).or_insert(0) += node.received.len() as u64;
            }
        }
        assert_eq!(reference.keys().copied().collect::<Vec<_>>(), [7, 1_000_000]);
        let stats = net.stats().clone();
        assert_eq!(crate::stats::tests::deliveries_series(&stats), reference);
        assert_eq!(stats.max_site_load(), reference.values().copied().max().unwrap());
        let sites_held: Vec<u32> = stats.per_site_deliveries.iter().map(|&(s, _)| s).collect();
        assert_eq!(sites_held, [7, 42, 1_000_000], "one entry per site, in site order");

        net.reset(config);
        assert_eq!(net.stats(), &NetStats::for_sites(sites), "zeroed, every site kept");
        for node in net.nodes_mut() {
            node.received.clear();
        }
        run(&mut net);
        assert_eq!(net.stats(), &stats, "a reset network counts the same deliveries again");
    }

    /// The dense link-clock table clamps like a map from link to clock:
    /// under a fixed latency every send is due at the later of its own
    /// tick and one past the last send on its link since the last reset.
    /// Random sends over every link (self-links included) and deliveries
    /// in between, with a reset halfway that leaves messages queued.
    #[test]
    fn the_fifo_clamp_matches_a_map_of_link_clocks() {
        let config = SimConfig { seed: 6, latency: LatencyModel::Fixed(3) };
        let nodes = 6u32;
        let mut net =
            Network::new(config, (0..nodes).map(|i| (SiteId(i % 3), Sink { received: vec![] })));
        let mut rng = Rng::seed_from_u64(17);
        let mut clocks: HashMap<(NodeId, NodeId), Time> = HashMap::new();
        let mut clamped = 0;
        for round in 0..2_000u64 {
            if round == 1_000 {
                assert!(net.in_flight() > 0, "the reset lands mid-run");
                net.reset(config);
                clocks.clear();
            }
            if rng.random_range(0..3u32) == 0 {
                net.step();
                continue;
            }
            let from = NodeId(rng.random_range(0..nodes));
            let to = NodeId(rng.random_range(0..nodes));
            let extra = rng.random_range(0..=12);
            let own = net.now() + 3 + extra;
            let clock = clocks.entry((from, to)).or_insert(0);
            let want = own.max(*clock + 1);
            *clock = want;
            clamped += usize::from(want > own);
            net.inject_after(from, to, round, extra);
            let newest = net.queue.entries().into_iter().max_by_key(|k| k.1).expect("just sent");
            assert_eq!((newest.0, newest.2, newest.3), (want, from, to), "send {round}");
        }
        assert!(clamped > 100, "only {clamped} sends were clamped");
    }

    /// A node whose handlers run `act` on the context they are handed,
    /// with the message's value (a restart passes [`RESTARTED`]).
    struct Scribe(fn(&mut Ctx<'_, u32>, u32));

    const RESTARTED: u32 = 100;

    impl Process<u32> for Scribe {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _from: NodeId, msg: u32) {
            (self.0)(ctx, msg);
        }
        fn on_restart(&mut self, ctx: &mut Ctx<'_, u32>) {
            (self.0)(ctx, RESTARTED);
        }
    }

    fn attempt(v: u32) -> SpanKind {
        SpanKind::Attempt { lit: obs::ObsLit::pos(v) }
    }

    /// Node 0 on site 0 and node 1 on site 3 running `act`, recorded, a
    /// `0` injected at node 1 and run to quiescence under `plan`: the
    /// recording's spans.
    fn record(act: fn(&mut Ctx<'_, u32>, u32), plan: Option<FaultPlan>) -> Vec<obs::TraceEvent> {
        let config = SimConfig { seed: 1, latency: LatencyModel::Fixed(1) };
        let mut net = Network::new(config, [(SiteId(0), Scribe(act)), (SiteId(3), Scribe(act))]);
        net.set_recorder(FlightRecorder::new(obs::RecordConfig::default()), |_| "n");
        if let Some(plan) = plan {
            net.set_faults(plan);
        }
        net.inject(NodeId(0), NodeId(1), 0);
        assert!(net.run_to_quiescence(100).is_quiescent());
        net.take_recorder().expect("recorded").take_events()
    }

    /// The `Attempt` spans of `events`, each with its parent.
    fn attempts(events: &[obs::TraceEvent]) -> Vec<(&obs::TraceEvent, &obs::TraceEvent)> {
        let by_id: HashMap<SpanId, &obs::TraceEvent> = events.iter().map(|e| (e.id, e)).collect();
        let parent = |e: &obs::TraceEvent| by_id[&e.parent.expect("a handler span has a parent")];
        events
            .iter()
            .filter(|e| matches!(e.kind, SpanKind::Attempt { .. }))
            .map(|e| (e, parent(e)))
            .collect()
    }

    #[test]
    fn handler_spans_hang_off_their_delivery_or_restart() {
        // Node 1 handles the `0` at t=1, tells node 0, crashes at t=5 and
        // on its restart at t=10 tells node 0 again.
        let act: fn(&mut Ctx<'_, u32>, u32) = |ctx, v| {
            ctx.rec(attempt(v));
            if v == 0 || v == RESTARTED {
                ctx.send(NodeId(0), v + 1);
            }
        };
        let events = record(act, Some(FaultPlan::new(0).crash(NodeId(1), 5, Some(10))));
        let handled = attempts(&events);
        assert_eq!(handled.len(), 4, "{events:?}");
        for (span, parent) in &handled {
            assert_eq!(span.at, parent.at);
            assert_eq!(span.site, if span.node == 1 { 3 } else { 0 });
            match parent.kind {
                SpanKind::MsgDeliver { to, .. } => assert_eq!(to, span.node),
                SpanKind::Restart { node } => {
                    assert_eq!((node, span.kind.clone()), (1, attempt(RESTARTED)));
                }
                ref other => panic!("{other:?} is no handler's span"),
            }
        }
        // A handler's sends hang off it too; the injection is a root.
        for e in &events {
            if let SpanKind::MsgSend { from, .. } = e.kind {
                let parent = e.parent.map(|p| &events.iter().find(|x| x.id == p).unwrap().kind);
                match parent {
                    None => assert_eq!(e.id, SpanId(0)),
                    Some(SpanKind::MsgDeliver { to, .. }) => assert_eq!(*to, from),
                    Some(SpanKind::Restart { node }) => assert_eq!(*node, from),
                    Some(other) => panic!("a send under {other:?}"),
                }
            }
        }
    }

    #[test]
    fn an_explicit_parent_wins() {
        let act: fn(&mut Ctx<'_, u32>, u32) = |ctx, v| {
            let first = ctx.rec(attempt(v)).expect("recording");
            ctx.rec_under(first, attempt(v + 1));
        };
        let events = record(act, None);
        let handled = attempts(&events);
        assert_eq!(handled.len(), 2);
        assert!(matches!(handled[0].1.kind, SpanKind::MsgDeliver { to: 1, .. }));
        assert_eq!(handled[1].1.id, handled[0].0.id);
        assert_eq!((handled[1].0.node, handled[1].0.site), (1, 3));
    }

    #[test]
    fn a_manual_context_records_nothing() {
        let act: fn(&mut Ctx<'_, u32>, u32) = |ctx, v| {
            assert!(ctx.recording());
            let mut out = Vec::new();
            let mut manual =
                Ctx::<u32>::manual(ctx.self_id, ctx.now(), ctx.delivery_seq(), &mut out);
            assert!(!manual.recording());
            assert_eq!(manual.rec(attempt(v)), None);
        };
        let events = record(act, None);
        assert_eq!(events.len(), 2, "the injection's send and delivery only: {events:?}");
        assert!(attempts(&events).is_empty());
    }

    #[test]
    fn a_child_context_records_under_the_delivery() {
        // The child's sends are the handler's to forward.
        let act: fn(&mut Ctx<'_, u32>, u32) = |ctx, v| {
            let mut out = Vec::new();
            {
                let mut child = ctx.child(&mut out);
                assert!(child.recording());
                child.rec(attempt(v));
                if v == 0 {
                    child.send(NodeId(0), 1);
                }
            }
            for (to, msg, _) in out {
                ctx.send(to, msg);
            }
        };
        let events = record(act, None);
        let handled = attempts(&events);
        assert_eq!(handled.len(), 2);
        for (span, parent) in handled {
            assert!(matches!(parent.kind, SpanKind::MsgDeliver { to, .. } if to == span.node));
            assert_eq!((span.at, span.site), (parent.at, if span.node == 1 { 3 } else { 0 }));
        }
    }
}
