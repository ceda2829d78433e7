//! An instance is a state over a template: [`InstanceSlot`], the one way
//! an instance runs, and [`NetNode`], the fault-tolerance wrapper every
//! node of a slot sits in.
//!
//! A [`BuiltWorkflow`] is a template — guards, machines, routing and a
//! prototype of every node, compiled once and only read. A slot is that
//! prototype assembled for running: the nodes wrapped and placed on
//! their own [`Network`], the fused monitor armed beside them. Assembly
//! happens once; every instance after that is a *state* of the slot,
//! brought about by [`InstanceSlot::prepare`] — reset what the last
//! instance left, name the next one, inject its seed messages — and read
//! off by [`InstanceSlot::execute`]. A fleet worker keeps one slot per
//! template it has claimed and runs its share of the arrivals through
//! them; a solo run is a slot used once. Nothing in a warm slot's steady
//! state touches the allocator except the [`RunReport`] the caller keeps
//! (DESIGN.md §9 has the accounting).

use crate::actor::SymbolActor;
use crate::exec::{
    gated_literals, BuiltWorkflow, ExecConfig, Node, RunMetrics, RunReport, WorkflowSpec,
};
use crate::fleet::Arrival;
use crate::msg::{InstanceId, Msg};
use crate::reliable::Reliable;
use crate::wal::{NodeStore, WalEntry};
use event_algebra::{verdict, Literal, SortedMap, SymbolId, SymbolMap, Trace};
use monitor::WorkflowMonitor;
use obs::{FlightRecorder, MetricsSnapshot, RecordConfig, Recording, SpanKind};
use sim::{Ctx, FaultPlan, Network, NodeId, Process, SimConfig, SiteId, Time};
use std::sync::Arc;
use std::time::Instant;

/// A network node wrapped in the fault-tolerance machinery: an optional
/// at-least-once transport ([`Reliable`]) for every cross-node message the
/// wrapped role sends, and an optional write-ahead log from which the
/// role is rebuilt after a crash.
///
/// With both disabled it is a transparent passthrough — the role handles
/// messages on the real network context, with zero behavioral difference
/// from running the role directly.
pub struct NetNode {
    /// The wrapped protocol role.
    pub role: Node,
    pub(crate) reliable: Option<Reliable>,
    /// The node's stable storage, `Some` when the node logs ahead: its
    /// write-ahead-log slice for the instance it serves. It and the
    /// transport's outgoing sequence counters are all that survives a
    /// crash. Only this node reads or writes it while the instance runs,
    /// so it takes no lock; the slot publishes it when the instance ends.
    log: Option<Vec<WalEntry>>,
    /// Fused monitor handle: ticked at the start of every delivery and
    /// restart (the stall watchdog's sweep points — exactly where an
    /// offline replay of the recording sweeps on the `MsgDeliver` /
    /// `Restart` span, which the network records *before* invoking the
    /// handler).
    mon: Option<Arc<WorkflowMonitor>>,
    /// Where the role's sends wait for the transport to forward them;
    /// empty between deliveries.
    out: Vec<(NodeId, Msg, Time)>,
}

/// Every field as derived, except that the log shows as its entries, and
/// not at all on a node that keeps none.
impl std::fmt::Debug for NetNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("NetNode");
        d.field("role", &self.role).field("reliable", &self.reliable);
        if let Some(log) = &self.log {
            d.field("log", log);
        }
        d.field("mon", &self.mon).field("out", &self.out).finish()
    }
}

impl NetNode {
    /// Route one outgoing message: cross-node immediate sends go through
    /// the reliability layer (when enabled); self-sends are local timers
    /// and delayed sends are think-time — both stay raw.
    fn forward(&mut self, ctx: &mut Ctx<'_, Msg>, to: NodeId, msg: Msg, extra: Time) {
        match &mut self.reliable {
            Some(r) if to != ctx.self_id && extra == 0 => r.send(ctx, to, msg),
            Some(_) => {
                // Only self-addressed timers may stay raw: a *cross-node*
                // delayed send would silently skip the envelope and lose
                // its at-least-once protection. No role emits one today;
                // the assert keeps the invariant explicit.
                debug_assert!(
                    to == ctx.self_id,
                    "delayed cross-node send would bypass the at-least-once transport"
                );
                ctx.send_after(to, msg, extra);
            }
            None => ctx.send_after(to, msg, extra),
        }
    }

    /// Hand the role's buffered sends to the transport.
    fn forward_all(&mut self, ctx: &mut Ctx<'_, Msg>, mut out: Vec<(NodeId, Msg, Time)>) {
        for (to, m, extra) in out.drain(..) {
            self.forward(ctx, to, m, extra);
        }
        self.out = out;
    }

    /// Forget the instance served so far: transport and role are again as
    /// assembled.
    fn reset(&mut self) {
        if let Some(r) = &mut self.reliable {
            r.reset();
        }
        self.role.reset();
    }
}

impl Process<Msg> for NetNode {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        if let Some(m) = &self.mon {
            m.tick(ctx.now());
        }
        let (payload, env_seq) = match &mut self.reliable {
            Some(r) => match r.on_message(ctx, from, msg) {
                Some(p) => p,
                None => return, // ack, retry timer, or suppressed duplicate
            },
            None => (msg, None),
        };
        // Write-ahead: log every message the role actually processes
        // (post-dedup), with the delivery context it is processed under,
        // so a restart can replay exactly this stream — same payloads,
        // same times, same global delivery sequence numbers.
        if let Some(log) = &mut self.log {
            log.push(WalEntry {
                from,
                msg: payload.clone(),
                at: ctx.now(),
                delivery_seq: ctx.delivery_seq(),
                env_seq,
            });
            ctx.rec(SpanKind::WalAppend { seq: ctx.delivery_seq() });
        }
        if self.reliable.is_some() {
            let mut out = std::mem::take(&mut self.out);
            self.role.on_message(&mut ctx.child(&mut out), from, payload);
            self.forward_all(ctx, out);
        } else {
            self.role.on_message(ctx, from, payload);
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if let Some(m) = &self.mon {
            m.tick(ctx.now());
        }
        // Without stable storage there is nothing to come back from.
        let Some(log) = &self.log else {
            return;
        };
        // Volatile state is lost: the role is again the node as
        // assembled, before the log replays over it.
        self.role.reset();
        // Fresh transport state — but outgoing sequence counters, durable
        // in place, continue past every number ever used (or receivers'
        // dedup sets would silently discard the restarted node's new
        // messages), and the receive-side dedup sets are rebuilt from the
        // logged envelopes (or a peer retransmitting a pre-crash envelope
        // would pass as a first delivery and be processed — and logged —
        // twice). The slice is the node's stable storage, not volatile
        // state: it survives the crash.
        if let Some(r) = &mut self.reliable {
            r.crash();
            r.restore_seen(log.iter().filter_map(|e| e.env_seq.map(|s| (e.from, s))));
        }
        // Replay the write-ahead log to rebuild volatile protocol state.
        // Each entry is replayed under its *original* delivery context
        // (time and global sequence), so an occurrence decided during
        // replay is rebuilt with its pre-crash `(time, seq)` and the
        // resume step's re-announcement deduplicates at subscribers
        // instead of fabricating a fresh sequence number. Sends are
        // suppressed: everything the pre-crash node sent was either
        // delivered, or is covered by peers' retransmissions and the
        // resume step below. Replay re-derives state the recording and
        // the monitor already observed before the crash, which must be
        // neither re-recorded nor re-stepped: its contexts are built by
        // hand, so they record nothing, and the monitor stays detached.
        let mon = match &mut self.role {
            Node::Actor(a) => a.mon.take(),
            _ => None,
        };
        let mut out = std::mem::take(&mut self.out);
        for e in log {
            let mut inner = Ctx::manual(ctx.self_id, e.at, e.delivery_seq, &mut out);
            self.role.on_message(&mut inner, e.from, e.msg.clone());
        }
        out.clear();
        if let Node::Actor(a) = &mut self.role {
            a.mon = mon;
        }
        ctx.rec(SpanKind::WalReplay { entries: log.len() as u64 });
        // Re-kick in-flight work under the restart; outputs go through the
        // transport.
        {
            let mut inner = ctx.child(&mut out);
            match &mut self.role {
                Node::Actor(a) => a.resume_after_restart(&mut inner),
                Node::Agent(a) => a.resume(&mut inner),
            }
        }
        self.forward_all(ctx, out);
    }
}

/// What a finished instance totals up besides its report: the transport
/// counters summed over its nodes, and the host time its event loop took.
#[derive(Debug, Clone, Copy, Default)]
pub struct InstanceTotals {
    /// Envelopes retransmitted.
    pub retransmissions: u64,
    /// Duplicate envelopes suppressed on receipt.
    pub dedup_dropped: u64,
    /// Envelopes abandoned after the last retransmission.
    pub gave_up: u64,
    /// Retransmission timers delivered.
    pub timer_fires: u64,
    /// Of those, the ones that found nothing due.
    pub timer_idle: u64,
    /// Nanoseconds inside [`Network::run_to_quiescence`].
    pub run_ns: u64,
}

/// One template assembled for running, and whichever instance of it is
/// being run — see the module docs.
///
/// What the slot owns: the wrapped nodes inside their [`Network`], the
/// armed [`WorkflowMonitor`], and the scratch the report is assembled
/// with. What it borrows: the spec and the [`BuiltWorkflow`] compiled
/// from it, shared read-only with every other slot of the template —
/// across worker threads too, which is why nothing in there is
/// reference-counted per instance.
pub struct InstanceSlot<'t> {
    spec: &'t WorkflowSpec,
    built: &'t BuiltWorkflow,
    net: Network<Msg, NetNode>,
    mon: Option<Arc<WorkflowMonitor>>,
    /// Where each node's WAL slice is published when an instance ends (a
    /// store shared across the run, possibly across a whole fleet), when
    /// the nodes log ahead.
    store: Option<NodeStore>,
    /// The instance being run: it keys the slices published to `store`.
    instance: InstanceId,
    /// The fleet's network parameters; every instance brings its seed.
    sim: SimConfig,
    record: Option<RecordConfig>,
    max_steps: u64,
    /// An instance has run here: the next one starts with a reset.
    used: bool,
    /// Buffer of the report's `□`-view audit (empty between reports).
    canon: SortedMap<u64, Literal>,
}

/// The instance, the nodes and the monitor — the state `prepare` must
/// leave exactly as assembly does. The network's own reset is `sim`'s to
/// test.
impl std::fmt::Debug for InstanceSlot<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstanceSlot")
            .field("instance", &self.instance)
            .field("nodes", &self.net.nodes())
            .field("monitor", &self.mon.as_ref().map(|m| m.state_debug()))
            .finish_non_exhaustive()
    }
}

impl<'t> InstanceSlot<'t> {
    /// Assemble a slot for `built` (compiled from `spec`) under `config`:
    /// clone the prototype nodes, wrap each in the fault-tolerance
    /// machinery — per-node at-least-once transport when
    /// `config.reliable` is set, write-ahead logging to `store` when one
    /// is given — place them on their own network, and arm the fused
    /// monitor when `config.monitor` asks for it.
    pub fn assemble(
        spec: &'t WorkflowSpec,
        built: &'t BuiltWorkflow,
        config: &ExecConfig,
        store: Option<NodeStore>,
    ) -> InstanceSlot<'t> {
        InstanceSlot::with_nodes(spec, built, built.nodes.clone(), config, store)
    }

    /// [`InstanceSlot::assemble`] from nodes the caller already owns (a
    /// solo run hands over the prototype itself).
    pub(crate) fn with_nodes(
        spec: &'t WorkflowSpec,
        built: &'t BuiltWorkflow,
        nodes: Vec<(SiteId, Node)>,
        config: &ExecConfig,
        store: Option<NodeStore>,
    ) -> InstanceSlot<'t> {
        // The online monitors run the faithful guards and machines the
        // builder compiled (shared, not recompiled — `GuardScope::Mentioning`
        // is the unweakened set; the actors weaken their own copies); the
        // scheduler steps them directly.
        let mon = config.monitor.map(|mc| {
            Arc::new(WorkflowMonitor::from_compiled(
                &spec.table,
                Arc::clone(&built.guards),
                gated_literals(spec),
                mc,
            ))
        });
        let nodes = nodes.into_iter().map(|(site, mut role)| {
            if let Node::Actor(a) = &mut role {
                a.mon = mon.clone();
            }
            let node = NetNode {
                role,
                reliable: config.reliable.map(Reliable::new),
                log: store.is_some().then(Vec::new),
                mon: mon.clone(),
                out: Vec::new(),
            };
            (site, node)
        });
        InstanceSlot {
            spec,
            built,
            net: Network::new(config.sim, nodes),
            mon,
            store,
            instance: InstanceId::ROOT,
            sim: config.sim,
            record: config.record,
            max_steps: config.max_steps,
            used: false,
            canon: SortedMap::new(),
        }
    }

    /// Make the slot the initial state of `arrival`'s instance. In order:
    ///
    /// 1. the network is reset under the arrival's seed — queue (with
    ///    whatever a budget-exhausted instance left in it), link clocks,
    ///    clock, sequence, statistics, fault state, recorder;
    /// 2. if an instance ran here before, every node's transport and role
    ///    and the monitor return to their assembled state, buffers kept;
    /// 3. the instance is named: the slot keeps the instance id its nodes'
    ///    WAL slices are published under, and the network gets a fresh
    ///    recorder when instances are recorded and the fault plan;
    /// 4. the template's seed messages are injected, the arrival's
    ///    think-time overrides replacing the delay of the attempts they
    ///    name.
    pub fn prepare(&mut self, arrival: &Arrival, plan: Option<FaultPlan>) {
        self.net.reset(SimConfig { seed: arrival.seed, ..self.sim });
        if std::mem::replace(&mut self.used, true) {
            for node in self.net.nodes_mut() {
                node.reset();
            }
            if let Some(m) = &self.mon {
                m.reset();
            }
        }
        self.instance = arrival.instance;
        if let Some(config) = self.record {
            self.net.set_recorder(FlightRecorder::new(config), Msg::kind_label);
        }
        if let Some(plan) = plan {
            self.net.set_faults(plan);
        }
        let built = self.built;
        for (from, to, msg, extra) in &built.injections {
            // The last override of a literal wins, as it does when the
            // overrides are folded into a spec (`Arrival::apply_to_spec`);
            // the injection itself pays a 1-tick latency ("at start" is
            // 0 and 1 alike).
            let think = msg
                .literal()
                .and_then(|l| arrival.think.iter().rev().find(|(of, _)| *of == l))
                .map(|&(_, t)| t.saturating_sub(1));
            self.net.inject_after(*from, *to, msg.clone(), think.unwrap_or(*extra));
        }
    }

    /// Run the prepared instance to quiescence under the step budget,
    /// publish its nodes' WAL slices to the shared store — one append per
    /// `(instance, node)` that logged anything — and read its report off
    /// the slot. The report's metrics are left empty: a solo caller
    /// attaches what its snapshot renders from on first read, and a fleet
    /// rolls its own up, so no instance pays for a snapshot nobody reads.
    /// The report is built in its box and handed on in it: a fleet keeps
    /// it there, and nothing copies its few hundred bytes on the way.
    pub fn execute(&mut self) -> (Box<RunReport>, InstanceTotals) {
        let started = Instant::now();
        let outcome = self.net.run_to_quiescence(self.max_steps);
        let mut totals = InstanceTotals {
            run_ns: started.elapsed().as_nanos() as u64,
            ..InstanceTotals::default()
        };
        for (ix, node) in self.net.nodes_mut().iter_mut().enumerate() {
            if let Some(r) = &node.reliable {
                totals.retransmissions += r.retransmissions;
                totals.dedup_dropped += r.duplicates_suppressed;
                totals.gave_up += r.gave_up;
                totals.timer_fires += r.timer_fires;
                totals.timer_idle += r.timer_idle;
            }
            if let (Some(store), Some(log)) = (&self.store, &mut node.log) {
                if !log.is_empty() {
                    store.append_all(self.instance, ix as u32, log);
                }
            }
        }
        let mut report = self.collect_report(outcome);
        if let Some(m) = &self.mon {
            let mrep = m.finish(report.duration);
            report.alerts = mrep.alerts.clone();
            report.monitor = Some(mrep);
        }
        let table = &self.spec.table;
        report.recording = self.net.take_recorder().map(|mut rec| Recording {
            workflow: String::new(),
            symbols: (0..table.len())
                .map(|i| table.name(SymbolId(i as u32)).unwrap_or("?").to_string())
                .collect(),
            dropped: rec.dropped(),
            sampled_out: rec.sampled_out(),
            events: rec.take_events(),
            metrics: MetricsSnapshot::default(),
        });
        (report, totals)
    }

    fn actor(&self, sym: SymbolId) -> &SymbolActor {
        match &self.net.node(self.built.routing.actor_of[sym]).role {
            Node::Actor(a) => a,
            _ => unreachable!("routing maps every symbol to an actor node"),
        }
    }

    /// Assemble the report of the run that just ended from the actors,
    /// read in place.
    fn collect_report(&mut self, outcome: sim::RunOutcome) -> Box<RunReport> {
        let sim::RunOutcome { steps, termination } = outcome;
        let built = self.built;
        let symbols = &built.symbols;
        let mut occurrences: Vec<(Literal, Time, u64)> = Vec::with_capacity(symbols.len());
        let mut unresolved: Vec<SymbolId> = Vec::new();
        let mut actor_stats = SymbolMap::with_capacity(symbols.last().map_or(0, |s| s.index() + 1));
        let mut parked = Vec::new();
        let mut broken_promises = Vec::new();
        let mut standing_holds = Vec::new();
        let mut canon = std::mem::take(&mut self.canon);
        let mut divergence: Vec<(u64, Literal, Literal)> = Vec::new();
        for &s in symbols {
            let a = self.actor(s);
            actor_stats.insert(s, a.stats.clone());
            standing_holds.extend(a.holds.iter().map(|&h| (s, h)));
            // Divergence audit: every actor's view of the global occurrence
            // order must agree wherever the views overlap.
            for &(seq, lit) in a.facts() {
                match canon.get(seq) {
                    Some(&first) if first != lit => divergence.push((seq, first, lit)),
                    Some(_) => {}
                    None => {
                        canon.insert(seq, lit);
                    }
                }
            }
            match a.occurred {
                Some(occ) => occurrences.push(occ),
                None => {
                    unresolved.push(s);
                    for (lit, st) in [(Literal::pos(s), &a.pos), (Literal::neg(s), &a.neg)] {
                        if st.attempted {
                            parked.push(lit);
                        }
                        if st.promised_out {
                            broken_promises.push(lit);
                        }
                    }
                }
            }
        }
        canon.clear();
        self.canon = canon;
        occurrences.sort_by_key(|&(_, t, q)| (t, q));
        let trace = Trace::new(occurrences.iter().map(|&(l, _, _)| l))
            .expect("actors enforce single resolution per symbol");
        let (maximal_trace, satisfied) = verdict(&trace, &unresolved, &self.spec.dependencies);
        Box::new(RunReport {
            trace,
            occurrences,
            unresolved,
            maximal_trace,
            satisfied,
            duration: self.net.now(),
            steps,
            // Populated even on the fault-free path, so consumers can read
            // all-zero counters instead of special-casing `None`.
            fault_stats: Some(self.net.fault_stats().copied().unwrap_or_default()),
            net: self.net.stats().clone(),
            actor_stats,
            parked,
            broken_promises,
            standing_holds,
            termination,
            divergence,
            metrics: RunMetrics::default(),
            recording: None,
            alerts: Vec::new(),
            monitor: None,
        })
    }
}
