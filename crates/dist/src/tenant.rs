//! Multi-tenant instance engine: many concurrent workflow instances,
//! multiplexed over shared compiled artifacts and (optionally) sharded
//! across OS threads.
//!
//! The paper's scheduler is specified per workflow *template*; a real
//! deployment runs many live *instances* of a few templates at once.
//! This engine admits a seeded stream of [`Arrival`]s, instantiates each
//! one by cloning a single prototype [`BuiltWorkflow`] per template (the
//! compiled [`event_algebra::DependencyMachine`] tables are `Arc`-shared,
//! so per-instance dependency state collapses to one `StateId` per
//! dependency plus the guard-literal bitmaps inside each actor), and
//! interleaves their deterministic networks under one fleet clock.
//!
//! **Isolation by construction.** Every instance owns its own seeded
//! [`sim::Network`], its announcements and envelopes are stamped with its
//! [`InstanceId`] (and filtered on receipt), and its write-ahead-log
//! slice in the shared [`NodeStore`] is keyed by `(instance, node)`. The
//! multiplexer's interleaving therefore cannot affect any instance's
//! result: a tenant run of instance *i* is byte-identical to an
//! independent [`crate::run_workflow_with_faults`] of the same spec,
//! seed and fault plan. The ninth conformance audit
//! (`testkit::conformance::audit_tenant_isolation`) checks exactly this
//! equivalence end-to-end, and [`TenantConfig::cross_wire`] is the
//! mutation knob that proves the audit can fail.

use crate::exec::{
    build_workflow, collect_report, guard_gated, wrap_nodes, BuiltWorkflow, ExecConfig, NetNode,
    Node, RunReport, WorkflowSpec,
};
use crate::journal::NodeStore;
use crate::msg::{InstanceId, Msg};
use event_algebra::Literal;
use monitor::WorkflowMonitor;
use obs::{EventSink, MetricsRegistry, MetricsSnapshot, Obs};
use sim::{FaultPlan, Network, NodeId, SiteId, Termination, Time};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// One instance admission: which template to instantiate, when it
/// arrives on the fleet clock, and the seed that makes its execution
/// reproducible in isolation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Unique id of this instance across the whole fleet.
    pub instance: InstanceId,
    /// Index into the spec-template slice passed to [`run_tenant`].
    pub spec_ix: usize,
    /// Fleet-clock time at which the instance is admitted.
    pub at: Time,
    /// Seed of the instance's own network; together with the template
    /// and fault plan it fully determines the instance's execution.
    pub seed: u64,
    /// Per-instance think-time overrides: each driven free event whose
    /// literal appears here is attempted at the given instance-local
    /// time instead of the template's `attempt_after`. Events the
    /// template never drives (`attempt_after: None`) are not affected.
    pub think: Vec<(Literal, Time)>,
}

impl Arrival {
    /// A plain arrival with no think-time overrides.
    pub fn new(instance: u64, spec_ix: usize, at: Time, seed: u64) -> Arrival {
        Arrival { instance: InstanceId(instance), spec_ix, at, seed, think: Vec::new() }
    }

    /// The template specialized to this arrival: think-time overrides
    /// folded into `attempt_after`. Running this spec through the
    /// single-instance executor with [`TenantConfig::instance_exec`]
    /// reproduces the instance's tenant execution exactly — the
    /// differential baseline the conformance audit compares against.
    pub fn apply_to_spec(&self, spec: &WorkflowSpec) -> WorkflowSpec {
        let mut out = spec.clone();
        for &(lit, t) in &self.think {
            for f in &mut out.free_events {
                if f.lit == lit && f.attempt_after.is_some() {
                    // `t.max(1)` and the injection path's
                    // `saturating_sub(1)` agree for every `t` (0 and 1
                    // both mean "at start").
                    f.attempt_after = Some(t.max(1));
                }
            }
        }
        out
    }

    /// This arrival's nodes: the prototype's roles cloned, every actor
    /// stamped with the instance id and announcing as `announce_as`
    /// (the instance id again in every healthy configuration).
    pub(crate) fn instantiate(
        &self,
        proto: &BuiltWorkflow,
        announce_as: InstanceId,
    ) -> Vec<(SiteId, Node)> {
        proto
            .nodes
            .iter()
            .map(|(site, role)| {
                let mut role = role.clone();
                if let Node::Actor(a) = &mut role {
                    a.instance = self.instance;
                    a.announce_instance = announce_as;
                }
                (*site, role)
            })
            .collect()
    }

    /// This arrival's seed messages: the prototype's, with think-time
    /// overrides replacing the extra delay of the attempts they name.
    pub(crate) fn injections<'a>(
        &self,
        proto: &'a BuiltWorkflow,
    ) -> impl Iterator<Item = (NodeId, NodeId, Msg, Time)> + 'a {
        let think: BTreeMap<Literal, Time> = self.think.iter().copied().collect();
        proto.injections.iter().map(move |(from, to, msg, extra)| {
            let extra = match msg.literal().and_then(|l| think.get(&l)) {
                // Same "at start" convention as the template path: the
                // injection itself pays a 1-tick latency.
                Some(&t) => t.saturating_sub(1),
                None => *extra,
            };
            (*from, *to, msg.clone(), extra)
        })
    }
}

/// Fleet configuration.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Base executor configuration shared by every instance (each
    /// instance's network seed comes from its [`Arrival`], not from
    /// here). Journals and flight recording are per-run artifacts and
    /// are forced off inside the fleet.
    pub exec: ExecConfig,
    /// Fault plan applied to every instance's network (cloned per
    /// instance, so fault decisions are also per-instance
    /// deterministic). Installing one materializes the shared
    /// instance-keyed write-ahead log.
    pub plan: Option<FaultPlan>,
    /// Number of OS threads the fleet is sharded over (arrivals are
    /// partitioned round-robin). `0` and `1` both mean sequential.
    pub shards: usize,
    /// Deliveries granted to an instance each time the multiplexer
    /// picks it.
    pub quantum: u64,
    /// Mutation knob for the conformance audit: the named instance's
    /// actors stamp their announcements with the *wrong* instance id,
    /// so receivers (correctly) reject them and the instance diverges
    /// from its isolated baseline. Healthy fleets leave this `None`.
    pub cross_wire: Option<InstanceId>,
}

impl TenantConfig {
    /// A sequential fleet with no faults.
    pub fn new(exec: ExecConfig) -> TenantConfig {
        TenantConfig { exec, plan: None, shards: 1, quantum: 64, cross_wire: None }
    }

    /// The [`ExecConfig`] an *independent* run of `arrival` uses: the
    /// base config with the arrival's seed, journal/recording off —
    /// exactly what the fleet runs for that instance.
    pub fn instance_exec(&self, arrival: &Arrival) -> ExecConfig {
        let mut exec = self.exec.clone();
        exec.sim.seed = arrival.seed;
        exec.journal = false;
        exec.record = None;
        exec
    }
}

/// One finished instance.
#[derive(Debug)]
pub struct InstanceOutcome {
    /// The instance's id.
    pub instance: InstanceId,
    /// Which template it ran.
    pub spec_ix: usize,
    /// Fleet-clock admission time.
    pub arrived_at: Time,
    /// Fleet-clock completion time (`arrived_at + report.duration`).
    pub finished_at: Time,
    /// Foreign envelopes the instance's transport dropped (always 0
    /// unless something is genuinely cross-wired).
    pub cross_instance_dropped: u64,
    /// The instance's full run report — identical to what an
    /// independent single-instance run of the same seed produces.
    pub report: RunReport,
}

/// Fleet-level roll-up of a tenant run.
#[derive(Debug)]
pub struct TenantReport {
    /// Per-instance outcomes, sorted by instance id.
    pub instances: Vec<InstanceOutcome>,
    /// Total event occurrences across the fleet.
    pub events: u64,
    /// Instances that converged.
    pub quiesced: usize,
    /// Instances that ran out of delivery budget (reported honestly,
    /// never silently upgraded to success).
    pub exhausted: usize,
    /// Fleet-clock time at which the last instance finished.
    pub makespan: Time,
    /// Foreign envelopes dropped by transports, fleet-wide.
    pub cross_instance_dropped: u64,
    /// Foreign announcements rejected by actors, fleet-wide.
    pub cross_instance_rejected: u64,
    /// Monitor alerts raised across the fleet (0 when monitors are not
    /// armed). Per-kind and per-shard breakdowns live in
    /// [`TenantReport::metrics`] (`tenant.monitor.*`, `tenant.shard.*`).
    pub monitor_alerts: u64,
    /// Violation-class monitor alerts across the fleet (the subset of
    /// [`TenantReport::monitor_alerts`] where
    /// [`monitor::AlertKind::is_violation`] holds).
    pub monitor_violations: u64,
    /// Fleet metrics: instance/event counters, the firing-latency
    /// histogram (`tenant.fire_latency`: instance-local time from
    /// admission to each occurrence), instance-duration histogram, and —
    /// when monitors are armed — fleet monitor telemetry
    /// (`tenant.monitor.facts` / `.guard_checks` / `.alerts` by kind)
    /// plus per-shard counters labeled by multiplexer shard
    /// (`tenant.shard.instances` / `.events` / `.monitor_alerts` /
    /// `.guard_checks`).
    pub metrics: MetricsSnapshot,
    /// The shared instance-keyed write-ahead log, when a fault plan
    /// made one necessary.
    pub wal: Option<NodeStore>,
    /// Wall-clock nanoseconds the fleet took (the only nondeterministic
    /// field; everything else is a pure function of inputs).
    pub wall_ns: u64,
}

impl TenantReport {
    /// `true` when every instance converged with all dependencies
    /// satisfied.
    pub fn all_satisfied(&self) -> bool {
        self.exhausted == 0 && self.instances.iter().all(|o| o.report.all_satisfied())
    }

    /// Quantile of the firing-latency histogram (instance-local ticks
    /// from admission to occurrence), rounded down to a log2 bucket
    /// lower bound. Returns 0 when no event fired.
    pub fn fire_quantile(&self, q: f64) -> u64 {
        self.metrics.histogram("tenant.fire_latency", &[]).map_or(0, |h| h.quantile(q))
    }

    /// Completed instances per wall-clock second.
    pub fn instances_per_sec(&self) -> f64 {
        self.instances.len() as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }

    /// Event occurrences per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }
}

/// A live instance inside one shard's multiplexer.
struct LiveInstance {
    arrival: Arrival,
    net: Network<Msg, NetNode>,
    mon: Option<Arc<WorkflowMonitor>>,
    steps: u64,
    /// `step()` returned `false`: converged before the budget.
    quiescent: bool,
}

impl LiveInstance {
    /// Fleet-clock position: admission time plus local virtual time.
    fn position(&self) -> Time {
        self.arrival.at + self.net.now()
    }
}

/// Run a fleet of workflow instances to completion.
///
/// `specs` are the templates; each [`Arrival`] names one by index. The
/// result is deterministic (up to `wall_ns`) for fixed inputs,
/// regardless of `shards`.
///
/// # Panics
///
/// Panics when an arrival's `spec_ix` is out of range or two arrivals
/// share an [`InstanceId`] (ids key the shared write-ahead log, so a
/// collision would silently entangle two instances' recovery state).
pub fn run_tenant(
    specs: &[WorkflowSpec],
    arrivals: &[Arrival],
    config: &TenantConfig,
) -> TenantReport {
    let started = std::time::Instant::now();
    let mut seen = std::collections::BTreeSet::new();
    for a in arrivals {
        assert!(
            a.spec_ix < specs.len(),
            "arrival {} names spec {} of {}",
            a.instance,
            a.spec_ix,
            specs.len()
        );
        assert!(seen.insert(a.instance), "duplicate instance id {}", a.instance);
    }
    // One compiled prototype per template: guards compiled once,
    // dependency machines Arc'd once, shared by every clone below.
    let mut proto_exec = config.exec.clone();
    proto_exec.journal = false;
    proto_exec.record = None;
    let protos: Vec<BuiltWorkflow> =
        specs.iter().map(|s| build_workflow(s, proto_exec.clone())).collect();
    // The WAL is shared across the whole fleet and keyed by
    // (instance, node) — the point of the instance-keyed store.
    let wal = config.plan.is_some().then(NodeStore::new);

    let shards = config.shards.max(1).min(arrivals.len().max(1));
    let mut outcomes: Vec<InstanceOutcome> = if shards <= 1 {
        run_shard(specs, &protos, arrivals.to_vec(), config, wal.clone())
    } else {
        let mut parts: Vec<Vec<Arrival>> = vec![Vec::new(); shards];
        for (ix, a) in arrivals.iter().enumerate() {
            parts[ix % shards].push(a.clone());
        }
        let protos = &protos;
        std::thread::scope(|scope| {
            let handles: Vec<_> = parts
                .into_iter()
                .map(|part| {
                    let wal = wal.clone();
                    scope.spawn(move || run_shard(specs, protos, part, config, wal))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("tenant shard thread panicked"))
                .collect()
        })
    };
    outcomes.sort_by_key(|o| o.instance);

    // ----- fleet roll-up -----
    // Which multiplexer shard ran each instance (the round-robin
    // partition above) — keys the per-shard telemetry labels.
    let shard_of: BTreeMap<InstanceId, usize> =
        arrivals.iter().enumerate().map(|(ix, a)| (a.instance, ix % shards)).collect();
    let reg = MetricsRegistry::new();
    let mut events = 0u64;
    let mut quiesced = 0usize;
    let mut exhausted = 0usize;
    let mut makespan = 0;
    let mut cross_dropped = 0u64;
    let mut cross_rejected = 0u64;
    let mut monitor_alerts = 0u64;
    let mut monitor_violations = 0u64;
    let mut monitor_facts = 0u64;
    let mut monitor_guard_checks = 0u64;
    for o in &outcomes {
        for &(_, t, _) in &o.report.occurrences {
            reg.observe("tenant.fire_latency", &[], t);
            events += 1;
        }
        reg.observe("tenant.instance_duration", &[], o.report.duration);
        match o.report.termination {
            Termination::Quiescent => quiesced += 1,
            Termination::BudgetExhausted => exhausted += 1,
        }
        makespan = makespan.max(o.finished_at);
        cross_dropped += o.cross_instance_dropped;
        cross_rejected +=
            o.report.actor_stats.values().map(|s| s.cross_instance_rejected).sum::<u64>();
        let shard = shard_of[&o.instance].to_string();
        let by_shard: &[(&str, &str)] = &[("shard", &shard)];
        reg.add("tenant.shard.instances", by_shard, 1);
        reg.add("tenant.shard.events", by_shard, o.report.occurrences.len() as u64);
        if let Some(m) = &o.report.monitor {
            monitor_facts += m.facts;
            monitor_guard_checks += m.guard_checks;
            for alert in &m.alerts {
                monitor_alerts += 1;
                if alert.kind.is_violation() {
                    monitor_violations += 1;
                }
                reg.add("tenant.monitor.alerts", &[("kind", alert.kind.tag())], 1);
            }
            reg.add("tenant.shard.monitor_alerts", by_shard, m.alerts.len() as u64);
            reg.add("tenant.shard.guard_checks", by_shard, m.guard_checks);
        }
    }
    if outcomes.iter().any(|o| o.report.monitor.is_some()) {
        reg.add("tenant.monitor.facts", &[], monitor_facts);
        reg.add("tenant.monitor.guard_checks", &[], monitor_guard_checks);
        reg.add("tenant.monitor.violations", &[], monitor_violations);
    }
    reg.add("tenant.instances", &[], outcomes.len() as u64);
    reg.add("tenant.events", &[], events);
    reg.add("tenant.quiesced", &[], quiesced as u64);
    reg.add("tenant.exhausted", &[], exhausted as u64);
    reg.add("tenant.cross_instance_dropped", &[], cross_dropped);
    reg.add("tenant.cross_instance_rejected", &[], cross_rejected);
    reg.set_gauge("tenant.makespan", &[], makespan as i64);
    reg.set_gauge("tenant.shards", &[], shards as i64);
    if let Some(w) = &wal {
        reg.add("tenant.wal_entries", &[], w.total() as u64);
    }
    TenantReport {
        instances: outcomes,
        events,
        quiesced,
        exhausted,
        makespan,
        cross_instance_dropped: cross_dropped,
        cross_instance_rejected: cross_rejected,
        monitor_alerts,
        monitor_violations,
        metrics: reg.snapshot(),
        wal,
        wall_ns: started.elapsed().as_nanos() as u64,
    }
}

/// Sequentially multiplex one shard's arrivals: admit on the fleet
/// clock, always advance the furthest-behind live instance by one
/// quantum of deliveries, finalize instances as they converge (or
/// honestly exhaust their budget).
fn run_shard(
    specs: &[WorkflowSpec],
    protos: &[BuiltWorkflow],
    mut arrivals: Vec<Arrival>,
    config: &TenantConfig,
    wal: Option<NodeStore>,
) -> Vec<InstanceOutcome> {
    arrivals.sort_by_key(|a| (a.at, a.instance));
    let mut pending: VecDeque<Arrival> = arrivals.into();
    let mut live: Vec<LiveInstance> = Vec::new();
    let mut done: Vec<InstanceOutcome> = Vec::new();
    let max_steps = config.exec.step_budget();
    let quantum = config.quantum.max(1);
    let mut fleet_now: Time = 0;
    loop {
        while pending.front().is_some_and(|a| a.at <= fleet_now) {
            let a = pending.pop_front().expect("front checked");
            live.push(admit(specs, protos, a, config, wal.clone()));
        }
        if live.is_empty() {
            match pending.front() {
                Some(a) => {
                    // Idle gap on the fleet clock: jump to the next
                    // admission.
                    fleet_now = a.at;
                    continue;
                }
                None => break,
            }
        }
        // The instance furthest behind on the fleet clock runs next
        // (instance id breaks ties deterministically).
        let ix = (0..live.len())
            .min_by_key(|&i| (live[i].position(), live[i].arrival.instance))
            .expect("live is non-empty");
        let inst = &mut live[ix];
        for _ in 0..quantum {
            if inst.steps >= max_steps {
                break;
            }
            if !inst.net.step() {
                inst.quiescent = true;
                break;
            }
            inst.steps += 1;
        }
        let finished = inst.quiescent || inst.steps >= max_steps;
        fleet_now = fleet_now.max(inst.position());
        if finished {
            let inst = live.swap_remove(ix);
            done.push(finalize(specs, protos, inst, max_steps));
        }
    }
    done
}

/// Instantiate one arrival: clone the prototype's roles, stamp them with
/// the instance id, wrap them in the fault-tolerance machinery against
/// the shared WAL, and seed the instance's own network.
fn admit(
    specs: &[WorkflowSpec],
    protos: &[BuiltWorkflow],
    arrival: Arrival,
    config: &TenantConfig,
    wal: Option<NodeStore>,
) -> LiveInstance {
    let spec = &specs[arrival.spec_ix];
    let proto = &protos[arrival.spec_ix];
    // Per-instance monitors, exactly as the single-instance executor
    // arms them.
    let mon = config.exec.monitor.map(|mc| {
        // Reuse the prototype's compiled guards: a fleet arms one
        // monitor per instance, and recompiling per admission would
        // dominate small-instance runtimes.
        let m = WorkflowMonitor::from_compiled(
            &spec.table,
            Arc::clone(&proto.guards),
            guard_gated(spec),
            mc,
        );
        if let Some(plan) = &config.exec.shard_plan {
            m.set_shard_plan(Arc::clone(plan));
        }
        Arc::new(m)
    });
    // Fused by default (the monitor is stepped directly by the actors,
    // so the disabled Obs below never constructs a span); oracle mode
    // subscribes it as a sink, exactly as the single-instance executor.
    let sinks: Vec<Arc<dyn EventSink>> = if config.exec.monitor_oracle {
        mon.iter().map(|m| Arc::clone(m) as Arc<dyn EventSink>).collect()
    } else {
        Vec::new()
    };
    let obs = Obs::with_sinks(None, sinks);
    let fused = if config.exec.monitor_oracle { None } else { mon.clone() };
    // The cross-wire mutation stamps this instance's *outgoing*
    // announcements with a foreign id; its own actors then reject them,
    // which the isolation audit must notice as divergence from the
    // instance's isolated baseline.
    let announce_as = if config.cross_wire == Some(arrival.instance) {
        InstanceId(arrival.instance.0.wrapping_add(1))
    } else {
        arrival.instance
    };
    let nodes = arrival.instantiate(proto, announce_as);
    let wrapped = wrap_nodes(nodes, config.exec.reliable, wal, None, &obs, fused, arrival.instance);
    let mut sim_cfg = config.exec.sim;
    sim_cfg.seed = arrival.seed;
    let mut net: Network<Msg, NetNode> = Network::new(sim_cfg, wrapped);
    net.set_recorder(obs, Msg::kind_label);
    if let Some(plan) = &config.plan {
        net.set_faults(plan.clone());
    }
    for (from, to, msg, extra) in arrival.injections(proto) {
        net.inject_after(from, to, msg, extra);
    }
    LiveInstance { arrival, net, mon, steps: 0, quiescent: false }
}

/// Tear one finished instance down into its outcome, mirroring the
/// single-instance executor's post-run sequence (same termination
/// honesty, same report assembly, same monitor finish).
fn finalize(
    specs: &[WorkflowSpec],
    protos: &[BuiltWorkflow],
    inst: LiveInstance,
    max_steps: u64,
) -> InstanceOutcome {
    let LiveInstance { arrival, net, mon, steps, quiescent } = inst;
    let spec = &specs[arrival.spec_ix];
    let proto = &protos[arrival.spec_ix];
    let termination = if quiescent || net.idle() {
        Termination::Quiescent
    } else {
        debug_assert!(steps >= max_steps);
        Termination::BudgetExhausted
    };
    let duration = net.now();
    let stats = net.stats().clone();
    let fault_stats = net.fault_stats().copied();
    let mut cross_dropped = 0u64;
    let roles: Vec<Node> = net
        .into_nodes()
        .into_iter()
        .map(|n| {
            if let Some(r) = &n.reliable {
                cross_dropped += r.cross_instance_dropped;
            }
            n.role
        })
        .collect();
    let mut report = collect_report(
        spec,
        &proto.symbols,
        |s| proto.routing.actor_of[&s].0 as usize,
        &roles,
        duration,
        sim::RunOutcome { steps, termination },
        stats,
    );
    if let Some(fs) = fault_stats {
        report.fault_stats = Some(fs);
    }
    if let Some(m) = mon {
        let mrep = m.finish(duration);
        report.alerts = mrep.alerts.clone();
        report.monitor = Some(mrep);
    }
    InstanceOutcome {
        instance: arrival.instance,
        spec_ix: arrival.spec_ix,
        arrived_at: arrival.at,
        finished_at: arrival.at + duration,
        cross_instance_dropped: cross_dropped,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::FreeEventSpec;
    use agent::EventAttrs;
    use event_algebra::{parse_expr, SymbolTable};
    use sim::SiteId;

    fn mutual_spec() -> WorkflowSpec {
        let mut table = SymbolTable::new();
        let d1 = parse_expr("~e + f", &mut table).unwrap();
        let d2 = parse_expr("~f + e", &mut table).unwrap();
        let e = table.event("e");
        let f = table.event("f");
        WorkflowSpec {
            table,
            dependencies: vec![d1, d2],
            agents: vec![],
            free_events: vec![
                FreeEventSpec {
                    site: SiteId(0),
                    lit: e,
                    attrs: EventAttrs::controllable(),
                    attempt_after: Some(1),
                },
                FreeEventSpec {
                    site: SiteId(1),
                    lit: f,
                    attrs: EventAttrs::controllable(),
                    attempt_after: Some(1),
                },
            ],
        }
    }

    /// `D<`: e must precede f. f's firing waits on e's `□`-announcement,
    /// so a cross-wired instance (whose announcements are rejected)
    /// visibly wedges — unlike the mutual-promise spec, which resolves
    /// through the promise round alone.
    fn precedence_spec() -> WorkflowSpec {
        let mut table = SymbolTable::new();
        let d = parse_expr("~e + ~f + e.f", &mut table).unwrap();
        let e = table.event("e");
        let f = table.event("f");
        WorkflowSpec {
            table,
            dependencies: vec![d],
            agents: vec![],
            free_events: vec![
                FreeEventSpec {
                    site: SiteId(0),
                    lit: e,
                    attrs: EventAttrs::controllable(),
                    attempt_after: Some(1),
                },
                FreeEventSpec {
                    site: SiteId(1),
                    lit: f,
                    attrs: EventAttrs::controllable(),
                    attempt_after: Some(1),
                },
            ],
        }
    }

    fn fleet(n: u64) -> Vec<Arrival> {
        (0..n).map(|i| Arrival::new(i, 0, i * 3, 0x9E37 ^ i)).collect()
    }

    #[test]
    fn tenant_matches_independent_runs() {
        let spec = mutual_spec();
        let config = TenantConfig::new(ExecConfig::seeded(0));
        let arrivals = fleet(8);
        let rep = run_tenant(std::slice::from_ref(&spec), &arrivals, &config);
        assert_eq!(rep.instances.len(), 8);
        assert!(rep.all_satisfied(), "{rep:?}");
        assert_eq!(rep.cross_instance_dropped, 0);
        assert_eq!(rep.cross_instance_rejected, 0);
        for (a, o) in arrivals.iter().zip(&rep.instances) {
            let solo = crate::run_workflow(&spec, config.instance_exec(a));
            assert_eq!(o.report.occurrences, solo.occurrences, "instance {}", a.instance);
            assert_eq!(o.report.duration, solo.duration, "instance {}", a.instance);
            assert_eq!(o.report.steps, solo.steps, "instance {}", a.instance);
        }
    }

    #[test]
    fn sharded_fleet_is_deterministic() {
        let spec = mutual_spec();
        let arrivals = fleet(12);
        let mut c1 = TenantConfig::new(ExecConfig::seeded(0));
        c1.shards = 1;
        let mut c4 = TenantConfig::new(ExecConfig::seeded(0));
        c4.shards = 4;
        let r1 = run_tenant(std::slice::from_ref(&spec), &arrivals, &c1);
        let r4 = run_tenant(&[spec], &arrivals, &c4);
        assert_eq!(r1.events, r4.events);
        assert_eq!(r1.makespan, r4.makespan);
        for (a, b) in r1.instances.iter().zip(&r4.instances) {
            assert_eq!(a.instance, b.instance);
            assert_eq!(a.report.occurrences, b.report.occurrences);
        }
    }

    #[test]
    fn cross_wired_instance_diverges_and_is_counted() {
        let spec = precedence_spec();
        let arrivals = fleet(3);
        let mut config = TenantConfig::new(ExecConfig::seeded(0));
        config.cross_wire = Some(InstanceId(1));
        let rep = run_tenant(&[spec], &arrivals, &config);
        assert!(rep.cross_instance_rejected > 0, "mutation must be visible: {rep:?}");
        let mutant = &rep.instances[1];
        assert!(
            mutant.report.trace.len() < 2,
            "cross-wired instance should wedge on the rejected announcement: {:?}",
            mutant.report
        );
        // The healthy neighbours are untouched: both events fire.
        for o in [&rep.instances[0], &rep.instances[2]] {
            assert_eq!(o.report.trace.len(), 2, "{:?}", o.report);
            assert!(o.report.all_satisfied(), "{:?}", o.report);
        }
    }

    #[test]
    fn think_overrides_match_specialized_spec() {
        let spec = mutual_spec();
        let f = spec.free_events[1].lit;
        let mut a = Arrival::new(0, 0, 0, 42);
        a.think = vec![(f, 37)];
        let config = TenantConfig::new(ExecConfig::seeded(0));
        let rep = run_tenant(std::slice::from_ref(&spec), std::slice::from_ref(&a), &config);
        let solo = crate::run_workflow(&a.apply_to_spec(&spec), config.instance_exec(&a));
        assert_eq!(rep.instances[0].report.occurrences, solo.occurrences);
        assert_eq!(rep.instances[0].report.duration, solo.duration);
    }
}
