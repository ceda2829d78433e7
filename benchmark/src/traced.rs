//! The traced pass: where a workload's time goes, layer by layer.
//!
//! Everything here times calls into the crates' *public* functions from
//! the benchmark's own files; nothing inside the product is instrumented.
//! Because `run_workflow` and `run_tenant` are single calls, an operation
//! is re-run *decomposed* through the public pieces they are made of —
//! parse, `from_spec`, `CompiledWorkflow::compile`, `compile_all`,
//! `build_workflow`, then a `sim::Network` over the built nodes with each
//! node wrapped in [`Timed`] — and the decomposed run must yield the same
//! occurrences as the one-call run. Ratios come from toggling one public
//! config field between adjacent rounds, counts from the reports.
//!
//! Every per-layer metric is defined on every workload, over that
//! workload's own templates and arrivals; a layer the workload does not
//! exercise (the fault layer on a clean fleet) reads 0.

use crate::alloc::counted;
use crate::metrics::Values;
use crate::rng::SplitMix64;
use crate::spans::{totals_by_name, NameTotals, Recorder, Span};
use crate::workloads::{
    apply_think, generate_set, make_inputs, run_arrivals, run_failed, run_round, solo_loop, Inputs,
    Kind, RunOpts, Shape, Source, Template,
};
use analyze::AnalyzeOptions;
use dist::{
    build_workflow, guard_gated, run_parallel_fleet, run_tenant, run_workflow, Arrival, ExecConfig,
    InstanceId, Msg, Node, NodeStore, ReliableConfig, RunReport, TenantConfig, WalEntry,
};
use event_algebra::{DependencyMachine, ExprArena, Literal, ProductMachine, StateBudget, Trace};
use guard::{CompiledWorkflow, GuardScope};
use monitor::WorkflowMonitor;
use obs::{MetricsRegistry, RecordConfig};
use sim::{Ctx, FaultPlan, Network, NodeId, ParallelConfig, Process, SimConfig, SiteId};
use speclang::LoweredWorkflow;
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Operations per decomposed round.
const TRACE_OPS: usize = 200;
/// Share of `--seconds` the decomposed rounds may use (at least two
/// traced/untraced pairs run regardless).
const DECOMPOSED_SHARE: f64 = 0.3;
/// Adjacent on/off pairs per toggled ratio; each side reports its best.
const TOGGLE_PAIRS: usize = 5;
/// Repetitions of a per-template probe; the best is kept.
const PROBE_REPS: usize = 5;

pub struct Outcome {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<Span>,
}

/// Handler intervals, stamped against the recorder's clock.
type HandlerSink = Rc<RefCell<Vec<(u64, u64)>>>;

/// A `Process` wrapper that does what `dist`'s own (crate-private) node
/// wrapper does on the fault-free path — tick the fused monitor, then
/// hand the message to the role — and stamps each handler call when a
/// sink is attached.
struct Timed<P> {
    inner: P,
    mon: Arc<WorkflowMonitor>,
    sink: Option<(Instant, HandlerSink)>,
}

impl<P: Process<Msg>> Process<Msg> for Timed<P> {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        match &self.sink {
            Some((origin, sink)) => {
                let start = origin.elapsed().as_nanos() as u64;
                self.mon.tick(ctx.now());
                self.inner.on_message(ctx, from, msg);
                sink.borrow_mut().push((start, origin.elapsed().as_nanos() as u64));
            }
            None => {
                self.mon.tick(ctx.now());
                self.inner.on_message(ctx, from, msg);
            }
        }
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_nanos() as u64)
}

/// What one decomposed operation established.
struct Decomposed {
    /// The decomposed run's occurrences equal the one-call run's.
    same_occurrences: bool,
    report: RunReport,
}

/// One runtime operation, decomposed through public functions, each
/// piece a span; then the same operation as the one call a user makes.
fn decomposed_op(
    rec: &mut Recorder,
    template: &Template,
    arrival: &Arrival,
    exec: &ExecConfig,
) -> Decomposed {
    rec.span("op", |rec| {
        if let Source::Text(text) = &template.source {
            rec.span("speclang.parse", |_| {
                black_box(LoweredWorkflow::parse(black_box(text)).is_ok())
            });
        }
        let mut wf = rec.span("core.from_spec", |_| {
            template.source.instantiate().expect("template sources were validated at load")
        });
        apply_think(&mut wf.spec, arrival);
        let spec = &wf.spec;
        let mut cfg = exec.clone();
        cfg.sim.seed = arrival.seed;
        rec.span("guard.compile", |_| {
            black_box(CompiledWorkflow::compile(&spec.dependencies, GuardScope::Mentioning));
        });
        rec.span("event-algebra.machine_compile", |_| {
            black_box(DependencyMachine::compile_all(&spec.dependencies));
        });
        let built = rec.span("dist.build", |_| build_workflow(spec, cfg.clone()));
        let sink: Option<(Instant, HandlerSink)> =
            rec.is_enabled().then(|| (rec.origin(), Rc::new(RefCell::new(Vec::new()))));
        let (mut net, mon, actor_nodes) = rec.span("bench.wrap", |_| {
            let mon = Arc::new(WorkflowMonitor::from_compiled(
                &spec.table,
                Arc::clone(&built.guards),
                guard_gated(spec),
                cfg.monitor.expect("the benchmark always arms monitors"),
            ));
            let actor_nodes: Vec<usize> =
                built.symbols.iter().map(|s| built.routing.actor_of[s].0 as usize).collect();
            let nodes: Vec<(SiteId, Timed<Node>)> = built
                .nodes
                .into_iter()
                .map(|(site, mut role)| {
                    if let Node::Actor(actor) = &mut role {
                        actor.mon = Some(Arc::clone(&mon));
                    }
                    (site, Timed { inner: role, mon: Arc::clone(&mon), sink: sink.clone() })
                })
                .collect();
            let mut net: Network<Msg, Timed<Node>> = Network::new(cfg.sim, nodes);
            for (from, to, msg, extra) in built.injections {
                net.inject_after(from, to, msg, extra);
            }
            (net, mon, actor_nodes)
        });
        rec.span("sim.run", |rec| {
            black_box(net.run_to_quiescence(cfg.max_steps));
            if let Some((_, sink)) = &sink {
                rec.add_children("dist.handler", &sink.borrow());
            }
        });
        let mut occurrences = rec.span("bench.collect", |_| {
            black_box(mon.finish(net.now()));
            let nodes = net.into_nodes();
            actor_nodes
                .iter()
                .filter_map(|&ix| match &nodes[ix].inner {
                    Node::Actor(actor) => actor.occurred,
                    _ => None,
                })
                .collect::<Vec<_>>()
        });
        occurrences.sort_by_key(|&(_, t, q)| (t, q));
        let report = rec.span("dist.run_workflow", |_| black_box(run_workflow(spec, cfg)));
        Decomposed { same_occurrences: occurrences == report.occurrences, report }
    })
}

/// One `check_static` operation with its two layers as spans.
fn decomposed_check(rec: &mut Recorder, template: &Template) -> bool {
    let Source::Text(text) = &template.source else { return true };
    rec.span("check_op", |rec| {
        let lowered = rec.span("speclang.parse", |_| {
            LoweredWorkflow::parse(black_box(text)).expect("validated at load")
        });
        let report = rec.span("analyze.check", |_| {
            black_box(analyze::analyze_workflow(&lowered, &AnalyzeOptions::default()))
        });
        template.verdict_matches(&report)
    })
}

/// Sums over one-call `RunReport`s.
#[derive(Default)]
struct ReportSums {
    reports: u64,
    events: u64,
    steps: u64,
    promises: u64,
    promise_aborts: u64,
    reductions: u64,
    sent: u64,
    sent_remote: u64,
    monitor_facts: u64,
    monitor_guard_checks: u64,
    metric_series: u64,
    retransmissions: u64,
    dedup_dropped: u64,
    gave_up: u64,
    dropped: u64,
    duplicated: u64,
    restarts: u64,
    failed: u64,
}

impl ReportSums {
    fn absorb(&mut self, r: &RunReport) {
        self.reports += 1;
        self.events += r.occurrences.len() as u64;
        self.steps += r.steps;
        for s in r.actor_stats.values() {
            self.promises += s.promises_requested;
            self.promise_aborts += s.promise_aborts;
            self.reductions += s.reductions;
        }
        self.sent += r.net.sent_total;
        self.sent_remote += r.net.sent_remote;
        if let Some(m) = &r.monitor {
            self.monitor_facts += m.facts;
            self.monitor_guard_checks += m.guard_checks;
        }
        let m = &r.metrics;
        self.metric_series += (m.counters.len() + m.gauges.len() + m.histograms.len()) as u64;
        let counter = |name: &str| m.counter(name, &[]).unwrap_or(0);
        self.retransmissions += counter("transport.retransmissions");
        self.dedup_dropped += counter("transport.dedup_dropped");
        self.gave_up += counter("transport.gave_up");
        if let Some(f) = &r.fault_stats {
            self.dropped += f.dropped + f.partition_dropped + f.crash_dropped;
            self.duplicated += f.duplicated;
            self.restarts += f.restarts;
        }
        self.failed += u64::from(run_failed(r));
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `num / den` of two configurations measured in adjacent rounds, the
/// order alternating pair by pair, each side at its best time.
fn toggle_ratio(mut num: impl FnMut() -> u64, mut den: impl FnMut() -> u64) -> f64 {
    let (mut best_num, mut best_den) = (u64::MAX, u64::MAX);
    for pair in 0..TOGGLE_PAIRS {
        if pair % 2 == 0 {
            best_num = best_num.min(num());
            best_den = best_den.min(den());
        } else {
            best_den = best_den.min(den());
            best_num = best_num.min(num());
        }
    }
    ratio(best_num as f64, best_den as f64)
}

fn best_of(reps: usize, mut f: impl FnMut() -> u64) -> u64 {
    (0..reps).map(|_| f()).min().expect("reps > 0")
}

/// The workload's own engine with the monitor armed or not.
fn engine_ns(inputs: &Inputs, arrivals: &[Arrival], monitor: bool) -> u64 {
    let mon = monitor.then(monitor::MonitorConfig::default);
    match inputs.shape.kind {
        Kind::Solo | Kind::Check => {
            let mut cfg = inputs.tenant.clone();
            cfg.exec.monitor = mon;
            timed(|| solo_loop(inputs, arrivals, &cfg)).1
        }
        Kind::Tenant => {
            let mut cfg = inputs.tenant.clone();
            cfg.exec.monitor = mon;
            timed(|| black_box(run_tenant(&inputs.specs, arrivals, &cfg))).1
        }
        Kind::Parallel => {
            let mut exec = inputs.exec.clone();
            exec.monitor = mon;
            timed(|| black_box(run_parallel_fleet(&inputs.specs, arrivals, &exec))).1
        }
    }
}

fn tenant_ns(inputs: &Inputs, arrivals: &[Arrival], cfg: &TenantConfig) -> u64 {
    timed(|| black_box(run_tenant(&inputs.specs, arrivals, cfg))).1
}

/// The fault-free, unhardened tenant configuration (monitors armed).
fn plain_tenant(inputs: &Inputs) -> TenantConfig {
    let mut cfg = inputs.tenant.clone();
    cfg.plan = None;
    cfg.exec.reliable = None;
    cfg
}

/// Static layers of one template, each at its best of `PROBE_REPS`.
struct TemplateProbe {
    guard_size: u64,
    machine_states: u64,
    residuate_ns_per_query: f64,
    guard_eval_ns_per_eval: f64,
    /// Text templates only: what `wfcheck` can be pointed at.
    product_reach_ns: Option<f64>,
    analyze_ns: Option<f64>,
    states_explored: u64,
}

fn probe_template(template: &Template, realized: &Trace) -> TemplateProbe {
    let deps = &template.spec.dependencies;
    let compiled = CompiledWorkflow::compile(deps, GuardScope::Mentioning);

    let mut queries = 0u64;
    let residuate_ns = best_of(PROBE_REPS, || {
        // A fresh arena each time: its memo tables persist for its lifetime.
        let mut arena = ExprArena::new();
        let ids: Vec<_> = deps.iter().map(|d| arena.intern(d)).collect();
        let asks: Vec<(_, Literal)> = ids
            .iter()
            .flat_map(|&id| arena.alphabet(id).into_iter().map(move |l| (id, l)))
            .collect();
        queries = asks.len() as u64;
        timed(|| {
            for &(id, lit) in &asks {
                black_box(arena.residuate(id, lit));
            }
        })
        .1
    });

    let evals = compiled.guards.len() as u64 * (realized.len() as u64 + 1);
    let eval_ns = best_of(PROBE_REPS, || {
        timed(|| {
            for guard in compiled.guards.values() {
                for i in 0..=realized.len() {
                    black_box(guard.eval(realized, i));
                }
            }
        })
        .1
    });

    let (mut product_reach_ns, mut analyze_ns, mut states_explored) = (None, None, 0);
    if let Some(lowered) = &template.lowered {
        let machines = DependencyMachine::compile_all(&lowered.ground_deps);
        product_reach_ns = Some(best_of(PROBE_REPS, || {
            let machines = machines.clone();
            timed(|| {
                let mut product = ProductMachine::from_machines(machines);
                let mut budget = StateBudget::new(analyze::DEFAULT_STATE_BUDGET);
                black_box(product.reach_accepting(None, &mut budget));
            })
            .1
        }) as f64);
        analyze_ns = Some(best_of(3, || {
            let (report, ns) =
                timed(|| analyze::analyze_workflow(lowered, &AnalyzeOptions::default()));
            states_explored = report.states_explored as u64;
            ns
        }) as f64);
    }
    TemplateProbe {
        guard_size: compiled.total_guard_size() as u64,
        machine_states: compiled.total_machine_states() as u64,
        residuate_ns_per_query: ratio(residuate_ns as f64, queries as f64),
        guard_eval_ns_per_eval: ratio(eval_ns as f64, evals as f64),
        product_reach_ns,
        analyze_ns,
        states_explored,
    }
}

/// Mix-weighted mean of a per-template value over the templates that have it.
fn mix_mean(weights: &[u32], values: impl Iterator<Item = Option<f64>>) -> f64 {
    let (mut num, mut den) = (0.0, 0.0);
    for (&w, v) in weights.iter().zip(values) {
        if let Some(v) = v {
            num += f64::from(w) * v;
            den += f64::from(w);
        }
    }
    ratio(num, den)
}

/// A no-op process: forwards a hop counter around a ring until it is spent.
struct Echo {
    next: NodeId,
}

impl Process<u32> for Echo {
    fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _from: NodeId, hops: u32) {
        if hops > 0 {
            ctx.send(self.next, hops - 1);
        }
    }
}

/// Host ns per delivery of `deliveries` messages through no-op processes:
/// the simulator's own floor under `sim.queue_ns_per_msg`.
fn echo_ns_per_msg(deliveries: u64) -> f64 {
    const RING: u32 = 8;
    const TOKENS: u32 = 16;
    let hops = (deliveries / u64::from(TOKENS)).max(1) as u32;
    let ns = best_of(3, || {
        let nodes = (0..RING).map(|i| (SiteId(i), Echo { next: NodeId((i + 1) % RING) }));
        let mut net: Network<u32, Echo> = Network::new(SimConfig::default(), nodes);
        for t in 0..TOKENS {
            net.inject(NodeId(t % RING), NodeId((t + 1) % RING), hops - 1);
        }
        timed(|| black_box(net.run_to_quiescence(u64::MAX))).1
    });
    ns as f64 / (u64::from(hops) * u64::from(TOKENS)) as f64
}

/// `MetricsRegistry::snapshot` on a registry filled like one run's.
fn metrics_snapshot_ns(like: &obs::MetricsSnapshot) -> f64 {
    let reg = MetricsRegistry::new();
    fn labels(k: &[(String, String)]) -> Vec<(&str, &str)> {
        k.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect()
    }
    for (k, v) in &like.counters {
        reg.add(&k.name, &labels(&k.labels), *v);
    }
    for (k, v) in &like.gauges {
        reg.set_gauge(&k.name, &labels(&k.labels), *v);
    }
    for (k, h) in &like.histograms {
        reg.merge_buckets(&k.name, &labels(&k.labels), &h.buckets, h.sum);
    }
    const CALLS: u64 = 200;
    let ns = best_of(PROBE_REPS, || {
        timed(|| {
            for _ in 0..CALLS {
                black_box(reg.snapshot());
            }
        })
        .1
    });
    ns as f64 / CALLS as f64
}

/// `NodeStore::append` in isolation, over a store shaped like a small
/// fleet's (64 instances × 8 nodes).
fn journal_append_ns() -> f64 {
    const APPENDS: u64 = 50_000;
    let ns = best_of(PROBE_REPS, || {
        let store = NodeStore::new();
        timed(|| {
            for i in 0..APPENDS {
                store.append(
                    InstanceId(i % 64),
                    (i % 8) as u32,
                    WalEntry {
                        from: NodeId((i % 8) as u32),
                        msg: Msg::Kick,
                        at: i,
                        delivery_seq: i,
                        env_seq: None,
                    },
                );
            }
            black_box(store.total());
        })
        .1
    });
    ns as f64 / APPENDS as f64
}

/// One instance of the plain (fault-free, unhardened) configuration with
/// the flight recorder on. `instance_exec` forces recording off, as the
/// fleet does; the recorder is a single-run artifact, so it is set per run.
fn recorded_run(inputs: &Inputs, arrival: &Arrival) -> (dist::WorkflowSpec, RunReport) {
    let spec = arrival.apply_to_spec(&inputs.specs[arrival.spec_ix]);
    let mut exec = plain_tenant(inputs).instance_exec(arrival);
    exec.record = Some(RecordConfig::default());
    let report = black_box(run_workflow(&spec, exec));
    (spec, report)
}

/// The state the sections of one traced pass share.
struct Pass<'a> {
    inputs: &'a Inputs,
    seed: u64,
    /// The first `sample` arrivals of the first input set: what the
    /// parallel-runtime probes run on.
    probe: &'a [Arrival],
    /// At most `TRACE_OPS` of them: decomposed operations, counts, toggles.
    small: &'a [Arrival],
    /// Monitors armed, fault-free, unhardened. The one-call side of a
    /// decomposed operation uses it on every workload: `dist`'s hardened
    /// node wrapper is crate-private, so the public pieces can only
    /// rebuild the plain path.
    plain_exec: ExecConfig,
    values: Values,
    attempted: u64,
    failed: u64,
}

impl Pass<'_> {
    /// Decomposed operations, untraced and traced in adjacent rounds,
    /// until `budget_secs` are spent (two pairs at the least).
    fn decomposed(&mut self, budget_secs: f64) -> Vec<Span> {
        let inputs = self.inputs;
        let check = inputs.shape.kind == Kind::Check;
        let mut rec = Recorder::new();
        let mut off = Recorder::disabled();
        let (mut traced_ns, mut untraced_ns) = (0u64, 0u64);
        let mut deliveries = 0u64;
        let phase = Instant::now();
        let mut pairs = 0u64;
        while pairs < 2 || phase.elapsed().as_secs_f64() < budget_secs {
            for traced_round in [false, true] {
                let r = if traced_round { &mut rec } else { &mut off };
                // Time of the operations of the workload's own kind.
                let mut own_ns = 0u64;
                for (ix, a) in self.small.iter().enumerate() {
                    r.set_op(ix as u32);
                    let template = &inputs.templates[a.spec_ix];
                    let (d, ns) = timed(|| decomposed_op(r, template, a, &self.plain_exec));
                    self.attempted += 1;
                    self.failed += u64::from(!d.same_occurrences || run_failed(&d.report));
                    if traced_round {
                        deliveries += d.report.steps;
                    }
                    if check {
                        let (ok, ns) = timed(|| decomposed_check(r, template));
                        self.attempted += 1;
                        self.failed += u64::from(!ok);
                        own_ns += ns;
                    } else {
                        own_ns += ns;
                    }
                }
                if traced_round {
                    traced_ns += own_ns;
                } else {
                    untraced_ns += own_ns;
                }
            }
            pairs += 1;
        }
        let totals = totals_by_name(rec.spans());
        let of = |name: &str| totals.get(name).copied().unwrap_or_default();
        let per = |t: NameTotals| ratio(t.total_ns as f64, t.count as f64);
        let ops = of("op").count as f64;
        let own_op = of(if check { "check_op" } else { "op" });
        let v = &mut self.values;
        v.set("speclang.parse_ns_per_spec", per(of("speclang.parse")));
        v.set("core.from_spec_ns_per_spec", per(of("core.from_spec")));
        v.set("guard.compile_ns_per_spec", per(of("guard.compile")));
        v.set(
            "event-algebra.machine_compile_ns_per_spec",
            per(of("event-algebra.machine_compile")),
        );
        v.set("dist.build_ns_per_op", per(of("dist.build")));
        let build_self = of("dist.build").total_ns.saturating_sub(of("guard.compile").total_ns);
        v.set("dist.build_self_ns_per_op", ratio(build_self as f64, ops));
        v.set("dist.handler_ns_per_msg", per(of("dist.handler")));
        v.set(
            "sim.queue_ns_per_msg",
            ratio(of("sim.run").self_ns as f64, of("dist.handler").count as f64),
        );
        let report_ns = of("dist.run_workflow")
            .total_ns
            .saturating_sub(of("dist.build").total_ns + of("sim.run").total_ns);
        v.set("dist.report_ns_per_op", ratio(report_ns as f64, ops));
        v.set("bench.trace_overhead_ratio", ratio(traced_ns as f64, untraced_ns as f64));
        v.set("bench.trace_residual_share", ratio(own_op.self_ns as f64, own_op.total_ns as f64));
        v.set("sim.echo_ns_per_msg", echo_ns_per_msg(deliveries / pairs));
        rec.into_spans()
    }

    /// The static layers, per distinct template.
    fn static_layers(&mut self) {
        let weights = self.inputs.weights();
        let probes: Vec<TemplateProbe> = self
            .inputs
            .templates
            .iter()
            .map(|t| {
                let mut cfg = self.plain_exec.clone();
                cfg.sim.seed = self.seed;
                // `Guard::eval` is defined on maximal traces only.
                probe_template(t, &run_workflow(&t.spec, cfg).maximal_trace)
            })
            .collect();
        let total = |f: fn(&TemplateProbe) -> u64| probes.iter().map(f).sum::<u64>() as f64;
        let mean = |f: fn(&TemplateProbe) -> Option<f64>| mix_mean(&weights, probes.iter().map(f));
        let v = &mut self.values;
        v.set("guard.guard_size_total", total(|p| p.guard_size));
        v.set("event-algebra.machine_states_total", total(|p| p.machine_states));
        v.set("event-algebra.residuate_ns_per_query", mean(|p| Some(p.residuate_ns_per_query)));
        v.set("temporal.guard_eval_ns_per_eval", mean(|p| Some(p.guard_eval_ns_per_eval)));
        v.set("event-algebra.product_reach_ns_per_spec", mean(|p| p.product_reach_ns));
        v.set("analyze.check_ns_per_spec", mean(|p| p.analyze_ns));
        v.set("analyze.states_explored", total(|p| p.states_explored));
    }

    /// Counts, from the workload's own configuration one instance at a time.
    fn counts(&mut self) {
        let own = solo_loop(self.inputs, self.small, &self.inputs.tenant);
        let mut sums = ReportSums::default();
        for r in &own {
            sums.absorb(r);
        }
        self.attempted += sums.reports;
        self.failed += sums.failed;
        let per = |n: u64, d: u64| ratio(n as f64, d as f64);
        let v = &mut self.values;
        v.set("dist.steps_per_event", per(sums.steps, sums.events));
        v.set("dist.promises_per_event", per(sums.promises, sums.events));
        v.set("dist.promise_abort_share", per(sums.promise_aborts, sums.promises));
        v.set("dist.reductions_per_event", per(sums.reductions, sums.events));
        v.set("dist.remote_msg_share", per(sums.sent_remote, sums.sent));
        v.set("monitor.facts_per_event", per(sums.monitor_facts, sums.events));
        v.set("monitor.guard_checks_per_event", per(sums.monitor_guard_checks, sums.events));
        v.set("obs.metrics_series_per_report", per(sums.metric_series, sums.reports));
        v.set("dist.reliable.retransmissions_per_msg", per(sums.retransmissions, sums.sent));
        v.set("dist.reliable.dedup_dropped_per_msg", per(sums.dedup_dropped, sums.sent));
        v.set("dist.reliable.gave_up", sums.gave_up as f64);
        v.set("sim.faults.dropped_share", per(sums.dropped, sums.sent));
        v.set("sim.faults.duplicated_share", per(sums.duplicated, sums.sent));
        v.set("sim.faults.restarts", sums.restarts as f64);
        v.set("obs.metrics_snapshot_ns", metrics_snapshot_ns(&own[0].metrics));
    }

    /// Monitor, recorder, tenant, transport and journal: one public config
    /// field toggled between adjacent rounds.
    fn toggles(&mut self) {
        let (inputs, small) = (self.inputs, self.small);
        let v = &mut self.values;
        v.set(
            "monitor.overhead_ratio",
            toggle_ratio(|| engine_ns(inputs, small, true), || engine_ns(inputs, small, false)),
        );

        let plain = plain_tenant(inputs);
        v.set(
            "obs.recorder_overhead_ratio",
            toggle_ratio(
                || timed(|| small.iter().for_each(|a| drop(recorded_run(inputs, a)))).1,
                || timed(|| solo_loop(inputs, small, &plain)).1,
            ),
        );
        let (mut spans, mut events, mut json_ns, mut replay_ns, mut facts) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        for a in small {
            let (spec, report) = recorded_run(inputs, a);
            let recording = report.recording.as_ref().expect("recording was requested");
            spans += recording.events.len() as u64;
            events += report.occurrences.len() as u64;
            json_ns += timed(|| black_box(recording.to_json_string())).1;
            let (replayed, ns) = timed(|| {
                monitor::replay(
                    &recording.events,
                    &spec.table,
                    &spec.dependencies,
                    guard_gated(&spec),
                    monitor::MonitorConfig::default(),
                )
            });
            replay_ns += ns;
            facts += replayed.facts;
        }
        v.set("obs.spans_per_event", ratio(spans as f64, events as f64));
        v.set("obs.recording_json_ns_per_span", ratio(json_ns as f64, spans as f64));
        v.set("monitor.replay_ns_per_fact", ratio(replay_ns as f64, facts as f64));

        let own = &inputs.tenant;
        let (report, first_ns) = timed(|| run_tenant(&inputs.specs, small, own));
        let own_ns = first_ns.min(best_of(TOGGLE_PAIRS - 1, || tenant_ns(inputs, small, own)));
        v.set("dist.tenant.ns_per_event", ratio(own_ns as f64, report.events as f64));
        let appends = report.wal.as_ref().map_or(0, NodeStore::total);
        v.set("dist.journal.appends_per_event", ratio(appends as f64, report.events as f64));
        drop(report);
        v.set(
            "dist.tenant.solo_ratio",
            toggle_ratio(
                || timed(|| solo_loop(inputs, small, own)).1,
                || tenant_ns(inputs, small, own),
            ),
        );
        let mut two_shards = own.clone();
        two_shards.shards = 2;
        v.set(
            "dist.tenant.shards2_ratio",
            toggle_ratio(
                || tenant_ns(inputs, small, &two_shards),
                || tenant_ns(inputs, small, own),
            ),
        );
        let mut journaled = plain.clone();
        journaled.plan = Some(FaultPlan::new(self.seed)); // a clean plan: no fault, but a WAL
        let mut hardened = journaled.clone();
        hardened.exec.reliable = Some(ReliableConfig::default());
        v.set(
            "dist.reliable.overhead_ratio",
            toggle_ratio(
                || tenant_ns(inputs, small, &hardened),
                || tenant_ns(inputs, small, &journaled),
            ),
        );
        v.set(
            "dist.journal.overhead_ratio",
            toggle_ratio(
                || tenant_ns(inputs, small, &journaled),
                || tenant_ns(inputs, small, &plain),
            ),
        );
        v.set("dist.journal.append_ns", journal_append_ns());
    }

    /// The parallel runtime on this workload's arrivals.
    fn parallel(&mut self) {
        let (inputs, probe) = (self.inputs, self.probe);
        let exec_of = |workers: usize| {
            let mut exec = self.plain_exec.clone();
            exec.parallel = Some(ParallelConfig::new(workers));
            exec
        };
        let (one, two) = (exec_of(1), exec_of(2));
        let fleet = |arrivals: &[Arrival], exec: &ExecConfig| {
            timed(|| black_box(run_parallel_fleet(&inputs.specs, arrivals, exec)))
        };
        let plain = plain_tenant(inputs);
        let v = &mut self.values;
        v.set(
            "sim.parallel.speedup_2v1",
            toggle_ratio(|| fleet(probe, &one).1, || fleet(probe, &two).1),
        );
        v.set(
            "sim.parallel.vs_tenant_ratio",
            toggle_ratio(|| tenant_ns(inputs, probe, &plain), || fleet(probe, &one).1),
        );
        let (at_one, at_two) = (fleet(probe, &one).0, fleet(probe, &two).0);
        self.attempted += 2 * probe.len() as u64;
        for f in [&at_one, &at_two] {
            let bad = f.instances.iter().filter(|o| f.exhausted > 0 || run_failed(&o.report));
            self.failed += bad.count() as u64;
        }
        let st = &at_one.stats;
        let share = |ns: u64| ratio(ns as f64, st.wall_ns as f64);
        v.set("sim.parallel.rounds", st.rounds as f64);
        v.set("sim.parallel.max_round_width", st.max_round_width as f64);
        v.set("sim.parallel.steals", at_two.stats.steals as f64);
        v.set("sim.parallel.busy_share", share(st.busy_ns));
        v.set("sim.parallel.merge_share", share(st.merge_ns));
        v.set(
            "sim.parallel.residual_share",
            share(st.wall_ns.saturating_sub(st.busy_ns + st.merge_ns)),
        );
        drop((at_one, at_two));
        // Host ns per event at four times the probe's instances over ns
        // per event at the probe's size: same generator and gap, one worker.
        let ns_per_event_at = |n: usize, stream: u64| {
            let mut rng = SplitMix64::fork(self.seed, stream);
            let arrivals = generate_set(
                &inputs.templates,
                &inputs.weights(),
                n,
                inputs.shape.mean_gap,
                &mut rng,
            );
            let (first, first_ns) = fleet(&arrivals, &one);
            ratio(first_ns.min(fleet(&arrivals, &one).1) as f64, first.events as f64)
        };
        v.set(
            "sim.parallel.scale_ratio_4x",
            ratio(
                ns_per_event_at(4 * probe.len(), (1 << 33) + 1),
                ns_per_event_at(probe.len(), 1 << 33),
            ),
        );
    }

    /// Allocations of the workload's own engine over the sample, untraced.
    fn allocations(&mut self) {
        let (round, allocs, bytes) = counted(|| run_arrivals(self.inputs, self.small));
        self.values.set("alloc.count_per_event", ratio(allocs as f64, round.events as f64));
        self.values.set("alloc.bytes_per_event", ratio(bytes as f64, round.events as f64));
    }
}

pub fn run(shape: &'static Shape, opts: &RunOpts) -> Result<Outcome, String> {
    let inputs = make_inputs(shape, opts)?;
    black_box(run_round(&inputs, 0)); // the same warm-up the untraced pass does
    let set0 = &inputs.sets[0];
    let probe = &set0[..opts.scaled(shape.sample).min(set0.len())];
    let mut plain_exec = inputs.tenant.exec.clone();
    plain_exec.reliable = None;
    let mut pass = Pass {
        inputs: &inputs,
        seed: opts.seed,
        probe,
        small: &probe[..probe.len().min(TRACE_OPS)],
        plain_exec,
        values: Values::default(),
        attempted: 0,
        failed: 0,
    };
    let spans = pass.decomposed(opts.seconds * DECOMPOSED_SHARE);
    pass.static_layers();
    pass.counts();
    pass.toggles();
    pass.parallel();
    pass.allocations();
    Ok(Outcome { values: pass.values, attempted: pass.attempted, failed: pass.failed, spans })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toggle_ratio_is_best_over_best() {
        let mut nums = [30u64, 20, 25, 40, 22].into_iter();
        let mut dens = [10u64, 12, 11, 10, 15].into_iter();
        let r = toggle_ratio(|| nums.next().unwrap(), || dens.next().unwrap());
        assert!((r - 2.0).abs() < 1e-12, "{r}");
    }

    #[test]
    fn mix_mean_weights_and_skips_missing() {
        let m = mix_mean(&[3, 1, 6], [Some(10.0), Some(30.0), None].into_iter());
        assert!((m - 15.0).abs() < 1e-12);
        assert_eq!(mix_mean(&[1], [None].into_iter()), 0.0);
    }

    #[test]
    fn echo_ring_delivers_every_hop() {
        assert!(echo_ns_per_msg(1600) > 0.0);
    }
}
