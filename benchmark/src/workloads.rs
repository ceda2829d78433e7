//! The five workloads: what each is made of, how its inputs come out of
//! `--seed`, and how one round of it runs and is checked.
//!
//! The program under test receives only specs, `Arrival`s and configs;
//! every random choice is made here with the benchmark's own generator.

use crate::rng::SplitMix64;
use analyze::{AnalyzeOptions, Severity};
use constrained_events::{models, Workflow, WorkflowBuilder};
use dist::{
    run_parallel_fleet, run_tenant, run_workflow, run_workflow_with_faults, Arrival, ExecConfig,
    ReliableConfig, RunReport, TenantConfig, WorkflowSpec,
};
use monitor::MonitorConfig;
use sim::{FaultPlan, NodeId, ParallelConfig, SiteId, Termination};
use speclang::LoweredWorkflow;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Closed loop, one client: source form → `WorkflowSpec` →
    /// `dist::run_workflow` → `RunReport`, one instance at a time.
    Solo,
    /// Batch: one `dist::run_tenant` call per round.
    Tenant,
    /// Batch: one `dist::run_parallel_fleet` call per round.
    Parallel,
    /// Closed loop, one client: spec text → `LoweredWorkflow::parse` →
    /// `analyze::analyze_workflow` → `Report`.
    Check,
}

/// The fixed shape of a workload. Everything here is part of the
/// benchmark's definition: changing a number starts a new baseline.
#[derive(Debug)]
pub struct Shape {
    pub name: &'static str,
    pub kind: Kind,
    /// Templates and their weights. The instances of a round are
    /// apportioned to the weights exactly (largest remainder), then
    /// shuffled, so every round of every seed has the same composition.
    pub mix: &'static [(&'static str, u32)],
    pub ops_per_round: usize,
    /// Distinct input sets, cycled round by round. A timed phase runs at
    /// least this many rounds so the sim metrics cover every set; few sets
    /// where rounds are long, so each set still repeats many times a run.
    pub sets: usize,
    /// Mean virtual gap between arrivals (uniform in `[0, 2·gap]`).
    pub mean_gap: u64,
    /// Whether the engine runs hardened under the fault plan.
    pub faulty: bool,
    /// Instances the traced pass's probes run on.
    pub sample: usize,
}

pub const SHAPES: &[Shape] = &[
    Shape {
        name: "solo_cold",
        kind: Kind::Solo,
        // saga4 is exactly 2 %, so the within-round p99 is the median
        // saga4 latency while the p50 sits on the small specs.
        mix: &[
            ("travel", 300),
            ("pipeline10", 300),
            ("diamond", 200),
            ("contingency", 80),
            ("saga3", 100),
            ("saga4", 20),
        ],
        ops_per_round: 1000,
        sets: 4,
        mean_gap: 8,
        faulty: false,
        sample: 200,
    },
    Shape {
        name: "fleet_steady",
        kind: Kind::Tenant,
        mix: FLEET_MIX,
        ops_per_round: 500,
        sets: 8,
        mean_gap: 8,
        faulty: false,
        sample: 200,
    },
    Shape {
        name: "fleet_faulty",
        kind: Kind::Tenant,
        // The steady mix without saga3, and saga4 absent as there: sagas
        // end unsatisfied under this plan on some seeds (README.md, "Sagas
        // under faults"), and a workload's operations must not fail.
        mix: &[("travel", 6), ("pipeline10", 3), ("diamond", 2), ("contingency", 1)],
        ops_per_round: 300,
        sets: 8,
        mean_gap: 8,
        faulty: true,
        sample: 150,
    },
    Shape {
        name: "fleet_parallel",
        kind: Kind::Parallel,
        mix: &[("pipeline10", 1)],
        ops_per_round: 1000,
        sets: 4,
        // Gap 1 keeps about 50 instances in flight; with the default gap
        // rounds are too narrow to occupy a second worker.
        mean_gap: 1,
        faulty: false,
        sample: 1000,
    },
    Shape {
        name: "check_static",
        kind: Kind::Check,
        // The two pipeline12 checks are most of a round, so `ops_per_s`
        // follows product-automaton growth while the p50 sits on travel.
        mix: &[("travel", 40), ("pipeline10", 20), ("pipeline12", 2)],
        ops_per_round: 62,
        sets: 1,
        mean_gap: 8,
        faulty: false,
        sample: 62,
    },
];

const FLEET_MIX: &[(&str, u32)] =
    &[("travel", 6), ("pipeline10", 3), ("diamond", 2), ("saga3", 2), ("contingency", 1)];

pub fn shape(name: &str) -> Option<&'static Shape> {
    SHAPES.iter().find(|s| s.name == name)
}

/// Think times on driven free events are heavy-tailed: `THINK_NUM / u`
/// ticks for uniform `u` in `[THINK_U_MIN, THINK_U_MAX]`, i.e. 4 to 256
/// ticks with mean 17 — most instances think briefly, a few two orders of
/// magnitude longer, which keeps many instances live at once in an
/// open-loop fleet. The tail has no cap and so no atom: a capped tail
/// puts about 1 % of all occurrences on one tick value, exactly where
/// `sim_fire_p99_ticks` reads, and the metric then jumps with the seed.
const THINK_NUM: u64 = 4096;
const THINK_U_MIN: u64 = 16;
const THINK_U_MAX: u64 = 1024;

/// Real worker threads of `fleet_parallel`: what this 2-vCPU host has.
pub const PARALLEL_WORKERS: usize = 2;

/// Instances in `check_static`'s companion execution.
const COMPANION_INSTANCES: usize = 2000;

/// Fleet-wide delivery budget; far above what any round needs, so a
/// `BudgetExhausted` is a product failure, not a tight setting.
const MAX_STEPS: u64 = 20_000_000;

/// Where a template's workflow comes from.
pub enum Source {
    /// A frozen `.wf` text under `benchmark/specs/`.
    Text(String),
    /// A `constrained_events::models` constructor.
    Model(fn() -> Workflow),
}

impl Source {
    /// Source form → driven `WorkflowSpec`: the compile-side half of a
    /// `solo_cold` operation.
    pub fn instantiate(&self) -> Result<Workflow, String> {
        let mut wf = match self {
            Source::Text(text) => {
                WorkflowBuilder::from_spec(text).map_err(|e| e.message.clone())?.build()
            }
            Source::Model(ctor) => ctor(),
        };
        drive(&mut wf.spec);
        Ok(wf)
    }
}

pub struct Template {
    pub source: Source,
    /// The template as fleets instantiate it: every controllable free
    /// event the source leaves unattempted is attempted at start.
    pub spec: WorkflowSpec,
    /// The lowered text, for the static checker (text templates only).
    pub lowered: Option<LoweredWorkflow>,
    /// Expected diagnostic codes with counts (text templates only).
    pub expected_codes: Option<Vec<(String, u64)>>,
}

fn model_of(name: &str) -> Option<fn() -> Workflow> {
    Some(match name {
        "diamond" => || models::diamond(3),
        "contingency" => || models::contingency(3, false),
        "saga3" => || models::saga(3, 3, Some(1)),
        "saga4" => || models::saga(4, 3, None),
        _ => return None,
    })
}

/// Attempt every controllable free event the source leaves undriven.
fn drive(spec: &mut WorkflowSpec) {
    for f in &mut spec.free_events {
        if f.attrs.controllable && f.attempt_after.is_none() {
            f.attempt_after = Some(1);
        }
    }
}

impl Template {
    fn load(name: &'static str, dir: &Path) -> Result<Template, String> {
        let (source, lowered, expected_codes) = match model_of(name) {
            Some(ctor) => (Source::Model(ctor), None, None),
            None => {
                let path = dir.join("specs").join(format!("{name}.wf"));
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                let lowered = LoweredWorkflow::parse(&text)
                    .map_err(|e| format!("{}: {}", path.display(), e.message))?;
                let expected = read_expected(&dir.join("expected").join(format!("{name}.codes")))?;
                (Source::Text(text), Some(lowered), Some(expected))
            }
        };
        let spec = source.instantiate()?.spec;
        Ok(Template { source, spec, lowered, expected_codes })
    }

    /// Whether a checker report is the verdict `expected/` wrote down.
    pub fn verdict_matches(&self, report: &analyze::Report) -> bool {
        Some(verdict_codes(report)) == self.expected_codes
    }

    /// Events the static checker reasons about in this template.
    pub fn checked_events(&self) -> u64 {
        self.lowered.as_ref().map_or(0, |l| l.table.len() as u64)
    }
}

/// `CODE COUNT` per line; `#` starts a comment.
fn read_expected(path: &Path) -> Result<Vec<(String, u64)>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(code), Some(count), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!("{}: expected `CODE COUNT`, got `{line}`", path.display()));
        };
        let count: u64 =
            count.parse().map_err(|_| format!("{}: bad count in `{line}`", path.display()))?;
        out.push((code.to_owned(), count));
    }
    out.sort();
    Ok(out)
}

/// A checker verdict reduced to what the expected files pin: the
/// multiset of diagnostic codes, with errors and warnings counted under
/// the pseudo-codes `errors` / `warnings` when present.
fn verdict_codes(report: &analyze::Report) -> Vec<(String, u64)> {
    let mut counts: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for d in &report.diagnostics {
        *counts.entry(d.code.to_owned()).or_insert(0) += 1;
    }
    for (sev, label) in [(Severity::Error, "errors"), (Severity::Warning, "warnings")] {
        let n = report.count(sev) as u64;
        if n > 0 {
            counts.insert(label.to_owned(), n);
        }
    }
    if report.incomplete {
        counts.insert("incomplete".to_owned(), 1);
    }
    counts.into_iter().collect()
}

/// Split `n` instances over `weights` exactly: floor shares first, the
/// remainder to the largest fractional parts (ties to the earlier one).
pub fn apportion(n: usize, weights: &[u32]) -> Vec<usize> {
    let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
    assert!(total > 0, "all-zero weights");
    let mut counts: Vec<usize> =
        weights.iter().map(|&w| (n as u64 * u64::from(w) / total) as usize).collect();
    let mut rest: Vec<(u64, usize)> =
        weights.iter().enumerate().map(|(ix, &w)| (n as u64 * u64::from(w) % total, ix)).collect();
    rest.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let assigned: usize = counts.iter().sum();
    for &(_, ix) in rest.iter().take(n - assigned) {
        counts[ix] += 1;
    }
    counts
}

/// One input set of `n` arrivals: template picks apportioned to the mix
/// and shuffled, open-loop virtual arrival times, a network seed per
/// instance, and heavy-tailed think-time overrides on half of the driven
/// free events.
pub fn generate_set(
    templates: &[Template],
    weights: &[u32],
    n: usize,
    mean_gap: u64,
    rng: &mut SplitMix64,
) -> Vec<Arrival> {
    let mut picks: Vec<usize> = apportion(n, weights)
        .into_iter()
        .enumerate()
        .flat_map(|(ix, count)| std::iter::repeat_n(ix, count))
        .collect();
    rng.shuffle(&mut picks);
    let mut at = 0u64;
    picks
        .into_iter()
        .enumerate()
        .map(|(i, spec_ix)| {
            at += rng.range_inclusive(0, mean_gap.max(1) * 2);
            let mut arrival = Arrival::new(i as u64, spec_ix, at, rng.next_u64());
            for f in &templates[spec_ix].spec.free_events {
                if f.attempt_after.is_some() && f.attrs.controllable && rng.coin() {
                    let u = rng.range_inclusive(THINK_U_MIN, THINK_U_MAX);
                    arrival.think.push((f.lit, THINK_NUM / u));
                }
            }
            arrival
        })
        .collect()
}

/// Everything a run of one workload needs, made from the seed.
pub struct Inputs {
    pub shape: &'static Shape,
    pub templates: Vec<Template>,
    /// `templates[i].spec`, contiguous, as the fleet engines take them.
    pub specs: Vec<WorkflowSpec>,
    pub sets: Vec<Vec<Arrival>>,
    /// `Check` only: the instances of the companion execution that gives
    /// a workload without a runtime its sim metrics (see
    /// [`companion_sim`]). Many more than a round has operations, so the
    /// fire-latency quantiles do not hang on a handful of occurrences.
    pub companion: Vec<Arrival>,
    /// Monitors armed, as documented for production; hardened when the
    /// shape is faulty; the worker pool when it is parallel.
    pub exec: ExecConfig,
    pub tenant: TenantConfig,
}

impl Inputs {
    pub fn weights(&self) -> Vec<u32> {
        self.shape.mix.iter().map(|&(_, w)| w).collect()
    }
}

/// The fault plan of `fleet_faulty`. Its seed is part of the workload's
/// definition, not of the seeded inputs: `run_tenant` hands every instance
/// a clone of the one plan, so all instances of a run draw the same
/// stream of drop/duplicate decisions, and a plan seed that moved with
/// `--seed` moved the whole fleet's fate with it (`sim_fire_p50_ticks`
/// between 150 and 700 over seven seeds). The arrivals, network seeds and
/// think times still come from `--seed`.
pub fn fault_plan() -> FaultPlan {
    FaultPlan::new(0xFA17)
        .drop_rate(0.2)
        .duplicate_rate(0.2)
        .jitter(0, 20)
        .partition(SiteId(0), SiteId(1), 20, 400)
        .crash(NodeId(0), 40, Some(300))
}

/// How one run was asked for.
pub struct RunOpts<'a> {
    pub seed: u64,
    /// How long the timed rounds (or the traced pass's decomposed rounds
    /// and probes together) should take, in host seconds.
    pub seconds: f64,
    /// The benchmark's directory: `specs/` and `expected/` are read from
    /// it, `out/` is written under it.
    pub dir: &'a Path,
    /// Divides the operations per round and the probe sample: 1 in every
    /// measured run, larger only in `--selfcheck`'s tiny rounds.
    pub scale: usize,
}

impl RunOpts<'_> {
    pub fn scaled(&self, n: usize) -> usize {
        (n / self.scale.max(1)).max(1)
    }
}

/// Load the spec texts, build the templates and generate every input set:
/// the part of set-up that does not run the program.
pub fn make_inputs(shape: &'static Shape, opts: &RunOpts) -> Result<Inputs, String> {
    let (seed, dir) = (opts.seed, opts.dir);
    let templates: Vec<Template> =
        shape.mix.iter().map(|&(name, _)| Template::load(name, dir)).collect::<Result<_, _>>()?;
    let weights: Vec<u32> = shape.mix.iter().map(|&(_, w)| w).collect();
    let per_round = opts.scaled(shape.ops_per_round);
    let sets = (0..shape.sets)
        .map(|k| {
            let mut rng = SplitMix64::fork(seed, k as u64);
            generate_set(&templates, &weights, per_round, shape.mean_gap, &mut rng)
        })
        .collect();
    let companion = if shape.kind == Kind::Check {
        let mut rng = SplitMix64::fork(seed, 1 << 34);
        let n = opts.scaled(COMPANION_INSTANCES);
        generate_set(&templates, &weights, n, shape.mean_gap, &mut rng)
    } else {
        Vec::new()
    };
    let mut exec = ExecConfig::seeded(seed);
    exec.max_steps = MAX_STEPS;
    exec.monitor = Some(MonitorConfig::default());
    if shape.faulty {
        exec.reliable = Some(ReliableConfig::default());
    }
    if shape.kind == Kind::Parallel {
        exec.parallel = Some(ParallelConfig::new(PARALLEL_WORKERS));
    }
    let mut tenant = TenantConfig::new(exec.clone());
    tenant.exec.parallel = None;
    if shape.faulty {
        tenant.plan = Some(fault_plan());
    }
    let specs = templates.iter().map(|t| t.spec.clone()).collect();
    Ok(Inputs { shape, templates, specs, sets, companion, exec, tenant })
}

/// The simulator-side outcome of a round: counts and virtual ticks that
/// must repeat exactly for a commit and seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    pub events: u64,
    pub msgs: u64,
    /// Virtual ticks from an instance's admission to each occurrence.
    pub fire: Vec<u64>,
    /// Order-sensitive hash of every `(instance, literal, tick, seq)`.
    pub digest: u64,
}

impl SimStats {
    fn absorb(&mut self, instance: u64, at: u64, report: &RunReport) {
        for &(lit, t, seq) in &report.occurrences {
            let fire = t.saturating_sub(at);
            self.fire.push(fire);
            for v in [instance, lit.index() as u64, fire, seq] {
                self.digest = (self.digest ^ v).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(23);
            }
        }
        self.events += report.occurrences.len() as u64;
    }
}

/// One round's result.
#[derive(Debug, Default)]
pub struct Round {
    /// Host time of each unit of work, in input order: one entry per
    /// operation in the closed-loop kinds, a single entry (the one engine
    /// call) in the batch kinds, whose operations all complete with the
    /// batch. Checking and bookkeeping are outside these times.
    pub unit_ns: Vec<u64>,
    pub ops: u64,
    /// Occurred workflow events; in `Check`, the spec events checked.
    pub events: u64,
    pub failed: u64,
    /// `None` in `Check`, which runs no workflow.
    pub sim: Option<SimStats>,
}

impl Round {
    /// Host time attributed to the program in this round.
    pub fn wall_ns(&self) -> u64 {
        self.unit_ns.iter().sum()
    }
}

/// A run that did not end the way a correct one must.
pub fn run_failed(report: &RunReport) -> bool {
    !report.all_satisfied()
        || report.termination != Termination::Quiescent
        || report.alerts.iter().any(|a| a.kind.is_violation())
}

/// Fold an arrival's think-time overrides into a freshly built spec, in
/// place (the same rule as `Arrival::apply_to_spec`, without its clone).
pub fn apply_think(spec: &mut WorkflowSpec, arrival: &Arrival) {
    for &(lit, t) in &arrival.think {
        for f in &mut spec.free_events {
            if f.lit == lit && f.attempt_after.is_some() {
                f.attempt_after = Some(t.max(1));
            }
        }
    }
}

/// One `solo_cold` operation: source form → spec → `RunReport`.
pub fn solo_op(template: &Template, arrival: &Arrival, exec: &ExecConfig) -> (u64, RunReport) {
    let started = Instant::now();
    let mut wf = template.source.instantiate().expect("template sources were validated at load");
    apply_think(&mut wf.spec, arrival);
    let mut cfg = exec.clone();
    cfg.sim.seed = arrival.seed;
    let report = black_box(run_workflow(black_box(&wf.spec), cfg));
    (started.elapsed().as_nanos() as u64, report)
}

/// One `check_static` operation: spec text → verdict. Returns the host
/// time and whether the verdict matches the hand-written expectation.
pub fn check_op(template: &Template) -> (u64, bool) {
    let Source::Text(text) = &template.source else {
        panic!("check_static mixes only text templates");
    };
    let started = Instant::now();
    let lowered = LoweredWorkflow::parse(black_box(text)).expect("validated at load");
    let report = black_box(analyze::analyze_workflow(&lowered, &AnalyzeOptions::default()));
    let ns = started.elapsed().as_nanos() as u64;
    (ns, template.verdict_matches(&report))
}

/// Run round `set_ix` of the workload and check its outputs. A panic in
/// the program is a failure of every operation of the round, not of the
/// harness: the round comes back without times and with all of it failed.
pub fn run_round(inputs: &Inputs, set_ix: usize) -> Round {
    let arrivals = &inputs.sets[set_ix % inputs.sets.len()];
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_arrivals(inputs, arrivals)))
        .unwrap_or_else(|_| {
            let ops = arrivals.len() as u64;
            Round { ops, failed: ops, ..Round::default() }
        })
}

/// The workload's engine on a given arrival list (a whole set in timed
/// rounds, a sample in the traced pass).
pub fn run_arrivals(inputs: &Inputs, arrivals: &[Arrival]) -> Round {
    let mut round = Round { ops: arrivals.len() as u64, ..Round::default() };
    match inputs.shape.kind {
        Kind::Solo => {
            let mut sim = SimStats::default();
            for a in arrivals {
                let (ns, report) = solo_op(&inputs.templates[a.spec_ix], a, &inputs.exec);
                round.unit_ns.push(ns);
                round.failed += u64::from(run_failed(&report));
                sim.msgs += report.net.sent_total;
                sim.absorb(a.instance.0, 0, &report);
            }
            round.events = sim.events;
            round.sim = Some(sim);
        }
        Kind::Check => {
            for a in arrivals {
                let template = &inputs.templates[a.spec_ix];
                let (ns, ok) = check_op(template);
                round.unit_ns.push(ns);
                round.failed += u64::from(!ok);
                round.events += template.checked_events();
            }
        }
        Kind::Tenant => {
            let started = Instant::now();
            let report = black_box(run_tenant(&inputs.specs, arrivals, &inputs.tenant));
            round.unit_ns.push(started.elapsed().as_nanos() as u64);
            let mut sim = SimStats::default();
            for o in &report.instances {
                round.failed += u64::from(run_failed(&o.report));
                sim.msgs += o.report.net.sent_total;
                // Tenant occurrence times are already instance-local.
                sim.absorb(o.instance.0, 0, &o.report);
            }
            round.events = sim.events;
            round.sim = Some(sim);
        }
        Kind::Parallel => {
            let started = Instant::now();
            let report = black_box(run_parallel_fleet(&inputs.specs, arrivals, &inputs.exec));
            round.unit_ns.push(started.elapsed().as_nanos() as u64);
            let mut sim = SimStats { msgs: report.net.sent_total, ..SimStats::default() };
            let exhausted = report.exhausted > 0;
            for o in &report.instances {
                round.failed += u64::from(exhausted || run_failed(&o.report));
                // Parallel-fleet occurrence times are fleet-clock values.
                sim.absorb(o.instance.0, o.arrived_at, &o.report);
            }
            round.events = sim.events;
            round.sim = Some(sim);
        }
    }
    round
}

/// The companion execution that gives `check_static` its sim metrics:
/// the checked specs, in the workload's mix, each instance run once as a
/// workflow (prebuilt spec, monitors armed). It is untimed; it also
/// cross-checks that a spec the checker passes runs satisfied. Returns
/// the stats and the failures.
pub fn companion_sim(inputs: &Inputs, arrivals: &[Arrival]) -> (SimStats, u64) {
    let mut sim = SimStats::default();
    let mut failed = 0;
    for a in arrivals {
        // One report alive at a time: held together, the reports would
        // set the process's peak RSS instead of the checker.
        let report = solo_run(inputs, a, &inputs.tenant);
        failed += u64::from(run_failed(&report));
        sim.msgs += report.net.sent_total;
        sim.absorb(a.instance.0, 0, &report);
    }
    (sim, failed)
}

/// One arrival as the independent single-instance run the tenant engine
/// promises to be byte-identical to: `Arrival::apply_to_spec` +
/// `TenantConfig::instance_exec` + `run_workflow`
/// (`run_workflow_with_faults` under a plan).
pub fn solo_run(inputs: &Inputs, arrival: &Arrival, config: &TenantConfig) -> RunReport {
    let spec = arrival.apply_to_spec(&inputs.specs[arrival.spec_ix]);
    let exec = config.instance_exec(arrival);
    black_box(match &config.plan {
        Some(plan) => run_workflow_with_faults(&spec, exec, plan.clone()),
        None => run_workflow(&spec, exec),
    })
}

/// The same arrivals one by one (see [`solo_run`]).
pub fn solo_loop(inputs: &Inputs, arrivals: &[Arrival], config: &TenantConfig) -> Vec<RunReport> {
    arrivals.iter().map(|a| solo_run(inputs, a, config)).collect()
}

/// `fleet_parallel`'s worker-count check: the same arrivals at one worker
/// must give every instance the identical occurrence history. Returns the
/// number of instances that diverge.
pub fn worker_divergence(inputs: &Inputs, arrivals: &[Arrival]) -> u64 {
    let mut one = inputs.exec.clone();
    one.parallel = Some(ParallelConfig::new(1));
    let a = run_parallel_fleet(&inputs.specs, arrivals, &one);
    let b = run_parallel_fleet(&inputs.specs, arrivals, &inputs.exec);
    let differing = a
        .instances
        .iter()
        .zip(&b.instances)
        .filter(|(x, y)| x.report.occurrences != y.report.occurrences)
        .count();
    differing as u64 + a.instances.len().abs_diff(b.instances.len()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apportion_is_exact_and_proportional() {
        assert_eq!(apportion(1000, &[300, 300, 200, 80, 100, 20]), [300, 300, 200, 80, 100, 20]);
        assert_eq!(apportion(62, &[40, 20, 2]), [40, 20, 2]);
        // 500 over 6:3:2:2:1 (sum 14): floors 214,107,71,71,35 = 498 with
        // remainders 4,2,6,6,10 (in 14ths); the largest (contingency) and
        // the earlier of the tied 6s (diamond) take the rest.
        let c = apportion(500, &[6, 3, 2, 2, 1]);
        assert_eq!(c.iter().sum::<usize>(), 500);
        assert_eq!(c, [214, 107, 72, 71, 36]);
        assert_eq!(apportion(3, &[1, 1]), [2, 1]);
        assert_eq!(apportion(0, &[1, 2]), [0, 0]);
    }

    fn inputs_for(name: &str, seed: u64) -> Inputs {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        make_inputs(shape(name).unwrap(), &RunOpts { seed, seconds: 1.0, dir, scale: 10 }).unwrap()
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let (a, b, c) = (
            inputs_for("fleet_steady", 7),
            inputs_for("fleet_steady", 7),
            inputs_for("fleet_steady", 8),
        );
        assert_eq!(a.sets, b.sets);
        assert_ne!(a.sets, c.sets, "another seed, other inputs");
        assert_eq!(a.sets.len(), 8);
        assert_ne!(a.sets[0], a.sets[1], "input sets of one seed differ from each other");
    }

    #[test]
    fn every_set_has_the_mix_exactly_and_sound_arrivals() {
        let inputs = inputs_for("fleet_steady", 3);
        let want = apportion(50, &inputs.weights());
        for set in &inputs.sets {
            let mut got = vec![0usize; want.len()];
            let mut last = 0;
            for (i, a) in set.iter().enumerate() {
                got[a.spec_ix] += 1;
                assert_eq!(a.instance.0, i as u64);
                assert!(a.at >= last, "arrivals in time order");
                last = a.at;
                for &(lit, think) in &a.think {
                    assert!((4..=256).contains(&think), "think {think}");
                    let spec = &inputs.specs[a.spec_ix];
                    assert!(spec
                        .free_events
                        .iter()
                        .any(|f| f.lit == lit && f.attempt_after.is_some()));
                }
            }
            assert_eq!(got, want);
        }
    }

    #[test]
    fn expected_verdicts_match_the_checker_today() {
        let inputs = inputs_for("check_static", 1);
        assert!(!inputs.companion.is_empty());
        for t in &inputs.templates {
            let (_, ok) = check_op(t);
            assert!(ok, "a verdict differs from benchmark/expected/");
        }
    }

    #[test]
    fn shapes_are_the_five_workloads() {
        let names: Vec<&str> = SHAPES.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["solo_cold", "fleet_steady", "fleet_faulty", "fleet_parallel", "check_static"]
        );
        let solo = shape("solo_cold").unwrap();
        let saga4 = solo.mix.iter().find(|(n, _)| *n == "saga4").unwrap().1;
        let total: u32 = solo.mix.iter().map(|&(_, w)| w).sum();
        assert_eq!((saga4, total), (20, 1000), "saga4 is exactly 2 % of a round");
        assert!(shape("fleet_faulty").unwrap().mix.iter().all(|(n, _)| !n.starts_with("saga")));
        assert!(shape("nope").is_none());
    }
}
