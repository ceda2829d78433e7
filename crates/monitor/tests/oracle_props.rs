//! The fused monitor against a reference that does it the plain way.
//!
//! `RefMonitor` below is the monitor's algorithm before it was indexed:
//! every fact steps *every* dependency machine, and every pending guard
//! check is decided on the completed trace — the observed facts in `seq`
//! order followed by the complements of every unresolved symbol — rebuilt
//! from scratch each time. Its stall watchdog scans every open watch at
//! every new timestamp instead of keeping a bound. `WorkflowMonitor`
//! steps only the dependencies that mention a fact's symbol and decides
//! on the observed trace it maintains; the properties below demand that
//! the two produce equal `MonitorReport`s — verdicts, every alert with its
//! `at`, node and text, and both counters — on recordings of random
//! workflows, fault-free and under drop + duplicate + jitter, and on
//! random span streams with out-of-order, repeated and conflicting facts.

use dist::{guard_gated, run_workflow_with_faults, ExecConfig, WorkflowSpec};
use event_algebra::{DependencyMachine, Expr, Literal, StateId, SymbolId, SymbolTable, Trace};
use guard::{CompiledWorkflow, GuardScope};
use monitor::{Alert, AlertKind, DepVerdict, MonitorConfig, MonitorReport, WorkflowMonitor};
use obs::{ObsLit, RecordConfig, SpanId, SpanKind, TraceEvent, Verdict};
use sim::FaultPlan;
use std::collections::{BTreeMap, BTreeSet};
use testkit::{check, free_event_spec, Exprs, Gen};

/// A stall watch: opened at `.0`, already flagged `.1`.
type Open = (u64, bool);

/// The reference monitor (see the module docs).
struct RefMonitor {
    table: SymbolTable,
    budget: u64,
    compiled: CompiledWorkflow,
    gated: BTreeSet<Literal>,
    states: Vec<StateId>,
    verdicts: Vec<DepVerdict>,
    alerted: Vec<bool>,
    facts: BTreeMap<u64, Literal>,
    canon: BTreeMap<u64, Literal>,
    diverged: BTreeSet<u64>,
    /// `(lit, seq, node, at)` of each undecided check.
    pending: Vec<(Literal, u64, u32, u64)>,
    rounds: BTreeMap<(u32, u32), Open>,
    evals: BTreeMap<(u32, u32), Open>,
    alerts: Vec<Alert>,
    guard_checks: u64,
    last_sweep: u64,
}

fn classify(m: &DependencyMachine, s: StateId) -> DepVerdict {
    if m.is_accepting(s) {
        DepVerdict::Satisfied
    } else if m.is_violated(s) {
        DepVerdict::Violated
    } else if !m.is_live(s) {
        DepVerdict::AtRisk
    } else {
        DepVerdict::Live
    }
}

fn lit_of(o: ObsLit) -> Literal {
    Literal::from_index(o.0 as usize)
}

impl RefMonitor {
    fn new(
        table: &SymbolTable,
        dependencies: &[Expr],
        gated: BTreeSet<Literal>,
        config: MonitorConfig,
    ) -> RefMonitor {
        let compiled = CompiledWorkflow::compile(dependencies, GuardScope::Mentioning);
        let states: Vec<StateId> = compiled.machines.iter().map(|m| m.initial).collect();
        let verdicts =
            compiled.machines.iter().zip(&states).map(|(m, &s)| classify(m, s)).collect();
        RefMonitor {
            table: table.clone(),
            budget: config.stall_budget,
            alerted: vec![false; states.len()],
            compiled,
            gated,
            states,
            verdicts,
            facts: BTreeMap::new(),
            canon: BTreeMap::new(),
            diverged: BTreeSet::new(),
            pending: Vec::new(),
            rounds: BTreeMap::new(),
            evals: BTreeMap::new(),
            alerts: Vec::new(),
            guard_checks: 0,
            last_sweep: 0,
        }
    }

    fn alert(&mut self, at: u64, node: u32, kind: AlertKind, detail: String) {
        self.alerts.push(Alert { at, node, kind, detail });
    }

    fn observe(&mut self, e: &TraceEvent) {
        match &e.kind {
            SpanKind::Occurred { lit, seq, .. } => self.occurrence(e.at, e.node, *lit, *seq),
            // A fact applied also answers the applier's rounds for
            // either literal of its symbol.
            SpanKind::FactApplied { lit, seq } => {
                self.divergence(e.at, e.node, *lit, *seq);
                self.rounds.remove(&(e.node, lit.0));
                self.rounds.remove(&(e.node, lit.0 ^ 1));
            }
            SpanKind::GuardEval { lit, verdict: Verdict::Enabled, .. } => {
                self.evals.entry((e.node, lit.0)).or_insert((e.at, false));
            }
            SpanKind::PromiseOpen { lit, .. } => {
                self.rounds.entry((e.node, lit.0)).or_insert((e.at, false));
            }
            SpanKind::PromiseCommit { lit } => {
                self.rounds.remove(&(e.node, lit.0));
            }
            SpanKind::PromiseDeny { lit, to } => {
                self.rounds.remove(&(*to, lit.0));
            }
            _ => {}
        }
        if e.at != self.last_sweep {
            self.last_sweep = e.at;
            self.stalls(e.at);
        }
    }

    fn divergence(&mut self, at: u64, node: u32, lit: ObsLit, seq: u64) {
        let lit = lit_of(lit);
        match self.canon.get(&seq).copied() {
            None => {
                self.canon.insert(seq, lit);
            }
            Some(prev) if prev == lit => {}
            Some(prev) => {
                if self.diverged.insert(seq) {
                    let detail = format!(
                        "seq {seq} announced as {} but node {node} applied {}",
                        self.table.literal_name(prev),
                        self.table.literal_name(lit),
                    );
                    self.alert(at, node, AlertKind::ViewDivergence { seq }, detail);
                }
            }
        }
    }

    fn occurrence(&mut self, at: u64, node: u32, olit: ObsLit, seq: u64) {
        self.divergence(at, node, olit, seq);
        let lit = lit_of(olit);
        self.evals.remove(&(node, olit.0));
        self.evals.remove(&(node, lit.complement().index() as u32));
        // A decided requester's rounds close at its occurrence.
        self.rounds.retain(|&(n, _), _| n != node);
        if self.facts.contains_key(&seq) {
            return;
        }
        let in_order = self.facts.keys().next_back().is_none_or(|&max| seq > max);
        self.facts.insert(seq, lit);
        for ix in 0..self.states.len() {
            let m = &self.compiled.machines[ix];
            self.states[ix] = if in_order {
                m.step(self.states[ix], lit)
            } else {
                self.facts.values().fold(m.initial, |s, &l| m.step(s, l))
            };
            self.note_verdict(at, node, ix);
        }
        if self.gated.contains(&lit) {
            self.guard_checks += 1;
            self.pending.push((lit, seq, node, at));
            self.decide(at, false);
        }
        self.decide(at, false);
    }

    fn note_verdict(&mut self, at: u64, node: u32, ix: usize) {
        let verdict = classify(&self.compiled.machines[ix], self.states[ix]);
        if verdict == self.verdicts[ix] {
            return;
        }
        self.verdicts[ix] = verdict;
        let kind = match verdict {
            DepVerdict::Violated => AlertKind::DepViolated { dep: ix as u32 },
            DepVerdict::AtRisk => AlertKind::DepAtRisk { dep: ix as u32 },
            _ => return,
        };
        if std::mem::replace(&mut self.alerted[ix], true) {
            return;
        }
        let detail = format!(
            "dependency {ix} ({}) entered the {} state",
            self.compiled.machines[ix].dependency().display(&self.table),
            verdict.label(),
        );
        self.alert(at, node, kind, detail);
    }

    fn resolved(&self) -> BTreeSet<SymbolId> {
        self.facts.values().map(|l| l.symbol()).collect()
    }

    /// The observed facts completed with the complements of every
    /// unresolved symbol; `None` when a symbol occurred twice.
    fn completed(&self) -> Option<Trace> {
        let resolved = self.resolved();
        let complements = (0..self.table.len() as u32)
            .map(SymbolId)
            .filter(|s| !resolved.contains(s))
            .map(Literal::neg);
        Trace::new(self.facts.values().copied().chain(complements))
    }

    /// Decide the pending checks whose guards mention only resolved
    /// symbols (`all`: every one) on the completed trace.
    fn decide(&mut self, now: u64, all: bool) {
        if self.pending.is_empty() {
            return;
        }
        let Some(trace) = self.completed() else { return };
        let resolved = self.resolved();
        let mut failed = Vec::new();
        self.pending.retain(|&(lit, seq, node, at)| {
            let Some(g) = self.compiled.guard_ref(lit) else { return false };
            if !all && !g.symbols().is_subset(&resolved) {
                return true;
            }
            let pos = self.facts.range(..seq).count();
            if !g.eval(&trace, pos) {
                failed.push((lit, seq, node, at));
            }
            false
        });
        for (lit, seq, node, at) in failed {
            let detail = format!(
                "{} fired at seq {seq} with its faithful guard false on the global view",
                self.table.literal_name(lit),
            );
            let kind = AlertKind::GuardUnfaithful { lit: ObsLit(lit.index() as u32) };
            self.alert(now.max(at), node, kind, detail);
        }
    }

    fn stalls(&mut self, now: u64) {
        let budget = self.budget;
        let mut found = Vec::new();
        for (&(node, lit), open) in self.rounds.iter_mut().filter(|(_, o)| !o.1) {
            if now.saturating_sub(open.0) > budget {
                open.1 = true;
                let name = self.table.literal_name(lit_of(ObsLit(lit)));
                let detail = format!(
                    "promise round for {name} on node {node} open since t={} (budget {budget})",
                    open.0
                );
                found.push((node, AlertKind::PromiseStall { lit: ObsLit(lit) }, detail));
            }
        }
        for (&(node, lit), open) in self.evals.iter_mut().filter(|(_, o)| !o.1) {
            if now.saturating_sub(open.0) > budget {
                open.1 = true;
                let name = self.table.literal_name(lit_of(ObsLit(lit)));
                let detail = format!(
                    "{name} enabled on node {node} since t={} but never fired (budget {budget})",
                    open.0
                );
                found.push((node, AlertKind::EnabledStall { lit: ObsLit(lit) }, detail));
            }
        }
        for (node, kind, detail) in found {
            self.alert(now, node, kind, detail);
        }
    }

    fn finish(mut self, final_at: u64) -> MonitorReport {
        self.stalls(final_at.max(self.last_sweep));
        let resolved = self.resolved();
        for ix in 0..self.states.len() {
            let m = &self.compiled.machines[ix];
            self.states[ix] = (0..self.table.len() as u32)
                .map(SymbolId)
                .filter(|s| !resolved.contains(s))
                .fold(self.states[ix], |s, sym| m.step(s, Literal::neg(sym)));
            self.note_verdict(final_at, u32::MAX, ix);
        }
        self.decide(final_at, true);
        MonitorReport {
            verdicts: self.verdicts,
            alerts: self.alerts,
            facts: self.facts.len() as u64,
            guard_checks: self.guard_checks,
        }
    }
}

/// Both monitors over `events`, finished at `final_at`.
fn both(
    spec: &WorkflowSpec,
    events: &[TraceEvent],
    config: MonitorConfig,
    final_at: u64,
) -> (MonitorReport, MonitorReport) {
    let gated = guard_gated(spec);
    let fused = WorkflowMonitor::new(&spec.table, &spec.dependencies, gated.clone(), config);
    let mut reference = RefMonitor::new(&spec.table, &spec.dependencies, gated, config);
    for e in events {
        fused.observe(e);
        reference.observe(e);
    }
    (fused.finish(final_at), reference.finish(final_at))
}

/// A random workflow of two or three dependencies over four or five
/// free events, every event gated.
fn random_spec(g: &mut Gen) -> WorkflowSpec {
    let n = g.range(4..=5usize);
    let syms: Vec<SymbolId> = (0..n as u32).map(SymbolId).collect();
    let count = g.range(2..=3usize);
    let deps = g.workflow(&syms, count, 2);
    free_event_spec(deps, &syms)
}

/// Recordings of random workflows, fault-free and under drop +
/// duplicate + jitter: the replayed monitor and the run's own fused
/// monitor each equal the reference.
#[test]
fn indexed_monitor_matches_the_reference_on_recorded_runs() {
    check("indexed monitor ≡ reference on runs", 96, |g| {
        let spec = random_spec(g);
        let seed = g.range(0..1_000u64);
        let plan = if g.flip() {
            FaultPlan::new(seed ^ 0xACCE).drop_rate(0.15).duplicate_rate(0.15).jitter(0, 20)
        } else {
            FaultPlan::new(seed)
        };
        let mut config = ExecConfig::seeded(seed);
        config.monitor = Some(MonitorConfig { stall_budget: g.range(20..=2_048u64) });
        config.record = Some(RecordConfig::default());
        let run = run_workflow_with_faults(&spec, config.clone(), plan);
        let events = &run.recording.as_ref().expect("recording on").events;
        let armed = config.monitor.expect("armed");
        let (replayed, reference) = both(&spec, events, armed, run.duration);
        assert_eq!(replayed, reference, "replay of {} spans", events.len());
        assert_eq!(run.monitor.as_ref(), Some(&reference), "the fused monitor");
    });
}

/// A random span stream: occurrences of fresh symbols, mostly in `seq`
/// order and some slotted into the past, then and now one repeating a
/// `seq` or a symbol or naming a symbol the table never interned;
/// conflicting fact applications; stall watches opened and closed; time
/// jumping past small budgets.
fn random_stream(g: &mut Gen, symbols: u32) -> Vec<TraceEvent> {
    let (mut at, mut seq) = (0u64, 0u64);
    let mut fresh: Vec<u32> = (0..symbols).collect();
    (0..g.len(1, 40) as u64)
        .map(|id| {
            at += g.range(0..=40u64);
            let node = g.range(0..3u32);
            let lit = ObsLit(g.range(0..2 * symbols + 2));
            let kind = match g.range(0..12u32) {
                0..=5 => {
                    let lit = if !fresh.is_empty() && g.range(0..8u32) != 0 {
                        let sym = fresh.swap_remove(g.range(0..fresh.len()));
                        if g.flip() {
                            ObsLit::pos(sym)
                        } else {
                            ObsLit::neg(sym)
                        }
                    } else {
                        lit
                    };
                    let seq = if seq > 0 && g.range(0..3u32) == 0 {
                        g.range(1..=seq)
                    } else {
                        seq += g.range(1..=3u64);
                        seq
                    };
                    SpanKind::Occurred { lit, seq, by_acceptance: g.flip() }
                }
                6 => SpanKind::FactApplied { lit, seq: g.range(1..=seq + 1) },
                7 | 8 => SpanKind::GuardEval {
                    lit,
                    verdict: Verdict::Enabled,
                    residual: 0,
                    facts: Vec::new(),
                },
                9 => SpanKind::PromiseOpen { lit, for_lit: lit },
                10 => SpanKind::PromiseCommit { lit },
                _ => SpanKind::PromiseDeny { lit, to: g.range(0..3u32) },
            };
            TraceEvent { id: SpanId(id), parent: None, at, node, site: node, kind }
        })
        .collect()
}

#[test]
fn indexed_monitor_matches_the_reference_on_random_streams() {
    check("indexed monitor ≡ reference on streams", 512, |g| {
        let spec = random_spec(g);
        let events = random_stream(g, spec.table.len() as u32);
        let config = MonitorConfig { stall_budget: g.range(10..=200u64) };
        let final_at = events.last().map_or(0, |e| e.at) + g.range(0..=300u64);
        let (indexed, reference) = both(&spec, &events, config, final_at);
        assert_eq!(indexed, reference, "{events:#?}");
    });
}
