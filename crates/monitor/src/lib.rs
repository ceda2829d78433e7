//! Online runtime verification for the distributed workflow executor.
//!
//! Each property the paper proves about a conformant execution becomes
//! a monitor here, derived from machinery the repo already has:
//!
//! - **Dependency monitors (Theorem 2).** Every dependency `D` compiles
//!   to a residuation FSM ([`DependencyMachine`]); the monitor steps that
//!   FSM on each globally-ordered occurrence and classifies `D` after
//!   every transition as *satisfied* (residual `⊤`), *live* (an accepting
//!   state is still reachable), *at-risk* (no accepting state reachable —
//!   the run is doomed but the residual is not yet `0`), or *violated*
//!   (residual `0`). A scheduler honoring the synthesized guards
//!   `G(D, e)` can never drive a machine into `violated`, so any
//!   `violated` transition is a hard alert, raised within one transition
//!   of the offending firing.
//! - **Guard faithfulness (Theorem 2 / Definition 4).** Whenever a
//!   guard-gated event fires, the monitor re-evaluates the *faithful*
//!   (unweakened) synthesized guard against its own globally-ordered
//!   view. `◇`-atoms may be justified by facts that arrive later, so a
//!   false evaluation is held pending and re-checked as facts stream in;
//!   the moment every symbol the guard mentions is resolved the verdict
//!   is decided and a discrepancy is alerted immediately, not post-hoc.
//! - **`□`-view divergence (Lemma 5).** Announcement traffic must give
//!   every actor the same `(seq → literal)` mapping; the monitor watches
//!   `Occurred`/`FactApplied` records and alerts on the first conflict.
//! - **Stall watchdog (promise-round liveness, Example 11).** Open
//!   promise rounds and enabled-but-unfired events are expected to close
//!   quickly; exceeding a configurable sim-time budget raises an
//!   advisory alert (partitions and crashes legitimately delay rounds,
//!   so stalls are warnings, not conformance failures).
//!
//! Monitors are fed two ways, by the same dispatch:
//!
//! - **Fused (online).** The scheduler calls the `on_*` entry points
//!   ([`WorkflowMonitor::on_occurrence`] and friends) directly at the
//!   points where it would otherwise *record* the corresponding span,
//!   and the network ticks the stall watchdog once per delivery round
//!   ([`WorkflowMonitor::tick`]). No span is constructed, no recorder
//!   ring is touched: each globally-ordered occurrence is stepped once
//!   and the verdict read in O(1) from the compiled machine tables.
//! - **Replay (offline).** [`WorkflowMonitor::observe`] takes the
//!   [`TraceEvent`]s of a flight recording and re-derives everything
//!   from the spans alone ([`replay`], `wftrace monitor`). The
//!   conformance suite uses it as the cross-validation oracle: one run
//!   with the fused monitor and the recorder both on, then the
//!   recording replayed, and the two reports must agree
//!   (`testkit::conformance::audit_monitor_equivalence`).
//!
//! Both feeds share the same internal `MonitorState`, so "agreement" is not a
//! coincidence of parallel implementations: the only difference is who
//! delivers the observations. The one observable divergence is the
//! *timestamp* of advisory stall alerts under crash plans — a replay
//! sweeps on `CrashDrop` spans, which have no fused counterpart
//! because no handler runs for a crashed delivery; the flagged set is
//! identical because state cannot change between the two sweep points.

use event_algebra::{
    DependencyMachine, Expr, Literal, SortedMap, SortedSet, StateId, SymbolId, SymbolTable, Trace,
};
use guard::{CompiledWorkflow, GuardScope};
use obs::{ObsLit, SpanKind, TraceEvent, Verdict};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Configuration for the armed monitors. `Copy` so it can ride inside
/// the executor's `ExecConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorConfig {
    /// Sim-time budget for the stall watchdog: an open promise round or
    /// an enabled-but-unfired event older than this is flagged. The
    /// default exceeds the reliable transport's first five retransmission
    /// deadlines (the fifth falls 64 · (2⁵ − 1) = 1 984 ticks after the
    /// first send), so healthy runs — including healed partitions — stay
    /// quiet.
    pub stall_budget: u64,
}

impl Default for MonitorConfig {
    fn default() -> MonitorConfig {
        MonitorConfig { stall_budget: 2048 }
    }
}

/// The state of one dependency after the facts observed so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepVerdict {
    /// Residual `⊤`: every extension of the observed trace satisfies it.
    Satisfied,
    /// Not yet discharged, but an accepting state is still reachable.
    Live,
    /// No accepting state is reachable — every completion violates the
    /// dependency — but the residual has not yet collapsed to `0`.
    AtRisk,
    /// Residual `0`: the observed trace already violates the dependency.
    Violated,
}

impl DepVerdict {
    /// Stable lowercase label (metrics, CLI output).
    pub fn label(self) -> &'static str {
        match self {
            DepVerdict::Satisfied => "satisfied",
            DepVerdict::Live => "live",
            DepVerdict::AtRisk => "at-risk",
            DepVerdict::Violated => "violated",
        }
    }
}

/// What a monitor alert is about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlertKind {
    /// A dependency machine entered the violated (`0`) state.
    DepViolated {
        /// Index of the dependency in the workflow's dependency list.
        dep: u32,
    },
    /// A dependency machine entered a trap state: not yet `0`, but no
    /// accepting state is reachable any more.
    DepAtRisk {
        /// Index of the dependency in the workflow's dependency list.
        dep: u32,
    },
    /// A guard-gated event fired although its faithful synthesized guard
    /// is false on the monitor's globally-ordered view.
    GuardUnfaithful {
        /// The literal that fired.
        lit: ObsLit,
    },
    /// Two announcements claimed the same global sequence number for
    /// different literals — the `□`-views have diverged.
    ViewDivergence {
        /// The contested sequence number.
        seq: u64,
    },
    /// A promise round stayed open past the stall budget.
    PromiseStall {
        /// The literal whose round stalled.
        lit: ObsLit,
    },
    /// An event evaluated `Enabled` but did not fire within the budget.
    EnabledStall {
        /// The enabled-but-unfired literal.
        lit: ObsLit,
    },
}

impl AlertKind {
    /// Every [`AlertKind::tag`], in byte order: the order of the
    /// `monitor.alerts` series in a metrics snapshot.
    pub const TAGS: [&'static str; 6] = [
        "dep_at_risk",
        "dep_violated",
        "enabled_stall",
        "guard_unfaithful",
        "promise_stall",
        "view_divergence",
    ];

    /// Stable snake-case tag (metrics label, CLI output).
    pub fn tag(&self) -> &'static str {
        match self {
            AlertKind::DepViolated { .. } => "dep_violated",
            AlertKind::DepAtRisk { .. } => "dep_at_risk",
            AlertKind::GuardUnfaithful { .. } => "guard_unfaithful",
            AlertKind::ViewDivergence { .. } => "view_divergence",
            AlertKind::PromiseStall { .. } => "promise_stall",
            AlertKind::EnabledStall { .. } => "enabled_stall",
        }
    }

    /// `true` for alerts that contradict a proved safety property — a
    /// conformant run must never produce one. Stall alerts are advisory
    /// (faults legitimately delay rounds) and return `false`.
    pub fn is_violation(&self) -> bool {
        matches!(
            self,
            AlertKind::DepViolated { .. }
                | AlertKind::DepAtRisk { .. }
                | AlertKind::GuardUnfaithful { .. }
                | AlertKind::ViewDivergence { .. }
        )
    }
}

/// One structured monitor alert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alert {
    /// Sim time of the observation that triggered the alert.
    pub at: u64,
    /// Node the triggering observation came from.
    pub node: u32,
    /// What happened.
    pub kind: AlertKind,
    /// Human-readable one-liner.
    pub detail: String,
}

/// The monitors' summary of a finished (or replayed) run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MonitorReport {
    /// Final per-dependency verdicts, after extending the observed trace
    /// with the complements of unresolved symbols (the same maximal-trace
    /// convention the executor's satisfaction check uses).
    pub verdicts: Vec<DepVerdict>,
    /// Every alert raised, in observation order.
    pub alerts: Vec<Alert>,
    /// Global occurrences observed.
    pub facts: u64,
    /// Guard-faithfulness evaluations performed.
    pub guard_checks: u64,
}

impl MonitorReport {
    /// `true` if any dependency ended violated or any violation-class
    /// alert fired.
    pub fn has_violation(&self) -> bool {
        self.verdicts.contains(&DepVerdict::Violated)
            || self.alerts.iter().any(|a| a.kind.is_violation())
    }
}

/// Classify a machine state. O(1): acceptance, violation, and liveness
/// were all computed at machine-compile time.
fn classify(machine: &DependencyMachine, sid: StateId) -> DepVerdict {
    if machine.is_accepting(sid) {
        DepVerdict::Satisfied
    } else if machine.is_violated(sid) {
        DepVerdict::Violated
    } else if !machine.is_live(sid) {
        DepVerdict::AtRisk
    } else {
        DepVerdict::Live
    }
}

fn lit_of(o: ObsLit) -> Literal {
    let sym = SymbolId(o.sym());
    if o.is_neg() {
        Literal::neg(sym)
    } else {
        Literal::pos(sym)
    }
}

fn olit(l: Literal) -> ObsLit {
    ObsLit(l.index() as u32)
}

/// Membership test on a bitset (an index past its end — a span naming
/// a symbol the table never interned — reads as absent).
fn bit(set: &[u64], ix: usize) -> bool {
    set.get(ix / 64).is_some_and(|w| w & (1 << (ix % 64)) != 0)
}

/// Set bit `ix`, growing the set if it lies past the end.
fn set_bit(set: &mut Vec<u64>, ix: usize) {
    if ix / 64 >= set.len() {
        set.resize(ix / 64 + 1, 0);
    }
    set[ix / 64] |= 1 << (ix % 64);
}

/// Membership test on the resolved-symbols bitset.
fn resolved_bit(set: &[u64], sym: SymbolId) -> bool {
    bit(set, sym.0 as usize)
}

/// A guard-gated firing whose faithful guard was false when it fired;
/// kept pending until later facts justify it or decide it false.
#[derive(Debug)]
struct PendingGuard {
    lit: Literal,
    seq: u64,
    node: u32,
    at: u64,
}

/// An open stall-watchdog entry (promise round or enabled eval).
#[derive(Debug, Clone, Copy)]
struct OpenSince {
    at: u64,
    flagged: bool,
}

/// What a monitor knows. The template part — table, configuration,
/// compiled guards, gated literals — is fixed at
/// construction; everything else describes one run and is what
/// [`WorkflowMonitor::reset`] returns to its initial value. The per-run
/// collections are flat (sorted vectors, bitsets), so a reset monitor
/// keeps their buffers and a warm one observes a healthy run without
/// allocating.
#[derive(Debug)]
struct MonitorState {
    table: SymbolTable,
    config: MonitorConfig,
    dep_states: Vec<StateId>,
    verdicts: Vec<DepVerdict>,
    /// Per-dependency: a violated/at-risk alert was already raised (the
    /// out-of-order replay path must not alert twice).
    dep_alerted: Vec<bool>,
    /// The faithful guards and dependency machines, shared (never
    /// cloned) with whoever compiled them: monitor construction must be
    /// cheap enough to arm on every run of every fleet instance.
    guards: Arc<CompiledWorkflow>,
    /// The guard-gated literals, as a bitset over `Literal::index`.
    gated: Vec<u64>,
    /// The dependencies that mention each symbol, in index order, as one
    /// CSR pair: symbol `s`'s are `deps[deps_start[s]..deps_start[s + 1]]`.
    /// A machine self-loops on every literal outside its alphabet, so an
    /// occurrence steps only these.
    deps_start: Vec<u32>,
    deps: Vec<u32>,
    /// Globally-ordered occurrences: delivery seq → literal.
    facts: SortedMap<u64, Literal>,
    /// Symbols resolved by an observed occurrence (either polarity), as
    /// a bitset over `SymbolId` indices. The guard-decidability pre-pass
    /// probes membership once per guard symbol per gated firing — and
    /// chained workflows carry guards whose symbol counts grow with
    /// chain position, so membership must be a bit test, not a tree
    /// descent.
    resolved: Vec<u64>,
    /// seq → literal as claimed by *any* record (`Occurred` or
    /// `FactApplied`); the divergence monitor's canonical view.
    canon: SortedMap<u64, Literal>,
    /// Divergent seqs already alerted.
    diverged: SortedSet<u64>,
    pending_guards: Vec<PendingGuard>,
    /// The observed occurrences in `seq` order, as a trace: appended to
    /// by an in-order fact, rebuilt after an out-of-order one, and dropped
    /// (`None`) once a symbol occurs twice — the run then has no trace to
    /// judge a guard on, and no check is decided. A decidable guard
    /// mentions only resolved symbols, whose positions here are their
    /// positions on the completed trace, so its checks evaluate on this.
    observed: Option<Trace>,
    /// Open promise rounds keyed by (requesting node, round literal).
    open_rounds: SortedMap<(u32, u32), OpenSince>,
    /// Enabled-but-unfired evaluations keyed by (node, literal).
    open_evals: SortedMap<(u32, u32), OpenSince>,
    alerts: Vec<Alert>,
    guard_checks: u64,
    last_stall_check: u64,
    /// Lower bound on the earliest *unflagged* open timestamp across
    /// `open_rounds` and `open_evals` (`u64::MAX` when none): the stall
    /// sweep runs at every new sim timestamp, and this bound lets a
    /// healthy run — every round inside its budget — decide "nothing to
    /// flag" in O(1) instead of walking both watch maps. Inserts
    /// min-update it; removals and flaggings may leave it stale-low,
    /// which costs at most a spurious full scan (that recomputes it).
    stall_bound: u64,
    /// The buffer [`MonitorState::finish`] completes the trace in (empty
    /// in between).
    completed: Trace,
}

/// The armed monitor set for one workflow: accumulates verdicts and
/// alerts from the observations it is fed.
///
/// Construct with the workflow's symbol table, dependencies, and the set
/// of guard-gated (controllable) literals; arm it on a run with
/// `ExecConfig::monitor` (or feed it a recording through
/// [`WorkflowMonitor::observe`]); call [`WorkflowMonitor::finish`] once
/// the run quiesces.
pub struct WorkflowMonitor {
    state: Mutex<MonitorState>,
    /// Lock-free mirror of `stall_bound + stall_budget`: the earliest sim
    /// time at which *any* open watch could exceed its budget. The
    /// network ticks the watchdog once per delivery — by far the
    /// highest-frequency monitor entry point — and on a healthy run every
    /// tick is answered by this one relaxed load, no lock taken. Updated
    /// (under the state lock) wherever `stall_bound` changes; `u64::MAX`
    /// while no watch is armed.
    stall_deadline: AtomicU64,
}

// Actors carry an `Option<Arc<WorkflowMonitor>>` in fused mode and
// derive `Debug`; the monitor's interior state is large and mutex-held,
// so the handle prints opaquely.
impl std::fmt::Debug for WorkflowMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkflowMonitor").finish_non_exhaustive()
    }
}

impl WorkflowMonitor {
    /// Derive monitors for `dependencies`. Compiles its own faithful
    /// guards and dependency machines, so it is independent of whatever
    /// (possibly weakened or broken) guards the runtime enforces.
    pub fn new(
        table: &SymbolTable,
        dependencies: &[Expr],
        gated: impl IntoIterator<Item = Literal>,
        config: MonitorConfig,
    ) -> WorkflowMonitor {
        let guards = Arc::new(CompiledWorkflow::compile(dependencies, GuardScope::Mentioning));
        Self::from_compiled(table, guards, gated, config)
    }

    /// Like [`WorkflowMonitor::new`], but reusing an already-compiled
    /// workflow instead of recompiling the guards and machines. Guard
    /// compilation costs a sizable fraction of a whole small run, so the
    /// executors hand the monitor the `Arc` they compiled for the
    /// scheduler — arming monitors must stay cheap enough to be the
    /// always-on default, per instance, at fleet scale. The compiled
    /// guards are faithful (unweakened) by construction of
    /// `GuardScope::Mentioning`; callers must not pass a weakened set.
    pub fn from_compiled(
        table: &SymbolTable,
        guards: Arc<CompiledWorkflow>,
        gated: impl IntoIterator<Item = Literal>,
        config: MonitorConfig,
    ) -> WorkflowMonitor {
        let dep_states: Vec<StateId> = guards.machines.iter().map(|m| m.initial).collect();
        let verdicts: Vec<DepVerdict> =
            guards.machines.iter().zip(&dep_states).map(|(m, &s)| classify(m, s)).collect();
        let dep_alerted = vec![false; dep_states.len()];
        let mut gated_bits = vec![0; (2 * table.len()).div_ceil(64)];
        for lit in gated {
            set_bit(&mut gated_bits, lit.index());
        }
        let mentions = || {
            (guards.dependency_symbols.iter().enumerate())
                .flat_map(|(ix, symbols)| symbols.iter().map(move |s| (ix as u32, s.index())))
        };
        let symbols = mentions().map(|(_, s)| s + 1).max().unwrap_or(0);
        let mut deps_start = vec![0u32; symbols + 1];
        mentions().for_each(|(_, s)| deps_start[s + 1] += 1);
        for s in 0..symbols {
            deps_start[s + 1] += deps_start[s];
        }
        // Each symbol's start is its cursor, in dependency order; a
        // cursor ends on the next symbol's start, so shift them back.
        let mut deps = vec![0u32; deps_start[symbols] as usize];
        for (ix, s) in mentions() {
            deps[deps_start[s] as usize] = ix;
            deps_start[s] += 1;
        }
        deps_start.copy_within(0..symbols, 1);
        deps_start[0] = 0;
        WorkflowMonitor {
            stall_deadline: AtomicU64::new(u64::MAX),
            state: Mutex::new(MonitorState {
                table: table.clone(),
                config,
                dep_states,
                verdicts,
                dep_alerted,
                guards,
                gated: gated_bits,
                deps_start,
                deps,
                facts: SortedMap::new(),
                resolved: vec![0; (table.len()).div_ceil(64)],
                canon: SortedMap::new(),
                diverged: SortedSet::new(),
                pending_guards: Vec::new(),
                observed: Some(Trace::empty()),
                open_rounds: SortedMap::new(),
                open_evals: SortedMap::new(),
                alerts: Vec::new(),
                guard_checks: 0,
                last_stall_check: 0,
                stall_bound: u64::MAX,
                completed: Trace::empty(),
            }),
        }
    }

    /// Forget the run observed so far: the monitor is again what
    /// [`WorkflowMonitor::from_compiled`] returned, ready to watch the next
    /// instance of the same workflow. Every collection keeps its buffer.
    pub fn reset(&self) {
        let mut st = self.state.lock().expect("monitor lock");
        st.reset();
        self.sync_deadline(&st);
    }

    /// The monitor's whole state for `{:?}` — the observed run together
    /// with the lock-free deadline mirror. A monitor that was
    /// [`WorkflowMonitor::reset`] must render like a new one; the handle's
    /// own `Debug` stays opaque because every actor carries one.
    pub fn state_debug(&self) -> impl std::fmt::Debug + '_ {
        #[derive(Debug)]
        #[allow(dead_code)] // read by `Debug` only
        struct State<'a> {
            state: std::sync::MutexGuard<'a, MonitorState>,
            stall_deadline: u64,
        }
        State {
            state: self.state.lock().expect("monitor lock"),
            stall_deadline: self.stall_deadline.load(Ordering::Relaxed),
        }
    }

    /// Refresh the lock-free deadline mirror from the state's stall
    /// bound; called (with the lock held) at the end of every entry
    /// point that may arm a watch or recompute the bound.
    fn sync_deadline(&self, st: &MonitorState) {
        self.stall_deadline
            .store(st.stall_bound.saturating_add(st.config.stall_budget), Ordering::Relaxed);
    }

    /// Observe one recorded trace event (the offline-replay entry point).
    pub fn observe(&self, event: &TraceEvent) {
        let mut st = self.state.lock().expect("monitor lock");
        st.observe(event);
        self.sync_deadline(&st);
    }

    /// Current per-dependency verdicts (mid-run snapshot).
    pub fn verdicts(&self) -> Vec<DepVerdict> {
        self.state.lock().expect("monitor lock").verdicts.clone()
    }

    /// Alerts raised so far (mid-run snapshot).
    pub fn alerts(&self) -> Vec<Alert> {
        self.state.lock().expect("monitor lock").alerts.clone()
    }

    /// Close the run at sim time `final_at`: run the last stall sweep,
    /// decide still-pending guard checks against the maximal trace
    /// (observed occurrences plus complements of unresolved symbols),
    /// and report final verdicts.
    pub fn finish(&self, final_at: u64) -> MonitorReport {
        self.state.lock().expect("monitor lock").finish(final_at)
    }

    // --- Fused entry points -------------------------------------------
    //
    // The scheduler calls these directly at the program points where it
    // would otherwise *record* the corresponding span; each takes the
    // same (at, node, …) tuple the span would have carried and runs the
    // same dispatch `observe` runs for that span kind, then the same
    // trailing stall sweep. Fused mode therefore needs no span
    // construction and no recorder at all.

    /// Fused counterpart of an `Occurred` span: a globally-ordered
    /// occurrence of `lit` under delivery sequence `seq`, observed at
    /// the owning `node` at sim time `at`.
    pub fn on_occurrence(&self, at: u64, node: u32, lit: ObsLit, seq: u64) {
        let mut st = self.state.lock().expect("monitor lock");
        st.on_occurrence(at, node, lit, seq);
        st.sweep(at);
        self.sync_deadline(&st);
    }

    /// Fused counterpart of a `FactApplied` span: `node` applied
    /// `(seq → lit)` to its `□`-view (feeds the divergence checker).
    pub fn on_fact_applied(&self, at: u64, node: u32, lit: ObsLit, seq: u64) {
        let mut st = self.state.lock().expect("monitor lock");
        st.check_divergence(at, node, lit, seq);
        st.sweep(at);
        self.sync_deadline(&st);
    }

    /// Fused counterpart of a `GuardEval` span with an `Enabled`
    /// verdict: arms the enabled-but-unfired stall watch for
    /// `(node, lit)`.
    pub fn on_guard_enabled(&self, at: u64, node: u32, lit: ObsLit) {
        let mut st = self.state.lock().expect("monitor lock");
        st.open_evals.get_or_insert_with((node, lit.0), || OpenSince { at, flagged: false });
        st.stall_bound = st.stall_bound.min(at);
        st.sweep(at);
        self.sync_deadline(&st);
    }

    /// Fused counterpart of a `PromiseOpen` span: `node` opened a
    /// promise round for `lit`.
    pub fn on_promise_open(&self, at: u64, node: u32, lit: ObsLit) {
        let mut st = self.state.lock().expect("monitor lock");
        st.open_rounds.get_or_insert_with((node, lit.0), || OpenSince { at, flagged: false });
        st.stall_bound = st.stall_bound.min(at);
        st.sweep(at);
        self.sync_deadline(&st);
    }

    /// Fused counterpart of a `PromiseCommit` span: the round `node`
    /// opened for `lit` closed with a commit.
    pub fn on_promise_commit(&self, at: u64, node: u32, lit: ObsLit) {
        let mut st = self.state.lock().expect("monitor lock");
        st.open_rounds.remove((node, lit.0));
        st.sweep(at);
        self.sync_deadline(&st);
    }

    /// Fused counterpart of a `PromiseDeny` span recorded on the
    /// *granter*: closes the round the requesting node `to` had open
    /// for `lit`.
    pub fn on_promise_deny(&self, at: u64, to: u32, lit: ObsLit) {
        let mut st = self.state.lock().expect("monitor lock");
        st.open_rounds.remove((to, lit.0));
        st.sweep(at);
        self.sync_deadline(&st);
    }

    /// Advance the stall watchdog to sim time `at`. The network calls
    /// this once per delivery (and per restart) *before* the handler
    /// runs — the same point a replay of the recording sweeps, because
    /// the `MsgDeliver`/`Restart` span is recorded ahead of the handler
    /// and its `observe` ends with the sweep.
    pub fn tick(&self, at: u64) {
        // One relaxed load on the healthy path: no open watch can be
        // past its budget before the mirrored deadline, so there is
        // nothing to sweep and no reason to take the lock.
        if at <= self.stall_deadline.load(Ordering::Relaxed) {
            return;
        }
        let mut st = self.state.lock().expect("monitor lock");
        st.sweep(at);
        self.sync_deadline(&st);
    }
}

impl MonitorState {
    fn reset(&mut self) {
        let machines = &self.guards.machines;
        for ((state, verdict), machine) in
            self.dep_states.iter_mut().zip(&mut self.verdicts).zip(machines)
        {
            *state = machine.initial;
            *verdict = classify(machine, machine.initial);
        }
        self.dep_alerted.fill(false);
        self.facts.clear();
        self.resolved.truncate(self.table.len().div_ceil(64));
        self.resolved.fill(0);
        self.canon.clear();
        self.diverged.clear();
        self.pending_guards.clear();
        self.observed.get_or_insert_with(Trace::empty).refill([]);
        self.open_rounds.clear();
        self.open_evals.clear();
        self.alerts.clear();
        self.guard_checks = 0;
        self.last_stall_check = 0;
        self.stall_bound = u64::MAX;
    }

    fn alert(&mut self, at: u64, node: u32, kind: AlertKind, detail: String) {
        self.alerts.push(Alert { at, node, kind, detail });
    }

    fn observe(&mut self, event: &TraceEvent) {
        match &event.kind {
            SpanKind::Occurred { lit, seq, .. } => {
                self.on_occurrence(event.at, event.node, *lit, *seq);
            }
            SpanKind::FactApplied { lit, seq } => {
                self.check_divergence(event.at, event.node, *lit, *seq);
            }
            SpanKind::GuardEval { lit, verdict, .. } if *verdict == Verdict::Enabled => {
                self.open_evals.get_or_insert_with((event.node, lit.0), || OpenSince {
                    at: event.at,
                    flagged: false,
                });
                self.stall_bound = self.stall_bound.min(event.at);
            }
            SpanKind::PromiseOpen { lit, .. } => {
                self.open_rounds.get_or_insert_with((event.node, lit.0), || OpenSince {
                    at: event.at,
                    flagged: false,
                });
                self.stall_bound = self.stall_bound.min(event.at);
            }
            SpanKind::PromiseCommit { lit } => {
                self.open_rounds.remove((event.node, lit.0));
            }
            // A deny is recorded on the *granter*; `to` names the
            // requester whose round it closes.
            SpanKind::PromiseDeny { lit, to } => {
                self.open_rounds.remove((*to, lit.0));
            }
            _ => {}
        }
        self.sweep(event.at);
    }

    /// Trailing stall sweep shared by the replay and fused feeds:
    /// the first observation at a new sim timestamp checks the watchdog
    /// budgets once.
    fn sweep(&mut self, at: u64) {
        if at != self.last_stall_check {
            self.last_stall_check = at;
            self.check_stalls(at);
        }
    }

    /// The divergence monitor: every record claiming `(seq → lit)` must
    /// agree with every earlier claim for the same seq (Lemma 5: the
    /// `□`-views of all sites stay consistent).
    fn check_divergence(&mut self, at: u64, node: u32, lit: ObsLit, seq: u64) {
        let lit = lit_of(lit);
        match self.canon.get(seq) {
            None => {
                self.canon.insert(seq, lit);
            }
            Some(&prev) if prev == lit => {}
            Some(&prev) => {
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

    fn on_occurrence(&mut self, at: u64, node: u32, lit: ObsLit, seq: u64) {
        self.check_divergence(at, node, lit, seq);
        let lit = lit_of(lit);
        // An occurrence discharges any pending enabled-eval watch for its
        // node (either polarity: a rejection force-fires the complement).
        self.open_evals.remove((node, olit(lit).0));
        self.open_evals.remove((node, olit(lit.complement()).0));
        if self.facts.get(seq).is_some() {
            return; // a duplicate record, or a divergence already alerted
        }
        let in_order = self.facts.last().is_none_or(|&(max, _)| seq > max);
        let repeated = resolved_bit(&self.resolved, lit.symbol());
        self.facts.insert(seq, lit);
        set_bit(&mut self.resolved, lit.symbol().0 as usize);
        if repeated {
            self.observed = None;
        } else if let Some(observed) = &mut self.observed {
            if in_order {
                observed.push_unchecked(lit);
            } else {
                let distinct = observed.refill(self.facts.iter().map(|&(_, l)| l));
                debug_assert!(distinct, "a trace is dropped at its first repeated symbol");
            }
        }
        // Only the machines of the dependencies mentioning `lit` can move:
        // every other one self-loops on it. A fact slotted into the past
        // replays the ordered log through them, so their states reflect
        // the true global order.
        for k in 0..self.deps_of(lit).len() {
            let ix = self.deps_of(lit)[k] as usize;
            let machine = &self.guards.machines[ix];
            self.dep_states[ix] = if in_order {
                machine.step(self.dep_states[ix], lit)
            } else {
                self.facts.iter().fold(machine.initial, |state, &(_, l)| machine.step(state, l))
            };
            self.note_verdict(at, node, ix);
        }
        if bit(&self.gated, lit.index()) {
            self.check_guard(at, node, lit, seq);
        }
        self.recheck_pending(at);
    }

    /// The dependencies `lit` can move: those mentioning its symbol.
    fn deps_of(&self, lit: Literal) -> &[u32] {
        let s = lit.symbol().index();
        match self.deps_start.get(s..s + 2) {
            Some(&[start, end]) => &self.deps[start as usize..end as usize],
            _ => &[],
        }
    }

    /// Re-classify dependency `ix` after its machine moved; a changed
    /// verdict is recorded and, when it is a bad one, alerted.
    fn note_verdict(&mut self, at: u64, node: u32, ix: usize) {
        let verdict = classify(&self.guards.machines[ix], self.dep_states[ix]);
        if verdict != self.verdicts[ix] {
            self.verdicts[ix] = verdict;
            self.alert_dep_transition(at, node, ix, verdict);
        }
    }

    fn alert_dep_transition(&mut self, at: u64, node: u32, ix: usize, verdict: DepVerdict) {
        if self.dep_alerted[ix] {
            return;
        }
        let kind = match verdict {
            DepVerdict::Violated => AlertKind::DepViolated { dep: ix as u32 },
            DepVerdict::AtRisk => AlertKind::DepAtRisk { dep: ix as u32 },
            _ => return,
        };
        self.dep_alerted[ix] = true;
        let detail = format!(
            "dependency {ix} ({}) entered the {} state",
            self.guards.machines[ix].dependency().display(&self.table),
            verdict.label(),
        );
        self.alert(at, node, kind, detail);
    }

    /// The symbols no observed occurrence resolved, as their complements,
    /// in symbol order.
    fn unresolved_complements(&self) -> impl Iterator<Item = Literal> + '_ {
        (0..self.table.len() as u32)
            .map(SymbolId)
            .filter(|&s| !resolved_bit(&self.resolved, s))
            .map(Literal::neg)
    }

    /// Rebuild `into` as the observed occurrences completed with the
    /// complements of every unresolved symbol — the maximal trace of the
    /// finished run, on which [`MonitorState::finish`] decides the checks
    /// still pending. Positions of real facts are unchanged (complements
    /// append after them). `false` on a duplicated symbol, which the
    /// divergence monitor has already alerted.
    fn complete_trace(&self, into: &mut Trace) -> bool {
        into.refill(self.facts.iter().map(|&(_, lit)| lit).chain(self.unresolved_complements()))
    }

    /// Faithful-guard check for a gated firing. The guard's truth at the
    /// fire position can swing both ways while its symbols are
    /// unresolved (`◇e` flips true when `e` lands; `◇ē` flips false), so
    /// the check is queued and *decided* — alerting on a discrepancy —
    /// the moment every symbol the guard mentions is resolved; usually
    /// that is immediately, at fire time, by the recheck that ends
    /// [`MonitorState::on_occurrence`].
    fn check_guard(&mut self, at: u64, node: u32, lit: Literal, seq: u64) {
        self.guard_checks += 1;
        self.pending_guards.push(PendingGuard { lit, seq, node, at });
    }

    /// Decide every pending guard check whose mentioned symbols are all
    /// resolved: from that point no future fact can change the
    /// evaluation, so a false guard is alerted now — within one
    /// transition of whatever firing decided it. Such a guard reads only
    /// resolved symbols, so the observed trace decides it exactly as the
    /// completed one would.
    fn recheck_pending(&mut self, now: u64) {
        if self.pending_guards.is_empty() {
            return;
        }
        if let Some(observed) = self.observed.take() {
            self.decide_pending(now, &observed, false);
            self.observed = Some(observed);
        }
    }

    /// Evaluate pending guard checks on `trace` and alert the false ones:
    /// those whose symbols are all resolved — or, with `all` (the run is
    /// over, nothing can swing any more, and `trace` is the completed
    /// one), every one.
    fn decide_pending(&mut self, now: u64, trace: &Trace, all: bool) {
        let (resolved, guards, facts) = (&self.resolved, &self.guards, &self.facts);
        let mut failed = Vec::new();
        self.pending_guards.retain(|p| {
            // A guard outside the compiled alphabet is ⊤: trivially
            // faithful, decided now.
            if let Some(g) = guards.guard_ref(p.lit) {
                if !all && !g.symbols_all(|s| resolved_bit(resolved, s)) {
                    return true; // still swingable by future facts
                }
                if !g.eval(trace, facts.rank(p.seq)) {
                    failed.push((p.lit, p.seq, p.node, p.at));
                }
            }
            false
        });
        for (lit, seq, node, at) in failed {
            self.alert_unfaithful(now.max(at), node, lit, seq);
        }
    }

    fn alert_unfaithful(&mut self, at: u64, node: u32, lit: Literal, seq: u64) {
        let detail = format!(
            "{} fired at seq {seq} with its faithful guard false on the global view",
            self.table.literal_name(lit),
        );
        self.alert(at, node, AlertKind::GuardUnfaithful { lit: olit(lit) }, detail);
    }

    fn check_stalls(&mut self, now: u64) {
        let budget = self.config.stall_budget;
        // O(1) fast path on the cached lower bound: nothing unflagged can
        // be past its budget unless the bound is. A flagging in the scan
        // below only removes entries from the unflagged set, so the
        // recomputed bound stays exact until the next insert.
        if now.saturating_sub(self.stall_bound) <= budget {
            return;
        }
        let mut bound = u64::MAX;
        let mut stalls: Vec<(u64, u32, AlertKind, String)> = Vec::new();
        for ((node, lit), open) in self.open_rounds.iter_mut() {
            if open.flagged {
                continue;
            }
            if now.saturating_sub(open.at) > budget {
                open.flagged = true;
                let lit = ObsLit(lit);
                stalls.push((
                    now,
                    node,
                    AlertKind::PromiseStall { lit },
                    format!(
                        "promise round for {} on node {node} open since t={} (budget {budget})",
                        self.table.literal_name(lit_of(lit)),
                        open.at,
                    ),
                ));
            } else {
                bound = bound.min(open.at);
            }
        }
        for ((node, lit), open) in self.open_evals.iter_mut() {
            if open.flagged {
                continue;
            }
            if now.saturating_sub(open.at) > budget {
                open.flagged = true;
                let lit = ObsLit(lit);
                stalls.push((
                    now,
                    node,
                    AlertKind::EnabledStall { lit },
                    format!(
                        "{} enabled on node {node} since t={} but never fired (budget {budget})",
                        self.table.literal_name(lit_of(lit)),
                        open.at,
                    ),
                ));
            } else {
                bound = bound.min(open.at);
            }
        }
        self.stall_bound = bound;
        for (at, node, kind, detail) in stalls {
            self.alert(at, node, kind, detail);
        }
    }

    fn finish(&mut self, final_at: u64) -> MonitorReport {
        self.check_stalls(final_at.max(self.last_stall_check));
        // Extend the observed trace with the complements of unresolved
        // symbols — the maximal-trace convention of the executor's own
        // satisfaction check — and let the machines and the pending
        // guard checks see the completed run.
        for ix in 0..self.dep_states.len() {
            let machine = &self.guards.machines[ix];
            let state = self.dep_states[ix];
            // `⊤` and `0` are absorbing (every literal residuates them to
            // themselves), so complements cannot move a machine that has
            // already reached a terminal — which on a clean run is all of
            // them.
            if machine.is_accepting(state) || machine.is_violated(state) {
                continue;
            }
            self.dep_states[ix] =
                self.unresolved_complements().fold(state, |state, lit| machine.step(state, lit));
            self.note_verdict(final_at, u32::MAX, ix);
        }
        if !self.pending_guards.is_empty() {
            let mut maximal = std::mem::take(&mut self.completed);
            if self.complete_trace(&mut maximal) {
                self.decide_pending(final_at, &maximal, true);
            }
            self.pending_guards.clear();
            maximal.refill([]);
            self.completed = maximal;
        }
        MonitorReport {
            verdicts: self.verdicts.clone(),
            alerts: self.alerts.clone(),
            facts: self.facts.len() as u64,
            guard_checks: self.guard_checks,
        }
    }
}

/// Replay a recorded event stream through freshly derived monitors —
/// the offline entry point (`wftrace monitor`, mutation tests). The
/// `table`/`dependencies`/`gated` triple must describe the same workflow
/// the recording came from (same symbol interning order).
pub fn replay(
    events: &[TraceEvent],
    table: &SymbolTable,
    dependencies: &[Expr],
    gated: impl IntoIterator<Item = Literal>,
    config: MonitorConfig,
) -> MonitorReport {
    let mon = WorkflowMonitor::new(table, dependencies, gated, config);
    for e in events {
        mon.observe(e);
    }
    let final_at = events.iter().map(|e| e.at).max().unwrap_or(0);
    mon.finish(final_at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use event_algebra::parse_expr;

    #[test]
    fn the_tag_list_is_every_tag_sorted() {
        let lit = ObsLit::pos(0);
        let kinds = [
            AlertKind::DepViolated { dep: 0 },
            AlertKind::DepAtRisk { dep: 0 },
            AlertKind::GuardUnfaithful { lit },
            AlertKind::ViewDivergence { seq: 0 },
            AlertKind::PromiseStall { lit },
            AlertKind::EnabledStall { lit },
        ];
        let mut tags: Vec<&str> = kinds.iter().map(AlertKind::tag).collect();
        tags.sort_unstable();
        assert_eq!(tags, AlertKind::TAGS);
    }

    /// `D< = ~e + ~f + e·f` over fresh symbols; returns (table, dep, e, f).
    fn d_before() -> (SymbolTable, Expr, Literal, Literal) {
        let mut table = SymbolTable::default();
        let e = Literal::pos(table.intern("e"));
        let f = Literal::pos(table.intern("f"));
        let dep = parse_expr("~e + ~f + e.f", &mut table).expect("parses");
        (table, dep, e, f)
    }

    fn occurred(id: u64, at: u64, node: u32, lit: Literal, seq: u64) -> TraceEvent {
        TraceEvent {
            id: obs::SpanId(id),
            parent: None,
            at,
            node,
            site: node,
            kind: SpanKind::Occurred { lit: olit(lit), seq, by_acceptance: true },
        }
    }

    #[test]
    fn ordered_firing_stays_live_then_satisfied() {
        let (table, dep, e, f) = d_before();
        let mon = WorkflowMonitor::new(&table, &[dep], [e, f], MonitorConfig::default());
        mon.observe(&occurred(0, 1, 0, e, 1));
        assert_eq!(mon.verdicts(), vec![DepVerdict::Live]);
        mon.observe(&occurred(1, 2, 1, f, 2));
        assert_eq!(mon.verdicts(), vec![DepVerdict::Satisfied]);
        let report = mon.finish(3);
        assert!(!report.has_violation(), "{:?}", report.alerts);
        assert!(report.alerts.is_empty(), "{:?}", report.alerts);
        assert_eq!(report.facts, 2);
    }

    #[test]
    fn broken_order_is_flagged_violated_within_one_transition() {
        let (table, dep, e, f) = d_before();
        let mon = WorkflowMonitor::new(&table, &[dep], [e, f], MonitorConfig::default());
        // f before e: after f the machine demands ē; the e firing is the
        // offending transition and must flip the verdict immediately.
        mon.observe(&occurred(0, 1, 1, f, 1));
        assert_eq!(mon.verdicts(), vec![DepVerdict::Live]);
        mon.observe(&occurred(1, 2, 0, e, 2));
        assert_eq!(mon.verdicts(), vec![DepVerdict::Violated]);
        let alerts = mon.alerts();
        let dep_alert = alerts
            .iter()
            .find(|a| matches!(a.kind, AlertKind::DepViolated { dep: 0 }))
            .expect("violated alert");
        // Raised at the offending firing's timestamp — one transition,
        // not at end of run.
        assert_eq!(dep_alert.at, 2);
        // The faithful guard on f (□e ∨ ◇ē) was false and became decided
        // the moment e resolved — an immediate faithfulness alert too.
        let report = mon.finish(3);
        assert!(report.has_violation());
        assert!(
            report.alerts.iter().any(|a| matches!(a.kind, AlertKind::GuardUnfaithful { .. })),
            "{:?}",
            report.alerts
        );
    }

    #[test]
    fn eventually_justified_guard_stays_quiet() {
        // D→ = e + f·e: f may fire first only if e is promised; on the
        // global view the ◇-atom is justified by e's later occurrence,
        // so the pending check discharges without an alert.
        let mut table = SymbolTable::default();
        let e = Literal::pos(table.intern("e"));
        let f = Literal::pos(table.intern("f"));
        let dep = parse_expr("e + f.e", &mut table).expect("parses");
        let mon = WorkflowMonitor::new(&table, &[dep], [e, f], MonitorConfig::default());
        mon.observe(&occurred(0, 1, 1, f, 1));
        mon.observe(&occurred(1, 5, 0, e, 2));
        let report = mon.finish(6);
        assert!(
            !report.alerts.iter().any(|a| matches!(a.kind, AlertKind::GuardUnfaithful { .. })),
            "{:?}",
            report.alerts
        );
        assert_eq!(report.verdicts, vec![DepVerdict::Satisfied]);
    }

    #[test]
    fn view_divergence_is_alerted_on_first_conflict() {
        let (table, dep, e, f) = d_before();
        let mon = WorkflowMonitor::new(&table, &[dep], [e, f], MonitorConfig::default());
        mon.observe(&occurred(0, 1, 0, e, 7));
        // Another node applies a *different* literal under the same seq.
        mon.observe(&TraceEvent {
            id: obs::SpanId(1),
            parent: None,
            at: 2,
            node: 1,
            site: 1,
            kind: SpanKind::FactApplied { lit: olit(f), seq: 7 },
        });
        let alerts = mon.alerts();
        assert!(
            alerts.iter().any(|a| matches!(a.kind, AlertKind::ViewDivergence { seq: 7 })),
            "{alerts:?}"
        );
    }

    #[test]
    fn stall_watchdog_flags_an_open_promise_round_once() {
        let (table, dep, e, f) = d_before();
        let mon = WorkflowMonitor::new(&table, &[dep], [e, f], MonitorConfig { stall_budget: 10 });
        mon.observe(&TraceEvent {
            id: obs::SpanId(0),
            parent: None,
            at: 1,
            node: 0,
            site: 0,
            kind: SpanKind::PromiseOpen { lit: olit(f), for_lit: olit(e) },
        });
        // Time passes without a grant/deny/commit...
        mon.observe(&occurred(1, 50, 1, e, 1));
        let stalls = |alerts: &[Alert]| {
            alerts.iter().filter(|a| matches!(a.kind, AlertKind::PromiseStall { .. })).count()
        };
        assert_eq!(stalls(&mon.alerts()), 1);
        // ...and the watchdog does not re-alert on later sweeps.
        let report = mon.finish(100);
        assert_eq!(stalls(&report.alerts), 1);
        assert!(report.alerts.iter().all(|a| !a.kind.is_violation()), "{:?}", report.alerts);
    }

    #[test]
    fn enabled_but_unfired_event_stalls() {
        let (table, dep, e, f) = d_before();
        let mon = WorkflowMonitor::new(
            &table,
            std::slice::from_ref(&dep),
            [e, f],
            MonitorConfig { stall_budget: 10 },
        );
        mon.observe(&TraceEvent {
            id: obs::SpanId(0),
            parent: None,
            at: 1,
            node: 0,
            site: 0,
            kind: SpanKind::GuardEval {
                lit: olit(e),
                verdict: Verdict::Enabled,
                residual: 0,
                facts: Vec::new(),
            },
        });
        let report = mon.finish(100);
        assert!(
            report.alerts.iter().any(|a| matches!(a.kind, AlertKind::EnabledStall { .. })),
            "{:?}",
            report.alerts
        );
        // Firing before the budget clears the watch.
        let mon = WorkflowMonitor::new(&table, &[dep], [e, f], MonitorConfig { stall_budget: 10 });
        mon.observe(&TraceEvent {
            id: obs::SpanId(0),
            parent: None,
            at: 1,
            node: 0,
            site: 0,
            kind: SpanKind::GuardEval {
                lit: olit(e),
                verdict: Verdict::Enabled,
                residual: 0,
                facts: Vec::new(),
            },
        });
        mon.observe(&occurred(1, 2, 0, e, 1));
        let report = mon.finish(100);
        assert!(
            !report.alerts.iter().any(|a| matches!(a.kind, AlertKind::EnabledStall { .. })),
            "{:?}",
            report.alerts
        );
    }

    #[test]
    fn unsatisfiable_dependency_is_flagged_from_the_initial_state() {
        // e·ē admits no satisfying trace at all; the residual algebra
        // normalises it to the violated terminal 0, so the monitor
        // reports violated from the initial state — before any event
        // fires.
        let mut table = SymbolTable::default();
        let e = Literal::pos(table.intern("e"));
        let dep = Expr::seq([Expr::lit(e), Expr::lit(e.complement())]);
        let mon = WorkflowMonitor::new(&table, &[dep], [e], MonitorConfig::default());
        assert_eq!(mon.verdicts(), vec![DepVerdict::Violated]);
    }

    #[test]
    fn out_of_order_facts_are_replayed_into_global_order() {
        let (table, dep, e, f) = d_before();
        let mon = WorkflowMonitor::new(&table, &[dep], [e, f], MonitorConfig::default());
        // Records arrive f-then-e, but the global seqs say e came first:
        // the replay path must land on Satisfied, not Violated.
        mon.observe(&occurred(0, 1, 1, f, 5));
        mon.observe(&occurred(1, 2, 0, e, 3));
        assert_eq!(mon.verdicts(), vec![DepVerdict::Satisfied]);
        let report = mon.finish(3);
        assert!(!report.has_violation(), "{:?}", report.alerts);
    }

    #[test]
    fn unresolved_symbols_complete_as_complements_at_finish() {
        let (table, dep, e, _f) = d_before();
        let mon = WorkflowMonitor::new(&table, &[dep], [e], MonitorConfig::default());
        // Only e fires; ~f completes the trace, and ~e + ~f + e·f is
        // satisfied by [e, ~f].
        mon.observe(&occurred(0, 1, 0, e, 1));
        let report = mon.finish(2);
        assert_eq!(report.verdicts, vec![DepVerdict::Satisfied]);
    }
}
