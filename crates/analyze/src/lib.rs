//! Static verification of workflow specifications before deployment.
//!
//! The schedulers in this workspace enforce dependencies at runtime; this
//! crate answers, *before* any event is attempted, whether a workflow can
//! work at all and what coordination it will cost. Three passes, one
//! [`Report`]:
//!
//! 1. **Automaton core** — product reachability over the per-dependency
//!    residual machines ([`event_algebra::ProductMachine`]) decides joint
//!    satisfiability and, per event, deadness/forcedness, under an
//!    explicit state budget that is *reported* rather than silently
//!    truncating. Per-dependency machines are checked for accepting
//!    states and reachable traps.
//! 2. **Distribution safety** — the event-wise independence precondition
//!    of the paper's distribution theorem (Definition 3 / Lemma 5): which
//!    event pairs are coupled through some dependency's guard, and which
//!    of those straddle sites and therefore need cross-site coordination
//!    messages.
//! 3. **Need-graph deadlock** — a wait-for graph over the promises and
//!    not-yet agreements each synthesized guard asks for
//!    ([`temporal::asks`]); strongly
//!    connected components expose `◇`-consensus groups and `¬`-hold
//!    contention cycles of any length, and mixed cycles that can deadlock
//!    a distributed execution.
//!
//! Every finding is a [`Diagnostic`] with a stable `WF0xx` code, severity,
//! and source spans threaded from the spec language, rendered as
//! compiler-style text or JSON.
//!
//! A check allocates per declaration, per shape and per finding, not per
//! query: the automaton pass hands the compiled machines to the product
//! instead of copying them, the other two passes read the guards' factors
//! in place, and a finding's message, labels and span list are each built
//! once (`tests/check_alloc_budget.rs` holds the counts).
//!
//! # Diagnostic codes
//!
//! | code  | severity | meaning |
//! |-------|----------|---------|
//! | WF000 | error    | specification parse error |
//! | WF001 | error    | dependencies jointly contradictory — no satisfying execution |
//! | WF002 | warning  | dead event: occurs in no satisfying execution |
//! | WF003 | info     | forced event: occurs in every satisfying execution |
//! | WF004 | error    | dependency individually unsatisfiable (no accepting state) |
//! | WF005 | info     | dependency violable: reachable trap states |
//! | WF006 | warning  | state budget exhausted; dead/forced verdicts incomplete |
//! | WF007 | info     | parametrized templates skipped by static checking |
//! | WF010 | info     | coupled events require coordination messages |
//! | WF011 | warning  | coupled events straddle sites (Lemma 5 precondition fails) |
//! | WF020 | warning  | `◇`-consensus cycle: promises must be granted jointly |
//! | WF021 | warning  | `¬`-hold contention cycle: not-yet agreements chase each other |
//! | WF022 | warning  | mixed `◇`/`¬` cycle: potential distributed deadlock |

#![warn(missing_docs)]

mod automaton;
mod diag;
mod independence;
mod needgraph;

pub use diag::{json_str, Diagnostic, LabeledSpan, Severity};

use event_algebra::{Expr, Literal, SymbolId, SymbolTable};
use guard::{CompiledWorkflow, GuardScope};
use speclang::{DepOrigin, LoweredEvent, LoweredWorkflow, Span};
use std::fmt;

/// Default product-state budget of [`AnalyzeOptions`]. Generous: typical
/// workflow products stay well under a thousand states.
pub const DEFAULT_STATE_BUDGET: usize = 1 << 20;

/// Tunables for an analysis run.
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// Maximum number of product states the reachability core may intern
    /// across all queries; exceeding it yields `WF006` instead of an
    /// unbounded search.
    pub state_budget: usize,
}

impl Default for AnalyzeOptions {
    fn default() -> AnalyzeOptions {
        AnalyzeOptions { state_budget: DEFAULT_STATE_BUDGET }
    }
}

/// The outcome of verifying one workflow.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workflow name, when analyzed from a lowered specification.
    pub workflow: Option<String>,
    /// All findings, sorted by source position then code.
    pub diagnostics: Vec<Diagnostic>,
    /// How many (ground) dependencies were checked.
    pub dependencies: usize,
    /// How many distinct shapes they have — dependencies modulo an
    /// order-preserving renaming of their symbols, which is how many the
    /// compile synthesized guards and explored a machine for
    /// ([`CompiledWorkflow::shape_count`]).
    pub dependency_shapes: usize,
    /// Product states the reachability core interned and charged to the
    /// state budget, summed over all queries. The initial state is free,
    /// so a verdict settled without a search reports `0`.
    pub states_explored: usize,
    /// `true` when the state budget cut some verdict short (`WF006`).
    pub incomplete: bool,
    /// `true` when the dependencies admit no common satisfying execution.
    pub jointly_contradictory: bool,
    /// Events (positive literals) that occur in no satisfying execution.
    pub dead: Vec<Literal>,
    /// Events (positive literals) that occur in every satisfying
    /// execution.
    pub forced: Vec<Literal>,
}

impl Report {
    fn new(workflow: Option<String>) -> Report {
        Report {
            workflow,
            diagnostics: Vec::new(),
            dependencies: 0,
            dependency_shapes: 0,
            states_explored: 0,
            incomplete: false,
            jointly_contradictory: false,
            dead: Vec::new(),
            forced: Vec::new(),
        }
    }

    /// Wrap a parse failure as a report carrying a single `WF000`
    /// diagnostic, so callers handle unparsable and unsound
    /// specifications uniformly.
    pub fn from_spec_error(err: &speclang::SpecError) -> Report {
        let mut r = Report::new(None);
        r.push(Diagnostic::from_spec_error(err));
        r
    }

    /// Number of findings at exactly `sev`.
    pub fn count(&self, sev: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == sev).count()
    }

    /// `true` when some finding carries `code`.
    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// `true` when nothing at warning level or above was found.
    pub fn is_clean(&self) -> bool {
        self.count(Severity::Error) == 0 && self.count(Severity::Warning) == 0
    }

    /// Process exit code: errors always fail; warnings fail under
    /// `deny_warnings`.
    pub fn exit_code(&self, deny_warnings: bool) -> i32 {
        let failing =
            self.count(Severity::Error) > 0 || (deny_warnings && self.count(Severity::Warning) > 0);
        i32::from(failing)
    }

    /// One-line totals, e.g. `2 errors, 1 warning, 3 notes; 57 product
    /// states explored`.
    pub fn summary_line(&self) -> String {
        fn n(count: usize, what: &str) -> String {
            let s = if count == 1 { "" } else { "s" };
            format!("{count} {what}{s}")
        }
        format!(
            "{}, {}, {}; {} product states explored{}",
            n(self.count(Severity::Error), "error"),
            n(self.count(Severity::Warning), "warning"),
            n(self.count(Severity::Info), "note"),
            self.states_explored,
            if self.incomplete { " (incomplete)" } else { "" }
        )
    }

    /// Render every diagnostic plus the summary line as compiler-style
    /// text.
    pub fn render_text(&self, file: Option<&str>) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render(file));
            out.push('\n');
        }
        out.push_str(&self.summary_line());
        out.push('\n');
        out
    }

    /// Render the whole report as one JSON object.
    pub fn to_json(&self, file: Option<&str>) -> String {
        let diags: Vec<String> = self.diagnostics.iter().map(|d| d.to_json(file)).collect();
        let mut fields = Vec::new();
        if let Some(f) = file {
            fields.push(format!("\"file\":{}", json_str(f)));
        }
        if let Some(w) = &self.workflow {
            fields.push(format!("\"workflow\":{}", json_str(w)));
        }
        fields.push(format!("\"dependencies\":{}", self.dependencies));
        fields.push(format!("\"dependency_shapes\":{}", self.dependency_shapes));
        fields.push(format!("\"states_explored\":{}", self.states_explored));
        fields.push(format!("\"incomplete\":{}", self.incomplete));
        fields.push(format!("\"errors\":{}", self.count(Severity::Error)));
        fields.push(format!("\"warnings\":{}", self.count(Severity::Warning)));
        fields.push(format!("\"diagnostics\":[{}]", diags.join(",")));
        format!("{{{}}}", fields.join(","))
    }

    fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Sort the findings by primary position, then code, then message.
    fn finish(&mut self) {
        let key = |d: &Diagnostic| {
            let sp = d.primary_span().unwrap_or(Span::at(usize::MAX, usize::MAX));
            (sp.line, sp.col, d.code)
        };
        self.diagnostics
            .sort_by(|a, b| key(a).cmp(&key(b)).then_with(|| a.message.cmp(&b.message)));
    }
}

/// Everything the passes need to name, place, and locate declarations.
pub(crate) struct Ctx<'a> {
    pub table: &'a SymbolTable,
    pub deps: &'a [Expr],
    pub dep_origins: &'a [DepOrigin],
    pub events: &'a [LoweredEvent],
    pub compiled: CompiledWorkflow,
}

/// A literal's name as [`SymbolTable::literal_name`] renders it, written
/// straight into a message.
pub(crate) struct Name<'a>(&'a SymbolTable, Literal);

impl fmt::Display for Name<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Name(table, lit) = *self;
        if !lit.is_pos() {
            f.write_str("~")?;
        }
        match table.name(lit.symbol()) {
            Some(name) => f.write_str(name),
            None => write!(f, "e{}", lit.symbol().0),
        }
    }
}

impl Ctx<'_> {
    pub fn lit_name(&self, l: Literal) -> Name<'_> {
        Name(self.table, l)
    }

    pub fn sym_name(&self, s: SymbolId) -> Name<'_> {
        Name(self.table, Literal::pos(s))
    }

    fn event_of(&self, s: SymbolId) -> Option<&LoweredEvent> {
        self.events.iter().find(|e| e.literal.symbol() == s)
    }

    pub fn site_of(&self, s: SymbolId) -> Option<u32> {
        self.event_of(s).and_then(|e| e.site)
    }

    /// Span + label for the event declaring `s` (synthetic when the
    /// symbol only appears inside dependencies).
    pub fn event_span(&self, s: SymbolId) -> LabeledSpan {
        match self.event_of(s) {
            Some(e) => LabeledSpan::new(e.span, format!("event '{}'", e.name)),
            None => LabeledSpan::new(
                Span::default(),
                format!("event '{}' (undeclared)", self.sym_name(s)),
            ),
        }
    }

    /// Dependency `ix`'s span, labelled with its name.
    pub fn dep(&self, ix: usize) -> LabeledSpan {
        let origin = self.dep_origins.get(ix);
        let label = match origin.and_then(|o| o.label.as_deref()) {
            Some(l) => format!("dep '{l}'"),
            None => format!("dependency #{}", ix + 1),
        };
        LabeledSpan::new(origin.map_or_else(Span::default, |o| o.span), label)
    }

    /// Indices of dependencies mentioning every symbol in `syms`.
    pub fn deps_mentioning_all<'s>(
        &'s self,
        syms: &'s [SymbolId],
    ) -> impl Iterator<Item = usize> + Clone + 's {
        let mentioned = &self.compiled.dependency_symbols;
        (0..mentioned.len())
            .filter(move |&ix| syms.iter().all(|s| mentioned[ix].binary_search(s).is_ok()))
    }
}

/// Verify a lowered workflow specification: all three passes, with spans
/// taken from the declarations.
pub fn analyze_workflow(w: &LoweredWorkflow, opts: &AnalyzeOptions) -> Report {
    let mut report = Report::new(Some(w.name.clone()));
    let mut ctx = Ctx {
        table: &w.table,
        deps: &w.ground_deps,
        dep_origins: &w.dep_origins,
        events: &w.events,
        compiled: CompiledWorkflow::compile(&w.ground_deps, GuardScope::Mentioning),
    };
    if !w.templates.is_empty() {
        let spans = (w.template_origins.iter())
            .map(|o| {
                let label = match &o.label {
                    Some(l) => format!("template '{l}'"),
                    None => "template".to_owned(),
                };
                LabeledSpan::new(o.span, label)
            })
            .collect();
        report.push(Diagnostic::with_spans(
            "WF007",
            Severity::Info,
            format!(
                "{} parametrized dependency template(s) are not statically checked; \
                 the dynamic scheduler instantiates them at runtime",
                w.templates.len()
            ),
            spans,
        ));
    }
    run_passes(&mut ctx, opts, &mut report);
    report
}

/// Verify a bare dependency set (no declarations, so spans are synthetic
/// and site information is unavailable).
pub fn analyze_dependencies(deps: &[Expr], table: &SymbolTable, opts: &AnalyzeOptions) -> Report {
    let mut report = Report::new(None);
    let mut ctx = Ctx {
        table,
        deps,
        dep_origins: &[],
        events: &[],
        compiled: CompiledWorkflow::compile(deps, GuardScope::Mentioning),
    };
    run_passes(&mut ctx, opts, &mut report);
    report
}

/// The three passes. The automaton pass takes the compiled machines into
/// its product: no later pass reads them.
fn run_passes(ctx: &mut Ctx<'_>, opts: &AnalyzeOptions, report: &mut Report) {
    report.dependencies = ctx.deps.len();
    report.dependency_shapes = ctx.compiled.shape_count();
    let machines = std::mem::take(&mut ctx.compiled.machines);
    automaton::run(ctx, machines, opts.state_budget, report);
    independence::run(ctx, report);
    needgraph::run(ctx, report);
    report.finish();
}
