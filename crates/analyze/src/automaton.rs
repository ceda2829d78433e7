//! Pass 1: automaton-based satisfiability core.
//!
//! Per-dependency checks run directly on each residual machine: a machine
//! with no accepting state makes its dependency unsatisfiable on its own
//! (`WF004`); reachable trap states mean the dependency can be violated
//! by a bad prefix, which the runtime scheduler must guard against
//! (`WF005`). Joint properties run on the product machine: the all-`⊤`
//! configuration is reachable iff the dependencies admit a common
//! satisfying execution (`WF001` otherwise), and avoid-literal queries
//! decide per-event deadness (`WF002`) and forcedness (`WF003`) — all of
//! them one [`ProductMachine::classify`] call on one [`StateBudget`];
//! exhausting it degrades to an explicit `WF006` instead of hanging.

use crate::{Ctx, Diagnostic, LabeledSpan, Report, Severity};
use event_algebra::{DependencyMachine, Literal, ProductMachine, Reach, StateBudget};

/// Check `machines` (the compiled workflow's, one per dependency) alone
/// and then in their product.
pub(crate) fn run(
    ctx: &Ctx<'_>,
    machines: Vec<DependencyMachine>,
    state_budget: usize,
    report: &mut Report,
) {
    report.diagnostics.reserve(machines.len());
    let mut any_unsat_alone = false;
    for (ix, m) in machines.iter().enumerate() {
        let traps = m.live().iter().filter(|&&live| !live).count();
        let accepting = m.has_accepting();
        if accepting && traps == 0 {
            continue;
        }
        let dep = ctx.dep(ix);
        let (code, severity, message) = if accepting {
            let message = format!(
                "{} can be violated at runtime: {traps} of its {} machine states \
                 are traps; the scheduler will refuse transitions entering them",
                dep.label,
                m.state_count(),
            );
            ("WF005", Severity::Info, message)
        } else {
            any_unsat_alone = true;
            let message = format!(
                "{} is unsatisfiable on its own: its residual machine \
                 has no accepting state",
                dep.label
            );
            ("WF004", Severity::Error, message)
        };
        report.push(Diagnostic::with_spans(code, severity, message, vec![dep]));
    }
    if ctx.deps.is_empty() {
        return;
    }

    let mut pm = ProductMachine::from_machines(machines);
    let mut budget = StateBudget::new(state_budget);
    let verdict = pm.classify(&mut budget);
    report.incomplete = verdict.incomplete;

    if verdict.joint == Reach::No {
        report.jointly_contradictory = true;
        // Only report the joint contradiction when every dependency is
        // individually fine — otherwise WF004 already names the culprit.
        if !any_unsat_alone {
            report.push(Diagnostic::with_spans(
                "WF001",
                Severity::Error,
                format!(
                    "the {} dependencies are jointly contradictory: \
                     no execution satisfies all of them",
                    ctx.deps.len()
                ),
                (0..ctx.deps.len()).map(|ix| ctx.dep(ix)).collect(),
            ));
        }
    }

    // `verdict.dead` is empty unless the conjunction is satisfiable.
    for &sym in &ctx.compiled.symbols {
        let pos = Literal::pos(sym);
        if verdict.dead.binary_search(&pos).is_ok() {
            report.dead.push(pos);
            let deps = ctx.deps_mentioning_all(std::slice::from_ref(&sym));
            let mut spans: Vec<LabeledSpan> = Vec::with_capacity(1 + deps.clone().count());
            spans.push(ctx.event_span(sym));
            spans.extend(deps.map(|ix| ctx.dep(ix)));
            report.push(Diagnostic::with_spans(
                "WF002",
                Severity::Warning,
                format!(
                    "event '{}' is dead: it occurs in no execution \
                     satisfying all dependencies",
                    ctx.sym_name(sym)
                ),
                spans,
            ));
        } else if verdict.dead.binary_search(&Literal::neg(sym)).is_ok() {
            // forced(e) = dead(ē).
            report.forced.push(pos);
            report.push(Diagnostic::with_spans(
                "WF003",
                Severity::Info,
                format!(
                    "event '{}' is forced: it occurs in every execution \
                     satisfying all dependencies",
                    ctx.sym_name(sym)
                ),
                vec![ctx.event_span(sym)],
            ));
        }
    }

    report.states_explored = budget.spent();
    if report.incomplete {
        report.push(Diagnostic::new(
            "WF006",
            Severity::Warning,
            format!(
                "state budget of {} product states exhausted after interning {}; \
                 dead/forced verdicts are incomplete — rerun with a larger budget",
                budget.limit(),
                budget.spent()
            ),
        ));
    }
}
