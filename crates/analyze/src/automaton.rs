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

use crate::{Ctx, Diagnostic, Report, Severity};
use event_algebra::{Literal, ProductMachine, Reach, StateBudget};

pub(crate) fn run(ctx: &Ctx<'_>, state_budget: usize, report: &mut Report) {
    let mut any_unsat_alone = false;
    for (ix, m) in ctx.compiled.machines.iter().enumerate() {
        if m.has_accepting() {
            let traps = m.trap_states();
            if !traps.is_empty() {
                report.push(
                    Diagnostic::new(
                        "WF005",
                        Severity::Info,
                        format!(
                            "{} can be violated at runtime: {} of its {} machine states \
                             are traps; the scheduler will refuse transitions entering them",
                            ctx.dep_label(ix),
                            traps.len(),
                            m.state_count(),
                        ),
                    )
                    .with_span(ctx.dep_span(ix), ctx.dep_label(ix)),
                );
            }
        } else {
            any_unsat_alone = true;
            report.push(
                Diagnostic::new(
                    "WF004",
                    Severity::Error,
                    format!(
                        "{} is unsatisfiable on its own: its residual machine \
                         has no accepting state",
                        ctx.dep_label(ix)
                    ),
                )
                .with_span(ctx.dep_span(ix), ctx.dep_label(ix)),
            );
        }
    }
    if ctx.deps.is_empty() {
        return;
    }

    let mut pm = ProductMachine::from_machines(ctx.compiled.machines.clone());
    let mut budget = StateBudget::new(state_budget);
    let verdict = pm.classify(&mut budget);
    report.incomplete = verdict.incomplete;

    if verdict.joint == Reach::No {
        report.jointly_contradictory = true;
        // Only report the joint contradiction when every dependency is
        // individually fine — otherwise WF004 already names the culprit.
        if !any_unsat_alone {
            let mut d = Diagnostic::new(
                "WF001",
                Severity::Error,
                format!(
                    "the {} dependencies are jointly contradictory: \
                     no execution satisfies all of them",
                    ctx.deps.len()
                ),
            );
            for ix in 0..ctx.deps.len() {
                d = d.with_span(ctx.dep_span(ix), ctx.dep_label(ix));
            }
            report.push(d);
        }
    }

    // `verdict.dead` is empty unless the conjunction is satisfiable.
    for &sym in &ctx.compiled.symbols {
        let pos = Literal::pos(sym);
        if verdict.dead.binary_search(&pos).is_ok() {
            report.dead.push(pos);
            let (span, label) = ctx.event_span(sym);
            let mut d = Diagnostic::new(
                "WF002",
                Severity::Warning,
                format!(
                    "event '{}' is dead: it occurs in no execution \
                     satisfying all dependencies",
                    ctx.sym_name(sym)
                ),
            )
            .with_span(span, label);
            for ix in ctx.deps_mentioning_all(&[sym]) {
                d = d.with_span(ctx.dep_span(ix), ctx.dep_label(ix));
            }
            report.push(d);
        } else if verdict.dead.binary_search(&Literal::neg(sym)).is_ok() {
            // forced(e) = dead(ē).
            report.forced.push(pos);
            let (span, label) = ctx.event_span(sym);
            report.push(
                Diagnostic::new(
                    "WF003",
                    Severity::Info,
                    format!(
                        "event '{}' is forced: it occurs in every execution \
                         satisfying all dependencies",
                        ctx.sym_name(sym)
                    ),
                )
                .with_span(span, label),
            );
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
