//! Pass 2: distribution safety — event-wise independence (Lemma 5).
//!
//! The paper's distribution result needs dependencies whose events are
//! *event-wise independent* across sites: an event's guard may only
//! mention events whose announcements can reach its actor. Whenever the
//! synthesized guard of either polarity of `a` mentions symbol `b`, the
//! two actors must exchange coordination messages (`□`/`◇`
//! announcements). Same-site or unplaced couplings are reported for
//! visibility (`WF010`); couplings straddling two declared sites violate
//! the independence precondition and cost cross-site messages on the
//! critical path (`WF011`).

use crate::{Ctx, Diagnostic, LabeledSpan, Report, Severity};
use event_algebra::{Literal, SymbolId};
use std::fmt;

pub(crate) fn run(ctx: &Ctx<'_>, report: &mut Report) {
    // Every unordered pair of symbols one's guard mentions the other in,
    // read off the guards' factors.
    let mut pairs: Vec<(SymbolId, SymbolId)> = Vec::with_capacity(4 * ctx.compiled.symbols.len());
    for &sym in &ctx.compiled.symbols {
        for lit in [Literal::pos(sym), Literal::neg(sym)] {
            let Some(guard) = ctx.compiled.guard_ref(lit) else { continue };
            guard.symbols_all(|other| {
                if other != sym {
                    pairs.push(if sym < other { (sym, other) } else { (other, sym) });
                }
                true
            });
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    report.diagnostics.reserve(pairs.len());
    for (a, b) in pairs {
        let pair = [a, b];
        let via = ctx.deps_mentioning_all(&pair);
        let mut spans: Vec<LabeledSpan> = Vec::with_capacity(2 + via.clone().count());
        spans.push(ctx.event_span(a));
        spans.push(ctx.event_span(b));
        spans.extend(via.map(|ix| ctx.dep(ix)));
        let via = Via(&spans[2..]);
        let (na, nb) = (ctx.sym_name(a), ctx.sym_name(b));
        let (code, severity, message) = match (ctx.site_of(a), ctx.site_of(b)) {
            (Some(x), Some(y)) if x != y => (
                "WF011",
                Severity::Warning,
                format!(
                    "events '{na}' (site {x}) and '{nb}' (site {y}) are not event-wise \
                     independent{via}: enforcement requires coordination messages \
                     between sites {x} and {y} (Lemma 5 precondition fails)",
                ),
            ),
            (Some(x), Some(_)) => (
                "WF010",
                Severity::Info,
                format!(
                    "events '{na}' and '{nb}' must exchange coordination messages{via}; \
                     they are co-located at site {x}, so messages stay local",
                ),
            ),
            _ => (
                "WF010",
                Severity::Info,
                format!(
                    "events '{na}' and '{nb}' must exchange coordination messages{via}; \
                     at least one of them is unplaced",
                ),
            ),
        };
        report.push(Diagnostic::with_spans(code, severity, message, spans));
    }
}

/// ` (coupled by dep 'd1', dep 'd2')` from the dependencies' spans, or
/// nothing when the pair is coupled only through conjoined guards.
struct Via<'a>(&'a [LabeledSpan]);

impl fmt::Display for Via<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Some((first, rest)) = self.0.split_first() else { return Ok(()) };
        write!(f, " (coupled by {}", first.label)?;
        for dep in rest {
            write!(f, ", {}", dep.label)?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use crate::{analyze_dependencies, AnalyzeOptions};
    use event_algebra::{parse_expr, SymbolTable};

    #[test]
    fn symmetric_pairs_report_once() {
        // Coupling is symmetric — guard(e) mentions f *and* guard(f)
        // mentions e — but each unordered pair must surface as exactly
        // one WF010, never once per direction.
        let mut t = SymbolTable::new();
        let d = parse_expr("~e + ~f + e.f", &mut t).unwrap();
        let report = analyze_dependencies(&[d], &t, &AnalyzeOptions::default());
        let wf010: Vec<_> = report.diagnostics.iter().filter(|d| d.code == "WF010").collect();
        assert_eq!(wf010.len(), 1, "one diagnostic per unordered pair: {wf010:?}");
        assert!(wf010[0].message.contains("'e'") && wf010[0].message.contains("'f'"));
    }

    #[test]
    fn duplicate_dependencies_do_not_duplicate_pairs() {
        // The same dependency twice couples the same pair through two
        // guard conjuncts; the pair still reports once.
        let mut t = SymbolTable::new();
        let d1 = parse_expr("~e + f", &mut t).unwrap();
        let d2 = parse_expr("~e + f", &mut t).unwrap();
        let report = analyze_dependencies(&[d1, d2], &t, &AnalyzeOptions::default());
        assert_eq!(report.diagnostics.iter().filter(|d| d.code == "WF010").count(), 1);
    }
}
