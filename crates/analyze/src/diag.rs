//! Structured diagnostics: codes, severities, spans, and rendering.
//!
//! Every finding of the static verifier is a [`Diagnostic`] with a stable
//! `WF0xx` code, so CI pipelines can gate on specific conditions and the
//! human/JSON renderings stay in lockstep. The code space is grouped by
//! pass: `WF00x` automaton core, `WF01x` distribution safety, `WF02x`
//! need-graph deadlock detection.

use speclang::{Span, SpecError};
use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: surfaced for visibility, never fails a build.
    Info,
    /// Suspicious: fails the build only under `--deny warnings`.
    Warning,
    /// Definitely broken: always fails the build.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// A source span with a role label ("event 'approve'", "dep 'd2'").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledSpan {
    /// Position in the specification source (synthetic for declarations
    /// built programmatically).
    pub span: Span,
    /// What sits at that position.
    pub label: String,
}

impl LabeledSpan {
    /// A labeled span.
    pub fn new(span: Span, label: impl Into<String>) -> LabeledSpan {
        LabeledSpan { span, label: label.into() }
    }
}

/// One finding of the static verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable machine-readable code (`WF001`…). See the crate docs for
    /// the full table.
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Human-readable description of the finding.
    pub message: String,
    /// The declarations involved, primary span first.
    pub spans: Vec<LabeledSpan>,
}

impl Diagnostic {
    /// A new diagnostic with no spans attached yet.
    pub fn new(code: &'static str, severity: Severity, message: impl Into<String>) -> Diagnostic {
        Diagnostic { code, severity, message: message.into(), spans: Vec::new() }
    }

    /// A new diagnostic with all its spans, primary first.
    pub fn with_spans(
        code: &'static str,
        severity: Severity,
        message: impl Into<String>,
        spans: Vec<LabeledSpan>,
    ) -> Diagnostic {
        Diagnostic { code, severity, message: message.into(), spans }
    }

    /// Attach a span (builder style).
    pub fn with_span(mut self, span: Span, label: impl Into<String>) -> Diagnostic {
        self.spans.push(LabeledSpan::new(span, label));
        self
    }

    /// Wrap a parser error as a `WF000` diagnostic, so the CLI reports
    /// syntax and semantic findings uniformly.
    pub fn from_spec_error(err: &SpecError) -> Diagnostic {
        Diagnostic::new("WF000", Severity::Error, format!("parse error: {}", err.message))
            .with_span(Span::at(err.line, err.col), "here")
    }

    /// The primary span, if any non-synthetic one exists.
    pub fn primary_span(&self) -> Option<Span> {
        self.spans.iter().map(|s| s.span).find(|s| !s.is_synthetic())
    }

    /// Render as a compiler-style line, optionally prefixed by a file
    /// name: `spec.wf:3:5: warning[WF002]: …`. Secondary spans follow as
    /// indented notes.
    pub fn render(&self, file: Option<&str>) -> String {
        let mut out = String::new();
        let mut prefix = String::new();
        if let Some(f) = file {
            prefix.push_str(f);
            prefix.push(':');
        }
        if let Some(sp) = self.primary_span() {
            prefix.push_str(&format!("{sp}:"));
        }
        if !prefix.is_empty() {
            prefix.push(' ');
        }
        out.push_str(&format!("{prefix}{}[{}]: {}", self.severity, self.code, self.message));
        for s in self.spans.iter().skip(1) {
            if s.span.is_synthetic() {
                out.push_str(&format!("\n    note: {}", s.label));
            } else {
                out.push_str(&format!("\n    note: {} at {}", s.label, s.span));
            }
        }
        out
    }

    /// Render as a JSON object (hand-rolled: the workspace deliberately
    /// carries no serialization dependency). When `file` is known it is
    /// emitted on *every* diagnostic — including span-less ones — so
    /// downstream tooling can group findings by spec without joining
    /// against the report envelope.
    pub fn to_json(&self, file: Option<&str>) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"line\":{},\"col\":{},\"label\":{}}}",
                    s.span.line,
                    s.span.col,
                    json_str(&s.label)
                )
            })
            .collect();
        let file_field = match file {
            Some(f) => format!("\"file\":{},", json_str(f)),
            None => String::new(),
        };
        format!(
            "{{{file_field}\"code\":{},\"severity\":{},\"message\":{},\"spans\":[{}]}}",
            json_str(self.code),
            json_str(&self.severity.to_string()),
            json_str(&self.message),
            spans.join(",")
        )
    }
}

/// Escape a string for JSON output.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_with_file_and_span() {
        let d = Diagnostic::new("WF002", Severity::Warning, "event 'e' is dead")
            .with_span(Span::at(3, 5), "event 'e'")
            .with_span(Span::at(7, 9), "dep 'd1'");
        let r = d.render(Some("spec.wf"));
        assert!(r.starts_with("spec.wf:3:5: warning[WF002]: event 'e' is dead"), "{r}");
        assert!(r.contains("note: dep 'd1' at 7:9"), "{r}");
    }

    #[test]
    fn renders_without_spans() {
        let d = Diagnostic::new("WF001", Severity::Error, "contradiction");
        assert_eq!(d.render(None), "error[WF001]: contradiction");
    }

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        let d = Diagnostic::new("WF001", Severity::Error, "x").with_span(Span::at(1, 2), "y");
        assert_eq!(
            d.to_json(None),
            "{\"code\":\"WF001\",\"severity\":\"error\",\"message\":\"x\",\
             \"spans\":[{\"line\":1,\"col\":2,\"label\":\"y\"}]}"
        );
    }

    #[test]
    fn json_carries_file_even_without_spans() {
        // Span-less findings (e.g. WF001 on a programmatic dependency
        // set) must still name their spec so tooling can group by file.
        let d = Diagnostic::new("WF001", Severity::Error, "contradiction");
        assert_eq!(
            d.to_json(Some("spec.wf")),
            "{\"file\":\"spec.wf\",\"code\":\"WF001\",\"severity\":\"error\",\
             \"message\":\"contradiction\",\"spans\":[]}"
        );
    }

    #[test]
    fn spec_errors_become_wf000() {
        let err = speclang::parse_workflow("workflow x {\n  dep d1 ~e;\n}").unwrap_err();
        let d = Diagnostic::from_spec_error(&err);
        assert_eq!(d.code, "WF000");
        assert_eq!(d.primary_span(), Some(Span::at(2, 7)), "position of the unlabeled dep");
    }

    #[test]
    fn severity_ordering_matches_gating() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }
}
