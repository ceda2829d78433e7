//! End-to-end verification scenarios: each of the paper-grounded defect
//! classes produces its `WF0xx` diagnostic, with spans pointing at the
//! offending declarations.

use analyze::{analyze_dependencies, analyze_workflow, AnalyzeOptions, Report, Severity};
use event_algebra::{parse_expr, SymbolTable};
use speclang::{LoweredWorkflow, Span};

fn check(src: &str) -> Report {
    check_with(src, &AnalyzeOptions::default())
}

fn check_with(src: &str, opts: &AnalyzeOptions) -> Report {
    let w = LoweredWorkflow::parse(src).unwrap_or_else(|e| panic!("{e}"));
    analyze_workflow(&w, opts)
}

fn codes(r: &Report) -> Vec<&'static str> {
    let mut c: Vec<_> = r.diagnostics.iter().map(|d| d.code).collect();
    c.sort_unstable();
    c.dedup();
    c
}

#[test]
fn clean_chain_has_no_findings_above_info() {
    let r = check(
        "workflow chain {\n\
         \x20   event submit;\n\
         \x20   event approve;\n\
         \x20   dep d1: submit -> approve;\n\
         }\n",
    );
    assert!(r.is_clean(), "{:?}", r.diagnostics);
    assert_eq!(r.exit_code(true), 0);
    // The coupling is still visible at info level (coordination needed).
    assert!(r.has_code("WF010"), "{:?}", codes(&r));
    assert!(!r.jointly_contradictory);
    assert!(r.dead.is_empty() && r.forced.is_empty());
}

#[test]
fn jointly_contradictory_pair_is_an_error_with_dep_spans() {
    let r = check(
        "workflow clash {\n\
         \x20   event pay;\n\
         \x20   dep want: pay;\n\
         \x20   dep veto: ~pay;\n\
         }\n",
    );
    assert!(r.jointly_contradictory);
    assert!(r.has_code("WF001"), "{:?}", codes(&r));
    assert_eq!(r.exit_code(false), 1);
    let d = r.diagnostics.iter().find(|d| d.code == "WF001").unwrap();
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.primary_span(), Some(Span::at(3, 5)), "first dep span");
    assert!(d.spans.iter().any(|s| s.label.contains("veto")), "{:?}", d.spans);
}

#[test]
fn dead_and_forced_events_carry_event_spans() {
    let r = check(
        "workflow dead {\n\
         \x20   event go;\n\
         \x20   event stop;\n\
         \x20   dep d1: ~go;\n\
         \x20   dep d2: stop;\n\
         }\n",
    );
    assert!(r.has_code("WF002"), "{:?}", codes(&r));
    assert!(r.has_code("WF003"), "{:?}", codes(&r));
    let dead = r.diagnostics.iter().find(|d| d.code == "WF002").unwrap();
    assert_eq!(dead.severity, Severity::Warning);
    assert_eq!(dead.primary_span(), Some(Span::at(2, 5)), "event go declaration");
    assert!(dead.message.contains("'go'"), "{}", dead.message);
    // The dep that kills it is cited as a secondary span.
    assert!(dead.spans.iter().any(|s| s.label.contains("d1")), "{:?}", dead.spans);
    let forced = r.diagnostics.iter().find(|d| d.code == "WF003").unwrap();
    assert_eq!(forced.severity, Severity::Info);
    assert_eq!(forced.primary_span(), Some(Span::at(3, 5)));
    // Dead is a warning: clean without deny, non-zero with.
    assert_eq!(r.exit_code(false), 0);
    assert_eq!(r.exit_code(true), 1);
}

#[test]
fn three_event_consensus_cycle_is_found_beyond_pairwise() {
    let src = "workflow ring {\n\
               \x20   event e;\n\
               \x20   event f;\n\
               \x20   event g;\n\
               \x20   dep d1: e -> f;\n\
               \x20   dep d2: f -> g;\n\
               \x20   dep d3: g -> e;\n\
               }\n";
    // No two of the three guards need each other, so a pairwise scan of
    // mutual needs sees nothing; the SCC pass reports the consensus group
    // exactly once (its complement mirror is suppressed).
    let r = check(src);
    let cycles: Vec<_> = r.diagnostics.iter().filter(|d| d.code == "WF020").collect();
    assert_eq!(cycles.len(), 1, "{:?}", r.diagnostics);
    let d = cycles[0];
    assert_eq!(d.severity, Severity::Warning);
    for name in ["e", "f", "g"] {
        assert!(d.message.contains(name), "{}", d.message);
    }
    // Spans point at all three event declarations.
    assert_eq!(d.spans.len(), 3, "{:?}", d.spans);
    assert_eq!(r.exit_code(true), 1);

    // The same pass at the other sizes: Example 11's pair (D→ and its
    // transpose) is one group, and three arrow 2-cycles sharing events
    // merge into one group, not three overlapping reports.
    let groups = |body: &str| {
        let r = check(&format!("workflow w {{ event a; event b; event c; {body} }}"));
        r.diagnostics.iter().filter(|d| d.code == "WF020").count()
    };
    assert_eq!(groups("dep d1: a -> b; dep d2: b -> a;"), 1);
    assert_eq!(
        groups(
            "dep d1: a -> b; dep d2: b -> a; dep d3: a -> c; dep d4: c -> a; \
                dep d5: b -> c; dep d6: c -> b;"
        ),
        1
    );
}

#[test]
fn opposing_precedences_need_promises_not_agreements() {
    // e < f plus f < e: jointly "not both occur". The conjoined guards
    // strengthen ¬f ∧ (◇ē+□e)-style into promises of the complements,
    // so no hold cycle is reported, and either event may still occur.
    let r = check(
        "workflow opposed {\n\
         \x20   event e;\n\
         \x20   event f;\n\
         \x20   dep d1: e < f;\n\
         \x20   dep d2: f < e;\n\
         }\n",
    );
    assert!(!r.jointly_contradictory);
    assert!(!r.has_code("WF021") && !r.has_code("WF022"), "{:?}", codes(&r));
    assert!(r.dead.is_empty(), "either may occur (just not both): {:?}", r.dead);
}

#[test]
fn hold_contention_cycle_is_reported() {
    // Ground mutual exclusion in both directions (Example 13 idiom):
    // each enter's guard carries ¬ on the other side.
    let r = check(
        "workflow mutex {\n\
         \x20   event b1;\n\
         \x20   event e1;\n\
         \x20   event b2;\n\
         \x20   event e2;\n\
         \x20   dep d12: b2.b1 + ~e1 + ~b2 + e1.b2;\n\
         \x20   dep d21: b1.b2 + ~e2 + ~b1 + e2.b1;\n\
         }\n",
    );
    assert!(
        r.has_code("WF021") || r.has_code("WF022"),
        "expected a hold-contention or mixed cycle: {:?}",
        codes(&r)
    );
    assert_eq!(r.exit_code(true), 1);
}

#[test]
fn cross_site_coupling_violates_lemma5() {
    let r = check(
        "workflow dist {\n\
         \x20   event ship @ site 0;\n\
         \x20   event bill @ site 1;\n\
         \x20   dep d1: ship -> bill;\n\
         }\n",
    );
    let d = r.diagnostics.iter().find(|d| d.code == "WF011").expect("WF011");
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.message.contains("site 0") && d.message.contains("site 1"), "{}", d.message);
    assert!(d.message.contains("d1"), "{}", d.message);
    assert_eq!(d.primary_span(), Some(Span::at(2, 5)));
    assert_eq!(r.exit_code(false), 0);
    assert_eq!(r.exit_code(true), 1);
}

#[test]
fn colocated_coupling_stays_informational() {
    let r = check(
        "workflow local {\n\
         \x20   event ship @ site 2;\n\
         \x20   event bill @ site 2;\n\
         \x20   dep d1: ship -> bill;\n\
         }\n",
    );
    assert!(!r.has_code("WF011"), "{:?}", codes(&r));
    let d = r.diagnostics.iter().find(|d| d.code == "WF010").expect("WF010");
    assert!(d.message.contains("site 2"), "{}", d.message);
    assert!(r.is_clean());
}

fn chain(n: usize) -> String {
    let mut s = String::from("workflow big {\n");
    for i in 0..n {
        s.push_str(&format!("    event e{i};\n"));
    }
    for i in 0..n - 1 {
        s.push_str(&format!("    dep d{i}: e{i} -> e{};\n", i + 1));
    }
    s.push('}');
    s
}

#[test]
fn ten_symbol_workflow_completes_under_default_budget() {
    let r = check(&chain(10));
    assert!(!r.incomplete, "{:?}", r.diagnostics);
    assert!(!r.has_code("WF006"));
    assert!(r.is_clean(), "{:?}", r.diagnostics);
    assert!(r.states_explored > 0);
}

#[test]
fn tight_budget_degrades_to_wf006_instead_of_hanging() {
    let r = check_with(&chain(10), &AnalyzeOptions { state_budget: 4 });
    assert!(r.incomplete);
    let d = r.diagnostics.iter().find(|d| d.code == "WF006").expect("WF006");
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.message.contains("budget of 4"), "{}", d.message);
    assert_eq!(r.exit_code(true), 1);

    // A cut-off joint query runs no dead/forced query after it, and the
    // count reported is exactly what the budget was charged.
    let mut t = SymbolTable::new();
    let ds: Vec<_> = ["~e1 + e2", "~e2 + e3", "~e3 + e4", "~e4 + e1"]
        .iter()
        .map(|s| parse_expr(s, &mut t).unwrap())
        .collect();
    let opts = AnalyzeOptions { state_budget: 3 };
    let r = analyze_dependencies(&ds, &t, &opts);
    assert!(r.incomplete && !r.is_clean(), "{:?}", r.diagnostics);
    assert!(r.dead.is_empty() && r.forced.is_empty() && !r.jointly_contradictory, "{r:?}");
    assert_eq!(r.states_explored, 3);
}

#[test]
fn individually_unsatisfiable_dependency_is_wf004_not_wf001() {
    let r = check(
        "workflow broken {\n\
         \x20   event a;\n\
         \x20   dep bad: 0;\n\
         \x20   dep ok: a;\n\
         }\n",
    );
    assert!(r.has_code("WF004"), "{:?}", codes(&r));
    assert!(!r.has_code("WF001"), "WF004 already names the culprit: {:?}", codes(&r));
    let d = r.diagnostics.iter().find(|d| d.code == "WF004").unwrap();
    assert!(d.message.contains("bad"), "{}", d.message);
    assert_eq!(r.exit_code(false), 1);
}

#[test]
fn violable_dependency_reports_trap_states() {
    let r = check(
        "workflow seq {\n\
         \x20   event a;\n\
         \x20   event b;\n\
         \x20   dep d1: a.b;\n\
         }\n",
    );
    let d = r.diagnostics.iter().find(|d| d.code == "WF005").expect("WF005");
    assert_eq!(d.severity, Severity::Info);
    assert!(d.message.contains("trap"), "{}", d.message);
}

#[test]
fn templates_are_reported_as_skipped() {
    let r = check(
        "workflow param {\n\
         \x20   event a;\n\
         \x20   dep d1: ~f[y] + g[y];\n\
         \x20   dep d2: a;\n\
         }\n",
    );
    let d = r.diagnostics.iter().find(|d| d.code == "WF007").expect("WF007");
    assert_eq!(d.severity, Severity::Info);
    assert!(d.spans.iter().any(|s| s.label.contains("d1")), "{:?}", d.spans);
}

#[test]
fn bare_dependency_sets_analyze_without_spans() {
    let mut t = SymbolTable::new();
    let d1 = parse_expr("~e", &mut t).unwrap();
    let d2 = parse_expr("f", &mut t).unwrap();
    let e = t.event("e");
    let f = t.event("f");
    let r = analyze_dependencies(&[d1, d2], &t, &AnalyzeOptions::default());
    assert_eq!(r.dead, vec![e]);
    assert_eq!(r.forced, vec![f]);
    let dead = r.diagnostics.iter().find(|d| d.code == "WF002").unwrap();
    assert_eq!(dead.primary_span(), None, "synthetic spans only");
    assert!(dead.message.contains("'e'"), "{}", dead.message);
}

#[test]
fn report_renders_text_and_json() {
    let r = check(
        "workflow demo {\n\
         \x20   event go;\n\
         \x20   dep d1: ~go;\n\
         }\n",
    );
    let text = r.render_text(Some("demo.wf"));
    assert!(text.contains("demo.wf:2:5: warning[WF002]"), "{text}");
    assert!(text.contains("1 warning"), "{text}");
    assert!(text.contains("product states explored"), "{text}");
    let json = r.to_json(Some("demo.wf"));
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    assert!(json.contains("\"file\":\"demo.wf\""), "{json}");
    assert!(json.contains("\"code\":\"WF002\""), "{json}");
    assert!(json.contains("\"line\":2"), "{json}");
}

#[test]
fn diagnostics_are_sorted_by_source_position() {
    let r = check(
        "workflow order {\n\
         \x20   event go;\n\
         \x20   event stop;\n\
         \x20   dep d1: ~go;\n\
         \x20   dep d2: stop;\n\
         }\n",
    );
    let positions: Vec<Option<Span>> =
        r.diagnostics.iter().map(analyze::Diagnostic::primary_span).collect();
    let mut sorted = positions.clone();
    // `None` (synthetic) sorts last, matching Report::finish.
    sorted.sort_by_key(|s| s.unwrap_or(Span::at(usize::MAX, usize::MAX)));
    assert_eq!(positions, sorted);
}
