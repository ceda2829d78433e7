//! Drives the compiled `wfcheck` binary end to end: exit codes, text and
//! JSON rendering, strictness flags, and the state-budget cutoff.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

static COUNTER: AtomicUsize = AtomicUsize::new(0);

fn write_spec(body: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wfcheck-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(format!("spec{}.wf", COUNTER.fetch_add(1, Ordering::Relaxed)));
    std::fs::write(&path, body).expect("write spec");
    path
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wfcheck")).args(args).output().expect("spawn wfcheck")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

const CLEAN: &str = "workflow chain {\n\
                     \x20   event submit;\n\
                     \x20   event approve;\n\
                     \x20   dep d1: submit -> approve;\n\
                     }\n";

const DEAD: &str = "workflow dead {\n\
                    \x20   event go;\n\
                    \x20   dep d1: ~go;\n\
                    }\n";

const CLASH: &str = "workflow clash {\n\
                     \x20   event pay;\n\
                     \x20   dep want: pay;\n\
                     \x20   dep veto: ~pay;\n\
                     }\n";

#[test]
fn clean_spec_exits_zero_even_denying_warnings() {
    let spec = write_spec(CLEAN);
    let out = run(&["--deny", "warnings", spec.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("0 errors, 0 warnings"), "{}", stdout(&out));
}

#[test]
fn dead_event_warns_with_span_and_denies() {
    let spec = write_spec(DEAD);
    let path = spec.to_str().unwrap();
    let relaxed = run(&[path]);
    assert_eq!(relaxed.status.code(), Some(0));
    let text = stdout(&relaxed);
    assert!(text.contains(&format!("{path}:2:5: warning[WF002]")), "{text}");
    let strict = run(&["--deny", "warnings", path]);
    assert_eq!(strict.status.code(), Some(1));
}

#[test]
fn contradiction_always_fails() {
    let spec = write_spec(CLASH);
    let out = run(&[spec.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout(&out).contains("error[WF001]"), "{}", stdout(&out));
}

#[test]
fn json_output_is_structured() {
    let spec = write_spec(DEAD);
    let out = run(&["--json", spec.to_str().unwrap()]);
    let text = stdout(&out);
    let line = text.lines().next().unwrap();
    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    assert!(line.contains("\"workflow\":\"dead\""), "{line}");
    assert!(line.contains("\"code\":\"WF002\""), "{line}");
    assert!(line.contains("\"line\":2"), "{line}");
    assert!(line.contains("\"warnings\":1"), "{line}");
}

#[test]
fn parse_error_is_wf000_with_position() {
    let spec = write_spec("workflow x {\n  dep d1 ~e;\n}\n");
    let out = run(&[spec.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    assert!(text.contains("2:7: error[WF000]"), "{text}");
}

#[test]
fn hostile_nesting_is_a_parse_error_not_a_crash() {
    // 10 000 parentheses used to overflow the recursive-descent parser's
    // stack (SIGABRT, exit 134); the cap makes it an ordinary WF000.
    let deep =
        format!("workflow x {{\n  dep d: {}e{};\n}}\n", "(".repeat(10_000), ")".repeat(10_000));
    let out = run(&[write_spec(&deep).to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let text = stdout(&out);
    assert!(text.contains("error[WF000]") && text.contains("nested deeper"), "{text}");
    // Nesting a specification actually uses stays legal.
    let fine = format!(
        "workflow x {{\n  event e;\n  dep d: {}e{};\n}}\n",
        "(".repeat(100),
        ")".repeat(100)
    );
    assert_eq!(run(&[write_spec(&fine).to_str().unwrap()]).status.code(), Some(0));
}

#[test]
fn a_name_declared_twice_is_wf000() {
    for (src, what) in [
        ("workflow x {\n  event e;\n  event e;\n}\n", "event 'e'"),
        (
            "workflow x {\n  agent a: rda { script: start, commit };\n  \
             agent a: rda { script: start, abort };\n}\n",
            "agent 'a'",
        ),
    ] {
        let out = run(&[write_spec(src).to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "{src}");
        let text = stdout(&out);
        assert!(text.contains("3:3: error[WF000]"), "{text}");
        assert!(text.contains(what) && text.contains("first at 2:3"), "{text}");
    }
}

#[test]
fn an_unknown_agent_kind_is_wf000_at_the_kind() {
    // Used to pass with exit 0 and surface at run time without a position.
    let spec = write_spec("workflow x {\n  agent buy: frob { script: start, commit };\n}\n");
    let out = run(&[spec.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    assert!(text.contains("2:14: error[WF000]"), "{text}");
    assert!(text.contains("unknown agent kind 'frob'") && text.contains("two_phase"), "{text}");
}

#[test]
fn three_cycle_and_cross_site_are_denied() {
    let ring = write_spec(
        "workflow ring {\n\
         \x20   event e @ site 0;\n\
         \x20   event f @ site 1;\n\
         \x20   event g @ site 1;\n\
         \x20   dep d1: e -> f;\n\
         \x20   dep d2: f -> g;\n\
         \x20   dep d3: g -> e;\n\
         }\n",
    );
    let out = run(&["--deny", "warnings", ring.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    assert!(text.contains("[WF020]"), "{text}");
    assert!(text.contains("[WF011]"), "{text}");
    assert!(text.contains("site 0") && text.contains("site 1"), "{text}");
}

#[test]
fn state_budget_cutoff_reports_wf006() {
    let mut big = String::from("workflow big {\n");
    for i in 0..10 {
        big.push_str(&format!("    event e{i};\n"));
    }
    for i in 0..9 {
        big.push_str(&format!("    dep d{i}: e{i} -> e{};\n", i + 1));
    }
    big.push('}');
    let spec = write_spec(&big);
    let path = spec.to_str().unwrap();
    // Default budget: the product machine finishes the 10-symbol chain.
    let full = run(&["--deny", "warnings", path]);
    assert_eq!(full.status.code(), Some(0), "{}", stdout(&full));
    // Tiny budget: explicit WF006 instead of an unbounded search.
    let tight = run(&["--deny", "warnings", "--state-budget", "4", path]);
    assert_eq!(tight.status.code(), Some(1));
    assert!(stdout(&tight).contains("[WF006]"), "{}", stdout(&tight));
    // No budget at all is the same report, not a panic.
    let none = run(&["--json", "--state-budget", "0", path]);
    assert_eq!(none.status.code(), Some(0), "{}", stdout(&none));
    let json = stdout(&none);
    assert!(json.contains("\"WF006\"") && json.contains("\"states_explored\":0"), "{json}");
    assert!(json.contains("\"incomplete\":true"), "{json}");
    // Nine arrows up a chain of ten events: nine dependencies, one shape.
    assert!(json.contains("\"dependencies\":9,\"dependency_shapes\":1,"), "{json}");
}

#[test]
fn multiple_files_take_the_worst_exit() {
    let good = write_spec(CLEAN);
    let bad = write_spec(CLASH);
    let out = run(&[good.to_str().unwrap(), bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn cross_site_precedence_is_a_warning_not_an_error() {
    // The paper's core case: `e < f` across two sites is enforced by
    // `□`/`◇` messages, so Lemma 5 reports the coordination (WF011) and
    // nothing rejects the placement. The second spec is wftrace's CHAIN.
    for src in [
        "workflow x {\n  event e @ site 0;\n  event f @ site 1;\n  dep d: e < f;\n}\n",
        "workflow chain {\n  event submit @ site 0;\n  event approve @ site 1;\n  \
         dep d1: ~approve + submit . approve;\n}\n",
    ] {
        let out = run(&[write_spec(src).to_str().unwrap()]);
        let text = stdout(&out);
        assert_eq!(out.status.code(), Some(0), "{text}");
        assert!(text.contains("warning[WF011]"), "{text}");
        assert!(!text.contains("error[") && text.contains("0 errors"), "{text}");
    }
}

#[test]
fn a_complement_of_a_non_atom_is_wf000_at_the_operator() {
    // Each of these used to panic in the spec parser (exit 101).
    for (dep, col, what) in [
        ("~(a + b)", 10, "`~` applies to an event atom"),
        ("~T", 10, "`~` applies to an event atom"),
        ("~0", 10, "`~` applies to an event atom"),
        ("(a + b) -> c", 18, "`->` applies to an event atom"),
        ("a.b < c", 14, "`<` applies to event atoms"),
        ("arrow(a + b, c)", 10, "macro arrow: `->`"),
        ("prec(a . b, c)", 10, "macro prec: `<`"),
    ] {
        let src = format!("workflow x {{\n  dep d: {dep};\n}}\n");
        let out = run(&[write_spec(&src).to_str().unwrap()]);
        let text = stdout(&out);
        assert_eq!(out.status.code(), Some(1), "{dep}: {text}");
        assert!(text.contains(&format!("2:{col}: error[WF000]")) && text.contains(what), "{text}");
    }
}

#[test]
fn json_diagnostics_always_carry_the_file() {
    // A span-less diagnostic (WF001 carries dep spans, but parse errors
    // and summary diagnostics may not) still names its file in --json.
    let spec = write_spec(CLASH);
    let path = spec.to_str().unwrap();
    let out = run(&["--json", path]);
    let text = stdout(&out);
    let line = text.lines().next().unwrap();
    assert!(line.contains(&format!("\"file\":\"{}\"", path.replace('\\', "\\\\"))), "{line}");
}

#[test]
fn usage_errors_exit_two() {
    assert_eq!(run(&[]).status.code(), Some(2));
    assert_eq!(run(&["--frobnicate", "x.wf"]).status.code(), Some(2));
    assert_eq!(run(&["--deny", "everything", "x.wf"]).status.code(), Some(2));
    assert_eq!(run(&["/nonexistent/missing.wf"]).status.code(), Some(2));
    let help = run(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(stdout(&help).contains("USAGE"));
}
