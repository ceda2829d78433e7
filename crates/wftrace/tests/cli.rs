//! Drives the compiled `wftrace` binary end to end: record a run of a
//! spec, explain a firing, aggregate stats, audit the DAG, and export a
//! Chrome trace.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

static COUNTER: AtomicUsize = AtomicUsize::new(0);

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wftrace-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(format!("{}-{name}", COUNTER.fetch_add(1, Ordering::Relaxed)))
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wftrace")).args(args).output().expect("spawn wftrace")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

const CHAIN: &str = "workflow chain {\n\
                     \x20   event submit @ site 0;\n\
                     \x20   event approve @ site 1;\n\
                     \x20   dep d1: ~approve + submit . approve;\n\
                     }\n";

/// Record CHAIN into a fresh trace file and return the path.
fn recorded(extra: &[&str]) -> PathBuf {
    let spec = temp_path("chain.wf");
    std::fs::write(&spec, CHAIN).expect("write spec");
    let trace = temp_path("trace.json");
    let mut args = vec![
        "record",
        "--spec",
        spec.to_str().unwrap(),
        "--out",
        trace.to_str().unwrap(),
        "--seed",
        "7",
    ];
    args.extend_from_slice(extra);
    let out = run(&args);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}\n{}",
        stdout(&out),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("recorded"), "{}", stdout(&out));
    trace
}

#[test]
fn record_then_explain_verifies_the_chain() {
    let trace = recorded(&[]);
    let out = run(&["explain", "--event", "approve", trace.to_str().unwrap()]);
    let text = stdout(&out);
    assert_eq!(out.status.code(), Some(0), "{text}");
    assert!(text.contains("occurred"), "{text}");
    assert!(text.contains("chain verified"), "{text}");
    // The justification must reach back to the fact that unblocked it.
    assert!(text.contains("submit"), "{text}");
}

#[test]
fn explain_misses_are_usage_errors() {
    let trace = recorded(&[]);
    let path = trace.to_str().unwrap();
    assert_eq!(run(&["explain", "--event", "nonexistent", path]).status.code(), Some(2));
    let at_miss = run(&["explain", "--event", "approve", "--at", "999999", path]);
    assert_eq!(at_miss.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&at_miss.stderr).contains("recorded occurrence times"),
        "{}",
        String::from_utf8_lossy(&at_miss.stderr)
    );
}

#[test]
fn stats_and_audit_read_the_trace() {
    let trace = recorded(&["--plan", "drop20"]);
    let path = trace.to_str().unwrap();
    let stats = run(&["stats", path]);
    let text = stdout(&stats);
    assert_eq!(stats.status.code(), Some(0), "{text}");
    assert!(text.contains("events recorded"), "{text}");
    assert!(text.contains("per-site load"), "{text}");
    assert!(text.contains("metrics:"), "{text}");
    let audit = run(&["audit", path]);
    assert_eq!(audit.status.code(), Some(0), "{}", stdout(&audit));
    assert!(stdout(&audit).contains("causal audit: ok"), "{}", stdout(&audit));
}

#[test]
fn chrome_export_round_trips_as_json() {
    let trace = recorded(&[]);
    let out = run(&["export", "--chrome", trace.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    assert!(text.starts_with('{') && text.trim_end().ends_with('}'), "{text}");
    assert!(text.contains("\"traceEvents\""), "{text}");
    assert!(text.contains("\"ph\":\"X\""), "{text}");
    let to_file = temp_path("chrome.json");
    let out2 =
        run(&["export", "--chrome", "--out", to_file.to_str().unwrap(), trace.to_str().unwrap()]);
    assert_eq!(out2.status.code(), Some(0));
    assert_eq!(std::fs::read_to_string(&to_file).expect("chrome file"), text);
}

#[test]
fn hostile_nesting_is_a_parse_error_not_a_crash() {
    // 200 000 brackets used to overflow the JSON parser's stack (SIGABRT,
    // exit 134); the nesting cap makes it the usual unreadable-trace error.
    let deep = temp_path("deep.json");
    std::fs::write(&deep, "[".repeat(200_000)).expect("write trace");
    for cmd in ["stats", "audit"] {
        let out = run(&[cmd, deep.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("nested deeper than 128 levels"), "{cmd}: {err}");
    }
}

#[test]
fn a_bad_agent_declaration_is_a_positioned_error_not_a_panic() {
    // An unknown script step used to panic in `AgentNode::new` (exit 101);
    // an unknown kind used to be reported at 0:0.
    for (decl, at, what) in [
        (
            "agent buy: rda { script: start, frobnicate };",
            ":2:3: ",
            "agent buy has no event frobnicate",
        ),
        ("agent buy: frob { script: start, commit };", ":2:14: ", "unknown agent kind 'frob'"),
    ] {
        let spec = temp_path("agent.wf");
        std::fs::write(&spec, format!("workflow x {{\n  {decl}\n}}\n")).expect("write spec");
        let out = run(&["record", "--spec", spec.to_str().unwrap(), "--out", "/dev/null"]);
        assert_eq!(out.status.code(), Some(2), "{decl}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(at) && err.contains(what), "{decl}: {err}");
        assert!(!err.contains("panicked"), "{decl}: {err}");
    }
}

#[test]
fn usage_errors_exit_two() {
    assert_eq!(run(&[]).status.code(), Some(2));
    assert_eq!(run(&["frobnicate"]).status.code(), Some(2));
    assert_eq!(
        run(&["record", "--spec", "/nonexistent.wf", "--out", "/tmp/x"]).status.code(),
        Some(2)
    );
    assert_eq!(run(&["stats", "/nonexistent/trace.json"]).status.code(), Some(2));
    assert_eq!(run(&["export", "/tmp/whatever.json"]).status.code(), Some(2));
    let help = run(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(stdout(&help).contains("USAGE"));
}
