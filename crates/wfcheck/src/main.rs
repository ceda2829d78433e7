//! `wfcheck` — static verification of workflow specifications.
//!
//! Parses each `.wf` file, runs the three analysis passes of the
//! [`analyze`] crate, and reports `WF0xx` diagnostics as compiler-style
//! text or JSON. Exit code 0 means clean, 1 means findings at or above
//! the deny level, 2 means a usage or I/O error.

use analyze::{analyze_workflow, AnalyzeOptions, Report, DEFAULT_STATE_BUDGET};
use speclang::LoweredWorkflow;
use std::io::Write;
use std::process::ExitCode;

const HELP: &str = "\
wfcheck - static verification of workflow specifications

USAGE:
    wfcheck [OPTIONS] <SPEC.wf>...

OPTIONS:
    --json                machine-readable output, one JSON object per file
    --deny warnings       exit non-zero on warnings, not just errors
    --state-budget <N>    product-state cap for reachability queries
                          (default 1048576); exceeding it degrades to a
                          WF006 diagnostic instead of an unbounded search
    -h, --help            print this help

EXIT CODES:
    0  no findings at or above the deny level
    1  errors (or warnings under --deny warnings)
    2  usage or I/O error
";

struct Args {
    files: Vec<String>,
    json: bool,
    deny_warnings: bool,
    state_budget: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        files: Vec::new(),
        json: false,
        deny_warnings: false,
        state_budget: DEFAULT_STATE_BUDGET,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => args.json = true,
            "--deny" => match it.next().map(String::as_str) {
                Some("warnings") => args.deny_warnings = true,
                Some(other) => return Err(format!("--deny expects 'warnings', got '{other}'")),
                None => return Err("--deny expects 'warnings'".to_owned()),
            },
            "--deny=warnings" => args.deny_warnings = true,
            "--state-budget" => {
                let v = it.next().ok_or("--state-budget expects a number")?;
                args.state_budget = v.parse().map_err(|_| format!("invalid state budget '{v}'"))?;
            }
            s if s.starts_with("--state-budget=") => {
                let v = &s["--state-budget=".len()..];
                args.state_budget = v.parse().map_err(|_| format!("invalid state budget '{v}'"))?;
            }
            s if s.starts_with('-') => return Err(format!("unknown option '{s}'")),
            s => args.files.push(s.to_owned()),
        }
    }
    if args.files.is_empty() {
        return Err("no specification files given".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "-h" || a == "--help") {
        let _ = std::io::stdout().write_all(HELP.as_bytes());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wfcheck: {e}");
            eprintln!("run 'wfcheck --help' for usage");
            return ExitCode::from(2);
        }
    };
    let opts = AnalyzeOptions { state_budget: args.state_budget };
    let mut worst = 0i32;
    for file in &args.files {
        let src = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("wfcheck: {file}: {e}");
                return ExitCode::from(2);
            }
        };
        let report = match LoweredWorkflow::parse(&src) {
            Ok(w) => analyze_workflow(&w, &opts),
            Err(e) => Report::from_spec_error(&e),
        };
        let rendered = if args.json {
            let mut line = report.to_json(Some(file));
            line.push('\n');
            line
        } else {
            report.render_text(Some(file))
        };
        // Ignore write failures (e.g. a closed pipe under `wfcheck | head`)
        // so the exit code still reflects the analysis of every file.
        let _ = std::io::stdout().write_all(rendered.as_bytes());
        worst = worst.max(report.exit_code(args.deny_warnings));
    }
    ExitCode::from(u8::try_from(worst).unwrap_or(1))
}
