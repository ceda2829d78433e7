//! `wftrace` — flight-recorder run inspector.
//!
//! The companion of `wfcheck`: where `wfcheck` verifies a workflow
//! *statically*, `wftrace` records a run of it with the flight recorder
//! on and answers questions about what actually happened — why an event
//! fired (`explain`, a justification chain through the happens-before
//! DAG), how the run behaved in aggregate (`stats`), whether the causal
//! invariant held (`audit`), which spans match a filter or connect two
//! spans causally (`query`), what the online runtime monitors say about
//! the recorded run (`monitor`), and what it looked like on a timeline
//! (`export --chrome`, loadable in `chrome://tracing` / Perfetto).

use constrained_events::WorkflowBuilder;
use dist::ExecConfig;
use obs::{
    causal_audit, chrome_trace, explain, sampling_text, stats_text, Dag, ObsLit, RecordConfig,
    Recording, SpanId, SpanKind, TraceEvent,
};
use std::io::Write;
use std::process::ExitCode;

const HELP: &str = "\
wftrace - record and inspect flight-recorder traces of workflow runs

USAGE:
    wftrace record --spec <SPEC.wf> --out <TRACE.json> [OPTIONS]
    wftrace explain --event <NAME> [--at <T>] <TRACE.json>
    wftrace stats [--sampled] <TRACE.json>
    wftrace audit <TRACE.json>
    wftrace query [FILTERS] <TRACE.json>
    wftrace query --from <SEL> --to <SEL> <TRACE.json>
    wftrace monitor [--spec <SPEC.wf>] [--budget <N>] <TRACE.json>
    wftrace export --chrome [--out <FILE>] <TRACE.json>

RECORD OPTIONS:
    --seed <N>        simulation seed (default 1)
    --plan <NAME>     fault plan: clean, drop20, dup20, jitter,
                      partition, crash, chaos (default: no faults)
    --reliable        enable the at-least-once transport (implied by
                      any --plan other than clean)
    --sample <N>      keep 1-in-N non-safety spans (deterministic,
                      seeded off --seed); safety spans always kept

STATS:
    --sampled         append the sampling report: observed keep rate
                      and extrapolated true per-kind counts

EXPLAIN:
    --event <NAME>    the event to justify (e.g. buy::commit); prefix
                      with ~ for the negative literal
    --at <T>          disambiguate among multiple occurrences by their
                      virtual occurrence time

QUERY FILTERS (combinable; each line of output is one matching span):
    --kind <TAG,...>  span kinds (occurred, guard_eval, msg_send, ...)
    --node <N>        spans recorded by node N
    --site <S>        spans recorded on site S
    --event <NAME>    spans mentioning the literal (~ for negative)
    --window <A..B>   spans with virtual time in [A, B]
    --timeline <W>    bucket the matches into windows of width W and
                      print counts instead of spans

QUERY CAUSAL PATHS:
    --from <SEL>      path source; SEL is a span id (e.g. 17) or
                      kind:event (e.g. attempt:buy::commit, earliest
                      match)
    --to <SEL>        path target (latest match); prints a concrete
                      happens-before path, each edge re-verified by DAG
                      precedence; exit 1 when no path exists

MONITOR (replay the online runtime monitors over a recording):
    --spec <SPEC.wf>  workflow source (default: the path recorded in
                      the trace)
    --budget <N>      stall watchdog budget in virtual time

EXIT CODES:
    0  success (explain/audit: invariant held; query --from/--to: path
       found; monitor: no violations)
    1  explain chain unverified, audit violations, no causal path, or
       monitor verdicts/alerts include a violation
    2  usage or I/O error
";

fn fail(msg: &str) -> ExitCode {
    eprintln!("wftrace: {msg}");
    eprintln!("run 'wftrace --help' for usage");
    ExitCode::from(2)
}

fn load_recording(path: &str) -> Result<Recording, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Recording::parse(&src).map_err(|e| format!("{path}: {e}"))
}

/// Parse `--flag value` / `--flag=value` pairs plus positional operands.
struct Opts {
    flags: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

impl Opts {
    fn parse(argv: &[String], value_flags: &[&str]) -> Result<Opts, String> {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if let Some((k, v)) = name.split_once('=') {
                    flags.push((k.to_owned(), Some(v.to_owned())));
                } else if value_flags.contains(&name) {
                    let v = it.next().ok_or(format!("--{name} expects a value"))?;
                    flags.push((name.to_owned(), Some(v.clone())));
                } else {
                    flags.push((name.to_owned(), None));
                }
            } else if a.starts_with('-') && a.len() > 1 {
                return Err(format!("unknown option '{a}'"));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Opts { flags, positional })
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(k, _)| k == name).and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(k, _)| k == name)
    }

    fn check_known(&self, known: &[&str]) -> Result<(), String> {
        for (k, _) in &self.flags {
            if !known.contains(&k.as_str()) {
                return Err(format!("unknown option '--{k}'"));
            }
        }
        Ok(())
    }
}

fn cmd_record(opts: &Opts) -> Result<(), String> {
    opts.check_known(&["spec", "out", "seed", "plan", "reliable", "sample"])?;
    let spec_path = opts.value("spec").ok_or("record requires --spec <SPEC.wf>")?;
    let out_path = opts.value("out").ok_or("record requires --out <TRACE.json>")?;
    let seed: u64 = match opts.value("seed") {
        Some(s) => s.parse().map_err(|_| format!("invalid seed '{s}'"))?,
        None => 1,
    };
    let src = std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let mut workflow = WorkflowBuilder::from_spec(&src)
        .map_err(|e| format!("{spec_path}:{}:{}: {}", e.line, e.col, e.message))?
        .build();
    // Agent-less controllable events have no driver in a bare spec; give
    // each an attempt at t=1 so the recorded run actually exercises them.
    for f in &mut workflow.spec.free_events {
        if f.attrs.controllable && f.attempt_after.is_none() {
            f.attempt_after = Some(1);
        }
    }

    let mut config = ExecConfig::seeded(seed);
    config.record = Some(match opts.value("sample") {
        // Sampling keys its deterministic coin off the sim seed, so a
        // re-recorded (spec, seed, rate) elides the exact same spans.
        Some(n) => {
            let n: u32 = n.parse().map_err(|_| format!("invalid sample rate '{n}'"))?;
            RecordConfig::default().sampled(n, seed)
        }
        None => RecordConfig::default(),
    });
    let plan_name = opts.value("plan");
    if opts.has("reliable") || plan_name.is_some_and(|p| p != "clean") {
        config.reliable = Some(dist::ReliableConfig::default());
    }
    let report = match plan_name {
        None => workflow.run_with(config),
        Some(name) => {
            let plan = testkit::conformance::standard_plans(seed)
                .into_iter()
                .find(|(n, _)| *n == name)
                .map(|(_, p)| p)
                .ok_or_else(|| format!("unknown fault plan '{name}'"))?;
            workflow.run_faulty(config, plan)
        }
    };
    let mut rec = report.recording.ok_or("executor returned no recording")?;
    rec.workflow = spec_path.to_owned();
    std::fs::write(out_path, rec.to_json_string()).map_err(|e| format!("{out_path}: {e}"))?;
    println!(
        "recorded {} events ({} dropped, {} sampled out) over {} virtual time units -> {out_path}",
        rec.events.len(),
        rec.dropped,
        rec.sampled_out,
        report.duration
    );
    Ok(())
}

fn single_trace(opts: &Opts) -> Result<Recording, String> {
    match opts.positional.as_slice() {
        [path] => load_recording(path),
        [] => Err("expected a trace file".to_owned()),
        more => Err(format!("expected one trace file, got {}", more.len())),
    }
}

/// The literal a span is about, when it is about one.
fn span_lit(kind: &SpanKind) -> Option<ObsLit> {
    match kind {
        SpanKind::Attempt { lit }
        | SpanKind::GuardEval { lit, .. }
        | SpanKind::FactApplied { lit, .. }
        | SpanKind::Occurred { lit, .. }
        | SpanKind::Parked { lit }
        | SpanKind::Rejected { lit }
        | SpanKind::Triggered { lit }
        | SpanKind::PromiseOpen { lit, .. }
        | SpanKind::PromiseGrant { lit, .. }
        | SpanKind::PromiseDeny { lit, .. }
        | SpanKind::PromiseCommit { lit } => Some(*lit),
        _ => None,
    }
}

/// Resolve a `--from`/`--to` selector: a raw span id (`17`), or
/// `kind:event` (`occurred:buy::commit`) picking the earliest
/// (`latest=false`) or latest matching span.
fn resolve_selector(rec: &Recording, sel: &str, latest: bool) -> Result<SpanId, String> {
    if let Ok(n) = sel.parse::<u64>() {
        let id = SpanId(n);
        return match rec.event(id) {
            Some(_) => Ok(id),
            None => Err(format!("span {id} is not in the recording")),
        };
    }
    let (tag, event) = sel
        .split_once(':')
        .ok_or_else(|| format!("selector '{sel}' is neither a span id nor kind:event"))?;
    let lit = rec
        .lit_by_name(event)
        .ok_or_else(|| format!("unknown event '{event}' in selector '{sel}'"))?;
    let mut matches =
        rec.events.iter().filter(|e| e.kind.tag() == tag && span_lit(&e.kind) == Some(lit));
    let found = if latest { matches.next_back() } else { matches.next() };
    found.map(|e| e.id).ok_or_else(|| format!("no span matches selector '{sel}'"))
}

fn render_span(e: &TraceEvent, symbols: &[String]) -> String {
    format!("{:>6}  t={:<6} n{:<3} s{:<2} {}", e.id, e.at, e.node, e.site, e.kind.describe(symbols))
}

/// `query --from A --to B`: print a concrete happens-before path and
/// re-verify every edge with [`Dag::precedes`].
fn query_path(rec: &Recording, from: &str, to: &str) -> Result<ExitCode, String> {
    let a = resolve_selector(rec, from, false)?;
    let b = resolve_selector(rec, to, true)?;
    let dag = Dag::new(rec);
    let Some(path) = dag.path(a, b) else {
        println!("no causal path {a} -> {b}");
        return Ok(ExitCode::from(1));
    };
    println!("causal path {a} -> {b} ({} hops):", path.len().saturating_sub(1));
    for id in &path {
        let e = rec.event(*id).expect("path spans are in the recording");
        println!("{}", render_span(e, &rec.symbols));
    }
    for w in path.windows(2) {
        if !dag.precedes(w[0], w[1]) {
            return Err(format!("internal: edge {} -> {} fails precedence", w[0], w[1]));
        }
    }
    println!("all {} edges verified by happens-before precedence", path.len() - 1);
    Ok(ExitCode::SUCCESS)
}

fn cmd_query(opts: &Opts) -> Result<ExitCode, String> {
    opts.check_known(&["kind", "node", "site", "event", "window", "from", "to", "timeline"])?;
    let rec = single_trace(opts)?;
    match (opts.value("from"), opts.value("to")) {
        (Some(from), Some(to)) => return query_path(&rec, from, to),
        (Some(_), None) | (None, Some(_)) => {
            return Err("--from and --to must be given together".to_owned())
        }
        (None, None) => {}
    }
    let kinds: Option<Vec<&str>> = opts.value("kind").map(|s| s.split(',').collect());
    let node: Option<u32> =
        opts.value("node").map(str::parse).transpose().map_err(|_| "--node expects a number")?;
    let site: Option<u32> =
        opts.value("site").map(str::parse).transpose().map_err(|_| "--site expects a number")?;
    let lit = match opts.value("event") {
        Some(name) => Some(rec.lit_by_name(name).ok_or_else(|| format!("unknown event '{name}'"))?),
        None => None,
    };
    let window = match opts.value("window") {
        Some(w) => {
            let (a, b) = w.split_once("..").ok_or("--window expects A..B")?;
            let a: u64 = a.parse().map_err(|_| "--window expects numeric bounds")?;
            let b: u64 = b.parse().map_err(|_| "--window expects numeric bounds")?;
            Some((a, b))
        }
        None => None,
    };
    let matched: Vec<&TraceEvent> = rec
        .events
        .iter()
        .filter(|e| kinds.as_ref().is_none_or(|ks| ks.contains(&e.kind.tag())))
        .filter(|e| node.is_none_or(|n| e.node == n))
        .filter(|e| site.is_none_or(|s| e.site == s))
        .filter(|e| lit.is_none_or(|l| span_lit(&e.kind) == Some(l)))
        .filter(|e| window.is_none_or(|(a, b)| e.at >= a && e.at <= b))
        .collect();
    if let Some(width) = opts.value("timeline") {
        let width: u64 = width.parse().map_err(|_| "--timeline expects a bucket width")?;
        if width == 0 {
            return Err("--timeline width must be positive".to_owned());
        }
        let mut buckets: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for e in &matched {
            *buckets.entry(e.at / width).or_insert(0) += 1;
        }
        for (b, count) in &buckets {
            println!("t=[{}..{})  {count}", b * width, (b + 1) * width);
        }
    } else {
        for e in &matched {
            println!("{}", render_span(e, &rec.symbols));
        }
    }
    println!("{} of {} spans matched", matched.len(), rec.events.len());
    Ok(ExitCode::SUCCESS)
}

/// Replay the online runtime monitors over a recording, against the
/// dependencies of the (re-parsed) workflow specification.
fn cmd_monitor(opts: &Opts) -> Result<ExitCode, String> {
    opts.check_known(&["spec", "budget"])?;
    let rec = single_trace(opts)?;
    let spec_path = match opts.value("spec") {
        Some(p) => p.to_owned(),
        None if !rec.workflow.is_empty() => rec.workflow.clone(),
        None => return Err("the trace names no spec; pass --spec <SPEC.wf>".to_owned()),
    };
    let src = std::fs::read_to_string(&spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let workflow = WorkflowBuilder::from_spec(&src)
        .map_err(|e| format!("{spec_path}:{}:{}: {}", e.line, e.col, e.message))?
        .build();
    // The recording's literal indices are only meaningful under the same
    // symbol interning order; re-parsing the same spec reproduces it.
    for (i, name) in rec.symbols.iter().enumerate() {
        let here = workflow.spec.table.name(constrained_events::SymbolId(i as u32));
        if here != Some(name.as_str()) {
            return Err(format!(
                "recording symbol {i} is '{name}' but the spec interns '{}' — \
                 was the trace recorded from this spec?",
                here.unwrap_or("<missing>")
            ));
        }
    }
    let mut config = monitor::MonitorConfig::default();
    if let Some(b) = opts.value("budget") {
        config.stall_budget = b.parse().map_err(|_| "--budget expects a virtual time")?;
    }
    let mrep = monitor::replay(
        &rec.events,
        &workflow.spec.table,
        &workflow.spec.dependencies,
        dist::guard_gated(&workflow.spec),
        config,
    );
    println!(
        "monitor replay over {} spans: {} facts observed, {} guard checks",
        rec.events.len(),
        mrep.facts,
        mrep.guard_checks
    );
    for (ix, v) in mrep.verdicts.iter().enumerate() {
        let dep = &workflow.spec.dependencies[ix];
        println!("dep {ix} [{}]: {}", dep.display(&workflow.spec.table), v.label());
    }
    if mrep.alerts.is_empty() {
        println!("alerts: none");
    } else {
        println!("alerts ({}):", mrep.alerts.len());
        for a in &mrep.alerts {
            println!("  [{}] t={} n{}: {}", a.kind.tag(), a.at, a.node, a.detail);
        }
    }
    if mrep.has_violation() {
        println!("monitor verdict: VIOLATIONS FOUND");
        Ok(ExitCode::from(1))
    } else {
        println!("monitor verdict: ok");
        Ok(ExitCode::SUCCESS)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv.iter().any(|a| a == "-h" || a == "--help") {
        let _ = std::io::stdout().write_all(HELP.as_bytes());
        return if argv.is_empty() { ExitCode::from(2) } else { ExitCode::SUCCESS };
    }
    let (cmd, rest) = argv.split_first().expect("nonempty");
    let value_flags = [
        "spec", "out", "seed", "plan", "event", "at", "kind", "node", "site", "window", "from",
        "to", "timeline", "budget", "sample",
    ];
    let opts = match Opts::parse(rest, &value_flags) {
        Ok(o) => o,
        Err(e) => return fail(&e),
    };
    match cmd.as_str() {
        "record" => match cmd_record(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        },
        "explain" => {
            if let Err(e) = opts.check_known(&["event", "at"]) {
                return fail(&e);
            }
            let Some(event) = opts.value("event") else {
                return fail("explain requires --event <NAME>");
            };
            let at = match opts.value("at").map(str::parse).transpose() {
                Ok(t) => t,
                Err(_) => return fail("--at expects a virtual time"),
            };
            let rec = match single_trace(&opts) {
                Ok(r) => r,
                Err(e) => return fail(&e),
            };
            match explain(&rec, event, at) {
                Ok(ex) => {
                    let _ = std::io::stdout().write_all(ex.render(&rec).as_bytes());
                    if ex.verified {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::from(1)
                    }
                }
                Err(e) => fail(&e),
            }
        }
        "stats" => {
            if let Err(e) = opts.check_known(&["sampled"]) {
                return fail(&e);
            }
            match single_trace(&opts) {
                Ok(rec) => {
                    let _ = std::io::stdout().write_all(stats_text(&rec).as_bytes());
                    if opts.has("sampled") {
                        let _ = std::io::stdout().write_all(sampling_text(&rec).as_bytes());
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => fail(&e),
            }
        }
        "audit" => {
            if let Err(e) = opts.check_known(&[]) {
                return fail(&e);
            }
            match single_trace(&opts) {
                Ok(rec) => {
                    let violations = causal_audit(&rec);
                    if violations.is_empty() {
                        println!("causal audit: ok ({} events)", rec.events.len());
                        ExitCode::SUCCESS
                    } else {
                        for v in &violations {
                            println!("violation: {v}");
                        }
                        ExitCode::from(1)
                    }
                }
                Err(e) => fail(&e),
            }
        }
        "query" => match cmd_query(&opts) {
            Ok(code) => code,
            Err(e) => fail(&e),
        },
        "monitor" => match cmd_monitor(&opts) {
            Ok(code) => code,
            Err(e) => fail(&e),
        },
        "export" => {
            if let Err(e) = opts.check_known(&["chrome", "out"]) {
                return fail(&e);
            }
            if !opts.has("chrome") {
                return fail("export requires --chrome (the only supported format)");
            }
            let rec = match single_trace(&opts) {
                Ok(r) => r,
                Err(e) => return fail(&e),
            };
            let doc = chrome_trace(&rec);
            match opts.value("out") {
                Some(path) => {
                    if let Err(e) = std::fs::write(path, &doc) {
                        return fail(&format!("{path}: {e}"));
                    }
                    println!("wrote {} bytes to {path}", doc.len());
                }
                None => {
                    let _ = std::io::stdout().write_all(doc.as_bytes());
                }
            }
            ExitCode::SUCCESS
        }
        other => fail(&format!("unknown command '{other}'")),
    }
}
