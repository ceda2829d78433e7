//! `wfbench`: the repository's one benchmark. See `benchmark/README.md`.
//!
//! ```text
//! wfbench --workload NAME --seed N --seconds S --trace 0|1 [--dir benchmark]
//! wfbench --selfcheck [--dir benchmark] [--manifest BENCHMARK.json]
//! ```
//!
//! A run prints one `name unit value` line per metric, writes the run's
//! JSON (and, traced, the spans) under `<dir>/out/`, and ends with one
//! JSON object on the last line of standard output. It exits non-zero
//! only on a harness error; a product failure is counted in `failed`.

mod alloc;
mod json;
mod metrics;
mod rng;
mod selfcheck;
mod spans;
mod stats;
mod timed;
mod traced;
mod workloads;

use metrics::{MetricDef, Values, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;
use workloads::RunOpts;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The driver's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`, every value with all its digits.
fn result_line(correct: bool, attempted: u64, failed: u64, rows: &[(&str, &str, f64)]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json::quote(name),
                json::quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn write_out(dir: &Path, file: &str, content: &str) -> Result<(), String> {
    let out = dir.join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let path = out.join(file);
    std::fs::write(&path, content).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Print the metrics and the result line; returns the rows for the run's JSON.
fn report(
    table: &'static [MetricDef],
    values: &Values,
    notes: &dyn Fn(&str) -> String,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let rows = values.in_table_order(table)?;
    for (name, unit, value) in &rows {
        println!("{name} {unit} {value}{}", notes(name));
    }
    println!("failed_share share {}", failed as f64 / attempted.max(1) as f64);
    println!("{}", result_line(correct, attempted.max(1), failed, &rows));
    Ok(rows)
}

fn run(shape: &'static workloads::Shape, opts: &RunOpts, trace: bool) -> Result<(), String> {
    let head = format!(
        "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"ops_per_round\": {}, \"input_sets\": {}",
        shape.name,
        opts.seed,
        opts.seconds,
        u8::from(trace),
        nproc(),
        shape.ops_per_round,
        shape.sets
    );
    if trace {
        let out = traced::run(shape, opts)?;
        let correct = out.failed == 0;
        let rows =
            report(PER_LAYER, &out.values, &|_| String::new(), correct, out.attempted, out.failed)?;
        write_out(
            opts.dir,
            &format!("trace-{}.json", shape.name),
            &spans::to_json(shape.name, opts.seed, &out.spans),
        )?;
        let metrics: Vec<String> = rows
            .iter()
            .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        write_out(
            opts.dir,
            &format!("layers-{}-seed{}.json", shape.name, opts.seed),
            &format!(
                "{{{head}, \"attempted\": {}, \"failed\": {}, \"correct\": {correct},\n\"metrics\": {{\n{}\n}}}}\n",
                out.attempted,
                out.failed,
                metrics.join(",\n")
            ),
        )
    } else {
        let out = timed::run(shape, opts)?;
        let correct = out.failed == 0 && out.repeatable;
        let spread_of = |name: &str| out.spreads.iter().find(|(n, _)| *n == name).map(|(_, s)| *s);
        let notes = |name: &str| {
            spread_of(name).map_or_else(String::new, |s| {
                format!("  (per round: median {} iqr {} over {} rounds)", s.median, s.iqr, s.rounds)
            })
        };
        let rows = report(END_TO_END, &out.values, &notes, correct, out.attempted, out.failed)?;
        let metrics: Vec<String> = rows
            .iter()
            .map(|(n, u, v)| {
                let per_round = spread_of(n).map_or_else(String::new, |s| {
                    format!(", \"round_median\": {}, \"round_iqr\": {}", s.median, s.iqr)
                });
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"{per_round}}}")
            })
            .collect();
        write_out(
            opts.dir,
            &format!("run-{}-seed{}.json", shape.name, opts.seed),
            &format!(
                "{{{head}, \"rounds\": {}, \"attempted\": {}, \"failed\": {}, \"correct\": {correct}, \"sim_repeatable\": {}, \"setup_s_all\": {:?},\n\"metrics\": {{\n{}\n}}}}\n",
                out.rounds,
                out.attempted,
                out.failed,
                out.repeatable,
                out.setup_s_all,
                metrics.join(",\n")
            ),
        )
    }
}

fn real_main() -> Result<(), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut dir = PathBuf::from("benchmark");
    let mut manifest = PathBuf::from("BENCHMARK.json");
    let mut selfcheck = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                });
            }
            "--dir" => dir = PathBuf::from(value()?),
            "--manifest" => manifest = PathBuf::from(value()?),
            "--selfcheck" => selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if selfcheck {
        return selfcheck::run(&dir, &manifest);
    }
    let workload = workload.ok_or("--workload is required")?;
    let shape = workloads::shape(&workload).ok_or_else(|| {
        let names: Vec<&str> = workloads::SHAPES.iter().map(|s| s.name).collect();
        format!("unknown workload {workload}; one of {names:?}")
    })?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let opts = RunOpts { seed: seed.ok_or("--seed is required")?, seconds, dir: &dir, scale: 1 };
    run(shape, &opts, trace.ok_or("--trace is required")?)
}

/// No run may outlast this, whatever `--seconds` says: the driver gives a
/// run 180 s. A hang in the program under test (a lost wake-up in a worker
/// pool has been seen) then ends as a harness error instead of stalling
/// whoever is waiting.
const WATCHDOG: Duration = Duration::from_secs(170);

fn main() -> ExitCode {
    let (finished, waiting) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if waiting.recv_timeout(WATCHDOG) == Err(RecvTimeoutError::Timeout) {
            eprintln!("wfbench: still running after {WATCHDOG:?}; the program under test hangs");
            std::process::exit(3);
        }
    });
    let outcome = real_main();
    drop(finished);
    watchdog.join().expect("the watchdog only waits");
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("wfbench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 10, 0, &[("a.b", "ns", 1.25), ("c", "1/s", 3.0)]);
        let parsed = json::parse(&line).unwrap();
        let json::Json::Obj(fields) = &parsed else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = parsed.get("metrics").unwrap();
        assert_eq!(m.get("a.b").unwrap().get("value"), Some(&json::Json::Num(1.25)));
        assert_eq!(m.get("c").unwrap().get("unit").unwrap().as_str(), Some("1/s"));
        assert!(!line.contains('\n'));
    }
}
