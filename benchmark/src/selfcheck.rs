//! `wfbench --selfcheck`: a quick pass over tiny rounds that the
//! benchmark is wired up right, before anyone spends minutes measuring.

use crate::json::{self, Json};
use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::workloads::{RunOpts, SHAPES};
use crate::{timed, traced};
use std::path::Path;

/// Rounds and samples a twentieth of their measured size.
const SCALE: usize = 20;
/// The metrics that come from the simulator and must repeat exactly.
const SIM_METRICS: &[&str] = &["sim_fire_p50_ticks", "sim_fire_p99_ticks", "msgs_per_event"];

/// The manifest's metric list must be the code's table: same names in the
/// same order, same units and directions.
fn check_table(doc: &Json, key: &str, table: &[MetricDef]) -> Result<(), String> {
    let listed =
        doc.get(key).and_then(Json::as_array).ok_or(format!("manifest has no {key} list"))?;
    if listed.len() != table.len() {
        return Err(format!(
            "manifest lists {} {key} metrics, the code {}",
            listed.len(),
            table.len()
        ));
    }
    for (entry, def) in listed.iter().zip(table) {
        let field = |f: &str| entry.get(f).and_then(Json::as_str).unwrap_or("");
        let better = match def.better {
            Better::Higher => "higher",
            Better::Lower => "lower",
        };
        if (field("name"), field("unit"), field("better")) != (def.name, def.unit, better) {
            return Err(format!(
                "manifest {key} entry {}/{}/{} differs from the code's {}/{}/{better}",
                field("name"),
                field("unit"),
                field("better"),
                def.name,
                def.unit
            ));
        }
    }
    Ok(())
}

pub fn run(dir: &Path, manifest: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(manifest)
        .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
    let doc = json::parse(&text)?;
    check_table(&doc, "end_to_end", END_TO_END)?;
    check_table(&doc, "per_layer", PER_LAYER)?;
    let listed: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("manifest has no workloads list")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    let shapes: Vec<&str> = SHAPES.iter().map(|s| s.name).collect();
    if listed != shapes {
        return Err(format!("manifest workloads {listed:?} differ from the code's {shapes:?}"));
    }

    let opts = RunOpts { seed: 1, seconds: 0.05, dir, scale: SCALE };
    for shape in SHAPES {
        let first = timed::run(shape, &opts)?;
        first.values.in_table_order(END_TO_END)?;
        let again = timed::run(shape, &opts)?;
        for name in SIM_METRICS {
            let (a, b) = (first.values.get(name), again.values.get(name));
            if a.map(f64::to_bits) != b.map(f64::to_bits) {
                return Err(format!(
                    "{}: {name} differs between two repetitions: {a:?} vs {b:?}",
                    shape.name
                ));
            }
        }
        let layers = traced::run(shape, &opts)?;
        layers.values.in_table_order(PER_LAYER)?;
        // Covers: operations satisfied and alert-free, verdicts as expected,
        // decomposed runs equal to one-call runs, 2-worker history equal to
        // 1-worker history.
        let failed = first.failed + again.failed + layers.failed;
        if failed != 0 || !first.repeatable || !again.repeatable {
            return Err(format!(
                "{}: {failed} failed operations, sim repeatable {}/{}",
                shape.name, first.repeatable, again.repeatable
            ));
        }
        println!(
            "selfcheck {}: {} + {} metrics, {} operations checked, 0 failed",
            shape.name,
            END_TO_END.len(),
            PER_LAYER.len(),
            first.attempted + again.attempted + layers.attempted
        );
    }
    println!("selfcheck ok");
    Ok(())
}
