//! Every metric the benchmark emits, by name, unit and good direction.
//! `BENCHMARK.json` repeats these tables (it is data for the driver, this
//! is the code's copy); `wfbench --selfcheck` fails when the two differ.

use Better::{Higher, Lower};

/// Which direction of a metric is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees. Host metrics are wall-clock on this
/// machine; `sim_*` and `msgs_per_event` are virtual ticks and counts from
/// the deterministic simulator and repeat exactly for a commit and seed.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower),
    m("events_per_s", "1/s", Higher),
    m("ops_per_s", "1/s", Higher),
    m("op_latency_p50_us", "us", Lower),
    m("op_latency_p99_us", "us", Lower),
    m("sim_fire_p50_ticks", "ticks", Lower),
    m("sim_fire_p99_ticks", "ticks", Lower),
    m("msgs_per_event", "count", Lower),
    m("peak_rss_mb", "MB", Lower),
];

/// Single layers, from the traced pass.
pub const PER_LAYER: &[MetricDef] = &[
    m("speclang.parse_ns_per_spec", "ns", Lower),
    m("core.from_spec_ns_per_spec", "ns", Lower),
    m("guard.compile_ns_per_spec", "ns", Lower),
    m("guard.guard_size_total", "count", Lower),
    m("event-algebra.machine_compile_ns_per_spec", "ns", Lower),
    m("event-algebra.machine_states_total", "count", Lower),
    m("event-algebra.residuate_ns_per_query", "ns", Lower),
    m("event-algebra.product_reach_ns_per_spec", "ns", Lower),
    m("temporal.guard_eval_ns_per_eval", "ns", Lower),
    m("dist.build_ns_per_op", "ns", Lower),
    m("dist.build_self_ns_per_op", "ns", Lower),
    m("dist.handler_ns_per_msg", "ns", Lower),
    m("sim.queue_ns_per_msg", "ns", Lower),
    m("sim.echo_ns_per_msg", "ns", Lower),
    m("dist.report_ns_per_op", "ns", Lower),
    m("dist.steps_per_event", "count", Lower),
    m("dist.promises_per_event", "count", Lower),
    m("dist.promise_abort_share", "share", Lower),
    m("dist.reductions_per_event", "count", Lower),
    m("dist.remote_msg_share", "share", Lower),
    m("monitor.overhead_ratio", "ratio", Lower),
    m("monitor.facts_per_event", "count", Lower),
    m("monitor.guard_checks_per_event", "count", Lower),
    m("monitor.replay_ns_per_fact", "ns", Lower),
    m("obs.recorder_overhead_ratio", "ratio", Lower),
    m("obs.spans_per_event", "count", Lower),
    m("obs.recording_json_ns_per_span", "ns", Lower),
    m("obs.metrics_snapshot_ns", "ns", Lower),
    m("obs.metrics_series_per_report", "count", Lower),
    m("dist.tenant.ns_per_event", "ns", Lower),
    m("dist.tenant.solo_ratio", "ratio", Higher),
    m("dist.tenant.shards2_ratio", "ratio", Lower),
    m("dist.reliable.retransmissions_per_msg", "count", Lower),
    m("dist.reliable.dedup_dropped_per_msg", "count", Lower),
    m("dist.reliable.gave_up", "count", Lower),
    m("dist.reliable.overhead_ratio", "ratio", Lower),
    m("dist.journal.appends_per_event", "count", Lower),
    m("dist.journal.append_ns", "ns", Lower),
    m("dist.journal.overhead_ratio", "ratio", Lower),
    m("sim.faults.dropped_share", "share", Lower),
    m("sim.faults.duplicated_share", "share", Lower),
    m("sim.faults.restarts", "count", Lower),
    m("sim.parallel.rounds", "count", Lower),
    m("sim.parallel.max_round_width", "count", Higher),
    m("sim.parallel.steals", "count", Lower),
    m("sim.parallel.busy_share", "share", Higher),
    m("sim.parallel.merge_share", "share", Lower),
    m("sim.parallel.residual_share", "share", Lower),
    m("sim.parallel.speedup_2v1", "ratio", Higher),
    m("sim.parallel.scale_ratio_4x", "ratio", Lower),
    m("sim.parallel.vs_tenant_ratio", "ratio", Higher),
    m("analyze.check_ns_per_spec", "ns", Lower),
    m("analyze.states_explored", "count", Lower),
    m("alloc.count_per_event", "count", Lower),
    m("alloc.bytes_per_event", "B", Lower),
    m("bench.trace_overhead_ratio", "ratio", Lower),
    m("bench.trace_residual_share", "share", Lower),
];

/// The measured values of one run, in table order.
#[derive(Debug, Default)]
pub struct Values {
    rows: Vec<(&'static str, f64)>,
}

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(!self.rows.iter().any(|(n, _)| *n == name), "metric {name} emitted twice");
        self.rows.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Check the run emitted exactly the metrics of `table`, each once and
    /// finite, and return them in table order with their units.
    pub fn in_table_order(
        &self,
        table: &[MetricDef],
    ) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
        let mut out = Vec::with_capacity(table.len());
        for def in table {
            match self.get(def.name) {
                Some(v) if v.is_finite() => out.push((def.name, def.unit, v)),
                Some(v) => return Err(format!("metric {} is not finite: {v}", def.name)),
                None => return Err(format!("metric {} was not emitted", def.name)),
            }
        }
        if self.rows.len() != table.len() {
            let extra: Vec<&str> = self
                .rows
                .iter()
                .map(|(n, _)| *n)
                .filter(|n| !table.iter().any(|d| d.name == *n))
                .collect();
            return Err(format!("metrics outside the table: {extra:?}"));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_have_the_advertised_sizes_and_unique_names() {
        assert_eq!(END_TO_END.len(), 9);
        assert_eq!(PER_LAYER.len(), 57);
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate metric name");
    }

    #[test]
    fn names_and_units_fit_the_driver_contract() {
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                d.name.len() <= 64 && d.name.as_bytes()[0].is_ascii_alphanumeric(),
                "{}",
                d.name
            );
            assert!(
                d.name.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "{}",
                d.name
            );
            assert!(d.unit.len() <= 16, "{}", d.unit);
            assert!(
                d.unit.bytes().all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{}",
                d.unit
            );
        }
    }

    #[test]
    fn values_reject_missing_extra_and_non_finite() {
        let table = &[m("a", "s", Lower), m("b", "s", Lower)];
        let mut v = Values::default();
        v.set("a", 1.0);
        assert!(v.in_table_order(table).unwrap_err().contains("b was not emitted"));
        v.set("b", f64::NAN);
        assert!(v.in_table_order(table).unwrap_err().contains("not finite"));
        let mut w = Values::default();
        w.set("b", 2.0);
        w.set("a", 1.0);
        w.set("c", 3.0);
        assert!(w.in_table_order(table).unwrap_err().contains("outside the table"));
        let mut ok = Values::default();
        ok.set("b", 2.0);
        ok.set("a", 1.0);
        assert_eq!(ok.in_table_order(table).unwrap(), vec![("a", "s", 1.0), ("b", "s", 2.0)]);
    }
}
