//! A solo run writes its metrics snapshot in key order, so assembling it
//! sorts nothing. That order is an obligation of the writer, not a
//! property the type checks, so this suite holds every solo benchmark
//! template — and a run under faults, with the transport's and the fault
//! layer's series — to what a [`MetricsRegistry`] returns after the
//! same writes made in any order: the old writer's order, here.

use constrained_events::{models, WorkflowBuilder};
use dist::{
    run_workflow, run_workflow_with_faults, ExecConfig, ReliableConfig, RunReport, WorkflowSpec,
};
use obs::{MetricSink, MetricsRegistry, MetricsSnapshot};
use sim::{FaultPlan, NodeId, SiteId};
use testkit::workload::drive;

fn example(name: &str) -> WorkflowSpec {
    let path = format!("{}/../../examples/specs/{name}.wf", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    drive(&WorkflowBuilder::from_spec(&src).expect("spec parses").build().spec)
}

/// The templates of the benchmark's cold solo workload.
fn templates() -> Vec<(&'static str, WorkflowSpec)> {
    vec![
        ("travel", example("travel")),
        ("pipeline10", example("pipeline10")),
        ("diamond(3)", drive(&models::diamond(3).spec)),
        ("contingency(3)", drive(&models::contingency(3, false).spec)),
        ("saga(3,3,Some(1))", drive(&models::saga(3, 3, Some(1)).spec)),
        ("saga(4)", drive(&models::saga(4, 3, None).spec)),
    ]
}

fn config(seed: u64) -> ExecConfig {
    let mut exec = ExecConfig::seeded(seed);
    exec.monitor = Some(monitor::MonitorConfig::default());
    exec
}

/// Every series a solo run publishes, written from the report in no
/// particular order. The transport totals are not on the report; they
/// are read back from the snapshot under test, so for those five series
/// only the key is checked.
fn write_reference(spec: &WorkflowSpec, report: &RunReport, mut m: impl MetricSink) {
    report.net.record_into(&mut m);
    if let Some(fs) = &report.fault_stats {
        fs.record_into(&mut m);
    }
    for series in [
        "transport.retransmissions",
        "transport.dedup_dropped",
        "transport.gave_up",
        "transport.timer_fires",
        "transport.timer_idle",
    ] {
        m.add(series, &[], report.metrics.counter(series, &[]).expect(series));
    }
    m.add("run.steps", &[], report.steps);
    m.set_gauge("run.duration", &[], report.duration as i64);
    let mut sched = [0u64; 4];
    for (sym, st) in report.actor_stats.iter() {
        let labels: &[(&str, &str)] = &[("event", spec.table.name(sym).unwrap_or("?"))];
        m.add("actor.attempts", labels, st.attempts);
        m.add("actor.granted", labels, st.granted);
        m.add("actor.rejected", labels, st.rejected);
        m.add("actor.triggers", labels, st.triggers);
        sched[0] += st.promises_requested;
        sched[1] += st.promises_granted;
        sched[2] += st.reductions;
        sched[3] += st.announces_out;
    }
    m.add("sched.promises_requested", &[], sched[0]);
    m.add("sched.promises_granted", &[], sched[1]);
    m.add("sched.reductions", &[], sched[2]);
    m.add("sched.announces", &[], sched[3]);
    for (ix, &ok) in report.satisfied.iter().enumerate() {
        m.set_gauge("dep.satisfied", &[("dep", &ix.to_string())], i64::from(ok));
    }
    if let Some(rec) = &report.recording {
        m.add("obs.recorder.dropped_spans", &[], rec.dropped);
        m.add("obs.recorder.sampled_out", &[], rec.sampled_out);
    }
    if let Some(mrep) = &report.monitor {
        m.add("monitor.facts", &[], mrep.facts);
        m.add("monitor.guard_checks", &[], mrep.guard_checks);
        for alert in &mrep.alerts {
            m.add("monitor.alerts", &[("kind", alert.kind.tag())], 1);
        }
        for (ix, v) in mrep.verdicts.iter().enumerate() {
            m.add("monitor.verdicts", &[("dep", &ix.to_string()), ("verdict", v.label())], 1);
        }
    }
}

/// The report's snapshot is the registry's after the reference writes,
/// and the reference writes made straight into a snapshot sort to it.
fn assert_registry_equivalent(what: &str, spec: &WorkflowSpec, report: &RunReport) {
    let reg = MetricsRegistry::new();
    write_reference(spec, report, &reg);
    assert_eq!(report.metrics, reg.snapshot(), "{what}");
    let mut direct = MetricsSnapshot::default();
    write_reference(spec, report, &mut direct);
    assert_eq!(report.metrics, direct.sorted(), "{what}");
    for (series, kind) in [
        (&report.metrics.counters.iter().map(|(k, _)| k).collect::<Vec<_>>(), "counters"),
        (&report.metrics.gauges.iter().map(|(k, _)| k).collect(), "gauges"),
    ] {
        assert!(series.is_sorted_by(|a, b| a < b), "{what}: {kind} strictly in key order");
    }
}

#[test]
fn every_solo_template_writes_the_registrys_snapshot() {
    for (name, spec) in templates() {
        let report = run_workflow(&spec, config(1));
        assert!(report.all_satisfied(), "{name}");
        assert!(report.metrics.counters.len() > 20, "{name}: {:?}", report.metrics.counters);
        assert_registry_equivalent(name, &spec, &report);
    }
}

#[test]
fn a_faulty_run_writes_the_registrys_snapshot() {
    let spec = example("pipeline10");
    let mut exec = config(3);
    exec.reliable = Some(ReliableConfig::default());
    let plan = FaultPlan::new(0xFA17).drop_rate(0.2).duplicate_rate(0.2).jitter(0, 20);
    let plan = plan.partition(SiteId(0), SiteId(1), 20, 400).crash(NodeId(0), 40, Some(300));
    let report = run_workflow_with_faults(&spec, exec, plan);
    let faults = report.fault_stats.as_ref().expect("a plan was installed");
    assert!(faults.dropped > 0 && faults.restarts == 1, "{faults:?}");
    assert!(report.metrics.counter("transport.retransmissions", &[]).unwrap() > 0);
    assert_registry_equivalent("pipeline10 under faults", &spec, &report);
}
