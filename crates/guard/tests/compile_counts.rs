//! Compile cost as counts, not clocks: how many shapes a template's
//! compile actually synthesizes, and the guard sizes of the large sagas —
//! which a compile that went back to canonicalising every product
//! quadratically would still produce, but not before the suite's patience
//! ran out (`saga(6)` took 0.19 s optimised that way, minutes unoptimised;
//! it is milliseconds now).

use constrained_events::{models, Workflow, WorkflowBuilder};

fn spec(dir: &str, name: &str) -> Workflow {
    let path = format!("{}/../../{dir}/{name}.wf", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).expect(&path);
    WorkflowBuilder::from_spec(&src).expect(name).build()
}

/// Dependencies modulo an order-preserving renaming of their symbols: a
/// pipeline is one `begin_on_commit`-like shape however long it is, a
/// saga three whatever its length or failing step.
#[test]
fn templates_compile_one_machine_and_one_recursion_per_shape() {
    let templates = [
        ("pipeline10", spec("examples/specs", "pipeline10"), 9, 1),
        ("pipeline12", spec("benchmark/specs", "pipeline12"), 11, 1),
        ("travel", spec("examples/specs", "travel"), 2, 2),
        ("contingency(3, false)", models::contingency(3, false), 3, 2),
        ("diamond(3)", models::diamond(3), 6, 3),
        ("saga(3, 3, Some(1))", models::saga(3, 3, Some(1)), 14, 3),
        ("saga(4, 3, None)", models::saga(4, 3, None), 20, 3),
    ];
    for (name, workflow, dependencies, shapes) in templates {
        let compiled = workflow.compile_guards();
        assert_eq!(compiled.dependencies.len(), dependencies, "{name}");
        assert_eq!(compiled.shape_count(), shapes, "{name}");
    }
}

#[test]
fn large_sagas_keep_their_guard_sizes() {
    for (steps, total, widest) in [(5, 24_476, 1_296), (6, 170_411, 7_776)] {
        let compiled = models::saga(steps, 3, None).compile_guards();
        assert_eq!(compiled.shape_count(), 3, "saga({steps})");
        assert_eq!(compiled.total_guard_size(), total, "saga({steps})");
        let conjuncts = compiled.guards.values().map(|g| g.conjuncts().len()).max();
        assert_eq!(conjuncts, Some(widest), "saga({steps})");
    }
}
