//! Pinned guard values for the benchmark's six templates, computed at the
//! commit before the guard kernel went flat. A guard's conjunct structure
//! is read by the actors and its canonical form depends on the
//! canonicaliser's scan order, so a kernel change that keeps every guard
//! *equivalent* can still move these.

use constrained_events::{models, Workflow, WorkflowBuilder};
use event_algebra::{FxHasher, Literal};
use std::hash::Hasher;

fn example(name: &str) -> Workflow {
    let path = format!("{}/../../examples/specs/{name}.wf", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).expect(&path);
    WorkflowBuilder::from_spec(&src).expect(name).build()
}

#[test]
fn template_guard_sizes_are_pinned() {
    let templates = [
        ("travel", example("travel"), 12),
        ("pipeline10", example("pipeline10"), 38),
        ("diamond(3)", models::diamond(3), 42),
        ("contingency(3, false)", models::contingency(3, false), 17),
        ("saga(3, 3, Some(1))", models::saga(3, 3, Some(1)), 818),
        ("saga(4, 3, None)", models::saga(4, 3, None), 3_821),
    ];
    for (name, workflow, size) in templates {
        assert_eq!(workflow.compile_guards().total_guard_size(), size, "{name}");
    }
}

/// `saga(4)`'s last commit carries the widest guards of the benchmark:
/// three compensation dependencies meet on it, 3×3×3 conjuncts on the
/// event and 6×6×6 on its complement, none of which merge.
#[test]
fn saga4_last_commit_guards_are_pinned() {
    let saga = models::saga(4, 3, None);
    let compiled = saga.compile_guards();
    let commit = Literal::pos(saga.spec.table.lookup("t3.commit").expect("t3.commit"));
    let pins =
        [(commit, 27, 0xAFF7_6837_EA5A_EC0A), (commit.complement(), 216, 0x20C4_5E07_952A_ADC3)];
    for (lit, conjuncts, digest) in pins {
        let guard = compiled.guard_ref(lit).expect("a saga event");
        assert_eq!(guard.conjuncts().len(), conjuncts, "{lit}");
        let mut h = FxHasher::default();
        h.write(guard.to_texpr().to_string().as_bytes());
        assert_eq!(h.finish(), digest, "{lit}: rendering moved");
    }
}
