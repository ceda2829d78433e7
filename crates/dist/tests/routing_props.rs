//! `build_workflow` subscribes an actor to the symbols of the
//! dependencies that mention it and never reads a guard for it: under
//! `GuardScope::Mentioning`, `G(D, e)` mentions only `Γ_D`, so a guard's
//! symbols are among those already. Pinned here on every model, the
//! benchmark's spec texts and random workflows, by rebuilding the
//! subscriber lists *with* the guard symbols and comparing.

use constrained_events::{models, WorkflowBuilder};
use dist::{build_workflow, ExecConfig, WorkflowSpec};
use event_algebra::{Literal, SymbolId};
use sim::NodeId;
use std::collections::BTreeSet;
use testkit::{check, free_event_spec, Exprs};

fn assert_guards_add_no_interest(name: &str, spec: &WorkflowSpec) {
    let built = build_workflow(spec, ExecConfig::seeded(0));
    let compiled = &built.guards;
    let interest_of = |t: SymbolId| -> (BTreeSet<SymbolId>, BTreeSet<SymbolId>) {
        let from_dependencies: BTreeSet<SymbolId> = (compiled.dependency_symbols.iter())
            .filter(|syms| syms.contains(&t))
            .flatten()
            .copied()
            .collect();
        let from_guards = [Literal::pos(t), Literal::neg(t)]
            .into_iter()
            .flat_map(|lit| compiled.guard(lit).symbols())
            .collect();
        (from_dependencies, from_guards)
    };
    for &t in &built.symbols {
        let (from_dependencies, from_guards) = interest_of(t);
        assert!(from_guards.is_subset(&from_dependencies), "{name}: guards of {t} read more");
    }
    for &s in &built.symbols {
        let with_guards: Vec<NodeId> = (built.symbols.iter())
            .filter(|&&t| t != s)
            .filter(|&&t| {
                let (from_dependencies, from_guards) = interest_of(t);
                from_dependencies.contains(&s) || from_guards.contains(&s)
            })
            .map(|t| built.routing.actor_of[t])
            .collect();
        assert_eq!(built.routing.subscribers_of[s], with_guards, "{name}: subscribers of {s}");
    }
}

#[test]
fn guard_symbols_add_nothing_to_the_interest_map() {
    let models = [
        ("saga(4, 3, None)", models::saga(4, 3, None)),
        ("saga(3, 3, Some(1))", models::saga(3, 3, Some(1))),
        ("contingency(3, false)", models::contingency(3, false)),
        ("contingency(3, true)", models::contingency(3, true)),
        ("diamond(3)", models::diamond(3)),
    ];
    for (name, workflow) in &models {
        assert_guards_add_no_interest(name, &workflow.spec);
    }
    for name in ["travel", "pipeline10", "pipeline12"] {
        let path = format!("{}/../../benchmark/specs/{name}.wf", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(&path).expect(&path);
        let workflow = WorkflowBuilder::from_spec(&src).expect(name).build();
        assert_guards_add_no_interest(name, &workflow.spec);
    }
    check("guard_symbols_add_nothing_to_the_interest_map", 300, |g| {
        let syms: Vec<SymbolId> = (0..5).map(SymbolId).collect();
        let spec = free_event_spec(g.workflow(&syms, 3, 3), &syms);
        assert_guards_add_no_interest("random", &spec);
    });
}
