//! One digest over every table a compiled [`DependencyMachine`] answers
//! from: the benchmark's six templates and 300 random dependencies. Each
//! machine contributes its rendering (every residual state and edge),
//! its alphabet, and per state the step on every literal, liveness,
//! acceptance, violation and avoidance per literal, plus its accepting
//! and trap states. The value was recorded before the machines stored
//! their tables flat; a change to how a machine is stored that moves any
//! answer moves the digest.

use constrained_events::{models, Workflow, WorkflowBuilder};
use event_algebra::{DependencyMachine, Expr, Literal, StateId, SymbolTable};
use std::collections::BTreeSet;
use std::fmt::Write;
use testkit::{Exprs, Gen};

/// 64-bit FNV-1a: a digest that does not depend on any hasher in the tree.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Everything `m` answers, as text.
fn describe(out: &mut String, m: &DependencyMachine, table: &SymbolTable) {
    out.push_str(&m.render(table));
    let _ = writeln!(out, "alphabet {:?} initial {:?}", m.alphabet, m.initial);
    let _ = writeln!(out, "accepting {:?} traps {:?}", m.accepting_states(), m.trap_states());
    let _ = writeln!(out, "live {:?} has_accepting {}", m.live(), m.has_accepting());
    for s in (0..m.state_count() as u32).map(StateId) {
        let _ = write!(
            out,
            "S{} {} {} {} {} {}:",
            s.0,
            m.state(s),
            m.is_live(s),
            m.is_accepting(s),
            m.is_violated(s),
            m.dependency()
        );
        for &l in &m.alphabet {
            let _ = write!(
                out,
                " {l}>{} {}{}{}",
                m.step(s, l).0,
                u8::from(m.may_reach_avoiding(s, l)),
                u8::from(m.requires_event(s, l)),
                u8::from(m.may_accept(s, l)),
            );
        }
        // Two avoided literals: the search half of `may_reach_avoiding_all`.
        for pair in m.alphabet.windows(3) {
            let avoid: BTreeSet<Literal> = [pair[0], pair[2]].into_iter().collect();
            let _ = write!(out, " a{}", u8::from(m.may_reach_avoiding_all(s, &avoid)));
        }
        out.push('\n');
    }
}

fn example(name: &str) -> Workflow {
    let path = format!("{}/examples/specs/{name}.wf", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).expect(&path);
    WorkflowBuilder::from_spec(&src).expect(name).build()
}

#[test]
fn every_machine_table_is_pinned() {
    let mut out = String::new();
    let templates = [
        example("travel"),
        example("pipeline10"),
        models::diamond(3),
        models::contingency(3, false),
        models::saga(3, 3, Some(1)),
        models::saga(4, 3, None),
    ];
    for wf in &templates {
        for m in DependencyMachine::compile_all(&wf.spec.dependencies) {
            describe(&mut out, &m, &wf.spec.table);
        }
    }
    let (table, syms) = testkit::symbols(6);
    let mut g = Gen::new(0x5EED_D16E);
    // 300 random dependencies: 60 five-dependency workflows compiled
    // together (shapes shared across them), then each one alone.
    let deps: Vec<Expr> = (0..300).map(|_| g.dependency(&syms, 3)).collect();
    for workflow in deps.chunks(5) {
        for m in DependencyMachine::compile_all(workflow) {
            describe(&mut out, &m, &table);
        }
    }
    for d in &deps {
        describe(&mut out, &DependencyMachine::compile(d), &table);
    }
    assert_eq!((out.len(), fnv1a(out.as_bytes())), (1_270_571, 16_909_027_537_098_655_498));
}
