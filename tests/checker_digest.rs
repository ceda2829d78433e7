//! One digest over everything the static checker reports: every example
//! spec, the generated pipeline12 chain with and without a contradicting
//! tail, four model workflows and 300 random ones checked as bare
//! dependency sets, a third of them with a wait-for cycle. Each
//! report contributes its text and JSON renderings, `states_explored`,
//! its dead and forced events and whether it is incomplete. The value was
//! recorded before the checker's passes and its product search stopped
//! copying tables they never read; a change to how the checker computes
//! its verdict that moves any byte of any report moves the digest.

use analyze::{analyze_dependencies, analyze_workflow, AnalyzeOptions, Report};
use constrained_events::models;
use constrained_events::LoweredWorkflow;
use event_algebra::parse_expr;
use std::fmt::Write;
use testkit::{Exprs, Gen};

/// 64-bit FNV-1a: a digest that does not depend on any hasher in the tree.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Everything `r` says, as text.
fn describe(out: &mut String, name: &str, r: &Report) {
    let _ = writeln!(out, "== {name}");
    out.push_str(&r.render_text(Some(name)));
    out.push_str(&r.to_json(Some(name)));
    let _ = writeln!(
        out,
        "\nstates {} dead {:?} forced {:?} incomplete {}",
        r.states_explored, r.dead, r.forced, r.incomplete
    );
}

/// The chain `e0 -> e1 -> … -> e11` of `benchmark/specs/pipeline12.wf`,
/// with `extra` declarations appended.
fn pipeline12(extra: &str) -> String {
    let mut src = String::from("workflow pipeline12 {\n");
    for i in 0..12 {
        let _ = writeln!(src, "    event e{i};");
    }
    for i in 0..11 {
        let _ = writeln!(src, "    dep d{i}: e{i} -> e{};", i + 1);
    }
    src.push_str(extra);
    src.push('}');
    src
}

#[test]
fn every_checker_report_is_pinned() {
    let opts = AnalyzeOptions::default();
    let mut out = String::new();
    let dir = format!("{}/examples/specs", env!("CARGO_MANIFEST_DIR"));
    let mut specs: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "wf"))
        .collect();
    specs.sort();
    let mut texts: Vec<(String, String)> = (specs.iter())
        .map(|p| {
            let name = p.file_name().expect("a file").to_string_lossy().into_owned();
            (name, std::fs::read_to_string(p).unwrap_or_else(|e| panic!("{}: {e}", p.display())))
        })
        .collect();
    texts.push(("pipeline12".to_owned(), pipeline12("")));
    texts.push((
        "pipeline12+contradiction".to_owned(),
        pipeline12("    dep first: e0;\n    dep last: ~e11;\n"),
    ));
    for (name, text) in &texts {
        let w = LoweredWorkflow::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        describe(&mut out, name, &analyze_workflow(&w, &opts));
    }
    let models = [
        ("saga(3, 3, Some(1))", models::saga(3, 3, Some(1))),
        ("saga(4, 3, None)", models::saga(4, 3, None)),
        ("diamond(3)", models::diamond(3)),
        ("contingency(3, false)", models::contingency(3, false)),
    ];
    for (name, wf) in &models {
        describe(
            &mut out,
            name,
            &analyze_dependencies(&wf.spec.dependencies, &wf.spec.table, &opts),
        );
    }
    // Random workflows over two to eight symbols: arbitrary terms in even
    // cases, satisfiable dependencies in odd ones.
    let (mut table, syms) = testkit::symbols(8);
    let mut g = Gen::new(0xC0FFEE);
    for case in 0..300 {
        let (k, n) = (2 + case % 7, 1 + case % 5);
        let deps: Vec<_> = match case % 2 {
            0 => (0..n).map(|_| g.term(&syms[..k], 2)).collect(),
            _ => g.workflow(&syms[..k], n, 2),
        };
        describe(&mut out, &format!("random {case}"), &analyze_dependencies(&deps, &table, &opts));
    }
    // A guard whose weakening is `0` asks for nothing, though one of its
    // factors alone would ask for not-yet agreements on `e4` and `e7`.
    let srcs = ["e0 + ~e3 + ~e1.~e5", "e3.e5.~e0", "e4 + ~e7", "~e1", "e3 + e4 + ~e3 | e7"];
    let deps: Vec<_> = srcs.iter().map(|s| parse_expr(s, &mut table).expect(s)).collect();
    describe(&mut out, "weakened to 0", &analyze_dependencies(&deps, &table, &opts));
    assert_eq!((out.len(), fnv1a(out.as_bytes())), (1_288_056, 17_753_695_597_684_029_742));
}
