//! Experiment F4: regenerate Figure 4 / Example 9 — guard synthesis for
//! the paper's worked dependencies, printing the computed guard next to
//! the paper's closed form.

use event_algebra::{parse_expr, Expr, SymbolTable};
use guard::GuardSynth;
use temporal::Guard;

fn main() {
    let mut table = SymbolTable::new();
    let d_prec = parse_expr("~e + ~f + e.f", &mut table).unwrap();
    let d_arrow = parse_expr("~e + f", &mut table).unwrap();
    let d_arrow_t = parse_expr("~f + e", &mut table).unwrap();
    let e = table.event("e");
    let f = table.event("f");
    let mut s = GuardSynth::new();

    println!("== Figure 4 / Example 9: computed guards vs the paper ==\n");
    let cases: Vec<(&str, Expr, event_algebra::Literal, &str, Guard)> = vec![
        ("1", Expr::Top, e, "T", Guard::top()),
        ("2", Expr::Zero, e, "0", Guard::bottom()),
        ("3", Expr::lit(e), e, "T", Guard::top()),
        ("4", Expr::lit(e.complement()), e, "0", Guard::bottom()),
        ("5", d_prec.clone(), e.complement(), "T", Guard::top()),
        ("6", d_prec.clone(), e, "!f", Guard::not_yet(f)),
        ("7", d_prec.clone(), f.complement(), "T", Guard::top()),
        (
            "8",
            d_prec.clone(),
            f,
            "<>~e + []e",
            Guard::eventually(e.complement()).or(&Guard::occurred(e)),
        ),
        ("11a", d_arrow.clone(), e, "<>f", Guard::eventually(f)),
        ("11b", d_arrow_t.clone(), f, "<>e", Guard::eventually(e)),
    ];
    println!(
        "{:>4}  {:<18} {:>6}  {:<14} {:<24} match",
        "case", "dependency", "event", "paper", "computed"
    );
    println!("{}", "-".repeat(78));
    let mut all_ok = true;
    for (case, d, ev, paper, expected) in cases {
        let g = s.guard(&d, ev);
        let ok = g == expected;
        all_ok &= ok;
        println!(
            "{:>4}  {:<18} {:>6}  {:<14} {:<24} {}",
            case,
            d.display(&table).to_string(),
            table.literal_name(ev),
            paper,
            g.to_texpr().display(&table).to_string(),
            if ok { "ok" } else { "MISMATCH" }
        );
    }
    println!(
        "\n{}",
        if all_ok { "all guards match the paper's closed forms" } else { "MISMATCHES FOUND" }
    );
    assert!(all_ok);
}
