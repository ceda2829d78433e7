//! AST of the workflow specification language.
//!
//! A workflow file declares events (with scheduling attributes and
//! optional site placement) and dependencies. Dependency expressions use
//! the algebra operators plus Klein's arrow `->` and precedence `<` as
//! infix sugar [10], macro invocations for the common extended-transaction
//! primitives of ACTA [3] and Günthör [8], and parameter tuples `e[x]`
//! (Section 5).

use event_algebra::{PExpr, Term};
use std::fmt;

/// A source position (1-based line and column) attached to declarations
/// so downstream diagnostics (the `analyze` crate and the `wfcheck` CLI)
/// can point back into the specification file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Hash)]
pub struct Span {
    /// 1-based line (0 when synthesized, e.g. for builder-made events).
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

impl Span {
    /// A span at `line`:`col`.
    pub fn at(line: usize, col: usize) -> Span {
        Span { line, col }
    }

    /// `true` for the default span of programmatically-built declarations
    /// that never came from a source file.
    pub fn is_synthetic(&self) -> bool {
        self.line == 0
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A parsed workflow declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowDecl {
    /// Workflow name.
    pub name: String,
    /// Declared events.
    pub events: Vec<EventDecl>,
    /// Declared task agents.
    pub agents: Vec<AgentDecl>,
    /// Declared dependencies, in order.
    pub deps: Vec<DepDecl>,
}

/// One step of a declared agent script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScriptItem {
    /// Attempt/perform the named local event.
    Event(String),
    /// Think time in virtual ticks.
    Wait(u64),
}

/// A declared task agent, instantiated from the agent library by kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgentDecl {
    /// Agent name (its events intern as `name.event`).
    pub name: String,
    /// Library kind: `rda`, `app`, `compensatable`, `two_phase`, `looper`.
    pub kind: String,
    /// Site placement (default 0).
    pub site: u32,
    /// Driver script.
    pub script: Vec<ScriptItem>,
    /// Where the declaration appears in the source.
    pub span: Span,
}

/// A declared event with attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventDecl {
    /// Event name.
    pub name: String,
    /// The scheduler may delay/permit it.
    pub controllable: bool,
    /// The scheduler may proactively cause it.
    pub triggerable: bool,
    /// It happens without asking (e.g. abort).
    pub immediate: bool,
    /// Optional site assignment (`@ site N`).
    pub site: Option<u32>,
    /// Where the declaration appears in the source.
    pub span: Span,
}

/// A named dependency.
#[derive(Debug, Clone, PartialEq)]
pub struct DepDecl {
    /// Optional label (`dep d1: …`).
    pub label: Option<String>,
    /// The dependency body. Ground dependencies have no variables; bodies
    /// with variables are parametrized templates (Section 5).
    pub body: PExpr,
    /// Where the declaration appears in the source.
    pub span: Span,
}

impl DepDecl {
    /// `true` if the body mentions no variables (instantiable directly).
    pub fn is_ground(&self) -> bool {
        self.body.vars().is_empty()
    }
}

/// Klein's `e -> f`: if `e` occurs then `f` occurs (either order) —
/// formalized as `ē + f` (Example 2). `e` must be an event atom.
pub fn klein_arrow(e: PExpr, f: PExpr) -> Result<PExpr, String> {
    let not_e = complement(e).map_err(|_| "`->` applies to an event atom on its left")?;
    Ok(PExpr::Or(vec![not_e, f]))
}

/// Klein's `e < f`: if both occur, `e` precedes `f` — formalized as
/// `ē + f̄ + e·f` (Example 3). Both sides must be event atoms.
pub fn klein_precedes(e: PExpr, f: PExpr) -> Result<PExpr, String> {
    let atoms = || "`<` applies to event atoms".to_owned();
    let not_e = complement(e.clone()).map_err(|_| atoms())?;
    let not_f = complement(f.clone()).map_err(|_| atoms())?;
    Ok(PExpr::Or(vec![not_e, not_f, PExpr::Seq(vec![e, f])]))
}

/// Complement an event atom. The sugar applies to atoms only, as in the
/// paper: a complement is not mapped through `+`, `|` or `·`, and `0`
/// and `⊤` have none.
pub fn complement(e: PExpr) -> Result<PExpr, String> {
    match e {
        PExpr::Lit(mut l) => {
            l.polarity = l.polarity.flipped();
            Ok(PExpr::Lit(l))
        }
        _ => Err("`~` applies to an event atom".to_owned()),
    }
}

/// The macro library: extended-transaction-model primitives expressed as
/// dependencies over the `task.event` naming convention.
///
/// These capture the primitives of Klein \[10\], which the paper notes "can
/// capture those of \[3\] and \[8\]" (ACTA and Günthör's dependency rules).
pub fn expand_macro(name: &str, args: &[PExpr]) -> Result<PExpr, String> {
    let atom = |ix: usize| -> Result<PExpr, String> {
        args.get(ix).cloned().ok_or_else(|| format!("macro {name}: missing argument {ix}"))
    };
    let in_macro = |m: String| format!("macro {name}: {m}");
    let task_event = |ix: usize, ev: &str| -> Result<PExpr, String> {
        match args.get(ix) {
            Some(PExpr::Lit(l)) => {
                let mut l = l.clone();
                l.event.name = format!("{}.{}", l.event.name, ev);
                Ok(PExpr::Lit(l))
            }
            other => Err(format!("macro {name}: argument {ix} must be a task name, got {other:?}")),
        }
    };
    match name {
        // Klein primitives on explicit events.
        "arrow" => klein_arrow(atom(0)?, atom(1)?).map_err(in_macro),
        "prec" => klein_precedes(atom(0)?, atom(1)?).map_err(in_macro),
        // ACTA-style primitives on tasks (convention: task.start /
        // task.commit / task.abort / task.compensate).
        //
        // commit_dep(a, b): b's commit requires a's commit to precede it.
        "commit_dep" => klein_precedes(task_event(0, "commit")?, task_event(1, "commit")?),
        // abort_dep(a, b): if a aborts, b aborts.
        "abort_dep" => klein_arrow(task_event(0, "abort")?, task_event(1, "abort")?),
        // begin_on_commit(a, b): b starts exactly when a commits — the
        // ordering (b starts only after a's commit) conjoined with the
        // initiation (if a commits, b starts), so the scheduler both
        // delays and proactively triggers b.start.
        "begin_on_commit" => {
            let s = task_event(1, "start")?;
            let c = task_event(0, "commit")?;
            Ok(PExpr::And(vec![
                PExpr::Or(vec![complement(s.clone())?, PExpr::Seq(vec![c.clone(), s.clone()])]),
                PExpr::Or(vec![complement(c)?, s]),
            ]))
        }
        // exclusion(a, b): at most one of the two commits (Günthör-style
        // alternative tasks).
        "exclusion" => {
            let ca = task_event(0, "commit")?;
            let cb = task_event(1, "commit")?;
            Ok(PExpr::Or(vec![complement(ca)?, complement(cb)?]))
        }
        // compensate(t, parent, c): if t committed but the parent's commit
        // never happens, start the compensating task c (Example 4's dep 3).
        "compensate" => {
            let ct = task_event(0, "commit")?;
            let cp = task_event(1, "commit")?;
            let sc = task_event(2, "start")?;
            Ok(PExpr::Or(vec![complement(ct)?, cp, sc]))
        }
        // mutex(b1, e1, b2, e2): Example 13's one-direction critical
        // section dependency over parametrized enters/exits.
        "mutex" => {
            let b1 = atom(0)?;
            let e1 = atom(1)?;
            let b2 = atom(2)?;
            Ok(PExpr::Or(vec![
                PExpr::Seq(vec![b2.clone(), b1]),
                complement(e1.clone()).map_err(in_macro)?,
                complement(b2.clone()).map_err(in_macro)?,
                PExpr::Seq(vec![e1, b2]),
            ]))
        }
        other => Err(format!("unknown macro {other}")),
    }
}

/// Convenience: a parameterless positive atom.
pub fn atom(name: &str) -> PExpr {
    PExpr::lit(name, &[])
}

/// Convenience: a positive atom with variables.
pub fn atom_vars(name: &str, vars: &[&str]) -> PExpr {
    let args: Vec<Term> = vars.iter().map(|v| Term::Var((*v).to_owned())).collect();
    PExpr::lit(name, &args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use event_algebra::{Binding, SymbolTable};

    #[test]
    fn klein_sugar_matches_paper_formalization() {
        let mut t = SymbolTable::new();
        let arrow = klein_arrow(atom("e"), atom("f")).unwrap().instantiate(&Binding::new(), &mut t);
        let expected = event_algebra::parse_expr("~e + f", &mut t).unwrap();
        assert_eq!(arrow, expected);
        let prec =
            klein_precedes(atom("e"), atom("f")).unwrap().instantiate(&Binding::new(), &mut t);
        let expected = event_algebra::parse_expr("~e + ~f + e.f", &mut t).unwrap();
        assert_eq!(prec, expected);
    }

    #[test]
    fn macros_expand() {
        let d = expand_macro("commit_dep", &[atom("a"), atom("b")]).unwrap();
        let mut t = SymbolTable::new();
        let g = d.instantiate(&Binding::new(), &mut t);
        assert!(t.lookup("a.commit").is_some());
        assert!(t.lookup("b.commit").is_some());
        assert_eq!(g.symbols().len(), 2);
        assert!(expand_macro("nope", &[]).is_err());
        assert!(expand_macro("arrow", &[atom("e")]).is_err());
    }

    #[test]
    fn begin_on_commit_shape() {
        let d = expand_macro("begin_on_commit", &[atom("a"), atom("b")]).unwrap();
        let mut t = SymbolTable::new();
        let g = d.instantiate(&Binding::new(), &mut t);
        let expected = event_algebra::parse_expr("~b_start + a_commit.b_start", &mut {
            let mut tt = SymbolTable::new();
            tt.intern("b_start");
            tt
        });
        // Structure check: the conjunction of ordering and initiation.
        drop(expected);
        match g {
            event_algebra::Expr::And(v) => assert_eq!(v.len(), 2),
            other => panic!("unexpected {other}"),
        }
        let _ = t;
    }

    #[test]
    fn mutex_macro_is_example13() {
        let d = expand_macro(
            "mutex",
            &[atom_vars("b1", &["x"]), atom_vars("e1", &["x"]), atom_vars("b2", &["y"])],
        )
        .unwrap();
        assert_eq!(d.vars().len(), 2);
    }

    #[test]
    fn complement_of_a_non_atom_is_an_error() {
        for e in [PExpr::Or(vec![atom("a"), atom("b")]), PExpr::Top, PExpr::Zero] {
            assert_eq!(complement(e), Err("`~` applies to an event atom".to_owned()));
        }
        let compound = PExpr::Seq(vec![atom("a"), atom("b")]);
        assert!(klein_arrow(compound.clone(), atom("c")).is_err());
        assert!(klein_arrow(atom("c"), compound.clone()).is_ok(), "any right side");
        assert!(klein_precedes(atom("c"), compound).is_err());
        let err = expand_macro("mutex", &[atom("a"), PExpr::Top, atom("b")]).unwrap_err();
        assert!(err.starts_with("macro mutex: `~`"), "{err}");
    }
}
