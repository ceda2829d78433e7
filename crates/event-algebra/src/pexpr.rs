//! Parametrized event expressions (Section 5).
//!
//! Event atoms carry a tuple of parameter terms (`e[x]`, `b2[y]`, `e[3]`);
//! variables are implicitly universally quantified. A [`PExpr`] under a
//! complete [`Binding`] instantiates to an ordinary ground [`Expr`], with
//! ground instance names like `b1[3]` interned into the symbol table.

use crate::expr::Expr;
use crate::symbol::{Literal, Polarity, SymbolTable};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// A parameter term: a variable or a bound value.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// An implicitly universally quantified variable.
    Var(String),
    /// A bound token value.
    Val(u64),
}

/// A parametrized event atom: a type name plus parameter terms.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PEvent {
    /// Event type name (e.g. `"b1"`).
    pub name: String,
    /// Parameter tuple.
    pub args: Vec<Term>,
}

impl PEvent {
    /// `name[vars…]` convenience constructor.
    pub fn new(name: &str, args: impl IntoIterator<Item = Term>) -> PEvent {
        PEvent { name: name.to_owned(), args: args.into_iter().collect() }
    }

    /// Ground name under a binding: `b1[3]` (a bare `b1` when the event
    /// has no parameters).
    fn ground_name(&self, binding: &Binding) -> Cow<'_, str> {
        if self.args.is_empty() {
            return Cow::Borrowed(&self.name);
        }
        let vals: Vec<String> = self
            .args
            .iter()
            .map(|t| match t {
                Term::Val(v) => v.to_string(),
                Term::Var(x) => {
                    binding.get(x).unwrap_or_else(|| panic!("unbound variable {x}")).to_string()
                }
            })
            .collect();
        Cow::Owned(format!("{}[{}]", self.name, vals.join(",")))
    }
}

/// A parametrized literal.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PLit {
    /// The event atom.
    pub event: PEvent,
    /// Event or complement.
    pub polarity: Polarity,
}

/// A parametrized dependency expression (mirror of [`Expr`] over
/// parametrized atoms).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PExpr {
    /// `0`.
    Zero,
    /// `⊤`.
    Top,
    /// A parametrized atom.
    Lit(PLit),
    /// Sequencing.
    Seq(Vec<PExpr>),
    /// Choice.
    Or(Vec<PExpr>),
    /// Conjunction.
    And(Vec<PExpr>),
}

/// A variable binding.
pub type Binding = BTreeMap<String, u64>;

impl PExpr {
    /// Positive parametrized atom.
    pub fn lit(name: &str, args: &[Term]) -> PExpr {
        PExpr::Lit(PLit { event: PEvent::new(name, args.iter().cloned()), polarity: Polarity::Pos })
    }

    /// Complement parametrized atom.
    pub fn comp(name: &str, args: &[Term]) -> PExpr {
        PExpr::Lit(PLit { event: PEvent::new(name, args.iter().cloned()), polarity: Polarity::Neg })
    }

    /// All variables in the expression.
    pub fn vars(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut BTreeSet<String>) {
        match self {
            PExpr::Zero | PExpr::Top => {}
            PExpr::Lit(l) => {
                for t in &l.event.args {
                    if let Term::Var(x) = t {
                        out.insert(x.clone());
                    }
                }
            }
            PExpr::Seq(v) | PExpr::Or(v) | PExpr::And(v) => {
                for p in v {
                    p.collect_vars(out);
                }
            }
        }
    }

    /// Instantiate under a complete binding, interning ground event names
    /// (`b1[3]`) into `table`.
    pub fn instantiate(&self, binding: &Binding, table: &mut SymbolTable) -> Expr {
        match self {
            PExpr::Zero => Expr::Zero,
            PExpr::Top => Expr::Top,
            PExpr::Lit(l) => {
                let sym = table.intern(&l.event.ground_name(binding));
                Expr::lit(Literal::new(sym, l.polarity))
            }
            PExpr::Seq(v) => Expr::seq(v.iter().map(|p| p.instantiate(binding, table))),
            PExpr::Or(v) => Expr::or(v.iter().map(|p| p.instantiate(binding, table))),
            PExpr::And(v) => Expr::and(v.iter().map(|p| p.instantiate(binding, table))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vars_and_instantiation() {
        let t = PExpr::Or(vec![
            PExpr::comp("f", &[Term::Var("y".into())]),
            PExpr::lit("g", &[Term::Val(2)]),
        ]);
        assert_eq!(t.vars().len(), 1);
        let mut table = SymbolTable::new();
        let mut b = Binding::new();
        b.insert("y".into(), 7);
        let g = t.instantiate(&b, &mut table);
        assert!(table.lookup("f[7]").is_some());
        assert!(table.lookup("g[2]").is_some());
        assert_eq!(g.symbols().len(), 2);
    }

    #[test]
    fn ground_atoms_need_no_binding() {
        let t = PExpr::lit("a", &[]);
        let mut table = SymbolTable::new();
        let g = t.instantiate(&Binding::new(), &mut table);
        assert!(table.lookup("a").is_some());
        assert_eq!(g.symbols().len(), 1);
    }
}
