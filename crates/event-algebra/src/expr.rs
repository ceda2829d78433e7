//! The event algebra `E` (Section 3.1 of the paper).
//!
//! Expressions are built from event literals (`Γ`), the constants `0`
//! (unsatisfiable) and `⊤` (trivially satisfied), sequencing `E₁ · E₂`,
//! choice `E₁ + E₂` and conjunction `E₁ | E₂` (Syntax 1–4).
//!
//! [`Expr`] values built through the smart constructors maintain light
//! canonical invariants (flattened, unit-free, sorted n-ary `+`/`|` nodes)
//! so that structurally equal expressions compare equal; *semantic*
//! canonicalization (distribution into the normal form required by the
//! residuation rules) lives in [`crate::norm`].
//!
//! The canonical order of `+`/`|` children is the derived structural
//! order, which bottoms out in comparing [`Literal`]s — `symbol << 1 |
//! polarity` — with each other. An expression's canonical form therefore
//! depends only on the *relative* order of its symbols, and
//! [`Expr::shape`] splits a dependency into what is compiled (the
//! expression over symbol ranks) and what is merely substituted (the
//! sorted symbols themselves).

use crate::symbol::{Literal, SymbolId, SymbolTable};
use std::collections::BTreeSet;
use std::fmt;

/// An event expression of the algebra `E`.
///
/// Invariants maintained by the smart constructors ([`Expr::seq`],
/// [`Expr::or`], [`Expr::and`]):
///
/// - `Seq`, `Or`, `And` vectors have length ≥ 2 and contain no nested node
///   of the same kind (flattening, by associativity);
/// - `Or` contains no `Zero`, never contains `Top` (it collapses), is
///   sorted and deduplicated (idempotence and commutativity of `+`);
/// - `And` contains no `Top`, never contains `Zero`, is sorted and
///   deduplicated; an `And` containing two complementary literals collapses
///   to `Zero` (no trace contains both `e` and `ē`);
/// - A `Seq` of literals mentioning the same *symbol* twice collapses to
///   `Zero` (no event instance occurs twice on a trace, Definition 1).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Expr {
    /// `0` — satisfied by no trace.
    Zero,
    /// `⊤` — satisfied by every trace.
    Top,
    /// An atom of `Γ`: an event or the complement of an event.
    Lit(Literal),
    /// `E₁ · E₂ · …` — sequencing: the trace splits into consecutive parts
    /// satisfying each factor in order.
    Seq(Vec<Expr>),
    /// `E₁ + E₂ + …` — choice: some disjunct is satisfied.
    Or(Vec<Expr>),
    /// `E₁ | E₂ | …` — conjunction: every conjunct is satisfied.
    And(Vec<Expr>),
}

impl Expr {
    /// The atom for literal `l`.
    pub fn lit(l: Literal) -> Expr {
        Expr::Lit(l)
    }

    /// The atom for the positive event of `sym`.
    pub fn event(sym: SymbolId) -> Expr {
        Expr::Lit(Literal::pos(sym))
    }

    /// The atom for the complement event of `sym`.
    pub fn comp(sym: SymbolId) -> Expr {
        Expr::Lit(Literal::neg(sym))
    }

    /// Smart constructor for `E₁ · E₂ · …`.
    ///
    /// Flattens nested sequences, drops `⊤` units (`E·⊤ = ⊤·E = E`, valid
    /// because satisfaction in `E` is closed under trace extension on both
    /// sides), annihilates on `0`, and collapses to `0` any all-literal
    /// sequence that mentions a symbol twice (such a sequence denotes no
    /// trace in `U_E`).
    pub fn seq(parts: impl IntoIterator<Item = Expr>) -> Expr {
        let mut out: Vec<Expr> = Vec::new();
        for p in parts {
            match p {
                Expr::Zero => return Expr::Zero,
                Expr::Top => {}
                Expr::Seq(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Expr::Top,
            1 => out.pop().expect("len checked"),
            _ => {
                // An all-literal sequence repeating a symbol denotes ∅.
                let mut syms = BTreeSet::new();
                for p in &out {
                    match p {
                        Expr::Lit(l) => {
                            if !syms.insert(l.symbol()) {
                                return Expr::Zero;
                            }
                        }
                        _ => break,
                    }
                }
                Expr::Seq(out)
            }
        }
    }

    /// Smart constructor for `E₁ + E₂ + …` (choice).
    pub fn or(parts: impl IntoIterator<Item = Expr>) -> Expr {
        let mut out: Vec<Expr> = Vec::new();
        for p in parts {
            match p {
                Expr::Zero => {}
                Expr::Top => return Expr::Top,
                Expr::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        out.sort();
        out.dedup();
        match out.len() {
            0 => Expr::Zero,
            1 => out.pop().expect("len checked"),
            _ => Expr::Or(out),
        }
    }

    /// Smart constructor for `E₁ | E₂ | …` (conjunction).
    pub fn and(parts: impl IntoIterator<Item = Expr>) -> Expr {
        let mut out: Vec<Expr> = Vec::new();
        for p in parts {
            match p {
                Expr::Top => {}
                Expr::Zero => return Expr::Zero,
                Expr::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        out.sort();
        out.dedup();
        // e | ē denotes ∅ (Example 1): detect complementary literal pairs.
        for w in out.windows(2) {
            if let (Expr::Lit(a), Expr::Lit(b)) = (&w[0], &w[1]) {
                if a.is_complement_of(*b) {
                    return Expr::Zero;
                }
            }
        }
        match out.len() {
            0 => Expr::Top,
            1 => out.pop().expect("len checked"),
            _ => Expr::And(out),
        }
    }

    /// Binary sequencing convenience: `self · rhs`.
    pub fn then(self, rhs: Expr) -> Expr {
        Expr::seq([self, rhs])
    }

    /// Binary choice convenience: `self + rhs`.
    pub fn plus(self, rhs: Expr) -> Expr {
        Expr::or([self, rhs])
    }

    /// Binary conjunction convenience: `self | rhs`.
    pub fn with(self, rhs: Expr) -> Expr {
        Expr::and([self, rhs])
    }

    /// `Γ_E`: the set of *symbols* whose events (or complements) `E`
    /// mentions.
    ///
    /// The paper defines `Γ_E` as the mentioned events *and their
    /// complements*; since that set is closed under complement it is fully
    /// described by the symbol set, which is what rule R6's side condition
    /// (`e, ē ∉ Γ_E`) inspects.
    pub fn symbols(&self) -> BTreeSet<SymbolId> {
        self.binding().into_iter().collect()
    }

    /// The set of literals syntactically present in `E` (without adding
    /// complements). `Γ_E` proper is this set closed under complement.
    pub fn literals(&self) -> BTreeSet<Literal> {
        let mut acc = BTreeSet::new();
        self.collect_literals(&mut acc);
        acc
    }

    fn collect_literals(&self, acc: &mut BTreeSet<Literal>) {
        match self {
            Expr::Zero | Expr::Top => {}
            Expr::Lit(l) => {
                acc.insert(*l);
            }
            Expr::Seq(v) | Expr::Or(v) | Expr::And(v) => {
                for p in v {
                    p.collect_literals(acc);
                }
            }
        }
    }

    /// `Γ_E` as a literal set: every mentioned literal plus its complement.
    pub fn gamma(&self) -> BTreeSet<Literal> {
        let mut acc = self.literals();
        let comps: Vec<Literal> = acc.iter().map(|l| l.complement()).collect();
        acc.extend(comps);
        acc
    }

    /// `true` if `sym` (either polarity) is mentioned in `E`.
    pub fn mentions(&self, sym: SymbolId) -> bool {
        match self {
            Expr::Zero | Expr::Top => false,
            Expr::Lit(l) => l.symbol() == sym,
            Expr::Seq(v) | Expr::Or(v) | Expr::And(v) => v.iter().any(|p| p.mentions(sym)),
        }
    }

    /// `Γ_E` modulo polarity as a sorted vector: position `r` holds the
    /// symbol of rank `r`. This is the *binding* of [`Expr::shape`].
    pub(crate) fn binding(&self) -> Vec<SymbolId> {
        fn collect(e: &Expr, acc: &mut Vec<SymbolId>) {
            match e {
                Expr::Zero | Expr::Top => {}
                Expr::Lit(l) => acc.push(l.symbol()),
                Expr::Seq(v) | Expr::Or(v) | Expr::And(v) => v.iter().for_each(|p| collect(p, acc)),
            }
        }
        // Room for the literals of a dependency over a few symbols.
        let mut syms = Vec::with_capacity(8);
        collect(self, &mut syms);
        syms.sort_unstable();
        syms.dedup();
        syms
    }

    /// The same tree with every literal replaced by `f` of it. Canonical
    /// trees stay canonical only under an `f` that preserves the relative
    /// order of literals: the sorted `+`/`|` children are not re-sorted.
    pub(crate) fn map_literals(&self, f: &impl Fn(Literal) -> Literal) -> Expr {
        let map = |v: &[Expr]| v.iter().map(|p| p.map_literals(f)).collect();
        match self {
            Expr::Zero => Expr::Zero,
            Expr::Top => Expr::Top,
            Expr::Lit(l) => Expr::Lit(f(*l)),
            Expr::Seq(v) => Expr::Seq(map(v)),
            Expr::Or(v) => Expr::Or(map(v)),
            Expr::And(v) => Expr::And(map(v)),
        }
    }

    /// The dependency's *shape* and *binding*: the expression with each
    /// symbol replaced by its rank in the sorted symbol set, and that
    /// sorted set (`shape.rebind(&binding) == self`).
    ///
    /// A workflow's dependencies are tokens of a few dependency types
    /// (Section 5): `~a + b` and `~c + d` are both the shape `~0 + 1`.
    /// Everything this workspace computes from a dependency — normal form,
    /// residuals, machine numbering, synthesized guards — compares symbol
    /// ids only with each other, never with a constant, so it commutes with
    /// any *order-preserving* renaming; a shape is compiled once and every
    /// token of it is the result rebound (see DESIGN.md, "Compile by
    /// shape").
    pub fn shape(&self) -> (Expr, Vec<SymbolId>) {
        let binding = self.binding();
        let shape = self.map_literals(&|l| rank_literal(&binding, l));
        (shape, binding)
    }

    /// Replace every symbol `SymbolId(r)` by `binding[r]` — the inverse of
    /// [`Expr::shape`]. `binding` must be strictly increasing (an
    /// order-preserving renaming), or the result is not canonical.
    ///
    /// # Panics
    ///
    /// If the expression mentions a rank `binding` does not cover.
    pub fn rebind(&self, binding: &[SymbolId]) -> Expr {
        debug_assert!(binding.windows(2).all(|w| w[0] < w[1]), "binding must preserve order");
        self.map_literals(&|l| l.rebind(binding))
    }

    /// Count of nodes in the expression tree (a size measure for benches).
    pub fn node_count(&self) -> usize {
        match self {
            Expr::Zero | Expr::Top | Expr::Lit(_) => 1,
            Expr::Seq(v) | Expr::Or(v) | Expr::And(v) => {
                1 + v.iter().map(Expr::node_count).sum::<usize>()
            }
        }
    }

    /// `true` for `0`.
    pub fn is_zero(&self) -> bool {
        matches!(self, Expr::Zero)
    }

    /// `true` for `⊤`.
    pub fn is_top(&self) -> bool {
        matches!(self, Expr::Top)
    }

    /// Render with a symbol table's names (`~buy + book·pay`).
    pub fn display<'a>(&'a self, table: &'a SymbolTable) -> ExprDisplay<'a> {
        ExprDisplay { expr: self, table: Some(table) }
    }
}

/// `l` over the rank of its symbol in `binding` (which must hold it).
pub(crate) fn rank_literal(binding: &[SymbolId], l: Literal) -> Literal {
    let rank = binding.binary_search(&l.symbol()).expect("the binding holds every symbol");
    Literal::new(SymbolId(rank as u32), l.polarity())
}

/// Display adaptor produced by [`Expr::display`].
pub struct ExprDisplay<'a> {
    expr: &'a Expr,
    table: Option<&'a SymbolTable>,
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        ExprDisplay { expr: self, table: None }.fmt(f)
    }
}

/// Binding strengths for parenthesization: `+` < `|` < `·` < atom.
fn precedence(e: &Expr) -> u8 {
    match e {
        Expr::Or(_) => 0,
        Expr::And(_) => 1,
        Expr::Seq(_) => 2,
        _ => 3,
    }
}

impl fmt::Display for ExprDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn lit_str(l: Literal, table: Option<&SymbolTable>) -> String {
            match table {
                Some(t) => t.literal_name(l),
                None => l.to_string(),
            }
        }
        fn go(
            e: &Expr,
            table: Option<&SymbolTable>,
            parent: u8,
            f: &mut fmt::Formatter<'_>,
        ) -> fmt::Result {
            let prec = precedence(e);
            let paren = prec < parent;
            if paren {
                write!(f, "(")?;
            }
            match e {
                Expr::Zero => write!(f, "0")?,
                Expr::Top => write!(f, "T")?,
                Expr::Lit(l) => write!(f, "{}", lit_str(*l, table))?,
                Expr::Seq(v) => {
                    for (i, p) in v.iter().enumerate() {
                        if i > 0 {
                            write!(f, ".")?;
                        }
                        go(p, table, prec + 1, f)?;
                    }
                }
                Expr::Or(v) => {
                    for (i, p) in v.iter().enumerate() {
                        if i > 0 {
                            write!(f, " + ")?;
                        }
                        go(p, table, prec + 1, f)?;
                    }
                }
                Expr::And(v) => {
                    for (i, p) in v.iter().enumerate() {
                        if i > 0 {
                            write!(f, " | ")?;
                        }
                        go(p, table, prec + 1, f)?;
                    }
                }
            }
            if paren {
                write!(f, ")")?;
            }
            Ok(())
        }
        go(self.expr, self.table, 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::SymbolId;

    fn e() -> Expr {
        Expr::event(SymbolId(0))
    }
    fn f() -> Expr {
        Expr::event(SymbolId(1))
    }
    fn ne() -> Expr {
        Expr::comp(SymbolId(0))
    }

    #[test]
    fn or_drops_zero_and_collapses_top() {
        assert_eq!(Expr::or([Expr::Zero, e()]), e());
        assert_eq!(Expr::or([Expr::Top, e()]), Expr::Top);
        assert_eq!(Expr::or([] as [Expr; 0]), Expr::Zero);
    }

    #[test]
    fn and_drops_top_and_collapses_zero() {
        assert_eq!(Expr::and([Expr::Top, e()]), e());
        assert_eq!(Expr::and([Expr::Zero, e()]), Expr::Zero);
        assert_eq!(Expr::and([] as [Expr; 0]), Expr::Top);
    }

    #[test]
    fn and_of_complements_is_zero() {
        // [e | ē] = ∅ (Example 1).
        assert_eq!(Expr::and([e(), ne()]), Expr::Zero);
        assert_ne!(Expr::and([e(), f()]), Expr::Zero);
    }

    #[test]
    fn or_is_idempotent_and_sorted() {
        assert_eq!(Expr::or([e(), e()]), e());
        assert_eq!(Expr::or([f(), e()]), Expr::or([e(), f()]));
    }

    #[test]
    fn seq_drops_top_units_and_annihilates_on_zero() {
        assert_eq!(Expr::seq([Expr::Top, e(), Expr::Top]), e());
        assert_eq!(Expr::seq([e(), Expr::Zero]), Expr::Zero);
        assert_eq!(Expr::seq([] as [Expr; 0]), Expr::Top);
    }

    #[test]
    fn seq_flattens_nested() {
        let nested = Expr::seq([e(), Expr::seq([f(), ne()])]);
        // e·(f·ē) flattens; ē and e share a symbol → Zero.
        assert_eq!(nested, Expr::Zero);
        let ok = Expr::seq([e(), Expr::seq([f(), Expr::event(SymbolId(2))])]);
        assert!(matches!(&ok, Expr::Seq(v) if v.len() == 3));
    }

    #[test]
    fn seq_repeating_a_symbol_is_zero() {
        assert_eq!(Expr::seq([e(), e()]), Expr::Zero);
        assert_eq!(Expr::seq([e(), ne()]), Expr::Zero);
        assert_eq!(Expr::seq([e(), f(), e()]), Expr::Zero);
    }

    #[test]
    fn gamma_closes_under_complement() {
        let d = Expr::or([ne(), f()]);
        let g = d.gamma();
        assert!(g.contains(&Literal::pos(SymbolId(0))));
        assert!(g.contains(&Literal::neg(SymbolId(0))));
        assert!(g.contains(&Literal::pos(SymbolId(1))));
        assert!(g.contains(&Literal::neg(SymbolId(1))));
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn symbols_and_mentions() {
        let d = Expr::seq([e(), f()]);
        assert_eq!(d.symbols().len(), 2);
        assert!(d.mentions(SymbolId(0)));
        assert!(d.mentions(SymbolId(1)));
        assert!(!d.mentions(SymbolId(2)));
    }

    #[test]
    fn display_uses_precedence() {
        // (ē + f̄ + e·f) — the D< dependency.
        let d = Expr::or([ne(), Expr::comp(SymbolId(1)), Expr::seq([e(), f()])]);
        let s = d.to_string();
        assert!(s.contains('+'), "{s}");
        assert!(s.contains('.'), "{s}");
        // Or under Seq gets parenthesized.
        let x = Expr::seq([Expr::or([e(), f()]), Expr::event(SymbolId(2))]);
        assert!(x.to_string().contains('('), "{x}");
    }

    #[test]
    fn shape_ranks_symbols_and_rebind_inverts() {
        let lit = |s: u32| Expr::event(SymbolId(s));
        // ~s7 + s3·s40 has the shape ~1 + 0·2 over [s3, s7, s40].
        let d = Expr::or([Expr::comp(SymbolId(7)), Expr::seq([lit(3), lit(40)])]);
        let (shape, binding) = d.shape();
        assert_eq!(binding, [SymbolId(3), SymbolId(7), SymbolId(40)]);
        assert_eq!(shape, Expr::or([Expr::comp(SymbolId(1)), Expr::seq([lit(0), lit(2)])]));
        assert_eq!(shape.rebind(&binding), d);
        // An order-preserving renaming keeps the shape; swapping two
        // symbols' roles does not.
        let moved = Expr::or([Expr::comp(SymbolId(8)), Expr::seq([lit(5), lit(9)])]);
        assert_eq!(moved.shape().0, shape);
        let swapped = Expr::or([Expr::comp(SymbolId(3)), Expr::seq([lit(7), lit(40)])]);
        assert_ne!(swapped.shape().0, shape);
        assert_eq!(Expr::Top.shape(), (Expr::Top, vec![]));
    }

    #[test]
    fn node_count_counts_tree_nodes() {
        assert_eq!(e().node_count(), 1);
        assert_eq!(Expr::or([e(), f()]).node_count(), 3);
    }
}
