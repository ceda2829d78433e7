//! A small text syntax for event expressions.
//!
//! Grammar (lowest to highest binding):
//!
//! ```text
//! expr   := andexp ('+' andexp)*          choice
//! andexp := seqexp ('|' seqexp)*          conjunction
//! seqexp := atom ('.' atom)*              sequencing
//! atom   := '0' | 'T' | '~'? ident | '(' expr ')'
//! ident  := [A-Za-z_][A-Za-z0-9_]*
//! ```
//!
//! `~x` is the complement `x̄`. Identifiers are interned into the supplied
//! [`SymbolTable`], so parsing a workflow's dependencies one by one shares
//! symbols. Since `.` is the sequencing operator, agent-scoped event
//! names are written `agent::event` and intern as `agent.event` (matching
//! task-agent registration). This parser handles bare algebra expressions; the full workflow
//! specification language (events with attributes, Klein's primitives,
//! parameters) lives in the `speclang` crate and builds on the same
//! grammar.

use crate::expr::Expr;
use crate::symbol::SymbolTable;
use std::fmt;

/// A parse failure, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset at which the problem was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// How deeply parentheses, brackets and prefix operators may nest in any
/// text this workspace parses (`parse_expr`, the `speclang` workflow
/// parser; `obs::json` carries the same number).
/// The parsers are recursive-descent, so input nested deeper than the
/// stack allows would abort the process; past this depth they return an
/// ordinary parse error instead. Hand-written specifications nest a
/// handful of levels.
pub const MAX_NESTING: usize = 128;

/// Parse an event-algebra expression, interning identifiers into `table`.
pub fn parse_expr(input: &str, table: &mut SymbolTable) -> Result<Expr, ParseError> {
    let mut p = Parser { input: input.as_bytes(), pos: 0, depth: 0, table };
    let e = p.expr()?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err("trailing input"));
    }
    Ok(e)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    /// Open parentheses around `pos`, capped at [`MAX_NESTING`].
    depth: usize,
    table: &'a mut SymbolTable,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError { offset: self.pos, message: msg.to_owned() }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.input.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut parts = vec![self.andexp()?];
        while self.eat(b'+') {
            parts.push(self.andexp()?);
        }
        Ok(Expr::or(parts))
    }

    fn andexp(&mut self) -> Result<Expr, ParseError> {
        let mut parts = vec![self.seqexp()?];
        while self.eat(b'|') {
            parts.push(self.seqexp()?);
        }
        Ok(Expr::and(parts))
    }

    fn seqexp(&mut self) -> Result<Expr, ParseError> {
        let mut parts = vec![self.atom()?];
        while self.eat(b'.') {
            parts.push(self.atom()?);
        }
        Ok(Expr::seq(parts))
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(b'(') => {
                if self.depth == MAX_NESTING {
                    return Err(self.err(&format!("nested deeper than {MAX_NESTING} levels")));
                }
                self.pos += 1;
                self.depth += 1;
                let e = self.expr()?;
                self.depth -= 1;
                if !self.eat(b')') {
                    return Err(self.err("expected ')'"));
                }
                Ok(e)
            }
            Some(b'~') => {
                self.pos += 1;
                let name = self.ident()?;
                Ok(Expr::lit(self.table.complement_of(&name)))
            }
            Some(b'0') => {
                self.pos += 1;
                // Reject identifiers beginning with 0 (none are legal).
                Ok(Expr::Zero)
            }
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => {
                let name = self.ident()?;
                if name == "T" {
                    Ok(Expr::Top)
                } else {
                    Ok(Expr::lit(self.table.event(&name)))
                }
            }
            _ => Err(self.err("expected an atom: identifier, '~', '0', 'T' or '('")),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        let start = self.pos;
        let mut name = String::new();
        loop {
            match self.input.get(self.pos) {
                Some(&c) if c.is_ascii_alphanumeric() || c == b'_' => {
                    name.push(c as char);
                    self.pos += 1;
                }
                // `agent::event` interns as `agent.event`.
                Some(b':') if self.input.get(self.pos + 1) == Some(&b':') => {
                    self.pos += 2;
                    name.push('.');
                }
                _ => break,
            }
        }
        if self.pos == start {
            return Err(self.err("expected an identifier"));
        }
        Ok(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::equivalent_auto;

    fn p(s: &str) -> (Expr, SymbolTable) {
        let mut t = SymbolTable::new();
        let e = parse_expr(s, &mut t).unwrap_or_else(|err| panic!("{s}: {err}"));
        (e, t)
    }

    #[test]
    fn parses_klein_dependencies() {
        // D→ = ē + f.
        let (d, mut t) = p("~e + f");
        let e = t.event("e");
        let f = t.event("f");
        assert_eq!(d, Expr::or([Expr::lit(e.complement()), Expr::lit(f)]));
        // D< = ē + f̄ + e·f.
        let (d2, _) = p("~e + ~f + e.f");
        let expected = Expr::or([
            Expr::lit(e.complement()),
            Expr::lit(f.complement()),
            Expr::seq([Expr::lit(e), Expr::lit(f)]),
        ]);
        assert_eq!(d2, expected);
    }

    #[test]
    fn precedence_plus_lt_and_lt_seq() {
        let (a, _) = p("a + b | c.d");
        let (b, _) = p("a + (b | (c.d))");
        assert_eq!(a, b);
        let (c, _) = p("(a + b) | c");
        assert_ne!(a, c);
    }

    #[test]
    fn constants_parse() {
        assert_eq!(p("0").0, Expr::Zero);
        assert_eq!(p("T").0, Expr::Top);
        assert_eq!(p("T + x").0, Expr::Top);
    }

    #[test]
    fn parens_and_whitespace() {
        let (a, _) = p("  ( ~buy + book )  ");
        let (b, _) = p("~buy+book");
        assert!(equivalent_auto(&a, &b));
    }

    #[test]
    fn shared_table_shares_symbols() {
        let mut t = SymbolTable::new();
        let d1 = parse_expr("~e + f", &mut t).unwrap();
        let d2 = parse_expr("~f + g", &mut t).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(d1.symbols().intersection(&d2.symbols()).count(), 1);
    }

    #[test]
    fn errors_report_offsets() {
        let mut t = SymbolTable::new();
        let err = parse_expr("a + ", &mut t).unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(parse_expr("(a", &mut t).is_err());
        assert!(parse_expr("a b", &mut t).is_err());
        assert!(parse_expr("", &mut t).is_err());
        assert!(parse_expr("~", &mut t).is_err());
    }

    #[test]
    fn nesting_is_capped_with_an_error_not_a_stack_overflow() {
        let nested = |n: usize| format!("{}e{}", "(".repeat(n), ")".repeat(n));
        let mut t = SymbolTable::new();
        assert!(parse_expr(&nested(MAX_NESTING), &mut t).is_ok());
        let err = parse_expr(&nested(MAX_NESTING + 1), &mut t).unwrap_err();
        assert_eq!(err.offset, MAX_NESTING);
        assert!(err.message.contains("nested deeper"), "{err}");
        assert!(parse_expr(&nested(100_000), &mut t).is_err());
    }

    #[test]
    fn roundtrips_through_display() {
        for s in ["~e + f", "~e + ~f + e.f", "a | b + c.d.g", "(a + b).c"] {
            let mut t = SymbolTable::new();
            let e1 = parse_expr(s, &mut t).unwrap();
            let printed = e1.display(&t).to_string();
            let e2 = parse_expr(&printed, &mut t).unwrap();
            assert_eq!(e1, e2, "{s} -> {printed}");
        }
    }
}
