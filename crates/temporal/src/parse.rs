//! A text syntax for `T` expressions — primarily for tests, tools and
//! documentation, mirroring the display format:
//!
//! ```text
//! texpr  := tand ('+' tand)*
//! tand   := tseq ('|' tseq)*
//! tseq   := tatom ('.' tatom)*
//! tatom  := '[]' tatom | '<>' tatom | '!' tatom
//!         | '0' | 'T' | ident | '~' ident | '(' texpr ')'
//! ```
//!
//! A bare identifier is the coerced `E`-atom ("has occurred by now");
//! `[]x` is accepted as its synonym (stability: `□x = x`), while `[]` /
//! `<>` / `!` over compounds keep their general readings.

use crate::texpr::TExpr;
use event_algebra::{SymbolTable, MAX_NESTING};
use std::fmt;

/// A `T` parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TParseError {
    /// Byte offset.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for TParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for TParseError {}

/// Parse a `T` expression, interning identifiers into `table`.
pub fn parse_texpr(input: &str, table: &mut SymbolTable) -> Result<TExpr, TParseError> {
    let mut p = P { input: input.as_bytes(), pos: 0, depth: 0, table };
    let e = p.texpr()?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err("trailing input"));
    }
    Ok(e)
}

struct P<'a> {
    input: &'a [u8],
    pos: usize,
    /// Prefix operators and parentheses open around `pos`, capped at
    /// [`MAX_NESTING`].
    depth: usize,
    table: &'a mut SymbolTable,
}

impl P<'_> {
    fn err(&self, m: &str) -> TParseError {
        TParseError { offset: self.pos, message: m.to_owned() }
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

    fn peek2(&mut self) -> Option<u8> {
        self.skip_ws();
        self.input.get(self.pos + 1).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn texpr(&mut self) -> Result<TExpr, TParseError> {
        let mut parts = vec![self.tand()?];
        while self.eat(b'+') {
            parts.push(self.tand()?);
        }
        Ok(TExpr::or(parts))
    }

    fn tand(&mut self) -> Result<TExpr, TParseError> {
        let mut parts = vec![self.tseq()?];
        while self.eat(b'|') {
            parts.push(self.tseq()?);
        }
        Ok(TExpr::and(parts))
    }

    fn tseq(&mut self) -> Result<TExpr, TParseError> {
        let mut parts = vec![self.tatom()?];
        while self.eat(b'.') {
            parts.push(self.tatom()?);
        }
        Ok(if parts.len() == 1 { parts.pop().expect("one") } else { TExpr::Seq(parts) })
    }

    /// Parse what a prefix operator or an open parenthesis governs, one
    /// nesting level down.
    fn nested(
        &mut self,
        inner: fn(&mut Self) -> Result<TExpr, TParseError>,
    ) -> Result<TExpr, TParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(&format!("nested deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let e = inner(self)?;
        self.depth -= 1;
        Ok(e)
    }

    fn tatom(&mut self) -> Result<TExpr, TParseError> {
        match (self.peek(), self.peek2()) {
            (Some(b'['), Some(b']')) => {
                self.pos += 2;
                let inner = self.nested(Self::tatom)?;
                // Stability: □(Occ e) = Occ e.
                Ok(match inner {
                    TExpr::Occ(l) => TExpr::Occ(l),
                    other => TExpr::Always(Box::new(other)),
                })
            }
            (Some(b'<'), Some(b'>')) => {
                self.pos += 2;
                let inner = self.nested(Self::tatom)?;
                Ok(TExpr::Eventually(Box::new(inner)))
            }
            (Some(b'!'), _) => {
                self.pos += 1;
                let inner = self.nested(Self::tatom)?;
                Ok(TExpr::Not(Box::new(inner)))
            }
            (Some(b'('), _) => {
                self.pos += 1;
                let e = self.nested(Self::texpr)?;
                if !self.eat(b')') {
                    return Err(self.err("expected ')'"));
                }
                Ok(e)
            }
            (Some(b'~'), _) => {
                self.pos += 1;
                let name = self.ident()?;
                Ok(TExpr::Occ(self.table.complement_of(&name)))
            }
            (Some(b'0'), _) => {
                self.pos += 1;
                Ok(TExpr::Zero)
            }
            (Some(c), _) if c.is_ascii_alphabetic() || c == b'_' => {
                let name = self.ident()?;
                if name == "T" {
                    Ok(TExpr::Top)
                } else {
                    Ok(TExpr::Occ(self.table.event(&name)))
                }
            }
            _ => Err(self.err("expected a T atom")),
        }
    }

    fn ident(&mut self) -> Result<String, TParseError> {
        self.skip_ws();
        let start = self.pos;
        let mut name = String::new();
        loop {
            match self.input.get(self.pos) {
                Some(&c) if c.is_ascii_alphanumeric() || c == b'_' => {
                    name.push(c as char);
                    self.pos += 1;
                }
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
    use crate::texprs_equivalent_auto;

    fn p(s: &str) -> (TExpr, SymbolTable) {
        let mut t = SymbolTable::new();
        let e = parse_texpr(s, &mut t).unwrap_or_else(|e| panic!("{s}: {e}"));
        (e, t)
    }

    #[test]
    fn parses_paper_guards() {
        let (g, mut t) = p("<>~e + []e");
        let e = t.event("e");
        let expected = TExpr::or([TExpr::eventually(e.complement()), TExpr::occurred(e)]);
        assert_eq!(g, expected);
        let (g2, _) = p("!f");
        assert!(matches!(g2, TExpr::Not(_)));
    }

    #[test]
    fn box_over_atom_collapses_by_stability() {
        let (g, mut t) = p("[]e");
        assert_eq!(g, TExpr::Occ(t.event("e")));
        // □¬e stays a genuine Always.
        let (g2, _) = p("[]!e");
        assert!(matches!(g2, TExpr::Always(_)));
    }

    #[test]
    fn roundtrips_through_display() {
        for s in ["<>~e + []e", "!f", "!e | <>f + []g", "<>([]a.[]b)", "[]!e"] {
            let mut t = SymbolTable::new();
            let e1 = parse_texpr(s, &mut t).unwrap();
            let printed = e1.display(&t).to_string();
            let e2 = parse_texpr(&printed, &mut t)
                .unwrap_or_else(|err| panic!("reparse {printed}: {err}"));
            assert!(texprs_equivalent_auto(&e1, &e2), "{s} -> {printed}: meaning changed");
        }
    }

    #[test]
    fn example9_guards_parse_and_match_synthesis_output() {
        // The guard strings printed by the harness parse back to the
        // canonical guards.
        let (g, _) = p("!buy::commit | <>cancel::start");
        assert!(matches!(g, TExpr::And(_)));
    }

    #[test]
    fn errors() {
        let mut t = SymbolTable::new();
        assert!(parse_texpr("", &mut t).is_err());
        assert!(parse_texpr("<>", &mut t).is_err());
        assert!(parse_texpr("(e", &mut t).is_err());
        assert!(parse_texpr("e !", &mut t).is_err());
    }

    #[test]
    fn nesting_is_capped_with_an_error_not_a_stack_overflow() {
        let mut t = SymbolTable::new();
        let parens = |n: usize| format!("{}e{}", "(".repeat(n), ")".repeat(n));
        assert!(parse_texpr(&parens(MAX_NESTING), &mut t).is_ok());
        let err = parse_texpr(&parens(MAX_NESTING + 1), &mut t).unwrap_err();
        assert!(err.message.contains("nested deeper"), "{err}");
        for prefix in ["!", "<>", "[]", "("] {
            assert!(parse_texpr(&format!("{}e", prefix.repeat(100_000)), &mut t).is_err());
        }
    }
}
