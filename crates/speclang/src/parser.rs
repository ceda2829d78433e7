//! Parser for the workflow specification language.
//!
//! ```text
//! workflow travel {
//!     event buy::start   { triggerable };
//!     event buy::commit  { controllable } @ site 1;
//!     event buy::abort   { immediate };
//!
//!     dep d1: ~buy::start + book::start;
//!     dep d2: book::commit < buy::commit;          // Klein precedence
//!     dep d3: buy::start -> book::start;           // Klein arrow
//!     dep d4: compensate(book, buy, cancel);       // macro
//!     dep d5: mutex(b1[x], e1[x], b2[y]);          // parametrized
//! }
//! ```
//!
//! `::` separates an agent prefix from its event (interned as
//! `agent.event`, matching [`agent::TaskAgent`] registration). `.` is the
//! sequencing operator. Precedences: `->`/`<` (lowest, top level only),
//! `+`, `|`, `.`, atoms.

use crate::ast::{
    expand_macro, klein_arrow, klein_precedes, AgentDecl, DepDecl, EventDecl, ScriptItem, Span,
    WorkflowDecl,
};
use event_algebra::{PExpr, PLit, Polarity, Term, MAX_NESTING};
use std::borrow::Cow;
use std::fmt;

/// A parse error with line/column context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for SpecError {}

/// A token. An identifier borrows its text from the source, `::`
/// separators included: the parser folds them to `.` only for the names
/// it keeps ([`folded`]).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Num(u64),
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Semi,
    Colon,
    Comma,
    Plus,
    Pipe,
    Dot,
    Tilde,
    Arrow,
    Less,
    At,
    Zero,
    Top,
}

/// An identifier's name as the symbol table spells it: `agent::event`
/// becomes `agent.event`.
fn folded(raw: &str) -> Cow<'_, str> {
    if raw.contains("::") {
        Cow::Owned(raw.replace("::", "."))
    } else {
        Cow::Borrowed(raw)
    }
}

struct Lexer<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer { text: src, src: src.as_bytes(), pos: 0, line: 1, col: 1 }
    }

    fn err(&self, message: impl Into<String>) -> SpecError {
        SpecError { line: self.line, col: self.col, message: message.into() }
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.src.get(self.pos).copied()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn tokens(mut self) -> Result<Vec<(Tok<'a>, usize, usize)>, SpecError> {
        // About one token per four bytes of a spec: one allocation, as a rule.
        let mut out = Vec::with_capacity(self.src.len() / 4);
        loop {
            // Skip whitespace and // comments.
            loop {
                match self.peek() {
                    Some(b) if b.is_ascii_whitespace() => {
                        self.bump();
                    }
                    Some(b'/') if self.src.get(self.pos + 1) == Some(&b'/') => {
                        while let Some(b) = self.bump() {
                            if b == b'\n' {
                                break;
                            }
                        }
                    }
                    _ => break,
                }
            }
            let (line, col) = (self.line, self.col);
            let Some(b) = self.peek() else { break };
            let tok = match b {
                b'{' => {
                    self.bump();
                    Tok::LBrace
                }
                b'}' => {
                    self.bump();
                    Tok::RBrace
                }
                b'(' => {
                    self.bump();
                    Tok::LParen
                }
                b')' => {
                    self.bump();
                    Tok::RParen
                }
                b'[' => {
                    self.bump();
                    Tok::LBracket
                }
                b']' => {
                    self.bump();
                    Tok::RBracket
                }
                b';' => {
                    self.bump();
                    Tok::Semi
                }
                b',' => {
                    self.bump();
                    Tok::Comma
                }
                b'+' => {
                    self.bump();
                    Tok::Plus
                }
                b'|' => {
                    self.bump();
                    Tok::Pipe
                }
                b'.' => {
                    self.bump();
                    Tok::Dot
                }
                b'~' => {
                    self.bump();
                    Tok::Tilde
                }
                b'<' => {
                    self.bump();
                    Tok::Less
                }
                b'@' => {
                    self.bump();
                    Tok::At
                }
                b'-' => {
                    self.bump();
                    if self.peek() == Some(b'>') {
                        self.bump();
                        Tok::Arrow
                    } else {
                        return Err(self.err("expected '->'"));
                    }
                }
                b':' => {
                    self.bump();
                    if self.peek() == Some(b':') {
                        return Err(self.err("stray '::' outside an identifier"));
                    }
                    Tok::Colon
                }
                b'0' => {
                    self.bump();
                    Tok::Zero
                }
                b if b.is_ascii_digit() => {
                    let mut n: u64 = 0;
                    while let Some(d) = self.peek() {
                        if d.is_ascii_digit() {
                            n = n * 10 + u64::from(d - b'0');
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    Tok::Num(n)
                }
                b if b.is_ascii_alphabetic() || b == b'_' => {
                    let start = self.pos;
                    loop {
                        match self.peek() {
                            Some(c) if c.is_ascii_alphanumeric() || c == b'_' => {
                                self.bump();
                            }
                            Some(b':') if self.src.get(self.pos + 1) == Some(&b':') => {
                                self.bump();
                                self.bump();
                            }
                            _ => break,
                        }
                    }
                    // ASCII bytes only, so both ends are char boundaries.
                    match &self.text[start..self.pos] {
                        "T" => Tok::Top,
                        name => Tok::Ident(name),
                    }
                }
                other => return Err(self.err(format!("unexpected character {:?}", other as char))),
            };
            out.push((tok, line, col));
        }
        Ok(out)
    }
}

/// Two declarations of one name would drive the same symbols twice: an
/// error at the second, naming the first.
fn redeclared(what: &str, name: &str, first: Span, again: Span) -> SpecError {
    SpecError {
        line: again.line,
        col: again.col,
        message: format!("{what} '{name}' is declared twice: first at {first}, again at {again}"),
    }
}

/// The agent library's kinds — what an `agent NAME: KIND` may name.
const AGENT_KINDS: [&str; 5] = ["rda", "app", "compensatable", "two_phase", "looper"];

struct Parser<'a> {
    toks: Vec<(Tok<'a>, usize, usize)>,
    pos: usize,
    /// Complements, parentheses and macro calls open around `pos`, capped
    /// at [`MAX_NESTING`].
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err_at(&self, message: impl Into<String>) -> SpecError {
        self.err_at_token(self.pos, message)
    }

    /// An error at the token with index `ix` (the last token past the end).
    fn err_at_token(&self, ix: usize, message: impl Into<String>) -> SpecError {
        let (line, col) = self
            .toks
            .get(ix.min(self.toks.len().saturating_sub(1)))
            .map(|&(_, l, c)| (l, c))
            .unwrap_or((0, 0));
        SpecError { line, col, message: message.into() }
    }

    fn peek(&self) -> Option<Tok<'a>> {
        self.toks.get(self.pos).map(|&(t, _, _)| t)
    }

    /// The source position of the token about to be consumed.
    fn span_here(&self) -> Span {
        self.toks.get(self.pos).map(|&(_, l, c)| Span::at(l, c)).unwrap_or_default()
    }

    fn next(&mut self) -> Option<Tok<'a>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, tok: Tok<'a>, what: &str) -> Result<(), SpecError> {
        if self.peek() == Some(tok) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err_at(format!("expected {what}")))
        }
    }

    /// The next token's identifier, as written.
    fn ident(&mut self, what: &str) -> Result<&'a str, SpecError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            _ => Err(self.err_at(format!("expected {what}"))),
        }
    }

    fn workflow(&mut self) -> Result<WorkflowDecl, SpecError> {
        let kw = self.ident("'workflow'")?;
        if kw != "workflow" {
            return Err(self.err_at("expected 'workflow'"));
        }
        let name = folded(self.ident("workflow name")?).into_owned();
        self.expect(Tok::LBrace, "'{'")?;
        let mut events: Vec<EventDecl> = Vec::new();
        let mut agents: Vec<AgentDecl> = Vec::new();
        let mut deps = Vec::new();
        loop {
            match self.peek() {
                Some(Tok::RBrace) => {
                    self.pos += 1;
                    break;
                }
                Some(Tok::Ident("event")) => {
                    let span = self.span_here();
                    self.pos += 1;
                    let decl = self.event_decl(span)?;
                    if let Some(first) = events.iter().find(|e| e.name == decl.name) {
                        return Err(redeclared("event", &decl.name, first.span, span));
                    }
                    events.push(decl);
                }
                Some(Tok::Ident("agent")) => {
                    let span = self.span_here();
                    self.pos += 1;
                    let decl = self.agent_decl(span)?;
                    if let Some(first) = agents.iter().find(|a| a.name == decl.name) {
                        return Err(redeclared("agent", &decl.name, first.span, span));
                    }
                    agents.push(decl);
                }
                Some(Tok::Ident("dep")) => {
                    let span = self.span_here();
                    self.pos += 1;
                    deps.push(self.dep_decl(span)?);
                }
                _ => return Err(self.err_at("expected 'event', 'agent', 'dep' or '}'")),
            }
        }
        if self.pos != self.toks.len() {
            return Err(self.err_at("trailing input after workflow"));
        }
        Ok(WorkflowDecl { name, events, agents, deps })
    }

    /// `agent NAME: KIND (@ site N)? ({ script: item, item, ... })? ;`
    fn agent_decl(&mut self, span: Span) -> Result<AgentDecl, SpecError> {
        let name = folded(self.ident("agent name")?).into_owned();
        self.expect(Tok::Colon, "':'")?;
        let at = self.span_here();
        let kind = self.ident("agent kind")?;
        if !AGENT_KINDS.contains(&kind) {
            let message = format!(
                "unknown agent kind '{}': expected one of {}",
                folded(kind),
                AGENT_KINDS.join(", ")
            );
            return Err(SpecError { line: at.line, col: at.col, message });
        }
        let mut decl = AgentDecl { name, kind: kind.to_owned(), site: 0, script: Vec::new(), span };
        if self.peek() == Some(Tok::At) {
            self.pos += 1;
            let kw = self.ident("'site'")?;
            if kw != "site" {
                return Err(self.err_at("expected 'site'"));
            }
            match self.next() {
                Some(Tok::Num(n)) => decl.site = n as u32,
                Some(Tok::Zero) => decl.site = 0,
                _ => return Err(self.err_at("expected site number")),
            }
        }
        if self.peek() == Some(Tok::LBrace) {
            self.pos += 1;
            let kw = self.ident("'script'")?;
            if kw != "script" {
                return Err(self.err_at("expected 'script'"));
            }
            self.expect(Tok::Colon, "':'")?;
            if self.peek() != Some(Tok::RBrace) {
                loop {
                    match self.next() {
                        Some(Tok::Ident("wait")) => match self.next() {
                            Some(Tok::Num(n)) => decl.script.push(ScriptItem::Wait(n)),
                            Some(Tok::Zero) => decl.script.push(ScriptItem::Wait(0)),
                            _ => return Err(self.err_at("expected wait duration")),
                        },
                        Some(Tok::Ident(ev)) => {
                            decl.script.push(ScriptItem::Event(folded(ev).into_owned()));
                        }
                        _ => return Err(self.err_at("expected script step")),
                    }
                    match self.next() {
                        Some(Tok::Comma) => continue,
                        Some(Tok::RBrace) => break,
                        _ => return Err(self.err_at("expected ',' or '}'")),
                    }
                }
            } else {
                self.pos += 1;
            }
        }
        self.expect(Tok::Semi, "';'")?;
        Ok(decl)
    }

    fn event_decl(&mut self, span: Span) -> Result<EventDecl, SpecError> {
        let name = folded(self.ident("event name")?).into_owned();
        let mut decl = EventDecl {
            name,
            controllable: false,
            triggerable: false,
            immediate: false,
            site: None,
            span,
        };
        if self.peek() == Some(Tok::LBrace) {
            self.pos += 1;
            loop {
                let attr = self.ident("attribute")?;
                match attr {
                    "controllable" => decl.controllable = true,
                    "triggerable" => decl.triggerable = true,
                    "immediate" => decl.immediate = true,
                    other => {
                        return Err(self.err_at(format!("unknown attribute {}", folded(other))))
                    }
                }
                match self.next() {
                    Some(Tok::Comma) => continue,
                    Some(Tok::RBrace) => break,
                    _ => return Err(self.err_at("expected ',' or '}'")),
                }
            }
        }
        if self.peek() == Some(Tok::At) {
            self.pos += 1;
            let kw = self.ident("'site'")?;
            if kw != "site" {
                return Err(self.err_at("expected 'site'"));
            }
            match self.next() {
                Some(Tok::Num(n)) => decl.site = Some(n as u32),
                Some(Tok::Zero) => decl.site = Some(0),
                _ => return Err(self.err_at("expected site number")),
            }
        }
        self.expect(Tok::Semi, "';'")?;
        // Defaults: an event with no attributes is controllable.
        if !decl.controllable && !decl.triggerable && !decl.immediate {
            decl.controllable = true;
        }
        Ok(decl)
    }

    fn dep_decl(&mut self, span: Span) -> Result<DepDecl, SpecError> {
        // Optional label before ':'.
        let label = if let (Some(Tok::Ident(name)), Some((Tok::Colon, _, _))) =
            (self.peek(), self.toks.get(self.pos + 1))
        {
            self.pos += 2;
            Some(folded(name).into_owned())
        } else {
            return Err(self.err_at("expected 'dep <label>:'"));
        };
        let body = self.klein_expr()?;
        self.expect(Tok::Semi, "';'")?;
        Ok(DepDecl { label, body, span })
    }

    /// `expr ('->' expr | '<' expr)?` — Klein sugar at the top level.
    fn klein_expr(&mut self) -> Result<PExpr, SpecError> {
        let lhs = self.or_expr()?;
        let sugar = match self.peek() {
            Some(Tok::Arrow) => klein_arrow,
            Some(Tok::Less) => klein_precedes,
            _ => return Ok(lhs),
        };
        let op = self.pos;
        self.pos += 1;
        let rhs = self.or_expr()?;
        sugar(lhs, rhs).map_err(|m| self.err_at_token(op, m))
    }

    fn or_expr(&mut self) -> Result<PExpr, SpecError> {
        self.chain(Tok::Plus, Self::and_expr, PExpr::Or)
    }

    fn and_expr(&mut self) -> Result<PExpr, SpecError> {
        self.chain(Tok::Pipe, Self::seq_expr, PExpr::And)
    }

    fn seq_expr(&mut self) -> Result<PExpr, SpecError> {
        self.chain(Tok::Dot, Self::atom, PExpr::Seq)
    }

    /// `inner (op inner)*`: a lone operand as itself, two or more as
    /// `node` of them.
    fn chain(
        &mut self,
        op: Tok<'a>,
        inner: fn(&mut Self) -> Result<PExpr, SpecError>,
        node: fn(Vec<PExpr>) -> PExpr,
    ) -> Result<PExpr, SpecError> {
        let first = inner(self)?;
        if self.peek() != Some(op) {
            return Ok(first);
        }
        let mut parts = vec![first];
        while self.peek() == Some(op) {
            self.pos += 1;
            parts.push(inner(self)?);
        }
        Ok(node(parts))
    }

    /// Parse what a complement, an open parenthesis or a macro call
    /// governs, one nesting level down.
    fn nested(
        &mut self,
        inner: fn(&mut Self) -> Result<PExpr, SpecError>,
    ) -> Result<PExpr, SpecError> {
        if self.depth == MAX_NESTING {
            return Err(self.err_at(format!("nested deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let e = inner(self)?;
        self.depth -= 1;
        Ok(e)
    }

    fn atom(&mut self) -> Result<PExpr, SpecError> {
        let at = self.pos;
        match self.next() {
            Some(Tok::Tilde) => {
                let inner = self.nested(Self::atom)?;
                crate::ast::complement(inner).map_err(|m| self.err_at_token(at, m))
            }
            Some(Tok::Zero) => Ok(PExpr::Zero),
            Some(Tok::Top) => Ok(PExpr::Top),
            Some(Tok::LParen) => {
                let e = self.nested(Self::klein_expr)?;
                self.expect(Tok::RParen, "')'")?;
                Ok(e)
            }
            Some(Tok::Ident(raw)) => {
                let name = folded(raw);
                // Parameter tuple?
                let mut args: Vec<Term> = Vec::new();
                if self.peek() == Some(Tok::LBracket) {
                    self.pos += 1;
                    loop {
                        match self.next() {
                            Some(Tok::Ident(v)) => args.push(Term::Var(folded(v).into_owned())),
                            Some(Tok::Num(n)) => args.push(Term::Val(n)),
                            Some(Tok::Zero) => args.push(Term::Val(0)),
                            _ => return Err(self.err_at("expected parameter")),
                        }
                        match self.next() {
                            Some(Tok::Comma) => continue,
                            Some(Tok::RBracket) => break,
                            _ => return Err(self.err_at("expected ',' or ']'")),
                        }
                    }
                    return Ok(PExpr::Lit(PLit {
                        event: event_algebra::PEvent::new(&name, args),
                        polarity: Polarity::Pos,
                    }));
                }
                // Macro call?
                if self.peek() == Some(Tok::LParen) {
                    self.pos += 1;
                    let mut margs = Vec::new();
                    if self.peek() != Some(Tok::RParen) {
                        loop {
                            margs.push(self.nested(Self::klein_expr)?);
                            match self.next() {
                                Some(Tok::Comma) => continue,
                                Some(Tok::RParen) => break,
                                _ => return Err(self.err_at("expected ',' or ')'")),
                            }
                        }
                    } else {
                        self.pos += 1;
                    }
                    return expand_macro(&name, &margs).map_err(|m| self.err_at_token(at, m));
                }
                Ok(PExpr::lit(&name, &[]))
            }
            _ => Err(self.err_at("expected an atom")),
        }
    }
}

/// Parse a workflow specification file.
pub fn parse_workflow(src: &str) -> Result<WorkflowDecl, SpecError> {
    let toks = Lexer::new(src).tokens()?;
    let mut p = Parser { toks, pos: 0, depth: 0 };
    p.workflow()
}

/// Parse a bare dependency expression (with Klein sugar, macros and
/// parameters).
pub fn parse_dependency(src: &str) -> Result<PExpr, SpecError> {
    let toks = Lexer::new(src).tokens()?;
    let mut p = Parser { toks, pos: 0, depth: 0 };
    let e = p.klein_expr()?;
    if p.pos != p.toks.len() {
        return Err(p.err_at("trailing input"));
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use event_algebra::{Binding, SymbolTable};

    #[test]
    fn parses_travel_workflow() {
        let src = r#"
            workflow travel {
                event buy::start   { triggerable };
                event buy::commit  { controllable } @ site 1;
                event buy::abort   { immediate };
                event book::start  { triggerable };
                event book::commit { controllable };
                event cancel::start { triggerable };

                // Example 4's three dependencies:
                dep d1: ~buy::start + book::start;
                dep d2: ~buy::commit + book::commit . buy::commit;
                dep d3: ~book::commit + buy::commit + cancel::start;
            }
        "#;
        let w = parse_workflow(src).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(w.name, "travel");
        assert_eq!(w.events.len(), 6);
        assert_eq!(w.deps.len(), 3);
        assert!(w.deps.iter().all(DepDecl::is_ground));
        assert_eq!(w.events[1].site, Some(1));
        assert!(w.events[2].immediate);
        // d2 grounds to ~buy.commit + book.commit·buy.commit.
        let mut t = SymbolTable::new();
        let g = w.deps[1].body.instantiate(&Binding::new(), &mut t);
        assert!(t.lookup("buy.commit").is_some());
        assert!(t.lookup("book.commit").is_some());
        assert!(matches!(g, event_algebra::Expr::Or(_)));
    }

    #[test]
    fn klein_sugar_parses() {
        let mut t = SymbolTable::new();
        let d = parse_dependency("e < f").unwrap().instantiate(&Binding::new(), &mut t);
        let expected = event_algebra::parse_expr("~e + ~f + e.f", &mut t).unwrap();
        assert_eq!(d, expected);
        let d2 = parse_dependency("e -> f").unwrap().instantiate(&Binding::new(), &mut t);
        let expected2 = event_algebra::parse_expr("~e + f", &mut t).unwrap();
        assert_eq!(d2, expected2);
    }

    #[test]
    fn macro_calls_parse() {
        let d = parse_dependency("commit_dep(book, buy)").unwrap();
        let mut t = SymbolTable::new();
        let g = d.instantiate(&Binding::new(), &mut t);
        assert!(t.lookup("book.commit").is_some());
        let _ = g;
        assert!(parse_dependency("unknown_macro(a)").is_err());
    }

    #[test]
    fn parametrized_deps_parse() {
        let d = parse_dependency("mutex(b1[x], e1[x], b2[y])").unwrap();
        assert_eq!(d.vars().len(), 2);
        let d2 = parse_dependency("~f[y] + g[y]").unwrap();
        assert_eq!(d2.vars().len(), 1);
        let d3 = parse_dependency("e[3] -> f[3]").unwrap();
        assert!(d3.vars().is_empty());
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse_workflow("workflow x {\n  dep d1 ~e;\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(parse_workflow("workflow x { event ; }").is_err());
        assert!(parse_dependency("e +").is_err());
        assert!(parse_dependency("e ^ f").is_err());
    }

    #[test]
    fn nesting_is_capped_with_an_error_not_a_stack_overflow() {
        let parens = |n: usize| format!("{}e{}", "(".repeat(n), ")".repeat(n));
        assert!(parse_dependency(&parens(MAX_NESTING)).is_ok());
        let err = parse_dependency(&parens(MAX_NESTING + 1)).unwrap_err();
        assert!(err.message.contains("nested deeper"), "{err}");
        assert!(parse_dependency(&format!("{}e", "~".repeat(100_000))).is_err());
        assert!(parse_dependency(&"mutex(".repeat(100_000)).is_err());
    }

    #[test]
    fn a_name_declared_twice_is_an_error_at_the_second() {
        // (`wfcheck/tests/cli.rs` checks the rendered message for both kinds.)
        let err = parse_workflow("workflow w {\n  event e;\n  event f;\n  event e @ site 1;\n}")
            .unwrap_err();
        assert_eq!((err.line, err.col), (4, 3));
        // An agent and an event may share a name: they name different symbols.
        assert!(parse_workflow("workflow w { agent a: rda; event a; }").is_ok());
    }

    #[test]
    fn an_unknown_agent_kind_is_an_error_at_the_kind() {
        let err = parse_workflow("workflow w {\n  agent buy: frob { script: start, commit };\n}")
            .unwrap_err();
        assert_eq!((err.line, err.col), (2, 14));
        assert!(err.message.contains("unknown agent kind 'frob'"), "{err}");
        for kind in AGENT_KINDS {
            assert!(err.message.contains(kind), "{err}");
            assert!(parse_workflow(&format!("workflow w {{ agent a: {kind}; }}")).is_ok());
        }
    }

    /// Tokens keep `::` as written; every name the declaration keeps, and
    /// every message that quotes one, has it folded to `.`.
    #[test]
    fn kept_names_fold_the_agent_separator() {
        let w = parse_workflow(
            "workflow w::x {\n  event buy::start;\n  agent a::b: rda { script: s::t, wait 2 };\n  \
             dep d::1: buy::start -> mutex(p::q[v::w], r, s);\n}",
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!((w.name.as_str(), w.events[0].name.as_str()), ("w.x", "buy.start"));
        assert_eq!(w.agents[0].name, "a.b");
        assert_eq!(w.agents[0].script[0], ScriptItem::Event("s.t".to_owned()));
        assert_eq!(w.deps[0].label.as_deref(), Some("d.1"));
        assert!(w.deps[0].body.vars().contains("v.w"), "{:?}", w.deps[0].body);
        let attr = parse_workflow("workflow w { event e { a::b }; }").unwrap_err();
        assert!(attr.message.ends_with("unknown attribute a.b"), "{attr}");
        let kind = parse_workflow("workflow w { agent a: r::da; }").unwrap_err();
        assert!(kind.message.starts_with("unknown agent kind 'r.da'"), "{kind}");
    }

    #[test]
    fn comments_and_defaults() {
        let w = parse_workflow("workflow w {\n// only a comment\nevent e;\ndep d: e -> e2;\n}")
            .unwrap();
        assert!(w.events[0].controllable, "default attribute");
        assert_eq!(w.deps.len(), 1);
    }

    #[test]
    fn zero_and_top_parse_in_deps() {
        assert_eq!(parse_dependency("0").unwrap(), PExpr::Zero);
        assert_eq!(parse_dependency("T").unwrap(), PExpr::Top);
    }
}
