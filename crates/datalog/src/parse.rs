//! A small text syntax for Datalog programs, used by examples and tests.
//!
//! ```text
//! % transitive closure
//! path(X, Y) :- edge(X, Y).
//! path(X, Z) :- path(X, Y), edge(Y, Z).
//! unreach(X, Y) :- $adom(X), $adom(Y), !path(X, Y).
//! ```
//!
//! Conventions (Prolog-style): identifiers starting with an uppercase
//! letter or `_` are variables; lowercase identifiers, integers, quoted
//! strings, and `true`/`false` are constants; `%` starts a line comment;
//! `!` negates a literal. Predicate names are identifiers (the reserved
//! `$adom` is allowed in bodies).

use crate::ast::{Atom, Literal, Program, Rule};
use pgq_logic::Term;
use pgq_value::{Value, Var};
use std::fmt;

/// A parse failure with a byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the source.
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

/// Parse a Datalog program (see module docs for the grammar).
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let mut p = Parser {
        src: src.as_bytes(),
        pos: 0,
    };
    let mut program = Program::new();
    loop {
        p.skip_trivia();
        if p.at_end() {
            break;
        }
        program.push(p.rule()?);
    }
    Ok(program)
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.pos += 1;
                }
                Some(b'%') => {
                    while let Some(c) = self.bump() {
                        if c == b'\n' {
                            break;
                        }
                    }
                }
                _ => break,
            }
        }
    }

    fn expect(&mut self, token: &str) -> Result<(), ParseError> {
        self.skip_trivia();
        if self.src[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            Ok(())
        } else {
            self.err(format!("expected `{token}`"))
        }
    }

    fn try_token(&mut self, token: &str) -> bool {
        self.skip_trivia();
        if self.src[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        self.skip_trivia();
        let start = self.pos;
        if self.peek() == Some(b'$') {
            self.pos += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return self.err("expected an identifier");
        }
        Ok(std::str::from_utf8(&self.src[start..self.pos])
            .expect("ASCII identifier")
            .to_owned())
    }

    fn rule(&mut self) -> Result<Rule, ParseError> {
        let head = self.atom()?;
        let mut body = Vec::new();
        if self.try_token(":-") {
            loop {
                body.push(self.literal()?);
                if !self.try_token(",") {
                    break;
                }
            }
        }
        self.expect(".")?;
        Ok(Rule::new(head, body))
    }

    fn literal(&mut self) -> Result<Literal, ParseError> {
        if self.try_token("!") {
            Ok(Literal::neg(self.atom()?))
        } else {
            Ok(Literal::pos(self.atom()?))
        }
    }

    fn atom(&mut self) -> Result<Atom, ParseError> {
        let pred = self.ident()?;
        let mut terms = Vec::new();
        if self.try_token("(") && !self.try_token(")") {
            loop {
                terms.push(self.term()?);
                if !self.try_token(",") {
                    break;
                }
            }
            self.expect(")")?;
        }
        Ok(Atom::new(pred, terms))
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        self.skip_trivia();
        match self.peek() {
            Some(b'\'') | Some(b'"') => {
                let quote = self.bump().expect("peeked");
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c == quote {
                        let s = std::str::from_utf8(&self.src[start..self.pos])
                            .map_err(|_| ParseError {
                                offset: start,
                                message: "non-UTF-8 string literal".into(),
                            })?
                            .to_owned();
                        self.pos += 1;
                        return Ok(Term::Const(Value::str(s)));
                    }
                    self.pos += 1;
                }
                self.err("unterminated string literal")
            }
            Some(c) if c.is_ascii_digit() || c == b'-' => {
                let start = self.pos;
                if c == b'-' {
                    self.pos += 1;
                }
                while let Some(d) = self.peek() {
                    if d.is_ascii_digit() {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ASCII");
                match text.parse::<i64>() {
                    Ok(n) => Ok(Term::Const(Value::int(n))),
                    Err(_) => self.err(format!("bad integer literal `{text}`")),
                }
            }
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => {
                let name = self.ident()?;
                let first = name.as_bytes()[0];
                if first.is_ascii_uppercase() || first == b'_' {
                    Ok(Term::Var(Var::new(name)))
                } else if name == "true" {
                    Ok(Term::Const(Value::Bool(true)))
                } else if name == "false" {
                    Ok(Term::Const(Value::Bool(false)))
                } else {
                    Ok(Term::Const(Value::str(name)))
                }
            }
            _ => self.err("expected a term"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::query;
    use pgq_relational::{Database, RelName, Relation};
    use pgq_value::Tuple;

    #[test]
    fn parses_transitive_closure() {
        let p = parse_program(
            "% reachability\n\
             path(X, Y) :- edge(X, Y).\n\
             path(X, Z) :- path(X, Y), edge(Y, Z).",
        )
        .unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(
            p.rules[1].to_string(),
            "path(X, Z) :- path(X, Y), edge(Y, Z)."
        );
    }

    #[test]
    fn parsed_program_evaluates() {
        let p = parse_program(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Z) :- path(X, Y), edge(Y, Z).\n\
             isolated(X) :- $adom(X), !touched(X).\n\
             touched(X) :- edge(X, Y).\n\
             touched(Y) :- edge(X, Y).",
        )
        .unwrap();
        let rel = Relation::from_rows(
            2,
            [(1i64, 2i64), (2, 3)]
                .iter()
                .map(|&(a, b)| Tuple::new(vec![Value::int(a), Value::int(b)])),
        )
        .unwrap();
        let db = Database::new()
            .with_relation("edge", rel)
            .with_relation("extra", Relation::unary([Value::int(9)]));
        let paths = query(&p, &db, &RelName::new("path")).unwrap();
        assert_eq!(paths.len(), 3);
        let isolated = query(&p, &db, &RelName::new("isolated")).unwrap();
        assert_eq!(isolated, Relation::unary([Value::int(9)]));
    }

    #[test]
    fn constants_of_each_type() {
        let p = parse_program("p(X) :- q(X, 7, 'str', other, true, -3).").unwrap();
        let terms = &p.rules[0].body[0].atom.terms;
        assert_eq!(terms[1], Term::Const(Value::int(7)));
        assert_eq!(terms[2], Term::Const(Value::str("str")));
        assert_eq!(terms[3], Term::Const(Value::str("other")));
        assert_eq!(terms[4], Term::Const(Value::Bool(true)));
        assert_eq!(terms[5], Term::Const(Value::int(-3)));
    }

    #[test]
    fn zero_ary_atoms_parse() {
        let p = parse_program("flag. copy(X) :- flag, src(X).").unwrap();
        assert_eq!(p.rules[0].head.arity(), 0);
        assert_eq!(p.rules[1].body[0].atom.arity(), 0);
    }

    #[test]
    fn underscore_leading_is_a_variable() {
        let p = parse_program("p(X) :- q(X, _rest).").unwrap();
        assert!(matches!(&p.rules[0].body[0].atom.terms[1], Term::Var(_)));
    }

    #[test]
    fn missing_dot_is_an_error() {
        let e = parse_program("p(X) :- q(X)").unwrap_err();
        assert!(e.message.contains("expected `.`"), "{e}");
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(parse_program("p('oops).").is_err());
    }

    #[test]
    fn garbage_is_an_error() {
        assert!(parse_program("p(X) :- ???.").is_err());
    }
}
