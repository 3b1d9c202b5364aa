//! Lexer for the SQL/PGQ surface syntax used in the paper's examples:
//! `CREATE TABLE`, `CREATE PROPERTY GRAPH` (Example 1.1) and
//! `SELECT * FROM GRAPH_TABLE (… MATCH … WHERE … RETURN …)`
//! (Example 2.1).

use std::fmt;

/// A source location (byte offset), kept for error messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the token start.
    pub start: usize,
    /// Byte offset one past the token end.
    pub end: usize,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (keywords are recognized case-insensitively
    /// by the parser; the original spelling is preserved).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Single-quoted string literal (SQL style).
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `.`
    Dot,
    /// `:`
    Colon,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Dash,
    /// `->` (edge head)
    Arrow,
    /// `<-` (edge tail)
    BackArrow,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Int(i) => write!(f, "{i}"),
            Tok::Str(s) => write!(f, "'{s}'"),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::LBracket => write!(f, "["),
            Tok::RBracket => write!(f, "]"),
            Tok::LBrace => write!(f, "{{"),
            Tok::RBrace => write!(f, "}}"),
            Tok::Comma => write!(f, ","),
            Tok::Semi => write!(f, ";"),
            Tok::Dot => write!(f, "."),
            Tok::Colon => write!(f, ":"),
            Tok::Star => write!(f, "*"),
            Tok::Plus => write!(f, "+"),
            Tok::Dash => write!(f, "-"),
            Tok::Arrow => write!(f, "->"),
            Tok::BackArrow => write!(f, "<-"),
            Tok::Eq => write!(f, "="),
            Tok::Ne => write!(f, "<>"),
            Tok::Lt => write!(f, "<"),
            Tok::Le => write!(f, "<="),
            Tok::Gt => write!(f, ">"),
            Tok::Ge => write!(f, ">="),
        }
    }
}

/// A token with its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// Its location.
    pub span: Span,
}

/// Lexical errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Human-readable message.
    pub message: String,
    /// Offending location.
    pub at: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes the input. `--` line comments are skipped.
pub fn lex(input: &str) -> Result<Vec<Token>, LexError> {
    let bytes = input.as_bytes();
    let mut i = 0usize;
    let mut out = Vec::new();
    while i < bytes.len() {
        let c = bytes[i] as char;
        // Whitespace.
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Line comments.
        if c == '-' && bytes.get(i + 1) == Some(&b'-') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        let start = i;
        let mut push = |tok: Tok, end: usize| {
            out.push(Token {
                tok,
                span: Span { start, end },
            });
        };
        match c {
            '(' => {
                push(Tok::LParen, i + 1);
                i += 1;
            }
            ')' => {
                push(Tok::RParen, i + 1);
                i += 1;
            }
            '[' => {
                push(Tok::LBracket, i + 1);
                i += 1;
            }
            ']' => {
                push(Tok::RBracket, i + 1);
                i += 1;
            }
            '{' => {
                push(Tok::LBrace, i + 1);
                i += 1;
            }
            '}' => {
                push(Tok::RBrace, i + 1);
                i += 1;
            }
            ',' => {
                push(Tok::Comma, i + 1);
                i += 1;
            }
            ';' => {
                push(Tok::Semi, i + 1);
                i += 1;
            }
            '.' => {
                push(Tok::Dot, i + 1);
                i += 1;
            }
            ':' => {
                push(Tok::Colon, i + 1);
                i += 1;
            }
            '*' => {
                push(Tok::Star, i + 1);
                i += 1;
            }
            '+' => {
                push(Tok::Plus, i + 1);
                i += 1;
            }
            '=' => {
                push(Tok::Eq, i + 1);
                i += 1;
            }
            '-' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    push(Tok::Arrow, i + 2);
                    i += 2;
                } else {
                    push(Tok::Dash, i + 1);
                    i += 1;
                }
            }
            '<' => match bytes.get(i + 1) {
                Some(&b'-') => {
                    push(Tok::BackArrow, i + 2);
                    i += 2;
                }
                Some(&b'>') => {
                    push(Tok::Ne, i + 2);
                    i += 2;
                }
                Some(&b'=') => {
                    push(Tok::Le, i + 2);
                    i += 2;
                }
                _ => {
                    push(Tok::Lt, i + 1);
                    i += 1;
                }
            },
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    push(Tok::Ge, i + 2);
                    i += 2;
                } else {
                    push(Tok::Gt, i + 1);
                    i += 1;
                }
            }
            '\'' => {
                let mut j = i + 1;
                // Bytes, not chars: a multi-byte character is copied
                // whole (only ASCII quotes are ever dropped).
                let mut s = Vec::new();
                loop {
                    match bytes.get(j) {
                        None => {
                            return Err(LexError {
                                message: "unterminated string literal".into(),
                                at: i,
                            })
                        }
                        Some(&b'\'') => {
                            // SQL doubles quotes to escape them.
                            if bytes.get(j + 1) == Some(&b'\'') {
                                s.push(b'\'');
                                j += 2;
                            } else {
                                j += 1;
                                break;
                            }
                        }
                        Some(&b) => {
                            s.push(b);
                            j += 1;
                        }
                    }
                }
                push(Tok::Str(String::from_utf8_lossy(&s).into_owned()), j);
                i = j;
            }
            _ if c.is_ascii_digit() => {
                let mut j = i;
                while j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                    j += 1;
                }
                let text = &input[i..j];
                let value: i64 = text.parse().map_err(|_| LexError {
                    message: format!("integer literal {text} out of range"),
                    at: i,
                })?;
                push(Tok::Int(value), j);
                i = j;
            }
            _ if c.is_ascii_alphabetic() || c == '_' => {
                let mut j = i;
                while j < bytes.len()
                    && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_')
                {
                    j += 1;
                }
                push(Tok::Ident(input[i..j].to_string()), j);
                i = j;
            }
            _ => {
                // `i` only ever advances over ASCII, so it is a char
                // boundary and the offender can be named whole.
                let other = input.get(i..).and_then(|s| s.chars().next()).unwrap_or(c);
                return Err(LexError {
                    message: format!("unexpected character {other:?}"),
                    at: i,
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<Tok> {
        lex(input).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn punctuation_and_arrows() {
        assert_eq!(
            kinds("( ) -[t]-> <-[u]- <> <= >= < > = * + { } ; , . :"),
            vec![
                Tok::LParen,
                Tok::RParen,
                Tok::Dash,
                Tok::LBracket,
                Tok::Ident("t".into()),
                Tok::RBracket,
                Tok::Arrow,
                Tok::BackArrow,
                Tok::LBracket,
                Tok::Ident("u".into()),
                Tok::RBracket,
                Tok::Dash,
                Tok::Ne,
                Tok::Le,
                Tok::Ge,
                Tok::Lt,
                Tok::Gt,
                Tok::Eq,
                Tok::Star,
                Tok::Plus,
                Tok::LBrace,
                Tok::RBrace,
                Tok::Semi,
                Tok::Comma,
                Tok::Dot,
                Tok::Colon,
            ]
        );
    }

    #[test]
    fn literals() {
        assert_eq!(
            kinds("42 'hello' 'it''s'"),
            vec![
                Tok::Int(42),
                Tok::Str("hello".into()),
                Tok::Str("it's".into())
            ]
        );
    }

    #[test]
    fn identifiers_and_comments() {
        assert_eq!(
            kinds("SELECT t_id -- comment\n FROM"),
            vec![
                Tok::Ident("SELECT".into()),
                Tok::Ident("t_id".into()),
                Tok::Ident("FROM".into())
            ]
        );
    }

    #[test]
    fn spans_track_offsets() {
        let toks = lex("ab cd").unwrap();
        assert_eq!(toks[0].span, Span { start: 0, end: 2 });
        assert_eq!(toks[1].span, Span { start: 3, end: 5 });
    }

    #[test]
    fn errors() {
        assert!(lex("'unterminated").is_err());
        assert!(lex("@").is_err());
        assert!(lex("99999999999999999999").is_err());
    }

    #[test]
    fn non_ascii_is_kept_in_strings_and_named_in_errors() {
        assert_eq!(kinds("'café ☕'"), vec![Tok::Str("café ☕".into())]);
        let e = lex("ab é").unwrap_err();
        assert_eq!((e.at, e.message.as_str()), (3, "unexpected character 'é'"));
    }

    #[test]
    fn example_1_1_lexes() {
        let sql = r"CREATE PROPERTY GRAPH Transfers (
            NODES TABLE Account KEY ( iban ) LABEL Account ,
            EDGES TABLE Transfer KEY ( t_id )
              SOURCE KEY src_iban REFERENCES Account
              TARGET KEY tgt_iban REFERENCES Account
              LABELS Transfer PROPERTIES ( ts , amount ) ) ;";
        assert!(lex(sql).unwrap().len() > 20);
    }
}
