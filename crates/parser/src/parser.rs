//! Recursive-descent parser for the SQL/PGQ subset (Examples 1.1/2.1).

use crate::ast::*;
use crate::lexer::{lex, LexError, Tok, Token};
use std::fmt;

/// Parse errors with location information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable message mentioning what was expected.
    pub message: String,
    /// Byte offset of the offending token (input length at EOF).
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            at: e.at,
        }
    }
}

/// Why a session command was rejected: a syntax error with its
/// location, or a well-formed command given a bad argument (the message
/// names what it takes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommandError {
    /// The input is not in the grammar.
    Parse(ParseError),
    /// `STATS` / `METRICS` / `SET …` with a wrong argument.
    Usage(&'static str),
}

impl fmt::Display for CommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommandError::Parse(e) => write!(f, "{e}"),
            CommandError::Usage(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for CommandError {}

impl From<ParseError> for CommandError {
    fn from(e: ParseError) -> Self {
        CommandError::Parse(e)
    }
}

/// Parses a script of `;`-separated statements.
pub fn parse_script(input: &str) -> Result<Vec<Statement>, ParseError> {
    let mut p = Parser::new(input)?;
    let mut out = Vec::new();
    while !p.at_end() {
        out.push(p.statement()?);
        // Optional trailing semicolon(s).
        while p.eat(&Tok::Semi) {}
    }
    Ok(out)
}

/// Parses exactly one statement.
pub fn parse_statement(input: &str) -> Result<Statement, ParseError> {
    let stmts = parse_script(input)?;
    match stmts.len() {
        1 => Ok(stmts.into_iter().next().expect("checked length")),
        n => Err(ParseError {
            message: format!("expected exactly one statement, found {n}"),
            at: 0,
        }),
    }
}

/// Parses exactly one session [`Command`] (trailing `;`s allowed) —
/// the one definition of the grammar the shell and `pgq-server` speak.
/// Dispatch is on the statement lexer's tokens, so keywords are whole
/// words in any case with any whitespace between them, and a mutation's
/// literal is the literal a query matches.
pub fn parse_command(input: &str) -> Result<Command, CommandError> {
    let mut p = Parser::new(input)?;
    let command = p.command()?;
    if !p.at_command_end() {
        return Err(p.err("expected end of statement").into());
    }
    Ok(command)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    input_len: usize,
}

impl Parser {
    fn new(input: &str) -> Result<Parser, ParseError> {
        Ok(Parser {
            tokens: lex(input)?,
            pos: 0,
            input_len: input.len(),
        })
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    /// Nothing left but optional trailing `;`s.
    fn at_command_end(&self) -> bool {
        self.tokens[self.pos..].iter().all(|t| t.tok == Tok::Semi)
    }

    fn here(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map_or(self.input_len, |t| t.span.start)
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|t| &t.tok)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|t| t.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Tok) -> Result<(), ParseError> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{tok}`")))
        }
    }

    fn err(&self, message: &str) -> ParseError {
        let found = self
            .peek()
            .map_or("end of input".to_string(), |t| format!("`{t}`"));
        ParseError {
            message: format!("{message}, found {found}"),
            at: self.here(),
        }
    }

    /// Case-insensitive keyword test.
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(&format!("expected keyword {kw}")))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(Tok::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.err("expected identifier")),
        }
    }

    /// An integer (optionally negated), boolean or string literal.
    fn value(&mut self) -> Result<pgq_value::Value, ParseError> {
        use pgq_value::Value;
        let negative = self.eat(&Tok::Dash);
        let v = match self.peek() {
            Some(Tok::Int(i)) => Value::int(if negative { -*i } else { *i }),
            Some(Tok::Str(s)) if !negative => Value::str(s.as_str()),
            Some(Tok::Ident(s)) if !negative && s.eq_ignore_ascii_case("true") => Value::bool(true),
            Some(Tok::Ident(s)) if !negative && s.eq_ignore_ascii_case("false") => {
                Value::bool(false)
            }
            _ => return Err(self.err("expected an integer, boolean, or 'string' literal")),
        };
        self.pos += 1;
        Ok(v)
    }

    /// `( id, id, … )`
    fn ident_list_parens(&mut self) -> Result<Vec<String>, ParseError> {
        self.expect(&Tok::LParen)?;
        let mut out = vec![self.ident()?];
        while self.eat(&Tok::Comma) {
            out.push(self.ident()?);
        }
        self.expect(&Tok::RParen)?;
        Ok(out)
    }

    fn command(&mut self) -> Result<Command, CommandError> {
        if self.at_command_end() {
            return Ok(Command::Empty);
        }
        if self.eat_kw("INSERT") {
            self.expect_kw("INTO")?;
            return Ok(Command::Mutation(self.mutation(false)?));
        }
        if self.eat_kw("DELETE") {
            self.expect_kw("FROM")?;
            return Ok(Command::Mutation(self.mutation(true)?));
        }
        if self.eat_kw("EXPLAIN") {
            let analyze = self.eat_kw("ANALYZE");
            let query = self.select()?;
            return Ok(Command::Explain { analyze, query });
        }
        if self.eat_kw("STATS") {
            let json = self.keyword_arg(
                Some(false),
                &[("JSON", true)],
                "STATS takes no argument or JSON",
            )?;
            return Ok(Command::Stats { json });
        }
        if self.eat_kw("METRICS") {
            let mode = self.keyword_arg(
                Some(MetricsMode::Show),
                &[("JSON", MetricsMode::Json), ("RESET", MetricsMode::Reset)],
                "METRICS takes no argument, JSON, or RESET",
            )?;
            return Ok(Command::Metrics(mode));
        }
        if self.eat_kw("COMPACT") {
            return Ok(Command::Compact);
        }
        if self.eat_kw("SET") {
            if self.eat_kw("THREADS") {
                const USAGE: &str = "SET THREADS needs a non-negative integer (0 = default)";
                let n = match self.bump() {
                    Some(Tok::Int(i)) => usize::try_from(i).ok(),
                    _ => None,
                };
                return match n {
                    Some(n) if self.at_command_end() => Ok(Command::SetThreads(n)),
                    _ => Err(CommandError::Usage(USAGE)),
                };
            }
            if self.eat_kw("PLANNER") {
                let planner = self.keyword_arg(
                    None,
                    &[("COST", PlannerToken::Cost), ("RULE", PlannerToken::Rule)],
                    "SET PLANNER needs cost or rule",
                )?;
                return Ok(Command::SetPlanner(planner));
            }
            return Err(self.err("expected THREADS or PLANNER after SET").into());
        }
        Ok(Command::Sql(self.statement()?))
    }

    /// The single keyword argument of `STATS` / `METRICS` /
    /// `SET PLANNER`: `bare` when the command ends here, the value of
    /// the one matching keyword otherwise; anything else (more tokens
    /// included) is the command's usage error.
    fn keyword_arg<T: Copy>(
        &mut self,
        bare: Option<T>,
        keywords: &[(&str, T)],
        usage: &'static str,
    ) -> Result<T, CommandError> {
        let value = if self.at_command_end() {
            bare
        } else {
            let hit = keywords.iter().find(|(kw, _)| self.at_kw(kw));
            self.pos += 1;
            hit.map(|(_, v)| *v).filter(|_| self.at_command_end())
        };
        value.ok_or(CommandError::Usage(usage))
    }

    /// `t VALUES (v, …)` after `INSERT INTO` / `DELETE FROM`, with
    /// integer, boolean and single-quoted string values.
    fn mutation(&mut self, delete: bool) -> Result<RowMutation, ParseError> {
        let table = self.ident()?;
        self.expect_kw("VALUES")?;
        self.expect(&Tok::LParen)?;
        let mut values = vec![self.value()?];
        while self.eat(&Tok::Comma) {
            values.push(self.value()?);
        }
        self.expect(&Tok::RParen)?;
        Ok(RowMutation {
            table,
            row: pgq_value::Tuple::new(values),
            delete,
        })
    }

    fn statement(&mut self) -> Result<Statement, ParseError> {
        if self.at_kw("CREATE") {
            self.pos += 1;
            if self.at_kw("TABLE") {
                self.pos += 1;
                return Ok(Statement::CreateTable(self.create_table()?));
            }
            if self.at_kw("PROPERTY") {
                self.pos += 1;
                self.expect_kw("GRAPH")?;
                return Ok(Statement::CreateGraph(self.create_graph()?));
            }
            return Err(self.err("expected TABLE or PROPERTY GRAPH after CREATE"));
        }
        if self.at_kw("SELECT") {
            return Ok(Statement::GraphQuery(self.select()?));
        }
        Err(self.err("expected CREATE or SELECT"))
    }

    fn create_table(&mut self) -> Result<CreateTable, ParseError> {
        let name = self.ident()?;
        let columns = self.ident_list_parens()?;
        Ok(CreateTable { name, columns })
    }

    fn create_graph(&mut self) -> Result<CreateGraph, ParseError> {
        let name = self.ident()?;
        self.expect(&Tok::LParen)?;
        let mut node_tables = Vec::new();
        let mut edge_tables = Vec::new();
        loop {
            if self.eat_kw("NODES") || self.eat_kw("NODE") {
                self.expect_kw("TABLE")?;
                node_tables.push(self.node_table()?);
            } else if self.eat_kw("EDGES") || self.eat_kw("EDGE") {
                self.expect_kw("TABLE")?;
                edge_tables.push(self.edge_table()?);
            } else {
                return Err(self.err("expected NODES TABLE or EDGES TABLE"));
            }
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.expect(&Tok::RParen)?;
        Ok(CreateGraph {
            name,
            node_tables,
            edge_tables,
        })
    }

    fn node_table(&mut self) -> Result<NodeTable, ParseError> {
        let table = self.ident()?;
        self.expect_kw("KEY")?;
        let key = self.ident_list_parens()?;
        let mut labels = Vec::new();
        let mut properties = Vec::new();
        loop {
            if self.eat_kw("LABEL") || self.eat_kw("LABELS") {
                // One label per LABEL(S) clause; repeat the clause for
                // multiple labels (a comma would be ambiguous with the
                // separator between NODES/EDGES TABLE entries).
                labels.push(self.ident()?);
            } else if self.eat_kw("PROPERTIES") {
                properties = self.ident_list_parens()?;
            } else {
                break;
            }
        }
        Ok(NodeTable {
            table,
            key,
            labels,
            properties,
        })
    }

    fn edge_table(&mut self) -> Result<EdgeTable, ParseError> {
        let table = self.ident()?;
        self.expect_kw("KEY")?;
        let key = self.ident_list_parens()?;
        self.expect_kw("SOURCE")?;
        self.expect_kw("KEY")?;
        let source_key = self.key_cols()?;
        self.expect_kw("REFERENCES")?;
        let source_ref = self.ident()?;
        self.expect_kw("TARGET")?;
        self.expect_kw("KEY")?;
        let target_key = self.key_cols()?;
        self.expect_kw("REFERENCES")?;
        let target_ref = self.ident()?;
        let mut labels = Vec::new();
        let mut properties = Vec::new();
        loop {
            if self.eat_kw("LABEL") || self.eat_kw("LABELS") {
                labels.push(self.ident()?);
            } else if self.eat_kw("PROPERTIES") {
                properties = self.ident_list_parens()?;
            } else {
                break;
            }
        }
        Ok(EdgeTable {
            table,
            key,
            source_key,
            source_ref,
            target_key,
            target_ref,
            labels,
            properties,
        })
    }

    /// `KEY col` or `KEY (col, …)` — the paper writes `SOURCE KEY
    /// src_iban` without parens.
    fn key_cols(&mut self) -> Result<Vec<String>, ParseError> {
        if self.peek() == Some(&Tok::LParen) {
            self.ident_list_parens()
        } else {
            Ok(vec![self.ident()?])
        }
    }

    fn select(&mut self) -> Result<GraphQuery, ParseError> {
        self.expect_kw("SELECT")?;
        self.expect(&Tok::Star)?;
        self.expect_kw("FROM")?;
        self.expect_kw("GRAPH_TABLE")?;
        self.expect(&Tok::LParen)?;
        let graph = self.ident()?;
        self.expect_kw("MATCH")?;
        let pattern = self.path_pattern()?;
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        self.expect_kw("RETURN")?;
        let returns = self.return_items()?;
        self.expect(&Tok::RParen)?;
        Ok(GraphQuery {
            graph,
            pattern,
            where_clause,
            returns,
        })
    }

    fn path_pattern(&mut self) -> Result<Vec<PathElement>, ParseError> {
        let mut out = Vec::new();
        loop {
            match self.peek() {
                Some(Tok::LParen) => out.push(self.node_pattern()?),
                Some(Tok::Dash) | Some(Tok::Arrow) | Some(Tok::BackArrow) => {
                    out.push(self.edge_pattern()?)
                }
                _ => break,
            }
        }
        if out.is_empty() {
            return Err(self.err("expected a path pattern"));
        }
        Ok(out)
    }

    /// `(x)`, `()`, `(x:Label)`, `(:Label)`.
    fn node_pattern(&mut self) -> Result<PathElement, ParseError> {
        self.expect(&Tok::LParen)?;
        let var = match self.peek() {
            Some(Tok::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Some(s)
            }
            _ => None,
        };
        let mut labels = Vec::new();
        while self.eat(&Tok::Colon) {
            labels.push(self.ident()?);
        }
        self.expect(&Tok::RParen)?;
        Ok(PathElement::Node { var, labels })
    }

    /// `-[t:L]->`, `->`, `<-[t]-`, `<-`, with optional quantifier after
    /// the head: `->+`, `->*`, `->{1,3}`, `->{2,}`.
    fn edge_pattern(&mut self) -> Result<PathElement, ParseError> {
        // Bare `->` lexes as a single Arrow token.
        if self.eat(&Tok::Arrow) {
            let quantifier = self.quantifier()?;
            return Ok(PathElement::Edge {
                var: None,
                labels: Vec::new(),
                forward: true,
                quantifier,
            });
        }
        let forward = match self.peek() {
            Some(Tok::Dash) => true,
            Some(Tok::BackArrow) => false,
            _ => return Err(self.err("expected an edge pattern")),
        };
        self.pos += 1;
        // Bare `<-` (no bracket) is a backward edge on its own.
        if !forward && self.peek() != Some(&Tok::LBracket) {
            let quantifier = self.quantifier()?;
            return Ok(PathElement::Edge {
                var: None,
                labels: Vec::new(),
                forward: false,
                quantifier,
            });
        }
        let (var, labels) = if self.eat(&Tok::LBracket) {
            let var = match self.peek() {
                Some(Tok::Ident(s)) => {
                    let s = s.clone();
                    self.pos += 1;
                    Some(s)
                }
                _ => None,
            };
            let mut labels = Vec::new();
            while self.eat(&Tok::Colon) {
                labels.push(self.ident()?);
            }
            self.expect(&Tok::RBracket)?;
            (var, labels)
        } else {
            (None, Vec::new())
        };
        if forward {
            self.expect(&Tok::Arrow)?;
        } else {
            self.expect(&Tok::Dash)?;
        }
        let quantifier = self.quantifier()?;
        Ok(PathElement::Edge {
            var,
            labels,
            forward,
            quantifier,
        })
    }

    fn quantifier(&mut self) -> Result<Option<Quantifier>, ParseError> {
        if self.eat(&Tok::Plus) {
            return Ok(Some(Quantifier::Plus));
        }
        if self.eat(&Tok::Star) {
            return Ok(Some(Quantifier::Star));
        }
        if self.eat(&Tok::LBrace) {
            let n = match self.bump() {
                Some(Tok::Int(i)) if i >= 0 => i as usize,
                _ => return Err(self.err("expected repetition lower bound")),
            };
            self.expect(&Tok::Comma)?;
            let q = if self.eat(&Tok::RBrace) {
                Quantifier::AtLeast(n)
            } else {
                let m = match self.bump() {
                    Some(Tok::Int(i)) if i >= 0 => i as usize,
                    _ => return Err(self.err("expected repetition upper bound")),
                };
                self.expect(&Tok::RBrace)?;
                Quantifier::Range(n, m)
            };
            return Ok(Some(q));
        }
        Ok(None)
    }

    /// `expr := term (AND|OR term)*` with `NOT` and parentheses, folded
    /// left to right. Both operators are associative, so each run of one
    /// of them is joined as a balanced tree ([`balanced`]): a long chain
    /// nests as deep as its logarithm, and every pass over the condition
    /// stays shallow.
    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut run = vec![self.expr_term()?];
        // Whether the run is joined by AND (else OR).
        let mut and = true;
        while let Some(op) = ["OR", "AND"].into_iter().position(|kw| self.eat_kw(kw)) {
            if (op == 1) != and && run.len() > 1 {
                run = vec![balanced(run, and)];
            }
            and = op == 1;
            run.push(self.expr_term()?);
        }
        Ok(balanced(run, and))
    }

    fn expr_term(&mut self) -> Result<Expr, ParseError> {
        if self.eat_kw("NOT") {
            return Ok(Expr::Not(Box::new(self.expr_term()?)));
        }
        if self.eat(&Tok::LParen) {
            let e = self.expr()?;
            self.expect(&Tok::RParen)?;
            return Ok(e);
        }
        // `ident.col op rhs` or `ident(var)` label test.
        let first = self.ident()?;
        if self.eat(&Tok::LParen) {
            let var = self.ident()?;
            self.expect(&Tok::RParen)?;
            return Ok(Expr::HasLabel { var, label: first });
        }
        self.expect(&Tok::Dot)?;
        let column = self.ident()?;
        let op = match self.bump() {
            Some(Tok::Eq) => CmpToken::Eq,
            Some(Tok::Ne) => CmpToken::Ne,
            Some(Tok::Lt) => CmpToken::Lt,
            Some(Tok::Le) => CmpToken::Le,
            Some(Tok::Gt) => CmpToken::Gt,
            Some(Tok::Ge) => CmpToken::Ge,
            _ => return Err(self.err("expected comparison operator")),
        };
        let rhs = match self.bump() {
            Some(Tok::Int(i)) => Rhs::Int(i),
            Some(Tok::Str(s)) => Rhs::Str(s),
            Some(Tok::Ident(v)) => {
                self.expect(&Tok::Dot)?;
                let c = self.ident()?;
                Rhs::Column(v, c)
            }
            _ => return Err(self.err("expected literal or column reference")),
        };
        Ok(Expr::Cmp {
            var: first,
            column,
            op,
            rhs,
        })
    }

    /// `( item, … )` or a bare comma list; items `x` or `x.col`.
    fn return_items(&mut self) -> Result<Vec<ReturnItem>, ParseError> {
        let parens = self.eat(&Tok::LParen);
        let mut out = Vec::new();
        if parens && self.eat(&Tok::RParen) {
            return Ok(out); // empty RETURN (): Boolean query extension
        }
        loop {
            let var = self.ident()?;
            if self.eat(&Tok::Dot) {
                let col = self.ident()?;
                out.push(ReturnItem::Column(var, col));
            } else {
                out.push(ReturnItem::Var(var));
            }
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        if parens {
            self.expect(&Tok::RParen)?;
        }
        Ok(out)
    }
}

/// `items` joined by AND (`and`) or OR as a balanced tree, split
/// ⌈n/2⌉ | ⌊n/2⌋ like `Pattern::seq`.
fn balanced(mut items: Vec<Expr>, and: bool) -> Expr {
    if items.len() == 1 {
        return items.pop().expect("one item");
    }
    let right = items.split_off(items.len().div_ceil(2));
    let (l, r) = (
        Box::new(balanced(items, and)),
        Box::new(balanced(right, and)),
    );
    if and {
        Expr::And(l, r)
    } else {
        Expr::Or(l, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_create_table() {
        let s = parse_statement("CREATE TABLE Account (iban);").unwrap();
        assert_eq!(
            s,
            Statement::CreateTable(CreateTable {
                name: "Account".into(),
                columns: vec!["iban".into()]
            })
        );
    }

    #[test]
    fn parses_example_1_1() {
        let sql = r"CREATE PROPERTY GRAPH Transfers (
            NODES TABLE Account KEY ( iban ) LABEL Account ,
            EDGES TABLE Transfer KEY ( t_id )
              SOURCE KEY src_iban REFERENCES Account
              TARGET KEY tgt_iban REFERENCES Account
              LABELS Transfer PROPERTIES ( ts , amount ) );";
        let Statement::CreateGraph(g) = parse_statement(sql).unwrap() else {
            panic!("expected CreateGraph");
        };
        assert_eq!(g.name, "Transfers");
        assert_eq!(g.node_tables.len(), 1);
        assert_eq!(g.node_tables[0].key, vec!["iban"]);
        assert_eq!(g.node_tables[0].labels, vec!["Account"]);
        assert_eq!(g.edge_tables.len(), 1);
        let e = &g.edge_tables[0];
        assert_eq!(e.source_key, vec!["src_iban"]);
        assert_eq!(e.source_ref, "Account");
        assert_eq!(e.target_ref, "Account");
        assert_eq!(e.properties, vec!["ts", "amount"]);
    }

    #[test]
    fn parses_example_2_1() {
        let sql = r"SELECT * FROM GRAPH_TABLE ( Transfers
            MATCH ( x ) -[ t : Transfer ]->+ ( y )
            WHERE t.amount > 100
            RETURN ( x.iban , y.iban ) );";
        let Statement::GraphQuery(q) = parse_statement(sql).unwrap() else {
            panic!("expected GraphQuery");
        };
        assert_eq!(q.graph, "Transfers");
        assert_eq!(q.pattern.len(), 3);
        assert!(matches!(
            &q.pattern[1],
            PathElement::Edge {
                var: Some(t),
                labels,
                forward: true,
                quantifier: Some(Quantifier::Plus),
            } if t == "t" && labels == &vec!["Transfer".to_string()]
        ));
        assert!(matches!(
            q.where_clause,
            Some(Expr::Cmp {
                op: CmpToken::Gt,
                rhs: Rhs::Int(100),
                ..
            })
        ));
        assert_eq!(q.returns.len(), 2);
    }

    /// A run of one connective is a balanced tree; a change of
    /// connective closes the run, as the left-to-right fold would.
    #[test]
    fn connective_runs_parse_balanced() {
        let where_clause = |cond: &str| {
            let sql = format!("SELECT * FROM GRAPH_TABLE (G MATCH (x) WHERE {cond} RETURN (x))");
            let Statement::GraphQuery(q) = parse_statement(&sql).unwrap() else {
                panic!()
            };
            q.where_clause.unwrap()
        };
        let atom = |i: i64| Expr::Cmp {
            var: "x".into(),
            column: "a".into(),
            op: CmpToken::Eq,
            rhs: Rhs::Int(i),
        };
        let or = |l, r| Expr::Or(Box::new(l), Box::new(r));
        let and = |l, r| Expr::And(Box::new(l), Box::new(r));
        assert_eq!(
            where_clause("x.a = 1 OR x.a = 2 OR x.a = 3 OR x.a = 4 OR x.a = 5"),
            or(or(or(atom(1), atom(2)), atom(3)), or(atom(4), atom(5)))
        );
        assert_eq!(
            where_clause("x.a = 1 OR x.a = 2 AND x.a = 3 AND x.a = 4"),
            and(and(or(atom(1), atom(2)), atom(3)), atom(4))
        );
        fn depth(e: &Expr) -> usize {
            match e {
                Expr::And(l, r) | Expr::Or(l, r) => 1 + depth(l).max(depth(r)),
                Expr::Not(e) => 1 + depth(e),
                _ => 0,
            }
        }
        let chain: Vec<String> = (0..1024).map(|i| format!("x.a = {i}")).collect();
        assert_eq!(depth(&where_clause(&chain.join(" OR "))), 10);
    }

    #[test]
    fn parses_quantifiers() {
        for (src, expect) in [
            ("->*", Quantifier::Star),
            ("->+", Quantifier::Plus),
            ("->{2,5}", Quantifier::Range(2, 5)),
            ("->{3,}", Quantifier::AtLeast(3)),
        ] {
            let sql = format!("SELECT * FROM GRAPH_TABLE (G MATCH (x) {src} (y) RETURN (x))");
            let Statement::GraphQuery(q) = parse_statement(&sql).unwrap() else {
                panic!()
            };
            let PathElement::Edge { quantifier, .. } = &q.pattern[1] else {
                panic!()
            };
            assert_eq!(quantifier, &Some(expect), "{src}");
        }
    }

    #[test]
    fn parses_backward_edges_and_labels() {
        let sql = "SELECT * FROM GRAPH_TABLE (G MATCH (x:Account) <-[t:Transfer]- (y) RETURN (x))";
        let Statement::GraphQuery(q) = parse_statement(sql).unwrap() else {
            panic!()
        };
        assert!(matches!(
            &q.pattern[0],
            PathElement::Node { var: Some(x), labels } if x == "x" && labels == &vec!["Account".to_string()]
        ));
        assert!(matches!(
            &q.pattern[1],
            PathElement::Edge { forward: false, .. }
        ));
    }

    #[test]
    fn parses_where_combinations() {
        let sql = "SELECT * FROM GRAPH_TABLE (G MATCH (x) -> (y) \
                   WHERE x.a = y.b AND NOT (x.c = 'z' OR Account(x)) RETURN (x))";
        let Statement::GraphQuery(q) = parse_statement(sql).unwrap() else {
            panic!()
        };
        assert!(matches!(q.where_clause, Some(Expr::And(..))));
    }

    #[test]
    fn parse_errors_carry_position_and_expectation() {
        let e = parse_statement("CREATE NONSENSE").unwrap_err();
        assert!(e.message.contains("TABLE or PROPERTY GRAPH"));
        let e = parse_statement("SELECT * FROM GRAPH_TABLE (G MATCH RETURN (x))").unwrap_err();
        assert!(e.message.contains("path pattern"));
        let e = parse_statement("SELECT *").unwrap_err();
        assert!(e.message.contains("FROM"));
    }

    #[test]
    fn script_with_multiple_statements() {
        let script = "CREATE TABLE A (x); CREATE TABLE B (y);";
        assert_eq!(parse_script(script).unwrap().len(), 2);
    }

    #[test]
    fn boolean_return() {
        let sql = "SELECT * FROM GRAPH_TABLE (G MATCH (x) -> (y) RETURN ())";
        let Statement::GraphQuery(q) = parse_statement(sql).unwrap() else {
            panic!()
        };
        assert!(q.returns.is_empty());
    }

    fn mutation(input: &str) -> RowMutation {
        match parse_command(input) {
            Ok(Command::Mutation(m)) => m,
            other => panic!("{input}: {other:?}"),
        }
    }

    #[test]
    fn mutations_parse_on_the_statement_lexer() {
        use pgq_value::tuple;
        let m = mutation("INSERT INTO T VALUES ('x,y', -1, true, 'it''s');");
        assert_eq!(m.table, "T");
        assert!(!m.delete);
        assert_eq!(m.row, tuple!["x,y", -1, true, "it's"]);
        let m = mutation("delete from T values (7)");
        assert!(m.delete);
        assert_eq!(m.row, tuple![7]);
        for bad in [
            "INSERT INTO T VALUES )(",
            "INSERT INTO T VALUES ()",
            "INSERT INTO T VALUES (1,)",
            "INSERT INTO T VALUES (1) 2",
            "INSERT INTO T VALUES (-'a')",
            "INSERT INTO T VALUES ('open",
            "INSERT T VALUES (1)",
            "UPSERT INTO T VALUES (1)",
            "INSERT INTO VALUES (1)",
        ] {
            let e = parse_command(bad).unwrap_err();
            assert!(matches!(e, CommandError::Parse(_)), "{bad}: {e}");
        }
    }

    #[test]
    fn commands_dispatch_on_tokens_not_prefixes() {
        // Any whitespace between the keywords of a mutation.
        for src in ["INSERT  INTO T VALUES (1)", "insert\ninto T values (1)"] {
            assert_eq!(mutation(src).table, "T", "{src:?}");
        }
        // Keywords in any case; trailing `;`s are not an argument.
        for (src, expect) in [
            ("stats json", Command::Stats { json: true }),
            ("STATS;", Command::Stats { json: false }),
            ("Set Threads 2", Command::SetThreads(2)),
            ("set planner RULE", Command::SetPlanner(PlannerToken::Rule)),
            ("metrics", Command::Metrics(MetricsMode::Show)),
            ("Metrics Reset;;", Command::Metrics(MetricsMode::Reset)),
            ("compact", Command::Compact),
            ("  -- nothing here\n ;", Command::Empty),
        ] {
            assert_eq!(parse_command(src).unwrap(), expect, "{src:?}");
        }
        // A keyword is a whole word: this is an unknown statement, not
        // an EXPLAIN of `ED_VIEW …`.
        let e = parse_command("EXPLAINED_VIEW SELECT 1").unwrap_err();
        assert!(e.to_string().contains("expected CREATE or SELECT"), "{e}");
        // EXPLAIN [ANALYZE] carries the parsed query.
        let select = "SELECT * FROM GRAPH_TABLE (G MATCH (x) -> (y) RETURN (x))";
        let Statement::GraphQuery(expected) = parse_statement(select).unwrap() else {
            panic!()
        };
        for (prefix, expect_analyze) in [("EXPLAIN", false), ("explain\tanalyze", true)] {
            let Command::Explain { analyze, query } =
                parse_command(&format!("{prefix} {select}")).unwrap()
            else {
                panic!("{prefix}")
            };
            assert_eq!((analyze, &query), (expect_analyze, &expected));
        }
        assert_eq!(
            parse_command(select).unwrap(),
            Command::Sql(Statement::GraphQuery(expected))
        );
    }

    #[test]
    fn bad_command_arguments_name_what_the_command_takes() {
        for (src, message) in [
            ("STATS FOO", "STATS takes no argument or JSON"),
            ("STATS JSON FOO", "STATS takes no argument or JSON"),
            ("METRICS FOO", "METRICS takes no argument, JSON, or RESET"),
            (
                "SET THREADS -1",
                "SET THREADS needs a non-negative integer (0 = default)",
            ),
            (
                "SET THREADS",
                "SET THREADS needs a non-negative integer (0 = default)",
            ),
            (
                "SET THREADS 2 3",
                "SET THREADS needs a non-negative integer (0 = default)",
            ),
            ("SET PLANNER x", "SET PLANNER needs cost or rule"),
            ("SET PLANNER", "SET PLANNER needs cost or rule"),
        ] {
            assert_eq!(
                parse_command(src).unwrap_err().to_string(),
                message,
                "{src}"
            );
        }
        // Everything else is a located parse error — non-ASCII input
        // included (the prefix dispatcher sliced it mid-character).
        for src in [
            "éééééé",
            "EXPLAIN abcdeféx",
            "SET FOO 1",
            "COMPACT now",
            "EXPLAIN CREATE TABLE t (a)",
            "CREATE TABLE a (x); CREATE TABLE b (y)",
        ] {
            let e = parse_command(src).unwrap_err();
            assert!(
                e.to_string().starts_with("parse error at byte "),
                "{src}: {e}"
            );
        }
    }
}
