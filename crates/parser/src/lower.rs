//! Lowering from the surface AST to the formal pattern layer, and the
//! statement executor (`Session`).
//!
//! `GRAPH_TABLE(g MATCH … WHERE … RETURN …)` lowers to an
//! [`OutputPattern`] evaluated over the catalog-built graph view —
//! layers (i) and (iii) of the paper's architecture. `WHERE` conjuncts
//! referencing a variable bound under an edge quantifier are pushed into
//! the quantified atom (the formal semantics gives `ψ^{n..m}` no free
//! variables, so a top-level filter could never see them; this matches
//! the standard's per-step reading of Example 2.1's
//! `WHERE t.amount > 100`).

use crate::ast::{CmpToken, Expr, GraphQuery, PathElement, Quantifier, ReturnItem, Rhs, Statement};
use crate::catalog::{Catalog, CatalogError, ColumnResolution};
use pgq_graph::ViewMode;
use pgq_pattern::{Condition, Direction, OutputItem, OutputPattern, Pattern};
use pgq_relational::{CmpOp, Database, Relation};
use pgq_value::{Value, Var};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Lowering / execution errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// Catalog resolution failure.
    Catalog(CatalogError),
    /// A `WHERE` conjunct mixes quantified and unquantified variables,
    /// or references variables of two different quantified edges.
    UnsupportedWhere(String),
    /// `WHERE` on a key (identifier component) column — the formal
    /// condition grammar only tests labels and properties.
    ComponentInWhere(String),
    /// Property-to-property comparisons other than `=` are outside the
    /// condition grammar.
    NonEqualityJoin(String),
    /// Output-pattern construction failed (duplicate/unbound items).
    Output(String),
    /// A `WHERE`/`RETURN` variable that the pattern never binds.
    UnknownVar(String),
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::Catalog(e) => write!(f, "{e}"),
            LowerError::UnsupportedWhere(s) => write!(
                f,
                "WHERE conjunct {s} mixes variables across quantifier scopes"
            ),
            LowerError::ComponentInWhere(c) => write!(
                f,
                "column {c} is an identifier key; WHERE supports labels and properties only"
            ),
            LowerError::NonEqualityJoin(s) => {
                write!(f, "property-to-property comparison {s} must use =")
            }
            LowerError::Output(s) => write!(f, "invalid RETURN clause: {s}"),
            LowerError::UnknownVar(v) => write!(f, "variable {v} is not bound by the pattern"),
        }
    }
}

impl std::error::Error for LowerError {}

impl From<CatalogError> for LowerError {
    fn from(e: CatalogError) -> Self {
        LowerError::Catalog(e)
    }
}

/// Lowers a parsed `GRAPH_TABLE` query to an output pattern over the
/// named graph.
pub fn lower_query(q: &GraphQuery, catalog: &Catalog) -> Result<OutputPattern, LowerError> {
    // Variable classification: quantified edge variables are invisible
    // at the top level (fv(ψ^{n..m}) = ∅).
    let mut quantified: BTreeSet<String> = BTreeSet::new();
    let mut bound: BTreeSet<String> = BTreeSet::new();
    for el in &q.pattern {
        match el {
            PathElement::Node { var, .. } => {
                if let Some(v) = var {
                    bound.insert(v.clone());
                }
            }
            PathElement::Edge {
                var, quantifier, ..
            } => {
                if let Some(v) = var {
                    bound.insert(v.clone());
                    if quantifier.is_some() {
                        quantified.insert(v.clone());
                    }
                }
            }
        }
    }

    // Split WHERE into conjuncts and classify each.
    let mut top_conditions: Vec<Condition> = Vec::new();
    let mut pushed: BTreeMap<String, Vec<Condition>> = BTreeMap::new();
    if let Some(w) = &q.where_clause {
        for conjunct in conjuncts(w) {
            let vars = expr_vars(&conjunct);
            for v in &vars {
                if !bound.contains(v) {
                    return Err(LowerError::UnknownVar(v.clone()));
                }
            }
            let q_vars: Vec<&String> = vars.iter().filter(|v| quantified.contains(*v)).collect();
            let cond = expr_to_condition(&conjunct, &q.graph, catalog)?;
            match q_vars.as_slice() {
                [] => top_conditions.push(cond),
                [only] if vars.len() == 1 => {
                    pushed.entry((*only).clone()).or_default().push(cond);
                }
                _ => {
                    return Err(LowerError::UnsupportedWhere(format!("{conjunct:?}")));
                }
            }
        }
    }

    // Assemble the pattern left to right.
    let mut parts: Vec<Pattern> = Vec::new();
    let mut anon = 0usize;
    for el in &q.pattern {
        match el {
            PathElement::Node { var, labels } => {
                let v = element_var(var, labels, &mut anon);
                let mut p = Pattern::Node(v.clone());
                for label in labels {
                    let v = v.clone().expect("a labelled element has a variable");
                    p = p.filter(Condition::has_label(v, label.as_str()));
                }
                parts.push(p);
            }
            PathElement::Edge {
                var,
                labels,
                forward,
                quantifier,
            } => {
                let v = element_var(var, labels, &mut anon);
                let dir = if *forward {
                    Direction::Forward
                } else {
                    Direction::Backward
                };
                let mut p = Pattern::Edge(v.clone(), dir);
                for label in labels {
                    let v = v.clone().expect("a labelled element has a variable");
                    p = p.filter(Condition::has_label(v, label.as_str()));
                }
                if let Some(var_name) = var {
                    if let Some(conds) = pushed.remove(var_name) {
                        for c in conds {
                            p = p.filter(c);
                        }
                    }
                }
                if let Some(quant) = quantifier {
                    p = match quant {
                        Quantifier::Star => p.star(),
                        Quantifier::Plus => p.plus(),
                        Quantifier::Range(n, m) => p.repeat(*n, *m),
                        Quantifier::AtLeast(n) => p.repeat_at_least(*n),
                    };
                }
                parts.push(p);
            }
        }
    }
    let mut pattern = Pattern::seq(parts);
    if !top_conditions.is_empty() {
        pattern = pattern.filter(
            top_conditions
                .into_iter()
                .reduce(|a, b| a.and(b))
                .expect("non-empty"),
        );
    }

    // RETURN items.
    let mut items = Vec::with_capacity(q.returns.len());
    for item in &q.returns {
        match item {
            ReturnItem::Var(v) => items.push(OutputItem::Var(Var::new(v))),
            ReturnItem::Column(v, col) => {
                let var = Var::new(v);
                match catalog.resolve_column(&q.graph, col)? {
                    ColumnResolution::Component(i) => {
                        items.push(OutputItem::Component(var, i));
                    }
                    ColumnResolution::Property => {
                        items.push(OutputItem::Prop(var, Value::str(col.as_str())));
                    }
                }
            }
        }
    }
    OutputPattern::new(pattern, items).map_err(|e| LowerError::Output(e.to_string()))
}

/// The pattern variable of an element: its name, or — for an anonymous
/// element with labels, so the label test has something to bind — a
/// reserved `•anon` variable. An anonymous element without labels binds
/// nothing.
fn element_var(var: &Option<String>, labels: &[String], anon: &mut usize) -> Option<Var> {
    match var {
        Some(v) => Some(Var::new(v)),
        None if labels.is_empty() => None,
        None => {
            *anon += 1;
            Some(Var::new(format!("\u{2022}anon{anon}")))
        }
    }
}

/// Flattens top-level `AND`s.
fn conjuncts(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::And(a, b) => {
            let mut out = conjuncts(a);
            out.extend(conjuncts(b));
            out
        }
        other => vec![other.clone()],
    }
}

fn expr_vars(e: &Expr) -> BTreeSet<String> {
    match e {
        Expr::Cmp { var, rhs, .. } => {
            let mut s = BTreeSet::new();
            s.insert(var.clone());
            if let Rhs::Column(v, _) = rhs {
                s.insert(v.clone());
            }
            s
        }
        Expr::HasLabel { var, .. } => [var.clone()].into_iter().collect(),
        Expr::And(a, b) | Expr::Or(a, b) => {
            let mut s = expr_vars(a);
            s.extend(expr_vars(b));
            s
        }
        Expr::Not(a) => expr_vars(a),
    }
}

fn cmp_op(op: CmpToken) -> CmpOp {
    match op {
        CmpToken::Eq => CmpOp::Eq,
        CmpToken::Ne => CmpOp::Ne,
        CmpToken::Lt => CmpOp::Lt,
        CmpToken::Le => CmpOp::Le,
        CmpToken::Gt => CmpOp::Gt,
        CmpToken::Ge => CmpOp::Ge,
    }
}

fn expr_to_condition(e: &Expr, graph: &str, catalog: &Catalog) -> Result<Condition, LowerError> {
    match e {
        Expr::HasLabel { var, label } => Ok(Condition::has_label(var.as_str(), label.as_str())),
        Expr::Cmp {
            var,
            column,
            op,
            rhs,
        } => {
            if catalog.resolve_column(graph, column)? != ColumnResolution::Property {
                return Err(LowerError::ComponentInWhere(column.clone()));
            }
            match rhs {
                Rhs::Int(i) => Ok(Condition::prop_cmp(
                    var.as_str(),
                    Value::str(column.as_str()),
                    cmp_op(*op),
                    *i,
                )),
                Rhs::Str(s) => Ok(Condition::prop_cmp(
                    var.as_str(),
                    Value::str(column.as_str()),
                    cmp_op(*op),
                    s.as_str(),
                )),
                Rhs::Column(v2, c2) => {
                    if *op != CmpToken::Eq {
                        return Err(LowerError::NonEqualityJoin(format!(
                            "{var}.{column} vs {v2}.{c2}"
                        )));
                    }
                    if catalog.resolve_column(graph, c2)? != ColumnResolution::Property {
                        return Err(LowerError::ComponentInWhere(c2.clone()));
                    }
                    Ok(Condition::prop_eq(
                        var.as_str(),
                        Value::str(column.as_str()),
                        v2.as_str(),
                        Value::str(c2.as_str()),
                    ))
                }
            }
        }
        Expr::And(a, b) => {
            Ok(expr_to_condition(a, graph, catalog)?.and(expr_to_condition(b, graph, catalog)?))
        }
        Expr::Or(a, b) => {
            Ok(expr_to_condition(a, graph, catalog)?.or(expr_to_condition(b, graph, catalog)?))
        }
        Expr::Not(a) => Ok(expr_to_condition(a, graph, catalog)?.not()),
    }
}

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// `CREATE TABLE` registered.
    TableDefined(String),
    /// `CREATE PROPERTY GRAPH` registered.
    GraphDefined(String),
    /// `SELECT …` result rows.
    Rows(Relation),
}

/// A stateful SQL/PGQ session: catalog plus execution entry points.
#[derive(Debug, Default)]
pub struct Session {
    /// The session catalog.
    pub catalog: Catalog,
    /// View-construction mode for query execution.
    pub mode: ViewMode,
}

impl Session {
    /// A fresh session with strict view semantics.
    pub fn new() -> Self {
        Session::default()
    }

    /// Executes one parsed statement against `db`.
    pub fn execute(&mut self, stmt: &Statement, db: &Database) -> Result<Outcome, LowerError> {
        match stmt {
            Statement::CreateTable(ct) => {
                self.catalog.define_table(ct);
                Ok(Outcome::TableDefined(ct.name.clone()))
            }
            Statement::CreateGraph(cg) => {
                self.catalog.define_graph(cg)?;
                Ok(Outcome::GraphDefined(cg.name.clone()))
            }
            Statement::GraphQuery(q) => {
                let out = lower_query(q, &self.catalog)?;
                let graph = self.catalog.build_graph(&q.graph, db, self.mode)?;
                let rows = out
                    .eval(&graph)
                    .map_err(|e| LowerError::Output(e.to_string()))?;
                Ok(Outcome::Rows(rows))
            }
        }
    }

    /// Parses and executes a whole script, returning each statement's
    /// outcome.
    pub fn run_script(&mut self, script: &str, db: &Database) -> Result<Vec<Outcome>, ScriptError> {
        let stmts = crate::parser::parse_script(script).map_err(ScriptError::Parse)?;
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in &stmts {
            out.push(self.execute(stmt, db).map_err(ScriptError::Lower)?);
        }
        Ok(out)
    }
}

/// Errors from [`Session::run_script`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScriptError {
    /// Parse-time failure.
    Parse(crate::parser::ParseError),
    /// Execution failure.
    Lower(LowerError),
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScriptError::Parse(e) => write!(f, "{e}"),
            ScriptError::Lower(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ScriptError {}

#[cfg(test)]
mod tests {
    use super::*;
    use pgq_value::tuple;

    fn transfers_db() -> Database {
        let mut db = Database::new();
        for iban in ["IL1", "IL2", "IL3", "IL4"] {
            db.insert("Account", tuple![iban]).unwrap();
        }
        // Chain IL1 →500→ IL2 →250→ IL3 →800→ IL4.
        db.insert("Transfer", tuple![1, "IL1", "IL2", 10, 500])
            .unwrap();
        db.insert("Transfer", tuple![2, "IL2", "IL3", 11, 250])
            .unwrap();
        db.insert("Transfer", tuple![3, "IL3", "IL4", 12, 800])
            .unwrap();
        db
    }

    const DDL: &str = r"
        CREATE TABLE Account (iban);
        CREATE TABLE Transfer (t_id, src_iban, tgt_iban, ts, amount);
        CREATE PROPERTY GRAPH Transfers (
          NODES TABLE Account KEY (iban) LABEL Account,
          EDGES TABLE Transfer KEY (t_id)
            SOURCE KEY src_iban REFERENCES Account
            TARGET KEY tgt_iban REFERENCES Account
            LABELS Transfer PROPERTIES (ts, amount));
    ";

    #[test]
    fn example_2_1_end_to_end() {
        let db = transfers_db();
        let mut session = Session::new();
        session.run_script(DDL, &db).unwrap();
        let outcomes = session
            .run_script(
                "SELECT * FROM GRAPH_TABLE ( Transfers
                   MATCH ( x ) -[ t : Transfer ]->+ ( y )
                   WHERE t.amount > 100
                   RETURN ( x.iban , y.iban ) );",
                &db,
            )
            .unwrap();
        let Outcome::Rows(rows) = &outcomes[0] else {
            panic!()
        };
        // All-transfer chains have every step > 100 except none — every
        // step is > 100 here (500, 250, 800), so full reachability.
        assert!(rows.contains(&tuple!["IL1", "IL4"]));
        assert!(rows.contains(&tuple!["IL2", "IL3"]));
        assert_eq!(rows.len(), 6);
    }

    #[test]
    fn where_filters_per_step() {
        let db = transfers_db();
        let mut session = Session::new();
        session.run_script(DDL, &db).unwrap();
        let outcomes = session
            .run_script(
                "SELECT * FROM GRAPH_TABLE ( Transfers
                   MATCH ( x ) -[ t : Transfer ]->+ ( y )
                   WHERE t.amount > 300
                   RETURN ( x.iban , y.iban ) );",
                &db,
            )
            .unwrap();
        let Outcome::Rows(rows) = &outcomes[0] else {
            panic!()
        };
        // Only the 500 and 800 edges qualify, and they are not adjacent.
        assert!(rows.contains(&tuple!["IL1", "IL2"]));
        assert!(rows.contains(&tuple!["IL3", "IL4"]));
        assert!(!rows.contains(&tuple!["IL1", "IL3"]));
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn top_level_where_on_node_props() {
        let mut db = transfers_db();
        db.insert("Account", tuple!["IL9"]).unwrap();
        let mut session = Session::new();
        session.run_script(DDL, &db).unwrap();
        let outcomes = session
            .run_script(
                "SELECT * FROM GRAPH_TABLE ( Transfers
                   MATCH ( x ) -[ t ]-> ( y )
                   WHERE x.iban = 'IL1'
                   RETURN ( y.iban ) );",
                &db,
            )
            .unwrap_err();
        // x.iban is a key column: WHERE on identifier components is
        // rejected with a helpful error.
        assert!(matches!(
            outcomes,
            ScriptError::Lower(LowerError::ComponentInWhere(_))
        ));
    }

    #[test]
    fn label_tests_in_where() {
        let db = transfers_db();
        let mut session = Session::new();
        session.run_script(DDL, &db).unwrap();
        let outcomes = session
            .run_script(
                "SELECT * FROM GRAPH_TABLE ( Transfers
                   MATCH ( x ) -[ t ]-> ( y )
                   WHERE Account(x) AND NOT Transfer(x)
                   RETURN ( x.iban , y.iban ) );",
                &db,
            )
            .unwrap();
        let Outcome::Rows(rows) = &outcomes[0] else {
            panic!()
        };
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn bare_var_return_gives_composite_ids() {
        let db = transfers_db();
        let mut session = Session::new();
        session.run_script(DDL, &db).unwrap();
        let outcomes = session
            .run_script(
                "SELECT * FROM GRAPH_TABLE ( Transfers
                   MATCH ( x ) -[ t ]-> ( y ) RETURN ( x ) );",
                &db,
            )
            .unwrap();
        let Outcome::Rows(rows) = &outcomes[0] else {
            panic!()
        };
        // Identifier arity 2: (table, key).
        assert_eq!(rows.arity(), 2);
        assert!(rows.contains(&tuple!["Account", "IL1"]));
    }

    #[test]
    fn mixed_scope_where_is_rejected() {
        let db = transfers_db();
        let mut session = Session::new();
        session.run_script(DDL, &db).unwrap();
        let err = session
            .run_script(
                "SELECT * FROM GRAPH_TABLE ( Transfers
                   MATCH ( x ) -[ t : Transfer ]->+ ( y )
                   WHERE t.amount = x.amount
                   RETURN ( y.iban ) );",
                &db,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            ScriptError::Lower(LowerError::UnsupportedWhere(_))
        ));
    }

    #[test]
    fn unknown_where_var_is_rejected() {
        let db = transfers_db();
        let mut session = Session::new();
        session.run_script(DDL, &db).unwrap();
        let err = session
            .run_script(
                "SELECT * FROM GRAPH_TABLE ( Transfers
                   MATCH ( x ) -[ t ]-> ( y )
                   WHERE zz.amount > 1
                   RETURN ( y.iban ) );",
                &db,
            )
            .unwrap_err();
        assert!(matches!(err, ScriptError::Lower(LowerError::UnknownVar(_))));
    }

    #[test]
    fn backward_edges_and_ranges() {
        let db = transfers_db();
        let mut session = Session::new();
        session.run_script(DDL, &db).unwrap();
        let outcomes = session
            .run_script(
                "SELECT * FROM GRAPH_TABLE ( Transfers
                   MATCH ( x ) <-[ t ]-{2,2} ( y )
                   RETURN ( x.iban , y.iban ) );",
                &db,
            )
            .unwrap();
        let Outcome::Rows(rows) = &outcomes[0] else {
            panic!()
        };
        // Two backward steps: x ←← y, i.e. y reaches x in 2 steps.
        assert!(rows.contains(&tuple!["IL3", "IL1"]));
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn boolean_query_via_empty_return() {
        let db = transfers_db();
        let mut session = Session::new();
        session.run_script(DDL, &db).unwrap();
        let outcomes = session
            .run_script(
                "SELECT * FROM GRAPH_TABLE ( Transfers
                   MATCH ( x ) -[ t ]-> ( y ) RETURN ( ) );",
                &db,
            )
            .unwrap();
        let Outcome::Rows(rows) = &outcomes[0] else {
            panic!()
        };
        assert!(rows.as_bool());
        assert_eq!(rows.arity(), 0);
    }

    #[test]
    fn anonymous_labeled_nodes() {
        let db = transfers_db();
        let mut session = Session::new();
        session.run_script(DDL, &db).unwrap();
        let outcomes = session
            .run_script(
                "SELECT * FROM GRAPH_TABLE ( Transfers
                   MATCH ( : Account ) -[ t ]-> ( y ) RETURN ( y.iban ) );",
                &db,
            )
            .unwrap();
        let Outcome::Rows(rows) = &outcomes[0] else {
            panic!()
        };
        assert_eq!(rows.len(), 3);
    }
}
