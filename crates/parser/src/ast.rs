//! Surface AST for the SQL/PGQ subset used by the paper's examples.
//!
//! Statements:
//! * `CREATE TABLE name (col, …)` — minimal DDL so the catalog knows
//!   column names (the formal model is positional, Section 2.1);
//! * `CREATE PROPERTY GRAPH … (NODES TABLE … , EDGES TABLE …)` —
//!   Example 1.1's syntax;
//! * `SELECT * FROM GRAPH_TABLE (g MATCH … WHERE … RETURN (…))` —
//!   Example 2.1's syntax.
//!
//! A [`Command`] is what a session (shell, `pgq-server`) accepts per
//! `;`-separated segment: a statement, or one of the session commands
//! around it (row mutations, `EXPLAIN`, `STATS`, `METRICS`, `COMPACT`,
//! `SET`).

use std::fmt;

/// One parsed session command — the output of
/// [`parse_command`](crate::parse_command), the single definition of
/// the grammar the shell and the line protocol speak.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Whitespace and comments only: answers nothing.
    Empty,
    /// A SQL/PGQ [`Statement`] (DDL or a `GRAPH_TABLE` query).
    Sql(Statement),
    /// `INSERT INTO t VALUES (…)` / `DELETE FROM t VALUES (…)`.
    Mutation(RowMutation),
    /// `EXPLAIN [ANALYZE] SELECT …` — the plan, or with `ANALYZE` the
    /// profile of an actual run.
    Explain {
        /// `EXPLAIN ANALYZE` rather than `EXPLAIN`.
        analyze: bool,
        /// The explained query.
        query: GraphQuery,
    },
    /// `STATS` / `STATS JSON` — storage layout and planner statistics.
    Stats {
        /// Render as JSON.
        json: bool,
    },
    /// `METRICS [JSON|RESET]` — the store access counters.
    Metrics(MetricsMode),
    /// `COMPACT` — fold overlays, rebuild the dictionary.
    Compact,
    /// `SET THREADS n` — executor workers (0 = environment default).
    SetThreads(usize),
    /// `SET PLANNER {cost|rule}`.
    SetPlanner(PlannerToken),
}

/// The argument of `METRICS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsMode {
    /// `METRICS` — print the counters.
    Show,
    /// `METRICS JSON`.
    Json,
    /// `METRICS RESET` — zero the counters.
    Reset,
}

/// The argument of `SET PLANNER`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerToken {
    /// `cost` — the statistics-driven planner (the default).
    Cost,
    /// `rule` — the fixed rule-based rewrite.
    Rule,
}

/// A row-level mutation (the formal model is read-only — Section 7
/// simulates updates — so these are not [`Statement`]s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowMutation {
    /// The mutated table.
    pub table: String,
    /// The row to insert or delete.
    pub row: pgq_value::Tuple,
    /// `DELETE FROM` rather than `INSERT INTO`.
    pub delete: bool,
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Statement {
    /// `CREATE TABLE name (col1, col2, …);`
    CreateTable(CreateTable),
    /// `CREATE PROPERTY GRAPH … ;`
    CreateGraph(CreateGraph),
    /// `SELECT * FROM GRAPH_TABLE (…);`
    GraphQuery(GraphQuery),
}

/// Table declaration: ordered column names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreateTable {
    /// Table name.
    pub name: String,
    /// Column names, in positional order.
    pub columns: Vec<String>,
}

/// `CREATE PROPERTY GRAPH` statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreateGraph {
    /// Graph name.
    pub name: String,
    /// Vertex tables.
    pub node_tables: Vec<NodeTable>,
    /// Edge tables.
    pub edge_tables: Vec<EdgeTable>,
}

/// `NODES TABLE t KEY (c, …) LABEL ℓ … PROPERTIES (p, …)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeTable {
    /// Underlying base table.
    pub table: String,
    /// Key columns.
    pub key: Vec<String>,
    /// Labels attached to every node from this table.
    pub labels: Vec<String>,
    /// Columns exposed as properties.
    pub properties: Vec<String>,
}

/// `EDGES TABLE t KEY (…) SOURCE KEY … REFERENCES … TARGET KEY …
/// REFERENCES … LABELS … PROPERTIES (…)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeTable {
    /// Underlying base table.
    pub table: String,
    /// Key columns.
    pub key: Vec<String>,
    /// Source key columns (referencing the source node table's key).
    pub source_key: Vec<String>,
    /// Referenced source node table.
    pub source_ref: String,
    /// Target key columns.
    pub target_key: Vec<String>,
    /// Referenced target node table.
    pub target_ref: String,
    /// Labels attached to every edge from this table.
    pub labels: Vec<String>,
    /// Columns exposed as properties.
    pub properties: Vec<String>,
}

/// `SELECT * FROM GRAPH_TABLE (graph MATCH pattern [WHERE cond] RETURN
/// (items))`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphQuery {
    /// The property graph to match against.
    pub graph: String,
    /// The path pattern.
    pub pattern: Vec<PathElement>,
    /// Optional `WHERE` condition.
    pub where_clause: Option<Expr>,
    /// `RETURN` items (empty means a Boolean query — an extension used
    /// by tests; the standard always returns columns).
    pub returns: Vec<ReturnItem>,
}

/// One element of a linear path pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathElement {
    /// `(x:Label)` — node with optional variable and label tests.
    Node {
        /// Variable, if named.
        var: Option<String>,
        /// Label tests.
        labels: Vec<String>,
    },
    /// `-[t:Label]->`, `<-[t:Label]-`, optionally quantified
    /// (`+`, `*`, `{n,m}`, `{n,}`).
    Edge {
        /// Variable, if named.
        var: Option<String>,
        /// Label tests.
        labels: Vec<String>,
        /// Direction: `true` = forward (`->`).
        forward: bool,
        /// Repetition quantifier.
        quantifier: Option<Quantifier>,
    },
}

/// Edge quantifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quantifier {
    /// `*` = `{0,∞}`.
    Star,
    /// `+` = `{1,∞}`.
    Plus,
    /// `{n,m}`.
    Range(usize, usize),
    /// `{n,}` = `{n,∞}`.
    AtLeast(usize),
}

/// A `WHERE` expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// `x.col op rhs`.
    Cmp {
        /// Variable.
        var: String,
        /// Column/property name.
        column: String,
        /// Comparison operator.
        op: CmpToken,
        /// Right-hand side.
        rhs: Rhs,
    },
    /// `label(x)` — explicit label test (core θ's `ℓ(x)`).
    HasLabel {
        /// Variable.
        var: String,
        /// Label name.
        label: String,
    },
    /// `e AND e'`.
    And(Box<Expr>, Box<Expr>),
    /// `e OR e'`.
    Or(Box<Expr>, Box<Expr>),
    /// `NOT e`.
    Not(Box<Expr>),
}

/// Comparison tokens in `WHERE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpToken {
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

/// Right-hand side of a comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rhs {
    /// Integer constant.
    Int(i64),
    /// String constant.
    Str(String),
    /// Another `var.column` reference (the core `x.k = x'.k'`).
    Column(String, String),
}

/// A `RETURN` item: `x.col` or bare `x`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReturnItem {
    /// `x` — the full element identifier.
    Var(String),
    /// `x.col` — identifier key column or property.
    Column(String, String),
}

impl fmt::Display for ReturnItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReturnItem::Var(v) => write!(f, "{v}"),
            ReturnItem::Column(v, c) => write!(f, "{v}.{c}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_return_items() {
        assert_eq!(ReturnItem::Var("x".into()).to_string(), "x");
        assert_eq!(
            ReturnItem::Column("x".into(), "iban".into()).to_string(),
            "x.iban"
        );
    }
}
