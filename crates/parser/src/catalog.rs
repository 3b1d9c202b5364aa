//! The catalog: registered base tables and property graph definitions,
//! plus the normalization of vertex/edge tables into the six canonical
//! relations `(R1, …, R6)` of Definition 3.1 — the translation the paper
//! sketches in Section 7(1).
//!
//! ## Identifier scheme
//!
//! The standard keys rows by the declared `KEY` columns; keys from
//! different tables may collide, and node/edge keys may have different
//! lengths while Definition 5.1 requires one identifier arity. We
//! therefore use composite identifiers
//! `(table_name, key_1, …, key_j, 0, …, 0)` of uniform arity
//! `k = 1 + max key length`: the table-name component makes identifiers
//! from different tables (and node vs edge sorts) disjoint, and constant
//! padding keeps the map injective. This is exactly the spirit of
//! Example 5.1's composite identifiers, and is recorded in DESIGN.md.

use crate::ast::{CreateGraph, CreateTable};
use pgq_graph::{pg_view_exact, PropertyGraph, Update, ViewMode, ViewRelations};
use pgq_relational::{Database, Relation};
use pgq_value::{Tuple, Value};
use std::collections::BTreeMap;
use std::fmt;

/// Catalog errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// Unknown base table.
    UnknownTable(String),
    /// Unknown graph.
    UnknownGraph(String),
    /// A referenced column does not exist in its table.
    UnknownColumn {
        /// The table.
        table: String,
        /// The missing column.
        column: String,
    },
    /// An edge table references a node table not declared in the graph.
    UnknownReference {
        /// The edge table.
        edge_table: String,
        /// The dangling reference.
        referenced: String,
    },
    /// Source/target key length differs from the referenced node key.
    KeyLengthMismatch {
        /// The edge table.
        edge_table: String,
        /// Length of the edge-side key.
        found: usize,
        /// Length of the referenced node key.
        expected: usize,
    },
    /// The stored relation's arity differs from the declared column list.
    TableArity {
        /// The table.
        table: String,
        /// Declared column count.
        declared: usize,
        /// Stored arity.
        stored: usize,
    },
    /// A column name resolves to different things in different tables.
    AmbiguousColumn(String),
    /// A column name resolves to nothing.
    UnresolvedColumn(String),
    /// View construction failed (Definition 3.1 conditions).
    View(String),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::UnknownTable(t) => write!(f, "unknown table {t}"),
            CatalogError::UnknownGraph(g) => write!(f, "unknown property graph {g}"),
            CatalogError::UnknownColumn { table, column } => {
                write!(f, "table {table} has no column {column}")
            }
            CatalogError::UnknownReference {
                edge_table,
                referenced,
            } => write!(
                f,
                "edge table {edge_table} references {referenced}, which is not a node table of this graph"
            ),
            CatalogError::KeyLengthMismatch {
                edge_table,
                found,
                expected,
            } => write!(
                f,
                "edge table {edge_table}: endpoint key has {found} column(s), referenced key has {expected}"
            ),
            CatalogError::TableArity {
                table,
                declared,
                stored,
            } => write!(
                f,
                "table {table} declares {declared} column(s) but stores arity {stored}"
            ),
            CatalogError::AmbiguousColumn(c) => write!(f, "column {c} is ambiguous"),
            CatalogError::UnresolvedColumn(c) => {
                write!(f, "column {c} is neither a key column nor a property")
            }
            CatalogError::View(e) => write!(f, "graph view construction failed: {e}"),
        }
    }
}

impl std::error::Error for CatalogError {}

/// How a `x.col` reference resolves against a graph's element tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnResolution {
    /// A key column: component `index` of the composite identifier
    /// (offset by 1 for the table-name prefix).
    Component(usize),
    /// A property key.
    Property,
}

/// One element table of a graph resolved against its stored rows
/// ([`Catalog::row_maps`]).
struct RowMap<'a> {
    table: &'a str,
    rows: &'a Relation,
    k: usize,
    key: Vec<usize>,
    /// An edge table's source and target node tables and key positions.
    ends: Vec<(&'a str, Vec<usize>)>,
    labels: &'a [String],
    props: Vec<(usize, &'a String)>,
}

impl RowMap<'_> {
    /// The composite identifier `(table, key…, 0, …)` of arity `k`.
    fn make_id(&self, table: &str, row: &Tuple, key: &[usize]) -> Tuple {
        let mut vals = Vec::with_capacity(self.k);
        vals.push(Value::str(table));
        vals.extend(key.iter().map(|&p| row[p].clone()));
        vals.resize(self.k, Value::int(0));
        Tuple::new(vals)
    }

    /// What `row` contributes to the view, as the Section 7 updates
    /// that insert it: an `AddNode` or `AddEdge`, then its labels and
    /// properties.
    fn insertion(&self, row: &Tuple) -> Vec<Update> {
        let id = self.make_id(self.table, row, &self.key);
        let mut out = vec![match self.ends.as_slice() {
            [(s, sk), (t, tk)] => Update::AddEdge {
                id: id.clone(),
                src: self.make_id(s, row, sk),
                tgt: self.make_id(t, row, tk),
            },
            _ => Update::AddNode(id.clone()),
        }];
        for label in self.labels {
            out.push(Update::AddLabel(id.clone(), Value::str(label)));
        }
        for &(p, name) in &self.props {
            let value = row[p].clone();
            out.push(Update::SetProp(id.clone(), Value::str(name), value));
        }
        out
    }
}

/// Registered tables and graphs.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Vec<String>>,
    graphs: BTreeMap<String, CreateGraph>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers a base table's column names.
    pub fn define_table(&mut self, ct: &CreateTable) {
        self.tables.insert(ct.name.clone(), ct.columns.clone());
    }

    /// Column names of a registered table.
    pub fn table_columns(&self, name: &str) -> Result<&[String], CatalogError> {
        self.tables
            .get(name)
            .map(Vec::as_slice)
            .ok_or_else(|| CatalogError::UnknownTable(name.to_string()))
    }

    /// Registers a property graph definition after validating every
    /// table, column, and reference it mentions.
    pub fn define_graph(&mut self, cg: &CreateGraph) -> Result<(), CatalogError> {
        for nt in &cg.node_tables {
            self.positions(&nt.table, &nt.key)?;
            self.positions(&nt.table, &nt.properties)?;
        }
        for et in &cg.edge_tables {
            self.positions(&et.table, &et.key)?;
            self.positions(&et.table, &et.source_key)?;
            self.positions(&et.table, &et.target_key)?;
            self.positions(&et.table, &et.properties)?;
            for (reference, key) in [
                (&et.source_ref, &et.source_key),
                (&et.target_ref, &et.target_key),
            ] {
                let node = cg
                    .node_tables
                    .iter()
                    .find(|nt| &nt.table == reference)
                    .ok_or_else(|| CatalogError::UnknownReference {
                        edge_table: et.table.clone(),
                        referenced: reference.clone(),
                    })?;
                if node.key.len() != key.len() {
                    return Err(CatalogError::KeyLengthMismatch {
                        edge_table: et.table.clone(),
                        found: key.len(),
                        expected: node.key.len(),
                    });
                }
            }
        }
        self.graphs.insert(cg.name.clone(), cg.clone());
        Ok(())
    }

    /// The positions of `cols` among `table`'s declared columns.
    fn positions(&self, table: &str, cols: &[String]) -> Result<Vec<usize>, CatalogError> {
        let columns = self.table_columns(table)?;
        let position = |c: &String| columns.iter().position(|x| x == c);
        cols.iter()
            .map(|c| {
                position(c).ok_or_else(|| CatalogError::UnknownColumn {
                    table: table.to_string(),
                    column: c.clone(),
                })
            })
            .collect()
    }

    /// A registered graph definition.
    pub fn graph(&self, name: &str) -> Result<&CreateGraph, CatalogError> {
        self.graphs
            .get(name)
            .ok_or_else(|| CatalogError::UnknownGraph(name.to_string()))
    }

    /// The uniform identifier arity of a graph:
    /// `1 + max key length` (module docs).
    pub fn id_arity(&self, graph: &str) -> Result<usize, CatalogError> {
        let cg = self.graph(graph)?;
        let max_key = cg
            .node_tables
            .iter()
            .map(|nt| nt.key.len())
            .chain(cg.edge_tables.iter().map(|et| et.key.len()))
            .max()
            .unwrap_or(0);
        Ok(1 + max_key)
    }

    /// Names of every registered property graph, in name order.
    pub fn graph_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.graphs.keys().map(String::as_str)
    }

    /// The graphs with an element table over `table`, in name order.
    pub fn graphs_over(&self, table: &str) -> Vec<String> {
        let over = |cg: &CreateGraph| {
            cg.node_tables.iter().any(|nt| nt.table == table)
                || cg.edge_tables.iter().any(|et| et.table == table)
        };
        self.graphs
            .values()
            .filter(|cg| over(cg))
            .map(|cg| cg.name.clone())
            .collect()
    }

    /// Materializes the six canonical relations of a graph from the base
    /// tables stored in `db`: the union of every row's insertion.
    pub fn view_relations(
        &self,
        graph: &str,
        db: &Database,
    ) -> Result<ViewRelations, CatalogError> {
        let k = self.id_arity(graph)?;
        let [mut nodes, mut edges, mut src, mut tgt, mut labels, mut props] =
            pgq_graph::shape(k).map(Relation::empty);
        let ins = |rel: &mut Relation, t: Tuple| {
            rel.insert(t).expect("arity fixed by construction");
        };
        for map in self.row_maps(graph, db)? {
            for update in map.rows.iter().flat_map(|row| map.insertion(row)) {
                match update {
                    Update::AddNode(id) => ins(&mut nodes, id),
                    Update::AddEdge { id, src: s, tgt: t } => {
                        ins(&mut src, id.concat(&s));
                        ins(&mut tgt, id.concat(&t));
                        ins(&mut edges, id);
                    }
                    Update::AddLabel(id, l) => ins(&mut labels, id.concat(&Tuple::unary(l))),
                    Update::SetProp(id, key, v) => {
                        ins(&mut props, id.concat(&Tuple::new(vec![key, v])));
                    }
                    // An insertion holds nothing else.
                    _ => {}
                }
            }
        }
        Ok(ViewRelations::new(nodes, edges, src, tgt, labels, props))
    }

    /// The Section 7 updates that carry one row inserted into (deleted
    /// from) `table` over to `graph`'s view of `db` after the change:
    /// the row's insertion, or its identifier's removal. `None` where
    /// that cannot be exact: the graph's tables do not resolve, it maps
    /// `table` twice, or another row still yields a deleted identifier
    /// (an inserted one is then in the view, and `AddNode`/`AddEdge`
    /// reject it).
    pub fn row_delta(
        &self,
        graph: &str,
        db: &Database,
        table: &str,
        row: &Tuple,
        delete: bool,
    ) -> Option<Vec<Update>> {
        let maps = self.row_maps(graph, db).ok()?;
        let [map] = &maps.iter().filter(|m| m.table == table).collect::<Vec<_>>()[..] else {
            return None;
        };
        if !delete {
            return Some(map.insertion(row));
        }
        // Within one table, the same key is the same identifier.
        let same_key = |other: &Tuple| map.key.iter().all(|&p| other[p] == row[p]);
        if map.rows.iter().any(same_key) {
            return None;
        }
        let id = map.make_id(table, row, &map.key);
        Some(vec![match map.ends.is_empty() {
            true => Update::RemoveNode(id),
            false => Update::RemoveEdge(id),
        }])
    }

    /// Every element table of a graph, node tables first, resolved
    /// against its declared columns and its rows in `db`. Definition
    /// 3.1's relations are row-local: [`Catalog::view_relations`] folds
    /// these maps over all rows, [`Catalog::row_delta`] applies one.
    fn row_maps<'a>(
        &'a self,
        graph: &str,
        db: &'a Database,
    ) -> Result<Vec<RowMap<'a>>, CatalogError> {
        let cg = self.graph(graph)?;
        let k = self.id_arity(graph)?;
        let nodes = cg
            .node_tables
            .iter()
            .map(|nt| (&nt.table, &nt.key, vec![], &nt.labels, &nt.properties));
        let edges = cg.edge_tables.iter().map(|et| {
            let ends = vec![
                (&et.source_ref, &et.source_key),
                (&et.target_ref, &et.target_key),
            ];
            (&et.table, &et.key, ends, &et.labels, &et.properties)
        });
        let mut maps = Vec::with_capacity(cg.node_tables.len() + cg.edge_tables.len());
        for (table, key, ends, labels, properties) in nodes.chain(edges) {
            let columns = self.table_columns(table)?;
            let rows = db
                .get(&table.as_str().into())
                .ok_or_else(|| CatalogError::UnknownTable(table.clone()))?;
            if rows.arity() != columns.len() {
                return Err(CatalogError::TableArity {
                    table: table.clone(),
                    declared: columns.len(),
                    stored: rows.arity(),
                });
            }
            // A table redefined after the graph was validated against it
            // must surface a typed error, not panic.
            let positions = |cols: &[String]| self.positions(table, cols);
            let key = positions(key)?;
            let ends = ends
                .into_iter()
                .map(|(node, cols)| Ok((node.as_str(), positions(cols)?)))
                .collect::<Result<_, _>>()?;
            let props = positions(properties)?.into_iter().zip(properties).collect();
            maps.push(RowMap {
                table,
                rows,
                k,
                key,
                ends,
                labels,
                props,
            });
        }
        Ok(maps)
    }

    /// Builds the property graph (the `pgView` application). Strict mode
    /// surfaces dangling references (an edge whose endpoint key matches
    /// no node row) as typed errors; lenient mode drops such edges.
    pub fn build_graph(
        &self,
        graph: &str,
        db: &Database,
        mode: ViewMode,
    ) -> Result<PropertyGraph, CatalogError> {
        let rels = self.view_relations(graph, db)?;
        let k = self.id_arity(graph)?;
        pg_view_exact(k, &rels, mode).map_err(|e| CatalogError::View(e.to_string()))
    }

    /// Resolves a bare column name against every element table of the
    /// graph: a key column resolves to an identifier component, a
    /// property name to a property lookup. Conflicting resolutions are
    /// ambiguous.
    pub fn resolve_column(
        &self,
        graph: &str,
        column: &str,
    ) -> Result<ColumnResolution, CatalogError> {
        let cg = self.graph(graph)?;
        let mut found: Option<ColumnResolution> = None;
        let mut record = |r: ColumnResolution| -> Result<(), CatalogError> {
            match found {
                None => {
                    found = Some(r);
                    Ok(())
                }
                Some(existing) if existing == r => Ok(()),
                Some(_) => Err(CatalogError::AmbiguousColumn(column.to_string())),
            }
        };
        for (keys, properties) in cg
            .node_tables
            .iter()
            .map(|nt| (&nt.key, &nt.properties))
            .chain(cg.edge_tables.iter().map(|et| (&et.key, &et.properties)))
        {
            if let Some(i) = keys.iter().position(|c| c == column) {
                record(ColumnResolution::Component(1 + i))?;
            }
            if properties.iter().any(|p| p == column) {
                record(ColumnResolution::Property)?;
            }
        }
        found.ok_or_else(|| CatalogError::UnresolvedColumn(column.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::parser::{parse_script, parse_statement};
    use pgq_value::tuple;

    fn setup() -> (Catalog, Database) {
        let mut cat = Catalog::new();
        let script = r"
            CREATE TABLE Account (iban);
            CREATE TABLE Transfer (t_id, src_iban, tgt_iban, ts, amount);
            CREATE PROPERTY GRAPH Transfers (
              NODES TABLE Account KEY (iban) LABEL Account,
              EDGES TABLE Transfer KEY (t_id)
                SOURCE KEY src_iban REFERENCES Account
                TARGET KEY tgt_iban REFERENCES Account
                LABELS Transfer PROPERTIES (ts, amount));
        ";
        for stmt in parse_script(script).unwrap() {
            match stmt {
                Statement::CreateTable(ct) => cat.define_table(&ct),
                Statement::CreateGraph(cg) => cat.define_graph(&cg).unwrap(),
                _ => panic!(),
            }
        }
        let mut db = Database::new();
        db.insert("Account", tuple!["IL1"]).unwrap();
        db.insert("Account", tuple!["IL2"]).unwrap();
        db.insert("Account", tuple!["IL3"]).unwrap();
        db.insert("Transfer", tuple![1, "IL1", "IL2", 10, 500])
            .unwrap();
        db.insert("Transfer", tuple![2, "IL2", "IL3", 11, 250])
            .unwrap();
        (cat, db)
    }

    #[test]
    fn id_arity_is_one_plus_max_key() {
        let (cat, _) = setup();
        assert_eq!(cat.id_arity("Transfers").unwrap(), 2);
    }

    #[test]
    fn builds_example_1_1_graph() {
        let (cat, db) = setup();
        let g = cat.build_graph("Transfers", &db, ViewMode::Strict).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        let t1 = Tuple::new(vec![Value::str("Transfer"), Value::int(1)]);
        assert_eq!(
            g.src(&t1),
            Some(&Tuple::new(vec![Value::str("Account"), Value::str("IL1")]))
        );
        assert!(g.has_label(&t1, &Value::str("Transfer")));
        assert_eq!(g.prop(&t1, &Value::str("amount")), Some(&Value::int(500)));
        let a = Tuple::new(vec![Value::str("Account"), Value::str("IL1")]);
        assert!(g.has_label(&a, &Value::str("Account")));
    }

    #[test]
    fn dangling_reference_strict_vs_lenient() {
        let (cat, mut db) = setup();
        db.insert("Transfer", tuple![3, "IL1", "GHOST", 12, 1])
            .unwrap();
        assert!(matches!(
            cat.build_graph("Transfers", &db, ViewMode::Strict),
            Err(CatalogError::View(_))
        ));
        let g = cat
            .build_graph("Transfers", &db, ViewMode::Lenient)
            .unwrap();
        assert_eq!(g.edge_count(), 2); // ghost edge dropped
    }

    #[test]
    fn validation_errors() {
        let mut cat = Catalog::new();
        cat.define_table(&CreateTable {
            name: "A".into(),
            columns: vec!["k".into()],
        });
        // Unknown table in graph definition.
        let Statement::CreateGraph(bad) =
            parse_statement("CREATE PROPERTY GRAPH G (NODES TABLE Missing KEY (k))").unwrap()
        else {
            panic!()
        };
        assert!(matches!(
            cat.define_graph(&bad),
            Err(CatalogError::UnknownTable(_))
        ));
        // Unknown column.
        let Statement::CreateGraph(bad) =
            parse_statement("CREATE PROPERTY GRAPH G (NODES TABLE A KEY (nope))").unwrap()
        else {
            panic!()
        };
        assert!(matches!(
            cat.define_graph(&bad),
            Err(CatalogError::UnknownColumn { .. })
        ));
        // Dangling REFERENCES.
        cat.define_table(&CreateTable {
            name: "E".into(),
            columns: vec!["id".into(), "s".into(), "t".into()],
        });
        let Statement::CreateGraph(bad) = parse_statement(
            "CREATE PROPERTY GRAPH G (
               NODES TABLE A KEY (k),
               EDGES TABLE E KEY (id) SOURCE KEY s REFERENCES Zed
                 TARGET KEY t REFERENCES A)",
        )
        .unwrap() else {
            panic!()
        };
        assert!(matches!(
            cat.define_graph(&bad),
            Err(CatalogError::UnknownReference { .. })
        ));
    }

    #[test]
    fn table_arity_checked_at_materialization() {
        let (cat, mut db) = setup();
        db.add_relation("Account", Relation::empty(3));
        assert!(matches!(
            cat.view_relations("Transfers", &db),
            Err(CatalogError::TableArity { .. })
        ));
    }

    /// Redefining a table after a graph was validated against it must
    /// surface a typed `UnknownColumn` at materialization — the PR 5
    /// fix for the `expect("validated")` panic.
    #[test]
    fn redefined_table_errors_instead_of_panicking() {
        let (mut cat, mut db) = setup();
        // `Transfer` loses the columns the graph's edge table keys on.
        cat.define_table(&CreateTable {
            name: "Transfer".into(),
            columns: vec!["t_id".into(), "note".into()],
        });
        db.add_relation("Transfer", Relation::empty(2));
        let err = cat.view_relations("Transfers", &db).unwrap_err();
        assert!(
            matches!(
                &err,
                CatalogError::UnknownColumn { table, column }
                    if table == "Transfer" && column == "src_iban"
            ),
            "{err}"
        );
        assert!(matches!(
            cat.build_graph("Transfers", &db, ViewMode::Strict),
            Err(CatalogError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn column_resolution() {
        let (cat, _) = setup();
        assert_eq!(
            cat.resolve_column("Transfers", "iban").unwrap(),
            ColumnResolution::Component(1)
        );
        assert_eq!(
            cat.resolve_column("Transfers", "amount").unwrap(),
            ColumnResolution::Property
        );
        assert!(matches!(
            cat.resolve_column("Transfers", "nope"),
            Err(CatalogError::UnresolvedColumn(_))
        ));
        // t_id is the Transfer key: component 1 as well (no conflict,
        // same resolution shape as iban).
        assert_eq!(
            cat.resolve_column("Transfers", "t_id").unwrap(),
            ColumnResolution::Component(1)
        );
    }

    #[test]
    fn unknown_graph() {
        let (cat, db) = setup();
        assert!(matches!(
            cat.build_graph("Nope", &db, ViewMode::Strict),
            Err(CatalogError::UnknownGraph(_))
        ));
    }
}
