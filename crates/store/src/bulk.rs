//! Zero-materialization bulk ingestion (PR 9).
//!
//! The register route — build a [`Database`] of `BTreeSet` relations,
//! [`crate::Store::register_database`], then
//! [`crate::Store::register_view_graph`] — materializes every row as a
//! [`Tuple`] of cloned [`Value`]s at least twice before a single code
//! is minted, and re-validates the `pgView` conditions the generator
//! already guarantees. At 10⁶ nodes / 10⁷ edges that intermediate
//! materialization dominates the load. [`Store::bulk_load`] goes
//! straight from generator output ([`BulkGraph`]: flat value vectors
//! plus index-typed edge endpoints) to the store's physical layout:
//!
//! * **one** atomic [`crate::Dictionary::bulk_intern_refs`] pass over
//!   every value stream (morsel-parallel probe, pre-sized append — no
//!   re-hash storms, nothing minted on a limit failure);
//! * columnar relations assembled column-by-column from code slices
//!   ([`crate::ColumnarRelation::from_codes`]), with no probe index —
//!   as on the register route, the writer's first probe of a relation
//!   builds that relation's;
//! * forward/reverse CSR built sort-based from pair vectors
//!   ([`crate::CsrIndex::from_dense_pairs`]); the graph's one index
//!   reuses the generator's dense node indexes outright, so the node
//!   universe is contiguous and the id map costs zero bytes;
//! * no active-domain relation: like every store, a loaded one derives
//!   [`crate::ADOM_REL`] from its live rows only when a reader asks.
//!
//! Equivalence with the register route — same query answers at thread
//! counts {1, 2, 8} — is held by the differential
//! suite (`tests/prop_store.rs`); its cost is `embed_scale.setup_s` /
//! `pgq-store.bulk_load_s` in `BENCHMARK.json`.

use crate::column::ColumnarRelation;
use crate::csr::CsrIndex;
use crate::error::{GraphForm, StoreError};
use crate::graph::GraphEntry;
use crate::report::MemoryBytes;
use crate::store::{CsrWithDelta, Store};
use pgq_graph::{shape, ViewRelations};
use pgq_relational::{Database, RelName, Relation};
use pgq_value::{Tuple, Value};
use std::collections::HashSet;
use std::sync::Arc;

/// A property graph in generator layout: flat identifier vectors and
/// index-typed structure, the input of [`Store::bulk_load`]. Edge
/// endpoints, labels and properties refer to nodes/edges **by position**
/// in [`BulkGraph::nodes`] / [`BulkGraph::edges`] — the generator's
/// dense ids double as the store's CSR node universe, so no
/// re-densification happens at load time.
///
/// Invariants (the well-formedness `pgView` would otherwise validate;
/// generators satisfy them by construction, and [`Store::bulk_load`]
/// checks the cheap ones):
///
/// * node identifiers are pairwise distinct, edge identifiers are
///   pairwise distinct, and the two id spaces are disjoint;
/// * every index in [`BulkGraph::src`] / [`BulkGraph::tgt`] /
///   [`BulkGraph::labels`] / property owners is in range;
/// * label and property rows are set-unique (no duplicate
///   `(edge, label)` or `(owner, key, value)` entries).
#[derive(Debug, Clone, Default)]
pub struct BulkGraph {
    /// Node identifiers; position = dense node id.
    pub nodes: Vec<Value>,
    /// Edge identifiers; position = edge index.
    pub edges: Vec<Value>,
    /// Per-edge source node index (`src.len() == edges.len()`).
    pub src: Vec<u32>,
    /// Per-edge target node index (`tgt.len() == edges.len()`).
    pub tgt: Vec<u32>,
    /// `(edge index, label)` rows.
    pub labels: Vec<(u32, Value)>,
    /// `(node index, key, value)` property rows.
    pub node_props: Vec<(u32, Value, Value)>,
    /// `(edge index, key, value)` property rows.
    pub edge_props: Vec<(u32, Value, Value)>,
}

impl BulkGraph {
    /// An empty graph.
    pub fn new() -> Self {
        BulkGraph::default()
    }

    /// Appends a node, returning its dense index.
    pub fn add_node(&mut self, id: impl Into<Value>) -> u32 {
        self.nodes.push(id.into());
        (self.nodes.len() - 1) as u32
    }

    /// Appends an edge between node indexes, returning its edge index.
    pub fn add_edge(&mut self, id: impl Into<Value>, src: u32, tgt: u32) -> u32 {
        self.edges.push(id.into());
        self.src.push(src);
        self.tgt.push(tgt);
        (self.edges.len() - 1) as u32
    }

    /// Total row count across the six canonical relations.
    pub fn row_count(&self) -> usize {
        self.nodes.len()
            + 3 * self.edges.len()
            + self.labels.len()
            + self.node_props.len()
            + self.edge_props.len()
    }

    /// The same graph as a canonical six-relation [`Database`] under
    /// the given view names — the **register route** the differential
    /// suite and the scaling benches compare [`Store::bulk_load`]
    /// against. Deliberately materializes every row.
    pub fn to_database(&self, views: &[RelName; 6]) -> Database {
        let mut db = Database::new();
        for (name, arity) in views.iter().zip([1, 1, 2, 2, 2, 3]) {
            db.add_relation(name.clone(), Relation::empty(arity));
        }
        let mut put = |view: usize, row: Vec<Value>| {
            db.insert(views[view].clone(), Tuple::new(row))
                .expect("rows have the arities declared above");
        };
        for n in &self.nodes {
            put(0, vec![n.clone()]);
        }
        for (i, e) in self.edges.iter().enumerate() {
            put(1, vec![e.clone()]);
            put(2, vec![e.clone(), self.nodes[self.src[i] as usize].clone()]);
            put(3, vec![e.clone(), self.nodes[self.tgt[i] as usize].clone()]);
        }
        for (e, l) in &self.labels {
            put(4, vec![self.edges[*e as usize].clone(), l.clone()]);
        }
        for (n, k, v) in &self.node_props {
            put(
                5,
                vec![self.nodes[*n as usize].clone(), k.clone(), v.clone()],
            );
        }
        for (e, k, v) in &self.edge_props {
            put(
                5,
                vec![self.edges[*e as usize].clone(), k.clone(), v.clone()],
            );
        }
        db
    }

    /// Structural validation: index vectors sized and in range. The
    /// distinctness invariants are checked against interned codes in
    /// [`Store::bulk_load`] (codes make it O(n) hashes of `u32`s, not
    /// values).
    ///
    /// # Panics
    ///
    /// On a malformed graph — out-of-range indexes are generator bugs,
    /// not data-dependent conditions.
    fn check_shape(&self) {
        let n = self.nodes.len() as u64;
        let m = self.edges.len() as u64;
        assert_eq!(self.src.len(), self.edges.len(), "src per edge");
        assert_eq!(self.tgt.len(), self.edges.len(), "tgt per edge");
        assert!(
            self.src.iter().chain(&self.tgt).all(|&i| (i as u64) < n),
            "edge endpoint index out of range"
        );
        assert!(
            self.labels.iter().all(|&(e, _)| (e as u64) < m),
            "label edge index out of range"
        );
        assert!(
            self.node_props.iter().all(|&(i, _, _)| (i as u64) < n),
            "node property index out of range"
        );
        assert!(
            self.edge_props.iter().all(|&(e, _, _)| (e as u64) < m),
            "edge property index out of range"
        );
    }
}

/// What one [`Store::bulk_load`] did — the numbers the scaling benches
/// record next to their timings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BulkLoadStats {
    /// Nodes loaded.
    pub nodes: usize,
    /// Edges loaded.
    pub edges: usize,
    /// Rows across the six relations.
    pub rows: usize,
    /// Fresh dictionary codes this load minted.
    pub codes_minted: usize,
    /// Estimated post-load resident bytes by component.
    pub bytes: MemoryBytes,
}

impl Store {
    /// Bulk-loads `g` as the store's catalog: the six canonical
    /// relations under `views` (columnar, CSR-indexed where binary) and
    /// a frozen graph entry under `graph_name` — equivalent to registering
    /// [`BulkGraph::to_database`] via [`Store::register_database`] +
    /// [`Store::register_view_graph`], but built **directly** from the
    /// generator layout with no intermediate row materialization and no
    /// re-validation of invariants the generator guarantees (see
    /// [`BulkGraph`]; like `register_database`, previously registered
    /// relations and graphs are replaced, while the append-only
    /// dictionary is retained).
    ///
    /// `threads` bounds the workers of the morsel-parallel interning
    /// probe; `1` loads fully sequentially.
    ///
    /// # Errors
    ///
    /// [`StoreError::View`] when `form` does not admit the bulk graph's
    /// unary identifiers (the error its `pgView` raises on them),
    /// [`StoreError::NodeUniverseFull`] when the node count exceeds the
    /// dense-id space and [`StoreError::DictionaryFull`] when the
    /// distinct values would exceed the dictionary limit — all
    /// **atomic**: checked (or enforced by the all-or-nothing intern
    /// pass) before any store structure changes, so a failed load
    /// leaves the store exactly as it was.
    ///
    /// # Panics
    ///
    /// On a structurally malformed `g` (out-of-range indexes,
    /// duplicate identifiers) — generator bugs, not data-dependent
    /// conditions.
    pub fn bulk_load(
        &mut self,
        graph_name: impl Into<String>,
        views: [RelName; 6],
        form: GraphForm,
        g: &BulkGraph,
        threads: usize,
    ) -> Result<BulkLoadStats, StoreError> {
        self.bulk_load_bounded(graph_name, views, form, g, threads, CsrIndex::MAX_NODES)
    }

    /// [`Store::bulk_load`] with an explicit node-universe ceiling, so
    /// the boundary tests exercise [`StoreError::NodeUniverseFull`]
    /// without 2³² nodes.
    fn bulk_load_bounded(
        &mut self,
        graph_name: impl Into<String>,
        views: [RelName; 6],
        form: GraphForm,
        g: &BulkGraph,
        threads: usize,
        node_limit: usize,
    ) -> Result<BulkLoadStats, StoreError> {
        g.check_shape();
        // A bulk graph has unary identifiers: the form must admit them.
        form.view(&ViewRelations::from(shape(1).map(Relation::empty)))?;
        self.derived.invalidate();
        let (n, m) = (g.nodes.len(), g.edges.len());
        // Fail before touching anything: atomicity by ordering.
        if n > node_limit {
            return Err(StoreError::NodeUniverseFull { limit: node_limit });
        }
        // ---- Intern every value stream in one atomic pass. ----------
        let mut stream: Vec<&Value> = Vec::with_capacity(
            n + m + g.labels.len() + 2 * (g.node_props.len() + g.edge_props.len()),
        );
        stream.extend(g.nodes.iter());
        stream.extend(g.edges.iter());
        stream.extend(g.labels.iter().map(|(_, l)| l));
        for (_, k, v) in &g.node_props {
            stream.push(k);
            stream.push(v);
        }
        for (_, k, v) in &g.edge_props {
            stream.push(k);
            stream.push(v);
        }
        let before = self.dict.len();
        let codes = self.dict.bulk_intern_refs(&stream, threads)?;
        self.dict.fold();
        drop(stream);
        let node_codes = &codes[..n];
        let edge_codes = &codes[n..n + m];
        let label_codes = &codes[n + m..n + m + g.labels.len()];
        let prop_codes = &codes[n + m + g.labels.len()..];
        // Distinctness invariants, now O(1)-hash cheap on codes: the
        // dictionary is injective, so distinct codes ⇔ distinct values.
        {
            let mut seen: HashSet<u32> = HashSet::with_capacity(n + m);
            assert!(
                node_codes.iter().chain(edge_codes).all(|&c| seen.insert(c)),
                "bulk graph identifiers must be distinct (nodes ∪ edges)"
            );
        }
        // ---- Columnar relations (no probe index: first probe builds).
        let n_col = ColumnarRelation::from_codes(1, vec![node_codes.to_vec()]);
        let e_col = ColumnarRelation::from_codes(1, vec![edge_codes.to_vec()]);
        let src_codes: Vec<u32> = g.src.iter().map(|&i| node_codes[i as usize]).collect();
        let tgt_codes: Vec<u32> = g.tgt.iter().map(|&i| node_codes[i as usize]).collect();
        let s_col = ColumnarRelation::from_codes(2, vec![edge_codes.to_vec(), src_codes]);
        let t_col = ColumnarRelation::from_codes(2, vec![edge_codes.to_vec(), tgt_codes]);
        let l_edge: Vec<u32> = g
            .labels
            .iter()
            .map(|&(e, _)| edge_codes[e as usize])
            .collect();
        let l_col = ColumnarRelation::from_codes(2, vec![l_edge, label_codes.to_vec()]);
        let owners = g
            .node_props
            .iter()
            .map(|(i, _, _)| node_codes[*i as usize])
            .chain(g.edge_props.iter().map(|(e, _, _)| edge_codes[*e as usize]));
        let key_value = prop_codes.chunks_exact(2);
        let p_col = ColumnarRelation::from_codes(
            3,
            vec![
                owners.collect(),
                key_value.clone().map(|kv| kv[0]).collect(),
                key_value.map(|kv| kv[1]).collect(),
            ],
        );
        // ---- Relation-level CSR for the binary relations. -----------
        let s_csr = CsrWithDelta::of_relation(&s_col)?;
        let t_csr = CsrWithDelta::of_relation(&t_col)?;
        let l_csr = CsrWithDelta::of_relation(&l_col)?;
        // ---- Graph entry: the generator's indexes ARE the dense ids.
        let dense: Vec<u32> = (0..n as u32).collect();
        let pairs: Vec<(u32, u32)> = g.src.iter().copied().zip(g.tgt.iter().copied()).collect();
        let node_csr = CsrIndex::from_dense_pairs(dense, pairs)?;
        let ids: Vec<Tuple> = g.nodes.iter().map(|v| Tuple::unary(v.clone())).collect();
        let entry = GraphEntry::from_parts(views.clone(), 1, ids, Arc::new(node_csr), m);
        // ---- Commit: everything built, nothing left that can fail. --
        let [nn, en, sn, tn, ln, pn] = views;
        self.relations.clear();
        self.adjacency.clear();
        self.graphs.clear();
        let rows = g.row_count();
        for (name, col) in [
            (nn, n_col),
            (en, e_col),
            (sn.clone(), s_col),
            (tn.clone(), t_col),
            (ln.clone(), l_col),
            (pn, p_col),
        ] {
            self.relations.insert(name, Arc::new(col));
        }
        for (name, csr) in [(sn, s_csr), (tn, t_csr), (ln, l_csr)] {
            self.adjacency.insert(name, csr);
        }
        self.graphs.insert(graph_name.into(), entry);
        Ok(BulkLoadStats {
            nodes: n,
            edges: m,
            rows,
            codes_minted: self.dict.len() - before,
            bytes: self.memory_bytes(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::tests::reach;
    use pgq_graph::{Update, UpdateError};

    fn views() -> [RelName; 6] {
        ["N", "E", "S", "T", "L", "P"].map(Into::into)
    }

    /// A small two-label graph with node and edge properties.
    fn sample() -> BulkGraph {
        let mut g = BulkGraph::new();
        let a = g.add_node(Value::str("a"));
        let b = g.add_node(Value::str("b"));
        let c = g.add_node(Value::str("c"));
        let e1 = g.add_edge(Value::int(1), a, b);
        let e2 = g.add_edge(Value::int(2), b, c);
        g.labels.push((e1, Value::str("Knows")));
        g.labels.push((e2, Value::str("Likes")));
        g.node_props.push((a, Value::str("age"), Value::int(30)));
        g.edge_props
            .push((e2, Value::str("since"), Value::int(2020)));
        g
    }

    #[test]
    fn bulk_load_matches_the_register_route() {
        let g = sample();
        let mut bulk = Store::new();
        let stats = bulk
            .bulk_load("G", views(), GraphForm::Exact(1), &g, 2)
            .unwrap();
        assert_eq!((stats.nodes, stats.edges), (3, 2));
        assert_eq!(stats.rows, g.row_count());
        assert!(stats.bytes.total() > 0);

        let db = g.to_database(&views());
        let mut reg = Store::from_database(&db);
        reg.register_view_graph("G", views(), &db, GraphForm::Exact(1))
            .unwrap();
        for (name, _) in db.iter() {
            let a = Relation::from_rows(
                bulk.scan(name).unwrap().first().map_or(1, Tuple::arity),
                bulk.scan(name).unwrap(),
            )
            .unwrap();
            let b = Relation::from_rows(
                reg.scan(name).unwrap().first().map_or(1, Tuple::arity),
                reg.scan(name).unwrap(),
            )
            .unwrap();
            assert_eq!(a, b, "{name}");
        }
        let (bg, rg) = (bulk.graph("G").unwrap(), reg.graph("G").unwrap());
        assert_eq!(bg.node_count(), rg.node_count());
        assert_eq!(bg.edge_count(), rg.edge_count());
        assert_eq!(reach(bg), reach(rg));
    }

    /// `memory_bytes().csr` is exactly the indexes the API can reach:
    /// one per binary relation plus one per graph — by either route, a
    /// hidden per-anything copy would break the sum.
    #[test]
    fn csr_bytes_count_one_index_per_relation_and_one_per_graph() {
        let g = sample();
        let mut bulk = Store::new();
        bulk.bulk_load("G", views(), GraphForm::Exact(1), &g, 1)
            .unwrap();
        let db = g.to_database(&views());
        let mut reg = Store::from_database(&db);
        reg.register_view_graph("G", views(), &db, GraphForm::Exact(1))
            .unwrap();
        for store in [&bulk, &reg] {
            let relations: usize = views()
                .iter()
                .filter_map(|v| store.adjacency(v))
                .map(|a| a.base().resident_bytes())
                .sum();
            let graph = store.graph("G").unwrap().adjacency().base();
            assert_eq!(store.memory_bytes().csr, relations + graph.resident_bytes());
        }
    }

    #[test]
    fn bulk_load_node_limit_is_atomic() {
        let g = sample();
        let mut s = Store::new();
        let before = s.dict().len();
        assert!(matches!(
            s.bulk_load_bounded("G", views(), GraphForm::Exact(1), &g, 1, 2),
            Err(StoreError::NodeUniverseFull { limit: 2 })
        ));
        assert_eq!(s.dict().len(), before);
        assert!(s.scan(&"N".into()).is_none());
        assert!(s.graph("G").is_none());
    }

    /// A bulk graph has unary identifiers: a form that admits them
    /// loads, any other fails as `pgView` fails on unary relations, and
    /// leaves the store as it was.
    #[test]
    fn bulk_load_checks_the_form_admits_unary_identifiers() {
        let g = sample();
        for form in [GraphForm::Exact(1), GraphForm::Bounded(3), GraphForm::Ext] {
            let mut s = Store::new();
            s.bulk_load("G", views(), form, &g, 1).unwrap();
            assert_eq!(s.graph("G").unwrap().node_count(), 3, "{form:?}");
        }
        for form in [GraphForm::Exact(2), GraphForm::Bounded(0)] {
            let mut s = Store::new();
            assert!(
                matches!(
                    s.bulk_load("G", views(), form, &g, 1),
                    Err(StoreError::View(_))
                ),
                "{form:?}"
            );
            assert_eq!(s.dict().len(), 0);
            assert!(s.graph("G").is_none());
        }
    }

    #[test]
    fn bulk_load_dict_limit_is_atomic() {
        let g = sample();
        let mut s = Store::with_dict_limit(3);
        assert!(matches!(
            s.bulk_load("G", views(), GraphForm::Exact(1), &g, 2),
            Err(StoreError::DictionaryFull { limit: 3 })
        ));
        assert_eq!(s.dict().len(), 0);
        assert!(s.scan(&"N".into()).is_none());
        // The same graph loads fine with room to mint.
        let mut ok = Store::with_dict_limit(64);
        ok.bulk_load("G", views(), GraphForm::Exact(1), &g, 2)
            .unwrap();
        assert_eq!(ok.graph("G").unwrap().node_count(), 3);
    }

    #[test]
    fn loaded_relations_accept_updates() {
        // A load builds no probe index; the first update's probes
        // build the ones they need and stay correct.
        let g = sample();
        let mut s = Store::new();
        s.bulk_load("G", views(), GraphForm::Exact(1), &g, 1)
            .unwrap();
        let node = |v: &str| Tuple::unary(Value::str(v));
        s.apply_updates("G", std::slice::from_ref(&Update::AddNode(node("d"))))
            .unwrap();
        assert!(matches!(
            s.apply_updates("G", std::slice::from_ref(&Update::AddNode(node("a")))),
            Err(StoreError::Update(UpdateError::IdInUse(_)))
        ));
        s.apply_updates("G", std::slice::from_ref(&Update::RemoveNode(node("d"))))
            .unwrap();
        assert_eq!(s.scan(&"N".into()).unwrap().len(), 3);
        assert_eq!(s.graph("G").unwrap().node_count(), 3);
    }
}
