//! [`GraphEntry`]: the frozen index of one registered property graph —
//! interned identifiers plus **one** node-level CSR adjacency, read
//! through a delta overlay after updates. Labels and properties are
//! not indexed here: they are rows of the view's `L`/`P` relations.
//!
//! Both halves follow the store's one copy-on-write rule: an
//! `Arc`-shared frozen base (the identifier table's base, the CSR) plus
//! a small owned tail (nodes added since the freeze, the adjacency
//! delta), folded together by `GraphEntry::fold`. Cloning an entry —
//! what every published snapshot does — copies the tails only.

use crate::csr::{AdjacencyView, CsrIndex, DeltaAdjacency};
use crate::dict::Interner;
use crate::error::StoreError;
use crate::stats::AdjacencyStatistics;
use crate::store::overlay_oversized;
use pgq_graph::PropertyGraph;
use pgq_relational::RelName;
use pgq_value::Tuple;
use std::collections::HashSet;
use std::sync::Arc;

/// A property-graph index: interned identifiers plus one CSR adjacency
/// — frozen at registration, then maintained through a delta overlay by
/// `Store::apply_updates`.
#[derive(Debug, Clone)]
pub struct GraphEntry {
    views: [RelName; 6],
    id_arity: usize,
    /// Identifier tuple ↔ dense node id: the base is the frozen
    /// universe, the tail the nodes `AddNode` appended past it
    /// (tombstoned ids stay until a fold).
    ids: Interner<Tuple>,
    /// Dense ids of removed nodes.
    dead: HashSet<u32>,
    /// Node-level adjacency over dense ids (edge identities collapsed).
    /// `Arc`-shared so snapshot clones reuse the frozen index.
    csr: Arc<CsrIndex>,
    /// Post-freeze adjacency changes over the same dense id space.
    delta: DeltaAdjacency,
    /// `|E|` of the source graph, parallel edges counted.
    edge_count: usize,
}

impl GraphEntry {
    pub(crate) fn from_graph(g: &PropertyGraph, views: [RelName; 6]) -> Result<Self, StoreError> {
        if g.node_count() > CsrIndex::MAX_NODES {
            return Err(StoreError::NodeUniverseFull {
                limit: CsrIndex::MAX_NODES,
            });
        }
        let ids = Interner::from_keys(g.nodes().cloned().collect());
        let dense = |n: &Tuple| ids.get(n).expect("edge endpoints are nodes");
        let pairs: Vec<(u32, u32)> = g
            .edge_triples()
            .map(|(_, s, t)| (dense(s), dense(t)))
            .collect();
        Ok(GraphEntry {
            views,
            id_arity: g.id_arity(),
            csr: Arc::new(CsrIndex::build(0..ids.len() as u32, &pairs)?),
            delta: DeltaAdjacency::new(),
            edge_count: g.edge_count(),
            dead: HashSet::new(),
            ids,
        })
    }

    /// Assembles a frozen entry directly from bulk-loader output: node
    /// identifiers in dense-id order and the node-level CSR over that
    /// dense id space, overlay empty. The caller (the bulk loader) has
    /// already validated the pieces; this only derives the reverse
    /// identifier map.
    pub(crate) fn from_parts(
        views: [RelName; 6],
        id_arity: usize,
        ids: Vec<Tuple>,
        csr: Arc<CsrIndex>,
        edge_count: usize,
    ) -> Self {
        GraphEntry {
            views,
            id_arity,
            ids: Interner::from_keys(ids),
            dead: HashSet::new(),
            csr,
            delta: DeltaAdjacency::new(),
            edge_count,
        }
    }

    /// The six view relation names the graph was registered from.
    pub(crate) fn views(&self) -> &[RelName; 6] {
        &self.views
    }

    /// Identifier arity `k` of the frozen graph.
    pub fn id_arity(&self) -> usize {
        self.id_arity
    }

    /// `|N|` (live nodes).
    pub fn node_count(&self) -> usize {
        self.ids.len() - self.dead.len()
    }

    /// `|E|` (parallel edges counted; the adjacency collapses them).
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The node-level adjacency: frozen CSR read through the overlay.
    pub fn adjacency(&self) -> AdjacencyView<'_> {
        AdjacencyView::new(&self.csr, Some(&self.delta))
    }

    /// Overlay residency: delta pairs plus tombstoned and appended
    /// nodes — the numbers `STATS` reports and the fold threshold
    /// weighs.
    pub fn overlay_size(&self) -> usize {
        self.delta.change_count() + self.dead.len() + self.ids.tail_len()
    }

    /// Whether any read goes through an overlay.
    pub fn has_overlay(&self) -> bool {
        self.overlay_size() > 0
    }

    /// Degree histograms of the adjacency — the graph slice of
    /// [`crate::StatisticsReport`].
    pub(crate) fn statistics(&self) -> AdjacencyStatistics {
        AdjacencyStatistics::of(&self.csr, self.overlay_size())
    }

    /// Estimated resident bytes of the frozen CSR index — a
    /// [`crate::MemoryBytes`] component.
    pub fn csr_bytes(&self) -> usize {
        self.csr.resident_bytes()
    }

    /// Estimated resident bytes of the mutable overlay — a
    /// [`crate::MemoryBytes`] component.
    pub fn overlay_bytes(&self) -> usize {
        self.delta.resident_bytes()
    }

    pub(crate) fn overlay_oversized(&self) -> bool {
        overlay_oversized(
            self.overlay_size(),
            self.csr.edge_count().max(self.csr.node_count()),
        )
    }

    /// The identifier table: frozen base plus appended tail.
    #[cfg(test)]
    pub(crate) fn ids(&self) -> &Interner<Tuple> {
        &self.ids
    }

    /// Dense id of a **live** node.
    pub(crate) fn live_dense(&self, id: &Tuple) -> Option<u32> {
        self.ids.get(id).filter(|d| !self.dead.contains(d))
    }

    /// Registers a node identifier (revives a tombstoned one in place).
    pub(crate) fn add_node(&mut self, id: &Tuple) -> Result<(), StoreError> {
        if let Some(d) = self.ids.get(id) {
            self.dead.remove(&d);
            return Ok(());
        }
        if self.ids.len() >= CsrIndex::MAX_NODES {
            return Err(StoreError::NodeUniverseFull {
                limit: CsrIndex::MAX_NODES,
            });
        }
        self.ids.push(id.clone());
        Ok(())
    }

    /// Tombstones a node (the caller has removed its incident edges).
    pub(crate) fn remove_node(&mut self, id: &Tuple) {
        if let Some(d) = self.ids.get(id) {
            self.dead.insert(d);
        }
    }

    /// Records one more edge between the endpoints.
    pub(crate) fn add_edge(&mut self, src: &Tuple, tgt: &Tuple) {
        let (Some(ds), Some(dt)) = (self.live_dense(src), self.live_dense(tgt)) else {
            return; // endpoints validated upstream; defensive no-op
        };
        self.edge_count += 1;
        let in_base = self.csr.has_pair(ds, dt);
        self.delta.add(ds, dt, in_base);
    }

    /// Records one fewer edge; `last` says no other live edge connects
    /// the same endpoints, so the adjacency pair goes too.
    pub(crate) fn remove_edge(&mut self, src: &Tuple, tgt: &Tuple, last: bool) {
        self.edge_count = self.edge_count.saturating_sub(1);
        if !last {
            return;
        }
        if let (Some(ds), Some(dt)) = (self.ids.get(src), self.ids.get(tgt)) {
            let in_base = self.csr.has_pair(ds, dt);
            self.delta.remove(ds, dt, in_base);
        }
    }

    /// Folds the overlay back into a fresh CSR index: live nodes are
    /// re-densified in identifier order, effective pairs rebuild the
    /// index, and tombstones, appended ids and the delta are dropped.
    pub(crate) fn fold(&mut self) -> Result<(), StoreError> {
        if !self.has_overlay() {
            return Ok(());
        }
        let mut live: Vec<Tuple> = (0..self.ids.len() as u32)
            .filter(|d| !self.dead.contains(d))
            .map(|d| self.ids.key(d).clone())
            .collect();
        live.sort();
        let ids = Interner::from_keys(live);
        // Dead endpoints cannot carry effective pairs (updates remove
        // incident edges first); filter defensively all the same.
        let pairs: Vec<(u32, u32)> = self
            .adjacency()
            .effective_pairs()
            .into_iter()
            .filter_map(|(s, t)| Some((ids.get(self.ids.key(s))?, ids.get(self.ids.key(t))?)))
            .collect();
        self.csr = Arc::new(CsrIndex::build(0..ids.len() as u32, &pairs)?);
        self.delta = DeltaAdjacency::new();
        self.dead.clear();
        self.ids = ids;
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::error::GraphForm;
    use crate::store::tests::{chain_db, nid, registered_store, views};
    use crate::store::Store;
    use pgq_graph::Update;
    use pgq_relational::{Database, Relation};
    use pgq_value::{tuple, Value};

    /// The `≥ 1`-step reachability pairs `(s̄, t̄)` through the entry's
    /// adjacency — the frozen CSR read through the overlay — one sweep
    /// per live source.
    pub(crate) fn reach(entry: &GraphEntry) -> Relation {
        let view = entry.adjacency();
        let mut rows = Vec::new();
        for s in (0..entry.ids.len() as u32).filter(|s| !entry.dead.contains(s)) {
            let mut seeds = Vec::new();
            view.for_each_out(s, |t| seeds.push(t));
            let a = entry.ids.key(s);
            rows.extend(
                view.reach_from(seeds)
                    .into_iter()
                    .map(|t| a.concat(entry.ids.key(t))),
            );
        }
        Relation::from_rows(2 * entry.id_arity, rows).unwrap()
    }

    #[test]
    fn view_graph_registration_and_reachability() {
        let db = chain_db();
        let mut store = Store::from_database(&db);
        store
            .register_view_graph("G", views(), &db, GraphForm::Exact(1))
            .unwrap();
        let entry = store.graph("G").unwrap();
        assert_eq!(entry.node_count(), 4);
        assert_eq!(entry.edge_count(), 3);
        assert!(!entry.has_overlay());

        // ≥1-step pairs on the chain: 3+2+1.
        let plus = reach(entry);
        assert_eq!(plus.len(), 6);
        assert!(plus.contains(&tuple!["a", "d"]));

        // The planner's match point.
        assert!(store.graph_for_views(&views()).is_some());
        let mut other = views();
        other.swap(2, 3);
        assert!(store.graph_for_views(&other).is_none());
    }

    #[test]
    fn empty_graph_and_self_loops() {
        let mut db = Database::new();
        db.add_relation("N", Relation::empty(1));
        db.add_relation("E", Relation::empty(1));
        db.add_relation("S", Relation::empty(2));
        db.add_relation("T", Relation::empty(2));
        db.add_relation("L", Relation::empty(2));
        db.add_relation("P", Relation::empty(3));
        let mut store = Store::from_database(&db);
        store
            .register_view_graph("empty", views(), &db, GraphForm::Exact(1))
            .unwrap();
        let e = store.graph("empty").unwrap();
        assert_eq!(e.adjacency().edge_count(), 0);
        assert!(reach(e).is_empty());

        // Self loop: a →e→ a.
        db.insert("N", tuple!["a"]).unwrap();
        db.insert("E", tuple!["e"]).unwrap();
        db.insert("S", tuple!["e", "a"]).unwrap();
        db.insert("T", tuple!["e", "a"]).unwrap();
        let mut store = Store::from_database(&db);
        store
            .register_view_graph("loop", views(), &db, GraphForm::Exact(1))
            .unwrap();
        let e = store.graph("loop").unwrap();
        assert_eq!(
            reach(e),
            Relation::from_rows(2, [tuple!["a", "a"]]).unwrap()
        );
    }

    #[test]
    fn oversized_overlays_fold_back_into_fresh_csr() {
        let (_, mut store) = registered_store();
        // 40 new nodes chained onto "d": far past the 32-change fold
        // threshold, so the batch must leave no overlay behind.
        let mut updates = Vec::new();
        let mut prev = nid("d");
        for i in 0..40 {
            let n = Tuple::unary(Value::str(format!("n{i}")));
            updates.push(Update::AddNode(n.clone()));
            updates.push(Update::AddEdge {
                id: Tuple::unary(Value::str(format!("x{i}"))),
                src: prev.clone(),
                tgt: n.clone(),
            });
            prev = n;
        }
        store.apply_updates("G", &updates).unwrap();
        let entry = store.graph("G").unwrap();
        assert!(!entry.has_overlay(), "overlay should have folded");
        assert_eq!(entry.node_count(), 44);
        assert_eq!(entry.edge_count(), 43);
        // Reachability from "a" spans the whole chain.
        assert!(reach(entry).contains(&tuple!["a", "n39"]));
    }
}
