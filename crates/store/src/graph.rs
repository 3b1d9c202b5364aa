//! [`GraphEntry`]: one registered property graph — the six view
//! relations of Definition 3.1 it was registered over, by name and by
//! `Arc` handle, and its identifier arity `k`. Nothing else is stored:
//! the graph *is* its relations, which the writer edits.
//!
//! Its node index — one CSR over dense node ids, edge identities
//! collapsed — is derived data, like the active domain and the planner
//! statistics: the first reader of a state builds it from the live rows
//! of `N`, `S` and `T`, and it is cached with that state (a bulk load
//! fills the cache with the index it builds). Only `STATS` and
//! library sweeps read it; no plan does. Labels and properties are rows
//! of `L`/`P`, never an index.

use crate::column::ColumnarRelation;
use crate::counters::AccessCounters;
use crate::csr::CsrIndex;
use crate::rows::RowTable;
use crate::stats::AdjacencyStatistics;
use pgq_relational::RelName;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// A registered property graph: its six view relations and the node
/// index a reader derives from them.
#[derive(Debug, Clone)]
pub struct GraphEntry {
    views: [RelName; 6],
    id_arity: usize,
    /// The view relations in `views` order — the allocations
    /// `Store::relations` holds. Empty only while `Store::apply_updates`
    /// edits them, so that the store's `Arc` is the only one.
    relations: Vec<Arc<ColumnarRelation>>,
    /// The node index of this state, once a reader derived it. Shared
    /// by snapshot clones; replaced, never written through, when the
    /// handles move.
    index: Arc<OnceLock<CsrIndex>>,
    counters: Arc<AccessCounters>,
}

impl GraphEntry {
    /// An entry over the store's relations named `views`, each of
    /// which must be registered; no index is derived yet.
    pub(crate) fn new(
        views: [RelName; 6],
        id_arity: usize,
        relations: &BTreeMap<RelName, Arc<ColumnarRelation>>,
        counters: &Arc<AccessCounters>,
    ) -> Self {
        let mut entry = GraphEntry {
            views,
            id_arity,
            relations: Vec::new(),
            index: Arc::default(),
            counters: Arc::clone(counters),
        };
        entry.attach(relations);
        entry
    }

    /// The entry with `index` as the node index of its current state.
    pub(crate) fn with_index(mut self, index: CsrIndex) -> Self {
        self.index = Arc::new(OnceLock::from(index));
        self
    }

    /// The six view relation names the graph was registered from.
    pub(crate) fn views(&self) -> &[RelName; 6] {
        &self.views
    }

    /// The six view relations, in view order: the store's own
    /// allocations of the current state.
    pub fn view_relations(&self) -> &[Arc<ColumnarRelation>] {
        &self.relations
    }

    /// Identifier arity `k` of the graph.
    pub fn id_arity(&self) -> usize {
        self.id_arity
    }

    /// `|N|`: the live rows of `N`.
    pub fn node_count(&self) -> usize {
        self.relations[0].len()
    }

    /// `|E|`: the live rows of `E` (parallel edges counted; the node
    /// index collapses them).
    pub fn edge_count(&self) -> usize {
        self.relations[1].len()
    }

    /// The node index: dense id `d` is the `d`-th live row of `N`, and
    /// `(s, t)` is a pair when a live edge runs from `s` to `t`.
    /// Derived from the live rows on the first call on this state.
    pub fn adjacency(&self) -> &CsrIndex {
        self.index.get_or_init(|| self.derive())
    }

    /// The node index, when a reader has derived it.
    pub(crate) fn derived_index(&self) -> Option<&CsrIndex> {
        self.index.get()
    }

    /// Degree histograms of the node index — the graph slice of
    /// [`crate::StatisticsReport`]. Derives the index.
    pub(crate) fn statistics(&self) -> AdjacencyStatistics {
        AdjacencyStatistics::of(self.adjacency(), 0)
    }

    /// Lets go of the handles before the writer edits the relations.
    pub(crate) fn release(&mut self) {
        self.relations.clear();
    }

    /// Points the handles at the store's relations of the new state,
    /// with an empty index cache.
    pub(crate) fn attach(&mut self, relations: &BTreeMap<RelName, Arc<ColumnarRelation>>) {
        self.relations = (self.views.iter())
            .map(|v| Arc::clone(&relations[v]))
            .collect();
        self.index = Arc::default();
    }

    /// One pass over each of `N`, `T` and `S`: `N`'s live rows take
    /// dense ids in row order, `T`'s edge prefixes are interned with
    /// their targets, and each live `S` row whose edge has a target
    /// adds one pair. Dense ids stay below the row bound of a relation,
    /// so the index always fits its `u32` id space.
    fn derive(&self) -> CsrIndex {
        self.counters.record_graph_index_build();
        let k = self.id_arity;
        let (n, s, t) = (&self.relations[0], &self.relations[2], &self.relations[3]);
        let mut row = vec![0u32; k];
        // `row` := the `k` codes of row `i` from position `from` on.
        let fill = |row: &mut [u32], col: &ColumnarRelation, i: usize, from: usize| {
            for (p, code) in row.iter_mut().enumerate() {
                *code = col.code_at(i, from + p);
            }
        };
        let mut nodes = RowTable::with_capacity(k, n.len());
        for i in n.live_rows() {
            fill(&mut row, n, i, 0);
            nodes.insert(&row);
        }
        let mut edges = RowTable::with_capacity(k, t.len());
        let mut target = Vec::with_capacity(t.len());
        for i in t.live_rows() {
            fill(&mut row, t, i, k);
            let tgt = nodes.find(&row);
            fill(&mut row, t, i, 0);
            if edges.insert(&row).1 {
                target.push(tgt);
            }
        }
        let mut pairs = Vec::with_capacity(s.len());
        for i in s.live_rows() {
            fill(&mut row, s, i, 0);
            let Some(e) = edges.find(&row) else { continue };
            fill(&mut row, s, i, k);
            if let (Some(src), Some(tgt)) = (nodes.find(&row), target[e as usize]) {
                pairs.push((src, tgt));
            }
        }
        CsrIndex::from_dense_pairs((0..nodes.len() as u32).collect(), pairs)
            .expect("dense ids stay below a relation's row bound")
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use crate::error::GraphForm;
    use crate::store::tests::{nid, registered_store, views};
    use crate::store::Store;
    use pgq_graph::Update;
    use pgq_relational::{Database, Relation};
    use pgq_value::{tuple, Tuple, Value};

    /// The `≥ 1`-step reachability pairs `(s̄, t̄)` through graph `G`'s
    /// node index, one sweep per node, its dense ids mapped back to
    /// identifiers through `N`'s live rows.
    pub(crate) fn reach(store: &Store) -> Relation {
        let entry = store.graph("G").unwrap();
        let index = entry.adjacency();
        let ids = store.scan(&entry.views()[0]).unwrap();
        let mut rows = Vec::new();
        for (s, a) in ids.iter().enumerate() {
            let reached = index.reach_from(index.out_neighbors(s as u32).iter().copied());
            rows.extend(reached.into_iter().map(|t| a.concat(&ids[t as usize])));
        }
        Relation::from_rows(2 * entry.id_arity(), rows).unwrap()
    }

    #[test]
    fn view_graph_registration_and_reachability() {
        let (_, store) = registered_store();
        let entry = store.graph("G").unwrap();
        assert_eq!(entry.node_count(), 4);
        assert_eq!(entry.edge_count(), 3);
        // Registration derives nothing.
        assert!(entry.derived_index().is_none());

        // ≥1-step pairs on the chain: 3+2+1.
        let plus = reach(&store);
        assert_eq!(plus.len(), 6);
        assert!(plus.contains(&tuple!["a", "d"]));
        assert_eq!(store.counters().snapshot().graph_index_builds, 1);
        // The state keeps what it derived.
        reach(&store);
        assert_eq!(store.counters().snapshot().graph_index_builds, 1);

        // The planner's match point.
        assert!(store.graph_for_views(&views()).is_some());
        let mut other = views();
        other.swap(2, 3);
        assert!(store.graph_for_views(&other).is_none());
    }

    #[test]
    fn empty_graph_and_self_loops() {
        let mut db = Database::new();
        for (name, arity) in views().into_iter().zip([1, 1, 2, 2, 2, 3]) {
            db.add_relation(name, Relation::empty(arity));
        }
        let register = |db: &Database| {
            let mut store = Store::from_database(db);
            store
                .register_view_graph("G", views(), db, GraphForm::Exact(1))
                .unwrap();
            store
        };
        let store = register(&db);
        assert_eq!(store.graph("G").unwrap().adjacency().edge_count(), 0);
        assert!(reach(&store).is_empty());

        // Self loop: a →e→ a.
        db.insert("N", tuple!["a"]).unwrap();
        db.insert("E", tuple!["e"]).unwrap();
        db.insert("S", tuple!["e", "a"]).unwrap();
        db.insert("T", tuple!["e", "a"]).unwrap();
        assert_eq!(
            reach(&register(&db)),
            Relation::from_rows(2, [tuple!["a", "a"]]).unwrap()
        );
    }

    /// A write leaves the index to the next reader: 40 new nodes
    /// chained onto "d" derive, on the first read after the batch, the
    /// index a fresh registration of the same rows derives.
    #[test]
    fn a_write_leaves_the_index_to_the_next_reader() {
        let (_, mut store) = registered_store();
        let before = reach(&store);
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
        assert!(entry.derived_index().is_none());
        assert_eq!(entry.node_count(), 44);
        assert_eq!(entry.edge_count(), 43);
        let after = reach(&store);
        assert!(after.contains(&tuple!["a", "n39"]));
        assert!(before.iter().all(|t| after.contains(t)));
        let mut db = Database::new();
        for v in views() {
            let arity = store.relation(&v).unwrap().arity();
            let rows = Relation::from_rows(arity, store.scan(&v).unwrap()).unwrap();
            db.add_relation(v, rows);
        }
        let mut fresh = Store::from_database(&db);
        fresh
            .register_view_graph("G", views(), &db, GraphForm::Exact(1))
            .unwrap();
        assert_eq!(reach(&fresh), after);
    }
}
