//! The session-level storage catalog.
//!
//! A [`Store`] is registered **once per session** — relations become
//! dictionary-coded columns, binary relations additionally get CSR
//! adjacency, and property-graph views are validated by the `pgView`
//! family a single time and frozen as one CSR adjacency per graph
//! ([`GraphEntry`]). Queries then run against the frozen layout
//! instead of re-materializing and re-validating base data per call.
//!
//! A graph entry is created only by [`Store::register_view_graph`] or
//! [`Store::bulk_load`] and changes in place only through
//! [`Store::apply_updates`] (the `update` module), which maintains
//! every adjacency through a
//! [`DeltaAdjacency`] overlay. Replacing a relation wholesale drops the
//! graphs over it instead. Overlays fold
//! back into fresh CSR indexes past a threshold, and [`Store::compact`]
//! rebuilds the dictionary retaining only live codes, dropping
//! tombstoned rows and folding every overlay — `STATS` (the `report`
//! module) reports the gap so sessions can decide when it pays.
//!
//! Everything a write touches follows **one copy-on-write rule**: an
//! `Arc`-shared frozen base plus a small owned tail — a CSR and its
//! [`DeltaAdjacency`], a relation's probe-index base (a row table and
//! end-column chains, flat arrays with no allocation per row) and the
//! rows appended since, the dictionary's base and the codes minted since, a
//! graph's identifier base and the nodes added since. A tail folds into
//! a fresh base under the overlay fold policy (`overlay_oversized`) and
//! in [`Store::compact`].
//! Cloning a store therefore copies tails only, and the first write to
//! a relation copies its flat columns and validity bitmap (a memcpy) —
//! a write copies its batch, not the store. The active domain
//! [`ADOM_REL`] is not stored at all: it is derived from the live rows
//! when a reader asks for it.

use crate::column::ColumnarRelation;
use crate::counters::AccessCounters;
use crate::csr::{AdjacencyView, CsrIndex, DeltaAdjacency};
use crate::dict::Dictionary;
use crate::error::{GraphForm, StoreError};
use crate::graph::GraphEntry;
use crate::stats::{StatisticsReport, StoreStatistics};
use pgq_graph::ViewRelations;
use pgq_relational::{Database, RelName, Relation};
use pgq_value::{Tuple, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The reserved relation name under which the store answers the
/// active domain `adom(D)` of its live rows as a unary relation, so
/// `AdomScan` plans can lower onto an `IndexScan`. Nothing maintains
/// it: [`Store::relation`] derives it, in value order, the first time
/// a state is asked for it.
pub const ADOM_REL: &str = "⟨adom⟩";

/// Fold policy: an overlay is oversized once it records at least 32
/// changes **and** at least half the frozen base size — below that,
/// reads through the delta are cheaper than a rebuild.
pub(crate) fn overlay_oversized(changes: usize, base: usize) -> bool {
    changes >= 32.max(base / 2)
}
/// A frozen CSR index plus its post-freeze overlay — the maintainable
/// adjacency of one registered binary relation, keyed on dictionary
/// codes. The CSR base is `Arc`-shared: cloning a [`Store`] (how
/// [`crate::ConcurrentStore`] publishes snapshots) shares the frozen
/// index and copies only the small mutable overlay.
#[derive(Debug, Clone)]
pub(crate) struct CsrWithDelta {
    pub(crate) csr: Arc<CsrIndex>,
    pub(crate) delta: DeltaAdjacency,
}

impl CsrWithDelta {
    fn view(&self) -> AdjacencyView<'_> {
        AdjacencyView::new(&self.csr, Some(&self.delta))
    }

    /// Freezes the live rows of a binary relation, overlay empty.
    pub(crate) fn of_relation(col: &ColumnarRelation) -> Result<Self, StoreError> {
        let pairs: Vec<(u32, u32)> = col
            .live_rows()
            .map(|i| (col.code_at(i, 0), col.code_at(i, 1)))
            .collect();
        let universe = pairs.iter().flat_map(|&(a, b)| [a, b]);
        Ok(CsrWithDelta {
            csr: Arc::new(CsrIndex::build(universe, &pairs)?),
            delta: DeltaAdjacency::new(),
        })
    }
}

/// The effect of one [`Store::compact`] call, also surfaced through
/// [`crate::StoreStats::last_compaction`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionStats {
    /// Stale dictionary codes reclaimed (old total − new total).
    pub reclaimed_codes: usize,
    /// Tombstoned rows dropped from columnar relations.
    pub dropped_rows: usize,
    /// Overlay entries (adjacency deltas, graph tombstones/appends)
    /// folded into fresh CSR indexes.
    pub folded_overlay: usize,
}

impl fmt::Display for CompactionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reclaimed {} stale code(s), dropped {} tombstoned row(s), folded {} overlay entr(y/ies)",
            self.reclaimed_codes, self.dropped_rows, self.folded_overlay
        )
    }
}

/// The session catalog: dictionary-coded relations, CSR adjacency for
/// binary relations, and graph views — registered once, then maintained
/// in place by the update entry points.
/// Cloning a `Store` shares every frozen base and copies the tails
/// (the module's copy-on-write rule; an untouched relation is one
/// shared `Arc`), which is what lets [`crate::ConcurrentStore`] run
/// each batch on a working clone and publish every committed state as
/// an immutable [`crate::StoreSnapshot`] while readers keep older
/// snapshots pinned.
#[derive(Debug, Clone, Default)]
pub struct Store {
    pub(crate) dict: Dictionary,
    pub(crate) relations: BTreeMap<RelName, Arc<ColumnarRelation>>,
    pub(crate) adjacency: BTreeMap<RelName, CsrWithDelta>,
    pub(crate) graphs: BTreeMap<String, GraphEntry>,
    pub(crate) last_compaction: Option<CompactionStats>,
    /// Session-cumulative access counters (`&self`-recorded, relaxed
    /// atomics), surfaced by the shell's `METRICS;`. `Arc`-shared so
    /// every snapshot clone of the store records into the same totals —
    /// a server's `METRICS` aggregates across all published snapshots.
    pub(crate) counters: Arc<AccessCounters>,
    /// What is derived from the state on first read — planner
    /// statistics (PR 10) and the active domain. Shared by snapshot
    /// clones like the frozen bases; every mutation swaps in fresh
    /// slots (see [`Derived::invalidate`]).
    pub(crate) derived: Derived,
}

/// The per-version slots of what a reader derives from the state — the
/// cached [`StoreStatistics`] and the [`ADOM_REL`] relation — plus the
/// invalidation epoch.
///
/// Cloning a [`Store`] clones the `Arc`s — a pinned snapshot keeps what
/// was derived against the state it pins, for free. A mutation replaces
/// the slots (never writes through them), so no clone ever observes a
/// derivation newer than its data, and bumps the epoch — the staleness
/// suite asserts the bump per mutation class.
#[derive(Debug, Clone, Default)]
pub(crate) struct Derived {
    statistics: Arc<OnceLock<Arc<StoreStatistics>>>,
    adom: Arc<OnceLock<ColumnarRelation>>,
    epoch: u64,
}

impl Derived {
    pub(crate) fn invalidate(&mut self) {
        self.statistics = Arc::default();
        self.adom = Arc::default();
        self.epoch += 1;
    }
}

impl Store {
    /// An empty store.
    pub fn new() -> Self {
        Store::default()
    }

    /// An empty store whose dictionary refuses to mint more than
    /// `limit` codes — the admission-control hook the bulk-load
    /// boundary tests use to exercise [`StoreError::DictionaryFull`]
    /// without 2³² interns.
    pub fn with_dict_limit(limit: usize) -> Self {
        Store {
            dict: Dictionary::with_limit(limit),
            ..Store::default()
        }
    }

    /// The session-cumulative [`AccessCounters`]. Recording is
    /// `&self`: the executor's read paths count through this without
    /// threading any mutability into the store.
    pub fn counters(&self) -> &AccessCounters {
        &self.counters
    }

    /// The planner statistics of the current state — built on first
    /// use from the counts the relations keep, then served from the
    /// cache until the next mutation (the two `Arc`s compare `ptr_eq`
    /// while the cache holds). See [`StoreStatistics`] for what is
    /// summarized and `Derived` (crate-private) for the
    /// snapshot-consistency contract.
    pub fn statistics(&self) -> Arc<StoreStatistics> {
        Arc::clone(
            self.derived
                .statistics
                .get_or_init(|| Arc::new(StoreStatistics::compute(self, self.derived.epoch))),
        )
    }

    /// The planner statistics plus the degree histograms `STATS`
    /// prints, computed now: the histograms are not cached.
    pub fn statistics_report(&self) -> StatisticsReport {
        StatisticsReport::of(self)
    }

    /// The statistics invalidation epoch: bumped by every mutation, so
    /// `statistics().epoch` equals this exactly when the cached
    /// snapshot is current. Test hook for the staleness suite.
    pub fn statistics_epoch(&self) -> u64 {
        self.derived.epoch
    }

    /// Registers every relation of `db` (columnar + adjacency for the
    /// binary ones). The usual way to obtain a store.
    ///
    /// # Panics
    ///
    /// On a fresh store the only possible registration failure is
    /// [`StoreError::DictionaryFull`] — more than [`Dictionary::MAX_CODES`]
    /// distinct values in one database. Callers loading instances that
    /// could plausibly reach 2³² distinct values should build with
    /// [`Store::new`] + [`Store::register_database`] and handle the
    /// error.
    pub fn from_database(db: &Database) -> Self {
        let mut s = Store::new();
        s.register_database(db)
            .expect("a fresh store has a full u32 code space");
        s
    }

    /// Registers (or re-registers) the relations of `db`. A
    /// re-registration must not leave anything answering for the old
    /// data: relations and adjacency absent from `db` are dropped, and
    /// so is every graph entry — pattern calls fall back to per-query
    /// evaluation until the owner registers the graphs again through
    /// [`Store::register_view_graph`].
    pub fn register_database(&mut self, db: &Database) -> Result<(), StoreError> {
        self.derived.invalidate();
        self.graphs.clear();
        self.relations.clear();
        self.adjacency.clear();
        for (name, rel) in db.iter() {
            self.register_relation_raw(name.clone(), rel)?;
        }
        Ok(())
    }

    /// Registers one relation: columnar always, CSR when binary.
    /// Fails with [`StoreError::DictionaryFull`] when interning the
    /// relation's values exhausts the dictionary's code space. Every
    /// graph backed by `name` is dropped first, siblings included —
    /// frozen state must not keep answering for replaced data.
    pub fn register_relation(&mut self, name: RelName, rel: &Relation) -> Result<(), StoreError> {
        self.derived.invalidate();
        self.graphs.retain(|_, e| !e.views().contains(&name));
        self.register_relation_raw(name, rel)
    }

    /// The registration body, without the graph drop —
    /// [`Store::register_database`] drops every graph wholesale. Like
    /// every registration it leaves the dictionary frozen: the codes it
    /// minted fold into the base.
    fn register_relation_raw(&mut self, name: RelName, rel: &Relation) -> Result<(), StoreError> {
        let col = ColumnarRelation::from_relation(rel, &mut self.dict)?;
        self.dict.fold();
        if rel.arity() == 2 {
            self.adjacency
                .insert(name.clone(), CsrWithDelta::of_relation(&col)?);
        } else {
            // Re-registration under a different arity must not leave a
            // stale index behind — plans would expand over dead pairs.
            self.adjacency.remove(&name);
        }
        self.relations.insert(name, Arc::new(col));
        Ok(())
    }

    /// Validates the six named view relations with the strict `pgView`
    /// operator selected by `form` — **once** — and freezes the result
    /// as a [`GraphEntry`] under `graph_name`. The entry records the
    /// six names, so planners can match pattern calls onto it and
    /// [`Store::apply_updates`] knows which relations to edit. Fails on
    /// an invalid view, a missing relation, or a node universe that
    /// outgrows the dense id space.
    pub fn register_view_graph(
        &mut self,
        graph_name: impl Into<String>,
        views: [RelName; 6],
        db: &Database,
        form: GraphForm,
    ) -> Result<(), StoreError> {
        let get = |name: &RelName| {
            db.get(name)
                .cloned()
                .ok_or_else(|| StoreError::UnknownRelation(name.clone()))
        };
        let [n, e, s, t, l, p] = &views;
        let vr = ViewRelations::from([get(n)?, get(e)?, get(s)?, get(t)?, get(l)?, get(p)?]);
        let g = form.view(&vr)?;
        let entry = GraphEntry::from_graph(&g, views)?;
        self.derived.invalidate();
        self.graphs.insert(graph_name.into(), entry);
        Ok(())
    }

    /// The shared dictionary.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// The code of a value, when any registered row contains it.
    pub fn encode(&self, v: &Value) -> Option<u32> {
        self.dict.code(v)
    }

    /// Decodes a dictionary code.
    pub fn decode(&self, code: u32) -> &Value {
        self.dict.value(code)
    }

    /// A registered columnar relation, or the active domain under
    /// [`ADOM_REL`].
    pub fn relation(&self, name: &RelName) -> Option<&ColumnarRelation> {
        if name.as_str() == ADOM_REL {
            return Some(self.adom());
        }
        self.relations.get(name).map(|a| &**a)
    }

    /// Whether `name` is registered; [`ADOM_REL`] always is.
    pub fn has_relation(&self, name: &RelName) -> bool {
        name.as_str() == ADOM_REL || self.relations.contains_key(name)
    }

    /// Decodes a registered relation's live rows (stored order).
    pub fn scan(&self, name: &RelName) -> Option<Vec<Tuple>> {
        self.relation(name).map(|c| c.decode_rows(&self.dict))
    }

    /// The active domain of the live rows, in value order — derived on
    /// the first read of this state, then served from its slot until
    /// the next mutation.
    fn adom(&self) -> &ColumnarRelation {
        self.derived.adom.get_or_init(|| {
            let mut codes: Vec<u32> = (0..)
                .zip(self.live_bitmap())
                .filter_map(|(c, live)| live.then_some(c))
                .collect();
            codes.sort_by(|&a, &b| self.dict.value(a).cmp(self.dict.value(b)));
            ColumnarRelation::from_codes(1, vec![codes])
        })
    }

    /// The derived active domain, when a reader has asked for it.
    pub(crate) fn derived_adom(&self) -> Option<&ColumnarRelation> {
        self.derived.adom.get()
    }

    /// The adjacency of a registered *binary* relation: the frozen CSR
    /// read through its delta overlay.
    pub fn adjacency(&self, name: &RelName) -> Option<AdjacencyView<'_>> {
        self.adjacency.get(name).map(CsrWithDelta::view)
    }

    /// A registered graph entry.
    pub fn graph(&self, name: &str) -> Option<&GraphEntry> {
        self.graphs.get(name)
    }

    /// The graph entry registered from exactly these six view relations,
    /// if any — the planner's match point for pattern calls over base
    /// relations. Every `pgView` form reads the same graph off the same
    /// relations, so the caller checks only that its operator admits the
    /// entry's identifier arity.
    pub fn graph_for_views(&self, views: &[RelName; 6]) -> Option<&GraphEntry> {
        self.graphs.values().find(|e| e.views() == views)
    }

    /// Registered graph names with entries, in name order.
    pub fn graph_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.graphs.keys().map(String::as_str)
    }

    /// Drops a registered graph entry. `true` when one existed. A
    /// session whose view of the graph became invalid uses this, so
    /// pattern calls fall back to per-query evaluation instead of
    /// answering stale.
    pub fn drop_graph(&mut self, name: &str) -> bool {
        self.derived.invalidate();
        self.graphs.remove(name).is_some()
    }

    /// Which codes live rows reference.
    fn live_bitmap(&self) -> Vec<bool> {
        let mut live = vec![false; self.dict.len()];
        for col in self.relations.values() {
            for i in col.live_rows() {
                for p in 0..col.arity() {
                    live[col.code_at(i, p) as usize] = true;
                }
            }
        }
        live
    }

    /// Rebuilds the dictionary retaining only **live** codes, remaps
    /// every column, drops tombstoned rows, rebuilds every relation
    /// CSR from the recoded live rows, and folds every graph overlay —
    /// the compaction story: `dictionary_stale` drops to 0 and no
    /// query result changes. Every tail folds: the dictionary, the
    /// graph identifiers and the probe indexes leave as bases alone,
    /// and exactly the relations that carried probe indexes get them
    /// rebuilt here, so the next write is a warm one. Previously
    /// returned codes (from [`Store::encode`]) are invalidated.
    pub fn compact(&mut self) -> Result<CompactionStats, StoreError> {
        self.derived.invalidate();
        let old_total = self.dict.len();
        let mut folded = 0usize;
        let mut dropped = 0usize;
        // Old code → new code, minted in first-seen order over the live
        // rows; `values` is the new dictionary in code order.
        let mut remap: Vec<Option<u32>> = vec![None; old_total];
        let mut values: Vec<Value> = Vec::new();
        for col in self.relations.values_mut() {
            dropped += col.tombstones();
            *col = Arc::new(col.compacted(&mut |old| {
                *remap[old as usize].get_or_insert_with(|| {
                    values.push(self.dict.value(old).clone());
                    values.len() as u32 - 1
                })
            }));
        }
        self.dict = Dictionary::from_values(values, self.dict.limit());
        let names: Vec<RelName> = self.adjacency.keys().cloned().collect();
        for name in names {
            folded += self
                .adjacency
                .get(&name)
                .map_or(0, |e| e.delta.change_count());
            self.rebuild_adjacency(&name)?;
        }
        for e in self.graphs.values_mut() {
            folded += e.overlay_size();
            e.fold()?;
        }
        let stats = CompactionStats {
            reclaimed_codes: old_total - self.dict.len(),
            dropped_rows: dropped,
            folded_overlay: folded,
        };
        self.last_compaction = Some(stats.clone());
        Ok(stats)
    }

    /// The effect of the most recent [`Store::compact`], if any.
    pub fn last_compaction(&self) -> Option<&CompactionStats> {
        self.last_compaction.as_ref()
    }

    /// Codes referenced by the **live** rows of currently registered
    /// relations. Because the dictionary is append-only, deletions and
    /// re-registrations leave stale codes behind; `stats` surfaces the
    /// gap so sessions can decide when [`Store::compact`] is worth it.
    pub fn live_codes(&self) -> usize {
        self.live_bitmap().iter().filter(|&&b| b).count()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::graph::tests::reach;
    use pgq_graph::Update;
    use pgq_value::tuple;

    /// The canonical 4-chain a→b→c→d with one labeled edge.
    pub(crate) fn chain_db() -> Database {
        let mut db = Database::new();
        for n in ["a", "b", "c", "d"] {
            db.insert("N", tuple![n]).unwrap();
        }
        for (e, s, t) in [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "d")] {
            db.insert("E", tuple![e]).unwrap();
            db.insert("S", tuple![e, s]).unwrap();
            db.insert("T", tuple![e, t]).unwrap();
        }
        db.insert("L", tuple!["e1", "Transfer"]).unwrap();
        db.add_relation("P", Relation::empty(3));
        db
    }

    pub(crate) fn views() -> [RelName; 6] {
        ["N", "E", "S", "T", "L", "P"].map(Into::into)
    }

    pub(crate) fn nid(n: &str) -> Tuple {
        Tuple::unary(Value::str(n))
    }

    pub(crate) fn registered_store() -> (Database, Store) {
        let db = chain_db();
        let mut store = Store::from_database(&db);
        store
            .register_view_graph("G", views(), &db, GraphForm::Exact(1))
            .unwrap();
        (db, store)
    }

    #[test]
    fn database_registration_round_trips() {
        let db = chain_db();
        let mut store = Store::from_database(&db);
        store
            .register_view_graph("G", views(), &db, GraphForm::Exact(1))
            .unwrap();
        for (name, rel) in db.iter() {
            let rows = store.scan(name).unwrap();
            assert_eq!(
                Relation::from_rows(rel.arity(), rows).unwrap(),
                *rel,
                "{name}"
            );
        }
        // Binary relations carry adjacency; others don't.
        assert!(store.adjacency(&"S".into()).is_some());
        assert!(store.adjacency(&"N".into()).is_none());
        // Registration builds no probe index and no active domain: the
        // columns are all the relations hold.
        assert!(store.relations.values().all(|c| !c.has_indexes()));
        let coded: usize = store.relations.values().map(|c| c.coded_bytes()).sum();
        assert_eq!(store.memory_bytes().columns, coded);
        // The reserved adom relation, derived on this read, matches the
        // database's and is resident from then on.
        assert!(store.has_relation(&ADOM_REL.into()));
        let adom = store.scan(&ADOM_REL.into()).unwrap();
        assert_eq!(
            Relation::from_rows(1, adom).unwrap(),
            db.active_domain_relation()
        );
        let adom_bytes = 4 * db.active_domain_relation().len();
        assert_eq!(store.memory_bytes().columns, coded + adom_bytes);
        // A write builds only the indexes its probes need; node checks
        // read the graph entry, so `N` stays unindexed.
        store
            .apply_updates(
                "G",
                std::slice::from_ref(&Update::AddEdge {
                    id: nid("e4"),
                    src: nid("d"),
                    tgt: nid("a"),
                }),
            )
            .unwrap();
        assert!(store.relation(&"E".into()).unwrap().has_indexes());
        assert!(!store.relation(&"N".into()).unwrap().has_indexes());
    }

    #[test]
    fn reregistration_drops_stale_adjacency() {
        let mut store = Store::new();
        let binary = Relation::from_rows(2, [tuple![1, 2]]).unwrap();
        store.register_relation("R".into(), &binary).unwrap();
        assert!(store.adjacency(&"R".into()).is_some());
        let ternary = Relation::from_rows(3, [tuple![1, 2, 3]]).unwrap();
        store.register_relation("R".into(), &ternary).unwrap();
        assert!(store.adjacency(&"R".into()).is_none());
        assert_eq!(store.relation(&"R".into()).unwrap().arity(), 3);
        // Relations absent from a re-registered database are dropped.
        let mut smaller = Database::new();
        smaller.insert("OnlyThis", tuple![1]).unwrap();
        store.register_database(&smaller).unwrap();
        assert!(!store.has_relation(&"R".into()));
        assert!(store.adjacency(&"R".into()).is_none());
        assert!(store.has_relation(&"OnlyThis".into()));
    }

    #[test]
    fn invalid_views_error_at_registration() {
        let db = chain_db();
        let mut store = Store::from_database(&db);
        // N used as both node and edge set: disjointness fails.
        let bad = ["N", "N", "S", "T", "L", "P"].map(Into::into);
        assert!(matches!(
            store.register_view_graph("bad", bad, &db, GraphForm::Exact(1)),
            Err(StoreError::View(_))
        ));
        let missing = ["Nope", "E", "S", "T", "L", "P"].map(Into::into);
        assert!(matches!(
            store.register_view_graph("bad", missing, &db, GraphForm::Exact(1)),
            Err(StoreError::UnknownRelation(_))
        ));
    }

    #[test]
    fn reregistration_tracks_stale_codes() {
        let mut store = Store::new();
        let mut db = Database::new();
        db.insert("R", tuple!["gone", "kept"]).unwrap();
        store.register_database(&db).unwrap();
        let before = store.stats();
        assert_eq!(before.dictionary_stale(), 0);
        // Replace the row: the dictionary keeps "gone" forever.
        let mut db = Database::new();
        db.insert("R", tuple!["fresh", "kept"]).unwrap();
        store.register_database(&db).unwrap();
        let after = store.stats();
        assert_eq!(after.dictionary_total, 3);
        assert_eq!(after.dictionary_live, 2);
        assert_eq!(after.dictionary_stale(), 1);
        // Stale codes still decode — they are unreachable, not dangling.
        let gone = store.encode(&Value::str("gone")).unwrap();
        assert_eq!(store.decode(gone), &Value::str("gone"));
        // Compaction reclaims the slot without changing any scan.
        let rows = store.scan(&"R".into()).unwrap();
        let effect = store.compact().unwrap();
        assert_eq!(effect.reclaimed_codes, 1);
        assert_eq!(store.scan(&"R".into()).unwrap(), rows);
        assert_eq!(store.stats().dictionary_stale(), 0);
        assert_eq!(store.encode(&Value::str("gone")), None);
        assert!(store.last_compaction().is_some());
    }

    #[test]
    fn dictionary_exhaustion_propagates_through_registration() {
        let mut store = Store::with_dict_limit(3);
        let mut db = Database::new();
        for i in 0..4i64 {
            db.insert("V", tuple![i]).unwrap();
        }
        assert!(matches!(
            store.register_database(&db),
            Err(StoreError::DictionaryFull { limit: 3 })
        ));
        // Within the limit, registration works up to the last code.
        let mut small = Database::new();
        small.insert("V", tuple![1]).unwrap();
        let mut store = Store::with_dict_limit(2);
        store.register_database(&small).unwrap();
        let one = |v: i64| Relation::unary([v]);
        assert!(store.register_relation("W".into(), &one(99)).is_ok());
        assert!(matches!(
            store.register_relation("X".into(), &one(100)),
            Err(StoreError::DictionaryFull { .. })
        ));
        // Compaction preserves the configured limit.
        store.compact().unwrap();
        assert_eq!(store.dict().limit(), 2);
    }

    #[test]
    fn compact_folds_overlays_and_preserves_answers() {
        let (_, mut store) = registered_store();
        store
            .apply_updates(
                "G",
                &[
                    Update::AddNode(nid("z")),
                    Update::AddEdge {
                        id: nid("e4"),
                        src: nid("d"),
                        tgt: nid("z"),
                    },
                    Update::DetachRemoveNode(nid("a")),
                ],
            )
            .unwrap();
        let before = reach(store.graph("G").unwrap());
        let scans: Vec<Vec<Tuple>> = views().iter().map(|v| store.scan(v).unwrap()).collect();
        assert!(store.stats().dictionary_stale() > 0);
        let effect = store.compact().unwrap();
        assert!(effect.reclaimed_codes > 0);
        assert!(effect.dropped_rows > 0);
        assert!(effect.folded_overlay > 0);
        // Post-compaction: zero stale, zero overlay, identical answers.
        let stats = store.stats();
        assert_eq!(stats.dictionary_stale(), 0);
        assert_eq!(stats.tombstone_rows(), 0);
        assert_eq!(stats.overlay_entries(), 0);
        let entry = store.graph("G").unwrap();
        assert!(!entry.has_overlay());
        assert_eq!(reach(entry), before);
        for (v, old) in views().iter().zip(scans) {
            assert_eq!(
                Relation::from_rows(old.first().map_or(1, Tuple::arity), store.scan(v).unwrap()),
                Relation::from_rows(old.first().map_or(1, Tuple::arity), old),
                "{v}"
            );
        }
        assert_eq!(stats.last_compaction, Some(effect));
    }

    // ---- store statistics cache (PR 10) ----

    /// Reads share one cached [`StoreStatistics`] Arc; every mutation
    /// class — graph updates, compaction, and registration — swaps the
    /// slot and bumps the epoch, and the snapshot built after it holds
    /// the exact counts of the new state: the writer's maintained
    /// distinct counts equal a recount from the rows.
    #[test]
    fn statistics_cache_survives_reads_and_invalidates_on_writes() {
        let (_, mut store) = registered_store();
        // (live rows, distinct per column) of one relation, checked
        // against a from-scratch recount of the same state.
        let counts = |store: &Store, name: &str| {
            let stats = store.statistics();
            assert_eq!(*stats, StoreStatistics::recount(store, stats.epoch));
            let r = &stats.relations[&RelName::from(name)];
            (r.live_rows, r.distinct.clone())
        };
        let first = store.statistics();
        let again = store.statistics();
        assert!(Arc::ptr_eq(&first, &again), "reads share the cached Arc");
        assert_eq!(first.epoch, store.statistics_epoch());
        assert_eq!(counts(&store, "N"), (4, vec![4]));
        assert_eq!(counts(&store, "S"), (3, vec![3, 3]));
        assert_eq!(counts(&store, "P"), (0, vec![0, 0, 0]));

        store
            .apply_updates("G", std::slice::from_ref(&Update::AddNode(nid("z"))))
            .unwrap();
        let after_insert = store.statistics();
        assert!(!Arc::ptr_eq(&first, &after_insert));
        assert!(after_insert.epoch > first.epoch);
        assert_eq!(counts(&store, "N"), (5, vec![5]));

        store
            .apply_updates("G", std::slice::from_ref(&Update::RemoveNode(nid("z"))))
            .unwrap();
        let after_delete = store.statistics();
        assert!(after_delete.epoch > after_insert.epoch);
        assert_eq!(counts(&store, "N"), (4, vec![4]));
        assert_eq!(
            after_delete.relations[&RelName::from("N")].tombstone_rows,
            1
        );

        // An edge into `a`, which `T` held nowhere, then the removal of
        // `e2`, whose endpoints `b` (in `S`) and `c` (in `T`) no other
        // live row holds.
        let e4 = Update::AddEdge {
            id: nid("e4"),
            src: nid("d"),
            tgt: nid("a"),
        };
        store.apply_updates("G", &[e4]).unwrap();
        let after_update = store.statistics();
        assert!(after_update.epoch > after_delete.epoch);
        assert_eq!(counts(&store, "T"), (4, vec![4, 4]));
        assert!(store.statistics_report().graphs["G"].overlay > 0);
        store
            .apply_updates("G", &[Update::RemoveEdge(nid("e2"))])
            .unwrap();
        assert_eq!(counts(&store, "S"), (3, vec![3, 3]));
        assert_eq!(counts(&store, "T"), (3, vec![3, 3]));

        // `P`'s key column has no chains: its count moves when a key's
        // last live row goes.
        let prop = |n: &str, k: &str, v: i64| Update::SetProp(nid(n), Value::str(k), Value::int(v));
        let props = [prop("a", "w", 1), prop("b", "w", 2), prop("b", "k", 2)];
        store.apply_updates("G", &props).unwrap();
        assert_eq!(counts(&store, "P"), (3, vec![2, 2, 2]));
        store
            .apply_updates("G", &[Update::RemoveProp(nid("b"), Value::str("k"))])
            .unwrap();
        assert_eq!(counts(&store, "P"), (2, vec![2, 1, 2]));

        store.compact().unwrap();
        let after_compact = store.statistics();
        assert!(after_compact.epoch > after_update.epoch);
        assert_eq!(
            after_compact.relations[&RelName::from("N")].tombstone_rows,
            0
        );
        assert_eq!(counts(&store, "P"), (2, vec![2, 1, 2]));
        assert_eq!(counts(&store, "T"), (3, vec![3, 3]));
        assert_eq!(store.statistics_report().graphs["G"].overlay, 0);
        // The key column's count stays exact in the compacted codes.
        store.apply_updates("G", &[prop("c", "k", 3)]).unwrap();
        assert_eq!(counts(&store, "P"), (3, vec![3, 2, 3]));

        store
            .register_relation("Extra".into(), &Relation::unary([1i64]))
            .unwrap();
        let after_register = store.statistics();
        assert!(after_register.epoch > after_compact.epoch);
        assert_eq!(counts(&store, "Extra"), (1, vec![1]));

        // A re-registration that fails part-way (the dictionary fills
        // on N's new row, after E and L were replaced) must not leave
        // the cache describing the old relations.
        let db = chain_db();
        let mut store = Store::with_dict_limit(Store::from_database(&db).dict().len());
        store.register_database(&db).unwrap();
        let before = store.statistics();
        let mut grown = chain_db();
        grown.insert("N", tuple!["z"]).unwrap();
        assert!(matches!(
            store.register_database(&grown),
            Err(StoreError::DictionaryFull { .. })
        ));
        let after_failed = store.statistics();
        assert!(after_failed.epoch > before.epoch);
        assert_eq!(
            *after_failed,
            StoreStatistics::recount(&store, after_failed.epoch)
        );
    }

    /// The writer keeps the counts, so once a statistics read has
    /// counted the relations, writes and compaction leave nothing to
    /// recount; a registration does.
    #[test]
    fn only_a_registration_makes_the_statistics_recount() {
        let (db, mut store) = registered_store();
        let recounts = |store: &Store| store.counters().snapshot().statistics_recounts;
        store.statistics();
        assert_eq!(recounts(&store), 1);
        for i in 0..20 {
            let node = nid(&format!("n{i}"));
            let batch = [
                Update::AddNode(node.clone()),
                Update::AddEdge {
                    id: nid(&format!("f{i}")),
                    src: nid("a"),
                    tgt: node.clone(),
                },
                Update::SetProp(node, Value::str("w"), Value::int(i)),
            ];
            store.apply_updates("G", &batch).unwrap();
            let stats = store.statistics();
            assert_eq!(*stats, StoreStatistics::recount(&store, stats.epoch));
        }
        store.compact().unwrap();
        store.statistics();
        assert_eq!(recounts(&store), 1, "writes and compaction recount nothing");
        store.register_database(&db).unwrap();
        store.statistics();
        assert_eq!(recounts(&store), 2);
    }

    /// A pinned snapshot keeps answering with its own consistent
    /// statistics — same Arc, same counts — no matter what a
    /// concurrent writer publishes meanwhile.
    #[test]
    fn pinned_snapshots_keep_their_statistics_under_concurrent_writes() {
        let (_, store) = registered_store();
        let n: RelName = "N".into();
        let concurrent = crate::ConcurrentStore::new(store);
        let pin = concurrent.pin();
        let pinned = pin.as_store().statistics();
        concurrent
            .write(|s| s.apply_updates("G", std::slice::from_ref(&Update::AddNode(nid("z")))))
            .unwrap();
        // The writer's published state sees the row under a new epoch …
        let fresh = concurrent.pin().as_store().statistics();
        assert_eq!(
            fresh.live_rows(&n),
            pinned.live_rows(&n).map(|rows| rows + 1)
        );
        assert!(fresh.epoch > pinned.epoch);
        // … while the pinned snapshot still serves its frozen stats.
        let again = pin.as_store().statistics();
        assert!(Arc::ptr_eq(&pinned, &again));
        assert_eq!(again.live_rows(&n), pinned.live_rows(&n));
    }
}
