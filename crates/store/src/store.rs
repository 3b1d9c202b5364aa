//! The session-level storage catalog.
//!
//! A [`Store`] is registered **once per session** — relations become
//! dictionary-coded columns, binary relations additionally get CSR
//! adjacency, and property-graph views are validated by the `pgView`
//! family a single time and frozen as CSR node/edge indexes (overall
//! and per edge label). Queries then run against the frozen layout
//! instead of re-materializing and re-validating base data per call.
//!
//! Since PR 5 the store is no longer a frozen snapshot: updates flow
//! **incrementally**. [`Store::insert_row`] / [`Store::delete_row`]
//! append or tombstone single rows, [`Store::apply_update`] /
//! [`Store::apply_updates`] bridge `pgq_graph::updates::Update` — the
//! Section 7 update model — onto a registered view graph, maintaining
//! the columnar relations, the relation-level CSR adjacency (via a
//! [`DeltaAdjacency`] overlay), and the graph's frozen entry without a
//! re-registration. Overlays fold back into fresh CSR indexes past a
//! threshold, and [`Store::compact`] rebuilds the dictionary retaining
//! only live codes (the compaction story PR 4 documented), dropping
//! tombstoned rows and folding every overlay — `STATS` reports the gap
//! so sessions can decide when it pays.

use crate::column::ColumnarRelation;
use crate::csr::{AdjacencyView, CsrIndex, DeltaAdjacency};
use crate::dict::Dictionary;
use crate::stats::{AdjacencyStatistics, GraphStatistics, StoreStatistics};
use pgq_graph::{
    pg_view_bounded, pg_view_exact, pg_view_ext, PropertyGraph, Update, UpdateError, ViewError,
    ViewMode, ViewRelations,
};
use pgq_relational::{Database, RelName, Relation};
use pgq_value::{Label, Tuple, Value};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The reserved relation name under which the store registers the
/// active domain `adom(D)` as a unary relation, so `AdomScan` plans can
/// lower onto an `IndexScan` instead of re-deriving the domain.
pub const ADOM_REL: &str = "⟨adom⟩";

/// Fold policy: an overlay is oversized once it records at least 32
/// changes **and** at least half the frozen base size — below that,
/// reads through the delta are cheaper than a rebuild.
fn overlay_oversized(changes: usize, base: usize) -> bool {
    changes >= 32.max(base / 2)
}

/// Which `pgView` operator a graph was registered under (mirrors
/// `pgq_core::ViewOp`, which the store cannot depend on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphForm {
    /// `pgView=n`: identifiers of exactly this arity.
    Exact(usize),
    /// `pgView_n`: identifiers of arity at most `n`, padded.
    Bounded(usize),
    /// `pgView_ext`: mixed arities, tagged encoding.
    Ext,
}

/// Errors raised by store registration and maintenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A view input relation is missing from the database (or, on the
    /// update path, from the store).
    UnknownRelation(RelName),
    /// No graph is registered under this name.
    UnknownGraph(String),
    /// The six relations violate the Definition 3.1/5.1 conditions.
    View(ViewError),
    /// The value dictionary ran out of codes: more than `limit`
    /// distinct values were interned. Registration propagates this
    /// instead of panicking mid-load (`Dictionary::MAX_CODES` is the
    /// hard ceiling; tests lower the limit to reach it).
    DictionaryFull {
        /// The code-space limit that was hit.
        limit: usize,
    },
    /// A CSR node universe outgrew its dense `u32` id space — the
    /// typed replacement for the old `expect("node universe outgrew
    /// u32")` panic (parity with [`StoreError::DictionaryFull`]).
    NodeUniverseFull {
        /// The node-universe limit that was hit.
        limit: usize,
    },
    /// An update against a registered graph failed validation — the
    /// same conditions `pgq_graph::updates::apply` enforces.
    Update(UpdateError),
    /// The graph was frozen from an explicit `PropertyGraph` (no view
    /// relation names), so the store has no base relations to edit.
    NotUpdatable(String),
    /// A row's arity differs from its relation's.
    RowArity {
        /// The relation.
        relation: RelName,
        /// The relation's arity.
        expected: usize,
        /// The offending row's arity.
        found: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownRelation(n) => write!(f, "unknown relation {n}"),
            StoreError::UnknownGraph(g) => write!(f, "unknown graph {g}"),
            StoreError::View(e) => write!(f, "invalid graph view: {e}"),
            StoreError::DictionaryFull { limit } => {
                write!(f, "value dictionary full: {limit} code(s) exhausted")
            }
            StoreError::NodeUniverseFull { limit } => {
                write!(f, "CSR node universe full: {limit} dense id(s) exhausted")
            }
            StoreError::Update(e) => write!(f, "update rejected: {e}"),
            StoreError::NotUpdatable(g) => write!(
                f,
                "graph {g} was frozen from an explicit property graph; re-register it to update"
            ),
            StoreError::RowArity {
                relation,
                expected,
                found,
            } => write!(
                f,
                "relation {relation} has arity {expected}, row has {found}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<ViewError> for StoreError {
    fn from(e: ViewError) -> Self {
        StoreError::View(e)
    }
}

impl From<UpdateError> for StoreError {
    fn from(e: UpdateError) -> Self {
        StoreError::Update(e)
    }
}

/// A frozen CSR index plus its post-freeze overlay — the unit of
/// maintainable adjacency, used for each registered binary relation
/// (keyed on dictionary codes) and for each [`GraphEntry`] label
/// index (keyed on the entry's dense node ids).
/// The CSR base is `Arc`-shared: cloning a [`Store`] (how
/// [`crate::ConcurrentStore`] publishes snapshots) shares the frozen
/// index and copies only the small mutable overlay.
#[derive(Debug, Clone, Default)]
pub(crate) struct CsrWithDelta {
    pub(crate) csr: Arc<CsrIndex>,
    pub(crate) delta: DeltaAdjacency,
}

impl CsrWithDelta {
    fn view(&self) -> AdjacencyView<'_> {
        AdjacencyView::new(&self.csr, Some(&self.delta))
    }

    /// A freshly frozen index with an empty overlay — how the bulk
    /// loader hands its sort-built CSRs to the store.
    pub(crate) fn frozen(csr: Arc<CsrIndex>) -> Self {
        CsrWithDelta {
            csr,
            delta: DeltaAdjacency::new(),
        }
    }
}

/// A property-graph index: interned identifiers plus CSR adjacency,
/// overall and per edge label — frozen at registration, then maintained
/// through a delta overlay by `Store::apply_update`.
#[derive(Debug, Clone)]
pub struct GraphEntry {
    form: GraphForm,
    views: Option<[RelName; 6]>,
    id_arity: usize,
    /// Dense node id → identifier tuple (appended past the frozen
    /// universe by `AddNode`; tombstoned ids stay until a fold).
    ids: Vec<Tuple>,
    /// Identifier tuple → dense id.
    id_of: HashMap<Tuple, u32>,
    /// Dense ids of removed nodes.
    dead: HashSet<u32>,
    /// Node-level adjacency over dense ids (edge identities collapsed).
    /// `Arc`-shared so snapshot clones reuse the frozen index.
    csr: Arc<CsrIndex>,
    /// Post-freeze adjacency changes over the same dense id space.
    delta: DeltaAdjacency,
    /// Per-edge-label adjacency over the same dense id space.
    labels: BTreeMap<Label, CsrWithDelta>,
    /// `|E|` of the source graph, parallel edges counted.
    edge_count: usize,
}

impl GraphEntry {
    fn from_graph(
        g: &PropertyGraph,
        views: Option<[RelName; 6]>,
        form: GraphForm,
    ) -> Result<Self, StoreError> {
        let mut ids: Vec<Tuple> = Vec::with_capacity(g.node_count());
        let mut id_of: HashMap<Tuple, u32> = HashMap::with_capacity(g.node_count());
        for n in g.nodes() {
            let dense = u32::try_from(ids.len()).map_err(|_| StoreError::NodeUniverseFull {
                limit: CsrIndex::MAX_NODES,
            })?;
            id_of.insert(n.clone(), dense);
            ids.push(n.clone());
        }
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(g.edge_count());
        let mut by_label: BTreeMap<Label, Vec<(u32, u32)>> = BTreeMap::new();
        for (e, s, t) in g.edge_triples() {
            let pair = (id_of[s], id_of[t]);
            pairs.push(pair);
            for l in g.labels(e) {
                by_label.entry(l.clone()).or_default().push(pair);
            }
        }
        let universe = || 0..ids.len() as u32;
        let mut labels = BTreeMap::new();
        for (l, ps) in by_label {
            labels.insert(
                l,
                CsrWithDelta {
                    csr: Arc::new(CsrIndex::build(universe(), &ps)?),
                    delta: DeltaAdjacency::new(),
                },
            );
        }
        Ok(GraphEntry {
            form,
            views,
            id_arity: g.id_arity(),
            csr: Arc::new(CsrIndex::build(universe(), &pairs)?),
            delta: DeltaAdjacency::new(),
            labels,
            edge_count: g.edge_count(),
            id_of,
            dead: HashSet::new(),
            ids,
        })
    }

    /// Assembles a frozen entry directly from bulk-loader output: node
    /// identifiers in dense-id order, a node-level CSR and per-label
    /// CSRs over that same dense id space, all overlays empty. The
    /// caller (the bulk loader) has already validated the pieces; this
    /// only derives the reverse identifier map.
    pub(crate) fn from_parts(
        form: GraphForm,
        views: Option<[RelName; 6]>,
        id_arity: usize,
        ids: Vec<Tuple>,
        csr: Arc<CsrIndex>,
        labels: BTreeMap<Label, Arc<CsrIndex>>,
        edge_count: usize,
    ) -> Self {
        let id_of = ids
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), i as u32))
            .collect();
        GraphEntry {
            form,
            views,
            id_arity,
            id_of,
            dead: HashSet::new(),
            csr,
            delta: DeltaAdjacency::new(),
            labels: labels
                .into_iter()
                .map(|(l, csr)| (l, CsrWithDelta::frozen(csr)))
                .collect(),
            edge_count,
            ids,
        }
    }

    /// The registered `pgView` form.
    pub fn form(&self) -> GraphForm {
        self.form
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

    /// Labels with a per-label adjacency index, in label order.
    pub fn label_names(&self) -> impl Iterator<Item = &Label> + '_ {
        self.labels.keys()
    }

    /// The per-label adjacency view, when the label occurs on any edge.
    pub fn label_adjacency(&self, label: &Label) -> Option<AdjacencyView<'_>> {
        self.labels.get(label).map(CsrWithDelta::view)
    }

    /// Overlay residency: delta pairs (node-level and per-label) plus
    /// tombstoned and appended nodes — the numbers `STATS` reports and
    /// the fold threshold weighs.
    pub fn overlay_size(&self) -> usize {
        self.delta.change_count()
            + self.dead.len()
            + (self.ids.len() - self.csr.node_count())
            + self
                .labels
                .values()
                .map(|li| li.delta.change_count())
                .sum::<usize>()
    }

    /// Whether any read goes through an overlay.
    pub fn has_overlay(&self) -> bool {
        self.overlay_size() > 0
    }

    /// Degree statistics for the node-level adjacency and every
    /// per-label index — the graph slice of [`StoreStatistics`].
    pub(crate) fn statistics(&self) -> GraphStatistics {
        GraphStatistics {
            adjacency: AdjacencyStatistics::of(&self.csr, self.overlay_size()),
            labels: self
                .labels
                .iter()
                .map(|(l, li)| {
                    let text = l.as_str().map_or_else(|| l.to_string(), String::from);
                    (
                        text,
                        AdjacencyStatistics::of(&li.csr, li.delta.change_count()),
                    )
                })
                .collect(),
        }
    }

    /// Estimated resident bytes of the frozen CSR indexes (node-level
    /// plus per-label) — a [`MemoryBytes`] component.
    pub fn csr_bytes(&self) -> usize {
        self.csr.resident_bytes()
            + self
                .labels
                .values()
                .map(|li| li.csr.resident_bytes())
                .sum::<usize>()
    }

    /// Estimated resident bytes of the mutable overlays (node-level
    /// plus per-label deltas) — a [`MemoryBytes`] component.
    pub fn overlay_bytes(&self) -> usize {
        self.delta.resident_bytes()
            + self
                .labels
                .values()
                .map(|li| li.delta.resident_bytes())
                .sum::<usize>()
    }

    fn overlay_oversized(&self) -> bool {
        overlay_oversized(
            self.overlay_size(),
            self.csr.edge_count().max(self.csr.node_count()),
        )
    }

    /// Whether some pair of nodes is connected by a path of ≥ 1 edge —
    /// equivalently, whether any edge exists. The Boolean `ψreach`
    /// answers come from here without running the closure.
    pub fn has_reach_pair(&self) -> bool {
        self.adjacency().edge_count() > 0
    }

    /// Dense id of a **live** node.
    fn live_dense(&self, id: &Tuple) -> Option<u32> {
        self.id_of
            .get(id)
            .copied()
            .filter(|d| !self.dead.contains(d))
    }

    /// Registers a node identifier (revives a tombstoned one in place).
    fn add_node(&mut self, id: &Tuple) -> Result<(), StoreError> {
        if let Some(&d) = self.id_of.get(id) {
            self.dead.remove(&d);
            return Ok(());
        }
        let dense = u32::try_from(self.ids.len()).map_err(|_| StoreError::NodeUniverseFull {
            limit: CsrIndex::MAX_NODES,
        })?;
        self.id_of.insert(id.clone(), dense);
        self.ids.push(id.clone());
        Ok(())
    }

    /// Tombstones a node (the caller has removed its incident edges).
    fn remove_node(&mut self, id: &Tuple) {
        if let Some(&d) = self.id_of.get(id) {
            self.dead.insert(d);
        }
    }

    /// Records one more edge between the endpoints.
    fn add_edge(&mut self, src: &Tuple, tgt: &Tuple) {
        let (Some(ds), Some(dt)) = (self.live_dense(src), self.live_dense(tgt)) else {
            return; // endpoints validated upstream; defensive no-op
        };
        self.edge_count += 1;
        let in_base = self.csr.has_pair(ds, dt);
        self.delta.add(ds, dt, in_base);
    }

    /// Records one fewer edge; `last` says no other live edge connects
    /// the same endpoints, so the adjacency pair goes too.
    fn remove_edge(&mut self, src: &Tuple, tgt: &Tuple, last: bool) {
        self.edge_count = self.edge_count.saturating_sub(1);
        if !last {
            return;
        }
        if let (Some(&ds), Some(&dt)) = (self.id_of.get(src), self.id_of.get(tgt)) {
            let in_base = self.csr.has_pair(ds, dt);
            self.delta.remove(ds, dt, in_base);
        }
    }

    /// Records a labeled connection between the endpoints.
    fn label_add(&mut self, label: &Label, src: &Tuple, tgt: &Tuple) {
        let (Some(ds), Some(dt)) = (self.live_dense(src), self.live_dense(tgt)) else {
            return;
        };
        let li = self.labels.entry(label.clone()).or_default();
        let in_base = li.csr.has_pair(ds, dt);
        li.delta.add(ds, dt, in_base);
    }

    /// Retracts a labeled connection; `last` says no other live edge
    /// with this label connects the same endpoints.
    fn label_remove(&mut self, label: &Label, src: &Tuple, tgt: &Tuple, last: bool) {
        if !last {
            return;
        }
        if let Some(li) = self.labels.get_mut(label) {
            if let (Some(&ds), Some(&dt)) = (self.id_of.get(src), self.id_of.get(tgt)) {
                let in_base = li.csr.has_pair(ds, dt);
                li.delta.remove(ds, dt, in_base);
            }
        }
    }

    /// Folds every overlay back into fresh CSR indexes: live nodes are
    /// re-densified in identifier order (restoring the sorted-emission
    /// fast path of [`GraphEntry::reach_relation`]), effective pairs
    /// rebuild the node-level and per-label indexes, and tombstones,
    /// appended ids and deltas are dropped.
    fn fold(&mut self) -> Result<(), StoreError> {
        if !self.has_overlay() {
            return Ok(());
        }
        let mut live: Vec<Tuple> = (0..self.ids.len() as u32)
            .filter(|d| !self.dead.contains(d))
            .map(|d| self.ids[d as usize].clone())
            .collect();
        live.sort();
        let id_of: HashMap<Tuple, u32> = live
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), i as u32))
            .collect();
        // Dead endpoints cannot carry effective pairs (updates remove
        // incident edges first); filter defensively all the same.
        let remap = |pairs: Vec<(u32, u32)>| -> Vec<(u32, u32)> {
            pairs
                .into_iter()
                .filter_map(|(s, t)| {
                    let s = id_of.get(&self.ids[s as usize])?;
                    let t = id_of.get(&self.ids[t as usize])?;
                    Some((*s, *t))
                })
                .collect()
        };
        let universe = || 0..live.len() as u32;
        let pairs = remap(self.adjacency().effective_pairs());
        let csr = Arc::new(CsrIndex::build(universe(), &pairs)?);
        let mut labels = BTreeMap::new();
        for (l, li) in &self.labels {
            let ps = remap(li.view().effective_pairs());
            if ps.is_empty() {
                continue; // the label no longer occurs on any edge
            }
            labels.insert(
                l.clone(),
                CsrWithDelta {
                    csr: Arc::new(CsrIndex::build(universe(), &ps)?),
                    delta: DeltaAdjacency::new(),
                },
            );
        }
        self.csr = csr;
        self.labels = labels;
        self.delta = DeltaAdjacency::new();
        self.dead.clear();
        self.ids = live;
        self.id_of = id_of;
        Ok(())
    }

    /// No overlay and no appended ids: the frozen invariants (dense id
    /// order = identifier order) still hold.
    fn is_fresh(&self) -> bool {
        self.delta.is_empty() && self.dead.is_empty() && self.ids.len() == self.csr.node_count()
    }

    /// The reachability relation of the graph as `(s̄, t̄)` rows of
    /// arity `2k`: all pairs connected by **one or more** edges, plus
    /// — when `at_least_one` is false — the reflexive pairs over the
    /// live node set (the `ψ^{0..∞}` semantics). `swap` emits `(t̄, s̄)`
    /// instead, matching `(y, x)`-ordered output items.
    ///
    /// On a fresh (overlay-free) entry dense ids are minted in
    /// identifier order, so emitting pairs grouped by source with
    /// sorted targets yields rows already in relation order — the
    /// result set then builds in one linear pass. With an overlay the
    /// sweep reads through the delta per live source instead.
    pub fn reach_relation(&self, at_least_one: bool, swap: bool) -> Relation {
        if !self.is_fresh() {
            return self.reach_relation_overlay(at_least_one, swap);
        }
        let mut pairs = self.csr.all_pairs_reach();
        if swap {
            // `(t̄, s̄)` rows sort by target first.
            pairs.sort_unstable_by_key(|&(s, t)| (t, s));
        }
        let diagonal = if at_least_one { 0 } else { self.ids.len() };
        let mut rows: Vec<Tuple> = Vec::with_capacity(pairs.len() + diagonal);
        let mut emit = |s: u32, t: u32| {
            let (a, b) = (&self.ids[s as usize], &self.ids[t as usize]);
            rows.push(if swap { b.concat(a) } else { a.concat(b) });
        };
        // Walk the contiguous per-lead runs (lead = source, or target
        // when swapped), sorting each run's trailing ids and merging
        // the reflexive pair in at its place.
        let lead = |p: &(u32, u32)| if swap { p.1 } else { p.0 };
        let mut i = 0;
        for s in 0..self.ids.len() as u32 {
            let start = i;
            while i < pairs.len() && lead(&pairs[i]) == s {
                i += 1;
            }
            let mut trail: Vec<u32> = pairs[start..i]
                .iter()
                .map(|p| if swap { p.0 } else { p.1 })
                .collect();
            trail.sort_unstable();
            if !at_least_one {
                if let Err(pos) = trail.binary_search(&s) {
                    trail.insert(pos, s);
                }
            }
            for t in trail {
                if swap {
                    emit(t, s);
                } else {
                    emit(s, t);
                }
            }
        }
        Relation::from_rows(2 * self.id_arity, rows).expect("identifier tuples have arity k")
    }

    /// The overlay-aware reachability sweep: one multi-source frontier
    /// sweep per live source through [`GraphEntry::adjacency`].
    fn reach_relation_overlay(&self, at_least_one: bool, swap: bool) -> Relation {
        let view = self.adjacency();
        let mut rows: Vec<Tuple> = Vec::new();
        for s in 0..self.ids.len() as u32 {
            if self.dead.contains(&s) {
                continue;
            }
            let mut seeds: Vec<u32> = Vec::new();
            view.for_each_out(s, |t| seeds.push(t));
            let mut targets = view.reach_from(seeds);
            if !at_least_one && !targets.contains(&s) {
                targets.push(s);
            }
            let a = &self.ids[s as usize];
            for t in targets {
                let b = &self.ids[t as usize];
                rows.push(if swap { b.concat(a) } else { a.concat(b) });
            }
        }
        Relation::from_rows(2 * self.id_arity, rows).expect("identifier tuples have arity k")
    }
}

/// The effect of one [`Store::compact`] call, also surfaced through
/// [`StoreStats::last_compaction`].
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

/// Session-cumulative store access counters — how much physical work
/// the executor asked of this store since creation (or the last
/// [`AccessCounters::reset`]). Recording goes through `&self` relaxed
/// atomics so the read paths stay `&Store`; the executor amortizes
/// every increment to once per batch, probe sweep, or decode boundary,
/// so the counters cost nothing measurable on the hot paths.
///
/// Counts are *totals*, not per-query: the shell's `METRICS;` prints
/// them (and `METRICS RESET;` zeroes them) as the session-level
/// complement of the per-query [`StoreStats`]/profile surfaces.
#[derive(Debug, Default)]
pub struct AccessCounters {
    index_scan_rows: AtomicU64,
    csr_neighbor_rows: AtomicU64,
    csr_sweep_sources: AtomicU64,
    overlay_reads: AtomicU64,
    dense_reads: AtomicU64,
    dict_decodes: AtomicU64,
    writer_probes: AtomicU64,
    writer_probe_rows: AtomicU64,
}

impl Clone for AccessCounters {
    fn clone(&self) -> Self {
        let s = self.snapshot();
        AccessCounters {
            index_scan_rows: AtomicU64::new(s.index_scan_rows),
            csr_neighbor_rows: AtomicU64::new(s.csr_neighbor_rows),
            csr_sweep_sources: AtomicU64::new(s.csr_sweep_sources),
            overlay_reads: AtomicU64::new(s.overlay_reads),
            dense_reads: AtomicU64::new(s.dense_reads),
            dict_decodes: AtomicU64::new(s.dict_decodes),
            writer_probes: AtomicU64::new(s.writer_probes),
            writer_probe_rows: AtomicU64::new(s.writer_probe_rows),
        }
    }
}

impl AccessCounters {
    /// Adds `n` rows served by `IndexScan` from columnar storage.
    pub fn record_index_scan_rows(&self, n: u64) {
        self.index_scan_rows.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` neighbor rows produced by CSR adjacency probes.
    pub fn record_csr_neighbor_rows(&self, n: u64) {
        self.csr_neighbor_rows.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` source groups swept by CSR reachability fixpoints.
    pub fn record_csr_sweep_sources(&self, n: u64) {
        self.csr_sweep_sources.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one adjacency read, classified by whether the view had
    /// to merge a delta overlay (`true`) or read the frozen CSR alone.
    pub fn record_adjacency_read(&self, overlay: bool) {
        if overlay {
            self.overlay_reads.fetch_add(1, Ordering::Relaxed);
        } else {
            self.dense_reads.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Adds `n` dictionary decode calls (code → value).
    pub fn record_dict_decodes(&self, n: u64) {
        self.dict_decodes.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one writer-path membership probe (edge endpoints,
    /// labels, property rows) that examined `candidates` indexed rows.
    /// The candidate totals are how the indexed writer path proves it
    /// scales with matches, not with the relation (`tests` assert it).
    pub fn record_writer_probe(&self, candidates: u64) {
        self.writer_probes.fetch_add(1, Ordering::Relaxed);
        self.writer_probe_rows
            .fetch_add(candidates, Ordering::Relaxed);
    }

    /// A plain-integer snapshot of the current totals.
    pub fn snapshot(&self) -> AccessSnapshot {
        AccessSnapshot {
            index_scan_rows: self.index_scan_rows.load(Ordering::Relaxed),
            csr_neighbor_rows: self.csr_neighbor_rows.load(Ordering::Relaxed),
            csr_sweep_sources: self.csr_sweep_sources.load(Ordering::Relaxed),
            overlay_reads: self.overlay_reads.load(Ordering::Relaxed),
            dense_reads: self.dense_reads.load(Ordering::Relaxed),
            dict_decodes: self.dict_decodes.load(Ordering::Relaxed),
            writer_probes: self.writer_probes.load(Ordering::Relaxed),
            writer_probe_rows: self.writer_probe_rows.load(Ordering::Relaxed),
        }
    }

    /// Zeroes every counter (the shell's `METRICS RESET;`).
    pub fn reset(&self) {
        self.index_scan_rows.store(0, Ordering::Relaxed);
        self.csr_neighbor_rows.store(0, Ordering::Relaxed);
        self.csr_sweep_sources.store(0, Ordering::Relaxed);
        self.overlay_reads.store(0, Ordering::Relaxed);
        self.dense_reads.store(0, Ordering::Relaxed);
        self.dict_decodes.store(0, Ordering::Relaxed);
        self.writer_probes.store(0, Ordering::Relaxed);
        self.writer_probe_rows.store(0, Ordering::Relaxed);
    }
}

/// Plain-integer totals read from [`AccessCounters::snapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessSnapshot {
    /// Rows `IndexScan` served from columnar storage.
    pub index_scan_rows: u64,
    /// Neighbor rows produced by CSR adjacency probes.
    pub csr_neighbor_rows: u64,
    /// Source groups swept by CSR reachability fixpoints.
    pub csr_sweep_sources: u64,
    /// Adjacency reads that merged a delta overlay.
    pub overlay_reads: u64,
    /// Adjacency reads answered by the frozen CSR alone.
    pub dense_reads: u64,
    /// Dictionary decode calls (code → value).
    pub dict_decodes: u64,
    /// Writer-path membership probes (edge endpoints, labels, property
    /// rows) answered by the column end indexes.
    pub writer_probes: u64,
    /// Candidate rows those probes examined — O(matches), not
    /// O(relation), which is the point of routing them through the
    /// indexes.
    pub writer_probe_rows: u64,
}

impl AccessSnapshot {
    /// The counters accumulated since `earlier` was taken
    /// (saturating, in case `earlier` post-dates a reset).
    pub fn since(&self, earlier: &AccessSnapshot) -> AccessSnapshot {
        AccessSnapshot {
            index_scan_rows: self.index_scan_rows.saturating_sub(earlier.index_scan_rows),
            csr_neighbor_rows: self
                .csr_neighbor_rows
                .saturating_sub(earlier.csr_neighbor_rows),
            csr_sweep_sources: self
                .csr_sweep_sources
                .saturating_sub(earlier.csr_sweep_sources),
            overlay_reads: self.overlay_reads.saturating_sub(earlier.overlay_reads),
            dense_reads: self.dense_reads.saturating_sub(earlier.dense_reads),
            dict_decodes: self.dict_decodes.saturating_sub(earlier.dict_decodes),
            writer_probes: self.writer_probes.saturating_sub(earlier.writer_probes),
            writer_probe_rows: self
                .writer_probe_rows
                .saturating_sub(earlier.writer_probe_rows),
        }
    }
}

impl fmt::Display for AccessSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "store access counters (session-cumulative):")?;
        writeln!(f, "  index scan rows served : {}", self.index_scan_rows)?;
        writeln!(f, "  CSR neighbor rows      : {}", self.csr_neighbor_rows)?;
        writeln!(f, "  CSR sweep sources      : {}", self.csr_sweep_sources)?;
        writeln!(
            f,
            "  adjacency reads        : {} overlay / {} dense",
            self.overlay_reads, self.dense_reads
        )?;
        writeln!(f, "  dictionary decodes     : {}", self.dict_decodes)?;
        write!(
            f,
            "  writer probes          : {} ({} candidate row(s))",
            self.writer_probes, self.writer_probe_rows
        )
    }
}

/// The session catalog: dictionary-coded relations, CSR adjacency for
/// binary relations, and graph views — registered once, then maintained
/// in place by the update entry points.
/// Since PR 8 the bulky immutable pieces — the value dictionary, each
/// relation's columns, and every frozen CSR base — sit behind `Arc`s:
/// cloning a `Store` is cheap (shared payloads, copy-on-write via
/// [`Arc::make_mut`] on mutation), which is what lets
/// [`crate::ConcurrentStore`] publish every committed state as an
/// immutable [`crate::StoreSnapshot`] while readers keep older
/// snapshots pinned.
#[derive(Debug, Clone, Default)]
pub struct Store {
    pub(crate) dict: Arc<Dictionary>,
    pub(crate) relations: BTreeMap<RelName, Arc<ColumnarRelation>>,
    pub(crate) adjacency: BTreeMap<RelName, CsrWithDelta>,
    pub(crate) graphs: BTreeMap<String, GraphEntry>,
    /// The `(views, form)` recipe of every view-registered graph —
    /// retained even while the entry is invalid (a mutation can pass
    /// through transiently inconsistent states, e.g. an edge inserted
    /// before its endpoints), so a later mutation that restores view
    /// validity refreezes the graph instead of losing it.
    pub(crate) view_specs: BTreeMap<String, ([RelName; 6], GraphForm)>,
    /// Set when a deletion may have shrunk the active domain; the
    /// reserved ⟨adom⟩ relation is then recomputed once per batch.
    pub(crate) adom_dirty: bool,
    last_compaction: Option<CompactionStats>,
    /// Session-cumulative access counters (`&self`-recorded, relaxed
    /// atomics), surfaced by the shell's `METRICS;`. `Arc`-shared so
    /// every snapshot clone of the store records into the same totals —
    /// a server's `METRICS` aggregates across all published snapshots.
    counters: Arc<AccessCounters>,
    /// Lazily-computed planner statistics (PR 10). Shared by snapshot
    /// clones exactly like the columns and CSR bases; every mutation
    /// swaps in a fresh slot (see [`StatsCache::invalidate`]).
    pub(crate) stats_cache: StatsCache,
}

/// The cached [`StoreStatistics`] slot plus its invalidation epoch.
///
/// Cloning a [`Store`] clones the `Arc` — a pinned snapshot keeps the
/// statistics computed against the state it pins, for free. A mutation
/// replaces the slot (never writes through it), so no clone ever
/// observes statistics newer than its data, and bumps the epoch — the
/// staleness suite asserts the bump per mutation class.
#[derive(Debug, Clone, Default)]
pub(crate) struct StatsCache {
    slot: Arc<OnceLock<Arc<StoreStatistics>>>,
    epoch: u64,
}

impl StatsCache {
    pub(crate) fn invalidate(&mut self) {
        self.slot = Arc::new(OnceLock::new());
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
            dict: Arc::new(Dictionary::with_limit(limit)),
            ..Store::default()
        }
    }

    /// The session-cumulative [`AccessCounters`]. Recording is
    /// `&self`: the executor's read paths count through this without
    /// threading any mutability into the store.
    pub fn counters(&self) -> &AccessCounters {
        &self.counters
    }

    /// The planner statistics of the current state — computed on first
    /// use, then served from the cache until the next mutation (the two
    /// `Arc`s compare `ptr_eq` while the cache holds). See
    /// [`StoreStatistics`] for what is summarized and `StatsCache`
    /// (crate-private) for the snapshot-consistency contract.
    pub fn statistics(&self) -> Arc<StoreStatistics> {
        Arc::clone(
            self.stats_cache
                .slot
                .get_or_init(|| Arc::new(StoreStatistics::compute(self, self.stats_cache.epoch))),
        )
    }

    /// The statistics invalidation epoch: bumped by every mutation, so
    /// `statistics().epoch` equals this exactly when the cached
    /// snapshot is current. Test hook for the staleness suite.
    pub fn statistics_epoch(&self) -> u64 {
        self.stats_cache.epoch
    }

    /// Registers every relation of `db` (columnar + adjacency for the
    /// binary ones) and the reserved [`ADOM_REL`] active-domain
    /// relation. The usual way to obtain a store.
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
            .expect("a fresh store has no graphs to re-validate and a full u32 code space");
        s
    }

    /// Registers (or re-registers) the relations of `db`. A
    /// re-registration must not leave anything answering for the old
    /// data: relations and adjacency absent from `db` are dropped,
    /// graph entries registered through [`Store::register_view_graph`]
    /// are re-validated and re-frozen from the new state (the `Err`
    /// case is a view that became invalid), and graphs frozen from an
    /// explicit [`PropertyGraph`] (no view names) cannot be rebuilt
    /// here and are dropped — their owner re-registers them.
    pub fn register_database(&mut self, db: &Database) -> Result<(), StoreError> {
        let rebuild: Vec<(String, [RelName; 6], GraphForm)> = self
            .view_specs
            .iter()
            .map(|(n, (v, f))| (n.clone(), v.clone(), *f))
            .collect();
        self.graphs.clear();
        self.relations.clear();
        self.adjacency.clear();
        self.adom_dirty = false;
        for (name, rel) in db.iter() {
            self.register_relation_raw(name.clone(), rel)?;
        }
        self.register_relation_raw(ADOM_REL.into(), &db.active_domain_relation())?;
        for (name, views, form) in rebuild {
            self.register_view_graph(name, views, db, form)?;
        }
        self.stats_cache.invalidate();
        Ok(())
    }

    /// Registers one relation: columnar always, CSR when binary.
    /// Fails with [`StoreError::DictionaryFull`] when interning the
    /// relation's values exhausts the dictionary's code space. A
    /// re-registration refreezes every view graph backed by this
    /// relation (dropping entries whose view became invalid) — stale
    /// frozen state must not keep answering for replaced data.
    pub fn register_relation(&mut self, name: RelName, rel: &Relation) -> Result<(), StoreError> {
        self.stats_cache.invalidate();
        self.register_relation_raw(name.clone(), rel)?;
        // A wholesale replacement can both add and drop values.
        self.adom_dirty = true;
        self.refresh_adom()?;
        self.refreeze_graphs_backed_by(&name, true)
    }

    /// The registration body, without graph repair — used by
    /// [`Store::register_database`], which rebuilds graphs itself once
    /// every relation is in place.
    fn register_relation_raw(&mut self, name: RelName, rel: &Relation) -> Result<(), StoreError> {
        let col = ColumnarRelation::from_relation(rel, Arc::make_mut(&mut self.dict))?;
        if rel.arity() == 2 {
            let pairs: Vec<(u32, u32)> = col
                .live_rows()
                .map(|i| (col.code_at(i, 0), col.code_at(i, 1)))
                .collect();
            let universe = pairs.iter().flat_map(|&(a, b)| [a, b]);
            self.adjacency.insert(
                name.clone(),
                CsrWithDelta {
                    csr: Arc::new(CsrIndex::build(universe, &pairs)?),
                    delta: DeltaAdjacency::new(),
                },
            );
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
    /// as a [`GraphEntry`] under `graph_name`.
    pub fn register_view_graph(
        &mut self,
        graph_name: impl Into<String>,
        views: [RelName; 6],
        db: &Database,
        form: GraphForm,
    ) -> Result<(), StoreError> {
        let mut rels = Vec::with_capacity(6);
        for name in &views {
            rels.push(
                db.get(name)
                    .ok_or_else(|| StoreError::UnknownRelation(name.clone()))?
                    .clone(),
            );
        }
        let mut it = rels.into_iter();
        let vr = ViewRelations::new(
            it.next().unwrap(),
            it.next().unwrap(),
            it.next().unwrap(),
            it.next().unwrap(),
            it.next().unwrap(),
            it.next().unwrap(),
        );
        let g = Self::apply_view(&vr, form)?;
        self.register_graph(graph_name, &g, Some(views), form)
    }

    fn apply_view(vr: &ViewRelations, form: GraphForm) -> Result<PropertyGraph, StoreError> {
        Ok(match form {
            GraphForm::Exact(n) => pg_view_exact(n, vr, ViewMode::Strict)?,
            GraphForm::Bounded(n) => pg_view_bounded(n, vr, ViewMode::Strict)?,
            GraphForm::Ext => pg_view_ext(vr, ViewMode::Strict)?,
        })
    }

    /// Freezes an already-built (hence already-validated) property
    /// graph. `views` records which six base relations produced it, so
    /// planners can match pattern calls onto the entry by name and the
    /// update path knows which relations to edit. Fails only when the
    /// node universe outgrows the dense id space.
    pub fn register_graph(
        &mut self,
        graph_name: impl Into<String>,
        g: &PropertyGraph,
        views: Option<[RelName; 6]>,
        form: GraphForm,
    ) -> Result<(), StoreError> {
        let name = graph_name.into();
        self.stats_cache.invalidate();
        let entry = GraphEntry::from_graph(g, views.clone(), form)?;
        match views {
            Some(v) => {
                self.view_specs.insert(name.clone(), (v, form));
            }
            None => {
                self.view_specs.remove(&name);
            }
        }
        self.graphs.insert(name, entry);
        Ok(())
    }

    /// The shared dictionary.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// The dictionary for mutation: copy-on-write when a snapshot still
    /// shares it, plain access otherwise.
    fn dict_mut(&mut self) -> &mut Dictionary {
        Arc::make_mut(&mut self.dict)
    }

    /// The columnar relation for mutation (copy-on-write).
    fn relation_mut(&mut self, name: &RelName) -> Option<&mut ColumnarRelation> {
        self.relations.get_mut(name).map(Arc::make_mut)
    }

    /// Builds `name`'s row/end indexes if they are still deferred.
    /// Bulk-loaded relations keep indexes off the ingest path (the
    /// O(live)-scan fix of PR 9); the first row-level writer pays the
    /// one-time build here so its duplicate/revive probes stay O(1).
    /// A no-op — no copy-on-write, no work — when already indexed.
    fn ensure_relation_indexes(&mut self, name: &RelName) {
        if self
            .relations
            .get(name)
            .is_some_and(|col| !col.has_indexes())
        {
            self.relation_mut(name)
                .expect("present above")
                .ensure_indexes();
        }
    }

    /// Interns a plan-time literal constant into the shared dictionary,
    /// so coded filters can compare it against column codes without a
    /// decode. This is an **optional** entry point for sessions that
    /// hold a mutable store while preparing queries — nothing in the
    /// engine calls it today, because the coded executor degrades
    /// gracefully for *un*-interned constants (an equality against a
    /// value no stored row contains is constant-false, and order
    /// comparisons decode on compare). Interning is an optimization,
    /// never a correctness requirement. Note that [`Store::compact`]
    /// rebuilds the dictionary, invalidating previously returned codes.
    pub fn intern_literal(&mut self, v: &Value) -> Result<u32, StoreError> {
        self.stats_cache.invalidate();
        self.dict_mut().intern(v)
    }

    /// The code of a value, when any registered row contains it.
    pub fn encode(&self, v: &Value) -> Option<u32> {
        self.dict.code(v)
    }

    /// Decodes a dictionary code.
    pub fn decode(&self, code: u32) -> &Value {
        self.dict.value(code)
    }

    /// A registered columnar relation.
    pub fn relation(&self, name: &RelName) -> Option<&ColumnarRelation> {
        self.relations.get(name).map(|a| &**a)
    }

    /// Whether `name` is registered.
    pub fn has_relation(&self, name: &RelName) -> bool {
        self.relations.contains_key(name)
    }

    /// Decodes a registered relation's live rows (stored order).
    pub fn scan(&self, name: &RelName) -> Option<Vec<Tuple>> {
        self.relations.get(name).map(|c| c.decode_rows(&self.dict))
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

    /// The graph entry registered from exactly these six view relations
    /// under this form, if any — the planner's match point for pattern
    /// calls over base relations.
    pub fn graph_for_views(&self, views: &[RelName; 6], form: GraphForm) -> Option<&GraphEntry> {
        self.graphs
            .values()
            .find(|e| e.form == form && e.views.as_ref() == Some(views))
    }

    /// Registered graph names with entries, in name order.
    pub fn graph_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.graphs.keys().map(String::as_str)
    }

    /// Drops a registered graph (entry and view recipe). `true` when
    /// one existed. Owners of graphs frozen from explicit
    /// [`PropertyGraph`]s use this when their source data changes and
    /// the rebuild fails — a dropped entry falls back to per-query
    /// evaluation instead of answering stale.
    pub fn drop_graph(&mut self, name: &str) -> bool {
        self.stats_cache.invalidate();
        self.view_specs.remove(name);
        self.graphs.remove(name).is_some()
    }

    // ------------------------------------------------------------------
    // Incremental maintenance (PR 5).
    // ------------------------------------------------------------------

    fn encode_row(&self, t: &Tuple) -> Option<Vec<u32>> {
        t.iter().map(|v| self.dict.code(v)).collect()
    }

    /// Whether a registered relation holds `t` as a live row.
    pub fn rel_contains(&self, name: &RelName, t: &Tuple) -> bool {
        let Some(col) = self.relations.get(name) else {
            return false;
        };
        if col.arity() != t.arity() {
            return false;
        }
        self.encode_row(t)
            .is_some_and(|codes| col.find_live(&codes).is_some())
    }

    /// Inserts one row into a registered relation (registering a fresh
    /// empty relation of the row's arity when the name is new):
    /// append-or-revive in the columnar store, adjacency overlay
    /// maintenance for binary relations, active-domain refresh, and a
    /// refreeze of any view graph backed by the relation. Returns
    /// whether the row was new.
    pub fn insert_row(&mut self, name: impl Into<RelName>, t: &Tuple) -> Result<bool, StoreError> {
        let name = name.into();
        self.stats_cache.invalidate();
        if !self.relations.contains_key(&name) {
            self.relations
                .insert(name.clone(), Arc::new(ColumnarRelation::empty(t.arity())));
            if t.arity() == 2 {
                self.adjacency.insert(name.clone(), CsrWithDelta::default());
            }
        }
        let added = self.append_row_raw(&name, t)?;
        if added {
            self.refresh_adom()?;
            self.refreeze_graphs_backed_by(&name, false)?;
            self.fold_adjacency_if_oversized(&name)?;
        }
        Ok(added)
    }

    /// Deletes one row from a registered relation (tombstone, adjacency
    /// overlay, active-domain refresh, graph refreeze). Returns whether
    /// the row existed.
    pub fn delete_row(&mut self, name: &RelName, t: &Tuple) -> Result<bool, StoreError> {
        self.stats_cache.invalidate();
        let removed = self.tombstone_row_raw(name, t);
        if removed {
            self.refresh_adom()?;
            self.refreeze_graphs_backed_by(name, false)?;
            self.fold_adjacency_if_oversized(name)?;
        }
        Ok(removed)
    }

    /// Applies one Section 7 update to a graph registered through
    /// [`Store::register_view_graph`]: the six backing relations are
    /// edited in place (append/tombstone) and the graph's frozen entry
    /// is maintained through its delta overlay — no re-registration,
    /// no `pgView` re-validation. Validation mirrors
    /// `pgq_graph::updates::apply`, so a rejected update leaves
    /// relations and graphs untouched — all fallible steps (checks,
    /// code minting, dense-id minting) run before the first row lands;
    /// exhaustion errors may leave freshly minted dictionary codes,
    /// stale at worst and reclaimed by [`Store::compact`]. Oversized
    /// overlays are folded on the way out.
    pub fn apply_update(&mut self, graph: &str, update: &Update) -> Result<(), StoreError> {
        self.stats_cache.invalidate();
        self.apply_update_raw(graph, update)?;
        self.finish_updates(graph)
    }

    /// [`Store::apply_update`] for a batch, refreshing the active
    /// domain and folding overlays once at the end. Fails fast on the
    /// first rejected update — updates before it stay applied
    /// (per-update atomicity, not per-batch), and the finishing pass
    /// (⟨adom⟩ refresh, overlay folds) still runs for them, so the
    /// store is internally consistent even when the batch errors.
    pub fn apply_updates(&mut self, graph: &str, updates: &[Update]) -> Result<(), StoreError> {
        self.stats_cache.invalidate();
        let mut result = Ok(());
        let mut applied = 0usize;
        for u in updates {
            match self.apply_update_raw(graph, u) {
                Ok(()) => applied += 1,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        if applied > 0 {
            self.finish_updates(graph)?;
        }
        result
    }

    fn finish_updates(&mut self, graph: &str) -> Result<(), StoreError> {
        self.refresh_adom()?;
        if let Some(views) = self.graphs.get(graph).and_then(|e| e.views.clone()) {
            for name in &views {
                self.fold_adjacency_if_oversized(name)?;
            }
        }
        if let Some(e) = self.graphs.get_mut(graph) {
            if e.overlay_oversized() {
                e.fold()?;
            }
        }
        Ok(())
    }

    fn apply_update_raw(&mut self, graph: &str, update: &Update) -> Result<(), StoreError> {
        let entry = self
            .graphs
            .get(graph)
            .ok_or_else(|| StoreError::UnknownGraph(graph.to_string()))?;
        let views = entry
            .views
            .clone()
            .ok_or_else(|| StoreError::NotUpdatable(graph.to_string()))?;
        let k = entry.id_arity;
        for v in &views {
            if !self.relations.contains_key(v) {
                return Err(StoreError::UnknownRelation(v.clone()));
            }
        }
        let [rn, re, rs, rt, rl, rp] = views.clone();
        let check_arity = |id: &Tuple| -> Result<(), StoreError> {
            if id.arity() == k {
                Ok(())
            } else {
                Err(UpdateError::ArityMismatch {
                    expected: k,
                    found: id.arity(),
                }
                .into())
            }
        };
        match update {
            Update::AddNode(id) => {
                check_arity(id)?;
                if self.rel_contains(&rn, id) || self.rel_contains(&re, id) {
                    return Err(UpdateError::IdInUse(id.clone()).into());
                }
                // Fallible steps (code minting, dense-id minting) run
                // before any relation row lands, so an exhaustion
                // error cannot leave a half-applied update behind.
                self.intern_tuple(id)?;
                self.graph_entry_mut(graph).add_node(id)?;
                self.append_row_raw(&rn, id)?;
            }
            Update::RemoveNode(id) => {
                check_arity(id)?;
                if !self.rel_contains(&rn, id) {
                    return Err(UpdateError::NoSuchElement(id.clone()).into());
                }
                if !self.edges_touching(&rs, &rt, id, k).is_empty() {
                    return Err(UpdateError::NodeHasEdges(id.clone()).into());
                }
                self.tombstone_row_raw(&rn, id);
                self.strip_annotation_rows(&rl, &rp, id);
                self.graph_entry_mut(graph).remove_node(id);
            }
            Update::DetachRemoveNode(id) => {
                check_arity(id)?;
                if !self.rel_contains(&rn, id) {
                    return Err(UpdateError::NoSuchElement(id.clone()).into());
                }
                for e in self.edges_touching(&rs, &rt, id, k) {
                    self.remove_edge_everywhere(graph, &views, &e, k)?;
                }
                self.tombstone_row_raw(&rn, id);
                self.strip_annotation_rows(&rl, &rp, id);
                self.graph_entry_mut(graph).remove_node(id);
            }
            Update::AddEdge { id, src, tgt } => {
                check_arity(id)?;
                check_arity(src)?;
                check_arity(tgt)?;
                if self.rel_contains(&rn, id) || self.rel_contains(&re, id) {
                    return Err(UpdateError::IdInUse(id.clone()).into());
                }
                if !self.rel_contains(&rn, src) {
                    return Err(UpdateError::DanglingEndpoint(src.clone()).into());
                }
                if !self.rel_contains(&rn, tgt) {
                    return Err(UpdateError::DanglingEndpoint(tgt.clone()).into());
                }
                // src/tgt are live N rows, hence already interned; the
                // id is the only possible DictionaryFull source — mint
                // its codes before the first of the three appends.
                self.intern_tuple(id)?;
                self.append_row_raw(&re, id)?;
                self.append_row_raw(&rs, &id.concat(src))?;
                self.append_row_raw(&rt, &id.concat(tgt))?;
                self.graph_entry_mut(graph).add_edge(src, tgt);
            }
            Update::RemoveEdge(id) => {
                check_arity(id)?;
                if !self.rel_contains(&re, id) {
                    return Err(UpdateError::NoSuchElement(id.clone()).into());
                }
                self.remove_edge_everywhere(graph, &views, id, k)?;
            }
            Update::AddLabel(id, label) => {
                check_arity(id)?;
                let is_edge = self.rel_contains(&re, id);
                if !is_edge && !self.rel_contains(&rn, id) {
                    return Err(UpdateError::NoSuchElement(id.clone()).into());
                }
                self.intern_tuple(&Tuple::unary(label.clone()))?;
                let row = id.concat(&Tuple::unary(label.clone()));
                if self.append_row_raw(&rl, &row)? && is_edge {
                    let (src, tgt) = self.edge_endpoints(&rs, &rt, id, k)?;
                    self.graph_entry_mut(graph).label_add(label, &src, &tgt);
                }
            }
            Update::RemoveLabel(id, label) => {
                check_arity(id)?;
                let is_edge = self.rel_contains(&re, id);
                if !is_edge && !self.rel_contains(&rn, id) {
                    return Err(UpdateError::NoSuchElement(id.clone()).into());
                }
                let row = id.concat(&Tuple::unary(label.clone()));
                if self.tombstone_row_raw(&rl, &row) && is_edge {
                    let (src, tgt) = self.edge_endpoints(&rs, &rt, id, k)?;
                    let still = self.labeled_edge_between(&rs, &rt, &rl, label, (&src, &tgt), k);
                    self.graph_entry_mut(graph)
                        .label_remove(label, &src, &tgt, !still);
                }
            }
            Update::SetProp(id, key, value) => {
                check_arity(id)?;
                if !self.rel_contains(&rn, id) && !self.rel_contains(&re, id) {
                    return Err(UpdateError::NoSuchElement(id.clone()).into());
                }
                // Mint the key/value codes before dropping the old
                // row, or an exhaustion error would lose the property.
                self.intern_tuple(&Tuple::new(vec![key.clone(), value.clone()]))?;
                self.remove_prop_rows(&rp, id, key, k);
                self.append_row_raw(
                    &rp,
                    &id.concat(&Tuple::new(vec![key.clone(), value.clone()])),
                )?;
            }
            Update::RemoveProp(id, key) => {
                check_arity(id)?;
                if !self.rel_contains(&rn, id) && !self.rel_contains(&re, id) {
                    return Err(UpdateError::NoSuchElement(id.clone()).into());
                }
                self.remove_prop_rows(&rp, id, key, k);
            }
        }
        Ok(())
    }

    /// Interns every value of `t` up front, so the mutation that
    /// follows cannot fail on [`StoreError::DictionaryFull`] halfway
    /// through a multi-relation edit. A rejection after this point
    /// leaves relations and graphs untouched (the codes minted here
    /// are at worst stale, and [`Store::compact`] reclaims them).
    fn intern_tuple(&mut self, t: &Tuple) -> Result<(), StoreError> {
        for v in t.iter() {
            self.dict_mut().intern(v)?;
        }
        Ok(())
    }

    /// The graph entry the update path already looked up by name.
    fn graph_entry_mut(&mut self, graph: &str) -> &mut GraphEntry {
        self.graphs.get_mut(graph).expect("entry looked up above")
    }

    /// Appends a row (reviving an identical tombstoned one when
    /// present), maintaining the adjacency overlay of binary relations.
    /// `Ok(false)` when an identical live row already exists.
    fn append_row_raw(&mut self, name: &RelName, t: &Tuple) -> Result<bool, StoreError> {
        let arity = self
            .relations
            .get(name)
            .ok_or_else(|| StoreError::UnknownRelation(name.clone()))?
            .arity();
        if t.arity() != arity {
            return Err(StoreError::RowArity {
                relation: name.clone(),
                expected: arity,
                found: t.arity(),
            });
        }
        let mut codes = Vec::with_capacity(arity);
        for v in t.iter() {
            codes.push(self.dict_mut().intern(v)?);
        }
        self.ensure_relation_indexes(name);
        let col = self.relation_mut(name).expect("present above");
        if col.find_live(&codes).is_some() {
            return Ok(false);
        }
        match col.find_dead(&codes) {
            Some(i) => {
                col.revive(i);
            }
            None => col.append(&codes),
        }
        if arity == 2 {
            self.pair_add(name, codes[0], codes[1]);
        }
        if name.as_str() != ADOM_REL {
            self.adom_add_codes(&codes);
        }
        Ok(true)
    }

    /// Tombstones the live row equal to `t`, maintaining the adjacency
    /// overlay. `false` when no such live row exists.
    fn tombstone_row_raw(&mut self, name: &RelName, t: &Tuple) -> bool {
        let Some(col) = self.relations.get(name) else {
            return false;
        };
        if col.arity() != t.arity() {
            return false;
        }
        let Some(codes) = self.encode_row(t) else {
            return false;
        };
        self.ensure_relation_indexes(name);
        let col = self.relation_mut(name).expect("present above");
        let Some(i) = col.find_live(&codes) else {
            return false;
        };
        col.tombstone(i);
        if codes.len() == 2 {
            self.pair_remove(name, codes[0], codes[1]);
        }
        self.adom_dirty = true;
        true
    }

    /// Tombstones every live row whose leading codes equal `prefix`
    /// (optionally further filtered by `also`, on the full coded row),
    /// maintaining the adjacency overlay. Candidates come from the
    /// column end indexes — O(rows sharing the leading code), not a
    /// relation scan. Returns the count.
    fn tombstone_prefix(
        &mut self,
        name: &RelName,
        prefix: &[u32],
        also: impl Fn(&[u32]) -> bool,
    ) -> usize {
        self.ensure_relation_indexes(name);
        let Some(col) = self.relations.get(name) else {
            return 0;
        };
        let arity = col.arity();
        let (rows, candidates) = col.live_rows_with_prefix(prefix);
        self.counters.record_writer_probe(candidates as u64);
        let mut hits: Vec<(usize, Vec<u32>)> = Vec::new();
        for i in rows {
            let row: Vec<u32> = (0..arity).map(|p| col.code_at(i, p)).collect();
            if also(&row) {
                hits.push((i, row));
            }
        }
        let col = self.relation_mut(name).expect("present above");
        for (i, _) in &hits {
            col.tombstone(*i);
        }
        if arity == 2 {
            for (_, row) in &hits {
                self.pair_remove(name, row[0], row[1]);
            }
        }
        if !hits.is_empty() {
            self.adom_dirty = true;
        }
        hits.len()
    }

    fn pair_add(&mut self, name: &RelName, s: u32, t: u32) {
        if let Some(entry) = self.adjacency.get_mut(name) {
            let in_base = entry.csr.has_pair(s, t);
            entry.delta.add(s, t, in_base);
        }
    }

    fn pair_remove(&mut self, name: &RelName, s: u32, t: u32) {
        if let Some(entry) = self.adjacency.get_mut(name) {
            let in_base = entry.csr.has_pair(s, t);
            entry.delta.remove(s, t, in_base);
        }
    }

    /// Live edge identifiers whose source or target is `id` — the
    /// suffix scan of `R3 ∪ R4`, deduplicated (a self-loop shows up in
    /// both and must be removed exactly once).
    fn edges_touching(&self, rs: &RelName, rt: &RelName, id: &Tuple, k: usize) -> Vec<Tuple> {
        let Some(idc) = self.encode_row(id) else {
            return Vec::new();
        };
        let mut out: std::collections::BTreeSet<Tuple> = std::collections::BTreeSet::new();
        for name in [rs, rt] {
            let Some(col) = self.relations.get(name) else {
                continue;
            };
            let (rows, candidates) = col.live_rows_with_suffix(&idc);
            self.counters.record_writer_probe(candidates as u64);
            for i in rows {
                out.insert(Tuple::new(
                    (0..k)
                        .map(|p| self.dict.value(col.code_at(i, p)).clone())
                        .collect(),
                ));
            }
        }
        out.into_iter().collect()
    }

    /// The `(src, tgt)` endpoints of a live edge — `R3`/`R4` are
    /// functional, so the first live prefix match is the only one.
    fn edge_endpoints(
        &self,
        rs: &RelName,
        rt: &RelName,
        id: &Tuple,
        k: usize,
    ) -> Result<(Tuple, Tuple), StoreError> {
        let missing = || StoreError::Update(UpdateError::NoSuchElement(id.clone()));
        let idc = self.encode_row(id).ok_or_else(missing)?;
        let src = self.suffix_of_prefix(rs, &idc, k).ok_or_else(missing)?;
        let tgt = self.suffix_of_prefix(rt, &idc, k).ok_or_else(missing)?;
        Ok((src, tgt))
    }

    fn suffix_of_prefix(&self, name: &RelName, prefix: &[u32], k: usize) -> Option<Tuple> {
        let col = self.relations.get(name)?;
        let (rows, candidates) = col.live_rows_with_prefix(&prefix[..k]);
        self.counters.record_writer_probe(candidates as u64);
        rows.into_iter().next().map(|i| {
            Tuple::new(
                (k..col.arity())
                    .map(|p| self.dict.value(col.code_at(i, p)).clone())
                    .collect(),
            )
        })
    }

    /// The labels carried by a live element (decoded, deduplicated).
    fn labels_of(&self, rl: &RelName, id: &Tuple, k: usize) -> Vec<Label> {
        let Some(idc) = self.encode_row(id) else {
            return Vec::new();
        };
        let Some(col) = self.relations.get(rl) else {
            return Vec::new();
        };
        let mut out: Vec<Label> = Vec::new();
        let (rows, candidates) = col.live_rows_with_prefix(&idc);
        self.counters.record_writer_probe(candidates as u64);
        for i in rows {
            let l = self.dict.value(col.code_at(i, k)).clone();
            if !out.contains(&l) {
                out.push(l);
            }
        }
        out
    }

    /// Whether any live edge connects `src → tgt`.
    fn edge_between(&self, rs: &RelName, rt: &RelName, src: &Tuple, tgt: &Tuple, k: usize) -> bool {
        let (Some(sc), Some(tc)) = (self.encode_row(src), self.encode_row(tgt)) else {
            return false;
        };
        let (Some(scol), Some(tcol)) = (self.relations.get(rs), self.relations.get(rt)) else {
            return false;
        };
        let (rows, candidates) = scol.live_rows_with_suffix(&sc);
        self.counters.record_writer_probe(candidates as u64);
        for i in rows {
            let mut row: Vec<u32> = (0..k).map(|p| scol.code_at(i, p)).collect();
            row.extend_from_slice(&tc);
            if tcol.find_live(&row).is_some() {
                return true;
            }
        }
        false
    }

    /// Whether any live edge labeled `label` connects the endpoints
    /// (given as `(src, tgt)`).
    fn labeled_edge_between(
        &self,
        rs: &RelName,
        rt: &RelName,
        rl: &RelName,
        label: &Label,
        endpoints: (&Tuple, &Tuple),
        k: usize,
    ) -> bool {
        let (src, tgt) = endpoints;
        let Some(lc) = self.dict.code(label) else {
            return false;
        };
        let (Some(sc), Some(tc)) = (self.encode_row(src), self.encode_row(tgt)) else {
            return false;
        };
        let (Some(lcol), Some(scol), Some(tcol)) = (
            self.relations.get(rl),
            self.relations.get(rs),
            self.relations.get(rt),
        ) else {
            return false;
        };
        let (rows, candidates) = lcol.live_rows_with_suffix(&[lc]);
        self.counters.record_writer_probe(candidates as u64);
        for i in rows {
            let mut srow: Vec<u32> = (0..k).map(|p| lcol.code_at(i, p)).collect();
            let mut trow = srow.clone();
            srow.extend_from_slice(&sc);
            trow.extend_from_slice(&tc);
            if scol.find_live(&srow).is_some() && tcol.find_live(&trow).is_some() {
                return true;
            }
        }
        false
    }

    /// Tombstones an edge's rows across `R2..R6` and maintains the
    /// graph entry's adjacency (node-level and per-label).
    fn remove_edge_everywhere(
        &mut self,
        graph: &str,
        views: &[RelName; 6],
        id: &Tuple,
        k: usize,
    ) -> Result<(), StoreError> {
        let [_, re, rs, rt, rl, rp] = views;
        let (src, tgt) = self.edge_endpoints(rs, rt, id, k)?;
        let labels = self.labels_of(rl, id, k);
        let idc = self
            .encode_row(id)
            .ok_or_else(|| StoreError::Update(UpdateError::NoSuchElement(id.clone())))?;
        self.tombstone_row_raw(re, id);
        self.tombstone_prefix(rs, &idc, |_| true);
        self.tombstone_prefix(rt, &idc, |_| true);
        self.tombstone_prefix(rl, &idc, |_| true);
        self.tombstone_prefix(rp, &idc, |_| true);
        let still_connected = self.edge_between(rs, rt, &src, &tgt, k);
        self.graphs
            .get_mut(graph)
            .expect("entry looked up by caller")
            .remove_edge(&src, &tgt, !still_connected);
        for l in labels {
            let still = self.labeled_edge_between(rs, rt, rl, &l, (&src, &tgt), k);
            self.graphs
                .get_mut(graph)
                .expect("entry looked up by caller")
                .label_remove(&l, &src, &tgt, !still);
        }
        Ok(())
    }

    /// Tombstones every label and property row of `id`. Node labels
    /// never enter the per-label edge CSRs, so no entry repair needed.
    fn strip_annotation_rows(&mut self, rl: &RelName, rp: &RelName, id: &Tuple) {
        let Some(idc) = self.encode_row(id) else {
            return;
        };
        self.tombstone_prefix(rl, &idc, |_| true);
        self.tombstone_prefix(rp, &idc, |_| true);
    }

    /// Tombstones the (at most one) live `R6` row for `(id, key)`.
    fn remove_prop_rows(&mut self, rp: &RelName, id: &Tuple, key: &Value, k: usize) {
        let Some(idc) = self.encode_row(id) else {
            return;
        };
        let Some(kc) = self.dict.code(key) else {
            return;
        };
        self.tombstone_prefix(rp, &idc, |row| row[k] == kc);
    }

    /// Which codes live rows reference. `exclude` skips one relation
    /// (the adom refresh must not count the adom relation itself).
    fn live_bitmap(&self, exclude: Option<&RelName>) -> Vec<bool> {
        let mut live = vec![false; self.dict.len()];
        for (name, col) in &self.relations {
            if exclude == Some(name) {
                continue;
            }
            for i in col.live_rows() {
                for p in 0..col.arity() {
                    live[col.code_at(i, p) as usize] = true;
                }
            }
        }
        live
    }

    /// Records inserted-row codes in the reserved [`ADOM_REL`] relation
    /// — values only ever *join* the active domain on an insert, so
    /// this is O(arity) hash probes, not a store scan.
    fn adom_add_codes(&mut self, codes: &[u32]) {
        let adom: RelName = ADOM_REL.into();
        self.ensure_relation_indexes(&adom);
        let Some(col) = self.relation_mut(&adom) else {
            return;
        };
        for &c in codes {
            if col.find_live(&[c]).is_some() {
                continue;
            }
            match col.find_dead(&[c]) {
                Some(i) => {
                    col.revive(i);
                }
                None => col.append(&[c]),
            }
        }
    }

    /// Recomputes the reserved [`ADOM_REL`] relation from the live rows
    /// of every other registered relation, so `AdomScan` plans keep
    /// answering for the post-update state. Inserts maintain the
    /// domain incrementally ([`Store::adom_add_codes`]); only
    /// deletions mark it dirty (a departed value may or may not occur
    /// elsewhere), and the recompute runs **once per mutation batch**,
    /// not per row. No-op when clean or when the store never
    /// registered an active domain.
    fn refresh_adom(&mut self) -> Result<(), StoreError> {
        let adom: RelName = ADOM_REL.into();
        if !self.adom_dirty || !self.relations.contains_key(&adom) {
            self.adom_dirty = false;
            return Ok(());
        }
        self.adom_dirty = false;
        let live = self.live_bitmap(Some(&adom));
        let mut codes: Vec<u32> = live
            .iter()
            .enumerate()
            .filter_map(|(c, &b)| b.then_some(c as u32))
            .collect();
        // Fresh registrations store adom rows in value order; keep the
        // refreshed layout identical so scans stay deterministic.
        codes.sort_by(|&a, &b| self.dict.value(a).cmp(self.dict.value(b)));
        self.relations
            .insert(adom, Arc::new(ColumnarRelation::unary_from_codes(codes)));
        Ok(())
    }

    /// Refreezes every view graph whose six backing relations include
    /// `name`, rebuilding from the store's current live rows. Entries
    /// whose view became invalid (or lost a backing relation) are
    /// dropped — nothing stale keeps answering; pattern calls fall
    /// back to per-query evaluation, which stays correct. With `hard`,
    /// an invalid view also surfaces as the typed error (the
    /// whole-relation swap path); without it the failure is soft (row-
    /// level mutations pass through transiently inconsistent states —
    /// the retained spec refreezes the graph once validity returns).
    fn refreeze_graphs_backed_by(&mut self, name: &RelName, hard: bool) -> Result<(), StoreError> {
        let affected: Vec<String> = self
            .view_specs
            .iter()
            .filter(|(_, (v, _))| v.contains(name))
            .map(|(n, _)| n.clone())
            .collect();
        let mut first_err = None;
        for g in affected {
            // Keep going past a failure: every affected graph must be
            // refrozen or invalidated, or the ones after the first
            // failure would keep answering stale.
            if let Err(e) = self.refreeze_view_graph(&g) {
                if hard && first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn refreeze_view_graph(&mut self, graph: &str) -> Result<(), StoreError> {
        let (views, form) = self
            .view_specs
            .get(graph)
            .cloned()
            .expect("caller listed the name");
        let mut rels = Vec::with_capacity(6);
        for name in &views {
            let Some(col) = self.relations.get(name) else {
                self.graphs.remove(graph);
                return Err(StoreError::UnknownRelation(name.clone()));
            };
            let rows = col.decode_rows(&self.dict);
            rels.push(
                Relation::from_rows(col.arity(), rows)
                    .expect("columnar rows share the relation arity"),
            );
        }
        let mut it = rels.into_iter();
        let vr = ViewRelations::new(
            it.next().unwrap(),
            it.next().unwrap(),
            it.next().unwrap(),
            it.next().unwrap(),
            it.next().unwrap(),
            it.next().unwrap(),
        );
        match Self::apply_view(&vr, form) {
            Ok(g) => {
                let e = GraphEntry::from_graph(&g, Some(views), form)?;
                self.graphs.insert(graph.to_string(), e);
                Ok(())
            }
            Err(e) => {
                self.graphs.remove(graph);
                Err(e)
            }
        }
    }

    /// Folds a relation's adjacency overlay into a fresh CSR when it
    /// has outgrown the threshold.
    fn fold_adjacency_if_oversized(&mut self, name: &RelName) -> Result<(), StoreError> {
        let Some(entry) = self.adjacency.get(name) else {
            return Ok(());
        };
        if !overlay_oversized(entry.delta.change_count(), entry.csr.edge_count()) {
            return Ok(());
        }
        self.rebuild_adjacency(name)
    }

    fn rebuild_adjacency(&mut self, name: &RelName) -> Result<(), StoreError> {
        let Some(col) = self.relations.get(name) else {
            self.adjacency.remove(name);
            return Ok(());
        };
        let pairs: Vec<(u32, u32)> = col
            .live_rows()
            .map(|i| (col.code_at(i, 0), col.code_at(i, 1)))
            .collect();
        let universe = pairs.iter().flat_map(|&(a, b)| [a, b]);
        let csr = Arc::new(CsrIndex::build(universe, &pairs)?);
        self.adjacency.insert(
            name.clone(),
            CsrWithDelta {
                csr,
                delta: DeltaAdjacency::new(),
            },
        );
        Ok(())
    }

    /// Rebuilds the dictionary retaining only **live** codes, remaps
    /// every column, drops tombstoned rows, rebuilds every relation
    /// CSR from the recoded live rows, and folds every graph overlay —
    /// the compaction story: `dictionary_stale` drops to 0 and no
    /// query result changes. Previously returned codes (from
    /// [`Store::encode`] / [`Store::intern_literal`]) are invalidated.
    pub fn compact(&mut self) -> Result<CompactionStats, StoreError> {
        self.stats_cache.invalidate();
        // Settle the active domain first: a dirty ⟨adom⟩ would keep
        // departed values alive through the rebuild.
        self.refresh_adom()?;
        let old_total = self.dict.len();
        let mut folded = 0usize;
        let mut dropped = 0usize;
        let mut next = Dictionary::with_limit(self.dict.limit());
        let mut map: HashMap<u32, u32> = HashMap::new();
        let dict = Arc::clone(&self.dict);
        for col in self.relations.values_mut() {
            dropped += Arc::make_mut(col).compact_remap(&mut |old| {
                *map.entry(old).or_insert_with(|| {
                    next.intern(dict.value(old))
                        .expect("compaction only shrinks the code space")
                })
            });
        }
        self.dict = Arc::new(next);
        let names: Vec<RelName> = self.adjacency.keys().cloned().collect();
        for name in names {
            folded += self
                .adjacency
                .get(&name)
                .map_or(0, |e| e.delta.change_count());
            self.rebuild_adjacency(&name)?;
        }
        let graph_names: Vec<String> = self.graphs.keys().cloned().collect();
        for g in graph_names {
            let e = self.graphs.get_mut(&g).expect("just listed");
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
        self.live_bitmap(None).iter().filter(|&&b| b).count()
    }

    /// A storage-layout report (the shell's `STATS` command).
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            dictionary_total: self.dict.len(),
            dictionary_live: self.live_codes(),
            relations: self
                .relations
                .iter()
                .map(|(name, c)| RelationStats {
                    name: name.to_string(),
                    rows: c.len(),
                    arity: c.arity(),
                    coded_bytes: c.coded_bytes(),
                    indexed: self.adjacency.contains_key(name),
                    tombstones: c.tombstones(),
                    delta_pairs: self
                        .adjacency
                        .get(name)
                        .map_or(0, |e| e.delta.change_count()),
                })
                .collect(),
            graphs: self
                .graphs
                .iter()
                .map(|(name, e)| GraphStats {
                    name: name.clone(),
                    nodes: e.node_count(),
                    edges: e.edge_count(),
                    id_arity: e.id_arity,
                    csr_entries: e.adjacency().edge_count(),
                    overlay: e.overlay_size(),
                    labels: e
                        .labels
                        .iter()
                        // Labels are almost always strings; render them
                        // bare rather than with `Value`'s quoting.
                        .map(|(l, li)| {
                            let text = l.as_str().map_or_else(|| l.to_string(), String::from);
                            (text, li.view().edge_count())
                        })
                        .collect(),
                })
                .collect(),
            last_compaction: self.last_compaction.clone(),
            bytes: self.memory_bytes(),
        }
    }

    /// Estimated resident heap bytes by component — also available
    /// without the full [`Store::stats`] report (which walks every
    /// live row for the dictionary-liveness numbers; this does not).
    pub fn memory_bytes(&self) -> MemoryBytes {
        MemoryBytes {
            dictionary: self.dict.resident_bytes(),
            columns: self
                .relations
                .values()
                .map(|c| c.coded_bytes() + c.index_bytes())
                .sum(),
            csr: self
                .adjacency
                .values()
                .map(|e| e.csr.resident_bytes())
                .sum::<usize>()
                + self
                    .graphs
                    .values()
                    .map(GraphEntry::csr_bytes)
                    .sum::<usize>(),
            overlays: self
                .adjacency
                .values()
                .map(|e| e.delta.resident_bytes())
                .sum::<usize>()
                + self
                    .graphs
                    .values()
                    .map(GraphEntry::overlay_bytes)
                    .sum::<usize>(),
        }
    }
}

/// Estimated resident heap bytes by store component, surfaced through
/// [`StoreStats`] (the shell's `STATS`/`STATS JSON`) and read by the
/// PR 9 scaling benches. Estimates — Rust exposes no exact allocator
/// accounting — but faithful for the structures that dominate at
/// million-row scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryBytes {
    /// Value dictionary: value vector, code map, string payloads.
    pub dictionary: usize,
    /// Columnar relations: coded columns plus row/end indexes (0 for
    /// the indexes while a bulk-loaded relation defers them).
    pub columns: usize,
    /// Frozen CSR indexes: per-relation adjacency plus every graph's
    /// node-level and per-label indexes.
    pub csr: usize,
    /// Mutable overlays: delta adjacency on relations and graphs.
    pub overlays: usize,
}

impl MemoryBytes {
    /// Sum over every component.
    pub fn total(&self) -> usize {
        self.dictionary + self.columns + self.csr + self.overlays
    }
}

/// Layout numbers for one registered relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationStats {
    /// Relation name.
    pub name: String,
    /// Live row count.
    pub rows: usize,
    /// Attribute count.
    pub arity: usize,
    /// Resident coded size in bytes (tombstoned rows included;
    /// dictionary excluded).
    pub coded_bytes: usize,
    /// Whether a CSR adjacency index exists (binary relations).
    pub indexed: bool,
    /// Tombstoned rows still resident (dropped by `Store::compact`).
    pub tombstones: usize,
    /// Adjacency-overlay size (pairs added + removed since the freeze).
    pub delta_pairs: usize,
}

/// Layout numbers for one frozen graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphStats {
    /// Graph name.
    pub name: String,
    /// `|N|` (live).
    pub nodes: usize,
    /// `|E|` (live).
    pub edges: usize,
    /// Identifier arity.
    pub id_arity: usize,
    /// Distinct endpoint pairs in the effective (base ⊕ overlay)
    /// adjacency.
    pub csr_entries: usize,
    /// Overlay residency: delta pairs + tombstoned/appended nodes.
    pub overlay: usize,
    /// `(label, per-label effective pairs)` in label order.
    pub labels: Vec<(String, usize)>,
}

/// The full storage-layout report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// Codes ever minted (the append-only dictionary never forgets —
    /// until [`Store::compact`] rebuilds it).
    pub dictionary_total: usize,
    /// Codes referenced by live rows of registered relations. The
    /// difference `total − live` is the residency cost of stale codes
    /// left behind by deletions and re-registration; [`Store::compact`]
    /// reclaims it.
    pub dictionary_live: usize,
    /// Per-relation layout, in name order.
    pub relations: Vec<RelationStats>,
    /// Per-graph layout, in name order.
    pub graphs: Vec<GraphStats>,
    /// The effect of the most recent compaction, if any ran.
    pub last_compaction: Option<CompactionStats>,
    /// Estimated resident heap bytes by component.
    pub bytes: MemoryBytes,
}

impl StoreStats {
    /// Stale codes: minted but unreferenced by any live row.
    pub fn dictionary_stale(&self) -> usize {
        self.dictionary_total - self.dictionary_live
    }

    /// Tombstoned rows still resident across all relations.
    pub fn tombstone_rows(&self) -> usize {
        self.relations.iter().map(|r| r.tombstones).sum()
    }

    /// Overlay entries across relation adjacency indexes and graphs.
    pub fn overlay_entries(&self) -> usize {
        self.relations.iter().map(|r| r.delta_pairs).sum::<usize>()
            + self.graphs.iter().map(|g| g.overlay).sum::<usize>()
    }
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "dictionary: {} code(s) minted, {} live, {} stale",
            self.dictionary_total,
            self.dictionary_live,
            self.dictionary_stale()
        )?;
        writeln!(
            f,
            "overlay: {} delta entr(y/ies), {} tombstoned row(s)",
            self.overlay_entries(),
            self.tombstone_rows()
        )?;
        writeln!(
            f,
            "resident: {} byte(s) (dictionary {}, columns {}, CSR {}, overlays {})",
            self.bytes.total(),
            self.bytes.dictionary,
            self.bytes.columns,
            self.bytes.csr,
            self.bytes.overlays
        )?;
        match &self.last_compaction {
            Some(c) => writeln!(f, "last compaction: {c}")?,
            None => writeln!(f, "last compaction: none")?,
        }
        for r in &self.relations {
            write!(
                f,
                "relation {}: {} row(s) × {} col(s), {} coded byte(s)",
                r.name, r.rows, r.arity, r.coded_bytes
            )?;
            if r.tombstones > 0 {
                write!(f, ", {} tombstone(s)", r.tombstones)?;
            }
            write!(f, "{}", if r.indexed { ", CSR indexed" } else { "" })?;
            if r.delta_pairs > 0 {
                write!(f, " (+{} delta pair(s))", r.delta_pairs)?;
            }
            writeln!(f)?;
        }
        for g in &self.graphs {
            write!(
                f,
                "graph {}: {} node(s), {} edge(s), id arity {}, {} CSR pair(s)",
                g.name, g.nodes, g.edges, g.id_arity, g.csr_entries
            )?;
            if g.overlay > 0 {
                write!(f, ", overlay {}", g.overlay)?;
            }
            if g.labels.is_empty() {
                writeln!(f)?;
            } else {
                let labels: Vec<String> =
                    g.labels.iter().map(|(l, n)| format!("{l}({n})")).collect();
                writeln!(f, "; labels: {}", labels.join(", "))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgq_value::tuple;

    /// The canonical 4-chain a→b→c→d with one labeled edge.
    fn chain_db() -> Database {
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

    fn views() -> [RelName; 6] {
        ["N", "E", "S", "T", "L", "P"].map(Into::into)
    }

    fn nid(n: &str) -> Tuple {
        Tuple::unary(Value::str(n))
    }

    #[test]
    fn database_registration_round_trips() {
        let db = chain_db();
        let store = Store::from_database(&db);
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
        // The reserved adom relation matches the database's.
        let adom = store.scan(&ADOM_REL.into()).unwrap();
        assert_eq!(
            Relation::from_rows(1, adom).unwrap(),
            db.active_domain_relation()
        );
    }

    #[test]
    fn reregistration_refreezes_view_graphs() {
        let mut db = chain_db();
        let mut store = Store::from_database(&db);
        store
            .register_view_graph("G", views(), &db, GraphForm::Exact(1))
            .unwrap();
        assert_eq!(
            store.graph("G").unwrap().reach_relation(true, false).len(),
            6
        );
        // New edge d→a closes the cycle; re-registration must see it.
        db.insert("E", tuple!["e4"]).unwrap();
        db.insert("S", tuple!["e4", "d"]).unwrap();
        db.insert("T", tuple!["e4", "a"]).unwrap();
        store.register_database(&db).unwrap();
        assert_eq!(
            store.graph("G").unwrap().reach_relation(true, false).len(),
            16
        );
        // A view that became invalid surfaces as a typed error.
        db.insert("N", tuple!["e1"]).unwrap(); // node id clashes with an edge id
        assert!(matches!(
            store.register_database(&db),
            Err(StoreError::View(_))
        ));
        // Graphs frozen from explicit PropertyGraphs cannot be rebuilt
        // from the database and are dropped on re-registration.
        let db = chain_db();
        let mut store = Store::from_database(&db);
        let g = pgq_graph::PropertyGraph::empty(1);
        store
            .register_graph("ad-hoc", &g, None, GraphForm::Exact(1))
            .unwrap();
        store.register_database(&db).unwrap();
        assert!(store.graph("ad-hoc").is_none());

        // Relations absent from the new database are dropped too.
        let mut smaller = Database::new();
        smaller.insert("OnlyThis", tuple![1]).unwrap();
        store.register_database(&smaller).unwrap();
        assert!(!store.has_relation(&"N".into()));
        assert!(store.adjacency(&"S".into()).is_none());
        assert!(store.has_relation(&"OnlyThis".into()));
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
    }

    /// The PR 5 stale-state audit: directly re-registering a relation
    /// that backs a frozen view graph must refreeze (or invalidate)
    /// the graph instead of letting plans read dead pairs.
    #[test]
    fn reregistering_a_backing_relation_refreezes_the_graph() {
        let db = chain_db();
        let mut store = Store::from_database(&db);
        store
            .register_view_graph("G", views(), &db, GraphForm::Exact(1))
            .unwrap();
        assert_eq!(
            store.graph("G").unwrap().reach_relation(true, false).len(),
            6
        );
        // Replace T wholesale: every edge now targets "a" — the frozen
        // entry must answer for the *new* pairs.
        let new_t =
            Relation::from_rows(2, [tuple!["e1", "a"], tuple!["e2", "a"], tuple!["e3", "a"]])
                .unwrap();
        store.register_relation("T".into(), &new_t).unwrap();
        let reach = store.graph("G").unwrap().reach_relation(true, false);
        assert!(reach.contains(&tuple!["b", "a"]));
        assert!(!reach.contains(&tuple!["a", "d"]));
        // A replacement that invalidates the view drops the entry and
        // errors instead of answering stale.
        let clash = Relation::from_rows(1, [tuple!["e1"], tuple!["a"]]).unwrap();
        assert!(matches!(
            store.register_relation("N".into(), &clash),
            Err(StoreError::View(_))
        ));
        assert!(store.graph("G").is_none());
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
        assert!(entry.has_reach_pair());
        assert_eq!(entry.label_names().count(), 1);
        assert!(!entry.has_overlay());

        // ≥1-step pairs on the chain: 3+2+1; 0-step adds 4 reflexive.
        let plus = entry.reach_relation(true, false);
        assert_eq!(plus.len(), 6);
        assert!(plus.contains(&tuple!["a", "d"]));
        let star = entry.reach_relation(false, false);
        assert_eq!(star.len(), 10);
        assert!(star.contains(&tuple!["a", "a"]));
        let swapped = entry.reach_relation(true, true);
        assert!(swapped.contains(&tuple!["d", "a"]));

        // The planner's match point.
        assert!(store
            .graph_for_views(&views(), GraphForm::Exact(1))
            .is_some());
        assert!(store.graph_for_views(&views(), GraphForm::Ext).is_none());
        let mut other = views();
        other.swap(2, 3);
        assert!(store.graph_for_views(&other, GraphForm::Exact(1)).is_none());
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
    fn stats_report_layout() {
        let db = chain_db();
        let mut store = Store::from_database(&db);
        store
            .register_view_graph("G", views(), &db, GraphForm::Exact(1))
            .unwrap();
        let stats = store.stats();
        assert!(stats.dictionary_total >= 8);
        // A fresh registration references every code it minted.
        assert_eq!(stats.dictionary_live, stats.dictionary_total);
        assert_eq!(stats.dictionary_stale(), 0);
        assert_eq!(stats.tombstone_rows(), 0);
        assert_eq!(stats.overlay_entries(), 0);
        assert!(stats.last_compaction.is_none());
        let s_rel = stats.relations.iter().find(|r| r.name == "S").unwrap();
        assert!(s_rel.indexed);
        assert_eq!(s_rel.rows, 3);
        assert_eq!(stats.graphs[0].labels, vec![("Transfer".to_string(), 1)]);
        let text = stats.to_string();
        assert!(text.contains("graph G: 4 node(s), 3 edge(s)"));
        assert!(text.contains("CSR indexed"));
        assert!(text.contains("0 stale"));
        assert!(text.contains("last compaction: none"));
        assert!(text.contains("overlay: 0 delta entr(y/ies), 0 tombstoned row(s)"));
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
        let mut store = Store {
            dict: Dictionary::with_limit(3).into(),
            ..Store::new()
        };
        let mut db = Database::new();
        for i in 0..4i64 {
            db.insert("V", tuple![i]).unwrap();
        }
        assert!(matches!(
            store.register_database(&db),
            Err(StoreError::DictionaryFull { limit: 3 })
        ));
        // Within the limit, registration (and literal interning) works.
        let mut small = Database::new();
        small.insert("V", tuple![1]).unwrap();
        let mut store = Store {
            dict: Dictionary::with_limit(2).into(),
            ..Store::new()
        };
        store.register_database(&small).unwrap();
        assert!(store.intern_literal(&Value::int(99)).is_ok());
        assert!(matches!(
            store.intern_literal(&Value::int(100)),
            Err(StoreError::DictionaryFull { .. })
        ));
        // Compaction preserves the configured limit.
        store.compact().unwrap();
        assert_eq!(store.dict().limit(), 2);
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
        assert!(!e.has_reach_pair());
        assert!(e.reach_relation(true, false).is_empty());
        assert!(e.reach_relation(false, false).is_empty());

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
        assert_eq!(e.reach_relation(true, false).len(), 1);
        assert_eq!(e.reach_relation(false, false).len(), 1);
    }

    // ---- incremental maintenance (PR 5) ----

    fn registered_store() -> (Database, Store) {
        let db = chain_db();
        let mut store = Store::from_database(&db);
        store
            .register_view_graph("G", views(), &db, GraphForm::Exact(1))
            .unwrap();
        (db, store)
    }

    #[test]
    fn apply_update_add_edge_extends_reachability() {
        let (_, mut store) = registered_store();
        store
            .apply_update(
                "G",
                &Update::AddEdge {
                    id: nid("e4"),
                    src: nid("d"),
                    tgt: nid("a"),
                },
            )
            .unwrap();
        let entry = store.graph("G").unwrap();
        assert!(entry.has_overlay());
        assert_eq!(entry.edge_count(), 4);
        // The cycle closes: every ordered pair is reachable.
        assert_eq!(entry.reach_relation(true, false).len(), 16);
        // The backing relations saw the rows.
        assert!(store.rel_contains(&"E".into(), &nid("e4")));
        assert!(store.rel_contains(&"S".into(), &tuple!["e4", "d"]));
        // The S/T adjacency overlays saw the pairs.
        assert!(store.adjacency(&"S".into()).unwrap().has_delta());
        // The frozen active domain saw the new value.
        let adom = store.scan(&ADOM_REL.into()).unwrap();
        assert!(adom.contains(&tuple!["e4"]));
    }

    #[test]
    fn apply_update_detach_remove_cascades() {
        let (_, mut store) = registered_store();
        store
            .apply_update("G", &Update::DetachRemoveNode(nid("b")))
            .unwrap();
        let entry = store.graph("G").unwrap();
        assert_eq!(entry.node_count(), 3);
        assert_eq!(entry.edge_count(), 1); // only c→d survives
        let reach = entry.reach_relation(true, false);
        assert_eq!(reach.len(), 1);
        assert!(reach.contains(&tuple!["c", "d"]));
        // e1's label row (and the Transfer label CSR pair) are gone.
        assert!(!store.rel_contains(&"L".into(), &tuple!["e1", "Transfer"]));
        let transfer: Label = Value::str("Transfer");
        assert_eq!(
            entry
                .label_adjacency(&transfer)
                .map_or(0, |v| v.edge_count()),
            0
        );
        // Tombstones are visible in stats until compaction.
        let stats = store.stats();
        assert!(stats.tombstone_rows() > 0);
        assert!(stats.overlay_entries() > 0);
    }

    #[test]
    fn apply_update_validation_mirrors_the_reference_semantics() {
        let (_, mut store) = registered_store();
        // RemoveNode refuses incident edges.
        assert!(matches!(
            store.apply_update("G", &Update::RemoveNode(nid("a"))),
            Err(StoreError::Update(UpdateError::NodeHasEdges(_)))
        ));
        // Id disjointness.
        assert!(matches!(
            store.apply_update("G", &Update::AddNode(nid("e1"))),
            Err(StoreError::Update(UpdateError::IdInUse(_)))
        ));
        // Dangling endpoints.
        assert!(matches!(
            store.apply_update(
                "G",
                &Update::AddEdge {
                    id: nid("e9"),
                    src: nid("a"),
                    tgt: nid("ghost"),
                }
            ),
            Err(StoreError::Update(UpdateError::DanglingEndpoint(_)))
        ));
        // Arity mismatch.
        assert!(matches!(
            store.apply_update("G", &Update::AddNode(tuple![1, 2])),
            Err(StoreError::Update(UpdateError::ArityMismatch { .. }))
        ));
        // Unknown graph / non-view graph.
        assert!(matches!(
            store.apply_update("nope", &Update::AddNode(nid("x"))),
            Err(StoreError::UnknownGraph(_))
        ));
        let g = pgq_graph::PropertyGraph::empty(1);
        store
            .register_graph("frozen", &g, None, GraphForm::Exact(1))
            .unwrap();
        assert!(matches!(
            store.apply_update("frozen", &Update::AddNode(nid("x"))),
            Err(StoreError::NotUpdatable(_))
        ));
        // A rejected update left everything untouched.
        assert_eq!(store.graph("G").unwrap().node_count(), 4);
        assert_eq!(store.graph("G").unwrap().edge_count(), 3);
    }

    #[test]
    fn labels_and_props_update_in_place() {
        let (_, mut store) = registered_store();
        let transfer: Label = Value::str("Transfer");
        store
            .apply_updates(
                "G",
                &[
                    Update::AddLabel(nid("e2"), transfer.clone()),
                    Update::SetProp(nid("a"), Value::str("name"), Value::str("ada")),
                    Update::SetProp(nid("a"), Value::str("name"), Value::str("grace")),
                ],
            )
            .unwrap();
        let entry = store.graph("G").unwrap();
        assert_eq!(
            entry
                .label_adjacency(&transfer)
                .map_or(0, |v| v.edge_count()),
            2
        );
        // R6 stays functional: exactly one live (a, name, ·) row.
        let props = store.scan(&"P".into()).unwrap();
        assert_eq!(props.len(), 1);
        assert!(props.contains(&tuple!["a", "name", "grace"]));
        // Removing the label and the prop rolls both back.
        store
            .apply_updates(
                "G",
                &[
                    Update::RemoveLabel(nid("e2"), transfer.clone()),
                    Update::RemoveProp(nid("a"), Value::str("name")),
                ],
            )
            .unwrap();
        let entry = store.graph("G").unwrap();
        assert_eq!(
            entry
                .label_adjacency(&transfer)
                .map_or(0, |v| v.edge_count()),
            1
        );
        assert!(store.scan(&"P".into()).unwrap().is_empty());
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
        let before = store.graph("G").unwrap().reach_relation(true, false);
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
        assert_eq!(entry.reach_relation(true, false), before);
        for (v, old) in views().iter().zip(scans) {
            assert_eq!(
                Relation::from_rows(old.first().map_or(1, Tuple::arity), store.scan(v).unwrap()),
                Relation::from_rows(old.first().map_or(1, Tuple::arity), old),
                "{v}"
            );
        }
        assert_eq!(stats.last_compaction, Some(effect));
    }

    #[test]
    fn row_level_mutation_repairs_backed_graphs() {
        let (_, mut store) = registered_store();
        // Insert the closing edge through the relation-level API: the
        // frozen graph must be refrozen (it has no incremental hint).
        store.insert_row("E", &tuple!["e4"]).unwrap();
        store.insert_row("S", &tuple!["e4", "d"]).unwrap();
        store.insert_row("T", &tuple!["e4", "a"]).unwrap();
        assert_eq!(
            store.graph("G").unwrap().reach_relation(true, false).len(),
            16
        );
        // Deleting it again rolls the graph back.
        store.delete_row(&"E".into(), &tuple!["e4"]).unwrap();
        store.delete_row(&"S".into(), &tuple!["e4", "d"]).unwrap();
        store.delete_row(&"T".into(), &tuple!["e4", "a"]).unwrap();
        assert_eq!(
            store.graph("G").unwrap().reach_relation(true, false).len(),
            6
        );
        // Duplicate insert and phantom delete are no-ops.
        assert!(!store.insert_row("N", &tuple!["a"]).unwrap());
        assert!(!store.delete_row(&"N".into(), &tuple!["ghost"]).unwrap());
        // Insert into a brand-new relation registers it on the fly.
        assert!(store.insert_row("Fresh", &tuple![1, 2]).unwrap());
        assert!(store.adjacency(&"Fresh".into()).is_some());
        assert!(matches!(
            store.insert_row("Fresh", &tuple![1]),
            Err(StoreError::RowArity { .. })
        ));
    }

    #[test]
    fn delete_and_reinsert_revives_the_tombstoned_row() {
        let (_, mut store) = registered_store();
        let physical = store.relation(&"N".into()).unwrap().physical_len();
        store.delete_row(&"N".into(), &tuple!["d"]).ok();
        // "d" is a target of e3 — the graph view becomes invalid, the
        // entry is dropped and the error surfaces.
        // (Validation happens on refreeze: the relation edit stands.)
        assert!(store.graph("G").is_none());
        store.insert_row("N", &tuple!["d"]).unwrap();
        // The revived row reuses its physical slot.
        assert_eq!(
            store.relation(&"N".into()).unwrap().physical_len(),
            physical
        );
        assert_eq!(store.relation(&"N".into()).unwrap().tombstones(), 0);
    }

    /// Dictionary exhaustion mid-update must reject atomically: no
    /// half-applied edge (an `R2` row without its `R3`/`R4` rows would
    /// break the view's totality).
    #[test]
    fn exhaustion_mid_update_is_atomic() {
        let db = chain_db();
        let minted = Store::from_database(&db).dict().len();
        let mut store = Store {
            dict: Dictionary::with_limit(minted).into(),
            ..Store::new()
        };
        store.register_database(&db).unwrap();
        store
            .register_view_graph("G", views(), &db, GraphForm::Exact(1))
            .unwrap();
        // The new edge id needs one fresh code: DictionaryFull.
        let err = store.apply_update(
            "G",
            &Update::AddEdge {
                id: nid("e4"),
                src: nid("d"),
                tgt: nid("a"),
            },
        );
        assert!(matches!(err, Err(StoreError::DictionaryFull { .. })));
        // Nothing landed: E unchanged, no dangling S/T rows, entry
        // unchanged — and the store still validates as a view.
        assert!(!store.rel_contains(&"E".into(), &nid("e4")));
        assert_eq!(store.relation(&"S".into()).unwrap().len(), 3);
        assert_eq!(store.relation(&"T".into()).unwrap().len(), 3);
        let entry = store.graph("G").unwrap();
        assert_eq!(entry.edge_count(), 3);
        assert!(!entry.has_overlay());
        // Same discipline for AddNode and SetProp.
        assert!(matches!(
            store.apply_update("G", &Update::AddNode(nid("z"))),
            Err(StoreError::DictionaryFull { .. })
        ));
        assert!(!store.rel_contains(&"N".into(), &nid("z")));
        assert_eq!(store.graph("G").unwrap().node_count(), 4);
        assert!(matches!(
            store.apply_update(
                "G",
                &Update::SetProp(nid("a"), Value::str("k"), Value::int(1))
            ),
            Err(StoreError::DictionaryFull { .. })
        ));
        assert!(store.scan(&"P".into()).unwrap().is_empty());
    }

    /// A mid-batch rejection must not skip the finishing pass: the
    /// already-applied prefix stays visible through ⟨adom⟩ too.
    #[test]
    fn rejected_batch_still_refreshes_adom_for_the_applied_prefix() {
        let (_, mut store) = registered_store();
        let err = store.apply_updates(
            "G",
            &[
                Update::AddNode(nid("z")),
                Update::RemoveNode(nid("ghost")), // rejected
            ],
        );
        assert!(matches!(
            err,
            Err(StoreError::Update(UpdateError::NoSuchElement(_)))
        ));
        // AddNode("z") stays applied (per-update atomicity) — and the
        // frozen active domain already knows it.
        assert!(store.rel_contains(&"N".into(), &nid("z")));
        let adom = store.scan(&ADOM_REL.into()).unwrap();
        assert!(adom.contains(&tuple!["z"]), "{adom:?}");
    }

    /// A hard refreeze failure on one backed graph must not leave
    /// *other* graphs over the same relation answering stale.
    #[test]
    fn refreeze_failure_still_repairs_sibling_graphs() {
        // Two graphs sharing N/E/S/T, with separate (empty) label and
        // property relations.
        let mut db = chain_db();
        db.add_relation("L2", Relation::empty(2));
        db.add_relation("P2", Relation::empty(3));
        let mut store = Store::from_database(&db);
        let views_a: [RelName; 6] = ["N", "E", "S", "T", "L", "P"].map(Into::into);
        let views_b: [RelName; 6] = ["N", "E", "S", "T", "L2", "P2"].map(Into::into);
        store
            .register_view_graph("A", views_a, &db, GraphForm::Exact(1))
            .unwrap();
        store
            .register_view_graph("B", views_b, &db, GraphForm::Exact(1))
            .unwrap();
        // A valid replacement of the shared T refreezes both.
        let new_t =
            Relation::from_rows(2, [tuple!["e1", "a"], tuple!["e2", "a"], tuple!["e3", "a"]])
                .unwrap();
        store.register_relation("T".into(), &new_t).unwrap();
        for g in ["A", "B"] {
            let reach = store.graph(g).unwrap().reach_relation(true, false);
            assert!(reach.contains(&tuple!["b", "a"]), "{g}");
            assert!(!reach.contains(&tuple!["a", "d"]), "{g}");
        }
        // The failure path: a replacement of the shared N that
        // invalidates both views. Both entries must be dropped — the
        // error from the first (name order) must not shield the second
        // from repair.
        let clash = Relation::from_rows(1, [tuple!["e1"], tuple!["a"]]).unwrap();
        assert!(matches!(
            store.register_relation("N".into(), &clash),
            Err(StoreError::View(_))
        ));
        assert!(store.graph("A").is_none());
        assert!(store.graph("B").is_none());
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
        let reach = entry.reach_relation(true, false);
        assert!(reach.contains(&tuple!["a", "n39"]));
    }

    /// Satellite 4 (PR 8): writer-path membership probes route through
    /// the column end indexes, not relation scans. Detaching one node
    /// from a 100× larger chain must examine exactly the same number
    /// of candidate rows — probe cost tracks the node's degree, not
    /// the store size.
    #[test]
    fn writer_probes_are_indexed_not_relation_scans() {
        let probe_rows = |n: usize| {
            let mut db = Database::new();
            for i in 0..n {
                db.insert("N", tuple![format!("n{i}")]).unwrap();
            }
            for i in 0..n - 1 {
                let e = format!("e{i}");
                db.insert("E", tuple![e.clone()]).unwrap();
                db.insert("S", tuple![e.clone(), format!("n{i}")]).unwrap();
                db.insert("T", tuple![e.clone(), format!("n{}", i + 1)])
                    .unwrap();
                // Distinct labels keep the per-label candidate sets
                // degree-sized at every store size.
                db.insert("L", tuple![e, format!("Hop{i}")]).unwrap();
            }
            db.add_relation("P", Relation::empty(3));
            let mut store = Store::from_database(&db);
            store
                .register_view_graph("G", views(), &db, GraphForm::Exact(1))
                .unwrap();
            store.counters().reset();
            store
                .apply_update("G", &Update::DetachRemoveNode(nid("n1")))
                .unwrap();
            let snap = store.counters().snapshot();
            assert!(snap.writer_probes > 0, "probes must be recorded");
            assert!(store.graph("G").is_some());
            snap.writer_probe_rows
        };
        let small = probe_rows(8);
        let large = probe_rows(800);
        assert_eq!(
            small, large,
            "candidate rows per detach must not scale with store size"
        );
    }

    // ---- store statistics cache (PR 10) ----

    /// Reads share one cached [`StoreStatistics`] Arc; every mutation
    /// class — row-level writes, graph updates, compaction, and
    /// registration — swaps the slot and bumps the epoch, so stale
    /// estimates can never leak into the cost planner.
    #[test]
    fn statistics_cache_survives_reads_and_invalidates_on_writes() {
        let (_, mut store) = registered_store();
        let n: RelName = "N".into();
        let first = store.statistics();
        let again = store.statistics();
        assert!(Arc::ptr_eq(&first, &again), "reads share the cached Arc");
        assert_eq!(first.epoch, store.statistics_epoch());
        let n_rows = first.live_rows(&n).unwrap();

        store.insert_row("N", &tuple!["z"]).unwrap();
        let after_insert = store.statistics();
        assert!(!Arc::ptr_eq(&first, &after_insert));
        assert!(after_insert.epoch > first.epoch);
        assert_eq!(after_insert.live_rows(&n).unwrap(), n_rows + 1);

        store.delete_row(&n, &tuple!["z"]).unwrap();
        let after_delete = store.statistics();
        assert!(after_delete.epoch > after_insert.epoch);
        assert_eq!(after_delete.live_rows(&n).unwrap(), n_rows);
        assert!(after_delete.relations[&n].tombstone_rows > 0);

        store
            .apply_update(
                "G",
                &Update::AddEdge {
                    id: nid("e4"),
                    src: nid("d"),
                    tgt: nid("a"),
                },
            )
            .unwrap();
        let after_update = store.statistics();
        assert!(after_update.epoch > after_delete.epoch);
        assert!(after_update.graphs["G"].adjacency.overlay > 0);

        store.compact().unwrap();
        let after_compact = store.statistics();
        assert!(after_compact.epoch > after_update.epoch);
        assert_eq!(after_compact.relations[&n].tombstone_rows, 0);
        assert_eq!(after_compact.graphs["G"].adjacency.overlay, 0);

        store
            .register_relation("Extra".into(), &Relation::unary([1i64]))
            .unwrap();
        let after_register = store.statistics();
        assert!(after_register.epoch > after_compact.epoch);
        assert!(after_register.live_rows(&"Extra".into()).is_some());
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
            .write(|s| s.insert_row("N", &tuple!["z"]).map(|_| ()))
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
