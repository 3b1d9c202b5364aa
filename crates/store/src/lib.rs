//! # pgq-store
//!
//! The columnar graph store (substrate S16; DESIGN.md §2, §5,
//! ARCHITECTURE.md). Everything below the physical engine, frozen once
//! per session:
//!
//! * [`Dictionary`] — store-wide value interning, `Value ↔ u32`;
//! * [`ColumnarRelation`] — relations as dictionary-coded column
//!   vectors;
//! * [`CsrIndex`] — compressed-sparse-row forward/reverse adjacency
//!   over dense node ids: one per binary relation and one per
//!   registered graph ([`GraphEntry`]) — a label is a row of the view's
//!   `L` relation, never a further adjacency;
//! * [`Store`] — the session catalog: register a [`pgq_relational::Database`]
//!   and its `pgView` graphs **once**, then let the physical engine
//!   (`pgq-exec`'s `IndexScan`/`AdjacencyExpand` operators and the
//!   store-routed reachability in `pgq-core`) run against the frozen
//!   layout instead of re-materializing row vectors per query.
//!
//! The store is held to the reference evaluators by the differential
//! suite `tests/prop_store.rs` at the workspace root and measured by
//! the `embed_*` workloads of `BENCHMARK.json` (`pgq-store.*`). The
//! coded execution pipeline that keeps these codes flowing through
//! every physical operator (decoding once at the set-semantics
//! boundary) lives in `pgq-exec`.
//!
//! ## Module map
//!
//! `store` is the catalog ([`Store`]: registration, accessors,
//! compaction); `update` applies Section 7 updates in place — the
//! store's only in-place writer; `graph` is [`GraphEntry`]; `report` is `STATS`
//! ([`StoreStats`]); `stats` is the planner's [`StoreStatistics`];
//! `counters` is `METRICS` ([`AccessCounters`]); `error` is
//! [`StoreError`]; `bulk`, `snapshot`, `column`, `csr`, `dict`, `par`
//! are what their names say, and `rows` is the executor's row table
//! ([`RowTable`], [`Postings`]).
//!
//! ## Code order vs. value order
//!
//! Codes are minted in first-seen order, which is **not** the value
//! order: coded operators compare codes only for *equality* and decode
//! through the shared [`Dictionary`] for order predicates
//! (`t.amount > 100`-style conditions decode on compare — an index
//! into the dictionary's value vector, not a hash lookup).
//!
//! ## Updates
//!
//! The paper's §7 changes a view in one of two ways, and so does the
//! store. Rebuild: [`Store::register_relation`] /
//! [`Store::register_database`] replace relations wholesale and
//! **drop** every graph over them, which the owner then registers
//! again ([`Store::register_view_graph`]). Update:
//! [`Store::apply_updates`] — the one in-place writer — bridges
//! `pgq_graph::updates::Update` onto a registered graph, appending or
//! tombstoning rows of the six backing relations (a validity bitmap in
//! [`ColumnarRelation`]) and maintaining the graph's frozen CSR through
//! a [`DeltaAdjacency`] overlay consulted by every adjacency read
//! ([`AdjacencyView`]). Evaluation cost after an update tracks the
//! **delta**, not the database: no re-interning, no `pgView`
//! re-validation, no CSR rebuild until the overlay outgrows its
//! threshold and is folded back into a fresh index. So does the copy a
//! write makes: every piece the writer touches is an `Arc`-shared
//! frozen base plus a small owned tail (the `store` module docs), so a
//! [`ConcurrentStore`] batch on a clone of the published snapshot
//! copies its batch, not the store. The active domain
//! ([`ADOM_REL`]) is derived from the live rows on read, never
//! maintained.
//!
//! ## Compaction
//!
//! The dictionary is append-only: deletions and re-registrations
//! leave stale codes behind (dropping them eagerly would dangle any
//! structure still holding the code). The store *tracks* the gap —
//! [`StoreStats`] reports live vs. total codes, tombstoned rows and
//! overlay sizes (surfaced by the shell's `STATS` command) — and
//! [`Store::compact`] implements the reclamation: it rebuilds the
//! dictionary retaining only live codes, remaps every column, drops
//! tombstoned rows, rebuilds relation CSR indexes from the recoded
//! rows, and folds every graph overlay, reporting the effect as
//! [`CompactionStats`]. `dictionary_stale` drops to 0 and no query
//! result changes (held by the differential suite). Code space is a
//! hard `u32` ceiling ([`Dictionary::MAX_CODES`]); exhaustion is a
//! typed [`StoreError::DictionaryFull`], not a panic — and CSR node
//! universes fail the same way ([`StoreError::NodeUniverseFull`]).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bulk;
pub mod column;
pub mod counters;
pub mod csr;
pub mod dict;
pub mod error;
pub mod graph;
pub mod par;
pub mod report;
pub mod rows;
pub mod snapshot;
pub mod stats;
pub mod store;
mod update;

pub use bulk::{BulkGraph, BulkLoadStats};
pub use column::ColumnarRelation;
pub use counters::{AccessCounters, AccessSnapshot};
pub use csr::{AdjacencyView, Csr, CsrIndex, DeltaAdjacency, ReachScratch};
pub use dict::Dictionary;
pub use error::{GraphForm, StoreError};
pub use graph::GraphEntry;
pub use report::{GraphStats, MemoryBytes, RelationStats, StoreStats};
pub use rows::{Postings, RowTable};
pub use snapshot::{ConcurrentStore, StoreSnapshot};
pub use stats::{
    AdjacencyStatistics, DegreeHistogram, RelationStatistics, StatisticsReport, StoreStatistics,
};
pub use store::{CompactionStats, Store, ADOM_REL};
