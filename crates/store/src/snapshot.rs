//! Concurrent snapshot publication over [`Store`] (ARCHITECTURE.md §2
//! step 11; DESIGN.md §5).
//!
//! A [`Store`] is cheap to clone: every piece a write touches is an
//! `Arc`-shared frozen base plus a small owned tail (the store's one
//! copy-on-write rule, `store` module docs), so a clone copies tails
//! and the flat columns of the relations a batch then touches — a
//! write copies its batch, not the store. [`ConcurrentStore`] turns
//! that into multi-version concurrency control with a single-writer /
//! many-reader discipline:
//!
//! 1. **pin** — readers call [`ConcurrentStore::pin`] and get a
//!    [`StoreSnapshot`]: an immutable, `Arc`-shared store state they
//!    evaluate against for as long as they like;
//! 2. **evaluate** — pinned evaluation never takes the writer lock, so
//!    readers proceed while a writer batch is in flight;
//! 3. **publish** — [`ConcurrentStore::write`] serializes writers on a
//!    mutex, applies the whole batch to a working clone of the
//!    published snapshot, and — only if the batch returns `Ok` —
//!    publishes that clone. A failed or panicking batch publishes
//!    *nothing* and leaves nothing behind (batch atomicity;
//!    deliberately stricter than the single-session
//!    [`Store::apply_updates`] applied-prefix contract, so concurrent
//!    readers never observe a half-applied batch);
//! 4. **retire** — old snapshots live until their last reader drops
//!    them; [`ConcurrentStore::compact`] is just a writer batch whose
//!    new snapshot has a rebuilt dictionary, so readers pinned to the
//!    pre-compaction snapshot keep decoding through their own
//!    dictionary, undisturbed by the code remap.

use std::ops::Deref;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use crate::error::StoreError;
use crate::store::{CompactionStats, Store};

/// An immutable, `Arc`-shared [`Store`] state pinned by a reader.
///
/// Dereferences to [`Store`], so every read-side API (`relation`,
/// `graph`, `stats`, the executor's scan/expand routes) works
/// unchanged on a snapshot. Cloning is a reference-count bump.
#[derive(Debug, Clone)]
pub struct StoreSnapshot(Arc<Store>);

impl StoreSnapshot {
    /// Freezes `store` into a snapshot.
    pub fn new(store: Store) -> Self {
        StoreSnapshot(Arc::new(store))
    }

    /// The underlying store state.
    pub fn as_store(&self) -> &Store {
        &self.0
    }

    /// Whether two handles pin the *same* published state (pointer
    /// identity, not structural equality).
    pub fn ptr_eq(a: &StoreSnapshot, b: &StoreSnapshot) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl Deref for StoreSnapshot {
    type Target = Store;

    fn deref(&self) -> &Store {
        &self.0
    }
}

impl From<Store> for StoreSnapshot {
    fn from(store: Store) -> Self {
        StoreSnapshot::new(store)
    }
}

/// A [`Store`] promoted to concurrent use: a single serialized writer
/// and any number of readers pinned to published [`StoreSnapshot`]s.
///
/// Lock discipline: `writer` serializes mutation batches and is held
/// across the whole clone → apply → publish cycle; `published` is a
/// read-mostly slot held only for the instant of a pointer swap or
/// clone, and is the one copy of the last committed state. Readers
/// never touch `writer`; writers touch `published` to clone it and,
/// after the batch committed, to swap it. Poisoning is survivable by
/// construction — a panicking batch dies with its working clone, the
/// published snapshot still holds the last committed state — so both
/// locks recover via [`PoisonError::into_inner`] instead of
/// propagating the panic to every future caller.
#[derive(Debug)]
pub struct ConcurrentStore {
    writer: Mutex<()>,
    published: RwLock<StoreSnapshot>,
}

impl ConcurrentStore {
    /// Wraps an initial store state and publishes it as the first
    /// snapshot.
    pub fn new(store: Store) -> Self {
        ConcurrentStore {
            published: RwLock::new(StoreSnapshot::new(store)),
            writer: Mutex::new(()),
        }
    }

    /// Pins the most recently published snapshot. O(1): a lock-scoped
    /// clone of an `Arc`.
    pub fn pin(&self) -> StoreSnapshot {
        self.published
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Runs a mutation batch under the serialized writer on a working
    /// clone of the published snapshot and, **iff it returns `Ok`**,
    /// publishes that clone as the new snapshot. On `Err` — or a panic
    /// — the clone is dropped and nothing is published: readers never
    /// see a partially applied batch, and the next writer starts from
    /// the last committed state.
    pub fn write<T, E>(&self, batch: impl FnOnce(&mut Store) -> Result<T, E>) -> Result<T, E> {
        let _writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let mut work = Store::clone(&self.pin());
        let out = batch(&mut work)?;
        let retired = std::mem::replace(
            &mut *self
                .published
                .write()
                .unwrap_or_else(PoisonError::into_inner),
            StoreSnapshot::new(work),
        );
        // Freed (when no reader pins it) outside the published lock.
        drop(retired);
        Ok(out)
    }

    /// Compaction as a snapshot swap: rebuilds the dictionary and
    /// indexes in the writer's working copy and publishes the result.
    /// Readers pinned to older snapshots keep their own dictionary —
    /// the remap never reaches them.
    pub fn compact(&self) -> Result<CompactionStats, StoreError> {
        self.write(Store::compact)
    }
}

impl From<Store> for ConcurrentStore {
    fn from(store: Store) -> Self {
        ConcurrentStore::new(store)
    }
}

impl Default for ConcurrentStore {
    fn default() -> Self {
        ConcurrentStore::new(Store::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BulkGraph, GraphForm};
    use pgq_graph::Update;
    use pgq_relational::{RelName, Relation};
    use pgq_value::{tuple, Tuple, Value};

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn snapshot_types_are_send_and_sync() {
        assert_send_sync::<StoreSnapshot>();
        assert_send_sync::<ConcurrentStore>();
    }

    #[test]
    fn failed_batch_publishes_nothing() {
        let store = ConcurrentStore::default();
        let before = store.pin();
        let out: Result<(), &str> = store.write(|s| {
            s.register_relation("R".into(), &Relation::unary([1i64]))
                .unwrap();
            Err("boom")
        });
        assert_eq!(out, Err("boom"));
        let after = store.pin();
        assert!(StoreSnapshot::ptr_eq(&before, &after));
        // The next committed batch starts from the last published state.
        store
            .write(|s| -> Result<(), StoreError> {
                assert_eq!(s.stats().dictionary_total, 0);
                Ok(())
            })
            .unwrap();
    }

    /// A batch that panics half-way leaves nothing behind: the poisoned
    /// writer lock recovers, and the next write starts from the last
    /// committed state, not from the half-applied working clone.
    #[test]
    fn a_panicking_batch_publishes_nothing() {
        let store = ConcurrentStore::default();
        store
            .write(|s| s.register_relation("R".into(), &Relation::unary([1i64])))
            .unwrap();
        let committed = store.pin();
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.write(|s| -> Result<(), StoreError> {
                s.register_relation("R".into(), &Relation::unary([2i64]))?;
                panic!("the batch dies after its first step");
            })
        }));
        assert!(died.is_err());
        assert!(StoreSnapshot::ptr_eq(&committed, &store.pin()));
        store
            .write(|s| -> Result<(), StoreError> {
                assert_eq!(s.scan(&"R".into()).unwrap(), vec![tuple![1]]);
                assert_eq!(s.dict().len(), 1);
                Ok(())
            })
            .unwrap();
    }

    /// The copy-on-write rule, held exactly: one `embed_churn`-shaped
    /// batch (16 fresh edges, each with its label and amount, and the
    /// previous batch's 16 edges removed: 64 updates) on 10⁴ nodes /
    /// 5 × 10⁴ edges publishes a snapshot that shares every frozen base
    /// with the one before it — probe indexes, dictionary, CSRs — and
    /// whose tails hold at most what the batch added. Its graph entry
    /// holds the snapshot's own relations and no index until a reader
    /// derives one, which leaves the snapshot before it alone.
    #[test]
    fn a_write_copies_its_batch_not_the_store() {
        const NODES: u32 = 10_000;
        const EDGES: u32 = 50_000;
        const BATCH: i64 = 16;
        let views: [RelName; 6] = ["N", "E", "S", "T", "L", "P"].map(Into::into);
        let node = |i: i64| Tuple::unary(Value::str(format!("acct{i}")));
        let edge = |j: i64| Tuple::unary(Value::int(j));
        let mut g = BulkGraph::new();
        for i in 0..NODES {
            let n = g.add_node(node(i.into())[0].clone());
            g.node_props
                .push((n, Value::str("isBlocked"), Value::bool(i % 97 == 0)));
        }
        let mut x = 1u64;
        for j in 0..EDGES {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let (s, t) = ((x >> 40) as u32 % NODES, (x >> 16) as u32 % NODES);
            let e = g.add_edge(Value::int(j.into()), s, t);
            g.labels.push((e, Value::str("Transfer")));
            g.edge_props
                .push((e, Value::str("amount"), Value::int((j % 1000).into())));
        }
        let mut store = Store::new();
        store
            .bulk_load("G", views.clone(), GraphForm::Exact(1), &g, 1)
            .unwrap();
        let batch = |round: i64| {
            let mut updates = Vec::new();
            for k in 0..BATCH {
                let id = edge(1_000_000 + round * BATCH + k);
                updates.push(Update::AddEdge {
                    id: id.clone(),
                    src: node(k * 37),
                    tgt: node(k * 91 + round),
                });
                updates.push(Update::AddLabel(id.clone(), Value::str("Transfer")));
                updates.push(Update::SetProp(id, Value::str("amount"), Value::int(k)));
            }
            if round > 0 {
                let gone = (0..BATCH).map(|k| edge(1_000_000 + (round - 1) * BATCH + k));
                updates.extend(gone.map(Update::RemoveEdge));
            }
            updates
        };
        let cs = ConcurrentStore::new(store);
        // The first batch builds the probe indexes its probes need;
        // compaction rebuilds exactly those as bases and folds every
        // tail.
        cs.write(|s| s.apply_updates("G", &batch(0))).unwrap();
        cs.compact().unwrap();
        let a = cs.pin();
        assert_eq!(batch(1).len(), 64);
        cs.write(|s| s.apply_updates("G", &batch(1))).unwrap();
        let b = cs.pin();
        for name in &views {
            let (ra, rb) = (a.relation(name).unwrap(), b.relation(name).unwrap());
            assert!(ra.shares_index_base(rb), "{name}: probe-index base");
            assert_eq!(ra.index_tail_len(), 0, "{name}: compaction folds");
            assert!(rb.index_tail_len() <= BATCH as usize, "{name}: tail");
        }
        for name in ["S", "T", "L"].map(RelName::from) {
            let (ca, cb) = (a.adjacency(&name).unwrap(), b.adjacency(&name).unwrap());
            assert!(std::ptr::eq(ca.base(), cb.base()), "{name}: CSR base");
        }
        assert!(
            a.dict.names().shares_base(b.dict.names()),
            "dictionary base"
        );
        assert_eq!(a.dict.names().tail_len(), 0);
        assert!(
            b.dict.names().tail_len() <= BATCH as usize,
            "fresh edge ids"
        );
        let (ga, gb) = (a.graph("G").unwrap(), b.graph("G").unwrap());
        for (snap, entry) in [(&a, ga), (&b, gb)] {
            for (v, handle) in views.iter().zip(entry.view_relations()) {
                assert!(std::ptr::eq(&**handle, snap.relation(v).unwrap()), "{v}");
            }
        }
        assert!(ga.derived_index().is_none() && gb.derived_index().is_none());
        let builds = || cs.pin().counters().snapshot().graph_index_builds;
        let before = builds();
        assert_eq!(gb.adjacency().node_count(), ga.adjacency().node_count());
        assert_eq!(builds(), before + 2, "one derivation per state");
        assert!(!std::ptr::eq(ga.adjacency(), gb.adjacency()));
        gb.adjacency();
        assert_eq!(builds(), before + 2);
    }

    #[test]
    fn pinned_snapshot_survives_later_writes() {
        let store = ConcurrentStore::default();
        let empty = store.pin();
        store
            .write(|s| s.register_relation("R".into(), &Relation::unary(["held"])))
            .unwrap();
        let one = store.pin();
        assert!(!StoreSnapshot::ptr_eq(&empty, &one));
        assert_eq!(empty.stats().dictionary_total, 0);
        assert_eq!(one.stats().dictionary_total, 1);
    }
}
