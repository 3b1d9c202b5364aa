//! Concurrent snapshot publication over [`Store`] (ARCHITECTURE.md §2
//! step 11; DESIGN.md §5).
//!
//! A [`Store`] is cheap to clone since its bulky immutable pieces (the
//! value dictionary, relation columns, frozen CSR bases) are
//! `Arc`-shared. [`ConcurrentStore`] turns that into multi-version
//! concurrency control with a single-writer / many-reader discipline:
//!
//! 1. **pin** — readers call [`ConcurrentStore::pin`] and get a
//!    [`StoreSnapshot`]: an immutable, `Arc`-shared store state they
//!    evaluate against for as long as they like;
//! 2. **evaluate** — pinned evaluation never takes the writer lock, so
//!    readers proceed while a writer batch is in flight;
//! 3. **publish** — [`ConcurrentStore::write`] serializes writers on a
//!    mutex, applies the whole batch to a private working copy, and —
//!    only if the batch succeeds — atomically swaps the published
//!    snapshot. A failed batch publishes *nothing* (batch atomicity;
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
/// clone. Readers never touch `writer`; writers touch `published`
/// once, after the batch committed. Poisoning is survivable by
/// construction — a panicking batch dies with its private working
/// copy, the published snapshot still holds the last committed state —
/// so both locks recover via [`PoisonError::into_inner`] instead of
/// propagating the panic to every future caller.
#[derive(Debug)]
pub struct ConcurrentStore {
    writer: Mutex<Store>,
    published: RwLock<StoreSnapshot>,
}

impl ConcurrentStore {
    /// Wraps an initial store state and publishes it as the first
    /// snapshot.
    pub fn new(store: Store) -> Self {
        ConcurrentStore {
            published: RwLock::new(StoreSnapshot::new(store.clone())),
            writer: Mutex::new(store),
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

    /// Runs a mutation batch under the serialized writer and, **iff it
    /// returns `Ok`**, publishes the post-batch state as a new
    /// snapshot. On `Err` the working copy is rolled back to the last
    /// committed state and nothing is published — readers never see a
    /// partially applied batch.
    pub fn write<T, E>(&self, batch: impl FnOnce(&mut Store) -> Result<T, E>) -> Result<T, E> {
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let committed = writer.clone();
        match batch(&mut writer) {
            Ok(out) => {
                let snapshot = StoreSnapshot::new(writer.clone());
                *self
                    .published
                    .write()
                    .unwrap_or_else(PoisonError::into_inner) = snapshot;
                Ok(out)
            }
            Err(e) => {
                *writer = committed;
                Err(e)
            }
        }
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
    use pgq_relational::Relation;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn snapshot_types_are_send_and_sync() {
        assert_send_sync::<StoreSnapshot>();
        assert_send_sync::<ConcurrentStore>();
    }

    #[test]
    fn failed_batch_publishes_nothing_and_rolls_back() {
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
        // The rollback also reset the writer's working copy: the next
        // committed batch starts from the last published state.
        store
            .write(|s| -> Result<(), StoreError> {
                assert_eq!(s.stats().dictionary_total, 0);
                Ok(())
            })
            .unwrap();
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
