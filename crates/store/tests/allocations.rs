//! The store's writer path allocates per batch, not per row: appending
//! `4n` rows to an indexed relation makes as many heap allocations as
//! appending `n`, and one 64-update `apply_updates` batch on a
//! [`ConcurrentStore`] working clone makes as many over probe-index
//! tails of `4n` rows as over tails of `n` — also when planner
//! statistics were read before it, so the batch keeps the distinct
//! counts of what it writes.
//!
//! A counting global allocator counts fresh allocations on the calling
//! thread. A buffer that grows by `realloc` stays one allocation; an
//! index that allocated one key per row, or one bucket per new code,
//! would add thousands.

use pgq_graph::Update;
use pgq_relational::{Database, Relation};
use pgq_store::{ColumnarRelation, ConcurrentStore, GraphForm, Store, StoreStatistics};
use pgq_value::{tuple, Tuple, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded to `System` unchanged; the counter is
// a const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, size: usize) -> *mut u8 {
        System.realloc(ptr, layout, size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on the calling thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Rows the indexes are built over: a tail of up to `4n` rows stays
/// below the fold threshold (half the base), so neither run folds.
const BASE: u32 = 20_000;

#[test]
fn appends_allocate_per_batch_not_per_row() {
    let append = |n: u32| {
        let mut col = ColumnarRelation::from_codes(
            2,
            vec![(0..BASE).collect(), (0..BASE).map(|i| i % 97).collect()],
        );
        // The first probe builds the indexes.
        assert_eq!(col.find_live(&[0, 0]), Some(0));
        // Every row brings a new code to both end columns.
        let row = |i: u32| [BASE + 2 * i, BASE + 2 * i + 1];
        let made = allocations(|| {
            for i in 0..n {
                assert!(col.find_live(&row(i)).is_none() && col.find_dead(&row(i)).is_none());
                col.append(&row(i));
            }
        });
        assert_eq!(col.find_live(&row(n - 1)), Some((BASE + n - 1) as usize));
        assert_eq!(col.live_rows_with_suffix(&[row(0)[1]]).0, [BASE as usize]);
        made
    };
    let (n, four_n) = (append(1_000), append(4_000));
    assert_eq!(four_n, n, "{n} allocations over n rows, {four_n} over 4n");
}

/// Nodes `0..NODES` in a ring of edges `NODES + i: i → i + 1`, each
/// node carrying the property `0 = i`; values are integers, so every
/// update below interns codes the dictionary already holds.
const NODES: i64 = 4_000;

fn ring() -> Database {
    let mut db = Database::new();
    for i in 0..NODES {
        let e = NODES + i;
        db.insert("N", tuple![i]).unwrap();
        db.insert("E", tuple![e]).unwrap();
        db.insert("S", tuple![e, i]).unwrap();
        db.insert("T", tuple![e, (i + 1) % NODES]).unwrap();
        db.insert("P", tuple![i, 0, i]).unwrap();
    }
    db.add_relation("L", Relation::empty(2));
    db
}

fn set_prop(id: i64, key: i64, value: i64) -> Update {
    Update::SetProp(
        Tuple::unary(Value::int(id)),
        Value::int(key),
        Value::int(value),
    )
}

/// Allocations of one 64-update `SetProp` batch on a [`ConcurrentStore`]
/// whose `P` carries `tail` rows in its probe-index tail. With
/// `statistics` the planner statistics are read before the tail and
/// again before the batch, so the batch also keeps the distinct counts
/// of every relation it writes.
fn batch_allocations(tail: i64, statistics: bool) -> u64 {
    let db = ring();
    let mut store = Store::from_database(&db);
    store
        .register_view_graph(
            "G",
            ["N", "E", "S", "T", "L", "P"].map(Into::into),
            &db,
            GraphForm::Exact(1),
        )
        .unwrap();
    let store = ConcurrentStore::new(store);
    let read = || {
        if statistics {
            store.pin().statistics();
        }
    };
    read();
    // `tail` new property rows: the first probe builds `P`'s indexes,
    // and the rows land in their tail.
    let preload: Vec<Update> = (0..tail).map(|i| set_prop(i, 1, i)).collect();
    store.write(|s| s.apply_updates("G", &preload)).unwrap();
    read();
    // The measured batch copies that tail into its working clone.
    let batch: Vec<Update> = (0..64).map(|j| set_prop(NODES - 1 - j, 2, j)).collect();
    let made = allocations(|| store.write(|s| s.apply_updates("G", &batch)).unwrap());
    let published = store.pin();
    let p = published.relation(&"P".into()).unwrap();
    assert_eq!(p.len(), (NODES + tail + 64) as usize);
    if statistics {
        // The counts the batch kept are exact, and no read recounted.
        let stats = published.statistics();
        assert_eq!(*stats, StoreStatistics::recount(&published, stats.epoch));
        assert_eq!(stats.distinct(&"P".into(), 1), Some(3));
        assert_eq!(published.counters().snapshot().statistics_recounts, 1);
    }
    made
}

#[test]
fn a_write_batch_allocates_per_batch_not_per_tail_row() {
    let (n, four_n) = (
        batch_allocations(400, false),
        batch_allocations(1_600, false),
    );
    assert_eq!(
        four_n, n,
        "{n} allocations over index tails of n rows, {four_n} over 4n"
    );
}

#[test]
fn a_write_batch_keeps_the_statistics_per_batch_not_per_tail_row() {
    let (n, four_n) = (batch_allocations(400, true), batch_allocations(1_600, true));
    assert_eq!(
        four_n, n,
        "{n} allocations over index tails of n rows, {four_n} over 4n"
    );
}
