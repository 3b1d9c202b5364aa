//! The executor's structures keyed by row allocate per batch, not per
//! row: a pair closure (`k = 1` and `k = 2` identifiers), a
//! keyed `HashJoin` and a `Distinct` make as many heap allocations over
//! `4n` input rows as over `n`.
//!
//! A counting global allocator counts fresh allocations on the calling
//! thread (the executor runs sequentially there). A buffer that grows
//! by `realloc` stays one allocation; a table that allocated one `Vec`
//! per row would add thousands.

use pgq_exec::{execute_opts, ExecOptions, PhysPlan};
use pgq_relational::Database;
use pgq_store::Store;
use pgq_value::tuple;
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

/// `chains` disjoint 3-edge paths as `E(a, b)` and, with 2-component
/// identifiers, as `E2(0, a, 0, b)`: every closure row count is linear
/// in the input.
fn db(chains: i64) -> Database {
    let mut d = Database::new();
    for c in 0..chains {
        for i in 4 * c..4 * c + 3 {
            d.insert("E", tuple![i, i + 1]).unwrap();
            d.insert("E2", tuple![0, i, 0, i + 1]).unwrap();
        }
    }
    d
}

/// Allocations made by one execution of `plan` on the calling thread.
fn allocations(plan: &PhysPlan, d: &Database, store: &Store) -> u64 {
    let opts = ExecOptions::sequential();
    let before = ALLOCATIONS.with(Cell::get);
    let out = execute_opts(plan, d, Some(store), &opts).unwrap();
    let after = ALLOCATIONS.with(Cell::get);
    assert!(!out.is_empty());
    after - before
}

#[test]
fn keyed_structures_allocate_per_batch_not_per_row() {
    let scan = |name: &str| PhysPlan::IndexScan(name.into());
    let closure = |rel: &str, k: usize| PhysPlan::Fixpoint {
        base: Box::new(scan(rel)),
        step: Box::new(scan(rel)),
        join: (0..k).map(|i| (k + i, i)).collect(),
        project: (0..k).chain(3 * k..4 * k).collect(),
        skip: 0,
        rounds: None,
    };
    let plans = [
        ("pair closure, k = 1", closure("E", 1)),
        ("pair closure, k = 2", closure("E2", 2)),
        (
            "keyed HashJoin",
            scan("E").hash_join(scan("E"), vec![(1, 0)]),
        ),
        (
            "Distinct",
            PhysPlan::Union {
                left: Box::new(scan("E2")),
                right: Box::new(scan("E2")),
            }
            .distinct(),
        ),
    ];
    let (small, large) = (db(500), db(2_000));
    let (small_store, large_store) = (Store::from_database(&small), Store::from_database(&large));
    for (what, plan) in &plans {
        let n = allocations(plan, &small, &small_store);
        let four_n = allocations(plan, &large, &large_store);
        assert_eq!(
            four_n, n,
            "{what}: {n} allocations over n rows, {four_n} over 4n"
        );
    }
}
