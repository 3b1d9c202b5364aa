//! The machine-readable perf smoke behind the `BENCH_*.json` records
//! (`BENCH_2.json` through `BENCH_8.json`).
//!
//! `cargo run --release -p pgq-bench --bin report -- --json [path]`
//! runs a reduced-size engine-ablation suite (the `e12_engine` and
//! `e13_store` Criterion benches' shapes at CI-friendly sizes) and serializes `bench name → { mean ns, input
//! size }`, so the perf trajectory accumulates a data point per PR
//! instead of living only in bench logs. `BENCH_2.json` (committed
//! with PR 2) records the hash-join engine against the reference;
//! `BENCH_3.json` adds the S16 store-backed route ([`store_suite`]);
//! `BENCH_4.json` added the coded-vs-decoded execution ablation
//! (experiment E17 — it keeps the historical numbers; the decoded arm
//! was deleted with the executor's second pipeline, and
//! [`coded_suite`] still records the surviving `*_coded` keys);
//! `BENCH_5.json` adds the
//! incremental-update ablation ([`update_suite`], E18);
//! `BENCH_6.json` adds the morsel-parallelism ablation
//! ([`parallel_suite`], 1 vs. 4 worker threads); `BENCH_7.json` nests
//! the flat entries under `"benches"` and adds a `"profiles"` section
//! with per-operator `EXPLAIN ANALYZE` trees for the E17/E18 shapes
//! ([`profile_records`]), plus the metrics-overhead gate
//! ([`assert_metrics_overhead`]).

use pgq_core::{builders, eval_with, eval_with_store, EvalConfig, Query};
use pgq_exec::{
    execute_opts, execute_profiled, lower_onto_store, plan_ra, ExecOptions, JsonWriter, PhysPlan,
    PlannerChoice, QueryProfile,
};
use pgq_relational::{Database, RaExpr, RelName, RowCondition};
use pgq_store::{GraphForm, Store};
use pgq_workloads::{families, transfers};
use std::fmt::Write as _;
use std::time::Instant;

/// One measured bench point.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Bench name, `shape/instance`.
    pub name: String,
    /// Instance size as total tuple count.
    pub input_size: usize,
    /// Mean wall-clock nanoseconds per iteration.
    pub mean_ns: u128,
}

/// Mean nanoseconds of `f` over `iters` timed runs (after one warm-up).
pub fn mean_ns<F: FnMut()>(iters: usize, mut f: F) -> u128 {
    f(); // warm-up
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() / iters as u128
}

/// The edge-endpoint join `π_{$2,$4}(σ_{$1=$3}(S × T))` — the
/// product-then-filter shape the reference evaluator materializes in
/// full and the physical planner turns into a hash join.
pub fn endpoint_join() -> RaExpr {
    RaExpr::rel("S")
        .product(RaExpr::rel("T"))
        .select(RowCondition::col_eq(0, 2))
        .project(vec![1, 3])
}

/// `plan` lowered onto `store` as written — the one pass under the
/// estimator without statistics, so the recorded shapes stay the ones
/// `BENCH_3`–`BENCH_10` measured.
pub(crate) fn rule_plan(plan: PhysPlan, db: &Database, store: &Store) -> PhysPlan {
    lower_onto_store(plan, store, &db.schema(), PlannerChoice::Rule)
}

/// Runs the reduced-size engine ablation and returns the measured
/// entries. `scale` multiplies the instance sizes (1 = CI smoke).
pub fn engine_suite(scale: usize) -> Vec<BenchEntry> {
    engine_suite_entries(scale, true)
}

/// The shared transfers instance both suites measure — one
/// constructor, so the `(name, data)` pair can never drift apart
/// between [`engine_suite`] and [`store_suite`].
fn transfers_instance(scale: usize) -> (String, Database) {
    (
        format!("transfers_{}x{}", 500 * scale, 1000 * scale),
        transfers::canonical_transfers_db(500 * scale, 1000 * scale, 1_000, 7),
    )
}

/// The engine ablation, optionally without the shapes [`store_suite`]
/// also measures (`join_physical` on the transfers instance,
/// `reach_physical` on the grid) — [`full_suite`] composes the two
/// without measuring anything twice.
fn engine_suite_entries(scale: usize, with_shared: bool) -> Vec<BenchEntry> {
    let scale = scale.max(1);
    let reach = Query::pattern_ro(
        builders::reachability_output(),
        ["N", "E", "S", "T", "L", "P"],
    );
    let join = endpoint_join();
    let mut out = Vec::new();

    let (transfers_name, transfers_db) = transfers_instance(scale);
    let instances: Vec<(String, Database, usize)> = vec![
        (
            format!("grid_{}x5", 40 * scale),
            families::grid_db(40 * scale, 5),
            10,
        ),
        (transfers_name.clone(), transfers_db, 3),
    ];
    for (name, db, iters) in &instances {
        let size = db.tuple_count();
        out.push(BenchEntry {
            name: format!("join_reference/{name}"),
            input_size: size,
            mean_ns: mean_ns(*iters, || {
                join.eval(db).unwrap();
            }),
        });
        // The transfers join baseline is the store suite's when
        // composing.
        if with_shared || *name != transfers_name {
            out.push(BenchEntry {
                name: format!("join_physical/{name}"),
                input_size: size,
                mean_ns: mean_ns(*iters, || {
                    pgq_exec::eval_ra(&join, db).unwrap();
                }),
            });
        }
    }

    // Reachability routes on the grid instance only (the closure is the
    // dominant cost; the join ablation above covers the transfers db).
    let (name, db, _) = &instances[0];
    let size = db.tuple_count();
    out.push(BenchEntry {
        name: format!("reach_nfa/{name}"),
        input_size: size,
        mean_ns: mean_ns(5, || {
            eval_with(&reach, db, EvalConfig::default()).unwrap();
        }),
    });
    // Likewise the grid reachability baseline.
    if with_shared {
        out.push(BenchEntry {
            name: format!("reach_physical/{name}"),
            input_size: size,
            mean_ns: mean_ns(5, || {
                eval_with(&reach, db, EvalConfig::physical()).unwrap();
            }),
        });
    }
    out
}

/// The canonical six view relation names.
fn canonical_views() -> [RelName; 6] {
    ["N", "E", "S", "T", "L", "P"].map(Into::into)
}

/// A session store over `db` with the canonical graph registered —
/// the one-time setup whose amortization the store suite measures.
pub fn canonical_store(db: &Database) -> Store {
    let mut store = Store::from_database(db);
    store
        .register_view_graph("G", canonical_views(), db, GraphForm::Exact(1))
        .expect("canonical workload views are valid");
    store
}

/// The S16 store ablation (experiment E16, `BENCH_3.json`): the same
/// reachability/TC workload through the PR 2 hash-join engine
/// (`reach_physical`, which rebuilds and revalidates the view per
/// query) and through the frozen store (`reach_store`, CSR sweeps over
/// the session catalog), plus the one-time registration cost
/// (`store_register`) and the endpoint join on columnar indexes
/// (`join_store`).
pub fn store_suite(scale: usize) -> Vec<BenchEntry> {
    let scale = scale.max(1);
    let reach = Query::pattern_ro(
        builders::reachability_output(),
        ["N", "E", "S", "T", "L", "P"],
    );
    let join = endpoint_join();
    let mut out = Vec::new();

    let instances: Vec<(String, Database, usize)> = vec![
        (
            format!("grid_{}x5", 40 * scale),
            families::grid_db(40 * scale, 5),
            10,
        ),
        (
            format!("cycle_{}", 150 * scale),
            families::cycle_db(150 * scale),
            10,
        ),
    ];
    for (name, db, iters) in &instances {
        let size = db.tuple_count();
        let store = canonical_store(db);
        out.push(BenchEntry {
            name: format!("store_register/{name}"),
            input_size: size,
            mean_ns: mean_ns(*iters, || {
                canonical_store(db);
            }),
        });
        out.push(BenchEntry {
            name: format!("reach_physical/{name}"),
            input_size: size,
            mean_ns: mean_ns(*iters, || {
                eval_with(&reach, db, EvalConfig::physical()).unwrap();
            }),
        });
        out.push(BenchEntry {
            name: format!("reach_store/{name}"),
            input_size: size,
            mean_ns: mean_ns(*iters, || {
                eval_with_store(&reach, db, EvalConfig::physical(), &store).unwrap();
            }),
        });
    }

    // The endpoint join on the transfers instance: hash join over row
    // vectors vs. AdjacencyExpand over the columnar store. The shared
    // constructor keeps the baseline name/instance identical to
    // `engine_suite`'s, which is why `full_suite` measures it once.
    let (instance, db) = transfers_instance(scale);
    let store = Store::from_database(&db);
    let size = db.tuple_count();
    out.push(BenchEntry {
        name: format!("join_physical/{instance}"),
        input_size: size,
        mean_ns: mean_ns(3, || {
            pgq_exec::eval_ra(&join, &db).unwrap();
        }),
    });
    out.push(BenchEntry {
        name: format!("join_store/{instance}"),
        input_size: size,
        mean_ns: mean_ns(3, || {
            pgq_exec::eval_ra_with(&join, &db, &store).unwrap();
        }),
    });
    out
}

/// The reachability plan of the coded-pipeline benches: the
/// transitive closure of the *derived* step relation
/// `π_{$2,$4}(σ_{$1=$3}(S × T))` over a canonical graph database —
/// the FO\[TC\]-style pipeline every layer of the engine participates
/// in. The optimizer turns the step into a hash join (the store pass
/// then into a CSR `AdjacencyExpand`) with an explicit `Distinct`, and
/// the closure runs on the general semi-naive fixpoint, so the
/// shape exercises coded scans, expansion, projection, dedup and
/// fixpoint accumulation.
pub fn reach_tc_plan(db: &Database) -> PhysPlan {
    let step = plan_ra(&endpoint_join(), &db.schema()).expect("canonical schema has S/T");
    PhysPlan::Fixpoint {
        base: Box::new(step.clone()),
        step: Box::new(step),
        join: vec![(1, 0)],
        project: vec![0, 3],
    }
}

/// The coded-pipeline benches (the surviving arm of the E17 ablation,
/// `BENCH_4.json`): the reachability closure over the grid/cycle
/// workloads and the endpoint join over the (string-valued) transfers
/// instance, each through the store-backed engine.
pub fn coded_suite(scale: usize) -> Vec<BenchEntry> {
    let scale = scale.max(1);
    let mut out = Vec::new();
    let instances: Vec<(String, Database, usize)> = vec![
        (
            format!("grid_{}x5", 40 * scale),
            families::grid_db(40 * scale, 5),
            10,
        ),
        (
            format!("cycle_{}", 150 * scale),
            families::cycle_db(150 * scale),
            10,
        ),
    ];
    let opts = ExecOptions::default();
    for (name, db, iters) in &instances {
        let store = Store::from_database(db);
        let plan = rule_plan(reach_tc_plan(db), db, &store);
        out.push(BenchEntry {
            name: format!("reach_store_coded/{name}"),
            input_size: db.tuple_count(),
            mean_ns: mean_ns(*iters, || {
                execute_opts(&plan, db, Some(&store), &opts)
                    .unwrap()
                    .into_relation()
                    .unwrap();
            }),
        });
    }
    let (instance, db) = transfers_instance(scale);
    let store = Store::from_database(&db);
    let join = endpoint_join();
    out.push(BenchEntry {
        name: format!("join_store_coded/{instance}"),
        input_size: db.tuple_count(),
        mean_ns: mean_ns(3, || {
            pgq_exec::eval_ra_with(&join, &db, &store).unwrap();
        }),
    });
    out
}

/// A database holding one binary relation `R` — the edge endpoint
/// pairs of a canonical instance, joined out of `S`/`T`. Registering it
/// gives the store a per-relation CSR over `R`, so the PR 6 parallel
/// suite's fixpoint runs as source-sharded frontier sweeps rather than
/// the per-round semi-naive join (whose tiny deltas leave nothing to
/// parallelize on path-like workloads).
fn pair_db(db: &Database) -> Database {
    let pairs = pgq_exec::eval_ra(&endpoint_join(), db).expect("canonical S/T");
    let mut out = Database::new();
    out.add_relation("R", pairs);
    out
}

/// The CSR-shaped reachability closure over the pair relation `R`: the
/// exact `Fixpoint` pattern the executor routes onto the adjacency
/// index (base arity 2, step `IndexScan`, join `$1 = $0`, project
/// endpoints).
fn pair_reach_plan() -> PhysPlan {
    let scan = || Box::new(PhysPlan::IndexScan("R".into()));
    PhysPlan::Fixpoint {
        base: scan(),
        step: scan(),
        join: vec![(1, 0)],
        project: vec![0, 3],
    }
}

/// The PR 6 morsel-parallelism ablation (`BENCH_6.json`): the coded
/// executor at 1 vs. 4 worker threads, measured at the executor
/// boundary (`execute_opts` without the sorted-set decode, which is
/// sequential and identical on both sides) —
///
/// * `reach_par{1,4}`: the CSR reachability fixpoint over grid/cycle
///   pair relations, sharded by source node;
/// * `join_par{1,4}`: the endpoint hash join on a transfers instance
///   large enough for several 1024-row morsels per worker
///   (radix-partitioned build, morsel-parallel probe).
///
/// Instances are sized above the other suites' so the parallel
/// sections dominate scan/merge overheads; names stay disjoint from
/// [`store_suite`]/[`coded_suite`] keys.
pub fn parallel_suite(scale: usize) -> Vec<BenchEntry> {
    let scale = scale.max(1);
    let mut out = Vec::new();
    let threads = [
        ("par1", ExecOptions::with_threads(1)),
        ("par4", ExecOptions::with_threads(4)),
    ];

    let instances: Vec<(String, Database, usize)> = vec![
        (
            format!("grid_{}x5", 80 * scale),
            families::grid_db(80 * scale, 5),
            5,
        ),
        (
            format!("cycle_{}", 300 * scale),
            families::cycle_db(300 * scale),
            5,
        ),
    ];
    for (name, db, iters) in &instances {
        let rdb = pair_db(db);
        let store = Store::from_database(&rdb);
        let plan = rule_plan(pair_reach_plan(), &rdb, &store);
        let size = db.tuple_count();
        for (tag, opts) in &threads {
            out.push(BenchEntry {
                name: format!("reach_{tag}/{name}"),
                input_size: size,
                mean_ns: mean_ns(*iters, || {
                    execute_opts(&plan, &rdb, Some(&store), opts).unwrap();
                }),
            });
        }
    }

    // The endpoint join on a transfers instance with tens of thousands
    // of rows per side: string IBANs intern to `u32` codes, the probe
    // is the hot loop.
    let (accounts, xfers) = (10_000 * scale, 20_000 * scale);
    let instance = format!("transfers_{accounts}x{xfers}");
    let db = transfers::canonical_transfers_db(accounts, xfers, 1_000, 7);
    let store = Store::from_database(&db);
    let plan = rule_plan(
        plan_ra(&endpoint_join(), &db.schema()).expect("canonical schema has S/T"),
        &db,
        &store,
    );
    let size = db.tuple_count();
    for (tag, opts) in &threads {
        out.push(BenchEntry {
            name: format!("join_{tag}/{instance}"),
            input_size: size,
            mean_ns: mean_ns(3, || {
                execute_opts(&plan, &db, Some(&store), opts).unwrap();
            }),
        });
    }
    out
}

/// The PR 6 acceptance floors, checked on a measured entry set from an
/// **optimized** build on a machine with ≥ 4 cores (the CI runner; the
/// caller gates on `std::thread::available_parallelism`): 4 workers
/// must beat 1 worker by ≥ 1.8× on the grid/cycle reachability sweeps
/// and the transfers join. The floor is far below the near-linear
/// sweep scaling so scheduler noise cannot flake CI, but a regression
/// that serializes the executor (or a merge that eats the parallel
/// gain) still fails the build.
pub fn assert_parallel_floors(entries: &[BenchEntry]) {
    let find = |name: &str| {
        entries
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("parallel floor gate: bench entry {name} missing"))
    };
    for inst in ["grid_80x5", "cycle_300"] {
        let one = find(&format!("reach_par1/{inst}"));
        let four = find(&format!("reach_par4/{inst}"));
        let speedup = one.mean_ns as f64 / four.mean_ns.max(1) as f64;
        assert!(
            speedup >= 1.8,
            "4-worker reachability should beat 1 worker on {inst} (got {speedup:.2}×)"
        );
    }
    let one = find("join_par1/transfers_10000x20000");
    let four = find("join_par4/transfers_10000x20000");
    let speedup = one.mean_ns as f64 / four.mean_ns.max(1) as f64;
    assert!(
        speedup >= 1.8,
        "the 4-worker endpoint join should beat 1 worker (got {speedup:.2}×)"
    );
}

/// The E18 update batch against a canonical `families` instance:
/// `adds` fresh nodes chained off node `0` and `removes` of the
/// generated edges (ids `10_000 + i`), plus one property write — a
/// mixed insert/delete workload whose size is independent of the
/// database, so incremental maintenance has something to amortize.
pub fn canonical_update_batch(adds: usize, removes: usize) -> Vec<pgq_graph::Update> {
    use pgq_graph::Update;
    use pgq_value::{Tuple, Value};
    let node = |i: i64| Tuple::unary(Value::int(i));
    let mut out = Vec::with_capacity(2 * adds + removes + 1);
    let mut prev = node(0);
    for i in 0..adds {
        let fresh = node(900_000 + i as i64);
        out.push(Update::AddNode(fresh.clone()));
        out.push(Update::AddEdge {
            id: node(910_000 + i as i64),
            src: prev,
            tgt: fresh.clone(),
        });
        prev = fresh;
    }
    for i in 0..removes {
        out.push(Update::RemoveEdge(node(10_000 + i as i64)));
    }
    out.push(Update::SetProp(
        node(0),
        Value::str("w"),
        Value::int(adds as i64),
    ));
    out
}

/// Reconstructs a [`Database`] from a store's live canonical six
/// relations — how the E18 shapes obtain "the updated database" for
/// the re-registration baseline and the post-update queries. Shared by
/// [`update_suite`], experiment E18, and the `e15_updates` bench so
/// the three can never measure different instances.
pub fn canonical_database_of(store: &Store) -> Database {
    let mut db = Database::new();
    for rel in ["N", "E", "S", "T", "L", "P"] {
        let arity = store
            .relation(&rel.into())
            .expect("canonical relation registered")
            .arity();
        let rows = store.scan(&rel.into()).expect("registered");
        db.add_relation(
            rel,
            pgq_relational::Relation::from_rows(arity, rows).expect("scan is well-typed"),
        );
    }
    db
}

/// Mean nanoseconds to absorb `batch` through `Store::apply_updates`,
/// each iteration on a pristine clone of `base` — the clone is
/// excluded from the timing (it is setup, not the work under
/// measurement).
pub fn time_incremental_apply(base: &Store, batch: &[pgq_graph::Update], iters: usize) -> u128 {
    let mut total = 0u128;
    for _ in 0..iters {
        let mut s = base.clone();
        let t0 = Instant::now();
        s.apply_updates("G", batch).expect("valid batch");
        total += t0.elapsed().as_nanos();
    }
    total / iters as u128
}

/// The E18 update ablation (`BENCH_5.json`): for each canonical
/// instance, the cost of absorbing [`canonical_update_batch`]
/// **incrementally** (`Store::apply_updates` on a registered store:
/// append/tombstone + delta overlays) vs. the only pre-PR 5 option — a
/// **full re-registration** of the updated database (re-intern, CSR
/// rebuild, `pgView` re-validation) — plus the reachability latency on
/// the updated store (`query_after_update`, reads through the
/// overlay).
pub fn update_suite(scale: usize) -> Vec<BenchEntry> {
    let scale = scale.max(1);
    let reach = Query::pattern_ro(
        builders::reachability_output(),
        ["N", "E", "S", "T", "L", "P"],
    );
    let batch = canonical_update_batch(16, 4);
    let mut out = Vec::new();
    let instances: Vec<(String, Database, usize)> = vec![
        (
            format!("grid_{}x5", 40 * scale),
            families::grid_db(40 * scale, 5),
            10,
        ),
        (
            format!("cycle_{}", 150 * scale),
            families::cycle_db(150 * scale),
            10,
        ),
    ];
    for (name, db, iters) in &instances {
        let size = db.tuple_count();
        let base = canonical_store(db);
        // The updated database, for the re-registration baseline and
        // the query measurements.
        let mut updated = base.clone();
        updated
            .apply_updates("G", &batch)
            .expect("the canonical batch is valid");
        let updated_db = canonical_database_of(&updated);
        out.push(BenchEntry {
            name: format!("update_incremental/{name}"),
            input_size: size,
            mean_ns: time_incremental_apply(&base, &batch, *iters),
        });
        // Full re-registration of the updated state — the pre-PR 5
        // way to make a store see an update.
        out.push(BenchEntry {
            name: format!("update_reregister/{name}"),
            input_size: size,
            mean_ns: mean_ns(*iters, || {
                canonical_store(&updated_db);
            }),
        });
        // Query latency straight after the update (overlay reads).
        out.push(BenchEntry {
            name: format!("query_after_update/{name}"),
            input_size: size,
            mean_ns: mean_ns(*iters, || {
                eval_with_store(&reach, &updated_db, EvalConfig::physical(), &updated).unwrap();
            }),
        });
    }
    out
}

/// The E18 acceptance floor, checked on a measured entry set from an
/// **optimized** build: absorbing the standard update batch
/// incrementally must be strictly cheaper than a full re-registration
/// on every instance — with a 2× margin so scheduler noise cannot
/// flake CI (the measured gap is far larger: the batch is O(Δ) work,
/// the rebuild is O(|D|) re-interning plus `pgView` re-validation).
pub fn assert_update_floors(entries: &[BenchEntry]) {
    let find = |name: &str| {
        entries
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("update floor gate: bench entry {name} missing"))
    };
    for inst in ["grid_40x5", "cycle_150"] {
        let incremental = find(&format!("update_incremental/{inst}"));
        let reregister = find(&format!("update_reregister/{inst}"));
        let speedup = reregister.mean_ns as f64 / incremental.mean_ns.max(1) as f64;
        assert!(
            speedup >= 2.0,
            "incremental apply should beat re-registration on {inst} (got {speedup:.2}×)"
        );
    }
}

/// [`engine_suite`] plus [`store_suite`] plus [`coded_suite`] plus
/// [`update_suite`] plus [`parallel_suite`] — the `BENCH_6.json`
/// record. The hash-join baselines the first two suites both cover are
/// measured once, by the store suite; key uniqueness is asserted so a
/// drift between the suites' naming can never silently corrupt the
/// record.
pub fn full_suite(scale: usize) -> Vec<BenchEntry> {
    let mut out = engine_suite_entries(scale, false);
    out.extend(store_suite(scale));
    out.extend(coded_suite(scale));
    out.extend(update_suite(scale));
    out.extend(parallel_suite(scale));
    let mut seen = std::collections::HashSet::new();
    for e in &out {
        assert!(seen.insert(&e.name), "duplicate bench key {}", e.name);
    }
    out
}

/// Per-operator `EXPLAIN ANALYZE` profiles for the E17 and E18 shapes —
/// the `"profiles"` section of `BENCH_7.json`. E17 is the coded
/// reachability closure ([`reach_tc_plan`]) executed instrumented; E18
/// is the store-route reachability query on a freshly-updated store
/// (the `query_after_update` shape), profiled through
/// `pgq_core::eval_with_store_profiled`. Deterministic fields (rows,
/// Δ-frontier sizes, build sizes) are stable across runs; timing fields
/// are runtime facts.
pub fn profile_records(scale: usize) -> Vec<(String, QueryProfile)> {
    let scale = scale.max(1);
    let mut out = Vec::new();

    // E17: the coded TC pipeline, per-operator.
    let name = format!("grid_{}x5", 40 * scale);
    let db = families::grid_db(40 * scale, 5);
    let store = Store::from_database(&db);
    let plan = rule_plan(reach_tc_plan(&db), &db, &store);
    let opts = ExecOptions::with_threads(4).with_metrics(true);
    let start = Instant::now();
    let (batch, root) =
        execute_profiled(&plan, &db, Some(&store), &opts).expect("the E17 plan executes");
    let rel = batch.into_relation().expect("decodable");
    out.push((
        format!("e17_reach_tc_coded/{name}"),
        QueryProfile {
            rows: rel.len() as u64,
            threads: opts.threads,
            elapsed_ns: start.elapsed().as_nanos() as u64,
            root,
        },
    ));

    // E18: reachability on the updated store (overlay reads).
    let reach = Query::pattern_ro(
        builders::reachability_output(),
        ["N", "E", "S", "T", "L", "P"],
    );
    let mut updated = canonical_store(&db);
    updated
        .apply_updates("G", &canonical_update_batch(16, 4))
        .expect("the canonical batch is valid");
    let updated_db = canonical_database_of(&updated);
    let (_, profile) = pgq_core::eval_with_store_profiled(
        &reach,
        &updated_db,
        EvalConfig::physical().with_threads(4),
        &updated,
    )
    .expect("the E18 query evaluates");
    out.push((format!("e18_query_after_update/{name}"), profile));
    out
}

/// The PR 7 observability gate: collecting per-operator metrics must
/// cost at most 5% wall clock on the parallel suite's join shape (the
/// hot-loop-heavy one; recording is per batch/operator, never per
/// tuple). Both sides take the **minimum** of three measured means so
/// scheduler noise cannot flake CI; only optimized builds are gated.
pub fn assert_metrics_overhead(scale: usize) {
    let scale = scale.max(1);
    let (accounts, xfers) = (10_000 * scale, 20_000 * scale);
    let db = transfers::canonical_transfers_db(accounts, xfers, 1_000, 7);
    let store = Store::from_database(&db);
    let plan = rule_plan(
        plan_ra(&endpoint_join(), &db.schema()).expect("canonical schema has S/T"),
        &db,
        &store,
    );
    let opts = ExecOptions::with_threads(4);
    let profiled = opts.clone().with_metrics(true);
    let best = |opts: &ExecOptions| {
        (0..3)
            .map(|_| {
                mean_ns(3, || {
                    execute_opts(&plan, &db, Some(&store), opts).unwrap();
                })
            })
            .min()
            .expect("three runs")
    };
    let off = best(&opts);
    let on = best(&profiled);
    let overhead = on as f64 / off.max(1) as f64;
    assert!(
        overhead <= 1.05,
        "metrics collection should cost ≤ 5% on the parallel join (got {overhead:.3}×)"
    );
}

/// Serializes entries as the `BENCH_*.json` object:
/// `{ "<name>": { "mean_ns": …, "input_size": … }, … }`.
pub fn to_json(entries: &[BenchEntry]) -> String {
    let mut out = String::from("{\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "  \"{}\": {{ \"mean_ns\": {}, \"input_size\": {} }}{comma}",
            e.name, e.mean_ns, e.input_size
        );
    }
    out.push_str("}\n");
    out
}

/// Writes the flat entry map as the `"benches"` section.
pub(crate) fn write_bench_section(w: &mut JsonWriter, entries: &[BenchEntry]) {
    w.key("benches");
    w.begin_object();
    for e in entries {
        w.key(&e.name);
        w.begin_object();
        w.key("mean_ns");
        w.number_u128(e.mean_ns);
        w.key("input_size");
        w.number(e.input_size as u64);
        w.end_object();
    }
    w.end_object();
}

/// Writes the per-operator trees as the `"profiles"` section.
pub(crate) fn write_profile_section(w: &mut JsonWriter, profiles: &[(String, QueryProfile)]) {
    w.key("profiles");
    w.begin_object();
    for (name, p) in profiles {
        w.key(name);
        p.write_json(w);
    }
    w.end_object();
}

/// The `BENCH_7.json` document: the flat entry map under `"benches"`
/// plus the per-operator [`QueryProfile`] trees under `"profiles"` —
/// one shared [`JsonWriter`], no serde.
pub fn to_json_with_profiles(
    entries: &[BenchEntry],
    profiles: &[(String, QueryProfile)],
) -> String {
    let mut w = JsonWriter::pretty();
    w.begin_object();
    write_bench_section(&mut w, entries);
    write_profile_section(&mut w, profiles);
    w.end_object();
    let mut out = w.finish();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_stable() {
        let entries = vec![
            BenchEntry {
                name: "join_reference/tiny".into(),
                input_size: 10,
                mean_ns: 1234,
            },
            BenchEntry {
                name: "join_physical/tiny".into(),
                input_size: 10,
                mean_ns: 56,
            },
        ];
        let json = to_json(&entries);
        assert!(
            json.contains("\"join_reference/tiny\": { \"mean_ns\": 1234, \"input_size\": 10 },")
        );
        assert!(json.trim_end().ends_with('}'));
        // Exactly one entry separator: the last entry has no trailing comma.
        assert_eq!(json.matches("},").count(), 1);
        assert!(json.contains("\"join_physical/tiny\": { \"mean_ns\": 56, \"input_size\": 10 }\n"));
    }

    #[test]
    fn join_shapes_agree_on_a_small_instance() {
        let db = families::grid_db(4, 3);
        let join = endpoint_join();
        assert_eq!(
            pgq_exec::eval_ra(&join, &db).unwrap(),
            join.eval(&db).unwrap()
        );
    }

    #[test]
    fn parallel_suite_plans_agree_with_sequential() {
        // The exact shapes `parallel_suite` times, at bench-irrelevant
        // sizes: 4 workers must return the same relation as 1.
        let run = |plan: &PhysPlan, db: &Database, store: &Store, threads: usize| {
            execute_opts(plan, db, Some(store), &ExecOptions::with_threads(threads))
                .unwrap()
                .into_relation()
                .unwrap()
        };
        let rdb = pair_db(&families::grid_db(6, 3));
        let store = Store::from_database(&rdb);
        let plan = rule_plan(pair_reach_plan(), &rdb, &store);
        assert_eq!(run(&plan, &rdb, &store, 1), run(&plan, &rdb, &store, 4));

        let db = transfers::canonical_transfers_db(40, 120, 50, 7);
        let store = Store::from_database(&db);
        let plan = rule_plan(
            plan_ra(&endpoint_join(), &db.schema()).unwrap(),
            &db,
            &store,
        );
        assert_eq!(run(&plan, &db, &store, 1), run(&plan, &db, &store, 4));
        assert_eq!(
            endpoint_join().eval(&db).unwrap(),
            run(&plan, &db, &store, 4)
        );
    }

    #[test]
    fn store_and_storeless_reach_plans_agree() {
        let db = families::grid_db(4, 3);
        let store = Store::from_database(&db);
        let plan = rule_plan(reach_tc_plan(&db), &db, &store);
        let stored = pgq_exec::execute_with(&plan, &db, Some(&store))
            .unwrap()
            .into_relation();
        let storeless = pgq_exec::execute(&reach_tc_plan(&db), &db)
            .unwrap()
            .into_relation();
        assert_eq!(stored, storeless);
    }
}
