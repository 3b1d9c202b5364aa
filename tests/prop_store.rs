//! Differential property suite for the S16 columnar store
//! (DESIGN.md §5, ARCHITECTURE.md): on seeded random workloads, the
//! store-backed engine's answers must be *identical* to both the S2
//! reference evaluator and the PR 2 hash-join engine —
//!
//! * random `RaExpr` trees: `pgq_exec::eval_ra_with` (IndexScan /
//!   AdjacencyExpand plans over a registered store) vs. the S2
//!   reference `RaExpr::eval` vs. the storeless `pgq_exec::eval_ra`;
//! * `PGQ` reachability over random canonical graphs:
//!   `eval_with_store` (frozen CSR adjacency) vs. `Engine::Physical`
//!   (hash-join fixpoint) vs. `Engine::Nfa` vs. `Engine::Reference`;
//! * the **coded pipeline** (dictionary codes end-to-end, one decode
//!   at the boundary) vs. the S2 reference, on workloads that mix value
//!   types (so code order ≠ value order), pile up duplicates
//!   (self-unions, column-dropping projections), and select with order
//!   predicates that must decode on compare;
//! * the **scratch dictionary**: `Values` batches carrying values the
//!   store never interned, met by `IndexScan` / `AdjacencyExpand` /
//!   `Fixpoint` over the store, stay on codes — one decode per result
//!   cell, counted on `Store::counters()`;
//!
//! plus the empty-graph, self-loop, and parallel-edge edge cases, and
//! the store operators' `⟨delta⟩` markers and answers after
//! `apply_updates`.

use pgq_core::{builders, eval_with, eval_with_store, explain_with, EvalConfig, Query, ViewOp};
use pgq_exec::{
    eval_ra, eval_ra_opts, eval_ra_with, execute_opts, lower_onto_store, plan_ra, Batch,
    ExecOptions, PhysPlan, PlannerChoice,
};
use pgq_graph::{updates, Update, ViewMode, ViewRelations};
use pgq_pattern::testgen::arb_bounded_output;
use pgq_pattern::{OutputPattern, Pattern};
use pgq_relational::{CmpOp, Database, RaExpr, RelName, Relation, RowCondition};
use pgq_store::{ConcurrentStore, GraphForm, Store, StoreError, StoreSnapshot, ADOM_REL};
use pgq_value::{tuple, Tuple, Value};
use pgq_workloads::random::{canonical_graph_db, ve_db};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

fn views() -> [RelName; 6] {
    ["N", "E", "S", "T", "L", "P"].map(Into::into)
}

/// Registers a database and its canonical graph, the session setup
/// every store-backed query assumes.
fn store_for(db: &Database) -> Store {
    let mut store = Store::from_database(db);
    store
        .register_view_graph("G", views(), db, GraphForm::Exact(1))
        .expect("canonical workload views are valid");
    store
}

/// `q` planned and lowered onto `store` by the pass under the
/// estimator without statistics (what `store_plan` was).
fn rule_plan(q: &RaExpr, db: &Database, store: &Store) -> PhysPlan {
    let schema = db.schema();
    lower_onto_store(
        plan_ra(q, &schema).unwrap(),
        store,
        &schema,
        PlannerChoice::Rule,
    )
}

/// A random `RaExpr` of the given arity over the `{V/1, E/2}` schema —
/// biased toward the join shapes the store pass lowers onto
/// `AdjacencyExpand`.
fn arb_ra(arity: usize, depth: u32) -> BoxedStrategy<RaExpr> {
    let leaf = match arity {
        1 => prop_oneof![
            Just(RaExpr::rel("V")),
            Just(RaExpr::ActiveDomain),
            (0i64..5).prop_map(|c| RaExpr::Singleton(Tuple::unary(c))),
        ]
        .boxed(),
        2 => prop_oneof![
            Just(RaExpr::rel("E")),
            (0i64..5, 0i64..5).prop_map(|(a, b)| RaExpr::Singleton(tuple![a, b])),
        ]
        .boxed(),
        _ => (0i64..5)
            .prop_map(move |c| RaExpr::Singleton(Tuple::new(vec![Value::int(c); arity.max(1)])))
            .boxed(),
    };
    if depth == 0 {
        return leaf;
    }
    let sub = arb_ra(arity, depth - 1);
    let mut choices = vec![
        (3u32, leaf.clone()),
        (
            2,
            (sub.clone(), sub.clone())
                .prop_map(|(a, b)| a.union(b))
                .boxed(),
        ),
        (
            1,
            (sub.clone(), sub.clone())
                .prop_map(|(a, b)| a.diff(b))
                .boxed(),
        ),
        (
            1,
            (sub.clone(), sub.clone())
                .prop_map(|(a, b)| a.intersect(b))
                .boxed(),
        ),
    ];
    if arity >= 1 {
        // A constant selection on any column (on a small instance some
        // constants occur nowhere): over `E` it lowers to an
        // `IndexSeek`, forward or reverse by the column drawn.
        choices.push((
            1,
            (sub.clone(), 0..arity, 0i64..5)
                .prop_map(|(q, col, c)| q.select(RowCondition::col_eq_const(col, c)))
                .boxed(),
        ));
        // A join against the edge relation on its source or target
        // column — the AdjacencyExpand shape.
        let left = arb_ra(arity, depth - 1);
        choices.push((
            3,
            (left, 0..arity, proptest::bool::ANY)
                .prop_map(move |(a, col, rev)| {
                    let edge_col = arity + if rev { 1 } else { 0 };
                    a.product(RaExpr::rel("E"))
                        .select(RowCondition::col_eq(col, edge_col))
                        .project((0..arity).collect::<Vec<_>>())
                })
                .boxed(),
        ));
    }
    proptest::strategy::Union::new(choices).boxed()
}

/// The mixed-type value pool: integers, strings and booleans
/// interleave, so first-seen intern order disagrees with the
/// `Bool < Int < Str` value order and any coded operator that
/// compared codes for *order* would be caught.
fn mixed_value(k: u8) -> Value {
    match k % 8 {
        0 => Value::int(1),
        1 => Value::str("b"),
        2 => Value::int(200),
        3 => Value::bool(true),
        4 => Value::str("a"),
        5 => Value::int(-3),
        6 => Value::bool(false),
        _ => Value::str("zz"),
    }
}

/// A `{V/1, E/2}` instance over the mixed-type pool, deterministic in
/// `seed`.
fn mixed_ve_db(n: usize, m: usize, seed: u64) -> Database {
    let mut db = Database::new();
    db.add_relation("V", Relation::empty(1));
    db.add_relation("E", Relation::empty(2));
    // A cheap LCG keeps the generator self-contained and seed-stable.
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u8
    };
    for _ in 0..n {
        let v = mixed_value(next());
        db.insert("V", Tuple::unary(v)).unwrap();
    }
    for _ in 0..m {
        let (s, t) = (mixed_value(next()), mixed_value(next()));
        db.insert("E", Tuple::new(vec![s, t])).unwrap();
    }
    db
}

/// A random order/equality predicate over one of the first `arity`
/// positions, with constants drawn from (and beyond) the mixed pool —
/// some are never interned.
fn arb_order_cond(arity: usize) -> BoxedStrategy<RowCondition> {
    let op = prop_oneof![
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
        Just(CmpOp::Ne),
        Just(CmpOp::Eq),
    ];
    (op, 0..arity, 0u8..12)
        .prop_map(|(op, col, k)| {
            // k ≥ 8 yields constants outside the instance pool: the
            // un-interned-literal path.
            let c = if k < 8 {
                mixed_value(k)
            } else {
                Value::str(format!("missing{k}"))
            };
            RowCondition::col_cmp_const(col, op, c)
        })
        .boxed()
}

/// A random `RaExpr` over the mixed-type `{V/1, E/2}` schema, biased
/// toward the shapes the coded pipeline must get right: order
/// predicates (decode-on-compare), duplicate-heavy self-unions, and
/// column-dropping projections (coded dedup).
fn arb_mixed_ra(depth: u32) -> BoxedStrategy<RaExpr> {
    let leaf = prop_oneof![
        Just(RaExpr::rel("V")),
        Just(RaExpr::ActiveDomain),
        (0u8..10).prop_map(|k| RaExpr::Singleton(Tuple::unary(mixed_value(k)))),
        Just(RaExpr::rel("E").project(vec![1])),
        // A predicate on either endpoint column directly over `E`: its
        // equalities lower to forward and reverse `IndexSeek`s.
        (arb_order_cond(2), 0usize..2)
            .prop_map(|(c, keep)| RaExpr::rel("E").select(c).project(vec![keep])),
    ]
    .boxed();
    if depth == 0 {
        return leaf;
    }
    let sub = arb_mixed_ra(depth - 1);
    proptest::strategy::Union::new(vec![
        (3u32, leaf),
        (
            2,
            (sub.clone(), arb_order_cond(1))
                .prop_map(|(q, c)| q.select(c))
                .boxed(),
        ),
        // Self-union: a duplicate-heavy bag pipeline.
        (2, sub.clone().prop_map(|q| q.clone().union(q)).boxed()),
        (
            1,
            (sub.clone(), sub.clone())
                .prop_map(|(a, b)| a.diff(b))
                .boxed(),
        ),
        (
            1,
            (sub.clone(), sub.clone())
                .prop_map(|(a, b)| a.intersect(b))
                .boxed(),
        ),
        // Join against the edge relation then drop its columns: the
        // optimizer inserts a Distinct, exercising coded dedup.
        (
            2,
            (sub.clone(), proptest::bool::ANY)
                .prop_map(|(a, rev)| {
                    let edge_col = if rev { 2 } else { 1 };
                    a.product(RaExpr::rel("E"))
                        .select(RowCondition::col_eq(0, edge_col))
                        .project(vec![0])
                })
                .boxed(),
        ),
    ])
    .boxed()
}

/// The six canonical relations of `db` as [`ViewRelations`] — the
/// reference state the update differential edits through
/// `pgq_graph::updates::apply`.
fn view_relations_of(db: &Database) -> ViewRelations {
    let get = |n: &str| db.get(&n.into()).expect("canonical relation").clone();
    ViewRelations::new(get("N"), get("E"), get("S"), get("T"), get("L"), get("P"))
}

/// A database holding exactly the six canonical relations of `rels`.
fn db_of(rels: &ViewRelations) -> Database {
    let mut db = Database::new();
    db.add_relation("N", rels.nodes.clone());
    db.add_relation("E", rels.edges.clone());
    db.add_relation("S", rels.src.clone());
    db.add_relation("T", rels.tgt.clone());
    db.add_relation("L", rels.labels.clone());
    db.add_relation("P", rels.props.clone());
    db
}

/// A random Section 7 update against the canonical workload's id
/// pools: node ids `0..8`, canonical edge ids `1_000_000 + (0..8)`
/// (hitting the generated edges), fresh edge ids offset by 100, the
/// workload's `"T"` label / `"w"` property key plus novel ones, and an
/// occasional arity-mismatched identifier for the rejection path.
fn arb_canonical_update() -> BoxedStrategy<Update> {
    let nid = |i: i64| Tuple::unary(Value::int(i));
    let eid = |i: i64| Tuple::unary(Value::int(1_000_000 + i));
    (0u8..10, 0i64..8, 0i64..8, 0i64..8)
        .prop_map(move |(op, a, b, c)| {
            let elem = if a % 2 == 0 { nid(b) } else { eid(b) };
            match op {
                0 => Update::AddNode(nid(a)),
                1 => Update::RemoveNode(nid(a)),
                2 => Update::DetachRemoveNode(nid(a)),
                3 => Update::AddEdge {
                    id: eid(100 + a),
                    src: nid(b),
                    tgt: nid(c),
                },
                4 => Update::RemoveEdge(eid(a)),
                5 => Update::AddLabel(elem, Value::str(if b % 2 == 0 { "T" } else { "U" })),
                6 => Update::RemoveLabel(elem, Value::str(if b % 2 == 0 { "T" } else { "U" })),
                7 => Update::SetProp(
                    elem,
                    Value::str(if b % 2 == 0 { "w" } else { "k" }),
                    Value::int(c),
                ),
                8 => Update::RemoveProp(elem, Value::str(if b % 2 == 0 { "w" } else { "k" })),
                _ => Update::AddNode(Tuple::new(vec![Value::int(a), Value::int(b)])),
            }
        })
        .boxed()
}

/// Holds an incrementally updated store to the reference semantics on
/// every workload of the suite: relation scans, reachability (both
/// bounds), the store-lowered RA shapes under tombstones, and the
/// derived active domain.
fn assert_store_matches(store: &Store, db: &Database, context: &str) {
    // Relation contents, live rows only.
    for name in views() {
        let scanned =
            Relation::from_rows(db.get(&name).unwrap().arity(), store.scan(&name).unwrap())
                .unwrap();
        assert_eq!(&scanned, db.get(&name).unwrap(), "{context}: scan {name}");
    }
    // Reachability pattern calls answered from the (overlaid) entry.
    let cfg = EvalConfig::physical();
    for out in [
        builders::reachability_output(),
        builders::reachability_plus_output(),
    ] {
        let q = Query::pattern_ro(out, ["N", "E", "S", "T", "L", "P"]);
        let reference = eval_with(&q, db, EvalConfig::reference()).unwrap();
        assert_eq!(
            eval_with_store(&q, db, cfg, store).unwrap(),
            reference,
            "{context}: {q}"
        );
    }
    // RA shapes through the store pass: expansion joins, the frozen
    // active domain, and difference over tombstoned scans must agree
    // with the S2 reference.
    let shapes = [
        RaExpr::rel("S")
            .product(RaExpr::rel("T"))
            .select(RowCondition::col_eq(0, 2))
            .project(vec![1, 3]),
        RaExpr::ActiveDomain,
        RaExpr::rel("N").diff(RaExpr::rel("T").project(vec![1])),
        RaExpr::rel("L").project(vec![0]).union(RaExpr::rel("E")),
    ];
    for q in shapes {
        assert_eq!(
            eval_ra_with(&q, db, store).unwrap(),
            q.eval(db).unwrap(),
            "{context}: {q}"
        );
    }
}

/// The `ψreach` and `ψreach+` answers over the registered graph `G`,
/// through the compiled route: a `Fixpoint` over the store's view
/// relations.
fn reach_answers(db: &Database, store: &Store) -> [Relation; 2] {
    [
        builders::reachability_output(),
        builders::reachability_plus_output(),
    ]
    .map(|out| {
        let q = Query::pattern_ro(out, ["N", "E", "S", "T", "L", "P"]);
        eval_with_store(&q, db, EvalConfig::physical(), store).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The PR 5 update differential: a random accepted `Update`
    /// sequence applied incrementally (`Store::apply_updates`) must
    /// leave the store answering exactly like (a) the reference
    /// relations evolved by `pgq_graph::updates::apply`, (b) a store
    /// re-registered from scratch on the updated database, and (c) the
    /// S2 reference — including scans under tombstones, and all of it
    /// again after `Store::compact()` drops
    /// `dictionary_stale` to 0.
    #[test]
    fn incremental_updates_match_reregistration(
        seq in proptest::collection::vec(arb_canonical_update(), 0..25),
        n in 1usize..6,
        m in 0usize..8,
        seed in 0u64..1000,
    ) {
        let db0 = canonical_graph_db(n, m, 5, seed);
        let mut store = store_for(&db0);
        let mut rels = view_relations_of(&db0);
        for u in &seq {
            let mut next = rels.clone();
            match updates::apply(&mut next, u) {
                Ok(()) => {
                    store.apply_updates("G", std::slice::from_ref(u)).expect("reference accepted the update");
                    rels = next;
                }
                Err(_) => {
                    prop_assert!(
                        store.apply_updates("G", std::slice::from_ref(u)).is_err(),
                        "store accepted an update the reference rejects: {u:?}"
                    );
                }
            }
        }
        let db = db_of(&rels);
        assert_store_matches(&store, &db, "incremental");
        // A store rebuilt from the updated database agrees entry for
        // entry, and on the reachability answers of the compiled route.
        let fresh = store_for(&db);
        let (a, b) = (store.graph("G").unwrap(), fresh.graph("G").unwrap());
        prop_assert_eq!(a.node_count(), b.node_count());
        prop_assert_eq!(a.edge_count(), b.edge_count());
        prop_assert_eq!(a.adjacency().edge_count(), b.adjacency().edge_count());
        prop_assert_eq!(reach_answers(&db, &store), reach_answers(&db, &fresh));
        // Compaction reclaims every stale code without changing any
        // answer.
        store.compact().expect("compaction never fails on a healthy store");
        let stats = store.stats();
        prop_assert_eq!(stats.dictionary_stale(), 0);
        prop_assert_eq!(stats.tombstone_rows(), 0);
        prop_assert_eq!(stats.overlay_entries(), 0);
        assert_store_matches(&store, &db, "post-compact");
    }

    /// Morsel parallelism under mutation: after a random accepted
    /// update sequence — with tombstoned columns and the CSR delta
    /// overlay left in place (no compaction) — the store-backed
    /// executor answers identically at 1, 2 and 8 worker threads, and
    /// the overlay-aware fixpoint behind `eval_with_store` does too.
    #[test]
    fn parallel_execution_under_tombstones_and_overlays(
        seq in proptest::collection::vec(arb_canonical_update(), 0..25),
        n in 1usize..6,
        m in 0usize..8,
        seed in 0u64..1000,
    ) {
        let db0 = canonical_graph_db(n, m, 5, seed);
        let mut store = store_for(&db0);
        let mut rels = view_relations_of(&db0);
        for u in &seq {
            let mut next = rels.clone();
            if updates::apply(&mut next, u).is_ok() {
                store.apply_updates("G", std::slice::from_ref(u)).expect("reference accepted the update");
                rels = next;
            }
        }
        let db = db_of(&rels);
        // RA shapes over tombstoned scans: expansion join, difference,
        // duplicate-heavy union + distinct.
        let shapes = [
            RaExpr::rel("S")
                .product(RaExpr::rel("T"))
                .select(RowCondition::col_eq(0, 2))
                .project(vec![1, 3]),
            RaExpr::rel("N").diff(RaExpr::rel("T").project(vec![1])),
            RaExpr::rel("L").project(vec![0]).union(RaExpr::rel("E")),
        ];
        for q in &shapes {
            let reference = q.eval(&db).unwrap();
            for threads in [1usize, 2, 8] {
                let opts = ExecOptions::with_threads(threads);
                prop_assert_eq!(
                    &eval_ra_opts(q, &db, &store, &opts).unwrap(),
                    &reference,
                    "{} threads on {}", threads, q
                );
            }
        }
        // Reachability through the DeltaAdjacency overlay, sharded by
        // source node at every thread count.
        let q = Query::pattern_ro(
            builders::reachability_output(),
            ["N", "E", "S", "T", "L", "P"],
        );
        let reference = eval_with(&q, &db, EvalConfig::reference()).unwrap();
        for threads in [1usize, 2, 8] {
            prop_assert_eq!(
                &eval_with_store(&q, &db, EvalConfig::physical().with_threads(threads), &store)
                    .unwrap(),
                &reference,
                "{} threads", threads
            );
        }
    }

    /// The planner differential under mutation (PR 10): after a random
    /// accepted update sequence — tombstoned columns and CSR overlays
    /// left in place — the cost planner and the rule pass answer
    /// multi-join and difference shapes identically to the S2
    /// reference at 1, 2 and 8 threads; and a
    /// reader holding a `ConcurrentStore` pin gets the same answer
    /// from its frozen statistics after a writer publishes ahead.
    #[test]
    fn planner_differential_under_tombstones_and_overlays(
        seq in proptest::collection::vec(arb_canonical_update(), 0..20),
        n in 1usize..6,
        m in 0usize..8,
        seed in 0u64..1000,
    ) {
        let db0 = canonical_graph_db(n, m, 5, seed);
        let mut store = store_for(&db0);
        let mut rels = view_relations_of(&db0);
        for u in &seq {
            let mut next = rels.clone();
            if updates::apply(&mut next, u).is_ok() {
                store.apply_updates("G", std::slice::from_ref(u)).expect("reference accepted the update");
                rels = next;
            }
        }
        let db = db_of(&rels);
        // A three-way join (the ordering decision), a two-way join
        // (the build-side/direction decisions), and a difference.
        let shapes = [
            RaExpr::rel("S")
                .product(RaExpr::rel("T"))
                .select(RowCondition::col_eq(0, 2))
                .product(RaExpr::rel("L"))
                .select(RowCondition::col_eq(0, 4))
                .project(vec![1, 3, 5]),
            RaExpr::rel("S")
                .product(RaExpr::rel("T"))
                .select(RowCondition::col_eq(0, 2))
                .project(vec![1, 3]),
            RaExpr::rel("N").diff(RaExpr::rel("T").project(vec![1])),
        ];
        for q in &shapes {
            let reference = q.eval(&db).unwrap();
            for planner in [PlannerChoice::Cost, PlannerChoice::Rule] {
                for threads in [1usize, 2, 8] {
                    let opts = ExecOptions::with_threads(threads).with_planner(planner);
                    prop_assert_eq!(
                        &eval_ra_opts(q, &db, &store, &opts).unwrap(),
                        &reference,
                        "{} planner at {} threads on {}", planner, threads, q
                    );
                }
            }
        }
        // A pinned snapshot keeps its own consistent statistics: the
        // writer publishing ahead must not move any pinned answer.
        let concurrent = ConcurrentStore::new(store);
        let pin = concurrent.pin();
        concurrent
            .write(|s| s.apply_updates("G", std::slice::from_ref(&Update::AddNode(tuple!["planner-differential-extra"]))))
            .unwrap();
        for q in &shapes {
            let reference = q.eval(&db).unwrap();
            for planner in [PlannerChoice::Cost, PlannerChoice::Rule] {
                let opts = ExecOptions::with_threads(2).with_planner(planner);
                prop_assert_eq!(
                    &eval_ra_opts(q, &db, pin.as_store(), &opts).unwrap(),
                    &reference,
                    "pinned snapshot, {} planner on {}", planner, q
                );
            }
        }
    }

    /// The coded-pipeline differential (PR 4): coded ≡ S2 reference on
    /// random mixed-type, duplicate-heavy workloads with order
    /// predicates over non-order-preserving codes.
    #[test]
    fn coded_pipeline_differential(
        q in arb_mixed_ra(3),
        n in 1usize..10,
        m in 0usize..16,
        seed in 0u64..1000,
    ) {
        let db = mixed_ve_db(n, m, seed);
        let store = Store::from_database(&db);
        let coded = eval_ra_with(&q, &db, &store).unwrap();
        prop_assert_eq!(&coded, &q.eval(&db).unwrap(), "coded vs reference on {}", &q);
    }

    /// The scratch-dictionary differential: `Values` rows holding
    /// values the store dictionary never interned meet `IndexScan`,
    /// `AdjacencyExpand` and `Fixpoint` over the store. Every plan
    /// answers like the S2 reference at 1, 2 and 8 threads, and the
    /// whole run costs exactly one dictionary decode per result cell —
    /// at the boundary; no meeting operator decodes the store side to
    /// reconcile.
    #[test]
    fn values_outside_the_dictionary_stay_on_codes(
        picks in proptest::collection::vec((0u8..16, 0u8..16), 1..6),
        n in 1usize..10,
        m in 1usize..16,
        seed in 0u64..1000,
    ) {
        let db = mixed_ve_db(n, m, seed);
        let store = Store::from_database(&db);
        // k ≥ 8 picks a value no stored row holds; the last pair always
        // carries one, hanging off a (likely stored) pool value.
        let pick = |k: u8| if k < 8 { mixed_value(k) } else { Value::str(format!("fresh{k}")) };
        let mut pairs: Vec<Tuple> =
            picks.iter().map(|&(a, b)| Tuple::new(vec![pick(a), pick(b)])).collect();
        pairs.push(Tuple::new(vec![Value::str("fresh"), mixed_value(picks[0].0)]));
        prop_assert!(store.encode(&Value::str("fresh")).is_none());

        // Union / difference / intersection / join against the stored
        // edges, and the two expansion directions — planned like any
        // other expression, so the S2 evaluator is the oracle.
        let vals = pairs.iter().cloned().map(RaExpr::Singleton).reduce(RaExpr::union).unwrap();
        let e = || RaExpr::rel("E");
        let shapes = [
            e().union(vals.clone()),
            vals.clone().diff(e()),
            vals.clone().intersect(e()),
            e().product(vals.clone()).select(RowCondition::col_eq(1, 2)),
            vals.clone().product(e()).select(RowCondition::col_eq(1, 2)),
            vals.clone().product(e()).select(RowCondition::col_eq(1, 3)),
        ];
        let mut cases: Vec<(PhysPlan, Relation)> = shapes
            .iter()
            .map(|q| (rule_plan(q, &db, &store), q.eval(&db).unwrap()))
            .collect();
        prop_assert!(cases.iter().any(|(p, _)| p.to_string().contains("AdjacencyExpand")));
        // The closure of the pairs under stored edges (fresh seeds are
        // 0-step strays) and of the stored edges under the pairs (a
        // `Values` step) — against a naive fixpoint over plain tuples.
        let edges: Vec<Tuple> = db.get(&"E".into()).unwrap().iter().cloned().collect();
        let closure = |base: &[Tuple], step: &[Tuple]| {
            let mut known: std::collections::BTreeSet<Tuple> = base.iter().cloned().collect();
            loop {
                let grown: Vec<Tuple> = known
                    .iter()
                    .flat_map(|a| step.iter().filter(move |s| a[1] == s[0]).map(move |s| (a, s)))
                    .map(|(a, s)| Tuple::new(vec![a[0].clone(), s[1].clone()]))
                    .filter(|t| !known.contains(t))
                    .collect();
                if grown.is_empty() {
                    return Relation::from_rows(2, known).unwrap();
                }
                known.extend(grown);
            }
        };
        let values = PhysPlan::Values(Batch::from_rows(2, pairs.clone()).unwrap());
        let scan = PhysPlan::IndexScan("E".into());
        for (base, step, truth) in [
            (&values, &scan, closure(&pairs, &edges)),
            (&scan, &values, closure(&edges, &pairs)),
        ] {
            let plan = PhysPlan::Fixpoint {
                base: Box::new(base.clone()),
                step: Box::new(step.clone()),
                join: vec![(1, 0)],
                project: vec![0, 3],
                skip: 0,
                rounds: None,
            };
            cases.push((plan, truth));
        }
        for (plan, truth) in cases {
            // `Distinct` makes the output batch a set, so its cell
            // count is the result relation's.
            let plan = plan.distinct();
            for threads in [1usize, 2, 8] {
                let opts = ExecOptions::with_threads(threads);
                let before = store.counters().snapshot();
                let rel = execute_opts(&plan, &db, Some(&store), &opts)
                    .unwrap()
                    .into_relation()
                    .unwrap();
                let decodes = store.counters().snapshot().since(&before).dict_decodes;
                prop_assert_eq!(&rel, &truth, "{} threads on\n{}", threads, &plan);
                prop_assert_eq!(
                    decodes,
                    (rel.len() * rel.arity()) as u64,
                    "decodes ≠ result cells at {} threads on\n{}", threads, &plan
                );
            }
        }
    }

    /// Store-backed `RaExpr` evaluation equals the S2 reference and the
    /// storeless hash-join engine on random expressions and instances.
    #[test]
    fn ra_store_equals_reference_and_hash_join(
        q in arb_ra(2, 3),
        n in 1usize..8,
        m in 0usize..14,
        seed in 0u64..1000,
    ) {
        let db = ve_db(n, m, seed);
        let store = Store::from_database(&db);
        let via_store = eval_ra_with(&q, &db, &store).unwrap();
        prop_assert_eq!(&via_store, &q.eval(&db).unwrap(), "reference disagrees on {}", &q);
        prop_assert_eq!(&via_store, &eval_ra(&q, &db).unwrap(), "hash-join engine disagrees on {}", &q);
    }

    /// Unary expressions exercise the derived active domain and the
    /// reverse expansion.
    #[test]
    fn ra_unary_store_equals_reference(
        q in arb_ra(1, 3),
        n in 1usize..8,
        m in 0usize..14,
        seed in 0u64..1000,
    ) {
        let db = ve_db(n, m, seed);
        let store = Store::from_database(&db);
        prop_assert_eq!(eval_ra_with(&q, &db, &store).unwrap(), q.eval(&db).unwrap(), "{}", q);
    }

    /// The engines agree on reachability over random canonical graphs:
    /// the compiled `Fixpoint` over the store, the storeless physical
    /// route, the NFA and the reference.
    #[test]
    fn reach_engines_agree(n in 1usize..10, m in 0usize..20, seed in 0u64..1000) {
        let db = canonical_graph_db(n, m, 10, seed);
        let store = store_for(&db);
        for out in [
            builders::reachability_output(),
            builders::reachability_plus_output(),
        ] {
            let q = Query::pattern_ro(out, ["N", "E", "S", "T", "L", "P"]);
            let reference = eval_with(&q, &db, EvalConfig::reference()).unwrap();
            prop_assert_eq!(&eval_with(&q, &db, EvalConfig::physical()).unwrap(), &reference);
            prop_assert_eq!(&eval_with(&q, &db, EvalConfig::nfa()).unwrap(), &reference);
        }
        prop_assert_eq!(
            reach_answers(&db, &store).to_vec(),
            [builders::reachability_output(), builders::reachability_plus_output()]
                .map(|out| {
                    let q = Query::pattern_ro(out, ["N", "E", "S", "T", "L", "P"]);
                    eval_with(&q, &db, EvalConfig::reference()).unwrap()
                })
                .to_vec()
        );
    }

    /// A relational shell around a store-answered pattern call.
    #[test]
    fn shell_around_store_pattern_agrees(n in 2usize..8, m in 0usize..16, seed in 0u64..1000) {
        let db = canonical_graph_db(n, m, 10, seed);
        let store = store_for(&db);
        let reach = Query::pattern_ro(
            builders::reachability_output(),
            ["N", "E", "S", "T", "L", "P"],
        );
        let q = reach
            .product(Query::rel("N"))
            .select(RowCondition::col_eq(1, 2))
            .project(vec![0, 1])
            .union(Query::rel("S"));
        prop_assert_eq!(
            eval_with_store(&q, &db, EvalConfig::physical(), &store).unwrap(),
            eval_with(&q, &db, EvalConfig::reference()).unwrap()
        );
    }
}

/// Holds a pattern call to the references: its answer — rows or typed
/// error — equals the NFA engine's and Figure 2's under `mode`, on the
/// physical engine under both planners. Every call compiles; it builds
/// one view per statement unless `frozen`, when it reads a graph the
/// store froze from its views under an operator that admits the graph's
/// identifier arity. `EXPLAIN` names which, and `view_builds` counts it.
fn assert_store_agrees(
    q: &Query,
    db: &Database,
    store: &Store,
    mode: ViewMode,
    frozen: bool,
    context: &str,
) {
    let cfg = |cfg: EvalConfig| EvalConfig {
        view_mode: mode,
        ..cfg
    };
    let reference = eval_with(q, db, cfg(EvalConfig::reference()));
    assert_eq!(
        eval_with(q, db, cfg(EvalConfig::nfa())),
        reference,
        "{context}: NFA engine, {q}"
    );
    if let Ok(text) = explain_with(q, &db.schema(), Some(store), None) {
        let route = if frozen {
            "[route: compiled plan]"
        } else {
            "[route: compiled plan over a per-statement view]"
        };
        assert!(text.contains(route), "{context}: {text}");
    } else {
        assert!(reference.is_err(), "{context}: EXPLAIN fails, {q}");
    }
    for planner in [PlannerChoice::Cost, PlannerChoice::Rule] {
        let before = store.counters().snapshot().view_builds;
        assert_eq!(
            eval_with_store(
                q,
                db,
                cfg(EvalConfig::physical()).with_planner(planner),
                store
            ),
            reference,
            "{context}: physical under {planner}, {q}"
        );
        let built = store.counters().snapshot().view_builds - before;
        assert_eq!(built, u64::from(!frozen), "{context}: view builds, {q}");
    }
}

/// `views()` as the queries of a pattern call under `op`.
fn call(out: &OutputPattern, op: ViewOp, views: [Query; 6]) -> Query {
    Query::Pattern {
        out: out.clone(),
        views: Box::new(views),
        op,
    }
}

/// A left-deep library chain `(x) ψ1 () ψ2 () … ψn (y)` of `hops`
/// anonymous edges, each forward or backward by a bit of `dirs`.
fn chain(hops: usize, dirs: u64) -> OutputPattern {
    let mut p = Pattern::node("x");
    for i in 0..hops {
        let edge = if dirs >> (i % 64) & 1 == 0 {
            Pattern::any_edge()
        } else {
            Pattern::any_edge_back()
        };
        p = p.then(edge);
        p = p.then(if i + 1 == hops {
            Pattern::node("y")
        } else {
            Pattern::Node(None)
        });
    }
    OutputPattern::vars(p, ["x", "y"]).expect("x and y are free")
}

/// `db` with rows Figure 2's strict `pgView` rejects and its lenient
/// one drops: one of an `S` row keyed by a non-edge, a label on an
/// unknown element, an edge whose target is not a node.
fn dirty(db: &Database, dirt: usize) -> Database {
    let mut db = db.clone();
    let ghost = Value::int(3_000_000);
    let rows = match dirt {
        0 => vec![("S", tuple![ghost, 0])],
        1 => vec![("L", tuple![ghost, "T"])],
        _ => vec![
            ("E", tuple![ghost.clone()]),
            ("S", tuple![ghost.clone(), 0]),
            ("T", tuple![ghost, 77]),
        ],
    };
    for (rel, row) in rows {
        db.insert(rel, row).unwrap();
    }
    db
}

proptest! {
    /// Compiled ≡ NFA ≡ reference on random pattern calls — repeated
    /// variables, backward edges, filters over whole sub-patterns with
    /// `∨`/`¬` and cross-atom property equalities, repetition with
    /// small bounds, `*`, `+`, `{n,∞}`, bounds far above |N| and nested
    /// repetition, identifier, component, property and Boolean outputs
    /// — under both planners:
    /// - over a graph registered `pgView=1`, called through `pgView`,
    ///   `pgView_1` and `pgView_ext` (no view build), and through
    ///   `pgView_0` (the reference's `IdentifierArity`);
    /// - over a graph registered `pgView_1`, called through `pgView`;
    /// - over the same graph widened to `k = 2` and registered
    ///   `pgView=2`, called through `pgView_2` and `pgView_ext`, and
    ///   through `pgView_1` and `pgView` (the reference's errors);
    /// - over unregistered and derived views (a view build each);
    /// - over dirty views, strict (the reference's `ViewError`) and
    ///   lenient (the rows it drops);
    /// - as a left-deep chain of 40–63 hops, on a 2 MiB stack;
    /// - and again after a random `apply_updates` batch, so the
    ///   compiled plan's `IndexScan`s read through tombstones and
    ///   overlays.
    #[test]
    fn compiled_patterns_agree_with_the_references(
        out in arb_bounded_output(3, ["T", "U"], ["w", "k"]),
        batch in proptest::collection::vec(arb_canonical_update(), 0..12),
        n in 1usize..6,
        m in 0usize..8,
        seed in 0u64..1000,
        shape in 0usize..72,
    ) {
        use ViewMode::{Lenient, Strict};
        let (hops, dirt) = (40 + shape % 24, shape / 24);
        let db0 = canonical_graph_db(n, m, 5, seed);
        let rels = views().map(Query::rel);
        let mut store = store_for(&db0);
        let q = call(&out, ViewOp::Unary, rels.clone());
        assert_store_agrees(&q, &db0, &store, Strict, true, "registered");
        for (op, frozen) in [(ViewOp::Bounded(1), true), (ViewOp::Ext, true), (ViewOp::Bounded(0), false)] {
            let q = call(&out, op, rels.clone());
            assert_store_agrees(&q, &db0, &store, Strict, frozen, &format!("{op} on pgView=1"));
        }
        let mut bounded = Store::from_database(&db0);
        bounded.register_view_graph("G", views(), &db0, GraphForm::Bounded(1)).unwrap();
        assert_store_agrees(&q, &db0, &bounded, Strict, true, "pgView on pgView_1");
        let wide = widen_db(&db0);
        let mut wide_store = Store::from_database(&wide);
        wide_store.register_view_graph("G", views(), &wide, GraphForm::Exact(2)).unwrap();
        for (op, frozen) in [
            (ViewOp::Bounded(2), true),
            (ViewOp::Ext, true),
            (ViewOp::Bounded(1), false),
            (ViewOp::Unary, false),
        ] {
            let q = call(&out, op, rels.clone());
            assert_store_agrees(&q, &wide, &wide_store, Strict, frozen, &format!("{op} on pgView=2"));
        }
        let unregistered = Store::from_database(&db0);
        assert_store_agrees(&q, &db0, &unregistered, Strict, false, "unregistered");
        let derived = call(&out, ViewOp::Unary, [
            Query::rel("N").union(Query::rel("S").project(vec![1])),
            Query::rel("E"),
            Query::rel("S"),
            Query::rel("T"),
            Query::rel("L").select(RowCondition::col_eq_const(1, "T")),
            Query::rel("P"),
        ]);
        assert_store_agrees(&derived, &db0, &store, Strict, false, "derived");
        let dirty_db = dirty(&db0, dirt);
        let dirty_store = Store::from_database(&dirty_db);
        for mode in [Strict, Lenient] {
            assert_store_agrees(&q, &dirty_db, &dirty_store, mode, false, &format!("dirty, {mode:?}"));
        }
        let long = call(&chain(hops, seed), ViewOp::Unary, rels.clone());
        std::thread::scope(|scope| {
            let thread = std::thread::Builder::new().stack_size(2 << 20);
            let (long, db0, store) = (&long, &db0, &store);
            thread
                .spawn_scoped(scope, move || {
                    assert_store_agrees(long, db0, store, Strict, true, &format!("{hops} hops"));
                })
                .expect("a thread")
                .join()
                .expect("no stack overflow");
        });
        let mut rels = view_relations_of(&db0);
        let mut accepted = Vec::new();
        for u in batch {
            if updates::apply(&mut rels, &u).is_ok() {
                accepted.push(u);
            }
        }
        store.apply_updates("G", &accepted).expect("the reference accepted each update");
        assert_store_agrees(&q, &db_of(&rels), &store, Strict, true, "updated");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The PR 9 bulk-ingest differential: `Store::bulk_load` on random
    /// generator output (both scaling generators) answers exactly like
    /// the register route — `BulkGraph::to_database` +
    /// `Store::from_database` + `Store::register_view_graph` — on
    /// relation scans, the derived active domain, reachability through
    /// the graph entry, and the store-lowered RA shapes, with the
    /// interning probe at 1, 2 and 8 threads. A bulk load builds no
    /// probe index, and the update path must build them on demand: a
    /// bulk-loaded store keeps accepting node inserts and deletes.
    #[test]
    fn bulk_load_matches_register_route(
        nodes in 1usize..24,
        epn in 1usize..4,
        seed in 0u64..1000,
        ldbc in proptest::bool::ANY,
    ) {
        let g = if ldbc {
            pgq_workloads::scale::ldbc_transfers(nodes, epn, seed)
        } else {
            pgq_workloads::scale::power_law_graph(nodes, epn, seed)
        };
        let db = g.to_database(&views());
        let reg = store_for(&db);
        for threads in [1usize, 2, 8] {
            let mut bulk = Store::new();
            let stats = bulk
                .bulk_load("G", views(), GraphForm::Exact(1), &g, threads)
                .unwrap();
            prop_assert_eq!(stats.nodes, g.nodes.len());
            prop_assert_eq!(stats.edges, g.edges.len());
            assert_store_matches(&bulk, &db, &format!("bulk at {threads} thread(s)"));
            // The derived active domain equals the materialized one.
            let adom = Relation::from_rows(1, bulk.scan(&ADOM_REL.into()).unwrap()).unwrap();
            prop_assert_eq!(adom, db.active_domain_relation());
            // Graph entries agree with the register route's.
            let (a, b) = (bulk.graph("G").unwrap(), reg.graph("G").unwrap());
            prop_assert_eq!(a.node_count(), b.node_count());
            prop_assert_eq!(a.edge_count(), b.edge_count());
            prop_assert_eq!(a.adjacency().edge_count(), b.adjacency().edge_count());
            prop_assert_eq!(reach_answers(&db, &bulk), reach_answers(&db, &reg));
        }
        // Updates on a bulk-loaded store: add a fresh node (its probes
        // build the indexes they need), spot a duplicate, remove it again — live
        // contents return to the generator's.
        let mut bulk = Store::new();
        bulk.bulk_load("G", views(), GraphForm::Exact(1), &g, 2).unwrap();
        let fresh = Tuple::unary(Value::str("zz-fresh"));
        bulk.apply_updates("G", std::slice::from_ref(&Update::AddNode(fresh.clone()))).unwrap();
        prop_assert!(bulk.apply_updates("G", std::slice::from_ref(&Update::AddNode(fresh.clone()))).is_err());
        bulk.apply_updates("G", std::slice::from_ref(&Update::RemoveNode(fresh))).unwrap();
        assert_store_matches(&bulk, &db, "bulk after writer round-trip");
    }
}

/// The canonical database `db` in generator layout — the bulk route's
/// input for the same graph the register route registers.
fn bulk_of(db: &Database) -> pgq_store::BulkGraph {
    let rows = |name: &str| db.get(&name.into()).expect("canonical relation").iter();
    let mut g = pgq_store::BulkGraph::new();
    let mut nodes = std::collections::HashMap::new();
    for t in rows("N") {
        nodes.insert(t[0].clone(), g.add_node(t[0].clone()));
    }
    let endpoint = |rel: &str| -> std::collections::HashMap<Value, u32> {
        rows(rel).map(|t| (t[0].clone(), nodes[&t[1]])).collect()
    };
    let (src, tgt) = (endpoint("S"), endpoint("T"));
    let mut edges = std::collections::HashMap::new();
    for t in rows("E") {
        let e = g.add_edge(t[0].clone(), src[&t[0]], tgt[&t[0]]);
        edges.insert(t[0].clone(), e);
    }
    g.labels = rows("L").map(|t| (edges[&t[0]], t[1].clone())).collect();
    for t in rows("P") {
        let (k, v) = (t[1].clone(), t[2].clone());
        match nodes.get(&t[0]) {
            Some(&n) => g.node_props.push((n, k, v)),
            None => g.edge_props.push((edges[&t[0]], k, v)),
        }
    }
    g
}

/// Holds the derived `⟨adom⟩` to its definition: in value order, and
/// equal to `Database::active_domain_relation()` of the store's own
/// decoded relations.
fn assert_adom_derived(store: &Store, context: &str) {
    let rows = store.scan(&ADOM_REL.into()).expect("⟨adom⟩ always answers");
    assert!(
        rows.windows(2).all(|w| w[0] < w[1]),
        "{context}: ⟨adom⟩ out of value order"
    );
    assert_eq!(
        Relation::from_rows(1, rows).unwrap(),
        snapshot_reference_db(store).active_domain_relation(),
        "{context}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Nothing maintains `⟨adom⟩`: the store derives it from its live
    /// rows. After a random update history — `RemoveEdge`,
    /// `DetachRemoveNode` and `RemoveProp` included, so values leave
    /// the domain — and again after `compact`, it equals the active
    /// domain of the decoded relations on the register and the bulk
    /// route alike.
    #[test]
    fn derived_adom_tracks_updates_and_compaction(
        seq in proptest::collection::vec(arb_canonical_update(), 0..25),
        n in 1usize..6,
        m in 0usize..8,
        seed in 0u64..1000,
    ) {
        let db0 = canonical_graph_db(n, m, 5, seed);
        let mut bulk = Store::new();
        bulk.bulk_load("G", views(), GraphForm::Exact(1), &bulk_of(&db0), 1).unwrap();
        for (route, mut store) in [("register", store_for(&db0)), ("bulk", bulk)] {
            assert_adom_derived(&store, route);
            let mut rels = view_relations_of(&db0);
            for u in &seq {
                let mut next = rels.clone();
                if updates::apply(&mut next, u).is_ok() {
                    store.apply_updates("G", std::slice::from_ref(u)).expect("reference accepted the update");
                    assert_adom_derived(&store, &format!("{route} after {u:?}"));
                    rels = next;
                }
            }
            store.compact().expect("compaction never fails on a healthy store");
            assert_adom_derived(&store, &format!("{route} after compaction"));
            let db = db_of(&rels);
            prop_assert_eq!(
                Relation::from_rows(1, store.scan(&ADOM_REL.into()).unwrap()).unwrap(),
                db.active_domain_relation()
            );
        }
    }
}

/// The `k = 2` form of an identifier: `(x, x mod 3)`.
fn widen(id: &Tuple) -> Tuple {
    if id.arity() != 1 {
        return id.clone();
    }
    let tag = id[0].as_int().map_or(0, |x| x.rem_euclid(3));
    id.concat(&Tuple::unary(tag))
}

/// A canonical database with every identifier widened to `k = 2`.
fn widen_db(db: &Database) -> Database {
    let mut out = Database::new();
    for name in views() {
        let rel = db.get(&name).expect("canonical relation");
        let mut wide = Relation::empty(
            rel.arity()
                + if name.as_str() == "S" || name.as_str() == "T" {
                    2
                } else {
                    1
                },
        );
        for t in rel.iter() {
            let rest = Tuple::new(t.iter().skip(1).cloned().collect());
            let rest = match name.as_str() {
                "S" | "T" => widen(&rest),
                _ => rest,
            };
            wide.insert(widen(&Tuple::unary(t[0].clone())).concat(&rest))
                .unwrap();
        }
        out.add_relation(name, wide);
    }
    out
}

/// The same update over `k = 2` identifiers.
fn widen_update(u: &Update) -> Update {
    match u {
        Update::AddNode(id) => Update::AddNode(widen(id)),
        Update::RemoveNode(id) => Update::RemoveNode(widen(id)),
        Update::DetachRemoveNode(id) => Update::DetachRemoveNode(widen(id)),
        Update::AddEdge { id, src, tgt } => Update::AddEdge {
            id: widen(id),
            src: widen(src),
            tgt: widen(tgt),
        },
        Update::RemoveEdge(id) => Update::RemoveEdge(widen(id)),
        Update::AddLabel(id, l) => Update::AddLabel(widen(id), l.clone()),
        Update::RemoveLabel(id, l) => Update::RemoveLabel(widen(id), l.clone()),
        Update::SetProp(id, k, v) => Update::SetProp(widen(id), k.clone(), v.clone()),
        Update::RemoveProp(id, k) => Update::RemoveProp(widen(id), k.clone()),
    }
}

/// One step of the statistics exactness property.
#[derive(Debug, Clone)]
enum StatsStep {
    /// A batch of random updates: accepted, or rejected part-way with
    /// its prefix applied.
    Batch(Vec<Update>),
    /// 12 fresh nodes and 36 fresh edges among them — past the fold
    /// threshold of the graph overlay, of the `S`/`T` adjacency overlays
    /// (`k = 1`) and of the probe-index tails — closed, when the flag
    /// is set, by an update the store rejects.
    Fold(bool),
    /// `Store::compact`.
    Compact,
}

fn arb_stats_step() -> BoxedStrategy<StatsStep> {
    prop_oneof![
        6 => proptest::collection::vec(arb_canonical_update(), 1..12).prop_map(StatsStep::Batch),
        2 => proptest::bool::ANY.prop_map(StatsStep::Fold),
        1 => Just(StatsStep::Compact),
    ]
    .boxed()
}

/// The fold batch of step `i`: identifiers no other step uses.
fn fold_batch(i: usize, reject: bool) -> Vec<Update> {
    let id = |j: usize| Tuple::unary(Value::int(5_000_000 + 1_000 * i as i64 + j as i64));
    let mut batch: Vec<Update> = (0..12).map(|j| Update::AddNode(id(j))).collect();
    batch.extend((0..36).map(|j| Update::AddEdge {
        id: id(100 + j),
        src: id(j % 12),
        tgt: id((5 * j + 1) % 12),
    }));
    if reject {
        batch.push(Update::AddNode(id(0)));
    }
    batch
}

proptest! {
    /// The writer keeps the planner statistics exact: on stores built
    /// by `bulk_load` (`k = 1`, the only form it builds) and by
    /// `register_view_graph` (`k = 1` and `k = 2`), after every step of
    /// random Section 7 batches — accepted, rejected part-way, folding
    /// overlays — and `COMPACT`s, `Store::statistics` equals a
    /// from-scratch recount field for field, and no read after the
    /// first counted a relation again.
    #[test]
    fn statistics_stay_exact_across_writes(
        steps in proptest::collection::vec(arb_stats_step(), 1..10),
        n in 1usize..6,
        m in 0usize..8,
        seed in 0u64..1000,
    ) {
        let db = canonical_graph_db(n, m, 5, seed);
        let mut bulk = Store::new();
        bulk.bulk_load("G", views(), GraphForm::Exact(1), &bulk_of(&db), 1).unwrap();
        let wide = widen_db(&db);
        let mut wide_store = Store::from_database(&wide);
        wide_store
            .register_view_graph("G", views(), &wide, GraphForm::Exact(2))
            .expect("widened canonical views are valid");
        for (route, k, mut store) in [("bulk", 1, bulk), ("register", 1, store_for(&db)), ("register", 2, wide_store)] {
            let exact = |store: &Store, context: &str| {
                let stats = store.statistics();
                assert_eq!(*stats, pgq_store::StoreStatistics::recount(store, stats.epoch), "{context}");
            };
            exact(&store, &format!("{route}, k = {k}"));
            let recounts = store.counters().snapshot().statistics_recounts;
            for (i, step) in steps.iter().enumerate() {
                let batch = match step {
                    StatsStep::Batch(batch) => batch.clone(),
                    StatsStep::Fold(reject) => fold_batch(i, *reject),
                    StatsStep::Compact => {
                        store.compact().expect("compaction never fails on a healthy store");
                        Vec::new()
                    }
                };
                let batch: Vec<Update> = match k {
                    1 => batch,
                    _ => batch.iter().map(widen_update).collect(),
                };
                if !batch.is_empty() {
                    let _ = store.apply_updates("G", &batch);
                }
                exact(&store, &format!("{route}, k = {k}, after step {i}: {step:?}"));
            }
            prop_assert_eq!(
                store.counters().snapshot().statistics_recounts,
                recounts,
                "{}, k = {}: a read after a write recounted",
                route,
                k
            );
        }
    }
}

/// The canonical relations a snapshot holds, materialized as a plain
/// database — the single-threaded reference state every pinned reader
/// is checked against.
fn snapshot_reference_db(snap: &Store) -> Database {
    let mut db = Database::new();
    for (name, arity) in [("N", 1), ("E", 1), ("S", 2), ("T", 2), ("L", 2), ("P", 3)] {
        let rows = snap.scan(&name.into()).expect("canonical relation");
        db.add_relation(name, Relation::from_rows(arity, rows).unwrap());
    }
    db
}

/// Holds a pinned snapshot to the PR 8 isolation contract: every route
/// into the executor — the `eval_with_store` pattern entry, the RA
/// planner with the snapshot as its store, and `execute_opts` over
/// the rule plan with the snapshot passed explicitly — answers byte-identically to the single-threaded S2 reference over
/// the snapshot's own materialized contents, at 1, 2 and 8 executor
/// threads, no matter what a concurrent writer publishes meanwhile.
fn assert_snapshot_isolated(snap: &StoreSnapshot, context: &str) {
    let db = snapshot_reference_db(snap);
    for out in [
        builders::reachability_output(),
        builders::reachability_plus_output(),
    ] {
        let q = Query::pattern_ro(out, ["N", "E", "S", "T", "L", "P"]);
        let reference = eval_with(&q, &db, EvalConfig::reference()).unwrap();
        for threads in [1usize, 2, 8] {
            assert_eq!(
                eval_with_store(&q, &db, EvalConfig::physical().with_threads(threads), snap)
                    .unwrap(),
                reference,
                "{context}: {q} at {threads} thread(s)"
            );
        }
    }
    let shapes = [
        RaExpr::rel("S")
            .product(RaExpr::rel("T"))
            .select(RowCondition::col_eq(0, 2))
            .project(vec![1, 3]),
        RaExpr::rel("N").diff(RaExpr::rel("T").project(vec![1])),
        RaExpr::rel("L").project(vec![0]).union(RaExpr::rel("E")),
    ];
    for q in &shapes {
        let reference = q.eval(&db).unwrap();
        let plan = rule_plan(q, &db, snap);
        for threads in [1usize, 2, 8] {
            let opts = ExecOptions::with_threads(threads);
            assert_eq!(
                &eval_ra_opts(q, &db, snap, &opts).unwrap(),
                &reference,
                "{context}: {threads} thread(s) on {q}"
            );
            assert_eq!(
                &execute_opts(&plan, &db, Some(snap), &opts)
                    .unwrap()
                    .into_relation()
                    .unwrap(),
                &reference,
                "{context}: execute_opts route, {threads} thread(s) on {q}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The PR 8 snapshot-isolation differential: reader threads pin
    /// snapshots while a single writer pushes random update batches
    /// through [`ConcurrentStore::write`] — a batch either commits
    /// whole (every update accepted) or publishes nothing. Every
    /// pinned snapshot, grabbed before, between, or concurrently with
    /// the batches, must answer byte-identically to the
    /// single-threaded S2 reference over its own materialized
    /// contents, at 1/2/8 executor threads; and a
    /// snapshot pinned before the churn still holds the original
    /// state afterwards.
    #[test]
    fn pinned_readers_match_reference_under_writer_churn(
        batches in proptest::collection::vec(
            proptest::collection::vec(arb_canonical_update(), 1..5),
            1..5,
        ),
        n in 2usize..5,
        m in 0usize..7,
        seed in 0u64..1000,
    ) {
        let db0 = canonical_graph_db(n, m, 5, seed);
        let store = ConcurrentStore::new(store_for(&db0));
        let genesis = store.pin();
        let genesis_db = snapshot_reference_db(&genesis);
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let mut rounds = 0usize;
                        while rounds < 4 && (rounds == 0 || !done.load(Ordering::Relaxed)) {
                            assert_snapshot_isolated(&store.pin(), "churn");
                            rounds += 1;
                        }
                        rounds
                    })
                })
                .collect();
            for batch in &batches {
                // Commit-or-rollback: rejected updates fail the whole
                // batch, and readers must stay consistent either way.
                let _ = store.write(|s| {
                    for u in batch {
                        s.apply_updates("G", std::slice::from_ref(u))?;
                    }
                    Ok::<(), StoreError>(())
                });
            }
            done.store(true, Ordering::Relaxed);
            for r in readers {
                assert!(r.join().expect("reader thread") > 0);
            }
        });
        // The pre-churn pin froze: same contents, same answers.
        let still = snapshot_reference_db(&genesis);
        for name in views() {
            prop_assert_eq!(
                still.get(&name).unwrap(),
                genesis_db.get(&name).unwrap(),
                "pre-churn pin drifted on {}", name
            );
        }
        assert_snapshot_isolated(&genesis, "pre-churn pin after churn");
        // The final published snapshot is consistent too.
        assert_snapshot_isolated(&store.pin(), "final");
    }
}

/// Compaction as a background snapshot swap (PR 8): queries answered
/// before, during and after [`ConcurrentStore::compact`] agree with
/// the S2 reference over their own pinned snapshot; the published
/// post-compaction snapshot holds the same contents with zero stale
/// dictionary entries, tombstones and overlay rows; and the
/// pre-compaction pin keeps decoding through its *own* dictionary —
/// the code remap never reaches it.
#[test]
fn compaction_swap_is_invisible_to_pinned_readers() {
    let id = |i: i64| Tuple::unary(Value::int(i));
    let db0 = canonical_graph_db(6, 10, 5, 42);
    let store = ConcurrentStore::new(store_for(&db0));
    // Churn first, so compaction has something to reclaim: drop a node
    // with its edges, cycle a property, graft on a fresh chain.
    store
        .write(|s| {
            s.apply_updates("G", std::slice::from_ref(&Update::DetachRemoveNode(id(0))))?;
            s.apply_updates("G", std::slice::from_ref(&Update::AddNode(id(50))))?;
            s.apply_updates(
                "G",
                std::slice::from_ref(&Update::AddEdge {
                    id: id(777_000),
                    src: id(50),
                    tgt: id(1),
                }),
            )?;
            s.apply_updates(
                "G",
                std::slice::from_ref(&Update::SetProp(id(1), Value::str("w"), Value::int(9))),
            )?;
            s.apply_updates(
                "G",
                std::slice::from_ref(&Update::RemoveProp(id(1), Value::str("w"))),
            )?;
            Ok::<(), StoreError>(())
        })
        .expect("churn batch is valid");
    let before = store.pin();
    let before_db = snapshot_reference_db(&before);
    assert!(
        before.stats().tombstone_rows() > 0 || before.stats().dictionary_stale() > 0,
        "churn should leave something for compaction to reclaim"
    );
    assert_snapshot_isolated(&before, "before compaction");

    // Readers keep pinning and querying while compaction swaps the
    // published snapshot on another thread.
    std::thread::scope(|scope| {
        let compactor = scope.spawn(|| store.compact().expect("compaction succeeds"));
        for round in 0..3 {
            assert_snapshot_isolated(&store.pin(), &format!("during compaction, round {round}"));
        }
        compactor.join().expect("compactor thread");
    });

    // After: the published snapshot is fully reclaimed and holds the
    // same contents under fresh codes.
    let after = store.pin();
    assert!(!StoreSnapshot::ptr_eq(&before, &after));
    let stats = after.stats();
    assert_eq!(stats.dictionary_stale(), 0);
    assert_eq!(stats.tombstone_rows(), 0);
    assert_eq!(stats.overlay_entries(), 0);
    assert_snapshot_isolated(&after, "after compaction");
    let after_db = snapshot_reference_db(&after);
    for name in views() {
        assert_eq!(
            after_db.get(&name).unwrap(),
            before_db.get(&name).unwrap(),
            "compaction changed {name}'s contents"
        );
    }
    // The old pin survived the swap untouched: same rows, same
    // answers, decoded through the pre-remap dictionary it pinned.
    let held = snapshot_reference_db(&before);
    for name in views() {
        assert_eq!(
            held.get(&name).unwrap(),
            before_db.get(&name).unwrap(),
            "pre-compaction pin drifted on {name}"
        );
    }
    assert_snapshot_isolated(&before, "pre-compaction pin after the swap");
}

/// The fragments the cost pass used to hand to a second (rule) pass —
/// now there is one pass, and these are its corners: a bushy
/// `A ⋈ (B ⋈ C)` (flattened across the nesting), a chain with an
/// all-columns intersection as one of its factors (atomic: never
/// flattened), the smallest chains there are (one join; a self-join on
/// every column), and a join whose arity is underivable because the
/// schema it is lowered under has since lost a relation. Each answers
/// ≡ the S2 reference under both planners at 1/2/8 threads; the stale
/// one degrades — the join stays as written over lowered children —
/// without error.
#[test]
fn one_pass_covers_the_fragments_that_left_the_cost_pass() {
    let (v, e) = (|| RaExpr::rel("V"), || RaExpr::rel("E"));
    let eq = RowCondition::col_eq;
    let shapes = [
        // V ⋈ (E ⋈ E): the inner join's conjunct is pushed into the
        // right operand, so the optimizer emits a bushy tree.
        v().product(e().product(e())).select(eq(0, 1).and(eq(2, 3))),
        // Bushy, and V only connects to the *last* factor.
        v().product(e().product(e())).select(eq(0, 4).and(eq(2, 3))),
        // (V ∩ π₁E) ⋈ E ⋈ E: the intersection is one factor.
        v().intersect(e().project(vec![0]))
            .product(e())
            .product(e())
            .select(eq(0, 1).and(eq(2, 3))),
        // The smallest chains: one join, and E ⋈ E on every column.
        v().product(e()).select(eq(0, 2)),
        e().product(e()).select(eq(0, 2).and(eq(1, 3))),
        // A ternary relation no CSR serves, so hash joins survive and
        // the build-side choice is exercised under both estimators.
        v().product(RaExpr::rel("W"))
            .product(e())
            .select(eq(0, 3).and(eq(1, 4))),
    ];
    for seed in 0..4u64 {
        let mut db = ve_db(12, 30, seed);
        for i in 0..40i64 {
            db.insert("W", tuple![i % 12, i % 5, i % 12]).unwrap();
        }
        let store = Store::from_database(&db);
        let schema = db.schema();
        // The schema the plans are lowered under once `V` is gone: no
        // factor arity that mentions `V` can be derived from it.
        let mut stale = Database::new();
        stale.add_relation("E", Relation::empty(2));
        stale.add_relation("W", Relation::empty(3));
        let stale = stale.schema();
        for q in &shapes {
            let reference = q.eval(&db).unwrap();
            for planner in [PlannerChoice::Cost, PlannerChoice::Rule] {
                let degraded =
                    lower_onto_store(plan_ra(q, &schema).unwrap(), &store, &stale, planner);
                assert!(
                    degraded.to_string().contains("IndexScan"),
                    "children are still lowered:\n{degraded}"
                );
                for threads in [1usize, 2, 8] {
                    let opts = ExecOptions::with_threads(threads).with_planner(planner);
                    assert_eq!(
                        eval_ra_opts(q, &db, &store, &opts).unwrap(),
                        reference,
                        "{q} under {planner} at {threads} thread(s), seed {seed}"
                    );
                    assert_eq!(
                        execute_opts(&degraded, &db, Some(&store), &opts)
                            .unwrap()
                            .into_relation()
                            .unwrap(),
                        reference,
                        "stale {q} under {planner} at {threads} thread(s), seed {seed}:\n{degraded}"
                    );
                }
            }
        }
    }
}

#[test]
fn empty_graph_self_loops_and_parallel_edges() {
    // Empty graph: no nodes, no pairs, Boolean false.
    let mut db = Database::new();
    db.add_relation("N", Relation::empty(1));
    db.add_relation("E", Relation::empty(1));
    db.add_relation("S", Relation::empty(2));
    db.add_relation("T", Relation::empty(2));
    db.add_relation("L", Relation::empty(2));
    db.add_relation("P", Relation::empty(3));
    let store = store_for(&db);
    let star = Query::pattern_ro(
        builders::reachability_output(),
        ["N", "E", "S", "T", "L", "P"],
    );
    let cfg = EvalConfig::physical();
    assert!(eval_with_store(&star, &db, cfg, &store).unwrap().is_empty());
    let boolean = Query::pattern_ro(
        pgq_pattern::OutputPattern::boolean(
            pgq_pattern::Pattern::node("x")
                .then(pgq_pattern::Pattern::any_edge().star())
                .then(pgq_pattern::Pattern::node("y")),
        )
        .unwrap(),
        ["N", "E", "S", "T", "L", "P"],
    );
    assert_eq!(
        eval_with_store(&boolean, &db, cfg, &store).unwrap(),
        Relation::r#false()
    );

    // Self loop a→a plus parallel edges a→b (two edge identities).
    db.insert("N", tuple!["a"]).unwrap();
    db.insert("N", tuple!["b"]).unwrap();
    for (e, s, t) in [("l", "a", "a"), ("e1", "a", "b"), ("e2", "a", "b")] {
        db.insert("E", tuple![e]).unwrap();
        db.insert("S", tuple![e, s]).unwrap();
        db.insert("T", tuple![e, t]).unwrap();
    }
    let store = store_for(&db);
    for q in [
        &star,
        &Query::pattern_ro(
            builders::reachability_plus_output(),
            ["N", "E", "S", "T", "L", "P"],
        ),
    ] {
        assert_eq!(
            eval_with_store(q, &db, cfg, &store).unwrap(),
            eval_with(q, &db, EvalConfig::reference()).unwrap(),
            "{q}"
        );
    }
    let plus = eval_with_store(
        &Query::pattern_ro(
            builders::reachability_plus_output(),
            ["N", "E", "S", "T", "L", "P"],
        ),
        &db,
        cfg,
        &store,
    )
    .unwrap();
    // ≥1-step pairs: (a,a) via the loop, (a,b) once despite the
    // parallel edges.
    assert_eq!(plus.len(), 2);
    assert!(plus.contains(&tuple!["a", "a"]));
    assert!(plus.contains(&tuple!["a", "b"]));

    // Stored 0-ary relations still evaluate by value under a store.
    let mut bdb = Database::new();
    bdb.insert("V", tuple![1]).unwrap();
    bdb.add_relation("B", Relation::r#true());
    let store = Store::from_database(&bdb);
    let b = RaExpr::rel("B");
    assert_eq!(
        eval_ra_with(&b, &bdb, &store).unwrap(),
        b.eval(&bdb).unwrap()
    );
    assert_eq!(
        eval_ra_with(&RaExpr::rel("V").project(Vec::new()), &bdb, &store).unwrap(),
        Relation::r#true()
    );
}

/// A four-node chain `0 → 1 → 2 → 3` (edges `10`, `11`, `12`) in the
/// canonical layout, registered with its graph.
fn int_chain() -> (Database, Store) {
    let mut db = Database::new();
    for n in 0..4i64 {
        db.insert("N", tuple![n]).unwrap();
    }
    for (e, s, t) in [(10i64, 0i64, 1i64), (11, 1, 2), (12, 2, 3)] {
        db.insert("E", tuple![e]).unwrap();
        db.insert("S", tuple![e, s]).unwrap();
        db.insert("T", tuple![e, t]).unwrap();
    }
    db.add_relation("L", Relation::empty(2));
    db.add_relation("P", Relation::empty(3));
    let store = store_for(&db);
    (db, store)
}

fn add_edge(id: i64, src: i64, tgt: i64) -> Update {
    Update::AddEdge {
        id: tuple![id],
        src: tuple![src],
        tgt: tuple![tgt],
    }
}

/// Runs a plan under a store down to the set boundary.
fn run(plan: &PhysPlan, db: &Database, store: &Store) -> Relation {
    execute_opts(plan, db, Some(store), &ExecOptions::default())
        .unwrap()
        .into_relation()
        .unwrap()
}

/// `EXPLAIN` marks the operators that read through an update overlay
/// `⟨delta⟩`: `AddEdge`/`RemoveEdge` put pairs in the `S`/`T`
/// adjacency overlays, which `IndexSeek`, `AdjacencyExpand` and the
/// CSR fixpoint read through; a removal tombstones rows, which
/// `IndexScan` skips; compaction folds everything and the markers go.
#[test]
fn delta_markers_surface_update_overlays() {
    let (db, mut store) = int_chain();
    let expand = PhysPlan::AdjacencyExpand {
        input: Box::new(PhysPlan::IndexScan("E".into())),
        key: 0,
        rel: "T".into(),
        reverse: false,
    };
    let seek = PhysPlan::IndexSeek {
        rel: "T".into(),
        col: 1,
        value: Value::int(0),
    };
    // Fresh store: no overlay, no markers.
    assert!(!expand.reads_overlay(&store));
    assert!(!expand.display_with(Some(&store), None).contains("⟨delta⟩"));
    assert!(!seek.reads_overlay(&store));
    assert!(run(&seek, &db, &store).is_empty());
    // An added edge puts a pair in T's adjacency overlay…
    store
        .apply_updates("G", std::slice::from_ref(&add_edge(13, 3, 0)))
        .unwrap();
    assert!(expand.reads_overlay(&store));
    // …which the seek reads through, and says so.
    let text = seek.display_with(Some(&store), None);
    assert!(
        text.starts_with("IndexSeek T [$2 = 0 ← CSR] ⟨delta⟩"),
        "{text}"
    );
    let hit = |e: i64| Relation::from_rows(2, [tuple![e, 0]]).unwrap();
    assert_eq!(run(&seek, &db, &store), hit(13));
    store
        .apply_updates("G", &[add_edge(14, 2, 0), Update::RemoveEdge(tuple![13])])
        .unwrap();
    assert_eq!(run(&seek, &db, &store), hit(14));
    let text = expand.display_with(Some(&store), None);
    assert!(
        text.contains("AdjacencyExpand [$1 → T CSR] ⟨delta⟩"),
        "{text}"
    );
    assert!(text.contains("overlay: ⟨delta⟩ operators"), "{text}");
    // …and the removal tombstoned a row, marking the scan too.
    assert!(PhysPlan::IndexScan("E".into()).reads_overlay(&store));
    // Compaction folds everything: the markers disappear.
    store.compact().unwrap();
    assert!(!expand.reads_overlay(&store));
    assert!(!PhysPlan::IndexScan("E".into()).reads_overlay(&store));
    assert!(!expand.display_with(Some(&store), None).contains("⟨delta⟩"));
    assert!(!seek.display_with(Some(&store), None).contains("⟨delta⟩"));
    assert_eq!(run(&seek, &db, &store), hit(14));
}

/// After in-place updates (tombstones + adjacency deltas), every
/// store-backed operator answers for the post-update state —
/// identical to a store registered from the updated relations.
#[test]
fn updated_store_matches_rebuilt_store() {
    let (db, mut store) = int_chain();
    // Delete the chain head, splice in a shortcut 0→3, and add a
    // brand-new node 9 with an edge 3→9 — through the store and the
    // reference update semantics in lockstep.
    let batch = [
        Update::RemoveEdge(tuple![10]),
        add_edge(13, 0, 3),
        Update::AddNode(tuple![9]),
        add_edge(14, 3, 9),
    ];
    store.apply_updates("G", &batch).unwrap();
    let mut rels = view_relations_of(&db);
    for u in &batch {
        updates::apply(&mut rels, u).unwrap();
    }
    let db = db_of(&rels);
    assert!(store.adjacency(&"S".into()).unwrap().has_delta());
    assert!(store.adjacency(&"T".into()).unwrap().has_delta());
    let rebuilt = store_for(&db);
    let scan = |r: &str| PhysPlan::IndexScan(r.into());
    let expand = |rel: &str, reverse: bool| PhysPlan::AdjacencyExpand {
        input: Box::new(scan("E")),
        key: 0,
        rel: rel.into(),
        reverse,
    };
    // One hop (src, tgt): the hash join of S and T on the edge id…
    let hop = scan("S")
        .hash_join(scan("T"), vec![(0, 0)])
        .project(vec![1, 3]);
    // …and the fixpoint over T's rows seeded with (src, edge) pairs.
    let csr_hop = PhysPlan::Fixpoint {
        base: Box::new(scan("S").project(vec![1, 0])),
        step: Box::new(scan("T")),
        join: vec![(1, 0)],
        project: vec![0, 3],
        skip: 0,
        rounds: None,
    };
    let closure = PhysPlan::Fixpoint {
        base: Box::new(hop.clone()),
        step: Box::new(hop.clone()),
        join: vec![(1, 0)],
        project: vec![0, 3],
        skip: 0,
        rounds: None,
    };
    let plans = [
        scan("N"),
        scan("S"),
        expand("S", false),
        expand("T", false),
        expand("T", true),
        csr_hop.clone(),
        closure.clone(),
    ];
    for plan in &plans {
        assert_eq!(
            run(plan, &db, &store),
            run(plan, &db, &rebuilt),
            "disagrees on:\n{plan}"
        );
    }
    // The one-step fixpoint reads the shortcut the update appended…
    let one = run(&csr_hop, &db, &store);
    assert!(one.contains(&tuple![0, 3]));
    assert!(!one.contains(&tuple![0, 1]));
    // …and the closure reflects it: 0 now reaches 9, and 1 no longer
    // follows from 0.
    let reach = run(&closure, &db, &store);
    assert!(reach.contains(&tuple![0, 9]));
    assert!(!reach.contains(&tuple![0, 1]));
}
