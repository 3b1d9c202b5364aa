//! Differential property suite for the S15 physical engine
//! (DESIGN.md §5): on seeded random workloads, the engine's answers
//! must be *identical* to the reference evaluators' —
//!
//! * random `RaExpr` trees: `pgq_exec::eval_ra` vs. the S2 reference
//!   `RaExpr::eval`;
//! * `PGQ` queries over random canonical graphs: `Engine::Physical`
//!   vs. `Engine::Nfa` vs. `Engine::Reference` (S7), composed with the
//!   logical optimizer;
//! * FO\[TC\] with the engine-routed closure: the S5 relational
//!   evaluator vs. the S6 assignment-enumeration oracle;
//!
//! plus the empty-relation and zero-arity edge cases.

use pgq_core::{builders, eval_with, optimize, EvalConfig, Query};
use pgq_exec::{eval_ra, PhysPlan};
use pgq_logic::{all_satisfying, Formula, Term};
use pgq_relational::{Database, RaExpr, Relation, RowCondition};
use pgq_value::{tuple, Tuple, Value, Var};
use pgq_workloads::random::{canonical_graph_db, ve_db};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A random `RaExpr` of the given arity over the `{V/1, E/2}` schema.
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
    let wider = arb_ra(arity + 1, depth - 1);
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
        // Projection from one column wider (drops, may repeat).
        (
            1,
            (wider, proptest::collection::vec(0..arity + 1, arity))
                .prop_map(|(q, pos)| q.project(pos))
                .boxed(),
        ),
    ];
    if arity >= 1 {
        // A constant selection on any column (on a small instance some
        // constants occur nowhere): over `E` the store pass turns it
        // into an `IndexSeek`, forward or reverse by the column drawn.
        choices.push((
            1,
            (sub.clone(), 0..arity, 0i64..5)
                .prop_map(|(q, col, c)| q.select(RowCondition::col_eq_const(col, c)))
                .boxed(),
        ));
    }
    if arity >= 2 {
        // A product assembling the arity from smaller pieces, with an
        // equality selection the planner can turn into a hash join.
        let halves = (arb_ra(1, depth - 1), arb_ra(arity - 1, depth - 1));
        choices.push((
            2,
            halves
                .prop_map(move |(a, b)| a.product(b).select(RowCondition::col_eq(0, arity - 1)))
                .boxed(),
        ));
    }
    proptest::strategy::Union::new(choices).boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Physical `RaExpr` evaluation equals the S2 reference on random
    /// expressions over random `{V/1, E/2}` instances.
    #[test]
    fn ra_physical_equals_reference(
        q in arb_ra(2, 3),
        n in 1usize..8,
        m in 0usize..14,
        seed in 0u64..1000,
    ) {
        let db = ve_db(n, m, seed);
        prop_assert_eq!(eval_ra(&q, &db).unwrap(), q.eval(&db).unwrap(), "{}", q);
    }

    /// Unary expressions too (exercises adom, constants, intersection).
    #[test]
    fn ra_unary_physical_equals_reference(
        q in arb_ra(1, 3),
        n in 1usize..8,
        m in 0usize..14,
        seed in 0u64..1000,
    ) {
        let db = ve_db(n, m, seed);
        let reference = q.eval(&db);
        prop_assert!(reference.is_ok(), "reference errored on {}: {:?}", q, reference);
        let physical = eval_ra(&q, &db);
        prop_assert!(physical.is_ok(), "physical errored on {}: {:?}", q, physical);
        prop_assert_eq!(physical.unwrap(), reference.unwrap(), "{}", q);
    }

    /// The three S7 engines agree on reachability queries over random
    /// canonical graphs, before and after the logical optimizer.
    #[test]
    fn query_engines_agree(n in 1usize..10, m in 0usize..20, seed in 0u64..1000) {
        let db = canonical_graph_db(n, m, 10, seed);
        for out in [
            builders::reachability_output(),
            builders::reachability_plus_output(),
        ] {
            let q = Query::pattern_ro(out, ["N", "E", "S", "T", "L", "P"]);
            let reference = eval_with(&q, &db, EvalConfig::reference()).unwrap();
            let nfa = eval_with(&q, &db, EvalConfig::nfa()).unwrap();
            let physical = eval_with(&q, &db, EvalConfig::physical()).unwrap();
            prop_assert_eq!(&nfa, &reference);
            prop_assert_eq!(&physical, &reference);
            let optimized = optimize(&q, &db.schema()).unwrap();
            let physical_opt = eval_with(&optimized, &db, EvalConfig::physical()).unwrap();
            prop_assert_eq!(&physical_opt, &reference);
        }
    }

    /// A relational shell around a pattern call: the optimizer's
    /// pushdowns compose with the physical planner.
    #[test]
    fn shell_around_pattern_agrees(n in 2usize..8, m in 0usize..16, seed in 0u64..1000) {
        let db = canonical_graph_db(n, m, 10, seed);
        let reach = Query::pattern_ro(
            builders::reachability_output(),
            ["N", "E", "S", "T", "L", "P"],
        );
        let q = reach
            .product(Query::rel("N"))
            .select(RowCondition::col_eq(1, 2))
            .project(vec![0, 1])
            .union(Query::rel("S").select(RowCondition::col_eq(0, 0)));
        let optimized = optimize(&q, &db.schema()).unwrap();
        let reference = eval_with(&q, &db, EvalConfig::reference()).unwrap();
        prop_assert_eq!(
            &eval_with(&q, &db, EvalConfig::physical()).unwrap(),
            &reference
        );
        prop_assert_eq!(
            &eval_with(&optimized, &db, EvalConfig::physical()).unwrap(),
            &reference
        );
    }

    /// Morsel parallelism is invisible: the store-backed executor
    /// answers random `RaExpr` trees identically at 1, 2 and 8 worker
    /// threads.
    #[test]
    fn parallel_execution_matches_reference(
        q in arb_ra(2, 3),
        n in 1usize..8,
        m in 0usize..14,
        seed in 0u64..1000,
    ) {
        let db = ve_db(n, m, seed);
        let store = pgq_store::Store::from_database(&db);
        let reference = q.eval(&db).unwrap();
        for threads in [1usize, 2, 8] {
            let opts = pgq_exec::ExecOptions::with_threads(threads);
            prop_assert_eq!(
                &pgq_exec::eval_ra_opts(&q, &db, &store, &opts).unwrap(),
                &reference,
                "{} at {} threads", q, threads
            );
        }
    }

    /// The engine route too: `EvalConfig::threads` changes nothing
    /// about the answer of a reachability query with a relational
    /// shell around it (fixpoint + hash join + filter + projection).
    #[test]
    fn parallel_engine_matches_reference(n in 2usize..8, m in 0usize..16, seed in 0u64..1000) {
        let db = canonical_graph_db(n, m, 10, seed);
        let reach = Query::pattern_ro(
            builders::reachability_output(),
            ["N", "E", "S", "T", "L", "P"],
        );
        let q = reach
            .product(Query::rel("N"))
            .select(RowCondition::col_eq(1, 2))
            .project(vec![0, 1]);
        let reference = eval_with(&q, &db, EvalConfig::reference()).unwrap();
        for threads in [1usize, 2, 8] {
            prop_assert_eq!(
                &eval_with(&q, &db, EvalConfig::physical().with_threads(threads)).unwrap(),
                &reference,
                "{} threads", threads
            );
        }
    }

    /// Metrics collection is strictly observational: profiled and
    /// unprofiled evaluation return identical relations at 1, 2 and 8
    /// worker threads, the profile's `Output` row count equals the
    /// result cardinality, the per-operator row counts obey the unary
    /// pipe invariant, and the timing-free rendering is byte-identical
    /// across thread counts.
    #[test]
    fn metrics_collection_is_invisible(
        q in arb_ra(2, 3),
        n in 1usize..8,
        m in 0usize..14,
        seed in 0u64..1000,
    ) {
        let db = ve_db(n, m, seed);
        let store = pgq_store::Store::from_database(&db);
        let mut renders: Vec<String> = Vec::new();
        for threads in [1usize, 2, 8] {
            let opts = pgq_exec::ExecOptions::with_threads(threads);
            let plain = pgq_exec::eval_ra_opts(&q, &db, &store, &opts).unwrap();
            let (profiled, profile) =
                pgq_exec::eval_ra_profiled(&q, &db, &store, &opts).unwrap();
            prop_assert_eq!(&profiled, &plain, "{} at {} threads", q, threads);
            prop_assert_eq!(profile.rows, plain.len() as u64, "{}", q);
            assert_unary_pipes(&profile.root);
            renders.push(profile.render(false));
        }
        // Deterministic fields only: 1 == 2 == 8 threads, byte for byte.
        prop_assert_eq!(&renders[0], &renders[1], "{}", q);
        prop_assert_eq!(&renders[1], &renders[2], "{}", q);
    }

    /// The planner differential (PR 10): the statistics-driven cost
    /// planner and the fixed rule pass answer random `RaExpr` trees
    /// identically to the S2 reference at 1, 2 and 8 worker threads. The planners may pick different join
    /// orders, build sides and expansion directions; the answer never
    /// moves.
    #[test]
    fn planner_differential(
        q in arb_ra(2, 3),
        n in 1usize..8,
        m in 0usize..14,
        seed in 0u64..1000,
    ) {
        let db = ve_db(n, m, seed);
        let store = pgq_store::Store::from_database(&db);
        let reference = q.eval(&db).unwrap();
        for planner in [pgq_exec::PlannerChoice::Cost, pgq_exec::PlannerChoice::Rule] {
            for threads in [1usize, 2, 8] {
                let opts = pgq_exec::ExecOptions::with_threads(threads).with_planner(planner);
                prop_assert_eq!(
                    &pgq_exec::eval_ra_opts(&q, &db, &store, &opts).unwrap(),
                    &reference,
                    "{} planner on {} at {} threads", planner, q, threads
                );
            }
        }
    }

    /// The engine-routed `TC` (S5) still matches the assignment
    /// enumeration oracle (S6), including parameterized closures.
    #[test]
    fn tc_matches_naive_oracle(n in 1usize..5, m in 0usize..8, seed in 0u64..1000) {
        let db = ve_db(n, m, seed);
        let plain_tc = Formula::tc(
            vec![Var::new("u")],
            vec![Var::new("w")],
            Formula::atom("E", ["u", "w"]),
            vec![Term::var("x")],
            vec![Term::var("y")],
        );
        // Parameterized: steps must share the parameter p (E(u,w) ∧ V(p)).
        let param_tc = Formula::tc(
            vec![Var::new("u")],
            vec![Var::new("w")],
            Formula::atom("E", ["u", "w"]).and(Formula::atom("V", ["p"])),
            vec![Term::var("x")],
            vec![Term::var("y")],
        );
        // Applied terms `arb_formula` never generates, matched by the
        // plan route's column-equality filters: the TC applied to its
        // own parameter, a repeated variable beside a parameter, and a
        // constant endpoint. `V(p)` holds for every node of `ve_db`, so
        // the last one also applies a TC to a parameter that gates its
        // steps (only out of successors of `p`).
        let applied = |gate: Formula, x: Term, y: Term| {
            Formula::tc(
                vec![Var::new("u")],
                vec![Var::new("w")],
                Formula::atom("E", ["u", "w"]).and(gate),
                vec![x],
                vec![y],
            )
        };
        let v_p = || Formula::atom("V", ["p"]);
        let own_param = applied(v_p(), Term::var("p"), Term::var("y"));
        let repeated = applied(v_p(), Term::var("x"), Term::var("x"));
        let constant = applied(v_p(), Term::constant(0), Term::var("y"));
        let gated = applied(Formula::atom("E", ["p", "u"]), Term::var("p"), Term::var("y"));
        for phi in [plain_tc, param_tc, own_param, repeated, constant, gated] {
            let fast = pgq_logic::eval(&phi, &db).unwrap();
            let slow = all_satisfying(&phi, &fast.vars, &db).unwrap();
            prop_assert_eq!(
                fast.rel.clone().into_tuples(),
                slow,
                "{}",
                phi
            );
        }
    }
}

/// The rows `⋃_{i=skip}^{skip+rounds} base ∘ stepⁱ` of a pair-shaped
/// fixpoint over `(s̄, t̄, p̄)` rows (`|s̄| = |t̄| = k`), computed as a
/// naive union of powers, and the number of new rows at each level the
/// semi-naive rounds expand (level `i` is expanded when it holds new
/// rows and `i < rounds`).
fn union_of_powers(
    base: &BTreeSet<Vec<i64>>,
    step: &BTreeSet<Vec<i64>>,
    k: usize,
    skip: usize,
    rounds: Option<usize>,
) -> (BTreeSet<Vec<i64>>, Vec<u64>) {
    let compose = |a: &BTreeSet<Vec<i64>>| -> BTreeSet<Vec<i64>> {
        let mut out = BTreeSet::new();
        for acc in a {
            for s in step {
                if acc[k..2 * k] == s[..k] && acc[2 * k..] == s[2 * k..] {
                    out.insert(acc[..k].iter().chain(&s[k..]).copied().collect());
                }
            }
        }
        out
    };
    let mut power = base.clone();
    for _ in 0..skip {
        power = compose(&power);
    }
    let (mut union, mut deltas) = (BTreeSet::new(), Vec::new());
    loop {
        let new: Vec<Vec<i64>> = power.difference(&union).cloned().collect();
        union.extend(new.iter().cloned());
        if new.is_empty() || rounds.is_some_and(|r| deltas.len() >= r) {
            return (union, deltas);
        }
        deltas.push(new.len() as u64);
        power = compose(&power);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The dense fixpoint sweep equals a naive union of powers, and its
    /// profile's `Δ=[…]` equals the reference's per-level new-row counts,
    /// at 1 and 8 threads: `k ∈ {1, 2}` and a parameterised `(s, t, p)`
    /// step, every `skip ≤ 4` and `rounds ∈ {None, 0..=3}`, duplicate
    /// base and step rows, base endpoints the step never names, with the
    /// step read storeless, through the store, and as a bare `IndexScan`
    /// of a stored binary relation.
    #[test]
    fn dense_sweep_matches_union_of_powers(
        shape in 0usize..3,
        skip in 0usize..5,
        rounds in 0usize..5,
        nodes in 1i64..6,
        edges in 0usize..14,
        seed in 0u64..1000,
    ) {
        let (k, n) = [(1, 2), (2, 4), (1, 3)][shape];
        let rounds = (rounds < 4).then_some(rounds);
        let mut state = seed;
        let mut draw = |below: i64| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as i64 % below
        };
        // Step endpoints range over `0..nodes`, base endpoints over two
        // more; a 2-component identifier's first component is 0 or 1.
        let mut row = |domain: i64| -> Vec<i64> {
            (0..n).map(|i| if k == 2 && i % 2 == 0 { draw(2) } else { draw(domain) }).collect()
        };
        let step: BTreeSet<Vec<i64>> = (0..edges).map(|_| row(nodes)).collect();
        let base: BTreeSet<Vec<i64>> = (0..edges / 2 + 1).map(|_| row(nodes + 2)).collect();
        let mut db = Database::new();
        for (name, rows) in [("B", &base), ("E", &step)] {
            db.add_relation(name, Relation::empty(n));
            for r in rows {
                db.insert(name, Tuple::new(r.iter().map(|&v| Value::int(v)).collect())).unwrap();
            }
        }
        let store = pgq_store::Store::from_database(&db);
        let twice = |name: &str| PhysPlan::Union {
            left: Box::new(PhysPlan::Scan(name.into())),
            right: Box::new(PhysPlan::Scan(name.into())),
        };
        let fixpoint = |step: PhysPlan| PhysPlan::Fixpoint {
            base: Box::new(twice("B")),
            step: Box::new(step),
            join: (0..k).map(|i| (k + i, i)).chain((2 * k..n).map(|i| (i, i))).collect(),
            project: (0..k).chain(n + k..2 * n).collect(),
            skip,
            rounds,
        };
        let (want, deltas) = union_of_powers(&base, &step, k, skip, rounds);
        let want = Relation::from_rows(
            n,
            want.iter().map(|r| Tuple::new(r.iter().map(|&v| Value::int(v)).collect())),
        )
        .unwrap();
        let deltas = (!deltas.is_empty()).then_some(deltas);
        let mut runs = vec![(fixpoint(twice("E")), None), (fixpoint(twice("E")), Some(&store))];
        if k == 1 && n == 2 {
            runs.push((fixpoint(PhysPlan::IndexScan("E".into())), Some(&store)));
        }
        for (plan, store) in &runs {
            for threads in [1, 8] {
                let opts = pgq_exec::ExecOptions::with_threads(threads);
                let (out, m) = pgq_exec::execute_profiled(plan, &db, *store, &opts).unwrap();
                prop_assert_eq!(out.into_relation().unwrap(), want.clone(), "{}", plan);
                prop_assert_eq!(&m.iterations, &deltas, "{}", plan);
            }
        }
    }
}

/// Walks a metrics tree asserting the unary pipe invariant: an executed
/// operator with exactly one executed child consumed exactly the rows
/// that child produced.
fn assert_unary_pipes(m: &pgq_exec::PlanMetrics) {
    if m.executed && m.children.len() == 1 && m.children[0].executed {
        assert_eq!(
            m.rows_in, m.children[0].rows_out,
            "{}: rows_in != child rows_out",
            m.label
        );
    }
    for c in &m.children {
        assert_unary_pipes(c);
    }
}

/// The `pgq-core` profiled route (`EXPLAIN ANALYZE`): profiled and
/// unprofiled evaluation agree, the profile root carries the result
/// cardinality, the reachability pattern reports its fixpoint iteration
/// trace, and the timing-free rendering is byte-identical at 1, 2 and
/// 8 worker threads.
#[test]
fn core_profiled_route_matches_and_is_deterministic() {
    let db = canonical_graph_db(6, 12, 10, 42);
    // The graph is registered, so the call compiles to a `Fixpoint`.
    let mut store = pgq_store::Store::from_database(&db);
    store
        .register_view_graph(
            "G",
            ["N", "E", "S", "T", "L", "P"].map(Into::into),
            &db,
            pgq_store::GraphForm::Exact(1),
        )
        .unwrap();
    let q = Query::pattern_ro(
        builders::reachability_plus_output(),
        ["N", "E", "S", "T", "L", "P"],
    );
    let mut renders: Vec<String> = Vec::new();
    for threads in [1usize, 2, 8] {
        let cfg = EvalConfig::physical().with_threads(threads);
        let plain = pgq_core::eval_with_store(&q, &db, cfg, &store).unwrap();
        let (profiled, profile) = pgq_core::eval_with_store_profiled(&q, &db, cfg, &store).unwrap();
        assert_eq!(profiled, plain, "{threads} threads");
        assert_eq!(profile.rows, plain.len() as u64);
        assert_unary_pipes(&profile.root);
        let text = profile.render(false);
        assert!(
            text.contains("iters="),
            "expected a fixpoint iteration trace:\n{text}"
        );
        renders.push(text);
    }
    assert_eq!(renders[0], renders[1]);
    assert_eq!(renders[1], renders[2]);
}

/// `EXPLAIN ANALYZE` estimates (PR 10): every store-backed operator
/// row renders an `est=` cardinality next to the measured rows, and —
/// because the estimates are a pure function of the store's frozen
/// statistics — the timing-free rendering stays byte-identical at 1,
/// 2 and 8 worker threads, under both planners.
#[test]
fn explain_analyze_renders_estimates_deterministically() {
    let db = ve_db(8, 20, 7);
    let store = pgq_store::Store::from_database(&db);
    let q = RaExpr::rel("E")
        .product(RaExpr::rel("E"))
        .select(RowCondition::col_eq(1, 2))
        .project(vec![0, 3]);
    for planner in [pgq_exec::PlannerChoice::Cost, pgq_exec::PlannerChoice::Rule] {
        let mut renders: Vec<String> = Vec::new();
        for threads in [1usize, 2, 8] {
            let opts = pgq_exec::ExecOptions::with_threads(threads).with_planner(planner);
            let (_, profile) = pgq_exec::eval_ra_profiled(&q, &db, &store, &opts).unwrap();
            let text = profile.render(false);
            assert!(
                text.contains("est="),
                "{planner} planner must render estimates:\n{text}"
            );
            renders.push(text);
        }
        assert_eq!(renders[0], renders[1], "{planner}");
        assert_eq!(renders[1], renders[2], "{planner}");
    }
    // A constant equality over an indexed relation reads as one
    // `IndexSeek` leaf, estimated like every other node.
    let q = RaExpr::rel("E").select(RowCondition::col_eq_const(1, 3));
    let opts = pgq_exec::ExecOptions::sequential();
    let (rows, profile) = pgq_exec::eval_ra_profiled(&q, &db, &store, &opts).unwrap();
    assert_eq!(rows, q.eval(&db).unwrap());
    let text = profile.render(false);
    let seek = format!("IndexSeek E [$2 = 3 ← CSR] rows={} est=", rows.len());
    assert!(text.contains(&seek), "expected `{seek}…`:\n{text}");
    // The core `EXPLAIN ANALYZE` route grafts them onto its plans too.
    let cdb = canonical_graph_db(6, 12, 10, 42);
    let cstore = pgq_store::Store::from_database(&cdb);
    let shell = Query::rel("S")
        .product(Query::rel("T"))
        .select(RowCondition::col_eq(0, 2))
        .project(vec![1, 3]);
    let (_, profile) =
        pgq_core::eval_with_store_profiled(&shell, &cdb, EvalConfig::physical(), &cstore).unwrap();
    let text = profile.render(false);
    assert!(
        text.contains("est="),
        "core route must render estimates:\n{text}"
    );
}

#[test]
fn empty_relations_and_zero_arity_edge_cases() {
    // Empty database: adom is empty, everything is empty.
    let empty = Database::new();
    assert!(eval_ra(&RaExpr::ActiveDomain, &empty).unwrap().is_empty());

    // Empty stored relations through every operator.
    let mut db = Database::new();
    db.add_relation("V", Relation::empty(1));
    db.add_relation("E", Relation::empty(2));
    let shapes = [
        RaExpr::rel("E").project(vec![1]),
        RaExpr::rel("E")
            .product(RaExpr::rel("E"))
            .select(RowCondition::col_eq(1, 2)),
        RaExpr::rel("V").union(RaExpr::ActiveDomain),
        RaExpr::rel("V").intersect(RaExpr::ActiveDomain),
        RaExpr::rel("V").diff(RaExpr::ActiveDomain),
    ];
    for q in shapes {
        assert_eq!(eval_ra(&q, &db).unwrap(), q.eval(&db).unwrap(), "{q}");
    }

    // Stored 0-ary relations (Boolean cells) evaluate by value — the
    // schema omits them, so the engine cannot scan them by name.
    db.add_relation("B", Relation::r#true());
    let b = RaExpr::rel("B");
    assert_eq!(eval_ra(&b, &db).unwrap(), b.eval(&db).unwrap());

    // Zero-arity results: π_∅ is the Boolean projection.
    db.insert("V", tuple![7]).unwrap();
    let truthy = RaExpr::rel("V").project(Vec::new());
    assert_eq!(eval_ra(&truthy, &db).unwrap(), Relation::r#true());
    let falsy = RaExpr::rel("E").project(Vec::new());
    assert_eq!(eval_ra(&falsy, &db).unwrap(), Relation::r#false());
    // 0-ary set operations.
    let unioned = truthy.clone().union(falsy.clone());
    assert_eq!(eval_ra(&unioned, &db).unwrap(), unioned.eval(&db).unwrap());
    let diffed = truthy.clone().diff(falsy.clone());
    assert_eq!(eval_ra(&diffed, &db).unwrap(), diffed.eval(&db).unwrap());
    let intersected = truthy.clone().intersect(falsy);
    assert_eq!(
        eval_ra(&intersected, &db).unwrap(),
        intersected.eval(&db).unwrap()
    );

    // The physical Query route on a pattern over an all-empty view:
    // Boolean reachability over zero nodes is false.
    let q = Query::pattern_ro(
        pgq_pattern::OutputPattern::boolean(
            pgq_pattern::Pattern::node("x")
                .then(pgq_pattern::Pattern::any_edge().star())
                .then(pgq_pattern::Pattern::node("y")),
        )
        .unwrap(),
        ["N", "E", "S", "T", "L", "P"],
    );
    let mut gdb = Database::new();
    gdb.add_relation("N", Relation::empty(1));
    gdb.add_relation("E", Relation::empty(1));
    gdb.add_relation("S", Relation::empty(2));
    gdb.add_relation("T", Relation::empty(2));
    gdb.add_relation("L", Relation::empty(2));
    gdb.add_relation("P", Relation::empty(3));
    assert_eq!(
        eval_with(&q, &gdb, EvalConfig::physical()).unwrap(),
        Relation::r#false()
    );
    assert_eq!(
        eval_with(&q, &gdb, EvalConfig::physical()).unwrap(),
        eval_with(&q, &gdb, EvalConfig::reference()).unwrap()
    );
}
