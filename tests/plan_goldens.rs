//! Plan goldens: the exact text of the plans the storage-lowering pass
//! produces, under both planners, on one fixed seeded store.
//!
//! The differential suites compare *results*, and a changed join order
//! returns the same rows — so they cannot see it. These goldens can:
//! every file under `tests/goldens/plans/` was captured at PR 15's
//! parent commit — from `cost_plan` and the separate `store_plan` rule
//! pass, before the two were merged into `lower_onto_store` — and must
//! keep matching byte for byte. Re-capture one only when a
//! plan is *meant* to change: `PLAN_GOLDENS=write cargo test --test
//! plan_goldens`, and say why in the PR.
//!
//! Shapes: the three the planners are compared on — the endpoint join
//! (same plan under both), the selective one-hop, the mis-ordered
//! two-hop chain — at the plan level, and at the `EXPLAIN` level the
//! README's `S ⋈ T` join, alone and beside a pattern call whose views
//! are themselves planned.

use pgq_core::{builders, explain, Query};
use pgq_exec::{lower_onto_store, plan_ra, ExecOptions, PhysPlan, PlannerChoice};
use pgq_relational::{Database, RaExpr, RelName, Relation, RowCondition, Schema};
use pgq_store::{GraphForm, Store};
use pgq_value::Value;

const NODES: usize = 1_000;

fn views() -> [RelName; 6] {
    ["N", "E", "S", "T", "L", "P"].map(Into::into)
}

/// The schema-only database of the six canonical view relations — the
/// rows live in the store.
fn view_schema() -> Schema {
    let mut db = Database::new();
    for (name, arity) in views().into_iter().zip([1, 1, 2, 2, 2, 3]) {
        db.add_relation(name, Relation::empty(arity));
    }
    db.schema()
}

/// A transfers store at 10³ accounts × 10 transfers, seed 9.
fn seeded_store() -> Store {
    let g = pgq_workloads::scale::ldbc_transfers(NODES, 10, 9);
    let mut store = Store::new();
    store
        .bulk_load("G", views(), GraphForm::Exact(1), &g, 1)
        .expect("generator output is well-formed");
    store
}

/// The lowered plan of `q` under `planner` — the one entry point the
/// goldens hold still.
fn lowered(q: &RaExpr, store: &Store, planner: PlannerChoice) -> PhysPlan {
    let schema = view_schema();
    let plan = plan_ra(q, &schema).expect("golden shapes match the view schema");
    lower_onto_store(plan, store, &schema, planner)
}

/// `EXPLAIN` of `q` under `planner` at two workers.
fn explained(q: &Query, store: &Store, planner: PlannerChoice) -> String {
    let opts = ExecOptions::with_threads(2).with_planner(planner);
    pgq_core::explain_with(q, &view_schema(), Some(store), Some(&opts))
        .expect("golden queries are well-typed")
}

fn check(name: &str, actual: &str) {
    let path = format!(
        "{}/tests/goldens/plans/{name}.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var("PLAN_GOLDENS").as_deref() == Ok("write") {
        std::fs::write(&path, actual).expect("golden directory is writable");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(actual, expected, "plan drifted from {path}");
}

const PLANNERS: [PlannerChoice; 2] = [PlannerChoice::Cost, PlannerChoice::Rule];

/// `π_{src,tgt}(σ_{e=e}(S × T))`.
fn endpoint_join() -> RaExpr {
    RaExpr::rel("S")
        .product(RaExpr::rel("T"))
        .select(RowCondition::col_eq(0, 2))
        .project(vec![1, 3])
}

fn target() -> Value {
    Value::str(format!("IBAN{:010}", NODES / 2))
}

fn one_hop_selective() -> RaExpr {
    RaExpr::rel("S")
        .product(RaExpr::rel("T"))
        .select(RowCondition::col_eq(0, 2).and(RowCondition::col_eq_const(3, target())))
        .project(vec![1, 3])
}

/// Two hops with the constant on the syntactically last factor.
fn two_hop_transfers() -> RaExpr {
    RaExpr::rel("S")
        .product(RaExpr::rel("T"))
        .product(RaExpr::rel("S"))
        .product(RaExpr::rel("T"))
        .select(RowCondition::and_all([
            RowCondition::col_eq(0, 2),
            RowCondition::col_eq(3, 5),
            RowCondition::col_eq(4, 6),
            RowCondition::col_eq_const(7, target()),
        ]))
        .project(vec![1, 3, 7])
}

#[test]
fn planner_shapes_lower_to_the_recorded_plans() {
    let store = seeded_store();
    for planner in PLANNERS {
        for (name, q) in [
            ("endpoint_join", endpoint_join()),
            ("one_hop_selective", one_hop_selective()),
            ("two_hop_transfers", two_hop_transfers()),
        ] {
            let plan = lowered(&q, &store, planner);
            check(&format!("{name}.{planner}"), &plan.to_string());
        }
    }
}

#[test]
fn the_control_lowers_identically_and_the_chain_does_not() {
    // The endpoint join is the same plan under both planners (the
    // parity control), the two-hop chain is not (Rule keeps the
    // syntactic order, Cost re-orders it).
    let store = seeded_store();
    let [cost, rule] = PLANNERS.map(|p| lowered(&endpoint_join(), &store, p));
    assert_eq!(cost, rule);
    let [cost, rule] = PLANNERS.map(|p| lowered(&two_hop_transfers(), &store, p));
    assert_ne!(cost, rule);
}

/// The README's join as a `Query`.
fn readme_join() -> Query {
    Query::rel("S")
        .product(Query::rel("T"))
        .select(RowCondition::col_eq(0, 2))
        .project(vec![1, 3])
}

#[test]
fn readme_join_explains_to_the_recorded_text() {
    let store = seeded_store();
    check(
        "readme_join.storeless",
        &explain(&readme_join(), &view_schema()).unwrap(),
    );
    // Beside a pattern call whose node view is a planned join itself:
    // the placeholder scan, the section numbering and the per-view
    // lowering are all part of the text.
    let nodes = Query::rel("N").intersect(
        Query::rel("S")
            .product(Query::rel("T"))
            .select(RowCondition::col_eq(0, 2))
            .project(vec![1]),
    );
    let call = Query::pattern_rw(
        builders::reachability_plus_output(),
        [
            nodes,
            Query::rel("E"),
            Query::rel("S"),
            Query::rel("T"),
            Query::rel("L"),
            Query::rel("P"),
        ],
    );
    let beside = readme_join().union(call);
    for planner in PLANNERS {
        check(
            &format!("readme_join.{planner}"),
            &explained(&readme_join(), &store, planner),
        );
        check(
            &format!("readme_join_beside_pattern.{planner}"),
            &explained(&beside, &store, planner),
        );
    }
}
