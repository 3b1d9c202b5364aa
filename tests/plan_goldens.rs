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
//! are themselves planned, and the four served pattern calls (one hop,
//! the `{2,2}` two-hop, the filtered and the bare closure), compiled
//! onto a registered graph's view relations.

use pgq_core::{builders, explain, Query};
use pgq_exec::{lower_onto_store, plan_ra, ExecOptions, PhysPlan, PlannerChoice};
use pgq_parser::{lower_query, parse_statement, Session, Statement};
use pgq_relational::{Database, RaExpr, RelName, Relation, RowCondition, Schema};
use pgq_store::{GraphForm, Store};
use pgq_value::{Tuple, Value};

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
    explained_over(q, &view_schema(), store, planner)
}

fn explained_over(q: &Query, schema: &Schema, store: &Store, planner: PlannerChoice) -> String {
    let opts = ExecOptions::with_threads(2).with_planner(planner);
    pgq_core::explain_with(q, schema, Some(store), Some(&opts))
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

/// The served transfers graph as the server stages it: 250 accounts in
/// rings of ten, four transfers each (the first to the ring successor,
/// the rest seeded inside the ring), amounts spread over `1000..10000`;
/// identifiers `(table, key)`, so `k = 2`. Returns the store with the
/// graph registered, the staged schema, and the statement's pattern call
/// over the staged names.
fn served(body: &str) -> (Store, Schema, Query) {
    const ACCOUNTS: usize = 250;
    let mut session = Session::new();
    let mut db = Database::new();
    let ddl = [
        "CREATE TABLE Account (iban)",
        "CREATE TABLE Transfer (t_id, src_iban, tgt_iban, ts, amount)",
        "CREATE PROPERTY GRAPH Transfers ( \
         NODES TABLE Account KEY (iban) LABEL Account, \
         EDGES TABLE Transfer KEY (t_id) \
           SOURCE KEY src_iban REFERENCES Account \
           TARGET KEY tgt_iban REFERENCES Account \
           LABELS Transfer PROPERTIES (ts, amount))",
    ];
    for stmt in ddl {
        session
            .execute(&parse_statement(stmt).unwrap(), &db)
            .unwrap();
    }
    let iban = |i: usize| Value::str(format!("AC{i:08}"));
    let mut lcg = 9u64;
    for s in 0..ACCOUNTS {
        db.insert("Account", Tuple::unary(iban(s))).unwrap();
        for j in 0..4 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let lo = s / 10 * 10;
            let t = lo
                + if j == 0 {
                    (s - lo + 1) % 10
                } else {
                    (lcg >> 33) as usize % 10
                };
            let id = 4 * s + j;
            let row = vec![
                Value::int(id as i64),
                iban(s),
                iban(t),
                Value::int(1_600_000_000 + 60 * id as i64),
                Value::int(1000 + (id * 7919 % 1000 * 9) as i64),
            ];
            db.insert("Transfer", Tuple::new(row)).unwrap();
        }
    }
    let rels = session.catalog.view_relations("Transfers", &db).unwrap();
    let names = ["N", "E", "S", "T", "L", "P"].map(|c| format!("⟨{c}:Transfers⟩"));
    let mut staged = Database::new();
    for (name, rel) in names.iter().zip([
        rels.nodes,
        rels.edges,
        rels.src,
        rels.tgt,
        rels.labels,
        rels.props,
    ]) {
        staged.add_relation(name.as_str(), rel);
    }
    let names = names.map(RelName::new);
    let mut store = Store::from_database(&staged);
    store
        .register_view_graph("Transfers", names.clone(), &staged, GraphForm::Bounded(2))
        .expect("the staged view is valid");
    let stmt = format!("SELECT * FROM GRAPH_TABLE (Transfers {body} RETURN (x.iban, y.iban))");
    let Statement::GraphQuery(gq) = parse_statement(&stmt).unwrap() else {
        panic!("not a query");
    };
    let out = lower_query(&gq, &session.catalog).unwrap();
    (
        store,
        staged.schema(),
        Query::pattern_n(2, out, names.map(Query::Rel)),
    )
}

/// The four served reads: name and `MATCH` clause.
const SERVED: [(&str, &str); 4] = [
    (
        "serve_one_hop",
        "MATCH (x) -[t:Transfer]-> (y) WHERE t.amount > 9000",
    ),
    (
        "serve_two_hop",
        "MATCH (x) -[t:Transfer]->{2,2} (y) WHERE t.amount > 7000",
    ),
    (
        "serve_plus_filtered",
        "MATCH (x) -[t:Transfer]->+ (y) WHERE t.amount > 5000",
    ),
    ("serve_plus_all", "MATCH (x) -[t]->+ (y)"),
];

/// The four served reads, compiled onto the registered graph's view
/// relations: the pattern call's own operators in the plan. A
/// repetition is one `Fixpoint` that scans its step once.
#[test]
fn served_shapes_explain_to_the_recorded_text() {
    for (name, body) in SERVED {
        let (store, schema, q) = served(body);
        for planner in PLANNERS {
            let text = explained_over(&q, &schema, &store, planner);
            assert!(text.contains("[route: compiled plan]"), "{text}");
            check(&format!("{name}.{planner}"), &text);
        }
    }
}

/// No lowered served read copies its rows through a `Project` straight
/// over another: the builder composes them. A `Project` has one input,
/// so in the `EXPLAIN` tree its input is the next line.
#[test]
fn no_served_shape_projects_a_projection() {
    let is_project = |line: &str| {
        line.trim_start_matches([' ', '│', '├', '└', '─'])
            .starts_with("Project [")
    };
    for (name, body) in SERVED {
        let (store, schema, q) = served(body);
        for planner in PLANNERS {
            let text = explained_over(&q, &schema, &store, planner);
            let lines: Vec<&str> = text.lines().collect();
            assert!(
                !lines
                    .windows(2)
                    .any(|w| is_project(w[0]) && is_project(w[1])),
                "{name} under {planner}: {text}"
            );
        }
    }
}
