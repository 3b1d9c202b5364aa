//! The PR 10 planner ablation (experiment E20, `BENCH_10.json`).
//!
//! For each `pgq_workloads::scale` generator and each decade scale
//! point `10³ … max_nodes` (×[`crate::scaling::EDGES_PER_NODE`]
//! edges), the suite lowers a fixed workload set under **both**
//! planners — `pgq_exec::lower_onto_store` with the estimator over the
//! store's statistics (`PlannerChoice::Cost`) and with the estimator
//! that reads none (`PlannerChoice::Rule`, which keeps the syntactic
//! shape) — over the same bulk-loaded store, and records
//! best-of-[`BEST_OF`] wall-clock per side:
//!
//! * `endpoint_join` (both generators) — the S ⋈ T endpoint pairs of
//!   E17. The two planners lower this to the *same plan*, so it is the
//!   parity control, and the gate on it is that equality
//!   (`"same_plan": true`): timing one plan against itself only
//!   measures the timer;
//! * `one_hop_selective` (transfers) — incoming transfers of one
//!   account: σ pushdown leaves a tiny filtered side that both passes
//!   must exploit;
//! * `two_hop_transfers` (transfers, the **multi-join** workload) —
//!   two transfer hops ending in one constrained account, written in
//!   the worst syntactic order (the constant lands on the *last*
//!   factor). Without statistics the joins run as written and
//!   materialize every intermediate hop; with them the chain is
//!   re-ordered around the filtered factor. This is where the estimate
//!   layer pays for itself — [`assert_planner_floors`] demands ≥
//!   [`MULTI_JOIN_FLOOR`]× here.
//!
//! Both sides execute on the coded pipeline with identical
//! [`ExecOptions`]; the suite asserts both planners return the same
//! row count (full result equivalence is property-tested in
//! `tests/prop_engine.rs` and `tests/prop_store.rs`).

use pgq_exec::{
    execute_opts, lower_onto_store, plan_ra, ExecOptions, JsonWriter, PhysPlan, PlannerChoice,
};
use pgq_relational::{Database, RaExpr, RelName, Relation, RowCondition};
use pgq_store::{GraphForm, Store};
use pgq_value::Value;
use pgq_workloads::scale::{ldbc_transfers, power_law_graph};
use std::time::Instant;

use crate::scaling::{scale_points, EDGES_PER_NODE};

/// Timed repetitions per (workload, planner, scale); the minimum is
/// recorded.
pub const BEST_OF: usize = 3;

/// The parity floor on points whose two plans differ: the cost-planned
/// one may not run slower than the rule-planned one beyond timer
/// tolerance (≥ 1.0× up to 5% measurement noise). Points whose plans
/// are equal are gated on that equality instead.
pub const PARITY_FLOOR: f64 = 0.95;

/// The headline floor on the multi-join transfers workload.
pub const MULTI_JOIN_FLOOR: f64 = 1.5;

fn views() -> [RelName; 6] {
    ["N", "E", "S", "T", "L", "P"].map(Into::into)
}

/// The schema-only database carrying the view shapes — rows come from
/// the store's columnar relations (same trick as the scaling suite).
fn view_schema() -> Database {
    let mut empty = Database::new();
    for (name, arity) in views().into_iter().zip([1, 1, 2, 2, 2, 3]) {
        empty.add_relation(name, Relation::empty(arity));
    }
    empty
}

/// `π_{src,tgt}(σ_{e=e}(S × T))` — the E17 endpoint join.
fn endpoint_join() -> RaExpr {
    crate::perf::endpoint_join()
}

/// Incoming transfers of `target`: σ pushdown leaves a ~degree-sized
/// filtered `T` factor.
fn one_hop_selective(target: Value) -> RaExpr {
    RaExpr::rel("S")
        .product(RaExpr::rel("T"))
        .select(RowCondition::col_eq(0, 2).and(RowCondition::col_eq_const(3, target)))
        .project(vec![1, 3])
}

/// Two transfer hops `a → b → c` with `c` fixed, written so the
/// selective constant sits on the syntactically *last* factor —
/// columns: S₁(e₁,a)=0‥1, T₁(e₁,b)=2‥3, S₂(e₂,b)=4‥5, T₂(e₂,c)=6‥7.
fn two_hop_transfers(target: Value) -> RaExpr {
    RaExpr::rel("S")
        .product(RaExpr::rel("T"))
        .product(RaExpr::rel("S"))
        .product(RaExpr::rel("T"))
        .select(RowCondition::and_all([
            RowCondition::col_eq(0, 2),
            RowCondition::col_eq(3, 5),
            RowCondition::col_eq(4, 6),
            RowCondition::col_eq_const(7, target),
        ]))
        .project(vec![1, 3, 7])
}

/// One workload × generator × scale measurement: the same logical plan
/// through both planners.
#[derive(Debug, Clone)]
pub struct PlannerPoint {
    /// Workload name (`endpoint_join` / `one_hop_selective` /
    /// `two_hop_transfers`).
    pub workload: &'static str,
    /// Generator name (`power_law` / `ldbc_transfers`).
    pub generator: &'static str,
    /// Node count.
    pub nodes: usize,
    /// Edge count.
    pub edges: usize,
    /// Result rows (identical across planners, asserted).
    pub rows: usize,
    /// Best-of-[`BEST_OF`] wall-clock of the cost-planned execution.
    pub cost_ns: u128,
    /// Best-of-[`BEST_OF`] wall-clock of the rule-planned execution.
    pub rule_ns: u128,
    /// Whether [`assert_planner_floors`] holds this point to
    /// [`MULTI_JOIN_FLOOR`] (the multi-join transfers workload).
    pub multi_join: bool,
    /// Whether both planners lowered the workload to `==` plans — the
    /// two timings are then one plan measured twice.
    pub same_plan: bool,
}

impl PlannerPoint {
    /// Rule time over cost time: > 1 means the cost pass is faster.
    pub fn speedup(&self) -> f64 {
        self.rule_ns as f64 / self.cost_ns as f64
    }
}

fn run(plan: &PhysPlan, db: &Database, store: &Store, opts: &ExecOptions) -> (usize, u128) {
    let start = Instant::now();
    let rows = execute_opts(plan, db, Some(store), opts)
        .expect("planner workloads run store-backed")
        .len();
    (rows, start.elapsed().as_nanos().max(1))
}

#[allow(clippy::too_many_arguments)] // one measurement point, all inputs load-bearing
fn measure(
    workload: &'static str,
    generator: &'static str,
    nodes: usize,
    edges: usize,
    q: &RaExpr,
    db: &Database,
    store: &Store,
    opts: &ExecOptions,
    multi_join: bool,
) -> PlannerPoint {
    let schema = db.schema();
    let base = plan_ra(q, &schema).expect("workloads match the view schema");
    let costed = lower_onto_store(base.clone(), store, &schema, PlannerChoice::Cost);
    let ruled = lower_onto_store(base, store, &schema, PlannerChoice::Rule);
    // One untimed warm-up each, then alternating timed repetitions:
    // caches and allocator state stay symmetric across the two sides.
    let (cost_rows, _) = run(&costed, db, store, opts);
    let (rule_rows, _) = run(&ruled, db, store, opts);
    let mut cost_ns = u128::MAX;
    let mut rule_ns = u128::MAX;
    for _ in 0..BEST_OF {
        cost_ns = cost_ns.min(run(&costed, db, store, opts).1);
        rule_ns = rule_ns.min(run(&ruled, db, store, opts).1);
    }
    assert_eq!(
        cost_rows, rule_rows,
        "{workload}/{generator}/{nodes}: planners disagree on the result"
    );
    PlannerPoint {
        workload,
        generator,
        nodes,
        edges,
        rows: cost_rows,
        cost_ns,
        rule_ns,
        multi_join,
        same_plan: costed == ruled,
    }
}

/// Measures the E20 ablation: every workload × generator × decade
/// point up to `max_nodes`, with `threads` executor workers.
pub fn planner_suite(max_nodes: usize, threads: usize) -> Vec<PlannerPoint> {
    let opts = ExecOptions::with_threads(threads);
    let db = view_schema();
    let mut out = Vec::new();
    for generator in ["power_law", "ldbc_transfers"] {
        for n in scale_points(max_nodes) {
            // Seed fixed per (generator, scale), as in E19: the curves
            // measure planning quality, not instance luck.
            let g = match generator {
                "power_law" => power_law_graph(n, EDGES_PER_NODE, 9),
                _ => ldbc_transfers(n, EDGES_PER_NODE, 9),
            };
            let mut store = Store::new();
            let stats = store
                .bulk_load("G", views(), GraphForm::Exact(1), &g, threads)
                .expect("generator output is well-formed");
            out.push(measure(
                "endpoint_join",
                generator,
                stats.nodes,
                stats.edges,
                &endpoint_join(),
                &db,
                &store,
                &opts,
                false,
            ));
            if generator == "ldbc_transfers" {
                // A mid-range account: in-degree ≈ EDGES_PER_NODE, so
                // the constant is selective at every scale.
                let target = Value::str(format!("IBAN{:010}", n / 2));
                out.push(measure(
                    "one_hop_selective",
                    generator,
                    stats.nodes,
                    stats.edges,
                    &one_hop_selective(target.clone()),
                    &db,
                    &store,
                    &opts,
                    false,
                ));
                out.push(measure(
                    "two_hop_transfers",
                    generator,
                    stats.nodes,
                    stats.edges,
                    &two_hop_transfers(target),
                    &db,
                    &store,
                    &opts,
                    true,
                ));
            }
        }
    }
    out
}

/// The E20 regression gates:
///
/// 1. **parity** — a point both planners lower to the same plan holds
///    by that equality (equal plans run equally; timing one against
///    itself at ≥ 0.95× only ever tested the timer, and flaked —
///    `tests/plan_goldens.rs` pins that the control *is* such a
///    point); every point whose plans differ runs cost-planned at ≥
///    [`PARITY_FLOOR`]× rule-planned;
/// 2. **multi-join payoff** — at the largest scale of every
///    `multi_join` workload, cost ≥ [`MULTI_JOIN_FLOOR`]× rule.
///
/// # Panics
///
/// When a floor is broken (the caller gates on release builds, like
/// every perf floor in this crate).
pub fn assert_planner_floors(points: &[PlannerPoint]) {
    assert!(!points.is_empty(), "no planner ablation points");
    for p in points {
        assert!(
            p.same_plan || p.speedup() >= PARITY_FLOOR,
            "{}/{}/{}: cost pass regressed below the rule pass: {:.2}× < {PARITY_FLOOR}×",
            p.workload,
            p.generator,
            p.nodes,
            p.speedup()
        );
    }
    let multi: Vec<&PlannerPoint> = points.iter().filter(|p| p.multi_join).collect();
    assert!(!multi.is_empty(), "no multi-join ablation points");
    let top = multi
        .iter()
        .max_by_key(|p| p.nodes)
        .expect("non-empty multi-join curve");
    assert!(
        top.speedup() >= MULTI_JOIN_FLOOR,
        "{}/{}/{}: multi-join floor broken: cost {:.2}× rule < {MULTI_JOIN_FLOOR}×",
        top.workload,
        top.generator,
        top.nodes,
        top.speedup()
    );
}

/// Writes the `"planner"` section: one object per
/// `workload/generator/nodes` point.
pub fn write_planner_section(w: &mut JsonWriter, points: &[PlannerPoint]) {
    w.key("planner");
    w.begin_object();
    for p in points {
        w.key(&format!("{}/{}/{}", p.workload, p.generator, p.nodes));
        w.begin_object();
        w.key("nodes");
        w.number(p.nodes as u64);
        w.key("edges");
        w.number(p.edges as u64);
        w.key("rows");
        w.number(p.rows as u64);
        w.key("cost_ns");
        w.number_u128(p.cost_ns);
        w.key("rule_ns");
        w.number_u128(p.rule_ns);
        w.key("speedup");
        w.float(p.speedup());
        w.key("multi_join");
        w.boolean(p.multi_join);
        w.key("same_plan");
        w.boolean(p.same_plan);
        w.end_object();
    }
    w.end_object();
}

/// The full `BENCH_10.json` document: everything `BENCH_9.json`
/// carried, plus the `"planner"` ablation.
pub fn to_json_with_planner(
    entries: &[crate::perf::BenchEntry],
    profiles: &[(String, pgq_exec::QueryProfile)],
    serve: &crate::serve::ServeReport,
    scaling: &[crate::scaling::ScalePoint],
    planner: &[PlannerPoint],
) -> String {
    let mut w = JsonWriter::pretty();
    w.begin_object();
    crate::perf::write_bench_section(&mut w, entries);
    crate::perf::write_profile_section(&mut w, profiles);
    crate::serve::write_serve_section(&mut w, serve);
    crate::scaling::write_scaling_section(&mut w, scaling);
    write_planner_section(&mut w, planner);
    w.end_object();
    let mut out = w.finish();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_suite_measures_and_serializes() {
        // One tiny point per generator: plumbing and JSON shape, not
        // perf (the floors are release-gated by the binaries).
        let points = planner_suite(60, 2);
        assert_eq!(points.len(), 4, "{points:?}");
        for p in &points {
            assert_eq!(p.nodes, 60);
            assert!(p.edges > 0);
            assert!(p.cost_ns > 0 && p.rule_ns > 0);
        }
        let multi: Vec<_> = points.iter().filter(|p| p.multi_join).collect();
        assert_eq!(multi.len(), 1);
        assert_eq!(multi[0].workload, "two_hop_transfers");
        // The control is one plan under both planners and is gated on
        // exactly that; the mis-ordered chain is two plans.
        for p in points.iter().filter(|p| p.workload == "endpoint_join") {
            assert!(p.same_plan, "{p:?}");
        }
        assert!(!multi[0].same_plan, "{:?}", multi[0]);
        // The selective workloads actually select: a handful of rows,
        // not the cross product.
        for p in &points {
            if p.workload != "endpoint_join" {
                assert!(p.rows < p.edges, "{p:?}");
            }
        }
        let mut w = JsonWriter::pretty();
        w.begin_object();
        write_planner_section(&mut w, &points);
        w.end_object();
        let json = w.finish();
        assert!(json.contains("\"endpoint_join/power_law/60\""));
        assert!(json.contains("\"two_hop_transfers/ldbc_transfers/60\""));
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"same_plan\": true"), "{json}");
    }
}
