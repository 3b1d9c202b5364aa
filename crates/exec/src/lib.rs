//! # pgq-exec
//!
//! The physical execution engine (substrate S15; DESIGN.md §2, §5).
//!
//! Every other evaluation route in the workspace is a tree-walking
//! interpreter over `BTreeSet` relations: `σ_θ(A × B)` materializes the
//! full cartesian product before filtering, and closures iterate
//! naively. This crate supplies the join-aware physical layer those
//! references are measured against:
//!
//! * [`PhysPlan`] — the physical IR (`Scan`, `IndexScan`, `IndexSeek`,
//!   `Values`, `AdomScan`, `Filter`, `Project`, `HashJoin`,
//!   `AdjacencyExpand`, `Product`, `Union`, `Diff`, `Distinct`,
//!   `Fixpoint`), with
//!   `EXPLAIN`-style [`std::fmt::Display`];
//! * [`plan_ra`]/[`optimize_plan`] — the planner: lowers the Figure 3
//!   algebra, recognizes equality-selections-over-products as hash
//!   joins, pushes remaining selections below products and unions, and
//!   plans the derived intersection `Q − (Q − Q′)` as a real
//!   intersection;
//! * [`lower_onto_store`] — the one storage-lowering pass (substrate
//!   S16): under a session [`pgq_store::Store`], base scans become
//!   columnar [`PhysPlan::IndexScan`]s, `AdomScan` reads the frozen
//!   active domain, a constant equality over a CSR-indexed relation
//!   becomes an [`PhysPlan::IndexSeek`], and join chains are ordered and rebuilt — joins
//!   against CSR-indexed edge relations as [`PhysPlan::AdjacencyExpand`]
//!   neighbor lookups. Every shape decision compares estimates, and
//!   [`PlannerChoice`] only selects the [`Estimator`]: the store's
//!   statistics ([`cost_plan`], the default) or none, under which every
//!   estimate ties and the plan keeps the shape it was written in;
//! * [`execute`]/[`execute_with`]/[`execute_opts`] — the batch
//!   executor, store-backed when given a store. There is one pipeline
//!   and it is **coded**: every batch between operators is a
//!   [`CodedBatch`] of dictionary codes — store reads hand theirs over
//!   as-is, every other leaf interns its rows into a per-execution
//!   scratch dictionary layered over the store's ([`Codes`]; a
//!   storeless run is the same thing over an empty base) — and the
//!   pipeline decodes exactly once, at the [`Coded::into_relation`]
//!   set-semantics boundary. Per-tuple work in the hot loops is a
//!   `u32` compare, not a `Value` compare;
//! * [`PhysPlan::Fixpoint`] — a semi-naive least-fixpoint operator; the
//!   FO\[TC\] evaluator (S5) lowers every formula to one plan and its
//!   `TC` to this operator, the `PGQrw` reachability route (S7,
//!   `Engine::Physical`) drives it through [`transitive_closure_opts`],
//!   and [`execute_with`] runs the reachability shape as CSR frontier
//!   sweeps.
//!
//! The engine is held to the reference evaluators by differential tests
//! (`tests/prop_engine.rs` and `tests/prop_store.rs` at the workspace
//! root) and measured by the `embed_scale` workload of `BENCHMARK.json`
//! (`pgq-exec.execute_ms.*`, `pgq-exec.rows_examined_per_result.*`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod batch;
pub mod coded;
pub mod cost;
pub mod exec;
pub mod metrics;
pub mod parallel;
pub mod plan;
pub mod planner;

pub use batch::Batch;
pub use coded::{Coded, CodedBatch, CodedCond, Codes};
pub use cost::{annotate_estimates, cost_plan, lower_onto_store, Estimator, PlannerChoice};
pub use exec::{execute, execute_opts, execute_profiled, execute_with};
pub use metrics::{JsonWriter, PlanMetrics, QueryProfile};
pub use parallel::ExecOptions;
pub use plan::PhysPlan;
pub use planner::{
    eval_ra, eval_ra_opts, eval_ra_profiled, eval_ra_with, intersect_plan, lower_ra, optimize_plan,
    physical_plan, plan_ra,
};

use pgq_relational::{RelError, RelResult};

/// The semi-naive transitive closure of a step relation whose rows are
/// flattened `(s̄, t̄, p̄)` triples: `k` source columns, `k` target
/// columns, and `params` parameter columns that stay fixed along a path
/// (empty for plain reachability). The Δ expansion of every round runs
/// morsel-parallel on `opts.threads` workers.
///
/// Returns every `(s̄, t̄, p̄)` connected by a path of **one or more**
/// steps sharing the parameter assignment — reflexive pairs are the
/// caller's business (the `ψ^{0..∞}` pattern adds them over the view's
/// nodes).
pub fn transitive_closure_opts(
    edges: Batch,
    k: usize,
    params: usize,
    opts: &ExecOptions,
) -> RelResult<Batch> {
    closure(&edges, k, params, opts, None)
}

/// The closure body: intern the edge batch, run the coded fixpoint
/// with the edges as both base and step, decode.
fn closure(
    edges: &Batch,
    k: usize,
    params: usize,
    opts: &ExecOptions,
    m: Option<&mut PlanMetrics>,
) -> RelResult<Batch> {
    let arity = 2 * k + params;
    if edges.arity() != arity {
        return Err(RelError::ArityMismatch {
            context: "transitive closure step relation",
            expected: arity,
            found: edges.arity(),
        });
    }
    // acc.t̄ = step.s̄ and acc.p̄ = step.p̄, emitting (acc.s̄, step.t̄, p̄).
    let mut join: Vec<(usize, usize)> = (0..k).map(|i| (k + i, i)).collect();
    join.extend((0..params).map(|i| (2 * k + i, 2 * k + i)));
    let mut project: Vec<usize> = (0..k).collect();
    project.extend(arity + k..arity + 2 * k);
    project.extend(arity + 2 * k..arity + 2 * k + params);
    let mut codes = Codes::new(None);
    let step = CodedBatch::intern(arity, edges.iter(), &mut codes)?;
    exec::fixpoint_coded(&step, &step, &join, &project, opts, m)?.decode(&codes)
}

/// [`transitive_closure_opts`], additionally returning a
/// [`PlanMetrics`] node recording the semi-naive iteration count and
/// per-iteration Δ-frontier sizes — the profiled route `pgq-core`'s
/// `EXPLAIN ANALYZE` takes when a pattern lowers onto the closure
/// directly instead of through a [`PhysPlan::Fixpoint`].
pub fn transitive_closure_profiled(
    edges: Batch,
    k: usize,
    params: usize,
    opts: &ExecOptions,
) -> RelResult<(Batch, PlanMetrics)> {
    let mut m = PlanMetrics::leaf(format!("Fixpoint [semi-naive closure; k={k}]"));
    m.executed = true;
    m.rows_in = edges.len() as u64;
    let start = std::time::Instant::now();
    let out = closure(&edges, k, params, opts, Some(&mut m))?;
    m.elapsed_ns = start.elapsed().as_nanos() as u64;
    m.rows_out = out.len() as u64;
    m.batches = 1;
    Ok((out, m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgq_relational::Relation;
    use pgq_value::tuple;

    #[test]
    fn closure_of_a_chain() {
        let edges = Batch::from_rows(2, [tuple![0, 1], tuple![1, 2], tuple![2, 3]]).unwrap();
        let tc = transitive_closure_opts(edges, 1, 0, &ExecOptions::default())
            .unwrap()
            .into_relation();
        assert_eq!(tc.len(), 6);
        assert!(tc.contains(&tuple![0, 3]));
    }

    #[test]
    fn closure_respects_parameters() {
        // Two colored edges that only chain within a color.
        let edges = Batch::from_rows(
            3,
            [
                tuple![0, 1, "red"],
                tuple![1, 2, "blue"],
                tuple![1, 2, "red"],
            ],
        )
        .unwrap();
        let tc = transitive_closure_opts(edges, 1, 1, &ExecOptions::default())
            .unwrap()
            .into_relation();
        assert!(tc.contains(&tuple![0, 2, "red"]));
        assert!(!tc.contains(&tuple![0, 2, "blue"]));
    }

    #[test]
    fn closure_of_binary_identifiers() {
        // Pair-steps (0,i) → (0,i+1): k = 2.
        let edges = Batch::from_rows(4, [tuple![0, 0, 0, 1], tuple![0, 1, 0, 2]]).unwrap();
        let tc = transitive_closure_opts(edges, 2, 0, &ExecOptions::default())
            .unwrap()
            .into_relation();
        assert!(tc.contains(&tuple![0, 0, 0, 2]));
    }

    #[test]
    fn closure_arity_is_checked() {
        let edges = Batch::from_rows(2, [tuple![0, 1]]).unwrap();
        assert!(transitive_closure_opts(edges.clone(), 2, 0, &ExecOptions::default()).is_err());
        assert!(
            transitive_closure_opts(Batch::empty(2), 1, 0, &ExecOptions::default())
                .unwrap()
                .is_empty()
        );
        assert_eq!(
            transitive_closure_opts(edges, 1, 0, &ExecOptions::default())
                .unwrap()
                .into_relation(),
            Relation::from_rows(2, [tuple![0, 1]]).unwrap()
        );
    }
}
