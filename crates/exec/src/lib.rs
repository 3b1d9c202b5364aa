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
//! * [`PhysPlan::Fixpoint`] — a fixpoint operator, bounded by two
//!   fields: `skip` compositions with the step applied to the base
//!   first and at most `rounds` sweep levels after (`None`: until
//!   nothing is new), so its rows are `⋃_{i=skip}^{skip+rounds} base ∘ stepⁱ`.
//!   Its step composes endpoint pairs (parameters allowed), and it
//!   runs as per-source frontier sweeps over dense endpoint ids. The FO\[TC\]
//!   evaluator (S5) lowers every formula to one plan and its `TC` to the unbounded operator; a
//!   pattern call over a registered graph (S7, `Engine::Physical`)
//!   compiles every repetition `ψ^{n..m}` to one with `skip = n` and
//!   `rounds = m − n`.
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
