//! # pgq-bench
//!
//! Experiment harness (system S11; DESIGN.md §3): the E1–E20 experiments
//! as library functions shared by the `report` binary (which regenerates
//! the measured section of `EXPERIMENTS.md`), the `scaling` binary (the
//! E19 ingestion scaling curves and their CI gates), the `planner`
//! binary (the E20 cost-vs-rule planner ablation and its CI gates), and
//! the Criterion benches under `benches/` (which measure wall-clock
//! shapes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod perf;
pub mod planner;
pub mod scaling;
pub mod serve;

pub use experiments::full_report;
pub use perf::{
    assert_metrics_overhead, assert_parallel_floors, assert_update_floors, canonical_store,
    coded_suite, engine_suite, full_suite, parallel_suite, profile_records, store_suite, to_json,
    to_json_with_profiles, update_suite,
};
pub use planner::{assert_planner_floors, planner_suite, to_json_with_planner, PlannerPoint};
pub use scaling::{
    assert_scaling_floors, scaling_entries, scaling_suite, to_json_with_scaling, ScalePoint,
};
pub use serve::{assert_serve_floors, serve_entries, serve_mixed_load, to_json_with_serve};
