//! # pgq-bench
//!
//! The paper's experiments (system S11; DESIGN.md §3): E1–E14, one
//! library function per theorem witness, shared by the `report` binary
//! (which regenerates the measured section of `EXPERIMENTS.md`) and the
//! Criterion benches under `benches/` (which time those experiments).
//! Engineering performance is measured by the repository's benchmark
//! (`BENCHMARK.json`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

pub use experiments::full_report;
