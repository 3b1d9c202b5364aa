//! Morsel-driven parallelism for the physical executor (DESIGN.md §5).
//!
//! Operator inputs are split into fixed-size **morsels** of rows and
//! folded over a small pool of `std::thread::scope` workers — no
//! dependencies, no unsafe, no channels: workers claim morsel indices
//! from an atomic counter, return their per-morsel outputs by value,
//! and the scheduler reassembles them **in morsel order** before the
//! next operator sees them. That deterministic merge is what keeps
//! parallel execution byte-identical to sequential execution
//! everywhere sequential execution is itself deterministic; the final
//! set-semantics boundary (a sorted [`pgq_relational::Relation`])
//! covers the rest. The differential suites pin the equivalence down
//! at thread counts {1, 2, 8} (`tests/prop_engine.rs`,
//! `tests/prop_store.rs`).
//!
//! Errors cross the scope the same way results do: a worker that hits
//! a [`pgq_relational::RelError`] stops claiming morsels and the first error in morsel
//! order is returned — a poisoned-scope panic can only come from a
//! genuine executor bug, never from user-constructible inputs (the
//! panic-free audit of PR 6).
//!
//! Since PR 9 the generic scheduling core lives in
//! [`pgq_store::par`] so the store's bulk-ingest paths can share it;
//! this module re-exports it (specialized by type inference to
//! `RelError` at the executor's call sites) and keeps the
//! executor-specific tuning knobs ([`ExecOptions`]).

use crate::cost::PlannerChoice;

/// Rows per morsel (re-exported from the store-level engine).
pub use pgq_store::par::MORSEL_ROWS;

pub(crate) use pgq_store::par::{
    hash_codes, partition_count, run_morsels, run_morsels_traced, run_tasks, run_tasks_scratch,
    run_tasks_scratch_traced, run_tasks_traced,
};

/// Executor tuning knobs, threaded from the public entry points
/// ([`crate::execute_opts`], `eval_with_store`, the shell's
/// `SET THREADS n;`) down to every operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecOptions {
    /// Worker threads per parallel operator; `1` means sequential
    /// execution on the calling thread.
    pub threads: usize,
    /// Upper bound on semi-naive fixpoint iterations; `None` (the
    /// default) means unlimited. When a fixpoint would start iteration
    /// `limit + 1`, execution stops with
    /// [`pgq_relational::RelError::IterationLimit`] instead of looping
    /// silently on pathological inputs.
    pub max_fixpoint_iters: Option<usize>,
    /// Which estimator [`crate::lower_onto_store`] plans with (PR 10):
    /// [`PlannerChoice::Cost`] (the store's statistics — the default)
    /// or [`PlannerChoice::Rule`] (none: plans keep their syntactic
    /// shape — the escape hatch).
    /// `SET PLANNER {cost|rule};` in the shell/server.
    pub planner: PlannerChoice,
}

impl ExecOptions {
    /// Strictly sequential execution — the PR 4 behavior.
    pub fn sequential() -> Self {
        ExecOptions {
            threads: 1,
            max_fixpoint_iters: None,
            planner: PlannerChoice::default(),
        }
    }

    /// Execution on `threads` workers (`0` means [`ExecOptions::auto`]).
    pub fn with_threads(threads: usize) -> Self {
        if threads == 0 {
            ExecOptions::auto()
        } else {
            ExecOptions {
                threads,
                ..ExecOptions::sequential()
            }
        }
    }

    /// The same options with a fixpoint iteration budget (`None` for
    /// unlimited — the default).
    pub fn with_max_fixpoint_iters(self, limit: Option<usize>) -> Self {
        ExecOptions {
            max_fixpoint_iters: limit,
            ..self
        }
    }

    /// The same options with an explicit planning pass.
    pub fn with_planner(self, planner: PlannerChoice) -> Self {
        ExecOptions { planner, ..self }
    }

    /// The environment-driven default: `PGQ_THREADS` when set (CI runs
    /// the suite under `PGQ_THREADS=1` as well as the default),
    /// otherwise the machine's available parallelism, capped at 8 —
    /// the executor's operators stop scaling usefully beyond that on
    /// the workload sizes this stack targets.
    pub fn auto() -> Self {
        let threads = std::env::var("PGQ_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
                    .min(8)
            });
        ExecOptions {
            threads,
            max_fixpoint_iters: None,
            planner: PlannerChoice::default(),
        }
    }

    /// The degree of parallelism an operator over `rows` input rows
    /// actually gets: never more workers than morsels, never zero.
    pub fn dop(&self, rows: usize) -> usize {
        self.threads.min(rows.div_ceil(MORSEL_ROWS)).max(1)
    }
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions::auto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgq_relational::{RelError, RelResult};

    #[test]
    fn tasks_merge_in_order_at_every_thread_count() {
        for threads in [1, 2, 3, 8] {
            let out: Vec<usize> = run_tasks(10, threads, |i| RelResult::Ok(i * i)).unwrap();
            assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(run_tasks(0, 4, RelResult::Ok).unwrap().is_empty());
    }

    #[test]
    fn morsels_cover_the_input_exactly_once() {
        let len = 3 * MORSEL_ROWS + 17;
        for threads in [1, 2, 8] {
            let ranges = run_morsels(len, threads, RelResult::Ok).unwrap();
            let covered: usize = ranges.iter().map(|r| r.len()).sum();
            assert_eq!(covered, len);
            let mut expected_start = 0;
            for r in &ranges {
                assert_eq!(r.start, expected_start);
                expected_start = r.end;
            }
        }
    }

    #[test]
    fn first_error_in_task_order_wins() {
        let err = |i: usize| RelError::PositionOutOfRange {
            position: i,
            arity: 0,
        };
        for threads in [1, 2, 8] {
            let got = run_tasks(
                16,
                threads,
                |i| {
                    if i % 2 == 1 {
                        Err(err(i))
                    } else {
                        Ok(i)
                    }
                },
            );
            assert_eq!(got, Err(err(1)), "threads = {threads}");
        }
    }

    #[test]
    fn options_resolve_dop_from_input_size() {
        let opts = ExecOptions::with_threads(8);
        assert_eq!(opts.dop(0), 1);
        assert_eq!(opts.dop(1), 1);
        assert_eq!(opts.dop(MORSEL_ROWS + 1), 2);
        assert_eq!(opts.dop(100 * MORSEL_ROWS), 8);
        assert_eq!(ExecOptions::sequential().dop(100 * MORSEL_ROWS), 1);
        assert!(ExecOptions::with_threads(0).threads >= 1);
        assert!(ExecOptions::default().threads >= 1);
    }

    #[test]
    fn traced_tasks_report_every_claim_exactly_once() {
        for threads in [1, 2, 8] {
            let (out, claimed) = run_tasks_traced(10, threads, |i| RelResult::Ok(i * i)).unwrap();
            assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(claimed.iter().sum::<u64>(), 10, "threads = {threads}");
        }
        let len = 3 * MORSEL_ROWS + 17;
        let (ranges, claimed) = run_morsels_traced(len, 4, RelResult::Ok).unwrap();
        assert_eq!(ranges.iter().map(std::ops::Range::len).sum::<usize>(), len);
        assert_eq!(claimed.iter().sum::<u64>(), 4);
    }

    #[test]
    fn option_builders_preserve_the_other_knobs() {
        let opts = ExecOptions::with_threads(4)
            .with_max_fixpoint_iters(Some(7))
            .with_planner(PlannerChoice::Rule);
        assert_eq!(opts.threads, 4);
        assert_eq!(opts.max_fixpoint_iters, Some(7));
        assert_eq!(opts.planner, PlannerChoice::Rule);
        assert_eq!(ExecOptions::default().max_fixpoint_iters, None);
    }

    #[test]
    fn code_hash_is_deterministic_and_spreads() {
        assert_eq!(hash_codes(&[1, 2, 3]), hash_codes(&[1, 2, 3]));
        assert_ne!(hash_codes(&[1, 2, 3]), hash_codes(&[3, 2, 1]));
        assert!(partition_count(4).is_power_of_two());
        assert!(partition_count(3) >= 3);
    }
}
