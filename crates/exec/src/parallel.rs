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
//! The generic scheduling core lives in [`pgq_store::par`] so the
//! store's bulk-ingest path shares it; this module re-exports
//! [`pgq_store::par::run_morsels`] (specialized by type inference to
//! `RelError` at the executor's call sites) and keeps the executor-specific tuning knobs
//! ([`ExecOptions`]).

use crate::cost::PlannerChoice;

/// Rows per morsel (re-exported from the store-level engine).
pub use pgq_store::par::MORSEL_ROWS;

pub(crate) use pgq_store::par::run_morsels;

/// The most workers one operator ever gets, however the count was
/// asked for: the operators stop scaling usefully beyond it on the
/// workload sizes this stack targets, and every worker is one scoped
/// OS thread.
const MAX_THREADS: usize = 8;

/// Executor tuning knobs, threaded from the public entry points
/// ([`crate::execute_opts`], `eval_with_store`, the shell's
/// `SET THREADS n;`) down to every operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecOptions {
    /// Worker threads per parallel operator (at most 8 from every
    /// constructor); `1` means sequential execution on the calling
    /// thread.
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

    /// Execution on `threads` workers (`0` means [`ExecOptions::auto`]),
    /// at most 8.
    pub fn with_threads(threads: usize) -> Self {
        if threads == 0 {
            ExecOptions::auto()
        } else {
            ExecOptions {
                threads: threads.min(MAX_THREADS),
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
    /// otherwise the machine's available parallelism — either way at
    /// most 8, through [`ExecOptions::with_threads`].
    pub fn auto() -> Self {
        let threads = std::env::var("PGQ_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            });
        ExecOptions::with_threads(threads)
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

    /// Every worker is a scoped OS thread, so no request — an explicit
    /// count, `SET THREADS`, `PGQ_THREADS` — may ask for more than 8.
    #[test]
    fn worker_count_is_capped_at_eight() {
        assert_eq!(ExecOptions::with_threads(100_000).threads, 8);
        assert_eq!(ExecOptions::with_threads(3).threads, 3);
        assert!((1..=8).contains(&ExecOptions::auto().threads));
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
}
