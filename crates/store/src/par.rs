//! The store-level morsel engine (DESIGN.md §5).
//!
//! The scheduling core lives here rather than in `pgq-exec` so the
//! store's own bulk paths (morsel-parallel dictionary interning) use
//! the identical engine without a dependency cycle — `pgq-exec`
//! depends on `pgq-store`, not the other way round.
//!
//! Inputs are split into fixed-size **morsels** (or explicit task
//! indices), workers claim them from an atomic counter under
//! `std::thread::scope`, and the scheduler reassembles outputs **in
//! task order** before anything downstream sees them. That
//! deterministic merge keeps parallel execution byte-identical to
//! sequential execution everywhere sequential execution is itself
//! deterministic. Errors cross the scope the same way results do: a
//! worker that hits an error stops claiming tasks and the first error
//! in task order is returned.
//!
//! There are two entry points: [`run_tasks`] over task indices, and
//! [`run_morsels`] over it for row ranges — the one the executor and
//! the dictionary's parallel interning call. Both optionally report how many tasks each
//! worker claimed.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Rows per morsel — small enough that short pipelines stay balanced,
/// large enough that the per-morsel scheduling cost disappears.
pub const MORSEL_ROWS: usize = 1024;

/// The morsel ranges covering `0..len` (empty for an empty input).
fn morsel_ranges(len: usize) -> Vec<Range<usize>> {
    (0..len.div_ceil(MORSEL_ROWS))
        .map(|i| i * MORSEL_ROWS..((i + 1) * MORSEL_ROWS).min(len))
        .collect()
}

/// Runs `work` over `count` independent task indices on up to
/// `threads` scoped workers and returns the outputs **in task order**
/// — the deterministic merge every parallel operator builds on. Runs
/// inline on the calling thread when one worker (or one task) suffices.
///
/// With `claimed`,
/// the vector is overwritten with how many tasks each worker slot
/// claimed: a *scheduling* fact that varies run to run, never a result.
///
/// The first error in task order wins; tasks left unclaimed because
/// every worker stopped on an error are simply dropped (an error is
/// returned in that case by construction, since workers only stop
/// early when they hit one).
pub fn run_tasks<T, E, F>(
    count: usize,
    threads: usize,
    work: F,
    claimed: Option<&mut Vec<u64>>,
) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let threads = threads.min(count).max(1);
    if threads == 1 {
        if let Some(c) = claimed {
            *c = vec![count as u64];
        }
        return (0..count).map(work).collect();
    }
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut mine: Vec<(usize, Result<T, E>)> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                break;
            }
            let out = work(i);
            let failed = out.is_err();
            mine.push((i, out));
            if failed {
                break;
            }
        }
        mine
    };
    let per_worker: Vec<Vec<(usize, Result<T, E>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(worker)).collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    if let Some(c) = claimed {
        *c = per_worker.iter().map(|v| v.len() as u64).collect();
    }
    let produced = per_worker.into_iter().flatten();
    let mut slots: Vec<Option<Result<T, E>>> = (0..count).map(|_| None).collect();
    for (i, r) in produced {
        slots[i] = Some(r);
    }
    let mut out = Vec::with_capacity(count);
    for slot in slots {
        match slot {
            Some(Ok(t)) => out.push(t),
            Some(Err(e)) => return Err(e),
            // Unclaimed ⇒ every worker stopped early on some error,
            // which a later (claimed) slot holds.
            None => {}
        }
    }
    Ok(out)
}

/// Splits `0..len` into fixed-size morsels, folds `work` over them on
/// up to `threads` workers, and returns the per-morsel outputs in
/// morsel order; `claimed` as in [`run_tasks`].
pub fn run_morsels<T, E, F>(
    len: usize,
    threads: usize,
    work: F,
    claimed: Option<&mut Vec<u64>>,
) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(Range<usize>) -> Result<T, E> + Sync,
{
    let morsels = morsel_ranges(len);
    run_tasks(
        morsels.len(),
        threads,
        |i| work(morsels[i].clone()),
        claimed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `run_tasks` without claim counts.
    fn tasks<T: Send, E: Send>(
        count: usize,
        threads: usize,
        work: impl Fn(usize) -> Result<T, E> + Sync,
    ) -> Result<Vec<T>, E> {
        run_tasks(count, threads, work, None)
    }

    #[test]
    fn tasks_merge_in_order_at_every_thread_count() {
        for threads in [1, 2, 3, 8] {
            let out = tasks::<_, ()>(10, threads, |i| Ok(i * i)).unwrap();
            assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(tasks::<_, ()>(0, 4, Ok).unwrap().is_empty());
    }

    #[test]
    fn morsels_cover_the_input_exactly_once() {
        let len = 3 * MORSEL_ROWS + 17;
        for threads in [1, 2, 8] {
            let ranges = run_morsels::<_, (), _>(len, threads, Ok, None).unwrap();
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
        for threads in [1, 2, 8] {
            let got = tasks::<_, usize>(16, threads, |i| if i % 2 == 1 { Err(i) } else { Ok(i) });
            assert_eq!(got, Err(1), "threads = {threads}");
        }
    }

    #[test]
    fn traced_tasks_report_every_claim_exactly_once() {
        for threads in [1, 2, 8] {
            let mut claimed = Vec::new();
            let out =
                run_tasks::<_, (), _>(10, threads, |i| Ok(i * i), Some(&mut claimed)).unwrap();
            assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(claimed.iter().sum::<u64>(), 10, "threads = {threads}");
        }
        let len = 3 * MORSEL_ROWS + 17;
        let mut claimed = Vec::new();
        let ranges = run_morsels::<_, (), _>(len, 4, Ok, Some(&mut claimed)).unwrap();
        assert_eq!(ranges.iter().map(std::ops::Range::len).sum::<usize>(), len);
        assert_eq!(claimed.iter().sum::<u64>(), 4);
    }
}
