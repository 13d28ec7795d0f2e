//! Morsel-driven parallel execution.
//!
//! A *morsel* is one unit of independent work: a row group of one file for
//! scans, or a single batch for per-batch operators. Workers are scoped
//! threads that claim morsel indices from a shared atomic counter — cheap
//! dynamic load balancing without a task queue — and results are reassembled
//! in morsel order, so output is identical regardless of how the OS
//! schedules the threads.
//!
//! With `parallelism <= 1` (or a single morsel) the work runs inline on the
//! caller's thread: exactly the serial path, with no threads spawned. That
//! is the determinism knob — `ExecContext { parallelism: 1, .. }` reproduces
//! the engine's historical single-threaded behaviour bit for bit.

use pixels_common::Result;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Split morsels of `rows` rows each into at most `parts` contiguous runs,
/// balanced by row count: a run closes once it holds a fair share of the
/// rows. The hash aggregate over materialized input partitions its batches
/// with this, and so does the scalar oracle's, so at equal parallelism both
/// merge float partial sums in the same structure.
pub(crate) fn partition_rows(rows: &[usize], parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, rows.len().max(1));
    let target = rows.iter().sum::<usize>().div_ceil(parts).max(1);
    let mut out = Vec::with_capacity(parts);
    let (mut start, mut current) = (0, 0);
    for (i, &r) in rows.iter().enumerate() {
        current += r;
        if current >= target && out.len() + 1 < parts {
            out.push(start..i + 1);
            (start, current) = (i + 1, 0);
        }
    }
    if start < rows.len() {
        out.push(start..rows.len());
    }
    out
}

/// Run `f(0..n)` on up to `parallelism` worker threads, returning results in
/// index order. The first error (by morsel index) aborts outstanding work
/// and is returned. Panics in workers propagate to the caller.
pub fn run_indexed<T, F>(n: usize, parallelism: usize, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    let workers = parallelism.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let mut indexed: Vec<(usize, Result<T>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        if failed.load(Ordering::Relaxed) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let r = f(i);
                        if r.is_err() {
                            failed.store(true, Ordering::Relaxed);
                        }
                        local.push((i, r));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    });

    // Morsel order, with the lowest-index error (deterministic) winning.
    indexed.sort_unstable_by_key(|(i, _)| *i);
    let mut out = Vec::with_capacity(n);
    for (_, r) in indexed {
        out.push(r?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixels_common::Error;

    #[test]
    fn preserves_order_at_any_parallelism() {
        for p in [1, 2, 4, 8, 32] {
            let out = run_indexed(100, p, |i| Ok(i * i)).unwrap();
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_input() {
        assert_eq!(run_indexed(0, 4, |_| Ok(0)).unwrap(), Vec::<i32>::new());
    }

    #[test]
    fn lowest_index_error_wins() {
        for p in [1, 4] {
            let err = run_indexed(50, p, |i| {
                if i >= 10 {
                    Err::<usize, _>(Error::Exec(format!("boom {i}")))
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
            // Workers past index 10 may or may not have run, but the error
            // reported is the earliest one that did — and index 10 always
            // runs before the abort flag can stop it on the serial path.
            let Error::Exec(msg) = err else {
                panic!("wrong error kind")
            };
            assert!(msg.starts_with("boom "), "{msg}");
        }
    }

    #[test]
    fn partitions_balance_rows_over_contiguous_morsels() {
        assert!(partition_rows(&[], 4).is_empty());
        // More parts than morsels: one morsel each.
        assert_eq!(partition_rows(&[5, 5], 8), vec![0..1, 1..2]);
        // One oversized morsel fills its run alone; the rest share the others.
        assert_eq!(partition_rows(&[1, 100, 1, 1], 3), vec![0..2, 2..4]);
        assert_eq!(partition_rows(&[100, 1, 1, 1], 3), vec![0..1, 1..4]);
        assert_eq!(partition_rows(&[3, 3, 3, 3], 2), vec![0..2, 2..4]);
        // No rows at all: one run.
        assert_eq!(partition_rows(&[0, 0, 0], 2), vec![0..3]);
    }

    #[test]
    fn worker_count_never_exceeds_items() {
        // 2 items with parallelism 16 must still complete and stay ordered.
        let out = run_indexed(2, 16, Ok).unwrap();
        assert_eq!(out, vec![0, 1]);
    }
}
