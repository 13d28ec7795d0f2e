//! Morsel prefetching: keep several morsels' object-store reads in flight
//! ahead of the workers that decode them.
//!
//! [`run_prefetched`] splits each morsel into a *fetch* (I/O) and a *work*
//! (decode/filter) phase. `min(depth, morsels)` I/O loops claim morsel
//! indices in order and fetch them, never letting more than `depth` morsels
//! be fetched-or-fetching ahead of consumption: `depth` is at once the
//! read-ahead window, the memory bound (in morsels) and the number of
//! requests in flight, which is what hides a remote store's per-request
//! latency. Each I/O loop runs on a thread of its own borrowed from the
//! process-wide [`IoPool`], which keeps its threads between scans, so a
//! cold scan starts and joins no thread once the pool has grown to the
//! scans' concurrent loops. Workers claim morsel indices exactly like
//! [`crate::parallel::run_indexed`] and block only while their morsel's
//! fetch has not completed.
//!
//! What callers rely on, and what they do not:
//!
//! - **Results, not request order.** Output is in morsel order and a fetch
//!   hands its morsel exactly the bytes a synchronous read would, so rows,
//!   billed bytes and bills do not depend on `depth`. The *order in which
//!   GETs reach the store* does: fetches start in morsel order but overlap
//!   and finish in any order. The fault injector draws each storage verdict
//!   from the request itself (path, byte range, attempt), so a seeded plan
//!   fails the same requests whichever thread issues them and in whatever
//!   order.
//! - **Error semantics.** A fetch error surfaces at its morsel index when a
//!   worker consumes the slot, so the lowest-index error still wins, exactly
//!   as on the synchronous path. Morsels fetched but never consumed after an
//!   abort are counted as `wasted`.
//! - **Panics.** A fetch that panics on an I/O thread leaves its payload in
//!   the morsel's slot, and the worker that takes the slot resumes the
//!   unwind, so the panic reaches the caller as a worker panic does in
//!   [`run_indexed`]. While a worker unwinds, the I/O loops are stopped, so
//!   the pool's scope still ends: it returns only once every loop has.

use parking_lot::{Condvar, Mutex};
use pixels_common::Result;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::io_pool::IoPool;
use crate::parallel::run_indexed;

/// What the prefetcher did during one [`run_prefetched`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Fetches started by the I/O threads.
    pub issued: u64,
    /// Morsels already resident when their worker asked for them.
    pub hits: u64,
    /// Fetched morsels never consumed (only possible after an abort).
    pub wasted: u64,
}

enum Slot<T> {
    Pending,
    /// The fetch's result, or the payload of its panic.
    Ready(std::thread::Result<Result<T>>),
    Taken,
}

struct State<T> {
    slots: Vec<Slot<T>>,
    /// Next morsel an I/O thread will claim; everything below is claimed.
    next: usize,
    /// Claimed-but-not-taken morsels (fetching or ready); I/O threads stall
    /// at `depth`.
    ahead: usize,
    /// Morsels found fetched on their worker's first ask.
    hits: u64,
    stop: bool,
}

/// Run `work(i, fetch(i)?, wait_us)` for every `i in 0..n` with results in
/// index order, fetching up to `depth` morsels ahead of the workers on as
/// many I/O threads. `wait_us` is how long the worker waited for morsel
/// `i`'s fetch (0 when it was ready). With `depth == 0` (or nothing to
/// pipeline) the phases run fused on the worker threads — the synchronous
/// path.
pub fn run_prefetched<T, R, Fetch, Work>(
    n: usize,
    parallelism: usize,
    depth: usize,
    fetch: Fetch,
    work: Work,
) -> (Result<Vec<R>>, PrefetchStats)
where
    T: Send,
    R: Send,
    Fetch: Fn(usize) -> Result<T> + Sync,
    Work: Fn(usize, T, u64) -> Result<R> + Sync,
{
    if depth == 0 || n <= 1 {
        let result = run_indexed(n, parallelism, |i| work(i, fetch(i)?, 0));
        return (result, PrefetchStats::default());
    }

    let state = Mutex::new(State {
        slots: (0..n).map(|_| Slot::Pending).collect(),
        next: 0,
        ahead: 0,
        hits: 0,
        stop: false,
    });
    // I/O threads wait for room in the window, workers for their morsel:
    // apart, so a fetch landing wakes the few workers and not every idle I/O
    // thread, and a morsel taken frees room for exactly one fetch.
    let (room, landed) = (Condvar::new(), Condvar::new());

    let io_loop = || loop {
        let i = {
            let mut st = state.lock();
            while st.ahead >= depth && st.next < n && !st.stop {
                room.wait(&mut st);
            }
            if st.stop || st.next >= n {
                return;
            }
            st.next += 1;
            st.ahead += 1;
            st.next - 1
        };
        let fetched = catch_unwind(AssertUnwindSafe(|| fetch(i)));
        state.lock().slots[i] = Slot::Ready(fetched);
        landed.notify_all();
    };

    let result = IoPool::global().scope(|s| {
        for _ in 0..depth.min(n) {
            s.spawn(io_loop);
        }

        // Stops the I/O threads on return and while a worker's panic unwinds.
        let _stop = Stop {
            state: &state,
            room: &room,
        };
        run_indexed(n, parallelism, |i| {
            let (fetched, wait_us) = {
                let mut st = state.lock();
                let mut waiting: Option<Instant> = None;
                loop {
                    match std::mem::replace(&mut st.slots[i], Slot::Taken) {
                        Slot::Ready(r) => {
                            if waiting.is_none() {
                                st.hits += 1;
                            }
                            st.ahead -= 1;
                            room.notify_one();
                            let waited = waiting.map_or(0, |t| t.elapsed().as_micros() as u64);
                            break (r, waited);
                        }
                        Slot::Pending => {
                            st.slots[i] = Slot::Pending;
                            waiting.get_or_insert_with(Instant::now);
                            landed.wait(&mut st);
                        }
                        Slot::Taken => unreachable!("morsel {i} consumed twice"),
                    }
                }
            };
            let fetched = fetched.unwrap_or_else(|panic| resume_unwind(panic));
            work(i, fetched?, wait_us)
        })
    });

    let state = state.into_inner();
    let wasted = (state.slots.iter())
        .filter(|s| matches!(s, Slot::Ready(_)))
        .count() as u64;
    let stats = PrefetchStats {
        // Every claimed morsel was fetched.
        issued: state.next as u64,
        hits: state.hits,
        wasted,
    };
    (result, stats)
}

/// Sets `stop` and wakes every I/O thread when dropped.
struct Stop<'a, T> {
    state: &'a Mutex<State<T>>,
    room: &'a Condvar,
}

impl<T> Drop for Stop<'_, T> {
    fn drop(&mut self) {
        self.state.lock().stop = true;
        self.room.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixels_common::Error;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn pass(_: usize, v: usize, _: u64) -> Result<usize> {
        Ok(v)
    }

    #[test]
    fn preserves_order_and_results() {
        for p in [1, 2, 4] {
            for depth in [0, 1, 2, 8] {
                let (result, _) =
                    run_prefetched(25, p, depth, Ok, |i, v: usize, _| Ok(i * 100 + v));
                let out = result.unwrap();
                assert_eq!(out, (0..25).map(|i| i * 101).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn fetches_start_in_morsel_order_within_the_window() {
        // I/O threads claim indices in order under the window. So when fetch
        // `i` starts, every earlier fetch has been claimed and all but at
        // most `depth - 1` of them (one per other I/O thread) have started;
        // and no fetch starts more than `depth` morsels past what the
        // workers have taken. `done` counts finished work, which trails
        // "taken" by at most one morsel per worker. With one worker, which
        // takes morsels strictly in order, a late starter also holds the
        // window shut: at most `depth - 1` later fetches can overtake it.
        for (p, depth) in [(1, 1), (1, 2), (4, 2), (1, 4), (4, 4)] {
            let n = 40;
            let order = Mutex::new(Vec::new());
            let done = AtomicUsize::new(0);
            let (result, stats) = run_prefetched(
                n,
                p,
                depth,
                |i| {
                    let done = done.load(Ordering::SeqCst);
                    assert!(
                        i < done + p + depth,
                        "fetch {i} started with only {done} morsels done (p {p}, depth {depth})"
                    );
                    order.lock().push(i);
                    Ok(i)
                },
                |_, v: usize, _| {
                    done.fetch_add(1, Ordering::SeqCst);
                    Ok(v)
                },
            );
            assert_eq!(result.unwrap(), (0..n).collect::<Vec<_>>());
            let order = order.into_inner();
            for (pos, &i) in order.iter().enumerate() {
                assert!(
                    pos + depth > i && (p > 1 || pos < i + depth),
                    "fetch {i} started {pos}th (p {p}, depth {depth}): {order:?}"
                );
            }
            assert_eq!(stats.issued, n as u64);
            assert_eq!(stats.wasted, 0);
        }
    }

    #[test]
    fn slow_fetches_overlap_up_to_depth() {
        // A fetch that takes time (a remote GET) must not be waited for
        // alone: several are in flight at once, never more than `depth`.
        // The worker that finds its morsel still in flight says how long it
        // waited.
        let depth = 4;
        let in_flight = AtomicUsize::new(0);
        let max_in_flight = AtomicUsize::new(0);
        let waited = AtomicUsize::new(0);
        let (result, _) = run_prefetched(
            24,
            1,
            depth,
            |i| {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                max_in_flight.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(10));
                in_flight.fetch_sub(1, Ordering::SeqCst);
                Ok(i)
            },
            |_, v: usize, wait_us| {
                waited.fetch_add(wait_us as usize, Ordering::SeqCst);
                Ok(v)
            },
        );
        result.unwrap();
        let max = max_in_flight.into_inner();
        assert!((2..=depth).contains(&max), "max in flight {max}");
        // Morsel 0 alone keeps its worker waiting for a whole fetch.
        assert!(waited.into_inner() >= 10_000);
    }

    #[test]
    fn depth_bounds_readahead() {
        // With slow consumers the I/O threads may never run more than
        // `depth` fetches ahead of what has been consumed.
        let depth = 2;
        let consumed = AtomicUsize::new(0);
        let (result, _) = run_prefetched(
            30,
            1,
            depth,
            |i| {
                let c = consumed.load(Ordering::SeqCst);
                assert!(
                    i <= c + depth,
                    "fetch {i} ran more than {depth} ahead of consumption {c}"
                );
                Ok(i)
            },
            |i, v: usize, _| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                consumed.store(i + 1, Ordering::SeqCst);
                Ok(v)
            },
        );
        result.unwrap();
    }

    #[test]
    fn fetch_error_surfaces_at_its_index() {
        for depth in [0, 2] {
            let (result, _) = run_prefetched(
                10,
                2,
                depth,
                |i| {
                    if i == 3 {
                        Err(Error::Exec("fetch boom".into()))
                    } else {
                        Ok(i)
                    }
                },
                pass,
            );
            let err = result.unwrap_err();
            assert!(err.to_string().contains("fetch boom"), "{err}");
        }
    }

    #[test]
    fn work_error_aborts_and_counts_waste() {
        let (result, stats) = run_prefetched(50, 1, 4, Ok, |i, v: usize, _| {
            if i == 0 {
                Err(Error::Exec("work boom".into()))
            } else {
                Ok(v)
            }
        });
        assert!(result.is_err());
        // Anything fetched beyond morsel 0 was never consumed.
        assert_eq!(stats.issued - stats.wasted, 1);
    }

    #[test]
    fn hits_count_overlap() {
        // Slow workers + eager fetches: every morsel after the first should
        // already be resident when asked for.
        let (result, stats) = run_prefetched(10, 1, 2, Ok, |_, v: usize, _| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            Ok(v)
        });
        result.unwrap();
        assert!(stats.hits >= 5, "expected mostly hits, got {stats:?}");
        assert_eq!(stats.issued, 10);
    }

    #[test]
    fn fetch_panic_reaches_the_caller() {
        // A fetch panics on an I/O thread: the worker that takes its morsel
        // re-raises it, the other I/O threads stop, and the call unwinds
        // instead of leaving a worker waiting for a morsel that never lands.
        let (tx, rx) = std::sync::mpsc::channel();
        let caller = std::thread::spawn(move || {
            let call = catch_unwind(|| {
                run_prefetched(
                    8,
                    2,
                    4,
                    |i| {
                        assert_ne!(i, 3, "fetch boom");
                        Ok(i)
                    },
                    pass,
                )
            });
            tx.send(call.is_err()).unwrap();
        });
        let panicked = rx.recv_timeout(std::time::Duration::from_secs(10));
        assert_eq!(
            panicked,
            Ok(true),
            "the fetch's panic must reach the caller"
        );
        caller.join().expect("the calling thread caught the panic");
    }

    #[test]
    fn empty_and_single() {
        let (result, stats) = run_prefetched(0, 4, 2, Ok, pass);
        assert!(result.unwrap().is_empty());
        assert_eq!(stats, PrefetchStats::default());
        let (result, _) = run_prefetched(1, 4, 2, Ok, |_, v: usize, _| Ok(v * 7));
        assert_eq!(result.unwrap(), vec![0]);
    }
}
