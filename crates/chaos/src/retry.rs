//! Capped exponential backoff with decorrelated jitter.
//!
//! The schedule follows the "decorrelated jitter" recipe: each delay is
//! drawn uniformly from `[base, prev * 3]`, clamped to `cap`. Jitter is
//! seeded, so a given `(policy, seed)` pair always produces the same
//! schedule — which is what lets the simulator and the differential soak
//! reproduce retry timing bit-for-bit. Delays are expressed against the
//! `pixels-obs` [`Clock`], so the same policy blocks threads under
//! [`WallClock`](pixels_obs::WallClock) and advances virtual time instantly
//! under [`SimClock`](pixels_obs::SimClock).

use pixels_obs::Clock;

use crate::rng::ChaosRng;

/// Retry budget and backoff shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Minimum (and first) backoff delay.
    pub base_micros: u64,
    /// Ceiling on any single backoff delay.
    pub cap_micros: u64,
    /// Retries after the first attempt (so `max_retries = 3` means at most
    /// 4 attempts total).
    pub max_retries: u32,
}

impl RetryPolicy {
    /// Object-store defaults: 4 retries, 10 ms base, 2 s cap. At the paper's
    /// price point a handful of S3-style retries is noise next to the 15 ms
    /// per-request latency floor, while a 2 s cap keeps Immediate-level
    /// queries from stalling behind a single hot key.
    pub fn object_store() -> RetryPolicy {
        RetryPolicy {
            base_micros: 10_000,
            cap_micros: 2_000_000,
            max_retries: 4,
        }
    }

    /// The deterministic backoff schedule for one operation.
    pub fn schedule(&self, seed: u64) -> RetrySchedule {
        RetrySchedule {
            policy: *self,
            rng: ChaosRng::derive(seed, "retry_backoff"),
            prev_micros: 0,
            issued: 0,
        }
    }

    /// Run `op` under this policy, sleeping on `clock` between attempts.
    ///
    /// `retryable` decides which errors are transient; a non-retryable error
    /// (e.g. "object not found") fails immediately. Returns the successful
    /// value or the last error, along with attempt/backoff accounting.
    pub fn run<T, E>(
        &self,
        seed: u64,
        clock: &dyn Clock,
        retryable: impl Fn(&E) -> bool,
        mut op: impl FnMut() -> Result<T, E>,
    ) -> RetryOutcome<T, E> {
        let mut schedule = self.schedule(seed);
        let mut attempts = 0u32;
        let mut backoff_total = 0u64;
        loop {
            attempts += 1;
            match op() {
                Ok(v) => {
                    return RetryOutcome {
                        result: Ok(v),
                        attempts,
                        retries: attempts - 1,
                        backoff_micros: backoff_total,
                    }
                }
                Err(e) => {
                    let delay = if retryable(&e) { schedule.next() } else { None };
                    match delay {
                        Some(us) => {
                            clock.sleep_micros(us);
                            backoff_total += us;
                        }
                        None => {
                            return RetryOutcome {
                                result: Err(e),
                                attempts,
                                retries: attempts - 1,
                                backoff_micros: backoff_total,
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Iterator over backoff delays (microseconds); `None` once the retry
/// budget is spent.
#[derive(Debug, Clone)]
pub struct RetrySchedule {
    policy: RetryPolicy,
    rng: ChaosRng,
    prev_micros: u64,
    issued: u32,
}

impl RetrySchedule {
    /// The next backoff delay, or `None` if retries are exhausted.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<u64> {
        if self.issued >= self.policy.max_retries {
            return None;
        }
        self.issued += 1;
        let base = self.policy.base_micros;
        // Decorrelated jitter: uniform in [base, max(base, prev * 3)],
        // clamped to the cap.
        let hi = self.prev_micros.saturating_mul(3).max(base);
        let delay = self.rng.uniform_u64(base, hi).min(self.policy.cap_micros);
        self.prev_micros = delay.max(base);
        Some(delay)
    }

    /// Materialize the remaining schedule (for tests and reports).
    pub fn collect_all(mut self) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some(d) = self.next() {
            out.push(d);
        }
        out
    }
}

impl Iterator for RetrySchedule {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        RetrySchedule::next(self)
    }
}

/// What a retried operation did: the final result plus accounting for
/// metrics (`pixels_retries_total`) and per-query event reporting.
#[derive(Debug)]
pub struct RetryOutcome<T, E> {
    pub result: Result<T, E>,
    /// Attempts made, including the first.
    pub attempts: u32,
    /// Retries made (`attempts - 1`).
    pub retries: u32,
    /// Total backoff slept, in clock microseconds.
    pub backoff_micros: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixels_obs::{SimClock, WallClock};
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn schedule_is_deterministic_for_a_seed() {
        // Satellite: same seed → same schedule, under SimClock semantics
        // (pure virtual time, no wall-clock dependence).
        let policy = RetryPolicy::object_store();
        let a = policy.schedule(42).collect_all();
        let b = policy.schedule(42).collect_all();
        assert_eq!(a, b);
        assert_eq!(a.len(), policy.max_retries as usize);
        let c = policy.schedule(43).collect_all();
        assert_ne!(a, c, "different seeds should jitter differently");
    }

    #[test]
    fn delays_respect_base_and_cap() {
        let policy = RetryPolicy {
            base_micros: 1_000,
            cap_micros: 50_000,
            max_retries: 32,
        };
        for seed in 0..20 {
            for d in policy.schedule(seed) {
                assert!((1_000..=50_000).contains(&d), "{d}");
            }
        }
    }

    #[test]
    fn run_retries_until_success_on_sim_clock() {
        let policy = RetryPolicy::object_store();
        let clock = SimClock::new();
        let fails = AtomicU32::new(2);
        let out = policy.run(
            7,
            &clock,
            |_e: &&str| true,
            || {
                if fails.fetch_sub(1, Ordering::Relaxed) > 0 {
                    Err("transient")
                } else {
                    Ok(99)
                }
            },
        );
        assert_eq!(out.result.unwrap(), 99);
        assert_eq!(out.attempts, 3);
        assert_eq!(out.retries, 2);
        // SimClock absorbed exactly the scheduled backoff.
        assert_eq!(clock.now_micros(), out.backoff_micros);
        assert!(out.backoff_micros >= 2 * policy.base_micros);
    }

    #[test]
    fn run_gives_up_after_budget() {
        let policy = RetryPolicy {
            base_micros: 1,
            cap_micros: 10,
            max_retries: 3,
        };
        let clock = SimClock::new();
        let out: RetryOutcome<(), &str> =
            policy.run(1, &clock, |_| true, || Err("always transient"));
        assert!(out.result.is_err());
        assert_eq!(out.attempts, 4); // 1 initial + 3 retries
    }

    #[test]
    fn non_retryable_errors_fail_fast() {
        let policy = RetryPolicy::object_store();
        let clock = SimClock::new();
        let out: RetryOutcome<(), &str> = policy.run(1, &clock, |_| false, || Err("not found"));
        assert!(out.result.is_err());
        assert_eq!(out.attempts, 1);
        assert_eq!(out.backoff_micros, 0);
        assert_eq!(clock.now_micros(), 0, "fail-fast must not sleep");
    }

    #[test]
    fn sim_and_wall_schedules_match() {
        // The schedule is a pure function of (policy, seed); the clock only
        // decides how the delays are *served*.
        let policy = RetryPolicy {
            base_micros: 10,
            cap_micros: 100,
            max_retries: 3,
        };
        let sim_clock = SimClock::new();
        let wall_clock = WallClock::new();
        let run = |clock: &dyn Clock| {
            let tries = AtomicU32::new(0);
            policy.run(
                5,
                clock,
                |_e: &&str| true,
                || {
                    if tries.fetch_add(1, Ordering::Relaxed) < 3 {
                        Err("transient")
                    } else {
                        Ok(())
                    }
                },
            )
        };
        let sim = run(&sim_clock);
        let wall = run(&wall_clock);
        assert_eq!(sim.backoff_micros, wall.backoff_micros);
        assert_eq!(sim.attempts, wall.attempts);
    }
}
