//! The live server's admission step: the [`FairQueue`] behind a mutex, the
//! signal that a query left it, and the wall clock every `now_us` is read
//! from. A query thread calls [`AdmissionQueue::admit`] once and returns
//! when its query may start.

use crate::fair::{FairQueue, Request};
use crate::scheduler::{Admission, LoadSignal, SchedulerPolicy};
use parking_lot::{Condvar, Mutex};
use pixels_turbo::TurboEngine;
use std::time::{Duration, Instant};

/// How long a queued query waits between looks at the queue when nothing
/// signals it: the bound on noticing what no one announces — a deadline or
/// grace period running out, an engine slot coming free.
const QUEUE_RECHECK: Duration = Duration::from_millis(5);

/// The fair queue and the signal that a query left it, so the next in line
/// looks at once. A freed engine slot is deliberately *not* signalled: a
/// queued light query woken the instant the slot frees takes it a fraction
/// of a millisecond before the next immediate query arrives, which then finds
/// the engine busy and goes to CF — measured on `overload_mixed` as +36 %
/// provider dollars per query. Queued queries find a free slot at their
/// next [`QUEUE_RECHECK`], as they always have.
pub(crate) struct AdmissionQueue {
    pub(crate) fair: Mutex<FairQueue>,
    changed: Condvar,
    /// Server start: every `now_us` is micros since this instant, so queued
    /// deadlines and poll times share one origin, as the simulator's
    /// absolute virtual clock does.
    epoch: Instant,
}

impl AdmissionQueue {
    pub(crate) fn new() -> AdmissionQueue {
        AdmissionQueue {
            fair: Mutex::new(FairQueue::new()),
            changed: Condvar::new(),
            epoch: Instant::now(),
        }
    }

    /// Admit `r` on the wall clock with `engine`'s busyness as the load:
    /// the [`FairQueue::admit`] step, then, for a queued query, the wait
    /// until the queue grants it or its bound force-starts it. Returns how
    /// it was admitted, as the journal names it (`dispatch_now`, `queued`
    /// or `forced`), or the reason it was rejected.
    pub(crate) fn admit(
        &self,
        policy: &SchedulerPolicy,
        engine: &TurboEngine,
        r: Request,
    ) -> Result<&'static str, &'static str> {
        let load = || {
            let busy = engine.is_busy();
            LoadSignal::basic(busy, !busy)
        };
        let now_us = || self.epoch.elapsed().as_micros() as u64;
        let mut fair = self.fair.lock();
        match fair.admit(policy, load(), now_us(), r) {
            Admission::DispatchNow => Ok("dispatch_now"),
            Admission::Reject { reason } => Err(reason),
            Admission::Queue { .. } => {
                let grant = loop {
                    if let Some(grant) = fair.poll(load(), now_us(), r.id) {
                        break grant;
                    }
                    // Woken when a query leaves the queue; otherwise look
                    // again after `QUEUE_RECHECK`.
                    self.changed.wait_for(&mut fair, QUEUE_RECHECK);
                };
                drop(fair);
                // This query left the queue: the next in line may go.
                self.changed.notify_all();
                Ok(if grant.forced { "forced" } else { "queued" })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::api::tests::{engine, submission};
    use crate::tenant::TenantPolicy;
    use crate::{PriceSchedule, QueryServer, QueryStatus, SchedulerPolicy, ServiceLevel};
    use pixels_sim::SimDuration;
    use std::time::{Duration, Instant};

    /// A server over a one-slot engine whose relaxed grace period is `grace`.
    fn one_slot_server(grace: SimDuration) -> QueryServer {
        let policy = SchedulerPolicy {
            grace,
            ..Default::default()
        };
        QueryServer::new(engine(1), PriceSchedule::default()).with_scheduler(policy)
    }

    #[test]
    fn relaxed_grace_expiry_force_starts_on_the_live_engine() {
        let s = one_slot_server(SimDuration::from_millis(10));
        let engine = s.engine().clone();

        // Hold the only VM slot, then submit a relaxed query whose tiny grace
        // period expires while it is held: the scheduler must force-start it
        // unslotted rather than let it drift in the FIFO queue. The slot
        // comes back once the query is forced or done, or after 10 s, so a
        // query left queued fails the check below instead of hanging.
        let forced = engine
            .registry()
            .counter("pixels_turbo_forced_starts_total", "");
        let limit = Instant::now() + Duration::from_secs(10);
        let info = std::thread::scope(|scope| {
            let query = engine.hold_slots(|| {
                let query = scope.spawn(|| {
                    s.wait(s.submit(submission(
                        "SELECT COUNT(*) AS n FROM region",
                        ServiceLevel::Relaxed,
                    )))
                    .unwrap()
                });
                while forced.get() == 0 && !query.is_finished() && Instant::now() < limit {
                    std::thread::sleep(Duration::from_micros(50));
                }
                query
            });
            query.join().unwrap()
        });
        assert_eq!(info.status, QueryStatus::Finished, "{:?}", info.error);
        assert!(
            forced.get() >= 1,
            "grace expiry must force-start the query unslotted"
        );
        assert_eq!(s.journal().entries()[0].admission, "forced");
    }

    #[test]
    fn a_relaxed_query_queued_behind_a_held_slot_starts_unforced_once_it_frees() {
        let s = one_slot_server(SimDuration::from_secs(60));
        s.tenants().set_policy("acme", TenantPolicy::default());
        let engine = s.engine().clone();
        let forced = engine
            .registry()
            .counter("pixels_turbo_forced_starts_total", "");
        let queued = || {
            let json = s.tenants_json();
            let rows = json.get("tenants").unwrap().as_array().unwrap();
            let acme = rows
                .iter()
                .find(|r| r.get("tenant").unwrap().as_str() == Some("acme"));
            acme.unwrap().get("queued").unwrap().as_f64().unwrap()
        };

        // Hold the only VM slot until the relaxed query is parked in the
        // fair queue (or 10 s have passed), then give it back: the query
        // finds headroom at a later look, well inside its grace period.
        let limit = Instant::now() + Duration::from_secs(10);
        let id = engine.hold_slots(|| {
            let mut relaxed = submission("SELECT COUNT(*) AS n FROM region", ServiceLevel::Relaxed);
            relaxed.tenant = Some("acme".into());
            let id = s.submit(relaxed);
            while queued() == 0.0 && Instant::now() < limit {
                std::thread::sleep(Duration::from_micros(50));
            }
            id
        });
        let info = s.wait(id).unwrap();
        assert_eq!(info.status, QueryStatus::Finished, "{:?}", info.error);
        assert_eq!(forced.get(), 0, "a freed slot within grace is no force");
        let journal = s.journal().entries();
        assert_eq!(journal.len(), 1);
        assert_eq!(journal[0].admission, "queued");
        assert!(journal[0].slo_good, "pending well under the grace period");
    }
}
