//! Service-level admission policy shared by the live [`crate::QueryServer`]
//! and the simulated [`crate::ServerSim`] (paper §3.2).
//!
//! One clock-free state machine decides, for every submission, whether a
//! query starts now, queues with a deadline, or is rejected — Immediate
//! dispatches unconditionally, Relaxed waits for headroom but no longer than
//! the grace period, best-of-effort waits for a nearly-idle cluster bounded
//! by a starvation limit, and the fourth mode — [`AdmissionMode::Deadline`],
//! the per-query SLA of Bian et al.'s follow-up paper — admits iff the
//! target is feasible and orders queued work earliest-deadline-first. Both
//! drivers feed it their own notion of time (wall micros vs.
//! [`pixels_sim::SimTime`]) and load, and *execute* its verdicts themselves,
//! so sim and real schedule identically by construction.

use crate::service_level::ServiceLevel;
use pixels_obs::SloObjective;
use pixels_sim::SimDuration;
use pixels_turbo::QueryWork;
use std::time::Duration;

/// Pending-time objective for Immediate queries. Immediate work dispatches
/// unconditionally, so no scheduler knob bounds its wait — the objective is
/// the paper's "interactive" promise: negligible queueing, here one second.
pub const IMMEDIATE_SLO_US: u64 = 1_000_000;

/// SLO pseudo-level name for deadline-mode queries. Deadline targets are
/// per-query, so the tracker records *excess over target* against a
/// threshold of zero: a query is good iff it finished by its own deadline.
pub const DEADLINE_LEVEL: &str = "deadline";

/// How a submission asks to be scheduled: one of the paper's three fixed
/// service levels, or a per-query completion deadline (the follow-up
/// paper's flexible performance SLA).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdmissionMode {
    /// One of the three fixed tiers.
    Level(ServiceLevel),
    /// Finish within `target_us` of submission. Priced by
    /// [`pixels_common::prices::deadline_price_fraction`]; rejected at
    /// admission if the target is infeasible even on an idle cluster.
    Deadline { target_us: u64 },
}

impl AdmissionMode {
    /// Name used for journaling, SLO tracking, and metric labels.
    pub fn name(&self) -> &'static str {
        match self {
            AdmissionMode::Level(level) => level.name(),
            AdmissionMode::Deadline { .. } => DEADLINE_LEVEL,
        }
    }

    /// Whether cloud-function acceleration is enabled. Deadline queries pay
    /// for a latency promise, so like Immediate they may use CF bursts.
    pub fn cf_enabled(&self) -> bool {
        match self {
            AdmissionMode::Level(level) => level.cf_enabled(),
            AdmissionMode::Deadline { .. } => true,
        }
    }

    /// Fraction of the Immediate $/TB price this mode is billed at.
    pub fn price_fraction(&self) -> f64 {
        match self {
            AdmissionMode::Level(level) => level.price_fraction(),
            AdmissionMode::Deadline { target_us } => {
                pixels_common::prices::deadline_price_fraction(*target_us)
            }
        }
    }

    /// The execution estimate admission checks this mode against: a
    /// deadline query's [solo execution time](QueryWork::solo_exec_time),
    /// zero for a fixed level. Only a deadline calls `work` (which may plan
    /// the query); work that cannot be estimated estimates zero.
    pub fn exec_estimate_us(&self, work: impl FnOnce() -> Option<QueryWork>) -> u64 {
        match self {
            AdmissionMode::Deadline { .. } => work().map_or(0, |w| w.solo_exec_time().as_micros()),
            AdmissionMode::Level(_) => 0,
        }
    }

    /// The latency this mode's SLO objective bounds
    /// ([`SchedulerPolicy::slo_objectives`]): pending time for a fixed
    /// level; for a deadline query the excess of its completion latency
    /// over its own target (objective zero: good iff the deadline was met).
    pub fn slo_latency_us(&self, pending_us: u64, total_us: u64) -> u64 {
        match self {
            AdmissionMode::Level(_) => pending_us,
            AdmissionMode::Deadline { target_us } => total_us.saturating_sub(*target_us),
        }
    }
}

impl From<ServiceLevel> for AdmissionMode {
    fn from(level: ServiceLevel) -> Self {
        AdmissionMode::Level(level)
    }
}

/// Scheduler knobs, in virtual microseconds so both drivers share them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerPolicy {
    /// Relaxed grace period (paper example: 5 minutes): the hard bound on
    /// *server-side* pending time. At expiry the query force-starts even on
    /// an overloaded cluster.
    pub grace: SimDuration,
    /// Starvation bound for best-of-effort: "unbounded" in the paper's
    /// table, but a production scheduler still force-starts eventually so a
    /// never-idle cluster cannot hold a paid query forever.
    pub besteffort_max_wait: SimDuration,
}

impl Default for SchedulerPolicy {
    fn default() -> Self {
        SchedulerPolicy {
            grace: SimDuration::from_secs(300),
            besteffort_max_wait: SimDuration::from_secs(3600),
        }
    }
}

/// The driver's snapshot of cluster load at a decision point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadSignal {
    /// Concurrency at/above the scale-out watermark: no headroom for
    /// relaxed work.
    pub overloaded: bool,
    /// Concurrency below the scale-in watermark: capacity that would
    /// otherwise be wasted, i.e. where best-of-effort work belongs.
    pub nearly_idle: bool,
    /// Queued entries from the *submitting* tenant. Non-zero means the
    /// tenant already has work parked in the fair queue, so a fresh
    /// queue-eligible submission must queue behind it (no self-overtaking).
    /// [`crate::FairQueue::admit`] fills it in from the queue's own depths.
    pub tenant_depth: usize,
}

impl LoadSignal {
    /// A load signal with no queue-depth information: what a driver reads
    /// off its engine or capacity model.
    pub fn basic(overloaded: bool, nearly_idle: bool) -> LoadSignal {
        LoadSignal {
            overloaded,
            nearly_idle,
            tenant_depth: 0,
        }
    }
}

/// Admission verdict for a fresh submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Start executing now.
    DispatchNow,
    /// Hold in the server queue until the fair queue grants it, or until
    /// `deadline_us` (absolute, same clock as `now_us`), when it
    /// force-starts whatever the load.
    Queue { deadline_us: u64 },
    /// Refuse the submission. Only deadline-mode queries are rejected, and
    /// only for infeasibility: the target cannot be met even starting now.
    /// Rejected queries journal and count against SLO but never bill.
    Reject { reason: &'static str },
}

impl SchedulerPolicy {
    /// Latency objectives for the SLO tracker, derived from the *same*
    /// bounds admission enforces: Relaxed promises the grace period,
    /// best-of-effort the starvation bound. There is deliberately no second
    /// copy of these numbers — change a scheduler knob and the SLO threshold
    /// moves with it.
    pub fn slo_objectives(&self) -> Vec<SloObjective> {
        let levels = ServiceLevel::ALL.map(|level| {
            let bound_us = self.pending_bound_us(level.into(), 0);
            SloObjective::new(level.name(), bound_us.unwrap_or(IMMEDIATE_SLO_US))
        });
        // Deadline targets are per-query; the tracker records the latency
        // *excess over the query's own target*, so the shared threshold is
        // zero: good iff the deadline was met.
        let deadline = SloObjective::new(DEADLINE_LEVEL, 0);
        levels.into_iter().chain([deadline]).collect()
    }

    /// The longest a `mode` query may stay pending, the one place each
    /// mode's bound is written: none for Immediate (it starts now), the
    /// grace period for Relaxed, the starvation bound for best-of-effort,
    /// and for a deadline the slack `target − est_exec_us` — its latest
    /// feasible start, counted from submission.
    pub fn pending_bound_us(&self, mode: AdmissionMode, est_exec_us: u64) -> Option<u64> {
        match mode {
            AdmissionMode::Level(ServiceLevel::Immediate) => None,
            AdmissionMode::Level(ServiceLevel::Relaxed) => Some(self.grace.as_micros()),
            AdmissionMode::Level(ServiceLevel::BestEffort) => {
                Some(self.besteffort_max_wait.as_micros())
            }
            AdmissionMode::Deadline { target_us } => Some(target_us.saturating_sub(est_exec_us)),
        }
    }

    /// Decide a fresh submission at absolute time `now_us`. Immediate starts
    /// now regardless of load — CF acceleration (a placement concern, not an
    /// admission one) absorbs the overload. Every other mode dispatches on
    /// headroom and otherwise queues with its [pending
    /// bound](Self::pending_bound_us) as the force-start deadline, which
    /// makes deadline-queue ordering EDF by latest start. `Deadline` is also
    /// feasibility-gated: rejected iff the estimated execution time
    /// `est_exec_us` already exceeds the target (it cannot finish in time
    /// even starting now). Queue-eligible work whose tenant already has
    /// queued entries queues behind them (`load.tenant_depth > 0`):
    /// fairness forbids overtaking your own parked queries.
    pub fn admit(
        &self,
        mode: AdmissionMode,
        load: LoadSignal,
        now_us: u64,
        est_exec_us: u64,
    ) -> Admission {
        if matches!(mode, AdmissionMode::Deadline { target_us } if est_exec_us > target_us) {
            return Admission::Reject {
                reason: "infeasible deadline: target below estimated execution time",
            };
        }
        let Some(bound_us) = self.pending_bound_us(mode, est_exec_us) else {
            return Admission::DispatchNow;
        };
        if headroom(mode, load) && load.tenant_depth == 0 {
            Admission::DispatchNow
        } else {
            Admission::Queue {
                deadline_us: now_us + bound_us,
            }
        }
    }

    /// How long a dispatched `mode` query may still wait for an engine
    /// slot before it force-starts unslotted: its pending bound less the
    /// `waited` time it has already been pending, so the bound covers the
    /// engine's slot queue too. A `forced` start has spent its bound and
    /// gets zero; an Immediate query has no bound and waits for a slot.
    pub fn slot_wait_limit(
        &self,
        mode: AdmissionMode,
        est_exec_us: u64,
        waited: Duration,
        forced: bool,
    ) -> Option<Duration> {
        if forced {
            return Some(Duration::ZERO);
        }
        let bound_us = self.pending_bound_us(mode, est_exec_us)?;
        Some(Duration::from_micros(bound_us).saturating_sub(waited))
    }
}

/// Whether `load` leaves room to start a `mode` query without force.
/// Deadline work treats "not overloaded" as headroom, like Relaxed.
fn headroom(mode: AdmissionMode, load: LoadSignal) -> bool {
    match mode {
        AdmissionMode::Level(ServiceLevel::Immediate) => true,
        AdmissionMode::Level(ServiceLevel::Relaxed) | AdmissionMode::Deadline { .. } => {
            !load.overloaded
        }
        AdmissionMode::Level(ServiceLevel::BestEffort) => load.nearly_idle,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fair::{FairQueue, Request};

    const BUSY: LoadSignal = LoadSignal {
        overloaded: true,
        nearly_idle: false,
        tenant_depth: 0,
    };
    const IDLE: LoadSignal = LoadSignal {
        overloaded: false,
        nearly_idle: true,
        tenant_depth: 0,
    };
    const STEADY: LoadSignal = LoadSignal {
        overloaded: false,
        nearly_idle: false,
        tenant_depth: 0,
    };

    /// Admit a `mode` query through a fair queue at `queued_us` under
    /// `BUSY`, then poll it once under `load` at `now_us`: `Some(forced)`
    /// once it may start.
    fn poll_queued(
        p: &SchedulerPolicy,
        mode: AdmissionMode,
        queued_us: u64,
        load: LoadSignal,
        now_us: u64,
    ) -> Option<bool> {
        let mut fq = FairQueue::new();
        let request = Request {
            id: 1,
            tenant: "t",
            mode,
            est_exec_us: 4_000_000,
            batch_key: None,
        };
        let verdict = fq.admit(p, BUSY, queued_us, request);
        assert!(matches!(verdict, Admission::Queue { .. }), "{verdict:?}");
        fq.poll(load, now_us, 1).map(|g| g.forced)
    }

    #[test]
    fn immediate_always_dispatches() {
        let p = SchedulerPolicy::default();
        for load in [BUSY, IDLE, STEADY] {
            assert_eq!(
                p.admit(ServiceLevel::Immediate.into(), load, 7, 0),
                Admission::DispatchNow
            );
        }
    }

    #[test]
    fn relaxed_queues_under_overload_with_grace_deadline() {
        let p = SchedulerPolicy::default();
        assert_eq!(
            p.admit(ServiceLevel::Relaxed.into(), STEADY, 7, 0),
            Admission::DispatchNow
        );
        let Admission::Queue { deadline_us } =
            p.admit(ServiceLevel::Relaxed.into(), BUSY, 1_000, 0)
        else {
            panic!("overloaded relaxed must queue");
        };
        assert_eq!(deadline_us, 1_000 + 300_000_000);
        let relaxed = ServiceLevel::Relaxed.into();
        // Still overloaded one tick before the deadline: wait.
        assert_eq!(poll_queued(&p, relaxed, 1_000, BUSY, deadline_us - 1), None);
        // Exactly at the deadline: forced start, load notwithstanding.
        assert_eq!(
            poll_queued(&p, relaxed, 1_000, BUSY, deadline_us),
            Some(true)
        );
        // Headroom before the deadline wins without force.
        let early = poll_queued(&p, relaxed, 1_000, STEADY, deadline_us - 1);
        assert_eq!(early, Some(false));
    }

    #[test]
    fn slo_objectives_track_the_scheduler_bounds() {
        let default_policy = SchedulerPolicy::default();
        let find = |p: &SchedulerPolicy, level: &str| {
            p.slo_objectives()
                .into_iter()
                .find(|o| o.level == level)
                .unwrap()
                .threshold_us
        };
        assert_eq!(find(&default_policy, "immediate"), IMMEDIATE_SLO_US);
        assert_eq!(
            find(&default_policy, "relaxed"),
            default_policy.grace.as_micros()
        );
        assert_eq!(
            find(&default_policy, "best-of-effort"),
            default_policy.besteffort_max_wait.as_micros()
        );
        // The objective is derived, not copied: changing a scheduler bound
        // moves the SLO threshold with it.
        let tightened = SchedulerPolicy {
            grace: SimDuration::from_secs(30),
            besteffort_max_wait: SimDuration::from_secs(120),
        };
        assert_eq!(find(&tightened, "relaxed"), 30_000_000);
        assert_eq!(find(&tightened, "best-of-effort"), 120_000_000);
    }

    #[test]
    fn besteffort_waits_for_idle_but_is_starvation_bounded() {
        let p = SchedulerPolicy {
            besteffort_max_wait: SimDuration::from_secs(30),
            ..Default::default()
        };
        assert_eq!(
            p.admit(ServiceLevel::BestEffort.into(), IDLE, 0, 0),
            Admission::DispatchNow
        );
        // A steady (not overloaded, not idle) cluster still queues BE work.
        let Admission::Queue { deadline_us } =
            p.admit(ServiceLevel::BestEffort.into(), STEADY, 0, 0)
        else {
            panic!("non-idle cluster must queue best-of-effort");
        };
        assert_eq!(deadline_us, 30_000_000);
        let besteffort = ServiceLevel::BestEffort.into();
        assert_eq!(
            poll_queued(&p, besteffort, 0, STEADY, deadline_us - 1),
            None
        );
        assert_eq!(
            poll_queued(&p, besteffort, 0, BUSY, deadline_us),
            Some(true)
        );
        assert_eq!(poll_queued(&p, besteffort, 0, IDLE, 5), Some(false));
    }

    #[test]
    fn deadline_admission_is_feasibility_gated() {
        let p = SchedulerPolicy::default();
        let mode = AdmissionMode::Deadline {
            target_us: 10_000_000,
        };
        // Infeasible: estimated execution alone exceeds the target.
        assert!(matches!(
            p.admit(mode, IDLE, 0, 10_000_001),
            Admission::Reject { .. }
        ));
        // Feasible + headroom: dispatch now.
        assert_eq!(p.admit(mode, STEADY, 0, 4_000_000), Admission::DispatchNow);
        // Feasible + overloaded: queue with latest feasible start as deadline.
        assert_eq!(
            p.admit(mode, BUSY, 1_000, 4_000_000),
            Admission::Queue {
                deadline_us: 1_000 + 6_000_000
            }
        );
        // Queued deadline work force-starts at its latest feasible start.
        assert_eq!(poll_queued(&p, mode, 1_000, BUSY, 6_000_999), None);
        assert_eq!(poll_queued(&p, mode, 1_000, BUSY, 6_001_000), Some(true));
        assert_eq!(poll_queued(&p, mode, 1_000, STEADY, 5), Some(false));
    }

    #[test]
    fn each_modes_pending_bound_also_bounds_its_slot_wait() {
        let p = SchedulerPolicy {
            grace: SimDuration::from_secs(30),
            besteffort_max_wait: SimDuration::from_secs(120),
        };
        let deadline = AdmissionMode::Deadline {
            target_us: 10_000_000,
        };
        let bound = |mode| p.pending_bound_us(mode, 4_000_000);
        assert_eq!(bound(ServiceLevel::Immediate.into()), None);
        assert_eq!(bound(ServiceLevel::Relaxed.into()), Some(30_000_000));
        assert_eq!(bound(ServiceLevel::BestEffort.into()), Some(120_000_000));
        assert_eq!(bound(deadline), Some(6_000_000));
        // A dispatched query may wait for an engine slot for what is left of
        // its bound after the time it was pending: a best-of-effort query
        // too, for the rest of its starvation bound (it once waited without
        // limit), and an Immediate query still waits for a slot as long as
        // it takes.
        let waited = Duration::from_secs(2);
        let limit = |mode| p.slot_wait_limit(mode, 4_000_000, waited, false);
        let secs = |s: f64| Some(Duration::from_secs_f64(s));
        assert_eq!(limit(ServiceLevel::BestEffort.into()), secs(118.0));
        assert_eq!(limit(ServiceLevel::Relaxed.into()), secs(28.0));
        assert_eq!(limit(deadline), secs(4.0));
        assert_eq!(limit(ServiceLevel::Immediate.into()), None);
        // Waited past the bound: no slot wait at all.
        let late = Duration::from_secs(7);
        assert_eq!(
            p.slot_wait_limit(deadline, 4_000_000, late, false),
            secs(0.0)
        );
        // A forced start has spent its bound, whatever its mode.
        for mode in [ServiceLevel::BestEffort.into(), deadline] {
            let forced = p.slot_wait_limit(mode, 4_000_000, Duration::ZERO, true);
            assert_eq!(forced, secs(0.0));
        }
    }

    #[test]
    fn queued_tenant_work_prevents_self_overtaking() {
        let p = SchedulerPolicy::default();
        let parked = LoadSignal {
            overloaded: false,
            nearly_idle: true,
            tenant_depth: 2,
        };
        // Immediate still cuts through — its promise is unconditional.
        assert_eq!(
            p.admit(ServiceLevel::Immediate.into(), parked, 0, 0),
            Admission::DispatchNow
        );
        // Relaxed/BE/Deadline queue behind the tenant's parked entries.
        assert!(matches!(
            p.admit(ServiceLevel::Relaxed.into(), parked, 0, 0),
            Admission::Queue { .. }
        ));
        assert!(matches!(
            p.admit(ServiceLevel::BestEffort.into(), parked, 0, 0),
            Admission::Queue { .. }
        ));
        assert!(matches!(
            p.admit(
                AdmissionMode::Deadline {
                    target_us: 60_000_000
                },
                parked,
                0,
                1_000_000
            ),
            Admission::Queue { .. }
        ));
    }

    #[test]
    fn mode_names_prices_and_cf_flags() {
        assert_eq!(
            AdmissionMode::Level(ServiceLevel::Immediate).name(),
            "immediate"
        );
        let d = AdmissionMode::Deadline {
            target_us: 300_000_000,
        };
        assert_eq!(d.name(), "deadline");
        assert!(d.cf_enabled());
        assert!((d.price_fraction() - 0.2).abs() < 1e-12);
        assert!(!AdmissionMode::Level(ServiceLevel::Relaxed).cf_enabled());
        // The deadline SLO objective exists with a zero threshold.
        let obj = SchedulerPolicy::default()
            .slo_objectives()
            .into_iter()
            .find(|o| o.level == DEADLINE_LEVEL)
            .unwrap();
        assert_eq!(obj.threshold_us, 0);
    }
}
