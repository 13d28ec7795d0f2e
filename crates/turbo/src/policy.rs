//! The clock-abstracted scheduling & recovery policy core (paper §3.1).
//!
//! Every CF-vs-VM recovery decision — crash relaunch, speculative-duplicate
//! racing on straggler deadlines, CF→VM degradation — lives in this module
//! and nowhere else. Both drivers consume it:
//!
//! * the **sim coordinator** ([`crate::coordinator::Coordinator`]) runs it on
//!   the virtual clock with modelled effects (CF fleets are `CfRun` records),
//! * the **real engine** ([`crate::engine::TurboEngine`]) runs it on the wall
//!   clock with real effects (CF fleets are threads doing actual I/O).
//!
//! The drivers differ only in *detection* (the sim arms a modelled watchdog;
//! the engine waits on a channel with a timeout) and in *effects* (the
//! [`CfEffects`] handler). The *reaction* — what to do when an attempt
//! finishes, fails, or overruns its deadline — is [`CfRace::step`], and both
//! drivers therefore produce bit-identical [`Decision`] sequences for the
//! same workload and fault plan. That parity is enforced by
//! `tests/policy_parity.rs` and the CI `policy_parity` job.
//!
//! The module also owns the shared resource-cost model ([`CfCostModel`]) and
//! fault-decision rule ([`decide_launch_faults`]) so the two drivers model
//! attempt durations, provider costs, and injected faults identically.

use crate::billing::ResourcePricing;
use crate::cf_service::{CfConfig, LaunchFaults};
use crate::model::QueryWork;
use pixels_chaos::{FaultInjector, FaultSite, Inject};
use pixels_sim::{SimDuration, SimTime};

/// Most fleets a single query may launch (first + one relaunch OR one
/// speculative duplicate) before the policy degrades it to the VM tier.
pub const MAX_CF_ATTEMPTS: u32 = 2;

/// The real engine declares a CF fleet a straggler once it has run this many
/// times the resource model's estimate. Wall-clock estimates on small data
/// are noisy, hence the wide factor and the floor below.
pub const ENGINE_STRAGGLER_FACTOR: f64 = 4.0;

/// Floor on the real engine's straggler deadline, so estimate noise on tiny
/// queries never triggers spurious speculation.
pub const ENGINE_STRAGGLER_MIN_WAIT: SimDuration = SimDuration::from_millis(250);

/// The simulated coordinator's straggler factor. It differs from the
/// engine's on purpose: modelled fleets finish exactly on the estimate unless
/// a fault is injected, so a tight factor and no floor detect every injected
/// straggler without false positives.
pub const SIM_STRAGGLER_FACTOR: f64 = 2.0;

/// One scheduling/recovery decision the policy made for a query. The ordered
/// decision log is the unit of sim/real differential comparison, so it
/// deliberately carries no clock values — only *what* was decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Execute (or re-execute, after degradation) on the VM tier.
    DispatchVm,
    /// Launch CF fleet `attempt` (0 = the initial fleet).
    DispatchCf { attempt: u32 },
    /// Fleet `attempt` crashed / failed without a result.
    AttemptFailed { attempt: u32 },
    /// All live fleets failed; relaunching as fleet `attempt`.
    Relaunch { attempt: u32 },
    /// The straggler deadline expired; racing a duplicate fleet `attempt`.
    StragglerSpeculate { attempt: u32 },
    /// Fleet `attempt` delivered the first result and wins the race.
    Accept { attempt: u32 },
    /// Out of CF attempts; falling back to the VM tier.
    Degrade,
}

/// What a driver observed about an in-flight CF race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceInput {
    /// Fleet `attempt` came back, successfully or not.
    AttemptFinished { attempt: u32, failed: bool },
    /// The straggler deadline for the race expired with no result yet.
    StragglerDeadline,
}

/// Driver-side effect handler: how decisions turn into actions. The sim
/// launches modelled fleets; the engine spawns executor threads.
pub trait CfEffects {
    /// Launch CF fleet `attempt` for the query.
    fn launch(&mut self, attempt: u32);
    /// Cancel every fleet except `winner` (losers stay billed).
    fn cancel_losers(&mut self, winner: u32);
    /// Hand the query to the VM tier.
    fn degrade_to_vm(&mut self);
}

/// Deterministic state machine for one query's CF attempt race. Drivers feed
/// it [`RaceInput`]s; it emits [`Decision`]s and invokes [`CfEffects`].
#[derive(Debug)]
pub struct CfRace {
    launched: u32,
    failed: u32,
    speculated: bool,
    finished: bool,
    /// Ordered log of every decision made for this query.
    pub decisions: Vec<Decision>,
}

impl CfRace {
    /// Start the race: launches fleet 0 immediately.
    pub fn start(effects: &mut dyn CfEffects) -> CfRace {
        let mut race = CfRace {
            launched: 0,
            failed: 0,
            speculated: false,
            finished: false,
            decisions: Vec::new(),
        };
        race.decisions.push(Decision::DispatchCf { attempt: 0 });
        race.launched = 1;
        effects.launch(0);
        race
    }

    pub fn is_finished(&self) -> bool {
        self.finished
    }

    pub fn speculated(&self) -> bool {
        self.speculated
    }

    /// Fleets launched so far (initial + relaunches + duplicates).
    pub fn attempts(&self) -> u32 {
        self.launched
    }

    /// Fleets still in flight from the policy's point of view.
    pub fn outstanding(&self) -> u32 {
        self.launched - self.failed
    }

    /// Advance the race on one observation. Returns the decisions newly made
    /// (they are also appended to [`CfRace::decisions`]).
    pub fn step(&mut self, input: RaceInput, effects: &mut dyn CfEffects) -> Vec<Decision> {
        let before = self.decisions.len();
        if !self.finished {
            match input {
                RaceInput::AttemptFinished {
                    attempt,
                    failed: false,
                } => {
                    self.decisions.push(Decision::Accept { attempt });
                    if self.launched > 1 {
                        effects.cancel_losers(attempt);
                    }
                    self.finished = true;
                }
                RaceInput::AttemptFinished {
                    attempt,
                    failed: true,
                } => {
                    self.decisions.push(Decision::AttemptFailed { attempt });
                    self.failed += 1;
                    // A sibling (speculative duplicate) may still be flying;
                    // only react once every launched fleet has failed.
                    if self.failed == self.launched {
                        if self.launched < MAX_CF_ATTEMPTS {
                            let next = self.launched;
                            self.decisions.push(Decision::Relaunch { attempt: next });
                            self.launched += 1;
                            effects.launch(next);
                        } else {
                            self.decisions.push(Decision::Degrade);
                            self.finished = true;
                            effects.degrade_to_vm();
                        }
                    }
                }
                RaceInput::StragglerDeadline => {
                    if !self.speculated && self.launched < MAX_CF_ATTEMPTS {
                        let next = self.launched;
                        self.speculated = true;
                        self.decisions
                            .push(Decision::StragglerSpeculate { attempt: next });
                        self.launched += 1;
                        effects.launch(next);
                    }
                }
            }
        }
        self.decisions[before..].to_vec()
    }
}

/// The straggler deadline: `factor` times the model's estimate, floored (the
/// real engine floors at [`ENGINE_STRAGGLER_MIN_WAIT`] so tiny queries don't
/// speculate on scheduler jitter; the sim uses a zero floor).
pub fn straggler_deadline(estimate: SimDuration, factor: f64, floor: SimDuration) -> SimDuration {
    std::cmp::max(estimate.mul_f64(factor), floor)
}

/// Modelled-clock watchdog arming rule: given the deadline window and the
/// fleet's modelled finish time, return the absolute due time if the fleet
/// will overshoot (the sim schedules a wake-up; a fleet that finishes within
/// the window never arms the watchdog).
pub fn watchdog_due(
    now: SimTime,
    deadline: SimDuration,
    modelled_finish: SimTime,
) -> Option<SimTime> {
    let due = now + deadline;
    (modelled_finish > due).then_some(due)
}

/// Ask the injector what goes wrong with one fleet launch. Faults are decided
/// *at launch* — before any fleet runs — so a seeded plan produces the same
/// fault sequence no matter how driver ticks or threads interleave. Both
/// drivers call this with the same model-derived `startup`/`nominal`, giving
/// identical [`LaunchFaults`] for the same plan.
pub fn decide_launch_faults(
    injector: &FaultInjector,
    startup: SimDuration,
    nominal: SimDuration,
) -> LaunchFaults {
    let mut faults = LaunchFaults::default();
    match injector.decide(FaultSite::CfColdStartStorm) {
        Inject::Delay { micros } => faults.extra_startup = SimDuration::from_micros(micros),
        // An un-parameterized storm verdict: startup takes 10× nominal.
        Inject::Error => faults.extra_startup = SimDuration::from_micros(startup.as_micros() * 10),
        Inject::None => {}
    }
    match injector.decide(FaultSite::CfStraggler) {
        Inject::Delay { micros } => faults.straggle = SimDuration::from_micros(micros),
        // An un-parameterized straggler verdict: the run takes twice as long.
        Inject::Error => faults.straggle = nominal,
        Inject::None => {}
    }
    if matches!(injector.decide(FaultSite::CfCrash), Inject::Error) {
        faults.crash = true;
    }
    faults
}

/// Shared CF fleet duration/cost model. `CfService` (sim) prices its modelled
/// fleets through this, and the real engine prices its thread-fleet attempts
/// through the *same* instance — so per-attempt provider costs agree bit for
/// bit between sim and real for identical work.
#[derive(Debug, Clone, Copy)]
pub struct CfCostModel {
    pricing: ResourcePricing,
    startup: SimDuration,
    overhead_factor: f64,
    max_workers: u32,
}

impl CfCostModel {
    /// Minimum useful runtime per CF worker for [`Self::sized_work`]: below
    /// this, the ~800 ms fleet startup dominates and extra workers only add
    /// cost.
    pub const MIN_WORKER_SECONDS: f64 = 0.5;

    pub fn new(cfg: &CfConfig, pricing: ResourcePricing) -> CfCostModel {
        CfCostModel {
            pricing,
            startup: cfg.startup,
            overhead_factor: cfg.overhead_factor,
            max_workers: cfg.max_workers_per_query,
        }
    }

    pub fn startup(&self) -> SimDuration {
        self.startup
    }

    /// Fleet size for `work` (parallelism capped by the service).
    pub fn workers(&self, work: &QueryWork) -> u32 {
        work.parallelism.clamp(1, self.max_workers)
    }

    /// Fault-free runtime estimate (excluding startup) — also the baseline
    /// straggler detectors compare elapsed time against.
    pub fn nominal_runtime(&self, work: &QueryWork) -> SimDuration {
        let workers = self.workers(work);
        // Each worker provides `cf_efficiency` of a reference core.
        let effective_cores = workers as f64 * self.pricing.cf_efficiency;
        SimDuration::from_secs_f64(work.cpu_seconds * self.overhead_factor / effective_cores)
    }

    /// Wall/sim duration of one fleet attempt under `faults`: full startup +
    /// run, or half the run if the fleet crashes midway.
    pub fn attempt_duration(&self, work: &QueryWork, faults: &LaunchFaults) -> SimDuration {
        let run_time = self.nominal_runtime(work) + faults.straggle;
        let startup = self.startup + faults.extra_startup;
        if faults.crash {
            // The fleet dies halfway through execution.
            startup + SimDuration::from_micros(run_time.as_micros() / 2)
        } else {
            startup + run_time
        }
    }

    /// Provider cost of one fleet attempt. Charged in full at launch: crashed
    /// and cancelled fleets stay billed (the provider-side half of the
    /// paper's "both invocations billed" speculation semantics).
    pub fn attempt_cost(&self, work: &QueryWork, faults: &LaunchFaults) -> f64 {
        let run_time = self.nominal_runtime(work) + faults.straggle;
        let startup = self.startup + faults.extra_startup;
        self.pricing.cf_cost(self.workers(work), startup + run_time)
    }

    /// Right-size a query's CF fleet from its estimated work: never launch a
    /// worker that the query cannot keep busy for at least
    /// [`Self::MIN_WORKER_SECONDS`] — startup-dominated fleets waste money
    /// without helping latency. The fleet only ever shrinks (`parallelism`
    /// stays the cap) so a wrong estimate changes worker count (speed and
    /// provider cost) but never results or user bills; the rule is a
    /// fixpoint, so sizing already-sized work is a no-op.
    pub fn sized_work(&self, work: &QueryWork) -> QueryWork {
        let full = self.workers(work);
        if full <= 1 {
            return *work;
        }
        let eff = self.pricing.cf_efficiency;
        let need = (work.cpu_seconds * self.overhead_factor / (eff * Self::MIN_WORKER_SECONDS))
            .ceil() as u32;
        QueryWork {
            parallelism: need.clamp(1, full),
            ..*work
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recording effect handler for state-machine tests.
    #[derive(Default)]
    struct Recorder {
        launched: Vec<u32>,
        cancelled_keeping: Vec<u32>,
        degraded: bool,
    }

    impl CfEffects for Recorder {
        fn launch(&mut self, attempt: u32) {
            self.launched.push(attempt);
        }
        fn cancel_losers(&mut self, winner: u32) {
            self.cancelled_keeping.push(winner);
        }
        fn degrade_to_vm(&mut self) {
            self.degraded = true;
        }
    }

    fn finished(attempt: u32, failed: bool) -> RaceInput {
        RaceInput::AttemptFinished { attempt, failed }
    }

    #[test]
    fn clean_run_accepts_first_attempt() {
        let mut fx = Recorder::default();
        let mut race = CfRace::start(&mut fx);
        race.step(finished(0, false), &mut fx);
        assert_eq!(
            race.decisions,
            vec![
                Decision::DispatchCf { attempt: 0 },
                Decision::Accept { attempt: 0 }
            ]
        );
        assert!(race.is_finished());
        assert_eq!(fx.launched, vec![0]);
        assert!(fx.cancelled_keeping.is_empty(), "no losers to cancel");
        assert!(!fx.degraded);
    }

    #[test]
    fn crash_once_relaunches_then_accepts() {
        let mut fx = Recorder::default();
        let mut race = CfRace::start(&mut fx);
        race.step(finished(0, true), &mut fx);
        race.step(finished(1, false), &mut fx);
        assert_eq!(
            race.decisions,
            vec![
                Decision::DispatchCf { attempt: 0 },
                Decision::AttemptFailed { attempt: 0 },
                Decision::Relaunch { attempt: 1 },
                Decision::Accept { attempt: 1 }
            ]
        );
        assert_eq!(fx.launched, vec![0, 1]);
        assert!(!fx.degraded);
    }

    #[test]
    fn repeated_crashes_degrade_after_max_attempts() {
        let mut fx = Recorder::default();
        let mut race = CfRace::start(&mut fx);
        race.step(finished(0, true), &mut fx);
        let last = race.step(finished(1, true), &mut fx);
        assert_eq!(
            last,
            vec![Decision::AttemptFailed { attempt: 1 }, Decision::Degrade]
        );
        assert_eq!(race.decisions.len(), 5);
        assert!(race.is_finished());
        assert_eq!(fx.launched, vec![0, 1], "no third fleet");
        assert!(fx.degraded);
    }

    #[test]
    fn straggler_deadline_launches_duplicate_and_first_result_wins() {
        let mut fx = Recorder::default();
        let mut race = CfRace::start(&mut fx);
        race.step(RaceInput::StragglerDeadline, &mut fx);
        assert!(race.speculated());
        race.step(finished(1, false), &mut fx);
        assert_eq!(
            race.decisions,
            vec![
                Decision::DispatchCf { attempt: 0 },
                Decision::StragglerSpeculate { attempt: 1 },
                Decision::Accept { attempt: 1 }
            ]
        );
        assert_eq!(fx.cancelled_keeping, vec![1], "loser 0 cancelled");
    }

    #[test]
    fn speculative_loser_crash_does_not_end_the_race() {
        // Duplicate launched, then the original crashes: the duplicate keeps
        // running — no relaunch, no degrade.
        let mut fx = Recorder::default();
        let mut race = CfRace::start(&mut fx);
        race.step(RaceInput::StragglerDeadline, &mut fx);
        let out = race.step(finished(0, true), &mut fx);
        assert_eq!(out, vec![Decision::AttemptFailed { attempt: 0 }]);
        assert!(!race.is_finished());
        assert_eq!(race.outstanding(), 1);
        // Both fleets crashing exhausts the budget → degrade.
        let out = race.step(finished(1, true), &mut fx);
        assert_eq!(
            out,
            vec![Decision::AttemptFailed { attempt: 1 }, Decision::Degrade]
        );
        assert!(fx.degraded);
    }

    #[test]
    fn deadline_is_ignored_when_speculated_or_out_of_budget() {
        // Already speculated: a second deadline is a no-op.
        let mut fx = Recorder::default();
        let mut race = CfRace::start(&mut fx);
        race.step(RaceInput::StragglerDeadline, &mut fx);
        assert!(race.step(RaceInput::StragglerDeadline, &mut fx).is_empty());
        assert_eq!(fx.launched, vec![0, 1]);

        // Out of attempt budget after a relaunch.
        let mut fx = Recorder::default();
        let mut race = CfRace::start(&mut fx);
        race.step(finished(0, true), &mut fx);
        assert_eq!(race.attempts(), MAX_CF_ATTEMPTS);
        assert!(race.step(RaceInput::StragglerDeadline, &mut fx).is_empty());

        // Finished race ignores everything.
        let mut fx = Recorder::default();
        let mut race = CfRace::start(&mut fx);
        race.step(finished(0, false), &mut fx);
        assert!(race.step(RaceInput::StragglerDeadline, &mut fx).is_empty());
        assert!(race.step(finished(1, true), &mut fx).is_empty());
    }

    #[test]
    fn straggler_deadline_scales_and_floors() {
        let est = SimDuration::from_millis(100);
        let d = straggler_deadline(est, 4.0, SimDuration::from_millis(250));
        assert_eq!(d, SimDuration::from_millis(400));
        let tiny = straggler_deadline(
            SimDuration::from_millis(10),
            4.0,
            SimDuration::from_millis(250),
        );
        assert_eq!(tiny, SimDuration::from_millis(250), "floored");
    }

    #[test]
    fn watchdog_arms_only_for_overshooting_fleets() {
        let now = SimTime::from_secs(10);
        let window = SimDuration::from_secs(5);
        assert_eq!(
            watchdog_due(now, window, SimTime::from_secs(16)),
            Some(SimTime::from_secs(15))
        );
        assert_eq!(watchdog_due(now, window, SimTime::from_secs(15)), None);
        assert_eq!(watchdog_due(now, window, SimTime::from_secs(12)), None);
    }

    #[test]
    fn cost_model_matches_pricing_formulas() {
        let model = CfCostModel::new(&CfConfig::default(), ResourcePricing::default());
        let work = QueryWork {
            scan_bytes: 4 << 30,
            cpu_seconds: 22.0,
            parallelism: 16,
        };
        assert_eq!(model.workers(&work), 16);
        let clean = LaunchFaults::default();
        let crash = LaunchFaults {
            crash: true,
            ..LaunchFaults::default()
        };
        // A crash halves the duration but not the bill.
        assert!(model.attempt_duration(&work, &crash) < model.attempt_duration(&work, &clean));
        assert_eq!(
            model.attempt_cost(&work, &crash),
            model.attempt_cost(&work, &clean)
        );
        let pricing = ResourcePricing::default();
        let expected = pricing.cf_cost(
            16,
            CfConfig::default().startup + model.nominal_runtime(&work),
        );
        assert_eq!(model.attempt_cost(&work, &clean), expected);
    }

    #[test]
    fn sized_work_shrinks_small_fleets_and_preserves_results_inputs() {
        let model = CfCostModel::new(&CfConfig::default(), ResourcePricing::default());
        // A tiny query cannot shrink below one worker.
        let tiny = QueryWork {
            scan_bytes: 1 << 20,
            cpu_seconds: 0.01,
            parallelism: 1,
        };
        assert_eq!(model.sized_work(&tiny), tiny);
        // A short query with a wide cap gets a smaller fleet...
        let short = QueryWork {
            scan_bytes: 64 << 20,
            cpu_seconds: 0.4,
            parallelism: 16,
        };
        let sized = model.sized_work(&short);
        assert!(sized.parallelism < short.parallelism, "fleet should shrink");
        assert!(sized.parallelism >= 1);
        // ...but scan bytes and CPU demand — the billed quantities — never
        // change, and the fleet never grows beyond the cap.
        assert_eq!(sized.scan_bytes, short.scan_bytes);
        assert_eq!(sized.cpu_seconds, short.cpu_seconds);
        // A long query keeps its full fleet (shrinking would blow the 1.5×
        // runtime target).
        let heavy = QueryWork {
            scan_bytes: 40 << 30,
            cpu_seconds: 220.0,
            parallelism: 16,
        };
        assert_eq!(model.sized_work(&heavy).parallelism, 16);
        // Sizing is idempotent: re-sizing the sized work is a fixpoint.
        assert_eq!(model.sized_work(&sized), sized);
    }

    #[test]
    fn fault_decisions_are_deterministic_per_plan() {
        use pixels_chaos::{FaultPlan, SiteSpec};
        let plan = FaultPlan::none(7).with(FaultSite::CfCrash, SiteSpec::errors(1.0).capped(1));
        let startup = SimDuration::from_millis(800);
        let nominal = SimDuration::from_secs(5);
        let a = FaultInjector::new(&plan);
        let b = FaultInjector::new(&plan);
        let fa: Vec<LaunchFaults> = (0..3)
            .map(|_| decide_launch_faults(&a, startup, nominal))
            .collect();
        let fb: Vec<LaunchFaults> = (0..3)
            .map(|_| decide_launch_faults(&b, startup, nominal))
            .collect();
        assert_eq!(fa, fb);
        assert!(fa[0].crash, "first launch crashes");
        assert!(!fa[1].crash && !fa[2].crash, "cap respected");
    }
}
