//! The cloud-function service (paper §3.1).
//!
//! CF workers are ephemeral: they spawn in under a second ("create hundreds
//! of workers in 1 second"), execute a pushed-down sub-plan, materialize the
//! result to object storage, and disappear. They are 9–24× more expensive
//! per resource unit than VM cores, which is exactly the trade the service
//! levels monetize.

use crate::billing::ResourcePricing;
use crate::model::QueryWork;
use crate::policy::CfCostModel;
use pixels_common::QueryId;
use pixels_sim::{SimDuration, SimTime, TimeSeries};

/// CF service configuration.
#[derive(Debug, Clone, Copy)]
pub struct CfConfig {
    /// Cold-start latency per worker fleet (workers spawn in parallel).
    pub startup: SimDuration,
    /// Cap on workers for one query.
    pub max_workers_per_query: u32,
    /// Work inflation from running split plans in CFs: duplicated scans at
    /// the cut boundary, intermediate-result materialization, shuffle via
    /// object storage. Multiplies CPU demand.
    pub overhead_factor: f64,
}

impl Default for CfConfig {
    fn default() -> Self {
        CfConfig {
            startup: SimDuration::from_millis(800),
            max_workers_per_query: 256,
            overhead_factor: 1.8,
        }
    }
}

/// One accepted CF execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfRun {
    pub id: QueryId,
    pub started_at: SimTime,
    pub finish_at: SimTime,
    pub workers: u32,
    pub cost: f64,
    pub scan_bytes: u64,
    /// 0 for the first fleet, 1+ for relaunches and speculative duplicates.
    pub attempt: u32,
    /// The fleet dies at `finish_at` without producing a result (the
    /// coordinator decides whether to relaunch or degrade).
    pub crashed: bool,
}

/// Faults applied to one fleet launch, decided by the coordinator's fault
/// injector *at launch* so the whole run is deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchFaults {
    /// Cold-start storm: additional fleet startup latency.
    pub extra_startup: SimDuration,
    /// Straggler: additional runtime beyond the model's estimate.
    pub straggle: SimDuration,
    /// Worker crash: the fleet dies halfway through its run.
    pub crash: bool,
}

impl Default for LaunchFaults {
    fn default() -> Self {
        LaunchFaults {
            extra_startup: SimDuration::ZERO,
            straggle: SimDuration::ZERO,
            crash: false,
        }
    }
}

/// The CF service: tracks in-flight function fleets on the virtual clock.
pub struct CfService {
    cfg: CfConfig,
    pricing: ResourcePricing,
    /// Shared duration/cost model (same formulas the real engine uses).
    model: CfCostModel,
    active: Vec<CfRun>,
    pub total_cost: f64,
    pub worker_series: TimeSeries,
    now: SimTime,
}

impl CfService {
    pub fn new(cfg: CfConfig, pricing: ResourcePricing, now: SimTime) -> Self {
        CfService {
            cfg,
            pricing,
            model: CfCostModel::new(&cfg, pricing),
            active: Vec::new(),
            total_cost: 0.0,
            worker_series: TimeSeries::new(),
            now,
        }
    }

    pub fn config(&self) -> &CfConfig {
        &self.cfg
    }

    pub fn active_workers(&self) -> u32 {
        self.active.iter().map(|r| r.workers).sum()
    }

    pub fn active_queries(&self) -> usize {
        self.active.len()
    }

    /// The model's fault-free runtime estimate for `work` on this service
    /// (excluding startup) — also the baseline straggler detectors compare
    /// elapsed time against.
    pub fn nominal_runtime(&self, work: &QueryWork) -> SimDuration {
        self.model.nominal_runtime(work)
    }

    /// Launch a CF fleet for `work`. Returns the accepted run (cost is
    /// charged immediately; the fleet occupies workers until `finish_at`).
    pub fn launch(&mut self, id: QueryId, work: QueryWork, now: SimTime) -> CfRun {
        self.launch_attempt(id, work, now, 0, LaunchFaults::default())
    }

    /// Launch one (possibly faulty) fleet attempt. The full invocation cost
    /// is charged at launch — crashed and cancelled fleets stay billed, which
    /// is the provider-side half of the paper's "both invocations billed"
    /// speculation semantics (the *user's* $/TB bill follows only the
    /// accepted result's scanned bytes).
    pub fn launch_attempt(
        &mut self,
        id: QueryId,
        work: QueryWork,
        now: SimTime,
        attempt: u32,
        faults: LaunchFaults,
    ) -> CfRun {
        let workers = self.model.workers(&work);
        let per_worker = self.model.attempt_duration(&work, &faults);
        let cost = self.model.attempt_cost(&work, &faults);
        let run = CfRun {
            id,
            started_at: now,
            finish_at: now + per_worker,
            workers,
            cost,
            scan_bytes: work.scan_bytes,
            attempt,
            crashed: faults.crash,
        };
        self.total_cost += cost;
        self.active.push(run);
        self.now = now;
        self.worker_series.record(now, self.active_workers() as f64);
        run
    }

    /// Whether any fleet for `id` is still in flight.
    pub fn has_active(&self, id: QueryId) -> bool {
        self.active.iter().any(|r| r.id == id)
    }

    /// Cancel every fleet for `id` except `keep_attempt` (first result won).
    /// Their workers are released at once; their cost stays charged, since
    /// cancelling saves nothing the provider already billed.
    pub fn cancel_others(&mut self, id: QueryId, keep_attempt: u32) -> Vec<CfRun> {
        let mut cancelled = Vec::new();
        let mut i = 0;
        while i < self.active.len() {
            if self.active[i].id == id && self.active[i].attempt != keep_attempt {
                cancelled.push(self.active.swap_remove(i));
            } else {
                i += 1;
            }
        }
        if !cancelled.is_empty() {
            self.worker_series
                .record(self.now, self.active_workers() as f64);
            cancelled.sort_by_key(|r| r.attempt);
        }
        cancelled
    }

    /// When the next in-flight fleet finishes (or crashes).
    pub fn next_event(&self) -> Option<SimTime> {
        self.active.iter().map(|r| r.finish_at).min()
    }

    /// Collect runs that completed by `now`.
    pub fn tick(&mut self, now: SimTime) -> Vec<CfRun> {
        self.now = now;
        let mut done = Vec::new();
        let mut i = 0;
        while i < self.active.len() {
            if self.active[i].finish_at <= now {
                done.push(self.active.swap_remove(i));
            } else {
                i += 1;
            }
        }
        if !done.is_empty() {
            self.worker_series.record(now, self.active_workers() as f64);
        }
        // Deterministic output order.
        done.sort_by_key(|r| (r.finish_at, r.id));
        done
    }

    /// The effective per-core-hour unit price of this CF service including
    /// execution overheads — the number the paper compares against VM
    /// pricing (9–24×).
    pub fn effective_unit_ratio(&self) -> f64 {
        self.pricing.cf_vm_unit_ratio() * self.cfg.overhead_factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixels_workload::QueryClass;

    fn service() -> CfService {
        CfService::new(
            CfConfig::default(),
            ResourcePricing::default(),
            SimTime::ZERO,
        )
    }

    #[test]
    fn launch_and_finish() {
        let mut cf = service();
        let work = QueryWork::from_class(QueryClass::Medium);
        let run = cf.launch(QueryId(1), work, SimTime::ZERO);
        assert_eq!(run.workers, 16);
        assert!(run.cost > 0.0);
        assert!(cf.active_workers() == 16);
        // Not finished immediately.
        assert!(cf.tick(SimTime::from_millis(100)).is_empty());
        let done = cf.tick(run.finish_at);
        assert_eq!(done.len(), 1);
        assert_eq!(cf.active_workers(), 0);
    }

    #[test]
    fn startup_dominates_tiny_queries() {
        let mut cf = service();
        let work = QueryWork {
            scan_bytes: 1 << 20,
            cpu_seconds: 0.01,
            parallelism: 1,
        };
        let run = cf.launch(QueryId(1), work, SimTime::ZERO);
        let dur = run.finish_at.since(run.started_at);
        assert!(dur >= SimDuration::from_millis(800));
        assert!(dur < SimDuration::from_millis(900));
    }

    #[test]
    fn hundreds_of_workers_in_about_a_second() {
        // The paper's elasticity claim: a big query gets a large fleet with
        // ~1s of startup, while a VM cluster would need minutes.
        let mut cf = service();
        let work = QueryWork {
            scan_bytes: 100 << 30,
            cpu_seconds: 500.0,
            parallelism: 300,
        };
        let run = cf.launch(QueryId(1), work, SimTime::ZERO);
        assert_eq!(run.workers, 256, "capped at max_workers_per_query");
        // Time to full parallelism = startup < 1 s.
        assert!(cf.config().startup <= SimDuration::from_secs(1));
    }

    #[test]
    fn effective_unit_ratio_is_in_papers_band() {
        let cf = service();
        let ratio = cf.effective_unit_ratio();
        assert!(
            (4.0..pixels_common::prices::CF_VM_RATIO_MAX).contains(&ratio),
            "effective CF/VM unit ratio {ratio} outside plausible band"
        );
    }

    #[test]
    fn cancelled_run_releases_workers_but_stays_billed() {
        // Satellite coverage: `tick` worker accounting across a mid-flight
        // cancellation (the speculative-loser path).
        let mut cf = service();
        let work = QueryWork::from_class(QueryClass::Medium);
        let a = cf.launch_attempt(QueryId(1), work, SimTime::ZERO, 0, LaunchFaults::default());
        let b = cf.launch_attempt(QueryId(1), work, SimTime::ZERO, 1, LaunchFaults::default());
        assert_eq!(cf.active_workers(), a.workers + b.workers);
        assert!(cf.has_active(QueryId(1)));
        let billed = cf.total_cost;

        // Mid-flight: attempt 1 wins, attempt 0 is cancelled.
        let mid = SimTime::from_millis(200);
        assert!(cf.tick(mid).is_empty(), "nothing finished yet");
        let cancelled = cf.cancel_others(QueryId(1), 1);
        assert_eq!(cancelled.len(), 1);
        assert_eq!(cancelled[0].attempt, 0);
        // Workers released immediately...
        assert_eq!(cf.active_workers(), b.workers);
        // ...but the provider keeps the money (both invocations billed).
        assert_eq!(cf.total_cost, billed);

        // The cancelled run never completes; the survivor does, once.
        let done = cf.tick(a.finish_at + SimDuration::from_secs(10));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].attempt, 1);
        assert_eq!(cf.active_workers(), 0);
        assert_eq!(cf.active_queries(), 0);
        // Cancelling something already gone is a no-op.
        assert!(cf.cancel_others(QueryId(1), 1).is_empty());
    }

    #[test]
    fn crashing_run_finishes_early_and_is_marked() {
        let mut cf = service();
        let work = QueryWork::from_class(QueryClass::Medium);
        let clean = cf.launch_attempt(QueryId(1), work, SimTime::ZERO, 0, LaunchFaults::default());
        let mut cf2 = service();
        let crashed = cf2.launch_attempt(
            QueryId(1),
            work,
            SimTime::ZERO,
            0,
            LaunchFaults {
                crash: true,
                ..LaunchFaults::default()
            },
        );
        assert!(crashed.crashed);
        assert!(
            crashed.finish_at < clean.finish_at,
            "a crash ends the run early"
        );
        // Same bill either way: the provider charges the full invocation.
        assert_eq!(crashed.cost, clean.cost);
        let done = cf2.tick(crashed.finish_at);
        assert_eq!(done.len(), 1);
        assert!(done[0].crashed);
    }

    #[test]
    fn cost_scales_with_work() {
        let mut cf = service();
        let small = cf.launch(
            QueryId(1),
            QueryWork::from_class(QueryClass::Light),
            SimTime::ZERO,
        );
        let big = cf.launch(
            QueryId(2),
            QueryWork::from_class(QueryClass::Heavy),
            SimTime::ZERO,
        );
        assert!(big.cost > small.cost * 10.0);
        assert!(big.workers > small.workers);
        assert!((cf.total_cost - small.cost - big.cost).abs() < 1e-12);
    }
}
