//! The auto-scaled VM cluster (paper §3.1).
//!
//! Modeled as a processor-sharing system on the virtual clock: all active
//! workers' cores are shared fairly among running queries (capped by each
//! query's parallelism), which captures the MPP behaviour that an overloaded
//! cluster slows every query down. Rates change only at events (a start, a
//! completion, a worker coming online or leaving), so the cluster keeps the
//! rates in force as state, names its next event ([`VmCluster::next_event`])
//! and integrates exactly between them. A query alone on the cluster runs
//! for [`QueryWork::exec_time_on_cores`] of its active cores. A watermark
//! autoscaler adds workers when query concurrency exceeds the high watermark
//! (paper default 5) and gracefully removes them when average concurrency
//! stays below the low watermark (paper default 0.75), with the lazy
//! scale-in policy of [7].
//! New workers take `boot_time` (1–2 minutes) to come online — the lag that
//! motivates CF acceleration.

use crate::model::{run_time, QueryWork};
use pixels_common::QueryId;
use pixels_sim::{SimDuration, SimTime, TimeSeries};

/// VM cluster configuration. Defaults follow the paper's examples.
#[derive(Debug, Clone, Copy)]
pub struct VmConfig {
    pub cores_per_worker: u32,
    /// Time from scale-out trigger to the worker accepting work.
    pub boot_time: SimDuration,
    pub min_workers: u32,
    pub max_workers: u32,
    /// Scale out when running-query concurrency exceeds this.
    pub high_watermark: f64,
    /// Scale in when average concurrency per worker falls below this.
    pub low_watermark: f64,
    /// Sizing target: desired workers ≈ concurrency / this.
    pub target_per_worker: f64,
    /// How often the autoscaler evaluates.
    pub autoscale_interval: SimDuration,
    /// Lazy scale-in: concurrency must stay low this long before removing a
    /// worker (avoids scaling in right before the next spike, see [7]).
    pub scale_in_cooldown: SimDuration,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            cores_per_worker: 8,
            boot_time: SimDuration::from_secs(90),
            min_workers: 1,
            max_workers: 32,
            high_watermark: 5.0,
            low_watermark: 0.75,
            target_per_worker: 2.0,
            autoscale_interval: SimDuration::from_secs(10),
            scale_in_cooldown: SimDuration::from_secs(120),
        }
    }
}

#[derive(Debug)]
struct Worker {
    ready_at: SimTime,
}

#[derive(Debug)]
struct Running {
    id: QueryId,
    work: QueryWork,
    remaining_cpu: f64,
    started_at: SimTime,
    core_seconds: f64,
}

/// A query that finished in the VM cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmCompletion {
    pub id: QueryId,
    pub started_at: SimTime,
    pub finished_at: SimTime,
    /// Core-seconds this query actually consumed.
    pub core_seconds: f64,
    pub scan_bytes: u64,
}

/// The simulated cluster.
pub struct VmCluster {
    cfg: VmConfig,
    workers: Vec<Worker>,
    running: Vec<Running>,
    /// Cores each running query holds, by index into `running`: the
    /// water-filling of the active cores, redone whenever the running set
    /// or the active core count changes ([`VmCluster::reshare`]).
    rates: Vec<f64>,
    /// Scratch of [`VmCluster::reshare`]: the queries whose cap binds.
    capped: Vec<bool>,
    now: SimTime,
    next_autoscale: SimTime,
    low_since: Option<SimTime>,
    /// Demand the autoscaler can see beyond running queries: queries queued
    /// upstream (coordinator VM queue, query-server relaxed queue). The
    /// paper's scale-out reacts to cluster load; queued work is load the
    /// cluster hasn't admitted yet.
    external_demand: u32,
    /// Provisioned core-seconds (what the operator pays for).
    pub provisioned_core_seconds: f64,
    /// Virtual times of each scale-out / scale-in decision.
    pub scale_out_times: Vec<SimTime>,
    pub scale_in_times: Vec<SimTime>,
    /// Active-worker count over time.
    pub worker_series: TimeSeries,
    /// Running-query concurrency over time.
    pub concurrency_series: TimeSeries,
}

impl VmCluster {
    pub fn new(cfg: VmConfig, now: SimTime) -> Self {
        let workers = (0..cfg.min_workers)
            .map(|_| Worker { ready_at: now })
            .collect();
        let mut cluster = VmCluster {
            cfg,
            workers,
            running: Vec::new(),
            rates: Vec::new(),
            capped: Vec::new(),
            now,
            next_autoscale: now,
            low_since: None,
            external_demand: 0,
            provisioned_core_seconds: 0.0,
            scale_out_times: Vec::new(),
            scale_in_times: Vec::new(),
            worker_series: TimeSeries::new(),
            concurrency_series: TimeSeries::new(),
        };
        cluster.record_series();
        cluster
    }

    pub fn active_workers(&self) -> u32 {
        self.workers
            .iter()
            .filter(|w| w.ready_at <= self.now)
            .count() as u32
    }

    /// Cores of the workers online now: what one query started now would
    /// share with the running ones, or have to itself on an idle cluster.
    pub fn active_cores(&self) -> u32 {
        self.active_workers() * self.cfg.cores_per_worker
    }

    pub fn booting_workers(&self) -> u32 {
        self.workers.len() as u32 - self.active_workers()
    }

    /// Current running-query concurrency (the quantity the watermarks and
    /// the query server's load checks observe).
    pub fn concurrency(&self) -> usize {
        self.running.len()
    }

    /// Paper §3.1/§3.2: the cluster is overloaded when concurrency has
    /// reached the high watermark.
    pub fn is_overloaded(&self) -> bool {
        self.running.len() as f64 >= self.cfg.high_watermark
    }

    /// Concurrency is below the low watermark (best-of-effort admission).
    pub fn is_nearly_idle(&self) -> bool {
        self.avg_concurrency_per_worker() < self.cfg.low_watermark
    }

    /// Report upstream queued demand so the autoscaler can size for it.
    pub fn set_external_demand(&mut self, queued: u32) {
        self.external_demand = queued;
    }

    fn avg_concurrency_per_worker(&self) -> f64 {
        self.running.len() as f64 / self.active_workers().max(1) as f64
    }

    /// Start executing a query at `now`, which is no later than the
    /// cluster's next event (admission control happens upstream).
    pub fn start(&mut self, id: QueryId, work: QueryWork, now: SimTime) {
        debug_assert!(now <= self.next_event());
        self.integrate(now);
        self.running.push(Running {
            id,
            work,
            remaining_cpu: work.cpu_seconds,
            started_at: now,
            core_seconds: 0.0,
        });
        self.reshare();
        self.record_series();
    }

    /// Recompute the rates: fair-share core allocation with per-query
    /// parallelism caps (water-filling) over the active cores.
    fn reshare(&mut self) {
        let n = self.running.len();
        let mut remaining = self.active_cores() as f64;
        let (rates, capped) = (&mut self.rates, &mut self.capped);
        rates.clear();
        rates.resize(n, 0.0);
        capped.clear();
        capped.resize(n, false);
        // Iterate: give each uncapped query an equal share; queries whose
        // parallelism cap binds free their surplus for the others.
        for _ in 0..n.min(16) {
            let uncapped = capped.iter().filter(|&&c| !c).count();
            if uncapped == 0 || remaining <= 1e-12 {
                break;
            }
            let share = remaining / uncapped as f64;
            let mut newly_capped = false;
            for (i, q) in self.running.iter().enumerate() {
                let cap = q.work.parallelism as f64;
                if !capped[i] && rates[i] + share >= cap {
                    remaining -= cap - rates[i];
                    rates[i] = cap;
                    capped[i] = true;
                    newly_capped = true;
                }
            }
            if !newly_capped {
                for (rate, _) in rates.iter_mut().zip(&*capped).filter(|(_, &c)| !c) {
                    *rate += share;
                }
                remaining = 0.0;
            }
        }
    }

    /// When the cluster next changes on its own: the earliest completion
    /// under the current processor-sharing rates (rounded up to the next
    /// whole microsecond; a query with rate 0 has none), a booting worker
    /// coming online, or the next autoscaler evaluation.
    pub fn next_event(&self) -> SimTime {
        let completions = (self.running.iter().zip(&self.rates))
            .filter(|&(_, &rate)| rate > 0.0)
            .map(|(q, &rate)| self.now + run_time(q.remaining_cpu, rate));
        let boots = (self.workers.iter())
            .map(|w| w.ready_at)
            .filter(|&at| at > self.now);
        completions
            .chain(boots)
            .fold(self.next_autoscale, SimTime::min)
    }

    /// Advance the cluster to `now` through every event on the way,
    /// returning the queries that completed, each at its own instant.
    pub fn tick(&mut self, now: SimTime) -> Vec<VmCompletion> {
        debug_assert!(now >= self.now);
        let mut finished = Vec::new();
        loop {
            let at = self.next_event().min(now);
            self.advance(at, &mut finished);
            if at == now {
                return finished;
            }
        }
    }

    /// Accrue progress and provisioned core-seconds from `self.now` to
    /// `now` at the current rates (no event lies between).
    fn integrate(&mut self, now: SimTime) {
        let dt_s = now.since(self.now).as_secs_f64();
        self.provisioned_core_seconds += self.active_cores() as f64 * dt_s;
        for (q, &rate) in self.running.iter_mut().zip(&self.rates) {
            let progress = rate * dt_s;
            q.core_seconds += progress.min(q.remaining_cpu);
            q.remaining_cpu -= progress;
        }
        self.now = now;
    }

    /// Integrate to `now`, then apply what happens at `now`: completions
    /// and the autoscaler.
    fn advance(&mut self, now: SimTime, finished: &mut Vec<VmCompletion>) {
        self.integrate(now);
        let (done, running) = std::mem::take(&mut self.running)
            .into_iter()
            .partition(|q| q.remaining_cpu <= 1e-9);
        self.running = running;
        finished.extend(done.into_iter().map(|q: Running| VmCompletion {
            id: q.id,
            started_at: q.started_at,
            finished_at: now,
            core_seconds: q.core_seconds,
            scan_bytes: q.work.scan_bytes,
        }));

        if now >= self.next_autoscale {
            self.autoscale();
            self.next_autoscale = now + self.cfg.autoscale_interval;
        }
        self.reshare();
        self.record_series();
    }

    fn autoscale(&mut self) {
        let demand = (self.running.len() as u32 + self.external_demand) as f64;
        let provisioned = self.workers.len() as u32;

        // Scale out: demand at or above the high watermark. (`>=` because
        // CF diversion and server-side queueing cap the *running* count at
        // exactly the watermark.) Two dampers keep a transient backlog from
        // over-provisioning the cluster: growth is geometric (at most a
        // doubling per decision) and a new decision waits until the previous
        // batch of workers has booted — the operator sizes against observed
        // effect, not against a queue spike that the new workers will drain.
        if demand >= self.cfg.high_watermark {
            self.low_since = None;
            if self.booting_workers() > 0 {
                return;
            }
            let desired = ((demand / self.cfg.target_per_worker).ceil() as u32)
                .min((provisioned * 2).max(1))
                .clamp(self.cfg.min_workers, self.cfg.max_workers);
            if desired > provisioned {
                for _ in provisioned..desired {
                    self.workers.push(Worker {
                        ready_at: self.now + self.cfg.boot_time,
                    });
                }
                self.scale_out_times.push(self.now);
            }
            return;
        }

        // Scale in: sustained low average concurrency (lazy policy).
        if self.avg_concurrency_per_worker() < self.cfg.low_watermark
            && self.active_workers() > self.cfg.min_workers
        {
            match self.low_since {
                None => self.low_since = Some(self.now),
                Some(since) => {
                    if self.now.since(since) >= self.cfg.scale_in_cooldown {
                        // Gracefully release one worker per cooldown window.
                        if let Some(pos) = self.workers.iter().position(|w| w.ready_at <= self.now)
                        {
                            self.workers.remove(pos);
                            self.scale_in_times.push(self.now);
                        }
                        self.low_since = Some(self.now);
                    }
                }
            }
        } else {
            self.low_since = None;
        }
    }

    /// Spot-reclaim one active worker. Running queries lose no work — under
    /// processor sharing they simply share fewer cores until the replacement
    /// (which starts booting immediately) comes online. Returns `false` when
    /// no worker is active to preempt.
    pub fn preempt_worker(&mut self) -> bool {
        let Some(pos) = self.workers.iter().position(|w| w.ready_at <= self.now) else {
            return false;
        };
        self.workers.remove(pos);
        self.workers.push(Worker {
            ready_at: self.now + self.cfg.boot_time,
        });
        self.reshare();
        self.record_series();
        true
    }

    fn record_series(&mut self) {
        self.worker_series
            .record(self.now, self.active_workers() as f64);
        self.concurrency_series
            .record(self.now, self.running.len() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixels_workload::QueryClass;

    /// Advance event by event until no query runs or `limit` has passed.
    fn tick_until(
        cluster: &mut VmCluster,
        limit: SimDuration,
        mut on_finish: impl FnMut(&VmCompletion),
    ) {
        let end = SimTime::ZERO + limit;
        while cluster.concurrency() > 0 && cluster.next_event() <= end {
            for c in cluster.tick(cluster.next_event()) {
                on_finish(&c);
            }
        }
    }

    #[test]
    fn single_query_runs_to_completion() {
        let mut cluster = VmCluster::new(VmConfig::default(), SimTime::ZERO);
        let work = QueryWork::from_class(QueryClass::Medium);
        cluster.start(QueryId(1), work, SimTime::ZERO);
        let mut done = Vec::new();
        tick_until(&mut cluster, SimDuration::from_secs(600), |c| done.push(*c));
        assert_eq!(done.len(), 1);
        // Pure processor sharing: one query on one 8-core worker runs at
        // cpu_seconds / 8.
        let expected = work.cpu_seconds / 8.0;
        let actual = done[0].finished_at.since(done[0].started_at).as_secs_f64();
        let ratio = actual / expected;
        assert!(
            (0.9..1.1).contains(&ratio),
            "exec time {actual} vs {expected}"
        );
    }

    #[test]
    fn contention_slows_queries_down() {
        let cfg = VmConfig {
            max_workers: 1,
            min_workers: 1,
            ..Default::default()
        };
        // One worker, four medium queries: processor sharing should make
        // them take ~4x as long as a solo run.
        let mut cluster = VmCluster::new(cfg, SimTime::ZERO);
        let work = QueryWork::from_class(QueryClass::Medium);
        for i in 0..4 {
            cluster.start(QueryId(i), work, SimTime::ZERO);
        }
        let mut finishes = Vec::new();
        tick_until(&mut cluster, SimDuration::from_secs(3600), |c| {
            finishes.push(c.finished_at)
        });
        assert_eq!(finishes.len(), 4);
        let solo = work.cpu_seconds / 8.0;
        let shared = finishes[0].as_secs_f64();
        assert!(shared > solo * 3.5, "shared {shared} vs solo {solo}");
    }

    #[test]
    fn scale_out_takes_boot_time() {
        let cfg = VmConfig::default();
        let mut cluster = VmCluster::new(cfg, SimTime::ZERO);
        // Push concurrency over the high watermark.
        for i in 0..10 {
            cluster.start(
                QueryId(i),
                QueryWork::from_class(QueryClass::Heavy),
                SimTime::ZERO,
            );
        }
        assert!(cluster.is_overloaded());
        // After the first autoscaler evaluation, workers are booting but not
        // active.
        cluster.tick(SimTime::from_secs(1));
        assert_eq!(cluster.active_workers(), 1);
        assert!(
            cluster.booting_workers() > 0,
            "scale-out should have triggered"
        );
        // Still 1 active a microsecond before the boot completes.
        let ready = SimTime::ZERO + cfg.boot_time;
        cluster.tick(SimTime::from_micros(ready.as_micros() - 1));
        assert_eq!(cluster.active_workers(), 1, "boot lag not yet elapsed");
        // At boot_time: new workers active.
        cluster.tick(ready);
        assert!(cluster.active_workers() > 1, "workers should be online");
        assert!(!cluster.scale_out_times.is_empty());
    }

    #[test]
    fn lazy_scale_in_waits_for_cooldown() {
        let cfg = VmConfig {
            min_workers: 1,
            scale_in_cooldown: SimDuration::from_secs(120),
            ..Default::default()
        };
        let mut cluster = VmCluster::new(cfg, SimTime::ZERO);
        // Provision extra workers by holding sustained load (medium queries
        // keep concurrency above the high watermark across autoscale ticks).
        for i in 0..12 {
            cluster.start(
                QueryId(i),
                QueryWork::from_class(QueryClass::Medium),
                SimTime::ZERO,
            );
        }
        // Run everything to completion.
        tick_until(&mut cluster, SimDuration::from_secs(1200), |_| {});
        assert_eq!(cluster.concurrency(), 0);
        let workers_after_load = cluster.workers.len();
        assert!(workers_after_load > 1, "cluster scaled out during load");
        // Idle phase: lazy scale-in must remove workers one cooldown window
        // at a time, never in a burst.
        let mut removal_times: Vec<SimTime> = Vec::new();
        let mut last_events = cluster.scale_in_times.len();
        let end = cluster.next_event() + SimDuration::from_secs(7200);
        while cluster.next_event() <= end {
            let now = cluster.next_event();
            cluster.tick(now);
            if cluster.scale_in_times.len() > last_events {
                assert_eq!(
                    cluster.scale_in_times.len(),
                    last_events + 1,
                    "workers must leave one at a time"
                );
                removal_times.push(now);
                last_events = cluster.scale_in_times.len();
            }
        }
        assert!(
            removal_times.len() as u32 >= workers_after_load as u32 - 1,
            "cluster should shrink back: {} removals for {} workers",
            removal_times.len(),
            workers_after_load
        );
        assert_eq!(cluster.active_workers(), 1, "shrinks to min_workers");
        for pair in removal_times.windows(2) {
            assert!(
                pair[1].since(pair[0]) >= SimDuration::from_secs(110),
                "removals must be spaced by ~the cooldown: {} then {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn preemption_keeps_queries_and_boots_replacement() {
        let cfg = VmConfig {
            min_workers: 2,
            ..Default::default()
        };
        let mut cluster = VmCluster::new(cfg, SimTime::ZERO);
        cluster.start(
            QueryId(1),
            QueryWork::from_class(QueryClass::Medium),
            SimTime::ZERO,
        );
        assert_eq!(cluster.active_workers(), 2);
        assert!(cluster.preempt_worker());
        // One active worker lost, its replacement booting, query untouched.
        assert_eq!(cluster.active_workers(), 1);
        assert_eq!(cluster.booting_workers(), 1);
        assert_eq!(cluster.concurrency(), 1);
        // The query still completes (slower, on fewer cores), and the
        // replacement eventually comes online.
        let mut done = Vec::new();
        tick_until(&mut cluster, SimDuration::from_secs(600), |c| done.push(*c));
        assert_eq!(done.len(), 1, "preemption must not lose the query");
        // After boot_time the cluster is back to strength.
        assert_eq!(cluster.active_workers() + cluster.booting_workers(), 2);
    }

    #[test]
    fn provisioned_cost_accrues_even_when_idle() {
        let mut cluster = VmCluster::new(VmConfig::default(), SimTime::ZERO);
        cluster.tick(SimTime::from_secs(100));
        // 1 worker * 8 cores * 100 s.
        assert!((cluster.provisioned_core_seconds - 800.0).abs() < 1e-6);
    }

    #[test]
    fn water_filling_respects_parallelism_caps() {
        let cfg = VmConfig {
            min_workers: 4,
            ..Default::default()
        }; // 32 cores
        let mut cluster = VmCluster::new(cfg, SimTime::ZERO);
        // One query capped at 2 cores, one that can take many.
        cluster.start(
            QueryId(1),
            QueryWork {
                scan_bytes: 0,
                cpu_seconds: 100.0,
                parallelism: 2,
            },
            SimTime::ZERO,
        );
        cluster.start(
            QueryId(2),
            QueryWork {
                scan_bytes: 0,
                cpu_seconds: 100.0,
                parallelism: 64,
            },
            SimTime::ZERO,
        );
        let rates = &cluster.rates;
        assert!((rates[0] - 2.0).abs() < 1e-9, "capped at parallelism");
        assert!((rates[1] - 30.0).abs() < 1e-9, "surplus goes to the other");
    }
}
