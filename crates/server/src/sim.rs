//! The simulated query server: one event-driven driver over a plug-in
//! capacity model — the experiment driver behind every service-level,
//! autoscaling, and pricing figure in EXPERIMENTS.md and, over a fixed
//! fleet, behind the million-user admission soak of [`crate::soak`].
//!
//! [`ServerSim`] runs the same tenant-aware admission core as the live
//! server: the [`SchedulerPolicy`] decides dispatch/queue/reject for each
//! [`AdmissionMode`], queued work is parked in a [`FairQueue`], same-class
//! best-of-effort entries may merge into one shared scan, and every
//! completion becomes a priced [`QueryRecord`]. What runs the queries is the
//! [`Coordinator`] cluster micro-model. It names the instant it next
//! changes, and the driver wakes it exactly then; deadline admission
//! estimates a query's runtime on the cores it has now.
//!
//! Shared work follows the live server's rule ([`crate::shared`]): every
//! member of a batch is billed the bytes its own plan reads, exactly what it
//! would have been billed alone, and the query that executes (the carrier)
//! carries the provider cost while its riders carry none. The saving of a
//! shared scan is provider margin, never a smaller bill.
//!
//! Time advances event by event: arrivals, read in order from the sorted
//! trace, and from one [`EventQueue`] the force-start bound of every queued
//! query, capacity wakes and the post-trace drain checks; after every event
//! the fair queue is drained until the load signal says stop. An arrival
//! leads every same-instant queued event, and queued events pop in
//! scheduling order among themselves. No event waits for the model:
//! a query is admitted at its arrival, forced at its bound and completed at
//! its finish, to the microsecond.

use crate::fair::{FairQueue, Request};
use crate::pricing::PriceSchedule;
use crate::scheduler::{Admission, AdmissionMode, LoadSignal, SchedulerPolicy, DEADLINE_LEVEL};
use crate::service_level::ServiceLevel;
use pixels_chaos::FaultInjector;
use pixels_common::QueryId;
use pixels_sim::{DurationStats, EventQueue, SimDuration, SimTime};
use pixels_turbo::{
    Coordinator, CostBreakdown, FaultStats, Placement, QueryCompletion, QueryWork, VmConfig,
};
use pixels_workload::QueryClass;
use std::collections::HashMap;
use std::sync::Arc;

/// One query submission in a simulated workload (legacy single-tenant
/// fixed-level form; see [`TenantSubmission`] for the general one).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Submission {
    pub at: SimTime,
    pub class: QueryClass,
    pub level: ServiceLevel,
}

/// A tenant-attributed submission in any admission mode.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSubmission {
    pub at: SimTime,
    pub class: QueryClass,
    pub mode: AdmissionMode,
    pub tenant: String,
}

/// Final per-query record of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryRecord {
    pub id: QueryId,
    pub class: QueryClass,
    pub mode: AdmissionMode,
    /// Index into [`SimReport::tenant_names`].
    pub tenant: u32,
    /// When the user submitted the query to the query server.
    pub submitted_at: SimTime,
    /// When the query server dispatched it to the coordinator.
    pub dispatched_at: SimTime,
    /// When execution began.
    pub started_at: SimTime,
    pub finished_at: SimTime,
    pub placement: Placement,
    /// Provider-side resource cost attributable to this query.
    pub resource_cost: CostBreakdown,
    /// User-facing bill ($/TB-scan at the mode's price).
    pub price: f64,
    pub scan_bytes: u64,
    /// Every CF fleet for this query failed; it completed on the VM tier.
    pub degraded: bool,
    /// A speculative duplicate fleet raced this query's straggler.
    pub speculative: bool,
}

impl QueryRecord {
    /// Total pending time: server queue + engine queue.
    pub fn pending(&self) -> SimDuration {
        self.started_at.since(self.submitted_at)
    }

    pub fn execution(&self) -> SimDuration {
        self.finished_at.since(self.started_at)
    }

    /// Submission-to-completion latency — what a deadline target bounds.
    pub fn total_latency(&self) -> SimDuration {
        self.finished_at.since(self.submitted_at)
    }

    /// The latency this query's SLO objective bounds
    /// ([`AdmissionMode::slo_latency_us`]).
    pub fn slo_latency_us(&self) -> u64 {
        let total_us = self.total_latency().as_micros();
        self.mode
            .slo_latency_us(self.pending().as_micros(), total_us)
    }

    /// This query's economics-ledger entry: exactly the dollars and bytes
    /// the record carries, so reconciliation against records is bit-for-bit.
    pub fn ledger_entry(&self, tenant: &str) -> pixels_obs::LedgerEntry {
        pixels_obs::LedgerEntry {
            tenant: tenant.to_string(),
            level: self.mode.name().to_string(),
            bytes_billed: self.scan_bytes,
            revenue_dollars: self.price,
            vm_dollars: self.resource_cost.vm_dollars,
            cf_dollars: self.resource_cost.cf_dollars,
            provider_cf_dollars: self.resource_cost.cf_dollars,
            // The workload simulator submits single-stage queries only;
            // shuffle provider dollars are exercised by the parity and
            // exchange differential harnesses.
            shuffle_dollars: 0.0,
            degraded: self.degraded,
            speculative: self.speculative,
        }
    }
}

/// A submission refused at admission (infeasible deadline). Rejected
/// queries never reach the coordinator, the ledger, or the result cache —
/// they only count against the SLO and the journal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RejectedRecord {
    pub id: QueryId,
    pub tenant: u32,
    pub mode: AdmissionMode,
    pub at: SimTime,
    pub reason: &'static str,
}

/// Query-server configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerConfig {
    /// The admission policy shared with the live server: every mode's
    /// pending bound.
    pub policy: SchedulerPolicy,
    /// Batch query optimization (the paper's concluding opportunity):
    /// same-class best-of-effort queries waiting in the server are merged
    /// into one execution that shares a single table scan. Off by default.
    pub batch_besteffort: bool,
}

/// Most queries merged into one best-of-effort batch.
pub const MAX_BATCH: usize = 8;

/// Incremental CPU a merged execution pays per additional batch member, as
/// a fraction of one member's solo CPU: the scan is shared, and only the
/// per-member operator work (filter, aggregate, project) repeats. An
/// assumed figure: nothing measures it yet.
const SHARED_MEMBER_CPU_FRACTION: f64 = 0.55;

/// CPU-seconds of one merged execution carrying `members` same-class
/// queries: one full scan plus the incremental per-member work.
fn merged_cpu_seconds(single_cpu_seconds: f64, members: usize) -> f64 {
    single_cpu_seconds * (1.0 + SHARED_MEMBER_CPU_FRACTION * (members.saturating_sub(1)) as f64)
}

/// A query between admission and its record: its index in the trace, and
/// when it was admitted.
type Ticket = (u32, SimTime);

/// One submission as the driver takes it: tenant already interned
/// ([`ServerSim::intern`]). A trace is sorted by `at`; a query's id is its
/// index in the trace.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Arrival {
    pub at: SimTime,
    pub class: QueryClass,
    pub mode: AdmissionMode,
    pub tenant: u32,
}

/// What a run hands its sink, as it happens.
pub(crate) enum Outcome {
    Completed(QueryRecord),
    Rejected(RejectedRecord),
}

/// Driver-side counters the records do not carry.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DriveStats {
    pub forced_starts: u64,
    pub batches: u64,
    /// Riders merged into a carrier's execution (the carrier not counted).
    pub batched_members: u64,
}

enum Event {
    /// Index into the trace.
    Arrive(u32),
    /// Some queued query's force-start bound expires now; the drain that
    /// follows every event finds it through the fair queue's expiry index.
    ForceBound,
    /// The capacity model asked to be woken.
    Wake,
    /// After the trace: stop once everything finished or the drain budget
    /// ran out, looking once a second.
    DrainCheck,
}

/// The simulated query server driving the [`Coordinator`].
pub struct ServerSim {
    pub capacity: Coordinator,
    cfg: ServerConfig,
    queue: FairQueue,
    events: EventQueue<Event>,
    trace: Vec<Arrival>,
    /// Queued queries: id -> when admitted.
    waiting: HashMap<u64, SimTime>,
    /// Carrier id -> the queries riding on that execution: one, or the
    /// members of a best-of-effort batch (carrier first).
    running: HashMap<QueryId, Vec<Ticket>>,
    tenant_names: Vec<String>,
    tenant_ids: HashMap<String, u32>,
    pub(crate) stats: DriveStats,
}

impl ServerSim {
    pub fn new(vm_cfg: VmConfig, cfg: ServerConfig) -> Self {
        ServerSim {
            capacity: Coordinator::new(vm_cfg, SimTime::ZERO),
            cfg,
            queue: FairQueue::new(),
            events: EventQueue::new(),
            trace: Vec::new(),
            waiting: HashMap::new(),
            running: HashMap::new(),
            tenant_names: Vec::new(),
            tenant_ids: HashMap::new(),
            stats: DriveStats::default(),
        }
    }

    pub fn with_defaults() -> Self {
        ServerSim::new(VmConfig::default(), ServerConfig::default())
    }

    /// Install a seeded fault injector on the underlying coordinator.
    pub fn with_fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.capacity = self.capacity.with_fault_injector(injector);
        self
    }

    /// Run a legacy single-tenant workload trace to completion (plus a
    /// drain phase), then report. Every submission maps to the tenant
    /// `"sim"`, making the fair queue a plain FIFO — identical scheduling
    /// to the pre-tenant server.
    pub fn run(self, submissions: Vec<Submission>, max_drain: SimDuration) -> SimReport {
        let subs = submissions
            .into_iter()
            .map(|s| TenantSubmission {
                at: s.at,
                class: s.class,
                mode: AdmissionMode::Level(s.level),
                tenant: "sim".to_string(),
            })
            .collect();
        self.run_tenants(subs, max_drain)
    }

    /// Run a multi-tenant workload trace in any admission mode.
    pub fn run_tenants(
        mut self,
        mut submissions: Vec<TenantSubmission>,
        max_drain: SimDuration,
    ) -> SimReport {
        submissions.sort_by_key(|s| s.at);
        let trace: Vec<Arrival> = submissions
            .iter()
            .map(|s| Arrival {
                at: s.at,
                class: s.class,
                mode: s.mode,
                tenant: self.intern(&s.tenant),
            })
            .collect();
        let (mut records, mut rejected) = (Vec::new(), Vec::new());
        let end_time = self.drive(trace, max_drain, &mut |outcome| match outcome {
            Outcome::Completed(r) => records.push(r),
            Outcome::Rejected(r) => rejected.push(r),
        });
        records.sort_by_key(|r| (r.submitted_at, r.id));
        // Provisioned VM time accrues up to the end of the run; an execution
        // still running then is already counted as unfinished.
        self.capacity.wake(end_time);
        let cluster = &self.capacity;
        SimReport {
            records,
            rejected,
            policy: self.cfg.policy,
            unfinished: self.unfinished(),
            end_time,
            vm_worker_series: cluster.vm.worker_series.clone(),
            concurrency_series: cluster.vm.concurrency_series.clone(),
            cf_worker_series: cluster.cf.worker_series.clone(),
            scale_out_times: cluster.vm.scale_out_times.clone(),
            scale_in_times: cluster.vm.scale_in_times.clone(),
            total_resource_cost: cluster.total_resource_cost(),
            fault_stats: cluster.stats,
            tenant_names: self.tenant_names,
        }
    }

    /// The index [`QueryRecord::tenant`] carries for `tenant`, in order of
    /// first mention.
    pub(crate) fn intern(&mut self, tenant: &str) -> u32 {
        if let Some(&i) = self.tenant_ids.get(tenant) {
            return i;
        }
        let i = self.tenant_names.len() as u32;
        self.tenant_names.push(tenant.to_string());
        self.tenant_ids.insert(tenant.to_string(), i);
        i
    }

    /// Queries admitted but not completed: queued, or riding an execution.
    pub(crate) fn unfinished(&self) -> usize {
        self.queue.depth() + self.running.values().map(Vec::len).sum::<usize>()
    }

    /// Run `trace` (sorted by arrival time) and then drain: until everything
    /// completed or `max_drain` has passed since the last admission, checked
    /// once a second. Records and rejections go to `sink` as they happen;
    /// returns the time the run stopped.
    pub(crate) fn drive(
        &mut self,
        trace: Vec<Arrival>,
        max_drain: SimDuration,
        sink: &mut dyn FnMut(Outcome),
    ) -> SimTime {
        debug_assert!(trace.windows(2).all(|w| w[0].at <= w[1].at));
        let last_arrival = trace.last().map_or(SimTime::ZERO, |a| a.at);
        self.events.schedule(last_arrival, Event::DrainCheck);
        self.events.schedule(SimTime::ZERO, Event::Wake);
        self.trace = trace;
        // Arrivals stay in the sorted trace, read through this cursor; the
        // heap holds only in-flight events. An arrival leads every event at
        // or after its instant.
        let mut next_arrival = 0;
        let mut drain_end = None;
        loop {
            let (now, event) = match self.trace.get(next_arrival) {
                Some(a) if self.events.peek_time().is_none_or(|t| a.at <= t) => {
                    let i = next_arrival as u32;
                    next_arrival += 1;
                    (self.events.advance(a.at), Event::Arrive(i))
                }
                _ => self.events.pop().expect("the drain check ends the run"),
            };
            match event {
                Event::Arrive(i) => self.submit(i, now, sink),
                Event::ForceBound => {}
                Event::Wake => {
                    self.capacity.relaxed_backlog(self.queue.relaxed_depth());
                    let (done, next) = self.capacity.wake(now);
                    self.schedule_wake(next);
                    for d in done {
                        self.complete(d, sink);
                    }
                }
                Event::DrainCheck => {
                    let end = *drain_end.get_or_insert(now + max_drain);
                    if self.unfinished() == 0 || now >= end {
                        return now;
                    }
                    self.events
                        .schedule(now + SimDuration::from_secs(1), Event::DrainCheck);
                }
            }
            self.drain_queues(now);
        }
    }

    fn schedule_wake(&mut self, at: Option<SimTime>) {
        if let Some(at) = at {
            self.events.schedule(at, Event::Wake);
        }
    }

    fn load(&self) -> LoadSignal {
        LoadSignal::basic(self.capacity.overloaded(), self.capacity.nearly_idle())
    }

    /// Admit trace entry `i` at `now` (paper §3.2 admission) through the
    /// admission step the live server takes, [`FairQueue::admit`]; this
    /// driver only executes the verdict.
    fn submit(&mut self, i: u32, now: SimTime, sink: &mut dyn FnMut(Outcome)) {
        let Arrival {
            class,
            mode,
            tenant,
            ..
        } = self.trace[i as usize];
        let work = QueryWork::from_class(class);
        let batchable =
            self.cfg.batch_besteffort && mode == AdmissionMode::Level(ServiceLevel::BestEffort);
        let request = Request {
            id: i as u64,
            tenant: &self.tenant_names[tenant as usize],
            mode,
            // The class's work (the model the live server gets from the
            // planner) on the cores the capacity model has now.
            est_exec_us: mode.exec_estimate_us(self.capacity.cores(), || Some(work)),
            batch_key: batchable.then_some(class as u64),
        };
        let (policy, load, now_us) = (self.cfg.policy, self.load(), now.as_micros());
        match self.queue.admit(&policy, load, now_us, request) {
            Admission::DispatchNow => self.start(vec![(i, now)], work, false, now),
            Admission::Queue { deadline_us } => {
                self.waiting.insert(i as u64, now);
                // Fires exactly at the bound: a deadline query forced at its
                // latest feasible start still finishes on target.
                self.events
                    .schedule(SimTime::from_micros(deadline_us), Event::ForceBound);
            }
            Admission::Reject { reason } => sink(Outcome::Rejected(RejectedRecord {
                id: QueryId(i as u64),
                tenant,
                mode,
                at: now,
                reason,
            })),
        }
    }

    /// Hand one execution — a query, or a batch under its carrier
    /// `members[0]` — to the capacity model.
    fn start(&mut self, members: Vec<Ticket>, work: QueryWork, forced: bool, now: SimTime) {
        let carrier = QueryId(members[0].0 as u64);
        let cf_enabled = self.trace[members[0].0 as usize].mode.cf_enabled();
        let wake = self.capacity.start(carrier, work, cf_enabled, forced, now);
        self.schedule_wake(wake);
        self.running.insert(carrier, members);
    }

    /// Dispatch from the fair queue until the load signal says stop. Load is
    /// re-read every selection: each dispatch can flip the watermarks.
    fn drain_queues(&mut self, now: SimTime) {
        while let Some(grant) = self.queue.select(self.load(), now.as_micros()) {
            let mut ticket = |id: u64| {
                let admitted = self.waiting.remove(&id);
                (id as u32, admitted.expect("queued query has a ticket"))
            };
            let mut members = vec![ticket(grant.id)];
            let Arrival { class, mode, .. } = self.trace[grant.id as usize];
            let mut work = QueryWork::from_class(class);
            if grant.forced {
                // Forced starts never batch: the bound is the carrier's own
                // promise, and merged members would jump *their* bounds.
                self.stats.forced_starts += 1;
            } else if self.cfg.batch_besteffort
                && mode == AdmissionMode::Level(ServiceLevel::BestEffort)
            {
                let riders = self.queue.take_batch(class as u64, MAX_BATCH - 1);
                members.extend(riders.iter().map(|q| ticket(q.id)));
                if !riders.is_empty() {
                    // Shared scan: the table is read once; per-query CPU
                    // beyond the scan still scales with members, at the
                    // shared-work discount.
                    work.cpu_seconds = merged_cpu_seconds(work.cpu_seconds, members.len());
                    self.stats.batches += 1;
                    self.stats.batched_members += riders.len() as u64;
                }
            }
            self.start(members, work, grant.forced, now);
        }
    }

    /// One completed execution fans out into a record per member (a lone
    /// query is a batch of one). Every member is billed the bytes its own
    /// plan reads; the carrier carries the execution's provider cost and
    /// every rider none, as a live follower does.
    fn complete(&mut self, done: QueryCompletion, sink: &mut dyn FnMut(Outcome)) {
        let members = self.running.remove(&done.id);
        let members = members.expect("completion for unknown dispatch");
        for (m, &(i, submitted_at)) in members.iter().enumerate() {
            let Arrival {
                class,
                mode,
                tenant,
                ..
            } = self.trace[i as usize];
            sink(Outcome::Completed(QueryRecord {
                id: QueryId(i as u64),
                class,
                mode,
                tenant,
                submitted_at,
                dispatched_at: done.submitted_at,
                started_at: done.started_at,
                finished_at: done.finished_at,
                placement: done.placement,
                resource_cost: if m == 0 {
                    done.cost
                } else {
                    CostBreakdown::default()
                },
                price: PriceSchedule::default().bill(mode, done.scan_bytes),
                scan_bytes: done.scan_bytes,
                degraded: done.degraded,
                speculative: done.speculative,
            }));
        }
    }
}

/// Everything an experiment needs from one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    pub records: Vec<QueryRecord>,
    /// Submissions refused at admission (infeasible deadlines). Never
    /// ledgered, never executed.
    pub rejected: Vec<RejectedRecord>,
    /// Tenant names; [`QueryRecord::tenant`] indexes into this.
    pub tenant_names: Vec<String>,
    /// The admission policy the run used — the same knobs the live server
    /// derives its SLO thresholds from.
    pub policy: SchedulerPolicy,
    /// Queries still unfinished when the drain budget ran out.
    pub unfinished: usize,
    pub end_time: SimTime,
    pub vm_worker_series: pixels_sim::TimeSeries,
    pub concurrency_series: pixels_sim::TimeSeries,
    pub cf_worker_series: pixels_sim::TimeSeries,
    /// Virtual times of each scaling decision.
    pub scale_out_times: Vec<SimTime>,
    pub scale_in_times: Vec<SimTime>,
    pub total_resource_cost: CostBreakdown,
    /// Fault-recovery counters accumulated by the coordinator (all zero in
    /// fault-free runs).
    pub fault_stats: FaultStats,
}

impl SimReport {
    pub fn records_at(&self, level: ServiceLevel) -> impl Iterator<Item = &QueryRecord> {
        self.records
            .iter()
            .filter(move |r| r.mode == AdmissionMode::Level(level))
    }

    /// Records of deadline-mode queries.
    pub fn deadline_records(&self) -> impl Iterator<Item = &QueryRecord> {
        self.records
            .iter()
            .filter(|r| matches!(r.mode, AdmissionMode::Deadline { .. }))
    }

    pub fn tenant_name(&self, idx: u32) -> &str {
        &self.tenant_names[idx as usize]
    }

    /// Pending-time statistics per service level.
    pub fn pending_stats(&self, level: ServiceLevel) -> DurationStats {
        let mut s = DurationStats::new();
        for r in self.records_at(level) {
            s.record(r.pending());
        }
        s
    }

    /// Build the economics ledger for this run: one entry per completed
    /// query, in record order ([`QueryRecord::ledger_entry`]). Rejected
    /// submissions deliberately never appear here.
    pub fn ledger(&self) -> pixels_obs::Ledger {
        let ledger = pixels_obs::Ledger::new();
        for r in &self.records {
            ledger.append(r.ledger_entry(self.tenant_name(r.tenant)));
        }
        ledger
    }

    /// Replay the run's latencies through an [`pixels_obs::SloTracker`]
    /// whose objectives come from the run's own [`SchedulerPolicy`] — the
    /// identical code path the live server uses, on the virtual clock.
    /// Fixed levels record pending time against the level's bound; deadline
    /// queries record completion-latency excess over their own target
    /// against the zero threshold; rejected submissions count as violations
    /// of their mode's objective.
    pub fn slo_tracker(&self) -> pixels_obs::SloTracker {
        let clock = pixels_obs::SimClock::shared();
        clock.set_micros(self.end_time.as_micros());
        let tracker = pixels_obs::SloTracker::new(clock, self.policy.slo_objectives());
        for r in &self.records {
            tracker.record_at(r.mode.name(), r.slo_latency_us(), r.finished_at.as_micros());
        }
        for rej in &self.rejected {
            tracker.record_at(rej.mode.name(), u64::MAX, rej.at.as_micros());
        }
        tracker
    }

    /// Mean of `f` over a level's records (0 when there are none).
    fn mean_at(&self, level: ServiceLevel, f: impl Fn(&QueryRecord) -> f64) -> f64 {
        let (mut total, mut n) = (0.0, 0usize);
        for r in self.records_at(level) {
            total += f(r);
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    }

    /// Mean user price per query at a level.
    pub fn mean_price(&self, level: ServiceLevel) -> f64 {
        self.mean_at(level, |r| r.price)
    }

    /// Fraction of queries at a level that ran in CF.
    pub fn cf_fraction(&self, level: ServiceLevel) -> f64 {
        self.mean_at(level, |r| {
            matches!(r.placement, Placement::Cf { .. }) as u64 as f64
        })
    }

    /// Publish this run's scheduler/autoscaler statistics into a metrics
    /// registry, under the same naming convention the live server uses —
    /// one `/metrics` surface serves real executions and simulations alike.
    pub fn export_metrics(&self, registry: &pixels_obs::MetricsRegistry) {
        let levels = ServiceLevel::ALL.map(ServiceLevel::name);
        for level in levels.into_iter().chain([DEADLINE_LEVEL]) {
            let (mut n, mut cf) = (0u64, 0u64);
            for r in self.records.iter().filter(|r| r.mode.name() == level) {
                n += 1;
                cf += matches!(r.placement, Placement::Cf { .. }) as u64;
                for (name, help, value) in [
                    (
                        "pixels_sim_query_pending_seconds",
                        "Simulated time from submission to execution start",
                        r.pending(),
                    ),
                    (
                        "pixels_sim_query_execution_seconds",
                        "Simulated query execution time",
                        r.execution(),
                    ),
                ] {
                    let histogram = registry.histogram(name, help, &[], None);
                    histogram.observe(value.as_secs_f64());
                }
            }
            for (name, help, value) in [
                (
                    "pixels_sim_queries_total",
                    "Simulated queries completed, per service level",
                    n,
                ),
                (
                    "pixels_sim_cf_queries_total",
                    "Simulated queries placed on the cloud-function tier",
                    cf,
                ),
            ] {
                let counter = registry.counter_with(name, help, &[("level", level)]);
                counter.add(value);
            }
        }
        for (name, help, value) in [
            (
                "pixels_sim_rejected_total",
                "Simulated submissions refused at admission (infeasible deadline)",
                self.rejected.len() as u64,
            ),
            (
                "pixels_turbo_vm_scale_out_events_total",
                "VM cluster scale-out decisions",
                self.scale_out_times.len() as u64,
            ),
            (
                "pixels_turbo_vm_scale_in_events_total",
                "VM cluster scale-in decisions",
                self.scale_in_times.len() as u64,
            ),
            (
                "pixels_turbo_cf_crashes_total",
                "CF fleets that crashed mid-run",
                self.fault_stats.cf_crashes,
            ),
            (
                "pixels_turbo_cf_retries_total",
                "Crashed CF sub-plans relaunched on a fresh fleet",
                self.fault_stats.cf_retries,
            ),
            (
                "pixels_turbo_cf_degradations_total",
                "Queries degraded from the CF tier to the VM tier",
                self.fault_stats.cf_degradations,
            ),
            (
                "pixels_turbo_cf_stragglers_total",
                "CF runs that exceeded the straggler deadline",
                self.fault_stats.stragglers_detected,
            ),
            (
                "pixels_speculative_launches_total",
                "Speculative duplicate CF fleets launched",
                self.fault_stats.speculative_launches,
            ),
            (
                "pixels_sim_vm_preemptions_total",
                "VM workers lost to simulated spot reclaim",
                self.fault_stats.vm_preemptions,
            ),
        ] {
            registry.counter(name, help).add(value);
        }
        let peak = self
            .vm_worker_series
            .max_over(SimTime::ZERO, self.end_time + SimDuration::from_secs(1));
        if peak.is_finite() {
            let help = "Peak VM worker count over the simulated run";
            registry.gauge("pixels_sim_vm_workers_peak", help).set(peak);
        }
        // SLO and economics families, via the exact exporters the live
        // server mounts — one dollar/burn-rate surface for both drivers.
        self.slo_tracker().export(registry);
        let ledger = self.ledger();
        ledger.export(registry);
        // CF spend the per-query attribution cannot explain (e.g. fleets
        // that crashed before any query completed on them).
        let attributed = ledger.summary().cf_dollars;
        let cost = self.total_resource_cost;
        for (component, dollars) in [("vm", cost.vm_dollars), ("cf", cost.cf_dollars)] {
            registry
                .gauge_with(
                    "pixels_sim_resource_cost_dollars",
                    "Provider-side resource cost of the simulated run",
                    &[("component", component)],
                )
                .set(dollars);
        }
        pixels_obs::Ledger::provider_gauge(registry, "cf_unattributed")
            .set((cost.cf_dollars - attributed).max(0.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixels_turbo::vm_cluster::CORES_PER_WORKER;

    fn burst(n: u64, at: SimTime, class: QueryClass, level: ServiceLevel) -> Vec<Submission> {
        (0..n).map(|_| Submission { at, class, level }).collect()
    }

    #[test]
    fn immediate_queries_never_wait() {
        let sim = ServerSim::with_defaults();
        let mut subs = burst(
            12,
            SimTime::from_secs(1),
            QueryClass::Medium,
            ServiceLevel::Immediate,
        );
        subs.extend(burst(
            3,
            SimTime::from_secs(2),
            QueryClass::Heavy,
            ServiceLevel::Immediate,
        ));
        let report = sim.run(subs, SimDuration::from_secs(3600));
        assert_eq!(report.unfinished, 0);
        let stats = report.pending_stats(ServiceLevel::Immediate);
        assert_eq!(stats.count(), 15);
        assert_eq!(
            stats.max(),
            SimDuration::ZERO,
            "immediate = zero pending time"
        );
        // The overflow beyond the high watermark must have used CF.
        assert!(report.cf_fraction(ServiceLevel::Immediate) > 0.4);
    }

    #[test]
    fn relaxed_pending_bounded_by_grace_period() {
        let cfg = ServerConfig::default();
        let sim = ServerSim::new(VmConfig::default(), cfg);
        // Overload with a spike of relaxed queries.
        let subs = burst(
            25,
            SimTime::from_secs(1),
            QueryClass::Medium,
            ServiceLevel::Relaxed,
        );
        let report = sim.run(subs, SimDuration::from_secs(7200));
        assert_eq!(report.unfinished, 0);
        let stats = report.pending_stats(ServiceLevel::Relaxed);
        // Pending includes server-queue time (≤ grace) plus engine-queue
        // time once dispatched; the server-side wait must never exceed the
        // grace period.
        for r in report.records_at(ServiceLevel::Relaxed) {
            let server_wait = r.dispatched_at.since(r.submitted_at);
            assert!(
                server_wait <= SimDuration::from_secs(300),
                "server wait {server_wait} exceeded grace"
            );
        }
        assert!(stats.max() > SimDuration::ZERO, "some queries queued");
        // No relaxed query may use CF.
        assert_eq!(report.cf_fraction(ServiceLevel::Relaxed), 0.0);
    }

    #[test]
    fn besteffort_runs_only_when_nearly_idle() {
        let sim = ServerSim::with_defaults();
        // A sustained foreground load plus best-effort backfill.
        let mut subs = Vec::new();
        for i in 0..10 {
            subs.push(Submission {
                at: SimTime::from_secs(i * 5),
                class: QueryClass::Medium,
                level: ServiceLevel::Immediate,
            });
        }
        subs.extend(burst(
            5,
            SimTime::from_secs(2),
            QueryClass::Light,
            ServiceLevel::BestEffort,
        ));
        let report = sim.run(subs, SimDuration::from_secs(7200));
        assert_eq!(report.unfinished, 0);
        // Best-effort queries never run in CF and may wait a long time.
        assert_eq!(report.cf_fraction(ServiceLevel::BestEffort), 0.0);
        let be: Vec<_> = report.records_at(ServiceLevel::BestEffort).collect();
        assert_eq!(be.len(), 5);
    }

    #[test]
    fn prices_follow_levels() {
        let sim = ServerSim::with_defaults();
        let mut subs = Vec::new();
        for level in ServiceLevel::ALL {
            subs.push(Submission {
                at: SimTime::from_secs(1),
                class: QueryClass::Medium,
                level,
            });
        }
        let report = sim.run(subs, SimDuration::from_secs(3600));
        assert_eq!(report.unfinished, 0);
        let pi = report.mean_price(ServiceLevel::Immediate);
        let pr = report.mean_price(ServiceLevel::Relaxed);
        let pb = report.mean_price(ServiceLevel::BestEffort);
        assert!(pi > 0.0);
        assert!((pr / pi - 0.2).abs() < 1e-9, "relaxed is 20%: {pr} vs {pi}");
        assert!((pb / pi - 0.1).abs() < 1e-9, "best-effort is 10%");
    }

    #[test]
    fn besteffort_batching_shares_the_scan() {
        let make = |batching: bool| {
            let cfg = ServerConfig {
                batch_besteffort: batching,
                ..Default::default()
            };
            let sim = ServerSim::new(VmConfig::default(), cfg);
            // Keep the cluster busy briefly, then 6 identical best-effort
            // queries that the server can batch.
            let mut subs = vec![Submission {
                at: SimTime::from_secs(1),
                class: QueryClass::Medium,
                level: ServiceLevel::Immediate,
            }];
            for _ in 0..6 {
                subs.push(Submission {
                    at: SimTime::from_secs(2),
                    class: QueryClass::Medium,
                    level: ServiceLevel::BestEffort,
                });
            }
            sim.run(subs, SimDuration::from_secs(3600))
        };
        let plain = make(false);
        let batched = make(true);
        assert_eq!(plain.unfinished, 0);
        assert_eq!(batched.unfinished, 0);
        let be = |r: &SimReport| -> Vec<QueryRecord> {
            r.records_at(ServiceLevel::BestEffort).copied().collect()
        };
        let (plain, batched) = (be(&plain), be(&batched));
        assert_eq!(batched.len(), 6);
        // Sharing never changes a bill: each query pays for the bytes its
        // own plan reads, exactly what it pays run one by one.
        for (p, b) in plain.iter().zip(&batched) {
            assert_eq!(p.id, b.id);
            assert_eq!(p.scan_bytes, b.scan_bytes, "{:?}", b.id);
            assert_eq!(p.price.to_bits(), b.price.to_bits(), "{:?}", b.id);
        }
        // Members of one execution share its dispatch, start and finish.
        // The carrier carries the execution's whole provider cost — its
        // merged CPU on the VM tier — and every rider carries none.
        let mut executions: HashMap<(SimTime, SimTime, SimTime), Vec<&QueryRecord>> =
            HashMap::new();
        for r in &batched {
            let key = (r.dispatched_at, r.started_at, r.finished_at);
            executions.entry(key).or_default().push(r);
        }
        assert!(
            executions.len() < batched.len(),
            "some queries rode on another's execution"
        );
        let solo_cpu = QueryWork::from_class(QueryClass::Medium).cpu_seconds;
        for members in executions.values() {
            let merged = merged_cpu_seconds(solo_cpu, members.len());
            let execution = CostBreakdown {
                vm_dollars: pixels_turbo::billing::vm_cost(merged),
                cf_dollars: 0.0,
            };
            let mut costs: Vec<_> = members.iter().map(|r| r.resource_cost).collect();
            costs.retain(|c| *c != CostBreakdown::default());
            assert_eq!(costs, [execution], "one carrier, riders pay nothing");
        }
        // Provider-side cost shrinks: less CPU than 6 separate runs.
        let cost = |r: &[QueryRecord]| -> f64 { r.iter().map(|q| q.resource_cost.total()).sum() };
        assert!(cost(&batched) < cost(&plain));
    }

    #[test]
    fn merged_cpu_grows_sublinearly() {
        let solo = 10.0;
        assert_eq!(merged_cpu_seconds(solo, 1), solo);
        let four = merged_cpu_seconds(solo, 4);
        assert!((four - 10.0 * (1.0 + 0.55 * 3.0)).abs() < 1e-12);
        // A 4-way batch is much cheaper than 4 solo runs.
        assert!(four < 4.0 * solo);
        // ...but still monotone in members.
        assert!(merged_cpu_seconds(solo, 5) > four);
        // Degenerate sizes don't underflow.
        assert_eq!(merged_cpu_seconds(solo, 0), solo);
    }

    #[test]
    fn report_exports_valid_metrics() {
        let sim = ServerSim::with_defaults();
        let subs = burst(
            12,
            SimTime::from_secs(1),
            QueryClass::Medium,
            ServiceLevel::Immediate,
        );
        let report = sim.run(subs, SimDuration::from_secs(3600));
        let registry = pixels_obs::MetricsRegistry::new();
        report.export_metrics(&registry);
        let text = registry.render();
        let families = pixels_obs::validate_exposition(&text).expect("valid exposition");
        for required in [
            "pixels_sim_queries_total",
            "pixels_sim_cf_queries_total",
            "pixels_sim_query_pending_seconds",
            "pixels_sim_query_execution_seconds",
            "pixels_turbo_vm_scale_out_events_total",
            "pixels_sim_resource_cost_dollars",
            "pixels_slo_good_total",
            "pixels_slo_violation_total",
            "pixels_slo_burn_rate",
            "pixels_ledger_entries_total",
            "pixels_ledger_revenue_dollars",
            "pixels_ledger_provider_dollars",
        ] {
            assert!(families.contains(required), "missing {required} in {text}");
        }
        assert!(
            text.contains(r#"pixels_sim_queries_total{level="immediate"} 12"#),
            "{text}"
        );
        assert!(
            text.contains(r#"pixels_slo_good_total{level="immediate"} 12"#),
            "immediate queries never wait, so all 12 meet the objective: {text}"
        );
        assert!(
            text.contains(r#"pixels_ledger_entries_total{level="immediate"} 12"#),
            "{text}"
        );
        assert!(text.contains(r#"component="cf_unattributed""#), "{text}");
    }

    #[test]
    fn ledger_reconciles_bit_for_bit_with_records() {
        let subs: Vec<Submission> = (0..18)
            .map(|i| Submission {
                at: SimTime::from_millis(i * 800),
                class: if i % 4 == 0 {
                    QueryClass::Heavy
                } else {
                    QueryClass::Light
                },
                level: ServiceLevel::ALL[(i % 3) as usize],
            })
            .collect();
        let report = ServerSim::with_defaults().run(subs, SimDuration::from_secs(7200));
        assert_eq!(report.unfinished, 0);
        // Entries are appended in record order; every dollar and byte is the
        // record's own, not a recomputation — so each sum is the records'
        // own fold, overall and per level: equality is exact, not fuzzy.
        let ledger = report.ledger();
        assert_eq!(ledger.by_tenant().keys().collect::<Vec<_>>(), ["sim"]);
        let mut by_level = ledger.by_level();
        by_level.insert("all".into(), ledger.summary());
        for (level, s) in by_level {
            let records: Vec<&QueryRecord> = (report.records.iter())
                .filter(|r| level == "all" || r.mode.name() == level)
                .collect();
            let fold = |f: fn(&QueryRecord) -> f64| {
                (records.iter()).fold(0.0f64, |acc, r| acc + f(r)).to_bits()
            };
            let count = |f: fn(&QueryRecord) -> bool| records.iter().filter(|r| f(r)).count();
            assert_eq!(s.entries as usize, records.len(), "{level}");
            assert_eq!(s.bytes_billed, records.iter().map(|r| r.scan_bytes).sum());
            assert_eq!(s.revenue_dollars.to_bits(), fold(|r| r.price));
            assert_eq!(s.vm_dollars.to_bits(), fold(|r| r.resource_cost.vm_dollars));
            assert_eq!(s.cf_dollars.to_bits(), fold(|r| r.resource_cost.cf_dollars));
            assert_eq!(s.degraded as usize, count(|r| r.degraded));
            assert_eq!(s.speculative as usize, count(|r| r.speculative));
        }
    }

    #[test]
    fn slo_tracker_derives_thresholds_from_the_run_policy() {
        let grace = SimDuration::from_millis(250);
        let cfg = ServerConfig {
            policy: SchedulerPolicy {
                grace,
                ..Default::default()
            },
            ..Default::default()
        };
        let sim = ServerSim::new(VmConfig::default(), cfg);
        let heavy = |mode| TenantSubmission {
            at: SimTime::from_secs(1),
            class: QueryClass::Heavy,
            mode,
            tenant: "sim".to_string(),
        };
        let mut subs = vec![heavy(AdmissionMode::Level(ServiceLevel::Relaxed)); 25];
        // A heavy query cannot finish in 100 ms: refused at admission.
        subs.push(heavy(AdmissionMode::Deadline { target_us: 100_000 }));
        let report = sim.run_tenants(subs, SimDuration::from_secs(4 * 3600));
        assert_eq!(report.unfinished, 0);
        assert_eq!(report.rejected.len(), 1);
        let tracker = report.slo_tracker();
        assert_eq!(tracker.threshold_us("relaxed"), Some(grace.as_micros()));
        assert_eq!(
            tracker.threshold_us("immediate"),
            Some(crate::scheduler::IMMEDIATE_SLO_US)
        );
        // Every record and every rejection lands in exactly one SLO bucket.
        let registry = pixels_obs::MetricsRegistry::new();
        tracker.export(&registry);
        let text = registry.render();
        pixels_obs::validate_exposition(&text).expect("valid exposition");
        let count = |needle: &str| -> u64 {
            text.lines()
                .filter(|l| l.starts_with(needle))
                .filter_map(|l| l.rsplit(' ').next())
                .filter_map(|v| v.parse::<f64>().ok())
                .map(|v| v as u64)
                .sum()
        };
        let good = count("pixels_slo_good_total");
        let bad = count("pixels_slo_violation_total");
        let judged = (report.records.len() + report.rejected.len()) as u64;
        assert_eq!(good + bad, judged, "{text}");
        // The rejection burns error budget. The spike does not: a forced
        // start lands exactly on the bound, and the bound meets the
        // objective.
        assert!(bad > 0, "a rejection must burn error budget: {text}");
        assert_eq!(count(r#"pixels_slo_violation_total{level="deadline"}"#), 1);
        assert_eq!(count(r#"pixels_slo_violation_total{level="relaxed"}"#), 0);
    }

    #[test]
    fn chaotic_run_completes_and_reports_fault_stats() {
        use pixels_chaos::{FaultPlan, FaultSite, SiteSpec};
        // Every CF fleet crashes: immediate queries placed on CF during the
        // spike must degrade to the VM tier, yet every query completes and
        // every completed query is still billed for its scan.
        let plan = FaultPlan::none(31).with(FaultSite::CfCrash, SiteSpec::errors(1.0));
        let run = |chaos: bool| {
            let mut sim = ServerSim::with_defaults();
            if chaos {
                sim = sim.with_fault_injector(Arc::new(FaultInjector::new(&plan)));
            }
            let subs = burst(
                12,
                SimTime::from_secs(1),
                QueryClass::Medium,
                ServiceLevel::Immediate,
            );
            sim.run(subs, SimDuration::from_secs(14400))
        };
        let clean = run(false);
        let chaotic = run(true);
        assert_eq!(chaotic.unfinished, 0, "no query may be lost to faults");
        assert!(chaotic.fault_stats.cf_crashes > 0);
        assert!(chaotic.fault_stats.cf_degradations > 0);
        let degraded = chaotic.records.iter().filter(|r| r.degraded).count();
        assert!(degraded > 0, "degraded queries are flagged");
        // Billed scan bytes are placement-independent: the user pays the
        // same $/TB whether the query survived on CF or degraded to VMs.
        let billed = |r: &SimReport| -> u64 { r.records.iter().map(|q| q.scan_bytes).sum() };
        assert_eq!(billed(&clean), billed(&chaotic));
        // Provider-side cost grows: the crashed fleets stay billed.
        assert!(
            chaotic.total_resource_cost.cf_dollars > 0.0,
            "crashed CF fleets remain charged"
        );
        // Exported metrics carry the fault families.
        let registry = pixels_obs::MetricsRegistry::new();
        chaotic.export_metrics(&registry);
        let text = registry.render();
        pixels_obs::validate_exposition(&text).expect("valid exposition");
        assert!(text.contains("pixels_turbo_cf_crashes_total"));
        assert!(text.contains("pixels_turbo_cf_degradations_total"));
        // Ledger reconciliation holds under chaos: every completed query has
        // an entry carrying its record's exact dollars, and CF spend the
        // entries cannot explain (crashed fleets) shows up unattributed,
        // never silently dropped.
        let summary = chaotic.ledger().summary();
        assert_eq!(summary.entries as usize, chaotic.records.len());
        let folded_revenue = chaotic.records.iter().fold(0.0f64, |acc, r| acc + r.price);
        assert_eq!(summary.revenue_dollars.to_bits(), folded_revenue.to_bits());
        assert!(summary.degraded > 0, "degraded queries reach the ledger");
        let attributed = summary.cf_dollars;
        assert!(
            chaotic.total_resource_cost.cf_dollars - attributed > -1e-9,
            "attribution cannot exceed total CF spend: {attributed} vs {}",
            chaotic.total_resource_cost.cf_dollars
        );
    }

    #[test]
    fn chaotic_run_is_deterministic_for_a_seed() {
        use pixels_chaos::{FaultPlan, FaultSite, SiteSpec};
        let plan = FaultPlan::none(8)
            .with(FaultSite::CfCrash, SiteSpec::errors(0.5))
            .with(FaultSite::VmPreempt, SiteSpec::errors(0.01));
        let run = || {
            let sim =
                ServerSim::with_defaults().with_fault_injector(Arc::new(FaultInjector::new(&plan)));
            let subs: Vec<Submission> = (0..15)
                .map(|i| Submission {
                    at: SimTime::from_millis(i * 900),
                    class: if i % 3 == 0 {
                        QueryClass::Heavy
                    } else {
                        QueryClass::Medium
                    },
                    level: ServiceLevel::ALL[(i % 3) as usize],
                })
                .collect();
            sim.run(subs, SimDuration::from_secs(14400))
        };
        let a = run();
        let b = run();
        assert_eq!(a.records, b.records);
        assert_eq!(a.fault_stats, b.fault_stats);
        assert_eq!(a.unfinished, 0);
    }

    /// A heavy relaxed spike at `at`: the first few fill the cluster to the
    /// high watermark and run far longer than `grace`; everyone else queues
    /// and must force-start at exactly submitted + grace.
    fn assert_spike_forced_at_grace(grace: SimDuration, at: SimTime) {
        let cfg = ServerConfig {
            policy: SchedulerPolicy {
                grace,
                ..Default::default()
            },
            ..Default::default()
        };
        let sim = ServerSim::new(VmConfig::default(), cfg);
        let subs = burst(25, at, QueryClass::Heavy, ServiceLevel::Relaxed);
        let report = sim.run(subs, SimDuration::from_secs(4 * 3600));
        assert_eq!(report.unfinished, 0);
        let queued: Vec<_> = report
            .records_at(ServiceLevel::Relaxed)
            .filter(|r| r.dispatched_at > r.submitted_at)
            .collect();
        assert!(queued.len() >= 10, "spike must overload: {}", queued.len());
        for r in &queued {
            assert_eq!(r.submitted_at, at);
            assert_eq!(
                r.dispatched_at.since(r.submitted_at),
                grace,
                "forced start lands exactly at grace expiry"
            );
            assert_eq!(
                r.started_at, r.dispatched_at,
                "a forced start bypasses the engine queue"
            );
        }
    }

    #[test]
    fn grace_expiry_forces_start_exactly_at_the_bound() {
        assert_spike_forced_at_grace(SimDuration::from_secs(5), SimTime::from_secs(1));
    }

    #[test]
    fn off_grid_grace_forces_start_exactly_at_the_bound() {
        // Neither the arrival nor the bound is a multiple of any step.
        let at = SimTime::from_micros(1_000_037);
        assert_spike_forced_at_grace(SimDuration::from_millis(250), at);
    }

    #[test]
    fn records_keep_their_trace_arrival() {
        // Poisson arrivals fall anywhere: each query is admitted, and its
        // record submitted, at its own arrival instant.
        let arrivals = pixels_workload::poisson(0.5, SimDuration::from_secs(600), 5);
        assert!(arrivals.iter().any(|a| a.as_micros() % 100_000 != 0));
        let subs: Vec<Submission> = (arrivals.iter().enumerate())
            .map(|(i, &at)| Submission {
                at,
                class: QueryClass::ALL[i % 3],
                level: ServiceLevel::ALL[i % 3],
            })
            .collect();
        let report = ServerSim::with_defaults().run(subs.clone(), SimDuration::from_secs(4 * 3600));
        assert_eq!(report.unfinished, 0);
        assert_eq!(report.records.len(), subs.len());
        for r in &report.records {
            assert_eq!(r.submitted_at, subs[r.id.0 as usize].at, "{r:?}");
        }
    }

    #[test]
    fn besteffort_starvation_is_bounded_by_max_wait() {
        let bound = SimDuration::from_secs(30);
        let cfg = ServerConfig {
            policy: SchedulerPolicy {
                besteffort_max_wait: bound,
                ..Default::default()
            },
            ..Default::default()
        };
        let sim = ServerSim::new(VmConfig::default(), cfg);
        // Five heavy foreground queries keep the cluster from ever dropping
        // below the low watermark within the bound; the best-of-effort query
        // still starts — exactly at the starvation limit.
        let mut subs = burst(5, SimTime::ZERO, QueryClass::Heavy, ServiceLevel::Immediate);
        subs.push(Submission {
            at: SimTime::from_secs(1),
            class: QueryClass::Light,
            level: ServiceLevel::BestEffort,
        });
        let report = sim.run(subs, SimDuration::from_secs(4 * 3600));
        assert_eq!(report.unfinished, 0);
        let be: Vec<_> = report.records_at(ServiceLevel::BestEffort).collect();
        assert_eq!(be.len(), 1);
        assert_eq!(
            be[0].dispatched_at.since(be[0].submitted_at),
            bound,
            "best-of-effort force-starts at its starvation bound"
        );
        assert_eq!(be[0].started_at, be[0].dispatched_at);
    }

    #[test]
    fn relaxed_dispatches_early_when_headroom_appears_mid_scale_in() {
        let sim = ServerSim::with_defaults();
        // Fill the cluster with mediums, then one more relaxed query: it
        // queues under overload and must dispatch — unforced — the moment a
        // foreground query drains, long before its 300 s grace deadline.
        let mut subs = burst(
            6,
            SimTime::from_secs(1),
            QueryClass::Medium,
            ServiceLevel::Relaxed,
        );
        subs.push(Submission {
            at: SimTime::from_secs(2),
            class: QueryClass::Light,
            level: ServiceLevel::Relaxed,
        });
        let report = sim.run(subs, SimDuration::from_secs(7200));
        assert_eq!(report.unfinished, 0);
        let late = report
            .records
            .iter()
            .find(|r| r.class == QueryClass::Light)
            .unwrap();
        let server_wait = late.dispatched_at.since(late.submitted_at);
        assert!(
            server_wait > SimDuration::ZERO,
            "the straggling submission must queue behind the spike"
        );
        assert!(
            server_wait < SimDuration::from_secs(300),
            "headroom dispatch must beat the grace deadline: {server_wait}"
        );
        assert_eq!(
            late.started_at, late.dispatched_at,
            "an unforced headroom dispatch starts immediately"
        );
    }

    #[test]
    fn report_is_deterministic() {
        let subs: Vec<Submission> = (0..20)
            .map(|i| Submission {
                at: SimTime::from_millis(i * 700),
                class: if i % 3 == 0 {
                    QueryClass::Heavy
                } else {
                    QueryClass::Light
                },
                level: ServiceLevel::ALL[(i % 3) as usize],
            })
            .collect();
        let a = ServerSim::with_defaults().run(subs.clone(), SimDuration::from_secs(7200));
        let b = ServerSim::with_defaults().run(subs, SimDuration::from_secs(7200));
        assert_eq!(a.records, b.records);
        assert_eq!(a.scale_out_times, b.scale_out_times);
    }

    #[test]
    fn deadline_mode_admits_feasible_rejects_infeasible() {
        let sim = ServerSim::with_defaults();
        let subs = vec![
            // Feasible: a light query with a generous 120 s target.
            TenantSubmission {
                at: SimTime::from_secs(1),
                class: QueryClass::Light,
                mode: AdmissionMode::Deadline {
                    target_us: 120_000_000,
                },
                tenant: "acme".to_string(),
            },
            // Infeasible: a heavy query demanding completion in 100 ms.
            TenantSubmission {
                at: SimTime::from_secs(1),
                class: QueryClass::Heavy,
                mode: AdmissionMode::Deadline { target_us: 100_000 },
                tenant: "acme".to_string(),
            },
        ];
        let report = sim.run_tenants(subs, SimDuration::from_secs(3600));
        assert_eq!(report.unfinished, 0);
        assert_eq!(report.rejected.len(), 1, "infeasible target is refused");
        let finished: Vec<_> = report.deadline_records().collect();
        assert_eq!(finished.len(), 1);
        // The feasible one met its target on an idle cluster.
        assert!(finished[0].total_latency() <= SimDuration::from_secs(120));
        // Deadline pricing: 120 s target → 0.5× the Immediate rate.
        let expected = report.records[0].scan_bytes as f64 / pixels_common::bytesize::TB as f64
            * pixels_common::prices::IMMEDIATE_PER_TB
            * 0.5;
        assert!((finished[0].price - expected).abs() < 1e-9);
        // Rejected queries never reach the ledger; the completed one does.
        let ledger = report.ledger();
        assert_eq!(ledger.summary().entries, 1);
        assert_eq!(ledger.by_tenant()["acme"].entries, 1);
        assert_eq!(ledger.by_level()["deadline"].entries, 1);
        // The SLO tracker saw both: one good (met target), one violation
        // (the rejection).
        let registry = pixels_obs::MetricsRegistry::new();
        report.export_metrics(&registry);
        let text = registry.render();
        assert!(
            text.contains(r#"pixels_slo_good_total{level="deadline"} 1"#),
            "{text}"
        );
        assert!(
            text.contains(r#"pixels_slo_violation_total{level="deadline"} 1"#),
            "{text}"
        );
        assert!(text.contains("pixels_sim_rejected_total 1"), "{text}");
    }

    /// Each class at each of six targets, one query at a time (ten minutes
    /// apart) on an idle fixed fleet of `workers` 8-core workers. Returns the
    /// report, the submissions (a record's id indexes them) and the cores.
    fn lone_deadlines(workers: u32) -> (SimReport, Vec<TenantSubmission>, u32) {
        let fleet = VmConfig {
            min_workers: workers,
            max_workers: workers,
            ..VmConfig::default()
        };
        let targets_ms = [100, 1_000, 3_000, 10_000, 20_000, 60_000];
        let subs: Vec<TenantSubmission> = (targets_ms.iter())
            .flat_map(|&ms| QueryClass::ALL.map(|class| (ms, class)))
            .enumerate()
            .map(|(i, (ms, class))| TenantSubmission {
                at: SimTime::from_secs(600 * i as u64),
                class,
                mode: AdmissionMode::Deadline {
                    target_us: ms * 1_000,
                },
                tenant: "acme".to_string(),
            })
            .collect();
        let sim = ServerSim::new(fleet, ServerConfig::default());
        let report = sim.run_tenants(subs.clone(), SimDuration::from_secs(3600));
        assert_eq!(report.unfinished, 0);
        assert!(!report.records.is_empty() && !report.rejected.is_empty());
        (report, subs, workers * CORES_PER_WORKER)
    }

    fn target_us(mode: AdmissionMode) -> u64 {
        match mode {
            AdmissionMode::Deadline { target_us } => target_us,
            AdmissionMode::Level(_) => unreachable!("deadline submissions only"),
        }
    }

    #[test]
    fn an_admitted_deadline_finishes_by_its_target_on_an_idle_cluster() {
        // Heavy work at a 20 s target runs 27.5 s on one worker (220
        // CPU-seconds on 8 cores), so it must be refused there.
        for workers in [1, 12] {
            let (report, _, cores) = lone_deadlines(workers);
            for r in report.deadline_records() {
                let target = target_us(r.mode);
                assert!(
                    r.total_latency().as_micros() <= target,
                    "{workers} workers: {:?} took {} for a {target} µs target",
                    r.class,
                    r.total_latency()
                );
                // Alone on the cluster it runs for exactly the estimate.
                let estimate = QueryWork::from_class(r.class).exec_time_on_cores(cores);
                assert_eq!(r.total_latency(), estimate);
            }
        }
    }

    #[test]
    fn a_rejected_deadline_cannot_be_met_even_on_an_idle_cluster() {
        // Heavy work at 10 s is refused on one worker (27.5 s) and admitted
        // on twelve, where 64 of 96 cores run it in 3.4375 s.
        for workers in [1, 12] {
            let (report, subs, cores) = lone_deadlines(workers);
            for rejected in &report.rejected {
                let s = &subs[rejected.id.0 as usize];
                let estimate = QueryWork::from_class(s.class).exec_time_on_cores(cores);
                assert!(
                    estimate.as_micros() > target_us(s.mode),
                    "{workers} workers: {:?} estimated {estimate} was refused a {} µs target",
                    s.class,
                    target_us(s.mode)
                );
            }
        }
    }

    #[test]
    fn fair_queue_prevents_tenant_starvation_in_sim() {
        // An adversarial tenant floods the queue before a light tenant's
        // single query arrives; once the overload clears, DRR serves both
        // tenants per rotation — the light query must not wait for the
        // adversary's entire backlog.
        let subs_for = |light_at: SimTime| {
            let mut subs: Vec<TenantSubmission> = (0..30)
                .map(|i| TenantSubmission {
                    at: SimTime::from_millis(1000 + i),
                    class: QueryClass::Medium,
                    mode: AdmissionMode::Level(ServiceLevel::Relaxed),
                    tenant: "adversary".to_string(),
                })
                .collect();
            subs.push(TenantSubmission {
                at: light_at,
                class: QueryClass::Medium,
                mode: AdmissionMode::Level(ServiceLevel::Relaxed),
                tenant: "light".to_string(),
            });
            subs
        };
        let report = ServerSim::with_defaults().run_tenants(
            subs_for(SimTime::from_secs(2)),
            SimDuration::from_secs(7200),
        );
        assert_eq!(report.unfinished, 0);
        let light_idx = report
            .tenant_names
            .iter()
            .position(|t| t == "light")
            .unwrap() as u32;
        let light = report
            .records
            .iter()
            .find(|r| r.tenant == light_idx)
            .unwrap();
        let adversary_waits: Vec<SimDuration> = report
            .records
            .iter()
            .filter(|r| r.tenant != light_idx && r.dispatched_at > r.submitted_at)
            .map(|r| r.dispatched_at.since(r.submitted_at))
            .collect();
        assert!(
            !adversary_waits.is_empty(),
            "the flood must overload the cluster"
        );
        let worst_adversary = adversary_waits.iter().max().unwrap();
        let light_wait = light.dispatched_at.since(light.submitted_at);
        assert!(
            light_wait < *worst_adversary,
            "fair queueing must serve the light tenant ({light_wait}) before the \
             adversary's tail ({worst_adversary})"
        );
    }

    #[test]
    fn multi_tenant_run_attributes_ledger_per_tenant() {
        let subs: Vec<TenantSubmission> = (0..12)
            .map(|i| TenantSubmission {
                at: SimTime::from_millis(500 * i),
                class: QueryClass::Light,
                mode: AdmissionMode::Level(ServiceLevel::ALL[(i % 3) as usize]),
                tenant: format!("t{}", i % 4),
            })
            .collect();
        let report = ServerSim::with_defaults().run_tenants(subs, SimDuration::from_secs(7200));
        assert_eq!(report.unfinished, 0);
        assert_eq!(report.tenant_names.len(), 4);
        let ledger = report.ledger();
        let by_tenant = ledger.by_tenant();
        assert_eq!(by_tenant.len(), 4);
        // Per-tenant revenue folds reconcile with the records exactly.
        for (tenant, summary) in &by_tenant {
            let idx = report
                .tenant_names
                .iter()
                .position(|t| t == tenant)
                .unwrap() as u32;
            let folded = report
                .records
                .iter()
                .filter(|r| r.tenant == idx)
                .fold(0.0f64, |acc, r| acc + r.price);
            assert_eq!(summary.revenue_dollars.to_bits(), folded.to_bits());
        }
    }
}
