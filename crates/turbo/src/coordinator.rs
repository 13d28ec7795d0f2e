//! The Pixels-Turbo coordinator (paper §2): the only long-running component.
//!
//! It receives queries from the query server, decides where each executes
//! (VM cluster by default, CF acceleration when the cluster is overloaded
//! *and* the client enabled CF for the query), tracks the cluster's load
//! status for the query server's admission checks, and collects per-query
//! statistics (pending time, execution time, resource cost).

use crate::billing::{self, CostBreakdown, Placement};
use crate::cf_service::CfService;
use crate::model::QueryWork;
use crate::policy::{self, CfEffects, CfRace, Decision, RaceInput};
use crate::vm_cluster::{VmCluster, VmConfig};
use pixels_chaos::{FaultInjector, FaultSite, Inject};
use pixels_common::QueryId;
use pixels_sim::{SimDuration, SimTime};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

/// Everything the coordinator remembers about an in-flight query.
#[derive(Debug)]
struct InFlight {
    submitted_at: SimTime,
    work: QueryWork,
    /// Shared policy state machine for the CF attempt race (`None` for
    /// VM-only queries). All relaunch/speculation/degradation decisions are
    /// made by [`CfRace::step`], never here.
    race: Option<CfRace>,
    /// The query fell back from CF to the VM tier.
    degraded: bool,
    /// Present for two-stage exchange plans ([`Coordinator::submit_shuffle`]).
    shuffle: Option<ShuffleInfo>,
    /// Ordered policy decision log, every stage's race concatenated; it
    /// leaves with the query's [`QueryCompletion`].
    decisions: Vec<Decision>,
}

/// Progress of a two-stage exchange plan through its per-stage CF races.
#[derive(Debug, Clone, Copy)]
struct ShuffleInfo {
    /// Stage whose race is currently in flight (0 = spill, 1 = finish).
    stage: u8,
    /// Accepted cost of completed stages (added to the final stage's run
    /// cost for the query's accepted-execution breakdown).
    stage_cost: f64,
    /// Any stage's race launched a speculative duplicate.
    speculated: bool,
    /// Measured spill PUT bytes of the accepted stage-0 attempt.
    put_bytes: u64,
    /// Measured spill GET bytes of the accepted stage-1 attempt.
    get_bytes: u64,
}

/// Fault-recovery counters the coordinator accumulates over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// CF fleets that crashed mid-run.
    pub cf_crashes: u64,
    /// Crashed sub-plans relaunched on a fresh fleet.
    pub cf_retries: u64,
    /// Queries that abandoned the CF path for the VM queue.
    pub cf_degradations: u64,
    /// CF runs that exceeded the straggler deadline.
    pub stragglers_detected: u64,
    /// Speculative duplicate fleets launched.
    pub speculative_launches: u64,
    /// Speculative losers cancelled after the winner finished.
    pub speculative_cancelled: u64,
    /// VM workers lost to spot reclaim.
    pub vm_preemptions: u64,
}

/// Final record of a completed query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryCompletion {
    pub id: QueryId,
    /// When the coordinator received the query.
    pub submitted_at: SimTime,
    /// When execution actually began.
    pub started_at: SimTime,
    pub finished_at: SimTime,
    pub placement: Placement,
    pub cost: CostBreakdown,
    pub scan_bytes: u64,
    /// The query was meant for CF but every fleet failed, so it completed
    /// on the VM tier instead.
    pub degraded: bool,
    /// A speculative duplicate fleet raced for this query (whichever
    /// attempt won, both were billed by the provider).
    pub speculative: bool,
    /// Provider cost of the exchange spill traffic this query moved through
    /// the object store (zero for single-stage queries).
    pub shuffle_dollars: f64,
    /// The ordered policy decisions made for this query — what the
    /// differential harnesses compare against the real engine's log.
    pub decisions: Vec<Decision>,
}

impl QueryCompletion {
    /// Time spent waiting inside the engine before execution started.
    pub fn pending(&self) -> SimDuration {
        self.started_at.since(self.submitted_at)
    }

    pub fn execution(&self) -> SimDuration {
        self.finished_at.since(self.started_at)
    }
}

/// Sim-side effect handler: [`CfRace`] decisions become modelled CF fleet
/// launches, cancellations, and degradation flags.
struct CoordEffects<'a> {
    id: QueryId,
    now: SimTime,
    work: QueryWork,
    cf: &'a mut CfService,
    injector: &'a FaultInjector,
    pending_spec: &'a mut Vec<(QueryId, SimTime)>,
    cancelled: u64,
}

impl CfEffects for CoordEffects<'_> {
    fn launch(&mut self, attempt: u32) {
        let startup = policy::CF_STARTUP;
        let nominal = policy::nominal_runtime(&self.work);
        let faults = policy::decide_launch_faults(self.injector, startup, nominal);
        let run = self
            .cf
            .launch_attempt(self.id, self.work, self.now, attempt, faults);
        // Arm the modelled straggler watchdog if this fleet will overshoot.
        let window = policy::straggler_deadline(
            startup + nominal,
            policy::SIM_STRAGGLER_FACTOR,
            SimDuration::ZERO,
        );
        if let Some(due) = policy::watchdog_due(self.now, window, run.finish_at) {
            self.pending_spec.push((self.id, due));
        }
    }

    fn cancel_losers(&mut self, winner: u32) {
        self.cancelled += self.cf.cancel_others(self.id, winner).len() as u64;
    }

    fn degrade_to_vm(&mut self) {
        // The actual re-queue needs the `InFlight` record; the coordinator
        // performs it when it sees the `Degrade` decision.
    }
}

/// The coordinator on the virtual clock.
pub struct Coordinator {
    pub vm: VmCluster,
    pub cf: CfService,
    /// FIFO of queries forced to wait for VM capacity (CF disabled or
    /// acceleration not warranted).
    vm_queue: VecDeque<(QueryId, InFlight)>,
    inflight: HashMap<QueryId, InFlight>,
    server_queue_depth: u32,
    /// Deterministic fault source (disabled unless installed via
    /// [`Coordinator::with_fault_injector`]).
    injector: Arc<FaultInjector>,
    /// Speculative launches armed for stragglers: (query, due time).
    pending_spec: Vec<(QueryId, SimTime)>,
    /// Last sim-second boundary at which VM preemption was rolled.
    last_preempt_check: SimTime,
    /// Fault-recovery counters for this coordinator's lifetime.
    pub stats: FaultStats,
    /// Completions reached while advancing, held for the next wake.
    done: Vec<QueryCompletion>,
    /// Wakes asked of the driver and not yet received.
    asked: BTreeSet<SimTime>,
    now: SimTime,
}

impl Coordinator {
    pub fn new(vm_cfg: VmConfig, now: SimTime) -> Self {
        Coordinator {
            vm: VmCluster::new(vm_cfg, now),
            cf: CfService::new(now),
            vm_queue: VecDeque::new(),
            inflight: HashMap::new(),
            server_queue_depth: 0,
            injector: Arc::new(FaultInjector::disabled()),
            pending_spec: Vec::new(),
            last_preempt_check: now,
            stats: FaultStats::default(),
            done: Vec::new(),
            asked: BTreeSet::new(),
            now,
        }
    }

    /// Install a seeded fault injector; CF launches, VM workers, and the
    /// straggler watchdog consult it from then on.
    pub fn with_fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.injector = injector;
        self
    }

    /// Load status exposed to the query server (paper: "interfaces for the
    /// query server to check the system's load status").
    pub fn concurrency(&self) -> usize {
        self.vm.concurrency()
    }

    pub fn queue_depth(&self) -> usize {
        self.vm_queue.len()
    }

    /// Submit a query for execution (paper §3.1 placement rule):
    /// - VM cluster has headroom → start in VMs now.
    /// - Cluster overloaded and CF enabled → launch a CF fleet immediately.
    /// - Cluster overloaded and CF disabled → wait in the VM queue.
    pub fn submit(&mut self, id: QueryId, work: QueryWork, cf_enabled: bool, now: SimTime) {
        self.place(id, work, cf_enabled.then_some(work), None, false, now);
    }

    /// Submit a query whose CF execution runs as a two-stage exchange plan
    /// (paper §3.1 extended): stage 0 spills hash partitions to the object
    /// store, stage 1 reads them back and finishes. Each stage is its own
    /// [`CfRace`] over [`QueryWork::stage_works`], so relaunch, speculation,
    /// and degradation follow the exact policy the real engine drives —
    /// decision logs concatenate per stage.
    ///
    /// `put_bytes` / `get_bytes` are the *measured* spill traffic of the
    /// accepted attempts (the real engine measures them; differential
    /// harnesses pass them through so provider dollars agree bit-for-bit).
    /// On a VM fallback (cluster has headroom, or the CF path degrades
    /// before any spill is read) the unconsumed traffic is priced per what
    /// actually moved.
    pub fn submit_shuffle(
        &mut self,
        id: QueryId,
        work: QueryWork,
        put_bytes: u64,
        get_bytes: u64,
        now: SimTime,
    ) {
        let shuffle = ShuffleInfo {
            stage: 0,
            stage_cost: 0.0,
            speculated: false,
            put_bytes,
            get_bytes,
        };
        self.place(
            id,
            work,
            Some(work.stage_works()[0]),
            Some(shuffle),
            false,
            now,
        );
    }

    /// The one placement branch. `cf_work` is what the first CF fleet would
    /// run (`None`: CF disabled); `forced` starts on the VM tier whatever
    /// the load — the server's pending-time bound has expired.
    fn place(
        &mut self,
        id: QueryId,
        work: QueryWork,
        cf_work: Option<QueryWork>,
        shuffle: Option<ShuffleInfo>,
        forced: bool,
        now: SimTime,
    ) {
        self.catch_up(now);
        let mut info = InFlight {
            submitted_at: now,
            work,
            race: None,
            degraded: false,
            shuffle,
            decisions: Vec::new(),
        };
        if forced || (!self.vm.is_overloaded() && self.vm_queue.is_empty()) {
            // Plain VM execution: no CF, no exchange.
            info.decisions.push(Decision::DispatchVm);
            info.shuffle = None;
            self.vm.start(id, work, now);
            self.inflight.insert(id, info);
        } else if let Some(cf_work) = cf_work {
            let race = self.start_race(id, cf_work);
            info.decisions.extend_from_slice(&race.decisions);
            info.race = Some(race);
            self.inflight.insert(id, info);
        } else {
            self.vm_queue.push_back((id, info));
        }
    }

    /// Launch the first fleet of a new [`CfRace`] over `work`.
    fn start_race(&mut self, id: QueryId, work: QueryWork) -> CfRace {
        let mut fx = self.effects(id, work);
        let race = CfRace::start(&mut fx);
        let cancelled = fx.cancelled;
        self.stats.speculative_cancelled += cancelled;
        race
    }

    fn effects(&mut self, id: QueryId, work: QueryWork) -> CoordEffects<'_> {
        CoordEffects {
            id,
            now: self.now,
            work,
            cf: &mut self.cf,
            injector: &self.injector,
            pending_spec: &mut self.pending_spec,
            cancelled: 0,
        }
    }

    /// Feed one observation into a query's CF race, translate the resulting
    /// decisions into fault-stat counters, log them and return them.
    fn step_race(&mut self, id: QueryId, input: RaceInput) -> Vec<Decision> {
        let info = self.inflight.get_mut(&id).expect("query in flight");
        let work = match info.shuffle {
            // Relaunches inside a stage-1 race model the cheaper finish
            // stage, not the whole query.
            Some(s) if s.stage == 1 => info.work.stage_works()[1],
            _ => info.work,
        };
        let mut race = info.race.take().expect("CF race present");
        let mut fx = self.effects(id, work);
        let new = race.step(input, &mut fx);
        let cancelled = fx.cancelled;
        let info = self.inflight.get_mut(&id).expect("query in flight");
        info.race = Some(race);
        info.decisions.extend_from_slice(&new);
        self.stats.speculative_cancelled += cancelled;
        for d in &new {
            match d {
                Decision::AttemptFailed { .. } => self.stats.cf_crashes += 1,
                Decision::Relaunch { .. } => self.stats.cf_retries += 1,
                Decision::StragglerSpeculate { .. } => {
                    self.stats.stragglers_detected += 1;
                    self.stats.speculative_launches += 1;
                }
                Decision::Degrade => self.stats.cf_degradations += 1,
                _ => {}
            }
        }
        new
    }

    /// When the model next wants a wake: at once for a held completion,
    /// else at its next change.
    pub fn next_event(&self) -> SimTime {
        match self.done.is_empty() {
            true => self.next_change(),
            false => self.now,
        }
    }

    /// When the model next changes on its own: the cluster's or the CF
    /// service's next event, a straggler deadline, or, while a fault
    /// injector is active, the next once-a-second preemption roll.
    fn next_change(&self) -> SimTime {
        let preempt_roll = (self.injector.is_active())
            .then(|| self.last_preempt_check + SimDuration::from_secs(1));
        (self.pending_spec.iter().map(|&(_, due)| due))
            .chain(self.cf.next_event())
            .chain(preempt_roll)
            .fold(self.vm.next_event(), SimTime::min)
    }

    /// Apply every change before `now`, each at its own instant, holding
    /// completions for the next wake. Changes due at `now` itself wait for
    /// the wake at `now`: a query started at an instant meets the model as
    /// admission saw it, before anything else happens then.
    fn catch_up(&mut self, now: SimTime) {
        loop {
            let at = self.next_change();
            if at >= now {
                break;
            }
            self.tick(at);
        }
        self.now = now;
    }

    /// Apply everything that happens at `now` (no event lies between the
    /// model's time and `now`).
    fn tick(&mut self, now: SimTime) {
        self.now = now;
        self.vm
            .set_external_demand(self.vm_queue.len() as u32 + self.server_queue_depth);
        let vm_done = self.vm.tick(now);

        // Spot reclaim: roll VM preemption once per sim-second.
        if self.injector.is_active() {
            while self.last_preempt_check + SimDuration::from_secs(1) <= now {
                self.last_preempt_check += SimDuration::from_secs(1);
                if matches!(self.injector.decide(FaultSite::VmPreempt), Inject::Error)
                    && self.vm.preempt_worker()
                {
                    self.stats.vm_preemptions += 1;
                }
            }
        } else {
            self.last_preempt_check = now;
        }

        // Straggler watchdog: feed expired deadlines into the policy core,
        // which decides whether to race a speculative duplicate.
        if !self.pending_spec.is_empty() {
            let due: Vec<QueryId> = self
                .pending_spec
                .iter()
                .filter(|(_, t)| *t <= now)
                .map(|(id, _)| *id)
                .collect();
            self.pending_spec.retain(|(_, t)| *t > now);
            for id in due {
                if self.cf.has_active(id) && self.inflight.contains_key(&id) {
                    self.step_race(id, RaceInput::StragglerDeadline);
                }
            }
        }

        for done in vm_done {
            let info = self.inflight.remove(&done.id);
            let info = info.expect("completion for unknown query");
            // A shuffle that degraded after its spill stage was accepted
            // still moved (and pays for) the PUT traffic; one degraded
            // earlier moved nothing.
            let shuffle_dollars = match &info.shuffle {
                Some(s) if s.stage == 1 => billing::exchange_cost(s.put_bytes),
                _ => 0.0,
            };
            self.done.push(QueryCompletion {
                id: done.id,
                submitted_at: info.submitted_at,
                started_at: done.started_at,
                finished_at: done.finished_at,
                placement: Placement::Vm,
                // Model-based per-query cost (the work's CPU demand priced
                // at the VM rate) so sim and real engine agree bit for bit;
                // `total_resource_cost` still charges true provisioned time.
                cost: CostBreakdown {
                    vm_dollars: billing::vm_cost(info.work.cpu_seconds),
                    cf_dollars: 0.0,
                },
                scan_bytes: done.scan_bytes,
                degraded: info.degraded,
                speculative: info.race.as_ref().is_some_and(CfRace::speculated)
                    || info.shuffle.is_some_and(|s| s.speculated),
                shuffle_dollars,
                decisions: info.decisions,
            });
        }

        for run in self.cf.tick(now) {
            if !self.inflight.contains_key(&run.id) {
                continue;
            }
            // Clear any armed watchdog; a relaunch re-arms its own. The first
            // successful fleet wins: the policy cancels any sibling still
            // flying (its cost stays charged — both invocations billed).
            self.pending_spec.retain(|(id, _)| *id != run.id);
            let finished = RaceInput::AttemptFinished {
                attempt: run.attempt,
                failed: run.crashed,
            };
            let new = self.step_race(run.id, finished);
            if run.crashed {
                if new.contains(&Decision::Degrade) {
                    // Out of CF budget: degrade gracefully to the VM tier
                    // instead of losing the query.
                    let mut info = self.inflight.remove(&run.id).expect("checked above");
                    info.degraded = true;
                    self.vm_queue.push_back((run.id, info));
                }
                continue;
            }
            // A shuffle's stage-0 acceptance hands off to the stage-1 race
            // instead of completing the query.
            let info = self.inflight.get_mut(&run.id).expect("checked above");
            let speculated = info.race.as_ref().is_some_and(CfRace::speculated);
            if let Some(s) = info.shuffle.as_mut().filter(|s| s.stage == 0) {
                s.stage = 1;
                s.stage_cost += run.cost;
                s.speculated |= speculated;
                let stage1 = info.work.stage_works()[1];
                let race = self.start_race(run.id, stage1);
                let info = self.inflight.get_mut(&run.id).expect("checked above");
                info.decisions.extend_from_slice(&race.decisions);
                info.race = Some(race);
                continue;
            }
            let info = self.inflight.remove(&run.id).expect("checked above");
            let (stage_cost, shuffle_dollars, spec_sticky) = match &info.shuffle {
                Some(s) => (
                    s.stage_cost,
                    billing::exchange_cost(s.put_bytes + s.get_bytes),
                    s.speculated,
                ),
                None => (0.0, 0.0, false),
            };
            // The billed bytes of a shuffle are the full query's scanned
            // bytes (stage 0 scans them all); the finishing run itself
            // models zero billed scan.
            let scan_bytes = if info.shuffle.is_some() {
                info.work.scan_bytes
            } else {
                run.scan_bytes
            };
            self.done.push(QueryCompletion {
                id: run.id,
                submitted_at: info.submitted_at,
                started_at: run.started_at,
                finished_at: run.finish_at,
                placement: Placement::Cf {
                    workers: run.workers,
                },
                cost: CostBreakdown {
                    vm_dollars: 0.0,
                    // Accepted execution: every accepted stage's fleet.
                    cf_dollars: run.cost + stage_cost,
                },
                scan_bytes,
                degraded: info.degraded,
                speculative: spec_sticky || info.race.as_ref().is_some_and(CfRace::speculated),
                shuffle_dollars,
                decisions: info.decisions,
            });
        }

        // Drain the VM wait queue while there is headroom.
        while !self.vm.is_overloaded() {
            let Some((id, mut info)) = self.vm_queue.pop_front() else {
                break;
            };
            info.decisions.push(Decision::DispatchVm);
            self.vm.start(id, info.work, now);
            self.inflight.insert(id, info);
        }
    }

    /// Ask for a wake at the next event, unless one is already coming then.
    fn ask_wake(&mut self) -> Option<SimTime> {
        let next = self.next_event();
        self.asked.insert(next).then_some(next)
    }

    /// Total provider-side cost so far: provisioned VM time plus CF charges.
    pub fn total_resource_cost(&self) -> CostBreakdown {
        CostBreakdown {
            vm_dollars: billing::vm_cost(self.vm.provisioned_core_seconds),
            cf_dollars: self.cf.total_cost,
        }
    }
}

/// What the query server's driver calls: a load signal for admission, a way
/// to start work, and completions on the virtual clock. The driver owns
/// admission, queueing, batching and billing; the coordinator only decides
/// where a started query runs, how long it takes and what it costs the
/// provider.
impl Coordinator {
    /// No headroom for relaxed work.
    pub fn overloaded(&self) -> bool {
        self.vm.is_overloaded()
    }

    /// Capacity that would otherwise be wasted: where best-of-effort belongs.
    pub fn nearly_idle(&self) -> bool {
        self.vm.is_nearly_idle() && self.vm_queue.is_empty()
    }

    /// The cores one query started now would get by itself: what deadline
    /// admission evaluates [`QueryWork::exec_time_on_cores`] on.
    pub fn cores(&self) -> u32 {
        self.vm.active_cores()
    }

    /// Begin executing `work` at `now`. `forced` means the server's
    /// pending-time bound expired, so the query must start whatever the
    /// load. Returns a time at which the coordinator wants a
    /// [`Coordinator::wake`] on account of this start, if it does not
    /// already have one coming.
    pub fn start(
        &mut self,
        id: QueryId,
        work: QueryWork,
        cf_enabled: bool,
        forced: bool,
        now: SimTime,
    ) -> Option<SimTime> {
        self.place(id, work, cf_enabled.then_some(work), None, forced, now);
        self.ask_wake()
    }

    /// Advance to `now`: the executions that completed, and when to wake the
    /// coordinator next.
    pub fn wake(&mut self, now: SimTime) -> (Vec<QueryCompletion>, Option<SimTime>) {
        self.catch_up(now);
        self.tick(now);
        self.asked.retain(|&at| at > now);
        let mut done = std::mem::take(&mut self.done);
        done.sort_by_key(|c| (c.finished_at, c.id));
        (done, self.ask_wake())
    }

    /// Relaxed queries the server is holding back, reported before each
    /// wake; the autoscaler sizes the fleet on it.
    pub fn relaxed_backlog(&mut self, queued: usize) {
        self.server_queue_depth = queued as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixels_workload::QueryClass;

    fn coordinator() -> Coordinator {
        Coordinator::new(VmConfig::default(), SimTime::ZERO)
    }

    /// Wake the model at each of its events until it is idle or `limit`
    /// has passed since `start`.
    fn drive(
        c: &mut Coordinator,
        start: SimTime,
        limit: SimDuration,
        out: &mut Vec<QueryCompletion>,
    ) {
        let end = start + limit;
        loop {
            let at = c.next_event();
            if at > end {
                return;
            }
            out.extend(c.wake(at).0);
            if c.concurrency() == 0 && c.queue_depth() == 0 && c.cf.active_queries() == 0 {
                return;
            }
        }
    }

    /// The decision log a completion in `done` carries.
    fn decisions_of(done: &[QueryCompletion], id: u64) -> &[Decision] {
        let q = done.iter().find(|d| d.id == QueryId(id));
        &q.expect("the query completed").decisions
    }

    #[test]
    fn underloaded_queries_run_in_vms() {
        let mut c = coordinator();
        c.submit(
            QueryId(1),
            QueryWork::from_class(QueryClass::Light),
            true,
            SimTime::ZERO,
        );
        let mut done = Vec::new();
        drive(&mut c, SimTime::ZERO, SimDuration::from_secs(60), &mut done);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].placement, Placement::Vm);
        assert_eq!(done[0].pending(), SimDuration::ZERO);
        assert!(done[0].cost.vm_dollars > 0.0);
        assert_eq!(done[0].cost.cf_dollars, 0.0);
    }

    #[test]
    fn overload_with_cf_goes_to_cf_immediately() {
        let mut c = coordinator();
        // Saturate the cluster (high watermark 5).
        for i in 0..5 {
            c.submit(
                QueryId(i),
                QueryWork::from_class(QueryClass::Heavy),
                false,
                SimTime::ZERO,
            );
        }
        assert!(c.overloaded());
        c.submit(
            QueryId(99),
            QueryWork::from_class(QueryClass::Medium),
            true,
            SimTime::ZERO,
        );
        assert_eq!(c.cf.active_queries(), 1, "CF fleet launched");
        let mut done = Vec::new();
        drive(
            &mut c,
            SimTime::ZERO,
            SimDuration::from_secs(3600),
            &mut done,
        );
        let q99 = done.iter().find(|d| d.id == QueryId(99)).unwrap();
        assert!(matches!(q99.placement, Placement::Cf { .. }));
        assert_eq!(q99.pending(), SimDuration::ZERO, "CF guarantees immediacy");
        assert!(q99.cost.cf_dollars > 0.0);
    }

    #[test]
    fn overload_without_cf_waits_in_queue() {
        let mut c = coordinator();
        for i in 0..5 {
            c.submit(
                QueryId(i),
                QueryWork::from_class(QueryClass::Heavy),
                false,
                SimTime::ZERO,
            );
        }
        c.submit(
            QueryId(99),
            QueryWork::from_class(QueryClass::Light),
            false,
            SimTime::ZERO,
        );
        assert_eq!(c.queue_depth(), 1);
        let mut done = Vec::new();
        drive(
            &mut c,
            SimTime::ZERO,
            SimDuration::from_secs(7200),
            &mut done,
        );
        let q99 = done.iter().find(|d| d.id == QueryId(99)).unwrap();
        assert_eq!(q99.placement, Placement::Vm);
        assert!(
            q99.pending() > SimDuration::from_secs(1),
            "queued query must have waited, got {}",
            q99.pending()
        );
    }

    #[test]
    fn cf_completion_is_much_faster_than_queued_vm_under_overload() {
        // The immediacy claim: with the cluster saturated, a CF-enabled
        // query finishes long before a CF-disabled one that must queue.
        let mut with_cf = coordinator();
        let mut without_cf = coordinator();
        for c in [&mut with_cf, &mut without_cf] {
            for i in 0..6 {
                c.submit(
                    QueryId(i),
                    QueryWork::from_class(QueryClass::Heavy),
                    false,
                    SimTime::ZERO,
                );
            }
        }
        with_cf.submit(
            QueryId(99),
            QueryWork::from_class(QueryClass::Medium),
            true,
            SimTime::ZERO,
        );
        without_cf.submit(
            QueryId(99),
            QueryWork::from_class(QueryClass::Medium),
            false,
            SimTime::ZERO,
        );
        let mut a = Vec::new();
        let mut b = Vec::new();
        drive(
            &mut with_cf,
            SimTime::ZERO,
            SimDuration::from_secs(7200),
            &mut a,
        );
        drive(
            &mut without_cf,
            SimTime::ZERO,
            SimDuration::from_secs(7200),
            &mut b,
        );
        let t_cf = a.iter().find(|d| d.id == QueryId(99)).unwrap().finished_at;
        let t_vm = b.iter().find(|d| d.id == QueryId(99)).unwrap().finished_at;
        assert!(
            t_cf.as_secs_f64() * 2.0 < t_vm.as_secs_f64(),
            "CF {t_cf} should beat queued VM {t_vm} by a wide margin"
        );
    }

    fn overload(c: &mut Coordinator) {
        for i in 0..5 {
            c.submit(
                QueryId(i),
                QueryWork::from_class(QueryClass::Heavy),
                false,
                SimTime::ZERO,
            );
        }
        assert!(c.overloaded());
    }

    #[test]
    fn crashed_cf_fleet_is_relaunched_and_completes() {
        use pixels_chaos::{FaultPlan, FaultSite, SiteSpec};
        let plan = FaultPlan::none(7).with(FaultSite::CfCrash, SiteSpec::errors(1.0).capped(1));
        let mut c = coordinator().with_fault_injector(Arc::new(FaultInjector::new(&plan)));
        overload(&mut c);
        c.submit(
            QueryId(99),
            QueryWork::from_class(QueryClass::Medium),
            true,
            SimTime::ZERO,
        );
        let mut done = Vec::new();
        drive(
            &mut c,
            SimTime::ZERO,
            SimDuration::from_secs(7200),
            &mut done,
        );
        let q99 = done.iter().find(|d| d.id == QueryId(99)).unwrap();
        assert!(matches!(q99.placement, Placement::Cf { .. }));
        assert!(!q99.degraded);
        assert_eq!(c.stats.cf_crashes, 1);
        assert_eq!(c.stats.cf_retries, 1);
        assert_eq!(c.stats.cf_degradations, 0);
    }

    #[test]
    fn repeatedly_crashing_cf_degrades_to_vm_without_losing_the_query() {
        use pixels_chaos::{FaultPlan, FaultSite, SiteSpec};
        // Every fleet crashes: first launch + relaunch both die, then the
        // query must fall back to the VM queue and still complete.
        let plan = FaultPlan::none(7).with(FaultSite::CfCrash, SiteSpec::errors(1.0));
        let mut c = coordinator().with_fault_injector(Arc::new(FaultInjector::new(&plan)));
        overload(&mut c);
        c.submit(
            QueryId(99),
            QueryWork::from_class(QueryClass::Medium),
            true,
            SimTime::ZERO,
        );
        let cf_cost_before_done = {
            let mut done = Vec::new();
            drive(
                &mut c,
                SimTime::ZERO,
                SimDuration::from_secs(14400),
                &mut done,
            );
            let q99 = done.iter().find(|d| d.id == QueryId(99)).unwrap();
            assert_eq!(q99.placement, Placement::Vm, "degraded to the VM tier");
            assert!(q99.degraded);
            assert_eq!(q99.cost.cf_dollars, 0.0, "user bill follows the VM result");
            c.cf.total_cost
        };
        assert_eq!(c.stats.cf_crashes, 2);
        assert_eq!(c.stats.cf_retries, 1);
        assert_eq!(c.stats.cf_degradations, 1);
        assert!(
            cf_cost_before_done > 0.0,
            "crashed fleets stay billed on the provider side"
        );
    }

    #[test]
    fn straggling_fleet_races_a_speculative_duplicate_first_result_wins() {
        use pixels_chaos::{FaultPlan, FaultSite, SiteSpec};
        // The first fleet straggles by 600 s; the watchdog launches a clean
        // duplicate at 2× the estimate, which finishes first and wins.
        let straggle_us = 600_000_000;
        let plan = FaultPlan::none(11).with(
            FaultSite::CfStraggler,
            SiteSpec::delays(1.0, straggle_us, straggle_us).capped(1),
        );
        let mut c = coordinator().with_fault_injector(Arc::new(FaultInjector::new(&plan)));
        overload(&mut c);
        c.submit(
            QueryId(99),
            QueryWork::from_class(QueryClass::Medium),
            true,
            SimTime::ZERO,
        );
        let single_fleet_cost = {
            let mut clean = coordinator();
            overload(&mut clean);
            clean.submit(
                QueryId(99),
                QueryWork::from_class(QueryClass::Medium),
                true,
                SimTime::ZERO,
            );
            clean.cf.total_cost
        };
        let mut done = Vec::new();
        drive(
            &mut c,
            SimTime::ZERO,
            SimDuration::from_secs(7200),
            &mut done,
        );
        let q99 = done.iter().find(|d| d.id == QueryId(99)).unwrap();
        assert!(matches!(q99.placement, Placement::Cf { .. }));
        assert!(q99.speculative);
        assert!(
            q99.finished_at.as_secs_f64() < 300.0,
            "duplicate should beat the 600 s straggler, finished at {}",
            q99.finished_at
        );
        assert_eq!(c.stats.stragglers_detected, 1);
        assert_eq!(c.stats.speculative_launches, 1);
        assert_eq!(c.stats.speculative_cancelled, 1, "loser cancelled");
        assert!(
            c.cf.total_cost > single_fleet_cost * 1.9,
            "both invocations billed: {} vs single {}",
            c.cf.total_cost,
            single_fleet_cost
        );
    }

    #[test]
    fn vm_preemption_is_survivable() {
        use pixels_chaos::{FaultPlan, FaultSite, SiteSpec};
        let plan = FaultPlan::none(3).with(FaultSite::VmPreempt, SiteSpec::errors(1.0).capped(1));
        let mut c = coordinator().with_fault_injector(Arc::new(FaultInjector::new(&plan)));
        c.submit(
            QueryId(1),
            QueryWork::from_class(QueryClass::Medium),
            false,
            SimTime::ZERO,
        );
        let mut done = Vec::new();
        drive(
            &mut c,
            SimTime::ZERO,
            SimDuration::from_secs(7200),
            &mut done,
        );
        assert_eq!(c.stats.vm_preemptions, 1);
        let q = done.iter().find(|d| d.id == QueryId(1)).unwrap();
        assert_eq!(q.placement, Placement::Vm);
        assert!(!q.degraded);
    }

    #[test]
    fn fault_free_plans_change_nothing() {
        // A disabled injector and an empty plan both leave the schedule
        // bit-identical to the no-chaos coordinator.
        use pixels_chaos::FaultPlan;
        let mut plain = coordinator();
        let mut chaotic =
            coordinator().with_fault_injector(Arc::new(FaultInjector::new(&FaultPlan::none(42))));
        let mut a = Vec::new();
        let mut b = Vec::new();
        for c in [&mut plain, &mut chaotic] {
            overload(c);
            c.submit(
                QueryId(99),
                QueryWork::from_class(QueryClass::Medium),
                true,
                SimTime::ZERO,
            );
        }
        drive(
            &mut plain,
            SimTime::ZERO,
            SimDuration::from_secs(7200),
            &mut a,
        );
        drive(
            &mut chaotic,
            SimTime::ZERO,
            SimDuration::from_secs(7200),
            &mut b,
        );
        assert_eq!(a, b);
        assert_eq!(chaotic.stats, FaultStats::default());
    }

    #[test]
    fn decision_log_records_the_policy_path() {
        use crate::policy::Decision;
        use pixels_chaos::{FaultPlan, FaultSite, SiteSpec};
        // Clean CF run.
        let mut c = coordinator();
        overload(&mut c);
        c.submit(
            QueryId(99),
            QueryWork::from_class(QueryClass::Medium),
            true,
            SimTime::ZERO,
        );
        let mut done = Vec::new();
        drive(
            &mut c,
            SimTime::ZERO,
            SimDuration::from_secs(7200),
            &mut done,
        );
        assert_eq!(
            decisions_of(&done, 99),
            &[
                Decision::DispatchCf { attempt: 0 },
                Decision::Accept { attempt: 0 }
            ]
        );
        assert_eq!(decisions_of(&done, 0), &[Decision::DispatchVm]);

        // Every fleet crashes → relaunch then degrade then VM.
        let plan = FaultPlan::none(7).with(FaultSite::CfCrash, SiteSpec::errors(1.0));
        let mut c = coordinator().with_fault_injector(Arc::new(FaultInjector::new(&plan)));
        overload(&mut c);
        c.submit(
            QueryId(99),
            QueryWork::from_class(QueryClass::Medium),
            true,
            SimTime::ZERO,
        );
        let mut done = Vec::new();
        drive(
            &mut c,
            SimTime::ZERO,
            SimDuration::from_secs(14400),
            &mut done,
        );
        assert_eq!(
            decisions_of(&done, 99),
            &[
                Decision::DispatchCf { attempt: 0 },
                Decision::AttemptFailed { attempt: 0 },
                Decision::Relaunch { attempt: 1 },
                Decision::AttemptFailed { attempt: 1 },
                Decision::Degrade,
                Decision::DispatchVm,
            ]
        );
    }

    #[test]
    fn shuffle_runs_two_staged_races_and_prices_exchange_traffic() {
        let mut c = coordinator();
        overload(&mut c);
        // Reference: the same query single-stage.
        let mut single = coordinator();
        overload(&mut single);
        single.submit(
            QueryId(99),
            QueryWork::from_class(QueryClass::Medium),
            true,
            SimTime::ZERO,
        );
        let mut sdone = Vec::new();
        drive(
            &mut single,
            SimTime::ZERO,
            SimDuration::from_secs(7200),
            &mut sdone,
        );
        let sq = sdone.iter().find(|d| d.id == QueryId(99)).unwrap();
        assert_eq!(sq.shuffle_dollars, 0.0);

        c.submit_shuffle(
            QueryId(99),
            QueryWork::from_class(QueryClass::Medium),
            3 << 30, // 3 GiB spilled
            3 << 30, // read back once
            SimTime::ZERO,
        );
        let mut done = Vec::new();
        drive(
            &mut c,
            SimTime::ZERO,
            SimDuration::from_secs(7200),
            &mut done,
        );
        let q = done.iter().find(|d| d.id == QueryId(99)).unwrap();
        assert!(matches!(q.placement, Placement::Cf { .. }));
        assert_eq!(
            decisions_of(&done, 99),
            &[
                Decision::DispatchCf { attempt: 0 },
                Decision::Accept { attempt: 0 },
                Decision::DispatchCf { attempt: 0 },
                Decision::Accept { attempt: 0 },
            ],
            "one clean race per stage"
        );
        // PUT + GET priced at the exchange rate.
        let expected = billing::exchange_cost(6 << 30);
        assert!((q.shuffle_dollars - expected).abs() < 1e-12);
        assert!(q.shuffle_dollars > 0.0);
        // Two accepted fleets cost more than one, but stage 1 is the cheap
        // finish stage, so well under double.
        assert!(q.cost.cf_dollars > sq.cost.cf_dollars);
        assert!(q.cost.cf_dollars < sq.cost.cf_dollars * 2.0);
    }

    #[test]
    fn shuffle_stage_crash_relaunches_within_its_stage() {
        use pixels_chaos::{FaultPlan, FaultSite, SiteSpec};
        // One crash total: stage 0's first fleet dies; its relaunch and the
        // whole stage-1 race run clean.
        let plan = FaultPlan::none(7).with(FaultSite::CfCrash, SiteSpec::errors(1.0).capped(1));
        let mut c = coordinator().with_fault_injector(Arc::new(FaultInjector::new(&plan)));
        overload(&mut c);
        c.submit_shuffle(
            QueryId(99),
            QueryWork::from_class(QueryClass::Medium),
            1 << 30,
            1 << 30,
            SimTime::ZERO,
        );
        let mut done = Vec::new();
        drive(
            &mut c,
            SimTime::ZERO,
            SimDuration::from_secs(7200),
            &mut done,
        );
        let q = done.iter().find(|d| d.id == QueryId(99)).unwrap();
        assert!(matches!(q.placement, Placement::Cf { .. }));
        assert!(!q.degraded);
        assert_eq!(
            decisions_of(&done, 99),
            &[
                Decision::DispatchCf { attempt: 0 },
                Decision::AttemptFailed { attempt: 0 },
                Decision::Relaunch { attempt: 1 },
                Decision::Accept { attempt: 1 },
                Decision::DispatchCf { attempt: 0 },
                Decision::Accept { attempt: 0 },
            ]
        );
        assert_eq!(c.stats.cf_crashes, 1);
        assert_eq!(c.stats.cf_retries, 1);
    }

    #[test]
    fn forced_start_bypasses_the_overload_check() {
        let mut c = coordinator();
        overload(&mut c);
        let before = c.concurrency();
        let wake = c.start(
            QueryId(99),
            QueryWork::from_class(QueryClass::Light),
            false,
            true,
            SimTime::ZERO,
        );
        assert_eq!(
            wake,
            Some(c.next_event()),
            "a start asks for the next event"
        );
        assert_eq!(c.concurrency(), before + 1, "started despite overload");
        assert_eq!(c.queue_depth(), 0);
        let mut done = Vec::new();
        drive(
            &mut c,
            SimTime::ZERO,
            SimDuration::from_secs(7200),
            &mut done,
        );
        let q = done.iter().find(|d| d.id == QueryId(99)).unwrap();
        assert_eq!(q.placement, Placement::Vm);
        assert_eq!(q.pending(), SimDuration::ZERO, "no queueing at all");
    }

    #[test]
    fn lone_vm_query_finishes_on_the_microsecond() {
        // Off any grid: started at 1.234567 s, a query of 1 CPU-second on 3
        // of the idle worker's 8 cores finishes after exactly the runtime
        // law's estimate on the model's cores (333,333.3 µs, rounded up to
        // the next whole microsecond), and the wake it asks for is then.
        let mut c = coordinator();
        let work = QueryWork {
            scan_bytes: 1 << 20,
            cpu_seconds: 1.0,
            parallelism: 3,
        };
        let t0 = SimTime::from_micros(1_234_567);
        let estimate = work.exec_time_on_cores(c.cores());
        let wake = c.start(QueryId(7), work, false, false, t0);
        let finish = t0 + estimate;
        assert_eq!(estimate, SimDuration::from_micros(333_334));
        assert_eq!(
            wake,
            Some(finish),
            "the start asks for a wake at the finish"
        );
        let (done, _) = c.wake(finish);
        assert_eq!(done.len(), 1);
        assert_eq!((done[0].started_at, done[0].finished_at), (t0, finish));
        assert_eq!(done[0].pending(), SimDuration::ZERO);
        assert_eq!(done[0].decisions, [Decision::DispatchVm]);
    }

    #[test]
    fn wakes_are_asked_once_per_instant() {
        // A start that does not move the next event asks for no second wake
        // at it; a wake reports the event after it.
        let mut c = coordinator();
        let first = c
            .wake(SimTime::ZERO)
            .1
            .expect("the autoscaler's next evaluation");
        let light = QueryWork::from_class(QueryClass::Light);
        let finish = c.start(QueryId(1), light, false, false, SimTime::ZERO);
        let finish = finish.expect("the finish comes before the autoscaler");
        assert!(finish < first);
        let again = c.start(QueryId(2), light, false, false, SimTime::ZERO);
        assert_eq!(again, None, "both finish at the same instant");
        let (done, next) = c.wake(finish);
        assert_eq!(done.len(), 2);
        assert_eq!(next, None, "the autoscaler's wake is already coming");
    }

    #[test]
    fn total_cost_includes_idle_vm_time() {
        let mut c = coordinator();
        c.wake(SimTime::from_secs(3600));
        let cost = c.total_resource_cost();
        // 1 idle worker * 8 cores * 1h * $0.0425 = $0.34.
        assert!((cost.vm_dollars - 0.34).abs() < 0.01, "{cost:?}");
        assert_eq!(cost.cf_dollars, 0.0);
    }
}
