//! Real-mode query server: the REST-API surface of the paper, in-process.
//!
//! Pixels-Rover submits queries here with a service level and result-size
//! limit (the submission form of Figure 3), reads statuses (pending /
//! running / finished / failed), and fetches results plus execution
//! statistics (pending time, execution time, monetary cost). Each query
//! runs on its own thread against the [`TurboEngine`] and owns a slot — its
//! record plus a condvar — so whoever wants the outcome (a held status
//! `GET`, [`QueryServer::wait`]) waits on that query's signal instead of
//! polling, and the server-wide map lock is held only to find or insert a
//! slot. Service-level
//! semantics come from the same [`SchedulerPolicy`] the simulator runs:
//! immediate dispatches now with CF acceleration, relaxed waits for
//! headroom no longer than the *actual* grace period (at expiry the engine
//! force-starts it unslotted), best-of-effort waits for an idle engine
//! bounded by the starvation limit.

use crate::fair::{FairQueue, QueuedQuery};
use crate::metrics::ServerMetrics;
use crate::pricing::PriceSchedule;
use crate::scheduler::{Admission, AdmissionMode, LoadSignal, QueueVerdict, SchedulerPolicy};
use crate::service_level::ServiceLevel;
use crate::shared::{SharedWork, SharingConfig};
use crate::tenant::{SpendBook, TenantDirectory};
use parking_lot::{Condvar, Mutex};
use pixels_common::{Error, Json, QueryId, RecordBatch, Result};
use pixels_obs::{
    JournalEntry, Ledger, LedgerEntry, MetricsRegistry, Profile, QueryJournal, SloTracker, Trace,
    TraceCtx, WallClock,
};
use pixels_turbo::{
    CostBreakdown, Decision, ExchangeStats, ExecMetricsSnapshot, QueryEvent, TurboEngine,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a queued query waits between looks at the queue when nothing
/// signals it: the bound on noticing what no one announces — a deadline or
/// grace period running out, an engine slot coming free.
const QUEUE_RECHECK: Duration = Duration::from_millis(5);

/// Lifecycle of a submitted query (paper §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStatus {
    Pending,
    Running,
    Finished,
    Failed,
    /// Refused at admission (infeasible deadline or exhausted tenant
    /// budget): never executed, never billed, never cached.
    Rejected,
}

impl QueryStatus {
    pub fn name(self) -> &'static str {
        match self {
            QueryStatus::Pending => "pending",
            QueryStatus::Running => "running",
            QueryStatus::Finished => "finished",
            QueryStatus::Failed => "failed",
            QueryStatus::Rejected => "rejected",
        }
    }

    /// Finished, failed or rejected: the record will not change again.
    pub fn is_terminal(self) -> bool {
        !matches!(self, QueryStatus::Pending | QueryStatus::Running)
    }
}

/// What the user submits (the Figure 3 form).
#[derive(Debug, Clone)]
pub struct QuerySubmission {
    pub database: String,
    pub sql: String,
    pub level: ServiceLevel,
    /// Truncate the result to at most this many rows.
    pub result_limit: Option<usize>,
    /// Billing tenant for the economics ledger; `None` bills "default".
    pub tenant: Option<String>,
    /// Completion target in microseconds. When set, the query is admitted
    /// in deadline mode — `level` is ignored for scheduling and pricing —
    /// and rejected outright if the target is infeasible.
    pub deadline_us: Option<u64>,
}

impl QuerySubmission {
    /// The ledger tenant this submission bills to.
    pub fn tenant_name(&self) -> &str {
        self.tenant.as_deref().unwrap_or("default")
    }

    /// The admission mode this submission asks for.
    pub fn mode(&self) -> AdmissionMode {
        match self.deadline_us {
            Some(target_us) => AdmissionMode::Deadline { target_us },
            None => AdmissionMode::Level(self.level),
        }
    }
}

/// Full state of one query as reported to clients.
#[derive(Debug, Clone)]
pub struct QueryInfo {
    pub id: QueryId,
    pub submission: QuerySubmission,
    pub status: QueryStatus,
    /// Shared, so copying a record never copies rows.
    pub result: Option<Arc<RecordBatch>>,
    pub error: Option<String>,
    pub pending: Duration,
    pub execution: Duration,
    /// User-facing bill in dollars.
    pub price: f64,
    pub scan_bytes: u64,
    pub used_cf: bool,
    /// Monotone submission sequence for UI ordering.
    pub seq: u64,
    /// Full execution counters (structured, not just the EXPLAIN text).
    pub metrics: ExecMetricsSnapshot,
    /// Fault-recovery events the engine emitted while running this query:
    /// storage retries, CF crashes/relaunches, straggler speculation, and
    /// CF→VM degradation.
    pub events: Vec<QueryEvent>,
    /// Object-store requests retried under this query (transient failures
    /// masked by the retry policy).
    pub retries: u64,
    /// The query's span tree — scheduler wait, tier dispatch, operators,
    /// and storage accesses — once the query is terminal: compact JSON text
    /// written once from the finished spans.
    pub profile: Option<Profile>,
    /// Ordered policy-core decisions (CF dispatch, speculation, degradation)
    /// made while executing this query.
    pub decisions: Vec<Decision>,
    /// Modelled provider cost of the accepted execution.
    pub resource_cost: CostBreakdown,
    /// Modelled provider CF spend across all attempts, crashed and
    /// cancelled included.
    pub provider_cf_dollars: f64,
    /// Provider cost of exchange spill traffic (multi-stage CF plans only;
    /// never part of the user's bill).
    pub provider_shuffle_dollars: f64,
    /// Spill traffic of the accepted attempts of a multi-stage CF plan.
    pub exchange: ExchangeStats,
}

impl QueryInfo {
    /// JSON status payload (the shape Pixels-Rover renders).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id".to_string(), Json::string(self.id.to_string())),
            ("status".to_string(), Json::string(self.status.name())),
            (
                "service_level".to_string(),
                Json::string(self.submission.mode().name()),
            ),
            (
                "tenant".to_string(),
                Json::string(self.submission.tenant_name()),
            ),
            ("sql".to_string(), Json::string(self.submission.sql.clone())),
            (
                "pending_ms".to_string(),
                Json::number(self.pending.as_secs_f64() * 1e3),
            ),
            (
                "execution_ms".to_string(),
                Json::number(self.execution.as_secs_f64() * 1e3),
            ),
            ("cost_dollars".to_string(), Json::number(self.price)),
            (
                "scan_bytes".to_string(),
                Json::number(self.scan_bytes as f64),
            ),
            ("used_cf".to_string(), Json::Bool(self.used_cf)),
            ("retries".to_string(), Json::number(self.retries as f64)),
            (
                "events".to_string(),
                Json::Array(
                    self.events
                        .iter()
                        .map(|e| Json::string(e.describe()))
                        .collect(),
                ),
            ),
            ("metrics".to_string(), self.metrics.to_json()),
        ];
        if let Some(err) = &self.error {
            fields.push(("error".to_string(), Json::string(err.clone())));
        }
        if let Some(result) = &self.result {
            fields.push((
                "result_rows".to_string(),
                Json::number(result.num_rows() as f64),
            ));
        }
        Json::Object(fields.into_iter().collect())
    }
}

/// One query's slot: its record and the signal that the record changed.
struct QuerySlot {
    /// Behind an `Arc` so a read copies a pointer under the lock and
    /// whatever else it needs outside it.
    record: Mutex<Arc<QueryInfo>>,
    changed: Condvar,
}

impl QuerySlot {
    fn snapshot(&self) -> Arc<QueryInfo> {
        self.record.lock().clone()
    }

    /// Change the record and wake everyone waiting on it.
    fn update(&self, change: impl FnOnce(&mut QueryInfo)) {
        change(Arc::make_mut(&mut self.record.lock()));
        self.changed.notify_all();
    }
}

/// The fair queue and the signal that a query left it, so the next in line
/// looks at once. A freed engine slot is deliberately *not* signalled: a
/// queued light query woken the instant the slot frees takes it a fraction
/// of a millisecond before the next immediate query arrives, which then finds
/// the engine busy and goes to CF — measured on `overload_mixed` as +36 %
/// provider dollars per query. Queued queries find a free slot at their
/// next [`QUEUE_RECHECK`], as they always have.
struct AdmissionQueue {
    fair: Mutex<FairQueue>,
    changed: Condvar,
}

/// The in-process query server.
pub struct QueryServer {
    /// What every query thread shares with the server.
    ctx: Arc<QueryCtx>,
    /// Every query submitted, by id. Held to find or insert a slot only.
    state: Mutex<HashMap<QueryId, Arc<QuerySlot>>>,
    next_id: AtomicU64,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Per-tenant weights and budgets.
    tenants: Arc<TenantDirectory>,
}

/// The per-query shared state: `submit` clones one `Arc` of it into the
/// query's thread, and the terminal step borrows it. The `with_*` builders
/// change it in place — they run before the first `submit`, while the server
/// still holds the only reference.
struct QueryCtx {
    engine: Arc<TurboEngine>,
    prices: PriceSchedule,
    /// Admission policy shared with the simulator.
    policy: SchedulerPolicy,
    /// SLO, ledger, and journal sinks every query thread reports into.
    obs: ObsSinks,
    /// Tenant-aware queue shared by every waiting query thread: deficit-
    /// weighted fair queueing across tenants, EDF over deadline work.
    queue: AdmissionQueue,
    /// Shared-work front (single-flight + result cache); disabled unless
    /// [`QueryServer::with_sharing`] opts in.
    sharing: Arc<SharedWork>,
    /// Server-start monotonic epoch: the single clock origin for every
    /// `now_us` fed into the [`FairQueue`] and [`SchedulerPolicy`]. Queued
    /// deadlines and poll times are all absolute against this instant, so
    /// expiry and EDF comparisons across entries share one origin — exactly
    /// like the simulator's absolute virtual clock.
    epoch: Instant,
    /// Per-tenant committed + reserved spend, consulted atomically at
    /// budget admission (see [`crate::tenant::SpendBook`]).
    spend: SpendBook,
    /// The server's families in the engine's registry, held as handles.
    metrics: ServerMetrics,
}

/// The observability sinks a query thread appends to at its terminal state.
struct ObsSinks {
    slo: Arc<SloTracker>,
    ledger: Arc<Ledger>,
    journal: Arc<QueryJournal>,
}

impl ObsSinks {
    fn for_policy(policy: &SchedulerPolicy) -> ObsSinks {
        ObsSinks {
            slo: Arc::new(SloTracker::new(
                WallClock::shared(),
                policy.slo_objectives(),
            )),
            ledger: Arc::new(Ledger::new()),
            journal: Arc::new(QueryJournal::new()),
        }
    }
}

impl QueryServer {
    pub fn new(engine: Arc<TurboEngine>, prices: PriceSchedule) -> Self {
        let policy = SchedulerPolicy::default();
        QueryServer {
            ctx: Arc::new(QueryCtx {
                metrics: ServerMetrics::new(engine.registry()),
                engine,
                prices,
                obs: ObsSinks::for_policy(&policy),
                policy,
                queue: AdmissionQueue {
                    fair: Mutex::new(FairQueue::new()),
                    changed: Condvar::new(),
                },
                sharing: Arc::new(SharedWork::new(SharingConfig::default())),
                epoch: Instant::now(),
                spend: SpendBook::new(),
            }),
            state: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            handles: Mutex::new(Vec::new()),
            tenants: Arc::new(TenantDirectory::new()),
        }
    }

    fn ctx_mut(&mut self) -> &mut QueryCtx {
        Arc::get_mut(&mut self.ctx).expect("the builders run before the first submit")
    }

    /// Enable (or reconfigure) the shared-work layer.
    pub fn with_sharing(mut self, cfg: SharingConfig) -> Self {
        self.ctx_mut().sharing = Arc::new(SharedWork::new(cfg));
        self
    }

    /// Install a tenant directory (weights and budgets). Weights propagate
    /// into the fair queue as tenants are registered.
    pub fn with_tenants(mut self, tenants: Arc<TenantDirectory>) -> Self {
        for (name, policy) in tenants.registered() {
            self.ctx.queue.fair.lock().set_weight(&name, policy.weight);
        }
        self.tenants = tenants;
        self
    }

    /// The tenant directory backing `/tenants` and budget admission.
    pub fn tenants(&self) -> &Arc<TenantDirectory> {
        &self.tenants
    }

    /// The shared-work layer (single-flight + result cache).
    pub fn shared(&self) -> &Arc<SharedWork> {
        &self.ctx.sharing
    }

    /// Drop cached results for `db` — call on any mutation to its data.
    pub fn invalidate_results(&self, db: &str) {
        self.ctx.sharing.invalidate_db(db);
    }

    /// The `GET /tenants` payload: per-tenant policy, spend, and queue
    /// depth, for every tenant known to the directory or the ledger.
    pub fn tenants_json(&self) -> Json {
        let by_tenant = self.ctx.obs.ledger.by_tenant();
        let mut names: Vec<String> = self
            .tenants
            .registered()
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        for name in by_tenant.keys() {
            if !names.contains(name) {
                names.push(name.clone());
            }
        }
        names.sort();
        let fair = self.ctx.queue.fair.lock();
        let rows: Vec<Json> = names
            .iter()
            .map(|name| {
                let policy = self.tenants.policy(name);
                let mut fields = vec![
                    ("tenant".to_string(), Json::string(name.clone())),
                    ("weight".to_string(), Json::number(policy.weight)),
                    (
                        "queued".to_string(),
                        Json::number(fair.tenant_depth(name) as f64),
                    ),
                ];
                if let Some(budget) = policy.budget_dollars {
                    fields.push(("budget_dollars".to_string(), Json::number(budget)));
                }
                if let Some(summary) = by_tenant.get(name) {
                    fields.push((
                        "spent_dollars".to_string(),
                        Json::number(summary.revenue_dollars),
                    ));
                    fields.push(("queries".to_string(), Json::number(summary.entries as f64)));
                }
                Json::Object(fields.into_iter().collect())
            })
            .collect();
        Json::Object(
            vec![("tenants".to_string(), Json::Array(rows))]
                .into_iter()
                .collect(),
        )
    }

    /// Replace the admission policy (grace period, best-of-effort bound).
    /// The SLO tracker is rebuilt so its objectives stay derived from the
    /// bounds admission actually enforces.
    pub fn with_scheduler(mut self, policy: SchedulerPolicy) -> Self {
        let ctx = self.ctx_mut();
        ctx.policy = policy;
        ctx.obs = ObsSinks::for_policy(&policy);
        self
    }

    /// The per-level SLO tracker (latency objectives + burn rates).
    pub fn slo(&self) -> &Arc<SloTracker> {
        &self.ctx.obs.slo
    }

    /// The economics ledger (one entry per finished query).
    pub fn ledger(&self) -> &Arc<Ledger> {
        &self.ctx.obs.ledger
    }

    /// The structured query journal (one record per terminal query).
    pub fn journal(&self) -> &Arc<QueryJournal> {
        &self.ctx.obs.journal
    }

    /// The `GET /slo` payload.
    pub fn slo_json(&self) -> Json {
        self.ctx.obs.slo.to_json()
    }

    /// The `GET /ledger` payload.
    pub fn ledger_json(&self) -> Json {
        self.ctx.obs.ledger.to_json()
    }

    /// The `GET /journal` payload: JSON lines, one terminal query each.
    pub fn journal_jsonl(&self) -> String {
        self.ctx.obs.journal.render_jsonl()
    }

    pub fn engine(&self) -> &Arc<TurboEngine> {
        &self.ctx.engine
    }

    /// The registry backing `/metrics` (the engine's).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        self.ctx.engine.registry()
    }

    /// Render the whole registry in Prometheus text exposition format,
    /// first setting every family whose source keeps its own running total
    /// — object store, fault injector, SLO tracker, ledger, shared work — to
    /// that total. Nothing here remembers a previous scrape, so concurrent
    /// scrapes agree.
    pub fn metrics_text(&self) -> String {
        let r = self.registry();
        let ctx = &self.ctx;
        ctx.engine.store().metrics().export(r);
        ctx.engine.fault_injector().export_metrics(r);
        ctx.obs.slo.export(r);
        ctx.obs.ledger.export(r);
        // Per-tenant revenue, capped at the top-K tenants plus an "other"
        // bucket so a million-tenant fleet cannot blow up label cardinality.
        ctx.obs.ledger.export_tenants(r, 8);
        ctx.sharing.export(r);
        r.render()
    }

    /// Submit a query; returns immediately with the query id.
    pub fn submit(&self, submission: QuerySubmission) -> QueryId {
        let id = QueryId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let info = QueryInfo {
            id,
            submission: submission.clone(),
            status: QueryStatus::Pending,
            result: None,
            error: None,
            pending: Duration::ZERO,
            execution: Duration::ZERO,
            price: 0.0,
            scan_bytes: 0,
            used_cf: false,
            seq: id.0,
            metrics: ExecMetricsSnapshot::default(),
            events: Vec::new(),
            retries: 0,
            profile: None,
            decisions: Vec::new(),
            resource_cost: CostBreakdown::default(),
            provider_cf_dollars: 0.0,
            provider_shuffle_dollars: 0.0,
            exchange: ExchangeStats::default(),
        };
        let slot = Arc::new(QuerySlot {
            record: Mutex::new(Arc::new(info)),
            changed: Condvar::new(),
        });
        self.state.lock().insert(id, slot.clone());
        let ctx = &self.ctx;
        let mode = submission.mode();
        ctx.metrics.queue_depth(mode.name()).add(1.0);

        // Budget admission: a tenant whose committed-plus-reserved spend has
        // reached its budget is refused before a thread ever spawns.
        // Check-and-reserve is one atomic step against the spend book — not
        // a ledger rescan — so N concurrent submissions from a capped tenant
        // cannot all slip under the cap before any of them bills: each one
        // reserves its modelled bill up front and reconciles the reservation
        // against the real bill at its terminal state. Rejections journal
        // and burn SLO budget but never touch the ledger or result cache.
        let tenant_policy = self.tenants.policy(submission.tenant_name());
        let mut reserved = 0.0;
        if let Some(budget) = tenant_policy.budget_dollars {
            let est_bytes = ctx
                .engine
                .estimate_work(&submission.database, &submission.sql)
                .map(|w| w.scan_bytes)
                .unwrap_or(0);
            reserved = ctx.prices.bill(mode, est_bytes);
            if !ctx
                .spend
                .try_reserve(submission.tenant_name(), reserved, budget)
            {
                reject(ctx, &slot, "budget_exhausted");
                return id;
            }
        }
        ctx.queue
            .fair
            .lock()
            .set_weight(submission.tenant_name(), tenant_policy.weight);

        let ctx = ctx.clone();
        let handle =
            std::thread::spawn(move || run_query_thread(&ctx, &slot, id, submission, reserved));
        let mut handles = self.handles.lock();
        // Reap finished query threads so a long-running server doesn't
        // accumulate one handle per query forever.
        handles.retain(|h| !h.is_finished());
        handles.push(handle);
        id
    }

    /// The query's execution profile: its span tree as compact JSON. `None`
    /// until the query is terminal.
    pub fn profile(&self, id: QueryId) -> Result<Option<Profile>> {
        Ok(self.snapshot(id)?.profile.clone())
    }

    fn slot(&self, id: QueryId) -> Result<Arc<QuerySlot>> {
        self.state
            .lock()
            .get(&id)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("unknown query: {id}")))
    }

    /// The query's record as it stands, shared: nothing is copied.
    pub(crate) fn snapshot(&self, id: QueryId) -> Result<Arc<QueryInfo>> {
        Ok(self.slot(id)?.snapshot())
    }

    /// Status/result of one query.
    pub fn status(&self, id: QueryId) -> Result<QueryInfo> {
        Ok(Arc::unwrap_or_clone(self.snapshot(id)?))
    }

    /// All queries in submission order (the Query Result pane).
    pub fn list(&self) -> Vec<QueryInfo> {
        let records: Vec<Arc<QueryInfo>> =
            self.state.lock().values().map(|s| s.snapshot()).collect();
        let mut all: Vec<QueryInfo> = records.into_iter().map(Arc::unwrap_or_clone).collect();
        all.sort_by_key(|q| q.seq);
        all
    }

    /// Wait on the query's own signal until it is terminal, `bound` has
    /// passed, or `cancel` is set (the setter then calls
    /// [`QueryServer::wake_waiters`]) — whichever comes first — and return
    /// the record as it then stands, terminal or not.
    pub(crate) fn await_terminal(
        &self,
        id: QueryId,
        bound: Duration,
        cancel: &AtomicBool,
    ) -> Result<Arc<QueryInfo>> {
        let slot = self.slot(id)?;
        let give_up = Instant::now() + bound;
        let mut record = slot.record.lock();
        while !record.status.is_terminal() && !cancel.load(Ordering::SeqCst) {
            let left = give_up.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            slot.changed.wait_for(&mut record, left);
        }
        Ok(record.clone())
    }

    /// Wake every [`QueryServer::await_terminal`] so it reads its cancel
    /// flag again.
    pub(crate) fn wake_waiters(&self) {
        for slot in self.state.lock().values() {
            // Through the slot's lock, so no waiter is between reading the
            // flag and starting to wait.
            drop(slot.record.lock());
            slot.changed.notify_all();
        }
    }

    /// Block until `id` reaches a terminal status.
    pub fn wait(&self, id: QueryId) -> Result<QueryInfo> {
        let slot = self.slot(id)?;
        let mut record = slot.record.lock();
        while !record.status.is_terminal() {
            slot.changed.wait(&mut record);
        }
        Ok(QueryInfo::clone(&record))
    }

    /// Block until every submitted query is terminal.
    pub fn wait_all(&self) {
        let ids: Vec<QueryId> = self.state.lock().keys().copied().collect();
        for id in ids {
            let _ = self.wait(id);
        }
    }
}

/// The one terminal step: budget rejection, admission rejection, failure and
/// success all end here. `end` writes the terminal status, and whatever the
/// outcome carries, into the record; then the SLO verdict, the ledger entry
/// (finished queries only), the journal record and the terminal counters
/// are appended, in that order, while the slot is still locked — so whoever
/// sees the terminal status also sees the query's obs records. `trace` is
/// the query's trace when it got far enough to execute.
fn settle(
    ctx: &QueryCtx,
    slot: &QuerySlot,
    admission: &str,
    trace: Option<&Trace>,
    end: impl FnOnce(&mut QueryInfo),
) {
    let obs = &ctx.obs;
    let mut record = slot.record.lock();
    let info = Arc::make_mut(&mut record);
    end(info);
    let mode = info.submission.mode();
    let level = mode.name();
    // Stamped on the query's own trace clock (micros since the query
    // started); a rejection has no trace and is stamped 0.
    let at_us = trace.map_or(0, Trace::now_micros);
    let rejected = info.status == QueryStatus::Rejected;
    let degraded = info
        .decisions
        .iter()
        .any(|d| matches!(d, Decision::Degrade));
    let speculative = info
        .decisions
        .iter()
        .any(|d| matches!(d, Decision::StragglerSpeculate { .. }));
    let slo_good = match (info.status, mode) {
        // Rejected and failed queries always burn budget, whatever their
        // pending time.
        (QueryStatus::Rejected | QueryStatus::Failed, _) => obs.slo.record(level, u64::MAX),
        // A deadline query is judged on completion latency: the excess over
        // its own target, against the zero-threshold "deadline" objective.
        (_, AdmissionMode::Deadline { target_us }) => {
            let total = (info.pending + info.execution).as_micros() as u64;
            obs.slo.record(level, total.saturating_sub(target_us))
        }
        (_, AdmissionMode::Level(_)) => obs.slo.record(level, info.pending.as_micros() as u64),
    };
    if info.status == QueryStatus::Finished {
        obs.ledger.append(LedgerEntry {
            query: info.id.to_string(),
            tenant: info.submission.tenant_name().to_string(),
            level: level.to_string(),
            bytes_billed: info.scan_bytes,
            revenue_dollars: info.price,
            vm_dollars: info.resource_cost.vm_dollars,
            cf_dollars: info.resource_cost.cf_dollars,
            provider_cf_dollars: info.provider_cf_dollars,
            shuffle_dollars: info.provider_shuffle_dollars,
            degraded,
            speculative,
            at_us,
        });
    }
    obs.journal.append(JournalEntry {
        query: info.id.to_string(),
        tenant: info.submission.tenant_name().to_string(),
        level: level.to_string(),
        status: info.status.name().to_string(),
        admission: admission.to_string(),
        decisions: if rejected {
            info.error.iter().cloned().collect()
        } else {
            info.decisions.iter().map(|d| format!("{d:?}")).collect()
        },
        retries: info.retries,
        pending_us: info.pending.as_micros() as u64,
        execution_us: info.execution.as_micros() as u64,
        scan_bytes: info.scan_bytes,
        revenue_dollars: info.price,
        vm_dollars: info.resource_cost.vm_dollars,
        cf_dollars: info.resource_cost.cf_dollars,
        provider_cf_dollars: info.provider_cf_dollars,
        used_cf: info.used_cf,
        degraded,
        speculative,
        slo_good,
        slo_threshold_us: obs.slo.threshold_us(level).unwrap_or(0),
        trace_spans: trace.map_or(0, |t| t.span_count() as u64),
        at_us,
    });
    ctx.metrics.terminal(info);
    drop(record);
    slot.changed.notify_all();
}

/// End a submission that never runs: it leaves the queue-depth gauge, its
/// journal record carries `reason`, and — being rejected — it burns SLO
/// budget but touches neither the ledger nor the result cache.
fn reject(ctx: &QueryCtx, slot: &QuerySlot, reason: &'static str) {
    settle(ctx, slot, "rejected", None, |info| {
        let level = info.submission.mode().name();
        ctx.metrics.queue_depth(level).add(-1.0);
        info.status = QueryStatus::Rejected;
        info.error = Some(reason.to_string());
    });
}

fn run_query_thread(
    ctx: &QueryCtx,
    slot: &QuerySlot,
    id: QueryId,
    submission: QuerySubmission,
    reserved: f64,
) {
    let mode = submission.mode();
    // One trace per query: the root `query` span covers scheduler wait,
    // tier dispatch, every operator, and every storage access beneath it.
    let trace = Trace::wall();
    let mut query_span = TraceCtx::root(&trace).span("query");
    query_span.record_str("id", &id.to_string());
    query_span.record_str("level", mode.name());

    // Deadline feasibility needs a work estimate; the planner's resource
    // model supplies it. An unplannable query estimates zero — it will fail
    // with its real error during execution, not a confusing rejection.
    let est_us = match mode {
        AdmissionMode::Deadline { .. } => ctx
            .engine
            .estimate_work(&submission.database, &submission.sql)
            .map(|w| w.exec_time_on_cores(w.parallelism as f64).as_micros())
            .unwrap_or(0),
        AdmissionMode::Level(_) => 0,
    };

    let queued = Instant::now();
    // Admission runs the same policy as the simulator; this thread supplies
    // the live load signal (engine busyness + fair-queue depths) and clock
    // (micros since the shared server-start epoch — one origin for every
    // thread, so queued deadlines and poll times compare like the
    // simulator's absolute virtual clock) and executes the verdicts.
    let now_us = || ctx.epoch.elapsed().as_micros() as u64;
    let load = |fair: &FairQueue| LoadSignal {
        overloaded: ctx.engine.is_busy(),
        nearly_idle: !ctx.engine.is_busy(),
        tenant_depth: fair.tenant_class_depth(submission.tenant_name(), mode),
        total_depth: fair.depth(),
    };
    let mut forced = false;
    let mut admission = "dispatch_now";
    {
        let wait_span = query_span.ctx().span("scheduler_wait");
        let mut fair = ctx.queue.fair.lock();
        let verdict = ctx.policy.admit(mode, load(&fair), now_us(), est_us);
        match verdict {
            Admission::DispatchNow => drop(fair),
            Admission::Queue { deadline_us } => {
                admission = "queued";
                fair.push(QueuedQuery {
                    id: id.0,
                    tenant: submission.tenant_name().to_string(),
                    mode,
                    deadline_us,
                    enqueued_us: now_us(),
                    batch_key: None,
                });
                loop {
                    let snapshot = load(&fair);
                    match fair.poll(&ctx.policy, snapshot, now_us(), id.0) {
                        QueueVerdict::Dispatch { forced: f } => {
                            forced = f;
                            if f {
                                admission = "forced";
                            }
                            break;
                        }
                        // Woken when a query leaves the queue; otherwise
                        // look again after `QUEUE_RECHECK`.
                        QueueVerdict::Wait => {
                            ctx.queue.changed.wait_for(&mut fair, QUEUE_RECHECK);
                        }
                    }
                }
                drop(fair);
                // This query left the queue: the next in line may go.
                ctx.queue.changed.notify_all();
            }
            Admission::Reject { reason } => {
                drop(fair);
                drop(wait_span);
                drop(query_span);
                ctx.spend.settle(submission.tenant_name(), reserved, 0.0);
                reject(ctx, slot, reason);
                return;
            }
        }
        drop(wait_span);
    }
    // The pending-time bound covers the engine's slot queue too: relaxed
    // queries may wait for a VM slot only until their grace period expires
    // (forced queries exhausted theirs already), then force-start unslotted.
    // Deadline queries get their remaining latest-start budget.
    let slot_wait_limit = if forced {
        Some(Duration::ZERO)
    } else {
        match mode {
            AdmissionMode::Level(ServiceLevel::Relaxed) => {
                let grace = Duration::from_micros(ctx.policy.grace.as_micros());
                Some(grace.saturating_sub(queued.elapsed()))
            }
            AdmissionMode::Deadline { target_us } => {
                let budget = Duration::from_micros(target_us.saturating_sub(est_us));
                Some(budget.saturating_sub(queued.elapsed()))
            }
            AdmissionMode::Level(_) => None,
        }
    };
    ctx.metrics.queue_depth(mode.name()).add(-1.0);
    slot.update(|info| {
        info.status = QueryStatus::Running;
        info.pending = queued.elapsed();
    });
    let (outcome, _share_kind) = ctx.sharing.execute(
        &ctx.engine,
        &submission.database,
        &submission.sql,
        mode.cf_enabled(),
        query_span.ctx(),
        slot_wait_limit,
    );
    drop(query_span);

    settle(ctx, slot, admission, Some(&trace), |info| {
        match outcome {
            Ok(mut out) => {
                if let Some(limit) = submission.result_limit {
                    if out.batch.num_rows() > limit {
                        out.batch = out
                            .batch
                            .slice(0, limit)
                            .unwrap_or_else(|_| out.batch.clone());
                    }
                }
                info.status = QueryStatus::Finished;
                info.pending += out.pending;
                info.execution = out.execution;
                info.scan_bytes = out.bytes_scanned;
                info.price = ctx.prices.bill(mode, out.bytes_scanned);
                info.used_cf = out.used_cf;
                info.metrics = out.metrics;
                info.events = out.events;
                info.retries = out.retries;
                info.decisions = out.decisions;
                info.resource_cost = out.resource_cost;
                info.provider_cf_dollars = out.provider_cf_dollars;
                info.provider_shuffle_dollars = out.provider_shuffle_dollars;
                info.exchange = out.exchange;
                info.result = Some(Arc::new(out.batch));
            }
            Err(e) => {
                info.status = QueryStatus::Failed;
                info.error = Some(e.to_string());
            }
        }
        info.profile = Some(trace.profile());
        // Reconcile the budget reservation against the real bill: release
        // the estimate, commit what was actually billed (zero on failure).
        ctx.spend
            .settle(submission.tenant_name(), reserved, info.price);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixels_catalog::Catalog;
    use pixels_storage::InMemoryObjectStore;
    use pixels_turbo::EngineConfig;
    use pixels_workload::{load_tpch, TpchConfig};

    fn server() -> QueryServer {
        let catalog = Catalog::shared();
        let store = InMemoryObjectStore::shared();
        load_tpch(
            &catalog,
            store.as_ref(),
            "tpch",
            &TpchConfig {
                scale: 0.0005,
                seed: 3,
                row_group_rows: 512,
                files_per_table: 1,
            },
        )
        .unwrap();
        let engine = Arc::new(
            TurboEngine::new(
                catalog,
                store,
                EngineConfig {
                    vm_slots: 2,
                    cf_fleet_threads: 2,
                    ..EngineConfig::default()
                },
            )
            // Tests that assert metric values need a private registry:
            // `cargo test` shares one process (and thus the global one).
            .with_registry(MetricsRegistry::shared()),
        );
        QueryServer::new(engine, PriceSchedule::default())
    }

    fn submission(sql: &str, level: ServiceLevel) -> QuerySubmission {
        QuerySubmission {
            database: "tpch".into(),
            sql: sql.into(),
            level,
            result_limit: None,
            tenant: None,
            deadline_us: None,
        }
    }

    #[test]
    fn submit_and_finish() {
        let s = server();
        let id = s.submit(submission(
            "SELECT COUNT(*) AS n FROM orders",
            ServiceLevel::Immediate,
        ));
        let info = s.wait(id).unwrap();
        assert_eq!(info.status, QueryStatus::Finished);
        let result = info.result.unwrap();
        assert_eq!(result.num_rows(), 1);
        assert!(info.price > 0.0);
        assert!(info.scan_bytes > 0);
    }

    #[test]
    fn failed_query_reports_error() {
        let s = server();
        let id = s.submit(submission("SELECT zap FROM orders", ServiceLevel::Relaxed));
        let info = s.wait(id).unwrap();
        assert_eq!(info.status, QueryStatus::Failed);
        assert!(info.error.unwrap().contains("zap"));
        assert!(info.result.is_none());
    }

    #[test]
    fn result_limit_truncates() {
        let s = server();
        let id = s.submit(QuerySubmission {
            database: "tpch".into(),
            sql: "SELECT o_orderkey FROM orders".into(),
            level: ServiceLevel::Immediate,
            result_limit: Some(7),
            tenant: None,
            deadline_us: None,
        });
        let info = s.wait(id).unwrap();
        assert_eq!(info.result.unwrap().num_rows(), 7);
    }

    #[test]
    fn pricing_by_level() {
        let s = server();
        let sql = "SELECT COUNT(*) FROM lineitem";
        // The first run pays for the footer fetch; afterwards the engine's
        // footer cache serves opens for free, so repeated runs bill only the
        // column chunks — identically at every service level.
        let cold = s
            .wait(s.submit(submission(sql, ServiceLevel::Immediate)))
            .unwrap();
        let a = s
            .wait(s.submit(submission(sql, ServiceLevel::Immediate)))
            .unwrap();
        let b = s
            .wait(s.submit(submission(sql, ServiceLevel::Relaxed)))
            .unwrap();
        let c = s
            .wait(s.submit(submission(sql, ServiceLevel::BestEffort)))
            .unwrap();
        assert!(
            cold.scan_bytes > a.scan_bytes,
            "cold run must bill the footer fetch: {} vs {}",
            cold.scan_bytes,
            a.scan_bytes
        );
        assert_eq!(a.scan_bytes, b.scan_bytes);
        assert_eq!(b.scan_bytes, c.scan_bytes);
        assert!((b.price / a.price - 0.2).abs() < 1e-6);
        assert!((c.price / a.price - 0.1).abs() < 1e-6);
    }

    #[test]
    fn list_preserves_submission_order() {
        let s = server();
        let id1 = s.submit(submission("SELECT 1", ServiceLevel::Immediate));
        let id2 = s.submit(submission("SELECT 2", ServiceLevel::Relaxed));
        s.wait(id1).unwrap();
        s.wait(id2).unwrap();
        let list = s.list();
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].id, id1);
        assert_eq!(list[1].id, id2);
    }

    #[test]
    fn json_status_payload() {
        let s = server();
        let id = s.submit(submission(
            "SELECT COUNT(*) FROM region",
            ServiceLevel::Immediate,
        ));
        let info = s.wait(id).unwrap();
        let json = info.to_json();
        assert_eq!(json.get("status").unwrap().as_str(), Some("finished"));
        assert_eq!(
            json.get("service_level").unwrap().as_str(),
            Some("immediate")
        );
        assert!(json.get("cost_dollars").unwrap().as_f64().unwrap() >= 0.0);
        // Roundtrips through the wire format.
        let text = json.to_compact_string();
        assert_eq!(Json::parse(&text).unwrap(), json);
    }

    /// Sum one attribute over a profile tree (`{"name",...,"attrs","children"}`).
    fn sum_attr(node: &Json, key: &str) -> f64 {
        let mut total = node
            .get("attrs")
            .and_then(|a| a.get(key))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        if let Some(children) = node.get("children").and_then(|c| c.as_array()) {
            for c in children {
                total += sum_attr(c, key);
            }
        }
        total
    }

    #[test]
    fn profile_tree_reconciles_with_billed_bytes() {
        let s = server();
        let id = s.submit(submission(
            "SELECT o_orderstatus, COUNT(*) AS n FROM orders GROUP BY o_orderstatus",
            ServiceLevel::Immediate,
        ));
        let info = s.wait(id).unwrap();
        let retained = s.profile(id).unwrap().expect("terminal query has profile");
        assert_eq!(Some(&retained), info.profile.as_ref());
        let profile = retained.to_json();
        // The profile is a forest; its root is the `query` span.
        let roots = profile.as_array().expect("profile is a span forest");
        assert!(!roots.is_empty());
        let rendered = profile.to_compact_string();
        for expected in ["query", "scheduler_wait", "vm_execute", "scan", "morsel"] {
            assert!(
                rendered.contains(&format!("\"name\":\"{expected}\"")),
                "missing {expected} span in {rendered}"
            );
        }
        // Span byte attribution sums exactly to the billed bytes.
        let total: f64 = roots.iter().map(|r| sum_attr(r, "bytes")).sum();
        assert_eq!(total as u64, info.scan_bytes);
        assert_eq!(info.metrics.bytes_scanned, info.scan_bytes);
    }

    #[test]
    fn structured_metrics_in_status_payload() {
        let s = server();
        let id = s.submit(submission(
            "SELECT COUNT(*) FROM lineitem",
            ServiceLevel::Immediate,
        ));
        s.wait(id).unwrap();
        // Re-run: the engine's footer cache now serves the open.
        let id2 = s.submit(submission(
            "SELECT COUNT(*) FROM lineitem",
            ServiceLevel::Immediate,
        ));
        let info = s.wait(id2).unwrap();
        assert!(info.metrics.footer_cache_hits > 0);
        let json = info.to_json();
        let m = json.get("metrics").expect("status payload carries metrics");
        assert!(m.get("bytes_scanned").unwrap().as_f64().unwrap() > 0.0);
        assert!(m.get("footer_cache_hits").unwrap().as_f64().unwrap() > 0.0);
        assert!(m.get("row_groups_read").is_some());
    }

    #[test]
    fn metrics_exposition_is_valid_and_complete() {
        let s = server();
        for level in [
            ServiceLevel::Immediate,
            ServiceLevel::Relaxed,
            ServiceLevel::BestEffort,
        ] {
            let id = s.submit(submission("SELECT COUNT(*) FROM orders", level));
            s.wait(id).unwrap();
        }
        let text = s.metrics_text();
        let families = pixels_obs::validate_exposition(&text).expect("exposition must be valid");
        for required in [
            "pixels_queries_total",
            "pixels_query_pending_seconds",
            "pixels_query_execution_seconds",
            "pixels_scheduler_queue_depth",
            "pixels_exec_bytes_scanned_total",
            "pixels_cache_footer_hits_total",
            "pixels_storage_get_requests_total",
            "pixels_storage_bytes_read_total",
        ] {
            assert!(families.contains(required), "missing family {required}");
        }
        // Terminal queries all drained from the queue-depth gauges.
        for line in text.lines() {
            if line.starts_with("pixels_scheduler_queue_depth{") {
                let v: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
                assert_eq!(v, 0.0, "queue must be drained: {line}");
            }
        }
        // Storage absorption is a delta: a second scrape must not double.
        let text2 = s.metrics_text();
        let gets = |t: &str| -> u64 {
            t.lines()
                .find(|l| l.starts_with("pixels_storage_get_requests_total"))
                .and_then(|l| l.rsplit(' ').next().unwrap().parse().ok())
                .unwrap()
        };
        assert_eq!(gets(&text), gets(&text2));
    }

    #[test]
    fn idle_server_already_serves_every_catalog_family() {
        let s = server();
        let text = s.metrics_text();
        let served =
            pixels_obs::validate_exposition(&text).expect("an idle exposition must be valid");
        // What the two catalogs register into a registry of their own.
        let fresh = MetricsRegistry::new();
        pixels_turbo::EngineMetrics::new(&fresh);
        ServerMetrics::new(&fresh);
        let catalog = pixels_obs::validate_exposition(&fresh.render()).unwrap();
        assert!(catalog.len() > 30, "{catalog:?}");
        for family in &catalog {
            assert!(served.contains(family), "idle server lacks {family}");
        }
        // The scrape-time sources export with nothing recorded, too.
        for family in [
            pixels_obs::slo::GOOD_TOTAL,
            pixels_obs::slo::VIOLATION_TOTAL,
            "pixels_slo_burn_rate",
            "pixels_slo_threshold_seconds",
            pixels_obs::ledger::ENTRIES_TOTAL,
            pixels_obs::ledger::REVENUE_DOLLARS,
            "pixels_ledger_provider_dollars",
            "pixels_shared_work_total",
            "pixels_storage_get_requests_total",
            "pixels_retries_total",
        ] {
            assert!(served.contains(family), "idle server lacks {family}");
        }
        // Nothing ran: every series a query moves is there and reads zero.
        let moved_by_queries = text.lines().filter(|l| {
            ["pixels_queries_total", "pixels_exec_", "pixels_scheduler_"]
                .iter()
                .any(|p| l.starts_with(p))
        });
        assert!(moved_by_queries.clone().count() >= 4 * 3 + 5 + 4);
        for line in moved_by_queries {
            assert!(line.ends_with(" 0"), "{line}");
        }
    }

    #[test]
    fn a_vm_query_looks_no_family_up_between_submit_and_terminal() {
        let s = server();
        let registry = s.registry().clone();
        for sql in ["SELECT COUNT(*) FROM orders", "SELECT no_such FROM orders"] {
            let before = registry.lookups();
            let info = s
                .wait(s.submit(submission(sql, ServiceLevel::Immediate)))
                .unwrap();
            assert!(info.status.is_terminal() && !info.used_cf);
            assert_eq!(
                registry.lookups(),
                before,
                "submit, dispatch, execution and settle go through held handles"
            );
        }
        // A budget rejection settles on the submitting thread: same rule.
        s.tenants().set_policy(
            "capped",
            crate::tenant::TenantPolicy {
                weight: 1.0,
                budget_dollars: Some(0.0),
            },
        );
        let mut refused = submission("SELECT COUNT(*) FROM orders", ServiceLevel::Relaxed);
        refused.tenant = Some("capped".into());
        let before = registry.lookups();
        let info = s.wait(s.submit(refused)).unwrap();
        assert_eq!(info.status, QueryStatus::Rejected);
        assert_eq!(registry.lookups(), before);
        // The handles were the registry's own series: the scrape shows them.
        let text = s.metrics_text();
        for series in [
            r#"pixels_queries_total{level="immediate",status="finished"} 1"#,
            r#"pixels_queries_total{level="immediate",status="failed"} 1"#,
            r#"pixels_queries_total{level="relaxed",status="rejected"} 1"#,
            "pixels_query_execution_seconds_count 2",
        ] {
            assert!(text.contains(series), "missing `{series}` in {text}");
        }
    }

    /// A scrape-time source: something that keeps its own running totals and
    /// sets registry series to them when exported.
    struct Source<'a> {
        name: &'static str,
        /// Move the source's totals; the argument counts the calls.
        update: Box<dyn Fn(u64) + Sync + 'a>,
        export: Box<dyn Fn(&MetricsRegistry) + Sync + 'a>,
        /// (family, labels, the source's own total) per exported counter.
        totals: Box<dyn Fn() -> Vec<Total> + Sync + 'a>,
    }
    type Total = (&'static str, Vec<(&'static str, &'static str)>, u64);

    #[test]
    fn every_scrape_time_export_ends_at_its_sources_total() {
        use pixels_chaos::{FaultInjector, FaultPlan, FaultSite};
        use pixels_obs::{ledger, slo, SloObjective};
        use pixels_storage::ChunkCache;

        let registry = MetricsRegistry::new();
        let store = InMemoryObjectStore::shared();
        let cache = ChunkCache::new(2 << 10);
        let engine_metrics = pixels_turbo::EngineMetrics::new(&registry);
        let engine = server().engine().clone();
        let shared = SharedWork::new(SharingConfig {
            enabled: true,
            cache_entries: 4,
        });
        let book = Ledger::new();
        let tracker = SloTracker::new(
            WallClock::shared(),
            vec![
                SloObjective::new("immediate", 10),
                SloObjective::new("relaxed", 10),
            ],
        );
        let faults = FaultInjector::new(&FaultPlan::get_errors(7, 0.5));
        let level = |n: u64| ["immediate", "relaxed"][(n % 2) as usize];
        let slo_total = |level: &str, which: &str| {
            let json = tracker.to_json();
            let total = json.get("levels").unwrap().get(level).unwrap().get(which);
            total.unwrap().as_i64().unwrap() as u64
        };

        let sources = [
            Source {
                name: "store totals",
                update: Box::new(|n| {
                    let path = format!("obj-{}", n % 3);
                    store.put(&path, vec![0u8; 16 + n as usize].into()).unwrap();
                    store.get(&path).unwrap();
                    assert!(store.get("missing").is_err());
                }),
                export: Box::new(|r| store.metrics().export(r)),
                totals: Box::new(|| {
                    let m = store.metrics();
                    vec![
                        ("pixels_storage_get_requests_total", vec![], m.get_requests),
                        ("pixels_storage_put_requests_total", vec![], m.put_requests),
                        ("pixels_storage_bytes_read_total", vec![], m.bytes_read),
                        (
                            "pixels_storage_bytes_written_total",
                            vec![],
                            m.bytes_written,
                        ),
                        ("pixels_storage_gets_failed_total", vec![], m.gets_failed),
                        (
                            "pixels_retries_total",
                            vec![("site", "storage_get")],
                            m.retries,
                        ),
                    ]
                }),
            },
            Source {
                name: "chunk cache",
                update: Box::new(|n| {
                    // 512-byte chunks in a 2 KiB cache: inserts evict.
                    cache.insert("t.pxl", 1, n * 512, vec![0u8; 512].into());
                    assert!(cache.lookup("t.pxl", 1, n * 512).is_some());
                    assert!(cache.lookup("t.pxl", 2, n * 512).is_none());
                }),
                export: Box::new(|_| engine_metrics.chunk_cache(&cache)),
                totals: Box::new(|| {
                    vec![
                        ("pixels_cache_chunk_hits_total", vec![], cache.hits()),
                        ("pixels_cache_chunk_misses_total", vec![], cache.misses()),
                        (
                            "pixels_cache_chunk_evictions_total",
                            vec![],
                            cache.evictions(),
                        ),
                    ]
                }),
            },
            Source {
                name: "shared work",
                update: Box::new(|n| {
                    let sql = format!("SELECT COUNT(*) FROM region WHERE r_regionkey < {}", n % 3);
                    let (out, _) =
                        shared.execute(&engine, "tpch", &sql, false, TraceCtx::disabled(), None);
                    out.unwrap();
                }),
                export: Box::new(|r| shared.export(r)),
                totals: Box::new(|| {
                    let (hits, coalesced, executed) = shared.stats();
                    let family = "pixels_shared_work_total";
                    vec![
                        (family, vec![("kind", "cache_hit")], hits),
                        (family, vec![("kind", "coalesced")], coalesced),
                        (family, vec![("kind", "executed")], executed),
                    ]
                }),
            },
            Source {
                name: "ledger by level",
                update: Box::new(|n| {
                    book.append(LedgerEntry {
                        query: format!("q-{n}"),
                        tenant: "default".into(),
                        level: level(n).into(),
                        bytes_billed: 1,
                        revenue_dollars: 0.5,
                        vm_dollars: 0.0,
                        cf_dollars: 0.0,
                        provider_cf_dollars: 0.0,
                        shuffle_dollars: 0.0,
                        degraded: false,
                        speculative: false,
                        at_us: n,
                    })
                }),
                export: Box::new(|r| book.export(r)),
                totals: Box::new(|| {
                    let by_level = book.by_level();
                    let entries = |l: &str| by_level.get(l).map_or(0, |s| s.entries);
                    let family = ledger::ENTRIES_TOTAL;
                    vec![
                        (family, vec![("level", "immediate")], entries("immediate")),
                        (family, vec![("level", "relaxed")], entries("relaxed")),
                        (family, vec![("level", "all")], book.len() as u64),
                    ]
                }),
            },
            Source {
                name: "slo good/violation",
                update: Box::new(|n| {
                    tracker.record(level(n), if n % 3 == 0 { u64::MAX } else { 1 });
                }),
                export: Box::new(|r| tracker.export(r)),
                totals: Box::new(|| {
                    let mut totals = Vec::new();
                    for l in ["immediate", "relaxed"] {
                        let (good, bad) =
                            (slo_total(l, "good_total"), slo_total(l, "violation_total"));
                        totals.push((slo::GOOD_TOTAL, vec![("level", l)], good));
                        totals.push((slo::VIOLATION_TOTAL, vec![("level", l)], bad));
                    }
                    totals
                }),
            },
            Source {
                name: "injected faults",
                update: Box::new(|_| {
                    faults.decide(FaultSite::StorageGet);
                }),
                export: Box::new(|r| faults.export_metrics(r)),
                totals: Box::new(|| {
                    vec![(
                        "pixels_faults_injected_total",
                        vec![("site", "storage_get")],
                        faults.injected_at(FaultSite::StorageGet),
                    )]
                }),
            },
        ];

        const ROUNDS: u64 = 25;
        const EXPORTERS: usize = 4;
        let shown = |(family, labels, _): &Total| registry.counter_with(family, "", labels).get();
        for source in &sources {
            let gate = std::sync::Barrier::new(EXPORTERS + 1);
            // Checked after the scope: a panic between two `gate.wait()`s
            // would leave the exporters waiting for ever.
            let mut ahead = None;
            std::thread::scope(|s| {
                for _ in 0..EXPORTERS {
                    s.spawn(|| {
                        for _ in 0..ROUNDS {
                            gate.wait();
                            (source.export)(&registry);
                            (source.export)(&registry);
                            gate.wait();
                        }
                    });
                }
                for round in 0..ROUNDS {
                    (source.update)(2 * round);
                    gate.wait();
                    // The exporters race each other, this update and this
                    // thread's own export; none may publish an event twice.
                    (source.update)(2 * round + 1);
                    (source.export)(&registry);
                    gate.wait();
                    for total in (source.totals)() {
                        if shown(&total) > total.2 {
                            ahead = ahead.or(Some((round, total.0, shown(&total), total.2)));
                        }
                    }
                }
            });
            assert_eq!(
                ahead, None,
                "{}: (round, family, shown, source)",
                source.name
            );
            (source.export)(&registry);
            let totals = (source.totals)();
            assert!(
                totals.iter().any(|t| t.2 > 0),
                "{} never moved",
                source.name
            );
            for total in totals {
                assert_eq!(shown(&total), total.2, "{}: {total:?}", source.name);
            }
        }
    }

    #[test]
    fn chaos_query_surfaces_retry_events_and_metrics() {
        use pixels_chaos::{FaultInjector, FaultPlan, FaultSite, RetryPolicy, SiteSpec};
        use pixels_storage::chaos_stack;

        let catalog = Catalog::shared();
        let inner = InMemoryObjectStore::shared();
        load_tpch(
            &catalog,
            inner.as_ref(),
            "tpch",
            &TpchConfig {
                scale: 0.0005,
                seed: 3,
                row_group_rows: 512,
                files_per_table: 1,
            },
        )
        .unwrap();
        // Every third GET fails transiently; the retry policy masks it all.
        let plan = FaultPlan::none(99).with(FaultSite::StorageGet, SiteSpec::errors(0.3));
        let injector = Arc::new(FaultInjector::new(&plan));
        let store = chaos_stack(
            inner,
            injector.clone(),
            RetryPolicy::object_store(),
            pixels_obs::WallClock::shared(),
        );
        let engine = Arc::new(
            TurboEngine::new(
                catalog,
                store,
                EngineConfig {
                    vm_slots: 2,
                    cf_fleet_threads: 2,
                    ..EngineConfig::default()
                },
            )
            .with_registry(MetricsRegistry::shared())
            .with_chaos(injector),
        );
        let s = QueryServer::new(engine, PriceSchedule::default());

        let id = s.submit(submission(
            "SELECT COUNT(*) AS n FROM orders",
            ServiceLevel::Immediate,
        ));
        let info = s.wait(id).unwrap();
        assert_eq!(info.status, QueryStatus::Finished, "{:?}", info.error);
        assert!(info.retries > 0, "faults at 30% must have forced retries");
        assert!(
            info.events
                .iter()
                .any(|e| matches!(e, pixels_turbo::QueryEvent::StorageRetries { .. })),
            "retry events surface in QueryInfo: {:?}",
            info.events
        );
        let json = info.to_json();
        assert!(json.get("retries").unwrap().as_f64().unwrap() > 0.0);
        assert!(!json.get("events").unwrap().as_array().unwrap().is_empty());

        // The exposition carries the new fault families with nonzero values.
        let text = s.metrics_text();
        pixels_obs::validate_exposition(&text).expect("exposition must stay valid");
        let value_of = |needle: &str| -> f64 {
            text.lines()
                .find(|l| l.starts_with(needle))
                .and_then(|l| l.rsplit(' ').next().unwrap().parse().ok())
                .unwrap_or(0.0)
        };
        assert!(value_of("pixels_faults_injected_total{site=\"storage_get\"}") > 0.0);
        assert!(value_of("pixels_retries_total{site=\"storage_get\"}") > 0.0);
        assert!(value_of("pixels_storage_gets_failed_total") > 0.0);
    }

    #[test]
    fn relaxed_grace_expiry_force_starts_on_the_live_engine() {
        use crate::scheduler::SchedulerPolicy;
        use pixels_sim::SimDuration;

        let catalog = Catalog::shared();
        let store = InMemoryObjectStore::shared();
        load_tpch(
            &catalog,
            store.as_ref(),
            "tpch",
            &TpchConfig {
                scale: 0.0005,
                seed: 3,
                row_group_rows: 512,
                files_per_table: 1,
            },
        )
        .unwrap();
        let registry = MetricsRegistry::shared();
        let engine = Arc::new(
            TurboEngine::new(
                catalog,
                store,
                EngineConfig {
                    vm_slots: 1,
                    cf_fleet_threads: 2,
                    ..EngineConfig::default()
                },
            )
            .with_registry(registry.clone()),
        );
        let s = QueryServer::new(engine.clone(), PriceSchedule::default()).with_scheduler(
            SchedulerPolicy {
                grace: SimDuration::from_millis(10),
                ..Default::default()
            },
        );

        // Saturate the only VM slot, then submit a relaxed query whose tiny
        // grace period expires while the blocker still holds it: the
        // scheduler must force-start it unslotted rather than let it drift
        // in the FIFO queue.
        let blocker = {
            let e = engine.clone();
            std::thread::spawn(move || {
                e.execute_sql(
                    "tpch",
                    "SELECT COUNT(*) FROM lineitem CROSS JOIN nation",
                    false,
                )
                .unwrap()
            })
        };
        while !engine.is_busy() {
            std::thread::yield_now();
        }
        let id = s.submit(submission(
            "SELECT COUNT(*) AS n FROM region",
            ServiceLevel::Relaxed,
        ));
        let info = s.wait(id).unwrap();
        blocker.join().unwrap();
        assert_eq!(info.status, QueryStatus::Finished, "{:?}", info.error);
        assert!(
            registry
                .counter("pixels_turbo_forced_starts_total", "")
                .get()
                >= 1,
            "grace expiry must force-start the query unslotted"
        );
    }

    #[test]
    fn ledger_reconciles_bit_for_bit_with_query_state() {
        let s = server();
        for (i, level) in ServiceLevel::ALL.iter().enumerate() {
            let mut sub = submission("SELECT COUNT(*) FROM orders", *level);
            if i == 0 {
                sub.tenant = Some("acme".into());
            }
            s.wait(s.submit(sub)).unwrap();
        }
        // One failure: no ledger entry, but a journal record.
        s.wait(s.submit(submission(
            "SELECT zap FROM orders",
            ServiceLevel::Immediate,
        )))
        .unwrap();
        let entries = s.ledger().entries();
        assert_eq!(entries.len(), 3, "failed queries carry no ledger entry");
        for e in &entries {
            let info = s.status(QueryId(e.query[2..].parse().unwrap())).unwrap();
            assert_eq!(e.revenue_dollars.to_bits(), info.price.to_bits());
            assert_eq!(e.bytes_billed, info.scan_bytes);
            assert_eq!(
                e.vm_dollars.to_bits(),
                info.resource_cost.vm_dollars.to_bits()
            );
            assert_eq!(
                e.cf_dollars.to_bits(),
                info.resource_cost.cf_dollars.to_bits()
            );
            assert_eq!(
                e.provider_cf_dollars.to_bits(),
                info.provider_cf_dollars.to_bits()
            );
            assert_eq!(e.level, info.submission.level.name());
            assert_eq!(e.tenant, info.submission.tenant_name());
        }
        let by_tenant = s.ledger().by_tenant();
        assert_eq!(by_tenant["acme"].entries, 1);
        assert_eq!(by_tenant["default"].entries, 2);
        // /ledger and /slo payloads parse and carry the totals.
        let ledger_json = s.ledger_json();
        assert_eq!(
            ledger_json
                .get("summary")
                .unwrap()
                .get("entries")
                .unwrap()
                .as_i64(),
            Some(3)
        );
        let slo_json = s.slo_json();
        let relaxed = slo_json.get("levels").unwrap().get("relaxed").unwrap();
        assert_eq!(relaxed.get("good_total").unwrap().as_i64(), Some(1));
    }

    #[test]
    fn journal_replay_reproduces_registry_aggregates() {
        use crate::tenant::{TenantDirectory, TenantPolicy};
        let tenants = Arc::new(TenantDirectory::new());
        tenants.set_policy(
            "broke",
            TenantPolicy {
                budget_dollars: Some(0.0),
                ..TenantPolicy::default()
            },
        );
        let s = server().with_tenants(tenants);
        for level in ServiceLevel::ALL {
            s.wait(s.submit(submission("SELECT COUNT(*) FROM region", level)))
                .unwrap();
        }
        s.wait(s.submit(submission("SELECT zap FROM region", ServiceLevel::Relaxed)))
            .unwrap();
        // One rejection (exhausted budget): journals and counts, no ledger.
        let mut capped = submission("SELECT COUNT(*) FROM region", ServiceLevel::Immediate);
        capped.tenant = Some("broke".into());
        s.wait(s.submit(capped)).unwrap();
        let entries = pixels_obs::QueryJournal::parse_jsonl(&s.journal_jsonl()).unwrap();
        assert_eq!(entries.len(), 5);
        let failed = entries.iter().find(|e| e.status == "failed").unwrap();
        assert!(!failed.slo_good, "failed queries are SLO violations");
        let rejected = entries.iter().find(|e| e.status == "rejected").unwrap();
        assert!(!rejected.slo_good, "rejections are SLO violations");
        assert_eq!(rejected.admission, "rejected");
        assert_eq!(rejected.revenue_dollars, 0.0);
        assert!(entries
            .iter()
            .all(|e| e.trace_spans > 0 || e.status == "rejected"));
        assert!(entries.iter().all(|e| {
            ["dispatch_now", "queued", "forced", "rejected"].contains(&e.admission.as_str())
        }));
        // The journal reproduces the registry exactly — including the
        // rejection, which must appear in the terminal counters and SLO
        // families but never in the ledger families.
        let agg = pixels_obs::journal::replay(&entries);
        let diffs = agg.diff_against_exposition(&s.metrics_text());
        assert!(diffs.is_empty(), "journal/registry drift: {diffs:?}");
    }

    #[test]
    fn budget_rejection_never_touches_ledger_or_cache() {
        use crate::tenant::{TenantDirectory, TenantPolicy};
        let tenants = Arc::new(TenantDirectory::new());
        tenants.set_policy(
            "capped",
            TenantPolicy {
                budget_dollars: Some(0.0),
                ..TenantPolicy::default()
            },
        );
        let s = server().with_tenants(tenants).with_sharing(SharingConfig {
            enabled: true,
            cache_entries: 8,
        });
        let mut sub = submission("SELECT COUNT(*) FROM region", ServiceLevel::Immediate);
        sub.tenant = Some("capped".into());
        let info = s.wait(s.submit(sub)).unwrap();
        assert_eq!(info.status, QueryStatus::Rejected);
        assert_eq!(info.error.as_deref(), Some("budget_exhausted"));
        assert!(info.result.is_none());
        assert_eq!(info.price, 0.0);
        assert!(s.ledger().entries().is_empty(), "rejections never ledger");
        assert_eq!(s.shared().stats(), (0, 0, 0), "rejections never execute");
        // A healthy tenant running the same SQL afterwards is a cache miss:
        // the rejected query must not have warmed anything.
        let info = s
            .wait(s.submit(submission(
                "SELECT COUNT(*) FROM region",
                ServiceLevel::Immediate,
            )))
            .unwrap();
        assert_eq!(info.status, QueryStatus::Finished);
        assert_eq!(s.shared().stats().0, 0, "first real run is a miss");
        let text = s.metrics_text();
        assert!(
            text.contains(r#"pixels_queries_total{level="immediate",status="rejected"} 1"#),
            "{text}"
        );
    }

    #[test]
    fn concurrent_capped_submissions_cannot_overrun_the_budget() {
        use crate::tenant::{TenantDirectory, TenantPolicy};
        let tenants = Arc::new(TenantDirectory::new());
        // A budget below one query's estimated bill: the first submission
        // is admitted (spend is strictly under the cap) and every later
        // one is refused *while the first is still in flight* — the
        // admission-time reservation carries the spend, so a burst of
        // submissions cannot all slip under the cap before any of them
        // reaches the ledger.
        tenants.set_policy(
            "capped",
            TenantPolicy {
                budget_dollars: Some(1e-12),
                ..TenantPolicy::default()
            },
        );
        let s = server().with_tenants(tenants);
        let ids: Vec<QueryId> = (0..6)
            .map(|_| {
                let mut sub = submission("SELECT COUNT(*) FROM region", ServiceLevel::Immediate);
                sub.tenant = Some("capped".into());
                s.submit(sub)
            })
            .collect();
        let infos: Vec<QueryInfo> = ids.into_iter().map(|id| s.wait(id).unwrap()).collect();
        let finished = infos
            .iter()
            .filter(|i| i.status == QueryStatus::Finished)
            .count();
        let rejected = infos
            .iter()
            .filter(|i| i.status == QueryStatus::Rejected)
            .count();
        assert_eq!((finished, rejected), (1, 5));
        assert_eq!(
            s.ledger().entries().len(),
            1,
            "only the admitted query bills"
        );
    }

    #[test]
    fn deadline_submission_completes_and_bills_by_target() {
        let s = server();
        let mut sub = submission("SELECT COUNT(*) FROM region", ServiceLevel::BestEffort);
        // A 10-minute completion target: trivially feasible, priced at
        // 60s/600s = 0.1× the immediate rate (the best-effort floor).
        sub.deadline_us = Some(600_000_000);
        let info = s.wait(s.submit(sub)).unwrap();
        assert_eq!(info.status, QueryStatus::Finished, "{:?}", info.error);
        let immediate = s
            .wait(s.submit(submission(
                "SELECT COUNT(*) FROM region",
                ServiceLevel::Immediate,
            )))
            .unwrap();
        // Same warm-cache repeat bytes ⇒ prices compare by fraction alone.
        let deadline_per_byte = info.price / info.scan_bytes as f64;
        let immediate_per_byte = immediate.price / immediate.scan_bytes as f64;
        assert!(
            (deadline_per_byte / immediate_per_byte - 0.1).abs() < 1e-6,
            "600 s target bills at the floor fraction: {deadline_per_byte} vs {immediate_per_byte}"
        );
        // The ledger entry and SLO verdict land under "deadline".
        let entry = &s.ledger().entries()[0];
        assert_eq!(entry.level, "deadline");
        assert_eq!(entry.revenue_dollars.to_bits(), info.price.to_bits());
        let json = info.to_json();
        assert_eq!(
            json.get("service_level").unwrap().as_str(),
            Some("deadline")
        );
        let text = s.metrics_text();
        assert!(
            text.contains(r#"pixels_slo_good_total{level="deadline"} 1"#),
            "a met deadline is an SLO good event: {text}"
        );
    }

    #[test]
    fn sharing_repeat_bills_warm_bytes_with_zero_provider_cost() {
        let s = server().with_sharing(SharingConfig {
            enabled: true,
            cache_entries: 8,
        });
        let sql = "SELECT o_orderkey FROM orders ORDER BY o_orderkey";
        let first = s
            .wait(s.submit(submission(sql, ServiceLevel::Immediate)))
            .unwrap();
        let mut sub = submission(sql, ServiceLevel::Relaxed);
        sub.tenant = Some("acme".into());
        let second = s.wait(s.submit(sub)).unwrap();
        assert_eq!(second.status, QueryStatus::Finished);
        // Identical rows in identical order.
        assert_eq!(second.result, first.result);
        // Billed the warm-repeat bytes at the follower's own level price.
        let warm = first.scan_bytes - first.metrics.open_bytes;
        assert_eq!(second.scan_bytes, warm);
        assert_eq!(
            second.price.to_bits(),
            PriceSchedule::default()
                .bill(ServiceLevel::Relaxed, warm)
                .to_bits()
        );
        // The leader paid the provider; the follower pays nothing.
        assert!(first.resource_cost.total() > 0.0);
        assert_eq!(second.resource_cost.total(), 0.0);
        // Ledger reconciliation: both entries exist under their tenants with
        // exactly the per-query dollars above.
        let by_tenant = s.ledger().by_tenant();
        assert_eq!(by_tenant["acme"].entries, 1);
        assert_eq!(
            by_tenant["acme"].revenue_dollars.to_bits(),
            second.price.to_bits()
        );
        assert_eq!(by_tenant["default"].entries, 1);
        let (hits, _, executed) = s.shared().stats();
        assert_eq!((hits, executed), (1, 1));
    }

    #[test]
    fn tenants_endpoint_reports_policy_spend_and_depth() {
        use crate::tenant::{TenantDirectory, TenantPolicy};
        let tenants = Arc::new(TenantDirectory::new());
        tenants.set_policy(
            "acme",
            TenantPolicy {
                weight: 2.0,
                budget_dollars: Some(10.0),
            },
        );
        let s = server().with_tenants(tenants);
        let mut sub = submission("SELECT COUNT(*) FROM region", ServiceLevel::Immediate);
        sub.tenant = Some("acme".into());
        s.wait(s.submit(sub)).unwrap();
        let json = s.tenants_json();
        let rows = json.get("tenants").unwrap().as_array().unwrap();
        let acme = rows
            .iter()
            .find(|r| r.get("tenant").unwrap().as_str() == Some("acme"))
            .expect("acme row");
        assert_eq!(acme.get("weight").unwrap().as_f64(), Some(2.0));
        assert_eq!(acme.get("budget_dollars").unwrap().as_f64(), Some(10.0));
        assert!(acme.get("spent_dollars").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(acme.get("queries").unwrap().as_f64(), Some(1.0));
        assert_eq!(acme.get("queued").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn slo_and_ledger_families_are_exposed_and_valid() {
        let s = server();
        s.wait(s.submit(submission(
            "SELECT COUNT(*) FROM region",
            ServiceLevel::Immediate,
        )))
        .unwrap();
        let text = s.metrics_text();
        pixels_obs::require_families(
            &text,
            &[
                "pixels_slo_good_total",
                "pixels_slo_violation_total",
                "pixels_slo_burn_rate",
                "pixels_slo_threshold_seconds",
                "pixels_ledger_entries_total",
                "pixels_ledger_revenue_dollars",
                "pixels_ledger_provider_dollars",
            ],
        )
        .expect("SLO and ledger families must be exposed");
        // A sub-second immediate query on an idle test engine meets its SLO.
        assert!(
            text.contains("pixels_slo_good_total{level=\"immediate\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn scheduler_bounds_drive_the_slo_thresholds() {
        use pixels_sim::SimDuration;
        let s = server().with_scheduler(SchedulerPolicy {
            grace: SimDuration::from_secs(42),
            ..Default::default()
        });
        assert_eq!(s.slo().threshold_us("relaxed"), Some(42_000_000));
        assert_eq!(s.slo().threshold_us("immediate"), Some(1_000_000));
    }

    #[test]
    fn concurrent_submissions_all_complete() {
        let s = server();
        let ids: Vec<QueryId> = (0..8)
            .map(|i| {
                s.submit(submission(
                    if i % 2 == 0 {
                        "SELECT COUNT(*) FROM lineitem"
                    } else {
                        "SELECT COUNT(*) FROM customer"
                    },
                    ServiceLevel::ALL[i % 3],
                ))
            })
            .collect();
        for id in ids {
            let info = s.wait(id).unwrap();
            assert_eq!(info.status, QueryStatus::Finished, "{:?}", info.error);
        }
    }
}
