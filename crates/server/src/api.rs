//! Real-mode query server: the REST-API surface of the paper, in-process.
//!
//! Pixels-Rover submits queries here with a service level and result-size
//! limit (the submission form of Figure 3), reads statuses (pending /
//! running / finished / failed), and fetches results plus execution
//! statistics (pending time, execution time, monetary cost). Each query
//! runs on its own thread against the [`TurboEngine`] and owns a
//! [`QuerySlot`] — its record plus a condvar — so whoever wants the outcome
//! (a held status `GET`, [`QueryServer::wait`]) waits on that query's
//! signal instead of polling, and the server-wide map lock is held only to
//! find or insert a slot. Admission is the step the simulator takes too
//! ([`crate::FairQueue::admit`] under the same [`SchedulerPolicy`]):
//! immediate dispatches now with CF acceleration, relaxed waits for
//! headroom no longer than the grace period, best-of-effort waits for an
//! idle engine bounded by the starvation limit — and what is left of a
//! query's bound when it dispatches bounds its wait for an engine slot.

use crate::admission::AdmissionQueue;
use crate::fair::Request;
use crate::metrics::ServerMetrics;
use crate::pricing::PriceSchedule;
use crate::query::{QueryInfo, QuerySlot, QueryStatus, QuerySubmission};
use crate::scheduler::SchedulerPolicy;
use crate::shared::{SharedWork, SharingConfig};
use crate::tenant::{SpendBook, TenantDirectory};
use parking_lot::Mutex;
use pixels_common::{Error, Json, QueryId, Result};
use pixels_exec::default_parallelism;
use pixels_obs::{
    JournalEntry, Ledger, MetricsRegistry, Profile, QueryJournal, SloTracker, Trace, TraceCtx,
    WallClock,
};
use pixels_turbo::{Decision, TurboEngine};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The in-process query server.
pub struct QueryServer {
    /// What every query thread shares with the server.
    ctx: Arc<QueryCtx>,
    /// Every query submitted, by id. Held to find or insert a slot only.
    state: Mutex<HashMap<QueryId, Arc<QuerySlot>>>,
    next_id: AtomicU64,
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
    /// Held across one query's SLO, ledger and journal appends, so the
    /// journal lists finished queries in ledger append order: the order
    /// [`pixels_obs::journal::replay`] folds their dollars in.
    appending: Mutex<()>,
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
            appending: Mutex::new(()),
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
                queue: AdmissionQueue::new(),
                sharing: Arc::new(SharedWork::new(SharingConfig::default())),
                spend: SpendBook::new(),
            }),
            state: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
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

    /// Install a tenant directory (weights and budgets). A tenant's weight
    /// reaches the fair queue when the tenant submits, before its query can
    /// queue.
    pub fn with_tenants(mut self, tenants: Arc<TenantDirectory>) -> Self {
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
        let registered = self.tenants.registered().into_iter().map(|(name, _)| name);
        let names: BTreeSet<String> = registered.chain(by_tenant.keys().cloned()).collect();
        let fair = self.ctx.queue.fair.lock();
        let rows = names.iter().map(|name| {
            let policy = self.tenants.policy(name);
            let mut fields = vec![
                ("tenant", Json::string(name.clone())),
                ("weight", Json::number(policy.weight)),
                ("queued", Json::number(fair.tenant_depth(name) as f64)),
            ];
            if let Some(budget) = policy.budget_dollars {
                fields.push(("budget_dollars", Json::number(budget)));
            }
            if let Some(summary) = by_tenant.get(name) {
                fields.push(("spent_dollars", Json::number(summary.revenue_dollars)));
                fields.push(("queries", Json::number(summary.entries as f64)));
            }
            Json::object(fields)
        });
        Json::object([("tenants", Json::array(rows))])
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
        let slot = Arc::new(QuerySlot::new(QueryInfo::pending(id, submission.clone())));
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

        // The query thread runs detached: it reports through `slot`.
        let ctx = ctx.clone();
        std::thread::spawn(move || run_query_thread(&ctx, &slot, id, submission, reserved));
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
        let give_up = Instant::now() + bound;
        Ok(self.slot(id)?.await_terminal(Some(give_up), cancel))
    }

    /// Wake every [`QueryServer::await_terminal`] so it reads its cancel
    /// flag again.
    pub(crate) fn wake_waiters(&self) {
        for slot in self.state.lock().values() {
            slot.wake();
        }
    }

    /// Block until `id` reaches a terminal status.
    pub fn wait(&self, id: QueryId) -> Result<QueryInfo> {
        let never = AtomicBool::new(false);
        Ok(QueryInfo::clone(
            &self.slot(id)?.await_terminal(None, &never),
        ))
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
/// (finished queries only) and the journal record are appended as one
/// critical section, and the terminal counters moved, while the slot is
/// still locked — so whoever sees the terminal status also sees the
/// query's obs records. `trace` is the query's trace when it got far enough
/// to execute.
fn settle(
    ctx: &QueryCtx,
    slot: &QuerySlot,
    admission: &str,
    trace: Option<&Trace>,
    end: impl FnOnce(&mut QueryInfo),
) {
    let obs = &ctx.obs;
    slot.update(|info| {
        end(info);
        let mode = info.submission.mode();
        let level = mode.name();
        let pending_us = info.pending.as_micros() as u64;
        let slo_latency_us = match info.status {
            // Rejected and failed queries always burn budget, whatever their
            // pending time.
            QueryStatus::Rejected | QueryStatus::Failed => u64::MAX,
            _ => mode.slo_latency_us(
                pending_us,
                (info.pending + info.execution).as_micros() as u64,
            ),
        };
        let any = |pick: fn(&Decision) -> bool| info.decisions.iter().any(pick);
        let mut entry = JournalEntry {
            query: info.id.to_string(),
            tenant: info.submission.tenant_name().to_string(),
            level: level.to_string(),
            status: info.status.name().to_string(),
            admission: admission.to_string(),
            decisions: if info.status == QueryStatus::Rejected {
                info.error.iter().cloned().collect()
            } else {
                info.decisions.iter().map(|d| format!("{d:?}")).collect()
            },
            retries: info.retries,
            pending_us,
            execution_us: info.execution.as_micros() as u64,
            scan_bytes: info.scan_bytes,
            revenue_dollars: info.price,
            vm_dollars: info.resource_cost.vm_dollars,
            cf_dollars: info.resource_cost.cf_dollars,
            provider_cf_dollars: info.provider_cf_dollars,
            shuffle_dollars: info.provider_shuffle_dollars,
            used_cf: info.used_cf,
            degraded: any(|d| matches!(d, Decision::Degrade)),
            speculative: any(|d| matches!(d, Decision::StragglerSpeculate { .. })),
            slo_good: false,
            slo_threshold_us: obs.slo.threshold_us(level).unwrap_or(0),
            trace_spans: trace.map_or(0, |t| t.span_count() as u64),
            // Stamped on the query's own trace clock (micros since the query
            // started); a rejection has no trace and is stamped 0.
            at_us: trace.map_or(0, Trace::now_micros),
        };
        {
            let _appending = obs.appending.lock();
            entry.slo_good = obs.slo.record(level, slo_latency_us);
            if info.status == QueryStatus::Finished {
                obs.ledger.append(entry.ledger_entry());
            }
            obs.journal.append(entry);
        }
        ctx.metrics.terminal(info);
    });
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
    let tenant = submission.tenant_name();
    // One trace per query: the root `query` span covers scheduler wait,
    // tier dispatch, every operator, and every storage access beneath it.
    let trace = Trace::wall();
    let mut query_span = TraceCtx::root(&trace).span("query");
    query_span.record_str("id", &id.to_string());
    query_span.record_str("level", mode.name());

    // Deadline feasibility needs a work estimate; the planner's resource
    // model supplies it, run on the engine's execution width. An
    // unplannable query estimates zero — it will fail with its real error
    // during execution, not a confusing rejection.
    let (db, sql) = (&submission.database, &submission.sql);
    let cores = default_parallelism() as u32;
    let est_us = mode.exec_estimate_us(cores, || ctx.engine.estimate_work(db, sql).ok());
    let queued = Instant::now();
    let admitted = {
        let _wait_span = query_span.ctx().span("scheduler_wait");
        let request = Request {
            id: id.0,
            tenant,
            mode,
            est_exec_us: est_us,
            batch_key: None,
        };
        ctx.queue.admit(&ctx.policy, &ctx.engine, request)
    };
    let admission = match admitted {
        Ok(admission) => admission,
        Err(reason) => {
            drop(query_span);
            ctx.spend.settle(tenant, reserved, 0.0);
            reject(ctx, slot, reason);
            return;
        }
    };
    let (waited, forced) = (queued.elapsed(), admission == "forced");
    let wait_limit = ctx.policy.slot_wait_limit(mode, est_us, waited, forced);
    ctx.metrics.queue_depth(mode.name()).add(-1.0);
    slot.update(|info| {
        info.status = QueryStatus::Running;
        info.pending = queued.elapsed();
    });
    let (outcome, _share_kind) = ctx.sharing.execute(
        &ctx.engine,
        db,
        sql,
        mode.cf_enabled(),
        query_span.ctx(),
        wait_limit,
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
        ctx.spend.settle(tenant, reserved, info.price);
    });
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::service_level::ServiceLevel;
    use pixels_catalog::Catalog;
    use pixels_obs::LedgerEntry;
    use pixels_storage::InMemoryObjectStore;
    use pixels_turbo::EngineConfig;
    use pixels_workload::{load_tpch, TpchConfig};

    pub(crate) fn server() -> QueryServer {
        QueryServer::new(engine(2), PriceSchedule::default())
    }

    /// An engine with `vm_slots` slots over a small TPC-H database, with a
    /// registry of its own: tests that assert metric values cannot share
    /// the process-wide one (`cargo test` runs them in one process).
    pub(crate) fn engine(vm_slots: usize) -> Arc<TurboEngine> {
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
        let config = EngineConfig {
            vm_slots,
            ..EngineConfig::default()
        };
        let engine = TurboEngine::new(catalog, store, config);
        Arc::new(engine.with_registry(MetricsRegistry::shared()))
    }

    pub(crate) fn submission(sql: &str, level: ServiceLevel) -> QuerySubmission {
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
        let sql = "SELECT COUNT(*) FROM lineitem";
        // A query bills the column chunks it reads, never the footers: on a
        // fresh server the cold run and its warm repeat bill the same bytes,
        // and so does every level.
        let mut bytes = None;
        let [a, b, c] = [
            ServiceLevel::Immediate,
            ServiceLevel::Relaxed,
            ServiceLevel::BestEffort,
        ]
        .map(|level| {
            let s = server();
            let cold = s.wait(s.submit(submission(sql, level))).unwrap();
            let warm = s.wait(s.submit(submission(sql, level))).unwrap();
            assert_eq!(cold.scan_bytes, warm.scan_bytes, "{level:?}");
            assert_eq!(cold.price.to_bits(), warm.price.to_bits(), "{level:?}");
            assert_eq!(cold.scan_bytes, *bytes.get_or_insert(cold.scan_bytes));
            cold.price
        });
        assert!((b / a - 0.2).abs() < 1e-6);
        assert!((c / a - 0.1).abs() < 1e-6);
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
        let Json::Object(fields) = m else {
            panic!("metrics is an object: {m:?}")
        };
        let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "bytes_scanned",
                "footer_cache_hits",
                "row_groups_read",
                "row_groups_total",
                "rows_produced",
                "rows_scanned"
            ]
        );
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
        use pixels_common::DataType;
        use pixels_obs::{ledger, slo, SloObjective};
        use pixels_storage::{ChunkCache, EncodedChunk, Encoding};

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
                    // 512-byte entries in a 2 KiB cache: inserts evict. Each
                    // is a 500-byte RLE chunk of one one-row run, whose
                    // parsed run (12 bytes) the second lookup finds in its
                    // memo.
                    let mut raw = vec![0u8; 500];
                    raw[1] = 1;
                    let chunk = EncodedChunk::parse(raw.into(), DataType::Int64, Encoding::Rle, 1);
                    cache.insert("t.pxl", 1, n * 512, chunk.unwrap());
                    let hit = cache.lookup("t.pxl", 1, n * 512).unwrap();
                    assert_eq!(hit.rle_runs().unwrap().counts, [1]);
                    assert!(cache.lookup("t.pxl", 1, n * 512).unwrap().memo_filled());
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
                        (
                            "pixels_cache_chunk_memo_hits_total",
                            vec![("kind", "rle")],
                            cache.memo_hits(Encoding::Rle),
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
                        (family, vec![("level", "all")], book.summary().entries),
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
    fn chaos_query_surfaces_retries_and_metrics() {
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
        let json = info.to_json();
        assert!(json.get("retries").unwrap().as_f64().unwrap() > 0.0);
        let decisions = json.get("decisions").unwrap().as_array().unwrap();
        assert_eq!(decisions, &[Json::string("DispatchVm")]);

        // The exposition carries the new fault families with nonzero values.
        let text = s.metrics_text();
        pixels_obs::validate_exposition(&text).expect("exposition must stay valid");
        let value_of = |selector| pixels_obs::prometheus::metric_value(&text, selector);
        assert!(value_of("pixels_faults_injected_total{site=\"storage_get\"}") > 0.0);
        assert!(value_of("pixels_retries_total{site=\"storage_get\"}") > 0.0);
        assert!(value_of("pixels_storage_gets_failed_total") > 0.0);
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
        let journal = s.journal().entries();
        assert!(pixels_obs::journal::ledger_of(&journal).same_books(s.ledger()));
        assert_eq!(
            s.ledger().summary().entries,
            3,
            "failed queries bill nothing"
        );
        for e in journal.iter().filter(|e| e.status == "finished") {
            let info = s.status(QueryId(e.query[2..].parse().unwrap())).unwrap();
            assert_eq!(e.revenue_dollars.to_bits(), info.price.to_bits());
            assert_eq!(e.scan_bytes, info.scan_bytes);
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
    fn the_ledger_keeps_the_books_of_its_journal_under_concurrent_settles() {
        // Queries settling at once on many threads: each one's ledger and
        // journal appends are one critical section, so an observer holding
        // that section always sees both sinks hold the same queries, and
        // refolding the journal reproduces the ledger's sums bit for bit.
        // Scans of tables of different sizes give the bills different
        // magnitudes, so a fold in another order often rounds differently.
        const QUERIES: usize = 300;
        let sums = [
            "r_regionkey) FROM region",
            "n_nationkey) FROM nation",
            "s_acctbal) FROM supplier",
            "c_acctbal) FROM customer",
            "o_totalprice) FROM orders",
            "l_extendedprice) FROM lineitem",
        ];
        let s = server();
        let settled = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let observer = scope.spawn(|| {
                while !settled.load(Ordering::Acquire) {
                    let _appending = s.ctx.obs.appending.lock();
                    let (journaled, ledgered) = (s.journal().len(), s.ledger().summary().entries);
                    assert_eq!(
                        journaled as u64, ledgered,
                        "one sink booked outside the section"
                    );
                }
            });
            for i in 0..QUERIES {
                let sql = format!("SELECT SUM({}", sums[i % sums.len()]);
                let mut sub = submission(&sql, ServiceLevel::Immediate);
                sub.tenant = Some(["acme", "globex"][i % 2].into());
                s.submit(sub);
            }
            s.wait_all();
            settled.store(true, Ordering::Release);
            observer.join().unwrap();
        });
        let journal = s.journal().entries();
        assert_eq!(s.ledger().summary().entries, QUERIES as u64);
        assert!(pixels_obs::journal::ledger_of(&journal).same_books(s.ledger()));
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
        assert_eq!(s.ledger().summary().entries, 0, "rejections never ledger");
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
            s.ledger().summary().entries,
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
        // The same query bills the same bytes cold or warm, so the prices
        // compare by fraction alone.
        assert_eq!(info.scan_bytes, immediate.scan_bytes);
        let deadline_per_byte = info.price / info.scan_bytes as f64;
        let immediate_per_byte = immediate.price / immediate.scan_bytes as f64;
        assert!(
            (deadline_per_byte / immediate_per_byte - 0.1).abs() < 1e-6,
            "600 s target bills at the floor fraction: {deadline_per_byte} vs {immediate_per_byte}"
        );
        // The ledger entry and SLO verdict land under "deadline".
        let deadline = &s.ledger().by_level()["deadline"];
        assert_eq!(deadline.entries, 1);
        assert_eq!(deadline.revenue_dollars.to_bits(), info.price.to_bits());
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
        // Billed the leader's bytes at the follower's own level price.
        assert_eq!(second.scan_bytes, first.scan_bytes);
        assert_eq!(
            second.price.to_bits(),
            PriceSchedule::default()
                .bill(ServiceLevel::Relaxed, first.scan_bytes)
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
