//! Real-execution mode of Pixels-Turbo.
//!
//! The simulator (`Coordinator`) answers scheduling/pricing questions on a
//! virtual clock; this engine actually runs SQL over Pixels data for the
//! interactive demo. The "VM cluster" is a bounded pool of execution slots;
//! "CF acceleration" executes the split sub-plan on freshly spawned threads
//! (mirroring ephemeral function workers), materializes its result to
//! object storage, and finishes the cheap top-level plan locally — exactly
//! the §3.1 data path. The CF stages and their runner live in `stages`.
//!
//! A query waits for a VM slot one way (`TurboEngine::run_in_vm_when_free`),
//! whether it never tried CF or degraded from it, and every execution
//! context, VM or CF, is as wide as its plan's [`QueryWork::parallelism`]
//! allows on this machine's cores.
//!
//! What the engine counts goes to `/metrics` through the handles of one
//! [`EngineMetrics`] catalog, shared with fleet threads and reapers; a
//! query's [`QueryWork`] is estimated once, where the plan is made, and every
//! tier prices and times from that value, while each execution context is
//! sized from the plan it runs.

mod stages;

use crate::billing::{CostBreakdown, ResourcePricing};
use crate::cf_service::CfConfig;
use crate::metrics::EngineMetrics;
use crate::model::QueryWork;
use crate::policy::{CfCostModel, Decision};
use parking_lot::{Condvar, Mutex};
use pixels_catalog::CatalogRef;
use pixels_chaos::FaultInjector;
use pixels_common::{
    ColumnBuilder, DataType, Error, Field, IdGenerator, RecordBatch, Result, Schema, Value,
};
use pixels_exec::{
    default_parallelism, execute_collect, ExchangeStats, ExecContext, ExecMetricsSnapshot,
    DEFAULT_PREFETCH_DEPTH,
};
use pixels_obs::{MetricsRegistry, Trace, TraceCtx};
use pixels_planner::{plan_query, Plan};
use pixels_sql::ast::Statement;
use pixels_storage::{ChunkCache, FooterCache, ObjectStoreRef};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Concurrent query slots the "VM cluster" provides.
    pub vm_slots: usize,
    /// Capacity of the engine-wide chunk-data cache (parsed column chunks,
    /// with the dictionaries and runs queries parsed from them, shared
    /// across all queries), memos included. `0` disables the cache. Hits
    /// skip the storage GET but are billed exactly like misses — billing is
    /// metered from chunk metadata, never from store traffic.
    pub chunk_cache_bytes: u64,
    /// Scan prefetch depth: how many row groups a scan may have fetched or
    /// be fetching ahead of its decoding workers, and so how many reads it
    /// keeps in flight against the store (default
    /// [`pixels_exec::DEFAULT_PREFETCH_DEPTH`]). `0` runs fetch and decode
    /// fused on the workers — the synchronous path, which a scan also takes
    /// by itself when the chunk cache already holds everything it will read.
    pub prefetch_depth: usize,
    /// Hash-partition fan-out of multi-stage CF plans. At `1` (the default)
    /// every CF plan is single-stage; above `1`, shuffleable cut points
    /// (aggregates, equi-joins) run as two CF stages exchanging
    /// hash-partitioned spill files through the object store with exactly
    /// this fan-out. At `0` the fan-out is *cost-based*: the planner derives
    /// the partition count from estimated exchange bytes, small reliable
    /// build sides run as broadcast joins, and exchanges too small to pay
    /// for themselves stay single-stage.
    pub exchange_partitions: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            vm_slots: 4,
            chunk_cache_bytes: 64 << 20,
            prefetch_depth: DEFAULT_PREFETCH_DEPTH,
            exchange_partitions: 1,
        }
    }
}

/// Result of executing one statement.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    pub batch: RecordBatch,
    /// Whether CF acceleration executed the expensive sub-plan.
    pub used_cf: bool,
    /// Wall-clock time spent waiting for a VM slot.
    pub pending: Duration,
    /// Wall-clock execution time.
    pub execution: Duration,
    /// Exact bytes read from object storage.
    pub bytes_scanned: u64,
    /// Full execution counters (scan bytes/rows, row-group pruning, footer
    /// cache hits); for CF queries this merges the fleet's sub-plan metrics
    /// with the top-level plan's.
    pub metrics: ExecMetricsSnapshot,
    /// Object-store retries performed while this query ran. Measured as the
    /// store-wide counter delta over the query, so it is approximate when
    /// queries run concurrently.
    pub retries: u64,
    /// Ordered policy decisions ([`crate::policy::CfRace`]) made for this
    /// query — the unit of sim/real differential comparison, and the
    /// query's record of recovery work: a crashed fleet shows as
    /// `AttemptFailed` (its error is the `error` attribute of its `cf_fleet`
    /// span), a relaunch as `Relaunch`, a straggler race as
    /// `StragglerSpeculate` then `Accept`, a fallback to the VM as `Degrade`.
    pub decisions: Vec<Decision>,
    /// Modelled provider resource cost of the *accepted* execution (the
    /// same model the sim coordinator prices completions with).
    pub resource_cost: CostBreakdown,
    /// Modelled provider-side CF spend across *all* attempts, including
    /// crashed and cancelled fleets — the provider charges every invocation.
    pub provider_cf_dollars: f64,
    /// Exchange traffic of the *accepted* stage attempts of a multi-stage CF
    /// plan (zero for single-stage queries). Provider-side — these bytes are
    /// never part of `bytes_scanned` or the user's bill.
    pub exchange: ExchangeStats,
    /// Modelled provider cost of the accepted exchange traffic, priced at
    /// [`pixels_common::prices::EXCHANGE_DOLLARS_PER_GB`]. Ledgered under the
    /// `cf_shuffle` provider component, never billed to the user.
    pub provider_shuffle_dollars: f64,
}

impl Default for ExecOutcome {
    /// An empty, unbilled, VM-tier outcome: every execution path overrides
    /// only the fields it actually produced.
    fn default() -> Self {
        ExecOutcome {
            batch: RecordBatch::empty(Arc::new(Schema::empty())),
            used_cf: false,
            pending: Duration::ZERO,
            execution: Duration::ZERO,
            bytes_scanned: 0,
            metrics: ExecMetricsSnapshot::default(),
            retries: 0,
            decisions: Vec::new(),
            resource_cost: CostBreakdown::default(),
            provider_cf_dollars: 0.0,
            exchange: ExchangeStats::default(),
            provider_shuffle_dollars: 0.0,
        }
    }
}

struct Slots {
    free: Mutex<usize>,
    cv: Condvar,
}

/// One held VM slot. The slot returns to the pool when the guard drops, so
/// an execution that panics or returns early can never leak it.
struct SlotGuard<'a>(&'a Slots);

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        *self.0.free.lock() += 1;
        self.0.cv.notify_one();
    }
}

impl Slots {
    /// Take a slot, waiting until `deadline` (`None`: as long as it takes).
    /// `None` once the deadline passes with every slot still busy.
    fn acquire(&self, deadline: Option<Instant>) -> Option<SlotGuard<'_>> {
        let mut free = self.free.lock();
        while *free == 0 {
            match deadline {
                None => self.cv.wait(&mut free),
                Some(deadline) => {
                    let remaining = deadline.checked_duration_since(Instant::now())?;
                    self.cv.wait_for(&mut free, remaining);
                }
            }
        }
        *free -= 1;
        Some(SlotGuard(self))
    }

    fn try_acquire(&self) -> Option<SlotGuard<'_>> {
        self.acquire(Some(Instant::now()))
    }
}

/// The real-execution engine.
pub struct TurboEngine {
    catalog: CatalogRef,
    store: ObjectStoreRef,
    cfg: EngineConfig,
    slots: Slots,
    mv_ids: IdGenerator,
    /// Footer cache shared across every query the engine runs: repeated
    /// opens of the same table skip the footer GETs (and are billed once).
    footer_cache: Arc<FooterCache>,
    /// Chunk-data cache shared across every query (None when disabled by
    /// `chunk_cache_bytes: 0`). Serves parsed chunks with their memoized
    /// dictionaries and runs; hits skip the GET and the parse but bill
    /// identically to misses.
    chunk_cache: Option<Arc<ChunkCache>>,
    /// Registry backing `/metrics` (the process-wide one by default).
    registry: Arc<MetricsRegistry>,
    /// The engine's families in `registry`, held as handles: queries, fleet
    /// threads and reapers count into these and never look a family up.
    metrics: Arc<EngineMetrics>,
    /// Fault injector consulted at the CF sites (crash, straggler,
    /// cold-start storm). Inert by default; tests and the chaos soak attach
    /// a seeded plan via [`with_chaos`](Self::with_chaos). Storage-site
    /// faults are injected by wrapping the store itself
    /// (`pixels_storage::chaos_stack`), not here.
    injector: Arc<FaultInjector>,
    /// Shared CF duration/cost model — the same formulas the sim coordinator
    /// prices fleets with, so modelled per-attempt costs agree bit for bit.
    cost_model: CfCostModel,
    pricing: ResourcePricing,
}

impl TurboEngine {
    pub fn new(catalog: CatalogRef, store: ObjectStoreRef, cfg: EngineConfig) -> Self {
        TurboEngine {
            catalog,
            store,
            cfg,
            slots: Slots {
                free: Mutex::new(cfg.vm_slots.max(1)),
                cv: Condvar::new(),
            },
            mv_ids: IdGenerator::new(),
            footer_cache: FooterCache::shared(),
            chunk_cache: (cfg.chunk_cache_bytes > 0)
                .then(|| ChunkCache::shared(cfg.chunk_cache_bytes)),
            registry: MetricsRegistry::global().clone(),
            metrics: Arc::new(EngineMetrics::new(MetricsRegistry::global())),
            injector: Arc::new(FaultInjector::disabled()),
            cost_model: CfCostModel::new(&CfConfig::default(), ResourcePricing::default()),
            pricing: ResourcePricing::default(),
        }
    }

    /// Attach a fault injector for the CF sites.
    pub fn with_chaos(mut self, injector: Arc<FaultInjector>) -> Self {
        self.injector = injector;
        self
    }

    pub fn fault_injector(&self) -> &Arc<FaultInjector> {
        &self.injector
    }

    /// Same engine publishing metrics to `registry` instead of the global
    /// one — tests use this to observe values without cross-test bleed.
    pub fn with_registry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Arc::new(EngineMetrics::new(&registry));
        self.registry = registry;
        self
    }

    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Execution context for `plan`, VM or CF: parallelism from the resource
    /// model (scannable partitions) capped by the machine's cores, and the
    /// engine-wide caches attached.
    fn exec_context(&self, plan: &Plan) -> ExecContext {
        let parallelism =
            (QueryWork::from_plan(plan).parallelism as usize).min(default_parallelism());
        let ctx = ExecContext::new(self.store.clone())
            .with_parallelism(parallelism)
            .with_footer_cache(self.footer_cache.clone())
            .with_prefetch_depth(self.cfg.prefetch_depth);
        match &self.chunk_cache {
            Some(cache) => ctx.with_chunk_cache(cache.clone()),
            None => ctx,
        }
    }

    pub fn catalog(&self) -> &CatalogRef {
        &self.catalog
    }

    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    pub fn store(&self) -> &ObjectStoreRef {
        &self.store
    }

    /// Whether all VM slots are currently busy (the real-mode analogue of
    /// the simulator's high-watermark overload check).
    pub fn is_busy(&self) -> bool {
        *self.slots.free.lock() == 0
    }

    /// Take every VM slot (waiting for running queries to give theirs back)
    /// and hold them while `f` runs, so inside `f` a saturated engine is a
    /// fact rather than a race: [`is_busy`](Self::is_busy) is true and a
    /// CF-enabled query dispatches to CF. A query that needs a slot meanwhile
    /// — one without CF, or a CF plan degrading to VM — waits until `f`
    /// returns or its slot wait limit, counted from its start, expires, when
    /// it force-starts. One without a limit run on `f`'s own thread never
    /// ends.
    pub fn hold_slots<T>(&self, f: impl FnOnce() -> T) -> T {
        let _held: Vec<SlotGuard<'_>> = (0..self.cfg.vm_slots.max(1))
            .map(|_| {
                self.slots
                    .acquire(None)
                    .expect("an unbounded wait gets a slot")
            })
            .collect();
        f()
    }

    /// Plan `sql` and return the resource model's work estimate without
    /// executing anything. Deadline admission uses this to judge whether a
    /// completion target is feasible at all. Non-query statements (EXPLAIN,
    /// DDL) estimate as zero work — they are never deadline-bound.
    pub fn estimate_work(&self, db: &str, sql: &str) -> Result<QueryWork> {
        match pixels_sql::parse_statement(sql)? {
            Statement::Query(_) => {
                let plan = plan_query(&self.catalog, db, sql)?;
                Ok(QueryWork::from_plan(&plan))
            }
            _ => Ok(QueryWork {
                scan_bytes: 0,
                cpu_seconds: 0.0,
                parallelism: 1,
            }),
        }
    }

    /// Execute one SQL statement. `cf_enabled` controls whether adaptive CF
    /// acceleration may be used when the VM slots are saturated.
    pub fn execute_sql(&self, db: &str, sql: &str, cf_enabled: bool) -> Result<ExecOutcome> {
        self.execute_sql_scheduled(db, sql, cf_enabled, TraceCtx::disabled(), None)
    }

    /// Like [`execute_sql`](Self::execute_sql), but opening spans under
    /// `trace` — so the caller (the query server) gets one trace covering
    /// slot wait, tier dispatch, every operator, and every storage access —
    /// and with a bound on how long the query may wait for a VM slot,
    /// counted from now (`None`: as long as it takes). The query server
    /// passes what is left of the mode's pending bound: `None`
    /// for Immediate (wait as long as it takes), the rest of the grace
    /// period for Relaxed, of the starvation bound for best-of-effort and of
    /// `target − est` for a deadline, and zero for a forced start. When the
    /// limit expires with every slot still busy the query is force-started
    /// unslotted, so the scheduler's promise holds even on a saturated
    /// engine, after a failed CF attempt too.
    pub fn execute_sql_scheduled(
        &self,
        db: &str,
        sql: &str,
        cf_enabled: bool,
        trace: TraceCtx,
        slot_wait_limit: Option<Duration>,
    ) -> Result<ExecOutcome> {
        let stmt = pixels_sql::parse_statement(sql)?;
        match stmt {
            Statement::Query(_) => self.execute_query(db, sql, cf_enabled, trace, slot_wait_limit),
            Statement::Explain(inner) => {
                let text = match inner.as_ref() {
                    Statement::Query(_) => {
                        let plan = plan_query(&self.catalog, db, &inner.to_string())?;
                        plan.explain()
                    }
                    other => format!("{other}\n"),
                };
                Ok(meta_outcome(text_batch("plan", text.lines())))
            }
            Statement::ExplainAnalyze(inner) => {
                let Statement::Query(_) = inner.as_ref() else {
                    return Err(Error::Unsupported(
                        "EXPLAIN ANALYZE applies to queries".into(),
                    ));
                };
                let sql = inner.to_string();
                let plan = plan_query(&self.catalog, db, &sql)?;
                // EXPLAIN ANALYZE always traces: use the caller's trace when
                // one is attached, otherwise a local wall-clock one, so the
                // printed profile exists even for untraced callers. The query
                // goes through the normal dispatch path, so on a saturated
                // engine the report shows the CF — and, with
                // `exchange_partitions > 1`, the multi-stage shuffle —
                // execution the query would really get.
                let local_trace;
                let exec_trace = if trace.enabled() {
                    trace
                } else {
                    local_trace = Trace::wall();
                    TraceCtx::root(&local_trace)
                };
                let out =
                    self.execute_query(db, &sql, cf_enabled, exec_trace.clone(), slot_wait_limit)?;
                let m = &out.metrics;
                let tier = if !out.used_cf {
                    "vm".to_string()
                } else if out.exchange.partitions == 1 {
                    // Only a broadcast join exchanges with fan-out 1: an
                    // explicit partition count of 1 degenerates to the
                    // single-stage path (partitions == 0) instead.
                    "cf (broadcast shuffle)".to_string()
                } else if out.exchange.partitions > 0 {
                    format!(
                        "cf (two-stage shuffle, {} partitions)",
                        out.exchange.partitions
                    )
                } else {
                    "cf (single-stage)".to_string()
                };
                // Estimator accountability: the optimizer's cardinality for
                // the plan root against what actually came back.
                let est_rows = pixels_planner::estimate(&plan).rows;
                let actual_rows = out.batch.num_rows();
                let ratio = est_rows / (actual_rows as f64).max(1.0);
                let mut text = plan.explain();
                text.push_str(&format!(
                    "--- runtime metrics ---\n\
                     wall time        : {:.3} ms\n\
                     tier             : {tier}\n\
                     result rows      : {}\n\
                     estimated rows   : {:.0}\n\
                     est/actual       : {:.2}x\n\
                     rows scanned     : {}\n\
                     bytes scanned    : {}\n\
                     row groups read  : {} of {} (zone maps pruned {})\n\
                     footer cache hits: {}\n",
                    out.execution.as_secs_f64() * 1e3,
                    actual_rows,
                    est_rows,
                    ratio,
                    m.rows_scanned,
                    pixels_common::bytesize::format_bytes(m.bytes_scanned),
                    m.row_groups_read,
                    m.row_groups_total,
                    m.row_groups_total - m.row_groups_read,
                    m.footer_cache_hits,
                ));
                if let Some(t) = exec_trace.trace() {
                    // Summed over the `morsel` spans: how the scanned
                    // chunks arrived, how many came with their dictionary
                    // or runs already parsed, and how long the workers
                    // waited for fetches still in flight. None of it is
                    // billed.
                    let sum = |key| t.attr_sum(key) as u64;
                    text.push_str(&format!(
                        "chunk fetches    : {} cache hits ({} memo hits), {} GETs, {} gap bytes, \
                         {} us waited\n",
                        sum("cache_hits"),
                        sum("memo_hits"),
                        sum("gets"),
                        sum("gap_bytes"),
                        sum("wait_us"),
                    ));
                    // Summed over the `morsel` spans of probe scans that a
                    // hash join's build side handed its keys: rows dropped
                    // after metering, before their other columns decoded.
                    let spans = t.finished_spans();
                    let mut kinds: Vec<&str> = (spans.iter())
                        .filter_map(|s| match s.attr("join_filter") {
                            Some(pixels_obs::AttrValue::Str(kind)) => Some(kind.as_str()),
                            _ => None,
                        })
                        .collect();
                    kinds.sort_unstable();
                    kinds.dedup();
                    text.push_str(&if kinds.is_empty() {
                        "join filters     : none\n".to_string()
                    } else {
                        format!(
                            "join filters     : {} of {} probe rows dropped ({})\n",
                            t.attr_sum("join_filter_dropped"),
                            t.attr_sum("join_filter_rows"),
                            kinds.join(", "),
                        )
                    });
                }
                if !out.decisions.is_empty() {
                    let seq: Vec<String> = out.decisions.iter().map(|d| format!("{d:?}")).collect();
                    text.push_str(&format!("decisions        : {}\n", seq.join(" -> ")));
                }
                if out.exchange != ExchangeStats::default() {
                    text.push_str(&format!(
                        "exchange         : put {}, get {}, {} rows spilled \
                         (provider-side, ${:.9})\n",
                        pixels_common::bytesize::format_bytes(out.exchange.put_bytes),
                        pixels_common::bytesize::format_bytes(out.exchange.get_bytes),
                        out.exchange.spilled_rows,
                        out.provider_shuffle_dollars,
                    ));
                }
                if let Some(t) = exec_trace.trace() {
                    let spans = t.finished_spans();
                    text.push_str("--- operator time attribution ---\n");
                    text.push_str(&pixels_obs::render_operator_table(&spans));
                    text.push_str("--- trace ---\n");
                    text.push_str(&t.render_text());
                }
                Ok(ExecOutcome {
                    batch: text_batch("plan", text.lines()),
                    ..out
                })
            }
            Statement::Analyze(name) => {
                let database = name.database.as_deref().unwrap_or(db);
                let report = pixels_catalog::analyze_table(
                    &self.catalog,
                    self.store.as_ref(),
                    database,
                    &name.table,
                )?;
                let schema = Arc::new(Schema::new(vec![
                    Field::required("column", DataType::Utf8),
                    Field::required("distinct_values", DataType::Int64),
                    Field::required("nulls", DataType::Int64),
                ]));
                let rows: Vec<Vec<Value>> = report
                    .columns
                    .iter()
                    .map(|c| {
                        vec![
                            Value::Utf8(c.name.clone()),
                            Value::Int64(c.distinct_count as i64),
                            Value::Int64(c.null_count as i64),
                        ]
                    })
                    .collect();
                Ok(meta_outcome(RecordBatch::from_rows(schema, &rows)?))
            }
            Statement::ShowDatabases => Ok(meta_outcome(text_batch(
                "database",
                self.catalog.database_names().iter().map(|s| s.as_str()),
            ))),
            Statement::ShowTables => {
                let tables = self.catalog.list_tables(db)?;
                Ok(meta_outcome(text_batch(
                    "table",
                    tables.iter().map(|t| t.name.as_str()),
                )))
            }
            Statement::Describe(name) => {
                let table = self
                    .catalog
                    .get_table(name.database.as_deref().unwrap_or(db), &name.table)?;
                let schema = Arc::new(Schema::new(vec![
                    Field::required("column", DataType::Utf8),
                    Field::required("type", DataType::Utf8),
                    Field::required("nullable", DataType::Boolean),
                ]));
                let rows: Vec<Vec<Value>> = table
                    .schema
                    .fields()
                    .iter()
                    .map(|f| {
                        vec![
                            Value::Utf8(f.name.clone()),
                            Value::Utf8(f.data_type.sql_name().to_string()),
                            Value::Boolean(f.nullable),
                        ]
                    })
                    .collect();
                Ok(meta_outcome(RecordBatch::from_rows(schema, &rows)?))
            }
        }
    }

    fn execute_query(
        &self,
        db: &str,
        sql: &str,
        cf_enabled: bool,
        trace: TraceCtx,
        slot_wait_limit: Option<Duration>,
    ) -> Result<ExecOutcome> {
        // A limit too far out to be an instant is no limit.
        let deadline = slot_wait_limit.and_then(|limit| Instant::now().checked_add(limit));
        let plan = {
            let _span = trace.span("plan");
            plan_query(&self.catalog, db, sql)?
        };
        // Estimated once per plan; every tier prices and sizes from it.
        let work = QueryWork::from_plan(&plan);

        // Fast path: a free VM slot.
        if let Some(_slot) = self.slots.try_acquire() {
            return self.run_in_vm(&plan, &work, &trace);
        }

        // Slots saturated. With CF enabled, accelerate via plan splitting.
        if cf_enabled {
            if let Some(stages) = self.cf_stages(&plan, &work) {
                return self.run_cf(&plan, &work, stages, &trace, deadline);
            }
        }
        self.run_in_vm_when_free(&plan, &work, &trace, deadline)
    }

    /// Run `plan` on the VM once a slot is free: the one way a query waits
    /// for a slot (the engine-level queue), whether it never tried CF or
    /// degraded from it. At `deadline` a query still waiting is force-started
    /// unslotted (counted in `pixels_turbo_forced_starts_total`), so the
    /// scheduler's promise holds even on a saturated engine. The wait is
    /// observed in `pixels_turbo_vm_slot_wait_seconds` and is the outcome's
    /// `pending`.
    fn run_in_vm_when_free(
        &self,
        plan: &Plan,
        work: &QueryWork,
        trace: &TraceCtx,
        deadline: Option<Instant>,
    ) -> Result<ExecOutcome> {
        let start = Instant::now();
        let slot = {
            let _span = trace.span("vm_slot_wait");
            self.slots.acquire(deadline)
        };
        if slot.is_none() {
            self.metrics.forced_starts.inc();
        }
        let pending = start.elapsed();
        self.metrics.vm_slot_wait.observe(pending.as_secs_f64());
        let mut out = self.run_in_vm(plan, work, trace)?;
        out.pending = pending;
        Ok(out)
    }

    /// Store-wide retry count delta over a query, its
    /// [`ExecOutcome::retries`]. Approximate when queries run concurrently
    /// (the counters are shared), exact when serialized — which is how the
    /// chaos soak measures it.
    fn storage_retries_since(&self, before: u64) -> u64 {
        self.store.metrics().retries.saturating_sub(before)
    }

    fn run_in_vm(&self, plan: &Plan, work: &QueryWork, trace: &TraceCtx) -> Result<ExecOutcome> {
        let retries_before = self.store.metrics().retries;
        let ctx = self.exec_context(plan);
        let mut span = trace.span("vm_execute");
        span.record_u64("parallelism", ctx.parallelism as u64);
        let ctx = ctx.under(&span);
        let start = Instant::now();
        let batch = execute_collect(plan, &ctx)?;
        drop(span);
        let metrics = ctx.metrics.snapshot();
        self.count_execution(&metrics, &ctx);
        Ok(ExecOutcome {
            batch,
            execution: start.elapsed(),
            bytes_scanned: metrics.bytes_scanned,
            metrics,
            retries: self.storage_retries_since(retries_before),
            decisions: vec![Decision::DispatchVm],
            // Model-based VM cost for the plan's CPU demand — identical to
            // how the sim coordinator prices a VM completion.
            resource_cost: CostBreakdown {
                vm_dollars: self.pricing.vm_cost(work.cpu_seconds),
                cf_dollars: 0.0,
            },
            ..ExecOutcome::default()
        })
    }

    /// Count one finished execution on the calling thread: the query's
    /// billed counters, that context's scan-pipeline activity, and the
    /// shared chunk cache's totals as they now stand.
    fn count_execution(&self, billed: &ExecMetricsSnapshot, ctx: &ExecContext) {
        self.metrics.exec(billed);
        self.metrics.pipeline(&ctx.metrics.pipeline_snapshot());
        if let Some(cache) = &self.chunk_cache {
            self.metrics.chunk_cache(cache);
        }
    }
}

fn text_batch<'a>(column: &str, lines: impl Iterator<Item = &'a str>) -> RecordBatch {
    let schema = Arc::new(Schema::new(vec![Field::required(column, DataType::Utf8)]));
    let mut b = ColumnBuilder::new(DataType::Utf8);
    for line in lines {
        b.push(&Value::Utf8(line.to_string())).expect("utf8");
    }
    RecordBatch::try_new(schema, vec![b.finish()]).expect("text batch")
}

/// Outcome of a statement that executes nothing (EXPLAIN, DDL, SHOW).
fn meta_outcome(batch: RecordBatch) -> ExecOutcome {
    ExecOutcome {
        batch,
        ..ExecOutcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixels_catalog::Catalog;
    use pixels_obs::AttrValue;
    use pixels_storage::InMemoryObjectStore;
    use pixels_workload::{load_tpch, TpchConfig};

    fn engine(slots: usize) -> TurboEngine {
        let catalog = Catalog::shared();
        let store = InMemoryObjectStore::shared();
        load_tpch(
            &catalog,
            store.as_ref(),
            "tpch",
            &TpchConfig {
                scale: 0.0005,
                seed: 1,
                row_group_rows: 512,
                files_per_table: 1,
            },
        )
        .unwrap();
        TurboEngine::new(
            catalog,
            store,
            EngineConfig {
                vm_slots: slots,
                ..EngineConfig::default()
            },
        )
        .with_registry(MetricsRegistry::shared())
    }

    /// Run `f` on its own thread with every VM slot held, so the CF-enabled
    /// queries it runs dispatch to CF. The slots come back when `f` returns,
    /// when a CF plan degrades to VM (it then waits for a slot), or after
    /// 30 s, so a query that wrongly waits for a slot fails the test's checks
    /// instead of hanging it. `e` needs a registry of its own.
    fn on_cf<T: Send>(e: &TurboEngine, f: impl FnOnce() -> T + Send) -> T {
        assert!(!Arc::ptr_eq(e.registry(), MetricsRegistry::global()));
        let degraded = &e.metrics.cf_degradations;
        let before = degraded.get();
        let limit = Instant::now() + Duration::from_secs(30);
        std::thread::scope(|s| {
            let run = e.hold_slots(|| {
                let run = s.spawn(f);
                while degraded.get() == before && !run.is_finished() && Instant::now() < limit {
                    std::thread::sleep(Duration::from_micros(50));
                }
                run
            });
            run.join().unwrap()
        })
    }

    #[test]
    fn executes_queries_in_vm_mode() {
        let e = engine(2);
        let out = e
            .execute_sql("tpch", "SELECT COUNT(*) FROM customer", false)
            .unwrap();
        assert!(!out.used_cf);
        assert!(out.bytes_scanned > 0);
        assert_eq!(out.batch.row(0)[0], Value::Int64(75));
    }

    #[test]
    fn meta_statements() {
        let e = engine(2);
        let out = e.execute_sql("tpch", "SHOW TABLES", false).unwrap();
        assert_eq!(out.batch.num_rows(), 8);
        let out = e.execute_sql("tpch", "DESCRIBE customer", false).unwrap();
        assert_eq!(out.batch.num_rows(), 5);
        let out = e.execute_sql("tpch", "SHOW DATABASES", false).unwrap();
        assert_eq!(out.batch.num_rows(), 1);
        let out = e
            .execute_sql("tpch", "EXPLAIN SELECT COUNT(*) FROM orders", false)
            .unwrap();
        let text = out.batch.pretty_format();
        assert!(text.contains("HashAggregate"), "{text}");
    }

    #[test]
    fn cf_acceleration_when_saturated_matches_vm_results() {
        let e = engine(1);
        let sql = "SELECT o_orderstatus, COUNT(*) AS n FROM orders GROUP BY o_orderstatus ORDER BY n DESC";
        let direct = e.execute_sql("tpch", sql, false).unwrap();
        let accelerated = on_cf(&e, || e.execute_sql("tpch", sql, true).unwrap());
        assert!(accelerated.used_cf, "should have used CF acceleration");
        assert_eq!(accelerated.batch, direct.batch, "results must be identical");
    }

    /// While held, the engine is saturated: busy, CF-enabled work goes to
    /// CF, and a zero slot wait force-starts; released, the slot is free.
    #[test]
    fn held_slots_saturate_the_engine_until_released() {
        let registry = MetricsRegistry::shared();
        let e = engine(2).with_registry(registry.clone());
        let forced = registry.counter("pixels_turbo_forced_starts_total", "");
        let sql = "SELECT o_orderstatus, COUNT(*) AS n FROM orders GROUP BY o_orderstatus";
        let direct = e.execute_sql("tpch", sql, false).unwrap();
        assert!(!e.is_busy());
        on_cf(&e, || {
            assert!(e.is_busy(), "every slot is held");
            let out = e.execute_sql("tpch", sql, true).unwrap();
            assert!(out.used_cf, "an Immediate query dispatches to CF");
            assert_eq!(out.batch, direct.batch);
            let out = e
                .execute_sql_scheduled(
                    "tpch",
                    sql,
                    false,
                    TraceCtx::disabled(),
                    Some(Duration::ZERO),
                )
                .unwrap();
            assert!(!out.used_cf);
            assert_eq!(out.batch, direct.batch);
            assert_eq!(forced.get(), 1, "a zero slot wait force-starts");
        });
        assert!(!e.is_busy());
        let out = e
            .execute_sql_scheduled(
                "tpch",
                sql,
                true,
                TraceCtx::disabled(),
                Some(Duration::ZERO),
            )
            .unwrap();
        assert!(!out.used_cf, "released, the next query gets a slot");
        assert_eq!(out.pending, Duration::ZERO);
        assert_eq!(forced.get(), 1);
    }

    /// Build a 1-slot engine whose CF path runs shuffled two-stage plans
    /// with the given exchange fan-out, returning the store for spill-GC
    /// checks.
    fn shuffle_engine(partitions: usize) -> (TurboEngine, ObjectStoreRef) {
        let catalog = Catalog::shared();
        let store = InMemoryObjectStore::shared();
        load_tpch(
            &catalog,
            store.as_ref(),
            "tpch",
            &TpchConfig {
                scale: 0.0005,
                seed: 1,
                row_group_rows: 512,
                files_per_table: 1,
            },
        )
        .unwrap();
        let e = TurboEngine::new(
            catalog,
            store.clone(),
            EngineConfig {
                vm_slots: 1,
                exchange_partitions: partitions,
                ..EngineConfig::default()
            },
        )
        .with_registry(MetricsRegistry::shared());
        (e, store)
    }

    /// The reapers delete spill prefixes from detached threads; poll until
    /// the intermediate namespace is empty.
    fn assert_no_spills(store: &ObjectStoreRef) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let leaked = store.list("pixels-turbo/intermediate/").unwrap();
            if leaked.is_empty() {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "leaked spill objects: {leaked:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Every dispatch shape, clean and with the first fleet launch crashing:
    /// same rows, same bill, the per-stage decision log, one `cf_fleet` span
    /// per launch, and nothing left under `pixels-turbo/intermediate/`.
    #[test]
    fn every_dispatch_shape_agrees_clean_and_after_a_crash() {
        use pixels_chaos::{FaultPlan, FaultSite, SiteSpec};
        let agg = "SELECT o_orderstatus, COUNT(*) AS n FROM orders \
                   GROUP BY o_orderstatus ORDER BY n DESC";
        let join = "SELECT c_name, o_orderkey FROM customer \
                    JOIN orders ON c_custkey = o_custkey \
                    ORDER BY o_orderkey, c_name LIMIT 20";
        // (shape, `exchange_partitions` or `None` for the VM tier, then per
        // query [agg, join]: CF stages run, exchange fan-out).
        let shapes = [
            ("vm", None, [0u64, 0], [0u64, 0]),
            // A fan-out of 1 must take the exact single-stage path.
            ("single-stage", Some(1), [1, 1], [0, 0]),
            // Cost-based sizing: the tiny aggregate's exchange would cost
            // more than it saves and stays single-stage; the join's small
            // build side is broadcast as one partition.
            ("auto", Some(0), [1, 2], [0, 1]),
            ("4-way shuffle", Some(4), [2, 2], [4, 4]),
        ];
        for (q, sql) in [agg, join].into_iter().enumerate() {
            let mut reference: Option<RecordBatch> = None;
            // Billed bytes by tier (VM, CF): the CF tiers add the MV read.
            let mut billed: [Option<u64>; 2] = [None, None];
            let mut single_stage_dollars = 0.0;
            for (shape, partitions, stages, fan_out) in shapes {
                for crash in [false, true] {
                    let case = format!("{shape}, crash={crash}: {sql}");
                    let (e, store) = shuffle_engine(partitions.unwrap_or(1));
                    // Exactly one crash: the first fleet launched dies.
                    let plan = FaultPlan::none(42)
                        .with(FaultSite::CfCrash, SiteSpec::errors(1.0).capped(1));
                    let e = if crash {
                        e.with_chaos(Arc::new(FaultInjector::new(&plan)))
                    } else {
                        e
                    };
                    // The same VM warm-up everywhere, so every shape sees the
                    // same cache state and billed bytes are comparable.
                    let direct = e.execute_sql("tpch", sql, false).unwrap();
                    let trace = Trace::wall();
                    let run = |cf| {
                        e.execute_sql_scheduled("tpch", sql, cf, TraceCtx::root(&trace), None)
                            .unwrap()
                    };
                    let out = match partitions {
                        None => run(false),
                        Some(_) => on_cf(&e, || run(true)),
                    };

                    assert_eq!(out.batch, direct.batch, "{case}");
                    assert_eq!(&out.batch, reference.get_or_insert(direct.batch), "{case}");
                    assert_eq!(out.used_cf, stages[q] > 0, "{case}");
                    // Equal user bills: neither exchange traffic nor a crashed
                    // attempt (it fails before any work) is ever billed.
                    let tier = usize::from(out.used_cf);
                    assert_eq!(
                        out.bytes_scanned,
                        *billed[tier].get_or_insert(out.bytes_scanned),
                        "{case}"
                    );
                    assert_eq!(trace.attr_sum("bytes") as u64, out.bytes_scanned, "{case}");

                    // One race per stage; the crash hits stage 0's first fleet.
                    let mut decisions = Vec::new();
                    let mut fleets = Vec::new();
                    for stage in 0..stages[q] {
                        if crash && stage == 0 {
                            decisions.extend([
                                Decision::DispatchCf { attempt: 0 },
                                Decision::AttemptFailed { attempt: 0 },
                                Decision::Relaunch { attempt: 1 },
                                Decision::Accept { attempt: 1 },
                            ]);
                            fleets.extend([(0, 0), (0, 1)]);
                        } else {
                            decisions.extend([
                                Decision::DispatchCf { attempt: 0 },
                                Decision::Accept { attempt: 0 },
                            ]);
                            fleets.push((stage, 0));
                        }
                    }
                    if decisions.is_empty() {
                        decisions.push(Decision::DispatchVm);
                    }
                    assert_eq!(out.decisions, decisions, "{case}");
                    let attr = |s: &pixels_obs::SpanData, key| {
                        s.attr(key).and_then(|v| v.as_f64()).unwrap_or(-1.0) as i64
                    };
                    let mut seen: Vec<(u64, u64)> = trace
                        .finished_spans()
                        .iter()
                        .filter(|s| s.name == "cf_fleet")
                        .map(|s| {
                            assert!(attr(s, "workers") >= 1, "{case}");
                            (attr(s, "stage") as u64, attr(s, "attempt") as u64)
                        })
                        .collect();
                    seen.sort_unstable();
                    assert_eq!(seen, fleets, "{case}");

                    assert_eq!(out.exchange.partitions, fan_out[q], "{case}");
                    if fan_out[q] > 0 {
                        let x = out.exchange;
                        assert!(x.put_bytes > 0 && x.get_bytes > 0, "{case}");
                        assert!(x.spilled_rows > 0, "{case}");
                        assert!(out.provider_shuffle_dollars > 0.0, "{case}");
                    } else {
                        assert_eq!(out.exchange, ExchangeStats::default(), "{case}");
                        assert_eq!(out.provider_shuffle_dollars, 0.0, "{case}");
                    }
                    if !crash && stages[q] == 1 {
                        single_stage_dollars = out.provider_cf_dollars;
                    } else if !crash && stages[q] == 2 {
                        assert!(
                            out.provider_cf_dollars > single_stage_dollars,
                            "{case}: two stages must cost the provider more than one"
                        );
                    }
                    assert_no_spills(&store);
                }
            }
        }
    }

    #[test]
    fn auto_sizing_broadcasts_small_joins_and_skips_tiny_exchanges() {
        // exchange_partitions = 0: cost-based sizing. On tiny TPC-H data a
        // join's build side reliably estimates far below the broadcast
        // threshold, so the join runs as a broadcast shuffle; an aggregate's
        // estimated exchange bytes fall below the minimum, so it stays
        // single-stage.
        let join = "SELECT c_name, o_orderkey FROM customer \
                    JOIN orders ON c_custkey = o_custkey \
                    ORDER BY o_orderkey, c_name LIMIT 20";

        // Reference: single-stage CF on a plain engine (cache warmed by the
        // same VM run, so billed bytes are comparable).
        let single = engine(1);
        let direct = single.execute_sql("tpch", join, false).unwrap();
        let single_out = on_cf(&single, || single.execute_sql("tpch", join, true).unwrap());
        assert!(single_out.used_cf);

        let (auto, store) = shuffle_engine(0);
        let auto_direct = auto.execute_sql("tpch", join, false).unwrap();
        assert_eq!(auto_direct.batch, direct.batch);
        let out = on_cf(&auto, || auto.execute_sql("tpch", join, true).unwrap());
        assert!(out.used_cf);
        assert_eq!(out.batch, direct.batch, "broadcast vs VM");
        assert_eq!(out.batch, single_out.batch, "broadcast vs single-stage CF");
        // Equal user bills: the probe scan is billed in stage 1, the build
        // scan in stage 0 — the same bytes the single-stage fleet scans.
        assert_eq!(out.bytes_scanned, single_out.bytes_scanned);
        assert_eq!(
            out.exchange.partitions, 1,
            "broadcast spills the build side as one partition"
        );
        assert!(out.exchange.put_bytes > 0 && out.exchange.get_bytes > 0);
        assert!(out.exchange.spilled_rows > 0);
        assert!(out.provider_shuffle_dollars > 0.0);
        // Two clean stage races, like any multi-stage plan.
        assert_eq!(
            out.decisions,
            vec![
                Decision::DispatchCf { attempt: 0 },
                Decision::Accept { attempt: 0 },
                Decision::DispatchCf { attempt: 0 },
                Decision::Accept { attempt: 0 },
            ]
        );
        assert_no_spills(&store);

        // Tiny aggregate: the exchange would cost more than it saves.
        let agg = "SELECT o_orderstatus, COUNT(*) AS n FROM orders GROUP BY o_orderstatus";
        let agg_direct = auto.execute_sql("tpch", agg, false).unwrap();
        let out = on_cf(&auto, || auto.execute_sql("tpch", agg, true).unwrap());
        assert!(out.used_cf);
        assert_eq!(out.batch, agg_direct.batch);
        assert_eq!(
            out.exchange,
            ExchangeStats::default(),
            "sub-threshold exchange must stay single-stage"
        );
        assert_no_spills(&store);
    }

    #[test]
    fn shuffled_stage_crash_relaunches_and_gc_leaves_no_spills() {
        use pixels_chaos::{FaultPlan, FaultSite, SiteSpec};
        let registry = MetricsRegistry::shared();
        // Exactly one CF crash: stage 0's first fleet dies, its relaunch and
        // all of stage 1 run clean.
        let plan = FaultPlan::none(42).with(FaultSite::CfCrash, SiteSpec::errors(1.0).capped(1));
        let (e, store) = shuffle_engine(4);
        let e = e
            .with_registry(registry.clone())
            .with_chaos(Arc::new(FaultInjector::new(&plan)));
        let sql = "SELECT o_orderstatus, COUNT(*) AS n FROM orders GROUP BY o_orderstatus";
        let direct = e.execute_sql("tpch", sql, false).unwrap();
        let out = on_cf(&e, || e.execute_sql("tpch", sql, true).unwrap());
        assert!(out.used_cf);
        assert_eq!(out.batch, direct.batch);
        assert_eq!(
            out.decisions,
            vec![
                Decision::DispatchCf { attempt: 0 },
                Decision::AttemptFailed { attempt: 0 },
                Decision::Relaunch { attempt: 1 },
                Decision::Accept { attempt: 1 },
                Decision::DispatchCf { attempt: 0 },
                Decision::Accept { attempt: 0 },
            ]
        );
        assert_eq!(
            registry.counter("pixels_turbo_cf_crashes_total", "").get(),
            1
        );
        assert_no_spills(&store);
    }

    #[test]
    fn without_cf_waits_for_slot() {
        let e = engine(1);
        let out = std::thread::scope(|s| {
            let query = e.hold_slots(|| {
                let query = s.spawn(|| {
                    e.execute_sql("tpch", "SELECT COUNT(*) FROM region", false)
                        .unwrap()
                });
                // Time in which a query that skipped the queue would finish.
                std::thread::sleep(Duration::from_millis(20));
                assert!(!query.is_finished(), "must queue behind the held slot");
                query
            });
            query.join().unwrap()
        });
        assert!(!out.used_cf);
        // The wait starts after planning, so it is shorter than the hold by
        // an unknown margin, but never zero.
        assert!(out.pending > Duration::ZERO, "must have queued");
    }

    #[test]
    fn analyze_and_explain_analyze() {
        let e = engine(2);
        let out = e.execute_sql("tpch", "ANALYZE customer", false).unwrap();
        let text = out.batch.pretty_format();
        assert!(text.contains("c_mktsegment"), "{text}");
        // 5 market segments in the generator.
        let row = out
            .batch
            .to_rows()
            .into_iter()
            .find(|r| r[0].as_str() == Some("c_mktsegment"))
            .unwrap();
        assert_eq!(row[1], Value::Int64(5));

        let out = e
            .execute_sql(
                "tpch",
                "EXPLAIN ANALYZE SELECT COUNT(*) FROM orders WHERE o_orderkey = 3",
                false,
            )
            .unwrap();
        let text = out.batch.pretty_format();
        assert!(text.contains("runtime metrics"), "{text}");
        assert!(text.contains("bytes scanned"), "{text}");
        assert!(text.contains("row groups read"), "{text}");
        assert!(out.bytes_scanned > 0);
    }

    #[test]
    fn traced_query_covers_tiers_and_reconciles_bytes() {
        let registry = MetricsRegistry::shared();
        let e = engine(2).with_registry(registry.clone());
        let trace = Trace::wall();
        let out = e
            .execute_sql_scheduled(
                "tpch",
                "SELECT COUNT(*) FROM orders",
                false,
                TraceCtx::root(&trace),
                None,
            )
            .unwrap();
        let names: Vec<String> = trace
            .finished_spans()
            .iter()
            .map(|s| s.name.clone())
            .collect();
        for expected in ["plan", "vm_execute", "scan", "storage_open", "morsel"] {
            assert!(
                names.iter().any(|n| n == expected),
                "missing {expected} in {names:?}"
            );
        }
        // Every byte the trace attributes is a billed byte, exactly.
        assert_eq!(trace.attr_sum("bytes") as u64, out.bytes_scanned);
        assert_eq!(out.metrics.bytes_scanned, out.bytes_scanned);
        // The registry absorbed this query's counters.
        assert_eq!(
            registry
                .counter("pixels_exec_bytes_scanned_total", "")
                .get(),
            out.bytes_scanned
        );
    }

    #[test]
    fn cf_trace_separates_fleet_from_top_plan() {
        let e = engine(1).with_registry(MetricsRegistry::shared());
        let trace = Trace::wall();
        let out = on_cf(&e, || {
            e.execute_sql_scheduled(
                "tpch",
                "SELECT o_orderstatus, COUNT(*) AS n FROM orders GROUP BY o_orderstatus",
                true,
                TraceCtx::root(&trace),
                None,
            )
            .unwrap()
        });
        assert!(out.used_cf);
        let spans = trace.finished_spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        for expected in ["cf_fleet", "materialize", "top_plan"] {
            assert!(names.contains(&expected), "missing {expected} in {names:?}");
        }
        // MV bytes are recorded as `bytes_written`, never `bytes`, so the
        // billed-byte invariant holds even on the CF path.
        assert!(trace.attr_sum("bytes_written") > 0.0);
        assert_eq!(trace.attr_sum("bytes") as u64, out.bytes_scanned);
        assert_eq!(
            e.registry()
                .counter("pixels_turbo_cf_invocations_total", "")
                .get(),
            1
        );
    }

    #[test]
    fn explain_analyze_includes_trace_tree() {
        let e = engine(2).with_registry(MetricsRegistry::shared());
        let out = e
            .execute_sql("tpch", "EXPLAIN ANALYZE SELECT COUNT(*) FROM orders", false)
            .unwrap();
        let text = out.batch.pretty_format();
        assert!(text.contains("--- trace ---"), "{text}");
        assert!(text.contains("scan"), "{text}");
        assert!(text.contains("morsel"), "{text}");
        assert_eq!(out.metrics.bytes_scanned, out.bytes_scanned);
        // The attribution table precedes the tree and splits wall time into
        // self vs child per operator.
        assert!(text.contains("--- operator time attribution ---"), "{text}");
        assert!(text.contains("operator"), "{text}");
        assert!(text.contains("self%"), "{text}");
        let attribution_at = text.find("operator time attribution").unwrap();
        assert!(attribution_at < text.find("--- trace ---").unwrap());
        // How the chunks arrived sits beside the cache counters: one column
        // of two row groups is two chunks, each read cold in one GET.
        assert!(
            text.contains("chunk fetches    : 0 cache hits (0 memo hits), 2 GETs, 0 gap bytes"),
            "{text}"
        );
        assert!(text.contains("gets=1"), "{text}");
        // Beside them, how long the workers waited for fetches in flight.
        let fetches = (text.lines())
            .find(|l| l.contains("chunk fetches"))
            .unwrap();
        assert!(fetches.contains(" us waited"), "{fetches}");
        assert!(text.contains("fetch_us="), "{text}");
        assert!(text.contains("join filters     : none"), "{text}");
        // A dictionary column's two chunks: the first run parses their
        // dictionaries into the cached chunks' memos, the second borrows them.
        let sql =
            "EXPLAIN ANALYZE SELECT o_orderstatus, COUNT(*) FROM orders GROUP BY o_orderstatus";
        for (hits, memo_hits, gets) in [(0, 0, 2), (2, 2, 0)] {
            let text = e
                .execute_sql("tpch", sql, false)
                .unwrap()
                .batch
                .pretty_format();
            let line = format!(
                "chunk fetches    : {hits} cache hits ({memo_hits} memo hits), {gets} GETs"
            );
            assert!(text.contains(&line), "{text}");
        }
    }

    /// "Why did this join get fast" is answerable from the report: how many
    /// probe rows the build side's keys dropped in the scan, and with what.
    #[test]
    fn explain_analyze_reports_the_join_filter() {
        let e = engine(2);
        let out = e
            .execute_sql(
                "tpch",
                "EXPLAIN ANALYZE SELECT COUNT(*) FROM lineitem JOIN orders \
                 ON l_orderkey = o_orderkey WHERE o_orderdate < DATE '1992-03-01'",
                false,
            )
            .unwrap();
        let text = out.batch.pretty_format();
        let line = (text.lines())
            .find(|l| l.contains("join filters"))
            .unwrap_or_else(|| panic!("{text}"));
        let numbers: Vec<u64> = (line.split(|c: char| !c.is_ascii_digit()))
            .filter_map(|n| n.parse().ok())
            .collect();
        let (dropped, rows) = (numbers[0], numbers[1]);
        assert!(line.contains("probe rows dropped (bitmap)"), "{line}");
        assert!(0 < dropped && dropped < rows, "{line}");
        // What the filter dropped was scanned, and billed, all the same.
        assert!(out.metrics.rows_scanned > rows, "{line}");
        assert!(text.contains("join_filter=bitmap"), "{text}");
        assert!(text.contains("join_filter_dropped="), "{text}");
        // The build side runs, and is traced, first.
        let scans: Vec<&str> = (text.lines())
            .skip_while(|l| !l.contains("--- trace ---"))
            .filter(|l| l.contains("scan "))
            .collect();
        assert!(
            !scans[0].contains("join_filter") && scans[1].contains("join_filter"),
            "{text}"
        );
    }

    #[test]
    fn cf_crash_relaunches_on_fresh_fleet() {
        use pixels_chaos::{FaultPlan, FaultSite, SiteSpec};
        let registry = MetricsRegistry::shared();
        // Exactly one crash: the first fleet dies, the relaunch succeeds.
        let plan = FaultPlan::none(42).with(FaultSite::CfCrash, SiteSpec::errors(1.0).capped(1));
        let e = engine(1)
            .with_registry(registry.clone())
            .with_chaos(Arc::new(FaultInjector::new(&plan)));
        let sql = "SELECT o_orderstatus, COUNT(*) AS n FROM orders GROUP BY o_orderstatus";
        let direct = e.execute_sql("tpch", sql, false).unwrap();
        let trace = Trace::wall();
        let out = on_cf(&e, || {
            (e.execute_sql_scheduled("tpch", sql, true, TraceCtx::root(&trace), None)).unwrap()
        });
        assert!(out.used_cf, "retry should keep the query on the CF path");
        assert_eq!(out.batch, direct.batch);
        assert_eq!(
            out.decisions,
            [
                Decision::DispatchCf { attempt: 0 },
                Decision::AttemptFailed { attempt: 0 },
                Decision::Relaunch { attempt: 1 },
                Decision::Accept { attempt: 1 },
            ]
        );
        // The crashed fleet's span keeps its error; the relaunch's has none.
        let fleets: Vec<_> = (trace.finished_spans().into_iter())
            .filter(|s| s.name == "cf_fleet")
            .map(|s| (s.attr("attempt").cloned(), s.attr("error").cloned()))
            .collect();
        assert_eq!(fleets.len(), 2, "{fleets:?}");
        for (attempt, error) in fleets {
            match (attempt, error) {
                (Some(AttrValue::U64(0)), Some(AttrValue::Str(error))) => {
                    assert!(error.contains("injected CF worker crash"), "{error}")
                }
                (Some(AttrValue::U64(1)), None) => {}
                other => panic!("unexpected cf_fleet span {other:?}"),
            }
        }
        assert_eq!(
            registry.counter("pixels_turbo_cf_crashes_total", "").get(),
            1
        );
        assert_eq!(
            registry.counter("pixels_turbo_cf_retries_total", "").get(),
            1
        );
    }

    #[test]
    fn failing_cf_fleet_degrades_to_vm_without_losing_the_query() {
        use pixels_chaos::FaultPlan;
        let registry = MetricsRegistry::shared();
        // Every CF attempt crashes; the query must still complete via VM.
        let plan = FaultPlan::cf_crashes(7, 1.0);
        let e = engine(1)
            .with_registry(registry.clone())
            .with_chaos(Arc::new(FaultInjector::new(&plan)));
        let sql = "SELECT o_orderstatus, COUNT(*) AS n FROM orders GROUP BY o_orderstatus";
        let direct = e.execute_sql("tpch", sql, false).unwrap();
        let out = on_cf(&e, || e.execute_sql("tpch", sql, true).unwrap());
        assert!(!out.used_cf, "query should have degraded to the VM path");
        assert_eq!(
            out.batch, direct.batch,
            "degradation must not change results"
        );
        assert!(
            (out.decisions).ends_with(&[Decision::Degrade, Decision::DispatchVm]),
            "{:?}",
            out.decisions
        );
        assert_eq!(
            registry
                .counter("pixels_turbo_cf_degradations_total", "")
                .get(),
            1
        );
        // Both CF attempts crashed before doing any work.
        assert_eq!(
            registry.counter("pixels_turbo_cf_crashes_total", "").get(),
            2
        );
        assert_eq!(
            registry
                .counter("pixels_turbo_cf_invocations_total", "")
                .get(),
            0
        );
    }

    /// A deadline query whose every CF attempt fails degrades to the VM and
    /// waits there for a slot only until its slot wait limit, counted from
    /// its start: then it force-starts, as one that never tried CF does.
    #[test]
    fn degraded_query_force_starts_at_its_slot_wait_limit() {
        use pixels_chaos::FaultPlan;
        let plan = FaultPlan::cf_crashes(7, 1.0);
        let e = &engine(1).with_chaos(Arc::new(FaultInjector::new(&plan)));
        let sql = "SELECT o_orderstatus, COUNT(*) AS n FROM orders GROUP BY o_orderstatus";
        let direct = e.execute_sql("tpch", sql, false).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let out = std::thread::scope(|s| {
            e.hold_slots(|| {
                s.spawn(move || {
                    let limit = Some(Duration::from_millis(50));
                    let out =
                        e.execute_sql_scheduled("tpch", sql, true, TraceCtx::disabled(), limit);
                    tx.send(out).unwrap();
                });
                (rx.recv_timeout(Duration::from_secs(10)))
                    .expect("a degraded query force-starts instead of waiting for a slot")
                    .unwrap()
            })
        });
        assert!(!out.used_cf);
        assert_eq!(out.batch, direct.batch);
        assert!(
            (out.decisions).ends_with(&[Decision::Degrade, Decision::DispatchVm]),
            "{:?}",
            out.decisions
        );
        assert_eq!(e.metrics.forced_starts.get(), 1);
        assert_eq!(e.metrics.vm_slot_wait.count(), 1, "the wait is observed");
    }

    #[test]
    fn straggler_launches_speculative_duplicate_first_result_wins() {
        use pixels_chaos::{FaultPlan, FaultSite, SiteSpec};
        let registry = MetricsRegistry::shared();
        // The first fleet straggles for 1.5 s; the speculative duplicate
        // (second draw, past the cap) runs clean and wins long before that.
        let plan = FaultPlan::none(3).with(
            FaultSite::CfStraggler,
            SiteSpec::delays(1.0, 1_500_000, 1_500_000).capped(1),
        );
        let cfg = EngineConfig {
            vm_slots: 1,
            ..EngineConfig::default()
        };
        let catalog = pixels_catalog::Catalog::shared();
        let store = InMemoryObjectStore::shared();
        load_tpch(
            &catalog,
            store.as_ref(),
            "tpch",
            &TpchConfig {
                scale: 0.0005,
                seed: 1,
                row_group_rows: 512,
                files_per_table: 1,
            },
        )
        .unwrap();
        let e = TurboEngine::new(catalog, store, cfg)
            .with_registry(registry.clone())
            .with_chaos(Arc::new(FaultInjector::new(&plan)));
        let sql = "SELECT o_orderstatus, COUNT(*) AS n FROM orders GROUP BY o_orderstatus";
        let direct = e.execute_sql("tpch", sql, false).unwrap();
        let out = on_cf(&e, || e.execute_sql("tpch", sql, true).unwrap());
        assert!(out.used_cf);
        assert_eq!(out.batch, direct.batch);
        assert_eq!(
            out.decisions,
            [
                Decision::DispatchCf { attempt: 0 },
                Decision::StragglerSpeculate { attempt: 1 },
                Decision::Accept { attempt: 1 },
            ],
            "the clean duplicate should win the race"
        );
        assert_eq!(
            registry
                .counter("pixels_speculative_launches_total", "")
                .get(),
            1
        );
        assert_eq!(
            registry
                .counter("pixels_turbo_cf_stragglers_total", "")
                .get(),
            1
        );
        // The straggler finished well under its injected delay? No — the
        // whole query must not have waited out the 1.5 s straggler.
        assert!(
            out.execution < Duration::from_millis(1_200),
            "query waited for the straggler instead of the duplicate: {:?}",
            out.execution
        );
    }

    #[test]
    fn errors_propagate() {
        let e = engine(2);
        assert!(e
            .execute_sql("tpch", "SELECT nope FROM customer", false)
            .is_err());
        assert!(e.execute_sql("tpch", "DESCRIBE missing", false).is_err());
    }
}
