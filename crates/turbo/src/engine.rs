//! Real-execution mode of Pixels-Turbo.
//!
//! The simulator (`Coordinator`) answers scheduling/pricing questions on a
//! virtual clock; this engine actually runs SQL over Pixels data for the
//! interactive demo. The "VM cluster" is a bounded pool of execution slots;
//! "CF acceleration" executes the split sub-plan on freshly spawned threads
//! (mirroring ephemeral function workers), materializes its result to
//! object storage, and finishes the cheap top-level plan locally — exactly
//! the §3.1 data path.
//!
//! What the engine counts goes to `/metrics` through the handles of one
//! [`EngineMetrics`] catalog, shared with fleet threads and reapers; a
//! plan's [`QueryWork`] is estimated once, where the plan is made, and every
//! tier prices, sizes and times from that value.

use crate::billing::{CostBreakdown, ResourcePricing};
use crate::cf_service::{CfConfig, LaunchFaults};
use crate::metrics::EngineMetrics;
use crate::model::QueryWork;
use crate::policy::{self, CfCostModel, CfEffects, CfRace, Decision, RaceInput};
use parking_lot::{Condvar, Mutex};
use pixels_catalog::CatalogRef;
use pixels_chaos::{FaultInjector, RetryPolicy};
use pixels_common::{
    ColumnBuilder, DataType, Error, Field, IdGenerator, RecordBatch, Result, Schema, Value,
};
use pixels_exec::{
    default_parallelism, exchange, execute, execute_collect, materialize, ExchangeStats,
    ExecContext, ExecMetricsSnapshot, JoinSide, DEFAULT_BATCH_SIZE,
};
use pixels_obs::{MetricsRegistry, Span, Trace, TraceCtx, WallClock};
use pixels_planner::{
    plan_query, plan_shuffle_sized, split_for_acceleration, PhysicalPlan, ShuffleKind, ShufflePlan,
    ShuffleSizing,
};
use pixels_sql::ast::Statement;
use pixels_storage::{exchange_stack, ChunkCache, FooterCache, ObjectStore, ObjectStoreRef};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Concurrent query slots the "VM cluster" provides.
    pub vm_slots: usize,
    /// Worker threads per CF fleet: the accelerated sub-plan executes with
    /// up to this much intra-plan parallelism, further bounded by the
    /// query's own parallelism estimate from the resource model.
    pub cf_fleet_threads: usize,
    /// Capacity of the engine-wide chunk-data cache (raw encoded column
    /// chunks shared across all queries). `0` disables the cache. Hits skip
    /// the storage GET but are billed exactly like misses — billing is
    /// metered from chunk metadata, never from store traffic.
    pub chunk_cache_bytes: u64,
    /// Scan prefetch depth: how many row groups a scan may have fetched or
    /// be fetching ahead of its decoding workers, and so how many reads it
    /// keeps in flight against the store. `0` runs fetch and decode fused on
    /// the workers — the synchronous path, which a scan also takes by itself
    /// when the chunk cache already holds everything it will read.
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
            cf_fleet_threads: 4,
            chunk_cache_bytes: 64 << 20,
            prefetch_depth: 4,
            exchange_partitions: 1,
        }
    }
}

/// Notable fault-handling events during one query, surfaced through
/// [`ExecOutcome`] and ultimately `QueryInfo` so clients can see what
/// recovery work their query needed. None of these change what the query is
/// billed: the $/TB price follows the bytes of the *accepted* execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryEvent {
    /// Transient object-store failures were retried under backoff.
    StorageRetries { count: u64 },
    /// A CF attempt failed (worker crash or a storage failure that
    /// exhausted its retry budget).
    CfAttemptFailed { attempt: u32, reason: String },
    /// The engine relaunched the CF sub-plan on a fresh fleet.
    CfRetried { attempt: u32 },
    /// The CF run exceeded the latency estimate and was declared a
    /// straggler.
    StragglerDetected { waited_ms: u64 },
    /// A speculative duplicate fleet was launched.
    SpeculativeLaunch { attempt: u32 },
    /// Which attempt produced the accepted result.
    SpeculativeWin { attempt: u32 },
    /// Every CF attempt failed; the query fell back to the VM tier.
    CfDegradedToVm { reason: String },
}

impl QueryEvent {
    /// One-line human/JSON form.
    pub fn describe(&self) -> String {
        match self {
            QueryEvent::StorageRetries { count } => {
                format!("storage: {count} transient GET failure(s) retried")
            }
            QueryEvent::CfAttemptFailed { attempt, reason } => {
                format!("cf attempt {attempt} failed: {reason}")
            }
            QueryEvent::CfRetried { attempt } => {
                format!("cf relaunched on fresh fleet (attempt {attempt})")
            }
            QueryEvent::StragglerDetected { waited_ms } => {
                format!("cf straggler detected after {waited_ms} ms")
            }
            QueryEvent::SpeculativeLaunch { attempt } => {
                format!("speculative duplicate fleet launched (attempt {attempt})")
            }
            QueryEvent::SpeculativeWin { attempt } => {
                format!("attempt {attempt} won the speculative race")
            }
            QueryEvent::CfDegradedToVm { reason } => {
                format!("cf path abandoned, degraded to vm: {reason}")
            }
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
    /// Fault-handling events, in order (empty for a clean run).
    pub events: Vec<QueryEvent>,
    /// Object-store retries performed while this query ran. Measured as the
    /// store-wide counter delta over the query, so it is approximate when
    /// queries run concurrently.
    pub retries: u64,
    /// Ordered policy decisions ([`crate::policy::CfRace`]) made for this
    /// query — the unit of sim/real differential comparison.
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
            events: Vec::new(),
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
    fn acquire(&self) -> (SlotGuard<'_>, Duration) {
        let start = Instant::now();
        let mut free = self.free.lock();
        while *free == 0 {
            self.cv.wait(&mut free);
        }
        *free -= 1;
        (SlotGuard(self), start.elapsed())
    }

    /// Acquire with an optional wait bound. Returns the slot and the time
    /// waited, or `None` once `limit` expires with every slot still busy
    /// (the caller then force-starts the query unslotted).
    fn acquire_until(&self, limit: Option<Duration>) -> Option<(SlotGuard<'_>, Duration)> {
        let Some(limit) = limit else {
            return Some(self.acquire());
        };
        let start = Instant::now();
        let mut free = self.free.lock();
        while *free == 0 {
            let remaining = limit.checked_sub(start.elapsed())?;
            if self.cv.wait_for(&mut free, remaining) && *free == 0 {
                return None;
            }
        }
        *free -= 1;
        Some((SlotGuard(self), start.elapsed()))
    }

    fn try_acquire(&self) -> Option<SlotGuard<'_>> {
        let mut free = self.free.lock();
        if *free == 0 {
            return None;
        }
        *free -= 1;
        Some(SlotGuard(self))
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
    /// `chunk_cache_bytes: 0`). Serves raw encoded chunk bytes; hits skip
    /// the GET but bill identically to misses.
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

    /// Execution context for a plan of estimated `work`, with parallelism
    /// taken from the resource model (scannable partitions) capped by `limit`
    /// and the machine's cores, and the engine-wide footer cache attached.
    fn exec_context(&self, work: &QueryWork, limit: usize) -> ExecContext {
        let parallelism = (work.parallelism as usize)
            .min(limit.max(1))
            .min(default_parallelism());
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
        self.execute_sql_traced(db, sql, cf_enabled, TraceCtx::disabled())
    }

    /// Like [`execute_sql`](Self::execute_sql), but opening spans under
    /// `trace` so the caller (the query server) gets one trace covering slot
    /// wait, tier dispatch, every operator, and every storage access.
    pub fn execute_sql_traced(
        &self,
        db: &str,
        sql: &str,
        cf_enabled: bool,
        trace: TraceCtx,
    ) -> Result<ExecOutcome> {
        self.execute_sql_scheduled(db, sql, cf_enabled, trace, None)
    }

    /// Like [`execute_sql_traced`](Self::execute_sql_traced), with a bound
    /// on how long the query may wait for a VM slot. `None` waits forever
    /// (Immediate / unforced semantics); `Some(limit)` is the remaining
    /// grace budget of a Relaxed/BestEffort query — when it expires with
    /// every slot still busy the query is *force-started* unslotted, so the
    /// scheduler's deadline promise holds even on a saturated engine.
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
                let est_rows = pixels_planner::estimate_physical(&plan).rows;
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
                    // Summed over the `prefetch` spans: how the scanned
                    // chunks arrived. None of it is billed.
                    text.push_str(&format!(
                        "chunk fetches    : {} cache hits, {} GETs, {} gap bytes\n",
                        t.attr_sum("cache_hits"),
                        t.attr_sum("gets"),
                        t.attr_sum("gap_bytes"),
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
                return self.run_cf(&plan, &work, stages, &trace);
            }
        }

        // Otherwise wait for a slot (the engine-level queue), bounded by the
        // caller's remaining grace budget.
        let waited = {
            let _span = trace.span("vm_slot_wait");
            self.slots.acquire_until(slot_wait_limit)
        };
        let (_slot, pending) = match waited {
            Some((slot, pending)) => (Some(slot), pending),
            None => {
                // Deadline expired while waiting: forced start. The query
                // runs unslotted (no slot held) so the grace-period promise
                // holds even on a saturated engine.
                self.metrics.forced_starts.inc();
                (None, slot_wait_limit.unwrap_or_default())
            }
        };
        self.metrics.vm_slot_wait.observe(pending.as_secs_f64());
        let mut out = self.run_in_vm(&plan, &work, &trace)?;
        out.pending = pending;
        Ok(out)
    }

    fn next_mv_path(&self) -> String {
        format!("pixels-turbo/intermediate/mv-{}.pxl", self.mv_ids.next())
    }

    /// Exchange sizing from the config: an explicit `exchange_partitions`
    /// pins that exact fan-out (the historical behavior), `0` turns on
    /// cost-based sizing.
    fn shuffle_sizing(&self) -> ShuffleSizing {
        match self.cfg.exchange_partitions {
            0 => ShuffleSizing::auto(),
            n => ShuffleSizing::fixed(n),
        }
    }

    /// Store-wide retry count delta over a query, surfaced as a
    /// [`QueryEvent::StorageRetries`] event. Approximate when queries run
    /// concurrently (the counters are shared), exact when serialized — which
    /// is how the chaos soak measures it.
    fn note_storage_retries(&self, before: u64, events: &mut Vec<QueryEvent>) -> u64 {
        let retries = self.store.metrics().retries.saturating_sub(before);
        if retries > 0 {
            events.push(QueryEvent::StorageRetries { count: retries });
        }
        retries
    }

    fn run_in_vm(
        &self,
        plan: &PhysicalPlan,
        work: &QueryWork,
        trace: &TraceCtx,
    ) -> Result<ExecOutcome> {
        let retries_before = self.store.metrics().retries;
        let ctx = self.exec_context(work, usize::MAX);
        let mut span = trace.span("vm_execute");
        span.record_u64("parallelism", ctx.parallelism as u64);
        let ctx = ctx.under(&span);
        let start = Instant::now();
        let batch = execute_collect(plan, &ctx)?;
        drop(span);
        let metrics = ctx.metrics.snapshot();
        self.count_execution(&metrics, &ctx);
        let mut events = Vec::new();
        let retries = self.note_storage_retries(retries_before, &mut events);
        Ok(ExecOutcome {
            batch,
            execution: start.elapsed(),
            bytes_scanned: metrics.bytes_scanned,
            metrics,
            events,
            retries,
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

    /// The stage list a saturated engine accelerates `plan` with, or `None`
    /// when the plan has no expensive operator to push down. A shuffleable
    /// cut point (aggregate, equi-join) with a configured or cost-derived
    /// fan-out runs as a spill stage plus a finish stage; every other plan is
    /// one stage that materializes the MV directly.
    fn cf_stages(&self, plan: &PhysicalPlan, work: &QueryWork) -> Option<Vec<Stage<'_>>> {
        // The path is a placeholder: only the lower half of the cut is used
        // here. Every attempt picks its own MV path, and the tail re-cuts the
        // plan around whichever one is accepted.
        if let Some(shuffle) = plan_shuffle_sized(plan, "", &self.shuffle_sizing()) {
            return Some(self.shuffle_stages(work, shuffle));
        }
        let split = split_for_acceleration(plan, "")?;
        Some(vec![self.single_stage(work, split.sub_plan)])
    }

    /// The single-stage CF plan: one fleet executes the whole sub-plan off
    /// the VM slots (as CF workers would) and materializes it to the
    /// attempt's own MV path.
    fn single_stage(&self, work: &QueryWork, sub_plan: PhysicalPlan) -> Stage<'_> {
        let sub_plan = Arc::new(sub_plan);
        let sub_work = QueryWork::from_plan(&sub_plan);
        Stage {
            // Priced by the full plan, matching the sim coordinator which
            // charges CF fleets for the whole query. Fleet right-sizing
            // shrinks startup-dominated fleets; the sim side of the parity
            // harness applies the same transform, so costs stay bit-identical.
            priced: self.cost_model.sized_work(work),
            deadline: self.cost_model.sized_work(&sub_work),
            prepare: Box::new(move |_attempt, _input, span| {
                let mv_path = self.next_mv_path();
                let ctx = self
                    .exec_context(&sub_work, self.cfg.cf_fleet_threads)
                    .under(span);
                let (sub_plan, store, dest) =
                    (sub_plan.clone(), self.store.clone(), mv_path.clone());
                Attempt {
                    artifact: Artifact::Mv(mv_path),
                    ctxs: vec![ctx],
                    body: Box::new(move |ctxs, _span| {
                        let ctx = &ctxs[0];
                        let batches = execute(&sub_plan, ctx)?;
                        let mut mat_span = ctx.trace.span("materialize");
                        let written =
                            materialize(store.as_ref(), &dest, sub_plan.schema(), &batches)?;
                        // `bytes_written` deliberately, not `bytes`: MV output
                        // is not billed scan traffic, and the span byte sum
                        // must still equal `bytes_scanned` exactly.
                        mat_span.record_u64("bytes_written", written);
                        Ok((ctx.metrics.snapshot(), ExchangeStats::default()))
                    }),
                }
            }),
        }
    }

    /// The two stages of a shuffled CF plan, exchanging hash-partitioned
    /// spill files through the object store (§3.1 extended the Starling way —
    /// functions cannot talk to each other, so the store is the network).
    ///
    /// The spill stage executes the shuffled operator's input(s) and spills
    /// combining/pre-aggregated hash partitions under the attempt's own
    /// prefix. The finish stage reads the *accepted* spill attempt's
    /// partition set, finishes the operator and materializes the MV the top
    /// plan reads. A broadcast join is the same two stages with a 1-partition
    /// spill of the build side only: the probe side never crosses the
    /// exchange, the finish stage executes it directly.
    ///
    /// Billing: spill PUT/GET traffic is provider-side (priced per GB into
    /// `provider_shuffle_dollars`), never part of `bytes_scanned`. The user
    /// bill equals the single-stage path's exactly: the stages scan the same
    /// table bytes one fleet would, spill reads go through scratch contexts,
    /// and the MV is byte-identical so the top plan reads the same bytes too.
    fn shuffle_stages(&self, work: &QueryWork, shuffle: ShufflePlan) -> Vec<Stage<'_>> {
        let ShufflePlan {
            kind,
            partitions,
            broadcast,
            ..
        } = shuffle;
        let kind = Arc::new(kind);
        // Fleet right-sizing applies to the whole-query work before the
        // per-stage split, exactly as the sim coordinator does.
        let [spill_work, finish_work] = self.cost_model.sized_work(work).stage_works();
        let spill_base = format!("pixels-turbo/intermediate/shuffle-{}/", self.mv_ids.next());
        // Spill I/O runs under its own chaos/retry stack: the exchange_put /
        // exchange_get fault sites with the standard object-store backoff.
        let exchange_store = exchange_stack(
            self.store.clone(),
            self.injector.clone(),
            RetryPolicy::object_store(),
            WallClock::shared(),
        );
        let fleet_threads = self.cfg.cf_fleet_threads;

        let spill = {
            let (kind, exchange_store) = (kind.clone(), exchange_store.clone());
            Stage {
                priced: spill_work,
                deadline: spill_work,
                prepare: Box::new(move |attempt, _input, span| {
                    // The attempt index in the prefix means a crashed or
                    // losing attempt can never poison its replacement's reads.
                    let prefix = format!("{spill_base}s0-a{attempt}/");
                    // A join stage executes each input under its own context.
                    let ctxs = spill_inputs(&kind, broadcast)
                        .into_iter()
                        .map(|input| {
                            self.exec_context(&QueryWork::from_plan(input), fleet_threads)
                                .under(span)
                        })
                        .collect();
                    let (kind, store, dest) =
                        (kind.clone(), exchange_store.clone(), prefix.clone());
                    Attempt {
                        artifact: Artifact::Spill(prefix),
                        ctxs,
                        body: Box::new(move |ctxs, _span| {
                            spill_partitions(
                                &kind,
                                broadcast,
                                partitions,
                                ctxs,
                                store.as_ref(),
                                &dest,
                            )
                        }),
                    }
                }),
            }
        };
        let finish = Stage {
            priced: finish_work,
            deadline: finish_work,
            prepare: Box::new(move |_attempt, input, span| {
                let source = input
                    .expect("a finish stage follows a spill stage")
                    .location()
                    .to_string();
                let mv_path = self.next_mv_path();
                // Only a broadcast join scans in this stage: its probe side.
                let ctxs = match kind.as_ref() {
                    ShuffleKind::Join { left, .. } if broadcast => {
                        let work = QueryWork::from_plan(left);
                        vec![self.exec_context(&work, fleet_threads).under(span)]
                    }
                    _ => Vec::new(),
                };
                let (kind, exchange_store, store, dest) = (
                    kind.clone(),
                    exchange_store.clone(),
                    self.store.clone(),
                    mv_path.clone(),
                );
                Attempt {
                    artifact: Artifact::Mv(mv_path),
                    ctxs,
                    body: Box::new(move |ctxs, span| {
                        let (snapshot, batches, stats) = finish_partitions(
                            &kind,
                            partitions,
                            ctxs.first(),
                            &exchange_store,
                            &source,
                        )?;
                        span.record_u64("spill_bytes_read", stats.get_bytes);
                        let written =
                            materialize(store.as_ref(), &dest, kind.output_schema(), &batches)?;
                        span.record_u64("bytes_written", written);
                        Ok((snapshot, stats))
                    }),
                }
            }),
        };
        vec![spill, finish]
    }

    /// CF path: run `stages` in order, each one a full [`CfRace`] whose
    /// accepted artifact is the next stage's input, then finish the cheap top
    /// plan locally over the last stage's MV — the §3.1 data path.
    ///
    /// Billing: every attempt's modelled cost is provider spend (the provider
    /// charges for every invocation, crashed and cancelled ones included),
    /// but the query bills only the scanned bytes of the *accepted* attempts,
    /// so the $/TB price is the same with and without recovery work.
    fn run_cf(
        &self,
        plan: &PhysicalPlan,
        work: &QueryWork,
        stages: Vec<Stage<'_>>,
        trace: &TraceCtx,
    ) -> Result<ExecOutcome> {
        let start = Instant::now();
        let retries_before = self.store.metrics().retries;
        let mut run = CfRun::default();
        for (index, stage) in stages.iter().enumerate() {
            if !self.run_stage(index, stage, trace, &mut run) {
                return self.degrade_to_vm(plan, work, trace, run);
            }
        }

        let mv_path = run
            .accepted
            .last()
            .expect("a CF plan has at least one stage")
            .location();
        let top_plan = split_for_acceleration(plan, mv_path)
            .expect("the plan split when its stages were built")
            .top_plan;
        let top_span = trace.span("top_plan");
        let ctx = self
            .exec_context(&QueryWork::from_plan(&top_plan), usize::MAX)
            .under(&top_span);
        let result = execute_collect(&top_plan, &ctx);
        drop(top_span);
        // The accepted intermediates are ephemeral CF output and have been
        // fully consumed — or have no reader left, if the top plan failed.
        // Losing attempts clean up after themselves in the stage reapers.
        for artifact in &run.accepted {
            self.discard(artifact);
        }
        let batch = result?;

        // Billed bytes: every accepted stage's table scans plus the top
        // plan's MV read. Spill traffic never reaches `bytes_scanned`.
        let metrics = run.metrics.merged(&ctx.metrics.snapshot());
        self.count_execution(&metrics, &ctx);
        self.metrics.cf_invocations.inc();
        self.metrics.exchange(&run.exchange);
        let retries = self.note_storage_retries(retries_before, &mut run.events);
        Ok(ExecOutcome {
            batch,
            used_cf: true,
            execution: start.elapsed(),
            bytes_scanned: metrics.bytes_scanned,
            metrics,
            events: run.events,
            retries,
            decisions: run.decisions,
            // The accepted execution's modelled cost: the winning fleet of
            // each stage (same formula the sim's CfService charges).
            resource_cost: CostBreakdown {
                vm_dollars: 0.0,
                cf_dollars: run.accepted_cf_dollars,
            },
            provider_cf_dollars: run.provider_cf_dollars,
            provider_shuffle_dollars: self.pricing.exchange_cost(run.exchange.total_bytes()),
            exchange: run.exchange,
            ..ExecOutcome::default()
        })
    }

    /// Race one stage's fleets to an accepted attempt, folding its decisions,
    /// events, costs, metrics and artifact into `run`. Returns `false` when
    /// every attempt failed (`Decision::Degrade`).
    ///
    /// Every recovery decision — when to relaunch a crashed fleet, when to
    /// race a speculative duplicate, when to give up — is made by the shared
    /// policy core ([`CfRace`]); this driver only *detects* (a channel wait
    /// with a deadline) and *executes* (threads, artifact cleanup).
    fn run_stage(
        &self,
        index: usize,
        stage: &Stage<'_>,
        trace: &TraceCtx,
        run: &mut CfRun,
    ) -> bool {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut fleets = StageFleets {
            engine: self,
            stage,
            index: index as u64,
            input: run.accepted.last().cloned(),
            trace,
            tx,
            artifacts: Vec::new(),
            costs: Vec::new(),
        };
        let mut race = CfRace::start(&mut fleets);
        // Straggler deadline: the model's estimate for the stage on this
        // fleet, scaled and floored by the shared policy rule.
        let straggler_wait = self.straggler_wait(&stage.deadline);
        let winner = self.drive_race(&mut race, &mut fleets, &rx, straggler_wait, run);
        // Dropping the launcher's sender lets the reaper's drain end once the
        // last in-flight fleet has reported.
        let StageFleets {
            artifacts, costs, ..
        } = fleets;
        run.decisions.extend(race.decisions.iter().copied());
        run.provider_cf_dollars += costs.iter().sum::<f64>();
        let Some((attempt, metrics, stats)) = winner else {
            self.reap(rx, artifacts, race.outstanding());
            return false;
        };
        if race.speculated() {
            run.events.push(QueryEvent::SpeculativeWin { attempt });
        }
        run.accepted_cf_dollars += costs[attempt as usize];
        run.metrics = run.metrics.merged(&metrics);
        run.exchange.merge(&stats);
        run.accepted.push(artifacts[attempt as usize].clone());
        self.reap(rx, artifacts, race.outstanding() - 1);
        true
    }

    /// Drain attempts still in flight after their race is decided: account
    /// their wasted scan bytes, add their exchange traffic to the
    /// telemetry counters (provider dollars only ever price *accepted*
    /// attempts, keeping bills deterministic), and discard each one's
    /// artifact. Runs detached so losers can't delay the winning query.
    fn reap(
        &self,
        rx: std::sync::mpsc::Receiver<StageResult>,
        artifacts: Vec<Artifact>,
        in_flight: u32,
    ) {
        if in_flight == 0 {
            return;
        }
        let store = self.store.clone();
        let footer_cache = self.footer_cache.clone();
        let chunk_cache = self.chunk_cache.clone();
        let counters = self.metrics.clone();
        std::thread::spawn(move || {
            for (attempt, result) in rx {
                if let Ok((metrics, stats)) = result {
                    counters.wasted_bytes.add(metrics.bytes_scanned);
                    counters.exchange(&stats);
                }
                if let Some(artifact) = artifacts.get(attempt as usize) {
                    discard_artifact(
                        store.as_ref(),
                        &footer_cache,
                        chunk_cache.as_deref(),
                        artifact,
                    );
                }
            }
        });
    }

    /// Delete one attempt's intermediate output and drop its (now dangling)
    /// cache entries — winner GC, failed-attempt cleanup and the reaper all
    /// go through [`discard_artifact`].
    fn discard(&self, artifact: &Artifact) {
        discard_artifact(
            self.store.as_ref(),
            &self.footer_cache,
            self.chunk_cache.as_deref(),
            artifact,
        );
    }

    /// Straggler deadline for one fleet: the engine's straggler factor × the
    /// model's estimate on this fleet's threads, floored.
    fn straggler_wait(&self, work: &QueryWork) -> Duration {
        let est = work.exec_time_on_cores(self.cfg.cf_fleet_threads.max(1) as f64);
        Duration::from_micros(
            policy::straggler_deadline(
                est,
                policy::ENGINE_STRAGGLER_FACTOR,
                policy::ENGINE_STRAGGLER_MIN_WAIT,
            )
            .as_micros(),
        )
    }

    /// Drive one stage's [`CfRace`] to completion against its result channel
    /// and return the accepted attempt, if any. The loop only *detects* (a
    /// channel wait bounded by the straggler deadline), records
    /// events/counters and discards failed attempts' artifacts; every
    /// reaction is the policy's.
    fn drive_race(
        &self,
        race: &mut CfRace,
        fleets: &mut StageFleets<'_>,
        rx: &std::sync::mpsc::Receiver<StageResult>,
        straggler_wait: Duration,
        run: &mut CfRun,
    ) -> Option<(u32, ExecMetricsSnapshot, ExchangeStats)> {
        use std::sync::mpsc;

        let mut deadline_fired = false;
        let mut winner = None;
        while !race.is_finished() {
            // Before the deadline fires, wake when it expires; after (the
            // policy reacts to it at most once), the only thing left to wait
            // for is a result or total failure.
            let timeout = if deadline_fired {
                Duration::from_secs(3600)
            } else {
                straggler_wait
            };
            let input = match rx.recv_timeout(timeout) {
                Ok((attempt, Ok((metrics, stats)))) => {
                    winner = Some((attempt, metrics, stats));
                    RaceInput::AttemptFinished {
                        attempt,
                        failed: false,
                    }
                }
                Ok((attempt, Err(e))) => {
                    self.metrics.cf_crashes.inc();
                    run.events.push(QueryEvent::CfAttemptFailed {
                        attempt,
                        reason: e.to_string(),
                    });
                    run.last_err = Some(e);
                    // A crash before any write leaves nothing; a storage
                    // failure mid-write may have left partial output — GC
                    // either way.
                    self.discard(&fleets.artifacts[attempt as usize]);
                    RaceInput::AttemptFinished {
                        attempt,
                        failed: true,
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    deadline_fired = true;
                    RaceInput::StragglerDeadline
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            };
            for d in race.step(input, fleets) {
                match d {
                    Decision::Relaunch { attempt } => {
                        run.events.push(QueryEvent::CfRetried { attempt });
                        self.metrics.cf_retries.inc();
                    }
                    Decision::StragglerSpeculate { attempt } => {
                        run.events.push(QueryEvent::StragglerDetected {
                            waited_ms: straggler_wait.as_millis() as u64,
                        });
                        run.events.push(QueryEvent::SpeculativeLaunch { attempt });
                        self.metrics.cf_stragglers.inc();
                        self.metrics.speculative_launches.inc();
                    }
                    _ => {}
                }
            }
        }
        winner
    }

    /// The one CF→VM degradation path: every attempt of some stage failed.
    /// The query still completes (and bills the plain VM-path bytes), it
    /// just loses the acceleration: re-acquire a VM slot, run the whole plan
    /// there, and prepend the CF events/decisions and provider-side spend.
    fn degrade_to_vm(
        &self,
        plan: &PhysicalPlan,
        work: &QueryWork,
        trace: &TraceCtx,
        run: CfRun,
    ) -> Result<ExecOutcome> {
        // Earlier stages' accepted output has no reader anymore.
        for artifact in &run.accepted {
            self.discard(artifact);
        }
        let CfRun {
            mut events,
            mut decisions,
            last_err,
            provider_cf_dollars,
            exchange,
            ..
        } = run;
        events.push(QueryEvent::CfDegradedToVm {
            reason: last_err
                .map(|e| e.to_string())
                .unwrap_or_else(|| "cf fleet unavailable".into()),
        });
        self.metrics.cf_degradations.inc();
        self.metrics.exchange(&exchange);
        let (_slot, pending) = {
            let _span = trace.span("vm_slot_wait");
            self.slots.acquire()
        };
        let mut out = self.run_in_vm(plan, work, trace)?;
        out.pending = pending;
        // Degradation events and the policy's decision log precede whatever
        // the VM run recorded.
        events.append(&mut out.events);
        out.events = events;
        decisions.append(&mut out.decisions);
        out.decisions = decisions;
        out.provider_cf_dollars = provider_cf_dollars;
        // Exchange traffic the accepted stages produced before the plan
        // degraded stays a provider cost; it never reaches the bill.
        out.provider_shuffle_dollars = self.pricing.exchange_cost(exchange.total_bytes());
        out.exchange = exchange;
        Ok(out)
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

/// What one stage attempt leaves in the object store, and therefore what has
/// to be deleted once it is consumed, fails or loses its race.
#[derive(Debug, Clone)]
enum Artifact {
    /// Prefix of a spill stage attempt's partition objects.
    Spill(String),
    /// Path of the materialized view the top plan reads.
    Mv(String),
}

impl Artifact {
    fn location(&self) -> &str {
        match self {
            Artifact::Spill(prefix) => prefix,
            Artifact::Mv(path) => path,
        }
    }
}

/// What a fleet reports back: its billed scan counters and its exchange
/// traffic (zero for stages that don't touch the exchange).
type StagePayload = (ExecMetricsSnapshot, ExchangeStats);
type StageResult = (u32, Result<StagePayload>);
/// The work one fleet runs on its own thread, under its `cf_fleet` span.
type StageBody = Box<dyn FnOnce(&[ExecContext], &mut Span) -> Result<StagePayload> + Send>;
/// Caller-thread setup of attempt `n` of a stage, under its fleet span: pick
/// the artifact it writes and build its contexts. The second argument is the
/// previous stage's accepted artifact (`None` for the first stage).
type Prepare<'a> = dyn Fn(u32, Option<&Artifact>, &Span) -> Attempt + 'a;

/// One attempt of a stage, set up on the caller thread (contexts borrow
/// engine state) and then moved onto the fleet's thread.
struct Attempt {
    artifact: Artifact,
    /// Billed execution contexts the body scans under; the fleet publishes
    /// their prefetcher counters when it exits.
    ctxs: Vec<ExecContext>,
    body: StageBody,
}

/// One stage of a CF execution — everything that differs between stages;
/// [`TurboEngine::run_stage`] owns everything that doesn't.
struct Stage<'a> {
    /// Work every attempt is priced by, and the nominal runtime its fault
    /// draw scales from.
    priced: QueryWork,
    /// Work the straggler deadline is estimated from.
    deadline: QueryWork,
    prepare: Box<Prepare<'a>>,
}

/// What a CF execution has accumulated across the stages run so far.
#[derive(Default)]
struct CfRun {
    events: Vec<QueryEvent>,
    decisions: Vec<Decision>,
    last_err: Option<Error>,
    /// Modelled cost of every attempt launched, stage sums added in order.
    provider_cf_dollars: f64,
    /// Modelled cost of the accepted attempt of each stage.
    accepted_cf_dollars: f64,
    /// Billed scan counters of the accepted attempts.
    metrics: ExecMetricsSnapshot,
    /// Exchange traffic of the accepted attempts.
    exchange: ExchangeStats,
    /// The accepted attempt's artifact, per finished stage.
    accepted: Vec<Artifact>,
}

/// The engine's effect handler: [`CfRace`] launch decisions become spawned
/// executor threads ("CF fleets"). Per-attempt faults and modelled costs are
/// decided at launch, on the driver thread, by the shared policy rules — the
/// thread only applies them — so a seeded fault plan produces the same
/// attempt outcomes and the same provider cost accrual as the simulator's
/// `CfService`.
struct StageFleets<'a> {
    engine: &'a TurboEngine,
    stage: &'a Stage<'a>,
    index: u64,
    input: Option<Artifact>,
    trace: &'a TraceCtx,
    tx: std::sync::mpsc::Sender<StageResult>,
    /// Artifact and modelled cost of every attempt launched, by attempt.
    artifacts: Vec<Artifact>,
    costs: Vec<f64>,
}

impl CfEffects for StageFleets<'_> {
    fn launch(&mut self, attempt: u32) {
        let engine = self.engine;
        let faults = policy::decide_launch_faults(
            &engine.injector,
            engine.cost_model.startup(),
            engine.cost_model.nominal_runtime(&self.stage.priced),
        );
        self.costs
            .push(engine.cost_model.attempt_cost(&self.stage.priced, &faults));
        let mut span = self.trace.span("cf_fleet");
        span.record_u64("attempt", attempt as u64);
        span.record_u64("stage", self.index);
        let Attempt {
            artifact,
            ctxs,
            body,
        } = (self.stage.prepare)(attempt, self.input.as_ref(), &span);
        // The fleet's intra-plan parallelism comes from the resource model,
        // capped by the configured workers per fleet; a stage that only
        // reads spills back is a single worker.
        let workers = ctxs.iter().map(|c| c.parallelism).max().unwrap_or(1);
        span.record_u64("workers", workers as u64);
        self.artifacts.push(artifact);
        let counters = engine.metrics.clone();
        let tx = self.tx.clone();
        std::thread::spawn(move || {
            let result =
                apply_launch_faults(attempt, &faults).and_then(|()| body(&ctxs, &mut span));
            // Pipeline counters are not part of the snapshot sent back, so
            // the fleet publishes its own prefetcher activity.
            for ctx in &ctxs {
                counters.pipeline(&ctx.metrics.pipeline_snapshot());
            }
            // Finish the span before handing over the result: the race
            // winner's trace may be rendered the moment the send lands.
            drop(span);
            let _ = tx.send((attempt, result));
        });
    }

    fn cancel_losers(&mut self, _winner: u32) {
        // The engine can't interrupt a running fleet thread; losers are
        // drained in the background by the stage's reaper.
    }

    fn degrade_to_vm(&mut self) {
        // The VM fallback runs on the caller thread once the race loop
        // observes `Decision::Degrade`.
    }
}

/// Apply a fleet's launch-time faults before its body runs. An injected
/// crash fails before any work, so it costs no scan bytes.
fn apply_launch_faults(attempt: u32, faults: &LaunchFaults) -> Result<()> {
    if faults.extra_startup.as_micros() > 0 {
        // Cold-start storm: the whole fleet starts late.
        std::thread::sleep(Duration::from_micros(faults.extra_startup.as_micros()));
    }
    if faults.crash {
        return Err(Error::Exec(format!(
            "injected CF worker crash (attempt {attempt})"
        )));
    }
    if faults.straggle.as_micros() > 0 {
        std::thread::sleep(Duration::from_micros(faults.straggle.as_micros()));
    }
    Ok(())
}

/// The plans a spill stage executes, one context each: an aggregate's input,
/// both sides of a partitioned join, or only the (small) build side of a
/// broadcast join.
fn spill_inputs(kind: &ShuffleKind, broadcast: bool) -> Vec<&PhysicalPlan> {
    match kind {
        ShuffleKind::Aggregate { input, .. } => vec![input],
        ShuffleKind::Join { right, .. } if broadcast => vec![right],
        ShuffleKind::Join { left, right, .. } => vec![left, right],
    }
}

/// Spill stage body: execute the shuffled operator's input(s) with the
/// fleet's parallelism, then spill hash partitions under `prefix` through
/// the exchange (chaos/retry) stack. `ctxs` pairs up with
/// [`spill_inputs`]; a broadcast join's `partitions` is 1.
fn spill_partitions(
    kind: &ShuffleKind,
    broadcast: bool,
    partitions: usize,
    ctxs: &[ExecContext],
    exchange_store: &dyn ObjectStore,
    prefix: &str,
) -> Result<StagePayload> {
    // `bytes_spilled`, never `bytes`: spill PUTs are provider traffic, and
    // the span byte sum must still equal `bytes_scanned` exactly.
    match kind {
        ShuffleKind::Aggregate {
            input,
            group_exprs,
            aggs,
            ..
        } => {
            let ctx = &ctxs[0];
            let batches = execute(input, ctx)?;
            let mut spill_span = ctx.trace.span("exchange_spill");
            let stats = exchange::write_agg_partitions(
                &batches,
                group_exprs,
                aggs,
                ctx.parallelism,
                exchange_store,
                prefix,
                partitions,
            )?;
            spill_span.record_u64("bytes_spilled", stats.put_bytes);
            Ok((ctx.metrics.snapshot(), stats))
        }
        ShuffleKind::Join {
            left,
            right,
            left_keys,
            right_keys,
            ..
        } => {
            let sides = [(left, JoinSide::Left), (right, JoinSide::Right)];
            // Only the build (right) side of a broadcast join is spilled.
            let sides = &sides[usize::from(broadcast)..];
            let executed = sides
                .iter()
                .zip(ctxs)
                .map(|((input, _), ctx)| execute(input, ctx))
                .collect::<Result<Vec<_>>>()?;
            let mut spill_span = ctxs[0].trace.span("exchange_spill");
            let mut stats = ExchangeStats::default();
            let mut snapshot = ExecMetricsSnapshot::default();
            for (((input, side), batches), ctx) in sides.iter().zip(&executed).zip(ctxs) {
                stats.merge(&exchange::write_join_partitions(
                    batches,
                    &input.schema(),
                    left_keys,
                    right_keys,
                    *side,
                    exchange_store,
                    prefix,
                    partitions,
                )?);
                snapshot = snapshot.merged(&ctx.metrics.snapshot());
            }
            spill_span.record_u64("bytes_spilled", stats.put_bytes);
            Ok((snapshot, stats))
        }
    }
}

/// Finish stage body: read the accepted spill attempt's partition set back
/// through the exchange stack (scratch contexts — spill GETs are never
/// billed) and finish the shuffled operator, returning the batches to
/// materialize.
///
/// A broadcast join passes the context to *execute the probe side* under (it
/// never crossed the exchange): the returned snapshot carries those scanned
/// bytes, exactly the bytes the single-stage path would have billed for the
/// same side. Symmetric exchanges return an empty snapshot.
fn finish_partitions(
    kind: &ShuffleKind,
    partitions: usize,
    probe_ctx: Option<&ExecContext>,
    exchange_store: &ObjectStoreRef,
    source_prefix: &str,
) -> Result<(ExecMetricsSnapshot, Vec<RecordBatch>, ExchangeStats)> {
    match kind {
        ShuffleKind::Aggregate {
            group_exprs,
            aggs,
            output_schema,
            ..
        } => {
            let (batches, stats) = exchange::read_agg_partitions(
                exchange_store,
                source_prefix,
                partitions,
                group_exprs,
                aggs,
                output_schema,
            )?;
            Ok((ExecMetricsSnapshot::default(), batches, stats))
        }
        ShuffleKind::Join {
            left,
            right,
            join_type,
            left_keys,
            right_keys,
            residual,
            output_schema,
        } => {
            // `DEFAULT_BATCH_SIZE` is the chunking the in-process join uses,
            // so the MV's batches — and therefore its bytes — are identical
            // to the single-stage path.
            let Some(ctx) = probe_ctx else {
                let (batches, stats) = exchange::read_join_partitions(
                    exchange_store,
                    source_prefix,
                    partitions,
                    *join_type,
                    left_keys,
                    right_keys,
                    residual.as_ref(),
                    output_schema,
                    &left.schema(),
                    &right.schema(),
                    DEFAULT_BATCH_SIZE,
                )?;
                return Ok((ExecMetricsSnapshot::default(), batches, stats));
            };
            let probe = execute(left, ctx)?;
            let (batches, stats) = exchange::read_broadcast_join(
                exchange_store,
                source_prefix,
                &probe,
                *join_type,
                left_keys,
                right_keys,
                residual.as_ref(),
                output_schema,
                &left.schema(),
                &right.schema(),
                DEFAULT_BATCH_SIZE,
            )?;
            Ok((ctx.metrics.snapshot(), batches, stats))
        }
    }
}

/// Best-effort deletion of one attempt's intermediate output, with the
/// cache entries that would otherwise dangle. Spills are plain objects on
/// the engine store, so listing the prefix sees exactly what the attempt
/// wrote; they are read through scratch contexts and never cached.
fn discard_artifact(
    store: &dyn ObjectStore,
    footer_cache: &FooterCache,
    chunk_cache: Option<&ChunkCache>,
    artifact: &Artifact,
) {
    match artifact {
        Artifact::Spill(prefix) => {
            if let Ok(paths) = store.list(prefix) {
                for p in paths {
                    let _ = store.delete(&p);
                }
            }
        }
        Artifact::Mv(path) => {
            let _ = store.delete(path);
            footer_cache.invalidate(path);
            if let Some(c) = chunk_cache {
                c.invalidate_path(path);
            }
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
                cf_fleet_threads: 2,
                ..EngineConfig::default()
            },
        )
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

        // Saturate the only slot from another thread, then run with CF.
        let e = Arc::new(e);
        let blocker = {
            let e = e.clone();
            std::thread::spawn(move || {
                // A query that holds the slot for a while.
                e.execute_sql(
                    "tpch",
                    "SELECT COUNT(*) FROM lineitem CROSS JOIN nation",
                    false,
                )
                .unwrap()
            })
        };
        // Give the blocker time to grab the slot.
        while !e.is_busy() {
            std::thread::yield_now();
        }
        let accelerated = e.execute_sql("tpch", sql, true).unwrap();
        assert!(accelerated.used_cf, "should have used CF acceleration");
        assert_eq!(accelerated.batch, direct.batch, "results must be identical");
        blocker.join().unwrap();
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
                cf_fleet_threads: 2,
                exchange_partitions: partitions,
                ..EngineConfig::default()
            },
        );
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
                    let e = Arc::new(if crash {
                        e.with_chaos(Arc::new(FaultInjector::new(&plan)))
                    } else {
                        e
                    });
                    // The same VM warm-up everywhere, so every shape sees the
                    // same cache state and billed bytes are comparable.
                    let direct = e.execute_sql("tpch", sql, false).unwrap();
                    let trace = Trace::wall();
                    let run = |cf| {
                        e.execute_sql_traced("tpch", sql, cf, TraceCtx::root(&trace))
                            .unwrap()
                    };
                    let out = match partitions {
                        None => run(false),
                        Some(_) => with_saturated_slot(&e, || run(true)),
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
        let single = Arc::new(engine(1));
        let direct = single.execute_sql("tpch", join, false).unwrap();
        let single_out =
            with_saturated_slot(&single, || single.execute_sql("tpch", join, true).unwrap());
        assert!(single_out.used_cf);

        let (auto, store) = shuffle_engine(0);
        let auto = Arc::new(auto);
        let auto_direct = auto.execute_sql("tpch", join, false).unwrap();
        assert_eq!(auto_direct.batch, direct.batch);
        let out = with_saturated_slot(&auto, || auto.execute_sql("tpch", join, true).unwrap());
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
        let out = with_saturated_slot(&auto, || auto.execute_sql("tpch", agg, true).unwrap());
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
        let e = Arc::new(
            e.with_registry(registry.clone())
                .with_chaos(Arc::new(FaultInjector::new(&plan))),
        );
        let sql = "SELECT o_orderstatus, COUNT(*) AS n FROM orders GROUP BY o_orderstatus";
        let direct = e.execute_sql("tpch", sql, false).unwrap();
        let out = with_saturated_slot(&e, || e.execute_sql("tpch", sql, true).unwrap());
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
        let e = Arc::new(engine(1));
        let blocker = {
            let e = e.clone();
            std::thread::spawn(move || {
                e.execute_sql(
                    "tpch",
                    "SELECT COUNT(*) FROM lineitem CROSS JOIN nation",
                    false,
                )
                .unwrap()
            })
        };
        while !e.is_busy() {
            std::thread::yield_now();
        }
        let out = e
            .execute_sql("tpch", "SELECT COUNT(*) FROM region", false)
            .unwrap();
        assert!(!out.used_cf);
        assert!(out.pending > Duration::ZERO, "must have queued");
        blocker.join().unwrap();
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
            .execute_sql_traced(
                "tpch",
                "SELECT COUNT(*) FROM orders",
                false,
                TraceCtx::root(&trace),
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
        let e = Arc::new(engine(1).with_registry(MetricsRegistry::shared()));
        let blocker = {
            let e = e.clone();
            std::thread::spawn(move || {
                e.execute_sql(
                    "tpch",
                    "SELECT COUNT(*) FROM lineitem CROSS JOIN nation",
                    false,
                )
                .unwrap()
            })
        };
        while !e.is_busy() {
            std::thread::yield_now();
        }
        let trace = Trace::wall();
        let out = e
            .execute_sql_traced(
                "tpch",
                "SELECT o_orderstatus, COUNT(*) AS n FROM orders GROUP BY o_orderstatus",
                true,
                TraceCtx::root(&trace),
            )
            .unwrap();
        blocker.join().unwrap();
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
            text.contains("chunk fetches    : 0 cache hits, 2 GETs, 0 gap bytes"),
            "{text}"
        );
        assert!(text.contains("gets=1"), "{text}");
        assert!(text.contains("join filters     : none"), "{text}");
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

    /// Saturate the engine's only VM slot with a long-running query so that
    /// the next submission takes the CF path, then run `f` while blocked.
    fn with_saturated_slot<T>(e: &Arc<TurboEngine>, f: impl FnOnce() -> T) -> T {
        let blocker = {
            let e = e.clone();
            std::thread::spawn(move || {
                e.execute_sql(
                    "tpch",
                    "SELECT COUNT(*) FROM lineitem CROSS JOIN nation",
                    false,
                )
                .unwrap()
            })
        };
        while !e.is_busy() {
            std::thread::yield_now();
        }
        let r = f();
        blocker.join().unwrap();
        r
    }

    #[test]
    fn cf_crash_relaunches_on_fresh_fleet() {
        use pixels_chaos::{FaultPlan, FaultSite, SiteSpec};
        let registry = MetricsRegistry::shared();
        // Exactly one crash: the first fleet dies, the relaunch succeeds.
        let plan = FaultPlan::none(42).with(FaultSite::CfCrash, SiteSpec::errors(1.0).capped(1));
        let e = Arc::new(
            engine(1)
                .with_registry(registry.clone())
                .with_chaos(Arc::new(FaultInjector::new(&plan))),
        );
        let sql = "SELECT o_orderstatus, COUNT(*) AS n FROM orders GROUP BY o_orderstatus";
        let direct = e.execute_sql("tpch", sql, false).unwrap();
        let out = with_saturated_slot(&e, || e.execute_sql("tpch", sql, true).unwrap());
        assert!(out.used_cf, "retry should keep the query on the CF path");
        assert_eq!(out.batch, direct.batch);
        assert!(out
            .events
            .iter()
            .any(|ev| matches!(ev, QueryEvent::CfAttemptFailed { attempt: 0, .. })));
        assert!(out
            .events
            .iter()
            .any(|ev| matches!(ev, QueryEvent::CfRetried { attempt: 1 })));
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
        let e = Arc::new(
            engine(1)
                .with_registry(registry.clone())
                .with_chaos(Arc::new(FaultInjector::new(&plan))),
        );
        let sql = "SELECT o_orderstatus, COUNT(*) AS n FROM orders GROUP BY o_orderstatus";
        let direct = e.execute_sql("tpch", sql, false).unwrap();
        let out = with_saturated_slot(&e, || e.execute_sql("tpch", sql, true).unwrap());
        assert!(!out.used_cf, "query should have degraded to the VM path");
        assert_eq!(
            out.batch, direct.batch,
            "degradation must not change results"
        );
        assert!(out
            .events
            .iter()
            .any(|ev| matches!(ev, QueryEvent::CfDegradedToVm { .. })));
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
            cf_fleet_threads: 2,
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
        let e = Arc::new(
            TurboEngine::new(catalog, store, cfg)
                .with_registry(registry.clone())
                .with_chaos(Arc::new(FaultInjector::new(&plan))),
        );
        let sql = "SELECT o_orderstatus, COUNT(*) AS n FROM orders GROUP BY o_orderstatus";
        let direct = e.execute_sql("tpch", sql, false).unwrap();
        let out = with_saturated_slot(&e, || e.execute_sql("tpch", sql, true).unwrap());
        assert!(out.used_cf);
        assert_eq!(out.batch, direct.batch);
        assert!(out
            .events
            .iter()
            .any(|ev| matches!(ev, QueryEvent::StragglerDetected { .. })));
        assert!(out
            .events
            .iter()
            .any(|ev| matches!(ev, QueryEvent::SpeculativeLaunch { attempt: 1 })));
        assert!(
            out.events
                .iter()
                .any(|ev| matches!(ev, QueryEvent::SpeculativeWin { attempt: 1 })),
            "the clean duplicate should win the race: {:?}",
            out.events
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
