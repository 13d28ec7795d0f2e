//! The fixture the fault-injection soak gates (`chaos_soak`,
//! `exchange_soak`) share: a TPC-H deployment behind a seeded fault plan,
//! one measured query run, the fault-free-twin comparison, and the
//! per-scenario roll-up both gates report.

use pixels_catalog::Catalog;
use pixels_chaos::{FaultInjector, FaultPlan, RetryPolicy};
use pixels_common::{Json, RecordBatch};
use pixels_obs::{MetricsRegistry, WallClock};
use pixels_server::{PriceSchedule, QueryServer, QueryStatus, QuerySubmission, ServiceLevel};
use pixels_storage::{chaos_stack, InMemoryObjectStore, ObjectStoreRef};
use pixels_turbo::{EngineConfig, TurboEngine};
use pixels_workload::{load_tpch, TpchConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shuffleable TPC-H queries: one aggregation, one equi-join.
pub const SHUFFLE_QUERIES: [(&str, &str); 2] = [
    (
        "shuffle_agg",
        "SELECT o_orderstatus, COUNT(*) AS n FROM orders \
         GROUP BY o_orderstatus ORDER BY n DESC",
    ),
    (
        "shuffle_join",
        "SELECT c_name, o_orderkey FROM customer \
         JOIN orders ON c_custkey = o_custkey \
         ORDER BY o_orderkey, c_name LIMIT 20",
    ),
];

/// One VM slot (so a saturated slot sends Immediate work to CF) and a
/// 4-way exchange fan-out.
pub fn shuffle_config() -> EngineConfig {
    EngineConfig {
        vm_slots: 1,
        cf_fleet_threads: 2,
        exchange_partitions: 4,
        ..EngineConfig::default()
    }
}

/// A full stack behind one fault plan: TPC-H loaded into an in-memory
/// store, wrapped `Retrying(Chaos(inner))`, under a query server.
pub struct Deployment {
    pub server: QueryServer,
    pub injector: Arc<FaultInjector>,
    /// The raw inner store, for spill-leak sweeps under the chaos wrapper.
    store: ObjectStoreRef,
}

impl Deployment {
    /// The same data under every plan (the plan carries the seed), so a
    /// faulted deployment and its fault-free twin differ in the plan only.
    pub fn new(plan: &FaultPlan, cfg: EngineConfig) -> Deployment {
        let catalog = Catalog::shared();
        let inner = InMemoryObjectStore::shared();
        load_tpch(
            &catalog,
            inner.as_ref(),
            "tpch",
            &TpchConfig {
                scale: 0.001,
                seed: 11,
                row_group_rows: 512,
                files_per_table: 2,
            },
        )
        .expect("load tpch");
        let injector = Arc::new(FaultInjector::new(plan));
        let store = chaos_stack(
            inner.clone(),
            injector.clone(),
            RetryPolicy::object_store(),
            WallClock::shared(),
        );
        let engine = Arc::new(
            TurboEngine::new(catalog, store, cfg)
                // Private registry per deployment so scenarios don't bleed into
                // each other's /metrics assertions.
                .with_registry(MetricsRegistry::shared())
                .with_chaos(injector.clone()),
        );
        Deployment {
            server: QueryServer::new(engine, PriceSchedule::default()),
            injector,
            store: inner,
        }
    }

    /// Multi-stage CF plans spill exchange partitions under
    /// `pixels-turbo/intermediate/`; winner acceptance and loser reaping must
    /// delete every one of them, under every fault plan. The reapers run
    /// detached, so poll briefly before calling a leftover object a leak.
    pub fn assert_no_spill_leaks(&self, tag: &str, failures: &mut Vec<String>) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let leaked = self
                .store
                .list("pixels-turbo/intermediate/")
                .unwrap_or_default();
            if leaked.is_empty() {
                return;
            }
            if Instant::now() >= deadline {
                failures.push(format!("{tag}: leaked spill objects: {leaked:?}"));
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Saturate the single VM slot for the duration of `f`, so an Immediate
    /// query submitted inside is dispatched to the CF tier.
    pub fn with_saturated_slot<T>(&self, f: impl FnOnce() -> T) -> T {
        let engine = self.server.engine().clone();
        let blocker = std::thread::spawn(move || {
            engine
                .execute_sql(
                    "tpch",
                    "SELECT COUNT(*) FROM lineitem CROSS JOIN nation",
                    false,
                )
                .unwrap()
        });
        while !self.server.engine().is_busy() {
            std::thread::yield_now();
        }
        let r = f();
        blocker.join().unwrap();
        r
    }

    /// Submit one query and wait for it.
    pub fn run_query(&self, sql: &str, qid: &'static str, level: ServiceLevel) -> RunRecord {
        let start = Instant::now();
        let id = self.server.submit(QuerySubmission {
            database: "tpch".into(),
            sql: sql.into(),
            level,
            result_limit: None,
            tenant: None,
            deadline_us: None,
        });
        let info = self.server.wait(id).expect("query record");
        RunRecord {
            query_id: qid,
            finished: info.status == QueryStatus::Finished,
            batch: info.result,
            scan_bytes: info.scan_bytes,
            price: info.price,
            shuffle_dollars: info.provider_shuffle_dollars,
            retries: info.retries,
            latency: start.elapsed(),
        }
    }
}

/// The value of the `/metrics` sample whose line starts with `needle`, 0
/// when absent.
pub fn metric_value(text: &str, needle: &str) -> f64 {
    text.lines()
        .find(|l| l.starts_with(needle))
        .and_then(|l| l.rsplit(' ').next().unwrap().parse().ok())
        .unwrap_or(0.0)
}

#[derive(Clone)]
pub struct RunRecord {
    pub query_id: &'static str,
    pub finished: bool,
    pub batch: Option<Arc<RecordBatch>>,
    pub scan_bytes: u64,
    pub price: f64,
    pub shuffle_dollars: f64,
    pub retries: u64,
    pub latency: Duration,
}

/// Compare one faulted run against its fault-free twin. Returns an error
/// string on the first divergence. Shuffle dollars are compared bit-for-bit:
/// they are priced from the *accepted* stage attempts only, so faults
/// (retried PUT/GETs, crashed and relaunched stages) must never move them.
pub fn check_pair(base: &RunRecord, chaos: &RunRecord) -> Result<(), String> {
    if !base.finished || !chaos.finished {
        return Err(format!(
            "{}: availability broken (baseline finished={}, chaos finished={})",
            base.query_id, base.finished, chaos.finished
        ));
    }
    if base.batch != chaos.batch {
        return Err(format!(
            "{}: results diverged under faults (bit-identity violated)",
            base.query_id
        ));
    }
    if base.scan_bytes != chaos.scan_bytes {
        return Err(format!(
            "{}: billed bytes diverged: fault-free {} vs chaos {}",
            base.query_id, base.scan_bytes, chaos.scan_bytes
        ));
    }
    if base.price != chaos.price {
        return Err(format!(
            "{}: user bill diverged: fault-free ${} vs chaos ${}",
            base.query_id, base.price, chaos.price
        ));
    }
    if base.shuffle_dollars.to_bits() != chaos.shuffle_dollars.to_bits() {
        return Err(format!(
            "{}: provider shuffle dollars diverged: fault-free ${} vs chaos ${}",
            base.query_id, base.shuffle_dollars, chaos.shuffle_dollars
        ));
    }
    Ok(())
}

/// [`check_pair`] over two runs of the same queries: how many pairs agree,
/// every divergence pushed to `failures` under `tag`.
pub fn count_equivalent(
    tag: &str,
    base: &[RunRecord],
    chaos: &[RunRecord],
    failures: &mut Vec<String>,
) -> usize {
    let mut equivalent = 0;
    for (b, c) in base.iter().zip(chaos) {
        match check_pair(b, c) {
            Ok(()) => equivalent += 1,
            Err(e) => failures.push(format!("{tag}: {e}")),
        }
    }
    equivalent
}

/// Per-scenario aggregate for the report/table.
pub struct ScenarioResult {
    pub name: String,
    pub level: &'static str,
    pub queries: usize,
    pub equivalent: usize,
    pub faults_injected: u64,
    pub retries: u64,
    pub availability: f64,
    pub baseline_latency_ms: f64,
    pub chaos_latency_ms: f64,
    pub baseline_bill: f64,
    pub chaos_bill: f64,
    pub shuffle_dollars: f64,
}

impl ScenarioResult {
    /// Roll a scenario's faulted runs and their fault-free twins up.
    pub fn new(
        name: &str,
        level: &'static str,
        equivalent: usize,
        faults_injected: u64,
        base: &[RunRecord],
        chaos: &[RunRecord],
    ) -> ScenarioResult {
        ScenarioResult {
            name: name.into(),
            level,
            queries: chaos.len(),
            equivalent,
            faults_injected,
            retries: chaos.iter().map(|r| r.retries).sum(),
            availability: chaos.iter().filter(|r| r.finished).count() as f64 / chaos.len() as f64,
            baseline_latency_ms: mean_latency_ms(base),
            chaos_latency_ms: mean_latency_ms(chaos),
            baseline_bill: base.iter().map(|r| r.price).sum(),
            chaos_bill: chaos.iter().map(|r| r.price).sum(),
            shuffle_dollars: chaos.iter().map(|r| r.shuffle_dollars).sum(),
        }
    }
}

fn mean_latency_ms(runs: &[RunRecord]) -> f64 {
    if runs.is_empty() {
        return 0.0;
    }
    runs.iter()
        .map(|r| r.latency.as_secs_f64() * 1e3)
        .sum::<f64>()
        / runs.len() as f64
}

/// Write `report` to `results/<file>`, then print every divergence and exit
/// non-zero, or print `all_clear`.
pub fn conclude(file: &str, report: Json, failures: &[String], all_clear: &str) {
    std::fs::create_dir_all("results").expect("mkdir results");
    std::fs::write(format!("results/{file}"), report.to_compact_string()).expect("write report");
    println!("wrote results/{file}");
    if !failures.is_empty() {
        println!("\n{} divergence(s):", failures.len());
        for f in failures {
            println!("FAIL {f}");
        }
        std::process::exit(1);
    }
    println!("\n{all_clear}");
}
