//! Failure injection: storage faults must surface as clean query failures —
//! never panics, hangs, or wrong results — all the way up through the query
//! server.

use bytes::Bytes;
use pixels_bench::on_cf;
use pixelsdb::catalog::Catalog;
use pixelsdb::common::{Error, Result};
use pixelsdb::server::{PriceSchedule, QueryServer, QueryStatus, QuerySubmission, ServiceLevel};
use pixelsdb::storage::{InMemoryObjectStore, ObjectStore, StoreMetricsSnapshot};
use pixelsdb::turbo::{EngineConfig, TurboEngine};
use pixelsdb::workload::{load_tpch, TpchConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An object store that can be switched into a failing mode, and can corrupt
/// a fraction of reads.
struct FaultyStore {
    inner: InMemoryObjectStore,
    fail_reads: AtomicBool,
    /// When set, only reads of paths containing this substring fail — a
    /// scoped outage that hits one table while concurrent queries on other
    /// tables keep running.
    fail_path_substr: Mutex<Option<String>>,
    /// When set, reads of paths containing this substring *panic* — a bug in
    /// a storage driver, as opposed to an error it returns.
    panic_path_substr: Mutex<Option<String>>,
    corrupt_reads: AtomicBool,
    reads: AtomicU64,
}

impl FaultyStore {
    fn new() -> Self {
        FaultyStore {
            inner: InMemoryObjectStore::new(),
            fail_reads: AtomicBool::new(false),
            fail_path_substr: Mutex::new(None),
            panic_path_substr: Mutex::new(None),
            corrupt_reads: AtomicBool::new(false),
            reads: AtomicU64::new(0),
        }
    }

    fn check(&self, path: &str) -> Result<()> {
        // Cloned out so the lock is released (not poisoned) by the panic.
        let panic_on = self.panic_path_substr.lock().unwrap().clone();
        if panic_on.is_some_and(|substr| path.contains(&substr)) {
            panic!("injected store panic reading {path}");
        }
        if self.fail_reads.load(Ordering::Relaxed) {
            return Err(Error::Io("injected storage outage".into()));
        }
        if let Some(substr) = self.fail_path_substr.lock().unwrap().as_deref() {
            if path.contains(substr) {
                return Err(Error::Io("injected storage outage".into()));
            }
        }
        Ok(())
    }

    fn mangle(&self, data: Bytes) -> Bytes {
        if self.corrupt_reads.load(Ordering::Relaxed) && !data.is_empty() {
            let mut v = data.to_vec();
            let n = self.reads.fetch_add(1, Ordering::Relaxed) as usize;
            let idx = n % v.len();
            v[idx] ^= 0xA5;
            Bytes::from(v)
        } else {
            data
        }
    }
}

impl ObjectStore for FaultyStore {
    fn put(&self, path: &str, data: Bytes) -> Result<()> {
        self.inner.put(path, data)
    }
    fn get(&self, path: &str) -> Result<Bytes> {
        self.check(path)?;
        Ok(self.mangle(self.inner.get(path)?))
    }
    fn get_range(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        self.check(path)?;
        Ok(self.mangle(self.inner.get_range(path, offset, len)?))
    }
    fn size(&self, path: &str) -> Result<u64> {
        self.check(path)?;
        self.inner.size(path)
    }
    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.inner.list(prefix)
    }
    fn delete(&self, path: &str) -> Result<()> {
        self.inner.delete(path)
    }
    fn metrics(&self) -> StoreMetricsSnapshot {
        self.inner.metrics()
    }
}

/// An engine over `store` with TPC-H loaded.
fn engine_on(store: &Arc<FaultyStore>, cfg: EngineConfig) -> Arc<TurboEngine> {
    let catalog = Catalog::shared();
    load_tpch(
        &catalog,
        store.as_ref(),
        "tpch",
        &TpchConfig {
            scale: 0.0005,
            seed: 9,
            row_group_rows: 256,
            files_per_table: 1,
        },
    )
    .unwrap();
    let engine = TurboEngine::new(catalog, store.clone() as Arc<dyn ObjectStore>, cfg);
    Arc::new(engine.with_registry(pixelsdb::obs::MetricsRegistry::shared()))
}

fn deploy(store: Arc<FaultyStore>) -> (QueryServer, Arc<FaultyStore>) {
    let engine = engine_on(&store, EngineConfig::default());
    (QueryServer::new(engine, PriceSchedule::default()), store)
}

#[test]
fn storage_outage_fails_queries_cleanly() {
    let (server, store) = deploy(Arc::new(FaultyStore::new()));
    // Healthy first.
    let id = server.submit(QuerySubmission {
        database: "tpch".into(),
        sql: "SELECT COUNT(*) FROM orders".into(),
        level: ServiceLevel::Immediate,
        result_limit: None,
        tenant: None,
        deadline_us: None,
    });
    assert_eq!(server.wait(id).unwrap().status, QueryStatus::Finished);

    // Outage: the same query must fail with an I/O error, not hang.
    store.fail_reads.store(true, Ordering::Relaxed);
    let id = server.submit(QuerySubmission {
        database: "tpch".into(),
        sql: "SELECT COUNT(*) FROM orders".into(),
        level: ServiceLevel::Immediate,
        result_limit: None,
        tenant: None,
        deadline_us: None,
    });
    let info = server.wait(id).unwrap();
    assert_eq!(info.status, QueryStatus::Failed);
    assert!(info.error.unwrap().contains("injected storage outage"));

    // Recovery: new queries succeed again.
    store.fail_reads.store(false, Ordering::Relaxed);
    let id = server.submit(QuerySubmission {
        database: "tpch".into(),
        sql: "SELECT COUNT(*) FROM orders".into(),
        level: ServiceLevel::BestEffort,
        result_limit: None,
        tenant: None,
        deadline_us: None,
    });
    assert_eq!(server.wait(id).unwrap().status, QueryStatus::Finished);
}

#[test]
fn corrupted_reads_are_detected_not_garbage() {
    // Bit-flip every read: the format's magic/footer/encoding validation
    // must catch it and fail the query (decoding garbage silently would be
    // far worse than an error).
    let (server, store) = deploy(Arc::new(FaultyStore::new()));
    store.corrupt_reads.store(true, Ordering::Relaxed);
    let mut failures = 0;
    for _ in 0..4 {
        let id = server.submit(QuerySubmission {
            database: "tpch".into(),
            sql: "SELECT SUM(o_totalprice) FROM orders".into(),
            level: ServiceLevel::Immediate,
            result_limit: None,
            tenant: None,
            deadline_us: None,
        });
        let info = server.wait(id).unwrap();
        if info.status == QueryStatus::Failed {
            failures += 1;
        }
    }
    assert!(
        failures >= 3,
        "corrupted reads must be detected, only {failures}/4 failed"
    );
}

/// A 1-slot engine: with its slot held, a CF-enabled query takes the CF
/// path.
fn one_slot_engine(store: &Arc<FaultyStore>, exchange_partitions: usize) -> Arc<TurboEngine> {
    engine_on(
        store,
        EngineConfig {
            vm_slots: 1,
            exchange_partitions,
            ..EngineConfig::default()
        },
    )
}

const ORDERS_BY_STATUS: &str = "SELECT o_orderstatus, COUNT(*) FROM orders GROUP BY o_orderstatus";

#[test]
fn cf_acceleration_failure_surfaces() {
    // Hold the single slot, force CF acceleration, and kill storage mid way:
    // the accelerated query must fail cleanly too.
    let store = Arc::new(FaultyStore::new());
    let engine = one_slot_engine(&store, 1);
    let r = on_cf(&engine, || {
        *store.fail_path_substr.lock().unwrap() = Some("tpch/orders".into());
        let r = engine.execute_sql("tpch", ORDERS_BY_STATUS, true);
        *store.fail_path_substr.lock().unwrap() = None;
        r
    });
    // Both CF attempts fail on the outage and so does the degraded VM run.
    assert!(r.is_err(), "the storage failure must surface through CF");
}

#[test]
fn top_plan_failure_leaves_no_intermediates() {
    // The fleets succeed but the store fails the top plan's MV read: the
    // query fails, and its MV — plus, for a shuffle, the accepted spill
    // prefix — must still be deleted.
    for exchange_partitions in [1, 4] {
        let store = Arc::new(FaultyStore::new());
        let engine = one_slot_engine(&store, exchange_partitions);
        *store.fail_path_substr.lock().unwrap() = Some("intermediate/mv-".into());
        let r = on_cf(&engine, || {
            engine.execute_sql("tpch", ORDERS_BY_STATUS, true)
        });
        assert!(r.is_err(), "the failed MV read must surface");
        // Stage reapers delete from detached threads; give them time.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let leaked = store.list("pixels-turbo/intermediate/").unwrap();
            if leaked.is_empty() {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "{exchange_partitions} partition(s): leaked {leaked:?}"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }
}

#[test]
fn panicking_execution_frees_its_vm_slot() {
    let store = Arc::new(FaultyStore::new());
    let engine = one_slot_engine(&store, 1);
    *store.panic_path_substr.lock().unwrap() = Some("tpch/orders".into());
    let doomed = engine.clone();
    let died = std::thread::spawn(move || doomed.execute_sql("tpch", ORDERS_BY_STATUS, false));
    assert!(
        died.join().is_err(),
        "the store panic kills the query thread"
    );
    assert!(!engine.is_busy(), "the dead query must not keep its slot");
    let out = engine
        .execute_sql("tpch", "SELECT COUNT(*) FROM customer", false)
        .unwrap();
    assert_eq!(out.batch.num_rows(), 1);
}
