//! Builds what a workload runs against: the generated data, the store
//! wrapper, the engine, the query server and its HTTP facade.

use crate::spec::WorkloadSpec;
use crate::stream::Fnv1a;
use crate::trace::recorder;
use bytes::Bytes;
use pixels_catalog::{Catalog, CatalogRef};
use pixels_common::{Json, Result};
use pixels_nl2sql::CodesService;
use pixels_server::{HttpServer, PriceSchedule, QueryServer, TranslateBackend};
use pixels_storage::{
    InMemoryObjectStore, LatencyModel, ObjectStore, ObjectStoreRef, StoreMetricsSnapshot,
};
use pixels_turbo::TurboEngine;
use pixels_workload::{load_tpch, load_weblog, TpchConfig, WeblogConfig};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TPCH_SEED: u64 = 42;
const WEBLOG_SEED: u64 = 7;
const ROW_GROUP_ROWS: usize = 4096;

/// What identifies the generated data: row counts and stored bytes. A run
/// refuses to compare against goldens blessed on other data.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// `database.table` → rows.
    pub tables: BTreeMap<String, u64>,
    pub stored_bytes: u64,
}

impl Dataset {
    pub fn to_json(&self) -> Json {
        Json::object([
            (
                "tables",
                Json::object(
                    self.tables
                        .iter()
                        .map(|(t, n)| (t.clone(), Json::number(*n as f64))),
                ),
            ),
            ("stored_bytes", Json::number(self.stored_bytes as f64)),
        ])
    }

    pub fn from_json(json: &Json) -> std::result::Result<Dataset, String> {
        let Some(Json::Object(tables)) = json.get("tables") else {
            return Err("dataset has no `tables`".into());
        };
        Ok(Dataset {
            tables: tables
                .iter()
                .map(|(t, n)| (t.clone(), n.as_i64().unwrap_or(-1) as u64))
                .collect(),
            stored_bytes: json
                .get("stored_bytes")
                .and_then(Json::as_i64)
                .ok_or("dataset has no `stored_bytes`")? as u64,
        })
    }

    /// The fingerprint as one number, for the metric table.
    pub fn id(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.eat(self.to_json().to_compact_string().as_bytes());
        h.0
    }
}

pub struct Data {
    pub catalog: CatalogRef,
    pub mem: Arc<InMemoryObjectStore>,
    pub dataset: Dataset,
    /// Seconds spent generating, encoding and writing.
    pub load_s: f64,
}

/// Generate the workload's data into a fresh in-memory store.
pub fn load_data(spec: &WorkloadSpec) -> Data {
    let start = Instant::now();
    let catalog = Catalog::shared();
    let mem = Arc::new(InMemoryObjectStore::new());
    load_tpch(
        &catalog,
        mem.as_ref(),
        "tpch",
        &TpchConfig {
            scale: spec.tpch_scale,
            seed: TPCH_SEED,
            row_group_rows: ROW_GROUP_ROWS,
            files_per_table: 1,
        },
    )
    .expect("generate TPC-H data");
    load_weblog(
        &catalog,
        mem.as_ref(),
        "logs",
        &WeblogConfig {
            rows: spec.log_rows,
            seed: WEBLOG_SEED,
            row_group_rows: ROW_GROUP_ROWS,
        },
    )
    .expect("generate web-log data");
    let load_s = start.elapsed().as_secs_f64();
    let mut tables = BTreeMap::new();
    for db in ["tpch", "logs"] {
        for t in catalog.list_tables(db).expect("list tables") {
            tables.insert(t.qualified_name(), t.stats.row_count);
        }
    }
    let dataset = Dataset {
        tables,
        stored_bytes: mem.total_bytes(),
    };
    Data {
        catalog,
        mem,
        dataset,
        load_s,
    }
}

/// The store the engine is given: the in-memory store behind an optional
/// per-request sleep (the `remote_cold` deployment) and, while the recorder
/// is on, `storage.get` / `storage.put` spans and busy-time counters. With
/// recording off a request costs one relaxed atomic load beyond the inner
/// call.
pub struct BenchStore {
    inner: Arc<InMemoryObjectStore>,
    latency: Option<LatencyModel>,
    /// Nanoseconds spent inside get/get_range while recording.
    get_busy_ns: AtomicU64,
}

impl BenchStore {
    pub fn new(inner: Arc<InMemoryObjectStore>, latency: Option<LatencyModel>) -> BenchStore {
        BenchStore {
            inner,
            latency,
            get_busy_ns: AtomicU64::new(0),
        }
    }

    pub fn get_busy_s(&self) -> f64 {
        self.get_busy_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    fn delay(&self, bytes: usize) {
        if let Some(model) = &self.latency {
            std::thread::sleep(Duration::from_micros(
                model.request_latency_us(bytes as u64),
            ));
        }
    }

    fn get_with(&self, fetch: impl FnOnce() -> Result<Bytes>) -> Result<Bytes> {
        let rec = recorder();
        if !rec.enabled() {
            let data = fetch()?;
            self.delay(data.len());
            return Ok(data);
        }
        let span = rec.open_ambient("storage.get");
        let start = Instant::now();
        let result = fetch().inspect(|data| self.delay(data.len()));
        self.get_busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        rec.finish(span, None);
        result
    }
}

impl ObjectStore for BenchStore {
    fn put(&self, path: &str, data: Bytes) -> Result<()> {
        let span = recorder().open_ambient("storage.put");
        let len = data.len();
        let result = self.inner.put(path, data);
        self.delay(len);
        recorder().finish(span, None);
        result
    }

    fn get(&self, path: &str) -> Result<Bytes> {
        self.get_with(|| self.inner.get(path))
    }

    fn get_range(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        self.get_with(|| self.inner.get_range(path, offset, len))
    }

    fn size(&self, path: &str) -> Result<u64> {
        self.inner.size(path)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.inner.list(prefix)
    }

    fn delete(&self, path: &str) -> Result<()> {
        self.inner.delete(path)
    }

    fn generation(&self, path: &str) -> Result<u64> {
        self.inner.generation(path)
    }

    fn metrics(&self) -> StoreMetricsSnapshot {
        self.inner.metrics()
    }
}

/// Adapter plugging the CodeS-style service into the HTTP facade.
struct Translator(Arc<CodesService>);

impl TranslateBackend for Translator {
    fn translate_json(&self, request: &str) -> String {
        self.0.handle_json(request)
    }
}

pub struct Deployment {
    pub data: Data,
    pub store: Arc<BenchStore>,
    pub engine: Arc<TurboEngine>,
    pub server: Arc<QueryServer>,
    pub nl: Arc<CodesService>,
    http: Option<HttpServer>,
    pub addr: std::net::SocketAddr,
}

impl Deployment {
    /// Load the data and start serving on an ephemeral port.
    pub fn start(spec: &WorkloadSpec) -> Deployment {
        let data = load_data(spec);
        let store = Arc::new(BenchStore::new(data.mem.clone(), spec.store_latency));
        let store_ref: ObjectStoreRef = store.clone();
        let engine = Arc::new(TurboEngine::new(
            data.catalog.clone(),
            store_ref.clone(),
            (spec.engine)(),
        ));
        let mut server = QueryServer::new(engine.clone(), PriceSchedule::default());
        if let Some(policy) = spec.scheduler {
            server = server.with_scheduler(policy());
        }
        let server = Arc::new(server);
        let nl = Arc::new(CodesService::new(data.catalog.clone(), store_ref));
        let http = HttpServer::start(server.clone(), Some(Arc::new(Translator(nl.clone()))), 0)
            .expect("bind 127.0.0.1:0");
        let addr = http.addr();
        Deployment {
            data,
            store,
            engine,
            server,
            nl,
            http: Some(http),
            addr,
        }
    }

    /// Stop the HTTP facade and wait for every query thread to end.
    pub fn shutdown(mut self) {
        if let Some(http) = self.http.take() {
            http.shutdown();
        }
        self.server.wait_all();
    }
}
