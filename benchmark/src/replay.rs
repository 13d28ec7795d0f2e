//! The single-threaded layer replay: the queries client `t0` measured are run
//! again one at a time, with a bench-owned span around each call into a
//! crate's public functions, so every layer gets a time that later changes
//! inside the program cannot move the ruler of.
//!
//! Per query: a root span `replay.layers` with children `sql.parse` →
//! `planner.bind` → `planner.optimize` → `planner.physical` → `exec.execute`
//! (children: `storage.get` from the store wrapper), then the sibling roots
//! `planner.plan_total`, `planner.split`, `turbo.estimate_work`,
//! `turbo.execute_sql`, `server.inproc`, `server.http` and, the first time a
//! text is seen, `server.shared_exec` / `server.shared_hit`.

use crate::client::{http, query_over_http};
use crate::deploy::Deployment;
use crate::spec::Level;
use crate::stream::{QUESTIONS, QUESTION_DATABASE};
use crate::trace::{recorder, NO_QUERY};
use pixels_exec::{default_parallelism, execute_collect, ExecContext};
use pixels_obs::TraceCtx;
use pixels_planner::{
    create_physical_plan, optimize, plan_query, plan_shuffle_sized, split_for_acceleration, Binder,
    ShuffleSizing,
};
use pixels_server::{QueryStatus, QuerySubmission, ServiceLevel, SharedWork, SharingConfig};
use pixels_sql::ast::Statement;
use pixels_storage::{ChunkCache, FooterCache, ObjectStoreRef, PixelsReader};
use pixels_turbo::QueryWork;
use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

/// Most queries one replay runs.
pub const MAX_REPLAYED: usize = 200;
/// Repetitions of each one-off probe (health check, opens, row-group read).
const PROBE_REPEATS: usize = 30;

/// A query to replay.
pub struct ReplayQuery {
    pub database: String,
    pub sql: String,
}

/// Microsecond samples per span name, plus rows the replayed executions
/// scanned and the seconds they took.
#[derive(Default)]
pub struct Replayed {
    pub us: BTreeMap<&'static str, Vec<f64>>,
    pub queries: usize,
    pub rows_scanned: u64,
    pub execute_s: f64,
}

impl Replayed {
    /// Run `f` inside a recorded span and keep its duration.
    fn timed<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        query: i64,
        ambient: bool,
        f: impl FnOnce() -> T,
    ) -> T {
        let rec = recorder();
        let span = rec.open(name, parent, query);
        if ambient {
            rec.set_ambient(&span);
        }
        let start = Instant::now();
        let out = f();
        let us = start.elapsed().as_secs_f64() * 1e6;
        if ambient {
            rec.clear_ambient();
        }
        rec.finish(span, None);
        self.us.entry(name).or_default().push(us);
        out
    }
}

/// Replay `queries` in order until all are done or `budget` has passed.
/// Recording must be on. Every replayed query must plan and execute: they
/// all finished during the measured window.
pub fn replay_layers(dep: &Deployment, queries: &[ReplayQuery], budget: Duration) -> Replayed {
    let mut out = Replayed::default();
    let rec = recorder();
    let catalog = &dep.data.catalog;
    let store: ObjectStoreRef = dep.store.clone();
    let cfg = *dep.engine.config();
    // Caches of the replay's own, sized like the engine's.
    let footer_cache = FooterCache::shared();
    let chunk_cache =
        (cfg.chunk_cache_bytes > 0).then(|| ChunkCache::shared(cfg.chunk_cache_bytes));
    let sharing = SharedWork::new(SharingConfig {
        enabled: true,
        ..SharingConfig::default()
    });
    let mut seen = HashSet::new();
    let started = Instant::now();

    for (i, q) in queries.iter().enumerate().take(MAX_REPLAYED) {
        if started.elapsed() >= budget {
            break;
        }
        let (db, sql, n) = (q.database.as_str(), q.sql.as_str(), i as i64);

        let root = rec.open("replay.layers", 0, n);
        let stmt = out.timed("sql.parse", root.id(), n, false, || {
            pixels_sql::parse_statement(sql).expect("replayed query parses")
        });
        let Statement::Query(select) = stmt else {
            panic!("replayed statement is not a query: {sql}");
        };
        let logical = out.timed("planner.bind", root.id(), n, false, || {
            Binder::new(catalog, db)
                .bind_select(&select)
                .expect("replayed query binds")
        });
        let optimized = out.timed("planner.optimize", root.id(), n, false, || {
            optimize(logical)
        });
        let plan = out.timed("planner.physical", root.id(), n, false, || {
            create_physical_plan(&optimized).expect("replayed query lowers")
        });
        // The context `TurboEngine::exec_context` builds for a VM execution.
        let parallelism =
            (QueryWork::from_plan(&plan).parallelism as usize).min(default_parallelism());
        let mut ctx = ExecContext::new(store.clone())
            .with_parallelism(parallelism)
            .with_footer_cache(footer_cache.clone())
            .with_prefetch_depth(cfg.prefetch_depth);
        if let Some(cache) = &chunk_cache {
            ctx = ctx.with_chunk_cache(cache.clone());
        }
        let exec_start = Instant::now();
        out.timed("exec.execute", root.id(), n, true, || {
            std::hint::black_box(execute_collect(&plan, &ctx).expect("replayed query executes"))
        });
        out.execute_s += exec_start.elapsed().as_secs_f64();
        out.rows_scanned += ctx.metrics.snapshot().rows_scanned;
        rec.finish(root, None);

        out.timed("planner.plan_total", 0, n, false, || {
            std::hint::black_box(plan_query(catalog, db, sql).expect("replayed query plans"))
        });
        out.timed("planner.split", 0, n, false, || {
            let mv = "pixels-turbo/intermediate/bench-replay.pxl";
            std::hint::black_box((
                split_for_acceleration(&plan, mv),
                plan_shuffle_sized(&plan, mv, &ShuffleSizing::auto()),
            ))
        });
        out.timed("turbo.estimate_work", 0, n, false, || {
            std::hint::black_box(dep.engine.estimate_work(db, sql).expect("estimates"))
        });
        out.timed("turbo.execute_sql", 0, n, true, || {
            std::hint::black_box(dep.engine.execute_sql(db, sql, true).expect("executes"))
        });
        out.timed("server.inproc", 0, n, true, || {
            let id = dep.server.submit(QuerySubmission {
                database: db.to_string(),
                sql: sql.to_string(),
                level: ServiceLevel::Immediate,
                result_limit: None,
                tenant: Some("replay".into()),
                deadline_us: None,
            });
            loop {
                let status = dep
                    .server
                    .status(id)
                    .expect("submitted query exists")
                    .status;
                if !matches!(status, QueryStatus::Pending | QueryStatus::Running) {
                    break status;
                }
                std::hint::spin_loop();
            }
        });
        let http_span = rec.open("server.http", 0, n);
        rec.set_ambient(&http_span);
        let x = query_over_http(
            dep.addr,
            "replay",
            db,
            sql,
            Level::Immediate,
            http_span.id(),
            &mut Vec::new(),
        );
        rec.clear_ambient();
        rec.finish(http_span, None);
        out.us
            .entry("server.http")
            .or_default()
            .push(x.latency_ms * 1e3);
        if seen.insert((db, sql)) {
            for name in ["server.shared_exec", "server.shared_hit"] {
                out.timed(name, 0, n, true, || {
                    let (result, _) =
                        sharing.execute(&dep.engine, db, sql, true, TraceCtx::disabled(), None);
                    std::hint::black_box(result.expect("shared execution succeeds"))
                });
            }
        }
        out.queries += 1;
    }
    out
}

/// One-off probes of single public entry points, `PROBE_REPEATS` times each,
/// on every workload (so each reads as a time everywhere).
pub fn probes(dep: &Deployment) -> Replayed {
    let mut out = Replayed::default();
    for _ in 0..PROBE_REPEATS {
        out.timed("server.http_health", 0, NO_QUERY, false, || {
            http(dep.addr, "GET", "/health", "").expect("GET /health")
        });
    }
    let lineitem = dep
        .data
        .catalog
        .get_table("tpch", "lineitem")
        .expect("lineitem is loaded")
        .paths[0]
        .clone();
    let store = dep.store.as_ref();
    let cache = FooterCache::new();
    PixelsReader::open_with_cache(store, &lineitem, &cache).expect("open lineitem");
    for _ in 0..PROBE_REPEATS {
        out.timed("storage.open_cold", 0, NO_QUERY, true, || {
            PixelsReader::open(store, &lineitem)
                .expect("open lineitem")
                .num_rows()
        });
        let reader = out.timed("storage.open_warm", 0, NO_QUERY, true, || {
            PixelsReader::open_with_cache(store, &lineitem, &cache).expect("open lineitem")
        });
        out.timed("storage.read_row_group", 0, NO_QUERY, true, || {
            std::hint::black_box(reader.read_row_group(0, None).expect("read row group 0"))
        });
    }
    // The first translation builds the translator for the database.
    let request = |question: &str| {
        pixels_common::Json::object([
            ("question", pixels_common::Json::string(question)),
            ("database", pixels_common::Json::string(QUESTION_DATABASE)),
        ])
        .to_compact_string()
    };
    dep.nl.handle_json(&request(QUESTIONS[0]));
    for question in QUESTIONS.iter().cycle().take(PROBE_REPEATS) {
        let request = request(question);
        out.timed("nl2sql.translate", 0, NO_QUERY, false, || {
            std::hint::black_box(dep.nl.handle_json(&request))
        });
        out.timed("nl2sql.translate_http", 0, NO_QUERY, false, || {
            http(dep.addr, "POST", "/translate", &request).expect("POST /translate")
        });
        out.timed("obs.scrape_http", 0, NO_QUERY, false, || {
            http(dep.addr, "GET", "/metrics", "").expect("GET /metrics")
        });
    }
    out
}
