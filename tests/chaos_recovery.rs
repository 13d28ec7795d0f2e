//! Recovery under injected faults, end-to-end through the query server:
//! transient storage errors are retried invisibly, a failing CF fleet
//! degrades to the VM path without losing the query, and a hard outage
//! still fails cleanly (and bills nothing) once the retry budget is spent.

use pixels_bench::on_cf;
use pixelsdb::catalog::Catalog;
use pixelsdb::chaos::{FaultInjector, FaultPlan, FaultSite, RetryPolicy, SiteSpec};
use pixelsdb::server::{PriceSchedule, QueryServer, QueryStatus, QuerySubmission, ServiceLevel};
use pixelsdb::storage::chaos_stack;
use pixelsdb::storage::InMemoryObjectStore;
use pixelsdb::turbo::{EngineConfig, QueryEvent, TurboEngine};
use pixelsdb::workload::{load_tpch, TpchConfig};
use std::sync::Arc;

fn deploy(plan: &FaultPlan, cfg: EngineConfig) -> QueryServer {
    let catalog = Catalog::shared();
    let inner = InMemoryObjectStore::shared();
    load_tpch(
        &catalog,
        inner.as_ref(),
        "tpch",
        &TpchConfig {
            scale: 0.0005,
            seed: 9,
            row_group_rows: 256,
            files_per_table: 1,
        },
    )
    .unwrap();
    let injector = Arc::new(FaultInjector::new(plan));
    let store = chaos_stack(
        inner,
        injector.clone(),
        RetryPolicy::object_store(),
        pixelsdb::obs::WallClock::shared(),
    );
    let engine = Arc::new(
        TurboEngine::new(catalog, store, cfg)
            .with_registry(pixelsdb::obs::MetricsRegistry::shared())
            .with_chaos(injector),
    );
    QueryServer::new(engine, PriceSchedule::default())
}

fn run(server: &QueryServer, sql: &str, level: ServiceLevel) -> pixelsdb::server::QueryInfo {
    let id = server.submit(QuerySubmission {
        database: "tpch".into(),
        sql: sql.into(),
        level,
        result_limit: None,
        tenant: None,
        deadline_us: None,
    });
    server.wait(id).unwrap()
}

const SQL: &str = "SELECT o_orderstatus, COUNT(*) AS n FROM orders GROUP BY o_orderstatus";

#[test]
fn transient_get_errors_are_invisible_to_results_and_billing() {
    // Chunk caching off: warm repeat runs would skip the store entirely and
    // stop drawing from the fault stream. The cache's own behaviour under
    // faults is chaos_soak's prefetch-vs-sync scenario.
    let cfg = EngineConfig {
        chunk_cache_bytes: 0,
        ..EngineConfig::default()
    };
    let clean = deploy(&FaultPlan::none(1), cfg);
    let base = run(&clean, SQL, ServiceLevel::Immediate);
    // A chaotic run's `StorageRetries` events, once it has matched the
    // fault-free run.
    let retry_events_of = |info: &pixelsdb::server::QueryInfo| {
        assert_eq!(info.status, QueryStatus::Finished, "{:?}", info.error);
        assert_eq!(info.result, base.result, "results must be bit-identical");
        assert_eq!(info.scan_bytes, base.scan_bytes, "retries must not re-bill");
        assert_eq!(info.price, base.price);
        info.events
            .iter()
            .filter(|e| matches!(e, QueryEvent::StorageRetries { .. }))
            .count()
    };

    // A request's verdict is keyed by the plan seed and the request, so one
    // plan redraws the same verdicts on every run: three plan seeds draw
    // three sets, enough that at least one GET fails. Every run must still
    // match the fault-free twin exactly.
    let mut retries = 0;
    let mut retry_events = 0;
    for seed in 1..=3 {
        let chaotic = deploy(&FaultPlan::get_errors(seed, 0.3), cfg);
        let info = run(&chaotic, SQL, ServiceLevel::Immediate);
        retry_events += retry_events_of(&info);
        retries += info.retries;
    }
    assert!(retries > 0, "30% GET errors must have forced retries");
    assert!(retry_events > 0, "retries must surface as QueryInfo events");

    // Whatever the draws: every GET fails until the site has failed as many
    // times as one request may retry, so no request runs out of retries and
    // the query retries exactly that often.
    let budget = RetryPolicy::object_store().max_retries as u64;
    let capped = deploy(
        &FaultPlan::none(1).with(FaultSite::StorageGet, SiteSpec::errors(1.0).capped(budget)),
        cfg,
    );
    let info = run(&capped, SQL, ServiceLevel::Immediate);
    assert!(
        retry_events_of(&info) > 0,
        "retries must surface as QueryInfo events"
    );
    assert_eq!(info.retries, budget);
}

#[test]
fn failing_cf_fleet_degrades_to_vm_through_the_server() {
    // Every CF attempt crashes. With the single VM slot held, an Immediate
    // query is dispatched to CF, loses both fleets, and must still complete
    // by degrading back to the VM path once the slot is given back.
    let server = deploy(
        &FaultPlan::cf_crashes(7, 1.0),
        EngineConfig {
            vm_slots: 1,
            ..EngineConfig::default()
        },
    );
    let baseline = run(&server, SQL, ServiceLevel::Relaxed);

    let info = on_cf(server.engine(), || {
        run(&server, SQL, ServiceLevel::Immediate)
    });

    assert_eq!(info.status, QueryStatus::Finished, "{:?}", info.error);
    assert!(!info.used_cf, "query must have fallen back to the VM tier");
    assert_eq!(
        info.result, baseline.result,
        "degradation preserves results"
    );
    assert!(
        info.events
            .iter()
            .any(|e| matches!(e, QueryEvent::CfDegradedToVm { .. })),
        "degradation must surface in QueryInfo events: {:?}",
        info.events
    );
}

#[test]
fn hard_outage_fails_cleanly_and_bills_nothing() {
    // 100% GET errors, uncapped: the retry budget is exhausted and the
    // query fails with the injected error — no hang, no partial bill.
    let server = deploy(
        &FaultPlan::none(5).with(FaultSite::StorageGet, SiteSpec::errors(1.0)),
        EngineConfig::default(),
    );
    let info = run(&server, SQL, ServiceLevel::Immediate);
    assert_eq!(info.status, QueryStatus::Failed);
    assert!(
        info.error.as_deref().unwrap_or("").contains("injected"),
        "error should surface the injected fault: {:?}",
        info.error
    );
    assert_eq!(info.scan_bytes, 0, "failed reads must never be billed");
    assert_eq!(info.price, 0.0);

    // The exposition still validates and records what happened.
    let text = server.metrics_text();
    pixelsdb::obs::validate_exposition(&text).expect("exposition stays valid");
    let value_of = |needle: &str| -> f64 {
        text.lines()
            .find(|l| l.starts_with(needle))
            .and_then(|l| l.rsplit(' ').next().unwrap().parse().ok())
            .unwrap_or(0.0)
    };
    assert!(value_of("pixels_storage_gets_failed_total") > 0.0);
    assert!(value_of("pixels_retries_total{site=\"storage_get\"}") > 0.0);
}
