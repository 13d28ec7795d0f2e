//! Larger-scale smoke tests: everything the small tests verify must also
//! hold at 10× data scale and thousand-query scheduling traces. The heavy
//! test is `#[ignore]`d by default; run with `cargo test -- --ignored`.

use pixelsdb::catalog::Catalog;
use pixelsdb::exec::run_query;
use pixelsdb::server::{AdmissionMode, ServerConfig, ServerSim, ServiceLevel, Submission};
use pixelsdb::sim::SimDuration;
use pixelsdb::storage::InMemoryObjectStore;
use pixelsdb::turbo::{CfConfig, ResourcePricing, VmConfig};
use pixelsdb::workload::{load_tpch, poisson, TpchConfig, WorkloadTrace};

#[test]
fn thousand_query_scheduling_trace() {
    let arrivals = poisson(0.6, SimDuration::from_secs(1800), 77);
    let trace = WorkloadTrace::from_arrivals(arrivals, [0.6, 0.3, 0.1], 78);
    let n = trace.len();
    assert!(n > 900, "expected ~1080 arrivals, got {n}");
    let subs: Vec<Submission> = trace
        .entries
        .into_iter()
        .enumerate()
        .map(|(i, e)| Submission {
            at: e.at,
            class: e.class,
            level: ServiceLevel::ALL[i % 3],
        })
        .collect();
    let report = ServerSim::new(
        VmConfig::default(),
        CfConfig::default(),
        ResourcePricing::default(),
        ServerConfig::default(),
    )
    .run(subs, SimDuration::from_secs(6 * 3600));
    assert_eq!(report.unfinished, 0, "all {n} queries complete");
    assert_eq!(report.records.len(), n);
    // Level invariants hold at scale.
    for r in &report.records {
        if r.mode == AdmissionMode::Level(ServiceLevel::Immediate) {
            assert_eq!(r.pending(), SimDuration::ZERO);
        }
        if r.mode != AdmissionMode::Level(ServiceLevel::Immediate) {
            assert!(matches!(r.placement, pixelsdb::turbo::Placement::Vm));
        }
    }
    assert!(report.total_resource_cost.total() > 0.0);
}

#[test]
#[ignore = "heavy: ~1M lineitem rows; run with --ignored"]
fn tpch_scale_001_correctness() {
    let catalog = Catalog::shared();
    let store = InMemoryObjectStore::shared();
    let cfg = TpchConfig {
        scale: 0.01,
        seed: 42,
        row_group_rows: 16 * 1024,
        files_per_table: 2,
    };
    load_tpch(&catalog, store.as_ref(), "tpch", &cfg).unwrap();
    let li = catalog.get_table("tpch", "lineitem").unwrap();
    assert!(li.stats.row_count > 50_000);

    // Aggregate consistency across a large table: group counts sum to total.
    let per_flag = run_query(
        &catalog,
        store.clone(),
        "tpch",
        "SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag",
    )
    .unwrap();
    let total: i64 = per_flag
        .to_rows()
        .iter()
        .map(|r| r[1].as_i64().unwrap())
        .sum();
    assert_eq!(total as u64, li.stats.row_count);

    // Join cardinality: every lineitem joins exactly one order.
    let joined = run_query(
        &catalog,
        store,
        "tpch",
        "SELECT COUNT(*) FROM lineitem JOIN orders ON l_orderkey = o_orderkey",
    )
    .unwrap();
    assert_eq!(
        joined.row(0)[0].as_i64().unwrap() as u64,
        li.stats.row_count
    );
}
