//! Journal replay checker — the CI gate for the structured query journal.
//!
//! Runs a traced TPC-H batch through the in-process query server (every
//! service level, two tenants, one deliberately failing query), then treats
//! the journal as the system of record:
//!
//! 1. parses the JSON-lines journal back into entries,
//! 2. replays them into aggregates (queries per level/status, SLO buckets,
//!    ledger entries, revenue folded in append order),
//! 3. diffs the replayed aggregates against the live `/metrics` exposition —
//!    both directions, revenue and the four provider-spend components
//!    (`vm`, `cf`, `cf_waste`, `cf_shuffle`) bit-for-bit,
//! 4. cross-checks the ledger against the same journal: entry order, and
//!    revenue bit-for-bit,
//! 5. writes `target/slo_soak.json` (uploaded as a CI artifact). Which of
//!    the concurrent queries opens a table first, and so pays for its
//!    footer, differs from run to run, so the bills in it do too.
//!
//! Exits non-zero on any diff: a journal that cannot reproduce the registry
//! is a broken system of record.

use pixels_bench::{demo_data, Gate};
use pixels_common::Json;
use pixels_obs::journal::replay;
use pixels_obs::QueryJournal;
use pixels_server::{PriceSchedule, QueryServer, QuerySubmission, ServiceLevel};
use pixels_turbo::{EngineConfig, TurboEngine};
use std::sync::Arc;

const BATCH: &[&str] = &[
    "SELECT COUNT(*) AS n FROM orders",
    "SELECT o_orderstatus, COUNT(*) AS n FROM orders GROUP BY o_orderstatus ORDER BY n DESC",
    "SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity > 25",
    "SELECT l_returnflag, SUM(l_quantity) AS q FROM lineitem GROUP BY l_returnflag",
    "SELECT COUNT(*) AS n FROM customer",
    "SELECT n_name, COUNT(*) AS c FROM nation GROUP BY n_name ORDER BY c DESC",
    "SELECT COUNT(*) AS n FROM part WHERE p_size > 20",
    "SELECT COUNT(*) AS n FROM supplier",
    "SELECT COUNT(*) AS n FROM region",
];

fn main() {
    let mut gate = Gate::default();

    let (catalog, store) = demo_data(0.002);
    let engine = Arc::new(TurboEngine::new(catalog, store, EngineConfig::default()));
    let server = Arc::new(QueryServer::new(engine, PriceSchedule::default()));

    // A traced batch across every service level and two tenants, plus one
    // failing query so the journal carries a failed lifecycle too.
    let tenants = ["acme", "globex"];
    for (i, sql) in BATCH.iter().enumerate() {
        server.submit(QuerySubmission {
            database: "tpch".into(),
            sql: sql.to_string(),
            level: ServiceLevel::ALL[i % ServiceLevel::ALL.len()],
            result_limit: None,
            tenant: Some(tenants[i % tenants.len()].into()),
            deadline_us: None,
        });
    }
    server.submit(QuerySubmission {
        database: "tpch".into(),
        sql: "SELECT no_such_column FROM orders".into(),
        level: ServiceLevel::Relaxed,
        result_limit: None,
        tenant: Some("acme".into()),
        deadline_us: None,
    });
    server.wait_all();

    // 1. Parse the journal back.
    let jsonl = server.journal_jsonl();
    let entries = match QueryJournal::parse_jsonl(&jsonl) {
        Ok(e) => e,
        Err(e) => {
            gate.check("journal parse", false, &e.to_string());
            return gate.finish("");
        }
    };
    gate.check(
        "journal covers the batch",
        entries.len() == BATCH.len() + 1,
        &format!("{} entries for {} queries", entries.len(), BATCH.len() + 1),
    );
    let failed = entries.iter().filter(|e| e.status == "failed").count();
    gate.check(
        "failed lifecycle journaled",
        failed == 1,
        &format!("{failed}"),
    );

    // 2 + 3. Replay and diff against the live exposition.
    let aggregates = replay(&entries);
    let metrics = server.metrics_text();
    let required = pixels_bench::catalog_families();
    let required: Vec<&str> = required.iter().map(String::as_str).collect();
    let families = pixels_obs::require_families(&metrics, &required);
    gate.check(
        "required families",
        families.is_ok(),
        &families.err().unwrap_or_default(),
    );
    let diffs = aggregates.diff_against_exposition(&metrics);
    for d in &diffs {
        println!("     diff: {d}");
    }
    gate.check(
        "journal reproduces the registry",
        diffs.is_empty(),
        "see diffs",
    );

    // 4. The ledger holds exactly the finished queries, and the revenue the
    //    journal folds matches the ledger summary bit-for-bit: the summary
    //    accumulates in append order, so fold the replayed per-level sums in
    //    the same sorted-level order the ledger's own export uses.
    let ledger = server.ledger();
    let replayed_entries: u64 = aggregates.ledger_entries.values().sum();
    gate.check(
        "ledger entry count",
        ledger.len() as u64 == replayed_entries,
        &format!("{} vs {}", ledger.len(), replayed_entries),
    );
    let summary = ledger.summary();
    let by_level = ledger.by_level();
    let mut replayed_revenue_ok = true;
    for (level, revenue) in &aggregates.revenue_dollars {
        let ledger_level = by_level
            .get(level)
            .map(|s| s.revenue_dollars)
            .unwrap_or(0.0);
        if ledger_level.to_bits() != revenue.to_bits() {
            println!("     revenue[{level}]: ledger {ledger_level} vs journal {revenue}");
            replayed_revenue_ok = false;
        }
    }
    gate.check(
        "per-level revenue reconciles bit-for-bit",
        replayed_revenue_ok,
        "see mismatches",
    );
    gate.check(
        "total revenue is the fold of finished entries",
        summary.revenue_dollars.to_bits()
            == entries
                .iter()
                .filter(|e| e.status == "finished")
                .fold(0.0f64, |acc, e| acc + e.revenue_dollars)
                .to_bits(),
        &format!("{}", summary.revenue_dollars),
    );
    let finished: Vec<&str> = entries
        .iter()
        .filter(|e| e.status == "finished")
        .map(|e| e.query.as_str())
        .collect();
    let ledgered: Vec<String> = ledger.entries().into_iter().map(|e| e.query).collect();
    gate.check(
        "journal lists finished queries in ledger order",
        finished == ledgered,
        &format!("{finished:?} vs {ledgered:?}"),
    );

    // 5. Artifact for CI.
    let mut report: std::collections::BTreeMap<String, Json> = Default::default();
    report.insert("queries".into(), Json::number(entries.len() as f64));
    report.insert("failed".into(), Json::number(failed as f64));
    report.insert("diffs".into(), Json::number(diffs.len() as f64));
    report.insert("slo".into(), server.slo_json());
    report.insert("ledger".into(), server.ledger_json());
    gate.write_volatile("slo_soak.json", &Json::Object(report).to_compact_string());
    gate.finish("all checks passed");
}
