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
//! 4. refolds the ledger from the same journal: its sums — entries, bytes and
//!    every dollar, overall, per level and per tenant — must equal the live
//!    ledger's bit-for-bit,
//! 5. writes `results/slo_soak.json`, the part a rerun reproduces — query
//!    and status counts, and per level and per tenant the ledger's entries
//!    and billed bytes — and the whole report to `target/slo_soak.json`
//!    (uploaded as a CI artifact): revenue folds in completion order and the
//!    SLO counts follow latency, so those differ from run to run.
//!
//! Exits non-zero on any diff: a journal that cannot reproduce the registry
//! is a broken system of record.

use pixels_bench::{demo_data, Gate};
use pixels_common::Json;
use pixels_obs::journal::{ledger_of, replay};
use pixels_obs::{LedgerSummary, QueryJournal};
use pixels_server::{PriceSchedule, QueryServer, QuerySubmission, ServiceLevel};
use pixels_turbo::{EngineConfig, TurboEngine};
use std::collections::BTreeMap;
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

    // 4. The ledger's sums equal the journal's fold, bit for bit. The server
    //    appends a finished query to both in one critical section, so the
    //    journal folds their dollars in the ledger's own order.
    let (ledger, refolded) = (server.ledger(), ledger_of(&entries));
    gate.check(
        "ledger sums equal the journal fold, bit for bit",
        refolded.same_books(ledger),
        &format!(
            "ledger {:?} vs journal {:?}",
            ledger.summary(),
            refolded.summary()
        ),
    );

    // 5. The reproducible counts, committed, and the whole report for CI.
    let mut statuses: BTreeMap<&str, u64> = BTreeMap::new();
    for e in &entries {
        *statuses.entry(e.status.as_str()).or_default() += 1;
    }
    let counts = |by: BTreeMap<String, LedgerSummary>| {
        Json::object(by.into_iter().map(|(key, sums)| {
            let fields = [
                ("entries", Json::number(sums.entries as f64)),
                ("bytes_billed", Json::number(sums.bytes_billed as f64)),
            ];
            (key, Json::object(fields))
        }))
    };
    let reproducible = Json::object([
        ("queries", Json::number(entries.len() as f64)),
        (
            "status",
            Json::object(statuses.iter().map(|(s, &n)| (*s, Json::number(n as f64)))),
        ),
        ("levels", counts(ledger.by_level())),
        ("tenants", counts(ledger.by_tenant())),
    ]);
    gate.write("slo_soak.json", &reproducible.to_compact_string());
    let mut report: BTreeMap<String, Json> = Default::default();
    report.insert("queries".into(), Json::number(entries.len() as f64));
    report.insert("failed".into(), Json::number(failed as f64));
    report.insert("diffs".into(), Json::number(diffs.len() as f64));
    report.insert("slo".into(), server.slo_json());
    report.insert("ledger".into(), server.ledger_json());
    gate.write_volatile("slo_soak.json", &Json::Object(report).to_compact_string());
    gate.finish("all checks passed");
}
