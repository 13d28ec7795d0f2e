//! `chaos_soak` — the CI chaos gate: a seeded fault matrix proving that
//! fault injection changes *when* queries finish, never *what* they answer
//! or what the user is billed.
//!
//! For every scenario in the matrix (object-store GET errors, GET latency
//! spikes, CF worker crashes, CF stragglers — crossed with service levels)
//! the harness builds two identical deployments that differ only in the
//! seeded [`FaultPlan`], runs the same TPC-H queries through both, and
//! asserts:
//!
//! 1. **Result equivalence** — every batch is bit-identical to the
//!    fault-free run.
//! 2. **Billing equivalence** — billed `scan_bytes` (and thus the $/TB
//!    price) match the fault-free run exactly: retries re-read for free,
//!    failed GETs bill nothing, and speculation bills only the winner.
//! 3. **Fault visibility** — `/metrics` stays a valid Prometheus
//!    exposition and carries nonzero `pixels_faults_injected_total` (plus
//!    `pixels_retries_total` for storage scenarios).
//!
//! Availability/latency/cost deltas per scenario are printed as a table and
//! written to `results/chaos_soak.json` (uploaded as a CI artifact; the
//! headline numbers are recorded in EXPERIMENTS.md).

use pixels_bench::soak::{
    check_pair, conclude, count_equivalent, metric_value, shuffle_config, Deployment,
    ScenarioResult, SHUFFLE_QUERIES,
};
use pixels_bench::TextTable;
use pixels_chaos::{FaultPlan, FaultSite, SiteSpec};
use pixels_common::Json;
use pixels_server::{QueryStatus, ServiceLevel};
use pixels_turbo::EngineConfig;
use pixels_workload::all_queries;

/// One seed for the whole matrix: re-running the binary replays the exact
/// same fault sequence at every site.
const SEED: u64 = 20260806;

fn cf_config() -> EngineConfig {
    EngineConfig {
        vm_slots: 1,
        cf_fleet_threads: 2,
        ..EngineConfig::default()
    }
}

/// The economics ledger must reconcile exactly — bit-for-bit — against the
/// server's own query registry, under every fault plan: one entry per
/// finished query carrying that query's exact bill, bytes, and provider
/// spend. Faults may change dollars; they may never unbalance the books.
fn reconcile_ledger(tag: &str, d: &Deployment, failures: &mut Vec<String>) {
    let infos = d.server.list();
    let finished = infos
        .iter()
        .filter(|i| i.status == QueryStatus::Finished)
        .count();
    let entries = d.server.ledger().entries();
    if entries.len() != finished {
        failures.push(format!(
            "{tag}: ledger holds {} entries for {finished} finished queries",
            entries.len()
        ));
        return;
    }
    for e in &entries {
        let Some(info) = infos.iter().find(|i| i.id.to_string() == e.query) else {
            failures.push(format!(
                "{tag}: ledger entry {} has no query record",
                e.query
            ));
            continue;
        };
        if e.level != info.submission.level.name()
            || e.bytes_billed != info.scan_bytes
            || e.revenue_dollars.to_bits() != info.price.to_bits()
            || e.vm_dollars.to_bits() != info.resource_cost.vm_dollars.to_bits()
            || e.cf_dollars.to_bits() != info.resource_cost.cf_dollars.to_bits()
            || e.provider_cf_dollars.to_bits() != info.provider_cf_dollars.to_bits()
        {
            failures.push(format!(
                "{tag}: ledger entry {} diverges from its query record",
                e.query
            ));
        }
    }
}

fn main() {
    let mut failures: Vec<String> = Vec::new();
    let queries: Vec<_> = all_queries()
        .into_iter()
        .filter(|q| q.database == "tpch")
        .collect();
    assert!(queries.len() >= 5, "expected several TPC-H templates");
    let mut scenarios: Vec<ScenarioResult> = Vec::new();

    // ---- Storage scenarios: shared deployment, queries run on the VM path
    // at every service level. Retries must mask every injected error.
    let storage_matrix: [(&str, FaultPlan); 2] = [
        ("get_errors_30pct", FaultPlan::get_errors(SEED, 0.30)),
        (
            "get_latency_spikes_25pct",
            FaultPlan::get_latency_spikes(SEED, 0.25, 1, 4),
        ),
    ];
    for (name, plan) in storage_matrix {
        for level in [
            ServiceLevel::Immediate,
            ServiceLevel::Relaxed,
            ServiceLevel::BestEffort,
        ] {
            let base_d = Deployment::new(&FaultPlan::none(SEED), EngineConfig::default());
            let chaos_d = Deployment::new(&plan, EngineConfig::default());
            let mut base_runs = Vec::new();
            let mut chaos_runs = Vec::new();
            for q in &queries {
                base_runs.push(base_d.run_query(q.sql, q.id, level));
                chaos_runs.push(chaos_d.run_query(q.sql, q.id, level));
            }
            let equivalent = count_equivalent(
                &format!("{name}/{}", level.name()),
                &base_runs,
                &chaos_runs,
                &mut failures,
            );
            let text = chaos_d.server.metrics_text();
            if let Err(e) = pixels_obs::validate_exposition(&text) {
                failures.push(format!("{name}/{}: bad exposition: {e}", level.name()));
            }
            reconcile_ledger(
                &format!("{name}/{}/baseline", level.name()),
                &base_d,
                &mut failures,
            );
            reconcile_ledger(
                &format!("{name}/{}/chaos", level.name()),
                &chaos_d,
                &mut failures,
            );
            base_d
                .assert_no_spill_leaks(&format!("{name}/{}/baseline", level.name()), &mut failures);
            chaos_d.assert_no_spill_leaks(&format!("{name}/{}/chaos", level.name()), &mut failures);
            let injected =
                metric_value(&text, "pixels_faults_injected_total{site=\"storage_get\"}");
            if injected <= 0.0 {
                failures.push(format!(
                    "{name}/{}: expected nonzero pixels_faults_injected_total",
                    level.name()
                ));
            }
            if name.starts_with("get_errors") {
                let retried = metric_value(&text, "pixels_retries_total{site=\"storage_get\"}");
                if retried <= 0.0 {
                    failures.push(format!(
                        "{name}/{}: expected nonzero pixels_retries_total",
                        level.name()
                    ));
                }
                if metric_value(&text, "pixels_storage_gets_failed_total") <= 0.0 {
                    failures.push(format!(
                        "{name}/{}: failed GETs must be counted",
                        level.name()
                    ));
                }
            }
            scenarios.push(ScenarioResult::new(
                name,
                level.name(),
                equivalent,
                chaos_d.injector.injected_total(),
                &base_runs,
                &chaos_runs,
            ));
        }
    }

    // ---- Prefetch-pipeline scenario: the same seeded GET-error plan hits
    // deployments whose scans prefetch (several vectored GETs in flight on
    // the scan's I/O threads) and one running fetch+decode fused on the
    // workers. Faults landing on prefetched GETs must be retried and billed
    // exactly like synchronous reads: results, bytes, and bills identical
    // across all of them — and against a fault-free baseline. Which request
    // a seeded fault lands on differs with the depth; nothing compared here
    // may. The prefetching side runs at the default depth and at depth 4
    // spelled out, so the overlapped path stays covered whatever the
    // default becomes.
    {
        let name = "get_errors_30pct_prefetch_vs_sync";
        let plan = FaultPlan::get_errors(SEED, 0.30);
        let with_depth = |prefetch_depth| EngineConfig {
            prefetch_depth,
            ..EngineConfig::default()
        };
        let base_d = Deployment::new(&FaultPlan::none(SEED), EngineConfig::default());
        let chaos_sync = Deployment::new(&plan, with_depth(0));
        let base_runs: Vec<_> = queries
            .iter()
            .map(|q| base_d.run_query(q.sql, q.id, ServiceLevel::Immediate))
            .collect();
        let sync_runs: Vec<_> = queries
            .iter()
            .map(|q| chaos_sync.run_query(q.sql, q.id, ServiceLevel::Immediate))
            .collect();
        reconcile_ledger(&format!("{name}/sync"), &chaos_sync, &mut failures);
        base_d.assert_no_spill_leaks(&format!("{name}/baseline"), &mut failures);
        chaos_sync.assert_no_spill_leaks(&format!("{name}/sync"), &mut failures);

        for (side, cfg) in [
            ("prefetch", EngineConfig::default()),
            ("prefetch_depth4", with_depth(4)),
        ] {
            let chaos_pre = Deployment::new(&plan, cfg);
            let pre_runs: Vec<_> = queries
                .iter()
                .map(|q| chaos_pre.run_query(q.sql, q.id, ServiceLevel::Immediate))
                .collect();
            let mut equivalent = 0;
            for ((b, p), s) in base_runs.iter().zip(&pre_runs).zip(&sync_runs) {
                let ok_pre = check_pair(b, p).map_err(|e| format!("{name}/{side}: {e}"));
                let ok_sync = check_pair(s, p).map_err(|e| format!("{name}/{side}-vs-sync: {e}"));
                match (ok_pre, ok_sync) {
                    (Ok(()), Ok(())) => equivalent += 1,
                    (r1, r2) => failures.extend(r1.err().into_iter().chain(r2.err())),
                }
            }
            reconcile_ledger(&format!("{name}/{side}"), &chaos_pre, &mut failures);
            chaos_pre.assert_no_spill_leaks(&format!("{name}/{side}"), &mut failures);
            let text = chaos_pre.server.metrics_text();
            if metric_value(&text, "pixels_scan_prefetch_issued_total") <= 0.0 {
                failures.push(format!("{name}/{side}: prefetcher never issued a fetch"));
            }
            if metric_value(&text, "pixels_faults_injected_total{site=\"storage_get\"}") <= 0.0 {
                failures.push(format!("{name}/{side}: no faults hit the deployment"));
            }
            let retries: u64 = pre_runs.iter().map(|r| r.retries).sum();
            if retries == 0
                || metric_value(&text, "pixels_retries_total{site=\"storage_get\"}") <= 0.0
            {
                failures.push(format!(
                    "{name}/{side}: prefetched GET faults were not retried"
                ));
            }
            // One report row, for the default deployment; the depth-4 twin
            // only has to pass the checks above.
            if side == "prefetch" {
                scenarios.push(ScenarioResult::new(
                    name,
                    "immediate",
                    equivalent,
                    chaos_pre.injector.injected_total(),
                    &base_runs,
                    &pre_runs,
                ));
            }
        }
    }

    // ---- CF scenarios: one deployment pair per query (so each query sees
    // the fault fresh), Immediate level, VM slot saturated so dispatch goes
    // to the CF tier. Placement is pinned CF on both sides — `capped` plans
    // keep the relaunch/speculative duplicate on the CF path, so billed
    // bytes stay comparable. (Degradation to VM changes placement and is
    // asserted result-equivalent in tests/chaos_recovery.rs instead.)
    let cf_matrix: [(&str, FaultPlan); 2] = [
        (
            "cf_crash_relaunch",
            FaultPlan::none(SEED).with(FaultSite::CfCrash, SiteSpec::errors(1.0).capped(1)),
        ),
        (
            "cf_straggler_speculate",
            FaultPlan::none(SEED).with(
                FaultSite::CfStraggler,
                SiteSpec::delays(1.0, 1_200_000, 1_200_000).capped(1),
            ),
        ),
    ];
    for (name, plan) in cf_matrix {
        let mut base_runs = Vec::new();
        let mut chaos_runs = Vec::new();
        let mut injected_total = 0;
        let mut metrics_ok = true;
        let mut speculated = 0.0;
        let mut cf_retried = 0.0;
        for q in &queries {
            let base_d = Deployment::new(&FaultPlan::none(SEED), cf_config());
            let chaos_d = Deployment::new(&plan, cf_config());
            // Warm each deployment identically (one VM-path run) so the
            // measured CF run bills from the same cache state on both sides.
            base_d.run_query(q.sql, q.id, ServiceLevel::Relaxed);
            chaos_d.run_query(q.sql, q.id, ServiceLevel::Relaxed);
            base_runs
                .push(base_d.with_saturated_slot(|| {
                    base_d.run_query(q.sql, q.id, ServiceLevel::Immediate)
                }));
            chaos_runs.push(
                chaos_d.with_saturated_slot(|| {
                    chaos_d.run_query(q.sql, q.id, ServiceLevel::Immediate)
                }),
            );
            injected_total += chaos_d.injector.injected_total();
            reconcile_ledger(&format!("{name}/{}", q.id), &chaos_d, &mut failures);
            base_d.assert_no_spill_leaks(&format!("{name}/{}/baseline", q.id), &mut failures);
            chaos_d.assert_no_spill_leaks(&format!("{name}/{}/chaos", q.id), &mut failures);
            let text = chaos_d.server.metrics_text();
            if pixels_obs::validate_exposition(&text).is_err() {
                metrics_ok = false;
            }
            speculated += metric_value(&text, "pixels_speculative_launches_total");
            cf_retried += metric_value(&text, "pixels_turbo_cf_retries_total");
        }
        let equivalent = count_equivalent(
            &format!("{name}/immediate"),
            &base_runs,
            &chaos_runs,
            &mut failures,
        );
        if !metrics_ok {
            failures.push(format!("{name}: invalid exposition"));
        }
        if injected_total == 0 {
            failures.push(format!("{name}: no faults injected"));
        }
        if name == "cf_crash_relaunch" && cf_retried <= 0.0 {
            failures.push(format!("{name}: expected CF relaunches"));
        }
        if name == "cf_straggler_speculate" && speculated <= 0.0 {
            failures.push(format!("{name}: expected speculative launches"));
        }
        scenarios.push(ScenarioResult::new(
            name,
            "immediate",
            equivalent,
            injected_total,
            &base_runs,
            &chaos_runs,
        ));
    }

    // ---- Shuffle scenarios: two-stage exchange plans (4-way fan-out) under
    // spill PUT/GET faults and a stage crash. The exchange stack must retry
    // every injected spill error invisibly: results and bills bit-identical
    // to the fault-free twin, and no spill object may outlive its query.
    let shuffle_matrix: [(&str, FaultPlan, Option<FaultSite>); 3] = [
        (
            "shuffle_exchange_put_errors",
            FaultPlan::exchange_put_errors(SEED, 0.30),
            Some(FaultSite::ExchangePut),
        ),
        (
            "shuffle_exchange_get_errors",
            FaultPlan::exchange_get_errors(SEED, 0.30),
            Some(FaultSite::ExchangeGet),
        ),
        (
            "shuffle_stage_crash",
            FaultPlan::none(SEED).with(FaultSite::CfCrash, SiteSpec::errors(1.0).capped(1)),
            None,
        ),
    ];
    for (name, plan, fault_site) in shuffle_matrix {
        let mut base_runs = Vec::new();
        let mut chaos_runs = Vec::new();
        let mut injected_total = 0;
        let mut site_faults = 0.0;
        let mut spilled = 0.0;
        for (qid, sql) in SHUFFLE_QUERIES {
            let base_d = Deployment::new(&FaultPlan::none(SEED), shuffle_config());
            let chaos_d = Deployment::new(&plan, shuffle_config());
            base_d.run_query(sql, qid, ServiceLevel::Relaxed);
            chaos_d.run_query(sql, qid, ServiceLevel::Relaxed);
            base_runs.push(
                base_d.with_saturated_slot(|| base_d.run_query(sql, qid, ServiceLevel::Immediate)),
            );
            chaos_runs.push(
                chaos_d
                    .with_saturated_slot(|| chaos_d.run_query(sql, qid, ServiceLevel::Immediate)),
            );
            injected_total += chaos_d.injector.injected_total();
            reconcile_ledger(&format!("{name}/{qid}"), &chaos_d, &mut failures);
            base_d.assert_no_spill_leaks(&format!("{name}/{qid}/baseline"), &mut failures);
            chaos_d.assert_no_spill_leaks(&format!("{name}/{qid}/chaos"), &mut failures);
            let text = chaos_d.server.metrics_text();
            if pixels_obs::validate_exposition(&text).is_err() {
                failures.push(format!("{name}/{qid}: invalid exposition"));
            }
            spilled += metric_value(&text, "pixels_exchange_put_bytes_total");
            if let Some(site) = fault_site {
                site_faults += metric_value(
                    &text,
                    &format!("pixels_faults_injected_total{{site=\"{}\"}}", site.name()),
                );
            }
        }
        if spilled <= 0.0 {
            failures.push(format!("{name}: queries never exchanged partitions"));
        }
        if fault_site.is_some() && site_faults <= 0.0 {
            failures.push(format!("{name}: no faults hit the exchange path"));
        }
        if injected_total == 0 {
            failures.push(format!("{name}: no faults injected"));
        }
        let equivalent = count_equivalent(
            &format!("{name}/immediate"),
            &base_runs,
            &chaos_runs,
            &mut failures,
        );
        scenarios.push(ScenarioResult::new(
            name,
            "immediate",
            equivalent,
            injected_total,
            &base_runs,
            &chaos_runs,
        ));
    }

    // ---- Report.
    let mut table = TextTable::new(&[
        "scenario", "level", "queries", "equiv", "faults", "retries", "avail", "base ms",
        "chaos ms", "bill Δ$",
    ]);
    for s in &scenarios {
        table.row(&[
            s.name.clone(),
            s.level.to_string(),
            s.queries.to_string(),
            s.equivalent.to_string(),
            s.faults_injected.to_string(),
            s.retries.to_string(),
            format!("{:.0}%", s.availability * 100.0),
            format!("{:.1}", s.baseline_latency_ms),
            format!("{:.1}", s.chaos_latency_ms),
            format!("{:+.6}", s.chaos_bill - s.baseline_bill),
        ]);
    }
    table.print();

    let report = Json::object(scenarios.iter().map(|s| {
        (
            format!("{}/{}", s.name, s.level),
            Json::object([
                ("queries", Json::number(s.queries as f64)),
                ("equivalent", Json::number(s.equivalent as f64)),
                ("faults_injected", Json::number(s.faults_injected as f64)),
                ("retries", Json::number(s.retries as f64)),
                ("availability", Json::number(s.availability)),
                ("baseline_latency_ms", Json::number(s.baseline_latency_ms)),
                ("chaos_latency_ms", Json::number(s.chaos_latency_ms)),
                ("baseline_bill_dollars", Json::number(s.baseline_bill)),
                ("chaos_bill_dollars", Json::number(s.chaos_bill)),
            ]),
        )
    }));
    conclude(
        "chaos_soak.json",
        report,
        &failures,
        "all scenarios equivalent: identical results and bills under every fault plan",
    );
}
