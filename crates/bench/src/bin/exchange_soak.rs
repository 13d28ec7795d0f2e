//! `exchange_soak` — the CI gate for multi-stage (shuffle) CF plans under
//! fault injection.
//!
//! Every scenario crosses a seeded fault plan aimed at the exchange path
//! (spill PUT errors, spill GET errors, a stage-0 worker crash) with all
//! three service levels, and runs the same shuffleable TPC-H join/agg
//! queries through a faulted deployment and a fault-free twin. Asserted per
//! pair:
//!
//! 1. **Result equivalence** — batches bit-identical to the fault-free twin.
//! 2. **Billing equivalence** — billed `scan_bytes`, the user price, *and*
//!    the provider-side shuffle dollars match exactly: exchange retries are
//!    free, losers never price, and spill traffic never reaches the bill.
//! 3. **Level isolation** — only Immediate (the CF-enabled level) touches
//!    the exchange path; Relaxed/BestEffort run the VM plan and must see
//!    zero exchange traffic and zero exchange faults.
//! 4. **GC** — the spill namespace is empty after every scenario.
//!
//! Results are printed as a table and written to
//! `results/exchange_soak.json` (uploaded as a CI artifact).

use pixels_bench::soak::{
    conclude, count_equivalent, metric_value, shuffle_config, Deployment, ScenarioResult,
    SHUFFLE_QUERIES,
};
use pixels_bench::TextTable;
use pixels_chaos::{FaultPlan, FaultSite, SiteSpec};
use pixels_common::Json;
use pixels_server::ServiceLevel;

const SEED: u64 = 20260807;

/// The ledger's `cf_shuffle` component must reconcile bit-for-bit against
/// each query record's provider shuffle spend.
fn reconcile_shuffle_ledger(tag: &str, d: &Deployment, failures: &mut Vec<String>) {
    let infos = d.server.list();
    for e in &d.server.ledger().entries() {
        let Some(info) = infos.iter().find(|i| i.id.to_string() == e.query) else {
            failures.push(format!(
                "{tag}: ledger entry {} has no query record",
                e.query
            ));
            continue;
        };
        if e.shuffle_dollars.to_bits() != info.provider_shuffle_dollars.to_bits() {
            failures.push(format!(
                "{tag}: ledger shuffle dollars {} diverge from query record {}",
                e.shuffle_dollars, info.provider_shuffle_dollars
            ));
        }
    }
}

fn main() {
    let mut failures: Vec<String> = Vec::new();
    // Each scenario's roll-up, exchange faults and exchange PUT bytes.
    let mut scenarios: Vec<(ScenarioResult, f64, f64)> = Vec::new();

    // Error bursts sized to the retry budget (4 retries): the first spill
    // PUT/GET absorbs the whole burst and succeeds on its final retry, so
    // the CF path deterministically survives instead of degrading to VM
    // (degradation legitimately changes the billing path and is covered by
    // tests/chaos_recovery.rs, not this equivalence gate).
    let matrix: [(&str, FaultPlan, Option<FaultSite>); 3] = [
        (
            "exchange_put_error_burst",
            FaultPlan::none(SEED).with(FaultSite::ExchangePut, SiteSpec::errors(1.0).capped(4)),
            Some(FaultSite::ExchangePut),
        ),
        (
            "exchange_get_error_burst",
            FaultPlan::none(SEED).with(FaultSite::ExchangeGet, SiteSpec::errors(1.0).capped(4)),
            Some(FaultSite::ExchangeGet),
        ),
        (
            "stage_crash_relaunch",
            FaultPlan::none(SEED).with(FaultSite::CfCrash, SiteSpec::errors(1.0).capped(1)),
            None,
        ),
    ];

    for (name, plan, fault_site) in &matrix {
        for level in [
            ServiceLevel::Immediate,
            ServiceLevel::Relaxed,
            ServiceLevel::BestEffort,
        ] {
            let cf_level = level.cf_enabled();
            let mut base_runs = Vec::new();
            let mut chaos_runs = Vec::new();
            let mut injected_total = 0;
            let mut exchange_faults = 0.0;
            let mut put_bytes = 0.0;
            for (qid, sql) in SHUFFLE_QUERIES {
                let base_d = Deployment::new(&FaultPlan::none(SEED), shuffle_config());
                let chaos_d = Deployment::new(plan, shuffle_config());
                if cf_level {
                    // Warm both deployments identically (one VM run each) so
                    // the measured CF run bills from the same cache state,
                    // then saturate the slot to force the CF shuffle path.
                    base_d.run_query(sql, qid, ServiceLevel::Relaxed);
                    chaos_d.run_query(sql, qid, ServiceLevel::Relaxed);
                    base_runs
                        .push(base_d.with_saturated_slot(|| base_d.run_query(sql, qid, level)));
                    chaos_runs
                        .push(chaos_d.with_saturated_slot(|| chaos_d.run_query(sql, qid, level)));
                } else {
                    base_runs.push(base_d.run_query(sql, qid, level));
                    chaos_runs.push(chaos_d.run_query(sql, qid, level));
                }
                injected_total += chaos_d.injector.injected_total();
                reconcile_shuffle_ledger(&format!("{name}/{qid}"), &chaos_d, &mut failures);
                base_d.assert_no_spill_leaks(&format!("{name}/{qid}/baseline"), &mut failures);
                chaos_d.assert_no_spill_leaks(&format!("{name}/{qid}/chaos"), &mut failures);
                let text = chaos_d.server.metrics_text();
                if pixels_obs::validate_exposition(&text).is_err() {
                    failures.push(format!("{name}/{qid}: invalid exposition"));
                }
                put_bytes += metric_value(&text, "pixels_exchange_put_bytes_total");
                if let Some(site) = fault_site {
                    exchange_faults += metric_value(
                        &text,
                        &format!("pixels_faults_injected_total{{site=\"{}\"}}", site.name()),
                    );
                }
            }
            let lname = level.name();
            if cf_level {
                if put_bytes <= 0.0 {
                    failures.push(format!("{name}/{lname}: queries never shuffled"));
                }
                if fault_site.is_some() && exchange_faults <= 0.0 {
                    failures.push(format!("{name}/{lname}: no faults hit the exchange path"));
                }
                if injected_total == 0 {
                    failures.push(format!("{name}/{lname}: no faults injected"));
                }
            } else {
                // CF (and thus the exchange) is disabled below Immediate: the
                // VM plan must never touch the exchange path, so exchange
                // fault sites stay silent and no spill traffic exists.
                if put_bytes != 0.0 {
                    failures.push(format!(
                        "{name}/{lname}: VM-level queries produced exchange traffic"
                    ));
                }
                if exchange_faults != 0.0 {
                    failures.push(format!(
                        "{name}/{lname}: exchange faults fired on the VM path"
                    ));
                }
            }
            let equivalent = count_equivalent(
                &format!("{name}/{lname}"),
                &base_runs,
                &chaos_runs,
                &mut failures,
            );
            scenarios.push((
                ScenarioResult::new(
                    name,
                    lname,
                    equivalent,
                    injected_total,
                    &base_runs,
                    &chaos_runs,
                ),
                exchange_faults,
                put_bytes,
            ));
        }
    }

    let mut table = TextTable::new(&[
        "scenario",
        "level",
        "queries",
        "equiv",
        "faults",
        "xchg faults",
        "spill KiB",
        "shuffle $",
        "base ms",
        "chaos ms",
    ]);
    for (s, exchange_faults, put_bytes) in &scenarios {
        table.row(&[
            s.name.clone(),
            s.level.to_string(),
            s.queries.to_string(),
            s.equivalent.to_string(),
            s.faults_injected.to_string(),
            format!("{exchange_faults:.0}"),
            format!("{:.1}", put_bytes / 1024.0),
            format!("{:.9}", s.shuffle_dollars),
            format!("{:.1}", s.baseline_latency_ms),
            format!("{:.1}", s.chaos_latency_ms),
        ]);
    }
    table.print();

    let report = Json::object(scenarios.iter().map(|(s, exchange_faults, put_bytes)| {
        (
            format!("{}/{}", s.name, s.level),
            Json::object([
                ("queries", Json::number(s.queries as f64)),
                ("equivalent", Json::number(s.equivalent as f64)),
                ("faults_injected", Json::number(s.faults_injected as f64)),
                ("exchange_faults", Json::number(*exchange_faults)),
                ("exchange_put_bytes", Json::number(*put_bytes)),
                ("shuffle_dollars", Json::number(s.shuffle_dollars)),
                ("baseline_latency_ms", Json::number(s.baseline_latency_ms)),
                ("chaos_latency_ms", Json::number(s.chaos_latency_ms)),
            ]),
        )
    }));
    conclude(
        "exchange_soak.json",
        report,
        &failures,
        "all scenarios equivalent: shuffles survive exchange faults with identical results and bills",
    );
}
