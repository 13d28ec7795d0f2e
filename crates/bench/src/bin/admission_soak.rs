//! `admission_soak` — the long-horizon soak of the multi-tenant admission
//! core, and its CI gate.
//!
//! Drives `ADMISSION_SOAK_USERS` simulated users (default 1,000,000; CI
//! sets 50,000) through the event-driven soak harness: diurnal arrivals
//! with a burst, an adversarial tenant flooding best-of-effort work, a
//! deadline-mode slice with a palette of targets, shared-scan batching
//! (each member billed the bytes its own plan reads, the carrier alone
//! carrying provider cost), and the same `SchedulerPolicy` + `FairQueue`
//! admission core the live server runs. Asserted:
//!
//! 1. **Conservation** — every submission either completes or is rejected
//!    at admission; rejected queries never bill.
//! 2. **Reconciliation** — completions and revenue, overall, per tenant and
//!    per admission mode, equal bit-for-bit the sums of the ledger every
//!    completion was appended to, at any scale.
//! 3. **Fairness** — the adversarial flood cannot push victim tenants'
//!    mean wait past the relaxed grace bound, and no tenant starves.
//! 4. **Deadline value** — honoring per-query deadlines (EDF + latest
//!    feasible force-start) violates no more original targets than
//!    mapping each deadline to the nearest fixed tier.
//! 5. **Exposition** — the soak's metrics render as a valid exposition
//!    with tenant label cardinality capped at top-K + "other".
//!
//! Results are printed as a table and written to
//! `results/admission_soak.json` (uploaded as a CI artifact).

use pixels_bench::{Gate, TextTable};
use pixels_common::Json;
use pixels_obs::{validate_exposition, MetricsRegistry};
use pixels_server::{run_soak, SoakConfig};
use std::time::Instant;

fn main() {
    let users: usize = std::env::var("ADMISSION_SOAK_USERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    println!("== admission_soak: {users} users through the tenant-aware admission core ==\n");

    let cfg = SoakConfig::ci_scale(users);
    let wall = Instant::now();
    let report = run_soak(&cfg);
    let native_wall = wall.elapsed();

    // The counterfactual: identical traffic, deadlines mapped to the
    // nearest fixed tier at submission.
    let mapped_cfg = SoakConfig {
        map_deadlines_to_tiers: true,
        ..cfg.clone()
    };
    let mapped = run_soak(&mapped_cfg);

    // 1. Conservation.
    assert!(
        report.submitted as usize >= users,
        "arrival generators undershot: {} < {users}",
        report.submitted
    );
    assert_eq!(report.submitted, report.completed + report.rejected);
    assert_eq!(report.submitted, mapped.submitted, "identical traffic");

    // 2. Reconciliation.
    assert!(report.reconciles(), "ledger must reconcile");
    let deadline = report
        .modes
        .iter()
        .find(|m| m.name == "deadline")
        .expect("deadline mode stats");
    assert!(deadline.rejected > 0, "infeasible targets must reject");

    // 3. Fairness.
    for t in report.tenants.iter().filter(|t| t.name != "adversary") {
        assert!(t.completed > 0, "tenant {} starved entirely", t.name);
        assert!(
            t.mean_wait_us < cfg.policy.grace.as_micros(),
            "tenant {} mean wait {} us exceeds the grace bound",
            t.name,
            t.mean_wait_us
        );
    }

    // 4. Deadline value.
    assert!(report.deadline_population > 0);
    assert!(
        report.deadline_target_violations <= mapped.deadline_target_violations,
        "deadline mode ({}) must not violate more targets than tier mapping ({})",
        report.deadline_target_violations,
        mapped.deadline_target_violations
    );

    // 5. Exposition.
    let registry = MetricsRegistry::new();
    report.export_metrics(&registry);
    let text = registry.render();
    validate_exposition(&text).expect("soak exposition must be valid");
    let tenant_series = text
        .lines()
        .filter(|l| l.starts_with("pixels_ledger_tenant_revenue_dollars{"))
        .count();
    assert!(
        (1..=9).contains(&tenant_series),
        "tenant label cardinality must be capped: {tenant_series} series"
    );

    let mut table = TextTable::new(&[
        "mode",
        "completed",
        "rejected",
        "sla viol.",
        "p50 (s)",
        "p99 (s)",
        "revenue ($)",
    ]);
    for m in &report.modes {
        table.row(&[
            m.name.clone(),
            m.completed.to_string(),
            m.rejected.to_string(),
            m.sla_violations.to_string(),
            format!("{:.2}", m.p50_latency_us as f64 / 1e6),
            format!("{:.2}", m.p99_latency_us as f64 / 1e6),
            format!("{:.4}", m.revenue_dollars),
        ]);
    }
    table.print();
    println!(
        "\n{} submitted, {} completed, {} rejected over {:.1} sim-hours \
         ({:.0} q/s sim, {:.2}s wall)",
        report.submitted,
        report.completed,
        report.rejected,
        report.sim_duration.as_secs_f64() / 3600.0,
        report.throughput_qps,
        native_wall.as_secs_f64()
    );
    println!(
        "revenue ${:.2}, provider cost ${:.2}, {} batches merged {} riders, \
         {} CF placements, {} forced starts",
        report.revenue_dollars,
        report.provider_dollars,
        report.batches,
        report.batched_members,
        report.cf_placements,
        report.forced_starts
    );
    println!(
        "deadline targets: {} violations native vs {} mapped-to-tier \
         (population {})",
        report.deadline_target_violations,
        mapped.deadline_target_violations,
        report.deadline_population
    );
    println!(
        "fairness: adversary mean wait {:.1}s vs victims {:.1}s",
        report.adversary_mean_wait_us() as f64 / 1e6,
        report.victim_mean_wait_us() as f64 / 1e6
    );

    let out = Json::object([
        ("report", report.to_json()),
        (
            "mapped_counterfactual",
            Json::object([
                (
                    "deadline_target_violations",
                    Json::number(mapped.deadline_target_violations as f64),
                ),
                ("completed", Json::number(mapped.completed as f64)),
                ("rejected", Json::number(mapped.rejected as f64)),
            ]),
        ),
        ("wall_seconds", Json::number(native_wall.as_secs_f64())),
    ]);
    let gate = Gate::default();
    gate.write("admission_soak.json", &out.to_compact_string());
    gate.finish("admission_soak: OK");
}
