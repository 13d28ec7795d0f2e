//! `policy_parity` — sim-vs-real differential gate over the shared policy
//! core (ISSUE 5 satellite).
//!
//! Drives the same queries with the same seeded fault plans through the
//! simulated `Coordinator` and the real `TurboEngine` and asserts
//! bit-identical decision sequences, user bills, and provider cost
//! breakdowns. Exits non-zero on any divergence; writes
//! `results/policy_parity.json` on success.

use pixels_bench::parity;
use pixels_bench::{Gate, TextTable};
use pixels_common::Json;

fn main() {
    println!("policy_parity: sim-vs-real differential over the shared policy core");
    let reports = parity::run_all();

    let mut table = TextTable::new(&["scenario", "decisions", "bill $", "cf $", "provider cf $"]);
    for r in &reports {
        table.row(&[
            r.name.to_string(),
            r.decisions
                .iter()
                .map(|d| format!("{d:?}"))
                .collect::<Vec<_>>()
                .join(" → "),
            format!("{:.6}", r.bill),
            format!("{:.6}", r.resource_cost.cf_dollars),
            format!("{:.6}", r.provider_cf_dollars),
        ]);
    }
    table.print();

    let report = Json::object([
        ("benchmark", Json::string("policy_parity")),
        ("parity", Json::string("bit-identical")),
        (
            "scenarios",
            Json::array(reports.iter().map(|r| r.to_json())),
        ),
    ]);
    let gate = Gate::default();
    gate.write("policy_parity.json", &report.to_compact_string());
    gate.finish(&format!("ok: {} scenarios in parity", reports.len()));
}
