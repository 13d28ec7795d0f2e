//! E3 — the cost crossover (paper §1): pure-CF execution is cost-efficient
//! for bursty, low-volume workloads but 1–2 orders of magnitude more
//! expensive than a provisioned VM cluster on sustained workloads.
//!
//! Sweeps a sustained Poisson arrival rate and compares provider-side cost
//! per query for (a) CF-only execution and (b) the auto-scaled VM cluster,
//! then shows the bursty case where CF-only wins.

use pixels_bench::TextTable;
use pixels_common::QueryId;
use pixels_server::{ServerConfig, ServerSim, ServiceLevel, Submission};
use pixels_sim::{SimDuration, SimTime};
use pixels_turbo::{CfService, QueryWork, VmConfig};
use pixels_workload::{poisson, QueryClass};

/// CF-only: every query runs as its own function fleet. Returns $/query.
fn cf_only_cost(arrivals: &[SimTime], class: QueryClass) -> f64 {
    let mut cf = CfService::new(SimTime::ZERO);
    for (i, &at) in arrivals.iter().enumerate() {
        cf.launch(QueryId(i as u64), QueryWork::from_class(class), at);
    }
    cf.total_cost / arrivals.len().max(1) as f64
}

/// VM cluster (relaxed level, CF disabled): provisioned cluster cost over
/// the run divided by queries served.
fn vm_cluster_cost(arrivals: &[SimTime], class: QueryClass) -> (f64, usize) {
    let subs: Vec<Submission> = arrivals
        .iter()
        .map(|&at| Submission {
            at,
            class,
            level: ServiceLevel::Relaxed,
        })
        .collect();
    let n = subs.len();
    let sim = ServerSim::new(VmConfig::default(), ServerConfig::default());
    let report = sim.run(subs, SimDuration::from_secs(4 * 3600));
    (
        report.total_resource_cost.total() / n.max(1) as f64,
        report.unfinished,
    )
}

fn main() {
    println!("== E3: CF-only vs VM-cluster cost across workload intensity ==\n");
    println!("Sustained workloads (medium queries over 2 simulated hours):");
    let duration = SimDuration::from_secs(2 * 3600);
    let mut table = TextTable::new(&[
        "rate (q/min)",
        "queries",
        "CF-only ($/q)",
        "auto-scaled VM ($/q)",
        "provisioned VM ($/q)",
        "CF/auto-VM",
        "CF/provisioned",
    ]);
    // The paper's [7] comparison point: a provisioned MPP cluster sized to
    // the workload pays only the core-seconds the queries consume.
    let work = pixels_turbo::QueryWork::from_class(QueryClass::Medium);
    let provisioned_per_q = pixels_turbo::billing::vm_cost(work.cpu_seconds);
    let mut ratios = Vec::new();
    for rate_per_min in [0.5f64, 2.0, 6.0, 20.0, 60.0] {
        let arrivals = poisson(rate_per_min / 60.0, duration, 11);
        let cf = cf_only_cost(&arrivals, QueryClass::Medium);
        let (vm, unfinished) = vm_cluster_cost(&arrivals, QueryClass::Medium);
        assert_eq!(unfinished, 0, "VM cluster must finish the workload");
        let ratio_auto = cf / vm;
        let ratio_prov = cf / provisioned_per_q;
        ratios.push((rate_per_min, ratio_auto, ratio_prov));
        table.row(&[
            format!("{rate_per_min:.1}"),
            arrivals.len().to_string(),
            format!("{cf:.6}"),
            format!("{vm:.6}"),
            format!("{provisioned_per_q:.6}"),
            format!("{ratio_auto:.1}x"),
            format!("{ratio_prov:.1}x"),
        ]);
    }
    table.print();

    // Shape checks: the CF disadvantage grows with sustained load, and
    // against a well-utilized provisioned cluster it reaches the paper's
    // 1-2 orders of magnitude.
    let low = ratios.first().unwrap().1;
    let high = ratios.last().unwrap().1;
    assert!(
        high > low,
        "CF disadvantage must grow with sustained rate ({low:.2} -> {high:.2})"
    );
    let prov_ratio = ratios.last().unwrap().2;
    assert!(
        prov_ratio >= 10.0,
        "CF vs provisioned-VM ratio should reach 1-2 OOM, got {prov_ratio:.1}x"
    );

    // The bursty case: one 2-minute spike in an otherwise idle hour. The VM
    // cluster pays for provisioned capacity the whole hour; CF pays only
    // for the burst.
    println!("\nBursty workload (50 medium queries in one 2-minute spike, 1-hour window):");
    let spike: Vec<SimTime> = (0..50).map(|i| SimTime::from_secs(1800 + i * 2)).collect();
    let cf = cf_only_cost(&spike, QueryClass::Medium);
    let (vm, _) = vm_cluster_cost_padded(&spike);
    let mut t2 = TextTable::new(&["strategy", "$/query"]);
    t2.row(&["CF-only".into(), format!("{cf:.6}")]);
    t2.row(&["VM cluster (1h provisioned)".into(), format!("{vm:.6}")]);
    t2.print();
    assert!(
        cf < vm,
        "for a short burst in an idle hour, CF-only should be cheaper ({cf:.6} vs {vm:.6})"
    );
    println!("\ne3_cost_crossover: OK (CF wins on bursts, loses 1-2 OOM on sustained load)");
}

/// VM cost for a bursty trace, padding the simulation to a full hour so the
/// idle provisioned time is charged (as a real always-on cluster would be).
fn vm_cluster_cost_padded(arrivals: &[SimTime]) -> (f64, usize) {
    let mut subs: Vec<Submission> = arrivals
        .iter()
        .map(|&at| Submission {
            at,
            class: QueryClass::Medium,
            level: ServiceLevel::Relaxed,
        })
        .collect();
    // A sentinel light query at the end of the hour keeps the simulation
    // (and its cost clock) running through the idle tail.
    subs.push(Submission {
        at: SimTime::from_secs(3600),
        class: QueryClass::Light,
        level: ServiceLevel::Relaxed,
    });
    let n = arrivals.len();
    let sim = ServerSim::new(VmConfig::default(), ServerConfig::default());
    let report = sim.run(subs, SimDuration::from_secs(2 * 3600));
    (
        report.total_resource_cost.total() / n.max(1) as f64,
        report.unfinished,
    )
}
