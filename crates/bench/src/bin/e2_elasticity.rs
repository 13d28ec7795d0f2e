//! E2 — elasticity: CF creates hundreds of workers in ~1 s; the VM cluster
//! needs 1–2 minutes to scale (paper §2/§3.1).
//!
//! Measures time-to-N-workers for both resource types on the virtual clock.

use pixels_bench::TextTable;
use pixels_common::QueryId;
use pixels_sim::{SimDuration, SimTime};
use pixels_turbo::{CfConfig, CfService, QueryWork, ResourcePricing, VmCluster, VmConfig};

/// Time for the VM cluster to go from 1 active worker to `target` active
/// workers under sustained overload.
fn vm_time_to_capacity(target: u32) -> SimDuration {
    let cfg = VmConfig {
        max_workers: target,
        target_per_worker: 1.0,
        ..Default::default()
    };
    let mut cluster = VmCluster::new(cfg, SimTime::ZERO);
    // Sustained overload: enough long-running queries to demand `target`
    // workers.
    for i in 0..target as u64 * 2 {
        cluster.start(
            QueryId(i),
            QueryWork {
                scan_bytes: 0,
                cpu_seconds: 1e9, // effectively never finishes
                parallelism: 4,
            },
            SimTime::ZERO,
        );
    }
    let mut now = SimTime::ZERO;
    while cluster.active_workers() < target && now <= SimTime::from_secs(3600) {
        now = cluster.next_event();
        cluster.tick(now);
    }
    now.since(SimTime::ZERO)
}

/// Time for the CF service to reach `target` concurrent workers for one
/// query fleet.
fn cf_time_to_capacity(target: u32) -> SimDuration {
    let mut cf = CfService::new(
        CfConfig {
            max_workers_per_query: target,
            ..Default::default()
        },
        ResourcePricing::default(),
        SimTime::ZERO,
    );
    cf.launch(
        QueryId(0),
        QueryWork {
            scan_bytes: 0,
            cpu_seconds: 100.0,
            parallelism: target,
        },
        SimTime::ZERO,
    );
    assert_eq!(cf.active_workers(), target);
    cf.config().startup
}

fn main() {
    println!("== E2: elasticity of VM cluster vs cloud functions ==\n");
    let mut table = TextTable::new(&[
        "target workers",
        "VM time-to-capacity",
        "CF time-to-capacity",
        "CF advantage",
    ]);
    for target in [8u32, 32, 128, 256] {
        let vm = vm_time_to_capacity(target);
        let cf = cf_time_to_capacity(target);
        table.row(&[
            target.to_string(),
            format!("{vm}"),
            format!("{cf}"),
            format!("{:.0}x", vm.as_secs_f64() / cf.as_secs_f64()),
        ]);
        assert!(
            vm >= SimDuration::from_secs(60) && vm <= SimDuration::from_secs(900),
            "VM scale-out should take minutes (growing with fleet size), got {vm}"
        );
        assert!(cf <= SimDuration::from_secs(1), "CF should spawn in ~1s");
    }
    table.print();
    println!(
        "\nVM boot lag: {} per worker batch; CF startup: sub-second for the whole fleet.",
        VmConfig::default().boot_time
    );
    println!("e2_elasticity: OK (VM needs minutes, CF needs ~1 second)");
}
