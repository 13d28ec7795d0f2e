//! Watch the hybrid engine absorb a workload spike — the paper's core
//! Pixels-Turbo scenario, on the deterministic virtual clock.
//!
//! ```text
//! cargo run --example autoscale_trace
//! ```
//!
//! A quiet cluster receives a sudden burst of immediate queries: cloud
//! functions absorb the overflow within a second while VM workers boot for
//! 90 s, after which the cluster serves everything itself and later scales
//! back in.

use pixelsdb::server::{ServerConfig, ServerSim, ServiceLevel, Submission};
use pixelsdb::sim::{SimDuration, SimTime};
use pixelsdb::turbo::{CfConfig, Placement, ResourcePricing, VmConfig};
use pixelsdb::workload::QueryClass;

fn main() {
    // A 20-minute scenario: idle, spike at t=60 s, sustained tail, quiet.
    let mut subs = Vec::new();
    for i in 0..25 {
        subs.push(Submission {
            at: SimTime::from_secs(60 + i / 8),
            class: QueryClass::Medium,
            level: ServiceLevel::Immediate,
        });
    }
    for i in 0..40 {
        subs.push(Submission {
            at: SimTime::from_secs(120 + i * 10),
            class: QueryClass::Medium,
            level: ServiceLevel::Immediate,
        });
    }
    let sim = ServerSim::new(
        VmConfig::default(),
        CfConfig::default(),
        ResourcePricing::default(),
        ServerConfig::default(),
    );
    let report = sim.run(subs, SimDuration::from_secs(3600));
    assert_eq!(report.unfinished, 0);

    println!("event log (first completions):");
    for r in report.records.iter().take(12) {
        println!(
            "  {}  {:<22} pending {:<8} exec {:<8} cost ${:.6}",
            r.finished_at,
            match r.placement {
                Placement::Vm => "finished in VM".to_string(),
                Placement::Cf { workers } => format!("finished in CF x{workers}"),
            },
            format!("{}", r.pending()),
            format!("{}", r.execution()),
            r.resource_cost.total(),
        );
    }

    let cf_queries = report
        .records
        .iter()
        .filter(|r| matches!(r.placement, Placement::Cf { .. }))
        .count();
    println!("\nsummary:");
    println!("  queries total      : {}", report.records.len());
    println!("  absorbed by CF     : {cf_queries}");
    println!("  scale-out events   : {}", report.scale_out_times.len());
    println!("  scale-in events    : {}", report.scale_in_times.len());
    println!(
        "  provider cost      : VM ${:.4} + CF ${:.4}",
        report.total_resource_cost.vm_dollars, report.total_resource_cost.cf_dollars
    );
    assert!(cf_queries > 0, "the spike must overflow into CF");
    assert!(
        !report.scale_out_times.is_empty(),
        "the cluster must scale out"
    );
    println!("autoscale_trace: done");
}
