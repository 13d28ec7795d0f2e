//! E6 — best-of-effort queries absorb idle capacity and avoid unnecessary
//! scale-in (paper §3.2, footnote 2).
//!
//! A foreground load with a trough between two busy phases would normally
//! let the cluster scale in, only to scale out again minutes later. Filling
//! the trough with best-of-effort queries keeps the workers usefully busy
//! at 10% of the immediate price.

use pixels_bench::TextTable;
use pixels_server::{ServerConfig, ServerSim, ServiceLevel, Submission};
use pixels_sim::{SimDuration, SimTime};
use pixels_turbo::VmConfig;
use pixels_workload::QueryClass;

fn foreground() -> Vec<Submission> {
    let mut subs = Vec::new();
    // Two busy phases of bursty immediate traffic (bursts of 8 push
    // concurrency past the high watermark, forcing scale-out), separated by
    // a 5-minute trough in which the autoscaler would normally start
    // releasing workers.
    for (phase_start, bursts) in [(0u64, 10u64), (900, 10)] {
        for b in 0..bursts {
            for _ in 0..8 {
                subs.push(Submission {
                    at: SimTime::from_secs(phase_start + b * 60),
                    class: QueryClass::Medium,
                    level: ServiceLevel::Immediate,
                });
            }
        }
    }
    subs
}

fn backfill() -> Vec<Submission> {
    // A batch of best-of-effort maintenance queries submitted as the trough
    // begins; the server feeds them in while the cluster is nearly idle,
    // keeping per-worker concurrency at the low watermark so the cluster
    // does not scale in before the next busy phase.
    (0..30)
        .map(|i| Submission {
            at: SimTime::from_secs(600 + i),
            class: QueryClass::Heavy,
            level: ServiceLevel::BestEffort,
        })
        .collect()
}

fn run(with_backfill: bool) -> pixels_server::SimReport {
    let mut subs = foreground();
    if with_backfill {
        subs.extend(backfill());
    }
    let sim = ServerSim::new(VmConfig::default(), ServerConfig::default());
    sim.run(subs, SimDuration::from_secs(4 * 3600))
}

fn main() {
    println!("== E6: best-of-effort backfill during the trough ==\n");
    let without = run(false);
    let with = run(true);

    let mut table = TextTable::new(&[
        "configuration",
        "scale-in events",
        "scale-out events",
        "VM cost ($)",
        "CF cost ($)",
        "best-effort revenue ($)",
    ]);
    for (name, r) in [
        ("foreground only", &without),
        ("with best-effort backfill", &with),
    ] {
        let be_revenue: f64 = r
            .records_at(ServiceLevel::BestEffort)
            .map(|q| q.price)
            .sum();
        table.row(&[
            name.to_string(),
            r.scale_in_times.len().to_string(),
            r.scale_out_times.len().to_string(),
            format!("{:.4}", r.total_resource_cost.vm_dollars),
            format!("{:.4}", r.total_resource_cost.cf_dollars),
            format!("{be_revenue:.6}"),
        ]);
    }
    table.print();

    assert_eq!(with.unfinished, 0);
    let be: Vec<_> = with.records_at(ServiceLevel::BestEffort).collect();
    assert_eq!(be.len(), 30, "all backfill queries completed");
    // Count scale-ins inside the trough window specifically: that is the
    // "unnecessary scaling-in right before the next spike" the paper's
    // best-of-effort level prevents.
    let trough = |times: &[SimTime]| {
        times
            .iter()
            .filter(|t| **t >= SimTime::from_secs(600) && **t < SimTime::from_secs(900))
            .count()
    };
    let without_trough = trough(&without.scale_in_times);
    let with_trough = trough(&with.scale_in_times);
    println!(
        "\nScale-ins during the trough (10-15 min): {} without backfill, {} with.",
        without_trough, with_trough
    );
    assert!(
        without_trough >= 1,
        "without backfill the trough must trigger scale-in"
    );
    assert!(
        with_trough < without_trough,
        "backfill must reduce trough scale-in ({with_trough} vs {without_trough})"
    );
    // Backfill runs only when the cluster is nearly idle, so it barely
    // displaces foreground work (a small tail may collide with the start of
    // the next busy phase).
    assert!(
        with.cf_fraction(ServiceLevel::Immediate)
            <= without.cf_fraction(ServiceLevel::Immediate) + 0.08,
        "backfill must not displace significant foreground work into CF"
    );
    // Idle capacity absorbed: backfill should keep workers busier, reducing
    // (or at least not increasing) scale-in thrash during the trough.
    assert!(
        with.scale_in_times.len() <= without.scale_in_times.len(),
        "backfill avoids unnecessary scale-in ({} vs {})",
        with.scale_in_times.len(),
        without.scale_in_times.len()
    );
    // VM cost grows little: the trough capacity was already paid for.
    let extra_cost = with.total_resource_cost.total() - without.total_resource_cost.total();
    println!(
        "\nBackfill ran {} queries for {:+.4}$ extra provider cost (paid-for idle capacity).",
        be.len(),
        extra_cost
    );
    println!("e6_besteffort: OK");
}
