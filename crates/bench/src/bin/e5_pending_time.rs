//! E5 — pending-time bounds per service level (paper §3.2).
//!
//! Submits the same spiky workload at each service level and measures
//! pending-time distributions. Expected shape: immediate ≈ 0 (CF guarantees
//! immediacy), relaxed bounded by the grace period at the server, and
//! best-of-effort unbounded (waits for the cluster to drain).

use pixels_bench::TextTable;
use pixels_server::{SchedulerPolicy, ServerConfig, ServerSim, ServiceLevel, Submission};
use pixels_sim::{SimDuration, SimTime};
use pixels_turbo::VmConfig;
use pixels_workload::QueryClass;

fn main() {
    println!("== E5: pending time per service level under a spike ==\n");
    let grace = SimDuration::from_secs(300);

    let mut table = TextTable::new(&[
        "service level",
        "queries",
        "pending p50",
        "pending p95",
        "pending max",
        "server wait ≤ grace",
        "CF fraction",
    ]);

    let mut level_stats = Vec::new();
    for level in ServiceLevel::ALL {
        // 20 medium queries at once on a cold 1-worker cluster, plus a light
        // trickle afterwards.
        let mut subs: Vec<Submission> = (0..20)
            .map(|_| Submission {
                at: SimTime::from_secs(5),
                class: QueryClass::Medium,
                level,
            })
            .collect();
        for i in 0..10 {
            subs.push(Submission {
                at: SimTime::from_secs(600 + i * 30),
                class: QueryClass::Light,
                level,
            });
        }
        let sim = ServerSim::new(
            VmConfig::default(),
            ServerConfig {
                policy: SchedulerPolicy {
                    grace,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let report = sim.run(subs, SimDuration::from_secs(4 * 3600));
        assert_eq!(report.unfinished, 0, "{level}: all queries must finish");
        let stats = report.pending_stats(level);
        let max_server_wait = report
            .records_at(level)
            .map(|r| r.dispatched_at.since(r.submitted_at))
            .max()
            .unwrap_or(SimDuration::ZERO);
        table.row(&[
            level.name().to_string(),
            stats.count().to_string(),
            format!("{}", stats.percentile(0.5)),
            format!("{}", stats.percentile(0.95)),
            format!("{}", stats.max()),
            format!("{} ({max_server_wait})", max_server_wait <= grace),
            format!("{:.0}%", report.cf_fraction(level) * 100.0),
        ]);
        level_stats.push((level, stats, max_server_wait));
    }
    table.print();

    // Shape assertions.
    let imm = &level_stats[0].1;
    let rel = &level_stats[1];
    let be = &level_stats[2].1;
    assert_eq!(
        imm.max(),
        SimDuration::ZERO,
        "immediate queries start instantly"
    );
    assert!(
        rel.2 <= grace,
        "relaxed server-side wait bounded by the grace period"
    );
    assert!(
        be.max() >= rel.1.max(),
        "best-of-effort pending dominates relaxed"
    );
    println!(
        "\nimmediate = 0 pending; relaxed server wait ≤ {grace}; best-of-effort unbounded.\n\
         e5_pending_time: OK"
    );
}
