//! E4 — watermark autoscaling traces (paper §3.1).
//!
//! Replays a diurnal analytical workload and a spiky log-analysis workload
//! through the simulated cluster and prints concurrency / active-worker
//! strip charts, plus a lazy-vs-eager scale-in ablation.

use pixels_bench::{sparkline, TextTable};
use pixels_server::{ServerConfig, ServerSim, ServiceLevel, Submission};
use pixels_sim::{SimDuration, SimTime};
use pixels_turbo::vm_cluster::BOOT_TIME;
use pixels_turbo::VmConfig;
use pixels_workload::{diurnal, spike, WorkloadTrace};

fn run(subs: Vec<Submission>, vm_cfg: VmConfig) -> pixels_server::SimReport {
    let sim = ServerSim::new(vm_cfg, ServerConfig::default());
    sim.run(subs, SimDuration::from_secs(2 * 3600))
}

fn to_submissions(trace: WorkloadTrace, level: ServiceLevel) -> Vec<Submission> {
    trace
        .entries
        .into_iter()
        .map(|e| Submission {
            at: e.at,
            class: e.class,
            level,
        })
        .collect()
}

fn main() {
    println!("== E4: watermark autoscaler traces (high=5, low=0.75) ==\n");
    let horizon = SimDuration::from_secs(2 * 3600);

    // Diurnal TPC-H-like load: mean ~15 queries/min with a heavy tail, so
    // the daily peak pushes concurrency past the high watermark.
    let arrivals = diurnal(0.25, 0.9, SimDuration::from_secs(3600), horizon, 21);
    let trace = WorkloadTrace::from_arrivals(arrivals, [0.2, 0.4, 0.4], 5);
    let n = trace.len();
    let report = run(
        to_submissions(trace, ServiceLevel::Immediate),
        VmConfig::default(),
    );
    let end = report.end_time;
    println!("Diurnal analytical workload ({n} queries over 2h):");
    println!(
        "  concurrency |{}|",
        sparkline(&report.concurrency_series, SimTime::ZERO, end, 72)
    );
    println!(
        "  VM workers  |{}|",
        sparkline(&report.vm_worker_series, SimTime::ZERO, end, 72)
    );
    println!(
        "  CF workers  |{}|",
        sparkline(&report.cf_worker_series, SimTime::ZERO, end, 72)
    );
    println!(
        "  scale-out events: {}   scale-in events: {}   unfinished: {}\n",
        report.scale_out_times.len(),
        report.scale_in_times.len(),
        report.unfinished
    );
    assert!(
        !report.scale_out_times.is_empty(),
        "diurnal peak must trigger scale-out"
    );
    let peak_workers = report.vm_worker_series.max_over(SimTime::ZERO, end);
    assert!(peak_workers > 1.0, "cluster must have grown");

    // Spiky log-analysis load.
    let arrivals = spike(
        0.02,
        1.0,
        SimDuration::from_secs(1800),
        SimDuration::from_secs(2100),
        horizon,
        33,
    );
    let trace = WorkloadTrace::from_arrivals(arrivals, [0.6, 0.35, 0.05], 9);
    let n = trace.len();
    let report = run(
        to_submissions(trace, ServiceLevel::Immediate),
        VmConfig::default(),
    );
    let end = report.end_time;
    println!("Log-analysis workload with a 5-minute spike ({n} queries):");
    println!(
        "  concurrency |{}|",
        sparkline(&report.concurrency_series, SimTime::ZERO, end, 72)
    );
    println!(
        "  VM workers  |{}|",
        sparkline(&report.vm_worker_series, SimTime::ZERO, end, 72)
    );
    println!(
        "  CF workers  |{}|",
        sparkline(&report.cf_worker_series, SimTime::ZERO, end, 72)
    );
    println!(
        "  CF absorbed {:.0}% of spike-window queries (VM boot lag = {})\n",
        report.cf_fraction(ServiceLevel::Immediate) * 100.0,
        BOOT_TIME,
    );

    // Ablation: lazy vs eager scale-in on the spiky trace (two spikes).
    println!(
        "Ablation: lazy scale-in (cooldown 120s) vs eager (cooldown 0s), two spikes 10 min apart:"
    );
    let arrivals = {
        let mut a = spike(
            0.02,
            0.8,
            SimDuration::from_secs(600),
            SimDuration::from_secs(900),
            SimDuration::from_secs(1500),
            44,
        );
        a.extend(
            spike(
                0.02,
                0.8,
                SimDuration::from_secs(1500),
                SimDuration::from_secs(1800),
                SimDuration::from_secs(2400),
                45,
            )
            .into_iter()
            .filter(|t| *t >= SimTime::from_secs(1500)),
        );
        a.sort();
        a
    };
    let trace = WorkloadTrace::from_arrivals(arrivals, [0.3, 0.6, 0.1], 13);
    let mut table = TextTable::new(&[
        "policy",
        "scale-in events",
        "scale-out events",
        "mean pending (s)",
    ]);
    for (name, cooldown) in [
        ("lazy (120s)", SimDuration::from_secs(120)),
        ("eager (0s)", SimDuration::ZERO),
    ] {
        let cfg = VmConfig {
            scale_in_cooldown: cooldown,
            ..Default::default()
        };
        let report = run(to_submissions(trace.clone(), ServiceLevel::Relaxed), cfg);
        let pending = report.pending_stats(ServiceLevel::Relaxed);
        table.row(&[
            name.to_string(),
            report.scale_in_times.len().to_string(),
            report.scale_out_times.len().to_string(),
            format!("{:.1}", pending.mean().as_secs_f64()),
        ]);
    }
    table.print();
    println!("\ne4_autoscaling: OK");
}
