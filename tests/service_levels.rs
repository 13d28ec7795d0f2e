//! Cross-crate integration tests of the service-level scheduler on the
//! virtual clock: invariants the paper states must hold for any workload.

use pixelsdb::server::{AdmissionMode, ServerConfig, ServerSim, ServiceLevel, Submission};
use pixelsdb::sim::{SimDuration, SimTime};
use pixelsdb::turbo::{Placement, VmConfig};
use pixelsdb::workload::{poisson, QueryClass, WorkloadTrace};

fn mixed_trace(seed: u64, rate: f64, secs: u64) -> Vec<Submission> {
    let arrivals = poisson(rate, SimDuration::from_secs(secs), seed);
    let trace = WorkloadTrace::from_arrivals(arrivals, [0.5, 0.35, 0.15], seed ^ 1);
    trace
        .entries
        .into_iter()
        .enumerate()
        .map(|(i, e)| Submission {
            at: e.at,
            class: e.class,
            level: ServiceLevel::ALL[i % 3],
        })
        .collect()
}

fn run(subs: Vec<Submission>) -> pixelsdb::server::SimReport {
    ServerSim::new(VmConfig::default(), ServerConfig::default())
        .run(subs, SimDuration::from_secs(4 * 3600))
}

#[test]
fn paper_invariants_hold_on_a_mixed_workload() {
    let report = run(mixed_trace(17, 0.08, 1800));
    assert_eq!(report.unfinished, 0);
    assert!(report.records.len() > 50);

    for r in &report.records {
        // 1. Immediate queries never wait.
        if r.mode == AdmissionMode::Level(ServiceLevel::Immediate) {
            assert_eq!(r.pending(), SimDuration::ZERO, "{:?}", r);
        }
        // 2. Only immediate queries may use CF.
        if matches!(r.placement, Placement::Cf { .. }) {
            assert_eq!(
                r.mode,
                AdmissionMode::Level(ServiceLevel::Immediate),
                "{:?}",
                r
            );
        }
        // 3. Relaxed server-side wait is bounded by the grace period.
        if r.mode == AdmissionMode::Level(ServiceLevel::Relaxed) {
            assert!(
                r.dispatched_at.since(r.submitted_at) <= SimDuration::from_secs(300),
                "{:?}",
                r
            );
        }
        // 4. Prices follow the level's $/TB rate exactly.
        let per_tb = 5.0 * r.mode.price_fraction();
        let expected = per_tb * r.scan_bytes as f64 / 1e12;
        assert!((r.price - expected).abs() < 1e-12);
        // 5. Time sanity: submitted <= dispatched <= started <= finished.
        assert!(r.submitted_at <= r.dispatched_at);
        assert!(r.dispatched_at <= r.started_at);
        assert!(r.started_at < r.finished_at);
    }
}

#[test]
fn a_relaxed_or_besteffort_query_may_run_immediately_when_idle() {
    // Paper: "Even for a relaxed or best-of-effort query, it may be executed
    // immediately if the VM cluster is available."
    for level in [ServiceLevel::Relaxed, ServiceLevel::BestEffort] {
        let report = run(vec![Submission {
            at: SimTime::from_secs(10),
            class: QueryClass::Light,
            level,
        }]);
        let r = &report.records[0];
        assert_eq!(
            r.pending(),
            SimDuration::ZERO,
            "{level}: idle cluster runs it now"
        );
        assert_eq!(r.placement, Placement::Vm);
    }
}

#[test]
fn heavier_load_increases_cf_usage_only_for_immediate() {
    let light = run(mixed_trace(3, 0.02, 1200));
    let heavy = run(mixed_trace(3, 0.3, 1200));
    assert!(
        heavy.cf_fraction(ServiceLevel::Immediate) >= light.cf_fraction(ServiceLevel::Immediate)
    );
    assert_eq!(heavy.cf_fraction(ServiceLevel::Relaxed), 0.0);
    assert_eq!(heavy.cf_fraction(ServiceLevel::BestEffort), 0.0);
}

#[test]
fn simulation_is_reproducible() {
    let a = run(mixed_trace(9, 0.1, 900));
    let b = run(mixed_trace(9, 0.1, 900));
    assert_eq!(a.records, b.records);
    assert_eq!(a.total_resource_cost, b.total_resource_cost);
    assert_eq!(a.scale_out_times, b.scale_out_times);
}

#[test]
fn cluster_scales_out_and_back_in() {
    // A spike followed by silence: workers grow, then lazy scale-in returns
    // the cluster to its floor.
    let mut subs: Vec<Submission> = (0..30)
        .map(|_| Submission {
            at: SimTime::from_secs(30),
            class: QueryClass::Medium,
            level: ServiceLevel::Relaxed,
        })
        .collect();
    subs.push(Submission {
        at: SimTime::from_secs(2400),
        class: QueryClass::Light,
        level: ServiceLevel::Relaxed,
    });
    let report = run(subs);
    assert_eq!(report.unfinished, 0);
    assert!(!report.scale_out_times.is_empty());
    assert!(!report.scale_in_times.is_empty());
    let end_workers = report
        .vm_worker_series
        .value_at(report.end_time)
        .unwrap_or(0.0);
    assert_eq!(end_workers, 1.0, "back to min_workers after the quiet tail");
}
