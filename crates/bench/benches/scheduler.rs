//! Microbenchmarks for the simulation substrate: event-queue throughput and
//! full scheduling-simulation wall time (the experiments must stay cheap to
//! iterate on).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pixels_server::{ServerConfig, ServerSim, ServiceLevel, Submission};
use pixels_sim::{EventQueue, SimDuration, SimTime};
use pixels_turbo::{CfConfig, ResourcePricing, VmConfig};
use pixels_workload::{poisson, QueryClass, WorkloadTrace};

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    const N: u64 = 100_000;
    g.throughput(Throughput::Elements(N));
    g.bench_function("schedule_pop_100k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..N {
                // Pseudo-shuffled times.
                q.schedule(SimTime::from_micros((i * 2_654_435_761) % 1_000_000_000), i);
            }
            let mut count = 0u64;
            while q.pop().is_some() {
                count += 1;
            }
            count
        })
    });
    g.finish();
}

fn bench_server_sim(c: &mut Criterion) {
    let arrivals = poisson(0.2, SimDuration::from_secs(1800), 3);
    let trace = WorkloadTrace::from_arrivals(arrivals, [0.5, 0.4, 0.1], 4);
    let subs: Vec<Submission> = trace
        .entries
        .iter()
        .map(|e| Submission {
            at: e.at,
            class: e.class,
            level: ServiceLevel::Immediate,
        })
        .collect();
    let mut g = c.benchmark_group("server_sim");
    g.sample_size(10);
    g.bench_function("30min_trace", |b| {
        b.iter(|| {
            let sim = ServerSim::new(
                VmConfig::default(),
                CfConfig::default(),
                ResourcePricing::default(),
                ServerConfig::default(),
            );
            sim.run(subs.clone(), SimDuration::from_secs(3600))
                .records
                .len()
        })
    });
    g.finish();
}

fn bench_query_class_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_single_query");
    g.bench_function("medium_query_lifecycle", |b| {
        b.iter(|| {
            let sim = ServerSim::with_defaults();
            let subs = vec![Submission {
                at: SimTime::from_secs(1),
                class: QueryClass::Medium,
                level: ServiceLevel::Immediate,
            }];
            sim.run(subs, SimDuration::from_secs(600)).records.len()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_server_sim,
    bench_query_class_sim
);
criterion_main!(benches);
