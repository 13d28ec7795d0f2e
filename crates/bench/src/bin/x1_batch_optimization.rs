//! X1 (extension) — batch query optimization for best-of-effort queries.
//!
//! The paper closes with: the service levels "also provide opportunities
//! for batch query optimization." This harness implements and measures the
//! most natural such optimization: same-class best-of-effort queries parked
//! in the query server are merged into one execution that shares a single
//! table scan. The ablation compares batching off vs on. Sharing never
//! changes a bill — each query pays for the bytes its own plan reads — so
//! the saving is the provider's: less CPU, and an earlier finish.

use pixels_bench::TextTable;
use pixels_server::{QueryRecord, ServerConfig, ServerSim, ServiceLevel, SimReport, Submission};
use pixels_sim::{SimDuration, SimTime};
use pixels_turbo::{CfConfig, ResourcePricing, VmConfig};
use pixels_workload::QueryClass;

fn run(batching: bool, n_queries: usize) -> SimReport {
    let cfg = ServerConfig {
        batch_besteffort: batching,
        ..Default::default()
    };
    // A busy foreground so the best-of-effort queries accumulate in the
    // server queue before the cluster goes idle.
    let mut subs: Vec<Submission> = (0..8)
        .map(|_| Submission {
            at: SimTime::from_secs(1),
            class: QueryClass::Medium,
            level: ServiceLevel::Immediate,
        })
        .collect();
    for i in 0..n_queries {
        subs.push(Submission {
            at: SimTime::from_secs(2 + i as u64 % 5),
            class: QueryClass::Medium,
            level: ServiceLevel::BestEffort,
        });
    }
    ServerSim::new(
        VmConfig::default(),
        CfConfig::default(),
        ResourcePricing::default(),
        cfg,
    )
    .run(subs, SimDuration::from_secs(4 * 3600))
}

fn main() {
    println!("== X1 (extension): batch query optimization for best-of-effort ==\n");
    let mut table = TextTable::new(&[
        "queries",
        "mode",
        "total bytes billed",
        "total user bill ($)",
        "provider cost ($)",
        "makespan (s)",
    ]);
    let sum_cost = |be: &[QueryRecord]| -> f64 { be.iter().map(|r| r.resource_cost.total()).sum() };
    let mut saving = 0.0;
    for n in [4usize, 16, 32] {
        let [plain, batched] = [false, true].map(|batching| {
            let report = run(batching, n);
            assert_eq!(report.unfinished, 0);
            let be: Vec<QueryRecord> = report
                .records_at(ServiceLevel::BestEffort)
                .copied()
                .collect();
            assert_eq!(be.len(), n, "every member gets a record");
            let bytes: u64 = be.iter().map(|r| r.scan_bytes).sum();
            let bill: f64 = be.iter().map(|r| r.price).sum();
            let makespan = be
                .iter()
                .map(|r| r.finished_at)
                .max()
                .unwrap()
                .since(SimTime::from_secs(2));
            table.row(&[
                n.to_string(),
                if batching { "batched" } else { "one-by-one" }.to_string(),
                pixels_common::bytesize::format_bytes(bytes),
                format!("{bill:.6}"),
                format!("{:.6}", sum_cost(&be)),
                format!("{:.0}", makespan.as_secs_f64()),
            ]);
            be
        });
        // Each query's bill is the same, to the bit, batched or alone.
        for (p, b) in plain.iter().zip(&batched) {
            assert_eq!((p.id, p.scan_bytes), (b.id, b.scan_bytes));
            assert_eq!(p.price.to_bits(), b.price.to_bits(), "{:?}", b.id);
        }
        // ...and the provider pays less.
        let (plain, batched) = (sum_cost(&plain), sum_cost(&batched));
        assert!(batched < plain * 0.8, "{n} queries: {batched} vs {plain}");
        saving = 1.0 - batched / plain;
    }
    table.print();
    println!(
        "\nSharing one scan across a batch leaves every bill unchanged and cuts provider cost by {:.0}%.",
        saving * 100.0
    );
    println!("x1_batch_optimization: OK");
}
