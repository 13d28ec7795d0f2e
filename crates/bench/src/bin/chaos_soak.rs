//! `chaos_soak` — the CI fault gate: a seeded scenario table proving that
//! fault injection, CF acceleration and shuffles change *when* queries
//! finish, never *what* they answer or what anyone is billed.
//!
//! Every row of the table names a seed, a fault plan (object-store GET
//! errors or latency spikes, CF crashes or stragglers, exchange spill
//! PUT/GET errors, stage crashes), an engine config, its queries and its
//! service levels. Each runs through a faulted deployment and a fault-free
//! twin that differ in the plan only, and the gate asserts per row and
//! level:
//!
//! 1. **Result equivalence** — every batch is bit-identical to the twin's.
//! 2. **Billing equivalence** — billed `scan_bytes`, the user price and the
//!    provider shuffle dollars match exactly: retries re-read for free,
//!    failed GETs bill nothing, speculation bills only the winner, and spill
//!    traffic never reaches the bill.
//! 3. **Books and GC** — both deployments' ledgers reconcile with their
//!    query records, no spill object outlives its query, and `/metrics`
//!    stays a valid exposition.
//! 4. **Fault reach** — where the row's faults can reach (every level of a
//!    storage row; the CF levels of the others) faults are injected and the
//!    row's counters are nonzero; elsewhere both are zero, so a VM plan never
//!    touches CF or the exchange.
//!
//! Storage rows share one deployment pair per level and run on the VM path.
//! CF, shuffle and exchange rows build a fresh pair per query (so each query
//! sees the faults fresh), warm it with one Relaxed run (so both sides bill
//! from the same cache state), and at CF levels hold the single VM slot so
//! the measured run dispatches to CF. A prefetch-vs-sync row checks that
//! faults on prefetched GETs retry and bill like synchronous ones.
//!
//! Prints one `ok`/`FAIL` line per row and level, one table, and writes
//! `results/chaos_soak.json`, which a rerun reproduces byte for byte, and
//! `target/chaos_soak_latency.json`, the wall-clock means the table prints,
//! which differ from run to run; exits non-zero on any failed row.

use pixels_bench::soak::{check_pair, metric_value, Deployment, RunRecord};
use pixels_bench::{on_cf, Gate, TextTable};
use pixels_chaos::{FaultPlan, FaultSite, SiteSpec};
use pixels_common::Json;
use pixels_server::ServiceLevel;
use pixels_turbo::EngineConfig;
use pixels_workload::all_queries;

/// The seed of the storage, CF and shuffle rows.
const CHAOS_SEED: u64 = 20260806;
/// The seed of the exchange rows, which cross every level.
const EXCHANGE_SEED: u64 = 20260807;

const STORAGE_FAULTS: &str = "pixels_faults_injected_total{site=\"storage_get\"}";
const PUT_FAULTS: &str = "pixels_faults_injected_total{site=\"exchange_put\"}";
const GET_FAULTS: &str = "pixels_faults_injected_total{site=\"exchange_get\"}";
const RELAUNCHES: &str = "pixels_turbo_cf_retries_total";
const PUT_BYTES: &str = "pixels_exchange_put_bytes_total";

type Queries = Vec<(&'static str, &'static str)>;

/// The TPC-H templates.
fn tpch() -> Queries {
    let queries: Queries = (all_queries().into_iter())
        .filter(|q| q.database == "tpch")
        .map(|q| (q.id, q.sql))
        .collect();
    assert!(queries.len() >= 5, "expected several TPC-H templates");
    queries
}

/// Shuffleable TPC-H queries: one aggregation, one equi-join.
fn shuffleable() -> Queries {
    vec![
        (
            "shuffle_agg",
            "SELECT o_orderstatus, COUNT(*) AS n FROM orders \
             GROUP BY o_orderstatus ORDER BY n DESC",
        ),
        (
            "shuffle_join",
            "SELECT c_name, o_orderkey FROM customer \
             JOIN orders ON c_custkey = o_custkey \
             ORDER BY o_orderkey, c_name LIMIT 20",
        ),
    ]
}

/// One scenario.
struct Row {
    name: &'static str,
    seed: u64,
    /// The fault plan, from the seed.
    plan: fn(u64) -> FaultPlan,
    config: EngineConfig,
    /// A fresh deployment pair per query and the VM slot held at CF levels
    /// (CF, shuffle and exchange rows), or one pair per level on the VM path
    /// (storage rows).
    cf: bool,
    queries: Queries,
    levels: &'static [ServiceLevel],
    /// `/metrics` samples of the faulted side that must be > 0 where the
    /// faults reach and 0 elsewhere.
    counters: &'static [&'static str],
}

fn rows() -> Vec<Row> {
    let storage = |name, plan, counters| Row {
        name,
        seed: CHAOS_SEED,
        plan,
        config: EngineConfig::default(),
        cf: false,
        queries: tpch(),
        levels: &ServiceLevel::ALL,
        counters,
    };
    // One VM slot, so a held slot sends Immediate work to CF.
    let one_slot = EngineConfig {
        vm_slots: 1,
        ..EngineConfig::default()
    };
    let cf = |name, plan, queries, counters| Row {
        name,
        seed: CHAOS_SEED,
        plan,
        config: one_slot,
        cf: true,
        queries,
        levels: &[ServiceLevel::Immediate],
        counters,
    };
    // Two-stage exchange plans with a 4-way fan-out.
    let shuffle = |name, plan, counters| Row {
        config: EngineConfig {
            exchange_partitions: 4,
            ..one_slot
        },
        ..cf(name, plan, shuffleable(), counters)
    };
    let exchange = |name, plan, counters| Row {
        seed: EXCHANGE_SEED,
        levels: &ServiceLevel::ALL,
        ..shuffle(name, plan, counters)
    };
    let crash_once =
        |s| FaultPlan::none(s).with(FaultSite::CfCrash, SiteSpec::errors(1.0).capped(1));
    vec![
        // Retries must mask every injected GET error.
        storage(
            "get_errors_30pct",
            |s| FaultPlan::get_errors(s, 0.30),
            &[
                STORAGE_FAULTS,
                "pixels_retries_total{site=\"storage_get\"}",
                "pixels_storage_gets_failed_total",
            ],
        ),
        storage(
            "get_latency_spikes_25pct",
            |s| FaultPlan::get_latency_spikes(s, 0.25, 1, 4),
            &[STORAGE_FAULTS],
        ),
        // Placement is pinned CF on both sides: `capped` plans keep the
        // relaunch or speculative duplicate on the CF path, so billed bytes
        // stay comparable. (Degradation to VM changes placement and is
        // asserted result-equivalent in tests/chaos_recovery.rs instead.)
        cf("cf_crash_relaunch", crash_once, tpch(), &[RELAUNCHES]),
        cf(
            "cf_straggler_speculate",
            |s| {
                FaultPlan::none(s).with(
                    FaultSite::CfStraggler,
                    SiteSpec::delays(1.0, 1_200_000, 1_200_000).capped(1),
                )
            },
            tpch(),
            &["pixels_speculative_launches_total"],
        ),
        // Spill faults at 30 %, each retried invisibly, and a stage crash.
        shuffle(
            "shuffle_exchange_put_errors",
            |s| FaultPlan::exchange_put_errors(s, 0.30),
            &[PUT_BYTES, PUT_FAULTS],
        ),
        shuffle(
            "shuffle_exchange_get_errors",
            |s| FaultPlan::exchange_get_errors(s, 0.30),
            &[PUT_BYTES, GET_FAULTS],
        ),
        shuffle("shuffle_stage_crash", crash_once, &[PUT_BYTES, RELAUNCHES]),
        // Error bursts sized to the retry budget (4 retries): the first spill
        // PUT/GET absorbs the whole burst and succeeds on its last retry, so
        // the CF path survives instead of degrading to VM. Below Immediate the
        // VM plan must see no exchange traffic and no exchange faults.
        exchange(
            "exchange_put_error_burst",
            |s| FaultPlan::none(s).with(FaultSite::ExchangePut, SiteSpec::errors(1.0).capped(4)),
            &[PUT_BYTES, PUT_FAULTS],
        ),
        exchange(
            "exchange_get_error_burst",
            |s| FaultPlan::none(s).with(FaultSite::ExchangeGet, SiteSpec::errors(1.0).capped(4)),
            &[PUT_BYTES, GET_FAULTS],
        ),
        exchange("stage_crash_relaunch", crash_once, &[PUT_BYTES, RELAUNCHES]),
    ]
}

/// One row at one level, rolled up.
#[derive(Default)]
struct Outcome {
    key: String,
    failures: Vec<String>,
    base: Vec<RunRecord>,
    chaos: Vec<RunRecord>,
    equivalent: usize,
    faults: u64,
    exchange_faults: u64,
    put_bytes: f64,
}

impl Outcome {
    /// Count the faults and spill bytes of a faulted deployment whose
    /// `/metrics` reads `text`.
    fn observe(&mut self, chaos: &Deployment, text: &str) {
        let injected = |site| chaos.injector.injected_at(site);
        self.faults += chaos.injector.injected_total();
        self.exchange_faults += injected(FaultSite::ExchangePut) + injected(FaultSite::ExchangeGet);
        self.put_bytes += metric_value(text, PUT_BYTES);
    }

    fn sum(runs: &[RunRecord], f: impl Fn(&RunRecord) -> f64) -> f64 {
        runs.iter().map(f).sum()
    }

    fn mean_ms(runs: &[RunRecord]) -> f64 {
        Self::sum(runs, |r| r.latency.as_secs_f64() * 1e3) / runs.len().max(1) as f64
    }

    fn availability(&self) -> f64 {
        self.chaos.iter().filter(|r| r.finished).count() as f64 / self.chaos.len() as f64
    }

    fn to_json(&self) -> Json {
        Json::object([
            ("queries", Json::number(self.chaos.len() as f64)),
            ("equivalent", Json::number(self.equivalent as f64)),
            ("faults_injected", Json::number(self.faults as f64)),
            (
                "retries",
                Json::number(Self::sum(&self.chaos, |r| r.retries as f64)),
            ),
            ("availability", Json::number(self.availability())),
            (
                "baseline_bill_dollars",
                Json::number(Self::sum(&self.base, |r| r.price)),
            ),
            (
                "chaos_bill_dollars",
                Json::number(Self::sum(&self.chaos, |r| r.price)),
            ),
            ("exchange_faults", Json::number(self.exchange_faults as f64)),
            ("exchange_put_bytes", Json::number(self.put_bytes)),
            (
                "shuffle_dollars",
                Json::number(Self::sum(&self.chaos, |r| r.shuffle_dollars)),
            ),
        ])
    }

    /// The row's wall-clock means, which differ from run to run and so stay
    /// out of `results/`.
    fn latency_json(&self) -> Json {
        Json::object([
            (
                "baseline_latency_ms",
                Json::number(Self::mean_ms(&self.base)),
            ),
            ("chaos_latency_ms", Json::number(Self::mean_ms(&self.chaos))),
        ])
    }

    fn table_row(&self) -> Vec<String> {
        let (name, level) = self.key.split_once('/').unwrap();
        let bill = |runs| Self::sum(runs, |r| r.price);
        vec![
            name.to_string(),
            level.to_string(),
            self.chaos.len().to_string(),
            self.equivalent.to_string(),
            self.faults.to_string(),
            self.exchange_faults.to_string(),
            Self::sum(&self.chaos, |r| r.retries as f64).to_string(),
            format!("{:.0}%", self.availability() * 100.0),
            format!("{:.1}", self.put_bytes / 1024.0),
            format!("{:.9}", Self::sum(&self.chaos, |r| r.shuffle_dollars)),
            format!("{:.1}", Self::mean_ms(&self.base)),
            format!("{:.1}", Self::mean_ms(&self.chaos)),
            format!("{:+.6}", bill(&self.chaos) - bill(&self.base)),
        ]
    }
}

/// Compare faulted runs with their fault-free twins: how many pairs agree,
/// and every divergence.
fn compare(base: &[RunRecord], chaos: &[RunRecord]) -> (usize, Vec<String>) {
    let diverged: Vec<String> = (base.iter().zip(chaos))
        .filter_map(|(b, c)| check_pair(b, c).err())
        .collect();
    (base.len() - diverged.len(), diverged)
}

/// Run one row at one level.
fn run_row(row: &Row, level: ServiceLevel) -> Outcome {
    let held = row.cf && level.cf_enabled();
    let reached = !row.cf || held;
    let groups: Vec<&[(&str, &str)]> = match row.cf {
        true => row.queries.chunks(1).collect(),
        false => vec![&row.queries],
    };
    let mut out = Outcome {
        key: format!("{}/{}", row.name, level.name()),
        ..Outcome::default()
    };
    let (mut audits, mut counters) = (Vec::new(), vec![0.0; row.counters.len()]);
    for group in groups {
        let base = Deployment::new(&FaultPlan::none(row.seed), row.config);
        let chaos = Deployment::new(&(row.plan)(row.seed), row.config);
        for &(qid, sql) in group {
            let run = |d: &Deployment| match held {
                true => {
                    // Warm on the VM path, so both twins bill from the same
                    // cache state, then run on CF.
                    d.run_query(sql, qid, ServiceLevel::Relaxed);
                    on_cf(d.server.engine(), || d.run_query(sql, qid, level))
                }
                false => d.run_query(sql, qid, level),
            };
            out.base.push(run(&base));
            out.chaos.push(run(&chaos));
        }
        base.audit("baseline", &mut audits);
        chaos.audit("chaos", &mut audits);
        let text = chaos.server.metrics_text();
        out.observe(&chaos, &text);
        for (sum, needle) in counters.iter_mut().zip(row.counters) {
            *sum += metric_value(&text, needle);
        }
    }
    let (equivalent, diverged) = compare(&out.base, &out.chaos);
    out.equivalent = equivalent;
    out.failures = diverged.into_iter().chain(audits).collect();
    if reached != (out.faults > 0) {
        out.failures.push(format!("{} faults injected", out.faults));
    }
    for (needle, sum) in row.counters.iter().zip(counters) {
        if reached != (sum > 0.0) {
            out.failures.push(format!("{needle} = {sum}"));
        }
    }
    out
}

/// The same seeded GET-error plan on deployments whose scans prefetch
/// (vectored GETs in flight on the scan's I/O threads), at the default depth
/// and at depth 4, and on one that fetches synchronously. Which request a
/// fault lands on differs with the depth; results, bytes and bills may not,
/// across all of them and against a fault-free baseline. The row reports
/// the default-depth side.
fn prefetch_vs_sync() -> Outcome {
    let queries = tpch();
    let mut audits = Vec::new();
    let mut run = |plan: &FaultPlan, prefetch_depth, side: &str| {
        let d = Deployment::new(
            plan,
            EngineConfig {
                prefetch_depth,
                ..EngineConfig::default()
            },
        );
        let runs: Vec<_> = (queries.iter())
            .map(|&(qid, sql)| d.run_query(sql, qid, ServiceLevel::Immediate))
            .collect();
        d.audit(side, &mut audits);
        (d, runs)
    };
    let plan = FaultPlan::get_errors(CHAOS_SEED, 0.30);
    let default_depth = EngineConfig::default().prefetch_depth;
    let (_, base) = run(&FaultPlan::none(CHAOS_SEED), default_depth, "baseline");
    let mut out: Option<Outcome> = None;
    let mut failures = Vec::new();
    for (side, depth) in [
        ("prefetch", default_depth),
        ("prefetch_depth4", 4),
        ("sync", 0),
    ] {
        let (d, runs) = run(&plan, depth, side);
        // Equal to the baseline, every side equals every other.
        let (equivalent, diverged) = compare(&base, &runs);
        failures.extend(diverged.into_iter().map(|f| format!("{side}: {f}")));
        let text = d.server.metrics_text();
        if depth > 0 {
            for needle in [
                "pixels_scan_prefetch_issued_total",
                STORAGE_FAULTS,
                "pixels_retries_total{site=\"storage_get\"}",
            ] {
                if metric_value(&text, needle) <= 0.0 {
                    failures.push(format!("{side}: {needle} = 0"));
                }
            }
            if runs.iter().all(|r| r.retries == 0) {
                failures.push(format!("{side}: prefetched GET faults were not retried"));
            }
        }
        out.get_or_insert_with(|| {
            let level = ServiceLevel::Immediate.name();
            let mut o = Outcome {
                key: format!("get_errors_30pct_prefetch_vs_sync/{level}"),
                base: base.clone(),
                chaos: runs,
                equivalent,
                ..Outcome::default()
            };
            o.observe(&d, &text);
            o
        });
    }
    let mut out = out.unwrap();
    out.failures = failures.into_iter().chain(audits).collect();
    out
}

fn main() {
    let mut gate = Gate::default();
    let rows = rows();
    let runs = rows
        .iter()
        .flat_map(|row| row.levels.iter().map(move |&level| run_row(row, level)));
    let mut outcomes = Vec::new();
    for o in runs.chain(std::iter::once_with(prefetch_vs_sync)) {
        gate.check(&o.key, o.failures.is_empty(), &o.failures.join("; "));
        outcomes.push(o);
    }

    let mut table = TextTable::new(&[
        "scenario",
        "level",
        "queries",
        "equiv",
        "faults",
        "xchg faults",
        "retries",
        "avail",
        "spill KiB",
        "shuffle $",
        "base ms",
        "chaos ms",
        "bill Δ$",
    ]);
    for o in &outcomes {
        table.row(&o.table_row());
    }
    table.print();
    let report = |json: fn(&Outcome) -> Json| {
        Json::object(outcomes.iter().map(|o| (o.key.clone(), json(o)))).to_compact_string()
    };
    gate.write("chaos_soak.json", &report(Outcome::to_json));
    gate.write_volatile("chaos_soak_latency.json", &report(Outcome::latency_json));
    gate.finish("all scenarios equivalent: identical results and bills under every fault plan");
}
