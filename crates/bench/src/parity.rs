//! Sim-vs-real policy differential (the `policy_parity` CI gate).
//!
//! The scheduling & recovery policy core (`pixels_turbo::policy`) is shared
//! by the real [`TurboEngine`] and the simulated
//! [`Coordinator`](pixels_turbo::Coordinator); this harness proves the
//! sharing is real. For each scenario it drives the *same* query with the
//! *same* seeded fault plan through both drivers and asserts:
//!
//! 1. **Decision parity** — the ordered [`Decision`] sequences are
//!    bit-identical (dispatch, crash, relaunch, speculation, degradation).
//! 2. **Bill parity** — the user's $/TB bill is identical (the sim prices
//!    the bytes the real execution measured).
//! 3. **Cost parity** — the modelled provider cost of the accepted
//!    execution and the total CF spend across all attempts (crashed and
//!    cancelled fleets included) are bit-identical f64s.

use pixels_catalog::Catalog;
use pixels_chaos::{FaultInjector, FaultPlan, FaultSite, SiteSpec};
use pixels_common::{Json, QueryId};
use pixels_obs::MetricsRegistry;
use pixels_server::{PriceSchedule, ServiceLevel};
use pixels_sim::{SimDuration, SimTime};
use pixels_storage::InMemoryObjectStore;
use pixels_turbo::{
    policy, Coordinator, CostBreakdown, Decision, EngineConfig, QueryWork, TurboEngine, VmConfig,
};
use pixels_workload::{load_tpch, QueryClass, TpchConfig};
use std::sync::Arc;

/// The workload every scenario drives: a splittable aggregation, so the CF
/// path is available whenever the service level enables it.
const SQL: &str = "SELECT o_orderstatus, COUNT(*) AS n FROM orders GROUP BY o_orderstatus";

/// One differential scenario: a fault plan plus the service level that
/// selects the execution path.
pub struct Scenario {
    pub name: &'static str,
    pub plan: FaultPlan,
    pub level: ServiceLevel,
    /// Exchange fan-out: above 1 the CF path runs the query as a two-stage
    /// shuffle (one [`pixels_turbo::CfRace`] per stage on both drivers);
    /// `0` enables cost-based auto sizing (the scenario SQL's exchange is
    /// below the auto threshold, so it exercises the sized single-stage
    /// path).
    pub partitions: usize,
}

/// The scenario matrix: clean paths, crash recovery (single and total),
/// and straggler speculation.
pub fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "clean-vm",
            plan: FaultPlan::none(11),
            level: ServiceLevel::Relaxed,
            partitions: 1,
        },
        Scenario {
            name: "clean-cf",
            plan: FaultPlan::none(12),
            level: ServiceLevel::Immediate,
            partitions: 1,
        },
        Scenario {
            name: "cf-crash-once",
            plan: FaultPlan::none(42).with(FaultSite::CfCrash, SiteSpec::errors(1.0).capped(1)),
            level: ServiceLevel::Immediate,
            partitions: 1,
        },
        Scenario {
            name: "cf-crash-always",
            plan: FaultPlan::cf_crashes(7, 1.0),
            level: ServiceLevel::Immediate,
            partitions: 1,
        },
        Scenario {
            name: "cf-straggler",
            plan: FaultPlan::none(3).with(
                FaultSite::CfStraggler,
                // 5 s: far beyond both the engine's wall-clock deadline and
                // the sim's modelled one, so both speculate.
                SiteSpec::delays(1.0, 5_000_000, 5_000_000).capped(1),
            ),
            level: ServiceLevel::Immediate,
            partitions: 1,
        },
        Scenario {
            name: "auto-sized-clean-cf",
            plan: FaultPlan::none(31),
            level: ServiceLevel::Immediate,
            partitions: 0,
        },
        Scenario {
            name: "auto-sized-crash-once",
            plan: FaultPlan::none(33).with(FaultSite::CfCrash, SiteSpec::errors(1.0).capped(1)),
            level: ServiceLevel::Immediate,
            partitions: 0,
        },
        Scenario {
            name: "shuffle-clean",
            plan: FaultPlan::none(21),
            level: ServiceLevel::Immediate,
            partitions: 4,
        },
        Scenario {
            name: "shuffle-stage-crash",
            plan: FaultPlan::none(42).with(FaultSite::CfCrash, SiteSpec::errors(1.0).capped(1)),
            level: ServiceLevel::Immediate,
            partitions: 4,
        },
    ]
}

/// Both sides of one scenario, after the differential assertions passed.
pub struct ParityReport {
    pub name: &'static str,
    pub decisions: Vec<Decision>,
    pub bill: f64,
    pub scan_bytes: u64,
    pub resource_cost: CostBreakdown,
    pub provider_cf_dollars: f64,
    pub shuffle_dollars: f64,
}

impl ParityReport {
    pub fn to_json(&self) -> Json {
        Json::object([
            ("scenario", Json::string(self.name)),
            (
                "decisions",
                Json::array(
                    self.decisions
                        .iter()
                        .map(|d| Json::string(format!("{d:?}"))),
                ),
            ),
            ("bill_dollars", Json::number(self.bill)),
            ("scan_bytes", Json::number(self.scan_bytes as f64)),
            (
                "resource_vm_dollars",
                Json::number(self.resource_cost.vm_dollars),
            ),
            (
                "resource_cf_dollars",
                Json::number(self.resource_cost.cf_dollars),
            ),
            (
                "provider_cf_dollars",
                Json::number(self.provider_cf_dollars),
            ),
            ("shuffle_dollars", Json::number(self.shuffle_dollars)),
        ])
    }
}

fn engine_for(plan: &FaultPlan, partitions: usize) -> Arc<TurboEngine> {
    let catalog = Catalog::shared();
    let store = InMemoryObjectStore::shared();
    load_tpch(
        &catalog,
        store.as_ref(),
        "tpch",
        &TpchConfig {
            scale: 0.0005,
            seed: 1,
            row_group_rows: 512,
            files_per_table: 1,
        },
    )
    .expect("load tpch");
    Arc::new(
        TurboEngine::new(
            catalog,
            store,
            EngineConfig {
                vm_slots: 1,
                exchange_partitions: partitions,
                ..EngineConfig::default()
            },
        )
        .with_registry(MetricsRegistry::shared())
        .with_chaos(Arc::new(FaultInjector::new(plan))),
    )
}

/// Real side: execute `SQL` on a fresh chaos-enabled engine. CF scenarios
/// hold the single VM slot so the engine takes the CF path.
fn run_real(s: &Scenario) -> pixels_turbo::ExecOutcome {
    let engine = engine_for(&s.plan, s.partitions);
    if !s.level.cf_enabled() {
        return engine.execute_sql("tpch", SQL, false).expect("vm query");
    }
    crate::on_cf(&engine, || {
        engine.execute_sql("tpch", SQL, true).expect("cf query")
    })
}

/// Sim side: the identical work (the real execution's measured scan bytes
/// on the plan's modelled CPU demand) through a coordinator seeded with the
/// same fault plan. CF scenarios overload the VM cluster first so the
/// placement rule picks CF, mirroring the saturated real engine. Returns the
/// query's completion, decision log included, and the provider CF spend.
fn run_sim(
    s: &Scenario,
    work: QueryWork,
    exchange: Option<(u64, u64)>,
) -> (pixels_turbo::QueryCompletion, f64) {
    let mut coord = Coordinator::new(VmConfig::default(), SimTime::ZERO)
        .with_fault_injector(Arc::new(FaultInjector::new(&s.plan)));
    let t0 = SimTime::from_millis(100);
    let id = QueryId(100);
    if s.level.cf_enabled() {
        // Heavy foreground queries hold the cluster at the high watermark
        // for the whole race, like the saturated slot on the real engine.
        for i in 0..5 {
            coord.submit(
                QueryId(i),
                QueryWork::from_class(QueryClass::Heavy),
                false,
                t0,
            );
        }
        assert!(coord.overloaded(), "foreground load must overload");
    }
    match exchange {
        // Shuffle: the sim prices the spill traffic the real engine
        // measured; stage costs come from the shared per-stage work split.
        Some((put, get)) => coord.submit_shuffle(id, work, put, get, t0),
        None => coord.submit(id, work, s.level.cf_enabled(), t0),
    }

    // Wake the model at each of its events until the query completes.
    let budget = t0 + SimDuration::from_secs(8 * 3600);
    let done = loop {
        let at = coord.next_event();
        assert!(at <= budget, "sim query completes within budget");
        if let Some(done) = coord.wake(at).0.into_iter().find(|d| d.id == id) {
            break done;
        }
    };
    (done, coord.total_resource_cost().cf_dollars)
}

/// Run one scenario through both drivers and assert parity. Panics with a
/// labelled diff on any mismatch (this is the CI gate).
pub fn run_scenario(s: &Scenario) -> ParityReport {
    let out = run_real(s);
    // The sim executes the same work the real engine modelled: the plan's
    // CPU demand with the real execution's billed bytes.
    let plan = {
        let catalog = Catalog::shared();
        let store = InMemoryObjectStore::shared();
        load_tpch(
            &catalog,
            store.as_ref(),
            "tpch",
            &TpchConfig {
                scale: 0.0005,
                seed: 1,
                row_group_rows: 512,
                files_per_table: 1,
            },
        )
        .expect("load tpch");
        pixels_planner::plan_query(&catalog, "tpch", SQL).expect("plan")
    };
    // Fleet right-sizing is part of the shared policy surface: the sim
    // receives the same sized work the engine's cost model produced (sizing
    // only touches `parallelism`, so the measured-bytes substitution
    // commutes with it).
    let work = policy::sized_work(&QueryWork {
        scan_bytes: out.bytes_scanned,
        ..QueryWork::from_plan(&plan)
    });
    let exchange = (s.partitions > 1 && out.used_cf)
        .then_some((out.exchange.put_bytes, out.exchange.get_bytes));
    let (done, sim_cf_total) = run_sim(s, work, exchange);

    assert_eq!(
        out.provider_shuffle_dollars.to_bits(),
        done.shuffle_dollars.to_bits(),
        "[{}] provider shuffle spend diverged: {} vs {}",
        s.name,
        out.provider_shuffle_dollars,
        done.shuffle_dollars
    );

    assert_eq!(
        out.decisions, done.decisions,
        "[{}] decision sequences diverged (real vs sim)",
        s.name
    );
    let prices = PriceSchedule::default();
    let bill_real = prices.bill(s.level, out.bytes_scanned);
    let bill_sim = prices.bill(s.level, done.scan_bytes);
    assert_eq!(
        bill_real.to_bits(),
        bill_sim.to_bits(),
        "[{}] user bills diverged: {bill_real} vs {bill_sim}",
        s.name
    );
    assert_eq!(
        out.resource_cost.vm_dollars.to_bits(),
        done.cost.vm_dollars.to_bits(),
        "[{}] accepted-execution VM cost diverged: {} vs {}",
        s.name,
        out.resource_cost.vm_dollars,
        done.cost.vm_dollars
    );
    assert_eq!(
        out.resource_cost.cf_dollars.to_bits(),
        done.cost.cf_dollars.to_bits(),
        "[{}] accepted-execution CF cost diverged: {} vs {}",
        s.name,
        out.resource_cost.cf_dollars,
        done.cost.cf_dollars
    );
    assert_eq!(
        out.provider_cf_dollars.to_bits(),
        sim_cf_total.to_bits(),
        "[{}] provider CF spend diverged: {} vs {}",
        s.name,
        out.provider_cf_dollars,
        sim_cf_total
    );
    // Ledger parity: filing both sides' dollars through the economics
    // ledger's own entry type must agree on every derived figure — waste
    // (provider CF spend beyond the accepted run), total provider spend,
    // and margin — bit-for-bit, plus the degradation/speculation flags.
    let entry = |revenue: f64,
                 cost: CostBreakdown,
                 provider_cf: f64,
                 shuffle: f64,
                 decisions: &[Decision]| {
        pixels_obs::LedgerEntry {
            tenant: "parity".into(),
            level: s.level.name().into(),
            bytes_billed: out.bytes_scanned,
            revenue_dollars: revenue,
            vm_dollars: cost.vm_dollars,
            cf_dollars: cost.cf_dollars,
            provider_cf_dollars: provider_cf,
            shuffle_dollars: shuffle,
            degraded: decisions.contains(&Decision::Degrade),
            speculative: decisions
                .iter()
                .any(|d| matches!(d, Decision::StragglerSpeculate { .. })),
        }
    };
    let real_entry = entry(
        bill_real,
        out.resource_cost,
        out.provider_cf_dollars,
        out.provider_shuffle_dollars,
        &out.decisions,
    );
    let sim_entry = entry(
        bill_sim,
        done.cost,
        sim_cf_total,
        done.shuffle_dollars,
        &done.decisions,
    );
    for (what, a, b) in [
        (
            "waste",
            real_entry.waste_dollars(),
            sim_entry.waste_dollars(),
        ),
        (
            "provider total",
            real_entry.provider_total_dollars(),
            sim_entry.provider_total_dollars(),
        ),
        (
            "margin",
            real_entry.margin_dollars(),
            sim_entry.margin_dollars(),
        ),
    ] {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "[{}] ledger {what} diverged: {a} vs {b}",
            s.name
        );
    }
    assert_eq!(
        (real_entry.degraded, real_entry.speculative),
        (sim_entry.degraded, sim_entry.speculative),
        "[{}] ledger flags diverged",
        s.name
    );
    ParityReport {
        name: s.name,
        decisions: done.decisions,
        bill: bill_real,
        scan_bytes: out.bytes_scanned,
        resource_cost: done.cost,
        provider_cf_dollars: sim_cf_total,
        shuffle_dollars: done.shuffle_dollars,
    }
}

/// Run the whole matrix; returns per-scenario reports (panics on the first
/// divergence).
pub fn run_all() -> Vec<ParityReport> {
    scenarios().iter().map(run_scenario).collect()
}
