//! `plan_regression` — CI gate over cost-based plan choices (ISSUE 9
//! satellite).
//!
//! For every TPC-H template, snapshots the decisions the cost-based
//! planner makes over a fixed, seeded fixture: join order (probe-to-build
//! scan order), shuffle strategy (single-stage / broadcast / partitioned),
//! partition count, and right-sized CF fleet. The snapshot must match the
//! committed `results/plan_regression.json` exactly — a plan change is a
//! reviewable event, not background noise. Re-bless after review with
//! `PLAN_REGRESSION_BLESS=1`.
//!
//! Also times each template end-to-end (cost-based plan vs the binder's
//! syntactic plan) and writes the summary to `target/bench_plan.json`;
//! timings are informational and never gate.

use pixels_bench::{Gate, TextTable};
use pixels_catalog::Catalog;
use pixels_common::Json;
use pixels_exec::{execute, ExecContext};
use pixels_planner::{
    create_physical_plan, optimize_with, plan_shuffle_sized, Binder, EstMode, Plan, ShuffleSizing,
};
use pixels_storage::{InMemoryObjectStore, ObjectStoreRef};
use pixels_turbo::{policy, QueryWork};
use pixels_workload::{load_tpch, TpchConfig, TPCH_QUERIES};
use std::sync::Arc;
use std::time::Instant;

/// The committed snapshot, under `results/`.
const SNAPSHOT: &str = "plan_regression.json";

fn fixture() -> (Arc<Catalog>, ObjectStoreRef) {
    let catalog = Catalog::shared();
    let store: ObjectStoreRef = InMemoryObjectStore::shared();
    load_tpch(
        &catalog,
        store.as_ref(),
        "tpch",
        &TpchConfig {
            scale: 0.01,
            seed: 42,
            row_group_rows: 1024,
            files_per_table: 2,
        },
    )
    .expect("load tpch fixture");
    (catalog, store)
}

fn scan_order(plan: &Plan) -> Vec<String> {
    let mut out = Vec::new();
    fn walk(p: &Plan, out: &mut Vec<String>) {
        if let Plan::Scan { table, .. } = p {
            out.push(table.clone());
        }
        for c in p.children() {
            walk(c, out);
        }
    }
    walk(plan, &mut out);
    out
}

struct PlanChoice {
    id: &'static str,
    join_order: Vec<String>,
    shuffle: &'static str,
    partitions: usize,
    fleet: u32,
}

impl PlanChoice {
    fn to_json(&self) -> Json {
        Json::object([
            ("id", Json::string(self.id)),
            (
                "join_order",
                Json::array(self.join_order.iter().map(Json::string)),
            ),
            ("shuffle", Json::string(self.shuffle)),
            ("partitions", Json::number(self.partitions as f64)),
            ("fleet", Json::number(f64::from(self.fleet))),
        ])
    }
}

fn choices(catalog: &Catalog) -> Vec<PlanChoice> {
    TPCH_QUERIES
        .iter()
        .map(|q| {
            let select = pixels_sql::parse_query(q.sql).expect("template parses");
            let logical = Binder::new(catalog, "tpch")
                .bind_select(&select)
                .expect("template binds");
            let plan = create_physical_plan(&optimize_with(logical, EstMode::Normal))
                .expect("template lowers");
            let shuffle = plan_shuffle_sized(
                &plan,
                "pixels-turbo/intermediate/probe/mv.pxl",
                &ShuffleSizing::auto(),
            );
            let (strategy, partitions) = match &shuffle {
                None => ("single-stage", 0),
                Some(s) if s.broadcast => ("broadcast", s.partitions),
                Some(s) => ("partitioned", s.partitions),
            };
            let fleet = policy::sized_work(&QueryWork::from_plan(&plan)).parallelism;
            PlanChoice {
                id: q.id,
                join_order: scan_order(&plan),
                shuffle: strategy,
                partitions,
                fleet,
            }
        })
        .collect()
}

/// Wall time of the median of three runs at parallelism 4.
fn time_plan(plan: &Plan, store: &ObjectStoreRef) -> f64 {
    let mut runs: Vec<f64> = (0..3)
        .map(|_| {
            let ctx = ExecContext::new(store.clone()).with_parallelism(4);
            let start = Instant::now();
            execute(plan, &ctx).expect("plan executes");
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[1]
}

fn main() {
    println!("plan_regression: cost-based plan snapshot gate over TPC-H templates");
    let (catalog, store) = fixture();
    let picked = choices(&catalog);

    let mut table = TextTable::new(&["template", "join order", "shuffle", "parts", "fleet"]);
    for c in &picked {
        table.row(&[
            c.id.to_string(),
            c.join_order.join(" ⋈ "),
            c.shuffle.to_string(),
            c.partitions.to_string(),
            c.fleet.to_string(),
        ]);
    }
    table.print();

    let snapshot = Json::object([
        ("benchmark", Json::string("plan_regression")),
        ("fixture", Json::string("tpch scale=0.01 seed=42")),
        ("plans", Json::array(picked.iter().map(|c| c.to_json()))),
    ])
    .to_compact_string();

    let mut gate = Gate::default();
    let committed = std::fs::read_to_string(format!("results/{SNAPSHOT}")).unwrap_or_default();
    if committed != snapshot && std::env::var("PLAN_REGRESSION_BLESS").is_ok_and(|v| v == "1") {
        gate.write(SNAPSHOT, &snapshot);
    } else {
        gate.check(
            &format!("{} plans match results/{SNAPSHOT}", picked.len()),
            committed == snapshot,
            &format!(
                "chosen plans diverged from the committed snapshot\n  committed: {committed}\n  \
                 current:   {snapshot}\nReview the change, then re-bless with PLAN_REGRESSION_BLESS=1."
            ),
        );
    }

    // Informational e2e timings: the cost-based plan vs the binder's
    // syntactic plan (no rewrites at all) and vs the same rewrite pipeline
    // with adversarially inverted estimates (worst join order / build
    // sides). Never gates — timings are machine-dependent.
    let mut bench = TextTable::new(&[
        "template",
        "syntactic ms",
        "inverted ms",
        "cost-based ms",
        "speedup",
    ]);
    let timings: Vec<Json> = TPCH_QUERIES
        .iter()
        .map(|q| {
            let select = pixels_sql::parse_query(q.sql).unwrap();
            let logical = Binder::new(&catalog, "tpch").bind_select(&select).unwrap();
            let naive = create_physical_plan(&logical).unwrap();
            let inverted =
                create_physical_plan(&optimize_with(logical.clone(), EstMode::Inverted)).unwrap();
            let optimized = create_physical_plan(&optimize_with(logical, EstMode::Normal)).unwrap();
            let naive_ms = time_plan(&naive, &store);
            let inv_ms = time_plan(&inverted, &store);
            let opt_ms = time_plan(&optimized, &store);
            bench.row(&[
                q.id.to_string(),
                format!("{naive_ms:.2}"),
                format!("{inv_ms:.2}"),
                format!("{opt_ms:.2}"),
                format!("{:.2}x", naive_ms / opt_ms.max(1e-9)),
            ]);
            Json::object([
                ("id", Json::string(q.id)),
                ("syntactic_ms", Json::number(naive_ms)),
                ("inverted_ms", Json::number(inv_ms)),
                ("cost_based_ms", Json::number(opt_ms)),
            ])
        })
        .collect();
    bench.print();

    let report = Json::object([
        ("benchmark", Json::string("bench_plan")),
        ("fixture", Json::string("tpch scale=0.01 seed=42")),
        ("parallelism", Json::number(4.0)),
        ("timings", Json::array(timings)),
    ]);
    gate.write_volatile("bench_plan.json", &report.to_compact_string());
    gate.finish("ok: plans match and timings written");
}
