//! Differential tests for cost-based planning: join reordering and
//! build-side selection are latency knobs, never correctness or pricing
//! knobs. Every multi-join TPC-H template must produce the same rows (and,
//! under ORDER BY, the same order) and bill the same scanned bytes as the
//! row-at-a-time scalar oracle running the *unoptimized* plan — and that
//! must stay true when every cardinality estimate is adversarially
//! inverted, so the planner picks the worst order it can construct.

use pixelsdb::catalog::Catalog;
use pixelsdb::common::{RecordBatch, Value};
use pixelsdb::exec::{execute, scalar, ExecContext, ExecMetricsSnapshot};
use pixelsdb::planner::{create_physical_plan, optimize_with, Binder, EstMode, PhysicalPlan};
use pixelsdb::sql::parse_query;
use pixelsdb::storage::{InMemoryObjectStore, ObjectStoreRef};
use pixelsdb::workload::{load_tpch, TpchConfig, TPCH_QUERIES};
use std::cmp::Ordering;
use std::sync::Arc;

fn fixture() -> (Arc<Catalog>, ObjectStoreRef) {
    let catalog = Catalog::shared();
    let store: ObjectStoreRef = InMemoryObjectStore::shared();
    load_tpch(
        &catalog,
        store.as_ref(),
        "tpch",
        &TpchConfig {
            scale: 0.001,
            seed: 17,
            row_group_rows: 512,
            files_per_table: 2,
        },
    )
    .unwrap();
    (catalog, store)
}

/// Lower `sql` under an explicit estimate mode (full rewrite pipeline).
fn physical_with(catalog: &Catalog, sql: &str, mode: EstMode) -> PhysicalPlan {
    let select = parse_query(sql).unwrap();
    let logical = Binder::new(catalog, "tpch").bind_select(&select).unwrap();
    create_physical_plan(&optimize_with(logical, mode)).unwrap()
}

/// Lower `sql` with NO rewrites at all: the binder's output in syntactic
/// join order, filters above the joins, scans reading every column. This is
/// the oracle plan — it shares nothing with the cost-based pipeline.
fn unoptimized_physical(catalog: &Catalog, sql: &str) -> PhysicalPlan {
    let select = parse_query(sql).unwrap();
    let logical = Binder::new(catalog, "tpch").bind_select(&select).unwrap();
    create_physical_plan(&logical).unwrap()
}

/// Tables scanned, left-to-right (probe-to-build) across the plan.
fn scan_order(plan: &PhysicalPlan) -> Vec<String> {
    let mut out = Vec::new();
    fn walk(p: &PhysicalPlan, out: &mut Vec<String>) {
        if let PhysicalPlan::Scan { table, .. } = p {
            out.push(table.clone());
        }
        for c in p.children() {
            walk(c, out);
        }
    }
    walk(plan, &mut out);
    out
}

fn join_count(plan: &PhysicalPlan) -> usize {
    let own = usize::from(matches!(plan, PhysicalPlan::HashJoin { .. }));
    own + plan.children().iter().map(|c| join_count(c)).sum::<usize>()
}

fn canonical(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| *o != Ordering::Equal)
            .unwrap_or(Ordering::Equal)
    });
    rows
}

/// Exact equality, except floats may differ by a relative 1e-9: reordering
/// joins reorders the rows feeding SUM/AVG, which reassociates float adds.
fn values_equivalent(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float64(x), Value::Float64(y)) => {
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() <= 1e-9 * scale
        }
        _ => a == b,
    }
}

fn assert_rows_equivalent(label: &str, got: &[Vec<Value>], expect: &[Vec<Value>]) {
    assert_eq!(
        got.len(),
        expect.len(),
        "{label}: row count diverged ({} vs {})",
        got.len(),
        expect.len()
    );
    for (i, (g, e)) in got.iter().zip(expect).enumerate() {
        assert!(
            g.len() == e.len() && g.iter().zip(e.iter()).all(|(a, b)| values_equivalent(a, b)),
            "{label}: row {i} diverged:\n  got:    {g:?}\n  expect: {e:?}"
        );
    }
}

fn comparable_rows(batches: &[RecordBatch], sql: &str) -> Vec<Vec<Value>> {
    let rows: Vec<Vec<Value>> = batches.iter().flat_map(|b| b.to_rows()).collect();
    if sql.contains("ORDER BY") {
        rows
    } else {
        canonical(rows)
    }
}

/// Run a physical plan on a fresh (cold-cache) context at a parallelism
/// level, returning comparable rows plus the billing-relevant metrics.
fn run_plan(
    plan: &PhysicalPlan,
    store: &ObjectStoreRef,
    sql: &str,
    parallelism: usize,
) -> (Vec<Vec<Value>>, ExecMetricsSnapshot) {
    let ctx = ExecContext::new(store.clone()).with_parallelism(parallelism);
    let batches = execute(plan, &ctx).unwrap();
    (comparable_rows(&batches, sql), ctx.metrics.snapshot())
}

/// The multi-join TPC-H templates (two or more hash joins after binding).
fn multi_join_templates(catalog: &Catalog) -> Vec<&'static pixelsdb::workload::QueryTemplate> {
    let picked: Vec<_> = TPCH_QUERIES
        .iter()
        .filter(|q| join_count(&unoptimized_physical(catalog, q.sql)) >= 2)
        .collect();
    assert!(
        picked.len() >= 3,
        "expected at least q3/q5/q10 to be multi-join, got {}",
        picked.len()
    );
    picked
}

/// Cost-based ordering must actually reorder something: q5 joins five
/// tables syntactically largest-first, and greedy smallest-intermediate
/// ordering must not reproduce that order verbatim.
#[test]
fn cost_based_ordering_changes_at_least_one_plan() {
    let (catalog, _store) = fixture();
    let mut any_changed = false;
    for q in multi_join_templates(&catalog) {
        let syntactic = scan_order(&unoptimized_physical(&catalog, q.sql));
        let ordered = scan_order(&physical_with(&catalog, q.sql, EstMode::Normal));
        assert_eq!(
            {
                let mut s = syntactic.clone();
                s.sort();
                s
            },
            {
                let mut o = ordered.clone();
                o.sort();
                o
            },
            "{}: reordering must preserve the table set",
            q.id
        );
        if syntactic != ordered {
            any_changed = true;
        }
    }
    assert!(
        any_changed,
        "cost-based ordering left every multi-join template in syntactic order"
    );
}

/// Every multi-join template, lowered with Normal estimates, must match
/// the scalar oracle running the unoptimized plan: same rows, same order
/// under ORDER BY, at parallelism 1 and 4, with equal billed bytes across
/// parallelism levels.
#[test]
fn reordered_plans_match_scalar_oracle() {
    let (catalog, store) = fixture();
    for q in multi_join_templates(&catalog) {
        let oracle_plan = unoptimized_physical(&catalog, q.sql);
        let oracle_ctx = ExecContext::new(store.clone());
        let oracle_batches = scalar::execute(&oracle_plan, &oracle_ctx).unwrap();
        let oracle = comparable_rows(&oracle_batches, q.sql);

        let plan = physical_with(&catalog, q.sql, EstMode::Normal);
        let (rows_p1, m1) = run_plan(&plan, &store, q.sql, 1);
        let (rows_p4, m4) = run_plan(&plan, &store, q.sql, 4);

        assert_rows_equivalent(&format!("{} p1 vs oracle", q.id), &rows_p1, &oracle);
        assert_rows_equivalent(&format!("{} p4 vs oracle", q.id), &rows_p4, &oracle);
        assert_eq!(
            m1.bytes_scanned, m4.bytes_scanned,
            "{}: billed bytes must not depend on parallelism",
            q.id
        );
    }
}

/// Adversarially inverted estimates: the planner believes every small
/// input is huge and every huge input is small, so it constructs the worst
/// join order and the worst build sides it can. Results, order, and billed
/// bytes must not move.
#[test]
fn inverted_estimates_change_nothing_but_speed() {
    let (catalog, store) = fixture();
    for q in multi_join_templates(&catalog) {
        let normal = physical_with(&catalog, q.sql, EstMode::Normal);
        let inverted = physical_with(&catalog, q.sql, EstMode::Inverted);

        let (rows_n, metrics_n) = run_plan(&normal, &store, q.sql, 1);
        let (rows_i, metrics_i) = run_plan(&inverted, &store, q.sql, 1);
        assert_rows_equivalent(&format!("{} inverted vs normal p1", q.id), &rows_i, &rows_n);
        assert_eq!(
            metrics_n.bytes_scanned, metrics_i.bytes_scanned,
            "{}: an estimate may never change the user's bill",
            q.id
        );

        let (rows_i4, metrics_i4) = run_plan(&inverted, &store, q.sql, 4);
        assert_rows_equivalent(
            &format!("{} inverted p4 vs normal p1", q.id),
            &rows_i4,
            &rows_n,
        );
        assert_eq!(
            metrics_i4.bytes_scanned, metrics_n.bytes_scanned,
            "{}",
            q.id
        );
    }
}

/// Single-join queries (build-side choice without reordering) under both
/// estimate modes, including the inverted mode that deliberately builds on
/// the bigger side. The ORDER BY keys form a total order, so "bit-identical
/// rows and order" is well-defined even when the swap reorders join output.
#[test]
fn build_side_choice_is_invisible_in_results() {
    let singles = [
        "SELECT c_name, o_orderkey FROM customer \
         JOIN orders ON c_custkey = o_custkey \
         ORDER BY o_orderkey, c_name LIMIT 50",
        "SELECT n_name, COUNT(*) AS customers FROM customer \
         JOIN nation ON c_nationkey = n_nationkey \
         GROUP BY n_name ORDER BY customers DESC, n_name",
        // No ORDER BY: compared as a canonically sorted multiset.
        "SELECT o_orderstatus, COUNT(*) AS n FROM orders \
         JOIN customer ON o_custkey = c_custkey GROUP BY o_orderstatus",
    ];
    let (catalog, store) = fixture();
    let mut any_probe_rows_tested = false;
    for sql in singles {
        assert_eq!(join_count(&unoptimized_physical(&catalog, sql)), 1);
        let oracle_plan = unoptimized_physical(&catalog, sql);
        let oracle_ctx = ExecContext::new(store.clone());
        let oracle_batches = scalar::execute(&oracle_plan, &oracle_ctx).unwrap();
        let oracle = comparable_rows(&oracle_batches, sql);
        let normal = physical_with(&catalog, sql, EstMode::Normal);
        let inverted = physical_with(&catalog, sql, EstMode::Inverted);
        assert_ne!(
            scan_order(&normal),
            scan_order(&inverted),
            "{sql}: inverted estimates must build on the other side"
        );
        // The build side tells the probe scan its keys, and the scan drops
        // rows on their strength — after metering. Whichever side the
        // planner builds on, and whatever got dropped, the bill is the same.
        let mut bills = Vec::new();
        for (mode, plan) in [("normal", &normal), ("inverted", &inverted)] {
            for p in [1usize, 4] {
                let ctx = ExecContext::new(store.clone()).with_parallelism(p);
                let rows = comparable_rows(&execute(plan, &ctx).unwrap(), sql);
                assert_rows_equivalent(&format!("{sql} {mode} p{p}"), &rows, &oracle);
                let m = ctx.metrics.snapshot();
                bills.push((m.bytes_scanned, m.rows_scanned, m.row_groups_read));
                any_probe_rows_tested |= ctx.metrics.pipeline_snapshot().join_filter_rows > 0;
            }
        }
        assert!(
            bills.windows(2).all(|w| w[0] == w[1]),
            "{sql}: the build side changed what was billed: {bills:?}"
        );
    }
    assert!(
        any_probe_rows_tested,
        "no probe scan was handed a key filter"
    );
}
