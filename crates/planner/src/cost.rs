//! Cardinality estimation for cost-based planning.
//!
//! This module turns the zone-map statistics snapshotted into every
//! [`Plan::Scan`] at bind time ([`pixels_catalog::TableStats`]: row
//! counts plus per-column min/max/nulls/NDV) into output-row estimates for
//! every operator, propagated scan→filter→join→aggregate. Each operator has
//! one rule, in `estimate_node`, whether the plan is being reordered,
//! explained, costed into `QueryWork` or cut for a shuffle. The optimizer uses
//! the estimates for join ordering and build-side choice
//! (`crates/planner/src/rules.rs`), the shuffle planner for
//! broadcast-vs-partitioned strategy and fan-out sizing
//! (`crates/planner/src/split.rs`), and the engines for CF fleet sizing
//! (`turbo::policy::sized_work`).
//!
//! Estimates are advice, never truth: a wrong estimate may produce a slower
//! plan but can never change results or user bills — every consumer is
//! differential-tested against the scalar oracle, including under the
//! adversarial [`EstMode::Inverted`] mode that deliberately reverses every
//! cardinality comparison.

use crate::expr::BoundExpr;
use crate::plan::Plan;
use pixels_catalog::{ColumnSummary, TableStats};
use pixels_common::Value;
use pixels_sql::ast::{BinaryOp, JoinType};

/// Cardinalities above this are clamped: deep join trees over large tables
/// would otherwise overflow to `inf` and make every comparison useless.
pub const MAX_ROWS: f64 = 1e30;

/// Overflow-safe cardinality multiplication: the product saturates at
/// [`MAX_ROWS`] and NaN (from `0 × inf` style corner cases) collapses to 0.
pub fn mul_rows(a: f64, b: f64) -> f64 {
    let p = a * b;
    if p.is_nan() {
        0.0
    } else {
        p.clamp(0.0, MAX_ROWS)
    }
}

/// How the optimizer reads row estimates. `Inverted` is an adversarial test
/// mode: it reverses the order of all estimates (small looks large and vice
/// versa), driving every cost-based decision to its worst case. Plans chosen
/// under `Inverted` must still be bit-identical in results and user bills.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EstMode {
    #[default]
    Normal,
    Inverted,
}

impl EstMode {
    /// The row estimate as this mode sees it (order-reversing for
    /// `Inverted`).
    pub fn rows(self, est: f64) -> f64 {
        match self {
            EstMode::Normal => est,
            EstMode::Inverted => MAX_ROWS / (est.max(0.0) + 1.0),
        }
    }
}

/// Per-column statistics carried alongside a node's row estimate.
#[derive(Debug, Clone, Default)]
pub struct ColStat {
    /// Min/max/null summary inherited from the base table, when the column
    /// is a direct (possibly renamed) base column.
    pub summary: Option<ColumnSummary>,
    /// Estimated distinct values in this node's output, when known.
    pub ndv: Option<f64>,
}

impl ColStat {
    fn unknown() -> ColStat {
        ColStat::default()
    }

    /// Fraction of this node's rows that are NULL in the column, when known.
    fn null_frac(&self, rows: f64) -> Option<f64> {
        let s = self.summary.as_ref()?;
        if rows <= 0.0 {
            return Some(0.0);
        }
        Some((s.null_count as f64 / rows).clamp(0.0, 1.0))
    }
}

/// Output estimate for one plan node: row count, per-output-column stats,
/// and whether the numbers are backed by real table statistics (`reliable`)
/// or just the default heuristics.
#[derive(Debug, Clone, Default)]
pub struct NodeEst {
    pub rows: f64,
    pub cols: Vec<ColStat>,
    pub reliable: bool,
}

impl NodeEst {
    fn unknown(width: usize, rows: f64) -> NodeEst {
        NodeEst {
            rows,
            cols: vec![ColStat::unknown(); width],
            reliable: false,
        }
    }

    /// NDVs can never exceed the row count; cap them after a reducing op.
    fn cap_ndv(mut self) -> NodeEst {
        for c in &mut self.cols {
            if let Some(n) = c.ndv.as_mut() {
                *n = n.min(self.rows.max(1.0));
            }
        }
        self
    }
}

/// Build the scan-level estimate from a stats snapshot: one `ColStat` per
/// projected column, NDV from the footer summary or (for integer columns)
/// the min/max span, then the filter conjuncts applied multiplicatively.
fn estimate_scan(stats: &TableStats, projection: &[usize], filters: &[BoundExpr]) -> NodeEst {
    let rows = stats.row_count as f64;
    let cols: Vec<ColStat> = projection
        .iter()
        .map(|&ti| match stats.columns.get(ti) {
            Some(s) => ColStat {
                ndv: column_ndv(s, stats.row_count),
                summary: Some(s.clone()),
            },
            None => ColStat::unknown(),
        })
        .collect();
    let mut est = NodeEst {
        rows,
        cols,
        reliable: stats.row_count > 0,
    };
    for f in filters {
        est.rows = mul_rows(est.rows, selectivity(f, &est));
    }
    est.cap_ndv()
}

/// NDV for a base column: the analyzed distinct count when present,
/// otherwise the integer min/max span (join keys are typically dense
/// integers), otherwise unknown.
fn column_ndv(s: &ColumnSummary, row_count: u64) -> Option<f64> {
    if let Some(ndv) = s.distinct_count {
        if ndv > 0 {
            return Some(ndv as f64);
        }
    }
    if let (Some(min), Some(max)) = (&s.min, &s.max) {
        if matches!(min, Value::Int32(_) | Value::Int64(_) | Value::Date(_)) {
            if let (Some(lo), Some(hi)) = (min.as_i64(), max.as_i64()) {
                let span = (i128::from(hi) - i128::from(lo) + 1).max(1) as f64;
                return Some(span.min(row_count.max(1) as f64));
            }
        }
    }
    None
}

/// Selectivity of a predicate against a node's output. Falls back to the
/// textbook default (0.25) for shapes the estimator doesn't model.
pub fn selectivity(pred: &BoundExpr, input: &NodeEst) -> f64 {
    const DEFAULT: f64 = 0.25;
    let sel = match pred {
        BoundExpr::Literal(v) => match v {
            Value::Boolean(true) => 1.0,
            Value::Boolean(false) | Value::Null => 0.0,
            _ => DEFAULT,
        },
        BoundExpr::Not(e) => 1.0 - selectivity(e, input),
        BoundExpr::BinaryOp {
            left, op, right, ..
        } => match op {
            BinaryOp::And => selectivity(left, input) * selectivity(right, input),
            BinaryOp::Or => {
                let (a, b) = (selectivity(left, input), selectivity(right, input));
                a + b - a * b
            }
            BinaryOp::Eq | BinaryOp::NotEq => {
                let eq = match column_and_literal(left, right) {
                    Some((col, lit)) => eq_sel(input, col, lit),
                    None => DEFAULT,
                };
                if *op == BinaryOp::Eq {
                    eq
                } else {
                    1.0 - eq
                }
            }
            BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::GtEq | BinaryOp::Gt => {
                // `col < lit` interpolates on [min, max]; a flipped
                // `lit < col` is `col > lit`.
                if let Some((col, lit)) = column_literal_ordered(left, right) {
                    let less = matches!(op, BinaryOp::Lt | BinaryOp::LtEq);
                    range_sel(input, col, lit, less)
                } else if let Some((col, lit)) = column_literal_ordered(right, left) {
                    let less = matches!(op, BinaryOp::Gt | BinaryOp::GtEq);
                    range_sel(input, col, lit, less)
                } else {
                    DEFAULT
                }
            }
            _ => DEFAULT,
        },
        BoundExpr::IsNull { expr, negated } => {
            let frac = match expr.as_ref() {
                BoundExpr::ColumnRef { index, .. } => input
                    .cols
                    .get(*index)
                    .and_then(|c| c.null_frac(input.rows))
                    .unwrap_or(0.1),
                _ => 0.1,
            };
            if *negated {
                1.0 - frac
            } else {
                frac
            }
        }
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => {
            let each: f64 = list
                .iter()
                .map(|item| match column_and_literal(expr, item) {
                    Some((col, lit)) => eq_sel(input, col, lit),
                    None => DEFAULT / list.len().max(1) as f64,
                })
                .sum();
            let sel = each.min(1.0);
            if *negated {
                1.0 - sel
            } else {
                sel
            }
        }
        BoundExpr::Like {
            pattern, negated, ..
        } => {
            // A pattern without wildcards behaves like equality.
            let sel = match pattern.as_ref() {
                BoundExpr::Literal(Value::Utf8(p)) if !p.contains(['%', '_']) => 0.05,
                _ => DEFAULT,
            };
            if *negated {
                1.0 - sel
            } else {
                sel
            }
        }
        _ => DEFAULT,
    };
    sel.clamp(0.0, 1.0)
}

/// `(col, lit)` when the pair is a column ref and a constant, either way
/// around (for symmetric operators).
fn column_and_literal<'a>(a: &'a BoundExpr, b: &'a BoundExpr) -> Option<(usize, &'a Value)> {
    column_literal_ordered(a, b).or_else(|| column_literal_ordered(b, a))
}

fn column_literal_ordered<'a>(
    col: &'a BoundExpr,
    lit: &'a BoundExpr,
) -> Option<(usize, &'a Value)> {
    match (col, lit) {
        (BoundExpr::ColumnRef { index, .. }, BoundExpr::Literal(v)) => Some((*index, v)),
        _ => None,
    }
}

fn eq_sel(input: &NodeEst, col: usize, lit: &Value) -> f64 {
    let Some(c) = input.cols.get(col) else {
        return 0.25;
    };
    if let Some(s) = &c.summary {
        // A literal outside the zone-map range can't match anything.
        if out_of_range(s, lit) {
            return 0.0;
        }
    }
    match c.ndv {
        Some(ndv) if ndv > 0.0 => 1.0 / ndv,
        _ => match &c.summary {
            Some(s) => s.eq_selectivity(input.rows.max(0.0) as u64),
            None => 0.25,
        },
    }
}

fn out_of_range(s: &ColumnSummary, lit: &Value) -> bool {
    let cmp_known = |bound: &Value| {
        lit.as_f64().zip(bound.as_f64()).or_else(|| {
            lit.as_i64()
                .zip(bound.as_i64())
                .map(|(a, b)| (a as f64, b as f64))
        })
    };
    if let Some(min) = &s.min {
        if let Some((v, lo)) = cmp_known(min) {
            if v < lo {
                return true;
            }
        }
    }
    if let Some(max) = &s.max {
        if let Some((v, hi)) = cmp_known(max) {
            if v > hi {
                return true;
            }
        }
    }
    false
}

fn range_sel(input: &NodeEst, col: usize, lit: &Value, less_than: bool) -> f64 {
    match input.cols.get(col).and_then(|c| c.summary.as_ref()) {
        Some(s) => s.range_selectivity(lit, less_than),
        None => 1.0 / 3.0,
    }
}

/// Selectivity of one equi-join key pair: `1 / max(ndv_left, ndv_right)`
/// when either side's key NDV is known, else `1 / max(|L|, |R|)` (the PK-FK
/// assumption the old estimator hard-coded).
fn key_pair_selectivity(left: &NodeEst, right: &NodeEst, lk: &BoundExpr, rk: &BoundExpr) -> f64 {
    let ndv_of = |est: &NodeEst, key: &BoundExpr| -> Option<f64> {
        match key {
            BoundExpr::ColumnRef { index, .. } => est.cols.get(*index).and_then(|c| c.ndv),
            _ => None,
        }
    };
    let (nl, nr) = (ndv_of(left, lk), ndv_of(right, rk));
    let ndv = match (nl, nr) {
        (Some(a), Some(b)) => a.max(b),
        (Some(a), None) => a,
        (None, Some(b)) => b,
        (None, None) => left.rows.max(right.rows).max(1.0),
    };
    1.0 / ndv.max(1.0)
}

/// Output estimate of an equi-join given both input estimates.
pub fn join_est(
    left: &NodeEst,
    right: &NodeEst,
    join_type: JoinType,
    left_keys: &[BoundExpr],
    right_keys: &[BoundExpr],
    residual: Option<&BoundExpr>,
) -> NodeEst {
    let mut rows = mul_rows(left.rows, right.rows);
    for (lk, rk) in left_keys.iter().zip(right_keys) {
        rows = mul_rows(rows, key_pair_selectivity(left, right, lk, rk));
    }
    // Outer joins keep every row of the preserved side.
    rows = match join_type {
        JoinType::Left => rows.max(left.rows),
        JoinType::Right => rows.max(right.rows),
        JoinType::Inner | JoinType::Cross => rows,
    };
    let mut cols: Vec<ColStat> = left.cols.iter().chain(right.cols.iter()).cloned().collect();
    if cols.is_empty() {
        // Keep the width even when children carried no per-column stats.
        cols = Vec::new();
    }
    let mut est = NodeEst {
        rows,
        cols,
        reliable: left.reliable && right.reliable,
    };
    if let Some(r) = residual {
        est.rows = mul_rows(est.rows, selectivity(r, &est));
    }
    est.cap_ndv()
}

/// Output rows of a group-by: the product of the group columns' NDVs when
/// known, the old 10% heuristic otherwise, always capped at the input rows.
fn group_rows(input: &NodeEst, group_exprs: &[BoundExpr]) -> f64 {
    if group_exprs.is_empty() {
        return 1.0;
    }
    let mut product = 1.0f64;
    let mut any_known = false;
    for g in group_exprs {
        if let BoundExpr::ColumnRef { index, .. } = g {
            if let Some(ndv) = input.cols.get(*index).and_then(|c| c.ndv) {
                product = mul_rows(product, ndv.max(1.0));
                any_known = true;
                continue;
            }
        }
        // Unknown grouping expression: assume it multiplies groups modestly.
        product = mul_rows(product, 10.0);
    }
    let fallback = (input.rows * 0.1).max(1.0);
    let est = if any_known { product } else { fallback };
    est.min(input.rows.max(1.0))
}

/// Cardinality estimate of a plan, folded bottom-up with [`estimate_node`].
pub fn estimate(plan: &Plan) -> NodeEst {
    plan.fold(&mut estimate_node)
}

/// The one cardinality rule of each operator: this node's estimate from its
/// inputs' estimates (left before right). `MaterializedScan`, whose size is
/// only known at run time, reports an unreliable default.
pub(crate) fn estimate_node(plan: &Plan, inputs: Vec<NodeEst>) -> NodeEst {
    let mut inputs = inputs.into_iter();
    let mut input = || inputs.next().expect("one estimate per input");
    match plan {
        Plan::Scan {
            stats,
            projection,
            filters,
            ..
        } => estimate_scan(stats, projection, filters),
        Plan::MaterializedScan { schema, .. } => NodeEst::unknown(schema.len(), 1000.0),
        Plan::Filter { predicate, .. } => {
            let mut est = input();
            est.rows = mul_rows(est.rows, selectivity(predicate, &est));
            est.cap_ndv()
        }
        Plan::Project { exprs, .. } => {
            let input = input();
            NodeEst {
                rows: input.rows,
                cols: exprs.iter().map(|e| column_stat(&input, e)).collect(),
                reliable: input.reliable,
            }
        }
        Plan::Join {
            join_type,
            left_keys,
            right_keys,
            residual,
            ..
        } => {
            let (left, right) = (input(), input());
            join_est(
                &left,
                &right,
                *join_type,
                left_keys,
                right_keys,
                residual.as_ref(),
            )
        }
        Plan::Aggregate {
            group_exprs,
            output_schema,
            ..
        } => {
            let input = input();
            let mut cols: Vec<ColStat> =
                group_exprs.iter().map(|g| column_stat(&input, g)).collect();
            cols.resize(output_schema.len(), ColStat::unknown());
            NodeEst {
                rows: group_rows(&input, group_exprs),
                cols,
                reliable: input.reliable,
            }
            .cap_ndv()
        }
        // The product of the known column NDVs, capped at the input; half
        // the input when no NDV is known.
        Plan::Distinct { .. } => {
            let input = input();
            let known: f64 = input.cols.iter().filter_map(|c| c.ndv).fold(1.0, mul_rows);
            let rows = if input.cols.iter().any(|c| c.ndv.is_some()) {
                known.min(input.rows.max(1.0))
            } else {
                (input.rows * 0.5).max(1.0f64.min(input.rows))
            };
            NodeEst { rows, ..input }.cap_ndv()
        }
        Plan::Sort { .. } => input(),
        Plan::TopK { fetch, .. } => {
            let mut est = input();
            est.rows = est.rows.min(*fetch as f64);
            est.cap_ndv()
        }
        Plan::Limit { limit, offset, .. } => {
            let mut est = input();
            if let Some(l) = limit {
                est.rows = est.rows.min((*l + *offset) as f64);
            }
            est.cap_ndv()
        }
        Plan::Values { rows, schema } => NodeEst {
            rows: rows.len() as f64,
            cols: vec![ColStat::unknown(); schema.len()],
            reliable: true,
        },
    }
}

/// The stats of an output column that is `expr` over `input`: a bare column
/// reference keeps its input column's, anything else is unknown.
fn column_stat(input: &NodeEst, expr: &BoundExpr) -> ColStat {
    match expr {
        BoundExpr::ColumnRef { index, .. } => input.cols.get(*index).cloned().unwrap_or_default(),
        _ => ColStat::unknown(),
    }
}

/// Estimated output bytes of a plan node: rows × output row width.
/// Returns `(bytes, reliable)` so callers can fall back when the estimate
/// is heuristic-only.
pub fn estimated_output_bytes(plan: &Plan) -> (f64, bool) {
    let est = estimate(plan);
    let width = plan.schema().row_byte_width().max(1) as f64;
    (mul_rows(est.rows, width), est.reliable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixels_common::{DataType, Field, Schema};
    use std::sync::Arc;

    fn summary(min: i64, max: i64, ndv: Option<u64>, nulls: u64) -> ColumnSummary {
        ColumnSummary {
            min: Some(Value::Int64(min)),
            max: Some(Value::Int64(max)),
            null_count: nulls,
            distinct_count: ndv,
        }
    }

    fn scan_with(rows: u64, columns: Vec<ColumnSummary>, filters: Vec<BoundExpr>) -> Plan {
        let fields: Vec<Field> = (0..columns.len().max(1))
            .map(|i| Field::nullable(format!("c{i}"), DataType::Int64))
            .collect();
        let schema = Arc::new(Schema::new(fields));
        let projection: Vec<usize> = (0..schema.len()).collect();
        Plan::Scan {
            database: "db".into(),
            table: "t".into(),
            table_schema: schema.clone(),
            stats: TableStats {
                row_count: rows,
                total_bytes: rows.saturating_mul(8),
                columns,
            },
            paths: vec![],
            projection,
            filters,
            output_schema: schema,
        }
    }

    fn col(i: usize) -> BoundExpr {
        BoundExpr::column(i, DataType::Int64, format!("c{i}"))
    }

    fn eq(l: BoundExpr, r: BoundExpr) -> BoundExpr {
        BoundExpr::BinaryOp {
            left: Box::new(l),
            op: BinaryOp::Eq,
            right: Box::new(r),
            data_type: DataType::Boolean,
        }
    }

    #[test]
    fn empty_table_estimates_zero_rows() {
        let est = estimate(&scan_with(0, vec![summary(0, 0, None, 0)], vec![]));
        assert_eq!(est.rows, 0.0);
        assert!(!est.reliable, "empty tables fall back to heuristics");
    }

    #[test]
    fn eq_on_ndv_column_divides() {
        let plan = scan_with(
            1000,
            vec![summary(1, 100, Some(100), 0)],
            vec![eq(col(0), BoundExpr::literal(Value::Int64(7)))],
        );
        let est = estimate(&plan);
        assert!(
            (est.rows - 10.0).abs() < 1e-6,
            "1000 / ndv=100, got {}",
            est.rows
        );
    }

    #[test]
    fn ndv_one_column_keeps_all_rows_on_match() {
        // A single-value column: equality on the value keeps everything.
        let plan = scan_with(
            500,
            vec![summary(7, 7, Some(1), 0)],
            vec![eq(col(0), BoundExpr::literal(Value::Int64(7)))],
        );
        let est = estimate(&plan);
        assert!((est.rows - 500.0).abs() < 1e-6, "got {}", est.rows);
    }

    #[test]
    fn predicate_outside_zone_map_range_estimates_zero() {
        let plan = scan_with(
            1000,
            vec![summary(10, 20, Some(11), 0)],
            vec![eq(col(0), BoundExpr::literal(Value::Int64(999)))],
        );
        assert_eq!(estimate(&plan).rows, 0.0);
    }

    #[test]
    fn all_null_column_drives_is_null_estimates() {
        let plan = scan_with(100, vec![summary(0, 0, Some(1), 100)], vec![]);
        let est = estimate(&plan);
        let isnull = BoundExpr::IsNull {
            expr: Box::new(col(0)),
            negated: false,
        };
        assert!((selectivity(&isnull, &est) - 1.0).abs() < 1e-9);
        let notnull = BoundExpr::IsNull {
            expr: Box::new(col(0)),
            negated: true,
        };
        assert!(selectivity(&notnull, &est) < 1e-9);
    }

    #[test]
    fn cardinality_multiplication_saturates() {
        assert_eq!(mul_rows(1e200, 1e200), MAX_ROWS);
        assert_eq!(mul_rows(f64::INFINITY, 0.0), 0.0, "NaN collapses to 0");
        // A deep cross-join tower stays finite and ordered.
        let mut plan = scan_with(u64::MAX, vec![], vec![]);
        for _ in 0..8 {
            let schema = Arc::new(Schema::new(
                plan.schema()
                    .fields()
                    .iter()
                    .chain(plan.schema().fields())
                    .cloned()
                    .collect::<Vec<_>>(),
            ));
            plan = Plan::Join {
                left: Box::new(plan.clone()),
                right: Box::new(plan),
                join_type: JoinType::Cross,
                left_keys: vec![],
                right_keys: vec![],
                residual: None,
                output_schema: schema,
            };
        }
        let est = estimate(&plan);
        assert!(est.rows.is_finite());
        assert_eq!(est.rows, MAX_ROWS);
    }

    #[test]
    fn range_predicates_interpolate_and_clamp() {
        let lt = BoundExpr::BinaryOp {
            left: Box::new(col(0)),
            op: BinaryOp::Lt,
            right: Box::new(BoundExpr::literal(Value::Int64(25))),
            data_type: DataType::Boolean,
        };
        let plan = scan_with(1000, vec![summary(0, 100, None, 0)], vec![lt]);
        let est = estimate(&plan);
        assert!((est.rows - 250.0).abs() < 1.0, "got {}", est.rows);
        // Below the whole range: nothing qualifies.
        let lt_min = BoundExpr::BinaryOp {
            left: Box::new(col(0)),
            op: BinaryOp::Lt,
            right: Box::new(BoundExpr::literal(Value::Int64(-5))),
            data_type: DataType::Boolean,
        };
        let plan = scan_with(1000, vec![summary(0, 100, None, 0)], vec![lt_min]);
        assert_eq!(estimate(&plan).rows, 0.0);
    }

    #[test]
    fn join_uses_key_ndv() {
        // |L| = 10_000 rows with FK ndv 100; |R| = 100 PK rows.
        let l = scan_with(10_000, vec![summary(1, 100, Some(100), 0)], vec![]);
        let r = scan_with(100, vec![summary(1, 100, Some(100), 0)], vec![]);
        let est = join_est(
            &estimate(&l),
            &estimate(&r),
            JoinType::Inner,
            &[col(0)],
            &[col(0)],
            None,
        );
        // 10_000 × 100 / max(100, 100) = 10_000: the PK-FK shape.
        assert!((est.rows - 10_000.0).abs() < 1e-6, "got {}", est.rows);
    }

    #[test]
    fn integer_span_supplies_missing_ndv() {
        // No analyzed NDV, but min/max span 1..=50 on an integer key.
        let l = scan_with(5000, vec![summary(1, 50, None, 0)], vec![]);
        let est = estimate(&l);
        assert_eq!(est.cols[0].ndv, Some(50.0));
    }

    #[test]
    fn group_by_uses_ndv_product() {
        let input = scan_with(1000, vec![summary(1, 100, Some(4), 0)], vec![]);
        let agg = Plan::Aggregate {
            input: Box::new(input),
            group_exprs: vec![col(0)],
            aggs: vec![],
            output_schema: Arc::new(Schema::new(vec![Field::nullable("c0", DataType::Int64)])),
        };
        let est = estimate(&agg);
        assert!((est.rows - 4.0).abs() < 1e-6, "got {}", est.rows);
    }

    #[test]
    fn inverted_mode_reverses_ordering() {
        let (small, large) = (10.0, 1_000_000.0);
        assert!(EstMode::Normal.rows(small) < EstMode::Normal.rows(large));
        assert!(EstMode::Inverted.rows(small) > EstMode::Inverted.rows(large));
    }

    /// `SELECT DISTINCT o_orderstatus FROM orders` at TPC-H scale 0.01:
    /// 15,000 orders, three statuses. Join ordering, EXPLAIN and `QueryWork`
    /// read the same 3 rows before and after physical planning.
    #[test]
    fn distinct_estimate_is_the_same_before_and_after_physical_planning() {
        let status = ColumnSummary {
            min: Some(Value::Utf8("F".into())),
            max: Some(Value::Utf8("P".into())),
            null_count: 0,
            distinct_count: Some(3),
        };
        let distinct = Plan::Distinct {
            input: Box::new(scan_with(15_000, vec![status], vec![])),
        };
        let physical = crate::plan::create_physical_plan(&distinct).unwrap();
        assert_eq!(estimate(&distinct).rows, 3.0);
        assert_eq!(estimate(&physical).rows, 3.0);
        assert_eq!(physical.estimate().rows, 3.0);
        let text = physical.explain();
        assert!(text.starts_with("Distinct (est_rows=3)\n"), "{text}");
    }
}
