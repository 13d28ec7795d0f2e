//! The plan tree: one operator tree from the binder to the executor.
//!
//! The binder builds a [`Plan`], the optimizer (`crate::rules`) rewrites it,
//! [`create_physical_plan`] fuses Sort + Limit into TopK, `crate::split`
//! cuts it for cloud-function workers, and `pixels_exec` runs it. Each
//! operator's schema, children, EXPLAIN line and cardinality rule
//! ([`crate::cost::estimate`]) is written once, here and in `crate::cost`.

use crate::cost::{estimate_node, NodeEst};
use crate::expr::{AggExpr, BoundExpr};
use crate::rules::map_children;
use pixels_catalog::TableStats;
use pixels_common::{Field, Result, Schema, SchemaRef};
use pixels_sql::ast::{BinaryOp, JoinType};
use pixels_storage::{ColumnPredicate, PredicateOp};
use std::fmt;
use std::sync::Arc;

/// A relational operator tree. Every node knows its output schema.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Scan of a Pixels table with projection pushdown, zone-map pruning
    /// (predicates derived from `filters` by [`zone_predicates`]) and
    /// row-level filters.
    Scan {
        database: String,
        table: String,
        /// Full table schema (projection indices refer to this).
        table_schema: SchemaRef,
        /// Table statistics snapshot taken at bind time.
        stats: TableStats,
        /// Object-store paths of the table's data files.
        paths: Vec<String>,
        projection: Vec<usize>,
        /// Conjuncts over the *projected* schema.
        filters: Vec<BoundExpr>,
        output_schema: SchemaRef,
    },
    /// Scan of a materialized intermediate result (written by CF workers).
    MaterializedScan { path: String, schema: SchemaRef },
    Filter {
        input: Box<Plan>,
        predicate: BoundExpr,
    },
    Project {
        input: Box<Plan>,
        exprs: Vec<BoundExpr>,
        output_schema: SchemaRef,
    },
    /// Hash join: builds on the right input, probes with the left. Key
    /// expressions are bound against the respective side's output schema;
    /// the residual against the concatenated (left ++ right) schema.
    Join {
        left: Box<Plan>,
        right: Box<Plan>,
        join_type: JoinType,
        left_keys: Vec<BoundExpr>,
        right_keys: Vec<BoundExpr>,
        residual: Option<BoundExpr>,
        output_schema: SchemaRef,
    },
    /// Hash aggregate: group columns then aggregates.
    Aggregate {
        input: Box<Plan>,
        group_exprs: Vec<BoundExpr>,
        aggs: Vec<AggExpr>,
        output_schema: SchemaRef,
    },
    /// Hash-based duplicate elimination over all columns.
    Distinct { input: Box<Plan> },
    Sort {
        input: Box<Plan>,
        /// `(key, ascending)` pairs bound against the input schema.
        keys: Vec<(BoundExpr, bool)>,
    },
    /// Sort fused with a row budget: keeps only the first `fetch` rows of
    /// the sorted order (heap-based).
    TopK {
        input: Box<Plan>,
        keys: Vec<(BoundExpr, bool)>,
        fetch: usize,
    },
    Limit {
        input: Box<Plan>,
        limit: Option<u64>,
        offset: u64,
    },
    /// Literal rows (SELECT without FROM).
    Values {
        schema: SchemaRef,
        rows: Vec<Vec<BoundExpr>>,
    },
}

/// Cost estimate for a (sub)plan.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlanEstimate {
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated bytes read from object storage across the whole subtree.
    pub scan_bytes: u64,
    /// Abstract CPU work units (rows touched across all operators).
    pub cpu_work: f64,
}

impl Plan {
    pub fn schema(&self) -> SchemaRef {
        match self {
            Plan::Scan { output_schema, .. }
            | Plan::Project { output_schema, .. }
            | Plan::Join { output_schema, .. }
            | Plan::Aggregate { output_schema, .. } => output_schema.clone(),
            Plan::MaterializedScan { schema, .. } | Plan::Values { schema, .. } => schema.clone(),
            Plan::Filter { input, .. }
            | Plan::Distinct { input }
            | Plan::Sort { input, .. }
            | Plan::TopK { input, .. }
            | Plan::Limit { input, .. } => input.schema(),
        }
    }

    /// Inputs, left before right.
    pub fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Scan { .. } | Plan::MaterializedScan { .. } | Plan::Values { .. } => vec![],
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Distinct { input }
            | Plan::Sort { input, .. }
            | Plan::TopK { input, .. }
            | Plan::Limit { input, .. } => vec![input],
            Plan::Join { left, right, .. } => vec![left, right],
        }
    }

    /// [`Plan::children`], mutably.
    pub(crate) fn children_mut(&mut self) -> Vec<&mut Plan> {
        match self {
            Plan::Scan { .. } | Plan::MaterializedScan { .. } | Plan::Values { .. } => vec![],
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Distinct { input }
            | Plan::Sort { input, .. }
            | Plan::TopK { input, .. }
            | Plan::Limit { input, .. } => vec![input],
            Plan::Join { left, right, .. } => vec![left, right],
        }
    }

    /// Fold the tree bottom-up: `f` sees each node with its inputs' results,
    /// left before right, so every node is visited once.
    pub(crate) fn fold<T>(&self, f: &mut impl FnMut(&Plan, Vec<T>) -> T) -> T {
        let inputs = self.children().into_iter().map(|c| c.fold(f)).collect();
        f(self, inputs)
    }

    /// Build the output schema of a join.
    pub fn join_schema(left: &Schema, right: &Schema, join_type: JoinType) -> Schema {
        // Outer joins make the null-extended side nullable.
        let sides = [
            (left, join_type == JoinType::Right),
            (right, join_type == JoinType::Left),
        ];
        let fields = sides.into_iter().flat_map(|(side, null_extended)| {
            side.fields().iter().map(move |f| Field {
                nullable: f.nullable || null_extended,
                ..f.clone()
            })
        });
        Schema::new(fields.collect())
    }

    /// Cost/size estimate of the whole subtree. Output rows come from the
    /// statistics estimator (`crate::cost`); scan bytes and CPU work
    /// accumulate structurally.
    pub fn estimate(&self) -> PlanEstimate {
        let (_, estimate) = self.fold(&mut |node, inputs: Vec<(NodeEst, PlanEstimate)>| {
            let (ests, subtrees): (Vec<NodeEst>, Vec<PlanEstimate>) = inputs.into_iter().unzip();
            let e = subtrees.first().copied().unwrap_or_default();
            let (scan_bytes, cpu_work) = match node {
                Plan::Scan {
                    stats,
                    projection,
                    table_schema,
                    ..
                } => {
                    let full_width: usize = table_schema.row_byte_width().max(1);
                    let proj_width: usize = projection
                        .iter()
                        .map(|&i| table_schema.field(i).data_type.byte_width())
                        .sum();
                    let frac = proj_width as f64 / full_width as f64;
                    (
                        (stats.total_bytes as f64 * frac) as u64,
                        stats.row_count as f64,
                    )
                }
                Plan::MaterializedScan { .. } => (0, 1000.0),
                Plan::Filter { .. }
                | Plan::Project { .. }
                | Plan::Aggregate { .. }
                | Plan::Distinct { .. }
                | Plan::TopK { .. } => (e.scan_bytes, e.cpu_work + e.rows),
                Plan::Join { .. } => {
                    let r = subtrees[1];
                    (
                        e.scan_bytes + r.scan_bytes,
                        e.cpu_work + r.cpu_work + e.rows + r.rows,
                    )
                }
                Plan::Sort { .. } => (e.scan_bytes, e.cpu_work + e.rows * e.rows.max(2.0).log2()),
                Plan::Limit { .. } => (e.scan_bytes, e.cpu_work),
                Plan::Values { rows, .. } => (0, rows.len() as f64),
            };
            let est = estimate_node(node, ests);
            let subtree = PlanEstimate {
                rows: est.rows,
                scan_bytes,
                cpu_work,
            };
            (est, subtree)
        });
        estimate
    }

    /// Indented EXPLAIN rendering, one line per operator with its estimated
    /// output rows.
    pub fn explain(&self) -> String {
        let (_, text) = self.fold(&mut |node, inputs: Vec<(NodeEst, String)>| {
            let (ests, below): (Vec<NodeEst>, Vec<String>) = inputs.into_iter().unzip();
            let est = estimate_node(node, ests);
            let mut text = format!("{} (est_rows={})\n", node.label(), est.rows.round() as u64);
            for line in below.iter().flat_map(|b| b.lines()) {
                text.push_str("  ");
                text.push_str(line);
                text.push('\n');
            }
            (est, text)
        });
        text
    }

    /// This operator's EXPLAIN line, without its estimate.
    fn label(&self) -> String {
        let sort_keys = |keys: &[(BoundExpr, bool)]| {
            let keys = keys.iter();
            comma_list(keys.map(|(e, asc)| format!("{e}{}", if *asc { "" } else { " DESC" })))
        };
        match self {
            Plan::Scan {
                database,
                table,
                projection,
                filters,
                ..
            } => {
                let mut s = format!("PixelsScan: {database}.{table} cols={projection:?}");
                let zone = zone_predicates(filters, projection).len();
                if zone > 0 {
                    s += &format!(" zone_preds={zone}");
                }
                if !filters.is_empty() {
                    s += &format!(" filters=[{}]", comma_list(filters));
                }
                s
            }
            Plan::MaterializedScan { path, .. } => format!("MaterializedScan: {path}"),
            Plan::Filter { predicate, .. } => format!("Filter: {predicate}"),
            Plan::Project { exprs, .. } => format!("Project: {}", comma_list(exprs)),
            Plan::Join {
                join_type,
                left_keys,
                right_keys,
                residual,
                ..
            } => {
                let keys = left_keys.iter().zip(right_keys);
                let keys = comma_list(keys.map(|(l, r)| format!("{l} = {r}")));
                let mut s = format!("HashJoin({join_type:?}): [{keys}]");
                if let Some(r) = residual {
                    s += &format!(" residual={r}");
                }
                s
            }
            Plan::Aggregate {
                group_exprs, aggs, ..
            } => format!(
                "HashAggregate: group=[{}] aggs=[{}]",
                comma_list(group_exprs),
                comma_list(aggs)
            ),
            Plan::Distinct { .. } => "Distinct".to_string(),
            Plan::Sort { keys, .. } => format!("Sort: {}", sort_keys(keys)),
            Plan::TopK { keys, fetch, .. } => format!("TopK(fetch={fetch}): {}", sort_keys(keys)),
            Plan::Limit { limit, offset, .. } => format!("Limit: limit={limit:?} offset={offset}"),
            Plan::Values { rows, .. } => format!("Values: {} row(s)", rows.len()),
        }
    }
}

/// `items` displayed and joined with ", ".
fn comma_list<T: fmt::Display>(items: impl IntoIterator<Item = T>) -> String {
    let items: Vec<String> = items.into_iter().map(|i| i.to_string()).collect();
    items.join(", ")
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

/// Helper: schema of projected expressions with display names.
pub fn schema_from_exprs(exprs: &[BoundExpr], names: &[String]) -> SchemaRef {
    debug_assert_eq!(exprs.len(), names.len());
    Arc::new(Schema::new(
        exprs
            .iter()
            .zip(names)
            .map(|(e, n)| Field::nullable(n.clone(), e.data_type()))
            .collect(),
    ))
}

/// Ready the optimized plan for execution: fuse every Sort under a LIMIT
/// into a TopK. Projections between the two preserve row count and order,
/// so the fusion looks through them (the hidden-sort-column trim projection
/// sits exactly there).
pub fn create_physical_plan(plan: &Plan) -> Result<Plan> {
    fn fuse(plan: Plan) -> Plan {
        match map_children(plan, fuse) {
            Plan::Limit {
                input,
                limit: Some(limit),
                offset,
            } => Plan::Limit {
                input: Box::new(into_topk(*input, (limit + offset) as usize)),
                limit: Some(limit),
                offset,
            },
            other => other,
        }
    }
    /// The first Sort below any chain of Projects becomes a TopK.
    fn into_topk(plan: Plan, fetch: usize) -> Plan {
        match plan {
            Plan::Sort { input, keys } => Plan::TopK { input, keys, fetch },
            Plan::Project {
                input,
                exprs,
                output_schema,
            } => Plan::Project {
                input: Box::new(into_topk(*input, fetch)),
                exprs,
                output_schema,
            },
            other => other,
        }
    }
    Ok(fuse(plan.clone()))
}

/// The zone-map-prunable predicates among a scan's `filters`: each top-level
/// conjunct `column <op> literal` (either way around) with a non-NULL
/// literal, its projected index translated back to the table schema's. Scan
/// open (row-group pruning) and EXPLAIN both derive them here, so pruning
/// can never disagree with the filters.
pub fn zone_predicates(filters: &[BoundExpr], projection: &[usize]) -> Vec<ColumnPredicate> {
    let mut out = Vec::new();
    for f in filters {
        let BoundExpr::BinaryOp {
            left, op, right, ..
        } = f
        else {
            continue;
        };
        // `(op, flipped op)`: `literal < column` is `column > literal`.
        let (op, flipped) = match op {
            BinaryOp::Eq => (PredicateOp::Eq, PredicateOp::Eq),
            BinaryOp::Lt => (PredicateOp::Lt, PredicateOp::Gt),
            BinaryOp::LtEq => (PredicateOp::LtEq, PredicateOp::GtEq),
            BinaryOp::Gt => (PredicateOp::Gt, PredicateOp::Lt),
            BinaryOp::GtEq => (PredicateOp::GtEq, PredicateOp::LtEq),
            _ => continue,
        };
        let (index, op, value) = match (left.as_ref(), right.as_ref()) {
            (BoundExpr::ColumnRef { index, .. }, BoundExpr::Literal(v)) => (index, op, v),
            (BoundExpr::Literal(v), BoundExpr::ColumnRef { index, .. }) => (index, flipped, v),
            _ => continue,
        };
        if !value.is_null() {
            out.push(ColumnPredicate {
                column: projection[*index],
                op,
                value: value.clone(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixels_common::{DataType, Value};

    fn scan(rows: u64) -> Plan {
        let schema = Arc::new(Schema::new(vec![
            Field::required("a", DataType::Int64),
            Field::required("b", DataType::Utf8),
        ]));
        Plan::Scan {
            database: "db".into(),
            table: "t".into(),
            table_schema: schema.clone(),
            stats: TableStats {
                row_count: rows,
                total_bytes: rows * 24,
                columns: vec![],
            },
            paths: vec!["db/t/0.pxl".into()],
            projection: vec![0, 1],
            filters: vec![],
            output_schema: schema,
        }
    }

    fn a_lt(v: i64) -> BoundExpr {
        BoundExpr::BinaryOp {
            left: Box::new(BoundExpr::column(0, DataType::Int64, "a")),
            op: BinaryOp::Lt,
            right: Box::new(BoundExpr::literal(Value::Int64(v))),
            data_type: DataType::Boolean,
        }
    }

    #[test]
    fn schema_propagates_through_unary_nodes() {
        let plan = Plan::Limit {
            input: Box::new(Plan::Distinct {
                input: Box::new(scan(10)),
            }),
            limit: Some(5),
            offset: 0,
        };
        assert_eq!(plan.schema().len(), 2);
    }

    #[test]
    fn join_schema_nullability() {
        let l = Schema::new(vec![Field::required("a", DataType::Int64)]);
        let r = Schema::new(vec![Field::required("b", DataType::Int64)]);
        let s = Plan::join_schema(&l, &r, JoinType::Left);
        assert!(!s.field(0).nullable);
        assert!(s.field(1).nullable, "left join null-extends the right side");
        let s = Plan::join_schema(&l, &r, JoinType::Right);
        assert!(s.field(0).nullable);
        assert!(!s.field(1).nullable);
        let s = Plan::join_schema(&l, &r, JoinType::Inner);
        assert!(!s.field(0).nullable && !s.field(1).nullable);
    }

    #[test]
    fn cardinality_estimates_shrink_with_filters() {
        let base = scan(1000);
        let filtered = Plan::Filter {
            input: Box::new(scan(1000)),
            predicate: a_lt(10),
        };
        assert!(filtered.estimate().rows < base.estimate().rows);
        // A tautological filter keeps every row.
        let kept = Plan::Filter {
            input: Box::new(scan(1000)),
            predicate: BoundExpr::literal(Value::Boolean(true)),
        };
        assert_eq!(kept.estimate().rows, base.estimate().rows);
        let limited = Plan::Limit {
            input: Box::new(scan(1000)),
            limit: Some(10),
            offset: 0,
        };
        assert_eq!(limited.estimate().rows, 10.0);
    }

    #[test]
    fn explain_renders_tree() {
        let plan = Plan::Limit {
            input: Box::new(scan(10)),
            limit: Some(1),
            offset: 0,
        };
        let text = plan.explain();
        assert!(
            text.starts_with("Limit: limit=Some(1) offset=0 (est_rows=1)\n"),
            "{text}"
        );
        assert!(text.contains("\n  PixelsScan: db.t"), "{text}");
    }

    #[test]
    fn zone_predicates_flip_and_skip() {
        let flipped = BoundExpr::BinaryOp {
            left: Box::new(BoundExpr::literal(Value::Int64(3))),
            op: BinaryOp::Lt,
            right: Box::new(BoundExpr::column(1, DataType::Int64, "b")),
            data_type: DataType::Boolean,
        };
        let null = BoundExpr::BinaryOp {
            left: Box::new(BoundExpr::column(0, DataType::Int64, "a")),
            op: BinaryOp::Eq,
            right: Box::new(BoundExpr::literal(Value::Null)),
            data_type: DataType::Boolean,
        };
        // A nested AND is one conjunct, not a comparison: it prunes nothing.
        let nested = BoundExpr::BinaryOp {
            left: Box::new(a_lt(7)),
            op: BinaryOp::And,
            right: Box::new(a_lt(8)),
            data_type: DataType::Boolean,
        };
        let preds = zone_predicates(&[a_lt(0), flipped, null, nested], &[4, 9]);
        let got: Vec<_> = preds.iter().map(|p| (p.column, p.op)).collect();
        assert_eq!(got, [(4, PredicateOp::Lt), (9, PredicateOp::Gt)]);
    }
}
