//! Physical plans: executable operator trees.
//!
//! Physical planning lowers the optimized logical plan onto concrete
//! operators (hash join, hash aggregate, top-k), derives zone-map predicates
//! for row-group pruning, and computes the cost estimates the Pixels-Turbo
//! scheduler and billing model consume.

use crate::expr::{AggExpr, BoundExpr};
use crate::logical::LogicalPlan;
use pixels_catalog::TableStats;
use pixels_common::{Result, SchemaRef, Value};
use pixels_sql::ast::{BinaryOp, JoinType};
use pixels_storage::{ColumnPredicate, PredicateOp};

/// An executable operator tree.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Scan of a Pixels table with projection pushdown, zone-map pruning,
    /// and residual row-level filters.
    Scan {
        database: String,
        table: String,
        paths: Vec<String>,
        /// Full file schema (projection indices refer to this).
        file_schema: SchemaRef,
        stats: TableStats,
        projection: Vec<usize>,
        /// Predicates usable for row-group pruning (file-schema indices).
        zone_predicates: Vec<ColumnPredicate>,
        /// Row-level filters over the *projected* schema.
        filters: Vec<BoundExpr>,
        output_schema: SchemaRef,
    },
    /// Scan of a materialized intermediate result (written by CF workers).
    MaterializedScan {
        path: String,
        schema: SchemaRef,
    },
    Filter {
        input: Box<PhysicalPlan>,
        predicate: BoundExpr,
    },
    Project {
        input: Box<PhysicalPlan>,
        exprs: Vec<BoundExpr>,
        output_schema: SchemaRef,
    },
    /// Hash join: builds on the right input, probes with the left.
    HashJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        join_type: JoinType,
        left_keys: Vec<BoundExpr>,
        right_keys: Vec<BoundExpr>,
        residual: Option<BoundExpr>,
        output_schema: SchemaRef,
    },
    HashAggregate {
        input: Box<PhysicalPlan>,
        group_exprs: Vec<BoundExpr>,
        aggs: Vec<AggExpr>,
        output_schema: SchemaRef,
    },
    Distinct {
        input: Box<PhysicalPlan>,
    },
    Sort {
        input: Box<PhysicalPlan>,
        keys: Vec<(BoundExpr, bool)>,
    },
    /// Sort fused with a row budget: keeps only the first `fetch` rows of
    /// the sorted order (heap-based).
    TopK {
        input: Box<PhysicalPlan>,
        keys: Vec<(BoundExpr, bool)>,
        fetch: usize,
    },
    Limit {
        input: Box<PhysicalPlan>,
        limit: Option<u64>,
        offset: u64,
    },
    Values {
        schema: SchemaRef,
        rows: Vec<Vec<BoundExpr>>,
    },
}

/// Cost estimate for a physical (sub)plan.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlanEstimate {
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated bytes read from object storage across the whole subtree.
    pub scan_bytes: u64,
    /// Abstract CPU work units (rows touched across all operators).
    pub cpu_work: f64,
}

impl PhysicalPlan {
    pub fn schema(&self) -> SchemaRef {
        match self {
            PhysicalPlan::Scan { output_schema, .. } => output_schema.clone(),
            PhysicalPlan::MaterializedScan { schema, .. } => schema.clone(),
            PhysicalPlan::Filter { input, .. } => input.schema(),
            PhysicalPlan::Project { output_schema, .. } => output_schema.clone(),
            PhysicalPlan::HashJoin { output_schema, .. } => output_schema.clone(),
            PhysicalPlan::HashAggregate { output_schema, .. } => output_schema.clone(),
            PhysicalPlan::Distinct { input } => input.schema(),
            PhysicalPlan::Sort { input, .. } => input.schema(),
            PhysicalPlan::TopK { input, .. } => input.schema(),
            PhysicalPlan::Limit { input, .. } => input.schema(),
            PhysicalPlan::Values { schema, .. } => schema.clone(),
        }
    }

    pub fn children(&self) -> Vec<&PhysicalPlan> {
        match self {
            PhysicalPlan::Scan { .. }
            | PhysicalPlan::MaterializedScan { .. }
            | PhysicalPlan::Values { .. } => vec![],
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::HashAggregate { input, .. }
            | PhysicalPlan::Distinct { input }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::TopK { input, .. }
            | PhysicalPlan::Limit { input, .. } => vec![input],
            PhysicalPlan::HashJoin { left, right, .. } => vec![left, right],
        }
    }

    /// Cost/size estimate of the whole subtree. Output rows come from the
    /// statistics estimator (`crate::cost`); scan bytes and CPU work
    /// accumulate structurally.
    pub fn estimate(&self) -> PlanEstimate {
        self.estimate_node().1
    }

    /// One bottom-up pass yielding this node's cardinality estimate and its
    /// subtree's [`PlanEstimate`] together: every node is visited once.
    fn estimate_node(&self) -> (crate::cost::NodeEst, PlanEstimate) {
        // Filled as the cardinality estimator asks for each input's
        // estimate: one entry, or left then right under a join.
        let mut inputs = [PlanEstimate::default(); 2];
        let mut seen = 0;
        let est = crate::cost::physical_node_est(self, &mut |input| {
            let (est, subtree) = input.estimate_node();
            inputs[seen] = subtree;
            seen += 1;
            est
        });
        let [e, r] = inputs;
        let (scan_bytes, cpu_work) = match self {
            PhysicalPlan::Scan {
                stats,
                projection,
                file_schema,
                ..
            } => {
                let full_width: usize = file_schema.row_byte_width().max(1);
                let proj_width: usize = projection
                    .iter()
                    .map(|&i| file_schema.field(i).data_type.byte_width())
                    .sum();
                let frac = proj_width as f64 / full_width as f64;
                (
                    (stats.total_bytes as f64 * frac) as u64,
                    stats.row_count as f64,
                )
            }
            PhysicalPlan::MaterializedScan { .. } => (0, 1000.0),
            PhysicalPlan::Filter { .. }
            | PhysicalPlan::Project { .. }
            | PhysicalPlan::HashAggregate { .. }
            | PhysicalPlan::Distinct { .. }
            | PhysicalPlan::TopK { .. } => (e.scan_bytes, e.cpu_work + e.rows),
            PhysicalPlan::HashJoin { .. } => (
                e.scan_bytes + r.scan_bytes,
                e.cpu_work + r.cpu_work + e.rows + r.rows,
            ),
            PhysicalPlan::Sort { .. } => {
                (e.scan_bytes, e.cpu_work + e.rows * (e.rows.max(2.0)).log2())
            }
            PhysicalPlan::Limit { .. } => (e.scan_bytes, e.cpu_work),
            PhysicalPlan::Values { rows, .. } => (0, rows.len() as f64),
        };
        let subtree = PlanEstimate {
            rows: est.rows,
            scan_bytes,
            cpu_work,
        };
        (est, subtree)
    }

    /// Indented EXPLAIN rendering.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(0, &mut out);
        out
    }

    fn explain_into(&self, indent: usize, out: &mut String) {
        use std::fmt::Write;
        for _ in 0..indent {
            out.push_str("  ");
        }
        let est_rows = crate::cost::estimate_physical(self).rows.round() as u64;
        match self {
            PhysicalPlan::Scan {
                database,
                table,
                projection,
                zone_predicates,
                filters,
                ..
            } => {
                let _ = write!(out, "PixelsScan: {database}.{table} cols={projection:?}");
                if !zone_predicates.is_empty() {
                    let _ = write!(out, " zone_preds={}", zone_predicates.len());
                }
                if !filters.is_empty() {
                    let fs: Vec<String> = filters.iter().map(|fx| fx.to_string()).collect();
                    let _ = write!(out, " filters=[{}]", fs.join(", "));
                }
            }
            PhysicalPlan::MaterializedScan { path, .. } => {
                let _ = write!(out, "MaterializedScan: {path}");
            }
            PhysicalPlan::Filter { predicate, .. } => {
                let _ = write!(out, "Filter: {predicate}");
            }
            PhysicalPlan::Project { exprs, .. } => {
                let items: Vec<String> = exprs.iter().map(|e| e.to_string()).collect();
                let _ = write!(out, "Project: {}", items.join(", "));
            }
            PhysicalPlan::HashJoin {
                join_type,
                left_keys,
                right_keys,
                ..
            } => {
                let keys: Vec<String> = left_keys
                    .iter()
                    .zip(right_keys)
                    .map(|(l, r)| format!("{l} = {r}"))
                    .collect();
                let _ = write!(out, "HashJoin({join_type:?}): [{}]", keys.join(", "));
            }
            PhysicalPlan::HashAggregate {
                group_exprs, aggs, ..
            } => {
                let g: Vec<String> = group_exprs.iter().map(|e| e.to_string()).collect();
                let a: Vec<String> = aggs.iter().map(|x| x.to_string()).collect();
                let _ = write!(
                    out,
                    "HashAggregate: group=[{}] aggs=[{}]",
                    g.join(", "),
                    a.join(", ")
                );
            }
            PhysicalPlan::Distinct { .. } => {
                let _ = write!(out, "Distinct");
            }
            PhysicalPlan::Sort { keys, .. } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|(e, asc)| format!("{e}{}", if *asc { "" } else { " DESC" }))
                    .collect();
                let _ = write!(out, "Sort: {}", ks.join(", "));
            }
            PhysicalPlan::TopK { keys, fetch, .. } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|(e, asc)| format!("{e}{}", if *asc { "" } else { " DESC" }))
                    .collect();
                let _ = write!(out, "TopK(fetch={fetch}): {}", ks.join(", "));
            }
            PhysicalPlan::Limit { limit, offset, .. } => {
                let _ = write!(out, "Limit: limit={limit:?} offset={offset}");
            }
            PhysicalPlan::Values { rows, .. } => {
                let _ = write!(out, "Values: {} row(s)", rows.len());
            }
        }
        let _ = writeln!(out, " (est_rows={est_rows})");
        for c in self.children() {
            c.explain_into(indent + 1, out);
        }
    }
}

/// Lower an optimized logical plan to a physical plan.
pub fn create_physical_plan(plan: &LogicalPlan) -> Result<PhysicalPlan> {
    Ok(match plan {
        LogicalPlan::Scan {
            database,
            table,
            table_schema,
            stats,
            paths,
            projection,
            filters,
            output_schema,
        } => {
            let zone_predicates = derive_zone_predicates(filters, projection);
            PhysicalPlan::Scan {
                database: database.clone(),
                table: table.clone(),
                paths: paths.clone(),
                file_schema: table_schema.clone(),
                stats: stats.clone(),
                projection: projection.clone(),
                zone_predicates,
                filters: filters.clone(),
                output_schema: output_schema.clone(),
            }
        }
        LogicalPlan::Filter { input, predicate } => PhysicalPlan::Filter {
            input: Box::new(create_physical_plan(input)?),
            predicate: predicate.clone(),
        },
        LogicalPlan::Project {
            input,
            exprs,
            output_schema,
        } => PhysicalPlan::Project {
            input: Box::new(create_physical_plan(input)?),
            exprs: exprs.clone(),
            output_schema: output_schema.clone(),
        },
        LogicalPlan::Join {
            left,
            right,
            join_type,
            left_keys,
            right_keys,
            residual,
            output_schema,
        } => PhysicalPlan::HashJoin {
            left: Box::new(create_physical_plan(left)?),
            right: Box::new(create_physical_plan(right)?),
            join_type: *join_type,
            left_keys: left_keys.clone(),
            right_keys: right_keys.clone(),
            residual: residual.clone(),
            output_schema: output_schema.clone(),
        },
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggs,
            output_schema,
        } => PhysicalPlan::HashAggregate {
            input: Box::new(create_physical_plan(input)?),
            group_exprs: group_exprs.clone(),
            aggs: aggs.clone(),
            output_schema: output_schema.clone(),
        },
        LogicalPlan::Distinct { input } => PhysicalPlan::Distinct {
            input: Box::new(create_physical_plan(input)?),
        },
        LogicalPlan::Sort { input, keys } => PhysicalPlan::Sort {
            input: Box::new(create_physical_plan(input)?),
            keys: keys.clone(),
        },
        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => {
            // Fuse Sort + Limit into TopK. Projections between the two
            // preserve row count and order, so the fusion looks through
            // them (the hidden-sort-column trim projection sits exactly
            // there).
            if let Some(l) = limit {
                let fetch = (*l + *offset) as usize;
                if let Some(fused) = fuse_topk(input, fetch)? {
                    return Ok(PhysicalPlan::Limit {
                        input: Box::new(fused),
                        limit: *limit,
                        offset: *offset,
                    });
                }
            }
            PhysicalPlan::Limit {
                input: Box::new(create_physical_plan(input)?),
                limit: *limit,
                offset: *offset,
            }
        }
        LogicalPlan::Values { schema, rows } => PhysicalPlan::Values {
            schema: schema.clone(),
            rows: rows.clone(),
        },
    })
}

/// Try to rewrite `plan` (the input of a LIMIT with budget `fetch`) so the
/// first Sort below any chain of Projects becomes a TopK. Returns `None`
/// when there is no such Sort.
fn fuse_topk(plan: &LogicalPlan, fetch: usize) -> Result<Option<PhysicalPlan>> {
    match plan {
        LogicalPlan::Sort { input, keys } => Ok(Some(PhysicalPlan::TopK {
            input: Box::new(create_physical_plan(input)?),
            keys: keys.clone(),
            fetch,
        })),
        LogicalPlan::Project {
            input,
            exprs,
            output_schema,
        } => Ok(fuse_topk(input, fetch)?.map(|fused| PhysicalPlan::Project {
            input: Box::new(fused),
            exprs: exprs.clone(),
            output_schema: output_schema.clone(),
        })),
        _ => Ok(None),
    }
}

/// Extract zone-map-prunable predicates (`column <op> literal`) from scan
/// filters, translating projected indices back to file-schema indices.
fn derive_zone_predicates(filters: &[BoundExpr], projection: &[usize]) -> Vec<ColumnPredicate> {
    let mut out = Vec::new();
    for f in filters {
        if let BoundExpr::BinaryOp {
            left, op, right, ..
        } = f
        {
            let pred_op = match op {
                BinaryOp::Eq => PredicateOp::Eq,
                BinaryOp::Lt => PredicateOp::Lt,
                BinaryOp::LtEq => PredicateOp::LtEq,
                BinaryOp::Gt => PredicateOp::Gt,
                BinaryOp::GtEq => PredicateOp::GtEq,
                _ => continue,
            };
            match (left.as_ref(), right.as_ref()) {
                (BoundExpr::ColumnRef { index, .. }, BoundExpr::Literal(v)) if !v.is_null() => {
                    out.push(ColumnPredicate {
                        column: projection[*index],
                        op: pred_op,
                        value: v.clone(),
                    });
                }
                (BoundExpr::Literal(v), BoundExpr::ColumnRef { index, .. }) if !v.is_null() => {
                    // Flip: literal <op> column  =>  column <flipped op> literal.
                    let flipped = match pred_op {
                        PredicateOp::Eq => PredicateOp::Eq,
                        PredicateOp::Lt => PredicateOp::Gt,
                        PredicateOp::LtEq => PredicateOp::GtEq,
                        PredicateOp::Gt => PredicateOp::Lt,
                        PredicateOp::GtEq => PredicateOp::LtEq,
                    };
                    out.push(ColumnPredicate {
                        column: projection[*index],
                        op: flipped,
                        value: v.clone(),
                    });
                }
                _ => {}
            }
        }
        // BETWEEN desugars to (x >= lo AND x <= hi); AND conjuncts arrive
        // pre-split from the optimizer, but nested ANDs can remain inside a
        // single filter — handle one level.
        if let BoundExpr::BinaryOp {
            left,
            op: BinaryOp::And,
            right,
            ..
        } = f
        {
            out.extend(derive_zone_predicates(
                &[(**left).clone(), (**right).clone()],
                projection,
            ));
        }
    }
    // Drop predicates against NULL literals (can never match).
    out.retain(|p| !matches!(p.value, Value::Null));
    out
}
