//! The execution engine: recursively evaluates physical plans.

use crate::aggregate::{execute_aggregate, execute_distinct};
use crate::context::ExecContext;
use crate::encoded::execute_encoded_aggregate;
use crate::evaluate::{evaluate, fused_filter_mask};
use crate::join::{coalesce, cross_join, is_equi_join, JoinBuild, RowSink};
use crate::keys::KeyFilter;
use crate::parallel;
use crate::scan::{execute_scan, open_metered};
use crate::sort::{execute_limit, execute_sort, execute_topk};
use pixels_common::{RecordBatch, Result, Value};
use pixels_planner::eval::{eval_expr, NoRow};
use pixels_planner::{BoundExpr, PhysicalPlan};
use pixels_sql::ast::JoinType;

/// Stable span name for each operator, used in query profiles.
pub fn operator_name(plan: &PhysicalPlan) -> &'static str {
    match plan {
        PhysicalPlan::Scan { .. } => "scan",
        PhysicalPlan::MaterializedScan { .. } => "materialized_scan",
        PhysicalPlan::Filter { .. } => "filter",
        PhysicalPlan::Project { .. } => "project",
        PhysicalPlan::HashJoin { .. } => "hash_join",
        PhysicalPlan::HashAggregate { .. } => "hash_aggregate",
        PhysicalPlan::Distinct { .. } => "distinct",
        PhysicalPlan::Sort { .. } => "sort",
        PhysicalPlan::TopK { .. } => "topk",
        PhysicalPlan::Limit { .. } => "limit",
        PhysicalPlan::Values { .. } => "values",
    }
}

/// Execute a physical plan to completion, returning all result batches.
///
/// Execution is fully materialized operator-by-operator; scans, filters,
/// projections, and partial aggregation fan out over `ctx.parallelism`
/// morsel-driven workers (`parallelism == 1` reproduces serial execution
/// exactly). Batches respect `ctx.batch_size`.
///
/// When the context carries an enabled trace, every operator runs inside its
/// own span (children nested under it) recording output rows and duration;
/// with tracing disabled this wrapper adds nothing to the hot path.
pub fn execute(plan: &PhysicalPlan, ctx: &ExecContext) -> Result<Vec<RecordBatch>> {
    execute_probed(plan, ctx, None)
}

/// [`execute`] for a plan that is the probe side of a hash join whose build
/// side published `join_filter`. Only a scan can use one.
fn execute_probed(
    plan: &PhysicalPlan,
    ctx: &ExecContext,
    join_filter: Option<&KeyFilter>,
) -> Result<Vec<RecordBatch>> {
    if !ctx.trace.enabled() {
        return execute_inner(plan, ctx, join_filter);
    }
    let mut span = ctx.trace.span(operator_name(plan));
    if let Some(filter) = join_filter {
        span.record_str("join_filter", filter.kind());
    }
    let child_ctx = ctx.under(&span);
    let out = execute_inner(plan, &child_ctx, join_filter)?;
    let rows: usize = out.iter().map(|b| b.num_rows()).sum();
    span.record_u64("rows_out", rows as u64);
    Ok(out)
}

fn execute_inner(
    plan: &PhysicalPlan,
    ctx: &ExecContext,
    join_filter: Option<&KeyFilter>,
) -> Result<Vec<RecordBatch>> {
    match plan {
        PhysicalPlan::Scan {
            paths,
            projection,
            zone_predicates,
            filters,
            output_schema,
            ..
        } => execute_scan(
            ctx,
            paths,
            projection,
            zone_predicates,
            filters,
            join_filter,
            output_schema,
        ),
        PhysicalPlan::MaterializedScan { path, .. } => {
            let reader = open_metered(ctx, path)?;
            let mut span = ctx.trace.span("read");
            let batches = reader.read_all(None, &[])?;
            let rows: u64 = batches.iter().map(|b| b.num_rows() as u64).sum();
            let bytes: u64 = (0..reader.num_row_groups())
                .map(|rg| reader.row_group_bytes(rg, None))
                .sum();
            span.record_u64("bytes", bytes);
            span.record_u64("rows", rows);
            span.finish();
            ctx.metrics.add_scan(bytes, rows);
            Ok(batches)
        }
        PhysicalPlan::Filter { input, predicate } => {
            let batches = execute(input, ctx)?;
            let filtered = parallel::run_indexed(batches.len(), ctx.parallelism, |i| {
                let b = &batches[i];
                let mask = fused_filter_mask(std::slice::from_ref(predicate), b)?;
                b.filter(&mask)
            })?;
            let mut out: Vec<RecordBatch> =
                filtered.into_iter().filter(|f| f.num_rows() > 0).collect();
            // Preserve schema even when every row is filtered out.
            if out.is_empty() {
                out.push(RecordBatch::empty(input.schema()));
            }
            Ok(out)
        }
        PhysicalPlan::Project {
            input,
            exprs,
            output_schema,
        } => {
            let batches = execute(input, ctx)?;
            let mut out = parallel::run_indexed(batches.len(), ctx.parallelism, |i| {
                let columns = exprs
                    .iter()
                    .map(|e| evaluate(e, &batches[i]))
                    .collect::<Result<Vec<_>>>()?;
                RecordBatch::try_new(output_schema.clone(), columns)
            })?;
            // Preserve schema even for empty input.
            if out.is_empty() {
                out.push(RecordBatch::empty(output_schema.clone()));
            }
            Ok(out)
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            join_type,
            left_keys,
            right_keys,
            residual,
            output_schema,
        } => {
            // The build (right) side runs first, whatever the join type:
            // what it holds decides which rows of the probe side a scan
            // needs to hand over at all.
            let rb = execute(right, ctx)?;
            let left_width = left.schema().len();
            if !is_equi_join(*join_type, left_keys) {
                let lb = execute(left, ctx)?;
                return cross_join(
                    &lb,
                    &rb,
                    *join_type,
                    residual.as_ref(),
                    output_schema,
                    ctx.batch_size,
                );
            }
            let build = JoinBuild::new(coalesce(&rb)?, right_keys, left_keys)?;
            // A probe row without a match is dropped by an inner and a
            // right-outer join, so the scan may drop it first; a left-outer
            // join emits it.
            let droppable = matches!(join_type, JoinType::Inner | JoinType::Right);
            let filter = if droppable && matches!(left.as_ref(), PhysicalPlan::Scan { .. }) {
                build.key_filter()?
            } else {
                None
            };
            let lb = execute_probed(left, ctx, filter.as_ref())?;
            build.join(
                &lb,
                *join_type,
                residual.as_ref(),
                output_schema,
                left_width,
                ctx.batch_size,
            )
        }
        PhysicalPlan::HashAggregate {
            input,
            group_exprs,
            aggs,
            output_schema,
        } => {
            // Grand totals over a bare scan fold encoded chunks directly —
            // COUNT from validity headers, SUM/MIN/MAX over RLE runs —
            // skipping row materialization entirely.
            // Gated on exactly the shapes whose per-row semantics the
            // encoded path reproduces bit-identically.
            if group_exprs.is_empty() {
                if let PhysicalPlan::Scan {
                    paths,
                    projection,
                    zone_predicates,
                    filters,
                    ..
                } = input.as_ref()
                {
                    let simple_args = aggs.iter().all(|a| {
                        !a.distinct
                            && matches!(a.arg.as_ref(), None | Some(BoundExpr::ColumnRef { .. }))
                    });
                    if filters.is_empty() && simple_args {
                        return execute_encoded_aggregate(
                            ctx,
                            paths,
                            projection,
                            zone_predicates,
                            aggs,
                            output_schema,
                        );
                    }
                }
            }
            let batches = execute(input, ctx)?;
            execute_aggregate(&batches, group_exprs, aggs, output_schema, ctx.parallelism)
        }
        PhysicalPlan::Distinct { input } => {
            let batches = execute(input, ctx)?;
            execute_distinct(&batches)
        }
        PhysicalPlan::Sort { input, keys } => {
            let batches = execute(input, ctx)?;
            execute_sort(&batches, keys, ctx.batch_size)
        }
        PhysicalPlan::TopK { input, keys, fetch } => {
            let batches = execute(input, ctx)?;
            execute_topk(&batches, keys, *fetch, ctx.batch_size)
        }
        PhysicalPlan::Limit {
            input,
            limit,
            offset,
        } => {
            let batches = execute(input, ctx)?;
            execute_limit(batches, *limit, *offset)
        }
        PhysicalPlan::Values { schema, rows } => {
            let mut sink = RowSink::new(schema.clone(), ctx.batch_size);
            for row in rows {
                let values: Vec<Value> = row
                    .iter()
                    .map(|e| eval_expr(e, &NoRow))
                    .collect::<Result<_>>()?;
                // Adapt literal widths to the declared schema.
                let adapted: Vec<Value> = values
                    .iter()
                    .zip(schema.fields())
                    .map(|(v, f)| {
                        if v.is_null() {
                            Ok(Value::Null)
                        } else {
                            v.cast_to(f.data_type)
                        }
                    })
                    .collect::<Result<_>>()?;
                sink.push(adapted)?;
            }
            let mut batches = sink.finish()?;
            if batches.is_empty() {
                batches.push(RecordBatch::empty(schema.clone()));
            }
            Ok(batches)
        }
    }
}

/// Execute and concatenate into a single batch (empty-schema-preserving).
pub fn execute_collect(plan: &PhysicalPlan, ctx: &ExecContext) -> Result<RecordBatch> {
    let batches = execute(plan, ctx)?;
    if batches.is_empty() {
        return Ok(RecordBatch::empty(plan.schema()));
    }
    RecordBatch::concat(&batches)
}
