//! The execution engine: recursively evaluates plans.

use crate::aggregate::{distinct_keys, finish_partial, fold};
use crate::context::{ExecContext, DEFAULT_BATCH_SIZE};
use crate::evaluate::{evaluate, fused_filter_selection};
use crate::join::{coalesce, cross_join, is_equi_join, JoinBuild, RowSink};
use crate::keys::KeyFilter;
use crate::parallel;
use crate::scan::{execute_scan, open_metered};
use crate::sort::{execute_limit, execute_sort, execute_topk};
use pixels_common::{RecordBatch, Result, Value};
use pixels_planner::eval::{eval_expr, NoRow};
use pixels_planner::Plan;
use pixels_sql::ast::JoinType;

/// Stable span name for each operator, used in query profiles.
pub fn operator_name(plan: &Plan) -> &'static str {
    match plan {
        Plan::Scan { .. } => "scan",
        Plan::MaterializedScan { .. } => "materialized_scan",
        Plan::Filter { .. } => "filter",
        Plan::Project { .. } => "project",
        Plan::Join { .. } => "hash_join",
        Plan::Aggregate { .. } => "hash_aggregate",
        Plan::Distinct { .. } => "distinct",
        Plan::Sort { .. } => "sort",
        Plan::TopK { .. } => "topk",
        Plan::Limit { .. } => "limit",
        Plan::Values { .. } => "values",
    }
}

/// Execute a plan to completion, returning all result batches.
///
/// Execution is materialized operator-by-operator, except that an aggregate
/// or a DISTINCT folds a scan's morsels as they are scanned; scans, filters,
/// projections, and partial aggregation fan out over `ctx.parallelism`
/// morsel-driven workers (`parallelism == 1` reproduces serial execution
/// exactly). Joins, sorts, TopK and VALUES cut their output into batches of
/// at most [`DEFAULT_BATCH_SIZE`] rows; an aggregate or a DISTINCT emits all
/// its groups as one batch; every other operator emits a batch per morsel or
/// per input batch.
///
/// When the context carries an enabled trace, every operator runs inside its
/// own span (children nested under it) recording output rows and duration;
/// with tracing disabled this wrapper adds nothing to the hot path.
pub fn execute(plan: &Plan, ctx: &ExecContext) -> Result<Vec<RecordBatch>> {
    execute_probed(plan, ctx, None)
}

/// [`execute`] for a plan that is the probe side of a hash join whose build
/// side published `join_filter`. Only a scan can use one.
fn execute_probed(
    plan: &Plan,
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
    plan: &Plan,
    ctx: &ExecContext,
    join_filter: Option<&KeyFilter>,
) -> Result<Vec<RecordBatch>> {
    match plan {
        Plan::Scan {
            paths,
            projection,
            filters,
            output_schema,
            ..
        } => execute_scan(ctx, paths, projection, filters, join_filter, output_schema),
        // An MV the engine itself wrote: reading it bills nothing.
        Plan::MaterializedScan { path, .. } => {
            let reader = open_metered(ctx, path)?;
            let mut span = ctx.trace.span("read");
            let batches = reader.read_all(None, &[])?;
            if span.enabled() {
                span.record_u64("rows", batches.iter().map(|b| b.num_rows() as u64).sum());
            }
            Ok(batches)
        }
        Plan::Filter { input, predicate } => {
            let batches = execute(input, ctx)?;
            let filtered = parallel::run_indexed(batches.len(), ctx.parallelism, |i| {
                let b = &batches[i];
                b.select(&fused_filter_selection(std::slice::from_ref(predicate), b)?)
            })?;
            let mut out: Vec<RecordBatch> =
                filtered.into_iter().filter(|f| f.num_rows() > 0).collect();
            // Preserve schema even when every row is filtered out.
            if out.is_empty() {
                out.push(RecordBatch::empty(input.schema()));
            }
            Ok(out)
        }
        Plan::Project {
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
        Plan::Join {
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
                    DEFAULT_BATCH_SIZE,
                );
            }
            let build = JoinBuild::new(coalesce(&rb)?, right_keys, left_keys)?;
            // A probe row without a match is dropped by an inner and a
            // right-outer join, so the scan may drop it first; a left-outer
            // join emits it.
            let droppable = matches!(join_type, JoinType::Inner | JoinType::Right);
            let filter = if droppable && matches!(left.as_ref(), Plan::Scan { .. }) {
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
                DEFAULT_BATCH_SIZE,
            )
        }
        Plan::Aggregate {
            input,
            group_exprs,
            aggs,
            output_schema,
        } => finish_partial(fold(input, group_exprs, aggs, ctx)?, output_schema),
        Plan::Distinct { input } => {
            // A GROUP BY of every input column, with no aggregate. Over a
            // projection, of the projection's expressions over its input,
            // so a projected scan still folds a morsel at a time.
            let every_column;
            let (input, keys) = match input.as_ref() {
                Plan::Project { input, exprs, .. } => (input.as_ref(), exprs),
                other => {
                    every_column = distinct_keys(&other.schema());
                    (other, &every_column)
                }
            };
            finish_partial(fold(input, keys, &[], ctx)?, &plan.schema())
        }
        Plan::Sort { input, keys } => {
            let batches = execute(input, ctx)?;
            execute_sort(&batches, keys, DEFAULT_BATCH_SIZE)
        }
        Plan::TopK { input, keys, fetch } => {
            let batches = execute(input, ctx)?;
            execute_topk(&batches, keys, *fetch, DEFAULT_BATCH_SIZE)
        }
        Plan::Limit {
            input,
            limit,
            offset,
        } => {
            let batches = execute(input, ctx)?;
            execute_limit(batches, *limit, *offset)
        }
        Plan::Values { schema, rows } => {
            let mut sink = RowSink::new(schema.clone(), DEFAULT_BATCH_SIZE);
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
pub fn execute_collect(plan: &Plan, ctx: &ExecContext) -> Result<RecordBatch> {
    let batches = execute(plan, ctx)?;
    if batches.is_empty() {
        return Ok(RecordBatch::empty(plan.schema()));
    }
    RecordBatch::concat(&batches)
}
