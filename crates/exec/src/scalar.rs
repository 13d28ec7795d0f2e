//! Row-at-a-time reference implementations of expression evaluation and the
//! post-scan operators.
//!
//! This is the pre-vectorization execution path, retained verbatim as a
//! differential oracle: `scalar::execute` runs a plan through
//! `Vec<Value>`-keyed hash tables, per-row builder pushes, per-filter
//! mask/filter passes, and [`evaluate`] — one `Value` per row through
//! `pixels_planner::eval`, sharing no code with the kernels of
//! [`crate::evaluate`] it is compared against. Its scan shares the
//! production scan's open, column check, pruning and metering
//! ([`crate::scan::ScanMorsels`]) — so billed bytes agree by construction —
//! and nothing else: each row group is decoded whole and filtered row by
//! row, which is what makes it an independent reference for rows. `tests/vectorized_differential.rs` and
//! `tests/encoded_scan_differential.rs` assert the two paths produce
//! bit-identical rows, row order, and billed bytes.
//! No production operator runs here; the one production caller is
//! [`crate::evaluate`], which hands an expression its kernels could not
//! finish to [`evaluate`] / [`predicate_mask`] so that the answer — value or
//! error — is by construction the reference's.

use crate::aggregate::{AggState, DistinctSet};
use crate::context::{ExecContext, DEFAULT_BATCH_SIZE};
use crate::evaluate::BatchRow;
use crate::join::RowSink;
use crate::parallel;
use crate::scan::{open_metered, scan_output, ScanMorsels};
use crate::sort::execute_limit;
use pixels_common::{
    Column, ColumnBuilder, DataType, RecordBatch, Result, SchemaRef, Selection, Value,
};
use pixels_planner::eval::{eval_expr, NoRow};
use pixels_planner::{AggExpr, BoundExpr, Plan};
use pixels_sql::ast::JoinType;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::ops::Range;

/// Execute a plan entirely on the scalar operator implementations. Scans
/// share the production scan's morsel list and byte metering (the billed
/// quantity is identical by construction) but decode every projected chunk
/// and filter row-at-a-time; every post-scan operator is the row-at-a-time
/// original.
pub fn execute(plan: &Plan, ctx: &ExecContext) -> Result<Vec<RecordBatch>> {
    match plan {
        Plan::Scan {
            paths,
            projection,
            filters,
            output_schema,
            ..
        } => {
            let scan = ScanMorsels::open(ctx, paths, projection, filters)?;
            let batches = parallel::run_indexed(scan.len(), ctx.parallelism, |i| {
                let mut span = ctx.trace.span("morsel");
                let (reader, rg) = scan.reader(i);
                let batch = apply_filters(filters, reader.read_row_group(rg, Some(projection))?)?;
                scan.meter(&mut span, i, batch.num_rows());
                Ok(batch)
            })?;
            Ok(scan_output(batches, output_schema))
        }
        Plan::MaterializedScan { path, .. } => {
            let reader = open_metered(ctx, path)?;
            let batches = reader.read_all(None, &[])?;
            let rows: u64 = batches.iter().map(|b| b.num_rows() as u64).sum();
            let bytes: u64 = (0..reader.num_row_groups())
                .map(|rg| reader.row_group_bytes(rg, None))
                .sum();
            ctx.metrics.add_scan(bytes, rows);
            Ok(batches)
        }
        Plan::Filter { input, predicate } => {
            let batches = execute(input, ctx)?;
            let filtered = parallel::run_indexed(batches.len(), ctx.parallelism, |i| {
                let b = &batches[i];
                b.select(&predicate_mask(predicate, b)?)
            })?;
            let mut out: Vec<RecordBatch> =
                filtered.into_iter().filter(|f| f.num_rows() > 0).collect();
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
            // Build side first, like `engine::execute`: when both sides
            // fail, both executors report the build side's error.
            let rb = execute(right, ctx)?;
            let lb = execute(left, ctx)?;
            let left_width = left.schema().len();
            execute_join(
                &lb,
                &rb,
                *join_type,
                left_keys,
                right_keys,
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
        } => {
            let batches = execute(input, ctx)?;
            // The engine folds a scan's morsels as they come: above
            // parallelism 1, into one partial per morsel, merged in morsel
            // order. A morsel without rows adds nothing, and every other
            // morsel is one batch here.
            let chunks = if matches!(input.as_ref(), Plan::Scan { .. }) && ctx.parallelism > 1 {
                (0..batches.len()).map(|i| i..i + 1).collect()
            } else {
                partition(&batches, ctx.parallelism)
            };
            aggregate_chunks(
                &batches,
                &chunks,
                group_exprs,
                aggs,
                output_schema,
                ctx.parallelism,
            )
        }
        Plan::Distinct { input } => {
            let batches = execute(input, ctx)?;
            execute_distinct(&batches)
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

/// True when `v` can be appended to a builder of type `target` without a
/// cast — exactly the combinations [`ColumnBuilder::push`] accepts. Checked
/// before pushing so the mismatch case never pays `push`'s formatted-error
/// allocation.
fn value_fits(target: DataType, v: &Value) -> bool {
    matches!(
        (target, v),
        (DataType::Boolean, Value::Boolean(_))
            | (DataType::Int32, Value::Int32(_))
            | (DataType::Int64, Value::Int64(_) | Value::Int32(_))
            | (
                DataType::Float64,
                Value::Float64(_) | Value::Int32(_) | Value::Int64(_)
            )
            | (DataType::Utf8, Value::Utf8(_))
            | (DataType::Date, Value::Date(_))
            | (DataType::Timestamp, Value::Timestamp(_))
    )
}

/// Evaluate `expr` for every row of `batch`, one `Value` at a time, into a
/// column of the expression's output type. A row whose runtime type is not
/// the expression's (an Int32 literal flowing into an Int64 expression) is
/// cast to it.
pub fn evaluate(expr: &BoundExpr, batch: &RecordBatch) -> Result<Column> {
    if let BoundExpr::ColumnRef { index, .. } = expr {
        return Ok(batch.column(*index).clone());
    }
    let out_ty = expr.data_type();
    let mut builder = ColumnBuilder::with_capacity(out_ty, batch.num_rows());
    for row in 0..batch.num_rows() {
        let v = eval_expr(expr, &BatchRow { batch, row })?;
        if v.is_null() {
            builder.push_null();
        } else if value_fits(out_ty, &v) {
            builder.push(&v)?;
        } else {
            builder.push(&v.cast_to(out_ty)?)?;
        }
    }
    Ok(builder.finish())
}

/// Pure per-row predicate evaluation — no vectorized fast paths at all. Every
/// row is asked in order, and the first error is the answer.
pub fn predicate_mask(expr: &BoundExpr, batch: &RecordBatch) -> Result<Selection> {
    let mut mask = Selection::all(batch.num_rows());
    mask.try_retain(|row| -> Result<bool> {
        let v = eval_expr(expr, &BatchRow { batch, row })?;
        Ok(matches!(v, Value::Boolean(true)))
    })?;
    Ok(mask)
}

/// Sequential filter chain: one mask + one materialized batch per filter.
pub fn apply_filters(filters: &[BoundExpr], batch: RecordBatch) -> Result<RecordBatch> {
    let mut batch = batch;
    for f in filters {
        if batch.num_rows() == 0 {
            break;
        }
        batch = batch.select(&predicate_mask(f, &batch)?)?;
    }
    Ok(batch)
}

/// Row-at-a-time hash join keyed on `Vec<Value>`, output assembled through
/// per-row builder pushes.
#[allow(clippy::too_many_arguments)]
pub fn execute_join(
    left_batches: &[RecordBatch],
    right_batches: &[RecordBatch],
    join_type: JoinType,
    left_keys: &[BoundExpr],
    right_keys: &[BoundExpr],
    residual: Option<&BoundExpr>,
    output_schema: &SchemaRef,
    left_width: usize,
    batch_size: usize,
) -> Result<Vec<RecordBatch>> {
    if join_type == JoinType::Cross || left_keys.is_empty() {
        return cross_join(
            left_batches,
            right_batches,
            join_type,
            residual,
            output_schema,
            batch_size,
        );
    }

    // Build phase: hash the right input on its key values.
    let mut build_rows: Vec<Vec<Value>> = Vec::new();
    let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for batch in right_batches {
        let key_cols: Vec<_> = right_keys
            .iter()
            .map(|k| evaluate(k, batch))
            .collect::<Result<_>>()?;
        for row in 0..batch.num_rows() {
            let key: Vec<Value> = key_cols.iter().map(|c| c.value(row)).collect();
            let idx = build_rows.len();
            build_rows.push(batch.row(row));
            if key.iter().any(Value::is_null) {
                continue; // NULL keys never participate in matches
            }
            table.entry(key).or_default().push(idx);
        }
    }
    let mut build_matched = vec![false; build_rows.len()];
    let right_w = output_schema.len() - left_width;

    let mut sink = RowSink::new(output_schema.clone(), batch_size);

    // Probe phase.
    for batch in left_batches {
        let key_cols: Vec<_> = left_keys
            .iter()
            .map(|k| evaluate(k, batch))
            .collect::<Result<_>>()?;
        for row in 0..batch.num_rows() {
            let key: Vec<Value> = key_cols.iter().map(|c| c.value(row)).collect();
            let probe_row = batch.row(row);
            let mut matched = false;
            if !key.iter().any(Value::is_null) {
                if let Some(candidates) = table.get(&key) {
                    for &b in candidates {
                        let mut combined = probe_row.clone();
                        combined.extend(build_rows[b].iter().cloned());
                        if let Some(res) = residual {
                            if !matches!(eval_expr(res, combined.as_slice())?, Value::Boolean(true))
                            {
                                continue;
                            }
                        }
                        matched = true;
                        build_matched[b] = true;
                        sink.push(combined)?;
                    }
                }
            }
            if !matched && join_type == JoinType::Left {
                let mut combined = probe_row;
                combined.extend(std::iter::repeat_n(Value::Null, right_w));
                sink.push(combined)?;
            }
        }
    }

    // Right outer: emit unmatched build rows null-extended on the left.
    if join_type == JoinType::Right {
        for (b, matched) in build_matched.iter().enumerate() {
            if !matched {
                let mut combined: Vec<Value> =
                    std::iter::repeat_n(Value::Null, left_width).collect();
                combined.extend(build_rows[b].iter().cloned());
                sink.push(combined)?;
            }
        }
    }
    sink.finish()
}

fn cross_join(
    left_batches: &[RecordBatch],
    right_batches: &[RecordBatch],
    join_type: JoinType,
    residual: Option<&BoundExpr>,
    output_schema: &SchemaRef,
    batch_size: usize,
) -> Result<Vec<RecordBatch>> {
    if !matches!(join_type, JoinType::Cross | JoinType::Inner) {
        return Err(pixels_common::Error::Exec(
            "outer join without equi-keys is not supported".into(),
        ));
    }
    let mut sink = RowSink::new(output_schema.clone(), batch_size);
    for lb in left_batches {
        for lrow in 0..lb.num_rows() {
            let l = lb.row(lrow);
            for rb in right_batches {
                for rrow in 0..rb.num_rows() {
                    let mut combined = l.clone();
                    combined.extend(rb.row(rrow));
                    if let Some(res) = residual {
                        if !matches!(eval_expr(res, combined.as_slice())?, Value::Boolean(true)) {
                            continue;
                        }
                    }
                    sink.push(combined)?;
                }
            }
        }
    }
    sink.finish()
}

/// Per-group state: one accumulator per aggregate, plus distinct-value sets
/// for DISTINCT aggregates.
struct GroupState {
    states: Vec<AggState>,
    distinct: Vec<Option<DistinctSet>>,
}

impl GroupState {
    fn new(aggs: &[AggExpr]) -> GroupState {
        GroupState {
            states: aggs.iter().map(AggState::new).collect(),
            distinct: aggs
                .iter()
                .map(|a| a.distinct.then(DistinctSet::default))
                .collect(),
        }
    }

    /// Fold row `row` of the (optional) aggregate argument columns into the
    /// group. `None` columns are COUNT(*) — every row counts.
    fn consume_row(&mut self, agg_cols: &[Option<Column>], row: usize) -> Result<()> {
        for (ai, agg_col) in agg_cols.iter().enumerate() {
            let value = match agg_col {
                Some(col) => col.value(row),
                None => Value::Int64(1),
            };
            if value.is_null() {
                continue; // aggregates skip NULLs
            }
            if let Some(seen) = &mut self.distinct[ai] {
                if !seen.insert(&value) {
                    continue;
                }
            }
            self.states[ai].update(&value)?;
        }
        Ok(())
    }
}

/// One worker's aggregation state, keyed the original way.
struct Partial {
    index: HashMap<Vec<Value>, usize>,
    keys: Vec<Vec<Value>>,
    states: Vec<GroupState>,
}

fn build_partial(
    input: &[RecordBatch],
    group_exprs: &[BoundExpr],
    aggs: &[AggExpr],
) -> Result<Partial> {
    let mut partial = Partial {
        index: HashMap::new(),
        keys: Vec::new(),
        states: Vec::new(),
    };
    for batch in input {
        let group_cols: Vec<_> = group_exprs
            .iter()
            .map(|g| evaluate(g, batch))
            .collect::<Result<_>>()?;
        let agg_cols: Vec<Option<Column>> = aggs
            .iter()
            .map(|a| a.arg.as_ref().map(|arg| evaluate(arg, batch)).transpose())
            .collect::<Result<_>>()?;
        for row in 0..batch.num_rows() {
            let key: Vec<Value> = group_cols.iter().map(|c| c.value(row)).collect();
            let gi = match partial.index.get(&key) {
                Some(&i) => i,
                None => {
                    let i = partial.states.len();
                    partial.index.insert(key.clone(), i);
                    partial.keys.push(key);
                    partial.states.push(GroupState::new(aggs));
                    i
                }
            };
            partial.states[gi].consume_row(&agg_cols, row)?;
        }
    }
    Ok(partial)
}

fn merge_partial(acc: &mut Partial, part: Partial) -> Result<()> {
    for (key, gstate) in part.keys.into_iter().zip(part.states) {
        match acc.index.get(&key) {
            Some(&gi) => {
                let target = &mut acc.states[gi];
                for (ai, incoming) in gstate.states.iter().enumerate() {
                    match (gstate.distinct[ai].as_ref(), &mut target.distinct[ai]) {
                        (Some(ds), Some(tds)) => {
                            for v in &ds.order {
                                if tds.insert(v) {
                                    target.states[ai].update(v)?;
                                }
                            }
                        }
                        _ => target.states[ai].merge(incoming)?,
                    }
                }
            }
            None => {
                acc.index.insert(key.clone(), acc.states.len());
                acc.keys.push(key);
                acc.states.push(gstate);
            }
        }
    }
    Ok(())
}

/// Row-at-a-time hash aggregate with the same chunked-partial structure as
/// the vectorized path (so float partial sums reassociate identically at
/// equal parallelism).
pub fn execute_aggregate(
    input: &[RecordBatch],
    group_exprs: &[BoundExpr],
    aggs: &[AggExpr],
    output_schema: &SchemaRef,
    parallelism: usize,
) -> Result<Vec<RecordBatch>> {
    let chunks = partition(input, parallelism);
    aggregate_chunks(
        input,
        &chunks,
        group_exprs,
        aggs,
        output_schema,
        parallelism,
    )
}

/// The vectorized aggregate's split of materialized input into partials.
fn partition(input: &[RecordBatch], parallelism: usize) -> Vec<Range<usize>> {
    parallel::partition_rows(
        &input.iter().map(RecordBatch::num_rows).collect::<Vec<_>>(),
        parallelism,
    )
}

/// Aggregate each run of batches `chunks[i]` of `input` into a partial of
/// its own, then merge the partials in order.
fn aggregate_chunks(
    input: &[RecordBatch],
    chunks: &[Range<usize>],
    group_exprs: &[BoundExpr],
    aggs: &[AggExpr],
    output_schema: &SchemaRef,
    parallelism: usize,
) -> Result<Vec<RecordBatch>> {
    let partials = parallel::run_indexed(chunks.len(), parallelism, |i| {
        build_partial(&input[chunks[i].clone()], group_exprs, aggs)
    })?;
    let mut acc = Partial {
        index: HashMap::new(),
        keys: Vec::new(),
        states: Vec::new(),
    };
    let mut partials = partials.into_iter();
    if let Some(first) = partials.next() {
        acc = first;
    }
    for part in partials {
        merge_partial(&mut acc, part)?;
    }

    // Global aggregate over zero rows still yields one output row.
    if group_exprs.is_empty() && acc.states.is_empty() {
        acc.keys.push(Vec::new());
        acc.states.push(GroupState::new(aggs));
    }

    let mut builders: Vec<ColumnBuilder> = output_schema
        .fields()
        .iter()
        .map(|f| ColumnBuilder::new(f.data_type))
        .collect();
    for (key, state) in acc.keys.iter().zip(&acc.states) {
        for (b, v) in builders.iter_mut().zip(key.iter()) {
            b.push(v)?;
        }
        for (ai, s) in state.states.iter().enumerate() {
            let v = s.finish();
            let b = &mut builders[group_exprs.len() + ai];
            if v.is_null() {
                b.push_null();
            } else {
                b.push(&v)?;
            }
        }
    }
    let columns = builders.into_iter().map(|b| b.finish()).collect();
    Ok(vec![RecordBatch::try_new(output_schema.clone(), columns)?])
}

/// Hash-based DISTINCT preserving first-appearance order, keyed on whole
/// `Vec<Value>` rows.
pub fn execute_distinct(input: &[RecordBatch]) -> Result<Vec<RecordBatch>> {
    let Some(first) = input.first() else {
        return Ok(Vec::new());
    };
    let schema = first.schema().clone();
    let mut seen: HashSet<Vec<Value>> = HashSet::new();
    let mut sink = RowSink::new(schema, 8192);
    for batch in input {
        for row in 0..batch.num_rows() {
            let r = batch.row(row);
            if seen.insert(r.clone()) {
                sink.push(r)?;
            }
        }
    }
    sink.finish()
}

/// Compare two key tuples under the given ascending flags. NULLs order
/// first ascending (so last descending), matching `Value::total_cmp`.
fn compare_keys(a: &[Value], b: &[Value], dirs: &[bool]) -> Ordering {
    for ((x, y), &asc) in a.iter().zip(b).zip(dirs) {
        let ord = x.total_cmp(y);
        let ord = if asc { ord } else { ord.reverse() };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

fn materialize_keys(
    batches: &[RecordBatch],
    keys: &[(BoundExpr, bool)],
) -> Result<Vec<(Vec<Value>, Vec<Value>)>> {
    let mut rows = Vec::new();
    for batch in batches {
        let key_cols: Vec<_> = keys
            .iter()
            .map(|(k, _)| evaluate(k, batch))
            .collect::<Result<_>>()?;
        for row in 0..batch.num_rows() {
            let key: Vec<Value> = key_cols.iter().map(|c| c.value(row)).collect();
            rows.push((key, batch.row(row)));
        }
    }
    Ok(rows)
}

/// Full sort over materialized `(key, row)` tuples.
pub fn execute_sort(
    input: &[RecordBatch],
    keys: &[(BoundExpr, bool)],
    batch_size: usize,
) -> Result<Vec<RecordBatch>> {
    let Some(first) = input.first() else {
        return Ok(Vec::new());
    };
    let dirs: Vec<bool> = keys.iter().map(|&(_, asc)| asc).collect();
    let mut rows = materialize_keys(input, keys)?;
    rows.sort_by(|a, b| compare_keys(&a.0, &b.0, &dirs));
    let mut sink = RowSink::new(first.schema().clone(), batch_size);
    for (_, row) in rows {
        sink.push(row)?;
    }
    sink.finish()
}

struct HeapRow {
    key: Vec<Value>,
    row: Vec<Value>,
    seq: usize,
}

/// Top-k selection over materialized row tuples with a bounded max-heap.
pub fn execute_topk(
    input: &[RecordBatch],
    keys: &[(BoundExpr, bool)],
    fetch: usize,
    batch_size: usize,
) -> Result<Vec<RecordBatch>> {
    let Some(first) = input.first() else {
        return Ok(Vec::new());
    };
    if fetch == 0 {
        return Ok(vec![RecordBatch::empty(first.schema().clone())]);
    }
    let dirs: Vec<bool> = keys.iter().map(|&(_, asc)| asc).collect();

    // Wrap rows so BinaryHeap's max == worst row in the retained set; ties
    // break by arrival order to keep the sort stable.
    let mut heap: BinaryHeap<Wrapped> = BinaryHeap::with_capacity(fetch + 1);
    struct Wrapped {
        item: HeapRow,
        dirs: std::rc::Rc<Vec<bool>>,
    }
    impl PartialEq for Wrapped {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl Eq for Wrapped {}
    impl Ord for Wrapped {
        fn cmp(&self, other: &Self) -> Ordering {
            compare_keys(&self.item.key, &other.item.key, &self.dirs)
                .then(self.item.seq.cmp(&other.item.seq))
        }
    }
    impl PartialOrd for Wrapped {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    let dirs = std::rc::Rc::new(dirs);
    let mut seq = 0usize;
    for batch in input {
        let key_cols: Vec<_> = keys
            .iter()
            .map(|(k, _)| evaluate(k, batch))
            .collect::<Result<_>>()?;
        for row in 0..batch.num_rows() {
            let key: Vec<Value> = key_cols.iter().map(|c| c.value(row)).collect();
            heap.push(Wrapped {
                item: HeapRow {
                    key,
                    row: batch.row(row),
                    seq,
                },
                dirs: dirs.clone(),
            });
            seq += 1;
            if heap.len() > fetch {
                heap.pop(); // evict the worst retained row
            }
        }
    }
    let mut rows: Vec<HeapRow> = heap.into_iter().map(|w| w.item).collect();
    rows.sort_by(|a, b| compare_keys(&a.key, &b.key, &dirs).then(a.seq.cmp(&b.seq)));
    let mut sink = RowSink::new(first.schema().clone(), batch_size);
    for r in rows {
        sink.push(r.row)?;
    }
    sink.finish()
}
