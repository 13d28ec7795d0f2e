//! Encoded execution: evaluate scan filters and grand-total aggregates
//! directly on encoded chunks, decoding as little as possible.
//!
//! Three decode-avoidance techniques, all proven bit-identical to the
//! scalar oracle's decode-everything scan ([`crate::scalar`]) by the
//! differential suite:
//!
//! - **Dictionary shortcut** — a dictionary chunk decodes, without copying a
//!   row, to a string column whose pool is the dictionary and whose indices
//!   are the codes; a `col <op> literal` predicate over it is evaluated once
//!   per pool entry ([`crate::evaluate`]'s kernel does that for any column
//!   with fewer entries than rows), then mapped over the per-row indices.
//! - **RLE shortcut** — the same predicate over an RLE chunk is evaluated
//!   once per *run*; COUNT/SUM/AVG/MIN/MAX fold runs without expanding them
//!   (float sums still perform one add per row so accumulation order — and
//!   therefore every last bit — matches the row-at-a-time loop). A chunk's
//!   runs are parsed once per morsel, whoever reads them first.
//! - **Chunk zone check** — per-chunk zone maps can prove a conjunct
//!   all-false ([`pixels_storage::ColumnPredicate::may_match`]) or all-true
//!   ([`pixels_storage::ColumnPredicate::must_match`]) before any decode.
//!   Floats are excluded: zone maps compare with SQL semantics
//!   (`-0.0 == 0.0`) while row masks use `total_cmp`.
//!
//! Conjuncts whose shape has no infallible encoded kernel fall back to the
//! decoded batch with exactly the semantics of
//! [`crate::evaluate::fused_filter_mask`] (they share
//! [`crate::evaluate::and_conjunct`]) — including only running the row loop
//! on still-selected rows, so a row rejected early never reaches a later,
//! possibly erroring, expression.

use crate::aggregate::{Accumulators, State};
use crate::context::ExecContext;
use crate::evaluate::{
    and_conjunct, and_into, collect_conjuncts, compare_literal, compare_literal_mask,
    literal_comparable, NumSlice,
};
use crate::keys::{KeyClass, KeyFilter, KeyInts};
use crate::parallel;
use crate::scan::ScanMorsels;
use pixels_common::{Column, ColumnData, DataType, Error, RecordBatch, Result, SchemaRef, Value};
use pixels_planner::{AggExpr, BoundExpr};
use pixels_sql::ast::BinaryOp;
use pixels_storage::{ColumnPredicate, ColumnStats, EncodedChunk, Encoding, PredicateOp, RleRuns};
use std::cell::OnceCell;

/// One row group's projected chunks, decoded lazily and at most once per
/// column; an RLE chunk's runs are likewise parsed at most once, by
/// whichever of filter, key filter, materialization and fold reads them
/// first. Lives on a single worker thread for the duration of one morsel.
pub struct LazyRowGroup {
    schema: SchemaRef,
    chunks: Vec<EncodedChunk>,
    num_rows: usize,
    decoded: Vec<OnceCell<Column>>,
    runs: Vec<OnceCell<RleRuns>>,
    full: OnceCell<RecordBatch>,
}

impl LazyRowGroup {
    pub fn new(schema: SchemaRef, chunks: Vec<EncodedChunk>, num_rows: usize) -> Self {
        LazyRowGroup {
            schema,
            decoded: chunks.iter().map(|_| OnceCell::new()).collect(),
            runs: chunks.iter().map(|_| OnceCell::new()).collect(),
            chunks,
            num_rows,
            full: OnceCell::new(),
        }
    }

    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    pub fn chunk(&self, i: usize) -> &EncodedChunk {
        &self.chunks[i]
    }

    /// The runs of the RLE chunk at `i`, parsed on first use and memoized.
    pub fn rle_runs(&self, i: usize) -> Result<&RleRuns> {
        if self.runs[i].get().is_none() {
            let runs = self.chunks[i].rle_runs()?;
            let _ = self.runs[i].set(runs);
        }
        Ok(self.runs[i].get().expect("runs just parsed"))
    }

    /// The column at `i`, decoded on first use and memoized; an RLE chunk
    /// whose runs were read already is expanded from them.
    pub fn column(&self, i: usize) -> Result<&Column> {
        if self.decoded[i].get().is_none() {
            let col = match self.runs[i].get() {
                Some(runs) => self.chunks[i].expand_runs(runs, None)?,
                None => self.chunks[i].decode()?,
            };
            let _ = self.decoded[i].set(col);
        }
        Ok(self.decoded[i].get().expect("column just decoded"))
    }

    /// The fully decoded batch, built on first use and memoized. Only the
    /// decoded-batch fallback needs it.
    pub fn full_batch(&self) -> Result<&RecordBatch> {
        if self.full.get().is_none() {
            let cols: Vec<Column> = (0..self.chunks.len())
                .map(|i| self.column(i).cloned())
                .collect::<Result<_>>()?;
            let batch = RecordBatch::try_new(self.schema.clone(), cols)?;
            let _ = self.full.set(batch);
        }
        Ok(self.full.get().expect("batch just built"))
    }

    /// Materialize only the rows selected by `mask` (late materialization):
    /// chunks never decoded for filtering are decoded filtered, skipping
    /// value copies for rejected rows.
    pub fn materialize(&self, mask: &[bool]) -> Result<RecordBatch> {
        if mask.iter().all(|&m| m) {
            return self.materialize_all();
        }
        let cols = self
            .chunks
            .iter()
            .enumerate()
            .map(|(i, chunk)| match self.decoded[i].get() {
                Some(col) => col.filter(mask),
                None if chunk.encoding() == Encoding::Rle => {
                    chunk.expand_runs(self.rle_runs(i)?, Some(mask))
                }
                None => chunk.decode_filtered(mask),
            })
            .collect::<Result<Vec<_>>>()?;
        RecordBatch::try_new(self.schema.clone(), cols)
    }

    pub fn materialize_all(&self) -> Result<RecordBatch> {
        if let Some(b) = self.full.get() {
            return Ok(b.clone());
        }
        let cols: Vec<Column> = (0..self.chunks.len())
            .map(|i| self.column(i).cloned())
            .collect::<Result<_>>()?;
        RecordBatch::try_new(self.schema.clone(), cols)
    }
}

/// Evaluate the residual filter conjunction against encoded chunks,
/// producing the same mask [`crate::evaluate::fused_filter_mask`] would
/// produce over the decoded batch. `stats` holds the per-chunk zone maps,
/// one per projected column.
pub fn encoded_filter_mask(
    filters: &[BoundExpr],
    lazy: &LazyRowGroup,
    stats: &[&ColumnStats],
) -> Result<Vec<bool>> {
    let n = lazy.num_rows();
    let mut mask = vec![true; n];
    let mut conjuncts = Vec::new();
    for f in filters {
        collect_conjuncts(f, &mut conjuncts);
    }
    for conj in conjuncts {
        // All-false masks can stop early: a conjunct the kernels cannot
        // finish only runs on selected rows (none), so nothing is left that
        // could change the mask or raise an error.
        if !mask.contains(&true) {
            break;
        }
        if let Some(m) = encoded_conjunct_mask(conj, lazy, stats)? {
            and_into(&mut mask, &m);
        } else {
            and_conjunct(conj, lazy.full_batch()?, &mut mask)?;
        }
    }
    Ok(mask)
}

/// Translate `col <op> literal` (either orientation) into a zone-map
/// predicate op. `NotEq` has no zone form.
fn zone_op(op: BinaryOp, flipped: bool) -> Option<PredicateOp> {
    Some(match (op, flipped) {
        (BinaryOp::Eq, _) => PredicateOp::Eq,
        (BinaryOp::Lt, false) | (BinaryOp::Gt, true) => PredicateOp::Lt,
        (BinaryOp::LtEq, false) | (BinaryOp::GtEq, true) => PredicateOp::LtEq,
        (BinaryOp::Gt, false) | (BinaryOp::Lt, true) => PredicateOp::Gt,
        (BinaryOp::GtEq, false) | (BinaryOp::LtEq, true) => PredicateOp::GtEq,
        _ => return None,
    })
}

/// Evaluate one conjunct against the encoded chunks when an infallible
/// encoded kernel exists; `None` sends the conjunct to the decoded batch.
fn encoded_conjunct_mask(
    conj: &BoundExpr,
    lazy: &LazyRowGroup,
    stats: &[&ColumnStats],
) -> Result<Option<Vec<bool>>> {
    let n = lazy.num_rows();
    // `col IS [NOT] NULL` straight off the chunk's validity header.
    if let BoundExpr::IsNull { expr, negated } = conj {
        let BoundExpr::ColumnRef { index, .. } = expr.as_ref() else {
            return Ok(None);
        };
        let chunk = lazy.chunk(*index);
        return Ok(Some(match chunk.validity() {
            Some(bits) => bits.iter().map(|&valid| valid == *negated).collect(),
            None => vec![*negated; n],
        }));
    }
    let BoundExpr::BinaryOp {
        left, op, right, ..
    } = conj
    else {
        return Ok(None);
    };
    if !op.is_comparison() {
        return Ok(None);
    }
    let (idx, lit, flipped) = match (left.as_ref(), right.as_ref()) {
        (BoundExpr::ColumnRef { index, .. }, BoundExpr::Literal(v)) => (*index, v, false),
        (BoundExpr::Literal(v), BoundExpr::ColumnRef { index, .. }) => (*index, v, true),
        _ => return Ok(None),
    };
    let chunk = lazy.chunk(idx);
    if lit.is_null() {
        // Comparing against NULL yields NULL for every row; a mask renders
        // that as false (matches `compare_literal_mask`).
        return Ok(Some(vec![false; n]));
    }
    if !literal_comparable(chunk.data_type(), lit) {
        // No infallible kernel for this combination: the fallback must see
        // the conjunct, because it may legitimately error per row.
        return Ok(None);
    }
    // Chunk-level zone check: the zone map can prove the conjunct's verdict
    // for the whole chunk without touching the payload. Floats are excluded
    // (zone maps use SQL comparison, masks use total_cmp).
    if !matches!(chunk.data_type(), DataType::Float64) && !matches!(lit, Value::Float64(_)) {
        if let Some(pred_op) = zone_op(*op, flipped) {
            let pred = ColumnPredicate {
                column: idx,
                op: pred_op,
                value: lit.clone(),
            };
            if !pred.may_match(stats[idx]) {
                return Ok(Some(vec![false; n]));
            }
            if pred.must_match(stats[idx]) {
                return Ok(Some(vec![true; n]));
            }
        }
    }
    match chunk.encoding() {
        Encoding::Rle => {
            let runs = lazy.rle_runs(idx)?;
            // One comparison per run, by the kernel that compares per row.
            let Some(verdicts) = compare_literal(&runs.values, *op, lit, flipped) else {
                return Ok(compare_literal_mask(lazy.column(idx)?, *op, lit, flipped));
            };
            let mut mask = Vec::with_capacity(n);
            for (&count, &verdict) in runs.counts.iter().zip(&verdicts) {
                mask.extend(std::iter::repeat_n(verdict, count as usize));
            }
            if let Some(validity) = chunk.validity() {
                and_into(&mut mask, validity);
            }
            Ok(Some(mask))
        }
        // A dictionary chunk decodes to its dictionary plus codes without
        // copying a row, and the kernel then compares once per entry.
        Encoding::Plain | Encoding::Dictionary => {
            Ok(compare_literal_mask(lazy.column(idx)?, *op, lit, flipped))
        }
    }
}

// ---------------------------------------------------------------------------
// A hash join's key filter on the probe scan
// ---------------------------------------------------------------------------

/// What a chunk's zone map and validity header say about one range of a
/// [`KeyFilter`], before the payload is touched.
enum KeyZone {
    /// No row can match a build key.
    NoRow,
    /// Every row passes: nothing to test.
    EveryRow,
    Unknown,
}

/// The verdict of range `at` of `filter` on its chunk, or `None` when the
/// chunk is not of the range's type — a data file is outside input, and a
/// range says nothing about values of another type.
fn key_zone(
    filter: &KeyFilter,
    at: usize,
    lazy: &LazyRowGroup,
    stats: &[&ColumnStats],
) -> Option<KeyZone> {
    let range = &filter.ranges()[at];
    let chunk = lazy.chunk(range.column);
    if KeyClass::of(chunk.data_type()) != range.class {
        return None;
    }
    if chunk.count_valid() == 0 {
        return Some(KeyZone::NoRow);
    }
    let bound = |v: &Option<Value>| match v {
        Some(Value::Int32(x) | Value::Date(x)) => Some(i64::from(*x)),
        Some(Value::Int64(x) | Value::Timestamp(x)) => Some(*x),
        _ => None,
    };
    let zone = stats[range.column];
    let (Some(min), Some(max)) = (bound(&zone.min), bound(&zone.max)) else {
        return Some(KeyZone::Unknown);
    };
    Some(if max < range.min || min > range.max {
        KeyZone::NoRow
    } else if range.min <= min
        && max <= range.max
        && chunk.validity().is_none()
        && !(at == 0 && filter.is_exact())
    {
        KeyZone::EveryRow
    } else {
        KeyZone::Unknown
    })
}

/// Whether `filter` could drop a row of this morsel at all. When its every
/// range covers the chunk's zone map (and holds no exact set) it cannot, and
/// the scan proceeds as if it had not been given one.
pub(crate) fn key_filter_can_drop(
    filter: &KeyFilter,
    lazy: &LazyRowGroup,
    stats: &[&ColumnStats],
) -> bool {
    (0..filter.ranges().len()).any(|at| {
        matches!(
            key_zone(filter, at, lazy, stats),
            Some(KeyZone::NoRow | KeyZone::Unknown)
        )
    })
}

/// Clear from `mask` every row whose key cannot match a build key of the
/// join this scan probes for. The scan's last conjunct: it runs only while
/// `mask` still selects a row, after every conjunct of the scan's own, so a
/// row those reject or fail on is treated exactly as without it. Per range:
/// the zone map first, then one test per run of an RLE chunk, else one per
/// row, repeating the verdict while the value repeats. NULL keys are cleared.
pub(crate) fn key_filter_mask(
    filter: &KeyFilter,
    lazy: &LazyRowGroup,
    stats: &[&ColumnStats],
    mask: &mut [bool],
) -> Result<()> {
    for (at, range) in filter.ranges().iter().enumerate() {
        if !mask.contains(&true) {
            break;
        }
        match key_zone(filter, at, lazy, stats) {
            None | Some(KeyZone::EveryRow) => continue,
            Some(KeyZone::NoRow) => {
                mask.fill(false);
                break;
            }
            Some(KeyZone::Unknown) => {}
        }
        let chunk = lazy.chunk(range.column);
        if chunk.encoding() == Encoding::Rle {
            let runs = lazy.rle_runs(range.column)?;
            let Some((_, values)) = KeyInts::of(&runs.values) else {
                continue;
            };
            let mut row = 0usize;
            values.for_each(|run, v| {
                let end = row + runs.counts[run] as usize;
                if !filter.admits(at, v) {
                    mask[row..end].fill(false);
                }
                row = end;
            });
        } else {
            let Some((_, values)) = KeyInts::of(lazy.column(range.column)?.data()) else {
                continue;
            };
            let mut last = None;
            let mut verdict = false;
            values.for_each(|row, v| {
                if last != Some(v) {
                    (last, verdict) = (Some(v), filter.admits(at, v));
                }
                mask[row] &= verdict;
            });
        }
        if let Some(validity) = chunk.validity() {
            and_into(mask, validity);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Encoded grand-total aggregation
// ---------------------------------------------------------------------------

/// Replicate [`crate::aggregate::partition_batches`] over per-morsel row
/// counts, so the grand total merges float partial sums in exactly the
/// partition structure scan-then-aggregate uses at equal parallelism.
fn partition_morsels(rows: &[usize], parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.clamp(1, rows.len().max(1));
    let total: usize = rows.iter().sum();
    let target = total.div_ceil(parts).max(1);
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    let mut current_rows = 0;
    for (i, &r) in rows.iter().enumerate() {
        current_rows += r;
        if current_rows >= target && out.len() + 1 < parts {
            out.push(start..i + 1);
            start = i + 1;
            current_rows = 0;
        }
    }
    if start < rows.len() {
        out.push(start..rows.len());
    }
    out
}

/// Execute `SELECT agg(..), ..` (no GROUP BY, no residual filters) directly
/// over encoded chunks into the hash aggregate's accumulators, with one
/// group: COUNT from validity headers, SUM/AVG/MIN/MAX over RLE runs,
/// everything else through the accumulators' own update loops over the
/// decoded column. Metering, spans, and results are bit-identical to
/// scanning then aggregating.
pub fn execute_encoded_aggregate(
    ctx: &ExecContext,
    paths: &[String],
    projection: &[usize],
    zone_predicates: &[ColumnPredicate],
    aggs: &[AggExpr],
    output_schema: &SchemaRef,
) -> Result<Vec<RecordBatch>> {
    // The bypassed Scan operator still gets its span, so query profiles keep
    // the same shape and span byte sums still reconcile against the bill.
    let mut scan_span = ctx.trace.span("scan");
    let sctx = ctx.under(&scan_span);

    let scan = ScanMorsels::open(&sctx, paths, projection, zone_predicates)?;
    let rows: Vec<usize> = (0..scan.len()).map(|i| scan.num_rows(i)).collect();
    let partitions = partition_morsels(&rows, ctx.parallelism);

    let partials = parallel::run_indexed(partitions.len(), ctx.parallelism, |p| {
        let mut accs = Accumulators::new(aggs);
        accs.resize(1);
        let columns = (accs.args().iter())
            .map(|arg| match arg {
                BoundExpr::ColumnRef { index, .. } => Ok(*index),
                _ => Err(Error::Exec(
                    "encoded aggregate requires bare column arguments".into(),
                )),
            })
            .collect::<Result<Vec<usize>>>()?;
        // Every row is in group 0.
        let group = vec![0u32; partitions[p].clone().map(|i| rows[i]).max().unwrap_or(0)];
        let mut any_rows = false;
        for i in partitions[p].clone() {
            let mut span = sctx.trace.span("morsel");
            let lazy = scan.lazy(i, scan.fetch(&mut span, i)?);
            accs.add_rows(0, lazy.num_rows());
            for (arg, state) in accs.states_mut() {
                fold(state, arg.map(|a| columns[a]), &lazy, &group)?;
            }
            any_rows |= rows[i] > 0;
            scan.meter(&mut span, i, rows[i]);
        }
        Ok(any_rows.then_some(accs))
    })?;

    // Merge partials in partition order, mirroring merge_partial: the first
    // non-empty partial's states carry over wholesale, later ones merge.
    let mut acc: Option<Accumulators> = None;
    for part in partials.into_iter().flatten() {
        match acc.as_mut() {
            Some(a) => a.merge(&part, &[0])?,
            None => acc = Some(part),
        }
    }
    // A grand total over zero rows still yields one output row.
    let accs = match acc {
        Some(accs) => accs,
        None => {
            let mut accs = Accumulators::new(aggs);
            accs.resize(1);
            accs
        }
    };

    scan_span.record_u64("rows_out", rows.iter().sum::<usize>() as u64);
    drop(scan_span);

    let columns = accs.finish(output_schema.fields())?;
    Ok(vec![RecordBatch::try_new(output_schema.clone(), columns)?])
}

/// Fold one morsel into one accumulator (a grand total's single group):
/// the chunk at `column`, with `group` holding a 0 for at least every row.
fn fold(
    state: &mut State,
    column: Option<usize>,
    lazy: &LazyRowGroup,
    group: &[u32],
) -> Result<()> {
    let n = lazy.num_rows();
    let Some(idx) = column else {
        return state.update(None, &group[..n]);
    };
    let chunk = lazy.chunk(idx);
    if let State::Nulls(nulls) = state {
        // A COUNT of a column: its NULL rows straight off the validity
        // header — no decode.
        nulls[0] += chunk.null_count() as i64;
        return Ok(());
    }
    if chunk.encoding() == Encoding::Rle && fold_runs(state, lazy.rle_runs(idx)?, chunk)? {
        return Ok(());
    }
    state.update(Some(lazy.column(idx)?), &group[..n])
}

/// Fold an RLE chunk's runs into group 0 of a SUM/AVG/MIN/MAX accumulator
/// without expanding them. False, with the state untouched, when the state
/// or the runs' type has no run kernel.
fn fold_runs(state: &mut State, runs: &RleRuns, chunk: &EncodedChunk) -> Result<bool> {
    let mut row = 0usize;
    // The valid rows of each run, in run order.
    let mut valid = runs.counts.iter().map(|&count| {
        let count = count as usize;
        let valid = chunk.validity().map_or(count, |bits| {
            bits[row..row + count].iter().filter(|&&b| b).count()
        });
        row += count;
        valid
    });
    match state {
        State::Float { sums, nulls } => {
            let Some(values) = NumSlice::of(&runs.values) else {
                return Ok(false);
            };
            for (ri, valid) in valid.enumerate() {
                // One add per valid row (not `valid * v`): float accumulation
                // order must match the decoded loop to the bit.
                let v = values.get(ri);
                for _ in 0..valid {
                    sums[0] += v;
                }
            }
            nulls[0] += chunk.null_count() as i64;
        }
        State::Int { sums, nulls } => {
            let Some((KeyClass::Integer, values)) = KeyInts::of(&runs.values) else {
                return Ok(false);
            };
            let mut overflow = false;
            values.for_each(|_, v| {
                let valid = valid.next().expect("one count per run");
                // Within a run the partial sums are monotonic, so the
                // sequential checked adds overflow iff the endpoint does.
                let end = i128::from(sums[0]) + i128::from(v) * valid as i128;
                match i64::try_from(end) {
                    Ok(sum) => sums[0] = sum,
                    Err(_) => overflow = true,
                }
            });
            if overflow {
                return Err(Error::Exec("SUM overflow".into()));
            }
            nulls[0] += chunk.null_count() as i64;
        }
        // MIN/MAX: one strict update per run with a valid row
        // (order-independent under `total_cmp`).
        State::Cells {
            cells,
            distinct: None,
            ..
        } => {
            for (ri, valid) in valid.enumerate() {
                if valid > 0 {
                    cells[0].update(&run_value(&runs.values, ri))?;
                }
            }
        }
        State::Nulls(_) | State::Cells { .. } => return Ok(false),
    }
    Ok(true)
}

/// One run's value as a `Value` (floats keep their exact bits).
fn run_value(values: &ColumnData, i: usize) -> Value {
    match values {
        ColumnData::Boolean(v) => Value::Boolean(v[i]),
        ColumnData::Int32(v) => Value::Int32(v[i]),
        ColumnData::Date(v) => Value::Date(v[i]),
        ColumnData::Int64(v) => Value::Int64(v[i]),
        ColumnData::Timestamp(v) => Value::Timestamp(v[i]),
        ColumnData::Float64(v) => Value::Float64(v[i]),
        ColumnData::Utf8(v) => Value::Utf8(v.get(i).to_owned()),
    }
}
