//! Encoded execution: evaluate scan filters, and fold the morsels of an
//! unfiltered grand total, directly on encoded chunks, decoding as little as
//! possible.
//!
//! A morsel's filter is one [`Selection`] — a `u64` word per 64 rows — that
//! each conjunct narrows in turn ([`encoded_selection`]), followed by the
//! join's key filter (`key_filter_refine`), after which only the kept rows
//! of each projected column are gathered ([`LazyRowGroup::materialize`]). A
//! `col <op> literal` conjunct writes verdict words straight from the chunk,
//! by the comparison kernels of `crate::compare`, with one loop per
//! operator:
//!
//! - **Plain in place** — a plain fixed-width chunk is compared from its
//!   payload bytes ([`EncodedChunk::plain_fixed`]); no column is decoded.
//! - **Dictionary shortcut** — a dictionary chunk decodes, without copying a
//!   row, to a string column whose pool is the dictionary and whose indices
//!   are the codes; the literal is compared once per pool entry, and the
//!   verdicts are mapped through the codes into words.
//! - **RLE shortcut** — the same predicate over an RLE chunk is evaluated
//!   once per *run*, and each run's verdict fills the bits of its rows. A
//!   chunk's runs, like
//!   a dictionary chunk's decode, are parsed once into the chunk's memo,
//!   whoever reads them first, and a cached chunk keeps its memo for every
//!   later query ([`pixels_storage::ChunkCache`]).
//! - **Chunk zone check** — per-chunk zone maps can prove a conjunct
//!   all-false ([`pixels_storage::ColumnPredicate::may_match`]) or all-true
//!   ([`pixels_storage::ColumnPredicate::must_match`]) before any decode.
//!   Floats are excluded: zone maps compare with SQL semantics
//!   (`-0.0 == 0.0`) while the kernels use `total_cmp`.
//!
//! A conjunct after the first ANDs into the words and skips every word that
//! keeps nothing any more. Conjuncts whose shape has no infallible encoded
//! kernel fall back to the decoded batch with exactly the semantics of
//! [`crate::evaluate::fused_filter_selection`] (they share
//! [`crate::evaluate::and_conjunct`]) — including only running the row loop
//! on still-selected rows, so a row rejected early never reaches a later,
//! possibly erroring, expression.
//!
//! A morsel of a grand total over a scan with no filter — every row kept —
//! is folded by [`fold`], the per-morsel case of the grouping fold fed by a
//! scan ([`crate::aggregate::fold`]): COUNT from validity
//! headers, SUM/AVG/MIN/MAX over RLE runs without expanding them (float sums
//! still perform one add per row so accumulation order — and therefore
//! every last bit — matches the row-at-a-time loop).

use crate::aggregate::State;
use crate::compare::{compare_literal, literal_comparable, CmpOp, Lanes};
use crate::evaluate::{and_conjunct, collect_conjuncts, NumSlice};
use crate::keys::{KeyClass, KeyFilter, KeyInts};
use pixels_common::{
    Column, ColumnData, DataType, Error, RecordBatch, Result, SchemaRef, Selection, Value,
};
use pixels_planner::BoundExpr;
use pixels_sql::ast::BinaryOp;
use pixels_storage::{ColumnPredicate, ColumnStats, EncodedChunk, Encoding, PredicateOp, RleRuns};
use std::cell::OnceCell;

/// One row group's projected chunks, decoded lazily and at most once per
/// column. A dictionary chunk's decode and an RLE chunk's runs are not kept
/// here but in the chunk's own memo, which a cached chunk shares with every
/// query that reads it: whichever of filter, key filter, materialization and
/// fold reads them first — in this morsel or an earlier query — parses them.
/// Lives on a single worker thread for the duration of one morsel.
pub struct LazyRowGroup {
    schema: SchemaRef,
    chunks: Vec<EncodedChunk>,
    num_rows: usize,
    /// Full decodes of plain and RLE chunks, made for this morsel.
    decoded: Vec<OnceCell<Column>>,
    full: OnceCell<RecordBatch>,
}

impl LazyRowGroup {
    pub fn new(schema: SchemaRef, chunks: Vec<EncodedChunk>, num_rows: usize) -> Self {
        LazyRowGroup {
            schema,
            decoded: chunks.iter().map(|_| OnceCell::new()).collect(),
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

    /// The column at `i`: a dictionary chunk's borrowed from its memo, any
    /// other decoded on first use and kept for the morsel (an RLE chunk
    /// expanded from its memoized runs).
    pub fn column(&self, i: usize) -> Result<&Column> {
        let chunk = &self.chunks[i];
        if chunk.encoding() == Encoding::Dictionary {
            return chunk.dictionary();
        }
        if self.decoded[i].get().is_none() {
            let _ = self.decoded[i].set(chunk.decode()?);
        }
        Ok(self.decoded[i].get().expect("column just decoded"))
    }

    /// The values of the chunk at `i` as a comparison reads them: the
    /// decoded column when one is at hand, else a plain fixed-width chunk's
    /// payload in place, else the column, decoded now.
    fn lanes(&self, i: usize) -> Result<Lanes<'_>> {
        if let Some(col) = self.decoded[i].get() {
            return Ok(Lanes::Column(col.data()));
        }
        let chunk = &self.chunks[i];
        if let Some(values) = chunk.plain_fixed::<4>()? {
            return Ok(Lanes::Le4(chunk.data_type(), values));
        }
        if let Some(values) = chunk.plain_fixed::<8>()? {
            return Ok(Lanes::Le8(chunk.data_type(), values));
        }
        Ok(Lanes::Column(self.column(i)?.data()))
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

    /// Materialize only the rows `selection` keeps (late materialization):
    /// a column decoded for filtering is gathered from its decoded values,
    /// any other chunk from its memo or its encoded bytes — every one of
    /// them validated like the full decode, also when no row is kept.
    pub fn materialize(&self, selection: &Selection) -> Result<RecordBatch> {
        if selection.count() == self.num_rows {
            return self.materialize_all();
        }
        let cols = self
            .chunks
            .iter()
            .enumerate()
            .map(|(i, chunk)| match self.decoded[i].get() {
                Some(col) => col.select(selection),
                None => chunk.decode_filtered(selection),
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

/// Evaluate the residual filter conjunction against encoded chunks into the
/// rows it keeps — the rows [`crate::evaluate::fused_filter_selection`] would
/// keep of the decoded batch. `stats` holds the per-chunk zone maps, one per
/// projected column.
pub fn encoded_selection(
    filters: &[BoundExpr],
    lazy: &LazyRowGroup,
    stats: &[&ColumnStats],
) -> Result<Selection> {
    let mut selection = Selection::all(lazy.num_rows());
    let mut conjuncts = Vec::new();
    for f in filters {
        collect_conjuncts(f, &mut conjuncts);
    }
    for conj in conjuncts {
        // A selection that keeps nothing can stop early: a conjunct the
        // kernels cannot finish only runs on kept rows (none), so nothing is
        // left that could change it or raise an error.
        if selection.count() == 0 {
            break;
        }
        if !encoded_conjunct(conj, lazy, stats, &mut selection)? {
            and_conjunct(conj, lazy.full_batch()?, &mut selection)?;
        }
    }
    Ok(selection)
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

/// AND one conjunct's verdict into `selection` when an infallible encoded
/// kernel exists; false, with `selection` untouched, sends the conjunct to
/// the decoded batch.
fn encoded_conjunct(
    conj: &BoundExpr,
    lazy: &LazyRowGroup,
    stats: &[&ColumnStats],
    selection: &mut Selection,
) -> Result<bool> {
    // `col IS [NOT] NULL` straight off the chunk's validity header.
    if let BoundExpr::IsNull { expr, negated } = conj {
        let BoundExpr::ColumnRef { index, .. } = expr.as_ref() else {
            return Ok(false);
        };
        match (lazy.chunk(*index).validity(), negated) {
            (Some(valid), true) => selection.and(valid),
            (Some(valid), false) => selection.and_not(valid),
            (None, true) => {}
            (None, false) => selection.clear(),
        }
        return Ok(true);
    }
    let BoundExpr::BinaryOp {
        left, op, right, ..
    } = conj
    else {
        return Ok(false);
    };
    if !op.is_comparison() {
        return Ok(false);
    }
    let (idx, lit, flipped) = match (left.as_ref(), right.as_ref()) {
        (BoundExpr::ColumnRef { index, .. }, BoundExpr::Literal(v)) => (*index, v, false),
        (BoundExpr::Literal(v), BoundExpr::ColumnRef { index, .. }) => (*index, v, true),
        _ => return Ok(false),
    };
    let chunk = lazy.chunk(idx);
    if lit.is_null() {
        // Comparing against NULL yields NULL for every row, which keeps none.
        selection.clear();
        return Ok(true);
    }
    if !literal_comparable(chunk.data_type(), lit) {
        // No infallible kernel for this combination: the fallback must see
        // the conjunct, because it may legitimately error per row.
        return Ok(false);
    }
    // Chunk-level zone check: the zone map can prove the conjunct's verdict
    // for the whole chunk without touching the payload. Floats are excluded
    // (zone maps use SQL comparison, the kernels total_cmp).
    if !matches!(chunk.data_type(), DataType::Float64) && !matches!(lit, Value::Float64(_)) {
        if let Some(pred_op) = zone_op(*op, flipped) {
            let pred = ColumnPredicate {
                column: idx,
                op: pred_op,
                value: lit.clone(),
            };
            if !pred.may_match(stats[idx]) {
                selection.clear();
                return Ok(true);
            }
            if pred.must_match(stats[idx]) {
                return Ok(true);
            }
        }
    }
    let cmp = CmpOp::of(*op, flipped);
    if chunk.encoding() == Encoding::Rle {
        // One comparison per run, by the kernel that compares per row.
        let runs = chunk.rle_runs()?;
        let mut verdicts = Vec::new();
        if !compare_literal(&mut verdicts, Lanes::Column(&runs.values), cmp, lit) {
            return Ok(false);
        }
        and_runs(selection, &runs.counts, |run| verdicts[run]);
    } else if !compare_literal(selection, lazy.lanes(idx)?, cmp, lit) {
        return Ok(false);
    }
    if let Some(valid) = chunk.validity() {
        selection.and(valid);
    }
    Ok(true)
}

/// AND into `selection` each run's `verdict` over the rows of the run. A run
/// cursor that only moves forward builds each word that still keeps a row
/// from the runs that overlap it, so `verdict` is asked only about those
/// runs: O(runs + words), whatever the selection keeps.
fn and_runs(selection: &mut Selection, counts: &[u32], mut verdict: impl FnMut(usize) -> bool) {
    // `run` is the first run that ends past the last word's start, at `start`.
    let (mut run, mut start) = (0usize, 0usize);
    selection.refine(|rows| {
        while start + counts[run] as usize <= rows.start {
            start += counts[run] as usize;
            run += 1;
        }
        let (mut word, mut r, mut s) = (0u64, run, start);
        while s < rows.end {
            let end = s + counts[r] as usize;
            if verdict(r) {
                let (lo, hi) = (
                    s.max(rows.start) - rows.start,
                    end.min(rows.end) - rows.start,
                );
                word |= (u64::MAX >> (64 - (hi - lo))) << lo;
            }
            (s, r) = (end, r + 1);
        }
        word
    });
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

/// Clear from `selection` every row whose key cannot match a build key of
/// the join this scan probes for. The scan's last conjunct: it runs only
/// while `selection` still keeps a row, after every conjunct of the scan's
/// own, so a row those reject or fail on is treated exactly as without it.
/// Per range: the zone map first, then one test per run of an RLE chunk that
/// overlaps a word still keeping a row, else one per kept row, read in place
/// from a plain chunk's payload. NULL keys are cleared.
pub(crate) fn key_filter_refine(
    filter: &KeyFilter,
    lazy: &LazyRowGroup,
    stats: &[&ColumnStats],
    selection: &mut Selection,
) -> Result<()> {
    for (at, range) in filter.ranges().iter().enumerate() {
        if selection.count() == 0 {
            break;
        }
        match key_zone(filter, at, lazy, stats) {
            None | Some(KeyZone::EveryRow) => continue,
            Some(KeyZone::NoRow) => {
                selection.clear();
                break;
            }
            Some(KeyZone::Unknown) => {}
        }
        let chunk = lazy.chunk(range.column);
        let admits = |v| filter.admits(at, v);
        if chunk.encoding() == Encoding::Rle {
            let runs = chunk.rle_runs()?;
            let Some((_, values)) = KeyInts::of(&runs.values) else {
                continue;
            };
            and_runs(selection, &runs.counts, |run| admits(values.get(run)));
        } else {
            match lazy.lanes(range.column)? {
                Lanes::Le4(_, v) => {
                    selection.retain(|row| admits(i64::from(i32::from_le_bytes(v[row]))))
                }
                Lanes::Le8(_, v) => selection.retain(|row| admits(i64::from_le_bytes(v[row]))),
                Lanes::Column(data) => {
                    let Some((_, values)) = KeyInts::of(data) else {
                        continue;
                    };
                    selection.retain(|row| admits(values.get(row)));
                }
            }
        }
        if let Some(valid) = chunk.validity() {
            selection.and(valid);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// A grand total's fold, straight off the chunks
// ---------------------------------------------------------------------------

/// Fold one morsel with no selection into one accumulator of a grand total
/// (its single group), bit-identical to the accumulator's update loop over
/// the decoded column: the chunk at `column`, with `group` holding a 0 for
/// every row. A COUNT reads the chunk's validity header, a SUM/AVG/MIN/MAX
/// of an RLE chunk folds its runs, and anything else decodes the column.
pub(crate) fn fold(
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
    if chunk.encoding() == Encoding::Rle && fold_runs(state, chunk.rle_runs()?, chunk)? {
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
        let valid = chunk.validity().map_or(count, |valid| {
            (row..row + count).filter(|&r| valid.contains(r)).count()
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
