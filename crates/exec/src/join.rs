//! Hash join: builds a hash table on the right input, probes with the left.
//!
//! Supports inner, left-outer, right-outer, and cross joins with optional
//! residual (non-equi) predicates. SQL semantics: NULL keys never match.
//!
//! The equi-join path is vectorized: a single INTEGER key whose build values
//! span few enough values finds its build rows by position ([`DenseKeys`]);
//! any other key is normalized into the compact byte-row encoding from
//! [`crate::keys`] a whole column at a time (no per-row `Vec<Value>`
//! allocation or SipHash) and hashed ([`KeyTable`]). Output is
//! late-materialized — the probe phase only records
//! `(left_row, right_row)` match index vectors, and batches are assembled
//! with one gather per column instead of per-row builder pushes. Row order
//! is identical to the row-at-a-time implementation: probe rows in input
//! order, each with its matches in build-insertion order, unmatched
//! left-outer rows inline, unmatched right-outer rows as a tail.

use crate::evaluate::{evaluate_ref, predicate_mask, widen};
use crate::keys::{key_chunks, DenseKeys, KeyClass, KeyEncoder, KeyFilter, KeyTable, NO_ENTRY};
use pixels_common::{
    Column, ColumnBuilder, DataType, Error, RecordBatch, Result, SchemaRef, Selection, Value,
};
use pixels_planner::eval::eval_expr;
use pixels_planner::BoundExpr;
use pixels_sql::ast::JoinType;
use std::borrow::Cow;

/// Sentinel for "end of duplicate chain" in the build table.
const NONE: u32 = u32::MAX;

/// Whether the join runs on the hash table (otherwise it is a nested loop).
pub(crate) fn is_equi_join(join_type: JoinType, keys: &[BoundExpr]) -> bool {
    join_type != JoinType::Cross && !keys.is_empty()
}

/// Execute a hash join between materialized inputs.
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
    if !is_equi_join(join_type, left_keys) {
        return cross_join(
            left_batches,
            right_batches,
            join_type,
            residual,
            output_schema,
            batch_size,
        );
    }
    JoinBuild::new(coalesce(right_batches)?, right_keys, left_keys)?.join(
        left_batches,
        join_type,
        residual,
        output_schema,
        left_width,
        batch_size,
    )
}

/// The build (right) side of an equi-join, indexed: the coalesced side, an
/// entry per distinct key, and each entry's rows chained in build-insertion
/// order — the candidate order the row-at-a-time join produced. A key
/// holding a NULL is never found: the probe side never looks one up.
pub(crate) struct JoinBuild<'a> {
    side: Option<Cow<'a, RecordBatch>>,
    keys: &'a [BoundExpr],
    probe_keys: &'a [BoundExpr],
    lookup: BuildKeys,
    /// First build row of each key entry.
    heads: Vec<u32>,
    /// The build row after each build row under the same key, or `NONE`.
    next: Vec<u32>,
}

/// How a [`JoinBuild`] numbers its keys.
enum BuildKeys {
    /// One INTEGER key pair whose build values fit a bitmap: by rank.
    Dense(DenseKeys),
    /// Any other key: encoded ([`KeyEncoder::join`]) and hashed.
    Hashed {
        encoder: KeyEncoder,
        table: Box<KeyTable>,
    },
}

impl<'a> JoinBuild<'a> {
    /// Index `side` (`None`: a side without a batch) on `keys`, for probing
    /// on `probe_keys`.
    pub(crate) fn new(
        side: Option<Cow<'a, RecordBatch>>,
        keys: &'a [BoundExpr],
        probe_keys: &'a [BoundExpr],
    ) -> Result<Self> {
        let build_rows = side.as_ref().map_or(0, |b| b.num_rows());
        let key_cols = side_key_columns(keys, side.as_deref())?;
        let integer = |k: &BoundExpr| KeyClass::of(k.data_type()) == KeyClass::Integer;
        let dense = match (&key_cols[..], keys, probe_keys) {
            ([col], [key], [probe]) if integer(key) && integer(probe) => DenseKeys::of(col),
            _ => None,
        };
        let mut entries: Vec<u32> = Vec::new();
        let (lookup, num_entries) = match dense {
            Some(dense) => {
                dense.lookup_rows(&key_cols[0], 0..build_rows, &mut entries);
                let len = dense.len();
                (BuildKeys::Dense(dense), len)
            }
            None => {
                let encoder = join_encoder(probe_keys, keys);
                let mut table = Box::new(KeyTable::new());
                table.intern_rows(&encoder, &key_cols, 0..build_rows, &mut entries);
                let len = table.len();
                (BuildKeys::Hashed { encoder, table }, len)
            }
        };
        // Chained back to front, so each chain runs in build order.
        let mut heads = vec![NONE; num_entries];
        let mut next = vec![NONE; build_rows];
        for (row, &entry) in entries.iter().enumerate().rev() {
            if entry != NO_ENTRY {
                next[row] = heads[entry as usize];
                heads[entry as usize] = row as u32;
            }
        }
        Ok(JoinBuild {
            side,
            keys,
            probe_keys,
            lookup,
            heads,
            next,
        })
    }

    /// What the build keys let a scan of the probe side drop
    /// ([`KeyFilter`]), for the probe keys that are bare columns of it.
    pub(crate) fn key_filter(&self) -> Result<Option<KeyFilter>> {
        let probe: Vec<Option<(usize, DataType)>> = (self.probe_keys.iter())
            .map(|k| match k {
                BoundExpr::ColumnRef {
                    index, data_type, ..
                } => Some((*index, *data_type)),
                _ => None,
            })
            .collect();
        Ok(match &self.lookup {
            BuildKeys::Dense(dense) => probe[0].map(|(column, _)| dense.filter(column)),
            BuildKeys::Hashed { .. } => {
                KeyFilter::from_build(&side_key_columns(self.keys, self.side.as_deref())?, &probe)
            }
        })
    }

    /// Probe with `left_batches` and materialize the join's output in
    /// `batch_size` chunks, one gather per column per chunk.
    pub(crate) fn join(
        mut self,
        left_batches: &[RecordBatch],
        join_type: JoinType,
        residual: Option<&BoundExpr>,
        output_schema: &SchemaRef,
        left_width: usize,
        batch_size: usize,
    ) -> Result<Vec<RecordBatch>> {
        // Coalesced so match indices are global row numbers and output
        // columns come from a single gather source.
        let left_all = coalesce(left_batches)?;
        let (fl, fr) = self.probe(
            left_all.as_deref(),
            join_type,
            residual,
            output_schema,
            left_width,
        )?;
        let chunk = batch_size.max(1);
        let mut out = Vec::with_capacity(fl.len().div_ceil(chunk));
        for (cl, cr) in fl.chunks(chunk).zip(fr.chunks(chunk)) {
            out.push(self.assemble(output_schema, left_width, left_all.as_deref(), cl, cr)?);
        }
        Ok(out)
    }

    /// [`assemble`] against this build side.
    pub(crate) fn assemble(
        &self,
        output_schema: &SchemaRef,
        left_width: usize,
        left: Option<&RecordBatch>,
        li: &[i64],
        ri: &[i64],
    ) -> Result<RecordBatch> {
        assemble(
            output_schema,
            left_width,
            left,
            li,
            self.side.as_deref(),
            ri,
        )
    }

    /// The equi-join index core: the `(left_row, right_row)` gather-index
    /// vectors (−1 ⇒ null-extended slot) of probing with `left_all`, in
    /// exactly the order the row-at-a-time join emitted rows: probe rows in
    /// input order, matches in build-insertion order, unmatched left-outer
    /// rows inline, unmatched right-outer rows as a tail in build order.
    /// Shared with the exchange partitioned-join path, which runs it per
    /// partition and maps the local indices back through per-partition
    /// row-origin vectors.
    pub(crate) fn probe(
        &mut self,
        left_all: Option<&RecordBatch>,
        join_type: JoinType,
        residual: Option<&BoundExpr>,
        output_schema: &SchemaRef,
        left_width: usize,
    ) -> Result<(Vec<i64>, Vec<i64>)> {
        let JoinBuild {
            side,
            probe_keys,
            lookup,
            heads,
            next,
            ..
        } = self;
        let right_all = side.as_deref();
        // Which build rows matched: only a right-outer join reads it.
        let right_outer = join_type == JoinType::Right;
        let mut build_matched = vec![false; if right_outer { next.len() } else { 0 }];
        // Late-materialized output: gather indices per side; -1 marks a
        // null-extended slot (outer-join padding).
        let mut fl: Vec<i64> = Vec::new();
        let mut fr: Vec<i64> = Vec::new();

        if let Some(lb) = left_all {
            let key_cols = key_columns(probe_keys, lb)?;
            let mut entries: Vec<u32> = Vec::new();
            // For a run of probe rows, looked up together: the first build
            // row matching each (`NONE` for a NULL key or no match); `next`
            // chains the rest.
            let mut first_matches = |rows: std::ops::Range<usize>, first: &mut Vec<u32>| {
                first.clear();
                match lookup {
                    BuildKeys::Dense(dense) => dense.lookup_rows(&key_cols[0], rows, first),
                    BuildKeys::Hashed { encoder, table } => {
                        table.lookup_rows(encoder, &key_cols, rows, first)
                    }
                }
                for entry in first {
                    *entry = match *entry {
                        NO_ENTRY => NONE,
                        entry => heads[entry as usize],
                    };
                }
            };
            if let Some(res) = residual {
                // With a residual, collect all key-matched candidate pairs
                // first, evaluate the residual as one mask over an assembled
                // candidate batch, then keep the surviving pairs.
                let mut cand_l: Vec<i64> = Vec::new();
                let mut cand_r: Vec<i64> = Vec::new();
                let mut ranges: Vec<(u32, u32)> = Vec::with_capacity(lb.num_rows());
                for rows in key_chunks(0..lb.num_rows()) {
                    first_matches(rows.clone(), &mut entries);
                    for (row, &first) in rows.zip(&entries) {
                        let start = cand_l.len() as u32;
                        let mut b = first;
                        while b != NONE {
                            cand_l.push(row as i64);
                            cand_r.push(b as i64);
                            b = next[b as usize];
                        }
                        ranges.push((start, cand_l.len() as u32));
                    }
                }
                let keep = if cand_l.is_empty() {
                    Selection::default()
                } else {
                    let cand = assemble(
                        output_schema,
                        left_width,
                        left_all,
                        &cand_l,
                        right_all,
                        &cand_r,
                    )?;
                    predicate_mask(res, &cand)?
                };
                for (row, &(start, end)) in ranges.iter().enumerate() {
                    let mut matched = false;
                    for ci in start as usize..end as usize {
                        if keep.contains(ci) {
                            matched = true;
                            if right_outer {
                                build_matched[cand_r[ci] as usize] = true;
                            }
                            fl.push(row as i64);
                            fr.push(cand_r[ci]);
                        }
                    }
                    if !matched && join_type == JoinType::Left {
                        fl.push(row as i64);
                        fr.push(-1);
                    }
                }
            } else {
                for rows in key_chunks(0..lb.num_rows()) {
                    first_matches(rows.clone(), &mut entries);
                    for (row, &first) in rows.zip(&entries) {
                        if first == NONE && join_type == JoinType::Left {
                            fl.push(row as i64);
                            fr.push(-1);
                        }
                        let mut b = first;
                        while b != NONE {
                            if right_outer {
                                build_matched[b as usize] = true;
                            }
                            fl.push(row as i64);
                            fr.push(b as i64);
                            b = next[b as usize];
                        }
                    }
                }
            }
        }

        // Right outer: emit unmatched build rows null-extended on the left.
        if right_outer {
            for (b, matched) in build_matched.iter().enumerate() {
                if !matched {
                    fl.push(-1);
                    fr.push(b as i64);
                }
            }
        }
        Ok((fl, fr))
    }
}

fn key_columns<'b>(keys: &[BoundExpr], batch: &'b RecordBatch) -> Result<Vec<Cow<'b, Column>>> {
    keys.iter().map(|k| evaluate_ref(k, batch)).collect()
}

/// A build side's key columns; empty ones for a side without a batch.
fn side_key_columns<'b>(
    keys: &[BoundExpr],
    side: Option<&'b RecordBatch>,
) -> Result<Vec<Cow<'b, Column>>> {
    match side {
        Some(rb) => key_columns(keys, rb),
        None => Ok((keys.iter())
            .map(|k| Cow::Owned(Column::nulls(k.data_type(), 0)))
            .collect()),
    }
}

/// The encoder of a join's keys on both sides ([`KeyEncoder::join`]).
pub(crate) fn join_encoder(left_keys: &[BoundExpr], right_keys: &[BoundExpr]) -> KeyEncoder {
    let types =
        |keys: &[BoundExpr]| -> Vec<DataType> { keys.iter().map(|k| k.data_type()).collect() };
    KeyEncoder::join(&types(left_keys), &types(right_keys))
}

/// Concatenate a side's batches into one gather source. `None` when the
/// side has no batches at all; a borrowed single batch avoids the copy in
/// the common one-batch case.
pub(crate) fn coalesce(batches: &[RecordBatch]) -> Result<Option<Cow<'_, RecordBatch>>> {
    match batches {
        [] => Ok(None),
        [single] => Ok(Some(Cow::Borrowed(single))),
        many => Ok(Some(Cow::Owned(RecordBatch::concat(many)?))),
    }
}

/// Build an output batch by gathering `li`/`ri` (−1 ⇒ NULL) from the two
/// sides. Gathered columns are width-adapted to the output field types the
/// same way the row-at-a-time sink's `ColumnBuilder::push` widened values.
fn assemble(
    output_schema: &SchemaRef,
    left_width: usize,
    left: Option<&RecordBatch>,
    li: &[i64],
    right: Option<&RecordBatch>,
    ri: &[i64],
) -> Result<RecordBatch> {
    let mut columns = Vec::with_capacity(output_schema.len());
    for (c, field) in output_schema.fields().iter().enumerate() {
        let (side, indices, idx) = if c < left_width {
            (left, li, c)
        } else {
            (right, ri, c - left_width)
        };
        let col = match side {
            Some(b) => b.column(idx).gather_or_null(indices)?,
            // A side with no batches can only be referenced by -1 slots.
            None => Column::nulls(field.data_type, indices.len()),
        };
        columns.push(adapt_to(col, field.data_type)?);
    }
    RecordBatch::try_new(output_schema.clone(), columns)
}

/// Widen a gathered column to the declared output type when the source
/// column was narrower (e.g. Int32 input under an Int64 output field) —
/// mirroring the implicit widening `ColumnBuilder::push` performed in the
/// row-at-a-time path. No-op in the common equal-type case.
fn adapt_to(col: Column, ty: DataType) -> Result<Column> {
    if col.data_type() == ty {
        return Ok(col);
    }
    widen(&col, ty).ok_or_else(|| {
        Error::Invalid(format!(
            "cannot append {} values to {ty} column",
            col.data_type()
        ))
    })
}

pub(crate) fn cross_join(
    left_batches: &[RecordBatch],
    right_batches: &[RecordBatch],
    join_type: JoinType,
    residual: Option<&BoundExpr>,
    output_schema: &SchemaRef,
    batch_size: usize,
) -> Result<Vec<RecordBatch>> {
    if !matches!(join_type, JoinType::Cross | JoinType::Inner) {
        return Err(Error::Exec(
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

/// Accumulates rows into fixed-size record batches (used by the cross-join
/// and `VALUES` paths, and by the scalar reference operators).
pub struct RowSink {
    schema: SchemaRef,
    builders: Vec<ColumnBuilder>,
    batch_size: usize,
    rows_in_batch: usize,
    batches: Vec<RecordBatch>,
}

impl RowSink {
    pub fn new(schema: SchemaRef, batch_size: usize) -> Self {
        let batch_size = batch_size.max(1);
        let builders = Self::fresh_builders(&schema, batch_size);
        RowSink {
            schema,
            builders,
            batch_size,
            rows_in_batch: 0,
            batches: Vec::new(),
        }
    }

    /// Builders pre-reserved for a full batch (capped so tiny `VALUES`
    /// results don't allocate 8k slots per column).
    fn fresh_builders(schema: &SchemaRef, batch_size: usize) -> Vec<ColumnBuilder> {
        let cap = batch_size.min(1024);
        schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::with_capacity(f.data_type, cap))
            .collect()
    }

    pub fn push(&mut self, row: Vec<Value>) -> Result<()> {
        debug_assert_eq!(row.len(), self.builders.len());
        for (b, v) in self.builders.iter_mut().zip(&row) {
            b.push(v)?;
        }
        self.rows_in_batch += 1;
        if self.rows_in_batch >= self.batch_size {
            self.cut()?;
        }
        Ok(())
    }

    fn cut(&mut self) -> Result<()> {
        if self.rows_in_batch == 0 {
            return Ok(());
        }
        let builders = std::mem::replace(
            &mut self.builders,
            Self::fresh_builders(&self.schema, self.batch_size),
        );
        let columns = builders.into_iter().map(|b| b.finish()).collect();
        self.batches
            .push(RecordBatch::try_new(self.schema.clone(), columns)?);
        self.rows_in_batch = 0;
        Ok(())
    }

    pub fn finish(mut self) -> Result<Vec<RecordBatch>> {
        self.cut()?;
        Ok(self.batches)
    }
}
