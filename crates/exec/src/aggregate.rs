//! Hash aggregation with COUNT/SUM/AVG/MIN/MAX and DISTINCT variants.
//!
//! Aggregation is parallelized the classic way: the input batches are split
//! into contiguous chunks, each worker builds a thread-local hash table
//! (a [`Partial`]), and the partials are merged on the caller's thread *in
//! chunk order*. Because merging walks chunks in input order and each
//! partial records groups (and DISTINCT values) in first-appearance order,
//! the merged output preserves exactly the group ordering the serial path
//! produces. Integer aggregates are bit-identical to serial execution;
//! floating-point SUM/AVG may differ in the last ulps because partial sums
//! reassociate the additions.
//!
//! Group keys are interned through the compact byte-row encoding in
//! [`crate::keys`] (a whole column at a time) instead of a
//! `HashMap<Vec<Value>, _>`;
//! the `Vec<Value>` form of a key is materialized once per *group* (for
//! output building), not once per input row.

use crate::evaluate::{evaluate_ref, NumSlice};
use crate::keys::{KeyEncoder, KeyTable};
use crate::parallel;
use pixels_common::{
    Column, ColumnBuilder, ColumnData, DataType, Error, RecordBatch, Result, SchemaRef, Value,
};
use pixels_planner::{AggExpr, AggFunc, BoundExpr};
use std::borrow::Cow;
use std::collections::HashSet;

/// Running state of one aggregate within one group.
#[derive(Debug, Clone)]
pub(crate) enum AggState {
    Count(i64),
    SumInt { sum: i64, seen: bool },
    SumFloat { sum: f64, seen: bool },
    Avg { sum: f64, count: i64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    pub(crate) fn new(agg: &AggExpr) -> AggState {
        match agg.func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => {
                if agg.output_type == DataType::Float64 {
                    AggState::SumFloat {
                        sum: 0.0,
                        seen: false,
                    }
                } else {
                    AggState::SumInt {
                        sum: 0,
                        seen: false,
                    }
                }
            }
            AggFunc::Avg => AggState::Avg { sum: 0.0, count: 0 },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    /// Fold one non-null input value into the state.
    pub(crate) fn update(&mut self, v: &Value) -> Result<()> {
        match self {
            AggState::Count(c) => *c += 1,
            AggState::SumInt { sum, seen } => {
                let x = v
                    .as_i64()
                    .ok_or_else(|| Error::Exec(format!("SUM over non-integer value {v}")))?;
                *sum = sum
                    .checked_add(x)
                    .ok_or_else(|| Error::Exec("SUM overflow".into()))?;
                *seen = true;
            }
            AggState::SumFloat { sum, seen } => {
                let x = v
                    .as_f64()
                    .ok_or_else(|| Error::Exec(format!("SUM over non-numeric value {v}")))?;
                *sum += x;
                *seen = true;
            }
            AggState::Avg { sum, count } => {
                let x = v
                    .as_f64()
                    .ok_or_else(|| Error::Exec(format!("AVG over non-numeric value {v}")))?;
                *sum += x;
                *count += 1;
            }
            AggState::Min(cur) => {
                if cur.as_ref().is_none_or(|m| v.total_cmp(m).is_lt()) {
                    *cur = Some(v.clone());
                }
            }
            AggState::Max(cur) => {
                if cur.as_ref().is_none_or(|m| v.total_cmp(m).is_gt()) {
                    *cur = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    /// [`AggState::update`] for a string: MIN/MAX compare against the running
    /// extreme in place and build a `String` only when it is replaced.
    pub(crate) fn update_str(&mut self, s: &str) -> Result<()> {
        match self {
            AggState::Min(Some(Value::Utf8(m))) if s >= m.as_str() => Ok(()),
            AggState::Max(Some(Value::Utf8(m))) if s <= m.as_str() => Ok(()),
            _ => self.update(&Value::Utf8(s.to_owned())),
        }
    }

    /// Fold another partial state for the same group into this one.
    pub(crate) fn merge(&mut self, other: &AggState) -> Result<()> {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::SumInt { sum, seen }, AggState::SumInt { sum: s, seen: b }) => {
                if *b {
                    *sum = sum
                        .checked_add(*s)
                        .ok_or_else(|| Error::Exec("SUM overflow".into()))?;
                    *seen = true;
                }
            }
            (AggState::SumFloat { sum, seen }, AggState::SumFloat { sum: s, seen: b }) => {
                if *b {
                    *sum += s;
                    *seen = true;
                }
            }
            (AggState::Avg { sum, count }, AggState::Avg { sum: s, count: c }) => {
                *sum += s;
                *count += c;
            }
            (AggState::Min(cur), AggState::Min(other)) => {
                if let Some(v) = other {
                    if cur.as_ref().is_none_or(|m| v.total_cmp(m).is_lt()) {
                        *cur = Some(v.clone());
                    }
                }
            }
            (AggState::Max(cur), AggState::Max(other)) => {
                if let Some(v) = other {
                    if cur.as_ref().is_none_or(|m| v.total_cmp(m).is_gt()) {
                        *cur = Some(v.clone());
                    }
                }
            }
            _ => return Err(Error::Exec("mismatched aggregate states".into())),
        }
        Ok(())
    }

    /// The primary spill-column type for this aggregate (the exchange spill
    /// format carries each state as two columns; see [`spill_values`]).
    ///
    /// [`spill_values`]: AggState::spill_values
    pub(crate) fn spill_type(agg: &AggExpr) -> DataType {
        match agg.func {
            AggFunc::Count => DataType::Int64,
            AggFunc::Sum => agg.output_type,
            AggFunc::Avg => DataType::Float64,
            AggFunc::Min | AggFunc::Max => agg.output_type,
        }
    }

    /// Encode the state as a `(primary, secondary)` value pair for the
    /// exchange spill format. The secondary slot is `Null` for every
    /// aggregate except AVG, which spills `(sum, count)` so the final
    /// division happens exactly once, in the final stage.
    pub(crate) fn spill_values(&self) -> (Value, Value) {
        match self {
            AggState::Count(c) => (Value::Int64(*c), Value::Null),
            AggState::SumInt { sum, seen } => (
                if *seen {
                    Value::Int64(*sum)
                } else {
                    Value::Null
                },
                Value::Null,
            ),
            AggState::SumFloat { sum, seen } => (
                if *seen {
                    Value::Float64(*sum)
                } else {
                    Value::Null
                },
                Value::Null,
            ),
            AggState::Avg { sum, count } => (Value::Float64(*sum), Value::Int64(*count)),
            AggState::Min(v) | AggState::Max(v) => (v.clone().unwrap_or(Value::Null), Value::Null),
        }
    }

    /// Decode a state from its spill value pair (inverse of
    /// [`spill_values`](AggState::spill_values)).
    pub(crate) fn from_spill(agg: &AggExpr, a: Value, b: Value) -> Result<AggState> {
        let bad = || Error::Exec(format!("corrupt {:?} spill state: ({a}, {b})", agg.func));
        Ok(match agg.func {
            AggFunc::Count => AggState::Count(a.as_i64().ok_or_else(bad)?),
            AggFunc::Sum if agg.output_type == DataType::Float64 => match a {
                Value::Null => AggState::SumFloat {
                    sum: 0.0,
                    seen: false,
                },
                ref v => AggState::SumFloat {
                    sum: v.as_f64().ok_or_else(bad)?,
                    seen: true,
                },
            },
            AggFunc::Sum => match a {
                Value::Null => AggState::SumInt {
                    sum: 0,
                    seen: false,
                },
                ref v => AggState::SumInt {
                    sum: v.as_i64().ok_or_else(bad)?,
                    seen: true,
                },
            },
            AggFunc::Avg => AggState::Avg {
                sum: a.as_f64().ok_or_else(bad)?,
                count: b.as_i64().ok_or_else(bad)?,
            },
            AggFunc::Min => AggState::Min((!a.is_null()).then_some(a)),
            AggFunc::Max => AggState::Max((!a.is_null()).then_some(a)),
        })
    }

    /// Final value of the aggregate (SQL: SUM/AVG/MIN/MAX of no rows = NULL,
    /// COUNT of no rows = 0).
    pub(crate) fn finish(&self) -> Value {
        match self {
            AggState::Count(c) => Value::Int64(*c),
            AggState::SumInt { sum, seen } => {
                if *seen {
                    Value::Int64(*sum)
                } else {
                    Value::Null
                }
            }
            AggState::SumFloat { sum, seen } => {
                if *seen {
                    Value::Float64(*sum)
                } else {
                    Value::Null
                }
            }
            AggState::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float64(*sum / *count as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.clone().unwrap_or(Value::Null),
        }
    }
}

/// Values a DISTINCT aggregate has consumed, in first-appearance order. The
/// order matters when merging partials: replaying it keeps the update
/// sequence identical to serial execution.
#[derive(Debug, Default)]
pub(crate) struct DistinctSet {
    seen: HashSet<Value>,
    pub(crate) order: Vec<Value>,
}

impl DistinctSet {
    /// True (and records the value) if `v` has not been seen before.
    pub(crate) fn insert(&mut self, v: &Value) -> bool {
        if self.seen.insert(v.clone()) {
            self.order.push(v.clone());
            true
        } else {
            false
        }
    }
}

/// Per-group state: one accumulator per aggregate, plus distinct-value sets
/// for DISTINCT aggregates.
pub(crate) struct GroupState {
    pub(crate) states: Vec<AggState>,
    pub(crate) distinct: Vec<Option<DistinctSet>>,
}

impl GroupState {
    pub(crate) fn new(aggs: &[AggExpr]) -> GroupState {
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
    pub(crate) fn consume_row(&mut self, agg_cols: &[Option<Column>], row: usize) -> Result<()> {
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

/// One worker's aggregation state: interned group keys (dense, in
/// first-appearance order) and the per-group accumulators. `keys[i]` is the
/// materialized `Vec<Value>` form of `table` entry `i`, used only to build
/// the final output columns.
pub(crate) struct Partial {
    pub(crate) table: KeyTable,
    pub(crate) keys: Vec<Vec<Value>>,
    pub(crate) states: Vec<GroupState>,
}

impl Partial {
    pub(crate) fn new() -> Partial {
        Partial {
            table: KeyTable::new(),
            keys: Vec::new(),
            states: Vec::new(),
        }
    }
}

/// Integer view of a column's raw payload, for checked integer SUM. Shared
/// with the encoded aggregate path so both sum the identical i64 sequence.
pub(crate) enum IntSlice<'a> {
    I32(&'a [i32]),
    I64(&'a [i64]),
}

impl IntSlice<'_> {
    pub(crate) fn get(&self, i: usize) -> i64 {
        match self {
            IntSlice::I32(v) => v[i] as i64,
            IntSlice::I64(v) => v[i],
        }
    }
}

pub(crate) fn int_view(data: &ColumnData) -> Option<IntSlice<'_>> {
    match data {
        ColumnData::Int32(v) => Some(IntSlice::I32(v)),
        ColumnData::Int64(v) => Some(IntSlice::I64(v)),
        _ => None,
    }
}

/// Fold one aggregate's argument column into the per-group states, walking
/// rows in input order (so float accumulation order matches the row-at-a-time
/// path exactly). Non-distinct COUNT/SUM/AVG over numeric columns read the
/// raw slice instead of materializing a `Value` per row; DISTINCT, MIN/MAX,
/// and uncovered argument types take the general path, which is
/// [`GroupState::consume_row`] restricted to this aggregate.
fn update_agg_column(
    states: &mut [GroupState],
    ai: usize,
    agg: &AggExpr,
    col: Option<&Column>,
    gidx: &[u32],
) -> Result<()> {
    if !agg.distinct {
        if let Some(col) = col {
            let validity = col.validity();
            let valid = |row: usize| validity.is_none_or(|v| v[row]);
            match (&agg.func, NumSlice::of(col.data())) {
                (AggFunc::Count, _) => {
                    for (row, &g) in gidx.iter().enumerate() {
                        if valid(row) {
                            if let AggState::Count(c) = &mut states[g as usize].states[ai] {
                                *c += 1;
                            }
                        }
                    }
                    return Ok(());
                }
                (AggFunc::Sum, Some(ns)) if agg.output_type == DataType::Float64 => {
                    for (row, &g) in gidx.iter().enumerate() {
                        if valid(row) {
                            if let AggState::SumFloat { sum, seen } =
                                &mut states[g as usize].states[ai]
                            {
                                *sum += ns.get(row);
                                *seen = true;
                            }
                        }
                    }
                    return Ok(());
                }
                (AggFunc::Sum, _) if agg.output_type != DataType::Float64 => {
                    if let Some(xs) = int_view(col.data()) {
                        for (row, &g) in gidx.iter().enumerate() {
                            if valid(row) {
                                if let AggState::SumInt { sum, seen } =
                                    &mut states[g as usize].states[ai]
                                {
                                    *sum = sum
                                        .checked_add(xs.get(row))
                                        .ok_or_else(|| Error::Exec("SUM overflow".into()))?;
                                    *seen = true;
                                }
                            }
                        }
                        return Ok(());
                    }
                }
                (AggFunc::Avg, Some(ns)) => {
                    for (row, &g) in gidx.iter().enumerate() {
                        if valid(row) {
                            if let AggState::Avg { sum, count } = &mut states[g as usize].states[ai]
                            {
                                *sum += ns.get(row);
                                *count += 1;
                            }
                        }
                    }
                    return Ok(());
                }
                _ => {}
            }
            if let ColumnData::Utf8(strings) = col.data() {
                // MIN/MAX over strings: no `Value` per row.
                for (row, &g) in gidx.iter().enumerate() {
                    if valid(row) {
                        states[g as usize].states[ai].update_str(strings.get(row))?;
                    }
                }
                return Ok(());
            }
        } else {
            // COUNT(*): no argument column, every row counts.
            for &g in gidx {
                match &mut states[g as usize].states[ai] {
                    AggState::Count(c) => *c += 1,
                    other => other.update(&Value::Int64(1))?,
                }
            }
            return Ok(());
        }
    }
    for (row, &g) in gidx.iter().enumerate() {
        let value = match col {
            Some(c) => c.value(row),
            None => Value::Int64(1),
        };
        if value.is_null() {
            continue; // aggregates skip NULLs
        }
        let st = &mut states[g as usize];
        if let Some(seen) = &mut st.distinct[ai] {
            if !seen.insert(&value) {
                continue;
            }
        }
        st.states[ai].update(&value)?;
    }
    Ok(())
}

/// Aggregate `input` into a fresh hash table (the serial inner loop): one
/// pass interning group keys into per-row group indices, then one typed
/// update pass per aggregate column.
pub(crate) fn build_partial(
    input: &[&RecordBatch],
    group_exprs: &[BoundExpr],
    aggs: &[AggExpr],
) -> Result<Partial> {
    let mut partial = Partial::new();
    let encoder = KeyEncoder::new(
        &group_exprs
            .iter()
            .map(|g| g.data_type())
            .collect::<Vec<_>>(),
    );
    let mut gidx: Vec<u32> = Vec::new();
    for &batch in input {
        let group_cols: Vec<Cow<Column>> = group_exprs
            .iter()
            .map(|g| evaluate_ref(g, batch))
            .collect::<Result<_>>()?;
        let agg_cols: Vec<Option<Cow<Column>>> = aggs
            .iter()
            .map(|a| {
                a.arg
                    .as_ref()
                    .map(|arg| evaluate_ref(arg, batch))
                    .transpose()
            })
            .collect::<Result<_>>()?;
        gidx.clear();
        // Group keys treat NULLs as equal (unlike join keys).
        (partial.table).intern_rows(&encoder, &group_cols, 0..batch.num_rows(), &mut gidx);
        for (row, &gi) in gidx.iter().enumerate() {
            // Entries are dense: the next unseen index is a new group.
            if gi as usize == partial.states.len() {
                partial
                    .keys
                    .push(group_cols.iter().map(|c| c.value(row)).collect());
                partial.states.push(GroupState::new(aggs));
            }
        }
        for (ai, agg) in aggs.iter().enumerate() {
            update_agg_column(&mut partial.states, ai, agg, agg_cols[ai].as_deref(), &gidx)?;
        }
    }
    Ok(partial)
}

/// Fold `part` into `acc`. Called with partials in chunk order, so groups
/// (and DISTINCT values) keep their global first-appearance order. Keys are
/// re-interned from the source partial's encoded bytes — never re-encoded.
pub(crate) fn merge_partial(acc: &mut Partial, part: Partial) -> Result<()> {
    let Partial {
        table,
        keys,
        states,
    } = part;
    for (src, (key, gstate)) in keys.into_iter().zip(states).enumerate() {
        let (gi, is_new) = acc.table.intern(table.key_bytes(src));
        if is_new {
            acc.keys.push(key);
            acc.states.push(gstate);
            continue;
        }
        let target = &mut acc.states[gi];
        for (ai, incoming) in gstate.states.iter().enumerate() {
            match (gstate.distinct[ai].as_ref(), &mut target.distinct[ai]) {
                (Some(ds), Some(tds)) => {
                    // Replay the chunk's distinct values in order;
                    // only globally-new values update the state.
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
    Ok(())
}

/// Split `input` into at most `parts` contiguous runs of whole batches,
/// balanced by row count.
pub(crate) fn partition_batches(input: &[RecordBatch], parts: usize) -> Vec<Vec<&RecordBatch>> {
    let parts = parts.clamp(1, input.len().max(1));
    let total: usize = input.iter().map(|b| b.num_rows()).sum();
    let target = total.div_ceil(parts).max(1);
    let mut chunks: Vec<Vec<&RecordBatch>> = Vec::with_capacity(parts);
    let mut current: Vec<&RecordBatch> = Vec::new();
    let mut current_rows = 0;
    for b in input {
        current.push(b);
        current_rows += b.num_rows();
        if current_rows >= target && chunks.len() + 1 < parts {
            chunks.push(std::mem::take(&mut current));
            current_rows = 0;
        }
    }
    if !current.is_empty() {
        chunks.push(current);
    }
    chunks
}

/// Execute a hash aggregate over materialized input with up to `parallelism`
/// workers building partial aggregates.
pub fn execute_aggregate(
    input: &[RecordBatch],
    group_exprs: &[BoundExpr],
    aggs: &[AggExpr],
    output_schema: &SchemaRef,
    parallelism: usize,
) -> Result<Vec<RecordBatch>> {
    let acc = merged_partial(input, group_exprs, aggs, parallelism)?;
    finish_partial(acc, group_exprs.len(), aggs, output_schema)
}

/// Build and merge the partial aggregates for `input` (the parallel part of
/// [`execute_aggregate`], without the output materialization). The exchange
/// spill writer runs this same routine, so stage-0 partial states are
/// bit-identical to the in-process merged accumulator.
pub(crate) fn merged_partial(
    input: &[RecordBatch],
    group_exprs: &[BoundExpr],
    aggs: &[AggExpr],
    parallelism: usize,
) -> Result<Partial> {
    let chunks = partition_batches(input, parallelism);
    let partials = parallel::run_indexed(chunks.len(), parallelism, |i| {
        build_partial(&chunks[i], group_exprs, aggs)
    })?;
    let mut partials = partials.into_iter();
    let mut acc = partials.next().unwrap_or_else(Partial::new);
    for part in partials {
        merge_partial(&mut acc, part)?;
    }
    Ok(acc)
}

/// Materialize a merged [`Partial`] into the final output batch: group key
/// columns followed by finished aggregate values. Shared by the in-process
/// path above and the exchange final stage, so both produce bit-identical
/// output (including the one-row result of a global aggregate over no rows).
pub(crate) fn finish_partial(
    mut acc: Partial,
    group_len: usize,
    aggs: &[AggExpr],
    output_schema: &SchemaRef,
) -> Result<Vec<RecordBatch>> {
    // Global aggregate over zero rows still yields one output row.
    if group_len == 0 && acc.states.is_empty() {
        acc.keys.push(Vec::new());
        acc.states.push(GroupState::new(aggs));
    }

    let mut builders: Vec<ColumnBuilder> = output_schema
        .fields()
        .iter()
        .map(|f| ColumnBuilder::with_capacity(f.data_type, acc.keys.len()))
        .collect();
    for (key, state) in acc.keys.iter().zip(&acc.states) {
        for (b, v) in builders.iter_mut().zip(key.iter()) {
            b.push(v)?;
        }
        for (ai, s) in state.states.iter().enumerate() {
            let v = s.finish();
            let b = &mut builders[group_len + ai];
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

/// Hash-based DISTINCT preserving first-appearance order: whole rows are
/// interned through the key encoding and the surviving (first-appearance)
/// row indices are gathered columnar, in 8192-row output chunks.
pub fn execute_distinct(input: &[RecordBatch]) -> Result<Vec<RecordBatch>> {
    let Some(first) = input.first() else {
        return Ok(Vec::new());
    };
    let schema = first.schema().clone();
    let types: Vec<DataType> = schema.fields().iter().map(|f| f.data_type).collect();
    let encoder = KeyEncoder::new(&types);
    let mut table = KeyTable::new();

    // Coalesce so kept-row indices are global and one gather per column
    // materializes the output.
    let all;
    let source = match input {
        [single] => single,
        many => {
            all = RecordBatch::concat(many)?;
            &all
        }
    };
    // DISTINCT treats NULLs as equal, like group keys.
    let mut entries = Vec::new();
    table.intern_rows(
        &encoder,
        source.columns(),
        0..source.num_rows(),
        &mut entries,
    );
    // Entries are dense: the next unseen index is a row's first appearance.
    let mut kept: Vec<usize> = Vec::new();
    for (row, &entry) in entries.iter().enumerate() {
        if entry as usize == kept.len() {
            kept.push(row);
        }
    }
    let mut out = Vec::with_capacity(kept.len().div_ceil(8192));
    for chunk in kept.chunks(8192) {
        out.push(source.gather(chunk)?);
    }
    Ok(out)
}
