//! Object-store exchange: hash-partitioned spill files between CF stages.
//!
//! Cloud-function fleets cannot open sockets to each other, so multi-stage
//! plans exchange data the Starling/Lambada way: stage-0 workers write
//! hash-partitioned spill files to the object store under a per-query,
//! per-stage, per-attempt prefix, and stage-1 workers read exactly their
//! partition set back. Spills are ordinary Pixels-format objects, so spill
//! reads reuse the same encoded columnar reader as every other scan.
//!
//! Two shuffled operators are supported:
//!
//! - **Aggregate**: stage 0 runs the *same* partial-build + chunk-order
//!   merge as the in-process [`crate::aggregate`] path (bit-identical
//!   states, combining before write à la Starling), then spills each group
//!   as one row into the partition its interned key's hash picks. Stage 1
//!   unions the disjoint partitions, restores global first-appearance group
//!   order via the spilled `__ord` column, and finishes the states.
//! - **Join**: both sides are hash-partitioned on their join keys, encoded
//!   alike on both sides ([`crate::keys::KeyEncoder::join`], so an `Int32`
//!   key meets its `Int64` or `Float64` equal), each row tagged with its
//!   global row number (`__ord`). Stage 1 joins
//!   each partition pair with the shared equi-join index core and restores
//!   the exact single-stage output order by sorting on the origin indices.
//!
//! Both paths produce output bit-identical to their single-stage
//! equivalents — same rows, same order, same batch boundaries — so the
//! materialized view a shuffled plan writes is byte-identical too.
//!
//! **Billing rule**: spill PUT/GET bytes are *provider-side* exchange
//! traffic. Spill reads run in a scratch [`ExecContext`] whose metrics are
//! drained into [`ExchangeStats::get_bytes`] and never into the billed
//! `bytes_scanned`; no `bytes` span attributes are recorded for them.

use crate::aggregate::{self, AggState};
use crate::context::ExecContext;
use crate::engine::execute;
use crate::evaluate::evaluate_ref;
use crate::join::{coalesce, join_encoder, JoinBuild};
use crate::keys::{hash_key, key_chunks, partition_of, EncodedKeys};
use crate::materialize;
use pixels_common::{
    Column, ColumnBuilder, ColumnData, DataType, Error, Field, RecordBatch, Result, Schema,
    SchemaRef, Value,
};
use pixels_planner::{AggExpr, BoundExpr, PhysicalPlan};
use pixels_sql::ast::JoinType;
use pixels_storage::{ObjectStore, ObjectStoreRef};
use std::borrow::Cow;
use std::sync::Arc;

/// Exchange traffic of one stage attempt: spill objects written and read,
/// their byte volumes, and the rows that crossed the exchange.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeStats {
    /// Hash-partition count of the exchange.
    pub partitions: u64,
    /// Bytes PUT as spill objects.
    pub put_bytes: u64,
    /// Bytes GET reading spill objects back.
    pub get_bytes: u64,
    /// Rows written across the exchange (post-combining for aggregates).
    pub spilled_rows: u64,
}

impl ExchangeStats {
    /// Fold another stage's traffic into this one. Byte and row totals add;
    /// the partition count is the fan-out, shared by all stages of a plan.
    pub fn merge(&mut self, other: &ExchangeStats) {
        self.partitions = self.partitions.max(other.partitions);
        self.put_bytes += other.put_bytes;
        self.get_bytes += other.get_bytes;
        self.spilled_rows += other.spilled_rows;
    }

    pub fn total_bytes(&self) -> u64 {
        self.put_bytes + self.get_bytes
    }
}

/// Spill object path for one partition of one exchange side. `side` is
/// `None` for aggregates, `Some("left"/"right")` for joins.
pub fn partition_path(prefix: &str, part: usize, side: Option<&str>) -> String {
    match side {
        Some(s) => format!("{prefix}p{part}.{s}.pxl"),
        None => format!("{prefix}p{part}.pxl"),
    }
}

/// The spill schema of an aggregate exchange: the group-key columns, then
/// per aggregate a `(primary, secondary)` state pair (see
/// [`aggregate::Accumulators::spill_columns`]), then the global group-order
/// column `__ord`.
pub fn agg_spill_schema(group_types: &[DataType], aggs: &[AggExpr]) -> SchemaRef {
    let mut fields: Vec<Field> = group_types
        .iter()
        .enumerate()
        .map(|(i, ty)| Field::nullable(format!("__g{i}"), *ty))
        .collect();
    for (i, agg) in aggs.iter().enumerate() {
        fields.push(Field::nullable(
            format!("__s{i}a"),
            AggState::spill_type(agg),
        ));
        fields.push(Field::nullable(format!("__s{i}b"), DataType::Int64));
    }
    fields.push(Field::required("__ord", DataType::Int64));
    Arc::new(Schema::new(fields))
}

/// The spill schema of one join side: the side's own columns plus `__ord`,
/// the row's global index on that side.
pub fn join_spill_schema(side: &SchemaRef) -> SchemaRef {
    let mut fields = side.fields().to_vec();
    fields.push(Field::required("__ord", DataType::Int64));
    Arc::new(Schema::new(fields))
}

fn group_types(group_exprs: &[BoundExpr]) -> Vec<DataType> {
    group_exprs.iter().map(|g| g.data_type()).collect()
}

/// Stage 0 of an aggregate exchange: partially aggregate `input` exactly
/// like the in-process path, then spill every group (one combined row) into
/// the partition its interned key's hash picks. All `partitions` files are
/// always written — an empty partition is a valid zero-row Pixels object,
/// so stage 1 never distinguishes "empty" from "missing".
pub fn write_agg_partitions(
    input: &[RecordBatch],
    group_exprs: &[BoundExpr],
    aggs: &[AggExpr],
    parallelism: usize,
    spill_store: &dyn ObjectStore,
    prefix: &str,
    partitions: usize,
) -> Result<ExchangeStats> {
    let acc = aggregate::merged_partial(input, group_exprs, aggs, parallelism)?;
    let gt = group_types(group_exprs);
    let schema = agg_spill_schema(&gt, aggs);
    let groups = acc.table.len();

    // Route each group by the hash its key was interned under — of the
    // same bytes on every stage-0 attempt, so routing is deterministic.
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); partitions];
    for gi in 0..groups {
        members[partition_of(acc.table.hash(gi), partitions)].push(gi);
    }

    // Every group's spill row, as columns; each partition gathers its own.
    let state_types: Vec<DataType> = (schema.fields()[gt.len()..])
        .iter()
        .map(|f| f.data_type)
        .collect();
    let mut columns = acc.keys.columns()?;
    columns.extend(acc.accs.spill_columns(&state_types)?);
    columns.push(Column::new(ColumnData::Int64((0..groups as i64).collect())));
    let all = RecordBatch::try_new(schema.clone(), columns)?;

    let mut stats = ExchangeStats {
        partitions: partitions as u64,
        ..ExchangeStats::default()
    };
    for (part, rows) in members.iter().enumerate() {
        let batch = all.gather(rows)?;
        let path = partition_path(prefix, part, None);
        stats.put_bytes += materialize(spill_store, &path, schema.clone(), &[batch])?;
        stats.spilled_rows += rows.len() as u64;
    }
    Ok(stats)
}

/// Read one spill object through a scratch context (metrics drained into
/// `get_bytes`, never billed) and return its batches.
fn read_spill(
    spill_store: &ObjectStoreRef,
    path: &str,
    schema: &SchemaRef,
    stats: &mut ExchangeStats,
) -> Result<Vec<RecordBatch>> {
    let scratch = ExecContext::new(spill_store.clone());
    let scan = PhysicalPlan::MaterializedScan {
        path: path.to_string(),
        schema: schema.clone(),
    };
    let batches = execute(&scan, &scratch)?;
    stats.get_bytes += scratch.metrics.snapshot().bytes_scanned;
    Ok(batches)
}

/// Stage 1 of an aggregate exchange: union the disjoint partitions, restore
/// global group order via `__ord`, and finish the states. The output is
/// bit-identical to [`aggregate::execute_aggregate`] over the same input —
/// including the one default row of a global aggregate over zero rows.
pub fn read_agg_partitions(
    spill_store: &ObjectStoreRef,
    prefix: &str,
    partitions: usize,
    group_exprs: &[BoundExpr],
    aggs: &[AggExpr],
    output_schema: &SchemaRef,
) -> Result<(Vec<RecordBatch>, ExchangeStats)> {
    let gt = group_types(group_exprs);
    let schema = agg_spill_schema(&gt, aggs);
    let mut stats = ExchangeStats {
        partitions: partitions as u64,
        ..ExchangeStats::default()
    };
    let mut batches = Vec::new();
    for part in 0..partitions {
        let path = partition_path(prefix, part, None);
        batches.extend(read_spill(spill_store, &path, &schema, &mut stats)?);
    }
    let all = match batches.as_slice() {
        [] => RecordBatch::empty(schema.clone()),
        _ => RecordBatch::concat(&batches)?,
    };
    // Partitions hold disjoint key sets, so ords are unique; one gather in
    // ord order restores the exact global first-appearance order of stage 0.
    let ords = ord_values(all.column(schema.len() - 1))?;
    let mut order: Vec<usize> = (0..ords.len()).collect();
    order.sort_unstable_by_key(|&row| ords[row]);
    let sorted = all.gather(&order)?;
    let (keys, states) = sorted.columns()[..schema.len() - 1].split_at(gt.len());
    let out = aggregate::finish_spilled(
        keys.to_vec(),
        states,
        sorted.num_rows(),
        aggs,
        output_schema,
    )?;
    Ok((out, stats))
}

/// Which side of a join exchange a spill belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinSide {
    Left,
    Right,
}

impl JoinSide {
    pub fn label(self) -> &'static str {
        match self {
            JoinSide::Left => "left",
            JoinSide::Right => "right",
        }
    }
}

/// Stage 0 of one join side: hash-partition the side's rows by their
/// encoded join keys and spill each partition with a `__ord` column holding
/// the row's global index on that side. Both sides' keys are given, since
/// they are encoded alike. Rows with NULL keys route deterministically too
/// (the encoding carries the null bitmap); they can never match, but outer
/// joins still emit them.
#[allow(clippy::too_many_arguments)]
pub fn write_join_partitions(
    side_batches: &[RecordBatch],
    side_schema: &SchemaRef,
    left_keys: &[BoundExpr],
    right_keys: &[BoundExpr],
    side: JoinSide,
    spill_store: &dyn ObjectStore,
    prefix: &str,
    partitions: usize,
) -> Result<ExchangeStats> {
    let schema = join_spill_schema(side_schema);
    let all = coalesce(side_batches)?;
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); partitions];
    if let Some(batch) = all.as_deref() {
        let keys = match side {
            JoinSide::Left => left_keys,
            JoinSide::Right => right_keys,
        };
        let key_cols: Vec<Cow<Column>> = keys
            .iter()
            .map(|k| evaluate_ref(k, batch))
            .collect::<Result<_>>()?;
        let enc = join_encoder(left_keys, right_keys);
        let mut encoded = EncodedKeys::default();
        for rows in key_chunks(0..batch.num_rows()) {
            enc.encode(&key_cols, rows.clone(), &mut encoded);
            for (key, row) in encoded.iter().zip(rows) {
                members[partition_of(hash_key(key), partitions)].push(row);
            }
        }
    }

    let mut stats = ExchangeStats {
        partitions: partitions as u64,
        ..ExchangeStats::default()
    };
    for (part, rows) in members.iter().enumerate() {
        let mut columns: Vec<Column> = match all.as_deref() {
            Some(batch) => batch.gather(rows)?.columns().to_vec(),
            None => side_schema
                .fields()
                .iter()
                .map(|f| Column::nulls(f.data_type, 0))
                .collect(),
        };
        let mut ord = ColumnBuilder::with_capacity(DataType::Int64, rows.len());
        for &r in rows {
            ord.push(&Value::Int64(r as i64))?;
        }
        columns.push(ord.finish());
        let batch = RecordBatch::try_new(schema.clone(), columns)?;
        let path = partition_path(prefix, part, Some(side.label()));
        stats.put_bytes += materialize(spill_store, &path, schema.clone(), &[batch])?;
        stats.spilled_rows += rows.len() as u64;
    }
    Ok(stats)
}

/// The values of a spilled `__ord` column: `Int64`, never NULL.
fn ord_values(col: &Column) -> Result<&[i64]> {
    match col.data() {
        ColumnData::Int64(ords) if col.null_count() == 0 => Ok(ords),
        _ => Err(Error::Exec("corrupt spill __ord column".into())),
    }
}

/// Split a spilled join-side partition back into its data batch and the
/// `__ord` origin indices.
fn strip_ord(
    batches: Vec<RecordBatch>,
    side_schema: &SchemaRef,
) -> Result<(Option<RecordBatch>, Vec<i64>)> {
    let Some(all) = coalesce(&batches)?.map(Cow::into_owned) else {
        return Ok((None, Vec::new()));
    };
    let width = side_schema.fields().len();
    let ords = ord_values(all.column(width))?.to_vec();
    let data = RecordBatch::try_new(side_schema.clone(), all.columns()[..width].to_vec())?;
    Ok((
        if data.num_rows() > 0 {
            Some(data)
        } else {
            None
        },
        ords,
    ))
}

/// Stage 1 of a join exchange: join each partition pair with the shared
/// equi-join index core, then restore the exact single-stage output order.
///
/// Per partition the local match indices map back through `__ord` to global
/// `(left_row, right_row)` origins. The single-stage order is: probe rows
/// in input order with matches in build order, then unmatched right-outer
/// rows as a tail in build order — which is exactly the sort by
/// `(is_right_tail, left_ord, right_ord)` over the union of partitions
/// (matches for one probe row never span partitions).
#[allow(clippy::too_many_arguments)]
pub fn read_join_partitions(
    spill_store: &ObjectStoreRef,
    prefix: &str,
    partitions: usize,
    join_type: JoinType,
    left_keys: &[BoundExpr],
    right_keys: &[BoundExpr],
    residual: Option<&BoundExpr>,
    output_schema: &SchemaRef,
    left_schema: &SchemaRef,
    right_schema: &SchemaRef,
    batch_size: usize,
) -> Result<(Vec<RecordBatch>, ExchangeStats)> {
    let left_spill = join_spill_schema(left_schema);
    let right_spill = join_spill_schema(right_schema);
    let left_width = left_schema.fields().len();
    let mut stats = ExchangeStats {
        partitions: partitions as u64,
        ..ExchangeStats::default()
    };

    let mut parts: Vec<RecordBatch> = Vec::with_capacity(partitions);
    // (is_right_tail, left_ord, right_ord) per output row, across partitions.
    let mut order: Vec<(bool, i64, i64)> = Vec::new();
    for part in 0..partitions {
        let lb = read_spill(
            spill_store,
            &partition_path(prefix, part, Some("left")),
            &left_spill,
            &mut stats,
        )?;
        let rb = read_spill(
            spill_store,
            &partition_path(prefix, part, Some("right")),
            &right_spill,
            &mut stats,
        )?;
        let (left, lord) = strip_ord(lb, left_schema)?;
        let (right, rord) = strip_ord(rb, right_schema)?;
        let mut build = JoinBuild::new(right.map(Cow::Owned), right_keys, left_keys)?;
        let (fl, fr) = build.probe(
            left.as_ref(),
            join_type,
            residual,
            output_schema,
            left_width,
        )?;
        for (&l, &r) in fl.iter().zip(&fr) {
            let gl = if l < 0 { -1 } else { lord[l as usize] };
            let gr = if r < 0 { -1 } else { rord[r as usize] };
            order.push((l < 0, gl, gr));
        }
        parts.push(build.assemble(output_schema, left_width, left.as_ref(), &fl, &fr)?);
    }
    let out = in_origin_order(&RecordBatch::concat(&parts)?, &order, batch_size)?;
    Ok((out, stats))
}

/// The rows of a stage-1 join's output, `order[i]` being row `i`'s
/// `(is_right_tail, left_ord, right_ord)`, sorted into the single-stage
/// order and cut into `batch_size` batches like the in-process join's.
fn in_origin_order(
    all: &RecordBatch,
    order: &[(bool, i64, i64)],
    batch_size: usize,
) -> Result<Vec<RecordBatch>> {
    let mut perm: Vec<usize> = (0..order.len()).collect();
    perm.sort_unstable_by_key(|&i| order[i]);
    let chunk = batch_size.max(1);
    perm.chunks(chunk).map(|idx| all.gather(idx)).collect()
}

/// Stage 1 of a *broadcast* join: the probe (left) side never crossed the
/// exchange — this worker executed it directly and holds `probe_batches` in
/// memory — while the small build (right) side was spilled whole as a single
/// partition by stage 0. Reads the build spill back, joins, and restores the
/// exact single-stage output order (probe rows in input order with matches
/// in build order, then any right-outer tail in build order).
///
/// Output is bit-identical to the single-stage join over the same inputs,
/// same batch boundaries included.
#[allow(clippy::too_many_arguments)]
pub fn read_broadcast_join(
    spill_store: &ObjectStoreRef,
    prefix: &str,
    probe_batches: &[RecordBatch],
    join_type: JoinType,
    left_keys: &[BoundExpr],
    right_keys: &[BoundExpr],
    residual: Option<&BoundExpr>,
    output_schema: &SchemaRef,
    left_schema: &SchemaRef,
    right_schema: &SchemaRef,
    batch_size: usize,
) -> Result<(Vec<RecordBatch>, ExchangeStats)> {
    let right_spill = join_spill_schema(right_schema);
    let left_width = left_schema.fields().len();
    let mut stats = ExchangeStats {
        partitions: 1,
        ..ExchangeStats::default()
    };
    let rb = read_spill(
        spill_store,
        &partition_path(prefix, 0, Some("right")),
        &right_spill,
        &mut stats,
    )?;
    let (right, rord) = strip_ord(rb, right_schema)?;
    let mut build = JoinBuild::new(right.map(Cow::Owned), right_keys, left_keys)?;
    let left = coalesce(probe_batches)?;
    let (fl, fr) = build.probe(
        left.as_deref(),
        join_type,
        residual,
        output_schema,
        left_width,
    )?;
    // A single-partition spill preserves build-row order (`rord` is the
    // identity), but sort through `__ord` anyway so the order contract never
    // depends on that detail.
    let mut order: Vec<(bool, i64, i64)> = Vec::with_capacity(fl.len());
    for (&l, &r) in fl.iter().zip(&fr) {
        let gr = if r < 0 { -1 } else { rord[r as usize] };
        order.push((l < 0, l.max(-1), gr));
    }
    let all = build.assemble(output_schema, left_width, left.as_deref(), &fl, &fr)?;
    Ok((in_origin_order(&all, &order, batch_size)?, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::execute_aggregate;
    use crate::join::execute_join;
    use pixels_storage::InMemoryObjectStore;

    fn batch(ids: &[i64], tags: &[&str]) -> RecordBatch {
        let schema = Arc::new(Schema::new(vec![
            Field::required("id", DataType::Int64),
            Field::required("tag", DataType::Utf8),
        ]));
        let mut idb = ColumnBuilder::with_capacity(DataType::Int64, ids.len());
        let mut tagb = ColumnBuilder::with_capacity(DataType::Utf8, tags.len());
        for &i in ids {
            idb.push(&Value::Int64(i)).unwrap();
        }
        for &t in tags {
            tagb.push(&Value::Utf8(t.to_string())).unwrap();
        }
        RecordBatch::try_new(schema, vec![idb.finish(), tagb.finish()]).unwrap()
    }

    fn col_expr(index: usize, name: &str, ty: DataType) -> BoundExpr {
        BoundExpr::ColumnRef {
            index,
            data_type: ty,
            name: name.to_string(),
        }
    }

    fn count_agg() -> AggExpr {
        AggExpr {
            func: pixels_planner::AggFunc::Count,
            arg: None,
            distinct: false,
            output_type: DataType::Int64,
        }
    }

    fn agg_roundtrip(partitions: usize, input: &[RecordBatch]) {
        let group = vec![col_expr(1, "tag", DataType::Utf8)];
        let aggs = vec![count_agg()];
        let out_schema = Arc::new(Schema::new(vec![
            Field::nullable("tag", DataType::Utf8),
            Field::required("n", DataType::Int64),
        ]));
        let direct = execute_aggregate(input, &group, &aggs, &out_schema, 2).unwrap();

        let store = InMemoryObjectStore::shared();
        let stats = write_agg_partitions(input, &group, &aggs, 2, store.as_ref(), "x/", partitions)
            .unwrap();
        assert_eq!(stats.partitions, partitions as u64);
        let (shuffled, read_stats) =
            read_agg_partitions(&store, "x/", partitions, &group, &aggs, &out_schema).unwrap();
        assert_eq!(direct, shuffled, "partitioned aggregate must be identical");
        assert!(read_stats.get_bytes > 0);
        assert!(stats.put_bytes > 0);
    }

    #[test]
    fn partitioned_aggregate_matches_direct_execution() {
        let input = vec![
            batch(&[1, 2, 3, 4], &["a", "b", "a", "c"]),
            batch(&[5, 6], &["b", "d"]),
        ];
        for partitions in [1, 2, 3, 8] {
            agg_roundtrip(partitions, &input);
        }
    }

    #[test]
    fn empty_input_and_skewed_partitions_roundtrip() {
        // Zero input rows: every partition file is a valid empty object.
        agg_roundtrip(4, &[batch(&[], &[])]);
        // One group (all rows hash to one partition): the rest stay empty.
        agg_roundtrip(8, &[batch(&[1, 2, 3], &["only", "only", "only"])]);
    }

    #[test]
    fn partitioned_join_matches_direct_execution() {
        let left = vec![batch(&[1, 2, 3, 4, 7], &["a", "b", "a", "c", "x"])];
        let right = vec![batch(&[10, 20, 30], &["a", "b", "e"])];
        let lkey = vec![col_expr(1, "tag", DataType::Utf8)];
        let rkey = vec![col_expr(1, "tag", DataType::Utf8)];
        let lschema = left[0].schema().clone();
        let rschema = right[0].schema().clone();
        let out_schema = Arc::new(Schema::new(vec![
            Field::nullable("l_id", DataType::Int64),
            Field::nullable("l_tag", DataType::Utf8),
            Field::nullable("r_id", DataType::Int64),
            Field::nullable("r_tag", DataType::Utf8),
        ]));
        for join_type in [JoinType::Inner, JoinType::Left, JoinType::Right] {
            let direct = execute_join(
                &left,
                &right,
                join_type,
                &lkey,
                &rkey,
                None,
                &out_schema,
                2,
                3,
            )
            .unwrap();
            for partitions in [1, 2, 5] {
                let store = InMemoryObjectStore::shared();
                let ls = write_join_partitions(
                    &left,
                    &lschema,
                    &lkey,
                    &rkey,
                    JoinSide::Left,
                    store.as_ref(),
                    "j/",
                    partitions,
                )
                .unwrap();
                let rs = write_join_partitions(
                    &right,
                    &rschema,
                    &lkey,
                    &rkey,
                    JoinSide::Right,
                    store.as_ref(),
                    "j/",
                    partitions,
                )
                .unwrap();
                assert_eq!(ls.spilled_rows, 5);
                assert_eq!(rs.spilled_rows, 3);
                let (shuffled, _) = read_join_partitions(
                    &store,
                    "j/",
                    partitions,
                    join_type,
                    &lkey,
                    &rkey,
                    None,
                    &out_schema,
                    &lschema,
                    &rschema,
                    3,
                )
                .unwrap();
                assert_eq!(
                    direct, shuffled,
                    "{join_type:?} with {partitions} partitions must be identical"
                );
            }
        }
    }

    #[test]
    fn broadcast_join_matches_direct_execution() {
        let left = vec![batch(&[1, 2, 3, 4, 7], &["a", "b", "a", "c", "x"])];
        let right = vec![batch(&[10, 20, 30], &["a", "b", "e"])];
        let lkey = vec![col_expr(1, "tag", DataType::Utf8)];
        let rkey = vec![col_expr(1, "tag", DataType::Utf8)];
        let lschema = left[0].schema().clone();
        let rschema = right[0].schema().clone();
        let out_schema = Arc::new(Schema::new(vec![
            Field::nullable("l_id", DataType::Int64),
            Field::nullable("l_tag", DataType::Utf8),
            Field::nullable("r_id", DataType::Int64),
            Field::nullable("r_tag", DataType::Utf8),
        ]));
        for join_type in [JoinType::Inner, JoinType::Left, JoinType::Right] {
            let direct = execute_join(
                &left,
                &right,
                join_type,
                &lkey,
                &rkey,
                None,
                &out_schema,
                2,
                3,
            )
            .unwrap();
            let store = InMemoryObjectStore::shared();
            let rs = write_join_partitions(
                &right,
                &rschema,
                &lkey,
                &rkey,
                JoinSide::Right,
                store.as_ref(),
                "b/",
                1,
            )
            .unwrap();
            assert_eq!(rs.partitions, 1);
            assert_eq!(rs.spilled_rows, 3);
            let (joined, stats) = read_broadcast_join(
                &store,
                "b/",
                &left,
                join_type,
                &lkey,
                &rkey,
                None,
                &out_schema,
                &lschema,
                &rschema,
                3,
            )
            .unwrap();
            assert_eq!(direct, joined, "{join_type:?} broadcast must be identical");
            assert!(stats.get_bytes > 0, "build spill read is exchange traffic");
        }
    }
}
