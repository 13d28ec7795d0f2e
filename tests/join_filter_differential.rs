//! A hash join that tells its probe scan the build side's keys, against the
//! scalar oracle that tells it nothing.
//!
//! `engine::execute` runs the build side first and hands a `Scan` probe child
//! a `KeyFilter` (per key column a range, for a single small integer key the
//! exact set), which the scan applies as its last conjunct: rows that cannot
//! match are dropped before their other columns decode. `scalar::execute`
//! scans, decodes and joins everything. The two must agree on rows, row
//! order, float bit patterns, error text — and on `bytes_scanned`,
//! `rows_scanned` and row groups read, because the filter prunes no fetch.
//!
//! The generator covers join types, residuals, scan filters (one of which
//! fails on a row the key filter would have dropped), NULL keys on either
//! side, empty and all-NULL build sides, duplicate build keys, mixed-width
//! and float keys, arbitrary `i64` keys with the ends of `i64` and ±2^53 ± 1
//! among them, clustered (RLE), shuffled (plain) and dictionary key chunks,
//! two-column keys, and parallelism 1/2/4.

use pixelsdb::catalog::TableStats;
use pixelsdb::common::{DataType, Field, RecordBatch, Schema, SchemaRef, Value};
use pixelsdb::exec::{execute, scalar, ExecContext};
use pixelsdb::planner::{AggExpr, AggFunc, BoundExpr, Plan};
use pixelsdb::sql::ast::{BinaryOp, JoinType};
use pixelsdb::storage::{InMemoryObjectStore, ObjectStoreRef, PixelsWriter};
use proptest::prelude::*;
use std::sync::Arc;

const P53: i64 = 1 << 53;

/// Integers where an `f64` merges distinct keys (±2^53 ± 1, the ends of
/// `i64`) or changes nothing, drawn often enough for keys to meet.
const EXTREMES: [i64; 13] = [
    i64::MIN,
    i64::MIN + 1,
    -P53 - 1,
    -P53,
    -P53 + 1,
    -1,
    7,
    P53 - 1,
    P53,
    P53 + 1,
    P53 + 2,
    i64::MAX - 1,
    i64::MAX,
];

fn pick<T: Clone>(runner: &mut TestRunner, from: &[T]) -> T {
    from[runner.below(from.len() as u64) as usize].clone()
}

// ---------------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------------

/// Probe table file: `pad, k, k2, x, f`; the scan projects `pad` away, so a
/// projected column's position is not its position in the file.
/// Build table file: `bk, bk2, y, g`.
const PROBE_PROJECTION: [usize; 4] = [1, 2, 3, 4];
const K: usize = 0;
const K2: usize = 1;
const X: usize = 2;
const PROBE_WIDTH: usize = 4;
const Y: usize = PROBE_WIDTH + 2;

fn schema(fields: &[(&str, DataType)]) -> SchemaRef {
    Arc::new(Schema::new(
        (fields.iter())
            .map(|&(name, ty)| Field::nullable(name, ty))
            .collect(),
    ))
}

fn key_value(ty: DataType, v: i64) -> Value {
    match ty {
        DataType::Int32 => Value::Int32(v as i32),
        DataType::Int64 => Value::Int64(v),
        DataType::Float64 => Value::Float64(v as f64),
        DataType::Date => Value::Date(v as i32),
        DataType::Timestamp => Value::Timestamp(v),
        other => panic!("not a key type: {other}"),
    }
}

fn write(store: &ObjectStoreRef, path: &str, schema: &SchemaRef, rows: &[Vec<Value>], rg: usize) {
    let mut w = PixelsWriter::with_row_group_rows(store.as_ref(), path, schema.clone(), rg);
    if !rows.is_empty() {
        w.write_batch(&RecordBatch::from_rows(schema.clone(), rows).unwrap())
            .unwrap();
    }
    w.finish().unwrap();
}

/// Where the key values of a case come from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Keys {
    /// 0..24: an exact set, and dense enough to be a full one at times.
    Dense,
    /// Multiples of a million: a range wider than any bitmap.
    Wide,
    /// Mostly [`EXTREMES`], else any `i64`.
    Extreme,
}

impl Keys {
    fn draw(self, runner: &mut TestRunner, ty: DataType) -> i64 {
        let v = match self {
            Keys::Dense => runner.below(24) as i64,
            Keys::Wide => (runner.below(40) as i64 - 20) * 1_000_000,
            Keys::Extreme if runner.below(4) == 0 => runner.next_u64() as i64,
            Keys::Extreme => pick(runner, &EXTREMES),
        };
        // Narrow types take what fits, exactly.
        match ty {
            DataType::Int32 | DataType::Date => v.clamp(i32::MIN.into(), i32::MAX.into()),
            _ => v,
        }
    }
}

/// One generated join: both tables written to a store, and the plan.
struct Case {
    store: ObjectStoreRef,
    plan: Plan,
    /// Whether the engine may hand the probe scan a key filter, and the
    /// build side offers one.
    filtered: bool,
    probe_rows: usize,
    parallelism: usize,
    what: String,
}

impl std::fmt::Debug for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.what)
    }
}

#[derive(Debug, Clone)]
struct Cases;

impl Strategy for Cases {
    type Value = Case;

    fn new_value(&self, runner: &mut TestRunner) -> Case {
        use DataType::*;
        let (probe_ty, build_ty) = pick(
            runner,
            &[
                (Int64, Int64),
                (Int32, Int64),
                (Int64, Int32),
                (Int32, Int32),
                (Int64, Float64),
                (Date, Date),
                (Timestamp, Timestamp),
            ],
        );
        let keys = pick(
            runner,
            &[Keys::Dense, Keys::Dense, Keys::Wide, Keys::Extreme],
        );
        let two_columns = runner.below(4) == 0;
        let join_type = pick(runner, &[JoinType::Inner, JoinType::Left, JoinType::Right]);
        let with_residual = runner.below(3) == 0;
        let probe_shape = pick(runner, &["scan", "scan", "scan", "project"]);
        let scan_filter = pick(
            runner,
            &[
                "none",
                "none",
                "x > 3",
                "x <> 0 AND 100 / x > 1",
                "100 / x > 1",
            ],
        );
        let parallelism = pick(runner, &[1usize, 2, 4]);

        // Probe side: clustered on its key (runs, so RLE) or shuffled (plain).
        let probe_rows = pick(runner, &[0usize, 1, 9, 40, 150]);
        let clustered = runner.below(2) == 0;
        let probe_nulls = pick(runner, &[5u64, 1_000_000]);
        let mut probe_keys: Vec<i64> = (0..probe_rows)
            .map(|_| keys.draw(runner, probe_ty))
            .collect();
        if clustered {
            probe_keys.sort_unstable();
        }
        let probe_schema = schema(&[
            ("pad", Int64),
            ("k", probe_ty),
            ("k2", Utf8),
            ("x", Int64),
            ("f", Float64),
        ]);
        let probe: Vec<Vec<Value>> = (probe_keys.iter().enumerate())
            .map(|(i, &k)| {
                let key = if runner.below(probe_nulls) == 0 {
                    Value::Null
                } else {
                    key_value(probe_ty, k)
                };
                vec![
                    Value::Int64(i as i64),
                    key,
                    // Three values over many rows: a dictionary chunk.
                    pick(
                        runner,
                        &[
                            Value::Utf8("a".into()),
                            Value::Utf8("b".into()),
                            Value::Null,
                        ],
                    ),
                    pick(
                        runner,
                        &[
                            Value::Int64(0),
                            Value::Int64(7),
                            Value::Int64(50),
                            Value::Null,
                        ],
                    ),
                    Value::Float64(pick(runner, &[-0.0, 0.0, f64::NAN, 2.5])),
                ]
            })
            .collect();

        // Build side: empty, all-NULL keys, or a few keys with duplicates.
        let build_shape = pick(runner, &["keys", "keys", "keys", "empty", "all null"]);
        let build_rows = match build_shape {
            "empty" => 0,
            _ => pick(runner, &[1usize, 3, 12, 30]),
        };
        let build_schema = schema(&[
            ("bk", build_ty),
            ("bk2", Utf8),
            ("y", Int64),
            ("g", Float64),
        ]);
        let build: Vec<Vec<Value>> = (0..build_rows)
            .map(|i| {
                let key = if build_shape == "all null" || runner.below(8) == 0 {
                    Value::Null
                } else {
                    key_value(build_ty, keys.draw(runner, build_ty))
                };
                vec![
                    key,
                    pick(
                        runner,
                        &[
                            Value::Utf8("a".into()),
                            Value::Utf8("b".into()),
                            Value::Null,
                        ],
                    ),
                    Value::Int64(i as i64 % 9),
                    Value::Float64(pick(runner, &[-0.0, f64::NAN, 1.0])),
                ]
            })
            .collect();

        let store: ObjectStoreRef = InMemoryObjectStore::shared();
        write(
            &store,
            "probe.pxl",
            &probe_schema,
            &probe,
            pick(runner, &[8, 16, 64]),
        );
        write(&store, "build.pxl", &build_schema, &build, 16);

        // Plans.
        let col = |index: usize, ty: DataType| BoundExpr::column(index, ty, format!("c{index}"));
        let lit = |v: i64| BoundExpr::literal(Value::Int64(v));
        let binary =
            |left: BoundExpr, op: BinaryOp, right: BoundExpr, ty: DataType| BoundExpr::BinaryOp {
                left: Box::new(left),
                op,
                right: Box::new(right),
                data_type: ty,
            };
        let cmp = |l: BoundExpr, op: BinaryOp, r: BoundExpr| binary(l, op, r, Boolean);
        let x = || col(X, Int64);
        let quotient = || {
            cmp(
                binary(lit(100), BinaryOp::Divide, x(), Int64),
                BinaryOp::Gt,
                lit(1),
            )
        };
        let filters = match scan_filter {
            "none" => vec![],
            "x > 3" => vec![cmp(x(), BinaryOp::Gt, lit(3))],
            // The division fails on x = 0, which the first conjunct rejects.
            "x <> 0 AND 100 / x > 1" => vec![cmp(x(), BinaryOp::NotEq, lit(0)), quotient()],
            // Alone it fails on any row with x = 0 — also on one whose key is
            // in no build row, which a key filter applied first would hide.
            _ => vec![quotient()],
        };
        let probe_out = Arc::new(probe_schema.project(&PROBE_PROJECTION));
        let mut probe_plan = Plan::Scan {
            database: "d".into(),
            table: "probe".into(),
            paths: vec!["probe.pxl".into()],
            table_schema: probe_schema.clone(),
            stats: TableStats::default(),
            projection: PROBE_PROJECTION.to_vec(),
            filters,
            output_schema: probe_out.clone(),
        };
        if probe_shape == "project" {
            probe_plan = Plan::Project {
                input: Box::new(probe_plan),
                exprs: (probe_out.fields().iter().enumerate())
                    .map(|(i, f)| col(i, f.data_type))
                    .collect(),
                output_schema: probe_out.clone(),
            };
        }
        let build_plan = Plan::Scan {
            database: "d".into(),
            table: "build".into(),
            paths: vec!["build.pxl".into()],
            table_schema: build_schema.clone(),
            stats: TableStats::default(),
            projection: vec![0, 1, 2, 3],
            filters: vec![],
            output_schema: build_schema.clone(),
        };
        let (mut left_keys, mut right_keys) = (vec![col(K, probe_ty)], vec![col(0, build_ty)]);
        if two_columns {
            left_keys.push(col(K2, Utf8));
            right_keys.push(col(1, Utf8));
        }
        let output_schema = Arc::new(Schema::new(
            (probe_out.fields().iter())
                .chain(build_schema.fields())
                .cloned()
                .collect(),
        ));
        let plan = Plan::Join {
            left: Box::new(probe_plan),
            right: Box::new(build_plan),
            join_type,
            left_keys,
            right_keys,
            residual: with_residual.then(|| cmp(x(), BinaryOp::Lt, col(Y, Int64))),
            output_schema,
        };

        // A range exists for integer, date and timestamp keys of one class.
        let filtered = build_ty != Float64 && join_type != JoinType::Left && probe_shape == "scan";
        let what = format!(
            "{probe_ty} ⋈ {build_ty}, {keys:?} keys, {join_type:?}, probe {probe_shape} \
             ({probe_rows} rows, clustered {clustered}, filter {scan_filter}), build {build_shape} \
             ({build_rows} rows), two columns {two_columns}, residual {with_residual}, \
             p{parallelism}"
        );
        Case {
            store,
            plan,
            filtered,
            probe_rows,
            parallelism,
            what,
        }
    }
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

/// Rows in order, floats by bit pattern.
fn image(batches: &[RecordBatch]) -> Vec<Vec<String>> {
    (batches.iter())
        .flat_map(|b| b.to_rows())
        .map(|row| {
            (row.iter())
                .map(|v| match v {
                    Value::Float64(f) => format!("f64:{:016x}", f.to_bits()),
                    other => format!("{other:?}"),
                })
                .collect()
        })
        .collect()
}

/// What a run billed and read.
fn bill(ctx: &ExecContext) -> [u64; 4] {
    let m = ctx.metrics.snapshot();
    [
        m.bytes_scanned,
        m.rows_scanned,
        m.row_groups_read,
        m.row_groups_total,
    ]
}

/// Run `plan` on the engine and on the oracle; assert they agree; return the
/// engine's context.
fn assert_same(case: &Case) -> ExecContext {
    let engine = ExecContext::new(case.store.clone()).with_parallelism(case.parallelism);
    let oracle = ExecContext::new(case.store.clone()).with_parallelism(case.parallelism);
    let got = execute(&case.plan, &engine).map(|b| image(&b));
    let expect = scalar::execute(&case.plan, &oracle).map(|b| image(&b));
    match (&got, &expect) {
        (Ok(got), Ok(expect)) => {
            assert_eq!(got, expect, "rows: {}", case.what);
            assert_eq!(bill(&engine), bill(&oracle), "bill: {}", case.what);
        }
        // A failing morsel stops the others wherever they are, so what a
        // failed query had metered by then is not defined on either side.
        (Err(got), Err(expect)) => {
            assert_eq!(got.to_string(), expect.to_string(), "{}", case.what)
        }
        _ => panic!("{}: engine {got:?}, oracle {expect:?}", case.what),
    }
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1200))]

    #[test]
    fn filtered_probe_scans_match_the_unfiltered_oracle(case in Cases) {
        let engine = assert_same(&case);
        let telemetry = engine.metrics.pipeline_snapshot();
        if !case.filtered {
            // A left-outer join, a probe child that is not a scan, a key
            // without a range: provably no filter anywhere.
            prop_assert_eq!(telemetry.join_filter_rows, 0, "{}", case.what);
            prop_assert_eq!(telemetry.join_filter_dropped, 0, "{}", case.what);
        }
        prop_assert!(telemetry.join_filter_dropped <= telemetry.join_filter_rows);
        prop_assert!(telemetry.join_filter_rows <= case.probe_rows as u64);
    }
}

// ---------------------------------------------------------------------------
// Pinned cases
// ---------------------------------------------------------------------------

/// A two-table store and an inner join of `probe` (one Int64 key column,
/// one row group) with `build`, the probe side a bare scan or — so that the
/// engine can hand it no filter — a projection of one.
fn int64_join(probe: &[Option<i64>], build: &[Option<i64>], bare_scan: bool) -> Case {
    int64_join_as(probe, build, bare_scan, JoinType::Inner, None)
}

/// [`int64_join`] as a `join_type` join with a `residual` over the output
/// row `(k, bk)`.
fn int64_join_as(
    probe: &[Option<i64>],
    build: &[Option<i64>],
    bare_scan: bool,
    join_type: JoinType,
    residual: Option<BoundExpr>,
) -> Case {
    let one = schema(&[("k", DataType::Int64)]);
    let rows = |keys: &[Option<i64>]| -> Vec<Vec<Value>> {
        (keys.iter())
            .map(|k| vec![k.map_or(Value::Null, Value::Int64)])
            .collect()
    };
    let store: ObjectStoreRef = InMemoryObjectStore::shared();
    write(&store, "probe.pxl", &one, &rows(probe), 1024);
    write(&store, "build.pxl", &one, &rows(build), 1024);
    let scan = |table: &str| Plan::Scan {
        database: "d".into(),
        table: table.into(),
        paths: vec![format!("{table}.pxl")],
        table_schema: one.clone(),
        stats: TableStats::default(),
        projection: vec![0],
        filters: vec![],
        output_schema: one.clone(),
    };
    let key = || BoundExpr::column(0, DataType::Int64, "k");
    let mut left = scan("probe");
    if !bare_scan {
        left = Plan::Project {
            input: Box::new(left),
            exprs: vec![key()],
            output_schema: one.clone(),
        };
    }
    let plan = Plan::Join {
        left: Box::new(left),
        right: Box::new(scan("build")),
        join_type,
        left_keys: vec![key()],
        right_keys: vec![key()],
        residual,
        output_schema: schema(&[("k", DataType::Int64), ("bk", DataType::Int64)]),
    };
    let what = |keys: &[Option<i64>]| match keys.len() {
        0..=8 => format!("{keys:?}"),
        n => format!("[{:?}, {:?}, .. {n} keys]", keys[0], keys[1]),
    };
    Case {
        store,
        plan,
        filtered: bare_scan && join_type != JoinType::Left,
        probe_rows: probe.len(),
        parallelism: 1,
        what: format!("{} ⋈ {}, {join_type:?}", what(probe), what(build)),
    }
}

fn engine_rows(case: &Case) -> (Vec<Vec<String>>, ExecContext) {
    let ctx = ExecContext::new(case.store.clone()).with_parallelism(1);
    let rows = image(&execute(&case.plan, &ctx).unwrap());
    (rows, ctx)
}

/// Integer keys are exact at every magnitude: 2^53 + 1 neither joins 2^53,
/// with or without a key filter, nor shares its group or its DISTINCT row,
/// as in the oracle, whose keys are `Value`s.
#[test]
fn integer_keys_past_2_pow_53_join_group_and_distinct_exactly() {
    let probe = [
        Some(P53 + 1),
        Some(P53),
        Some(5),
        Some(-P53 - 1),
        None,
        Some(P53 + 1),
    ];
    let build = [Some(P53), Some(-P53), Some(6)];
    for bare_scan in [false, true] {
        let case = int64_join(&probe, &build, bare_scan);
        assert_same(&case);
        let (rows, ctx) = engine_rows(&case);
        assert_eq!(rows, [[format!("Int64({P53})"), format!("Int64({P53})")]]);
        // The filter is the range [-2^53, 2^53]: 5 and 2^53 pass it.
        let t = ctx.metrics.pipeline_snapshot();
        let dropped = if bare_scan { (6, 4) } else { (0, 0) };
        assert_eq!((t.join_filter_rows, t.join_filter_dropped), dropped);
    }
    let Plan::Join { left: scan, .. } = int64_join(&probe, &build, true).plan else {
        unreachable!("int64_join plans a hash join")
    };
    let count = AggExpr {
        func: AggFunc::Count,
        arg: None,
        distinct: false,
        output_type: DataType::Int64,
    };
    let group_by = Plan::Aggregate {
        input: scan.clone(),
        group_exprs: vec![BoundExpr::column(0, DataType::Int64, "k")],
        aggs: vec![count],
        output_schema: schema(&[("k", DataType::Int64), ("n", DataType::Int64)]),
    };
    let distinct = Plan::Distinct { input: scan };
    for (plan, width) in [(group_by, 2), (distinct, 1)] {
        let case = Case {
            plan,
            ..int64_join(&probe, &build, true)
        };
        assert_same(&case);
        let (rows, _) = engine_rows(&case);
        let keys: Vec<&str> = rows.iter().map(|r| r[0].as_str()).collect();
        let (above, at) = (format!("Int64({})", P53 + 1), format!("Int64({P53})"));
        let below = format!("Int64({})", -P53 - 1);
        assert_eq!(
            keys,
            [&above, &at, "Int64(5)", &below, "Null"],
            "{}",
            case.what
        );
        if width == 2 {
            assert_eq!(
                rows[0][1], "Int64(2)",
                "both rows of 2^53 + 1, and only they"
            );
        }
    }
}

/// What the telemetry says about the filters of simple joins: an exact set
/// drops every absent key and every NULL; a full set (every value of the
/// range present) is a range, and a morsel inside it is not tested at all.
#[test]
fn exact_sets_drop_absent_keys_and_full_ranges_cost_nothing() {
    let probe: Vec<Option<i64>> = (0..100).map(|i| (i % 10 != 9).then_some(i / 2)).collect();

    // Build keys {3, 10, 10, 40}: a bitmap over [3, 40].
    let sparse = int64_join(&probe, &[Some(3), Some(10), Some(10), Some(40), None], true);
    assert_same(&sparse);
    let (rows, ctx) = engine_rows(&sparse);
    let t = ctx.metrics.pipeline_snapshot();
    // Probe rows 6, 7 (key 3), 20, 21 (key 10, twice in the build side) and
    // 80, 81 (key 40) survive; the build scan produces its five rows.
    assert_eq!(rows.len(), 8);
    assert_eq!((t.join_filter_rows, t.join_filter_dropped), (100, 94));
    assert_eq!(ctx.metrics.snapshot().rows_produced, 6 + 5);

    // Build keys 0..=49, each present: the range [0, 49] can drop nothing of
    // the probe's values, which leaves its NULL keys.
    let full: Vec<Option<i64>> = (0..50).rev().map(Some).collect();
    let dense = int64_join(&probe, &full, true);
    assert_same(&dense);
    let (_, ctx) = engine_rows(&dense);
    let t = ctx.metrics.pipeline_snapshot();
    assert_eq!(
        (t.join_filter_rows, t.join_filter_dropped),
        (100, 10),
        "only the NULL keys"
    );

    // The same without NULLs in the probe: the filter is skipped outright.
    let valid: Vec<Option<i64>> = (0..100).map(|i| Some(i / 2)).collect();
    let skipped = int64_join(&valid, &full, true);
    assert_same(&skipped);
    let (_, ctx) = engine_rows(&skipped);
    let t = ctx.metrics.pipeline_snapshot();
    assert_eq!((t.join_filter_rows, t.join_filter_dropped), (100, 0));

    // An empty build side: every probe row is dropped, and billed.
    let empty = int64_join(&valid, &[], true);
    let engine = assert_same(&empty);
    let t = engine.metrics.pipeline_snapshot();
    assert_eq!((t.join_filter_rows, t.join_filter_dropped), (100, 100));
    assert_eq!(engine.metrics.snapshot().rows_scanned, 100);
}

/// The edges of the join's table by position (one INTEGER key pair, build
/// values over at most 2^22 values): the widest span it holds and one value
/// wider, which is hashed; a full range, whose entry is `key - min`; empty
/// and all-NULL build sides. Every join type, with and without a residual,
/// against the oracle — and what the probe scan's filter drops says which
/// table the join took.
#[test]
fn dense_join_table_edges_match_the_oracle_in_every_join_type() {
    const SPAN: i64 = 1 << 22;
    let lo = -SPAN / 2 - 3;
    // Probe keys: the range's ends, just outside them, an absent key inside,
    // a key beyond the wider build side, NULLs, and repeats.
    let probe: Vec<Option<i64>> = [
        Some(lo),
        Some(lo - 1),
        Some(lo + SPAN - 1),
        Some(lo + SPAN),
        Some(lo + 5),
        None,
        Some(lo + 1),
        Some(lo + SPAN + 1),
        Some(lo),
        Some(0),
        None,
        Some(lo + SPAN - 1),
    ]
    .to_vec();
    // (what, build keys, probe rows the inner join's filter drops)
    let edges: [(&str, Vec<Option<i64>>, u64); 5] = [
        (
            "span of exactly 2^22",
            vec![Some(lo + SPAN - 1), Some(lo), Some(lo + 1), None, Some(lo)],
            // All but lo (twice), lo + 1 and lo + SPAN - 1 (twice).
            7,
        ),
        (
            "span of 2^22 + 1, hashed",
            vec![Some(lo + SPAN), Some(lo), Some(lo + 1), None, Some(lo)],
            // Only lo - 1 and lo + SPAN + 1, outside [lo, lo + SPAN], and
            // the NULLs.
            4,
        ),
        (
            "full range",
            (0..40)
                .rev()
                .chain(0..40)
                .map(|v| Some(lo + v % 7))
                .collect(),
            // Inside [lo, lo + 6]: lo twice, lo + 1 and lo + 5.
            8,
        ),
        ("empty build side", vec![], 12),
        ("all-NULL build side", vec![None, None, None], 12),
    ];
    let residuals: [(&str, Option<BoundExpr>); 2] = [
        ("no residual", None),
        (
            "k <> lo + 1",
            Some(BoundExpr::BinaryOp {
                left: Box::new(BoundExpr::column(1, DataType::Int64, "bk")),
                op: BinaryOp::NotEq,
                right: Box::new(BoundExpr::literal(Value::Int64(lo + 1))),
                data_type: DataType::Boolean,
            }),
        ),
    ];
    for (edge, build, dropped) in &edges {
        for join_type in [JoinType::Inner, JoinType::Left, JoinType::Right] {
            for (residual_is, residual) in &residuals {
                let case = int64_join_as(&probe, build, true, join_type, residual.clone());
                let engine = assert_same(&case);
                let t = engine.metrics.pipeline_snapshot();
                let expect = match join_type {
                    JoinType::Left => (0, 0),
                    _ => (probe.len() as u64, *dropped),
                };
                assert_eq!(
                    (t.join_filter_rows, t.join_filter_dropped),
                    expect,
                    "{edge}, {join_type:?}, {residual_is}"
                );
            }
        }
    }
}
