//! Differential tests for two-stage exchange (shuffle) CF plans.
//!
//! A multi-stage plan hash-partitions intermediate state through the object
//! store between CF stages. That must be invisible everywhere a user can
//! look: every TPC-H join/agg template that shuffles produces the same rows
//! (and, under ORDER BY, the same order) as the single-stage CF path, the
//! direct VM path, and the row-at-a-time scalar oracle — and bills the same
//! bytes, because exchange traffic is provider-side. Edge cases (empty
//! partitions, single-group skew, partition count 1) get dedicated tests,
//! and every run asserts the spill namespace is left empty. So do integer
//! keys that an `f64` would merge, and joins of mixed key types. Aggregate
//! lists whose accumulators share a running sum, must not share one, keep
//! cells or overflow cross the exchange bit for bit, and an aggregate cut
//! directly over a scan is the single-stage CF result to the bit: stage 0
//! folds the scan's morsels as the single-stage aggregate does.

use pixels_bench::on_cf;
use pixelsdb::catalog::{Catalog, CreateTable};
use pixelsdb::common::{DataType, Field, RecordBatch, Schema, Value};
use pixelsdb::exec::{exchange, execute, scalar, ExecContext};
use pixelsdb::obs::MetricsRegistry;
use pixelsdb::planner::{plan_query, plan_shuffle, AggExpr, AggFunc, BoundExpr, Plan, ShuffleKind};
use pixelsdb::storage::{
    InMemoryObjectStore, ObjectStore, ObjectStoreRef, PixelsReader, PixelsWriter,
};
use pixelsdb::turbo::{Decision, EngineConfig, ExchangeStats, TurboEngine};
use pixelsdb::workload::{all_queries, load_tpch, TpchConfig};
use std::cmp::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The TPC-H scale of most tests here.
const SCALE: f64 = 0.001;

/// TPC-H at `scale` in database `tpch`, and the tables of [`load_keys`] in
/// database `keys`.
fn fixture(scale: f64) -> (Arc<Catalog>, ObjectStoreRef) {
    let catalog = Catalog::shared();
    let store: ObjectStoreRef = InMemoryObjectStore::shared();
    load_tpch(
        &catalog,
        store.as_ref(),
        "tpch",
        &TpchConfig {
            scale,
            seed: 11,
            row_group_rows: 512,
            files_per_table: 2,
        },
    )
    .unwrap();
    load_keys(&catalog, store.as_ref());
    (catalog, store)
}

/// Integer keys where an `f64` merges distinct values (±2^53 ± 1, the ends
/// of `i64`), the ends of `i32`, and arbitrary `i64`s.
fn key_values() -> Vec<i64> {
    let p53 = 1i64 << 53;
    let mut keys = vec![
        i64::MIN,
        i64::MIN + 1,
        -p53 - 1,
        -p53,
        -p53 + 1,
        -1,
        7,
        i32::MIN.into(),
        i32::MAX.into(),
        p53 - 1,
        p53,
        p53 + 1,
        p53 + 2,
        i64::MAX - 1,
        i64::MAX,
    ];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..9 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        keys.push(x as i64);
    }
    keys
}

/// Database `keys`: probe table `p(k, k32, v)` holds every key of
/// [`key_values`], every third one twice, and a NULL key (`k32` is `k`
/// clamped to `i32`); build table `b(k, f, w)` every other key, as `Int64`
/// and as `Float64`, an arbitrary key of its own and a NULL.
fn load_keys(catalog: &Catalog, store: &dyn ObjectStore) {
    let keys = key_values();
    let int = |k: i64| Value::Int64(k);
    let narrow = |k: i64| Value::Int32(k.clamp(i32::MIN.into(), i32::MAX.into()) as i32);
    let mut p: Vec<Vec<Value>> = (keys.iter().enumerate())
        .flat_map(|(i, &k)| {
            vec![vec![int(k), narrow(k), int(i as i64)]; 1 + usize::from(i % 3 == 0)]
        })
        .collect();
    p.push(vec![Value::Null, Value::Null, int(-1)]);
    let mut b: Vec<Vec<Value>> = (keys.iter().enumerate().step_by(2))
        .map(|(i, &k)| vec![int(k), Value::Float64(k as f64), int(i as i64)])
        .collect();
    b.push(vec![int(42), Value::Float64(42.0), int(-2)]);
    b.push(vec![Value::Null, Value::Null, int(-3)]);
    let p_schema = [
        ("k", DataType::Int64),
        ("k32", DataType::Int32),
        ("v", DataType::Int64),
    ];
    let b_schema = [
        ("k", DataType::Int64),
        ("f", DataType::Float64),
        ("w", DataType::Int64),
    ];
    for (name, fields, rows) in [("p", p_schema, p), ("b", b_schema, b)] {
        let schema = Arc::new(Schema::new(
            (fields.iter())
                .map(|&(f, ty)| Field::nullable(f, ty))
                .collect(),
        ));
        catalog
            .create_table(CreateTable {
                database: "keys".into(),
                name: name.into(),
                schema: schema.clone(),
                primary_key: None,
                foreign_keys: vec![],
                comment: None,
            })
            .unwrap();
        let path = format!("keys/{name}/0.pxl");
        let mut w = PixelsWriter::with_row_group_rows(store, &path, schema.clone(), 8);
        w.write_batch(&RecordBatch::from_rows(schema, &rows).unwrap())
            .unwrap();
        let size = w.finish().unwrap();
        let footer = PixelsReader::open(store, &path).unwrap().footer().clone();
        catalog
            .register_data_file("keys", name, &path, &footer, size)
            .unwrap();
    }
}

/// A fresh engine over its own copy of the fixture, so billed bytes are
/// metered from identical cold caches on every engine compared.
/// `partitions` 0 sizes exchanges by cost, which broadcasts small joins.
fn engine_with(scale: f64, partitions: usize) -> (Arc<TurboEngine>, ObjectStoreRef) {
    let (catalog, store) = fixture(scale);
    let engine = TurboEngine::new(
        catalog,
        store.clone(),
        EngineConfig {
            vm_slots: 1,
            exchange_partitions: partitions,
            ..EngineConfig::default()
        },
    )
    .with_registry(MetricsRegistry::shared());
    (Arc::new(engine), store)
}

/// The reapers delete spill prefixes from detached threads; poll until the
/// intermediate namespace is empty.
fn assert_no_spills(store: &ObjectStoreRef, label: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let leaked = store.list("pixels-turbo/intermediate/").unwrap();
        if leaked.is_empty() {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{label}: leaked spill objects: {leaked:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Run `sql` through the scalar (row-at-a-time) oracle on its own fixture.
fn scalar_oracle_rows(scale: f64, db: &str, sql: &str) -> Vec<Vec<Value>> {
    let (catalog, store) = fixture(scale);
    let plan = plan_query(&catalog, db, sql).unwrap();
    let ctx = ExecContext::new(store);
    let batches = scalar::execute(&plan, &ctx).unwrap();
    batches.iter().flat_map(|b| b.to_rows()).collect()
}

fn canonical(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| *o != Ordering::Equal)
            .unwrap_or(Ordering::Equal)
    });
    rows
}

/// Exact equality, except floats may differ by a relative 1e-9: two-stage
/// partial aggregation reassociates float additions across partitions.
fn values_equivalent(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float64(x), Value::Float64(y)) => {
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() <= 1e-9 * scale
        }
        _ => a == b,
    }
}

fn assert_rows_equivalent(label: &str, got: &[Vec<Value>], expect: &[Vec<Value>]) {
    assert_eq!(
        got.len(),
        expect.len(),
        "{label}: row count diverged ({} vs {})",
        got.len(),
        expect.len()
    );
    for (i, (g, e)) in got.iter().zip(expect).enumerate() {
        assert!(
            g.len() == e.len() && g.iter().zip(e.iter()).all(|(a, b)| values_equivalent(a, b)),
            "{label}: row {i} diverged:\n  got:    {g:?}\n  expect: {e:?}"
        );
    }
}

/// Rows with every float as its bit pattern, for comparisons to the bit.
fn float_bits(rows: Vec<Vec<Value>>) -> Vec<Vec<String>> {
    let bits = |v: Value| match v {
        Value::Float64(x) => format!("f64 {:#x}", x.to_bits()),
        other => format!("{other:?}"),
    };
    (rows.into_iter())
        .map(|r| r.into_iter().map(bits).collect())
        .collect()
}

/// Rows of a batch, order-preserved when the query pins order, canonically
/// sorted otherwise (ORDER BY-less group order is partition-major after a
/// shuffle, chunk-major on the single-stage path — both are valid answers).
fn comparable_rows(batch: &RecordBatch, sql: &str) -> Vec<Vec<Value>> {
    let rows = batch.to_rows();
    if sql.contains("ORDER BY") {
        rows
    } else {
        canonical(rows)
    }
}

/// Every TPC-H template whose plan admits a shuffle cut must produce
/// identical rows (and order, under ORDER BY) and identical billed bytes on
/// the two-stage exchange path, the single-stage CF path, and the scalar
/// oracle. The exchange itself must be visible only in provider-side stats.
/// Where the cut is an aggregate directly over a scan, stage 0 folds the
/// scan's morsels as the single-stage aggregate does at the same fleet
/// parallelism, so the shuffled floats are the single-stage ones to the bit;
/// join cuts and the oracle compare floats within 1e-9.
#[test]
fn shuffled_templates_match_single_stage_and_scalar_oracle() {
    let (catalog, _store) = fixture(SCALE);
    let shuffleable: Vec<_> = all_queries()
        .into_iter()
        .filter(|q| q.database == "tpch")
        .filter_map(|q| {
            let plan = plan_query(&catalog, "tpch", q.sql).unwrap();
            let cut = plan_shuffle(&plan, "pixels-turbo/intermediate/probe/mv.pxl", 4)?;
            let over_scan = matches!(
                &cut.kind,
                ShuffleKind::Aggregate { input, .. } if matches!(input.as_ref(), Plan::Scan { .. })
            );
            Some((q, over_scan))
        })
        .collect();
    assert!(
        shuffleable.len() >= 3,
        "expected several shuffleable join/agg templates, got {}",
        shuffleable.len()
    );
    assert!(
        shuffleable.iter().any(|&(_, over_scan)| over_scan),
        "expected an aggregate cut directly over a scan"
    );

    for (q, over_scan) in &shuffleable {
        let oracle = scalar_oracle_rows(SCALE, "tpch", q.sql);

        // Reference: single-stage CF, after a cold direct VM run.
        let (single, single_store) = engine_with(SCALE, 1);
        let direct = single.execute_sql("tpch", q.sql, false).unwrap();
        let single_out = on_cf(&single, || single.execute_sql("tpch", q.sql, true).unwrap());
        assert!(single_out.used_cf, "{}", q.id);

        let (shuffled, store) = engine_with(SCALE, 4);
        let shuffled_direct = shuffled.execute_sql("tpch", q.sql, false).unwrap();
        assert_eq!(shuffled_direct.batch, direct.batch, "{}", q.id);
        let out = on_cf(&shuffled, || {
            shuffled.execute_sql("tpch", q.sql, true).unwrap()
        });
        assert!(out.used_cf, "{}", q.id);

        let got = comparable_rows(&out.batch, q.sql);
        assert_rows_equivalent(
            &format!("{} vs scalar oracle", q.id),
            &got,
            &if q.sql.contains("ORDER BY") {
                oracle
            } else {
                canonical(oracle)
            },
        );
        let single_rows = comparable_rows(&single_out.batch, q.sql);
        if *over_scan {
            assert_eq!(
                float_bits(got.clone()),
                float_bits(single_rows),
                "{} vs single-stage CF, to the bit",
                q.id
            );
        } else {
            assert_rows_equivalent(&format!("{} vs single-stage CF", q.id), &got, &single_rows);
        }
        assert_rows_equivalent(
            &format!("{} vs direct VM", q.id),
            &got,
            &comparable_rows(&direct.batch, q.sql),
        );

        // One user bill: the cold VM run and both warm CF runs read the same
        // table chunks, and footers, the MV read and the exchange bill
        // nothing.
        assert_eq!(
            single_out.bytes_scanned, direct.bytes_scanned,
            "{}: billed bytes diverged between single-stage CF and cold VM",
            q.id
        );
        assert_eq!(
            out.bytes_scanned, single_out.bytes_scanned,
            "{}: billed bytes diverged between shuffled and single-stage",
            q.id
        );
        assert_eq!(out.exchange.partitions, 4, "{}", q.id);
        assert!(out.exchange.put_bytes > 0, "{}", q.id);
        assert!(out.provider_shuffle_dollars > 0.0, "{}", q.id);
        assert_eq!(single_out.exchange, ExchangeStats::default(), "{}", q.id);
        assert_no_spills(&store, q.id);
        assert_no_spills(&single_store, q.id);
    }
}

/// All-empty and mostly-empty partition sets: a predicate selecting zero
/// rows leaves every partition empty; three order statuses fanned out 16
/// ways leave at least 13 empty. Both must round-trip the exchange exactly.
#[test]
fn empty_partitions_round_trip() {
    // Zero input rows: every partition file is empty.
    let zero = "SELECT o_orderstatus, COUNT(*) AS n FROM orders \
                WHERE o_orderkey < 0 GROUP BY o_orderstatus";
    let (e, store) = engine_with(SCALE, 8);
    let direct = e.execute_sql("tpch", zero, false).unwrap();
    assert_eq!(direct.batch.num_rows(), 0);
    let out = on_cf(&e, || e.execute_sql("tpch", zero, true).unwrap());
    assert!(out.used_cf);
    assert_eq!(out.batch, direct.batch);
    assert_eq!(out.exchange.partitions, 8);
    assert_eq!(
        out.exchange.spilled_rows, 0,
        "no rows may cross an exchange"
    );
    assert_no_spills(&store, "zero-row shuffle");

    // Far more partitions than groups: most partition files are empty.
    let sparse = "SELECT o_orderstatus, COUNT(*) AS n FROM orders \
                  GROUP BY o_orderstatus ORDER BY n DESC";
    let (e, store) = engine_with(SCALE, 16);
    let direct = e.execute_sql("tpch", sparse, false).unwrap();
    let out = on_cf(&e, || e.execute_sql("tpch", sparse, true).unwrap());
    assert!(out.used_cf);
    assert_eq!(out.batch, direct.batch);
    assert_eq!(out.exchange.partitions, 16);
    assert!(
        out.exchange.spilled_rows <= 3,
        "one combined row per group, got {}",
        out.exchange.spilled_rows
    );
    assert_no_spills(&store, "sparse shuffle");
}

/// Maximal skew: a single surviving group (and a single join key) sends all
/// traffic to one partition. Results must still match the VM path exactly.
#[test]
fn skewed_partitions_round_trip() {
    let skewed_agg = "SELECT o_orderstatus, COUNT(*) AS n FROM orders \
                      WHERE o_orderstatus = 'F' GROUP BY o_orderstatus";
    let (e, store) = engine_with(SCALE, 8);
    let direct = e.execute_sql("tpch", skewed_agg, false).unwrap();
    assert_eq!(direct.batch.num_rows(), 1, "fixture must have 'F' orders");
    let out = on_cf(&e, || e.execute_sql("tpch", skewed_agg, true).unwrap());
    assert!(out.used_cf);
    assert_eq!(out.batch, direct.batch);
    assert_eq!(
        out.exchange.spilled_rows, 1,
        "one group must combine into one spilled row"
    );
    assert_no_spills(&store, "skewed agg shuffle");

    let skewed_join = "SELECT c_name, o_orderkey FROM customer \
                       JOIN orders ON c_custkey = o_custkey \
                       WHERE c_custkey = 1 ORDER BY o_orderkey";
    let (e, store) = engine_with(SCALE, 8);
    let direct = e.execute_sql("tpch", skewed_join, false).unwrap();
    let out = on_cf(&e, || e.execute_sql("tpch", skewed_join, true).unwrap());
    assert!(out.used_cf);
    assert_eq!(out.batch, direct.batch);
    assert_no_spills(&store, "skewed join shuffle");
}

/// `exchange_partitions = 1` must degenerate to the single-stage plan
/// bit-identically: same batch, same billed bytes, same decision sequence,
/// zero exchange stats, and nothing ever written under the spill prefix.
#[test]
fn partition_count_one_is_bit_identical_to_single_stage() {
    let sql = "SELECT o_orderstatus, COUNT(*) AS n FROM orders \
               GROUP BY o_orderstatus ORDER BY n DESC";

    let (single, _) = engine_with(SCALE, 1);
    let direct = single.execute_sql("tpch", sql, false).unwrap();
    let single_out = on_cf(&single, || single.execute_sql("tpch", sql, true).unwrap());

    let (degenerate, store) = engine_with(SCALE, 1);
    let degenerate_direct = degenerate.execute_sql("tpch", sql, false).unwrap();
    assert_eq!(degenerate_direct.batch, direct.batch);
    let out = on_cf(&degenerate, || {
        degenerate.execute_sql("tpch", sql, true).unwrap()
    });

    assert!(out.used_cf);
    assert_eq!(out.batch, single_out.batch);
    assert_eq!(out.bytes_scanned, single_out.bytes_scanned);
    assert_eq!(out.exchange, ExchangeStats::default());
    assert_eq!(out.provider_shuffle_dollars, 0.0);
    assert_eq!(
        out.decisions,
        vec![
            Decision::DispatchCf { attempt: 0 },
            Decision::Accept { attempt: 0 },
        ]
    );
    assert!(store.list("pixels-turbo/intermediate/").unwrap().is_empty());
}

/// The same answer in process, through a 4-way exchange (a DISTINCT over a
/// scan has none) and, for a join, through a broadcast join, as the scalar
/// oracle: rows in canonical order.
fn assert_exchanges_match_oracle(scale: f64, db: &str, sql: &str) -> Vec<Vec<Value>> {
    let oracle = canonical(scalar_oracle_rows(scale, db, sql));
    let (e, store) = engine_with(scale, 4);
    let direct = e.execute_sql(db, sql, false).unwrap();
    assert_rows_equivalent(
        &format!("{sql}: in process"),
        &canonical(direct.batch.to_rows()),
        &oracle,
    );
    let out = on_cf(&e, || e.execute_sql(db, sql, true).unwrap());
    let partitions = if sql.contains("DISTINCT") { 0 } else { 4 };
    assert_eq!(out.exchange.partitions, partitions, "{sql}");
    assert_rows_equivalent(
        &format!("{sql}: 4 partitions"),
        &canonical(out.batch.to_rows()),
        &oracle,
    );
    assert_no_spills(&store, sql);
    if sql.contains("JOIN") {
        let (e, store) = engine_with(scale, 0);
        let out = on_cf(&e, || e.execute_sql(db, sql, true).unwrap());
        assert_eq!(out.exchange.partitions, 1, "{sql}: a broadcast join");
        assert_rows_equivalent(
            &format!("{sql}: broadcast"),
            &canonical(out.batch.to_rows()),
            &oracle,
        );
        assert_no_spills(&store, sql);
    }
    oracle
}

/// Integer keys are exact through the exchange: partitioned and broadcast
/// joins and a partitioned `GROUP BY` over keys an `f64` would merge, and
/// joins of `Int32` with `Int64` and of `Int64` with `Float64` keys.
#[test]
fn exact_and_mixed_type_keys_cross_the_exchange() {
    let (keys, p53) = (key_values(), 1i64 << 53);
    let groups =
        assert_exchanges_match_oracle(SCALE, "keys", "SELECT k, COUNT(*) AS n FROM p GROUP BY k");
    assert_eq!(
        groups.len(),
        keys.len() + 1,
        "every key and NULL is its own group"
    );
    let joined =
        assert_exchanges_match_oracle(SCALE, "keys", "SELECT p.v, b.w FROM p JOIN b ON p.k = b.k");
    // Every other key is built, every third probed twice: 2^53 (the tenth
    // key) matches once, 2^53 + 1 (the eleventh) not at all.
    let built = (0..keys.len())
        .step_by(2)
        .map(|i| 1 + usize::from(i % 3 == 0))
        .sum::<usize>();
    assert_eq!(joined.len(), built);
    assert!(keys[10] == p53 && joined.contains(&vec![Value::Int64(10), Value::Int64(10)]));
    assert!(keys[11] == p53 + 1 && !joined.iter().any(|r| r[0] == Value::Int64(11)));
    // `i32::MIN` and `i32::MAX` stand in for every key beyond them.
    let narrow = assert_exchanges_match_oracle(
        SCALE,
        "keys",
        "SELECT p.v, b.w FROM p JOIN b ON p.k32 = b.k",
    );
    assert!(
        narrow.contains(&vec![Value::Int64(14), Value::Int64(8)]),
        "i64::MAX clamped to i32::MAX joins i32::MAX"
    );
    // Through `f64`, 2^53 + 1 meets 2^53, as `Value::sql_cmp` has it.
    let widened =
        assert_exchanges_match_oracle(SCALE, "keys", "SELECT p.v, b.w FROM p JOIN b ON p.k = b.f");
    assert!(widened.contains(&vec![Value::Int64(11), Value::Int64(10)]));
}

/// Five batches of rows for the aggregate lists below: a string key (with
/// NULLs, and a group `z` whose Float64 values are all NULL), Float64 with
/// NULLs, Float64 without, Int64 with NULLs, strings, dates, and Int64s
/// whose sum overflows.
fn aggregate_fixture() -> Vec<RecordBatch> {
    let schema = Arc::new(Schema::new(vec![
        Field::nullable("g", DataType::Utf8),
        Field::nullable("f", DataType::Float64),
        Field::required("f_nn", DataType::Float64),
        Field::nullable("i", DataType::Int64),
        Field::nullable("s", DataType::Utf8),
        Field::nullable("d", DataType::Date),
        Field::required("big", DataType::Int64),
    ]));
    let or_null = |null: bool, v: Value| if null { Value::Null } else { v };
    let rows: Vec<Vec<Value>> = (0..40usize)
        .map(|i| {
            let key = ["a", "b", "c", "x"][i % 4];
            vec![
                match (i % 5 == 3, key) {
                    (true, _) => Value::Utf8("z".into()),
                    (_, "x") => Value::Null,
                    (_, k) => Value::Utf8(k.into()),
                },
                or_null(
                    i % 5 == 3,
                    Value::Float64(((i * 37) % 11) as f64 * 0.1 + [1e15, 0.0, -3.3][i % 3]),
                ),
                Value::Float64((i as f64).sqrt() * 1.1),
                or_null(i % 6 == 4, Value::Int64((i as i64 - 17) * 1_000_003)),
                or_null(i % 9 == 8, Value::Utf8(format!("s{}", (i * 7) % 13))),
                or_null(i % 8 == 7, Value::Date(18_000 + ((i * 11) % 50) as i32)),
                Value::Int64(i64::MAX / 4 + i as i64),
            ]
        })
        .collect();
    (rows.chunks(8))
        .map(|r| RecordBatch::from_rows(schema.clone(), r).unwrap())
        .collect()
}

/// Aggregate lists whose accumulators share a running sum (SUM, AVG and
/// COUNT of one Float64 argument, with and without NULLs), must not share
/// one (a DISTINCT beside a plain SUM; SUM and AVG of one Int64), keep cells
/// (MIN/MAX of strings and dates), or overflow.
fn aggregate_lists() -> Vec<Vec<AggExpr>> {
    let agg = |func: AggFunc, arg: Option<(usize, DataType)>, distinct: bool| AggExpr {
        func,
        arg: arg.map(|(i, ty)| BoundExpr::column(i, ty, format!("c{i}"))),
        distinct,
        output_type: func.output_type(arg.map(|a| a.1)).unwrap(),
    };
    use AggFunc::{Avg, Count, Max, Min, Sum};
    use DataType::{Date, Float64, Int64, Utf8};
    let (f, f_nn, i) = (Some((1, Float64)), Some((2, Float64)), Some((3, Int64)));
    let (s, d, big) = (Some((4, Utf8)), Some((5, Date)), Some((6, Int64)));
    vec![
        vec![agg(Sum, f, false), agg(Avg, f, false), agg(Count, f, false)],
        vec![
            agg(Count, f_nn, false),
            agg(Avg, f_nn, false),
            agg(Sum, f_nn, false),
        ],
        vec![agg(Sum, f, true), agg(Sum, f, false), agg(Avg, f, true)],
        vec![agg(Sum, i, false), agg(Avg, i, false), agg(Count, i, true)],
        vec![
            agg(Min, s, false),
            agg(Max, s, false),
            agg(Min, d, false),
            agg(Max, d, false),
        ],
        vec![agg(Count, None, false), agg(Sum, big, false)],
    ]
}

/// Every aggregate list, grouped and global, over the fixture and over zero
/// rows, each written as a Pixels file of 8-row row groups and read back by
/// a materialized scan, through a 4-partition exchange at parallelism 1 and
/// 4: the scalar oracle's rows over the batches the scan returns, to the
/// bit, in its order, or its error.
#[test]
fn aggregate_lists_cross_the_exchange_bit_for_bit() {
    let input = aggregate_fixture();
    let schema = input[0].schema().clone();
    let store: ObjectStoreRef = InMemoryObjectStore::shared();
    let file = |path: &str, batches: &[RecordBatch]| {
        let mut w = PixelsWriter::with_row_group_rows(store.as_ref(), path, schema.clone(), 8);
        for batch in batches {
            w.write_batch(batch).unwrap();
        }
        w.finish().unwrap();
        Plan::MaterializedScan {
            path: path.into(),
            schema: schema.clone(),
        }
    };
    let (full, zero) = (file("in/full.pxl", &input), file("in/zero.pxl", &[]));
    let mut overflowed = 0;
    for aggs in aggregate_lists() {
        for group in [vec![BoundExpr::column(0, DataType::Utf8, "g")], vec![]] {
            let fields = (group.iter().map(|g| Field::nullable("g", g.data_type()))).chain(
                aggs.iter()
                    .map(|a| Field::nullable(a.to_string(), a.output_type)),
            );
            let out_schema = Arc::new(Schema::new(fields.collect()));
            for scan in [&full, &zero] {
                for parallelism in [1usize, 4] {
                    let label = format!("{aggs:?} by {group:?} @p{parallelism}");
                    let ctx = ExecContext::new(store.clone()).with_parallelism(parallelism);
                    let batches = execute(scan, &ctx).unwrap();
                    let oracle = scalar::execute_aggregate(
                        &batches,
                        &group,
                        &aggs,
                        &out_schema,
                        parallelism,
                    );
                    let spill = InMemoryObjectStore::shared();
                    let shuffled = exchange::write_agg_partitions(
                        scan,
                        &group,
                        &aggs,
                        &ctx,
                        spill.as_ref(),
                        "agg/",
                        4,
                    )
                    .and_then(|_| {
                        exchange::read_agg_partitions(&spill, "agg/", 4, &group, &aggs, &out_schema)
                    });
                    match (shuffled, oracle) {
                        (Ok((got, _)), Ok(expect)) => assert_eq!(
                            float_bits(got.iter().flat_map(|b| b.to_rows()).collect()),
                            float_bits(expect.iter().flat_map(|b| b.to_rows()).collect()),
                            "{label}"
                        ),
                        (Err(got), Err(expect)) => {
                            assert_eq!(got.to_string(), expect.to_string(), "{label}");
                            overflowed += 1;
                        }
                        (got, expect) => panic!("{label}: {got:?} vs {expect:?}"),
                    }
                }
            }
        }
    }
    // The overflowing list, grouped and global, at both parallelisms.
    assert_eq!(overflowed, 4);
}

/// Stage 0 over a scan is the in-process fold: at parallelism 1, 2, 4 and 8
/// what crosses a 4-partition exchange finishes to the in-process aggregate
/// of the same scan, floats to the bit.
#[test]
fn scan_fed_stage_zero_is_the_in_process_aggregate_to_the_bit() {
    let (catalog, store) = fixture(SCALE);
    let sql = "SELECT l_returnflag, l_linestatus, SUM(l_quantity), SUM(l_extendedprice), \
               AVG(l_discount), COUNT(*) FROM lineitem \
               WHERE l_shipdate <= DATE '1998-09-01' GROUP BY l_returnflag, l_linestatus";
    let plan = plan_query(&catalog, "tpch", sql).unwrap();
    let cut = plan_shuffle(&plan, "shuffle/mv.pxl", 4).expect("an aggregate cut");
    let ShuffleKind::Aggregate {
        input,
        group_exprs,
        aggs,
        output_schema,
    } = &cut.kind
    else {
        panic!("the cut is not the aggregate: {:?}", cut.kind);
    };
    assert!(matches!(input.as_ref(), Plan::Scan { .. }), "{input:?}");
    let in_process = Plan::Aggregate {
        input: input.clone(),
        group_exprs: group_exprs.clone(),
        aggs: aggs.clone(),
        output_schema: output_schema.clone(),
    };
    let rows =
        |batches: &[RecordBatch]| float_bits(batches.iter().flat_map(|b| b.to_rows()).collect());
    for parallelism in [1, 2, 4, 8] {
        let ctx = || ExecContext::new(store.clone()).with_parallelism(parallelism);
        let direct = execute(&in_process, &ctx()).unwrap();
        let spill = InMemoryObjectStore::shared();
        exchange::write_agg_partitions(input, group_exprs, aggs, &ctx(), spill.as_ref(), "agg/", 4)
            .unwrap();
        let (shuffled, _) =
            exchange::read_agg_partitions(&spill, "agg/", 4, group_exprs, aggs, output_schema)
                .unwrap();
        assert_eq!(rows(&shuffled), rows(&direct), "parallelism {parallelism}");
    }
}

/// Shifted by `i64::MAX`, the 3,000 order keys of scale 0.002 are 3,000 join
/// keys, groups and DISTINCT rows, in process and on the CF path. As `f64`s
/// they were 4 keys, and the join 2,552,756 rows.
#[test]
fn order_keys_past_2_pow_53_stay_distinct_across_the_exchange() {
    let k = |t: &str| format!("{t}o_orderkey - 9223372036854775807");
    for sql in [
        format!(
            "SELECT a.o_orderkey FROM orders a JOIN orders b ON {} = {}",
            k("a."),
            k("b.")
        ),
        format!(
            "SELECT {} AS k, COUNT(*) AS n FROM orders GROUP BY {}",
            k(""),
            k("")
        ),
        format!("SELECT DISTINCT {} FROM orders", k("")),
    ] {
        let rows = assert_exchanges_match_oracle(0.002, "tpch", &sql);
        assert_eq!(rows.len(), 3_000, "{sql}");
    }
}
