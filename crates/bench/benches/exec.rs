//! Microbenchmarks for the execution engine: predicate evaluation, hash
//! join, hash aggregation, end-to-end TPC-H-shaped queries, the
//! serial-vs-parallel scaling of the morsel-driven scan path, and the
//! overhead of span tracing on the hot scan path.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pixels_bench::demo_data;
use pixels_common::{DataType, Field, RecordBatch, Schema, Value};
use pixels_exec::{execute, scalar, ExecContext};
use pixels_obs::{Trace, TraceCtx};
use pixels_planner::{plan_query, AggExpr, AggFunc, BoundExpr};
use pixels_sql::ast::{BinaryOp, JoinType};
use pixels_storage::FooterCache;
use pixels_workload::query_by_id;
use std::sync::Arc;

fn bench_queries(c: &mut Criterion) {
    let (catalog, store) = demo_data(0.002);
    let mut g = c.benchmark_group("tpch_queries");
    g.sample_size(20);
    for id in [
        "q1_pricing_summary",
        "q3_shipping_priority",
        "q6_forecast_revenue",
        "orders_by_status",
        "top_customers",
    ] {
        let q = query_by_id(id).unwrap();
        let plan = plan_query(&catalog, "tpch", q.sql).unwrap();
        g.bench_function(id, |b| {
            b.iter(|| {
                let ctx = ExecContext::new(store.clone());
                execute(&plan, &ctx).unwrap().len()
            })
        });
    }
    g.finish();
}

fn bench_operators(c: &mut Criterion) {
    let (catalog, store) = demo_data(0.002);
    let li_rows = catalog
        .get_table("tpch", "lineitem")
        .unwrap()
        .stats
        .row_count;
    let mut g = c.benchmark_group("operators");
    g.throughput(Throughput::Elements(li_rows));
    g.sample_size(20);

    for (name, sql) in [
        (
            "filter_scan",
            "SELECT l_orderkey FROM lineitem WHERE l_quantity > 45",
        ),
        (
            "hash_aggregate",
            "SELECT l_returnflag, COUNT(*), SUM(l_quantity) FROM lineitem GROUP BY l_returnflag",
        ),
        (
            "hash_join",
            "SELECT COUNT(*) FROM lineitem JOIN orders ON l_orderkey = o_orderkey",
        ),
        (
            "topk",
            "SELECT l_extendedprice FROM lineitem ORDER BY l_extendedprice DESC LIMIT 10",
        ),
        (
            "full_sort",
            "SELECT o_totalprice FROM orders ORDER BY o_totalprice",
        ),
    ] {
        let plan = plan_query(&catalog, "tpch", sql).unwrap();
        g.bench_function(name, |b| {
            b.iter(|| {
                let ctx = ExecContext::new(store.clone());
                execute(&plan, &ctx).unwrap().len()
            })
        });
    }
    g.finish();
}

/// Serial vs parallel execution of a multi-row-group scan + aggregation —
/// the workload the morsel-driven scan path exists for. One shared footer
/// cache per parallelism level keeps open costs out of the comparison.
fn bench_parallelism(c: &mut Criterion) {
    let (catalog, store) = demo_data(0.02);
    let mut g = c.benchmark_group("parallel_scan_agg");
    g.sample_size(10);

    for (name, sql) in [
        (
            "scan_agg",
            "SELECT l_returnflag, l_linestatus, COUNT(*) AS n, SUM(l_quantity) AS qty, \
             SUM(l_extendedprice) AS revenue, AVG(l_discount) AS disc \
             FROM lineitem GROUP BY l_returnflag, l_linestatus",
        ),
        (
            "filter_scan",
            "SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_quantity > 30",
        ),
    ] {
        let plan = plan_query(&catalog, "tpch", sql).unwrap();
        for parallelism in [1usize, 2, 4, 8] {
            let cache = FooterCache::shared();
            g.bench_function(&format!("{name}/p{parallelism}"), |b| {
                b.iter(|| {
                    let ctx = ExecContext::new(store.clone())
                        .with_parallelism(parallelism)
                        .with_footer_cache(cache.clone());
                    execute(&plan, &ctx).unwrap().len()
                })
            });
        }
    }
    g.finish();
}

/// Tracing overhead guard: the same multi-row-group scan + aggregation with
/// tracing disabled (the default — spans must be a true no-op) and enabled
/// (every operator, open, and morsel records a span). The disabled case must
/// match the untraced baseline; the enabled case budgets < 3% overhead.
fn bench_tracing_overhead(c: &mut Criterion) {
    let (catalog, store) = demo_data(0.02);
    let mut g = c.benchmark_group("tracing_overhead");
    g.sample_size(20);

    let sql = "SELECT l_returnflag, l_linestatus, COUNT(*) AS n, SUM(l_quantity) AS qty \
               FROM lineitem GROUP BY l_returnflag, l_linestatus";
    let plan = plan_query(&catalog, "tpch", sql).unwrap();
    let cache = FooterCache::shared();

    g.bench_function("scan_agg/untraced", |b| {
        b.iter(|| {
            let ctx = ExecContext::new(store.clone()).with_footer_cache(cache.clone());
            execute(&plan, &ctx).unwrap().len()
        })
    });
    g.bench_function("scan_agg/disabled_ctx", |b| {
        b.iter(|| {
            // Explicitly attach a disabled context: identical cost to the
            // untraced baseline is the "~0 when disabled" guarantee.
            let ctx = ExecContext::new(store.clone())
                .with_footer_cache(cache.clone())
                .with_trace(TraceCtx::disabled());
            execute(&plan, &ctx).unwrap().len()
        })
    });
    g.bench_function("scan_agg/traced", |b| {
        b.iter(|| {
            let trace = Trace::wall();
            let ctx = ExecContext::new(store.clone())
                .with_footer_cache(cache.clone())
                .with_trace(TraceCtx::root(&trace));
            let n = execute(&plan, &ctx).unwrap().len();
            (n, trace.finished_spans().len())
        })
    });
    // The full layer-two observability path the live server runs per query:
    // tracing plus an SLO record plus a journal append. The gate is < 1%
    // over the traced-only case (EXPERIMENTS.md).
    let slo = pixels_obs::SloTracker::new(
        pixels_obs::WallClock::shared(),
        vec![pixels_obs::SloObjective::new("immediate", 1_000_000)],
    );
    let journal = pixels_obs::QueryJournal::new();
    g.bench_function("scan_agg/traced_slo_journal", |b| {
        let mut seq = 0u64;
        b.iter(|| {
            let trace = Trace::wall();
            let ctx = ExecContext::new(store.clone())
                .with_footer_cache(cache.clone())
                .with_trace(TraceCtx::root(&trace));
            let n = execute(&plan, &ctx).unwrap().len();
            let spans = trace.finished_spans().len();
            let good = slo.record("immediate", 1_000);
            seq += 1;
            journal.append(pixels_obs::JournalEntry {
                query: format!("q-{seq}"),
                tenant: "bench".into(),
                level: "immediate".into(),
                status: "finished".into(),
                admission: "dispatch_now".into(),
                decisions: Vec::new(),
                retries: 0,
                pending_us: 0,
                execution_us: 1_000,
                scan_bytes: 0,
                revenue_dollars: 0.0,
                vm_dollars: 0.0,
                cf_dollars: 0.0,
                provider_cf_dollars: 0.0,
                used_cf: false,
                degraded: false,
                speculative: false,
                slo_good: good,
                slo_threshold_us: 1_000_000,
                trace_spans: spans as u64,
                at_us: 0,
            });
            (n, spans)
        })
    });
    g.finish();
}

/// Vectorized kernels vs the retained scalar reference path, on
/// pre-materialized input so the comparison isolates operator cost from
/// scan cost: join build+probe, multi-aggregate group-by (q1's shape among
/// them), and the fused conjunction mask vs sequential per-filter passes.
fn bench_vector_kernels(c: &mut Criterion) {
    let (catalog, store) = demo_data(0.01);
    let collect = |sql: &str| -> Vec<RecordBatch> {
        let plan = plan_query(&catalog, "tpch", sql).unwrap();
        let ctx = ExecContext::new(store.clone());
        execute(&plan, &ctx).unwrap()
    };
    // l_orderkey, l_quantity, l_extendedprice, l_discount, l_returnflag,
    // l_linestatus
    let lineitem = collect(
        "SELECT l_orderkey, l_quantity, l_extendedprice, l_discount, l_returnflag, l_linestatus \
         FROM lineitem",
    );
    // o_orderkey, o_totalprice
    let orders = collect("SELECT o_orderkey, o_totalprice FROM orders");
    let li_rows: u64 = lineitem.iter().map(|b| b.num_rows() as u64).sum();

    let col = |i: usize, ty: DataType| BoundExpr::column(i, ty, format!("c{i}"));
    let binary = |l: BoundExpr, op: BinaryOp, r: BoundExpr, ty: DataType| BoundExpr::BinaryOp {
        left: Box::new(l),
        op,
        right: Box::new(r),
        data_type: ty,
    };
    let cmp = |l: BoundExpr, op: BinaryOp, r: BoundExpr| binary(l, op, r, DataType::Boolean);

    let mut g = c.benchmark_group("vector_kernels");
    g.sample_size(10);
    g.throughput(Throughput::Elements(li_rows));

    // Hash join: build on orders, probe with lineitem (≈4 lineitems per
    // order), 17 output columns late-materialized.
    let join_schema = Arc::new(Schema::new(
        lineitem[0]
            .schema()
            .fields()
            .iter()
            .chain(orders[0].schema().fields())
            .cloned()
            .collect::<Vec<Field>>(),
    ));
    let left_width = lineitem[0].schema().len();
    let join_args = (vec![col(0, DataType::Int64)], vec![col(0, DataType::Int64)]);
    g.bench_function("join_build_probe/vectorized", |b| {
        b.iter(|| {
            pixels_exec::join::execute_join(
                &lineitem,
                &orders,
                JoinType::Inner,
                &join_args.0,
                &join_args.1,
                None,
                &join_schema,
                left_width,
                8192,
            )
            .unwrap()
            .len()
        })
    });
    g.bench_function("join_build_probe/scalar", |b| {
        b.iter(|| {
            scalar::execute_join(
                &lineitem,
                &orders,
                JoinType::Inner,
                &join_args.0,
                &join_args.1,
                None,
                &join_schema,
                left_width,
                8192,
            )
            .unwrap()
            .len()
        })
    });

    // The same join over the key columns alone, so that encoding, interning
    // and probing the Int64 keys is all there is to it.
    let project = |batches: &[RecordBatch]| -> Vec<RecordBatch> {
        batches.iter().map(|b| b.project(&[0]).unwrap()).collect()
    };
    let (li_keys, o_keys) = (project(&lineitem), project(&orders));
    let key_schema = Arc::new(Schema::new(vec![
        Field::required("l_orderkey", DataType::Int64),
        Field::required("o_orderkey", DataType::Int64),
    ]));
    g.bench_function("join_build_probe/int_key", |b| {
        b.iter(|| {
            pixels_exec::join::execute_join(
                &li_keys,
                &o_keys,
                JoinType::Inner,
                &join_args.0,
                &join_args.1,
                None,
                &key_schema,
                1,
                8192,
            )
            .unwrap()
            .len()
        })
    });

    // The join with its probe scan in the loop, through `engine::execute`:
    // lineitem is clustered on l_orderkey, and the build side (orders) tells
    // the scan which keys it holds. With 1 % of the orders (picked by date,
    // so scattered over the key range) the scan drops ~99 % of lineitem on
    // the encoded key chunk; with all of them the key set is the whole
    // range, the filter is a zone check, and the join pays full price.
    for (name, build_filter) in [
        (
            "join_build_probe/selective_build/1pct",
            " WHERE o_orderdate < DATE '1992-01-25'",
        ),
        ("join_build_probe/selective_build/100pct", ""),
    ] {
        let sql = format!(
            "SELECT SUM(l_extendedprice), COUNT(*) FROM lineitem \
             JOIN orders ON l_orderkey = o_orderkey{build_filter}"
        );
        let plan = plan_query(&catalog, "tpch", &sql).unwrap();
        let ctx = ExecContext::new(store.clone());
        execute(&plan, &ctx).unwrap();
        let tested = ctx.metrics.pipeline_snapshot().join_filter_rows;
        assert_eq!(
            tested, li_rows,
            "{name}: lineitem is not the filtered probe scan"
        );
        g.bench_function(name, |b| {
            b.iter(|| {
                let ctx = ExecContext::new(store.clone());
                execute(&plan, &ctx).unwrap().len()
            })
        });
    }

    // Group-by: Utf8 group key, COUNT + two SUMs + AVG.
    let group = vec![col(4, DataType::Utf8)];
    let aggs = vec![
        AggExpr {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
            output_type: DataType::Int64,
        },
        AggExpr {
            func: AggFunc::Sum,
            arg: Some(col(1, DataType::Float64)),
            distinct: false,
            output_type: DataType::Float64,
        },
        AggExpr {
            func: AggFunc::Sum,
            arg: Some(col(2, DataType::Float64)),
            distinct: false,
            output_type: DataType::Float64,
        },
        AggExpr {
            func: AggFunc::Avg,
            arg: Some(col(3, DataType::Float64)),
            distinct: false,
            output_type: DataType::Float64,
        },
    ];
    let agg_schema = Arc::new(Schema::new(vec![
        Field::required("g", DataType::Utf8),
        Field::required("n", DataType::Int64),
        Field::required("s1", DataType::Float64),
        Field::required("s2", DataType::Float64),
        Field::required("a", DataType::Float64),
    ]));
    g.bench_function("group_by/vectorized", |b| {
        b.iter(|| {
            pixels_exec::aggregate::execute_aggregate(&lineitem, &group, &aggs, &agg_schema, 1)
                .unwrap()
                .len()
        })
    });
    g.bench_function("group_by/scalar", |b| {
        b.iter(|| {
            scalar::execute_aggregate(&lineitem, &group, &aggs, &agg_schema, 1)
                .unwrap()
                .len()
        })
    });

    // q1's group keys: two dictionary-encoded string columns, four groups.
    let dict_group = vec![col(4, DataType::Utf8), col(5, DataType::Utf8)];
    let dict_schema = Arc::new(Schema::new(vec![
        Field::required("flag", DataType::Utf8),
        Field::required("status", DataType::Utf8),
        Field::required("n", DataType::Int64),
        Field::required("qty", DataType::Float64),
    ]));
    g.bench_function("group_by/dict_keys", |b| {
        b.iter(|| {
            pixels_exec::aggregate::execute_aggregate(
                &lineitem,
                &dict_group,
                &aggs[..2],
                &dict_schema,
                1,
            )
            .unwrap()
            .len()
        })
    });

    // q1's discounted price over Float64 columns.
    let discounted = binary(
        col(2, DataType::Float64),
        BinaryOp::Multiply,
        binary(
            BoundExpr::literal(Value::Int64(1)),
            BinaryOp::Minus,
            col(3, DataType::Float64),
            DataType::Float64,
        ),
        DataType::Float64,
    );

    // q1's shape: its two string keys (four groups) and its six aggregates,
    // among them a SUM and an AVG of l_quantity and of l_extendedprice.
    let float_agg = |func, arg| AggExpr {
        func,
        arg: Some(arg),
        distinct: false,
        output_type: DataType::Float64,
    };
    let q1_aggs = vec![
        float_agg(AggFunc::Sum, col(1, DataType::Float64)),
        float_agg(AggFunc::Sum, col(2, DataType::Float64)),
        float_agg(AggFunc::Sum, discounted.clone()),
        float_agg(AggFunc::Avg, col(1, DataType::Float64)),
        float_agg(AggFunc::Avg, col(2, DataType::Float64)),
        aggs[0].clone(),
    ];
    let q1_schema = Arc::new(Schema::new(
        ["flag", "status"]
            .map(|n| Field::required(n, DataType::Utf8))
            .into_iter()
            .chain(
                ["sum_qty", "sum_base", "sum_disc", "avg_qty", "avg_price"]
                    .map(|n| Field::nullable(n, DataType::Float64)),
            )
            .chain([Field::required("count_order", DataType::Int64)])
            .collect::<Vec<Field>>(),
    ));
    g.bench_function("group_by/q1_shape", |b| {
        b.iter(|| {
            pixels_exec::aggregate::execute_aggregate(
                &lineitem,
                &dict_group,
                &q1_aggs,
                &q1_schema,
                1,
            )
            .unwrap()
            .len()
        })
    });

    // Expression evaluation: q1's discounted price, and checked Int64
    // arithmetic.
    let int_poly = binary(
        binary(
            col(0, DataType::Int64),
            BinaryOp::Multiply,
            BoundExpr::literal(Value::Int64(3)),
            DataType::Int64,
        ),
        BinaryOp::Plus,
        col(0, DataType::Int64),
        DataType::Int64,
    );
    let key_above = cmp(
        col(0, DataType::Int64),
        BinaryOp::Gt,
        BoundExpr::literal(Value::Int64(30_000)),
    );
    for (name, expr) in [
        ("evaluate/arith_f64", &discounted),
        ("evaluate/arith_i64_checked", &int_poly),
        ("evaluate/cmp_i64_literal", &key_above),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                lineitem
                    .iter()
                    .map(|batch| pixels_exec::evaluate(expr, batch).unwrap().len())
                    .sum::<usize>()
            })
        });
    }

    // Residual filter chain: one fused mask over the original batch vs one
    // mask + materialized batch per conjunct.
    let filters = vec![
        cmp(
            col(1, DataType::Float64),
            BinaryOp::Gt,
            BoundExpr::literal(Value::Float64(10.0)),
        ),
        cmp(
            col(3, DataType::Float64),
            BinaryOp::Lt,
            BoundExpr::literal(Value::Float64(0.08)),
        ),
        cmp(
            col(4, DataType::Utf8),
            BinaryOp::NotEq,
            BoundExpr::literal(Value::Utf8("R".into())),
        ),
    ];
    g.bench_function("fused_filter/fused", |b| {
        b.iter(|| {
            lineitem
                .iter()
                .map(|batch| {
                    let mask = pixels_exec::fused_filter_mask(&filters, batch).unwrap();
                    batch.filter(&mask).unwrap().num_rows()
                })
                .sum::<usize>()
        })
    });
    g.bench_function("fused_filter/per_filter", |b| {
        b.iter(|| {
            lineitem
                .iter()
                .map(|batch| {
                    scalar::apply_filters(&filters, batch.clone())
                        .unwrap()
                        .num_rows()
                })
                .sum::<usize>()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_queries,
    bench_operators,
    bench_parallelism,
    bench_tracing_overhead,
    bench_vector_kernels
);
criterion_main!(benches);
