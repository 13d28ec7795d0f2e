//! X2 (ablations) — the storage-layer design choices DESIGN.md calls out:
//! adaptive chunk encodings, zone-map pruning, and projection pushdown.
//! Each directly reduces bytes scanned, i.e. the user's bill.

use pixels_bench::TextTable;
use pixels_common::bytesize::format_bytes;
use pixels_exec::{execute, ExecContext};
use pixels_planner::plan_query;
use pixels_storage::{Encoding, InMemoryObjectStore, PixelsReader, PixelsWriter};
use pixels_workload::tpch::{generate_orders_lineitem, lineitem_schema};
use pixels_workload::TpchConfig;

fn main() {
    println!("== X2 (ablations): storage design choices ==\n");
    let cfg = TpchConfig {
        scale: 0.004,
        seed: 42,
        row_group_rows: 4096,
        files_per_table: 1,
    };
    let (_, lineitem) = generate_orders_lineitem(&cfg).expect("generate");

    // -- 1. Adaptive encodings vs forced plain -------------------------------
    let store = InMemoryObjectStore::new();
    let mut w = PixelsWriter::new(&store, "adaptive.pxl", lineitem_schema());
    w.write_batch(&lineitem).unwrap();
    let adaptive = w.finish().unwrap();
    let mut w = PixelsWriter::new(&store, "plain.pxl", lineitem_schema())
        .with_encoding_override(Encoding::Plain);
    w.write_batch(&lineitem).unwrap();
    let plain = w.finish().unwrap();

    let mut t = TextTable::new(&["encoding policy", "lineitem file size", "vs plain"]);
    t.row(&["forced plain".into(), format_bytes(plain), "1.00x".into()]);
    t.row(&[
        "adaptive (RLE/dictionary/plain per chunk)".into(),
        format_bytes(adaptive),
        format!("{:.2}x", adaptive as f64 / plain as f64),
    ]);
    t.print();
    assert!(
        (adaptive as f64) < plain as f64 * 0.85,
        "adaptive encodings must save ≥15% on lineitem (mostly-unique numeric columns cap the win)"
    );

    // Verify both files decode identically.
    let a = PixelsReader::open(&store, "adaptive.pxl").unwrap();
    let p = PixelsReader::open(&store, "plain.pxl").unwrap();
    assert_eq!(
        pixels_common::RecordBatch::concat(&a.read_all(None, &[]).unwrap()).unwrap(),
        pixels_common::RecordBatch::concat(&p.read_all(None, &[]).unwrap()).unwrap(),
    );

    // -- 2. Zone maps and 3. projection pushdown, on a real query ------------
    let (catalog, store) = pixels_bench::demo_data(0.004);
    let queries = [
        (
            "selective date predicate",
            "SELECT l_quantity FROM lineitem WHERE l_shipdate >= DATE '1998-06-01'",
            "SELECT * FROM lineitem",
        ),
        (
            "point lookup by key",
            "SELECT o_totalprice FROM orders WHERE o_orderkey = 17",
            "SELECT * FROM orders",
        ),
    ];
    let mut t = TextTable::new(&[
        "query",
        "bytes scanned (pushdown on)",
        "bytes scanned (full table)",
        "saving",
        "row groups read / total",
    ]);
    for (name, optimized, baseline) in queries {
        let scan = |sql: &str| {
            let plan = plan_query(&catalog, "tpch", sql).unwrap();
            let ctx = ExecContext::new(store.clone());
            execute(&plan, &ctx).unwrap();
            let m = ctx.metrics.snapshot();
            (m.bytes_scanned, m.row_groups_read, m.row_groups_total)
        };
        let (opt_bytes, rg_read, rg_total) = scan(optimized);
        let (full_bytes, _, _) = scan(baseline);
        t.row(&[
            name.to_string(),
            format_bytes(opt_bytes),
            format_bytes(full_bytes),
            format!("{:.1}x", full_bytes as f64 / opt_bytes as f64),
            format!("{rg_read} / {rg_total}"),
        ]);
        assert!(
            opt_bytes * 2 < full_bytes,
            "{name}: pushdown should at least halve scanned bytes"
        );
    }
    t.print();
    println!(
        "\nAll three mechanisms reduce the column-chunk bytes a scan reads, which is \
         exactly the quantity the $/TB price model bills."
    );
    println!("x2_storage_ablations: OK");
}
