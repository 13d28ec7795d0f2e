//! An aggregate over a table scan holds the morsels in flight, not the table.
//!
//! In a binary of its own, under a `#[global_allocator]` that keeps a
//! process-wide count of live heap bytes and their peak: at parallelism 1, a
//! grouped, filtered SUM over a `lineitem` of 64 row groups peaks below
//! 1.5 times what the same query peaks at over one of 16 row groups. An
//! executor that decodes the whole scan before aggregating peaks about four
//! times as high on the larger table.

use pixelsdb::catalog::{Catalog, CreateTable};
use pixelsdb::exec::{execute, ExecContext};
use pixelsdb::planner::plan_query;
use pixelsdb::storage::{
    FooterCache, InMemoryObjectStore, ObjectStoreRef, PixelsReader, PixelsWriter,
};
use pixelsdb::workload::tpch::{generate_orders_lineitem, lineitem_schema};
use pixelsdb::workload::TpchConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct Counting;

/// Live heap bytes, and the most there were since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to the system allocator; the only
// addition is two atomic counters, which need no allocation to touch.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Rows per row group: one morsel.
const ROW_GROUP_ROWS: usize = 2048;

/// q1's shape: a filter pushed into the scan, two group keys and a SUM.
const SQL: &str = "SELECT l_returnflag, l_linestatus, SUM(l_extendedprice) AS revenue \
                   FROM lineitem WHERE l_shipdate <= DATE '1998-09-01' \
                   GROUP BY l_returnflag, l_linestatus";

/// Databases `g16` and `g64`, each with a `lineitem` of that many row groups:
/// the same 16 row groups of generated rows, written once and four times.
fn fixture() -> (Arc<Catalog>, ObjectStoreRef) {
    let catalog = Catalog::shared();
    let store: ObjectStoreRef = InMemoryObjectStore::shared();
    let cfg = TpchConfig {
        scale: 0.007,
        ..TpchConfig::default()
    };
    let (_, lineitem) = generate_orders_lineitem(&cfg).unwrap();
    let rows = 16 * ROW_GROUP_ROWS;
    assert!(lineitem.num_rows() >= rows, "{} rows", lineitem.num_rows());
    let lineitem = lineitem.slice(0, rows).unwrap();
    for (db, copies) in [("g16", 1), ("g64", 4)] {
        catalog.create_database(db);
        catalog
            .create_table(CreateTable {
                database: db.into(),
                name: "lineitem".into(),
                schema: lineitem_schema(),
                primary_key: None,
                foreign_keys: vec![],
                comment: None,
            })
            .unwrap();
        let path = format!("{db}/lineitem/part-0.pxl");
        let mut w = PixelsWriter::with_row_group_rows(
            store.as_ref(),
            &path,
            lineitem_schema(),
            ROW_GROUP_ROWS,
        );
        for _ in 0..copies {
            w.write_batch(&lineitem).unwrap();
        }
        let size = w.finish().unwrap();
        let reader = PixelsReader::open(store.as_ref(), &path).unwrap();
        assert_eq!(reader.num_row_groups(), 16 * copies, "{db}");
        catalog
            .register_data_file(db, "lineitem", &path, reader.footer(), size)
            .unwrap();
    }
    (catalog, store)
}

/// The peak of live heap bytes above the start while `SQL` runs on `db` at
/// parallelism 1, with its files' footers already cached.
fn peak_bytes(catalog: &Catalog, store: &ObjectStoreRef, db: &str) -> usize {
    let plan = plan_query(catalog, db, SQL).unwrap();
    let footers = FooterCache::shared();
    let ctx = || {
        ExecContext::new(store.clone())
            .with_parallelism(1)
            .with_footer_cache(footers.clone())
    };
    let warm = execute(&plan, &ctx()).unwrap();
    let ctx = ctx();
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let out = execute(&plan, &ctx).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - start;
    assert_eq!(out, warm, "{db}");
    peak
}

#[test]
fn aggregate_over_a_scan_peaks_with_the_morsel_not_the_table() {
    let (catalog, store) = fixture();
    let small = peak_bytes(&catalog, &store, "g16");
    let large = peak_bytes(&catalog, &store, "g64");
    assert!(
        (large as f64) < 1.5 * small as f64,
        "peak heap above the start: {small} bytes over 16 row groups, {large} over 64"
    );
}
