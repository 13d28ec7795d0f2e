//! Grouping over a table scan holds the morsels in flight, not the table.
//!
//! In a binary of its own, under a `#[global_allocator]` that keeps a
//! process-wide count of live heap bytes and their peak: at parallelism 1,
//! over a `lineitem` of 64 row groups, each of these peaks below 1.5 times
//! what it peaks at over one of 16 row groups:
//!
//! - a grouped, filtered SUM (q1's shape);
//! - the aggregate exchange's stage 0 for that same aggregate, spilling 4
//!   partitions;
//! - a filtered DISTINCT of q1's two group keys.
//!
//! An executor that decodes the whole scan before grouping peaks about four
//! times as high on the larger table.

use pixelsdb::catalog::{Catalog, CreateTable};
use pixelsdb::exec::{exchange, execute, ExecContext};
use pixelsdb::planner::{plan_query, plan_shuffle, ShuffleKind};
use pixelsdb::storage::{
    FooterCache, InMemoryObjectStore, ObjectStoreRef, PixelsReader, PixelsWriter,
};
use pixelsdb::workload::tpch::{generate_orders_lineitem, lineitem_schema};
use pixelsdb::workload::TpchConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Debug;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

struct Counting;

/// Live heap bytes, and the most there were since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The count is process-wide, so the tests take turns: each holds this for
/// all of its run.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

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

/// q1's group keys under the same filter, as a DISTINCT.
const DISTINCT_SQL: &str = "SELECT DISTINCT l_returnflag, l_linestatus FROM lineitem \
                            WHERE l_shipdate <= DATE '1998-09-01'";

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

/// The peak of live heap bytes above the start while `run` runs at
/// parallelism 1, after a first run has cached its files' footers. Both runs
/// must agree.
fn peak_bytes<R: PartialEq + Debug>(
    store: &ObjectStoreRef,
    run: impl Fn(&ExecContext) -> R,
) -> usize {
    let footers = FooterCache::shared();
    let ctx = || {
        ExecContext::new(store.clone())
            .with_parallelism(1)
            .with_footer_cache(footers.clone())
    };
    let warm = run(&ctx());
    let ctx = ctx();
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let out = run(&ctx);
    let peak = PEAK.load(Ordering::Relaxed) - start;
    assert_eq!(out, warm);
    peak
}

/// On the fixture, `peak(.., db)` over 64 row groups stays below 1.5 times
/// `peak(.., db)` over 16.
fn assert_peaks_with_the_morsel(
    what: &str,
    peak: impl Fn(&Catalog, &ObjectStoreRef, &str) -> usize,
) {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (catalog, store) = fixture();
    let (small, large) = (peak(&catalog, &store, "g16"), peak(&catalog, &store, "g64"));
    assert!(
        (large as f64) < 1.5 * small as f64,
        "{what}: peak heap above the start: {small} bytes over 16 row groups, {large} over 64"
    );
}

/// The peak while `sql` runs through `execute` on `db`.
fn query_peak(catalog: &Catalog, store: &ObjectStoreRef, sql: &str, db: &str) -> usize {
    let plan = plan_query(catalog, db, sql).unwrap();
    peak_bytes(store, |ctx| execute(&plan, ctx).unwrap())
}

#[test]
fn aggregate_over_a_scan_peaks_with_the_morsel_not_the_table() {
    assert_peaks_with_the_morsel("aggregate", |catalog, store, db| {
        query_peak(catalog, store, SQL, db)
    });
}

/// Stage 0 of the aggregate exchange folds the scan as the in-process
/// aggregate does, and spills its 4 partitions into an in-memory store.
#[test]
fn exchange_stage_zero_over_a_scan_peaks_with_the_morsel_not_the_table() {
    assert_peaks_with_the_morsel("stage 0", |catalog, store, db| {
        let plan = plan_query(catalog, db, SQL).unwrap();
        let cut = plan_shuffle(&plan, "shuffle/mv.pxl", 4).expect("an aggregate cut");
        let ShuffleKind::Aggregate {
            input,
            group_exprs,
            aggs,
            ..
        } = &cut.kind
        else {
            panic!("{db}: the cut is not the aggregate: {:?}", cut.kind);
        };
        peak_bytes(store, |ctx| {
            let spill = InMemoryObjectStore::shared();
            exchange::write_agg_partitions(input, group_exprs, aggs, ctx, spill.as_ref(), "agg/", 4)
                .unwrap()
        })
    });
}

#[test]
fn distinct_over_a_scan_peaks_with_the_morsel_not_the_table() {
    assert_peaks_with_the_morsel("DISTINCT", |catalog, store, db| {
        query_peak(catalog, store, DISTINCT_SQL, db)
    });
}
