//! Decoding and selecting string rows allocates per column, not per row.
//!
//! In a binary of its own, under a counting `#[global_allocator]` (the count
//! is per thread, and each test runs on one): the number of heap allocations
//! made by `decode_filtered` of a dictionary chunk and of a plain string
//! chunk, and by `filter` + `gather` + `slice` on the result, is the same
//! small number at 512 rows and at 4,096; and `decode_filtered` of a plain
//! fixed-width chunk allocates the kept rows' payload and nothing else.

use pixelsdb::common::{Column, DataType, Field, RecordBatch, Schema, Value};
use pixelsdb::storage::{EncodedChunk, Encoding, InMemoryObjectStore, PixelsReader, PixelsWriter};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the only
// addition is a thread-local counter with a `const` initializer, which needs
// no allocation or lazy set-up to touch.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_of<T>(work: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// The two string chunks of one `rows`-row row group: a nullable
/// low-cardinality column (dictionary) and an all-distinct one (plain).
fn chunks(rows: usize) -> Vec<EncodedChunk> {
    let schema = Arc::new(Schema::new(vec![
        Field::nullable("status", DataType::Utf8),
        Field::required("comment", DataType::Utf8),
    ]));
    let values: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            let status = if i % 11 == 0 {
                Value::Null
            } else {
                Value::Utf8(format!("status-{}", i % 16))
            };
            vec![status, Value::Utf8(format!("comment number {i} of many"))]
        })
        .collect();
    let batch = RecordBatch::from_rows(schema.clone(), &values).unwrap();
    let store = InMemoryObjectStore::new();
    let mut w = PixelsWriter::with_row_group_rows(&store, "t.pxl", schema, rows);
    w.write_batch(&batch).unwrap();
    w.finish().unwrap();
    let reader = PixelsReader::open(&store, "t.pxl").unwrap();
    let chunks = reader.fetch_row_group(0, None, None).unwrap().chunks;
    assert_eq!(chunks[0].encoding(), Encoding::Dictionary);
    assert_eq!(chunks[1].encoding(), Encoding::Plain);
    chunks
}

/// Allocations of `decode_filtered` (half the rows) and of `filter`,
/// `gather` and `slice` on what it returned, per chunk.
fn count(rows: usize) -> Vec<[usize; 4]> {
    let mask: Vec<bool> = (0..rows).map(|i| i % 2 == 0).collect();
    let kept = rows / 2;
    let second: Vec<bool> = (0..kept).map(|i| i % 3 != 0).collect();
    let picks: Vec<usize> = (0..kept).map(|i| (i * 7) % kept).collect();
    chunks(rows)
        .iter()
        .map(|chunk| {
            let (col, decode): (Column, _) =
                allocations_of(|| chunk.decode_filtered(&mask).unwrap());
            assert_eq!(col.len(), kept);
            let (_, filter) = allocations_of(|| col.filter(&second).unwrap());
            let (_, gather) = allocations_of(|| col.gather(&picks).unwrap());
            let (_, slice) = allocations_of(|| col.slice(kept / 4, kept / 2).unwrap());
            [decode, filter, gather, slice]
        })
        .collect()
}

#[test]
fn string_decode_and_selection_allocate_per_column_not_per_row() {
    let (small, large) = (count(512), count(4096));
    assert_eq!(small, large, "allocation counts depend on the row count");
    for (chunk, counts) in ["dictionary", "plain"].iter().zip(&large) {
        let [decode, filter, gather, slice] = *counts;
        assert!(
            decode <= 12,
            "{chunk}: decode_filtered made {decode} allocations"
        );
        for (op, n) in [("filter", filter), ("gather", gather), ("slice", slice)] {
            assert!(n <= 3, "{chunk}: {op} made {n} allocations");
        }
    }
}

/// A plain fixed-width chunk is not decoded whole and then compacted: the
/// kept rows are read straight out of the payload into the one vector the
/// column keeps.
#[test]
fn fixed_width_decode_filtered_allocates_its_payload_once() {
    let rows = 4096usize;
    let schema = Arc::new(Schema::new(vec![
        Field::required("i32", DataType::Int32),
        Field::required("i64", DataType::Int64),
        Field::required("f64", DataType::Float64),
        Field::required("date", DataType::Date),
        Field::required("ts", DataType::Timestamp),
    ]));
    // Neighbouring rows differ, so the writer has no runs to encode.
    let values: Vec<Vec<Value>> = (0..rows as i64)
        .map(|i| {
            let v = i * 7919 % 1009;
            vec![
                Value::Int32(v as i32),
                Value::Int64(v << 33),
                Value::Float64(v as f64 / 8.0),
                Value::Date(9000 + v as i32),
                Value::Timestamp(v * 1_000_003),
            ]
        })
        .collect();
    let batch = RecordBatch::from_rows(schema.clone(), &values).unwrap();
    let store = InMemoryObjectStore::new();
    let mut w = PixelsWriter::with_row_group_rows(&store, "t.pxl", schema.clone(), rows);
    w.write_batch(&batch).unwrap();
    w.finish().unwrap();
    let reader = PixelsReader::open(&store, "t.pxl").unwrap();
    let chunks = reader.fetch_row_group(0, None, None).unwrap().chunks;
    for (name, kept_every) in [("1 % kept", 100), ("50 % kept", 2)] {
        let mask: Vec<bool> = (0..rows).map(|i| i % kept_every == 1).collect();
        for (c, chunk) in chunks.iter().enumerate() {
            let field = &schema.fields()[c].name;
            assert_eq!(chunk.encoding(), Encoding::Plain, "{field}");
            let (col, allocations) = allocations_of(|| chunk.decode_filtered(&mask).unwrap());
            assert_eq!(col, batch.column(c).filter(&mask).unwrap(), "{field}");
            assert_eq!(allocations, 1, "{field} ({name})");
        }
    }
}
