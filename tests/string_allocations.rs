//! Decoding and selecting string rows allocates per column, not per row.
//!
//! In a binary of its own, under a counting `#[global_allocator]` (the count
//! is per thread, and each test runs on one): the number of heap allocations
//! made by `decode_filtered` of a dictionary chunk and of a plain string
//! chunk under a row selection, and by `select` + `gather` + `slice` on the
//! result, is the same small number at 512 rows and at 4,096; and
//! `decode_filtered` of a plain fixed-width chunk allocates the kept rows'
//! payload, and their validity words when the chunk has NULLs, and nothing
//! else.

use pixelsdb::common::{Column, DataType, Field, RecordBatch, Schema, Selection, Value};
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

/// Allocations of `decode_filtered` (half the rows) and of `select`,
/// `gather` and `slice` on what it returned, per chunk.
fn count(rows: usize) -> Vec<[usize; 4]> {
    let selection = Selection::from_fn(rows, |i| i % 2 == 0);
    let kept = rows / 2;
    let second = Selection::from_fn(kept, |i| i % 3 != 0);
    let picks: Vec<usize> = (0..kept).map(|i| (i * 7) % kept).collect();
    chunks(rows)
        .iter()
        .map(|chunk| {
            let (col, decode): (Column, _) =
                allocations_of(|| chunk.decode_filtered(&selection).unwrap());
            assert_eq!(col.len(), kept);
            let (_, select) = allocations_of(|| col.select(&second).unwrap());
            let (_, gather) = allocations_of(|| col.gather(&picks).unwrap());
            let (_, slice) = allocations_of(|| col.slice(kept / 4, kept / 2).unwrap());
            [decode, select, gather, slice]
        })
        .collect()
}

#[test]
fn string_decode_and_selection_allocate_per_column_not_per_row() {
    let (small, large) = (count(512), count(4096));
    assert_eq!(small, large, "allocation counts depend on the row count");
    for (chunk, counts) in ["dictionary", "plain"].iter().zip(&large) {
        let [decode, select, gather, slice] = *counts;
        assert!(
            decode <= 12,
            "{chunk}: decode_filtered made {decode} allocations"
        );
        for (op, n) in [("select", select), ("gather", gather), ("slice", slice)] {
            assert!(n <= 3, "{chunk}: {op} made {n} allocations");
        }
    }
}

/// A plain fixed-width chunk is not decoded whole and then compacted: the
/// kept rows are read straight out of the payload into the one vector the
/// column keeps, and a nullable chunk's validity words into one more.
#[test]
fn fixed_width_decode_filtered_allocates_its_payload_once() {
    let rows = 4096usize;
    let schema = Arc::new(Schema::new(vec![
        Field::required("i32", DataType::Int32),
        Field::required("i64", DataType::Int64),
        Field::required("f64", DataType::Float64),
        Field::required("date", DataType::Date),
        Field::required("ts", DataType::Timestamp),
        Field::nullable("i32?", DataType::Int32),
        Field::nullable("i64?", DataType::Int64),
        Field::nullable("f64?", DataType::Float64),
        Field::nullable("date?", DataType::Date),
        Field::nullable("ts?", DataType::Timestamp),
    ]));
    // Neighbouring rows differ, so the writer has no runs to encode. Every
    // third row of the nullable copies is NULL, kept rows among them.
    let values: Vec<Vec<Value>> = (0..rows as i64)
        .map(|i| {
            let v = i * 7919 % 1009;
            let row = [
                Value::Int32(v as i32),
                Value::Int64(v << 33),
                Value::Float64(v as f64 / 8.0),
                Value::Date(9000 + v as i32),
                Value::Timestamp(v * 1_000_003),
            ];
            let nullable = row
                .clone()
                .map(|x| if i % 3 == 0 { Value::Null } else { x });
            row.into_iter().chain(nullable).collect()
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
        let keep = |i: usize| i % kept_every == 1;
        let selection = Selection::from_fn(rows, keep);
        for (c, chunk) in chunks.iter().enumerate() {
            let field = &schema.fields()[c];
            assert_eq!(chunk.encoding(), Encoding::Plain, "{}", field.name);
            let (col, allocations) = allocations_of(|| chunk.decode_filtered(&selection).unwrap());
            let kept: Vec<Value> = (0..rows)
                .filter(|&i| keep(i))
                .map(|i| values[i][c].clone())
                .collect();
            let expected = Column::from_values(field.data_type, &kept).unwrap();
            assert_eq!(col, expected, "{}", field.name);
            assert_eq!(col.null_count() > 0, field.nullable, "{}", field.name);
            let payload_and_validity = 1 + usize::from(field.nullable);
            assert_eq!(allocations, payload_and_validity, "{} ({name})", field.name);
        }
    }
}
