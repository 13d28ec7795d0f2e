//! Sorting and top-k selection.
//!
//! Both operators are late-materialized: sort keys are evaluated once into
//! columns, a *permutation* of row indices is sorted (or heap-selected)
//! against typed column views, and output batches are assembled with one
//! gather per column — no per-row `Vec<Value>` key tuples or builder
//! pushes. The comparator reproduces `Value::total_cmp` exactly: NULLs
//! first (then direction reversal), floats by `f64::total_cmp`, everything
//! else — integers included — by its natural ordering.

use crate::evaluate::{evaluate_ref, NumSlice};
use pixels_common::{Column, ColumnData, RecordBatch, Result, StrVec};
use pixels_planner::BoundExpr;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Typed view of one evaluated sort-key column plus its direction.
struct SortKey<'a> {
    col: &'a Column,
    asc: bool,
    view: View<'a>,
}

enum View<'a> {
    Num(NumSlice<'a>),
    Bool(&'a [bool]),
    Str(&'a StrVec),
    Date(&'a [i32]),
    Ts(&'a [i64]),
}

impl<'a> SortKey<'a> {
    fn new(col: &'a Column, asc: bool) -> SortKey<'a> {
        let view = match col.data() {
            ColumnData::Boolean(v) => View::Bool(v),
            ColumnData::Utf8(v) => View::Str(v),
            ColumnData::Date(v) => View::Date(v),
            ColumnData::Timestamp(v) => View::Ts(v),
            data => View::Num(NumSlice::of(data).expect("numeric column data")),
        };
        SortKey { col, asc, view }
    }

    /// `Value::total_cmp` of rows `a` and `b` of this key column, with the
    /// direction reversal applied *after* NULL ordering — exactly how the
    /// row-at-a-time comparator behaved (NULLs first ascending, last
    /// descending).
    fn compare(&self, a: usize, b: usize) -> Ordering {
        let ord = match (self.col.is_null(a), self.col.is_null(b)) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => match &self.view {
                View::Num(ns) => ns.compare(a, b),
                View::Bool(v) => v[a].cmp(&v[b]),
                View::Str(v) => v.get(a).cmp(v.get(b)),
                View::Date(v) => v[a].cmp(&v[b]),
                View::Ts(v) => v[a].cmp(&v[b]),
            },
        };
        if self.asc {
            ord
        } else {
            ord.reverse()
        }
    }
}

fn compare_rows(keys: &[SortKey<'_>], a: usize, b: usize) -> Ordering {
    for k in keys {
        let ord = k.compare(a, b);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Coalesce the input into one gather source (borrowing the common
/// single-batch case).
fn coalesce(input: &[RecordBatch]) -> Result<std::borrow::Cow<'_, RecordBatch>> {
    Ok(match input {
        [single] => std::borrow::Cow::Borrowed(single),
        many => std::borrow::Cow::Owned(RecordBatch::concat(many)?),
    })
}

/// Emit `rows` of `source` in `batch_size` chunks, one gather per column.
fn gather_chunks(
    source: &RecordBatch,
    rows: &[usize],
    batch_size: usize,
) -> Result<Vec<RecordBatch>> {
    let chunk = batch_size.max(1);
    let mut out = Vec::with_capacity(rows.len().div_ceil(chunk));
    for c in rows.chunks(chunk) {
        out.push(source.gather(c)?);
    }
    Ok(out)
}

/// Full sort of materialized input: stable permutation sort over the
/// evaluated key columns, then a columnar gather of the permutation.
pub fn execute_sort(
    input: &[RecordBatch],
    keys: &[(BoundExpr, bool)],
    batch_size: usize,
) -> Result<Vec<RecordBatch>> {
    if input.is_empty() {
        return Ok(Vec::new());
    }
    let source = coalesce(input)?;
    let key_cols: Vec<Cow<Column>> = keys
        .iter()
        .map(|(k, _)| evaluate_ref(k, &source))
        .collect::<Result<_>>()?;
    let sort_keys: Vec<SortKey> = key_cols
        .iter()
        .zip(keys)
        .map(|(c, &(_, asc))| SortKey::new(c, asc))
        .collect();
    let mut perm: Vec<usize> = (0..source.num_rows()).collect();
    perm.sort_by(|&a, &b| compare_rows(&sort_keys, a, b));
    gather_chunks(&source, &perm, batch_size)
}

/// Top-k selection: the first `fetch` rows of the sorted order, without
/// sorting the full input. Uses a bounded max-heap of row indices; ties
/// break by row position to keep the selection stable.
pub fn execute_topk(
    input: &[RecordBatch],
    keys: &[(BoundExpr, bool)],
    fetch: usize,
    batch_size: usize,
) -> Result<Vec<RecordBatch>> {
    let Some(first) = input.first() else {
        return Ok(Vec::new());
    };
    if fetch == 0 {
        return Ok(vec![RecordBatch::empty(first.schema().clone())]);
    }
    let source = coalesce(input)?;
    let key_cols: Vec<Cow<Column>> = keys
        .iter()
        .map(|(k, _)| evaluate_ref(k, &source))
        .collect::<Result<_>>()?;
    let sort_keys: Vec<SortKey> = key_cols
        .iter()
        .zip(keys)
        .map(|(c, &(_, asc))| SortKey::new(c, asc))
        .collect();

    // Wrap row indices so BinaryHeap's max == worst retained row.
    struct Entry<'k, 'c> {
        row: usize,
        keys: &'k [SortKey<'c>],
    }
    impl Ord for Entry<'_, '_> {
        fn cmp(&self, other: &Self) -> Ordering {
            compare_rows(self.keys, self.row, other.row).then(self.row.cmp(&other.row))
        }
    }
    impl PartialOrd for Entry<'_, '_> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl PartialEq for Entry<'_, '_> {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl Eq for Entry<'_, '_> {}

    let mut heap: BinaryHeap<Entry> = BinaryHeap::with_capacity(fetch + 1);
    for row in 0..source.num_rows() {
        heap.push(Entry {
            row,
            keys: &sort_keys,
        });
        if heap.len() > fetch {
            heap.pop(); // evict the worst retained row
        }
    }
    let mut rows: Vec<usize> = heap.into_iter().map(|e| e.row).collect();
    rows.sort_by(|&a, &b| compare_rows(&sort_keys, a, b).then(a.cmp(&b)));
    gather_chunks(&source, &rows, batch_size)
}

/// LIMIT/OFFSET over materialized batches.
pub fn execute_limit(
    input: Vec<RecordBatch>,
    limit: Option<u64>,
    offset: u64,
) -> Result<Vec<RecordBatch>> {
    let mut out = Vec::new();
    let mut to_skip = offset as usize;
    let mut remaining = limit.map(|l| l as usize);
    for batch in input {
        if remaining == Some(0) {
            break;
        }
        let mut b = batch;
        if to_skip > 0 {
            if to_skip >= b.num_rows() {
                to_skip -= b.num_rows();
                continue;
            }
            b = b.slice(to_skip, b.num_rows() - to_skip)?;
            to_skip = 0;
        }
        if let Some(rem) = remaining {
            if b.num_rows() > rem {
                b = b.slice(0, rem)?;
            }
            remaining = Some(rem - b.num_rows());
        }
        if b.num_rows() > 0 {
            out.push(b);
        }
    }
    Ok(out)
}
