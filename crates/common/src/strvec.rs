//! The payload of a `Utf8` column: a shared string pool plus one `u32` per
//! row.
//!
//! A [`StrPool`] is a run of strings laid end to end in one buffer; a
//! [`StrVec`] is a column's worth of rows, each naming one pool entry. The
//! pool sits behind an `Arc` and is never written again once a `StrVec`
//! holds it, so selecting rows (`filter`, `gather`, `slice`) moves `u32`s
//! and bumps a reference count — no string is copied, no allocation is made
//! per row. A dictionary-encoded chunk decodes straight into this form (pool
//! = its dictionary, indices = its codes); a plain chunk decodes to a pool
//! of its values with indices `0..n`.
//!
//! Only [`StrVec::concat`] copies string bytes, and what it returns never
//! names a pool with more entries than the result has rows: that is the rule
//! that keeps a small retained result from pinning a large pool (every
//! retained result is the output of a `concat`).

use crate::error::{Error, Result};
use std::fmt;
use std::sync::Arc;

/// Strings stored back to back. Entries only enter as `&str`, so every entry
/// is valid UTF-8 and starts and ends on a character boundary.
#[derive(Default)]
pub struct StrPool {
    data: String,
    /// `ends[i]` is where entry `i` ends in `data`; it starts where entry
    /// `i - 1` ends.
    ends: Vec<u32>,
}

impl StrPool {
    pub fn new() -> StrPool {
        StrPool::default()
    }

    /// A pool with room for `entries` strings totalling `bytes` bytes.
    pub fn with_capacity(entries: usize, bytes: usize) -> StrPool {
        StrPool {
            data: String::with_capacity(bytes),
            ends: Vec::with_capacity(entries),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Total bytes of string data held.
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// Append one entry and return its index. Offsets and indices are `u32`:
    /// a pool holds under 4 GiB of text in under `u32::MAX` entries.
    pub fn push(&mut self, s: &str) -> Result<u32> {
        let end = u32::try_from(self.data.len() + s.len());
        let index = u32::try_from(self.ends.len());
        match (index, end) {
            (Ok(index), Ok(end)) if index != StrVec::NO_ENTRY => {
                self.data.push_str(s);
                self.ends.push(end);
                Ok(index)
            }
            _ => Err(Error::Invalid(
                "string pool would exceed 4 GiB or 2^32 entries".into(),
            )),
        }
    }

    /// Entry `i`. Panics when `i` is out of range, like slice indexing.
    #[inline]
    pub fn get(&self, i: u32) -> &str {
        let i = i as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.data[start..self.ends[i] as usize]
    }

    /// Every entry, in index order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.ends.len() as u32).map(|i| self.get(i))
    }
}

/// One `u32` pool index per row over a shared [`StrPool`].
#[derive(Clone)]
pub struct StrVec {
    pool: Arc<StrPool>,
    idx: Vec<u32>,
}

impl StrVec {
    /// The index of a row that names no pool entry; it reads as `""`. This
    /// is what a NULL row holds, so null-extending a column never needs a
    /// writable pool.
    pub const NO_ENTRY: u32 = u32::MAX;

    /// Rows `idx` over `pool`; every index must name an entry or be
    /// [`StrVec::NO_ENTRY`].
    pub fn new(pool: Arc<StrPool>, idx: Vec<u32>) -> Result<StrVec> {
        let n = pool.len();
        let out_of_range = |i: u32| i as usize >= n && i != StrVec::NO_ENTRY;
        // A branch-free pass first; the offender is only looked for on failure.
        if idx.iter().fold(false, |bad, &i| bad | out_of_range(i)) {
            let bad = idx.iter().find(|&&i| out_of_range(i)).expect("seen above");
            return Err(Error::Invalid(format!(
                "string index {bad} out of range ({n} entries)"
            )));
        }
        Ok(StrVec { pool, idx })
    }

    /// One row per pool entry, in entry order.
    pub fn from_pool(pool: StrPool) -> StrVec {
        let idx = (0..pool.len() as u32).collect();
        StrVec {
            pool: Arc::new(pool),
            idx,
        }
    }

    pub fn len(&self) -> usize {
        self.idx.len()
    }

    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// The string at `row`. Panics when `row` is out of range.
    #[inline]
    pub fn get(&self, row: usize) -> &str {
        self.entry(self.idx[row])
    }

    #[inline]
    fn entry(&self, i: u32) -> &str {
        if i == StrVec::NO_ENTRY {
            ""
        } else {
            self.pool.get(i)
        }
    }

    /// Every row's string, in row order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.idx.iter().map(|&i| self.entry(i))
    }

    pub fn pool(&self) -> &Arc<StrPool> {
        &self.pool
    }

    /// The per-row pool indices ([`StrVec::NO_ENTRY`] for a row without an
    /// entry).
    pub fn indices(&self) -> &[u32] {
        &self.idx
    }

    /// An empty vector with room for `rows` rows of its own.
    pub(crate) fn with_capacity(rows: usize) -> StrVec {
        StrVec {
            pool: Arc::new(StrPool::with_capacity(rows, 0)),
            idx: Vec::with_capacity(rows),
        }
    }

    /// Append a row holding a new pool entry `s`. Only a `ColumnBuilder`
    /// calls this, on a vector whose pool nothing else holds yet.
    pub(crate) fn push(&mut self, s: &str) -> Result<()> {
        let pool = Arc::get_mut(&mut self.pool).expect("a pool under construction is not shared");
        self.idx.push(pool.push(s)?);
        Ok(())
    }

    /// Append a row without an entry (the NULL placeholder).
    pub(crate) fn push_no_entry(&mut self) {
        self.idx.push(StrVec::NO_ENTRY);
    }

    /// The same pool under other rows. `idx` must come from this vector's
    /// own indices (plus `NO_ENTRY`), which is what keeps it in range.
    pub(crate) fn with_indices(&self, idx: Vec<u32>) -> StrVec {
        StrVec {
            pool: self.pool.clone(),
            idx,
        }
    }

    /// Concatenate `parts` row-wise. Parts that all share one pool no larger
    /// than the result keep sharing it and only their indices are appended;
    /// otherwise the strings the parts reference are copied into one new
    /// pool — once per entry for a part whose pool is no larger than the part
    /// (a dictionary stays a dictionary), once per row for a part that shows
    /// only some of a larger pool. Either way the result's pool has at most
    /// as many entries as the result has rows.
    pub fn concat(parts: &[&StrVec]) -> Result<StrVec> {
        let total: usize = parts.iter().map(|p| p.len()).sum();
        let mut idx = Vec::with_capacity(total);
        if let Some(first) = parts.first() {
            let shared = parts.iter().all(|p| Arc::ptr_eq(&p.pool, &first.pool));
            if shared && first.pool.len() <= total {
                for p in parts {
                    idx.extend_from_slice(&p.idx);
                }
                return Ok(first.with_indices(idx));
            }
        }
        let mut pool = StrPool::new();
        for p in parts {
            // Where each of this part's entries went in the new pool; not
            // kept for a part smaller than its pool.
            let mut moved = if p.pool.len() <= p.len() {
                vec![StrVec::NO_ENTRY; p.pool.len()]
            } else {
                Vec::new()
            };
            for &i in &p.idx {
                idx.push(if i == StrVec::NO_ENTRY {
                    i
                } else if let Some(slot) = moved.get_mut(i as usize) {
                    if *slot == StrVec::NO_ENTRY {
                        *slot = pool.push(p.pool.get(i))?;
                    }
                    *slot
                } else {
                    pool.push(p.pool.get(i))?
                });
            }
        }
        Ok(StrVec {
            pool: Arc::new(pool),
            idx,
        })
    }
}

impl Default for StrVec {
    fn default() -> Self {
        StrVec::from_pool(StrPool::new())
    }
}

/// Collect strings into a vector with one pool entry per row. Panics past
/// the pool's 4 GiB limit; fallible callers push into a `ColumnBuilder`.
impl<S: AsRef<str>> FromIterator<S> for StrVec {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        let mut pool = StrPool::new();
        for s in iter {
            pool.push(s.as_ref()).expect("string pool within 4 GiB");
        }
        StrVec::from_pool(pool)
    }
}

/// Row-wise string equality, whatever pools the two sides use.
impl PartialEq for StrVec {
    fn eq(&self, other: &Self) -> bool {
        if Arc::ptr_eq(&self.pool, &other.pool) && self.idx == other.idx {
            return true;
        }
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for StrVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}
