//! Reads Pixels-format objects with projection and zone-map pruning.
//!
//! Opening a file costs two ranged GETs: the head magic plus a single
//! speculative tail read of `min(file_size, 16 KiB)` that almost always
//! covers both the 12-byte trailer and the footer it points at (a third GET
//! happens only for oversized footers). With a shared [`FooterCache`] even
//! those reads are skipped on repeated opens. After that the reader fetches
//! only the column chunks a query projects, skipping whole row groups whose
//! zone maps prove no row can match the scan predicates, and it fetches them
//! vectored: [`PixelsReader::fetch_row_group`] is the one place chunk data is
//! read, and it issues one ranged GET per run of neighbouring chunks (see
//! [`COALESCE_GAP_BYTES`]). The reader reports exactly what a read bills
//! ([`PixelsReader::open_bytes`], [`PixelsReader::row_group_bytes`]); bytes
//! transferred only to bridge two chunks are counted apart and never billed.

use crate::encoded::EncodedChunk;
use crate::format::{ColumnChunkMeta, Footer, RowGroupMeta, MAGIC_HEAD, MAGIC_TAIL};
use crate::meta_cache::{ChunkCache, FileMeta, FooterCache};
use crate::object_store::ObjectStore;
use crate::stats::ColumnStats;
use bytes::Bytes;
use pixels_common::{Column, Error, RecordBatch, Result, SchemaRef, Value};
use std::sync::Arc;

/// Size of the speculative tail read: one GET fetches the trailer and, for
/// any footer up to ~16 KiB, the footer itself.
pub const SPECULATIVE_TAIL_BYTES: u64 = 16 * 1024;

/// Two projected chunks of a row group whose file ranges lie at most this
/// far apart are fetched with one ranged GET, the bytes between them
/// transferred and thrown away. Bridging a gap of `g` bytes trades one
/// request for `g` bytes of transfer, which pays while
/// `g < per_request_us / per_mb_us` MB: about 1.3 MB under
/// [`crate::LatencyModel::default`] (15 ms a request, 11 ms a MB) and about
/// 45 KB under the benchmark's `remote_cold` store (0.5 ms a request).
/// 32 KiB sits below both, so a merge never costs time on either, and it is
/// one plain 8-byte column chunk of a 4096-row row group — the typical
/// unprojected neighbour.
pub const COALESCE_GAP_BYTES: u64 = 32 * 1024;

/// What one [`PixelsReader::fetch_row_group`] did to get its chunks.
/// Telemetry only: none of it reaches a bill.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// Chunks served by the [`ChunkCache`].
    pub cache_hits: u64,
    /// Of those, chunks whose memo already held their parsed dictionary or
    /// runs ([`EncodedChunk::memo_filled`]).
    pub memo_hits: u64,
    /// Chunks read from the store (every chunk, when there is no cache).
    pub cache_misses: u64,
    /// Ranged GETs issued: one per run of merged missing chunks.
    pub gets: u64,
    /// Bytes transferred between the chunks of merged runs. Provider
    /// traffic: never billed, never cached.
    pub gap_bytes: u64,
}

/// One row group's projected chunks, header-parsed and still encoded, in
/// projection order.
#[derive(Debug)]
pub struct RowGroupFetch {
    pub chunks: Vec<EncodedChunk>,
    pub stats: FetchStats,
}

/// A comparison predicate usable for zone-map pruning.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnPredicate {
    /// Column index in the file schema.
    pub column: usize,
    pub op: PredicateOp,
    pub value: Value,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredicateOp {
    Eq,
    Lt,
    LtEq,
    Gt,
    GtEq,
}

impl ColumnPredicate {
    /// Could any row in a chunk with these statistics satisfy the predicate?
    /// Conservative (never prunes a chunk that might match).
    pub fn may_match(&self, stats: &ColumnStats) -> bool {
        let (lower, upper) = match self.op {
            PredicateOp::Eq => (Some(&self.value), Some(&self.value)),
            PredicateOp::Lt | PredicateOp::LtEq => (None, Some(&self.value)),
            PredicateOp::Gt | PredicateOp::GtEq => (Some(&self.value), None),
        };
        stats.may_match_range(lower, upper)
    }

    /// Does *every* row in a chunk with these statistics satisfy the
    /// predicate? Conservative (`false` when unsure); a `true` lets the
    /// engine skip evaluating the predicate for the whole chunk.
    pub fn must_match(&self, stats: &ColumnStats) -> bool {
        let v = &self.value;
        let (lower, upper) = match self.op {
            PredicateOp::Eq => (Some((v, true)), Some((v, true))),
            PredicateOp::Lt => (None, Some((v, false))),
            PredicateOp::LtEq => (None, Some((v, true))),
            PredicateOp::Gt => (Some((v, false)), None),
            PredicateOp::GtEq => (Some((v, true)), None),
        };
        stats.must_match_range(lower, upper)
    }
}

/// An open Pixels file: parsed footer plus a handle to the store.
pub struct PixelsReader<'a> {
    store: &'a dyn ObjectStore,
    path: String,
    footer: Arc<Footer>,
    schema: SchemaRef,
    /// Object write generation at open time; keys chunk-cache entries and
    /// validates footer-cache entries (a same-size rewrite changes it).
    generation: u64,
    /// Bytes transferred from the store by this open (0 on a cache hit).
    open_bytes: u64,
    /// Whether the footer came from a [`FooterCache`] without store traffic.
    from_cache: bool,
}

impl<'a> PixelsReader<'a> {
    /// Open `path`, validating magic bytes and parsing the footer.
    pub fn open(store: &'a dyn ObjectStore, path: &str) -> Result<Self> {
        Self::open_inner(store, path, None, SPECULATIVE_TAIL_BYTES)
    }

    /// Like [`PixelsReader::open`], but consults (and populates) a shared
    /// footer cache. A hit skips every footer-range GET; the hit performs
    /// only the `size` lookup used to validate the entry.
    pub fn open_with_cache(
        store: &'a dyn ObjectStore,
        path: &str,
        cache: &FooterCache,
    ) -> Result<Self> {
        Self::open_inner(store, path, Some(cache), SPECULATIVE_TAIL_BYTES)
    }

    fn open_inner(
        store: &'a dyn ObjectStore,
        path: &str,
        cache: Option<&FooterCache>,
        tail_budget: u64,
    ) -> Result<Self> {
        let size = store.size(path)?;
        // The write generation (the etag stand-in) rules out a same-size
        // rewrite serving stale cached metadata or chunks.
        let generation = store.generation(path)?;
        let min = (MAGIC_HEAD.len() + 12) as u64;
        if size < min {
            return Err(Error::Storage(format!(
                "file {path} too small ({size} bytes) to be a Pixels file"
            )));
        }
        if let Some(cache) = cache {
            if let Some(meta) = cache.lookup(path, size, generation) {
                return Ok(PixelsReader {
                    store,
                    path: path.to_string(),
                    footer: meta.footer.clone(),
                    schema: meta.schema.clone(),
                    generation,
                    open_bytes: 0,
                    from_cache: true,
                });
            }
        }
        let head = store.get_range(path, 0, MAGIC_HEAD.len() as u64)?;
        if head.as_ref() != MAGIC_HEAD {
            return Err(Error::Storage(format!("bad magic in {path}")));
        }
        // Speculative tail read: the footer length is unknown until the
        // trailer is parsed, so fetch the last `tail_budget` bytes in one
        // GET; most footers fit and need no second request.
        let tail_len = size.min(tail_budget.max(12));
        let tail = store.get_range(path, size - tail_len, tail_len)?;
        let trailer = &tail[tail.len() - 12..];
        if &trailer[8..] != MAGIC_TAIL {
            return Err(Error::Storage(format!("bad trailing magic in {path}")));
        }
        let footer_len = u64::from_le_bytes(trailer[..8].try_into().unwrap());
        let needed = footer_len.checked_add(12 + MAGIC_HEAD.len() as u64);
        if needed.is_none_or(|n| n > size) {
            return Err(Error::Storage(format!("corrupt footer length in {path}")));
        }
        let mut open_bytes = MAGIC_HEAD.len() as u64 + tail_len;
        let footer = if footer_len + 12 <= tail_len {
            let start = tail.len() - 12 - footer_len as usize;
            Footer::decode(&tail[start..tail.len() - 12])?
        } else {
            // Footer larger than the speculative read: fetch the exact span.
            open_bytes += footer_len;
            let footer_bytes = store.get_range(path, size - 12 - footer_len, footer_len)?;
            Footer::decode(&footer_bytes)?
        };
        let footer = Arc::new(footer);
        let schema = Arc::new(footer.schema.clone());
        if let Some(cache) = cache {
            cache.insert(
                path,
                Arc::new(FileMeta {
                    footer: footer.clone(),
                    schema: schema.clone(),
                    size,
                    generation,
                    open_bytes,
                }),
            );
        }
        Ok(PixelsReader {
            store,
            path: path.to_string(),
            footer,
            schema,
            generation,
            open_bytes,
            from_cache: false,
        })
    }

    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    pub fn footer(&self) -> &Footer {
        &self.footer
    }

    /// Bytes this open transferred from the store (0 when the footer came
    /// from a cache). This is what a $/TB-scanned biller should charge for
    /// the open itself.
    pub fn open_bytes(&self) -> u64 {
        self.open_bytes
    }

    /// Whether the footer was served by a [`FooterCache`].
    pub fn from_cache(&self) -> bool {
        self.from_cache
    }

    /// Object write generation at open time.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    pub fn num_row_groups(&self) -> usize {
        self.footer.row_groups.len()
    }

    pub fn num_rows(&self) -> u64 {
        self.footer.num_rows()
    }

    /// Indices of row groups that survive zone-map pruning for `predicates`
    /// (a conjunction).
    pub fn prune_row_groups(&self, predicates: &[ColumnPredicate]) -> Vec<usize> {
        (0..self.footer.row_groups.len())
            .filter(|&rg| {
                predicates.iter().all(|p| {
                    p.column < self.schema.len()
                        // A row group listing fewer columns than the schema
                        // is kept: reading it reports the corrupt footer.
                        && self.footer.row_groups[rg]
                            .columns
                            .get(p.column)
                            .is_none_or(|m| p.may_match(&m.stats))
                })
            })
            .collect()
    }

    /// Bytes a read of `rg_index` under `projection` bills: the sum of the
    /// projected chunks' stored lengths. Lets callers meter scanned bytes
    /// exactly without consulting (racy, global) store counters, and
    /// independently of how the chunks were fetched — cache hits and the gap
    /// bytes of merged GETs change the store's traffic, never this number.
    /// Out-of-range indices contribute 0; the read itself reports the error.
    pub fn row_group_bytes(&self, rg_index: usize, projection: Option<&[usize]>) -> u64 {
        let Some(rg) = self.footer.row_groups.get(rg_index) else {
            return 0;
        };
        match projection {
            Some(p) => p
                .iter()
                .filter_map(|&c| rg.columns.get(c))
                .map(|m| m.len)
                .sum(),
            None => rg.columns.iter().map(|m| m.len).sum(),
        }
    }

    fn row_group(&self, rg_index: usize) -> Result<&RowGroupMeta> {
        self.footer
            .row_groups
            .get(rg_index)
            .ok_or_else(|| Error::Storage(format!("row group {rg_index} out of range")))
    }

    /// Metadata of the projected chunks of `rg`, in projection order (`None`
    /// projects every schema column). The footer is input from outside the
    /// program: a column the schema lacks, or one the row group does not
    /// list, is an error here rather than a panic further down.
    fn projected_chunks<'m>(
        &self,
        rg: &'m RowGroupMeta,
        projection: Option<&[usize]>,
    ) -> Result<Vec<(usize, &'m ColumnChunkMeta)>> {
        let chunk = |col: usize| {
            if col >= self.schema.len() {
                return Err(Error::Storage(format!(
                    "projected column {col} out of range"
                )));
            }
            let meta = rg.columns.get(col).ok_or_else(|| {
                Error::Storage(format!(
                    "corrupt footer in {}: a row group lists {} columns, the schema {}",
                    self.path,
                    rg.columns.len(),
                    self.schema.len()
                ))
            })?;
            Ok((col, meta))
        };
        match projection {
            Some(p) => p.iter().map(|&col| chunk(col)).collect(),
            None => (0..self.schema.len()).map(chunk).collect(),
        }
    }

    /// Whether `cache` holds every projected chunk of `rg_index`, so that
    /// fetching it would touch no store. A probe: it moves nothing in the
    /// cache and counts nothing. `false` for anything it cannot resolve —
    /// the fetch is what reports errors.
    pub fn row_group_resident(
        &self,
        rg_index: usize,
        projection: Option<&[usize]>,
        cache: &ChunkCache,
    ) -> bool {
        self.row_group(rg_index)
            .and_then(|rg| self.projected_chunks(rg, projection))
            .is_ok_and(|chunks| {
                cache.contains_all(
                    &self.path,
                    self.generation,
                    chunks.iter().map(|(_, meta)| meta.offset),
                )
            })
    }

    /// Fetch the projected chunks of one row group (`None` projects every
    /// column), header-parsed and still encoded, consulting and populating
    /// `cache` when given. Every read of chunk data goes through here.
    ///
    /// Chunks the cache holds cost nothing, and come with whatever their
    /// memo holds. The rest are sorted by file offset, neighbours at most
    /// [`COALESCE_GAP_BYTES`] apart are merged, and each merged run is one
    /// `get_range`, sliced back into per-chunk buffers without copying and
    /// parsed once, for this read and the cache alike. Billing is unaffected
    /// by any of it: scanned bytes are metered from chunk metadata
    /// ([`PixelsReader::row_group_bytes`]), not from store traffic.
    pub fn fetch_row_group(
        &self,
        rg_index: usize,
        projection: Option<&[usize]>,
        cache: Option<&ChunkCache>,
    ) -> Result<RowGroupFetch> {
        let rg = self.row_group(rg_index)?;
        let projected = self.projected_chunks(rg, projection)?;
        let mut stats = FetchStats::default();
        let mut out: Vec<Option<EncodedChunk>> = vec![None; projected.len()];
        // (offset, end, position in `projected`) of every chunk to read.
        let mut missing: Vec<(u64, u64, usize)> = Vec::new();
        for (pos, (_, meta)) in projected.iter().enumerate() {
            let cached = cache.and_then(|c| c.lookup(&self.path, self.generation, meta.offset));
            if let Some(chunk) = cached {
                stats.cache_hits += 1;
                stats.memo_hits += chunk.memo_filled() as u64;
                out[pos] = Some(chunk);
                continue;
            }
            let end = meta.offset.checked_add(meta.len).ok_or_else(|| {
                Error::Storage(format!(
                    "corrupt footer in {}: chunk range [{}, +{}) overflows",
                    self.path, meta.offset, meta.len
                ))
            })?;
            missing.push((meta.offset, end, pos));
            stats.cache_misses += 1;
        }
        missing.sort_unstable_by_key(|&(offset, ..)| offset);

        let mut runs = missing.as_slice();
        while let Some(&(start, mut end, _)) = runs.first() {
            let mut merged = 1;
            let mut gap_bytes = 0;
            while let Some(&(offset, chunk_end, _)) = runs.get(merged) {
                let gap = offset.saturating_sub(end);
                if gap > COALESCE_GAP_BYTES {
                    break;
                }
                gap_bytes += gap;
                end = end.max(chunk_end);
                merged += 1;
            }
            let reply = self.store.get_range(&self.path, start, end - start)?;
            if reply.len() as u64 != end - start {
                return Err(Error::Storage(format!(
                    "short read of {}: asked for {} bytes at {start}, got {}",
                    self.path,
                    end - start,
                    reply.len()
                )));
            }
            stats.gets += 1;
            stats.gap_bytes += gap_bytes;
            for &(offset, chunk_end, pos) in &runs[..merged] {
                let mut bytes =
                    reply.slice((offset - start) as usize..(chunk_end - start) as usize);
                // The cache's byte budget counts chunk bytes only. A slice
                // of a reply that also holds gap bytes would keep those
                // alive uncounted, so such a chunk is cached as its own
                // copy; a gapless reply is chunk bytes throughout, all
                // offered to the cache and ageing together.
                if cache.is_some() && gap_bytes > 0 {
                    bytes = Bytes::from(bytes.to_vec());
                }
                let (col, meta) = projected[pos];
                let chunk = EncodedChunk::parse(
                    bytes,
                    self.schema.field(col).data_type,
                    meta.encoding,
                    rg.num_rows as usize,
                )?;
                if let Some(cache) = cache {
                    cache.insert(&self.path, self.generation, offset, chunk.clone());
                }
                out[pos] = Some(chunk);
            }
            runs = &runs[merged..];
        }
        let chunks = out
            .into_iter()
            .map(|c| c.expect("every chunk was cached or read"))
            .collect();
        Ok(RowGroupFetch { chunks, stats })
    }

    /// Read one row group. `projection` selects columns by file-schema index
    /// (`None` reads all). Only the projected chunks are fetched from the
    /// store.
    pub fn read_row_group(
        &self,
        rg_index: usize,
        projection: Option<&[usize]>,
    ) -> Result<RecordBatch> {
        let columns = self
            .fetch_row_group(rg_index, projection, None)?
            .chunks
            .iter()
            .map(EncodedChunk::decode)
            .collect::<Result<Vec<Column>>>()?;
        let schema = match projection {
            Some(p) => Arc::new(self.schema.project(p)),
            None => self.schema.clone(),
        };
        RecordBatch::try_new(schema, columns)
    }

    /// Read the full table (all row groups, optional projection and pruning).
    pub fn read_all(
        &self,
        projection: Option<&[usize]>,
        predicates: &[ColumnPredicate],
    ) -> Result<Vec<RecordBatch>> {
        self.prune_row_groups(predicates)
            .into_iter()
            .map(|rg| self.read_row_group(rg, projection))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Encoding;
    use crate::object_store::InMemoryObjectStore;
    use crate::writer::{write_table, PixelsWriter};
    use bytes::Bytes;
    use pixels_common::{DataType, Field, Schema};

    fn schema() -> SchemaRef {
        Arc::new(Schema::new(vec![
            Field::required("id", DataType::Int64),
            Field::nullable("tag", DataType::Utf8),
            Field::required("price", DataType::Float64),
        ]))
    }

    fn batch(start: i64, n: usize) -> RecordBatch {
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                vec![
                    Value::Int64(start + i as i64),
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Utf8(format!("tag{}", i % 4))
                    },
                    Value::Float64((start + i as i64) as f64 * 0.5),
                ]
            })
            .collect();
        RecordBatch::from_rows(schema(), &rows).unwrap()
    }

    fn write_sample_from(store: &InMemoryObjectStore, rg_rows: usize, start: i64, total: usize) {
        let mut w = PixelsWriter::with_row_group_rows(store, "t.pxl", schema(), rg_rows);
        w.write_batch(&batch(start, total)).unwrap();
        w.finish().unwrap();
    }

    fn write_sample(store: &InMemoryObjectStore, rg_rows: usize, total: usize) {
        write_sample_from(store, rg_rows, 0, total);
    }

    #[test]
    fn full_roundtrip() {
        let store = InMemoryObjectStore::new();
        write_sample(&store, 100, 250);
        let reader = PixelsReader::open(&store, "t.pxl").unwrap();
        assert_eq!(reader.num_rows(), 250);
        assert_eq!(reader.num_row_groups(), 3);
        let batches = reader.read_all(None, &[]).unwrap();
        let all = RecordBatch::concat(&batches).unwrap();
        assert_eq!(all.num_rows(), 250);
        assert_eq!(all, batch(0, 250));
    }

    #[test]
    fn projection_reads_fewer_bytes() {
        let store = InMemoryObjectStore::new();
        write_sample(&store, 1000, 5000);
        let reader = PixelsReader::open(&store, "t.pxl").unwrap();

        let before = store.metrics();
        let full = reader.read_all(None, &[]).unwrap();
        let full_bytes = store.metrics().delta_since(&before).bytes_read;

        let before = store.metrics();
        let proj = reader.read_all(Some(&[0]), &[]).unwrap();
        let proj_bytes = store.metrics().delta_since(&before).bytes_read;

        assert_eq!(proj[0].num_columns(), 1);
        assert_eq!(proj[0].schema().field(0).name, "id");
        assert!(
            proj_bytes * 2 < full_bytes,
            "projection should scan fewer bytes: {proj_bytes} vs {full_bytes}"
        );
        assert_eq!(
            RecordBatch::concat(&full).unwrap().num_rows(),
            RecordBatch::concat(&proj).unwrap().num_rows()
        );
    }

    #[test]
    fn zone_map_pruning_skips_row_groups() {
        let store = InMemoryObjectStore::new();
        write_sample(&store, 100, 1000); // ids 0..999 in 10 groups of 100
        let reader = PixelsReader::open(&store, "t.pxl").unwrap();
        // id >= 950 matches only the last group.
        let preds = [ColumnPredicate {
            column: 0,
            op: PredicateOp::GtEq,
            value: Value::Int64(950),
        }];
        assert_eq!(reader.prune_row_groups(&preds), vec![9]);
        // id = 123 matches only group 1.
        let preds = [ColumnPredicate {
            column: 0,
            op: PredicateOp::Eq,
            value: Value::Int64(123),
        }];
        assert_eq!(reader.prune_row_groups(&preds), vec![1]);
        // Conjunction with contradictory bounds matches nothing.
        let preds = [
            ColumnPredicate {
                column: 0,
                op: PredicateOp::Gt,
                value: Value::Int64(500),
            },
            ColumnPredicate {
                column: 0,
                op: PredicateOp::Lt,
                value: Value::Int64(100),
            },
        ];
        assert!(reader.prune_row_groups(&preds).is_empty());
    }

    #[test]
    fn pruned_scan_returns_correct_rows() {
        let store = InMemoryObjectStore::new();
        write_sample(&store, 100, 1000);
        let reader = PixelsReader::open(&store, "t.pxl").unwrap();
        let preds = [ColumnPredicate {
            column: 0,
            op: PredicateOp::GtEq,
            value: Value::Int64(990),
        }];
        let batches = reader.read_all(None, &preds).unwrap();
        let all = RecordBatch::concat(&batches).unwrap();
        // Pruning is row-group granular: returns the whole last group.
        assert_eq!(all.num_rows(), 100);
        assert_eq!(all.row(0)[0], Value::Int64(900));
    }

    #[test]
    fn nulls_survive_roundtrip() {
        let store = InMemoryObjectStore::new();
        write_sample(&store, 50, 50);
        let reader = PixelsReader::open(&store, "t.pxl").unwrap();
        let all = RecordBatch::concat(&reader.read_all(None, &[]).unwrap()).unwrap();
        assert_eq!(all.column(1).null_count(), 8); // i % 7 == 0 for 50 rows
        assert_eq!(all.row(0)[1], Value::Null);
        assert_eq!(all.row(1)[1], Value::Utf8("tag1".into()));
    }

    #[test]
    fn open_rejects_corrupt_files() {
        let store = InMemoryObjectStore::new();
        store.put("junk", Bytes::from(vec![0u8; 100])).unwrap();
        assert!(PixelsReader::open(&store, "junk").is_err());
        store.put("tiny", Bytes::from_static(b"PX")).unwrap();
        assert!(PixelsReader::open(&store, "tiny").is_err());
        assert!(PixelsReader::open(&store, "missing").is_err());
    }

    #[test]
    fn corrupt_footer_length_detected() {
        let store = InMemoryObjectStore::new();
        write_sample(&store, 100, 100);
        let mut data = store.get("t.pxl").unwrap().to_vec();
        let n = data.len();
        // Overwrite footer_len with an absurd value.
        data[n - 12..n - 4].copy_from_slice(&u64::MAX.to_le_bytes());
        store.put("t.pxl", Bytes::from(data)).unwrap();
        assert!(PixelsReader::open(&store, "t.pxl").is_err());
    }

    #[test]
    fn footer_stats_reflect_data() {
        let store = InMemoryObjectStore::new();
        write_sample(&store, 100, 300);
        let reader = PixelsReader::open(&store, "t.pxl").unwrap();
        let stats = reader.footer().column_stats(0);
        assert_eq!(stats.min, Some(Value::Int64(0)));
        assert_eq!(stats.max, Some(Value::Int64(299)));
        assert_eq!(stats.row_count, 300);
    }

    #[test]
    fn open_uses_single_speculative_tail_read() {
        let store = InMemoryObjectStore::new();
        write_sample(&store, 100, 250);
        let before = store.metrics();
        let reader = PixelsReader::open(&store, "t.pxl").unwrap();
        let delta = store.metrics().delta_since(&before);
        // Head magic + speculative tail: exactly two GETs for a small footer.
        assert_eq!(delta.get_requests, 2);
        assert_eq!(reader.open_bytes(), delta.bytes_read);
        assert!(!reader.from_cache());
    }

    #[test]
    fn oversized_footer_falls_back_to_second_get() {
        let store = InMemoryObjectStore::new();
        write_sample(&store, 100, 250);
        let before = store.metrics();
        // A 64-byte tail budget cannot hold this footer, forcing the exact
        // footer fetch.
        let reader = PixelsReader::open_inner(&store, "t.pxl", None, 64).unwrap();
        let delta = store.metrics().delta_since(&before);
        assert_eq!(delta.get_requests, 3);
        assert_eq!(reader.open_bytes(), delta.bytes_read);
        assert_eq!(reader.num_rows(), 250);
        let all = RecordBatch::concat(&reader.read_all(None, &[]).unwrap()).unwrap();
        assert_eq!(all, batch(0, 250));
    }

    #[test]
    fn footer_cache_hit_performs_zero_gets() {
        let store = InMemoryObjectStore::new();
        write_sample(&store, 100, 250);
        let cache = crate::meta_cache::FooterCache::new();

        let first = PixelsReader::open_with_cache(&store, "t.pxl", &cache).unwrap();
        assert!(!first.from_cache());
        assert!(first.open_bytes() > 0);

        let before = store.metrics();
        let second = PixelsReader::open_with_cache(&store, "t.pxl", &cache).unwrap();
        let delta = store.metrics().delta_since(&before);
        assert_eq!(delta.get_requests, 0, "cache hit must not touch the store");
        assert_eq!(delta.bytes_read, 0);
        assert!(second.from_cache());
        assert_eq!(second.open_bytes(), 0, "cache hits are not billed");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);

        // The cached footer still drives real data reads.
        let all = RecordBatch::concat(&second.read_all(None, &[]).unwrap()).unwrap();
        assert_eq!(all, batch(0, 250));
    }

    #[test]
    fn footer_cache_detects_replaced_object() {
        let store = InMemoryObjectStore::new();
        let cache = crate::meta_cache::FooterCache::new();
        write_sample(&store, 100, 250);
        PixelsReader::open_with_cache(&store, "t.pxl", &cache).unwrap();
        // Replace with a different (different-size) object at the same path.
        write_sample(&store, 100, 300);
        let reader = PixelsReader::open_with_cache(&store, "t.pxl", &cache).unwrap();
        assert!(!reader.from_cache());
        assert_eq!(reader.num_rows(), 300);
    }

    #[test]
    fn footer_cache_detects_same_size_rewrite() {
        // Regression: a rewritten object of *identical* size used to pass
        // the size check and serve the stale footer (wrong zone maps, wrong
        // pruning). The write generation now catches it.
        let store = InMemoryObjectStore::new();
        let cache = crate::meta_cache::FooterCache::new();
        write_sample_from(&store, 100, 0, 250);
        let size_before = store.size("t.pxl").unwrap();
        let first = PixelsReader::open_with_cache(&store, "t.pxl", &cache).unwrap();
        assert_eq!(first.footer().column_stats(0).max, Some(Value::Int64(249)));
        // Same row count, same string shapes, shifted ids: same size.
        write_sample_from(&store, 100, 1000, 250);
        assert_eq!(
            store.size("t.pxl").unwrap(),
            size_before,
            "rewrite must keep the size for this regression to be meaningful"
        );
        let reader = PixelsReader::open_with_cache(&store, "t.pxl", &cache).unwrap();
        assert!(!reader.from_cache(), "stale same-size footer was served");
        assert_eq!(
            reader.footer().column_stats(0).min,
            Some(Value::Int64(1000))
        );
        let all = RecordBatch::concat(&reader.read_all(None, &[]).unwrap()).unwrap();
        assert_eq!(all.row(0)[0], Value::Int64(1000));
    }

    /// The stored bytes of `rg`'s chunks under `projection`, one plain
    /// ranged GET each: what the vectored fetch must reproduce.
    /// The projected chunks of `rg`, each read by a GET of its own range.
    fn per_chunk_reads(
        store: &InMemoryObjectStore,
        reader: &PixelsReader,
        rg: usize,
        projection: &[usize],
    ) -> Vec<EncodedChunk> {
        let rg = &reader.footer().row_groups[rg];
        projection
            .iter()
            .map(|&c| {
                let m = &rg.columns[c];
                let bytes = store.get_range("t.pxl", m.offset, m.len).unwrap();
                let ty = reader.schema().field(c).data_type;
                EncodedChunk::parse(bytes, ty, m.encoding, rg.num_rows as usize).unwrap()
            })
            .collect()
    }

    /// A file whose middle column's chunks are wider than the coalescing
    /// gap, so projecting the outer two cannot be one GET.
    fn write_wide(store: &InMemoryObjectStore) {
        let schema = Arc::new(Schema::new(vec![
            Field::required("a", DataType::Int64),
            Field::required("pad", DataType::Utf8),
            Field::required("b", DataType::Int64),
        ]));
        let rows: Vec<Vec<Value>> = (0..4000i64)
            .map(|i| {
                vec![
                    Value::Int64(i),
                    Value::Utf8(format!("{i:040}")),
                    Value::Int64(-i),
                ]
            })
            .collect();
        let mut w = PixelsWriter::with_row_group_rows(store, "t.pxl", schema.clone(), 2000);
        w.write_batch(&RecordBatch::from_rows(schema, &rows).unwrap())
            .unwrap();
        w.finish().unwrap();
    }

    #[test]
    fn adjacent_chunks_are_one_get() {
        let store = InMemoryObjectStore::new();
        write_sample(&store, 100, 250);
        let reader = PixelsReader::open(&store, "t.pxl").unwrap();
        for rg in 0..reader.num_row_groups() {
            let before = store.metrics();
            let fetched = reader.fetch_row_group(rg, None, None).unwrap();
            let delta = store.metrics().delta_since(&before);
            assert_eq!(delta.get_requests, 1);
            assert_eq!(delta.bytes_read, reader.row_group_bytes(rg, None));
            assert_eq!(
                fetched.stats,
                FetchStats {
                    cache_misses: 3,
                    gets: 1,
                    ..FetchStats::default()
                }
            );
        }
    }

    #[test]
    fn a_small_gap_is_bridged_and_a_large_one_is_not() {
        // Projecting the outer columns leaves the middle chunk between them.
        let store = InMemoryObjectStore::new();
        write_sample(&store, 100, 250);
        let reader = PixelsReader::open(&store, "t.pxl").unwrap();
        let middle = reader.footer().row_groups[0].columns[1].len;
        assert!(middle <= COALESCE_GAP_BYTES);
        let before = store.metrics();
        let fetched = reader.fetch_row_group(0, Some(&[0, 2]), None).unwrap();
        let delta = store.metrics().delta_since(&before);
        assert_eq!((delta.get_requests, fetched.stats.gets), (1, 1));
        assert_eq!(fetched.stats.gap_bytes, middle);
        assert_eq!(
            delta.bytes_read,
            reader.row_group_bytes(0, Some(&[0, 2])) + middle
        );

        let store = InMemoryObjectStore::new();
        write_wide(&store);
        let reader = PixelsReader::open(&store, "t.pxl").unwrap();
        assert!(reader.footer().row_groups[0].columns[1].len > COALESCE_GAP_BYTES);
        let before = store.metrics();
        let fetched = reader.fetch_row_group(0, Some(&[0, 2]), None).unwrap();
        let delta = store.metrics().delta_since(&before);
        assert_eq!((delta.get_requests, fetched.stats.gets), (2, 2));
        assert_eq!(fetched.stats.gap_bytes, 0);
        assert_eq!(delta.bytes_read, reader.row_group_bytes(0, Some(&[0, 2])));
    }

    #[test]
    fn only_missing_chunks_are_fetched() {
        let store = InMemoryObjectStore::new();
        write_sample(&store, 100, 250);
        let cache = ChunkCache::new(1 << 20);
        let reader = PixelsReader::open(&store, "t.pxl").unwrap();
        assert!(!reader.row_group_resident(0, None, &cache));
        reader.fetch_row_group(0, Some(&[0]), Some(&cache)).unwrap();
        assert!(reader.row_group_resident(0, Some(&[0]), &cache));
        assert!(!reader.row_group_resident(0, None, &cache));

        // Column 0 is cached; 1 and 2 are neighbours: one GET of exactly
        // their bytes.
        let before = store.metrics();
        let fetched = reader.fetch_row_group(0, None, Some(&cache)).unwrap();
        let delta = store.metrics().delta_since(&before);
        assert_eq!(
            fetched.stats,
            FetchStats {
                cache_hits: 1,
                cache_misses: 2,
                gets: 1,
                ..FetchStats::default()
            }
        );
        assert_eq!(delta.get_requests, 1);
        assert_eq!(delta.bytes_read, reader.row_group_bytes(0, Some(&[1, 2])));

        // Everything cached: no store traffic at all, and the probe says so
        // without counting as an access.
        let (hits, misses) = (cache.hits(), cache.misses());
        assert!(reader.row_group_resident(0, None, &cache));
        assert!(!reader.row_group_resident(1, None, &cache));
        assert!(!reader.row_group_resident(99, None, &cache));
        assert_eq!((cache.hits(), cache.misses()), (hits, misses));
        let before = store.metrics();
        let fetched = reader.fetch_row_group(0, None, Some(&cache)).unwrap();
        assert_eq!(store.metrics().delta_since(&before).get_requests, 0);
        assert_eq!(
            fetched.stats,
            FetchStats {
                cache_hits: 3,
                ..FetchStats::default()
            }
        );
    }

    #[test]
    fn vectored_fetch_returns_the_chunks_of_per_chunk_reads() {
        // Whatever the projection order, the merging and the cache state,
        // each chunk is the one a GET of its own range returns: as many
        // bytes, the same decode.
        for write in [
            (|s| write_sample(s, 100, 250)) as fn(&InMemoryObjectStore),
            write_wide,
        ] {
            let store = InMemoryObjectStore::new();
            write(&store);
            let reader = PixelsReader::open(&store, "t.pxl").unwrap();
            let cache = ChunkCache::new(1 << 20);
            for projection in [&[0usize, 1, 2][..], &[2, 0], &[1], &[1, 1, 0]] {
                for rg in 0..reader.num_row_groups() {
                    let expected = per_chunk_reads(&store, &reader, rg, projection);
                    let sizes: Vec<u64> =
                        expected.iter().map(EncodedChunk::resident_bytes).collect();
                    let decoded = reader.read_row_group(rg, Some(projection)).unwrap();
                    // Without the cache, then twice through it: filling it,
                    // then served by it, memos filled by the decodes.
                    for (pass, cache) in [None, Some(&cache), Some(&cache)].into_iter().enumerate()
                    {
                        let what = format!("{projection:?} rg {rg} pass {pass}");
                        let fetched = reader.fetch_row_group(rg, Some(projection), cache).unwrap();
                        for (i, (got, want)) in fetched.chunks.iter().zip(&expected).enumerate() {
                            // A cached chunk may hold a memo as well.
                            if pass == 0 {
                                assert_eq!(got.resident_bytes(), sizes[i], "{what}");
                            }
                            assert!(got.resident_bytes() >= sizes[i], "{what}");
                            assert_eq!(got.decode().unwrap(), want.decode().unwrap(), "{what}");
                            assert_eq!(&got.decode().unwrap(), decoded.column(i), "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_warm_fetch_borrows_the_memo() {
        // The dictionary of `tag` and the runs of a constant column, parsed
        // by the first read, are what the second fetch serves.
        let store = InMemoryObjectStore::new();
        let schema = Arc::new(Schema::new(vec![
            Field::nullable("tag", DataType::Utf8),
            Field::required("flag", DataType::Int32),
        ]));
        let rows: Vec<Vec<Value>> = (0..200)
            .map(|i| vec![Value::Utf8(format!("tag{}", i % 4)), Value::Int32(i / 50)])
            .collect();
        write_table(
            &store,
            "m.pxl",
            schema.clone(),
            &[RecordBatch::from_rows(schema, &rows).unwrap()],
        )
        .unwrap();
        let reader = PixelsReader::open(&store, "m.pxl").unwrap();
        let cache = ChunkCache::new(1 << 20);
        let cold = reader.fetch_row_group(0, None, Some(&cache)).unwrap();
        let encodings: Vec<_> = cold.chunks.iter().map(EncodedChunk::encoding).collect();
        assert_eq!(encodings, [Encoding::Dictionary, Encoding::Rle]);
        let resident = cache.resident_bytes();
        let first: Vec<Column> = cold.chunks.iter().map(|c| c.decode().unwrap()).collect();
        assert!(cache.resident_bytes() > resident, "the memos count");
        let warm = reader.fetch_row_group(0, None, Some(&cache)).unwrap();
        assert_eq!((warm.stats.cache_hits, warm.stats.memo_hits), (2, 2));
        let again: Vec<Column> = warm.chunks.iter().map(|c| c.decode().unwrap()).collect();
        assert_eq!(again, first);
        assert_eq!(cache.memo_hits(Encoding::Dictionary), 1);
        assert_eq!(cache.memo_hits(Encoding::Rle), 1);
    }

    #[test]
    fn chunk_cache_distinguishes_rewritten_object() {
        // Same path + same offsets, but a rewritten file: the generation in
        // the cache key must prevent serving the old chunk bytes.
        let store = InMemoryObjectStore::new();
        let cache = ChunkCache::new(1 << 20);
        write_sample_from(&store, 100, 0, 250);
        let reader = PixelsReader::open(&store, "t.pxl").unwrap();
        let fetched = reader.fetch_row_group(0, Some(&[0]), Some(&cache)).unwrap();
        assert_eq!(
            fetched.chunks[0].decode().unwrap().value(0),
            Value::Int64(0)
        );
        write_sample_from(&store, 100, 1000, 250);
        let reader = PixelsReader::open(&store, "t.pxl").unwrap();
        let fetched = reader.fetch_row_group(0, Some(&[0]), Some(&cache)).unwrap();
        assert_eq!(
            fetched.stats.cache_hits, 0,
            "stale chunk bytes served after rewrite"
        );
        assert_eq!(
            fetched.chunks[0].decode().unwrap().value(0),
            Value::Int64(1000)
        );
    }

    #[test]
    fn billed_bytes_are_the_metadata_sum_and_the_rest_is_gap() {
        // What a read bills is the projected chunks' stored lengths, exactly.
        // What it transfers beyond that is the bytes between merged chunks,
        // each gap no wider than the coalescing limit.
        for write in [
            (|s| write_sample(s, 100, 250)) as fn(&InMemoryObjectStore),
            write_wide,
        ] {
            let store = InMemoryObjectStore::new();
            write(&store);
            let reader = PixelsReader::open(&store, "t.pxl").unwrap();
            for projection in [None, Some(&[0usize][..]), Some(&[0usize, 2][..])] {
                for rg in 0..reader.num_row_groups() {
                    let columns = &reader.footer().row_groups[rg].columns;
                    let billed: u64 = match projection {
                        Some(p) => p.iter().map(|&c| columns[c].len).sum(),
                        None => columns.iter().map(|m| m.len).sum(),
                    };
                    assert_eq!(reader.row_group_bytes(rg, projection), billed);
                    let before = store.metrics();
                    let fetched = reader.fetch_row_group(rg, projection, None).unwrap();
                    let delta = store.metrics().delta_since(&before);
                    assert_eq!(delta.bytes_read - billed, fetched.stats.gap_bytes);
                    assert_eq!(delta.get_requests, fetched.stats.gets);
                    // Chunks are laid out in column order, so the only gap a
                    // merge can bridge here is the middle column.
                    assert!(fetched.stats.gap_bytes <= COALESCE_GAP_BYTES);
                    assert!([0, columns[1].len].contains(&fetched.stats.gap_bytes));
                }
            }
            assert_eq!(reader.row_group_bytes(99, None), 0);
        }
    }

    /// Rewrite `t.pxl` with its footer changed by `corrupt`, the data and
    /// the trailer's framing intact: what a hostile writer would produce.
    fn rewrite_footer(store: &InMemoryObjectStore, corrupt: impl FnOnce(&mut Footer)) {
        let data = store.get("t.pxl").unwrap();
        let trailer = data.len() - 12;
        let footer_len = u64::from_le_bytes(data[trailer..trailer + 8].try_into().unwrap());
        let footer_start = trailer - footer_len as usize;
        let mut footer = Footer::decode(&data[footer_start..trailer]).unwrap();
        corrupt(&mut footer);
        let encoded = footer.encode();
        let mut out = data[..footer_start].to_vec();
        out.extend_from_slice(&encoded);
        out.extend_from_slice(&(encoded.len() as u64).to_le_bytes());
        out.extend_from_slice(MAGIC_TAIL);
        store.put("t.pxl", Bytes::from(out)).unwrap();
    }

    #[test]
    fn hostile_footers_are_errors_not_panics() {
        // A chunk range that overflows u64: alone, and as the neighbour a
        // merged run would extend to.
        for (column, offset, len) in [(0, u64::MAX - 3, 8), (2, u64::MAX, 1), (1, 6, u64::MAX)] {
            let store = InMemoryObjectStore::new();
            write_sample(&store, 100, 250);
            rewrite_footer(&store, |f| {
                f.row_groups[0].columns[column].offset = offset;
                f.row_groups[0].columns[column].len = len;
            });
            let reader = PixelsReader::open(&store, "t.pxl").unwrap();
            let cache = ChunkCache::new(1 << 20);
            for cache in [None, Some(&cache)] {
                let err = reader.fetch_row_group(0, None, cache).unwrap_err();
                assert!(matches!(err, Error::Storage(_)), "{err}");
                assert!(reader.read_row_group(0, None).is_err());
            }
            // The other row groups still read.
            assert_eq!(reader.read_row_group(1, None).unwrap().num_rows(), 100);
        }

        // A range inside u64 but outside the object is the store's error.
        let store = InMemoryObjectStore::new();
        write_sample(&store, 100, 250);
        rewrite_footer(&store, |f| f.row_groups[1].columns[1].offset = 1 << 40);
        let reader = PixelsReader::open(&store, "t.pxl").unwrap();
        assert!(reader.fetch_row_group(1, None, None).is_err());

        // A row group listing fewer columns than the schema. `Footer::decode`
        // cannot produce one, but cached metadata is a public struct, so the
        // reader must not index on the schema's word alone.
        let store = InMemoryObjectStore::new();
        write_sample(&store, 100, 250);
        let honest = PixelsReader::open(&store, "t.pxl").unwrap();
        let mut footer = honest.footer().clone();
        footer.row_groups[0].columns.truncate(1);
        let footers = FooterCache::new();
        footers.insert(
            "t.pxl",
            Arc::new(FileMeta {
                footer: Arc::new(footer),
                schema: honest.schema().clone(),
                size: store.size("t.pxl").unwrap(),
                generation: honest.generation(),
                open_bytes: 0,
            }),
        );
        let reader = PixelsReader::open_with_cache(&store, "t.pxl", &footers).unwrap();
        assert!(reader.from_cache());
        let cache = ChunkCache::new(1 << 20);
        for projection in [None, Some(&[2usize][..]), Some(&[0usize, 1][..])] {
            let err = reader.fetch_row_group(0, projection, None).unwrap_err();
            assert!(matches!(err, Error::Storage(_)), "{err}");
            assert!(reader.read_row_group(0, projection).is_err());
            assert!(!reader.row_group_resident(0, projection, &cache));
        }
        assert!(reader.fetch_row_group(0, Some(&[0]), None).is_ok());
        assert!(matches!(
            reader.fetch_row_group(0, Some(&[3]), None),
            Err(Error::Storage(_))
        ));
        // Pruning on the missing column keeps the group for the read to fail.
        let on_price = [ColumnPredicate {
            column: 2,
            op: PredicateOp::Lt,
            value: Value::Float64(-1.0),
        }];
        assert_eq!(reader.prune_row_groups(&on_price), vec![0]);
    }

    #[test]
    fn empty_file_roundtrip() {
        let store = InMemoryObjectStore::new();
        write_table(&store, "e.pxl", schema(), &[]).unwrap();
        let reader = PixelsReader::open(&store, "e.pxl").unwrap();
        assert_eq!(reader.num_rows(), 0);
        assert!(reader.read_all(None, &[]).unwrap().is_empty());
    }
}
