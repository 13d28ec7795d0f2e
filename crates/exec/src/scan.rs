//! Table scans with projection pushdown, zone-map pruning, residual
//! filtering, and morsel-driven parallelism.
//!
//! Every scan starts with [`ScanMorsels::open`]: open each file (billing the
//! open), check the plan's column indices against the file, prune row
//! groups, list the surviving `(file, row group)` morsels. Every scan ends a
//! morsel with [`ScanMorsels::meter`], which bills it. The table scan
//! ([`execute_scan`]), the encoded grand total
//! ([`crate::encoded::execute_encoded_aggregate`]) and the scalar oracle's
//! scan arm ([`crate::scalar::execute`]) differ only in what they do with a
//! morsel in between, so results *and* bills agree by construction.
//!
//! The table scan splits each morsel into a fetch phase and a decode/filter
//! phase. The fetch is one vectored read per row group
//! ([`PixelsReader::fetch_row_group`]: cache first, then one ranged GET per
//! run of neighbouring chunks); a prefetcher
//! ([`crate::prefetch::run_prefetched`]) keeps up to `prefetch_depth` of them
//! in flight ahead of the decoding workers, unless the chunk cache already
//! holds everything the scan will read, in which case there is nothing to
//! overlap and the workers fetch for themselves. Residual filters run on
//! encoded chunks ([`crate::encoded`]) with late materialization; when the
//! scan is the probe side of a hash join, the build side's [`KeyFilter`] is
//! one more conjunct after them. Billing is metered from chunk metadata, so
//! bills are identical however the bytes arrived and whatever a filter
//! dropped.

use crate::context::ExecContext;
use crate::encoded::{encoded_filter_mask, key_filter_can_drop, key_filter_mask, LazyRowGroup};
use crate::keys::KeyFilter;
use crate::prefetch::run_prefetched;
use pixels_common::{Error, RecordBatch, Result, SchemaRef};
use pixels_obs::Span;
use pixels_planner::BoundExpr;
use pixels_storage::{ColumnPredicate, ColumnStats, EncodedChunk, PixelsReader};
use std::sync::Arc;

/// Open `path` through the context's shared footer cache and meter the open:
/// a miss bills the bytes actually fetched, a hit bills nothing and bumps
/// the hit counter instead. When tracing, the open is a `storage_open` span
/// whose `bytes` attribute is exactly what the open billed (zero on a hit),
/// so span byte sums stay consistent with `bytes_scanned`.
pub(crate) fn open_metered<'a>(ctx: &'a ExecContext, path: &str) -> Result<PixelsReader<'a>> {
    let mut span = ctx.trace.span("storage_open");
    let reader = PixelsReader::open_with_cache(ctx.store.as_ref(), path, &ctx.footer_cache)?;
    if span.enabled() {
        span.record_str("path", path);
        span.record_u64("cache_hit", reader.from_cache() as u64);
        span.record_u64(
            "bytes",
            if reader.from_cache() {
                0
            } else {
                reader.open_bytes()
            },
        );
    }
    if reader.from_cache() {
        ctx.metrics.add_footer_cache_hit();
    } else {
        ctx.metrics.add_scan(reader.open_bytes(), 0);
        ctx.metrics.add_open(reader.open_bytes());
    }
    Ok(reader)
}

/// The files of one scan, opened and pruned down to its morsels: one per
/// surviving `(file, row group)` pair, in file then row-group order.
pub(crate) struct ScanMorsels<'a> {
    ctx: &'a ExecContext,
    projection: &'a [usize],
    readers: Vec<PixelsReader<'a>>,
    /// Each file's schema under `projection`.
    schemas: Vec<SchemaRef>,
    morsels: Vec<(usize, usize)>,
}

impl<'a> ScanMorsels<'a> {
    /// Open and prune every file up front. `projection` and the zone
    /// predicates index columns by the catalog's word; a data file is input
    /// from outside the program and may have been replaced by a narrower
    /// one, so both are checked against the file's own schema here, before
    /// anything indexes with them.
    pub(crate) fn open(
        ctx: &'a ExecContext,
        paths: &[String],
        projection: &'a [usize],
        zone_predicates: &[ColumnPredicate],
    ) -> Result<Self> {
        let mut scan = ScanMorsels {
            ctx,
            projection,
            readers: Vec::with_capacity(paths.len()),
            schemas: Vec::with_capacity(paths.len()),
            morsels: Vec::new(),
        };
        let widest = projection
            .iter()
            .copied()
            .chain(zone_predicates.iter().map(|p| p.column))
            .max();
        for (fi, path) in paths.iter().enumerate() {
            let reader = open_metered(ctx, path)?;
            let width = reader.schema().len();
            if let Some(col) = widest.filter(|&col| col >= width) {
                return Err(Error::Storage(format!(
                    "{path} has {width} columns but the scan reads column {col}: \
                     the file does not match the table it is registered under"
                )));
            }
            let retained = reader.prune_row_groups(zone_predicates);
            ctx.metrics
                .add_row_groups(reader.num_row_groups() as u64, retained.len() as u64);
            scan.morsels.extend(retained.into_iter().map(|rg| (fi, rg)));
            scan.schemas
                .push(Arc::new(reader.schema().project(projection)));
            scan.readers.push(reader);
        }
        Ok(scan)
    }

    pub(crate) fn len(&self) -> usize {
        self.morsels.len()
    }

    /// The reader and row-group index behind morsel `i`.
    pub(crate) fn reader(&self, i: usize) -> (&PixelsReader<'a>, usize) {
        let (fi, rg) = self.morsels[i];
        (&self.readers[fi], rg)
    }

    pub(crate) fn num_rows(&self, i: usize) -> usize {
        let (reader, rg) = self.reader(i);
        reader.footer().row_groups[rg].num_rows as usize
    }

    /// What morsel `i` bills: its projected chunks' stored lengths.
    pub(crate) fn bytes(&self, i: usize) -> u64 {
        let (reader, rg) = self.reader(i);
        reader.row_group_bytes(rg, Some(self.projection))
    }

    /// Fetch morsel `i`'s projected chunks through the context's chunk
    /// cache, counting how they were obtained in the metrics and on `span`.
    /// The one call site of the reader's vectored fetch for encoded
    /// execution.
    pub(crate) fn fetch(&self, span: &mut Span, i: usize) -> Result<Vec<EncodedChunk>> {
        let (reader, rg) = self.reader(i);
        let fetched =
            reader.fetch_row_group(rg, Some(self.projection), self.ctx.chunk_cache.as_deref())?;
        self.ctx.metrics.add_fetch(&fetched.stats);
        if span.enabled() {
            span.record_u64("cache_hits", fetched.stats.cache_hits);
            span.record_u64("gets", fetched.stats.gets);
            span.record_u64("gap_bytes", fetched.stats.gap_bytes);
        }
        Ok(fetched.chunks)
    }

    /// Morsel `i`'s fetched chunks as a lazily decoded row group.
    pub(crate) fn lazy(&self, i: usize, chunks: Vec<EncodedChunk>) -> LazyRowGroup {
        let (fi, _) = self.morsels[i];
        LazyRowGroup::new(self.schemas[fi].clone(), chunks, self.num_rows(i))
    }

    /// Account for morsel `i` once its work is done: the `morsel` span's
    /// `bytes` attribute carries the billed quantity, and the same number
    /// goes to `bytes_scanned`, so span byte sums reconcile against the bill.
    /// `produced` is how many rows the morsel passed on.
    pub(crate) fn meter(&self, span: &mut Span, i: usize, produced: usize) {
        let (rows, bytes) = (self.num_rows(i) as u64, self.bytes(i));
        if span.enabled() {
            span.record_u64("row_group", self.morsels[i].1 as u64);
            span.record_u64("rows", rows);
            span.record_u64("bytes", bytes);
        }
        self.ctx.metrics.add_scan(bytes, rows);
        self.ctx.metrics.add_produced(produced as u64);
    }
}

/// A scan's output: the non-empty morsel batches, or one empty batch carrying
/// `output_schema` when nothing matched, so downstream operators never see a
/// schema-less empty result.
pub(crate) fn scan_output(
    batches: Vec<RecordBatch>,
    output_schema: &SchemaRef,
) -> Vec<RecordBatch> {
    let mut out: Vec<RecordBatch> = batches.into_iter().filter(|b| b.num_rows() > 0).collect();
    if out.is_empty() {
        out.push(RecordBatch::empty(output_schema.clone()));
    }
    out
}

/// Execute a Pixels table scan over `paths`.
///
/// Up to `ctx.parallelism` workers decode morsels concurrently and the
/// batches are emitted in morsel order, so results are identical at every
/// parallelism level. Bytes are metered from the reader's own accounting
/// (footer bytes on open, projected chunk lengths per row group), making
/// `bytes_scanned` exact and independent of thread interleaving.
pub fn execute_scan(
    ctx: &ExecContext,
    paths: &[String],
    projection: &[usize],
    zone_predicates: &[ColumnPredicate],
    filters: &[BoundExpr],
    join_filter: Option<&KeyFilter>,
    output_schema: &SchemaRef,
) -> Result<Vec<RecordBatch>> {
    let scan = ScanMorsels::open(ctx, paths, projection, zone_predicates)?;
    // A scan whose every chunk is already in the chunk cache has no store
    // latency to hide: I/O threads and a hand-off per morsel would only add
    // cost, so the workers fetch (from the cache) themselves. A chunk
    // evicted between this probe and its read is simply fetched there.
    let resident = ctx.chunk_cache.as_deref().is_some_and(|cache| {
        (0..scan.len()).all(|i| {
            let (reader, rg) = scan.reader(i);
            reader.row_group_resident(rg, Some(projection), cache)
        })
    });
    let depth = if resident { 0 } else { ctx.prefetch_depth };

    let (batches, stats) = run_prefetched(
        scan.len(),
        ctx.parallelism,
        depth,
        // Fetch phase (on the prefetcher's I/O threads, or fused on the
        // workers at depth 0): cache-serve or GET the morsel's projected
        // chunks. The span records `prefetch_bytes`, never `bytes` — the
        // bytes are billed by the consuming morsel span, and double-counting
        // would break span-vs-bill reconciliation. `gap_bytes` are traffic
        // the bill never sees at all.
        |i| {
            let mut span = ctx.trace.span("prefetch");
            let chunks = scan.fetch(&mut span, i)?;
            if span.enabled() {
                span.record_u64("row_group", scan.reader(i).1 as u64);
                span.record_u64("prefetch_bytes", scan.bytes(i));
            }
            Ok(chunks)
        },
        // Work phase (morsel workers): filter on the encoded chunks, then
        // materialize only the selected rows. The join's key filter comes
        // after the fetch and after the scan's own conjuncts: it prunes no
        // byte, and a row they reject or fail on never reaches it.
        |i, chunks: Vec<EncodedChunk>| {
            let mut span = ctx.trace.span("morsel");
            let lazy = scan.lazy(i, chunks);
            let (reader, rg) = scan.reader(i);
            let stats: Vec<&ColumnStats> = if filters.is_empty() && join_filter.is_none() {
                Vec::new()
            } else {
                projection
                    .iter()
                    .map(|&c| &reader.footer().row_groups[rg].columns[c].stats)
                    .collect()
            };
            // A filter that this morsel's zone maps show can drop nothing
            // costs nothing.
            let key_filter = join_filter.filter(|f| key_filter_can_drop(f, &lazy, &stats));
            // Rows that got as far as the key filter.
            let mut reached = lazy.num_rows();
            let batch = if filters.is_empty() && key_filter.is_none() {
                lazy.materialize_all()?
            } else {
                let mut mask = encoded_filter_mask(filters, &lazy, &stats)?;
                if join_filter.is_some() {
                    reached = mask.iter().filter(|&&keep| keep).count();
                }
                if let Some(filter) = key_filter {
                    key_filter_mask(filter, &lazy, &stats, &mut mask)?;
                }
                lazy.materialize(&mask)?
            };
            if join_filter.is_some() {
                let dropped = (reached - batch.num_rows()) as u64;
                span.record_u64("join_filter_rows", reached as u64);
                span.record_u64("join_filter_dropped", dropped);
                ctx.metrics.add_join_filter(reached as u64, dropped);
            }
            scan.meter(&mut span, i, batch.num_rows());
            Ok(batch)
        },
    );
    ctx.metrics
        .add_prefetch(stats.issued, stats.hits, stats.wasted);
    Ok(scan_output(batches?, output_schema))
}
