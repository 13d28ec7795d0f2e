//! Table scans with projection pushdown, zone-map pruning, residual
//! filtering, and morsel-driven parallelism.
//!
//! With [`ExecContext::encoded_scan`] on (the default), each morsel is split
//! into a fetch phase and a decode/filter phase. The fetch is one vectored
//! read per row group ([`PixelsReader::fetch_row_group`]: cache first, then
//! one ranged GET per run of neighbouring chunks); a prefetcher
//! ([`crate::prefetch::run_prefetched`]) keeps up to `prefetch_depth` of them
//! in flight ahead of the decoding workers, unless the chunk cache already
//! holds everything the scan will read, in which case there is nothing to
//! overlap and the workers fetch for themselves. Residual filters run on
//! encoded chunks ([`crate::encoded`]) with late materialization. Billing is
//! metered from chunk metadata in every mode, so results *and* bills are
//! identical however the bytes arrived.

use crate::context::ExecContext;
use crate::encoded::{encoded_filter_mask, LazyRowGroup};
use crate::evaluate::fused_filter_mask;
use crate::parallel;
use crate::prefetch::run_prefetched;
use pixels_common::{RecordBatch, Result, SchemaRef};
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

/// Fetch one morsel's projected chunks through the context's chunk cache,
/// counting how they were obtained in the metrics and on `span`. The one
/// call site of the reader's vectored fetch for encoded execution: the
/// scan's fetch phase and the encoded aggregate both come through here.
pub(crate) fn fetch_metered(
    ctx: &ExecContext,
    span: &mut Span,
    reader: &PixelsReader,
    rg: usize,
    projection: &[usize],
) -> Result<Vec<EncodedChunk>> {
    let fetched = reader.fetch_row_group(rg, Some(projection), ctx.chunk_cache.as_deref())?;
    ctx.metrics.add_fetch(&fetched.stats);
    if span.enabled() {
        span.record_u64("cache_hits", fetched.stats.cache_hits);
        span.record_u64("gets", fetched.stats.gets);
        span.record_u64("gap_bytes", fetched.stats.gap_bytes);
    }
    Ok(fetched.chunks)
}

/// Execute a Pixels table scan over `paths`.
///
/// Each surviving `(file, row group)` pair is one morsel; up to
/// `ctx.parallelism` workers decode morsels concurrently and the batches are
/// emitted in morsel order, so results are identical at every parallelism
/// level. Bytes are metered from the reader's own accounting (footer bytes
/// on open, projected chunk lengths per row group), making `bytes_scanned`
/// exact and independent of thread interleaving.
pub fn execute_scan(
    ctx: &ExecContext,
    paths: &[String],
    projection: &[usize],
    zone_predicates: &[ColumnPredicate],
    filters: &[BoundExpr],
    output_schema: &SchemaRef,
    out: &mut Vec<RecordBatch>,
) -> Result<()> {
    if !ctx.encoded_scan {
        return execute_scan_with(
            ctx,
            paths,
            projection,
            zone_predicates,
            filters,
            output_schema,
            out,
            apply_filters,
        );
    }

    // Open and prune every file up front; morsels index into `readers`.
    let mut readers = Vec::with_capacity(paths.len());
    let mut schemas: Vec<SchemaRef> = Vec::with_capacity(paths.len());
    let mut morsels: Vec<(usize, usize)> = Vec::new();
    for (fi, path) in paths.iter().enumerate() {
        let reader = open_metered(ctx, path)?;
        let retained = reader.prune_row_groups(zone_predicates);
        ctx.metrics
            .add_row_groups(reader.num_row_groups() as u64, retained.len() as u64);
        morsels.extend(retained.into_iter().map(|rg| (fi, rg)));
        schemas.push(Arc::new(reader.schema().project(projection)));
        readers.push(reader);
    }
    // A scan whose every chunk is already in the chunk cache has no store
    // latency to hide: I/O threads and a hand-off per morsel would only add
    // cost, so the workers fetch (from the cache) themselves. A chunk
    // evicted between this probe and its read is simply fetched there.
    let resident = ctx.chunk_cache.as_deref().is_some_and(|cache| {
        morsels
            .iter()
            .all(|&(fi, rg)| readers[fi].row_group_resident(rg, Some(projection), cache))
    });
    let depth = if resident { 0 } else { ctx.prefetch_depth };

    let (batches, stats) = run_prefetched(
        morsels.len(),
        ctx.parallelism,
        depth,
        // Fetch phase (on the prefetcher's I/O threads, or fused on the
        // workers at depth 0): cache-serve or GET the morsel's projected
        // chunks. The span records `prefetch_bytes`, never `bytes` — the
        // bytes are billed by the consuming morsel span, and double-counting
        // would break span-vs-bill reconciliation. `gap_bytes` are traffic
        // the bill never sees at all.
        |i| {
            let (fi, rg) = morsels[i];
            let reader = &readers[fi];
            let mut span = ctx.trace.span("prefetch");
            let chunks = fetch_metered(ctx, &mut span, reader, rg, projection)?;
            if span.enabled() {
                span.record_u64("row_group", rg as u64);
                span.record_u64(
                    "prefetch_bytes",
                    reader.row_group_bytes(rg, Some(projection)),
                );
            }
            Ok(chunks)
        },
        // Work phase (morsel workers): filter on the encoded chunks, then
        // materialize only the selected rows.
        |i, chunks: Vec<EncodedChunk>| {
            let (fi, rg) = morsels[i];
            let reader = &readers[fi];
            let mut span = ctx.trace.span("morsel");
            let num_rows = reader.footer().row_groups[rg].num_rows as usize;
            let lazy = LazyRowGroup::new(schemas[fi].clone(), chunks, num_rows);
            let batch = if filters.is_empty() {
                lazy.materialize_all()?
            } else {
                let stats: Vec<&ColumnStats> = projection
                    .iter()
                    .map(|&c| &reader.footer().row_groups[rg].columns[c].stats)
                    .collect();
                let mask = encoded_filter_mask(filters, &lazy, &stats)?;
                lazy.materialize(&mask)?
            };
            let bytes = reader.row_group_bytes(rg, Some(projection));
            if span.enabled() {
                span.record_u64("row_group", rg as u64);
                span.record_u64("rows", num_rows as u64);
                span.record_u64("bytes", bytes);
            }
            ctx.metrics.add_scan(bytes, num_rows as u64);
            ctx.metrics.add_produced(batch.num_rows() as u64);
            Ok(batch)
        },
    );
    ctx.metrics
        .add_prefetch(stats.issued, stats.hits, stats.wasted);
    let batches = batches?;

    out.extend(batches.into_iter().filter(|b| b.num_rows() > 0));
    // Preserve the schema even when nothing matched, so downstream operators
    // never see a schema-less empty result.
    if out.is_empty() {
        out.push(RecordBatch::empty(output_schema.clone()));
    }
    Ok(())
}

/// Scan with an explicit residual-filter implementation, so the retained
/// scalar reference path (`scalar::execute`) shares the exact same morsel
/// fan-out and byte metering while filtering row-at-a-time.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_scan_with(
    ctx: &ExecContext,
    paths: &[String],
    projection: &[usize],
    zone_predicates: &[ColumnPredicate],
    filters: &[BoundExpr],
    output_schema: &SchemaRef,
    out: &mut Vec<RecordBatch>,
    apply: fn(&[BoundExpr], RecordBatch) -> Result<RecordBatch>,
) -> Result<()> {
    // Open and prune every file up front; morsels index into `readers`.
    let mut readers = Vec::with_capacity(paths.len());
    let mut morsels: Vec<(usize, usize)> = Vec::new();
    for (fi, path) in paths.iter().enumerate() {
        let reader = open_metered(ctx, path)?;
        let retained = reader.prune_row_groups(zone_predicates);
        ctx.metrics
            .add_row_groups(reader.num_row_groups() as u64, retained.len() as u64);
        morsels.extend(retained.into_iter().map(|rg| (fi, rg)));
        readers.push(reader);
    }

    let batches = parallel::run_indexed(morsels.len(), ctx.parallelism, |i| {
        let (fi, rg) = morsels[i];
        let reader = &readers[fi];
        // One `morsel` span per (file, row group) unit of work; workers on
        // any thread attach to the enclosing scan span. The `bytes`
        // attribute carries the morsel's projected chunk bytes — the
        // billed quantity.
        let mut span = ctx.trace.span("morsel");
        let batch = reader.read_row_group(rg, Some(projection))?;
        let rows = batch.num_rows() as u64;
        let batch = apply(filters, batch)?;
        let bytes = reader.row_group_bytes(rg, Some(projection));
        if span.enabled() {
            span.record_u64("row_group", rg as u64);
            span.record_u64("rows", rows);
            span.record_u64("bytes", bytes);
        }
        ctx.metrics.add_scan(bytes, rows);
        ctx.metrics.add_produced(batch.num_rows() as u64);
        Ok(batch)
    })?;

    out.extend(batches.into_iter().filter(|b| b.num_rows() > 0));
    // Preserve the schema even when nothing matched, so downstream operators
    // never see a schema-less empty result.
    if out.is_empty() {
        out.push(RecordBatch::empty(output_schema.clone()));
    }
    Ok(())
}

/// Apply residual row-level filters (a conjunction) to one batch: one fused
/// selection mask over the original batch, one `filter` materialization —
/// no intermediate filtered batches between conjuncts.
pub fn apply_filters(filters: &[BoundExpr], batch: RecordBatch) -> Result<RecordBatch> {
    if filters.is_empty() || batch.num_rows() == 0 {
        return Ok(batch);
    }
    let mask = fused_filter_mask(filters, &batch)?;
    batch.filter(&mask)
}
