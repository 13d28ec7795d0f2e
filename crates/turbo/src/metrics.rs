//! The engine's `/metrics` catalog: every family `pixels-turbo` owns, named
//! once and held as handles, so a running query never touches the registry.

use pixels_exec::{ExchangeStats, ExecMetricsSnapshot, ScanPipelineSnapshot};
use pixels_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use pixels_storage::ChunkCache;
use std::sync::Arc;

/// Declares a catalog struct and its `new`: each row gives a field, its
/// instrument kind, the family's name and its help text — once.
macro_rules! catalog {
    ($(#[$doc:meta])* pub struct $name:ident {
        $($vis:vis $field:ident: $kind:ident = $family:literal, $help:literal;)*
    }) => {
        $(#[$doc])*
        pub struct $name {
            $($vis $field: Arc<$kind>,)*
        }

        impl $name {
            /// Register every family of the catalog, at zero, in `r`.
            pub fn new(r: &MetricsRegistry) -> $name {
                $name {
                    $($field: catalog!(@register r, $kind, $family, $help),)*
                }
            }
        }
    };
    (@register $r:ident, Counter, $family:literal, $help:literal) => {
        $r.counter($family, $help)
    };
    (@register $r:ident, Gauge, $family:literal, $help:literal) => {
        $r.gauge($family, $help)
    };
    (@register $r:ident, Histogram, $family:literal, $help:literal) => {
        $r.histogram($family, $help, &[], None)
    };
}

catalog! {
    /// Handles to the engine's families. The engine, its fleet threads and
    /// its reapers share one `Arc` of this.
    pub struct EngineMetrics {
        bytes_scanned: Counter = "pixels_exec_bytes_scanned_total",
            "Bytes fetched from object storage by query execution (the billed quantity)";
        rows_scanned: Counter = "pixels_exec_rows_scanned_total",
            "Rows decoded from storage by scans";
        rows_produced: Counter = "pixels_exec_rows_produced_total",
            "Rows emitted by scans after residual filtering";
        row_groups_read: Counter = "pixels_exec_row_groups_read_total",
            "Row groups actually decoded";
        row_groups_pruned: Counter = "pixels_exec_row_groups_pruned_total",
            "Row groups skipped via zone-map pruning";
        footer_hits: Counter = "pixels_cache_footer_hits_total",
            "File opens served from the footer/metadata cache (billed zero bytes)";
        prefetch_issued: Counter = "pixels_scan_prefetch_issued_total",
            "Morsel fetches started by the scan prefetcher";
        prefetch_hits: Counter = "pixels_scan_prefetch_hits_total",
            "Morsels whose fetch had already completed when a worker asked for them";
        prefetch_wasted: Counter = "pixels_scan_prefetch_wasted_total",
            "Prefetched morsels never consumed (scan aborted first)";
        coalesced_gets: Counter = "pixels_scan_coalesced_gets_total",
            "Ranged GETs issued for chunk data, one per run of merged neighbouring chunks";
        gap_bytes: Counter = "pixels_scan_gap_bytes_total",
            "Bytes transferred between merged chunks: store traffic, never billed";
        chunk_hits: Counter = "pixels_cache_chunk_hits_total",
            "Chunk reads served from the chunk-data cache (no storage GET; billed like a miss)";
        chunk_misses: Counter = "pixels_cache_chunk_misses_total",
            "Chunk reads that went to object storage and were offered to the cache";
        chunk_evictions: Counter = "pixels_cache_chunk_evictions_total",
            "Chunks evicted from the chunk-data cache to admit new entries";
        chunk_resident_bytes: Gauge = "pixels_cache_chunk_resident_bytes",
            "Bytes currently resident in the chunk-data cache";
        exchange_partitions: Counter = "pixels_exchange_partitions_total",
            "Hash partitions written across object-store exchanges";
        exchange_put_bytes: Counter = "pixels_exchange_put_bytes_total",
            "Bytes PUT as exchange spill objects (provider-side, never billed)";
        exchange_get_bytes: Counter = "pixels_exchange_get_bytes_total",
            "Bytes GET reading exchange spill objects back (provider-side, never billed)";
        exchange_spilled_rows: Counter = "pixels_exchange_spilled_rows_total",
            "Rows that crossed an object-store exchange (post-combining)";
        pub(crate) vm_slot_wait: Histogram = "pixels_turbo_vm_slot_wait_seconds",
            "Time queries spent waiting for a free VM slot";
        pub(crate) forced_starts: Counter = "pixels_turbo_forced_starts_total",
            "Queries force-started unslotted after their scheduler \
             deadline expired while waiting for a VM slot";
        pub(crate) cf_invocations: Counter = "pixels_turbo_cf_invocations_total",
            "Queries accelerated by the cloud-function tier";
        pub(crate) cf_crashes: Counter = "pixels_turbo_cf_crashes_total",
            "CF fleet attempts that crashed or failed";
        pub(crate) cf_retries: Counter = "pixels_turbo_cf_retries_total",
            "CF sub-plans relaunched on a fresh fleet after a failure";
        pub(crate) cf_stragglers: Counter = "pixels_turbo_cf_stragglers_total",
            "CF runs that exceeded the straggler deadline";
        pub(crate) speculative_launches: Counter = "pixels_speculative_launches_total",
            "Speculative duplicate CF fleets launched against stragglers";
        pub(crate) wasted_bytes: Counter = "pixels_turbo_speculative_wasted_bytes_total",
            "Bytes scanned by cancelled speculative CF attempts \
             (provider-side cost, never billed to the query)";
        pub(crate) cf_degradations: Counter = "pixels_turbo_cf_degradations_total",
            "Queries that fell back from the CF tier to the VM tier";
    }
}

impl EngineMetrics {
    /// Add one query's billed execution counters.
    pub(crate) fn exec(&self, m: &ExecMetricsSnapshot) {
        self.bytes_scanned.add(m.bytes_scanned);
        self.rows_scanned.add(m.rows_scanned);
        self.rows_produced.add(m.rows_produced);
        self.row_groups_read.add(m.row_groups_read);
        self.row_groups_pruned
            .add(m.row_groups_total.saturating_sub(m.row_groups_read));
        self.footer_hits.add(m.footer_cache_hits);
    }

    /// Add one execution context's prefetcher and vectored-GET counters.
    /// They are not part of [`ExecMetricsSnapshot`]: prefetch overlap and
    /// cache residency legitimately differ between runs whose results and
    /// bills are identical.
    pub(crate) fn pipeline(&self, p: &ScanPipelineSnapshot) {
        self.prefetch_issued.add(p.prefetch_issued);
        self.prefetch_hits.add(p.prefetch_hits);
        self.prefetch_wasted.add(p.prefetch_wasted);
        self.coalesced_gets.add(p.coalesced_gets);
        self.gap_bytes.add(p.gap_bytes);
    }

    /// Add one stage attempt's exchange traffic (losing attempts included).
    pub(crate) fn exchange(&self, s: &ExchangeStats) {
        self.exchange_partitions.add(s.partitions);
        self.exchange_put_bytes.add(s.put_bytes);
        self.exchange_get_bytes.add(s.get_bytes);
        self.exchange_spilled_rows.add(s.spilled_rows);
    }

    /// Set the chunk-cache families to the shared cache's own totals.
    pub fn chunk_cache(&self, cache: &ChunkCache) {
        self.chunk_hits.advance_to(cache.hits());
        self.chunk_misses.advance_to(cache.misses());
        self.chunk_evictions.advance_to(cache.evictions());
        self.chunk_resident_bytes.set(cache.resident_bytes() as f64);
    }
}
