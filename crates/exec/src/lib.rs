//! `pixels-exec` — the query execution engine of PixelsDB.
//!
//! Executes [`pixels_planner::PhysicalPlan`]s over Pixels tables in object
//! storage: scans with projection/zone-map pushdown, hash joins, hash
//! aggregation (with DISTINCT), sorting, top-k, and limits. Scans, filters,
//! projections, and partial aggregation are morsel-driven parallel (see
//! [`parallel`]), controlled by [`ExecContext::parallelism`]. Expression
//! semantics are shared with the planner's constant folder through
//! `pixels_planner::eval`, so plans always agree with runtime behaviour.
//!
//! The engine also provides [`materialize`], used by the CF acceleration
//! path to write a sub-plan's result back to object storage as a
//! materialized view.

pub mod aggregate;
pub mod batch;
pub mod context;
pub mod encoded;
pub mod engine;
pub mod evaluate;
pub mod exchange;
pub mod join;
pub mod keys;
pub mod parallel;
pub mod prefetch;
pub mod scalar;
pub mod scan;
pub mod sort;

pub use context::{
    default_parallelism, ExecContext, ExecMetrics, ExecMetricsSnapshot, ScanPipelineSnapshot,
    DEFAULT_BATCH_SIZE,
};
pub use engine::{execute, execute_collect, operator_name};
pub use evaluate::{evaluate, fused_filter_mask, predicate_mask};
pub use exchange::{ExchangeStats, JoinSide};
pub use prefetch::PrefetchStats;

use pixels_common::{RecordBatch, Result, SchemaRef};
use pixels_storage::{ObjectStore, PixelsWriter};

/// Write batches to `path` in Pixels format (used for CF-produced
/// intermediate results). Returns the object's size in bytes.
pub fn materialize(
    store: &dyn ObjectStore,
    path: &str,
    schema: SchemaRef,
    batches: &[RecordBatch],
) -> Result<u64> {
    let mut w = PixelsWriter::new(store, path, schema);
    for b in batches {
        w.write_batch(b)?;
    }
    w.finish()
}

/// Convenience for tests and clients: run SQL end-to-end against a catalog
/// and store, returning a single result batch.
pub fn run_query(
    catalog: &pixels_catalog::Catalog,
    store: pixels_storage::ObjectStoreRef,
    default_db: &str,
    sql: &str,
) -> Result<RecordBatch> {
    let plan = pixels_planner::plan_query(catalog, default_db, sql)?;
    let ctx = ExecContext::new(store);
    execute_collect(&plan, &ctx)
}
