//! `pixels-storage` — the Pixels columnar file format and cloud object
//! storage.
//!
//! This crate is the storage substrate of PixelsDB:
//!
//! - [`object_store`] — an S3-like object store trait plus an in-memory
//!   implementation with exact byte accounting (the basis of $/TB-scan
//!   billing) and a latency model for the simulator.
//! - [`format`], [`writer`], [`reader`] — a from-scratch columnar file
//!   format with row groups, per-chunk encodings, and zone-map statistics
//!   enabling projection and predicate pushdown.
//! - [`encoding`] — plain, run-length, and dictionary encodings with a
//!   per-chunk chooser.
//! - [`stats`] — min/max/null statistics used for pruning and costing.
//! - [`encoded`] — encoded chunks as first-class values: filtered decode
//!   and RLE run views for decode-avoiding execution (a dictionary chunk's
//!   full decode already is its dictionary plus codes).
//! - [`meta_cache`] — a shared footer/schema cache so repeated opens of the
//!   same object skip the footer GETs entirely (and are not billed twice),
//!   plus a bounded chunk-data cache with LRU-style eviction.
//! - [`chaos_store`] — fault-injecting and retrying store decorators wired
//!   to the `pixels-chaos` fault plans; failed GETs are counted but never
//!   billed, and transient errors retry under seeded backoff.

pub mod chaos_store;
pub mod codec;
pub mod encoded;
pub mod encoding;
pub mod format;
pub mod meta_cache;
pub mod object_store;
pub mod reader;
pub mod stats;
pub mod writer;

pub use chaos_store::{chaos_stack, exchange_stack, ChaosObjectStore, RetryingObjectStore};
pub use encoded::{EncodedChunk, RleRuns};
pub use encoding::Encoding;
pub use format::{ColumnChunkMeta, Footer, RowGroupMeta};
pub use meta_cache::{ChunkCache, FileMeta, FooterCache};
pub use object_store::{
    InMemoryObjectStore, LatencyModel, ObjectStore, ObjectStoreRef, StoreMetricsSnapshot,
};
pub use reader::{
    ColumnPredicate, FetchStats, PixelsReader, PredicateOp, RowGroupFetch, COALESCE_GAP_BYTES,
};
pub use stats::ColumnStats;
pub use writer::{write_table, PixelsWriter, DEFAULT_ROW_GROUP_ROWS};
