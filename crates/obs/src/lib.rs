//! `pixels-obs` — observability for PixelsDB: end-to-end query tracing, a
//! unified metrics registry, and Prometheus text exposition.
//!
//! The paper's flexible service levels and per-query prices only work if the
//! system can account for *where* a query's time and bytes went — VM vs. CF,
//! queue wait vs. scan vs. shuffle. This crate provides the three pieces
//! every other crate instruments itself with:
//!
//! - **Tracing** ([`Trace`], [`TraceCtx`], [`Span`]): per-query span trees
//!   with parent links and typed attributes, stamped by a pluggable
//!   [`Clock`] so real execution (wall time) and the discrete-event
//!   simulator ([`SimClock`], virtual time) produce one coherent trace
//!   format. Disabled tracing is a no-op — no allocation, no locking.
//! - **Metrics** ([`MetricsRegistry`]): named counters (sharded for morsel
//!   workers), gauges, and histograms with labels. Owners register their
//!   families once and hold the handles; totals kept elsewhere (storage
//!   accounting, cache stats, ledger, SLO) are set with
//!   [`Counter::advance_to`] at scrape time.
//! - **Exposition** ([`MetricsRegistry::render`],
//!   [`prometheus::validate_exposition`]): the `/metrics` text format plus a
//!   validator used by tests and CI.
//!
//! Layer two turns those raw signals into the operator-facing economics of
//! the paper — are deadlines being met, and at what cost?
//!
//! - **SLOs** ([`SloTracker`]): per-service-level latency objectives with
//!   sliding-window burn rates, clock-driven so server and simulator share
//!   one implementation.
//! - **Economics** ([`Ledger`]): one append-only entry per query tying user
//!   revenue to provider CF/VM spend and speculation waste, reconciling
//!   bit-for-bit with billing and the policy core.
//! - **Journal** ([`QueryJournal`]): a JSON-lines lifecycle record per query;
//!   [`journal::replay`] recomputes registry aggregates from it alone.
//! - **Attribution** ([`selftime`]): self- vs. child-time rollups over the
//!   span tree, surfaced in query profiles and `EXPLAIN ANALYZE`.
//!
//! No external dependencies: like the rest of the workspace this builds
//! fully offline against the in-tree shims.

pub mod clock;
pub mod journal;
pub mod ledger;
pub mod prometheus;
pub mod registry;
pub mod selftime;
pub mod slo;
pub mod span;

pub use clock::{Clock, ClockRef, SimClock, WallClock};
pub use journal::{JournalEntry, QueryJournal, ReplayAggregates};
pub use ledger::{Ledger, LedgerEntry, LedgerSummary};
pub use prometheus::{require_families, validate_exposition};
pub use registry::{Counter, Gauge, Histogram, MetricKind, MetricsRegistry};
pub use selftime::{operator_rollup, render_operator_table, OperatorTiming};
pub use slo::{SloObjective, SloTracker};
pub use span::{AttrValue, Profile, Span, SpanData, Trace, TraceCtx};
