//! PixelsDB — serverless and NL-aided data analytics with flexible service
//! levels and prices.
//!
//! This facade crate re-exports the public API of every PixelsDB subsystem:
//!
//! - [`common`] — values, schemas, columnar batches, errors, JSON.
//! - [`storage`] — the Pixels columnar file format and the object store.
//! - [`catalog`] — database/table metadata and statistics.
//! - [`sql`] — SQL lexer, parser, and AST.
//! - [`planner`] — binder, one plan tree, optimizer, TopK fusion, CF plan split.
//! - [`exec`] — vectorized query execution.
//! - [`sim`] — the discrete-event simulation kernel.
//! - [`obs`] — clocks, tracing spans, and the unified metrics registry.
//! - [`chaos`] — deterministic fault injection and retry/backoff policies.
//! - [`turbo`] — Pixels-Turbo: VM cluster, CF service, coordinator, billing.
//! - [`server`] — the Query Server: service levels, queues, pricing.
//! - [`nl2sql`] — the CodeS-style natural-language-to-SQL service.
//! - [`rover`] — the Pixels-Rover terminal client.
//! - [`workload`] — TPC-H-subset and web-log generators, arrival processes.
//!
//! See `examples/quickstart.rs` for an end-to-end tour.

pub use pixels_catalog as catalog;
pub use pixels_chaos as chaos;
pub use pixels_common as common;
pub use pixels_exec as exec;
pub use pixels_nl2sql as nl2sql;
pub use pixels_obs as obs;
pub use pixels_planner as planner;
pub use pixels_rover as rover;
pub use pixels_server as server;
pub use pixels_sim as sim;
pub use pixels_sql as sql;
pub use pixels_storage as storage;
pub use pixels_turbo as turbo;
pub use pixels_workload as workload;
