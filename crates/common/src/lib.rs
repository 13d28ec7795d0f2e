//! `pixels-common` — shared substrate for all PixelsDB crates.
//!
//! This crate holds everything more than one subsystem needs: the unified
//! [`error::Error`] type, scalar [`value::Value`]s, relational
//! [`schema::Schema`]s, columnar [`column::Column`]s (strings as a
//! pooled [`strvec::StrVec`]), packed row [`selection::Selection`]s and
//! [`batch::RecordBatch`]es, typed [`ids`], a dependency-free [`json`] codec
//! (used for the Rover ↔ text-to-SQL message format), and byte/price
//! formatting helpers.

pub mod batch;
pub mod bytesize;
pub mod column;
pub mod error;
pub mod ids;
pub mod json;
pub mod prices;
pub mod schema;
pub mod selection;
pub mod strvec;
pub mod value;

pub use batch::{pretty_format_batches, RecordBatch};
pub use column::{Column, ColumnBuilder, ColumnData};
pub use error::{Error, Result};
pub use ids::{CfWorkerId, IdGenerator, QueryId, SessionId, TableId, VmWorkerId};
pub use json::Json;
pub use schema::{Field, Schema, SchemaRef};
pub use selection::Selection;
pub use strvec::{StrPool, StrVec};
pub use value::{DataType, Value};
