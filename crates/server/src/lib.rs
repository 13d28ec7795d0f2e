//! `pixels-server` — the Query Server of PixelsDB (paper §3.2).
//!
//! The query server fronts Pixels-Turbo and implements the paper's central
//! contribution: **flexible service levels and prices**. Each query is
//! submitted at one of three levels:
//!
//! | level | pending-time bound | CF acceleration | price |
//! |---|---|---|---|
//! | immediate | none (starts now) | enabled | $5/TB scanned |
//! | relaxed | grace period (e.g. 5 min) | disabled | $1/TB |
//! | best-of-effort | unbounded | disabled | $0.5/TB |
//!
//! Two modes are provided: a deterministic [`sim::ServerSim`] on the virtual
//! clock and a threaded real-mode [`api::QueryServer`] over
//! [`pixels_turbo::TurboEngine`] that Pixels-Rover talks to. `ServerSim` is
//! the one simulated admission driver — an event loop on
//! [`pixels_sim::EventQueue`] over a plug-in [`pixels_turbo::Capacity`]
//! model: the [`pixels_turbo::Coordinator`] cluster micro-model for every
//! scheduling/pricing experiment, [`soak::AnalyticFleet`] for the
//! million-user [`soak::run_soak`], which is a configuration of the same
//! driver.

pub mod api;
pub mod auth;
pub mod fair;
pub mod http;
pub mod metrics;
pub mod pricing;
pub mod scheduler;
pub mod service_level;
pub mod shared;
pub mod sim;
pub mod soak;
pub mod tenant;

pub use api::{QueryInfo, QueryServer, QueryStatus, QuerySubmission};
pub use auth::{AuthService, SessionToken};
pub use fair::{FairQueue, Grant, QueuedQuery};
pub use http::{HttpServer, TranslateBackend};
pub use metrics::ServerMetrics;
pub use pricing::PriceSchedule;
pub use scheduler::{Admission, AdmissionMode, LoadSignal, QueueVerdict, SchedulerPolicy};
pub use service_level::ServiceLevel;
pub use shared::{ShareKind, SharedWork, SharingConfig};
pub use sim::{QueryRecord, ServerConfig, ServerSim, SimReport, Submission, TenantSubmission};
pub use soak::{run_soak, SoakConfig, SoakReport};
pub use tenant::{SpendBook, TenantDirectory, TenantPolicy};
