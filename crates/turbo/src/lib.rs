//! `pixels-turbo` — the hybrid serverless query engine (paper §2–3.1).
//!
//! Pixels-Turbo executes queries in an auto-scaled VM cluster by default and
//! adaptively invokes cloud functions (CF) to absorb workload spikes the
//! cluster cannot scale into in time. This crate provides both:
//!
//! - **Simulation mode** ([`Coordinator`], [`VmCluster`], [`CfService`]) on
//!   the deterministic virtual clock — used by the scheduling, autoscaling,
//!   and pricing experiments. The VM cluster is a processor-sharing system
//!   with watermark autoscaling (high = 5, low = 0.75) and 1–2 minutes of
//!   boot lag; CF fleets spawn in under a second at 9–24× the resource unit
//!   price. These paper parameters are constants
//!   ([`vm_cluster`], [`policy`], and [`billing`] over
//!   `pixels_common::prices`), not settings.
//! - **Real mode** ([`TurboEngine`]) that executes SQL over Pixels data,
//!   using a bounded slot pool as the VM cluster and spawned threads +
//!   materialized intermediate results as CF fleets (via the planner's plan
//!   splitting).

pub mod billing;
pub mod cf_service;
pub mod coordinator;
pub mod engine;
pub mod metrics;
pub mod model;
pub mod policy;
pub mod vm_cluster;

pub use billing::{CostBreakdown, Placement};
pub use cf_service::{CfRun, CfService, LaunchFaults};
pub use coordinator::{Coordinator, FaultStats, QueryCompletion};
pub use engine::{EngineConfig, ExecOutcome, TurboEngine};
pub use metrics::EngineMetrics;
pub use model::QueryWork;
pub use pixels_exec::{ExchangeStats, ExecMetricsSnapshot};
pub use policy::{CfEffects, CfRace, Decision, RaceInput, MAX_CF_ATTEMPTS};
pub use vm_cluster::{VmCluster, VmCompletion, VmConfig};
