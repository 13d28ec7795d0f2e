//! `pixels-sim` — a minimal deterministic discrete-event simulation kernel.
//!
//! PixelsDB separates *query semantics* (which always execute for real via
//! `pixels-exec`) from *infrastructure timing* (VM boot lag, cloud-function
//! startup, admission queues), which runs on the virtual clock provided here.
//! The kernel is deliberately tiny: a virtual [`clock`], a deterministic
//! [`event::EventQueue`], and [`metrics`] for recording experiment output.
//! The one domain event loop over it is the simulated query server
//! (`pixels_server::sim::ServerSim`), which pops arrivals, force-start
//! bounds and the wakes its cluster model (`pixels_turbo::Coordinator`)
//! asks for from a single `EventQueue`.

pub mod clock;
pub mod event;
pub mod metrics;

pub use clock::{SimDuration, SimTime};
pub use event::EventQueue;
pub use metrics::{DurationStats, TimeSeries};
