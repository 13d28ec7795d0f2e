//! The query server's `/metrics` catalog: every family `pixels-server` owns,
//! named once and held as handles, so submitting, dispatching and settling
//! a query never touches the registry.

use crate::query::{QueryInfo, QueryStatus};
use crate::scheduler::DEADLINE_LEVEL;
use crate::service_level::ServiceLevel;
use pixels_obs::{journal, Counter, Gauge, Histogram, MetricsRegistry};
use std::sync::Arc;

/// Handles to the server's families, registered at zero by
/// [`new`](ServerMetrics::new) — one series per level, and per level ×
/// terminal status, included.
pub struct ServerMetrics {
    queue_depth: Vec<(&'static str, Arc<Gauge>)>,
    queries: Vec<(&'static str, QueryStatus, Arc<Counter>)>,
    pending: Arc<Histogram>,
    execution: Arc<Histogram>,
}

impl ServerMetrics {
    pub fn new(r: &MetricsRegistry) -> ServerMetrics {
        let levels = ServiceLevel::ALL
            .map(ServiceLevel::name)
            .into_iter()
            .chain([DEADLINE_LEVEL]);
        let mut queue_depth = Vec::new();
        let mut queries = Vec::new();
        for level in levels {
            queue_depth.push((
                level,
                r.gauge_with(
                    "pixels_scheduler_queue_depth",
                    "Queries submitted but not yet running, per service level",
                    &[("level", level)],
                ),
            ));
            for status in [
                QueryStatus::Finished,
                QueryStatus::Failed,
                QueryStatus::Rejected,
            ] {
                let series = r.counter_with(
                    journal::QUERIES_TOTAL,
                    "Queries reaching a terminal status, per service level",
                    &[("level", level), ("status", status.name())],
                );
                queries.push((level, status, series));
            }
        }
        ServerMetrics {
            queue_depth,
            queries,
            pending: r.histogram(
                "pixels_query_pending_seconds",
                "Time from submission to execution start",
                &[],
                None,
            ),
            execution: r.histogram(
                "pixels_query_execution_seconds",
                "Query execution wall time",
                &[],
                None,
            ),
        }
    }

    /// The queue-depth gauge of one level (a [`crate::AdmissionMode`] name).
    pub(crate) fn queue_depth(&self, level: &str) -> &Gauge {
        let (_, gauge) = self
            .queue_depth
            .iter()
            .find(|(l, _)| *l == level)
            .expect("every level has a queue-depth series");
        gauge
    }

    /// Count one query reaching its terminal status.
    pub(crate) fn terminal(&self, info: &QueryInfo) {
        let level = info.submission.mode().name();
        let (_, _, series) = self
            .queries
            .iter()
            .find(|(l, s, _)| *l == level && *s == info.status)
            .expect("every level × terminal status has a series");
        series.inc();
        // The latency histograms describe queries that ran.
        if info.status != QueryStatus::Rejected {
            self.pending.observe(info.pending.as_secs_f64());
            self.execution.observe(info.execution.as_secs_f64());
        }
    }
}
