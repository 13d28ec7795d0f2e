//! One query as the server keeps it: what the user submitted, the record
//! clients read back, and the slot that holds the record with the signal
//! that it changed.

use crate::scheduler::AdmissionMode;
use crate::service_level::ServiceLevel;
use parking_lot::{Condvar, Mutex};
use pixels_common::{Json, QueryId, RecordBatch};
use pixels_obs::Profile;
use pixels_turbo::{CostBreakdown, Decision, ExchangeStats, ExecMetricsSnapshot, QueryEvent};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Lifecycle of a submitted query (paper §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStatus {
    Pending,
    Running,
    Finished,
    Failed,
    /// Refused at admission (infeasible deadline or exhausted tenant
    /// budget): never executed, never billed, never cached.
    Rejected,
}

impl QueryStatus {
    pub fn name(self) -> &'static str {
        match self {
            QueryStatus::Pending => "pending",
            QueryStatus::Running => "running",
            QueryStatus::Finished => "finished",
            QueryStatus::Failed => "failed",
            QueryStatus::Rejected => "rejected",
        }
    }

    /// Finished, failed or rejected: the record will not change again.
    pub fn is_terminal(self) -> bool {
        !matches!(self, QueryStatus::Pending | QueryStatus::Running)
    }
}

/// What the user submits (the Figure 3 form).
#[derive(Debug, Clone)]
pub struct QuerySubmission {
    pub database: String,
    pub sql: String,
    pub level: ServiceLevel,
    /// Truncate the result to at most this many rows.
    pub result_limit: Option<usize>,
    /// Billing tenant for the economics ledger; `None` bills "default".
    pub tenant: Option<String>,
    /// Completion target in microseconds. When set, the query is admitted
    /// in deadline mode — `level` is ignored for scheduling and pricing —
    /// and rejected outright if the target is infeasible.
    pub deadline_us: Option<u64>,
}

impl QuerySubmission {
    /// The ledger tenant this submission bills to.
    pub fn tenant_name(&self) -> &str {
        self.tenant.as_deref().unwrap_or("default")
    }

    /// The admission mode this submission asks for.
    pub fn mode(&self) -> AdmissionMode {
        match self.deadline_us {
            Some(target_us) => AdmissionMode::Deadline { target_us },
            None => AdmissionMode::Level(self.level),
        }
    }
}

/// Full state of one query as reported to clients.
#[derive(Debug, Clone)]
pub struct QueryInfo {
    pub id: QueryId,
    pub submission: QuerySubmission,
    pub status: QueryStatus,
    /// Shared, so copying a record never copies rows.
    pub result: Option<Arc<RecordBatch>>,
    pub error: Option<String>,
    pub pending: Duration,
    pub execution: Duration,
    /// User-facing bill in dollars.
    pub price: f64,
    pub scan_bytes: u64,
    pub used_cf: bool,
    /// Monotone submission sequence for UI ordering.
    pub seq: u64,
    /// Full execution counters (structured, not just the EXPLAIN text).
    pub metrics: ExecMetricsSnapshot,
    /// Fault-recovery events the engine emitted while running this query:
    /// storage retries, CF crashes/relaunches, straggler speculation, and
    /// CF→VM degradation.
    pub events: Vec<QueryEvent>,
    /// Object-store requests retried under this query (transient failures
    /// masked by the retry policy).
    pub retries: u64,
    /// The query's span tree — scheduler wait, tier dispatch, operators,
    /// and storage accesses — once the query is terminal: compact JSON text
    /// written once from the finished spans.
    pub profile: Option<Profile>,
    /// Ordered policy-core decisions (CF dispatch, speculation, degradation)
    /// made while executing this query.
    pub decisions: Vec<Decision>,
    /// Modelled provider cost of the accepted execution.
    pub resource_cost: CostBreakdown,
    /// Modelled provider CF spend across all attempts, crashed and
    /// cancelled included.
    pub provider_cf_dollars: f64,
    /// Provider cost of exchange spill traffic (multi-stage CF plans only;
    /// never part of the user's bill).
    pub provider_shuffle_dollars: f64,
    /// Spill traffic of the accepted attempts of a multi-stage CF plan.
    pub exchange: ExchangeStats,
}

impl QueryInfo {
    /// The record of a query just submitted: pending, nothing measured yet.
    pub(crate) fn pending(id: QueryId, submission: QuerySubmission) -> QueryInfo {
        QueryInfo {
            id,
            submission,
            status: QueryStatus::Pending,
            result: None,
            error: None,
            pending: Duration::ZERO,
            execution: Duration::ZERO,
            price: 0.0,
            scan_bytes: 0,
            used_cf: false,
            seq: id.0,
            metrics: ExecMetricsSnapshot::default(),
            events: Vec::new(),
            retries: 0,
            profile: None,
            decisions: Vec::new(),
            resource_cost: CostBreakdown::default(),
            provider_cf_dollars: 0.0,
            provider_shuffle_dollars: 0.0,
            exchange: ExchangeStats::default(),
        }
    }

    /// JSON status payload (the shape Pixels-Rover renders).
    pub fn to_json(&self) -> Json {
        let events = self.events.iter().map(|e| Json::string(e.describe()));
        let mut fields = vec![
            ("id", Json::string(self.id.to_string())),
            ("status", Json::string(self.status.name())),
            ("service_level", Json::string(self.submission.mode().name())),
            ("tenant", Json::string(self.submission.tenant_name())),
            ("sql", Json::string(self.submission.sql.clone())),
            ("pending_ms", Json::number(self.pending.as_secs_f64() * 1e3)),
            (
                "execution_ms",
                Json::number(self.execution.as_secs_f64() * 1e3),
            ),
            ("cost_dollars", Json::number(self.price)),
            ("scan_bytes", Json::number(self.scan_bytes as f64)),
            ("used_cf", Json::Bool(self.used_cf)),
            ("retries", Json::number(self.retries as f64)),
            ("events", Json::array(events)),
            ("metrics", self.metrics.to_json()),
        ];
        if let Some(err) = &self.error {
            fields.push(("error", Json::string(err.clone())));
        }
        if let Some(result) = &self.result {
            fields.push(("result_rows", Json::number(result.num_rows() as f64)));
        }
        Json::object(fields)
    }
}

/// One query's slot: its record and the signal that the record changed.
pub(crate) struct QuerySlot {
    /// Behind an `Arc` so a read copies a pointer under the lock and
    /// whatever else it needs outside it.
    record: Mutex<Arc<QueryInfo>>,
    changed: Condvar,
}

impl QuerySlot {
    pub(crate) fn new(info: QueryInfo) -> QuerySlot {
        QuerySlot {
            record: Mutex::new(Arc::new(info)),
            changed: Condvar::new(),
        }
    }

    pub(crate) fn snapshot(&self) -> Arc<QueryInfo> {
        self.record.lock().clone()
    }

    /// Change the record and wake everyone waiting on it. Whoever reads the
    /// record sees all of `change` or none of it.
    pub(crate) fn update(&self, change: impl FnOnce(&mut QueryInfo)) {
        change(Arc::make_mut(&mut self.record.lock()));
        self.changed.notify_all();
    }

    /// Wait on the slot's signal until the record is terminal, `give_up`
    /// has passed (never, when `None`) or `cancel` is set, and return the
    /// record as it then stands, terminal or not.
    pub(crate) fn await_terminal(
        &self,
        give_up: Option<Instant>,
        cancel: &AtomicBool,
    ) -> Arc<QueryInfo> {
        let mut record = self.record.lock();
        while !record.status.is_terminal() && !cancel.load(Ordering::SeqCst) {
            let Some(give_up) = give_up else {
                self.changed.wait(&mut record);
                continue;
            };
            let left = give_up.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            self.changed.wait_for(&mut record, left);
        }
        record.clone()
    }

    /// Wake every [`await_terminal`](Self::await_terminal) so it reads its
    /// cancel flag again.
    pub(crate) fn wake(&self) {
        // Through the slot's lock, so no waiter is between reading the flag
        // and starting to wait.
        drop(self.record.lock());
        self.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use crate::api::tests::{server, submission};
    use crate::ServiceLevel;
    use pixels_common::Json;

    #[test]
    fn json_status_payload() {
        let s = server();
        let id = s.submit(submission(
            "SELECT COUNT(*) FROM region",
            ServiceLevel::Immediate,
        ));
        let info = s.wait(id).unwrap();
        let json = info.to_json();
        assert_eq!(json.get("status").unwrap().as_str(), Some("finished"));
        assert_eq!(
            json.get("service_level").unwrap().as_str(),
            Some("immediate")
        );
        assert!(json.get("cost_dollars").unwrap().as_f64().unwrap() >= 0.0);
        // Roundtrips through the wire format.
        let text = json.to_compact_string();
        assert_eq!(Json::parse(&text).unwrap(), json);
    }
}
