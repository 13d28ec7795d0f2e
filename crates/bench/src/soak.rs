//! The fixture of the `chaos_soak` gate: a TPC-H deployment behind a seeded
//! fault plan, one measured query run, the audit every deployment passes
//! (journal against query records, ledger against the journal, spill
//! namespace swept, `/metrics` valid), and the comparison of a faulted run
//! against its fault-free twin.

use pixels_catalog::Catalog;
use pixels_chaos::{FaultInjector, FaultPlan, RetryPolicy};
use pixels_common::RecordBatch;
use pixels_obs::journal::ledger_of;
use pixels_obs::{MetricsRegistry, WallClock};
use pixels_server::{PriceSchedule, QueryServer, QueryStatus, QuerySubmission, ServiceLevel};
use pixels_storage::{chaos_stack, InMemoryObjectStore, ObjectStoreRef};
use pixels_turbo::{EngineConfig, TurboEngine};
use pixels_workload::{load_tpch, TpchConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A full stack behind one fault plan: TPC-H loaded into an in-memory
/// store, wrapped `Retrying(Chaos(inner))`, under a query server.
pub struct Deployment {
    pub server: QueryServer,
    pub injector: Arc<FaultInjector>,
    /// The raw inner store, for spill-leak sweeps under the chaos wrapper.
    store: ObjectStoreRef,
}

impl Deployment {
    /// The same data under every plan (the plan carries the seed), so a
    /// faulted deployment and its fault-free twin differ in the plan only.
    pub fn new(plan: &FaultPlan, cfg: EngineConfig) -> Deployment {
        let catalog = Catalog::shared();
        let inner = InMemoryObjectStore::shared();
        load_tpch(
            &catalog,
            inner.as_ref(),
            "tpch",
            &TpchConfig {
                scale: 0.001,
                seed: 11,
                row_group_rows: 512,
                files_per_table: 2,
            },
        )
        .expect("load tpch");
        let injector = Arc::new(FaultInjector::new(plan));
        let store = chaos_stack(
            inner.clone(),
            injector.clone(),
            RetryPolicy::object_store(),
            WallClock::shared(),
        );
        let engine = Arc::new(
            TurboEngine::new(catalog, store, cfg)
                // Private registry per deployment so scenarios don't bleed into
                // each other's /metrics assertions.
                .with_registry(MetricsRegistry::shared())
                .with_chaos(injector.clone()),
        );
        Deployment {
            server: QueryServer::new(engine, PriceSchedule::default()),
            injector,
            store: inner,
        }
    }

    /// Submit one query and wait for it.
    pub fn run_query(&self, sql: &str, qid: &'static str, level: ServiceLevel) -> RunRecord {
        let start = Instant::now();
        let id = self.server.submit(QuerySubmission {
            database: "tpch".into(),
            sql: sql.into(),
            level,
            result_limit: None,
            tenant: None,
            deadline_us: None,
        });
        let info = self.server.wait(id).expect("query record");
        RunRecord {
            query_id: qid,
            finished: info.status == QueryStatus::Finished,
            batch: info.result,
            scan_bytes: info.scan_bytes,
            price: info.price,
            shuffle_dollars: info.provider_shuffle_dollars,
            retries: info.retries,
            latency: start.elapsed(),
        }
    }

    /// What must hold of a deployment under every fault plan, each breach
    /// pushed to `failures` under `side`:
    /// - the journal holds one entry per query, with its record's status
    ///   and mode, and each finished query's entry carries its record's
    ///   bytes, bill and every provider dollar, bit for bit (faults may move
    ///   dollars; they may never unbalance the books);
    /// - the ledger holds one entry per finished query, and its sums equal
    ///   the journal's fold, bit for bit, overall, per level and per tenant;
    /// - no exchange spill or MV under `pixels-turbo/intermediate/` outlives
    ///   its query (the reapers run detached, so poll briefly first);
    /// - `/metrics` is a valid exposition.
    pub fn audit(&self, side: &str, failures: &mut Vec<String>) {
        let infos = self.server.list();
        let journal = self.server.journal().entries();
        if journal.len() != infos.len() {
            failures.push(format!(
                "{side}: journal holds {} entries for {} queries",
                journal.len(),
                infos.len()
            ));
        }
        for i in &infos {
            let same = (journal.iter())
                .find(|e| e.query == i.id.to_string())
                .is_some_and(|e| {
                    e.status == i.status.name()
                        && e.level == i.submission.mode().name()
                        && (i.status != QueryStatus::Finished
                            || e.scan_bytes == i.scan_bytes
                                && e.revenue_dollars.to_bits() == i.price.to_bits()
                                && e.vm_dollars.to_bits() == i.resource_cost.vm_dollars.to_bits()
                                && e.cf_dollars.to_bits() == i.resource_cost.cf_dollars.to_bits()
                                && e.provider_cf_dollars.to_bits()
                                    == i.provider_cf_dollars.to_bits()
                                && e.shuffle_dollars.to_bits()
                                    == i.provider_shuffle_dollars.to_bits())
                });
            if !same {
                failures.push(format!(
                    "{side}: the journal entry of {} diverges from its query record",
                    i.id
                ));
            }
        }
        let finished = (infos.iter())
            .filter(|i| i.status == QueryStatus::Finished)
            .count() as u64;
        let ledgered = self.server.ledger().summary().entries;
        if ledgered != finished {
            failures.push(format!(
                "{side}: ledger holds {ledgered} entries for {finished} finished queries"
            ));
        }
        if !ledger_of(&journal).same_books(self.server.ledger()) {
            failures.push(format!(
                "{side}: ledger sums diverge from the journal's fold"
            ));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let leaked = self
                .store
                .list("pixels-turbo/intermediate/")
                .unwrap_or_default();
            if leaked.is_empty() {
                break;
            }
            if Instant::now() >= deadline {
                failures.push(format!("{side}: leaked spill objects: {leaked:?}"));
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        if let Err(e) = pixels_obs::validate_exposition(&self.server.metrics_text()) {
            failures.push(format!("{side}: bad exposition: {e}"));
        }
    }
}

#[derive(Clone)]
pub struct RunRecord {
    pub query_id: &'static str,
    pub finished: bool,
    pub batch: Option<Arc<RecordBatch>>,
    pub scan_bytes: u64,
    pub price: f64,
    pub shuffle_dollars: f64,
    pub retries: u64,
    pub latency: Duration,
}

/// Compare one faulted run against its fault-free twin. Returns an error
/// string on the first divergence. Shuffle dollars are compared bit-for-bit:
/// they are priced from the *accepted* stage attempts only, so faults
/// (retried PUT/GETs, crashed and relaunched stages) must never move them.
pub fn check_pair(base: &RunRecord, chaos: &RunRecord) -> Result<(), String> {
    let q = base.query_id;
    if !base.finished || !chaos.finished {
        return Err(format!(
            "{q}: availability broken (baseline finished={}, chaos finished={})",
            base.finished, chaos.finished
        ));
    }
    if base.batch != chaos.batch {
        return Err(format!(
            "{q}: results diverged under faults (bit-identity violated)"
        ));
    }
    if base.scan_bytes != chaos.scan_bytes {
        return Err(format!(
            "{q}: billed bytes diverged: fault-free {} vs chaos {}",
            base.scan_bytes, chaos.scan_bytes
        ));
    }
    if base.price != chaos.price {
        return Err(format!(
            "{q}: user bill diverged: fault-free ${} vs chaos ${}",
            base.price, chaos.price
        ));
    }
    if base.shuffle_dollars.to_bits() != chaos.shuffle_dollars.to_bits() {
        return Err(format!(
            "{q}: provider shuffle dollars diverged: fault-free ${} vs chaos ${}",
            base.shuffle_dollars, chaos.shuffle_dollars
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_audit_passes_a_deployment_with_a_failed_query() {
        // A failed query is journaled as failed and never ledgered: the
        // audit holds it to both, beside the finished ones.
        let d = Deployment::new(&FaultPlan::none(1), EngineConfig::default());
        let ok = d.run_query("SELECT COUNT(*) FROM region", "ok", ServiceLevel::Immediate);
        let bad = d.run_query("SELECT zap FROM region", "bad", ServiceLevel::Relaxed);
        assert!(ok.finished && !bad.finished);
        let mut failures = Vec::new();
        d.audit("test", &mut failures);
        assert!(failures.is_empty(), "{failures:?}");
    }
}
