//! Fault-injecting and retrying object-store wrappers.
//!
//! Two composable decorators around any [`ObjectStore`]:
//!
//! - [`ChaosObjectStore`] consults a `pixels-chaos` [`FaultInjector`] at its
//!   (PUT, GET) fault sites *before* delegating, so an injected GET failure
//!   transfers zero bytes and touches none of the inner store's counters —
//!   billed byte totals only ever reflect successful reads.
//! - [`RetryingObjectStore`] re-issues transiently-failed GETs under a
//!   seeded [`RetryPolicy`], sleeping on the supplied [`Clock`] between
//!   attempts (wall time in the engine, virtual time in the simulator).
//!
//! The intended layering is `Retrying(Chaos(real store))`: faults fire
//! below the retry loop, exactly where S3 errors would.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use pixels_chaos::{FaultInjector, FaultSite, Inject, RetryPolicy};
use pixels_common::{Error, Result};
use pixels_obs::ClockRef;

use crate::object_store::{ObjectStore, ObjectStoreRef, StoreMetricsSnapshot};

/// Whether an object-store error is worth retrying. Missing objects are a
/// *semantic* condition (the caller asked for something that does not
/// exist); everything else models a transient service-side failure.
pub fn is_transient(e: &Error) -> bool {
    !matches!(e, Error::NotFound(_))
}

/// An [`ObjectStore`] decorator that injects faults from a deterministic
/// fault plan at one (PUT, GET) pair of sites: `storage_put`/`storage_get`
/// for the scan path, `exchange_put`/`exchange_get` for the store the engine
/// hands to exchange spill writers/readers — so shuffle traffic draws from
/// its own fault streams and ordinary scan GET sequences stay unperturbed.
pub struct ChaosObjectStore {
    inner: ObjectStoreRef,
    injector: Arc<FaultInjector>,
    clock: ClockRef,
    put_site: FaultSite,
    get_site: FaultSite,
    gets_failed: AtomicU64,
}

impl ChaosObjectStore {
    pub fn new(
        inner: ObjectStoreRef,
        injector: Arc<FaultInjector>,
        clock: ClockRef,
        (put_site, get_site): (FaultSite, FaultSite),
    ) -> Self {
        ChaosObjectStore {
            inner,
            injector,
            clock,
            put_site,
            get_site,
            gets_failed: AtomicU64::new(0),
        }
    }

    pub fn injector(&self) -> &Arc<FaultInjector> {
        &self.injector
    }

    /// Apply the injector's verdict for `site`; `Ok(())` means proceed.
    fn gate(&self, site: FaultSite, path: &str) -> Result<()> {
        match self.injector.decide(site) {
            Inject::None => Ok(()),
            Inject::Delay { micros } => {
                self.clock.sleep_micros(micros);
                Ok(())
            }
            Inject::Error => {
                // Only scan GETs count: `gets_failed` is the scan path's
                // failed-read metric.
                if site == FaultSite::StorageGet {
                    self.gets_failed.fetch_add(1, Ordering::Relaxed);
                }
                Err(Error::Storage(format!(
                    "injected {} failure for {path}",
                    site.name()
                )))
            }
        }
    }
}

impl ObjectStore for ChaosObjectStore {
    fn put(&self, path: &str, data: Bytes) -> Result<()> {
        self.gate(self.put_site, path)?;
        self.inner.put(path, data)
    }

    fn get(&self, path: &str) -> Result<Bytes> {
        self.gate(self.get_site, path)?;
        self.inner.get(path)
    }

    fn get_range(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        self.gate(self.get_site, path)?;
        self.inner.get_range(path, offset, len)
    }

    fn size(&self, path: &str) -> Result<u64> {
        self.inner.size(path)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.inner.list(prefix)
    }

    fn delete(&self, path: &str) -> Result<()> {
        self.inner.delete(path)
    }

    fn generation(&self, path: &str) -> Result<u64> {
        // Metadata lookups (like `size`) are not fault-gated.
        self.inner.generation(path)
    }

    fn metrics(&self) -> StoreMetricsSnapshot {
        // Injected failures never reach the inner store, so surface them
        // here on top of whatever the inner store failed on its own.
        let mut m = self.inner.metrics();
        m.gets_failed += self.gets_failed.load(Ordering::Relaxed);
        m
    }
}

/// An [`ObjectStore`] decorator that retries transient GET failures under a
/// deterministic backoff schedule.
pub struct RetryingObjectStore {
    inner: ObjectStoreRef,
    policy: RetryPolicy,
    clock: ClockRef,
    seed: u64,
    /// Per-operation sequence number; combined with `seed` so each GET gets
    /// its own jitter stream while the overall behaviour stays seeded.
    op_seq: AtomicU64,
    retries: AtomicU64,
}

impl RetryingObjectStore {
    pub fn new(inner: ObjectStoreRef, policy: RetryPolicy, clock: ClockRef, seed: u64) -> Self {
        RetryingObjectStore {
            inner,
            policy,
            clock,
            seed,
            op_seq: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        }
    }

    pub fn shared(
        inner: ObjectStoreRef,
        policy: RetryPolicy,
        clock: ClockRef,
        seed: u64,
    ) -> ObjectStoreRef {
        Arc::new(RetryingObjectStore::new(inner, policy, clock, seed))
    }

    fn run_with_retry<T>(&self, op: impl FnMut() -> Result<T>) -> Result<T> {
        let op_seed = self
            .seed
            .wrapping_add(self.op_seq.fetch_add(1, Ordering::Relaxed));
        let outcome = self
            .policy
            .run(op_seed, self.clock.as_ref(), is_transient, op);
        if outcome.retries > 0 {
            self.retries
                .fetch_add(outcome.retries as u64, Ordering::Relaxed);
        }
        outcome.result
    }
}

impl ObjectStore for RetryingObjectStore {
    fn put(&self, path: &str, data: Bytes) -> Result<()> {
        self.run_with_retry(|| self.inner.put(path, data.clone()))
    }

    fn get(&self, path: &str) -> Result<Bytes> {
        self.run_with_retry(|| self.inner.get(path))
    }

    fn get_range(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        self.run_with_retry(|| self.inner.get_range(path, offset, len))
    }

    fn size(&self, path: &str) -> Result<u64> {
        self.run_with_retry(|| self.inner.size(path))
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.inner.list(prefix)
    }

    fn delete(&self, path: &str) -> Result<()> {
        self.inner.delete(path)
    }

    fn generation(&self, path: &str) -> Result<u64> {
        self.inner.generation(path)
    }

    fn metrics(&self) -> StoreMetricsSnapshot {
        let mut m = self.inner.metrics();
        m.retries += self.retries.load(Ordering::Relaxed);
        m
    }
}

/// The standard chaos stack: `Retrying(Chaos(inner))`, with retry jitter
/// seeded from the injector's plan seed so one seed pins the whole stack.
pub fn chaos_stack(
    inner: ObjectStoreRef,
    injector: Arc<FaultInjector>,
    policy: RetryPolicy,
    clock: ClockRef,
) -> ObjectStoreRef {
    let seed = injector.seed();
    let sites = (FaultSite::StoragePut, FaultSite::StorageGet);
    let chaotic = Arc::new(ChaosObjectStore::new(inner, injector, clock.clone(), sites));
    RetryingObjectStore::shared(chaotic, policy, clock, seed)
}

/// The exchange spill stack: same layering as [`chaos_stack`], but faults
/// fire at the `exchange_put`/`exchange_get` sites and the retry jitter
/// stream is offset so it does not replay the scan stack's schedule.
pub fn exchange_stack(
    inner: ObjectStoreRef,
    injector: Arc<FaultInjector>,
    policy: RetryPolicy,
    clock: ClockRef,
) -> ObjectStoreRef {
    let seed = injector.seed().wrapping_add(0x5348_5546); // "SHUF"
    let sites = (FaultSite::ExchangePut, FaultSite::ExchangeGet);
    let chaotic = Arc::new(ChaosObjectStore::new(inner, injector, clock.clone(), sites));
    RetryingObjectStore::shared(chaotic, policy, clock, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object_store::InMemoryObjectStore;
    use pixels_chaos::{FaultPlan, SiteSpec};
    use pixels_obs::{Clock, SimClock};

    fn store_with(plan: FaultPlan) -> (ObjectStoreRef, Arc<FaultInjector>, Arc<SimClock>) {
        let inner = InMemoryObjectStore::shared();
        inner.put("x", Bytes::from(vec![7u8; 1000])).unwrap();
        let injector = Arc::new(FaultInjector::new(&plan));
        let clock = SimClock::shared();
        let stacked = chaos_stack(
            inner,
            injector.clone(),
            RetryPolicy::object_store(),
            clock.clone(),
        );
        (stacked, injector, clock)
    }

    #[test]
    fn retries_mask_transient_get_errors_and_bill_once() {
        // Fail roughly half of all GETs; the retry budget (4) makes
        // eventual success overwhelmingly likely at this rate.
        let (store, injector, _clock) = store_with(FaultPlan::get_errors(11, 0.5));
        for _ in 0..50 {
            assert_eq!(store.get_range("x", 0, 100).unwrap().len(), 100);
        }
        let m = store.metrics();
        assert!(injector.injected_total() > 0, "plan injected nothing");
        assert!(m.gets_failed > 0);
        assert!(m.retries > 0);
        // Billing: bytes_read counts only the successful attempts — one
        // per logical read, no matter how many retries it took.
        assert_eq!(m.bytes_read, 50 * 100);
        assert_eq!(m.get_requests, 50);
    }

    #[test]
    fn injected_delays_advance_the_clock_not_the_bill() {
        let plan =
            FaultPlan::none(3).with(FaultSite::StorageGet, SiteSpec::delays(1.0, 5_000, 5_000));
        let (store, _injector, clock) = store_with(plan);
        assert_eq!(store.get_range("x", 0, 10).unwrap().len(), 10);
        assert!(clock.now_micros() >= 5_000, "delay was not served");
        let m = store.metrics();
        assert_eq!(m.bytes_read, 10);
        assert_eq!(m.gets_failed, 0);
        assert_eq!(m.retries, 0);
    }

    #[test]
    fn missing_objects_fail_fast_without_retries() {
        let (store, _injector, clock) = store_with(FaultPlan::none(0));
        assert!(matches!(store.get("nope"), Err(Error::NotFound(_))));
        let m = store.metrics();
        assert_eq!(m.retries, 0, "NotFound must not consume retry budget");
        assert_eq!(clock.now_micros(), 0);
    }

    #[test]
    fn hard_outage_exhausts_budget_and_fails() {
        let (store, _injector, _clock) = store_with(FaultPlan::get_errors(1, 1.0));
        let err = store.get_range("x", 0, 10).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        let m = store.metrics();
        // 1 initial + 4 retries, all failed; nothing billed.
        assert_eq!(m.gets_failed, 5);
        assert_eq!(m.retries, 4);
        assert_eq!(m.bytes_read, 0);
        assert_eq!(m.get_requests, 0);
    }

    #[test]
    fn same_seed_same_fault_sequence_through_the_stack() {
        let run = || {
            let (store, injector, _clock) = store_with(FaultPlan::get_errors(77, 0.3));
            let mut oks = Vec::new();
            for i in 0..40 {
                oks.push(store.get_range("x", i, 10).is_ok());
            }
            (oks, injector.snapshot())
        };
        let (a_oks, a_snap) = run();
        let (b_oks, b_snap) = run();
        assert_eq!(a_oks, b_oks);
        assert_eq!(a_snap, b_snap);
    }
}
