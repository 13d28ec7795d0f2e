//! The runtime half of the fault model: instrumented layers ask the
//! injector whether each operation proceeds, fails, or stalls.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use pixels_obs::MetricsRegistry;

use crate::plan::{FaultPlan, FaultSite, Inject, SiteSpec};
use crate::rng::ChaosRng;

/// Per-site decision state: its own derived RNG stream plus counters.
struct SiteState {
    spec: SiteSpec,
    rng: Mutex<ChaosRng>,
    /// Seed of the site's per-request streams ([`FaultInjector::decide_request`]).
    request_seed: u64,
    decisions: AtomicU64,
    injected: AtomicU64,
}

/// Point-in-time view of what the injector has done so far.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InjectorSnapshot {
    /// `(site name, decisions asked, faults injected)` per configured site.
    pub sites: Vec<(&'static str, u64, u64)>,
}

impl InjectorSnapshot {
    pub fn injected_total(&self) -> u64 {
        self.sites.iter().map(|(_, _, n)| n).sum()
    }
}

/// Deterministic fault injector built from a [`FaultPlan`].
///
/// Each configured site draws from an independent RNG stream derived from
/// `(plan.seed, site.name())`, so the n-th decision at a site is a pure
/// function of the plan — thread interleaving *across* sites cannot change
/// any site's fault sequence. Sites absent from the plan always answer
/// [`Inject::None`] without touching any generator.
///
/// Object-store requests, which threads issue concurrently (a scan's
/// prefetch I/O threads, an exchange's parallel writers), do not draw from
/// the sequence: [`decide_request`](Self::decide_request) derives each
/// verdict from the request itself, so which request fails does not depend
/// on thread timing either *within* a site. The CF sites keep the sequence:
/// they are decided once per fleet launch, on the thread that launches it.
pub struct FaultInjector {
    seed: u64,
    sites: BTreeMap<FaultSite, SiteState>,
}

impl FaultInjector {
    pub fn new(plan: &FaultPlan) -> FaultInjector {
        let sites = plan
            .sites
            .iter()
            .map(|(&site, &spec)| {
                (
                    site,
                    SiteState {
                        spec,
                        rng: Mutex::new(ChaosRng::derive(plan.seed, site.name())),
                        request_seed: ChaosRng::derive(plan.seed, site.name()).next_u64(),
                        decisions: AtomicU64::new(0),
                        injected: AtomicU64::new(0),
                    },
                )
            })
            .collect();
        FaultInjector {
            seed: plan.seed,
            sites,
        }
    }

    /// An injector that never injects — the hot-path no-op for production
    /// wiring that wants the instrumentation compiled in but inert.
    pub fn disabled() -> FaultInjector {
        FaultInjector::new(&FaultPlan::none(0))
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether any site can inject faults.
    pub fn is_active(&self) -> bool {
        !self.sites.is_empty()
    }

    /// Ask the plan what happens to the next operation at `site`.
    pub fn decide(&self, site: FaultSite) -> Inject {
        let Some(state) = self.sites.get(&site) else {
            return Inject::None;
        };
        state.decisions.fetch_add(1, Ordering::Relaxed);
        let spec = state.spec;
        // Draw under the lock so concurrent callers serialize into one
        // well-defined per-site sequence.
        let mut rng = state.rng.lock().unwrap();
        if state.injected.load(Ordering::Relaxed) >= spec.max_faults {
            // Keep consuming the stream so the cap changes *outcomes*, not
            // the positions of later draws — plans stay comparable when only
            // `max_faults` differs.
            let _ = rng.next_u64();
            return Inject::None;
        }
        let verdict = draw(&spec, &mut rng);
        if verdict.is_fault() {
            state.injected.fetch_add(1, Ordering::Relaxed);
        }
        verdict
    }

    /// Ask the plan what happens to one object-store request at `site`:
    /// `attempt` (0 for the first try) of the request for `range` of `path`.
    /// The verdict is drawn from a stream seeded by `(plan seed, site, path,
    /// range, attempt)` alone, so a request meets the same verdict whichever
    /// thread issues it and whatever ran before it — a prefetched GET and a
    /// synchronous one, or two parallel spill writers, cannot trade faults.
    /// Only the `max_faults` cap, a count across the site, still depends on
    /// order, and only once it is reached.
    pub fn decide_request(
        &self,
        site: FaultSite,
        path: &str,
        range: (u64, u64),
        attempt: u32,
    ) -> Inject {
        let Some(state) = self.sites.get(&site) else {
            return Inject::None;
        };
        state.decisions.fetch_add(1, Ordering::Relaxed);
        let mut rng = ChaosRng::keyed(
            state.request_seed,
            &[
                path.as_bytes(),
                &range.0.to_le_bytes(),
                &range.1.to_le_bytes(),
                &(attempt as u64).to_le_bytes(),
            ],
        );
        let verdict = draw(&state.spec, &mut rng);
        let max = state.spec.max_faults;
        let counted = !verdict.is_fault()
            || (state.injected)
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                    (n < max).then_some(n + 1)
                })
                .is_ok();
        if counted {
            verdict
        } else {
            Inject::None
        }
    }

    /// Faults injected so far at one site.
    pub fn injected_at(&self, site: FaultSite) -> u64 {
        self.sites
            .get(&site)
            .map(|s| s.injected.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Total faults injected across all sites.
    pub fn injected_total(&self) -> u64 {
        self.sites
            .values()
            .map(|s| s.injected.load(Ordering::Relaxed))
            .sum()
    }

    pub fn snapshot(&self) -> InjectorSnapshot {
        InjectorSnapshot {
            sites: self
                .sites
                .iter()
                .map(|(site, s)| {
                    (
                        site.name(),
                        s.decisions.load(Ordering::Relaxed),
                        s.injected.load(Ordering::Relaxed),
                    )
                })
                .collect(),
        }
    }

    /// Set `pixels_faults_injected_total{site=...}` to each configured
    /// site's injected count; a disabled injector has no site and no series.
    pub fn export_metrics(&self, registry: &MetricsRegistry) {
        for (site, state) in &self.sites {
            registry
                .counter_with(
                    "pixels_faults_injected_total",
                    "Faults injected by the chaos fault plan, by site",
                    &[("site", site.name())],
                )
                .advance_to(state.injected.load(Ordering::Relaxed));
        }
    }
}

/// One verdict under `spec`, drawn from `rng`.
fn draw(spec: &SiteSpec, rng: &mut ChaosRng) -> Inject {
    if rng.bernoulli(spec.error_rate) {
        Inject::Error
    } else if spec.delay_rate > 0.0 && rng.bernoulli(spec.delay_rate) {
        Inject::Delay {
            micros: rng.uniform_u64(spec.delay_micros.0, spec.delay_micros.1),
        }
    } else {
        Inject::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SiteSpec;

    fn plan() -> FaultPlan {
        FaultPlan::none(1234)
            .with(FaultSite::StorageGet, SiteSpec::errors(0.5))
            .with(FaultSite::CfStraggler, SiteSpec::delays(0.5, 1_000, 2_000))
    }

    #[test]
    fn same_plan_same_decisions() {
        let a = FaultInjector::new(&plan());
        let b = FaultInjector::new(&plan());
        for _ in 0..200 {
            assert_eq!(
                a.decide(FaultSite::StorageGet),
                b.decide(FaultSite::StorageGet)
            );
            assert_eq!(
                a.decide(FaultSite::CfStraggler),
                b.decide(FaultSite::CfStraggler)
            );
        }
        assert_eq!(a.snapshot(), b.snapshot());
        assert!(a.injected_total() > 0);
    }

    #[test]
    fn cross_site_order_does_not_perturb_streams() {
        // Interleave the two sites differently; each site's own sequence
        // must be identical.
        let a = FaultInjector::new(&plan());
        let b = FaultInjector::new(&plan());
        let mut a_gets = Vec::new();
        let mut b_gets = Vec::new();
        for i in 0..100 {
            a_gets.push(a.decide(FaultSite::StorageGet));
            if i % 3 == 0 {
                let _ = a.decide(FaultSite::CfStraggler);
            }
        }
        for _ in 0..40 {
            let _ = b.decide(FaultSite::CfStraggler);
        }
        for _ in 0..100 {
            b_gets.push(b.decide(FaultSite::StorageGet));
        }
        assert_eq!(a_gets, b_gets);
    }

    #[test]
    fn request_verdicts_do_not_depend_on_order_or_thread() {
        let requests: Vec<(String, (u64, u64), u32)> = (0..200)
            .map(|i| {
                (
                    format!("t/part-{}.pxl", i % 7),
                    (i * 4096, 4096),
                    (i % 5) as u32,
                )
            })
            .collect();
        let ask = |inj: &FaultInjector, (path, range, attempt): &(String, (u64, u64), u32)| {
            inj.decide_request(FaultSite::StorageGet, path, *range, *attempt)
        };
        let forward = FaultInjector::new(&plan());
        let want: Vec<Inject> = requests.iter().map(|r| ask(&forward, r)).collect();
        assert!(want.iter().any(|v| v.is_fault()) && want.iter().any(|v| !v.is_fault()));

        // Backwards, and from four threads at once: the same verdict per
        // request, and the same count.
        let backward = FaultInjector::new(&plan());
        let mut got: Vec<Inject> = requests.iter().rev().map(|r| ask(&backward, r)).collect();
        got.reverse();
        assert_eq!(got, want);
        let threaded = FaultInjector::new(&plan());
        let got: Vec<Inject> = std::thread::scope(|s| {
            let handles: Vec<_> = (requests.chunks(50))
                .map(|chunk| {
                    s.spawn(|| chunk.iter().map(|r| ask(&threaded, r)).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(got, want);
        assert_eq!(threaded.injected_total(), forward.injected_total());

        // Another attempt at the same request is a fresh draw.
        let flips = (0..64)
            .filter(|&a| {
                let v = forward.decide_request(FaultSite::StorageGet, "x", (0, 10), a);
                v.is_fault()
            })
            .count();
        assert!((10..54).contains(&flips), "{flips} of 64 attempts failed");
    }

    #[test]
    fn request_draws_respect_the_cap() {
        let p = FaultPlan::none(9).with(FaultSite::StorageGet, SiteSpec::errors(1.0).capped(3));
        let inj = FaultInjector::new(&p);
        let faults = (0..20)
            .filter(|&i| {
                inj.decide_request(FaultSite::StorageGet, "x", (i, 1), 0)
                    .is_fault()
            })
            .count();
        assert_eq!(faults, 3);
        assert_eq!(inj.injected_at(FaultSite::StorageGet), 3);
    }

    #[test]
    fn unconfigured_sites_never_inject() {
        let inj = FaultInjector::new(&plan());
        for _ in 0..50 {
            assert_eq!(inj.decide(FaultSite::VmPreempt), Inject::None);
        }
        assert_eq!(inj.injected_at(FaultSite::VmPreempt), 0);
        let off = FaultInjector::disabled();
        assert!(!off.is_active());
        assert_eq!(off.decide(FaultSite::StorageGet), Inject::None);
    }

    #[test]
    fn max_faults_caps_injection() {
        let p = FaultPlan::none(9).with(FaultSite::StorageGet, SiteSpec::errors(1.0).capped(3));
        let inj = FaultInjector::new(&p);
        let faults = (0..20)
            .filter(|_| inj.decide(FaultSite::StorageGet).is_fault())
            .count();
        assert_eq!(faults, 3);
        assert_eq!(inj.injected_at(FaultSite::StorageGet), 3);
    }

    #[test]
    fn delay_verdicts_respect_bounds() {
        let p = FaultPlan::none(2).with(FaultSite::StorageGet, SiteSpec::delays(1.0, 500, 900));
        let inj = FaultInjector::new(&p);
        for _ in 0..100 {
            match inj.decide(FaultSite::StorageGet) {
                Inject::Delay { micros } => assert!((500..=900).contains(&micros)),
                other => panic!("expected delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn export_emits_monotone_deltas() {
        let registry = MetricsRegistry::new();
        let inj = FaultInjector::new(&FaultPlan::get_errors(7, 1.0));
        for _ in 0..5 {
            let _ = inj.decide(FaultSite::StorageGet);
        }
        inj.export_metrics(&registry);
        inj.export_metrics(&registry); // second export must not double-count
        let c = registry.counter_with(
            "pixels_faults_injected_total",
            "Faults injected by the chaos fault plan, by site",
            &[("site", "storage_get")],
        );
        assert_eq!(c.get(), 5);
        for _ in 0..3 {
            let _ = inj.decide(FaultSite::StorageGet);
        }
        inj.export_metrics(&registry);
        assert_eq!(c.get(), 8);
    }
}
