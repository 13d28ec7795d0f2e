//! Fault plans: the deterministic description of *what* fails *where*.

use std::collections::BTreeMap;
use std::fmt;

/// A named instrumentation point where faults can be injected. Every layer
/// of the stack that participates in the fault model owns one or more sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultSite {
    /// Object-store GET / ranged GET (errors model S3 5xx and `SlowDown`
    /// rate-limit rejections; delays model tail-latency spikes).
    StorageGet,
    /// Object-store PUT (intermediate-result materialization).
    StoragePut,
    /// A CF fleet crashes mid-run (worker killed, OOM, runtime reclaim).
    CfCrash,
    /// A CF fleet straggles: it still finishes, but far slower than the
    /// latency estimate (Starling's duplicate-task trigger).
    CfStraggler,
    /// A cold-start storm: fleet startup takes much longer than the ~1 s
    /// elasticity claim while the provider scrambles capacity.
    CfColdStartStorm,
    /// A VM cluster node is preempted (spot reclaim).
    VmPreempt,
    /// Exchange spill PUT (a stage-N worker writing a hash partition to the
    /// object store). Appended after the original sites so existing seeded
    /// fault sequences are unperturbed.
    ExchangePut,
    /// Exchange spill GET (a stage-N+1 worker reading its partition set).
    ExchangeGet,
}

impl FaultSite {
    pub const ALL: [FaultSite; 8] = [
        FaultSite::StorageGet,
        FaultSite::StoragePut,
        FaultSite::CfCrash,
        FaultSite::CfStraggler,
        FaultSite::CfColdStartStorm,
        FaultSite::VmPreempt,
        FaultSite::ExchangePut,
        FaultSite::ExchangeGet,
    ];

    /// Stable label used for RNG-stream derivation and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::StorageGet => "storage_get",
            FaultSite::StoragePut => "storage_put",
            FaultSite::CfCrash => "cf_crash",
            FaultSite::CfStraggler => "cf_straggler",
            FaultSite::CfColdStartStorm => "cf_cold_start_storm",
            FaultSite::VmPreempt => "vm_preempt",
            FaultSite::ExchangePut => "exchange_put",
            FaultSite::ExchangeGet => "exchange_get",
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The injector's verdict for one decision point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Proceed normally.
    None,
    /// Fail the operation (the caller maps this to its own error type).
    Error,
    /// Delay the operation by this many microseconds, then proceed.
    Delay { micros: u64 },
}

impl Inject {
    pub fn is_fault(self) -> bool {
        !matches!(self, Inject::None)
    }
}

/// Per-site fault behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteSpec {
    /// Probability a decision at this site fails outright.
    pub error_rate: f64,
    /// Probability (evaluated only when no error fired) of a latency spike.
    pub delay_rate: f64,
    /// Injected delay bounds in microseconds, inclusive.
    pub delay_micros: (u64, u64),
    /// Stop injecting after this many faults at the site (`u64::MAX` =
    /// unbounded). A finite cap guarantees plans cannot starve retry loops
    /// forever, which keeps the differential soak terminating.
    pub max_faults: u64,
}

impl SiteSpec {
    /// Errors at `rate`, no delays, unbounded.
    pub fn errors(rate: f64) -> SiteSpec {
        SiteSpec {
            error_rate: rate,
            delay_rate: 0.0,
            delay_micros: (0, 0),
            max_faults: u64::MAX,
        }
    }

    /// Latency spikes at `rate` uniformly in `[lo_us, hi_us]`.
    pub fn delays(rate: f64, lo_us: u64, hi_us: u64) -> SiteSpec {
        SiteSpec {
            error_rate: 0.0,
            delay_rate: rate,
            delay_micros: (lo_us, hi_us.max(lo_us)),
            max_faults: u64::MAX,
        }
    }

    /// Same spec, but stop after `n` injected faults.
    pub fn capped(mut self, n: u64) -> SiteSpec {
        self.max_faults = n;
        self
    }
}

/// A deterministic, seed-driven fault plan: seed + per-site specs.
///
/// Two injectors built from equal plans produce identical fault sequences at
/// every site regardless of how threads interleave *across* sites, because
/// each site draws from its own derived RNG stream. Within a site, the n-th
/// decision is always the same for a given seed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    pub seed: u64,
    pub sites: BTreeMap<FaultSite, SiteSpec>,
}

impl FaultPlan {
    /// The empty plan: injects nothing anywhere.
    pub fn none(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            sites: BTreeMap::new(),
        }
    }

    /// Builder: set the spec for one site.
    pub fn with(mut self, site: FaultSite, spec: SiteSpec) -> FaultPlan {
        self.sites.insert(site, spec);
        self
    }

    pub fn spec(&self, site: FaultSite) -> Option<&SiteSpec> {
        self.sites.get(&site)
    }

    /// Whether the plan can inject anything at all.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    // Preset plans used by the chaos matrix (tests, CI soak, experiments).

    /// Flaky object store: GET errors at `rate`.
    pub fn get_errors(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan::none(seed).with(FaultSite::StorageGet, SiteSpec::errors(rate))
    }

    /// Rate-limited object store: GET latency spikes at `rate` in
    /// `[lo_ms, hi_ms]`.
    pub fn get_latency_spikes(seed: u64, rate: f64, lo_ms: u64, hi_ms: u64) -> FaultPlan {
        FaultPlan::none(seed).with(
            FaultSite::StorageGet,
            SiteSpec::delays(rate, lo_ms * 1_000, hi_ms * 1_000),
        )
    }

    /// Crashing CF fleets at `rate`.
    pub fn cf_crashes(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan::none(seed).with(FaultSite::CfCrash, SiteSpec::errors(rate))
    }

    /// Flaky exchange spill writes: PUT errors at `rate`.
    pub fn exchange_put_errors(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan::none(seed).with(FaultSite::ExchangePut, SiteSpec::errors(rate))
    }

    /// Flaky exchange spill reads: GET errors at `rate`.
    pub fn exchange_get_errors(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan::none(seed).with(FaultSite::ExchangeGet, SiteSpec::errors(rate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_names_are_stable() {
        // Metric labels and RNG streams key off these strings — renaming one
        // silently re-seeds every plan, so pin them.
        let names: Vec<&str> = FaultSite::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "storage_get",
                "storage_put",
                "cf_crash",
                "cf_straggler",
                "cf_cold_start_storm",
                "vm_preempt",
                "exchange_put",
                "exchange_get"
            ]
        );
    }

    #[test]
    fn builder_composes() {
        let plan = FaultPlan::none(7)
            .with(FaultSite::StorageGet, SiteSpec::errors(0.1))
            .with(FaultSite::CfCrash, SiteSpec::errors(1.0).capped(2));
        assert_eq!(plan.spec(FaultSite::StorageGet).unwrap().error_rate, 0.1);
        assert_eq!(plan.spec(FaultSite::CfCrash).unwrap().max_faults, 2);
        assert!(plan.spec(FaultSite::VmPreempt).is_none());
        assert!(!plan.is_empty());
        assert!(FaultPlan::none(0).is_empty());
    }

    #[test]
    fn delay_bounds_are_ordered() {
        let s = SiteSpec::delays(0.5, 100, 50);
        assert!(s.delay_micros.0 <= s.delay_micros.1);
    }
}
