//! Long-horizon admission soak: millions of simulated users driven through
//! the tenant-aware admission core.
//!
//! The soak is a configuration of the one simulated server,
//! [`crate::sim::ServerSim`], over the one capacity model,
//! [`pixels_turbo::Coordinator`], not a second driver: admission verdicts,
//! the deficit-weighted fair queue, EDF deadline ordering, feasibility
//! rejection, best-of-effort shared-scan batching, record pricing, the event
//! clock, placement, processor sharing and CF pricing are theirs. The fleet
//! is fixed (`min_workers = max_workers`): a soak measures admission under a
//! known capacity, not the autoscaler. What this module adds is the traffic
//! ([`plan_submissions`]) and a record sink that folds each outcome into
//! running totals and into a [`Ledger`] of running sums, so a 1M-user soak
//! finishes in seconds of wall time and holds no per-query record.
//!
//! Billing follows the live server's rule: every completed query appends
//! exactly the dollars its record carries (in completion order), rejected
//! queries never bill, and a batch member is billed the bytes its own plan
//! reads, while only the execution's carrier carries provider cost — so the
//! report's per-tenant and per-mode revenue reconciles exactly against its
//! ledger ([`SoakReport::reconciles`]), at every scale, and no bill depends
//! on who shared a scan with whom.

use crate::scheduler::{AdmissionMode, SchedulerPolicy, DEADLINE_LEVEL};
use crate::service_level::ServiceLevel;
use crate::sim::{Arrival, DriveStats, Outcome, QueryRecord, ServerConfig, ServerSim};
use pixels_common::{Json, QueryId};
use pixels_obs::{Ledger, LedgerSummary, MetricsRegistry};
use pixels_sim::{SimDuration, SimTime};
use pixels_turbo::{CfConfig, Placement, ResourcePricing, VmConfig};
use pixels_workload::{arrivals, WorkloadTrace};

/// Configuration of one soak run. All times are virtual.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Target number of simulated users (one query each). The arrival
    /// generators are seeded with ~5% margin above this, so the realized
    /// count is deterministic and at least `users` for any practical size.
    pub users: usize,
    /// Tenant pool size; tenant 0 is the adversary.
    pub tenants: usize,
    /// VM fleet size in cores, as whole workers of
    /// [`VmConfig::cores_per_worker`] (rounded up); fixed for the run. A
    /// deadline is feasible iff its work finishes in time on these cores.
    pub vm_cores: u64,
    /// Arrival window (diurnal period is 24 h of virtual time).
    pub duration: SimDuration,
    pub seed: u64,
    /// Fraction of arrivals issued by the adversary tenant, which floods
    /// best-of-effort work to try to starve everyone else.
    pub adversary_share: f64,
    /// Fraction of non-adversary arrivals submitted in deadline mode.
    pub deadline_share: f64,
    /// Deadline targets drawn (uniformly by hash) for deadline queries.
    pub deadline_targets_us: Vec<u64>,
    /// Counterfactual: map each deadline to the nearest fixed tier at
    /// submission (violations still counted against the original target).
    pub map_deadlines_to_tiers: bool,
    /// The admission policy: every mode's pending bound.
    pub policy: SchedulerPolicy,
    /// Merge same-class best-of-effort queue entries into shared scans, at
    /// most [`crate::sim::MAX_BATCH`] to one.
    pub batch_besteffort: bool,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            users: 50_000,
            tenants: 16,
            vm_cores: 32,
            duration: SimDuration::from_secs(24 * 3600),
            seed: 7,
            adversary_share: 0.2,
            deadline_share: 0.25,
            deadline_targets_us: vec![
                3_000_000,     // 3 s: heavy needs 6.875 s on 32 cores → rejected
                30_000_000,    // 30 s
                120_000_000,   // 2 min
                600_000_000,   // 10 min
                1_800_000_000, // 30 min
            ],
            map_deadlines_to_tiers: false,
            policy: SchedulerPolicy::default(),
            batch_besteffort: true,
        }
    }
}

impl SoakConfig {
    /// CI-scale variant: small enough for a debug-mode test run.
    pub fn ci_scale(users: usize) -> SoakConfig {
        SoakConfig {
            users,
            // Keep the mean arrival rate of the default config so queueing
            // behavior is comparable at any scale.
            duration: SimDuration::from_secs_f64(24.0 * 3600.0 * users as f64 / 50_000.0),
            ..SoakConfig::default()
        }
    }
}

/// Per-admission-mode outcome summary.
#[derive(Debug, Clone, Default)]
pub struct ModeStats {
    pub name: String,
    pub completed: u64,
    pub rejected: u64,
    pub sla_violations: u64,
    pub p50_latency_us: u64,
    pub p95_latency_us: u64,
    pub p99_latency_us: u64,
    pub revenue_dollars: f64,
}

/// Per-tenant outcome summary (the fairness evidence).
#[derive(Debug, Clone, Default)]
pub struct TenantStats {
    pub name: String,
    pub completed: u64,
    pub rejected: u64,
    pub mean_wait_us: u64,
    pub max_wait_us: u64,
    pub revenue_dollars: f64,
}

/// Result of one soak run.
#[derive(Debug, Default)]
pub struct SoakReport {
    pub submitted: u64,
    pub completed: u64,
    pub rejected: u64,
    /// Virtual time from first arrival to last completion.
    pub sim_duration: SimDuration,
    pub throughput_qps: f64,
    pub revenue_dollars: f64,
    pub provider_dollars: f64,
    pub forced_starts: u64,
    pub batches: u64,
    pub batched_members: u64,
    /// Completions placed on the CF tier (overload absorption).
    pub cf_placements: u64,
    /// Violations of *original* deadline targets across the
    /// deadline-assigned population — comparable between a deadline-mode
    /// run and a `map_deadlines_to_tiers` counterfactual. Rejections count
    /// as violations (the user did not get their answer in time).
    pub deadline_target_violations: u64,
    pub deadline_population: u64,
    pub modes: Vec<ModeStats>,
    pub tenants: Vec<TenantStats>,
    /// Every completion's ledger entry, appended in completion order: sums
    /// per level and per tenant, so its memory does not grow with the run.
    pub ledger: Ledger,
}

/// Report groups: the name in the report, and one mode of the group.
const MODE_GROUPS: [(&str, AdmissionMode); 4] = [
    ("immediate", AdmissionMode::Level(ServiceLevel::Immediate)),
    ("relaxed", AdmissionMode::Level(ServiceLevel::Relaxed)),
    (
        "best_effort",
        AdmissionMode::Level(ServiceLevel::BestEffort),
    ),
    (DEADLINE_LEVEL, AdmissionMode::Deadline { target_us: 0 }),
];

/// The SLO threshold of each [`MODE_GROUPS`] entry under `policy`.
fn slo_bounds_us(policy: &SchedulerPolicy) -> [u64; 4] {
    let objectives = policy.slo_objectives();
    MODE_GROUPS.map(|(_, mode)| {
        let objective = objectives.iter().find(|o| o.level == mode.name());
        objective.expect("an objective per mode").threshold_us
    })
}

fn mode_group(mode: AdmissionMode) -> usize {
    match mode {
        AdmissionMode::Level(ServiceLevel::Immediate) => 0,
        AdmissionMode::Level(ServiceLevel::Relaxed) => 1,
        AdmissionMode::Level(ServiceLevel::BestEffort) => 2,
        AdmissionMode::Deadline { .. } => 3,
    }
}

/// Deterministic splitmix64 — per-query randomness without a stateful RNG,
/// so mode/tenant assignment is independent of evaluation order.
fn splitmix(seed: u64, idx: u64) -> u64 {
    let mut z = seed ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Map a deadline target to the nearest fixed tier of `policy` in log
/// space: the boundaries are the geometric means of adjacent tiers' SLO
/// thresholds ([`SchedulerPolicy::slo_objectives`]: by default the 1 s
/// immediate SLO, the 300 s relaxed grace and the 3600 s starvation bound).
pub fn nearest_tier(policy: &SchedulerPolicy, target_us: u64) -> ServiceLevel {
    let [immediate, relaxed, best_effort, _] = slo_bounds_us(policy).map(|us| us as f64 / 1e6);
    let t = target_us as f64 / 1e6;
    if t <= (immediate * relaxed).sqrt() {
        ServiceLevel::Immediate
    } else if t <= (relaxed * best_effort).sqrt() {
        ServiceLevel::Relaxed
    } else {
        ServiceLevel::BestEffort
    }
}

/// One pre-generated submission.
struct Planned {
    arrival: Arrival,
    /// Original deadline target, kept even when the mode was mapped to a
    /// fixed tier — the yardstick for `deadline_target_violations`.
    orig_target_us: Option<u64>,
}

/// The soak's record sink: each outcome is folded into the report the moment
/// the driver emits it.
struct Tally<'a> {
    report: SoakReport,
    plan: &'a [Planned],
    /// SLO bound per [`MODE_GROUPS`] entry, from the run's own policy.
    slo_bound_us: [u64; 4],
    /// Completion latencies per mode group, for the percentiles.
    latency_us: [Vec<u64>; 4],
    /// Summed wait per tenant, for the means.
    wait_sum_us: Vec<u128>,
    last_finish: SimTime,
}

impl Tally<'_> {
    fn fold(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Rejected(r) => {
                self.report.tenants[r.tenant as usize].rejected += 1;
                self.report.modes[mode_group(r.mode)].rejected += 1;
                // The user never got an answer: missed, whatever the target.
                self.against_target(r.id, u64::MAX);
            }
            Outcome::Completed(r) => self.completed(r),
        }
    }

    /// Score a deadline-assigned query against its *original* target.
    fn against_target(&mut self, id: QueryId, latency_us: u64) {
        if let Some(target_us) = self.plan[id.0 as usize].orig_target_us {
            self.report.deadline_population += 1;
            self.report.deadline_target_violations += (latency_us > target_us) as u64;
        }
    }

    fn completed(&mut self, r: QueryRecord) {
        let g = mode_group(r.mode);
        let total = r.total_latency().as_micros();
        let mode = &mut self.report.modes[g];
        mode.completed += 1;
        mode.revenue_dollars += r.price;
        mode.sla_violations += (r.slo_latency_us() > self.slo_bound_us[g]) as u64;
        self.latency_us[g].push(total);
        self.against_target(r.id, total);
        let wait = r.pending().as_micros();
        let tenant = &mut self.report.tenants[r.tenant as usize];
        tenant.completed += 1;
        tenant.max_wait_us = tenant.max_wait_us.max(wait);
        tenant.revenue_dollars += r.price;
        self.wait_sum_us[r.tenant as usize] += wait as u128;
        self.report.revenue_dollars += r.price;
        self.report.provider_dollars += r.resource_cost.vm_dollars + r.resource_cost.cf_dollars;
        self.report.cf_placements += matches!(r.placement, Placement::Cf { .. }) as u64;
        self.last_finish = self.last_finish.max(r.finished_at);
        self.report.ledger.append(r.ledger_entry(&tenant.name));
    }

    fn finish(mut self, stats: DriveStats) -> SoakReport {
        let mut report = self.report;
        for (mode, latency_us) in report.modes.iter_mut().zip(&mut self.latency_us) {
            latency_us.sort_unstable();
            mode.p50_latency_us = percentile(latency_us, 0.50);
            mode.p95_latency_us = percentile(latency_us, 0.95);
            mode.p99_latency_us = percentile(latency_us, 0.99);
        }
        for (tenant, wait_sum_us) in report.tenants.iter_mut().zip(&self.wait_sum_us) {
            tenant.mean_wait_us = (wait_sum_us / tenant.completed.max(1) as u128) as u64;
        }
        report.completed = report.modes.iter().map(|m| m.completed).sum();
        report.rejected = report.modes.iter().map(|m| m.rejected).sum();
        let first = self.plan.first().map_or(SimTime::ZERO, |p| p.arrival.at);
        let span_us = self
            .last_finish
            .as_micros()
            .saturating_sub(first.as_micros());
        report.sim_duration = SimDuration::from_micros(span_us.max(1));
        report.throughput_qps = report.completed as f64 / report.sim_duration.as_secs_f64();
        report.forced_starts = stats.forced_starts;
        report.batches = stats.batches;
        report.batched_members = stats.batched_members;
        report
    }
}

/// Run one soak. Deterministic for a given config.
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    assert!(
        cfg.tenants >= 2,
        "need an adversary and at least one victim"
    );
    let plan = plan_submissions(cfg);
    let trace: Vec<Arrival> = plan.iter().map(|p| p.arrival).collect();
    let vm = VmConfig::default();
    let workers = (cfg.vm_cores as u32).div_ceil(vm.cores_per_worker);
    let fleet = VmConfig {
        min_workers: workers,
        max_workers: workers,
        ..vm
    };
    let mut sim = ServerSim::new(
        fleet,
        CfConfig::default(),
        ResourcePricing::default(),
        ServerConfig {
            policy: cfg.policy,
            batch_besteffort: cfg.batch_besteffort,
            ..ServerConfig::default()
        },
    );
    // Interned in plan order, so a record's tenant index is the plan's.
    let tenants: Vec<TenantStats> = (0..cfg.tenants)
        .map(|i| {
            let name = match i {
                0 => "adversary".to_string(),
                _ => format!("t-{i:03}"),
            };
            sim.intern(&name);
            TenantStats {
                name,
                ..TenantStats::default()
            }
        })
        .collect();
    let mut tally = Tally {
        plan: &plan,
        slo_bound_us: slo_bounds_us(&cfg.policy),
        latency_us: Default::default(),
        wait_sum_us: vec![0; cfg.tenants],
        last_finish: SimTime::ZERO,
        report: SoakReport {
            submitted: plan.len() as u64,
            modes: MODE_GROUPS
                .iter()
                .map(|(name, _)| ModeStats {
                    name: name.to_string(),
                    ..ModeStats::default()
                })
                .collect(),
            tenants,
            ..SoakReport::default()
        },
    };
    // No drain budget: every queued query force-starts at its bound and the
    // fleet finishes whatever it starts.
    let unbounded = SimDuration::from_secs(u32::MAX as u64);
    sim.drive(trace, unbounded, &mut |outcome| tally.fold(outcome));
    tally.finish(sim.stats)
}

/// Generate the deterministic submission plan: diurnal base load plus a
/// rectangular spike, classes from the canonical mix, tenants and modes by
/// per-index hash.
fn plan_submissions(cfg: &SoakConfig) -> Vec<Planned> {
    let secs = cfg.duration.as_secs_f64().max(1.0);
    let mean_rate = cfg.users as f64 / secs;
    // 92% of traffic on the diurnal curve, ~13% more in a burst one third
    // of the way in — 5% margin over `users` so the realized count meets
    // the target deterministically.
    let base = arrivals::diurnal(
        mean_rate * 0.92,
        0.6,
        SimDuration::from_secs(24 * 3600),
        cfg.duration,
        cfg.seed,
    );
    let spike_start = SimDuration::from_secs_f64(secs / 3.0);
    let spike_end = SimDuration::from_secs_f64(secs / 3.0 + (secs / 50.0).max(60.0));
    let spike_span = (spike_end.as_secs_f64() - spike_start.as_secs_f64()).max(1.0);
    let burst = arrivals::spike(
        1e-9,
        cfg.users as f64 * 0.13 / spike_span,
        spike_start,
        spike_end,
        cfg.duration,
        cfg.seed ^ 0xBEE5,
    );
    let mut all: Vec<SimTime> = base;
    all.extend(burst);
    all.sort();
    let trace = WorkloadTrace::from_arrivals(all, [0.80, 0.17, 0.03], cfg.seed ^ 0xC1A5);

    trace
        .entries
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let h = splitmix(cfg.seed, i as u64);
            let adversary = unit(h) < cfg.adversary_share;
            let tenant = if adversary {
                0u32
            } else {
                1 + (splitmix(cfg.seed ^ 0x7E, i as u64) % (cfg.tenants as u64 - 1)) as u32
            };
            let (mode, orig_target_us) = if adversary {
                // The adversary floods cheap best-of-effort work.
                (AdmissionMode::Level(ServiceLevel::BestEffort), None)
            } else if unit(splitmix(cfg.seed ^ 0xD1, i as u64)) < cfg.deadline_share {
                let pick =
                    splitmix(cfg.seed ^ 0x5EED, i as u64) as usize % cfg.deadline_targets_us.len();
                let target_us = cfg.deadline_targets_us[pick];
                let mode = if cfg.map_deadlines_to_tiers {
                    AdmissionMode::Level(nearest_tier(&cfg.policy, target_us))
                } else {
                    AdmissionMode::Deadline { target_us }
                };
                (mode, Some(target_us))
            } else {
                let r = unit(splitmix(cfg.seed ^ 0xF00D, i as u64));
                let level = if r < 0.30 {
                    ServiceLevel::Immediate
                } else if r < 0.80 {
                    ServiceLevel::Relaxed
                } else {
                    ServiceLevel::BestEffort
                };
                (AdmissionMode::Level(level), None)
            };
            Planned {
                arrival: Arrival {
                    at: e.at,
                    class: e.class,
                    mode,
                    tenant,
                },
                orig_target_us,
            }
        })
        .collect()
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

impl SoakReport {
    /// Check the report's own accounting against its ledger, bit for bit
    /// at every scale: completions and revenue overall, per tenant and per
    /// admission mode. Both sides fold the same prices in completion order,
    /// so this is not an independent recomputation of the bills: it catches
    /// a completion one side counted and the other did not, one booked
    /// under another tenant or level than the tally's
    /// ([`QueryRecord::ledger_entry`]), and a report edited after the run.
    pub fn reconciles(&self) -> bool {
        let same = |summary: Option<&LedgerSummary>, completed: u64, revenue: f64| {
            let (entries, dollars) = summary.map_or((0, 0.0), |s| (s.entries, s.revenue_dollars));
            entries == completed && dollars.to_bits() == revenue.to_bits()
        };
        let (by_tenant, by_level) = (self.ledger.by_tenant(), self.ledger.by_level());
        let summary = self.ledger.summary();
        same(Some(&summary), self.completed, self.revenue_dollars)
            && (self.tenants.iter())
                .all(|t| same(by_tenant.get(&t.name), t.completed, t.revenue_dollars))
            && (self.modes.iter().zip(MODE_GROUPS)).all(|(m, (_, mode))| {
                same(by_level.get(mode.name()), m.completed, m.revenue_dollars)
            })
    }

    /// Victim tenants' (everyone but the adversary) mean wait, averaged.
    pub fn victim_mean_wait_us(&self) -> u64 {
        let victims: Vec<&TenantStats> = self
            .tenants
            .iter()
            .filter(|t| t.name != "adversary" && t.completed > 0)
            .collect();
        if victims.is_empty() {
            return 0;
        }
        let sum: u128 = victims.iter().map(|t| t.mean_wait_us as u128).sum();
        (sum / victims.len() as u128) as u64
    }

    pub fn adversary_mean_wait_us(&self) -> u64 {
        self.tenants
            .iter()
            .find(|t| t.name == "adversary")
            .map(|t| t.mean_wait_us)
            .unwrap_or(0)
    }

    /// Export the soak's headline series; per-tenant series go through the
    /// cardinality-capped [`Ledger::export_tenants`].
    pub fn export_metrics(&self, registry: &MetricsRegistry) {
        for m in &self.modes {
            for (name, help, value) in [
                (
                    "pixels_soak_queries_total",
                    "Soak queries completed, per admission mode",
                    m.completed,
                ),
                (
                    "pixels_soak_rejected_total",
                    "Soak queries rejected at admission, per mode",
                    m.rejected,
                ),
                (
                    "pixels_soak_sla_violations_total",
                    "Soak SLA violations, per admission mode",
                    m.sla_violations,
                ),
            ] {
                let counter = registry.counter_with(name, help, &[("mode", &m.name)]);
                counter.add(value);
            }
        }
        for (name, help, value) in [
            (
                "pixels_soak_revenue_dollars",
                "Total user revenue across the soak",
                self.revenue_dollars,
            ),
            (
                "pixels_soak_provider_dollars",
                "Total provider resource cost across the soak",
                self.provider_dollars,
            ),
            (
                "pixels_soak_throughput_qps",
                "Completed queries per simulated second",
                self.throughput_qps,
            ),
        ] {
            registry.gauge(name, help).set(value);
        }
        self.ledger.export_tenants(registry, 8);
    }

    pub fn to_json(&self) -> Json {
        Json::object([
            ("submitted", Json::number(self.submitted as f64)),
            ("completed", Json::number(self.completed as f64)),
            ("rejected", Json::number(self.rejected as f64)),
            ("sim_seconds", Json::number(self.sim_duration.as_secs_f64())),
            ("throughput_qps", Json::number(self.throughput_qps)),
            ("revenue_dollars", Json::number(self.revenue_dollars)),
            ("provider_dollars", Json::number(self.provider_dollars)),
            ("forced_starts", Json::number(self.forced_starts as f64)),
            ("batches", Json::number(self.batches as f64)),
            ("batched_members", Json::number(self.batched_members as f64)),
            ("cf_placements", Json::number(self.cf_placements as f64)),
            (
                "deadline_population",
                Json::number(self.deadline_population as f64),
            ),
            (
                "deadline_target_violations",
                Json::number(self.deadline_target_violations as f64),
            ),
            (
                "modes",
                Json::array(self.modes.iter().map(|m| {
                    Json::object([
                        ("name", Json::string(m.name.clone())),
                        ("completed", Json::number(m.completed as f64)),
                        ("rejected", Json::number(m.rejected as f64)),
                        ("sla_violations", Json::number(m.sla_violations as f64)),
                        ("p50_latency_s", Json::number(m.p50_latency_us as f64 / 1e6)),
                        ("p95_latency_s", Json::number(m.p95_latency_us as f64 / 1e6)),
                        ("p99_latency_s", Json::number(m.p99_latency_us as f64 / 1e6)),
                        ("revenue_dollars", Json::number(m.revenue_dollars)),
                    ])
                })),
            ),
            (
                "tenants",
                Json::array(self.tenants.iter().map(|t| {
                    Json::object([
                        ("name", Json::string(t.name.clone())),
                        ("completed", Json::number(t.completed as f64)),
                        ("rejected", Json::number(t.rejected as f64)),
                        ("mean_wait_s", Json::number(t.mean_wait_us as f64 / 1e6)),
                        ("max_wait_s", Json::number(t.max_wait_us as f64 / 1e6)),
                        ("revenue_dollars", Json::number(t.revenue_dollars)),
                    ])
                })),
            ),
            ("ledger_reconciled", Json::Bool(self.reconciles())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(users: usize) -> SoakConfig {
        SoakConfig {
            users,
            tenants: 8,
            vm_cores: 64,
            duration: SimDuration::from_secs(3600),
            ..SoakConfig::default()
        }
    }

    #[test]
    fn soak_is_deterministic_and_conserves_queries() {
        let cfg = small(1500);
        let a = run_soak(&cfg);
        let b = run_soak(&cfg);
        assert!(
            a.submitted as usize >= cfg.users,
            "undershot: {}",
            a.submitted
        );
        assert_eq!(a.submitted, a.completed + a.rejected);
        assert_eq!(a.submitted, b.submitted);
        assert_eq!(a.revenue_dollars.to_bits(), b.revenue_dollars.to_bits());
        assert!(a.ledger.same_books(&b.ledger));
        assert_eq!(a.completed, b.completed);
        assert!(a.throughput_qps > 0.0);
        // Every tenant both submitted and completed work.
        for t in &a.tenants {
            assert!(t.completed > 0, "tenant {} starved entirely", t.name);
        }
    }

    #[test]
    fn ledger_reconciles_and_exposition_is_valid() {
        let report = run_soak(&small(1200));
        assert!(report.completed > 0);
        assert!(report.reconciles());
        let registry = MetricsRegistry::new();
        report.export_metrics(&registry);
        let text = registry.render();
        pixels_obs::validate_exposition(&text).expect("soak exposition must be valid");
        assert!(text.contains("pixels_soak_queries_total"));
        assert!(text.contains("pixels_ledger_tenant_revenue_dollars"));
    }

    #[test]
    fn rejected_queries_never_bill() {
        // Deadline targets below any feasible execution time: every
        // deadline query is rejected at admission.
        let mut cfg = small(800);
        cfg.deadline_targets_us = vec![1_000]; // 1 ms: infeasible for all
        cfg.deadline_share = 0.5;
        let report = run_soak(&cfg);
        assert!(report.rejected > 0, "expected rejections");
        let deadline = report
            .modes
            .iter()
            .find(|m| m.name == DEADLINE_LEVEL)
            .unwrap();
        assert_eq!(deadline.completed, 0);
        assert!(deadline.rejected > 0);
        assert_eq!(deadline.revenue_dollars, 0.0);
        // No rejected query reached the ledger.
        assert_eq!(report.ledger.summary().entries, report.completed);
        assert!(!report.ledger.by_level().contains_key(DEADLINE_LEVEL));
        assert!(report.reconciles());
    }

    #[test]
    fn adversarial_flood_does_not_starve_victims() {
        // Adversary sends over half of all traffic as a best-of-effort
        // flood; victims keep interactive latencies because DRR gives the
        // adversary only one fair share and best-of-effort only runs on
        // idle capacity anyway.
        let mut cfg = small(2000);
        cfg.adversary_share = 0.6;
        let report = run_soak(&cfg);
        let victims = report.victim_mean_wait_us();
        let adversary = report.adversary_mean_wait_us();
        assert!(
            victims <= adversary || victims < cfg.policy.grace.as_micros() / 2,
            "victims wait {victims}us vs adversary {adversary}us"
        );
        // The adversary cannot push any victim past the relaxed grace
        // bound on mean wait.
        for t in report.tenants.iter().filter(|t| t.name != "adversary") {
            assert!(
                t.mean_wait_us < cfg.policy.grace.as_micros(),
                "tenant {} mean wait {}us exceeds grace",
                t.name,
                t.mean_wait_us
            );
        }
    }

    #[test]
    fn deadline_mode_beats_nearest_tier_mapping() {
        // Undersized fleet so queueing pressure is real; identical traffic
        // with deadlines either honored natively (EDF + latest-feasible
        // force-start) or mapped to the nearest fixed tier.
        let mut cfg = small(2500);
        cfg.vm_cores = 24;
        cfg.deadline_share = 0.4;
        let native = run_soak(&cfg);
        cfg.map_deadlines_to_tiers = true;
        let mapped = run_soak(&cfg);
        assert_eq!(native.submitted, mapped.submitted);
        assert!(native.deadline_population > 0);
        assert!(
            native.deadline_target_violations <= mapped.deadline_target_violations,
            "native {} vs mapped {}",
            native.deadline_target_violations,
            mapped.deadline_target_violations
        );
    }

    #[test]
    fn nearest_tier_mapping_is_log_space() {
        let policy = SchedulerPolicy::default();
        assert_eq!(nearest_tier(&policy, 10_000_000), ServiceLevel::Immediate);
        assert_eq!(nearest_tier(&policy, 30_000_000), ServiceLevel::Relaxed);
        assert_eq!(nearest_tier(&policy, 600_000_000), ServiceLevel::Relaxed);
        assert_eq!(
            nearest_tier(&policy, 1_800_000_000),
            ServiceLevel::BestEffort
        );
    }

    #[test]
    fn nearest_tier_follows_the_runs_own_grace() {
        // A one-hour grace moves the relaxed/best-of-effort boundary from
        // √(300 s · 3600 s) ≈ 17 min to 1 h: a 30 min target is relaxed.
        let policy = SchedulerPolicy {
            grace: SimDuration::from_secs(3600),
            ..SchedulerPolicy::default()
        };
        assert_eq!(nearest_tier(&policy, 1_800_000_000), ServiceLevel::Relaxed);
        assert_eq!(
            nearest_tier(&policy, 3_700_000_000),
            ServiceLevel::BestEffort
        );
        // And the immediate/relaxed boundary to √(1 s · 3600 s) = 60 s.
        assert_eq!(nearest_tier(&policy, 30_000_000), ServiceLevel::Immediate);
    }

    #[test]
    fn a_perturbed_tenant_revenue_does_not_reconcile() {
        let mut report = run_soak(&SoakConfig::ci_scale(2_000));
        assert!(report.reconciles());
        let tenant = &mut report.tenants[1];
        assert!(tenant.revenue_dollars > 0.0);
        tenant.revenue_dollars = f64::from_bits(tenant.revenue_dollars.to_bits() + 1);
        assert!(!report.reconciles(), "one ulp off one tenant's revenue");
    }
}
