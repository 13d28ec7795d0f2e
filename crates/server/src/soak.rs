//! Long-horizon admission soak: millions of simulated users driven through
//! the tenant-aware admission core.
//!
//! The soak is a configuration of the one simulated server,
//! [`crate::sim::ServerSim`], not a second driver: admission verdicts, the
//! deficit-weighted fair queue, EDF deadline ordering, feasibility
//! rejection, best-of-effort shared-scan batching, record pricing and the
//! event clock are the driver's. What this module adds is the traffic
//! ([`plan_submissions`]), a capacity model cheap enough for weeks of
//! virtual time ([`AnalyticFleet`]: closed-form placement, runtime and cost,
//! woken only when a run finishes — where the cluster micro-model steps
//! every 100 ms), and a record sink that folds each outcome into running
//! totals, so a 1M-user soak finishes in seconds of wall time and holds no
//! per-query record.
//!
//! Billing discipline matches the live path bit-for-bit: every completed
//! query appends exactly the dollars its record carries (in completion
//! order), rejected queries never bill, and batch members split one scan's
//! bytes with [`pixels_exec::batch::member_share`] — so the report's
//! per-tenant revenue reconciles exactly against a [`pixels_obs::Ledger`]
//! replay.

use crate::scheduler::{AdmissionMode, SchedulerPolicy, DEADLINE_LEVEL};
use crate::service_level::ServiceLevel;
use crate::sim::{Arrival, DriveStats, Outcome, QueryRecord, ServerConfig, ServerSim};
use pixels_common::{Json, QueryId};
use pixels_obs::{Ledger, LedgerEntry, MetricsRegistry};
use pixels_sim::{SimDuration, SimTime};
use pixels_turbo::{
    Capacity, CostBreakdown, Placement, QueryCompletion, QueryWork, ResourcePricing,
};
use pixels_workload::{arrivals, WorkloadTrace};
use std::collections::BTreeMap;

/// Configuration of one soak run. All times are virtual.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Target number of simulated users (one query each). The arrival
    /// generators are seeded with ~5% margin above this, so the realized
    /// count is deterministic and at least `users` for any practical size.
    pub users: usize,
    /// Tenant pool size; tenant 0 is the adversary.
    pub tenants: usize,
    /// VM fleet capacity in cores. `overloaded` at ≥ capacity,
    /// `nearly_idle` at ≤ a quarter of it.
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
    /// Merge same-class best-of-effort queue entries into shared scans.
    pub batch_besteffort: bool,
    pub max_batch: usize,
    /// Keep full ledger entries for bit-for-bit reconciliation (memory ∝
    /// completions; leave off for multi-million-user runs, which still
    /// verify via the running revenue fold).
    pub collect_ledger: bool,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            users: 50_000,
            tenants: 16,
            vm_cores: 96,
            duration: SimDuration::from_secs(24 * 3600),
            seed: 7,
            adversary_share: 0.2,
            deadline_share: 0.25,
            deadline_targets_us: vec![
                10_000_000,    // 10 s: infeasible for heavy queries → rejected
                30_000_000,    // 30 s
                120_000_000,   // 2 min
                600_000_000,   // 10 min
                1_800_000_000, // 30 min
            ],
            map_deadlines_to_tiers: false,
            policy: SchedulerPolicy::default(),
            batch_besteffort: true,
            max_batch: 8,
            collect_ledger: false,
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
            collect_ledger: users <= 200_000,
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
#[derive(Debug, Clone, Default)]
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
    /// Full entries when `collect_ledger`; always in completion order.
    pub ledger_entries: Vec<LedgerEntry>,
    /// Bits of the running `revenue += price` fold in completion order —
    /// the any-scale reconciliation anchor.
    pub revenue_fold_bits: u64,
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

/// Map a deadline target to the nearest fixed tier in log space: the
/// boundaries are the geometric means of adjacent tier bounds (1 s
/// immediate SLO, 300 s relaxed grace, 3600 s starvation bound).
pub fn nearest_tier(target_us: u64) -> ServiceLevel {
    let t = target_us as f64 / 1e6;
    if t <= (1.0f64 * 300.0).sqrt() {
        ServiceLevel::Immediate
    } else if t <= (300.0f64 * 3600.0).sqrt() {
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

/// The analytic capacity model: a VM fleet of `vm_cores` cores plus an
/// elastic CF tier. `overloaded` at ≥ capacity, `nearly_idle` at ≤ a quarter
/// of it. CF absorbs overload for CF-eligible modes (immediate always, and
/// deadline queries — including their forced starts); everything else runs
/// on (possibly over-committed) VM cores. A run takes the work's execution
/// time at its own parallelism on either tier: CF elasticity offsets the
/// per-worker efficiency penalty, so latency matches the VM tier but the
/// provider pays the CF premium (efficiency-inflated GB-seconds plus
/// invocations).
#[derive(Default)]
pub struct AnalyticFleet {
    vm_cores: u64,
    busy_cores: u64,
    pricing: ResourcePricing,
    /// Runs in flight by (finish time, start order), with the cores each
    /// holds.
    running: BTreeMap<(SimTime, u64), (QueryCompletion, u64)>,
    started: u64,
}

impl AnalyticFleet {
    pub fn new(vm_cores: u64, pricing: ResourcePricing) -> Self {
        AnalyticFleet {
            vm_cores,
            pricing,
            ..AnalyticFleet::default()
        }
    }
}

impl Capacity for AnalyticFleet {
    fn overloaded(&self) -> bool {
        self.busy_cores >= self.vm_cores
    }

    fn nearly_idle(&self) -> bool {
        self.busy_cores * 4 <= self.vm_cores
    }

    fn start(
        &mut self,
        id: QueryId,
        work: QueryWork,
        cf_enabled: bool,
        _forced: bool,
        now: SimTime,
    ) -> Option<SimTime> {
        let workers = work.parallelism.max(1);
        let (cores, placement, vm_dollars, cf_dollars) = if self.overloaded() && cf_enabled {
            let per_worker = SimDuration::from_secs_f64(
                work.cpu_seconds / self.pricing.cf_efficiency / workers as f64,
            );
            let cf_dollars = self.pricing.cf_cost(workers, per_worker);
            (0, Placement::Cf { workers }, 0.0, cf_dollars)
        } else {
            let vm_dollars = self.pricing.vm_cost(work.cpu_seconds);
            (work.parallelism as u64, Placement::Vm, vm_dollars, 0.0)
        };
        let exec = work.solo_exec_time();
        let finished_at = now + exec.max(SimDuration::from_micros(1));
        self.busy_cores += cores;
        let done = QueryCompletion {
            id,
            submitted_at: now,
            started_at: now,
            finished_at,
            placement,
            cost: CostBreakdown {
                vm_dollars,
                cf_dollars,
            },
            scan_bytes: work.scan_bytes,
            degraded: false,
            speculative: false,
            shuffle_dollars: 0.0,
        };
        self.running
            .insert((finished_at, self.started), (done, cores));
        self.started += 1;
        Some(finished_at)
    }

    /// Every start asked for its own wake, so each wake retires exactly one
    /// run: same-instant finishes then interleave with the driver's other
    /// events (and the queue drain after each) in the order the runs began.
    fn wake(&mut self, now: SimTime) -> (Vec<QueryCompletion>, Option<SimTime>) {
        let due = self.running.first_entry().filter(|e| e.key().0 <= now);
        let done = due.map(|e| {
            let (done, cores) = e.remove();
            self.busy_cores -= cores;
            done
        });
        (done.into_iter().collect(), None)
    }
}

/// The soak's record sink: each outcome is folded into the report the moment
/// the driver emits it.
struct Tally<'a> {
    report: SoakReport,
    plan: &'a [Planned],
    collect_ledger: bool,
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
        if self.collect_ledger {
            let entry = r.ledger_entry(&tenant.name);
            self.report.ledger_entries.push(entry);
        }
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
        report.revenue_fold_bits = report.revenue_dollars.to_bits();
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
    let fleet = AnalyticFleet::new(cfg.vm_cores, ResourcePricing::default());
    let mut sim = ServerSim::over(
        fleet,
        ServerConfig {
            policy: cfg.policy,
            batch_besteffort: cfg.batch_besteffort,
            max_batch: cfg.max_batch,
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
    let objectives = cfg.policy.slo_objectives();
    let mut tally = Tally {
        plan: &plan,
        collect_ledger: cfg.collect_ledger,
        slo_bound_us: MODE_GROUPS.map(|(_, mode)| {
            let objective = objectives.iter().find(|o| o.level == mode.name());
            objective.expect("an objective per mode").threshold_us
        }),
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
                    AdmissionMode::Level(nearest_tier(target_us))
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
    /// Rebuild a [`Ledger`] from the collected entries and check it
    /// reconciles with the report's own accounting: per-tenant revenue
    /// bit-for-bit (both folds run in completion order) and total revenue
    /// against the running fold. Without collected entries only the fold
    /// anchor is checked.
    pub fn reconciles(&self) -> bool {
        if self.revenue_fold_bits != self.revenue_dollars.to_bits() {
            return false;
        }
        let Some(ledger) = self.collected_ledger() else {
            return true;
        };
        if ledger.len() as u64 != self.completed {
            return false;
        }
        let by_tenant = ledger.by_tenant();
        self.tenants.iter().all(|t| {
            let summary = by_tenant.get(&t.name);
            let (entries, revenue) = summary.map_or((0, 0.0), |s| (s.entries, s.revenue_dollars));
            entries == t.completed && revenue.to_bits() == t.revenue_dollars.to_bits()
        })
    }

    /// The ledger rebuilt from the collected entries, if any were kept.
    fn collected_ledger(&self) -> Option<Ledger> {
        (!self.ledger_entries.is_empty()).then(|| {
            let ledger = Ledger::new();
            for e in &self.ledger_entries {
                ledger.append(e.clone());
            }
            ledger
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
    /// cardinality-capped [`Ledger::export_tenants`] when entries were
    /// collected.
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
        if let Some(ledger) = self.collected_ledger() {
            ledger.export_tenants(registry, 8);
        }
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
    use pixels_workload::QueryClass;

    fn small(users: usize) -> SoakConfig {
        SoakConfig {
            users,
            tenants: 8,
            vm_cores: 64,
            duration: SimDuration::from_secs(3600),
            collect_ledger: true,
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
        assert_eq!(a.revenue_fold_bits, b.revenue_fold_bits);
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
        assert_eq!(report.ledger_entries.len() as u64, report.completed);
        assert!(report
            .ledger_entries
            .iter()
            .all(|e| e.level != DEADLINE_LEVEL));
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
    fn analytic_fleet_places_on_cf_only_under_overload_and_prices_by_the_book() {
        let pricing = ResourcePricing::default();
        let medium = QueryWork::from_class(QueryClass::Medium);
        let mut fleet = AnalyticFleet::new(medium.parallelism as u64, pricing);
        let t0 = SimTime::from_secs(1);
        let run = |fleet: &mut AnalyticFleet, id, cf_enabled, forced| {
            let finish = fleet
                .start(QueryId(id), medium, cf_enabled, forced, t0)
                .unwrap();
            assert_eq!(finish, t0 + medium.solo_exec_time());
        };
        // Idle fleet: CF-enabled work still runs on VM cores, and fills them.
        assert!(fleet.nearly_idle() && !fleet.overloaded());
        run(&mut fleet, 0, true, false);
        assert!(fleet.overloaded() && !fleet.nearly_idle());
        // Full fleet: CF-disabled work over-commits the VMs; CF-enabled work
        // — an immediate query, or a deadline query forced at its bound —
        // goes to CF and holds no cores.
        run(&mut fleet, 1, false, false);
        run(&mut fleet, 2, true, false);
        run(&mut fleet, 3, true, true);
        // One wake per start, each retiring one run, in start order.
        let finish = t0 + medium.solo_exec_time();
        assert!(fleet.wake(t0).0.is_empty(), "nothing is due yet");
        let mut done = Vec::new();
        for _ in 0..4 {
            let (retired, next) = fleet.wake(finish);
            assert_eq!((retired.len(), next), (1, None));
            done.extend(retired);
        }
        assert!(fleet.nearly_idle(), "every core was handed back");
        assert_eq!(
            done.iter().map(|d| d.id.0).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
        let workers = medium.parallelism;
        let per_worker =
            SimDuration::from_secs_f64(medium.cpu_seconds / pricing.cf_efficiency / workers as f64);
        for d in &done {
            let on_cf = d.id.0 >= 2;
            assert_eq!(d.placement == Placement::Cf { workers }, on_cf);
            let expected = if on_cf {
                CostBreakdown {
                    vm_dollars: 0.0,
                    cf_dollars: pricing.cf_cost(workers, per_worker),
                }
            } else {
                CostBreakdown {
                    vm_dollars: pricing.vm_cost(medium.cpu_seconds),
                    cf_dollars: 0.0,
                }
            };
            assert_eq!(d.cost, expected);
            assert_eq!((d.started_at, d.finished_at), (t0, finish));
        }
    }

    /// The admission core is the driver's, so it cannot depend on which
    /// capacity model sits under it: with capacity that never binds, the
    /// cluster micro-model and the analytic fleet must produce the same
    /// verdicts, rejections, billed bytes, prices and per-tenant revenue.
    #[test]
    fn both_capacity_models_see_the_same_admission_core() {
        use pixels_turbo::{CfConfig, Coordinator, VmConfig};
        const TENANTS: [&str; 3] = ["acme", "globex", "initech"];
        let modes = [
            AdmissionMode::Level(ServiceLevel::Immediate),
            AdmissionMode::Level(ServiceLevel::Relaxed),
            AdmissionMode::Level(ServiceLevel::BestEffort),
            AdmissionMode::Deadline {
                target_us: 120_000_000,
            },
        ];
        // On step boundaries, so both models admit at the arrival instant.
        let mut trace: Vec<Arrival> = (0..24u64)
            .map(|i| Arrival {
                at: SimTime::from_millis(500 * (i / 3)),
                class: QueryClass::ALL[(i % 3) as usize],
                mode: modes[(i % 4) as usize],
                tenant: (i % 3) as u32,
            })
            .collect();
        // A heavy query cannot finish in 100 ms: refused at admission.
        trace.push(Arrival {
            at: SimTime::from_secs(4),
            class: QueryClass::Heavy,
            mode: AdmissionMode::Deadline { target_us: 100_000 },
            tenant: 1,
        });
        let cfg = ServerConfig {
            batch_besteffort: true,
            ..ServerConfig::default()
        };
        fn outcomes<C: Capacity>(
            capacity: C,
            cfg: ServerConfig,
            trace: &[Arrival],
        ) -> (Vec<QueryRecord>, Vec<crate::sim::RejectedRecord>) {
            let mut sim = ServerSim::over(capacity, cfg);
            for t in TENANTS {
                sim.intern(t);
            }
            let (mut done, mut rejected) = (Vec::new(), Vec::new());
            sim.drive(
                trace.to_vec(),
                SimDuration::from_secs(3600),
                &mut |o| match o {
                    Outcome::Completed(r) => done.push(r),
                    Outcome::Rejected(r) => rejected.push(r),
                },
            );
            assert_eq!(sim.unfinished(), 0);
            done.sort_by_key(|r| r.id);
            (done, rejected)
        }
        let roomy = VmConfig {
            high_watermark: f64::INFINITY,
            low_watermark: f64::INFINITY,
            ..VmConfig::default()
        };
        let cluster = Coordinator::new(
            roomy,
            CfConfig::default(),
            ResourcePricing::default(),
            SimTime::ZERO,
        );
        let fleet = AnalyticFleet::new(u64::MAX / 8, ResourcePricing::default());
        let (on_cluster, cluster_rejects) = outcomes(cluster, cfg, &trace);
        let (on_fleet, fleet_rejects) = outcomes(fleet, cfg, &trace);

        assert_eq!(cluster_rejects, fleet_rejects);
        assert_eq!(cluster_rejects.len(), 1);
        assert!(cluster_rejects[0].reason.contains("infeasible deadline"));
        assert_eq!(on_cluster.len(), 24);
        assert_eq!(on_cluster.len(), on_fleet.len());
        let revenue_by_tenant = |records: &[QueryRecord]| {
            let ledger = Ledger::new();
            for r in records {
                ledger.append(r.ledger_entry(TENANTS[r.tenant as usize]));
            }
            let by_tenant = ledger.by_tenant();
            TENANTS.map(|t| by_tenant[t].revenue_dollars.to_bits())
        };
        for (c, f) in on_cluster.iter().zip(&on_fleet) {
            assert_eq!((c.id, c.mode, c.tenant), (f.id, f.mode, f.tenant));
            // Same verdict at the same instant: dispatched on arrival.
            assert_eq!(c.submitted_at, f.submitted_at);
            assert_eq!(c.dispatched_at, f.dispatched_at);
            assert_eq!(c.dispatched_at, c.submitted_at);
            assert_eq!(c.scan_bytes, f.scan_bytes);
            assert_eq!(c.price.to_bits(), f.price.to_bits());
        }
        assert_eq!(revenue_by_tenant(&on_cluster), revenue_by_tenant(&on_fleet));
    }

    #[test]
    fn nearest_tier_mapping_is_log_space() {
        assert_eq!(nearest_tier(10_000_000), ServiceLevel::Immediate);
        assert_eq!(nearest_tier(30_000_000), ServiceLevel::Relaxed);
        assert_eq!(nearest_tier(600_000_000), ServiceLevel::Relaxed);
        assert_eq!(nearest_tier(1_800_000_000), ServiceLevel::BestEffort);
    }
}
