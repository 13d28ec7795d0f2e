//! Per-service-level latency SLOs with sliding-window burn rates.
//!
//! Each service level carries one latency objective (a pending-time
//! threshold in microseconds, derived by the server from the scheduler's own
//! admission bounds — see `SchedulerPolicy::slo_objectives`). Every finished
//! query is one *event*: good if it met the threshold, a violation
//! otherwise. The tracker keeps totals plus a sliding window of recent
//! events and reports SRE-style burn rates over the look-back windows
//! [`BURN_WINDOWS`] (5 min and 1 h) against the fixed [`ERROR_BUDGET`] (1 %):
//!
//! ```text
//! burn(window) = violation_fraction(window) / ERROR_BUDGET
//! ```
//!
//! A burn rate of 1.0 means the level is consuming its error budget exactly
//! as fast as it accrues; 14.4 (the classic 1h page threshold for a 30-day
//! SLO) means the budget would be gone in ~2 days. Time comes from the
//! [`Clock`](crate::Clock) trait, so the live server (wall clock) and the
//! simulator (virtual clock) share this implementation verbatim.

use crate::clock::ClockRef;
use crate::registry::MetricsRegistry;
use parking_lot::Mutex;
use pixels_common::Json;
use std::collections::{BTreeMap, VecDeque};

/// One level's latency objective.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloObjective {
    /// Service-level name as used in metric labels (e.g. "relaxed").
    pub level: String,
    /// Pending-time threshold in microseconds; a query whose pending time
    /// exceeds this is an SLO violation.
    pub threshold_us: u64,
}

impl SloObjective {
    pub fn new(level: impl Into<String>, threshold_us: u64) -> SloObjective {
        SloObjective {
            level: level.into(),
            threshold_us,
        }
    }
}

/// The per-level counter families [`SloTracker::export`] sets.
pub const GOOD_TOTAL: &str = "pixels_slo_good_total";
pub const VIOLATION_TOTAL: &str = "pixels_slo_violation_total";

/// Burn-rate look-back windows: (label, width in microseconds).
pub const BURN_WINDOWS: &[(&str, u64)] = &[("5m", 300_000_000), ("1h", 3_600_000_000)];

/// Error budget: 1% of events may violate before burn = 1.0.
pub const ERROR_BUDGET: f64 = 0.01;

struct LevelState {
    threshold_us: u64,
    good_total: u64,
    violation_total: u64,
    /// Recent events, oldest first: (event time, was_good). Pruned to the
    /// widest burn window on every record.
    events: VecDeque<(u64, bool)>,
}

impl LevelState {
    /// The violation fraction of each of [`BURN_WINDOWS`] ending at `now_us`.
    fn window_fractions(&self, now_us: u64) -> Vec<(&'static str, f64)> {
        BURN_WINDOWS
            .iter()
            .map(|(label, width)| {
                let cutoff = now_us.saturating_sub(*width);
                let mut good = 0u64;
                let mut bad = 0u64;
                for &(at, was_good) in self.events.iter().rev() {
                    if at < cutoff {
                        break;
                    }
                    if was_good {
                        good += 1;
                    } else {
                        bad += 1;
                    }
                }
                let total = good + bad;
                let frac = if total == 0 {
                    0.0
                } else {
                    bad as f64 / total as f64
                };
                (*label, frac)
            })
            .collect()
    }
}

/// The SLO tracker: per-level good/violation accounting plus burn rates.
pub struct SloTracker {
    clock: ClockRef,
    levels: Mutex<BTreeMap<String, LevelState>>,
}

impl SloTracker {
    /// A tracker of `objectives`, burning [`ERROR_BUDGET`] over
    /// [`BURN_WINDOWS`].
    pub fn new(clock: ClockRef, objectives: Vec<SloObjective>) -> SloTracker {
        let levels = objectives
            .into_iter()
            .map(|o| {
                (
                    o.level,
                    LevelState {
                        threshold_us: o.threshold_us,
                        good_total: 0,
                        violation_total: 0,
                        events: VecDeque::new(),
                    },
                )
            })
            .collect();
        SloTracker {
            clock,
            levels: Mutex::new(levels),
        }
    }

    /// The configured threshold for a level, if one exists.
    pub fn threshold_us(&self, level: &str) -> Option<u64> {
        self.levels.lock().get(level).map(|s| s.threshold_us)
    }

    /// Record one finished query at the clock's current time. Returns
    /// whether the event was good. Unknown levels are ignored (reported
    /// good) so callers never have to pre-check the objective set.
    pub fn record(&self, level: &str, latency_us: u64) -> bool {
        let now = self.clock.now_micros();
        self.record_at(level, latency_us, now)
    }

    /// Record one finished query at an explicit event time — the simulator's
    /// path, where events carry their own virtual timestamps.
    pub fn record_at(&self, level: &str, latency_us: u64, at_us: u64) -> bool {
        let max_window = BURN_WINDOWS.iter().map(|(_, w)| *w).max().unwrap_or(0);
        let mut levels = self.levels.lock();
        let Some(state) = levels.get_mut(level) else {
            return true;
        };
        let good = latency_us <= state.threshold_us;
        if good {
            state.good_total += 1;
        } else {
            state.violation_total += 1;
        }
        state.events.push_back((at_us, good));
        let cutoff = at_us.saturating_sub(max_window);
        while state.events.front().is_some_and(|&(at, _)| at < cutoff) {
            state.events.pop_front();
        }
        good
    }

    /// Publish to a metrics registry: good/violation counters per level set
    /// to the tracker's totals, burn-rate gauges per (level, window), and
    /// the threshold as a gauge so dashboards can label the objective
    /// they're plotting.
    pub fn export(&self, registry: &MetricsRegistry) {
        let now = self.clock.now_micros();
        let levels = self.levels.lock();
        for (level, state) in levels.iter() {
            registry
                .counter_with(
                    GOOD_TOTAL,
                    "Queries that met their service-level latency objective.",
                    &[("level", level)],
                )
                .advance_to(state.good_total);
            registry
                .counter_with(
                    VIOLATION_TOTAL,
                    "Queries that violated their service-level latency objective.",
                    &[("level", level)],
                )
                .advance_to(state.violation_total);
            registry
                .gauge_with(
                    "pixels_slo_threshold_seconds",
                    "Latency objective per service level, in seconds.",
                    &[("level", level)],
                )
                .set(state.threshold_us as f64 / 1e6);
            for (window, frac) in state.window_fractions(now) {
                registry
                    .gauge_with(
                        "pixels_slo_burn_rate",
                        "Error-budget burn rate (violation fraction / budget) per window.",
                        &[("level", level), ("window", window)],
                    )
                    .set(frac / ERROR_BUDGET);
            }
        }
    }

    /// The `GET /slo` payload: per-level totals, threshold, and burn rates.
    pub fn to_json(&self) -> Json {
        let now = self.clock.now_micros();
        let levels = self.levels.lock();
        let entries = levels.iter().map(|(level, state)| {
            let burns = Json::Object(
                state
                    .window_fractions(now)
                    .into_iter()
                    .map(|(w, frac)| (w.to_string(), Json::number(frac / ERROR_BUDGET)))
                    .collect(),
            );
            (
                level.clone(),
                Json::object([
                    (
                        "threshold_seconds",
                        Json::number(state.threshold_us as f64 / 1e6),
                    ),
                    ("good_total", Json::number(state.good_total as f64)),
                    (
                        "violation_total",
                        Json::number(state.violation_total as f64),
                    ),
                    ("burn_rate", burns),
                ]),
            )
        });
        Json::object([
            ("error_budget", Json::number(ERROR_BUDGET)),
            ("levels", Json::Object(entries.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use std::sync::Arc;

    fn tracker(clock: Arc<SimClock>) -> SloTracker {
        SloTracker::new(
            clock,
            vec![
                SloObjective::new("immediate", 1_000_000),
                SloObjective::new("relaxed", 300_000_000),
            ],
        )
    }

    #[test]
    fn classifies_against_threshold() {
        let clock = SimClock::shared();
        let t = tracker(clock.clone());
        assert!(t.record("immediate", 500_000));
        assert!(!t.record("immediate", 2_000_000));
        assert!(t.record("relaxed", 2_000_000));
        assert!(t.record("unknown_level", u64::MAX), "unknown level ignored");
        let json = t.to_json();
        let imm = json.get("levels").unwrap().get("immediate").unwrap();
        assert_eq!(imm.get("good_total").unwrap().as_i64(), Some(1));
        assert_eq!(imm.get("violation_total").unwrap().as_i64(), Some(1));
    }

    #[test]
    fn burn_rate_windows_slide_with_the_clock() {
        let clock = SimClock::shared();
        let t = tracker(clock.clone());
        // Ten violations at t=0: every window sees 100% bad → burn 1/0.01.
        for _ in 0..10 {
            t.record("immediate", u64::MAX);
        }
        let burn = |t: &SloTracker, w: &str| {
            t.to_json()
                .get("levels")
                .unwrap()
                .get("immediate")
                .unwrap()
                .get("burn_rate")
                .unwrap()
                .get(w)
                .unwrap()
                .as_f64()
                .unwrap()
        };
        assert_eq!(burn(&t, "5m"), 100.0);
        assert_eq!(burn(&t, "1h"), 100.0);
        // 10 virtual minutes later the 5m window is clean, the 1h one not.
        clock.set_micros(600_000_000);
        t.record("immediate", 1);
        assert_eq!(burn(&t, "5m"), 0.0);
        assert!(burn(&t, "1h") > 0.0);
        // Past the widest window everything ages out.
        clock.set_micros(4_300_000_000);
        t.record("immediate", 1);
        assert_eq!(burn(&t, "1h"), 0.0);
    }

    #[test]
    fn export_is_monotonic_across_scrapes() {
        let clock = SimClock::shared();
        let t = tracker(clock);
        let r = MetricsRegistry::new();
        t.record("relaxed", 1);
        t.export(&r);
        t.record("relaxed", 1);
        t.record("relaxed", u64::MAX);
        t.export(&r);
        t.export(&r); // scrape with no new events must not move counters
        let text = r.render();
        assert!(
            text.contains("pixels_slo_good_total{level=\"relaxed\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("pixels_slo_violation_total{level=\"relaxed\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("pixels_slo_threshold_seconds{level=\"immediate\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("pixels_slo_burn_rate{level=\"relaxed\",window=\"5m\"}"),
            "{text}"
        );
    }

    #[test]
    fn zero_events_exports_all_families() {
        let clock = SimClock::shared();
        let t = tracker(clock);
        let r = MetricsRegistry::new();
        t.export(&r);
        let text = r.render();
        for family in [
            "pixels_slo_good_total",
            "pixels_slo_violation_total",
            "pixels_slo_burn_rate",
            "pixels_slo_threshold_seconds",
        ] {
            assert!(text.contains(family), "missing {family} in {text}");
        }
    }
}
