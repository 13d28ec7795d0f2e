//! Measurement helpers for simulation experiments: time series with
//! time-weighted averages, duration samples with order statistics, and the
//! one exact percentile rule, [`percentile`].

use crate::clock::{SimDuration, SimTime};

/// A step-function time series: the value recorded at time `t` holds until
/// the next sample. Used for, e.g., "VM workers over time" and "query
/// concurrency over time" traces.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    samples: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Record a new value at `t`. Samples should arrive in time order; an
    /// out-of-order sample is clamped to the last recorded time (becoming
    /// the step value from that point on) so lookups — which binary-search
    /// and therefore require ordering — never silently misbehave in release
    /// builds the way the old `debug_assert!` allowed.
    pub fn record(&mut self, t: SimTime, value: f64) {
        if let Some(&(last_t, last_v)) = self.samples.last() {
            let t = t.max(last_t);
            if last_v == value {
                return; // step function: drop redundant samples
            }
            if t == last_t {
                // Same (or clamped) timestamp: the later recording wins.
                self.samples.last_mut().expect("nonempty").1 = value;
                return;
            }
            self.samples.push((t, value));
            return;
        }
        self.samples.push((t, value));
    }

    pub fn samples(&self) -> &[(SimTime, f64)] {
        &self.samples
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Value of the step function at time `t` (the last sample at or before
    /// `t`), or `None` if `t` precedes the first sample.
    pub fn value_at(&self, t: SimTime) -> Option<f64> {
        match self.samples.binary_search_by(|&(st, _)| st.cmp(&t)) {
            Ok(i) => Some(self.samples[i].1),
            Err(0) => None,
            Err(i) => Some(self.samples[i - 1].1),
        }
    }

    /// Time-weighted average of the step function over `[start, end)`.
    pub fn time_weighted_avg(&self, start: SimTime, end: SimTime) -> f64 {
        if end <= start || self.samples.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        let mut cur_t = start;
        let mut cur_v = self.value_at(start).unwrap_or(0.0);
        for &(t, v) in &self.samples {
            if t <= start {
                continue;
            }
            if t >= end {
                break;
            }
            total += cur_v * (t - cur_t).as_secs_f64();
            cur_t = t;
            cur_v = v;
        }
        total += cur_v * (end - cur_t).as_secs_f64();
        total / (end - start).as_secs_f64()
    }

    /// Maximum recorded value in `[start, end)`, including the value carried
    /// in from before `start`.
    pub fn max_over(&self, start: SimTime, end: SimTime) -> f64 {
        let mut max = self.value_at(start).unwrap_or(f64::NEG_INFINITY);
        for &(t, v) in &self.samples {
            if t > start && t < end {
                max = max.max(v);
            }
        }
        max
    }

    /// Integral of the step function over `[start, end)` — e.g., worker-seconds.
    pub fn integral(&self, start: SimTime, end: SimTime) -> f64 {
        self.time_weighted_avg(start, end) * (end - start).as_secs_f64()
    }
}

/// Collects durations and reports order statistics.
#[derive(Debug, Clone, Default)]
pub struct DurationStats {
    values: Vec<SimDuration>,
}

impl DurationStats {
    pub fn new() -> Self {
        DurationStats::default()
    }

    pub fn record(&mut self, d: SimDuration) {
        self.values.push(d);
    }

    pub fn count(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn mean(&self) -> SimDuration {
        if self.values.is_empty() {
            return SimDuration::ZERO;
        }
        let total: u64 = self.values.iter().map(|d| d.as_micros()).sum();
        SimDuration::from_micros(total / self.values.len() as u64)
    }

    pub fn max(&self) -> SimDuration {
        self.values
            .iter()
            .copied()
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    pub fn min(&self) -> SimDuration {
        self.values
            .iter()
            .copied()
            .min()
            .unwrap_or(SimDuration::ZERO)
    }

    /// The q-th percentile (0.0 ..= 1.0) of the sample: [`percentile`].
    pub fn percentile(&self, q: f64) -> SimDuration {
        let mut sorted = self.values.clone();
        sorted.sort_unstable();
        percentile(&sorted, q)
    }
}

/// The q-th percentile (0.0 ..= 1.0) of an ascending sample by nearest
/// rank: `sorted[ceil(q·n) − 1]`, the smallest value with at least a `q`
/// share of the sample at or below it. `q` clamps to 0..=1 (`q = 0` is the
/// minimum); an empty sample reads the default (zero).
pub fn percentile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1) - 1;
    sorted[rank.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_function_lookup() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime::from_secs(1), 1.0);
        ts.record(SimTime::from_secs(3), 5.0);
        assert_eq!(ts.value_at(SimTime::ZERO), None);
        assert_eq!(ts.value_at(SimTime::from_secs(1)), Some(1.0));
        assert_eq!(ts.value_at(SimTime::from_secs(2)), Some(1.0));
        assert_eq!(ts.value_at(SimTime::from_secs(3)), Some(5.0));
        assert_eq!(ts.value_at(SimTime::from_secs(99)), Some(5.0));
    }

    #[test]
    fn redundant_samples_are_dropped() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime::from_secs(1), 2.0);
        ts.record(SimTime::from_secs(2), 2.0);
        ts.record(SimTime::from_secs(3), 3.0);
        assert_eq!(ts.samples().len(), 2);
    }

    #[test]
    fn time_weighted_average() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime::ZERO, 0.0);
        ts.record(SimTime::from_secs(10), 10.0);
        // [0, 20): 10s at 0.0 + 10s at 10.0 => avg 5.0
        let avg = ts.time_weighted_avg(SimTime::ZERO, SimTime::from_secs(20));
        assert!((avg - 5.0).abs() < 1e-9);
        // integral over the same window = 100 value-seconds
        assert!((ts.integral(SimTime::ZERO, SimTime::from_secs(20)) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn max_over_window() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime::ZERO, 1.0);
        ts.record(SimTime::from_secs(5), 9.0);
        ts.record(SimTime::from_secs(10), 2.0);
        assert_eq!(ts.max_over(SimTime::ZERO, SimTime::from_secs(20)), 9.0);
        assert_eq!(
            ts.max_over(SimTime::from_secs(11), SimTime::from_secs(20)),
            2.0
        );
    }

    #[test]
    fn duration_percentiles() {
        let mut h = DurationStats::new();
        for i in 1..=100u64 {
            h.record(SimDuration::from_secs(i));
        }
        assert_eq!(h.percentile(0.5), SimDuration::from_secs(50));
        assert_eq!(h.percentile(0.99), SimDuration::from_secs(99));
        assert_eq!(h.percentile(1.0), SimDuration::from_secs(100));
        assert_eq!(h.min(), SimDuration::from_secs(1));
        assert_eq!(h.max(), SimDuration::from_secs(100));
        assert_eq!(h.mean(), SimDuration::from_micros(50_500_000));
    }

    #[test]
    fn empty_stats_are_safe() {
        let h = DurationStats::new();
        assert_eq!(h.percentile(0.5), SimDuration::ZERO);
        assert_eq!(h.mean(), SimDuration::ZERO);
        let ts = TimeSeries::new();
        assert_eq!(
            ts.time_weighted_avg(SimTime::ZERO, SimTime::from_secs(1)),
            0.0
        );
    }

    #[test]
    fn out_of_order_samples_are_clamped() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime::from_secs(10), 1.0);
        // Regression: this used to pass a debug_assert-only check and leave
        // the series unsorted, breaking binary-search lookups in release.
        ts.record(SimTime::from_secs(5), 7.0);
        assert!(
            ts.samples().windows(2).all(|w| w[0].0 <= w[1].0),
            "series must stay sorted: {:?}",
            ts.samples()
        );
        // The late sample is clamped to t=10 and, having the same timestamp,
        // replaces the value there.
        assert_eq!(ts.value_at(SimTime::from_secs(10)), Some(7.0));
        assert_eq!(ts.value_at(SimTime::from_secs(12)), Some(7.0));
        assert_eq!(ts.value_at(SimTime::from_secs(7)), None);

        // Clamping between existing samples also keeps order.
        let mut ts = TimeSeries::new();
        ts.record(SimTime::from_secs(1), 1.0);
        ts.record(SimTime::from_secs(10), 2.0);
        ts.record(SimTime::from_secs(3), 9.0);
        assert!(ts.samples().windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(ts.value_at(SimTime::from_secs(10)), Some(9.0));
    }

    #[test]
    fn same_timestamp_later_recording_wins() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime::from_secs(2), 1.0);
        ts.record(SimTime::from_secs(2), 5.0);
        assert_eq!(ts.samples().len(), 1);
        assert_eq!(ts.value_at(SimTime::from_secs(2)), Some(5.0));
    }

    #[test]
    fn time_weighted_avg_edge_cases() {
        // Single sample: zero before it (value_at is None), constant after.
        let mut ts = TimeSeries::new();
        ts.record(SimTime::from_secs(5), 4.0);
        let avg = ts.time_weighted_avg(SimTime::ZERO, SimTime::from_secs(10));
        assert!((avg - 2.0).abs() < 1e-9, "{avg}");

        // Window entirely before the first sample.
        assert_eq!(
            ts.time_weighted_avg(SimTime::ZERO, SimTime::from_secs(4)),
            0.0
        );

        // Zero-length (and inverted) windows are defined as 0.
        assert_eq!(
            ts.time_weighted_avg(SimTime::from_secs(3), SimTime::from_secs(3)),
            0.0
        );
        assert_eq!(
            ts.time_weighted_avg(SimTime::from_secs(7), SimTime::from_secs(3)),
            0.0
        );

        // Window entirely after the last sample: constant value.
        let avg = ts.time_weighted_avg(SimTime::from_secs(20), SimTime::from_secs(30));
        assert!((avg - 4.0).abs() < 1e-9, "{avg}");
    }

    #[test]
    fn percentile_edge_cases() {
        let mut h = DurationStats::new();
        h.record(SimDuration::from_secs(42));
        // A single sample is every percentile.
        assert_eq!(h.percentile(0.0), SimDuration::from_secs(42));
        assert_eq!(h.percentile(0.5), SimDuration::from_secs(42));
        assert_eq!(h.percentile(1.0), SimDuration::from_secs(42));
        // Out-of-range quantiles clamp instead of panicking.
        assert_eq!(h.percentile(-1.0), SimDuration::from_secs(42));
        assert_eq!(h.percentile(2.0), SimDuration::from_secs(42));

        let mut h = DurationStats::new();
        h.record(SimDuration::from_secs(1));
        h.record(SimDuration::from_secs(2));
        assert_eq!(h.percentile(0.0), SimDuration::from_secs(1));
        assert_eq!(h.percentile(0.5), SimDuration::from_secs(1));
        assert_eq!(h.percentile(0.51), SimDuration::from_secs(2));
    }
}
