//! Order statistics with a sample-support rule.

/// How many samples must lie beyond a tail percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Linear-interpolated quantile of an ascending slice (`q` in [0, 1]).
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of the samples; `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| quantile_sorted(&sorted(samples), 0.5))
}

/// Tail percentile `q` (> 0.5), reported only when at least [`MIN_BEYOND`]
/// samples lie beyond it — p95 needs 200 samples, p99 needs 1000.
pub fn tail(samples: &[f64], q: f64) -> Option<f64> {
    let beyond = (samples.len() as f64 * (1.0 - q)).floor() as usize;
    (beyond >= MIN_BEYOND).then(|| quantile_sorted(&sorted(samples), q))
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method), so the
/// spreads `compare` and `--sets` print are the ones the acceptance rule uses.
/// Fewer than two values have no quartiles: all three are the single value.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(samples);
    match v.len() {
        0 => None,
        1 => Some([v[0]; 3]),
        n => Some([1usize, 2, 3].map(|i| {
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            // Negative for n = 2, where Python extrapolates below the data.
            let delta = ((i * (n + 1)) as f64 - (j * 4) as f64) / 4.0;
            v[j - 1] + (v[j] - v[j - 1]) * delta
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let n199: Vec<f64> = (0..199).map(f64::from).collect();
        let n200: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(tail(&n199, 0.95), None);
        let p95 = tail(&n200, 0.95).unwrap();
        assert!((p95 - 189.05).abs() < 1e-9, "{p95}");
        assert_eq!(tail(&n200, 0.99), None);
        let n1000: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(tail(&n1000, 0.99).is_some());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some([1.0, 2.0, 4.0]));
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }
}
