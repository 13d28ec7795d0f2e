//! User-facing prices: dollars per terabyte scanned, by service level.
//!
//! The demo prices match the paper: immediate = $5/TB (the AWS Athena
//! price), relaxed = $1/TB (20%), best-of-effort = $0.5/TB (10%).

use crate::scheduler::AdmissionMode;
use pixels_common::bytesize::as_terabytes;
use pixels_common::prices;

/// The $/TB-scan price schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriceSchedule {
    /// Price of the immediate level per TB scanned.
    pub immediate_per_tb: f64,
}

impl Default for PriceSchedule {
    fn default() -> Self {
        PriceSchedule {
            immediate_per_tb: prices::IMMEDIATE_PER_TB,
        }
    }
}

impl PriceSchedule {
    /// $/TB for a service level or any other admission mode: fixed levels
    /// use their tier fraction, deadline mode interpolates between them by
    /// target tightness.
    pub fn per_tb(&self, mode: impl Into<AdmissionMode>) -> f64 {
        self.immediate_per_tb * mode.into().price_fraction()
    }

    /// The bill for one query.
    pub fn bill(&self, mode: impl Into<AdmissionMode>, scan_bytes: u64) -> f64 {
        self.per_tb(mode) * as_terabytes(scan_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service_level::ServiceLevel;
    use pixels_common::bytesize::TB;

    #[test]
    fn per_tb_matches_paper_demo() {
        let p = PriceSchedule::default();
        assert_eq!(p.per_tb(ServiceLevel::Immediate), 5.0);
        assert_eq!(p.per_tb(ServiceLevel::Relaxed), 1.0);
        assert_eq!(p.per_tb(ServiceLevel::BestEffort), 0.5);
    }

    #[test]
    fn bill_is_linear_in_bytes() {
        let p = PriceSchedule::default();
        assert!((p.bill(ServiceLevel::Immediate, TB) - 5.0).abs() < 1e-9);
        assert!((p.bill(ServiceLevel::Relaxed, TB / 2) - 0.5).abs() < 1e-9);
        assert_eq!(p.bill(ServiceLevel::BestEffort, 0), 0.0);
    }

    #[test]
    fn deadline_mode_bills_between_the_tiers() {
        let p = PriceSchedule::default();
        // A 60 s deadline prices like Immediate, 300 s like Relaxed.
        assert_eq!(
            p.bill(
                AdmissionMode::Deadline {
                    target_us: 60_000_000
                },
                TB
            ),
            p.bill(ServiceLevel::Immediate, TB)
        );
        assert_eq!(
            p.bill(
                AdmissionMode::Deadline {
                    target_us: 300_000_000
                },
                TB
            ),
            p.bill(ServiceLevel::Relaxed, TB)
        );
    }

    #[test]
    fn custom_base_price_scales_all_levels() {
        let p = PriceSchedule {
            immediate_per_tb: 10.0,
        };
        assert_eq!(p.per_tb(ServiceLevel::Relaxed), 2.0);
        assert_eq!(p.per_tb(ServiceLevel::BestEffort), 1.0);
    }
}
