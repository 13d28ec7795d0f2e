//! The query cost model shared by the scheduler and the simulator.
//!
//! A query's *work* is summarized by the bytes it scans from object storage,
//! the single-core CPU time it needs, and the maximum parallelism it can
//! exploit. Work is derived from a plan's estimates (real queries)
//! or from a size class (synthetic scheduling traces).

use pixels_planner::Plan;
use pixels_sim::SimDuration;
use pixels_workload::QueryClass;

/// Resource demand of one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryWork {
    /// Bytes the query reads from object storage (the billed quantity).
    pub scan_bytes: u64,
    /// Total CPU seconds on a single reference core.
    pub cpu_seconds: f64,
    /// Maximum cores the query can usefully occupy (≈ number of
    /// independently scannable partitions).
    pub parallelism: u32,
}

impl QueryWork {
    /// Calibration constants for the reference core: how fast one core chews
    /// through scanned bytes (decompression + predicate + join work).
    /// 200 MB/s of effective scan throughput per core is in line with
    /// columnar engines on cloud VMs.
    pub const BYTES_PER_CPU_SECOND: f64 = 200e6;

    /// Work derived from a plan using planner estimates.
    pub fn from_plan(plan: &Plan) -> QueryWork {
        let est = plan.estimate();
        let cpu_from_bytes = est.scan_bytes as f64 / Self::BYTES_PER_CPU_SECOND;
        // CPU work units (rows touched) at ~10M rows/s/core.
        let cpu_from_rows = est.cpu_work / 10e6;
        QueryWork {
            scan_bytes: est.scan_bytes,
            cpu_seconds: (cpu_from_bytes + cpu_from_rows).max(0.01),
            parallelism: ((est.scan_bytes / (64 << 20)) as u32).clamp(1, 256),
        }
    }

    /// Canonical work for a synthetic size class. Values represent a
    /// mid-size cloud warehouse: light ≈ dashboard lookup, medium ≈
    /// single-table aggregation over a few GB, heavy ≈ multi-join query
    /// over tens of GB.
    pub fn from_class(class: QueryClass) -> QueryWork {
        match class {
            QueryClass::Light => QueryWork {
                scan_bytes: 100 << 20, // 100 MiB
                cpu_seconds: 0.6,
                parallelism: 2,
            },
            QueryClass::Medium => QueryWork {
                scan_bytes: 4 << 30, // 4 GiB
                cpu_seconds: 22.0,
                parallelism: 16,
            },
            QueryClass::Heavy => QueryWork {
                scan_bytes: 40u64 << 30, // 40 GiB
                cpu_seconds: 220.0,
                parallelism: 64,
            },
        }
    }

    /// Per-stage work of a two-stage exchange plan derived from the full
    /// plan's work. Stage 0 (scan + partial operator + spill) carries the
    /// whole scan and the bulk of the CPU; stage 1 (read partitions +
    /// finish + materialize) reads only combined intermediates — no billed
    /// scan bytes and a quarter of the CPU. Both the real engine and the
    /// simulator derive stage attempt costs from this same split, so staged
    /// provider dollars agree bit-for-bit.
    pub fn stage_works(&self) -> [QueryWork; 2] {
        [
            *self,
            QueryWork {
                scan_bytes: 0,
                cpu_seconds: (self.cpu_seconds * 0.25).max(0.01),
                parallelism: self.parallelism,
            },
        ]
    }

    /// Ideal execution time when `cores` cores are dedicated to the query,
    /// with a small non-parallelizable fraction (Amdahl).
    pub fn exec_time_on_cores(&self, cores: f64) -> SimDuration {
        const SERIAL_FRACTION: f64 = 0.05;
        let effective = cores.min(self.parallelism as f64).max(0.01);
        let t = self.cpu_seconds * SERIAL_FRACTION
            + self.cpu_seconds * (1.0 - SERIAL_FRACTION) / effective;
        SimDuration::from_secs_f64(t)
    }

    /// Execution time with the query's own parallelism in cores: the solo
    /// estimate deadline admission checks a target against, and how long
    /// the soak's analytic fleet runs a query.
    pub fn solo_exec_time(&self) -> SimDuration {
        self.exec_time_on_cores(self.parallelism as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_work_is_ordered() {
        let l = QueryWork::from_class(QueryClass::Light);
        let m = QueryWork::from_class(QueryClass::Medium);
        let h = QueryWork::from_class(QueryClass::Heavy);
        assert!(l.scan_bytes < m.scan_bytes && m.scan_bytes < h.scan_bytes);
        assert!(l.cpu_seconds < m.cpu_seconds && m.cpu_seconds < h.cpu_seconds);
    }

    #[test]
    fn more_cores_is_faster_until_parallelism_cap() {
        let w = QueryWork::from_class(QueryClass::Medium);
        let t1 = w.exec_time_on_cores(1.0);
        let t8 = w.exec_time_on_cores(8.0);
        let t16 = w.exec_time_on_cores(16.0);
        let t64 = w.exec_time_on_cores(64.0);
        assert!(t8 < t1);
        assert!(t16 < t8);
        // Parallelism capped at 16: more cores don't help.
        assert_eq!(t16, t64);
    }

    #[test]
    fn amdahl_floor() {
        let w = QueryWork {
            scan_bytes: 0,
            cpu_seconds: 100.0,
            parallelism: 1000,
        };
        let t = w.exec_time_on_cores(1e9);
        assert!(
            t >= SimDuration::from_secs(5),
            "serial fraction dominates: {t}"
        );
    }
}
