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

    /// How long the query runs with `cores` cores to itself: its CPU time
    /// over `min(cores, parallelism)`, rounded up to the whole microsecond
    /// ([`run_time`]). This is the solo case of the VM cluster's processor
    /// sharing, which completes a lone query at exactly this instant, so
    /// deadline admission and the live straggler watchdog estimate with the
    /// law the cluster runs by. No cores: it never finishes.
    pub fn exec_time_on_cores(&self, cores: u32) -> SimDuration {
        run_time(self.cpu_seconds, cores.min(self.parallelism) as f64)
    }
}

/// Time to burn `cpu_seconds` of reference-core work at `rate` cores,
/// rounded up to the next whole microsecond (never, at rate 0).
pub(crate) fn run_time(cpu_seconds: f64, rate: f64) -> SimDuration {
    SimDuration::from_micros((cpu_seconds / rate * 1e6).ceil() as u64)
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
        let t1 = w.exec_time_on_cores(1);
        let t8 = w.exec_time_on_cores(8);
        let t16 = w.exec_time_on_cores(16);
        let t64 = w.exec_time_on_cores(64);
        assert!(t8 < t1);
        assert!(t16 < t8);
        // Parallelism capped at 16: more cores don't help.
        assert_eq!(t16, t64);
    }

    #[test]
    fn exec_time_is_cpu_over_usable_cores_to_the_microsecond() {
        let w = QueryWork::from_class(QueryClass::Heavy);
        // 220 CPU-seconds: 27.5 s on one 8-core worker, 3.4375 s on 64 of
        // 96 cores (parallelism 64 caps it).
        assert_eq!(
            w.exec_time_on_cores(8),
            SimDuration::from_micros(27_500_000)
        );
        assert_eq!(
            w.exec_time_on_cores(96),
            SimDuration::from_micros(3_437_500)
        );
        // 1 CPU-second on 3 cores is 333,333.3 µs: rounded up.
        let third = QueryWork {
            scan_bytes: 0,
            cpu_seconds: 1.0,
            parallelism: 3,
        };
        assert_eq!(
            third.exec_time_on_cores(8),
            SimDuration::from_micros(333_334)
        );
        assert_eq!(third.exec_time_on_cores(0).as_micros(), u64::MAX);
    }
}
