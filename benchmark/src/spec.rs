//! What the benchmark runs and what it reports: the four workloads, the
//! end-to-end metrics with their regression bounds, and the per-layer
//! metrics. `BENCHMARK.json` is generated from these tables (`manifest`
//! subcommand), so the two cannot drift apart.

use pixels_server::SchedulerPolicy;
use pixels_sim::SimDuration;
use pixels_storage::LatencyModel;
use pixels_turbo::EngineConfig;

/// Closed-loop client threads, one connection in flight each (= `nproc` of
/// the reference box). Client `i` submits as tenant `t<i>`.
pub const CLIENTS: usize = 2;

/// Queries at the head of each client's stream that warm the deployment and
/// are not measured.
pub const WARMUP_PER_CLIENT: usize = 24;

/// Seconds one run measures when `--seconds` is not given; also
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_WINDOW_S: u64 = 15;

/// Fewest measured queries a workload may finish: p95 then has ten samples
/// beyond it.
pub const MIN_MEASURED: usize = 200;

/// Largest share of the process's CPU the load generator may use.
pub const MAX_CLIENT_CPU_FRACTION: f64 = 0.25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    Immediate,
    Relaxed,
    BestEffort,
}

impl Level {
    /// The level's name on the wire (`"level"` of `POST /queries`).
    pub fn wire_name(self) -> &'static str {
        match self {
            Level::Immediate => "immediate",
            Level::Relaxed => "relaxed",
            Level::BestEffort => "best-of-effort",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Heavy,
    Light,
    Mixed,
}

const ALL_IMMEDIATE: &[Level] = &[Level::Immediate];
/// 60 % immediate, 30 % relaxed, 10 % best-of-effort.
const MIXED_LEVELS: &[Level] = &[
    Level::Immediate,
    Level::Immediate,
    Level::Immediate,
    Level::Immediate,
    Level::Immediate,
    Level::Immediate,
    Level::Relaxed,
    Level::Relaxed,
    Level::Relaxed,
    Level::BestEffort,
];

pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why this workload exists.
    pub why: &'static str,
    pub tpch_scale: f64,
    pub log_rows: usize,
    pub engine: fn() -> EngineConfig,
    /// `None` keeps `SchedulerPolicy::default()`.
    pub scheduler: Option<fn() -> SchedulerPolicy>,
    /// Sleep injected by the store wrapper per get/get_range/put.
    pub store_latency: Option<LatencyModel>,
    pub mix: Mix,
    pub levels: &'static [Level],
    /// One iteration in ten goes through `POST /translate` first.
    pub translate: bool,
    /// Client `t0` scrapes `GET /metrics` every this many of its queries.
    pub scrape_every: Option<usize>,
}

fn one_slot_cost_based_shuffle() -> EngineConfig {
    EngineConfig {
        vm_slots: 1,
        exchange_partitions: 0,
        ..EngineConfig::default()
    }
}

fn one_slot_small_cache() -> EngineConfig {
    EngineConfig {
        chunk_cache_bytes: 2 << 20,
        ..one_slot_cost_based_shuffle()
    }
}

fn short_grace() -> SchedulerPolicy {
    SchedulerPolicy {
        grace: SimDuration::from_secs(2),
        besteffort_max_wait: SimDuration::from_secs(5),
    }
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "scan_heavy",
        why: "TPC-H/log scans, joins and aggregates on cache-resident data, 4 slots never saturated: CPU-bound in exec and storage decode",
        tpch_scale: 0.05,
        log_rows: 100_000,
        engine: EngineConfig::default,
        scheduler: None,
        store_latency: None,
        mix: Mix::Heavy,
        levels: ALL_IMMEDIATE,
        translate: false,
        scrape_every: None,
    },
    WorkloadSpec {
        name: "lookup_light",
        why: "sub-millisecond lookups plus translate and /metrics scrapes: server, sql, planner, obs and nl2sql do the work, exec almost none",
        tpch_scale: 0.05,
        log_rows: 100_000,
        engine: EngineConfig::default,
        scheduler: None,
        store_latency: None,
        mix: Mix::Light,
        levels: ALL_IMMEDIATE,
        translate: true,
        scrape_every: Some(250),
    },
    WorkloadSpec {
        name: "overload_mixed",
        why: "two clients on one VM slot with mixed service levels: a permanent spike that exercises CF split, shuffle writes and the fair queue",
        tpch_scale: 0.05,
        log_rows: 100_000,
        engine: one_slot_cost_based_shuffle,
        scheduler: Some(short_grace),
        store_latency: None,
        mix: Mix::Mixed,
        levels: MIXED_LEVELS,
        translate: false,
        scrape_every: None,
    },
    WorkloadSpec {
        name: "remote_cold",
        why: "heavy queries over a store that sleeps per request with a 2 MiB chunk cache: larger than cache and bound by object-store request latency",
        tpch_scale: 0.02,
        log_rows: 40_000,
        engine: one_slot_small_cache,
        scheduler: None,
        store_latency: Some(LatencyModel {
            per_request_us: 500,
            per_mb_us: 11_000,
        }),
        mix: Mix::Heavy,
        levels: ALL_IMMEDIATE,
        translate: false,
        scrape_every: None,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    ///
    /// Sized from ten-seed runs on the 2-core reference box, whose speed
    /// wanders for minutes at a time: between the quartiles of ten
    /// `scan_heavy` runs lay up to 17 % of the median `qps`, 21 % of
    /// `latency_p95_ms`, 18 % of `cpu_s_per_kq` and 9 % of `latency_p50_ms`
    /// (5 %, 6 %, 7 % and 2 % in a calm spell). A bound must clear the
    /// spread, so everything timed gets the widest bound a manifest may
    /// carry; dollars billed are averaged over whole stream blocks and
    /// repeat to 0.03 %.
    pub bound: f64,
}

/// `failed_fraction` is the ninth end-to-end metric. Its bound is absolute
/// (any increase regresses) and its value is 0 on a healthy run, so it cannot
/// carry a relative bound in `BENCHMARK.json`; there it travels as the
/// `failed` / `attempted` keys of the result line.
pub const FAILED_FRACTION: &str = "failed_fraction";

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "qps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s_per_kq",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "billed_usd_per_kq",
        unit: "usd",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "provider_usd_per_kq",
        unit: "usd",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    /// `layer.metric`; the layer is a crate name (or `bench` for the
    /// benchmark's own honesty checks).
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // server: http + api + fair + shared
    lower("server.http_post_p50_ms", "ms"),
    lower("server.http_get_p50_ms", "ms"),
    lower("server.polls_per_query", "count"),
    lower("server.http_health_p50_ms", "ms"),
    lower("server.status_payload_bytes_p50", "bytes"),
    lower("server.pending_p50_ms", "ms"),
    lower("server.pending_p95_ms", "ms"),
    lower("server.queued_fraction", "ratio"),
    lower("server.forced_fraction", "ratio"),
    lower("server.immediate_latency_vs_p50", "ratio"),
    lower("server.relaxed_latency_vs_p50", "ratio"),
    lower("server.besteffort_latency_vs_p50", "ratio"),
    lower("server.latency_p99_vs_p50", "ratio"),
    lower("server.inproc_p50_us", "us"),
    lower("server.overhead_p50_us", "us"),
    lower("server.shared_hit_p50_us", "us"),
    lower("server.shared_exec_p50_us", "us"),
    lower("server.threads_peak", "count"),
    lower("server.rss_growth_mb_per_kq", "MiB"),
    // turbo
    lower("turbo.execution_p50_ms", "ms"),
    lower("turbo.execution_p95_ms", "ms"),
    lower("turbo.cf_fraction", "ratio"),
    lower("turbo.shuffle_fraction", "ratio"),
    lower("turbo.cf_vs_vm_execution_p50", "ratio"),
    lower("turbo.exchange_bytes_per_kq", "bytes"),
    lower("turbo.recovery_events", "count"),
    lower("turbo.provider_vm_usd_per_kq", "usd"),
    lower("turbo.provider_cf_usd_per_kq", "usd"),
    lower("turbo.provider_shuffle_usd_per_kq", "usd"),
    lower("turbo.execute_sql_p50_us", "us"),
    lower("turbo.overhead_p50_us", "us"),
    lower("turbo.estimate_work_p50_us", "us"),
    // sql, planner
    lower("sql.parse_p50_us", "us"),
    lower("planner.bind_p50_us", "us"),
    lower("planner.optimize_p50_us", "us"),
    lower("planner.physical_p50_us", "us"),
    lower("planner.plan_total_p50_us", "us"),
    lower("planner.split_p50_us", "us"),
    // exec
    lower("exec.execute_p50_us", "us"),
    lower("exec.self_p50_us", "us"),
    higher("exec.rows_per_s", "1/s"),
    lower("exec.rows_scanned_per_q", "count"),
    lower("exec.bytes_scanned_per_q", "bytes"),
    lower("exec.row_groups_read_fraction", "ratio"),
    // storage
    lower("storage.get_requests_per_q", "count"),
    lower("storage.get_bytes_per_q", "bytes"),
    lower("storage.put_requests_per_q", "count"),
    lower("storage.get_busy_fraction", "ratio"),
    higher("storage.chunk_cache_hit_fraction", "ratio"),
    higher("storage.footer_cache_hits_per_q", "count"),
    higher("storage.prefetch_hit_fraction", "ratio"),
    lower("storage.prefetch_wasted_per_kq", "count"),
    lower("storage.open_cold_p50_us", "us"),
    lower("storage.open_warm_p50_us", "us"),
    lower("storage.read_row_group_p50_us", "us"),
    higher("storage.write_mb_per_s", "MiB/s"),
    lower("storage.stored_mb", "MiB"),
    // obs
    lower("obs.metrics_render_ms_end", "ms"),
    lower("obs.metrics_bytes", "bytes"),
    lower("obs.ledger_json_ms_end", "ms"),
    lower("obs.scrape_http_p50_ms", "ms"),
    lower("obs.journal_bytes_per_q", "bytes"),
    lower("obs.profile_bytes_p50", "bytes"),
    // nl2sql
    lower("nl2sql.translate_http_p50_ms", "ms"),
    lower("nl2sql.translate_p50_us", "us"),
    higher("nl2sql.exact_match_fraction", "ratio"),
    // the benchmark's own honesty checks
    lower("bench.failed_fraction", "ratio"),
    lower("bench.trace_overhead_fraction", "ratio"),
    lower("bench.client_cpu_fraction", "ratio"),
    lower("bench.host_reference_ms", "ms"),
    lower("bench.stream_fingerprint", "id"),
    lower("bench.dataset_fingerprint", "id"),
];

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {DEFAULT_WINDOW_S},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.name(),
            m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.name()
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let units = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in units {
            assert!(name_ok(name) && seen.insert(name), "{name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{name}: {unit}"
            );
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Better::Lower)
        );
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.bound <= setup.bound, "setup_s has the largest bound");
        }
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest(), "regenerate with `manifest`");
        assert!(pixels_common::Json::parse(&committed).is_ok());
    }
}
