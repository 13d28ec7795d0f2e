//! `pixels-bench` — experiment harnesses and microbenchmarks.
//!
//! Each figure/claim in EXPERIMENTS.md is regenerated by one binary in
//! `src/bin` (run with `cargo run -p pixels-bench --release --bin <id>`).
//! Criterion microbenchmarks live in `benches/`.

pub mod parity;
pub mod soak;

use pixels_catalog::{Catalog, CatalogRef};
use pixels_obs::{Ledger, MetricsRegistry, SloTracker, WallClock};
use pixels_server::{SchedulerPolicy, SharedWork, SharingConfig};
use pixels_storage::{InMemoryObjectStore, ObjectStoreRef, StoreMetricsSnapshot};
use pixels_turbo::TurboEngine;
use pixels_workload::{load_tpch, load_weblog, TpchConfig, WeblogConfig};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a gate binary reports: named checks, printed `ok   name` or
/// `FAIL name: detail`; its files under `results/` of the current
/// directory, and what differs from run to run under `target/`; and its
/// exit code, non-zero when any check failed.
#[derive(Default)]
pub struct Gate {
    failed: usize,
}

impl Gate {
    /// Print one named check; a failed one fails the gate.
    pub fn check(&mut self, name: &str, ok: bool, detail: &str) {
        if ok {
            println!("ok   {name}");
        } else {
            println!("FAIL {name}: {detail}");
            self.failed += 1;
        }
    }

    /// Write `results/<file>`: committed, so a rerun must reproduce it.
    pub fn write(&self, file: &str, contents: &str) {
        write_under("results", file, contents);
    }

    /// Write `target/<file>`: figures that differ from run to run, such as
    /// wall-clock timings, so they stay beside the build, out of `results/`.
    pub fn write_volatile(&self, file: &str, contents: &str) {
        write_under("target", file, contents);
    }

    /// Exit 1 if any check failed; otherwise print `all_clear`.
    pub fn finish(self, all_clear: &str) {
        if self.failed > 0 {
            println!("\n{} check(s) failed", self.failed);
            std::process::exit(1);
        }
        println!("\n{all_clear}");
    }
}

fn write_under(dir: &str, file: &str, contents: &str) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {dir}/: {e}"));
    let path = format!("{dir}/{file}");
    std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// Run `f` on its own thread with every VM slot of `engine` held, so the
/// CF-enabled queries it runs dispatch to CF. A CF plan that degrades to VM
/// waits for a slot, so the slots come back when the engine counts a
/// degradation, or when `f` returns. A query that wrongly waits for a slot
/// gets one after `HOLD_LIMIT` rather than never, so the caller's checks
/// fail instead of hanging.
///
/// `engine` must publish to a registry of its own
/// ([`TurboEngine::with_registry`]): a degradation another engine counts in
/// the global registry would give the slots back early.
pub fn on_cf<T: Send>(engine: &TurboEngine, f: impl FnOnce() -> T + Send) -> T {
    assert!(
        !Arc::ptr_eq(engine.registry(), MetricsRegistry::global()),
        "on_cf needs an engine with a registry of its own"
    );
    let degraded = (engine.registry()).counter("pixels_turbo_cf_degradations_total", "");
    let before = degraded.get();
    let limit = Instant::now() + HOLD_LIMIT;
    std::thread::scope(|s| {
        let run = engine.hold_slots(|| {
            let run = s.spawn(f);
            while degraded.get() == before && !run.is_finished() && Instant::now() < limit {
                std::thread::sleep(Duration::from_micros(50));
            }
            run
        });
        run.join().expect("the run on CF panicked")
    })
}

/// How long [`on_cf`] holds the slots at most: far past any dispatch
/// decision, which is all the hold has to outlast.
const HOLD_LIMIT: Duration = Duration::from_secs(30);

/// Bootstrap a demo deployment (catalog + store with TPC-H and web logs).
pub fn demo_data(scale: f64) -> (CatalogRef, ObjectStoreRef) {
    let catalog = Catalog::shared();
    let store = InMemoryObjectStore::shared();
    load_tpch(
        &catalog,
        store.as_ref(),
        "tpch",
        &TpchConfig {
            scale,
            seed: 42,
            row_group_rows: 4096,
            files_per_table: 1,
        },
    )
    .expect("load tpch");
    load_weblog(
        &catalog,
        store.as_ref(),
        "logs",
        &WeblogConfig {
            rows: ((scale * 2_000_000.0) as usize).max(2000),
            seed: 7,
            row_group_rows: 4096,
        },
    )
    .expect("load weblog");
    (catalog, store)
}

/// The families a server serves before its first query, for the `/metrics`
/// gates to require: what the engine and server catalogs register into a
/// fresh registry, plus what the scrape-time sources (store, SLO tracker,
/// ledger, shared work) export with nothing recorded.
pub fn catalog_families() -> BTreeSet<String> {
    let r = MetricsRegistry::new();
    pixels_turbo::EngineMetrics::new(&r);
    pixels_server::ServerMetrics::new(&r);
    StoreMetricsSnapshot::default().export(&r);
    let objectives = SchedulerPolicy::default().slo_objectives();
    SloTracker::new(WallClock::shared(), objectives).export(&r);
    Ledger::new().export(&r);
    SharedWork::new(SharingConfig::default()).export(&r);
    pixels_obs::validate_exposition(&r.render()).expect("the catalogs render a valid exposition")
}

/// Simple fixed-width text table printer for experiment output.
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new(headers: &[&str]) -> Self {
        TextTable {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells.to_vec());
    }

    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |ws: &[usize]| {
            let mut s = String::from("+");
            for w in ws {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s
        };
        println!("{}", line(&widths));
        let mut header = String::from("|");
        for (h, w) in self.headers.iter().zip(&widths) {
            header.push_str(&format!(" {h:<w$} |"));
        }
        println!("{header}");
        println!("{}", line(&widths));
        for row in &self.rows {
            let mut r = String::from("|");
            for (c, w) in row.iter().zip(&widths) {
                r.push_str(&format!(" {c:>w$} |"));
            }
            println!("{r}");
        }
        println!("{}", line(&widths));
    }
}

/// Render a step time-series as an ASCII strip chart (one char per bucket).
pub fn sparkline(
    series: &pixels_sim::TimeSeries,
    start: pixels_sim::SimTime,
    end: pixels_sim::SimTime,
    buckets: usize,
) -> String {
    const LEVELS: &[char] = &[' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let mut vals = Vec::with_capacity(buckets);
    let span = end.as_micros().saturating_sub(start.as_micros()).max(1);
    for b in 0..buckets {
        let t =
            pixels_sim::SimTime::from_micros(start.as_micros() + span * b as u64 / buckets as u64);
        vals.push(series.value_at(t).unwrap_or(0.0));
    }
    let max = vals.iter().cloned().fold(f64::EPSILON, f64::max);
    vals.iter()
        .map(|v| LEVELS[((v / max) * (LEVELS.len() - 1) as f64).round() as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixels_sim::{SimTime, TimeSeries};

    #[test]
    fn table_prints_aligned() {
        let mut t = TextTable::new(&["a", "metric"]);
        t.row(&["1".into(), "2.50".into()]);
        t.print();
    }

    #[test]
    fn sparkline_scales() {
        let mut s = TimeSeries::new();
        s.record(SimTime::ZERO, 0.0);
        s.record(SimTime::from_secs(50), 10.0);
        let line = sparkline(&s, SimTime::ZERO, SimTime::from_secs(100), 10);
        assert_eq!(line.chars().count(), 10);
        assert!(line.ends_with('█'));
    }

    #[test]
    fn demo_data_loads() {
        let (catalog, _) = demo_data(0.0005);
        assert!(catalog.has_database("tpch"));
        assert!(catalog.has_database("logs"));
    }
}
