//! The process-wide metrics registry: named counters, gauges, and
//! histograms with optional labels, rendered in Prometheus text format.
//!
//! Naming convention (see DESIGN.md "Observability"): every family is
//! `pixels_<subsystem>_<what>[_<unit>][_total]`, snake_case, with base units
//! (seconds, bytes). Labels distinguish series within a family — e.g.
//! `pixels_scheduler_queue_depth{level="relaxed"}`.
//!
//! Counters are sharded across cache-line-padded atomics so the morsel
//! workers of a parallel scan never contend on one cell; gauges and
//! histogram buckets are plain atomics.
//!
//! One path to `/metrics`: a component registers its families once, at
//! construction, in a catalog struct ([`counter`](MetricsRegistry::counter) /
//! [`gauge`](MetricsRegistry::gauge) / [`histogram`](MetricsRegistry::histogram)
//! return `Arc` handles) and from then on touches the handles only — the
//! registry map and its lock are for registration and
//! [`render`](MetricsRegistry::render), never for a running query. Events are
//! [`Counter::add`]ed as they happen; a total that some other component
//! already keeps (store requests, cache hits, ledger entries) is *set* with
//! [`Counter::advance_to`] at scrape time, which is idempotent — no exporter
//! remembers what it published. Only series whose label values are known at
//! run time (level × status, tenant, fault site) are looked up by label.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

const COUNTER_SHARDS: usize = 8;

/// One cache line per shard so concurrent writers don't false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

fn shard_index() -> usize {
    // Each thread gets a sticky shard, assigned round-robin on first use.
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
    }
    SHARD.with(|s| *s)
}

/// A monotonically increasing counter, sharded for concurrent writers.
#[derive(Default)]
pub struct Counter {
    shards: [PaddedU64; COUNTER_SHARDS],
    /// The cell [`advance_to`](Counter::advance_to) raises.
    total: AtomicU64,
}

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raise the counter to `total`, the running total some other component
    /// keeps of the same quantity; a smaller `total` changes nothing, so
    /// repeated and concurrent callers publish each event once. A series
    /// fed this way has one owner: nothing else `add`s to it or advances it
    /// from a second source, or it stops equalling its source.
    pub fn advance_to(&self, total: u64) {
        self.total.fetch_max(total, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum::<u64>()
            + self.total.load(Ordering::Relaxed)
    }
}

/// A gauge: an instantaneous f64 (stored as bits in an atomic).
#[derive(Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn add(&self, delta: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A histogram over fixed upper-bound buckets (plus an implicit +Inf).
pub struct Histogram {
    bounds: Vec<f64>,
    /// One count per bound, plus the +Inf bucket at the end.
    counts: Vec<AtomicU64>,
    sum_bits: AtomicU64,
}

impl Histogram {
    /// Latency buckets in seconds: 100µs .. 5min, roughly 2.5× apart.
    pub const SECONDS_BUCKETS: &'static [f64] = &[
        0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
        5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
    ];

    fn new(bounds: &[f64]) -> Histogram {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    pub fn observe(&self, v: f64) {
        let i = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[i].fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
    }

    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Cumulative counts per bound, in bound order (excludes +Inf).
    pub fn cumulative(&self) -> Vec<(f64, u64)> {
        let mut acc = 0;
        self.bounds
            .iter()
            .zip(&self.counts)
            .map(|(&b, c)| {
                acc += c.load(Ordering::Relaxed);
                (b, acc)
            })
            .collect()
    }

    /// Estimated q-th percentile (0.0..=1.0): the upper bound of the bucket
    /// containing the nearest-rank observation. Returns 0.0 when empty;
    /// observations above the last bound report that last bound.
    pub fn percentile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        for (bound, cum) in self.cumulative() {
            if cum >= rank {
                return bound;
            }
        }
        *self.bounds.last().unwrap_or(&0.0)
    }
}

/// What kind of instrument a family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    pub fn prometheus_name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Family {
    help: String,
    kind: MetricKind,
    /// Keyed by the rendered label set (`{a="x",b="y"}` or empty).
    series: BTreeMap<String, Instrument>,
}

/// The registry: a map of metric families, each a set of labeled series.
#[derive(Default)]
pub struct MetricsRegistry {
    families: RwLock<BTreeMap<String, Family>>,
    lookups: AtomicU64,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort();
    let body: Vec<String> = sorted
        .iter()
        .map(|(k, v)| {
            // Exposition-format escaping: backslash first, then quote, then
            // newline (a raw newline would split the sample line).
            let escaped = v
                .replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n");
            format!("{k}=\"{escaped}\"")
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    pub fn shared() -> Arc<MetricsRegistry> {
        Arc::new(MetricsRegistry::new())
    }

    /// The process-wide registry.
    pub fn global() -> &'static Arc<MetricsRegistry> {
        static GLOBAL: OnceLock<Arc<MetricsRegistry>> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::shared)
    }

    fn instrument<T>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: MetricKind,
        make: impl FnOnce() -> Instrument,
        select: impl FnOnce(&Instrument) -> Option<Arc<T>>,
    ) -> Arc<T> {
        assert!(valid_name(name), "invalid metric name: {name}");
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let key = render_labels(labels);
        let mut families = self.families.write();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert_eq!(
            family.kind, kind,
            "metric {name} re-registered as a different kind"
        );
        let instrument = family.series.entry(key).or_insert_with(make);
        select(instrument).expect("family kind matches series kind")
    }

    /// How many times a series has been registered or looked up by name so
    /// far. Tests use the difference over a query to show its hot path goes
    /// through held handles only.
    #[doc(hidden)]
    pub fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Register (or fetch) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.instrument(
            name,
            help,
            labels,
            MetricKind::Counter,
            || Instrument::Counter(Arc::new(Counter::default())),
            |i| match i {
                Instrument::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.instrument(
            name,
            help,
            labels,
            MetricKind::Gauge,
            || Instrument::Gauge(Arc::new(Gauge::default())),
            |i| match i {
                Instrument::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// Register (or fetch) a histogram; `bounds` defaults to
    /// [`Histogram::SECONDS_BUCKETS`] when `None`.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: Option<&[f64]>,
    ) -> Arc<Histogram> {
        let bounds = bounds.unwrap_or(Histogram::SECONDS_BUCKETS);
        self.instrument(
            name,
            help,
            labels,
            MetricKind::Histogram,
            || Instrument::Histogram(Arc::new(Histogram::new(bounds))),
            |i| match i {
                Instrument::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// Render the whole registry in Prometheus text exposition format.
    pub fn render(&self) -> String {
        let families = self.families.read();
        let mut out = String::new();
        for (name, family) in families.iter() {
            let _ = writeln!(out, "# HELP {name} {}", family.help.replace('\n', " "));
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.prometheus_name());
            for (labels, instrument) in &family.series {
                match instrument {
                    Instrument::Counter(c) => {
                        let _ = writeln!(out, "{name}{labels} {}", c.get());
                    }
                    Instrument::Gauge(g) => {
                        let _ = writeln!(out, "{name}{labels} {}", fmt_f64(g.get()));
                    }
                    Instrument::Histogram(h) => {
                        for (bound, cum) in h.cumulative() {
                            let le = format!("le=\"{}\"", fmt_f64(bound));
                            let _ = writeln!(out, "{name}_bucket{} {cum}", merge(labels, &le));
                        }
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {}",
                            merge(labels, "le=\"+Inf\""),
                            h.count()
                        );
                        let _ = writeln!(out, "{name}_sum{labels} {}", fmt_f64(h.sum()));
                        let _ = writeln!(out, "{name}_count{labels} {}", h.count());
                    }
                }
            }
        }
        out
    }
}

/// Merge an extra label into an already-rendered label set.
fn merge(labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        format!("{{{extra}}}")
    } else {
        format!("{},{extra}}}", &labels[..labels.len() - 1])
    }
}

fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_shards_sum() {
        let c = Arc::new(Counter::default());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn advance_to_never_decreases_and_sums_with_adds() {
        let c = Counter::default();
        c.advance_to(7);
        c.advance_to(3);
        assert_eq!(c.get(), 7, "a smaller total changes nothing");
        c.advance_to(7);
        assert_eq!(c.get(), 7, "the same total twice is published once");
        c.add(5);
        c.advance_to(9);
        assert_eq!(c.get(), 14, "get() is the sharded adds plus the total");
    }

    #[test]
    fn concurrent_advance_to_ends_at_the_max() {
        let c = Counter::default();
        let gate = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let (c, gate) = (&c, &gate);
                s.spawn(move || {
                    gate.wait();
                    // Every thread walks its own interleaved totals upward
                    // and back down; the largest any of them names is 8007.
                    for i in (0..1000u64).chain((0..1000).rev()) {
                        c.advance_to(i * 8 + t + 8);
                    }
                });
            }
        });
        assert_eq!(c.get(), 999 * 8 + 7 + 8);
    }

    #[test]
    fn gauge_set_add() {
        let g = Gauge::default();
        g.set(4.0);
        g.add(1.5);
        assert!((g.get() - 5.5).abs() < 1e-12);
        g.add(-5.5);
        assert_eq!(g.get(), 0.0);
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let h = Histogram::new(&[0.01, 0.1, 1.0, 10.0]);
        for v in [0.005, 0.05, 0.05, 0.5, 5.0, 50.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert!((h.sum() - 55.605).abs() < 1e-9);
        let cum = h.cumulative();
        assert_eq!(cum, vec![(0.01, 1), (0.1, 3), (1.0, 4), (10.0, 5)]);
        assert_eq!(h.percentile(0.5), 0.1);
        assert_eq!(h.percentile(0.75), 10.0);
        // Above the last bound, the estimate saturates at the last bound.
        assert_eq!(h.percentile(1.0), 10.0);
        let empty = Histogram::new(&[1.0]);
        assert_eq!(empty.percentile(0.99), 0.0);
    }

    #[test]
    fn registry_renders_prometheus_text() {
        let r = MetricsRegistry::new();
        r.counter("pixels_queries_total", "Queries.").add(3);
        r.counter_with("pixels_queries_total", "Queries.", &[("level", "relaxed")])
            .inc();
        r.gauge_with(
            "pixels_scheduler_queue_depth",
            "Queue depth.",
            &[("level", "best_effort")],
        )
        .set(2.0);
        let h = r.histogram(
            "pixels_query_execution_seconds",
            "Execution latency.",
            &[],
            Some(&[0.1, 1.0]),
        );
        h.observe(0.05);
        h.observe(5.0);
        let text = r.render();
        assert!(
            text.contains("# TYPE pixels_queries_total counter"),
            "{text}"
        );
        assert!(text.contains("pixels_queries_total 3"), "{text}");
        assert!(
            text.contains("pixels_queries_total{level=\"relaxed\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("pixels_scheduler_queue_depth{level=\"best_effort\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("pixels_query_execution_seconds_bucket{le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("pixels_query_execution_seconds_count 2"),
            "{text}"
        );
    }

    #[test]
    fn same_series_is_shared() {
        let r = MetricsRegistry::new();
        let a = r.counter("pixels_x_total", "x");
        let b = r.counter("pixels_x_total", "x");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        // Label order does not create a new series.
        let c1 = r.counter_with("pixels_y_total", "y", &[("a", "1"), ("b", "2")]);
        let c2 = r.counter_with("pixels_y_total", "y", &[("b", "2"), ("a", "1")]);
        c1.inc();
        assert_eq!(c2.get(), 1);
    }

    #[test]
    fn label_values_escape_newlines_quotes_and_backslashes() {
        let r = MetricsRegistry::new();
        r.counter_with(
            "pixels_errors_total",
            "Errors.",
            &[("message", "line1\nline2 \"quoted\" back\\slash")],
        )
        .inc();
        let text = r.render();
        assert!(
            text.contains(r#"message="line1\nline2 \"quoted\" back\\slash""#),
            "{text}"
        );
        // The escaped newline must not split the sample line.
        let sample_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("pixels_errors_total"))
            .collect();
        assert_eq!(sample_lines.len(), 1, "{text}");
        assert!(sample_lines[0].ends_with(" 1"), "{text}");
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflict_panics() {
        let r = MetricsRegistry::new();
        r.counter("pixels_z", "z");
        r.gauge("pixels_z", "z");
    }
}
