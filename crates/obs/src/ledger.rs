//! The economics ledger: one append-only entry per finished query tying the
//! user-facing bill to the provider-side spend.
//!
//! PixelsDB sells *flexible service levels and prices*: the user pays a
//! per-TB rate discounted by level, while the provider pays for whatever
//! resources actually ran — accepted CF/VM attempt cost (`CostBreakdown`)
//! plus speculation waste (attempts that were cancelled or crashed but still
//! billed by the cloud, `provider_cf_dollars` minus the accepted CF cost).
//! The ledger records both sides per query so revenue, cost, and margin
//! reconcile *exactly* (bit-for-bit f64) against the billing pipeline and
//! the policy core; the chaos and parity suites assert that invariant.

use crate::registry::{Gauge, MetricsRegistry};
use parking_lot::Mutex;
use pixels_common::Json;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The per-level families [`Ledger::export`] sets.
pub const ENTRIES_TOTAL: &str = "pixels_ledger_entries_total";
pub const REVENUE_DOLLARS: &str = "pixels_ledger_revenue_dollars";

/// One query's economics.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// Query id (e.g. "q-3").
    pub query: String,
    pub tenant: String,
    /// Service-level name ("immediate" / "relaxed" / "best_effort").
    pub level: String,
    /// Bytes the user was billed for (scanned bytes).
    pub bytes_billed: u64,
    /// What the user pays: `PriceSchedule::bill(level, bytes_billed)`.
    pub revenue_dollars: f64,
    /// Provider spend on accepted VM attempts.
    pub vm_dollars: f64,
    /// Provider spend on the accepted CF attempt.
    pub cf_dollars: f64,
    /// Provider CF spend across *all* attempts, including cancelled and
    /// crashed ones — always ≥ `cf_dollars`.
    pub provider_cf_dollars: f64,
    /// Provider spend on exchange spill traffic (the object-store shuffle
    /// between CF stages of a multi-stage plan). Provider-side only: spill
    /// bytes are never part of `bytes_billed`.
    pub shuffle_dollars: f64,
    /// Whether the query was degraded (e.g. CF→VM fallback).
    pub degraded: bool,
    /// Whether a speculative duplicate attempt ran.
    pub speculative: bool,
    /// When the entry was appended (clock micros of the owning domain).
    pub at_us: u64,
}

impl LedgerEntry {
    /// CF dollars burned on attempts that produced no accepted result.
    pub fn waste_dollars(&self) -> f64 {
        (self.provider_cf_dollars - self.cf_dollars).max(0.0)
    }

    /// Total provider spend: accepted VM cost, all CF attempts, and the
    /// exchange traffic of multi-stage plans.
    pub fn provider_total_dollars(&self) -> f64 {
        self.vm_dollars + self.provider_cf_dollars + self.shuffle_dollars
    }

    /// Revenue minus total provider spend.
    pub fn margin_dollars(&self) -> f64 {
        self.revenue_dollars - self.provider_total_dollars()
    }

    pub fn to_json(&self) -> Json {
        Json::object([
            ("query", Json::string(self.query.clone())),
            ("tenant", Json::string(self.tenant.clone())),
            ("level", Json::string(self.level.clone())),
            ("bytes_billed", Json::number(self.bytes_billed as f64)),
            ("revenue_dollars", Json::number(self.revenue_dollars)),
            ("vm_dollars", Json::number(self.vm_dollars)),
            ("cf_dollars", Json::number(self.cf_dollars)),
            (
                "provider_cf_dollars",
                Json::number(self.provider_cf_dollars),
            ),
            ("shuffle_dollars", Json::number(self.shuffle_dollars)),
            ("waste_dollars", Json::number(self.waste_dollars())),
            ("degraded", Json::Bool(self.degraded)),
            ("speculative", Json::Bool(self.speculative)),
            ("at_us", Json::number(self.at_us as f64)),
        ])
    }
}

/// Sums over a set of ledger entries. Sums are taken in append order, so two
/// ledgers fed the same entries in the same order agree bit-for-bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LedgerSummary {
    pub entries: u64,
    pub bytes_billed: u64,
    pub revenue_dollars: f64,
    pub vm_dollars: f64,
    pub cf_dollars: f64,
    pub provider_cf_dollars: f64,
    pub shuffle_dollars: f64,
    pub waste_dollars: f64,
    pub degraded: u64,
    pub speculative: u64,
}

impl LedgerSummary {
    fn add(&mut self, e: &LedgerEntry) {
        self.entries += 1;
        self.bytes_billed += e.bytes_billed;
        self.revenue_dollars += e.revenue_dollars;
        self.vm_dollars += e.vm_dollars;
        self.cf_dollars += e.cf_dollars;
        self.provider_cf_dollars += e.provider_cf_dollars;
        self.shuffle_dollars += e.shuffle_dollars;
        self.waste_dollars += e.waste_dollars();
        self.degraded += e.degraded as u64;
        self.speculative += e.speculative as u64;
    }

    pub fn to_json(&self) -> Json {
        Json::object([
            ("entries", Json::number(self.entries as f64)),
            ("bytes_billed", Json::number(self.bytes_billed as f64)),
            ("revenue_dollars", Json::number(self.revenue_dollars)),
            ("vm_dollars", Json::number(self.vm_dollars)),
            ("cf_dollars", Json::number(self.cf_dollars)),
            (
                "provider_cf_dollars",
                Json::number(self.provider_cf_dollars),
            ),
            ("shuffle_dollars", Json::number(self.shuffle_dollars)),
            ("waste_dollars", Json::number(self.waste_dollars)),
            ("degraded", Json::number(self.degraded as f64)),
            ("speculative", Json::number(self.speculative as f64)),
        ])
    }
}

/// The entries and their running sums, under one lock. Every sum is
/// advanced in [`Ledger::append`] — the same left fold, in append order, as a
/// rescan of `entries` — so reading a summary never grows with history and
/// stays bit-identical to that rescan.
#[derive(Default)]
struct Book {
    entries: Vec<LedgerEntry>,
    total: LedgerSummary,
    by_level: BTreeMap<String, LedgerSummary>,
    by_tenant: BTreeMap<String, LedgerSummary>,
}

/// The append-only ledger.
#[derive(Default)]
pub struct Ledger {
    book: Mutex<Book>,
    /// Tenant labels emitted by the previous [`Ledger::export_tenants`]
    /// call. Series whose tenant drops out of the top-K are zeroed on the
    /// next export — otherwise a stale gauge would keep its last value
    /// while that tenant's revenue is also folded into "other",
    /// double-counting it in the exposition.
    published_tenants: Mutex<std::collections::BTreeSet<String>>,
}

impl Ledger {
    pub fn new() -> Ledger {
        Ledger::default()
    }

    pub fn append(&self, entry: LedgerEntry) {
        let mut book = self.book.lock();
        let book = &mut *book;
        book.total.add(&entry);
        // `get_mut` first: the common append clones no key.
        for (groups, key) in [
            (&mut book.by_level, &entry.level),
            (&mut book.by_tenant, &entry.tenant),
        ] {
            match groups.get_mut(key) {
                Some(group) => group.add(&entry),
                None => groups.entry(key.clone()).or_default().add(&entry),
            }
        }
        book.entries.push(entry);
    }

    pub fn len(&self) -> usize {
        self.book.lock().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn entries(&self) -> Vec<LedgerEntry> {
        self.book.lock().entries.clone()
    }

    /// Summary over every entry, in append order.
    pub fn summary(&self) -> LedgerSummary {
        self.book.lock().total.clone()
    }

    /// Per-level summaries, in append order within each level.
    pub fn by_level(&self) -> BTreeMap<String, LedgerSummary> {
        self.book.lock().by_level.clone()
    }

    /// Per-tenant summaries, in append order within each tenant.
    pub fn by_tenant(&self) -> BTreeMap<String, LedgerSummary> {
        self.book.lock().by_tenant.clone()
    }

    /// The `GET /ledger` payload: the overall summary plus per-level and
    /// per-tenant breakdowns.
    pub fn to_json(&self) -> Json {
        let levels = Json::Object(
            self.by_level()
                .into_iter()
                .map(|(k, v)| (k, v.to_json()))
                .collect(),
        );
        let tenants = Json::Object(
            self.by_tenant()
                .into_iter()
                .map(|(k, v)| (k, v.to_json()))
                .collect(),
        );
        Json::object([
            ("summary", self.summary().to_json()),
            ("by_level", levels),
            ("by_tenant", tenants),
        ])
    }

    /// Publish to a metrics registry: a per-level entry counter plus revenue
    /// and provider-spend gauges, each set to the book's current total — an
    /// export remembers nothing, so repeated and concurrent scrapes agree.
    /// The `level="all"` and per-component series exist with zero entries too.
    pub fn export(&self, registry: &MetricsRegistry) {
        let entries = |level: &str| {
            registry.counter_with(
                ENTRIES_TOTAL,
                "Ledger entries appended (one per finished query).",
                &[("level", level)],
            )
        };
        let revenue = |level: &str| {
            registry.gauge_with(
                REVENUE_DOLLARS,
                "User revenue recorded in the ledger, by service level.",
                &[("level", level)],
            )
        };
        let mut all = 0u64;
        let mut all_revenue = 0.0f64;
        for (level, s) in &self.by_level() {
            all += s.entries;
            all_revenue += s.revenue_dollars;
            entries(level).advance_to(s.entries);
            revenue(level).set(s.revenue_dollars);
        }
        entries("all").advance_to(all);
        revenue("all").set(all_revenue);
        let total = self.summary();
        for (component, dollars) in [
            ("vm", total.vm_dollars),
            ("cf", total.cf_dollars),
            ("cf_waste", total.waste_dollars),
            ("cf_shuffle", total.shuffle_dollars),
        ] {
            Ledger::provider_gauge(registry, component).set(dollars);
        }
    }

    /// The `pixels_ledger_provider_dollars` series of one spend component.
    pub fn provider_gauge(registry: &MetricsRegistry, component: &str) -> Arc<Gauge> {
        registry.gauge_with(
            "pixels_ledger_provider_dollars",
            "Provider spend recorded in the ledger, by component.",
            &[("component", component)],
        )
    }

    /// Publish per-tenant revenue and entry-count gauges, capped at the
    /// `top_k` tenants by revenue (ties broken by name) plus one aggregate
    /// `other` bucket — so a fleet with a million tenants exports at most
    /// `top_k + 1` series per family instead of a million. Gauges, not
    /// counters: the top-K membership may change between scrapes, so series
    /// whose tenant dropped out since the last export are zeroed — a stale
    /// nonzero gauge would double-count that tenant's revenue, which is now
    /// folded into "other".
    pub fn export_tenants(&self, registry: &MetricsRegistry, top_k: usize) {
        let by_tenant = self.by_tenant();
        let mut ranked: Vec<(&String, &LedgerSummary)> = by_tenant.iter().collect();
        ranked.sort_by(|a, b| {
            b.1.revenue_dollars
                .total_cmp(&a.1.revenue_dollars)
                .then_with(|| a.0.cmp(b.0))
        });
        let mut other = LedgerSummary::default();
        let emit = |tenant: &str, s: &LedgerSummary| {
            registry
                .gauge_with(
                    "pixels_ledger_tenant_revenue_dollars",
                    "User revenue recorded in the ledger, by tenant (top-K + other).",
                    &[("tenant", tenant)],
                )
                .set(s.revenue_dollars);
            registry
                .gauge_with(
                    "pixels_ledger_tenant_entries",
                    "Ledger entries, by tenant (top-K + other).",
                    &[("tenant", tenant)],
                )
                .set(s.entries as f64);
        };
        let mut emitted = std::collections::BTreeSet::new();
        for (i, (tenant, s)) in ranked.iter().enumerate() {
            if i < top_k {
                emit(tenant, s);
                emitted.insert((*tenant).clone());
            } else {
                other.entries += s.entries;
                other.revenue_dollars += s.revenue_dollars;
            }
        }
        if ranked.len() > top_k {
            emit("other", &other);
            emitted.insert("other".to_string());
        }
        // Zero any series emitted last scrape whose tenant is no longer in
        // the top-K: its revenue now lives in "other" (or it left the
        // ledger's view entirely) and must not be counted twice.
        let mut published = self.published_tenants.lock();
        for stale in published.iter().filter(|t| !emitted.contains(*t)) {
            emit(stale, &LedgerSummary::default());
        }
        *published = emitted;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(query: &str, level: &str, revenue: f64) -> LedgerEntry {
        LedgerEntry {
            query: query.to_string(),
            tenant: "default".to_string(),
            level: level.to_string(),
            bytes_billed: 1000,
            revenue_dollars: revenue,
            vm_dollars: 0.001,
            cf_dollars: 0.002,
            provider_cf_dollars: 0.003,
            shuffle_dollars: 0.0,
            degraded: false,
            speculative: true,
            at_us: 7,
        }
    }

    #[test]
    fn waste_and_margin_derive_from_the_entry() {
        let e = entry("q-1", "relaxed", 0.5);
        assert!((e.waste_dollars() - 0.001).abs() < 1e-12);
        assert!((e.provider_total_dollars() - 0.004).abs() < 1e-12);
        assert!((e.margin_dollars() - 0.496).abs() < 1e-12);
        // Accepted cost above the all-attempts figure clamps to zero waste.
        let mut odd = e.clone();
        odd.provider_cf_dollars = 0.0;
        assert_eq!(odd.waste_dollars(), 0.0);
        // Exchange traffic is provider spend, not waste.
        let mut sh = e.clone();
        sh.shuffle_dollars = 0.01;
        assert!((sh.provider_total_dollars() - 0.014).abs() < 1e-12);
        assert!((sh.margin_dollars() - 0.486).abs() < 1e-12);
        assert!((sh.waste_dollars() - 0.001).abs() < 1e-12);
    }

    #[test]
    fn summaries_group_by_level_and_tenant() {
        let l = Ledger::new();
        l.append(entry("q-1", "immediate", 1.0));
        l.append(entry("q-2", "relaxed", 0.2));
        let mut other = entry("q-3", "relaxed", 0.3);
        other.tenant = "acme".to_string();
        l.append(other);
        let s = l.summary();
        assert_eq!(s.entries, 3);
        assert_eq!(s.speculative, 3);
        assert_eq!(s.bytes_billed, 3000);
        assert_eq!(s.revenue_dollars.to_bits(), (1.0f64 + 0.2 + 0.3).to_bits());
        let by_level = l.by_level();
        assert_eq!(by_level["relaxed"].entries, 2);
        assert_eq!(by_level["immediate"].revenue_dollars, 1.0);
        let by_tenant = l.by_tenant();
        assert_eq!(by_tenant["acme"].entries, 1);
        assert_eq!(by_tenant["default"].entries, 2);
        let json = l.to_json();
        assert_eq!(
            json.get("summary")
                .unwrap()
                .get("entries")
                .unwrap()
                .as_i64(),
            Some(3)
        );
    }

    #[test]
    fn running_sums_equal_a_rescan_bit_for_bit() {
        let l = Ledger::new();
        // Revenues whose sum depends on the order of addition.
        for (i, revenue) in [0.1, 0.2, 0.3, 1e-9, 1e9, 0.7, 1e-17].iter().enumerate() {
            let mut e = entry(&format!("q-{i}"), ["immediate", "relaxed"][i % 2], *revenue);
            e.tenant = format!("t{}", i % 3);
            e.provider_cf_dollars = 0.003 + *revenue / 7.0;
            l.append(e);
        }
        let entries = l.entries();
        let rescan = |pick: &dyn Fn(&LedgerEntry) -> bool| {
            let mut s = LedgerSummary::default();
            entries.iter().filter(|e| pick(e)).for_each(|e| s.add(e));
            s
        };
        let same = |a: &LedgerSummary, b: &LedgerSummary| {
            assert_eq!(a, b);
            for (x, y) in [
                (a.revenue_dollars, b.revenue_dollars),
                (a.provider_cf_dollars, b.provider_cf_dollars),
                (a.waste_dollars, b.waste_dollars),
            ] {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        };
        same(&l.summary(), &rescan(&|_| true));
        for (level, s) in l.by_level() {
            same(&s, &rescan(&|e| e.level == level));
        }
        let by_tenant = l.by_tenant();
        assert_eq!(by_tenant.len(), 3);
        for (tenant, s) in by_tenant {
            same(&s, &rescan(&|e| e.tenant == tenant));
        }
    }

    #[test]
    fn export_deltas_are_monotonic_and_seed_base_series() {
        let r = MetricsRegistry::new();
        let l = Ledger::new();
        l.export(&r); // empty ledger still creates families
        let text = r.render();
        assert!(text.contains("pixels_ledger_entries_total"), "{text}");
        assert!(text.contains("pixels_ledger_revenue_dollars"), "{text}");
        assert!(text.contains("pixels_ledger_provider_dollars"), "{text}");
        l.append(entry("q-1", "relaxed", 0.25));
        l.export(&r);
        l.export(&r); // re-scrape without new entries: counters must hold
        let text = r.render();
        assert!(
            text.contains("pixels_ledger_entries_total{level=\"relaxed\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("pixels_ledger_entries_total{level=\"all\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("pixels_ledger_revenue_dollars{level=\"relaxed\"} 0.25"),
            "{text}"
        );
        assert!(
            text.contains("pixels_ledger_provider_dollars{component=\"cf_waste\"} 0.001"),
            "{text}"
        );
        assert!(
            text.contains("pixels_ledger_provider_dollars{component=\"cf_shuffle\"} 0"),
            "{text}"
        );
    }

    #[test]
    fn tenant_export_caps_label_cardinality_at_top_k_plus_other() {
        let r = MetricsRegistry::new();
        let l = Ledger::new();
        // 100 tenants with distinct revenue; only the top 8 may get their
        // own series, everyone else folds into "other".
        for i in 0..100u32 {
            let mut e = entry(&format!("q-{i}"), "relaxed", (i + 1) as f64 * 0.01);
            e.tenant = format!("tenant-{i:03}");
            l.append(e);
        }
        l.export_tenants(&r, 8);
        let text = r.render();
        let series: Vec<&str> = text
            .lines()
            .filter(|line| line.starts_with("pixels_ledger_tenant_revenue_dollars{"))
            .collect();
        assert_eq!(series.len(), 9, "top-8 + other, never 100: {series:?}");
        // Highest-revenue tenant keeps its own series...
        assert!(
            text.contains("pixels_ledger_tenant_revenue_dollars{tenant=\"tenant-099\"} 1"),
            "{text}"
        );
        // ...the long tail is aggregated, losing no dollars.
        let sum: f64 = series
            .iter()
            .map(|line| line.rsplit(' ').next().unwrap().parse::<f64>().unwrap())
            .sum();
        let total: f64 = l.summary().revenue_dollars;
        assert!((sum - total).abs() < 1e-9, "export conserves revenue");
        assert!(text.contains("pixels_ledger_tenant_entries{tenant=\"other\"} 92"));
        // A small fleet exports every tenant and no "other" bucket.
        let r2 = MetricsRegistry::new();
        let small = Ledger::new();
        small.append(entry("q-1", "relaxed", 0.5));
        small.export_tenants(&r2, 8);
        let text2 = r2.render();
        assert!(text2.contains("tenant=\"default\""), "{text2}");
        assert!(!text2.contains("tenant=\"other\""), "{text2}");
    }

    #[test]
    fn tenants_dropping_out_of_top_k_are_zeroed_not_double_counted() {
        let r = MetricsRegistry::new();
        let l = Ledger::new();
        let add = |q: &str, tenant: &str, rev: f64| {
            let mut e = entry(q, "relaxed", rev);
            e.tenant = tenant.to_string();
            l.append(e);
        };
        // Scrape 1: alpha leads, beta folds into "other".
        add("q-1", "alpha", 2.0);
        add("q-2", "beta", 1.0);
        l.export_tenants(&r, 1);
        let text = r.render();
        assert!(
            text.contains("pixels_ledger_tenant_revenue_dollars{tenant=\"alpha\"} 2"),
            "{text}"
        );
        // Scrape 2: beta overtakes alpha, which now folds into "other".
        // Alpha's old series must be zeroed — keeping its last value while
        // its revenue also sits in "other" would double-count it.
        add("q-3", "beta", 5.0);
        l.export_tenants(&r, 1);
        let text = r.render();
        assert!(
            text.contains("pixels_ledger_tenant_revenue_dollars{tenant=\"alpha\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("pixels_ledger_tenant_revenue_dollars{tenant=\"beta\"} 6"),
            "{text}"
        );
        assert!(
            text.contains("pixels_ledger_tenant_revenue_dollars{tenant=\"other\"} 2"),
            "{text}"
        );
        // The exposition still conserves total revenue exactly once.
        let sum: f64 = text
            .lines()
            .filter(|line| line.starts_with("pixels_ledger_tenant_revenue_dollars{"))
            .map(|line| line.rsplit(' ').next().unwrap().parse::<f64>().unwrap())
            .sum();
        assert!((sum - l.summary().revenue_dollars).abs() < 1e-9, "{text}");
        // Same discipline on the entry-count family.
        assert!(
            text.contains("pixels_ledger_tenant_entries{tenant=\"alpha\"} 0"),
            "{text}"
        );
    }
}
