//! The structured query journal: one JSON-lines lifecycle record per
//! terminal query.
//!
//! Every query that reaches a terminal state appends exactly one
//! [`JournalEntry`] capturing what the scheduler decided (admission, policy
//! decisions, retries), what it cost (the ledger figures), and how it scored
//! against its SLO. The journal is the system of record the registry is a
//! *view* of: [`replay`] recomputes the aggregate metrics from the journal
//! alone, and [`ReplayAggregates::diff_against_exposition`] diffs them
//! against a live `/metrics` scrape — any mismatch means a query bypassed
//! the journal or the metrics pipeline double-counted.

use crate::ledger::{self, LedgerEntry, LedgerSummary};
use crate::slo;
use parking_lot::Mutex;
use pixels_common::{Error, Json, Result};
use std::collections::BTreeMap;

/// The family of terminal queries per level × status, which the query server
/// counts as it appends here and [`replay`] reproduces.
pub const QUERIES_TOTAL: &str = "pixels_queries_total";

/// One terminal query's lifecycle record.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    pub query: String,
    pub tenant: String,
    pub level: String,
    /// Terminal status: "finished" or "failed".
    pub status: String,
    /// How the scheduler admitted the query: "dispatch_now", "queued", or
    /// "forced" (queued past its deadline and force-started).
    pub admission: String,
    /// Policy-core decisions taken during execution, rendered as text.
    pub decisions: Vec<String>,
    pub retries: u64,
    pub pending_us: u64,
    pub execution_us: u64,
    pub scan_bytes: u64,
    pub revenue_dollars: f64,
    pub vm_dollars: f64,
    pub cf_dollars: f64,
    pub provider_cf_dollars: f64,
    /// Provider cost of exchange spill traffic (multi-stage CF plans).
    pub shuffle_dollars: f64,
    pub used_cf: bool,
    pub degraded: bool,
    pub speculative: bool,
    /// Whether the query met its service-level objective.
    pub slo_good: bool,
    /// The objective it was judged against (0 when the level has none).
    pub slo_threshold_us: u64,
    /// Spans in the query's trace (0 when tracing was off).
    pub trace_spans: u64,
    pub at_us: u64,
}

impl JournalEntry {
    pub fn to_json(&self) -> Json {
        Json::object([
            ("query", Json::string(self.query.clone())),
            ("tenant", Json::string(self.tenant.clone())),
            ("level", Json::string(self.level.clone())),
            ("status", Json::string(self.status.clone())),
            ("admission", Json::string(self.admission.clone())),
            (
                "decisions",
                Json::array(self.decisions.iter().map(|d| Json::string(d.clone()))),
            ),
            ("retries", Json::number(self.retries as f64)),
            ("pending_us", Json::number(self.pending_us as f64)),
            ("execution_us", Json::number(self.execution_us as f64)),
            ("scan_bytes", Json::number(self.scan_bytes as f64)),
            ("revenue_dollars", Json::number(self.revenue_dollars)),
            ("vm_dollars", Json::number(self.vm_dollars)),
            ("cf_dollars", Json::number(self.cf_dollars)),
            (
                "provider_cf_dollars",
                Json::number(self.provider_cf_dollars),
            ),
            ("shuffle_dollars", Json::number(self.shuffle_dollars)),
            ("used_cf", Json::Bool(self.used_cf)),
            ("degraded", Json::Bool(self.degraded)),
            ("speculative", Json::Bool(self.speculative)),
            ("slo_good", Json::Bool(self.slo_good)),
            (
                "slo_threshold_us",
                Json::number(self.slo_threshold_us as f64),
            ),
            ("trace_spans", Json::number(self.trace_spans as f64)),
            ("at_us", Json::number(self.at_us as f64)),
        ])
    }

    pub fn from_json(json: &Json) -> Result<JournalEntry> {
        fn field<T>(json: &Json, key: &str, what: &str, read: fn(&Json) -> Option<T>) -> Result<T> {
            let value = read(json.get_or_err(key)?);
            value.ok_or_else(|| Error::Invalid(format!("journal field {key}: expected {what}")))
        }
        let s = |key| field(json, key, "string", |v| v.as_str().map(str::to_string));
        let u = |key| {
            field(json, key, "number", |v| {
                v.as_f64().filter(|v| *v >= 0.0).map(|v| v as u64)
            })
        };
        let f = |key| field(json, key, "number", Json::as_f64);
        let b = |key| field(json, key, "bool", Json::as_bool);
        let decisions = json
            .get_or_err("decisions")?
            .as_array()
            .ok_or_else(|| Error::Invalid("journal field decisions: expected array".into()))?
            .iter()
            .map(|d| {
                d.as_str().map(str::to_string).ok_or_else(|| {
                    Error::Invalid("journal field decisions: expected strings".into())
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(JournalEntry {
            query: s("query")?,
            tenant: s("tenant")?,
            level: s("level")?,
            status: s("status")?,
            admission: s("admission")?,
            decisions,
            retries: u("retries")?,
            pending_us: u("pending_us")?,
            execution_us: u("execution_us")?,
            scan_bytes: u("scan_bytes")?,
            revenue_dollars: f("revenue_dollars")?,
            vm_dollars: f("vm_dollars")?,
            cf_dollars: f("cf_dollars")?,
            provider_cf_dollars: f("provider_cf_dollars")?,
            shuffle_dollars: f("shuffle_dollars")?,
            used_cf: b("used_cf")?,
            degraded: b("degraded")?,
            speculative: b("speculative")?,
            slo_good: b("slo_good")?,
            slo_threshold_us: u("slo_threshold_us")?,
            trace_spans: u("trace_spans")?,
            at_us: u("at_us")?,
        })
    }

    /// The ledger entry of this query once finished: the journal's own
    /// figures, so replaying the journal reproduces the ledger's sums.
    pub fn ledger_entry(&self) -> LedgerEntry {
        LedgerEntry {
            query: self.query.clone(),
            tenant: self.tenant.clone(),
            level: self.level.clone(),
            bytes_billed: self.scan_bytes,
            revenue_dollars: self.revenue_dollars,
            vm_dollars: self.vm_dollars,
            cf_dollars: self.cf_dollars,
            provider_cf_dollars: self.provider_cf_dollars,
            shuffle_dollars: self.shuffle_dollars,
            degraded: self.degraded,
            speculative: self.speculative,
            at_us: self.at_us,
        }
    }
}

/// The append-only journal.
#[derive(Default)]
pub struct QueryJournal {
    entries: Mutex<Vec<JournalEntry>>,
}

impl QueryJournal {
    pub fn new() -> QueryJournal {
        QueryJournal::default()
    }

    pub fn append(&self, entry: JournalEntry) {
        self.entries.lock().push(entry);
    }

    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn entries(&self) -> Vec<JournalEntry> {
        self.entries.lock().clone()
    }

    /// The `GET /journal` payload: one compact JSON object per line.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.entries.lock().iter() {
            out.push_str(&e.to_json().to_compact_string());
            out.push('\n');
        }
        out
    }

    /// Parse a JSON-lines journal back into entries (blank lines skipped).
    pub fn parse_jsonl(text: &str) -> Result<Vec<JournalEntry>> {
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| JournalEntry::from_json(&Json::parse(l)?))
            .collect()
    }
}

/// Aggregates recomputed from journal entries alone — the journal-side half
/// of the registry diff.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayAggregates {
    /// (level, status) → query count; mirrors `pixels_queries_total`.
    pub queries: BTreeMap<(String, String), u64>,
    /// level → good events; mirrors `pixels_slo_good_total`.
    pub slo_good: BTreeMap<String, u64>,
    /// level → violations; mirrors `pixels_slo_violation_total`.
    pub slo_violation: BTreeMap<String, u64>,
    /// level → ledger entries (finished queries only); mirrors
    /// `pixels_ledger_entries_total`.
    pub ledger_entries: BTreeMap<String, u64>,
    /// level → revenue, summed in journal order; mirrors
    /// `pixels_ledger_revenue_dollars`.
    pub revenue_dollars: BTreeMap<String, f64>,
    /// The finished queries' ledger figures, summed in journal order; its
    /// provider components mirror `pixels_ledger_provider_dollars`.
    pub finished: LedgerSummary,
}

/// Recompute registry aggregates from journal entries. Dollars are summed
/// in journal order, which is ledger append order, so the result matches
/// the ledger bit-for-bit.
pub fn replay(entries: &[JournalEntry]) -> ReplayAggregates {
    let mut agg = ReplayAggregates::default();
    for e in entries {
        *agg.queries
            .entry((e.level.clone(), e.status.clone()))
            .or_insert(0) += 1;
        let slo_bucket = if e.slo_good {
            &mut agg.slo_good
        } else {
            &mut agg.slo_violation
        };
        *slo_bucket.entry(e.level.clone()).or_insert(0) += 1;
        if e.status == "finished" {
            *agg.ledger_entries.entry(e.level.clone()).or_insert(0) += 1;
            *agg.revenue_dollars.entry(e.level.clone()).or_insert(0.0) += e.revenue_dollars;
            agg.finished.add(&e.ledger_entry());
        }
    }
    agg
}

/// Every sample of one metric family in a rendered exposition, as
/// (label map, value) pairs. Assumes registry-rendered text (labels contain
/// no escapes — true for every family the replay checks).
fn family_samples(text: &str, family: &str) -> Vec<(BTreeMap<String, String>, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(family) else {
            continue;
        };
        let (labels_part, value_part) = if let Some(rest) = rest.strip_prefix('{') {
            match rest.split_once('}') {
                Some((l, v)) => (l, v),
                None => continue,
            }
        } else if rest.starts_with(' ') {
            ("", rest)
        } else {
            continue; // longer family name sharing this prefix
        };
        let Ok(value) = value_part.trim().parse::<f64>() else {
            continue;
        };
        let mut labels = BTreeMap::new();
        for pair in labels_part.split(',').filter(|p| !p.is_empty()) {
            if let Some((k, v)) = pair.split_once('=') {
                labels.insert(k.to_string(), v.trim_matches('"').to_string());
            }
        }
        out.push((labels, value));
    }
    out
}

impl ReplayAggregates {
    /// Diff these journal-derived aggregates against a `/metrics` scrape.
    /// Returns one human-readable line per mismatch; empty means the journal
    /// reproduces the registry exactly. Counters compare as integers,
    /// dollars bit-for-bit.
    pub fn diff_against_exposition(&self, text: &str) -> Vec<String> {
        let mut diffs = Vec::new();
        let mut check_counts = |family: &str,
                                label_of: &dyn Fn(&BTreeMap<String, String>) -> Option<String>,
                                expected: &BTreeMap<String, u64>| {
            let mut seen: BTreeMap<String, u64> = BTreeMap::new();
            for (labels, value) in family_samples(text, family) {
                let Some(key) = label_of(&labels) else {
                    continue;
                };
                seen.insert(key, value as u64);
            }
            for (key, want) in expected {
                match seen.get(key) {
                    Some(got) if got == want => {}
                    Some(got) => diffs.push(format!(
                        "{family}[{key}]: journal says {want}, registry says {got}"
                    )),
                    None => diffs.push(format!(
                        "{family}[{key}]: journal says {want}, registry has no series"
                    )),
                }
            }
            for (key, got) in &seen {
                if !expected.contains_key(key) && *got != 0 {
                    diffs.push(format!(
                        "{family}[{key}]: registry says {got}, journal has no entries"
                    ));
                }
            }
        };
        let by_level_status = |labels: &BTreeMap<String, String>| -> Option<String> {
            Some(format!(
                "{}/{}",
                labels.get("level")?,
                labels.get("status")?
            ))
        };
        let by_level = |labels: &BTreeMap<String, String>| -> Option<String> {
            let level = labels.get("level")?;
            (level != "all").then(|| level.clone())
        };
        let queries: BTreeMap<String, u64> = self
            .queries
            .iter()
            .map(|((l, s), n)| (format!("{l}/{s}"), *n))
            .collect();
        check_counts(QUERIES_TOTAL, &by_level_status, &queries);
        check_counts(slo::GOOD_TOTAL, &by_level, &self.slo_good);
        check_counts(slo::VIOLATION_TOTAL, &by_level, &self.slo_violation);
        check_counts(ledger::ENTRIES_TOTAL, &by_level, &self.ledger_entries);
        // Revenue gauges: bit-for-bit. The "all" series folds the per-level
        // sums in sorted level order — replicate that fold here.
        let mut want_revenue = self.revenue_dollars.clone();
        want_revenue.insert("all".into(), self.revenue_dollars.values().sum());
        for (labels, got) in family_samples(text, ledger::REVENUE_DOLLARS) {
            let Some(level) = labels.get("level") else {
                continue;
            };
            let want = want_revenue.get(level).copied().unwrap_or(0.0);
            if got.to_bits() != want.to_bits() {
                diffs.push(format!(
                    "{}[{level}]: journal says {want}, registry says {got}",
                    ledger::REVENUE_DOLLARS
                ));
            }
        }
        // Provider spend: every component, bit-for-bit.
        let provider = family_samples(text, ledger::PROVIDER_DOLLARS);
        for (component, want) in self.finished.provider_components() {
            let got = provider
                .iter()
                .find(|(labels, _)| labels.get("component").is_some_and(|c| c == component))
                .map(|(_, v)| *v);
            if got.map(f64::to_bits) != Some(want.to_bits()) {
                diffs.push(format!(
                    "{}[{component}]: journal says {want}, registry says {got:?}",
                    ledger::PROVIDER_DOLLARS
                ));
            }
        }
        diffs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(level: &str, status: &str, slo_good: bool, revenue: f64) -> JournalEntry {
        JournalEntry {
            query: "q-1".into(),
            tenant: "default".into(),
            level: level.into(),
            status: status.into(),
            admission: "queued".into(),
            decisions: vec!["dispatch cf".into()],
            retries: 1,
            pending_us: 42,
            execution_us: 1000,
            scan_bytes: 4096,
            revenue_dollars: revenue,
            vm_dollars: 0.0,
            cf_dollars: 0.001,
            provider_cf_dollars: 0.001,
            shuffle_dollars: 0.0,
            used_cf: true,
            degraded: false,
            speculative: false,
            slo_good,
            slo_threshold_us: 300_000_000,
            trace_spans: 5,
            at_us: 99,
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let j = QueryJournal::new();
        j.append(entry("relaxed", "finished", true, 0.25));
        j.append(entry("immediate", "failed", false, 0.0));
        let text = j.render_jsonl();
        assert_eq!(text.lines().count(), 2);
        let parsed = QueryJournal::parse_jsonl(&text).unwrap();
        assert_eq!(parsed, j.entries());
    }

    #[test]
    fn replay_aggregates_by_level_status_and_slo() {
        let entries = vec![
            entry("relaxed", "finished", true, 0.1),
            entry("relaxed", "finished", false, 0.2),
            entry("relaxed", "failed", false, 0.0),
            entry("immediate", "finished", true, 1.0),
        ];
        let agg = replay(&entries);
        assert_eq!(agg.queries[&("relaxed".into(), "finished".into())], 2);
        assert_eq!(agg.queries[&("relaxed".into(), "failed".into())], 1);
        assert_eq!(agg.slo_good["relaxed"], 1);
        assert_eq!(agg.slo_violation["relaxed"], 2);
        assert_eq!(agg.ledger_entries["relaxed"], 2, "failed ⇒ no ledger entry");
        assert_eq!(
            agg.revenue_dollars["relaxed"].to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
    }

    #[test]
    fn diff_catches_registry_drift() {
        let entries = vec![entry("relaxed", "finished", true, 0.25)];
        let agg = replay(&entries);
        let good = "pixels_queries_total{level=\"relaxed\",status=\"finished\"} 1\n\
                    pixels_slo_good_total{level=\"relaxed\"} 1\n\
                    pixels_slo_violation_total{level=\"relaxed\"} 0\n\
                    pixels_ledger_entries_total{level=\"all\"} 1\n\
                    pixels_ledger_entries_total{level=\"relaxed\"} 1\n\
                    pixels_ledger_revenue_dollars{level=\"all\"} 0.25\n\
                    pixels_ledger_revenue_dollars{level=\"relaxed\"} 0.25\n\
                    pixels_ledger_provider_dollars{component=\"vm\"} 0\n\
                    pixels_ledger_provider_dollars{component=\"cf\"} 0.001\n\
                    pixels_ledger_provider_dollars{component=\"cf_waste\"} 0\n\
                    pixels_ledger_provider_dollars{component=\"cf_shuffle\"} 0\n";
        assert_eq!(agg.diff_against_exposition(good), Vec::<String>::new());
        let drifted = good.replace(
            "pixels_queries_total{level=\"relaxed\",status=\"finished\"} 1",
            "pixels_queries_total{level=\"relaxed\",status=\"finished\"} 2",
        );
        let diffs = agg.diff_against_exposition(&drifted);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].contains("pixels_queries_total"), "{diffs:?}");
        // A registry series the journal can't explain is also a diff.
        let phantom = format!("{good}pixels_slo_good_total{{level=\"best_effort\"}} 3\n");
        assert!(!agg.diff_against_exposition(&phantom).is_empty());
        // So is provider spend the journal does not account for.
        let spent = good.replace("{component=\"vm\"} 0", "{component=\"vm\"} 0.5");
        let diffs = agg.diff_against_exposition(&spent);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].contains("[vm]"), "{diffs:?}");
    }

    #[test]
    fn replay_reproduces_the_ledgers_provider_spend_bit_for_bit() {
        let mut shuffled = entry("immediate", "finished", true, 0.5);
        (shuffled.vm_dollars, shuffled.provider_cf_dollars) = (0.1, 0.003);
        shuffled.shuffle_dollars = 0.0007;
        let entries = [
            entry("relaxed", "finished", true, 0.25),
            shuffled,
            entry("relaxed", "failed", false, 0.0),
        ];
        // The ledger the server keeps: one entry per finished query, made
        // from its journal record, exported into a registry.
        let ledger = ledger::Ledger::new();
        for e in entries.iter().filter(|e| e.status == "finished") {
            ledger.append(e.ledger_entry());
        }
        let registry = crate::MetricsRegistry::new();
        ledger.export(&registry);
        let text = registry.render();
        let shuffle = r#"pixels_ledger_provider_dollars{component="cf_shuffle"} 0.0007"#;
        assert!(text.contains(shuffle), "{text}");
        let agg = replay(&entries);
        assert_eq!(agg.finished.shuffle_dollars.to_bits(), 0.0007f64.to_bits());
        let spend = |s: &LedgerSummary| s.provider_components().map(|(c, d)| (c, d.to_bits()));
        assert_eq!(spend(&agg.finished), spend(&ledger.summary()));
        let provider_diffs: Vec<String> = agg
            .diff_against_exposition(&text)
            .into_iter()
            .filter(|d| d.contains(ledger::PROVIDER_DOLLARS))
            .collect();
        assert!(provider_diffs.is_empty(), "{provider_diffs:?}");
        // A journal without the shuffle spend no longer reproduces it.
        let mut unshuffled = entries.clone();
        unshuffled[1].shuffle_dollars = 0.0;
        let diffs = replay(&unshuffled).diff_against_exposition(&text);
        assert!(
            diffs.iter().any(|d| d.contains("[cf_shuffle]")),
            "{diffs:?}"
        );
    }
}
