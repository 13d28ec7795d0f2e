//! Prometheus text-exposition helpers: a validator for scrape output and the
//! one sample reader that the validator, the journal replay and the gates
//! ([`metric_value`]) read `/metrics` with. Rendering lives on
//! [`crate::MetricsRegistry::render`]; this module is the other side —
//! proving that what `/metrics` serves is well-formed.

use std::collections::{BTreeMap, BTreeSet};

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Base family name of a sample line's metric (strips histogram suffixes).
fn base_family(metric: &str, histogram_families: &BTreeSet<String>) -> String {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = metric.strip_suffix(suffix) {
            if histogram_families.contains(base) {
                return base.to_string();
            }
        }
    }
    metric.to_string()
}

/// Split `name{labels}` into the name and the raw label body (no braces).
fn split_labels(metric: &str) -> Result<(&str, Option<&str>), String> {
    match metric.find('{') {
        None => Ok((metric, None)),
        Some(open) => {
            if !metric.ends_with('}') {
                return Err(format!("unterminated label set in: {metric}"));
            }
            Ok((&metric[..open], Some(&metric[open + 1..metric.len() - 1])))
        }
    }
}

/// A sample's labels, unescaped and in written order.
type Labels = Vec<(String, String)>;

/// Parse a label body like `a="x",le="+Inf"` into pairs.
fn parse_labels(body: &str) -> Result<Labels, String> {
    let mut out = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=': {rest}"))?;
        let key = rest[..eq].trim().to_string();
        if key.is_empty() || !valid_metric_name(&key) {
            return Err(format!("bad label name: {key:?}"));
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(format!("label value not quoted: {after}"));
        }
        // Find the closing quote, honouring escapes.
        let bytes = after.as_bytes();
        let mut i = 1;
        let mut value = String::new();
        loop {
            if i >= bytes.len() {
                return Err(format!("unterminated label value: {after}"));
            }
            match bytes[i] {
                b'"' => break,
                b'\\' if i + 1 < bytes.len() => {
                    // Unescape per the exposition format: \n is a newline,
                    // \\ and \" are the literal characters.
                    value.push(match bytes[i + 1] {
                        b'n' => '\n',
                        c => c as char,
                    });
                    i += 2;
                }
                c => {
                    value.push(c as char);
                    i += 1;
                }
            }
        }
        out.push((key, value));
        rest = after[i + 1..].trim_start_matches(',').trim_start();
    }
    Ok(out)
}

/// One sample line of an exposition: its metric name (histogram suffixes
/// included), its labels unescaped and in written order, and its value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Sample<'a> {
    pub(crate) name: &'a str,
    pub(crate) labels: Labels,
    pub(crate) value: f64,
}

impl Sample<'_> {
    /// The value of label `key`, if the sample carries it.
    pub(crate) fn label(&self, key: &str) -> Option<&str> {
        (self.labels.iter())
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Split `name{labels}` — a sample's metric, or a selector such as
/// `pixels_retries_total{site="storage_get"}` — into its name and labels.
fn parse_metric(metric: &str) -> Result<(&str, Labels), String> {
    let (name, body) = split_labels(metric)?;
    if !valid_metric_name(name) {
        return Err(format!("invalid metric name {name:?}"));
    }
    let labels = match body {
        Some(body) => parse_labels(body)?,
        None => Vec::new(),
    };
    Ok((name, labels))
}

/// Parse one sample line, `name[{labels}] value`.
fn parse_sample(line: &str) -> Result<Sample<'_>, String> {
    // Label values may contain spaces inside quotes, so when a label set is
    // present split after its closing brace; otherwise at the first
    // whitespace.
    let split_at = match line.rfind('}') {
        Some(close) => close + 1,
        None => line
            .find(char::is_whitespace)
            .ok_or("no value on sample line")?,
    };
    let (metric, value) = line.split_at(split_at);
    let value = match value.trim() {
        "" => return Err("no value on sample line".into()),
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        s => s.parse().map_err(|_| format!("bad sample value {s:?}"))?,
    };
    let (name, labels) = parse_metric(metric.trim())?;
    Ok(Sample {
        name,
        labels,
        value,
    })
}

/// Every sample of metric `name` in an exposition, in text order. Comment
/// and malformed lines are skipped: [`validate_exposition`] is the check.
pub(crate) fn samples<'a>(text: &'a str, name: &'a str) -> impl Iterator<Item = Sample<'a>> {
    (text.lines())
        .filter(move |line| line.starts_with(name))
        .filter_map(|line| parse_sample(line.trim_end()).ok())
        .filter(move |sample| sample.name == name)
}

/// The value `selector` — `name` or `name{labels}` — selects: the sum of
/// the samples of `name` that carry every label the selector names, in any
/// order, whatever other labels they carry; 0 when none does.
pub fn metric_value(text: &str, selector: &str) -> f64 {
    let (name, labels) = parse_metric(selector).expect("a well-formed metric selector");
    samples(text, name)
        .filter(|sample| {
            labels
                .iter()
                .all(|(k, v)| sample.label(k) == Some(v.as_str()))
        })
        .map(|sample| sample.value)
        .sum()
}

/// Quotes on a line that are not preceded by a backslash. An odd count
/// means a label value was opened but never closed on this text line.
fn unescaped_quote_count(line: &str) -> usize {
    let bytes = line.as_bytes();
    let mut count = 0;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => {
                count += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    count
}

/// Validate Prometheus text exposition format:
///
/// - every non-comment line is `name[{labels}] value`;
/// - every sample belongs to a family announced by a `# TYPE` line;
/// - metric and label names are well-formed, values parse as floats;
/// - histograms are internally consistent: buckets cumulative and
///   non-decreasing, an `le="+Inf"` bucket present and equal to `_count`.
///
/// Returns the set of family names on success.
pub fn validate_exposition(text: &str) -> Result<BTreeSet<String>, String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut histograms: BTreeSet<String> = BTreeSet::new();
    // (family, non-le labels) -> [(le, cumulative count)]
    let mut buckets: BTreeMap<(String, String), Vec<(f64, f64)>> = BTreeMap::new();
    let mut counts: BTreeMap<(String, String), f64> = BTreeMap::new();

    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (Some(name), Some(kind)) = (parts.next(), parts.next()) else {
                return Err(format!("line {n}: malformed TYPE line"));
            };
            if !valid_metric_name(name) {
                return Err(format!("line {n}: invalid family name {name:?}"));
            }
            if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                return Err(format!("line {n}: unknown metric type {kind:?}"));
            }
            if types.insert(name.to_string(), kind.to_string()).is_some() {
                return Err(format!("line {n}: duplicate TYPE for {name}"));
            }
            if kind == "histogram" {
                histograms.insert(name.to_string());
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        // A raw (unescaped) newline inside a label value splits the sample
        // across text lines, leaving this line with an unterminated quote.
        // Catch it explicitly — writers must escape newlines as \n.
        if !unescaped_quote_count(line).is_multiple_of(2) {
            return Err(format!(
                "line {n}: raw newline inside label value (unterminated quote)"
            ));
        }
        let Sample {
            name,
            labels,
            value,
        } = parse_sample(line).map_err(|e| format!("line {n}: {e}"))?;
        let family = base_family(name, &histograms);
        if !types.contains_key(&family) {
            return Err(format!("line {n}: sample {name} has no preceding # TYPE"));
        }
        if histograms.contains(&family) {
            let non_le: Vec<String> = labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let series = (family.clone(), non_le.join(","));
            if name.ends_with("_bucket") {
                let le = labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .ok_or_else(|| format!("line {n}: histogram bucket without le label"))?;
                let le_val = match le.1.as_str() {
                    "+Inf" => f64::INFINITY,
                    s => s
                        .parse()
                        .map_err(|_| format!("line {n}: bad le value {s:?}"))?,
                };
                buckets.entry(series).or_default().push((le_val, value));
            } else if name.ends_with("_count") {
                counts.insert(series, value);
            }
        }
    }

    // Histogram consistency.
    for ((family, labels), mut series) in buckets {
        series.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut prev = -1.0;
        for &(le, cum) in &series {
            if cum < prev {
                return Err(format!(
                    "histogram {family}{{{labels}}}: bucket le={le} not cumulative"
                ));
            }
            prev = cum;
        }
        let Some(&(last_le, last_cum)) = series.last() else {
            continue;
        };
        if !last_le.is_infinite() {
            return Err(format!(
                "histogram {family}{{{labels}}}: missing le=\"+Inf\" bucket"
            ));
        }
        if let Some(&count) = counts.get(&(family.clone(), labels.clone())) {
            if (count - last_cum).abs() > f64::EPSILON {
                return Err(format!(
                    "histogram {family}{{{labels}}}: +Inf bucket {last_cum} != count {count}"
                ));
            }
        } else {
            return Err(format!("histogram {family}{{{labels}}}: missing _count"));
        }
    }

    Ok(types.keys().cloned().collect())
}

/// Validate `text` and require that every family in `required` is present.
pub fn require_families(text: &str, required: &[&str]) -> Result<(), String> {
    let families = validate_exposition(text)?;
    let missing: Vec<&str> = required
        .iter()
        .copied()
        .filter(|f| !families.contains(*f))
        .collect();
    if missing.is_empty() {
        Ok(())
    } else {
        Err(format!("missing required metric families: {missing:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    #[test]
    fn registry_output_validates() {
        let r = MetricsRegistry::new();
        r.counter_with("pixels_queries_total", "Q.", &[("level", "immediate")])
            .add(2);
        r.gauge("pixels_scheduler_queue_depth", "D.").set(1.0);
        let h = r.histogram("pixels_query_pending_seconds", "P.", &[], None);
        h.observe(0.2);
        h.observe(7.0);
        let text = r.render();
        let families = validate_exposition(&text).expect("valid exposition");
        assert!(families.contains("pixels_queries_total"));
        assert!(families.contains("pixels_query_pending_seconds"));
        require_families(
            &text,
            &["pixels_queries_total", "pixels_scheduler_queue_depth"],
        )
        .unwrap();
    }

    #[test]
    fn rejects_malformed_text() {
        assert!(validate_exposition("pixels_x 1").is_err(), "no TYPE line");
        assert!(
            validate_exposition("# TYPE pixels_x counter\npixels_x notanumber").is_err(),
            "bad value"
        );
        assert!(
            validate_exposition("# TYPE 9bad counter\n").is_err(),
            "bad name"
        );
        assert!(
            validate_exposition("# TYPE pixels_x counter\npixels_x{a=unquoted} 1").is_err(),
            "unquoted label"
        );
    }

    #[test]
    fn rejects_inconsistent_histograms() {
        let text = "\
# TYPE pixels_h histogram
pixels_h_bucket{le=\"0.1\"} 5
pixels_h_bucket{le=\"1\"} 3
pixels_h_bucket{le=\"+Inf\"} 6
pixels_h_sum 1
pixels_h_count 6
";
        assert!(validate_exposition(text).is_err(), "non-cumulative buckets");
        let text = "\
# TYPE pixels_h histogram
pixels_h_bucket{le=\"0.1\"} 1
pixels_h_sum 1
pixels_h_count 1
";
        assert!(validate_exposition(text).is_err(), "missing +Inf");
        let text = "\
# TYPE pixels_h histogram
pixels_h_bucket{le=\"+Inf\"} 2
pixels_h_sum 1
pixels_h_count 3
";
        assert!(validate_exposition(text).is_err(), "count mismatch");
    }

    #[test]
    fn rejects_raw_newlines_but_accepts_escaped_ones() {
        // A raw newline inside a label value splits the sample line.
        let raw = "# TYPE pixels_x counter\npixels_x{msg=\"line1\nline2\"} 1\n";
        let err = validate_exposition(raw).unwrap_err();
        assert!(err.contains("raw newline"), "{err}");
        // The registry escapes newlines, so its output stays valid — and the
        // validator's unescaper recovers the original value.
        let r = MetricsRegistry::new();
        r.counter_with("pixels_x", "x", &[("msg", "line1\nline2")])
            .inc();
        let text = r.render();
        validate_exposition(&text).expect("escaped newline is valid");
        let body_line = text
            .lines()
            .find(|l| l.starts_with("pixels_x{"))
            .expect("sample line");
        let body = &body_line[body_line.find('{').unwrap() + 1..body_line.rfind('}').unwrap()];
        let labels = parse_labels(body).unwrap();
        assert_eq!(
            labels,
            vec![("msg".to_string(), "line1\nline2".to_string())]
        );
    }

    #[test]
    fn the_sample_reader_honours_escapes_and_exact_names() {
        let r = MetricsRegistry::new();
        r.counter_with("pixels_x", "x", &[("msg", "a,b=\"c\""), ("site", "s")])
            .add(3);
        r.counter("pixels_x_total", "x").add(5);
        let text = r.render();
        let found: Vec<Sample> = samples(&text, "pixels_x").collect();
        assert_eq!(found.len(), 1, "a longer name is another metric: {found:?}");
        assert_eq!(found[0].label("msg"), Some("a,b=\"c\""));
        assert_eq!(found[0].label("site"), Some("s"));
        assert_eq!(found[0].value, 3.0);
        assert_eq!(metric_value(&text, "pixels_x_total"), 5.0);
        assert_eq!(
            metric_value(&text, r#"pixels_x{msg="a,b=\"c\"",site="s"}"#),
            3.0
        );
        assert_eq!(
            metric_value(&text, r#"pixels_x{site="s",msg="a,b=\"c\""}"#),
            3.0,
            "labels match in any order"
        );
        r.counter_with("pixels_x", "x", &[("msg", "d"), ("site", "s")])
            .add(4);
        let text = r.render();
        assert_eq!(metric_value(&text, r#"pixels_x{site="s"}"#), 7.0);
        assert_eq!(metric_value(&text, "pixels_x"), 7.0);
        assert_eq!(metric_value(&text, r#"pixels_x{site="t"}"#), 0.0);
    }

    #[test]
    fn missing_family_is_reported() {
        let text = "# TYPE pixels_a counter\npixels_a 1\n";
        let err = require_families(text, &["pixels_a", "pixels_b"]).unwrap_err();
        assert!(err.contains("pixels_b"), "{err}");
    }
}
