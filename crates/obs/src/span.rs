//! Lightweight spans: the per-query trace.
//!
//! A [`Trace`] collects [`SpanData`] records describing where one query's
//! time and bytes went — scheduler wait, tier dispatch, each exec operator,
//! each storage open and morsel read. Spans carry parent links, so a
//! finished trace reassembles into one tree ("the query profile") that is
//! rendered as JSON for the server API or as indented text for
//! `EXPLAIN ANALYZE`.
//!
//! Tracing is opt-in per query and designed to cost nothing when off: a
//! disabled [`TraceCtx`] hands out inert [`Span`]s whose every method is an
//! early return, with no allocation, clock read, or locking.

use crate::clock::{ClockRef, WallClock};
use parking_lot::Mutex;
use pixels_common::json::{write_escaped, write_number};
use pixels_common::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An attribute value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    U64(u64),
    F64(f64),
    Str(String),
}

impl AttrValue {
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AttrValue::U64(v) => Some(*v as f64),
            AttrValue::F64(v) => Some(*v),
            AttrValue::Str(_) => None,
        }
    }

    fn to_json(&self) -> Json {
        match self {
            AttrValue::U64(v) => Json::number(*v as f64),
            AttrValue::F64(v) => Json::number(*v),
            AttrValue::Str(s) => Json::string(s.clone()),
        }
    }
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanData {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
    pub attrs: Vec<(String, AttrValue)>,
}

impl SpanData {
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// A per-query trace: a clock plus the spans finished so far.
pub struct Trace {
    clock: ClockRef,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanData>>,
}

impl Trace {
    /// A trace on its own monotonic wall clock (origin = trace creation).
    pub fn wall() -> Arc<Trace> {
        Trace::with_clock(WallClock::shared())
    }

    /// A trace stamped by an external clock — e.g. a [`crate::SimClock`]
    /// advanced by the simulator, so the trace reads in virtual time.
    pub fn with_clock(clock: ClockRef) -> Arc<Trace> {
        Arc::new(Trace {
            clock,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn now_micros(&self) -> u64 {
        self.clock.now_micros()
    }

    /// All spans finished so far (finish order, not tree order).
    pub fn finished_spans(&self) -> Vec<SpanData> {
        self.spans.lock().clone()
    }

    /// How many spans have finished so far.
    pub fn span_count(&self) -> usize {
        self.spans.lock().len()
    }

    /// Sum of a numeric attribute over every finished span — e.g. the total
    /// `bytes` attributed across storage opens and morsel reads, which must
    /// reconcile with `bytes_scanned` billing.
    pub fn attr_sum(&self, key: &str) -> f64 {
        self.spans
            .lock()
            .iter()
            .filter_map(|s| s.attr(key).and_then(|v| v.as_f64()))
            .sum()
    }

    /// The span tree as JSON: a list of roots, each
    /// `{"name","start_us","duration_us","self_us","attrs":{...},"children":[...]}`.
    /// `self_us` is the span's duration minus the union of its children's
    /// intervals (see [`crate::selftime`]).
    pub fn to_json(&self) -> Json {
        let spans = self.finished_spans();
        let selfs = crate::selftime::self_times(&spans);
        let forest = assemble(&spans);
        Json::array(forest.iter().map(|n| n.to_json(&selfs)))
    }

    /// The span tree serialized once, straight from the finished spans,
    /// into the compact text of [`Trace::to_json`] — byte for byte — without
    /// building the `Json` tree. This is what a terminal query retains.
    pub fn profile(&self) -> Profile {
        // Under the lock rather than on a copy: the query is over, no span
        // is waiting to publish.
        let spans = self.spans.lock();
        let selfs = crate::selftime::self_times(&spans);
        let mut out = String::new();
        write_nodes(&assemble(&spans), &selfs, &mut out);
        Profile(out.into())
    }

    /// The span tree as indented text (one span per line), for
    /// `EXPLAIN ANALYZE` and terminal clients.
    pub fn render_text(&self) -> String {
        let spans = self.finished_spans();
        let forest = assemble(&spans);
        let mut out = String::new();
        for root in &forest {
            root.render(&mut out, 0);
        }
        out
    }
}

/// A finished query's profile: its span tree as compact JSON text (see
/// [`Trace::profile`]), shared so reading a query's status copies a pointer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile(Arc<str>);

impl Profile {
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The compact JSON text, as `Json::to_compact_string` would give it.
    pub fn to_compact_string(&self) -> String {
        self.0.to_string()
    }

    /// The tree parsed back into a [`Json`] value, for callers that walk it.
    pub fn to_json(&self) -> Json {
        Json::parse(&self.0).expect("a profile is the JSON this module wrote")
    }
}

/// A node of the reassembled span tree.
struct TreeNode<'a> {
    span: &'a SpanData,
    children: Vec<TreeNode<'a>>,
}

impl TreeNode<'_> {
    fn self_us(&self, selfs: &BTreeMap<u64, u64>) -> u64 {
        selfs
            .get(&self.span.id)
            .copied()
            .unwrap_or_else(|| self.span.duration_us())
    }

    fn to_json(&self, selfs: &BTreeMap<u64, u64>) -> Json {
        let self_us = self.self_us(selfs);
        let mut fields: Vec<(String, Json)> = vec![
            ("name".into(), Json::string(self.span.name.clone())),
            ("start_us".into(), Json::number(self.span.start_us as f64)),
            (
                "duration_us".into(),
                Json::number(self.span.duration_us() as f64),
            ),
            ("self_us".into(), Json::number(self_us as f64)),
        ];
        if !self.span.attrs.is_empty() {
            fields.push((
                "attrs".into(),
                Json::Object(
                    self.span
                        .attrs
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ));
        }
        if !self.children.is_empty() {
            fields.push((
                "children".into(),
                Json::array(self.children.iter().map(|c| c.to_json(selfs))),
            ));
        }
        Json::Object(fields.into_iter().collect())
    }

    /// [`TreeNode::to_json`] as text: keys in sorted order and, among
    /// attributes recorded twice, the last one — what collecting into a
    /// `Json::Object` (a `BTreeMap`) does.
    fn write_json(&self, selfs: &BTreeMap<u64, u64>, out: &mut String) {
        let number = |key: &str, v: u64, out: &mut String| {
            out.push_str(key);
            write_number(v as f64, out);
        };
        out.push('{');
        if !self.span.attrs.is_empty() {
            let attrs: BTreeMap<&str, &AttrValue> = self
                .span
                .attrs
                .iter()
                .map(|(k, v)| (k.as_str(), v))
                .collect();
            out.push_str("\"attrs\":{");
            for (i, (k, v)) in attrs.into_iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(k, out);
                out.push(':');
                match v {
                    AttrValue::U64(v) => write_number(*v as f64, out),
                    AttrValue::F64(v) => write_number(*v, out),
                    AttrValue::Str(s) => write_escaped(s, out),
                }
            }
            out.push_str("},");
        }
        if !self.children.is_empty() {
            out.push_str("\"children\":");
            write_nodes(&self.children, selfs, out);
            out.push(',');
        }
        number("\"duration_us\":", self.span.duration_us(), out);
        out.push_str(",\"name\":");
        write_escaped(&self.span.name, out);
        number(",\"self_us\":", self.self_us(selfs), out);
        number(",\"start_us\":", self.span.start_us, out);
        out.push('}');
    }

    fn render(&self, out: &mut String, depth: usize) {
        let _ = write!(
            out,
            "{:indent$}{} {}",
            "",
            self.span.name,
            format_micros(self.span.duration_us()),
            indent = depth * 2
        );
        for (k, v) in &self.span.attrs {
            match v {
                AttrValue::U64(x) => {
                    let _ = write!(out, " {k}={x}");
                }
                AttrValue::F64(x) => {
                    let _ = write!(out, " {k}={x:.3}");
                }
                AttrValue::Str(s) => {
                    let _ = write!(out, " {k}={s}");
                }
            }
        }
        out.push('\n');
        for child in &self.children {
            child.render(out, depth + 1);
        }
    }
}

fn write_nodes(nodes: &[TreeNode<'_>], selfs: &BTreeMap<u64, u64>, out: &mut String) {
    out.push('[');
    for (i, node) in nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        node.write_json(selfs, out);
    }
    out.push(']');
}

fn format_micros(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else {
        format!("{:.1}ms", us as f64 / 1e3)
    }
}

/// Rebuild the forest from finished spans, children in start order.
fn assemble(spans: &[SpanData]) -> Vec<TreeNode<'_>> {
    let mut by_parent: BTreeMap<Option<u64>, Vec<&SpanData>> = BTreeMap::new();
    let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
    for s in spans {
        // A parent that never finished (or was dropped unfinished) makes its
        // children roots, so a partial trace still renders.
        let parent = s.parent.filter(|p| ids.contains(p));
        by_parent.entry(parent).or_default().push(s);
    }
    fn build<'a>(
        parent: Option<u64>,
        by_parent: &BTreeMap<Option<u64>, Vec<&'a SpanData>>,
    ) -> Vec<TreeNode<'a>> {
        let mut nodes: Vec<TreeNode<'a>> = by_parent
            .get(&parent)
            .map(|children| {
                children
                    .iter()
                    .map(|s| TreeNode {
                        span: s,
                        children: build(Some(s.id), by_parent),
                    })
                    .collect()
            })
            .unwrap_or_default();
        nodes.sort_by_key(|n| (n.span.start_us, n.span.id));
        nodes
    }
    build(None, &by_parent)
}

/// A cheap handle naming "the current position in the trace": which trace
/// (if any) and which span new children should attach under. Cloned freely
/// into execution contexts and worker threads.
#[derive(Clone, Default)]
pub struct TraceCtx {
    trace: Option<Arc<Trace>>,
    parent: Option<u64>,
}

impl TraceCtx {
    /// The no-op context: spans created through it do nothing.
    pub fn disabled() -> TraceCtx {
        TraceCtx::default()
    }

    /// A context opening spans at the root of `trace`.
    pub fn root(trace: &Arc<Trace>) -> TraceCtx {
        TraceCtx {
            trace: Some(trace.clone()),
            parent: None,
        }
    }

    pub fn enabled(&self) -> bool {
        self.trace.is_some()
    }

    pub fn trace(&self) -> Option<&Arc<Trace>> {
        self.trace.as_ref()
    }

    /// Start a span under this context's parent. Inert if disabled.
    pub fn span(&self, name: &str) -> Span {
        match &self.trace {
            None => Span::noop(),
            Some(trace) => {
                let id = trace.next_id.fetch_add(1, Ordering::Relaxed);
                Span {
                    trace: Some(trace.clone()),
                    id,
                    parent: self.parent,
                    name: name.to_string(),
                    start_us: trace.now_micros(),
                    attrs: Vec::new(),
                }
            }
        }
    }
}

/// An open span. Records attributes while open; finishes (stamps the end
/// time and publishes itself to the trace) on drop or [`Span::finish`].
pub struct Span {
    trace: Option<Arc<Trace>>,
    id: u64,
    parent: Option<u64>,
    name: String,
    start_us: u64,
    attrs: Vec<(String, AttrValue)>,
}

impl Span {
    fn noop() -> Span {
        Span {
            trace: None,
            id: 0,
            parent: None,
            name: String::new(),
            start_us: 0,
            attrs: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.trace.is_some()
    }

    pub fn record_u64(&mut self, key: &str, value: u64) {
        if self.trace.is_some() {
            self.attrs.push((key.to_string(), AttrValue::U64(value)));
        }
    }

    pub fn record_f64(&mut self, key: &str, value: f64) {
        if self.trace.is_some() {
            self.attrs.push((key.to_string(), AttrValue::F64(value)));
        }
    }

    pub fn record_str(&mut self, key: &str, value: &str) {
        if self.trace.is_some() {
            self.attrs
                .push((key.to_string(), AttrValue::Str(value.to_string())));
        }
    }

    /// A context for children of this span.
    pub fn ctx(&self) -> TraceCtx {
        TraceCtx {
            trace: self.trace.clone(),
            parent: self.trace.as_ref().map(|_| self.id),
        }
    }

    /// Finish now (otherwise drop does it).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(trace) = self.trace.take() {
            let end_us = trace.now_micros();
            trace.spans.lock().push(SpanData {
                id: self.id,
                parent: self.parent,
                name: std::mem::take(&mut self.name),
                start_us: self.start_us,
                end_us,
                attrs: std::mem::take(&mut self.attrs),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;

    #[test]
    fn disabled_spans_do_nothing() {
        let ctx = TraceCtx::disabled();
        assert!(!ctx.enabled());
        let mut s = ctx.span("anything");
        s.record_u64("bytes", 42);
        s.finish();
        // Nothing to observe: no trace exists. This is the hot-path contract.
    }

    #[test]
    fn spans_reassemble_into_a_tree() {
        let trace = Trace::wall();
        let root_ctx = TraceCtx::root(&trace);
        {
            let mut query = root_ctx.span("query");
            query.record_str("sql", "SELECT 1");
            {
                let wait = query.ctx().span("scheduler_wait");
                wait.finish();
                let mut scan = query.ctx().span("scan");
                scan.record_u64("bytes", 100);
                {
                    let mut morsel = scan.ctx().span("morsel");
                    morsel.record_u64("bytes", 60);
                }
            }
        }
        let json = trace.to_json();
        let roots = json.as_array().unwrap();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].get("name").unwrap().as_str(), Some("query"));
        let children = roots[0].get("children").unwrap().as_array().unwrap();
        assert_eq!(children.len(), 2);
        assert_eq!(
            children[0].get("name").unwrap().as_str(),
            Some("scheduler_wait")
        );
        let scan = &children[1];
        let morsels = scan.get("children").unwrap().as_array().unwrap();
        assert_eq!(morsels[0].get("name").unwrap().as_str(), Some("morsel"));
        assert_eq!(trace.attr_sum("bytes"), 160.0);

        let text = trace.render_text();
        assert!(text.contains("query"), "{text}");
        assert!(text.contains("  scan"), "{text}");
        assert!(text.contains("    morsel"), "{text}");
    }

    #[test]
    fn sim_clock_traces_read_in_virtual_time() {
        let clock = SimClock::shared();
        let trace = Trace::with_clock(clock.clone());
        let ctx = TraceCtx::root(&trace);
        clock.set_micros(1_000_000);
        let span = ctx.span("vm_boot");
        clock.set_micros(91_000_000); // the simulator advances 90 virtual s
        span.finish();
        let spans = trace.finished_spans();
        assert_eq!(spans[0].start_us, 1_000_000);
        assert_eq!(spans[0].duration_us(), 90_000_000);
    }

    #[test]
    fn spans_from_worker_threads_land_in_one_trace() {
        let trace = Trace::wall();
        let parent = TraceCtx::root(&trace).span("scan");
        std::thread::scope(|s| {
            for i in 0..4 {
                let ctx = parent.ctx();
                s.spawn(move || {
                    let mut m = ctx.span("morsel");
                    m.record_u64("rg", i);
                });
            }
        });
        parent.finish();
        let spans = trace.finished_spans();
        assert_eq!(spans.len(), 5);
        let roots = trace.to_json();
        let scan = &roots.as_array().unwrap()[0];
        assert_eq!(
            scan.get("children").unwrap().as_array().unwrap().len(),
            4,
            "all worker morsels are children of the scan span"
        );
    }

    #[test]
    fn profile_json_carries_nonnegative_self_time() {
        let clock = SimClock::shared();
        let trace = Trace::with_clock(clock.clone());
        let parent = TraceCtx::root(&trace).span("scan");
        // Two workers overlap in (virtual) time and one outlives the parent:
        // self_us must subtract the union, clipped, never underflowing.
        let a_ctx = parent.ctx();
        let b_ctx = parent.ctx();
        let a = a_ctx.span("morsel");
        clock.set_micros(40);
        let b = b_ctx.span("morsel");
        clock.set_micros(60);
        a.finish();
        clock.set_micros(80);
        parent.finish();
        clock.set_micros(120);
        b.finish();
        let json = trace.to_json();
        let scan = &json.as_array().unwrap()[0];
        assert_eq!(scan.get("duration_us").unwrap().as_i64(), Some(80));
        // Children cover [0,60) ∪ [40,80) = the whole parent window.
        assert_eq!(scan.get("self_us").unwrap().as_i64(), Some(0));
        for child in scan.get("children").unwrap().as_array().unwrap() {
            let self_us = child.get("self_us").unwrap().as_i64().unwrap();
            let duration = child.get("duration_us").unwrap().as_i64().unwrap();
            assert!((0..=duration).contains(&self_us));
        }
    }

    #[test]
    fn profile_text_is_the_compact_form_of_the_json_tree() {
        let clock = SimClock::shared();
        let trace = Trace::with_clock(clock.clone());
        {
            let mut query = TraceCtx::root(&trace).span("query");
            query.record_str("sql", "SELECT \"a\"\n\tFROM t -- \u{1}");
            query.record_f64("dollars", 0.000125);
            query.record_f64("ratio", f64::NAN);
            // Recorded twice: the tree keeps the last value.
            query.record_u64("bytes", 1);
            query.record_u64("bytes", u64::MAX);
            clock.set_micros(5);
            let mut scan = query.ctx().span("scan");
            scan.record_u64("z", 1);
            scan.record_u64("a", 2);
            clock.set_micros(9);
            query.ctx().span("bare").finish();
            scan.ctx().span("morsel").finish();
            clock.set_micros(30);
        }
        TraceCtx::root(&trace).span("second_root").finish();
        let profile = trace.profile();
        assert_eq!(profile.as_str(), trace.to_json().to_compact_string());
        // NaN went out as null, so compare the parsed tree as text.
        assert_eq!(profile.to_json().to_compact_string(), profile.as_str());
        assert_eq!(profile.to_compact_string(), profile.as_str());
        // An empty trace is an empty forest either way.
        let empty = Trace::wall();
        assert_eq!(empty.profile().as_str(), "[]");
        assert_eq!(empty.to_json().to_compact_string(), "[]");
    }

    #[test]
    fn unfinished_parent_does_not_orphan_children() {
        let trace = Trace::wall();
        let parent = TraceCtx::root(&trace).span("never_finished");
        let child = parent.ctx().span("child");
        child.finish();
        std::mem::forget(parent); // leaked open span
        let json = trace.to_json();
        assert_eq!(json.as_array().unwrap().len(), 1);
        assert_eq!(
            json.as_array().unwrap()[0].get("name").unwrap().as_str(),
            Some("child")
        );
    }
}
