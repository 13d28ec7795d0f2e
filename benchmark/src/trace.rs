//! The benchmark's own span recorder. It deliberately does not use
//! `pixels_obs`: a later change to that crate must not alter the ruler.
//!
//! Spans are kept in memory and written out when the run ends. While
//! recording is off a span costs one relaxed atomic load.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// "No query" marker for spans recorded outside any single query.
pub const NO_QUERY: i64 = -1;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u32,
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    /// Server query id, or the replay's stream index, or [`NO_QUERY`].
    pub query: i64,
    pub thread: u64,
}

impl Span {
    pub fn duration_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

pub struct Recorder {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    /// Ambient context for spans opened by code that cannot be handed one
    /// (the store wrapper, called from the program's own threads). Only the
    /// single-threaded replay sets it, where exactly one query is in flight.
    ambient_parent: AtomicU32,
    ambient_query: AtomicI64,
}

/// An open span; [`Recorder::finish`] records it. Inert while recording is off.
pub struct OpenSpan {
    id: u32,
    parent: u32,
    name: &'static str,
    start_us: u64,
    query: i64,
}

impl OpenSpan {
    pub fn id(&self) -> u32 {
        self.id
    }

    /// What `open` hands out while recording is off; `finish` drops it.
    fn inert(name: &'static str) -> OpenSpan {
        OpenSpan {
            id: 0,
            parent: 0,
            name,
            start_us: 0,
            query: NO_QUERY,
        }
    }
}

pub fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        enabled: AtomicBool::new(false),
        epoch: Instant::now(),
        next_id: AtomicU32::new(1),
        spans: Mutex::new(Vec::new()),
        ambient_parent: AtomicU32::new(0),
        ambient_query: AtomicI64::new(NO_QUERY),
    })
}

fn thread_number() -> u64 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local! {
        static NUMBER: u64 = u64::from(NEXT.fetch_add(1, Ordering::Relaxed));
    }
    NUMBER.with(|n| *n)
}

impl Recorder {
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Open a span under `parent` (0 for a root).
    pub fn open(&self, name: &'static str, parent: u32, query: i64) -> OpenSpan {
        if !self.enabled() {
            return OpenSpan::inert(name);
        }
        OpenSpan {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_us: self.now_us(),
            query,
        }
    }

    /// Open a span under the ambient context.
    pub fn open_ambient(&self, name: &'static str) -> OpenSpan {
        if !self.enabled() {
            return OpenSpan::inert(name);
        }
        self.open(
            name,
            self.ambient_parent.load(Ordering::Relaxed),
            self.ambient_query.load(Ordering::Relaxed),
        )
    }

    /// Make `span` the ambient parent until [`Recorder::clear_ambient`].
    pub fn set_ambient(&self, span: &OpenSpan) {
        self.ambient_parent.store(span.id, Ordering::SeqCst);
        self.ambient_query.store(span.query, Ordering::SeqCst);
    }

    pub fn clear_ambient(&self) {
        self.ambient_parent.store(0, Ordering::SeqCst);
        self.ambient_query.store(NO_QUERY, Ordering::SeqCst);
    }

    /// Close `span`, filling in the query id if it was not known at open.
    pub fn finish(&self, span: OpenSpan, query: Option<i64>) {
        if span.id == 0 {
            return;
        }
        let done = Span {
            id: span.id,
            parent: span.parent,
            name: span.name,
            start_us: span.start_us,
            end_us: self.now_us(),
            query: query.unwrap_or(span.query),
            thread: thread_number(),
        };
        self.spans.lock().expect("span list lock").push(done);
    }

    /// Every span recorded so far, in completion order.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }
}

/// Microseconds of `parent`'s interval that no child covers: its duration
/// minus the union of the child intervals clipped to it. Children may
/// overlap each other or run on other threads; the result is never negative.
pub fn self_time_us(parent: &Span, children: &[&Span]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_us.max(parent.start_us), c.end_us.min(parent.end_us)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_us;
    for (s, e) in clipped {
        let from = s.max(reach);
        if e > from {
            covered += e - from;
            reach = e;
        }
    }
    parent.duration_us() - covered
}

/// Self time of every span named `name`, in recording order.
pub fn self_times_of(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|p| {
            let children: Vec<&Span> = spans.iter().filter(|c| c.parent == p.id).collect();
            self_time_us(p, &children)
        })
        .collect()
}

/// Write spans as JSON lines (one object per span).
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"query\":{},\"thread\":{}}}",
            s.id, s.parent, s.name, s.start_us, s.end_us, s.query, s.thread
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_us: u64, end_us: u64, thread: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            start_us,
            end_us,
            query: 0,
            thread,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_not_the_sum() {
        let p = span(1, 0, 100, 200, 1);
        let a = span(2, 1, 110, 150, 1);
        let b = span(3, 1, 140, 160, 2); // overlaps a, other thread
        assert_eq!(self_time_us(&p, &[&a, &b]), 50);
        assert_eq!(self_time_us(&p, &[]), 100);
    }

    #[test]
    fn self_time_is_never_negative() {
        let p = span(1, 0, 100, 200, 1);
        // Children on other threads that start before / end after the parent
        // and together cover it more than once.
        let a = span(2, 1, 50, 180, 2);
        let b = span(3, 1, 120, 400, 3);
        let c = span(4, 1, 90, 210, 4);
        assert_eq!(self_time_us(&p, &[&a, &b, &c]), 0);
        // A child entirely outside the parent covers nothing.
        let d = span(5, 1, 300, 400, 2);
        assert_eq!(self_time_us(&p, &[&d]), 100);
    }

    #[test]
    fn self_times_by_name_follow_parent_links() {
        let mut spans = vec![
            span(1, 0, 0, 100, 1),
            span(2, 1, 10, 30, 1),
            span(3, 0, 200, 260, 1),
            span(4, 3, 200, 260, 2),
        ];
        spans[1].name = "child";
        spans[3].name = "child";
        assert_eq!(self_times_of(&spans, "x"), vec![80, 0]);
        assert_eq!(self_times_of(&spans, "child"), vec![20, 60]);
    }

    #[test]
    fn jsonl_has_one_object_per_line() {
        let mut out = Vec::new();
        write_jsonl(&[span(1, 0, 5, 9, 2)], &mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "{\"id\":1,\"parent\":0,\"name\":\"x\",\"start_us\":5,\"end_us\":9,\"query\":0,\"thread\":2}\n"
        );
    }
}
