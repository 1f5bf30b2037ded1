//! In-memory span recorder. A span is (name, start, end, parent, request
//! id); spans nest by call order on the one replay thread, are kept in a
//! vector while the replay runs and are written out once at the end.
//! Recording can be switched off so the same replay measures the
//! tracer's own overhead.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder started.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the span list, if any.
    pub parent: Option<usize>,
    /// The replayed request (or training step) this span belongs to.
    pub req: u64,
}

/// Aggregate of all spans with one name.
#[derive(Default, Clone, Copy)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by direct children.
    pub self_ns: u64,
}

impl Agg {
    /// Mean span duration in milliseconds (0 when there were no spans).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }
}

struct Recorder {
    on: Cell<bool>,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    req: Cell<u64>,
}

thread_local! {
    static REC: Recorder = Recorder {
        on: Cell::new(true),
        t0: Instant::now(),
        spans: RefCell::new(Vec::new()),
        stack: RefCell::new(Vec::new()),
        req: Cell::new(0),
    };
}

/// Turns recording on or off; off makes [`span`] a plain call.
pub fn set_enabled(on: bool) {
    REC.with(|r| r.on.set(on));
}

/// Sets the request id stamped on spans opened from now on.
pub fn set_request(id: u64) {
    REC.with(|r| r.req.set(id));
}

/// Runs `f` inside a span called `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let slot = REC.with(|r| {
        if !r.on.get() {
            return None;
        }
        let start_ns = r.t0.elapsed().as_nanos() as u64;
        let parent = r.stack.borrow().last().copied();
        let mut spans = r.spans.borrow_mut();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req: r.req.get(),
        });
        let idx = spans.len() - 1;
        r.stack.borrow_mut().push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = slot {
        REC.with(|r| {
            let end = r.t0.elapsed().as_nanos() as u64;
            r.spans.borrow_mut()[idx].end_ns = end;
            r.stack.borrow_mut().pop();
        });
    }
    out
}

/// Takes every recorded span, leaving the recorder empty.
pub fn take() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut *r.spans.borrow_mut()))
}

/// Puts back spans taken with [`take`] (dropping any recorded since).
pub fn restore(spans: Vec<Span>) {
    REC.with(|r| *r.spans.borrow_mut() = spans);
}

/// Per-name totals and self times.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let d = s.end_ns - s.start_ns;
        let a = out.entry(s.name).or_default();
        a.count += 1;
        a.total_ns += d;
        a.self_ns += d.saturating_sub(child_ns[i]);
    }
    out
}

/// The spans as JSON lines: `{"name","start_ns","end_ns","parent","req"}`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut s = String::with_capacity(spans.len() * 80);
    for sp in spans {
        let parent = sp.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            s,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
            sp.name, sp.start_ns, sp.end_ns, parent, sp.req
        );
    }
    s
}
