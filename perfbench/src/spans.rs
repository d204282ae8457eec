//! In-memory tracing: spans recorded around the benchmark's calls into each
//! layer, kept in memory while the run measures and written out when it ends.
//!
//! A span is `(name, start, end, parent, request, items)`; spans of one request
//! share a request id.  A span may cover a batch of `items` identical calls (a
//! waterfall row prices a whole stream in one span), so per-call time is
//! `duration / items`.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based; 0 means "no parent").
    pub id: u64,
    /// The layer boundary this span times.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// The id of the span that caused this one, or 0.
    pub parent: u64,
    /// The request (or item) the span belongs to.
    pub request: u64,
    /// How many calls the span covers.
    pub items: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A thread-safe span recorder.
pub struct Spans {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the origin for `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// A fresh span id (so a parent's id is known before the parent ends).
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record one span with a pre-allocated `id`.
    #[allow(clippy::too_many_arguments)]
    pub fn record_with_id(
        &self,
        id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        request: u64,
        items: u64,
    ) {
        let span = Span {
            id,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
            items,
        };
        self.spans.lock().expect("span lock poisoned").push(span);
    }

    /// Record one span, returning its id.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        request: u64,
        items: u64,
    ) -> u64 {
        let id = self.id();
        self.record_with_id(id, name, start, end, parent, request, items);
        id
    }

    /// Append spans a thread buffered locally (ids already allocated).
    pub fn extend(&self, spans: Vec<Span>) {
        self.spans.lock().expect("span lock poisoned").extend(spans);
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span lock poisoned").len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total nanoseconds and items over every span named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .lock()
            .expect("span lock poisoned")
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, items), s| (ns + s.ns(), items + s.items))
    }

    /// Mean nanoseconds per item over every span named `name`.
    pub fn ns_per_item(&self, name: &str) -> f64 {
        let (ns, items) = self.total(name);
        ns as f64 / items.max(1) as f64
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span lock poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{},\"items\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.parent, s.request, s.items
            )?;
        }
        out.flush()
    }
}
