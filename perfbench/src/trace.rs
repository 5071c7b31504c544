//! In-memory spans recorded around calls into the library's layers.
//!
//! A span has a name (the layer, e.g. `textmetrics.car`), the document it
//! worked on when there is one (spans of one document share that id), a
//! parent, and start/end offsets from the tracer's creation. Spans stay in
//! memory until the run ends and are then written out as JSON.
//!
//! A disabled tracer runs the same closures without recording anything, so
//! one pass can be timed with and without tracing to measure the tracer's
//! own overhead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Document the span worked on, when it worked on one.
    pub doc: Option<u64>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, nanoseconds after the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds after the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder; see the module docs.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `enabled` and is a pass-through otherwise.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`. Spans opened inside `f` become
    /// its children.
    pub fn span<T>(&mut self, name: &'static str, doc: Option<u64>, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, doc, parent, start_ns, end_ns: start_ns });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the time its
    /// direct children cover, summed over spans of that name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_seconds = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_seconds[parent] += span.seconds();
            }
        }
        let mut by_name = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_seconds) {
            *by_name.entry(span.name).or_insert(0.0) += (span.seconds() - children).max(0.0);
        }
        by_name
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let doc = span.doc.map_or("null".to_string(), |d| d.to_string());
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\":{i},\"name\":\"{}\",\"doc\":{doc},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.start_ns, span.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() { ",\n" } else { "\n" });
        }
        out.push(']');
        out
    }
}

/// CPU seconds this process has used so far (all threads), or `None` where
/// the platform clock is not wired up.
pub fn process_cpu_seconds() -> Option<f64> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
        // fields on 64-bit Linux) that outlives the call.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        None
    }
}
