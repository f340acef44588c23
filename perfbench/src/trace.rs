//! In-memory spans recorded around the benchmark's own calls into the
//! program.
//!
//! Nothing here reaches inside the program: a span brackets one call the
//! benchmark makes into a crate's public function. Spans stay in memory
//! while the workload runs and are written out once, at the end. A span's
//! self time is its duration minus the part of it covered by its children.
//!
//! Recording is off unless [`set_enabled`] turns it on; a disabled span is
//! one relaxed atomic load.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `core.spmv`.
    pub name: &'static str,
    /// What the call worked on (matrix name), or `""`.
    pub key: &'static str,
    /// Operation id shared by every span of one operation, if any.
    pub op: Option<u64>,
    /// Recording thread (small integer, per process).
    pub thread: u64,
    /// Start, nanoseconds after the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds after the trace epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: Cell<u64> = const { Cell::new(u64::MAX) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn ns_since_epoch(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

fn thread_id() -> u64 {
    THREAD.with(|t| {
        if t.get() == u64::MAX {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; records itself when dropped.
pub struct SpanGuard {
    open: Option<(u64, Option<u64>, Instant)>,
    name: &'static str,
    key: &'static str,
    op: Option<u64>,
}

/// Opens a span on this thread, nested under the innermost open span.
pub fn span(name: &'static str, key: &'static str) -> SpanGuard {
    span_op(name, key, None)
}

/// Opens a span that belongs to operation `op`.
pub fn span_op(name: &'static str, key: &'static str, op: Option<u64>) -> SpanGuard {
    let open = enabled().then(|| {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        (id, parent, Instant::now())
    });
    SpanGuard {
        open,
        name,
        key,
        op,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((id, parent, start)) = self.open.take() {
            let end = Instant::now();
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
            push(Span {
                id,
                parent,
                name: self.name,
                key: self.key,
                op: self.op,
                thread: thread_id(),
                start_ns: ns_since_epoch(start),
                end_ns: ns_since_epoch(end),
            });
        }
    }
}

fn push(span: Span) {
    SPANS.lock().expect("span buffer poisoned").push(span);
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"))
}

/// Self time of every span in seconds: its duration minus the union of its
/// children's intervals (clipped to the parent).
pub fn self_times(spans: &[Span]) -> HashMap<u64, f64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            let total = s.end_ns.saturating_sub(s.start_ns);
            (s.id, total.saturating_sub(covered) as f64 * 1e-9)
        })
        .collect()
}

/// Durations in seconds of the spans named `name` (and keyed `key`, unless
/// `key` is `None`).
pub fn durations(spans: &[Span], name: &str, key: Option<&str>) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && key.is_none_or(|k| s.key == k))
        .map(Span::secs)
        .collect()
}

/// Writes spans as JSON lines, one span per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let op = s.op.map_or("null".to_string(), |o| o.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"key\":\"{}\",\"op\":{op},\
             \"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.key, s.thread, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}
