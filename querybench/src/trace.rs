//! The traced run's recorder: spans around calls into the program's
//! public functions and traits, plus counters for the calls too
//! frequent to keep one span each (transport submit/drain/pending).
//!
//! A span's parent is the innermost span still open on the same
//! thread; a span opened on another thread (a worker rebuilding the
//! world, the daemon host serving a socket client) hangs off the root
//! span of the query it belongs to. Spans stay in memory and are
//! written out when the run ends.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// No query (setup work, or a span outside any query).
pub const NO_QUERY: u64 = 0;

/// One finished span; times are nanoseconds since the recorder began.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run, from 1.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// The query the span belongs to ([`NO_QUERY`] for none).
    pub query: u64,
    /// Layer-qualified name, e.g. `live.run`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Counters for the transport calls (one span per call would not fit
/// in memory at serve-mixed rates).
#[derive(Debug, Default)]
pub struct WireCounters {
    /// `submit` plus `submit_batch` calls.
    pub submit_calls: AtomicU64,
    /// Wall time inside those calls.
    pub submit_ns: AtomicU64,
    /// Envelopes the transport accepted.
    pub envelopes: AtomicU64,
    /// Payload bytes of the accepted envelopes.
    pub payload_bytes: AtomicU64,
    /// Submissions refused with a `TransportError`.
    pub rejected: AtomicU64,
    /// `drain` calls.
    pub drain_calls: AtomicU64,
    /// `drain` calls that returned at least one envelope.
    pub useful_drains: AtomicU64,
    /// Wall time inside `drain`.
    pub drain_ns: AtomicU64,
    /// `pending` calls.
    pub pending_calls: AtomicU64,
}

/// Counters kept beside the spans of the other wrappers.
#[derive(Debug, Default)]
pub struct CallCounters {
    /// `RemoteExecutor::try_run` calls.
    pub try_runs: AtomicU64,
    /// Of which returned `Some(Ok(_))`.
    pub remote_ok: AtomicU64,
    /// `WorldBuilder::build` calls, daemon and workers together.
    pub world_builds: AtomicU64,
    /// Records appended to the WAL (a batch counts each record).
    pub append_records: AtomicU64,
    /// Bytes appended to the WAL.
    pub append_bytes: AtomicU64,
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD_QUERY: Cell<u64> = const { Cell::new(NO_QUERY) };
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("a thread panicked while recording spans")
}

/// The span recorder.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    roots: Mutex<HashMap<u64, u64>>,
    /// The query a sequential host is serving, for spans opened on
    /// threads that never set their own (socket workers, the daemon
    /// host loop).
    current_query: AtomicU64,
    /// Transport call counters.
    pub wire: WireCounters,
    /// Remote-executor, world-builder and WAL counters.
    pub calls: CallCounters,
}

/// An open span; it is recorded when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    query: u64,
    name: &'static str,
    start_ns: u64,
    root: bool,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == self.id) {
                s.remove(pos);
            }
        });
        if self.root {
            THREAD_QUERY.with(|q| q.set(NO_QUERY));
            lock(&self.tracer.roots).remove(&self.query);
        }
        lock(&self.tracer.spans).push(Span {
            id: self.id,
            parent: self.parent,
            query: self.query,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
        });
    }
}

impl Tracer {
    /// A fresh recorder whose clock starts now.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            roots: Mutex::new(HashMap::new()),
            current_query: AtomicU64::new(NO_QUERY),
            wire: WireCounters::default(),
            calls: CallCounters::default(),
        })
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn query_here(&self) -> u64 {
        match THREAD_QUERY.with(Cell::get) {
            NO_QUERY => self.current_query.load(Ordering::SeqCst),
            q => q,
        }
    }

    /// Marks `query` as the one a sequential host is serving (spans
    /// opened on threads without their own query attach to it).
    pub fn set_current_query(&self, query: u64) {
        self.current_query.store(query, Ordering::SeqCst);
    }

    fn open(&self, name: &'static str, query: u64, root: bool) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = if root {
            None
        } else {
            STACK
                .with(|s| s.borrow().last().copied())
                .or_else(|| lock(&self.roots).get(&query).copied())
        };
        STACK.with(|s| s.borrow_mut().push(id));
        SpanGuard {
            tracer: self,
            id,
            parent,
            query,
            name,
            start_ns: self.now_ns(),
            root,
        }
    }

    /// Opens the root span of `query` on this thread; spans opened on
    /// this thread until it closes belong to the query.
    pub fn query_root(&self, query: u64) -> SpanGuard<'_> {
        THREAD_QUERY.with(|q| q.set(query));
        let guard = self.open("query", query, true);
        lock(&self.roots).insert(query, guard.id);
        guard
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.open(name, self.query_here(), false)
    }

    /// Every span recorded so far, in the order they closed.
    pub fn spans(&self) -> Vec<Span> {
        lock(&self.spans).clone()
    }

    /// Writes the spans as a JSON array, one span per line.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"query\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{}",
                s.id,
                parent,
                s.query,
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 < spans.len() { "," } else { "" }
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Length of `[start, end)` covered by the union of `intervals`
/// (each clipped to the range first).
pub fn covered_ns(start: u64, end: u64, intervals: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .into_iter()
        .map(|(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Self time of `span`: its duration minus the part of it that its
/// child spans (those naming it as parent, restricted to names
/// accepted by `counts`) cover.
pub fn self_time_ns(span: &Span, all: &[Span], counts: impl Fn(&str) -> bool) -> u64 {
    let children = all
        .iter()
        .filter(|c| c.parent == Some(span.id) && counts(c.name))
        .map(|c| (c.start_ns, c.end_ns));
    span.duration_ns() - covered_ns(span.start_ns, span.end_ns, children)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            query: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn coverage_merges_overlaps_and_clips() {
        assert_eq!(covered_ns(0, 100, []), 0);
        assert_eq!(covered_ns(0, 100, [(10, 20), (15, 30), (50, 60)]), 30);
        assert_eq!(covered_ns(10, 20, [(0, 15), (18, 40)]), 7);
        assert_eq!(covered_ns(0, 100, [(0, 100), (20, 30)]), 100);
        assert_eq!(covered_ns(0, 10, [(20, 30)]), 0);
    }

    #[test]
    fn self_time_subtracts_the_time_children_cover() {
        let all = vec![
            span(1, None, "query", 0, 100),
            span(2, Some(1), "live.prepare", 10, 30),
            span(3, Some(1), "live.run", 30, 80),
            // A child on another thread overlapping `live.run`.
            span(4, Some(1), "net.world_build", 70, 90),
            // A grandchild does not count against the root.
            span(5, Some(3), "wire", 40, 50),
        ];
        assert_eq!(self_time_ns(&all[0], &all, |_| true), 100 - 80);
        assert_eq!(
            self_time_ns(&all[0], &all, |n| n == "net.world_build"),
            100 - 20
        );
        assert_eq!(self_time_ns(&all[2], &all, |_| true), 40);
        assert_eq!(self_time_ns(&all[1], &all, |_| true), 20);
    }

    #[test]
    fn spans_nest_on_a_thread_and_attach_to_the_root_across_threads() {
        let t = Tracer::new();
        {
            let _root = t.query_root(7);
            {
                let _a = t.span("a");
                let _b = t.span("b");
            }
            t.set_current_query(7);
            std::thread::scope(|s| {
                s.spawn(|| drop(t.span("remote")));
            });
            t.set_current_query(NO_QUERY);
        }
        let spans = t.spans();
        let by = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        let (root, a, b, remote) = (by("query"), by("a"), by("b"), by("remote"));
        assert_eq!(root.parent, None);
        assert_eq!(a.parent, Some(root.id));
        assert_eq!(b.parent, Some(a.id));
        assert_eq!(remote.parent, Some(root.id));
        assert!(spans.iter().all(|s| s.query == 7));
        assert!(root.start_ns <= a.start_ns && a.end_ns <= root.end_ns);
    }
}
