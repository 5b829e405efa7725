//! In-memory spans for the traced run.
//!
//! Spans are recorded from the benchmark's own files only, around the
//! calls into each layer: the client loop stamps `submit` / `submit_async`
//! / `wait`, the provider wrapper stamps each leaf, the market wrapper
//! stamps `fetch`, and the telemetry sink stamps each synthesis. They stay
//! in memory until the run ends and are then written as JSON lines.

use std::cell::Cell;
use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a span nothing caused.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Spans of one request share this identifier (0 = not a request's).
    pub request: u64,
    /// The gateway clock's reading at the span's start, in nanoseconds
    /// (virtual time on a virtual-clock rig; 0 where nobody read it).
    pub clock_ns: u64,
}

thread_local! {
    /// The request span the current thread is inside, so a wrapper called
    /// further down the same stack (a leaf, the market, the telemetry
    /// sink) can name its parent without the program under test passing
    /// it along.
    static CURRENT: Cell<u32> = const { Cell::new(NO_PARENT) };
}

/// The request span the calling thread is inside, or [`NO_PARENT`] on a
/// thread that is not a client (an event loop).
pub fn current_parent() -> u32 {
    CURRENT.get()
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Spans kept; later ones are counted in `dropped` and discarded, so
    /// a long traced run costs bounded memory and a bounded file.
    limit: usize,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
    paused: AtomicBool,
}

impl Tracer {
    pub fn new(limit: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            limit,
            spans: Mutex::new(Vec::with_capacity(limit)),
            dropped: AtomicU64::new(0),
            paused: AtomicBool::new(false),
        }
    }

    /// While paused, the leaf wrapper records nothing (set-up's warm-up
    /// requests would otherwise fill the tracer before the traced phase).
    pub fn pause(&self, paused: bool) {
        self.paused.store(paused, Ordering::Relaxed);
    }

    pub fn is_paused(&self) -> bool {
        self.paused.load(Ordering::Relaxed)
    }

    /// Spans discarded because the tracer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Nanoseconds since this tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id, or [`NO_PARENT`] when
    /// the tracer is full.
    pub fn record(&self, span: Span) -> u32 {
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        if spans.len() >= self.limit {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return NO_PARENT;
        }
        spans.push(span);
        (spans.len() - 1) as u32
    }

    /// Opens a request span on the calling thread: it exists (and is the
    /// thread's current parent) before its children are recorded, and is
    /// completed by [`Tracer::close`].
    pub fn open(&self, name: &'static str) -> u32 {
        let start_ns = self.now_ns();
        let id = self.record(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: NO_PARENT,
            request: 0,
            clock_ns: 0,
        });
        CURRENT.set(id);
        id
    }

    /// Closes a span opened with [`Tracer::open`], filling in the request
    /// identifier the program assigned meanwhile.
    pub fn close(&self, id: u32, request: u64) {
        let end_ns = self.now_ns();
        CURRENT.set(NO_PARENT);
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        if let Some(span) = spans.get_mut(id as usize) {
            span.end_ns = end_ns;
            span.request = request;
        }
    }

    /// Every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned").clone()
    }
}

/// Gives every parentless span that carries a request identifier the
/// request's root span (the parentless span of that request named
/// `root_name`) as its parent. Leaves of an asynchronous request run on an
/// event-loop thread, where no client span is current; they are joined to
/// their request here, after the run.
pub fn link_by_request(spans: &mut [Span], root_name: &str) {
    let roots: HashMap<u64, u32> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == root_name && s.request != 0)
        .map(|(id, s)| (s.request, id as u32))
        .collect();
    for (id, span) in spans.iter_mut().enumerate() {
        if span.parent != NO_PARENT || span.request == 0 || span.name == root_name {
            continue;
        }
        if let Some(&root) = roots.get(&span.request) {
            if root as usize != id {
                span.parent = root;
            }
        }
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Children may overlap each other (parallel legs) and
/// may stick out of the parent (a leg that outlives the decision); only
/// the union inside the parent is subtracted.
pub fn self_time_ns(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    end.saturating_sub(start) - covered
}

/// The direct children's intervals of every span, indexed like `spans`.
pub fn children_of(spans: &[Span]) -> Vec<Vec<(u64, u64)>> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(list) = children.get_mut(span.parent as usize) {
            list.push((span.start_ns, span.end_ns));
        }
    }
    children
}

/// Writes `spans` as JSON lines: id, name, start, end, parent (null for
/// none), request id and gateway-clock reading.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for (id, span) in spans.iter().enumerate() {
        let parent = if span.parent == NO_PARENT {
            "null".to_string()
        } else {
            span.parent.to_string()
        };
        writeln!(
            out,
            "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {parent}, \"request\": {}, \"clock_ns\": {}}}",
            span.name, span.start_ns, span.end_ns, span.request, span.clock_ns
        )?;
    }
    out.flush()
}
