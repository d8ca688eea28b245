//! The traced run's instruments: in-memory spans recorded at layer
//! boundaries from the benchmark's own wrappers, per-layer self time,
//! and a counting global allocator.
//!
//! A span is opened around each call into a layer and closed when the
//! call returns. Spans nest strictly on one thread, so a layer's self
//! time — the span's duration minus the part its child spans cover — is
//! kept as a running total while the run proceeds, and the self times
//! of every span on a track add up exactly to the track's root spans.
//! The first [`SPAN_CAP`] spans are also kept whole (name, start, end,
//! parent, op id) and written out when the run ends.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::stats::Stopwatch;

/// Spans kept whole per tracer; later spans still count toward the
/// layer totals.
pub const SPAN_CAP: usize = 100_000;

/// Allocator that counts allocation calls and requested bytes while
/// [`set_counting`] is on, both per process and per thread.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static PROCESS_ALLOCS: AtomicU64 = AtomicU64::new(0);
static PROCESS_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

impl CountingAlloc {
    fn count(bytes: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            PROCESS_ALLOCS.fetch_add(1, Ordering::Relaxed);
            PROCESS_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
            // A const-initialised `Cell` has no destructor and never
            // allocates, so this is safe to touch from inside the
            // allocator; `try_with` only fails during thread teardown.
            let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System` upholds the `GlobalAlloc` contract; the
// counting on the side touches only atomics and a destructor-free
// thread-local `Cell`, and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, which
        // is `System` underneath; the caller's obligations pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turns allocation counting on or off for the whole process.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Process-wide `(allocations, bytes)` counted so far.
pub fn process_allocs() -> (u64, u64) {
    (
        PROCESS_ALLOCS.load(Ordering::Relaxed),
        PROCESS_BYTES.load(Ordering::Relaxed),
    )
}

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// One recorded span. `parent` and `id` are 1-based; 0 means none.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What one layer (span name) accumulated.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub calls: u64,
    pub self_ns: u64,
    pub self_allocs: u64,
}

struct Frame {
    id: u64,
    name: &'static str,
    op: u64,
    start_ns: u64,
    child_ns: u64,
    allocs_at_open: u64,
    child_allocs: u64,
}

/// One track's span recorder: spans on a tracer must nest, which holds
/// for every caller because each tracer is used by one thread.
pub struct Tracer {
    epoch: Stopwatch,
    stack: Vec<Frame>,
    layers: Vec<(&'static str, LayerTotals)>,
    spans: Vec<Span>,
    spans_total: u64,
    root_ns: u64,
    next_id: u64,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch` (share one epoch
    /// between tracers whose spans are written to one file).
    pub fn new(epoch: Stopwatch) -> Self {
        Tracer {
            epoch,
            stack: Vec::with_capacity(16),
            layers: Vec::with_capacity(32),
            spans: Vec::with_capacity(SPAN_CAP),
            spans_total: 0,
            root_ns: 0,
            next_id: 1,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.nanos()
    }

    /// Opens a span; `op` defaults to the enclosing span's op id.
    pub fn open(&mut self, name: &'static str, op: Option<u64>) {
        let op = op.unwrap_or_else(|| self.stack.last().map_or(0, |f| f.op));
        let id = self.next_id;
        self.next_id += 1;
        let allocs_at_open = thread_allocs();
        let start_ns = self.now_ns();
        self.stack.push(Frame {
            id,
            name,
            op,
            start_ns,
            child_ns: 0,
            allocs_at_open,
            child_allocs: 0,
        });
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let end_ns = self.now_ns();
        let allocs = thread_allocs();
        // Every caller pairs close() with an open() on the same tracer.
        // odp-check: allow(unwrap)
        let frame = self.stack.pop().expect("close() without a matching open()");
        let dur = end_ns.saturating_sub(frame.start_ns);
        let spent_allocs = allocs - frame.allocs_at_open;
        let totals = self.layer_mut(frame.name);
        totals.calls += 1;
        totals.self_ns += dur.saturating_sub(frame.child_ns);
        totals.self_allocs += spent_allocs.saturating_sub(frame.child_allocs);
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.child_allocs += spent_allocs;
                p.id
            }
            None => {
                self.root_ns += dur;
                0
            }
        };
        self.keep(Span {
            id: frame.id,
            parent,
            op: frame.op,
            name: frame.name,
            start_ns: frame.start_ns,
            end_ns,
        });
    }

    fn keep(&mut self, span: Span) {
        self.spans_total += 1;
        if self.spans.len() < SPAN_CAP {
            self.spans.push(span);
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: Option<u64>, f: impl FnOnce() -> R) -> R {
        self.open(name, op);
        let out = f();
        self.close();
        out
    }

    /// Adds a root span over `[start_ns, end_ns]` that encloses every
    /// root span recorded so far — for a track whose outermost
    /// interval (a driver thread's lifetime) is only known afterwards.
    pub fn enclose(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        assert!(self.stack.is_empty(), "enclose() with spans still open");
        let dur = end_ns.saturating_sub(start_ns);
        let id = self.next_id;
        self.next_id += 1;
        let covered = self.root_ns;
        let totals = self.layer_mut(name);
        totals.calls += 1;
        totals.self_ns += dur.saturating_sub(covered);
        for s in &mut self.spans {
            if s.parent == 0 {
                s.parent = id;
            }
        }
        self.root_ns = self.root_ns.max(dur);
        self.keep(Span {
            id,
            parent: 0,
            op: 0,
            name,
            start_ns,
            end_ns,
        });
    }

    fn layer_mut(&mut self, name: &'static str) -> &mut LayerTotals {
        let at = match self.layers.iter().position(|(n, _)| *n == name) {
            Some(at) => at,
            None => {
                self.layers.push((name, LayerTotals::default()));
                self.layers.len() - 1
            }
        };
        &mut self.layers[at].1
    }

    /// Totals for one span name (zero if it never closed).
    pub fn layer(&self, name: &str) -> LayerTotals {
        self.layers
            .iter()
            .find(|(n, _)| *n == name)
            .map_or_else(LayerTotals::default, |(_, t)| *t)
    }

    /// Sum of every layer's self time.
    pub fn self_sum_ns(&self) -> u64 {
        self.layers.iter().map(|(_, t)| t.self_ns).sum()
    }

    /// Total duration of the root spans.
    pub fn root_ns(&self) -> u64 {
        self.root_ns
    }

    /// Spans closed (kept or not).
    pub fn spans_total(&self) -> u64 {
        self.spans_total
    }

    /// True when every opened span was closed.
    pub fn balanced(&self) -> bool {
        self.stack.is_empty()
    }

    /// Folds another track into this one. Span ids of `other` are
    /// offset so they stay unique; its roots stay roots.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.balanced(), "absorbing a tracer with open spans");
        let offset = self.next_id - 1;
        for (name, t) in &other.layers {
            let mine = self.layer_mut(name);
            mine.calls += t.calls;
            mine.self_ns += t.self_ns;
            mine.self_allocs += t.self_allocs;
        }
        let room = SPAN_CAP.saturating_sub(self.spans.len());
        self.spans
            .extend(other.spans.iter().take(room).map(|s| Span {
                id: s.id + offset,
                parent: if s.parent == 0 { 0 } else { s.parent + offset },
                ..*s
            }));
        self.next_id += other.next_id - 1;
        self.spans_total += other.spans_total;
        self.root_ns += other.root_ns;
    }

    /// Writes the kept spans as tab-separated lines:
    /// `id parent op name start_ns end_ns`.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Installs `tracer` as this thread's tracer; [`span`] records into it
/// until [`uninstall`].
pub fn install(tracer: Tracer) {
    TRACER.with(|t| *t.borrow_mut() = Some(tracer));
}

/// The epoch of this thread's tracer, if one is installed, so tracks
/// recorded on other threads can share its timeline.
pub fn installed_epoch() -> Option<Stopwatch> {
    TRACER.with(|t| t.borrow().as_ref().map(|tracer| tracer.epoch))
}

/// Removes and returns this thread's tracer.
pub fn uninstall() -> Option<Tracer> {
    TRACER.with(|t| t.borrow_mut().take())
}

/// Runs `f` inside a span on this thread's tracer, or just runs it when
/// no tracer is installed (the untraced run).
pub fn span<R>(name: &'static str, op: Option<u64>, f: impl FnOnce() -> R) -> R {
    let on = TRACER.with(|t| match t.borrow_mut().as_mut() {
        Some(tracer) => {
            tracer.open(name, op);
            true
        }
        None => false,
    });
    let out = f();
    if on {
        TRACER.with(|t| {
            if let Some(tracer) = t.borrow_mut().as_mut() {
                tracer.close();
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_roots() {
        let mut t = Tracer::new(Stopwatch::start());
        t.span("root", Some(7), || ());
        t.open("root", None);
        t.span("child", None, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        t.span("child", None, || ());
        t.close();
        assert!(t.balanced());
        assert_eq!(t.self_sum_ns(), t.root_ns());
        assert_eq!(t.layer("child").calls, 2);
        assert!(t.layer("child").self_ns >= 2_000_000);
        assert_eq!(t.spans[0].op, 7);
        assert_eq!(t.spans[1].parent, t.spans[3].id);
    }

    #[test]
    fn enclose_charges_the_gaps_to_the_new_root() {
        let mut t = Tracer::new(Stopwatch::start());
        t.span("handler", None, || ());
        let handler = t.root_ns();
        t.enclose("driver", 0, handler + 1_000);
        assert_eq!(t.layer("driver").self_ns, 1_000);
        assert_eq!(t.self_sum_ns(), t.root_ns());
    }

    #[test]
    fn absorbed_tracks_keep_their_sums() {
        let mut a = Tracer::new(Stopwatch::start());
        a.span("x", None, || ());
        let mut b = Tracer::new(Stopwatch::start());
        b.span("y", None, || ());
        a.absorb(b);
        assert_eq!(a.self_sum_ns(), a.root_ns());
        assert_eq!(a.spans_total(), 2);
        assert_eq!(a.spans[1].id, 2);
    }
}
