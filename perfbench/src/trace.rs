//! Span recorder for the traced run, plus a counting allocator.
//!
//! The benchmark wraps each call into a layer's public API in a span:
//! name, start, end, the span that caused it, and the heap allocations
//! made while it was open. Spans stay in memory until the run ends and
//! are then folded into per-name self times: a span's duration minus the
//! part covered by its child spans. Summed over every span, self times
//! account for the traced wall clock, so what the spans miss is the
//! benchmark's own glue — the conservation check reads that share.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Counts heap allocations per thread, so a single-threaded traced
/// section is not billed for other threads' allocations.
pub struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made by the calling thread so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn bump() {
    // `try_with` keeps allocations made during thread teardown, after the
    // counter is gone, from panicking inside the allocator.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counter
// is a plain thread-local `Cell` that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call the span wraps, e.g. `detect` or `session.ingest`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Allocations made while the span was open (children included).
    pub allocs: u64,
}

/// Folded totals for one span name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Folded {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed durations minus the time their children covered.
    pub self_ns: u64,
    /// Allocations minus those of their children.
    pub self_allocs: u64,
}

/// In-memory span recorder. Disabled, it runs the wrapped calls and
/// records nothing, which gives the untraced wall clock the tracing
/// overhead is measured against.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every span a plain call.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
        });
        self.open.push(idx);
        let a0 = allocs();
        self.spans[idx].start_ns = self.now_ns();
        let out = f(self);
        let end = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end;
        span.allocs = allocs() - a0;
        self.open.pop();
        out
    }

    /// Closes spans a panic left open, down to `depth` open spans.
    pub fn unwind_to(&mut self, depth: usize) {
        let end = self.now_ns();
        while self.open.len() > depth {
            let idx = self.open.pop().expect("len > depth");
            self.spans[idx].end_ns = end;
        }
    }

    /// Spans currently open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Adds `n` to the work counter `name` (recorded traced or not).
    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.counters.entry(name).or_default() += n;
    }

    /// A work counter's value (0 if never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Folds spans into per-name self times and self allocations.
pub fn fold(spans: &[Span]) -> BTreeMap<&'static str, Folded> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut child_allocs = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
            child_allocs[p] += s.allocs;
        }
    }
    let mut out: BTreeMap<&'static str, Folded> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let f = out.entry(s.name).or_default();
        f.calls += 1;
        f.self_ns += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        f.self_allocs += s.allocs.saturating_sub(child_allocs[i]);
    }
    out
}

/// Sum of every span's self time, in ns.
pub fn total_self_ns(folded: &BTreeMap<&'static str, Folded>) -> u64 {
    folded.values().map(|f| f.self_ns).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64, allocs: u64) -> Span {
        Span {
            name,
            parent,
            start_ns: start,
            end_ns: end,
            allocs,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // a [0,100) holds b [10,40) and c [50,90); b holds d [20,30).
        let spans = vec![
            span("a", None, 0, 100, 10),
            span("b", Some(0), 10, 40, 4),
            span("d", Some(1), 20, 30, 1),
            span("c", Some(0), 50, 90, 3),
        ];
        let f = fold(&spans);
        assert_eq!(f["a"].self_ns, 30);
        assert_eq!(f["b"].self_ns, 20);
        assert_eq!(f["c"].self_ns, 40);
        assert_eq!(f["d"].self_ns, 10);
        assert_eq!(f["a"].self_allocs, 3);
        assert_eq!(f["b"].self_allocs, 3);
        // Self times of a tree add up to its root's duration.
        assert_eq!(total_self_ns(&f), 100);
    }

    #[test]
    fn repeated_names_accumulate() {
        let spans = vec![span("x", None, 0, 5, 0), span("x", None, 5, 12, 2)];
        let f = fold(&spans);
        assert_eq!(f["x"].calls, 2);
        assert_eq!(f["x"].self_ns, 12);
        assert_eq!(f["x"].self_allocs, 2);
    }

    #[test]
    fn recorder_nests_and_counts() {
        let mut tr = Tracer::new(true);
        let v = tr.span("outer", |tr| {
            let inner = tr.span("inner", |_| vec![1u8, 2, 3]);
            inner.len()
        });
        assert_eq!(v, 3);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].allocs >= 1);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let f = fold(spans);
        assert_eq!(total_self_ns(&f), spans[0].end_ns - spans[0].start_ns);
    }

    #[test]
    fn disabled_recorder_records_nothing_but_counts_work() {
        let mut tr = Tracer::new(false);
        tr.span("a", |tr| tr.count("events", 3.0));
        assert!(tr.spans().is_empty());
        assert_eq!(tr.counter("events"), 3.0);
    }

    #[test]
    fn unwind_closes_spans_left_open_by_a_panic() {
        let mut tr = Tracer::new(true);
        let depth = tr.depth();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tr.span("boom", |_| panic!("layer panicked"))
        }));
        assert!(r.is_err());
        tr.unwind_to(depth);
        assert_eq!(tr.depth(), 0);
        assert!(tr.spans()[0].end_ns >= tr.spans()[0].start_ns);
    }
}
