//! In-memory spans recorded around calls into the program's public API.
//!
//! A span has a name, a start, an end, and the span that was open on the
//! same thread when it began (its parent). Spans stay in memory until the
//! run ends. A disabled tracer records nothing and costs one branch.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Span ids and timestamps are process-wide, so spans of several tracers
/// (one per traced pass) combine into one tree.
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static BASE: OnceLock<Instant> = OnceLock::new();

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Units of work the call handled (rows, bytes), 0 when not counted.
    pub items: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: the first two dot-separated parts of its
    /// name (`core.model.solve` -> `core.model`). Benchmark glue spans have
    /// one-part names and belong to `bench`.
    pub fn layer(&self) -> &'static str {
        match self.name.match_indices('.').nth(1) {
            Some((i, _)) => &self.name[..i],
            None => "bench",
        }
    }
}

pub struct Tracer {
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        BASE.get_or_init(Instant::now);
        Tracer {
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { open: None };
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        SpanGuard {
            open: Some(Open {
                tracer: self,
                id,
                parent,
                name,
                start: Instant::now(),
                items: 0,
            }),
        }
    }

    /// Time `f` as a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name);
        f()
    }

    /// Every closed span, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

fn ns(t: Instant) -> u64 {
    t.duration_since(*BASE.get().expect("set by Tracer::new"))
        .as_nanos() as u64
}

struct Open<'t> {
    tracer: &'t Tracer,
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    start: Instant,
    items: u64,
}

pub struct SpanGuard<'t> {
    open: Option<Open<'t>>,
}

impl SpanGuard<'_> {
    pub fn items(&mut self, items: u64) {
        if let Some(open) = &mut self.open {
            open.items = items;
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        OPEN.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&id| id == open.id) {
                stack.remove(pos);
            }
        });
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: ns(open.start),
            end_ns: ns(end),
            items: open.items,
        };
        if let Ok(mut spans) = open.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children counted once, children
/// clipped to the parent's interval).
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            let mut intervals: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            intervals.sort_unstable();
            let mut reach = s.start_ns;
            for (a, b) in intervals {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Self time by layer of every span under a root span named `root`, and
/// the roots' summed duration. Spans under other roots (replays and probes
/// that redo work a front door already did) are left out, so the layers'
/// times add up to the roots' time with nothing counted twice.
pub fn layer_times_under(spans: &[Span], root: &str) -> (BTreeMap<&'static str, u64>, u64) {
    let parent: BTreeMap<u32, Option<u32>> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let roots: BTreeMap<u32, &Span> = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == root)
        .map(|s| (s.id, s))
        .collect();
    let root_of = |mut id: u32| {
        while let Some(Some(p)) = parent.get(&id) {
            id = *p;
        }
        id
    };
    let own = self_times(spans);
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        if roots.contains_key(&root_of(s.id)) {
            *by_layer.entry(s.layer()).or_default() += own[&s.id];
        }
    }
    (by_layer, roots.values().map(|s| s.dur_ns()).sum())
}

/// Write spans as tab-separated lines: id, parent (0 = root), name,
/// start_ns, end_ns, items.
pub fn write_tsv(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut out = String::from("id\tparent\tname\tstart_ns\tend_ns\titems\n");
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent.unwrap_or(0),
            s.name,
            s.start_ns,
            s.end_ns,
            s.items
        )
        .expect("write to String");
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
            items: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            // Overlaps child 2 (as children on two threads do): 10..40 once.
            span(3, Some(1), 20, 40),
            // Runs past its parent's end: only 90..100 counts.
            span(4, Some(1), 90, 120),
            span(5, Some(2), 12, 14),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 30 - 10);
        assert_eq!(st[&2], 20 - 2);
        assert_eq!(st[&3], 20);
        assert_eq!(st[&5], 2);
    }

    #[test]
    fn layer_times_count_only_spans_under_the_named_roots() {
        let named = |id, parent, name, start_ns, end_ns| Span {
            name,
            ..span(id, parent, start_ns, end_ns)
        };
        let spans = [
            named(1, None, "pass", 0, 100),
            named(2, Some(1), "core.trainer.fit", 10, 60),
            named(3, Some(2), "core.data.read", 20, 30),
            named(4, Some(1), "core.eval.evaluate_gzsl", 70, 90),
            // A probe redoing the trainer's work: not part of the pass.
            named(5, None, "probe", 100, 200),
            named(6, Some(5), "core.model.solve", 110, 190),
        ];
        let (by_layer, total) = layer_times_under(&spans, "pass");
        assert_eq!(total, 100);
        assert_eq!(by_layer["bench"], 100 - 50 - 20);
        assert_eq!(by_layer["core.trainer"], 40);
        assert_eq!(by_layer["core.data"], 10);
        assert_eq!(by_layer["core.eval"], 20);
        assert!(!by_layer.contains_key("core.model"));
        assert_eq!(by_layer.values().sum::<u64>(), total);
    }

    #[test]
    fn nested_guards_record_parents_and_layers() {
        let tracer = Tracer::new(true);
        {
            let _outer = tracer.span("cv");
            let mut inner = tracer.span("core.model.solve");
            inner.items(7);
        }
        tracer.time("core.data.read", || ());
        let spans = tracer.spans();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect("span").clone();
        let (cv, solve, read) = (
            by_name("cv"),
            by_name("core.model.solve"),
            by_name("core.data.read"),
        );
        assert_eq!(solve.parent, Some(cv.id));
        assert_eq!(solve.items, 7);
        assert_eq!((cv.parent, read.parent), (None, None));
        assert!(cv.start_ns <= solve.start_ns && solve.end_ns <= cv.end_ns);
        assert_eq!((cv.layer(), solve.layer()), ("bench", "core.model"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        tracer.time("x", || ());
        assert!(tracer.spans().is_empty());
    }
}
