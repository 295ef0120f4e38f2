//! In-memory spans recorded around calls into the program's layers, and
//! the self-time arithmetic that turns them into a per-layer ledger.
//!
//! A span's *self time* is its duration minus the part of its interval
//! covered by its direct children (their union, so overlapping children
//! are not subtracted twice). For a correctly nested tree the self times
//! of a root and all its descendants add up to the root's duration
//! exactly; [`reconcile`] checks that, and a child recorded as a sibling
//! of the span it actually ran inside shows up as a surplus.

use std::fmt::Write as _;
use std::time::Instant;

/// Largest gap [`reconcile`] accepts between a root's duration and the
/// self times of its tree. Times are integer nanoseconds, so a correctly
/// nested tree reconciles exactly; any overlap between siblings shows up
/// as a surplus of its full length.
pub const RECONCILE_TOLERANCE_NS: u64 = 1_000;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the tracer that recorded it.
    pub id: u32,
    /// The span this one ran inside (`None` for a root).
    pub parent: Option<u32>,
    /// Layer boundary name, e.g. `compiler` or `sim.run`.
    pub name: &'static str,
    /// Index of the cell (or experiment) the span belongs to.
    pub cell: usize,
    /// Nanoseconds since the run's epoch.
    pub start: u64,
    /// Nanoseconds since the run's epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Records the spans of one cell on one thread.
pub struct Tracer {
    epoch: Instant,
    cell: usize,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, cell: usize) -> Tracer {
        Tracer {
            epoch,
            cell,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<u32>) -> u32 {
        let id = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            id,
            parent,
            name,
            cell: self.cell,
            start,
            end: start,
        });
        id
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: u32) {
        let now = self.now();
        self.spans[id as usize].end = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, Some(parent));
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of `span`: its duration minus the union of its direct
/// children's intervals, each clipped to the span.
pub fn self_ns(spans: &[Span], span: &Span) -> u64 {
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(span.id) && s.cell == span.cell)
        .map(|s| (s.start.max(span.start), s.end.min(span.end)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    span.dur() - covered
}

/// Checks that the self times of `root` and every descendant add up to
/// `root`'s duration within [`RECONCILE_TOLERANCE_NS`].
///
/// # Errors
/// The gap, naming the root, when they do not.
pub fn reconcile(spans: &[Span], root: &Span) -> Result<(), String> {
    let mut sum = 0u64;
    let mut stack = vec![root];
    while let Some(s) = stack.pop() {
        sum += self_ns(spans, s);
        stack.extend(
            spans
                .iter()
                .filter(|c| c.parent == Some(s.id) && c.cell == s.cell),
        );
    }
    let gap = sum.abs_diff(root.dur());
    if gap > RECONCILE_TOLERANCE_NS {
        return Err(format!(
            "span {} of cell {}: self times sum to {sum} ns but the span lasts {} ns",
            root.name,
            root.cell,
            root.dur()
        ));
    }
    Ok(())
}

/// Sum of the durations of the spans named `name`, in milliseconds.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur() as f64 / 1e6)
        .sum()
}

/// Sum of the self times of the spans named `name`, in milliseconds.
pub fn self_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| self_ns(spans, s) as f64 / 1e6)
        .sum()
}

/// Number of spans named `name`.
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// Appends `spans` to `out` as JSON lines, one object per span, each
/// tagged with the pass that recorded it.
pub fn write_jsonl(out: &mut String, pass: &str, spans: &[Span]) {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"pass\":\"{pass}\",\"cell\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.cell, s.id, s.name, s.start, s.end
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            cell: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root 0..100 with children 10..30 and 50..60; a grandchild
        // 12..20 belongs to the first child only.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 50, 60),
            span(3, Some(1), 12, 20),
        ];
        assert_eq!(self_ns(&spans, &spans[0]), 70);
        assert_eq!(self_ns(&spans, &spans[1]), 12);
        assert_eq!(self_ns(&spans, &spans[2]), 10);
        assert_eq!(self_ns(&spans, &spans[3]), 8);
        assert_eq!(reconcile(&spans, &spans[0]), Ok(()));
    }

    #[test]
    fn child_inside_a_sibling_phase_is_caught() {
        // The `wake_repair`-inside-`issue` shape, in microseconds:
        // `repair` (20..30) ran inside `issue` (10..40) but was recorded
        // as a sibling under the step (0..100). The step's self time
        // still counts the covered interval once, but the tree's self
        // times now exceed the step by the repair's 10 µs, which
        // reconciliation reports.
        const US: u64 = 1_000;
        let spans = vec![
            span(0, None, 0, 100 * US),
            span(1, Some(0), 10 * US, 40 * US),
            span(2, Some(0), 20 * US, 30 * US),
        ];
        assert_eq!(self_ns(&spans, &spans[0]), 70 * US);
        assert_eq!(self_ns(&spans, &spans[1]), 30 * US);
        let sum: u64 = spans.iter().map(|s| self_ns(&spans, s)).sum();
        assert_eq!(sum, 110 * US);
        assert!(reconcile(&spans, &spans[0]).is_err());
        // Recorded under the span it ran inside, the tree adds up.
        let fixed = vec![
            span(0, None, 0, 100 * US),
            span(1, Some(0), 10 * US, 40 * US),
            span(2, Some(1), 20 * US, 30 * US),
        ];
        assert_eq!(self_ns(&fixed, &fixed[1]), 20 * US);
        assert_eq!(reconcile(&fixed, &fixed[0]), Ok(()));
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span(0, None, 10, 20), span(1, Some(0), 5, 15)];
        assert_eq!(self_ns(&spans, &spans[0]), 5);
    }

    #[test]
    fn spans_of_other_cells_are_not_children() {
        let mut other = span(1, Some(0), 10, 20);
        other.cell = 1;
        let spans = vec![span(0, None, 0, 100), other];
        assert_eq!(self_ns(&spans, &spans[0]), 100);
    }

    #[test]
    fn tracer_nests_and_totals() {
        let mut t = Tracer::new(Instant::now(), 3);
        let root = t.begin("cell", None);
        let v = t.time("work", root, || 7);
        t.end(root);
        assert_eq!(v, 7);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans.iter().all(|s| s.cell == 3 && s.end >= s.start));
        assert_eq!(count(&spans, "work"), 1);
        assert!(total_ms(&spans, "cell") >= total_ms(&spans, "work"));
        assert_eq!(reconcile(&spans, &spans[0]), Ok(()));
    }
}
