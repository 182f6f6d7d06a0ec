//! In-memory spans around the benchmark's own calls into each layer.
//!
//! Spans are recorded from the benchmark's files only (the program
//! under test is not edited): one span per call across a layer
//! boundary, kept in memory and written out once at exit. Parents are
//! passed explicitly — campaign workers run on several threads, so a
//! thread-local "current span" would lose the cross-thread edges.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call. `parent == 0` marks a root; spans of one campaign
/// share `campaign` (0 = not tied to a campaign).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (≥ 1).
    pub id: u64,
    /// Id of the span that caused this one, 0 for a root.
    pub parent: u64,
    /// Campaign the call belongs to (index within the run), 0 if none.
    pub campaign: u64,
    /// `<layer>.<module>.<call>`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. Disabled, [`Tracer::span`] is a plain call: no clock
/// read, no lock — which is how the end-to-end runs execute.
pub struct Tracer {
    enabled: bool,
    paused: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or does nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            paused: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Stop (or resume) recording for a while — to time a stretch of
    /// the traced run as the untraced run would execute it.
    pub fn pause(&self, paused: bool) {
        // A switch for this tracer only: publishes no other data.
        self.paused.store(paused, Ordering::Relaxed);
    }

    /// Run `f` inside a span; `f` receives the span's id to parent its
    /// own calls with (0 when disabled).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        campaign: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled || self.paused.load(Ordering::Relaxed) {
            return f(0);
        }
        // A statistic-free id allocator: publishes nothing else.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("no span is recorded while panicking")
            .push(Span {
                id,
                parent,
                campaign,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store").clone()
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span store").iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"campaign\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.campaign, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-name totals of a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (start, end) in intervals {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// A span's self time: its duration minus the part of that interval
/// its child spans cover (children running in parallel on other
/// threads overlap; the union counts the overlap once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .remove(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Self-time table: totals per span name, ordered by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut table: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let row = table.entry(s.name).or_default();
        row.count += 1;
        row.total_ns += s.dur_ns();
        row.self_ns += selfs[&s.id];
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            campaign: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "root", 0, 100),
            // Two overlapping children (parallel workers) and one apart.
            span(2, 1, "child", 10, 50),
            span(3, 1, "child", 30, 60),
            span(4, 1, "child", 80, 90),
            // A grandchild only reduces its own parent.
            span(5, 2, "leaf", 20, 30),
            // A child overhanging its parent is clipped.
            span(6, 4, "leaf", 85, 120),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - (50 + 10)); // [10,60] ∪ [80,90]
        assert_eq!(selfs[&2], 40 - 10);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 10 - 5);
        assert_eq!(selfs[&5], 10);
        assert_eq!(selfs[&6], 35);
        let table = by_name(&spans);
        assert_eq!(
            table["child"],
            NameTotals {
                count: 3,
                total_ns: 80,
                self_ns: 30 + 30 + 5
            }
        );
        assert_eq!(table["root"].self_ns, 40);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let got = t.span("a.b", 0, 0, |id| {
            assert_eq!(id, 0);
            7
        });
        assert_eq!(got, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_parents() {
        let t = Tracer::new(true);
        t.span("outer", 0, 3, |outer| {
            t.span("inner", outer, 3, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!((inner.name, outer.name), ("inner", "outer"));
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(
            self_times(&spans)[&outer.id],
            outer.dur_ns() - inner.dur_ns()
        );
    }
}
