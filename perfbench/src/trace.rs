//! In-memory spans recorded by the benchmark around its calls into the
//! hlts layers. Nothing inside the program is instrumented: a span
//! starts before a layer's public function is called and ends when it
//! returns. Spans are kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The layer name of time inside an op that no child span covers.
pub const OTHER: &str = "other";

/// One timed interval. Spans of one op share `op`; `parent` is the
/// span that was open when this one began.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans of one thread of work.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = self.now();
    }

    /// Close `id` and every span opened after it that is still open
    /// (an op that ended early on an error).
    pub fn close_from(&mut self, id: usize) {
        while let Some(&top) = self.open.last() {
            if top < id {
                break;
            }
            self.open.pop();
            self.spans[top].end = self.now();
        }
    }

    /// Time `f` as a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    /// Record a span from timestamps taken elsewhere (the serve
    /// clients' event arrival times).
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: u64,
        end: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its children cover (children are clipped to the
/// parent and their overlaps counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered.min(s.dur())
        })
        .collect()
}

/// The layer split of one op: every layer's self time inside the op's
/// root span, with uncovered time under [`OTHER`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpSplit {
    pub op: u64,
    pub root: &'static str,
    /// The root span's duration.
    pub total: u64,
    /// Self time per layer name; sums to `total` when every child lies
    /// inside its parent and siblings do not overlap.
    pub layers: BTreeMap<&'static str, u64>,
}

impl OpSplit {
    pub fn accounted(&self) -> u64 {
        self.layers.values().sum()
    }
}

/// Split every root span into its layers' self times.
pub fn splits(spans: &[Span]) -> Vec<OpSplit> {
    let own = self_times(spans);
    let mut root_of = Vec::with_capacity(spans.len());
    let mut out: Vec<OpSplit> = Vec::new();
    let mut slot_of_root: BTreeMap<usize, usize> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let root = s.parent.map_or(i, |p| root_of[p]);
        root_of.push(root);
        let slot = *slot_of_root.entry(root).or_insert_with(|| {
            out.push(OpSplit {
                op: spans[root].op,
                root: spans[root].name,
                total: spans[root].dur(),
                layers: BTreeMap::new(),
            });
            out.len() - 1
        });
        let name = if i == root { OTHER } else { s.name };
        *out[slot].layers.entry(name).or_insert(0) += own[i];
    }
    out
}

/// Tab-separated dump of the spans (one line each, with self time).
pub fn to_tsv(spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::from("span\top\tname\tparent\tstart_ns\tend_ns\tself_ns\n");
    for (i, (s, own)) in spans.iter().zip(own).enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{i}\t{}\t{}\t{parent}\t{}\t{}\t{own}",
            s.op, s.name, s.start, s.end
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            op: 1,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("op", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 50, 90),
            span("a.inner", Some(1), 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("op", None, 0, 100),
            span("a", Some(0), 10, 60),
            span("b", Some(0), 40, 80),
            span("c", Some(0), 90, 150),
        ];
        // covered: [10, 80) and [90, 100) = 80
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn split_accounts_for_the_whole_op() {
        let spans = [
            span("op", None, 0, 100),
            span("core", Some(0), 10, 40),
            span("tcov", Some(0), 50, 90),
            span("core", Some(0), 92, 95),
            span("op", None, 200, 260),
            span("probe", None, 300, 310),
        ];
        let s = splits(&spans);
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].total, 100);
        assert_eq!(s[0].layers["core"], 33);
        assert_eq!(s[0].layers["tcov"], 40);
        assert_eq!(s[0].layers[OTHER], 27);
        assert_eq!(s[0].accounted(), s[0].total);
        assert_eq!(s[1].layers[OTHER], 60);
        assert_eq!(s[2].root, "probe");
    }

    #[test]
    fn tracer_nests_and_records() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        let op = t.begin("op", 7);
        let x = t.span("inner", 7, || 21 * 2);
        t.end(op);
        assert_eq!(x, 42);
        assert_eq!(t.spans()[1].parent, Some(0));
        let r = t.record("op", 8, None, 5, 9);
        t.record("child", 8, Some(r), 6, 7);
        assert_eq!(t.spans()[3].parent, Some(2));
        let s = splits(t.spans());
        assert!(s.iter().all(|s| s.accounted() == s.total));
        assert!(to_tsv(t.spans()).lines().count() == 5);
    }
}
