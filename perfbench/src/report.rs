//! Measurement windows, metric records and the printed result.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use hlts_dse::json_string;

use crate::catalog::{self, Def};
use crate::stats::{self, Dist, Ratio};
use crate::{sys, trace};

/// The timed window of one run. Work comes in rounds (one pass over
/// the workload's inputs), and the window ends at the round boundary
/// nearest to its deadline, so every input weighs the same in every
/// run and the run lasts `seconds` give or take half a round.
#[derive(Debug)]
pub struct Window {
    start: Instant,
    cpu0: f64,
    steal0: f64,
    seconds: f64,
    round_ends: Vec<f64>,
    /// Host steal seconds at each round end.
    round_steal: Vec<f64>,
}

impl Window {
    pub fn open(seconds: f64) -> Window {
        Window {
            start: Instant::now(),
            cpu0: sys::cpu_seconds(),
            steal0: sys::steal_seconds(),
            seconds,
            round_ends: Vec::new(),
            round_steal: Vec::new(),
        }
    }

    /// Mark a round finished; whether another one should start.
    pub fn round_done(&mut self) -> bool {
        let now = self.start.elapsed().as_secs_f64();
        self.round_ends.push(now);
        self.round_steal.push(sys::steal_seconds());
        let mean = now / self.round_ends.len() as f64;
        now + mean / 2.0 < self.seconds
    }

    pub fn rounds(&self) -> usize {
        self.round_ends.len()
    }

    /// The window's measurements.
    pub fn close(self) -> Closed {
        let wall = self.start.elapsed().as_secs_f64();
        let cpu = sys::cpu_seconds() - self.cpu0;
        let steal = sys::steal_seconds() - self.steal0;
        let mut prev = 0.0;
        let rounds = self
            .round_ends
            .iter()
            .map(|&t| {
                let d = t - prev;
                prev = t;
                d
            })
            .collect();
        let mut prev = self.steal0;
        let round_steal_s = self
            .round_steal
            .iter()
            .map(|&t| {
                let d = t - prev;
                prev = t;
                d
            })
            .collect();
        Closed {
            wall_s: wall,
            cpu_s: cpu,
            steal_s: steal,
            round_secs: rounds,
            round_steal_s,
        }
    }
}

/// What a closed [`Window`] measured.
#[derive(Debug, Default)]
pub struct Closed {
    pub wall_s: f64,
    /// Process CPU seconds, all threads.
    pub cpu_s: f64,
    /// Host steal seconds during the window.
    pub steal_s: f64,
    pub round_secs: Vec<f64>,
    /// Host steal seconds per round.
    pub round_steal_s: Vec<f64>,
}

/// Time `n` set-ups and keep the last one's product.
pub fn repeat_setup<T>(n: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        let t = Instant::now();
        let built = setup();
        times.push(t.elapsed().as_secs_f64());
        last = Some(built);
    }
    (last.expect("at least one set-up ran"), times)
}

/// Set-ups timed before the window (the last one is used) and again
/// after it, so a short burst of host noise cannot move them all;
/// `setup_s` is the median of both sets.
pub const SETUPS_BEFORE: usize = 10;
pub const SETUPS_AFTER: usize = 11;

/// The raw samples of one untraced run.
#[derive(Debug, Default)]
pub struct E2eSamples {
    pub setup_s: Vec<f64>,
    /// Completed ops.
    pub ops: usize,
    /// The latency samples the op percentiles run over.
    pub op_ms: Vec<f64>,
    pub window: Closed,
}

/// Design and test quality over a workload's reference designs.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Sum of coverage percentages and the number of graded designs.
    pub coverage: Ratio,
    pub effort: f64,
    pub test_cycles: f64,
    pub area: f64,
    pub steps: f64,
}

#[derive(Debug, Clone)]
pub struct Value {
    pub value: f64,
    pub dist: Option<Dist>,
    pub note: String,
}

/// Everything one run prints.
#[derive(Debug)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub rounds: usize,
    pub attempted: usize,
    pub failed: usize,
    /// Output checks that failed (each also counts its op as failed).
    pub check_failures: Vec<String>,
    pub values: BTreeMap<&'static str, Value>,
    /// Extra human-readable lines (per-design splits, shares).
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &str, seed: u64, seconds: u64, trace: bool) -> Report {
        Report {
            workload: workload.to_owned(),
            seed,
            seconds,
            trace,
            rounds: 0,
            attempted: 0,
            failed: 0,
            check_failures: Vec::new(),
            values: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    pub fn set(
        &mut self,
        name: &'static str,
        value: f64,
        samples: &[f64],
        note: impl Into<String>,
    ) {
        let dist = (!samples.is_empty()).then(|| Dist::of(samples));
        self.values.insert(
            name,
            Value {
                value,
                dist,
                note: note.into(),
            },
        );
    }

    pub fn set_ratio(&mut self, name: &'static str, r: Ratio, what: &str) {
        self.set(name, r.value(), &[], format!("{what} {}", r.base()));
    }

    /// Record a failed output check; `ops` is how many ops it fails.
    pub fn fail(&mut self, ops: usize, why: impl Into<String>) {
        self.failed += ops;
        self.check_failures.push(why.into());
    }

    /// The end-to-end metrics of an untraced run.
    pub fn set_e2e(&mut self, s: &E2eSamples, quality: &Quality) {
        let (ops, n) = (s.ops, s.op_ms.len());
        self.set(
            "setup_s",
            stats::median(&s.setup_s),
            &s.setup_s,
            format!("median of {} set-ups", s.setup_s.len()),
        );
        let w = &s.window;
        let per_round: Vec<f64> = w
            .round_secs
            .iter()
            .map(|&t| (ops as f64 / w.round_secs.len().max(1) as f64) / t)
            .collect();
        self.notes.push(format!(
            "rounds (s, host steal s): {}",
            w.round_secs
                .iter()
                .zip(&w.round_steal_s)
                .map(|(t, st)| format!("{t:.2} ({st:.2})"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        // The median over rounds: a burst of host noise slows one round,
        // not the figure.
        self.set(
            "ops_per_s",
            stats::median(&per_round),
            &per_round,
            format!(
                "median over {} rounds; {ops} ops in {:.3} s ({:.2} s host steal)",
                w.round_secs.len(),
                w.wall_s,
                w.steal_s
            ),
        );
        self.set(
            "op_p50_ms",
            stats::median(&s.op_ms),
            &s.op_ms,
            format!("n={n} latency samples of {ops} ops"),
        );
        let t = stats::tail(&s.op_ms);
        self.set(
            "op_tail_ms",
            t.value,
            &[],
            format!("p{:.1} of n={}, {} samples beyond", t.pct, t.n, t.beyond),
        );
        self.set(
            "cpu_ms_per_op",
            w.cpu_s * 1000.0 / ops.max(1) as f64,
            &[],
            format!(
                "{:.2} CPU s over {ops} ops, {} host cpus",
                w.cpu_s,
                sys::host_cpus()
            ),
        );
        let ok = Ratio::new(
            self.attempted.saturating_sub(self.failed) as f64,
            self.attempted as f64,
        );
        self.set_ratio("ok_frac", ok, "ok/attempted");
        self.set("peak_rss_mb", sys::peak_rss_mb(), &[], "VmHWM");
        self.set_ratio(
            "fault_coverage_pct",
            quality.coverage,
            "mean: sum of % / graded designs",
        );
        self.set(
            "tg_effort",
            quality.effort,
            &[],
            "sum over reference designs",
        );
        self.set(
            "test_cycles",
            quality.test_cycles,
            &[],
            "sum over reference designs",
        );
        self.set(
            "design_area",
            quality.area,
            &[],
            "sum of hardware cost totals",
        );
        self.set("design_steps", quality.steps, &[], "sum of execution_time");
    }

    /// Per-layer means and the layer split of traced ops, plus the
    /// check that each op's layer self times and `other` add up to it.
    /// `layer_metric` maps a span name to the metric its mean self time
    /// per op is reported as.
    pub fn set_split(&mut self, spans: &[trace::Span], layer_metric: &[(&str, &'static str)]) {
        let ops: Vec<trace::OpSplit> = trace::splits(spans)
            .into_iter()
            .filter(|s| s.root == "op")
            .collect();
        let n = ops.len().max(1) as f64;
        let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
        let mut traced_ns = 0;
        let mut bad = 0;
        for s in &ops {
            traced_ns += s.total;
            if s.accounted() != s.total {
                bad += 1;
            }
            for (k, v) in &s.layers {
                *totals.entry(k).or_insert(0) += v;
            }
        }
        if bad > 0 {
            self.fail(
                0,
                format!("{bad} traced op(s) whose layer self times do not sum to the op time"),
            );
        }
        let accounted: u64 = totals.values().sum();
        let mut line = format!(
            "layer split over {} traced ops ({:.1} ms per op, layers + other = {:.1} ms):",
            ops.len(),
            traced_ns as f64 / n / 1e6,
            accounted as f64 / n / 1e6
        );
        for (k, v) in &totals {
            let _ = write!(
                line,
                " {k} {:.3} ms ({:.1}%);",
                *v as f64 / n / 1e6,
                100.0 * *v as f64 / traced_ns.max(1) as f64
            );
        }
        self.notes.push(line);
        for (span, metric) in layer_metric {
            if let Some(v) = totals.get(span) {
                let note = format!("mean self time per op over {} ops", ops.len());
                self.set(metric, *v as f64 / n / 1e6, &[], note);
            }
        }
        let other = totals.get(trace::OTHER).copied().unwrap_or(0);
        self.set(
            "other_ms",
            other as f64 / n / 1e6,
            &[],
            "mean uncovered time per op",
        );
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
            && self.failed == 0
            && self.attempted > 0
            && self.values.values().all(|v| v.value.is_finite())
    }

    fn defs(&self) -> &'static [Def] {
        if self.trace {
            catalog::PER_LAYER
        } else {
            catalog::END_TO_END
        }
    }

    /// Print the human-readable report, the spread record and, last,
    /// the one-line result object.
    pub fn print(&self) {
        println!(
            "hlts perfbench: workload={} seed={} seconds={} trace={} host_cpus={} commit={} source={}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace),
            sys::host_cpus(),
            sys::commit(),
            sys::source_fingerprint()
        );
        println!(
            "rounds={} attempted={} failed={}",
            self.rounds, self.attempted, self.failed
        );
        for d in self.defs() {
            let v = self.value(d.name);
            let mut line = format!(
                "  {:<30} {:>14.6} {:<7} {}",
                d.name, v.value, d.unit, v.note
            );
            if let Some(q) = v.dist {
                let _ = write!(
                    line,
                    " [min {:.6} q1 {:.6} median {:.6} q3 {:.6} max {:.6}]",
                    q.min, q.q1, q.median, q.q3, q.max
                );
            }
            if let Some(bound) = d.bound {
                let _ = write!(line, " ({} is better; bound {bound})", d.better);
            }
            if !d.moves.is_empty() {
                let _ = write!(line, " -> moves {}", d.moves);
            }
            println!("{line}");
        }
        for n in &self.notes {
            println!("{n}");
        }
        if self.check_failures.is_empty() {
            println!("output checks: all passed");
        } else {
            for f in &self.check_failures {
                println!("output check FAILED: {f}");
            }
        }
        println!("record {}", self.record_json());
        println!("{}", self.result_json());
    }

    fn value(&self, name: &str) -> Value {
        self.values.get(name).cloned().unwrap_or(Value {
            value: 0.0,
            dist: None,
            note: format!("n/a: {} does not exercise this layer", self.workload),
        })
    }

    fn record_json(&self) -> String {
        let mut m = String::new();
        for (i, d) in self.defs().iter().enumerate() {
            let v = self.value(d.name);
            let q = v.dist.unwrap_or(Dist {
                n: 1,
                min: v.value,
                q1: v.value,
                median: v.value,
                q3: v.value,
                max: v.value,
            });
            let _ = write!(
                m,
                "{}{}: {{\"value\": {}, \"unit\": {}, \"n\": {}, \"min\": {}, \"q1\": {}, \
                 \"median\": {}, \"q3\": {}, \"max\": {}, \"note\": {}}}",
                if i == 0 { "" } else { ", " },
                json_string(d.name),
                num(v.value),
                json_string(d.unit),
                q.n,
                num(q.min),
                num(q.q1),
                num(q.median),
                num(q.q3),
                num(q.max),
                json_string(&v.note)
            );
        }
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host_cpus\": {}, \
             \"commit\": {}, \"source\": {}, \"rounds\": {}, \"attempted\": {}, \"failed\": {}, \
             \"metrics\": {{{m}}}}}",
            json_string(&self.workload),
            self.seed,
            self.seconds,
            self.trace,
            sys::host_cpus(),
            json_string(&sys::commit()),
            json_string(&sys::source_fingerprint()),
            self.rounds,
            self.attempted,
            self.failed
        )
    }

    fn result_json(&self) -> String {
        let mut m = String::new();
        for (i, d) in self.defs().iter().enumerate() {
            let _ = write!(
                m,
                "{}{}: {{\"value\": {}, \"unit\": {}}}",
                if i == 0 { "" } else { ", " },
                json_string(d.name),
                num(self.value(d.name).value),
                json_string(d.unit)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted,
            self.failed.min(self.attempted)
        )
    }
}

/// A JSON number. A non-finite value (a bug) prints as 0, and
/// [`Report::correct`] then fails the run.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_owned()
    }
}
