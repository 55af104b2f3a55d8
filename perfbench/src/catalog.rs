//! Every metric the benchmark reports: name, unit, direction, the
//! regression bound of end-to-end metrics, and for per-layer metrics
//! the end-to-end metric and workload the layer should move.
//! `BENCHMARK.json` repeats the names, units, directions and bounds; a
//! unit test keeps the two in step.

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// End-to-end metrics: the share of the parent's median by which
    /// the metric may worsen.
    pub bound: Option<f64>,
    /// Per-layer metrics: what the layer should move, and where.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
        moves,
    }
}

pub const WORKLOADS: [&str; 3] = ["atpg-paper", "synth-cli", "serve-mix"];

pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("op_p50_ms", "ms", "lower", 0.25),
    e2e("op_tail_ms", "ms", "lower", 0.25),
    e2e("cpu_ms_per_op", "ms", "lower", 0.25),
    e2e("ok_frac", "ratio", "higher", 0.01),
    e2e("peak_rss_mb", "MB", "lower", 0.2),
    e2e("fault_coverage_pct", "%", "higher", 0.02),
    e2e("tg_effort", "effort", "lower", 0.02),
    e2e("test_cycles", "cycles", "lower", 0.02),
    e2e("design_area", "cost", "lower", 0.02),
    e2e("design_steps", "steps", "lower", 0.02),
];

const SYNTH: &str = "ops_per_s, op_p50_ms on synth-cli; cold run ops on serve-mix";
const TCOV: &str = "op_p50_ms, ops_per_s, tg_effort on atpg-paper";
const SERVE: &str = "op_p50_ms, op_tail_ms on serve-mix";

pub const PER_LAYER: &[Def] = &[
    layer(
        "dfg.parse_ms",
        "ms",
        "lower",
        "op_p50_ms on synth-cli (small share)",
    ),
    layer(
        "jobs.ctx_build_ms",
        "ms",
        "lower",
        "op_p50_ms on synth-cli; on serve-mix only on context misses",
    ),
    layer("jobs.submit_ack_ms", "ms", "lower", SERVE),
    layer("jobs.queue_wait_ms", "ms", "lower", SERVE),
    layer("jobs.exec_ms", "ms", "lower", SERVE),
    layer("jobs.warm_hit_rate", "ratio", "higher", SERVE),
    layer("jobs.tcov_report_hit_rate", "ratio", "higher", SERVE),
    layer("jobs.memo_hit_share", "ratio", "higher", SERVE),
    layer(
        "jobs.repeat_share",
        "ratio",
        "higher",
        "share of serve-mix a repeat-only gain can help",
    ),
    layer(
        "jobs.interner_bytes",
        "B",
        "lower",
        "peak_rss_mb on serve-mix",
    ),
    layer("core.synth_ms", "ms", "lower", SYNTH),
    layer(
        "core.synth_parallel_ms",
        "ms",
        "lower",
        "op_p50_ms on atpg-paper, whose ops synthesize with EvalMode::Parallel",
    ),
    layer("core.trial_us", "us", "lower", SYNTH),
    layer("core.trials", "count", "lower", SYNTH),
    layer("core.rollback_frac", "ratio", "lower", SYNTH),
    layer("core.iterations", "count", "lower", SYNTH),
    layer("core.iter_us_p50", "us", "lower", SYNTH),
    layer("core.testability_hit_rate", "ratio", "higher", SYNTH),
    layer("core.eval_hit_rate", "ratio", "higher", SYNTH),
    layer(
        "etpn.build_ms",
        "ms",
        "lower",
        "op_p50_ms on atpg-paper (small share)",
    ),
    layer("etpn.cp_hit_rate", "ratio", "higher", SYNTH),
    layer(
        "netlist.elaborate_ms",
        "ms",
        "lower",
        "op_p50_ms on atpg-paper (small share)",
    ),
    layer("netlist.gates", "count", "lower", TCOV),
    layer(
        "atpg.collapse_ms",
        "ms",
        "lower",
        "setup_s, op_p50_ms on atpg-paper (tiny)",
    ),
    layer("atpg.faults_collapsed", "count", "lower", TCOV),
    layer("tcov.random_ms", "ms", "lower", "op_p50_ms on atpg-paper"),
    layer(
        "tcov.random_yield",
        "ratio",
        "higher",
        "fault_coverage_pct on atpg-paper",
    ),
    layer(
        "tcov.random_ns_per_fault_cycle",
        "ns",
        "lower",
        "op_p50_ms on atpg-paper",
    ),
    layer("tcov.deterministic_ms", "ms", "lower", TCOV),
    layer("tcov.podem_targets", "count", "lower", TCOV),
    layer("tcov.backtracks", "count", "lower", TCOV),
    layer("tcov.us_per_backtrack", "us", "lower", TCOV),
    layer("tcov.aborted", "count", "lower", TCOV),
    layer("tcov.untestable", "count", "higher", TCOV),
    layer("tcov.podem_yield", "ratio", "higher", TCOV),
    layer(
        "dse.explore_ms",
        "ms",
        "lower",
        "explore op latency on serve-mix",
    ),
    layer(
        "dse.point_ms_p50",
        "ms",
        "lower",
        "explore op latency on serve-mix",
    ),
    layer(
        "dse.replay_frac",
        "ratio",
        "higher",
        "explore op latency on serve-mix",
    ),
    layer("graded_ms.ex", "ms", "lower", "op_p50_ms on atpg-paper"),
    layer("graded_ms.dct", "ms", "lower", "op_tail_ms on atpg-paper"),
    layer("graded_ms.diffeq", "ms", "lower", "op_p50_ms on atpg-paper"),
    layer("graded_ms.ewf", "ms", "lower", "op_tail_ms on atpg-paper"),
    layer("graded_ms.paulin", "ms", "lower", "op_p50_ms on atpg-paper"),
    layer("graded_ms.tseng", "ms", "lower", "op_p50_ms on atpg-paper"),
    layer(
        "other_ms",
        "ms",
        "lower",
        "time inside an op no layer span covers",
    ),
    layer(
        "trace_overhead_pct",
        "%",
        "lower",
        "none: traced versus untraced op_p50_ms",
    ),
];

/// The per-design grading metric name of a bundled benchmark.
pub fn graded_name(bench: &str) -> Option<&'static str> {
    PER_LAYER
        .iter()
        .map(|d| d.name)
        .find(|n| n.strip_prefix("graded_ms.") == Some(bench))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlts_jobs::json::{self, Json};

    #[test]
    fn benchmark_json_matches_the_catalog() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
                    (
                        s("name"),
                        s("unit"),
                        s("better"),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let want = |defs: &[Def]| -> Vec<(String, String, String, Option<f64>)> {
            defs.iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.into(), d.bound))
                .collect()
        };
        assert_eq!(names("end_to_end"), want(END_TO_END));
        assert_eq!(names("per_layer"), want(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn every_bundled_benchmark_has_a_graded_metric() {
        for b in hlts_benchmarks::NAMES {
            assert!(graded_name(b).is_some(), "{b}");
        }
    }
}
