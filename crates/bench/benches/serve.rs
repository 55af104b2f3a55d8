//! Bench gate: warm daemon requests vs cold one-shot runs.
//!
//! The `hlts serve` daemon keeps a [`WarmPool`] of per-behavior
//! contexts — base design state plus the shared incremental (E, H)
//! evaluator — so a repeat request for the same behavior skips the
//! initial schedule/allocation/testability construction and hits the
//! evaluator's content-keyed cache throughout the merge loop. This
//! gate measures both paths on the **largest** bundled benchmark
//! through the same [`execute`] entry point the daemon's workers use:
//!
//! * **cold** — an unkeyed request against a disabled pool: the full
//!   one-shot `hlts run` cost, context built from scratch every time;
//! * **warm** — keyed requests against a shared pool, after one
//!   priming miss: what every repeat daemon submission pays.
//!
//! The run **asserts** the PR's acceptance criteria:
//!
//! * warm and cold requests produce bit-identical results (the warm
//!   context is a cache, never an approximation);
//! * the median warm request is ≥ 2× faster than the median cold one.
//!
//! Requests are whole synthesis runs (milliseconds, not nanoseconds),
//! so this times them directly with `Instant` rather than driving
//! Criterion's batch sampler, and writes the headline figures to
//! `BENCH_serve.json`.

use std::time::Instant;

use hlts_core::{CancelToken, EvalMode, NullSink, RunCtl, SynthesisParams};
use hlts_dse::Flow;
use hlts_jobs::{execute, proto, JobOutput, JobSpec, WarmPool};
use hlts_json::Obj;

const SPEEDUP_GATE: f64 = 2.0;
/// Timed requests per path (medians of small odd samples are robust).
const REQUESTS: usize = 7;

fn largest_benchmark() -> (String, hlts_dfg::Dfg) {
    let (name, dfg) = hlts_benchmarks::all()
        .into_iter()
        .max_by_key(|(_, d)| d.num_ops())
        .expect("bundled benchmarks");
    (name.to_owned(), dfg)
}

fn run_spec(name: &str, dfg: &hlts_dfg::Dfg, warm: Option<u64>) -> JobSpec {
    JobSpec::Run {
        name: name.to_owned(),
        dfg: dfg.clone(),
        flow: Flow::Ours,
        params: SynthesisParams::paper_defaults(8),
        mode: EvalMode::Sequential,
        warm,
        atpg: None,
    }
}

/// Median latency (seconds) of `REQUESTS` executions of `spec`
/// against `pool`, plus the (bit-identity witness) result JSON of the
/// last request.
fn timed_requests(spec: &JobSpec, pool: &WarmPool) -> (f64, String) {
    let ctl = RunCtl {
        cancel: CancelToken::new(),
        progress: &NullSink,
    };
    let mut latencies = Vec::with_capacity(REQUESTS);
    let mut witness = String::new();
    for _ in 0..REQUESTS {
        let t = Instant::now();
        let output = execute(spec, &ctl, pool).expect("request succeeds");
        latencies.push(t.elapsed().as_secs_f64());
        let JobOutput::Run(out) = output else {
            panic!("expected a run output");
        };
        witness = proto::run_result_json(&out.result);
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    (latencies[latencies.len() / 2], witness)
}

/// The middle warm tier, informative only: requests that share the
/// context (base state + evaluator cache) but touch a *new* parameter
/// point each time, so the memo never hits and the merge loop runs.
fn context_tier_median(name: &str, dfg: &hlts_dfg::Dfg) -> f64 {
    let pool = WarmPool::new(4);
    let ctl = RunCtl {
        cancel: CancelToken::new(),
        progress: &NullSink,
    };
    execute(&run_spec(name, dfg, Some(2)), &ctl, &pool).expect("priming request succeeds");
    let mut latencies = Vec::with_capacity(REQUESTS);
    for i in 0..REQUESTS {
        let mut spec = run_spec(name, dfg, Some(2));
        let JobSpec::Run { params, .. } = &mut spec else {
            unreachable!("run_spec builds run jobs");
        };
        // A fresh (α, β) point per request defeats the memo without
        // changing the workload's scale.
        params.beta += (i as f64 + 1.0) * 1e-9;
        let t = Instant::now();
        execute(&spec, &ctl, &pool).expect("request succeeds");
        latencies.push(t.elapsed().as_secs_f64());
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    latencies[latencies.len() / 2]
}

/// One full measurement: (cold median, warm median, witnesses).
fn measure(name: &str, dfg: &hlts_dfg::Dfg) -> (f64, f64, String, String) {
    // Cold: pool disabled, every request builds its context.
    let cold_pool = WarmPool::new(0);
    let (cold, cold_witness) = timed_requests(&run_spec(name, dfg, None), &cold_pool);
    // Warm: one priming miss, then timed hits on the shared context.
    let warm_pool = WarmPool::new(4);
    let spec = run_spec(name, dfg, Some(1));
    let ctl = RunCtl {
        cancel: CancelToken::new(),
        progress: &NullSink,
    };
    execute(&spec, &ctl, &warm_pool).expect("priming request succeeds");
    let (warm, warm_witness) = timed_requests(&spec, &warm_pool);
    let (hits, misses) = warm_pool.stats();
    assert_eq!(
        (misses, hits),
        (1, REQUESTS as u64),
        "warm pool must miss once (priming) then hit every request"
    );
    (cold, warm, cold_witness, warm_witness)
}

fn main() {
    let (name, dfg) = largest_benchmark();
    let (mut cold, mut warm, cold_witness, warm_witness) = measure(&name, &dfg);

    // Conformance half of the gate: unconditional.
    assert_eq!(
        cold_witness, warm_witness,
        "acceptance criterion violated: warm-context {name} results diverge from cold one-shot"
    );
    println!("acceptance: warm and cold results bit-identical on {name} — OK");

    let mut speedup = cold / warm;
    println!(
        "serve/request/{name}  cold {:.1} ms, warm {:.1} ms ({speedup:.1}x)",
        cold * 1e3,
        warm * 1e3,
    );
    if speedup < SPEEDUP_GATE {
        // Noise guard: one re-measurement before failing the gate.
        let (c, w, _, _) = measure(&name, &dfg);
        (cold, warm) = (c, w);
        speedup = cold / warm;
        println!(
            "serve/request/{name}  re-measured cold {:.1} ms, warm {:.1} ms ({speedup:.1}x)",
            cold * 1e3,
            warm * 1e3,
        );
    }
    assert!(
        speedup >= SPEEDUP_GATE,
        "acceptance criterion violated: a warm {name} request is only {speedup:.2}x \
         faster than a cold one (need >= {SPEEDUP_GATE}x)"
    );
    println!("acceptance: warm request >= {SPEEDUP_GATE}x cold on {name} — OK ({speedup:.1}x)");

    // Informative middle tier: context warm, memo cold.
    let context = context_tier_median(&name, &dfg);
    println!(
        "serve/request/{name}  context-warm (new parameter point) {:.1} ms ({:.1}x)",
        context * 1e3,
        cold / context,
    );

    let json = Obj::new()
        .with("benchmark", name)
        .with("requests_per_path", REQUESTS)
        .with("cold_median_ms", cold * 1e3)
        .with("warm_median_ms", warm * 1e3)
        .with("context_warm_median_ms", context * 1e3)
        .with("warm_speedup", speedup)
        .with("speedup_gate", SPEEDUP_GATE)
        .document();
    let path = "BENCH_serve.json";
    std::fs::write(path, &json).expect("write BENCH_serve.json");
    println!("wrote {path}");
}
