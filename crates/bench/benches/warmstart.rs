//! Bench gate: warm-start trace replay across sweep neighbours on the
//! **largest** bundled benchmark.
//!
//! A 64-point dense weight grid (32 α values × 2 β values, one
//! shortlist size) of the ewf benchmark runs twice through
//! [`hlts_dse::explore`] — once cold (`warm_start: false`) and once
//! warm (`warm_start: true`), both on one worker so the comparison is
//! pure replay-vs-research — and the run **asserts** the PR's
//! acceptance criteria:
//!
//! * the Pareto front *and every per-point result* are bit-identical
//!   between the cold and the warm sweep, always;
//! * the warm sweep replayed a nonzero number of merges from
//!   neighbour traces, always (a dense grid where nothing replays
//!   means the feature is dead);
//! * the warm sweep is ≥ 1.5× faster than the cold one, with one
//!   re-measurement as a noise guard before failing.
//!
//! Points are whole synthesis runs (seconds, not nanoseconds), so this
//! times sweeps directly with `Instant` rather than driving Criterion's
//! batch sampler, and writes the headline figures to
//! `BENCH_warmstart.json`.

use std::time::Instant;

use hlts_dse::{explore, ExploreConfig, ExploreOutcome, SweepSpec};
use hlts_json::Obj;

const SPEEDUP_GATE: f64 = 1.5;
/// Dense α sweep at two β values: neighbours differ by 0.01 in α, so
/// almost every point has a near-identical already-completed seed.
const ALPHAS: usize = 32;
const BETAS: [f64; 2] = [1.0, 1.02];

fn sweep_spec() -> (String, SweepSpec, SweepSpec) {
    let (name, dfg) = hlts_benchmarks::all()
        .into_iter()
        .max_by_key(|(_, d)| d.num_ops())
        .expect("bundled benchmarks");
    let mut cold = SweepSpec::new(vec![(name.to_owned(), dfg)]);
    cold.ks = vec![3];
    cold.weights = (0..ALPHAS)
        .flat_map(|i| {
            let alpha = 2.0 + i as f64 * 0.01;
            BETAS.iter().map(move |beta| (alpha, *beta))
        })
        .collect();
    let points = cold.points().expect("valid sweep").len();
    assert!(points >= 64, "gate needs a >=64-point sweep, got {points}");
    let mut warm = cold.clone();
    warm.warm_start = true;
    (name.to_owned(), cold, warm)
}

fn timed_sweep(spec: &SweepSpec) -> (f64, ExploreOutcome) {
    let cfg = ExploreConfig {
        jobs: 1,
        ..ExploreConfig::default()
    };
    let t = Instant::now();
    let outcome = explore(spec, &cfg).expect("sweep succeeds");
    (t.elapsed().as_secs_f64(), outcome)
}

fn main() {
    let (name, cold_spec, warm_spec) = sweep_spec();
    let points = cold_spec.points().expect("valid sweep").len();

    let (cold_secs, cold) = timed_sweep(&cold_spec);
    let (warm_secs, warm) = timed_sweep(&warm_spec);
    println!(
        "warmstart/explore/{name}  {points} points: cold {cold_secs:.2}s, warm {warm_secs:.2}s \
         (front {} points, {} merges replayed, {} recomputed)",
        warm.front.len(),
        warm.stats.merges_replayed,
        warm.stats.merges_recomputed,
    );

    // Conformance half of the gate: unconditional. Equal signatures
    // mean bit-identical fronts; equal results pin every objective of
    // every point, not just the front.
    assert_eq!(
        cold.front_signature(),
        warm.front_signature(),
        "acceptance criterion violated: the {name} Pareto front diverges \
         between cold and warm-start sweeps"
    );
    assert_eq!(
        cold.results, warm.results,
        "acceptance criterion violated: a {name} per-point result diverges \
         between cold and warm-start sweeps"
    );
    println!("acceptance: front and per-point results bit-identical cold vs warm on {name} — OK");

    assert!(
        warm.stats.merges_replayed > 0,
        "acceptance criterion violated: the warm {name} sweep replayed no merges \
         ({} recomputed) — the trace seeding is dead",
        warm.stats.merges_recomputed,
    );
    println!(
        "acceptance: nonzero replay on {name} — OK ({} replayed, {} recomputed)",
        warm.stats.merges_replayed, warm.stats.merges_recomputed,
    );

    // Throughput half, with one re-measurement as a noise guard: a
    // sweep is tens of seconds, so a single retry is cheap relative to
    // a false negative.
    let mut speedup = cold_secs / warm_secs;
    println!("speedup warmstart/explore/{name:<10} warm vs cold {speedup:6.2}x");
    if speedup < SPEEDUP_GATE {
        let (c, _) = timed_sweep(&cold_spec);
        let (w, _) = timed_sweep(&warm_spec);
        speedup = c / w;
        println!("speedup warmstart/explore/{name:<10} re-measured {speedup:6.2}x");
    }
    assert!(
        speedup >= SPEEDUP_GATE,
        "acceptance criterion violated: the warm {name} sweep is only {speedup:.2}x \
         the cold one (need >= {SPEEDUP_GATE}x)"
    );
    println!("acceptance: warm sweep >= {SPEEDUP_GATE}x cold on {name} — OK ({speedup:.2}x)");

    let json = Obj::new()
        .with("benchmark", name)
        .with("points", points)
        .with("cold_secs", cold_secs)
        .with("warm_secs", warm_secs)
        .with("merges_replayed", warm.stats.merges_replayed)
        .with("merges_recomputed", warm.stats.merges_recomputed)
        .with("speedup", speedup)
        .with("speedup_gate", SPEEDUP_GATE)
        .with("front_size", warm.front.len())
        .with("bit_identical", true)
        .document();
    let path = "BENCH_warmstart.json";
    std::fs::write(path, &json).expect("write BENCH_warmstart.json");
    println!("wrote {path}");
}
