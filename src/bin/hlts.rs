//! `hlts` — command-line front end to the test-synthesis system.
//!
//! ```text
//! hlts [run] <file.dfg | bench:NAME> [--flow ours|camad|approach1|approach2]
//!      [--bits N] [--k N] [--alpha X] [--beta X] [--atpg]
//!      [--fault-sample N] [--tcov-jobs N] [--audit] [--json] [--quiet]
//! hlts explore <source>... [--flow LIST] [--bits LIST] [--k LIST]
//!      [--weights A:B,...] [--jobs N] [--warm-start off|on] [--atpg]
//!      [--fault-sample N] [--journal PATH | --resume PATH] [--json] [--quiet]
//! hlts gen [--seed N] [--preset NAME] [--list-presets] [--out FILE]
//!      [--ops N] [--inputs N] [--const-ratio X] [--mul W] [--addsub W]
//!      [--logic W] [--cmp W] [--shift W] [--depth-bias X]
//!      [--fanout-skew X] [--loops N] [--name IDENT]
//! hlts serve [--tcp ADDR] [--workers N] [--queue N] [--warm N]
//! hlts submit <file.dfg | bench:NAME | -> --connect ADDR
//!      [--flow FLOW] [--bits N] [--k N] [--alpha X] [--beta X] [--atpg]
//! ```
//!
//! `run` (the default subcommand) reads a behavioral description in the
//! textual DFG format (or a built-in benchmark via `bench:ex`,
//! `bench:dct`, …, or stdin via `-`), synthesizes it with the requested
//! flow, prints the resulting schedule/allocation and metrics, and
//! optionally grades the elaborated netlist with the parallel two-phase
//! coverage engine (`hlts-tcov`): `--atpg` measures fault coverage,
//! `--fault-sample N` bounds the graded fault set (0 = the exhaustive
//! collapsed universe) and `--tcov-jobs N` picks the grading worker
//! count — reports are bit-identical at any worker count. When faults
//! are sampled, both the sampled and the total collapsed counts are
//! reported, so a sampled estimate is never mistaken for an exhaustive
//! grade.
//! `explore` sweeps the grid of k × (α, β) × bits × flow points over
//! one or more sources on a worker pool and reports the Pareto front
//! (see `hlts-dse`); with `--atpg` every point is additionally graded
//! and the front is Pareto over measured (coverage, test cycles) too; with `--journal` completed points checkpoint to a
//! plain-text file that `--resume` picks up without recomputing;
//! `--warm-start on` seeds each point from its nearest completed
//! neighbour's merge trace, replaying decisions instead of re-searching
//! them — the front is bit-identical to `--warm-start off` at any
//! worker count (see `hlts-dse`). `gen`
//! emits a random — but seed-reproducible — workload in the textual
//! DFG format (see `hlts-gen`), so `hlts gen --seed 7 | hlts run -`
//! synthesizes a fresh graph and a conformance failure's printed
//! `(seed, preset)` pair replays anywhere. `--json` switches `run` and
//! `explore` to machine-readable output. `--audit` runs the
//! cross-crate invariant auditor (`hlts-check`) over the synthesized
//! design and fails with a violation report if anything is
//! inconsistent. `serve` runs the job daemon (`hlts-jobs`): a bounded
//! worker pool answering line-delimited JSON requests on stdin or over
//! TCP, with warm per-behavior caches shared across submissions.
//! `submit` is its one-shot client: `hlts gen --seed 7 | hlts submit -
//! --connect HOST:PORT` ships the generated behavior to a daemon and
//! streams the job's events back. `run` and `explore` honour Ctrl-C:
//! an interrupt cancels at the next iteration/point boundary and an
//! interrupted sweep still reports its partial front (flagged
//! `degraded: cancelled`) with the journal intact.

use std::process::ExitCode;

use hlts::core::{DesignState, EvalMode, RunCtl, SynthesisResult};
use hlts::dse::{self, ExploreConfig, Flow, SweepSpec};
use hlts::jobs::{
    execute, proto, submit_once, AtpgRequest, ClientEnd, JobOutput, JobSpec, RunOutput,
    ServeConfig, WarmPool,
};
use hlts::tcov::CoverageReport;

/// Collapsed faults graded when `--atpg` is given without an explicit
/// `--fault-sample` (0 = exhaustive): enough for a stable coverage
/// estimate on every built-in benchmark while keeping one-shot runs
/// interactive.
const DEFAULT_FAULT_SAMPLE: usize = 2000;

/// Ctrl-C wiring: SIGINT fires the process-wide [`CancelToken`], so a
/// one-shot `hlts run`/`hlts explore` stops at the next clean boundary
/// (an interrupted sweep keeps its flushed journal and reports the
/// partial front with a `degraded: cancelled` line). The handler does
/// one relaxed atomic store — nothing non-signal-safe.
#[cfg(unix)]
mod sigint {
    use hlts::core::CancelToken;
    use std::sync::OnceLock;

    static TOKEN: OnceLock<CancelToken> = OnceLock::new();

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sigint(_signum: i32) {
        if let Some(token) = TOKEN.get() {
            token.cancel();
        }
    }

    pub fn install() -> CancelToken {
        let token = TOKEN.get_or_init(CancelToken::new).clone();
        const SIGINT: i32 = 2;
        // SAFETY: registering an async-signal-safe handler (one
        // relaxed atomic store) for SIGINT via the libc `signal`
        // symbol; both arguments are valid for the C signature.
        unsafe {
            signal(SIGINT, on_sigint as *const () as usize);
        }
        token
    }
}

#[cfg(not(unix))]
mod sigint {
    use hlts::core::CancelToken;

    /// No signal wiring off unix: the token simply never fires.
    pub fn install() -> CancelToken {
        CancelToken::new()
    }
}

struct RunOptions {
    source: String,
    flow: String,
    bits: u32,
    k: Option<usize>,
    alpha: Option<f64>,
    beta: Option<f64>,
    atpg: bool,
    /// `--fault-sample` (0 = exhaustive); `None` = flag absent, use
    /// the default sample.
    fault_sample: Option<usize>,
    /// `--tcov-jobs`; `None` = flag absent, grade single-threaded.
    tcov_jobs: Option<usize>,
    audit: bool,
    json: bool,
    quiet: bool,
}

struct ExploreOptions {
    sources: Vec<String>,
    flows: Vec<Flow>,
    ks: Vec<usize>,
    weights: Vec<(f64, f64)>,
    bits: Vec<u32>,
    jobs: usize,
    warm_start: bool,
    atpg: bool,
    fault_sample: Option<usize>,
    journal: Option<String>,
    resume: Option<String>,
    json: bool,
    quiet: bool,
}

fn usage() -> &'static str {
    "usage: hlts [run] <file.dfg | bench:NAME | -> [--flow ours|camad|approach1|approach2]\n\
     \x20            [--bits N] [--k N] [--alpha X] [--beta X] [--atpg]\n\
     \x20            [--fault-sample N] [--tcov-jobs N] [--audit] [--json] [--quiet]\n\
     \x20      hlts explore <source>... [--flow LIST] [--bits LIST] [--k LIST]\n\
     \x20            [--weights A:B,...] [--jobs N] [--warm-start off|on] [--atpg]\n\
     \x20            [--fault-sample N] [--journal PATH | --resume PATH] [--json] [--quiet]\n\
     \x20      hlts gen [--seed N] [--preset NAME] [--list-presets] [--out FILE]\n\
     \x20            [--ops N] [--inputs N] [--const-ratio X] [--mul W] [--addsub W]\n\
     \x20            [--logic W] [--cmp W] [--shift W] [--depth-bias X]\n\
     \x20            [--fanout-skew X] [--loops N] [--name IDENT]\n\
     \x20      hlts serve [--tcp ADDR] [--workers N] [--queue N] [--warm N]\n\
     \x20      hlts submit <file.dfg | bench:NAME | -> --connect ADDR\n\
     \x20            [--flow FLOW] [--bits N] [--k N] [--alpha X] [--beta X] [--atpg]\n\
     built-in benchmarks: ex, dct, diffeq, ewf, paulin, tseng"
}

const RUN_FLAGS: &str = "--flow, --bits, --k, --alpha, --beta, --atpg, --fault-sample, \
    --tcov-jobs, --audit, --json, --quiet";
const EXPLORE_FLAGS: &str = "--flow, --bits, --k, --weights, --jobs, --warm-start, --atpg, \
    --fault-sample, --journal, --resume, --json, --quiet";
const SERVE_FLAGS: &str = "--tcp, --workers, --queue, --warm";
const SUBMIT_FLAGS: &str = "--connect, --flow, --bits, --k, --alpha, --beta, --atpg";
const GEN_FLAGS: &str = "--seed, --preset, --list-presets, --out, --ops, --inputs, \
    --const-ratio, --mul, --addsub, --logic, --cmp, --shift, --depth-bias, --fanout-skew, \
    --loops, --name";

fn unknown_flag(arg: &str, valid: &str) -> String {
    format!("unexpected argument `{arg}` (valid flags: {valid})\n{}", usage())
}

/// `--k` values must be positive: `k = 0` would make every iteration's
/// shortlist empty and the paper's parameter meaningless.
fn parse_k(text: &str) -> Result<usize, String> {
    let k: usize = text.parse().map_err(|e| format!("--k: {e}"))?;
    if k == 0 {
        return Err("--k must be >= 1 (the paper's shortlist size)".into());
    }
    Ok(k)
}

/// Weights must be finite and non-negative: a negative or NaN α/β
/// would invert or poison the ΔC = α·ΔE + β·ΔH acceptance rule.
fn parse_weight(flag: &str, text: &str) -> Result<f64, String> {
    let v: f64 = text.parse().map_err(|e| format!("{flag}: {e}"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!(
            "{flag} must be a finite non-negative number (got `{text}`)"
        ));
    }
    Ok(v)
}

/// `--fault-sample` must be a non-negative integer; `0` explicitly
/// requests the exhaustive collapsed fault universe.
fn parse_fault_sample(text: &str) -> Result<usize, String> {
    text.parse()
        .map_err(|e| format!("--fault-sample: {e} (0 = exhaustive, N = sample size)"))
}

/// Worker/capacity counts must be positive — zero workers is a sweep
/// (or a grading pass, or a daemon) that can never make progress. One
/// validator serves every such flag (`--jobs`, `--tcov-jobs`,
/// `--workers`, `--queue`) so they all reject `0` through the same
/// typed error path with the same message shape.
fn parse_positive_count(flag: &str, text: &str) -> Result<usize, String> {
    let n: usize = text.parse().map_err(|e| format!("{flag}: {e}"))?;
    if n == 0 {
        return Err(format!("{flag} must be >= 1"));
    }
    Ok(n)
}

/// `--warm-start` takes an explicit mode, not a bare switch: `off` is
/// the documented way to pin today's cold behavior in scripts, and an
/// explicit value keeps future modes (e.g. a trace-budget) additive.
fn parse_warm_start(text: &str) -> Result<bool, String> {
    match text {
        "on" => Ok(true),
        "off" => Ok(false),
        other => Err(format!("--warm-start: unknown mode `{other}` (expected off or on)")),
    }
}

fn take(args: &mut dyn Iterator<Item = String>, what: &str) -> Result<String, String> {
    args.next().ok_or(format!("missing value for {what}"))
}

fn parse_list<T, F: Fn(&str) -> Result<T, String>>(
    text: &str,
    flag: &str,
    parse: F,
) -> Result<Vec<T>, String> {
    let out: Vec<T> = text
        .split(',')
        .filter(|s| !s.is_empty())
        .map(parse)
        .collect::<Result<_, _>>()?;
    if out.is_empty() {
        return Err(format!("{flag}: empty list"));
    }
    Ok(out)
}

fn parse_run_args(mut args: impl Iterator<Item = String>) -> Result<RunOptions, String> {
    let mut opts = RunOptions {
        source: String::new(),
        flow: "ours".into(),
        bits: 8,
        k: None,
        alpha: None,
        beta: None,
        atpg: false,
        fault_sample: None,
        tcov_jobs: None,
        audit: false,
        json: false,
        quiet: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--flow" => opts.flow = take(&mut args, "--flow")?,
            "--bits" => {
                opts.bits = take(&mut args, "--bits")?
                    .parse()
                    .map_err(|e| format!("--bits: {e}"))?;
            }
            "--k" => opts.k = Some(parse_k(&take(&mut args, "--k")?)?),
            "--alpha" => opts.alpha = Some(parse_weight("--alpha", &take(&mut args, "--alpha")?)?),
            "--beta" => opts.beta = Some(parse_weight("--beta", &take(&mut args, "--beta")?)?),
            "--atpg" => opts.atpg = true,
            "--fault-sample" => {
                opts.fault_sample = Some(parse_fault_sample(&take(&mut args, "--fault-sample")?)?);
            }
            "--tcov-jobs" => {
                opts.tcov_jobs =
                    Some(parse_positive_count("--tcov-jobs", &take(&mut args, "--tcov-jobs")?)?);
            }
            "--audit" => opts.audit = true,
            "--json" => opts.json = true,
            "--quiet" => opts.quiet = true,
            "--help" | "-h" => return Err(usage().to_owned()),
            // A bare `-` is the stdin source, not a flag.
            other if other.starts_with('-') && other != "-" => {
                return Err(unknown_flag(other, RUN_FLAGS))
            }
            other if opts.source.is_empty() => opts.source = other.to_owned(),
            other => return Err(unknown_flag(other, RUN_FLAGS)),
        }
    }
    if opts.source.is_empty() {
        return Err(usage().to_owned());
    }
    if !opts.atpg && (opts.fault_sample.is_some() || opts.tcov_jobs.is_some()) {
        return Err("--fault-sample/--tcov-jobs configure coverage grading; add --atpg".into());
    }
    Ok(opts)
}

fn parse_explore_args(mut args: impl Iterator<Item = String>) -> Result<ExploreOptions, String> {
    let mut opts = ExploreOptions {
        sources: Vec::new(),
        flows: vec![Flow::Ours],
        ks: vec![3],
        weights: vec![(2.0, 1.0), (10.0, 1.0), (1.0, 10.0)],
        bits: vec![8],
        jobs: 1,
        warm_start: false,
        atpg: false,
        fault_sample: None,
        journal: None,
        resume: None,
        json: false,
        quiet: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--flow" => {
                opts.flows = parse_list(&take(&mut args, "--flow")?, "--flow", |s| {
                    Flow::parse(s).ok_or(format!(
                        "unknown flow `{s}` (expected ours, camad, approach1 or approach2)"
                    ))
                })?;
            }
            "--bits" => {
                opts.bits = parse_list(&take(&mut args, "--bits")?, "--bits", |s| {
                    s.parse().map_err(|e| format!("--bits: {e}"))
                })?;
            }
            "--k" => opts.ks = parse_list(&take(&mut args, "--k")?, "--k", parse_k)?,
            "--weights" => {
                opts.weights =
                    parse_list(&take(&mut args, "--weights")?, "--weights", |s| {
                        let (a, b) = s.split_once(':').ok_or(format!(
                            "--weights: `{s}` is not an alpha:beta pair"
                        ))?;
                        Ok((parse_weight("--weights", a)?, parse_weight("--weights", b)?))
                    })?;
            }
            "--jobs" => {
                opts.jobs = parse_positive_count("--jobs", &take(&mut args, "--jobs")?)?;
            }
            "--warm-start" => {
                opts.warm_start = parse_warm_start(&take(&mut args, "--warm-start")?)?;
            }
            "--atpg" => opts.atpg = true,
            "--fault-sample" => {
                opts.fault_sample = Some(parse_fault_sample(&take(&mut args, "--fault-sample")?)?);
            }
            "--journal" => opts.journal = Some(take(&mut args, "--journal")?),
            "--resume" => opts.resume = Some(take(&mut args, "--resume")?),
            "--json" => opts.json = true,
            "--quiet" => opts.quiet = true,
            "--help" | "-h" => return Err(usage().to_owned()),
            // A bare `-` is the stdin source, not a flag.
            other if other.starts_with('-') && other != "-" => {
                return Err(unknown_flag(other, EXPLORE_FLAGS))
            }
            other => opts.sources.push(other.to_owned()),
        }
    }
    if opts.sources.is_empty() {
        return Err(usage().to_owned());
    }
    if opts.journal.is_some() && opts.resume.is_some() {
        return Err("use either --journal (start a checkpoint) or --resume (continue one)".into());
    }
    if !opts.atpg && opts.fault_sample.is_some() {
        return Err("--fault-sample configures coverage grading; add --atpg".into());
    }
    Ok(opts)
}

fn load(source: &str) -> Result<hlts::dfg::Dfg, String> {
    if let Some(name) = source.strip_prefix("bench:") {
        return hlts::benchmarks::by_name(name).ok_or(format!(
            "unknown benchmark `{name}` (have: {})",
            hlts::benchmarks::NAMES.join(", ")
        ));
    }
    let text = if source == "-" {
        // Read the behavior from stdin, so generated workloads pipe
        // straight through: `hlts gen --seed 7 | hlts run -`.
        use std::io::Read as _;
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(source).map_err(|e| format!("{source}: {e}"))?
    };
    hlts::dfg::parse(&text).map_err(|e| format!("{source}: {e}"))
}

/// The sweep name of a source: the benchmark name, the graph name for
/// stdin, or a file's stem.
fn source_name(source: &str) -> String {
    if let Some(name) = source.strip_prefix("bench:") {
        return name.to_owned();
    }
    if source == "-" {
        return "stdin".to_owned();
    }
    std::path::Path::new(source)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| source.to_owned())
}

/// One-shot synthesis through the same [`execute`] path the daemon's
/// workers use (same parameter derivation, same cancellation
/// boundaries), so `hlts run` and a served submission are
/// bit-identical by construction.
fn synthesize(
    opts: &RunOptions,
    dfg: &hlts::dfg::Dfg,
    ctl: &RunCtl<'_>,
) -> Result<RunOutput, String> {
    let Some(flow) = Flow::parse(&opts.flow) else {
        return Err(format!("unknown flow `{}`\n{}", opts.flow, usage()));
    };
    let mut params = flow.paper_defaults(opts.bits);
    if let Some(k) = opts.k {
        params.k = k;
    }
    if let Some(a) = opts.alpha {
        params.alpha = a;
    }
    if let Some(b) = opts.beta {
        params.beta = b;
    }
    // Coverage grading is part of the job spec, so `hlts run --atpg`
    // takes the same engine path (and the same cancellation token) as
    // a daemon submission carrying an `atpg` request.
    let atpg = opts.atpg.then(|| AtpgRequest {
        fault_sample: {
            let n = opts.fault_sample.unwrap_or(DEFAULT_FAULT_SAMPLE);
            (n > 0).then_some(n)
        },
        jobs: opts.tcov_jobs.unwrap_or(1),
    });
    let spec = JobSpec::Run {
        name: source_name(&opts.source),
        dfg: dfg.clone(),
        flow,
        params,
        mode: EvalMode::default(),
        warm: None,
        atpg,
    };
    match execute(&spec, ctl, &WarmPool::new(0)) {
        Ok(JobOutput::Run(out)) => Ok(*out),
        Ok(_) => Err("internal: run job produced a non-run output".into()),
        Err(e) => Err(e.to_string()),
    }
}

/// Hand-rolled machine-readable report of one synthesis run. The
/// `metrics` object is rendered by the daemon protocol's
/// [`proto::metrics_json`], so a served result and `hlts run --json`
/// agree byte-for-byte on that fragment.
fn run_json(opts: &RunOptions, result: &SynthesisResult, atpg: Option<&CoverageReport>) -> String {
    let mut out = format!(
        "{{\n  \"source\": {}, \"flow\": {},\n  \"metrics\": {},\n  \"merges\": [{}]",
        dse::json_string(&opts.source),
        dse::json_string(&opts.flow),
        proto::metrics_json(&result.metrics),
        result
            .merge_log
            .iter()
            .map(|s| dse::json_string(s))
            .collect::<Vec<_>>()
            .join(", "),
    );
    if let Some(report) = atpg {
        // The daemon protocol's coverage object verbatim, so a served
        // graded result and `hlts run --atpg --json` agree
        // byte-for-byte on this fragment. `faults_graded` vs
        // `total_collapsed` makes a sampled estimate explicit.
        out.push_str(&format!(",\n  \"atpg\": {}", proto::coverage_json(report)));
    }
    out.push_str("\n}");
    out
}

fn run_main(args: impl Iterator<Item = String>) -> Result<(), String> {
    let opts = parse_run_args(args)?;
    let dfg = load(&opts.source).map_err(|e| format!("error: {e}"))?;
    let ctl = RunCtl::cancel_only(sigint::install());
    let out = synthesize(&opts, &dfg, &ctl).map_err(|e| format!("error: {e}"))?;
    let result = out.result;
    if opts.audit {
        let state = DesignState::from_parts(
            &result.dfg,
            result.schedule.clone(),
            result.allocation.clone(),
        );
        let report = state.audit();
        if !report.is_clean() {
            return Err(format!("error: {report}"));
        }
        if !opts.json {
            println!("audit: clean");
        }
    }
    if opts.json {
        println!("{}", run_json(&opts, &result, out.coverage.as_ref()));
        return Ok(());
    }
    if !opts.quiet {
        println!("{}", result.render());
        for m in &result.merge_log {
            println!("  {m}");
        }
    }
    println!(
        "E = {} steps, modules = {}, registers = {}, muxes = {}, H = {:.3}, \
         avg C = {:.2}, avg O = {:.2}, C->O depth = {:.1}",
        result.metrics.execution_time,
        result.metrics.num_modules,
        result.metrics.num_registers,
        result.metrics.mux_count,
        result.metrics.hardware.total(),
        result.metrics.avg_controllability,
        result.metrics.avg_observability,
        result.metrics.co_depth,
    );
    if let Some(r) = &out.coverage {
        // When sampling, say so: a coverage percentage over a sample
        // must never read as an exhaustive grade.
        let universe = if r.faults_graded < r.total_collapsed {
            format!(
                "of {} sampled ({} collapsed total)",
                r.faults_graded, r.total_collapsed
            )
        } else {
            format!("of {} collapsed", r.total_collapsed)
        };
        println!(
            "gates = {}, fault coverage = {:.2}% ({} random + {} deterministic {universe}), \
             effort = {:.0}, test cycles = {}",
            r.gates,
            r.coverage(),
            r.detected_random,
            r.detected_deterministic,
            r.effort(),
            r.test_cycles,
        );
    }
    Ok(())
}

fn explore_main(args: impl Iterator<Item = String>) -> Result<(), String> {
    let opts = parse_explore_args(args)?;
    let mut benches = Vec::new();
    for source in &opts.sources {
        benches.push((
            source_name(source),
            load(source).map_err(|e| format!("error: {e}"))?,
        ));
    }
    let spec = SweepSpec {
        benches,
        flows: opts.flows.clone(),
        ks: opts.ks.clone(),
        weights: opts.weights.clone(),
        bits: opts.bits.clone(),
        extra: Vec::new(),
        // `--atpg` grades every point: the front becomes Pareto over
        // measured (coverage, test cycles) as well. The sample size
        // joins the sweep fingerprint, so journals from plain and
        // graded sweeps never mix.
        tcov: opts.atpg.then(|| dse::TcovSweep {
            fault_sample: opts.fault_sample.unwrap_or(DEFAULT_FAULT_SAMPLE),
        }),
        // Warm-start joins the fingerprint too: a trace-bearing
        // journal cannot resume a legacy (cold) sweep or vice versa.
        warm_start: opts.warm_start,
    };
    let mut cfg = ExploreConfig {
        jobs: opts.jobs,
        ..ExploreConfig::default()
    };
    if let Some(path) = &opts.resume {
        let path = std::path::PathBuf::from(path);
        let scan = dse::load_journal(&path, &spec).map_err(|e| format!("error: {e}"))?;
        if scan.malformed > 0 {
            eprintln!(
                "warning: {}: skipped {} malformed journal line(s); \
                 the lost points will be recomputed",
                path.display(),
                scan.malformed
            );
        }
        if scan.torn_tail > 0 {
            eprintln!(
                "warning: {}: dropped a torn final line (interrupted write); \
                 that point will be recomputed",
                path.display()
            );
        }
        cfg.resume = scan.points;
        // Resumed traces re-seed the warm pool, so points computed
        // after the restart still replay their neighbours' merges.
        cfg.resume_traces = scan.traces;
        cfg.resume_malformed = scan.malformed;
        cfg.resume_torn_tail = scan.torn_tail;
        cfg.journal = Some(path);
    } else if let Some(path) = &opts.journal {
        // A fresh checkpoint: start the journal over (resuming an
        // existing one is what --resume is for).
        std::fs::write(path, "").map_err(|e| format!("error: {path}: {e}"))?;
        cfg.journal = Some(path.into());
    }
    // The sweep goes through the unified job executor under the
    // Ctrl-C token: an interrupt stops workers at the next point
    // boundary, the journal is already flushed per append, and the
    // report below carries the partial front plus a
    // `degraded: cancelled` line instead of dying mid-write.
    let ctl = RunCtl::cancel_only(sigint::install());
    let job = JobSpec::Explore { spec, cfg };
    let outcome = match execute(&job, &ctl, &WarmPool::new(0)) {
        Ok(JobOutput::Explore(outcome)) => *outcome,
        Ok(_) => return Err("internal: explore job produced a non-explore output".into()),
        Err(e) => return Err(format!("error: {e}")),
    };
    for f in &outcome.failures {
        eprintln!("warning: point {} failed: {}", f.id, f.message);
    }
    if opts.json {
        print!("{}", outcome.render_json());
        return Ok(());
    }
    if opts.quiet {
        let s = &outcome.stats;
        println!(
            "explored {} points ({} computed, {} resumed) on {} worker(s); front: {}",
            s.points_total,
            s.points_computed,
            s.points_resumed,
            s.workers,
            outcome.front_signature(),
        );
    } else {
        print!("{}", outcome.render());
    }
    Ok(())
}

struct GenOptions {
    seed: u64,
    preset: String,
    list_presets: bool,
    out: Option<String>,
    overrides: Vec<(String, String)>,
}

fn parse_gen_args(mut args: impl Iterator<Item = String>) -> Result<GenOptions, String> {
    let mut opts = GenOptions {
        seed: 0,
        preset: "balanced".into(),
        list_presets: false,
        out: None,
        overrides: Vec::new(),
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                opts.seed = take(&mut args, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--preset" => opts.preset = take(&mut args, "--preset")?,
            "--list-presets" => opts.list_presets = true,
            "--out" => opts.out = Some(take(&mut args, "--out")?),
            // Knob overrides are collected as (flag, value) and applied
            // on top of the preset; hlts-gen validates the results.
            "--ops" | "--inputs" | "--const-ratio" | "--mul" | "--addsub" | "--logic"
            | "--cmp" | "--shift" | "--depth-bias" | "--fanout-skew" | "--loops" | "--name" => {
                let value = take(&mut args, &arg)?;
                opts.overrides.push((arg, value));
            }
            "--help" | "-h" => return Err(usage().to_owned()),
            other => return Err(unknown_flag(other, GEN_FLAGS)),
        }
    }
    Ok(opts)
}

fn apply_gen_override(
    cfg: &mut hlts::gen::GenConfig,
    flag: &str,
    value: &str,
) -> Result<(), String> {
    let int = |v: &str| v.parse::<usize>().map_err(|e| format!("{flag}: {e}"));
    let weight = |v: &str| v.parse::<u32>().map_err(|e| format!("{flag}: {e}"));
    let ratio = |v: &str| v.parse::<f64>().map_err(|e| format!("{flag}: {e}"));
    match flag {
        "--ops" => cfg.ops = int(value)?,
        "--inputs" => cfg.inputs = int(value)?,
        "--const-ratio" => cfg.const_ratio = ratio(value)?,
        "--mul" => cfg.mul = weight(value)?,
        "--addsub" => cfg.addsub = weight(value)?,
        "--logic" => cfg.logic = weight(value)?,
        "--cmp" => cfg.cmp = weight(value)?,
        "--shift" => cfg.shift = weight(value)?,
        "--depth-bias" => cfg.depth_bias = ratio(value)?,
        "--fanout-skew" => cfg.fanout_skew = ratio(value)?,
        "--loops" => cfg.loop_pairs = int(value)?,
        "--name" => cfg.name = value.to_owned(),
        other => return Err(format!("unknown gen knob `{other}`")),
    }
    Ok(())
}

fn gen_main(args: impl Iterator<Item = String>) -> Result<(), String> {
    let opts = parse_gen_args(args)?;
    if opts.list_presets {
        for name in hlts::gen::PRESET_NAMES {
            let cfg = hlts::gen::preset(name).ok_or(format!("missing preset `{name}`"))?;
            println!(
                "{name}: {} ops, {} inputs, mix */{} +-/{} logic/{} cmp/{} shift/{}, \
                 depth {:.1}, fanout {:.1}, {} loop pair(s)",
                cfg.ops,
                cfg.inputs,
                cfg.mul,
                cfg.addsub,
                cfg.logic,
                cfg.cmp,
                cfg.shift,
                cfg.depth_bias,
                cfg.fanout_skew,
                cfg.loop_pairs,
            );
        }
        return Ok(());
    }
    let mut cfg = hlts::gen::preset(&opts.preset).ok_or(format!(
        "unknown preset `{}` (have: {})",
        opts.preset,
        hlts::gen::PRESET_NAMES.join(", ")
    ))?;
    for (flag, value) in &opts.overrides {
        apply_gen_override(&mut cfg, flag, value)?;
    }
    let dfg = hlts::gen::generate(opts.seed, &cfg).map_err(|e| format!("error: {e}"))?;
    let text = hlts::dfg::emit(&dfg).map_err(|e| format!("error: {e}"))?;
    match &opts.out {
        Some(path) => std::fs::write(path, &text).map_err(|e| format!("error: {path}: {e}"))?,
        None => print!("{text}"),
    }
    Ok(())
}

struct ServeOptions {
    tcp: Option<String>,
    cfg: ServeConfig,
}

fn parse_serve_args(mut args: impl Iterator<Item = String>) -> Result<ServeOptions, String> {
    let mut opts = ServeOptions {
        tcp: None,
        cfg: ServeConfig::default(),
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tcp" => opts.tcp = Some(take(&mut args, "--tcp")?),
            "--workers" => {
                opts.cfg.workers =
                    parse_positive_count("--workers", &take(&mut args, "--workers")?)?;
            }
            "--queue" => {
                opts.cfg.queue_capacity =
                    parse_positive_count("--queue", &take(&mut args, "--queue")?)?;
            }
            "--warm" => {
                // 0 is meaningful here: it disables warm-context reuse.
                opts.cfg.warm_capacity = take(&mut args, "--warm")?
                    .parse()
                    .map_err(|e| format!("--warm: {e}"))?;
            }
            "--help" | "-h" => return Err(usage().to_owned()),
            other => return Err(unknown_flag(other, SERVE_FLAGS)),
        }
    }
    Ok(opts)
}

/// `hlts serve`: the job daemon. Default mode answers line-delimited
/// JSON requests on stdin/stdout (pipeline-friendly, exercised by the
/// CI smoke gate); `--tcp ADDR` serves concurrent clients over a
/// socket instead.
fn serve_main(args: impl Iterator<Item = String>) -> Result<(), String> {
    let opts = parse_serve_args(args)?;
    match &opts.tcp {
        Some(addr) => {
            let listener =
                std::net::TcpListener::bind(addr).map_err(|e| format!("error: {addr}: {e}"))?;
            let local = listener.local_addr().map_err(|e| format!("error: {e}"))?;
            // Announce the bound address (ADDR may be `host:0`) before
            // serving, so scripts can wait for readiness.
            println!("listening on {local}");
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            hlts::jobs::serve_tcp(listener, opts.cfg).map_err(|e| format!("error: {e}"))
        }
        None => {
            hlts::jobs::serve_lines(
                std::io::stdin().lock(),
                Box::new(std::io::stdout()),
                opts.cfg,
            );
            Ok(())
        }
    }
}

struct SubmitOptions {
    source: String,
    connect: String,
    flow: Option<String>,
    bits: Option<u32>,
    k: Option<usize>,
    alpha: Option<f64>,
    beta: Option<f64>,
    atpg: bool,
}

fn parse_submit_args(mut args: impl Iterator<Item = String>) -> Result<SubmitOptions, String> {
    let mut opts = SubmitOptions {
        source: String::new(),
        connect: String::new(),
        flow: None,
        bits: None,
        k: None,
        alpha: None,
        beta: None,
        atpg: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => opts.connect = take(&mut args, "--connect")?,
            "--flow" => opts.flow = Some(take(&mut args, "--flow")?),
            "--bits" => {
                opts.bits = Some(
                    take(&mut args, "--bits")?
                        .parse()
                        .map_err(|e| format!("--bits: {e}"))?,
                );
            }
            "--k" => opts.k = Some(parse_k(&take(&mut args, "--k")?)?),
            "--alpha" => opts.alpha = Some(parse_weight("--alpha", &take(&mut args, "--alpha")?)?),
            "--beta" => opts.beta = Some(parse_weight("--beta", &take(&mut args, "--beta")?)?),
            "--atpg" => opts.atpg = true,
            "--help" | "-h" => return Err(usage().to_owned()),
            // A bare `-` is the stdin source, not a flag.
            other if other.starts_with('-') && other != "-" => {
                return Err(unknown_flag(other, SUBMIT_FLAGS))
            }
            other if opts.source.is_empty() => opts.source = other.to_owned(),
            other => return Err(unknown_flag(other, SUBMIT_FLAGS)),
        }
    }
    if opts.source.is_empty() {
        return Err(usage().to_owned());
    }
    if opts.connect.is_empty() {
        return Err("submit needs --connect ADDR (a running `hlts serve --tcp` daemon)".into());
    }
    Ok(opts)
}

/// The submit request line for one run job. Benchmarks pass through as
/// `bench:NAME` references; files and stdin are shipped inline so the
/// daemon's filesystem never matters — `hlts gen | hlts submit -` works
/// against a daemon on another machine.
fn submit_request_line(opts: &SubmitOptions) -> Result<String, String> {
    let source = if opts.source.starts_with("bench:") {
        dse::json_string(&opts.source)
    } else {
        let text = if opts.source == "-" {
            use std::io::Read as _;
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("stdin: {e}"))?;
            buf
        } else {
            std::fs::read_to_string(&opts.source).map_err(|e| format!("{}: {e}", opts.source))?
        };
        format!(
            "{{\"name\": {}, \"dfg\": {}}}",
            dse::json_string(&source_name(&opts.source)),
            dse::json_string(&text)
        )
    };
    let mut job = format!("{{\"kind\": \"run\", \"source\": {source}");
    if let Some(flow) = &opts.flow {
        job.push_str(&format!(", \"flow\": {}", dse::json_string(flow)));
    }
    if let Some(bits) = opts.bits {
        job.push_str(&format!(", \"bits\": {bits}"));
    }
    if let Some(k) = opts.k {
        job.push_str(&format!(", \"k\": {k}"));
    }
    if let Some(alpha) = opts.alpha {
        job.push_str(&format!(", \"alpha\": {alpha}"));
    }
    if let Some(beta) = opts.beta {
        job.push_str(&format!(", \"beta\": {beta}"));
    }
    if opts.atpg {
        job.push_str(", \"atpg\": true");
    }
    job.push('}');
    Ok(format!("{{\"op\": \"submit\", \"id\": \"cli\", \"job\": {job}}}"))
}

/// `hlts submit`: one-shot client for a TCP daemon. Streams the job's
/// acknowledgement and event lines to stdout; the exit code reflects
/// how the job ended.
fn submit_main(args: impl Iterator<Item = String>) -> Result<(), String> {
    let opts = parse_submit_args(args)?;
    let line = submit_request_line(&opts)?;
    let mut stdout = std::io::stdout();
    match submit_once(&opts.connect, &line, &mut stdout).map_err(|e| format!("error: {e}"))? {
        ClientEnd::Done => Ok(()),
        ClientEnd::Failed => Err("error: job failed (see the failed event above)".into()),
        ClientEnd::Cancelled => Err("error: job was cancelled".into()),
        ClientEnd::Rejected => Err("error: daemon rejected the request".into()),
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let outcome = match args.peek().map(String::as_str) {
        Some("explore") => explore_main(args.skip(1)),
        Some("gen") => gen_main(args.skip(1)),
        Some("serve") => serve_main(args.skip(1)),
        Some("submit") => submit_main(args.skip(1)),
        Some("run") => run_main(args.skip(1)),
        _ => run_main(args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
