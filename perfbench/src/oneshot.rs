//! The one-client workloads: `atpg-paper` (`hlts run bench:X --atpg`)
//! and `synth-cli` (`hlts run file.dfg`). Each op is one call of
//! `hlts_jobs::execute` with a fresh `WarmPool::new(0)`, exactly as the
//! CLI makes it. The traced run repeats each op as a pipeline of the
//! same layer calls `execute` makes, each inside a span.

use std::sync::Mutex;
use std::time::Instant;

use hlts_atpg::{FaultSimulator, FaultUniverse};
use hlts_core::{
    CancelToken, DesignState, EvalMode, IntegratedSynthesizer, ProgressEvent, ProgressSink, RunCtl,
    SynthesisParams, SynthesisResult,
};
use hlts_dfg::Dfg;
use hlts_dse::Flow;
use hlts_etpn::Etpn;
use hlts_jobs::{execute, AtpgRequest, JobOutput, JobSpec, RunOutput, WarmCtx, WarmPool};
use hlts_tcov::{fsim, grade_with_universe, CoverageReport, TcovConfig};

use crate::report::{
    repeat_setup, E2eSamples, Quality, Report, Window, SETUPS_AFTER, SETUPS_BEFORE,
};
use crate::stats::{self, Ratio};
use crate::trace::Tracer;
use crate::{catalog, Rng};

/// Faults graded per design on `atpg-paper`. The CLI default (2000)
/// makes one pass over the six designs take ~74 s on a 2-CPU host,
/// longer than a whole run may last; 200 keeps the same seeded sample
/// order and the same random-then-PODEM split at ~6 s a pass.
pub const ATPG_SAMPLE: usize = 200;

/// The graded reference designs of `synth-cli` and `serve-mix`: these
/// paper designs at 4 bits with the paper's default parameters, graded
/// on a 500-fault sample.
pub const GRADED: [&str; 3] = ["ex", "tseng", "paulin"];
pub const GRADED_BITS: u32 = 4;
pub const GRADED_SAMPLE: usize = 500;

/// Generated graph sizes of `synth-cli`: every round draws one fresh
/// graph per (preset, entry), 16 to 64 ops, denser at the small end
/// where the op median sits. `wide-logic` graphs cost ~4x the others at
/// equal size: a 64-op one takes ~4.5 s, half a pass, and its cost moves
/// ±15% with the seed, so that preset stops at 48 ops. A round takes
/// ~8 s on a 2-CPU host.
const GEN_OPS: [usize; 5] = [16, 16, 24, 32, 64];
const WIDE_LOGIC_OPS: [usize; 5] = [16, 16, 24, 32, 48];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    AtpgPaper,
    SynthCli,
}

/// One input of a one-shot workload.
#[derive(Debug)]
pub struct Input {
    pub label: String,
    /// The bundled benchmark this input is, if any.
    pub bench: Option<&'static str>,
    pub bits: u32,
    /// The parsed graph (`atpg-paper`) or its DFG text (`synth-cli`,
    /// parsed inside the op as `hlts run file.dfg` does).
    pub dfg: Option<Dfg>,
    pub text: Option<String>,
}

fn atpg(kind: Kind) -> Option<AtpgRequest> {
    (kind == Kind::AtpgPaper).then(|| AtpgRequest {
        fault_sample: Some(ATPG_SAMPLE),
        ..AtpgRequest::default()
    })
}

/// Candidate evaluation mode. `atpg-paper` keeps the CLI default
/// (`Parallel`). `synth-cli` runs `Sequential`, the daemon's mode: the
/// default spawns a thread per shortlisted candidate for every chunk,
/// and on a 2-vCPU VM each spawn waits for the host to schedule the
/// other vCPU. Runs of the same code then moved 30% with host steal
/// (0.4 to 8.6 s of steal per 30 s run), far past any bound; sequential
/// runs saw under 1 s of steal. The traced run still times `Parallel`
/// on every input (`core.synth_parallel_ms`).
fn mode(kind: Kind) -> EvalMode {
    match kind {
        Kind::AtpgPaper => EvalMode::default(),
        Kind::SynthCli => EvalMode::Sequential,
    }
}

fn spec(kind: Kind, input: &Input, dfg: Dfg) -> JobSpec {
    JobSpec::Run {
        name: input.label.clone(),
        dfg,
        flow: Flow::Ours,
        params: SynthesisParams::paper_defaults(input.bits),
        mode: mode(kind),
        warm: None,
        atpg: atpg(kind),
    }
}

/// The inputs of a one-shot run. The bundled designs come back every
/// round; `synth-cli` draws fresh generated graphs for every round (same
/// presets and sizes), so a run averages over more graphs than one pass
/// holds.
pub struct Inputs {
    kind: Kind,
    rng: Rng,
    pub all: Vec<Input>,
    /// `all[..bench]` are the bundled-design inputs.
    bench: usize,
}

impl Inputs {
    pub fn new(kind: Kind, seed: u64) -> Result<Inputs, String> {
        let mut all = Vec::new();
        for name in hlts_benchmarks::NAMES {
            let dfg = hlts_benchmarks::by_name(name).ok_or("bundled benchmark missing")?;
            if kind == Kind::AtpgPaper {
                all.push(Input {
                    label: name.to_owned(),
                    bench: Some(name),
                    bits: 8,
                    dfg: Some(dfg),
                    text: None,
                });
                continue;
            }
            let text = hlts_dfg::emit(&dfg).map_err(|e| e.to_string())?;
            for bits in [4, 8, 16] {
                all.push(Input {
                    label: format!("{name}@{bits}"),
                    bench: Some(name),
                    bits,
                    dfg: None,
                    text: Some(text.clone()),
                });
            }
        }
        Ok(Inputs {
            kind,
            rng: Rng::new(seed),
            bench: all.len(),
            all,
        })
    }

    /// Add the next round's generated graphs and return the round's
    /// input indices in seed-shuffled order.
    pub fn round(&mut self) -> Result<Vec<usize>, String> {
        let mut order: Vec<usize> = (0..self.bench).collect();
        if self.kind == Kind::SynthCli {
            for preset in hlts_gen::PRESET_NAMES {
                let sizes = if preset == "wide-logic" {
                    WIDE_LOGIC_OPS
                } else {
                    GEN_OPS
                };
                for ops in sizes {
                    let mut cfg = hlts_gen::preset(preset).ok_or("generator preset missing")?;
                    cfg.ops = ops;
                    let gseed = self.rng.next_u64();
                    let dfg = hlts_gen::generate(gseed, &cfg).map_err(|e| e.to_string())?;
                    order.push(self.all.len());
                    self.all.push(Input {
                        label: format!("{preset}/{ops}/{gseed:x}"),
                        bench: None,
                        bits: 8,
                        dfg: None,
                        text: Some(hlts_dfg::emit(&dfg).map_err(|e| e.to_string())?),
                    });
                }
            }
        }
        self.rng.shuffle(&mut order);
        Ok(order)
    }
}

/// Set-up: the inputs and the first round's order.
fn setup(kind: Kind, seed: u64) -> Result<(Inputs, Vec<usize>), String> {
    let mut inputs = Inputs::new(kind, seed)?;
    let order = inputs.round()?;
    Ok((inputs, order))
}

/// One untraced op: what `hlts run` does for this input.
fn run_op(kind: Kind, input: &Input) -> Result<RunOutput, String> {
    let dfg = match (&input.dfg, &input.text) {
        (Some(dfg), _) => dfg.clone(),
        (None, Some(text)) => hlts_dfg::parse(text).map_err(|e| e.to_string())?,
        (None, None) => return Err("input has no graph".to_owned()),
    };
    let spec = spec(kind, input, dfg);
    match execute(&spec, &RunCtl::none(), &WarmPool::new(0)) {
        Ok(JobOutput::Run(out)) => Ok(*out),
        Ok(_) => Err("run job returned a non-run output".to_owned()),
        Err(e) => Err(e.to_string()),
    }
}

fn same(a: &RunOutput, b: &RunOutput) -> bool {
    a.result == b.result
        && a.coverage.as_ref().map(CoverageReport::signature)
            == b.coverage.as_ref().map(CoverageReport::signature)
}

fn audit(result: &SynthesisResult) -> Result<(), String> {
    let state = DesignState::from_parts(
        &result.dfg,
        result.schedule.clone(),
        result.allocation.clone(),
    );
    let report = state.audit();
    if report.is_clean() {
        Ok(())
    } else {
        Err(report.to_string())
    }
}

/// Random + deterministic + untestable + aborted may not exceed the
/// graded faults.
pub fn accounting_closes(c: &CoverageReport) -> bool {
    c.detected_random + c.detected_deterministic + c.untestable + c.aborted <= c.faults_graded
}

fn check_output(report: &mut Report, label: &str, out: &RunOutput, ops: usize) {
    if let Err(e) = audit(&out.result) {
        report.fail(ops, format!("{label}: audit: {e}"));
    }
    if let Some(c) = &out.coverage {
        if !accounting_closes(c) {
            report.fail(
                ops,
                format!(
                    "{label}: fault accounting does not close: {}",
                    c.signature()
                ),
            );
        }
    }
}

pub fn run(kind: Kind, seed: u64, seconds: u64, trace: bool) -> Report {
    let name = match kind {
        Kind::AtpgPaper => "atpg-paper",
        Kind::SynthCli => "synth-cli",
    };
    let mut report = Report::new(name, seed, seconds, trace);
    let (built, setup_s) = repeat_setup(SETUPS_BEFORE, || setup(kind, seed));
    let (inputs, order) = match built {
        Ok(built) => built,
        Err(e) => {
            report.attempted = 1;
            report.fail(1, format!("building the inputs: {e}"));
            return report;
        }
    };
    if trace {
        traced(kind, &mut report, inputs, order, seconds);
    } else {
        untraced(kind, &mut report, inputs, order, seconds, setup_s);
    }
    report
}

/// The rounds of a run: the set-up's first round, then fresh ones until
/// the window ends. `op` runs one input; a failed round build ends the
/// run as failed.
fn rounds(
    report: &mut Report,
    inputs: &mut Inputs,
    first: Vec<usize>,
    seconds: u64,
    mut op: impl FnMut(&mut Report, &Inputs, usize),
) -> Window {
    let mut window = Window::open(seconds as f64);
    let mut order = first;
    loop {
        for &i in &order {
            op(report, inputs, i);
        }
        if !window.round_done() {
            break;
        }
        order = match inputs.round() {
            Ok(order) => order,
            Err(e) => {
                report.fail(0, format!("building a round: {e}"));
                break;
            }
        };
    }
    report.rounds = window.rounds();
    window
}

fn untraced(
    kind: Kind,
    report: &mut Report,
    mut inputs: Inputs,
    order: Vec<usize>,
    seconds: u64,
    mut setup_s: Vec<f64>,
) {
    // An input's latency is the median of its repeats in the run, and
    // the op statistics run over inputs, whatever the round count. The
    // bundled designs keep their first answer for the repeat check.
    let mut lat: Vec<Vec<f64>> = Vec::new();
    let mut first: Vec<Option<RunOutput>> = (0..inputs.bench).map(|_| None).collect();
    let window = rounds(report, &mut inputs, order, seconds, |report, inputs, i| {
        let input = &inputs.all[i];
        report.attempted += 1;
        let t = Instant::now();
        let out = run_op(kind, input);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let out = match out {
            Ok(out) => out,
            Err(e) => return report.fail(1, format!("{}: {e}", input.label)),
        };
        lat.resize_with(inputs.all.len(), Vec::new);
        lat[i].push(ms);
        match first.get(i) {
            None => check_output(report, &input.label, &out, 1),
            Some(None) => first[i] = Some(out),
            Some(Some(f)) if !same(f, &out) => report.fail(
                1,
                format!("{}: answer differs from its first answer", input.label),
            ),
            Some(Some(_)) => {}
        }
    });
    let window = window.close();
    setup_s.extend(repeat_setup(SETUPS_AFTER, || setup(kind, report.seed)).1);

    let mut slowest: Vec<(f64, &str)> = lat
        .iter()
        .zip(&inputs.all)
        .filter(|(l, _)| !l.is_empty())
        .map(|(l, input)| (stats::median(l), input.label.as_str()))
        .collect();
    slowest.sort_by(|a, b| b.0.total_cmp(&a.0));
    report.notes.push(format!(
        "slowest inputs (median ms): {}",
        slowest
            .iter()
            .take(12)
            .map(|(ms, label)| format!("{label} {ms:.1}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let mut quality = Quality::default();
    for (i, out) in first.iter().enumerate() {
        let Some(out) = out else { continue };
        let input = &inputs.all[i];
        check_output(report, &input.label, out, lat[i].len());
        quality.area += out.result.metrics.hardware.total();
        quality.steps += out.result.metrics.execution_time as f64;
        if let Some(c) = &out.coverage {
            add_coverage(&mut quality, c);
        }
    }
    if kind == Kind::SynthCli {
        grade_reference_designs(report, &inputs.all, &first, &mut quality);
    }
    report.set_e2e(
        &E2eSamples {
            setup_s,
            ops: lat.iter().map(Vec::len).sum(),
            op_ms: lat
                .iter()
                .filter(|l| !l.is_empty())
                .map(|l| stats::median(l))
                .collect(),
            window,
        },
        &quality,
    );
}

fn add_coverage(q: &mut Quality, c: &CoverageReport) {
    q.coverage = q.coverage.add(Ratio::new(c.coverage(), 1.0));
    q.effort += c.effort();
    q.test_cycles += c.test_cycles as f64;
}

/// `synth-cli` grades nothing inside its ops; its test-quality metrics
/// grade the [`GRADED`] designs it synthesized, after the timed window.
fn grade_reference_designs(
    report: &mut Report,
    inputs: &[Input],
    first: &[Option<RunOutput>],
    quality: &mut Quality,
) {
    for (input, out) in inputs.iter().zip(first) {
        let Some(out) = out else { continue };
        if input.bits != GRADED_BITS || !input.bench.is_some_and(|b| GRADED.contains(&b)) {
            continue;
        }
        let r = &out.result;
        let cfg = TcovConfig::for_schedule(r.schedule.num_steps(), Some(GRADED_SAMPLE), 1);
        match hlts_tcov::grade_design(
            &r.dfg,
            &r.schedule,
            &r.allocation,
            GRADED_BITS,
            &cfg,
            &RunCtl::none(),
        ) {
            Ok(c) if accounting_closes(&c) => add_coverage(quality, &c),
            Ok(c) => report.fail(
                0,
                format!(
                    "{}: fault accounting does not close: {}",
                    input.label,
                    c.signature()
                ),
            ),
            Err(e) => report.fail(0, format!("{}: grading: {e}", input.label)),
        }
    }
}

/// Timestamps of the merge loop's `Iteration` events.
struct IterClock<'a> {
    tracer: &'a Tracer,
    stamps: Mutex<Vec<u64>>,
}

impl ProgressSink for IterClock<'_> {
    fn event(&self, event: ProgressEvent) {
        if let ProgressEvent::Iteration { .. } = event {
            let now = self.tracer.now();
            self.stamps
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(now);
        }
    }
}

/// Work counters gathered from the traced pipeline's return values.
#[derive(Debug, Default)]
struct Counters {
    ops: usize,
    synth_ns: u64,
    parallel_ns: u64,
    trials: u64,
    rolled_back: u64,
    iterations: u64,
    iter_us: Vec<f64>,
    testability: Ratio,
    eval: Ratio,
    cp: Ratio,
    gates: u64,
    faults_collapsed: u64,
    graded: u64,
    detected_random: u64,
    random_ns: u64,
    fault_cycles: u64,
    det_ns: u64,
    targets: u64,
    detected_det: u64,
    backtracks: u64,
    aborted: u64,
    untestable: u64,
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    per_design: Vec<DesignTimes>,
}

/// One traced `atpg-paper` op's split.
#[derive(Debug)]
struct DesignTimes {
    name: String,
    grade_ms: f64,
    random_ms: f64,
    synth_ms: f64,
}

/// The traced pipeline: the calls `execute` makes for a run job with a
/// fresh pool, each in a span, under one root span per op. The random
/// phase is timed once more afterwards under its own root (`probe`),
/// outside the op, since `grade_with_universe` runs it internally.
fn traced_op(
    kind: Kind,
    tracer: &mut Tracer,
    op: u64,
    input: &Input,
    counters: &mut Counters,
) -> Result<RunOutput, String> {
    let root = tracer.begin("op", op);
    let out = traced_body(kind, tracer, op, root, input, counters);
    tracer.close_from(root);
    counters
        .traced_ms
        .push(tracer.spans()[root].dur() as f64 / 1e6);
    out
}

fn traced_body(
    kind: Kind,
    tracer: &mut Tracer,
    op: u64,
    root: usize,
    input: &Input,
    counters: &mut Counters,
) -> Result<RunOutput, String> {
    let dfg = match (&input.dfg, &input.text) {
        (Some(dfg), _) => dfg.clone(),
        (None, Some(text)) => tracer
            .span("dfg.parse", op, || hlts_dfg::parse(text))
            .map_err(|e| e.to_string())?,
        (None, None) => return Err("input has no graph".to_owned()),
    };
    let params = SynthesisParams::paper_defaults(input.bits);
    let ctx = tracer
        .span("jobs.ctx_build", op, || WarmCtx::build(&dfg))
        .map_err(|e| e.to_string())?;
    let clock = IterClock {
        tracer,
        stamps: Mutex::new(Vec::new()),
    };
    let ctl = RunCtl {
        cancel: CancelToken::new(),
        progress: &clock,
    };
    let synth_start = tracer.now();
    let result = IntegratedSynthesizer::new(params.clone())
        .run_on_ctl(&ctx.base, mode(kind), &ctx.evaluator, &ctl)
        .map_err(|e| e.to_string());
    let synth_end = tracer.now();
    let stamps = clock
        .stamps
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // The synthesis span is recorded from its timestamps because the
    // progress sink borrows the tracer while the merge loop runs.
    tracer.record("core.synth", op, Some(root), synth_start, synth_end);
    let result = result?;

    counters.synth_ns += synth_end - synth_start;
    counters.trials += result.txn_stats.begun;
    counters.rolled_back += result.txn_stats.rolled_back;
    counters.iterations += stamps.len() as u64;
    for (i, &s) in stamps.iter().enumerate() {
        let next = stamps.get(i + 1).copied().unwrap_or(synth_end);
        counters.iter_us.push((next - s) as f64 / 1e3);
    }
    let ts = result.testability_stats;
    counters.testability = counters
        .testability
        .add(Ratio::new(ts.hits as f64, (ts.hits + ts.misses) as f64));
    let es = ctx.evaluator.stats();
    counters.eval = counters.eval.add(Ratio::new(
        es.state_hits as f64,
        (es.state_hits + es.state_misses) as f64,
    ));
    let cp = es.critical_path;
    counters.cp = counters
        .cp
        .add(Ratio::new(cp.hits as f64, (cp.hits + cp.misses) as f64));

    let Some(req) = atpg(kind) else {
        tracer.end(root);
        // The same synthesis under the CLI's default mode, outside the
        // op; it must give the same design.
        let probe = tracer.begin("probe", op);
        let ctx = WarmCtx::build(&dfg).map_err(|e| e.to_string())?;
        let start = tracer.now();
        let parallel = IntegratedSynthesizer::new(params)
            .run_on(&ctx.base, EvalMode::Parallel, &ctx.evaluator)
            .map_err(|e| e.to_string())?;
        let end = tracer.now();
        tracer.record("core.synth_parallel", op, Some(probe), start, end);
        tracer.end(probe);
        counters.parallel_ns += end - start;
        if parallel != result {
            return Err("EvalMode::Parallel synthesized a different design".to_owned());
        }
        return Ok(RunOutput {
            result,
            coverage: None,
        });
    };
    let cfg = TcovConfig::for_schedule(
        result.schedule.num_steps(),
        req.fault_sample,
        req.jobs.max(1),
    );
    let r = &result;
    let etpn = tracer
        .span("etpn.build", op, || {
            Etpn::from_parts(&r.dfg, &r.schedule, &r.allocation)
        })
        .map_err(|e| e.to_string())?;
    let nl = tracer
        .span("netlist.elaborate", op, || {
            hlts_netlist::elaborate(&r.dfg, &r.schedule, &r.allocation, &etpn, input.bits)
        })
        .map_err(|e| e.to_string())?;
    let universe = tracer.span("atpg.collapse", op, || FaultUniverse::collapsed(&nl));
    let grade_start = tracer.now();
    let coverage =
        grade_with_universe(&nl, &universe, &cfg, &RunCtl::none()).map_err(|e| e.to_string())?;
    let grade_end = tracer.now();
    tracer.record("tcov.grade", op, Some(root), grade_start, grade_end);
    tracer.end(root);

    let probe = tracer.begin("probe", op);
    let sampled = match cfg.atpg.fault_sample {
        Some(n) => universe.clone().sampled(n, cfg.atpg.seed),
        None => universe.clone(),
    };
    let ctrl = fsim::control_inputs(&nl);
    let mut fs = FaultSimulator::new(nl.clone());
    let random_start = tracer.now();
    let random = fsim::run_random_phase(
        &mut fs,
        &cfg.atpg,
        &ctrl,
        sampled.faults(),
        cfg.jobs,
        &CancelToken::new(),
    )
    .map_err(|e| e.to_string())?;
    let random_end = tracer.now();
    tracer.record("tcov.random", op, Some(probe), random_start, random_end);
    tracer.end(probe);
    if random.detected_random != coverage.detected_random
        || random.random_patterns != coverage.random_patterns
    {
        return Err("the random-phase probe disagrees with the graded report".to_owned());
    }

    let grade_ns = grade_end - grade_start;
    let random_ns = random_end - random_start;
    counters.gates += nl.num_gates() as u64;
    counters.faults_collapsed += universe.len() as u64;
    counters.graded += coverage.faults_graded as u64;
    counters.detected_random += coverage.detected_random as u64;
    counters.random_ns += random_ns;
    counters.det_ns += grade_ns.saturating_sub(random_ns);
    for s in 0..cfg.atpg.random_sequences {
        let pending = random
            .first_detect_seq
            .iter()
            .filter(|d| d.is_none_or(|d| d >= s))
            .count();
        if pending == 0 {
            break;
        }
        counters.fault_cycles += (pending * cfg.atpg.sequence_cycles) as u64;
    }
    let residual = coverage.faults_graded - coverage.detected_random;
    counters.targets += residual.min(cfg.atpg.max_deterministic_targets) as u64;
    counters.detected_det += coverage.detected_deterministic as u64;
    counters.backtracks += coverage.backtracks as u64;
    counters.aborted += coverage.aborted as u64;
    counters.untestable += coverage.untestable as u64;
    counters.per_design.push(DesignTimes {
        name: input.label.clone(),
        grade_ms: grade_ns as f64 / 1e6,
        random_ms: random_ns as f64 / 1e6,
        synth_ms: (synth_end - synth_start) as f64 / 1e6,
    });
    Ok(RunOutput {
        result,
        coverage: Some(coverage),
    })
}

fn traced(kind: Kind, report: &mut Report, mut inputs: Inputs, order: Vec<usize>, seconds: u64) {
    let mut tracer = Tracer::new(Instant::now());
    let mut c = Counters::default();
    let mut op = 0u64;
    drop(rounds(
        report,
        &mut inputs,
        order,
        seconds,
        |report, inputs, i| {
            let input = &inputs.all[i];
            report.attempted += 1;
            op += 1;
            let t = Instant::now();
            let reference = run_op(kind, input);
            c.untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let traced = traced_op(kind, &mut tracer, op, input, &mut c);
            match (reference, traced) {
                (Ok(a), Ok(b)) if same(&a, &b) => {
                    c.ops += 1;
                    check_output(report, &input.label, &b, 1);
                }
                (Ok(_), Ok(_)) => report.fail(
                    1,
                    format!("{}: traced pipeline differs from execute()", input.label),
                ),
                (Err(e), _) | (_, Err(e)) => report.fail(1, format!("{}: {e}", input.label)),
            }
        },
    ));

    report.set_split(
        tracer.spans(),
        &[
            ("dfg.parse", "dfg.parse_ms"),
            ("jobs.ctx_build", "jobs.ctx_build_ms"),
            ("core.synth", "core.synth_ms"),
            ("etpn.build", "etpn.build_ms"),
            ("netlist.elaborate", "netlist.elaborate_ms"),
            ("atpg.collapse", "atpg.collapse_ms"),
        ],
    );
    let n = c.ops.max(1) as f64;
    let per_op = |x: u64| x as f64 / n;
    let mean_note = format!("mean per op over {} ops", c.ops);
    report.set_ratio(
        "core.trial_us",
        Ratio::new(c.synth_ns as f64 / 1e3, c.trials as f64),
        "synth us/trials",
    );
    report.set("core.trials", per_op(c.trials), &[], mean_note.clone());
    report.set_ratio(
        "core.rollback_frac",
        Ratio::new(c.rolled_back as f64, c.trials as f64),
        "rolled back/begun",
    );
    report.set(
        "core.iterations",
        per_op(c.iterations),
        &[],
        mean_note.clone(),
    );
    report.set(
        "core.iter_us_p50",
        stats::median(&c.iter_us),
        &c.iter_us,
        format!("{} iterations", c.iter_us.len()),
    );
    if kind == Kind::SynthCli {
        report.set(
            "core.synth_parallel_ms",
            per_op(c.parallel_ns) / 1e6,
            &[],
            format!("{mean_note}; EvalMode::Parallel, timed in a probe outside the op"),
        );
    }
    report.set_ratio("core.testability_hit_rate", c.testability, "hits/queries");
    report.set_ratio("core.eval_hit_rate", c.eval, "hits/queries");
    report.set_ratio("etpn.cp_hit_rate", c.cp, "hits/queries");
    if kind == Kind::AtpgPaper {
        report.set("netlist.gates", per_op(c.gates), &[], mean_note.clone());
        report.set(
            "atpg.faults_collapsed",
            per_op(c.faults_collapsed),
            &[],
            mean_note.clone(),
        );
        report.set(
            "tcov.random_ms",
            per_op(c.random_ns) / 1e6,
            &[],
            format!("{mean_note}; timed in a probe outside the op"),
        );
        report.set_ratio(
            "tcov.random_yield",
            Ratio::new(c.detected_random as f64, c.graded as f64),
            "detected/graded",
        );
        report.set_ratio(
            "tcov.random_ns_per_fault_cycle",
            Ratio::new(c.random_ns as f64, c.fault_cycles as f64),
            "ns/pending-fault cycles",
        );
        report.set(
            "tcov.deterministic_ms",
            per_op(c.det_ns) / 1e6,
            &[],
            format!("{mean_note}; derived: grade_with_universe minus the random phase"),
        );
        report.set(
            "tcov.podem_targets",
            per_op(c.targets),
            &[],
            mean_note.clone(),
        );
        report.set(
            "tcov.backtracks",
            per_op(c.backtracks),
            &[],
            mean_note.clone(),
        );
        report.set_ratio(
            "tcov.us_per_backtrack",
            Ratio::new(c.det_ns as f64 / 1e3, c.backtracks as f64),
            "deterministic us/backtracks",
        );
        report.set("tcov.aborted", per_op(c.aborted), &[], mean_note.clone());
        report.set(
            "tcov.untestable",
            per_op(c.untestable),
            &[],
            mean_note.clone(),
        );
        report.set_ratio(
            "tcov.podem_yield",
            Ratio::new(c.detected_det as f64, c.targets as f64),
            "detected/targets",
        );
        let op_ns: f64 = c.traced_ms.iter().sum::<f64>() * 1e6;
        report.notes.push(format!(
            "PODEM (deterministic) share of traced op time: {:.1}% ({:.0} of {:.0} ms); random phase {:.1}%",
            100.0 * c.det_ns as f64 / op_ns.max(1.0),
            c.det_ns as f64 / 1e6,
            op_ns / 1e6,
            100.0 * c.random_ns as f64 / op_ns.max(1.0),
        ));
        for bench in hlts_benchmarks::NAMES {
            let rows: Vec<&DesignTimes> = c.per_design.iter().filter(|r| r.name == bench).collect();
            let col =
                |f: fn(&DesignTimes) -> f64| -> Vec<f64> { rows.iter().map(|r| f(r)).collect() };
            let grade = col(|r| r.grade_ms);
            let (g, r, s) = (
                stats::median(&grade),
                stats::median(&col(|r| r.random_ms)),
                stats::median(&col(|r| r.synth_ms)),
            );
            if let Some(metric) = catalog::graded_name(bench) {
                report.set(
                    metric,
                    g,
                    &grade,
                    format!("median of {} gradings", grade.len()),
                );
            }
            report.notes.push(format!(
                "design {bench}: synthesis {s:.1} ms, tcov random {r:.1} ms, tcov deterministic {:.1} ms (derived), graded {g:.1} ms",
                g - r
            ));
        }
    }
    let (u, t) = (stats::median(&c.untraced_ms), stats::median(&c.traced_ms));
    report.set(
        "trace_overhead_pct",
        100.0 * (t - u) / u.max(f64::MIN_POSITIVE),
        &[],
        format!(
            "traced p50 {t:.3} ms vs untraced p50 {u:.3} ms over {} paired ops",
            c.ops
        ),
    );
    write_spans(report, &tracer);
}

/// Write the run's spans when it ends.
pub fn write_spans(report: &mut Report, tracer: &Tracer) {
    let dir = std::path::Path::new("perfbench").join("traces");
    let path = dir.join(format!("{}-seed{}.tsv", report.workload, report.seed));
    let text = crate::trace::to_tsv(tracer.spans());
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => report
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => report
            .notes
            .push(format!("spans not written to {}: {e}", path.display())),
    }
}
