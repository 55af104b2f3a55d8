//! `serve-mix`: an in-process `serve_tcp` daemon on loopback (2
//! workers, default queue and warm-pool bounds) and 2 closed-loop
//! client connections speaking the line protocol, as `hlts submit`
//! does. Each op is one `submit` line read until its terminal event.

use std::collections::{BTreeMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hlts_core::{EvalMode, RunCtl, SynthesisParams};
use hlts_dse::{json_string, Flow};
use hlts_jobs::json::{self, Json};
use hlts_jobs::{
    execute, proto, serve_tcp, AtpgRequest, JobOutput, JobSpec, ServeConfig, WarmPool,
};

use crate::oneshot::{accounting_closes, write_spans, GRADED, GRADED_BITS, GRADED_SAMPLE};
use crate::report::{
    repeat_setup, E2eSamples, Quality, Report, Window, SETUPS_AFTER, SETUPS_BEFORE,
};
use crate::stats::{self, Ratio};
use crate::trace::Tracer;
use crate::Rng;

const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Per round: each bundled benchmark this many times, ungraded (60%).
const BENCH_REPEATS: usize = 4;
/// Per round: inline generated graphs, each fresh (25%).
const GEN_PER_ROUND: usize = 10;
/// Per round: graded runs; the first three are always ex, tseng and
/// paulin, so every run grades the same reference designs (10%).
const GRADED_PER_ROUND: usize = 4;
/// Per round: warm-start explore sweeps of ewf (5%).
const EXPLORE_PER_ROUND: usize = 2;
/// The (bits, k, α, β) grid of ungraded bench runs: small, so requests
/// repeat exactly.
const BITS: [u32; 2] = [4, 8];
const KS: [usize; 2] = [2, 3];
const WEIGHTS: [(u32, u32); 3] = [(2, 1), (10, 1), (1, 10)];
/// Generated graph sizes (ops) of the inline runs; round slot `i` takes
/// preset `i % 4` and size `i % 5`, so every round asks for the same
/// mix of shapes and the seed picks only the graphs.
const GEN_OPS: [usize; 5] = [16, 20, 24, 28, 32];
/// A reply slower than this fails the op (and bounds the run).
const READ_TIMEOUT: Duration = Duration::from_secs(120);

#[derive(Debug, Clone, PartialEq)]
enum Req {
    Bench {
        name: &'static str,
        bits: u32,
        k: usize,
        alpha: u32,
        beta: u32,
    },
    Gen {
        text: String,
    },
    Graded {
        name: &'static str,
    },
    Explore,
    Status,
}

impl Req {
    fn kind(&self) -> &'static str {
        match self {
            Req::Bench { .. } => "bench",
            Req::Gen { .. } => "gen",
            Req::Graded { .. } => "graded",
            Req::Explore => "explore",
            Req::Status => "status",
        }
    }

    fn line(&self) -> String {
        match self {
            Req::Bench {
                name,
                bits,
                k,
                alpha,
                beta,
            } => format!(
                "{{\"op\":\"submit\",\"job\":{{\"kind\":\"run\",\"source\":\"bench:{name}\",\
                 \"bits\":{bits},\"k\":{k},\"alpha\":{alpha},\"beta\":{beta}}}}}"
            ),
            Req::Gen { text } => format!(
                "{{\"op\":\"submit\",\"job\":{{\"kind\":\"run\",\"name\":\"gen\",\"dfg\":{}}}}}",
                json_string(text)
            ),
            Req::Graded { name } => format!(
                "{{\"op\":\"submit\",\"job\":{{\"kind\":\"run\",\"source\":\"bench:{name}\",\
                 \"bits\":{GRADED_BITS},\"atpg\":{{\"fault_sample\":{GRADED_SAMPLE}}}}}}}"
            ),
            Req::Explore => {
                "{\"op\":\"submit\",\"job\":{\"kind\":\"explore\",\"sources\":[\"bench:ewf\"],\
                 \"ks\":[1,2,3,4,5,6],\"warm_start\":true}}"
                    .to_owned()
            }
            Req::Status => "{\"op\":\"status\"}".to_owned(),
        }
    }

    /// The spec the daemon builds for a run request (as
    /// `serve::resolve_job` does), for the in-process reference.
    fn spec(&self, pool_key: u64) -> Result<Option<JobSpec>, String> {
        let (dfg, bits, k, weights, atpg) = match self {
            Req::Bench {
                name,
                bits,
                k,
                alpha,
                beta,
            } => (
                hlts_benchmarks::by_name(name).ok_or("unknown benchmark")?,
                *bits,
                Some(*k),
                Some((*alpha, *beta)),
                None,
            ),
            Req::Graded { name } => (
                hlts_benchmarks::by_name(name).ok_or("unknown benchmark")?,
                GRADED_BITS,
                None,
                None,
                Some(AtpgRequest {
                    fault_sample: Some(GRADED_SAMPLE),
                    jobs: 1,
                }),
            ),
            Req::Gen { text } => (
                hlts_dfg::parse(text).map_err(|e| e.to_string())?,
                8,
                None,
                None,
                None,
            ),
            Req::Explore | Req::Status => return Ok(None),
        };
        let mut params = SynthesisParams::paper_defaults(bits);
        if let Some(k) = k {
            params.k = k;
        }
        if let Some((a, b)) = weights {
            params.alpha = f64::from(a);
            params.beta = f64::from(b);
        }
        Ok(Some(JobSpec::Run {
            name: "reference".to_owned(),
            dfg,
            flow: Flow::Ours,
            params,
            mode: EvalMode::Sequential,
            warm: Some(pool_key),
            atpg,
        }))
    }
}

#[derive(Debug, Clone)]
struct Item {
    req: Req,
    line: String,
    /// The line was sent before in this run.
    repeat: bool,
    first_round: bool,
}

/// Hands requests to the clients, one round at a time, and ends the
/// window at the round boundary nearest to its deadline.
struct Feeder {
    rng: Rng,
    round: Vec<Item>,
    pos: usize,
    rounds: usize,
    seen: HashSet<String>,
    window: Option<Window>,
    seconds: f64,
    next_op: u64,
    done: bool,
    error: Option<String>,
}

impl Feeder {
    fn new(seed: u64, seconds: f64) -> Result<Feeder, String> {
        let mut f = Feeder {
            rng: Rng::new(seed),
            round: Vec::new(),
            pos: 0,
            rounds: 0,
            seen: HashSet::new(),
            window: None,
            seconds,
            next_op: 0,
            done: false,
            error: None,
        };
        f.make_round()?;
        Ok(f)
    }

    fn make_round(&mut self) -> Result<(), String> {
        let rng = &mut self.rng;
        let mut reqs = Vec::new();
        for name in hlts_benchmarks::NAMES {
            for _ in 0..BENCH_REPEATS {
                let (alpha, beta) = WEIGHTS[rng.below(WEIGHTS.len())];
                reqs.push(Req::Bench {
                    name,
                    bits: BITS[rng.below(BITS.len())],
                    k: KS[rng.below(KS.len())],
                    alpha,
                    beta,
                });
            }
        }
        for i in 0..GEN_PER_ROUND {
            let preset = hlts_gen::PRESET_NAMES[i % hlts_gen::PRESET_NAMES.len()];
            let mut cfg = hlts_gen::preset(preset).ok_or("generator preset missing")?;
            cfg.ops = GEN_OPS[i % GEN_OPS.len()];
            let dfg = hlts_gen::generate(rng.next_u64(), &cfg).map_err(|e| e.to_string())?;
            reqs.push(Req::Gen {
                text: hlts_dfg::emit(&dfg).map_err(|e| e.to_string())?,
            });
        }
        for i in 0..GRADED_PER_ROUND {
            let name = GRADED
                .get(i)
                .copied()
                .unwrap_or_else(|| GRADED[rng.below(GRADED.len())]);
            reqs.push(Req::Graded { name });
        }
        for _ in 0..EXPLORE_PER_ROUND {
            reqs.push(Req::Explore);
        }
        rng.shuffle(&mut reqs);
        let first_round = self.rounds == 0;
        self.round = reqs
            .into_iter()
            .map(|req| {
                let line = req.line();
                let repeat = !self.seen.insert(line.clone());
                Item {
                    req,
                    line,
                    repeat,
                    first_round,
                }
            })
            .collect();
        self.pos = 0;
        self.rounds += 1;
        Ok(())
    }

    /// The next request, or `None` once the window has ended. The
    /// window opens with the first request.
    fn next(&mut self) -> Option<(u64, Item)> {
        if self.done {
            return None;
        }
        let window = self
            .window
            .get_or_insert_with(|| Window::open(self.seconds));
        if self.pos == self.round.len() {
            let another = window.round_done();
            if let Err(e) = another.then(|| self.make_round()).transpose() {
                self.error = Some(e);
            }
            if !another || self.error.is_some() {
                self.done = true;
                return None;
            }
        }
        self.pos += 1;
        self.next_op += 1;
        Some((self.next_op, self.round[self.pos - 1].clone()))
    }
}

/// What a client saw of one op (times in ns since the run's epoch).
#[derive(Debug, Clone)]
struct OpLog {
    op: u64,
    item: Item,
    send: u64,
    ack: u64,
    started: u64,
    term: u64,
    ok: bool,
    /// The `result` object of a `done` event, or the status response.
    answer: Option<String>,
    error: Option<String>,
    iterations: usize,
    points: Vec<u64>,
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Client {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".to_owned()),
            Ok(_) => Ok(line.trim_end().to_owned()),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Send one request line and read until its terminal line.
    fn op(&mut self, op: u64, item: Item, epoch: Instant) -> OpLog {
        let now = || u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut log = OpLog {
            op,
            send: now(),
            ack: 0,
            started: 0,
            term: 0,
            ok: false,
            answer: None,
            error: None,
            iterations: 0,
            points: Vec::new(),
            item,
        };
        let mut wire = log.item.line.clone();
        wire.push('\n');
        if let Err(e) = self.writer.write_all(wire.as_bytes()) {
            log.error = Some(e.to_string());
            log.term = now();
            return log;
        }
        if let Err(e) = self.read_reply(&mut log, now) {
            log.error = Some(e);
        }
        log.term = now();
        log
    }

    fn read_reply(&mut self, log: &mut OpLog, now: impl Fn() -> u64) -> Result<(), String> {
        let ack = self.read_line()?;
        log.ack = now();
        let doc = json::parse(&ack).map_err(|e| format!("bad reply {ack}: {e:?}"))?;
        if doc.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("rejected: {ack}"));
        }
        if log.item.req == Req::Status {
            log.started = log.ack;
            log.answer = Some(ack);
            log.ok = true;
            return Ok(());
        }
        loop {
            let line = self.read_line()?;
            let t = now();
            let doc = json::parse(&line).map_err(|e| format!("bad event {line}: {e:?}"))?;
            match doc.get("event").and_then(Json::as_str) {
                Some("started") => log.started = t,
                Some("iteration") => log.iterations += 1,
                Some("point_done") => log.points.push(t),
                Some("done") => {
                    let head = line
                        .find("\"result\": ")
                        .ok_or("done event without result")?;
                    let body = &line[head + "\"result\": ".len()..line.len() - 1];
                    log.answer = Some(body.to_owned());
                    log.ok = true;
                    return Ok(());
                }
                Some(other) => return Err(format!("job ended {other}: {line}")),
                None => return Err(format!("unexpected line {line}")),
            }
        }
    }
}

/// A started daemon with its connected clients.
struct Daemon {
    server: JoinHandle<std::io::Result<()>>,
    clients: Vec<Client>,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let server = std::thread::spawn(move || {
            serve_tcp(
                listener,
                ServeConfig {
                    workers: WORKERS,
                    ..ServeConfig::default()
                },
            )
        });
        let clients = (0..CLIENTS)
            .map(|_| Client::connect(addr))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        Ok(Daemon { server, clients })
    }

    /// Ask the daemon to drain and wait until its thread has ended.
    fn stop(mut self) -> Result<(), String> {
        let c = self.clients.first_mut().ok_or("no client")?;
        c.writer
            .write_all(b"{\"op\":\"shutdown\"}\n")
            .map_err(|e| e.to_string())?;
        let _ = c.read_line();
        drop(self.clients);
        match self.server.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(e.to_string()),
            Err(_) => Err("daemon thread panicked".to_owned()),
        }
    }
}

fn setup(seed: u64, seconds: f64) -> Result<(Daemon, Feeder), String> {
    let daemon = Daemon::start()?;
    let feeder = Feeder::new(seed, seconds)?;
    Ok((daemon, feeder))
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Report {
    let mut report = Report::new("serve-mix", seed, seconds, trace);
    let mut setup_s = Vec::new();
    let mut built = None;
    // Every set-up but the one the run uses is torn down again; only
    // set-up time is timed.
    for i in 0..SETUPS_BEFORE {
        let (b, t) = repeat_setup(1, || setup(seed, seconds as f64));
        setup_s.extend(t);
        match b {
            Ok(b) if i + 1 == SETUPS_BEFORE => built = Some(b),
            Ok((daemon, _)) => {
                if let Err(e) = daemon.stop() {
                    report.attempted = 1;
                    report.fail(1, format!("stopping a set-up daemon: {e}"));
                    return report;
                }
            }
            Err(e) => {
                report.attempted = 1;
                report.fail(1, format!("set-up: {e}"));
                return report;
            }
        }
    }
    let Some((mut daemon, feeder)) = built else {
        return report;
    };

    let epoch = Instant::now();
    let feeder = Mutex::new(feeder);
    let lock = |f: &Mutex<Feeder>| -> Option<(u64, Item)> {
        f.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .next()
    };
    let joined = std::thread::scope(|s| {
        let handles: Vec<_> = daemon
            .clients
            .iter_mut()
            .map(|c| {
                let feeder = &feeder;
                s.spawn(move || {
                    let mut logs = Vec::new();
                    while let Some((op, item)) = lock(feeder) {
                        let log = c.op(op, item, epoch);
                        let failed = !log.ok;
                        logs.push(log);
                        // A failed op may leave the connection out of
                        // step; the run is incorrect anyway.
                        if failed {
                            break;
                        }
                    }
                    logs
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
    });
    let mut logs: Vec<OpLog> = joined
        .into_iter()
        .flat_map(|joined| {
            joined.unwrap_or_else(|_| {
                report.fail(1, "a client thread panicked");
                Vec::new()
            })
        })
        .collect();
    let mut feeder = feeder
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let status_op = feeder.next_op + 1;
    let status = Item {
        line: Req::Status.line(),
        req: Req::Status,
        repeat: false,
        first_round: false,
    };
    logs.push(daemon.clients[0].op(status_op, status, epoch));
    report.rounds = feeder.rounds;
    if let Some(e) = feeder.error.take() {
        report.fail(0, format!("building a round: {e}"));
    }
    let window = feeder.window.take().map(Window::close).unwrap_or_default();
    if let Err(e) = daemon.stop() {
        report.fail(0, format!("daemon shutdown: {e}"));
    }
    logs.sort_by_key(|l| l.op);
    report.attempted = logs.len();
    for l in logs.iter().filter(|l| !l.ok) {
        report.fail(
            1,
            format!(
                "op {} ({}): {}",
                l.op,
                l.item.req.kind(),
                l.error.as_deref().unwrap_or("failed")
            ),
        );
    }
    for _ in 0..SETUPS_AFTER {
        let (b, t) = repeat_setup(1, || setup(seed, seconds as f64));
        setup_s.extend(t);
        if let Err(e) = b.and_then(|(daemon, _)| daemon.stop()) {
            report.fail(0, format!("set-up after the window: {e}"));
        }
    }
    let quality = verify(&mut report, &logs);
    if trace {
        layers(&mut report, &logs, epoch);
    } else {
        let op_ms: Vec<f64> = logs
            .iter()
            .filter(|l| l.ok)
            .map(|l| (l.term - l.send) as f64 / 1e6)
            .collect();
        report.set_e2e(
            &E2eSamples {
                setup_s,
                ops: op_ms.len(),
                op_ms,
                window,
            },
            &quality,
        );
    }
    report
}

fn fnv(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Output checks: every answer to a repeated line is byte-identical to
/// its first answer, and the daemon's answers match
/// `proto::run_output_json` of the in-process `execute()` for every
/// repeated line, every graded line and the first round's generated
/// graphs; those designs are audited and their fault accounting must
/// close. Returns the quality of the graded reference designs.
fn verify(report: &mut Report, logs: &[OpLog]) -> Quality {
    let mut answers: BTreeMap<&str, Vec<&OpLog>> = BTreeMap::new();
    for l in logs.iter().filter(|l| l.ok && l.item.req != Req::Status) {
        answers.entry(l.item.line.as_str()).or_default().push(l);
    }
    let pool = WarmPool::new(16);
    let mut quality = Quality::default();
    for group in answers.values() {
        let first = group[0];
        let n = group.len();
        if group.iter().any(|l| l.answer != first.answer) {
            report.fail(n, format!("op {}: a repeat answered differently", first.op));
            continue;
        }
        let check = n > 1
            || matches!(first.item.req, Req::Graded { .. })
            || (first.item.first_round && matches!(first.item.req, Req::Gen { .. }));
        if !check {
            continue;
        }
        let key = match &first.item.req {
            Req::Gen { text } => fnv(text),
            Req::Bench { name, .. } | Req::Graded { name } => fnv(name),
            _ => 0,
        };
        let spec = match first.item.req.spec(key) {
            Ok(Some(spec)) => spec,
            Ok(None) => continue,
            Err(e) => {
                report.fail(n, format!("op {}: {e}", first.op));
                continue;
            }
        };
        let out = match execute(&spec, &RunCtl::none(), &pool) {
            Ok(JobOutput::Run(out)) => out,
            Ok(_) => {
                report.fail(n, "reference run returned a non-run output");
                continue;
            }
            Err(e) => {
                report.fail(n, format!("op {}: reference run: {e}", first.op));
                continue;
            }
        };
        if first.answer.as_deref() != Some(proto::run_output_json(&out).as_str()) {
            report.fail(
                n,
                format!(
                    "op {}: daemon answer differs from in-process execute()",
                    first.op
                ),
            );
        }
        let state = hlts_core::DesignState::from_parts(
            &out.result.dfg,
            out.result.schedule.clone(),
            out.result.allocation.clone(),
        );
        let audit = state.audit();
        if !audit.is_clean() {
            report.fail(n, format!("op {}: audit: {audit}", first.op));
        }
        if let Some(c) = &out.coverage {
            if !accounting_closes(c) {
                report.fail(
                    n,
                    format!("op {}: fault accounting does not close", first.op),
                );
            }
            quality.coverage = quality.coverage.add(Ratio::new(c.coverage(), 1.0));
            quality.effort += c.effort();
            quality.test_cycles += c.test_cycles as f64;
            quality.area += out.result.metrics.hardware.total();
            quality.steps += out.result.metrics.execution_time as f64;
        }
    }
    if quality.coverage.den != GRADED.len() as f64 {
        report.fail(
            0,
            format!(
                "graded {} reference designs, not {}",
                quality.coverage.den,
                GRADED.len()
            ),
        );
    }
    quality
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Per-layer metrics from the clients' timestamps and the final
/// status response.
fn layers(report: &mut Report, logs: &[OpLog], epoch: Instant) {
    let mut tracer = Tracer::new(epoch);
    let bookkeeping = Instant::now();
    for l in logs.iter().filter(|l| l.ok) {
        let root = tracer.record("op", l.op, None, l.send, l.term);
        if l.item.req != Req::Status {
            tracer.record("jobs.submit_ack", l.op, Some(root), l.send, l.ack);
            tracer.record("jobs.queue_wait", l.op, Some(root), l.ack, l.started);
            tracer.record("jobs.exec", l.op, Some(root), l.started, l.term);
        }
    }
    let bookkeeping_ns = bookkeeping.elapsed().as_nanos() as f64;
    report.set_split(
        tracer.spans(),
        &[
            ("jobs.submit_ack", "jobs.submit_ack_ms"),
            ("jobs.queue_wait", "jobs.queue_wait_ms"),
            ("jobs.exec", "jobs.exec_ms"),
        ],
    );
    let op_ns: f64 = logs
        .iter()
        .filter(|l| l.ok)
        .map(|l| (l.term - l.send) as f64)
        .sum();
    report.set(
        "trace_overhead_pct",
        100.0 * bookkeeping_ns / op_ns.max(1.0),
        &[],
        "the clients only timestamp lines they read anyway: span bookkeeping time / op time",
    );

    let runs: Vec<&OpLog> = logs
        .iter()
        .filter(|l| {
            l.ok && matches!(
                l.item.req,
                Req::Bench { .. } | Req::Gen { .. } | Req::Graded { .. }
            )
        })
        .collect();
    let memo = runs.iter().filter(|l| l.iterations == 0).count();
    report.set_ratio(
        "jobs.memo_hit_share",
        Ratio::new(memo as f64, runs.len() as f64),
        "run ops without a merge-loop iteration/run ops",
    );
    let submits: Vec<&OpLog> = logs.iter().filter(|l| l.item.req != Req::Status).collect();
    let repeats = submits.iter().filter(|l| l.item.repeat).count();
    report.set_ratio(
        "jobs.repeat_share",
        Ratio::new(repeats as f64, submits.len() as f64),
        "exact repeats/submits",
    );
    let explores: Vec<&OpLog> = logs
        .iter()
        .filter(|l| l.ok && l.item.req == Req::Explore)
        .collect();
    let explore_ms: Vec<f64> = explores.iter().map(|l| ms(l.term - l.started)).collect();
    report.set(
        "dse.explore_ms",
        stats::mean(&explore_ms),
        &explore_ms,
        format!("mean started-to-done of {} explore ops", explores.len()),
    );
    let mut point_ms = Vec::new();
    for l in &explores {
        let mut prev = l.started;
        for &p in &l.points {
            point_ms.push(ms(p - prev));
            prev = p;
        }
    }
    report.set(
        "dse.point_ms_p50",
        stats::median(&point_ms),
        &point_ms,
        format!("{} point_done intervals", point_ms.len()),
    );

    let status = logs
        .iter()
        .rev()
        .find(|l| l.item.req == Req::Status)
        .and_then(|l| l.answer.as_deref())
        .and_then(|a| json::parse(a).ok());
    let Some(status) = status else {
        report.fail(0, "no status response");
        return;
    };
    let count = |path: &[&str]| -> f64 {
        let mut v = Some(&status);
        for p in path {
            v = v.and_then(|v| v.get(p));
        }
        v.and_then(Json::as_f64).unwrap_or(0.0)
    };
    let pair = |a: &[&str], b: &[&str]| Ratio::new(count(a), count(a) + count(b));
    report.set_ratio(
        "jobs.warm_hit_rate",
        pair(&["status", "warm", "hits"], &["status", "warm", "misses"]),
        "hits/lookups",
    );
    report.set_ratio(
        "jobs.tcov_report_hit_rate",
        pair(
            &["status", "tcov", "report_hits"],
            &["status", "tcov", "report_misses"],
        ),
        "hits/lookups",
    );
    report.set_ratio(
        "dse.replay_frac",
        pair(
            &["status", "explore_replay", "merges_replayed"],
            &["status", "explore_replay", "merges_recomputed"],
        ),
        "replayed/merges",
    );
    report.set(
        "jobs.interner_bytes",
        count(&["status", "interner", "bytes"]),
        &[],
        "interned symbol bytes at the final status op",
    );
    write_spans(report, &tracer);
    report.notes.push(format!(
        "serve-mix shares: {} of {} submits repeat an earlier line exactly; {} of {} run ops were answered from the result memo",
        repeats,
        submits.len(),
        memo,
        runs.len()
    ));
}
