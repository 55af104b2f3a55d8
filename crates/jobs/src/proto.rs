//! The line-delimited JSON protocol of `hlts serve`.
//!
//! One request per line in, one response per line out, plus streamed
//! per-job event lines. This module is pure data: it parses request
//! lines into [`Request`] values, renders a run submission
//! ([`render_run_submit`], what `hlts submit` sends), and renders
//! responses/events as single-line JSON strings (the
//! [`line`](hlts_json::Obj::line) layout of [`hlts_json`]). Requests
//! become executable specs in [`crate::resolve_job`]; the I/O and
//! engine wiring live in [`crate::serve`].
//!
//! # Requests
//!
//! ```text
//! {"op":"submit","id":"c1","job":{"kind":"run","source":"bench:ewf",
//!     "flow":"ours","bits":8,"k":3,"alpha":10,"beta":1}}
//! {"op":"submit","job":{"kind":"run","dfg":"dfg t { ... }"}}
//! {"op":"submit","job":{"kind":"explore","sources":["bench:ex"],
//!     "flows":["ours","camad"],"ks":[1,3],"weights":[[2,1],[1,10]],
//!     "bits":[8],"jobs":2}}
//! {"op":"submit","job":{"kind":"gen","seed":7,"preset":"balanced"}}
//! {"op":"status","id":"s1"}
//! {"op":"cancel","job":3}
//! {"op":"shutdown"}
//! ```
//!
//! `id` is an optional client-chosen correlation string, echoed on the
//! response — including on *error* responses whenever the line was
//! valid JSON carrying one. A malformed line is answered with
//! `{"ok":false,...}` and counted; it never terminates the connection
//! or the daemon.
//!
//! # Responses and events
//!
//! ```text
//! {"ok":true,"id":"c1","job":3}
//! {"ok":false,"id":"c1","error":"..."}
//! {"event":"started","job":3}
//! {"event":"iteration","job":3,"iteration":4,"merges":4}
//! {"event":"point_done","job":3,"point":7,"completed":3,"total":12}
//! {"event":"done","job":3,"result":{...}}
//! {"event":"cancelled","job":3,"partial":{...}}
//! {"event":"failed","job":3,"error":"..."}
//! ```

use hlts_core::{DesignMetrics, ProgressEvent, SynthesisResult};
use hlts_dfg::SymStats;
use hlts_dse::{ExploreOutcome, Flow};
use hlts_tcov::CoverageReport;

use crate::engine::{AtpgRequest, CancelOutcome, EngineCounts, JobEvent, JobId, JobOutput, RunOutput};
use hlts_json::{self as json, Json, Obj};

/// A reference to a behavior source, loaded by [`crate::resolve_job`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceRef {
    /// A built-in benchmark (`bench:NAME`).
    Bench(String),
    /// A file path on the daemon's filesystem (stdin mode only; the
    /// TCP daemon refuses it).
    Path(String),
    /// Inline textual DFG, shipped in the request (what `hlts submit`
    /// sends so the daemon's working directory never matters).
    Inline {
        /// Display name for reports.
        name: String,
        /// The DFG text.
        text: String,
    },
}

impl SourceRef {
    /// The source a string names: `bench:NAME` or a file path.
    #[must_use]
    pub fn named(text: &str) -> SourceRef {
        match text.strip_prefix("bench:") {
            Some(name) => SourceRef::Bench(name.to_owned()),
            None => SourceRef::Path(text.to_owned()),
        }
    }

    /// The display name used in reports and sweep specs.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            SourceRef::Bench(name) => name.clone(),
            SourceRef::Path(path) => std::path::Path::new(path)
                .file_stem()
                .map_or_else(|| path.clone(), |s| s.to_string_lossy().into_owned()),
            SourceRef::Inline { name, .. } => name.clone(),
        }
    }
}

/// One synthesis run as a request describes it (what `hlts run` and
/// `hlts submit` build from their flags).
#[derive(Debug, Clone, PartialEq)]
pub struct RunRequest {
    /// The behavior.
    pub source: SourceRef,
    /// The flow (default `ours`).
    pub flow: Flow,
    /// Bit width (default 8).
    pub bits: u32,
    /// Shortlist size override.
    pub k: Option<usize>,
    /// α override.
    pub alpha: Option<f64>,
    /// β override.
    pub beta: Option<f64>,
    /// Post-synthesis coverage grading (`"atpg": true` or
    /// `{"fault_sample": N, "jobs": M}`; absent = no grading).
    pub atpg: Option<AtpgRequest>,
}

/// A parsed job description (declarative; [`crate::resolve_job`]
/// loads its sources and builds the executable [`crate::JobSpec`]).
#[derive(Debug, Clone, PartialEq)]
pub enum JobRequest {
    /// One synthesis run.
    Run(RunRequest),
    /// A parameter sweep.
    Explore {
        /// The behaviors.
        sources: Vec<SourceRef>,
        /// Flows of the grid (default `[ours]`).
        flows: Vec<Flow>,
        /// Shortlist sizes (default `[3]`).
        ks: Vec<usize>,
        /// (α, β) pairs (default the paper's three).
        weights: Vec<(f64, f64)>,
        /// Bit widths (default `[8]`).
        bits: Vec<u32>,
        /// Sweep-internal worker threads (default 1).
        jobs: usize,
        /// Coverage grading per point (`"atpg"` as for a run job;
        /// absent = plain objectives). Points grade one at a time, so
        /// only `fault_sample` reaches the sweep.
        atpg: Option<AtpgRequest>,
        /// Warm-start trace replay across sweep neighbours
        /// (`"warm_start": true`; default off — off is bit-identical
        /// to the pre-warm-start protocol).
        warm_start: bool,
    },
    /// Workload generation.
    Gen {
        /// The reproducibility seed (default 0).
        seed: u64,
        /// Preset name (default `balanced`).
        preset: String,
    },
}

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Enqueue a job.
    Submit {
        /// Client correlation id, echoed on the response.
        id: Option<String>,
        /// What to run.
        job: JobRequest,
    },
    /// Report engine counters, interner stats and protocol health.
    Status {
        /// Client correlation id.
        id: Option<String>,
    },
    /// Cancel a job by engine id.
    Cancel {
        /// Client correlation id.
        id: Option<String>,
        /// The engine-assigned job id to cancel.
        job: JobId,
    },
    /// Stop accepting, finish running jobs, exit.
    Shutdown {
        /// Client correlation id.
        id: Option<String>,
    },
}

/// A rejected request line: the message plus the client id when the
/// line was good enough JSON to carry one (so clients can correlate
/// even their malformed requests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReqError {
    /// Echoed client correlation id, when recoverable.
    pub id: Option<String>,
    /// What was wrong.
    pub message: String,
}

impl ReqError {
    fn new(id: &Option<String>, message: impl Into<String>) -> ReqError {
        ReqError {
            id: id.clone(),
            message: message.into(),
        }
    }
}

fn opt_str(v: &Json, key: &str) -> Result<Option<String>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(s) => s
            .as_str()
            .map(|s| Some(s.to_owned()))
            .ok_or_else(|| format!("`{key}` must be a string")),
    }
}

/// Parse one request line.
///
/// # Errors
///
/// [`ReqError`] describing the problem, with the client id echoed when
/// the line was valid JSON.
pub fn parse_request(line: &str) -> Result<Request, ReqError> {
    let doc = json::parse(line).map_err(|e| ReqError {
        id: None,
        message: format!("not valid JSON: {e}"),
    })?;
    if !matches!(doc, Json::Obj(_)) {
        return Err(ReqError {
            id: None,
            message: "request must be a JSON object".to_owned(),
        });
    }
    // From here on the id is recoverable — echo it on every error.
    let id = opt_str(&doc, "id").map_err(|m| ReqError { id: None, message: m })?;
    let op = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| ReqError::new(&id, "missing `op` (submit, status, cancel, shutdown)"))?;
    match op {
        "submit" => {
            let job = doc
                .get("job")
                .ok_or_else(|| ReqError::new(&id, "submit needs a `job` object"))?;
            let job = parse_job(job).map_err(|m| ReqError::new(&id, m))?;
            Ok(Request::Submit { id, job })
        }
        "status" => Ok(Request::Status { id }),
        "cancel" => {
            let job = doc
                .get("job")
                .and_then(Json::as_u64)
                .ok_or_else(|| ReqError::new(&id, "cancel needs a numeric `job` id"))?;
            Ok(Request::Cancel { id, job })
        }
        "shutdown" => Ok(Request::Shutdown { id }),
        other => Err(ReqError::new(
            &id,
            format!("unknown op `{other}` (expected submit, status, cancel or shutdown)"),
        )),
    }
}

fn parse_source(v: &Json) -> Result<SourceRef, String> {
    if let Some(text) = v.as_str() {
        return Ok(SourceRef::named(text));
    }
    if matches!(v, Json::Obj(_)) {
        let text = v
            .get("dfg")
            .and_then(Json::as_str)
            .ok_or("inline source needs a `dfg` string")?;
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("inline")
            .to_owned();
        return Ok(SourceRef::Inline {
            name,
            text: text.to_owned(),
        });
    }
    Err("source must be a string (`bench:NAME` or a path) or an inline object".to_owned())
}

/// A flow by name, or an error listing the four.
///
/// # Errors
///
/// The name is not one of ours, camad, approach1, approach2.
pub fn parse_flow(s: &str) -> Result<Flow, String> {
    Flow::parse(s)
        .ok_or_else(|| format!("unknown flow `{s}` (expected ours, camad, approach1 or approach2)"))
}

fn parse_k(v: &Json) -> Result<usize, String> {
    let k = v.as_usize().ok_or("`k` must be a non-negative integer")?;
    if k == 0 {
        return Err("`k` must be >= 1 (the paper's shortlist size)".to_owned());
    }
    Ok(k)
}

fn parse_weight(v: &Json, what: &str) -> Result<f64, String> {
    let w = v.as_f64().ok_or_else(|| format!("`{what}` must be a number"))?;
    if !w.is_finite() || w < 0.0 {
        return Err(format!("`{what}` must be finite and non-negative"));
    }
    Ok(w)
}

/// An optional array member: `default` when absent, else every entry
/// parsed by `item`.
fn list<T>(
    job: &Json,
    key: &str,
    default: Vec<T>,
    item: impl Fn(&Json) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    match job.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_arr()
            .ok_or_else(|| format!("`{key}` must be an array"))?
            .iter()
            .map(item)
            .collect(),
    }
}

/// The `atpg` knob shared by run and explore jobs: absent or `false`
/// disables grading, `true` takes the defaults, an object validates
/// `fault_sample` (0 = the exhaustive collapsed universe) and `jobs`
/// (grading worker threads; reports are jobs-invariant).
fn parse_atpg(job: &Json) -> Result<Option<AtpgRequest>, String> {
    let Some(v) = job.get("atpg") else {
        return Ok(None);
    };
    match v {
        Json::Bool(false) => Ok(None),
        Json::Bool(true) => Ok(Some(AtpgRequest::default())),
        Json::Obj(_) => {
            let fault_sample = v
                .get("fault_sample")
                .map(|n| n.as_usize().ok_or("`fault_sample` must be a non-negative integer"))
                .transpose()?;
            let jobs = v
                .get("jobs")
                .map(|j| j.as_usize().ok_or("atpg `jobs` must be a non-negative integer"))
                .transpose()?;
            if jobs == Some(0) {
                return Err("atpg `jobs` must be >= 1".to_owned());
            }
            Ok(Some(AtpgRequest::from_knobs(fault_sample, jobs)))
        }
        _ => Err("`atpg` must be a boolean or an object".to_owned()),
    }
}

fn parse_job(job: &Json) -> Result<JobRequest, String> {
    let kind = job
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("job needs a `kind` (run, explore or gen)")?;
    match kind {
        "run" => {
            let source = match (job.get("source"), job.get("dfg")) {
                (Some(s), None) => parse_source(s)?,
                (None, Some(d)) => parse_source(&Json::Obj(vec![
                    ("dfg".to_owned(), d.clone()),
                    (
                        "name".to_owned(),
                        job.get("name").cloned().unwrap_or(Json::Null),
                    ),
                ]))?,
                (None, None) => return Err("run job needs `source` or `dfg`".to_owned()),
                (Some(_), Some(_)) => {
                    return Err("run job takes `source` or `dfg`, not both".to_owned())
                }
            };
            let flow = match job.get("flow") {
                None => Flow::Ours,
                Some(f) => parse_flow(f.as_str().ok_or("`flow` must be a string")?)?,
            };
            let bits = match job.get("bits") {
                None => 8,
                Some(b) => b.as_u32().ok_or("`bits` must be a non-negative integer")?,
            };
            let k = job.get("k").map(parse_k).transpose()?;
            let alpha = job
                .get("alpha")
                .map(|v| parse_weight(v, "alpha"))
                .transpose()?;
            let beta = job
                .get("beta")
                .map(|v| parse_weight(v, "beta"))
                .transpose()?;
            let atpg = parse_atpg(job)?;
            Ok(JobRequest::Run(RunRequest {
                source,
                flow,
                bits,
                k,
                alpha,
                beta,
                atpg,
            }))
        }
        "explore" => {
            let sources = job
                .get("sources")
                .and_then(Json::as_arr)
                .ok_or("explore job needs a `sources` array")?
                .iter()
                .map(parse_source)
                .collect::<Result<Vec<_>, _>>()?;
            if sources.is_empty() {
                return Err("`sources` must not be empty".to_owned());
            }
            let flows = list(job, "flows", vec![Flow::Ours], |f| {
                parse_flow(f.as_str().ok_or("`flows` entries must be strings")?)
            })?;
            let ks = list(job, "ks", vec![3], parse_k)?;
            let weights = list(job, "weights", vec![(2.0, 1.0), (10.0, 1.0), (1.0, 10.0)], |pair| {
                let pair = pair
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or("`weights` entries must be [alpha, beta] pairs")?;
                Ok((parse_weight(&pair[0], "alpha")?, parse_weight(&pair[1], "beta")?))
            })?;
            let bits = list(job, "bits", vec![8], |b| {
                b.as_u32().ok_or_else(|| "`bits` entries must be integers".to_owned())
            })?;
            if flows.is_empty() || ks.is_empty() || weights.is_empty() || bits.is_empty() {
                return Err("grid axes must not be empty".to_owned());
            }
            let jobs = match job.get("jobs") {
                None => 1,
                Some(j) => {
                    let j = j.as_usize().ok_or("`jobs` must be a non-negative integer")?;
                    if j == 0 {
                        return Err("`jobs` must be >= 1".to_owned());
                    }
                    j
                }
            };
            let atpg = parse_atpg(job)?;
            let warm_start = match job.get("warm_start") {
                None => false,
                Some(Json::Bool(b)) => *b,
                Some(_) => return Err("`warm_start` must be a boolean".to_owned()),
            };
            Ok(JobRequest::Explore {
                sources,
                flows,
                ks,
                weights,
                bits,
                jobs,
                atpg,
                warm_start,
            })
        }
        "gen" => {
            let seed = match job.get("seed") {
                None => 0,
                Some(s) => s.as_u64().ok_or("`seed` must be a non-negative integer")?,
            };
            let preset = job
                .get("preset")
                .map(|p| {
                    p.as_str()
                        .map(str::to_owned)
                        .ok_or("`preset` must be a string")
                })
                .transpose()?
                .unwrap_or_else(|| "balanced".to_owned());
            Ok(JobRequest::Gen { seed, preset })
        }
        other => Err(format!("unknown job kind `{other}` (run, explore or gen)")),
    }
}

/// The start of every response: `ok`, then the client id if any.
fn reply(ok: bool, id: Option<&str>) -> Obj {
    Obj::new().with("ok", ok).with_some("id", id)
}

/// The `submit` line of one run job, which [`parse_request`] reads
/// back to the same request (floats in Rust's shortest round-trip
/// form).
#[must_use]
pub fn render_run_submit(id: Option<&str>, run: &RunRequest) -> String {
    let job = Obj::new().with("kind", "run");
    let job = match &run.source {
        SourceRef::Bench(name) => job.with("source", format!("bench:{name}")),
        SourceRef::Path(path) => job.with("source", path),
        SourceRef::Inline { name, text } => {
            job.with("source", Obj::new().with("name", name).with("dfg", text))
        }
    };
    let atpg = run.atpg.map(|a| {
        Obj::new().with("fault_sample", a.fault_sample.unwrap_or(0)).with("jobs", a.jobs)
    });
    let job = job.with("flow", run.flow.name()).with("bits", run.bits).with_some("k", run.k)
        .with_some("alpha", run.alpha).with_some("beta", run.beta).with_some("atpg", atpg);
    Obj::new().with_some("id", id).with("op", "submit").with("job", job).line()
}

/// `{"ok":true,...}` submit acknowledgement with the engine job id.
#[must_use]
pub fn render_submit_ok(id: Option<&str>, job: JobId) -> String {
    reply(true, id).with("job", job).line()
}

/// `{"ok":false,...}` error response (also the malformed-line answer).
#[must_use]
pub fn render_error(id: Option<&str>, message: &str) -> String {
    reply(false, id).with("error", message).line()
}

/// `{"ok":true,...}` status snapshot: engine counters, warm-cache and
/// leak-bounded interner statistics, and the malformed-request count.
#[must_use]
pub fn render_status(
    id: Option<&str>,
    c: &EngineCounts,
    malformed: u64,
    sym: SymStats,
) -> String {
    let jobs = Obj::new().with("queued", c.queued).with("running", c.running)
        .with("done", c.done).with("failed", c.failed).with("cancelled", c.cancelled);
    let warm = Obj::new().with("hits", c.warm_hits).with("misses", c.warm_misses);
    let replay = Obj::new().with("merges_replayed", c.merges_replayed)
        .with("merges_recomputed", c.merges_recomputed);
    let tcov = Obj::new().with("ctx_hits", c.tcov.ctx_hits).with("ctx_misses", c.tcov.ctx_misses)
        .with("report_hits", c.tcov.report_hits).with("report_misses", c.tcov.report_misses);
    let status = Obj::new().with("jobs", jobs).with("workers", c.workers)
        .with("queue_capacity", c.queue_capacity).with("warm", warm)
        .with("explore_replay", replay).with("tcov", tcov).with("malformed_requests", malformed)
        .with("interner", Obj::new().with("count", sym.count).with("bytes", sym.bytes));
    reply(true, id).with("status", status).line()
}

/// `{"ok":true,...}` cancel acknowledgement.
#[must_use]
pub fn render_cancel(id: Option<&str>, job: JobId, outcome: CancelOutcome) -> String {
    reply(true, id).with("job", job).with("cancel", outcome.name()).line()
}

/// `{"ok":true,...}` shutdown acknowledgement.
#[must_use]
pub fn render_shutdown(id: Option<&str>) -> String {
    reply(true, id).with("shutdown", true).line()
}

/// The metrics object of one synthesis result, also printed by `hlts
/// run --json`, so daemon and one-shot results compare equal.
#[must_use]
pub fn metrics_obj(m: &DesignMetrics) -> Obj {
    Obj::new().with("execution_time", m.execution_time).with("modules", m.num_modules)
        .with("registers", m.num_registers).with("muxes", m.mux_count)
        .with("self_loops", m.self_loops).with("hardware", m.hardware.total())
        .with("avg_controllability", m.avg_controllability)
        .with("avg_observability", m.avg_observability).with("co_depth", m.co_depth)
}

/// [`metrics_obj`] on one line.
#[must_use]
pub fn metrics_json(m: &DesignMetrics) -> String {
    metrics_obj(m).line()
}

/// One run result as a single-line JSON object (metrics + merge log).
#[must_use]
pub fn run_result_json(result: &SynthesisResult) -> String {
    run_obj(result, None).line()
}

/// Metrics and merge log, plus a `"coverage"` object when graded.
fn run_obj(result: &SynthesisResult, coverage: Option<&CoverageReport>) -> Obj {
    Obj::new().with("metrics", metrics_obj(&result.metrics)).with("merges", &result.merge_log)
        .with_some("coverage", coverage.map(coverage_obj))
}

/// One coverage report (`hlts run --atpg --json` prints it as `"atpg"`):
/// `faults_graded` vs `total_collapsed` tells a sample from a full grade.
/// It carries every field of [`CoverageReport::signature`], plus
/// `effort`.
#[must_use]
pub fn coverage_obj(r: &CoverageReport) -> Obj {
    Obj::new().with("gates", r.gates).with("coverage", r.coverage())
        .with("efficiency", r.efficiency()).with("faults_graded", r.faults_graded)
        .with("total_collapsed", r.total_collapsed).with("total_uncollapsed", r.total_uncollapsed)
        .with("detected_random", r.detected_random)
        .with("detected_deterministic", r.detected_deterministic)
        .with("untestable", r.untestable).with("aborted", r.aborted)
        .with("test_cycles", r.test_cycles).with("random_patterns", r.random_patterns)
        .with("backtracks", r.backtracks).with("effort", r.effort())
}

/// [`coverage_obj`] on one line.
#[must_use]
pub fn coverage_json(r: &CoverageReport) -> String {
    coverage_obj(r).line()
}

/// A run job's full payload: [`run_result_json`] plus a `"coverage"`
/// object when the job asked for grading. Ungraded payloads are
/// byte-identical to the pre-coverage protocol.
#[must_use]
pub fn run_output_json(out: &RunOutput) -> String {
    run_obj(&out.result, out.coverage.as_ref()).line()
}

/// One explore outcome as a single-line JSON summary. The
/// `front_signature` field is the workspace's canonical bit-identity
/// witness (equal strings ⇔ bit-identical fronts). Warm-start sweeps
/// additionally report the replayed/recomputed merge split; cold
/// sweeps stay byte-identical to the pre-warm-start protocol.
#[must_use]
pub fn explore_result_json(outcome: &ExploreOutcome) -> String {
    explore_obj(outcome).line()
}

fn explore_obj(outcome: &ExploreOutcome) -> Obj {
    let s = &outcome.stats;
    let warm = outcome.results.iter().any(|r| r.replay.is_some());
    Obj::new().with("front_signature", outcome.front_signature())
        .with("front_size", outcome.front.len()).with("points_total", s.points_total)
        .with("points_computed", s.points_computed).with("points_resumed", s.points_resumed)
        .with("points_failed", s.points_failed).with("points_cancelled", s.points_cancelled)
        .with_some("merges_replayed", warm.then_some(s.merges_replayed))
        .with_some("merges_recomputed", warm.then_some(s.merges_recomputed))
}

fn output_obj(output: &JobOutput) -> Obj {
    match output {
        JobOutput::Run(r) => run_obj(&r.result, r.coverage.as_ref()),
        JobOutput::Explore(o) => explore_obj(o),
        JobOutput::Gen(text) => Obj::new().with("dfg", text),
    }
}

/// One job event as a single-line JSON object.
#[must_use]
pub fn render_event(job: JobId, event: &JobEvent<'_>) -> String {
    let named = |name: &str| Obj::new().with("event", name).with("job", job);
    let obj = match event {
        JobEvent::Started => named("started"),
        JobEvent::Progress(p) => match *p {
            ProgressEvent::Iteration { iteration, merges } => {
                named("iteration").with("iteration", iteration).with("merges", merges)
            }
            ProgressEvent::PointDone { id, completed, total } => named("point_done")
                .with("point", id).with("completed", completed).with("total", total),
            // `ProgressEvent` is non_exhaustive; unknown future events
            // must not break the protocol stream.
            _ => named("progress"),
        },
        JobEvent::Done(output) => named("done").with("result", output_obj(output)),
        JobEvent::Failed(message) => named("failed").with("error", *message),
        JobEvent::Cancelled(partial) => {
            named("cancelled").with_some("partial", partial.map(output_obj))
        }
    };
    obj.line()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `coverage` object carries every field of the report's
    /// signature: rebuilding the signature from the parsed JSON gives
    /// the report's own, and `effort` matches the report's.
    #[test]
    fn coverage_object_rebuilds_the_signature() {
        let report = CoverageReport {
            gates: 758,
            faults_graded: 2000,
            total_collapsed: 3781,
            total_uncollapsed: 4424,
            detected_random: 1953,
            detected_deterministic: 3,
            untestable: 5,
            aborted: 39,
            test_cycles: 30,
            backtracks: 4346,
            random_patterns: 15360,
            stats: hlts_tcov::GradeStats::default(),
        };
        let doc = json::parse(&coverage_json(&report)).expect("valid JSON");
        let int = |key: &str| doc.get(key).and_then(Json::as_u64).expect(key);
        let float = |key: &str| doc.get(key).and_then(Json::as_f64).expect(key);
        let rebuilt = format!(
            "gates={} graded={} collapsed={} uncollapsed={} rand={} det={} untest={} \
             abort={} cycles={} backtracks={} patterns={} cov={:?} eff={:?}",
            int("gates"),
            int("faults_graded"),
            int("total_collapsed"),
            int("total_uncollapsed"),
            int("detected_random"),
            int("detected_deterministic"),
            int("untestable"),
            int("aborted"),
            int("test_cycles"),
            int("backtracks"),
            int("random_patterns"),
            float("coverage"),
            float("efficiency"),
        );
        assert_eq!(rebuilt, report.signature());
        assert_eq!(float("effort").to_bits(), report.effort().to_bits());
    }

    #[test]
    fn parses_run_submit_with_defaults() {
        let req = parse_request(
            r#"{"op":"submit","id":"c1","job":{"kind":"run","source":"bench:ewf"}}"#,
        )
        .unwrap();
        let Request::Submit { id, job } = req else {
            panic!("wrong request kind");
        };
        assert_eq!(id.as_deref(), Some("c1"));
        assert_eq!(
            job,
            JobRequest::Run(RunRequest {
                source: SourceRef::Bench("ewf".into()),
                flow: Flow::Ours,
                bits: 8,
                k: None,
                alpha: None,
                beta: None,
                atpg: None,
            })
        );
    }

    #[test]
    fn parses_the_atpg_knob_in_all_spellings() {
        let get = |line: &str| {
            let Request::Submit { job, .. } = parse_request(line).unwrap() else {
                panic!("wrong request kind");
            };
            job
        };
        // `true` takes the defaults, `false` is the same as absent.
        let JobRequest::Run(RunRequest { atpg, .. }) =
            get(r#"{"op":"submit","job":{"kind":"run","source":"bench:ex","atpg":true}}"#)
        else {
            panic!("wrong job kind");
        };
        assert_eq!(atpg, Some(AtpgRequest::default()));
        let JobRequest::Run(RunRequest { atpg, .. }) =
            get(r#"{"op":"submit","job":{"kind":"run","source":"bench:ex","atpg":false}}"#)
        else {
            panic!("wrong job kind");
        };
        assert_eq!(atpg, None);
        // An object validates both knobs; `fault_sample: 0` means the
        // exhaustive collapsed universe.
        let JobRequest::Run(RunRequest { atpg, .. }) = get(
            r#"{"op":"submit","job":{"kind":"run","source":"bench:ex",
                "atpg":{"fault_sample":0,"jobs":4}}}"#,
        ) else {
            panic!("wrong job kind");
        };
        assert_eq!(
            atpg,
            Some(AtpgRequest {
                fault_sample: None,
                jobs: 4
            })
        );
        // Explore carries the sample into the sweep spec.
        let JobRequest::Explore { atpg, .. } = get(
            r#"{"op":"submit","job":{"kind":"explore","sources":["bench:ex"],
                "atpg":{"fault_sample":500}}}"#,
        ) else {
            panic!("wrong job kind");
        };
        assert_eq!(atpg.and_then(|a| a.fault_sample), Some(500));
        // Garbage is rejected, not defaulted.
        let e = parse_request(
            r#"{"op":"submit","job":{"kind":"run","source":"bench:ex","atpg":{"jobs":0}}}"#,
        )
        .unwrap_err();
        assert!(e.message.contains("jobs"), "{}", e.message);
        let e = parse_request(
            r#"{"op":"submit","job":{"kind":"run","source":"bench:ex","atpg":"yes"}}"#,
        )
        .unwrap_err();
        assert!(e.message.contains("atpg"), "{}", e.message);
    }

    #[test]
    fn parses_explore_submit() {
        let req = parse_request(
            r#"{"op":"submit","job":{"kind":"explore","sources":["bench:ex",
                {"name":"t","dfg":"dfg t { input a; output a; }"}],
                "flows":["ours","camad"],"ks":[1,3],"weights":[[2,1]],"bits":[4,8],"jobs":2}}"#,
        )
        .unwrap();
        let Request::Submit {
            job: JobRequest::Explore {
                sources,
                flows,
                ks,
                weights,
                bits,
                jobs,
                atpg,
                warm_start,
            },
            ..
        } = req
        else {
            panic!("wrong request kind");
        };
        assert_eq!(sources.len(), 2);
        assert_eq!(sources[1].name(), "t");
        assert_eq!(flows, vec![Flow::Ours, Flow::Camad]);
        assert_eq!(ks, vec![1, 3]);
        assert_eq!(weights, vec![(2.0, 1.0)]);
        assert_eq!(bits, vec![4, 8]);
        assert_eq!(jobs, 2);
        assert_eq!(atpg, None);
        assert!(!warm_start, "warm start defaults to off");
    }

    #[test]
    fn parses_the_warm_start_knob() {
        let get = |line: &str| {
            let Request::Submit {
                job: JobRequest::Explore { warm_start, .. },
                ..
            } = parse_request(line).unwrap()
            else {
                panic!("wrong request kind");
            };
            warm_start
        };
        assert!(get(
            r#"{"op":"submit","job":{"kind":"explore","sources":["bench:ex"],"warm_start":true}}"#
        ));
        assert!(!get(
            r#"{"op":"submit","job":{"kind":"explore","sources":["bench:ex"],"warm_start":false}}"#
        ));
        // Garbage is rejected, not defaulted.
        let e = parse_request(
            r#"{"op":"submit","job":{"kind":"explore","sources":["bench:ex"],"warm_start":1}}"#,
        )
        .unwrap_err();
        assert!(e.message.contains("warm_start"), "{}", e.message);
    }

    /// `render_run_submit` is `parse_request`'s inverse: what `hlts
    /// submit` sends is read back as the very request it built.
    #[test]
    fn rendered_run_submits_parse_back_unchanged() {
        let sources = [
            SourceRef::Bench("ex".into()),
            SourceRef::Path("dir/a b.dfg".into()),
            SourceRef::Inline {
                name: "stdin".into(),
                text: "dfg t {\n  input a, b;\n  N1: s = \"a\" + b;\n  output s;\n}\n".into(),
            },
        ];
        for (i, flow) in Flow::ALL.into_iter().enumerate() {
            for source in &sources {
                let plain = RunRequest {
                    source: source.clone(),
                    flow,
                    bits: 8,
                    k: None,
                    alpha: None,
                    beta: None,
                    atpg: None,
                };
                let tuned = RunRequest {
                    bits: 4 << i,
                    k: Some(2),
                    alpha: Some(2.5),
                    beta: Some(1e-7),
                    atpg: Some(AtpgRequest::from_knobs(Some(i * 300), Some(i + 1))),
                    ..plain.clone()
                };
                for (id, run) in [(None, plain), (Some("cli"), tuned)] {
                    let line = render_run_submit(id, &run);
                    assert!(!line.contains('\n'), "multi-line request: {line}");
                    let want = Request::Submit {
                        id: id.map(str::to_owned),
                        job: JobRequest::Run(run),
                    };
                    assert_eq!(parse_request(&line), Ok(want), "{line}");
                }
            }
        }
    }

    #[test]
    fn malformed_lines_echo_the_id_when_recoverable() {
        // Not JSON at all: no id to echo.
        let e = parse_request("this is not json").unwrap_err();
        assert_eq!(e.id, None);
        // Valid JSON with an id but a broken body: the id comes back.
        let e = parse_request(r#"{"op":"submit","id":"x9","job":{"kind":"run"}}"#).unwrap_err();
        assert_eq!(e.id.as_deref(), Some("x9"));
        assert!(e.message.contains("`source` or `dfg`"));
        let e = parse_request(r#"{"op":"warp","id":"x1"}"#).unwrap_err();
        assert_eq!(e.id.as_deref(), Some("x1"));
        // Bad parameter values are rejected, not silently defaulted.
        let e =
            parse_request(r#"{"op":"submit","job":{"kind":"run","source":"bench:ex","k":0}}"#)
                .unwrap_err();
        assert!(e.message.contains("k"));
        let e = parse_request(
            r#"{"op":"submit","job":{"kind":"run","source":"bench:ex","alpha":-1}}"#,
        )
        .unwrap_err();
        assert!(e.message.contains("alpha"));
    }

    #[test]
    fn responses_are_single_lines() {
        let lines = [
            render_submit_ok(Some("a"), 3),
            render_error(None, "boom\nnewline"),
            render_cancel(Some("b"), 7, CancelOutcome::Dequeued),
            render_shutdown(None),
            render_status(
                Some("s"),
                &EngineCounts::default(),
                2,
                SymStats { count: 5, bytes: 40 },
            ),
        ];
        for line in &lines {
            assert!(!line.contains('\n'), "multi-line response: {line}");
            // Every response must itself parse as JSON.
            crate::json::parse(line).unwrap();
        }
        assert!(lines[4].contains("\"malformed_requests\": 2"));
        assert!(lines[4].contains("\"explore_replay\": {\"merges_replayed\": 0, \"merges_recomputed\": 0}"));
        assert!(lines[4].contains("\"tcov\": {\"ctx_hits\": 0"));
        assert!(lines[4].contains("\"interner\": {\"count\": 5, \"bytes\": 40}"));
    }
}
