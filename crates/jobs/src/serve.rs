//! The `hlts serve` daemon and the `hlts submit` client.
//!
//! The daemon reads line-delimited JSON requests (see [`crate::proto`])
//! from stdin or from TCP connections, drives a shared [`JobEngine`],
//! and streams each job's events back to the connection that submitted
//! it. One engine — one warm-context pool, one bounded queue — serves
//! every connection, so repeat requests for the same behavior hit warm
//! caches no matter which client sends them.
//!
//! Failure containment, from the inside out: a failing *point* degrades
//! its job (typed errors / `PointFailure`), a failing *job* is reported
//! on its own connection and the engine keeps serving, and a malformed
//! *request line* is answered with a structured error and counted —
//! none of these ever terminate a connection or the daemon. That
//! includes a line longer than [`MAX_LINE`]: the daemon never buffers
//! more than that per connection, and skips the rest of the line. A
//! failed `accept` costs one client, never the TCP daemon, and so does
//! a connection beyond [`MAX_CONNECTIONS`]: it gets one error line and
//! is closed.
//!
//! Path sources read files on the daemon's host, so only stdin mode
//! accepts them; a TCP client sends `bench:` names or inline graph
//! text, and a path from it is answered with an error, unread.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Duration;

use hlts_check::faults;

use crate::engine::{EngineConfig, JobEngine, JobEvent, JobId, JobSink, SubmitError};
use hlts_json::{self as json, Json};
use crate::proto::{self, Request};
use crate::resolve::{resolve_job, PathSources};

/// Longest request line the daemon buffers, in bytes (1 MiB). A longer
/// line is answered with an error, counted as malformed and skipped up
/// to its newline.
pub const MAX_LINE: usize = 1 << 20;

/// Most TCP connections served at once. One more is answered with
/// `{"ok": false, "error": ...}` and closed; the accept loop listens on.
pub const MAX_CONNECTIONS: usize = 64;

/// Pause after a failed `accept` before listening again, so a burst
/// that exhausted file descriptors gives handlers time to close some.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Daemon sizing (forwarded into [`EngineConfig`]).
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads of the job pool.
    pub workers: usize,
    /// FIFO queue bound (backpressure beyond it).
    pub queue_capacity: usize,
    /// Warm-context cache bound.
    pub warm_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let e = EngineConfig::default();
        ServeConfig {
            workers: e.workers,
            queue_capacity: e.queue_capacity,
            warm_capacity: e.warm_capacity,
        }
    }
}

impl From<ServeConfig> for EngineConfig {
    fn from(cfg: ServeConfig) -> EngineConfig {
        EngineConfig {
            workers: cfg.workers,
            queue_capacity: cfg.queue_capacity,
            warm_capacity: cfg.warm_capacity,
        }
    }
}

/// A line-oriented event sink: serializes response and event lines
/// onto one writer. Write failures are swallowed — a client that went
/// away must not take its jobs (or the daemon) with it.
struct LineSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl LineSink {
    fn new(out: Box<dyn Write + Send>) -> LineSink {
        LineSink { out: Mutex::new(out) }
    }

    fn send(&self, line: &str) {
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }
}

impl JobSink for LineSink {
    fn event(&self, job: JobId, event: &JobEvent<'_>) {
        self.send(&proto::render_event(job, event));
    }
}

/// Shared daemon state: the engine plus protocol health counters.
struct Daemon {
    engine: JobEngine,
    malformed: AtomicU64,
    /// Live TCP connection handlers (see [`ConnSlot`]).
    connections: AtomicUsize,
    /// Set once a shutdown request was accepted; the TCP accept loop
    /// checks it after every accepted connection.
    stopping: std::sync::atomic::AtomicBool,
    /// The TCP listener's own address, used to self-connect and
    /// unblock the accept loop on shutdown (stdin mode leaves it
    /// unset).
    local_addr: OnceLock<SocketAddr>,
}

impl Daemon {
    fn new(cfg: ServeConfig) -> Daemon {
        Daemon {
            engine: JobEngine::start(cfg.into()),
            malformed: AtomicU64::new(0),
            connections: AtomicUsize::new(0),
            stopping: std::sync::atomic::AtomicBool::new(false),
            local_addr: OnceLock::new(),
        }
    }
}

enum LineOutcome {
    Continue,
    Shutdown,
}

/// Handle one request line: parse, act, answer. Never fails the
/// connection — every problem becomes an `{"ok":false,...}` line.
fn handle_line(
    daemon: &Daemon,
    line: &str,
    paths: PathSources,
    sink: &Arc<LineSink>,
) -> LineOutcome {
    let line = line.trim();
    if line.is_empty() {
        return LineOutcome::Continue;
    }
    let request = match proto::parse_request(line) {
        Ok(request) => request,
        Err(e) => {
            daemon.malformed.fetch_add(1, Ordering::Relaxed);
            sink.send(&proto::render_error(e.id.as_deref(), &e.message));
            return LineOutcome::Continue;
        }
    };
    match request {
        Request::Submit { id, job } => {
            match resolve_job(&job, paths) {
                Ok(spec) => {
                    // Hold the write lock across submit so the
                    // acknowledgement line lands before the job's
                    // first event (workers contend on the same lock).
                    let mut out =
                        sink.out.lock().unwrap_or_else(PoisonError::into_inner);
                    let response = match daemon
                        .engine
                        .submit(spec, Some(Arc::clone(sink) as Arc<dyn JobSink>))
                    {
                        Ok(job) => proto::render_submit_ok(id.as_deref(), job),
                        Err(e @ (SubmitError::QueueFull { .. } | SubmitError::ShuttingDown)) => {
                            proto::render_error(id.as_deref(), &e.to_string())
                        }
                    };
                    let _ = writeln!(out, "{response}");
                    let _ = out.flush();
                }
                Err(message) => {
                    sink.send(&proto::render_error(id.as_deref(), &message));
                }
            }
            LineOutcome::Continue
        }
        Request::Status { id } => {
            sink.send(&proto::render_status(
                id.as_deref(),
                &daemon.engine.counts(),
                daemon.malformed.load(Ordering::Relaxed),
                hlts_dfg::sym::stats(),
            ));
            LineOutcome::Continue
        }
        Request::Cancel { id, job } => {
            let outcome = daemon.engine.cancel(job);
            sink.send(&proto::render_cancel(id.as_deref(), job, outcome));
            LineOutcome::Continue
        }
        Request::Shutdown { id } => {
            daemon.stopping.store(true, Ordering::Release);
            sink.send(&proto::render_shutdown(id.as_deref()));
            LineOutcome::Shutdown
        }
    }
}

/// Read the next line of `input` into `buf` (without its newline),
/// buffering at most [`MAX_LINE`] bytes. Returns `Ok(None)` at end of
/// input, otherwise `Ok(Some(fits))`; `fits` is false when the line was
/// longer than the bound, and `buf` is then empty (the rest of the line
/// was read and discarded).
fn read_bounded_line(input: &mut impl BufRead, buf: &mut Vec<u8>) -> std::io::Result<Option<bool>> {
    buf.clear();
    let mut read_any = false;
    let mut fits = true;
    loop {
        let chunk = match input.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok(read_any.then_some(fits));
        }
        read_any = true;
        let newline = chunk.iter().position(|&b| b == b'\n');
        let body = &chunk[..newline.unwrap_or(chunk.len())];
        if fits && buf.len() + body.len() <= MAX_LINE {
            buf.extend_from_slice(body);
        } else {
            fits = false;
            buf.clear();
        }
        let used = body.len() + usize::from(newline.is_some());
        input.consume(used);
        if newline.is_some() {
            return Ok(Some(fits));
        }
    }
}

/// Answer request lines from `input` until a shutdown request, end of
/// input, a read error or a line that is not UTF-8. Over-long lines are
/// answered and counted like any malformed line; the connection stays
/// open.
fn serve_requests(
    daemon: &Daemon,
    mut input: impl BufRead,
    paths: PathSources,
    sink: &Arc<LineSink>,
) -> LineOutcome {
    let mut buf = Vec::new();
    while let Ok(Some(fits)) = read_bounded_line(&mut input, &mut buf) {
        if !fits {
            daemon.malformed.fetch_add(1, Ordering::Relaxed);
            sink.send(&proto::render_error(
                None,
                &format!("request line longer than {MAX_LINE} bytes"),
            ));
            continue;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            break;
        };
        if let LineOutcome::Shutdown = handle_line(daemon, line, paths, sink) {
            return LineOutcome::Shutdown;
        }
    }
    LineOutcome::Continue
}

/// Serve requests from a reader/writer pair until a shutdown request
/// or end of input, then drain the engine (running jobs finish,
/// queued jobs are cancelled). This is `hlts serve`'s stdin mode —
/// and the deterministic harness the protocol tests drive.
pub fn serve_lines(input: impl BufRead, output: Box<dyn Write + Send>, cfg: ServeConfig) {
    let daemon = Daemon::new(cfg);
    let sink = Arc::new(LineSink::new(output));
    serve_requests(&daemon, input, PathSources::Allow, &sink);
    daemon.engine.shutdown();
}

/// One counted connection: taken in the accept loop, held by the
/// connection's handler, given back when dropped.
struct ConnSlot(Arc<Daemon>);

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::AcqRel);
    }
}

fn handle_conn(slot: ConnSlot, stream: TcpStream) {
    let daemon = &slot.0;
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let sink = Arc::new(LineSink::new(Box::new(write_half)));
    let input = BufReader::new(stream);
    if let LineOutcome::Shutdown = serve_requests(daemon, input, PathSources::Refuse, &sink) {
        // Unblock the accept loop so the daemon can exit: the
        // stopping flag is set, one self-connection wakes it.
        if let Some(addr) = daemon.local_addr.get() {
            let _ = TcpStream::connect(addr);
        }
    }
}

/// Serve requests over TCP until a shutdown request arrives on any
/// connection. Each connection gets its own handler thread, up to
/// [`MAX_CONNECTIONS`] at once; events of a job stream to the
/// connection that submitted it. A failed
/// `accept` (EMFILE in a connection burst, a reset before accept) is
/// reported on stderr and the loop listens on after a short pause.
/// Returns after the engine drained.
///
/// # Errors
///
/// Only the listener's local address lookup, before serving starts.
pub fn serve_tcp(listener: TcpListener, cfg: ServeConfig) -> std::io::Result<()> {
    let daemon = Arc::new(Daemon::new(cfg));
    let _ = daemon.local_addr.set(listener.local_addr()?);
    for stream in listener.incoming() {
        if daemon.stopping.load(Ordering::Acquire) {
            break;
        }
        let stream = match stream {
            Ok(_) if faults::fire(faults::sites::JOBS_ACCEPT_FAIL) => {
                Err(std::io::Error::other("injected accept failure"))
            }
            other => other,
        };
        let stream = match stream {
            Ok(stream) => stream,
            Err(e) => {
                eprintln!("hlts serve: accept failed: {e}");
                std::thread::sleep(ACCEPT_BACKOFF);
                continue;
            }
        };
        let live = daemon.connections.fetch_add(1, Ordering::AcqRel);
        let slot = ConnSlot(Arc::clone(&daemon));
        if live >= MAX_CONNECTIONS {
            // `slot` drops with this iteration, undoing the count.
            let _ = writeln!(
                &stream,
                "{}",
                proto::render_error(
                    None,
                    &format!("too many connections ({MAX_CONNECTIONS} open); retry later")
                )
            );
            continue;
        }
        // Handler threads are not joined: a client that never sends
        // another line would otherwise block shutdown forever. They
        // hold only an Arc on the daemon and die with the process.
        let _ = std::thread::Builder::new()
            .name("hlts-serve-conn".to_owned())
            .spawn(move || handle_conn(slot, stream));
    }
    daemon.engine.shutdown();
    Ok(())
}

/// How a submitted job ended, as observed by the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientEnd {
    /// The job finished; its result line was printed.
    Done,
    /// The job failed; the error line was printed.
    Failed,
    /// The job was cancelled.
    Cancelled,
    /// The daemon rejected the request (error response).
    Rejected,
}

/// Submit one request line to a TCP daemon and stream the job's lines
/// (acknowledgement + events) to `out` until the job terminates.
///
/// # Errors
///
/// Connection/protocol failures as strings (the caller formats them).
pub fn submit_once(
    addr: &str,
    request_line: &str,
    out: &mut dyn Write,
) -> Result<ClientEnd, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut write_half = stream.try_clone().map_err(|e| e.to_string())?;
    writeln!(write_half, "{request_line}").map_err(|e| e.to_string())?;
    write_half.flush().map_err(|e| e.to_string())?;
    let reader = BufReader::new(stream);
    let mut job: Option<u64> = None;
    for line in reader.lines() {
        let line = line.map_err(|e| format!("read {addr}: {e}"))?;
        let Ok(doc) = json::parse(&line) else {
            continue;
        };
        if job.is_none() {
            // The first response line acknowledges (or rejects) ours.
            if doc.get("ok").and_then(Json::as_bool) == Some(false) {
                writeln!(out, "{line}").map_err(|e| e.to_string())?;
                return Ok(ClientEnd::Rejected);
            }
            if let Some(id) = doc.get("job").and_then(Json::as_u64) {
                job = Some(id);
                writeln!(out, "{line}").map_err(|e| e.to_string())?;
            }
            continue;
        }
        if doc.get("job").and_then(Json::as_u64) != job {
            continue;
        }
        writeln!(out, "{line}").map_err(|e| e.to_string())?;
        match doc.get("event").and_then(Json::as_str) {
            Some("done") => return Ok(ClientEnd::Done),
            Some("failed") => return Ok(ClientEnd::Failed),
            Some("cancelled") => return Ok(ClientEnd::Cancelled),
            _ => {}
        }
    }
    Err("connection closed before the job terminated".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `serve_lines` over `input` and return its output text.
    fn serve_text(input: &[u8]) -> String {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::default();
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        serve_lines(
            input,
            Box::new(Shared(Arc::clone(&buf))),
            ServeConfig {
                workers: 1,
                queue_capacity: 2,
                warm_capacity: 2,
            },
        );
        let bytes = buf.lock().unwrap().clone();
        String::from_utf8(bytes).unwrap()
    }

    #[test]
    fn serve_lines_answers_and_shuts_down() {
        let text = serve_text(
            concat!(
                "not json\n",
                "{\"op\":\"status\",\"id\":\"s\"}\n",
                "{\"op\":\"shutdown\"}\n",
            )
            .as_bytes(),
        );
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "unexpected output: {text}");
        assert!(lines[0].starts_with("{\"ok\": false"));
        assert!(lines[1].contains("\"malformed_requests\": 1"));
        assert!(lines[2].contains("\"shutdown\": true"));
    }

    #[test]
    fn serve_lines_rejects_an_over_long_line_and_keeps_reading() {
        // A line at the bound is an ordinary (malformed) request; one
        // byte more is rejected unread. Both count as malformed.
        let mut input = vec![b'x'; MAX_LINE];
        input.push(b'\n');
        input.extend(vec![b'{'; MAX_LINE + 1]);
        input.extend_from_slice(b"\n{\"op\":\"status\",\"id\":\"s\"}\n{\"op\":\"shutdown\"}\n");
        let text = serve_text(&input);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "unexpected output: {text}");
        assert!(lines[0].starts_with("{\"ok\": false"));
        assert!(!lines[0].contains("longer than"));
        assert_eq!(
            lines[1],
            format!("{{\"ok\": false, \"error\": \"request line longer than {MAX_LINE} bytes\"}}")
        );
        assert!(lines[2].contains("\"id\": \"s\""));
        assert!(lines[2].contains("\"malformed_requests\": 2"));
        assert!(lines[3].contains("\"shutdown\": true"));
    }
}
