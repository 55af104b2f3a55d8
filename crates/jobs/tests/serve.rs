//! Daemon protocol tests over real TCP sockets: concurrent clients
//! with bit-identical results, structured malformed-line handling
//! (over-long lines included), refused path sources and parameters,
//! the connection cap, and deterministic queue backpressure.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use hlts_core::{EvalMode, NullSink, RunCtl};
use hlts_dse::Flow;
use hlts_jobs::json::{self, Json};
use hlts_jobs::serve::MAX_CONNECTIONS;
use hlts_jobs::{execute, proto, JobOutput, JobSpec, ServeConfig, WarmPool};

/// Spawn a daemon on an ephemeral port; returns (addr, join handle).
fn spawn_daemon(cfg: ServeConfig) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        hlts_jobs::serve_tcp(listener, cfg).unwrap();
    });
    (addr, handle)
}

/// One protocol client: line-oriented send/receive over TCP.
struct Client {
    write: TcpStream,
    read: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        Client {
            write: stream.try_clone().unwrap(),
            read: BufReader::new(stream),
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.write, "{line}").unwrap();
        self.write.flush().unwrap();
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        assert!(
            self.read.read_line(&mut line).unwrap() > 0,
            "daemon closed the connection"
        );
        json::parse(line.trim()).unwrap_or_else(|e| panic!("bad line `{line}`: {e}"))
    }

    /// Next *response* line (`ok` field), skipping event lines.
    fn recv_response(&mut self) -> Json {
        loop {
            let doc = self.recv();
            if doc.get("ok").is_some() {
                return doc;
            }
        }
    }

    /// Read until the given job's terminal event; returns it.
    fn recv_terminal(&mut self, job: u64) -> Json {
        loop {
            let doc = self.recv();
            if doc.get("job").and_then(Json::as_u64) == Some(job)
                && matches!(
                    doc.get("event").and_then(Json::as_str),
                    Some("done" | "failed" | "cancelled")
                )
            {
                return doc;
            }
        }
    }
}

fn shutdown(addr: &str) {
    let mut c = Client::connect(addr);
    c.send(r#"{"op":"shutdown"}"#);
    let ack = c.recv_response();
    assert_eq!(ack.get("shutdown"), Some(&Json::Bool(true)));
}

/// The one-shot result a daemon submission must match bit-for-bit.
fn oneshot_result_json(bench: &str, flow: Flow, bits: u32) -> Json {
    let spec = JobSpec::Run {
        name: bench.to_owned(),
        dfg: hlts_benchmarks::by_name(bench).unwrap(),
        flow,
        params: flow.paper_defaults(bits),
        mode: EvalMode::Sequential,
        warm: None,
        atpg: None,
    };
    let ctl = RunCtl {
        cancel: hlts_core::CancelToken::new(),
        progress: &NullSink,
    };
    let JobOutput::Run(result) = execute(&spec, &ctl, &WarmPool::new(0)).unwrap() else {
        panic!("expected run output");
    };
    json::parse(&proto::run_result_json(&result.result)).unwrap()
}

#[test]
fn concurrent_tcp_clients_get_bit_identical_results() {
    let (addr, daemon) = spawn_daemon(ServeConfig {
        workers: 2,
        queue_capacity: 16,
        warm_capacity: 4,
    });
    let cases = [("ex", "ours"), ("tseng", "camad"), ("paulin", "ours")];
    let mut clients = Vec::new();
    for (i, (bench, flow)) in cases.iter().enumerate() {
        let addr = addr.clone();
        let bench = (*bench).to_owned();
        let flow = (*flow).to_owned();
        clients.push(std::thread::spawn(move || {
            let mut c = Client::connect(&addr);
            c.send(&format!(
                r#"{{"op":"submit","id":"c{i}","job":{{"kind":"run","source":"bench:{bench}","flow":"{flow}"}}}}"#
            ));
            let ack = c.recv_response();
            assert_eq!(ack.get("ok"), Some(&Json::Bool(true)));
            assert_eq!(
                ack.get("id").and_then(Json::as_str),
                Some(format!("c{i}").as_str())
            );
            let job = ack.get("job").and_then(Json::as_u64).unwrap();
            let done = c.recv_terminal(job);
            assert_eq!(done.get("event").and_then(Json::as_str), Some("done"));
            done.get("result").unwrap().clone()
        }));
    }
    for (client, (bench, flow)) in clients.into_iter().zip(cases) {
        let got = client.join().unwrap();
        let want = oneshot_result_json(bench, Flow::parse(flow).unwrap(), 8);
        assert_eq!(got, want, "daemon result for {bench}/{flow} diverged");
    }
    shutdown(&addr);
    daemon.join().unwrap();
}

#[test]
fn malformed_lines_answer_structured_errors_and_never_kill_the_connection() {
    let (addr, daemon) = spawn_daemon(ServeConfig {
        workers: 1,
        queue_capacity: 4,
        warm_capacity: 2,
    });
    let mut c = Client::connect(&addr);
    // Not JSON at all.
    c.send("garbage !!");
    let e = c.recv_response();
    assert_eq!(e.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(e.get("id"), None);
    // Valid JSON, broken request — the id must come back.
    c.send(r#"{"op":"submit","id":"m1","job":{"kind":"run"}}"#);
    let e = c.recv_response();
    assert_eq!(e.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(e.get("id").and_then(Json::as_str), Some("m1"));
    // Unknown benchmark: rejected at resolve, same structured shape.
    c.send(r#"{"op":"submit","id":"m2","job":{"kind":"run","source":"bench:nope"}}"#);
    let e = c.recv_response();
    assert_eq!(e.get("id").and_then(Json::as_str), Some("m2"));
    assert!(e
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("unknown benchmark"));
    // The connection still works and the health counter saw exactly
    // the two *protocol-level* malformed lines (resolve failures are
    // well-formed requests).
    c.send(r#"{"op":"status","id":"s1"}"#);
    let s = c.recv_response();
    assert_eq!(s.get("ok"), Some(&Json::Bool(true)));
    let status = s.get("status").unwrap();
    assert_eq!(
        status.get("malformed_requests").and_then(Json::as_u64),
        Some(2)
    );
    let interner = status.get("interner").unwrap();
    assert!(interner.get("count").and_then(Json::as_u64).unwrap() > 0);
    // And real work still runs on the same connection.
    c.send(r#"{"op":"submit","id":"ok1","job":{"kind":"gen","seed":3}}"#);
    let ack = c.recv_response();
    let job = ack.get("job").and_then(Json::as_u64).unwrap();
    let done = c.recv_terminal(job);
    let dfg = done
        .get("result")
        .and_then(|r| r.get("dfg"))
        .and_then(Json::as_str)
        .unwrap();
    hlts_dfg::parse(dfg).unwrap();
    shutdown(&addr);
    daemon.join().unwrap();
}

#[test]
fn over_long_line_is_rejected_and_the_connection_stays_open() {
    let (addr, daemon) = spawn_daemon(ServeConfig {
        workers: 1,
        queue_capacity: 2,
        warm_capacity: 2,
    });
    let mut c = Client::connect(&addr);
    // Three bounds' worth of bytes on one line: the daemon must answer
    // without buffering it, then read on from the next line.
    c.send(&"x".repeat(3 * hlts_jobs::serve::MAX_LINE));
    let e = c.recv_response();
    assert_eq!(e.get("ok"), Some(&Json::Bool(false)));
    assert!(e
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("request line longer than"));
    c.send(r#"{"op":"status","id":"after"}"#);
    let s = c.recv_response();
    assert_eq!(s.get("id").and_then(Json::as_str), Some("after"));
    assert_eq!(
        s.get("status")
            .and_then(|s| s.get("malformed_requests"))
            .and_then(Json::as_u64),
        Some(1)
    );
    shutdown(&addr);
    daemon.join().unwrap();
}

#[test]
fn path_sources_are_refused_over_tcp_and_the_connection_stays_open() {
    let (addr, daemon) = spawn_daemon(ServeConfig {
        workers: 1,
        queue_capacity: 2,
        warm_capacity: 2,
    });
    // An existing server-side file, so a refusal cannot be a failed read.
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
    let mut c = Client::connect(&addr);
    c.send(&format!(
        r#"{{"op":"submit","id":"p","job":{{"kind":"run","source":{}}}}}"#,
        hlts_dse::json_string(manifest)
    ));
    let e = c.recv_response();
    assert_eq!(e.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(e.get("id").and_then(Json::as_str), Some("p"));
    let error = e.get("error").and_then(Json::as_str).unwrap();
    assert!(
        error.contains("refused over TCP"),
        "unexpected error: {error}"
    );
    assert!(
        !error.contains("[package]"),
        "the file must not be read: {error}"
    );
    // Explore sources are resolved the same way.
    c.send(&format!(
        r#"{{"op":"submit","id":"x","job":{{"kind":"explore","sources":["bench:ex",{}]}}}}"#,
        hlts_dse::json_string(manifest)
    ));
    let e = c.recv_response();
    assert_eq!(e.get("ok"), Some(&Json::Bool(false)));
    assert!(e
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("refused over TCP"));
    // The same connection still serves a `bench:` submission.
    c.send(r#"{"op":"submit","id":"b","job":{"kind":"run","source":"bench:ex"}}"#);
    let ack = c.recv_response();
    assert_eq!(ack.get("ok"), Some(&Json::Bool(true)));
    let job = ack.get("job").and_then(Json::as_u64).unwrap();
    let done = c.recv_terminal(job);
    assert_eq!(done.get("event").and_then(Json::as_str), Some("done"));
    shutdown(&addr);
    daemon.join().unwrap();
}

#[test]
fn zero_bits_is_refused_at_submit_and_the_connection_stays_open() {
    let (addr, daemon) = spawn_daemon(ServeConfig {
        workers: 1,
        queue_capacity: 2,
        warm_capacity: 2,
    });
    let mut c = Client::connect(&addr);
    for job in [
        r#"{"kind":"run","source":"bench:ex","bits":0}"#,
        r#"{"kind":"explore","sources":["bench:ex"],"bits":[8,0]}"#,
    ] {
        c.send(&format!(r#"{{"op":"submit","id":"z","job":{job}}}"#));
        let e = c.recv_response();
        assert_eq!(e.get("ok"), Some(&Json::Bool(false)), "{job} accepted: {e:?}");
        assert_eq!(e.get("id").and_then(Json::as_str), Some("z"));
        let error = e.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("bits"), "{job}: {error}");
    }
    c.send(r#"{"op":"submit","id":"b","job":{"kind":"run","source":"bench:ex","bits":4}}"#);
    let ack = c.recv_response();
    let job = ack.get("job").and_then(Json::as_u64).unwrap();
    assert_eq!(
        c.recv_terminal(job).get("event").and_then(Json::as_str),
        Some("done")
    );
    shutdown(&addr);
    daemon.join().unwrap();
}

/// A `status` request on a fresh connection: the response when one was
/// served, `None` when the daemon refused the connection (its error
/// line, or a reset closing it).
fn status_on_new_connection(addr: &str) -> Option<Json> {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let _ = writeln!(&stream, r#"{{"op":"status"}}"#);
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).ok()?;
    let doc = json::parse(line.trim()).ok()?;
    (doc.get("ok") == Some(&Json::Bool(true))).then_some(doc)
}

#[test]
fn connections_beyond_the_cap_are_refused_until_one_closes() {
    let (addr, daemon) = spawn_daemon(ServeConfig {
        workers: 1,
        queue_capacity: 2,
        warm_capacity: 2,
    });
    // Fill the cap with connections that are each being served.
    let mut open: Vec<Client> = (0..MAX_CONNECTIONS).map(|_| Client::connect(&addr)).collect();
    for c in &mut open {
        c.send(r#"{"op":"status"}"#);
        assert_eq!(c.recv_response().get("ok"), Some(&Json::Bool(true)));
    }
    // One more gets a single error line, then end of stream.
    let mut over = Client::connect(&addr);
    over.read
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let e = over.recv();
    assert_eq!(e.get("ok"), Some(&Json::Bool(false)));
    let error = e.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("too many connections"), "{error}");
    let mut rest = String::new();
    assert_eq!(over.read.read_line(&mut rest).unwrap(), 0, "still open: {rest}");
    // Closing one frees its slot once its handler sees end of stream.
    drop(open.pop());
    let served = (0..200).find_map(|_| {
        status_on_new_connection(&addr).or_else(|| {
            std::thread::sleep(Duration::from_millis(25));
            None
        })
    });
    assert!(served.is_some(), "no slot was freed");
    // The connections that stayed open are still served.
    open[0].send(r#"{"op":"shutdown"}"#);
    assert_eq!(open[0].recv_response().get("shutdown"), Some(&Json::Bool(true)));
    daemon.join().unwrap();
}

#[test]
fn full_queue_rejects_submissions_until_slots_free_up() {
    let (addr, daemon) = spawn_daemon(ServeConfig {
        workers: 1,
        queue_capacity: 2,
        warm_capacity: 2,
    });
    let mut c = Client::connect(&addr);
    // A sweep long enough to hold the single worker while the queue
    // fills behind it.
    c.send(
        r#"{"op":"submit","id":"long","job":{"kind":"explore","sources":["bench:ewf"],
            "ks":[1,2,3,4],"weights":[[2,1],[10,1],[1,10]]}}"#
        .replace('\n', " ")
        .as_str(),
    );
    let ack = c.recv_response();
    let long_job = ack.get("job").and_then(Json::as_u64).unwrap();
    // Wait until the worker actually claimed it.
    loop {
        c.send(r#"{"op":"status"}"#);
        let s = c.recv_response();
        let jobs = s.get("status").and_then(|s| s.get("jobs")).unwrap();
        if jobs.get("running").and_then(Json::as_u64) == Some(1) {
            break;
        }
        std::thread::yield_now();
    }
    // Two queued submissions fit; the third bounces.
    for id in ["q1", "q2"] {
        c.send(&format!(
            r#"{{"op":"submit","id":"{id}","job":{{"kind":"run","source":"bench:ex"}}}}"#
        ));
        let ack = c.recv_response();
        assert_eq!(ack.get("ok"), Some(&Json::Bool(true)), "submit {id}: {ack:?}");
    }
    c.send(r#"{"op":"submit","id":"q3","job":{"kind":"run","source":"bench:ex"}}"#);
    let rejected = c.recv_response();
    assert_eq!(rejected.get("ok"), Some(&Json::Bool(false)));
    assert!(rejected
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("queue full"));
    // Cancelling the running sweep frees the worker; the queue drains.
    c.send(&format!(r#"{{"op":"cancel","job":{long_job}}}"#));
    let cancel = c.recv_response();
    assert_eq!(
        cancel.get("cancel").and_then(Json::as_str),
        Some("signalled")
    );
    let terminal = c.recv_terminal(long_job);
    assert_eq!(
        terminal.get("event").and_then(Json::as_str),
        Some("cancelled")
    );
    // The cancelled sweep kept its finished points as a partial front.
    if let Some(partial) = terminal.get("partial") {
        assert!(partial.get("points_cancelled").and_then(Json::as_u64).unwrap() > 0);
    }
    shutdown(&addr);
    daemon.join().unwrap();
}
