//! Fault-injection resilience suite (`--features test-faults`): a
//! worker thread killed mid-claim takes exactly its one job with it —
//! the engine keeps draining on the surviving workers, and the daemon
//! keeps answering. A failed TCP accept costs one client, not the
//! daemon.

#![cfg(feature = "test-faults")]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};

use hlts_check::faults::{sites, FaultPlan};
use hlts_core::{EvalMode, SynthesisParams};
use hlts_dse::Flow;
use hlts_jobs::{EngineConfig, JobEngine, JobSpec, JobState, ServeConfig};

fn run_spec(bench: &str) -> JobSpec {
    JobSpec::Run {
        name: bench.to_owned(),
        dfg: hlts_benchmarks::by_name(bench).unwrap(),
        flow: Flow::Ours,
        params: SynthesisParams::paper_defaults(8),
        mode: EvalMode::Sequential,
        warm: None,
        atpg: None,
    }
}

#[test]
fn killed_worker_fails_one_job_and_the_engine_keeps_serving() {
    let guard = FaultPlan::new().arm(sites::JOBS_WORKER_KILL, 1).install();
    let engine = JobEngine::start(EngineConfig {
        workers: 2,
        queue_capacity: 8,
        warm_capacity: 2,
    });
    let ids: Vec<_> = (0..3)
        .map(|_| engine.submit(run_spec("ex"), None).unwrap())
        .collect();
    let mut failed = 0;
    for &id in &ids {
        let status = engine.wait(id).unwrap();
        match status.state {
            JobState::Failed => {
                failed += 1;
                assert_eq!(
                    status.error.as_deref(),
                    Some("worker killed by injected fault")
                );
            }
            JobState::Done => {}
            other => panic!("unexpected state {other:?}"),
        }
    }
    assert_eq!(failed, 1, "exactly the claimed job dies with its worker");
    assert_eq!(guard.fired(), vec![sites::JOBS_WORKER_KILL]);
    // The pool lost a thread but not the service: new work completes.
    let extra = engine.submit(run_spec("tseng"), None).unwrap();
    assert_eq!(engine.wait(extra).unwrap().state, JobState::Done);
    let counts = engine.counts();
    assert_eq!((counts.done, counts.failed), (3, 1));
    engine.shutdown();
    drop(guard);
}

/// Shared in-memory writer for driving `serve_lines` in-process.
#[derive(Clone, Default)]
struct Buffer(Arc<Mutex<Vec<u8>>>);

impl Write for Buffer {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(data);
        Ok(data.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Blocking reader fed line-by-line from the test thread, so the
/// shutdown request can be held back until the jobs terminated
/// (graceful shutdown would otherwise cancel still-queued jobs).
struct ChanReader {
    rx: std::sync::mpsc::Receiver<String>,
    buf: Vec<u8>,
    pos: usize,
}

impl std::io::Read for ChanReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.buf.len() {
            match self.rx.recv() {
                Ok(line) => {
                    self.buf = line.into_bytes();
                    self.pos = 0;
                }
                Err(_) => return Ok(0),
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[test]
fn daemon_survives_a_worker_kill_and_reports_the_failed_job() {
    let guard = FaultPlan::new().arm(sites::JOBS_WORKER_KILL, 1).install();
    let (tx, rx) = std::sync::mpsc::channel::<String>();
    let buffer = Buffer::default();
    let daemon = {
        let buffer = buffer.clone();
        std::thread::spawn(move || {
            hlts_jobs::serve_lines(
                std::io::BufReader::new(ChanReader {
                    rx,
                    buf: Vec::new(),
                    pos: 0,
                }),
                Box::new(buffer),
                ServeConfig {
                    workers: 2,
                    queue_capacity: 8,
                    warm_capacity: 2,
                },
            );
        })
    };
    for (id, bench) in [("a", "ex"), ("b", "tseng"), ("c", "paulin")] {
        tx.send(format!(
            "{{\"op\":\"submit\",\"id\":\"{id}\",\"job\":{{\"kind\":\"run\",\"source\":\"bench:{bench}\"}}}}\n"
        ))
        .unwrap();
    }
    // Hold the shutdown back until all three jobs reached a terminal
    // event, so none of them is cancelled by the drain.
    loop {
        let text = String::from_utf8(buffer.0.lock().unwrap().clone()).unwrap();
        let terminal = text
            .lines()
            .filter(|l| {
                l.contains("\"event\": \"done\"") || l.contains("\"event\": \"failed\"")
            })
            .count();
        if terminal >= 3 {
            break;
        }
        std::thread::yield_now();
    }
    tx.send("{\"op\":\"shutdown\"}\n".to_owned()).unwrap();
    daemon.join().unwrap();
    let output = String::from_utf8(buffer.0.lock().unwrap().clone()).unwrap();
    let failed = output
        .lines()
        .filter(|l| l.contains("\"event\": \"failed\""))
        .count();
    let done = output
        .lines()
        .filter(|l| l.contains("\"event\": \"done\""))
        .count();
    assert_eq!(failed, 1, "one failed event expected in:\n{output}");
    assert_eq!(done, 2, "two done events expected in:\n{output}");
    assert!(output.contains("worker killed by injected fault"));
    assert!(output.contains("\"shutdown\": true"));
    drop(guard);
}

#[test]
fn failed_accept_costs_one_client_and_the_daemon_keeps_serving() {
    let guard = FaultPlan::new().arm(sites::JOBS_ACCEPT_FAIL, 1).install();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let daemon = std::thread::spawn(move || {
        hlts_jobs::serve_tcp(
            listener,
            ServeConfig {
                workers: 1,
                queue_capacity: 2,
                warm_capacity: 2,
            },
        )
    });
    // The first connection counts as a failed accept: the daemon drops
    // it unanswered, so the client reads end of stream.
    let mut lost = String::new();
    TcpStream::connect(addr)
        .unwrap()
        .read_to_string(&mut lost)
        .unwrap();
    assert_eq!(lost, "");
    // The next client is served on the same listener.
    let stream = TcpStream::connect(addr).unwrap();
    let mut write = stream.try_clone().unwrap();
    let mut read = BufReader::new(stream);
    let mut line = String::new();
    writeln!(write, r#"{{"op":"status","id":"alive"}}"#).unwrap();
    read.read_line(&mut line).unwrap();
    assert!(
        line.contains("\"id\": \"alive\""),
        "unexpected reply: {line}"
    );
    line.clear();
    writeln!(write, r#"{{"op":"shutdown"}}"#).unwrap();
    read.read_line(&mut line).unwrap();
    assert!(
        line.contains("\"shutdown\": true"),
        "unexpected reply: {line}"
    );
    daemon.join().unwrap().unwrap();
    assert_eq!(guard.fired(), vec![sites::JOBS_ACCEPT_FAIL]);
}
