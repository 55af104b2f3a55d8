//! Smoke tests of the `hlts` command-line front end.

use std::process::Command;

fn hlts() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hlts"))
}

#[test]
fn synthesizes_builtin_benchmark() {
    let out = hlts()
        .args(["bench:tseng", "--quiet"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("E = "), "{text}");
    assert!(text.contains("registers = "), "{text}");
}

#[test]
fn reads_a_dfg_file() {
    let dir = std::env::temp_dir().join("hlts-cli-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("mini.dfg");
    std::fs::write(
        &path,
        "dfg mini { input a, b; N1: s = a + b; N2: p = s * b; output p; }",
    )
    .expect("write dfg");
    let out = hlts()
        .args([path.to_str().expect("utf8 path"), "--flow", "approach1"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("modules ="), "{text}");
}

#[test]
fn rejects_unknown_flow() {
    let out = hlts()
        .args(["bench:ex", "--flow", "wat"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flow"), "{err}");
}

#[test]
fn rejects_missing_file() {
    let out = hlts()
        .arg("/nonexistent/path.dfg")
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn usage_on_no_args() {
    let out = hlts().output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn run_subcommand_is_the_default() {
    let out = hlts()
        .args(["run", "bench:tseng", "--quiet"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("E = "), "{text}");
}

#[test]
fn rejects_zero_k() {
    let out = hlts()
        .args(["bench:ex", "--k", "0"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--k must be >= 1"), "{err}");
}

#[test]
fn rejects_negative_and_nan_weights() {
    for (flag, value) in [("--alpha", "-0.5"), ("--beta", "NaN"), ("--alpha", "inf")] {
        let out = hlts()
            .args(["bench:ex", flag, value])
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "{flag} {value} accepted");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("finite non-negative"),
            "{flag} {value}: {err}"
        );
    }
}

#[test]
fn unknown_flag_error_lists_the_valid_flags() {
    let out = hlts()
        .args(["bench:ex", "--wat"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("`--wat`"), "{err}");
    for flag in ["--flow", "--bits", "--k", "--alpha", "--beta", "--atpg", "--json", "--quiet"] {
        assert!(err.contains(flag), "missing {flag} in: {err}");
    }

    let out = hlts()
        .args(["explore", "bench:ex", "--wat"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    for flag in ["--weights", "--jobs", "--journal", "--resume"] {
        assert!(err.contains(flag), "missing {flag} in: {err}");
    }
}

/// Parse a whole `--json` stdout with the workspace reader, returning
/// the document and its top-level keys in order.
fn json_document(stdout: &[u8]) -> (hlts::json::Json, Vec<String>) {
    let text = String::from_utf8_lossy(stdout);
    let doc = hlts::json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
    let hlts::json::Json::Obj(members) = &doc else {
        panic!("not a JSON object: {text}");
    };
    let keys = members.iter().map(|(key, _)| key.clone()).collect();
    (doc, keys)
}

#[test]
fn run_json_is_machine_readable() {
    use hlts::json::Json;
    let graded = ["--atpg", "--fault-sample", "300", "--bits", "4"];
    for extra in [&[][..], &graded[..]] {
        let out = hlts()
            .args(["run", "bench:ex", "--json"])
            .args(extra)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{out:?}");
        // The whole of stdout parses: JSON mode replaces the human report.
        let (doc, keys) = json_document(&out.stdout);
        let mut want = vec!["source", "flow", "metrics", "merges"];
        if !extra.is_empty() {
            want.push("atpg");
        }
        assert_eq!(keys, want, "{extra:?}");
        assert_eq!(doc.get("source").and_then(Json::as_str), Some("bench:ex"));
        let metrics = doc.get("metrics").expect("metrics");
        assert!(metrics.get("execution_time").and_then(Json::as_u64).is_some());
        assert!(!doc.get("merges").and_then(Json::as_arr).expect("merges").is_empty());
        if let Some(atpg) = doc.get("atpg") {
            assert_eq!(atpg.get("faults_graded").and_then(Json::as_u64), Some(300));
            assert!(atpg.get("coverage").and_then(Json::as_f64).is_some());
        }
    }
}

#[test]
fn explore_reports_a_pareto_front() {
    let out = hlts()
        .args(["explore", "bench:ex", "--k", "1,3", "--weights", "2:1,1:10", "--jobs", "2"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Pareto front"), "{text}");
    assert!(text.contains("explored 4 points"), "{text}");
}

#[test]
fn explore_json_is_machine_readable() {
    use hlts::json::Json;
    let out = hlts()
        .args(["explore", "bench:ex", "--k", "1", "--weights", "2:1", "--json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let (doc, keys) = json_document(&out.stdout);
    assert_eq!(keys, ["points", "front", "failures", "stats"]);
    let points = doc.get("points").and_then(Json::as_arr).expect("points");
    assert_eq!(points.len(), 1);
    assert_eq!(points[0].get("bench").and_then(Json::as_str), Some("ex"));
    assert_eq!(doc.get("front").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
    let stats = doc.get("stats").expect("stats");
    assert_eq!(stats.get("points_total").and_then(Json::as_u64), Some(1));
}

#[test]
fn explore_journal_roundtrips_through_resume() {
    let dir = std::env::temp_dir().join("hlts-cli-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(format!("resume-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let journal = path.to_str().expect("utf8 path");
    let sweep = ["explore", "bench:ex", "--k", "1,2,3", "--weights", "2:1", "--quiet"];

    let out = hlts()
        .args(sweep)
        .args(["--journal", journal])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let first = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(first.contains("3 computed, 0 resumed"), "{first}");

    // Drop the last journal line to simulate an interrupted sweep.
    let text = std::fs::read_to_string(&path).expect("journal exists");
    let lines: Vec<&str> = text.lines().collect();
    std::fs::write(&path, lines[..lines.len() - 1].join("\n")).expect("truncate");

    let out = hlts()
        .args(sweep)
        .args(["--resume", journal])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let second = String::from_utf8_lossy(&out.stdout);
    assert!(second.contains("1 computed, 2 resumed"), "{second}");
    // Identical front signature: resume changes nothing but the work done.
    let front = |s: &str| s.split("front: ").nth(1).map(str::to_owned);
    assert_eq!(front(&first), front(&second), "{first} vs {second}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn gen_is_deterministic_and_names_the_seed() {
    let run = || {
        let out = hlts()
            .args(["gen", "--seed", "11", "--preset", "loopy-mul"])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{out:?}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let first = run();
    assert_eq!(first, run(), "same (seed, preset) must emit identical text");
    assert!(first.starts_with("dfg loopy_mul_s11 {"), "{first}");
    assert!(first.contains("loop "), "loopy-mul closes loop pairs: {first}");
}

#[test]
fn gen_pipes_into_run_via_stdin() {
    use std::io::Write as _;
    let gen = hlts()
        .args(["gen", "--seed", "3"])
        .output()
        .expect("binary runs");
    assert!(gen.status.success(), "{gen:?}");

    let mut run = hlts()
        .args(["run", "-", "--quiet", "--audit"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary spawns");
    run.stdin
        .take()
        .expect("piped stdin")
        .write_all(&gen.stdout)
        .expect("feed dfg text");
    let out = run.wait_with_output().expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("audit: clean"), "{text}");
    assert!(text.contains("E = "), "{text}");
}

#[test]
fn gen_writes_to_a_file_and_lists_presets() {
    let dir = std::env::temp_dir().join("hlts-cli-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(format!("gen-{}.dfg", std::process::id()));
    let out = hlts()
        .args(["gen", "--seed", "5", "--ops", "8", "--out"])
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&path).expect("file written");
    assert!(text.starts_with("dfg balanced_s5 {"), "{text}");

    // The emitted file is directly synthesizable.
    let out = hlts()
        .arg(&path)
        .arg("--quiet")
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let _ = std::fs::remove_file(&path);

    let out = hlts()
        .args(["gen", "--list-presets"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    for preset in ["balanced", "deep-arith", "wide-logic", "loopy-mul"] {
        assert!(text.contains(preset), "missing {preset} in: {text}");
    }
}

#[test]
fn gen_rejects_unknown_presets_and_bad_knobs() {
    let out = hlts()
        .args(["gen", "--preset", "wat"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown preset `wat`"), "{err}");
    assert!(err.contains("balanced"), "should list presets: {err}");

    let out = hlts()
        .args(["gen", "--ops", "0"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("ops must be >= 1"), "{err}");

    let out = hlts()
        .args(["gen", "--wat"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--preset"), "should list gen flags: {err}");
}

#[test]
fn serve_answers_stdin_requests_line_by_line() {
    use std::io::{BufRead as _, BufReader, Write as _};
    let mut daemon = hlts()
        .args(["serve", "--workers", "1", "--queue", "4"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let mut stdin = daemon.stdin.take().expect("piped stdin");
    let mut lines = BufReader::new(daemon.stdout.take().expect("piped stdout")).lines();
    let mut next = |what: &str| -> String {
        lines
            .next()
            .unwrap_or_else(|| panic!("daemon closed stdout waiting for {what}"))
            .expect("read line")
    };
    writeln!(
        stdin,
        r#"{{"op":"submit","id":"j1","job":{{"kind":"run","source":"bench:ex"}}}}"#
    )
    .expect("write submit");
    let ack = next("submit ack");
    assert!(
        ack.contains("\"ok\": true") && ack.contains("\"id\": \"j1\""),
        "{ack}"
    );
    // Progress events stream until the terminal done event.
    loop {
        let line = next("done event");
        if line.contains("\"event\": \"done\"") {
            assert!(line.contains("\"metrics\""), "{line}");
            break;
        }
        assert!(line.contains("\"event\""), "{line}");
    }
    // The done event is emitted just before the job table publishes
    // the terminal state, so poll status until it settles.
    let status = loop {
        writeln!(stdin, r#"{{"op":"status"}}"#).expect("write status");
        let status = next("status");
        if status.contains("\"done\": 1") {
            break status;
        }
        std::thread::yield_now();
    };
    assert!(status.contains("\"interner\""), "{status}");
    writeln!(stdin, r#"{{"op":"shutdown","id":"bye"}}"#).expect("write shutdown");
    let bye = next("shutdown ack");
    assert!(
        bye.contains("\"shutdown\": true") && bye.contains("\"id\": \"bye\""),
        "{bye}"
    );
    let out = daemon.wait_with_output().expect("daemon exits");
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn submit_requires_a_reachable_daemon() {
    // No --connect at all.
    let out = hlts()
        .args(["submit", "bench:ex"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--connect"), "{err}");

    // A --connect nobody listens on: a clean error, not a hang.
    let out = hlts()
        .args(["submit", "bench:ex", "--connect", "127.0.0.1:1"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("connect"), "{err}");
}

/// Ctrl-C on a one-shot sweep: the process exits cleanly with the
/// partial front and a `degraded: cancelled` line, not a dead pipe.
#[cfg(unix)]
#[test]
fn explore_interrupt_reports_a_partial_front() {
    // 18 ewf points take many seconds; the interrupt lands mid-sweep.
    let child = hlts()
        .args([
            "explore",
            "bench:ewf",
            "--k",
            "1,2,3,4,5,6",
            "--weights",
            "2:1,10:1,1:10",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary spawns");
    std::thread::sleep(std::time::Duration::from_millis(400));
    let interrupt = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(interrupt.success(), "kill -INT failed");
    let out = child.wait_with_output().expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("degraded: cancelled"), "{text}");
    assert!(text.contains("Pareto front"), "{text}");
}

/// Every worker-count flag rejects `0` through the same validator —
/// `explore --jobs 0` used to be the odd one out, so pin all of them.
#[test]
fn zero_worker_counts_are_rejected_uniformly() {
    let cases: [(&[&str], &str); 4] = [
        (&["explore", "bench:ex", "--jobs", "0"], "--jobs must be >= 1"),
        (
            &["bench:ex", "--atpg", "--tcov-jobs", "0"],
            "--tcov-jobs must be >= 1",
        ),
        (&["serve", "--workers", "0"], "--workers must be >= 1"),
        (&["serve", "--queue", "0"], "--queue must be >= 1"),
    ];
    for (args, message) in cases {
        let out = hlts().args(args).output().expect("binary runs");
        assert!(!out.status.success(), "{args:?} accepted");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(message), "{args:?}: {err}");
    }
}

/// `--warm-start on` replays neighbour traces but reports the very
/// same front as a cold sweep; garbage modes are rejected.
#[test]
fn explore_warm_start_preserves_the_front() {
    let sweep = ["explore", "bench:ex", "--k", "2", "--weights", "2:1,2:1.05,1:10", "--quiet"];
    let run = |extra: &[&str]| {
        let out = hlts().args(sweep).args(extra).output().expect("binary runs");
        assert!(out.status.success(), "{out:?}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let cold = run(&["--warm-start", "off"]);
    let warm = run(&["--warm-start", "on"]);
    let front = |s: &str| s.split("front: ").nth(1).map(str::to_owned);
    assert_eq!(front(&cold), front(&warm), "{cold} vs {warm}");

    let out = hlts()
        .args(["explore", "bench:ex", "--warm-start", "sideways"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("expected off or on"), "{err}");
}

#[test]
fn explore_rejects_journal_plus_resume() {
    let out = hlts()
        .args(["explore", "bench:ex", "--journal", "/tmp/a", "--resume", "/tmp/b"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("either --journal"), "{err}");
}

/// A zero-width data path prices every design at H = 0; `run` and
/// `explore` refuse it before any synthesis.
#[test]
fn zero_bits_is_rejected() {
    let cases: [&[&str]; 3] = [
        &["bench:ex", "--bits", "0"],
        &["bench:ex", "--bits", "0", "--atpg", "--fault-sample", "100"],
        &["explore", "bench:ex", "--bits", "8,0"],
    ];
    for args in cases {
        let out = hlts().args(args).output().expect("binary runs");
        assert!(!out.status.success(), "{args:?} accepted: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("bits must be >= 1"), "{args:?}: {err}");
    }
}

/// The `metrics`, `merges` and `coverage` a run reports, as JSON values.
fn run_fields(result: &hlts::jobs::json::Json) -> Vec<Option<hlts::jobs::json::Json>> {
    ["metrics", "merges", "coverage"]
        .iter()
        .map(|key| result.get(key).cloned())
        .collect()
}

/// `hlts submit` against a live `hlts serve --tcp` daemon answers with
/// exactly what `hlts run --json` prints for the same request: the
/// bench path with overrides and grading, and a generated graph piped
/// through stdin.
#[test]
fn submit_matches_a_one_shot_run() {
    use hlts::jobs::json::{self, Json};
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::process::Stdio;

    /// Stops the daemon even when an assertion fails first.
    struct Daemon(std::process::Child);
    impl Drop for Daemon {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    let mut daemon = Daemon(
        hlts()
            .args(["serve", "--tcp", "127.0.0.1:0", "--workers", "2"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("binary spawns"),
    );
    let mut banner = String::new();
    BufReader::new(daemon.0.stdout.take().expect("piped stdout"))
        .read_line(&mut banner)
        .expect("read banner");
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .to_owned();

    let graph = hlts().args(["gen", "--seed", "3"]).output().expect("binary runs");
    assert!(graph.status.success(), "{graph:?}");
    // Start `hlts` with `args`, feeding `input` on stdin when given.
    let spawn = |args: &[&str], input: Option<&[u8]>| {
        let mut child = hlts()
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary spawns");
        let mut stdin = child.stdin.take().expect("piped stdin");
        if let Some(input) = input {
            stdin.write_all(input).expect("feed stdin");
        }
        child
    };
    let finish = |child: std::process::Child| {
        let out = child.wait_with_output().expect("binary runs");
        assert!(out.status.success(), "{out:?}");
        String::from_utf8(out.stdout).expect("utf8 output")
    };
    // 4 bits keeps the graded case quick in debug builds.
    let cases: [(&[&str], Option<&[u8]>); 2] = [
        (&["bench:ex", "--bits", "4", "--k", "2", "--alpha", "2.5", "--atpg"], None),
        (&["-"], Some(&graph.stdout)),
    ];
    for (args, input) in cases {
        // The daemon and the one-shot run grade side by side.
        let submit = spawn(&[&["submit"], args, &["--connect", &addr]].concat(), input);
        let local = spawn(&[args, &["--json"]].concat(), input);
        let submitted = finish(submit);
        let done = submitted
            .lines()
            .map(|line| json::parse(line).expect("JSON line"))
            .find(|doc| doc.get("event").and_then(Json::as_str) == Some("done"))
            .unwrap_or_else(|| panic!("no done event: {submitted}"));
        let served = run_fields(done.get("result").expect("result"));
        let mut local = json::parse(&finish(local)).expect("JSON");
        // `run --json` names the coverage object `atpg`.
        if let Json::Obj(fields) = &mut local {
            for (key, _) in fields.iter_mut().filter(|(key, _)| key == "atpg") {
                *key = "coverage".to_owned();
            }
        }
        assert_eq!(served, run_fields(&local), "{args:?}");
        assert_eq!(served[2].is_some(), args.contains(&"--atpg"), "{args:?}");
    }

    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    writeln!(stream, r#"{{"op":"shutdown"}}"#).expect("send shutdown");
    let status = daemon.0.wait().expect("daemon exits");
    assert!(status.success(), "{status:?}");
}
