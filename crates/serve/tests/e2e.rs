//! End-to-end server tests: the full job lifecycle over real sockets,
//! the cached read path, event streaming, and crash-recovery resume
//! with byte-identical trial logs.

use serde_json::{json, Value};
use serve::client;
use serve::{ServeConfig, Server};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn temp_root(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("aaltune-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn config(root: &Path) -> ServeConfig {
    ServeConfig {
        root: root.to_path_buf(),
        addr: "127.0.0.1:0".to_string(),
        http_workers: 2,
        job_workers: 2,
        devices: 2,
        quiet: true,
        snapshot_interval: Duration::from_millis(200),
        ..ServeConfig::default()
    }
}

fn submit(addr: &str, body: &Value) -> String {
    let (code, resp) = client::request(addr, "POST", "/jobs", Some(body)).expect("submit");
    assert_eq!(code, 202, "submit should be accepted: {resp}");
    resp["id"].as_str().expect("job id").to_string()
}

fn wait_done(addr: &str, id: &str) -> Value {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (code, body) =
            client::request(addr, "GET", &format!("/jobs/{id}"), None).expect("status");
        assert_eq!(code, 200, "status of a known job: {body}");
        match body["state"].as_str() {
            Some("done") => return body,
            Some("failed") => panic!("job {id} failed: {body}"),
            _ => {}
        }
        assert!(Instant::now() < deadline, "timeout waiting for {id}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn spec(tenant: &str, seed: u64, n_trial: u64) -> Value {
    json!({
        "tenant": tenant,
        "model": "squeezenet",
        "task": 0u64,
        "method": "random",
        "n_trial": n_trial,
        "seed": seed,
    })
}

#[test]
fn full_job_lifecycle_read_path_and_event_stream() {
    let root = temp_root("lifecycle");
    let server = Server::start(config(&root)).expect("server starts");
    let addr = server.addr().to_string();

    // The bound address is published for `aaltune client --root`.
    let published = std::fs::read_to_string(root.join("serve.addr")).expect("serve.addr");
    assert_eq!(published, addr);

    // Garbage in → typed errors out, before anything is journaled.
    let (code, body) =
        client::request(&addr, "POST", "/jobs", Some(&json!({"model": "nope"}))).unwrap();
    assert_eq!(code, 400, "unknown model: {body}");
    let (code, _) = client::request(&addr, "GET", "/jobs/j99", None).unwrap();
    assert_eq!(code, 404);
    let (code, _) = client::request(&addr, "GET", "/nope", None).unwrap();
    assert_eq!(code, 404);
    let (code, _) = client::request(&addr, "DELETE", "/jobs", None).unwrap();
    assert_eq!(code, 405);

    // Two tenants, two jobs.
    let j1 = submit(&addr, &spec("alpha", 3, 24));
    let j2 = submit(&addr, &spec("beta", 9, 16));
    assert_eq!((j1.as_str(), j2.as_str()), ("j1", "j2"));

    // A result query before completion is a typed 409, not a hang.
    let (code, body) = client::request(&addr, "GET", "/jobs/j1/result", None).unwrap();
    assert!(code == 409 || code == 200, "premature result is 409 (or the job already won): {body}");

    let s1 = wait_done(&addr, &j1);
    assert_eq!(s1["tenant"].as_str(), Some("alpha"));
    wait_done(&addr, &j2);

    let (code, result) = client::request(&addr, "GET", "/jobs/j1/result", None).unwrap();
    assert_eq!(code, 200, "finished job has a result: {result}");
    assert_eq!(result["job"].as_str(), Some("j1"));
    assert_eq!(result["tasks"][0]["trials"].as_u64(), Some(24));
    assert!(result["tasks"][0]["best_gflops"].as_f64().unwrap() > 0.0);

    // The read path answers from the database the jobs populated.
    let (code, best) =
        client::request(&addr, "GET", "/best?model=squeezenet&task=0&device=gtx1080ti", None)
            .unwrap();
    assert_eq!(code, 200, "tuned task has a db record: {best}");
    assert_eq!(best["source"].as_str(), Some("exact"));
    assert!(best["record"]["best_gflops"].as_f64().unwrap() > 0.0);
    // An untuned task of the same model still gets a nearest-neighbor hint.
    let (code, near) =
        client::request(&addr, "GET", "/best?model=squeezenet&task=5", None).unwrap();
    assert_eq!(code, 200, "nearest fallback: {near}");
    assert_eq!(near["source"].as_str(), Some("nearest"));
    // A bad query is a 400, not a panic — and an unknown device is
    // rejected before it can mint a spec-cache entry.
    let (code, _) = client::request(&addr, "GET", "/best?task=0", None).unwrap();
    assert_eq!(code, 400);
    let (code, body) =
        client::request(&addr, "GET", "/best?model=squeezenet&device=tpu", None).unwrap();
    assert_eq!(code, 400, "unknown device: {body}");

    // The event stream replays the ring and terminates at the terminal
    // event even for a long-finished job.
    let mut events: Vec<Value> = Vec::new();
    client::stream_events(&addr, &format!("/jobs/{j1}/events"), |v| {
        events.push(v.clone());
        true
    })
    .expect("event stream");
    assert_eq!(events.first().and_then(|v| v["event"].as_str()), Some("job.start"));
    assert_eq!(events.last().and_then(|v| v["event"].as_str()), Some("job.done"));
    assert!(
        events.iter().filter(|v| v["event"].as_str() == Some("job.trial")).count() >= 24,
        "every live trial is streamed"
    );
    let seqs: Vec<u64> = events.iter().filter_map(|v| v["seq"].as_u64()).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "events arrive in seq order");

    // Metrics snapshots land in the serve root (what `aaltune top` tails).
    assert!(root.join(telemetry::SNAPSHOT_FILE).exists(), "live snapshot published");

    // Graceful shutdown over HTTP; wait() must return.
    let (code, _) = client::request(&addr, "POST", "/shutdown", None).unwrap();
    assert_eq!(code, 202);
    server.wait();

    // After the drain, the journal holds both terminal lines.
    let journal = std::fs::read_to_string(root.join("journal.jsonl")).expect("journal");
    assert_eq!(journal.matches("\"submitted\"").count(), 2);
    assert_eq!(journal.matches("\"done\"").count(), 2);
    let _ = std::fs::remove_dir_all(&root);
}

/// Runs a twin server to completion, snapshotting what a kill -9 mid-task
/// would leave of one job along the way, then builds a "crashed" root
/// (journal acknowledges both jobs; one run dir killed mid-task, the
/// other never started) and requires the restarted server to finish both
/// with trial logs byte-identical to the twin's. The killed job has
/// quarantined invalid configurations by then, and its checkpoint must
/// carry them, restricted to configurations already in its log.
#[test]
fn restart_resumes_queue_with_byte_identical_logs() {
    let twin_root = temp_root("twin");
    let crash_root = temp_root("crash");
    let cfg = ServeConfig { device_hold: Duration::from_millis(2), ..config(&twin_root) };
    let twin = Server::start(cfg).expect("twin starts");
    let addr = twin.addr().to_string();
    let j1 = submit(&addr, &spec("alpha", 3, 400));
    let j2 = submit(&addr, &spec("beta", 9, 24));

    // "Kill" j1 at a mid-task checkpoint that carries a quarantine: copy
    // the checkpoint first, then the manifest and log, which are always at
    // least as far along (possibly ending in a torn line).
    let twin_j1 = twin_root.join("jobs").join(&j1);
    let crash_j1 = crash_root.join("jobs").join(&j1);
    std::fs::create_dir_all(crash_j1.join("logs")).unwrap();
    let deadline = Instant::now() + Duration::from_secs(120);
    let checkpoint: active_learning::Checkpoint = loop {
        if let Ok(text) = std::fs::read_to_string(twin_j1.join("checkpoint.json")) {
            let c: active_learning::Checkpoint = serde_json::from_str(&text).unwrap();
            if c.in_flight.is_some() && c.quarantine.as_ref().is_some_and(|q| !q.is_empty()) {
                std::fs::write(crash_j1.join("checkpoint.json"), &text).unwrap();
                break c;
            }
            assert!(c.completed_tasks.is_empty(), "j1 finished before quarantining: {text}");
        }
        assert!(Instant::now() < deadline, "timeout waiting for a mid-task checkpoint");
        std::thread::sleep(Duration::from_millis(1));
    };
    std::fs::copy(twin_j1.join("manifest.json"), crash_j1.join("manifest.json")).unwrap();
    let log_name = std::fs::read_dir(twin_j1.join("logs"))
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .find(|n| n.to_string_lossy().ends_with(".jsonl"))
        .expect("twin j1 task log");
    let torn = std::fs::read(twin_j1.join("logs").join(&log_name)).unwrap();
    std::fs::write(crash_j1.join("logs").join(&log_name), &torn).unwrap();
    let logged: std::collections::BTreeSet<u64> = active_learning::TuningLog::recover_jsonl(&torn)
        .unwrap()
        .log
        .records
        .iter()
        .map(|r| r.config_index)
        .collect();
    let quarantined = checkpoint.quarantine.unwrap().indices_for(&checkpoint.in_flight.unwrap());
    assert!(!quarantined.is_empty(), "j1 must have quarantined an invalid config");
    assert!(
        quarantined.iter().all(|i| logged.contains(i)),
        "checkpointed quarantine {quarantined:?} must only name logged configs"
    );

    wait_done(&addr, &j1);
    wait_done(&addr, &j2);
    twin.shutdown();
    twin.wait();
    let full_log = std::fs::read(twin_j1.join("logs").join(&log_name)).unwrap();
    assert!(full_log.len() > torn.len(), "the twin log must extend past the tear");

    // The crashed root's journal as of the 202 acks (no terminal lines:
    // the "crash" predates both completions)...
    let submitted: String = std::fs::read_to_string(twin_root.join("journal.jsonl"))
        .unwrap()
        .lines()
        .filter(|l| l.contains("\"submitted\""))
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(crash_root.join("journal.jsonl"), submitted).unwrap();
    // ...and j2 not started at all (journaled, no run dir).

    let server = Server::start(config(&crash_root)).expect("restarted server");
    let addr = server.addr().to_string();
    wait_done(&addr, &j1);
    wait_done(&addr, &j2);
    server.shutdown();
    server.wait();

    for id in [&j1, &j2] {
        let twin_logs = twin_root.join("jobs").join(id).join("logs");
        for entry in std::fs::read_dir(&twin_logs).unwrap() {
            let name = entry.unwrap().file_name();
            let twin_bytes = std::fs::read(twin_logs.join(&name)).unwrap();
            let crash_bytes =
                std::fs::read(crash_root.join("jobs").join(id).join("logs").join(&name))
                    .unwrap_or_else(|_| panic!("{id} log {name:?} missing after resume"));
            assert_eq!(
                twin_bytes, crash_bytes,
                "{id} log {name:?} must be byte-identical after crash + resume"
            );
        }
        let twin_result = std::fs::read(twin_root.join("jobs").join(id).join("result.json"));
        let crash_result = std::fs::read(crash_root.join("jobs").join(id).join("result.json"));
        assert_eq!(twin_result.unwrap(), crash_result.unwrap(), "{id} result matches");
    }
    // A fresh server on the now-complete journal restores both jobs as
    // terminal with empty event rings; the stream must synthesize the
    // terminal line and finish instead of polling until shutdown.
    let server = Server::start(config(&crash_root)).expect("post-resume restart");
    let addr = server.addr().to_string();
    let mut events: Vec<Value> = Vec::new();
    client::stream_events(&addr, &format!("/jobs/{j1}/events"), |v| {
        events.push(v.clone());
        true
    })
    .expect("replayed job streams");
    assert_eq!(events.last().and_then(|v| v["event"].as_str()), Some("job.done"));
    assert_eq!(events.last().and_then(|v| v["replayed"].as_bool()), Some(true));
    server.shutdown();
    server.wait();

    let _ = std::fs::remove_dir_all(&twin_root);
    let _ = std::fs::remove_dir_all(&crash_root);
}

/// A client that sends request headers and then stalls must not pin an
/// HTTP worker past shutdown: even with every worker mid-read, the
/// drain completes within the idle-poll tick.
#[test]
fn stalled_clients_do_not_block_shutdown() {
    use std::io::Write;

    let root = temp_root("stall");
    let server = Server::start(config(&root)).expect("server starts");
    let addr = server.addr();

    // More stalled connections than http_workers (2), each promising a
    // body that never arrives.
    let mut stalled = Vec::new();
    for _ in 0..3 {
        let mut s = std::net::TcpStream::connect(addr).expect("connect");
        s.write_all(b"POST /jobs HTTP/1.1\r\nContent-Length: 64\r\n\r\n").expect("partial write");
        stalled.push(s);
    }
    // Let the workers pick the connections up and enter the body read.
    std::thread::sleep(Duration::from_millis(200));

    server.shutdown();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.wait();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(10)).expect("shutdown must drain despite stalled clients");
    drop(stalled);
    let _ = std::fs::remove_dir_all(&root);
}
