//! The server's cross-run history plane over real loopback HTTP: the
//! post-completion flush into the telemetry history store, the
//! `/history/*` query routes, the per-job `/jobs/{id}/diagnosis` report,
//! and the stream/snapshot `?prefix=` filter parity.

use mpas_server::http::stream_lines;
use mpas_server::{Server, ServerConfig};
use mpas_telemetry::export::{parse_json, validate_json, JsonValue};
use mpas_telemetry::{names, Recorder};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmp(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("mpas-history-plane-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("recv");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let payload = raw.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    (status, payload)
}

fn http_json(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, JsonValue) {
    let (status, payload) = http(addr, method, path, body);
    (status, parse_json(&payload).unwrap_or(JsonValue::Null))
}

fn submit(addr: SocketAddr, body: &str) -> f64 {
    let (status, doc) = http_json(addr, "POST", "/jobs", body);
    assert_eq!(status, 202, "submit: {doc:?}");
    doc.get("id").and_then(|v| v.as_f64()).expect("job id")
}

fn wait_completed(addr: SocketAddr, id: f64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, doc) = http_json(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200);
        let state = doc.get("status").and_then(|s| s.as_str()).unwrap();
        if state == "completed" {
            return;
        }
        assert!(
            state == "queued" || state == "running",
            "job {id} ended {state}"
        );
        assert!(Instant::now() < deadline, "job {id} stuck in {state}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The history flush runs on the worker thread *after* the registry
/// flips to completed, so poll the diagnosis route past its 409 window.
fn wait_diagnosis(addr: SocketAddr, id: f64, query: &str) -> (u16, String) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, payload) = http(addr, "GET", &format!("/jobs/{id}/diagnosis{query}"), "");
        if status != 409 {
            return (status, payload);
        }
        assert!(Instant::now() < deadline, "job {id} never flushed history");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn history_routes_flush_query_and_diagnose_completed_jobs() {
    let dir = tmp("routes");
    let rec = Recorder::new();
    let mut server = Server::start(
        ServerConfig {
            workers: 1,
            queue_capacity: 8,
            history_dir: Some(dir.clone()),
            ..Default::default()
        },
        rec.clone(),
    )
    .expect("start server");
    let addr = server.addr();

    // Two identical jobs: the second diagnoses against the first.
    let body = "{\"level\": 3, \"steps\": 4, \"progress_every\": 1}";
    let first = submit(addr, body);
    wait_completed(addr, first);
    let second = submit(addr, body);
    wait_completed(addr, second);

    // The first job's report exists but has no baseline yet.
    let (status, payload) = wait_diagnosis(addr, first, "");
    assert_eq!(status, 200, "{payload}");
    validate_json(&payload).unwrap_or_else(|at| panic!("diagnosis invalid at byte {at}"));
    let doc = parse_json(&payload).unwrap();
    assert_eq!(doc.get("failed").and_then(|v| v.as_bool()), Some(false));

    // The second job's report compares against the first run; identical
    // in-process runs must not fail.
    let (status, payload) = wait_diagnosis(addr, second, "?against=last=3");
    assert_eq!(status, 200, "{payload}");
    let doc = parse_json(&payload).unwrap();
    assert_eq!(doc.get("failed").and_then(|v| v.as_bool()), Some(false));
    let baselines = doc
        .get("baselines")
        .and_then(|b| b.as_arr().map(|a| a.len()));
    assert_eq!(baselines, Some(1), "second run sees exactly one baseline");

    // Both flushes are visible as committed runs...
    let (status, payload) = http(addr, "GET", "/history/runs", "");
    assert_eq!(status, 200);
    validate_json(&payload).unwrap_or_else(|at| panic!("runs invalid at byte {at}"));
    let doc = parse_json(&payload).unwrap();
    let runs = doc.get("runs").and_then(|r| r.as_arr().map(|a| a.len()));
    assert_eq!(runs, Some(2));
    assert_eq!(
        rec.snapshot().counter(names::SERVER_HISTORY_RECORDED),
        Some(2)
    );

    // ...and queryable under the names the job recorded, answered from
    // the run's summary.
    let (status, payload) = http(
        addr,
        "GET",
        "/history/query?prefix=core.sim.step_seconds&agg=p95&level=3",
        "",
    );
    assert_eq!(status, 200, "{payload}");
    let doc = parse_json(&payload).unwrap();
    assert_eq!(doc.get("agg").and_then(|a| a.as_str()), Some("p95"));
    let rows = doc.get("rows").and_then(|r| r.as_arr()).expect("rows");
    assert_eq!(rows.len(), 2, "one step-histogram row per run");
    for row in rows {
        assert_eq!(row.get("level").and_then(|l| l.as_str()), Some("summary"));
        assert!(row.get("value").and_then(|v| v.as_f64()).unwrap() > 0.0);
    }

    // Parameter validation and the unknown-job path.
    let (status, _) = http(addr, "GET", "/history/query?agg=bogus", "");
    assert_eq!(status, 400);
    let (status, _) = http(addr, "GET", "/history/query?last=0", "");
    assert_eq!(status, 400);
    let (status, _) = http(addr, "GET", "/jobs/999/diagnosis", "");
    assert_eq!(status, 404);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn history_routes_answer_404_when_no_store_is_configured() {
    let rec = Recorder::new();
    let mut server = Server::start(ServerConfig::default(), rec).expect("start server");
    let addr = server.addr();
    for path in ["/history/runs", "/history/query"] {
        let (status, payload) = http(addr, "GET", path, "");
        assert_eq!(status, 404, "{path}");
        assert!(payload.contains("--history-dir"), "{path}: {payload}");
    }
    // Diagnosis needs the store before it can even resolve the job.
    let (status, payload) = http(addr, "GET", "/jobs/1/diagnosis", "");
    assert_eq!(status, 404);
    assert!(payload.contains("--history-dir"), "{payload}");
    server.shutdown();
}

#[test]
fn metrics_stream_honors_the_same_prefix_filter_as_the_snapshot() {
    let rec = Recorder::new();
    let mut server = Server::start(
        ServerConfig {
            workers: 1,
            queue_capacity: 8,
            ..Default::default()
        },
        rec,
    )
    .expect("start server");
    let addr = server.addr();

    // Run one job so the server's queue, cache and job metrics exist.
    let id = submit(addr, "{\"level\": 3, \"steps\": 2, \"progress_every\": 1}");
    wait_completed(addr, id);

    // The filtered snapshot is the reference behavior: a strict subset of
    // the server's own keys...
    let (status, snapshot) = http(addr, "GET", "/metrics?prefix=server.jobs.", "");
    assert_eq!(status, 200);
    assert!(snapshot.contains("server.jobs.submitted"));
    assert!(!snapshot.contains("server.queue."));

    // ...and the stream must apply the identical filter per line.
    let lines = stream_lines(
        addr,
        "/metrics/stream?interval_ms=20&count=2&prefix=server.jobs.",
        2,
    )
    .expect("stream");
    assert!(lines.len() >= 2, "got {} stream lines", lines.len());
    for line in &lines {
        validate_json(line).unwrap_or_else(|at| panic!("stream line invalid at byte {at}"));
        assert!(
            line.contains("server.jobs.submitted"),
            "filtered stream line lost server metrics: {line}"
        );
        assert!(
            !line.contains("server.queue."),
            "prefix=server.jobs. leaked other server metrics into the stream: {line}"
        );
    }

    // An unfiltered stream line carries the server's own metrics and no
    // job's: a job records into its own recorder.
    let lines = stream_lines(addr, "/metrics/stream?interval_ms=20&count=1", 1).expect("stream");
    assert!(lines[0].contains("server.queue."), "{}", lines[0]);
    let doc = parse_json(&lines[0]).expect("stream line JSON");
    let metrics = doc.get("metrics").expect("metrics");
    for section in ["counters", "gauges", "histograms", "windows"] {
        for (key, _) in metrics.get(section).and_then(|s| s.as_obj()).unwrap_or(&[]) {
            assert!(!key.starts_with("job"), "job {id} key {key} in the stream");
        }
    }
    server.shutdown();
}
