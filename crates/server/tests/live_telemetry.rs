//! Live observability plane over real loopback HTTP (DESIGN.md §13): the
//! telemetry/flight/stream endpoints must answer with valid documents
//! *while a job is still running*, and scoped per-job namespaces must not
//! leak into each other.

use mpas_server::http::stream_lines;
use mpas_server::{Server, ServerConfig};
use mpas_telemetry::export::{parse_json, validate_json, validate_ndjson, JsonValue};
use mpas_telemetry::{names, Recorder};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

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

fn wait_running(addr: SocketAddr, id: f64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, doc) = http_json(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200);
        if doc.get("status").and_then(|s| s.as_str()) == Some("running") {
            return;
        }
        assert!(Instant::now() < deadline, "job {id} never started running");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn wait_terminal(addr: SocketAddr, id: f64) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, doc) = http_json(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200);
        let state = doc
            .get("status")
            .and_then(|s| s.as_str())
            .unwrap()
            .to_string();
        if state == "completed" || state == "failed" || state == "cancelled" {
            return state;
        }
        assert!(Instant::now() < deadline, "job {id} stuck in {state}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn live_endpoints_answer_while_a_level6_job_is_running() {
    let rec = Recorder::new();
    let mut server = Server::start(
        ServerConfig {
            workers: 1,
            queue_capacity: 8,
            ..Default::default()
        },
        rec.clone(),
    )
    .expect("start server");
    let addr = server.addr();

    // A long level-6 job; progress_every=1 keeps its progress gauge and
    // cancellation checks fresh every step.
    let body = "{\"level\": 6, \"steps\": 2000, \"progress_every\": 1}";
    let (status, doc) = http_json(addr, "POST", "/jobs", body);
    assert_eq!(status, 202);
    let id = doc.get("id").and_then(|v| v.as_f64()).expect("job id");
    wait_running(addr, id);

    // 1. Live windowed snapshot for the running job: valid JSON, correct
    //    scope, restricted to the job's namespace.
    let (status, payload) = http(addr, "GET", &format!("/jobs/{id}/telemetry"), "");
    assert_eq!(status, 200, "telemetry while running: {payload}");
    validate_json(&payload).unwrap_or_else(|at| panic!("telemetry invalid at byte {at}"));
    let doc = parse_json(&payload).expect("telemetry JSON");
    assert_eq!(doc.get("status").and_then(|s| s.as_str()), Some("running"));
    assert_eq!(
        doc.get("scope").and_then(|s| s.as_str()),
        Some(format!("job{id}").as_str())
    );
    assert!(doc.get("step").is_some(), "running job reports its step");
    assert!(doc.get("metrics").is_some());

    // 2. The metrics stream: NDJSON, one self-contained snapshot line per
    //    interval, all while the job is still running.
    let lines = stream_lines(addr, "/metrics/stream?interval_ms=20&count=3", 3).expect("stream");
    assert!(lines.len() >= 3, "got {} stream lines", lines.len());
    let joined = lines.join("\n");
    let n = validate_ndjson(&joined)
        .unwrap_or_else(|(line, at)| panic!("stream line {line} invalid at byte {at}"));
    assert_eq!(n, lines.len());
    for (i, line) in lines.iter().enumerate() {
        let doc = parse_json(line).expect("stream line JSON");
        assert_eq!(doc.get("seq").and_then(|v| v.as_f64()), Some(i as f64));
        assert!(doc.get("metrics").is_some());
    }

    // 3. The job's flight dump is a valid, self-contained Chrome trace
    //    mid-run.
    let (status, trace) = http(addr, "GET", &format!("/jobs/{id}/flight"), "");
    assert_eq!(status, 200);
    validate_json(&trace).unwrap_or_else(|at| panic!("flight trace invalid at byte {at}"));
    assert!(trace.contains("\"traceEvents\""));
    assert!(trace.contains("\"flight-recorder\""));

    // Confirm the job was still running through all three probes, then
    // wind it down.
    let (_, doc) = http_json(addr, "GET", &format!("/jobs/{id}"), "");
    assert_eq!(doc.get("status").and_then(|s| s.as_str()), Some("running"));
    let (status, _) = http_json(addr, "POST", &format!("/jobs/{id}/cancel"), "");
    assert_eq!(status, 200);
    assert_eq!(wait_terminal(addr, id), "cancelled");

    // The live endpoints timed themselves into the latency window.
    assert!(rec.windowed(names::SERVER_LIVE_SECONDS).map(|w| w.count) >= Some(4));
    server.shutdown();
}

#[test]
fn live_endpoints_publish_no_analysis_gauges() {
    // A server job runs on no ranks, so no blame applies to it: serving
    // the live endpoints must not publish `analysis.*` (DESIGN.md §8).
    let rec = Recorder::new();
    let mut server = Server::start(
        ServerConfig {
            workers: 2,
            queue_capacity: 8,
            ..Default::default()
        },
        rec,
    )
    .expect("start server");
    let addr = server.addr();
    let mut ids = Vec::new();
    for _ in 0..3 {
        let (status, doc) = http_json(addr, "POST", "/jobs", "{\"level\": 3, \"steps\": 4}");
        assert_eq!(status, 202);
        ids.push(doc.get("id").and_then(|v| v.as_f64()).expect("job id"));
    }
    for &id in &ids {
        assert_eq!(wait_terminal(addr, id), "completed");
        let (status, _) = http(addr, "GET", &format!("/jobs/{id}/telemetry"), "");
        assert_eq!(status, 200);
    }
    let lines = stream_lines(addr, "/metrics/stream?interval_ms=10&count=2", 2).expect("stream");
    assert_eq!(lines.len(), 2);

    let (status, doc) = http_json(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let mut keys = 0;
    let mut analysis = Vec::new();
    for section in ["counters", "gauges", "histograms", "windows"] {
        for (key, _) in doc.get(section).and_then(|s| s.as_obj()).unwrap_or(&[]) {
            keys += 1;
            if key.starts_with("analysis.") {
                analysis.push(key.clone());
            }
        }
    }
    assert!(keys > 0, "empty /metrics snapshot");
    assert!(
        analysis.is_empty(),
        "analysis.* keys without ranks: {analysis:?}"
    );
    server.shutdown();
}

#[test]
fn unknown_job_telemetry_and_flight_answer_404() {
    let rec = Recorder::new();
    let mut server = Server::start(ServerConfig::default(), rec).expect("start server");
    let addr = server.addr();
    let (status, _) = http(addr, "GET", "/jobs/999/telemetry", "");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "GET", "/jobs/999/flight", "");
    assert_eq!(status, 404);
    server.shutdown();
}

#[test]
fn concurrent_jobs_keep_isolated_telemetry_namespaces() {
    let rec = Recorder::new();
    let mut server = Server::start(
        ServerConfig {
            workers: 2,
            queue_capacity: 8,
            ..Default::default()
        },
        rec.clone(),
    )
    .expect("start server");
    let addr = server.addr();

    // Two jobs running at once on separate workers.
    let body = "{\"level\": 4, \"steps\": 60, \"progress_every\": 1}";
    let mut ids = Vec::new();
    for _ in 0..2 {
        let (status, doc) = http_json(addr, "POST", "/jobs", body);
        assert_eq!(status, 202);
        ids.push(doc.get("id").and_then(|v| v.as_f64()).expect("job id"));
    }
    for &id in &ids {
        assert_eq!(wait_terminal(addr, id), "completed");
    }

    // Each job's namespace holds its own metrics and nothing of the
    // other's — checked through the public prefix filter.
    for &id in &ids {
        let other: f64 = ids.iter().copied().find(|&o| o != id).unwrap();
        let (status, payload) = http(addr, "GET", &format!("/metrics?prefix=job{id}."), "");
        assert_eq!(status, 200);
        validate_json(&payload).unwrap_or_else(|at| panic!("metrics invalid at byte {at}"));
        assert!(
            payload.contains(&format!("job{id}.core.sim.step_seconds")),
            "job{id} namespace missing its own step histogram"
        );
        assert!(
            !payload.contains(&format!("job{other}.")),
            "job{id} view leaked job{other} metrics"
        );
    }
    // And each job's flight dump only carries its own events.
    for &id in &ids {
        let other: f64 = ids.iter().copied().find(|&o| o != id).unwrap();
        let (status, trace) = http(addr, "GET", &format!("/jobs/{id}/flight"), "");
        assert_eq!(status, 200);
        assert!(trace.contains(&format!("job{id}.")));
        assert!(!trace.contains(&format!("job{other}.")));
    }
    server.shutdown();
}
