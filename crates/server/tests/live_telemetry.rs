//! Live observability plane over real loopback HTTP (DESIGN.md §13): the
//! telemetry/flight/stream endpoints must answer with valid documents
//! *while a job is still running*, each job's telemetry must hold that
//! job's steps and no other job's, and the server's shared recorder must
//! not grow with the number of jobs served.

use mpas_server::http::stream_lines;
use mpas_server::{Server, ServerConfig};
use mpas_telemetry::export::{parse_json, validate_json, validate_ndjson, JsonValue};
use mpas_telemetry::{names, Recorder};
use std::collections::BTreeSet;
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

/// The `core.step` slices of a job's `/jobs/{id}/flight` trace.
fn flight_steps(addr: SocketAddr, id: f64) -> usize {
    let (status, trace) = http(addr, "GET", &format!("/jobs/{id}/flight"), "");
    assert_eq!(status, 200);
    let doc = parse_json(&trace).expect("flight trace JSON");
    let events = doc.get("traceEvents").and_then(JsonValue::as_arr);
    let is_step = |e: &&JsonValue| {
        let field = |k: &str| e.get(k).and_then(JsonValue::as_str);
        field("ph") == Some("X") && field("name") == Some("core.step")
    };
    events.expect("traceEvents").iter().filter(is_step).count()
}

/// The `core.sim.step_seconds` sample count of a job's
/// `/jobs/{id}/telemetry` document.
fn telemetry_steps(addr: SocketAddr, id: f64) -> Option<usize> {
    let (status, doc) = http_json(addr, "GET", &format!("/jobs/{id}/telemetry"), "");
    assert_eq!(status, 200);
    let h = doc.get("metrics")?.get("histograms")?;
    let count = h.get("core.sim.step_seconds")?.get("count")?.as_f64()?;
    Some(count as usize)
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

    // 1. Live windowed snapshot of the running job's recorder: valid
    //    JSON with the job's status and step.
    let (status, payload) = http(addr, "GET", &format!("/jobs/{id}/telemetry"), "");
    assert_eq!(status, 200, "telemetry while running: {payload}");
    validate_json(&payload).unwrap_or_else(|at| panic!("telemetry invalid at byte {at}"));
    let doc = parse_json(&payload).expect("telemetry JSON");
    assert_eq!(doc.get("status").and_then(|s| s.as_str()), Some("running"));
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

    // Two jobs of different lengths running at once on separate workers.
    let mut jobs = Vec::new();
    for steps in [60, 40] {
        let body = format!("{{\"level\": 4, \"steps\": {steps}, \"progress_every\": 1}}");
        let (status, doc) = http_json(addr, "POST", "/jobs", &body);
        assert_eq!(status, 202);
        let id = doc.get("id").and_then(|v| v.as_f64()).expect("job id");
        jobs.push((id, steps));
    }
    for &(id, _) in &jobs {
        assert_eq!(wait_terminal(addr, id), "completed");
    }

    // Each job's telemetry and flight trace hold its own steps, and none
    // of the other job's.
    for &(id, steps) in &jobs {
        assert_eq!(telemetry_steps(addr, id), Some(steps), "job {id}");
        assert_eq!(flight_steps(addr, id), steps, "job {id}");
    }
    server.shutdown();
}

/// Every key of a metrics snapshot, over all sections.
fn keys_of(rec: &Recorder) -> BTreeSet<String> {
    let snap = rec.snapshot();
    snap.counters
        .keys()
        .chain(snap.gauges.keys())
        .chain(snap.histograms.keys())
        .chain(snap.windows.keys())
        .cloned()
        .collect()
}

#[test]
fn a_job_records_into_its_own_recorder_and_the_shared_one_stays_flat() {
    // A small shared ring: any job events that reached it would wash job
    // 1's out within a few jobs.
    let rec = Recorder::with_flight_capacity(64);
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
    let body = "{\"level\": 2, \"steps\": 2, \"progress_every\": 1}";
    let run = || {
        let (status, doc) = http_json(addr, "POST", "/jobs", body);
        assert_eq!(status, 202);
        let id = doc.get("id").and_then(|v| v.as_f64()).expect("job id");
        assert_eq!(wait_terminal(addr, id), "completed");
        (keys_of(&rec), rec.spans().len())
    };

    // Job 1 misses every cache slot; the first hit counter appears with
    // job 2. From then on the shared key set stays put.
    let (after_first, spans_first) = run();
    let (after_second, _) = run();
    let first_hit: Vec<_> = after_second.difference(&after_first).collect();
    assert_eq!(first_hit, [names::SERVER_CACHE_HIT]);
    for _ in 0..10 {
        let (keys, spans) = run();
        assert_eq!(keys, after_second);
        assert_eq!(spans, spans_first, "the shared recorder gained spans");
    }
    let job_keys: Vec<_> = after_second
        .iter()
        .filter(|k| k.starts_with("job"))
        .collect();
    assert!(
        job_keys.is_empty(),
        "job keys in the shared recorder: {job_keys:?}"
    );

    // Job 1's own recorder still holds its two steps.
    assert_eq!(flight_steps(addr, 1.0), 2);
    assert_eq!(telemetry_steps(addr, 1.0), Some(2));
    server.shutdown();
}
