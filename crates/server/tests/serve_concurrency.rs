//! End-to-end service tests over real loopback HTTP: N concurrent tenants
//! submitting identical jobs share one mesh build and get bitwise-identical
//! results; a full queue answers 429 and keeps no trace of the refused
//! job; a drain loses no job.

use mpas_server::{Server, ServerConfig};
use mpas_telemetry::export::{parse_json, JsonValue};
use mpas_telemetry::{names, Recorder};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, JsonValue) {
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
    let payload = raw.split("\r\n\r\n").nth(1).unwrap_or("");
    let json = parse_json(payload).unwrap_or(JsonValue::Null);
    (status, json)
}

fn wait_terminal(addr: SocketAddr, id: f64, timeout: Duration) -> String {
    let deadline = Instant::now() + timeout;
    loop {
        let (status, doc) = http(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200, "status poll for job {id}");
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
fn concurrent_identical_jobs_share_one_mesh_and_agree_bitwise() {
    const TENANTS: usize = 32;
    let rec = Recorder::new();
    let mut server = Server::start(
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            ..Default::default()
        },
        rec.clone(),
    )
    .expect("start server");
    let addr = server.addr();

    // 32 tenants race identical level-5 submissions through real sockets.
    let body = "{\"level\": 5, \"steps\": 2, \"case\": \"5\"}";
    let handles: Vec<_> = (0..TENANTS)
        .map(|_| {
            std::thread::spawn(move || {
                let (status, doc) = http(addr, "POST", "/jobs", body);
                assert_eq!(status, 202);
                doc.get("id").and_then(|v| v.as_f64()).expect("job id")
            })
        })
        .collect();
    let ids: Vec<f64> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let mut hashes = Vec::new();
    for &id in &ids {
        assert_eq!(
            wait_terminal(addr, id, Duration::from_secs(120)),
            "completed"
        );
        let (status, doc) = http(addr, "GET", &format!("/jobs/{id}/result"), "");
        assert_eq!(status, 200);
        let hash = doc
            .get("state_hash")
            .and_then(|v| v.as_str())
            .expect("state hash")
            .to_string();
        assert!(doc.get("ttfs_ms").and_then(|v| v.as_f64()).unwrap() > 0.0);
        assert!(doc.get("build_secs").and_then(|v| v.as_f64()).unwrap() > 0.0);
        hashes.push(hash);
    }
    // Bitwise-identical results across every tenant.
    assert!(
        hashes.windows(2).all(|w| w[0] == w[1]),
        "tenant results diverged: {hashes:?}"
    );

    // The shared mesh, coefficient table and initial fields must have been
    // built once; every other lookup of the three is a hit.
    let snap = rec.snapshot();
    assert_eq!(snap.counter(names::SERVER_CACHE_MESH_MISS), Some(1));
    assert_eq!(snap.counter(names::SERVER_CACHE_COEFFS_MISS), Some(1));
    assert_eq!(snap.counter(names::SERVER_CACHE_INIT_MISS), Some(1));
    assert_eq!(
        snap.counter(names::SERVER_CACHE_HIT),
        Some(3 * TENANTS as u64 - 3)
    );
    assert!(snap.gauge(names::MESH_BUILD_MS).unwrap() > 0.0);
    assert!(snap.gauge(names::COEFFS_BUILD_MS).unwrap() > 0.0);
    assert!(snap.gauge(names::INIT_BUILD_MS).unwrap() > 0.0);
    assert_eq!(
        snap.counter(names::SERVER_JOBS_COMPLETED),
        Some(TENANTS as u64)
    );

    // Clean drain: nothing active, nothing lost, no double counting.
    server.shutdown();
    assert_eq!(server.registry().active(), 0);
    assert_eq!(server.registry().len(), TENANTS);
}

fn status_of(addr: SocketAddr, id: f64) -> String {
    let (_, doc) = http(addr, "GET", &format!("/jobs/{id}"), "");
    doc.get("status")
        .and_then(|s| s.as_str())
        .unwrap()
        .to_string()
}

#[test]
fn idle_worker_takes_the_next_job_while_another_runs() {
    let mut server = Server::start(
        ServerConfig {
            workers: 2,
            queue_capacity: 8,
            ..Default::default()
        },
        Recorder::new(),
    )
    .expect("start server");
    let addr = server.addr();
    let submit = |body: &str| {
        let (status, doc) = http(addr, "POST", "/jobs", body);
        assert_eq!(status, 202);
        doc.get("id").and_then(|v| v.as_f64()).expect("job id")
    };

    // Warm the level-4 mesh so no job below pays for its build.
    let warm = submit("{\"level\": 4, \"steps\": 1}");
    assert_eq!(
        wait_terminal(addr, warm, Duration::from_secs(60)),
        "completed"
    );

    // A is 64 layers of the same level and steps as B and C: one busy
    // worker, and the other must take B and then C.
    let a = submit("{\"level\": 4, \"steps\": 20, \"layers\": 64, \"progress_every\": 1}");
    let _b = submit("{\"level\": 4, \"steps\": 20}");
    let c = submit("{\"level\": 4, \"steps\": 20}");
    assert_eq!(wait_terminal(addr, c, Duration::from_secs(60)), "completed");
    assert_eq!(status_of(addr, a), "running", "C waited behind A");

    let (status, _) = http(addr, "POST", &format!("/jobs/{a}/cancel"), "");
    assert_eq!(status, 200);
    assert_eq!(wait_terminal(addr, a, Duration::from_secs(60)), "cancelled");
    server.shutdown();
}

#[test]
fn full_queue_answers_429_and_drain_completes_accepted_jobs() {
    let rec = Recorder::new();
    let mut server = Server::start(
        ServerConfig {
            workers: 1,
            queue_capacity: 2,
            ..Default::default()
        },
        rec.clone(),
    )
    .expect("start server");
    let addr = server.addr();

    // A slow job occupies the single worker; progress_every=1 keeps its
    // cancellation checks frequent.
    let slow = "{\"level\": 4, \"steps\": 400, \"progress_every\": 1}";
    let quick = "{\"level\": 3, \"steps\": 2}";
    let (status, doc) = http(addr, "POST", "/jobs", slow);
    assert_eq!(status, 202);
    let slow_id = doc.get("id").and_then(|v| v.as_f64()).unwrap();

    // Wait until the worker picked it up, then fill the queue exactly.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, d) = http(addr, "GET", &format!("/jobs/{slow_id}"), "");
        if d.get("status").and_then(|s| s.as_str()) == Some("running") {
            break;
        }
        assert!(Instant::now() < deadline, "slow job never started");
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut queued_ids = Vec::new();
    for _ in 0..2 {
        let (status, doc) = http(addr, "POST", "/jobs", quick);
        assert_eq!(status, 202);
        assert!(doc.get("worker").is_none(), "no worker has the job yet");
        queued_ids.push(doc.get("id").and_then(|v| v.as_f64()).unwrap());
    }
    // A queued job names no worker until one takes it.
    for &id in &queued_ids {
        let (_, d) = http(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(d.get("status").and_then(|s| s.as_str()), Some("queued"));
        assert!(d.get("worker").is_none(), "queued job {id} names a worker");
    }

    // Queue is at capacity: the next submission bounces with 429.
    let (status, doc) = http(addr, "POST", "/jobs", quick);
    assert_eq!(status, 429);
    assert!(doc.get("error").is_some());
    let snap = rec.snapshot();
    assert_eq!(snap.gauge(names::SERVER_QUEUE_DEPTH), Some(2.0));
    assert_eq!(snap.counter(names::SERVER_JOBS_REJECTED), Some(1));
    // The refused job took the next id and left no entry behind.
    let refused = queued_ids[1] + 1.0;
    let (status, _) = http(addr, "GET", &format!("/jobs/{refused}"), "");
    assert_eq!(status, 404);

    // Cancel the slow job; the queued quick jobs then run and complete.
    let (status, _) = http(addr, "POST", &format!("/jobs/{slow_id}/cancel"), "");
    assert_eq!(status, 200);
    assert_eq!(
        wait_terminal(addr, slow_id, Duration::from_secs(60)),
        "cancelled"
    );
    for &id in &queued_ids {
        assert_eq!(
            wait_terminal(addr, id, Duration::from_secs(60)),
            "completed"
        );
        let (_, d) = http(addr, "GET", &format!("/jobs/{id}"), "");
        let worker = d.get("worker").and_then(|w| w.as_f64()).expect("worker");
        assert!(worker < 1.0, "job {id} ran on worker {worker} of 1");
    }

    // Shutdown endpoint flips the drain flag; the handle drains cleanly.
    let (status, doc) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    assert_eq!(doc.get("draining").and_then(|v| v.as_bool()), Some(true));
    assert!(server.draining());
    server.shutdown();
    assert_eq!(server.registry().active(), 0);
}

#[test]
fn a_refused_submission_leaves_no_registry_entry() {
    let rec = Recorder::new();
    let mut server = Server::start(
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            ..Default::default()
        },
        rec.clone(),
    )
    .expect("start server");
    let addr = server.addr();
    let submit = |body: &str| {
        let (status, doc) = http(addr, "POST", "/jobs", body);
        (status, doc.get("id").and_then(|v| v.as_f64()))
    };

    // A long job on the one worker, then one queued behind it.
    let (status, long) = submit("{\"level\": 4, \"steps\": 400, \"progress_every\": 1}");
    assert_eq!(status, 202);
    let long = long.expect("job id");
    let deadline = Instant::now() + Duration::from_secs(30);
    while status_of(addr, long) != "running" {
        assert!(Instant::now() < deadline, "long job never started");
        std::thread::sleep(Duration::from_millis(10));
    }
    let (status, queued) = submit("{\"level\": 3, \"steps\": 2}");
    assert_eq!(status, 202);
    let queued = queued.expect("job id");

    // Refused three times: no id answers, and the registry holds the two
    // accepted jobs alone.
    for n in 1..=3 {
        let (status, id) = submit("{\"level\": 3, \"steps\": 2}");
        assert_eq!((status, id), (429, None), "submission {n}");
        let refused = queued + n as f64;
        let (status, _) = http(addr, "GET", &format!("/jobs/{refused}"), "");
        assert_eq!(status, 404, "refused id {refused}");
    }
    assert_eq!(server.registry().len(), 2);
    assert_eq!(rec.snapshot().counter(names::SERVER_JOBS_REJECTED), Some(3));

    let (status, _) = http(addr, "POST", &format!("/jobs/{long}/cancel"), "");
    assert_eq!(status, 200);
    assert_eq!(
        wait_terminal(addr, long, Duration::from_secs(60)),
        "cancelled"
    );
    assert_eq!(
        wait_terminal(addr, queued, Duration::from_secs(60)),
        "completed"
    );
    server.shutdown();
    assert_eq!(server.registry().len(), 2);
}
