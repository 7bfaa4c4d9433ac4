//! `swe-load` — closed-loop load generator for `swe-serve`.
//!
//! ```text
//! swe-load --addr 127.0.0.1:8080 --clients 8 --jobs 4 --level 5 --steps 2 \
//!          --bench-json target/serve_bench.json --gate BENCH_baseline.json
//! ```
//!
//! Spawns `--clients` tenant threads; each submits `--jobs` identical jobs
//! one at a time (submit, poll to a terminal state, fetch the result) so
//! offered load tracks service capacity. 429 backpressure answers are
//! retried with backoff and counted, never dropped. At the end it checks
//! every per-job `state_hash` is bitwise identical across tenants, prints
//! and optionally writes (`--bench-json`) the throughput/latency summary —
//! `serve.jobs_per_sec`, p50/p95 time-to-first-step and end-to-end job
//! latency (nearest-rank, by `HistogramSummary::from_samples`) — and
//! evaluates them against the committed baseline for this load's manifest
//! key (`--gate`, exit 1 on fail-severity violations or when the file
//! holds no baseline for the key; `--gate-strict` promotes warnings).
//! `--shutdown` drains the server afterwards.
//!
//! The live observability plane is exercised too: every poll also samples
//! `GET /jobs/{id}/telemetry` (validated JSON) and its latency is reported
//! as the `live` column and the `serve.live_p95_ms` gauge. `--stream-out
//! FILE` runs a concurrent observer that captures `--stream-lines` lines
//! of `GET /metrics/stream` during the load (validated with
//! `export::validate_ndjson`, first offending line reported); `--flight-out
//! FILE` saves one job's `GET /jobs/{id}/flight` Chrome trace, which must
//! hold at least one of the job's `core.step` slices.
//!
//! Exit codes: 0 ok, 1 gate violation, 2 job failure, divergent results,
//! or invalid live-endpoint output.

use mpas_server::http::{request, stream_lines};
use mpas_server::JobRequest;
use mpas_telemetry::export::{parse_json, JsonValue};
use mpas_telemetry::store::{HistoryStore, RunManifest};
use mpas_telemetry::{json_num, names, HistogramSummary, Recorder};
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::time::{Duration, Instant};

struct Args {
    addr: String,
    clients: usize,
    jobs: usize,
    level: u32,
    steps: usize,
    case: String,
    executor: String,
    bench_json: Option<PathBuf>,
    gate: Option<PathBuf>,
    gate_strict: bool,
    history_dir: Option<PathBuf>,
    shutdown: bool,
    stream_out: Option<PathBuf>,
    stream_lines: usize,
    flight_out: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: String::new(),
        clients: 8,
        jobs: 4,
        level: 5,
        steps: 2,
        case: "5".to_string(),
        executor: "serial".to_string(),
        bench_json: None,
        gate: None,
        gate_strict: false,
        history_dir: None,
        shutdown: false,
        stream_out: None,
        stream_lines: 5,
        flight_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| panic!("missing value for {a}"));
        match a.as_str() {
            "--addr" => args.addr = val(),
            "--clients" => args.clients = val().parse().expect("clients"),
            "--jobs" => args.jobs = val().parse().expect("jobs"),
            "--level" => args.level = val().parse().expect("level"),
            "--steps" => args.steps = val().parse().expect("steps"),
            "--case" => args.case = val(),
            "--executor" => args.executor = val(),
            "--bench-json" => args.bench_json = Some(PathBuf::from(val())),
            "--gate" => args.gate = Some(PathBuf::from(val())),
            "--gate-strict" => args.gate_strict = true,
            "--history-dir" => args.history_dir = Some(PathBuf::from(val())),
            "--shutdown" => args.shutdown = true,
            "--stream-out" => args.stream_out = Some(PathBuf::from(val())),
            "--stream-lines" => args.stream_lines = val().parse().expect("stream-lines"),
            "--flight-out" => args.flight_out = Some(PathBuf::from(val())),
            "--help" | "-h" => {
                eprintln!(
                    "usage: swe-load --addr HOST:PORT [--clients N] [--jobs M] \
                     [--level L] [--steps S] [--case 2|5|6] [--executor SPEC] \
                     [--bench-json FILE] [--gate BASELINE.json] \
                     [--gate-strict] [--history-dir DIR] [--shutdown] \
                     [--stream-out FILE] [--stream-lines N] [--flight-out FILE]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(!args.addr.is_empty(), "--addr is required");
    args
}

/// One completed job as observed by a tenant.
struct Sample {
    id: u64,
    ttfs_ms: f64,
    latency_ms: f64,
    state_hash: String,
    retries_429: usize,
    /// Latencies of the `GET /jobs/{id}/telemetry` probes taken during
    /// polling (empty when the job finished before the first poll).
    live_ms: Vec<f64>,
}

fn json_str(doc: &JsonValue, key: &str) -> Option<String> {
    doc.get(key).and_then(|v| v.as_str()).map(str::to_string)
}

fn run_one_job(addr: SocketAddr, body: &str) -> Result<Sample, String> {
    let t0 = Instant::now();
    let mut retries_429 = 0usize;
    let id = loop {
        let (status, payload) =
            request(addr, "POST", "/jobs", body).map_err(|e| format!("submit: {e}"))?;
        match status {
            202 => {
                let doc = parse_json(&payload).map_err(|at| format!("submit json @{at}"))?;
                break doc
                    .get("id")
                    .and_then(|v| v.as_f64())
                    .ok_or("submit response lacks id")? as u64;
            }
            429 => {
                retries_429 += 1;
                std::thread::sleep(Duration::from_millis(25));
            }
            other => return Err(format!("submit rejected: {other} {payload}")),
        }
    };
    let mut live_ms = Vec::new();
    loop {
        let (status, payload) =
            request(addr, "GET", &format!("/jobs/{id}"), "").map_err(|e| format!("poll: {e}"))?;
        if status != 200 {
            return Err(format!("poll {id}: {status}"));
        }
        let doc = parse_json(&payload).map_err(|at| format!("poll json @{at}"))?;
        match json_str(&doc, "status").as_deref() {
            Some("completed") => break,
            Some("failed") | Some("cancelled") => return Err(format!("job {id} ended {payload}")),
            _ => {
                // Sample the live-telemetry endpoint while the job is in
                // flight: its latency is the `live` column, and its body
                // must always be valid JSON.
                let t = Instant::now();
                let (status, payload) = request(addr, "GET", &format!("/jobs/{id}/telemetry"), "")
                    .map_err(|e| format!("telemetry: {e}"))?;
                if status != 200 {
                    return Err(format!("telemetry {id}: {status}"));
                }
                live_ms.push(t.elapsed().as_secs_f64() * 1e3);
                mpas_telemetry::export::validate_json(&payload)
                    .map_err(|at| format!("telemetry {id}: invalid JSON at byte {at}"))?;
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (status, payload) = request(addr, "GET", &format!("/jobs/{id}/result"), "")
        .map_err(|e| format!("result: {e}"))?;
    if status != 200 {
        return Err(format!("result {id}: {status}"));
    }
    let doc = parse_json(&payload).map_err(|at| format!("result json @{at}"))?;
    Ok(Sample {
        id,
        ttfs_ms: doc
            .get("ttfs_ms")
            .and_then(|v| v.as_f64())
            .ok_or("result lacks ttfs_ms")?,
        latency_ms,
        state_hash: json_str(&doc, "state_hash").ok_or("result lacks state_hash")?,
        retries_429,
        live_ms,
    })
}

/// Fetch one completed job's flight trace and check it is a Chrome trace
/// that holds the job's steps: a trace with no `core.step` slice shows
/// nothing of the job.
fn flight_fetch(addr: SocketAddr, samples: &[Sample]) -> Result<String, String> {
    let id = samples
        .first()
        .map(|s| s.id)
        .ok_or("no completed job to fetch a flight trace for")?;
    let (status, payload) = request(addr, "GET", &format!("/jobs/{id}/flight"), "")
        .map_err(|e| format!("flight: {e}"))?;
    if status != 200 {
        return Err(format!("flight {id}: {status}"));
    }
    let doc =
        parse_json(&payload).map_err(|at| format!("flight {id}: invalid JSON at byte {at}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| format!("flight {id}: not a Chrome trace"))?;
    let is_step = |e: &JsonValue| {
        let field = |k: &str| e.get(k).and_then(JsonValue::as_str);
        field("ph") == Some("X") && field("name") == Some("core.step")
    };
    if !events.iter().any(is_step) {
        return Err(format!("flight {id}: no core.step slice"));
    }
    Ok(payload)
}

fn main() {
    let args = parse_args();
    let addr: SocketAddr = args
        .addr
        .to_socket_addrs()
        .unwrap_or_else(|e| panic!("resolve {}: {e}", args.addr))
        .next()
        .expect("resolved address");
    let body = format!(
        "{{\"case\": \"{}\", \"level\": {}, \"steps\": {}, \"executor\": \"{}\", \
         \"progress_every\": 1}}",
        args.case, args.level, args.steps, args.executor
    );
    let job = JobRequest::parse(&body).unwrap_or_else(|e| panic!("bad job request: {e}"));
    // The load's identity, for `--history-dir` and `--gate` alike: a load
    // run matches only load runs of the same jobs and client count.
    let manifest = RunManifest {
        backend: "serve".to_string(),
        ranks: args.clients,
        ..job.manifest()
    };
    println!(
        "swe-load: {} clients x {} jobs (case {}, level {}, {} steps) against {addr}",
        args.clients, args.jobs, args.case, args.level, args.steps
    );
    // Concurrent stream observer: captures NDJSON snapshot lines off
    // `/metrics/stream` while the load is in flight, so the stream is
    // exercised against a busy server, not an idle one.
    let stream_observer = args.stream_out.as_ref().map(|path| {
        let path = path.clone();
        let n = args.stream_lines.max(1);
        std::thread::spawn(move || -> Result<usize, String> {
            let lines = stream_lines(
                addr,
                &format!("/metrics/stream?interval_ms=100&count={n}"),
                n,
            )
            .map_err(|e| format!("stream: {e}"))?;
            let body = lines.join("\n") + "\n";
            let count = mpas_telemetry::export::validate_ndjson(&body)
                .map_err(|(line, at)| format!("stream: invalid JSON on line {line}, byte {at}"))?;
            std::fs::write(&path, &body).map_err(|e| format!("write {}: {e}", path.display()))?;
            println!("wrote {count} stream snapshot lines to {}", path.display());
            Ok(count)
        })
    });

    let t0 = Instant::now();
    let handles: Vec<_> = (0..args.clients)
        .map(|_| {
            let body = body.clone();
            let jobs = args.jobs;
            std::thread::spawn(move || {
                (0..jobs)
                    .map(|_| run_one_job(addr, &body))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut samples = Vec::new();
    let mut failures = Vec::new();
    for h in handles {
        for outcome in h.join().expect("client thread panicked") {
            match outcome {
                Ok(s) => samples.push(s),
                Err(e) => failures.push(e),
            }
        }
    }
    let wall_secs = t0.elapsed().as_secs_f64();

    let mut live_failures = Vec::new();
    if let Some(h) = stream_observer {
        if let Err(e) = h.join().expect("stream observer panicked") {
            live_failures.push(e);
        }
    }
    // One job's flight-recorder dump: a job's recorder lives as long as
    // its registry entry, so any observed id yields its Chrome trace.
    if let Some(path) = &args.flight_out {
        match flight_fetch(addr, &samples) {
            Ok(trace) => {
                std::fs::write(path, &trace).expect("write flight trace");
                println!("wrote flight trace to {}", path.display());
            }
            Err(e) => live_failures.push(e),
        }
    }

    if args.shutdown {
        let _ = request(addr, "POST", "/shutdown", "");
    }
    for f in &failures {
        eprintln!("FAILED: {f}");
    }
    let hashes: Vec<&str> = samples.iter().map(|s| s.state_hash.as_str()).collect();
    let identical = hashes.windows(2).all(|w| w[0] == w[1]);
    if !identical {
        eprintln!("DIVERGED: tenants disagree on the final state: {hashes:?}");
    }

    let completed = samples.len();
    let retries: usize = samples.iter().map(|s| s.retries_429).sum();
    let jobs_per_sec = completed as f64 / wall_secs.max(1e-9);
    let summary = |v: Vec<f64>| {
        let h = HistogramSummary::from_samples(&v);
        (h.p50, h.p95, h.count)
    };
    let (ttfs_p50, ttfs_p95, _) = summary(samples.iter().map(|s| s.ttfs_ms).collect());
    let (lat_p50, lat_p95, _) = summary(samples.iter().map(|s| s.latency_ms).collect());
    let live: Vec<f64> = samples.iter().flat_map(|s| s.live_ms.clone()).collect();
    let (live_p50, live_p95, live_probes) = summary(live);
    println!(
        "completed {completed}/{} jobs in {wall_secs:.3} s ({jobs_per_sec:.2} jobs/s, \
         {retries} backpressure retries)",
        args.clients * args.jobs
    );
    println!("ttfs    p50 {ttfs_p50:.1} ms, p95 {ttfs_p95:.1} ms");
    println!("latency p50 {lat_p50:.1} ms, p95 {lat_p95:.1} ms");
    println!("live    p50 {live_p50:.1} ms, p95 {live_p95:.1} ms ({live_probes} telemetry probes)");

    // The load's summary under the shared serve.* names: what the bench
    // record and the history store carry, and what the gate reads.
    let serve = [
        (names::SERVE_JOBS_PER_SEC, jobs_per_sec),
        ("serve.ttfs_p50_ms", ttfs_p50),
        (names::SERVE_TTFS_P95_MS, ttfs_p95),
        ("serve.latency_p50_ms", lat_p50),
        (names::SERVE_LATENCY_P95_MS, lat_p95),
        (names::SERVE_LIVE_P50_MS, live_p50),
        (names::SERVE_LIVE_P95_MS, live_p95),
    ];
    if let Some(path) = &args.bench_json {
        let mut json = format!(
            "{{\n  \"clients\": {},\n  \"jobs_per_client\": {},\n  \"case\": \"{}\",\n  \
             \"level\": {},\n  \"steps\": {},\n  \"executor\": \"{}\",\n  \
             \"completed\": {completed},\n  \"failed\": {},\n  \
             \"retries_429\": {retries},\n  \"wall_seconds\": {wall_secs:.6},\n  \
             \"identical_results\": {identical},\n  \"state_hash\": \"{}\",\n  \
             \"live_probes\": {live_probes}",
            args.clients,
            args.jobs,
            args.case,
            args.level,
            args.steps,
            args.executor,
            failures.len(),
            hashes.first().copied().unwrap_or(""),
        );
        for (name, v) in serve {
            json.push_str(&format!(",\n  \"{name}\": {}", json_num(v)));
        }
        json.push_str("\n}\n");
        mpas_telemetry::export::validate_json(&json)
            .unwrap_or_else(|at| panic!("bench record is not valid JSON at byte {at}"));
        std::fs::write(path, &json).expect("write bench json");
        println!("wrote serve bench record to {}", path.display());
    }

    let rec = Recorder::new();
    for (name, v) in serve {
        rec.set_gauge(name, v);
    }
    if let Some(dir) = &args.history_dir {
        let store = HistoryStore::open(dir).expect("open history store");
        let recorded = store
            .record_recorder(&manifest, &rec)
            .expect("record load run");
        println!(
            "history: recorded load run {} into {}",
            recorded.run_id,
            dir.display()
        );
    }

    let mut exit_code = 0;
    if let Some(path) = &args.gate {
        let key = manifest.baseline_key();
        if !mpas_bench::gate(path, &key, &rec.snapshot(), args.gate_strict) {
            exit_code = 1;
        }
    }
    for f in &live_failures {
        eprintln!("LIVE-ENDPOINT FAILED: {f}");
    }
    if !failures.is_empty() || !identical || !live_failures.is_empty() {
        exit_code = 2;
    }
    if exit_code != 0 {
        std::process::exit(exit_code);
    }
}
