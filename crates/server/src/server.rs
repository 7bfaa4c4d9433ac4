//! The service itself: TCP accept loop, request routing, job handlers,
//! and the graceful-drain shutdown protocol.

use crate::cache::ArtifactCache;
use crate::dispatch::{Dispatcher, QueuedJob, SubmitError};
use crate::http::{error_body, read_request, write_response, write_stream_head, Request};
use crate::job::JobRequest;
use crate::registry::{JobState, Registry};
use mpas_core::{JobError, JobProgress};
use mpas_telemetry::diagnose::diagnose;
use mpas_telemetry::store::{Agg, HistoryStore, MetricQuery, RunFilter, RunManifest};
use mpas_telemetry::{flight, names, Recorder};
use std::io::{self, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (read it back off
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Maximum jobs waiting in the queue before submissions get 429.
    pub queue_capacity: usize,
    /// Telemetry history directory. When set, every completed job's
    /// recorder is flushed into a [`HistoryStore`] there and the
    /// `/history/*` + `/jobs/{id}/diagnosis` routes come alive; `None`
    /// disables persistence (the routes 404).
    pub history_dir: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 64,
            history_dir: None,
        }
    }
}

struct Inner {
    cache: ArtifactCache,
    registry: Registry,
    rec: Recorder,
    draining: AtomicBool,
    /// Cross-run telemetry persistence (None without `--history-dir`).
    history: Option<HistoryStore>,
}

/// A running server. Dropping the handle does NOT stop the service; call
/// [`ServerHandle::shutdown`] for the drain protocol.
pub struct Server {
    inner: Arc<Inner>,
    dispatcher: Arc<Dispatcher>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

/// Alias kept short in signatures.
pub type ServerHandle = Server;

impl Server {
    /// Bind, spawn the worker pool and the accept loop, and return.
    pub fn start(config: ServerConfig, rec: Recorder) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;

        // Live windows over the serving-path metrics: queue pressure and
        // live-endpoint latency over the last 30 s, queryable via
        // `/metrics` and streamed by `/metrics/stream`.
        rec.rolling_window(names::SERVER_QUEUE_WAIT_SECONDS, 30.0);
        rec.rolling_window(names::SERVER_LIVE_SECONDS, 30.0);

        let history = match &config.history_dir {
            Some(dir) => Some(HistoryStore::open(dir)?),
            None => None,
        };
        let inner = Arc::new(Inner {
            cache: ArtifactCache::new(rec.clone()),
            registry: Registry::new(),
            rec: rec.clone(),
            draining: AtomicBool::new(false),
            history,
        });

        let worker_inner = inner.clone();
        let dispatcher = Arc::new(Dispatcher::start(
            config.workers,
            config.queue_capacity,
            rec.clone(),
            move |w, job| execute_job(&worker_inner, w, job),
        ));

        let accept_inner = inner.clone();
        let accept_dispatcher = dispatcher.clone();
        let accept_thread = std::thread::Builder::new()
            .name("mpas-accept".to_string())
            .spawn(move || accept_loop(listener, &accept_inner, &accept_dispatcher))
            .expect("spawn accept loop");

        Ok(Server {
            inner,
            dispatcher,
            addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (use this for port 0 binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful drain: stop accepting connections and submissions, run
    /// every queued job to completion, join workers and the accept loop.
    /// No accepted job is lost or run twice. Idempotent.
    pub fn shutdown(&mut self) {
        self.inner.draining.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            // The accept loop blocks in `accept()`: one loopback
            // connection wakes it to see the drain flag and return. A
            // refused one means a connection made after `POST /shutdown`
            // already ended the loop and closed the listener.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            if TcpStream::connect(wake).is_ok() {
                h.join().expect("accept loop panicked");
            }
        }
        self.dispatcher.drain();
    }

    /// Whether a drain has been requested (locally or via `POST
    /// /shutdown`). The process owning the handle should call
    /// [`Server::shutdown`] when this turns true.
    pub fn draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// The server's own telemetry sink (the one handed to
    /// [`Server::start`]); each job records into its registry entry's
    /// recorder instead.
    pub fn recorder(&self) -> &Recorder {
        &self.inner.rec
    }

    /// Direct registry access for tests and embedding.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// The history store, when the server was started with one.
    pub fn history(&self) -> Option<&HistoryStore> {
        self.inner.history.as_ref()
    }
}

/// Accept connections until a drain is requested, each on its own
/// handler thread. `accept()` blocks, so a request waits for no poll
/// interval; [`Server::shutdown`] wakes the loop with a loopback
/// connection, and a connection that arrives once the drain flag is set
/// is closed unanswered.
fn accept_loop(listener: TcpListener, inner: &Arc<Inner>, dispatcher: &Arc<Dispatcher>) {
    loop {
        let accepted = listener.accept();
        if inner.draining.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let inner = inner.clone();
                let dispatcher = dispatcher.clone();
                // Thread-per-connection: handlers are short (submission
                // parsing or a registry lookup); the heavy work lives on
                // the worker pool.
                let _ = std::thread::Builder::new()
                    .name("mpas-conn".to_string())
                    .spawn(move || {
                        let _ = stream.set_nodelay(true);
                        handle_connection(stream, &inner, &dispatcher);
                    });
            }
            // Back off on a real accept error (e.g. out of descriptors)
            // instead of spinning on it.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn handle_connection(mut stream: TcpStream, inner: &Arc<Inner>, dispatcher: &Arc<Dispatcher>) {
    let req = match read_request(&stream) {
        Ok(r) => r,
        Err(e) => {
            let _ = write_response(&mut stream, 400, &error_body(&e.to_string()));
            return;
        }
    };
    // The stream endpoint owns the socket for its lifetime (one NDJSON
    // line per interval until the client hangs up or the server drains),
    // so it bypasses the one-shot route()/write_response path.
    if req.method == "GET" && req.path == "/metrics/stream" {
        stream_metrics(stream, &req, inner);
        return;
    }
    let (status, body) = route(&req, inner, dispatcher);
    let _ = write_response(&mut stream, status, &body);
}

/// `GET /metrics/stream`: NDJSON, one snapshot line per `interval_ms`
/// (default 250, clamped to 10..=5000) for `count` lines (default 0 =
/// until the client disconnects or the server drains). `prefix=` filters
/// the metric sections the same way `/metrics?prefix=` does.
fn stream_metrics(mut stream: TcpStream, req: &Request, inner: &Arc<Inner>) {
    let interval_ms: u64 = req
        .query_param("interval_ms")
        .and_then(|v| v.parse().ok())
        .unwrap_or(250)
        .clamp(10, 5000);
    let count: usize = req
        .query_param("count")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let prefix = req.query_param("prefix").unwrap_or("").to_string();
    if write_stream_head(&mut stream).is_err() {
        return;
    }
    let mut seq = 0usize;
    loop {
        let line = {
            let _t = inner.rec.time(names::SERVER_LIVE_SECONDS);
            let snap = inner.rec.snapshot_prefix(&prefix);
            let draining = inner.draining.load(Ordering::SeqCst);
            format!(
                "{{\"seq\": {seq}, \"ts_s\": {:.6}, \"active_jobs\": {}, \
                 \"draining\": {draining}, \"metrics\": {}}}\n",
                inner.rec.now_s(),
                inner.registry.active(),
                snap.to_json().trim_end(),
            )
        };
        if stream.write_all(line.as_bytes()).is_err() || stream.flush().is_err() {
            return; // client hung up
        }
        seq += 1;
        if count > 0 && seq >= count {
            return;
        }
        if inner.draining.load(Ordering::SeqCst) {
            return; // last line already carried draining=true
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
}

fn route(req: &Request, inner: &Arc<Inner>, dispatcher: &Arc<Dispatcher>) -> (u16, String) {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            let draining = inner.draining.load(Ordering::SeqCst);
            (
                200,
                format!(
                    "{{\"ok\": true, \"draining\": {draining}, \"active_jobs\": {}}}\n",
                    inner.registry.active()
                ),
            )
        }
        ("GET", ["metrics"]) => {
            let prefix = req.query_param("prefix").unwrap_or("");
            (200, inner.rec.snapshot_prefix(prefix).to_json())
        }
        ("POST", ["jobs"]) => submit_job(&req.body, inner, dispatcher),
        ("GET", ["jobs", id, "telemetry"]) => with_id(id, |id| job_telemetry(id, inner)),
        ("GET", ["jobs", id, "flight"]) => with_id(id, |id| job_flight(id, inner)),
        ("GET", ["jobs", id, "diagnosis"]) => with_id(id, |id| job_diagnosis(id, req, inner)),
        ("GET", ["history", "runs"]) => history_runs(inner),
        ("GET", ["history", "query"]) => history_query(req, inner),
        ("GET", ["jobs", id]) => with_id(id, |id| job_status(id, inner)),
        ("GET", ["jobs", id, "result"]) => with_id(id, |id| job_result(id, inner)),
        ("POST", ["jobs", id, "cancel"]) => with_id(id, |id| cancel_job(id, inner)),
        ("POST", ["shutdown"]) => {
            // Acknowledge, then stop intake; the owner of the Server
            // handle performs the blocking drain.
            inner.draining.store(true, Ordering::SeqCst);
            (200, "{\"ok\": true, \"draining\": true}\n".to_string())
        }
        (_, ["jobs", ..])
        | (_, ["healthz"])
        | (_, ["metrics", ..])
        | (_, ["history", ..])
        | (_, ["shutdown"]) => (405, error_body("method not allowed")),
        _ => (404, error_body("no such route")),
    }
}

fn with_id(raw: &str, f: impl FnOnce(u64) -> (u16, String)) -> (u16, String) {
    match raw.parse::<u64>() {
        Ok(id) => f(id),
        Err(_) => (400, error_body("job id must be an integer")),
    }
}

fn submit_job(body: &str, inner: &Arc<Inner>, dispatcher: &Arc<Dispatcher>) -> (u16, String) {
    if inner.draining.load(Ordering::SeqCst) {
        return (503, error_body("server is draining"));
    }
    let request = match JobRequest::parse(body) {
        Ok(r) => r,
        Err(e) => return (400, error_body(&e)),
    };
    // Reserve the id first so the queue entry can carry it; the worker
    // that takes the job fills its index in.
    let (id, _cancel) = inner.registry.insert(request);
    match dispatcher.submit(QueuedJob {
        id,
        submitted_s: inner.rec.now_s(),
    }) {
        Ok(()) => (202, format!("{{\"id\": {id}, \"status\": \"queued\"}}\n")),
        Err(refusal) => {
            // Withdraw the registration: the job never entered a queue,
            // and a refused id answers 404 like an unknown one.
            inner.registry.remove(id);
            match refusal {
                SubmitError::Full => (429, error_body("queue full, retry later")),
                SubmitError::Draining => (503, error_body("server is draining")),
            }
        }
    }
}

fn job_status(id: u64, inner: &Arc<Inner>) -> (u16, String) {
    let doc = inner.registry.with(id, |e| {
        let progress = match &e.state {
            JobState::Running { step, total } => format!(", \"step\": {step}, \"total\": {total}"),
            _ => String::new(),
        };
        let ttfs = e
            .ttfs_ms
            .map(|t| format!(", \"ttfs_ms\": {t:.3}"))
            .unwrap_or_default();
        // A job names a worker only once one has taken it.
        let worker = e
            .worker
            .map(|w| format!(", \"worker\": {w}"))
            .unwrap_or_default();
        format!(
            "{{\"id\": {id}, \"status\": \"{}\"{worker}{progress}{ttfs}, \
             \"request\": {}}}\n",
            e.state.label(),
            e.request.to_json(),
        )
    });
    match doc {
        Some(body) => (200, body),
        None => (404, error_body("unknown job id")),
    }
}

fn job_result(id: u64, inner: &Arc<Inner>) -> (u16, String) {
    let state = inner.registry.with(id, |e| (e.state.clone(), e.ttfs_ms));
    match state {
        None => (404, error_body("unknown job id")),
        Some((JobState::Completed(r), ttfs_ms)) => (
            200,
            format!(
                "{{\"id\": {id}, \"status\": \"completed\", \"n_cells\": {}, \
                 \"steps\": {}, \"dt\": {:e}, \"run_secs\": {:e}, \
                 \"build_secs\": {:e}, \"ttfs_ms\": {:.3}, \"mass_drift\": {:e}, \
                 \"h_err_l2\": {:e}, \"state_hash\": \"{:016x}\"}}\n",
                r.n_cells,
                r.steps_done,
                r.dt,
                r.run_secs,
                r.build_secs,
                ttfs_ms.unwrap_or(r.ttfs_secs * 1e3),
                r.mass_drift,
                r.h_err_l2,
                r.state_hash,
            ),
        ),
        Some((JobState::Failed(msg), _)) => (
            200,
            format!(
                "{{\"id\": {id}, \"status\": \"failed\", \"error\": \"{}\"}}\n",
                mpas_telemetry::json_escape(&msg)
            ),
        ),
        Some((JobState::Cancelled { steps_done }, _)) => (
            200,
            format!("{{\"id\": {id}, \"status\": \"cancelled\", \"steps_done\": {steps_done}}}\n"),
        ),
        Some((other, _)) => (
            409,
            format!(
                "{{\"id\": {id}, \"status\": \"{}\", \"error\": \"not finished\"}}\n",
                other.label()
            ),
        ),
    }
}

/// `GET /jobs/{id}/telemetry`: live windowed snapshot of the job's own
/// recorder, served while the job is still running — no waiting for the
/// post-mortem export.
fn job_telemetry(id: u64, inner: &Arc<Inner>) -> (u16, String) {
    let _t = inner.rec.time(names::SERVER_LIVE_SECONDS);
    let Some((label, step, telemetry)) = inner.registry.with(id, |e| {
        let step = match &e.state {
            JobState::Running { step, .. } => Some(*step),
            _ => None,
        };
        (e.state.label(), step, e.telemetry.clone())
    }) else {
        return (404, error_body("unknown job id"));
    };
    let step_field = step.map(|s| format!(", \"step\": {s}")).unwrap_or_default();
    (
        200,
        format!(
            "{{\"id\": {id}, \"status\": \"{label}\"{step_field}, \"metrics\": {}}}\n",
            telemetry.snapshot().to_json().trim_end(),
        ),
    )
}

/// `GET /jobs/{id}/flight`: the job's own flight ring, exported as a
/// self-contained Chrome trace — openable in `chrome://tracing` /
/// Perfetto even while the job is still running.
fn job_flight(id: u64, inner: &Arc<Inner>) -> (u16, String) {
    let _t = inner.rec.time(names::SERVER_LIVE_SECONDS);
    let Some(telemetry) = inner.registry.with(id, |e| e.telemetry.clone()) else {
        return (404, error_body("unknown job id"));
    };
    (200, flight::to_chrome_trace(&telemetry.flight_events()))
}

/// `GET /history/runs`: manifests of every recorded run, oldest first.
fn history_runs(inner: &Arc<Inner>) -> (u16, String) {
    let Some(store) = &inner.history else {
        return (
            404,
            error_body("history not configured (start with --history-dir)"),
        );
    };
    match store.runs() {
        Ok(runs) => {
            let docs: Vec<String> = runs.iter().map(|m| m.to_json()).collect();
            (200, format!("{{\"runs\": [{}]}}\n", docs.join(", ")))
        }
        Err(e) => (503, error_body(&e.to_string())),
    }
}

/// `GET /history/query`: the store's [`MetricQuery`] over HTTP.
/// Parameters: `prefix` (metric-name prefix), `agg`
/// (count/sum/mean/p50/p95/max/min, default p50), `run` (exact run id),
/// `last` (most recent N runs), any manifest axis
/// ([`RunManifest::AXES`]) or `git` as `key=value`, and `start`+`end` for
/// a raw-sample index range. A whole-run row is answered from the run's
/// summary and a range row from its raw samples; each row says which
/// (`"level": "summary"` or `"raw"`).
fn history_query(req: &Request, inner: &Arc<Inner>) -> (u16, String) {
    let Some(store) = &inner.history else {
        return (
            404,
            error_body("history not configured (start with --history-dir)"),
        );
    };
    let agg = match req.query_param("agg") {
        None => Agg::P50,
        Some(a) => match Agg::parse(a) {
            Some(a) => a,
            None => {
                return (
                    400,
                    error_body("agg must be count/sum/mean/p50/p95/max/min"),
                )
            }
        },
    };
    let mut run_filter = RunFilter::default();
    if let Some(r) = req.query_param("run") {
        run_filter.run_ids.push(r.to_string());
    }
    if let Some(n) = req.query_param("last") {
        match n.parse::<usize>() {
            Ok(n) if n >= 1 => run_filter.last_n = Some(n),
            _ => return (400, error_body("last must be an integer >= 1")),
        }
    }
    for key in RunManifest::AXES.into_iter().chain(["git"]) {
        if let Some(v) = req.query_param(key) {
            run_filter.keys.push((key.to_string(), v.to_string()));
        }
    }
    let range = match (req.query_param("start"), req.query_param("end")) {
        (None, None) => None,
        (s, e) => {
            let parse = |v: Option<&str>, d: usize| v.map_or(Ok(d), str::parse::<usize>);
            match (parse(s, 0), parse(e, usize::MAX)) {
                (Ok(a), Ok(b)) if a < b => Some((a, b)),
                _ => return (400, error_body("start/end must form a valid sample range")),
            }
        }
    };
    let query = MetricQuery {
        name_prefix: req.query_param("prefix").unwrap_or("").to_string(),
        run_filter,
        range,
        agg,
    };
    match store.query(&query) {
        Ok(rows) => {
            let docs: Vec<String> = rows
                .iter()
                .map(|r| {
                    format!(
                        "{{\"run\": \"{}\", \"metric\": \"{}\", \"value\": {}, \"level\": \"{}\"}}",
                        mpas_telemetry::json_escape(&r.run_id),
                        mpas_telemetry::json_escape(&r.metric),
                        mpas_telemetry::json_num(r.value),
                        r.level,
                    )
                })
                .collect();
            (
                200,
                format!(
                    "{{\"agg\": \"{}\", \"rows\": [\n  {}\n]}}\n",
                    agg.as_str(),
                    docs.join(",\n  ")
                ),
            )
        }
        Err(e) => (503, error_body(&e.to_string())),
    }
}

/// `GET /jobs/{id}/diagnosis`: the cross-run attribution report for a
/// completed job's recorded history run, against the most recent
/// matching baselines (`?against=N`, default 5).
fn job_diagnosis(id: u64, req: &Request, inner: &Arc<Inner>) -> (u16, String) {
    let Some(store) = &inner.history else {
        return (
            404,
            error_body("history not configured (start with --history-dir)"),
        );
    };
    let Some(history_run) = inner.registry.with(id, |e| e.history_run.clone()) else {
        return (404, error_body("unknown job id"));
    };
    let Some(run_id) = history_run else {
        return (
            409,
            error_body("job has no recorded history run (not completed yet?)"),
        );
    };
    let last_n = match req.query_param("against") {
        None => 5,
        Some(n) => match n.trim_start_matches("last=").parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                return (
                    400,
                    error_body("against must be an integer >= 1 (or last=N)"),
                )
            }
        },
    };
    match diagnose(store, &run_id, last_n) {
        Ok(report) => (200, report.to_json()),
        Err(e) => (503, error_body(&e.to_string())),
    }
}

fn cancel_job(id: u64, inner: &Arc<Inner>) -> (u16, String) {
    match inner.registry.cancel(id) {
        Some(label) => {
            inner.rec.add(names::SERVER_JOBS_CANCELLED, 1);
            (
                200,
                format!("{{\"id\": {id}, \"status\": \"{label}\", \"cancel\": true}}\n"),
            )
        }
        None => (404, error_body("unknown job id")),
    }
}

/// Worker-side job execution on worker `w`: resolve shared artifacts
/// through the cache, run, and advance the registry state machine.
fn execute_job(inner: &Arc<Inner>, w: usize, job: QueuedJob) {
    let id = job.id;
    let Some((request, cancel, jrec)) = inner.registry.with(id, |e| {
        e.worker = Some(w);
        (e.request.clone(), e.cancel.clone(), e.telemetry.clone())
    }) else {
        return;
    };
    if cancel.load(Ordering::Relaxed) {
        inner
            .registry
            .set_state(id, JobState::Cancelled { steps_done: 0 });
        return;
    }
    let total = request.steps;
    inner
        .registry
        .set_state(id, JobState::Running { step: 0, total });

    // The job's shared artifacts: its mesh, coefficient table and initial
    // fields. A miss builds here, so the lookup is part of the job's build
    // phase (`build_secs`).
    let spec = request.spec();
    let lookup = Instant::now();
    let art = inner.cache.job_artifacts(request.mesh_key(), &spec);
    let lookup_secs = lookup.elapsed().as_secs_f64();

    // Run the simulation on the job's own recorder: every metric, span
    // and flight event it emits stays with the job's registry entry,
    // where `/jobs/{id}/telemetry` and `/jobs/{id}/flight` read it. A
    // rolling window on the per-step histogram makes the job's recent
    // step-time p50/p95 queryable mid-run.
    jrec.rolling_window("core.sim.step_seconds", 30.0);

    let registry = &inner.registry;
    let outcome = mpas_core::run_job(
        &spec,
        art.mesh,
        Some(art.coeffs),
        Some(art.init),
        &jrec,
        &cancel,
        |p: JobProgress| {
            registry.note_first_step(id);
            registry.set_state(
                id,
                JobState::Running {
                    step: p.step,
                    total: p.total,
                },
            );
        },
    );
    match outcome {
        Ok(mut result) => {
            result.build_secs += lookup_secs;
            inner.rec.add(names::SERVER_JOBS_COMPLETED, 1);
            inner.registry.set_state(id, JobState::Completed(result));
            flush_history(inner, id, &request, &jrec);
        }
        Err(JobError::Cancelled { steps_done }) => {
            inner
                .registry
                .set_state(id, JobState::Cancelled { steps_done });
        }
        Err(JobError::Invalid(msg)) => {
            inner.rec.add(names::SERVER_JOBS_FAILED, 1);
            inner.registry.set_state(id, JobState::Failed(msg));
        }
    }
}

/// Post-completion history flush: persist the job's recorder as it is,
/// so a server job's run rows are directly comparable with `swe_run
/// --history-dir` rows. Runs on the worker thread *after* the job
/// finished — nothing here touches the solver hot path — and a store
/// failure is logged, never fatal to the already-completed job.
fn flush_history(inner: &Arc<Inner>, id: u64, request: &JobRequest, jrec: &Recorder) {
    let Some(store) = &inner.history else {
        return;
    };
    match store.record_recorder(&request.manifest(), jrec) {
        Ok(m) => {
            inner.rec.add(names::SERVER_HISTORY_RECORDED, 1);
            inner
                .registry
                .with(id, |e| e.history_run = Some(m.run_id.clone()));
        }
        Err(e) => {
            eprintln!("mpas-server: history flush for job {id} failed: {e}");
        }
    }
}
