//! Well-known metric names shared across crates.
//!
//! Most instrumentation names its metrics inline (`crate.subsystem.name`,
//! DESIGN.md §8); the constants here are the ones that cross a crate
//! boundary — recorded in one layer and asserted on, gated, or exported by
//! another — so a rename cannot silently decouple producer and consumer.
//! The serving stack (`mpas-server`, `swe_serve`/`swe_load`) is the main
//! client: its cache layer records build costs and hit rates that the
//! concurrency tests and the CI perf gate read back by these exact names.

/// Counter: artifact-cache lookups that found a ready shared artifact.
pub const SERVER_CACHE_HIT: &str = "server.cache.hit";

/// Counter: artifact-cache lookups that had to build the artifact. The
/// concurrency acceptance test pins the mesh component of this to exactly
/// one build for N identical tenants (see [`SERVER_CACHE_MESH_MISS`]).
pub const SERVER_CACHE_MISS: &str = "server.cache.miss";

/// Counter: cache misses that built a shared mesh.
pub const SERVER_CACHE_MESH_MISS: &str = "server.cache.mesh.miss";

/// Counter: cache misses that built a shared coefficient table.
pub const SERVER_CACHE_COEFFS_MISS: &str = "server.cache.coeffs.miss";

/// Counter: cache misses that sampled a job's shared initial fields.
pub const SERVER_CACHE_INIT_MISS: &str = "server.cache.init.miss";

/// Gauge: wall-clock milliseconds the last shared-mesh build took
/// (cold-start cost of a mesh cache miss).
pub const MESH_BUILD_MS: &str = "server.cache.mesh.build_ms";

/// Gauge: wall-clock seconds `swe_run` spent on its mesh set-up
/// (generation, Lloyd sweeps and renumbering in one
/// `mpas_core::build_mesh` call), on every execution path.
pub const CORE_SETUP_MESH_SECONDS: &str = "core.setup.mesh_seconds";

/// Gauge: wall-clock milliseconds the last fused-coefficient build took
/// (cold-start cost of a coefficient cache miss).
pub const COEFFS_BUILD_MS: &str = "server.cache.coeffs.build_ms";

/// Gauge: wall-clock milliseconds the last initial-field sample took
/// (cold-start cost of an initial-fields cache miss).
pub const INIT_BUILD_MS: &str = "server.cache.init.build_ms";

/// Gauge: jobs currently waiting in worker queues (backpressure signal;
/// submissions beyond the configured capacity are rejected with 429).
pub const SERVER_QUEUE_DEPTH: &str = "server.queue.depth";

/// Counter: jobs accepted into the queue.
pub const SERVER_JOBS_SUBMITTED: &str = "server.jobs.submitted";

/// Counter: jobs that ran to completion.
pub const SERVER_JOBS_COMPLETED: &str = "server.jobs.completed";

/// Counter: submissions rejected with 429 because the queue was full.
pub const SERVER_JOBS_REJECTED: &str = "server.jobs.rejected";

/// Counter: jobs cancelled (queued or mid-run).
pub const SERVER_JOBS_CANCELLED: &str = "server.jobs.cancelled";

/// Counter: jobs that ended in an error.
pub const SERVER_JOBS_FAILED: &str = "server.jobs.failed";

/// Gauge: load-generator throughput in completed jobs per second
/// (`swe_load`; gated with a lower-is-worse [`crate::gate::Direction`]).
pub const SERVE_JOBS_PER_SEC: &str = "serve.jobs_per_sec";

/// Gauge: load-generator p95 time-to-first-step in milliseconds
/// (server-side submit → first completed step; higher-is-worse gate).
pub const SERVE_TTFS_P95_MS: &str = "serve.ttfs_p95_ms";

/// Gauge: load-generator p95 end-to-end job latency in milliseconds.
pub const SERVE_LATENCY_P95_MS: &str = "serve.latency_p95_ms";

/// Counter: flight-recorder dumps written (on demand or on an invariant
/// alert; the dump-on-anomaly test pins this to exactly one per alerted
/// metric).
pub const FLIGHT_DUMPS: &str = "telemetry.flight.dumps";

/// Histogram: seconds a job sat in a worker queue between submission and
/// pickup (windowed by the server, so live queue pressure is queryable).
pub const SERVER_QUEUE_WAIT_SECONDS: &str = "server.queue.wait_seconds";

/// Histogram: seconds spent serving one live-telemetry request or stream
/// tick (`/jobs/{id}/telemetry`, `/jobs/{id}/flight`, `/metrics/stream`);
/// the server registers a rolling window on it so live-endpoint latency
/// is itself live-observable.
pub const SERVER_LIVE_SECONDS: &str = "server.live.request_seconds";

/// Gauge: load-generator p95 latency in milliseconds of the live
/// `/jobs/{id}/telemetry` endpoint sampled during job polling
/// (`swe_load`'s streaming-latency column).
pub const SERVE_LIVE_P95_MS: &str = "serve.live_p95_ms";

/// Gauge: per-layer throughput gain of the vertical-batching SIMD tier
/// over its flat (k = 1) serial model — `(flat seconds/step · k) / (simd
/// seconds/step at k layers)`, both measured in the same `swe_run`
/// invocation. The committed perf gate fails below 2.0× at level 6, k=4
/// (DESIGN.md §14).
pub const KERNEL_SIMD_SPEEDUP_SERIAL: &str = "kernel.simd_speedup_serial";

/// Gauge: load-generator median latency in milliseconds of the live
/// `/jobs/{id}/telemetry` endpoint (p95 sibling:
/// [`SERVE_LIVE_P95_MS`]); recorded into the history store so serving
/// latency is queryable alongside solver metrics.
pub const SERVE_LIVE_P50_MS: &str = "serve.live_p50_ms";

/// Counter: completed jobs whose own recorder was flushed into the
/// server's history store (`--history-dir`); the history-route tests
/// poll it to know a flush landed.
pub const SERVER_HISTORY_RECORDED: &str = "server.history.recorded";
