#![warn(missing_docs)]
//! `mpas-server` — a multi-tenant ensemble simulation service.
//!
//! Long-running job server over the whole reproduction stack: tenants POST
//! simulation jobs (case, mesh level, steps, executor, kernel tier) to an
//! HTTP/1.1+JSON API and poll for status and results. The expensive
//! immutable artifacts are built once per key in a shared
//! [`cache::ArtifactCache`] and handed to every concurrent tenant as
//! `Arc`s, so an N-member ensemble on one grid pays one mesh build:
//!
//! * meshes, keyed by [`MeshKey`] (level, lloyd, reorder), counted as
//!   `server.cache.mesh.{miss,build_ms}`;
//! * coefficient tables, keyed by [`CoeffsKey`] (mesh key +
//!   [`config_digest`]), counted as `server.cache.coeffs.{miss,build_ms}`;
//! * the initial fields a job starts from ([`mpas_swe::InitialFields`]),
//!   keyed by [`InitKey`] (mesh key, case + alpha bits, config digest, dt
//!   bits), counted as `server.cache.init.{miss,build_ms}`.
//!
//! Every lookup that finds its artifact counts as `server.cache.hit`.
//! Entries live as long as the server. A completed job's result reports
//! `run_secs` (model build to last step), `build_secs` (cache lookups plus
//! model build, before the first step) and `ttfs_ms`. Jobs wait in one
//! bounded FIFO that every idle worker pulls from ([`dispatch`]).
//!
//! Everything is hand-rolled on `std::net` — the repo's no-new-heavy-deps
//! rule extends to serving. JSON in/out goes through `mpas-telemetry`'s
//! dependency-free parser and string building.
//!
//! API surface (see DESIGN.md §11 for the lifecycle state machine):
//!
//! | route                  | verb | purpose                                 |
//! |------------------------|------|-----------------------------------------|
//! | `/jobs`                | POST | submit a job (202, 429 on full queue)   |
//! | `/jobs/{id}`           | GET  | lifecycle status + progress             |
//! | `/jobs/{id}/result`    | GET  | result document (409 until finished)    |
//! | `/jobs/{id}/cancel`    | POST | cooperative cancellation                |
//! | `/jobs/{id}/telemetry` | GET  | the job's recorder, valid mid-run       |
//! | `/jobs/{id}/flight`    | GET  | the job's flight ring as a Chrome trace |
//! | `/healthz`             | GET  | liveness + drain state                  |
//! | `/metrics`             | GET  | server's own metrics (`?prefix=`)       |
//! | `/metrics/stream`      | GET  | chunked NDJSON snapshot stream          |
//! | `/shutdown`            | POST | request graceful drain                  |
//!
//! The three live routes (telemetry/flight/stream) are the server half of
//! the DESIGN.md §13 observability plane. Each job records into its own
//! [`mpas_telemetry::Recorder`], held by its registry entry, with a
//! rolling window on its step time: mid-run queries see the job's
//! windowed summaries and flight trace, and no other job's. The shared
//! recorder handed to [`Server::start`] holds only the server's own
//! metrics, so `/metrics` does not grow with the number of jobs served,
//! and a job's telemetry lives exactly as long as its registry entry.

pub mod cache;
pub mod dispatch;
pub mod http;
pub mod job;
pub mod registry;
pub mod server;

pub use cache::{config_digest, ArtifactCache, CoeffsKey, InitKey, JobArtifacts, MeshKey};
pub use dispatch::{mesh_counts_for_level, Dispatcher, QueuedJob, SubmitError};
pub use job::JobRequest;
pub use registry::{JobEntry, JobState, Registry};
pub use server::{Server, ServerConfig, ServerHandle};
