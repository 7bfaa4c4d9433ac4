//! The job registry: every submitted job's lifecycle, status, and result.
//!
//! Lifecycle state machine (DESIGN.md §11):
//!
//! ```text
//! queued ──▶ running ──▶ completed
//!   │           │
//!   │           ├──▶ cancelled   (flag observed between progress chunks)
//!   │           └──▶ failed      (invalid spec)
//!   └──▶ cancelled               (flag observed before the run started)
//! ```
//!
//! Cancellation is cooperative: `cancel()` sets the job's shared flag and
//! the owning worker advances the state the next time it looks. States
//! only move forward; a completed job cannot be cancelled.

use crate::job::JobRequest;
use mpas_core::JobResult;
use mpas_telemetry::Recorder;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone)]
pub enum JobState {
    /// Accepted, waiting in the queue.
    Queued,
    /// A worker is executing it; `step`/`total` track progress.
    Running {
        /// Steps completed so far.
        step: usize,
        /// Steps requested.
        total: usize,
    },
    /// Finished; the result is available.
    Completed(JobResult),
    /// Cancelled before or during the run.
    Cancelled {
        /// Steps completed before the flag was observed.
        steps_done: usize,
    },
    /// Rejected by the runner.
    Failed(String),
}

impl JobState {
    /// The status label reported over the API.
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running { .. } => "running",
            JobState::Completed(_) => "completed",
            JobState::Cancelled { .. } => "cancelled",
            JobState::Failed(_) => "failed",
        }
    }

    /// Whether the job can no longer change state.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Completed(_) | JobState::Cancelled { .. } | JobState::Failed(_)
        )
    }
}

/// One registered job.
pub struct JobEntry {
    /// The request as submitted.
    pub request: JobRequest,
    /// Current lifecycle state.
    pub state: JobState,
    /// Cooperative-cancellation flag shared with the worker.
    pub cancel: Arc<AtomicBool>,
    /// Submission instant (queueing delay + TTFS measurements hang off it).
    pub submitted: Instant,
    /// Index of the worker that took the job; `None` while it waits.
    pub worker: Option<usize>,
    /// Server-side milliseconds from submission to the end of the first
    /// step (the SLO'd time-to-first-step); `None` until the first
    /// progress report.
    pub ttfs_ms: Option<f64>,
    /// The job's own recorder: everything its run records, what the live
    /// `/jobs/{id}/telemetry` and `/jobs/{id}/flight` endpoints read and
    /// the history flush stores. It lives exactly as long as this entry.
    pub telemetry: Recorder,
    /// History-store run id assigned when the job's telemetry was
    /// flushed post-completion (`None` until then, or when the server
    /// runs without `--history-dir`); what `GET /jobs/{id}/diagnosis`
    /// resolves through.
    pub history_run: Option<String>,
}

/// Thread-safe id-keyed job table.
#[derive(Default)]
pub struct Registry {
    jobs: Mutex<HashMap<u64, JobEntry>>,
    next_id: AtomicU64,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a freshly accepted job as queued; returns its id.
    pub fn insert(&self, request: JobRequest) -> (u64, Arc<AtomicBool>) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let cancel = Arc::new(AtomicBool::new(false));
        let entry = JobEntry {
            request,
            state: JobState::Queued,
            cancel: cancel.clone(),
            submitted: Instant::now(),
            worker: None,
            ttfs_ms: None,
            telemetry: Recorder::new(),
            history_run: None,
        };
        self.jobs
            .lock()
            .expect("registry poisoned")
            .insert(id, entry);
        (id, cancel)
    }

    /// Drop the entry for `id` (a submission the queue refused), with its
    /// recorder.
    pub fn remove(&self, id: u64) {
        self.jobs.lock().expect("registry poisoned").remove(&id);
    }

    /// Run `f` on the entry for `id`, if it exists.
    pub fn with<R>(&self, id: u64, f: impl FnOnce(&mut JobEntry) -> R) -> Option<R> {
        self.jobs
            .lock()
            .expect("registry poisoned")
            .get_mut(&id)
            .map(f)
    }

    /// Advance the state of `id` (no-op on terminal states).
    pub fn set_state(&self, id: u64, state: JobState) {
        self.with(id, |e| {
            if !e.state.is_terminal() {
                e.state = state;
            }
        });
    }

    /// Record the server-side TTFS once (first progress report wins).
    pub fn note_first_step(&self, id: u64) {
        self.with(id, |e| {
            if e.ttfs_ms.is_none() {
                e.ttfs_ms = Some(e.submitted.elapsed().as_secs_f64() * 1e3);
            }
        });
    }

    /// Request cancellation. Returns the status label after the request,
    /// or `None` for an unknown id. Queued/running jobs get their flag
    /// set; the worker moves them to `cancelled` at its next check.
    pub fn cancel(&self, id: u64) -> Option<&'static str> {
        self.with(id, |e| {
            if !e.state.is_terminal() {
                e.cancel.store(true, Ordering::Relaxed);
            }
            e.state.label()
        })
    }

    /// Ids currently registered (test/diagnostic helper).
    pub fn len(&self) -> usize {
        self.jobs.lock().expect("registry poisoned").len()
    }

    /// Whether no jobs have been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Count of jobs in non-terminal states.
    pub fn active(&self) -> usize {
        self.jobs
            .lock()
            .expect("registry poisoned")
            .values()
            .filter(|e| !e.state.is_terminal())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> JobRequest {
        JobRequest::parse("{}").unwrap()
    }

    #[test]
    fn ids_are_unique_and_monotonic() {
        let reg = Registry::new();
        let (a, _) = reg.insert(request());
        let (b, _) = reg.insert(request());
        assert!(b > a);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.active(), 2);
    }

    #[test]
    fn terminal_states_are_sticky() {
        let reg = Registry::new();
        let (id, _) = reg.insert(request());
        reg.set_state(id, JobState::Cancelled { steps_done: 0 });
        reg.set_state(id, JobState::Running { step: 1, total: 2 });
        assert_eq!(reg.with(id, |e| e.state.label()), Some("cancelled"));
        assert_eq!(reg.active(), 0);
    }

    #[test]
    fn cancel_sets_the_shared_flag() {
        let reg = Registry::new();
        let (id, flag) = reg.insert(request());
        assert_eq!(reg.cancel(id), Some("queued"));
        assert!(flag.load(Ordering::Relaxed));
        assert_eq!(reg.cancel(9999), None);
    }

    #[test]
    fn ttfs_is_recorded_once() {
        let reg = Registry::new();
        let (id, _) = reg.insert(request());
        reg.note_first_step(id);
        let first = reg.with(id, |e| e.ttfs_ms).flatten().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
        reg.note_first_step(id);
        assert_eq!(reg.with(id, |e| e.ttfs_ms).flatten().unwrap(), first);
    }
}
