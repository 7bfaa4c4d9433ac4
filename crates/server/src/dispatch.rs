//! Bounded worker pool over one shared FIFO.
//!
//! Submitted jobs wait in a single queue and every idle worker takes the
//! oldest one, so a long job never holds back a job another worker could
//! start. The number of *queued* jobs is capped; `submit` refuses beyond
//! the cap so the HTTP layer can answer 429 instead of buffering without
//! bound. `drain()` stops intake, lets every queued job finish, and joins
//! the workers — the graceful-shutdown path.

use mpas_patterns::dataflow::MeshCounts;
use mpas_telemetry::{names, Recorder};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A unit of queued work: the registered job id and when it was queued.
pub struct QueuedJob {
    /// Registry id.
    pub id: u64,
    /// Submission stamp on the recorder's clock ([`Recorder::now_s`]);
    /// the worker records the queued→pickup delta against
    /// [`names::SERVER_QUEUE_WAIT_SECONDS`] so queue pressure shows up in
    /// the live rolling windows, not just as a depth gauge.
    pub submitted_s: f64,
}

/// Analytic mesh counts for a level-`level` icosahedral mesh
/// (`10·4^L + 2` cells, `30·4^L` edges, `20·4^L` vertices) — exact for
/// the generator's meshes, and available without building one.
pub fn mesh_counts_for_level(level: u32) -> MeshCounts {
    let f = 4f64.powi(level as i32);
    MeshCounts {
        n_cells: 10.0 * f + 2.0,
        n_edges: 30.0 * f,
        n_vertices: 20.0 * f,
    }
}

struct PoolState {
    queue: VecDeque<QueuedJob>,
    draining: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    work_ready: Condvar,
    rec: Recorder,
}

/// The dispatcher: owns the queue and the worker threads.
pub struct Dispatcher {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    capacity: usize,
}

/// Why a submission was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue cap is reached; retry later (HTTP 429).
    Full,
    /// The pool is draining; no new work is accepted (HTTP 503).
    Draining,
}

impl Dispatcher {
    /// Start `n_workers` workers, admitting at most `capacity` queued jobs.
    /// Each worker runs `work(worker_index, job)` for every job it takes.
    pub fn start(
        n_workers: usize,
        capacity: usize,
        rec: Recorder,
        work: impl Fn(usize, QueuedJob) + Send + Sync + 'static,
    ) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                draining: false,
            }),
            work_ready: Condvar::new(),
            rec,
        });
        let work = Arc::new(work);
        let workers = (0..n_workers.max(1))
            .map(|w| {
                let shared = shared.clone();
                let work = work.clone();
                std::thread::Builder::new()
                    .name(format!("mpas-worker-{w}"))
                    .spawn(move || worker_loop(w, &shared, &*work))
                    .expect("spawn worker")
            })
            .collect();
        Dispatcher {
            shared,
            workers: Mutex::new(workers),
            capacity: capacity.max(1),
        }
    }

    /// Queue a job for the next idle worker, or say why it was refused.
    pub fn submit(&self, job: QueuedJob) -> Result<(), SubmitError> {
        let mut st = self.shared.state.lock().expect("pool poisoned");
        if st.draining {
            return Err(SubmitError::Draining);
        }
        if st.queue.len() >= self.capacity {
            self.shared.rec.add(names::SERVER_JOBS_REJECTED, 1);
            return Err(SubmitError::Full);
        }
        st.queue.push_back(job);
        self.shared.rec.add(names::SERVER_JOBS_SUBMITTED, 1);
        self.shared
            .rec
            .set_gauge(names::SERVER_QUEUE_DEPTH, st.queue.len() as f64);
        drop(st);
        self.shared.work_ready.notify_one();
        Ok(())
    }

    /// Jobs currently queued (not yet taken by a worker).
    pub fn queued(&self) -> usize {
        self.shared.state.lock().expect("pool poisoned").queue.len()
    }

    /// Stop intake, run every queued job to completion, join the workers.
    /// Idempotent; later calls return immediately.
    pub fn drain(&self) {
        {
            let mut st = self.shared.state.lock().expect("pool poisoned");
            st.draining = true;
        }
        self.shared.work_ready.notify_all();
        let handles: Vec<_> = self
            .workers
            .lock()
            .expect("workers poisoned")
            .drain(..)
            .collect();
        for h in handles {
            h.join().expect("worker panicked");
        }
    }
}

fn worker_loop(w: usize, shared: &Shared, work: &(impl Fn(usize, QueuedJob) + ?Sized)) {
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool poisoned");
            loop {
                if let Some(job) = st.queue.pop_front() {
                    shared
                        .rec
                        .set_gauge(names::SERVER_QUEUE_DEPTH, st.queue.len() as f64);
                    break Some(job);
                }
                if st.draining {
                    break None;
                }
                st = shared.work_ready.wait(st).expect("pool poisoned");
            }
        };
        let Some(job) = job else { return };
        shared.rec.record(
            names::SERVER_QUEUE_WAIT_SECONDS,
            (shared.rec.now_s() - job.submitted_s).max(0.0),
        );
        work(w, job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn qj(id: u64) -> QueuedJob {
        QueuedJob {
            id,
            submitted_s: 0.0,
        }
    }

    #[test]
    fn capacity_is_enforced_and_drain_runs_everything() {
        let done = Arc::new(AtomicUsize::new(0));
        let done2 = done.clone();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let gate2 = gate.clone();
        let d = Dispatcher::start(1, 2, Recorder::noop(), move |_, _| {
            let (lock, cv) = &*gate2;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            done2.fetch_add(1, Ordering::SeqCst);
        });
        // First job is picked up by the worker (blocked on the gate), two
        // more fill the queue; the fourth must be refused.
        d.submit(qj(0)).unwrap();
        while d.queued() > 0 {
            std::thread::yield_now();
        }
        for id in 1..3 {
            d.submit(qj(id)).unwrap();
        }
        assert_eq!(d.submit(qj(3)).unwrap_err(), SubmitError::Full);
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
        d.drain();
        assert_eq!(done.load(Ordering::SeqCst), 3);
        assert_eq!(d.submit(qj(4)).unwrap_err(), SubmitError::Draining);
    }

    #[test]
    fn mesh_counts_match_the_generator() {
        for level in [1u32, 3] {
            let mesh = mpas_mesh::generate(level, 0);
            let mc = mesh_counts_for_level(level);
            assert_eq!(mc.n_cells as usize, mesh.n_cells());
            assert_eq!(mc.n_edges as usize, mesh.n_edges());
            assert_eq!(mc.n_vertices as usize, mesh.n_vertices());
        }
    }
}
