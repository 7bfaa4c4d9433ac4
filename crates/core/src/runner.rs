//! Cancellable job runner: one simulation run as a unit of service work.
//!
//! `mpas-server` (and anything else that runs simulations on behalf of a
//! caller) needs more than [`crate::Simulation::run_steps`]: cooperative
//! cancellation, periodic progress callbacks, a time-to-first-step
//! measurement, and a digest of the final state so identical jobs can be
//! checked for bitwise-identical results without shipping whole fields.
//! [`run_job`] packages exactly that on top of the builder, reusing a
//! pre-built shared mesh and (optionally) a shared coefficient table and
//! shared initial fields.

use crate::simulation::{Executor, Simulation};
use mpas_mesh::Mesh;
use mpas_swe::{InitialFields, KernelBackend, KernelCoeffs, ModelConfig, State, TestCase};
use mpas_telemetry::digest::Fnv1a;
use mpas_telemetry::Recorder;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Everything that defines one simulation job (the mesh itself is handed
/// in separately so the caller controls sharing).
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Williamson scenario.
    pub test_case: TestCase,
    /// RK-4 steps to run.
    pub steps: usize,
    /// Execution engine.
    pub executor: Executor,
    /// Kernel tier to run (scalar or simd).
    pub backend: KernelBackend,
    /// Vertical layers to carry (k > 1 requires the simd backend and the
    /// serial executor; see [`crate::SimulationBuilder`]).
    pub layers: usize,
    /// Explicit dt in seconds (`None` picks the stable default).
    pub dt: Option<f64>,
    /// Passive tracers carried by the run (the catalog's tracer scenarios;
    /// see [`crate::setup::apply_case_config`]).
    pub n_tracers: usize,
    /// Hold the wind fixed (Williamson case 1).
    pub advection_only: bool,
    /// Invoke the progress callback every this many steps (0 = only on
    /// completion). Cancellation is checked at the same cadence.
    pub progress_every: usize,
}

impl JobSpec {
    /// A level-agnostic default: case 5, serial, simd, 10 steps.
    pub fn new(test_case: TestCase, steps: usize) -> Self {
        JobSpec {
            test_case,
            steps,
            executor: Executor::Serial,
            backend: KernelBackend::Simd,
            layers: 1,
            dt: None,
            n_tracers: 0,
            advection_only: false,
            progress_every: 0,
        }
    }

    /// The model config this spec implies.
    pub fn config(&self) -> ModelConfig {
        ModelConfig {
            kernel_backend: self.backend,
            n_layers: self.layers.max(1),
            n_tracers: self.n_tracers,
            advection_only: self.advection_only,
            ..Default::default()
        }
    }
}

/// Periodic progress report passed to the callback of [`run_job`].
#[derive(Debug, Clone, Copy)]
pub struct JobProgress {
    /// Steps completed so far.
    pub step: usize,
    /// Total steps requested.
    pub total: usize,
    /// Relative mass drift so far.
    pub mass_drift: f64,
}

/// What a completed job hands back.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Cells in the mesh the job ran on.
    pub n_cells: usize,
    /// Steps actually run (equals the request for completed jobs).
    pub steps_done: usize,
    /// Time-step size used, seconds.
    pub dt: f64,
    /// Wall-clock seconds from model build to last step.
    pub run_secs: f64,
    /// Wall-clock seconds before the first step: the model build, plus
    /// the artifact lookups of a caller that adds them (the server adds
    /// its cache lookups, where a cache miss builds).
    pub build_secs: f64,
    /// Wall-clock seconds from entry to the end of the first step — the
    /// serving-latency quantity (TTFS) the SLO gate watches.
    pub ttfs_secs: f64,
    /// Relative mass drift over the run.
    pub mass_drift: f64,
    /// l2 thickness error vs the analytic reference.
    pub h_err_l2: f64,
    /// FNV-1a digest of the final state bits (see [`state_hash`]; all `k`
    /// layers for layered jobs).
    pub state_hash: u64,
}

/// Why a job did not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The cancel flag was set; `steps_done` steps had run by then.
    Cancelled {
        /// Steps completed before cancellation was observed.
        steps_done: usize,
    },
    /// The spec could not be run (zero steps).
    Invalid(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Cancelled { steps_done } => {
                write!(f, "cancelled after {steps_done} steps")
            }
            JobError::Invalid(msg) => write!(f, "invalid job: {msg}"),
        }
    }
}

/// FNV-1a over the raw bit patterns of the prognostic fields, in index
/// order (`h`, then `u`, then each tracer-mass field). Bitwise-stable
/// across executors by construction — the repo's executors agree bitwise —
/// so equal hashes across tenants is the cheap proxy for "identical
/// results". Built on the shared [`Fnv1a`] digest, the same primitive
/// the server's cache keys use. A `k`-lane state hashes every lane of
/// every field ([`Simulation::state_digest`]).
pub fn state_hash(state: &State) -> u64 {
    let mut d = Fnv1a::new();
    d.write_f64_slice(&state.h);
    d.write_f64_slice(&state.u);
    for t in &state.tracers {
        d.write_f64_slice(t);
    }
    d.finish()
}

/// Run `spec` on a pre-built `mesh`, optionally reusing a shared
/// coefficient table and shared initial fields (built and sampled for this
/// mesh, `spec.config()`, `spec.test_case` and `spec.dt`). The cancel flag
/// is polled every progress chunk; `progress` fires after each chunk with
/// the running mass drift.
pub fn run_job(
    spec: &JobSpec,
    mesh: Arc<Mesh>,
    shared_coeffs: Option<Arc<KernelCoeffs>>,
    shared_init: Option<Arc<InitialFields>>,
    rec: &Recorder,
    cancel: &AtomicBool,
    mut progress: impl FnMut(JobProgress),
) -> Result<JobResult, JobError> {
    if spec.steps == 0 {
        return Err(JobError::Invalid("steps must be >= 1".to_string()));
    }
    if cancel.load(Ordering::Relaxed) {
        return Err(JobError::Cancelled { steps_done: 0 });
    }

    let t0 = Instant::now();
    let mut builder = Simulation::builder()
        .mesh(mesh)
        .test_case(spec.test_case)
        .executor(spec.executor)
        .config(spec.config())
        .recorder(rec.clone());
    if let Some(dt) = spec.dt {
        builder = builder.dt(dt);
    }
    if let Some(kc) = shared_coeffs {
        builder = builder.kernel_coeffs(kc);
    }
    if let Some(init) = shared_init {
        builder = builder.initial_fields(init);
    }
    let mut sim = builder.build();
    let build_secs = t0.elapsed().as_secs_f64();

    // First step alone: its latency is the TTFS the serving SLO watches
    // (model build + one step = what a tenant waits before any output).
    sim.run_steps(1);
    let ttfs_secs = t0.elapsed().as_secs_f64();
    let mut done = 1usize;

    let chunk = if spec.progress_every == 0 {
        spec.steps
    } else {
        spec.progress_every
    };
    loop {
        progress(JobProgress {
            step: done,
            total: spec.steps,
            mass_drift: sim.mass_drift(),
        });
        if done >= spec.steps {
            break;
        }
        if cancel.load(Ordering::Relaxed) {
            return Err(JobError::Cancelled { steps_done: done });
        }
        let n = chunk.min(spec.steps - done);
        sim.run_steps(n);
        done += n;
    }

    Ok(JobResult {
        n_cells: sim.mesh.n_cells(),
        steps_done: done,
        dt: sim.dt(),
        run_secs: t0.elapsed().as_secs_f64(),
        build_secs,
        ttfs_secs,
        mass_drift: sim.mass_drift(),
        h_err_l2: sim.h_error_norms().l2,
        state_hash: sim.state_digest(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup;
    use mpas_mesh::Reordering;

    fn spec(steps: usize) -> JobSpec {
        JobSpec::new(TestCase::Case5, steps)
    }

    #[test]
    fn run_job_matches_plain_simulation_bitwise() {
        let mesh = setup::build_mesh(3, 0, Reordering::None);
        let cancel = AtomicBool::new(false);
        let out = run_job(
            &spec(4),
            mesh.clone(),
            None,
            None,
            &Recorder::noop(),
            &cancel,
            |_| {},
        )
        .unwrap();
        let mut sim = Simulation::builder()
            .mesh(mesh)
            .test_case(TestCase::Case5)
            .build();
        sim.run_steps(4);
        assert_eq!(out.state_hash, state_hash(sim.state()));
        assert_eq!(out.steps_done, 4);
        assert!(out.ttfs_secs > 0.0 && out.ttfs_secs <= out.run_secs);
        assert!(out.build_secs > 0.0 && out.build_secs <= out.ttfs_secs);
    }

    #[test]
    fn shared_coeffs_do_not_change_the_bits() {
        let mesh = setup::build_mesh(3, 0, Reordering::None);
        let s = spec(3);
        let kc = Arc::new(KernelCoeffs::build(&mesh, &s.config()));
        let init = Arc::new(InitialFields::sample(
            &mesh,
            &s.config(),
            s.test_case,
            &kc,
            s.dt,
        ));
        let cancel = AtomicBool::new(false);
        let a = run_job(
            &s,
            mesh.clone(),
            Some(kc),
            Some(init),
            &Recorder::noop(),
            &cancel,
            |_| {},
        )
        .unwrap();
        let b = run_job(&s, mesh, None, None, &Recorder::noop(), &cancel, |_| {}).unwrap();
        assert_eq!(a.state_hash, b.state_hash);
        assert_eq!(a.mass_drift, b.mass_drift);
        assert_eq!(a.h_err_l2.to_bits(), b.h_err_l2.to_bits());
    }

    #[test]
    fn progress_fires_per_chunk_and_cancel_stops_the_run() {
        let mesh = setup::build_mesh(2, 0, Reordering::None);
        let mut s = spec(6);
        s.progress_every = 2;
        let cancel = AtomicBool::new(false);
        let mut seen = Vec::new();
        run_job(
            &s,
            mesh.clone(),
            None,
            None,
            &Recorder::noop(),
            &cancel,
            |p| seen.push(p.step),
        )
        .unwrap();
        // First step runs alone (TTFS), then 2-step chunks: 1, 3, 5, 6.
        assert_eq!(seen, vec![1, 3, 5, 6]);

        // Cancel as soon as the first progress report lands.
        let err = run_job(&s, mesh, None, None, &Recorder::noop(), &cancel, |_| {
            cancel.store(true, Ordering::Relaxed)
        })
        .unwrap_err();
        assert_eq!(err, JobError::Cancelled { steps_done: 1 });
    }

    #[test]
    fn invalid_specs_are_rejected_up_front() {
        let mesh = setup::build_mesh(1, 0, Reordering::None);
        let cancel = AtomicBool::new(false);
        let err = run_job(
            &spec(0),
            mesh,
            None,
            None,
            &Recorder::noop(),
            &cancel,
            |_| {},
        );
        assert!(matches!(err, Err(JobError::Invalid(_))));
    }

    #[test]
    fn state_hash_distinguishes_single_bit_flips() {
        let mut st = State {
            h: vec![1.0, 2.0],
            u: vec![3.0],
            tracers: vec![vec![4.0, 5.0]],
        };
        let h0 = state_hash(&st);
        st.u[0] = f64::from_bits(st.u[0].to_bits() ^ 1);
        let h1 = state_hash(&st);
        assert_ne!(h0, h1);
        // Tracer bits are part of the digest too.
        st.tracers[0][1] = f64::from_bits(st.tracers[0][1].to_bits() ^ 1);
        assert_ne!(h1, state_hash(&st));
    }
}
