//! Real (measured) threaded executors.
//!
//! [`ParallelModel`] runs the exact serial kernel bodies over chunked output
//! ranges on a persistent thread team — the OpenMP analog: one parallel
//! region per kernel, regularity-aware loops, no data races by construction
//! (each chunk owns a disjoint `&mut` window of the output field).
//!
//! [`ParallelModel::with_accelerator`] adds the paper's device split: the
//! heavy A1, B1 and T1 patterns divide their output range between the host
//! pool and a second pool standing in for the accelerator, joined per
//! pattern — the execution shape of Fig. 4 (b). Every other line of the
//! RK-4 stage loop is shared with the threaded executor. On this machine
//! both pools share silicon, so wall-clock gains are measured on multicore
//! hosts and *modeled* via `crate::sched` elsewhere; what is verified here
//! is bit-for-bit agreement with the serial code (the paper's §V.A
//! validation).

use crate::device::Platform;
use crate::pool::{join, Pool};
use mpas_mesh::Mesh;
use mpas_patterns::dataflow::RkPhase;
use mpas_swe::coeffs::KernelCoeffs;
use mpas_swe::config::ModelConfig;
use mpas_swe::kernels::{dispatch, ops, runs_vorticity_cell};
use mpas_swe::rk4::{RK_SUBSTEP, RK_WEIGHTS};
use mpas_swe::state::{Diagnostics, Reconstruction, State};
use mpas_swe::testcases::TestCase;
use mpas_swe::{InitialFields, Tendencies};
use mpas_telemetry::{Recorder, SpanGuard};
use std::ops::Range;
use std::sync::Arc;

/// Open a `measured`-track span + `hybrid.kernel.<label>.seconds` histogram
/// timer for one Table-I kernel, or `None` (no allocation, one branch) when
/// telemetry is off.
fn kernel_timer(rec: &Recorder, label: &str) -> Option<SpanGuard> {
    if rec.is_enabled() {
        Some(rec.span_timed("measured", label, &format!("hybrid.kernel.{label}.seconds")))
    } else {
        None
    }
}

/// Chunk length for a loop over `len` outputs on `pool`: four chunks per
/// thread, at least 512 outputs, and a multiple of 4 so the four-edge
/// blocks of the simd kernels never straddle two chunks.
fn chunk_len(pool: &Pool, len: usize) -> usize {
    len.div_ceil(4 * pool.threads())
        .max(512)
        .next_multiple_of(4)
}

/// Run a range-convention op over `out` in parallel chunks on a pool,
/// chunked by [`chunk_len`] of `out`'s own length.
fn par_run<F>(pool: &mut Pool, out: &mut [f64], f: F)
where
    F: Fn(Range<usize>, &mut [f64]) + Sync,
{
    let chunk = chunk_len(pool, out.len());
    pool.for_each([out], chunk, |r, [o]| f(r, o));
}

/// The accelerator half of the Fig. 4 (b) device split.
struct AccSplit {
    pool: Pool,
    /// Fraction of each split range the accelerator pool computes.
    fraction: f64,
}

/// Run one "adjustable" pattern over `out`. With an accelerator, `out`
/// splits at the platform ratio and the two halves run concurrently (host
/// part on `cpu`, device part on the accelerator pool), each timed under
/// `hybrid.split.<label>.{cpu,acc}.seconds` so the pools' shares can be
/// compared in the metrics snapshot; without one it is a plain [`par_run`].
/// The split point is a multiple of 4, like every chunk boundary.
fn split_run<F>(
    cpu: &mut Pool,
    acc: Option<&mut AccSplit>,
    rec: &Recorder,
    label: &str,
    out: &mut [f64],
    f: F,
) where
    F: Fn(Range<usize>, &mut [f64]) + Sync,
{
    let Some(acc) = acc else {
        return par_run(cpu, out, f);
    };
    let half_timer = |side: &str| {
        rec.is_enabled()
            .then(|| rec.time(&format!("hybrid.split.{label}.{side}.seconds")))
    };
    let mid = ((1.0 - acc.fraction) * out.len() as f64) as usize / 4 * 4;
    let (lo, hi) = out.split_at_mut(mid);
    join(
        || {
            let _t = half_timer("cpu");
            par_run(cpu, lo, &f)
        },
        || {
            let _t = half_timer("acc");
            par_run(&mut acc.pool, hi, |r, c| f(r.start + mid..r.end + mid, c))
        },
    );
}

/// A threaded shallow-water model numerically identical to
/// [`mpas_swe::ShallowWaterModel`], optionally splitting its heavy
/// patterns with an accelerator pool ([`ParallelModel::with_accelerator`]).
pub struct ParallelModel {
    /// The mesh being integrated.
    pub mesh: Arc<Mesh>,
    /// Numerical options.
    pub config: ModelConfig,
    /// Prognostic state.
    pub state: State,
    /// Current diagnostics (consistent with `state`).
    pub diag: Diagnostics,
    /// Reconstructed cell-center velocities.
    pub recon: Reconstruction,
    /// The fields this run started from: the topography, the Coriolis
    /// field and the fixed forcing of forced cases (Williamson 4, computed
    /// once with the serial kernels) are read from here, never copied.
    pub init: Arc<InitialFields>,
    /// Precomputed kernel coefficients: the simd backend's tables and the
    /// velocity-reconstruction tables every backend reads. Shared so
    /// multi-tenant servers can reuse one table across concurrent models
    /// on the same mesh/config.
    pub kcoeffs: Arc<KernelCoeffs>,
    tend: Tendencies,
    provis: State,
    acc_state: State,
    pool: Pool,
    acc: Option<AccSplit>,
    /// Model time in seconds.
    pub time: f64,
    /// Time-step size in seconds.
    pub dt: f64,
    /// Telemetry sink (`hybrid.kernel.*` timers, step spans); no-op by default.
    recorder: Recorder,
}

impl ParallelModel {
    /// Build with `n_threads` workers.
    pub fn new(
        mesh: Arc<Mesh>,
        config: ModelConfig,
        test_case: TestCase,
        dt: Option<f64>,
        n_threads: usize,
    ) -> Self {
        let kc = Arc::new(KernelCoeffs::build(&mesh, &config));
        let init = Arc::new(InitialFields::sample(&mesh, &config, test_case, &kc, dt));
        Self::from_initial(mesh, config, init, kc, n_threads)
    }

    /// Like [`ParallelModel::new`], but start from already-sampled fields
    /// and an already-built coefficient table (both for this exact mesh
    /// and config). Only the state is copied out.
    pub fn from_initial(
        mesh: Arc<Mesh>,
        config: ModelConfig,
        init: Arc<InitialFields>,
        kcoeffs: Arc<KernelCoeffs>,
        n_threads: usize,
    ) -> Self {
        init.check_fits(&mesh, &config);
        let mut m = ParallelModel {
            tend: Tendencies::zeros_with_tracers(&mesh, config.n_tracers),
            provis: State::zeros_with_tracers(&mesh, config.n_tracers),
            acc_state: State::zeros_with_tracers(&mesh, config.n_tracers),
            diag: Diagnostics::zeros(&mesh),
            recon: Reconstruction::zeros(&mesh),
            state: init.state.clone(),
            dt: init.dt,
            init,
            kcoeffs,
            pool: Pool::new(n_threads),
            acc: None,
            config,
            time: 0.0,
            mesh,
            recorder: Recorder::noop(),
        };
        m.solve_diagnostics_on(Which::State, RkPhase::Final);
        m
    }

    /// Make this the two-pool hybrid executor: add an accelerator pool of
    /// `acc_threads` workers that computes the share of every A1, B1 and
    /// T1 range given by the platform's relative memory bandwidths.
    ///
    /// Numerics stay identical to the serial code: splitting only changes
    /// *which pool* computes each output index, never the arithmetic.
    pub fn with_accelerator(mut self, acc_threads: usize, platform: &Platform) -> Self {
        self.acc = Some(AccSplit {
            pool: Pool::new(acc_threads),
            fraction: platform.acc.mem_bw / (platform.acc.mem_bw + platform.cpu.mem_bw),
        });
        self
    }

    /// Fraction of each split range the accelerator pool computes, or
    /// `None` for the host-only threaded executor.
    pub fn acc_fraction(&self) -> Option<f64> {
        self.acc.as_ref().map(|a| a.fraction)
    }

    /// Route this model's `hybrid.*` telemetry (per-kernel timers keyed by
    /// Table-I label, per-pool split timers, step spans) into `rec`.
    pub fn with_recorder(mut self, rec: Recorder) -> Self {
        self.recorder = rec;
        self
    }

    /// The telemetry sink.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The diagnostics of one RK substep of `phase` on the state or the
    /// provisional state (an intermediate substep skips A3).
    fn solve_diagnostics_on(&mut self, which: Which, phase: RkPhase) {
        let (h, u): (&[f64], &[f64]) = match which {
            Which::State => (&self.state.h, &self.state.u),
            Which::Provis => (&self.provis.h, &self.provis.u),
        };
        let mesh = &self.mesh;
        let config = &self.config;
        let kc = &self.kcoeffs;
        let backend = config.kernel_backend;
        let dt = self.dt;
        let pool = &mut self.pool;
        let rec = self.recorder.clone();
        let d = &mut self.diag;
        if config.high_order_h_edge {
            // d2fdx2 writes two arrays: chunk both with the same geometry.
            let _g = kernel_timer(&rec, "D1D2");
            let chunk = chunk_len(pool, d.d2fdx2_cell1.len());
            let outs = [&mut d.d2fdx2_cell1[..], &mut d.d2fdx2_cell2[..]];
            pool.for_each(outs, chunk, |r, [c1, c2]| {
                dispatch::d2fdx2(backend, mesh, kc, h, c1, c2, r)
            });
        }
        {
            // The low-order blend never reads the (zero) D1/D2 fields.
            let _g = kernel_timer(&rec, "H2");
            let (d1, d2) = (&d.d2fdx2_cell1, &d.d2fdx2_cell2);
            par_run(pool, &mut d.h_edge, |r, o| {
                dispatch::h_edge(backend, mesh, kc, config, h, d1, d2, o, r)
            });
        }
        if config.advection_only {
            // Williamson TC1: only the thickness flux is needed (the PV
            // chain would divide by the zero-thickness tracer field) —
            // mirror the serial composite's early return.
            return;
        }
        {
            let _g = kernel_timer(&rec, "C2");
            par_run(pool, &mut d.vorticity, |r, o| {
                dispatch::vorticity(backend, mesh, kc, u, o, r)
            });
        }
        {
            let _g = kernel_timer(&rec, "A2");
            par_run(pool, &mut d.ke, |r, o| {
                dispatch::ke(backend, mesh, kc, u, o, r)
            });
        }
        {
            let _g = kernel_timer(&rec, "B2");
            par_run(pool, &mut d.divergence, |r, o| {
                dispatch::divergence(backend, mesh, kc, u, o, r)
            });
        }
        {
            let _g = kernel_timer(&rec, "H1");
            par_run(pool, &mut d.v, |r, o| {
                dispatch::tangential_velocity_kc(backend, mesh, kc, u, o, r)
            });
        }
        let vort = &d.vorticity;
        if runs_vorticity_cell(phase) {
            let _g = kernel_timer(&rec, "A3");
            par_run(pool, &mut d.vorticity_cell, |r, o| {
                dispatch::vorticity_cell(backend, mesh, kc, vort, o, r)
            });
        }
        let f_vertex = &self.init.f_vertex;
        {
            let _g = kernel_timer(&rec, "E");
            par_run(pool, &mut d.pv_vertex, |r, o| {
                dispatch::pv_vertex(backend, mesh, h, vort, f_vertex, o, r)
            });
        }
        let pvv = &d.pv_vertex;
        {
            let _g = kernel_timer(&rec, "F");
            par_run(pool, &mut d.pv_cell, |r, o| {
                dispatch::pv_cell(backend, mesh, kc, pvv, o, r)
            });
        }
        let pvc = &d.pv_cell;
        let v = &d.v;
        {
            let _g = kernel_timer(&rec, "G");
            par_run(pool, &mut d.pv_edge, |r, o| {
                dispatch::pv_edge(
                    backend,
                    mesh,
                    kc,
                    config.apvm_factor,
                    dt,
                    pvv,
                    pvc,
                    u,
                    v,
                    o,
                    r,
                )
            });
        }
    }

    fn compute_tend_on(&mut self) {
        let mesh = &self.mesh;
        let config = &self.config;
        let kc = &self.kcoeffs;
        let backend = config.kernel_backend;
        let pool = &mut self.pool;
        let rec = self.recorder.clone();
        let (h, u) = (&self.provis.h, &self.provis.u);
        let d = &self.diag;
        let b = &self.init.b;
        {
            let _g = kernel_timer(&rec, "A1");
            split_run(
                pool,
                self.acc.as_mut(),
                &rec,
                "A1",
                &mut self.tend.tend_h,
                |r, o| dispatch::tend_h(backend, mesh, kc, u, &d.h_edge, o, r),
            );
        }
        if config.advection_only {
            // Williamson TC1 holds the wind fixed: the u-tendency is
            // identically zero, matching the serial composite's early-out.
            self.tend.tend_u.fill(0.0);
        } else {
            let _g = kernel_timer(&rec, "B1");
            split_run(
                pool,
                self.acc.as_mut(),
                &rec,
                "B1",
                &mut self.tend.tend_u,
                |r, o| {
                    dispatch::tend_u(
                        backend,
                        mesh,
                        kc,
                        config.gravity,
                        &d.pv_edge,
                        u,
                        &d.h_edge,
                        &d.ke,
                        h,
                        b,
                        o,
                        r,
                    )
                },
            );
        }
        if !config.advection_only && config.del2_viscosity != 0.0 {
            let _g = kernel_timer(&rec, "C1");
            par_run(pool, &mut self.tend.tend_u, |r, o| {
                dispatch::tend_u_del2(
                    backend,
                    mesh,
                    kc,
                    config.del2_viscosity,
                    &d.divergence,
                    &d.vorticity,
                    o,
                    r,
                )
            });
        }
        if !config.advection_only && config.del4_viscosity != 0.0 {
            // The del4 chain has no single Table-I label; time it as a unit.
            let _g = kernel_timer(&rec, "del4");
            let (ne, nc, nv) = (mesh.n_edges(), mesh.n_cells(), mesh.n_vertices());
            let mut lap = vec![0.0; ne];
            par_run(pool, &mut lap, |r, o| {
                dispatch::lap_u(backend, mesh, kc, &d.divergence, &d.vorticity, o, r)
            });
            let mut div_lap = vec![0.0; nc];
            par_run(pool, &mut div_lap, |r, o| {
                dispatch::divergence(backend, mesh, kc, &lap, o, r)
            });
            let mut vort_lap = vec![0.0; nv];
            par_run(pool, &mut vort_lap, |r, o| {
                dispatch::vorticity(backend, mesh, kc, &lap, o, r)
            });
            par_run(pool, &mut self.tend.tend_u, |r, o| {
                dispatch::tend_u_del4(
                    backend,
                    mesh,
                    kc,
                    config.del4_viscosity,
                    &div_lap,
                    &vort_lap,
                    o,
                    r,
                )
            });
        }
        if !self.provis.tracers.is_empty() {
            let _g = kernel_timer(&rec, "T1");
            let tracers = &self.provis.tracers;
            let h_edge = &d.h_edge;
            for (k, out) in self.tend.tend_tracers.iter_mut().enumerate() {
                let hq = &tracers[k];
                split_run(pool, self.acc.as_mut(), &rec, "T1", out, |r, o| {
                    dispatch::tend_tracer(backend, mesh, kc, u, h_edge, h, hq, o, r)
                });
            }
        }
        if let Some(f) = &self.init.forcing {
            // Pattern F1: exact +1.0-weighted accumulate, same as serial.
            let _g = kernel_timer(&rec, "F1");
            let (fh, fu_) = (&f.tend_h, &f.tend_u);
            par_run(pool, &mut self.tend.tend_h, |r, o| {
                ops::accumulate(fh, 1.0, o, r)
            });
            par_run(pool, &mut self.tend.tend_u, |r, o| {
                ops::accumulate(fu_, 1.0, o, r)
            });
        }
        {
            let _g = kernel_timer(&rec, "X1");
            par_run(pool, &mut self.tend.tend_u, |r, o| {
                ops::enforce_boundary(mesh, o, r)
            });
        }
    }

    /// One RK-4 step, multithreaded (and device-split when the model owns
    /// an accelerator pool).
    pub fn step(&mut self) {
        let rec = self.recorder.clone();
        let _step = if rec.is_enabled() {
            Some(rec.span_timed("measured", "step", "hybrid.step_seconds"))
        } else {
            None
        };
        self.acc_state.copy_from(&self.state);
        self.provis.copy_from(&self.state);
        // `stage` is the RK stage number, not just an index into RK_SUBSTEP.
        #[allow(clippy::needless_range_loop)]
        for stage in 0..4 {
            let _sub = if rec.is_enabled() {
                Some(rec.span("measured", &format!("rk.stage{stage}")))
            } else {
                None
            };
            self.compute_tend_on();
            let dt = self.dt;
            if stage < 3 {
                {
                    let pool = &mut self.pool;
                    let base_h = &self.state.h;
                    let tend_h = &self.tend.tend_h;
                    let _g = kernel_timer(&rec, "X2");
                    par_run(pool, &mut self.provis.h, |r, o| {
                        ops::axpy(base_h, tend_h, RK_SUBSTEP[stage] * dt, o, r)
                    });
                    drop(_g);
                    let base_u = &self.state.u;
                    let tend_u = &self.tend.tend_u;
                    let _g = kernel_timer(&rec, "X3");
                    par_run(pool, &mut self.provis.u, |r, o| {
                        ops::axpy(base_u, tend_u, RK_SUBSTEP[stage] * dt, o, r)
                    });
                    drop(_g);
                    for (k, out) in self.provis.tracers.iter_mut().enumerate() {
                        let base = &self.state.tracers[k];
                        let tt = &self.tend.tend_tracers[k];
                        par_run(pool, out, |r, o| {
                            ops::axpy(base, tt, RK_SUBSTEP[stage] * dt, o, r)
                        });
                    }
                }
                self.solve_diagnostics_on(Which::Provis, RkPhase::Intermediate);
                self.accumulate(stage);
            } else {
                self.accumulate(stage);
                // The accumulator holds the new state: swap it in (the
                // next step refills it from `state`).
                std::mem::swap(&mut self.state, &mut self.acc_state);
                self.solve_diagnostics_on(Which::State, RkPhase::Final);
                self.reconstruct();
            }
        }
        self.time += self.dt;
    }

    fn accumulate(&mut self, stage: usize) {
        let dt = self.dt;
        let pool = &mut self.pool;
        let rec = self.recorder.clone();
        let tend_h = &self.tend.tend_h;
        {
            let _g = kernel_timer(&rec, "X4");
            par_run(pool, &mut self.acc_state.h, |r, o| {
                ops::accumulate(tend_h, RK_WEIGHTS[stage] * dt, o, r)
            });
        }
        let tend_u = &self.tend.tend_u;
        {
            let _g = kernel_timer(&rec, "X5");
            par_run(pool, &mut self.acc_state.u, |r, o| {
                ops::accumulate(tend_u, RK_WEIGHTS[stage] * dt, o, r)
            });
        }
        for (k, out) in self.acc_state.tracers.iter_mut().enumerate() {
            let tt = &self.tend.tend_tracers[k];
            par_run(pool, out, |r, o| {
                ops::accumulate(tt, RK_WEIGHTS[stage] * dt, o, r)
            });
        }
    }

    fn reconstruct(&mut self) {
        let mesh = &self.mesh;
        let kc = &self.kcoeffs;
        let u = &self.state.u;
        let pool = &mut self.pool;
        let rec = self.recorder.clone();
        let r = &mut self.recon;
        {
            let _g = kernel_timer(&rec, "A4");
            let chunk = chunk_len(pool, r.ux.len());
            let outs = [&mut r.ux[..], &mut r.uy[..], &mut r.uz[..]];
            pool.for_each(outs, chunk, |s, [cx, cy, cz]| {
                ops::reconstruct_xyz(mesh, kc, u, cx, cy, cz, s)
            });
        }
        let (ux, uy, uz) = (&r.ux, &r.uy, &r.uz);
        {
            let _g = kernel_timer(&rec, "X6");
            let chunk = chunk_len(pool, r.zonal.len());
            let outs = [&mut r.zonal[..], &mut r.meridional[..]];
            pool.for_each(outs, chunk, |s, [cz, cm]| {
                ops::zonal_meridional(kc, ux, uy, uz, cz, cm, s)
            });
        }
    }

    /// Advance `n` steps.
    pub fn run_steps(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }
}

#[derive(Clone, Copy)]
enum Which {
    State,
    Provis,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Arc<Mesh> {
        Arc::new(mpas_mesh::generate(3, 0))
    }

    #[test]
    fn parallel_model_matches_serial_bitwise() {
        let mesh = mesh();
        let tc = TestCase::Case5;
        let cfg = ModelConfig::default();
        let mut serial = mpas_swe::ShallowWaterModel::new(mesh.clone(), cfg, tc, None);
        let mut par = ParallelModel::new(mesh, cfg, tc, None, 3);
        serial.run_steps(5);
        par.run_steps(5);
        assert_eq!(
            serial.state.max_abs_diff(&par.state),
            0.0,
            "threaded result differs from serial"
        );
    }

    #[test]
    fn hybrid_model_matches_serial_bitwise() {
        let mesh = mesh();
        let tc = TestCase::Case6;
        let cfg = ModelConfig::default();
        let mut serial = mpas_swe::ShallowWaterModel::new(mesh.clone(), cfg, tc, None);
        let mut hyb =
            ParallelModel::new(mesh, cfg, tc, None, 2).with_accelerator(2, &Platform::paper_node());
        serial.run_steps(4);
        hyb.run_steps(4);
        assert_eq!(serial.state.max_abs_diff(&hyb.state), 0.0);
    }

    #[test]
    fn split_fraction_reflects_platform() {
        let p = Platform::paper_node();
        let threaded = ParallelModel::new(mesh(), ModelConfig::default(), TestCase::Case5, None, 1);
        assert_eq!(threaded.acc_fraction(), None);
        let fraction = threaded.with_accelerator(1, &p).acc_fraction().unwrap();
        assert!(fraction > 0.5, "accelerator should take the majority");
        assert!(fraction < 0.8);
    }

    #[test]
    fn chunks_follow_each_output_and_keep_four_edge_blocks_whole() {
        // Level 6 on two threads: cells, vertices and edges each split
        // into 4·threads chunks (the cells no longer into 15 360 / 15 360
        // / 10 242 by the edge count), every boundary a multiple of 4.
        let pool = Pool::new(2);
        for len in [40_962, 81_920, 122_880] {
            let chunk = chunk_len(&pool, len);
            assert_eq!(chunk % 4, 0, "len {len}");
            assert_eq!(len.div_ceil(chunk), 8, "len {len}");
        }
        assert_eq!(chunk_len(&pool, 100), 512);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let mesh = mesh();
        let tc = TestCase::Case2 { alpha: 0.4 };
        let cfg = ModelConfig::default();
        let mut one = ParallelModel::new(mesh.clone(), cfg, tc, None, 1);
        let mut four = ParallelModel::new(mesh, cfg, tc, None, 4);
        one.run_steps(3);
        four.run_steps(3);
        assert_eq!(one.state.max_abs_diff(&four.state), 0.0);
    }
}
