//! Algorithm 1 written once: the RK-4 step as Table-I sweeps in data-flow
//! order.
//!
//! `step` is the paper's Algorithm 1, and it is the only copy of it.
//! It issues a sequence of labelled *sweeps* in the order of the Fig. 4
//! data-flow diagram (`mpas_patterns::dataflow`, checked by this
//! module's tests). A sweep computes one Table-I instance (`A1`, `H2`,
//! …), a fused pair whose second half reads the first entity by entity
//! (`C2+E`, `A2+B2`, `H1+G`, `X2+X4`, `X3+X5`, `D1+D2`), or a term outside
//! Table I (`T1` tracers, `F1` forcing, the `del4` chain). The program
//! decides what runs, in which order and on which kernel tier:
//! [`KernelBackend::Scalar`] runs the seed [`ops`] for each sweep (a fused
//! label runs its halves one after the other), [`KernelBackend::Simd`] the
//! simd tier at `k` lanes (DESIGN.md §14).
//!
//! An [`Executor`] decides only how one labelled sweep runs over its entity
//! range: [`Exec`] serially in cache-sized blocks, or in pool chunks with
//! the accelerator split at A1, B1 and T1. A distributed rank runs the same program on its local
//! mesh and exchanges halos through the hook `step` calls at the end of
//! every substep.
//!
//! The step keeps Algorithm 1's bits and departs from its literal order in
//! three ways, each dropping only work or copies nobody reads:
//!
//! * the output diagnostics — A3 (`vorticity_cell`), and A4 and X6, the
//!   velocity `mpas_reconstruct` rebuilds at cell centers — run in no
//!   substep: no Table-I instance reads their outputs, so [`cell_outputs`]
//!   computes them on request, from the state and vertex vorticity a step
//!   leaves behind;
//! * an intermediate substep writes the next provisional state and the RK
//!   accumulation in one pass over the tendencies (X2+X4, X3+X5);
//! * the final substep swaps the accumulated state in instead of copying
//!   it, then runs the diagnostics on the new state.

use crate::coeffs::KernelCoeffs;
use crate::config::{KernelBackend, ModelConfig};
use crate::initial::InitialFields;
use crate::kernels::{ops, simd};
use crate::parallel::Team;
use crate::state::{CellOutputs, Diagnostics, State, Tendencies};
use mpas_mesh::Mesh;
use mpas_telemetry::Recorder;
use std::ops::Range;

/// RK substep coefficients: provisional-state factors (×dt).
pub const RK_SUBSTEP: [f64; 3] = [0.5, 0.5, 1.0];
/// RK quadrature weights (×dt).
pub const RK_WEIGHTS: [f64; 4] = [1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0];

/// How the sweeps of the stage program run.
pub trait Executor {
    /// Run RK substep `stage` (0–3), whose sweeps `body` issues.
    fn substep(&mut self, stage: usize, body: impl FnOnce(&mut Self))
    where
        Self: Sized;

    /// Run the sweep `label`, whose loops `body` issues through
    /// [`Executor::run`].
    fn sweep(&mut self, label: &'static str, body: impl FnOnce(&mut Self))
    where
        Self: Sized;

    /// One loop of the open sweep over the entities `0..n` at `k` lanes:
    /// call `f(range, windows)` for ranges that tile `0..n`, each entity
    /// exactly once, where `windows` are the entries of `outs` that belong
    /// to `range` (`range.start * k..range.end * k`). Every kernel computes
    /// an entity independently of where the range is cut, so any tiling
    /// yields the same bits.
    fn run<const K: usize, F>(&mut self, n: usize, k: usize, outs: [&mut [f64]; K], f: F)
    where
        F: Fn(Range<usize>, [&mut [f64]; K]) + Sync;
}

/// The histogram a timed sweep lands in.
fn kernel_metric(label: &str) -> String {
    format!("swe.kernel.{label}.seconds")
}

/// The executor a model owns. Serial, each loop walks its range in
/// consecutive blocks of `block` entities ([`simd::block_ranges`]); with
/// the SFC mesh ordering consecutive blocks tile the space-filling curve,
/// and the block size never changes a bit. On a thread pool the loops run
/// in pool chunks instead, and the hybrid executor splits A1, B1 and T1
/// with its accelerator pool.
///
/// With a live recorder the pool times every sweep as a `measured`-track
/// span under `swe.kernel.<label>.seconds` and every substep as an
/// `rk.stage{n}` span; the serial executor times its sweeps with pure
/// timers of the same name at `k > 1` only.
pub struct Exec {
    team: Option<Team>,
    block: usize,
    timed: bool,
    recorder: Recorder,
}

impl Exec {
    /// The serial executor.
    pub fn serial() -> Exec {
        Exec {
            team: None,
            block: simd::default_cell_block(1, 4),
            timed: false,
            recorder: Recorder::noop(),
        }
    }

    /// The threaded executor: a pool of `threads` members, one layer.
    pub fn threaded(threads: usize) -> Exec {
        Exec {
            team: Some(Team::new(threads)),
            ..Exec::serial()
        }
    }

    /// The two-pool hybrid executor of Fig. 4 (b): `cpu_threads` host
    /// members, plus `acc_threads` accelerator members that compute the
    /// `acc_fraction` share of every A1, B1 and T1 range.
    pub fn hybrid(cpu_threads: usize, acc_threads: usize, acc_fraction: f64) -> Exec {
        Exec {
            team: Some(Team::new(cpu_threads).with_accelerator(acc_threads, acc_fraction)),
            ..Exec::serial()
        }
    }

    /// The share of each split range the accelerator pool computes, or
    /// `None` without one.
    pub fn acc_fraction(&self) -> Option<f64> {
        self.team.as_ref().and_then(Team::acc_fraction)
    }

    /// Fit the executor to `k` lanes: an L2-sized serial block
    /// ([`simd::default_cell_block`]). Only the serial executor runs more
    /// than one lane.
    pub(crate) fn fit_lanes(&mut self, k: usize) {
        assert!(
            k == 1 || self.team.is_none(),
            "n_layers > 1 requires the serial executor"
        );
        self.block = simd::default_cell_block(k, 4);
        self.timed = k > 1;
    }

    pub(crate) fn set_recorder(&mut self, rec: Recorder) {
        self.recorder = rec;
    }

    /// Set the serial block length (entities per block).
    pub(crate) fn set_cell_block(&mut self, block: usize) {
        self.block = block.max(1);
    }
}

impl Executor for Exec {
    fn substep(&mut self, stage: usize, body: impl FnOnce(&mut Self)) {
        let rec = &self.recorder;
        let _s = (self.team.is_some() && rec.is_enabled())
            .then(|| rec.span("measured", &format!("rk.stage{stage}")));
        body(self)
    }

    fn sweep(&mut self, label: &'static str, body: impl FnOnce(&mut Self)) {
        let rec = &self.recorder;
        let _t = match &mut self.team {
            Some(team) => {
                team.label = label;
                rec.is_enabled()
                    .then(|| rec.span_timed("measured", label, &kernel_metric(label)))
            }
            None => (self.timed && rec.is_enabled()).then(|| rec.time(&kernel_metric(label))),
        };
        body(self)
    }

    fn run<const K: usize, F>(&mut self, n: usize, k: usize, mut outs: [&mut [f64]; K], f: F)
    where
        F: Fn(Range<usize>, [&mut [f64]; K]) + Sync,
    {
        if let Some(team) = &mut self.team {
            debug_assert_eq!(k, 1, "the pool executor runs one layer");
            return team.run(&self.recorder, n, outs, f);
        }
        for r in simd::block_ranges(n, self.block) {
            let windows = outs.each_mut().map(|o| &mut o[r.start * k..r.end * k]);
            f(r, windows);
        }
    }
}

/// What the sweeps of a step read besides the fields they update.
pub struct Inputs<'a> {
    /// The mesh (a rank's local mesh on a distributed run).
    pub mesh: &'a Mesh,
    /// Numerical options; `kernel_backend` picks the kernel tier.
    pub config: &'a ModelConfig,
    /// Kernel coefficients built for `mesh` and `config`.
    pub kc: &'a KernelCoeffs,
    /// Lanes per entity (vertical layers).
    pub k: usize,
    /// Time-step size in seconds (the APVM term of G reads it).
    pub dt: f64,
    /// Coriolis parameter at vertices (E).
    pub f_vertex: &'a [f64],
    /// Bottom topography at cells (B1), shared by every lane.
    pub b: &'a [f64],
    /// Fixed forcing of forced cases (F1), single-layer and added to
    /// every lane.
    pub forcing: Option<&'a Tendencies>,
}

impl<'a> Inputs<'a> {
    /// The inputs of a run on `mesh` started from `init`, stepping `dt`.
    pub fn new(
        mesh: &'a Mesh,
        config: &'a ModelConfig,
        kc: &'a KernelCoeffs,
        init: &'a InitialFields,
        dt: f64,
    ) -> Inputs<'a> {
        Inputs {
            mesh,
            config,
            kc,
            k: config.n_layers,
            dt,
            f_vertex: &init.f_vertex,
            b: &init.b,
            forcing: init.forcing.as_ref(),
        }
    }
}

/// Scratch fields one step reuses (no per-step allocation).
#[derive(Debug, Clone)]
pub(crate) struct Workspace {
    provis: State,
    acc: State,
    tend: Tendencies,
    del4: Del4Scratch,
}

impl Workspace {
    /// Zeroed scratch of `k` lanes (each step fills it before reading it).
    pub(crate) fn zeros(mesh: &Mesh, k: usize, n_tracers: usize) -> Workspace {
        Workspace {
            provis: State::zeros_lanes(mesh, k, n_tracers),
            tend: Tendencies::zeros_lanes(mesh, k, n_tracers),
            acc: State::zeros_lanes(mesh, k, n_tracers),
            del4: Del4Scratch::default(),
        }
    }
}

/// The del4 chain's intermediate fields, `k` lanes each: the vector
/// Laplacian of `u` (edges) and its divergence (cells) and curl
/// (vertices). Empty until a stage first runs del4, then reused; every
/// sweep overwrites what it writes, so stale values are never read.
#[derive(Debug, Clone, Default)]
struct Del4Scratch {
    lap: Vec<f64>,
    div_lap: Vec<f64>,
    vort_lap: Vec<f64>,
}

/// Advance `state` by one RK-4 step.
///
/// On entry `diag` holds the diagnostics of `state`; on exit `state` and
/// `diag` describe the new time level. The RK update writes the first
/// `owned = [cells, edges]` entities only; the rest is left to
/// `at_substep_end`, which runs once a substep on the state the
/// diagnostics then read (a distributed rank exchanges its halo there).
#[allow(clippy::too_many_arguments)]
pub(crate) fn step<E: Executor>(
    x: &mut E,
    p: &Inputs,
    owned: [usize; 2],
    state: &mut State,
    diag: &mut Diagnostics,
    ws: &mut Workspace,
    mut at_substep_end: impl FnMut(&mut State),
) {
    let Workspace {
        provis,
        acc,
        tend,
        del4,
    } = ws;
    acc.copy_from(state);
    provis.copy_from(state);
    let (k, dt) = (p.k, p.dt);
    let [nc, ne] = owned.map(|n| n * k);
    for stage in 0..4 {
        x.substep(stage, |x| {
            tendencies_into(x, p, provis, diag, tend, del4);
            x.sweep("X1", |x| {
                let mesh = p.mesh;
                x.run(mesh.n_edges(), k, [&mut tend.tend_u], |r, [o]| {
                    simd::enforce_boundary(mesh, k, o, r)
                })
            });
            if stage < 3 {
                let (coef, weight) = (RK_SUBSTEP[stage] * dt, RK_WEIGHTS[stage] * dt);
                let advance =
                    |x: &mut E, base: &[f64], t: &[f64], pr: &mut [f64], a: &mut [f64]| {
                        x.run(pr.len() / k, k, [pr, a], |r, [pr, a]| {
                            simd::axpy_accumulate(k, base, t, coef, weight, pr, a, r)
                        })
                    };
                x.sweep("X2+X4", |x| {
                    advance(
                        x,
                        &state.h,
                        &tend.tend_h,
                        &mut provis.h[..nc],
                        &mut acc.h[..nc],
                    );
                    for (((b, t), p), a) in state
                        .tracers
                        .iter()
                        .zip(&tend.tend_tracers)
                        .zip(provis.tracers.iter_mut())
                        .zip(acc.tracers.iter_mut())
                    {
                        advance(x, b, t, &mut p[..nc], &mut a[..nc]);
                    }
                });
                x.sweep("X3+X5", |x| {
                    advance(
                        x,
                        &state.u,
                        &tend.tend_u,
                        &mut provis.u[..ne],
                        &mut acc.u[..ne],
                    )
                });
                at_substep_end(provis);
                diagnostics(x, p, &provis.h, &provis.u, diag);
            } else {
                let weight = RK_WEIGHTS[stage] * dt;
                let accumulate = |x: &mut E, t: &[f64], a: &mut [f64]| {
                    x.run(a.len() / k, k, [a], |r, [a]| {
                        simd::accumulate(k, t, weight, a, r)
                    })
                };
                x.sweep("X4", |x| {
                    accumulate(x, &tend.tend_h, &mut acc.h[..nc]);
                    for (t, a) in tend.tend_tracers.iter().zip(acc.tracers.iter_mut()) {
                        accumulate(x, t, &mut a[..nc]);
                    }
                });
                x.sweep("X5", |x| accumulate(x, &tend.tend_u, &mut acc.u[..ne]));
                // The accumulator holds the new state (the next step
                // refills it from `state`).
                std::mem::swap(state, acc);
                at_substep_end(state);
                diagnostics(x, p, &state.h, &state.u, diag);
            }
        });
    }
}

/// `compute_solve_diagnostics` on `(h, u)`: every field the tendencies
/// and the next diagnostics read. A3, whose output no Table-I instance
/// reads, is left to [`cell_outputs`].
pub fn diagnostics<E: Executor>(x: &mut E, p: &Inputs, h: &[f64], u: &[f64], d: &mut Diagnostics) {
    let (mesh, config, kc, k) = (p.mesh, p.config, p.kc, p.k);
    let (nc, ne, nv) = (mesh.n_cells(), mesh.n_edges(), mesh.n_vertices());
    let backend = config.kernel_backend;
    if config.high_order_h_edge {
        x.sweep("D1+D2", |x| {
            let outs = [&mut d.d2fdx2_cell1[..], &mut d.d2fdx2_cell2[..]];
            x.run(ne, k, outs, |r, [c1, c2]| match backend {
                KernelBackend::Scalar => ops::d2fdx2(mesh, h, c1, c2, r),
                KernelBackend::Simd => simd::d2fdx2(mesh, kc, k, h, c1, c2, r),
            })
        });
    }
    x.sweep("H2", |x| {
        // The low-order blend never reads the (zero) D1/D2 fields.
        let (d1, d2) = (&d.d2fdx2_cell1, &d.d2fdx2_cell2);
        x.run(ne, k, [&mut d.h_edge], |r, [o]| match backend {
            KernelBackend::Scalar => ops::h_edge(mesh, config, h, d1, d2, o, r),
            KernelBackend::Simd => simd::h_edge(mesh, kc, config, k, h, d1, d2, o, r),
        })
    });
    if config.advection_only {
        // Williamson 1: only the thickness flux is needed (the PV chain
        // would divide by the zero-thickness tracer field).
        return;
    }
    let f_vertex = p.f_vertex;
    x.sweep("C2+E", |x| match backend {
        KernelBackend::Scalar => {
            x.run(nv, k, [&mut d.vorticity], |r, [o]| {
                ops::vorticity(mesh, u, o, r)
            });
            let vort = &d.vorticity;
            x.run(nv, k, [&mut d.pv_vertex], |r, [o]| {
                ops::pv_vertex(mesh, h, vort, f_vertex, o, r)
            });
        }
        KernelBackend::Simd => {
            let outs = [&mut d.vorticity[..], &mut d.pv_vertex[..]];
            x.run(nv, k, outs, |r, [vort, pv]| {
                simd::vorticity_pv(mesh, kc, k, u, h, f_vertex, vort, pv, r)
            })
        }
    });
    x.sweep("A2+B2", |x| {
        let outs = [&mut d.ke[..], &mut d.divergence[..]];
        x.run(nc, k, outs, |r, [ke, div]| match backend {
            KernelBackend::Scalar => {
                ops::ke(mesh, u, ke, r.clone());
                ops::divergence(mesh, u, div, r);
            }
            KernelBackend::Simd => simd::ke_divergence(mesh, kc, k, u, ke, div, r),
        })
    });
    x.sweep("F", |x| {
        let pvv = &d.pv_vertex;
        x.run(nc, k, [&mut d.pv_cell], |r, [o]| match backend {
            KernelBackend::Scalar => ops::pv_cell(mesh, pvv, o, r),
            KernelBackend::Simd => simd::kite_average(mesh, kc, k, pvv, o, r),
        })
    });
    let (apvm, dt) = (config.apvm_factor, p.dt);
    x.sweep("H1+G", |x| {
        let (pvv, pvc) = (&d.pv_vertex, &d.pv_cell);
        match backend {
            KernelBackend::Scalar => {
                x.run(ne, k, [&mut d.v], |r, [o]| {
                    ops::tangential_velocity(mesh, u, o, r)
                });
                let v = &d.v;
                x.run(ne, k, [&mut d.pv_edge], |r, [o]| {
                    ops::pv_edge(mesh, apvm, dt, pvv, pvc, u, v, o, r)
                });
            }
            KernelBackend::Simd => {
                let outs = [&mut d.v[..], &mut d.pv_edge[..]];
                x.run(ne, k, outs, |r, [v, pe]| {
                    simd::tangential_pv_edge(mesh, kc, k, apvm, dt, pvv, pvc, u, v, pe, r)
                })
            }
        }
    });
}

/// `compute_tend` on the state `s` and its diagnostics `d`: the thickness
/// and momentum tendencies (A1, B1, C1, the del4 chain), the tracer-mass
/// tendencies (T1) and the fixed forcing (F1). Boundary masking (X1) is a
/// sweep of its own in `step`.
pub fn tendencies<E: Executor>(
    x: &mut E,
    p: &Inputs,
    s: &State,
    d: &Diagnostics,
    t: &mut Tendencies,
) {
    tendencies_into(x, p, s, d, t, &mut Del4Scratch::default());
}

/// [`tendencies`] with the del4 chain's fields in `del4` (a step reuses
/// its workspace's).
fn tendencies_into<E: Executor>(
    x: &mut E,
    p: &Inputs,
    s: &State,
    d: &Diagnostics,
    t: &mut Tendencies,
    del4: &mut Del4Scratch,
) {
    let (mesh, config, kc, k) = (p.mesh, p.config, p.kc, p.k);
    let (nc, ne, nv) = (mesh.n_cells(), mesh.n_edges(), mesh.n_vertices());
    let backend = config.kernel_backend;
    let (h, u, he) = (&s.h[..], &s.u[..], &d.h_edge[..]);
    x.sweep("A1", |x| {
        x.run(nc, k, [&mut t.tend_h], |r, [o]| match backend {
            KernelBackend::Scalar => ops::tend_h(mesh, u, he, o, r),
            KernelBackend::Simd => simd::tend_h(mesh, kc, k, u, he, o, r),
        })
    });
    if config.advection_only {
        // Williamson 1 holds the wind fixed.
        t.tend_u.fill(0.0);
    } else {
        let (g, b, pve, ke) = (config.gravity, p.b, &d.pv_edge[..], &d.ke[..]);
        x.sweep("B1", |x| {
            x.run(ne, k, [&mut t.tend_u], |r, [o]| match backend {
                KernelBackend::Scalar => ops::tend_u(mesh, g, pve, u, he, ke, h, b, o, r),
                KernelBackend::Simd => simd::tend_u(mesh, kc, k, g, pve, u, he, ke, h, b, o, r),
            })
        });
        let (div, vort) = (&d.divergence[..], &d.vorticity[..]);
        let nu2 = config.del2_viscosity;
        if nu2 != 0.0 {
            x.sweep("C1", |x| {
                x.run(ne, k, [&mut t.tend_u], |r, [o]| match backend {
                    KernelBackend::Scalar => ops::tend_u_del2(mesh, nu2, div, vort, o, r),
                    KernelBackend::Simd => simd::tend_u_del2(mesh, kc, k, nu2, div, vort, o, r),
                })
            });
        }
        let nu4 = config.del4_viscosity;
        if nu4 != 0.0 {
            // Chained C1-class sweeps: the vector Laplacian of u from the
            // existing divergence/vorticity, then the divergence and curl
            // of that Laplacian.
            x.sweep("del4", |x| {
                let Del4Scratch {
                    lap,
                    div_lap,
                    vort_lap,
                } = del4;
                lap.resize(ne * k, 0.0);
                div_lap.resize(nc * k, 0.0);
                vort_lap.resize(nv * k, 0.0);
                x.run(ne, k, [lap], |r, [o]| match backend {
                    KernelBackend::Scalar => ops::lap_u(mesh, div, vort, o, r),
                    KernelBackend::Simd => simd::lap_u(mesh, kc, k, div, vort, o, r),
                });
                let lap = &lap[..];
                x.run(nc, k, [div_lap], |r, [o]| match backend {
                    KernelBackend::Scalar => ops::divergence(mesh, lap, o, r),
                    KernelBackend::Simd => simd::divergence(mesh, kc, k, lap, o, r),
                });
                x.run(nv, k, [vort_lap], |r, [o]| match backend {
                    KernelBackend::Scalar => ops::vorticity(mesh, lap, o, r),
                    KernelBackend::Simd => simd::vorticity(mesh, kc, k, lap, o, r),
                });
                let (dl, vl) = (&div_lap[..], &vort_lap[..]);
                x.run(ne, k, [&mut t.tend_u], |r, [o]| match backend {
                    KernelBackend::Scalar => ops::tend_u_del4(mesh, nu4, dl, vl, o, r),
                    KernelBackend::Simd => simd::tend_u_del4(mesh, kc, k, nu4, dl, vl, o, r),
                });
            });
        }
    }
    if !s.tracers.is_empty() {
        x.sweep("T1", |x| {
            for (hq, out) in s.tracers.iter().zip(t.tend_tracers.iter_mut()) {
                x.run(nc, k, [out], |r, [o]| match backend {
                    KernelBackend::Scalar => ops::tend_tracer(mesh, u, he, h, hq, o, r),
                    KernelBackend::Simd => simd::tend_tracer(mesh, kc, k, u, he, h, hq, o, r),
                });
            }
        });
    }
    if let Some(f) = p.forcing {
        x.sweep("F1", |x| {
            x.run(nc, k, [&mut t.tend_h], |r, [o]| {
                add_forcing(k, &f.tend_h, o, r)
            });
            x.run(ne, k, [&mut t.tend_u], |r, [o]| {
                add_forcing(k, &f.tend_u, o, r)
            });
        });
    }
}

/// F1: `out += 1.0·f` on every lane of the entities in `range` (the
/// forcing is single-layer). The weight is exact, so any tiling keeps the
/// bits.
fn add_forcing(k: usize, f: &[f64], out: &mut [f64], range: Range<usize>) {
    for (lanes, &fi) in out.chunks_exact_mut(k).zip(&f[range]) {
        for o in lanes {
            *o += 1.0 * fi;
        }
    }
}

/// The output diagnostics of one layer, on request: the cell vorticity
/// (A3) from the vertex `vorticity` C2 computed on `u`, and
/// `mpas_reconstruct`, the cell-centre velocity vectors (A4) and their
/// zonal/meridional components (X6), from `u`. No Table-I instance reads
/// any of them, so no step runs these sweeps.
pub fn cell_outputs<E: Executor>(
    x: &mut E,
    p: &Inputs,
    u: &[f64],
    vorticity: &[f64],
    out: &mut CellOutputs,
) {
    assert_eq!(p.k, 1, "cell outputs are one layer's");
    let (mesh, kc, backend) = (p.mesh, p.kc, p.config.kernel_backend);
    let nc = mesh.n_cells();
    // The first request builds the A4/X6 tables; no sweep times that.
    kc.output_tables(mesh);
    x.sweep("A3", |x| {
        x.run(nc, 1, [&mut out.vorticity_cell], |r, [o]| match backend {
            KernelBackend::Scalar => ops::vorticity_cell(mesh, vorticity, o, r),
            KernelBackend::Simd => simd::kite_average(mesh, kc, 1, vorticity, o, r),
        })
    });
    x.sweep("A4", |x| {
        let outs = [&mut out.ux[..], &mut out.uy[..], &mut out.uz[..]];
        x.run(nc, 1, outs, |r, [cx, cy, cz]| {
            ops::reconstruct_xyz(mesh, kc, u, cx, cy, cz, r)
        })
    });
    x.sweep("X6", |x| {
        let (ux, uy, uz) = (&out.ux, &out.uy, &out.uz);
        let outs = [&mut out.zonal[..], &mut out.meridional[..]];
        x.run(nc, 1, outs, |r, [z, m]| {
            ops::zonal_meridional(mesh, kc, ux, uy, uz, z, m, r)
        })
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testcases::TestCase;
    use mpas_patterns::dataflow::{table_i, DataflowGraph, RkPhase};
    use std::collections::HashSet;

    #[test]
    fn coefficients_are_classical_rk4() {
        assert_eq!(RK_SUBSTEP, [0.5, 0.5, 1.0]);
        let s: f64 = RK_WEIGHTS.iter().sum();
        assert!((s - 1.0).abs() < 1e-15);
        assert_eq!(RK_WEIGHTS[1], RK_WEIGHTS[2]);
        assert_eq!(RK_WEIGHTS[0], RK_WEIGHTS[3]);
        assert!((RK_WEIGHTS[0] - 1.0 / 6.0).abs() < 1e-15);
    }

    /// Scalar convergence check of the same Butcher tableau: integrate
    /// y' = λ y with the (substep, weight) wiring [`step`] uses and
    /// confirm 4th-order accuracy.
    #[test]
    fn tableau_is_fourth_order_on_scalar_ode() {
        let lambda = -0.7;
        let integrate = |dt: f64, n: usize| -> f64 {
            let mut y = 1.0f64;
            for _ in 0..n {
                let mut acc = y;
                let mut provis = y;
                for stage in 0..4 {
                    let tend = lambda * provis;
                    if stage < 3 {
                        provis = y + RK_SUBSTEP[stage] * dt * tend;
                    }
                    acc += RK_WEIGHTS[stage] * dt * tend;
                }
                y = acc;
            }
            y
        };
        let exact = (lambda * 1.0f64).exp();
        let e1 = (integrate(0.1, 10) - exact).abs();
        let e2 = (integrate(0.05, 20) - exact).abs();
        let order = (e1 / e2).log2();
        assert!(order > 3.8, "observed order {order}");
    }

    /// A test executor that logs every sweep's label by substep and runs
    /// each loop over its whole range at once.
    #[derive(Default)]
    struct Recording {
        substeps: Vec<Vec<&'static str>>,
    }

    impl Executor for Recording {
        fn substep(&mut self, _stage: usize, body: impl FnOnce(&mut Self)) {
            self.substeps.push(Vec::new());
            body(self)
        }

        fn sweep(&mut self, label: &'static str, body: impl FnOnce(&mut Self)) {
            self.substeps
                .last_mut()
                .expect("sweeps run inside a substep")
                .push(label);
            body(self)
        }

        fn run<const K: usize, F>(&mut self, n: usize, _k: usize, outs: [&mut [f64]; K], f: F)
        where
            F: Fn(Range<usize>, [&mut [f64]; K]) + Sync,
        {
            f(0..n, outs)
        }
    }

    /// Williamson 4 (forced) under `config` on a level-2 mesh: the mesh,
    /// its coefficients and the sampled fields.
    fn case4(config: &ModelConfig) -> (Mesh, KernelCoeffs, InitialFields) {
        let mesh = mpas_mesh::generate(2, 0);
        let kc = KernelCoeffs::build(&mesh, config);
        let init = InitialFields::sample(&mesh, config, TestCase::Case4, &kc, None);
        (mesh, kc, init)
    }

    /// One step of `config` on Williamson 4 (forced) through the
    /// recording executor; the log of each substep.
    fn record_step(config: ModelConfig) -> Vec<Vec<&'static str>> {
        let (mesh, kc, init) = case4(&config);
        let p = Inputs::new(&mesh, &config, &kc, &init, init.dt);
        let mut state = init.state.clone();
        let mut diag = Diagnostics::zeros(&mesh);
        diagnostics(&mut Exec::serial(), &p, &state.h, &state.u, &mut diag);
        let mut ws = Workspace::zeros(&mesh, 1, config.n_tracers);
        let owned = [mesh.n_cells(), mesh.n_edges()];
        let mut x = Recording::default();
        step(&mut x, &p, owned, &mut state, &mut diag, &mut ws, |_| {});
        assert!(state.h.iter().all(|h| h.is_finite()));
        x.substeps
    }

    /// Every configuration the test walks on both backends: the default,
    /// then every optional node and every sweep outside Table I on.
    fn configs() -> Vec<ModelConfig> {
        let base = ModelConfig::default();
        let full = ModelConfig {
            high_order_h_edge: true,
            del2_viscosity: 1.0e5,
            del4_viscosity: 1.0e14,
            n_tracers: 2,
            ..base
        };
        let mut out = Vec::new();
        for kernel_backend in KernelBackend::ALL {
            for c in [base, full] {
                out.push(ModelConfig {
                    kernel_backend,
                    ..c
                });
            }
        }
        out
    }

    /// The sweeps outside Table I.
    const OUTSIDE: [&str; 3] = ["T1", "F1", "del4"];

    /// Check one substep's log against the Fig. 4 graph of its phase.
    /// `unread` holds the output diagnostics: the instances whose outputs
    /// only other output diagnostics read.
    fn check_substep(config: &ModelConfig, phase: RkPhase, unread: &[&str], log: &[&str]) {
        let tag = format!("{phase:?} {config:?}");
        let full = DataflowGraph::for_substep(phase);
        let enabled = |name: &str| match name {
            "D1" | "D2" => config.high_order_h_edge,
            "C1" => config.del2_viscosity != 0.0,
            n => !unread.contains(&n),
        };
        // Each label names instances of this phase's graph, or is one of
        // the sweeps outside Table I.
        let swept: Vec<Vec<&str>> = log
            .iter()
            .map(|l| {
                if OUTSIDE.contains(l) {
                    return Vec::new();
                }
                let names: Vec<&str> = l.split('+').collect();
                for n in &names {
                    assert!(full.node(n).is_some(), "{tag}: {l} is not in the graph");
                }
                names
            })
            .collect();
        // Every node the config enables runs exactly once; no other does.
        for node in &full.nodes {
            let runs = swept.iter().flatten().filter(|&&n| n == node.name).count();
            let want = usize::from(enabled(node.name));
            assert_eq!(runs, want, "{tag}: {} ran {runs} times", node.name);
        }
        // No sweep runs before a predecessor of any of its instances, in
        // the graph of the enabled nodes (a fused pair's first half
        // precedes its second).
        let nodes = full.nodes.into_iter().filter(|n| enabled(n.name)).collect();
        let graph = DataflowGraph::from_nodes(phase, nodes);
        let mut done: HashSet<&str> = HashSet::new();
        for (label, names) in log.iter().zip(&swept) {
            for name in names {
                let id = graph.node(name).expect("an enabled node");
                for &pred in &graph.preds[id] {
                    let pred = graph.nodes[pred].name;
                    assert!(
                        done.contains(pred),
                        "{tag}: {label} runs before its predecessor {pred}"
                    );
                }
                done.insert(name);
            }
        }
        // Sweeps outside Table I sit between the tendency kernels and X1.
        let at = |l: &str| log.iter().position(|s| *s == l);
        let x1 = at("X1").expect("X1 runs");
        let last_tend = ["A1", "B1", "C1"].iter().filter_map(|l| at(l)).max();
        for (i, label) in log.iter().enumerate() {
            if OUTSIDE.contains(label) {
                assert!(
                    last_tend.is_some_and(|t| t < i) && i < x1,
                    "{tag}: {label} is not between the tendency kernels and X1"
                );
            }
        }
        assert_eq!(log.contains(&"T1"), config.n_tracers > 0, "{tag}: T1");
        assert!(log.contains(&"F1"), "{tag}: F1 (Williamson 4 is forced)");
        let del4 = config.del4_viscosity != 0.0;
        assert_eq!(log.contains(&"del4"), del4, "{tag}: del4");
    }

    /// The output diagnostics, derived from Table I: grown from the
    /// instances whose outputs no instance reads by every instance whose
    /// outputs only the set's members read.
    fn output_diagnostics() -> Vec<&'static str> {
        let table = table_i();
        let mut unread: Vec<&str> = Vec::new();
        loop {
            let grown = table.iter().find(|n| {
                !unread.contains(&n.name)
                    && n.outputs.iter().all(|v| {
                        let mut readers = table.iter().filter(|m| m.inputs.contains(v));
                        readers.all(|m| unread.contains(&m.name))
                    })
            });
            match grown {
                Some(n) => unread.push(n.name),
                None => return unread,
            }
        }
    }

    #[test]
    fn the_stage_program_is_the_fig4_data_flow() {
        let unread = output_diagnostics();
        let mut sorted = unread.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, ["A3", "A4", "X6"]);
        for config in configs() {
            let substeps = record_step(config);
            assert_eq!(substeps.len(), 4);
            for (stage, log) in substeps.iter().enumerate() {
                let phase = if stage < 3 {
                    RkPhase::Intermediate
                } else {
                    RkPhase::Final
                };
                check_substep(&config, phase, &unread, log);
            }
        }
    }

    #[test]
    fn cell_outputs_run_exactly_the_output_diagnostics() {
        for kernel_backend in KernelBackend::ALL {
            let config = ModelConfig {
                kernel_backend,
                ..ModelConfig::default()
            };
            let (mesh, kc, init) = case4(&config);
            let p = Inputs::new(&mesh, &config, &kc, &init, init.dt);
            let mut diag = Diagnostics::zeros(&mesh);
            let (h, u) = (&init.state.h, &init.state.u);
            diagnostics(&mut Exec::serial(), &p, h, u, &mut diag);
            let mut out = CellOutputs::zeros(&mesh);
            // One open log: the requests run outside any substep.
            let mut x = Recording {
                substeps: vec![Vec::new()],
            };
            cell_outputs(&mut x, &p, u, &diag.vorticity, &mut out);
            // Exactly the output diagnostics, in Fig. 4 order: X6 reads
            // A4's output.
            assert_eq!(x.substeps, [["A3", "A4", "X6"]], "{config:?}");
            assert!(out.zonal.iter().any(|&z| z != 0.0), "{config:?}");
            assert!(out.vorticity_cell.iter().any(|&z| z != 0.0), "{config:?}");
        }
    }
}
