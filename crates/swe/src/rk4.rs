//! The RK-4 time-stepping driver (the paper's Algorithm 1).
//!
//! Classical fourth-order Runge–Kutta in the MPAS formulation: provisional
//! states at `dt/2, dt/2, dt` and quadrature weights `1/6, 1/3, 1/3, 1/6`.
//! Each stage computes what the data flow of its substep reads (DESIGN.md
//! §14), in Algorithm 1's order with three departures that keep every bit:
//!
//! * the intermediate substeps skip A3 (`vorticity_cell`), which no
//!   Table-I instance reads; the final substep fills it, so the
//!   diagnostics on exit are complete;
//! * an intermediate substep writes the next provisional state and the RK
//!   accumulation in one pass over the tendencies (X2+X4, X3+X5);
//! * the final substep swaps the accumulated state in instead of copying
//!   it, then runs the diagnostics on the new state and the velocity
//!   reconstruction (A4, X6), as Algorithm 1's branch at the fourth
//!   substep has them.

use crate::coeffs::KernelCoeffs;
use crate::config::ModelConfig;
use crate::kernels;
use crate::state::{Diagnostics, Reconstruction, State, Tendencies};
use mpas_mesh::Mesh;
use mpas_patterns::dataflow::RkPhase;

/// RK substep coefficients: provisional-state factors (×dt).
pub const RK_SUBSTEP: [f64; 3] = [0.5, 0.5, 1.0];
/// RK quadrature weights (×dt).
pub const RK_WEIGHTS: [f64; 4] = [1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0];

/// Scratch storage reused across steps (no per-step allocation).
#[derive(Debug, Clone)]
pub struct Rk4Workspace {
    /// Provisional substep state.
    pub provis: State,
    /// Stage tendencies.
    pub tend: Tendencies,
    /// Accumulated (quadrature) state.
    pub acc: State,
}

impl Rk4Workspace {
    /// Allocate a workspace for a mesh.
    pub fn new(mesh: &Mesh) -> Self {
        Rk4Workspace {
            provis: State::zeros(mesh),
            tend: Tendencies::zeros(mesh),
            acc: State::zeros(mesh),
        }
    }
}

/// Advance `state` by one RK-4 step of size `dt`.
///
/// On entry `diag` must hold the diagnostics of `state` (as maintained by
/// this function and established once by the model constructor); on exit
/// `state`, `diag` and `recon` all describe the new time level.
///
/// `forcing`, when present, is a fixed tendency added to every stage's
/// `(tend_h, tend_u)` — the forced-case (Williamson 4) equilibrium hold.
/// Tracer-mass fields in `state` are advanced alongside `h` with the T1
/// kernel; the workspace is resized lazily if the tracer count changed.
#[allow(clippy::too_many_arguments)]
pub fn rk4_step(
    mesh: &Mesh,
    config: &ModelConfig,
    kcoeffs: &KernelCoeffs,
    f_vertex: &[f64],
    b: &[f64],
    forcing: Option<&Tendencies>,
    dt: f64,
    state: &mut State,
    diag: &mut Diagnostics,
    recon: &mut Reconstruction,
    ws: &mut Rk4Workspace,
) {
    if ws.tend.tend_tracers.len() != state.n_tracers() {
        ws.tend.resize_tracers(mesh.n_cells(), state.n_tracers());
    }
    ws.acc.copy_from(state);
    ws.provis.copy_from(state);
    let backend = config.kernel_backend;
    let solve_diag = |h: &[f64], u: &[f64], phase: RkPhase, diag: &mut Diagnostics| {
        kernels::compute_substep_diagnostics(
            backend, mesh, config, kcoeffs, h, u, f_vertex, dt, phase, diag,
        );
    };

    for stage in 0..4 {
        // compute_tend on the provisional state and its diagnostics.
        kernels::compute_tend_backend(
            backend,
            mesh,
            config,
            kcoeffs,
            &ws.provis.h,
            &ws.provis.u,
            b,
            diag,
            &mut ws.tend,
        );
        if !ws.provis.tracers.is_empty() {
            kernels::compute_tend_tracers_backend(
                backend,
                mesh,
                kcoeffs,
                &ws.provis.h,
                &ws.provis.u,
                diag,
                &ws.provis.tracers,
                &mut ws.tend,
            );
        }
        if let Some(f) = forcing {
            kernels::apply_forcing(mesh, f, &mut ws.tend);
        }
        kernels::enforce_boundary_edge(mesh, &mut ws.tend);

        if stage < 3 {
            kernels::advance_substep(
                mesh,
                state,
                &ws.tend,
                RK_SUBSTEP[stage] * dt,
                RK_WEIGHTS[stage] * dt,
                &mut ws.provis,
                &mut ws.acc,
            );
            solve_diag(&ws.provis.h, &ws.provis.u, RkPhase::Intermediate, diag);
        } else {
            kernels::accumulative_update(mesh, &ws.tend, RK_WEIGHTS[stage] * dt, &mut ws.acc);
            // The accumulator holds the new state: swap it in (the next
            // step refills `acc` from `state`).
            std::mem::swap(state, &mut ws.acc);
            solve_diag(&state.h, &state.u, RkPhase::Final, diag);
            kernels::mpas_reconstruct(mesh, kcoeffs, &state.u, recon);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RK4 on the scalar ODE y' = λy must reproduce the degree-4 Taylor
    /// polynomial of exp(λ dt) exactly — we verify the driver's coefficient
    /// wiring by running the full PDE machinery on a 1-cell-free problem is
    /// impossible, so check the coefficients directly instead.
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
    /// y' = λ y with the (substep, weight) wiring used by `rk4_step` and
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
}
