//! The fields a run starts from, sampled once.
//!
//! Algorithm 1 starts every run from analytic fields sampled on the mesh:
//! the initial thickness, velocity and tracer masses, the topography `b`,
//! the Coriolis parameter at vertices and, for the forced case 4, the
//! equilibrium forcing. [`InitialFields::sample`] is the one sampler.
//! Every model starts from its result and copies out only the state it
//! mutates (broadcast across its lanes), and each distributed rank samples
//! its own local mesh. The fields depend only on the mesh, the
//! config, the case and `dt`, so a job server can sample them once per
//! key and hand every job the same `Arc` (`mpas-server`'s artifact cache).

use crate::coeffs::KernelCoeffs;
use crate::config::ModelConfig;
use crate::norms::ErrorNorms;
use crate::stage::{self, Exec, Inputs};
use crate::state::{Diagnostics, State, Tendencies};
use crate::testcases::TestCase;
use mpas_mesh::Mesh;

/// The fixed forcing that holds a test case's background state in discrete
/// equilibrium: `F = −N(background)` where `N` is the model's own tendency
/// operator (same kernels, same simd/seed path, same `dt` for the APVM
/// term). With `F` added to every stage, the unperturbed background is a
/// bitwise fixed point — each stage tendency is `a + (−a) = 0.0` exactly —
/// so only the superposed anomaly evolves. Distributed ranks compute it on
/// their local mesh: the analytic background samples identically at the
/// same points and the halo covers the stencil chain, so owned forcing
/// entries match the global computation bit for bit.
pub fn compute_equilibrium_forcing(
    mesh: &Mesh,
    config: &ModelConfig,
    kc: &KernelCoeffs,
    test_case: &TestCase,
    b: &[f64],
    f_vertex: &[f64],
    dt: f64,
) -> Tendencies {
    let bg = test_case.background_state(mesh);
    let p = Inputs {
        mesh,
        config,
        kc,
        k: 1,
        dt,
        f_vertex,
        b,
        forcing: None,
    };
    let x = &mut Exec::serial();
    let mut diag = Diagnostics::zeros(mesh);
    stage::diagnostics(x, &p, &bg.h, &bg.u, &mut diag);
    let mut tend = Tendencies::zeros(mesh);
    stage::tendencies(x, &p, &bg, &diag, &mut tend);
    for x in tend.tend_h.iter_mut().chain(tend.tend_u.iter_mut()) {
        *x = -*x;
    }
    tend
}

/// The sampled fields of one (mesh, config, case, dt): read-only once
/// built, so any number of runs can share one behind an `Arc`.
#[derive(Debug, Clone)]
pub struct InitialFields {
    /// The scenario the fields were sampled from.
    pub test_case: TestCase,
    /// Initial prognostic state (`config.n_tracers` tracer masses).
    pub state: State,
    /// Bottom topography at cells.
    pub b: Vec<f64>,
    /// Coriolis parameter at vertices.
    pub f_vertex: Vec<f64>,
    /// Time-step size in seconds: the requested one, or the mesh's stable
    /// default. The forcing's APVM term was computed at it.
    pub dt: f64,
    /// Fixed forcing tendency of forced cases (Williamson 4).
    pub forcing: Option<Tendencies>,
}

impl InitialFields {
    /// Sample `test_case` on `mesh`. `kc` must have been built for `mesh`
    /// and `config` (the forcing runs the model's own kernels); `dt =
    /// None` picks [`ModelConfig::suggested_dt`].
    pub fn sample(
        mesh: &Mesh,
        config: &ModelConfig,
        test_case: TestCase,
        kc: &KernelCoeffs,
        dt: Option<f64>,
    ) -> Self {
        let (state, b) = test_case.sample(mesh, config.n_tracers);
        let f_vertex = test_case.coriolis_vertex(mesh);
        let dt = dt.unwrap_or_else(|| ModelConfig::suggested_dt(mesh));
        let forcing = test_case
            .needs_forcing()
            .then(|| compute_equilibrium_forcing(mesh, config, kc, &test_case, &b, &f_vertex, dt));
        InitialFields {
            test_case,
            state,
            b,
            f_vertex,
            dt,
            forcing,
        }
    }

    /// Panic unless these fields fit `mesh` and `config` (a shared `Arc`
    /// handed to the wrong model would otherwise index out of bounds or
    /// silently drop tracers).
    pub fn check_fits(&self, mesh: &Mesh, config: &ModelConfig) {
        assert_eq!(self.state.h.len(), mesh.n_cells(), "initial fields: cells");
        assert_eq!(self.state.u.len(), mesh.n_edges(), "initial fields: edges");
        assert_eq!(
            self.f_vertex.len(),
            mesh.n_vertices(),
            "initial fields: vertices"
        );
        assert_eq!(
            self.state.n_tracers(),
            config.n_tracers,
            "initial fields: tracers"
        );
    }

    /// The fixed thickness `h_err` compares against: the initial `h`
    /// itself (`reference_thickness_at(p, t)` is `thickness_at(p)` for
    /// every case but Williamson 1, so the bits are the same), or `None`
    /// for Williamson 1, whose advected bell moves.
    pub fn h_reference(&self) -> Option<&[f64]> {
        (!self.test_case.reference_moves()).then_some(&self.state.h[..])
    }

    /// Thickness error norms of `h` at model time `t` against the case's
    /// reference: [`InitialFields::h_reference`] without sampling
    /// anything, or Williamson 1's bell sampled at `t`.
    pub fn h_error_norms(&self, mesh: &Mesh, h: &[f64], t: f64) -> ErrorNorms {
        match self.h_reference() {
            Some(reference) => ErrorNorms::compute(h, reference, &mesh.area_cell),
            None => {
                let reference = self.test_case.reference_thickness(mesh, t);
                ErrorNorms::compute(h, &reference, &mesh.area_cell)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_matches_the_per_point_samplers_bit_for_bit() {
        let mesh = mpas_mesh::generate(2, 0);
        let config = ModelConfig {
            n_tracers: 3,
            ..Default::default()
        };
        let kc = KernelCoeffs::build(&mesh, &config);
        for tc in [
            TestCase::Case1 { alpha: 0.7 },
            TestCase::Case2 { alpha: 0.3 },
            TestCase::Case3,
            TestCase::Case4,
            TestCase::Case5,
            TestCase::Case6,
            TestCase::Galewsky,
        ] {
            let init = InitialFields::sample(&mesh, &config, tc, &kc, None);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let h: Vec<f64> = mesh.x_cell.iter().map(|&p| tc.thickness_at(p)).collect();
            let b: Vec<f64> = mesh.x_cell.iter().map(|&p| tc.topography_at(p)).collect();
            let f: Vec<f64> = mesh.x_vertex.iter().map(|&p| tc.coriolis_at(p)).collect();
            assert_eq!(bits(&init.state.h), bits(&h), "{}: h", tc.name());
            if let Some(reference) = init.h_reference() {
                let fresh = tc.reference_thickness(&mesh, 1e5);
                assert_eq!(bits(reference), bits(&fresh), "{}: ref", tc.name());
            }
            assert_eq!(bits(&init.b), bits(&b), "{}: b", tc.name());
            assert_eq!(bits(&init.f_vertex), bits(&f), "{}: f", tc.name());
            assert_eq!(init.dt, ModelConfig::suggested_dt(&mesh));
            assert_eq!(init.forcing.is_some(), tc.needs_forcing());
            // A fixed reference is the initial thickness itself.
            let zero = init.h_error_norms(&mesh, &init.state.h, 0.0);
            assert_eq!((zero.l1, zero.l2, zero.linf), (0.0, 0.0, 0.0));
        }
    }
}
