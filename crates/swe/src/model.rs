//! The shallow-water model: one state, one stage program, one executor.
//!
//! [`ShallowWaterModel`] is the only model. It owns a [`State`],
//! [`Diagnostics`] and tendency workspace of `k = config.n_layers` lanes
//! per entity ([`crate::layers`]; `k = 1` is the plain layout), the
//! executor its sweeps run on ([`Exec`]: serial, threaded or hybrid), and
//! advances through `stage::step`, Algorithm 1 written once. The output
//! diagnostics no step reads (A3, A4, X6) are computed on request
//! ([`ShallowWaterModel::cell_outputs`]). A distributed rank runs the same
//! model on its local mesh ([`ShallowWaterModel::owning`],
//! [`ShallowWaterModel::step_with`]).

use crate::coeffs::KernelCoeffs;
use crate::config::{KernelBackend, ModelConfig};
use crate::initial::{compute_equilibrium_forcing, InitialFields};
use crate::layers::take_lane;
use crate::norms::ErrorNorms;
use crate::stage::{self, Exec, Inputs, Workspace};
use crate::state::{CellOutputs, Diagnostics, State};
use crate::testcases::TestCase;
use mpas_mesh::Mesh;
use mpas_telemetry::Recorder;
use std::sync::Arc;

/// A shallow-water simulation on one mesh.
pub struct ShallowWaterModel {
    /// The mesh being integrated.
    pub mesh: Arc<Mesh>,
    /// Numerical options (`config.n_layers` is this model's `k`).
    pub config: ModelConfig,
    /// The fields this run started from: the scenario, the topography,
    /// the Coriolis field and the fixed forcing of forced cases
    /// (Williamson 4) are read from here, never copied, and broadcast
    /// across the lanes. Shared so a multi-tenant server samples them once
    /// per key.
    pub init: Arc<InitialFields>,
    /// Prognostic state, `k` lanes per entity.
    pub state: State,
    /// Current diagnostics (consistent with `state`), `k` lanes per entity.
    pub diag: Diagnostics,
    /// Precomputed kernel coefficients: the simd backend's tables and,
    /// once outputs are requested, the velocity-reconstruction tables
    /// every backend reads. Shared so multi-tenant servers can reuse one
    /// table across concurrent models on the same mesh/config.
    pub kernel_coeffs: Arc<KernelCoeffs>,
    /// Model time in seconds.
    pub time: f64,
    /// Time-step size in seconds.
    pub dt: f64,
    ws: Workspace,
    exec: Exec,
    /// Cells and edges the RK update writes: all of them, or a rank's
    /// owned prefix.
    owned: [usize; 2],
    /// Layer 0 as a single-layer state (`k > 1` only; refreshed after
    /// every step).
    layer0: Option<State>,
}

impl ShallowWaterModel {
    /// Initialize a serial model from a test case. `dt = None` picks the
    /// mesh-dependent stable default.
    pub fn new(mesh: Arc<Mesh>, config: ModelConfig, test_case: TestCase, dt: Option<f64>) -> Self {
        Self::new_on(mesh, config, test_case, dt, Exec::serial())
    }

    /// [`ShallowWaterModel::new`] on the executor `exec`.
    pub fn new_on(
        mesh: Arc<Mesh>,
        config: ModelConfig,
        test_case: TestCase,
        dt: Option<f64>,
        exec: Exec,
    ) -> Self {
        let kc = Arc::new(KernelCoeffs::build(&mesh, &config));
        let init = Arc::new(InitialFields::sample(&mesh, &config, test_case, &kc, dt));
        Self::from_initial_on(mesh, config, init, kc, exec)
    }

    /// A serial model started from already-sampled fields and an
    /// already-built coefficient table, both for this exact mesh and
    /// config ([`ShallowWaterModel::from_initial_on`]).
    pub fn from_initial(
        mesh: Arc<Mesh>,
        config: ModelConfig,
        init: Arc<InitialFields>,
        kernel_coeffs: Arc<KernelCoeffs>,
    ) -> Self {
        Self::from_initial_on(mesh, config, init, kernel_coeffs, Exec::serial())
    }

    /// Start from already-sampled fields and an already-built coefficient
    /// table, both for this exact mesh and config, on the executor `exec`.
    /// Only the state is copied out (broadcast across the lanes);
    /// everything else is read through the shared `Arc`s.
    ///
    /// This is the one place a configuration is checked against what runs
    /// it: panics unless `n_layers >= 1`, and unless a run of more than one
    /// layer has the simd backend and the serial executor.
    pub fn from_initial_on(
        mesh: Arc<Mesh>,
        config: ModelConfig,
        init: Arc<InitialFields>,
        kernel_coeffs: Arc<KernelCoeffs>,
        mut exec: Exec,
    ) -> Self {
        let k = config.n_layers;
        assert!(k >= 1, "n_layers must be at least 1");
        assert!(
            k == 1 || config.kernel_backend == KernelBackend::Simd,
            "n_layers > 1 requires the simd kernel backend"
        );
        exec.fit_lanes(k);
        init.check_fits(&mesh, &config);
        let state = init.state.broadcast(k);
        let diag = Diagnostics::zeros_lanes(&mesh, k);
        let mut m = ShallowWaterModel {
            ws: Workspace::zeros(&mesh, k, config.n_tracers),
            diag,
            layer0: None,
            state,
            dt: init.dt,
            init,
            kernel_coeffs,
            exec,
            owned: [mesh.n_cells(), mesh.n_edges()],
            config,
            time: 0.0,
            mesh,
        };
        m.refresh_diagnostics();
        m
    }

    /// Restrict the RK update to the first `cells` cells and `edges` edges:
    /// a rank's owned prefix of its local mesh. The rest of the state is
    /// the halo, which [`ShallowWaterModel::step_with`]'s hook fills.
    pub fn owning(mut self, cells: usize, edges: usize) -> Self {
        assert!(cells <= self.mesh.n_cells() && edges <= self.mesh.n_edges());
        self.owned = [cells, edges];
        self
    }

    /// Route this model's telemetry into `rec`: the sweep timers of the
    /// pool executor and of the serial executor at `k > 1` (DESIGN.md §8).
    /// The model does not time its steps; the code that drives them does
    /// (`core.sim.step_seconds`, `core.rank.step_seconds`).
    pub fn with_recorder(mut self, rec: Recorder) -> Self {
        self.set_recorder(rec);
        self
    }

    /// Route this model's telemetry into `rec`.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.exec.set_recorder(rec);
    }

    /// Number of vertical layers.
    pub fn n_layers(&self) -> usize {
        self.config.n_layers
    }

    /// Override the serial executor's cache-tile length (entities per
    /// block). Any positive value produces bitwise-identical results; this
    /// only moves the L2 working-set boundary.
    pub fn set_cell_block(&mut self, block: usize) {
        self.exec.set_cell_block(block);
    }

    /// Advance one RK-4 step.
    pub fn step(&mut self) {
        self.step_with(|_| {});
    }

    /// Advance one RK-4 step, calling `at_substep_end` on the state the
    /// next diagnostics read, once a substep, after the RK update (a
    /// distributed rank exchanges its halo there).
    pub fn step_with(&mut self, at_substep_end: impl FnMut(&mut State)) {
        let p = Inputs::new(
            &self.mesh,
            &self.config,
            &self.kernel_coeffs,
            &self.init,
            self.dt,
        );
        stage::step(
            &mut self.exec,
            &p,
            self.owned,
            &mut self.state,
            &mut self.diag,
            &mut self.ws,
            at_substep_end,
        );
        self.time += self.dt;
        self.refresh_layer0();
    }

    /// Advance `n` steps.
    pub fn run_steps(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Change the step size mid-run. The diagnostics (and any forcing) are
    /// refreshed because the APVM upwinding inside `pv_edge` — and hence
    /// the equilibrium forcing derived from it — depends on `dt`. A forced
    /// run takes its own copy of the shared fields before the forcing is
    /// replaced.
    pub fn set_dt(&mut self, dt: f64) {
        if dt == self.dt {
            return;
        }
        self.dt = dt;
        self.refresh_diagnostics();
        if self.init.forcing.is_some() {
            let forcing = compute_equilibrium_forcing(
                &self.mesh,
                &self.config,
                &self.kernel_coeffs,
                &self.init.test_case,
                &self.init.b,
                &self.init.f_vertex,
                dt,
            );
            let init = Arc::make_mut(&mut self.init);
            init.forcing = Some(forcing);
            init.dt = dt;
        }
    }

    /// Recompute the diagnostics from the current prognostic state (needed
    /// after externally mutating `state` or `dt`).
    pub fn refresh_diagnostics(&mut self) {
        let p = Inputs::new(
            &self.mesh,
            &self.config,
            &self.kernel_coeffs,
            &self.init,
            self.dt,
        );
        let (h, u) = (&self.state.h, &self.state.u);
        stage::diagnostics(&mut self.exec, &p, h, u, &mut self.diag);
        self.refresh_layer0();
    }

    /// The output diagnostics of the current state, on this model's
    /// executor: the cell vorticity (A3) and the reconstructed cell-center
    /// velocity (A4, X6). `None` at `k > 1`: they are one layer's output
    /// product.
    pub fn cell_outputs(&mut self) -> Option<CellOutputs> {
        if self.config.n_layers > 1 {
            return None;
        }
        let p = Inputs::new(
            &self.mesh,
            &self.config,
            &self.kernel_coeffs,
            &self.init,
            self.dt,
        );
        let mut out = CellOutputs::zeros(&self.mesh);
        let (u, vorticity) = (&self.state.u, &self.diag.vorticity);
        stage::cell_outputs(&mut self.exec, &p, u, vorticity, &mut out);
        Some(out)
    }

    fn refresh_layer0(&mut self) {
        let k = self.config.n_layers;
        if k == 1 {
            return;
        }
        let s = &self.state;
        let layer0 = self.layer0.get_or_insert_with(|| s.lane(k, 0));
        take_lane(&s.h, k, 0, &mut layer0.h);
        take_lane(&s.u, k, 0, &mut layer0.u);
        for (dst, src) in layer0.tracers.iter_mut().zip(&s.tracers) {
            take_lane(src, k, 0, dst);
        }
    }

    /// Layer 0 as a single-layer state: the state itself at `k = 1`.
    pub fn layer0(&self) -> &State {
        self.layer0.as_ref().unwrap_or(&self.state)
    }

    /// Any layer as a single-layer state (a copy).
    pub fn extract_layer(&self, l: usize) -> State {
        self.state.lane(self.config.n_layers, l)
    }

    /// One CFL-monitored adaptive step: measure the Courant number of the
    /// current state, rescale `dt` toward `cfl_target` when outside the
    /// relative `band` around it (growth/shrink clamped to [½, 2]× per
    /// step), then advance. Returns the Courant number that was measured —
    /// the caller feeds it to the `InvariantMonitor` gauge so a CFL
    /// violation that adaptation cannot hold down still raises an alert.
    pub fn step_adaptive(&mut self, cfl_target: f64, band: f64) -> f64 {
        let c = self.max_courant();
        if c > 0.0 {
            let lo = cfl_target * (1.0 - band);
            let hi = cfl_target * (1.0 + band);
            if c < lo || c > hi {
                let scale = (cfl_target / c).clamp(0.5, 2.0);
                self.set_dt(self.dt * scale);
            }
        }
        self.step();
        c
    }

    /// Number of steps needed to reach `days` of simulated time.
    pub fn steps_for_days(&self, days: f64) -> usize {
        (days * mpas_geom::SECONDS_PER_DAY / self.dt).ceil() as usize
    }

    /// Total fluid mass `∫ h dA` of layer `l`.
    pub fn total_mass_layer(&self, l: usize) -> f64 {
        let k = self.config.n_layers;
        let h = self.state.h.iter().skip(l).step_by(k);
        h.zip(&self.mesh.area_cell).map(|(h, a)| h * a).sum()
    }

    /// Total fluid mass `∫ h dA` of layer 0 (exactly conserved by the
    /// scheme).
    pub fn total_mass(&self) -> f64 {
        self.total_mass_layer(0)
    }

    /// Total mass of tracer `t` in layer 0: `∫ h·q dA` (conserved to
    /// rounding by the flux-form T1 kernel).
    pub fn total_tracer(&self, t: usize) -> f64 {
        let hq = self.state.tracers[t].iter().step_by(self.config.n_layers);
        hq.zip(&self.mesh.area_cell).map(|(q, a)| q * a).sum()
    }

    /// Total energy of layer 0, `∫ [h·K + ½ g ((h+b)² − b²)] dA`.
    pub fn total_energy(&self) -> f64 {
        let (g, k) = (self.config.gravity, self.config.n_layers);
        (0..self.mesh.n_cells())
            .map(|i| {
                let h = self.state.h[i * k];
                let b = self.init.b[i];
                (h * self.diag.ke[i * k] + 0.5 * g * ((h + b).powi(2) - b * b))
                    * self.mesh.area_cell[i]
            })
            .sum()
    }

    /// Potential enstrophy of layer 0, `∫ ½ h_v q_v² dA_v`.
    pub fn potential_enstrophy(&self) -> f64 {
        let (mesh, k) = (&self.mesh, self.config.n_layers);
        (0..mesh.n_vertices())
            .map(|v| {
                let mut hv = 0.0;
                for c in 0..3 {
                    hv += mesh.kite_areas_on_vertex[v][c]
                        * self.state.h[mesh.cells_on_vertex[v][c] as usize * k];
                }
                hv /= mesh.area_triangle[v];
                0.5 * hv * self.diag.pv_vertex[v * k].powi(2) * mesh.area_triangle[v]
            })
            .sum()
    }

    /// Layer-0 thickness error norms against the test case's reference at
    /// the current model time: the initial field the run started from, or
    /// Case 1's rigidly advected bell ([`InitialFields::h_error_norms`]).
    pub fn h_error_norms(&self) -> ErrorNorms {
        self.init
            .h_error_norms(&self.mesh, &self.layer0().h, self.time)
    }

    /// Layer-0 maximum Courant number over edges, using the external
    /// gravity-wave speed `|u| + sqrt(g h_edge)` — the stability monitor
    /// for the explicit RK-4 stepping.
    pub fn max_courant(&self) -> f64 {
        let (g, k) = (self.config.gravity, self.config.n_layers);
        let u = self.state.u.iter().step_by(k);
        let h_edge = self.diag.h_edge.iter().step_by(k);
        u.zip(h_edge)
            .zip(&self.mesh.dc_edge)
            .map(|((u, he), dc)| (u.abs() + (g * he.max(0.0)).sqrt()) * self.dt / dc)
            .fold(0.0f64, f64::max)
    }

    /// Layer-0 total height field `h + b` (what the paper's Fig. 5 plots).
    pub fn total_height(&self) -> Vec<f64> {
        self.layer0()
            .h
            .iter()
            .zip(&self.init.b)
            .map(|(&h, &b)| h + b)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_model(tc: TestCase) -> ShallowWaterModel {
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        ShallowWaterModel::new(mesh, ModelConfig::default(), tc, None)
    }

    #[test]
    fn mass_is_conserved_to_machine_precision() {
        let mut m = small_model(TestCase::Case5);
        let m0 = m.total_mass();
        m.run_steps(10);
        let m1 = m.total_mass();
        let drift = (m1 - m0) / m0;
        assert!(drift.abs() < 1e-13, "mass drift {drift:e}");
    }

    #[test]
    fn case2_stays_near_steady_state() {
        let mut m = small_model(TestCase::Case2 { alpha: 0.0 });
        m.run_steps(20);
        let norms = m.h_error_norms();
        // Coarse mesh: discretization error dominates, but the state must
        // remain close to the analytic steady flow after 20 steps.
        assert!(norms.l2 < 5e-3, "l2 = {}", norms.l2);
        assert!(norms.linf < 2e-2, "linf = {}", norms.linf);
    }

    #[test]
    fn energy_drift_is_small() {
        let mut m = small_model(TestCase::Case6);
        let e0 = m.total_energy();
        m.run_steps(20);
        let e1 = m.total_energy();
        assert!(
            ((e1 - e0) / e0).abs() < 1e-6,
            "energy drift {}",
            (e1 - e0) / e0
        );
    }

    #[test]
    fn enstrophy_drift_is_small() {
        let mut m = small_model(TestCase::Case6);
        let s0 = m.potential_enstrophy();
        m.run_steps(20);
        let s1 = m.potential_enstrophy();
        assert!(
            ((s1 - s0) / s0).abs() < 1e-4,
            "enstrophy drift {}",
            (s1 - s0) / s0
        );
    }

    #[test]
    fn case5_total_height_spans_mountain() {
        let m = small_model(TestCase::Case5);
        let th = m.total_height();
        let max = th.iter().fold(f64::MIN, |a, &b| a.max(b));
        let min = th.iter().fold(f64::MAX, |a, &b| a.min(b));
        // Analytic range: gh0/g = 5960 m at the equator down to
        // 5960 − (aΩu0 + u0²/2)/g ≈ 4992 m at the poles.
        assert!(max < 6000.0 && min > 4950.0, "range [{min},{max}]");
    }

    #[test]
    fn solution_remains_finite_under_long_run() {
        let mut m = small_model(TestCase::Case5);
        m.run_steps(50);
        assert!(m.state.h.iter().all(|h| h.is_finite() && *h > 0.0));
        assert!(m.state.u.iter().all(|u| u.is_finite() && u.abs() < 300.0));
    }

    #[test]
    fn case4_background_is_a_bitwise_equilibrium() {
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        let mut m =
            ShallowWaterModel::new(mesh.clone(), ModelConfig::default(), TestCase::Case4, None);
        assert!(m.init.forcing.is_some());
        // Replace the perturbed initial state with the bare background:
        // under the equilibrium forcing it must not move at all.
        m.state = TestCase::Case4.background_state(&mesh);
        m.refresh_diagnostics();
        let before = m.state.clone();
        m.run_steps(3);
        assert_eq!(m.state.max_abs_diff(&before), 0.0, "background drifted");
    }

    #[test]
    fn case4_anomaly_actually_evolves() {
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        let mut m = ShallowWaterModel::new(mesh, ModelConfig::default(), TestCase::Case4, None);
        let before = m.state.clone();
        let mass0 = m.total_mass();
        m.run_steps(5);
        assert!(m.state.max_abs_diff(&before) > 1e-3, "anomaly frozen");
        let drift = (m.total_mass() - mass0) / mass0;
        assert!(drift.abs() < 1e-13, "mass drift {drift:e}");
    }

    #[test]
    fn tracer_mass_is_conserved() {
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        let config = ModelConfig {
            n_tracers: 2,
            ..Default::default()
        };
        let mut m = ShallowWaterModel::new(mesh, config, TestCase::Case5, None);
        let t0: Vec<f64> = (0..2).map(|k| m.total_tracer(k)).collect();
        m.run_steps(10);
        for (k, &mass0) in t0.iter().enumerate() {
            let drift = (m.total_tracer(k) - mass0) / mass0;
            assert!(drift.abs() < 1e-12, "tracer {k} drift {drift:e}");
        }
    }

    #[test]
    fn constant_tracer_tracks_thickness() {
        // Tracer 0 starts as q == 1 (hq == h); advection must keep q ~= 1.
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        let config = ModelConfig {
            n_tracers: 1,
            ..Default::default()
        };
        let mut m = ShallowWaterModel::new(mesh, config, TestCase::Case5, None);
        m.run_steps(10);
        for i in 0..m.mesh.n_cells() {
            let q = m.state.tracers[0][i] / m.state.h[i];
            assert!((q - 1.0).abs() < 1e-11, "cell {i}: q = {q}");
        }
    }

    #[test]
    fn adaptive_stepping_holds_the_target_cfl() {
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        let mut m = ShallowWaterModel::new(mesh, ModelConfig::default(), TestCase::Case5, None);
        // Start far too timid: dt at a tenth of the stable default.
        let dt0 = m.dt * 0.1;
        m.set_dt(dt0);
        let target = 0.2;
        let mut last = 0.0;
        for _ in 0..12 {
            last = m.step_adaptive(target, 0.1);
        }
        assert!(m.dt > dt0 * 2.0, "dt never grew: {} vs {dt0}", m.dt);
        assert!(
            (last - target).abs() < 0.5 * target,
            "courant {last} far from target"
        );
        assert!(m.state.h.iter().all(|h| h.is_finite() && *h > 0.0));
    }

    #[test]
    fn set_dt_refreshes_the_apvm_diagnostics() {
        let mesh = Arc::new(mpas_mesh::generate(2, 0));
        let mut m = ShallowWaterModel::new(mesh, ModelConfig::default(), TestCase::Case5, None);
        let pv_before = m.diag.pv_edge.clone();
        m.set_dt(m.dt * 2.0);
        assert!(m.diag.pv_edge != pv_before, "pv_edge stale after dt change");
    }

    #[test]
    fn set_dt_on_a_forced_case_copies_the_shared_fields() {
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        let config = ModelConfig::default();
        let kc = Arc::new(KernelCoeffs::build(&mesh, &config));
        let init = Arc::new(InitialFields::sample(
            &mesh,
            &config,
            TestCase::Case4,
            &kc,
            None,
        ));
        let forcing = init.forcing.as_ref().map(|f| f.tend_u.clone());
        let mut switched =
            ShallowWaterModel::from_initial(mesh.clone(), config, init.clone(), kc.clone());
        let dt = 0.5 * init.dt;
        switched.set_dt(dt);
        // The shared fields keep their dt and forcing; the switched model
        // steps exactly like one started at the new dt.
        assert!(!Arc::ptr_eq(&switched.init, &init));
        assert_eq!(init.dt, 2.0 * dt);
        assert_eq!(init.forcing.as_ref().map(|f| f.tend_u.clone()), forcing);
        let mut fresh = ShallowWaterModel::new(mesh, config, TestCase::Case4, Some(dt));
        switched.run_steps(2);
        fresh.run_steps(2);
        assert_eq!(switched.state.max_abs_diff(&fresh.state), 0.0);
    }

    #[test]
    fn cell_outputs_are_one_layers_and_leave_the_run_alone() {
        let mesh = Arc::new(mpas_mesh::generate(2, 0));
        let mut asked = small_model(TestCase::Case6);
        let mut plain = small_model(TestCase::Case6);
        asked.run_steps(2);
        let diag = asked.diag.clone();
        let outputs = asked.cell_outputs().expect("one layer");
        assert!(outputs.zonal.iter().any(|&z| z != 0.0));
        assert_eq!(asked.diag.pv_edge, diag.pv_edge);
        asked.run_steps(2);
        plain.run_steps(4);
        assert_eq!(asked.state, plain.state);
        let config = ModelConfig {
            n_layers: 2,
            ..Default::default()
        };
        let mut layered = ShallowWaterModel::new(mesh, config, TestCase::Case6, None);
        assert!(layered.cell_outputs().is_none());
    }

    #[test]
    fn steps_for_days_roundtrip() {
        let m = small_model(TestCase::Case5);
        let steps = m.steps_for_days(1.0);
        assert!((steps as f64 * m.dt - 86400.0).abs() < m.dt);
    }

    #[test]
    #[should_panic(expected = "n_layers must be at least 1")]
    fn zero_layers_are_rejected() {
        let mesh = Arc::new(mpas_mesh::generate(1, 0));
        let config = ModelConfig {
            n_layers: 0,
            ..Default::default()
        };
        ShallowWaterModel::new(mesh, config, TestCase::Case5, None);
    }

    #[test]
    #[should_panic(expected = "n_layers > 1 requires the simd kernel backend")]
    fn layers_on_the_scalar_backend_are_rejected() {
        let mesh = Arc::new(mpas_mesh::generate(1, 0));
        let config = ModelConfig {
            n_layers: 4,
            kernel_backend: KernelBackend::Scalar,
            ..Default::default()
        };
        ShallowWaterModel::new(mesh, config, TestCase::Case5, None);
    }

    #[test]
    #[should_panic(expected = "n_layers > 1 requires the serial executor")]
    fn layers_on_the_pool_executor_are_rejected() {
        let mesh = Arc::new(mpas_mesh::generate(1, 0));
        let config = ModelConfig {
            n_layers: 4,
            ..Default::default()
        };
        ShallowWaterModel::new_on(mesh, config, TestCase::Case5, None, Exec::threaded(2));
    }
}
