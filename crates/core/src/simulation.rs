//! The user-facing `Simulation` facade.

use mpas_hybrid::Platform;
use mpas_mesh::{Mesh, Reordering};
use mpas_swe::coeffs::KernelCoeffs;
use mpas_swe::config::ModelConfig;
use mpas_swe::norms::ErrorNorms;
use mpas_swe::state::State;
use mpas_swe::testcases::TestCase;
use mpas_swe::{Exec, InitialFields, ShallowWaterModel};
use mpas_telemetry::Recorder;
use std::sync::Arc;

/// Which execution engine advances the model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Executor {
    /// The reference single-threaded code ("original CPU code").
    Serial,
    /// The OpenMP-analog threaded executor.
    Threaded {
        /// Worker threads in the pool.
        threads: usize,
    },
    /// The two-pool pattern-driven hybrid executor of Fig. 4 (b).
    Hybrid {
        /// Workers in the host pool.
        cpu_threads: usize,
        /// Workers in the simulated-accelerator pool.
        acc_threads: usize,
    },
}

impl Executor {
    /// The executor a model runs on for this choice. The hybrid executor's
    /// accelerator pool takes the share of each split range that the
    /// paper node's relative memory bandwidths give it.
    pub fn exec(self) -> Exec {
        match self {
            Executor::Serial => Exec::serial(),
            Executor::Threaded { threads } => Exec::threaded(threads),
            Executor::Hybrid {
                cpu_threads,
                acc_threads,
            } => Exec::hybrid(
                cpu_threads,
                acc_threads,
                acc_fraction(&Platform::paper_node()),
            ),
        }
    }
}

/// The accelerator's share of a split range on `platform`: its part of
/// the two devices' memory bandwidth.
fn acc_fraction(platform: &Platform) -> f64 {
    platform.acc.mem_bw / (platform.acc.mem_bw + platform.cpu.mem_bw)
}

/// Builder for [`Simulation`].
pub struct SimulationBuilder {
    mesh_level: u32,
    lloyd_iters: u32,
    mesh: Option<Arc<Mesh>>,
    kernel_coeffs: Option<Arc<KernelCoeffs>>,
    initial_fields: Option<Arc<InitialFields>>,
    test_case: TestCase,
    config: ModelConfig,
    dt: Option<f64>,
    executor: Executor,
    reorder: Reordering,
    recorder: Recorder,
}

impl Default for SimulationBuilder {
    fn default() -> Self {
        SimulationBuilder {
            mesh_level: 3,
            lloyd_iters: 0,
            mesh: None,
            kernel_coeffs: None,
            initial_fields: None,
            test_case: TestCase::Case5,
            config: ModelConfig::default(),
            dt: None,
            executor: Executor::Serial,
            reorder: Reordering::None,
            recorder: Recorder::noop(),
        }
    }
}

impl SimulationBuilder {
    /// Icosahedral subdivision level (6..=9 match the paper's Table III).
    pub fn mesh_level(mut self, level: u32) -> Self {
        self.mesh_level = level;
        self
    }

    /// Lloyd relaxation sweeps applied to the mesh.
    pub fn lloyd_iters(mut self, iters: u32) -> Self {
        self.lloyd_iters = iters;
        self
    }

    /// Use a pre-built mesh instead of generating one.
    pub fn mesh(mut self, mesh: Arc<Mesh>) -> Self {
        self.mesh = Some(mesh);
        self
    }

    /// Reuse an already-built fused-coefficient table instead of building
    /// one. It must have been built for the final mesh (after any
    /// [`SimulationBuilder::reorder`]) and the configured [`ModelConfig`];
    /// the multi-tenant server uses this to share one table across
    /// concurrent simulations on the same cached mesh.
    pub fn kernel_coeffs(mut self, coeffs: Arc<KernelCoeffs>) -> Self {
        self.kernel_coeffs = Some(coeffs);
        self
    }

    /// Start from already-sampled initial fields instead of sampling them.
    /// They must have been sampled on the final mesh with the configured
    /// [`ModelConfig`], test case and dt (the build checks the case, the
    /// dt when one is set, and the sizes); the multi-tenant server uses
    /// this to share one sample across every job of the same key.
    pub fn initial_fields(mut self, init: Arc<InitialFields>) -> Self {
        self.initial_fields = Some(init);
        self
    }

    /// Williamson test case (2, 5 or 6).
    pub fn test_case(mut self, tc: TestCase) -> Self {
        self.test_case = tc;
        self
    }

    /// Numerical options.
    pub fn config(mut self, config: ModelConfig) -> Self {
        self.config = config;
        self
    }

    /// Explicit time step (seconds); default picks a stable CFL value.
    pub fn dt(mut self, dt: f64) -> Self {
        self.dt = Some(dt);
        self
    }

    /// Execution engine.
    pub fn executor(mut self, e: Executor) -> Self {
        self.executor = e;
        self
    }

    /// Renumber the mesh for gather locality before the model is built
    /// (Morton/SFC or Cuthill–McKee BFS cell order with first-touch edge
    /// and vertex numbering). Test-case initializers are position-based,
    /// so results are independent of the ordering; only memory-access
    /// locality changes. Default: construction order.
    pub fn reorder(mut self, r: Reordering) -> Self {
        self.reorder = r;
        self
    }

    /// Route telemetry (per-step `core.sim.*` metrics and the engine's
    /// kernel-level timers) into `rec`. The default no-op recorder costs
    /// one branch per hook.
    pub fn recorder(mut self, rec: Recorder) -> Self {
        self.recorder = rec;
        self
    }

    /// Build the simulation (generates the mesh if none was supplied).
    pub fn build(self) -> Simulation {
        let mesh = match self.mesh {
            Some(m) => crate::setup::apply_reorder(m, self.reorder),
            None => crate::setup::build_mesh(self.mesh_level, self.lloyd_iters, self.reorder),
        };
        let kc = self
            .kernel_coeffs
            .unwrap_or_else(|| Arc::new(KernelCoeffs::build(&mesh, &self.config)));
        let init = match self.initial_fields {
            Some(init) => {
                assert_eq!(
                    init.test_case, self.test_case,
                    "initial fields of another case"
                );
                if let Some(dt) = self.dt {
                    assert_eq!(init.dt, dt, "initial fields sampled for another dt");
                }
                init
            }
            None => Arc::new(InitialFields::sample(
                &mesh,
                &self.config,
                self.test_case,
                &kc,
                self.dt,
            )),
        };
        let model = ShallowWaterModel::from_initial_on(
            mesh.clone(),
            self.config,
            init,
            kc,
            self.executor.exec(),
        )
        .with_recorder(self.recorder.clone());
        let mut sim = Simulation {
            mesh,
            model,
            test_case: self.test_case,
            config: self.config,
            initial_mass: 0.0,
            initial_tracer_mass: Vec::new(),
            recorder: self.recorder,
        };
        sim.initial_mass = sim.total_mass();
        sim.initial_tracer_mass = (0..sim.config.n_tracers)
            .map(|k| sim.total_tracer(k))
            .collect();
        sim
    }
}

/// A configured shallow-water simulation.
pub struct Simulation {
    /// The mesh being integrated.
    pub mesh: Arc<Mesh>,
    model: ShallowWaterModel,
    /// The configured scenario.
    pub test_case: TestCase,
    /// The numerical options the engine was built with.
    pub config: ModelConfig,
    initial_mass: f64,
    initial_tracer_mass: Vec<f64>,
    recorder: Recorder,
}

impl Simulation {
    /// Start building a simulation.
    pub fn builder() -> SimulationBuilder {
        SimulationBuilder::default()
    }

    /// Advance `n` RK-4 steps. With a live recorder each step is a
    /// `core.step` span that lands one `core.sim.step_seconds` sample,
    /// and the `core.sim.mass_drift` / `h_err_l2` / `max_courant` (and
    /// `tracer_mass_drift`) gauges follow it.
    pub fn run_steps(&mut self, n: usize) {
        for _ in 0..n {
            self.recorded(ShallowWaterModel::step);
        }
    }

    /// One CFL-monitored adaptive step
    /// ([`ShallowWaterModel::step_adaptive`]), recorded exactly like a step
    /// of [`Simulation::run_steps`]. Returns the Courant number measured
    /// before the step, the one `dt` was tuned against.
    pub fn step_adaptive(&mut self, cfl_target: f64, band: f64) -> f64 {
        self.recorded(|m| m.step_adaptive(cfl_target, band))
    }

    /// Advance one step through `step`, recorded as
    /// [`Simulation::run_steps`] describes: the one place a step of a
    /// `Simulation` is recorded.
    fn recorded<T>(&mut self, step: impl FnOnce(&mut ShallowWaterModel) -> T) -> T {
        if !self.recorder.is_enabled() {
            return step(&mut self.model);
        }
        let out = {
            let _span = self
                .recorder
                .span_timed("measured", "core.step", "core.sim.step_seconds");
            step(&mut self.model)
        };
        self.recorder
            .set_gauge("core.sim.mass_drift", self.mass_drift());
        self.recorder
            .set_gauge("core.sim.h_err_l2", self.h_error_norms().l2);
        self.recorder
            .set_gauge("core.sim.max_courant", self.max_courant());
        if let Some(d) = self.tracer_mass_drift() {
            self.recorder.set_gauge("core.sim.tracer_mass_drift", d);
        }
        out
    }

    /// The telemetry sink configured at build time.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The prognostic state (layer 0 for layered runs — the validated
    /// lane; use [`Simulation::state_digest`] to cover every layer).
    pub fn state(&self) -> &State {
        self.model.layer0()
    }

    /// FNV-1a digest of the full prognostic state: every lane of every
    /// field ([`crate::runner::state_hash`] of the `k`-lane state; at one
    /// layer the plain state's digest).
    pub fn state_digest(&self) -> u64 {
        crate::runner::state_hash(&self.model.state)
    }

    /// Number of vertical layers carried.
    pub fn n_layers(&self) -> usize {
        self.model.n_layers()
    }

    /// Time step in seconds.
    pub fn dt(&self) -> f64 {
        self.model.dt
    }

    /// Model time in seconds.
    pub fn time(&self) -> f64 {
        self.model.time
    }

    /// Maximum Courant number over edges at the current state, using the
    /// external gravity-wave speed `|u| + sqrt(g h_edge)` — the stability
    /// quantity the CFL invariant monitors.
    pub fn max_courant(&self) -> f64 {
        self.model.max_courant()
    }

    /// Total mass of tracer `k` (`∫ h·q dA`, conserved to rounding).
    pub fn total_tracer(&self, k: usize) -> f64 {
        self.model.total_tracer(k)
    }

    /// Largest relative tracer-mass drift since initialization across the
    /// configured tracers, or `None` when the run carries no tracers.
    pub fn tracer_mass_drift(&self) -> Option<f64> {
        if self.initial_tracer_mass.is_empty() {
            return None;
        }
        Some(
            self.initial_tracer_mass
                .iter()
                .enumerate()
                .map(|(k, &m0)| ((self.total_tracer(k) - m0) / m0).abs())
                .fold(0.0f64, f64::max),
        )
    }

    /// Total fluid mass (exactly conserved).
    pub fn total_mass(&self) -> f64 {
        self.model.total_mass()
    }

    /// Relative mass drift since initialization.
    pub fn mass_drift(&self) -> f64 {
        (self.total_mass() - self.initial_mass) / self.initial_mass
    }

    /// Thickness error norms against the test case's reference solution at
    /// the current model time: the initial field the run started from for
    /// every case whose reference does not move, the rigidly advected bell
    /// of case 1 otherwise ([`InitialFields::h_error_norms`]) — the same
    /// quantity [`mpas_swe::ShallowWaterModel::h_error_norms`] reports.
    pub fn h_error_norms(&self) -> ErrorNorms {
        self.model.h_error_norms()
    }

    /// Total height field `h + b` (the paper's Fig. 5 quantity).
    pub fn total_height(&self) -> Vec<f64> {
        self.model.total_height()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_produce_runnable_simulation() {
        let mut sim = Simulation::builder().mesh_level(2).build();
        sim.run_steps(2);
        assert!(sim.mass_drift().abs() < 1e-13);
    }

    #[test]
    fn executors_agree_bitwise() {
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        let mk = |e: Executor| {
            Simulation::builder()
                .mesh(mesh.clone())
                .test_case(TestCase::Case5)
                .executor(e)
                .build()
        };
        let mut serial = mk(Executor::Serial);
        let mut threaded = mk(Executor::Threaded { threads: 3 });
        let mut hybrid = mk(Executor::Hybrid {
            cpu_threads: 2,
            acc_threads: 2,
        });
        serial.run_steps(3);
        threaded.run_steps(3);
        hybrid.run_steps(3);
        assert_eq!(serial.state().max_abs_diff(threaded.state()), 0.0);
        assert_eq!(serial.state().max_abs_diff(hybrid.state()), 0.0);
    }

    #[test]
    fn explicit_dt_is_respected_by_every_executor() {
        let mesh = Arc::new(mpas_mesh::generate(2, 0));
        for e in [
            Executor::Serial,
            Executor::Threaded { threads: 2 },
            Executor::Hybrid {
                cpu_threads: 1,
                acc_threads: 1,
            },
        ] {
            let sim = Simulation::builder()
                .mesh(mesh.clone())
                .dt(123.0)
                .executor(e)
                .build();
            assert_eq!(sim.dt(), 123.0, "{e:?}");
        }
    }

    #[test]
    fn split_fraction_reflects_platform() {
        assert_eq!(
            Executor::Threaded { threads: 1 }.exec().acc_fraction(),
            None
        );
        let hybrid = Executor::Hybrid {
            cpu_threads: 1,
            acc_threads: 1,
        };
        let fraction = hybrid.exec().acc_fraction().unwrap();
        assert_eq!(fraction, acc_fraction(&Platform::paper_node()));
        assert!(fraction > 0.5, "accelerator should take the majority");
        assert!(fraction < 0.8);
    }

    #[test]
    fn recorder_collects_per_step_metrics_and_decisions() {
        let rec = Recorder::new();
        let mut sim = Simulation::builder()
            .mesh_level(2)
            .executor(Executor::Threaded { threads: 2 })
            .recorder(rec.clone())
            .build();
        sim.run_steps(3);
        let snap = rec.snapshot();
        // One step timer, the facade's: the model times no step and no
        // step counter duplicates the timer's count.
        let h = snap.histogram("core.sim.step_seconds").expect("step timer");
        assert_eq!(h.count, 3);
        assert!(snap.histogram("swe.step_seconds").is_none());
        assert_eq!(snap.counter("core.sim.steps"), None);
        assert!(snap.gauge("core.sim.mass_drift").unwrap().abs() < 1e-12);
        // Sweep timers from the pool executor: 4 RK stages x 3 steps.
        let b1 = snap.histogram("swe.kernel.B1.seconds").expect("B1");
        assert_eq!(b1.count, 12);
        // No kernel reads the output diagnostics: no step runs them.
        for label in ["A3", "A4", "X6"] {
            let name = format!("swe.kernel.{label}.seconds");
            assert!(snap.histogram(&name).is_none(), "{name}");
        }
        // A run models no schedule: no `sched.*` metric and no decision.
        let sched: Vec<_> = snap
            .counters
            .keys()
            .chain(snap.gauges.keys())
            .chain(snap.histograms.keys())
            .filter(|k| k.starts_with("sched."))
            .collect();
        assert!(sched.is_empty(), "{sched:?}");
        assert!(!rec.events().iter().any(|e| e.name == "sched.decision"));
        // Telemetry must not perturb the numerics.
        let mut plain = Simulation::builder()
            .mesh_level(2)
            .executor(Executor::Threaded { threads: 2 })
            .build();
        plain.run_steps(3);
        assert_eq!(sim.state().max_abs_diff(plain.state()), 0.0);
    }

    #[test]
    fn h_error_norms_sample_a_fixed_reference_once() {
        // Every catalog case: the norms equal a fresh sample of the
        // reference at the current time; only a moving reference
        // (Williamson 1) is sampled again.
        let mesh = Arc::new(mpas_mesh::generate(2, 0));
        for sc in &mpas_swe::validation::CATALOG {
            let (config, tc) = (sc.config(), sc.test_case);
            let kc = KernelCoeffs::build(&mesh, &config);
            let init = Arc::new(InitialFields::sample(&mesh, &config, tc, &kc, None));
            let mut sim = Simulation::builder()
                .mesh(mesh.clone())
                .test_case(tc)
                .config(config)
                .initial_fields(init.clone())
                .build();
            // Nothing is resampled: the run holds the very fields it was
            // handed, and a fixed reference is their initial thickness.
            assert!(Arc::ptr_eq(&sim.model.init, &init), "{}", sc.name);
            for _ in 0..2 {
                sim.run_steps(1);
                let reference = tc.reference_thickness(&mesh, sim.time());
                let want = ErrorNorms::compute(&sim.state().h, &reference, &mesh.area_cell);
                assert_eq!(sim.h_error_norms(), want, "{}", sc.name);
            }
            let cached = sim.model.init.h_reference();
            assert_eq!(cached.is_some(), !tc.reference_moves(), "{}", sc.name);
            if let Some(reference) = cached {
                assert!(std::ptr::eq(reference, &init.state.h[..]), "{}", sc.name);
            }
            // The builder's own sample is the same field, bit for bit.
            let own = Simulation::builder()
                .mesh(mesh.clone())
                .test_case(tc)
                .config(config)
                .build();
            assert_eq!(own.model.init.state, init.state, "{}", sc.name);
        }
    }

    #[test]
    fn case2_norms_accessible_through_facade() {
        let mut sim = Simulation::builder()
            .mesh_level(3)
            .test_case(TestCase::Case2 { alpha: 0.0 })
            .build();
        sim.run_steps(5);
        let n = sim.h_error_norms();
        assert!(n.l2 < 1e-2, "l2 {}", n.l2);
    }
}
