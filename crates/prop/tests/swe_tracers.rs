//! Property tests of passive-tracer transport.
//!
//! Two physical guarantees back the tracer pattern:
//!
//! * **Conservation** — the T1 kernel is flux-form (every edge flux enters
//!   its two cells with opposite sign), so total tracer mass `∫ h·q dA`
//!   is conserved to rounding: at most `1e-12` relative drift per step,
//!   the same budget `mpas_swe::validation` gates runs against.
//! * **Constant-field preservation** — for a spatially constant
//!   concentration the centered edge value is exact, the tracer equation
//!   degenerates to the continuity equation, and `h·q` tracks `h`; no new
//!   concentration extrema appear.
//!
//! Both hold on random mesh levels and Lloyd relaxations, for every kernel
//! backend (scalar, simd), and for any tracer count.

use mpas_prop::check;
use mpas_swe::{KernelBackend, ModelConfig, ShallowWaterModel, TestCase};
use std::sync::Arc;

const CASES: usize = 8;

/// Total tracer mass drifts at most 1e-12 relative per step.
#[test]
fn tracer_mass_is_conserved() {
    check(CASES, |rng| {
        let level = rng.range(2u32..4);
        let lloyd = rng.range(0u32..2);
        let n_tracers = rng.range(1usize..4);
        let steps = rng.range(1usize..8);
        let backend = rng.pick(&KernelBackend::ALL);
        let tc = rng.pick(&[TestCase::Case5, TestCase::Case6]);
        let mesh = Arc::new(mpas_mesh::generate(level, lloyd));
        let cfg = ModelConfig {
            n_tracers,
            kernel_backend: backend,
            ..Default::default()
        };
        let mut m = ShallowWaterModel::new(mesh, cfg, tc, None);
        let mass0: Vec<f64> = (0..n_tracers).map(|k| m.total_tracer(k)).collect();
        m.run_steps(steps);
        for (k, m0) in mass0.iter().enumerate() {
            let drift = ((m.total_tracer(k) - m0) / m0).abs();
            assert!(
                drift <= 1e-12 * steps as f64,
                "tracer {k}: drift {drift:.3e} over {steps} steps"
            );
        }
    });
}

/// A spatially constant concentration stays constant (to rounding):
/// the advection operator introduces no new extrema for it.
#[test]
fn constant_concentration_is_preserved() {
    check(CASES, |rng| {
        let level = rng.range(2u32..4);
        let lloyd = rng.range(0u32..2);
        let steps = rng.range(1usize..6);
        let backend = rng.pick(&KernelBackend::ALL);
        let mesh = Arc::new(mpas_mesh::generate(level, lloyd));
        let cfg = ModelConfig {
            n_tracers: 1,
            kernel_backend: backend,
            ..Default::default()
        };
        let mut m = ShallowWaterModel::new(mesh, cfg, TestCase::Case5, None);
        // q ≡ 2.5 everywhere, i.e. tracer mass 2.5·h.
        for i in 0..m.mesh.n_cells() {
            m.state.tracers[0][i] = 2.5 * m.state.h[i];
        }
        m.run_steps(steps);
        for i in 0..m.mesh.n_cells() {
            let q = m.state.tracers[0][i] / m.state.h[i];
            assert!(
                (q - 2.5).abs() <= 2.5 * 1e-12,
                "cell {i}: q = {q} drifted from the constant"
            );
        }
    });
}
