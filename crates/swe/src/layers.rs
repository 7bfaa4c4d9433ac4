//! The k-lane layout of a multi-layer run (DESIGN.md §14).
//!
//! A model of `k = config.n_layers` layers keeps its [`State`],
//! [`crate::Diagnostics`] and [`crate::Tendencies`] structure-of-arrays
//! with **contiguous lanes per entity**: `h[cell * k + lane]`,
//! `u[edge * k + lane]`. One gathered stencil index then feeds all `k`
//! lanes — the amortization the [`crate::kernels::simd`] tier exploits —
//! and a stride-`k` copy of lane `l` is a plain single-layer field. At
//! `k = 1` the layout is the plain one.
//!
//! The layers are `k` *independent* shallow-water instances sharing one
//! mesh, topography, Coriolis field and `dt`. Layer 0 carries the
//! unperturbed test case (validation applies to it unchanged); layer
//! `l > 0` starts from the same state with `h` and the tracer masses
//! scaled by [`layer_h_scale`], so the lanes decorrelate without changing
//! any per-lane arithmetic. Because every simd kernel evaluates the flat
//! coefficient-table expression per lane, **layer 0 of a `k`-layer run is
//! bitwise identical to a single-layer run**, and layer `l` is bitwise
//! identical to a single-layer run started from the scaled state.

use crate::state::State;

/// Thickness/tracer scale factor of layer `l`: layer 0 is the unperturbed
/// test case, deeper layers are progressively (and deterministically)
/// perturbed so the lanes carry distinct data.
pub fn layer_h_scale(l: usize) -> f64 {
    1.0 + 1e-3 * l as f64
}

/// Copy lane `l` of a `k`-lane field into a single-layer one.
pub(crate) fn take_lane(src: &[f64], k: usize, l: usize, dst: &mut [f64]) {
    for (d, lanes) in dst.iter_mut().zip(src.chunks_exact(k)) {
        *d = lanes[l];
    }
}

impl State {
    /// Broadcast a single-layer state across `k` lanes, scaling `h` and
    /// the tracer masses of lane `l` by [`layer_h_scale`]`(l)` (velocity
    /// is shared unscaled). Lane 0 reproduces `self` exactly.
    pub fn broadcast(&self, k: usize) -> State {
        let spread = |field: &[f64], scaled: bool| {
            let mut lanes = Vec::with_capacity(field.len() * k);
            for &x in field {
                lanes.extend((0..k).map(|l| if scaled { x * layer_h_scale(l) } else { x }));
            }
            lanes
        };
        State {
            h: spread(&self.h, true),
            u: spread(&self.u, false),
            tracers: self.tracers.iter().map(|t| spread(t, true)).collect(),
        }
    }

    /// Lane `l` of a `k`-lane state, as a single-layer state.
    pub fn lane(&self, k: usize, l: usize) -> State {
        assert!(l < k, "layer {l} out of {k}");
        let take = |src: &[f64]| {
            let mut dst = vec![0.0; src.len() / k];
            take_lane(src, k, l, &mut dst);
            dst
        };
        State {
            h: take(&self.h),
            u: take(&self.u),
            tracers: self.tracers.iter().map(|t| take(t)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{KernelBackend, ModelConfig};
    use crate::model::ShallowWaterModel;
    use crate::testcases::TestCase;
    use mpas_telemetry::Recorder;
    use std::sync::Arc;

    fn simd_config(n_layers: usize, n_tracers: usize) -> ModelConfig {
        ModelConfig {
            kernel_backend: KernelBackend::Simd,
            n_layers,
            n_tracers,
            ..Default::default()
        }
    }

    #[test]
    fn broadcast_extract_roundtrip() {
        let mesh = mpas_mesh::generate(2, 0);
        let flat = TestCase::Case5.initial_state_with_tracers(&mesh, 1);
        let layered = flat.broadcast(3);
        // Layer 0 is the unperturbed state, bit for bit.
        assert_eq!(layered.lane(3, 0), flat);
        // Layer 2 carries scaled thickness with shared velocity.
        let l2 = layered.lane(3, 2);
        assert_eq!(l2.u, flat.u);
        assert_eq!(l2.h[5], flat.h[5] * layer_h_scale(2));
        assert_eq!(l2.tracers[0][5], flat.tracers[0][5] * layer_h_scale(2));
        // One lane is the identity.
        assert_eq!(flat.broadcast(1), flat);
    }

    #[test]
    fn layer0_matches_single_layer_fused_run_bitwise() {
        // The central §14 claim: every lane replays the flat arithmetic,
        // so layer 0 of a k-layer run IS the single-layer run, whose bits
        // are the retired fused tier's (pinned in `kernels::dispatch`).
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        for tc in [TestCase::Case5, TestCase::Case4] {
            let mut flat = ShallowWaterModel::new(
                mesh.clone(),
                ModelConfig {
                    n_tracers: 1,
                    ..Default::default()
                },
                tc,
                None,
            );
            let mut layered = ShallowWaterModel::new(mesh.clone(), simd_config(4, 1), tc, None);
            flat.run_steps(3);
            layered.run_steps(3);
            assert_eq!(
                layered.layer0().max_abs_diff(&flat.state),
                0.0,
                "{tc:?}: layer 0 diverged from the flat run"
            );
        }
    }

    #[test]
    fn deeper_layers_match_flat_runs_from_scaled_states() {
        // Layer l>0 is bitwise a flat run started from the scaled
        // initial state (same broadcast forcing, same dt).
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        let k = 3;
        let mut layered =
            ShallowWaterModel::new(mesh.clone(), simd_config(k, 0), TestCase::Case5, None);
        layered.run_steps(2);
        for l in 1..k {
            let mut flat =
                ShallowWaterModel::new(mesh.clone(), ModelConfig::default(), TestCase::Case5, None);
            for h in flat.state.h.iter_mut() {
                *h *= layer_h_scale(l);
            }
            flat.refresh_diagnostics();
            flat.run_steps(2);
            assert_eq!(
                layered.extract_layer(l).max_abs_diff(&flat.state),
                0.0,
                "layer {l} diverged"
            );
        }
    }

    #[test]
    fn cache_block_size_does_not_change_bits() {
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        let mut reference =
            ShallowWaterModel::new(mesh.clone(), simd_config(4, 1), TestCase::Case6, None);
        reference.run_steps(2);
        for block in [1usize, 7, 100, usize::MAX / 2] {
            let mut m =
                ShallowWaterModel::new(mesh.clone(), simd_config(4, 1), TestCase::Case6, None);
            m.set_cell_block(block);
            m.run_steps(2);
            assert_eq!(m.state, reference.state, "block {block} changed bits");
        }
    }

    #[test]
    fn all_layers_conserve_mass() {
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        let k = 4;
        let mut m = ShallowWaterModel::new(mesh, simd_config(k, 0), TestCase::Case5, None);
        let m0: Vec<f64> = (0..k).map(|l| m.total_mass_layer(l)).collect();
        m.run_steps(8);
        for (l, &before) in m0.iter().enumerate() {
            let drift = (m.total_mass_layer(l) - before) / before;
            assert!(drift.abs() < 1e-13, "layer {l} mass drift {drift:e}");
        }
        // Scaled layers really carry distinct mass.
        assert!(m0[1] > m0[0]);
    }

    #[test]
    fn forced_case_background_stays_fixed_across_layer0() {
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        let mut m = ShallowWaterModel::new(mesh.clone(), simd_config(2, 0), TestCase::Case4, None);
        // Replace every lane of the state with the bare background (lane 0
        // only is the true equilibrium; lane 1 is scaled and may drift).
        let bg = TestCase::Case4.background_state(&mesh);
        m.state = bg.broadcast(2);
        m.refresh_diagnostics();
        m.run_steps(2);
        assert_eq!(m.layer0().max_abs_diff(&bg), 0.0, "background drifted");
    }

    #[test]
    fn per_kernel_telemetry_spans_land() {
        let rec = Recorder::new();
        let mesh = Arc::new(mpas_mesh::generate(2, 0));
        let mut m = ShallowWaterModel::new(mesh, simd_config(2, 1), TestCase::Case5, None)
            .with_recorder(rec.clone());
        m.run_steps(1);
        let snap = rec.snapshot();
        for label in [
            "A1", "B1", "H2", "C2+E", "A2+B2", "F", "H1+G", "T1", "X2+X4",
        ] {
            let name = format!("swe.kernel.{label}.seconds");
            let h = snap.histogram(&name).unwrap_or_else(|| panic!("{name}"));
            assert!(h.count > 0, "{name} empty");
        }
        // The model times its sweeps, never the step: the caller that
        // drives the step times it.
        assert!(snap.histogram("swe.step_seconds").is_none());
        assert_eq!(snap.counter("core.sim.steps"), None);
        // A single-layer serial run times no sweeps either.
        let flat_rec = Recorder::new();
        let mesh = Arc::new(mpas_mesh::generate(2, 0));
        let mut flat = ShallowWaterModel::new(mesh, simd_config(1, 1), TestCase::Case5, None)
            .with_recorder(flat_rec.clone());
        flat.run_steps(1);
        let snap = flat_rec.snapshot();
        assert!(snap.histogram("swe.step_seconds").is_none());
        assert!(snap
            .histograms
            .keys()
            .all(|k| !k.starts_with("swe.kernel.")));
    }
}
