//! Measurement-driven cost calibration.
//!
//! The schedulers in `mpas-sched` price every Table-I pattern instance with
//! the roofline model of [`crate::device`]. That model is deliberately
//! simple — `max(flops/peak, bytes/bw) + launch` — and systematic per-kernel
//! deviations (gather-heavy stencils, short trip counts, transcendental-free
//! streams) show up as a per-pattern multiplicative error. This module
//! measures that error on the machine the code actually runs on: it times
//! the *real* host executors from [`mpas_swe::kernels::ops`] — the same
//! kernel bodies [`crate::parallel::ParallelModel`] drives — one Table-I
//! instance at a time on realistic test-case-5 state, and fits
//!
//! ```text
//! coeff(pattern) = measured_serial_time / roofline_prediction
//! ```
//!
//! into a [`CalibratedCost`], the [`mpas_sched::CostModel`] that rescales
//! the roofline per pattern. Feed it to
//! [`mpas_sched::TaskDag::from_dataflow_with`] and every registered policy
//! schedules against measured, not modeled, costs.
//!
//! Three instances share an executor invocation and split its time evenly:
//! `D1`/`D2` are both produced by one [`ops::d2fdx2`] call, and `A4`'s
//! three Cartesian outputs come from one [`ops::reconstruct_xyz`] call.

use crate::parallel::ParallelModel;
use mpas_patterns::dataflow::{table_i, DataflowGraph, MeshCounts, RkPhase};
use mpas_sched::{CalibratedCost, DeviceSpec, Platform, SchedulerPolicy, TaskDag};
use mpas_swe::config::ModelConfig;
use mpas_swe::kernels::ops;
use mpas_swe::rk4::{RK_SUBSTEP, RK_WEIGHTS};
use mpas_swe::testcases::TestCase;
use mpas_telemetry::MetricsSnapshot;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// One pattern's measured-vs-predicted execution time.
#[derive(Debug, Clone)]
pub struct PatternCalibration {
    /// Table-I label (`"A1"`, …, `"X6"`).
    pub name: String,
    /// Best-of-`reps` wall-clock time of the serial host executor, seconds.
    pub measured: f64,
    /// Single-core roofline prediction for the same work, seconds.
    pub predicted: f64,
}

impl PatternCalibration {
    /// Fitted coefficient: `measured / predicted`.
    pub fn coeff(&self) -> f64 {
        self.measured / self.predicted
    }
}

/// Result of one calibration run: every Table-I pattern timed on a mesh.
#[derive(Debug, Clone)]
pub struct CalibrationReport {
    /// Cells in the calibration mesh.
    pub n_cells: usize,
    /// Timing repetitions per pattern (best-of is kept).
    pub reps: usize,
    /// Per-pattern measurements, in Table-I order.
    pub entries: Vec<PatternCalibration>,
}

impl CalibrationReport {
    /// The fitted coefficient for `name`, if that pattern was measured.
    pub fn coeff(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.coeff())
    }

    /// Largest multiplicative model error across patterns:
    /// `max(coeff, 1/coeff)`, so `1.0` means the roofline was exact.
    pub fn worst_ratio(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| e.coeff().max(1.0 / e.coeff()))
            .fold(1.0, f64::max)
    }

    /// Build the [`CostModel`](mpas_sched::CostModel) that rescales the
    /// roofline by the fitted per-pattern coefficients.
    pub fn cost_model(&self) -> CalibratedCost {
        let coeffs: HashMap<String, f64> = self
            .entries
            .iter()
            .map(|e| (e.name.clone(), e.coeff()))
            .collect();
        CalibratedCost::new(coeffs)
    }

    /// Modeled wall-clock seconds for one full RK4 step of a mesh with
    /// `mc` counts on `platform` under `policy`, priced with this report's
    /// calibrated costs: three intermediate-substep schedules plus one
    /// final-substep schedule, makespans summed. This is what the trace
    /// analyzer's measured critical path is compared against.
    pub fn modeled_time_per_step(
        &self,
        mc: &MeshCounts,
        platform: &Platform,
        policy: &dyn SchedulerPolicy,
    ) -> f64 {
        let cost = self.cost_model();
        let substep = |phase: RkPhase| {
            let graph = DataflowGraph::for_substep(phase);
            let dag = TaskDag::from_dataflow_with(&graph, mc, platform, &cost);
            policy.schedule(&dag, platform).makespan
        };
        3.0 * substep(RkPhase::Intermediate) + substep(RkPhase::Final)
    }
}

/// Best-of-`reps` wall-clock time of `f`, after one warm-up call.
fn time_best<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f(); // warm caches, fault pages
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Calibrate on a generated icosahedral mesh of the given subdivision
/// `level` (6 is the paper's 40 962-cell mesh) with best-of-`reps` timing.
pub fn calibrate_host(level: u32, reps: usize) -> CalibrationReport {
    let mesh = Arc::new(mpas_mesh::generate(level, 0));
    calibrate_on(mesh, reps)
}

/// Calibrate every Table-I pattern on `mesh`.
///
/// State comes from a [`ParallelModel`] on Williamson test case 5 (the
/// paper's benchmark case), advanced one step so all diagnostic fields are
/// realistic; each executor is then timed single-threaded over its full
/// output range, in data-flow order so every input is valid when read.
pub fn calibrate_on(mesh: Arc<mpas_mesh::Mesh>, reps: usize) -> CalibrationReport {
    // High-order thickness so the H2 executor runs the three-input branch
    // the Table-I instance describes (D1/D2 feed it).
    let config = ModelConfig {
        high_order_h_edge: true,
        ..ModelConfig::default()
    };
    let mut m = ParallelModel::new(mesh.clone(), config, TestCase::Case5, None, 1);
    m.step(); // populate diagnostics and reconstruction with live values

    let nc = mesh.n_cells();
    let ne = mesh.n_edges();
    let nv = mesh.n_vertices();
    let dt = m.dt;

    // Scratch fields the tendency/update patterns write into.
    let mut tend_h = vec![0.0; nc];
    let mut tend_u = vec![0.0; ne];
    let mut provis_h = vec![0.0; nc];
    let mut provis_u = vec![0.0; ne];
    let mut acc_h = m.state.h.clone();
    let mut acc_u = m.state.u.clone();

    // `(pattern name, measured seconds)`, accumulated in data-flow order.
    let mut measured: Vec<(&'static str, f64)> = Vec::new();

    // -- diagnostics ------------------------------------------------------
    let t = time_best(reps, || {
        ops::d2fdx2(
            &mesh,
            &m.state.h,
            &mut m.diag.d2fdx2_cell1,
            &mut m.diag.d2fdx2_cell2,
            0..ne,
        )
    });
    // One call produces both D1 and D2; split its cost evenly.
    measured.push(("D1", 0.5 * t));
    measured.push(("D2", 0.5 * t));

    let t = time_best(reps, || {
        ops::h_edge(
            &mesh,
            &m.config,
            &m.state.h,
            &m.diag.d2fdx2_cell1,
            &m.diag.d2fdx2_cell2,
            &mut m.diag.h_edge,
            0..ne,
        )
    });
    measured.push(("H2", t));

    let t = time_best(reps, || {
        ops::vorticity(&mesh, &m.state.u, &mut m.diag.vorticity, 0..nv)
    });
    measured.push(("C2", t));

    let t = time_best(reps, || ops::ke(&mesh, &m.state.u, &mut m.diag.ke, 0..nc));
    measured.push(("A2", t));

    let t = time_best(reps, || {
        ops::divergence(&mesh, &m.state.u, &mut m.diag.divergence, 0..nc)
    });
    measured.push(("B2", t));

    let t = time_best(reps, || {
        ops::tangential_velocity(&mesh, &m.state.u, &mut m.diag.v, 0..ne)
    });
    measured.push(("H1", t));

    let t = time_best(reps, || {
        ops::vorticity_cell(&mesh, &m.diag.vorticity, &mut m.diag.vorticity_cell, 0..nc)
    });
    measured.push(("A3", t));

    let t = time_best(reps, || {
        ops::pv_vertex(
            &mesh,
            &m.state.h,
            &m.diag.vorticity,
            &m.init.f_vertex,
            &mut m.diag.pv_vertex,
            0..nv,
        )
    });
    measured.push(("E", t));

    let t = time_best(reps, || {
        ops::pv_cell(&mesh, &m.diag.pv_vertex, &mut m.diag.pv_cell, 0..nc)
    });
    measured.push(("F", t));

    let t = time_best(reps, || {
        ops::pv_edge(
            &mesh,
            m.config.apvm_factor,
            dt,
            &m.diag.pv_vertex,
            &m.diag.pv_cell,
            &m.state.u,
            &m.diag.v,
            &mut m.diag.pv_edge,
            0..ne,
        )
    });
    measured.push(("G", t));

    // -- tendencies -------------------------------------------------------
    let t = time_best(reps, || {
        ops::tend_h(&mesh, &m.state.u, &m.diag.h_edge, &mut tend_h, 0..nc)
    });
    measured.push(("A1", t));

    let t = time_best(reps, || {
        ops::tend_u(
            &mesh,
            m.config.gravity,
            &m.diag.pv_edge,
            &m.state.u,
            &m.diag.h_edge,
            &m.diag.ke,
            &m.state.h,
            &m.init.b,
            &mut tend_u,
            0..ne,
        )
    });
    measured.push(("B1", t));

    // C1 is read-modify-write on tend_u; a representative viscosity keeps
    // the arithmetic identical whether or not the run enables del2.
    let nu = if m.config.del2_viscosity > 0.0 {
        m.config.del2_viscosity
    } else {
        1.0e4
    };
    let t = time_best(reps, || {
        ops::tend_u_del2(
            &mesh,
            nu,
            &m.diag.divergence,
            &m.diag.vorticity,
            &mut tend_u,
            0..ne,
        )
    });
    measured.push(("C1", t));

    let t = time_best(reps, || ops::enforce_boundary(&mesh, &mut tend_u, 0..ne));
    measured.push(("X1", t));

    // -- state updates ----------------------------------------------------
    let t = time_best(reps, || {
        ops::axpy(
            &m.state.h,
            &tend_h,
            RK_SUBSTEP[0] * dt,
            &mut provis_h,
            0..nc,
        )
    });
    measured.push(("X2", t));

    let t = time_best(reps, || {
        ops::axpy(
            &m.state.u,
            &tend_u,
            RK_SUBSTEP[0] * dt,
            &mut provis_u,
            0..ne,
        )
    });
    measured.push(("X3", t));

    let t = time_best(reps, || {
        ops::accumulate(&tend_h, RK_WEIGHTS[0] * dt, &mut acc_h, 0..nc)
    });
    measured.push(("X4", t));

    let t = time_best(reps, || {
        ops::accumulate(&tend_u, RK_WEIGHTS[0] * dt, &mut acc_u, 0..ne)
    });
    measured.push(("X5", t));

    // -- reconstruction ---------------------------------------------------
    let t = time_best(reps, || {
        ops::reconstruct_xyz(
            &mesh,
            &m.kcoeffs,
            &m.state.u,
            &mut m.recon.ux,
            &mut m.recon.uy,
            &mut m.recon.uz,
            0..nc,
        )
    });
    measured.push(("A4", t));

    let t = time_best(reps, || {
        ops::zonal_meridional(
            &m.kcoeffs,
            &m.recon.ux,
            &m.recon.uy,
            &m.recon.uz,
            &mut m.recon.zonal,
            &mut m.recon.meridional,
            0..nc,
        )
    });
    measured.push(("X6", t));

    // -- fit --------------------------------------------------------------
    let mc = MeshCounts {
        n_cells: nc as f64,
        n_edges: ne as f64,
        n_vertices: nv as f64,
    };
    let cpu = DeviceSpec::cpu_single_core();
    let instances = table_i();
    let entries = measured
        .into_iter()
        .map(|(name, secs)| {
            let inst = instances
                .iter()
                .find(|i| i.name == name)
                .unwrap_or_else(|| panic!("{name} not in Table I"));
            PatternCalibration {
                name: name.to_string(),
                measured: secs,
                predicted: cpu.node_time(inst.work(&mc)),
            }
        })
        .collect();
    CalibrationReport {
        n_cells: nc,
        reps,
        entries,
    }
}

/// Fit a calibration from the `hybrid.kernel.<label>.seconds` histograms a
/// telemetry [`Recorder`](mpas_telemetry::Recorder) collected while a
/// [`ParallelModel`] (threaded or hybrid) ran — the in-situ
/// alternative to [`calibrate_on`]'s dedicated timing loop.
///
/// The p50 of each histogram is the measured time (robust to warm-up
/// outliers the best-of-`reps` loop avoids by construction). The shared
/// `D1D2` timer covers one [`ops::d2fdx2`] call that produces both `D1` and
/// `D2`; its time is split evenly, mirroring [`calibrate_on`]. Patterns
/// with no recorded histogram (e.g. `C1` when `del2_viscosity == 0`) are
/// simply absent from the report; [`CalibratedCost`] falls back to the
/// plain roofline for them.
pub fn calibration_from_metrics(snapshot: &MetricsSnapshot, mc: &MeshCounts) -> CalibrationReport {
    let cpu = DeviceSpec::cpu_single_core();
    let instances = table_i();
    let mut entries = Vec::new();
    for inst in &instances {
        let measured = match inst.name {
            "D1" | "D2" => snapshot
                .histogram("hybrid.kernel.D1D2.seconds")
                .map(|h| 0.5 * h.p50),
            name => snapshot
                .histogram(&format!("hybrid.kernel.{name}.seconds"))
                .map(|h| h.p50),
        };
        if let Some(measured) = measured {
            entries.push(PatternCalibration {
                name: inst.name.to_string(),
                measured,
                predicted: cpu.node_time(inst.work(mc)),
            });
        }
    }
    CalibrationReport {
        n_cells: mc.n_cells as usize,
        reps: 1,
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpas_patterns::dataflow::{DataflowGraph, RkPhase};
    use mpas_sched::{Platform, SchedulerPolicy, TaskDag};

    #[test]
    fn calibration_covers_every_table_i_pattern() {
        // Small mesh: checks plumbing, not timing quality.
        let report = calibrate_host(3, 2);
        let names: Vec<&str> = report.entries.iter().map(|e| e.name.as_str()).collect();
        for inst in table_i() {
            assert!(names.contains(&inst.name), "{} not calibrated", inst.name);
        }
        assert_eq!(report.entries.len(), table_i().len());
        for e in &report.entries {
            assert!(
                e.measured > 0.0 && e.measured.is_finite(),
                "{}: bad measurement {}",
                e.name,
                e.measured
            );
            assert!(e.predicted > 0.0 && e.predicted.is_finite());
            assert!(e.coeff() > 0.0 && e.coeff().is_finite());
        }
        assert!(report.worst_ratio() >= 1.0);
    }

    #[test]
    fn calibrated_cost_drives_the_schedulers() {
        // A calibrated dag must be schedulable by any registered policy
        // and reproduce measured * coeff = measured by construction.
        let report = calibrate_host(3, 2);
        let cost = report.cost_model();
        let mc = MeshCounts::icosahedral(40_962);
        let graph = DataflowGraph::for_substep(RkPhase::Intermediate);
        let platform = Platform::paper_node();
        let dag = TaskDag::from_dataflow_with(&graph, &mc, &platform, &cost);
        for spec in mpas_sched::registered_names() {
            let policy = mpas_sched::resolve(spec).unwrap();
            let s = policy.schedule(&dag, &platform);
            assert!(s.makespan > 0.0 && s.makespan.is_finite(), "{spec}");
        }
    }

    #[test]
    fn metrics_driven_calibration_covers_instrumented_patterns() {
        // Run the instrumented executor under a live recorder, then fit a
        // calibration from the collected histograms.
        let rec = mpas_telemetry::Recorder::new();
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        let config = ModelConfig {
            high_order_h_edge: true,
            ..ModelConfig::default()
        };
        let mut m = ParallelModel::new(mesh.clone(), config, TestCase::Case5, None, 1)
            .with_recorder(rec.clone());
        m.step();
        let mc = MeshCounts {
            n_cells: mesh.n_cells() as f64,
            n_edges: mesh.n_edges() as f64,
            n_vertices: mesh.n_vertices() as f64,
        };
        let report = calibration_from_metrics(&rec.snapshot(), &mc);
        // Everything the executor timed must be fitted: the step runs
        // D1/D2+H2 (high-order), the full diagnostics chain, tendencies
        // (del2 off by default, so no C1), updates, and reconstruction.
        let names: Vec<&str> = report.entries.iter().map(|e| e.name.as_str()).collect();
        for expected in [
            "D1", "D2", "H2", "C2", "A2", "B2", "H1", "A3", "E", "F", "G", "A1", "B1", "X1", "X2",
            "X3", "X4", "X5", "A4", "X6",
        ] {
            assert!(names.contains(&expected), "{expected} not fitted");
        }
        for e in &report.entries {
            assert!(e.measured > 0.0 && e.measured.is_finite(), "{}", e.name);
            assert!(e.coeff() > 0.0 && e.coeff().is_finite(), "{}", e.name);
        }
        // D1 and D2 split one timer evenly.
        let d1 = report.entries.iter().find(|e| e.name == "D1").unwrap();
        let d2 = report.entries.iter().find(|e| e.name == "D2").unwrap();
        assert_eq!(d1.measured, d2.measured);
        // And the report drives the scheduler cost model like any other.
        let cost = report.cost_model();
        assert!(cost.coeffs["B1"] > 0.0);
    }

    #[test]
    fn modeled_time_per_step_sums_four_substeps() {
        let report = calibrate_host(3, 1);
        let mc = MeshCounts::icosahedral(40_962);
        let platform = Platform::paper_node();
        let policy = mpas_sched::resolve("pattern-driven").unwrap();
        let step = report.modeled_time_per_step(&mc, &platform, policy.as_ref());
        assert!(step > 0.0 && step.is_finite());
        // One intermediate substep alone must be cheaper than the step.
        let cost = report.cost_model();
        let graph = DataflowGraph::for_substep(RkPhase::Intermediate);
        let dag = TaskDag::from_dataflow_with(&graph, &mc, &platform, &cost);
        let one = policy.schedule(&dag, &platform).makespan;
        assert!(step > 3.0 * one - 1e-12, "three intermediates plus a final");
    }

    #[test]
    #[ignore = "timing-sensitive: run locally with `cargo test -- --ignored`"]
    fn round_trip_within_2x_on_level6_mesh() {
        // Acceptance check: fit coefficients on the paper's 40 962-cell
        // mesh, re-measure independently, and require the calibrated
        // prediction to land within 2x of the fresh measurement for every
        // Table-I pattern.
        let fitted = calibrate_host(6, 5);
        let cost = fitted.cost_model();
        let fresh = calibrate_host(6, 5);
        for e in &fresh.entries {
            let calibrated = cost.coeffs[&e.name] * e.predicted;
            let ratio = (calibrated / e.measured).max(e.measured / calibrated);
            assert!(
                ratio < 2.0,
                "{}: calibrated {:.3e}s vs measured {:.3e}s (x{:.2})",
                e.name,
                calibrated,
                e.measured,
                ratio
            );
        }
    }
}
