//! Measurement-driven cost calibration.
//!
//! The schedulers in `mpas-sched` price every Table-I pattern instance with
//! the roofline model of [`mpas_sched::platform`]. That model is deliberately
//! simple — `max(flops/peak, bytes/bw) + launch` — and systematic per-kernel
//! deviations (gather-heavy stencils, short trip counts, transcendental-free
//! streams) show up as a per-pattern multiplicative error. This module
//! measures that error on the machine the code actually runs on: it times
//! the sweeps of the real stage program (`mpas_swe::stage`) on a one-thread
//! pool executor on realistic test-case-5 state, and fits
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
//! A fused sweep computes several instances in one pass (`D1+D2`, `C2+E`,
//! `A2+B2`, `H1+G`, `X2+X4`, `X3+X5`); they split its time evenly.

use mpas_patterns::dataflow::{table_i, DataflowGraph, MeshCounts, RkPhase};
use mpas_sched::{CalibratedCost, DeviceSpec, Platform, SchedulerPolicy, TaskDag};
use mpas_swe::config::ModelConfig;
use mpas_swe::testcases::TestCase;
use mpas_swe::{Exec, ShallowWaterModel};
use mpas_telemetry::{MetricsSnapshot, Recorder};
use std::collections::HashMap;
use std::sync::Arc;

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

/// Calibrate on a generated icosahedral mesh of the given subdivision
/// `level` (6 is the paper's 40 962-cell mesh) over `reps` timed steps.
pub fn calibrate_host(level: u32, reps: usize) -> CalibrationReport {
    let mesh = Arc::new(mpas_mesh::generate(level, 0));
    calibrate_on(mesh, reps)
}

/// Calibrate every Table-I pattern on `mesh`: run Williamson test case 5
/// (the paper's benchmark case) on a one-thread pool executor, one warm-up
/// step and then `reps` steps under a recorder, request the output
/// diagnostics no step computes (A3, A4, X6) once, and fit its sweep
/// timers ([`calibration_from_metrics`]). The high-order thickness blend
/// and a del2 term are on, so D1, D2 and C1 run too.
pub fn calibrate_on(mesh: Arc<mpas_mesh::Mesh>, reps: usize) -> CalibrationReport {
    let config = ModelConfig {
        high_order_h_edge: true,
        del2_viscosity: 1.0e4,
        ..ModelConfig::default()
    };
    let exec = Exec::threaded(1);
    let mut m = ShallowWaterModel::new_on(mesh.clone(), config, TestCase::Case5, None, exec);
    m.step(); // warm caches, fault pages
    let rec = Recorder::new();
    m.set_recorder(rec.clone());
    m.run_steps(reps.max(1));
    m.cell_outputs();
    CalibrationReport {
        reps: reps.max(1),
        ..calibration_from_metrics(&rec.snapshot(), &MeshCounts::of(&mesh))
    }
}

/// Fit a calibration from the `swe.kernel.<label>.seconds` histograms a
/// telemetry [`Recorder`] collected while a model ran on the pool executor
/// (threaded or hybrid), in a dedicated run ([`calibrate_on`]) or in situ.
///
/// The p50 of each histogram is the measured time (robust to warm-up
/// outliers). A fused sweep (`C2+E`, `D1+D2`, `X2+X4`, …) is one timer for
/// several Table-I instances; its time is split evenly among them, unless
/// the instance also has a sweep of its own (`X4` and `X5` run alone in
/// the final substep). Sweeps
/// outside Table I (`T1`, `F1`, `del4`) are skipped, and patterns with no
/// recorded histogram (e.g. `C1` when `del2_viscosity == 0`) are simply
/// absent from the report; [`CalibratedCost`] falls back to the plain
/// roofline for them.
pub fn calibration_from_metrics(snapshot: &MetricsSnapshot, mc: &MeshCounts) -> CalibrationReport {
    let cpu = DeviceSpec::cpu_single_core();
    let mut measured: HashMap<&str, f64> = HashMap::new();
    for (metric, h) in &snapshot.histograms {
        let Some(label) = metric
            .strip_prefix("swe.kernel.")
            .and_then(|l| l.strip_suffix(".seconds"))
        else {
            continue;
        };
        let parts: Vec<&str> = label.split('+').collect();
        if let [one] = parts[..] {
            measured.insert(one, h.p50);
        } else {
            for part in &parts {
                measured.entry(part).or_insert(h.p50 / parts.len() as f64);
            }
        }
    }
    let entries = table_i()
        .iter()
        .filter_map(|inst| {
            measured.get(inst.name).map(|&measured| PatternCalibration {
                name: inst.name.to_string(),
                measured,
                predicted: cpu.node_time(inst.work(mc)),
            })
        })
        .collect();
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
        let rec = Recorder::new();
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        let config = ModelConfig {
            high_order_h_edge: true,
            ..ModelConfig::default()
        };
        let exec = Exec::threaded(1);
        let mut m = ShallowWaterModel::new_on(mesh.clone(), config, TestCase::Case5, None, exec)
            .with_recorder(rec.clone());
        m.step();
        m.cell_outputs();
        let mc = MeshCounts {
            n_cells: mesh.n_cells() as f64,
            n_edges: mesh.n_edges() as f64,
            n_vertices: mesh.n_vertices() as f64,
        };
        let report = calibration_from_metrics(&rec.snapshot(), &mc);
        // Everything the executor timed must be fitted: the step runs
        // D1/D2+H2 (high-order), the diagnostics chain, tendencies (del2
        // off by default, so no C1) and updates, and the output request
        // runs A3 and the reconstruction.
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
        // D1 and D2 split one timer evenly; X2 takes half of X2+X4.
        let d1 = report.entries.iter().find(|e| e.name == "D1").unwrap();
        let d2 = report.entries.iter().find(|e| e.name == "D2").unwrap();
        assert_eq!(d1.measured, d2.measured);
        let x2 = report.entries.iter().find(|e| e.name == "X2").unwrap();
        let fused = rec
            .snapshot()
            .histogram("swe.kernel.X2+X4.seconds")
            .unwrap()
            .p50;
        assert_eq!(x2.measured, 0.5 * fused);
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
