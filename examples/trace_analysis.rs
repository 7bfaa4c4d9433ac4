//! Trace-analysis tour: run a small distributed job under the recorder,
//! then walk the whole PR-5 analysis chain — per-rank blame, critical-path
//! extraction, measured-vs-modeled diff, invariant monitors, and a
//! statistical regression gate round-tripped through JSON.
//!
//! ```text
//! cargo run --release --example trace_analysis
//! ```

use mpas_repro::core::{run_distributed_recorded, DistributedConfig};
use mpas_repro::hybrid::Platform;
use mpas_repro::patterns::dataflow::MeshCounts;
use mpas_repro::swe::{ModelConfig, TestCase};
use mpas_repro::telemetry::analysis::{check_invariants, default_invariants, record_blame, Trace};
use mpas_repro::telemetry::gate::{median_mad, Baseline, BaselineEntry, Direction, Severity};
use mpas_repro::telemetry::Recorder;

fn main() {
    // --- 1. An instrumented distributed run --------------------------
    let mesh = mpas_repro::mesh::generate(4, 0); // 2 562 cells
    let n_ranks = 4;
    let n_steps = 4;
    let dt = ModelConfig::suggested_dt(&mesh);
    let tc = TestCase::Case5;
    let rec = Recorder::new();
    println!(
        "running williamson-5 on {} cells, {n_ranks} ranks, {n_steps} steps...",
        mesh.n_cells()
    );
    let init = tc.initial_state(&mesh);
    let mass0: f64 = init.h.iter().zip(&mesh.area_cell).map(|(h, a)| h * a).sum();
    let fin = run_distributed_recorded(
        &mesh,
        DistributedConfig {
            n_ranks,
            halo_layers: 3,
            model: ModelConfig::default(),
            test_case: tc,
            dt,
            n_steps,
        },
        &rec,
    );
    let mass1: f64 = fin.h.iter().zip(&mesh.area_cell).map(|(h, a)| h * a).sum();

    // --- 2. Per-rank blame + critical path ---------------------------
    let trace = Trace::from_recorder(&rec);
    let blame = trace.blame();
    let cp = trace.critical_path();
    println!("\n{}", blame.render());
    println!("{}", cp.render());

    // --- 3. Measured vs modeled --------------------------------------
    // Each rank runs the serial kernel chain on ~1/n_ranks of the mesh,
    // so the comparator is the calibrated serial policy on per-rank
    // counts (coefficients are per-pattern, so a cheap level-3 fit is
    // enough). DESIGN.md §10 documents the ×12 agreement band.
    let steps: Vec<f64> = trace.per_step_makespans();
    let (med_step, mad_step) = median_mad(&steps);
    let r = n_ranks as f64;
    let mc = MeshCounts {
        n_cells: mesh.n_cells() as f64 / r,
        n_edges: mesh.n_edges() as f64 / r,
        n_vertices: mesh.n_vertices() as f64 / r,
    };
    let cal = mpas_repro::hybrid::calibrate_host(3, 2);
    let policy = mpas_repro::sched::resolve("serial").expect("serial policy");
    let modeled = cal.modeled_time_per_step(&mc, &Platform::paper_node(), policy.as_ref());
    println!(
        "measured {:.3e} s/step (median of {n_steps}), modeled {:.3e} s/step, ratio x{:.2}",
        med_step,
        modeled,
        med_step / modeled
    );

    // --- 4. Invariant monitors ---------------------------------------
    // The default monitors watch mass conservation and solution blow-up.
    // A healthy run trips nothing; flip the drift gauge to see an alert.
    rec.set_gauge("core.sim.mass_drift", (mass1 - mass0) / mass0);
    rec.set_gauge("core.sim.h_err_l2", 0.0);
    let alerts = check_invariants(&rec, &default_invariants());
    println!("invariant alerts: {}", alerts.len());

    // --- 5. Statistical regression gate ------------------------------
    // Publish the blame gauges, fit a baseline from this run, round-trip
    // it through JSON (one workload's entry of `BENCH_baseline.json`) and
    // evaluate the run against its own baseline (necessarily green).
    record_blame(&rec, &blame, Some(&cp));
    let baseline = Baseline {
        name: "trace-analysis-example".to_string(),
        entries: vec![
            BaselineEntry {
                metric: "analysis.blame.max_wait_frac".to_string(),
                median: blame.max_wait_frac(),
                mad: 0.0,
                count: 1,
                k: 4.0,
                floor: 0.25,
                direction: Direction::Above,
                severity: Severity::Warn,
                abs: false,
            },
            BaselineEntry {
                metric: "analysis.blame.makespan_s".to_string(),
                median: med_step * n_steps as f64,
                mad: mad_step * n_steps as f64,
                count: n_steps,
                k: 5.0,
                floor: 0.5 * med_step * n_steps as f64,
                direction: Direction::Above,
                severity: Severity::Fail,
                abs: false,
            },
        ],
    };
    let path = "target/trace_analysis_baseline.json";
    std::fs::create_dir_all("target").expect("create target dir");
    std::fs::write(path, baseline.to_json()).expect("write baseline");
    let reparsed = Baseline::parse(&std::fs::read_to_string(path).expect("read baseline"))
        .expect("baseline parses");
    let outcome = reparsed.evaluate(&rec.snapshot());
    println!("\nwrote {path}; gating this run against it:");
    println!("{}", outcome.render());
    assert!(!outcome.failed(), "a run cannot fail its own baseline");
}
