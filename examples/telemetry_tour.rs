//! Telemetry tour: record one instrumented step, print the metrics
//! snapshot, and write a combined modeled-vs-measured Chrome trace.
//!
//! ```text
//! cargo run --release --example telemetry_tour
//! ```
//!
//! Open the emitted `target/telemetry_tour.json` at `ui.perfetto.dev` (or
//! `chrome://tracing`): track group "modeled" holds the paper's
//! pattern-driven schedule of one substep on this mesh (cpu/mic rows),
//! "measured" the spans actually recorded while the step ran.

use mpas_repro::core::{halo_probe, Executor, Simulation};
use mpas_repro::hybrid::{schedule_substep, Platform};
use mpas_repro::patterns::dataflow::{DataflowGraph, MeshCounts, RkPhase};
use mpas_repro::sched::{record_schedule, PatternDriven};
use mpas_repro::swe::TestCase;
use mpas_repro::telemetry::Recorder;

fn main() {
    // A live recorder shared by every layer of the stack: the simulation
    // facade, the hybrid executor's kernels, the halo exchanger and the
    // modeled scheduler all clone this handle.
    let rec = Recorder::new();

    let mut sim = Simulation::builder()
        .mesh_level(4) // 2 562 cells — runs anywhere
        .test_case(TestCase::Case5)
        .executor(Executor::Hybrid {
            cpu_threads: 2,
            acc_threads: 2,
        })
        .recorder(rec.clone())
        .build();

    println!(
        "mesh: {} cells, dt = {:.0} s, one instrumented RK-4 step...",
        sim.mesh.n_cells(),
        sim.dt()
    );
    sim.run_steps(1);

    // One halo-exchange round on a 4-way partition so the snapshot also
    // carries measured communication volumes next to the analytic model.
    halo_probe(&sim.mesh, 4, &rec);

    // --- Metrics snapshot --------------------------------------------
    let snap = rec.snapshot();
    println!("\ncounters:");
    for (name, v) in &snap.counters {
        println!("  {name:<40} {v}");
    }
    println!("gauges:");
    for (name, v) in &snap.gauges {
        println!("  {name:<40} {v:.6e}");
    }
    println!("histograms (count / p50 / p95 / max, seconds):");
    for (name, h) in &snap.histograms {
        println!(
            "  {name:<40} {:>4}  {:.3e}  {:.3e}  {:.3e}",
            h.count, h.p50, h.p95, h.max
        );
    }

    // --- Combined trace ----------------------------------------------
    // The modeled side is the paper's pattern-driven schedule of one
    // intermediate substep on this mesh and the Table-II node (its
    // decisions land in the recorder as `sched.*`); the measured side is
    // the recorder's spans.
    let graph = DataflowGraph::for_substep(RkPhase::Intermediate);
    let mc = MeshCounts::of(&sim.mesh);
    let schedule = schedule_substep(&graph, &mc, &Platform::paper_node(), PatternDriven);
    record_schedule(&rec, "pattern-driven", &schedule);
    let json = mpas_repro::hybrid::to_combined_trace(&schedule, &rec);
    let path = "target/telemetry_tour.json";
    std::fs::create_dir_all("target").expect("create target dir");
    std::fs::write(path, &json).expect("write trace");
    println!(
        "\nwrote {path}: {} measured spans + {}-node modeled schedule",
        rec.spans().len(),
        schedule.nodes.len()
    );
}
