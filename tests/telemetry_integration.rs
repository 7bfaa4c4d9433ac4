//! Cross-crate telemetry integration tests.
//!
//! The key acceptance property: halo-exchange byte counters recorded by
//! the telemetry subsystem on a partitioned Table-III mesh must equal
//! *exactly* the bytes implied by the partition's send/recv exchange
//! lists, and must sit in the same band as the analytic
//! `halo_bytes_per_substep` estimate the scaling model (Figs. 8-9) uses.

use mpas_repro::core::{halo_probe, Executor, Simulation};
use mpas_repro::hybrid::{self, Platform};
use mpas_repro::mesh::MeshPartition;
use mpas_repro::patterns::dataflow::{DataflowGraph, MeshCounts, RkPhase};
use mpas_repro::sched::{record_schedule, PatternDriven};
use mpas_repro::telemetry::export::validate_json;
use mpas_repro::telemetry::Recorder;

/// Exact halo bytes on a partitioned Table-III mesh (level 6, the paper's
/// 40 962-cell grid): telemetry counters == list-derived bytes, and the
/// analytic √n estimate lands within a small factor of the measurement.
#[test]
fn halo_bytes_counters_match_partition_lists_on_table_iii_mesh() {
    let mesh = mpas_repro::mesh::generate(6, 0);
    assert_eq!(mesh.n_cells(), 40_962, "level 6 is the Table-III mesh");
    let n_ranks = 8;

    // Independent reference: bytes implied by the partition's send lists
    // (packed cell+edge exchange, one direction, 8 bytes per f64).
    let part = MeshPartition::build(&mesh, n_ranks, 3);
    let expected: u64 = part
        .ranks
        .iter()
        .flat_map(|p| p.send_cells.iter().chain(p.send_edges.iter()))
        .map(|(_, list)| (list.len() * 8) as u64)
        .sum();

    let rec = Recorder::new();
    let probed = halo_probe(&mesh, n_ranks, &rec);
    assert_eq!(probed, expected, "probe must report list-derived bytes");

    let snap = rec.snapshot();
    // The recorded counters are EXACTLY the list-derived bytes: every f64
    // that crosses a rank boundary is counted once on send, once on recv.
    assert_eq!(snap.counter("msg.halo.bytes_sent"), Some(expected));
    assert_eq!(snap.counter("msg.halo.bytes_recv"), Some(expected));
    assert_eq!(snap.counter("msg.halo.exchanges"), Some(n_ranks as u64));
    // The transport-level counters agree with the halo-level ones (the
    // probe sends nothing but halo payloads).
    assert_eq!(snap.counter("msg.comm.bytes_sent"), Some(expected));
    assert_eq!(snap.counter("msg.comm.bytes_recv"), Some(expected));
    assert_eq!(
        snap.gauge("msg.halo.exact_bytes_per_substep"),
        Some(expected as f64)
    );

    // Band check against the analytic estimate: the √n ring model is an
    // approximation (it ignores partition shape and the 3-layer rounding),
    // so require agreement within a factor of 3, not equality.
    let modeled = snap
        .gauge("msg.halo.modeled_bytes_per_substep")
        .expect("modeled gauge");
    let analytic = n_ranks as f64
        * hybrid::sim::halo_bytes_per_substep(mesh.n_cells() as f64 / n_ranks as f64);
    assert_eq!(modeled, analytic);
    let ratio = (expected as f64 / modeled).max(modeled / expected as f64);
    assert!(
        ratio < 3.0,
        "measured {expected} B vs modeled {modeled:.0} B (x{ratio:.2})"
    );
}

/// A traced run and the paper's modeled schedule on its mesh share one
/// Chrome trace: the model in track group 1, the measured execution in
/// track group 2; the metrics snapshot's JSON serialization is valid.
#[test]
fn combined_trace_and_metrics_snapshot_round_trip() {
    let rec = Recorder::new();
    let mut sim = Simulation::builder()
        .mesh_level(3)
        .executor(Executor::Hybrid {
            cpu_threads: 2,
            acc_threads: 2,
        })
        .recorder(rec.clone())
        .build();
    sim.run_steps(2);
    halo_probe(&sim.mesh, 4, &rec);
    let graph = DataflowGraph::for_substep(RkPhase::Intermediate);
    let mc = MeshCounts::of(&sim.mesh);
    let schedule = hybrid::schedule_substep(&graph, &mc, &Platform::paper_node(), PatternDriven);
    record_schedule(&rec, "pattern-driven", &schedule);

    let trace = hybrid::to_combined_trace(&schedule, &rec);
    validate_json(&trace).expect("combined trace must be valid JSON");
    assert!(
        trace.contains("\"name\":\"modeled\""),
        "modeled track group"
    );
    assert!(
        trace.contains("\"name\":\"measured\""),
        "measured track group"
    );
    assert!(trace.contains("\"pid\":1") && trace.contains("\"pid\":2"));
    assert!(trace.contains("sched.decision"));

    let snap = rec.snapshot();
    let json = snap.to_json();
    validate_json(&json).expect("metrics snapshot must be valid JSON");
    for key in [
        "core.sim.step_seconds",
        "core.sim.mass_drift",
        "swe.kernel.B1.seconds",
        "hybrid.split.B1.cpu.seconds",
        "hybrid.split.B1.acc.seconds",
        "msg.halo.bytes_sent",
        "sched.makespan_seconds",
    ] {
        assert!(json.contains(key), "{key} missing from metrics JSON");
    }
    // CSV form carries one row per metric.
    let csv = snap.to_csv();
    let rows = csv.lines().count();
    assert_eq!(
        rows,
        1 + snap.counters.len() + snap.gauges.len() + snap.histograms.len()
    );
}

/// Telemetry must never perturb results: a recorded hybrid run stays
/// bit-for-bit identical to an unrecorded serial run.
#[test]
fn recorded_run_matches_unrecorded_bitwise() {
    let mesh = std::sync::Arc::new(mpas_repro::mesh::generate(3, 0));
    let mut recorded = Simulation::builder()
        .mesh(mesh.clone())
        .executor(Executor::Hybrid {
            cpu_threads: 2,
            acc_threads: 1,
        })
        .recorder(Recorder::new())
        .build();
    let mut plain = Simulation::builder().mesh(mesh).build();
    recorded.run_steps(3);
    plain.run_steps(3);
    assert_eq!(recorded.state().max_abs_diff(plain.state()), 0.0);
}
