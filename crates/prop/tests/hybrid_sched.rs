//! Property tests of the makespan scheduler: structural validity and
//! sound bounds across random mesh sizes and device parameters, and the
//! pattern-driven policy's dominance over the kernel-level static map it
//! refines (Fig. 4 (b) vs Fig. 2).

use mpas_hybrid::sched::{schedule_substep, Placement};
use mpas_hybrid::{DeviceSpec, Platform, TransferLink};
use mpas_patterns::dataflow::{DataflowGraph, MeshCounts, RkPhase};
use mpas_prop::{check, Rng};
use mpas_sched::{resolve, Serial, TaskDag};

fn platform(cpu_bw: f64, acc_bw: f64, link_bw: f64) -> Platform {
    let mut p = Platform::paper_node();
    p.cpu = DeviceSpec {
        mem_bw: cpu_bw,
        ..p.cpu
    };
    p.acc = DeviceSpec {
        mem_bw: acc_bw,
        ..p.acc
    };
    p.link = TransferLink {
        latency: 1e-5,
        bandwidth: link_bw,
    };
    p
}

const CASES: usize = 32;

/// Every schedule respects dependencies, has non-negative intervals,
/// and its makespan is bounded below by the critical path on the
/// fastest device and above by fully-serial execution on the slowest.
#[test]
fn schedules_are_sound() {
    check(CASES, |rng| {
        let n_cells = rng.range(10_000usize..3_000_000);
        let cpu_bw = rng.range(5e9..60e9);
        let acc_bw = rng.range(5e9..120e9);
        let link_bw = rng.range(1e9..24e9);
        let phase = rng.pick(&[RkPhase::Final, RkPhase::Intermediate]);
        let g = DataflowGraph::for_substep(phase);
        let mc = MeshCounts::icosahedral(n_cells);
        let p = platform(cpu_bw, acc_bw, link_bw);
        for name in ["kernel-level", "pattern-driven"] {
            let s = schedule_substep(&g, &mc, &p, resolve(name).unwrap());
            assert!(s.makespan.is_finite() && s.makespan > 0.0);
            for (id, ns) in s.nodes.iter().enumerate() {
                assert!(ns.finish >= ns.start - 1e-12);
                for &pred in &g.preds[id] {
                    assert!(
                        s.nodes[pred].finish <= ns.start + 1e-9,
                        "{}: dep violated {} -> {}",
                        name,
                        s.nodes[pred].name,
                        ns.name
                    );
                }
                if let Placement::Split(f) = ns.placement {
                    assert!((0.0..=1.0).contains(&f));
                }
            }
            // Lower bound: critical path at the best single-node rate.
            let best =
                |w: mpas_patterns::dataflow::Work| p.cpu.node_time(w).min(p.acc.node_time(w));
            let (cp, _) = g.critical_path(|n| best(n.work(&mc)));
            // Splits can beat single-device node times, at most by the
            // combined-bandwidth factor.
            let combine = (p.cpu.mem_bw + p.acc.mem_bw) / p.cpu.mem_bw.max(p.acc.mem_bw);
            assert!(
                s.makespan > cp / combine * 0.99,
                "{name}: makespan {} below bound {}",
                s.makespan,
                cp / combine
            );
            // Upper bound: everything serial on the slower device.
            let worst: f64 = g
                .nodes
                .iter()
                .map(|n| {
                    p.cpu
                        .node_time(n.work(&mc))
                        .max(p.acc.node_time(n.work(&mc)))
                })
                .sum::<f64>()
                + 8.0 * p.link.time(8.0 * 3.0 * n_cells as f64);
            assert!(s.makespan <= worst * 1.01);
        }
    });
}

/// Device busy time never exceeds the makespan, and pattern-driven
/// utilization beats kernel-level on balanced platforms.
#[test]
fn busy_time_bounded_by_makespan() {
    check(CASES, |rng| {
        let n_cells = rng.range(50_000usize..2_000_000);
        let scale = rng.range(0.5..2.0);
        let g = DataflowGraph::for_substep(RkPhase::Intermediate);
        let mc = MeshCounts::icosahedral(n_cells);
        let p = platform(20e9 * scale, 28e9 * scale, 6e9);
        for name in ["kernel-level", "pattern-driven"] {
            let s = schedule_substep(&g, &mc, &p, resolve(name).unwrap());
            assert!(s.cpu_busy <= s.makespan * 1.001);
            assert!(s.acc_busy <= s.makespan * 1.001);
        }
    });
}

/// Serial policy is exactly the sum of single-core node times,
/// regardless of the platform.
#[test]
fn serial_is_sum_of_node_times() {
    check(CASES, |rng| {
        let n_cells = rng.range(10_000usize..1_000_000);
        let g = DataflowGraph::for_substep(RkPhase::Intermediate);
        let mc = MeshCounts::icosahedral(n_cells);
        let p = Platform::paper_node();
        let s = schedule_substep(&g, &mc, &p, Serial);
        let core = DeviceSpec::cpu_single_core();
        let expect: f64 = g.nodes.iter().map(|n| core.node_time(n.work(&mc))).sum();
        assert!((s.makespan - expect).abs() < 1e-12 * expect);
    });
}

/// Randomized mesh counts: cell count spans the paper's Table III range
/// and beyond, with the edge/vertex ratios perturbed off the exact
/// icosahedral 3:2 to model partition remainders.
fn mesh_counts(rng: &mut Rng) -> MeshCounts {
    let c = rng.range(5_000usize..3_000_000) as f64;
    MeshCounts {
        n_cells: c,
        n_edges: rng.range(2.8..3.2) * c,
        n_vertices: rng.range(1.8..2.2) * c,
    }
}

fn substep(rng: &mut Rng) -> DataflowGraph {
    DataflowGraph::for_substep(rng.pick(&[RkPhase::Final, RkPhase::Intermediate]))
}

const DOMINANCE_CASES: usize = 48;

/// The pattern-driven refinement never loses to the kernel-level
/// static map, on any mesh size.
#[test]
fn pattern_driven_dominates_kernel_level() {
    check(DOMINANCE_CASES, |rng| {
        let mc = mesh_counts(rng);
        let g = substep(rng);
        let p = Platform::paper_node();
        let dag = TaskDag::from_dataflow(&g, &mc, &p);
        let kernel = resolve("kernel-level").unwrap().schedule(&dag, &p);
        let pattern = resolve("pattern-driven").unwrap().schedule(&dag, &p);
        assert!(
            pattern.makespan <= kernel.makespan * (1.0 + 1e-12),
            "pattern {} > kernel {}",
            pattern.makespan,
            kernel.makespan
        );
        // Both also respect dependencies.
        for s in [&kernel, &pattern] {
            for (id, ns) in s.nodes.iter().enumerate() {
                for &pred in &dag.preds[id] {
                    assert!(s.nodes[pred].finish <= ns.start + 1e-9);
                }
            }
        }
    });
}
