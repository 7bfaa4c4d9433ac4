//! Workspace-level assertions that each reproduced experiment has the
//! paper's *shape*: who wins, by roughly what factor, and where the
//! crossovers fall. EXPERIMENTS.md records the concrete numbers.

use mpas_repro::hybrid::sched::schedule_substep;
use mpas_repro::hybrid::sim::{time_per_step, time_per_step_multirank};
use mpas_repro::hybrid::{fig6_ladder, OptStage, Platform};
use mpas_repro::msg::CommCostModel;
use mpas_repro::patterns::dataflow::{DataflowGraph, MeshCounts, RkPhase};
use mpas_repro::sched::{KernelLevel, PatternDriven, Serial};

const TABLE3_CELLS: [usize; 4] = [40_962, 163_842, 655_362, 2_621_442];

#[test]
fn fig7_speedup_bands_and_growth() {
    let p = Platform::paper_node();
    let mut last_kernel = 0.0;
    let mut last_pattern = 0.0;
    for &cells in &TABLE3_CELLS {
        let mc = MeshCounts::icosahedral(cells);
        let serial = time_per_step(&mc, &p, Serial);
        let kernel = time_per_step(&mc, &p, KernelLevel);
        let pattern = time_per_step(&mc, &p, PatternDriven);
        let s_k = serial / kernel;
        let s_p = serial / pattern;
        // Paper bands: kernel-level 4.59..6.05, pattern 5.63..8.35 — allow
        // a generous halo around them.
        assert!((3.5..8.0).contains(&s_k), "{cells}: kernel {s_k}");
        assert!((5.0..10.5).contains(&s_p), "{cells}: pattern {s_p}");
        assert!(s_p > s_k, "{cells}: pattern must beat kernel");
        // Speedups grow with mesh size (amortized overheads).
        assert!(s_k >= last_kernel && s_p >= last_pattern);
        last_kernel = s_k;
        last_pattern = s_p;
    }
    // The headline: ≥ 30% pattern-driven advantage at the largest mesh
    // (paper: 38%).
    let mc = MeshCounts::icosahedral(2_621_442);
    let kernel = time_per_step(&mc, &p, KernelLevel);
    let pattern = time_per_step(&mc, &p, PatternDriven);
    assert!(kernel / pattern > 1.3, "advantage {}", kernel / pattern);
}

#[test]
fn fig7_absolute_times_near_paper() {
    // Calibration check: the modeled absolute step times should sit within
    // ~35% of the paper's reported values at both ends of Table III.
    let p = Platform::paper_node();
    let near = |modeled: f64, paper: f64| (modeled / paper - 1.0).abs() < 0.35;
    let small = MeshCounts::icosahedral(40_962);
    let large = MeshCounts::icosahedral(2_621_442);
    assert!(
        near(time_per_step(&small, &p, Serial), 0.271),
        "serial small: {}",
        time_per_step(&small, &p, Serial)
    );
    assert!(
        near(time_per_step(&large, &p, Serial), 17.528),
        "serial large: {}",
        time_per_step(&large, &p, Serial)
    );
    assert!(
        near(time_per_step(&large, &p, PatternDriven), 2.102),
        "pattern large: {}",
        time_per_step(&large, &p, PatternDriven)
    );
}

#[test]
fn fig6_ladder_reproduces_reported_stages() {
    let ladder = fig6_ladder(&MeshCounts::icosahedral(163_842));
    let get = |s: OptStage| ladder.iter().find(|&&(x, _)| x == s).unwrap().1;
    assert!(get(OptStage::OpenMp) < 20.0);
    assert!(get(OptStage::Refactoring) > 60.0);
    assert!(get(OptStage::Others) > 85.0 && get(OptStage::Others) < 115.0);
}

#[test]
fn fig8_strong_scaling_crossover() {
    // Small mesh: hybrid efficiency collapses by P=64; large mesh holds.
    let p = Platform::paper_node();
    let comm = CommCostModel::fdr_infiniband();
    let eff = |cells: usize, ranks: usize| {
        let t1 = time_per_step_multirank(cells, 1, &p, PatternDriven, &comm);
        let tp = time_per_step_multirank(cells, ranks, &p, PatternDriven, &comm);
        t1 / (tp * ranks as f64)
    };
    let small64 = eff(655_362, 64);
    let large64 = eff(2_621_442, 64);
    assert!(large64 > small64 + 0.1, "no size-dependent saturation");
    assert!(
        large64 > 0.8,
        "large mesh should stay near-ideal: {large64}"
    );
    assert!(small64 < 0.8, "small mesh should saturate: {small64}");
}

#[test]
fn fig9_weak_scaling_flat_for_both_versions() {
    let p = Platform::paper_node();
    let comm = CommCostModel::fdr_infiniband();
    for name in ["serial", "pattern-driven"] {
        let policy = mpas_repro::sched::resolve(name).unwrap();
        let t1 = time_per_step_multirank(40_962, 1, &p, &policy, &comm);
        for &ranks in &[4usize, 16, 64] {
            let tp = time_per_step_multirank(40_962 * ranks, ranks, &p, &policy, &comm);
            assert!(tp / t1 < 1.12, "{name} at P={ranks}: {tp} vs {t1}");
        }
    }
}

#[test]
fn registered_policies_schedule_every_table_iii_mesh() {
    // The registry holds the paper's five policies, and each schedules
    // every Table III mesh.
    use mpas_repro::sched::{registered_names, resolve};
    let p = Platform::paper_node();
    let names = registered_names();
    assert!(names.len() == 5, "registry is not the paper's: {names:?}");
    for &cells in &TABLE3_CELLS {
        let mc = MeshCounts::icosahedral(cells);
        for spec in &names {
            let t = time_per_step(&mc, &p, resolve(spec).unwrap());
            assert!(t > 0.0 && t.is_finite(), "{spec} on {cells}: {t}");
        }
    }
}

#[test]
fn modeled_paper_figures_are_pinned() {
    // One digest over the bits of every modeled number Figs. 6-9 print:
    // the Fig. 6 ladder, Fig. 7's time/step and imbalances, and the
    // multi-rank times/step of Figs. 8 and 9.
    use mpas_repro::telemetry::digest::Fnv1a;
    let p = Platform::paper_node();
    let comm = CommCostModel::fdr_infiniband();
    let mut d = Fnv1a::new();
    for (_, speedup) in fig6_ladder(&MeshCounts::icosahedral(163_842)) {
        d.write_u64(speedup.to_bits());
    }
    for &cells in &TABLE3_CELLS {
        let mc = MeshCounts::icosahedral(cells);
        d.write_u64(time_per_step(&mc, &p, Serial).to_bits());
        d.write_u64(time_per_step(&mc, &p, KernelLevel).to_bits());
        d.write_u64(time_per_step(&mc, &p, PatternDriven).to_bits());
    }
    let g = DataflowGraph::for_substep(RkPhase::Intermediate);
    let mc = MeshCounts::icosahedral(655_362);
    d.write_u64(
        schedule_substep(&g, &mc, &p, KernelLevel)
            .imbalance()
            .to_bits(),
    );
    d.write_u64(
        schedule_substep(&g, &mc, &p, PatternDriven)
            .imbalance()
            .to_bits(),
    );
    let mut multirank = |cells: usize, ranks: usize| {
        d.write_u64(time_per_step_multirank(cells, ranks, &p, Serial, &comm).to_bits());
        d.write_u64(time_per_step_multirank(cells, ranks, &p, PatternDriven, &comm).to_bits());
    };
    for cells in [655_362usize, 2_621_442] {
        for ranks in [1usize, 2, 4, 8, 16, 32, 64] {
            multirank(cells, ranks);
        }
    }
    for ranks in [1usize, 4, 16, 64] {
        multirank(40_962 * ranks, ranks);
    }
    assert_eq!(
        d.finish(),
        0x6c28_a4b1_160b_ff6e,
        "a modeled figure changed"
    );
}

#[test]
fn final_substep_graph_schedules_consistently_too() {
    // All figure code paths use the intermediate graph; ensure the final
    // (reconstruction) graph behaves the same way.
    let g = DataflowGraph::for_substep(RkPhase::Final);
    let mc = MeshCounts::icosahedral(655_362);
    let p = Platform::paper_node();
    let serial = schedule_substep(&g, &mc, &p, Serial).makespan;
    let pattern = schedule_substep(&g, &mc, &p, PatternDriven).makespan;
    assert!(serial / pattern > 5.0);
}
