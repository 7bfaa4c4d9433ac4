//! Whole-step and multi-process performance simulation.
//!
//! Composes the substep schedules (3 intermediate + 1 final, per
//! Algorithm 1) into a time-per-step figure and layers the α+β halo
//! communication model on top for the strong/weak scaling experiments
//! (Figs. 8–9). The underlying schedules come from [`crate::sched`]; the
//! communication model from [`mpas_msg::CommCostModel`].
//!
//! Every entry point is generic over [`SchedulerPolicy`]: pass a paper
//! policy type ([`mpas_sched::PatternDriven`], …) by value, or a
//! registry policy (`mpas_sched::resolve("pattern-driven")`) by
//! reference.

use crate::sched::{schedule_substep, SchedulerPolicy};
use mpas_msg::CommCostModel;
use mpas_patterns::dataflow::{DataflowGraph, MeshCounts, RkPhase};
use mpas_sched::platform::Platform;

/// Simulated execution time of one RK-4 step on a single process.
pub fn time_per_step(mc: &MeshCounts, platform: &Platform, policy: impl SchedulerPolicy) -> f64 {
    let inter = DataflowGraph::for_substep(RkPhase::Intermediate);
    let fin = DataflowGraph::for_substep(RkPhase::Final);
    let t_inter = schedule_substep(&inter, mc, platform, &policy).makespan;
    let t_final = schedule_substep(&fin, mc, platform, &policy).makespan;
    3.0 * t_inter + t_final
}

/// Estimated halo bytes exchanged per substep by one rank: three layers of
/// ring cells (one `f64` cell field + one edge field, edges ≈ 3 per cell).
pub fn halo_bytes_per_substep(cells_per_rank: f64) -> f64 {
    if cells_per_rank <= 0.0 {
        return 0.0;
    }
    let ring = 3.46 * cells_per_rank.sqrt(); // hexagon-perimeter estimate
    let layers = 3.0;
    layers * ring * (1.0 + 3.0) * 8.0
}

/// Average number of halo-exchange neighbors of an RCB part on the sphere.
pub const HALO_NEIGHBORS: usize = 6;

/// Simulated time per RK-4 step of a multi-process run.
///
/// Each rank advances `n_cells / n_ranks` cells under `policy`, then pays a
/// halo exchange per substep. Policies that place work on the accelerator
/// ([`SchedulerPolicy::uses_accelerator`]) additionally ship the halo over
/// the PCIe link (device-resident state must be synchronized at the
/// exchange points — the red arrows in the paper's Figs. 2 and 4).
pub fn time_per_step_multirank(
    n_cells: usize,
    n_ranks: usize,
    platform: &Platform,
    policy: impl SchedulerPolicy,
    comm: &CommCostModel,
) -> f64 {
    let cells_per_rank = n_cells as f64 / n_ranks as f64;
    let mc = MeshCounts {
        n_cells: cells_per_rank,
        n_edges: 3.0 * cells_per_rank,
        n_vertices: 2.0 * cells_per_rank,
    };
    let compute = time_per_step(&mc, platform, &policy);
    if n_ranks == 1 {
        return compute;
    }
    let halo = halo_bytes_per_substep(cells_per_rank);
    let mut comm_time = 4.0 * comm.halo_time(halo as usize, HALO_NEIGHBORS);
    if policy.uses_accelerator() {
        // Device-side halo data crosses PCIe before it can hit the wire.
        comm_time += 4.0 * 2.0 * platform.link.time(halo);
    }
    compute + comm_time
}

/// Parallel efficiency of a strong-scaling point relative to one rank.
pub fn strong_efficiency(
    n_cells: usize,
    n_ranks: usize,
    platform: &Platform,
    policy: impl SchedulerPolicy,
    comm: &CommCostModel,
) -> f64 {
    let t1 = time_per_step_multirank(n_cells, 1, platform, &policy, comm);
    let tp = time_per_step_multirank(n_cells, n_ranks, platform, &policy, comm);
    t1 / (tp * n_ranks as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpas_sched::{PatternDriven, Serial};

    #[test]
    fn paper_fig7_shape_serial_vs_hybrid() {
        // At 40 962 cells the serial step should land near the paper's
        // 0.271 s and the pattern-driven one near 0.045 s (band check —
        // absolute values come from the Table-II calibration).
        let p = Platform::paper_node();
        let mc = MeshCounts::icosahedral(40_962);
        let serial = time_per_step(&mc, &p, Serial);
        let pattern = time_per_step(&mc, &p, PatternDriven);
        assert!((0.1..0.6).contains(&serial), "serial {serial}");
        assert!(
            (3.5..11.0).contains(&(serial / pattern)),
            "speedup {}",
            serial / pattern
        );
    }

    #[test]
    fn weak_scaling_is_nearly_flat() {
        // Fig. 9: fixed 40 962 cells/process, P = 1 -> 64.
        let p = Platform::paper_node();
        let comm = CommCostModel::fdr_infiniband();
        let t1 = time_per_step_multirank(40_962, 1, &p, PatternDriven, &comm);
        let t64 = time_per_step_multirank(64 * 40_962, 64, &p, PatternDriven, &comm);
        assert!(t64 / t1 < 1.15, "weak scaling degraded: {} -> {}", t1, t64);
        // CPU version too.
        let c1 = time_per_step_multirank(40_962, 1, &p, Serial, &comm);
        let c64 = time_per_step_multirank(64 * 40_962, 64, &p, Serial, &comm);
        assert!(c64 / c1 < 1.05);
    }

    #[test]
    fn strong_scaling_large_mesh_is_near_ideal() {
        // Fig. 8 (b): 2 621 442 cells scales well to 64 hybrid processes.
        let p = Platform::paper_node();
        let comm = CommCostModel::fdr_infiniband();
        let eff = strong_efficiency(2_621_442, 64, &p, PatternDriven, &comm);
        assert!(eff > 0.7, "efficiency {eff}");
    }

    #[test]
    fn strong_scaling_small_mesh_saturates() {
        // Fig. 8 (a): on the 655 362-cell mesh the hybrid version loses
        // efficiency at 64 processes while the CPU version keeps more.
        let p = Platform::paper_node();
        let comm = CommCostModel::fdr_infiniband();
        let hybrid64 = strong_efficiency(655_362, 64, &p, PatternDriven, &comm);
        let hybrid8 = strong_efficiency(655_362, 8, &p, PatternDriven, &comm);
        let cpu64 = strong_efficiency(655_362, 64, &p, Serial, &comm);
        assert!(hybrid8 > hybrid64, "no saturation: {hybrid8} vs {hybrid64}");
        assert!(
            cpu64 > hybrid64,
            "CPU version should hold efficiency longer"
        );
    }

    #[test]
    fn hybrid_always_faster_in_absolute_time() {
        // Even where its *efficiency* saturates, the hybrid version stays
        // faster than the CPU version in wall-clock (Fig. 8 shows ~1
        // order of magnitude).
        let p = Platform::paper_node();
        let comm = CommCostModel::fdr_infiniband();
        for &n in &[655_362usize, 2_621_442] {
            for &ranks in &[1usize, 4, 16, 64] {
                let cpu = time_per_step_multirank(n, ranks, &p, Serial, &comm);
                let hyb = time_per_step_multirank(n, ranks, &p, PatternDriven, &comm);
                assert!(hyb < cpu, "n={n} P={ranks}: {hyb} !< {cpu}");
            }
        }
    }

    #[test]
    fn halo_bytes_scale_with_sqrt_of_local_size() {
        let a = halo_bytes_per_substep(10_000.0);
        let b = halo_bytes_per_substep(40_000.0);
        assert!((b / a - 2.0).abs() < 1e-9);
        assert_eq!(halo_bytes_per_substep(0.0), 0.0);
    }

    #[test]
    fn halo_bytes_are_zero_at_zero_and_monotone() {
        // Satellite regression: exact zero at 0 (and below), strictly
        // monotone growth in cells_per_rank.
        assert_eq!(halo_bytes_per_substep(0.0), 0.0);
        assert_eq!(halo_bytes_per_substep(-5.0), 0.0);
        let mut prev = 0.0;
        for cells in [1.0, 10.0, 100.0, 1e4, 1e6, 1e8] {
            let h = halo_bytes_per_substep(cells);
            assert!(h > prev, "halo bytes must grow with local size");
            prev = h;
        }
    }

    #[test]
    fn registry_policies_drop_into_the_scaling_model() {
        // The generic signature accepts registry policies by reference.
        let p = Platform::paper_node();
        let comm = CommCostModel::fdr_infiniband();
        let mc = MeshCounts::icosahedral(40_962);
        let pattern = mpas_sched::resolve("pattern-driven").unwrap();
        let t = time_per_step(&mc, &p, &pattern);
        assert!(t > 0.0 && t.is_finite());
        let tm = time_per_step_multirank(655_362, 8, &p, &pattern, &comm);
        assert!(tm > 0.0 && tm.is_finite());
        // Pattern-driven schedules on both devices, so it pays the PCIe
        // halo tax.
        assert!(pattern.uses_accelerator());
    }
}
