//! Makespan scheduling of the data-flow diagram onto the simulated node.
//!
//! Since the `mpas-sched` subsystem landed, the actual scheduling
//! algorithms live there: the paper's policies in [`mpas_sched::paper`],
//! the classic list schedulers (HEFT, CPOP, lookahead, dynamic-list) in
//! [`mpas_sched::list`], all operating on a [`TaskDag`] extracted from the
//! data-flow diagram. This module keeps the [`schedule_substep`] entry
//! point (any [`SchedulerPolicy`]: a paper policy type such as
//! [`mpas_sched::PatternDriven`] or a [`mpas_sched::resolve`] name) and the
//! ablation helpers.
//!
//! Cross-device data dependencies pay for a transfer on the (serialized)
//! link; variables made on one device become resident on both after the
//! transfer, modeling the paper's keep-data-resident strategy (§IV.A).

use crate::device::Platform;
use mpas_patterns::dataflow::{DataflowGraph, MeshCounts};
use mpas_sched::{DagOptions, RooflineCost, TaskDag};

pub use mpas_sched::schedule::{NodeSchedule, Placement, Schedule};
pub use mpas_sched::{SchedulerPolicy, DEFAULT_SPLIT_THRESHOLD};

/// Schedule one substep graph under a policy.
pub fn schedule_substep(
    graph: &DataflowGraph,
    mc: &MeshCounts,
    platform: &Platform,
    policy: impl SchedulerPolicy,
) -> Schedule {
    let dag = TaskDag::from_dataflow(graph, mc, platform);
    policy.schedule(&dag, platform)
}

/// Tunables of the pattern-driven scheduler, exposed for ablations.
#[derive(Debug, Clone, Copy)]
pub struct SchedOptions {
    /// Fraction of substep bytes above which a pattern may split.
    pub split_threshold: f64,
    /// Overlap host↔device transfers with unrelated device work (the
    /// paper's "overlapped data moving"); when false, a transfer delays
    /// its consumer's start additively.
    pub overlap_transfers: bool,
}

impl Default for SchedOptions {
    fn default() -> Self {
        // Blocking transfers by default: this is what the Table-II/Fig.-7
        // calibration was fitted against; the overlapped accounting is the
        // `overlap_ablation` study.
        SchedOptions {
            split_threshold: DEFAULT_SPLIT_THRESHOLD,
            overlap_transfers: false,
        }
    }
}

/// Pattern-driven scheduling with an explicit adjustability threshold
/// (fraction of substep bytes above which a pattern may split). Used by
/// the ablation studies; `schedule_substep` applies the default.
pub fn pattern_driven_schedule_with(
    graph: &DataflowGraph,
    mc: &MeshCounts,
    platform: &Platform,
    split_threshold: f64,
) -> Schedule {
    pattern_driven_schedule_opts(
        graph,
        mc,
        platform,
        SchedOptions {
            split_threshold,
            ..Default::default()
        },
    )
}

/// Pattern-driven scheduling with full options.
pub fn pattern_driven_schedule_opts(
    graph: &DataflowGraph,
    mc: &MeshCounts,
    platform: &Platform,
    opts: SchedOptions,
) -> Schedule {
    let dag = TaskDag::from_dataflow_with(
        graph,
        mc,
        platform,
        &RooflineCost,
        DagOptions {
            split_threshold: opts.split_threshold,
        },
    );
    mpas_sched::PatternDriven {
        overlap_transfers: opts.overlap_transfers,
    }
    .schedule(&dag, platform)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpas_patterns::dataflow::RkPhase;
    use mpas_sched::{CpuOnly, KernelLevel, PatternDriven, Serial};

    fn setup() -> (DataflowGraph, MeshCounts, Platform) {
        (
            DataflowGraph::for_substep(RkPhase::Intermediate),
            MeshCounts::icosahedral(655_362),
            Platform::paper_node(),
        )
    }

    #[test]
    fn policies_order_as_the_paper_reports() {
        let (g, mc, p) = setup();
        let serial = schedule_substep(&g, &mc, &p, Serial).makespan;
        let cpu = schedule_substep(&g, &mc, &p, CpuOnly).makespan;
        let kernel = schedule_substep(&g, &mc, &p, KernelLevel).makespan;
        let pattern = schedule_substep(&g, &mc, &p, PatternDriven::default()).makespan;
        assert!(cpu < serial, "10 cores beat 1 core");
        assert!(kernel < cpu, "hybrid beats CPU-only");
        assert!(pattern < kernel, "pattern-driven beats kernel-level");
    }

    #[test]
    fn pattern_driven_speedup_in_paper_band() {
        // Paper Fig. 7 at 655 362 cells: kernel-level ≈ 6x, pattern ≈ 8x
        // vs the single-core CPU code.
        let (g, mc, p) = setup();
        let serial = schedule_substep(&g, &mc, &p, Serial).makespan;
        let kernel = schedule_substep(&g, &mc, &p, KernelLevel).makespan;
        let pattern = schedule_substep(&g, &mc, &p, PatternDriven::default()).makespan;
        let s_k = serial / kernel;
        let s_p = serial / pattern;
        assert!((4.0..8.0).contains(&s_k), "kernel-level speedup {s_k}");
        assert!((6.0..11.0).contains(&s_p), "pattern speedup {s_p}");
        assert!(
            s_p / s_k > 1.15,
            "pattern advantage too small: {}",
            s_p / s_k
        );
    }

    #[test]
    fn pattern_driven_improves_load_balance() {
        let (g, mc, p) = setup();
        let kernel = schedule_substep(&g, &mc, &p, KernelLevel);
        let pattern = schedule_substep(&g, &mc, &p, PatternDriven::default());
        assert!(
            pattern.imbalance() < kernel.imbalance(),
            "pattern {} vs kernel {}",
            pattern.imbalance(),
            kernel.imbalance()
        );
    }

    #[test]
    fn schedules_respect_dependencies() {
        let (g, mc, p) = setup();
        for name in ["kernel-level", "pattern-driven"] {
            let s = schedule_substep(&g, &mc, &p, mpas_sched::resolve(name).unwrap());
            for (id, ns) in s.nodes.iter().enumerate() {
                for &pred in &g.preds[id] {
                    assert!(
                        s.nodes[pred].finish <= ns.start + 1e-12,
                        "{}: {} starts before {} finishes",
                        name,
                        ns.name,
                        s.nodes[pred].name
                    );
                }
            }
        }
    }

    #[test]
    fn split_fractions_are_sane() {
        let (g, mc, p) = setup();
        let s = schedule_substep(&g, &mc, &p, PatternDriven::default());
        let mut any_split = false;
        for ns in &s.nodes {
            if let Placement::Split(f) = ns.placement {
                any_split = true;
                assert!((0.0..=1.0).contains(&f));
            }
        }
        assert!(any_split, "pattern-driven never split a node");
    }

    #[test]
    fn speedup_grows_with_mesh_size() {
        // Paper Fig. 7: speedups increase from the 40 962-cell mesh to the
        // 2 621 442-cell mesh (overheads amortize).
        let g = DataflowGraph::for_substep(RkPhase::Intermediate);
        let p = Platform::paper_node();
        let ratio = |n: usize| {
            let mc = MeshCounts::icosahedral(n);
            let serial = schedule_substep(&g, &mc, &p, Serial).makespan;
            let pat = schedule_substep(&g, &mc, &p, PatternDriven::default()).makespan;
            serial / pat
        };
        assert!(ratio(2_621_442) > ratio(40_962));
    }
}
