//! The task-DAG view the scheduling policies consume.
//!
//! [`TaskDag`] is extracted from a [`DataflowGraph`] for a concrete mesh
//! size and platform: every node carries its per-device execution cost, its
//! output bytes (what a cross-device consumer must move), and whether the
//! pattern-driven policy may split it across devices. Policies therefore
//! never re-derive costs — swap the [`CostModel`] at extraction time and
//! every registered policy schedules against the new coefficients.

use crate::platform::{DeviceSpec, Platform};
use mpas_patterns::dataflow::{DataflowGraph, Kernel, MeshCounts, PatternInstance};
use mpas_patterns::pattern::{PatternClass, Variable};
use std::collections::HashMap;

/// Device index of the host CPU in cost arrays and timelines.
pub const DEV_CPU: usize = 0;
/// Device index of the accelerator in cost arrays and timelines.
pub const DEV_ACC: usize = 1;

/// Share of substep bytes above which a node is "adjustable" (splittable).
pub const SPLIT_THRESHOLD: f64 = 0.08;

/// Maps a pattern instance to an execution time on a device.
///
/// The default [`RooflineCost`] evaluates the Table-II roofline; a
/// [`CalibratedCost`] rescales it with per-pattern coefficients fitted from
/// measured executor timings (see `mpas_hybrid::calibrate`).
pub trait CostModel {
    /// Execution time of `node` run entirely on `dev`, seconds.
    fn node_cost(&self, node: &PatternInstance, mc: &MeshCounts, dev: &DeviceSpec) -> f64;
}

/// The pure Table-II roofline model: `max(flops/F, bytes/B) + launch`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RooflineCost;

impl CostModel for RooflineCost {
    fn node_cost(&self, node: &PatternInstance, mc: &MeshCounts, dev: &DeviceSpec) -> f64 {
        dev.node_time(node.work(mc))
    }
}

/// Roofline costs rescaled by measured per-pattern throughput coefficients.
///
/// A coefficient of `c` for pattern `"B1"` means the measured executor ran
/// `c`× slower (c > 1) or faster (c < 1) than the roofline predicted on the
/// reference device; unmeasured patterns fall back to the plain roofline.
#[derive(Debug, Clone, Default)]
pub struct CalibratedCost {
    /// Per-pattern `measured / predicted` time ratios, keyed by Table-I name.
    pub coeffs: HashMap<String, f64>,
}

impl CalibratedCost {
    /// Build from per-pattern coefficients.
    pub fn new(coeffs: HashMap<String, f64>) -> Self {
        CalibratedCost { coeffs }
    }
}

impl CostModel for CalibratedCost {
    fn node_cost(&self, node: &PatternInstance, mc: &MeshCounts, dev: &DeviceSpec) -> f64 {
        let c = self.coeffs.get(node.name).copied().unwrap_or(1.0);
        c * dev.node_time(node.work(mc))
    }
}

/// One schedulable task: a pattern instance annotated with everything a
/// policy needs to place it.
#[derive(Debug, Clone)]
pub struct TaskNode {
    /// Table-I pattern-instance label.
    pub name: &'static str,
    /// Algorithm-1 kernel the instance belongs to (kernel-level policy).
    pub kernel: Kernel,
    /// Stencil class (Fig. 3 letter).
    pub class: PatternClass,
    /// Execution time on `[cpu, acc]`, seconds, including launch overhead.
    pub cost: [f64; 2],
    /// Execution time on the single-core reference CPU, seconds.
    pub serial_cost: f64,
    /// Total bytes of the written fields (cross-device transfer size).
    pub out_bytes: f64,
    /// Model memory traffic of the node, bytes (splittability share).
    pub work_bytes: f64,
    /// Whether the pattern-driven policy may split this node across devices.
    pub splittable: bool,
    /// Variables read.
    pub inputs: Vec<Variable>,
    /// Variables written.
    pub outputs: Vec<Variable>,
}

/// A scheduling-ready task DAG for one RK substep at one mesh size.
#[derive(Debug, Clone)]
pub struct TaskDag {
    /// Tasks in Algorithm-1 program order (node id = index).
    pub nodes: Vec<TaskNode>,
    /// `preds[n]` = nodes that must complete before `n` starts.
    pub preds: Vec<Vec<usize>>,
    /// `succs[n]` = nodes unlocked by `n`.
    pub succs: Vec<Vec<usize>>,
    /// Bytes of one field of each variable touched by the graph.
    pub var_bytes: HashMap<Variable, f64>,
}

/// Bytes of one field of a variable at the given mesh size.
pub fn variable_bytes(v: Variable, mc: &MeshCounts) -> f64 {
    use mpas_patterns::pattern::MeshLocation::*;
    8.0 * match v.location() {
        Cell => mc.n_cells,
        Edge => mc.n_edges,
        Vertex => mc.n_vertices,
    }
}

impl TaskDag {
    /// Extract the scheduling view with the roofline cost model.
    pub fn from_dataflow(graph: &DataflowGraph, mc: &MeshCounts, platform: &Platform) -> Self {
        Self::from_dataflow_with(graph, mc, platform, &RooflineCost)
    }

    /// Extract the scheduling view under an explicit cost model.
    pub fn from_dataflow_with(
        graph: &DataflowGraph,
        mc: &MeshCounts,
        platform: &Platform,
        cost: &dyn CostModel,
    ) -> Self {
        let serial_core = DeviceSpec::cpu_single_core();
        let total_bytes: f64 = graph.nodes.iter().map(|n| n.work(mc).bytes).sum();
        let mut var_bytes = HashMap::new();
        let nodes = graph
            .nodes
            .iter()
            .map(|n| {
                for &v in n.inputs.iter().chain(&n.outputs) {
                    var_bytes.entry(v).or_insert_with(|| variable_bytes(v, mc));
                }
                let work_bytes = n.work(mc).bytes;
                TaskNode {
                    name: n.name,
                    kernel: n.kernel,
                    class: n.class,
                    cost: [
                        cost.node_cost(n, mc, &platform.cpu),
                        cost.node_cost(n, mc, &platform.acc),
                    ],
                    serial_cost: cost.node_cost(n, mc, &serial_core),
                    out_bytes: n.outputs.iter().map(|&v| variable_bytes(v, mc)).sum(),
                    work_bytes,
                    splittable: work_bytes / total_bytes > SPLIT_THRESHOLD
                        && n.class != PatternClass::Local,
                    inputs: n.inputs.clone(),
                    outputs: n.outputs.clone(),
                }
            })
            .collect();
        TaskDag {
            nodes,
            preds: graph.preds.clone(),
            succs: graph.succs.clone(),
            var_bytes,
        }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the DAG has no tasks.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpas_patterns::dataflow::RkPhase;

    #[test]
    fn costs_match_the_roofline_model() {
        let p = Platform::paper_node();
        let g = DataflowGraph::for_substep(RkPhase::Intermediate);
        let mc = MeshCounts::icosahedral(655_362);
        let dag = TaskDag::from_dataflow(&g, &mc, &p);
        for (t, n) in dag.nodes.iter().zip(&g.nodes) {
            assert_eq!(t.cost[DEV_CPU], p.cpu.node_time(n.work(&mc)));
            assert_eq!(t.cost[DEV_ACC], p.acc.node_time(n.work(&mc)));
            assert_eq!(
                t.serial_cost,
                DeviceSpec::cpu_single_core().node_time(n.work(&mc))
            );
        }
    }

    #[test]
    fn splittability_follows_threshold_and_class() {
        let p = Platform::paper_node();
        let g = DataflowGraph::for_substep(RkPhase::Intermediate);
        let mc = MeshCounts::icosahedral(655_362);
        let dag = TaskDag::from_dataflow(&g, &mc, &p);
        let b1 = dag.nodes.iter().find(|n| n.name == "B1").unwrap();
        assert!(b1.splittable, "the heaviest pattern must be adjustable");
        for n in &dag.nodes {
            if n.class == PatternClass::Local {
                assert!(!n.splittable, "{} is local", n.name);
            }
        }
        // Exactly the non-local nodes above the threshold share split.
        let total: f64 = dag.nodes.iter().map(|n| n.work_bytes).sum();
        for n in &dag.nodes {
            let share = n.work_bytes / total;
            assert_eq!(
                n.splittable,
                share > SPLIT_THRESHOLD && n.class != PatternClass::Local,
                "{} at share {share}",
                n.name
            );
        }
    }

    #[test]
    fn calibrated_cost_rescales_only_named_patterns() {
        let p = Platform::paper_node();
        let g = DataflowGraph::for_substep(RkPhase::Intermediate);
        let mc = MeshCounts::icosahedral(40_962);
        let mut coeffs = HashMap::new();
        coeffs.insert("B1".to_string(), 2.0);
        let cal = CalibratedCost::new(coeffs);
        let plain = TaskDag::from_dataflow(&g, &mc, &p);
        let scaled = TaskDag::from_dataflow_with(&g, &mc, &p, &cal);
        for (a, b) in plain.nodes.iter().zip(&scaled.nodes) {
            if a.name == "B1" {
                assert!((b.cost[0] / a.cost[0] - 2.0).abs() < 1e-12);
            } else {
                assert_eq!(a.cost, b.cost);
            }
        }
    }
}
