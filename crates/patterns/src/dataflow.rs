//! Pattern instances (Table I) and the data-flow diagram (Fig. 4).
//!
//! A [`DataflowGraph`] is built for one RK substep. Nodes are pattern
//! instances in the textual order of Algorithm 1; a dependency edge runs
//! from the **last writer** of a variable to each subsequent reader (and to
//! the next writer, so write-after-write/read hazards are ordered too).
//! Variables not written within the substep — the prognostic state and the
//! previous substep's diagnostics — are available at graph entry.
//!
//! The graph exposes exactly the concurrency the paper exploits: e.g. in an
//! intermediate substep `accumulative_update` depends only on the tendencies,
//! so it can run on the CPU while `compute_solve_diagnostics` runs on the
//! accelerator (Fig. 4 (b)).

use crate::pattern::{MeshLocation, PatternClass, Variable};
use mpas_mesh::Mesh;
use std::collections::HashMap;

/// The six kernels of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Thickness and momentum tendencies.
    ComputeTend,
    /// Boundary-edge tendency masking.
    EnforceBoundaryEdge,
    /// Provisional RK-substep state.
    ComputeNextSubstepState,
    /// All diagnostic fields.
    ComputeSolveDiagnostics,
    /// RK quadrature accumulation.
    AccumulativeUpdate,
    /// Cell-center velocity reconstruction.
    MpasReconstruct,
}

/// Which flavor of RK substep a graph describes (Algorithm 1 branches on
/// `RK_step < 4`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RkPhase {
    /// Substeps 1–3: tend → boundary → next-substep state → diagnostics on
    /// the provisional state, with accumulation alongside.
    Intermediate,
    /// Substep 4: tend → boundary → final accumulation → diagnostics on the
    /// new state → velocity reconstruction.
    Final,
}

/// Node index within a [`DataflowGraph`].
pub type NodeId = usize;

/// One use of a stencil pattern: a row of the paper's Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternInstance {
    /// Table-I label, e.g. `"A1"`, `"H2"`, `"X4"`.
    pub name: &'static str,
    /// Stencil class (Fig. 3 letter).
    pub class: PatternClass,
    /// The Algorithm-1 kernel this instance belongs to.
    pub kernel: Kernel,
    /// Variables read.
    pub inputs: Vec<Variable>,
    /// Variables written.
    pub outputs: Vec<Variable>,
}

/// Mesh sizes feeding the per-node work model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshCounts {
    /// Number of cells (mass points).
    pub n_cells: f64,
    /// Number of edges (velocity points).
    pub n_edges: f64,
    /// Number of vertices (vorticity points).
    pub n_vertices: f64,
}

impl MeshCounts {
    /// The counts of a built mesh.
    pub fn of(mesh: &Mesh) -> Self {
        MeshCounts {
            n_cells: mesh.n_cells() as f64,
            n_edges: mesh.n_edges() as f64,
            n_vertices: mesh.n_vertices() as f64,
        }
    }

    /// Counts for a quasi-uniform icosahedral mesh with `n_cells` cells
    /// (edges ~3x, vertices ~2x by Euler's formula).
    pub fn icosahedral(n_cells: usize) -> Self {
        let c = n_cells as f64;
        MeshCounts {
            n_cells: c,
            n_edges: 3.0 * (c - 2.0),
            n_vertices: 2.0 * (c - 2.0),
        }
    }

    fn at(&self, loc: MeshLocation) -> f64 {
        match loc {
            MeshLocation::Cell => self.n_cells,
            MeshLocation::Edge => self.n_edges,
            MeshLocation::Vertex => self.n_vertices,
        }
    }
}

/// Estimated floating-point work and memory traffic of one pattern instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Work {
    /// Floating-point operations.
    pub flops: f64,
    /// Memory traffic in bytes (cache-line inflated).
    pub bytes: f64,
}

impl PatternInstance {
    /// Number of output points (total size of the written fields).
    pub fn output_points(&self, mc: &MeshCounts) -> f64 {
        self.outputs.iter().map(|v| mc.at(v.location())).sum()
    }

    /// Work model: ~2 flops (mul+add) per stencil point per input variable,
    /// plus per-point overhead; bytes = gathered inputs (value + 4-byte
    /// index) plus the streamed output, inflated by a cache-line
    /// granularity factor (irregular gathers fetch whole 64-byte lines and
    /// write-allocate stores, so each useful byte costs ≈2 memory-system
    /// bytes — calibrated against the paper's absolute Fig. 7 times).
    pub fn work(&self, mc: &MeshCounts) -> Work {
        const TRAFFIC_FACTOR: f64 = 2.1;
        let out = self.output_points(&MeshCounts { ..*mc });
        let width = self.class.stencil_width();
        let nin = self.inputs.len() as f64;
        let flops = out * (2.0 * width * nin.max(1.0) + 4.0);
        let bytes = TRAFFIC_FACTOR * out * (8.0 + width * (8.0 * nin.max(1.0) + 4.0));
        Work { flops, bytes }
    }
}

/// Shorthand for building instances.
fn inst(
    name: &'static str,
    class: PatternClass,
    kernel: Kernel,
    inputs: &[Variable],
    outputs: &[Variable],
) -> PatternInstance {
    PatternInstance {
        name,
        class,
        kernel,
        inputs: inputs.to_vec(),
        outputs: outputs.to_vec(),
    }
}

/// The full Table I: every pattern instance of the shallow-water model, in
/// Algorithm-1 execution order for an **intermediate** substep.
pub fn table_i() -> Vec<PatternInstance> {
    use Kernel::*;
    use PatternClass as P;
    use Variable::*;
    vec![
        // -- compute_tend (reads the previous substep's diagnostics)
        inst("A1", P::A, ComputeTend, &[ProvisU, HEdge], &[TendH]),
        inst(
            "B1",
            P::B,
            ComputeTend,
            &[PvEdge, ProvisU, HEdge, Ke, ProvisH],
            &[TendU],
        ),
        inst(
            "C1",
            P::C,
            ComputeTend,
            &[Divergence, Vorticity, TendU],
            &[TendU],
        ),
        // -- enforce_boundary_edge
        inst("X1", P::Local, EnforceBoundaryEdge, &[TendU], &[TendU]),
        // -- compute_next_substep_state
        inst(
            "X2",
            P::Local,
            ComputeNextSubstepState,
            &[H, TendH],
            &[ProvisH],
        ),
        inst(
            "X3",
            P::Local,
            ComputeNextSubstepState,
            &[U, TendU],
            &[ProvisU],
        ),
        // -- accumulative_update (depends only on tendencies!)
        inst("X4", P::Local, AccumulativeUpdate, &[H, TendH], &[H]),
        inst("X5", P::Local, AccumulativeUpdate, &[U, TendU], &[U]),
        // -- compute_solve_diagnostics (on the provisional state)
        inst(
            "D1",
            P::D,
            ComputeSolveDiagnostics,
            &[ProvisH],
            &[D2fdx2Cell1],
        ),
        inst(
            "D2",
            P::D,
            ComputeSolveDiagnostics,
            &[ProvisH],
            &[D2fdx2Cell2],
        ),
        inst(
            "H2",
            P::H,
            ComputeSolveDiagnostics,
            &[ProvisH, D2fdx2Cell1, D2fdx2Cell2],
            &[HEdge],
        ),
        inst(
            "C2",
            P::C,
            ComputeSolveDiagnostics,
            &[ProvisU],
            &[Vorticity],
        ),
        inst("A2", P::A, ComputeSolveDiagnostics, &[ProvisU], &[Ke]),
        inst(
            "B2",
            P::B,
            ComputeSolveDiagnostics,
            &[ProvisU],
            &[Divergence],
        ),
        inst("H1", P::H, ComputeSolveDiagnostics, &[ProvisU], &[V]),
        // Cell vorticity is kite-interpolated from the vertex vorticity;
        // the paper's Table I lists `provis_u` as the input because the
        // vertex vorticity is itself diagnosed from it — we surface the
        // intermediate dependency explicitly.
        inst(
            "A3",
            P::A,
            ComputeSolveDiagnostics,
            &[Vorticity],
            &[VorticityCell],
        ),
        inst(
            "E",
            P::E,
            ComputeSolveDiagnostics,
            &[ProvisH, Vorticity],
            &[PvVertex],
        ),
        inst("F", P::F, ComputeSolveDiagnostics, &[PvVertex], &[PvCell]),
        inst(
            "G",
            P::G,
            ComputeSolveDiagnostics,
            &[PvVertex, PvCell, ProvisU, V],
            &[PvEdge],
        ),
        // -- mpas_reconstruct (final substep only)
        inst("A4", P::A, MpasReconstruct, &[U], &[URecX, URecY, URecZ]),
        inst(
            "X6",
            P::Local,
            MpasReconstruct,
            &[URecX, URecY, URecZ],
            &[URecZonal, URecMeridional],
        ),
    ]
}

/// A data-flow diagram for one RK substep.
#[derive(Debug, Clone)]
pub struct DataflowGraph {
    /// Which substep flavor this graph describes.
    pub phase: RkPhase,
    /// Pattern instances in Algorithm-1 program order.
    pub nodes: Vec<PatternInstance>,
    /// `preds[n]` = nodes that must complete before `n` starts.
    pub preds: Vec<Vec<NodeId>>,
    /// `succs[n]` = nodes unlocked by `n` (transpose of `preds`).
    pub succs: Vec<Vec<NodeId>>,
}

impl DataflowGraph {
    /// Build the diagram for one RK substep of Algorithm 1.
    pub fn for_substep(phase: RkPhase) -> Self {
        let all = table_i();
        let pick = |names: &[&str]| -> Vec<PatternInstance> {
            names
                .iter()
                .map(|n| {
                    all.iter()
                        .find(|p| p.name == *n)
                        .cloned()
                        .unwrap_or_else(|| panic!("unknown pattern instance {n}"))
                })
                .collect()
        };
        let nodes = match phase {
            RkPhase::Intermediate => pick(&[
                "A1", "B1", "C1", "X1", "X2", "X3", "X4", "X5", "D1", "D2", "H2", "C2", "A2", "B2",
                "H1", "A3", "E", "F", "G",
            ]),
            RkPhase::Final => {
                let mut nodes = pick(&[
                    "A1", "B1", "C1", "X1", "X4", "X5", "D1", "D2", "H2", "C2", "A2", "B2", "H1",
                    "A3", "E", "F", "G", "A4", "X6",
                ]);
                // In the final substep the diagnostics (and reconstruction)
                // run on the freshly accumulated state, not the provisional
                // one: substitute ProvisH -> H, ProvisU -> U in the
                // diagnostic suite's inputs.
                for n in nodes.iter_mut() {
                    if matches!(n.kernel, Kernel::ComputeSolveDiagnostics) {
                        for v in n.inputs.iter_mut() {
                            *v = match *v {
                                Variable::ProvisH => Variable::H,
                                Variable::ProvisU => Variable::U,
                                other => other,
                            };
                        }
                    }
                }
                nodes
            }
        };
        Self::from_nodes(phase, nodes)
    }

    /// Wire dependencies by last-writer analysis over an ordered node list.
    pub fn from_nodes(phase: RkPhase, nodes: Vec<PatternInstance>) -> Self {
        let mut last_writer: HashMap<Variable, NodeId> = HashMap::new();
        let mut preds: Vec<Vec<NodeId>> = vec![Vec::new(); nodes.len()];
        for (id, node) in nodes.iter().enumerate() {
            let mut p: Vec<NodeId> = Vec::new();
            for &v in &node.inputs {
                if let Some(&w) = last_writer.get(&v) {
                    p.push(w);
                }
            }
            // Write-after-write ordering keeps re-writers sequenced.
            for &v in &node.outputs {
                if let Some(&w) = last_writer.get(&v) {
                    p.push(w);
                }
            }
            p.sort_unstable();
            p.dedup();
            p.retain(|&w| w != id);
            preds[id] = p;
            for &v in &node.outputs {
                last_writer.insert(v, id);
            }
        }
        let mut succs: Vec<Vec<NodeId>> = vec![Vec::new(); nodes.len()];
        for (id, ps) in preds.iter().enumerate() {
            for &p in ps {
                succs[p].push(id);
            }
        }
        DataflowGraph {
            phase,
            nodes,
            preds,
            succs,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Find a node by Table-I name.
    pub fn node(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name)
    }

    /// Topological levels: level `k` contains nodes whose longest dependency
    /// chain has length `k`. Nodes within a level are mutually independent
    /// and may run concurrently. Panics on cycles (construction forbids
    /// them, since edges only point forward in program order).
    pub fn topo_levels(&self) -> Vec<Vec<NodeId>> {
        let mut level = vec![0usize; self.len()];
        for id in 0..self.len() {
            for &p in &self.preds[id] {
                debug_assert!(p < id, "dependency must point backward");
                level[id] = level[id].max(level[p] + 1);
            }
        }
        let max = level.iter().copied().max().unwrap_or(0);
        let mut out = vec![Vec::new(); max + 1];
        for (id, &l) in level.iter().enumerate() {
            out[l].push(id);
        }
        out
    }

    /// Critical-path length under a per-node cost function, plus the total
    /// (serial) cost. Their ratio bounds the achievable parallel speedup.
    pub fn critical_path<Fc: Fn(&PatternInstance) -> f64>(&self, cost: Fc) -> (f64, f64) {
        let mut finish = vec![0.0f64; self.len()];
        let mut total = 0.0;
        for id in 0..self.len() {
            let start = self.preds[id]
                .iter()
                .map(|&p| finish[p])
                .fold(0.0f64, f64::max);
            let c = cost(&self.nodes[id]);
            finish[id] = start + c;
            total += c;
        }
        let cp = finish.iter().copied().fold(0.0f64, f64::max);
        (cp, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Variable::*;

    #[test]
    fn table_i_has_21_instances_with_expected_pattern_usage() {
        let t = table_i();
        assert_eq!(t.len(), 21);
        let count = |c: PatternClass| t.iter().filter(|p| p.class == c).count();
        // DESIGN.md §3: A is used 4 times, B twice, C twice, D twice,
        // E/F/G once, H twice, and six local boxes X1..X6.
        assert_eq!(count(PatternClass::A), 4);
        assert_eq!(count(PatternClass::B), 2);
        assert_eq!(count(PatternClass::C), 2);
        assert_eq!(count(PatternClass::D), 2);
        assert_eq!(count(PatternClass::E), 1);
        assert_eq!(count(PatternClass::F), 1);
        assert_eq!(count(PatternClass::G), 1);
        assert_eq!(count(PatternClass::H), 2);
        assert_eq!(count(PatternClass::Local), 6);
    }

    #[test]
    fn no_instance_reads_cell_vorticity_or_zonal_meridional_velocity() {
        // A3's and X6's outputs leave the data flow (and with X6, A4's):
        // on that fact no step runs A3, A4 or X6, which a model computes
        // only on an output request.
        for p in &table_i() {
            for v in [VorticityCell, URecZonal, URecMeridional] {
                assert!(!p.inputs.contains(&v), "{} reads {v:?}", p.name);
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let t = table_i();
        let mut seen = std::collections::HashSet::new();
        for p in &t {
            assert!(seen.insert(p.name), "{} duplicated", p.name);
        }
    }

    #[test]
    fn intermediate_graph_kernel_ordering_matches_algorithm_1() {
        let g = DataflowGraph::for_substep(RkPhase::Intermediate);
        // compute_tend -> enforce_boundary_edge -> next_substep -> diag.
        let b1 = g.node("B1").unwrap();
        let c1 = g.node("C1").unwrap();
        let x1 = g.node("X1").unwrap();
        let x3 = g.node("X3").unwrap();
        let a2 = g.node("A2").unwrap();
        assert!(g.preds[c1].contains(&b1), "C1 must follow B1 (tend_u RMW)");
        assert!(g.preds[x1].contains(&c1), "X1 must follow C1");
        assert!(g.preds[x3].contains(&x1), "X3 must follow X1");
        assert!(g.preds[a2].contains(&x3), "diag on provis follows X3");
    }

    #[test]
    fn accumulate_is_independent_of_diagnostics() {
        // The concurrency the pattern-driven design exploits (Fig. 4(b)):
        // X4/X5 depend only on tendencies, not on any diagnostics node.
        let g = DataflowGraph::for_substep(RkPhase::Intermediate);
        let x4 = g.node("X4").unwrap();
        let x5 = g.node("X5").unwrap();
        for diag in [
            "D1", "D2", "H2", "C2", "A2", "B2", "A3", "E", "F", "H1", "G",
        ] {
            let d = g.node(diag).unwrap();
            assert!(!g.preds[x4].contains(&d));
            assert!(!g.preds[x5].contains(&d));
            // And the diagnostics do not wait on the accumulation either.
            assert!(!g.preds[d].contains(&x4));
            assert!(!g.preds[d].contains(&x5));
        }
    }

    #[test]
    fn diagnostic_chain_d_to_h2_to_next_substep() {
        let g = DataflowGraph::for_substep(RkPhase::Intermediate);
        let h2 = g.node("H2").unwrap();
        let d1 = g.node("D1").unwrap();
        let d2 = g.node("D2").unwrap();
        assert!(g.preds[h2].contains(&d1));
        assert!(g.preds[h2].contains(&d2));
        let gph = g.node("G").unwrap();
        for dep in ["E", "F", "H1"] {
            assert!(g.preds[gph].contains(&g.node(dep).unwrap()));
        }
    }

    #[test]
    fn final_graph_diagnostics_read_new_state() {
        let g = DataflowGraph::for_substep(RkPhase::Final);
        let a2 = g.node("A2").unwrap();
        assert!(g.nodes[a2].inputs.contains(&U));
        assert!(!g.nodes[a2].inputs.contains(&ProvisU));
        // Diagnostics therefore wait on the final accumulation X5.
        let x5 = g.node("X5").unwrap();
        assert!(g.preds[a2].contains(&x5));
        // Reconstruction is present and reads U.
        let a4 = g.node("A4").unwrap();
        assert!(g.nodes[a4].inputs.contains(&U));
        let x6 = g.node("X6").unwrap();
        assert!(g.preds[x6].contains(&a4));
    }

    #[test]
    fn intermediate_graph_has_no_reconstruct() {
        let g = DataflowGraph::for_substep(RkPhase::Intermediate);
        assert!(g.node("A4").is_none());
        assert!(g.node("X6").is_none());
        assert_eq!(g.len(), 19);
    }

    #[test]
    fn topo_levels_cover_all_nodes_exactly_once() {
        for phase in [RkPhase::Intermediate, RkPhase::Final] {
            let g = DataflowGraph::for_substep(phase);
            let levels = g.topo_levels();
            let mut seen = vec![false; g.len()];
            for level in &levels {
                for &n in level {
                    assert!(!seen[n]);
                    seen[n] = true;
                }
            }
            assert!(seen.iter().all(|&b| b));
            // Every dependency crosses levels forward.
            let mut level_of = vec![0; g.len()];
            for (l, nodes) in levels.iter().enumerate() {
                for &n in nodes {
                    level_of[n] = l;
                }
            }
            for n in 0..g.len() {
                for &p in &g.preds[n] {
                    assert!(level_of[p] < level_of[n]);
                }
            }
        }
    }

    #[test]
    fn critical_path_shorter_than_total_work() {
        let g = DataflowGraph::for_substep(RkPhase::Intermediate);
        let mc = MeshCounts::icosahedral(40962);
        let (cp, total) = g.critical_path(|n| n.work(&mc).flops);
        assert!(cp > 0.0 && cp < total);
        // There is real concurrency: the critical path is well below the
        // serial sum (this is the headroom the hybrid scheduler exploits).
        assert!(cp / total < 0.8, "cp/total = {}", cp / total);
    }

    #[test]
    fn work_scales_linearly_with_mesh_size() {
        let t = table_i();
        let small = MeshCounts::icosahedral(40962);
        let large = MeshCounts::icosahedral(4 * 40962);
        for p in &t {
            let r = p.work(&large).flops / p.work(&small).flops;
            assert!((r - 4.0).abs() < 0.1, "{}: ratio {r}", p.name);
        }
    }

    #[test]
    fn succs_is_transpose_of_preds() {
        let g = DataflowGraph::for_substep(RkPhase::Final);
        for n in 0..g.len() {
            for &p in &g.preds[n] {
                assert!(g.succs[p].contains(&n));
            }
            for &s in &g.succs[n] {
                assert!(g.preds[s].contains(&n));
            }
        }
    }
}
