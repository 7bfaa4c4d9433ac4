//! Domain decomposition: recursive coordinate bisection plus multi-layer
//! halo construction and exchange lists.
//!
//! This plays the role of the METIS/`graph.info` partitioning in MPAS. Each
//! rank receives a [`RankLocal`] view: its owned cells, a configurable number
//! of halo layers of remote cells, the induced local edge/vertex sets, and
//! matched send/receive lists so the message runtime can update halos
//! without any global knowledge.
//!
//! Ownership rules (deterministic, rank-independent):
//! * cell owner — from RCB;
//! * edge owner — owner of `cells_on_edge[e][0]`;
//! * vertex owner — owner of `cells_on_vertex[v][0]`.

use crate::mesh::{CellId, EdgeId, Mesh, VertexId};
use std::collections::HashMap;

/// A partition of a mesh across `n_ranks` ranks.
#[derive(Debug, Clone)]
pub struct MeshPartition {
    /// Number of parts.
    pub n_ranks: usize,
    /// Owning rank of every global cell.
    pub owner_cell: Vec<u32>,
    /// Owning rank of every global edge.
    pub owner_edge: Vec<u32>,
    /// Per-rank local views.
    pub ranks: Vec<RankLocal>,
}

/// One rank's local view of the mesh.
#[derive(Debug, Clone)]
pub struct RankLocal {
    /// This rank's id.
    pub rank: usize,
    /// Global cell ids: owned first, then halo layer 1, layer 2, ...
    pub cells: Vec<CellId>,
    /// Number of owned cells (prefix of `cells`).
    pub n_owned_cells: usize,
    /// Global edge ids: edges owned by this rank first, then remote edges
    /// touching any local cell.
    pub edges: Vec<EdgeId>,
    /// Number of owned edges (prefix of `edges`).
    pub n_owned_edges: usize,
    /// Global vertex ids of all vertices whose three cells are all local.
    pub vertices: Vec<VertexId>,
    /// Map global cell id -> local index.
    pub cell_g2l: HashMap<CellId, u32>,
    /// Map global edge id -> local index.
    pub edge_g2l: HashMap<EdgeId, u32>,
    /// Per neighbor rank: local indices of **owned** cells to send.
    pub send_cells: Vec<(usize, Vec<u32>)>,
    /// Per neighbor rank: local indices of **halo** cells to receive.
    pub recv_cells: Vec<(usize, Vec<u32>)>,
    /// Per neighbor rank: local indices of owned edges to send.
    pub send_edges: Vec<(usize, Vec<u32>)>,
    /// Per neighbor rank: local indices of halo edges to receive.
    pub recv_edges: Vec<(usize, Vec<u32>)>,
}

impl RankLocal {
    /// Total number of local cells (owned + halo).
    pub fn n_cells(&self) -> usize {
        self.cells.len()
    }

    /// Total number of local edges (owned + halo).
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }
}

/// Recursive coordinate bisection of the cell centers into `n_parts`
/// near-equal parts. Returns the owner of each cell.
pub fn rcb_partition(mesh: &Mesh, n_parts: usize) -> Vec<u32> {
    assert!(n_parts >= 1);
    let mut owner = vec![0u32; mesh.n_cells()];
    let mut idx: Vec<u32> = (0..mesh.n_cells() as u32).collect();
    rcb_recurse(mesh, &mut idx, 0, n_parts, &mut owner);
    owner
}

fn rcb_recurse(mesh: &Mesh, idx: &mut [u32], first_part: usize, n_parts: usize, owner: &mut [u32]) {
    if n_parts == 1 {
        for &i in idx.iter() {
            owner[i as usize] = first_part as u32;
        }
        return;
    }
    // Split proportionally so odd rank counts stay balanced.
    let left_parts = n_parts / 2;
    let right_parts = n_parts - left_parts;
    let split_at = idx.len() * left_parts / n_parts;

    // Pick the coordinate with the largest spread.
    let spread = |get: fn(&Mesh, u32) -> f64| {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &i in idx.iter() {
            let v = get(mesh, i);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        hi - lo
    };
    let fx = |m: &Mesh, i: u32| m.x_cell[i as usize].x;
    let fy = |m: &Mesh, i: u32| m.x_cell[i as usize].y;
    let fz = |m: &Mesh, i: u32| m.x_cell[i as usize].z;
    let (sx, sy, sz) = (spread(fx), spread(fy), spread(fz));
    let key: fn(&Mesh, u32) -> f64 = if sx >= sy && sx >= sz {
        fx
    } else if sy >= sz {
        fy
    } else {
        fz
    };
    // Only which cells fall left of the cut matters (each half is split
    // again on its own axis), so select instead of sorting.
    if split_at < idx.len() {
        idx.select_nth_unstable_by(split_at, |&a, &b| {
            key(mesh, a)
                .partial_cmp(&key(mesh, b))
                .unwrap()
                .then(a.cmp(&b))
        });
    }
    let (left, right) = idx.split_at_mut(split_at);
    rcb_recurse(mesh, left, first_part, left_parts, owner);
    rcb_recurse(mesh, right, first_part + left_parts, right_parts, owner);
}

impl MeshPartition {
    /// Partition `mesh` into `n_ranks` parts with `halo_layers` layers of
    /// ghost cells (the shallow-water RK4 step with TRiSK stencils needs 3
    /// layers to advance owned points without mid-step communication).
    pub fn build(mesh: &Mesh, n_ranks: usize, halo_layers: usize) -> Self {
        let owner_cell = rcb_partition(mesh, n_ranks);
        let owner_edge: Vec<u32> = mesh
            .cells_on_edge
            .iter()
            .map(|&[c1, _]| owner_cell[c1 as usize])
            .collect();

        let mut ranks = Vec::with_capacity(n_ranks);
        for r in 0..n_ranks {
            ranks.push(Self::build_rank(
                mesh,
                &owner_cell,
                &owner_edge,
                r,
                halo_layers,
            ));
        }
        let mut part = MeshPartition {
            n_ranks,
            owner_cell,
            owner_edge,
            ranks,
        };
        part.wire_exchange_lists(mesh);
        part
    }

    /// Number of mesh edges whose two cells live on different ranks — the
    /// classic partition-quality metric (communication volume is
    /// proportional to it).
    pub fn edge_cut(&self, mesh: &Mesh) -> usize {
        mesh.cells_on_edge
            .iter()
            .filter(|&&[a, b]| self.owner_cell[a as usize] != self.owner_cell[b as usize])
            .count()
    }

    /// Total halo cells across ranks (replication overhead of the chosen
    /// halo depth).
    pub fn total_halo_cells(&self) -> usize {
        self.ranks
            .iter()
            .map(|r| r.n_cells() - r.n_owned_cells)
            .sum()
    }

    fn build_rank(
        mesh: &Mesh,
        owner_cell: &[u32],
        owner_edge: &[u32],
        rank: usize,
        halo_layers: usize,
    ) -> RankLocal {
        // Owned cells in ascending global order (deterministic).
        let mut cells: Vec<CellId> = (0..mesh.n_cells() as u32)
            .filter(|&c| owner_cell[c as usize] == rank as u32)
            .collect();
        let n_owned_cells = cells.len();
        let mut is_local = vec![false; mesh.n_cells()];
        for &c in &cells {
            is_local[c as usize] = true;
        }

        // Breadth-first halo layers over cellsOnCell, each layer sorted for
        // determinism.
        let mut frontier_start = 0;
        for _layer in 0..halo_layers {
            let frontier_end = cells.len();
            let mut next: Vec<CellId> = Vec::new();
            for &g in &cells[frontier_start..frontier_end] {
                for &nb in mesh.cells_of_cell(g as usize) {
                    if !is_local[nb as usize] {
                        is_local[nb as usize] = true;
                        next.push(nb);
                    }
                }
            }
            next.sort_unstable();
            cells.extend_from_slice(&next);
            frontier_start = frontier_end;
        }

        // Local edges: all edges of local cells; owned-by-me first.
        let mut edge_set: Vec<EdgeId> = Vec::new();
        let mut seen_edges = vec![false; mesh.n_edges()];
        for &g in &cells {
            for &e in mesh.edges_of_cell(g as usize) {
                if !seen_edges[e as usize] {
                    seen_edges[e as usize] = true;
                    edge_set.push(e);
                }
            }
        }
        let mut owned_edges: Vec<EdgeId> = edge_set
            .iter()
            .copied()
            .filter(|&e| owner_edge[e as usize] == rank as u32)
            .collect();
        let mut halo_edges: Vec<EdgeId> = edge_set
            .iter()
            .copied()
            .filter(|&e| owner_edge[e as usize] != rank as u32)
            .collect();
        owned_edges.sort_unstable();
        halo_edges.sort_unstable();
        let n_owned_edges = owned_edges.len();
        let mut edges = owned_edges;
        edges.extend_from_slice(&halo_edges);
        let edge_g2l: HashMap<EdgeId, u32> = edges
            .iter()
            .enumerate()
            .map(|(l, &g)| (g, l as u32))
            .collect();

        // Local vertices: those whose 3 cells are all local (diagnostics on
        // them are then locally computable), in ascending order.
        let vertices: Vec<VertexId> = (0..mesh.n_vertices() as u32)
            .filter(|&v| {
                mesh.cells_on_vertex[v as usize]
                    .iter()
                    .all(|&c| is_local[c as usize])
            })
            .collect();
        let cell_g2l: HashMap<CellId, u32> = cells
            .iter()
            .enumerate()
            .map(|(l, &g)| (g, l as u32))
            .collect();

        RankLocal {
            rank,
            cells,
            n_owned_cells,
            edges,
            n_owned_edges,
            vertices,
            cell_g2l,
            edge_g2l,
            send_cells: Vec::new(),
            recv_cells: Vec::new(),
            send_edges: Vec::new(),
            recv_edges: Vec::new(),
        }
    }

    /// Build matched send/recv lists. Both sides enumerate the transferred
    /// global ids in the receiver's halo order, so packing on the sender and
    /// unpacking on the receiver agree element-by-element.
    fn wire_exchange_lists(&mut self, _mesh: &Mesh) {
        let n = self.n_ranks;
        // (from, to) -> global cell ids in receiver order.
        let mut cell_flows: HashMap<(usize, usize), Vec<CellId>> = HashMap::new();
        let mut edge_flows: HashMap<(usize, usize), Vec<EdgeId>> = HashMap::new();
        for r in 0..n {
            let local = &self.ranks[r];
            for &g in &local.cells[local.n_owned_cells..] {
                let o = self.owner_cell[g as usize] as usize;
                cell_flows.entry((o, r)).or_default().push(g);
            }
            for &g in &local.edges[local.n_owned_edges..] {
                let o = self.owner_edge[g as usize] as usize;
                edge_flows.entry((o, r)).or_default().push(g);
            }
        }
        for r in 0..n {
            let mut send_cells = Vec::new();
            let mut recv_cells = Vec::new();
            let mut send_edges = Vec::new();
            let mut recv_edges = Vec::new();
            for other in 0..n {
                if other == r {
                    continue;
                }
                if let Some(globals) = cell_flows.get(&(r, other)) {
                    let locals = globals.iter().map(|g| self.ranks[r].cell_g2l[g]).collect();
                    send_cells.push((other, locals));
                }
                if let Some(globals) = cell_flows.get(&(other, r)) {
                    let locals = globals.iter().map(|g| self.ranks[r].cell_g2l[g]).collect();
                    recv_cells.push((other, locals));
                }
                if let Some(globals) = edge_flows.get(&(r, other)) {
                    let locals = globals.iter().map(|g| self.ranks[r].edge_g2l[g]).collect();
                    send_edges.push((other, locals));
                }
                if let Some(globals) = edge_flows.get(&(other, r)) {
                    let locals = globals.iter().map(|g| self.ranks[r].edge_g2l[g]).collect();
                    recv_edges.push((other, locals));
                }
            }
            let rl = &mut self.ranks[r];
            rl.send_cells = send_cells;
            rl.recv_cells = recv_cells;
            rl.send_edges = send_edges;
            rl.recv_edges = recv_edges;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::icosahedron::IcosaGrid;
    use crate::voronoi::build_mesh;

    fn mesh() -> Mesh {
        build_mesh(&IcosaGrid::subdivide(3))
    }

    #[test]
    fn ownership_is_a_partition() {
        let m = mesh();
        let p = MeshPartition::build(&m, 4, 2);
        let mut counts = vec![0usize; 4];
        for &o in &p.owner_cell {
            counts[o as usize] += 1;
        }
        let total: usize = counts.iter().sum();
        assert_eq!(total, m.n_cells());
        // Balance within 2%.
        let ideal = m.n_cells() as f64 / 4.0;
        for &c in &counts {
            assert!(
                (c as f64 / ideal - 1.0).abs() < 0.02,
                "imbalance: {counts:?}"
            );
        }
    }

    #[test]
    fn owned_regions_are_disjoint_and_cover() {
        let m = mesh();
        let p = MeshPartition::build(&m, 5, 1);
        let mut seen_cells = vec![false; m.n_cells()];
        let mut seen_edges = vec![false; m.n_edges()];
        for r in &p.ranks {
            for &c in &r.cells[..r.n_owned_cells] {
                assert!(!seen_cells[c as usize], "cell {c} owned twice");
                seen_cells[c as usize] = true;
            }
            for &e in &r.edges[..r.n_owned_edges] {
                assert!(!seen_edges[e as usize], "edge {e} owned twice");
                seen_edges[e as usize] = true;
            }
        }
        assert!(seen_cells.iter().all(|&b| b));
        assert!(seen_edges.iter().all(|&b| b));
    }

    #[test]
    fn halo_layers_grow_monotonically() {
        let m = mesh();
        let p1 = MeshPartition::build(&m, 4, 1);
        let p2 = MeshPartition::build(&m, 4, 2);
        let p3 = MeshPartition::build(&m, 4, 3);
        for r in 0..4 {
            assert!(p1.ranks[r].n_cells() < p2.ranks[r].n_cells());
            assert!(p2.ranks[r].n_cells() < p3.ranks[r].n_cells());
            // Owned counts are identical regardless of halo depth.
            assert_eq!(p1.ranks[r].n_owned_cells, p3.ranks[r].n_owned_cells);
        }
    }

    #[test]
    fn halo_layer1_is_exactly_the_cell_neighborhood() {
        let m = mesh();
        let p = MeshPartition::build(&m, 3, 1);
        for r in &p.ranks {
            let owned: std::collections::HashSet<_> =
                r.cells[..r.n_owned_cells].iter().copied().collect();
            let halo: std::collections::HashSet<_> =
                r.cells[r.n_owned_cells..].iter().copied().collect();
            let mut expect = std::collections::HashSet::new();
            for &c in &owned {
                for &nb in m.cells_of_cell(c as usize) {
                    if !owned.contains(&nb) {
                        expect.insert(nb);
                    }
                }
            }
            assert_eq!(halo, expect, "rank {} halo mismatch", r.rank);
        }
    }

    #[test]
    fn exchange_lists_are_matched() {
        let m = mesh();
        let p = MeshPartition::build(&m, 4, 2);
        for r in 0..4 {
            for &(to, ref send) in &p.ranks[r].send_cells {
                let recv = p.ranks[to]
                    .recv_cells
                    .iter()
                    .find(|&&(from, _)| from == r)
                    .map(|(_, v)| v)
                    .expect("missing recv side");
                assert_eq!(send.len(), recv.len());
                // Same global ids in the same order on both sides.
                for (s, rcv) in send.iter().zip(recv) {
                    let g_send = p.ranks[r].cells[*s as usize];
                    let g_recv = p.ranks[to].cells[*rcv as usize];
                    assert_eq!(g_send, g_recv);
                }
                // Sender only sends what it owns; receiver only fills halo.
                for s in send {
                    assert!((*s as usize) < p.ranks[r].n_owned_cells);
                }
                for rcv in recv {
                    assert!((*rcv as usize) >= p.ranks[to].n_owned_cells);
                }
            }
        }
    }

    #[test]
    fn every_halo_cell_is_covered_by_exactly_one_recv() {
        let m = mesh();
        let p = MeshPartition::build(&m, 4, 2);
        for r in &p.ranks {
            let mut covered = vec![0u32; r.n_cells()];
            for (_, list) in &r.recv_cells {
                for &l in list {
                    covered[l as usize] += 1;
                }
            }
            for (l, &c) in covered.iter().enumerate() {
                let expect = if l < r.n_owned_cells { 0 } else { 1 };
                assert_eq!(c, expect, "cell local {l} of rank {}", r.rank);
            }
        }
    }

    #[test]
    fn single_rank_partition_has_no_halo() {
        let m = mesh();
        let p = MeshPartition::build(&m, 1, 3);
        assert_eq!(p.ranks[0].n_owned_cells, m.n_cells());
        assert_eq!(p.ranks[0].n_cells(), m.n_cells());
        assert_eq!(p.ranks[0].n_owned_edges, m.n_edges());
        assert!(p.ranks[0].recv_cells.is_empty());
        assert_eq!(p.ranks[0].vertices.len(), m.n_vertices());
    }

    #[test]
    fn rcb_cuts_fewer_edges_than_a_cyclic_partition() {
        // Geometric partitions keep neighborhoods together: the RCB edge
        // cut must be far below a cells-dealt-round-robin partition.
        let m = mesh();
        let p = MeshPartition::build(&m, 8, 1);
        let rcb_cut = p.edge_cut(&m);
        let cyclic_cut = m
            .cells_on_edge
            .iter()
            .filter(|&&[a, b]| a % 8 != b % 8)
            .count();
        assert!(
            rcb_cut * 3 < cyclic_cut,
            "RCB {rcb_cut} vs cyclic {cyclic_cut}"
        );
        // Scaling sanity: the cut grows sublinearly with rank count.
        let p16 = MeshPartition::build(&m, 16, 1);
        assert!(p16.edge_cut(&m) < 2 * rcb_cut + m.n_edges() / 10);
    }

    #[test]
    fn halo_volume_tracks_surface_not_volume() {
        // Halo cells should be O(sqrt(cells/rank)) per rank per layer.
        let m = mesh();
        let p = MeshPartition::build(&m, 4, 1);
        let per_rank = p.total_halo_cells() / 4;
        let owned = m.n_cells() / 4;
        let ring_estimate = 3.46 * (owned as f64).sqrt();
        assert!(
            (per_rank as f64) < 3.0 * ring_estimate,
            "halo {per_rank} vs ring {ring_estimate}"
        );
    }

    #[test]
    fn rcb_is_deterministic() {
        let m = mesh();
        let a = rcb_partition(&m, 7);
        let b = rcb_partition(&m, 7);
        assert_eq!(a, b);
    }
}
