//! Precomputed fused kernel coefficients (the hot-path data layout).
//!
//! Every RK-4 substep the Table-I kernels re-derive the same geometric
//! factors from the mesh: the signed flux weight `s_ie·dv_e` of A1/B2, the
//! KE quadrature weight `¼·dc_e·dv_e` of A2, the kite area matching a
//! `(vertex, cell)` pair in A3/F (found by a 3-way `position()` search per
//! slot!), and edge reciprocals `1/dc_e`, `1/dv_e` behind every gradient in
//! B1/C1/G. [`KernelCoeffs`] computes each factor once per
//! `(Mesh, ModelConfig)` and stores it in flat arrays aligned with the CSR
//! slot order, so the simd-tier kernels in [`crate::kernels::simd`] stream
//! one contiguous coefficient array instead of gathering two or three mesh
//! arrays through an indirection (and never search).
//!
//! `mpas_reconstruct` reads two more mesh-only tables from here (built
//! in `reconstruct.rs`): A4's least-squares weight per cell slot and
//! X6's east/north frame per cell (48 B a cell), so neither a model nor
//! a server job builds its own, and X6 is two dot products a cell. No
//! step reads them: `KernelCoeffs::output_tables` builds them on the
//! first output request, once per table however many models share it.
//!
//! The TRiSK stencil of H1 and B1 is the one table not in CSR order: a
//! private `TriskTable` pads `edges_on_edge` and `½·weights_on_edge` to
//! blocks of four edges, so the AVX2 sweeps at one layer process four
//! edges per vector (DESIGN.md §14). H1 reads it as `½w + ½w`, which is
//! exactly `weights_on_edge`; the one-edge lane forms read the mesh CSR.
//!
//! Rounding contract (how DESIGN.md §9's ≤1e-12 drift budget is met):
//!
//! * **Exact fusions** — multiplying by a `±1` sign (`flux_div`,
//!   `vort_sign_dc`) and halving a weight (the TRiSK table) are exact in
//!   IEEE-754, and `kite_cell` merely hoists a value the seed kernels
//!   already gather. Kernels that fuse only these (C2, A3, F) stay
//!   **bit-identical** to the seed path.
//! * **1-ulp fusions** — reassociating `s·u·h·dv` to `(s·dv)·u·h` (A1/B2),
//!   `¼·dc·dv·u²` to `(¼·dc·dv)·u²` (A2), and replacing `x/dc` with
//!   `x·(1/dc)` (B1, C1 family, G) each perturb a single rounding, well
//!   inside the 1e-12 relative budget.
//! * **Conservation-critical divisions are kept.** The `/area` at the end
//!   of the cell reductions is *not* turned into a multiplication: mass
//!   conservation rests on the `+dv` / `−dv` flux pair of each edge having
//!   exactly equal magnitude in its two cells, and `s·dv` preserves that
//!   exactly while a per-cell `1/area` factor would not.

use crate::config::ModelConfig;
use crate::reconstruct;
use mpas_geom::Vec3;
use mpas_mesh::Mesh;
use std::sync::OnceLock;

/// Fused per-slot/per-edge coefficient tables for the Table-I kernels.
///
/// Build once with [`KernelCoeffs::build`]; the arrays are keyed exactly
/// like the mesh CSR arrays they fuse (`cell_offsets` slots, edge ids,
/// vertex ids, `eoe_offsets` slots), so a kernel walks its coefficients in
/// the same loop that walks the connectivity.
#[derive(Debug, Clone)]
pub struct KernelCoeffs {
    /// Per cell slot: `edge_sign_on_cell · dv_edge` — the signed face
    /// length of the A1/B2 flux divergence.
    pub flux_div: Vec<f64>,
    /// Per cell slot: `¼ · dc_edge · dv_edge` — the A2 kinetic-energy
    /// quadrature weight.
    pub ke_weight: Vec<f64>,
    /// Per cell slot: the kite area joining `vertices_on_cell[slot]` to
    /// this cell — the A3/F interpolation weight, precomputed so the
    /// kernels skip the per-slot `cells_on_vertex` search.
    pub kite_cell: Vec<f64>,
    /// Per vertex and corner: `edge_sign_on_vertex · dc_edge` — the signed
    /// circulation length of C2.
    pub vort_sign_dc: Vec<[f64; 3]>,
    /// Per edge: `1 / dc_edge` (normal-gradient factor of B1/C1/G).
    pub inv_dc: Vec<f64>,
    /// Per edge: `1 / dv_edge` (tangential-gradient factor of C1/G).
    pub inv_dv: Vec<f64>,
    /// Per cell slot: `½ · edge_sign_on_cell · dv_edge` — the T1 tracer
    /// flux weight with the edge-average half folded in (an exact halving
    /// of `flux_div`, so the fusion stays in the exact class). Empty
    /// unless the config advects tracers.
    pub half_flux_div: Vec<f64>,
    /// Per cell slot: `dv_edge / dc_edge` — the D1/D2 cell-Laplacian flux
    /// ratio. Empty unless `high_order_h_edge` is set.
    pub grad_ratio: Vec<f64>,
    /// Per edge: `dc_edge² / 12` — the H2 high-order blend factor. Empty
    /// unless `high_order_h_edge` is set.
    pub dc2_12: Vec<f64>,
    /// The A4/X6 tables, built on the first output request.
    outputs: OnceLock<OutputTables>,
    /// The padded TRiSK stencil of the four-edge H1/B1 sweeps.
    trisk: TriskTable,
}

/// The mesh-only tables of `mpas_reconstruct`, which only an output
/// request reads ([`KernelCoeffs::output_tables`]).
#[derive(Debug, Clone)]
pub(crate) struct OutputTables {
    /// Per cell slot: the A4 least-squares weight `M⁻¹ n̂_e` of the
    /// edge-to-cell velocity reconstruction (zero on phantom cells).
    pub(crate) recon_weights: Vec<Vec3>,
    /// Per cell: the local `[east, north]` unit vectors X6 projects the
    /// reconstructed velocity onto.
    pub(crate) frames: Vec<[Vec3; 2]>,
}

/// The TRiSK stencil padded to blocks of four edges: block `q` covers
/// edges `4q..4q + 4` as `slots` rows of four lanes, and row `s`, lane `j`
/// holds slot `s` of edge `4q + j` in seed (CSR) order — a neighbour id
/// and `½ · weights_on_edge`. Rows past an edge's stencil are padding:
/// they hold the edge's own id, so a gather stays in bounds and `id == e`
/// masks the slot, and a zero weight. A final partial block is left out;
/// its edges run the one-edge lane forms.
///
/// The fields stay private because the AVX2 sweeps rely on them: every
/// id is below `n_edges` (the gathers stay in bounds), a real slot never
/// holds its own edge (the padding mask), and `½w + ½w == w` (H1's bits).
#[derive(Debug, Clone)]
pub(crate) struct TriskTable {
    n_edges: usize,
    slots: usize,
    ids: Vec<i32>,
    half_w: Vec<f64>,
}

impl TriskTable {
    /// Pad `mesh`'s TRiSK stencil in one pass, pushing rows in table
    /// order.
    fn build(mesh: &Mesh) -> Self {
        let ne = mesh.n_edges();
        assert!(i32::try_from(ne).is_ok(), "{ne} edges overflow an i32 id");
        let slots = (0..ne).map(|e| mesh.eoe_range(e).len()).max().unwrap_or(0);
        let len = ne / 4 * slots * 4;
        let mut ids = Vec::with_capacity(len);
        let mut half_w = Vec::with_capacity(len);
        for q in 0..ne / 4 {
            for s in 0..slots {
                for e in 4 * q..4 * q + 4 {
                    let stencil = mesh.eoe_range(e);
                    if s < stencil.len() {
                        let slot = stencil.start + s;
                        let id = mesh.edges_on_edge[slot] as usize;
                        assert!(id < ne, "edge {e} lists edge {id} of {ne}");
                        assert!(id != e, "edge {e} lists itself");
                        let w = mesh.weights_on_edge[slot];
                        assert!(0.5 * w + 0.5 * w == w, "edge {e}: halving {w} is inexact");
                        ids.push(id as i32);
                        half_w.push(0.5 * w);
                    } else {
                        ids.push(e as i32);
                        half_w.push(0.0);
                    }
                }
            }
        }
        TriskTable {
            n_edges: ne,
            slots,
            ids,
            half_w,
        }
    }

    /// Edges of the mesh the table was built for.
    pub(crate) fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// Rows per block: the widest stencil of the mesh.
    pub(crate) fn slots(&self) -> usize {
        self.slots
    }

    /// Neighbour ids and half weights of block `q`, each `slots × 4`
    /// lane-minor. Panics past the last full block.
    pub(crate) fn block(&self, q: usize) -> (&[i32], &[f64]) {
        let rows = q * self.slots * 4..(q + 1) * self.slots * 4;
        (&self.ids[rows.clone()], &self.half_w[rows])
    }
}

impl KernelCoeffs {
    /// Precompute every fused coefficient table a step reads for `mesh`
    /// under `config` (the D1/D2/H2 tables are built only when the config's
    /// high-order thickness blend can reach them; the A4/X6 tables wait for
    /// the first output request).
    pub fn build(mesh: &Mesh, config: &ModelConfig) -> Self {
        let n_slots = mesh.edges_on_cell.len();
        let ne = mesh.n_edges();
        let nv = mesh.n_vertices();

        let mut flux_div = vec![0.0; n_slots];
        let mut ke_weight = vec![0.0; n_slots];
        let mut kite_cell = vec![0.0; n_slots];
        for i in 0..mesh.n_cells() {
            for slot in mesh.cell_range(i) {
                let e = mesh.edges_on_cell[slot] as usize;
                flux_div[slot] = mesh.edge_sign_on_cell[slot] as f64 * mesh.dv_edge[e];
                ke_weight[slot] = 0.25 * mesh.dc_edge[e] * mesh.dv_edge[e];
                let v = mesh.vertices_on_cell[slot] as usize;
                let kslot = mesh.cells_on_vertex[v]
                    .iter()
                    .position(|&c| c as usize == i)
                    .expect("vertex/cell inconsistency");
                kite_cell[slot] = mesh.kite_areas_on_vertex[v][kslot];
            }
        }

        let mut vort_sign_dc = vec![[0.0; 3]; nv];
        for (v, signed) in vort_sign_dc.iter_mut().enumerate() {
            for (k, s) in signed.iter_mut().enumerate() {
                let e = mesh.edges_on_vertex[v][k] as usize;
                *s = mesh.edge_sign_on_vertex[v][k] as f64 * mesh.dc_edge[e];
            }
        }

        let half_flux_div: Vec<f64> = if config.n_tracers > 0 {
            flux_div.iter().map(|&x| 0.5 * x).collect()
        } else {
            Vec::new()
        };

        let inv_dc: Vec<f64> = mesh.dc_edge.iter().map(|&d| 1.0 / d).collect();
        let inv_dv: Vec<f64> = mesh.dv_edge.iter().map(|&d| 1.0 / d).collect();

        let (grad_ratio, dc2_12) = if config.high_order_h_edge {
            let mut gr = vec![0.0; n_slots];
            for (slot, g) in gr.iter_mut().enumerate() {
                let e = mesh.edges_on_cell[slot] as usize;
                *g = mesh.dv_edge[e] / mesh.dc_edge[e];
            }
            let d12: Vec<f64> = (0..ne)
                .map(|e| mesh.dc_edge[e] * mesh.dc_edge[e] / 12.0)
                .collect();
            (gr, d12)
        } else {
            (Vec::new(), Vec::new())
        };

        KernelCoeffs {
            flux_div,
            ke_weight,
            half_flux_div,
            kite_cell,
            vort_sign_dc,
            inv_dc,
            inv_dv,
            grad_ratio,
            dc2_12,
            outputs: OnceLock::new(),
            trisk: TriskTable::build(mesh),
        }
    }

    /// The A4/X6 tables of `mesh`, the mesh this table was built for:
    /// built on the first call, then shared by every later one.
    pub(crate) fn output_tables(&self, mesh: &Mesh) -> &OutputTables {
        let tables = self.outputs.get_or_init(|| OutputTables {
            recon_weights: reconstruct::least_squares_weights(mesh),
            frames: mesh
                .x_cell
                .iter()
                .map(|&p| reconstruct::cell_frame(p))
                .collect(),
        });
        assert_eq!(tables.frames.len(), mesh.n_cells(), "another mesh");
        tables
    }

    /// The padded TRiSK stencil of the four-edge H1/B1 sweeps.
    pub(crate) fn trisk(&self) -> &TriskTable {
        &self.trisk
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Mesh, KernelCoeffs) {
        let mesh = mpas_mesh::generate(3, 0);
        let config = ModelConfig {
            high_order_h_edge: true,
            ..Default::default()
        };
        let kc = KernelCoeffs::build(&mesh, &config);
        (mesh, kc)
    }

    #[test]
    fn slot_tables_match_their_definitions() {
        let (mesh, kc) = setup();
        for i in 0..mesh.n_cells() {
            for slot in mesh.cell_range(i) {
                let e = mesh.edges_on_cell[slot] as usize;
                let s = mesh.edge_sign_on_cell[slot] as f64;
                assert_eq!(kc.flux_div[slot], s * mesh.dv_edge[e]);
                assert_eq!(kc.ke_weight[slot], 0.25 * mesh.dc_edge[e] * mesh.dv_edge[e]);
                assert_eq!(kc.grad_ratio[slot], mesh.dv_edge[e] / mesh.dc_edge[e]);
            }
        }
        for e in 0..mesh.n_edges() {
            assert_eq!(kc.inv_dc[e], 1.0 / mesh.dc_edge[e]);
            assert_eq!(kc.inv_dv[e], 1.0 / mesh.dv_edge[e]);
            assert_eq!(kc.dc2_12[e], mesh.dc_edge[e] * mesh.dc_edge[e] / 12.0);
        }
    }

    #[test]
    fn trisk_table_pads_the_seed_stencil() {
        // Real slots are ½·weights_on_edge in seed (CSR) order, padded
        // slots hold the edge's own id, and no edge lists itself.
        let (mesh, kc) = setup();
        let t = kc.trisk();
        assert_eq!(t.n_edges(), mesh.n_edges());
        assert_eq!(t.slots(), 10, "hexagon-hexagon edges have 10 slots");
        let mut padded = 0;
        for e in 0..mesh.n_edges() / 4 * 4 {
            let (ids, hw) = t.block(e / 4);
            let stencil = mesh.eoe_range(e);
            for s in 0..t.slots() {
                let (id, w) = (ids[4 * s + e % 4] as usize, hw[4 * s + e % 4]);
                if s < stencil.len() {
                    let slot = stencil.start + s;
                    assert_eq!(id, mesh.edges_on_edge[slot] as usize, "edge {e} slot {s}");
                    assert_eq!(w, 0.5 * mesh.weights_on_edge[slot], "edge {e} slot {s}");
                    assert_eq!(w + w, mesh.weights_on_edge[slot], "edge {e} slot {s}");
                    assert_ne!(id, e, "edge {e} lists itself");
                } else {
                    assert_eq!((id, w), (e, 0.0), "edge {e} padded slot {s}");
                    padded += 1;
                }
            }
        }
        assert!(padded > 0, "the pentagons' edges pad their blocks");
    }

    #[test]
    fn kite_cell_resolves_the_vertex_search() {
        let (mesh, kc) = setup();
        for i in 0..mesh.n_cells() {
            for slot in mesh.cell_range(i) {
                let v = mesh.vertices_on_cell[slot] as usize;
                let kslot = mesh.cells_on_vertex[v]
                    .iter()
                    .position(|&c| c as usize == i)
                    .unwrap();
                assert_eq!(kc.kite_cell[slot], mesh.kite_areas_on_vertex[v][kslot]);
            }
        }
    }

    #[test]
    fn signed_tables_carry_both_orientations() {
        let (_, kc) = setup();
        assert!(kc.flux_div.iter().any(|&x| x > 0.0));
        assert!(kc.flux_div.iter().any(|&x| x < 0.0));
        assert!(kc.vort_sign_dc.iter().flatten().any(|&x| x > 0.0));
        assert!(kc.vort_sign_dc.iter().flatten().any(|&x| x < 0.0));
    }

    #[test]
    fn low_order_config_skips_blend_tables() {
        let mesh = mpas_mesh::generate(2, 0);
        let kc = KernelCoeffs::build(&mesh, &ModelConfig::default());
        assert!(kc.grad_ratio.is_empty());
        assert!(kc.dc2_12.is_empty());
        assert!(kc.half_flux_div.is_empty());
        assert_eq!(kc.flux_div.len(), mesh.edges_on_cell.len());
    }

    #[test]
    fn output_tables_are_built_once_on_request() {
        let (mesh, kc) = setup();
        assert!(kc.outputs.get().is_none(), "built before a request");
        // Two requests at once, as two server jobs sharing the table make
        // them: both get the one table.
        let start = std::sync::Barrier::new(2);
        let built: Vec<usize> = std::thread::scope(|s| {
            let request = || {
                start.wait();
                kc.output_tables(&mesh) as *const OutputTables as usize
            };
            let requests = [s.spawn(request), s.spawn(request)];
            requests
                .map(|r| r.join().expect("request panicked"))
                .to_vec()
        });
        assert_eq!(built[0], built[1], "two tables for one mesh");
        let t = kc.output_tables(&mesh);
        assert_eq!(t.recon_weights.len(), mesh.edges_on_cell.len());
        assert_eq!(t.frames.len(), mesh.n_cells());
    }

    #[test]
    fn tracer_table_is_an_exact_halving() {
        let mesh = mpas_mesh::generate(2, 0);
        let config = ModelConfig {
            n_tracers: 2,
            ..Default::default()
        };
        let kc = KernelCoeffs::build(&mesh, &config);
        assert_eq!(kc.half_flux_div.len(), kc.flux_div.len());
        for (h, f) in kc.half_flux_div.iter().zip(&kc.flux_div) {
            assert_eq!(*h, 0.5 * f);
        }
    }
}
