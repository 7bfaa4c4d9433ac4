//! Field containers: prognostic state, diagnostics, tendencies, and the
//! cell outputs (cell vorticity and reconstructed cell-center velocities).
//!
//! All fields are flat `Vec<f64>` (structure-of-arrays) indexed by the mesh
//! entity id, the layout the kernels' hot loops expect. A model of `k`
//! vertical layers keeps `k` contiguous lanes per entity in the same
//! containers (`h[cell * k + lane]`, [`crate::layers`]); `k = 1` is the
//! plain layout.

use mpas_mesh::Mesh;

/// Prognostic variables of the shallow-water system.
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    /// Fluid thickness at cells (m).
    pub h: Vec<f64>,
    /// Normal velocity at edges (m/s).
    pub u: Vec<f64>,
    /// Passive-tracer mass `h·q` at cells, one vector per tracer. Storing
    /// mass (not mixing ratio) makes the flux-form tendency telescope, so
    /// total tracer content is conserved to rounding like `h` itself.
    pub tracers: Vec<Vec<f64>>,
}

impl State {
    /// Zero-initialized state sized for a mesh (no tracers).
    pub fn zeros(mesh: &Mesh) -> Self {
        Self::zeros_lanes(mesh, 1, 0)
    }

    /// Zero-initialized state of `k` lanes per entity with `n_tracers`
    /// tracer-mass fields.
    pub fn zeros_lanes(mesh: &Mesh, k: usize, n_tracers: usize) -> Self {
        State {
            h: vec![0.0; mesh.n_cells() * k],
            u: vec![0.0; mesh.n_edges() * k],
            tracers: vec![vec![0.0; mesh.n_cells() * k]; n_tracers],
        }
    }

    /// Number of tracer fields carried.
    pub fn n_tracers(&self) -> usize {
        self.tracers.len()
    }

    /// `self = a` (copy without reallocating when shapes already match).
    pub fn copy_from(&mut self, a: &State) {
        self.h.copy_from_slice(&a.h);
        self.u.copy_from_slice(&a.u);
        self.tracers.resize_with(a.tracers.len(), Vec::new);
        for (dst, src) in self.tracers.iter_mut().zip(&a.tracers) {
            dst.resize(src.len(), 0.0);
            dst.copy_from_slice(src);
        }
    }

    /// Largest absolute difference in any field vs another state.
    pub fn max_abs_diff(&self, other: &State) -> f64 {
        fn field_diff(a: &[f64], b: &[f64]) -> f64 {
            a.iter()
                .zip(b)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max)
        }
        let mut d = field_diff(&self.h, &other.h).max(field_diff(&self.u, &other.u));
        for (a, b) in self.tracers.iter().zip(&other.tracers) {
            d = d.max(field_diff(a, b));
        }
        d
    }
}

/// Diagnostic variables recomputed by `compute_solve_diagnostics` (the
/// Table-I intermediates).
#[derive(Debug, Clone)]
pub struct Diagnostics {
    /// Thickness at edges.
    pub h_edge: Vec<f64>,
    /// Kinetic energy at cells.
    pub ke: Vec<f64>,
    /// Relative vorticity at vertices.
    pub vorticity: Vec<f64>,
    /// Velocity divergence at cells.
    pub divergence: Vec<f64>,
    /// Potential vorticity at vertices.
    pub pv_vertex: Vec<f64>,
    /// Potential vorticity at cells.
    pub pv_cell: Vec<f64>,
    /// Potential vorticity at edges (APVM upwinded).
    pub pv_edge: Vec<f64>,
    /// Tangential velocity at edges.
    pub v: Vec<f64>,
    /// Second-derivative blend term at the edge's cell-1 side.
    pub d2fdx2_cell1: Vec<f64>,
    /// Second-derivative blend term at the edge's cell-2 side.
    pub d2fdx2_cell2: Vec<f64>,
}

impl Diagnostics {
    /// Zero-initialized diagnostics sized for a mesh.
    pub fn zeros(mesh: &Mesh) -> Self {
        Self::zeros_lanes(mesh, 1)
    }

    /// Zero-initialized diagnostics of `k` lanes per entity.
    pub fn zeros_lanes(mesh: &Mesh, k: usize) -> Self {
        let (nc, ne, nv) = (
            mesh.n_cells() * k,
            mesh.n_edges() * k,
            mesh.n_vertices() * k,
        );
        Diagnostics {
            h_edge: vec![0.0; ne],
            ke: vec![0.0; nc],
            vorticity: vec![0.0; nv],
            divergence: vec![0.0; nc],
            pv_vertex: vec![0.0; nv],
            pv_cell: vec![0.0; nc],
            pv_edge: vec![0.0; ne],
            v: vec![0.0; ne],
            d2fdx2_cell1: vec![0.0; ne],
            d2fdx2_cell2: vec![0.0; ne],
        }
    }
}

/// Tendencies produced by `compute_tend`.
#[derive(Debug, Clone)]
pub struct Tendencies {
    /// Thickness tendency at cells.
    pub tend_h: Vec<f64>,
    /// Normal-velocity tendency at edges.
    pub tend_u: Vec<f64>,
    /// Tracer-mass tendencies at cells, one vector per tracer.
    pub tend_tracers: Vec<Vec<f64>>,
}

impl Tendencies {
    /// Zero-initialized tendencies sized for a mesh (no tracers).
    pub fn zeros(mesh: &Mesh) -> Self {
        Self::zeros_lanes(mesh, 1, 0)
    }

    /// Zero-initialized tendencies of `k` lanes per entity.
    pub fn zeros_lanes(mesh: &Mesh, k: usize, n_tracers: usize) -> Self {
        Tendencies {
            tend_h: vec![0.0; mesh.n_cells() * k],
            tend_u: vec![0.0; mesh.n_edges() * k],
            tend_tracers: vec![vec![0.0; mesh.n_cells() * k]; n_tracers],
        }
    }
}

/// The output diagnostics of one layer, which no Table-I instance reads:
/// the cell vorticity (A3) and the velocity `mpas_reconstruct` rebuilds at
/// cell centers (A4, X6). A step computes none of them; a model computes
/// them on request ([`crate::ShallowWaterModel::cell_outputs`]).
#[derive(Debug, Clone)]
pub struct CellOutputs {
    /// Relative vorticity interpolated to cells (A3).
    pub vorticity_cell: Vec<f64>,
    /// Cartesian x component at cells.
    pub ux: Vec<f64>,
    /// Cartesian y component at cells.
    pub uy: Vec<f64>,
    /// Cartesian z component at cells.
    pub uz: Vec<f64>,
    /// Zonal (eastward) component at cells.
    pub zonal: Vec<f64>,
    /// Meridional (northward) component at cells.
    pub meridional: Vec<f64>,
}

impl CellOutputs {
    /// Zero-initialized outputs sized for a mesh.
    pub fn zeros(mesh: &Mesh) -> Self {
        let nc = mesh.n_cells();
        CellOutputs {
            vorticity_cell: vec![0.0; nc],
            ux: vec![0.0; nc],
            uy: vec![0.0; nc],
            uz: vec![0.0; nc],
            zonal: vec![0.0; nc],
            meridional: vec![0.0; nc],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_follow_mesh() {
        let mesh = mpas_mesh::generate(2, 0);
        let s = State::zeros(&mesh);
        assert_eq!(s.h.len(), mesh.n_cells());
        assert_eq!(s.u.len(), mesh.n_edges());
        let d = Diagnostics::zeros(&mesh);
        assert_eq!(d.vorticity.len(), mesh.n_vertices());
        assert_eq!(d.pv_edge.len(), mesh.n_edges());
        let o = CellOutputs::zeros(&mesh);
        assert_eq!(o.vorticity_cell.len(), mesh.n_cells());
        assert_eq!(o.zonal.len(), mesh.n_cells());
    }

    #[test]
    fn max_abs_diff_and_copy() {
        let mesh = mpas_mesh::generate(1, 0);
        let mut a = State::zeros(&mesh);
        let mut b = State::zeros(&mesh);
        a.h[3] = 2.5;
        a.u[7] = -1.0;
        assert_eq!(a.max_abs_diff(&b), 2.5);
        b.copy_from(&a);
        assert_eq!(a.max_abs_diff(&b), 0.0);
    }
}
