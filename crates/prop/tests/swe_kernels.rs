//! Property tests of the kernel operators: the range-slicing contract
//! (what makes the pattern-driven splitting safe), scatter/gather
//! equivalence, and conservation identities under random states.

use mpas_prop::check;
use mpas_swe::config::ModelConfig;
use mpas_swe::kernels::{ops, scatter};
use mpas_swe::state::Diagnostics;
use std::sync::OnceLock;

fn mesh() -> &'static mpas_mesh::Mesh {
    static MESH: OnceLock<mpas_mesh::Mesh> = OnceLock::new();
    MESH.get_or_init(|| mpas_mesh::generate(2, 0))
}

fn edge_field(seed: u64) -> Vec<f64> {
    let m = mesh();
    (0..m.n_edges())
        .map(|e| ((e as f64 + seed as f64) * 0.7311).sin() * 25.0)
        .collect()
}

fn cell_field(seed: u64) -> Vec<f64> {
    let m = mesh();
    (0..m.n_cells())
        .map(|i| 4000.0 + ((i as f64 * 1.37 + seed as f64) * 0.53).cos() * 500.0)
        .collect()
}

const CASES: usize = 24;

/// Computing any cell-space op in two arbitrary chunks gives exactly
/// the full-range result (the splitting contract).
#[test]
fn cell_ops_split_exactly() {
    check(CASES, |rng| {
        let seed = rng.range(0u64..50);
        let frac = rng.range(0.01..0.99);
        let m = mesh();
        let u = edge_field(seed);
        let nc = m.n_cells();
        let mid = ((nc as f64 * frac) as usize).clamp(1, nc - 1);
        let mut full = vec![0.0; nc];
        let mut split = vec![0.0; nc];
        ops::ke(m, &u, &mut full, 0..nc);
        {
            let (lo, hi) = split.split_at_mut(mid);
            ops::ke(m, &u, lo, 0..mid);
            ops::ke(m, &u, hi, mid..nc);
        }
        assert_eq!(&full, &split);
        ops::divergence(m, &u, &mut full, 0..nc);
        {
            let (lo, hi) = split.split_at_mut(mid);
            ops::divergence(m, &u, lo, 0..mid);
            ops::divergence(m, &u, hi, mid..nc);
        }
        assert_eq!(&full, &split);
    });
}

/// Same splitting contract for the edge-space TRiSK megastencil.
#[test]
fn tend_u_splits_exactly() {
    check(CASES, |rng| {
        let seed = rng.range(0u64..50);
        let frac = rng.range(0.01..0.99);
        let m = mesh();
        let config = ModelConfig::default();
        let h = cell_field(seed);
        let u = edge_field(seed);
        let b = vec![0.0; m.n_cells()];
        let f_v: Vec<f64> = (0..m.n_vertices())
            .map(|v| 2.0 * mpas_geom::OMEGA * m.x_vertex[v].z)
            .collect();
        let mut d = Diagnostics::zeros(m);
        let kc = mpas_swe::KernelCoeffs::build(m, &config);
        let scalar = mpas_swe::KernelBackend::Scalar;
        mpas_swe::kernels::compute_solve_diagnostics_backend(
            scalar, m, &config, &kc, &h, &u, &f_v, 60.0, &mut d,
        );
        let ne = m.n_edges();
        let mid = ((ne as f64 * frac) as usize).clamp(1, ne - 1);
        let g = config.gravity;
        let tend_u = |out: &mut [f64], r| {
            ops::tend_u(m, g, &d.pv_edge, &u, &d.h_edge, &d.ke, &h, &b, out, r)
        };
        let mut full = vec![0.0; ne];
        tend_u(&mut full, 0..ne);
        let mut split = vec![0.0; ne];
        let (lo, hi) = split.split_at_mut(mid);
        tend_u(lo, 0..mid);
        tend_u(hi, mid..ne);
        assert_eq!(&full, &split);
    });
}

/// Scatter and gather forms of tend_h agree for random fluxes.
#[test]
fn tend_h_forms_agree() {
    check(CASES, |rng| {
        let seed = rng.range(0u64..100);
        let m = mesh();
        let u = edge_field(seed);
        let h_edge = cell_to_edge(seed);
        let mut a = vec![0.0; m.n_cells()];
        let mut b = vec![0.0; m.n_cells()];
        scatter::tend_h_scatter(m, &u, &h_edge, &mut a);
        ops::tend_h(m, &u, &h_edge, &mut b, 0..m.n_cells());
        for i in 0..m.n_cells() {
            assert!((a[i] - b[i]).abs() < 1e-9 * (a[i].abs().max(1.0)));
        }
    });
}

/// Discrete mass conservation holds for ANY state, not just physical
/// ones: the area-weighted thickness tendency sums to zero.
#[test]
fn mass_conservation_for_random_states() {
    check(CASES, |rng| {
        let seed = rng.range(0u64..100);
        let m = mesh();
        let u = edge_field(seed);
        let h_edge = cell_to_edge(seed.wrapping_add(7));
        let mut tend_h = vec![0.0; m.n_cells()];
        ops::tend_h(m, &u, &h_edge, &mut tend_h, 0..m.n_cells());
        let total: f64 = (0..m.n_cells()).map(|i| tend_h[i] * m.area_cell[i]).sum();
        let scale: f64 = (0..m.n_cells())
            .map(|i| tend_h[i].abs() * m.area_cell[i])
            .sum();
        assert!(total.abs() < 1e-12 * scale.max(1.0));
    });
}

/// axpy/accumulate algebra: accumulate(w) after zero == axpy(0-base, w).
#[test]
fn accumulate_matches_axpy() {
    check(CASES, |rng| {
        let seed = rng.range(0u64..100);
        let w = rng.range(-2.0..2.0);
        let m = mesh();
        let t = edge_field(seed);
        let n = m.n_edges();
        let zero = vec![0.0; n];
        let mut a = vec![0.0; n];
        ops::axpy(&zero, &t, w, &mut a, 0..n);
        let mut b = vec![0.0; n];
        ops::accumulate(&t, w, &mut b, 0..n);
        assert_eq!(a, b);
    });
}

fn cell_to_edge(seed: u64) -> Vec<f64> {
    let m = mesh();
    let h = cell_field(seed);
    let mut out = vec![0.0; m.n_edges()];
    ops::h_edge(
        m,
        &ModelConfig::default(),
        &h,
        &[],
        &[],
        &mut out,
        0..m.n_edges(),
    );
    out
}
