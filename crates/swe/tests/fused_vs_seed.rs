//! Every coefficient-fused Table-I op of the simd tier at one layer
//! against its seed counterpart, per-range.
//!
//! Two properties per op, on a level-4 mesh with synthetic smooth fields:
//!
//! 1. **Numerics** — the `k = 1` simd form agrees with the seed op over the
//!    full range within the documented rounding contract: bit-identical
//!    for the exact fusions (C2 vorticity, A3 vorticity_cell, F pv_cell, H2
//!    high-order h_edge), ≤ 1e-12 relative for the 1-ulp reassociations
//!    (A1, A2, B1, B2, C1 family, D1/D2, G).
//! 2. **Range splitting** — computing the same output as two disjoint
//!    chunks split at an arbitrary `mid` (both the even `n/2` split and the
//!    uneven offset split of the hybrid executor's device split) is
//!    bit-identical to the full range. This is the property the two-pool
//!    executor relies on.

use mpas_swe::coeffs::KernelCoeffs;
use mpas_swe::config::ModelConfig;
use mpas_swe::kernels::{ops, simd};
use std::ops::Range;

const REL_TOL: f64 = 1e-12;

fn rel_close(seed: &[f64], simd: &[f64], tag: &str) {
    assert_eq!(seed.len(), simd.len());
    for (k, (a, b)) in seed.iter().zip(simd).enumerate() {
        let scale = a.abs().max(1e-30);
        assert!(
            ((a - b) / scale).abs() < REL_TOL,
            "{tag}[{k}]: seed {a} vs simd {b}"
        );
    }
}

/// Run `f` over the full range, then as two chunks split at each `mid`,
/// asserting the chunked results are bit-identical to the full range.
/// `init` seeds the output (the C1 ops are read-modify-write).
fn check_split<F: Fn(&mut [f64], Range<usize>)>(
    n: usize,
    init: &[f64],
    f: F,
    tag: &str,
) -> Vec<f64> {
    let mut full = init.to_vec();
    f(&mut full, 0..n);
    for mid in [n / 2, n / 3, 5 * n / 8] {
        let mut split = init.to_vec();
        let (lo, hi) = split.split_at_mut(mid);
        f(lo, 0..mid);
        f(hi, mid..n);
        assert_eq!(full, split, "{tag}: split at {mid} differs from full");
    }
    full
}

struct Fixture {
    mesh: mpas_mesh::Mesh,
    kc: KernelCoeffs,
    cfg: ModelConfig,
    u: Vec<f64>,
    h: Vec<f64>,
    b: Vec<f64>,
    h_edge: Vec<f64>,
    v_tang: Vec<f64>,
}

fn fixture() -> Fixture {
    let mesh = mpas_mesh::generate(4, 0);
    let cfg = ModelConfig {
        high_order_h_edge: true,
        del2_viscosity: 1.0e4,
        del4_viscosity: 1.0e10,
        ..ModelConfig::default()
    };
    let kc = KernelCoeffs::build(&mesh, &cfg);
    let (ne, nc) = (mesh.n_edges(), mesh.n_cells());
    Fixture {
        u: (0..ne).map(|e| 20.0 * (e as f64 * 0.37).sin()).collect(),
        h: (0..nc)
            .map(|i| 1000.0 + 50.0 * (i as f64 * 0.23).cos())
            .collect(),
        b: (0..nc).map(|i| 10.0 * (i as f64 * 0.61).sin()).collect(),
        h_edge: (0..ne)
            .map(|e| 1000.0 + 40.0 * (e as f64 * 0.11).cos())
            .collect(),
        v_tang: (0..ne).map(|e| 5.0 * (e as f64 * 0.53).cos()).collect(),
        mesh,
        kc,
        cfg,
    }
}

#[test]
fn cell_reductions_match_seed_per_range() {
    let fx = fixture();
    let (mesh, kc, nc) = (&fx.mesh, &fx.kc, fx.mesh.n_cells());
    let zero = vec![0.0; nc];

    // A1 tend_h
    let mut seed = vec![0.0; nc];
    ops::tend_h(mesh, &fx.u, &fx.h_edge, &mut seed, 0..nc);
    let full = check_split(
        nc,
        &zero,
        |out, r| simd::tend_h(mesh, kc, 1, &fx.u, &fx.h_edge, out, r),
        "A1",
    );
    rel_close(&seed, &full, "A1 tend_h");

    // B2 divergence
    ops::divergence(mesh, &fx.u, &mut seed, 0..nc);
    let full = check_split(
        nc,
        &zero,
        |out, r| simd::divergence(mesh, kc, 1, &fx.u, out, r),
        "B2",
    );
    rel_close(&seed, &full, "B2 divergence");

    // A2 ke
    ops::ke(mesh, &fx.u, &mut seed, 0..nc);
    let full = check_split(
        nc,
        &zero,
        |out, r| simd::ke(mesh, kc, 1, &fx.u, out, r),
        "A2",
    );
    rel_close(&seed, &full, "A2 ke");
}

#[test]
fn vertex_and_kite_ops_are_bit_identical_per_range() {
    let fx = fixture();
    let (mesh, kc) = (&fx.mesh, &fx.kc);
    let (nc, nv) = (mesh.n_cells(), mesh.n_vertices());

    // C2 vorticity: exact fusion.
    let mut seed_v = vec![0.0; nv];
    ops::vorticity(mesh, &fx.u, &mut seed_v, 0..nv);
    let full_v = check_split(
        nv,
        &vec![0.0; nv],
        |out, r| simd::vorticity(mesh, kc, 1, &fx.u, out, r),
        "C2",
    );
    assert_eq!(seed_v, full_v, "C2 vorticity must be bit-identical");

    // A3 vorticity_cell and F pv_cell: exact fusions over kite areas.
    let zero = vec![0.0; nc];
    let mut seed = vec![0.0; nc];
    ops::vorticity_cell(mesh, &seed_v, &mut seed, 0..nc);
    let full = check_split(
        nc,
        &zero,
        |out, r| simd::kite_average(mesh, kc, 1, &seed_v, out, r),
        "A3",
    );
    assert_eq!(seed, full, "A3 vorticity_cell must be bit-identical");

    ops::pv_cell(mesh, &seed_v, &mut seed, 0..nc);
    let full = check_split(
        nc,
        &zero,
        |out, r| simd::kite_average(mesh, kc, 1, &seed_v, out, r),
        "F",
    );
    assert_eq!(seed, full, "F pv_cell must be bit-identical");
}

#[test]
fn edge_ops_match_seed_per_range() {
    let fx = fixture();
    let (mesh, kc, cfg) = (&fx.mesh, &fx.kc, &fx.cfg);
    let (nc, ne, nv) = (mesh.n_cells(), mesh.n_edges(), mesh.n_vertices());
    let zero = vec![0.0; ne];

    // Upstream diagnostics shared by the edge ops (seed forms throughout so
    // both paths read identical inputs).
    let mut vort = vec![0.0; nv];
    ops::vorticity(mesh, &fx.u, &mut vort, 0..nv);
    let pv_vertex: Vec<f64> = vort.iter().map(|z| z + 1.0e-4).collect();
    let mut pvc = vec![0.0; nc];
    ops::pv_cell(mesh, &pv_vertex, &mut pvc, 0..nc);
    let mut ke = vec![0.0; nc];
    ops::ke(mesh, &fx.u, &mut ke, 0..nc);
    let mut div = vec![0.0; nc];
    ops::divergence(mesh, &fx.u, &mut div, 0..nc);

    // G pv_edge
    let dt = 120.0;
    let mut seed = vec![0.0; ne];
    ops::pv_edge(
        mesh,
        cfg.apvm_factor,
        dt,
        &pv_vertex,
        &pvc,
        &fx.u,
        &fx.v_tang,
        &mut seed,
        0..ne,
    );
    let full = check_split(
        ne,
        &zero,
        |out, r| {
            simd::pv_edge(
                mesh,
                kc,
                1,
                cfg.apvm_factor,
                dt,
                &pv_vertex,
                &pvc,
                &fx.u,
                &fx.v_tang,
                out,
                r,
            )
        },
        "G",
    );
    rel_close(&seed, &full, "G pv_edge");
    let pv_e = seed.clone();

    // B1 tend_u
    ops::tend_u(
        mesh,
        cfg.gravity,
        &pv_e,
        &fx.u,
        &fx.h_edge,
        &ke,
        &fx.h,
        &fx.b,
        &mut seed,
        0..ne,
    );
    let full = check_split(
        ne,
        &zero,
        |out, r| {
            simd::tend_u(
                mesh,
                kc,
                1,
                cfg.gravity,
                &pv_e,
                &fx.u,
                &fx.h_edge,
                &ke,
                &fx.h,
                &fx.b,
                out,
                r,
            )
        },
        "B1",
    );
    rel_close(&seed, &full, "B1 tend_u");

    // C1 family: read-modify-write over a non-zero base tendency.
    let base: Vec<f64> = (0..ne).map(|e| 1.0e-4 * (e as f64 * 0.29).sin()).collect();
    let mut seed = base.clone();
    ops::tend_u_del2(mesh, cfg.del2_viscosity, &div, &vort, &mut seed, 0..ne);
    let full = check_split(
        ne,
        &base,
        |out, r| simd::tend_u_del2(mesh, kc, 1, cfg.del2_viscosity, &div, &vort, out, r),
        "C1 del2",
    );
    rel_close(&seed, &full, "C1 tend_u_del2");

    let mut seed = vec![0.0; ne];
    ops::lap_u(mesh, &div, &vort, &mut seed, 0..ne);
    let full = check_split(
        ne,
        &zero,
        |out, r| simd::lap_u(mesh, kc, 1, &div, &vort, out, r),
        "C1 lap",
    );
    rel_close(&seed, &full, "C1 lap_u");

    let mut seed = base.clone();
    ops::tend_u_del4(mesh, cfg.del4_viscosity, &div, &vort, &mut seed, 0..ne);
    let full = check_split(
        ne,
        &base,
        |out, r| simd::tend_u_del4(mesh, kc, 1, cfg.del4_viscosity, &div, &vort, out, r),
        "C1 del4",
    );
    rel_close(&seed, &full, "C1 tend_u_del4");
}

#[test]
fn thickness_blend_ops_match_seed_per_range() {
    let fx = fixture();
    let (mesh, kc, cfg) = (&fx.mesh, &fx.kc, &fx.cfg);
    let ne = mesh.n_edges();
    let zero = vec![0.0; ne];

    // D1/D2 d2fdx2 (two outputs: check each chunked against the full run).
    let mut seed1 = vec![0.0; ne];
    let mut seed2 = vec![0.0; ne];
    ops::d2fdx2(mesh, &fx.h, &mut seed1, &mut seed2, 0..ne);
    let mut full1 = vec![0.0; ne];
    let mut full2 = vec![0.0; ne];
    simd::d2fdx2(mesh, kc, 1, &fx.h, &mut full1, &mut full2, 0..ne);
    rel_close(&seed1, &full1, "D1 d2fdx2_cell1");
    rel_close(&seed2, &full2, "D2 d2fdx2_cell2");
    for mid in [ne / 2, ne / 3, 5 * ne / 8] {
        let mut s1 = vec![0.0; ne];
        let mut s2 = vec![0.0; ne];
        {
            let (lo1, hi1) = s1.split_at_mut(mid);
            let (lo2, hi2) = s2.split_at_mut(mid);
            simd::d2fdx2(mesh, kc, 1, &fx.h, lo1, lo2, 0..mid);
            simd::d2fdx2(mesh, kc, 1, &fx.h, hi1, hi2, mid..ne);
        }
        assert_eq!(full1, s1, "D1: split at {mid}");
        assert_eq!(full2, s2, "D2: split at {mid}");
    }

    // H2 h_edge, high-order branch: exact fusion (dc²/12 is one precomputed
    // product; the blend arithmetic is unchanged).
    let mut seed = vec![0.0; ne];
    ops::h_edge(mesh, cfg, &fx.h, &seed1, &seed2, &mut seed, 0..ne);
    let full = check_split(
        ne,
        &zero,
        |out, r| simd::h_edge(mesh, kc, cfg, 1, &fx.h, &seed1, &seed2, out, r),
        "H2",
    );
    assert_eq!(seed, full, "H2 high-order h_edge must be bit-identical");

    // H2 low-order branch delegates to the seed op verbatim.
    let lo_cfg = ModelConfig {
        high_order_h_edge: false,
        ..*cfg
    };
    let lo_kc = KernelCoeffs::build(mesh, &lo_cfg);
    ops::h_edge(mesh, &lo_cfg, &fx.h, &seed1, &seed2, &mut seed, 0..ne);
    let mut lo = vec![0.0; ne];
    simd::h_edge(
        mesh,
        &lo_kc,
        &lo_cfg,
        1,
        &fx.h,
        &seed1,
        &seed2,
        &mut lo,
        0..ne,
    );
    assert_eq!(seed, lo, "H2 low-order h_edge must be bit-identical");
}
