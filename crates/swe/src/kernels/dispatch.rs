//! Per-kernel backend selection at one layer: "this kernel, on this
//! range, on this backend", one Table-I instance at a time (the benchmark's
//! per-kernel probe calls these). [`KernelBackend::Scalar`] runs the seed
//! form in [`super::ops`] and [`KernelBackend::Simd`] the coefficient-table
//! tier in [`super::simd`] at `k = 1` (DESIGN.md §14); the stage program
//! makes the same choice per sweep at `k` lanes. Both tiers are
//! range-exact, so any executor's cut of a range keeps the bits.
//!
//! H1 reads coefficients: on the simd backend
//! [`tangential_velocity_kc`] runs four edges per AVX2 vector over the
//! padded TRiSK table of [`KernelCoeffs`], bit for bit the seed sum. E
//! (vertex PV) has no coefficients to precompute and shares one arithmetic
//! across both backends; it is dispatched here anyway so a backend sweep
//! exercises every kernel's simd entry point.

use super::{ops, simd};
use crate::coeffs::KernelCoeffs;
use crate::config::{KernelBackend, ModelConfig};
use mpas_mesh::Mesh;
use std::ops::Range;

/// A1 — thickness tendency on the configured backend.
#[allow(clippy::too_many_arguments)]
pub fn tend_h(
    backend: KernelBackend,
    mesh: &Mesh,
    kc: &KernelCoeffs,
    u: &[f64],
    h_edge: &[f64],
    out: &mut [f64],
    cells: Range<usize>,
) {
    match backend {
        KernelBackend::Scalar => ops::tend_h(mesh, u, h_edge, out, cells),
        KernelBackend::Simd => simd::tend_h(mesh, kc, 1, u, h_edge, out, cells),
    }
}

/// T1 — tracer-mass tendency on the configured backend.
#[allow(clippy::too_many_arguments)]
pub fn tend_tracer(
    backend: KernelBackend,
    mesh: &Mesh,
    kc: &KernelCoeffs,
    u: &[f64],
    h_edge: &[f64],
    h: &[f64],
    hq: &[f64],
    out: &mut [f64],
    cells: Range<usize>,
) {
    match backend {
        KernelBackend::Scalar => ops::tend_tracer(mesh, u, h_edge, h, hq, out, cells),
        KernelBackend::Simd => simd::tend_tracer(mesh, kc, 1, u, h_edge, h, hq, out, cells),
    }
}

/// B2 — velocity divergence on the configured backend.
pub fn divergence(
    backend: KernelBackend,
    mesh: &Mesh,
    kc: &KernelCoeffs,
    u: &[f64],
    out: &mut [f64],
    cells: Range<usize>,
) {
    match backend {
        KernelBackend::Scalar => ops::divergence(mesh, u, out, cells),
        KernelBackend::Simd => simd::divergence(mesh, kc, 1, u, out, cells),
    }
}

/// A2 — kinetic energy on the configured backend.
pub fn ke(
    backend: KernelBackend,
    mesh: &Mesh,
    kc: &KernelCoeffs,
    u: &[f64],
    out: &mut [f64],
    cells: Range<usize>,
) {
    match backend {
        KernelBackend::Scalar => ops::ke(mesh, u, out, cells),
        KernelBackend::Simd => simd::ke(mesh, kc, 1, u, out, cells),
    }
}

/// C2 — vertex vorticity on the configured backend.
pub fn vorticity(
    backend: KernelBackend,
    mesh: &Mesh,
    kc: &KernelCoeffs,
    u: &[f64],
    out: &mut [f64],
    vertices: Range<usize>,
) {
    match backend {
        KernelBackend::Scalar => ops::vorticity(mesh, u, out, vertices),
        KernelBackend::Simd => simd::vorticity(mesh, kc, 1, u, out, vertices),
    }
}

/// A3 — kite-area average of vertex vorticity on the configured backend.
pub fn vorticity_cell(
    backend: KernelBackend,
    mesh: &Mesh,
    kc: &KernelCoeffs,
    vorticity: &[f64],
    out: &mut [f64],
    cells: Range<usize>,
) {
    match backend {
        KernelBackend::Scalar => ops::vorticity_cell(mesh, vorticity, out, cells),
        KernelBackend::Simd => simd::kite_average(mesh, kc, 1, vorticity, out, cells),
    }
}

/// F — kite-area average of vertex PV on the configured backend.
pub fn pv_cell(
    backend: KernelBackend,
    mesh: &Mesh,
    kc: &KernelCoeffs,
    pv_vertex: &[f64],
    out: &mut [f64],
    cells: Range<usize>,
) {
    match backend {
        KernelBackend::Scalar => ops::pv_cell(mesh, pv_vertex, out, cells),
        KernelBackend::Simd => simd::kite_average(mesh, kc, 1, pv_vertex, out, cells),
    }
}

/// E — vertex potential vorticity (no coefficients to precompute; both
/// backends replay the seed arithmetic).
#[allow(clippy::too_many_arguments)]
pub fn pv_vertex(
    backend: KernelBackend,
    mesh: &Mesh,
    h: &[f64],
    vorticity: &[f64],
    f_vertex: &[f64],
    out: &mut [f64],
    vertices: Range<usize>,
) {
    match backend {
        KernelBackend::Scalar => ops::pv_vertex(mesh, h, vorticity, f_vertex, out, vertices),
        KernelBackend::Simd => simd::pv_vertex(mesh, 1, h, vorticity, f_vertex, out, vertices),
    }
}

/// G — edge PV with APVM upwinding on the configured backend.
#[allow(clippy::too_many_arguments)]
pub fn pv_edge(
    backend: KernelBackend,
    mesh: &Mesh,
    kc: &KernelCoeffs,
    apvm_factor: f64,
    dt: f64,
    pv_vertex: &[f64],
    pv_cell: &[f64],
    u: &[f64],
    v: &[f64],
    out: &mut [f64],
    edges: Range<usize>,
) {
    match backend {
        KernelBackend::Scalar => {
            ops::pv_edge(mesh, apvm_factor, dt, pv_vertex, pv_cell, u, v, out, edges)
        }
        KernelBackend::Simd => simd::pv_edge(
            mesh,
            kc,
            1,
            apvm_factor,
            dt,
            pv_vertex,
            pv_cell,
            u,
            v,
            out,
            edges,
        ),
    }
}

/// B1 — momentum tendency on the configured backend.
#[allow(clippy::too_many_arguments)]
pub fn tend_u(
    backend: KernelBackend,
    mesh: &Mesh,
    kc: &KernelCoeffs,
    gravity: f64,
    pv_edge: &[f64],
    u: &[f64],
    h_edge: &[f64],
    ke: &[f64],
    h: &[f64],
    b: &[f64],
    out: &mut [f64],
    edges: Range<usize>,
) {
    match backend {
        KernelBackend::Scalar => {
            ops::tend_u(mesh, gravity, pv_edge, u, h_edge, ke, h, b, out, edges)
        }
        KernelBackend::Simd => simd::tend_u(
            mesh, kc, 1, gravity, pv_edge, u, h_edge, ke, h, b, out, edges,
        ),
    }
}

/// C1 — del2 dissipation (read-modify-write) on the configured backend.
#[allow(clippy::too_many_arguments)]
pub fn tend_u_del2(
    backend: KernelBackend,
    mesh: &Mesh,
    kc: &KernelCoeffs,
    nu: f64,
    divergence: &[f64],
    vorticity: &[f64],
    out: &mut [f64],
    edges: Range<usize>,
) {
    match backend {
        KernelBackend::Scalar => ops::tend_u_del2(mesh, nu, divergence, vorticity, out, edges),
        KernelBackend::Simd => {
            simd::tend_u_del2(mesh, kc, 1, nu, divergence, vorticity, out, edges)
        }
    }
}

/// C1 (chained) — inner vector Laplacian on the configured backend.
pub fn lap_u(
    backend: KernelBackend,
    mesh: &Mesh,
    kc: &KernelCoeffs,
    divergence: &[f64],
    vorticity: &[f64],
    out: &mut [f64],
    edges: Range<usize>,
) {
    match backend {
        KernelBackend::Scalar => ops::lap_u(mesh, divergence, vorticity, out, edges),
        KernelBackend::Simd => simd::lap_u(mesh, kc, 1, divergence, vorticity, out, edges),
    }
}

/// C1 (chained) — outer del4 stage (read-modify-write) on the configured
/// backend.
#[allow(clippy::too_many_arguments)]
pub fn tend_u_del4(
    backend: KernelBackend,
    mesh: &Mesh,
    kc: &KernelCoeffs,
    nu4: f64,
    div_lap: &[f64],
    vort_lap: &[f64],
    out: &mut [f64],
    edges: Range<usize>,
) {
    match backend {
        KernelBackend::Scalar => ops::tend_u_del4(mesh, nu4, div_lap, vort_lap, out, edges),
        KernelBackend::Simd => simd::tend_u_del4(mesh, kc, 1, nu4, div_lap, vort_lap, out, edges),
    }
}

/// D1/D2 — second-derivative blend terms on the configured backend.
#[allow(clippy::too_many_arguments)]
pub fn d2fdx2(
    backend: KernelBackend,
    mesh: &Mesh,
    kc: &KernelCoeffs,
    h: &[f64],
    out1: &mut [f64],
    out2: &mut [f64],
    edges: Range<usize>,
) {
    match backend {
        KernelBackend::Scalar => ops::d2fdx2(mesh, h, out1, out2, edges),
        KernelBackend::Simd => simd::d2fdx2(mesh, kc, 1, h, out1, out2, edges),
    }
}

/// H2 — thickness at edges on the configured backend.
#[allow(clippy::too_many_arguments)]
pub fn h_edge(
    backend: KernelBackend,
    mesh: &Mesh,
    kc: &KernelCoeffs,
    config: &ModelConfig,
    h: &[f64],
    d2fdx2_cell1: &[f64],
    d2fdx2_cell2: &[f64],
    out: &mut [f64],
    edges: Range<usize>,
) {
    match backend {
        KernelBackend::Scalar => {
            ops::h_edge(mesh, config, h, d2fdx2_cell1, d2fdx2_cell2, out, edges)
        }
        KernelBackend::Simd => simd::h_edge(
            mesh,
            kc,
            config,
            1,
            h,
            d2fdx2_cell1,
            d2fdx2_cell2,
            out,
            edges,
        ),
    }
}

/// H1 — tangential velocity on the configured backend. The simd tier
/// reads the padded TRiSK table of `kc` (four edges per vector on AVX2)
/// and replays the seed sum bit for bit, as the stage program's H1+G
/// sweep does.
pub fn tangential_velocity_kc(
    backend: KernelBackend,
    mesh: &Mesh,
    kc: &KernelCoeffs,
    u: &[f64],
    out: &mut [f64],
    edges: Range<usize>,
) {
    match backend {
        KernelBackend::Scalar => ops::tangential_velocity(mesh, u, out, edges),
        KernelBackend::Simd => simd::tangential_velocity(mesh, kc, 1, u, out, edges),
    }
}

/// H1 for a caller that holds no [`KernelCoeffs`]: the seed form on both
/// backends, the bits of [`tangential_velocity_kc`] without its table.
/// Kept with this signature because the benchmark's per-kernel probe
/// (`perfbench/`) calls it.
pub fn tangential_velocity(
    _backend: KernelBackend,
    mesh: &Mesh,
    u: &[f64],
    out: &mut [f64],
    edges: Range<usize>,
) {
    ops::tangential_velocity(mesh, u, out, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpas_telemetry::digest::Fnv1a;

    /// FNV-1a digests of every kernel's output on [`simd_kernel_digests`]'s
    /// fixed level-3 input, recorded from the retired fused-coefficient
    /// tier. The simd tier replaces it and must keep its bits exactly.
    const FUSED_KERNEL_PINS: [(&str, u64); 17] = [
        ("d2fdx2_cell1", 0x4bd02d2f0f820436),
        ("d2fdx2_cell2", 0xb3028721496fb400),
        ("h_edge", 0x3488092edbeac0eb),
        ("vorticity", 0x515d98c88979e9b8),
        ("ke", 0x4c34abcd0f6c3504),
        ("divergence", 0xa0a12f8be05ad06f),
        ("tangential_velocity", 0x95f925e69e3b77db),
        ("vorticity_cell", 0x1820ee27a0cd9c56),
        ("pv_vertex", 0x000312cda813c222),
        ("pv_cell", 0x866164606a22706d),
        ("pv_edge", 0x2a43b279340ba8e2),
        ("tend_h", 0x3ffa461f92380509),
        ("tend_u", 0x0d87c7b049e96a36),
        ("tend_u_del2", 0x01257c2c8470259c),
        ("lap_u", 0xb309d0e79a2b0895),
        ("tend_u_del4", 0x153872c46ccdfa6b),
        ("tend_tracer", 0x818d9c1ba2266e39),
    ];

    fn digest(x: &[f64]) -> u64 {
        let mut d = Fnv1a::new();
        d.write_f64_slice(x);
        d.finish()
    }

    /// Chain every dispatched kernel on the simd backend over one fixed
    /// level-3 input (high-order `h_edge`, del2 and del4 on, one tracer) and
    /// digest each output.
    fn simd_kernel_digests() -> [u64; 17] {
        let backend = KernelBackend::Simd;
        let mesh = mpas_mesh::generate(3, 0);
        let config = ModelConfig {
            high_order_h_edge: true,
            del2_viscosity: 1.0e5,
            n_tracers: 1,
            ..Default::default()
        };
        let kc = KernelCoeffs::build(&mesh, &config);
        let (nc, ne, nv) = (mesh.n_cells(), mesh.n_edges(), mesh.n_vertices());
        let u: Vec<f64> = (0..ne).map(|e| 20.0 * (e as f64 * 0.37).sin()).collect();
        let h: Vec<f64> = (0..nc)
            .map(|i| 1000.0 + 50.0 * (i as f64 * 0.23).cos())
            .collect();
        let b: Vec<f64> = (0..nc).map(|i| 10.0 * (i as f64 * 0.05).sin()).collect();
        let hq: Vec<f64> = h
            .iter()
            .enumerate()
            .map(|(i, &hi)| hi * (1.0 + 0.5 * (i as f64 * 0.31).sin()))
            .collect();
        let f_vertex: Vec<f64> = (0..nv).map(|v| 1.0e-4 * mesh.x_vertex[v].z).collect();
        let (apvm, dt, nu2, nu4) = (config.apvm_factor, 300.0, config.del2_viscosity, 1.0e14);

        let mut d1 = vec![0.0; ne];
        let mut d2 = vec![0.0; ne];
        d2fdx2(backend, &mesh, &kc, &h, &mut d1, &mut d2, 0..ne);
        let mut he = vec![0.0; ne];
        h_edge(backend, &mesh, &kc, &config, &h, &d1, &d2, &mut he, 0..ne);
        let mut vort = vec![0.0; nv];
        vorticity(backend, &mesh, &kc, &u, &mut vort, 0..nv);
        let mut kin = vec![0.0; nc];
        ke(backend, &mesh, &kc, &u, &mut kin, 0..nc);
        let mut div = vec![0.0; nc];
        divergence(backend, &mesh, &kc, &u, &mut div, 0..nc);
        let mut v = vec![0.0; ne];
        tangential_velocity_kc(backend, &mesh, &kc, &u, &mut v, 0..ne);
        let mut vc = vec![0.0; nc];
        vorticity_cell(backend, &mesh, &kc, &vort, &mut vc, 0..nc);
        let mut pvv = vec![0.0; nv];
        pv_vertex(backend, &mesh, &h, &vort, &f_vertex, &mut pvv, 0..nv);
        let mut pvc = vec![0.0; nc];
        pv_cell(backend, &mesh, &kc, &pvv, &mut pvc, 0..nc);
        let mut pve = vec![0.0; ne];
        pv_edge(
            backend,
            &mesh,
            &kc,
            apvm,
            dt,
            &pvv,
            &pvc,
            &u,
            &v,
            &mut pve,
            0..ne,
        );
        let mut th = vec![0.0; nc];
        tend_h(backend, &mesh, &kc, &u, &he, &mut th, 0..nc);
        let mut tu = vec![0.0; ne];
        tend_u(
            backend,
            &mesh,
            &kc,
            config.gravity,
            &pve,
            &u,
            &he,
            &kin,
            &h,
            &b,
            &mut tu,
            0..ne,
        );
        let mut tu2 = tu.clone();
        tend_u_del2(backend, &mesh, &kc, nu2, &div, &vort, &mut tu2, 0..ne);
        let mut lap = vec![0.0; ne];
        lap_u(backend, &mesh, &kc, &div, &vort, &mut lap, 0..ne);
        let mut div_lap = vec![0.0; nc];
        divergence(backend, &mesh, &kc, &lap, &mut div_lap, 0..nc);
        let mut vort_lap = vec![0.0; nv];
        vorticity(backend, &mesh, &kc, &lap, &mut vort_lap, 0..nv);
        let mut tu4 = tu2.clone();
        tend_u_del4(
            backend,
            &mesh,
            &kc,
            nu4,
            &div_lap,
            &vort_lap,
            &mut tu4,
            0..ne,
        );
        let mut tt = vec![0.0; nc];
        tend_tracer(backend, &mesh, &kc, &u, &he, &h, &hq, &mut tt, 0..nc);

        // In `FUSED_KERNEL_PINS` order.
        [
            &d1, &d2, &he, &vort, &kin, &div, &v, &vc, &pvv, &pvc, &pve, &th, &tu, &tu2, &lap,
            &tu4, &tt,
        ]
        .map(|x| digest(x))
    }

    #[test]
    fn fused_and_simd_agree_bitwise_per_kernel() {
        // The k=1 simd tier must reproduce the fused tier's recorded bits
        // through the dispatch layer — this is what lets every executor
        // run the simd backend without per-executor proofs.
        let got = simd_kernel_digests();
        for ((name, want), got) in FUSED_KERNEL_PINS.iter().zip(got) {
            assert_eq!(
                *want, got,
                "{name}: simd digest {got:#018x} != pin {want:#018x}"
            );
        }
    }

    #[test]
    fn unfused_kernels_identical_across_all_backends() {
        // H1 (through the padded TRiSK table on simd) and E (no
        // coefficients) replay the seed arithmetic on both backends and
        // must agree exactly.
        let mesh = mpas_mesh::generate(3, 0);
        let config = ModelConfig::default();
        let kc = KernelCoeffs::build(&mesh, &config);
        let (nc, ne, nv) = (mesh.n_cells(), mesh.n_edges(), mesh.n_vertices());
        let u: Vec<f64> = (0..ne).map(|e| (e as f64 * 0.29).cos()).collect();
        let h: Vec<f64> = (0..nc).map(|i| 1000.0 + (i as f64).sin()).collect();
        let f_vertex = vec![1e-4; nv];
        let mut vort = vec![0.0; nv];
        vorticity(KernelBackend::Simd, &mesh, &kc, &u, &mut vort, 0..nv);

        let mut outs: Vec<Vec<f64>> = Vec::new();
        for backend in KernelBackend::ALL {
            let mut tv = vec![0.0; ne];
            tangential_velocity_kc(backend, &mesh, &kc, &u, &mut tv, 0..ne);
            let mut seed_tv = vec![0.0; ne];
            tangential_velocity(backend, &mesh, &u, &mut seed_tv, 0..ne);
            assert_eq!(tv, seed_tv, "{backend:?}: H1 with and without the table");
            let mut pv = vec![0.0; nv];
            pv_vertex(backend, &mesh, &h, &vort, &f_vertex, &mut pv, 0..nv);
            tv.extend(pv);
            outs.push(tv);
        }
        assert_eq!(outs[0], outs[1]);
    }
}
