//! Vertical-batching SIMD forms of the Table-I operators (DESIGN.md §14).
//!
//! Each function computes its namesake in [`super::ops`] from the
//! precomputed [`KernelCoeffs`] tables — one contiguous coefficient stream
//! in place of two or three `mesh.*[e]` gathers, no per-slot `position()`
//! search in the kite-area interpolations, no divisions inside edge loops
//! — and operates on **layered** fields: `k` independent vertical layers
//! interleaved as contiguous lanes per entity, `field[entity * k + lane]`.
//! One gathered stencil index (`edges_on_cell[slot]`, `cells_on_edge[e]`,
//! ...) is then amortized across all `k` lanes, and the lane loop is a
//! unit-stride inner loop a vector unit can chew through.
//!
//! **Compile-time lane counts.** Every kernel body is written once over a
//! lane count `K` and instantiated for `K = 1` and `K = 4` when the
//! observed `k` is one of those, and for the runtime `k` otherwise
//! (`K = 0`). At `K = 1` the lane loops, their index multiplies and the
//! 4-lane vector chunks fold away, leaving the flat scalar loop every
//! single-layer executor runs.
//!
//! **Four edges per vector at one layer.** With no layers to batch, the
//! AVX2 forms of B1 (`tend_u`), H1 (`tangential_velocity`), the H1+G sweep
//! (`tangential_pv_edge`) and G (`pv_edge`) vectorize *across edges*
//! instead: each aligned block of four edges is one `__m256d`, and H1 and
//! B1 read the TRiSK stencil from the padded table of [`KernelCoeffs`]
//! (four lanes × the widest stencil, padded rows masked out). The edges
//! of a range before its first and after its last multiple of 4 run the
//! `K = 1` body.
//!
//! **Bitwise contract.** Every lane evaluates *exactly* the single-layer
//! coefficient-table expression for that layer: same association, same
//! operation sequence, and only `mul/add/sub/div/xor`-class vector
//! instructions (never FMA, which contracts two roundings into one and
//! would change results). A `k = 1` layered field *is* a flat field, so
//! the tier at one layer is the flat fast path every executor runs, and
//! lane `l` of a `k`-layer run is bit-identical to a flat run over that
//! layer's fields. The flat bits are pinned by digest tests to the
//! fused-coefficient tier this one replaced. Reductions keep the seed
//! slot order per lane — in the four-edge sweeps a lane is one edge
//! summing its own slots in CSR order, and a padded slot adds `+0.0` to a
//! sum that starts at `+0.0` and so can never be `-0.0` — so nothing here
//! reorders a sum; the documented 1-ulp/1e-13 band against [`super::ops`]
//! (DESIGN.md §9) comes from the coefficient folding alone.
//!
//! **Two implementations per kernel, selected at runtime:**
//!
//! * an AVX2 path (`std::arch` x86_64 intrinsics behind
//!   `#[target_feature]`, 4-lane `_mm256` chunks plus a scalar lane
//!   tail, or four edges per vector at one layer), taken when
//!   [`avx2_available`] and not overridden;
//! * a scalar-batch fallback (plain lane loops, auto-vectorizable, builds
//!   on stable Rust and every architecture).
//!
//! Setting the environment variable `MPAS_SIMD_FORCE_SCALAR` (to anything
//! but `0`) pins every dispatch to the scalar-batch path — CI runs the
//! same simulation both ways and asserts bitwise-identical results.
//!
//! [`block_ranges`] tiles a sweep's index space into cache-sized blocks;
//! with the SFC ordering from `mpas_mesh::reorder` renumbering entities
//! along a space-filling curve, iterating cell blocks in index order *is*
//! tiling the curve, so a block's gathered edge/vertex neighborhoods stay
//! L2-resident across the kernels of a substep.

use crate::coeffs::KernelCoeffs;
use crate::config::ModelConfig;
use mpas_mesh::Mesh;
use std::ops::Range;
use std::sync::OnceLock;

/// Which inner-loop implementation a simd-tier kernel runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdMode {
    /// Scalar-batch lane loops (auto-vectorizable, every architecture).
    Batch,
    /// Explicit AVX2 intrinsics (x86_64 with runtime-detected AVX2).
    Avx2,
}

impl SimdMode {
    /// Lowercase label for telemetry and logs.
    pub fn name(&self) -> &'static str {
        match self {
            SimdMode::Batch => "batch",
            SimdMode::Avx2 => "avx2",
        }
    }
}

/// Whether the host CPU offers AVX2 (always `false` off x86_64).
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether `MPAS_SIMD_FORCE_SCALAR` pins dispatch to the scalar-batch
/// path (read once; set it before the first kernel call).
pub fn forced_scalar() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| std::env::var_os("MPAS_SIMD_FORCE_SCALAR").is_some_and(|v| v != "0"))
}

/// The mode runtime dispatch selects: AVX2 when detected and not
/// overridden, scalar-batch otherwise.
pub fn active_mode() -> SimdMode {
    if avx2_available() && !forced_scalar() {
        SimdMode::Avx2
    } else {
        SimdMode::Batch
    }
}

/// Tile `0..n` into consecutive blocks of at most `block` entities
/// (`block` is clamped to ≥ 1; the last block may be short). Every index
/// appears in exactly one block, in order — so a blocked sweep visits the
/// same entities in the same order as an unblocked one.
pub fn block_ranges(n: usize, block: usize) -> impl Iterator<Item = Range<usize>> {
    let b = block.max(1);
    (0..n.div_ceil(b)).map(move |i| (i * b)..((i * b + b).min(n)))
}

/// An L2-sized default cell-block length for a sweep touching `streams`
/// layered f64 fields at `k` lanes per cell (≈256 KiB of L2 kept for the
/// block's working set, clamped to a sane range).
pub fn default_cell_block(k: usize, streams: usize) -> usize {
    const L2_BYTES: usize = 256 * 1024;
    (L2_BYTES / (8 * k.max(1) * streams.max(1))).clamp(64, 1 << 20)
}

/// The lane count a body instantiated for `K` runs with: `K` itself, or
/// the runtime `k` for the `K = 0` instantiation.
#[inline(always)]
fn lane_count<const K: usize>(k: usize) -> usize {
    debug_assert!(K == 0 || K == k, "a {K}-lane body called with k = {k}");
    if K == 0 {
        k
    } else {
        K
    }
}

// ---------------------------------------------------------------------
// Dispatchers: one public pair per kernel. `<op>` picks the active mode;
// `<op>_with` pins a mode explicitly (the equivalence tests compare the
// two paths directly through it). A pinned `Avx2` silently falls back to
// `Batch` when the CPU lacks AVX2, keeping the API safe. Both pick the
// `K = 1`, `K = 4` or runtime-`k` instantiation from the `[k]` argument.
// ---------------------------------------------------------------------

macro_rules! dispatch {
    ($(#[$doc:meta])* $name:ident, $with:ident [$k:ident] ($($arg:ident : $ty:ty),* $(,)?)) => {
        $(#[$doc])*
        #[allow(clippy::too_many_arguments)]
        pub fn $name($($arg: $ty),*) {
            $with(active_mode(), $($arg),*)
        }

        /// Same kernel with the implementation pinned explicitly (falls
        /// back to [`SimdMode::Batch`] when AVX2 is pinned but the CPU
        /// lacks it, keeping the call safe everywhere).
        #[allow(clippy::too_many_arguments)]
        pub fn $with(mode: SimdMode, $($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            if mode == SimdMode::Avx2 && avx2_available() {
                // SAFETY: AVX2 presence was just verified at runtime.
                unsafe {
                    match $k {
                        1 => avx2::$name::<1>($($arg),*),
                        4 => avx2::$name::<4>($($arg),*),
                        _ => avx2::$name::<0>($($arg),*),
                    }
                }
                return;
            }
            let _ = mode;
            match $k {
                1 => batch::$name::<1>($($arg),*),
                4 => batch::$name::<4>($($arg),*),
                _ => batch::$name::<0>($($arg),*),
            }
        }
    };
}

dispatch! {
    /// A1 — layered thickness tendency (fused `s·dv` weights).
    tend_h, tend_h_with [k] (
        mesh: &Mesh, kc: &KernelCoeffs, k: usize,
        u: &[f64], h_edge: &[f64], out: &mut [f64], cells: Range<usize>,
    )
}

dispatch! {
    /// T1 — layered tracer-mass tendency (fused `½·s·dv` weights).
    tend_tracer, tend_tracer_with [k] (
        mesh: &Mesh, kc: &KernelCoeffs, k: usize,
        u: &[f64], h_edge: &[f64], h: &[f64], hq: &[f64],
        out: &mut [f64], cells: Range<usize>,
    )
}

dispatch! {
    /// B2 — layered velocity divergence (fused `s·dv` weights).
    divergence, divergence_with [k] (
        mesh: &Mesh, kc: &KernelCoeffs, k: usize,
        u: &[f64], out: &mut [f64], cells: Range<usize>,
    )
}

dispatch! {
    /// A2 — layered kinetic energy (fused `¼·dc·dv` weights).
    ke, ke_with [k] (
        mesh: &Mesh, kc: &KernelCoeffs, k: usize,
        u: &[f64], out: &mut [f64], cells: Range<usize>,
    )
}

dispatch! {
    /// A2+B2 fused — one gather of `u` over `edges_on_cell` feeds both
    /// the kinetic-energy and the divergence accumulator; each sum keeps
    /// its standalone term order, so both outputs are bitwise-equal to
    /// the separate sweeps while the edge velocities are read once.
    ke_divergence, ke_divergence_with [k] (
        mesh: &Mesh, kc: &KernelCoeffs, k: usize,
        u: &[f64], ke_out: &mut [f64], div_out: &mut [f64], cells: Range<usize>,
    )
}

dispatch! {
    /// C2 — layered vertex vorticity (fused `s·dc` circulation lengths).
    vorticity, vorticity_with [k] (
        mesh: &Mesh, kc: &KernelCoeffs, k: usize,
        u: &[f64], out: &mut [f64], vertices: Range<usize>,
    )
}

dispatch! {
    /// C2+E fused — the vertex sweep computes circulation vorticity and
    /// immediately forms `(f + ζ)/h_v` from the value still in register,
    /// skipping the standalone E kernel's reload of the vorticity array.
    vorticity_pv, vorticity_pv_with [k] (
        mesh: &Mesh, kc: &KernelCoeffs, k: usize,
        u: &[f64], h: &[f64], f_vertex: &[f64],
        vort_out: &mut [f64], pv_out: &mut [f64], vertices: Range<usize>,
    )
}

dispatch! {
    /// A3/F — layered kite-area average of a vertex field onto cells
    /// (`vorticity_cell` and `pv_cell` share this exact stencil).
    kite_average, kite_average_with [k] (
        mesh: &Mesh, kc: &KernelCoeffs, k: usize,
        vertex_field: &[f64], out: &mut [f64], cells: Range<usize>,
    )
}

dispatch! {
    /// E — layered vertex potential vorticity (`(f + ζ)/h_v`; never
    /// fused, so the lanes replay the seed arithmetic).
    pv_vertex, pv_vertex_with [k] (
        mesh: &Mesh, k: usize,
        h: &[f64], vorticity: &[f64], f_vertex: &[f64],
        out: &mut [f64], vertices: Range<usize>,
    )
}

dispatch! {
    /// G — layered edge PV with APVM upwinding (fused reciprocals; four
    /// edges per vector at one layer on AVX2).
    pv_edge, pv_edge_with [k] (
        mesh: &Mesh, kc: &KernelCoeffs, k: usize,
        apvm_factor: f64, dt: f64,
        pv_vertex: &[f64], pv_cell: &[f64], u: &[f64], v: &[f64],
        out: &mut [f64], edges: Range<usize>,
    )
}

dispatch! {
    /// B1 — layered momentum tendency (fused `½·w` and `1/dc`); `b` is
    /// the single-layer bottom topography, broadcast across lanes. Four
    /// edges per vector at one layer on AVX2, over the padded TRiSK table.
    tend_u, tend_u_with [k] (
        mesh: &Mesh, kc: &KernelCoeffs, k: usize,
        gravity: f64, pv_edge: &[f64], u: &[f64], h_edge: &[f64],
        ke: &[f64], h: &[f64], b: &[f64],
        out: &mut [f64], edges: Range<usize>,
    )
}

dispatch! {
    /// C1 — layered del2 dissipation (read-modify-write on `out`).
    tend_u_del2, tend_u_del2_with [k] (
        mesh: &Mesh, kc: &KernelCoeffs, k: usize,
        nu: f64, divergence: &[f64], vorticity: &[f64],
        out: &mut [f64], edges: Range<usize>,
    )
}

dispatch! {
    /// C1 (chained) — layered inner vector Laplacian.
    lap_u, lap_u_with [k] (
        mesh: &Mesh, kc: &KernelCoeffs, k: usize,
        divergence: &[f64], vorticity: &[f64],
        out: &mut [f64], edges: Range<usize>,
    )
}

dispatch! {
    /// C1 (chained) — layered outer del4 stage (read-modify-write).
    tend_u_del4, tend_u_del4_with [k] (
        mesh: &Mesh, kc: &KernelCoeffs, k: usize,
        nu4: f64, div_lap: &[f64], vort_lap: &[f64],
        out: &mut [f64], edges: Range<usize>,
    )
}

dispatch! {
    /// D1/D2 — layered second-derivative blend terms (fused `dv/dc`).
    d2fdx2, d2fdx2_with [k] (
        mesh: &Mesh, kc: &KernelCoeffs, k: usize,
        h: &[f64], out1: &mut [f64], out2: &mut [f64], edges: Range<usize>,
    )
}

dispatch! {
    /// H2 — layered thickness at edges (high-order blend via `dc²/12`
    /// when configured, plain mid-edge average otherwise).
    h_edge, h_edge_with [k] (
        mesh: &Mesh, kc: &KernelCoeffs, config: &ModelConfig, k: usize,
        h: &[f64], d2fdx2_cell1: &[f64], d2fdx2_cell2: &[f64],
        out: &mut [f64], edges: Range<usize>,
    )
}

dispatch! {
    /// H1 — layered tangential velocity (TRiSK reconstruction; the lanes
    /// replay the seed arithmetic, and at one layer on AVX2 four edges per
    /// vector read the padded TRiSK table as `½w + ½w`, exactly `w`).
    tangential_velocity, tangential_velocity_with [k] (
        mesh: &Mesh, kc: &KernelCoeffs, k: usize,
        u: &[f64], out: &mut [f64], edges: Range<usize>,
    )
}

dispatch! {
    /// H1+G fused — the edge sweep reconstructs the tangential velocity
    /// and feeds it straight into the APVM upwinding term, storing both
    /// fields in one pass over the edges. `pv_vertex` and `pv_cell` must
    /// already be complete (the sweep reads vertex/cell neighbours). Four
    /// edges per vector at one layer on AVX2, like its two halves.
    tangential_pv_edge, tangential_pv_edge_with [k] (
        mesh: &Mesh, kc: &KernelCoeffs, k: usize,
        apvm_factor: f64, dt: f64,
        pv_vertex: &[f64], pv_cell: &[f64], u: &[f64],
        v_out: &mut [f64], pv_edge_out: &mut [f64], edges: Range<usize>,
    )
}

// ---------------------------------------------------------------------
// Layered pointwise utilities (X1–X5). These have no gather to amortize
// and trivially auto-vectorize, so one plain implementation suffices.
// ---------------------------------------------------------------------

/// X2/X3 — layered provisional state: `out = base + coef·tend` over the
/// entity range (all `k` lanes of each entity).
pub fn axpy(k: usize, base: &[f64], tend: &[f64], coef: f64, out: &mut [f64], range: Range<usize>) {
    let off = range.start * k;
    for x in (range.start * k)..(range.end * k) {
        out[x - off] = base[x] + coef * tend[x];
    }
}

/// X4/X5 — layered accumulation: `acc += weight·tend`.
pub fn accumulate(k: usize, tend: &[f64], weight: f64, acc: &mut [f64], range: Range<usize>) {
    let off = range.start * k;
    for x in (range.start * k)..(range.end * k) {
        acc[x - off] += weight * tend[x];
    }
}

/// X2+X4 fused — one pass over `tend` feeds both the provisional state
/// (`out = base + coef·tend`) and the RK accumulator (`acc += weight·tend`).
/// Each output computes exactly the expression of its standalone form, so
/// the fusion only halves the tendency reads, never the bits.
#[allow(clippy::too_many_arguments)]
pub fn axpy_accumulate(
    k: usize,
    base: &[f64],
    tend: &[f64],
    coef: f64,
    weight: f64,
    out: &mut [f64],
    acc: &mut [f64],
    range: Range<usize>,
) {
    let off = range.start * k;
    for x in (range.start * k)..(range.end * k) {
        let t = tend[x];
        out[x - off] = base[x] + coef * t;
        acc[x - off] += weight * t;
    }
}

/// X1 — zero all lanes of masked boundary edges.
pub fn enforce_boundary(mesh: &Mesh, k: usize, tend_u: &mut [f64], edges: Range<usize>) {
    let off = edges.start;
    for e in edges {
        if mesh.boundary_edge[e] {
            tend_u[(e - off) * k..(e - off) * k + k].fill(0.0);
        }
    }
}

// ---------------------------------------------------------------------
// Per-lane scalar forms. Each is exactly the flat coefficient-table
// expression with `e` → `e*k + l` on layered fields; the batch bodies,
// the AVX2 lane tails and the one-edge ends of the four-edge sweeps all
// call these, so no two paths can diverge.
// ---------------------------------------------------------------------

#[inline(always)]
fn tend_h_lane(
    mesh: &Mesh,
    kc: &KernelCoeffs,
    k: usize,
    i: usize,
    l: usize,
    u: &[f64],
    he: &[f64],
) -> f64 {
    let mut acc = 0.0;
    for slot in mesh.cell_range(i) {
        let e = mesh.edges_on_cell[slot] as usize;
        acc += kc.flux_div[slot] * u[e * k + l] * he[e * k + l];
    }
    -acc / mesh.area_cell[i]
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tend_tracer_lane(
    mesh: &Mesh,
    kc: &KernelCoeffs,
    k: usize,
    i: usize,
    l: usize,
    u: &[f64],
    he: &[f64],
    h: &[f64],
    hq: &[f64],
) -> f64 {
    let mut acc = 0.0;
    for slot in mesh.cell_range(i) {
        let e = mesh.edges_on_cell[slot] as usize;
        let [c1, c2] = mesh.cells_on_edge[e];
        let (c1, c2) = (c1 as usize * k + l, c2 as usize * k + l);
        let q2 = hq[c1] / h[c1] + hq[c2] / h[c2];
        acc += kc.half_flux_div[slot] * u[e * k + l] * he[e * k + l] * q2;
    }
    -acc / mesh.area_cell[i]
}

#[inline(always)]
fn divergence_lane(mesh: &Mesh, kc: &KernelCoeffs, k: usize, i: usize, l: usize, u: &[f64]) -> f64 {
    let mut acc = 0.0;
    for slot in mesh.cell_range(i) {
        let e = mesh.edges_on_cell[slot] as usize;
        acc += kc.flux_div[slot] * u[e * k + l];
    }
    acc / mesh.area_cell[i]
}

#[inline(always)]
fn ke_lane(mesh: &Mesh, kc: &KernelCoeffs, k: usize, i: usize, l: usize, u: &[f64]) -> f64 {
    let mut acc = 0.0;
    for slot in mesh.cell_range(i) {
        let e = mesh.edges_on_cell[slot] as usize;
        acc += kc.ke_weight[slot] * u[e * k + l] * u[e * k + l];
    }
    acc / mesh.area_cell[i]
}

/// One shared gather of `u` over `edges_on_cell` feeding both the A2 and
/// B2 accumulators. Each sum adds the same terms in the same order as its
/// standalone kernel, so the pair is bitwise-equal to two separate sweeps.
#[inline(always)]
fn ke_divergence_lane(
    mesh: &Mesh,
    kc: &KernelCoeffs,
    k: usize,
    i: usize,
    l: usize,
    u: &[f64],
) -> (f64, f64) {
    let mut ke = 0.0;
    let mut div = 0.0;
    for slot in mesh.cell_range(i) {
        let e = mesh.edges_on_cell[slot] as usize;
        let uv = u[e * k + l];
        ke += kc.ke_weight[slot] * uv * uv;
        div += kc.flux_div[slot] * uv;
    }
    (ke / mesh.area_cell[i], div / mesh.area_cell[i])
}

#[inline(always)]
fn vorticity_lane(mesh: &Mesh, kc: &KernelCoeffs, k: usize, v: usize, l: usize, u: &[f64]) -> f64 {
    let mut circ = 0.0;
    for j in 0..3 {
        let e = mesh.edges_on_vertex[v][j] as usize;
        circ += kc.vort_sign_dc[v][j] * u[e * k + l];
    }
    circ / mesh.area_triangle[v]
}

#[inline(always)]
fn kite_average_lane(
    mesh: &Mesh,
    kc: &KernelCoeffs,
    k: usize,
    i: usize,
    l: usize,
    vf: &[f64],
) -> f64 {
    let mut acc = 0.0;
    for slot in mesh.cell_range(i) {
        let v = mesh.vertices_on_cell[slot] as usize;
        acc += kc.kite_cell[slot] * vf[v * k + l];
    }
    acc / mesh.area_cell[i]
}

#[inline(always)]
fn pv_vertex_lane(
    mesh: &Mesh,
    k: usize,
    v: usize,
    l: usize,
    h: &[f64],
    vorticity: &[f64],
    f_vertex: &[f64],
) -> f64 {
    pv_from_vort_lane(mesh, k, v, l, h, f_vertex, vorticity[v * k + l])
}

/// `pv_vertex` with the vorticity value already in hand — the fused
/// `vorticity_pv` sweep feeds the register it just computed, which holds
/// the exact bits the standalone kernel would reload from memory.
#[inline(always)]
fn pv_from_vort_lane(
    mesh: &Mesh,
    k: usize,
    v: usize,
    l: usize,
    h: &[f64],
    f_vertex: &[f64],
    vort: f64,
) -> f64 {
    let mut hv = 0.0;
    for j in 0..3 {
        hv += mesh.kite_areas_on_vertex[v][j] * h[mesh.cells_on_vertex[v][j] as usize * k + l];
    }
    hv /= mesh.area_triangle[v];
    (f_vertex[v] + vort) / hv
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn pv_edge_lane(
    mesh: &Mesh,
    kc: &KernelCoeffs,
    k: usize,
    e: usize,
    l: usize,
    apvm_factor: f64,
    dt: f64,
    pv_v: &[f64],
    pv_c: &[f64],
    u: &[f64],
    v: &[f64],
) -> f64 {
    pv_edge_from_v_lane(
        mesh,
        kc,
        k,
        e,
        l,
        apvm_factor,
        dt,
        pv_v,
        pv_c,
        u,
        v[e * k + l],
    )
}

/// `pv_edge` with the tangential velocity already in hand — the fused
/// `tangential_pv_edge` sweep feeds the value it just reconstructed.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn pv_edge_from_v_lane(
    mesh: &Mesh,
    kc: &KernelCoeffs,
    k: usize,
    e: usize,
    l: usize,
    apvm_factor: f64,
    dt: f64,
    pv_v: &[f64],
    pv_c: &[f64],
    u: &[f64],
    tv: f64,
) -> f64 {
    let [v1, v2] = mesh.vertices_on_edge[e];
    let [c1, c2] = mesh.cells_on_edge[e];
    let (v1, v2) = (v1 as usize * k + l, v2 as usize * k + l);
    let (c1, c2) = (c1 as usize * k + l, c2 as usize * k + l);
    let base = 0.5 * (pv_v[v1] + pv_v[v2]);
    let grad_t = (pv_v[v2] - pv_v[v1]) * kc.inv_dv[e];
    let grad_n = (pv_c[c2] - pv_c[c1]) * kc.inv_dc[e];
    base - apvm_factor * dt * (u[e * k + l] * grad_n + tv * grad_t)
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tend_u_lane(
    mesh: &Mesh,
    kc: &KernelCoeffs,
    k: usize,
    e: usize,
    l: usize,
    gravity: f64,
    pv_e: &[f64],
    u: &[f64],
    he: &[f64],
    ke: &[f64],
    h: &[f64],
    b: &[f64],
) -> f64 {
    let [c1, c2] = mesh.cells_on_edge[e];
    let (c1, c2) = (c1 as usize, c2 as usize);
    let mut q = 0.0;
    for slot in mesh.eoe_range(e) {
        let eoe = mesh.edges_on_edge[slot] as usize;
        q += 0.5
            * mesh.weights_on_edge[slot]
            * u[eoe * k + l]
            * he[eoe * k + l]
            * (pv_e[e * k + l] + pv_e[eoe * k + l]);
    }
    let grad = (ke[c2 * k + l] - ke[c1 * k + l]
        + gravity * (h[c2 * k + l] + b[c2] - h[c1 * k + l] - b[c1]))
        * kc.inv_dc[e];
    q - grad
}

/// The shared `d − z` core of the C1 family: normal divergence gradient
/// minus tangential vorticity gradient at one edge lane.
#[inline(always)]
fn del_core_lane(
    mesh: &Mesh,
    kc: &KernelCoeffs,
    k: usize,
    e: usize,
    l: usize,
    div: &[f64],
    vort: &[f64],
) -> f64 {
    let [c1, c2] = mesh.cells_on_edge[e];
    let [v1, v2] = mesh.vertices_on_edge[e];
    let d = (div[c2 as usize * k + l] - div[c1 as usize * k + l]) * kc.inv_dc[e];
    let z = (vort[v2 as usize * k + l] - vort[v1 as usize * k + l]) * kc.inv_dv[e];
    d - z
}

#[inline(always)]
fn d2fdx2_cell_lane(
    mesh: &Mesh,
    kc: &KernelCoeffs,
    k: usize,
    c: usize,
    l: usize,
    h: &[f64],
) -> f64 {
    let mut acc = 0.0;
    for slot in mesh.cell_range(c) {
        let nb = mesh.cells_on_cell[slot] as usize;
        acc += (h[nb * k + l] - h[c * k + l]) * kc.grad_ratio[slot];
    }
    acc / mesh.area_cell[c]
}

#[inline(always)]
fn tangential_velocity_lane(mesh: &Mesh, k: usize, e: usize, l: usize, u: &[f64]) -> f64 {
    let mut acc = 0.0;
    for slot in mesh.eoe_range(e) {
        acc += mesh.weights_on_edge[slot] * u[mesh.edges_on_edge[slot] as usize * k + l];
    }
    acc
}

// ---------------------------------------------------------------------
// Scalar-batch implementations: a plain loop over each entity's `K`
// lanes through the shared lane forms.
// ---------------------------------------------------------------------

mod batch {
    use super::*;

    pub(super) fn tend_h<const K: usize>(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        k: usize,
        u: &[f64],
        h_edge: &[f64],
        out: &mut [f64],
        cells: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        let off = cells.start;
        for i in cells {
            let ob = (i - off) * k;
            for l in 0..k {
                out[ob + l] = tend_h_lane(mesh, kc, k, i, l, u, h_edge);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn tend_tracer<const K: usize>(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        k: usize,
        u: &[f64],
        h_edge: &[f64],
        h: &[f64],
        hq: &[f64],
        out: &mut [f64],
        cells: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        let off = cells.start;
        for i in cells {
            let ob = (i - off) * k;
            for l in 0..k {
                out[ob + l] = tend_tracer_lane(mesh, kc, k, i, l, u, h_edge, h, hq);
            }
        }
    }

    pub(super) fn divergence<const K: usize>(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        k: usize,
        u: &[f64],
        out: &mut [f64],
        cells: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        let off = cells.start;
        for i in cells {
            let ob = (i - off) * k;
            for l in 0..k {
                out[ob + l] = divergence_lane(mesh, kc, k, i, l, u);
            }
        }
    }

    pub(super) fn ke<const K: usize>(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        k: usize,
        u: &[f64],
        out: &mut [f64],
        cells: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        let off = cells.start;
        for i in cells {
            let ob = (i - off) * k;
            for l in 0..k {
                out[ob + l] = ke_lane(mesh, kc, k, i, l, u);
            }
        }
    }

    pub(super) fn ke_divergence<const K: usize>(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        k: usize,
        u: &[f64],
        ke_out: &mut [f64],
        div_out: &mut [f64],
        cells: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        let off = cells.start;
        for i in cells {
            let ob = (i - off) * k;
            for l in 0..k {
                let (ke, div) = ke_divergence_lane(mesh, kc, k, i, l, u);
                ke_out[ob + l] = ke;
                div_out[ob + l] = div;
            }
        }
    }

    pub(super) fn vorticity<const K: usize>(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        k: usize,
        u: &[f64],
        out: &mut [f64],
        vertices: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        let off = vertices.start;
        for v in vertices {
            let ob = (v - off) * k;
            for l in 0..k {
                out[ob + l] = vorticity_lane(mesh, kc, k, v, l, u);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn vorticity_pv<const K: usize>(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        k: usize,
        u: &[f64],
        h: &[f64],
        f_vertex: &[f64],
        vort_out: &mut [f64],
        pv_out: &mut [f64],
        vertices: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        let off = vertices.start;
        for v in vertices {
            let ob = (v - off) * k;
            for l in 0..k {
                let z = vorticity_lane(mesh, kc, k, v, l, u);
                vort_out[ob + l] = z;
                pv_out[ob + l] = pv_from_vort_lane(mesh, k, v, l, h, f_vertex, z);
            }
        }
    }

    pub(super) fn kite_average<const K: usize>(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        k: usize,
        vertex_field: &[f64],
        out: &mut [f64],
        cells: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        let off = cells.start;
        for i in cells {
            let ob = (i - off) * k;
            for l in 0..k {
                out[ob + l] = kite_average_lane(mesh, kc, k, i, l, vertex_field);
            }
        }
    }

    pub(super) fn pv_vertex<const K: usize>(
        mesh: &Mesh,
        k: usize,
        h: &[f64],
        vorticity: &[f64],
        f_vertex: &[f64],
        out: &mut [f64],
        vertices: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        let off = vertices.start;
        for v in vertices {
            let ob = (v - off) * k;
            for l in 0..k {
                out[ob + l] = pv_vertex_lane(mesh, k, v, l, h, vorticity, f_vertex);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn pv_edge<const K: usize>(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        k: usize,
        apvm_factor: f64,
        dt: f64,
        pv_vertex: &[f64],
        pv_cell: &[f64],
        u: &[f64],
        v: &[f64],
        out: &mut [f64],
        edges: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        let off = edges.start;
        for e in edges {
            let ob = (e - off) * k;
            for l in 0..k {
                out[ob + l] =
                    pv_edge_lane(mesh, kc, k, e, l, apvm_factor, dt, pv_vertex, pv_cell, u, v);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn tend_u<const K: usize>(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        k: usize,
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
        let k = lane_count::<K>(k);
        let off = edges.start;
        for e in edges {
            let ob = (e - off) * k;
            for l in 0..k {
                out[ob + l] = tend_u_lane(mesh, kc, k, e, l, gravity, pv_edge, u, h_edge, ke, h, b);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn tend_u_del2<const K: usize>(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        k: usize,
        nu: f64,
        divergence: &[f64],
        vorticity: &[f64],
        out: &mut [f64],
        edges: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        let off = edges.start;
        for e in edges {
            let ob = (e - off) * k;
            for l in 0..k {
                out[ob + l] += nu * del_core_lane(mesh, kc, k, e, l, divergence, vorticity);
            }
        }
    }

    pub(super) fn lap_u<const K: usize>(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        k: usize,
        divergence: &[f64],
        vorticity: &[f64],
        out: &mut [f64],
        edges: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        let off = edges.start;
        for e in edges {
            let ob = (e - off) * k;
            for l in 0..k {
                out[ob + l] = del_core_lane(mesh, kc, k, e, l, divergence, vorticity);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn tend_u_del4<const K: usize>(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        k: usize,
        nu4: f64,
        div_lap: &[f64],
        vort_lap: &[f64],
        out: &mut [f64],
        edges: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        let off = edges.start;
        for e in edges {
            let ob = (e - off) * k;
            for l in 0..k {
                out[ob + l] -= nu4 * del_core_lane(mesh, kc, k, e, l, div_lap, vort_lap);
            }
        }
    }

    pub(super) fn d2fdx2<const K: usize>(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        k: usize,
        h: &[f64],
        out1: &mut [f64],
        out2: &mut [f64],
        edges: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        let off = edges.start;
        for e in edges {
            let [c1, c2] = mesh.cells_on_edge[e];
            let ob = (e - off) * k;
            for l in 0..k {
                out1[ob + l] = d2fdx2_cell_lane(mesh, kc, k, c1 as usize, l, h);
            }
            for l in 0..k {
                out2[ob + l] = d2fdx2_cell_lane(mesh, kc, k, c2 as usize, l, h);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn h_edge<const K: usize>(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        config: &ModelConfig,
        k: usize,
        h: &[f64],
        d2fdx2_cell1: &[f64],
        d2fdx2_cell2: &[f64],
        out: &mut [f64],
        edges: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        let off = edges.start;
        if config.high_order_h_edge {
            for e in edges {
                let [c1, c2] = mesh.cells_on_edge[e];
                let (c1, c2) = (c1 as usize, c2 as usize);
                let ob = (e - off) * k;
                let eb = e * k;
                for l in 0..k {
                    out[ob + l] = 0.5 * (h[c1 * k + l] + h[c2 * k + l])
                        - kc.dc2_12[e] * 0.5 * (d2fdx2_cell1[eb + l] + d2fdx2_cell2[eb + l]);
                }
            }
        } else {
            for e in edges {
                let [c1, c2] = mesh.cells_on_edge[e];
                let (c1, c2) = (c1 as usize, c2 as usize);
                let ob = (e - off) * k;
                for l in 0..k {
                    out[ob + l] = 0.5 * (h[c1 * k + l] + h[c2 * k + l]);
                }
            }
        }
    }

    /// The lane forms read the mesh CSR; only the AVX2 four-edge sweep
    /// reads the padded table of `_kc`.
    pub(super) fn tangential_velocity<const K: usize>(
        mesh: &Mesh,
        _kc: &KernelCoeffs,
        k: usize,
        u: &[f64],
        out: &mut [f64],
        edges: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        let off = edges.start;
        for e in edges {
            let ob = (e - off) * k;
            for l in 0..k {
                out[ob + l] = tangential_velocity_lane(mesh, k, e, l, u);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn tangential_pv_edge<const K: usize>(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        k: usize,
        apvm_factor: f64,
        dt: f64,
        pv_vertex: &[f64],
        pv_cell: &[f64],
        u: &[f64],
        v_out: &mut [f64],
        pv_edge_out: &mut [f64],
        edges: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        let off = edges.start;
        for e in edges {
            let ob = (e - off) * k;
            for l in 0..k {
                let tv = tangential_velocity_lane(mesh, k, e, l, u);
                v_out[ob + l] = tv;
                pv_edge_out[ob + l] = pv_edge_from_v_lane(
                    mesh,
                    kc,
                    k,
                    e,
                    l,
                    apvm_factor,
                    dt,
                    pv_vertex,
                    pv_cell,
                    u,
                    tv,
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// AVX2 implementations: 4-lane `_mm256` chunks, scalar lane tails via
// the shared lane forms, and four-edge blocks at `K = 1`. No FMA
// anywhere — `mul`/`add`/`sub`/`div` only, so every lane rounds exactly
// like the scalar expression.
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    /// Exact sign flip (`xor` with the sign-bit mask) — matches scalar
    /// unary negation bitwise, unlike `0.0 - x`.
    #[inline(always)]
    unsafe fn neg(x: __m256d) -> __m256d {
        _mm256_xor_pd(x, _mm256_set1_pd(-0.0))
    }

    /// A `__m256d` at any address. Loads and stores through it are one
    /// unaligned `vmovupd` in every build, where `_mm256_loadu_pd` and
    /// `_mm256_storeu_pd` measured twice as slow in the lane loops of
    /// debug-assertion builds (their unaligned copy carries precondition
    /// checks there), which is what the test suite runs.
    #[repr(C, packed)]
    struct Unaligned(__m256d);

    /// `s[idx..idx + 4]` as a vector.
    ///
    /// # Safety
    ///
    /// `idx + 4 <= s.len()` (checked in debug builds only).
    #[inline(always)]
    unsafe fn ld(s: &[f64], idx: usize) -> __m256d {
        debug_assert!(idx + 4 <= s.len());
        (*s.as_ptr().wrapping_add(idx).cast::<Unaligned>()).0
    }

    /// Store `v` to `s[idx..idx + 4]`.
    ///
    /// # Safety
    ///
    /// As for [`ld`].
    #[inline(always)]
    unsafe fn st(s: &mut [f64], idx: usize, v: __m256d) {
        debug_assert!(idx + 4 <= s.len());
        *s.as_mut_ptr().wrapping_add(idx).cast::<Unaligned>() = Unaligned(v);
    }

    // -----------------------------------------------------------------
    // Four edges per vector (`K = 1`): lane `j` of a vector is edge
    // `e0 + j` of an aligned block, and sums its own stencil in seed
    // order. Contiguous loads and stores go through bounds-checked
    // slices; only the TRiSK gathers rely on the table's invariants.
    // -----------------------------------------------------------------

    /// The aligned four-edge blocks of `edges` the `K = 1` sweeps cover
    /// (empty for other lane counts, or when no full block fits): from
    /// the first multiple of 4 at or after the start to the last at or
    /// before the end, within the table's full blocks.
    #[inline(always)]
    fn quads<const K: usize>(kc: &KernelCoeffs, edges: &Range<usize>) -> Range<usize> {
        let lo = edges.start.next_multiple_of(4);
        let hi = edges.end.min(kc.trisk().n_edges()) / 4 * 4;
        if K != 1 || lo >= hi {
            edges.end..edges.end
        } else {
            lo..hi
        }
    }

    /// The edges of `edges` before and after `quads`: the one-edge ends.
    #[inline(always)]
    fn ends(edges: &Range<usize>, quads: &Range<usize>) -> [Range<usize>; 2] {
        [edges.start..quads.start, quads.end..edges.end]
    }

    // The helpers below are `unsafe` only for the intrinsics: callers
    // must run with AVX2 available (as every `avx2` body does). Only
    // `gather` and the `*_quad` sums that call it ask for more.

    /// `s[i..i + 4]` as a vector, bounds-checked in every build.
    #[inline(always)]
    unsafe fn ld4(s: &[f64], i: usize) -> __m256d {
        ld(&s[i..i + 4], 0)
    }

    /// Store `v` to `s[i..i + 4]`, bounds-checked in every build.
    #[inline(always)]
    unsafe fn st4(s: &mut [f64], i: usize, v: __m256d) {
        st(&mut s[i..i + 4], 0, v)
    }

    /// `f` at end `end` of the four endpoint pairs `pairs` (`cells_on_edge`
    /// or `vertices_on_edge` of a block), one bounds-checked load a lane.
    #[inline(always)]
    unsafe fn pick(f: &[f64], pairs: &[[u32; 2]], end: usize) -> __m256d {
        _mm256_setr_pd(
            f[pairs[0][end] as usize],
            f[pairs[1][end] as usize],
            f[pairs[2][end] as usize],
            f[pairs[3][end] as usize],
        )
    }

    /// `f[id]` for the four lanes of `ids` in one hardware gather.
    ///
    /// # Safety
    ///
    /// Every lane of `ids` must be a valid index into `f`.
    #[inline(always)]
    unsafe fn gather(f: &[f64], ids: __m128i) -> __m256d {
        _mm256_i32gather_pd::<8>(f.as_ptr(), ids)
    }

    /// Check, before the first gather of a four-edge sweep, that every
    /// field the TRiSK ids index holds all of the table's edges.
    #[inline(always)]
    fn assert_gatherable(kc: &KernelCoeffs, fields: &[&[f64]]) {
        let ne = kc.trisk().n_edges();
        for f in fields {
            assert!(f.len() >= ne, "edge field of {} < {ne} values", f.len());
        }
    }

    /// Row `s` of TRiSK block `(ids, hw)` for the lanes `own` (each lane's
    /// edge id): the four neighbour ids, their half weights, and the mask
    /// of padded lanes (`id == own`), all-ones where the slot is padding.
    #[inline(always)]
    unsafe fn trisk_row(
        ids: &[i32],
        hw: &[f64],
        s: usize,
        own: __m128i,
    ) -> (__m128i, __m256d, __m256d) {
        let id = _mm_loadu_si128(ids[4 * s..4 * s + 4].as_ptr().cast());
        let pad = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(_mm_cmpeq_epi32(id, own)));
        (id, ld4(hw, 4 * s), pad)
    }

    /// The edge ids `e0..e0 + 4` as `i32` lanes.
    #[inline(always)]
    unsafe fn own_ids(e0: usize) -> __m128i {
        _mm_add_epi32(_mm_set1_epi32(e0 as i32), _mm_setr_epi32(0, 1, 2, 3))
    }

    /// H1 at edges `e0..e0 + 4` (`e0` a multiple of 4 in the table's
    /// full blocks, see `quads`; panics past them): `Σ (½w + ½w)·u[id]`
    /// over each lane's slots. `½w + ½w` is exactly `weights_on_edge`, so
    /// every lane is [`tangential_velocity_lane`] at `k = 1`.
    ///
    /// # Safety
    ///
    /// AVX2 must be available, and `u` must pass [`assert_gatherable`].
    #[inline(always)]
    unsafe fn tangential_quad(kc: &KernelCoeffs, e0: usize, u: &[f64]) -> __m256d {
        let t = kc.trisk();
        let (ids, hw) = t.block(e0 / 4);
        let own = own_ids(e0);
        let mut acc = _mm256_setzero_pd();
        for s in 0..t.slots() {
            let (id, w, pad) = trisk_row(ids, hw, s, own);
            let term = _mm256_mul_pd(_mm256_add_pd(w, w), gather(u, id));
            acc = _mm256_add_pd(acc, _mm256_andnot_pd(pad, term));
        }
        acc
    }

    /// G at edges `e0..e0 + 4` from their tangential velocities `tv`:
    /// [`pv_edge_from_v_lane`] at `k = 1`, lane by lane.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn pv_edge_quad(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        e0: usize,
        adt: __m256d,
        pv_vertex: &[f64],
        pv_cell: &[f64],
        u: &[f64],
        tv: __m256d,
    ) -> __m256d {
        let ve = &mesh.vertices_on_edge[e0..e0 + 4];
        let ce = &mesh.cells_on_edge[e0..e0 + 4];
        let (p1, p2) = (pick(pv_vertex, ve, 0), pick(pv_vertex, ve, 1));
        let base = _mm256_mul_pd(_mm256_set1_pd(0.5), _mm256_add_pd(p1, p2));
        let grad_t = _mm256_mul_pd(_mm256_sub_pd(p2, p1), ld4(&kc.inv_dv, e0));
        let grad_n = _mm256_mul_pd(
            _mm256_sub_pd(pick(pv_cell, ce, 1), pick(pv_cell, ce, 0)),
            ld4(&kc.inv_dc, e0),
        );
        let upwind = _mm256_add_pd(_mm256_mul_pd(ld4(u, e0), grad_n), _mm256_mul_pd(tv, grad_t));
        _mm256_sub_pd(base, _mm256_mul_pd(adt, upwind))
    }

    /// B1 at edges `e0..e0 + 4` (like [`tangential_quad`]):
    /// [`tend_u_lane`] at `k = 1`, lane by lane, the PV flux summed over
    /// the padded TRiSK rows.
    ///
    /// # Safety
    ///
    /// AVX2 must be available, and `u`, `h_edge` and `pv_edge` must pass
    /// [`assert_gatherable`].
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn tend_u_quad(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        e0: usize,
        g: __m256d,
        pv_edge: &[f64],
        u: &[f64],
        h_edge: &[f64],
        ke: &[f64],
        h: &[f64],
        b: &[f64],
    ) -> __m256d {
        let t = kc.trisk();
        let (ids, hw) = t.block(e0 / 4);
        let own = own_ids(e0);
        let pe = ld4(pv_edge, e0);
        let mut q = _mm256_setzero_pd();
        for s in 0..t.slots() {
            let (id, w, pad) = trisk_row(ids, hw, s, own);
            let term = _mm256_mul_pd(
                _mm256_mul_pd(_mm256_mul_pd(w, gather(u, id)), gather(h_edge, id)),
                _mm256_add_pd(pe, gather(pv_edge, id)),
            );
            q = _mm256_add_pd(q, _mm256_andnot_pd(pad, term));
        }
        let ce = &mesh.cells_on_edge[e0..e0 + 4];
        let hb = _mm256_sub_pd(
            _mm256_sub_pd(
                _mm256_add_pd(pick(h, ce, 1), pick(b, ce, 1)),
                pick(h, ce, 0),
            ),
            pick(b, ce, 0),
        );
        let grad = _mm256_mul_pd(
            _mm256_add_pd(
                _mm256_sub_pd(pick(ke, ce, 1), pick(ke, ce, 0)),
                _mm256_mul_pd(g, hb),
            ),
            ld4(&kc.inv_dc, e0),
        );
        _mm256_sub_pd(q, grad)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tend_h<const K: usize>(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        k: usize,
        u: &[f64],
        h_edge: &[f64],
        out: &mut [f64],
        cells: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        let off = cells.start;
        for i in cells {
            let ob = (i - off) * k;
            let area = _mm256_set1_pd(mesh.area_cell[i]);
            let mut l = 0;
            while l + 4 <= k {
                let mut acc = _mm256_setzero_pd();
                for slot in mesh.cell_range(i) {
                    let e = mesh.edges_on_cell[slot] as usize;
                    let c = _mm256_set1_pd(kc.flux_div[slot]);
                    let t =
                        _mm256_mul_pd(_mm256_mul_pd(c, ld(u, e * k + l)), ld(h_edge, e * k + l));
                    acc = _mm256_add_pd(acc, t);
                }
                st(out, ob + l, _mm256_div_pd(neg(acc), area));
                l += 4;
            }
            while l < k {
                out[ob + l] = tend_h_lane(mesh, kc, k, i, l, u, h_edge);
                l += 1;
            }
        }
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn tend_tracer<const K: usize>(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        k: usize,
        u: &[f64],
        h_edge: &[f64],
        h: &[f64],
        hq: &[f64],
        out: &mut [f64],
        cells: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        let off = cells.start;
        for i in cells {
            let ob = (i - off) * k;
            let area = _mm256_set1_pd(mesh.area_cell[i]);
            let mut l = 0;
            while l + 4 <= k {
                let mut acc = _mm256_setzero_pd();
                for slot in mesh.cell_range(i) {
                    let e = mesh.edges_on_cell[slot] as usize;
                    let [c1, c2] = mesh.cells_on_edge[e];
                    let (c1, c2) = (c1 as usize * k + l, c2 as usize * k + l);
                    let q2 = _mm256_add_pd(
                        _mm256_div_pd(ld(hq, c1), ld(h, c1)),
                        _mm256_div_pd(ld(hq, c2), ld(h, c2)),
                    );
                    let c = _mm256_set1_pd(kc.half_flux_div[slot]);
                    let t = _mm256_mul_pd(
                        _mm256_mul_pd(_mm256_mul_pd(c, ld(u, e * k + l)), ld(h_edge, e * k + l)),
                        q2,
                    );
                    acc = _mm256_add_pd(acc, t);
                }
                st(out, ob + l, _mm256_div_pd(neg(acc), area));
                l += 4;
            }
            while l < k {
                out[ob + l] = tend_tracer_lane(mesh, kc, k, i, l, u, h_edge, h, hq);
                l += 1;
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn divergence<const K: usize>(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        k: usize,
        u: &[f64],
        out: &mut [f64],
        cells: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        let off = cells.start;
        for i in cells {
            let ob = (i - off) * k;
            let area = _mm256_set1_pd(mesh.area_cell[i]);
            let mut l = 0;
            while l + 4 <= k {
                let mut acc = _mm256_setzero_pd();
                for slot in mesh.cell_range(i) {
                    let e = mesh.edges_on_cell[slot] as usize;
                    let c = _mm256_set1_pd(kc.flux_div[slot]);
                    acc = _mm256_add_pd(acc, _mm256_mul_pd(c, ld(u, e * k + l)));
                }
                st(out, ob + l, _mm256_div_pd(acc, area));
                l += 4;
            }
            while l < k {
                out[ob + l] = divergence_lane(mesh, kc, k, i, l, u);
                l += 1;
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn ke<const K: usize>(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        k: usize,
        u: &[f64],
        out: &mut [f64],
        cells: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        let off = cells.start;
        for i in cells {
            let ob = (i - off) * k;
            let area = _mm256_set1_pd(mesh.area_cell[i]);
            let mut l = 0;
            while l + 4 <= k {
                let mut acc = _mm256_setzero_pd();
                for slot in mesh.cell_range(i) {
                    let e = mesh.edges_on_cell[slot] as usize;
                    let c = _mm256_set1_pd(kc.ke_weight[slot]);
                    let uv = ld(u, e * k + l);
                    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_mul_pd(c, uv), uv));
                }
                st(out, ob + l, _mm256_div_pd(acc, area));
                l += 4;
            }
            while l < k {
                out[ob + l] = ke_lane(mesh, kc, k, i, l, u);
                l += 1;
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn ke_divergence<const K: usize>(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        k: usize,
        u: &[f64],
        ke_out: &mut [f64],
        div_out: &mut [f64],
        cells: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        let off = cells.start;
        for i in cells {
            let ob = (i - off) * k;
            let area = _mm256_set1_pd(mesh.area_cell[i]);
            let mut l = 0;
            while l + 4 <= k {
                let mut ke = _mm256_setzero_pd();
                let mut div = _mm256_setzero_pd();
                for slot in mesh.cell_range(i) {
                    let e = mesh.edges_on_cell[slot] as usize;
                    let uv = ld(u, e * k + l);
                    let kw = _mm256_set1_pd(kc.ke_weight[slot]);
                    let fd = _mm256_set1_pd(kc.flux_div[slot]);
                    ke = _mm256_add_pd(ke, _mm256_mul_pd(_mm256_mul_pd(kw, uv), uv));
                    div = _mm256_add_pd(div, _mm256_mul_pd(fd, uv));
                }
                st(ke_out, ob + l, _mm256_div_pd(ke, area));
                st(div_out, ob + l, _mm256_div_pd(div, area));
                l += 4;
            }
            while l < k {
                let (ke, div) = ke_divergence_lane(mesh, kc, k, i, l, u);
                ke_out[ob + l] = ke;
                div_out[ob + l] = div;
                l += 1;
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn vorticity<const K: usize>(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        k: usize,
        u: &[f64],
        out: &mut [f64],
        vertices: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        let off = vertices.start;
        for v in vertices {
            let ob = (v - off) * k;
            let area = _mm256_set1_pd(mesh.area_triangle[v]);
            let mut l = 0;
            while l + 4 <= k {
                let mut circ = _mm256_setzero_pd();
                for j in 0..3 {
                    let e = mesh.edges_on_vertex[v][j] as usize;
                    let c = _mm256_set1_pd(kc.vort_sign_dc[v][j]);
                    circ = _mm256_add_pd(circ, _mm256_mul_pd(c, ld(u, e * k + l)));
                }
                st(out, ob + l, _mm256_div_pd(circ, area));
                l += 4;
            }
            while l < k {
                out[ob + l] = vorticity_lane(mesh, kc, k, v, l, u);
                l += 1;
            }
        }
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn vorticity_pv<const K: usize>(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        k: usize,
        u: &[f64],
        h: &[f64],
        f_vertex: &[f64],
        vort_out: &mut [f64],
        pv_out: &mut [f64],
        vertices: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        let off = vertices.start;
        for v in vertices {
            let ob = (v - off) * k;
            let area = _mm256_set1_pd(mesh.area_triangle[v]);
            let fv = _mm256_set1_pd(f_vertex[v]);
            let mut l = 0;
            while l + 4 <= k {
                let mut circ = _mm256_setzero_pd();
                let mut hv = _mm256_setzero_pd();
                for j in 0..3 {
                    let e = mesh.edges_on_vertex[v][j] as usize;
                    let c = mesh.cells_on_vertex[v][j] as usize;
                    let sd = _mm256_set1_pd(kc.vort_sign_dc[v][j]);
                    let w = _mm256_set1_pd(mesh.kite_areas_on_vertex[v][j]);
                    circ = _mm256_add_pd(circ, _mm256_mul_pd(sd, ld(u, e * k + l)));
                    hv = _mm256_add_pd(hv, _mm256_mul_pd(w, ld(h, c * k + l)));
                }
                let z = _mm256_div_pd(circ, area);
                st(vort_out, ob + l, z);
                hv = _mm256_div_pd(hv, area);
                st(pv_out, ob + l, _mm256_div_pd(_mm256_add_pd(fv, z), hv));
                l += 4;
            }
            while l < k {
                let z = vorticity_lane(mesh, kc, k, v, l, u);
                vort_out[ob + l] = z;
                pv_out[ob + l] = pv_from_vort_lane(mesh, k, v, l, h, f_vertex, z);
                l += 1;
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn kite_average<const K: usize>(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        k: usize,
        vertex_field: &[f64],
        out: &mut [f64],
        cells: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        let off = cells.start;
        for i in cells {
            let ob = (i - off) * k;
            let area = _mm256_set1_pd(mesh.area_cell[i]);
            let mut l = 0;
            while l + 4 <= k {
                let mut acc = _mm256_setzero_pd();
                for slot in mesh.cell_range(i) {
                    let v = mesh.vertices_on_cell[slot] as usize;
                    let c = _mm256_set1_pd(kc.kite_cell[slot]);
                    acc = _mm256_add_pd(acc, _mm256_mul_pd(c, ld(vertex_field, v * k + l)));
                }
                st(out, ob + l, _mm256_div_pd(acc, area));
                l += 4;
            }
            while l < k {
                out[ob + l] = kite_average_lane(mesh, kc, k, i, l, vertex_field);
                l += 1;
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn pv_vertex<const K: usize>(
        mesh: &Mesh,
        k: usize,
        h: &[f64],
        vorticity: &[f64],
        f_vertex: &[f64],
        out: &mut [f64],
        vertices: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        let off = vertices.start;
        for v in vertices {
            let ob = (v - off) * k;
            let area = _mm256_set1_pd(mesh.area_triangle[v]);
            let fv = _mm256_set1_pd(f_vertex[v]);
            let mut l = 0;
            while l + 4 <= k {
                let mut hv = _mm256_setzero_pd();
                for j in 0..3 {
                    let c = mesh.cells_on_vertex[v][j] as usize;
                    let w = _mm256_set1_pd(mesh.kite_areas_on_vertex[v][j]);
                    hv = _mm256_add_pd(hv, _mm256_mul_pd(w, ld(h, c * k + l)));
                }
                hv = _mm256_div_pd(hv, area);
                let num = _mm256_add_pd(fv, ld(vorticity, v * k + l));
                st(out, ob + l, _mm256_div_pd(num, hv));
                l += 4;
            }
            while l < k {
                out[ob + l] = pv_vertex_lane(mesh, k, v, l, h, vorticity, f_vertex);
                l += 1;
            }
        }
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn pv_edge<const K: usize>(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        k: usize,
        apvm_factor: f64,
        dt: f64,
        pv_vertex: &[f64],
        pv_cell: &[f64],
        u: &[f64],
        v: &[f64],
        out: &mut [f64],
        edges: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        let off = edges.start;
        let half = _mm256_set1_pd(0.5);
        let adt = _mm256_set1_pd(apvm_factor * dt);
        let quads = quads::<K>(kc, &edges);
        for e in ends(&edges, &quads).into_iter().flatten() {
            let [v1, v2] = mesh.vertices_on_edge[e];
            let [c1, c2] = mesh.cells_on_edge[e];
            let (v1b, v2b) = (v1 as usize * k, v2 as usize * k);
            let (c1b, c2b) = (c1 as usize * k, c2 as usize * k);
            let ob = (e - off) * k;
            let idv = _mm256_set1_pd(kc.inv_dv[e]);
            let idc = _mm256_set1_pd(kc.inv_dc[e]);
            let mut l = 0;
            while l + 4 <= k {
                let p1 = ld(pv_vertex, v1b + l);
                let p2 = ld(pv_vertex, v2b + l);
                let base = _mm256_mul_pd(half, _mm256_add_pd(p1, p2));
                let grad_t = _mm256_mul_pd(_mm256_sub_pd(p2, p1), idv);
                let grad_n = _mm256_mul_pd(
                    _mm256_sub_pd(ld(pv_cell, c2b + l), ld(pv_cell, c1b + l)),
                    idc,
                );
                let upwind = _mm256_add_pd(
                    _mm256_mul_pd(ld(u, e * k + l), grad_n),
                    _mm256_mul_pd(ld(v, e * k + l), grad_t),
                );
                st(out, ob + l, _mm256_sub_pd(base, _mm256_mul_pd(adt, upwind)));
                l += 4;
            }
            while l < k {
                out[ob + l] =
                    pv_edge_lane(mesh, kc, k, e, l, apvm_factor, dt, pv_vertex, pv_cell, u, v);
                l += 1;
            }
        }
        for e0 in quads.step_by(4) {
            let pe = pv_edge_quad(mesh, kc, e0, adt, pv_vertex, pv_cell, u, ld4(v, e0));
            st4(out, e0 - off, pe);
        }
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn tend_u<const K: usize>(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        k: usize,
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
        let k = lane_count::<K>(k);
        let off = edges.start;
        let g = _mm256_set1_pd(gravity);
        let quads = quads::<K>(kc, &edges);
        for e in ends(&edges, &quads).into_iter().flatten() {
            let [c1, c2] = mesh.cells_on_edge[e];
            let (c1, c2) = (c1 as usize, c2 as usize);
            let ob = (e - off) * k;
            let idc = _mm256_set1_pd(kc.inv_dc[e]);
            let b1 = _mm256_set1_pd(b[c1]);
            let b2 = _mm256_set1_pd(b[c2]);
            let mut l = 0;
            while l + 4 <= k {
                let pe = ld(pv_edge, e * k + l);
                let mut q = _mm256_setzero_pd();
                for slot in mesh.eoe_range(e) {
                    let eoe = mesh.edges_on_edge[slot] as usize;
                    let w = _mm256_set1_pd(0.5 * mesh.weights_on_edge[slot]);
                    let t = _mm256_mul_pd(
                        _mm256_mul_pd(
                            _mm256_mul_pd(w, ld(u, eoe * k + l)),
                            ld(h_edge, eoe * k + l),
                        ),
                        _mm256_add_pd(pe, ld(pv_edge, eoe * k + l)),
                    );
                    q = _mm256_add_pd(q, t);
                }
                // (ke2 − ke1 + g·(h2 + b2 − h1 − b1)) · 1/dc, replaying
                // the scalar association term by term.
                let hb = _mm256_sub_pd(
                    _mm256_sub_pd(_mm256_add_pd(ld(h, c2 * k + l), b2), ld(h, c1 * k + l)),
                    b1,
                );
                let grad = _mm256_mul_pd(
                    _mm256_add_pd(
                        _mm256_sub_pd(ld(ke, c2 * k + l), ld(ke, c1 * k + l)),
                        _mm256_mul_pd(g, hb),
                    ),
                    idc,
                );
                st(out, ob + l, _mm256_sub_pd(q, grad));
                l += 4;
            }
            while l < k {
                out[ob + l] = tend_u_lane(mesh, kc, k, e, l, gravity, pv_edge, u, h_edge, ke, h, b);
                l += 1;
            }
        }
        if !quads.is_empty() {
            assert_gatherable(kc, &[u, h_edge, pv_edge]);
        }
        for e0 in quads.step_by(4) {
            // SAFETY: AVX2 is enabled here and the gathered fields were
            // checked above; `e0` walks the table's full blocks (`quads`).
            let t = tend_u_quad(mesh, kc, e0, g, pv_edge, u, h_edge, ke, h, b);
            st4(out, e0 - off, t);
        }
    }

    /// Vector `d − z` core of the C1 family at lanes `l..l+4` of edge `e`.
    #[inline(always)]
    unsafe fn del_core(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        k: usize,
        e: usize,
        l: usize,
        div: &[f64],
        vort: &[f64],
    ) -> __m256d {
        let [c1, c2] = mesh.cells_on_edge[e];
        let [v1, v2] = mesh.vertices_on_edge[e];
        let d = _mm256_mul_pd(
            _mm256_sub_pd(ld(div, c2 as usize * k + l), ld(div, c1 as usize * k + l)),
            _mm256_set1_pd(kc.inv_dc[e]),
        );
        let z = _mm256_mul_pd(
            _mm256_sub_pd(ld(vort, v2 as usize * k + l), ld(vort, v1 as usize * k + l)),
            _mm256_set1_pd(kc.inv_dv[e]),
        );
        _mm256_sub_pd(d, z)
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn tend_u_del2<const K: usize>(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        k: usize,
        nu: f64,
        divergence: &[f64],
        vorticity: &[f64],
        out: &mut [f64],
        edges: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        let off = edges.start;
        let nuv = _mm256_set1_pd(nu);
        for e in edges {
            let ob = (e - off) * k;
            let mut l = 0;
            while l + 4 <= k {
                let core = del_core(mesh, kc, k, e, l, divergence, vorticity);
                let cur = ld(out, ob + l);
                st(out, ob + l, _mm256_add_pd(cur, _mm256_mul_pd(nuv, core)));
                l += 4;
            }
            while l < k {
                out[ob + l] += nu * del_core_lane(mesh, kc, k, e, l, divergence, vorticity);
                l += 1;
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn lap_u<const K: usize>(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        k: usize,
        divergence: &[f64],
        vorticity: &[f64],
        out: &mut [f64],
        edges: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        let off = edges.start;
        for e in edges {
            let ob = (e - off) * k;
            let mut l = 0;
            while l + 4 <= k {
                let core = del_core(mesh, kc, k, e, l, divergence, vorticity);
                st(out, ob + l, core);
                l += 4;
            }
            while l < k {
                out[ob + l] = del_core_lane(mesh, kc, k, e, l, divergence, vorticity);
                l += 1;
            }
        }
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn tend_u_del4<const K: usize>(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        k: usize,
        nu4: f64,
        div_lap: &[f64],
        vort_lap: &[f64],
        out: &mut [f64],
        edges: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        let off = edges.start;
        let nuv = _mm256_set1_pd(nu4);
        for e in edges {
            let ob = (e - off) * k;
            let mut l = 0;
            while l + 4 <= k {
                let core = del_core(mesh, kc, k, e, l, div_lap, vort_lap);
                let cur = ld(out, ob + l);
                st(out, ob + l, _mm256_sub_pd(cur, _mm256_mul_pd(nuv, core)));
                l += 4;
            }
            while l < k {
                out[ob + l] -= nu4 * del_core_lane(mesh, kc, k, e, l, div_lap, vort_lap);
                l += 1;
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn d2fdx2<const K: usize>(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        k: usize,
        h: &[f64],
        out1: &mut [f64],
        out2: &mut [f64],
        edges: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        #[inline(always)]
        unsafe fn lap(
            mesh: &Mesh,
            kc: &KernelCoeffs,
            k: usize,
            c: usize,
            l: usize,
            h: &[f64],
        ) -> __m256d {
            let mut acc = _mm256_setzero_pd();
            let hc = ld(h, c * k + l);
            for slot in mesh.cell_range(c) {
                let nb = mesh.cells_on_cell[slot] as usize;
                let g = _mm256_set1_pd(kc.grad_ratio[slot]);
                acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_sub_pd(ld(h, nb * k + l), hc), g));
            }
            _mm256_div_pd(acc, _mm256_set1_pd(mesh.area_cell[c]))
        }
        let off = edges.start;
        for e in edges {
            let [c1, c2] = mesh.cells_on_edge[e];
            let ob = (e - off) * k;
            let mut l = 0;
            while l + 4 <= k {
                st(out1, ob + l, lap(mesh, kc, k, c1 as usize, l, h));
                st(out2, ob + l, lap(mesh, kc, k, c2 as usize, l, h));
                l += 4;
            }
            while l < k {
                out1[ob + l] = d2fdx2_cell_lane(mesh, kc, k, c1 as usize, l, h);
                out2[ob + l] = d2fdx2_cell_lane(mesh, kc, k, c2 as usize, l, h);
                l += 1;
            }
        }
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn h_edge<const K: usize>(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        config: &ModelConfig,
        k: usize,
        h: &[f64],
        d2fdx2_cell1: &[f64],
        d2fdx2_cell2: &[f64],
        out: &mut [f64],
        edges: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        let off = edges.start;
        let half = _mm256_set1_pd(0.5);
        if config.high_order_h_edge {
            for e in edges {
                let [c1, c2] = mesh.cells_on_edge[e];
                let (c1b, c2b) = (c1 as usize * k, c2 as usize * k);
                let ob = (e - off) * k;
                let eb = e * k;
                let blend = _mm256_set1_pd(kc.dc2_12[e] * 0.5);
                let mut l = 0;
                while l + 4 <= k {
                    let avg = _mm256_mul_pd(half, _mm256_add_pd(ld(h, c1b + l), ld(h, c2b + l)));
                    let d2 = _mm256_add_pd(ld(d2fdx2_cell1, eb + l), ld(d2fdx2_cell2, eb + l));
                    st(out, ob + l, _mm256_sub_pd(avg, _mm256_mul_pd(blend, d2)));
                    l += 4;
                }
                while l < k {
                    out[ob + l] = 0.5 * (h[c1b + l] + h[c2b + l])
                        - kc.dc2_12[e] * 0.5 * (d2fdx2_cell1[eb + l] + d2fdx2_cell2[eb + l]);
                    l += 1;
                }
            }
        } else {
            for e in edges {
                let [c1, c2] = mesh.cells_on_edge[e];
                let (c1b, c2b) = (c1 as usize * k, c2 as usize * k);
                let ob = (e - off) * k;
                let mut l = 0;
                while l + 4 <= k {
                    let avg = _mm256_mul_pd(half, _mm256_add_pd(ld(h, c1b + l), ld(h, c2b + l)));
                    st(out, ob + l, avg);
                    l += 4;
                }
                while l < k {
                    out[ob + l] = 0.5 * (h[c1b + l] + h[c2b + l]);
                    l += 1;
                }
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tangential_velocity<const K: usize>(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        k: usize,
        u: &[f64],
        out: &mut [f64],
        edges: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        let off = edges.start;
        let quads = quads::<K>(kc, &edges);
        for e in ends(&edges, &quads).into_iter().flatten() {
            let ob = (e - off) * k;
            let mut l = 0;
            while l + 4 <= k {
                let mut acc = _mm256_setzero_pd();
                for slot in mesh.eoe_range(e) {
                    let eoe = mesh.edges_on_edge[slot] as usize;
                    let w = _mm256_set1_pd(mesh.weights_on_edge[slot]);
                    acc = _mm256_add_pd(acc, _mm256_mul_pd(w, ld(u, eoe * k + l)));
                }
                st(out, ob + l, acc);
                l += 4;
            }
            while l < k {
                out[ob + l] = tangential_velocity_lane(mesh, k, e, l, u);
                l += 1;
            }
        }
        if !quads.is_empty() {
            assert_gatherable(kc, &[u]);
        }
        for e0 in quads.step_by(4) {
            // SAFETY: AVX2 is enabled here and `u` was checked above; `e0`
            // walks the table's full blocks (`quads`).
            st4(out, e0 - off, tangential_quad(kc, e0, u));
        }
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn tangential_pv_edge<const K: usize>(
        mesh: &Mesh,
        kc: &KernelCoeffs,
        k: usize,
        apvm_factor: f64,
        dt: f64,
        pv_vertex: &[f64],
        pv_cell: &[f64],
        u: &[f64],
        v_out: &mut [f64],
        pv_edge_out: &mut [f64],
        edges: Range<usize>,
    ) {
        let k = lane_count::<K>(k);
        let off = edges.start;
        let half = _mm256_set1_pd(0.5);
        let adt = _mm256_set1_pd(apvm_factor * dt);
        let quads = quads::<K>(kc, &edges);
        for e in ends(&edges, &quads).into_iter().flatten() {
            let [v1, v2] = mesh.vertices_on_edge[e];
            let [c1, c2] = mesh.cells_on_edge[e];
            let (v1b, v2b) = (v1 as usize * k, v2 as usize * k);
            let (c1b, c2b) = (c1 as usize * k, c2 as usize * k);
            let ob = (e - off) * k;
            let idv = _mm256_set1_pd(kc.inv_dv[e]);
            let idc = _mm256_set1_pd(kc.inv_dc[e]);
            let mut l = 0;
            while l + 4 <= k {
                let mut tv = _mm256_setzero_pd();
                for slot in mesh.eoe_range(e) {
                    let eoe = mesh.edges_on_edge[slot] as usize;
                    let w = _mm256_set1_pd(mesh.weights_on_edge[slot]);
                    tv = _mm256_add_pd(tv, _mm256_mul_pd(w, ld(u, eoe * k + l)));
                }
                st(v_out, ob + l, tv);
                let p1 = ld(pv_vertex, v1b + l);
                let p2 = ld(pv_vertex, v2b + l);
                let base = _mm256_mul_pd(half, _mm256_add_pd(p1, p2));
                let grad_t = _mm256_mul_pd(_mm256_sub_pd(p2, p1), idv);
                let grad_n = _mm256_mul_pd(
                    _mm256_sub_pd(ld(pv_cell, c2b + l), ld(pv_cell, c1b + l)),
                    idc,
                );
                let upwind = _mm256_add_pd(
                    _mm256_mul_pd(ld(u, e * k + l), grad_n),
                    _mm256_mul_pd(tv, grad_t),
                );
                st(
                    pv_edge_out,
                    ob + l,
                    _mm256_sub_pd(base, _mm256_mul_pd(adt, upwind)),
                );
                l += 4;
            }
            while l < k {
                let tv = tangential_velocity_lane(mesh, k, e, l, u);
                v_out[ob + l] = tv;
                pv_edge_out[ob + l] = pv_edge_from_v_lane(
                    mesh,
                    kc,
                    k,
                    e,
                    l,
                    apvm_factor,
                    dt,
                    pv_vertex,
                    pv_cell,
                    u,
                    tv,
                );
                l += 1;
            }
        }
        if !quads.is_empty() {
            assert_gatherable(kc, &[u]);
        }
        for e0 in quads.step_by(4) {
            // SAFETY: AVX2 is enabled here and `u` was checked above; `e0`
            // walks the table's full blocks (`quads`).
            let tv = tangential_quad(kc, e0, u);
            st4(v_out, e0 - off, tv);
            let pe = pv_edge_quad(mesh, kc, e0, adt, pv_vertex, pv_cell, u, tv);
            st4(pv_edge_out, e0 - off, pe);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::ops;
    use mpas_telemetry::digest::Fnv1a;

    fn digest(x: &[f64]) -> u64 {
        let mut d = Fnv1a::new();
        d.write_f64_slice(x);
        d.finish()
    }

    fn setup(k: usize) -> (Mesh, KernelCoeffs, Vec<f64>, Vec<f64>) {
        let mesh = mpas_mesh::generate(3, 0);
        let config = ModelConfig {
            n_tracers: 1,
            high_order_h_edge: true,
            ..Default::default()
        };
        let kc = KernelCoeffs::build(&mesh, &config);
        let u: Vec<f64> = (0..mesh.n_edges() * k)
            .map(|x| (x as f64 * 0.37).sin())
            .collect();
        let h_edge: Vec<f64> = (0..mesh.n_edges() * k)
            .map(|x| 1000.0 + (x as f64 * 0.11).cos())
            .collect();
        (mesh, kc, u, h_edge)
    }

    #[test]
    fn k1_matches_fused_bitwise() {
        // At one layer the layered arrays ARE flat arrays, so the simd
        // tier must reproduce the retired fused tier bit for bit in both
        // modes: the digests below were recorded from that tier's A1 and
        // A2 kernels on this exact input.
        const FUSED_TEND_H: u64 = 0xdfdd30bc68500b3b;
        const FUSED_KE: u64 = 0xcab49ebce3db69d7;
        let (mesh, kc, u, he) = setup(1);
        let nc = mesh.n_cells();
        for mode in [SimdMode::Batch, SimdMode::Avx2] {
            let mut got = vec![0.0; nc];
            tend_h_with(mode, &mesh, &kc, 1, &u, &he, &mut got, 0..nc);
            assert_eq!(digest(&got), FUSED_TEND_H, "tend_h mode {mode:?}");
            let mut got_ke = vec![0.0; nc];
            ke_with(mode, &mesh, &kc, 1, &u, &mut got_ke, 0..nc);
            assert_eq!(digest(&got_ke), FUSED_KE, "ke mode {mode:?}");
        }
    }

    #[test]
    fn exact_fusions_are_bit_identical() {
        // C2, A3 and F fold only sign flips and hoisted gathers into their
        // coefficients, so at one layer they agree with the seed ops bit
        // for bit.
        let (mesh, kc, u, _) = setup(1);
        let (nv, nc) = (mesh.n_vertices(), mesh.n_cells());
        let mut seed_v = vec![0.0; nv];
        let mut simd_v = vec![0.0; nv];
        ops::vorticity(&mesh, &u, &mut seed_v, 0..nv);
        vorticity(&mesh, &kc, 1, &u, &mut simd_v, 0..nv);
        assert_eq!(seed_v, simd_v);

        let mut seed_c = vec![0.0; nc];
        let mut simd_c = vec![0.0; nc];
        ops::vorticity_cell(&mesh, &seed_v, &mut seed_c, 0..nc);
        kite_average(&mesh, &kc, 1, &seed_v, &mut simd_c, 0..nc);
        assert_eq!(seed_c, simd_c);

        ops::pv_cell(&mesh, &seed_v, &mut seed_c, 0..nc);
        kite_average(&mesh, &kc, 1, &seed_v, &mut simd_c, 0..nc);
        assert_eq!(seed_c, simd_c);
    }

    #[test]
    fn reassociated_fusions_stay_within_drift_budget() {
        let (mesh, kc, u, h_edge) = setup(1);
        let nc = mesh.n_cells();
        let mut seed = vec![0.0; nc];
        let mut simd = vec![0.0; nc];
        ops::tend_h(&mesh, &u, &h_edge, &mut seed, 0..nc);
        tend_h(&mesh, &kc, 1, &u, &h_edge, &mut simd, 0..nc);
        for i in 0..nc {
            let scale = seed[i].abs().max(1e-30);
            assert!(
                ((seed[i] - simd[i]) / scale).abs() < 1e-12,
                "cell {i}: {} vs {}",
                seed[i],
                simd[i]
            );
        }
    }

    #[test]
    fn fused_range_splitting_is_exact() {
        // The range convention survives the coefficient folding: two
        // chunks equal the full range bit for bit.
        let (mesh, kc, u, _) = setup(1);
        let nc = mesh.n_cells();
        let mut full = vec![0.0; nc];
        ke(&mesh, &kc, 1, &u, &mut full, 0..nc);
        let mut split = vec![0.0; nc];
        let mid = nc / 2;
        let (lo, hi) = split.split_at_mut(mid);
        ke(&mesh, &kc, 1, &u, lo, 0..mid);
        ke(&mesh, &kc, 1, &u, hi, mid..nc);
        assert_eq!(full, split);
    }

    #[test]
    fn avx2_matches_batch_bitwise_across_k() {
        // The no-FMA AVX2 chunks must agree with the scalar-batch lanes
        // exactly, including the ragged tail (k = 7 exercises 4 + 3).
        for k in [1usize, 4, 7] {
            let (mesh, kc, u, he) = setup(k);
            let nc = mesh.n_cells();
            let ne = mesh.n_edges();
            let mut a = vec![0.0; nc * k];
            let mut b = vec![0.0; nc * k];
            tend_h_with(SimdMode::Batch, &mesh, &kc, k, &u, &he, &mut a, 0..nc);
            tend_h_with(SimdMode::Avx2, &mesh, &kc, k, &u, &he, &mut b, 0..nc);
            assert_eq!(a, b, "tend_h k={k}");
            let mut ta = vec![0.0; ne * k];
            let mut tb = vec![0.0; ne * k];
            tangential_velocity_with(SimdMode::Batch, &mesh, &kc, k, &u, &mut ta, 0..ne);
            tangential_velocity_with(SimdMode::Avx2, &mesh, &kc, k, &u, &mut tb, 0..ne);
            assert_eq!(ta, tb, "tangential k={k}");
        }
    }

    #[test]
    fn per_lane_matches_fused_per_layer() {
        // Extract one lane of a k=4 layered run; it must equal a flat
        // (k = 1) run over that layer's fields bitwise — the k = 1 bits
        // being the fused tier's, pinned by `k1_matches_fused_bitwise`.
        let k = 4;
        let (mesh, kc, u, he) = setup(k);
        let nc = mesh.n_cells();
        let mut layered = vec![0.0; nc * k];
        tend_h(&mesh, &kc, k, &u, &he, &mut layered, 0..nc);
        for l in 0..k {
            let ul: Vec<f64> = (0..mesh.n_edges()).map(|e| u[e * k + l]).collect();
            let hel: Vec<f64> = (0..mesh.n_edges()).map(|e| he[e * k + l]).collect();
            let mut flat = vec![0.0; nc];
            tend_h(&mesh, &kc, 1, &ul, &hel, &mut flat, 0..nc);
            for i in 0..nc {
                assert_eq!(layered[i * k + l], flat[i], "lane {l} cell {i}");
            }
        }
    }

    #[test]
    fn fused_sweeps_match_their_unfused_pairs_bitwise() {
        // The A2+B2, C2+E and H1+G fused sweeps must store exactly the
        // bits of the standalone kernels, in both modes, tails included.
        for k in [1usize, 4, 7] {
            let (mesh, kc, u, he) = setup(k);
            let nc = mesh.n_cells();
            let ne = mesh.n_edges();
            let nv = mesh.n_vertices();
            let h: Vec<f64> = he[..nc * k].to_vec();
            let f_vertex: Vec<f64> = (0..nv).map(|v| 1e-4 + v as f64 * 1e-9).collect();

            let mut want_ke = vec![0.0; nc * k];
            let mut want_div = vec![0.0; nc * k];
            ke(&mesh, &kc, k, &u, &mut want_ke, 0..nc);
            divergence(&mesh, &kc, k, &u, &mut want_div, 0..nc);
            let mut want_vort = vec![0.0; nv * k];
            vorticity(&mesh, &kc, k, &u, &mut want_vort, 0..nv);
            let mut want_pv = vec![0.0; nv * k];
            pv_vertex(&mesh, k, &h, &want_vort, &f_vertex, &mut want_pv, 0..nv);
            let mut want_pvc = vec![0.0; nc * k];
            kite_average(&mesh, &kc, k, &want_pv, &mut want_pvc, 0..nc);
            let mut want_v = vec![0.0; ne * k];
            tangential_velocity(&mesh, &kc, k, &u, &mut want_v, 0..ne);
            let mut want_pve = vec![0.0; ne * k];
            pv_edge(
                &mesh,
                &kc,
                k,
                0.5,
                100.0,
                &want_pv,
                &want_pvc,
                &u,
                &want_v,
                &mut want_pve,
                0..ne,
            );

            for mode in [SimdMode::Batch, SimdMode::Avx2] {
                let mut got_ke = vec![0.0; nc * k];
                let mut got_div = vec![0.0; nc * k];
                ke_divergence_with(mode, &mesh, &kc, k, &u, &mut got_ke, &mut got_div, 0..nc);
                assert_eq!(want_ke, got_ke, "ke k={k} {mode:?}");
                assert_eq!(want_div, got_div, "divergence k={k} {mode:?}");

                let mut got_vort = vec![0.0; nv * k];
                let mut got_pv = vec![0.0; nv * k];
                vorticity_pv_with(
                    mode,
                    &mesh,
                    &kc,
                    k,
                    &u,
                    &h,
                    &f_vertex,
                    &mut got_vort,
                    &mut got_pv,
                    0..nv,
                );
                assert_eq!(want_vort, got_vort, "vorticity k={k} {mode:?}");
                assert_eq!(want_pv, got_pv, "pv_vertex k={k} {mode:?}");

                let mut got_v = vec![0.0; ne * k];
                let mut got_pve = vec![0.0; ne * k];
                tangential_pv_edge_with(
                    mode,
                    &mesh,
                    &kc,
                    k,
                    0.5,
                    100.0,
                    &want_pv,
                    &want_pvc,
                    &u,
                    &mut got_v,
                    &mut got_pve,
                    0..ne,
                );
                assert_eq!(want_v, got_v, "tangential k={k} {mode:?}");
                assert_eq!(want_pve, got_pve, "pv_edge k={k} {mode:?}");
            }
        }
    }

    #[test]
    fn four_edge_blocks_match_batch_on_every_alignment() {
        // At one layer the AVX2 forms of B1, H1, H1+G and G run aligned
        // blocks of four edges and the K = 1 body at both ends. Every start
        // in 0..8 and length in 0..=13, and the full range, must store the
        // batch bits; the level-3 mesh's pentagon-adjacent edges have fewer
        // slots than the widest stencil, so the full range masks padding.
        let (mesh, kc, u, he) = setup(1);
        let (nc, ne, nv) = (mesh.n_cells(), mesh.n_edges(), mesh.n_vertices());
        let slots = |e: usize| mesh.eoe_range(e).len();
        assert!((0..ne).any(|e| slots(e) < kc.trisk().slots()));
        let field =
            |n: usize, f: f64| -> Vec<f64> { (0..n).map(|x| (x as f64 * f).sin()).collect() };
        let (pv_e, ke, b) = (field(ne, 0.13), field(nc, 0.41), field(nc, 0.07));
        let (pv_v, pv_c) = (field(nv, 0.19), field(nc, 0.23));
        let h: Vec<f64> = field(nc, 0.31).iter().map(|x| 1000.0 + x).collect();
        let run = |mode: SimdMode, r: Range<usize>| -> [Vec<f64>; 5] {
            let n = r.len();
            let mut tu = vec![0.0; n];
            tend_u_with(
                mode,
                &mesh,
                &kc,
                1,
                9.8,
                &pv_e,
                &u,
                &he,
                &ke,
                &h,
                &b,
                &mut tu,
                r.clone(),
            );
            let mut tv = vec![0.0; n];
            tangential_velocity_with(mode, &mesh, &kc, 1, &u, &mut tv, r.clone());
            let mut pe = vec![0.0; n];
            pv_edge_with(
                mode,
                &mesh,
                &kc,
                1,
                0.5,
                100.0,
                &pv_v,
                &pv_c,
                &u,
                &pv_e,
                &mut pe,
                r.clone(),
            );
            let (mut fv, mut fpe) = (vec![0.0; n], vec![0.0; n]);
            tangential_pv_edge_with(
                mode, &mesh, &kc, 1, 0.5, 100.0, &pv_v, &pv_c, &u, &mut fv, &mut fpe, r,
            );
            [tu, tv, pe, fv, fpe]
        };
        let names = [
            "tend_u",
            "tangential_velocity",
            "pv_edge",
            "fused v",
            "fused pv_edge",
        ];
        let full = run(SimdMode::Batch, 0..ne);
        let ranges = (0..8).flat_map(|s| (0..=13).map(move |n| s..s + n));
        for r in ranges.chain(std::iter::once(0..ne)) {
            let want = run(SimdMode::Batch, r.clone());
            let got = run(SimdMode::Avx2, r.clone());
            for ((name, w), (g, f)) in names.iter().zip(&want).zip(got.iter().zip(&full)) {
                assert_eq!(w, g, "{name} on {r:?}");
                assert_eq!(w[..], f[r.clone()], "{name} on {r:?} vs the full range");
            }
        }
    }

    #[test]
    fn axpy_accumulate_matches_separate_passes() {
        let n = 257;
        let base: Vec<f64> = (0..n).map(|x| (x as f64 * 0.7).sin()).collect();
        let tend: Vec<f64> = (0..n).map(|x| (x as f64 * 0.3).cos()).collect();
        let (coef, weight) = (0.5 * 91.0, 91.0 / 6.0);
        let mut want_out = vec![0.0; n];
        let mut want_acc: Vec<f64> = base.iter().map(|b| b * 1.25).collect();
        axpy(1, &base, &tend, coef, &mut want_out, 0..n);
        accumulate(1, &tend, weight, &mut want_acc, 0..n);
        let mut got_out = vec![0.0; n];
        let mut got_acc: Vec<f64> = base.iter().map(|b| b * 1.25).collect();
        axpy_accumulate(
            1,
            &base,
            &tend,
            coef,
            weight,
            &mut got_out,
            &mut got_acc,
            0..n,
        );
        assert_eq!(want_out, got_out);
        assert_eq!(want_acc, got_acc);
    }

    #[test]
    fn block_ranges_tile_exactly() {
        for (n, b) in [(10, 3), (10, 1), (10, 10), (10, 100), (0, 4), (7, 7)] {
            let mut seen = vec![0usize; n];
            let mut last_end = 0;
            for r in block_ranges(n, b) {
                assert_eq!(r.start, last_end, "blocks must be consecutive");
                last_end = r.end;
                for i in r {
                    seen[i] += 1;
                }
            }
            assert_eq!(last_end, n);
            assert!(seen.iter().all(|&c| c == 1), "n={n} b={b}: {seen:?}");
        }
    }

    #[test]
    fn blocked_sweep_is_bitwise_identical() {
        let k = 4;
        let (mesh, kc, u, he) = setup(k);
        let nc = mesh.n_cells();
        let mut full = vec![0.0; nc * k];
        tend_h(&mesh, &kc, k, &u, &he, &mut full, 0..nc);
        for block in [1usize, 5, 64, nc, nc + 13] {
            let mut tiled = vec![0.0; nc * k];
            for r in block_ranges(nc, block) {
                let (s, e) = (r.start, r.end);
                tend_h(&mesh, &kc, k, &u, &he, &mut tiled[s * k..e * k], r);
            }
            assert_eq!(full, tiled, "block={block}");
        }
    }

    #[test]
    fn default_cell_block_is_sane() {
        assert!(default_cell_block(1, 4) >= 64);
        assert!(default_cell_block(4, 8) >= 64);
        assert!(default_cell_block(1000, 1000) >= 64);
        assert!(default_cell_block(1, 1) <= 1 << 20);
    }
}
