//! Multi-layer state and the vertical-batching SIMD driver (DESIGN.md §14).
//!
//! [`LayeredState`] generalizes [`State`] to `k` independent vertical
//! layers stored structure-of-arrays with **layer-major contiguous lanes
//! per entity**: `h[cell * k + lane]`, `u[edge * k + lane]`. One gathered
//! stencil index then feeds all `k` lanes — exactly the amortization the
//! [`crate::kernels::simd`] tier exploits — and extracting lane `l` with a
//! stride-`k` copy recovers a flat [`State`].
//!
//! The layers are `k` *independent* shallow-water instances sharing one
//! mesh, topography, Coriolis field and `dt`. Layer 0 carries the
//! unperturbed test case (validation applies to it unchanged); layer
//! `l > 0` starts from the same state with `h` and the tracer masses
//! scaled by [`layer_h_scale`], so the lanes decorrelate without changing
//! any per-lane arithmetic. Because every simd kernel evaluates the flat
//! coefficient-table expression per lane, **layer 0 of a `k`-layer run is
//! bitwise identical to a single-layer run**, and layer `l` is bitwise
//! identical to a flat run started from the scaled state — properties the equivalence
//! suite asserts with `==`, not tolerances.
//!
//! [`LayeredModel`] mirrors the RK-4 driver of [`crate::rk4`] stage for
//! stage (same substep factors, same quadrature weights, same kernel call
//! order, same forcing and boundary hooks) with every sweep cache-blocked
//! through [`crate::kernels::simd::block_ranges`]: with the SFC mesh
//! ordering, consecutive index blocks tile the space-filling curve, so a
//! block's gathered neighborhoods stay L2-resident across the kernels of
//! a substep. Cell-center velocity reconstruction is a single-layer
//! diagnostic product and is not computed per layer.

use crate::coeffs::KernelCoeffs;
use crate::config::ModelConfig;
use crate::initial::InitialFields;
use crate::kernels::{runs_vorticity_cell, simd};
use crate::norms::ErrorNorms;
use crate::rk4::{RK_SUBSTEP, RK_WEIGHTS};
use crate::state::{Diagnostics, State};
use crate::testcases::TestCase;
use mpas_mesh::Mesh;
use mpas_patterns::dataflow::RkPhase;
use mpas_telemetry::digest::Fnv1a;
use mpas_telemetry::Recorder;
use std::sync::Arc;

/// Thickness/tracer scale factor of layer `l`: layer 0 is the unperturbed
/// test case, deeper layers are progressively (and deterministically)
/// perturbed so the lanes carry distinct data.
pub fn layer_h_scale(l: usize) -> f64 {
    1.0 + 1e-3 * l as f64
}

/// Copy lane `l` of a layered field into a flat one.
fn take_lane(src: &[f64], k: usize, l: usize, dst: &mut [f64]) {
    for (i, d) in dst.iter_mut().enumerate() {
        *d = src[i * k + l];
    }
}

/// Prognostic fields of `k` vertical layers, lanes contiguous per entity.
#[derive(Debug, Clone, PartialEq)]
pub struct LayeredState {
    /// Number of vertical layers (lanes per entity).
    pub n_layers: usize,
    /// Fluid thickness, `n_cells · k`, indexed `cell * k + lane`.
    pub h: Vec<f64>,
    /// Normal velocity, `n_edges · k`, indexed `edge * k + lane`.
    pub u: Vec<f64>,
    /// Tracer mass `h·q`, one `n_cells · k` vector per tracer.
    pub tracers: Vec<Vec<f64>>,
}

impl LayeredState {
    /// Zero-initialized layered state.
    pub fn zeros(mesh: &Mesh, k: usize, n_tracers: usize) -> Self {
        LayeredState {
            n_layers: k,
            h: vec![0.0; mesh.n_cells() * k],
            u: vec![0.0; mesh.n_edges() * k],
            tracers: vec![vec![0.0; mesh.n_cells() * k]; n_tracers],
        }
    }

    /// Broadcast a flat state across `k` layers, scaling `h` and the
    /// tracer masses of layer `l` by [`layer_h_scale`]`(l)` (velocity is
    /// shared unscaled). Layer 0 reproduces `flat` exactly.
    pub fn broadcast(mesh: &Mesh, flat: &State, k: usize) -> Self {
        let mut s = Self::zeros(mesh, k, flat.n_tracers());
        for i in 0..mesh.n_cells() {
            for l in 0..k {
                s.h[i * k + l] = flat.h[i] * layer_h_scale(l);
            }
        }
        for e in 0..mesh.n_edges() {
            for l in 0..k {
                s.u[e * k + l] = flat.u[e];
            }
        }
        for (dst, src) in s.tracers.iter_mut().zip(&flat.tracers) {
            for i in 0..mesh.n_cells() {
                for l in 0..k {
                    dst[i * k + l] = src[i] * layer_h_scale(l);
                }
            }
        }
        s
    }

    /// Extract lane `l` as a flat [`State`] (stride-`k` copies).
    pub fn extract_layer(&self, mesh: &Mesh, l: usize) -> State {
        let k = self.n_layers;
        assert!(l < k, "layer {l} out of {k}");
        let mut flat = State::zeros_with_tracers(mesh, self.tracers.len());
        take_lane(&self.h, k, l, &mut flat.h);
        take_lane(&self.u, k, l, &mut flat.u);
        for (dst, src) in flat.tracers.iter_mut().zip(&self.tracers) {
            take_lane(src, k, l, dst);
        }
        flat
    }

    /// Number of tracer fields carried.
    pub fn n_tracers(&self) -> usize {
        self.tracers.len()
    }

    /// `self = a` without reallocating when shapes match.
    pub fn copy_from(&mut self, a: &LayeredState) {
        self.n_layers = a.n_layers;
        self.h.copy_from_slice(&a.h);
        self.u.copy_from_slice(&a.u);
        self.tracers.resize_with(a.tracers.len(), Vec::new);
        for (dst, src) in self.tracers.iter_mut().zip(&a.tracers) {
            dst.resize(src.len(), 0.0);
            dst.copy_from_slice(src);
        }
    }

    /// FNV-1a digest over every lane of every field (bitwise, layer-major
    /// per entity — the layered analogue of `state_hash`).
    pub fn state_hash(&self) -> u64 {
        let mut d = Fnv1a::new();
        d.write_f64_slice(&self.h);
        d.write_f64_slice(&self.u);
        for t in &self.tracers {
            d.write_f64_slice(t);
        }
        d.finish()
    }
}

/// Diagnostics of `k` layers (the Table-I intermediates, lane-interleaved
/// like [`LayeredState`]).
#[derive(Debug, Clone)]
pub struct LayeredDiagnostics {
    /// Thickness at edges.
    pub h_edge: Vec<f64>,
    /// Kinetic energy at cells.
    pub ke: Vec<f64>,
    /// Relative vorticity at vertices.
    pub vorticity: Vec<f64>,
    /// Relative vorticity interpolated to cells.
    pub vorticity_cell: Vec<f64>,
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

impl LayeredDiagnostics {
    /// Zero-initialized layered diagnostics.
    pub fn zeros(mesh: &Mesh, k: usize) -> Self {
        let (nc, ne, nv) = (
            mesh.n_cells() * k,
            mesh.n_edges() * k,
            mesh.n_vertices() * k,
        );
        LayeredDiagnostics {
            h_edge: vec![0.0; ne],
            ke: vec![0.0; nc],
            vorticity: vec![0.0; nv],
            vorticity_cell: vec![0.0; nc],
            divergence: vec![0.0; nc],
            pv_vertex: vec![0.0; nv],
            pv_cell: vec![0.0; nc],
            pv_edge: vec![0.0; ne],
            v: vec![0.0; ne],
            d2fdx2_cell1: vec![0.0; ne],
            d2fdx2_cell2: vec![0.0; ne],
        }
    }

    /// Extract lane `l` as a flat [`Diagnostics`].
    pub fn extract_layer(&self, mesh: &Mesh, k: usize, l: usize, out: &mut Diagnostics) {
        take_lane(&self.h_edge, k, l, &mut out.h_edge);
        take_lane(&self.ke, k, l, &mut out.ke);
        take_lane(&self.vorticity, k, l, &mut out.vorticity);
        take_lane(&self.vorticity_cell, k, l, &mut out.vorticity_cell);
        take_lane(&self.divergence, k, l, &mut out.divergence);
        take_lane(&self.pv_vertex, k, l, &mut out.pv_vertex);
        take_lane(&self.pv_cell, k, l, &mut out.pv_cell);
        take_lane(&self.pv_edge, k, l, &mut out.pv_edge);
        take_lane(&self.v, k, l, &mut out.v);
        take_lane(&self.d2fdx2_cell1, k, l, &mut out.d2fdx2_cell1);
        take_lane(&self.d2fdx2_cell2, k, l, &mut out.d2fdx2_cell2);
        let _ = mesh;
    }
}

/// Tendencies of `k` layers.
#[derive(Debug, Clone)]
pub struct LayeredTendencies {
    /// Thickness tendency at cells.
    pub tend_h: Vec<f64>,
    /// Normal-velocity tendency at edges.
    pub tend_u: Vec<f64>,
    /// Tracer-mass tendencies at cells, one vector per tracer.
    pub tend_tracers: Vec<Vec<f64>>,
}

impl LayeredTendencies {
    /// Zero-initialized layered tendencies.
    pub fn zeros(mesh: &Mesh, k: usize, n_tracers: usize) -> Self {
        LayeredTendencies {
            tend_h: vec![0.0; mesh.n_cells() * k],
            tend_u: vec![0.0; mesh.n_edges() * k],
            tend_tracers: vec![vec![0.0; mesh.n_cells() * k]; n_tracers],
        }
    }
}

struct LayeredWorkspace {
    provis: LayeredState,
    tend: LayeredTendencies,
    acc: LayeredState,
}

/// A `k`-layer shallow-water simulation advanced by the simd kernel tier
/// with cache-blocked sweeps. Serial by construction (the threaded and
/// hybrid executors take the simd backend at one layer through
/// [`crate::kernels::dispatch`]).
pub struct LayeredModel {
    /// The mesh being integrated.
    pub mesh: Arc<Mesh>,
    /// Numerical options (`config.n_layers` is this model's `k`).
    pub config: ModelConfig,
    /// The fields layer 0 started from: the scenario, the topography and
    /// the Coriolis field (single-layer, broadcast across lanes) are read
    /// from here.
    pub init: Arc<InitialFields>,
    /// Layered prognostic state.
    pub state: LayeredState,
    /// Layered diagnostics (consistent with `state`).
    pub diag: LayeredDiagnostics,
    /// Fused kernel coefficients the simd lanes read.
    pub kernel_coeffs: Arc<KernelCoeffs>,
    /// Fixed forcing for forced cases, broadcast across lanes.
    forcing: Option<LayeredTendencies>,
    ws: LayeredWorkspace,
    /// Model time in seconds.
    pub time: f64,
    /// Time-step size in seconds.
    pub dt: f64,
    /// Cache-tile length in entities for blocked sweeps.
    cell_block: usize,
    recorder: Recorder,
    layer0: State,
    layer0_diag: Diagnostics,
}

impl LayeredModel {
    /// Initialize a `config.n_layers`-layer model from a test case.
    /// `dt = None` picks the mesh-dependent stable default.
    pub fn new(mesh: Arc<Mesh>, config: ModelConfig, test_case: TestCase, dt: Option<f64>) -> Self {
        let kc = Arc::new(KernelCoeffs::build(&mesh, &config));
        let init = Arc::new(InitialFields::sample(&mesh, &config, test_case, &kc, dt));
        Self::from_initial(mesh, config, init, kc)
    }

    /// Start from already-sampled fields and an already-built coefficient
    /// table (both for this exact mesh and config): the state and the
    /// forcing are broadcast across the `k` lanes, the rest is read
    /// through the shared `Arc`s.
    pub fn from_initial(
        mesh: Arc<Mesh>,
        config: ModelConfig,
        init: Arc<InitialFields>,
        kernel_coeffs: Arc<KernelCoeffs>,
    ) -> Self {
        let k = config.n_layers;
        assert!(k >= 1, "n_layers must be at least 1");
        init.check_fits(&mesh, &config);
        let state = LayeredState::broadcast(&mesh, &init.state, k);
        let dt = init.dt;
        let cell_block = simd::default_cell_block(k, 4);
        let mut diag = LayeredDiagnostics::zeros(&mesh, k);
        solve_diagnostics_layered(
            &mesh,
            &config,
            &kernel_coeffs,
            k,
            cell_block,
            &state.h,
            &state.u,
            &init.f_vertex,
            dt,
            RkPhase::Final,
            &mut diag,
            &Recorder::noop(),
        );
        let forcing = init.forcing.as_ref().map(|flat_f| {
            let mut lf = LayeredTendencies::zeros(&mesh, k, 0);
            for i in 0..mesh.n_cells() {
                for l in 0..k {
                    lf.tend_h[i * k + l] = flat_f.tend_h[i];
                }
            }
            for e in 0..mesh.n_edges() {
                for l in 0..k {
                    lf.tend_u[e * k + l] = flat_f.tend_u[e];
                }
            }
            lf
        });
        let ws = LayeredWorkspace {
            provis: state.clone(),
            tend: LayeredTendencies::zeros(&mesh, k, state.n_tracers()),
            acc: state.clone(),
        };
        let mut m = LayeredModel {
            layer0: State::zeros_with_tracers(&mesh, state.n_tracers()),
            layer0_diag: Diagnostics::zeros(&mesh),
            state,
            diag,
            init,
            kernel_coeffs,
            forcing,
            ws,
            time: 0.0,
            dt,
            cell_block,
            recorder: Recorder::noop(),
            config,
            mesh,
        };
        m.refresh_layer0();
        m
    }

    /// Route this model's `swe.layered.*` / `swe.simd.kernel.*` telemetry
    /// into `rec`.
    pub fn with_recorder(mut self, rec: Recorder) -> Self {
        self.recorder = rec;
        self
    }

    /// Route this model's telemetry into `rec`.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.recorder = rec;
    }

    /// Number of vertical layers.
    pub fn n_layers(&self) -> usize {
        self.state.n_layers
    }

    /// Override the cache-tile length (entities per block) for the
    /// blocked sweeps. Any positive value produces bitwise-identical
    /// results; this only moves the L2 working-set boundary.
    pub fn set_cell_block(&mut self, block: usize) {
        self.cell_block = block.max(1);
    }

    /// The cache-tile length currently in use.
    pub fn cell_block(&self) -> usize {
        self.cell_block
    }

    /// Cached flat view of layer 0 (refreshed after every step).
    pub fn layer0(&self) -> &State {
        &self.layer0
    }

    /// Cached flat diagnostics of layer 0.
    pub fn layer0_diag(&self) -> &Diagnostics {
        &self.layer0_diag
    }

    /// Extract any layer as a flat [`State`].
    pub fn extract_layer(&self, l: usize) -> State {
        self.state.extract_layer(&self.mesh, l)
    }

    /// Advance one RK-4 step (all layers).
    pub fn step(&mut self) {
        {
            let _t = self
                .recorder
                .span_timed("measured", "swe.step", "swe.layered.step_seconds");
            self.step_inner();
        }
        self.refresh_layer0();
    }

    /// Advance `n` steps.
    pub fn run_steps(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    fn step_inner(&mut self) {
        let mesh = &self.mesh;
        let (nc, ne) = (mesh.n_cells(), mesh.n_edges());
        let k = self.state.n_layers;
        let kc = &self.kernel_coeffs;
        let block = self.cell_block;
        let dt = self.dt;
        self.ws.acc.copy_from(&self.state);
        self.ws.provis.copy_from(&self.state);

        for stage in 0..4 {
            compute_tend_layered(
                mesh,
                &self.config,
                kc,
                k,
                block,
                &self.ws.provis.h,
                &self.ws.provis.u,
                &self.init.b,
                &self.diag,
                &mut self.ws.tend,
                &self.recorder,
            );
            if !self.ws.provis.tracers.is_empty() {
                let _t = self.recorder.time("swe.simd.kernel.tend_tracer.seconds");
                for (hq, out) in self
                    .ws
                    .provis
                    .tracers
                    .iter()
                    .zip(self.ws.tend.tend_tracers.iter_mut())
                {
                    for r in simd::block_ranges(nc, block) {
                        let (s, e) = (r.start * k, r.end * k);
                        simd::tend_tracer(
                            mesh,
                            kc,
                            k,
                            &self.ws.provis.u,
                            &self.diag.h_edge,
                            &self.ws.provis.h,
                            hq,
                            &mut out[s..e],
                            r,
                        );
                    }
                }
            }
            if let Some(f) = &self.forcing {
                simd::accumulate(k, &f.tend_h, 1.0, &mut self.ws.tend.tend_h, 0..nc);
                simd::accumulate(k, &f.tend_u, 1.0, &mut self.ws.tend.tend_u, 0..ne);
            }
            simd::enforce_boundary(mesh, k, &mut self.ws.tend.tend_u, 0..ne);

            if stage < 3 {
                // One fused pass over the tendencies feeds both the next
                // provisional state and the RK accumulator (X2+X4).
                advance_layered(
                    k,
                    nc,
                    ne,
                    &self.state,
                    &self.ws.tend,
                    RK_SUBSTEP[stage] * dt,
                    RK_WEIGHTS[stage] * dt,
                    &mut self.ws.provis,
                    &mut self.ws.acc,
                );
                solve_diagnostics_layered(
                    mesh,
                    &self.config,
                    kc,
                    k,
                    block,
                    &self.ws.provis.h,
                    &self.ws.provis.u,
                    &self.init.f_vertex,
                    dt,
                    RkPhase::Intermediate,
                    &mut self.diag,
                    &self.recorder,
                );
            } else {
                accumulate_layered(
                    k,
                    nc,
                    ne,
                    &self.ws.tend,
                    RK_WEIGHTS[stage] * dt,
                    &mut self.ws.acc,
                );
                // The accumulator holds the final state; swap it in
                // instead of copying it (the next step rebuilds `acc`).
                std::mem::swap(&mut self.state, &mut self.ws.acc);
                solve_diagnostics_layered(
                    mesh,
                    &self.config,
                    kc,
                    k,
                    block,
                    &self.state.h,
                    &self.state.u,
                    &self.init.f_vertex,
                    dt,
                    RkPhase::Final,
                    &mut self.diag,
                    &self.recorder,
                );
            }
        }
        self.time += dt;
    }

    /// Recompute the layered diagnostics and the cached layer-0 view from
    /// the current state (used after a checkpoint restore).
    pub(crate) fn refresh_after_restore(&mut self) {
        solve_diagnostics_layered(
            &self.mesh,
            &self.config,
            &self.kernel_coeffs,
            self.state.n_layers,
            self.cell_block,
            &self.state.h,
            &self.state.u,
            &self.init.f_vertex,
            self.dt,
            RkPhase::Final,
            &mut self.diag,
            &Recorder::noop(),
        );
        self.refresh_layer0();
    }

    fn refresh_layer0(&mut self) {
        let k = self.state.n_layers;
        take_lane(&self.state.h, k, 0, &mut self.layer0.h);
        take_lane(&self.state.u, k, 0, &mut self.layer0.u);
        self.layer0
            .resize_tracers(self.mesh.n_cells(), self.state.n_tracers());
        for (dst, src) in self.layer0.tracers.iter_mut().zip(&self.state.tracers) {
            take_lane(src, k, 0, dst);
        }
        self.diag
            .extract_layer(&self.mesh, k, 0, &mut self.layer0_diag);
    }

    /// Number of steps needed to reach `days` of simulated time.
    pub fn steps_for_days(&self, days: f64) -> usize {
        (days * mpas_geom::SECONDS_PER_DAY / self.dt).ceil() as usize
    }

    /// Total fluid mass `∫ h dA` of one layer.
    pub fn total_mass_layer(&self, l: usize) -> f64 {
        let k = self.state.n_layers;
        (0..self.mesh.n_cells())
            .map(|i| self.state.h[i * k + l] * self.mesh.area_cell[i])
            .sum()
    }

    /// Total fluid mass of layer 0 (the validated lane).
    pub fn total_mass(&self) -> f64 {
        self.total_mass_layer(0)
    }

    /// Total mass of tracer `t` in layer 0.
    pub fn total_tracer(&self, t: usize) -> f64 {
        (0..self.mesh.n_cells())
            .map(|i| self.layer0.tracers[t][i] * self.mesh.area_cell[i])
            .sum()
    }

    /// Layer-0 thickness error norms against the test case's reference at
    /// the current model time ([`InitialFields::h_error_norms`]).
    pub fn h_error_norms(&self) -> ErrorNorms {
        self.init
            .h_error_norms(&self.mesh, &self.layer0.h, self.time)
    }

    /// Layer-0 maximum Courant number over edges.
    pub fn max_courant(&self) -> f64 {
        let g = self.config.gravity;
        (0..self.mesh.n_edges())
            .map(|e| {
                let c = self.layer0.u[e].abs() + (g * self.layer0_diag.h_edge[e].max(0.0)).sqrt();
                c * self.dt / self.mesh.dc_edge[e]
            })
            .fold(0.0f64, f64::max)
    }

    /// FNV-1a digest over every lane of the layered state.
    pub fn state_hash(&self) -> u64 {
        self.state.state_hash()
    }
}

#[allow(clippy::too_many_arguments)]
fn solve_diagnostics_layered(
    mesh: &Mesh,
    config: &ModelConfig,
    kc: &KernelCoeffs,
    k: usize,
    block: usize,
    h: &[f64],
    u: &[f64],
    f_vertex: &[f64],
    dt: f64,
    phase: RkPhase,
    diag: &mut LayeredDiagnostics,
    rec: &Recorder,
) {
    let (nc, ne, nv) = (mesh.n_cells(), mesh.n_edges(), mesh.n_vertices());
    if config.high_order_h_edge {
        let _t = rec.time("swe.simd.kernel.d2fdx2.seconds");
        for r in simd::block_ranges(ne, block) {
            let (s, e) = (r.start * k, r.end * k);
            simd::d2fdx2(
                mesh,
                kc,
                k,
                h,
                &mut diag.d2fdx2_cell1[s..e],
                &mut diag.d2fdx2_cell2[s..e],
                r,
            );
        }
    }
    {
        let _t = rec.time("swe.simd.kernel.h_edge.seconds");
        for r in simd::block_ranges(ne, block) {
            let (s, e) = (r.start * k, r.end * k);
            simd::h_edge(
                mesh,
                kc,
                config,
                k,
                h,
                &diag.d2fdx2_cell1,
                &diag.d2fdx2_cell2,
                &mut diag.h_edge[s..e],
                r,
            );
        }
    }
    if config.advection_only {
        return;
    }
    // The C2+E fused vertex sweep fills `vorticity` and `pv_vertex` in one
    // pass; both consumers (`vorticity_cell`, `pv_cell`) follow.
    {
        let _t = rec.time("swe.simd.kernel.vorticity_pv.seconds");
        for r in simd::block_ranges(nv, block) {
            let (s, e) = (r.start * k, r.end * k);
            let (vort, pv) = (&mut diag.vorticity, &mut diag.pv_vertex);
            simd::vorticity_pv(
                mesh,
                kc,
                k,
                u,
                h,
                f_vertex,
                &mut vort[s..e],
                &mut pv[s..e],
                r,
            );
        }
    }
    {
        let _t = rec.time("swe.simd.kernel.ke_divergence.seconds");
        for r in simd::block_ranges(nc, block) {
            let (s, e) = (r.start * k, r.end * k);
            let (ke, div) = (&mut diag.ke, &mut diag.divergence);
            simd::ke_divergence(mesh, kc, k, u, &mut ke[s..e], &mut div[s..e], r);
        }
    }
    if runs_vorticity_cell(phase) {
        let _t = rec.time("swe.simd.kernel.vorticity_cell.seconds");
        for r in simd::block_ranges(nc, block) {
            let (s, e) = (r.start * k, r.end * k);
            simd::kite_average(
                mesh,
                kc,
                k,
                &diag.vorticity,
                &mut diag.vorticity_cell[s..e],
                r,
            );
        }
    }
    {
        let _t = rec.time("swe.simd.kernel.pv_cell.seconds");
        for r in simd::block_ranges(nc, block) {
            let (s, e) = (r.start * k, r.end * k);
            simd::kite_average(mesh, kc, k, &diag.pv_vertex, &mut diag.pv_cell[s..e], r);
        }
    }
    // The H1+G fused edge sweep reconstructs the tangential velocity and
    // feeds it straight into the APVM term (pv_vertex/pv_cell are done).
    {
        let _t = rec.time("swe.simd.kernel.tangential_pv_edge.seconds");
        for r in simd::block_ranges(ne, block) {
            let (s, e) = (r.start * k, r.end * k);
            let (v, pe) = (&mut diag.v, &mut diag.pv_edge);
            simd::tangential_pv_edge(
                mesh,
                kc,
                k,
                config.apvm_factor,
                dt,
                &diag.pv_vertex,
                &diag.pv_cell,
                u,
                &mut v[s..e],
                &mut pe[s..e],
                r,
            );
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn compute_tend_layered(
    mesh: &Mesh,
    config: &ModelConfig,
    kc: &KernelCoeffs,
    k: usize,
    block: usize,
    h: &[f64],
    u: &[f64],
    b: &[f64],
    diag: &LayeredDiagnostics,
    tend: &mut LayeredTendencies,
    rec: &Recorder,
) {
    let (nc, ne) = (mesh.n_cells(), mesh.n_edges());
    {
        let _t = rec.time("swe.simd.kernel.tend_h.seconds");
        for r in simd::block_ranges(nc, block) {
            let (s, e) = (r.start * k, r.end * k);
            simd::tend_h(mesh, kc, k, u, &diag.h_edge, &mut tend.tend_h[s..e], r);
        }
    }
    if config.advection_only {
        tend.tend_u.fill(0.0);
        return;
    }
    {
        let _t = rec.time("swe.simd.kernel.tend_u.seconds");
        for r in simd::block_ranges(ne, block) {
            let (s, e) = (r.start * k, r.end * k);
            simd::tend_u(
                mesh,
                kc,
                k,
                config.gravity,
                &diag.pv_edge,
                u,
                &diag.h_edge,
                &diag.ke,
                h,
                b,
                &mut tend.tend_u[s..e],
                r,
            );
        }
    }
    if config.del2_viscosity != 0.0 {
        let _t = rec.time("swe.simd.kernel.tend_u_del2.seconds");
        for r in simd::block_ranges(ne, block) {
            let (s, e) = (r.start * k, r.end * k);
            simd::tend_u_del2(
                mesh,
                kc,
                k,
                config.del2_viscosity,
                &diag.divergence,
                &diag.vorticity,
                &mut tend.tend_u[s..e],
                r,
            );
        }
    }
    if config.del4_viscosity != 0.0 {
        let _t = rec.time("swe.simd.kernel.tend_u_del4.seconds");
        let nv = mesh.n_vertices();
        let mut lap = vec![0.0; ne * k];
        for r in simd::block_ranges(ne, block) {
            let (s, e) = (r.start * k, r.end * k);
            simd::lap_u(
                mesh,
                kc,
                k,
                &diag.divergence,
                &diag.vorticity,
                &mut lap[s..e],
                r,
            );
        }
        let mut div_lap = vec![0.0; nc * k];
        for r in simd::block_ranges(nc, block) {
            let (s, e) = (r.start * k, r.end * k);
            simd::divergence(mesh, kc, k, &lap, &mut div_lap[s..e], r);
        }
        let mut vort_lap = vec![0.0; nv * k];
        for r in simd::block_ranges(nv, block) {
            let (s, e) = (r.start * k, r.end * k);
            simd::vorticity(mesh, kc, k, &lap, &mut vort_lap[s..e], r);
        }
        for r in simd::block_ranges(ne, block) {
            let (s, e) = (r.start * k, r.end * k);
            simd::tend_u_del4(
                mesh,
                kc,
                k,
                config.del4_viscosity,
                &div_lap,
                &vort_lap,
                &mut tend.tend_u[s..e],
                r,
            );
        }
    }
}

/// Fused X2+X4: `provis = base + coef·tend` and `acc += weight·tend` in
/// one pass over the tendency arrays (each output keeps its standalone
/// expression, so the fusion is bitwise-invisible).
#[allow(clippy::too_many_arguments)]
fn advance_layered(
    k: usize,
    nc: usize,
    ne: usize,
    base: &LayeredState,
    tend: &LayeredTendencies,
    coef: f64,
    weight: f64,
    provis: &mut LayeredState,
    acc: &mut LayeredState,
) {
    simd::axpy_accumulate(
        k,
        &base.h,
        &tend.tend_h,
        coef,
        weight,
        &mut provis.h,
        &mut acc.h,
        0..nc,
    );
    simd::axpy_accumulate(
        k,
        &base.u,
        &tend.tend_u,
        coef,
        weight,
        &mut provis.u,
        &mut acc.u,
        0..ne,
    );
    for (((b, t), p), a) in base
        .tracers
        .iter()
        .zip(&tend.tend_tracers)
        .zip(provis.tracers.iter_mut())
        .zip(acc.tracers.iter_mut())
    {
        simd::axpy_accumulate(k, b, t, coef, weight, p, a, 0..nc);
    }
}

fn accumulate_layered(
    k: usize,
    nc: usize,
    ne: usize,
    tend: &LayeredTendencies,
    weight: f64,
    acc: &mut LayeredState,
) {
    simd::accumulate(k, &tend.tend_h, weight, &mut acc.h, 0..nc);
    simd::accumulate(k, &tend.tend_u, weight, &mut acc.u, 0..ne);
    for (t, a) in tend.tend_tracers.iter().zip(acc.tracers.iter_mut()) {
        simd::accumulate(k, t, weight, a, 0..nc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KernelBackend;
    use crate::model::ShallowWaterModel;

    fn simd_config(n_layers: usize, n_tracers: usize) -> ModelConfig {
        ModelConfig {
            kernel_backend: KernelBackend::Simd,
            n_layers,
            n_tracers,
            ..Default::default()
        }
    }

    #[test]
    fn broadcast_extract_roundtrip() {
        let mesh = mpas_mesh::generate(2, 0);
        let flat = TestCase::Case5.initial_state_with_tracers(&mesh, 1);
        let layered = LayeredState::broadcast(&mesh, &flat, 3);
        // Layer 0 is the unperturbed state, bit for bit.
        assert_eq!(layered.extract_layer(&mesh, 0), flat);
        // Layer 2 carries scaled thickness with shared velocity.
        let l2 = layered.extract_layer(&mesh, 2);
        assert_eq!(l2.u, flat.u);
        assert_eq!(l2.h[5], flat.h[5] * layer_h_scale(2));
        assert_ne!(layered.state_hash(), 0);
    }

    #[test]
    fn layer0_matches_single_layer_fused_run_bitwise() {
        // The central §14 claim: every lane replays the flat arithmetic,
        // so layer 0 of a k-layer run IS the single-layer run, whose bits
        // are the retired fused tier's (pinned in `kernels::dispatch`).
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        for tc in [TestCase::Case5, TestCase::Case4] {
            let mut flat = ShallowWaterModel::new(
                mesh.clone(),
                ModelConfig {
                    n_tracers: 1,
                    ..Default::default()
                },
                tc,
                None,
            );
            let mut layered = LayeredModel::new(mesh.clone(), simd_config(4, 1), tc, None);
            flat.run_steps(3);
            layered.run_steps(3);
            assert_eq!(
                layered.layer0().max_abs_diff(&flat.state),
                0.0,
                "{tc:?}: layer 0 diverged from the flat run"
            );
        }
    }

    #[test]
    fn deeper_layers_match_flat_runs_from_scaled_states() {
        // Layer l>0 is bitwise a flat run started from the scaled
        // initial state (same broadcast forcing, same dt).
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        let k = 3;
        let mut layered = LayeredModel::new(mesh.clone(), simd_config(k, 0), TestCase::Case5, None);
        layered.run_steps(2);
        for l in 1..k {
            let mut flat =
                ShallowWaterModel::new(mesh.clone(), ModelConfig::default(), TestCase::Case5, None);
            for h in flat.state.h.iter_mut() {
                *h *= layer_h_scale(l);
            }
            flat.refresh_diagnostics();
            flat.run_steps(2);
            assert_eq!(
                layered.extract_layer(l).max_abs_diff(&flat.state),
                0.0,
                "layer {l} diverged"
            );
        }
    }

    #[test]
    fn cache_block_size_does_not_change_bits() {
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        let mut reference =
            LayeredModel::new(mesh.clone(), simd_config(4, 1), TestCase::Case6, None);
        reference.run_steps(2);
        for block in [1usize, 7, 100, usize::MAX / 2] {
            let mut m = LayeredModel::new(mesh.clone(), simd_config(4, 1), TestCase::Case6, None);
            m.set_cell_block(block);
            m.run_steps(2);
            assert_eq!(m.state, reference.state, "block {block} changed bits");
        }
    }

    #[test]
    fn all_layers_conserve_mass() {
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        let k = 4;
        let mut m = LayeredModel::new(mesh, simd_config(k, 0), TestCase::Case5, None);
        let m0: Vec<f64> = (0..k).map(|l| m.total_mass_layer(l)).collect();
        m.run_steps(8);
        for (l, &before) in m0.iter().enumerate() {
            let drift = (m.total_mass_layer(l) - before) / before;
            assert!(drift.abs() < 1e-13, "layer {l} mass drift {drift:e}");
        }
        // Scaled layers really carry distinct mass.
        assert!(m0[1] > m0[0]);
    }

    #[test]
    fn forced_case_background_stays_fixed_across_layer0() {
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        let mut m = LayeredModel::new(mesh.clone(), simd_config(2, 0), TestCase::Case4, None);
        // Replace every lane of the layered state with the bare background.
        let bg = TestCase::Case4.background_state(&mesh);
        m.state = LayeredState::broadcast(&mesh, &bg, 2);
        // Re-derive diagnostics for the replaced state (lane 0 only is the
        // true equilibrium; lane 1 is scaled and may drift).
        solve_diagnostics_layered(
            &m.mesh.clone(),
            &m.config.clone(),
            &m.kernel_coeffs.clone(),
            2,
            m.cell_block(),
            &m.state.h.clone(),
            &m.state.u.clone(),
            &m.init.f_vertex.clone(),
            m.dt,
            RkPhase::Final,
            &mut m.diag,
            &Recorder::noop(),
        );
        let before = m.state.extract_layer(&m.mesh, 0);
        m.run_steps(2);
        assert_eq!(m.layer0().max_abs_diff(&before), 0.0, "background drifted");
    }

    #[test]
    fn per_kernel_telemetry_spans_land() {
        let rec = Recorder::new();
        let mesh = Arc::new(mpas_mesh::generate(2, 0));
        let mut m = LayeredModel::new(mesh, simd_config(2, 1), TestCase::Case5, None)
            .with_recorder(rec.clone());
        m.run_steps(1);
        let snap = rec.snapshot();
        for kernel in [
            "tend_h",
            "tend_u",
            "h_edge",
            "vorticity_pv",
            "ke_divergence",
            "tangential_pv_edge",
            "tend_tracer",
        ] {
            let name = format!("swe.simd.kernel.{kernel}.seconds");
            let h = snap.histogram(&name).unwrap_or_else(|| panic!("{name}"));
            assert!(h.count > 0, "{name} empty");
        }
        assert!(snap.histogram("swe.layered.step_seconds").is_some());
    }
}
