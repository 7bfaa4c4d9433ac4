//! Numerical configuration of the shallow-water core.

/// Which kernel tier executes the Table-I patterns (DESIGN.md §14).
///
/// * [`Scalar`](KernelBackend::Scalar) — the seed kernels in
///   [`crate::kernels::ops`], gathering geometric factors from the mesh on
///   every call: the test oracle and the Fig. 6 baseline.
/// * [`Simd`](KernelBackend::Simd) — the coefficient-table tier
///   ([`crate::coeffs::KernelCoeffs`] + [`crate::kernels::simd`]) with
///   vertical batching: AVX2 inner loops under runtime feature detection
///   and an auto-vectorizable scalar-batch fallback. With `n_layers == 1`
///   it is the flat fast path; with `k` layers one gathered stencil index
///   amortizes across `k` lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// Seed kernels (`kernels::ops`), no precomputation.
    Scalar,
    /// Precomputed-coefficient, vertically batched kernels (`kernels::simd`).
    Simd,
}

impl KernelBackend {
    /// Lowercase CLI/JSON spelling (`scalar`, `simd`).
    pub fn name(&self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Simd => "simd",
        }
    }

    /// Parse the lowercase spelling; `None` on anything else.
    pub fn parse(s: &str) -> Option<KernelBackend> {
        match s {
            "scalar" => Some(KernelBackend::Scalar),
            "simd" => Some(KernelBackend::Simd),
            _ => None,
        }
    }

    /// All backends, in tier order (for equivalence matrices).
    pub const ALL: [KernelBackend; 2] = [KernelBackend::Scalar, KernelBackend::Simd];
}

/// Options mirroring the MPAS `sw` core namelist entries that matter here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelConfig {
    /// Gravitational acceleration, m/s².
    pub gravity: f64,
    /// APVM (anticipated potential vorticity method) upwinding factor for
    /// `pv_edge`; 0.5 is the standard value, 0 disables upwinding.
    pub apvm_factor: f64,
    /// Harmonic (del2) momentum dissipation coefficient ν, m²/s. The
    /// paper's pattern C1. Zero disables the term.
    pub del2_viscosity: f64,
    /// Biharmonic (del4) hyperviscosity coefficient ν₄, m⁴/s — the
    /// scale-selective dissipation MPAS uses operationally (two chained
    /// C1-class applications). Zero disables the term.
    pub del4_viscosity: f64,
    /// Use the higher-order thickness-edge blend (patterns D1/D2 feeding
    /// H2); plain mid-edge averaging otherwise.
    pub high_order_h_edge: bool,
    /// Advection-only mode (Williamson test case 1): the velocity field is
    /// held fixed and only the continuity equation advances; the momentum
    /// tendency and the PV diagnostic chain are skipped.
    pub advection_only: bool,
    /// Which kernel tier runs in every executor. `Scalar` reproduces the
    /// seed kernels exactly — the oracle and the Fig. 6 baseline; `Simd`,
    /// the default, is the coefficient-table fast path (required when
    /// `n_layers > 1`).
    pub kernel_backend: KernelBackend,
    /// Number of passive tracer-mass fields advected alongside `h`
    /// (pattern T1). Zero — the default — skips the tracer kernels
    /// entirely, so pre-tracer configurations are bit-for-bit unchanged.
    pub n_tracers: usize,
    /// Number of vertical layers batched per entity (DESIGN.md §14).
    /// 1 — the default — is the classic single-layer model; `k > 1`
    /// requires the `Simd` backend and the serial executor, and runs `k`
    /// independent shallow-water instances whose fields interleave as
    /// contiguous lanes per entity.
    pub n_layers: usize,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            gravity: mpas_geom::GRAVITY,
            apvm_factor: 0.5,
            del2_viscosity: 0.0,
            del4_viscosity: 0.0,
            high_order_h_edge: false,
            advection_only: false,
            kernel_backend: KernelBackend::Simd,
            n_tracers: 0,
            n_layers: 1,
        }
    }
}

impl ModelConfig {
    /// A conservative stable time step for a mesh: CFL 0.25 against a
    /// 300 m/s external gravity wave on the smallest cell spacing.
    pub fn suggested_dt(mesh: &mpas_mesh::Mesh) -> f64 {
        let min_dc = mesh.dc_edge.iter().copied().fold(f64::INFINITY, f64::min);
        0.25 * min_dc / 300.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_mpas_choices() {
        let c = ModelConfig::default();
        assert_eq!(c.apvm_factor, 0.5);
        assert_eq!(c.del2_viscosity, 0.0);
        assert!(!c.high_order_h_edge);
        assert!((c.gravity - 9.80616).abs() < 1e-9);
        assert_eq!(c.kernel_backend, KernelBackend::Simd);
        assert_eq!(c.n_layers, 1);
    }

    #[test]
    fn backend_names_round_trip() {
        for b in KernelBackend::ALL {
            assert_eq!(KernelBackend::parse(b.name()), Some(b));
        }
        assert_eq!(KernelBackend::parse("avx512"), None);
        assert_eq!(KernelBackend::parse("fused"), None);
    }

    #[test]
    fn suggested_dt_scales_with_resolution() {
        let m3 = mpas_mesh::generate(3, 0);
        let m4 = mpas_mesh::generate(4, 0);
        let r = ModelConfig::suggested_dt(&m3) / ModelConfig::suggested_dt(&m4);
        assert!((r - 2.0).abs() < 0.3, "dt ratio {r}");
    }
}
