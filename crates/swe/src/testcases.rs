//! Williamson et al. (1992) standard shallow-water test cases 1–6, plus
//! the Galewsky et al. (2004) barotropic-instability case.
//!
//! * **Case 1** — cosine-bell advection by solid-body rotation (run with
//!   `ModelConfig::advection_only`); exact solution is the rotated bell.
//! * **Case 2** — steady-state zonal geostrophic flow (optionally tilted by
//!   `alpha`); the exact solution equals the initial condition, giving
//!   clean error norms.
//! * **Case 3** — steady zonal jet with compact support; the thickness is
//!   obtained from the zonal geostrophic-balance integral by quadrature.
//! * **Case 4** — forced flow: a zonal jet held in discrete equilibrium by
//!   a fixed forcing term, with a superposed low-pressure anomaly. Unlike
//!   Williamson's translating-low formulation (whose analytic forcing
//!   requires streamfunction derivatives), the forcing here is the
//!   *discrete* negation of the background jet's tendency, computed once
//!   at model init with the model's own kernels — so the unperturbed jet
//!   is a bitwise equilibrium and only the anomaly evolves.
//! * **Case 5** — zonal flow over an isolated conical mountain; the case
//!   the paper's Fig. 5 validates against (total height `h + b` at day 15).
//! * **Case 6** — Rossby–Haurwitz wavenumber-4 wave.
//! * **Galewsky** — barotropic instability of a midlatitude jet seeded by
//!   a localized height bump (Galewsky, Scott & Polvani 2004).

use crate::state::State;
use mpas_geom::{
    east_at, latitude, north_at, to_lonlat, LonLat, Vec3, EARTH_RADIUS, GRAVITY, OMEGA,
    SECONDS_PER_DAY,
};
use mpas_mesh::Mesh;

/// A Williamson test case: initial condition, topography and Coriolis field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TestCase {
    /// Advection of a cosine bell by solid-body rotation (requires
    /// `ModelConfig::advection_only`); the bell returns to its starting
    /// point after exactly 12 days.
    Case1 {
        /// Tilt of the advecting flow's axis from the planetary axis, radians.
        alpha: f64,
    },
    /// Steady zonal geostrophic flow, rotation axis tilted by `alpha`
    /// radians from the planetary axis.
    Case2 {
        /// Tilt of the flow axis from the planetary axis, radians.
        alpha: f64,
    },
    /// Steady zonal jet with compactly supported velocity profile.
    Case3,
    /// Forced zonal jet (discrete equilibrium) plus a low-pressure anomaly.
    Case4,
    /// Zonal flow over an isolated mountain (the paper's validation case).
    Case5,
    /// Rossby–Haurwitz wave, wavenumber 4.
    Case6,
    /// Galewsky barotropic-instability jet with height perturbation.
    Galewsky,
}

/// Williamson's compact taper: `b(x) = exp(-1/x)` for `x > 0`, else 0.
fn taper(x: f64) -> f64 {
    if x > 0.0 {
        (-1.0 / x).exp()
    } else {
        0.0
    }
}

/// Case-3 zonal wind at latitude `lat` (support `[-pi/6, pi/2]`).
fn case3_u(lat: f64) -> f64 {
    let u0 = 2.0 * std::f64::consts::PI * EARTH_RADIUS / (12.0 * SECONDS_PER_DAY);
    let (lat_b, lat_e, x_e) = (
        -std::f64::consts::FRAC_PI_6,
        std::f64::consts::FRAC_PI_2,
        0.3,
    );
    let x = x_e * (lat - lat_b) / (lat_e - lat_b);
    u0 * taper(x) * taper(x_e - x) * (4.0 / x_e).exp()
}

/// Galewsky jet at latitude `lat` (support `(pi/7, pi/2 - pi/7)`).
fn galewsky_u(lat: f64) -> f64 {
    let umax = 80.0;
    let lat0 = std::f64::consts::PI / 7.0;
    let lat1 = std::f64::consts::FRAC_PI_2 - lat0;
    if lat <= lat0 || lat >= lat1 {
        return 0.0;
    }
    let en = (-4.0 / (lat1 - lat0).powi(2)).exp();
    umax / en * (1.0 / ((lat - lat0) * (lat - lat1))).exp()
}

/// Composite-Simpson quadrature of `f` over `[a, b]` with `n` (even)
/// intervals. Pure and deterministic, so every executor that evaluates an
/// initial condition at the same point gets the same bits.
fn simpson(f: impl Fn(f64) -> f64, a: f64, b: f64, n: usize) -> f64 {
    debug_assert!(n >= 2 && n.is_multiple_of(2));
    let dx = (b - a) / n as f64;
    let mut acc = f(a) + f(b);
    for k in 1..n {
        let w = if k % 2 == 1 { 4.0 } else { 2.0 };
        acc += w * f(a + k as f64 * dx);
    }
    acc * dx / 3.0
}

/// Thickness from the zonal geostrophic-balance integral:
/// `g h(lat) = g h_start − ∫ a·u(τ)·(f(τ) + u(τ)·tanτ/a) dτ` from
/// `lat_start` (below the jet, where `h = h_start`) up to `lat`.
fn balance_thickness(u: impl Fn(f64) -> f64, h_start: f64, lat_start: f64, lat: f64) -> f64 {
    if lat <= lat_start {
        return h_start;
    }
    let integrand = |t: f64| {
        let ut = u(t);
        ut * (EARTH_RADIUS * 2.0 * OMEGA * t.sin() + ut * t.tan())
    };
    h_start - simpson(integrand, lat_start, lat, 512) / GRAVITY
}

/// Case-5 conical mountain at a point's lon/lat (radius pi/9, 2000 m
/// peak at (3pi/2, pi/6)).
fn case5_mountain(ll: LonLat) -> f64 {
    let b0 = 2000.0;
    let big_r = std::f64::consts::PI / 9.0;
    let lon_c = 1.5 * std::f64::consts::PI;
    let lat_c = std::f64::consts::PI / 6.0;
    let mut dlon = (ll.lon - lon_c).abs();
    if dlon > std::f64::consts::PI {
        dlon = 2.0 * std::f64::consts::PI - dlon;
    }
    let r = big_r.min((dlon.powi(2) + (ll.lat - lat_c).powi(2)).sqrt());
    b0 * (1.0 - r / big_r)
}

/// Case-4 background jet thickness at latitude `lat`.
fn case4_jet(lat: f64) -> f64 {
    let u0 = 20.0;
    let gh0 = GRAVITY * 5400.0;
    let s = lat.sin();
    (gh0 - (EARTH_RADIUS * OMEGA * u0 + 0.5 * u0 * u0) * s * s) / GRAVITY
}

impl TestCase {
    /// Short identifier used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            TestCase::Case1 { .. } => "williamson-1",
            TestCase::Case2 { .. } => "williamson-2",
            TestCase::Case3 => "williamson-3",
            TestCase::Case4 => "williamson-4",
            TestCase::Case5 => "williamson-5",
            TestCase::Case6 => "williamson-6",
            TestCase::Galewsky => "galewsky",
        }
    }

    /// True when the case carries a fixed forcing term that the model must
    /// compute at init (the discrete negation of the background tendency).
    pub fn needs_forcing(&self) -> bool {
        matches!(self, TestCase::Case4)
    }

    /// Analytic velocity vector (tangent to the sphere) at a unit-sphere
    /// point, at t = 0.
    pub fn velocity_at(&self, p: Vec3) -> Vec3 {
        match *self {
            TestCase::Case1 { alpha } | TestCase::Case2 { alpha } => {
                let LonLat { lon, lat } = to_lonlat(p);
                let u0 = 2.0 * std::f64::consts::PI * EARTH_RADIUS / (12.0 * SECONDS_PER_DAY);
                let uz = u0 * (lat.cos() * alpha.cos() + lon.cos() * lat.sin() * alpha.sin());
                let vm = -u0 * lon.sin() * alpha.sin();
                east_at(p) * uz + north_at(p) * vm
            }
            TestCase::Case3 => east_at(p) * case3_u(latitude(p)),
            TestCase::Case4 | TestCase::Case5 => {
                let u0 = 20.0;
                east_at(p) * (u0 * latitude(p).cos())
            }
            TestCase::Galewsky => east_at(p) * galewsky_u(latitude(p)),
            TestCase::Case6 => {
                let LonLat { lon, lat } = to_lonlat(p);
                let (omega, k, r) = (7.848e-6, 7.848e-6, 4.0);
                let a = EARTH_RADIUS;
                let c = lat.cos();
                let uz = a * omega * c
                    + a * k * c.powf(r - 1.0) * (r * lat.sin().powi(2) - c * c) * (r * lon).cos();
                let vm = -a * k * r * c.powf(r - 1.0) * lat.sin() * (r * lon).sin();
                east_at(p) * uz + north_at(p) * vm
            }
        }
    }

    /// Bottom topography at a unit-sphere point.
    pub fn topography_at(&self, p: Vec3) -> f64 {
        match self {
            TestCase::Case5 => case5_mountain(to_lonlat(p)),
            _ => 0.0,
        }
    }

    /// [`TestCase::topography_at`] at a point whose lon/lat is `ll`.
    fn topography_ll(&self, ll: LonLat) -> f64 {
        match self {
            TestCase::Case5 => case5_mountain(ll),
            _ => 0.0,
        }
    }

    /// Analytic fluid thickness `h` (total height minus topography) at a
    /// unit-sphere point, at t = 0.
    pub fn thickness_at(&self, p: Vec3) -> f64 {
        self.thickness_and_topography(p).0
    }

    /// `(thickness_at(p), topography_at(p))`, converting `p` to lon/lat
    /// once for both (case 5's thickness subtracts its topography).
    fn thickness_and_topography(&self, p: Vec3) -> (f64, f64) {
        let ll = to_lonlat(p);
        let b = self.topography_ll(ll);
        (self.thickness_ll(p, ll, b), b)
    }

    /// [`TestCase::thickness_at`] at `p`, given its lon/lat `ll` and its
    /// topography `b`.
    fn thickness_ll(&self, p: Vec3, ll: LonLat, b: f64) -> f64 {
        let LonLat { lon, lat } = ll;
        match *self {
            TestCase::Case1 { .. } => {
                // 1000 m background plus a 1000 m cosine bell of radius a/3
                // centered at (3pi/2, 0). The background makes the PV-free
                // advection-only diagnostics trivially well-defined.
                let center = LonLat::new(1.5 * std::f64::consts::PI, 0.0).to_unit_vector();
                let r = mpas_geom::arc_length(p.normalized(), center) * EARTH_RADIUS;
                let big_r = EARTH_RADIUS / 3.0;
                let bell = if r < big_r {
                    500.0 * (1.0 + (std::f64::consts::PI * r / big_r).cos())
                } else {
                    0.0
                };
                1000.0 + bell
            }
            TestCase::Case2 { alpha } => {
                let u0 = 2.0 * std::f64::consts::PI * EARTH_RADIUS / (12.0 * SECONDS_PER_DAY);
                let gh0 = 2.94e4;
                let s = lat.sin() * alpha.cos() - lon.cos() * lat.cos() * alpha.sin();
                let gh = gh0 - (EARTH_RADIUS * OMEGA * u0 + 0.5 * u0 * u0) * s * s;
                gh / GRAVITY
            }
            TestCase::Case3 => {
                balance_thickness(case3_u, 3000.0, -std::f64::consts::FRAC_PI_6, lat)
            }
            TestCase::Case4 => {
                // Background jet height plus a Gaussian low-pressure
                // anomaly (depth 120 m, e-folding radius a/10) centered at
                // (lon 0, lat pi/4). The jet part must match
                // `background_thickness_at` exactly so the anomaly is the
                // only unbalanced component.
                let center = LonLat::new(0.0, std::f64::consts::FRAC_PI_4).to_unit_vector();
                let r = mpas_geom::arc_length(p.normalized(), center) * EARTH_RADIUS;
                let r0 = EARTH_RADIUS / 10.0;
                case4_jet(lat) - 120.0 * (-(r / r0).powi(2)).exp()
            }
            TestCase::Case5 => {
                let u0 = 20.0;
                let gh0 = GRAVITY * 5960.0;
                let s = lat.sin();
                let gh = gh0 - (EARTH_RADIUS * OMEGA * u0 + 0.5 * u0 * u0) * s * s;
                gh / GRAVITY - b
            }
            TestCase::Galewsky => {
                // Balanced jet height plus the instability-seeding bump:
                // h' = ĥ·cosθ·exp(−(λ/α)²)·exp(−((θ₂−θ)/β)²), ĥ = 120 m,
                // α = 1/3, β = 1/15, θ₂ = π/4 (Galewsky et al. 2004 eq. 4).
                let lat0 = std::f64::consts::PI / 7.0;
                let base = balance_thickness(galewsky_u, 10158.18, lat0, lat);
                let mut lam = lon;
                if lam > std::f64::consts::PI {
                    lam -= 2.0 * std::f64::consts::PI;
                }
                let (alpha, beta) = (1.0 / 3.0, 1.0 / 15.0);
                let lat2 = std::f64::consts::FRAC_PI_4;
                let bump = 120.0
                    * lat.cos()
                    * (-(lam / alpha).powi(2)).exp()
                    * (-((lat2 - lat) / beta).powi(2)).exp();
                base + bump
            }
            TestCase::Case6 => {
                let (omega, k, r) = (7.848e-6_f64, 7.848e-6_f64, 4.0_f64);
                let a = EARTH_RADIUS;
                let gh0 = GRAVITY * 8000.0;
                let c = lat.cos();
                let c2 = c * c;
                let aa = 0.5 * omega * (2.0 * OMEGA + omega) * c2
                    + 0.25
                        * k
                        * k
                        * c.powf(2.0 * r)
                        * ((r + 1.0) * c2 + (2.0 * r * r - r - 2.0) - 2.0 * r * r / c2);
                let bb = (2.0 * (OMEGA + omega) * k) / ((r + 1.0) * (r + 2.0))
                    * c.powf(r)
                    * ((r * r + 2.0 * r + 2.0) - (r + 1.0).powi(2) * c2);
                let cc = 0.25 * k * k * c.powf(2.0 * r) * ((r + 1.0) * c2 - (r + 2.0));
                let gh = gh0 + a * a * (aa + bb * (r * lon).cos() + cc * (2.0 * r * lon).cos());
                gh / GRAVITY
            }
        }
    }

    /// Coriolis parameter at a unit-sphere point (tilted for Case 2).
    pub fn coriolis_at(&self, p: Vec3) -> f64 {
        match *self {
            TestCase::Case1 { alpha } | TestCase::Case2 { alpha } => {
                let ll = to_lonlat(p);
                2.0 * OMEGA
                    * (ll.lat.sin() * alpha.cos() - ll.lat.cos() * ll.lon.cos() * alpha.sin())
            }
            _ => 2.0 * OMEGA * latitude(p).sin(),
        }
    }

    /// Analytic thickness at time `t` seconds. Equal to the initial field
    /// for steady cases; for Case 1 the bell is rigidly rotated about the
    /// flow axis by the solid-body angle `u0 t / a`.
    pub fn reference_thickness_at(&self, p: Vec3, t: f64) -> f64 {
        match *self {
            TestCase::Case1 { alpha } => {
                let u0 = 2.0 * std::f64::consts::PI * EARTH_RADIUS / (12.0 * SECONDS_PER_DAY);
                let theta = u0 * t / EARTH_RADIUS;
                let axis = Vec3::new(-alpha.sin(), 0.0, alpha.cos());
                let back = mpas_geom::rotate_about_axis(p, axis, -theta);
                self.thickness_at(back)
            }
            _ => self.thickness_at(p),
        }
    }

    /// True when [`TestCase::reference_thickness_at`] depends on time:
    /// only Case 1's bell moves. Every other case compares against a
    /// fixed field, which a run can sample once.
    pub fn reference_moves(&self) -> bool {
        matches!(self, TestCase::Case1 { .. })
    }

    /// The reference thickness at every cell of `mesh` at time `t`
    /// seconds — what the `h` error norms compare against.
    pub fn reference_thickness(&self, mesh: &Mesh, t: f64) -> Vec<f64> {
        mesh.x_cell
            .iter()
            .map(|&p| self.reference_thickness_at(p, t))
            .collect()
    }

    /// Case-4 background jet thickness (no anomaly): the state the fixed
    /// forcing holds in discrete equilibrium. Falls back to the initial
    /// thickness for unforced cases.
    pub fn background_thickness_at(&self, p: Vec3) -> f64 {
        match self {
            TestCase::Case4 => case4_jet(latitude(p)),
            _ => self.thickness_at(p),
        }
    }

    /// Initial mixing ratio of tracer `k` at a unit-sphere point.
    ///
    /// * tracer 0 — constant 1.0 (the conservation/monotonicity probe:
    ///   `h·q` must track `h` to rounding);
    /// * tracer 1 — a 0..1 cosine bell of radius a/3 at (3π/2, 0);
    /// * tracer k ≥ 2 — smooth latitude bands `(1 + sin lat)/2`.
    pub fn tracer_at(&self, k: usize, p: Vec3) -> f64 {
        match k {
            0 => 1.0,
            1 => {
                let center = LonLat::new(1.5 * std::f64::consts::PI, 0.0).to_unit_vector();
                let r = mpas_geom::arc_length(p.normalized(), center) * EARTH_RADIUS;
                let big_r = EARTH_RADIUS / 3.0;
                if r < big_r {
                    0.5 * (1.0 + (std::f64::consts::PI * r / big_r).cos())
                } else {
                    0.0
                }
            }
            _ => 0.5 * (1.0 + latitude(p).sin()),
        }
    }

    /// Sample the initial prognostic state on a mesh (no tracers).
    pub fn initial_state(&self, mesh: &Mesh) -> State {
        self.initial_state_with_tracers(mesh, 0)
    }

    /// Sample the initial prognostic state with `n_tracers` tracer-mass
    /// fields (`h·q` with `q` from [`TestCase::tracer_at`]).
    pub fn initial_state_with_tracers(&self, mesh: &Mesh, n_tracers: usize) -> State {
        self.sample(mesh, n_tracers).0
    }

    /// The initial state (with `n_tracers` tracer-mass fields) and the
    /// topography in one pass over the cells: each cell's lon/lat is
    /// computed once and feeds both `h` and `b`, bit for bit what
    /// [`TestCase::thickness_at`] and [`TestCase::topography_at`] return.
    pub(crate) fn sample(&self, mesh: &Mesh, n_tracers: usize) -> (State, Vec<f64>) {
        let (h, b): (Vec<f64>, Vec<f64>) = mesh
            .x_cell
            .iter()
            .map(|&p| self.thickness_and_topography(p))
            .unzip();
        let u = (0..mesh.n_edges())
            .map(|e| self.velocity_at(mesh.x_edge[e]).dot(mesh.normal_edge[e]))
            .collect();
        let tracers = (0..n_tracers)
            .map(|k| {
                (0..mesh.n_cells())
                    .map(|i| h[i] * self.tracer_at(k, mesh.x_cell[i]))
                    .collect()
            })
            .collect();
        (State { h, u, tracers }, b)
    }

    /// The background (forcing-equilibrium) state sampled on a mesh:
    /// identical to the initial state except for forced cases, where the
    /// anomaly is absent. Tracer-free — the forcing only acts on `h`/`u`.
    pub fn background_state(&self, mesh: &Mesh) -> State {
        let h = (0..mesh.n_cells())
            .map(|i| self.background_thickness_at(mesh.x_cell[i]))
            .collect();
        let u = (0..mesh.n_edges())
            .map(|e| self.velocity_at(mesh.x_edge[e]).dot(mesh.normal_edge[e]))
            .collect();
        State {
            h,
            u,
            tracers: Vec::new(),
        }
    }

    /// Sample the topography on a mesh.
    pub fn topography(&self, mesh: &Mesh) -> Vec<f64> {
        (0..mesh.n_cells())
            .map(|i| self.topography_at(mesh.x_cell[i]))
            .collect()
    }

    /// Sample the Coriolis parameter at the vorticity points.
    pub fn coriolis_vertex(&self, mesh: &Mesh) -> Vec<f64> {
        (0..mesh.n_vertices())
            .map(|v| self.coriolis_at(mesh.x_vertex[v]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case1_bell_shape_and_background() {
        let tc = TestCase::Case1 { alpha: 0.0 };
        let center = LonLat::new(1.5 * std::f64::consts::PI, 0.0).to_unit_vector();
        assert!((tc.thickness_at(center) - 2000.0).abs() < 1e-9);
        let far = LonLat::new(0.0, 0.8).to_unit_vector();
        assert_eq!(tc.thickness_at(far), 1000.0);
        // Smooth at the bell edge (cosine taper reaches exactly zero).
        let edge_angle = 1.0 / 3.0;
        let edge = LonLat::new(1.5 * std::f64::consts::PI + edge_angle, 0.0).to_unit_vector();
        assert!(tc.thickness_at(edge) - 1000.0 < 1e-6);
    }

    #[test]
    fn case1_reference_rotates_with_the_flow() {
        let tc = TestCase::Case1 { alpha: 0.0 };
        let center = LonLat::new(1.5 * std::f64::consts::PI, 0.0).to_unit_vector();
        // After a quarter period (3 days) the bell peak has moved 90 deg east.
        let t = 3.0 * SECONDS_PER_DAY;
        let new_center = LonLat::new(0.0, 0.0).to_unit_vector();
        assert!(
            (tc.reference_thickness_at(new_center, t) - 2000.0).abs() < 1e-6,
            "peak not at the advected position"
        );
        assert!(tc.reference_thickness_at(center, t) - 1000.0 < 1e-6);
        // Full revolution returns the initial field.
        let t_full = 12.0 * SECONDS_PER_DAY;
        for k in 0..20 {
            let p = LonLat::new(k as f64 * 0.3, (k as f64 * 0.17).sin()).to_unit_vector();
            assert!((tc.reference_thickness_at(p, t_full) - tc.thickness_at(p)).abs() < 1e-9);
        }
    }

    #[test]
    fn case1_tilted_velocity_matches_rotation_axis() {
        let alpha = 0.9;
        let tc = TestCase::Case1 { alpha };
        let axis = Vec3::new(-alpha.sin(), 0.0, alpha.cos());
        let u0 = 2.0 * std::f64::consts::PI * EARTH_RADIUS / (12.0 * SECONDS_PER_DAY);
        for k in 0..30 {
            let p = LonLat::new(k as f64 * 0.21, (k as f64 * 0.13).sin() * 1.2).to_unit_vector();
            let expect = (axis * u0).cross(p);
            assert!(tc.velocity_at(p).dist(expect) < 1e-9, "point {k}");
        }
    }

    #[test]
    fn case2_velocity_is_zonal_without_tilt() {
        let tc = TestCase::Case2 { alpha: 0.0 };
        let p = LonLat::new(1.0, 0.5).to_unit_vector();
        let v = tc.velocity_at(p);
        // Purely eastward: no component along north.
        assert!(v.dot(north_at(p)).abs() < 1e-9);
        let u0 = 2.0 * std::f64::consts::PI * EARTH_RADIUS / (12.0 * SECONDS_PER_DAY);
        assert!((v.dot(east_at(p)) - u0 * 0.5f64.cos()).abs() < 1e-9);
    }

    #[test]
    fn case2_thickness_positive_everywhere() {
        let tc = TestCase::Case2 { alpha: 0.3 };
        for k in 0..200 {
            let lon = k as f64 * 0.0314;
            let lat = (k as f64 * 0.017).sin() * 1.5;
            let h = tc.thickness_at(LonLat::new(lon, lat).to_unit_vector());
            assert!(h > 500.0, "h = {h} at ({lon},{lat})");
        }
    }

    #[test]
    fn case5_mountain_peak_and_extent() {
        let tc = TestCase::Case5;
        let center =
            LonLat::new(1.5 * std::f64::consts::PI, std::f64::consts::PI / 6.0).to_unit_vector();
        assert!((tc.topography_at(center) - 2000.0).abs() < 1e-9);
        // Outside radius pi/9 the mountain vanishes.
        let far = LonLat::new(0.0, -1.0).to_unit_vector();
        assert_eq!(tc.topography_at(far), 0.0);
        // Total height h+b is smooth across the mountain edge.
        let edge = LonLat::new(
            1.5 * std::f64::consts::PI + std::f64::consts::PI / 9.0,
            std::f64::consts::PI / 6.0,
        )
        .to_unit_vector();
        assert!(tc.topography_at(edge).abs() < 1e-9);
    }

    #[test]
    fn case6_velocity_has_wavenumber_4_symmetry() {
        let tc = TestCase::Case6;
        let lat = 0.6;
        for k in 0..4 {
            let lon0 = 0.35;
            let lon1 = lon0 + k as f64 * std::f64::consts::PI / 2.0;
            let p0 = LonLat::new(lon0, lat).to_unit_vector();
            let p1 = LonLat::new(lon1, lat).to_unit_vector();
            let (z0, m0) = (
                tc.velocity_at(p0).dot(east_at(p0)),
                tc.velocity_at(p0).dot(north_at(p0)),
            );
            let (z1, m1) = (
                tc.velocity_at(p1).dot(east_at(p1)),
                tc.velocity_at(p1).dot(north_at(p1)),
            );
            assert!((z0 - z1).abs() < 1e-9);
            assert!((m0 - m1).abs() < 1e-9);
        }
    }

    #[test]
    fn case6_thickness_in_physical_range() {
        let tc = TestCase::Case6;
        for k in 0..400 {
            let lon = k as f64 * 0.0157;
            let lat = ((k * 7) % 400) as f64 / 400.0 * 3.0 - 1.5;
            let h = tc.thickness_at(LonLat::new(lon, lat).to_unit_vector());
            assert!((6000.0..11000.0).contains(&h), "h = {h}");
        }
    }

    #[test]
    fn coriolis_tilt_moves_the_pole() {
        let alpha = 0.7;
        let tc = TestCase::Case2 { alpha };
        // The effective pole is at (lon=0 tilted): f is maximal where
        // sin(lat)cos(a) - cos(lat)cos(lon)sin(a) = 1.
        let pole =
            LonLat::new(std::f64::consts::PI, std::f64::consts::PI / 2.0 - alpha).to_unit_vector();
        assert!((tc.coriolis_at(pole) - 2.0 * OMEGA).abs() < 1e-9);
    }

    #[test]
    fn case3_jet_is_compact_and_balanced() {
        let tc = TestCase::Case3;
        // No flow outside [-pi/6, pi/2]; peak speed inside.
        assert_eq!(case3_u(-0.6), 0.0);
        assert_eq!(case3_u(std::f64::consts::FRAC_PI_2), 0.0);
        let peak = case3_u(0.35);
        assert!(peak > 10.0, "jet too weak: {peak}");
        // Thickness equals the reference value south of the jet and drops
        // monotonically across its northern-hemisphere extent, where
        // f > 0 and geostrophic balance forces dh/dlat < 0. (In the small
        // southern tail of the jet f < 0, so h rises slightly there.)
        let south = LonLat::new(1.0, -1.2).to_unit_vector();
        assert_eq!(tc.thickness_at(south), 3000.0);
        let mut prev = tc.thickness_at(LonLat::new(0.0, 0.0).to_unit_vector());
        for k in 1..15 {
            let lat = k as f64 * 0.1;
            let h = tc.thickness_at(LonLat::new(0.0, lat).to_unit_vector());
            assert!(h <= prev + 1e-9, "h increased across the jet at {lat}");
            prev = h;
        }
    }

    #[test]
    fn case4_anomaly_sits_on_the_background_jet() {
        let tc = TestCase::Case4;
        let center = LonLat::new(0.0, std::f64::consts::FRAC_PI_4).to_unit_vector();
        let dh = tc.thickness_at(center) - tc.background_thickness_at(center);
        assert!((dh + 120.0).abs() < 1e-9, "anomaly depth {dh}");
        // Far from the low the two fields agree.
        let far = LonLat::new(std::f64::consts::PI, -0.8).to_unit_vector();
        assert!((tc.thickness_at(far) - tc.background_thickness_at(far)).abs() < 1e-9);
        assert!(tc.needs_forcing());
        assert!(!TestCase::Case5.needs_forcing());
    }

    #[test]
    fn galewsky_jet_profile_and_bump() {
        let lat0 = std::f64::consts::PI / 7.0;
        let lat1 = std::f64::consts::FRAC_PI_2 - lat0;
        let mid = 0.5 * (lat0 + lat1);
        assert!((galewsky_u(mid) - 80.0).abs() < 1e-9, "jet max at midpoint");
        assert_eq!(galewsky_u(lat0), 0.0);
        assert_eq!(galewsky_u(lat1), 0.0);
        let tc = TestCase::Galewsky;
        // Height drops ~1.4 km across the jet; bump adds ~+100 m near
        // (0, pi/4) relative to the zonally symmetric base at lon = pi.
        let south = tc.thickness_at(LonLat::new(0.5, 0.0).to_unit_vector());
        let north = tc.thickness_at(LonLat::new(0.5, 1.4).to_unit_vector());
        assert!(south - north > 1000.0, "jump {south} -> {north}");
        let at_bump =
            tc.thickness_at(LonLat::new(0.0, std::f64::consts::FRAC_PI_4).to_unit_vector());
        let base = tc.thickness_at(
            LonLat::new(std::f64::consts::PI, std::f64::consts::FRAC_PI_4).to_unit_vector(),
        );
        assert!(at_bump - base > 50.0, "bump missing: {at_bump} vs {base}");
    }

    #[test]
    fn tracer_fields_are_mixing_ratios_in_range() {
        let tc = TestCase::Case5;
        let mesh = mpas_mesh::generate(2, 0);
        let s = tc.initial_state_with_tracers(&mesh, 3);
        assert_eq!(s.tracers.len(), 3);
        for (k, tr) in s.tracers.iter().enumerate() {
            for (i, &hq) in tr.iter().enumerate() {
                let q = hq / s.h[i];
                assert!((0.0..=1.0 + 1e-12).contains(&q), "tracer {k} q = {q}");
            }
        }
        // Tracer 0 is the constant-1 probe: hq == h bitwise at init.
        assert_eq!(s.tracers[0], s.h);
    }

    #[test]
    fn initial_state_samples_consistently() {
        let mesh = mpas_mesh::generate(2, 0);
        let tc = TestCase::Case5;
        let s = tc.initial_state(&mesh);
        assert_eq!(s.h.len(), mesh.n_cells());
        assert_eq!(s.u.len(), mesh.n_edges());
        assert!(s.h.iter().all(|&h| h > 3000.0));
        let b = tc.topography(&mesh);
        assert!(b.iter().any(|&x| x > 1000.0), "mountain missing from mesh");
    }
}
