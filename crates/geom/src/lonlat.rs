//! Longitude/latitude coordinates and local tangent bases.
//!
//! Longitude is in `[0, 2*pi)`, latitude in `[-pi/2, pi/2]`, following the
//! MPAS mesh-file convention.

use crate::Vec3;

/// A (longitude, latitude) pair in radians.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LonLat {
    /// Longitude in radians, `[0, 2π)`.
    pub lon: f64,
    /// Latitude in radians, `[-π/2, π/2]`.
    pub lat: f64,
}

impl LonLat {
    /// Construct from radians, normalizing longitude into `[0, 2*pi)`.
    pub fn new(lon: f64, lat: f64) -> Self {
        let two_pi = 2.0 * std::f64::consts::PI;
        let mut lon = lon % two_pi;
        if lon < 0.0 {
            lon += two_pi;
        }
        LonLat { lon, lat }
    }

    /// Unit-sphere Cartesian position.
    pub fn to_unit_vector(self) -> Vec3 {
        Vec3::new(
            self.lat.cos() * self.lon.cos(),
            self.lat.cos() * self.lon.sin(),
            self.lat.sin(),
        )
    }
}

/// Convert a (not necessarily unit) Cartesian position to lon/lat.
pub fn to_lonlat(p: Vec3) -> LonLat {
    LonLat::new(p.y.atan2(p.x), latitude(p))
}

/// The latitude of [`to_lonlat`] alone, for callers that never read the
/// longitude (same operations, same bits, no `atan2`).
pub fn latitude(p: Vec3) -> f64 {
    let r = p.norm();
    debug_assert!(r > 0.0);
    (p.z / r).clamp(-1.0, 1.0).asin()
}

/// Local eastward unit vector at `p` (tangent to the latitude circle).
///
/// At the exact poles (where longitude is degenerate) the limit along the
/// `lon = 0` meridian is used, matching the MPAS convention for polar
/// points: `east = ŷ` at both poles.
pub fn east_at(p: Vec3) -> Vec3 {
    let e = Vec3::Z.cross(p);
    if e.norm() < 1e-12 {
        return Vec3::Y;
    }
    e.normalized()
}

/// Local northward unit vector at `p` (tangent, toward the north pole).
///
/// Uses the same `lon = 0` limit at the poles: `north = ∓x̂` at the
/// north/south pole respectively.
pub fn north_at(p: Vec3) -> Vec3 {
    let p = p.normalized();
    let e = Vec3::Z.cross(p);
    if e.norm() < 1e-12 {
        return Vec3::new(-p.z.signum(), 0.0, 0.0);
    }
    p.cross(e).normalized()
}

/// Decompose a Cartesian tangent vector at `p` into (zonal, meridional)
/// components. This is the `uReconstructZonal/Meridional` rotation of the
/// MPAS `mpas_reconstruct` kernel.
pub fn to_zonal_meridional(p: Vec3, v: Vec3) -> (f64, f64) {
    (v.dot(east_at(p)), v.dot(north_at(p)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn roundtrip_lonlat_cartesian() {
        for &(lon, lat) in &[(0.0, 0.0), (1.0, 0.5), (3.5, -1.2), (6.0, 1.5)] {
            let ll = LonLat::new(lon, lat);
            let back = to_lonlat(ll.to_unit_vector());
            assert!((back.lon - ll.lon).abs() < 1e-12, "{lon} {lat}");
            assert!((back.lat - ll.lat).abs() < 1e-12);
        }
    }

    #[test]
    fn lon_normalization() {
        let ll = LonLat::new(-PI / 2.0, 0.0);
        assert!((ll.lon - 1.5 * PI).abs() < 1e-12);
    }

    #[test]
    fn east_north_orthonormal_tangent_frame() {
        let p = LonLat::new(1.1, 0.4).to_unit_vector();
        let e = east_at(p);
        let n = north_at(p);
        assert!(e.dot(p).abs() < 1e-12);
        assert!(n.dot(p).abs() < 1e-12);
        assert!(e.dot(n).abs() < 1e-12);
        assert!((e.norm() - 1.0).abs() < 1e-12);
        assert!((n.norm() - 1.0).abs() < 1e-12);
        // Right-handed: east x north = up.
        assert!(e.cross(n).dist(p) < 1e-12);
    }

    #[test]
    fn east_points_along_increasing_longitude() {
        let p = LonLat::new(0.0, 0.0).to_unit_vector(); // (1,0,0)
        assert!(east_at(p).dist(Vec3::Y) < 1e-12);
        assert!(north_at(p).dist(Vec3::Z) < 1e-12);
    }

    #[test]
    fn zonal_meridional_decomposition() {
        let p = LonLat::new(0.7, -0.3).to_unit_vector();
        let v = east_at(p) * 3.0 + north_at(p) * (-2.0);
        let (u, w) = to_zonal_meridional(p, v);
        assert!((u - 3.0).abs() < 1e-12);
        assert!((w + 2.0).abs() < 1e-12);
    }
}
