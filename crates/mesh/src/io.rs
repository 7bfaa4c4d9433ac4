//! Binary mesh files.
//!
//! MPAS's initialization phase reads pre-generated mesh files (the paper's
//! §II.B three-phase structure). Generating the 15-km mesh takes minutes,
//! so this module provides a compact little-endian binary format to
//! generate once and reload instantly. The format is self-describing
//! enough to reject foreign files (magic + version + counts), but it is
//! not meant as an interchange format — it mirrors [`Mesh`] field-for-field.

use crate::mesh::Mesh;
use mpas_geom::Vec3;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"MPASMSH1";

fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_f64s(w: &mut impl Write, xs: &[f64]) -> io::Result<()> {
    write_u64(w, xs.len() as u64)?;
    for &x in xs {
        w.write_all(&x.to_le_bytes())?;
    }
    Ok(())
}

fn write_u32s(w: &mut impl Write, xs: &[u32]) -> io::Result<()> {
    write_u64(w, xs.len() as u64)?;
    for &x in xs {
        w.write_all(&x.to_le_bytes())?;
    }
    Ok(())
}

fn write_i8s(w: &mut impl Write, xs: &[i8]) -> io::Result<()> {
    write_u64(w, xs.len() as u64)?;
    for &x in xs {
        w.write_all(&x.to_le_bytes())?;
    }
    Ok(())
}

fn write_vec3s(w: &mut impl Write, xs: &[Vec3]) -> io::Result<()> {
    write_u64(w, xs.len() as u64)?;
    for v in xs {
        w.write_all(&v.x.to_le_bytes())?;
        w.write_all(&v.y.to_le_bytes())?;
        w.write_all(&v.z.to_le_bytes())?;
    }
    Ok(())
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_f64s(r: &mut impl Read) -> io::Result<Vec<f64>> {
    let n = read_u64(r)? as usize;
    let mut out = Vec::with_capacity(n);
    let mut b = [0u8; 8];
    for _ in 0..n {
        r.read_exact(&mut b)?;
        out.push(f64::from_le_bytes(b));
    }
    Ok(out)
}

fn read_u32s(r: &mut impl Read) -> io::Result<Vec<u32>> {
    let n = read_u64(r)? as usize;
    let mut out = Vec::with_capacity(n);
    let mut b = [0u8; 4];
    for _ in 0..n {
        r.read_exact(&mut b)?;
        out.push(u32::from_le_bytes(b));
    }
    Ok(out)
}

fn read_i8s(r: &mut impl Read) -> io::Result<Vec<i8>> {
    let n = read_u64(r)? as usize;
    let mut out = vec![0u8; n];
    r.read_exact(&mut out)?;
    Ok(out.into_iter().map(|b| b as i8).collect())
}

fn read_vec3s(r: &mut impl Read) -> io::Result<Vec<Vec3>> {
    let n = read_u64(r)? as usize;
    let mut out = Vec::with_capacity(n);
    let mut b = [0u8; 8];
    for _ in 0..n {
        let mut v = [0.0f64; 3];
        for c in v.iter_mut() {
            r.read_exact(&mut b)?;
            *c = f64::from_le_bytes(b);
        }
        out.push(Vec3::new(v[0], v[1], v[2]));
    }
    Ok(out)
}

/// Write a mesh to a binary file.
pub fn save_mesh(mesh: &Mesh, path: impl AsRef<Path>) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    write_mesh(mesh, &mut w)?;
    w.flush()
}

/// Write the file image of `mesh`: every field, bit for bit.
fn write_mesh(mesh: &Mesh, mut w: impl Write) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&mesh.sphere_radius.to_le_bytes())?;
    write_vec3s(&mut w, &mesh.x_cell)?;
    write_vec3s(&mut w, &mesh.x_edge)?;
    write_vec3s(&mut w, &mesh.x_vertex)?;
    let flat2 = |xs: &Vec<[u32; 2]>| -> Vec<u32> { xs.iter().flatten().copied().collect() };
    let flat3 = |xs: &Vec<[u32; 3]>| -> Vec<u32> { xs.iter().flatten().copied().collect() };
    write_u32s(&mut w, &flat2(&mesh.cells_on_edge))?;
    write_u32s(&mut w, &flat2(&mesh.vertices_on_edge))?;
    write_u32s(&mut w, &flat3(&mesh.cells_on_vertex))?;
    write_u32s(&mut w, &flat3(&mesh.edges_on_vertex))?;
    write_u32s(&mut w, &mesh.cell_offsets)?;
    write_u32s(&mut w, &mesh.edges_on_cell)?;
    write_u32s(&mut w, &mesh.vertices_on_cell)?;
    write_u32s(&mut w, &mesh.cells_on_cell)?;
    write_i8s(&mut w, &mesh.edge_sign_on_cell)?;
    write_u32s(&mut w, &mesh.eoe_offsets)?;
    write_u32s(&mut w, &mesh.edges_on_edge)?;
    write_f64s(&mut w, &mesh.weights_on_edge)?;
    write_f64s(&mut w, &mesh.dc_edge)?;
    write_f64s(&mut w, &mesh.dv_edge)?;
    write_f64s(&mut w, &mesh.area_cell)?;
    write_f64s(&mut w, &mesh.area_triangle)?;
    let kites: Vec<f64> = mesh
        .kite_areas_on_vertex
        .iter()
        .flatten()
        .copied()
        .collect();
    write_f64s(&mut w, &kites)?;
    write_vec3s(&mut w, &mesh.normal_edge)?;
    write_vec3s(&mut w, &mesh.tangent_edge)?;
    let vsigns: Vec<i8> = mesh.edge_sign_on_vertex.iter().flatten().copied().collect();
    write_i8s(&mut w, &vsigns)?;
    let boundary: Vec<i8> = mesh
        .boundary_edge
        .iter()
        .map(|&b| if b { 1 } else { 0 })
        .collect();
    write_i8s(&mut w, &boundary)
}

/// FNV-1a digest of the file image of `mesh`: equal digests mean equal
/// meshes, bit for bit. The image is hashed as it is written, never held.
#[cfg(test)]
pub(crate) fn mesh_digest(mesh: &Mesh) -> u64 {
    struct Fnv1a(u64);
    impl Write for Fnv1a {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.0 = bytes.iter().fold(self.0, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            });
            Ok(bytes.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    let mut hash = Fnv1a(0xcbf2_9ce4_8422_2325);
    write_mesh(mesh, &mut hash).expect("hashing cannot fail");
    hash.0
}

/// Read a mesh written by [`save_mesh`].
pub fn load_mesh(path: impl AsRef<Path>) -> io::Result<Mesh> {
    let mut r = BufReader::new(std::fs::File::open(path)?);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not an MPASMSH1 mesh file",
        ));
    }
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    let sphere_radius = f64::from_le_bytes(b);

    let x_cell = read_vec3s(&mut r)?;
    let x_edge = read_vec3s(&mut r)?;
    let x_vertex = read_vec3s(&mut r)?;
    let unflat2 =
        |xs: Vec<u32>| -> Vec<[u32; 2]> { xs.chunks_exact(2).map(|c| [c[0], c[1]]).collect() };
    let unflat3 = |xs: Vec<u32>| -> Vec<[u32; 3]> {
        xs.chunks_exact(3).map(|c| [c[0], c[1], c[2]]).collect()
    };
    let cells_on_edge = unflat2(read_u32s(&mut r)?);
    let vertices_on_edge = unflat2(read_u32s(&mut r)?);
    let cells_on_vertex = unflat3(read_u32s(&mut r)?);
    let edges_on_vertex = unflat3(read_u32s(&mut r)?);
    let cell_offsets = read_u32s(&mut r)?;
    let edges_on_cell = read_u32s(&mut r)?;
    let vertices_on_cell = read_u32s(&mut r)?;
    let cells_on_cell = read_u32s(&mut r)?;
    let edge_sign_on_cell = read_i8s(&mut r)?;
    let eoe_offsets = read_u32s(&mut r)?;
    let edges_on_edge = read_u32s(&mut r)?;
    let weights_on_edge = read_f64s(&mut r)?;
    let dc_edge = read_f64s(&mut r)?;
    let dv_edge = read_f64s(&mut r)?;
    let area_cell = read_f64s(&mut r)?;
    let area_triangle = read_f64s(&mut r)?;
    let kites = read_f64s(&mut r)?;
    let kite_areas_on_vertex: Vec<[f64; 3]> =
        kites.chunks_exact(3).map(|c| [c[0], c[1], c[2]]).collect();
    let normal_edge = read_vec3s(&mut r)?;
    let tangent_edge = read_vec3s(&mut r)?;
    let vsigns = read_i8s(&mut r)?;
    let edge_sign_on_vertex: Vec<[i8; 3]> =
        vsigns.chunks_exact(3).map(|c| [c[0], c[1], c[2]]).collect();
    let boundary_edge: Vec<bool> = read_i8s(&mut r)?.into_iter().map(|b| b != 0).collect();

    Ok(Mesh {
        sphere_radius,
        x_cell,
        x_edge,
        x_vertex,
        cells_on_edge,
        vertices_on_edge,
        cells_on_vertex,
        edges_on_vertex,
        cell_offsets,
        edges_on_cell,
        vertices_on_cell,
        cells_on_cell,
        edge_sign_on_cell,
        eoe_offsets,
        edges_on_edge,
        weights_on_edge,
        dc_edge,
        dv_edge,
        area_cell,
        area_triangle,
        kite_areas_on_vertex,
        normal_edge,
        tangent_edge,
        edge_sign_on_vertex,
        boundary_edge,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_every_field() {
        let mesh = crate::generate(2, 0);
        let dir = std::env::temp_dir();
        let path = dir.join("mpas_mesh_roundtrip_test.msh");
        save_mesh(&mesh, &path).unwrap();
        let back = load_mesh(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(mesh.sphere_radius, back.sphere_radius);
        assert_eq!(mesh.x_cell, back.x_cell);
        assert_eq!(mesh.cells_on_edge, back.cells_on_edge);
        assert_eq!(mesh.vertices_on_edge, back.vertices_on_edge);
        assert_eq!(mesh.cells_on_vertex, back.cells_on_vertex);
        assert_eq!(mesh.edges_on_vertex, back.edges_on_vertex);
        assert_eq!(mesh.cell_offsets, back.cell_offsets);
        assert_eq!(mesh.edges_on_cell, back.edges_on_cell);
        assert_eq!(mesh.vertices_on_cell, back.vertices_on_cell);
        assert_eq!(mesh.cells_on_cell, back.cells_on_cell);
        assert_eq!(mesh.edge_sign_on_cell, back.edge_sign_on_cell);
        assert_eq!(mesh.eoe_offsets, back.eoe_offsets);
        assert_eq!(mesh.edges_on_edge, back.edges_on_edge);
        assert_eq!(mesh.weights_on_edge, back.weights_on_edge);
        assert_eq!(mesh.dc_edge, back.dc_edge);
        assert_eq!(mesh.dv_edge, back.dv_edge);
        assert_eq!(mesh.area_cell, back.area_cell);
        assert_eq!(mesh.area_triangle, back.area_triangle);
        assert_eq!(mesh.kite_areas_on_vertex, back.kite_areas_on_vertex);
        assert_eq!(mesh.normal_edge, back.normal_edge);
        assert_eq!(mesh.tangent_edge, back.tangent_edge);
        assert_eq!(mesh.edge_sign_on_vertex, back.edge_sign_on_vertex);
        assert_eq!(mesh.boundary_edge, back.boundary_edge);

        // A loaded mesh passes full validation.
        back.validate();
    }

    #[test]
    fn foreign_files_are_rejected() {
        let dir = std::env::temp_dir();
        let path = dir.join("mpas_mesh_bad_magic_test.msh");
        std::fs::write(&path, b"NOTAMESH-and-more-bytes").unwrap();
        let err = load_mesh(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_files_error_cleanly() {
        let mesh = crate::generate(1, 0);
        let dir = std::env::temp_dir();
        let path = dir.join("mpas_mesh_truncated_test.msh");
        save_mesh(&mesh, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(load_mesh(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
