//! Checkpoint/restart of the prognostic state.
//!
//! MPAS's finalization phase writes the computation results back to disk
//! (§II.B); this module provides the equivalent: a compact binary snapshot
//! of `(time, h, u, tracers)` that restarts a run bit-for-bit (restart
//! equivalence is asserted by integration tests — the result of `run(5);
//! save; load; run(5)` equals `run(10)` exactly, since RK4 carries no
//! other state between steps).
//!
//! Two on-disk formats are understood:
//!
//! * `MPASSTA3` (written for layered runs) — `time, n_layers, n_h, n_u,
//!   n_tracers`, then the lane-interleaved layered f64 payloads of `h`
//!   (`n_h` = cells·k), `u` and each tracer-mass field, little-endian.
//! * `MPASSTA2` (written for single-layer runs) — `time, n_h, n_u,
//!   n_tracers`, then the raw little-endian f64 payload of `h`, `u` and
//!   each tracer-mass field.
//!
//! Any other file, the pre-tracer `MPASSTA1` included, is rejected with
//! [`io::ErrorKind::InvalidData`].

use crate::state::State;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC_V2: &[u8; 8] = b"MPASSTA2";
const MAGIC_V3: &[u8; 8] = b"MPASSTA3";

fn write_f64s(w: &mut impl Write, xs: &[f64]) -> io::Result<()> {
    for &x in xs {
        w.write_all(&x.to_le_bytes())?;
    }
    Ok(())
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_f64s(r: &mut impl Read, n: usize) -> io::Result<Vec<f64>> {
    let mut out = Vec::with_capacity(n);
    let mut b = [0u8; 8];
    for _ in 0..n {
        r.read_exact(&mut b)?;
        out.push(f64::from_le_bytes(b));
    }
    Ok(out)
}

/// Write a state snapshot (current `MPASSTA2` format).
pub fn save_state(state: &State, time: f64, path: impl AsRef<Path>) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    w.write_all(MAGIC_V2)?;
    w.write_all(&time.to_le_bytes())?;
    w.write_all(&(state.h.len() as u64).to_le_bytes())?;
    w.write_all(&(state.u.len() as u64).to_le_bytes())?;
    w.write_all(&(state.tracers.len() as u64).to_le_bytes())?;
    write_f64s(&mut w, &state.h)?;
    write_f64s(&mut w, &state.u)?;
    for tr in &state.tracers {
        write_f64s(&mut w, tr)?;
    }
    w.flush()
}

/// Read a snapshot written by [`save_state`]. Returns `(state, time)`.
pub fn load_state(path: impl AsRef<Path>) -> io::Result<(State, f64)> {
    let mut r = BufReader::new(std::fs::File::open(path)?);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC_V2 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not an MPASSTA2 state file",
        ));
    }
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    let time = f64::from_le_bytes(b);
    let nh = read_u64(&mut r)? as usize;
    let nu = read_u64(&mut r)? as usize;
    let nt = read_u64(&mut r)? as usize;
    let h = read_f64s(&mut r, nh)?;
    let u = read_f64s(&mut r, nu)?;
    let mut tracers = Vec::with_capacity(nt);
    for _ in 0..nt {
        tracers.push(read_f64s(&mut r, nh)?);
    }
    Ok((State { h, u, tracers }, time))
}

/// Write a `k`-lane snapshot (`MPASSTA3`). The lane-interleaved payloads
/// are written verbatim, so the round trip is bitwise for every layer.
pub fn save_layered_state(
    state: &State,
    k: usize,
    time: f64,
    path: impl AsRef<Path>,
) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    w.write_all(MAGIC_V3)?;
    w.write_all(&time.to_le_bytes())?;
    w.write_all(&(k as u64).to_le_bytes())?;
    w.write_all(&(state.h.len() as u64).to_le_bytes())?;
    w.write_all(&(state.u.len() as u64).to_le_bytes())?;
    w.write_all(&(state.tracers.len() as u64).to_le_bytes())?;
    write_f64s(&mut w, &state.h)?;
    write_f64s(&mut w, &state.u)?;
    for tr in &state.tracers {
        write_f64s(&mut w, tr)?;
    }
    w.flush()
}

/// Read a layered snapshot written by [`save_layered_state`]. Returns
/// `(state, k, time)`.
pub fn load_layered_state(path: impl AsRef<Path>) -> io::Result<(State, usize, f64)> {
    let mut r = BufReader::new(std::fs::File::open(path)?);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC_V3 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not an MPASSTA3 layered state file",
        ));
    }
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    let time = f64::from_le_bytes(b);
    let n_layers = read_u64(&mut r)? as usize;
    if n_layers == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "layered checkpoint declares zero layers",
        ));
    }
    let nh = read_u64(&mut r)? as usize;
    let nu = read_u64(&mut r)? as usize;
    let nt = read_u64(&mut r)? as usize;
    if !nh.is_multiple_of(n_layers) || !nu.is_multiple_of(n_layers) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "layered checkpoint payload is not a multiple of n_layers",
        ));
    }
    let h = read_f64s(&mut r, nh)?;
    let u = read_f64s(&mut r, nu)?;
    let mut tracers = Vec::with_capacity(nt);
    for _ in 0..nt {
        tracers.push(read_f64s(&mut r, nh)?);
    }
    Ok((State { h, u, tracers }, n_layers, time))
}

impl crate::model::ShallowWaterModel {
    /// Write the current state and model time to a checkpoint file:
    /// `MPASSTA2` for a single-layer run, `MPASSTA3` with every lane
    /// otherwise.
    pub fn save_checkpoint(&self, path: impl AsRef<Path>) -> io::Result<()> {
        match self.n_layers() {
            1 => save_state(&self.state, self.time, path),
            k => save_layered_state(&self.state, k, self.time, path),
        }
    }

    /// Restore state and time from a checkpoint of this model's format
    /// (mesh/test case must match the one the checkpoint was written with;
    /// layer count, sizes and tracer count are verified). Diagnostics are
    /// recomputed so the next step proceeds exactly as if the run had never
    /// stopped.
    pub fn load_checkpoint(&mut self, path: impl AsRef<Path>) -> io::Result<()> {
        let k = self.n_layers();
        let (state, time) = if k == 1 {
            load_state(path)?
        } else {
            let (state, n_layers, time) = load_layered_state(path)?;
            if n_layers != k {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("checkpoint carries {n_layers} layer(s), model expects {k}"),
                ));
            }
            (state, time)
        };
        if state.h.len() != self.mesh.n_cells() * k || state.u.len() != self.mesh.n_edges() * k {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "checkpoint size does not match the mesh",
            ));
        }
        if state.n_tracers() != self.config.n_tracers {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "checkpoint carries {} tracer(s), model expects {}",
                    state.n_tracers(),
                    self.config.n_tracers
                ),
            ));
        }
        self.state = state;
        self.time = time;
        self.refresh_diagnostics();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::model::ShallowWaterModel;
    use crate::testcases::TestCase;
    use std::sync::Arc;

    #[test]
    fn snapshot_roundtrip_with_tracers() {
        let state = State {
            h: vec![1.5, 2.5, -3.25],
            u: vec![0.125, 9.75],
            tracers: vec![vec![0.5, 0.25, 4.0], vec![-1.0, 2.0, 0.0]],
        };
        let path = std::env::temp_dir().join("mpas_state_roundtrip.bin");
        save_state(&state, 1234.5, &path).unwrap();
        let (back, t) = load_state(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, state);
        assert_eq!(t, 1234.5);
    }

    #[test]
    fn v1_files_are_rejected_as_invalid_data() {
        // Hand-write the pre-tracer layout: magic, time, n_h, n_u, payload.
        let path = std::env::temp_dir().join("mpas_state_v1.bin");
        let mut w = BufWriter::new(std::fs::File::create(&path).unwrap());
        w.write_all(b"MPASSTA1").unwrap();
        w.write_all(&42.0f64.to_le_bytes()).unwrap();
        w.write_all(&2u64.to_le_bytes()).unwrap();
        w.write_all(&1u64.to_le_bytes()).unwrap();
        write_f64s(&mut w, &[7.0, 8.0]).unwrap();
        write_f64s(&mut w, &[9.0]).unwrap();
        w.flush().unwrap();
        drop(w);
        let err = load_state(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn restart_is_bitwise_exact() {
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        let cfg = ModelConfig::default();
        let tc = TestCase::Case5;
        let path = std::env::temp_dir().join("mpas_restart_test.bin");

        let mut straight = ShallowWaterModel::new(mesh.clone(), cfg, tc, None);
        straight.run_steps(10);

        let mut resumed = ShallowWaterModel::new(mesh.clone(), cfg, tc, None);
        resumed.run_steps(5);
        resumed.save_checkpoint(&path).unwrap();
        // A fresh model (even advanced elsewhere) restores exactly.
        let mut fresh = ShallowWaterModel::new(mesh, cfg, tc, None);
        fresh.run_steps(2);
        fresh.load_checkpoint(&path).unwrap();
        std::fs::remove_file(&path).ok();
        fresh.run_steps(5);

        assert_eq!(straight.state.max_abs_diff(&fresh.state), 0.0);
        assert_eq!(straight.time, fresh.time);
    }

    #[test]
    fn restart_round_trips_tracer_fields_bitwise() {
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        let cfg = ModelConfig {
            n_tracers: 2,
            ..Default::default()
        };
        let tc = TestCase::Case5;
        let path = std::env::temp_dir().join("mpas_restart_tracers.bin");

        let mut straight = ShallowWaterModel::new(mesh.clone(), cfg, tc, None);
        straight.run_steps(8);

        let mut resumed = ShallowWaterModel::new(mesh.clone(), cfg, tc, None);
        resumed.run_steps(3);
        resumed.save_checkpoint(&path).unwrap();
        let mut fresh = ShallowWaterModel::new(mesh, cfg, tc, None);
        fresh.load_checkpoint(&path).unwrap();
        std::fs::remove_file(&path).ok();
        fresh.run_steps(5);

        assert_eq!(straight.state.n_tracers(), 2);
        assert_eq!(fresh.state.n_tracers(), 2);
        assert_eq!(straight.state.max_abs_diff(&fresh.state), 0.0);
    }

    fn layered_cfg(k: usize, n_tracers: usize) -> ModelConfig {
        ModelConfig {
            kernel_backend: crate::config::KernelBackend::Simd,
            n_layers: k,
            n_tracers,
            ..Default::default()
        }
    }

    #[test]
    fn layered_restart_is_bitwise_exact_including_tracers() {
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        let cfg = layered_cfg(3, 2);
        let tc = TestCase::Case5;
        let path = std::env::temp_dir().join("mpas_layered_restart.bin");

        let mut straight = ShallowWaterModel::new(mesh.clone(), cfg, tc, None);
        straight.run_steps(6);

        let mut resumed = ShallowWaterModel::new(mesh.clone(), cfg, tc, None);
        resumed.run_steps(3);
        resumed.save_checkpoint(&path).unwrap();
        let mut fresh = ShallowWaterModel::new(mesh, cfg, tc, None);
        fresh.run_steps(1);
        fresh.load_checkpoint(&path).unwrap();
        std::fs::remove_file(&path).ok();
        fresh.run_steps(3);

        // Every lane of every field — including both tracer fields — must
        // round-trip bit for bit (compare the layered hash AND the raw
        // payloads so a hash collision can't mask a diff).
        assert_eq!(straight.state, fresh.state);
        assert_eq!(straight.layer0(), fresh.layer0());
        assert_eq!(straight.time, fresh.time);
    }

    #[test]
    fn layered_checkpoint_layer_count_mismatch_is_rejected() {
        let mesh = Arc::new(mpas_mesh::generate(2, 0));
        let tc = TestCase::Case5;
        let path = std::env::temp_dir().join("mpas_layered_kmismatch.bin");
        let m = ShallowWaterModel::new(mesh.clone(), layered_cfg(4, 0), tc, None);
        m.save_checkpoint(&path).unwrap();
        let mut other = ShallowWaterModel::new(mesh, layered_cfg(2, 0), tc, None);
        let err = other.load_checkpoint(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn layered_loader_rejects_flat_files_and_vice_versa() {
        let mesh = Arc::new(mpas_mesh::generate(2, 0));
        let tc = TestCase::Case5;
        let flat_path = std::env::temp_dir().join("mpas_flat_for_layered.bin");
        let m = ShallowWaterModel::new(mesh.clone(), ModelConfig::default(), tc, None);
        m.save_checkpoint(&flat_path).unwrap();
        assert!(load_layered_state(&flat_path).is_err());
        std::fs::remove_file(&flat_path).ok();

        let layered_path = std::env::temp_dir().join("mpas_layered_for_flat.bin");
        let lm = ShallowWaterModel::new(mesh, layered_cfg(2, 0), tc, None);
        lm.save_checkpoint(&layered_path).unwrap();
        assert!(load_state(&layered_path).is_err());
        std::fs::remove_file(&layered_path).ok();
    }

    #[test]
    fn tracer_count_mismatch_is_rejected() {
        let mesh = Arc::new(mpas_mesh::generate(2, 0));
        let tc = TestCase::Case5;
        let with = ModelConfig {
            n_tracers: 1,
            ..Default::default()
        };
        let path = std::env::temp_dir().join("mpas_restart_tracer_mismatch.bin");
        let m = ShallowWaterModel::new(mesh.clone(), with, tc, None);
        m.save_checkpoint(&path).unwrap();
        let mut without = ShallowWaterModel::new(mesh, ModelConfig::default(), tc, None);
        let err = without.load_checkpoint(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn mismatched_checkpoint_is_rejected() {
        let mesh_small = Arc::new(mpas_mesh::generate(2, 0));
        let mesh_big = Arc::new(mpas_mesh::generate(3, 0));
        let cfg = ModelConfig::default();
        let tc = TestCase::Case2 { alpha: 0.0 };
        let path = std::env::temp_dir().join("mpas_restart_mismatch.bin");
        let small = ShallowWaterModel::new(mesh_small, cfg, tc, None);
        small.save_checkpoint(&path).unwrap();
        let mut big = ShallowWaterModel::new(mesh_big, cfg, tc, None);
        let err = big.load_checkpoint(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
