//! Williamson test case 6 — a wavenumber-4 Rossby–Haurwitz wave — with
//! conservation monitoring: total mass is conserved to machine precision
//! by the TRiSK scheme and total energy / potential enstrophy drift only
//! through time-truncation error.
//!
//! ```text
//! cargo run --release --example rossby_haurwitz -- [hours] [level]
//! ```

use mpas_repro::swe::{ModelConfig, ShallowWaterModel, TestCase};
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let hours: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(12.0);
    let level: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(5);

    let mesh = Arc::new(mpas_repro::mesh::generate(level, 0));
    let mut m = ShallowWaterModel::new(mesh.clone(), ModelConfig::default(), TestCase::Case6, None);
    let steps = ((hours * 3600.0) / m.dt).ceil() as usize;
    println!(
        "Rossby–Haurwitz wave on {} cells, dt = {:.0} s, {steps} steps",
        mesh.n_cells(),
        m.dt
    );

    let mass0 = m.total_mass();
    let energy0 = m.total_energy();
    let enstrophy0 = m.potential_enstrophy();
    let report_every = (steps / 6).max(1);
    for s in 1..=steps {
        m.step();
        if s % report_every == 0 || s == steps {
            println!(
                "t = {:6.1} h  mass {:+.2e}  energy {:+.2e}  enstrophy {:+.2e}",
                m.time / 3600.0,
                (m.total_mass() - mass0) / mass0,
                (m.total_energy() - energy0) / energy0,
                (m.potential_enstrophy() - enstrophy0) / enstrophy0,
            );
        }
    }

    let outputs = m.cell_outputs().expect("a single-layer model has outputs");
    let zonal_max = outputs.zonal.iter().cloned().fold(f64::MIN, f64::max);
    println!("max reconstructed zonal wind: {zonal_max:.1} m/s");
    assert!(((m.total_mass() - mass0) / mass0).abs() < 1e-12);
    println!("OK: mass conserved to machine precision.");
}
