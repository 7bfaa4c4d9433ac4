//! Williamson test case 5 — zonal flow over an isolated mountain — the
//! scenario behind the paper's Fig. 5 correctness validation.
//!
//! Runs the serial reference and the two-pool hybrid executor side by side
//! and reports the total-height field statistics plus their difference.
//!
//! ```text
//! cargo run --release --example mountain_wave -- [days] [level]
//! ```

use mpas_repro::core::Executor;
use mpas_repro::swe::{ModelConfig, ShallowWaterModel, TestCase};
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let days: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(1.0);
    let level: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(5);

    println!("generating level-{level} mesh...");
    let mesh = Arc::new(mpas_repro::mesh::generate(level, 0));
    let cfg = ModelConfig::default();
    let tc = TestCase::Case5;

    let mut serial = ShallowWaterModel::new(mesh.clone(), cfg, tc, None);
    let executor = Executor::Hybrid {
        cpu_threads: 2,
        acc_threads: 2,
    };
    let mut hybrid = ShallowWaterModel::new_on(mesh.clone(), cfg, tc, None, executor.exec());
    let steps = serial.steps_for_days(days);
    println!(
        "running {steps} steps (dt = {:.0} s, {} cells) twice...",
        serial.dt,
        mesh.n_cells()
    );

    let mass0 = serial.total_mass();
    let energy0 = serial.total_energy();
    serial.run_steps(steps);
    hybrid.run_steps(steps);

    let th = serial.total_height();
    let th_hybrid = hybrid.total_height();

    let min = th.iter().cloned().fold(f64::MAX, f64::min);
    let max = th.iter().cloned().fold(f64::MIN, f64::max);
    println!("day {days}: total height h+b in [{min:.1}, {max:.1}] m");
    println!(
        "mass drift {:+.2e}, energy drift {:+.2e}",
        (serial.total_mass() - mass0) / mass0,
        (serial.total_energy() - energy0) / energy0
    );

    let maxdiff = th
        .iter()
        .zip(&th_hybrid)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("serial vs hybrid max |Δ(h+b)| = {maxdiff:.3e} m");
    assert_eq!(
        maxdiff, 0.0,
        "hybrid executor diverged from the serial code"
    );
    println!("OK: hybrid implementation matches the original bit-for-bit.");
}
