//! Cross-executor equivalence matrix over the full scenario catalog.
//!
//! The repo's central numerical contract is that every executor computes
//! bitwise-identical prognostic fields — the pattern kernels are free
//! functions over explicit index ranges, and the executors differ only in
//! which pool computes which range. This test drives that contract
//! through *every* catalog scenario (all six Williamson cases, Galewsky,
//! and the tracer variant) on all four engines: serial, threaded, hybrid,
//! and the 4-rank distributed driver — and through every kernel tier
//! (scalar, simd), since the backend switch must be invisible to the
//! executors. The FNV digest covers `h`, `u`, and every tracer-mass field,
//! so a single flipped mantissa bit anywhere fails the matrix. One extra
//! row covers the terms the catalog leaves off: del2 and del4 viscosity
//! and the high-order thickness flux.

use mpas_core::{build_mesh, run_distributed, state_hash, DistributedConfig, Executor, Simulation};
use mpas_mesh::{Mesh, Reordering};
use mpas_swe::validation::CATALOG;
use mpas_swe::{KernelBackend, ModelConfig};
use std::sync::Arc;

const STEPS: usize = 5;

fn run_engine(
    mesh: &Arc<Mesh>,
    config: ModelConfig,
    tc: mpas_swe::TestCase,
    dt: f64,
    executor: Executor,
) -> u64 {
    let mut sim = Simulation::builder()
        .mesh(mesh.clone())
        .test_case(tc)
        .config(config)
        .executor(executor)
        .dt(dt)
        .build();
    sim.run_steps(STEPS);
    state_hash(sim.state())
}

/// Run `config` on every engine and require the serial digest from each.
fn assert_engines_agree(
    mesh: &Arc<Mesh>,
    config: ModelConfig,
    tc: mpas_swe::TestCase,
    dt: f64,
    tag: &str,
) {
    let serial = run_engine(mesh, config, tc, dt, Executor::Serial);
    let threaded = run_engine(mesh, config, tc, dt, Executor::Threaded { threads: 4 });
    let hybrid = run_engine(
        mesh,
        config,
        tc,
        dt,
        Executor::Hybrid {
            cpu_threads: 2,
            acc_threads: 2,
        },
    );
    assert_eq!(serial, threaded, "{tag}: threaded differs from serial");
    assert_eq!(serial, hybrid, "{tag}: hybrid differs from serial");

    let dist = run_distributed(
        mesh,
        DistributedConfig {
            n_ranks: 4,
            halo_layers: 3,
            model: config,
            test_case: tc,
            dt,
            n_steps: STEPS,
        },
    );
    assert_eq!(
        serial,
        state_hash(&dist),
        "{tag}: distributed differs from serial"
    );
}

#[test]
fn every_catalog_case_is_bitwise_identical_across_executors() {
    let mesh = build_mesh(3, 0, Reordering::None);
    let dt = ModelConfig::suggested_dt(&mesh);
    for sc in &CATALOG {
        for backend in KernelBackend::ALL {
            let config = ModelConfig {
                kernel_backend: backend,
                ..sc.config()
            };
            let tag = format!("{} ({})", sc.name, backend.name());
            assert_engines_agree(&mesh, config, sc.test_case, dt, &tag);
        }
    }
}

/// The catalog runs inviscid with the low-order thickness flux, so it never
/// reaches the C1 del2/del4 chain or the D1/D2 blend; this row turns all
/// three on for the Rossby-Haurwitz wave.
#[test]
fn viscous_high_order_case6_is_bitwise_identical_across_executors() {
    let mesh = build_mesh(3, 0, Reordering::None);
    let dt = ModelConfig::suggested_dt(&mesh);
    for backend in KernelBackend::ALL {
        let config = ModelConfig {
            kernel_backend: backend,
            del2_viscosity: 1.0e5,
            del4_viscosity: 5.0e14,
            high_order_h_edge: true,
            ..ModelConfig::default()
        };
        let tag = format!("viscous williamson-6 ({})", backend.name());
        assert_engines_agree(&mesh, config, mpas_swe::TestCase::Case6, dt, &tag);
    }
}

/// The layered facade: a k-layer simd `Simulation` exposes its layer-0
/// fields through the same `state()` accessor, and layer 0 must be
/// bitwise identical to the flat serial run — the lane-replay
/// contract of DESIGN.md §14 surfaced at the service-facing API.
#[test]
fn layered_facade_layer0_matches_flat_runs_bitwise() {
    let mesh = build_mesh(3, 0, Reordering::None);
    let dt = ModelConfig::suggested_dt(&mesh);
    let tc = mpas_swe::TestCase::Case5;
    let flat = run_engine(&mesh, ModelConfig::default(), tc, dt, Executor::Serial);

    let mut sim = Simulation::builder()
        .mesh(mesh.clone())
        .test_case(tc)
        .config(ModelConfig {
            kernel_backend: KernelBackend::Simd,
            n_layers: 4,
            ..Default::default()
        })
        .executor(Executor::Serial)
        .dt(dt)
        .build();
    assert_eq!(sim.n_layers(), 4);
    sim.run_steps(STEPS);
    assert_eq!(
        state_hash(sim.state()),
        flat,
        "layer 0 of the layered facade diverged from the flat run"
    );
    // The full-state digest folds all k lanes, so it must differ from the
    // single-layer digest (deeper layers carry perturbed thickness).
    assert_ne!(sim.state_digest(), flat);
}
