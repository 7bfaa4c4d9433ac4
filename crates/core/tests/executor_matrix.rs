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
//! and the high-order thickness flux. A last row checks what a step leaves
//! besides the state, each engine's diagnostics, and the output
//! diagnostics each engine computes on request.

use mpas_core::{build_mesh, run_distributed, state_hash, DistributedConfig, Executor, Simulation};
use mpas_mesh::{Mesh, Reordering};
use mpas_swe::kernels::{self, ops};
use mpas_swe::validation::CATALOG;
use mpas_swe::{
    CellOutputs, Diagnostics, InitialFields, KernelBackend, KernelCoeffs, ModelConfig,
    ShallowWaterModel, TestCase,
};
use std::sync::Arc;

const STEPS: usize = 5;

fn run_engine(
    mesh: &Arc<Mesh>,
    config: ModelConfig,
    tc: TestCase,
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
fn assert_engines_agree(mesh: &Arc<Mesh>, config: ModelConfig, tc: TestCase, dt: f64, tag: &str) {
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
        assert_engines_agree(&mesh, config, TestCase::Case6, dt, &tag);
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
    let tc = TestCase::Case5;
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

fn assert_same_bits(tag: &str, field: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{tag}: {field} length");
    if let Some(i) = (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
        panic!("{tag}: {field}[{i}] = {:e}, want {:e}", got[i], want[i]);
    }
}

/// Each step computes only what its data flow reads (no A3, A4 or X6),
/// yet every engine ends a step with diagnostics bit for bit equal to a
/// full refresh on its final state, and computes the output diagnostics on
/// request bit for bit as the seed kernels do on that state.
#[test]
fn end_of_step_diagnostics_and_reconstruction_match_a_full_refresh() {
    let mesh = build_mesh(3, 0, Reordering::None);
    let dt = ModelConfig::suggested_dt(&mesh);
    for tc in [TestCase::Case5, TestCase::Case6] {
        for backend in KernelBackend::ALL {
            let config = ModelConfig {
                kernel_backend: backend,
                ..ModelConfig::default()
            };
            let kc = Arc::new(KernelCoeffs::build(&mesh, &config));
            let init = Arc::new(InitialFields::sample(&mesh, &config, tc, &kc, Some(dt)));
            let engines = [
                ("serial", Executor::Serial),
                ("threaded", Executor::Threaded { threads: 4 }),
                (
                    "hybrid",
                    Executor::Hybrid {
                        cpu_threads: 2,
                        acc_threads: 2,
                    },
                ),
            ];
            for (engine, executor) in engines {
                let (shared_init, shared_kc) = (init.clone(), kc.clone());
                let exec = executor.exec();
                let mut model = ShallowWaterModel::from_initial_on(
                    mesh.clone(),
                    config,
                    shared_init,
                    shared_kc,
                    exec,
                );
                model.run_steps(3);
                let outputs = model
                    .cell_outputs()
                    .expect("a single-layer model computes its outputs");
                let (state, diag) = (&model.state, &model.diag);
                let tag = format!("{} ({}) {engine}", tc.name(), backend.name());
                let mut d = Diagnostics::zeros(&mesh);
                kernels::compute_solve_diagnostics_backend(
                    backend,
                    &mesh,
                    &config,
                    &kc,
                    &state.h,
                    &state.u,
                    &init.f_vertex,
                    dt,
                    &mut d,
                );
                for (field, got, want) in [
                    ("h_edge", &diag.h_edge, &d.h_edge),
                    ("ke", &diag.ke, &d.ke),
                    ("vorticity", &diag.vorticity, &d.vorticity),
                    ("divergence", &diag.divergence, &d.divergence),
                    ("pv_vertex", &diag.pv_vertex, &d.pv_vertex),
                    ("pv_cell", &diag.pv_cell, &d.pv_cell),
                    ("pv_edge", &diag.pv_edge, &d.pv_edge),
                    ("v", &diag.v, &d.v),
                    ("d2fdx2_cell1", &diag.d2fdx2_cell1, &d.d2fdx2_cell1),
                    ("d2fdx2_cell2", &diag.d2fdx2_cell2, &d.d2fdx2_cell2),
                ] {
                    assert_same_bits(&tag, field, got, want);
                }
                let (nc, mut o) = (mesh.n_cells(), CellOutputs::zeros(&mesh));
                ops::vorticity_cell(&mesh, &d.vorticity, &mut o.vorticity_cell, 0..nc);
                ops::reconstruct_xyz(&mesh, &kc, &state.u, &mut o.ux, &mut o.uy, &mut o.uz, 0..nc);
                let (ox, oy, oz) = (&o.ux, &o.uy, &o.uz);
                let (zonal, meridional) = (&mut o.zonal, &mut o.meridional);
                ops::zonal_meridional(&mesh, &kc, ox, oy, oz, zonal, meridional, 0..nc);
                for (field, got, want) in [
                    ("vorticity_cell", &outputs.vorticity_cell, &o.vorticity_cell),
                    ("ux", &outputs.ux, &o.ux),
                    ("uy", &outputs.uy, &o.uy),
                    ("uz", &outputs.uz, &o.uz),
                    ("zonal", &outputs.zonal, &o.zonal),
                    ("meridional", &outputs.meridional, &o.meridional),
                ] {
                    assert_same_bits(&tag, field, got, want);
                }
            }
        }
    }
}
