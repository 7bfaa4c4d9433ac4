//! The kernel-tier equivalence matrix (DESIGN.md §14).
//!
//! The simd tier batches vertically: each layer lane replays the flat
//! coefficient-table arithmetic in the same order, so there are no
//! reordered reductions anywhere in the backend — equality is *bitwise*,
//! not approximate, and these tests assert exactly that:
//!
//! * flat (`k = 1`) simd runs of every catalog scenario reproduce the
//!   digests recorded from the retired fused-coefficient tier, on the
//!   serial, threaded, hybrid and distributed engines;
//! * layer 0 of a `k`-layer run reproduces the same digests for
//!   `k ∈ {1, 4, 7}`;
//! * every deeper layer matches a flat run started from that layer's
//!   perturbed initial state;
//! * cache-block tiling is a pure traversal-order choice: any block size
//!   produces bits identical to the untiled sweep, and the tiling visits
//!   every index exactly once (property-tested).

use mpas_core::{run_distributed, state_hash, DistributedConfig, Executor, Simulation};
use mpas_prop::check;
use mpas_swe::kernels::simd::block_ranges;
use mpas_swe::layers::layer_h_scale;
use mpas_swe::validation::CATALOG;
use mpas_swe::{KernelBackend, ModelConfig, ShallowWaterModel};
use std::sync::Arc;

const LEVEL: u32 = 4;
const STEPS: usize = 3;

/// `state_hash` of the flat run of every catalog scenario at `LEVEL` after
/// `STEPS` steps, recorded from the retired fused-coefficient tier (the
/// catalog order of [`CATALOG`]).
const FUSED_CATALOG_PINS: [(&str, u64); 8] = [
    ("williamson-1", 0x79e32f4e16e3c19a),
    ("williamson-2", 0x2ba253b84c4f807f),
    ("williamson-3", 0x239b4a895e5ed841),
    ("williamson-4", 0x344857210064951a),
    ("williamson-5", 0x504710bf3292655c),
    ("williamson-6", 0x3a2fcb756fe64767),
    ("galewsky", 0x0cdfa2eedad5e94a),
    ("tracer-case5", 0x68dd05ee9c4c7b2b),
];

fn simd_config(sc: &mpas_swe::Scenario) -> ModelConfig {
    ModelConfig {
        kernel_backend: KernelBackend::Simd,
        ..sc.config()
    }
}

#[test]
fn flat_simd_matches_fused_bitwise_on_every_catalog_case() {
    let mesh = Arc::new(mpas_mesh::generate(LEVEL, 0));
    let dt = ModelConfig::suggested_dt(&mesh);
    for (sc, &(name, pin)) in CATALOG.iter().zip(&FUSED_CATALOG_PINS) {
        assert_eq!(sc.name, name, "catalog order changed");
        let config = simd_config(sc);
        let mut serial = ShallowWaterModel::new(mesh.clone(), config, sc.test_case, None);
        serial.run_steps(STEPS);
        assert_eq!(state_hash(&serial.state), pin, "{name}: serial");
        for executor in [
            Executor::Threaded { threads: 2 },
            Executor::Hybrid {
                cpu_threads: 1,
                acc_threads: 1,
            },
        ] {
            let mut sim = Simulation::builder()
                .mesh(mesh.clone())
                .test_case(sc.test_case)
                .config(config)
                .executor(executor)
                .dt(dt)
                .build();
            sim.run_steps(STEPS);
            assert_eq!(state_hash(sim.state()), pin, "{name}: {executor:?}");
        }
        let dist = run_distributed(
            &mesh,
            DistributedConfig {
                n_ranks: 2,
                halo_layers: 3,
                model: config,
                test_case: sc.test_case,
                dt,
                n_steps: STEPS,
            },
        );
        assert_eq!(state_hash(&dist), pin, "{name}: distributed");
    }
}

#[test]
fn layered_runs_match_fused_bitwise_per_layer_across_k() {
    let mesh = Arc::new(mpas_mesh::generate(LEVEL, 0));
    for (sc, &(name, pin)) in CATALOG.iter().zip(&FUSED_CATALOG_PINS) {
        // k = 7 on one representative scenario keeps the matrix fast; every
        // scenario still runs k ∈ {1, 4}.
        let ks: &[usize] = if name == "williamson-5" {
            &[1, 4, 7]
        } else {
            &[1, 4]
        };
        for &k in ks {
            let cfg = ModelConfig {
                n_layers: k,
                ..simd_config(sc)
            };
            let mut layered = ShallowWaterModel::new(mesh.clone(), cfg, sc.test_case, None);
            layered.run_steps(STEPS);
            assert_eq!(
                state_hash(&layered.extract_layer(0)),
                pin,
                "{name} k={k}: layer 0 diverged from the pinned flat run"
            );
        }
    }
}

#[test]
fn deeper_layers_match_flat_fused_runs_from_their_scaled_states() {
    let mesh = Arc::new(mpas_mesh::generate(3, 0));
    let tc = mpas_swe::TestCase::Case5;
    let k = 4;
    let cfg = ModelConfig {
        kernel_backend: KernelBackend::Simd,
        n_layers: k,
        n_tracers: 1,
        ..Default::default()
    };
    let mut layered = ShallowWaterModel::new(mesh.clone(), cfg, tc, None);
    let dt = layered.dt;
    layered.run_steps(STEPS);
    for l in 1..k {
        let flat_cfg = ModelConfig {
            n_tracers: 1,
            ..Default::default()
        };
        let mut flat = ShallowWaterModel::new(mesh.clone(), flat_cfg, tc, Some(dt));
        let s = layer_h_scale(l);
        for h in flat.state.h.iter_mut() {
            *h *= s;
        }
        for tr in flat.state.tracers.iter_mut() {
            for q in tr.iter_mut() {
                *q *= s;
            }
        }
        flat.refresh_diagnostics();
        flat.run_steps(STEPS);
        assert_eq!(
            state_hash(&flat.state),
            state_hash(&layered.extract_layer(l)),
            "layer {l} diverged from its flat twin"
        );
    }
}

/// Tiling is exact: for any `n` and block size the emitted ranges
/// partition `0..n` — consecutive, disjoint, complete — so every cell
/// is visited exactly once no matter how the sweep is blocked.
#[test]
fn block_ranges_partition_the_index_space() {
    check(16, |rng| {
        let n = rng.range(0usize..10_000);
        let block = rng.range(1usize..2_048);
        let mut next = 0usize;
        for r in block_ranges(n, block) {
            assert_eq!(r.start, next, "gap or overlap at {}", r.start);
            assert!(r.end > r.start, "empty block");
            assert!(r.end - r.start <= block, "oversized block");
            next = r.end;
        }
        assert_eq!(next, n, "tiling stopped short of n");
    });
}

/// Block size is invisible in the bits: a layered run under any block
/// size equals the untiled (single-block) run exactly.
#[test]
fn any_block_size_matches_the_untiled_sweep_bitwise() {
    check(16, |rng| {
        let block = rng.range(1usize..4_096);
        let k = rng.range(1usize..5);
        let steps = rng.range(1usize..3);
        let mesh = Arc::new(mpas_mesh::generate(2, 0));
        let cfg = ModelConfig {
            kernel_backend: KernelBackend::Simd,
            n_layers: k,
            ..Default::default()
        };
        let tc = mpas_swe::TestCase::Case5;
        let mut untiled = ShallowWaterModel::new(mesh.clone(), cfg, tc, None);
        untiled.set_cell_block(usize::MAX);
        untiled.run_steps(steps);
        let mut tiled = ShallowWaterModel::new(mesh.clone(), cfg, tc, None);
        tiled.set_cell_block(block);
        tiled.run_steps(steps);
        assert_eq!(
            state_hash(&untiled.state),
            state_hash(&tiled.state),
            "block {block} changed the bits"
        );
    });
}
