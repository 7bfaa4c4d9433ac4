//! Multi-rank distributed execution of the shallow-water model.
//!
//! Each rank owns a partition of the mesh (RCB, three halo layers), runs
//! the one model ([`ShallowWaterModel`]) on its [`mpas_mesh::LocalMesh`],
//! updating its owned entities, and exchanges the prognostic halo once per
//! substep through the stage program's substep hook — the communication
//! structure of the paper's Fig. 2/Fig. 4 flowcharts. Because every owned
//! output is computed with exactly the serial loop structure, the gathered
//! global result is **bit-for-bit identical** to the single-rank run
//! (asserted by the integration tests), which is a stronger property than
//! the paper's "consistent within machine precision".

use mpas_mesh::{extract_local_mesh, Mesh, MeshPartition, RankLocal};
use mpas_msg::comm::{run_ranks, RankCtx};
use mpas_msg::halo::{FieldKind, HaloExchanger};
use mpas_swe::coeffs::KernelCoeffs;
use mpas_swe::config::ModelConfig;
use mpas_swe::state::State;
use mpas_swe::testcases::TestCase;
use mpas_swe::{InitialFields, ShallowWaterModel};
use mpas_telemetry::analysis::STEP_SPAN;
use mpas_telemetry::Recorder;
use std::sync::Arc;

/// Parameters of a distributed run.
#[derive(Debug, Clone, Copy)]
pub struct DistributedConfig {
    /// Number of ranks (threads) to run.
    pub n_ranks: usize,
    /// Halo depth; 3 is the minimum that keeps owned outputs exact across
    /// the TRiSK stencil chain.
    pub halo_layers: usize,
    /// Numerical options, shared by every rank.
    pub model: ModelConfig,
    /// Initial condition / forcing scenario.
    pub test_case: TestCase,
    /// Time step (must be supplied explicitly so every rank agrees).
    pub dt: f64,
    /// Number of RK-4 steps to advance.
    pub n_steps: usize,
}

/// Run the model on `n_ranks` ranks and gather the global prognostic state
/// on return.
pub fn run_distributed(mesh: &Mesh, cfg: DistributedConfig) -> State {
    run_distributed_recorded(mesh, cfg, &Recorder::noop())
}

/// [`run_distributed`] with telemetry: every rank's communicator and halo
/// exchanger report into `rec` (`msg.comm.*` / `msg.halo.*`), which is
/// shared across ranks — counters aggregate over the whole job.
pub fn run_distributed_recorded(mesh: &Mesh, cfg: DistributedConfig, rec: &Recorder) -> State {
    assert!(
        cfg.halo_layers >= 3,
        "TRiSK stencils need at least 3 halo layers"
    );
    let part = MeshPartition::build(mesh, cfg.n_ranks, cfg.halo_layers);
    // Each local mesh moves into the `Arc` its rank's model shares.
    let locals: Vec<(Arc<Mesh>, &RankLocal)> = part
        .ranks
        .iter()
        .map(|rl| (Arc::new(extract_local_mesh(mesh, rl).mesh), rl))
        .collect();

    let results = run_ranks(cfg.n_ranks, |mut ctx| {
        ctx.set_recorder(rec.clone());
        let (local_mesh, rl) = &locals[ctx.rank];
        rank_main(&mut ctx, local_mesh, rl, &cfg, rec)
    });

    // Assemble the global state from each rank's owned entries (the
    // prefixes of its cell and edge lists).
    let mut h = vec![0.0; mesh.n_cells()];
    let mut u = vec![0.0; mesh.n_edges()];
    let mut tracers = vec![vec![0.0; mesh.n_cells()]; cfg.model.n_tracers];
    for ((_, rl), (lh, lu, ltr)) in locals.iter().zip(results) {
        for (&g, &x) in rl.cells.iter().zip(&lh) {
            h[g as usize] = x;
        }
        for (tr, lt) in tracers.iter_mut().zip(&ltr) {
            for (&g, &x) in rl.cells.iter().zip(lt) {
                tr[g as usize] = x;
            }
        }
        for (&g, &x) in rl.edges.iter().zip(&lu) {
            u[g as usize] = x;
        }
    }
    State { h, u, tracers }
}

/// One rank's full time loop: the one model on the local mesh, the halo
/// exchanged at the end of every substep. Returns its owned (h, u,
/// tracer) slices.
fn rank_main(
    ctx: &mut RankCtx,
    mesh: &Arc<Mesh>,
    rl: &RankLocal,
    cfg: &DistributedConfig,
    rec: &Recorder,
) -> (Vec<f64>, Vec<f64>, Vec<Vec<f64>>) {
    let (nc, ne) = (rl.n_owned_cells, rl.n_owned_edges);
    // Each rank samples its own local mesh. The case-4 forcing comes out
    // of the same sampler: the background state is sampled analytically
    // (exact on halos too) and three halo layers make every owned
    // tendency entry equal the serial one, so the owned forcing entries
    // are bitwise the serial forcing. Per entity the local coefficients
    // equal the global ones, so owned outputs stay bit-for-bit identical
    // to the serial run on either backend.
    let kc = Arc::new(KernelCoeffs::build(mesh, &cfg.model));
    let init = InitialFields::sample(mesh, &cfg.model, cfg.test_case, &kc, Some(cfg.dt));
    let mut model =
        ShallowWaterModel::from_initial(mesh.clone(), cfg.model, Arc::new(init), kc).owning(nc, ne);
    let mut hx = HaloExchanger::new(rl.clone()).with_recorder(rec.clone());
    let ncl = hx.local().n_cells();

    for _ in 0..cfg.n_steps {
        // Rank-tagged per-step window: the unit the trace analyzer
        // decomposes into compute/copy/wait/barrier blame, and the rank's
        // one step timer.
        let _step_span = rec.span_timed(ctx.track(), STEP_SPAN, "core.rank.step_seconds");
        // Owned entries come from the update; halos from their owners.
        model.step_with(|s| {
            hx.exchange_state(ctx, &mut s.h[..ncl], &mut s.u);
            for tr in s.tracers.iter_mut() {
                hx.exchange(ctx, FieldKind::Cell, &mut tr[..ncl]);
            }
        });
    }

    let s = &model.state;
    (
        s.h[..nc].to_vec(),
        s.u[..ne].to_vec(),
        s.tracers.iter().map(|tr| tr[..nc].to_vec()).collect(),
    )
}

/// Partition `mesh` across `n_ranks` (3 halo layers), run one real packed
/// halo exchange under `rec`, and return the exact per-substep halo bytes
/// implied by the partition's send lists (summed over all ranks, one
/// direction, 8 bytes per `f64`).
///
/// Also sets two gauges on `rec` so a metrics snapshot can compare the
/// measurement against the analytic √n estimate the scaling model uses:
/// `msg.halo.exact_bytes_per_substep` (this function's return value) and
/// `msg.halo.modeled_bytes_per_substep`
/// ([`mpas_hybrid::sim::halo_bytes_per_substep`] summed over ranks).
pub fn halo_probe(mesh: &Mesh, n_ranks: usize, rec: &Recorder) -> u64 {
    let part = MeshPartition::build(mesh, n_ranks, 3);
    let exact: u64 = part
        .ranks
        .iter()
        .flat_map(|p| p.send_cells.iter().chain(p.send_edges.iter()))
        .map(|(_, list)| (list.len() * 8) as u64)
        .sum();
    let parts = part.ranks;
    run_ranks(n_ranks, |mut ctx| {
        ctx.set_recorder(rec.clone());
        let mut hx = HaloExchanger::new(parts[ctx.rank].clone()).with_recorder(rec.clone());
        let mut cells = vec![0.0; hx.local().n_cells()];
        let mut edges = vec![0.0; hx.local().edges.len()];
        hx.exchange_state(&mut ctx, &mut cells, &mut edges);
    });
    rec.set_gauge("msg.halo.exact_bytes_per_substep", exact as f64);
    rec.set_gauge(
        "msg.halo.modeled_bytes_per_substep",
        n_ranks as f64
            * mpas_hybrid::sim::halo_bytes_per_substep(mesh.n_cells() as f64 / n_ranks as f64),
    );
    exact
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn serial_reference(mesh: &Arc<Mesh>, tc: TestCase, dt: f64, steps: usize) -> State {
        let mut m =
            mpas_swe::ShallowWaterModel::new(mesh.clone(), ModelConfig::default(), tc, Some(dt));
        m.run_steps(steps);
        m.state.clone()
    }

    #[test]
    fn four_ranks_match_serial_bitwise() {
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        let dt = ModelConfig::suggested_dt(&mesh);
        let tc = TestCase::Case5;
        let serial = serial_reference(&mesh, tc, dt, 3);
        let dist = run_distributed(
            &mesh,
            DistributedConfig {
                n_ranks: 4,
                halo_layers: 3,
                model: ModelConfig::default(),
                test_case: tc,
                dt,
                n_steps: 3,
            },
        );
        assert_eq!(serial.max_abs_diff(&dist), 0.0, "distributed != serial");
    }

    #[test]
    fn rank_count_does_not_change_results() {
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        let dt = ModelConfig::suggested_dt(&mesh);
        let tc = TestCase::Case6;
        let base = DistributedConfig {
            n_ranks: 2,
            halo_layers: 3,
            model: ModelConfig::default(),
            test_case: tc,
            dt,
            n_steps: 2,
        };
        let two = run_distributed(&mesh, base);
        let five = run_distributed(&mesh, DistributedConfig { n_ranks: 5, ..base });
        assert_eq!(two.max_abs_diff(&five), 0.0);
    }

    #[test]
    fn recorded_run_yields_analyzable_trace() {
        use mpas_telemetry::analysis::Trace;
        use mpas_telemetry::Recorder;
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        let dt = ModelConfig::suggested_dt(&mesh);
        let rec = Recorder::new();
        let n_steps = 2;
        run_distributed_recorded(
            &mesh,
            DistributedConfig {
                n_ranks: 3,
                halo_layers: 3,
                model: ModelConfig::default(),
                test_case: TestCase::Case5,
                dt,
                n_steps,
            },
            &rec,
        );
        let t = Trace::from_recorder(&rec);
        assert_eq!(t.active_ranks(), 3);
        assert_eq!(t.per_step_makespans().len(), n_steps);
        for tl in &t.ranks {
            assert_eq!(tl.steps.len(), n_steps, "rank {} step spans", tl.rank);
            assert!(!tl.waits.is_empty(), "rank {} recorded no waits", tl.rank);
            assert!(!tl.copies.is_empty(), "rank {} recorded no copies", tl.rank);
        }
        let blame = t.blame();
        for r in &blame.ranks {
            let s = r.compute_frac() + r.wait_frac() + r.copy_frac() + r.barrier_frac();
            assert!((s - 1.0).abs() < 1e-9, "rank {} fractions sum {s}", r.rank);
        }
        // 4 substeps/step, each with one packed exchange per rank; the
        // analyzer must match every recv back to a send.
        assert_eq!(t.sends.len(), t.recvs.len());
        let cp = t.critical_path();
        assert!(cp.path_s() > 0.0);
        assert!(cp.path_s() <= cp.makespan_s + 1e-12);
    }

    #[test]
    #[should_panic(expected = "halo layers")]
    fn shallow_halo_is_rejected() {
        let mesh = mpas_mesh::generate(2, 0);
        run_distributed(
            &mesh,
            DistributedConfig {
                n_ranks: 2,
                halo_layers: 2,
                model: ModelConfig::default(),
                test_case: TestCase::Case5,
                dt: 100.0,
                n_steps: 1,
            },
        );
    }
}
