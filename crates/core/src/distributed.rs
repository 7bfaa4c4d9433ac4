//! Multi-rank distributed execution of the shallow-water model.
//!
//! Each rank owns a partition of the mesh (RCB, three halo layers), runs
//! the full RK-4 kernel sequence on its [`mpas_mesh::LocalMesh`], and
//! exchanges the prognostic halo once per substep — the communication
//! structure of the paper's Fig. 2/Fig. 4 flowcharts. Because every owned
//! output is computed with exactly the serial loop structure, the gathered
//! global result is **bit-for-bit identical** to the single-rank run
//! (asserted by the integration tests), which is a stronger property than
//! the paper's "consistent within machine precision".

use mpas_mesh::{extract_local_mesh, Mesh, MeshPartition};
use mpas_msg::comm::{run_ranks, RankCtx};
use mpas_msg::halo::{FieldKind, HaloExchanger};
use mpas_patterns::dataflow::RkPhase;
use mpas_swe::coeffs::KernelCoeffs;
use mpas_swe::config::ModelConfig;
use mpas_swe::kernels;
use mpas_swe::rk4::{RK_SUBSTEP, RK_WEIGHTS};
use mpas_swe::state::{Diagnostics, Reconstruction, State, Tendencies};
use mpas_swe::testcases::TestCase;
use mpas_swe::InitialFields;
use mpas_telemetry::analysis::STEP_SPAN;
use mpas_telemetry::Recorder;

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
    let locals: Vec<_> = part
        .ranks
        .iter()
        .map(|rl| (extract_local_mesh(mesh, rl), rl.clone()))
        .collect();

    let results = run_ranks(cfg.n_ranks, |mut ctx| {
        ctx.set_recorder(rec.clone());
        let (lm, rl) = &locals[ctx.rank];
        rank_main(&mut ctx, lm, rl.clone(), &cfg, rec)
    });

    // Assemble the global state from each rank's owned entries.
    let mut h = vec![0.0; mesh.n_cells()];
    let mut u = vec![0.0; mesh.n_edges()];
    let mut tracers = vec![vec![0.0; mesh.n_cells()]; cfg.model.n_tracers];
    for (rank, (lh, lu, ltr)) in results.into_iter().enumerate() {
        let lm = &locals[rank].0;
        for (l, &g) in lm.cell_l2g[..lm.n_owned_cells].iter().enumerate() {
            h[g as usize] = lh[l];
            for (k, lt) in ltr.iter().enumerate() {
                tracers[k][g as usize] = lt[l];
            }
        }
        for (l, &g) in lm.edge_l2g[..lm.n_owned_edges].iter().enumerate() {
            u[g as usize] = lu[l];
        }
    }
    State { h, u, tracers }
}

/// One rank's full time loop. Returns its owned (h, u, tracer) slices.
fn rank_main(
    ctx: &mut RankCtx,
    lm: &mpas_mesh::LocalMesh,
    rl: mpas_mesh::RankLocal,
    cfg: &DistributedConfig,
    rec: &Recorder,
) -> (Vec<f64>, Vec<f64>, Vec<Vec<f64>>) {
    let mesh = &lm.mesh;
    let mcfg = &cfg.model;
    let dt = cfg.dt;

    let kc = KernelCoeffs::build(mesh, mcfg);
    let backend = mcfg.kernel_backend;
    // Each rank samples its own local mesh, and owns what it samples. The
    // case-4 forcing comes out of the same sampler: the background state
    // is sampled analytically (exact on halos too) and three halo layers
    // make every owned tendency entry equal the serial one, so the owned
    // forcing entries are bitwise the serial forcing.
    let InitialFields {
        mut state,
        b,
        f_vertex,
        forcing,
        ..
    } = InitialFields::sample(mesh, mcfg, cfg.test_case, &kc, Some(dt));
    // Same branch the single-address-space executors take: per-entity the
    // local coefficients equal the global ones, so owned outputs stay
    // bit-for-bit identical to the serial run on either path.
    let solve_diag = |h: &[f64], u: &[f64], phase: RkPhase, diag: &mut Diagnostics| {
        kernels::compute_substep_diagnostics(
            backend, mesh, mcfg, &kc, h, u, &f_vertex, dt, phase, diag,
        );
    };
    let mut diag = Diagnostics::zeros(mesh);
    let mut tend = Tendencies::zeros_with_tracers(mesh, mcfg.n_tracers);
    let mut provis = State::zeros_with_tracers(mesh, mcfg.n_tracers);
    let mut acc = State::zeros_with_tracers(mesh, mcfg.n_tracers);
    let mut recon = Reconstruction::zeros(mesh);
    let mut hx = HaloExchanger::new(rl).with_recorder(rec.clone());

    let n_owned_cells = lm.n_owned_cells;
    let n_owned_edges = lm.n_owned_edges;

    solve_diag(&state.h, &state.u, RkPhase::Final, &mut diag);

    for step in 0..cfg.n_steps {
        // Rank-tagged per-step window: the unit the trace analyzer
        // decomposes into compute/copy/wait/barrier blame. The begin/end
        // events give downstream tools the step index without parsing
        // span order.
        let _step_span = rec.span_timed(ctx.track(), STEP_SPAN, "core.rank.step_seconds");
        if rec.is_enabled() {
            rec.event(
                "core.step",
                &[
                    ("rank", ctx.rank.to_string()),
                    ("step", step.to_string()),
                    ("phase", "begin".to_string()),
                ],
            );
        }
        acc.copy_from(&state);
        provis.copy_from(&state);
        for stage in 0..4 {
            kernels::compute_tend_backend(
                backend, mesh, mcfg, &kc, &provis.h, &provis.u, &b, &diag, &mut tend,
            );
            if !provis.tracers.is_empty() {
                kernels::compute_tend_tracers_backend(
                    backend,
                    mesh,
                    &kc,
                    &provis.h,
                    &provis.u,
                    &diag,
                    &provis.tracers,
                    &mut tend,
                );
            }
            if let Some(f) = &forcing {
                kernels::apply_forcing(mesh, f, &mut tend);
            }
            kernels::enforce_boundary_edge(mesh, &mut tend);
            if stage < 3 {
                // Owned region only; halos come from the owners.
                update_owned(
                    &state,
                    &tend,
                    RK_SUBSTEP[stage] * dt,
                    &mut provis,
                    n_owned_cells,
                    n_owned_edges,
                );
                let ncl = hx.local().n_cells();
                hx.exchange_state(ctx, &mut provis.h[..ncl], &mut provis.u);
                for tr in provis.tracers.iter_mut() {
                    hx.exchange(ctx, FieldKind::Cell, &mut tr[..ncl]);
                }
                solve_diag(&provis.h, &provis.u, RkPhase::Intermediate, &mut diag);
                accumulate_owned(
                    &tend,
                    RK_WEIGHTS[stage] * dt,
                    &mut acc,
                    n_owned_cells,
                    n_owned_edges,
                );
            } else {
                accumulate_owned(
                    &tend,
                    RK_WEIGHTS[stage] * dt,
                    &mut acc,
                    n_owned_cells,
                    n_owned_edges,
                );
                state.h[..n_owned_cells].copy_from_slice(&acc.h[..n_owned_cells]);
                state.u[..n_owned_edges].copy_from_slice(&acc.u[..n_owned_edges]);
                for (tr, atr) in state.tracers.iter_mut().zip(&acc.tracers) {
                    tr[..n_owned_cells].copy_from_slice(&atr[..n_owned_cells]);
                }
                let ncl = hx.local().n_cells();
                hx.exchange_state(ctx, &mut state.h[..ncl], &mut state.u);
                for tr in state.tracers.iter_mut() {
                    hx.exchange(ctx, FieldKind::Cell, &mut tr[..ncl]);
                }
                solve_diag(&state.h, &state.u, RkPhase::Final, &mut diag);
                kernels::mpas_reconstruct(mesh, &kc, &state.u, &mut recon);
            }
        }
        if rec.is_enabled() {
            rec.event(
                "core.step",
                &[
                    ("rank", ctx.rank.to_string()),
                    ("step", step.to_string()),
                    ("phase", "end".to_string()),
                ],
            );
        }
    }

    (
        state.h[..n_owned_cells].to_vec(),
        state.u[..n_owned_edges].to_vec(),
        state
            .tracers
            .iter()
            .map(|tr| tr[..n_owned_cells].to_vec())
            .collect(),
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

fn update_owned(base: &State, tend: &Tendencies, coef: f64, out: &mut State, nc: usize, ne: usize) {
    for i in 0..nc {
        out.h[i] = base.h[i] + coef * tend.tend_h[i];
    }
    for e in 0..ne {
        out.u[e] = base.u[e] + coef * tend.tend_u[e];
    }
    for (k, tr) in out.tracers.iter_mut().enumerate() {
        for (i, t) in tr.iter_mut().enumerate().take(nc) {
            *t = base.tracers[k][i] + coef * tend.tend_tracers[k][i];
        }
    }
}

fn accumulate_owned(tend: &Tendencies, weight: f64, acc: &mut State, nc: usize, ne: usize) {
    for i in 0..nc {
        acc.h[i] += weight * tend.tend_h[i];
    }
    for e in 0..ne {
        acc.u[e] += weight * tend.tend_u[e];
    }
    for (k, tr) in acc.tracers.iter_mut().enumerate() {
        for (i, t) in tr.iter_mut().enumerate().take(nc) {
            *t += weight * tend.tend_tracers[k][i];
        }
    }
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
        // The begin/end step events carry rank/step indices.
        let evs = rec.events();
        assert_eq!(
            evs.iter()
                .filter(|e| e.name == "core.step"
                    && e.args.iter().any(|(k, v)| k == "phase" && v == "begin"))
                .count(),
            3 * n_steps
        );
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
