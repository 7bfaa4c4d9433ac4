//! `swe-run` — the downstream-user CLI: run any Williamson case on any
//! mesh with any executor, with periodic diagnostics and optional PPM
//! frame dumps of the total height field.
//!
//! ```text
//! swe-run --case 5 --level 5 --days 2 --executor threaded:4 \
//!         --frames 4 --out target/frames
//! ```
//!
//! With `--trace trace.json` the run is recorded and its spans and events
//! are written as a Chrome trace (track group "measured"; a run models no
//! schedule, so the modeled track group belongs to `figures fig4x`). With
//! `--metrics metrics.json` a metrics snapshot (per-kernel timing
//! histograms, per-step norms, and halo byte counters on a run with
//! `--ranks`) is written as JSON (`.csv` extension switches to CSV).
//!
//! ## Trace analysis and regression gating
//!
//! `--ranks N` (N ≥ 1) runs the distributed engine instead of the
//! single-address-space executors: N communicating ranks, rank-tagged
//! step/wait/copy/barrier spans and send/recv edge events. `--report`
//! then prints the per-rank blame table and the extracted critical path;
//! `--report-json FILE` writes the same as JSON. Both need `--ranks`: a
//! run without ranks has no rank time to attribute. The ranks run the
//! serial executor, so `--executor` other than `serial` is rejected
//! there, and they gather the state only at the end, so `--frames` is
//! too.
//!
//! `--gate-write FILE` fits a statistical baseline (median/MAD per
//! watched metric) from this run into FILE under the run's manifest key,
//! keeping other keys' baselines; `--gate FILE` compares the run against
//! FILE's baseline for its key and exits 1 on a `fail`-severity violation
//! (`--gate-strict` also fails on warnings) or, printing the key, when
//! there is none. Invariant monitors (mass
//! drift, h-error bound) always run when telemetry is on; a tripped
//! monitor records a structured `alert` event and exits 3.
//! `--inject-mass-drift X` deliberately offsets the drift gauge so the
//! alarm chain can be tested end to end; `--inject-courant X` does the
//! same for the CFL monitor.
//!
//! ## Kernel tiers and vertical layers
//!
//! `--backend scalar|simd` picks the kernel tier (DESIGN.md §14; default
//! `simd`, the coefficient-table fast path; `scalar` runs the seed
//! kernels). `--layers K` (K > 1, simd + serial only) runs the vertically
//! batched K-layer model; the same invocation also times the flat simd
//! serial model as the single-layer reference and records the
//! `kernel.simd_speedup_serial` gauge — (flat per-step × K) / (K-layer
//! per-step) — which the perf gate fails below 2.0×.
//!
//! ## Scenario catalog and validation
//!
//! `--case` accepts any catalog label (`1`..`6`, `williamson-N`,
//! `galewsky`, `tracer-case5`); catalog switches (advection-only for
//! case 1, tracer count for the tracer scenario) ride on the label.
//! `--validate` runs the scenario at its committed `(level, days)`
//! horizon, judges the measured error norms (and tracer-mass drift)
//! against the reference bands in `mpas_swe::validation::SPECS`, records
//! `validate.<case>.l2`/`.linf` gauges for the regression gate, and exits
//! 2 on a violation. `--adaptive` switches the single-address-space path
//! (on any `--executor`) from a fixed step count to CFL-monitored adaptive
//! steps up to the `--days` horizon; `--frames` dumps only the fixed-step
//! loop, so it is rejected there.
//!
//! A flag the chosen path would ignore is an error, raised before the
//! mesh is built, and the message names both flags.
//!
//! ## Set-up phases
//!
//! Every path prints how long its mesh set-up took (generation, Lloyd
//! sweeps and renumbering, one `mpas_core::build_mesh` call), and a
//! recorded run stores it as the gauge `core.setup.mesh_seconds`.

use mpas_bench::render::{sample_lonlat, write_ppm};
use mpas_core::{DistributedConfig, Simulation};
use mpas_mesh::{Mesh, Reordering};
use mpas_swe::{ErrorNorms, KernelBackend, ModelConfig, ShallowWaterModel, TestCase};
use mpas_telemetry::analysis::{
    check_invariants, default_invariants, record_blame, CriticalPath, Trace,
};
use mpas_telemetry::gate::{
    median_mad, Baseline, BaselineEntry, BaselineFile, Direction, Severity,
};
use mpas_telemetry::store::{HistoryStore, Retention, RunManifest};
use mpas_telemetry::{names, ChromeTrace, Recorder};
use std::path::PathBuf;
use std::sync::Arc;

struct Args {
    case: String,
    alpha: f64,
    level: u32,
    lloyd: u32,
    days: f64,
    executor: String,
    reorder: Reordering,
    backend: KernelBackend,
    layers: usize,
    ranks: usize,
    frames: usize,
    out: PathBuf,
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
    flight_dump: Option<PathBuf>,
    bench_json: Option<PathBuf>,
    report: bool,
    report_json: Option<PathBuf>,
    gate: Option<PathBuf>,
    gate_write: Option<PathBuf>,
    history_dir: Option<PathBuf>,
    gate_strict: bool,
    inject_mass_drift: f64,
    inject_courant: f64,
    validate: bool,
    adaptive: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        case: "5".into(),
        alpha: 0.0,
        level: 4,
        lloyd: 0,
        days: 1.0,
        executor: "serial".into(),
        reorder: Reordering::None,
        backend: KernelBackend::Simd,
        layers: 1,
        ranks: 0,
        frames: 0,
        out: PathBuf::from("target/frames"),
        trace: None,
        metrics: None,
        flight_dump: None,
        bench_json: None,
        report: false,
        report_json: None,
        gate: None,
        gate_write: None,
        history_dir: None,
        gate_strict: false,
        inject_mass_drift: 0.0,
        inject_courant: 0.0,
        validate: false,
        adaptive: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| panic!("missing value for {a}"));
        match a.as_str() {
            "--case" => args.case = val(),
            "--alpha" => args.alpha = val().parse().expect("alpha"),
            "--level" => args.level = val().parse().expect("level"),
            "--lloyd" => args.lloyd = val().parse().expect("lloyd"),
            "--days" => args.days = val().parse().expect("days"),
            "--executor" => args.executor = val(),
            "--reorder" => {
                let v = val();
                args.reorder = Reordering::parse(&v)
                    .unwrap_or_else(|| panic!("unknown reorder {v} (none, sfc or bfs)"));
            }
            "--backend" => {
                let v = val();
                args.backend = KernelBackend::parse(&v)
                    .unwrap_or_else(|| panic!("unknown backend {v} (scalar or simd)"));
            }
            "--layers" => args.layers = val().parse().expect("layers"),
            "--ranks" => args.ranks = val().parse().expect("ranks"),
            "--frames" => args.frames = val().parse().expect("frames"),
            "--out" => args.out = PathBuf::from(val()),
            "--trace" => args.trace = Some(PathBuf::from(val())),
            "--metrics" => args.metrics = Some(PathBuf::from(val())),
            "--flight-dump" => args.flight_dump = Some(PathBuf::from(val())),
            "--bench-json" => args.bench_json = Some(PathBuf::from(val())),
            "--report" => args.report = true,
            "--report-json" => args.report_json = Some(PathBuf::from(val())),
            "--gate" => args.gate = Some(PathBuf::from(val())),
            "--gate-write" => args.gate_write = Some(PathBuf::from(val())),
            "--history-dir" => args.history_dir = Some(PathBuf::from(val())),
            "--gate-strict" => args.gate_strict = true,
            "--inject-mass-drift" => {
                args.inject_mass_drift = val().parse().expect("inject-mass-drift")
            }
            "--inject-courant" => args.inject_courant = val().parse().expect("inject-courant"),
            "--validate" => args.validate = true,
            "--adaptive" => args.adaptive = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: swe-run [--case 1..6|williamson-N|galewsky|tracer-case5] \
                     [--alpha RAD] [--level N] \
                     [--lloyd N] [--days X] [--executor serial|threaded:N|hybrid:N:M] \
                     [--reorder none|sfc|bfs] \
                     [--backend scalar|simd] [--layers K] \
                     [--validate] \
                     [--adaptive | --frames K [--out DIR] \
                     | --ranks N>=1 [--report] [--report-json FILE.json]] \
                     [--trace FILE.json] [--metrics FILE.json|FILE.csv] \
                     [--flight-dump FILE.json] [--bench-json FILE.json] \
                     [--gate BASELINE.json] [--gate-write BASELINE.json] \
                     [--gate-strict] \
                     [--history-dir DIR] \
                     [--inject-mass-drift X] [--inject-courant X]\n\
                     cases: {}",
                    mpas_swe::validation::catalog_names().join(", ")
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

/// What either execution path hands back to the shared analysis tail.
struct RunStats {
    n_cells: usize,
    total_steps: usize,
    run_secs: f64,
    mass_drift: f64,
    /// Thickness error norms vs the case's reference at the final time.
    norms: ErrorNorms,
    /// Largest relative tracer-mass drift across tracers (`None` when the
    /// scenario carries no tracers).
    tracer_drift: Option<f64>,
}

/// Generate, relax and renumber the run's mesh, print how long that took
/// and record it as [`names::CORE_SETUP_MESH_SECONDS`].
fn setup_mesh(args: &Args, rec: &Recorder) -> Arc<Mesh> {
    let t = std::time::Instant::now();
    let mesh = mpas_core::build_mesh(args.level, args.lloyd, args.reorder);
    let secs = t.elapsed().as_secs_f64();
    rec.set_gauge(names::CORE_SETUP_MESH_SECONDS, secs);
    println!(
        "mesh set-up {:.3} s: {} cells, {} Lloyd sweep(s), reorder {}",
        secs,
        mesh.n_cells(),
        args.lloyd,
        args.reorder.name()
    );
    mesh
}

/// Single-address-space path: one `Simulation` on the named executor,
/// advanced either a fixed number of steps (dumping `--frames` on the way)
/// or, with `--adaptive`, by CFL-monitored steps up to the `--days`
/// horizon, each step recorded like any other.
fn run_single(args: &Args, tc: TestCase, rec: &Recorder) -> RunStats {
    const CFL_TARGET: f64 = 0.35;
    const CFL_BAND: f64 = 0.25;
    let mut config = ModelConfig {
        kernel_backend: args.backend,
        n_layers: args.layers,
        ..Default::default()
    };
    mpas_core::apply_case_config(&args.case, &mut config);
    let mut sim = Simulation::builder()
        .mesh(setup_mesh(args, rec))
        // `setup_mesh` has renumbered it already.
        .reorder(Reordering::None)
        .test_case(tc)
        .executor(mpas_core::parse_executor(&args.executor).unwrap_or_else(|e| panic!("{e}")))
        .config(config)
        .recorder(rec.clone())
        .build();

    // The adaptive run is judged by simulated time, not a step count,
    // since `dt` floats inside the Courant band.
    let horizon = args.days * 86_400.0;
    let fixed_steps = (horizon / sim.dt()).ceil().max(1.0) as usize;
    let stepping = if args.adaptive {
        format!(
            "adaptive steps to {} days (CFL target {CFL_TARGET} ±{:.0}%)",
            args.days,
            CFL_BAND * 100.0
        )
    } else {
        format!("{fixed_steps} steps")
    };
    println!(
        "{}: {} cells, dt {:.0} s, {stepping}, executor {}, reorder {}, backend {}, layers {}",
        tc.name(),
        sim.mesh.n_cells(),
        sim.dt(),
        args.executor,
        args.reorder.name(),
        args.backend.name(),
        args.layers
    );

    let t0 = std::time::Instant::now();
    let mut run_secs = 0.0f64;
    let mut total_steps = 0usize;
    if args.adaptive {
        let mut max_c = 0.0f64;
        let mut next_report = horizon / 8.0;
        while sim.time() < horizon {
            let c = sim.step_adaptive(CFL_TARGET, CFL_BAND);
            max_c = max_c.max(c);
            total_steps += 1;
            if sim.time() >= next_report {
                println!(
                    "t = {:.2} days (step {total_steps}): dt {:.0} s, courant {:.3}, \
                     h error l2 {:.3e}",
                    sim.time() / 86_400.0,
                    sim.dt(),
                    c,
                    sim.h_error_norms().l2
                );
                next_report += horizon / 8.0;
            }
        }
        run_secs = t0.elapsed().as_secs_f64();
        // The CFL monitor judges the largest Courant number any step was
        // tuned against, not the one the last step left behind.
        rec.set_gauge("core.sim.max_courant", max_c);
        println!("max courant {max_c:.3} over {total_steps} adaptive steps");
    } else {
        if args.frames > 0 {
            std::fs::create_dir_all(&args.out).expect("create output dir");
        }
        let chunk = (fixed_steps / args.frames.max(1)).max(1);
        let (w, h) = (480, 240);
        let mut frame = 0usize;
        while total_steps < fixed_steps {
            let n = chunk.min(fixed_steps - total_steps);
            let ts = std::time::Instant::now();
            sim.run_steps(n);
            run_secs += ts.elapsed().as_secs_f64();
            total_steps += n;
            println!(
                "step {total_steps}/{fixed_steps}: mass drift {:+.1e}, h error l2 {:.3e}",
                sim.mass_drift(),
                sim.h_error_norms().l2
            );
            if args.frames > 0 {
                let th = sim.total_height();
                let img = sample_lonlat(&sim.mesh, &th, w, h);
                let min = th.iter().cloned().fold(f64::MAX, f64::min);
                let max = th.iter().cloned().fold(f64::MIN, f64::max);
                let path = args.out.join(format!("frame_{frame:04}.ppm"));
                write_ppm(&path, &img, w, h, min, max).expect("write frame");
                frame += 1;
            }
        }
        if args.frames > 0 {
            println!("wrote {frame} frames to {}", args.out.display());
        }
    }
    let norms = sim.h_error_norms();
    println!(
        "finished {:.2?} ({:.1} ms/step); mass drift {:+.2e}, h error l2 {:.3e}",
        t0.elapsed(),
        t0.elapsed().as_secs_f64() * 1e3 / total_steps.max(1) as f64,
        sim.mass_drift(),
        norms.l2
    );
    if let Some(d) = sim.tracer_mass_drift() {
        println!("tracer mass drift {:+.2e}", d);
    }

    // Layered simd runs also time the flat (k = 1) simd serial model in
    // the same invocation, so the perf-gate metric compares like against
    // like on this exact machine and mesh: speedup = (flat per-step × k) /
    // (k-layer per-step), i.e. how much faster the batched tier advances
    // k layers than k flat runs. The two models are timed in *interleaved*
    // A/B batches and reduced with per-batch medians, so slow machine
    // drift (thermal, noisy neighbours) hits both sides of the ratio and
    // one-off stalls fall out of the median.
    if args.backend == KernelBackend::Simd && args.layers > 1 {
        let flat_cfg = ModelConfig {
            n_layers: 1,
            ..config
        };
        let mut reference = ShallowWaterModel::new(sim.mesh.clone(), flat_cfg, tc, None);
        let mut layered = ShallowWaterModel::new(sim.mesh.clone(), config, tc, None);
        reference.run_steps(1); // warm both instruction/data paths
        layered.run_steps(1);
        let batch = total_steps.clamp(1, 4);
        const REPS: usize = 5;
        let mut flat_s = Vec::with_capacity(REPS);
        let mut simd_s = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let t = std::time::Instant::now();
            reference.run_steps(batch);
            flat_s.push(t.elapsed().as_secs_f64() / batch as f64);
            let t = std::time::Instant::now();
            layered.run_steps(batch);
            simd_s.push(t.elapsed().as_secs_f64() / batch as f64);
        }
        let (flat_step_s, _) = median_mad(&flat_s);
        let (simd_step_s, _) = median_mad(&simd_s);
        let speedup = flat_step_s * args.layers as f64 / simd_step_s;
        rec.set_gauge("kernel.simd_speedup_serial", speedup);
        println!(
            "simd speedup vs flat serial: {:.2}x ({} layers: flat {:.2} ms/step/layer, \
             simd {:.2} ms/step for all layers; medians of {REPS} interleaved batches)",
            speedup,
            args.layers,
            flat_step_s * 1e3,
            simd_step_s * 1e3
        );
    }

    RunStats {
        n_cells: sim.mesh.n_cells(),
        total_steps,
        run_secs,
        mass_drift: sim.mass_drift(),
        norms,
        tracer_drift: sim.tracer_mass_drift(),
    }
}

/// Distributed path: `--ranks N` communicating ranks running the serial
/// kernel chain on RCB partitions, with rank-tagged trace instrumentation.
fn run_dist(args: &Args, tc: TestCase, rec: &Recorder) -> RunStats {
    let mesh = setup_mesh(args, rec);
    let dt = ModelConfig::suggested_dt(&mesh);
    let total_steps = ((args.days * 86_400.0) / dt).ceil().max(1.0) as usize;
    println!(
        "{}: {} cells, dt {:.0} s, {} steps on {} ranks (reorder {}, backend {})",
        tc.name(),
        mesh.n_cells(),
        dt,
        total_steps,
        args.ranks,
        args.reorder.name(),
        args.backend.name()
    );

    let mut model = ModelConfig {
        kernel_backend: args.backend,
        ..Default::default()
    };
    mpas_core::apply_case_config(&args.case, &mut model);
    let initial = tc.initial_state_with_tracers(&mesh, model.n_tracers);
    let mass = |h: &[f64]| -> f64 {
        (0..mesh.n_cells())
            .map(|i| h[i] * mesh.area_cell[i])
            .sum::<f64>()
    };
    let mass0 = mass(&initial.h);
    let tracer_mass0: Vec<f64> = initial.tracers.iter().map(|tr| mass(tr)).collect();

    let t0 = std::time::Instant::now();
    let final_state = mpas_core::run_distributed_recorded(
        &mesh,
        DistributedConfig {
            n_ranks: args.ranks,
            halo_layers: 3,
            model,
            test_case: tc,
            dt,
            n_steps: total_steps,
        },
        rec,
    );
    let run_secs = t0.elapsed().as_secs_f64();

    let mass_drift = (mass(&final_state.h) - mass0) / mass0;
    // A reference that does not move is the initial thickness itself
    // (same bits); only Williamson 1's advected bell is sampled again.
    let moved = tc
        .reference_moves()
        .then(|| tc.reference_thickness(&mesh, total_steps as f64 * dt));
    let reference = moved.as_deref().unwrap_or(&initial.h);
    let norms = ErrorNorms::compute(&final_state.h, reference, &mesh.area_cell);
    let tracer_drift = (!tracer_mass0.is_empty()).then(|| {
        final_state
            .tracers
            .iter()
            .zip(&tracer_mass0)
            .map(|(tr, m0)| ((mass(tr) - m0) / m0).abs())
            .fold(0.0f64, f64::max)
    });
    rec.set_gauge("core.sim.mass_drift", mass_drift);
    rec.set_gauge("core.sim.h_err_l2", norms.l2);
    if let Some(d) = tracer_drift {
        rec.set_gauge("core.sim.tracer_mass_drift", d);
    }
    println!(
        "finished {:.2?} ({:.1} ms/step); mass drift {:+.2e}, h error l2 {:.3e}",
        t0.elapsed(),
        run_secs * 1e3 / total_steps as f64,
        mass_drift,
        norms.l2
    );

    RunStats {
        n_cells: mesh.n_cells(),
        total_steps,
        run_secs,
        mass_drift,
        norms,
        tracer_drift,
    }
}

/// Fit a gate baseline from what this run recorded. Step time is fitted
/// from the per-step samples (median/MAD) as a warn-only band — CI boxes
/// are noisy; the invariant-adjacent metrics are fail-severity with
/// absolute floors, because they are deterministic up to rounding.
fn fit_baseline(name: String, rec: &Recorder) -> Baseline {
    use Direction::{Above, Below};
    use Severity::{Fail, Warn};
    let snap = rec.snapshot();
    // One measured value, no spread: the floor alone is the band.
    let single = |metric: &str, median: f64, floor: f64, direction, severity| BaselineEntry {
        metric: metric.to_string(),
        median,
        mad: 0.0,
        count: 1,
        k: 0.0,
        floor,
        direction,
        severity,
        abs: false,
    };
    let mut entries = Vec::new();
    let steps = rec.histogram_samples("core.sim.step_seconds");
    if !steps.is_empty() {
        let (median, mad) = median_mad(&steps);
        entries.push(BaselineEntry {
            mad,
            count: steps.len(),
            k: 5.0,
            ..single("core.sim.step_seconds", median, 0.25 * median, Above, Warn)
        });
    }
    entries.push(BaselineEntry {
        abs: true,
        ..single("core.sim.mass_drift", 0.0, 1e-9, Above, Fail)
    });
    // The h error and the scenario-validation norms (`--validate` runs):
    // deterministic up to libm ulp differences, so fail-severity with a
    // wide relative floor.
    let h_err = snap.gauges.get_key_value("core.sim.h_err_l2");
    let validate = snap
        .gauges
        .iter()
        .filter(|(m, _)| m.starts_with("validate."));
    for (metric, &val) in h_err.into_iter().chain(validate) {
        let floor = 0.5 * val.abs().max(1e-12);
        entries.push(single(metric, val, floor, Above, Fail));
    }
    // Layered simd runs measure their flat-serial speedup in-invocation;
    // gate it from below (fail-severity) so the batched tier can never
    // silently regress to slower-than-k-flat-runs. The committed floor is
    // `median − 2.0`, i.e. an absolute 2.0× requirement under Below
    // semantics (`v < median − band` trips).
    if let Some(s) = snap.gauge(names::KERNEL_SIMD_SPEEDUP_SERIAL) {
        entries.push(single(
            names::KERNEL_SIMD_SPEEDUP_SERIAL,
            s,
            s - 2.0,
            Below,
            Fail,
        ));
    }
    if let Some(w) = snap.gauge("analysis.blame.max_wait_frac") {
        entries.push(single("analysis.blame.max_wait_frac", w, 0.2, Above, Warn));
    }
    Baseline { name, entries }
}

/// Blame + critical-path report as a JSON document (the `--report-json`
/// artifact CI uploads).
fn report_json(trace: &Trace, cp: &CriticalPath, measured_step_s: f64) -> String {
    use std::fmt::Write as _;
    let blame = trace.blame();
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"makespan_s\": {:e},", blame.makespan_s);
    let _ = writeln!(out, "  \"imbalance\": {:e},", blame.imbalance);
    let _ = writeln!(out, "  \"measured_step_s\": {measured_step_s:e},");
    out.push_str("  \"ranks\": [");
    for (i, r) in blame.ranks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"rank\": {}, \"total_s\": {:e}, \"compute_frac\": {:e}, \
             \"wait_frac\": {:e}, \"copy_frac\": {:e}, \"barrier_frac\": {:e}}}",
            r.rank,
            r.total_s,
            r.compute_frac(),
            r.wait_frac(),
            r.copy_frac(),
            r.barrier_frac(),
        );
    }
    out.push_str("\n  ],\n");
    let _ = writeln!(
        out,
        "  \"critical_path\": {{\"path_s\": {:e}, \"compute_s\": {:e}, \"wait_s\": {:e}, \
         \"copy_s\": {:e}, \"barrier_s\": {:e}, \"ranks_visited\": {}, \"segments\": {}}}",
        cp.path_s(),
        cp.compute_s,
        cp.wait_s,
        cp.copy_s,
        cp.barrier_s,
        cp.ranks_visited(),
        cp.segments.len(),
    );
    out.push_str("}\n");
    out
}

fn main() {
    let mut args = parse_args();
    let tc = mpas_core::parse_case(&args.case, args.alpha).unwrap_or_else(|e| panic!("{e}"));
    if args.adaptive && args.ranks > 0 {
        panic!("--adaptive is a serial-path feature; drop --ranks");
    }
    if args.frames > 0 && args.adaptive {
        panic!("--frames dumps the fixed-step loop only; drop --adaptive or --frames");
    }
    if args.frames > 0 && args.ranks > 0 {
        panic!(
            "--ranks {} gathers the state only at the end; drop --frames",
            args.ranks
        );
    }
    if args.ranks == 0 {
        if args.report {
            panic!("--report attributes rank time; add --ranks N");
        }
        if args.report_json.is_some() {
            panic!("--report-json attributes rank time; add --ranks N");
        }
    }
    if args.ranks > 0 && args.executor != "serial" {
        panic!(
            "--ranks {} runs the serial executor on every rank; drop --executor {}",
            args.ranks, args.executor
        );
    }
    if args.layers == 0 {
        panic!("--layers must be >= 1");
    }
    if args.layers > 1 {
        if args.backend != KernelBackend::Simd {
            panic!("--layers {} requires --backend simd", args.layers);
        }
        if args.adaptive || args.ranks > 0 {
            panic!("--layers > 1 runs on the single-address-space serial path");
        }
        if args.executor != "serial" {
            panic!("--layers > 1 requires --executor serial");
        }
    }
    if args.validate {
        // Validation runs at the committed horizon, not the --days value:
        // the committed norms are only meaningful at their (level, days).
        match mpas_swe::validation::spec(&args.case, args.level) {
            Some(sp) => {
                args.days = sp.days;
                println!(
                    "validate: gating {} at level {} over {} simulated days",
                    sp.name, args.level, sp.days
                );
            }
            None => {
                eprintln!(
                    "validate: no committed norms for case {} at level {}",
                    args.case, args.level
                );
                std::process::exit(2);
            }
        }
    }

    println!(
        "generating level-{} mesh (lloyd {})...",
        args.level, args.lloyd
    );
    let telemetry_on = args.trace.is_some()
        || args.metrics.is_some()
        || args.flight_dump.is_some()
        || args.report
        || args.report_json.is_some()
        || args.gate.is_some()
        || args.gate_write.is_some()
        || args.history_dir.is_some()
        || args.inject_mass_drift != 0.0
        || args.inject_courant != 0.0
        || args.validate
        || args.adaptive;
    let rec = if telemetry_on {
        Recorder::new()
    } else {
        Recorder::noop()
    };
    // Arm dump-on-anomaly before the run: if `check_invariants` trips
    // later, the flight ring is written to this path at alert time.
    if let Some(path) = &args.flight_dump {
        rec.set_flight_dump(path.clone());
    }

    let stats = if args.ranks > 0 {
        run_dist(&args, tc, &rec)
    } else {
        run_single(&args, tc, &rec)
    };

    if args.inject_mass_drift != 0.0 {
        println!(
            "injecting {:+.1e} artificial mass drift (invariant-monitor test hook)",
            args.inject_mass_drift
        );
        rec.set_gauge(
            "core.sim.mass_drift",
            stats.mass_drift + args.inject_mass_drift,
        );
    }
    if args.inject_courant != 0.0 {
        println!(
            "injecting Courant number {} (invariant-monitor test hook)",
            args.inject_courant
        );
        rec.set_gauge("core.sim.max_courant", args.inject_courant);
    }

    // -- scenario validation ----------------------------------------------
    let mut validate_failed = false;
    if args.validate {
        match mpas_swe::validation::check(
            &args.case,
            args.level,
            stats.total_steps,
            stats.norms,
            stats.tracer_drift.unwrap_or(0.0),
        ) {
            None => unreachable!("spec existence checked before the run"),
            Some(r) => {
                rec.set_gauge(&format!("validate.{}.l2", r.name), r.norms.l2);
                rec.set_gauge(&format!("validate.{}.linf", r.name), r.norms.linf);
                println!(
                    "validate {} level {}: l2 {:.4e} (committed {:.4e}), \
                     linf {:.4e} (committed {:.4e}), tolerance ±{:.0}%",
                    r.name,
                    r.level,
                    r.norms.l2,
                    r.spec.l2,
                    r.norms.linf,
                    r.spec.linf,
                    r.spec.tolerance * 100.0
                );
                if let Some(d) = stats.tracer_drift {
                    println!(
                        "validate {}: tracer mass drift {:.3e} over {} steps",
                        r.name, d, r.steps
                    );
                }
                if r.passed() {
                    println!("validate {}: PASS", r.name);
                } else {
                    for f in &r.failures {
                        eprintln!("validate {}: FAIL — {f}", r.name);
                    }
                    validate_failed = true;
                }
            }
        }
    }

    // -- trace analysis ---------------------------------------------------
    let trace = Trace::from_recorder(&rec);
    let measured_step_s = if args.ranks > 0 {
        // Distributed mode records no facade-level step timer; derive it
        // from the per-step trace makespans and feed the same histogram
        // the gate watches.
        let per_step = trace.per_step_makespans();
        for &m in &per_step {
            rec.record("core.sim.step_seconds", m);
        }
        median_mad(&per_step).0
    } else {
        stats.run_secs / stats.total_steps as f64
    };
    let blame = trace.blame();
    let cp = trace.critical_path();
    // Blame and critical path attribute rank time: a run without ranks
    // has none to attribute, so its metrics carry no `analysis.*` gauges.
    if args.ranks > 0 {
        record_blame(&rec, &blame, Some(&cp));
    }
    let alerts = check_invariants(&rec, &default_invariants());

    if args.report {
        println!("\n== per-rank blame ==");
        print!("{}", blame.render());
        println!("\n== critical path ==");
        println!("{}", cp.render());
    }
    if let Some(path) = &args.report_json {
        let json = report_json(&trace, &cp, measured_step_s);
        std::fs::write(path, &json).expect("write report json");
        println!("wrote blame report to {}", path.display());
    }

    // -- artifacts --------------------------------------------------------
    if let Some(path) = &args.trace {
        let mut chrome = ChromeTrace::new();
        chrome.add_measured(&rec);
        std::fs::write(path, chrome.finish()).expect("write trace");
        println!(
            "wrote measured trace ({} spans) to {}",
            rec.spans().len(),
            path.display()
        );
    }
    if let Some(path) = &args.bench_json {
        // Machine-readable timing record (the BENCH_pr4.json shape): one
        // object per run so CI and `figures fig_layout` can diff configs.
        let json = format!(
            "{{\n  \"case\": \"{}\",\n  \"level\": {},\n  \"executor\": \"{}\",\n  \
             \"ranks\": {},\n  \
             \"reorder\": \"{}\",\n  \"backend\": \"{}\",\n  \"layers\": {},\n  \
             \"n_cells\": {},\n  \
             \"steps\": {},\n  \"run_seconds\": {:.6},\n  \"ms_per_step\": {:.4},\n  \
             \"mass_drift\": {:e},\n  \"h_err_l2\": {:e}\n}}\n",
            args.case,
            args.level,
            args.executor,
            args.ranks,
            args.reorder.name(),
            args.backend.name(),
            args.layers,
            stats.n_cells,
            stats.total_steps,
            stats.run_secs,
            stats.run_secs * 1e3 / stats.total_steps as f64,
            stats.mass_drift,
            stats.norms.l2,
        );
        std::fs::write(path, &json).expect("write bench json");
        println!("wrote bench record to {}", path.display());
    }
    if let Some(path) = &args.metrics {
        let snap = rec.snapshot();
        let body = if path.extension().is_some_and(|e| e == "csv") {
            snap.to_csv()
        } else {
            snap.to_json()
        };
        std::fs::write(path, &body).expect("write metrics");
        println!(
            "wrote {} counters / {} gauges / {} histograms to {}",
            snap.counters.len(),
            snap.gauges.len(),
            snap.histograms.len(),
            path.display()
        );
    }

    if let Some(path) = &args.flight_dump {
        // An invariant alert may already have dumped here (dump-on-anomaly
        // at alert time); the final write refreshes the ring to include
        // everything up to run end, so the file always exists and is a
        // complete Chrome trace either way.
        rec.flight_dump_to(path).expect("write flight dump");
        println!(
            "wrote flight recorder ({} of {} events retained) to {}",
            rec.flight_events().len(),
            rec.flight_total(),
            path.display()
        );
    }

    // The run's identity: what `--history-dir` records it under and the
    // key `--gate-write` and `--gate` name its baseline by.
    let manifest = RunManifest {
        alpha: args.alpha,
        reorder: args.reorder.name().to_string(),
        ..RunManifest::new(
            &args.case,
            args.level,
            args.lloyd,
            args.backend.name(),
            args.layers,
            &args.executor,
            args.ranks,
            stats.total_steps,
        )
    };

    // -- history store ----------------------------------------------------
    // Flushed after the analysis pass so the stored run carries the
    // `analysis.blame.*` gauges alongside solver metrics, and entirely
    // off the step hot path (the run is over). Default retention keeps
    // the directory bounded without any extra flags.
    if let Some(dir) = &args.history_dir {
        let store = HistoryStore::open(dir).expect("open history store");
        let recorded = store
            .record_recorder(&manifest, &rec)
            .expect("record history run");
        let compaction = store
            .compact(&Retention::default())
            .expect("compact history store");
        println!(
            "history: recorded run {} into {} ({} run(s) retained, {} KiB)",
            recorded.run_id,
            dir.display(),
            store.runs().map(|r| r.len()).unwrap_or(0),
            compaction.bytes_after / 1024,
        );
    }

    // -- regression gate --------------------------------------------------
    let key = manifest.baseline_key();
    if let Some(path) = &args.gate_write {
        let mut file = if path.exists() {
            BaselineFile::read(path).unwrap_or_else(|e| panic!("{e}"))
        } else {
            BaselineFile::default()
        };
        let baseline = fit_baseline(key.clone(), &rec);
        let entries = baseline.entries.len();
        file.replace(baseline);
        std::fs::write(path, file.to_json()).expect("write baseline");
        println!(
            "wrote baseline ({entries} entries) for {key} to {}",
            path.display()
        );
    }
    // Exit-code precedence: tripped invariant (3) > validation band (2) >
    // statistical gate (1).
    let mut exit_code = 0;
    if let Some(path) = &args.gate {
        if !mpas_bench::gate(path, &key, &rec.snapshot(), args.gate_strict) {
            exit_code = 1;
        }
    }
    if validate_failed {
        exit_code = 2;
    }
    for a in &alerts {
        eprintln!(
            "ALERT: {} = {:e} exceeds |{:e}| — {}",
            a.metric, a.value, a.threshold, a.message
        );
    }
    if !alerts.is_empty() {
        exit_code = 3;
    }
    if exit_code != 0 {
        std::process::exit(exit_code);
    }
}
