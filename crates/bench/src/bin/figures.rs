//! Regenerate every table and figure of the paper.
//!
//! ```text
//! figures <experiment> [options]
//!   table1 | table2 | table3 | fig4 | fig4x | fig5 | fig6 | fig7 | fig8
//!   | fig9 | trace | profile | convergence | partitioners | fig_layout
//!   | fig_blame | fig_simd | all
//!
//! Every name is checked before any experiment runs: an unknown one exits
//! with status 2 and lists the valid names.
//!
//! `fig_layout` measures the PR-4 data-layout ladder: RK-4 step time by
//! cell ordering (natural, Morton SFC, BFS) × mesh level × executor, seed
//! per-slot kernels against the precomputed-coefficient simd tier.
//!
//! `fig_simd` measures the PR-9 kernel-tier ladder: RK-4 step time by
//! backend (scalar, simd) × vertical layers × mesh level on the SFC
//! ordering, with the per-layer cost and the speedup over running the
//! flat simd model once per layer.
//!
//! `fig4x` runs the real threaded executor under the telemetry recorder
//! and prints the measured per-pattern times next to the roofline model's
//! predictions, writing one combined modeled+measured Chrome trace.
//!
//! `fig_blame` (PR-5) runs the distributed engine at 2/4/8 ranks under
//! the trace analyzer and tabulates each configuration's compute / wait /
//! copy blame fractions, imbalance, and extracted critical path.
//!
//! options:
//!   --level N     mesh subdivision level for measured runs (default 5)
//!   --days X      simulated days for fig5 (default 0.5; paper uses 15)
//!   --full        generate the full Table III meshes (levels 8-9 are slow)
//! ```
//!
//! Modeled results use the Table-II-calibrated device descriptors (see
//! DESIGN.md §1 for the substitution rationale); measured results run the
//! real kernels on this host. EXPERIMENTS.md records paper-vs-reproduced
//! values for each experiment.

use mpas_bench::{fmt_secs, print_table, time_per_call};
use mpas_hybrid::sched::schedule_substep;
use mpas_hybrid::sim::{time_per_step, time_per_step_multirank};
use mpas_hybrid::{fig6_ladder, Platform};
use mpas_msg::CommCostModel;
use mpas_patterns::dataflow::{table_i, DataflowGraph, MeshCounts, RkPhase};
use mpas_patterns::reduction::{EdgeCellReduction, LabelMatrix};
use mpas_sched::{KernelLevel, PatternDriven, Serial};
use mpas_swe::config::{KernelBackend, ModelConfig};
use mpas_swe::kernels::{ops, scatter};
use mpas_swe::testcases::TestCase;
use mpas_swe::ShallowWaterModel;
use std::sync::Arc;

struct Opts {
    level: u32,
    days: f64,
    full: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut opts = Opts {
        level: 5,
        days: 0.5,
        full: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--level" => opts.level = it.next().expect("--level N").parse().expect("level"),
            "--days" => opts.days = it.next().expect("--days X").parse().expect("days"),
            "--full" => opts.full = true,
            other => which.push(other.to_string()),
        }
    }
    if which.is_empty() {
        which.push("all".to_string());
    }
    // Resolve every name before running any experiment.
    let mut runs = Vec::new();
    for w in &which {
        match EXPERIMENTS.iter().find(|(name, _)| name == w) {
            Some(&(_, run)) => runs.push(run),
            None => {
                let valid: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
                eprintln!(
                    "figures: unknown experiment {w}; valid: {}",
                    valid.join(", ")
                );
                std::process::exit(2);
            }
        }
    }
    for run in runs {
        run(&opts);
    }
}

/// An experiment's command-line name and what it runs.
type Experiment = (&'static str, fn(&Opts));

/// Every experiment by name; `all` runs the paper's tables and figures.
const EXPERIMENTS: [Experiment; 18] = [
    ("table1", |_| table1()),
    ("table2", |_| table2()),
    ("table3", table3),
    ("fig4", |_| fig4()),
    ("fig4x", fig4x),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", |_| fig8()),
    ("fig9", |_| fig9()),
    ("trace", |_| trace()),
    ("profile", |_| profile()),
    ("convergence", |_| convergence()),
    ("partitioners", partitioners),
    ("fig_layout", fig_layout),
    ("fig_blame", fig_blame),
    ("fig_simd", fig_simd),
    ("all", all),
];

fn all(opts: &Opts) {
    table1();
    table2();
    table3(opts);
    fig4();
    fig5(opts);
    fig6(opts);
    fig7(opts);
    fig8();
    fig9();
}

/// Table I: pattern instances and their input/output variables.
fn table1() {
    let rows: Vec<Vec<String>> = table_i()
        .iter()
        .map(|p| {
            vec![
                format!("{:?}", p.kernel),
                p.name.to_string(),
                format!("{:?}", p.class),
                p.inputs
                    .iter()
                    .map(|v| format!("{v:?}"))
                    .collect::<Vec<_>>()
                    .join(","),
                p.outputs
                    .iter()
                    .map(|v| format!("{v:?}"))
                    .collect::<Vec<_>>()
                    .join(","),
            ]
        })
        .collect();
    print_table(
        "Table I — patterns and their input/output variables",
        &["kernel", "pattern", "class", "inputs", "outputs"],
        &rows,
    );
}

/// Table II: platform configuration (the simulated node).
fn table2() {
    let p = Platform::paper_node();
    let rows = vec![
        vec!["name".into(), p.cpu.name.into(), p.acc.name.into()],
        vec![
            "workers".into(),
            p.cpu.n_workers.to_string(),
            p.acc.n_workers.to_string(),
        ],
        vec![
            "eff. flops".into(),
            format!("{:.0} Gflop/s", p.cpu.flops / 1e9),
            format!("{:.0} Gflop/s", p.acc.flops / 1e9),
        ],
        vec![
            "eff. bandwidth".into(),
            format!("{:.0} GB/s", p.cpu.mem_bw / 1e9),
            format!("{:.0} GB/s", p.acc.mem_bw / 1e9),
        ],
        vec![
            "launch overhead".into(),
            format!("{:.0} µs", p.cpu.launch_overhead * 1e6),
            format!("{:.0} µs", p.acc.launch_overhead * 1e6),
        ],
    ];
    print_table(
        "Table II — simulated platform (calibrated from the paper's Table II)",
        &["quantity", "CPU (host)", "MIC (device)"],
        &rows,
    );
    println!(
        "link: PCIe {:.0} µs latency, {:.1} GB/s",
        p.link.latency * 1e6,
        p.link.bandwidth / 1e9
    );
}

/// Table III: mesh inventory.
fn table3(opts: &Opts) {
    use mpas_mesh::{IcosaGrid, MeshQuality};
    let mut rows = Vec::new();
    for level in mpas_mesh::TABLE3_LEVELS {
        let cells = IcosaGrid::expected_points(level);
        let label = match level {
            6 => "120-km",
            7 => "60-km",
            8 => "30-km",
            9 => "15-km",
            _ => "?",
        };
        let generate_now = level <= 7 || opts.full;
        let detail = if generate_now {
            let mesh = mpas_mesh::generate(level, 0);
            assert_eq!(mesh.n_cells(), cells);
            let q = MeshQuality::of(&mesh);
            format!("generated: {q}")
        } else {
            "analytic (use --full to generate)".to_string()
        };
        rows.push(vec![
            label.to_string(),
            cells.to_string(),
            level.to_string(),
            detail,
        ]);
    }
    print_table(
        "Table III — mesh inventory",
        &["resolution", "# mesh cells", "subdivision level", "status"],
        &rows,
    );
}

/// Fig. 4: the data-flow diagram itself, exported as Graphviz DOT plus a
/// plain-text concurrency report (topological levels).
fn fig4() {
    use mpas_patterns::{concurrency_report, to_dot};
    let out_dir = std::path::Path::new("target/figures");
    std::fs::create_dir_all(out_dir).expect("create target/figures");
    for (phase, name) in [
        (RkPhase::Intermediate, "fig4_intermediate_substep.dot"),
        (RkPhase::Final, "fig4_final_substep.dot"),
    ] {
        let g = DataflowGraph::for_substep(phase);
        std::fs::write(out_dir.join(name), to_dot(&g)).unwrap();
        println!("\n=== Fig. 4 — data-flow diagram, {phase:?} substep ===");
        print!("{}", concurrency_report(&g));
        let mc = MeshCounts::icosahedral(655_362);
        let (cp, total) = g.critical_path(|n| n.work(&mc).bytes);
        println!(
            "critical path / total work = {:.2} (max pattern-level speedup {:.1}x)",
            cp / total,
            total / cp
        );
        println!("wrote target/figures/{name}");
    }
}

/// Fig. 5: correctness of the hybrid implementation on Williamson TC5.
fn fig5(opts: &Opts) {
    println!("\n=== Fig. 5 — TC5 total height h+b, serial vs hybrid ===");
    println!(
        "(mesh level {}, {} simulated days; paper: 120-km mesh, day 15)",
        opts.level, opts.days
    );
    let mesh = Arc::new(mpas_mesh::generate(opts.level, 0));
    let cfg = ModelConfig::default();
    let tc = TestCase::Case5;
    let mut serial = ShallowWaterModel::new(mesh.clone(), cfg, tc, None);
    let steps = serial.steps_for_days(opts.days);
    let executor = mpas_core::Executor::Hybrid {
        cpu_threads: 2,
        acc_threads: 2,
    };
    let mut hybrid = ShallowWaterModel::new_on(mesh.clone(), cfg, tc, None, executor.exec());
    serial.run_steps(steps);
    hybrid.run_steps(steps);

    let th_serial = serial.total_height();
    let th_hybrid = hybrid.total_height();
    let stats = |x: &[f64]| {
        let min = x.iter().cloned().fold(f64::MAX, f64::min);
        let max = x.iter().cloned().fold(f64::MIN, f64::max);
        let mean = x.iter().sum::<f64>() / x.len() as f64;
        (min, max, mean)
    };
    let (smin, smax, smean) = stats(&th_serial);
    let (hmin, hmax, hmean) = stats(&th_hybrid);
    let maxdiff = th_serial
        .iter()
        .zip(&th_hybrid)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    print_table(
        "total height h+b (m)",
        &["version", "min", "max", "mean"],
        &[
            vec![
                "original CPU".into(),
                format!("{smin:.3}"),
                format!("{smax:.3}"),
                format!("{smean:.3}"),
            ],
            vec![
                "hybrid".into(),
                format!("{hmin:.3}"),
                format!("{hmax:.3}"),
                format!("{hmean:.3}"),
            ],
        ],
    );
    println!("max |difference| = {maxdiff:.3e} m  (paper: consistent within machine precision)");
    println!("steps = {steps}, dt = {:.1} s", serial.dt);

    // Render the Fig. 5 panels as PPM images.
    let out_dir = std::path::Path::new("target/figures");
    std::fs::create_dir_all(out_dir).expect("create target/figures");
    let (w, h) = (720, 360);
    let img_serial = mpas_bench::render::sample_lonlat(&mesh, &th_serial, w, h);
    let img_hybrid = mpas_bench::render::sample_lonlat(&mesh, &th_hybrid, w, h);
    let diff: Vec<f64> = th_serial
        .iter()
        .zip(&th_hybrid)
        .map(|(a, b)| a - b)
        .collect();
    let img_diff = mpas_bench::render::sample_lonlat(&mesh, &diff, w, h);
    let dmax = maxdiff.max(1e-30);
    mpas_bench::render::write_ppm(
        out_dir.join("fig5_serial.ppm"),
        &img_serial,
        w,
        h,
        smin,
        smax,
    )
    .unwrap();
    mpas_bench::render::write_ppm(
        out_dir.join("fig5_hybrid.ppm"),
        &img_hybrid,
        w,
        h,
        hmin,
        hmax,
    )
    .unwrap();
    mpas_bench::render::write_ppm(
        out_dir.join("fig5_difference.ppm"),
        &img_diff,
        w,
        h,
        -dmax,
        dmax,
    )
    .unwrap();
    println!("wrote target/figures/fig5_{{serial,hybrid,difference}}.ppm");
}

/// Fig. 6: single-device optimization ladder (modeled) plus the measured
/// loop-form ladder on this host.
fn fig6(opts: &Opts) {
    let mc = MeshCounts::icosahedral(163_842);
    let ladder = fig6_ladder(&mc);
    let rows: Vec<Vec<String>> = ladder
        .iter()
        .map(|(s, sp)| vec![s.label().to_string(), format!("{sp:.1}x")])
        .collect();
    print_table(
        "Fig. 6 — Xeon Phi optimization ladder (modeled; speedup vs 1 unoptimized Phi core)",
        &["stage", "speedup"],
        &rows,
    );
    println!("paper bands: OpenMP < 20x, Refactoring > 60x, SIMD ≈ +20%, final ≈ 100x");

    // Measured companion: loop forms on this host (single core).
    let mesh = mpas_mesh::generate(opts.level, 0);
    let u: Vec<f64> = (0..mesh.n_edges())
        .map(|e| (e as f64 * 0.1).sin())
        .collect();
    let h_edge: Vec<f64> = (0..mesh.n_edges()).map(|e| 1e3 + (e % 7) as f64).collect();
    let mut y = vec![0.0; mesh.n_cells()];
    let lm = LabelMatrix::build(&mesh);
    let iters = 50;
    let t_scatter = time_per_call(|| EdgeCellReduction::scatter(&mesh, &u, &mut y), iters);
    let t_gather = time_per_call(|| EdgeCellReduction::gather(&mesh, &u, &mut y), iters);
    let t_label = time_per_call(|| lm.apply(&u, &mut y), iters);
    let t_tendh_scatter = time_per_call(
        || scatter::tend_h_scatter(&mesh, &u, &h_edge, &mut y),
        iters,
    );
    let t_tendh_gather = time_per_call(
        || ops::tend_h(&mesh, &u, &h_edge, &mut y, 0..mesh.n_cells()),
        iters,
    );
    print_table(
        "Fig. 6 measured companion — loop forms on this host (1 core)",
        &["loop form", "time", "vs scatter"],
        &[
            vec!["Alg.2 scatter".into(), fmt_secs(t_scatter), "1.00x".into()],
            vec![
                "Alg.3 gather".into(),
                fmt_secs(t_gather),
                format!("{:.2}x", t_scatter / t_gather),
            ],
            vec![
                "Alg.4 label-matrix".into(),
                fmt_secs(t_label),
                format!("{:.2}x", t_scatter / t_label),
            ],
            vec![
                "tend_h scatter".into(),
                fmt_secs(t_tendh_scatter),
                "1.00x".into(),
            ],
            vec![
                "tend_h gather".into(),
                fmt_secs(t_tendh_gather),
                format!("{:.2}x", t_tendh_scatter / t_tendh_gather),
            ],
        ],
    );
}

/// Fig. 7: time per step and speedup across the Table III meshes for the
/// CPU version, kernel-level and pattern-driven hybrids.
fn fig7(opts: &Opts) {
    let p = Platform::paper_node();
    let mut rows = Vec::new();
    for &cells in &[40_962usize, 163_842, 655_362, 2_621_442] {
        let mc = MeshCounts::icosahedral(cells);
        let t_cpu = time_per_step(&mc, &p, Serial);
        let t_kernel = time_per_step(&mc, &p, KernelLevel);
        let t_pattern = time_per_step(&mc, &p, PatternDriven);
        rows.push(vec![
            cells.to_string(),
            format!("{t_cpu:.3}"),
            format!("{t_kernel:.3}"),
            format!("{t_pattern:.3}"),
            format!("{:.2}x", t_cpu / t_kernel),
            format!("{:.2}x", t_cpu / t_pattern),
        ]);
    }
    print_table(
        "Fig. 7 — time/step (s, modeled) and speedup vs single-core CPU",
        &[
            "cells",
            "CPU",
            "kernel-level",
            "pattern-driven",
            "kernel spdup",
            "pattern spdup",
        ],
        &rows,
    );
    println!("paper: kernel-level 4.59-6.05x, pattern-driven 5.63-8.35x (growing with size)");

    // Grounding: one measured serial step on this host.
    let mesh = Arc::new(mpas_mesh::generate(opts.level, 0));
    let mut m = ShallowWaterModel::new(mesh.clone(), ModelConfig::default(), TestCase::Case5, None);
    let t = time_per_call(|| m.step(), 3);
    println!(
        "measured serial step on this host at level {} ({} cells): {}",
        opts.level,
        mesh.n_cells(),
        fmt_secs(t)
    );

    // Load-balance detail the paper attributes the gain to.
    let g = DataflowGraph::for_substep(RkPhase::Intermediate);
    let mc = MeshCounts::icosahedral(655_362);
    let sk = schedule_substep(&g, &mc, &p, KernelLevel);
    let sp = schedule_substep(&g, &mc, &p, PatternDriven);
    println!(
        "device imbalance (busy-time gap / max): kernel-level {:.0}%, pattern-driven {:.0}%",
        sk.imbalance() * 100.0,
        sp.imbalance() * 100.0
    );
}

/// Fig. 8: strong scaling on the 30-km and 15-km meshes.
fn fig8() {
    let p = Platform::paper_node();
    let comm = CommCostModel::fdr_infiniband();
    for &(label, cells) in &[
        ("30-km (655,362 cells)", 655_362usize),
        ("15-km (2,621,442 cells)", 2_621_442),
    ] {
        let mut rows = Vec::new();
        for &ranks in &[1usize, 2, 4, 8, 16, 32, 64] {
            let t_cpu = time_per_step_multirank(cells, ranks, &p, Serial, &comm);
            let t_pat = time_per_step_multirank(cells, ranks, &p, PatternDriven, &comm);
            let t1_cpu = time_per_step_multirank(cells, 1, &p, Serial, &comm);
            let t1_pat = time_per_step_multirank(cells, 1, &p, PatternDriven, &comm);
            rows.push(vec![
                ranks.to_string(),
                format!("{t_cpu:.4}"),
                format!("{t_pat:.4}"),
                format!("{:.0}%", t1_cpu / (t_cpu * ranks as f64) * 100.0),
                format!("{:.0}%", t1_pat / (t_pat * ranks as f64) * 100.0),
            ]);
        }
        print_table(
            &format!("Fig. 8 — strong scaling, {label} (time/step s, modeled)"),
            &[
                "P",
                "CPU version",
                "pattern-driven",
                "CPU eff.",
                "hybrid eff.",
            ],
            &rows,
        );
    }
}

/// §II.C's profiling step: the modeled per-kernel and per-pattern cost
/// breakdown that motivates the hybrid assignment.
fn profile() {
    use mpas_patterns::profile::{kernel_profile, pattern_profile};
    let mc = MeshCounts::icosahedral(655_362);
    let ks = kernel_profile(RkPhase::Intermediate, &mc);
    print_table(
        "Profile — per-kernel work (intermediate substep, 655,362 cells)",
        &["kernel", "#patterns", "MB moved", "share"],
        &ks.iter()
            .map(|k| {
                vec![
                    format!("{:?}", k.kernel),
                    k.n_patterns.to_string(),
                    format!("{:.1}", k.bytes / 1e6),
                    format!("{:.1}%", k.share * 100.0),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let ps = pattern_profile(RkPhase::Intermediate, &mc);
    print_table(
        "Profile — heaviest pattern instances",
        &["pattern", "kernel", "MB moved", "share"],
        &ps.iter()
            .take(8)
            .map(|p| {
                vec![
                    p.name.to_string(),
                    format!("{:?}", p.kernel),
                    format!("{:.1}", p.bytes / 1e6),
                    format!("{:.1}%", p.share * 100.0),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

/// Partitioner comparison: RCB vs space-filling-curve vs cyclic edge cuts
/// (the domain-decomposition quality behind Figs. 8-9's communication
/// volume).
fn partitioners(opts: &Opts) {
    use mpas_mesh::partition::rcb_partition;
    use mpas_mesh::sfc_partition;
    let mesh = mpas_mesh::generate(opts.level, 0);
    let cut = |owner: &[u32]| -> usize {
        mesh.cells_on_edge
            .iter()
            .filter(|&&[a, b]| owner[a as usize] != owner[b as usize])
            .count()
    };
    let mut rows = Vec::new();
    for &parts in &[4usize, 8, 16, 32] {
        let rcb = cut(&rcb_partition(&mesh, parts));
        let sfc = cut(&sfc_partition(&mesh, parts));
        let cyclic = cut(&(0..mesh.n_cells() as u32)
            .map(|c| c % parts as u32)
            .collect::<Vec<_>>());
        rows.push(vec![
            parts.to_string(),
            rcb.to_string(),
            sfc.to_string(),
            cyclic.to_string(),
            format!("{:.1}%", rcb as f64 / mesh.n_edges() as f64 * 100.0),
        ]);
    }
    print_table(
        &format!(
            "Partitioners — edge cut on the level-{} mesh ({} cells, {} edges)",
            opts.level,
            mesh.n_cells(),
            mesh.n_edges()
        ),
        &["parts", "RCB", "SFC (Morton)", "cyclic", "RCB cut frac"],
        &rows,
    );
}

/// Williamson TC2 spatial-convergence study (model validation beyond the
/// paper's Fig. 5 check).
fn convergence() {
    let mut rows = Vec::new();
    let mut prev: Option<f64> = None;
    for level in 3..=5u32 {
        let mesh = Arc::new(mpas_mesh::generate(level, 0));
        let mut m = ShallowWaterModel::new(
            mesh.clone(),
            ModelConfig::default(),
            TestCase::Case2 { alpha: 0.0 },
            None,
        );
        let steps = (6.0 * 3600.0 / m.dt).ceil() as usize;
        m.run_steps(steps);
        let n = m.h_error_norms();
        let rate = prev.map(|p: f64| (p / n.l2).log2());
        rows.push(vec![
            level.to_string(),
            mesh.n_cells().to_string(),
            format!("{:.3e}", n.l1),
            format!("{:.3e}", n.l2),
            format!("{:.3e}", n.linf),
            rate.map(|r| format!("{r:.2}"))
                .unwrap_or_else(|| "-".into()),
        ]);
        prev = Some(n.l2);
    }
    print_table(
        "Convergence — Williamson TC2 thickness error after 6 h",
        &["level", "cells", "l1", "l2", "linf", "l2 rate"],
        &rows,
    );
}

/// Fig. 4 extension: measured-vs-modeled per-pattern report. Runs the real
/// threaded executor under a telemetry recorder, fits per-pattern measured
/// times from the collected `swe.kernel.*` histograms, and prints them
/// against the roofline predictions; also writes a combined Chrome trace
/// with the modeled schedule (track group 1) and the measured spans (track
/// group 2) side by side.
fn fig4x(opts: &Opts) {
    use mpas_core::{Executor, Simulation};
    use mpas_telemetry::Recorder;

    let rec = Recorder::new();
    let mesh = Arc::new(mpas_mesh::generate(opts.level, 0));
    let mut sim = Simulation::builder()
        .mesh(mesh.clone())
        .test_case(TestCase::Case5)
        .config(ModelConfig {
            high_order_h_edge: true,
            ..ModelConfig::default()
        })
        .executor(Executor::Threaded { threads: 2 })
        .recorder(rec.clone())
        .build();
    sim.run_steps(2);

    let mc = MeshCounts::of(&mesh);
    let report = mpas_hybrid::calibration_from_metrics(&rec.snapshot(), &mc);
    let rows: Vec<Vec<String>> = report
        .entries
        .iter()
        .map(|e| {
            vec![
                e.name.clone(),
                fmt_secs(e.measured),
                fmt_secs(e.predicted),
                format!("{:.2}", e.coeff()),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Fig. 4x — measured (p50 of telemetry histograms) vs roofline, level {} ({} cells)",
            opts.level,
            mesh.n_cells()
        ),
        &["pattern", "measured", "modeled", "ratio"],
        &rows,
    );

    // The paper's pattern-driven schedule of one intermediate substep on
    // this mesh, drawn beside what the run measured.
    let out_dir = std::path::Path::new("target/figures");
    std::fs::create_dir_all(out_dir).expect("create target/figures");
    let graph = DataflowGraph::for_substep(RkPhase::Intermediate);
    let schedule = schedule_substep(&graph, &mc, &Platform::paper_node(), PatternDriven);
    mpas_sched::record_schedule(&rec, "pattern-driven", &schedule);
    let json = mpas_hybrid::to_combined_trace(&schedule, &rec);
    let path = out_dir.join("fig4x_combined.json");
    std::fs::write(&path, &json).expect("write combined trace");
    println!(
        "wrote {} ({} measured spans + {}-node modeled schedule)",
        path.display(),
        rec.spans().len(),
        schedule.nodes.len()
    );
}

/// Export per-policy schedule timelines as Chrome-trace JSON (load into
/// about://tracing or ui.perfetto.dev): the Fig. 4 load-balance argument
/// as an inspectable artifact.
fn trace() {
    let out_dir = std::path::Path::new("target/figures");
    std::fs::create_dir_all(out_dir).expect("create target/figures");
    let g = DataflowGraph::for_substep(RkPhase::Intermediate);
    let mc = MeshCounts::icosahedral(655_362);
    let p = Platform::paper_node();
    for (policy, name) in [
        ("serial", "trace_serial.json"),
        ("kernel-level", "trace_kernel_level.json"),
        ("pattern-driven", "trace_pattern_driven.json"),
    ] {
        let policy = mpas_sched::resolve(policy).expect("registered policy");
        let s = schedule_substep(&g, &mc, &p, policy);
        std::fs::write(out_dir.join(name), mpas_hybrid::to_chrome_trace(&s)).unwrap();
        println!(
            "{name}: makespan {:.2} ms, imbalance {:.0}%",
            s.makespan * 1e3,
            s.imbalance() * 100.0
        );
    }
    println!("wrote target/figures/trace_*.json");
}

/// Fig. 9: weak scaling at 40,962 cells per process.
fn fig9() {
    let p = Platform::paper_node();
    let comm = CommCostModel::fdr_infiniband();
    let mut rows = Vec::new();
    for &ranks in &[1usize, 4, 16, 64] {
        let cells = 40_962 * ranks;
        let t_cpu = time_per_step_multirank(cells, ranks, &p, Serial, &comm);
        let t_pat = time_per_step_multirank(cells, ranks, &p, PatternDriven, &comm);
        rows.push(vec![
            ranks.to_string(),
            format!("{t_cpu:.4}"),
            format!("{t_pat:.4}"),
        ]);
    }
    print_table(
        "Fig. 9 — weak scaling, 40,962 cells/process (time/step s, modeled)",
        &["P", "CPU version", "pattern-driven"],
        &rows,
    );
    println!("paper: CPU ~0.271-0.274 s flat; pattern-driven ~0.045-0.047 s flat");
}

/// `fig_layout` — the PR-4 locality ladder: full RK-4 step time by cell
/// ordering (natural, Morton SFC, BFS/Cuthill–McKee), mesh level and
/// executor. Each row times the seed per-slot kernels and the
/// precomputed-coefficient simd tier ([`mpas_swe::KernelCoeffs`] +
/// `kernels::simd`); the speedup column is simd-on-this-ordering over
/// seed-on-the-natural-ordering for the same executor — the Fig. 6-style
/// ladder for data layout rather than kernel form.
fn fig_layout(opts: &Opts) {
    use mpas_mesh::Reordering;

    let tc = TestCase::Case5;
    let seed_cfg = ModelConfig {
        kernel_backend: KernelBackend::Scalar,
        ..ModelConfig::default()
    };
    let simd_cfg = ModelConfig::default();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    let levels = [opts.level.saturating_sub(1).max(3), opts.level];
    let mut rows = Vec::new();
    for &level in &levels {
        let base = Arc::new(mpas_mesh::generate(level, 0));
        let iters = if level >= 6 { 2 } else { 6 };
        // Per-executor baseline: seed kernels on the natural ordering.
        let mut base_ms = [f64::NAN; 2];
        for ord in [Reordering::None, Reordering::Sfc, Reordering::Bfs] {
            let mesh = if ord == Reordering::None {
                base.clone()
            } else {
                Arc::new(base.reordered(&ord.permutation(&base)))
            };
            for (xi, serial) in [(0usize, true), (1, false)] {
                let step_ms = |cfg: ModelConfig| -> f64 {
                    let exec = if serial {
                        mpas_swe::Exec::serial()
                    } else {
                        mpas_swe::Exec::threaded(threads)
                    };
                    let mut m = ShallowWaterModel::new_on(mesh.clone(), cfg, tc, None, exec);
                    time_per_call(|| m.step(), iters) * 1e3
                };
                let seed_ms = step_ms(seed_cfg);
                let simd_ms = step_ms(simd_cfg);
                if ord == Reordering::None {
                    base_ms[xi] = seed_ms;
                }
                rows.push(vec![
                    level.to_string(),
                    mesh.n_cells().to_string(),
                    ord.name().to_string(),
                    if serial {
                        "serial".to_string()
                    } else {
                        format!("threaded:{threads}")
                    },
                    format!("{seed_ms:.2}"),
                    format!("{simd_ms:.2}"),
                    format!("{:.2}x", base_ms[xi] / simd_ms),
                ]);
            }
        }
    }
    print_table(
        "fig_layout — RK-4 step: ordering x level x executor (speedup vs seed kernels, natural order)",
        &["level", "cells", "ordering", "executor", "seed ms/step", "simd ms/step", "speedup"],
        &rows,
    );
}

/// `fig_simd` — the PR-9 kernel-tier ladder: RK-4 step time by backend ×
/// vertical layers × mesh level, on the SFC ordering the cache-blocked
/// sweeps tile. Flat (`k = 1`) rows compare both tiers directly; layered
/// rows (`k = 4, 7`) time the vertically batched simd model and report the
/// speedup over running the flat simd model once per layer — the
/// `kernel.simd_speedup_serial` quantity the perf gate watches
/// (DESIGN.md §14).
fn fig_simd(opts: &Opts) {
    use mpas_mesh::Reordering;

    let tc = TestCase::Case5;
    let levels = [opts.level.saturating_sub(1).max(3), opts.level];
    let mut rows = Vec::new();
    for &level in &levels {
        let base = Arc::new(mpas_mesh::generate(level, 0));
        let mesh = Arc::new(base.reordered(&Reordering::Sfc.permutation(&base)));
        let iters = if level >= 6 { 2 } else { 5 };
        let cfg = |backend: KernelBackend, k: usize| ModelConfig {
            kernel_backend: backend,
            n_layers: k,
            ..ModelConfig::default()
        };
        let mut flat_ms = f64::NAN;
        for backend in KernelBackend::ALL {
            let mut m = ShallowWaterModel::new(mesh.clone(), cfg(backend, 1), tc, None);
            let ms = time_per_call(|| m.step(), iters) * 1e3;
            if backend == KernelBackend::Simd {
                flat_ms = ms;
            }
            rows.push(vec![
                level.to_string(),
                mesh.n_cells().to_string(),
                backend.name().to_string(),
                "1".to_string(),
                format!("{ms:.2}"),
                format!("{ms:.2}"),
                String::new(),
            ]);
        }
        for k in [4usize, 7] {
            let mut m = ShallowWaterModel::new(mesh.clone(), cfg(KernelBackend::Simd, k), tc, None);
            let ms = time_per_call(|| m.step(), iters) * 1e3;
            rows.push(vec![
                level.to_string(),
                mesh.n_cells().to_string(),
                "simd".to_string(),
                k.to_string(),
                format!("{ms:.2}"),
                format!("{:.2}", ms / k as f64),
                format!("{:.2}x", flat_ms * k as f64 / ms),
            ]);
        }
    }
    print_table(
        "fig_simd — RK-4 step: backend x layers x level on the SFC ordering (speedup vs k flat simd runs)",
        &["level", "cells", "backend", "k", "ms/step", "ms/step/layer", "speedup"],
        &rows,
    );
}

/// `fig_blame` — the PR-5 trace-analysis figure: distributed runs at
/// 2/4/8 ranks, decomposed by the blame analyzer into compute / wait /
/// copy fractions (mean over ranks; waits also max), with the trace
/// imbalance and the extracted critical path's length and wait share.
fn fig_blame(opts: &Opts) {
    use mpas_core::{run_distributed_recorded, DistributedConfig};
    use mpas_telemetry::analysis::Trace;
    use mpas_telemetry::Recorder;

    let tc = TestCase::Case5;
    let levels = [opts.level.saturating_sub(1).max(3), opts.level];
    let mut rows = Vec::new();
    for &level in &levels {
        let mesh = mpas_mesh::generate(level, 0);
        let dt = ModelConfig::suggested_dt(&mesh);
        let n_steps = if level >= 6 { 2 } else { 4 };
        for ranks in [2usize, 4, 8] {
            let rec = Recorder::new();
            run_distributed_recorded(
                &mesh,
                DistributedConfig {
                    n_ranks: ranks,
                    halo_layers: 3,
                    model: ModelConfig::default(),
                    test_case: tc,
                    dt,
                    n_steps,
                },
                &rec,
            );
            let t = Trace::from_recorder(&rec);
            let blame = t.blame();
            let cp = t.critical_path();
            let n = blame.ranks.len().max(1) as f64;
            let mean = |f: &dyn Fn(&mpas_telemetry::analysis::RankBlame) -> f64| -> f64 {
                blame.ranks.iter().map(f).sum::<f64>() / n
            };
            rows.push(vec![
                level.to_string(),
                mesh.n_cells().to_string(),
                ranks.to_string(),
                format!("{:.1}", 100.0 * mean(&|r| r.compute_frac())),
                format!("{:.1}", 100.0 * mean(&|r| r.wait_frac())),
                format!("{:.1}", 100.0 * blame.max_wait_frac()),
                format!("{:.1}", 100.0 * mean(&|r| r.copy_frac())),
                format!("{:.3}", blame.imbalance),
                format!("{:.2}", 1e3 * blame.makespan_s / n_steps as f64),
                format!("{:.2}", 1e3 * cp.path_s() / n_steps as f64),
                format!(
                    "{:.1}",
                    100.0 * cp.wait_s / cp.path_s().max(f64::MIN_POSITIVE)
                ),
            ]);
        }
    }
    print_table(
        "fig_blame — distributed blame decomposition x ranks x level (per-step ms; critical path from the measured trace)",
        &[
            "level",
            "cells",
            "ranks",
            "compute%",
            "wait%",
            "max wait%",
            "copy%",
            "imbalance",
            "step ms",
            "cp ms",
            "cp wait%",
        ],
        &rows,
    );
}
