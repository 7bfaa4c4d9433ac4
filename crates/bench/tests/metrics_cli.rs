//! `swe_run --metrics` records the `analysis.*` gauges (per-rank blame and
//! the critical path) and the `msg.*` metrics only for a run that has
//! ranks, the mesh set-up time on every path, the telemetry of the
//! executor that ran, each step once, by the code that drives it, no
//! output diagnostic a step does not run, and no modeled schedule
//! (`sched.*`) at all. `--ranks N` runs N ranks for every N ≥ 1. A run
//! takes only the flags of the path it runs, and a flag it would ignore
//! is refused before the mesh is built.

use mpas_telemetry::export::{parse_json, JsonValue};
use mpas_telemetry::names::CORE_SETUP_MESH_SECONDS;
use std::path::{Path, PathBuf};
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swe_metrics_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

/// Run `swe_run` at level 3 with `args` and return its output.
fn swe_run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_swe_run"))
        .args(["--level", "3", "--days", "0.02"])
        .args(args)
        .output()
        .expect("run swe_run")
}

/// Run `swe_run` at level 3 over `days` with `extra` arguments and return
/// its `--metrics` JSON.
fn metrics(file: &str, days: &str, extra: &[&str]) -> JsonValue {
    let path = tmp(file);
    let out = Command::new(env!("CARGO_BIN_EXE_swe_run"))
        .args(["--level", "3", "--days", days])
        .args(extra)
        .args(["--metrics", path.to_str().unwrap()])
        .output()
        .expect("run swe_run");
    assert!(out.status.success(), "swe_run {extra:?}: {}", out.status);
    let text = std::fs::read_to_string(&path).expect("metrics written");
    parse_json(&text).expect("metrics are valid JSON")
}

/// The metric names of every section of a `--metrics` JSON.
fn names_of(doc: &JsonValue) -> Vec<String> {
    ["counters", "gauges", "histograms"]
        .iter()
        .filter_map(|s| doc.get(s).and_then(JsonValue::as_obj))
        .flat_map(|section| section.iter().map(|(k, _)| k.clone()))
        .collect()
}

/// Run `swe_run` at level 3 with `extra` arguments and return the metric
/// names of every section of its `--metrics` JSON.
fn metric_names(file: &str, extra: &[&str]) -> Vec<String> {
    names_of(&metrics(file, "0.02", extra))
}

/// The sample count of histogram `name`, if recorded.
fn histogram_count(doc: &JsonValue, name: &str) -> Option<usize> {
    let h = doc.get("histograms").and_then(|h| h.get(name))?;
    h.get("count")
        .and_then(JsonValue::as_f64)
        .map(|c| c as usize)
}

/// The steps a run took, from its `--bench-json` record.
fn steps_run(bench: &Path) -> usize {
    let text = std::fs::read_to_string(bench).expect("bench record written");
    let doc = parse_json(&text).expect("bench record is valid JSON");
    doc.get("steps").and_then(JsonValue::as_f64).expect("steps") as usize
}

/// The `(phase, name)` of every event in a Chrome trace file.
fn trace_events(path: &Path) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(path).expect("trace written");
    let doc = parse_json(&text).expect("trace is valid JSON");
    let events = doc.get("traceEvents").and_then(JsonValue::as_arr);
    events
        .expect("traceEvents")
        .iter()
        .filter_map(|e| {
            let field = |k: &str| e.get(k).and_then(JsonValue::as_str).map(str::to_string);
            Some((field("ph")?, field("name")?))
        })
        .collect()
}

#[test]
fn serial_metrics_carry_no_analysis_gauges() {
    let names = metric_names("serial.json", &[]);
    assert!(names.iter().any(|k| k == "core.sim.h_err_l2"), "{names:?}");
    assert!(
        names.iter().any(|k| k == CORE_SETUP_MESH_SECONDS),
        "{names:?}"
    );
    let analysis: Vec<_> = names
        .iter()
        .filter(|k| k.starts_with("analysis."))
        .collect();
    assert!(analysis.is_empty(), "serial run recorded {analysis:?}");
    // No ranks, no messages: a metric that does not apply is absent.
    let msg: Vec<_> = names.iter().filter(|k| k.starts_with("msg.")).collect();
    assert!(msg.is_empty(), "serial run recorded {msg:?}");
}

#[test]
fn two_rank_metrics_keep_the_blame_gauges() {
    let names = metric_names("ranks.json", &["--ranks", "2"]);
    assert!(
        names.iter().any(|k| k == "analysis.blame.max_wait_frac"),
        "{names:?}"
    );
    assert!(
        names.iter().any(|k| k == CORE_SETUP_MESH_SECONDS),
        "{names:?}"
    );
}

#[test]
fn adaptive_runs_record_the_executor_they_ran_on() {
    let run = |file: &str, executor: &str| {
        let bench = tmp(&format!("bench_{file}"));
        let args = ["--case", "5", "--adaptive", "--executor", executor];
        let args = [&args[..], &["--bench-json", bench.to_str().unwrap()]].concat();
        (metrics(file, "0.05", &args), steps_run(&bench))
    };
    let (serial, serial_steps) = run("adaptive_serial.json", "serial");
    let (threaded, threaded_steps) = run("adaptive_threaded.json", "threaded:2");
    let histogram = |doc: &JsonValue, name: &str| histogram_count(doc, name).is_some();
    // The pool executor times its sweeps; the serial one at one layer
    // times only the step.
    for name in [
        "swe.kernel.A1.seconds",
        "swe.kernel.B1.seconds",
        "swe.kernel.H1+G.seconds",
    ] {
        assert!(histogram(&threaded, name), "threaded run lacks {name}");
        assert!(!histogram(&serial, name), "serial run records {name}");
    }
    // Each ran its steps on a `Simulation`, which times every one once.
    assert_eq!(
        histogram_count(&serial, "core.sim.step_seconds"),
        Some(serial_steps)
    );
    assert_eq!(
        histogram_count(&threaded, "core.sim.step_seconds"),
        Some(threaded_steps)
    );
    // Both ran the same steps to the same bits.
    for gauge in ["core.sim.h_err_l2", "core.sim.mass_drift"] {
        let bits = |doc: &JsonValue| {
            let v = doc.get("gauges").and_then(|g| g.get(gauge));
            v.and_then(JsonValue::as_f64).expect(gauge).to_bits()
        };
        assert_eq!(bits(&serial), bits(&threaded), "{gauge}");
    }
}

#[test]
fn every_step_is_recorded_once() {
    let runs: [(&str, &[&str], usize); 5] = [
        ("serial", &["--executor", "serial"], 0),
        ("threaded", &["--executor", "threaded:2"], 0),
        ("hybrid", &["--executor", "hybrid:2:2"], 0),
        ("adaptive", &["--adaptive"], 0),
        ("ranks", &["--ranks", "2"], 2),
    ];
    for (label, extra, ranks) in runs {
        let path = |what: &str| tmp(&format!("once_{label}_{what}.json"));
        let (trace, bench) = (path("trace"), path("bench"));
        let mut args = extra.to_vec();
        args.extend([
            "--trace",
            trace.to_str().unwrap(),
            "--bench-json",
            bench.to_str().unwrap(),
        ]);
        let doc = metrics(&format!("once_{label}.json"), "0.02", &args);
        let steps = steps_run(&bench);
        assert!(steps >= 2, "{label}: {steps} steps");

        // One step timer for each loop that drives steps: the facade's (a
        // rank run derives it from the rank step spans), and each rank's.
        let count = |name: &str| histogram_count(&doc, name);
        assert_eq!(count("core.sim.step_seconds"), Some(steps), "{label}");
        let rank_steps = (ranks > 0).then_some(ranks * steps);
        assert_eq!(count("core.rank.step_seconds"), rank_steps, "{label}");
        let names = names_of(&doc);
        for gone in ["swe.step_seconds", "core.sim.steps"] {
            assert!(!names.iter().any(|k| k == gone), "{label} records {gone}");
        }
        let msg: Vec<_> = names.iter().filter(|k| k.starts_with("msg.")).collect();
        assert_eq!(msg.is_empty(), ranks == 0, "{label}: {msg:?}");
        // A run models no schedule.
        let sched: Vec<_> = names.iter().filter(|k| k.starts_with("sched.")).collect();
        assert!(sched.is_empty(), "{label} records {sched:?}");

        // Every path writes its measured spans and instants to `--trace`.
        let events = trace_events(&trace);
        let count = |ph: &str, name: &str| {
            let hits = events.iter().filter(|(p, n)| p == ph && n == name);
            hits.count()
        };
        assert_eq!(count("X", "swe.step"), 0, "{label}");
        assert_eq!(count("i", "core.step"), 0, "{label}");
        let (step_span, per_step) = if ranks > 0 {
            ("step", ranks)
        } else {
            ("core.step", 1)
        };
        assert_eq!(count("X", step_span), per_step * steps, "{label}");
    }
}

#[test]
fn a_threaded_run_times_no_output_diagnostics() {
    // No step reads A3, A4 or X6, and `swe_run` requests no outputs: the
    // pool executor times every sweep a step runs, and none of those.
    let names = metric_names("threaded_outputs.json", &["--executor", "threaded:2"]);
    assert!(
        names.iter().any(|k| k == "swe.kernel.B1.seconds"),
        "{names:?}"
    );
    for label in ["A3", "A4", "X6"] {
        let name = format!("swe.kernel.{label}.seconds");
        assert!(!names.contains(&name), "{name} in {names:?}");
    }
}

#[test]
fn a_distributed_run_rejects_a_non_serial_executor() {
    // Every rank runs the serial executor: another executor would only
    // rename the run's baseline key.
    let out = swe_run(&["--ranks", "2", "--executor", "threaded:2"]);
    assert!(!out.status.success(), "{}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--ranks") && stderr.contains("--executor"),
        "{stderr}"
    );
}

#[test]
fn a_one_rank_run_runs_one_rank() {
    let bench = tmp("one_rank_bench.json");
    let args = ["--ranks", "1", "--bench-json", bench.to_str().unwrap()];
    let one_rank = metrics("one_rank.json", "0.02", &args);
    let steps = steps_run(&bench);
    assert_eq!(
        histogram_count(&one_rank, "core.rank.step_seconds"),
        Some(steps)
    );
    // One rank owns every cell: it ends in the serial run's bits.
    let serial = metrics("one_rank_serial.json", "0.02", &[]);
    for gauge in ["core.sim.h_err_l2", "core.sim.mass_drift"] {
        let bits = |doc: &JsonValue| {
            let v = doc.get("gauges").and_then(|g| g.get(gauge));
            v.and_then(JsonValue::as_f64).expect(gauge).to_bits()
        };
        assert_eq!(bits(&one_rank), bits(&serial), "{gauge}");
    }
}

/// Run `swe_run` with `args` and check that it refuses them before it
/// builds its mesh, naming every flag in `flags`.
fn assert_rejected(args: &[&str], flags: &[&str]) {
    let out = swe_run(args);
    assert!(!out.status.success(), "{args:?}: {}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("mesh set-up"), "{args:?}: {stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for flag in flags {
        assert!(stderr.contains(flag), "{args:?} lacks {flag}: {stderr}");
    }
}

#[test]
fn an_adaptive_run_rejects_frames() {
    // The adaptive loop dumps no frames: the flag would write nothing.
    let dir = tmp("adaptive_frames");
    let out = dir.to_str().unwrap();
    let args = ["--adaptive", "--frames", "2", "--out", out];
    assert_rejected(&args, &["--adaptive", "--frames"]);
    assert!(!dir.exists(), "{} created", dir.display());
}

#[test]
fn a_distributed_run_rejects_frames() {
    assert_rejected(&["--ranks", "2", "--frames", "2"], &["--ranks", "--frames"]);
}

#[test]
fn a_report_needs_ranks() {
    // Without ranks there is no rank time to attribute.
    assert_rejected(&["--report"], &["--report", "--ranks"]);
    let json = tmp("report_without_ranks.json");
    let args = ["--report-json", json.to_str().unwrap()];
    assert_rejected(&args, &["--report-json", "--ranks"]);
    assert!(!json.exists(), "{} written", json.display());
}

#[test]
fn the_retired_policy_flag_is_unknown() {
    let out = swe_run(&["--policy", "kernel-level"]);
    assert!(!out.status.success(), "{}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --policy"), "{stderr}");
}
