//! `swe_run --metrics` records the `analysis.*` gauges (per-rank blame and
//! the critical path) only for a run that has ranks to attribute, the mesh
//! set-up time on every path, and the telemetry of the executor that ran.

use mpas_telemetry::export::{parse_json, JsonValue};
use mpas_telemetry::names::CORE_SETUP_MESH_SECONDS;
use std::path::PathBuf;
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swe_metrics_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
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

/// Run `swe_run` at level 3 with `extra` arguments and return the metric
/// names of every section of its `--metrics` JSON.
fn metric_names(file: &str, extra: &[&str]) -> Vec<String> {
    let doc = metrics(file, "0.02", extra);
    ["counters", "gauges", "histograms"]
        .iter()
        .filter_map(|s| doc.get(s).and_then(JsonValue::as_obj))
        .flat_map(|section| section.iter().map(|(k, _)| k.clone()))
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
        let args = ["--case", "5", "--adaptive", "--executor", executor];
        metrics(file, "0.05", &args)
    };
    let serial = run("adaptive_serial.json", "serial");
    let threaded = run("adaptive_threaded.json", "threaded:2");
    let histogram =
        |doc: &JsonValue, name: &str| doc.get("histograms").and_then(|h| h.get(name)).is_some();
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
    assert!(histogram(&threaded, "swe.step_seconds"));
    // Both ran the same steps to the same bits.
    for gauge in ["core.sim.h_err_l2", "core.sim.mass_drift"] {
        let bits = |doc: &JsonValue| {
            let v = doc.get("gauges").and_then(|g| g.get(gauge));
            v.and_then(JsonValue::as_f64).expect(gauge).to_bits()
        };
        assert_eq!(bits(&serial), bits(&threaded), "{gauge}");
    }
}
