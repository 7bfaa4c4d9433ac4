//! `swe_run --metrics` records the `analysis.*` gauges (per-rank blame and
//! the critical path) only for a run that has ranks to attribute, and the
//! mesh set-up time on every path.

use mpas_telemetry::export::{parse_json, JsonValue};
use mpas_telemetry::names::CORE_SETUP_MESH_SECONDS;
use std::path::PathBuf;
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swe_metrics_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

/// Run `swe_run` at level 3 with `extra` arguments and return the metric
/// names of every section of its `--metrics` JSON.
fn metric_names(file: &str, extra: &[&str]) -> Vec<String> {
    let path = tmp(file);
    let out = Command::new(env!("CARGO_BIN_EXE_swe_run"))
        .args(["--level", "3", "--days", "0.02"])
        .args(extra)
        .args(["--metrics", path.to_str().unwrap()])
        .output()
        .expect("run swe_run");
    assert!(out.status.success(), "swe_run {extra:?}: {}", out.status);
    let text = std::fs::read_to_string(&path).expect("metrics written");
    let doc = parse_json(&text).expect("metrics are valid JSON");
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
