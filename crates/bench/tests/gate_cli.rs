//! End-to-end exit-code tests of the `swe-run` regression-gate and
//! invariant-alert chain: `--gate-write` → `--gate` green, a tightened
//! baseline exits 1, a run whose workload the file holds no baseline for
//! exits 1 naming its key, an injected mass drift trips the monitor with
//! exit 3, and `--report` prints a blame table whose artifacts parse.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::{Mutex, PoisonError};

fn swe_run() -> Command {
    Command::new(env!("CARGO_BIN_EXE_swe_run"))
}

/// Run one `swe_run` child at a time. The gate compares a child's step time
/// and blame wait fraction against a baseline, and children running side by
/// side on a small host slow each other down enough to read `warn`.
fn run(cmd: &mut Command) -> Output {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    cmd.output().expect("run swe_run")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swe_gate_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

/// The names (run manifest keys) of the baselines a `--gate-write` file
/// holds, and its text.
fn baseline_keys(path: &PathBuf) -> (Vec<String>, String) {
    let text = std::fs::read_to_string(path).expect("baseline written");
    mpas_telemetry::export::validate_json(&text).expect("baseline is valid JSON");
    let file = mpas_telemetry::gate::BaselineFile::parse(&text).expect("baseline file parses");
    (file.baselines.into_iter().map(|b| b.name).collect(), text)
}

#[test]
fn gate_write_then_gate_passes_and_tightened_baseline_fails() {
    // The run gates against the baseline it fits in the same invocation:
    // the fitted medians are the run's own p50s, so the check is exact and
    // no second child's wall clock enters it.
    let base = tmp("base.json");
    let _ = std::fs::remove_file(&base);
    let out = run(swe_run()
        .args(["--level", "3", "--days", "0.05", "--ranks", "2"])
        .args(["--gate-write", base.to_str().unwrap()])
        .args(["--gate", base.to_str().unwrap()]));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "gate-write run failed: {stdout}");
    let (keys, text) = baseline_keys(&base);
    let [key] = &keys[..] else {
        panic!("one baseline expected: {text}")
    };
    assert!(text.contains("core.sim.step_seconds"));
    assert!(text.contains("core.sim.mass_drift"));

    // The identical configuration gates green against its own baseline.
    assert_eq!(out.status.code(), Some(0), "gate run: {stdout}");
    assert!(stdout.contains("verdict: ok"), "gate output: {stdout}");

    // A tightened fail-severity baseline under the run's key must exit 1.
    let tight = tmp("tight.json");
    std::fs::write(
        &tight,
        format!(
            "{{\"baselines\":[{{\"name\":\"{key}\",\"entries\":[{{\
             \"metric\":\"core.sim.step_seconds\",\"median\":1e-9,\"mad\":0,\
             \"floor\":1e-10,\"severity\":\"fail\"}}]}}]}}"
        ),
    )
    .unwrap();
    let out = run(swe_run()
        .args(["--level", "3", "--days", "0.05", "--ranks", "2"])
        .args(["--gate", tight.to_str().unwrap()]));
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("verdict: FAIL"));
}

#[test]
fn a_run_without_a_baseline_for_its_workload_exits_1_and_names_its_key() {
    let base = tmp("keyed.json");
    let _ = std::fs::remove_file(&base);
    let written = run(swe_run()
        .args(["--level", "3", "--days", "0.02"])
        .args(["--gate-write", base.to_str().unwrap()]));
    assert!(written.status.success());
    let key = baseline_keys(&base).0.remove(0);
    assert!(key.contains("|reorder=none|"), "{key}");

    // The same run on an SFC-ordered mesh is another workload.
    let out = run(swe_run()
        .args(["--level", "3", "--days", "0.02", "--reorder", "sfc"])
        .args(["--gate", base.to_str().unwrap()]));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    let sfc_key = key.replace("|reorder=none|", "|reorder=sfc|");
    assert!(stdout.contains(&sfc_key), "stdout: {stdout}");
    assert!(stdout.contains("verdict: no-baseline"), "stdout: {stdout}");

    // Writing the SFC run's baseline keeps the unordered one.
    let written = run(swe_run()
        .args(["--level", "3", "--days", "0.02", "--reorder", "sfc"])
        .args(["--gate-write", base.to_str().unwrap()]));
    assert!(written.status.success());
    assert_eq!(baseline_keys(&base).0, [key, sfc_key]);
}

#[test]
fn injected_mass_drift_trips_the_invariant_monitor() {
    let out = run(swe_run().args([
        "--level",
        "3",
        "--days",
        "0.02",
        "--inject-mass-drift",
        "1e-5",
    ]));
    assert_eq!(out.status.code(), Some(3), "alert must exit 3");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("ALERT"), "stderr: {stderr}");
    assert!(stderr.contains("core.sim.mass_drift"));
}

#[test]
fn report_prints_blame_table_and_json_artifact_parses() {
    let report = tmp("report.json");
    let out = run(swe_run()
        .args(["--level", "3", "--days", "0.05", "--ranks", "2", "--report"])
        .args(["--report-json", report.to_str().unwrap()]));
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("== per-rank blame =="), "stdout: {stdout}");
    assert!(stdout.contains("critical path"), "stdout: {stdout}");
    // A run models no schedule to compare against.
    assert!(!stdout.contains("modeled"), "stdout: {stdout}");

    let text = std::fs::read_to_string(&report).expect("report written");
    let v = mpas_telemetry::export::parse_json(&text).expect("report is valid JSON");
    let ranks = v
        .get("ranks")
        .and_then(|r| r.as_arr())
        .expect("ranks array");
    assert_eq!(ranks.len(), 2);
    for r in ranks {
        let f = |k: &str| r.get(k).and_then(|x| x.as_f64()).expect(k);
        let sum = f("compute_frac") + f("wait_frac") + f("copy_frac") + f("barrier_frac");
        assert!((sum - 1.0).abs() < 1e-9, "fractions sum {sum}");
    }
    assert!(v.get("critical_path").is_some());
}
