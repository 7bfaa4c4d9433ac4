//! `swe_diag`: root-cause a performance/correctness regression from the
//! telemetry history store.
//!
//! ```text
//! swe_diag --history-dir H [--run R|latest] [--against last=5] [--json] [--list]
//! ```
//!
//! Reads the store recorded by `swe_run --history-dir` / `swe_serve
//! --history-dir` / `swe_load --history-dir`, selects baseline runs
//! whose manifest key matches the run under diagnosis (all ten axes of
//! `RunManifest::AXES`: case and rotation, mesh and numbering, backend,
//! layers, executor, ranks and step count),
//! and prints the ranked [`mpas_telemetry::diagnose::DiagnosisReport`]:
//! which metric regressed, attributed to which dimension
//! (kernel-backend, a Table-I kernel span, a rank's blame fraction, the
//! serving plane), with effect sizes in gate band-widths and the store
//! rows supporting each finding.
//!
//! Exit codes: `0` clean (or warn-severity drift only), `1` a
//! fail-severity regression was attributed, `2` usage or store errors.
//! CI's history-smoke job asserts the `1`: a forced-scalar run at level
//! 6, k=4 must produce a top-ranked kernel-backend finding.

use mpas_telemetry::diagnose::diagnose;
use mpas_telemetry::store::HistoryStore;
use std::path::PathBuf;

struct Args {
    history_dir: PathBuf,
    run: String,
    against: usize,
    json: bool,
    list: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: swe-diag --history-dir DIR [--run ID|latest] \
         [--against last=N] [--json] [--list]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        history_dir: PathBuf::new(),
        run: "latest".to_string(),
        against: 5,
        json: false,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {a}");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--history-dir" => args.history_dir = PathBuf::from(val()),
            "--run" => args.run = val(),
            "--against" => {
                let v = val();
                args.against = match v.trim_start_matches("last=").parse() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        eprintln!("--against must be last=N or N (N >= 1), got {v}");
                        std::process::exit(2);
                    }
                };
            }
            "--json" => args.json = true,
            "--list" => args.list = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    if args.history_dir.as_os_str().is_empty() {
        eprintln!("--history-dir is required");
        usage();
    }
    args
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("swe-diag: {msg}");
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    let store = HistoryStore::open(&args.history_dir).unwrap_or_else(|e| fail(e));

    if args.list {
        // One run a line: its id, the build it came from, and its baseline
        // key (every identity axis: runs with equal keys baseline each
        // other).
        println!("{:<9} {:<20} key", "run", "git");
        for m in store.runs().unwrap_or_else(|e| fail(e)) {
            println!("{:<9} {:<20} {}", m.run_id, m.git, m.baseline_key());
        }
        return;
    }

    let run_id = if args.run == "latest" {
        match store.latest() {
            Ok(Some(m)) => m.run_id,
            Ok(None) => fail("store has no recorded runs"),
            Err(e) => fail(e),
        }
    } else {
        args.run.clone()
    };

    let report = diagnose(&store, &run_id, args.against).unwrap_or_else(|e| fail(e));
    if args.json {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }
    if report.failed() {
        std::process::exit(1);
    }
}
