#![warn(missing_docs)]
//! Shared harness utilities for the benchmark suite and the `figures`
//! binary (which regenerates every table and figure of the paper — see
//! EXPERIMENTS.md for the experiment index).

pub mod render;

use mpas_telemetry::gate::BaselineFile;
use mpas_telemetry::MetricsSnapshot;
use std::path::Path;
use std::time::Instant;

/// `--gate FILE` of `swe_run` and `swe_load`: print `snap` evaluated
/// against FILE's baseline for the run's manifest `key`. The run passes if
/// there is one and no fail-severity entry (with `strict`, no entry) trips.
pub fn gate(path: &Path, key: &str, snap: &MetricsSnapshot, strict: bool) -> bool {
    let file = BaselineFile::read(path).unwrap_or_else(|e| panic!("{e}"));
    match file.get(key) {
        Ok(baseline) => {
            let outcome = baseline.evaluate(snap);
            print!("{}", outcome.render());
            !(outcome.failed() || (strict && outcome.warned()))
        }
        Err(msg) => {
            println!("gate: {}: {msg}\nverdict: no-baseline", path.display());
            false
        }
    }
}

/// Print an aligned plain-text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (k, cell) in row.iter().enumerate() {
            if k < widths.len() {
                widths[k] = widths[k].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (k, c) in cells.iter().enumerate() {
            s.push_str(&format!(
                "{:>width$}  ",
                c,
                width = widths[k.min(widths.len() - 1)]
            ));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Wall-clock a closure `iters` times and return seconds per call (after
/// one warm-up call).
pub fn time_per_call<F: FnMut()>(mut f: F, iters: usize) -> f64 {
    f();
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_secs_f64() / iters as f64
}

/// Format seconds human-readably.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_returns_positive() {
        let mut x = 0u64;
        let t = time_per_call(
            || {
                x = x.wrapping_add(1);
            },
            10,
        );
        assert!(t >= 0.0);
    }

    #[test]
    fn fmt_units() {
        assert!(fmt_secs(2.0).ends_with(" s"));
        assert!(fmt_secs(2e-3).ends_with(" ms"));
        assert!(fmt_secs(2e-6).ends_with(" µs"));
    }
}
