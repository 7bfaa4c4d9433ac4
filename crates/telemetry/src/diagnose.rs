//! Cross-run regression attribution over the [`crate::store`] history.
//!
//! Given one *current* run and a baseline set selected from the store by
//! matching manifest keys ([`crate::store::RunManifest::baseline_key`]:
//! the ten axes of [`crate::store::RunManifest::AXES`] — same case and
//! rotation, mesh and numbering, backend, layers, executor, ranks and
//! step count — only the code or the environment
//! differs), this module
//! answers the question the gate cannot: not just *whether* something
//! regressed, but *where*. Each finding names the metric, the
//! attribution dimension (kernel-backend, a Table-I kernel span, a
//! rank, a blame fraction, the serving plane), the effect size in
//! band-widths, and the store rows that support it.
//!
//! # Band math: reused, not reinvented
//!
//! The statistical core is exactly the perf gate's
//! ([`crate::gate`]): per metric, the baseline runs' values go through
//! [`median_mad`], and a [`BaselineEntry`] with band
//! `BAND_K · MAD_SIGMA · mad + floor` decides violation via
//! [`BaselineEntry::violates`], on each run's summary p50 (a counter or
//! gauge stores one sample, so its p50 *is* the value). What diagnosis
//! adds on top is a *classifier* (which direction/severity/floor a metric
//! class gets — speedups regress downward, error norms upward, drifts by
//! absolute value) and a *ranker*: fail-severity findings first, then by effect
//! size `|current − median| / band`. With a single baseline run the MAD
//! is zero and the relative floor carries the whole band — that is the
//! CI smoke configuration (`--against last=1`), and it works because
//! the injected regressions it must catch are far outside any
//! reasonable floor (a forced-scalar SIMD run moves
//! `kernel.simd_speedup_serial` from ~2.6 to ~1.0).
//!
//! # Attribution vocabulary
//!
//! [`Dimension`] speaks the paper's cost-breakdown language:
//!
//! * **kernel-backend** — the SIMD-vs-scalar dispatch itself
//!   (`kernel.simd_speedup_serial`); the top suspect when a build or
//!   environment change silently disabled vectorisation;
//! * **kernel** — one Table-I kernel span
//!   (`swe.kernel.<label>.seconds`, e.g. `swe.kernel.B1.seconds` or the
//!   fused `swe.kernel.C2+E.seconds`);
//! * **rank** / **blame** — the PR 5 decomposition
//!   (`analysis.blame.rank<r>.<dim>_frac`): which rank, and which of
//!   compute/wait/copy/barrier moved;
//! * **serving** — `serve.*` / `server.*` metrics from `swe_load`;
//! * **solver** — everything else (step time, drifts, error norms).

use crate::gate::{median_mad, BaselineEntry, Direction, Severity};
use crate::names;
use crate::store::{HistoryStore, RunFilter, RunManifest};
use crate::{json_escape, json_num};
use std::fmt::Write as _;
use std::io;

/// Band width of every diagnosis band, in MAD-σ units (the gate's `k`).
pub const BAND_K: f64 = 4.0;

/// Which part of the stack a finding points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dimension {
    /// The SIMD-vs-scalar kernel dispatch itself.
    KernelBackend,
    /// One Table-I kernel span.
    Kernel,
    /// One rank's blame fraction.
    Rank,
    /// A whole-run blame/critical-path aggregate.
    Blame,
    /// The serving plane (`swe_load` percentiles, server counters).
    Serving,
    /// Everything else: solver-level metrics.
    Solver,
}

impl Dimension {
    /// Stable wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Dimension::KernelBackend => "kernel-backend",
            Dimension::Kernel => "kernel",
            Dimension::Rank => "rank",
            Dimension::Blame => "blame",
            Dimension::Serving => "serving",
            Dimension::Solver => "solver",
        }
    }
}

/// One baseline run's value backing a finding.
#[derive(Debug, Clone, PartialEq)]
pub struct SupportRow {
    /// Baseline run id.
    pub run_id: String,
    /// That run's value for the finding's metric.
    pub value: f64,
}

/// One attributed regression.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The regressed metric.
    pub metric: String,
    /// Attribution dimension.
    pub dimension: Dimension,
    /// Kernel name for [`Dimension::Kernel`] findings.
    pub kernel: Option<String>,
    /// Rank for [`Dimension::Rank`] findings.
    pub rank: Option<usize>,
    /// Blame dimension (`compute`/`wait`/`copy`/`barrier`) for rank
    /// findings.
    pub blame_dim: Option<String>,
    /// The fitted band (gate math: median/MAD over the baseline set).
    pub entry: BaselineEntry,
    /// The current run's value.
    pub current: f64,
    /// Departure in band-widths (`excess / band`); the rank key after
    /// severity.
    pub effect: f64,
    /// `(current − median) / |median|`, `NaN` when the median is zero.
    pub delta_frac: f64,
    /// The store rows behind the band, one per baseline run.
    pub support: Vec<SupportRow>,
}

impl Finding {
    fn to_json(&self) -> String {
        let opt_str = |v: &Option<String>| match v {
            Some(s) => format!("\"{}\"", json_escape(s)),
            None => "null".to_string(),
        };
        let support: Vec<String> = self
            .support
            .iter()
            .map(|s| {
                format!(
                    "{{\"run\": \"{}\", \"value\": {}}}",
                    json_escape(&s.run_id),
                    json_num(s.value)
                )
            })
            .collect();
        format!(
            "{{\"metric\": \"{}\", \"dimension\": \"{}\", \"kernel\": {}, \
             \"rank\": {}, \"blame_dim\": {}, \"severity\": \"{}\", \
             \"direction\": \"{}\", \"current\": {}, \"median\": {}, \
             \"mad\": {}, \"band\": {}, \"effect\": {}, \"delta_frac\": {}, \
             \"support\": [{}]}}",
            json_escape(&self.metric),
            self.dimension.as_str(),
            opt_str(&self.kernel),
            match self.rank {
                Some(r) => r.to_string(),
                None => "null".to_string(),
            },
            opt_str(&self.blame_dim),
            self.entry.severity.as_str(),
            self.entry.direction.as_str(),
            json_num(self.current),
            json_num(self.entry.median),
            json_num(self.entry.mad),
            json_num(self.entry.band()),
            json_num(self.effect),
            json_num(self.delta_frac),
            support.join(", "),
        )
    }
}

/// The ranked attribution report.
#[derive(Debug, Clone)]
pub struct DiagnosisReport {
    /// The run under diagnosis.
    pub run: RunManifest,
    /// Baseline run ids the bands were fitted from (oldest first).
    pub baseline_runs: Vec<String>,
    /// Metrics compared (present in the current run and in at least
    /// one baseline).
    pub checked_metrics: usize,
    /// Regressions, ranked fail-severity first, then by effect size.
    pub findings: Vec<Finding>,
}

impl DiagnosisReport {
    /// Whether a fail-severity regression was attributed (the
    /// `swe_diag` non-zero exit condition).
    pub fn failed(&self) -> bool {
        self.findings
            .iter()
            .any(|f| f.entry.severity == Severity::Fail)
    }

    /// Human-readable report, top-ranked finding first.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "diagnosis: run {} (case {} level {} {} k={} {} ranks={}, git {}) vs {} baseline run(s) [{}]",
            self.run.run_id,
            self.run.case,
            self.run.level,
            self.run.backend,
            self.run.layers,
            self.run.executor,
            self.run.ranks,
            self.run.git,
            self.baseline_runs.len(),
            self.baseline_runs.join(", "),
        );
        if self.baseline_runs.is_empty() {
            let _ = writeln!(
                out,
                "  no baseline runs match this manifest key; record more runs first"
            );
            let _ = writeln!(out, "verdict: no-baseline");
            return out;
        }
        let _ = writeln!(
            out,
            "  checked {} metric(s), {} regressed",
            self.checked_metrics,
            self.findings.len()
        );
        for (i, f) in self.findings.iter().enumerate() {
            let where_ = match f.dimension {
                Dimension::Kernel => {
                    format!("kernel[{}]", f.kernel.as_deref().unwrap_or("?"))
                }
                Dimension::Rank => format!(
                    "rank{}[{}]",
                    f.rank.map(|r| r.to_string()).unwrap_or_default(),
                    f.blame_dim.as_deref().unwrap_or("?")
                ),
                d => d.as_str().to_string(),
            };
            let pct = if f.delta_frac.is_finite() {
                format!("{:+.1}%", f.delta_frac * 100.0)
            } else {
                "n/a".to_string()
            };
            let _ = writeln!(
                out,
                "  {:2}. {} {:<16} {}: {} vs median {} ({}, {:.1} band-widths {})",
                i + 1,
                match f.entry.severity {
                    Severity::Fail => "FAIL",
                    Severity::Warn => "warn",
                },
                where_,
                f.metric,
                fmt_val(f.current),
                fmt_val(f.entry.median),
                pct,
                f.effect,
                match f.entry.direction {
                    Direction::Above => "above",
                    Direction::Below => "below",
                    Direction::Both => "off",
                },
            );
            let support: Vec<String> = f
                .support
                .iter()
                .map(|s| format!("{}={}", s.run_id, fmt_val(s.value)))
                .collect();
            let _ = writeln!(out, "        support: {}", support.join(", "));
        }
        if self.failed() {
            let top = self
                .findings
                .iter()
                .find(|f| f.entry.severity == Severity::Fail)
                .expect("failed() implies a fail finding");
            let _ = writeln!(
                out,
                "verdict: FAIL — regression attributed to {} ({})",
                top.dimension.as_str(),
                top.metric
            );
        } else if self.findings.is_empty() {
            let _ = writeln!(out, "verdict: ok — no regressions against the baseline set");
        } else {
            let _ = writeln!(out, "verdict: warn — only warn-severity drift");
        }
        out
    }

    /// The report as a JSON document (the `--json` / HTTP shape).
    pub fn to_json(&self) -> String {
        let findings: Vec<String> = self.findings.iter().map(|f| f.to_json()).collect();
        let baselines: Vec<String> = self
            .baseline_runs
            .iter()
            .map(|r| format!("\"{}\"", json_escape(r)))
            .collect();
        format!(
            "{{\n  \"run\": {},\n  \"baselines\": [{}],\n  \"checked_metrics\": {},\n  \
             \"failed\": {},\n  \"findings\": [\n    {}\n  ]\n}}\n",
            self.run.to_json(),
            baselines.join(", "),
            self.checked_metrics,
            self.failed(),
            findings.join(",\n    "),
        )
    }
}

/// How a metric class is banded: everything a [`BaselineEntry`] needs
/// beyond the fitted median/MAD.
struct Class {
    direction: Direction,
    severity: Severity,
    abs: bool,
    rel_floor: f64,
    abs_floor: f64,
}

/// The metric-class table. Order matters: first match wins.
fn classify(metric: &str) -> Class {
    let c = |direction, severity, abs, rel_floor, abs_floor| Class {
        direction,
        severity,
        abs,
        rel_floor,
        abs_floor,
    };
    if metric.contains("speedup") {
        // A vanished speedup is the one deterministic, fail-worthy
        // performance signal (kernel.simd_speedup_serial is measured
        // in-process, A/B, so it is far less noisy than wall times).
        c(Direction::Below, Severity::Fail, false, 0.10, 1e-9)
    } else if metric.contains("drift") {
        // Signed conservation drifts: compare magnitudes; growth is a
        // correctness regression.
        c(Direction::Both, Severity::Fail, true, 0.05, 1e-9)
    } else if metric.starts_with("validate.") || metric.contains("err_l") {
        // Reference-norm errors are deterministic per build: any move
        // beyond the floor is a numerics change.
        c(Direction::Above, Severity::Fail, false, 0.10, 1e-12)
    } else if metric.ends_with("per_sec") {
        c(Direction::Below, Severity::Warn, false, 0.25, 1e-9)
    } else if metric.ends_with("_frac") || metric.contains("imbalance") {
        // Fractions live in [0,1]: an absolute floor is the right unit.
        c(Direction::Above, Severity::Warn, false, 0.0, 0.10)
    } else if metric.ends_with("seconds") || metric.ends_with("_ms") || metric.ends_with("_s") {
        // Wall times are the noisy class (shared CI runners).
        c(Direction::Above, Severity::Warn, false, 0.25, 1e-9)
    } else {
        c(Direction::Both, Severity::Warn, false, 0.25, 1e-9)
    }
}

/// Attribution-dimension classification (see the module docs).
fn dimension_of(metric: &str) -> (Dimension, Option<String>, Option<usize>, Option<String>) {
    if metric == names::KERNEL_SIMD_SPEEDUP_SERIAL || metric.contains("simd_speedup") {
        return (Dimension::KernelBackend, None, None, None);
    }
    if let Some(pos) = metric.find(".kernel.") {
        let rest = &metric[pos + ".kernel.".len()..];
        let name = rest.split('.').next().unwrap_or(rest);
        return (Dimension::Kernel, Some(name.to_string()), None, None);
    }
    if let Some(rest) = metric.strip_prefix("analysis.blame.rank") {
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        if let Ok(rank) = digits.parse::<usize>() {
            let tail = rest[digits.len()..].trim_start_matches('.');
            let blame_dim = tail.strip_suffix("_frac").unwrap_or(tail);
            return (
                Dimension::Rank,
                None,
                Some(rank),
                Some(blame_dim.to_string()),
            );
        }
    }
    if metric.starts_with("analysis.") {
        return (Dimension::Blame, None, None, None);
    }
    if metric.starts_with("serve.") || metric.starts_with("server.") {
        return (Dimension::Serving, None, None, None);
    }
    (Dimension::Solver, None, None, None)
}

/// Diagnose `run_id` against the `last_n` most recent matching baseline
/// runs.
///
/// Metrics present in the current run but in no baseline (or vice
/// versa) are skipped — new metrics are not regressions. Baselines are
/// selected strictly *before* the current run, so diagnosing a
/// mid-history run ignores its future.
pub fn diagnose(store: &HistoryStore, run_id: &str, last_n: usize) -> io::Result<DiagnosisReport> {
    let current = store.manifest(run_id)?;
    let key = current.baseline_key();
    let mut baselines = store.select_runs(&RunFilter::default())?;
    baselines.retain(|m| m.baseline_key() == key && m.run_id.as_str() < run_id);
    let skip = baselines.len().saturating_sub(last_n.max(1));
    baselines.drain(..skip);

    let mut report = DiagnosisReport {
        run: current,
        baseline_runs: baselines.iter().map(|m| m.run_id.clone()).collect(),
        checked_metrics: 0,
        findings: Vec::new(),
    };
    if baselines.is_empty() {
        return Ok(report);
    }

    // Baseline values per metric, in run order (summary reads only:
    // diagnosis never needs a raw shard).
    let mut history: std::collections::BTreeMap<String, Vec<SupportRow>> =
        std::collections::BTreeMap::new();
    for m in &baselines {
        for row in store.run_summary(&m.run_id)? {
            history
                .entry(row.metric.clone())
                .or_default()
                .push(SupportRow {
                    run_id: m.run_id.clone(),
                    value: row.summary.p50,
                });
        }
    }

    for row in store.run_summary(run_id)? {
        let Some(support) = history.get(&row.metric) else {
            continue;
        };
        report.checked_metrics += 1;
        let values: Vec<f64> = support.iter().map(|s| s.value).collect();
        let (median, mad) = median_mad(&values);
        let class = classify(&row.metric);
        let entry = BaselineEntry {
            metric: row.metric.clone(),
            median,
            mad,
            count: values.len(),
            k: BAND_K,
            floor: class.rel_floor * median.abs() + class.abs_floor,
            direction: class.direction,
            severity: class.severity,
            abs: class.abs,
        };
        let current_value = row.summary.p50;
        if !entry.violates(current_value) {
            continue;
        }
        let v = if entry.abs {
            current_value.abs()
        } else {
            current_value
        };
        let excess = match entry.direction {
            Direction::Above => v - median,
            Direction::Below => median - v,
            Direction::Both => (v - median).abs(),
        };
        let band = entry.band().max(f64::MIN_POSITIVE);
        let (dimension, kernel, rank, blame_dim) = dimension_of(&row.metric);
        report.findings.push(Finding {
            metric: row.metric,
            dimension,
            kernel,
            rank,
            blame_dim,
            current: current_value,
            effect: excess / band,
            delta_frac: if median != 0.0 {
                (current_value - median) / median.abs()
            } else {
                f64::NAN
            },
            support: support.clone(),
            entry,
        });
    }

    // Rank: fail-severity findings first, then by effect size. This is
    // what puts the kernel-backend dimension on top when forced-scalar
    // dispatch tanks the speedup, even though every downstream kernel
    // span also warns with large effects.
    report.findings.sort_by(|a, b| {
        let sev = |f: &Finding| match f.entry.severity {
            Severity::Fail => 0,
            Severity::Warn => 1,
        };
        sev(a).cmp(&sev(b)).then(
            b.effect
                .partial_cmp(&a.effect)
                .unwrap_or(std::cmp::Ordering::Equal),
        )
    });
    Ok(report)
}

/// Compact human-friendly value formatting for the rendered report.
fn fmt_val(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    let a = v.abs();
    if v == 0.0 || (1e-3..1e5).contains(&a) {
        format!("{v:.4}")
    } else {
        format!("{v:.3e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{MetricKind, MetricQuery, RunFilter};
    use std::collections::BTreeMap;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("swe_diag_{}_{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn manifest() -> RunManifest {
        RunManifest::new("5", 6, 0, "simd", 4, "serial", 0, 10)
    }

    fn record(store: &HistoryStore, speedup: f64, kernel_s: f64) -> RunManifest {
        let mut metrics: BTreeMap<String, (MetricKind, Vec<f64>)> = BTreeMap::new();
        metrics.insert(
            names::KERNEL_SIMD_SPEEDUP_SERIAL.to_string(),
            (MetricKind::Gauge, vec![speedup]),
        );
        metrics.insert(
            "swe.kernel.B1.seconds".to_string(),
            (
                MetricKind::Histogram,
                (0..10)
                    .map(|i| kernel_s * (1.0 + 0.01 * i as f64))
                    .collect(),
            ),
        );
        metrics.insert(
            "core.sim.mass_drift".to_string(),
            (MetricKind::Gauge, vec![1e-14]),
        );
        store.record(&manifest(), &metrics).unwrap()
    }

    #[test]
    fn forced_scalar_regression_is_attributed_to_the_kernel_backend() {
        let store = HistoryStore::open(&tmp("attrib")).unwrap();
        for _ in 0..3 {
            record(&store, 2.6, 0.05);
        }
        let cur = record(&store, 1.0, 0.18);
        let report = diagnose(&store, &cur.run_id, 5).unwrap();
        assert_eq!(report.baseline_runs.len(), 3);
        assert!(report.failed());
        let top = &report.findings[0];
        assert_eq!(top.dimension, Dimension::KernelBackend);
        assert_eq!(top.metric, names::KERNEL_SIMD_SPEEDUP_SERIAL);
        assert_eq!(top.entry.severity, Severity::Fail);
        // The slowed kernel span shows up too, as a ranked warn finding.
        assert!(report
            .findings
            .iter()
            .any(|f| { f.dimension == Dimension::Kernel && f.kernel.as_deref() == Some("B1") }));
        // Unmoved metrics produce no findings.
        assert!(report
            .findings
            .iter()
            .all(|f| f.metric != "core.sim.mass_drift"));
        let rendered = report.render();
        assert!(rendered.contains("verdict: FAIL"));
        assert!(rendered.contains("kernel-backend"));
        crate::export::validate_json(&report.to_json()).unwrap();
    }

    #[test]
    fn single_baseline_works_via_the_relative_floor() {
        let store = HistoryStore::open(&tmp("single")).unwrap();
        record(&store, 2.6, 0.05);
        let cur = record(&store, 1.0, 0.05);
        let report = diagnose(&store, &cur.run_id, 1).unwrap();
        assert!(report.failed());
        assert_eq!(report.findings[0].dimension, Dimension::KernelBackend);
    }

    #[test]
    fn identical_runs_produce_no_findings() {
        let store = HistoryStore::open(&tmp("clean")).unwrap();
        record(&store, 2.6, 0.05);
        record(&store, 2.6, 0.05);
        let cur = record(&store, 2.6, 0.05);
        let report = diagnose(&store, &cur.run_id, 5).unwrap();
        assert!(!report.failed());
        assert!(report.findings.is_empty());
        assert!(report.checked_metrics >= 3);
        assert!(report.render().contains("verdict: ok"));
    }

    #[test]
    fn runs_with_different_manifest_keys_are_not_baselines() {
        let store = HistoryStore::open(&tmp("keys")).unwrap();
        record(&store, 2.6, 0.05);
        let mut other = manifest();
        other.backend = "scalar".to_string();
        let mut metrics: BTreeMap<String, (MetricKind, Vec<f64>)> = BTreeMap::new();
        metrics.insert(
            names::KERNEL_SIMD_SPEEDUP_SERIAL.to_string(),
            (MetricKind::Gauge, vec![9.9]),
        );
        store.record(&other, &metrics).unwrap();
        let cur = record(&store, 2.6, 0.05);
        let report = diagnose(&store, &cur.run_id, 5).unwrap();
        // Only the matching run is a baseline; the scalar run is ignored.
        assert_eq!(report.baseline_runs, vec!["r000001"]);
        assert!(!report.failed());
    }

    #[test]
    fn no_baselines_yields_a_calm_report() {
        let store = HistoryStore::open(&tmp("nobase")).unwrap();
        let cur = record(&store, 2.6, 0.05);
        let report = diagnose(&store, &cur.run_id, 5).unwrap();
        assert!(!report.failed());
        assert!(report.findings.is_empty());
        assert!(report.render().contains("no-baseline"));
    }

    #[test]
    fn rank_blame_metrics_decode_into_rank_and_dimension() {
        let (d, k, r, b) = dimension_of("analysis.blame.rank2.wait_frac");
        assert_eq!(d, Dimension::Rank);
        assert_eq!(k, None);
        assert_eq!(r, Some(2));
        assert_eq!(b.as_deref(), Some("wait"));
        let (d, k, ..) = dimension_of("swe.kernel.C2+E.seconds");
        assert_eq!(d, Dimension::Kernel);
        assert_eq!(k.as_deref(), Some("C2+E"));
        let (d, ..) = dimension_of(names::KERNEL_SIMD_SPEEDUP_SERIAL);
        assert_eq!(d, Dimension::KernelBackend);
        let (d, ..) = dimension_of("serve.jobs_per_sec");
        assert_eq!(d, Dimension::Serving);
        let (d, ..) = dimension_of("core.sim.step_seconds");
        assert_eq!(d, Dimension::Solver);
    }

    #[test]
    fn diagnosis_reads_only_summaries() {
        let store = HistoryStore::open(&tmp("reads")).unwrap();
        for _ in 0..5 {
            record(&store, 2.6, 0.05);
        }
        let cur = record(&store, 1.0, 0.18);
        let _ = diagnose(&store, &cur.run_id, 5).unwrap();
        assert_eq!(store.raw_shard_reads(), 0);
        // And a whole-run query across all six runs reads summaries only.
        let rows = store
            .query(&MetricQuery {
                name_prefix: "kernel.".to_string(),
                run_filter: RunFilter::default(),
                range: None,
                agg: crate::store::Agg::P50,
            })
            .unwrap();
        assert_eq!(rows.len(), 6);
        assert_eq!(store.raw_shard_reads(), 0);
    }

    #[test]
    fn runs_differing_in_mesh_ordering_or_case_rotation_are_not_baselines() {
        let store = HistoryStore::open(&tmp("axes")).unwrap();
        record(&store, 2.6, 0.05);
        let sfc = RunManifest {
            reorder: "sfc".to_string(),
            ..manifest()
        };
        let rotated = RunManifest {
            alpha: 0.5,
            ..manifest()
        };
        assert_ne!(sfc.baseline_key(), manifest().baseline_key());
        assert_ne!(rotated.baseline_key(), manifest().baseline_key());
        let mut metrics: BTreeMap<String, (MetricKind, Vec<f64>)> = BTreeMap::new();
        metrics.insert("m".to_string(), (MetricKind::Gauge, vec![1.0]));
        // Neither takes the unordered, unrotated run r000001 (or the
        // other) as its baseline; each finds only its own earlier run.
        let expect: [&[&str]; 4] = [&[], &[], &["r000002"], &["r000003"]];
        for (m, want) in [&sfc, &rotated, &sfc, &rotated].into_iter().zip(expect) {
            let run = store.record(m, &metrics).unwrap();
            assert_eq!(
                diagnose(&store, &run.run_id, 5).unwrap().baseline_runs,
                want
            );
        }
    }
}
