//! Statistical performance-regression gates.
//!
//! A **baseline** stores, per watched metric, a robust location/spread
//! pair fitted from repeated samples: the median and the MAD (median
//! absolute deviation), both by [`HistogramSummary::from_samples`], so a
//! fitted median is the very p50 the gate reads from a snapshot. A later
//! run is compared against `median ± (k · 1.4826 · MAD + floor)` — the
//! 1.4826 factor makes the MAD a consistent σ estimator under Gaussian
//! noise, `k` is the band width in σ, and `floor` is an absolute term
//! that keeps near-zero-noise metrics (e.g. a deterministic mass drift)
//! from producing a zero-width band that trips on harmless jitter. A
//! [`BaselineFile`] holds one baseline per workload.
//!
//! Entries carry a [`Severity`]: step-time drift is `Warn` (CI machines
//! are noisy; a warning is advisory), while invariant-adjacent metrics
//! (mass drift, h-error) are `Fail` and make [`GateOutcome::failed`] true
//! — `swe_run --gate` turns that into a nonzero exit.
//!
//! The format is read and written with this crate's own dependency-free
//! JSON ([`crate::export::parse_json`]), so the gate runs anywhere the
//! binary does.

use crate::export::{json_escape, json_num, parse_json, JsonValue};
use crate::{HistogramSummary, MetricsSnapshot};
use std::fmt::Write as _;
use std::path::Path;

/// Consistency factor turning a MAD into a σ estimate (Gaussian).
pub const MAD_SIGMA: f64 = 1.4826;

/// Which direction of departure from the median is a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Only `value > median + band` violates (times, error norms).
    Above,
    /// Only `value < median − band` violates (throughputs).
    Below,
    /// Either departure violates.
    Both,
}

impl Direction {
    /// Stable wire name (baseline JSON, diagnosis reports).
    pub fn as_str(&self) -> &'static str {
        match self {
            Direction::Above => "above",
            Direction::Below => "below",
            Direction::Both => "both",
        }
    }

    /// Parse a wire name back.
    pub fn parse(s: &str) -> Option<Direction> {
        match s {
            "above" => Some(Direction::Above),
            "below" => Some(Direction::Below),
            "both" => Some(Direction::Both),
            _ => None,
        }
    }
}

/// How a violated entry affects the gate's exit status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Report but keep the gate green (noisy metrics, e.g. step time).
    Warn,
    /// Violations make [`GateOutcome::failed`] true.
    Fail,
}

impl Severity {
    /// Stable wire name (baseline JSON, diagnosis reports).
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Fail => "fail",
        }
    }

    /// Parse a wire name back.
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "warn" => Some(Severity::Warn),
            "fail" => Some(Severity::Fail),
            _ => None,
        }
    }
}

/// One watched metric in a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineEntry {
    /// Metric name, resolved against a [`MetricsSnapshot`] as gauge
    /// first, then histogram median (p50), then counter.
    pub metric: String,
    /// Robust location fitted at baseline time.
    pub median: f64,
    /// Robust spread (median absolute deviation) at baseline time.
    pub mad: f64,
    /// Number of samples the fit used (kept for auditability; small
    /// counts mean a fragile band).
    pub count: usize,
    /// Band width in MAD-σ units.
    pub k: f64,
    /// Absolute band floor added to the statistical term.
    pub floor: f64,
    /// Which departures violate.
    pub direction: Direction,
    /// Whether violations fail the gate or only warn.
    pub severity: Severity,
    /// Compare `|value|` instead of `value` (signed drifts).
    pub abs: bool,
}

impl BaselineEntry {
    /// The half-width of the acceptance band.
    pub fn band(&self) -> f64 {
        self.k * MAD_SIGMA * self.mad + self.floor
    }

    /// Whether `value` violates this entry.
    pub fn violates(&self, value: f64) -> bool {
        if !value.is_finite() {
            return true;
        }
        let v = if self.abs { value.abs() } else { value };
        let band = self.band();
        match self.direction {
            Direction::Above => v > self.median + band,
            Direction::Below => v < self.median - band,
            Direction::Both => (v - self.median).abs() > band,
        }
    }
}

/// The watched metrics of one workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Baseline {
    /// The baseline key of the workload it was fitted on (see
    /// [`BaselineFile`]).
    pub name: String,
    /// The watched metrics.
    pub entries: Vec<BaselineEntry>,
}

/// Robust location/spread of the finite samples: `(median, MAD)`, each a
/// [`HistogramSummary::from_samples`] p50. Empty input gives `(0, 0)`.
pub fn median_mad(samples: &[f64]) -> (f64, f64) {
    let finite: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return (0.0, 0.0);
    }
    let med = HistogramSummary::from_samples(&finite).p50;
    let dev: Vec<f64> = finite.iter().map(|v| (v - med).abs()).collect();
    (med, HistogramSummary::from_samples(&dev).p50)
}

impl Baseline {
    /// Parse a baseline document. Unknown object keys are ignored so the
    /// format can grow; missing required keys are an error naming the
    /// entry index.
    pub fn parse(json: &str) -> Result<Baseline, String> {
        let v = parse_json(json).map_err(|off| format!("invalid JSON at byte {off}"))?;
        Baseline::from_json(&v)
    }

    fn from_json(v: &JsonValue) -> Result<Baseline, String> {
        let name = v
            .get("name")
            .and_then(JsonValue::as_str)
            .unwrap_or("")
            .to_string();
        let mut entries = Vec::new();
        let raw = v
            .get("entries")
            .and_then(JsonValue::as_arr)
            .ok_or("baseline has no \"entries\" array")?;
        for (i, e) in raw.iter().enumerate() {
            let num = |key: &str| e.get(key).and_then(JsonValue::as_f64);
            let metric = e
                .get("metric")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("entry {i}: missing \"metric\""))?
                .to_string();
            let median = num("median").ok_or_else(|| format!("entry {i}: missing \"median\""))?;
            let mad = num("mad").unwrap_or(0.0);
            entries.push(BaselineEntry {
                metric,
                median,
                mad,
                count: num("count").unwrap_or(0.0) as usize,
                k: num("k").unwrap_or(4.0),
                floor: num("floor").unwrap_or(0.0),
                direction: e
                    .get("direction")
                    .and_then(JsonValue::as_str)
                    .map(|s| {
                        Direction::parse(s).ok_or_else(|| format!("entry {i}: bad direction {s:?}"))
                    })
                    .transpose()?
                    .unwrap_or(Direction::Above),
                severity: e
                    .get("severity")
                    .and_then(JsonValue::as_str)
                    .map(|s| {
                        Severity::parse(s).ok_or_else(|| format!("entry {i}: bad severity {s:?}"))
                    })
                    .transpose()?
                    .unwrap_or(Severity::Warn),
                abs: matches!(e.get("abs"), Some(JsonValue::Bool(true))),
            });
        }
        Ok(Baseline { name, entries })
    }

    /// Serialize as one JSON object (one element of a [`BaselineFile`]).
    pub fn to_json(&self) -> String {
        self.json_at("") + "\n"
    }

    /// The JSON object with every line after the first indented by `pad`.
    fn json_at(&self, pad: &str) -> String {
        let mut out = format!(
            "{{\n{pad}  \"name\": \"{}\",\n{pad}  \"entries\": [",
            json_escape(&self.name)
        );
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{pad}    {{\"metric\": \"{}\", \"median\": {}, \"mad\": {}, \"count\": {}, \
                 \"k\": {}, \"floor\": {}, \"direction\": \"{}\", \"severity\": \"{}\", \
                 \"abs\": {}}}",
                json_escape(&e.metric),
                json_num(e.median),
                json_num(e.mad),
                e.count,
                json_num(e.k),
                json_num(e.floor),
                e.direction.as_str(),
                e.severity.as_str(),
                e.abs,
            );
        }
        let _ = write!(out, "\n{pad}  ]\n{pad}}}");
        out
    }

    /// Compare a snapshot against every entry. Metrics are resolved as
    /// gauge, then histogram p50, then counter; an entry whose metric is
    /// absent from the snapshot reports [`GateStatus::Missing`] (a
    /// `Fail`-severity missing metric fails the gate — silently skipping
    /// the metric the gate exists for is itself a regression).
    pub fn evaluate(&self, snap: &MetricsSnapshot) -> GateOutcome {
        let checks = self
            .entries
            .iter()
            .map(|e| {
                let value = snap
                    .gauge(&e.metric)
                    .or_else(|| snap.histogram(&e.metric).map(|h| h.p50))
                    .or_else(|| snap.counter(&e.metric).map(|c| c as f64));
                let status = match value {
                    None => GateStatus::Missing,
                    Some(v) if !e.violates(v) => GateStatus::Ok,
                    Some(_) => match e.severity {
                        Severity::Warn => GateStatus::Warn,
                        Severity::Fail => GateStatus::Fail,
                    },
                };
                GateCheck {
                    entry: e.clone(),
                    value,
                    status,
                }
            })
            .collect();
        GateOutcome {
            baseline: self.name.clone(),
            checks,
        }
    }
}

/// The `BENCH_baseline.json` document: one [`Baseline`] per workload,
/// named by the [`RunManifest::baseline_key`] of the run it was fitted
/// on. `swe_run --gate` and `swe_load --gate` evaluate the one named by
/// their own run's key, so a workload is judged only by what was fitted
/// on it.
///
/// [`RunManifest::baseline_key`]: crate::store::RunManifest::baseline_key
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BaselineFile {
    /// The baselines, one per key, in file order.
    pub baselines: Vec<Baseline>,
}

impl BaselineFile {
    /// Parse a `{"baselines": [...]}` document.
    pub fn parse(json: &str) -> Result<BaselineFile, String> {
        let v = parse_json(json).map_err(|off| format!("invalid JSON at byte {off}"))?;
        let baselines = v
            .get("baselines")
            .and_then(JsonValue::as_arr)
            .ok_or("baseline file has no \"baselines\" array")?;
        let baselines = baselines.iter().map(Baseline::from_json);
        Ok(BaselineFile {
            baselines: baselines.collect::<Result<_, _>>()?,
        })
    }

    /// Read and parse the file at `path`.
    pub fn read(path: &Path) -> Result<BaselineFile, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("read baseline {}: {e}", path.display()))?;
        BaselineFile::parse(&text).map_err(|e| format!("parse baseline {}: {e}", path.display()))
    }

    /// Serialize as the committed `BENCH_baseline.json` format.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self.baselines.iter().map(|b| b.json_at("    ")).collect();
        format!(
            "{{\n  \"baselines\": [\n    {}\n  ]\n}}\n",
            items.join(",\n    ")
        )
    }

    /// The baseline fitted on the workload `key`; the error names the key
    /// and lists the keys the file holds.
    pub fn get(&self, key: &str) -> Result<&Baseline, String> {
        self.baselines
            .iter()
            .find(|b| b.name == key)
            .ok_or_else(|| {
                let held: String = self
                    .baselines
                    .iter()
                    .map(|b| format!("\n  {}", b.name))
                    .collect();
                let n = self.baselines.len();
                format!("no baseline for this run's key\n  {key}\nthe file holds {n}{held}")
            })
    }

    /// Put `baseline` in place of the one with its name, or append it.
    pub fn replace(&mut self, baseline: Baseline) {
        match self.baselines.iter_mut().find(|b| b.name == baseline.name) {
            Some(slot) => *slot = baseline,
            None => self.baselines.push(baseline),
        }
    }
}

/// Outcome of one entry's comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateStatus {
    /// Within the band.
    Ok,
    /// Violated a `Warn` entry.
    Warn,
    /// Violated a `Fail` entry.
    Fail,
    /// The metric was absent from the snapshot.
    Missing,
}

/// One entry's comparison result.
#[derive(Debug, Clone, PartialEq)]
pub struct GateCheck {
    /// The baseline entry compared against.
    pub entry: BaselineEntry,
    /// The snapshot's value (None if absent).
    pub value: Option<f64>,
    /// The verdict.
    pub status: GateStatus,
}

/// Every entry's verdict for one run.
#[derive(Debug, Clone, Default)]
pub struct GateOutcome {
    /// The baseline's name.
    pub baseline: String,
    /// Per-entry results, in baseline order.
    pub checks: Vec<GateCheck>,
}

impl GateOutcome {
    /// True iff the gate should turn the run red: a `Fail`-severity entry
    /// was violated or its metric was missing.
    pub fn failed(&self) -> bool {
        self.checks.iter().any(|c| {
            c.status == GateStatus::Fail
                || (c.status == GateStatus::Missing && c.entry.severity == Severity::Fail)
        })
    }

    /// True iff anything at all was out of band (including warnings).
    pub fn warned(&self) -> bool {
        self.checks.iter().any(|c| c.status != GateStatus::Ok)
    }

    /// Fixed-width report, one row per entry plus a verdict line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "gate vs baseline {:?}: {} entr{}",
            self.baseline,
            self.checks.len(),
            if self.checks.len() == 1 { "y" } else { "ies" }
        );
        for c in &self.checks {
            let band = c.entry.band();
            let status = match c.status {
                GateStatus::Ok => "ok",
                GateStatus::Warn => "WARN",
                GateStatus::Fail => "FAIL",
                GateStatus::Missing => "MISSING",
            };
            let value = c
                .value
                .map(|v| format!("{v:.6e}"))
                .unwrap_or_else(|| "-".to_string());
            let _ = writeln!(
                out,
                "  [{status:>7}] {:<42} value {:>13} vs median {:.6e} band {:.3e} ({}, {})",
                c.entry.metric,
                value,
                c.entry.median,
                band,
                c.entry.direction.as_str(),
                c.entry.severity.as_str(),
            );
        }
        let _ = writeln!(
            out,
            "verdict: {}",
            if self.failed() {
                "FAIL"
            } else if self.warned() {
                "warn"
            } else {
                "ok"
            }
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn entry(metric: &str, median: f64, mad: f64) -> BaselineEntry {
        BaselineEntry {
            metric: metric.to_string(),
            median,
            mad,
            count: 9,
            k: 4.0,
            floor: 0.0,
            direction: Direction::Above,
            severity: Severity::Fail,
            abs: false,
        }
    }

    #[test]
    fn median_mad_fits_the_median_the_gate_reads() {
        // An even count: the snapshot's nearest-rank p50 is the upper
        // middle, and the fit takes the same sample, not a midpoint.
        let samples = [4.0, 1.0, 3.0, 2.0];
        let rec = Recorder::new();
        samples.iter().for_each(|&v| rec.record("h", v));
        assert_eq!(rec.snapshot().histogram("h").unwrap().p50, 3.0);
        assert_eq!(median_mad(&samples), (3.0, 1.0));
        // Non-finite samples are dropped before ranking.
        assert_eq!(median_mad(&[f64::NAN, 2.0, f64::INFINITY]), (2.0, 0.0));
    }

    #[test]
    fn baseline_file_selects_and_replaces_by_key() {
        let b = |name: &str, median: f64| Baseline {
            name: name.to_string(),
            entries: vec![entry("m", median, 0.0)],
        };
        let mut file = BaselineFile {
            baselines: vec![b("k=1", 1.0), b("k=2", 2.0)],
        };
        crate::export::validate_json(&file.to_json()).unwrap();
        assert_eq!(BaselineFile::parse(&file.to_json()).unwrap(), file);
        assert_eq!(file.get("k=2").unwrap().entries[0].median, 2.0);
        let err = file.get("k=3").unwrap_err();
        assert!(err.contains("k=3") && err.contains("k=1"), "{err}");
        // Replacing keeps the other baselines and their order.
        file.replace(b("k=1", 9.0));
        file.replace(b("k=4", 3.0));
        assert_eq!(
            file.baselines,
            [b("k=1", 9.0), b("k=2", 2.0), b("k=4", 3.0)]
        );
        assert!(BaselineFile::parse("{\"name\": \"x\", \"entries\": []}").is_err());
    }

    #[test]
    fn median_mad_is_robust_to_one_outlier() {
        let (med, mad) = median_mad(&[1.0, 1.1, 0.9, 1.05, 100.0]);
        assert!((med - 1.05).abs() < 1e-12);
        assert!(mad < 0.2, "MAD must ignore the outlier, got {mad}");
        assert_eq!(median_mad(&[]), (0.0, 0.0));
        let (m1, d1) = median_mad(&[5.0]);
        assert_eq!((m1, d1), (5.0, 0.0));
    }

    #[test]
    fn band_and_directions() {
        let mut e = entry("m", 10.0, 1.0);
        let band = 4.0 * MAD_SIGMA;
        assert!((e.band() - band).abs() < 1e-12);
        assert!(!e.violates(10.0 + band - 0.01));
        assert!(e.violates(10.0 + band + 0.01));
        assert!(!e.violates(0.0)); // below is fine for Above
        e.direction = Direction::Below;
        assert!(e.violates(10.0 - band - 0.01));
        assert!(!e.violates(10.0 + 100.0));
        e.direction = Direction::Both;
        assert!(e.violates(10.0 - band - 0.01) && e.violates(10.0 + band + 0.01));
        assert!(e.violates(f64::NAN));
    }

    #[test]
    fn abs_compares_magnitude() {
        let mut e = entry("drift", 0.0, 0.0);
        e.floor = 1e-9;
        e.abs = true;
        assert!(!e.violates(-5e-10));
        assert!(e.violates(-5e-8));
    }

    #[test]
    fn zero_mad_needs_floor() {
        let mut e = entry("m", 1.0, 0.0);
        assert!(e.violates(1.0 + 1e-15));
        e.floor = 1e-12;
        assert!(!e.violates(1.0 + 1e-15));
    }

    #[test]
    fn baseline_json_roundtrip() {
        let b = Baseline {
            name: "level5-serial".to_string(),
            entries: vec![
                BaselineEntry {
                    metric: "core.sim.step_seconds".to_string(),
                    median: 0.0123,
                    mad: 0.0004,
                    count: 20,
                    k: 5.0,
                    floor: 0.001,
                    direction: Direction::Above,
                    severity: Severity::Warn,
                    abs: false,
                },
                BaselineEntry {
                    metric: "core.sim.mass_drift".to_string(),
                    median: 0.0,
                    mad: 0.0,
                    count: 1,
                    k: 0.0,
                    floor: 1e-9,
                    direction: Direction::Above,
                    severity: Severity::Fail,
                    abs: true,
                },
            ],
        };
        let json = b.to_json();
        crate::export::validate_json(&json).expect("baseline JSON must parse");
        let back = Baseline::parse(&json).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn parse_applies_defaults_and_rejects_garbage() {
        let b = Baseline::parse("{\"entries\":[{\"metric\":\"m\",\"median\":2.0}]}").unwrap();
        assert_eq!(b.entries[0].k, 4.0);
        assert_eq!(b.entries[0].direction, Direction::Above);
        assert_eq!(b.entries[0].severity, Severity::Warn);
        assert!(!b.entries[0].abs);
        assert!(Baseline::parse("not json").is_err());
        assert!(Baseline::parse("{}").is_err());
        assert!(Baseline::parse("{\"entries\":[{\"median\":1}]}").is_err());
        assert!(Baseline::parse(
            "{\"entries\":[{\"metric\":\"m\",\"median\":1,\"direction\":\"up\"}]}"
        )
        .is_err());
    }

    #[test]
    fn evaluate_resolves_gauge_histogram_counter() {
        let rec = Recorder::new();
        rec.set_gauge("g", 5.0);
        rec.record("h", 2.0);
        rec.record("h", 4.0);
        rec.add("c", 7);
        let snap = rec.snapshot();
        let base = Baseline {
            name: "t".into(),
            entries: vec![
                entry("g", 5.0, 0.1),
                entry("h", 3.0, 0.5),
                entry("c", 7.0, 0.5),
            ],
        };
        let out = base.evaluate(&snap);
        assert!(out.checks.iter().all(|c| c.status == GateStatus::Ok));
        assert_eq!(out.checks[0].value, Some(5.0));
        assert_eq!(out.checks[1].value, Some(4.0)); // nearest-rank p50 of {2,4}
        assert_eq!(out.checks[2].value, Some(7.0));
        assert!(!out.failed() && !out.warned());
    }

    #[test]
    fn tightened_baseline_fails_and_warn_only_warns() {
        let rec = Recorder::new();
        rec.set_gauge("time", 10.0);
        let snap = rec.snapshot();
        let mut base = Baseline {
            name: "t".into(),
            entries: vec![entry("time", 1.0, 0.0)], // absurdly tight: fail
        };
        assert!(base.evaluate(&snap).failed());
        base.entries[0].severity = Severity::Warn;
        let out = base.evaluate(&snap);
        assert!(!out.failed() && out.warned());
        assert!(out.render().contains("WARN"));
    }

    #[test]
    fn missing_fail_metric_fails_missing_warn_does_not() {
        let snap = Recorder::new().snapshot();
        let mut base = Baseline {
            name: "t".into(),
            entries: vec![entry("absent", 1.0, 0.0)],
        };
        assert!(base.evaluate(&snap).failed());
        base.entries[0].severity = Severity::Warn;
        assert!(!base.evaluate(&snap).failed());
        assert!(base.evaluate(&snap).warned());
    }
}
