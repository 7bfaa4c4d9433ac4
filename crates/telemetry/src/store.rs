//! Embedded telemetry history store: per-run append-only shards with a
//! downsampling ladder, retention, and a coarsest-exact-level query API.
//!
//! Every observability surface so far (metrics snapshots, blame reports,
//! the flight recorder, live windows) describes a *single run in flight*.
//! This module persists those snapshots across runs so "did level-6 k=4
//! SIMD get slower since last week" becomes a query instead of a human
//! diffing JSON files. It is deliberately embedded and dependency-free:
//! plain directories and NDJSON under a `--history-dir`, written once per
//! run, read by [`crate::diagnose`] and the `swe_diag` CLI.
//!
//! # Layout
//!
//! ```text
//! <history-dir>/runs/r000042/
//!   manifest.json   run identity (the RunManifest::AXES) + git
//!                   describe + config digest
//!   raw.ndjson      ladder level 0: one line per metric, full samples
//!   steps.ndjson    ladder level 1: per-step chunk summaries
//!   summary.json    ladder level 2: one summary per metric (always kept)
//! ```
//!
//! Run ids are zero-padded sequence numbers, so lexicographic order is
//! recording order. `manifest.json` is written last and acts as the
//! commit marker: a directory without one is an aborted flush and is
//! ignored by [`HistoryStore::runs`].
//!
//! # The ladder
//!
//! Every level stores [`HistogramSummary`] rows (`count/sum/min/p50/p95/
//! max`), each computed by [`HistogramSummary::from_samples`], the
//! workspace's one summary rule:
//!
//! * **raw** — every finite sample, in arrival order;
//! * **steps** — raw split into `ceil(count / manifest.steps)` chunks, so
//!   a per-step histogram (`core.sim.step_seconds`) gets exactly one
//!   chunk per simulated step; each row summarizes its chunk;
//! * **summary** — one row per metric.
//!
//! `count`, `min`, `max`, `p50` and `p95` in the per-run summary are
//! exact over raw (nearest rank). `sum` is defined as the *chunk tree*:
//! samples fold left-to-right within a chunk, chunk sums fold
//! left-to-right across the run ([`HistogramSummary::merge`] of the step
//! rows). That makes the steps and summary levels bitwise-consistent with
//! each other and reproducible from raw, which is what the ladder
//! property tests assert. Percentiles do not merge: a merged summary
//! carries none, and a percentile over a sample range is always answered
//! from raw.
//!
//! # Query resolution
//!
//! [`HistoryStore::query`] answers each [`MetricQuery`] from the
//! *coarsest ladder level that is exact* for it:
//!
//! * no sample range → the per-run summary (every [`Agg`] is exact
//!   there, including `Mean = sum/count`);
//! * a range whose endpoints tile exactly onto step chunks, with an
//!   aggregation that merges exactly (`Count/Sum/Mean/Max/Min`) → the
//!   steps shard;
//! * anything else (unaligned range, or `P50/P95` over a range) → raw.
//!
//! The store counts shard reads per level ([`HistoryStore::shard_reads`])
//! so tests can prove that summary-answerable queries over dozens of
//! runs never touch a raw shard.
//!
//! # Retention
//!
//! [`HistoryStore::compact`] enforces a run-count cap (oldest runs are
//! deleted whole) and then a byte budget (oldest runs lose raw + steps
//! shards first). Compaction never rewrites `manifest.json` or
//! `summary.json`, so per-run summaries survive bitwise; a range query
//! against a compacted run reports an error rather than degrading
//! silently.

use crate::digest::Fnv1a;
use crate::export::{json_num, parse_json, JsonValue};
use crate::json_escape;
use crate::{HistogramSummary, Recorder};
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// `git describe --always --dirty` of the working tree, or `"unknown"`.
///
/// Recorded in every [`RunManifest`] so the diagnosis report can say
/// *which code* the regressed run was built from. Shelling out keeps the
/// crate dependency-free; failures (no git, no repo) degrade to
/// `"unknown"` rather than erroring a flush.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What kind of metric a stored row came from. Determines how
/// [`crate::diagnose`] treats the per-run value (a counter/gauge stores
/// exactly one sample; a histogram stores them all).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter (stored as one sample: the final total).
    Counter,
    /// Last-write-wins gauge (stored as one sample).
    Gauge,
    /// Sample distribution (stored raw, downsampled up the ladder).
    Histogram,
}

impl MetricKind {
    /// Stable wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }

    /// Parse a wire name back.
    pub fn parse(s: &str) -> Option<MetricKind> {
        match s {
            "counter" => Some(MetricKind::Counter),
            "gauge" => Some(MetricKind::Gauge),
            "histogram" => Some(MetricKind::Histogram),
            _ => None,
        }
    }
}

/// Identity of one recorded run: the configuration axes a baseline set
/// is matched on, plus provenance (git describe, config digest, wall
/// time). The provenance fields and `run_id` are filled in by
/// [`HistoryStore::record`]; callers set the rest.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Store-assigned id (`r000042`), empty until recorded.
    pub run_id: String,
    /// Scenario label (`"5"`, `"galewsky"`, or `"serve"` for load runs).
    pub case: String,
    /// The case's flow-rotation angle, radians (NaN in a manifest
    /// recorded before the axis existed).
    pub alpha: f64,
    /// Icosahedral subdivision level.
    pub level: u32,
    /// Lloyd relaxation sweeps.
    pub lloyd: u32,
    /// Mesh numbering (`none`, `sfc`, `bfs`; empty in a manifest recorded
    /// before the axis existed).
    pub reorder: String,
    /// Kernel tier (`scalar`/`simd`, or `serve` for load runs).
    pub backend: String,
    /// Vertical layers.
    pub layers: usize,
    /// Scheduler policy name.
    pub policy: String,
    /// Executor spec (`serial`, `threaded:N`, ...).
    pub executor: String,
    /// Simulated ranks (0 = single-process run).
    pub ranks: usize,
    /// Steps the run executed; also the per-step ladder chunk target.
    pub steps: usize,
    /// `git describe` of the producing build (provenance, not identity;
    /// filled by the store).
    pub git: String,
    /// FNV-1a digest of the identity axes (filled by the store).
    pub config_digest: u64,
    /// Wall-clock seconds since the Unix epoch at flush time.
    pub recorded_unix_s: f64,
}

impl RunManifest {
    /// The identity axes, in key order: what [`RunManifest::baseline_key`]
    /// joins, what [`RunManifest::field`] looks up, and what
    /// `/history/query` accepts as `key=value` filters.
    pub const AXES: [&'static str; 11] = [
        "case", "alpha", "level", "lloyd", "reorder", "backend", "layers", "policy", "executor",
        "ranks", "steps",
    ];

    /// A manifest with the given identity axes and empty provenance; the
    /// mesh is unordered and the case unrotated until the caller says
    /// otherwise (`reorder`, `alpha`).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        case: &str,
        level: u32,
        lloyd: u32,
        backend: &str,
        layers: usize,
        policy: &str,
        executor: &str,
        ranks: usize,
        steps: usize,
    ) -> RunManifest {
        RunManifest {
            run_id: String::new(),
            case: case.to_string(),
            alpha: 0.0,
            level,
            lloyd,
            reorder: "none".to_string(),
            backend: backend.to_string(),
            layers,
            policy: policy.to_string(),
            executor: executor.to_string(),
            ranks,
            steps,
            git: String::new(),
            config_digest: 0,
            recorded_unix_s: 0.0,
        }
    }

    /// The baseline-matching key: every identity axis, *excluding*
    /// provenance (`git`, digest, timestamp). Two runs with equal keys
    /// are comparable — same case and rotation, mesh and numbering,
    /// backend, layers, policy, executor, ranks and step count — and only
    /// the code or the environment differs, which is exactly what
    /// diagnosis attributes and what a gate baseline is fitted against.
    pub fn baseline_key(&self) -> String {
        let axes: Vec<String> = Self::AXES
            .iter()
            .map(|a| format!("{a}={}", self.field(a).expect("every axis has a field")))
            .collect();
        axes.join("|")
    }

    /// FNV-1a digest over the identity axes (what `config_digest` holds).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_bytes(self.baseline_key().as_bytes());
        h.finish()
    }

    /// Look an identity axis, or `git`, up by name (for `key=value`
    /// query filters).
    pub fn field(&self, key: &str) -> Option<String> {
        Some(match key {
            "case" => self.case.clone(),
            "alpha" => self.alpha.to_string(),
            "level" => self.level.to_string(),
            "lloyd" => self.lloyd.to_string(),
            "reorder" => self.reorder.clone(),
            "backend" => self.backend.clone(),
            "layers" => self.layers.to_string(),
            "policy" => self.policy.clone(),
            "executor" => self.executor.clone(),
            "ranks" => self.ranks.to_string(),
            "steps" => self.steps.to_string(),
            "git" => self.git.clone(),
            _ => return None,
        })
    }

    /// Serialise as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"run_id\": \"{}\", \"case\": \"{}\", \"alpha\": {}, \"level\": {}, \
             \"lloyd\": {}, \"reorder\": \"{}\", \"backend\": \"{}\", \"layers\": {}, \
             \"policy\": \"{}\", \"executor\": \"{}\", \"ranks\": {}, \"steps\": {}, \
             \"git\": \"{}\", \"config_digest\": \"{:016x}\", \"recorded_unix_s\": {}}}",
            json_escape(&self.run_id),
            json_escape(&self.case),
            json_num(self.alpha),
            self.level,
            self.lloyd,
            json_escape(&self.reorder),
            json_escape(&self.backend),
            self.layers,
            json_escape(&self.policy),
            json_escape(&self.executor),
            self.ranks,
            self.steps,
            json_escape(&self.git),
            self.config_digest,
            json_num(self.recorded_unix_s),
        )
    }

    /// Parse a manifest back from JSON. A manifest recorded before the
    /// `reorder` and `alpha` axes existed reads back with them unknown
    /// (empty, NaN), so it matches only runs that also lack them.
    pub fn parse(text: &str) -> Result<RunManifest, String> {
        let v = parse_json(text).map_err(|at| format!("bad manifest JSON at byte {at}"))?;
        let s = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(|x| x.as_str().map(str::to_string))
                .ok_or_else(|| format!("manifest missing string field {k}"))
        };
        let n = |k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(|x| x.as_f64())
                .ok_or_else(|| format!("manifest missing numeric field {k}"))
        };
        let digest_hex = s("config_digest")?;
        Ok(RunManifest {
            run_id: s("run_id")?,
            case: s("case")?,
            alpha: n("alpha").unwrap_or(f64::NAN),
            level: n("level")? as u32,
            lloyd: n("lloyd")? as u32,
            reorder: s("reorder").unwrap_or_default(),
            backend: s("backend")?,
            layers: n("layers")? as usize,
            policy: s("policy")?,
            executor: s("executor")?,
            ranks: n("ranks")? as usize,
            steps: n("steps")? as usize,
            git: s("git")?,
            config_digest: u64::from_str_radix(&digest_hex, 16)
                .map_err(|_| format!("bad config_digest {digest_hex}"))?,
            recorded_unix_s: n("recorded_unix_s")?,
        })
    }
}

/// A stored row's fields, in shard order (`mean` is derived, not stored).
fn summary_json_fields(s: &HistogramSummary) -> String {
    format!(
        "\"count\": {}, \"sum\": {}, \"min\": {}, \"p50\": {}, \"p95\": {}, \"max\": {}",
        s.count,
        json_num(s.sum),
        json_num(s.min),
        json_num(s.p50),
        json_num(s.p95),
        json_num(s.max),
    )
}

fn summary_from_json(v: &JsonValue) -> Result<HistogramSummary, String> {
    let n = |k: &str| -> Result<f64, String> {
        v.get(k)
            .and_then(|x| x.as_f64())
            .ok_or_else(|| format!("summary row missing field {k}"))
    };
    let (count, sum) = (n("count")? as usize, n("sum")?);
    Ok(HistogramSummary {
        count,
        sum,
        mean: sum / count as f64,
        p50: n("p50")?,
        p95: n("p95")?,
        max: n("max")?,
        min: n("min")?,
    })
}

/// One metric's per-run summary row (ladder level 2).
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryRow {
    /// Metric name (scope-stripped at flush time).
    pub metric: String,
    /// Where the samples came from.
    pub kind: MetricKind,
    /// Exact per-run summary (chunk-tree sum, exact percentiles).
    pub summary: HistogramSummary,
}

/// One per-step chunk row (ladder level 1).
#[derive(Debug, Clone, PartialEq)]
pub struct StepRow {
    /// Index of the chunk's first sample in the raw shard.
    pub start: usize,
    /// Exact summary of the chunk's samples.
    pub summary: HistogramSummary,
}

/// Aggregation a [`MetricQuery`] asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// Sample count.
    Count,
    /// Chunk-tree sum.
    Sum,
    /// `sum / count`.
    Mean,
    /// Nearest-rank median.
    P50,
    /// Nearest-rank 95th percentile.
    P95,
    /// Maximum.
    Max,
    /// Minimum.
    Min,
}

impl Agg {
    /// Stable wire name (query-string values of `/history/query`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Agg::Count => "count",
            Agg::Sum => "sum",
            Agg::Mean => "mean",
            Agg::P50 => "p50",
            Agg::P95 => "p95",
            Agg::Max => "max",
            Agg::Min => "min",
        }
    }

    /// Parse a wire name back.
    pub fn parse(s: &str) -> Option<Agg> {
        match s {
            "count" => Some(Agg::Count),
            "sum" => Some(Agg::Sum),
            "mean" => Some(Agg::Mean),
            "p50" => Some(Agg::P50),
            "p95" => Some(Agg::P95),
            "max" => Some(Agg::Max),
            "min" => Some(Agg::Min),
            _ => None,
        }
    }

    fn of(&self, s: &HistogramSummary) -> f64 {
        match self {
            Agg::Count => s.count as f64,
            Agg::Sum => s.sum,
            Agg::Mean => s.mean,
            Agg::P50 => s.p50,
            Agg::P95 => s.p95,
            Agg::Max => s.max,
            Agg::Min => s.min,
        }
    }

    /// Aggregations [`HistogramSummary::merge`] keeps exact, which the
    /// steps level answers when chunks tile the range (percentiles need raw).
    fn steps_exact(&self) -> bool {
        matches!(
            self,
            Agg::Count | Agg::Sum | Agg::Mean | Agg::Max | Agg::Min
        )
    }
}

/// Which runs a query ranges over. Filters compose: explicit ids, then
/// `key=value` manifest matches, then `last_n` keeps the newest.
#[derive(Debug, Clone, Default)]
pub struct RunFilter {
    /// Keep only these run ids (empty = all).
    pub run_ids: Vec<String>,
    /// Keep only runs whose manifest matches every `(key, value)` pair
    /// (keys as accepted by [`RunManifest::field`]).
    pub keys: Vec<(String, String)>,
    /// After other filters, keep only the most recent N runs.
    pub last_n: Option<usize>,
}

/// A history query: metric prefix × run filter × optional sample range
/// × aggregation.
#[derive(Debug, Clone)]
pub struct MetricQuery {
    /// Keep metrics whose name starts with this (empty = all).
    pub name_prefix: String,
    /// Which runs to answer over.
    pub run_filter: RunFilter,
    /// Half-open raw-sample index range `[start, end)`; `None` = whole
    /// run (answerable from the summary level).
    pub range: Option<(usize, usize)>,
    /// The aggregation to return.
    pub agg: Agg,
}

/// One query answer row, tagged with the ladder level that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRow {
    /// Run the value came from.
    pub run_id: String,
    /// Metric name.
    pub metric: String,
    /// Aggregated value.
    pub value: f64,
    /// `"summary"`, `"steps"` or `"raw"` — which shard answered.
    pub level: &'static str,
}

/// Retention policy for [`HistoryStore::compact`].
#[derive(Debug, Clone, Copy)]
pub struct Retention {
    /// Keep at most this many runs (oldest deleted whole).
    pub max_runs: usize,
    /// Then shed raw + steps shards (oldest first) until total bytes
    /// fit. Summaries and manifests are never deleted by the byte pass.
    pub max_bytes: u64,
}

impl Default for Retention {
    /// The default applied by `swe_run --history-dir`: generous enough
    /// for weeks of smoke runs, bounded enough to forget about.
    fn default() -> Retention {
        Retention {
            max_runs: 256,
            max_bytes: 256 << 20,
        }
    }
}

/// What a compaction pass did.
#[derive(Debug, Clone, Default)]
pub struct CompactionReport {
    /// Runs deleted whole by the run-count cap.
    pub removed_runs: Vec<String>,
    /// Runs whose raw + steps shards were shed by the byte budget.
    pub compacted_runs: Vec<String>,
    /// Total store bytes before the pass.
    pub bytes_before: u64,
    /// Total store bytes after the pass.
    pub bytes_after: u64,
}

/// Per-ladder-level shard read counts for one store handle (not
/// persisted; a fresh handle starts at zero).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardReads {
    /// `summary.json` reads.
    pub summary: u64,
    /// `steps.ndjson` reads.
    pub steps: u64,
    /// `raw.ndjson` reads.
    pub raw: u64,
}

/// Handle on a history directory. Cheap to open, safe to share across
/// threads (`&self` everywhere; read counters are atomics).
#[derive(Debug)]
pub struct HistoryStore {
    root: PathBuf,
    summary_reads: AtomicU64,
    step_reads: AtomicU64,
    raw_reads: AtomicU64,
}

const RAW_SHARD: &str = "raw.ndjson";
const STEPS_SHARD: &str = "steps.ndjson";
const SUMMARY_SHARD: &str = "summary.json";
const MANIFEST: &str = "manifest.json";

impl HistoryStore {
    /// Open (creating if needed) the store rooted at `dir`.
    pub fn open(dir: &Path) -> io::Result<HistoryStore> {
        fs::create_dir_all(dir.join("runs"))?;
        Ok(HistoryStore {
            root: dir.to_path_buf(),
            summary_reads: AtomicU64::new(0),
            step_reads: AtomicU64::new(0),
            raw_reads: AtomicU64::new(0),
        })
    }

    /// The directory this handle is rooted at.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn runs_dir(&self) -> PathBuf {
        self.root.join("runs")
    }

    fn run_dir(&self, run_id: &str) -> PathBuf {
        self.runs_dir().join(run_id)
    }

    /// Shard reads performed through this handle so far.
    pub fn shard_reads(&self) -> ShardReads {
        ShardReads {
            summary: self.summary_reads.load(Ordering::Relaxed),
            steps: self.step_reads.load(Ordering::Relaxed),
            raw: self.raw_reads.load(Ordering::Relaxed),
        }
    }

    /// Raw-shard reads alone (the ladder tests' headline number).
    pub fn raw_shard_reads(&self) -> u64 {
        self.raw_reads.load(Ordering::Relaxed)
    }

    /// All committed runs, oldest first.
    pub fn runs(&self) -> io::Result<Vec<RunManifest>> {
        let mut ids: Vec<String> = Vec::new();
        for entry in fs::read_dir(self.runs_dir())? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            // Only committed runs (manifest written last) count.
            if entry.path().join(MANIFEST).is_file() {
                ids.push(entry.file_name().to_string_lossy().to_string());
            }
        }
        ids.sort();
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            out.push(self.manifest(&id)?);
        }
        Ok(out)
    }

    /// The newest committed run, if any.
    pub fn latest(&self) -> io::Result<Option<RunManifest>> {
        Ok(self.runs()?.pop())
    }

    /// One run's manifest.
    pub fn manifest(&self, run_id: &str) -> io::Result<RunManifest> {
        let text = fs::read_to_string(self.run_dir(run_id).join(MANIFEST))?;
        RunManifest::parse(&text).map_err(invalid)
    }

    /// One run's per-metric summaries (ladder level 2), sorted by name.
    pub fn run_summary(&self, run_id: &str) -> io::Result<Vec<SummaryRow>> {
        self.summary_reads.fetch_add(1, Ordering::Relaxed);
        let text = fs::read_to_string(self.run_dir(run_id).join(SUMMARY_SHARD))?;
        let v =
            parse_json(&text).map_err(|at| invalid(format!("bad summary JSON at byte {at}")))?;
        let rows = v
            .get("metrics")
            .and_then(|m| m.as_arr())
            .ok_or_else(|| invalid("summary missing metrics array"))?;
        let mut out = Vec::with_capacity(rows.len());
        for row in rows {
            let metric = row
                .get("metric")
                .and_then(|m| m.as_str().map(str::to_string))
                .ok_or_else(|| invalid("summary row missing metric"))?;
            let kind = row
                .get("kind")
                .and_then(|k| k.as_str())
                .and_then(MetricKind::parse)
                .ok_or_else(|| invalid("summary row missing kind"))?;
            let summary = summary_from_json(row).map_err(invalid)?;
            out.push(SummaryRow {
                metric,
                kind,
                summary,
            });
        }
        Ok(out)
    }

    /// One metric's per-step chunk rows (ladder level 1), or `None` if
    /// the metric was not recorded. Errors if the shard was compacted.
    pub fn run_steps(&self, run_id: &str, metric: &str) -> io::Result<Option<Vec<StepRow>>> {
        self.step_reads.fetch_add(1, Ordering::Relaxed);
        let path = self.run_dir(run_id).join(STEPS_SHARD);
        let text = fs::read_to_string(&path).map_err(|e| compacted(e, run_id, STEPS_SHARD))?;
        let mut out = Vec::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let v =
                parse_json(line).map_err(|at| invalid(format!("bad steps row at byte {at}")))?;
            if v.get("metric").and_then(|m| m.as_str()) != Some(metric) {
                continue;
            }
            let start =
                v.get("start")
                    .and_then(|s| s.as_f64())
                    .ok_or_else(|| invalid("steps row missing start"))? as usize;
            out.push(StepRow {
                start,
                summary: summary_from_json(&v).map_err(invalid)?,
            });
        }
        Ok(if out.is_empty() { None } else { Some(out) })
    }

    /// One metric's raw samples (ladder level 0), or `None` if the
    /// metric was not recorded. Errors if the shard was compacted.
    pub fn run_raw(&self, run_id: &str, metric: &str) -> io::Result<Option<Vec<f64>>> {
        self.raw_reads.fetch_add(1, Ordering::Relaxed);
        let path = self.run_dir(run_id).join(RAW_SHARD);
        let text = fs::read_to_string(&path).map_err(|e| compacted(e, run_id, RAW_SHARD))?;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let v = parse_json(line).map_err(|at| invalid(format!("bad raw row at byte {at}")))?;
            if v.get("metric").and_then(|m| m.as_str()) != Some(metric) {
                continue;
            }
            let arr = v
                .get("samples")
                .and_then(|s| s.as_arr())
                .ok_or_else(|| invalid("raw row missing samples"))?;
            let mut samples = Vec::with_capacity(arr.len());
            for s in arr {
                samples.push(
                    s.as_f64()
                        .ok_or_else(|| invalid("raw sample not a number"))?,
                );
            }
            return Ok(Some(samples));
        }
        Ok(None)
    }

    /// Record one run from explicit metric samples. Assigns the run id,
    /// fills provenance (git describe, digest, time), writes all four
    /// shards (manifest last, as the commit marker) and returns the
    /// completed manifest.
    ///
    /// Non-finite samples are dropped before the ladder is built (JSON
    /// has no NaN, and band math filters them anyway); metrics left with
    /// no samples are skipped.
    pub fn record(
        &self,
        manifest: &RunManifest,
        metrics: &BTreeMap<String, (MetricKind, Vec<f64>)>,
    ) -> io::Result<RunManifest> {
        let mut m = manifest.clone();
        m.git = git_describe();
        m.config_digest = m.digest();
        m.recorded_unix_s = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0);
        let dir = self.claim_run_dir(&mut m)?;

        let chunk_target = m.steps.max(1);
        let mut raw = String::new();
        let mut steps = String::new();
        let mut summary_rows = String::new();
        for (name, (kind, samples)) in metrics {
            let samples: Vec<f64> = samples.iter().copied().filter(|s| s.is_finite()).collect();
            if samples.is_empty() {
                continue;
            }
            // Level 0: the raw shard.
            let list: Vec<String> = samples.iter().map(|s| json_num(*s)).collect();
            raw.push_str(&format!(
                "{{\"metric\": \"{}\", \"kind\": \"{}\", \"samples\": [{}]}}\n",
                json_escape(name),
                kind.as_str(),
                list.join(", ")
            ));
            // Level 1: per-step chunks (ceil(count / steps) wide, so a
            // per-step histogram gets exactly one chunk per step).
            let chunk_len = samples.len().div_ceil(chunk_target).max(1);
            let mut chunks = Vec::new();
            for (ci, chunk) in samples.chunks(chunk_len).enumerate() {
                let s = HistogramSummary::from_samples(chunk);
                steps.push_str(&format!(
                    "{{\"metric\": \"{}\", \"start\": {}, {}}}\n",
                    json_escape(name),
                    ci * chunk_len,
                    summary_json_fields(&s),
                ));
                chunks.push(s);
            }
            // Level 2: the per-run summary — exact nearest-rank
            // percentiles over the full raw slice, and the chunk-tree sum
            // (the merged step rows' sum).
            let tree = HistogramSummary::merge(&chunks);
            let run_summary = HistogramSummary {
                sum: tree.sum,
                mean: tree.mean,
                ..HistogramSummary::from_samples(&samples)
            };
            if !summary_rows.is_empty() {
                summary_rows.push_str(",\n    ");
            }
            summary_rows.push_str(&format!(
                "{{\"metric\": \"{}\", \"kind\": \"{}\", {}}}",
                json_escape(name),
                kind.as_str(),
                summary_json_fields(&run_summary),
            ));
        }

        write_file(&dir.join(RAW_SHARD), raw.as_bytes())?;
        write_file(&dir.join(STEPS_SHARD), steps.as_bytes())?;
        write_file(
            &dir.join(SUMMARY_SHARD),
            format!(
                "{{\"run_id\": \"{}\", \"metrics\": [\n    {}\n]}}\n",
                json_escape(&m.run_id),
                summary_rows
            )
            .as_bytes(),
        )?;
        // Manifest last: its presence commits the run.
        write_file(&dir.join(MANIFEST), m.to_json().as_bytes())?;
        Ok(m)
    }

    /// Flush a [`Recorder`]'s current snapshot into the store. When
    /// `strip_prefix` is non-empty only metrics under it are taken and
    /// the prefix is removed from stored names, so one server job's
    /// scoped slice (`job42.core.sim...`) lands under the same names a
    /// `swe_run` flush uses — cross-source comparability is the point.
    /// Counters and gauges store one sample; histograms store all raw
    /// samples (rolling windows are derived views and are skipped).
    pub fn record_recorder(
        &self,
        manifest: &RunManifest,
        rec: &Recorder,
        strip_prefix: &str,
    ) -> io::Result<RunManifest> {
        let snap = rec.snapshot_prefix(strip_prefix);
        let strip =
            |name: &str| -> String { name.strip_prefix(strip_prefix).unwrap_or(name).to_string() };
        let mut metrics: BTreeMap<String, (MetricKind, Vec<f64>)> = BTreeMap::new();
        for (name, v) in &snap.counters {
            metrics.insert(strip(name), (MetricKind::Counter, vec![*v as f64]));
        }
        for (name, v) in &snap.gauges {
            metrics.insert(strip(name), (MetricKind::Gauge, vec![*v]));
        }
        for name in snap.histograms.keys() {
            let samples = rec.histogram_samples(name);
            metrics.insert(strip(name), (MetricKind::Histogram, samples));
        }
        self.record(manifest, &metrics)
    }

    /// Answer a query from the coarsest exact ladder level (see the
    /// module docs for the resolution rules).
    pub fn query(&self, q: &MetricQuery) -> io::Result<Vec<QueryRow>> {
        let runs = self.select_runs(&q.run_filter)?;
        let mut out = Vec::new();
        for m in &runs {
            let rows = self.run_summary(&m.run_id)?;
            for row in rows {
                if !row.metric.starts_with(&q.name_prefix) {
                    continue;
                }
                let (value, level) = match q.range {
                    None => (q.agg.of(&row.summary), "summary"),
                    Some((start, end)) => {
                        self.answer_range(&m.run_id, &row.metric, start, end, q.agg)?
                    }
                };
                out.push(QueryRow {
                    run_id: m.run_id.clone(),
                    metric: row.metric,
                    value,
                    level,
                });
            }
        }
        Ok(out)
    }

    /// Range answers: steps level when the chunks tile `[start, end)`
    /// exactly and the aggregation survives merging; raw otherwise.
    fn answer_range(
        &self,
        run_id: &str,
        metric: &str,
        start: usize,
        end: usize,
        agg: Agg,
    ) -> io::Result<(f64, &'static str)> {
        if agg.steps_exact() {
            if let Some(rows) = self.run_steps(run_id, metric)? {
                let covering: Vec<&StepRow> = rows
                    .iter()
                    .filter(|r| r.start >= start && r.start + r.summary.count <= end)
                    .collect();
                let covered: usize = covering.iter().map(|r| r.summary.count).sum();
                let aligned = covering.first().map(|r| r.start) == Some(start)
                    && covered == end.saturating_sub(start);
                if aligned && !covering.is_empty() {
                    let parts: Vec<HistogramSummary> = covering.iter().map(|r| r.summary).collect();
                    return Ok((agg.of(&HistogramSummary::merge(&parts)), "steps"));
                }
            }
        }
        let samples = self
            .run_raw(run_id, metric)?
            .ok_or_else(|| invalid(format!("metric {metric} not in run {run_id}")))?;
        let end = end.min(samples.len());
        let start = start.min(end);
        Ok((
            agg.of(&HistogramSummary::from_samples(&samples[start..end])),
            "raw",
        ))
    }

    /// Resolve a run filter to manifests, oldest first.
    pub fn select_runs(&self, f: &RunFilter) -> io::Result<Vec<RunManifest>> {
        let mut runs = self.runs()?;
        if !f.run_ids.is_empty() {
            runs.retain(|m| f.run_ids.contains(&m.run_id));
        }
        runs.retain(|m| {
            f.keys
                .iter()
                .all(|(k, v)| m.field(k).as_deref() == Some(v.as_str()))
        });
        if let Some(n) = f.last_n {
            let skip = runs.len().saturating_sub(n);
            runs.drain(..skip);
        }
        Ok(runs)
    }

    /// Apply a retention policy: delete whole runs past `max_runs`
    /// (oldest first), then shed raw + steps shards (oldest first) until
    /// the byte budget fits. Manifests and summaries are never touched,
    /// so per-run summaries survive compaction bitwise.
    pub fn compact(&self, r: &Retention) -> io::Result<CompactionReport> {
        let mut report = CompactionReport {
            bytes_before: self.total_bytes()?,
            ..CompactionReport::default()
        };
        let runs = self.runs()?;
        let excess = runs.len().saturating_sub(r.max_runs.max(1));
        for m in &runs[..excess] {
            fs::remove_dir_all(self.run_dir(&m.run_id))?;
            report.removed_runs.push(m.run_id.clone());
        }
        let mut bytes = self.total_bytes()?;
        for m in &runs[excess..] {
            if bytes <= r.max_bytes {
                break;
            }
            let mut shed = 0u64;
            for shard in [RAW_SHARD, STEPS_SHARD] {
                let path = self.run_dir(&m.run_id).join(shard);
                if let Ok(meta) = fs::metadata(&path) {
                    shed += meta.len();
                    fs::remove_file(&path)?;
                }
            }
            if shed > 0 {
                bytes -= shed.min(bytes);
                report.compacted_runs.push(m.run_id.clone());
            }
        }
        report.bytes_after = bytes;
        Ok(report)
    }

    /// Total bytes of every file under `runs/`.
    pub fn total_bytes(&self) -> io::Result<u64> {
        let mut total = 0u64;
        for entry in fs::read_dir(self.runs_dir())? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            for file in fs::read_dir(entry.path())? {
                total += file?.metadata()?.len();
            }
        }
        Ok(total)
    }

    /// Allocate the next sequential run directory; `create_dir` is the
    /// claim, so concurrent writers (server workers) cannot collide.
    fn claim_run_dir(&self, m: &mut RunManifest) -> io::Result<PathBuf> {
        let mut seq = 1 + fs::read_dir(self.runs_dir())?
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                e.file_name()
                    .to_string_lossy()
                    .strip_prefix('r')
                    .and_then(|s| s.parse::<u64>().ok())
            })
            .max()
            .unwrap_or(0);
        loop {
            let id = format!("r{seq:06}");
            let dir = self.run_dir(&id);
            match fs::create_dir(&dir) {
                Ok(()) => {
                    m.run_id = id;
                    return Ok(dir);
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => seq += 1,
                Err(e) => return Err(e),
            }
        }
    }
}

fn write_file(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = fs::File::create(path)?;
    f.write_all(bytes)?;
    f.flush()
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn compacted(e: io::Error, run_id: &str, shard: &str) -> io::Error {
    if e.kind() == io::ErrorKind::NotFound {
        io::Error::new(
            io::ErrorKind::NotFound,
            format!("run {run_id} has no {shard} (compacted?)"),
        )
    } else {
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("swe_store_{}_{}", std::process::id(), name));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn manifest(steps: usize) -> RunManifest {
        RunManifest::new("5", 3, 0, "simd", 4, "pattern-driven", "serial", 0, steps)
    }

    fn hist(samples: &[f64]) -> (MetricKind, Vec<f64>) {
        (MetricKind::Histogram, samples.to_vec())
    }

    #[test]
    fn manifest_round_trips_and_digest_tracks_identity_only() {
        let mut m = manifest(10);
        m.run_id = "r000001".to_string();
        m.config_digest = m.digest();
        m.recorded_unix_s = 1234.5;
        let back = RunManifest::parse(&m.to_json()).unwrap();
        assert_eq!(back, m);
        // Provenance does not move the digest; identity axes do.
        let mut g = m.clone();
        g.git = "other".to_string();
        assert_eq!(g.digest(), m.digest());
        let mut b = m.clone();
        b.backend = "scalar".to_string();
        assert_ne!(b.digest(), m.digest());
    }

    #[test]
    fn ladder_levels_agree_with_raw() {
        let store = HistoryStore::open(&tmp("ladder")).unwrap();
        let samples: Vec<f64> = (0..37).map(|i| (i as f64 * 0.7).sin() + 2.0).collect();
        let mut metrics = BTreeMap::new();
        metrics.insert("core.sim.step_seconds".to_string(), hist(&samples));
        let m = store.record(&manifest(10), &metrics).unwrap();

        let raw = store
            .run_raw(&m.run_id, "core.sim.step_seconds")
            .unwrap()
            .unwrap();
        assert_eq!(raw.len(), samples.len());
        for (a, b) in raw.iter().zip(&samples) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        let steps = store
            .run_steps(&m.run_id, "core.sim.step_seconds")
            .unwrap()
            .unwrap();
        let total: usize = steps.iter().map(|s| s.summary.count).sum();
        assert_eq!(total, samples.len());
        // Chunk-tree sum reproduces from raw bitwise.
        let chunk_len = samples.len().div_ceil(10);
        let tree: f64 = samples
            .chunks(chunk_len)
            .map(|c| c.iter().fold(0.0, |a, b| a + b))
            .fold(0.0, |a, b| a + b);
        let sum = store.run_summary(&m.run_id).unwrap()[0].summary.sum;
        assert_eq!(sum.to_bits(), tree.to_bits());
    }

    #[test]
    fn summary_queries_never_touch_finer_shards() {
        let store = HistoryStore::open(&tmp("coarse")).unwrap();
        let mut metrics = BTreeMap::new();
        metrics.insert("m.a".to_string(), hist(&[1.0, 2.0, 3.0, 4.0]));
        store.record(&manifest(2), &metrics).unwrap();
        let rows = store
            .query(&MetricQuery {
                name_prefix: "m.".to_string(),
                run_filter: RunFilter::default(),
                range: None,
                agg: Agg::P95,
            })
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].level, "summary");
        assert_eq!(store.raw_shard_reads(), 0);
        assert_eq!(store.shard_reads().steps, 0);
    }

    #[test]
    fn aligned_ranges_answer_from_steps_and_percentile_ranges_from_raw() {
        let store = HistoryStore::open(&tmp("range")).unwrap();
        let samples: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let mut metrics = BTreeMap::new();
        metrics.insert("m".to_string(), hist(&samples));
        let m = store.record(&manifest(4), &metrics).unwrap();
        // Chunks of 2: [0,4) tiles chunks 0 and 1 exactly.
        let q = |range, agg| MetricQuery {
            name_prefix: "m".to_string(),
            run_filter: RunFilter {
                run_ids: vec![m.run_id.clone()],
                ..RunFilter::default()
            },
            range,
            agg,
        };
        let rows = store.query(&q(Some((0, 4)), Agg::Sum)).unwrap();
        assert_eq!(rows[0].level, "steps");
        assert_eq!(rows[0].value, 0.0 + 1.0 + 2.0 + 3.0);
        assert_eq!(store.raw_shard_reads(), 0);
        // Unaligned range falls to raw.
        let rows = store.query(&q(Some((1, 4)), Agg::Sum)).unwrap();
        assert_eq!(rows[0].level, "raw");
        assert_eq!(rows[0].value, 1.0 + 2.0 + 3.0);
        // Percentiles over a range always go to raw.
        let rows = store.query(&q(Some((0, 4)), Agg::P50)).unwrap();
        assert_eq!(rows[0].level, "raw");
    }

    #[test]
    fn run_filters_compose() {
        let store = HistoryStore::open(&tmp("filters")).unwrap();
        let mut metrics = BTreeMap::new();
        metrics.insert("m".to_string(), hist(&[1.0]));
        store.record(&manifest(1), &metrics).unwrap();
        let mut other = manifest(1);
        other.backend = "scalar".to_string();
        store.record(&other, &metrics).unwrap();
        store.record(&manifest(1), &metrics).unwrap();

        let simd = store
            .select_runs(&RunFilter {
                keys: vec![("backend".to_string(), "simd".to_string())],
                ..RunFilter::default()
            })
            .unwrap();
        assert_eq!(simd.len(), 2);
        let last = store
            .select_runs(&RunFilter {
                keys: vec![("backend".to_string(), "simd".to_string())],
                last_n: Some(1),
                ..RunFilter::default()
            })
            .unwrap();
        assert_eq!(last.len(), 1);
        assert_eq!(last[0].run_id, "r000003");
    }

    #[test]
    fn compaction_preserves_summaries_bitwise_and_sheds_raw() {
        let store = HistoryStore::open(&tmp("compact")).unwrap();
        let mut metrics = BTreeMap::new();
        metrics.insert("m".to_string(), hist(&[0.1, 0.2, 0.30000000000000004]));
        for _ in 0..4 {
            store.record(&manifest(3), &metrics).unwrap();
        }
        let before = store.run_summary("r000001").unwrap();
        let report = store
            .compact(&Retention {
                max_runs: 3,
                max_bytes: 0,
            })
            .unwrap();
        assert_eq!(report.removed_runs, vec!["r000001"]);
        assert_eq!(report.compacted_runs, vec!["r000002", "r000003", "r000004"]);
        // Oldest run deleted whole; survivors keep manifests + summaries.
        assert!(store.manifest("r000001").is_err());
        let after = store.run_summary("r000002").unwrap();
        assert_eq!(after.len(), before.len());
        for (a, b) in after.iter().zip(&before) {
            assert_eq!(a.summary.sum.to_bits(), b.summary.sum.to_bits());
            assert_eq!(a.summary.p95.to_bits(), b.summary.p95.to_bits());
        }
        // Raw is gone: range queries surface the compaction.
        assert!(store.run_raw("r000002", "m").is_err());
        // Summary queries still answer.
        let rows = store
            .query(&MetricQuery {
                name_prefix: "m".to_string(),
                run_filter: RunFilter::default(),
                range: None,
                agg: Agg::Sum,
            })
            .unwrap();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn recorder_flush_strips_scope_prefixes() {
        let rec = Recorder::new();
        let job = rec.scoped("job7");
        job.add("core.sim.steps", 5);
        job.set_gauge("core.sim.mass_drift", 1e-14);
        job.record("core.sim.step_seconds", 0.25);
        rec.add("other.counter", 1);
        let store = HistoryStore::open(&tmp("scoped")).unwrap();
        let m = store.record_recorder(&manifest(1), &rec, "job7.").unwrap();
        let rows = store.run_summary(&m.run_id).unwrap();
        let names: Vec<&str> = rows.iter().map(|r| r.metric.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "core.sim.mass_drift",
                "core.sim.step_seconds",
                "core.sim.steps"
            ]
        );
        assert!(rows.iter().all(|r| !r.metric.starts_with("job7.")));
    }

    #[test]
    fn merge_is_exact_where_documented() {
        let a = HistogramSummary::from_samples(&[1.0, 2.0]);
        let b = HistogramSummary::from_samples(&[3.0, 10.0]);
        let m = HistogramSummary::merge(&[a, HistogramSummary::from_samples(&[]), b]);
        assert_eq!(m.count, 4);
        assert_eq!(m.sum, (1.0 + 2.0) + (3.0 + 10.0));
        assert_eq!(m.mean, m.sum / 4.0);
        assert_eq!(m.min, 1.0);
        assert_eq!(m.max, 10.0);
        // Percentiles do not merge: a merged summary carries none.
        assert!(m.p50.is_nan() && m.p95.is_nan());
    }

    #[test]
    fn manifests_recorded_before_the_reorder_and_alpha_axes_still_read() {
        let m = RunManifest {
            reorder: "sfc".to_string(),
            alpha: 0.5,
            ..manifest(10)
        };
        assert_eq!(RunManifest::parse(&m.to_json()).unwrap(), m);
        assert!(RunManifest::AXES.iter().all(|a| m.field(a).is_some()));
        // Without the two axes they read back unknown, so such a run never
        // shares a key with a run that recorded them.
        let old = m.to_json().replace("\"alpha\": 0.5, ", "");
        let old = old.replace("\"reorder\": \"sfc\", ", "");
        let back = RunManifest::parse(&old).unwrap();
        assert!(back.alpha.is_nan() && back.reorder.is_empty());
        assert_ne!(back.baseline_key(), manifest(10).baseline_key());
    }
}
