//! Embedded telemetry history store: per-run append-only shards,
//! retention, and a query API.
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
//!   raw.ndjson      one line per metric, every sample in arrival order
//!   summary.json    one summary row per metric (always kept)
//! ```
//!
//! Run ids are zero-padded sequence numbers, so lexicographic order is
//! recording order. `manifest.json` is written last and acts as the
//! commit marker: a directory without one is an aborted flush and is
//! ignored by [`HistoryStore::runs`]. A run recorded before the store
//! dropped its per-step level may also hold `steps.ndjson`; nothing reads
//! it, and compaction sheds it.
//!
//! # One rule
//!
//! Each summary row is [`HistogramSummary::from_samples`] of the metric's
//! raw samples, the workspace's one summary rule (`count/sum/min/p50/p95/
//! max`: nearest-rank percentiles, the sum folded in arrival order), so a
//! row reproduces from raw bit for bit, which is what the store's
//! property tests assert.
//!
//! # Query resolution
//!
//! [`HistoryStore::query`] answers a [`MetricQuery`] without a sample
//! range from the summary (every [`Agg`] is exact there, including
//! `Mean = sum/count`) and one with a range from raw, by the same rule
//! over the raw slice. The store counts raw-shard reads
//! ([`HistoryStore::raw_shard_reads`]) so tests can prove that
//! summary-answerable queries over dozens of runs never touch a raw
//! shard, and that a range query reads each run's raw shard once however
//! many of its metrics it matches.
//!
//! # Retention
//!
//! [`HistoryStore::compact`] enforces a run-count cap (oldest runs are
//! deleted whole) and then a byte budget (oldest runs lose every file but
//! their manifest and summary first). Compaction never rewrites
//! `manifest.json` or `summary.json`, so per-run summaries survive
//! bitwise; a range query against a compacted run reports an error rather
//! than degrading silently.

use crate::digest::Fnv1a;
use crate::export::{json_num, parse_json, JsonValue};
use crate::json_escape;
use crate::{HistogramSummary, Recorder};
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// `git describe --always --dirty` of the checkout this crate was built
/// from, or `"unknown"`, taken once per process.
///
/// Recorded in every [`RunManifest`] so the diagnosis report can say
/// *which code* the regressed run was built from. Git runs in the
/// crate's own source directory, so a run started from any working
/// directory names the same checkout. Shelling out keeps the crate
/// dependency-free; failures (no git, a build moved off its checkout)
/// degrade to `"unknown"` rather than erroring a flush. Only the first
/// call spawns git: a server flushes once per job, and its code does not
/// change while it runs.
pub fn git_describe() -> &'static str {
    static DESCRIBE: OnceLock<String> = OnceLock::new();
    DESCRIBE.get_or_init(|| {
        std::process::Command::new("git")
            .args(["-C", env!("CARGO_MANIFEST_DIR")])
            .args(["describe", "--always", "--dirty"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    })
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
    /// Sample distribution (every sample stored raw).
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
    /// Executor spec (`serial`, `threaded:N`, ...).
    pub executor: String,
    /// Simulated ranks (0 = single-process run).
    pub ranks: usize,
    /// Steps the run executed.
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
    pub const AXES: [&'static str; 10] = [
        "case", "alpha", "level", "lloyd", "reorder", "backend", "layers", "executor", "ranks",
        "steps",
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
    /// backend, layers, executor, ranks and step count — and only
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
             \"executor\": \"{}\", \"ranks\": {}, \"steps\": {}, \
             \"git\": \"{}\", \"config_digest\": \"{:016x}\", \"recorded_unix_s\": {}}}",
            json_escape(&self.run_id),
            json_escape(&self.case),
            json_num(self.alpha),
            self.level,
            self.lloyd,
            json_escape(&self.reorder),
            json_escape(&self.backend),
            self.layers,
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
    /// (empty, NaN), so it matches only runs that also lack them. The
    /// `policy` field of a manifest recorded while runs still named a
    /// modeled scheduling policy is read past: it was never a measured
    /// axis, so such a run keys like a run recorded without it.
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

/// One metric's per-run summary row.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryRow {
    /// Metric name, as recorded.
    pub metric: String,
    /// Where the samples came from.
    pub kind: MetricKind,
    /// [`HistogramSummary::from_samples`] of the run's raw samples.
    pub summary: HistogramSummary,
}

/// Aggregation a [`MetricQuery`] asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// Sample count.
    Count,
    /// Sum, folded in arrival order.
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

/// One query answer row, tagged with the shard that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRow {
    /// Run the value came from.
    pub run_id: String,
    /// Metric name.
    pub metric: String,
    /// Aggregated value.
    pub value: f64,
    /// `"summary"` or `"raw"` — which shard answered.
    pub level: &'static str,
}

/// Retention policy for [`HistoryStore::compact`].
#[derive(Debug, Clone, Copy)]
pub struct Retention {
    /// Keep at most this many runs (oldest deleted whole).
    pub max_runs: usize,
    /// Then shed every file of a run but its manifest and summary
    /// (oldest runs first) until total bytes fit. Summaries and manifests
    /// are never deleted by the byte pass.
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
    /// Runs left with only their manifest and summary by the byte budget.
    pub compacted_runs: Vec<String>,
    /// Total store bytes before the pass.
    pub bytes_before: u64,
    /// Total store bytes after the pass.
    pub bytes_after: u64,
}

/// Handle on a history directory. Cheap to open, safe to share across
/// threads (`&self` everywhere; the read counter is an atomic).
#[derive(Debug)]
pub struct HistoryStore {
    root: PathBuf,
    raw_reads: AtomicU64,
}

const RAW_SHARD: &str = "raw.ndjson";
const SUMMARY_SHARD: &str = "summary.json";
const MANIFEST: &str = "manifest.json";

impl HistoryStore {
    /// Open (creating if needed) the store rooted at `dir`.
    pub fn open(dir: &Path) -> io::Result<HistoryStore> {
        fs::create_dir_all(dir.join("runs"))?;
        Ok(HistoryStore {
            root: dir.to_path_buf(),
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

    /// Raw-shard reads performed through this handle so far (not
    /// persisted; a fresh handle starts at zero).
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

    /// One run's per-metric summaries, sorted by name.
    pub fn run_summary(&self, run_id: &str) -> io::Result<Vec<SummaryRow>> {
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

    /// One metric's raw samples, or `None` if the metric was not
    /// recorded. Errors if the shard was compacted.
    pub fn run_raw(&self, run_id: &str, metric: &str) -> io::Result<Option<Vec<f64>>> {
        Ok(self.raw_rows(run_id)?.remove(metric))
    }

    /// Every metric's raw samples in one run: one read and parse of its
    /// raw shard. Errors if the shard was compacted.
    fn raw_rows(&self, run_id: &str) -> io::Result<BTreeMap<String, Vec<f64>>> {
        self.raw_reads.fetch_add(1, Ordering::Relaxed);
        let path = self.run_dir(run_id).join(RAW_SHARD);
        let text = fs::read_to_string(&path).map_err(|e| compacted(e, run_id, RAW_SHARD))?;
        let mut rows = BTreeMap::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let v = parse_json(line).map_err(|at| invalid(format!("bad raw row at byte {at}")))?;
            let Some(metric) = v.get("metric").and_then(|m| m.as_str()) else {
                continue;
            };
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
            rows.entry(metric.to_string()).or_insert(samples);
        }
        Ok(rows)
    }

    /// Record one run from explicit metric samples. Assigns the run id,
    /// fills provenance (git describe, digest, time), writes the raw and
    /// summary shards and then the manifest (the commit marker), and
    /// returns the completed manifest.
    ///
    /// Non-finite samples are dropped before anything is written (JSON
    /// has no NaN, and band math filters them anyway); metrics left with
    /// no samples are skipped.
    pub fn record(
        &self,
        manifest: &RunManifest,
        metrics: &BTreeMap<String, (MetricKind, Vec<f64>)>,
    ) -> io::Result<RunManifest> {
        let mut m = manifest.clone();
        m.git = git_describe().to_string();
        m.config_digest = m.digest();
        m.recorded_unix_s = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0);
        let dir = self.claim_run_dir(&mut m)?;

        let mut raw = String::new();
        let mut summary_rows = String::new();
        for (name, (kind, samples)) in metrics {
            let samples: Vec<f64> = samples.iter().copied().filter(|s| s.is_finite()).collect();
            if samples.is_empty() {
                continue;
            }
            let list: Vec<String> = samples.iter().map(|s| json_num(*s)).collect();
            raw.push_str(&format!(
                "{{\"metric\": \"{}\", \"kind\": \"{}\", \"samples\": [{}]}}\n",
                json_escape(name),
                kind.as_str(),
                list.join(", ")
            ));
            if !summary_rows.is_empty() {
                summary_rows.push_str(",\n    ");
            }
            summary_rows.push_str(&format!(
                "{{\"metric\": \"{}\", \"kind\": \"{}\", {}}}",
                json_escape(name),
                kind.as_str(),
                summary_json_fields(&HistogramSummary::from_samples(&samples)),
            ));
        }

        write_file(&dir.join(RAW_SHARD), raw.as_bytes())?;
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

    /// Flush a [`Recorder`]'s current snapshot into the store under the
    /// names it recorded. A server job records into a recorder of its own,
    /// so its rows carry the same names a `swe_run` flush does —
    /// cross-source comparability is the point. Counters and gauges store
    /// one sample; histograms store all raw samples (rolling windows are
    /// derived views and are skipped).
    pub fn record_recorder(
        &self,
        manifest: &RunManifest,
        rec: &Recorder,
    ) -> io::Result<RunManifest> {
        let snap = rec.snapshot();
        let mut metrics: BTreeMap<String, (MetricKind, Vec<f64>)> = BTreeMap::new();
        for (name, v) in snap.counters {
            metrics.insert(name, (MetricKind::Counter, vec![v as f64]));
        }
        for (name, v) in snap.gauges {
            metrics.insert(name, (MetricKind::Gauge, vec![v]));
        }
        for name in snap.histograms.into_keys() {
            let samples = rec.histogram_samples(&name);
            metrics.insert(name, (MetricKind::Histogram, samples));
        }
        self.record(manifest, &metrics)
    }

    /// Answer a query: a whole run from its summary, a sample range from
    /// raw (see the module docs), read once per run it touches.
    pub fn query(&self, q: &MetricQuery) -> io::Result<Vec<QueryRow>> {
        let runs = self.select_runs(&q.run_filter)?;
        let mut out = Vec::new();
        for m in &runs {
            let rows = self.run_summary(&m.run_id)?;
            let mut raw = None;
            for row in rows {
                if !row.metric.starts_with(&q.name_prefix) {
                    continue;
                }
                let (summary, level) = match q.range {
                    None => (row.summary, "summary"),
                    Some((start, end)) => {
                        if raw.is_none() {
                            raw = Some(self.raw_rows(&m.run_id)?);
                        }
                        let samples = raw.as_mut().and_then(|r| r.remove(&row.metric));
                        let samples = samples.ok_or_else(|| {
                            invalid(format!("metric {} not in run {}", row.metric, m.run_id))
                        })?;
                        let end = end.min(samples.len());
                        let start = start.min(end);
                        (HistogramSummary::from_samples(&samples[start..end]), "raw")
                    }
                };
                out.push(QueryRow {
                    run_id: m.run_id.clone(),
                    metric: row.metric,
                    value: q.agg.of(&summary),
                    level,
                });
            }
        }
        Ok(out)
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
    /// (oldest first), then shed every file but a run's manifest and
    /// summary (oldest runs first) until the byte budget fits. Manifests
    /// and summaries are never touched, so per-run summaries survive
    /// compaction bitwise.
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
            for file in fs::read_dir(self.run_dir(&m.run_id))? {
                let file = file?;
                let name = file.file_name();
                if name == MANIFEST || name == SUMMARY_SHARD {
                    continue;
                }
                shed += file.metadata()?.len();
                fs::remove_file(file.path())?;
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
        RunManifest::new("5", 3, 0, "simd", 4, "serial", 0, steps)
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

    /// Every field of a summary as bits, for bitwise comparison.
    fn bits(s: &HistogramSummary) -> [u64; 7] {
        [s.count as f64, s.sum, s.mean, s.min, s.p50, s.p95, s.max].map(f64::to_bits)
    }

    const AGGS: [Agg; 7] = [
        Agg::Count,
        Agg::Sum,
        Agg::Mean,
        Agg::P50,
        Agg::P95,
        Agg::Max,
        Agg::Min,
    ];

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
        // The summary row is the one rule over raw, bit for bit.
        let row = store.run_summary(&m.run_id).unwrap()[0].summary;
        assert_eq!(bits(&row), bits(&HistogramSummary::from_samples(&raw)));
        let mut files: Vec<String> = fs::read_dir(store.run_dir(&m.run_id))
            .unwrap()
            .map(|f| f.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        assert_eq!(files, [MANIFEST, RAW_SHARD, SUMMARY_SHARD]);
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
    }

    #[test]
    fn range_queries_answer_from_raw_with_the_bits_of_from_samples() {
        let store = HistoryStore::open(&tmp("range")).unwrap();
        let samples: Vec<f64> = (0..37).map(|i| (i as f64 * 0.7).sin() + 2.0).collect();
        let mut metrics = BTreeMap::new();
        metrics.insert("m".to_string(), hist(&samples));
        let m = store.record(&manifest(4), &metrics).unwrap();
        let q = |range, agg| MetricQuery {
            name_prefix: "m".to_string(),
            run_filter: RunFilter {
                run_ids: vec![m.run_id.clone()],
                ..RunFilter::default()
            },
            range,
            agg,
        };
        // Ranges on and off the old per-step chunk bounds (10 samples
        // wide), and one past the end, which clamps.
        for (start, end) in [(0, 10), (1, 4), (10, 37), (30, 100)] {
            let want = HistogramSummary::from_samples(&samples[start..end.min(samples.len())]);
            for agg in AGGS {
                let rows = store.query(&q(Some((start, end)), agg)).unwrap();
                assert_eq!(rows[0].level, "raw");
                assert_eq!(
                    rows[0].value.to_bits(),
                    agg.of(&want).to_bits(),
                    "{agg:?} over [{start}, {end})"
                );
            }
        }
    }

    #[test]
    fn a_range_query_reads_each_run_once() {
        let store = HistoryStore::open(&tmp("range_reads")).unwrap();
        let series = |run: usize, metric: usize| -> Vec<f64> {
            (0..20)
                .map(|i| ((run * 7 + metric * 3 + i) as f64 * 0.37).cos())
                .collect()
        };
        let (n_runs, n_metrics) = (3, 5);
        for run in 0..n_runs {
            let metrics = (0..n_metrics)
                .map(|k| (format!("m.{k}"), hist(&series(run, k))))
                .collect();
            store.record(&manifest(20), &metrics).unwrap();
        }
        let rows = store
            .query(&MetricQuery {
                name_prefix: "m.".to_string(),
                run_filter: RunFilter::default(),
                range: Some((2, 15)),
                agg: Agg::P95,
            })
            .unwrap();
        assert_eq!(rows.len(), n_runs * n_metrics);
        assert_eq!(store.raw_shard_reads(), n_runs as u64);
        for (i, row) in rows.iter().enumerate() {
            let want = HistogramSummary::from_samples(&series(i / n_metrics, i % n_metrics)[2..15]);
            assert_eq!(row.metric, format!("m.{}", i % n_metrics));
            assert_eq!(row.value.to_bits(), Agg::P95.of(&want).to_bits());
        }
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
        // A flush stores every metric under the name it was recorded by.
        let rec = Recorder::new();
        rec.add("core.sim.steps", 5);
        rec.set_gauge("core.sim.mass_drift", 1e-14);
        rec.record("core.sim.step_seconds", 0.25);
        rec.record("core.sim.step_seconds", 0.5);
        let store = HistoryStore::open(&tmp("plain")).unwrap();
        let m = store.record_recorder(&manifest(1), &rec).unwrap();
        let rows = store.run_summary(&m.run_id).unwrap();
        let kinds: Vec<(&str, MetricKind, usize)> = rows
            .iter()
            .map(|r| (r.metric.as_str(), r.kind, r.summary.count))
            .collect();
        assert_eq!(
            kinds,
            vec![
                ("core.sim.mass_drift", MetricKind::Gauge, 1),
                ("core.sim.step_seconds", MetricKind::Histogram, 2),
                ("core.sim.steps", MetricKind::Counter, 1)
            ]
        );
    }

    /// A run as the store wrote it while it kept a per-step level: a
    /// `steps.ndjson` beside the other files, and a histogram row whose
    /// `sum` is the chunk tree (2.8499999999999996), one ulp below the
    /// arrival-order fold of its samples (2.85).
    const OLD_RUN: [(&str, &str); 4] = [
        (
            "manifest.json",
            "{\"run_id\": \"r000001\", \"case\": \"5\", \"alpha\": 0, \"level\": 3, \
             \"lloyd\": 0, \"reorder\": \"sfc\", \"backend\": \"simd\", \"layers\": 4, \
             \"policy\": \"pattern-driven\", \"executor\": \"serial\", \"ranks\": 0, \
             \"steps\": 3, \"git\": \"unknown\", \"config_digest\": \"c81e8cc7b3a173ab\", \
             \"recorded_unix_s\": 1792311789.2724273}",
        ),
        (
            "raw.ndjson",
            "{\"metric\": \"core.sim.step_seconds\", \"kind\": \"histogram\", \
             \"samples\": [0.7, 0.1, 0.2, 0.6, 0.3, 0.9, 0.05]}\n\
             {\"metric\": \"core.sim.steps\", \"kind\": \"counter\", \"samples\": [3]}\n",
        ),
        (
            "steps.ndjson",
            "{\"metric\": \"core.sim.step_seconds\", \"start\": 0, \"count\": 3, \"sum\": 1, \
             \"min\": 0.1, \"p50\": 0.2, \"p95\": 0.7, \"max\": 0.7}\n\
             {\"metric\": \"core.sim.step_seconds\", \"start\": 3, \"count\": 3, \
             \"sum\": 1.7999999999999998, \"min\": 0.3, \"p50\": 0.6, \"p95\": 0.9, \"max\": 0.9}\n\
             {\"metric\": \"core.sim.step_seconds\", \"start\": 6, \"count\": 1, \"sum\": 0.05, \
             \"min\": 0.05, \"p50\": 0.05, \"p95\": 0.05, \"max\": 0.05}\n\
             {\"metric\": \"core.sim.steps\", \"start\": 0, \"count\": 1, \"sum\": 3, \"min\": 3, \
             \"p50\": 3, \"p95\": 3, \"max\": 3}\n",
        ),
        (
            "summary.json",
            "{\"run_id\": \"r000001\", \"metrics\": [\n    \
             {\"metric\": \"core.sim.step_seconds\", \"kind\": \"histogram\", \"count\": 7, \
             \"sum\": 2.8499999999999996, \"min\": 0.05, \"p50\": 0.3, \"p95\": 0.9, \"max\": 0.9},\n    \
             {\"metric\": \"core.sim.steps\", \"kind\": \"counter\", \"count\": 1, \"sum\": 3, \
             \"min\": 3, \"p50\": 3, \"p95\": 3, \"max\": 3}\n]}\n",
        ),
    ];

    #[test]
    fn runs_in_the_old_layout_read_back_and_compact_to_manifest_and_summary() {
        let dir = tmp("old_layout");
        let store = HistoryStore::open(&dir).unwrap();
        let run = store.run_dir("r000001");
        fs::create_dir(&run).unwrap();
        for (name, text) in OLD_RUN {
            write_file(&run.join(name), text.as_bytes()).unwrap();
        }
        assert_eq!(store.latest().unwrap().unwrap().run_id, "r000001");

        // The rows read back as written (the values an older store read),
        // and every whole-run answer comes from them.
        let rows = store.run_summary("r000001").unwrap();
        let want = [
            (
                "core.sim.step_seconds",
                MetricKind::Histogram,
                [7.0, 2.8499999999999996, 0.05, 0.3, 0.9, 0.9],
            ),
            (
                "core.sim.steps",
                MetricKind::Counter,
                [1.0, 3.0, 3.0, 3.0, 3.0, 3.0],
            ),
        ];
        assert_eq!(rows.len(), want.len());
        for (row, (metric, kind, [count, sum, min, p50, p95, max])) in rows.iter().zip(want) {
            assert_eq!((row.metric.as_str(), row.kind), (metric, kind));
            let s = &row.summary;
            let expect = [count, sum, sum / count, min, p50, p95, max];
            let got = [s.count as f64, s.sum, s.mean, s.min, s.p50, s.p95, s.max];
            assert_eq!(got.map(f64::to_bits), expect.map(f64::to_bits), "{metric}");
        }
        let query = |range, agg| {
            store
                .query(&MetricQuery {
                    name_prefix: "core.sim.step".to_string(),
                    run_filter: RunFilter::default(),
                    range,
                    agg,
                })
                .unwrap()
        };
        for agg in AGGS {
            let answers = query(None, agg);
            assert_eq!(answers.len(), 2);
            for (a, row) in answers.iter().zip(&rows) {
                assert_eq!(a.level, "summary");
                assert_eq!(a.value.to_bits(), agg.of(&row.summary).to_bits());
            }
        }
        assert_eq!(store.raw_shard_reads(), 0);
        // A range answers from raw; the old steps file is never read.
        let sum = query(Some((0, 7)), Agg::Sum);
        assert_eq!((sum[0].level, sum[0].value), ("raw", 2.85));

        // Compaction leaves the manifest and the summary, unchanged.
        let report = store
            .compact(&Retention {
                max_runs: 256,
                max_bytes: 0,
            })
            .unwrap();
        assert_eq!(report.compacted_runs, ["r000001"]);
        let mut files: Vec<String> = fs::read_dir(&run)
            .unwrap()
            .map(|f| f.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        assert_eq!(files, [MANIFEST, SUMMARY_SHARD]);
        assert_eq!(
            fs::read_to_string(run.join(SUMMARY_SHARD)).unwrap(),
            OLD_RUN[3].1
        );
        let after = store.run_summary("r000001").unwrap();
        let b = |rows: &[SummaryRow]| rows.iter().map(|r| bits(&r.summary)).collect::<Vec<_>>();
        assert_eq!(b(&after), b(&rows));
    }

    #[test]
    fn git_describe_is_taken_once_per_process() {
        assert!(std::ptr::eq(git_describe(), git_describe()));
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
