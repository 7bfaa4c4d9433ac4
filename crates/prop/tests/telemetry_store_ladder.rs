//! Property tests for the history store's two levels, raw and summary.
//!
//! The contracts under test, for arbitrary sample sets and step counts:
//!
//! - the summary is *consistent with raw*: each row is
//!   `HistogramSummary::from_samples` of the raw samples, bit for bit
//!   (including the JSON round trip) — `count` exact, `sum` the
//!   arrival-order fold, `min`/`max` exact, and `p50`/`p95` the exact
//!   nearest-rank values over the raw samples.
//! - compaction (`max_bytes: 0` sheds every file but a run's manifest
//!   and summary) preserves per-run summaries and manifests bitwise,
//!   while raw reads report the shard as compacted.
//! - whole-run queries answer from the summary level with exact
//!   agreement against a recompute from raw, for every aggregation.

use mpas_prop::{check, Rng};
use mpas_telemetry::store::{
    Agg, HistoryStore, MetricKind, MetricQuery, Retention, RunFilter, RunManifest,
};
use mpas_telemetry::HistogramSummary;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn tmp(name: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mpas-store-prop-{}-{}-{}",
        name,
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn manifest(steps: usize) -> RunManifest {
    RunManifest::new("5", 3, 0, "simd", 4, "serial", 0, steps)
}

fn record_one(store: &HistoryStore, steps: usize, samples: &[f64]) -> std::io::Result<RunManifest> {
    let mut metrics: BTreeMap<String, (MetricKind, Vec<f64>)> = BTreeMap::new();
    metrics.insert(
        "swe.step.seconds".to_string(),
        (MetricKind::Histogram, samples.to_vec()),
    );
    store.record(&manifest(steps), &metrics)
}

/// Exact nearest-rank percentile, the rule the store documents
/// (`idx = round((n - 1) * q)` over the sorted samples).
fn pct(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn samples(rng: &mut Rng) -> Vec<f64> {
    rng.vec(1..180, |r| r.range(-1.0e6..1.0e6))
}

const CASES: usize = 48;

#[test]
fn ladder_levels_are_consistent_with_raw() {
    check(CASES, |rng| {
        let samples = samples(rng);
        let steps = rng.range(1usize..16);
        let dir = tmp("ladder");
        let store = HistoryStore::open(&dir).unwrap();
        let m = record_one(&store, steps, &samples).unwrap();

        // Raw survives the JSON round trip bitwise (shortest
        // round-trip formatting).
        let raw = store
            .run_raw(&m.run_id, "swe.step.seconds")
            .unwrap()
            .unwrap();
        assert_eq!(raw.len(), samples.len());
        for (a, b) in raw.iter().zip(&samples) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        // The summary: count exact; sum the left fold in arrival order,
        // bitwise; percentiles exact nearest-rank over the whole run. That
        // is the one rule, `from_samples` over raw, field for field.
        let summary = &store.run_summary(&m.run_id).unwrap()[0].summary;
        assert_eq!(summary.count, samples.len());
        let sum = samples.iter().fold(0.0_f64, |a, b| a + b);
        assert_eq!(summary.sum.to_bits(), sum.to_bits());
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(summary.min.to_bits(), sorted[0].to_bits());
        assert_eq!(summary.max.to_bits(), sorted.last().unwrap().to_bits());
        assert_eq!(summary.p50.to_bits(), pct(&sorted, 0.50).to_bits());
        assert_eq!(summary.p95.to_bits(), pct(&sorted, 0.95).to_bits());
        let bits = |s: &HistogramSummary| {
            [s.count as f64, s.sum, s.mean, s.min, s.p50, s.p95, s.max].map(f64::to_bits)
        };
        assert_eq!(bits(summary), bits(&HistogramSummary::from_samples(&raw)));

        std::fs::remove_dir_all(&dir).ok();
    });
}

#[test]
fn whole_run_queries_answer_every_agg_exactly_from_the_summary() {
    check(CASES, |rng| {
        let samples = samples(rng);
        let steps = rng.range(1usize..16);
        let dir = tmp("aggs");
        let store = HistoryStore::open(&dir).unwrap();
        record_one(&store, steps, &samples).unwrap();

        let sum = samples.iter().fold(0.0_f64, |a, b| a + b);
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expect = [
            (Agg::Count, samples.len() as f64),
            (Agg::Sum, sum),
            (Agg::Mean, sum / samples.len() as f64),
            (Agg::P50, pct(&sorted, 0.50)),
            (Agg::P95, pct(&sorted, 0.95)),
            (Agg::Max, *sorted.last().unwrap()),
            (Agg::Min, sorted[0]),
        ];
        for (agg, want) in expect {
            let rows = store
                .query(&MetricQuery {
                    name_prefix: "swe.".to_string(),
                    run_filter: RunFilter::default(),
                    range: None,
                    agg,
                })
                .unwrap();
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0].level, "summary");
            assert_eq!(rows[0].value.to_bits(), want.to_bits(), "agg {:?}", agg);
        }
        // None of those answers touched the raw shard.
        assert_eq!(store.raw_shard_reads(), 0);

        std::fs::remove_dir_all(&dir).ok();
    });
}

#[test]
fn compaction_round_trip_preserves_summaries_bitwise() {
    check(CASES, |rng| {
        let runs = rng.vec(1..4, |r| (samples(r), r.range(1usize..16)));
        let dir = tmp("compact");
        let store = HistoryStore::open(&dir).unwrap();
        let mut recorded = Vec::new();
        for (samples, steps) in &runs {
            recorded.push(record_one(&store, *steps, samples).unwrap());
        }
        let before: Vec<_> = recorded
            .iter()
            .map(|m| store.run_summary(&m.run_id).unwrap())
            .collect();

        // max_bytes 0 sheds every file but must not touch a manifest or
        // a summary.
        let report = store
            .compact(&Retention {
                max_runs: 256,
                max_bytes: 0,
            })
            .unwrap();
        assert_eq!(report.compacted_runs.len(), recorded.len());
        assert!(report.removed_runs.is_empty());

        for (m, want) in recorded.iter().zip(&before) {
            let after = store.run_summary(&m.run_id).unwrap();
            assert_eq!(after.len(), want.len());
            for (a, w) in after.iter().zip(want) {
                assert_eq!(&a.metric, &w.metric);
                assert_eq!(a.kind, w.kind);
                assert_eq!(a.summary.count, w.summary.count);
                assert_eq!(a.summary.sum.to_bits(), w.summary.sum.to_bits());
                assert_eq!(a.summary.min.to_bits(), w.summary.min.to_bits());
                assert_eq!(a.summary.p50.to_bits(), w.summary.p50.to_bits());
                assert_eq!(a.summary.p95.to_bits(), w.summary.p95.to_bits());
                assert_eq!(a.summary.max.to_bits(), w.summary.max.to_bits());
            }
            assert_eq!(store.manifest(&m.run_id).unwrap(), m.clone());
            let err = store.run_raw(&m.run_id, "swe.step.seconds").unwrap_err();
            assert!(err.to_string().contains("compacted"), "err: {err}");
            // Whole-run queries still answer post-compaction.
            let rows = store
                .query(&MetricQuery {
                    name_prefix: String::new(),
                    run_filter: RunFilter {
                        run_ids: vec![m.run_id.clone()],
                        ..RunFilter::default()
                    },
                    range: None,
                    agg: Agg::P50,
                })
                .unwrap();
            assert_eq!(rows.len(), want.len());
        }

        std::fs::remove_dir_all(&dir).ok();
    });
}
