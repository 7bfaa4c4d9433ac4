//! Trace analysis: happens-before reconstruction, critical-path
//! extraction, and per-rank blame decomposition.
//!
//! PR 2 made the runtime *record* spans and events; this module makes the
//! records *answer questions*. It reconstructs a happens-before DAG from
//! the per-rank span tracks and the rank-tagged send/recv edge events that
//! `mpas-msg::comm` emits, then extracts
//!
//! * the **critical path** through the run — a backward walk from the
//!   last-finishing rank that, at every blocked wait, jumps to the matched
//!   sender at the instant the message left (the classical MPI
//!   critical-path recipe), and
//! * a **per-rank blame report** — each rank's step time decomposed into
//!   compute / payload-copy / blocked-wait / barrier fractions, with an
//!   imbalance figure directly comparable to `Schedule::imbalance` in
//!   `mpas-sched`.
//!
//! Everything here is *total*: malformed traces (missing events, truncated
//! spans, unmatched messages) degrade the attribution, never panic. That
//! is a hard requirement for a tool that runs on whatever a crashed job
//! left behind.
//!
//! ## Trace conventions
//!
//! The instrumentation sites and this analyzer agree on names through the
//! constants below; `msg::comm`, `msg::halo` and `core::distributed`
//! import them rather than repeating string literals:
//!
//! * each rank records on track [`rank_track`]`(r)` = `"rank{r}"`;
//! * span names: [`STEP_SPAN`] (one per time step, the blame window),
//!   [`WAIT_SPAN`] (blocked in `recv`), [`COPY_SPAN`] (halo pack/unpack),
//!   [`BARRIER_SPAN`];
//! * events: [`SEND_EVENT`] / [`RECV_EVENT`] with `from`, `to`, `tag`,
//!   `bytes` arguments — the causal edges.
//!
//! Wait and copy spans are emitted *disjoint* (the receive completes
//! before the unpack span opens), so the blame fractions decompose without
//! double counting; compute is the residual, which makes the per-rank
//! fractions sum to 1 exactly.

use crate::{EventRecord, Recorder, SpanRecord};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Span name of a rank's per-step window (`core::distributed`).
pub const STEP_SPAN: &str = "step";
/// Span name of a blocked receive (`msg::comm::recv`).
pub const WAIT_SPAN: &str = "wait";
/// Span name of a halo payload pack/unpack (`msg::halo`).
pub const COPY_SPAN: &str = "copy";
/// Span name of a barrier (`msg::comm::barrier`).
pub const BARRIER_SPAN: &str = "barrier";
/// Event name of a message send; args `from`, `to`, `tag`, `bytes`.
pub const SEND_EVENT: &str = "msg.comm.send";
/// Event name of a completed message receive; args `from`, `to`, `tag`,
/// `bytes`.
pub const RECV_EVENT: &str = "msg.comm.recv";

/// Track name a rank's spans are recorded on (`"rank{r}"`).
pub fn rank_track(rank: usize) -> String {
    format!("rank{rank}")
}

/// Inverse of [`rank_track`]: `Some(r)` iff `track` is exactly `"rank{r}"`.
pub fn parse_rank_track(track: &str) -> Option<usize> {
    track.strip_prefix("rank")?.parse().ok()
}

/// One rank-tagged send or recv edge event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommEvent {
    /// Sending rank.
    pub from: usize,
    /// Receiving rank.
    pub to: usize,
    /// Message tag.
    pub tag: u64,
    /// Payload size.
    pub bytes: u64,
    /// Timestamp (send: when the message left; recv: when it was matched).
    pub ts_s: f64,
}

/// Everything recorded on one rank's track, categorized and time-ordered.
#[derive(Debug, Clone, Default)]
pub struct RankTimeline {
    /// The rank id (from the track name).
    pub rank: usize,
    /// Per-step windows ([`STEP_SPAN`]), by start time.
    pub steps: Vec<SpanRecord>,
    /// Blocked-receive spans ([`WAIT_SPAN`]), by start time.
    pub waits: Vec<SpanRecord>,
    /// Payload-copy spans ([`COPY_SPAN`]), by start time.
    pub copies: Vec<SpanRecord>,
    /// Barrier spans ([`BARRIER_SPAN`]), by start time.
    pub barriers: Vec<SpanRecord>,
}

/// A categorized span in the critical-path walk: kind, start, end, and —
/// for waits — the matched sender `(rank, send timestamp)` to jump to.
type CatSpan = (SegmentKind, f64, f64, Option<(usize, f64)>);

/// A reconstructed multi-rank trace: per-rank timelines plus the message
/// edges between them.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// One timeline per rank id that appears in the records (dense,
    /// indexed by rank; ranks with no records are empty timelines).
    pub ranks: Vec<RankTimeline>,
    /// All send events, in timestamp order.
    pub sends: Vec<CommEvent>,
    /// All recv events, in timestamp order.
    pub recvs: Vec<CommEvent>,
}

fn event_arg(e: &EventRecord, key: &str) -> Option<f64> {
    e.args
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.parse().ok())
}

fn comm_event(e: &EventRecord) -> Option<CommEvent> {
    Some(CommEvent {
        from: event_arg(e, "from")? as usize,
        to: event_arg(e, "to")? as usize,
        tag: event_arg(e, "tag")? as u64,
        bytes: event_arg(e, "bytes").unwrap_or(0.0) as u64,
        ts_s: e.ts_s,
    })
}

fn sort_by_start(v: &mut [SpanRecord]) {
    v.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
}

impl Trace {
    /// Reconstruct a trace from raw records. Spans on non-rank tracks and
    /// events other than [`SEND_EVENT`]/[`RECV_EVENT`] are ignored.
    pub fn from_records(spans: &[SpanRecord], events: &[EventRecord]) -> Trace {
        let mut ranks: Vec<RankTimeline> = Vec::new();
        for s in spans {
            let Some(r) = parse_rank_track(&s.track) else {
                continue;
            };
            if r > 4096 {
                continue; // defensive: don't let a hostile track name allocate
            }
            while ranks.len() <= r {
                let rank = ranks.len();
                ranks.push(RankTimeline {
                    rank,
                    ..RankTimeline::default()
                });
            }
            let tl = &mut ranks[r];
            match s.name.as_str() {
                STEP_SPAN => tl.steps.push(s.clone()),
                WAIT_SPAN => tl.waits.push(s.clone()),
                COPY_SPAN => tl.copies.push(s.clone()),
                BARRIER_SPAN => tl.barriers.push(s.clone()),
                _ => {}
            }
        }
        for tl in &mut ranks {
            sort_by_start(&mut tl.steps);
            sort_by_start(&mut tl.waits);
            sort_by_start(&mut tl.copies);
            sort_by_start(&mut tl.barriers);
        }
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        for e in events {
            match e.name.as_str() {
                SEND_EVENT => sends.extend(comm_event(e)),
                RECV_EVENT => recvs.extend(comm_event(e)),
                _ => {}
            }
        }
        sends.sort_by(|a, b| a.ts_s.total_cmp(&b.ts_s));
        recvs.sort_by(|a, b| a.ts_s.total_cmp(&b.ts_s));
        Trace {
            ranks,
            sends,
            recvs,
        }
    }

    /// [`Trace::from_records`] over everything `rec` has recorded so far.
    pub fn from_recorder(rec: &Recorder) -> Trace {
        Trace::from_records(&rec.spans(), &rec.events())
    }

    /// Number of ranks with at least one step span.
    pub fn active_ranks(&self) -> usize {
        self.ranks.iter().filter(|t| !t.steps.is_empty()).count()
    }

    /// Overall step window: (earliest step start, latest step end, rank
    /// whose step ends last). `None` if no rank recorded a step span.
    pub fn window(&self) -> Option<(f64, f64, usize)> {
        let mut t0 = f64::INFINITY;
        let mut t1 = f64::NEG_INFINITY;
        let mut last_rank = 0;
        for tl in &self.ranks {
            for s in &tl.steps {
                t0 = t0.min(s.start_s);
                let end = s.start_s + s.dur_s;
                if end > t1 {
                    t1 = end;
                    last_rank = tl.rank;
                }
            }
        }
        if t0.is_finite() {
            Some((t0, t1, last_rank))
        } else {
            None
        }
    }

    /// Makespan of the k-th step across ranks (max end − min start over
    /// every rank's k-th step span). Length = the smallest step count
    /// over active ranks.
    pub fn per_step_makespans(&self) -> Vec<f64> {
        let active: Vec<&RankTimeline> =
            self.ranks.iter().filter(|t| !t.steps.is_empty()).collect();
        let n_steps = active.iter().map(|t| t.steps.len()).min().unwrap_or(0);
        (0..n_steps)
            .map(|k| {
                let start = active
                    .iter()
                    .map(|t| t.steps[k].start_s)
                    .fold(f64::INFINITY, f64::min);
                let end = active
                    .iter()
                    .map(|t| t.steps[k].start_s + t.steps[k].dur_s)
                    .fold(f64::NEG_INFINITY, f64::max);
                (end - start).max(0.0)
            })
            .collect()
    }

    /// Decompose each rank's in-step time into compute / copy / wait /
    /// barrier and summarize the imbalance. See [`BlameReport`].
    pub fn blame(&self) -> BlameReport {
        let mut ranks = Vec::new();
        for tl in &self.ranks {
            if tl.steps.is_empty() {
                continue;
            }
            let windows: Vec<(f64, f64)> = tl
                .steps
                .iter()
                .map(|s| (s.start_s, s.start_s + s.dur_s))
                .collect();
            let total_s: f64 = windows.iter().map(|(a, b)| (b - a).max(0.0)).sum();
            let clip = |spans: &[SpanRecord]| -> f64 {
                // `+ 0.0` canonicalizes the -0.0 an empty `sum()` yields,
                // which would otherwise render as "-0.0%".
                spans
                    .iter()
                    .map(|s| {
                        let (a, b) = (s.start_s, s.start_s + s.dur_s);
                        windows
                            .iter()
                            .map(|&(w0, w1)| (b.min(w1) - a.max(w0)).max(0.0))
                            .sum::<f64>()
                    })
                    .sum::<f64>()
                    + 0.0
            };
            let wait_s = clip(&tl.waits);
            let copy_s = clip(&tl.copies);
            let barrier_s = clip(&tl.barriers);
            let compute_s = (total_s - wait_s - copy_s - barrier_s).max(0.0);
            ranks.push(RankBlame {
                rank: tl.rank,
                total_s,
                compute_s,
                wait_s,
                copy_s,
                barrier_s,
            });
        }
        let (makespan_s, imbalance) = match self.window() {
            Some((t0, t1, _)) => {
                let hi = ranks.iter().map(|r| r.total_s).fold(0.0, f64::max);
                let lo = ranks
                    .iter()
                    .map(|r| r.total_s)
                    .fold(f64::INFINITY, f64::min);
                let imb = if hi > 0.0 && lo.is_finite() {
                    (hi - lo) / hi
                } else {
                    0.0
                };
                ((t1 - t0).max(0.0), imb)
            }
            None => (0.0, 0.0),
        };
        BlameReport {
            ranks,
            makespan_s,
            imbalance,
        }
    }

    /// Extract the critical path by a backward happens-before walk from
    /// the last-finishing rank. See the module docs for the recipe; the
    /// returned segments tile `[path start, window end]` exactly, so
    /// `CriticalPath::path_s ≤ makespan` holds by construction.
    pub fn critical_path(&self) -> CriticalPath {
        let Some((t0, t1, last_rank)) = self.window() else {
            return CriticalPath::default();
        };
        // Per-rank merged list of categorized spans (kind-tagged), plus
        // per-rank wait→matched-send-event resolution.
        let send_ts = self.match_sends();
        let mut per_rank: Vec<Vec<CatSpan>> = Vec::new();
        for tl in &self.ranks {
            let mut v = Vec::new();
            for (k, w) in tl.waits.iter().enumerate() {
                let jump = send_ts.get(&(tl.rank, k)).copied();
                v.push((SegmentKind::Wait, w.start_s, w.start_s + w.dur_s, jump));
            }
            for c in &tl.copies {
                v.push((SegmentKind::Copy, c.start_s, c.start_s + c.dur_s, None));
            }
            for b in &tl.barriers {
                v.push((SegmentKind::Barrier, b.start_s, b.start_s + b.dur_s, None));
            }
            v.sort_by(|a, b| a.1.total_cmp(&b.1));
            per_rank.push(v);
        }
        let floor = |rank: usize| -> f64 {
            self.ranks
                .get(rank)
                .and_then(|tl| tl.steps.first())
                .map(|s| s.start_s)
                .unwrap_or(t0)
        };

        let mut segments: Vec<PathSegment> = Vec::new();
        let mut cur = t1;
        let mut rank = last_rank;
        // Hard iteration bound so a degenerate trace can never hang us.
        let max_iters = 2 * per_rank.iter().map(Vec::len).sum::<usize>() + 64;
        for _ in 0..max_iters {
            let lo = floor(rank);
            if cur <= lo + 1e-12 {
                break;
            }
            // Latest categorized span on `rank` with a nonzero clip
            // against (lo, cur).
            let pick = per_rank
                .get(rank)
                .into_iter()
                .flatten()
                .rfind(|&&(_, s, e, _)| s < cur && e.min(cur) > s && e.min(cur) > lo)
                .copied();
            let Some((kind, s, e, jump)) = pick else {
                segments.push(PathSegment {
                    rank,
                    kind: SegmentKind::Compute,
                    start_s: lo,
                    end_s: cur,
                });
                break;
            };
            let ce = e.min(cur);
            if ce < cur {
                segments.push(PathSegment {
                    rank,
                    kind: SegmentKind::Compute,
                    start_s: ce,
                    end_s: cur,
                });
            }
            match (kind, jump) {
                (SegmentKind::Wait, Some((sender, sts)))
                    if sender != rank && sts < ce && sts > t0 - 1.0 =>
                {
                    // Blocked wait with a matched causal edge: the path
                    // continues on the sender at the send instant; the
                    // in-flight interval is blamed on wait.
                    segments.push(PathSegment {
                        rank,
                        kind: SegmentKind::Wait,
                        start_s: sts,
                        end_s: ce,
                    });
                    cur = sts;
                    rank = sender;
                }
                _ => {
                    segments.push(PathSegment {
                        rank,
                        kind,
                        start_s: s.max(lo),
                        end_s: ce,
                    });
                    cur = s.max(lo);
                }
            }
        }
        segments.retain(|s| s.end_s - s.start_s > 0.0);
        segments.reverse();
        let mut cp = CriticalPath {
            start_s: segments.first().map(|s| s.start_s).unwrap_or(t1),
            end_s: t1,
            makespan_s: (t1 - t0).max(0.0),
            ..CriticalPath::default()
        };
        for seg in &segments {
            let d = seg.end_s - seg.start_s;
            match seg.kind {
                SegmentKind::Compute => cp.compute_s += d,
                SegmentKind::Wait => cp.wait_s += d,
                SegmentKind::Copy => cp.copy_s += d,
                SegmentKind::Barrier => cp.barrier_s += d,
            }
        }
        cp.segments = segments;
        cp
    }

    /// FIFO-match every recv to its send: the k-th recv with key
    /// `(from, to, tag)` pairs with the k-th send with the same key. The
    /// map key is `(rank, wait index on that rank)`; the value is
    /// `(sender, send timestamp)`.
    fn match_sends(&self) -> HashMap<(usize, usize), (usize, f64)> {
        // Sends per (from, to, tag), in time order.
        let mut fifo: HashMap<(usize, usize, u64), Vec<f64>> = HashMap::new();
        for s in &self.sends {
            fifo.entry((s.from, s.to, s.tag)).or_default().push(s.ts_s);
        }
        let mut next: HashMap<(usize, usize, u64), usize> = HashMap::new();
        // Recvs per receiving rank, in time order (self.recvs is sorted);
        // the k-th recv on a rank matches the k-th wait span on that rank
        // because `comm::recv` emits exactly one of each, in program
        // order, on the rank's own thread.
        let mut wait_idx: HashMap<usize, usize> = HashMap::new();
        let mut out = HashMap::new();
        for r in &self.recvs {
            let k = wait_idx.entry(r.to).or_insert(0);
            let key = (r.from, r.to, r.tag);
            let n = next.entry(key).or_insert(0);
            if let Some(ts) = fifo.get(&key).and_then(|v| v.get(*n)) {
                out.insert((r.to, *k), (r.from, *ts));
            }
            *n += 1;
            *k += 1;
        }
        out
    }
}

/// What a critical-path segment was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Kernel work (the residual between categorized spans).
    Compute,
    /// Blocked in `recv` (includes the in-flight time after the matched
    /// send when the walk jumps ranks).
    Wait,
    /// Halo payload pack/unpack.
    Copy,
    /// Barrier.
    Barrier,
}

impl SegmentKind {
    /// Short lower-case label (`"compute"`, `"wait"`, ...).
    pub fn label(&self) -> &'static str {
        match self {
            SegmentKind::Compute => "compute",
            SegmentKind::Wait => "wait",
            SegmentKind::Copy => "copy",
            SegmentKind::Barrier => "barrier",
        }
    }
}

/// One contiguous piece of the critical path, on one rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathSegment {
    /// Rank the segment ran on.
    pub rank: usize,
    /// Attribution.
    pub kind: SegmentKind,
    /// Segment start (recorder epoch seconds).
    pub start_s: f64,
    /// Segment end.
    pub end_s: f64,
}

/// The extracted critical path. Segments tile `[start_s, end_s]`
/// contiguously (earliest first), so `path_s() ≤ makespan_s` always.
#[derive(Debug, Clone, Default)]
pub struct CriticalPath {
    /// Path segments, earliest first.
    pub segments: Vec<PathSegment>,
    /// Where the backward walk terminated.
    pub start_s: f64,
    /// The overall window end (last step end).
    pub end_s: f64,
    /// Overall window length (last step end − first step start).
    pub makespan_s: f64,
    /// Path seconds attributed to compute.
    pub compute_s: f64,
    /// Path seconds attributed to blocked wait / in-flight messages.
    pub wait_s: f64,
    /// Path seconds attributed to payload copies.
    pub copy_s: f64,
    /// Path seconds attributed to barriers.
    pub barrier_s: f64,
}

impl CriticalPath {
    /// Total path length (`end_s − start_s`; equals the sum of the four
    /// attribution buckets).
    pub fn path_s(&self) -> f64 {
        (self.end_s - self.start_s).max(0.0)
    }

    /// How many distinct ranks the path visits.
    pub fn ranks_visited(&self) -> usize {
        let mut ranks: Vec<usize> = self.segments.iter().map(|s| s.rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        ranks.len()
    }

    /// One-paragraph human summary.
    pub fn render(&self) -> String {
        let p = self.path_s();
        let frac = |x: f64| if p > 0.0 { 100.0 * x / p } else { 0.0 };
        format!(
            "critical path {:.3} ms over {} rank(s) ({} segments): \
             compute {:.1}%, wait {:.1}%, copy {:.1}%, barrier {:.1}% \
             (window makespan {:.3} ms)",
            p * 1e3,
            self.ranks_visited(),
            self.segments.len(),
            frac(self.compute_s),
            frac(self.wait_s),
            frac(self.copy_s),
            frac(self.barrier_s),
            self.makespan_s * 1e3,
        )
    }
}

/// One rank's blame decomposition. `total_s` is the summed length of the
/// rank's step windows; the four buckets partition it (compute is the
/// residual, so the fractions sum to 1 whenever `total_s > 0`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankBlame {
    /// Rank id.
    pub rank: usize,
    /// Summed step-window seconds.
    pub total_s: f64,
    /// Residual compute seconds.
    pub compute_s: f64,
    /// Blocked-receive seconds (clipped to step windows).
    pub wait_s: f64,
    /// Payload-copy seconds (clipped to step windows).
    pub copy_s: f64,
    /// Barrier seconds (clipped to step windows).
    pub barrier_s: f64,
}

impl RankBlame {
    fn denom(&self) -> f64 {
        let d = self.compute_s + self.wait_s + self.copy_s + self.barrier_s;
        if d > 0.0 {
            d
        } else {
            1.0
        }
    }

    /// Fraction of step time in compute.
    pub fn compute_frac(&self) -> f64 {
        self.compute_s / self.denom()
    }

    /// Fraction of step time blocked in `recv`.
    pub fn wait_frac(&self) -> f64 {
        self.wait_s / self.denom()
    }

    /// Fraction of step time copying payloads.
    pub fn copy_frac(&self) -> f64 {
        self.copy_s / self.denom()
    }

    /// Fraction of step time in barriers.
    pub fn barrier_frac(&self) -> f64 {
        self.barrier_s / self.denom()
    }
}

/// Blame decomposition across all ranks.
#[derive(Debug, Clone, Default)]
pub struct BlameReport {
    /// Per-rank rows (ranks that recorded at least one step span).
    pub ranks: Vec<RankBlame>,
    /// Last step end − first step start across ranks.
    pub makespan_s: f64,
    /// `(max − min) / max` over per-rank `total_s` — same figure of merit
    /// as `Schedule::imbalance` in `mpas-sched`.
    pub imbalance: f64,
}

impl BlameReport {
    /// Largest per-rank wait fraction (the canonical "who is hurting"
    /// scalar the regression gate watches).
    pub fn max_wait_frac(&self) -> f64 {
        self.ranks.iter().map(|r| r.wait_frac()).fold(0.0, f64::max)
    }

    /// Mean per-rank compute fraction.
    pub fn mean_compute_frac(&self) -> f64 {
        if self.ranks.is_empty() {
            return 0.0;
        }
        self.ranks.iter().map(|r| r.compute_frac()).sum::<f64>() / self.ranks.len() as f64
    }

    /// Fixed-width table, one row per rank plus a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>5} {:>10} {:>9} {:>9} {:>9} {:>9}",
            "rank", "total_ms", "compute", "wait", "copy", "barrier"
        );
        for r in &self.ranks {
            let _ = writeln!(
                out,
                "{:>5} {:>10.3} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}%",
                r.rank,
                r.total_s * 1e3,
                100.0 * r.compute_frac(),
                100.0 * r.wait_frac(),
                100.0 * r.copy_frac(),
                100.0 * r.barrier_frac(),
            );
        }
        let _ = writeln!(
            out,
            "makespan {:.3} ms, imbalance {:.3}, max wait frac {:.3}",
            self.makespan_s * 1e3,
            self.imbalance,
            self.max_wait_frac()
        );
        out
    }
}

/// Publish a blame report (and optionally a critical path) as
/// `analysis.*` gauges on `rec`, so the regression gate can watch blame
/// fractions with the same machinery it uses for any other metric.
pub fn record_blame(rec: &Recorder, blame: &BlameReport, cp: Option<&CriticalPath>) {
    if !rec.is_enabled() {
        return;
    }
    rec.set_gauge("analysis.blame.makespan_s", blame.makespan_s);
    rec.set_gauge("analysis.blame.imbalance", blame.imbalance);
    rec.set_gauge("analysis.blame.max_wait_frac", blame.max_wait_frac());
    rec.set_gauge(
        "analysis.blame.mean_compute_frac",
        blame.mean_compute_frac(),
    );
    for r in &blame.ranks {
        rec.set_gauge(
            &format!("analysis.blame.rank{}.compute_frac", r.rank),
            r.compute_frac(),
        );
        rec.set_gauge(
            &format!("analysis.blame.rank{}.wait_frac", r.rank),
            r.wait_frac(),
        );
        rec.set_gauge(
            &format!("analysis.blame.rank{}.copy_frac", r.rank),
            r.copy_frac(),
        );
        rec.set_gauge(
            &format!("analysis.blame.rank{}.barrier_frac", r.rank),
            r.barrier_frac(),
        );
    }
    if let Some(cp) = cp {
        rec.set_gauge("analysis.cp.path_s", cp.path_s());
        rec.set_gauge("analysis.cp.compute_s", cp.compute_s);
        rec.set_gauge("analysis.cp.wait_s", cp.wait_s);
        rec.set_gauge("analysis.cp.copy_s", cp.copy_s);
        rec.set_gauge("analysis.cp.barrier_s", cp.barrier_s);
    }
}

/// A threshold watcher over one gauge (e.g. `core.sim.mass_drift`).
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantMonitor {
    /// Gauge to watch.
    pub metric: String,
    /// Alert when `|gauge| > max_abs` (or when the gauge is non-finite).
    pub max_abs: f64,
    /// Human explanation attached to the alert.
    pub description: String,
}

/// A tripped invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// The watched gauge.
    pub metric: String,
    /// Its offending value.
    pub value: f64,
    /// The `max_abs` threshold it crossed.
    pub threshold: f64,
    /// The monitor's description.
    pub message: String,
}

/// The conservation monitors every production run should carry: RK-4 on
/// the TRiSK C-grid conserves mass to rounding, so any visible drift is a
/// halo/partition bug, not physics.
pub fn default_invariants() -> Vec<InvariantMonitor> {
    vec![
        InvariantMonitor {
            metric: "core.sim.mass_drift".to_string(),
            max_abs: 1e-9,
            description: "relative mass drift must stay at rounding level".to_string(),
        },
        InvariantMonitor {
            metric: "core.sim.h_err_l2".to_string(),
            max_abs: 1e6,
            description: "height field must stay finite and bounded".to_string(),
        },
        InvariantMonitor {
            metric: "core.sim.max_courant".to_string(),
            max_abs: 1.0,
            description: "CFL: the gravity-wave Courant number must stay below 1".to_string(),
        },
        InvariantMonitor {
            metric: "core.sim.tracer_mass_drift".to_string(),
            max_abs: 1e-9,
            description: "relative tracer-mass drift must stay at rounding level".to_string(),
        },
    ]
}

/// Evaluate `monitors` against the recorder's gauges. Every violation is
/// returned *and* recorded as a structured `alert` event on `rec` (so it
/// lands in the trace/metrics artifacts). A missing gauge is not a
/// violation — a serial run has no halo bytes to watch.
///
/// If a flight-recorder dump path is armed
/// ([`Recorder::set_flight_dump`]), the first alert on each metric also
/// dumps the flight ring there (dump-on-anomaly), recorded as a
/// `flight.dump` event; repeated checks of a still-tripped invariant do
/// not dump again.
pub fn check_invariants(rec: &Recorder, monitors: &[InvariantMonitor]) -> Vec<Alert> {
    let snap = rec.snapshot();
    let mut alerts = Vec::new();
    for m in monitors {
        let Some(value) = snap.gauge(&m.metric) else {
            continue;
        };
        if value.is_finite() && value.abs() <= m.max_abs {
            continue;
        }
        rec.event(
            "alert",
            &[
                ("metric", m.metric.clone()),
                ("value", format!("{value:e}")),
                ("threshold", format!("{:e}", m.max_abs)),
                ("message", m.description.clone()),
            ],
        );
        if let Some(path) = rec.flight_dump_on_alert(&m.metric) {
            rec.event(
                "flight.dump",
                &[
                    ("metric", m.metric.clone()),
                    ("path", path.display().to_string()),
                ],
            );
        }
        alerts.push(Alert {
            metric: m.metric.clone(),
            value,
            threshold: m.max_abs,
            message: m.description.clone(),
        });
    }
    alerts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(track: &str, name: &str, start: f64, dur: f64) -> SpanRecord {
        SpanRecord {
            name: name.to_string(),
            track: track.to_string(),
            start_s: start,
            dur_s: dur,
            depth: 0,
        }
    }

    fn ev(name: &str, ts: f64, from: usize, to: usize, tag: u64) -> EventRecord {
        EventRecord {
            name: name.to_string(),
            ts_s: ts,
            args: vec![
                ("from".to_string(), from.to_string()),
                ("to".to_string(), to.to_string()),
                ("tag".to_string(), tag.to_string()),
                ("bytes".to_string(), "64".to_string()),
            ],
        }
    }

    #[test]
    fn rank_track_roundtrip() {
        assert_eq!(parse_rank_track(&rank_track(7)), Some(7));
        assert_eq!(parse_rank_track("rank12"), Some(12));
        assert_eq!(parse_rank_track("cpu-pool"), None);
        assert_eq!(parse_rank_track("rank"), None);
        assert_eq!(parse_rank_track("rankx"), None);
    }

    #[test]
    fn empty_trace_is_benign() {
        let t = Trace::from_records(&[], &[]);
        assert_eq!(t.active_ranks(), 0);
        assert!(t.window().is_none());
        assert!(t.per_step_makespans().is_empty());
        assert!(t.blame().ranks.is_empty());
        let cp = t.critical_path();
        assert_eq!(cp.path_s(), 0.0);
        assert!(cp.segments.is_empty());
        assert!(!t.blame().render().is_empty());
        assert!(!cp.render().is_empty());
    }

    #[test]
    fn blame_fractions_partition_the_step() {
        // One rank, one 10 s step: 2 s wait, 1 s copy, 3 s barrier,
        // 4 s residual compute. A stray wait outside the window must be
        // clipped away.
        let spans = vec![
            span("rank0", STEP_SPAN, 0.0, 10.0),
            span("rank0", WAIT_SPAN, 1.0, 2.0),
            span("rank0", COPY_SPAN, 4.0, 1.0),
            span("rank0", BARRIER_SPAN, 6.0, 3.0),
            span("rank0", WAIT_SPAN, 20.0, 5.0),
        ];
        let blame = Trace::from_records(&spans, &[]).blame();
        assert_eq!(blame.ranks.len(), 1);
        let r = &blame.ranks[0];
        assert!((r.total_s - 10.0).abs() < 1e-12);
        assert!((r.wait_s - 2.0).abs() < 1e-12);
        assert!((r.copy_s - 1.0).abs() < 1e-12);
        assert!((r.barrier_s - 3.0).abs() < 1e-12);
        assert!((r.compute_s - 4.0).abs() < 1e-12);
        let total_frac = r.compute_frac() + r.wait_frac() + r.copy_frac() + r.barrier_frac();
        assert!((total_frac - 1.0).abs() < 1e-9);
    }

    #[test]
    fn golden_three_rank_critical_path() {
        // Hand-built 3-rank trace, one step each on [0, 10]:
        //   rank2 computes until 4, sends to rank1 at t=4;
        //   rank1 blocks 2..5 waiting on it (recv matched at 5), then
        //     computes until 8 and sends to rank0 at t=8;
        //   rank0 blocks 3..9 on rank1's message, computes 9..10.
        // Expected path (backward from rank0 end at 10): compute 9..10 on
        // rank0, wait 8..9 (jump to rank1 at 8), compute 5..8 on rank1,
        // wait 4..5 (jump to rank2 at 4), compute 0..4 on rank2.
        let spans = vec![
            span("rank0", STEP_SPAN, 0.0, 10.0),
            span("rank1", STEP_SPAN, 0.0, 8.5),
            span("rank2", STEP_SPAN, 0.0, 4.5),
            span("rank0", WAIT_SPAN, 3.0, 6.0),
            span("rank1", WAIT_SPAN, 2.0, 3.0),
        ];
        let events = vec![
            ev(SEND_EVENT, 4.0, 2, 1, 7),
            ev(RECV_EVENT, 5.0, 2, 1, 7),
            ev(SEND_EVENT, 8.0, 1, 0, 9),
            ev(RECV_EVENT, 9.0, 1, 0, 9),
        ];
        let t = Trace::from_records(&spans, &events);
        let cp = t.critical_path();
        assert!((cp.makespan_s - 10.0).abs() < 1e-12);
        assert!((cp.path_s() - 10.0).abs() < 1e-12);
        assert_eq!(cp.ranks_visited(), 3);
        let kinds: Vec<(usize, SegmentKind)> =
            cp.segments.iter().map(|s| (s.rank, s.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                (2, SegmentKind::Compute),
                (1, SegmentKind::Wait),
                (1, SegmentKind::Compute),
                (0, SegmentKind::Wait),
                (0, SegmentKind::Compute),
            ]
        );
        // Segment boundaries are the hand-computed instants.
        let bounds: Vec<(f64, f64)> = cp.segments.iter().map(|s| (s.start_s, s.end_s)).collect();
        assert_eq!(
            bounds,
            vec![(0.0, 4.0), (4.0, 5.0), (5.0, 8.0), (8.0, 9.0), (9.0, 10.0)]
        );
        assert!((cp.compute_s - 8.0).abs() < 1e-12);
        assert!((cp.wait_s - 2.0).abs() < 1e-12);
        // Segments tile [start, end].
        for w in cp.segments.windows(2) {
            assert!((w[0].end_s - w[1].start_s).abs() < 1e-12);
        }
    }

    #[test]
    fn unmatched_wait_stays_on_rank() {
        // A wait with no recorded recv/send events cannot jump; it is
        // attributed on the same rank and the walk continues backward.
        let spans = vec![
            span("rank0", STEP_SPAN, 0.0, 6.0),
            span("rank0", WAIT_SPAN, 2.0, 2.0),
        ];
        let cp = Trace::from_records(&spans, &[]).critical_path();
        assert!((cp.path_s() - 6.0).abs() < 1e-12);
        assert!((cp.wait_s - 2.0).abs() < 1e-12);
        assert!((cp.compute_s - 4.0).abs() < 1e-12);
        assert_eq!(cp.ranks_visited(), 1);
    }

    #[test]
    fn per_step_makespans_use_kth_step() {
        let spans = vec![
            span("rank0", STEP_SPAN, 0.0, 1.0),
            span("rank0", STEP_SPAN, 1.0, 2.0),
            span("rank1", STEP_SPAN, 0.5, 1.0),
            span("rank1", STEP_SPAN, 1.5, 1.0),
        ];
        let ms = Trace::from_records(&spans, &[]).per_step_makespans();
        assert_eq!(ms.len(), 2);
        assert!((ms[0] - 1.5).abs() < 1e-12); // [0, 1.5]
        assert!((ms[1] - 2.0).abs() < 1e-12); // [1, 3]
    }

    #[test]
    fn invariant_monitor_trips_and_records_alert() {
        let rec = Recorder::new();
        rec.set_gauge("core.sim.mass_drift", 1e-15);
        assert!(check_invariants(&rec, &default_invariants()).is_empty());
        rec.set_gauge("core.sim.mass_drift", 3e-6);
        let alerts = check_invariants(&rec, &default_invariants());
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].metric, "core.sim.mass_drift");
        assert!((alerts[0].value - 3e-6).abs() < 1e-18);
        let evs = rec.events();
        assert!(evs.iter().any(|e| e.name == "alert"));
        // NaN also trips.
        rec.set_gauge("core.sim.mass_drift", f64::NAN);
        assert_eq!(check_invariants(&rec, &default_invariants()).len(), 1);
    }

    #[test]
    fn record_blame_publishes_gauges() {
        let spans = vec![
            span("rank0", STEP_SPAN, 0.0, 2.0),
            span("rank1", STEP_SPAN, 0.0, 1.0),
        ];
        let t = Trace::from_records(&spans, &[]);
        let rec = Recorder::new();
        record_blame(&rec, &t.blame(), Some(&t.critical_path()));
        let snap = rec.snapshot();
        assert!((snap.gauge("analysis.blame.imbalance").unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(snap.gauge("analysis.blame.rank0.compute_frac"), Some(1.0));
        assert!(snap.gauge("analysis.cp.path_s").is_some());
        // No-op recorder: no work, no panic.
        record_blame(&Recorder::noop(), &t.blame(), None);
    }

    #[test]
    fn dump_on_alert_fires_exactly_once_per_metric() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("flight_alert_{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let rec = Recorder::new();
        rec.set_flight_dump(&path);
        rec.set_gauge("core.sim.mass_drift", 1e-3);
        let monitors = default_invariants();
        assert_eq!(check_invariants(&rec, &monitors).len(), 1);
        // Still tripped on a second sweep: alert again, but no second dump.
        assert_eq!(check_invariants(&rec, &monitors).len(), 1);
        let snap = rec.snapshot();
        assert_eq!(snap.counter(crate::names::FLIGHT_DUMPS), Some(1));
        let trace = std::fs::read_to_string(&path).unwrap();
        crate::export::validate_json(&trace).expect("dump must be a valid Chrome trace");
        assert!(trace.contains("\"traceEvents\""));
        // A *different* tripped metric dumps once more.
        rec.set_gauge("core.sim.max_courant", 5.0);
        assert_eq!(check_invariants(&rec, &monitors).len(), 2);
        assert_eq!(rec.snapshot().counter(crate::names::FLIGHT_DUMPS), Some(2));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unarmed_recorder_alerts_without_dumping() {
        let rec = Recorder::new();
        rec.set_gauge("core.sim.mass_drift", 1.0);
        assert_eq!(check_invariants(&rec, &default_invariants()).len(), 1);
        assert_eq!(rec.snapshot().counter(crate::names::FLIGHT_DUMPS), None);
        assert!(!rec.events().iter().any(|e| e.name == "flight.dump"));
    }
}
