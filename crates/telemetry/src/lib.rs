#![warn(missing_docs)]
//! Runtime telemetry core for the whole reproduction.
//!
//! The paper's argument rests on observability artifacts — the §II.C kernel
//! cost profile, the Fig. 4 timeline pictures, the Fig. 6–9 makespan
//! comparisons. This crate is the measurement layer those artifacts are
//! produced through at runtime:
//!
//! * [`Recorder`] — a cheaply-cloneable handle onto a shared recording
//!   buffer: hierarchical [spans](Recorder::span) (step → RK substep →
//!   kernel → pattern chunk, nesting tracked per thread), instantaneous
//!   [events](Recorder::event) with key/value arguments, and a typed
//!   metrics registry ([counters](Recorder::add),
//!   [gauges](Recorder::set_gauge), monotonic-clock
//!   [histograms](Recorder::record) summarized as p50/p95/max).
//! * [`Recorder::noop`] — the disabled recorder: every call is a single
//!   branch on an empty `Option`, no clock reads, no allocation, no locks,
//!   so instrumented code paths cost nothing when telemetry is off (the
//!   overhead-guard test in `crates/bench` asserts this).
//! * [`export`] — Chrome-trace (Perfetto) JSON with multiple track groups
//!   (so one `trace.json` carries both a *modeled* schedule and the
//!   *measured* execution), plus JSON and CSV metrics snapshots, and the
//!   shared JSON string escaper every exporter uses.
//! * the **live observability plane** (DESIGN.md §13): an always-on
//!   bounded [flight recorder](flight) dumped on demand or on an
//!   invariant alert, [rolling-window](window) aggregation registered
//!   per metric with [`Recorder::rolling_window`]. A server job records
//!   into a recorder of its own, so its telemetry lives exactly as long
//!   as the job's registry entry.
//!
//! Metric names follow the `crate.subsystem.name` scheme documented in
//! DESIGN.md §8 (e.g. `swe.kernel.B1.seconds`, `msg.halo.bytes_sent`,
//! `core.sim.step_seconds`).
//!
//! The crate is dependency-free and thread-safe: a [`Recorder`] can be
//! cloned into pool threads and rank threads; all clones append to the same
//! buffers.

pub mod analysis;
pub mod diagnose;
pub mod digest;
pub mod export;
pub mod flight;
pub mod gate;
pub mod names;
pub mod store;
pub mod window;

pub use export::{json_escape, json_num, ChromeTrace};
pub use flight::{FlightEvent, DEFAULT_FLIGHT_CAPACITY};
pub use window::{RollingWindow, WindowSummary};

use flight::FlightRing;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One completed span: a named interval on a track, with its nesting depth
/// at creation time (per thread).
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span name (e.g. a Table-I pattern label or `"rk-substep"`).
    pub name: String,
    /// Track the span ran on (a trace-viewer row, e.g. `"cpu-pool"`).
    pub track: String,
    /// Start, seconds since the recorder's epoch.
    pub start_s: f64,
    /// Duration in seconds.
    pub dur_s: f64,
    /// Nesting depth on the creating thread (0 = top level).
    pub depth: usize,
}

/// One instantaneous event with key/value arguments (e.g. a scheduler
/// placement decision).
#[derive(Debug, Clone)]
pub struct EventRecord {
    /// Event name (e.g. `"sched.decision"`).
    pub name: String,
    /// Timestamp, seconds since the recorder's epoch.
    pub ts_s: f64,
    /// Arbitrary key/value payload.
    pub args: Vec<(String, String)>,
}

/// Summary statistics of one sample set, by the one rule of
/// [`HistogramSummary::from_samples`]. A field with no value is NaN,
/// written `null`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded samples (the gate sizes its noise bands by this).
    pub count: usize,
    /// Sum of all samples.
    pub sum: f64,
    /// Arithmetic mean (`sum / count`).
    pub mean: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
    /// Largest sample.
    pub max: f64,
    /// Smallest sample.
    pub min: f64,
}

/// A point-in-time copy of every metric, ordered by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Rolling-window summaries (only metrics with a registered window).
    pub windows: BTreeMap<String, WindowSummary>,
}

impl MetricsSnapshot {
    /// Value of a counter, if it was ever incremented.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Last value written to a gauge, if any.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Summary of a histogram, if it has any samples.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.get(name)
    }

    /// Summary of a rolling window, if one is registered for `name`.
    pub fn window(&self, name: &str) -> Option<&WindowSummary> {
        self.windows.get(name)
    }
}

/// Word-at-a-time rotate-xor-multiply hash (the rustc-hash recipe).
/// Metric names are short internal keys, so SipHash's DoS resistance
/// buys nothing here, and a byte-at-a-time hash (e.g. FNV) is
/// latency-bound at ~4 cycles per byte — a measurable slice of the
/// per-write budget the overhead guard in `crates/bench` enforces.
#[derive(Default)]
struct MetricNameHasher(u64);

impl std::hash::Hasher for MetricNameHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        let mut h = self.0;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let w = u64::from_le_bytes(c.try_into().expect("chunk is 8 bytes"));
            h = (h.rotate_left(5) ^ w).wrapping_mul(K);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut w = 0u64;
            for (i, &b) in rem.iter().enumerate() {
                w |= u64::from(b) << (8 * i);
            }
            h = (h.rotate_left(5) ^ w).wrapping_mul(K);
        }
        self.0 = h;
    }
}

type NameHashBuild = std::hash::BuildHasherDefault<MetricNameHasher>;

/// All state for one metric name behind a single map lookup: the hot path
/// (`add` / `set_gauge` / `record` / timer drops) pays one hash per write
/// — updating the store, feeding a registered rolling window, and pushing
/// a ring event that shares the interned name instead of re-allocating it.
struct MetricSlot {
    /// Interned name, shared with every [`FlightEvent`] this metric emits.
    name: Arc<str>,
    counter: Option<u64>,
    gauge: Option<f64>,
    /// Raw histogram samples (empty = never recorded as a histogram).
    samples: Vec<f64>,
    window: Option<RollingWindow>,
}

struct Buffers {
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
    metrics: HashMap<Arc<str>, MetricSlot, NameHashBuild>,
    flight: FlightRing,
}

impl MetricSlot {
    fn new(name: Arc<str>) -> Self {
        MetricSlot {
            name,
            counter: None,
            gauge: None,
            samples: Vec::new(),
            window: None,
        }
    }
}

impl Buffers {
    fn new(flight_capacity: usize) -> Self {
        Buffers {
            spans: Vec::new(),
            events: Vec::new(),
            metrics: HashMap::default(),
            flight: FlightRing::new(flight_capacity),
        }
    }

    /// Run `f` on the slot for `name` (interned on first use) with the
    /// flight ring alongside, so `f` can push a ring event that shares
    /// the slot's interned name. The hit path pays exactly one hash;
    /// only a miss (first write to a new name) probes twice.
    #[inline]
    fn with_slot(&mut self, name: &str, f: impl FnOnce(&mut MetricSlot, &mut FlightRing)) {
        if let Some(slot) = self.metrics.get_mut(name) {
            f(slot, &mut self.flight);
            return;
        }
        let key: Arc<str> = Arc::from(name);
        self.metrics.insert(key.clone(), MetricSlot::new(key));
        let slot = self.metrics.get_mut(name).expect("slot just interned");
        f(slot, &mut self.flight);
    }
}

/// Dump-on-anomaly state: the armed path plus the set of alerted metrics
/// that already dumped (so each alert dumps exactly once).
#[derive(Default)]
struct DumpState {
    path: Option<PathBuf>,
    dumped: HashSet<String>,
}

struct Inner {
    epoch: Instant,
    buf: Mutex<Buffers>,
    dump: Mutex<DumpState>,
}

thread_local! {
    /// Per-thread span nesting depth (spans are strictly nested per thread
    /// by guard drop order).
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// A handle onto a shared telemetry buffer.
///
/// Cloning is an `Arc` clone; all clones record into the same buffers. The
/// [no-op recorder](Recorder::noop) (also the `Default`) carries no buffer
/// at all, so every recording call reduces to one branch.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Recorder(noop)"),
            Some(_) => write!(f, "Recorder(recording)"),
        }
    }
}

impl Recorder {
    /// A live recorder with its epoch at the call instant and the default
    /// flight-recorder capacity ([`DEFAULT_FLIGHT_CAPACITY`] events).
    pub fn new() -> Self {
        Recorder::with_flight_capacity(DEFAULT_FLIGHT_CAPACITY)
    }

    /// A live recorder whose flight ring keeps the most recent
    /// `flight_capacity` events (clamped to at least 1).
    pub fn with_flight_capacity(flight_capacity: usize) -> Self {
        Recorder {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                buf: Mutex::new(Buffers::new(flight_capacity)),
                dump: Mutex::new(DumpState::default()),
            })),
        }
    }

    /// The disabled recorder: records nothing, costs one branch per call.
    pub fn noop() -> Self {
        Recorder { inner: None }
    }

    /// Whether this recorder actually records. Use this to guard any
    /// telemetry work that allocates (e.g. building a metric name with
    /// `format!`) so the no-op path stays allocation-free.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Seconds elapsed since the recorder's epoch (0.0 on a no-op).
    pub fn now_s(&self) -> f64 {
        match &self.inner {
            Some(i) => i.epoch.elapsed().as_secs_f64(),
            None => 0.0,
        }
    }

    /// Open a span on `track`. The span closes (and is recorded) when the
    /// returned guard drops.
    pub fn span(&self, track: &str, name: &str) -> SpanGuard {
        self.span_inner(track, name, None, true)
    }

    /// Open a span that additionally records its duration into the
    /// histogram `metric` when it closes.
    pub fn span_timed(&self, track: &str, name: &str, metric: &str) -> SpanGuard {
        self.span_inner(track, name, Some(metric), true)
    }

    /// Time a scope into the histogram `metric` without emitting a span.
    pub fn time(&self, metric: &str) -> SpanGuard {
        self.span_inner("", metric, Some(metric), false)
    }

    fn span_inner(&self, track: &str, name: &str, metric: Option<&str>, emit: bool) -> SpanGuard {
        match &self.inner {
            None => SpanGuard::noop(),
            Some(inner) => {
                // Pure timers (`Recorder::time`) never become spans, so
                // they skip the nesting-depth bookkeeping and the
                // track/name strings — they are the hottest guard
                // (one per kernel per stage).
                let depth = if emit {
                    DEPTH.with(|d| {
                        let v = d.get();
                        d.set(v + 1);
                        v
                    })
                } else {
                    0
                };
                SpanGuard {
                    inner: Some(inner.clone()),
                    track: if emit {
                        track.to_string()
                    } else {
                        String::new()
                    },
                    name: if emit {
                        name.to_string()
                    } else {
                        String::new()
                    },
                    metric: metric.map_or(GuardName::None, GuardName::new),
                    emit_span: emit,
                    depth,
                    start: Some(Instant::now()),
                }
            }
        }
    }

    /// Record an instantaneous event with key/value arguments.
    pub fn event(&self, name: &str, args: &[(&str, String)]) {
        if let Some(inner) = &self.inner {
            let ts_s = inner.epoch.elapsed().as_secs_f64();
            let record = EventRecord {
                name: name.to_string(),
                ts_s,
                args: args
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            };
            let mut buf = inner.buf.lock().unwrap();
            buf.events.push(record.clone());
            buf.flight.push(FlightEvent::Instant(record));
        }
    }

    /// Add `delta` to the counter `name`.
    pub fn add(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            let ts_s = inner.epoch.elapsed().as_secs_f64();
            let mut buf = inner.buf.lock().unwrap();
            buf.with_slot(name, |slot, ring| {
                *slot.counter.get_or_insert(0) += delta;
                // A windowed counter tracks its increments, so the
                // summary's rate is the counter's recent rate.
                if let Some(w) = &mut slot.window {
                    w.push(ts_s, delta as f64);
                }
                let name = slot.name.clone();
                ring.push(FlightEvent::Counter { name, delta, ts_s });
            });
        }
    }

    /// Set the gauge `name` to `value` (last write wins).
    pub fn set_gauge(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            let ts_s = inner.epoch.elapsed().as_secs_f64();
            let mut buf = inner.buf.lock().unwrap();
            buf.with_slot(name, |slot, ring| {
                slot.gauge = Some(value);
                if let Some(w) = &mut slot.window {
                    w.push(ts_s, value);
                }
                let name = slot.name.clone();
                ring.push(FlightEvent::Gauge { name, value, ts_s });
            });
        }
    }

    /// Record one sample into the histogram `name`.
    pub fn record(&self, name: &str, sample: f64) {
        if let Some(inner) = &self.inner {
            let ts_s = inner.epoch.elapsed().as_secs_f64();
            let mut buf = inner.buf.lock().unwrap();
            buf.with_slot(name, |slot, ring| {
                slot.samples.push(sample);
                if let Some(w) = &mut slot.window {
                    w.push(ts_s, sample);
                }
                let name = slot.name.clone();
                ring.push(FlightEvent::Sample {
                    name,
                    value: sample,
                    ts_s,
                });
            });
        }
    }

    /// All completed spans, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        match &self.inner {
            Some(inner) => inner.buf.lock().unwrap().spans.clone(),
            None => Vec::new(),
        }
    }

    /// Register a rolling window of `window_s` seconds on the metric
    /// `name`. From then on every matching counter/gauge/histogram write
    /// also feeds the window; re-registering an existing window is a
    /// no-op.
    pub fn rolling_window(&self, name: &str, window_s: f64) {
        if let Some(inner) = &self.inner {
            let mut buf = inner.buf.lock().unwrap();
            buf.with_slot(name, |slot, _ring| {
                if slot.window.is_none() {
                    slot.window = Some(RollingWindow::new(window_s));
                }
            });
        }
    }

    /// Windowed summary of `name` as of now, if a window is registered.
    pub fn windowed(&self, name: &str) -> Option<WindowSummary> {
        let inner = self.inner.as_ref()?;
        let now_s = inner.epoch.elapsed().as_secs_f64();
        let mut buf = inner.buf.lock().unwrap();
        buf.metrics
            .get_mut(name)
            .and_then(|s| s.window.as_mut())
            .map(|w| w.summary(now_s))
    }

    /// The flight-recorder ring contents, oldest first.
    pub fn flight_events(&self) -> Vec<FlightEvent> {
        match &self.inner {
            Some(inner) => inner.buf.lock().unwrap().flight.chronological(),
            None => Vec::new(),
        }
    }

    /// Events ever pushed through the flight ring (`total - len` have
    /// been overwritten).
    pub fn flight_total(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.buf.lock().unwrap().flight.total(),
            None => 0,
        }
    }

    /// The flight ring's current capacity (0 on a no-op recorder).
    pub fn flight_capacity(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.buf.lock().unwrap().flight.capacity(),
            None => 0,
        }
    }

    /// Arm dump-on-anomaly: from now on, the first time each invariant
    /// metric trips in [`analysis::check_invariants`], the flight ring is
    /// written to `path` as a Chrome trace (see
    /// [`Recorder::flight_dump_on_alert`]).
    pub fn set_flight_dump(&self, path: impl Into<PathBuf>) {
        if let Some(inner) = &self.inner {
            inner.dump.lock().unwrap().path = Some(path.into());
        }
    }

    /// Write the current flight-ring contents to `path` as a Chrome
    /// trace, and count the write on [`names::FLIGHT_DUMPS`].
    pub fn flight_dump_to(&self, path: &Path) -> std::io::Result<()> {
        let trace = flight::to_chrome_trace(&self.flight_events());
        std::fs::write(path, trace)?;
        self.add(names::FLIGHT_DUMPS, 1);
        Ok(())
    }

    /// Dump-on-anomaly trigger: if a dump path is armed and `metric` has
    /// not alerted before, dump the flight ring there and return the
    /// path. Each metric dumps exactly once per recorder, so an invariant
    /// that stays tripped across repeated checks cannot spam the disk.
    /// Returns `None` when unarmed, already dumped, or the write failed
    /// (an alert path must never panic the run).
    pub fn flight_dump_on_alert(&self, metric: &str) -> Option<PathBuf> {
        let inner = self.inner.as_ref()?;
        let path = {
            let mut dump = inner.dump.lock().unwrap();
            let path = dump.path.clone()?;
            if !dump.dumped.insert(metric.to_string()) {
                return None;
            }
            path
        };
        self.flight_dump_to(&path).ok().map(|_| path)
    }

    /// All recorded events, in recording order.
    pub fn events(&self) -> Vec<EventRecord> {
        match &self.inner {
            Some(inner) => inner.buf.lock().unwrap().events.clone(),
            None => Vec::new(),
        }
    }

    /// Raw samples of the histogram `name`, in recording order (empty if
    /// the histogram was never written). The regression gate uses this to
    /// fit median + MAD noise bands, which a summary cannot provide.
    pub fn histogram_samples(&self, name: &str) -> Vec<f64> {
        match &self.inner {
            Some(inner) => inner
                .buf
                .lock()
                .unwrap()
                .metrics
                .get(name)
                .map(|s| s.samples.clone())
                .unwrap_or_default(),
            None => Vec::new(),
        }
    }

    /// Snapshot every metric (name-ordered; histograms summarized;
    /// rolling windows summarized as of now).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.snapshot_prefix("")
    }

    /// Snapshot the metrics whose name starts with `prefix` (what
    /// `/metrics?prefix=` serves). Only the matching slots are summarized.
    pub fn snapshot_prefix(&self, prefix: &str) -> MetricsSnapshot {
        let Some(inner) = &self.inner else {
            return MetricsSnapshot::default();
        };
        let now_s = inner.epoch.elapsed().as_secs_f64();
        let mut buf = inner.buf.lock().unwrap();
        let mut snap = MetricsSnapshot::default();
        for slot in buf.metrics.values_mut() {
            if !slot.name.starts_with(prefix) {
                continue;
            }
            if let Some(c) = slot.counter {
                snap.counters.insert(slot.name.to_string(), c);
            }
            if let Some(g) = slot.gauge {
                snap.gauges.insert(slot.name.to_string(), g);
            }
            if !slot.samples.is_empty() {
                snap.histograms.insert(
                    slot.name.to_string(),
                    HistogramSummary::from_samples(&slot.samples),
                );
            }
            if let Some(w) = &mut slot.window {
                snap.windows.insert(slot.name.to_string(), w.summary(now_s));
            }
        }
        snap
    }
}

impl HistogramSummary {
    /// Summarize a sample set: the one rule every percentile in the
    /// workspace comes from. Percentile `q` is the sorted sample at index
    /// `round((n − 1) · q)` (nearest rank; NaN sorts last), and `sum`
    /// folds in arrival order. An empty set has count 0, sum 0 and every
    /// other field NaN.
    pub fn from_samples(samples: &[f64]) -> Self {
        let n = samples.len();
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| {
            a.partial_cmp(b)
                .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
        });
        let pick = |q: f64| match n {
            0 => f64::NAN,
            _ => sorted[((n - 1) as f64 * q).round() as usize],
        };
        let sum = samples.iter().fold(0.0, |a, b| a + b);
        HistogramSummary {
            count: n,
            sum,
            mean: if n == 0 { f64::NAN } else { sum / n as f64 },
            p50: pick(0.50),
            p95: pick(0.95),
            max: pick(1.0),
            min: pick(0.0),
        }
    }
}

/// Longest metric name a [`SpanGuard`] stores without heap-allocating.
const INLINE_NAME_LEN: usize = 46;

/// Metric name carried by a [`SpanGuard`]. Timer guards are the hottest
/// telemetry hook (one per kernel per RK stage), so the common case — a
/// short metric name — is copied into an inline buffer instead of
/// allocating on every guard creation; unusually long names fall back to
/// the heap.
enum GuardName {
    None,
    Inline { len: u8, buf: [u8; INLINE_NAME_LEN] },
    Heap(String),
}

impl GuardName {
    fn new(name: &str) -> GuardName {
        if name.len() <= INLINE_NAME_LEN {
            let mut buf = [0u8; INLINE_NAME_LEN];
            buf[..name.len()].copy_from_slice(name.as_bytes());
            GuardName::Inline {
                len: name.len() as u8,
                buf,
            }
        } else {
            GuardName::Heap(name.to_string())
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            GuardName::None => None,
            GuardName::Inline { len, buf } => {
                Some(std::str::from_utf8(&buf[..*len as usize]).expect("copied whole from a &str"))
            }
            GuardName::Heap(s) => Some(s.as_str()),
        }
    }
}

/// RAII guard for an open span or timer; records on drop.
///
/// Must be dropped on the thread that created it (span nesting depth is
/// tracked per thread).
pub struct SpanGuard {
    inner: Option<Arc<Inner>>,
    track: String,
    name: String,
    metric: GuardName,
    emit_span: bool,
    depth: usize,
    start: Option<Instant>,
}

impl SpanGuard {
    fn noop() -> Self {
        SpanGuard {
            inner: None,
            track: String::new(),
            name: String::new(),
            metric: GuardName::None,
            emit_span: false,
            depth: 0,
            start: None,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let (Some(inner), Some(start)) = (&self.inner, self.start) else {
            return;
        };
        if self.emit_span {
            DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        }
        let dur_s = start.elapsed().as_secs_f64();
        let start_s = start.duration_since(inner.epoch).as_secs_f64();
        let mut buf = inner.buf.lock().unwrap();
        if self.emit_span {
            let record = SpanRecord {
                name: std::mem::take(&mut self.name),
                track: std::mem::take(&mut self.track),
                start_s,
                dur_s,
                depth: self.depth,
            };
            buf.spans.push(record.clone());
            buf.flight.push(FlightEvent::Span(record));
        }
        if let Some(metric) = self.metric.as_str() {
            let end_s = start_s + dur_s;
            // Pure timers stay out of the flight ring: at one per kernel
            // per stage they would wash every other event out of a
            // fixed-capacity ring within a few dozen steps. Their samples
            // still land in the histogram and any registered window, and
            // `span_timed` guards ring as Span events above.
            buf.with_slot(metric, |slot, _ring| {
                slot.samples.push(dur_s);
                if let Some(w) = &mut slot.window {
                    w.push(end_s, dur_s);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_records_nothing_and_reports_disabled() {
        let rec = Recorder::noop();
        assert!(!rec.is_enabled());
        {
            let _s = rec.span("t", "a");
            let _t = rec.time("m");
            rec.add("c", 3);
            rec.set_gauge("g", 1.0);
            rec.record("h", 0.5);
            rec.event("e", &[("k", "v".to_string())]);
        }
        assert!(rec.spans().is_empty());
        assert!(rec.events().is_empty());
        let snap = rec.snapshot();
        assert!(snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty());
    }

    #[test]
    fn spans_nest_by_depth_and_contain_by_time() {
        let rec = Recorder::new();
        {
            let _step = rec.span("main", "step");
            {
                let _sub = rec.span("main", "substep");
                let _k = rec.span("main", "kernel");
            }
        }
        let spans = rec.spans();
        // Completion order: innermost first.
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "kernel");
        assert_eq!(spans[0].depth, 2);
        assert_eq!(spans[1].name, "substep");
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[2].name, "step");
        assert_eq!(spans[2].depth, 0);
        // Parent intervals contain children.
        let eps = 1e-9;
        assert!(spans[2].start_s <= spans[1].start_s + eps);
        assert!(spans[2].start_s + spans[2].dur_s + eps >= spans[1].start_s + spans[1].dur_s);
    }

    #[test]
    fn counters_gauges_histograms_snapshot() {
        let rec = Recorder::new();
        rec.add("msg.halo.bytes_sent", 100);
        rec.add("msg.halo.bytes_sent", 20);
        rec.set_gauge("core.sim.mass_drift", 1e-14);
        rec.set_gauge("core.sim.mass_drift", 2e-14);
        for v in [1.0, 2.0, 3.0, 4.0, 100.0] {
            rec.record("swe.kernel.B1.seconds", v);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.counters["msg.halo.bytes_sent"], 120);
        assert_eq!(snap.gauges["core.sim.mass_drift"], 2e-14);
        let h = snap.histograms["swe.kernel.B1.seconds"];
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 110.0);
        assert_eq!(h.p50, 3.0);
        assert_eq!(h.max, 100.0);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.p95, 100.0);
    }

    #[test]
    fn span_timed_feeds_the_histogram() {
        let rec = Recorder::new();
        {
            let _g = rec.span_timed("cpu", "B1", "swe.kernel.B1.seconds");
        }
        let snap = rec.snapshot();
        assert_eq!(snap.histograms["swe.kernel.B1.seconds"].count, 1);
        assert_eq!(rec.spans().len(), 1);
        // `time` records the histogram but not a span.
        {
            let _g = rec.time("only.metric");
        }
        assert_eq!(rec.spans().len(), 1);
        assert_eq!(rec.snapshot().histograms["only.metric"].count, 1);
    }

    #[test]
    fn clones_share_one_buffer_across_threads() {
        let rec = Recorder::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let r = rec.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        r.add("n", 1);
                    }
                    let _g = r.span("worker", "chunk");
                });
            }
        });
        assert_eq!(rec.snapshot().counters["n"], 400);
        assert_eq!(rec.spans().len(), 4);
    }

    #[test]
    fn events_carry_args() {
        let rec = Recorder::new();
        rec.event(
            "sched.decision",
            &[
                ("task", "B1".to_string()),
                ("placement", "split(0.6)".to_string()),
            ],
        );
        let ev = rec.events();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].name, "sched.decision");
        assert_eq!(ev[0].args[0], ("task".to_string(), "B1".to_string()));
    }

    #[test]
    fn histogram_summary_ranks_by_nearest_rank_and_sums_in_arrival_order() {
        // Even count: index round((4 - 1) * 0.5) = 2, the upper middle.
        let h = HistogramSummary::from_samples(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((h.p50, h.p95, h.min, h.max), (3.0, 4.0, 1.0, 4.0));
        // Summed in arrival order (sorted first, the sum would be 0).
        let h = HistogramSummary::from_samples(&[1e16, 1.0, -1e16, 1.0]);
        assert_eq!((h.sum, h.mean), (1.0, 0.25));
        // Empty: count and sum 0, everything else absent.
        let e = HistogramSummary::from_samples(&[]);
        assert_eq!((e.count, e.sum), (0, 0.0));
        assert!([e.mean, e.min, e.p50, e.p95, e.max]
            .iter()
            .all(|v| v.is_nan()));
        // A NaN sorts last instead of scrambling the order.
        let h = HistogramSummary::from_samples(&[2.0, f64::NAN, 1.0]);
        assert_eq!((h.min, h.p50), (1.0, 2.0));
        assert!(h.max.is_nan());
    }

    #[test]
    fn histogram_summary_of_single_sample() {
        let h = HistogramSummary::from_samples(&[7.0]);
        assert_eq!(h.count, 1);
        assert_eq!(h.p50, 7.0);
        assert_eq!(h.p95, 7.0);
        assert_eq!(h.mean, 7.0);
    }

    #[test]
    fn scoped_views_prefix_names_and_share_buffers() {
        let rec = Recorder::new();
        rec.add("core.sim.steps", 2);
        rec.add("server.jobs.submitted", 5);
        rec.set_gauge("core.sim.mass_drift", 1e-15);
        rec.rolling_window("core.sim.step_seconds", 60.0);
        {
            let _s = rec.span_timed("measured", "core.step", "core.sim.step_seconds");
        }
        rec.record("core.simd", 1.0);
        let snap = rec.snapshot();
        // A prefix snapshot is the full snapshot restricted to the prefix,
        // in every section.
        fn restrict<V: Clone>(m: &BTreeMap<String, V>, prefix: &str) -> BTreeMap<String, V> {
            m.iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect()
        }
        for p in ["core.sim.", "core.sim", "server.", "", "none."] {
            let part = rec.snapshot_prefix(p);
            assert_eq!(part.counters, restrict(&snap.counters, p), "{p}");
            assert_eq!(part.gauges, restrict(&snap.gauges, p), "{p}");
            assert_eq!(part.histograms, restrict(&snap.histograms, p), "{p}");
            assert_eq!(part.windows, restrict(&snap.windows, p), "{p}");
        }
    }

    #[test]
    fn registered_windows_feed_from_all_metric_kinds() {
        let rec = Recorder::new();
        rec.rolling_window("h", 60.0);
        rec.rolling_window("g", 60.0);
        rec.rolling_window("c", 60.0);
        for v in [1.0, 2.0, 3.0] {
            rec.record("h", v);
        }
        rec.set_gauge("g", 42.0);
        rec.add("c", 7);
        let snap = rec.snapshot();
        assert_eq!(snap.windows["h"].count, 3);
        assert_eq!(snap.windows["h"].p50, 2.0);
        assert_eq!(snap.windows["g"].max, 42.0);
        assert_eq!(snap.windows["c"].sum, 7.0);
        assert_eq!(rec.windowed("h").unwrap().count, 3);
        assert!(rec.windowed("unregistered").is_none());
        // Unregistered metrics carry no window.
        rec.record("other", 1.0);
        assert!(!rec.snapshot().windows.contains_key("other"));
    }

    #[test]
    fn flight_ring_is_always_on_and_bounded() {
        let rec = Recorder::with_flight_capacity(8);
        for _ in 0..20 {
            rec.add("c", 1);
        }
        assert_eq!(rec.flight_total(), 20);
        assert_eq!(rec.flight_events().len(), 8);
        assert_eq!(rec.flight_capacity(), 8);
        assert!(Recorder::noop().flight_events().is_empty());
    }
}
