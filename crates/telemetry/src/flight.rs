//! Flight recorder: a bounded ring of the most recent telemetry events.
//!
//! Post-mortem traces answer "what happened over the whole run"; the
//! flight recorder answers "what happened *just now*" — the last few
//! thousand spans, counter increments, gauge writes and instants, kept in
//! a bounded ring so memory stays bounded no matter how long the process
//! lives. The ring grows on demand up to its capacity, so a recorder that
//! records little (a short server job) holds little. It is **always on**
//! for a live [`crate::Recorder`] (a no-op recorder still costs one
//! branch per hook): every span, counter, gauge, histogram and instant
//! write also pushes one [`FlightEvent`] into the ring, under the same
//! mutex acquisition the main buffers already take, so the marginal cost
//! is one bounded vector write — the `crates/bench` overhead guard holds
//! the whole live path under 5 % of a step. The one exception is pure timers
//! ([`crate::Recorder::time`]): at one per kernel per RK stage they
//! would wash everything else out of the ring within a few dozen steps,
//! so their samples feed histograms and windows but not the ring.
//!
//! Two ways out of the ring:
//!
//! * **on demand** — [`crate::Recorder::flight_events`] /
//!   [`crate::Recorder::flight_dump_to`] snapshot the ring (oldest event
//!   first) and [`to_chrome_trace`] renders it as a valid Chrome trace;
//! * **dump-on-anomaly** — after [`crate::Recorder::set_flight_dump`]
//!   arms a dump path, `analysis::check_invariants` writes the ring to
//!   that path the first time each monitored metric trips (exactly once
//!   per alerted metric, so a repeatedly-polled invariant cannot spam the
//!   disk). Each dump increments [`crate::names::FLIGHT_DUMPS`].

use crate::export::ChromeTrace;
use crate::{EventRecord, SpanRecord};
use std::sync::Arc;

/// Default ring capacity of a [`crate::Recorder::new`] flight recorder.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// One entry in the flight-recorder ring.
///
/// Metric names are `Arc<str>` shared with the recorder's interned
/// per-metric slots, so a ring push never allocates — the overhead guard
/// depends on that.
#[derive(Debug, Clone)]
pub enum FlightEvent {
    /// A completed span (also in the unbounded span buffer).
    Span(SpanRecord),
    /// A counter increment.
    Counter {
        /// Counter name.
        name: Arc<str>,
        /// Increment added (not the running total).
        delta: u64,
        /// Seconds since the recorder epoch.
        ts_s: f64,
    },
    /// A gauge write.
    Gauge {
        /// Gauge name.
        name: Arc<str>,
        /// Value written.
        value: f64,
        /// Seconds since the recorder epoch.
        ts_s: f64,
    },
    /// A histogram sample from [`crate::Recorder::record`] (pure-timer
    /// samples stay out of the ring — see the module docs).
    Sample {
        /// Histogram name.
        name: Arc<str>,
        /// Sample value.
        value: f64,
        /// Seconds since the recorder epoch.
        ts_s: f64,
    },
    /// An instantaneous event with arguments.
    Instant(EventRecord),
}

impl FlightEvent {
    /// Timestamp (span start for spans), seconds since the recorder epoch.
    pub fn ts_s(&self) -> f64 {
        match self {
            FlightEvent::Span(s) => s.start_s,
            FlightEvent::Counter { ts_s, .. }
            | FlightEvent::Gauge { ts_s, .. }
            | FlightEvent::Sample { ts_s, .. } => *ts_s,
            FlightEvent::Instant(e) => e.ts_s,
        }
    }
}

/// Bounded overwrite-oldest ring. Lives inside the recorder's buffer
/// mutex, so pushes ride the lock the main buffers already hold.
#[derive(Debug)]
pub(crate) struct FlightRing {
    cap: usize,
    events: Vec<FlightEvent>,
    /// Index of the oldest event once the ring is full (0 while
    /// filling).
    head: usize,
    /// Events ever pushed (so `total - len` = events overwritten).
    total: u64,
}

impl FlightRing {
    pub(crate) fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        FlightRing {
            cap,
            events: Vec::new(),
            head: 0,
            total: 0,
        }
    }

    pub(crate) fn push(&mut self, ev: FlightEvent) {
        if self.events.len() < self.cap {
            // Grow by doubling, but never past the cap.
            if self.events.len() == self.events.capacity() {
                let grow = self.events.len().max(4).min(self.cap - self.events.len());
                self.events.reserve_exact(grow);
            }
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
        }
        self.total += 1;
    }

    pub(crate) fn capacity(&self) -> usize {
        self.cap
    }

    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// Ring contents, oldest first.
    pub(crate) fn chronological(&self) -> Vec<FlightEvent> {
        if self.events.len() < self.cap || self.head == 0 {
            return self.events.clone();
        }
        let mut out = Vec::with_capacity(self.cap);
        out.extend_from_slice(&self.events[self.head..]);
        out.extend_from_slice(&self.events[..self.head]);
        out
    }
}

/// Render flight events as a Chrome trace-event document: spans become
/// complete slices, counters/gauges/samples become `ph:"C"` counter
/// tracks, instants become `ph:"i"` events — all in one `flight-recorder`
/// track group (pid 3, clear of the modeled/measured groups).
pub fn to_chrome_trace(events: &[FlightEvent]) -> String {
    const PID: u32 = 3;
    let mut t = ChromeTrace::new();
    t.process_name(PID, "flight-recorder");
    for e in events {
        match e {
            FlightEvent::Span(s) => {
                t.complete(
                    PID,
                    &s.track,
                    &s.name,
                    s.start_s * 1e6,
                    (s.dur_s * 1e6).max(0.001),
                );
            }
            FlightEvent::Counter { name, delta, ts_s } => {
                t.counter(PID, name, ts_s * 1e6, *delta as f64);
            }
            FlightEvent::Gauge { name, value, ts_s }
            | FlightEvent::Sample { name, value, ts_s } => {
                t.counter(PID, name, ts_s * 1e6, *value);
            }
            FlightEvent::Instant(ev) => {
                let args: Vec<(&str, String)> = ev
                    .args
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.clone()))
                    .collect();
                t.instant(PID, "events", &ev.name, ev.ts_s * 1e6, &args);
            }
        }
    }
    t.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::validate_json;

    fn counter(name: &str, n: u64) -> FlightEvent {
        FlightEvent::Counter {
            name: name.into(),
            delta: n,
            ts_s: n as f64,
        }
    }

    #[test]
    fn ring_keeps_the_newest_in_chronological_order() {
        let mut ring = FlightRing::new(4);
        for i in 0..10 {
            ring.push(counter("c", i));
        }
        assert_eq!(ring.total(), 10);
        let out = ring.chronological();
        assert_eq!(out.len(), 4);
        let seen: Vec<f64> = out.iter().map(|e| e.ts_s()).collect();
        assert_eq!(seen, vec![6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn partial_ring_returns_everything() {
        let mut ring = FlightRing::new(8);
        for i in 0..3 {
            ring.push(counter("c", i));
        }
        assert_eq!(ring.chronological().len(), 3);
        assert_eq!(ring.capacity(), 8);
    }

    #[test]
    fn ring_grows_on_demand_and_never_past_its_cap() {
        let mut ring = FlightRing::new(6);
        assert_eq!(ring.events.capacity(), 0);
        for i in 0..20 {
            ring.push(counter("c", i));
            assert!(ring.events.capacity() <= 6);
        }
        assert_eq!(ring.chronological().len(), 6);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut ring = FlightRing::new(0);
        ring.push(counter("c", 1));
        ring.push(counter("c", 2));
        assert_eq!(ring.chronological().len(), 1);
        assert_eq!(ring.chronological()[0].ts_s(), 2.0);
    }

    #[test]
    fn chrome_export_is_valid_json_with_all_shapes() {
        let events = vec![
            FlightEvent::Span(SpanRecord {
                name: "step".to_string(),
                track: "rank0".to_string(),
                start_s: 0.0,
                dur_s: 0.5,
                depth: 0,
            }),
            counter("msg.halo.bytes", 64),
            FlightEvent::Gauge {
                name: "core.sim.mass_drift".into(),
                value: 1e-14,
                ts_s: 0.4,
            },
            FlightEvent::Instant(EventRecord {
                name: "alert".to_string(),
                ts_s: 0.6,
                args: vec![("metric".to_string(), "m\"x".to_string())],
            }),
        ];
        let json = to_chrome_trace(&events);
        validate_json(&json).unwrap_or_else(|p| panic!("invalid JSON at byte {p}: {json}"));
        assert!(json.contains("\"flight-recorder\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
    }
}
