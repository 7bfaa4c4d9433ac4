//! Integration tests for the live observability plane (DESIGN.md §13):
//! flight-ring wraparound, dump-on-anomaly firing exactly once per
//! alerted metric, and rolling windows queried mid-run — the
//! cross-module behaviors the in-crate unit tests can't exercise end to
//! end.

use mpas_telemetry::analysis::{check_invariants, default_invariants};
use mpas_telemetry::export::validate_json;
use mpas_telemetry::{FlightEvent, Recorder};

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mpas_live_plane_{tag}_{}.json", std::process::id()))
}

#[test]
fn flight_ring_wraps_and_keeps_the_newest_events() {
    let rec = Recorder::with_flight_capacity(16);
    for i in 0..100u64 {
        rec.add("wrap.counter", i);
    }
    assert_eq!(rec.flight_total(), 100);
    let events = rec.flight_events();
    assert_eq!(events.len(), 16);
    // Oldest-first, and exactly the last 16 pushes survive.
    let deltas: Vec<u64> = events
        .iter()
        .map(|e| match e {
            FlightEvent::Counter { delta, .. } => *delta,
            other => panic!("unexpected event {other:?}"),
        })
        .collect();
    assert_eq!(deltas, (84..100).collect::<Vec<u64>>());
    // Timestamps never decrease in a chronological dump.
    for pair in events.windows(2) {
        assert!(pair[0].ts_s() <= pair[1].ts_s());
    }
}

#[test]
fn dump_on_alert_fires_exactly_once_per_metric() {
    let rec = Recorder::new();
    let path = temp_path("dump_once");
    let _ = std::fs::remove_file(&path);
    rec.set_flight_dump(&path);

    // Trip the mass-drift invariant and poll it repeatedly.
    rec.set_gauge("core.sim.mass_drift", 1e-3);
    let monitors = default_invariants();
    for round in 0..3 {
        let alerts = check_invariants(&rec, &monitors);
        assert_eq!(alerts.len(), 1, "round {round}");
        assert_eq!(alerts[0].metric, "core.sim.mass_drift");
    }
    // One dump despite three tripped checks, recorded on the counter and
    // as a flight.dump event.
    let snap = rec.snapshot();
    assert_eq!(snap.counter(mpas_telemetry::names::FLIGHT_DUMPS), Some(1));
    let dumps: Vec<_> = rec
        .events()
        .into_iter()
        .filter(|e| e.name == "flight.dump")
        .collect();
    assert_eq!(dumps.len(), 1);

    // The dump itself is a valid Chrome trace containing the offending
    // gauge's ring entries.
    let trace = std::fs::read_to_string(&path).expect("dump written");
    validate_json(&trace).unwrap_or_else(|at| panic!("invalid dump JSON at byte {at}"));
    assert!(trace.contains("\"traceEvents\""));
    assert!(trace.contains("core.sim.mass_drift"));

    // A *different* metric tripping still dumps (once), to the same path.
    rec.set_gauge("core.sim.max_courant", 40.0);
    check_invariants(&rec, &monitors);
    check_invariants(&rec, &monitors);
    assert_eq!(
        rec.snapshot().counter(mpas_telemetry::names::FLIGHT_DUMPS),
        Some(2)
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn unarmed_recorder_never_dumps_on_alert() {
    let rec = Recorder::new();
    rec.set_gauge("core.sim.mass_drift", 1.0);
    let alerts = check_invariants(&rec, &default_invariants());
    assert_eq!(alerts.len(), 1);
    assert_eq!(
        rec.snapshot().counter(mpas_telemetry::names::FLIGHT_DUMPS),
        None
    );
    assert!(rec.events().iter().all(|e| e.name != "flight.dump"));
}

#[test]
fn windowed_summaries_are_queryable_mid_run() {
    // Rolling windows answer "what happened recently" while writes keep
    // landing — the mid-run query the server's live endpoints rely on.
    let rec = Recorder::new();
    rec.rolling_window("core.sim.step_seconds", 30.0);
    for i in 1..=20 {
        rec.record("core.sim.step_seconds", i as f64 * 1e-3);
        if i % 5 == 0 {
            let w = rec.windowed("core.sim.step_seconds").expect("registered");
            assert_eq!(w.count, i);
            assert!(w.p95 <= i as f64 * 1e-3 + 1e-12);
        }
    }
    let snap = rec.snapshot();
    assert_eq!(
        snap.window("core.sim.step_seconds").map(|w| w.count),
        Some(20)
    );
}
