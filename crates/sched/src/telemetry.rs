//! Telemetry hooks for scheduling decisions.
//!
//! [`record_schedule`] dumps one [`Schedule`] into a
//! [`mpas_telemetry::Recorder`]: a `sched.decision` event per DAG node
//! (task, placement, predicted start/finish), placement-mix counters, and
//! makespan/imbalance gauges. The events carry enough context to replay the
//! modeled timeline next to measured spans in a combined trace.

use crate::schedule::{Placement, Schedule};
use mpas_telemetry::Recorder;

/// Human-readable placement tag used in events and counter names.
pub fn placement_tag(p: Placement) -> String {
    match p {
        Placement::Cpu => "cpu".to_string(),
        Placement::Acc => "acc".to_string(),
        Placement::Split(f) => format!("split({f:.2})"),
    }
}

/// Record every decision of `sched` into `rec` under the `sched.*`
/// namespace. No-op (beyond one branch per call) when `rec` is disabled.
pub fn record_schedule(rec: &Recorder, policy: &str, sched: &Schedule) {
    if !rec.is_enabled() {
        return;
    }
    for node in &sched.nodes {
        rec.event(
            "sched.decision",
            &[
                ("policy", policy.to_string()),
                ("task", node.name.to_string()),
                ("placement", placement_tag(node.placement)),
                ("predicted_start_s", format!("{:.3e}", node.start)),
                ("predicted_finish_s", format!("{:.3e}", node.finish)),
            ],
        );
        let bucket = match node.placement {
            Placement::Cpu => "sched.placements.cpu",
            Placement::Acc => "sched.placements.acc",
            Placement::Split(_) => "sched.placements.split",
        };
        rec.add(bucket, 1);
    }
    rec.set_gauge("sched.makespan_seconds", sched.makespan);
    rec.set_gauge("sched.imbalance", sched.imbalance());
    rec.set_gauge("sched.cpu_busy_seconds", sched.cpu_busy);
    rec.set_gauge("sched.acc_busy_seconds", sched.acc_busy);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::NodeSchedule;

    fn toy_schedule() -> Schedule {
        Schedule {
            makespan: 2.0,
            nodes: vec![
                NodeSchedule {
                    name: "A1",
                    placement: Placement::Cpu,
                    start: 0.0,
                    finish: 1.0,
                },
                NodeSchedule {
                    name: "H2",
                    placement: Placement::Split(0.75),
                    start: 1.0,
                    finish: 2.0,
                },
            ],
            cpu_busy: 2.0,
            acc_busy: 1.0,
        }
    }

    #[test]
    fn records_one_event_per_node_plus_gauges() {
        let rec = Recorder::new();
        record_schedule(&rec, "pattern-driven", &toy_schedule());
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "sched.decision");
        assert!(events[0].args.iter().any(|(k, v)| k == "task" && v == "A1"));
        assert!(events[1]
            .args
            .iter()
            .any(|(k, v)| k == "placement" && v == "split(0.75)"));
        let snap = rec.snapshot();
        assert_eq!(snap.counter("sched.placements.cpu"), Some(1));
        assert_eq!(snap.counter("sched.placements.split"), Some(1));
        assert_eq!(snap.gauge("sched.makespan_seconds"), Some(2.0));
        assert_eq!(snap.gauge("sched.imbalance"), Some(0.5));
    }

    #[test]
    fn noop_recorder_records_nothing() {
        let rec = Recorder::noop();
        record_schedule(&rec, "pattern-driven", &toy_schedule());
        assert!(rec.events().is_empty());
        assert!(rec.snapshot().counters.is_empty());
    }
}
