//! Chrome-trace (about://tracing / Perfetto) export of schedules.
//!
//! The paper argues about load balance with timeline pictures; this module
//! turns any [`Schedule`] into a `trace.json` you can load into a trace
//! viewer: one row per device, one slice per pattern execution, with split
//! patterns appearing on both rows. Serialization rides on
//! [`mpas_telemetry::export::ChromeTrace`], so names are JSON-escaped and
//! a modeled schedule can share one file with measured telemetry spans
//! ([`to_combined_trace`]): track group (pid) 1 carries the model, group 2
//! the measurement.

use crate::sched::{Placement, Schedule};
use mpas_telemetry::export::ChromeTrace;
use mpas_telemetry::Recorder;

/// Track-group id of the modeled schedule in emitted traces.
pub const PID_MODELED: u32 = 1;

fn push_schedule(trace: &mut ChromeTrace, schedule: &Schedule) {
    trace.process_name(PID_MODELED, "modeled");
    for ns in &schedule.nodes {
        let start = ns.start * 1e6;
        let dur = ((ns.finish - ns.start) * 1e6).max(0.001);
        match ns.placement {
            Placement::Cpu => trace.complete(PID_MODELED, "cpu", ns.name, start, dur),
            Placement::Acc => trace.complete(PID_MODELED, "mic", ns.name, start, dur),
            Placement::Split(f) => {
                let label_cpu = format!("{} ({:.0}%)", ns.name, (1.0 - f) * 100.0);
                let label_acc = format!("{} ({:.0}%)", ns.name, f * 100.0);
                trace.complete(PID_MODELED, "cpu", &label_cpu, start, dur);
                trace.complete(PID_MODELED, "mic", &label_acc, start, dur);
            }
        }
    }
}

/// Serialize a schedule as Chrome trace-event JSON.
pub fn to_chrome_trace(schedule: &Schedule) -> String {
    let mut trace = ChromeTrace::new();
    push_schedule(&mut trace, schedule);
    trace.finish()
}

/// Serialize a modeled schedule and the measured spans/events of `rec`
/// into one Chrome trace: track group "modeled" (pid 1) holds the
/// scheduler's predicted timeline, track group "measured" (pid 2,
/// [`ChromeTrace::add_measured`], the group a run's own `--trace` holds)
/// the recorded execution, so the two line up side by side in a trace
/// viewer.
pub fn to_combined_trace(schedule: &Schedule, rec: &Recorder) -> String {
    let mut trace = ChromeTrace::new();
    push_schedule(&mut trace, schedule);
    trace.add_measured(rec);
    trace.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{schedule_substep, SchedulerPolicy};
    use crate::Platform;
    use mpas_patterns::dataflow::{DataflowGraph, MeshCounts, RkPhase};
    use mpas_sched::{KernelLevel, PatternDriven, Serial};
    use mpas_telemetry::export::validate_json;

    fn sched(policy: impl SchedulerPolicy) -> Schedule {
        schedule_substep(
            &DataflowGraph::for_substep(RkPhase::Intermediate),
            &MeshCounts::icosahedral(655_362),
            &Platform::paper_node(),
            policy,
        )
    }

    #[test]
    fn trace_is_valid_json_with_all_nodes() {
        let s = sched(PatternDriven);
        let json = to_chrome_trace(&s);
        validate_json(&json).expect("trace must be valid JSON");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        let n_events = json.matches("\"ph\":\"X\"").count();
        let expect: usize = s
            .nodes
            .iter()
            .map(|n| match n.placement {
                Placement::Split(_) => 2,
                _ => 1,
            })
            .sum();
        assert_eq!(n_events, expect);
        for n in &s.nodes {
            assert!(json.contains(n.name), "{} missing", n.name);
        }
    }

    #[test]
    fn serial_trace_uses_only_the_cpu_row() {
        let json = to_chrome_trace(&sched(Serial));
        assert!(json.contains("\"tid\":\"cpu\""));
        assert!(!json.contains("\"tid\":\"mic\""));
    }

    #[test]
    fn events_have_nonnegative_timestamps() {
        let json = to_chrome_trace(&sched(KernelLevel));
        assert!(!json.contains("\"ts\":-"));
    }

    #[test]
    fn hostile_node_names_are_escaped() {
        // A schedule whose node names contain JSON-hostile characters must
        // still serialize to parseable JSON (regression test: names used to
        // be written into the event stream without escaping).
        let s = Schedule {
            makespan: 1.0,
            nodes: vec![crate::sched::NodeSchedule {
                name: "bad\"name\\with{json}\n\tchars",
                placement: Placement::Split(0.5),
                start: 0.0,
                finish: 1.0,
            }],
            cpu_busy: 1.0,
            acc_busy: 0.0,
        };
        let json = to_chrome_trace(&s);
        validate_json(&json).expect("escaped trace must be valid JSON");
        assert!(json.contains("bad\\\"name\\\\with{json}\\n\\tchars"));
    }

    #[test]
    fn combined_trace_has_both_track_groups() {
        let s = sched(PatternDriven);
        let rec = Recorder::new();
        {
            let _step = rec.span("measured", "swe.step");
            let _k = rec.span_timed("measured", "B1", "swe.kernel.B1.seconds");
        }
        rec.event("sched.decision", &[("task", "B1".to_string())]);
        let json = to_combined_trace(&s, &rec);
        validate_json(&json).expect("combined trace must be valid JSON");
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"pid\":2"));
        assert!(json.contains("\"name\":\"modeled\""));
        assert!(json.contains("\"name\":\"measured\""));
        assert!(json.contains("\"ph\":\"i\""));
    }
}
