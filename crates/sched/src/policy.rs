//! The [`SchedulerPolicy`] trait and the name registry of the paper's
//! policies: [`resolve`] maps a bare name to a boxed policy and
//! [`registered_names`] lists the five names it knows.

use crate::dag::TaskDag;
use crate::paper::{AccOnly, CpuOnly, KernelLevel, PatternDriven, Serial};
use crate::platform::Platform;
use crate::schedule::Schedule;

/// A scheduling policy: maps a task DAG onto the platform's devices.
///
/// Implementations must place every node of the DAG and must respect the
/// dependency edges (no node starts before its predecessors finish and any
/// required staging transfer completes).
pub trait SchedulerPolicy {
    /// Registry name; resolving it yields an equivalent policy.
    fn name(&self) -> String;

    /// Whether the policy places work on the accelerator. Multi-rank halo
    /// accounting charges the PCIe staging surcharge only when true.
    fn uses_accelerator(&self) -> bool {
        true
    }

    /// Schedule one substep DAG onto the platform.
    fn schedule(&self, dag: &TaskDag, platform: &Platform) -> Schedule;
}

impl<T: SchedulerPolicy + ?Sized> SchedulerPolicy for &T {
    fn name(&self) -> String {
        (**self).name()
    }

    fn uses_accelerator(&self) -> bool {
        (**self).uses_accelerator()
    }

    fn schedule(&self, dag: &TaskDag, platform: &Platform) -> Schedule {
        (**self).schedule(dag, platform)
    }
}

impl<T: SchedulerPolicy + ?Sized> SchedulerPolicy for Box<T> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn uses_accelerator(&self) -> bool {
        (**self).uses_accelerator()
    }

    fn schedule(&self, dag: &TaskDag, platform: &Platform) -> Schedule {
        (**self).schedule(dag, platform)
    }
}

/// Resolve a policy name into a policy. Surrounding whitespace is
/// ignored; an unknown name is an error listing the registered ones.
pub fn resolve(name: &str) -> Result<Box<dyn SchedulerPolicy>, String> {
    match name.trim() {
        "serial" => Ok(Box::new(Serial)),
        "cpu-only" => Ok(Box::new(CpuOnly)),
        "acc-only" => Ok(Box::new(AccOnly)),
        "kernel-level" => Ok(Box::new(KernelLevel)),
        "pattern-driven" => Ok(Box::new(PatternDriven)),
        other => Err(format!(
            "unknown policy {other:?}; registered: {}",
            registered_names().join(", ")
        )),
    }
}

/// The paper's policy names, in the order the figures list them.
pub fn registered_names() -> Vec<&'static str> {
    vec![
        "serial",
        "cpu-only",
        "acc-only",
        "kernel-level",
        "pattern-driven",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_names_round_trip() {
        for name in registered_names() {
            let p = resolve(name).unwrap();
            assert_eq!(p.name(), name, "resolve/name must round-trip");
        }
    }

    #[test]
    fn bad_names_error_helpfully() {
        let err = |spec: &str| resolve(spec).err().expect("should be rejected");
        assert!(err("peft").contains("registered"));
        assert!(err("fifo").contains("pattern-driven"));
        // Names take no parameters.
        assert!(err("pattern-driven[overlap=true]").contains("unknown policy"));
        assert_eq!(resolve(" serial ").unwrap().name(), "serial");
    }

    #[test]
    fn serial_and_cpu_only_do_not_use_the_accelerator() {
        assert!(!resolve("serial").unwrap().uses_accelerator());
        assert!(!resolve("cpu-only").unwrap().uses_accelerator());
        assert!(resolve("kernel-level").unwrap().uses_accelerator());
        assert!(resolve("pattern-driven").unwrap().uses_accelerator());
    }
}
