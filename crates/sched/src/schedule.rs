//! Schedule results and the variable-residency state shared by the
//! policies that use both devices.

use mpas_patterns::pattern::Variable;
use std::collections::HashMap;

/// Where a node (or part of it) ran.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Placement {
    /// Entirely on the host CPU.
    Cpu,
    /// Entirely on the accelerator.
    Acc,
    /// Split with this fraction of the output range on the accelerator.
    Split(f64),
}

/// Scheduling decision and timing for one node.
#[derive(Debug, Clone)]
pub struct NodeSchedule {
    /// Table-I pattern-instance label.
    pub name: &'static str,
    /// Device assignment (possibly split).
    pub placement: Placement,
    /// Start time, seconds from substep entry.
    pub start: f64,
    /// Finish time, seconds from substep entry.
    pub finish: f64,
}

/// Result of scheduling one substep graph.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Completion time of the whole substep, seconds.
    pub makespan: f64,
    /// Per-node decisions and timings, indexed by DAG node id.
    pub nodes: Vec<NodeSchedule>,
    /// CPU busy time (for utilization/load-balance reporting).
    pub cpu_busy: f64,
    /// Accelerator busy time.
    pub acc_busy: f64,
}

impl Schedule {
    /// Fraction of the makespan during which the less-used device idles —
    /// the load-imbalance the pattern-driven design attacks.
    pub fn imbalance(&self) -> f64 {
        let lo = self.cpu_busy.min(self.acc_busy);
        let hi = self.cpu_busy.max(self.acc_busy);
        if hi == 0.0 {
            0.0
        } else {
            (hi - lo) / hi
        }
    }
}

/// Tracks which devices hold a current copy of each variable.
///
/// At substep entry every input is synchronized on both devices (the paper
/// keeps mesh and state resident; boundaries sync at the halo-exchange
/// points). A write leaves the value only where it was produced; a transfer
/// makes it resident everywhere.
#[derive(Debug, Clone, Default)]
pub struct Residency {
    map: HashMap<Variable, (bool, bool)>, // (on_cpu, on_acc)
}

impl Residency {
    /// Fresh substep-entry state: everything resident everywhere.
    pub fn fresh() -> Self {
        Residency {
            map: HashMap::new(),
        }
    }

    /// Is `v` resident on the given device?
    pub fn present(&self, v: Variable, on_acc: bool) -> bool {
        match self.map.get(&v) {
            None => true, // substep input: everywhere
            Some(&(c, a)) => {
                if on_acc {
                    a
                } else {
                    c
                }
            }
        }
    }

    /// Record a write of `v` under the given placement.
    pub fn write(&mut self, v: Variable, placement: Placement) {
        let entry = match placement {
            Placement::Cpu => (true, false),
            Placement::Acc => (false, true),
            Placement::Split(_) => (true, true), // halves merged via link
        };
        self.map.insert(v, entry);
    }

    /// Mark `v` resident on both devices (after a transfer).
    pub fn mark_everywhere(&mut self, v: Variable) {
        self.map.insert(v, (true, true));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(cpu_busy: f64, acc_busy: f64) -> Schedule {
        Schedule {
            makespan: 1.0,
            nodes: Vec::new(),
            cpu_busy,
            acc_busy,
        }
    }

    #[test]
    fn imbalance_of_idle_schedule_is_zero() {
        // Zero busy time on both devices: no imbalance, no division by zero.
        assert_eq!(sched(0.0, 0.0).imbalance(), 0.0);
    }

    #[test]
    fn imbalance_of_single_device_schedule_is_total() {
        // All work on one device: the other idles 100% of the busy span.
        assert_eq!(sched(1.0, 0.0).imbalance(), 1.0);
        assert_eq!(sched(0.0, 2.5).imbalance(), 1.0);
    }

    #[test]
    fn imbalance_of_balanced_schedule_is_zero() {
        assert_eq!(sched(3.0, 3.0).imbalance(), 0.0);
    }

    #[test]
    fn imbalance_is_symmetric_and_fractional() {
        let a = sched(1.0, 4.0).imbalance();
        let b = sched(4.0, 1.0).imbalance();
        assert_eq!(a, b);
        assert!((a - 0.75).abs() < 1e-15);
    }

    #[test]
    fn residency_starts_everywhere_and_tracks_writes() {
        use mpas_patterns::pattern::Variable::*;
        let mut r = Residency::fresh();
        assert!(r.present(TendU, false) && r.present(TendU, true));
        r.write(TendU, Placement::Acc);
        assert!(!r.present(TendU, false) && r.present(TendU, true));
        r.mark_everywhere(TendU);
        assert!(r.present(TendU, false) && r.present(TendU, true));
        r.write(TendU, Placement::Split(0.5));
        assert!(r.present(TendU, false) && r.present(TendU, true));
    }
}
