//! The paper's own policies, ported onto the [`TaskDag`] view.
//!
//! * [`Serial`] — every pattern on one CPU core, in program order (the
//!   "original CPU code").
//! * [`CpuOnly`] / [`AccOnly`] — whole-device single-target schedules
//!   (§II.C's strawmen).
//! * [`KernelLevel`] (Fig. 2) — whole kernels are the scheduling unit with
//!   the paper's static device map; coarse load balance.
//! * [`PatternDriven`] (Fig. 4 (b)) — per-instance earliest-finish-time
//!   with adjustable splits that equalize device finish times.
//!
//! The tests of `mpas_hybrid::sched` check these policies against the
//! shape of the paper's Fig. 7.

use crate::dag::{TaskDag, DEV_ACC, DEV_CPU};
use crate::platform::Platform;
use crate::policy::SchedulerPolicy;
use crate::schedule::{NodeSchedule, Placement, Residency, Schedule};
use mpas_patterns::dataflow::Kernel;
use std::collections::HashMap;

/// The original single-core CPU code, in program order.
#[derive(Debug, Clone, Copy, Default)]
pub struct Serial;

impl SchedulerPolicy for Serial {
    fn name(&self) -> String {
        "serial".into()
    }

    fn uses_accelerator(&self) -> bool {
        false
    }

    fn schedule(&self, dag: &TaskDag, _platform: &Platform) -> Schedule {
        let mut t = 0.0;
        let mut nodes = Vec::with_capacity(dag.len());
        for n in &dag.nodes {
            nodes.push(NodeSchedule {
                name: n.name,
                placement: Placement::Cpu,
                start: t,
                finish: t + n.serial_cost,
            });
            t += n.serial_cost;
        }
        Schedule {
            makespan: t,
            nodes,
            cpu_busy: t,
            acc_busy: 0.0,
        }
    }
}

/// All kernels on the full multi-core host, in program order.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuOnly;

/// Offload everything to the accelerator (§II.C's first option).
#[derive(Debug, Clone, Copy, Default)]
pub struct AccOnly;

fn single_device(dag: &TaskDag, dev: usize) -> Schedule {
    let mut t = 0.0;
    let mut nodes = Vec::with_capacity(dag.len());
    for n in &dag.nodes {
        let dt = n.cost[dev];
        nodes.push(NodeSchedule {
            name: n.name,
            placement: if dev == DEV_CPU {
                Placement::Cpu
            } else {
                Placement::Acc
            },
            start: t,
            finish: t + dt,
        });
        t += dt;
    }
    let (cpu_busy, acc_busy) = if dev == DEV_CPU { (t, 0.0) } else { (0.0, t) };
    Schedule {
        makespan: t,
        nodes,
        cpu_busy,
        acc_busy,
    }
}

impl SchedulerPolicy for CpuOnly {
    fn name(&self) -> String {
        "cpu-only".into()
    }

    fn uses_accelerator(&self) -> bool {
        false
    }

    fn schedule(&self, dag: &TaskDag, _platform: &Platform) -> Schedule {
        single_device(dag, DEV_CPU)
    }
}

impl SchedulerPolicy for AccOnly {
    fn name(&self) -> String {
        "acc-only".into()
    }

    fn schedule(&self, dag: &TaskDag, _platform: &Platform) -> Schedule {
        single_device(dag, DEV_ACC)
    }
}

/// Static kernel→device map of the paper's Fig. 2: the heavy kernels live
/// on the accelerator; `accumulative_update` (independent of the
/// diagnostics) and the output-only `mpas_reconstruct` overlap on the CPU.
pub fn kernel_level_device(kernel: Kernel) -> usize {
    match kernel {
        Kernel::AccumulativeUpdate | Kernel::MpasReconstruct => DEV_CPU,
        _ => DEV_ACC,
    }
}

/// Whole-kernel hybrid scheduling (Fig. 2).
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelLevel;

impl SchedulerPolicy for KernelLevel {
    fn name(&self) -> String {
        "kernel-level".into()
    }

    fn schedule(&self, dag: &TaskDag, platform: &Platform) -> Schedule {
        // Group node ids by kernel, preserving program order of first touch.
        let mut kernel_order: Vec<Kernel> = Vec::new();
        let mut groups: HashMap<Kernel, Vec<usize>> = HashMap::new();
        for (id, n) in dag.nodes.iter().enumerate() {
            if !groups.contains_key(&n.kernel) {
                kernel_order.push(n.kernel);
            }
            groups.entry(n.kernel).or_default().push(id);
        }

        let mut avail = [0.0f64; 2];
        let mut link_avail = 0.0f64;
        let mut node_finish = vec![0.0f64; dag.len()];
        let mut res = Residency::fresh();
        let mut out_nodes: Vec<Option<NodeSchedule>> = vec![None; dag.len()];
        let mut busy = [0.0f64; 2];

        for kernel in kernel_order {
            let ids = &groups[&kernel];
            // Dependency-ready time of the whole kernel.
            let ready = ids
                .iter()
                .flat_map(|&id| dag.preds[id].iter())
                .map(|&p| node_finish[p])
                .fold(0.0f64, f64::max);
            let dev_idx = kernel_level_device(kernel);
            let mut xfer_bytes = 0.0;
            for &id in ids {
                for &v in &dag.nodes[id].inputs {
                    if !res.present(v, dev_idx == DEV_ACC) {
                        xfer_bytes += dag.var_bytes[&v];
                    }
                }
            }
            let xfer_time = if xfer_bytes > 0.0 {
                platform.link.time(xfer_bytes)
            } else {
                0.0
            };
            let start =
                ready
                    .max(avail[dev_idx])
                    .max(if xfer_bytes > 0.0 { link_avail } else { 0.0 })
                    + xfer_time;
            let exec: f64 = ids.iter().map(|&id| dag.nodes[id].cost[dev_idx]).sum();
            let finish = start + exec;
            if xfer_time > 0.0 {
                link_avail = start; // link busy until kernel start
                for &id in ids {
                    let inputs = dag.nodes[id].inputs.clone();
                    for v in inputs {
                        if !res.present(v, dev_idx == DEV_ACC) {
                            res.mark_everywhere(v);
                        }
                    }
                }
            }
            avail[dev_idx] = finish;
            busy[dev_idx] += finish - start;
            // Lay nodes back-to-back inside the kernel for reporting.
            let mut t = start;
            for &id in ids {
                let dt = dag.nodes[id].cost[dev_idx];
                node_finish[id] = t + dt;
                let placement = if dev_idx == DEV_CPU {
                    Placement::Cpu
                } else {
                    Placement::Acc
                };
                out_nodes[id] = Some(NodeSchedule {
                    name: dag.nodes[id].name,
                    placement,
                    start: t,
                    finish: t + dt,
                });
                for &v in &dag.nodes[id].outputs {
                    res.write(v, placement);
                }
                t += dt;
            }
        }

        let makespan = avail[0].max(avail[1]);
        Schedule {
            makespan,
            nodes: out_nodes.into_iter().map(Option::unwrap).collect(),
            cpu_busy: busy[0],
            acc_busy: busy[1],
        }
    }
}

/// Pattern-instance hybrid scheduling with adjustable splits (Fig. 4 (b)).
///
/// A host↔device transfer delays its consumer's start additively: this
/// blocking accounting is what the Table-II/Fig.-7 calibration was
/// fitted against.
#[derive(Debug, Clone, Copy, Default)]
pub struct PatternDriven;

impl SchedulerPolicy for PatternDriven {
    fn name(&self) -> String {
        "pattern-driven".into()
    }

    fn schedule(&self, dag: &TaskDag, platform: &Platform) -> Schedule {
        let mut avail = [0.0f64; 2];
        let mut link_avail = 0.0f64;
        let mut node_finish = vec![0.0f64; dag.len()];
        let mut res = Residency::fresh();
        let mut out_nodes = Vec::with_capacity(dag.len());
        let mut busy = [0.0f64; 2];

        let finalize = |out_nodes: &mut Vec<NodeSchedule>,
                        node_finish: &mut [f64],
                        res: &mut Residency,
                        dag: &TaskDag,
                        id: usize,
                        (placement, start, finish): (Placement, f64, f64)| {
            node_finish[id] = finish;
            for &v in &dag.nodes[id].outputs {
                res.write(v, placement);
            }
            out_nodes.push(NodeSchedule {
                name: dag.nodes[id].name,
                placement,
                start,
                finish,
            });
        };

        for (id, node) in dag.nodes.iter().enumerate() {
            let ready = dag.preds[id]
                .iter()
                .map(|&p| node_finish[p])
                .fold(0.0f64, f64::max);

            // Earliest start on each device including any required transfer.
            let mut est = [0.0f64; 2];
            let mut xfer = [0.0f64; 2];
            for dev_idx in 0..2 {
                let mut xfer_bytes = 0.0;
                for &v in &node.inputs {
                    if !res.present(v, dev_idx == DEV_ACC) {
                        xfer_bytes += dag.var_bytes[&v];
                    }
                }
                xfer[dev_idx] = if xfer_bytes > 0.0 {
                    platform.link.time(xfer_bytes)
                } else {
                    0.0
                };
                est[dev_idx] = if xfer_bytes == 0.0 {
                    ready.max(avail[dev_idx])
                } else {
                    ready.max(avail[dev_idx]).max(link_avail) + xfer[dev_idx]
                };
            }
            let t_cpu = node.cost[DEV_CPU];
            let t_acc = node.cost[DEV_ACC];

            // Candidate A: whole-node EFT.
            let fin_cpu = est[0] + t_cpu;
            let fin_acc = est[1] + t_acc;

            // Candidate B: split so both devices finish together:
            //   est_a + f·A = est_c + (1−f)·C  ⇒  f = (est_c + C − est_a)/(A + C)
            let mut chosen: (Placement, f64, f64);
            if node.splittable {
                let a = t_acc - platform.acc.launch_overhead;
                let c = t_cpu - platform.cpu.launch_overhead;
                let f = ((est[0] + c - est[1]) / (a + c)).clamp(0.0, 1.0);
                if f > 0.02 && f < 0.98 {
                    let fin_split = (est[1] + platform.acc.launch_overhead + a * f)
                        .max(est[0] + platform.cpu.launch_overhead + c * (1.0 - f))
                        // Merge the two halves across the link.
                        + platform.link.time(node.out_bytes * 0.5);
                    if fin_split < fin_cpu.min(fin_acc) {
                        chosen = (Placement::Split(f), est[0].min(est[1]), fin_split);
                        // Both devices busy until the split finishes.
                        avail[0] = avail[0].max(fin_split);
                        avail[1] = avail[1].max(fin_split);
                        busy[0] += c * (1.0 - f) + platform.cpu.launch_overhead;
                        busy[1] += a * f + platform.acc.launch_overhead;
                        link_avail = fin_split;
                        finalize(&mut out_nodes, &mut node_finish, &mut res, dag, id, chosen);
                        continue;
                    }
                }
            }
            // Whole-node assignment.
            if fin_cpu <= fin_acc {
                chosen = (Placement::Cpu, est[0], fin_cpu);
                avail[0] = fin_cpu;
                busy[0] += t_cpu;
                if xfer[0] > 0.0 {
                    link_avail = est[0];
                    let inputs = node.inputs.clone();
                    for v in inputs {
                        if !res.present(v, false) {
                            res.mark_everywhere(v);
                        }
                    }
                }
            } else {
                chosen = (Placement::Acc, est[1], fin_acc);
                avail[1] = fin_acc;
                busy[1] += t_acc;
                if xfer[1] > 0.0 {
                    link_avail = est[1];
                    let inputs = node.inputs.clone();
                    for v in inputs {
                        if !res.present(v, true) {
                            res.mark_everywhere(v);
                        }
                    }
                }
            }
            chosen.1 = chosen.1.max(0.0);
            finalize(&mut out_nodes, &mut node_finish, &mut res, dag, id, chosen);
        }

        let makespan = avail[0].max(avail[1]);
        Schedule {
            makespan,
            nodes: out_nodes,
            cpu_busy: busy[0],
            acc_busy: busy[1],
        }
    }
}
