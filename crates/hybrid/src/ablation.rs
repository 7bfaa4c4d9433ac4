//! Ablation studies of the pattern-driven design.
//!
//! The paper claims (§II) that the approach is "flexible for any
//! heterogeneous architecture with arbitrary host-to-device ratios" and
//! attributes its win over kernel-level scheduling to fine-grained load
//! balance. These sweeps make both claims testable:
//!
//! * [`sweep_split_threshold`] — how the adjustability threshold (which
//!   patterns may split across devices) changes the makespan;
//! * [`sweep_device_ratio`] — pattern-driven vs. kernel-level while the
//!   accelerator:host throughput ratio varies over 1/4×..8×;
//! * [`sweep_link_bandwidth`] — sensitivity to the PCIe transfer rate
//!   (the offload tax);
//! * [`sweep_fused_local_patterns`] — the "Others" loop-fusion effect:
//!   merging point-local patterns removes launch overheads.

use crate::device::{Platform, TransferLink};
use crate::sched::{
    pattern_driven_schedule_opts, pattern_driven_schedule_with, schedule_substep, SchedOptions,
};
use mpas_patterns::dataflow::{DataflowGraph, MeshCounts, RkPhase};
use mpas_patterns::pattern::PatternClass;
use mpas_sched::{KernelLevel, PatternDriven};

/// One sweep sample.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// The swept parameter's value.
    pub x: f64,
    /// Substep makespan under the pattern-driven policy, seconds.
    pub pattern_makespan: f64,
    /// Substep makespan under the kernel-level policy, seconds.
    pub kernel_makespan: f64,
}

fn graph() -> DataflowGraph {
    DataflowGraph::for_substep(RkPhase::Intermediate)
}

/// Sweep the split ("adjustable") threshold from "split everything" to
/// "split nothing". At 1.0 no node splits and the pattern-driven policy
/// degenerates toward per-node EFT without balancing.
pub fn sweep_split_threshold(
    mc: &MeshCounts,
    platform: &Platform,
    thresholds: &[f64],
) -> Vec<SweepPoint> {
    let g = graph();
    let kernel = schedule_substep(&g, mc, platform, KernelLevel).makespan;
    thresholds
        .iter()
        .map(|&t| SweepPoint {
            x: t,
            pattern_makespan: pattern_driven_schedule_with(&g, mc, platform, t).makespan,
            kernel_makespan: kernel,
        })
        .collect()
}

/// Sweep the accelerator:host effective-bandwidth ratio while keeping the
/// combined node throughput fixed — the "arbitrary host-to-device ratios"
/// claim. Both flops and bandwidth scale together.
pub fn sweep_device_ratio(mc: &MeshCounts, base: &Platform, ratios: &[f64]) -> Vec<SweepPoint> {
    let g = graph();
    let total_bw = base.cpu.mem_bw + base.acc.mem_bw;
    let total_fl = base.cpu.flops + base.acc.flops;
    ratios
        .iter()
        .map(|&r| {
            let mut p = *base;
            // acc = r * cpu, cpu + acc = total.
            p.cpu.mem_bw = total_bw / (1.0 + r);
            p.acc.mem_bw = total_bw * r / (1.0 + r);
            p.cpu.flops = total_fl / (1.0 + r);
            p.acc.flops = total_fl * r / (1.0 + r);
            SweepPoint {
                x: r,
                pattern_makespan: schedule_substep(&g, mc, &p, PatternDriven::default()).makespan,
                kernel_makespan: schedule_substep(&g, mc, &p, KernelLevel).makespan,
            }
        })
        .collect()
}

/// Sweep the host↔device link bandwidth (bytes/s).
pub fn sweep_link_bandwidth(
    mc: &MeshCounts,
    base: &Platform,
    bandwidths: &[f64],
) -> Vec<SweepPoint> {
    let g = graph();
    bandwidths
        .iter()
        .map(|&bw| {
            let mut p = *base;
            p.link = TransferLink {
                latency: p.link.latency,
                bandwidth: bw,
            };
            SweepPoint {
                x: bw,
                pattern_makespan: schedule_substep(&g, mc, &p, PatternDriven::default()).makespan,
                kernel_makespan: schedule_substep(&g, mc, &p, KernelLevel).makespan,
            }
        })
        .collect()
}

/// Compare pattern-driven makespans with and without transfer overlap
/// (the paper's "overlapped data moving"): `(overlapped, blocking)`.
pub fn overlap_ablation(mc: &MeshCounts, platform: &Platform) -> (f64, f64) {
    let g = graph();
    let on = pattern_driven_schedule_opts(
        &g,
        mc,
        platform,
        SchedOptions {
            overlap_transfers: true,
            ..Default::default()
        },
    );
    let off = pattern_driven_schedule_opts(
        &g,
        mc,
        platform,
        SchedOptions {
            overlap_transfers: false,
            ..Default::default()
        },
    );
    (on.makespan, off.makespan)
}

/// Model the "Others" loop-fusion optimization on a single device: adjacent
/// point-local patterns of the same kernel share one parallel region, so
/// each fused-away boundary saves exactly one launch overhead while the
/// data-movement work is unchanged (the loops fuse body-to-body).
///
/// Returns `(unfused_makespan, fused_makespan, regions_saved)`.
pub fn fused_local_single_device(
    mc: &MeshCounts,
    dev: &crate::device::DeviceSpec,
) -> (f64, f64, usize) {
    let g = graph();
    let mut unfused = 0.0;
    let mut fused = 0.0;
    let mut saved = 0usize;
    let mut prev: Option<(mpas_patterns::dataflow::Kernel, PatternClass)> = None;
    for n in &g.nodes {
        let dt = dev.node_time(n.work(mc));
        unfused += dt;
        let fusable = matches!(prev, Some((k, PatternClass::Local))
            if k == n.kernel && n.class == PatternClass::Local);
        if fusable {
            fused += dt - dev.launch_overhead;
            saved += 1;
        } else {
            fused += dt;
        }
        prev = Some((n.kernel, n.class));
    }
    (unfused, fused, saved)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mc() -> MeshCounts {
        MeshCounts::icosahedral(655_362)
    }

    #[test]
    fn default_threshold_is_near_optimal() {
        let p = Platform::paper_node();
        let pts = sweep_split_threshold(&mc(), &p, &[0.01, 0.02, 0.05, 0.08, 0.15, 0.3, 1.1]);
        let best = pts
            .iter()
            .map(|s| s.pattern_makespan)
            .fold(f64::INFINITY, f64::min);
        let at_default = pts.iter().find(|s| s.x == 0.08).unwrap().pattern_makespan;
        assert!(at_default / best < 1.15, "default threshold far from best");
        // Disabling splitting entirely (threshold > 1) must be worse.
        let none = pts.last().unwrap().pattern_makespan;
        assert!(none > best * 1.1, "splitting gives no benefit?");
    }

    #[test]
    fn pattern_driven_wins_across_device_ratios() {
        // The flexibility claim: for any host:device ratio from 1:4 to 8:1,
        // pattern-driven ≤ kernel-level.
        let p = Platform::paper_node();
        let pts = sweep_device_ratio(&mc(), &p, &[0.25, 0.5, 1.0, 1.4, 2.0, 4.0, 8.0]);
        for s in &pts {
            assert!(
                s.pattern_makespan <= s.kernel_makespan * 1.001,
                "ratio {}: pattern {} > kernel {}",
                s.x,
                s.pattern_makespan,
                s.kernel_makespan
            );
        }
        // And the advantage is largest when devices are comparable (load
        // balance matters most there).
        let near_equal = pts.iter().find(|s| s.x == 1.0).unwrap();
        let lopsided = pts.iter().find(|s| s.x == 8.0).unwrap();
        let adv = |s: &SweepPoint| s.kernel_makespan / s.pattern_makespan;
        assert!(adv(near_equal) > adv(lopsided));
    }

    #[test]
    fn slow_links_erode_the_pattern_advantage() {
        let p = Platform::paper_node();
        let pts = sweep_link_bandwidth(&mc(), &p, &[0.5e9, 2e9, 6e9, 24e9]);
        // A 48x faster link must help overall.
        assert!(pts.last().unwrap().pattern_makespan <= pts.first().unwrap().pattern_makespan);
        // At PCIe-class bandwidth and above, pattern-driven wins; below
        // ~1 GB/s its extra intermediate traffic erodes the advantage to
        // nothing (an offload-tax crossover the paper's PCIe never hits).
        for s in &pts {
            if s.x >= 2e9 {
                assert!(
                    s.pattern_makespan <= s.kernel_makespan * 1.01,
                    "bw {}: {} vs {}",
                    s.x,
                    s.pattern_makespan,
                    s.kernel_makespan
                );
            } else {
                assert!(s.pattern_makespan <= s.kernel_makespan * 1.10);
            }
        }
    }

    #[test]
    fn overlap_helps_at_scale_on_the_paper_link() {
        // On the paper's PCIe link the overlapped accounting wins at the
        // production mesh sizes; at the smallest mesh (and on much slower
        // links) the greedy scheduler over-commits to cross-device
        // placements because transfers look free — both behaviors are
        // bounded here and recorded in EXPERIMENTS.md.
        let p = Platform::paper_node();
        for cells in [655_362usize, 2_621_442] {
            let (on, off) = overlap_ablation(&MeshCounts::icosahedral(cells), &p);
            assert!(
                on <= off * 1.0001,
                "{cells}: overlap {on} vs blocking {off}"
            );
        }
        let (on, off) = overlap_ablation(&MeshCounts::icosahedral(40_962), &p);
        assert!(on <= off * 1.05, "small-mesh overshoot too large");
    }

    #[test]
    fn fusing_local_patterns_saves_launch_overhead() {
        let p = Platform::paper_node();
        // Launch overheads only matter at small mesh sizes.
        let small = MeshCounts::icosahedral(40_962);
        // The saving is exactly one launch overhead per fused-away region
        // boundary; the intermediate graph has X2|X3 and X4|X5 to fuse.
        let (unfused, fused, saved) = fused_local_single_device(&small, &p.acc);
        assert_eq!(saved, 2, "expected X2+X3 and X4+X5 fusions");
        let gain = unfused - fused;
        let expect = saved as f64 * p.acc.launch_overhead;
        assert!((gain - expect).abs() < 1e-12, "gain {gain} vs {expect}");
        assert!(fused < unfused);
    }
}
