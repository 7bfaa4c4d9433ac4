//! The Fig. 6 optimization ladder on the many-core device.
//!
//! The paper applies successive optimizations to the single-Phi build and
//! reports the speedup over one unoptimized (scalar, scatter-form) Phi
//! core: naive OpenMP < 20×, regularity-aware refactoring > 60×, SIMD
//! ≈ +20 %, then streaming stores / prefetch / 2 MB pages / loop fusion
//! toward ≈ 100×.
//!
//! With no Phi available, each stage is modeled as an effective-bandwidth
//! level (the kernels are memory-bound): threading multiplies per-core
//! bandwidth until the aggregate cap; the scatter form throttles the
//! irregular-reduction patterns to an atomic-update bandwidth; SIMD /
//! streaming / others each multiply the gather bandwidth by the paper's
//! reported ratios. The measured companion — the relative cost of
//! scatter / gather / branch-free / fused loop forms on a real host core —
//! lives in the bench crate (`bench_reduction_forms`).

use mpas_patterns::dataflow::{DataflowGraph, MeshCounts, RkPhase};
use mpas_sched::platform::DeviceSpec;

/// Cumulative optimization stages of Fig. 6 (each includes its
/// predecessors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptStage {
    /// Original single-core scalar code, scatter-form reductions.
    Baseline,
    /// Naive OpenMP over all loops; irregular reductions via atomics.
    OpenMp,
    /// Regularity-aware loop refactoring (Alg. 3) — full threading.
    Refactoring,
    /// Manual 512-bit SIMD with the branch-free label matrix (Alg. 4).
    Simd,
    /// Streaming (non-temporal) stores on 64-byte-aligned outputs.
    Streaming,
    /// Prefetching, 2 MB pages, loop fusion.
    Others,
}

impl OptStage {
    /// All stages in ladder order.
    pub const ALL: [OptStage; 6] = [
        OptStage::Baseline,
        OptStage::OpenMp,
        OptStage::Refactoring,
        OptStage::Simd,
        OptStage::Streaming,
        OptStage::Others,
    ];

    /// Display label matching the figure's x-axis.
    pub fn label(&self) -> &'static str {
        match self {
            OptStage::Baseline => "Baseline",
            OptStage::OpenMp => "OpenMP",
            OptStage::Refactoring => "Refactoring",
            OptStage::Simd => "SIMD",
            OptStage::Streaming => "Streaming",
            OptStage::Others => "Others",
        }
    }
}

/// Bandwidth multipliers (vs. the pre-SIMD threaded gather level) for the
/// vectorization-and-beyond stages, from the paper's reported ratios.
const SIMD_GAIN: f64 = 1.20;
const STREAMING_GAIN: f64 = 1.18;
const OTHERS_GAIN: f64 = 1.15;
/// Effective bandwidth of atomic scatter updates across 236 threads
/// (contended read-modify-writes bounce cache lines across the ring bus).
const ATOMIC_BW: f64 = 2.0e9;

/// Effective device bandwidth at a stage, for regular (`gather-safe`) and
/// irregular (scatter-form) patterns respectively.
/// Fully-optimized Phi-native aggregate bandwidth. Larger than the
/// offload-hybrid effective value in [`DeviceSpec::xeon_phi_5110p`]: the
/// Fig. 6 runs are device-resident with no host interaction.
const PHI_NATIVE_BW: f64 = 36.0e9;

fn stage_bandwidths(stage: OptStage) -> (f64, f64) {
    let phi = DeviceSpec::xeon_phi_5110p();
    let one = phi.mem_bw_one;
    // Walk backwards from the fully-optimized level to the pre-SIMD
    // threaded level.
    let full = PHI_NATIVE_BW;
    let threaded = full / (SIMD_GAIN * STREAMING_GAIN * OTHERS_GAIN);
    match stage {
        OptStage::Baseline => (one, one),
        OptStage::OpenMp => (threaded, ATOMIC_BW),
        OptStage::Refactoring => (threaded, threaded),
        OptStage::Simd => (threaded * SIMD_GAIN, threaded * SIMD_GAIN),
        OptStage::Streaming => {
            let b = threaded * SIMD_GAIN * STREAMING_GAIN;
            (b, b)
        }
        OptStage::Others => (full, full),
    }
}

/// Modeled time of one RK-4 step on the Phi at an optimization stage.
pub fn stage_time_per_step(stage: OptStage, mc: &MeshCounts) -> f64 {
    let inter = DataflowGraph::for_substep(RkPhase::Intermediate);
    let fin = DataflowGraph::for_substep(RkPhase::Final);
    let (bw_regular, bw_irregular) = stage_bandwidths(stage);
    let launch = if stage == OptStage::Baseline {
        0.0
    } else {
        DeviceSpec::xeon_phi_5110p().launch_overhead
    };
    let graph_time = |g: &DataflowGraph| -> f64 {
        g.nodes
            .iter()
            .map(|n| {
                let w = n.work(mc);
                let bw = if n.class.has_irregular_reduction() {
                    bw_irregular
                } else {
                    bw_regular
                };
                w.bytes / bw + launch
            })
            .sum()
    };
    3.0 * graph_time(&inter) + graph_time(&fin)
}

/// The full Fig. 6 series: (stage, speedup vs Baseline).
pub fn fig6_ladder(mc: &MeshCounts) -> Vec<(OptStage, f64)> {
    let base = stage_time_per_step(OptStage::Baseline, mc);
    OptStage::ALL
        .iter()
        .map(|&s| (s, base / stage_time_per_step(s, mc)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mc() -> MeshCounts {
        // Fig. 6 uses the 30-km family; the paper's §V.B run.
        MeshCounts::icosahedral(163_842)
    }

    #[test]
    fn ladder_is_monotone() {
        let ladder = fig6_ladder(&mc());
        for pair in ladder.windows(2) {
            assert!(
                pair[1].1 >= pair[0].1,
                "{} -> {} regressed",
                pair[0].0.label(),
                pair[1].0.label()
            );
        }
    }

    #[test]
    fn ladder_matches_paper_bands() {
        let ladder = fig6_ladder(&mc());
        let get = |s: OptStage| ladder.iter().find(|&&(x, _)| x == s).unwrap().1;
        assert_eq!(get(OptStage::Baseline), 1.0);
        let openmp = get(OptStage::OpenMp);
        assert!(openmp < 20.0 && openmp > 5.0, "OpenMP stage {openmp}");
        let refac = get(OptStage::Refactoring);
        assert!(refac > 60.0, "Refactoring stage {refac}");
        let simd = get(OptStage::Simd);
        assert!(
            (simd / refac - 1.2).abs() < 0.05,
            "SIMD gain {} (expect ~20%)",
            simd / refac
        );
        let fin = get(OptStage::Others);
        assert!(
            (85.0..115.0).contains(&fin),
            "final stage {fin} (expect ~100x)"
        );
    }

    #[test]
    fn refactoring_is_the_big_jump() {
        // The paper's headline observation: refactoring, not SIMD, is the
        // decisive optimization on the many-core device.
        let ladder = fig6_ladder(&mc());
        let mut gains: Vec<(f64, &str)> = ladder
            .windows(2)
            .map(|p| (p[1].1 / p[0].1, p[1].0.label()))
            .collect();
        gains.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        assert!(
            gains[0].1 == "OpenMP" || gains[0].1 == "Refactoring",
            "largest gain was {}",
            gains[0].1
        );
    }
}
