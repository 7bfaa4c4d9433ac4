//! The pool executor: the stage program's sweeps chunked over a persistent
//! thread team — the OpenMP analog, one parallel region per loop, no data
//! races by construction (each chunk owns a disjoint `&mut` window of its
//! outputs).
//!
//! With an accelerator pool (`crate::Exec::hybrid`) the adjustable
//! sweeps A1, B1 and T1 divide their range between the host pool and a
//! second pool standing in for the accelerator, joined per loop — the
//! execution shape of Fig. 4 (b). On this machine both pools share
//! silicon, so wall-clock gains are measured on multicore hosts and
//! modeled by `mpas-hybrid` elsewhere; what is verified here is bit-for-bit
//! agreement with the serial executor (the paper's §V.A validation).

use crate::pool::{join, Pool};
use mpas_telemetry::Recorder;
use std::ops::Range;

/// The sweeps whose range the accelerator pool shares.
const SPLIT: [&str; 3] = ["A1", "B1", "T1"];

/// Chunk length for a loop over `len` outputs on `pool`: four chunks per
/// thread, at least 512 outputs, and a multiple of 4 so the four-edge
/// blocks of the simd kernels never straddle two chunks.
fn chunk_len(pool: &Pool, len: usize) -> usize {
    len.div_ceil(4 * pool.threads())
        .max(512)
        .next_multiple_of(4)
}

/// Run `f` over the `n` entities of `outs` in parallel chunks on `pool`.
fn par_run<const K: usize, F>(pool: &mut Pool, n: usize, outs: [&mut [f64]; K], f: F)
where
    F: Fn(Range<usize>, [&mut [f64]; K]) + Sync,
{
    let chunk = chunk_len(pool, n);
    pool.for_each(outs, chunk, f);
}

/// The accelerator half of the Fig. 4 (b) device split.
struct Accelerator {
    pool: Pool,
    /// Share of each split range the accelerator pool computes.
    fraction: f64,
}

/// A host thread pool, optionally with the accelerator pool: the pool half
/// of `crate::Exec`. It runs one layer.
pub(crate) struct Team {
    cpu: Pool,
    acc: Option<Accelerator>,
    /// The open sweep.
    pub(crate) label: &'static str,
}

impl Team {
    /// A host pool of `threads` members.
    pub(crate) fn new(threads: usize) -> Team {
        Team {
            cpu: Pool::new(threads),
            acc: None,
            label: "",
        }
    }

    /// Add an accelerator pool of `threads` members that computes the
    /// `fraction` share of every A1, B1 and T1 range. Splitting changes
    /// only which pool computes each output, never the arithmetic.
    pub(crate) fn with_accelerator(mut self, threads: usize, fraction: f64) -> Team {
        self.acc = Some(Accelerator {
            pool: Pool::new(threads),
            fraction,
        });
        self
    }

    pub(crate) fn acc_fraction(&self) -> Option<f64> {
        self.acc.as_ref().map(|a| a.fraction)
    }

    /// One loop of the open sweep over `n` entities. A split loop times
    /// each half under `hybrid.split.<label>.{cpu,acc}.seconds` on a live
    /// `rec`.
    pub(crate) fn run<const K: usize, F>(
        &mut self,
        rec: &Recorder,
        n: usize,
        outs: [&mut [f64]; K],
        f: F,
    ) where
        F: Fn(Range<usize>, [&mut [f64]; K]) + Sync,
    {
        let acc = match &mut self.acc {
            Some(acc) if SPLIT.contains(&self.label) => acc,
            _ => return par_run(&mut self.cpu, n, outs, f),
        };
        // The split point is a multiple of 4, like every chunk boundary.
        let mid = ((1.0 - acc.fraction) * n as f64) as usize / 4 * 4;
        let mut his: [Option<&mut [f64]>; K] = std::array::from_fn(|_| None);
        let mut i = 0;
        let los = outs.map(|o| {
            let (lo, hi) = o.split_at_mut(mid);
            his[i] = Some(hi);
            i += 1;
            lo
        });
        let his = his.map(|hi| hi.expect("every output split"));
        let label = self.label;
        let half_timer = |side: &str| {
            rec.is_enabled()
                .then(|| rec.time(&format!("hybrid.split.{label}.{side}.seconds")))
        };
        let (cpu, f) = (&mut self.cpu, &f);
        join(
            || {
                let _t = half_timer("cpu");
                par_run(cpu, mid, los, f)
            },
            || {
                let _t = half_timer("acc");
                par_run(&mut acc.pool, n - mid, his, |r, w| {
                    f(r.start + mid..r.end + mid, w)
                })
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::model::ShallowWaterModel;
    use crate::stage::Exec;
    use crate::testcases::TestCase;
    use std::sync::Arc;

    fn mesh() -> Arc<mpas_mesh::Mesh> {
        Arc::new(mpas_mesh::generate(3, 0))
    }

    #[test]
    fn parallel_model_matches_serial_bitwise() {
        let mesh = mesh();
        let tc = TestCase::Case5;
        let cfg = ModelConfig::default();
        let mut serial = ShallowWaterModel::new(mesh.clone(), cfg, tc, None);
        let mut par = ShallowWaterModel::new_on(mesh, cfg, tc, None, Exec::threaded(3));
        serial.run_steps(5);
        par.run_steps(5);
        assert_eq!(
            serial.state.max_abs_diff(&par.state),
            0.0,
            "threaded result differs from serial"
        );
    }

    #[test]
    fn hybrid_model_matches_serial_bitwise() {
        let mesh = mesh();
        let tc = TestCase::Case6;
        let cfg = ModelConfig::default();
        let mut serial = ShallowWaterModel::new(mesh.clone(), cfg, tc, None);
        let mut hyb = ShallowWaterModel::new_on(mesh, cfg, tc, None, Exec::hybrid(2, 2, 0.6));
        serial.run_steps(4);
        hyb.run_steps(4);
        assert_eq!(serial.state.max_abs_diff(&hyb.state), 0.0);
    }

    #[test]
    fn chunks_follow_each_output_and_keep_four_edge_blocks_whole() {
        // Level 6 on two threads: cells, vertices and edges each split
        // into 4·threads chunks (the cells no longer into 15 360 / 15 360
        // / 10 242 by the edge count), every boundary a multiple of 4.
        let pool = Pool::new(2);
        for len in [40_962, 81_920, 122_880] {
            let chunk = chunk_len(&pool, len);
            assert_eq!(chunk % 4, 0, "len {len}");
            assert_eq!(len.div_ceil(chunk), 8, "len {len}");
        }
        assert_eq!(chunk_len(&pool, 100), 512);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let mesh = mesh();
        let tc = TestCase::Case2 { alpha: 0.4 };
        let cfg = ModelConfig::default();
        let mut one = ShallowWaterModel::new_on(mesh.clone(), cfg, tc, None, Exec::threaded(1));
        let mut four = ShallowWaterModel::new_on(mesh, cfg, tc, None, Exec::threaded(4));
        one.run_steps(3);
        four.run_steps(3);
        assert_eq!(one.state.max_abs_diff(&four.state), 0.0);
    }
}
