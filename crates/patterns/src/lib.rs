#![warn(missing_docs)]
//! The paper's methodology layer: stencil-pattern taxonomy, the data-flow
//! diagram, and the irregular-reduction loop refactorings.
//!
//! The paper's central idea is to decompose the MPAS shallow-water model not
//! into *kernels* (too coarse for load balance) nor into *lines of code*
//! (unmaintainable), but into a small set of reusable **stencil patterns**
//! over the three mesh point types (mass / velocity / vorticity). The
//! pattern instances and the variables they read and write (the paper's
//! Table I) induce a data-flow diagram (Fig. 4) whose edges are the only
//! true dependencies — everything not ordered by the diagram may run
//! concurrently, on either device.
//!
//! * [`pattern`] — the eight stencil classes of Fig. 3 plus point-local
//!   computations, and the model variables of Table I.
//! * [`dataflow`] — pattern instances, the data-flow graph builder for one
//!   RK substep, topological levels and critical-path analysis.
//! * [`reduction`] — Algorithms 2–4: the scatter (edge-order) irregular
//!   reduction, the regularity-aware gather (cell-order) refactoring, and
//!   the branch-free label-matrix form used for SIMD.

pub mod dataflow;
pub mod export;
pub mod pattern;
pub mod profile;
pub mod reduction;

pub use dataflow::{DataflowGraph, Kernel, NodeId, PatternInstance, RkPhase};
pub use export::{concurrency_report, to_dot};
pub use pattern::{MeshLocation, PatternClass, Variable};
pub use profile::{kernel_profile, pattern_profile};
pub use reduction::{EdgeCellReduction, LabelMatrix};
