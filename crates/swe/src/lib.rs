#![warn(missing_docs)]
//! The MPAS shallow-water model: TRiSK C-grid spatial discretization and
//! RK-4 time stepping on spherical Voronoi meshes.
//!
//! This crate is the numerical substrate the paper parallelizes. It solves
//! the rotating spherical shallow-water equations (the paper's Eq. 1)
//!
//! ```text
//! ∂h/∂t + ∇·(h u)            = 0
//! ∂u/∂t + q (h u)⊥           = −g ∇(h + b) − ∇K
//! ```
//!
//! in the vector-invariant form of Ringler et al. (2011), with the fluid
//! thickness `h` at mass points, the normal velocity `u` at velocity points,
//! and potential vorticity `q` diagnosed at vorticity points.
//!
//! * [`state`] — prognostic/diagnostic field containers.
//! * [`config`] — numerical options (APVM upwinding, del2 dissipation,
//!   thickness-advection order).
//! * [`coeffs`] — precomputed kernel coefficients: the per-slot
//!   geometric factors every substep would otherwise re-derive, laid out
//!   flat in CSR order for the [`kernels::simd`] fast path, and, built on
//!   the first output request, the velocity-reconstruction weights and
//!   east/north frames of `mpas_reconstruct`.
//! * [`kernels`] — the six kernels of Algorithm 1 as free functions over
//!   explicit output ranges, one per Table-I pattern instance, so executors
//!   can slice them across devices. Includes the original scatter
//!   (edge-order) forms used as the Fig. 6 baseline.
//! * [`initial`] — [`InitialFields`], the one sampler of the fields a run
//!   starts from (state, topography, Coriolis, `dt`, case-4 forcing),
//!   shared read-only by every engine.
//! * [`stage`] — Algorithm 1 written once: the RK-4 step as Table-I
//!   sweeps in Fig. 4 data-flow order, run by an executor that supplies
//!   only how one sweep runs (serial cache-blocked, or pool-chunked with
//!   the accelerator split).
//! * [`layers`] — the k-lane layout of multi-layer runs (DESIGN.md §14).
//! * [`model`] — [`ShallowWaterModel`], the one model: one state of `k`
//!   lanes, the stage program and the executor it owns.
//! * [`testcases`] — Williamson et al. (1992) test cases 1–6 plus the
//!   Galewsky et al. (2004) barotropic-instability case and passive
//!   tracer initial fields.
//! * [`norms`] — the standard normalized l1/l2/l∞ error norms.
//! * [`validation`] — the named scenario catalog with committed reference
//!   norms (the `swe_run --validate` harness).

pub mod checkpoint;
pub mod coeffs;
pub mod config;
pub mod initial;
pub mod kernels;
pub mod layers;
pub mod model;
pub mod norms;
mod parallel;
mod pool;
mod reconstruct;
pub mod stage;
pub mod state;
pub mod testcases;
pub mod validation;

pub use checkpoint::{load_state, save_state};
pub use coeffs::KernelCoeffs;
pub use config::{KernelBackend, ModelConfig};
pub use initial::InitialFields;
pub use layers::layer_h_scale;
pub use model::ShallowWaterModel;
pub use norms::ErrorNorms;
pub use stage::Exec;
pub use state::{CellOutputs, Diagnostics, State, Tendencies};
pub use testcases::TestCase;
pub use validation::{Scenario, ValidationReport};
