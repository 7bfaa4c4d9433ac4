#![warn(missing_docs)]
//! High-level simulation API tying the whole reproduction together.
//!
//! Downstream users configure a [`Simulation`] (mesh resolution, Williamson
//! test case, executor) and run it; the crate wires up mesh generation,
//! the shallow-water core with its serial, threaded and hybrid executors
//! (all in `mpas-swe`), and multi-rank distributed runs over
//! `mpas-msg`. A run measures; the modeled schedules of the paper's
//! figures live in `mpas-hybrid` and `mpas-sched`.
//!
//! ```no_run
//! use mpas_core::{Executor, Simulation};
//! use mpas_swe::TestCase;
//!
//! let mut sim = Simulation::builder()
//!     .mesh_level(4)
//!     .test_case(TestCase::Case5)
//!     .executor(Executor::Threaded { threads: 4 })
//!     .build();
//! sim.run_steps(10);
//! println!("mass drift: {:e}", sim.mass_drift());
//! ```

pub mod distributed;
pub mod runner;
pub mod setup;
pub mod simulation;

pub use distributed::{halo_probe, run_distributed, run_distributed_recorded, DistributedConfig};
pub use runner::{run_job, state_hash, JobError, JobProgress, JobResult, JobSpec};
pub use setup::{apply_case_config, apply_reorder, build_mesh, parse_case, parse_executor};
pub use simulation::{Executor, Simulation, SimulationBuilder};
