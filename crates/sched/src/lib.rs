//! # mpas-sched — the paper's scheduling policies on the modeled node
//!
//! The Table-I pattern instances of one RK substep are extracted into a
//! [`TaskDag`] (per-device costs, output bytes, splittability), and a
//! [`SchedulerPolicy`] maps that DAG onto the two-device [`Platform`] of
//! the paper's Table II, producing a [`Schedule`] with makespan, per-node
//! placements, and busy times. The five policies in [`paper`] are the
//! paper's own: the single-core serial code, the two whole-device
//! strawmen of §II.C, the kernel-level offload of Fig. 2, and the
//! pattern-driven EFT-with-splits of Fig. 4 (b). They share one
//! device/transfer/residency model, so their makespans are directly
//! comparable. The model reproduces Table II and the paper's modeled
//! figures; it is not a measurement of this host.
//!
//! ## Policy names
//!
//! [`resolve`] maps a bare name to a policy: `serial`, `cpu-only`,
//! `acc-only`, `kernel-level` or `pattern-driven`
//! ([`registered_names`]).
//!
//! ## Cost calibration
//!
//! [`TaskDag::from_dataflow_with`] accepts any [`CostModel`]. The default
//! [`RooflineCost`] evaluates the Table-II roofline; a [`CalibratedCost`]
//! rescales it with per-pattern `measured / predicted` coefficients fitted
//! by timing the real host executors (`mpas_hybrid::calibrate`), replacing
//! pure paper constants with measurements from the machine at hand.

pub mod dag;
pub mod paper;
pub mod platform;
pub mod policy;
pub mod schedule;
pub mod telemetry;

pub use dag::{
    CalibratedCost, CostModel, RooflineCost, TaskDag, TaskNode, DEV_ACC, DEV_CPU, SPLIT_THRESHOLD,
};
pub use paper::{AccOnly, CpuOnly, KernelLevel, PatternDriven, Serial};
pub use platform::{DeviceSpec, Platform, TransferLink};
pub use policy::{registered_names, resolve, SchedulerPolicy};
pub use schedule::{NodeSchedule, Placement, Residency, Schedule};
pub use telemetry::record_schedule;
