#![warn(missing_docs)]
//! The hybrid multi-/many-core execution engine — the paper's contribution.
//!
//! Three layers, mirroring the paper's method:
//!
//! * [`Platform`] — descriptors of the Table-II node (Xeon E5-2680 v2
//!   host, Xeon Phi 5110P accelerator, PCIe link), with roofline
//!   execution-time models, re-exported from `mpas_sched::platform`. The
//!   Phi is simulated (DESIGN.md §1 documents the substitution); the
//!   scheduling code is real.
//! * [`sched`] + [`sim`] — makespan scheduling of the data-flow diagram
//!   under the paper's policies from `mpas-sched` (serial reference,
//!   kernel-level hybrid of Fig. 2, pattern-driven hybrid of Fig. 4 (b)
//!   with adjustable splits), plus the multi-process scaling model
//!   (Figs. 7–9).
//! * [`calibrate`] — measurement-driven cost calibration: times the real
//!   host executors per Table-I pattern and fits per-pattern coefficients
//!   back into the scheduling cost model; alternatively fits them from the
//!   `swe.kernel.*` histograms a telemetry
//!   [`Recorder`](mpas_telemetry::Recorder) collected during a real run on
//!   the pool executor ([`calibration_from_metrics`]).
//! * [`ladder`] — the Fig. 6 single-device optimization ladder.
//!
//! The real, measured executors — the serial one, and the fork-join pool
//! that optionally splits the heavy patterns with a second "accelerator"
//! pool — run the one stage program of `mpas_swe::stage`.

pub mod calibrate;
pub mod ladder;
pub mod sched;
pub mod sim;
pub mod trace;

pub use calibrate::{calibrate_host, calibration_from_metrics, CalibrationReport};
pub use ladder::{fig6_ladder, OptStage};
pub use mpas_sched::platform::{DeviceSpec, Platform, TransferLink};
pub use sched::{schedule_substep, Placement, Schedule, SchedulerPolicy};
pub use sim::{time_per_step, time_per_step_multirank};
pub use trace::{to_chrome_trace, to_combined_trace};
