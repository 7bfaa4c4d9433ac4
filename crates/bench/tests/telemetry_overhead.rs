//! Satellite guard: disabled telemetry must cost nothing measurable.
//!
//! The instrumented executors hit a telemetry hook a bounded number of
//! times per RK-4 step (a timer per sweep per stage, step/stage spans,
//! per-step gauges — comfortably under `CALLS_PER_STEP` below).
//! Rather than an A/B wall-clock comparison of two whole builds (noisy on
//! shared CI), this microbenchmarks the no-op recorder's primitives with
//! the same harness the paper figures use and asserts that a whole step's
//! worth of hooks stays within 5% of one measured step.

use mpas_bench::time_per_call;
use mpas_core::{Executor, Simulation};
use mpas_swe::TestCase;
use mpas_telemetry::Recorder;
use std::hint::black_box;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Run this binary's tests one at a time. They time primitives and steps
/// on the wall clock, and a test stepping a model beside them on a small
/// host inflates the primitive timings of the others.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Upper bound on telemetry hook invocations per RK-4 step: 4 stages x
/// (~10 sweep timers + 1 stage span) + step spans + facade
/// gauges/counter, about 51 on the threaded executor, with a 2x cushion.
const CALLS_PER_STEP: f64 = 112.0;

/// Of that bound, at most this many are timed guards — the 40 sweep timers
/// of a step (no stage runs A3, A4 or X6) plus the stage and step spans,
/// 46 on the threaded executor; the remainder are plain
/// counter/gauge/histogram writes.
const TIMED_PER_STEP: f64 = 52.0;

/// Writes per step that feed a registered rolling window. The server
/// registers windows on `core.sim.step_seconds`, queue wait and live
/// latency — one to two writes per step; 10 is a 5x cushion.
const WINDOWED_PER_STEP: f64 = 10.0;

/// Smallest per-call time over `reps` measurement repetitions. Noise on a
/// shared machine (scheduler preemption, frequency steps) only ever adds
/// time, so the minimum is the robust estimate of a primitive's true cost.
fn min_time_per_call(mut f: impl FnMut(), iters: usize, reps: usize) -> f64 {
    (0..reps)
        .map(|_| time_per_call(&mut f, iters))
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn noop_recorder_overhead_is_within_5_percent_of_a_step() {
    let _turn = one_at_a_time();
    let rec = Recorder::noop();

    // The hooks the hot path executes: the enabled check (taken on every
    // kernel), and the full guard create/drop + counter/gauge writes the
    // disabled recorder short-circuits.
    let iters = 100_000;
    let t_enabled_check = time_per_call(
        || {
            std::hint::black_box(rec.is_enabled());
        },
        iters,
    );
    let t_guard = time_per_call(
        || {
            let g = rec.time("bench.guard_seconds");
            std::hint::black_box(&g);
        },
        iters,
    );
    let t_counter = time_per_call(
        || {
            rec.add("bench.counter", 1);
        },
        iters,
    );
    let t_gauge = time_per_call(
        || {
            rec.set_gauge("bench.gauge", 1.0);
        },
        iters,
    );
    let per_call = t_enabled_check.max(t_guard).max(t_counter).max(t_gauge);
    let overhead_per_step = CALLS_PER_STEP * per_call;

    // One real step of the instrumented threaded executor (recorder off —
    // exactly the uninstrumented configuration every non-traced run uses).
    let mut sim = Simulation::builder()
        .mesh_level(3)
        .executor(Executor::Threaded { threads: 2 })
        .build();
    sim.run_steps(1); // warm-up
    let t0 = std::time::Instant::now();
    sim.run_steps(4);
    let step_seconds = t0.elapsed().as_secs_f64() / 4.0;

    assert!(
        overhead_per_step <= 0.05 * step_seconds,
        "no-op telemetry overhead {:.3e}s/step ({CALLS_PER_STEP} x {per_call:.3e}s) \
         exceeds 5% of a measured step ({step_seconds:.3e}s)",
        overhead_per_step
    );
}

#[test]
fn live_recorder_with_flight_and_window_is_within_5_percent_of_a_step() {
    let _turn = one_at_a_time();
    // PR 8 makes the flight ring always-on for any live recorder, and the
    // server keeps rolling windows registered for the whole run — so the
    // ≤5%/step budget must hold for the *enabled* hot path too: every
    // counter/gauge/histogram write lands in its store, feeds its rolling
    // window if one is registered, and (timers aside) pushes one ring
    // slot. The window sits on the gauge — mirroring production, where
    // windows watch per-step aggregates (step seconds, queue wait), never
    // the per-kernel timers.
    let rec = Recorder::new();
    rec.rolling_window("bench.gauge", 30.0);

    let (iters, reps) = (40_000, 5);
    let t_guard = min_time_per_call(
        || {
            let g = rec.time("bench.guard_seconds");
            std::hint::black_box(&g);
        },
        iters,
        reps,
    );
    let t_counter = min_time_per_call(
        || {
            rec.add("bench.counter", 1);
        },
        iters,
        reps,
    );
    let t_windowed = min_time_per_call(
        || {
            rec.set_gauge("bench.gauge", 1.0);
        },
        iters,
        reps,
    );
    let t_hist = min_time_per_call(
        || {
            rec.record("bench.hist", 1e-6);
        },
        iters,
        reps,
    );
    // Cost the step's hook mix by class (the same 112-hook bound the
    // no-op test charges) instead of charging every hook at guard price:
    // ~52 timed guards, ≤10 windowed writes, the rest plain writes.
    let light = t_counter.max(t_hist);
    let overhead_per_step = TIMED_PER_STEP * t_guard
        + WINDOWED_PER_STEP * t_windowed
        + (CALLS_PER_STEP - TIMED_PER_STEP - WINDOWED_PER_STEP) * light;

    let mut sim = Simulation::builder()
        .mesh_level(3)
        .executor(Executor::Threaded { threads: 2 })
        .build();
    sim.run_steps(1); // warm-up
    let t0 = std::time::Instant::now();
    sim.run_steps(4);
    let step_seconds = t0.elapsed().as_secs_f64() / 4.0;

    assert!(
        overhead_per_step <= 0.05 * step_seconds,
        "live telemetry overhead {overhead_per_step:.3e}s/step \
         ({TIMED_PER_STEP} x {t_guard:.3e}s + {WINDOWED_PER_STEP} x {t_windowed:.3e}s \
         + {} x {light:.3e}s) exceeds 5% of a measured step ({step_seconds:.3e}s)",
        CALLS_PER_STEP - TIMED_PER_STEP - WINDOWED_PER_STEP
    );
    // The ring really was fed by the light writes (bounded, not
    // ever-growing); pure timers stay out of it by design.
    let light_writes = 3 * (iters * reps + reps) as u64; // +reps: warm-up calls
    assert!(rec.flight_total() >= light_writes);
    assert_eq!(rec.flight_events().len(), rec.flight_capacity());
}

#[test]
fn history_flush_stays_off_the_hot_path() {
    let _turn = one_at_a_time();
    // The history store attaches to a recorder only at flush time: a
    // post-run `record_recorder` snapshot read. The hot-path primitives
    // of a recorder that is about to be (and then has been) flushed must
    // therefore cost the same as any live recorder — the same ≤5%/step
    // budget — and the flush itself must not perturb the recorder's
    // contents.
    let rec = Recorder::new();
    let dir = std::env::temp_dir().join(format!("mpas-overhead-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = mpas_telemetry::store::HistoryStore::open(&dir).expect("open store");
    let manifest = mpas_telemetry::store::RunManifest::new("5", 3, 0, "simd", 4, "serial", 0, 4);

    let (iters, reps) = (40_000, 5);
    let hot_mix = |rec: &Recorder| {
        let t_guard = min_time_per_call(
            || {
                let g = rec.time("bench.guard_seconds");
                std::hint::black_box(&g);
            },
            iters,
            reps,
        );
        let t_counter = min_time_per_call(
            || {
                rec.add("bench.counter", 1);
            },
            iters,
            reps,
        );
        let t_hist = min_time_per_call(
            || {
                rec.record("bench.hist", 1e-6);
            },
            iters,
            reps,
        );
        let light = t_counter.max(t_hist);
        TIMED_PER_STEP * t_guard + (CALLS_PER_STEP - TIMED_PER_STEP) * light
    };

    let before_flush = hot_mix(&rec);
    let snap_before = rec.snapshot();
    let m = store.record_recorder(&manifest, &rec).expect("flush");
    let snap_after = rec.snapshot();
    let after_flush = hot_mix(&rec);

    let mut sim = Simulation::builder()
        .mesh_level(3)
        .executor(Executor::Threaded { threads: 2 })
        .build();
    sim.run_steps(1); // warm-up
    let t0 = std::time::Instant::now();
    sim.run_steps(4);
    let step_seconds = t0.elapsed().as_secs_f64() / 4.0;

    for (label, overhead) in [("before", before_flush), ("after", after_flush)] {
        assert!(
            overhead <= 0.05 * step_seconds,
            "{label} the history flush, hot-path overhead {overhead:.3e}s/step \
             exceeds 5% of a measured step ({step_seconds:.3e}s)"
        );
    }
    // The flush read a snapshot; it did not drain, reset or otherwise
    // mutate the live recorder.
    assert_eq!(snap_before.counters, snap_after.counters);
    assert_eq!(snap_before.gauges, snap_after.gauges);
    assert_eq!(
        snap_before.histograms.keys().collect::<Vec<_>>(),
        snap_after.histograms.keys().collect::<Vec<_>>()
    );
    // And the run really landed: the store holds the flushed metrics.
    let rows = store.run_summary(&m.run_id).expect("summary");
    assert!(rows.iter().any(|r| r.metric == "bench.counter"));
    assert!(rows.iter().any(|r| r.metric == "bench.hist"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn per_step_gauge_values_are_within_5_percent_of_a_step() {
    let _turn = one_at_a_time();
    // The guards above price the recorder's primitives. With a live
    // recorder (every server job) `Simulation::run_steps` also computes
    // the values of its per-step gauges — mass drift, the h error norms
    // and the Courant number — after every step; price those against the
    // step they follow, both by the same min-of-reps harness.
    let mut sim = Simulation::builder()
        .mesh_level(4)
        .test_case(TestCase::Case5)
        .build();
    let reps = 5;
    let gauges_seconds = min_time_per_call(
        || {
            black_box(sim.mass_drift());
            black_box(sim.h_error_norms());
            black_box(sim.max_courant());
        },
        20,
        reps,
    );
    let step_seconds = min_time_per_call(|| sim.run_steps(1), 4, reps);
    assert!(
        gauges_seconds <= 0.05 * step_seconds,
        "per-step gauge values cost {gauges_seconds:.3e}s, over 5% of a measured \
         level-4 Williamson-5 step ({step_seconds:.3e}s)"
    );
}

#[test]
fn noop_recorder_stores_nothing() {
    let _turn = one_at_a_time();
    let rec = Recorder::noop();
    {
        let _g = rec.span_timed("measured", "swe.step", "swe.step_seconds");
        rec.add("c", 1);
        rec.set_gauge("g", 1.0);
        rec.record("h", 1.0);
        rec.event("e", &[]);
    }
    assert!(!rec.is_enabled());
    assert!(rec.spans().is_empty());
    assert!(rec.events().is_empty());
    let snap = rec.snapshot();
    assert!(snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty());
}
