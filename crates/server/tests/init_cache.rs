//! Shared initial fields change no bit. For every catalog scenario and
//! every engine a job can ask for, the second of two identical jobs finds
//! its initial fields in the artifact cache and returns the first job's
//! result bit for bit, and so does a job that shares nothing. A new case
//! or dt samples anew.

use mpas_core::{run_job, JobResult, JobSpec};
use mpas_server::{ArtifactCache, JobRequest};
use mpas_swe::validation::CATALOG;
use mpas_telemetry::{names, Recorder};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Serial simd, serial scalar, threaded and layered, as request fields.
const ENGINES: [&str; 4] = [
    "\"backend\": \"simd\"",
    "\"backend\": \"scalar\"",
    "\"executor\": \"threaded:2\"",
    "\"layers\": 4",
];

fn request(case: &str, engine: &str) -> JobRequest {
    JobRequest::parse(&format!(
        "{{\"case\": \"{case}\", \"level\": 2, \"steps\": 3, {engine}}}"
    ))
    .expect("valid request")
}

/// Run `spec` the way a server worker does: every shared artifact through
/// `cache`.
fn cached_job(cache: &ArtifactCache, request: &JobRequest, spec: &JobSpec) -> JobResult {
    let art = cache.job_artifacts(request.mesh_key(), spec);
    let cancel = AtomicBool::new(false);
    run_job(
        spec,
        art.mesh,
        Some(art.coeffs),
        Some(art.init),
        &Recorder::noop(),
        &cancel,
        |_| {},
    )
    .expect("job completes")
}

fn init_misses(rec: &Recorder) -> Option<u64> {
    rec.snapshot().counter(names::SERVER_CACHE_INIT_MISS)
}

#[test]
fn a_cache_hit_job_returns_the_cache_miss_jobs_bits() {
    for sc in &CATALOG {
        for engine in ENGINES {
            let tag = format!("{} {{{engine}}}", sc.name);
            let request = request(sc.name, engine);
            let spec = request.spec();
            let rec = Recorder::new();
            let cache = ArtifactCache::new(rec.clone());
            let miss = cached_job(&cache, &request, &spec);
            assert_eq!(init_misses(&rec), Some(1), "{tag}: first job samples");
            let hit = cached_job(&cache, &request, &spec);
            assert_eq!(init_misses(&rec), Some(1), "{tag}: second job hits");
            let art = cache.job_artifacts(request.mesh_key(), &spec);
            let cancel = AtomicBool::new(false);
            let unshared = run_job(
                &spec,
                art.mesh,
                None,
                None,
                &Recorder::noop(),
                &cancel,
                |_| {},
            )
            .expect("job completes");
            for (what, r) in [("cache hit", &hit), ("unshared", &unshared)] {
                assert_eq!(r.state_hash, miss.state_hash, "{tag}: {what} state");
                assert_eq!(
                    r.h_err_l2.to_bits(),
                    miss.h_err_l2.to_bits(),
                    "{tag}: {what} h_err_l2"
                );
                assert_eq!(
                    r.mass_drift.to_bits(),
                    miss.mass_drift.to_bits(),
                    "{tag}: {what} mass_drift"
                );
            }
        }
    }
}

#[test]
fn a_new_case_or_dt_samples_anew() {
    let rec = Recorder::new();
    let cache = ArtifactCache::new(rec.clone());
    let base = request("5", ENGINES[0]);
    let spec = base.spec();
    let first = cached_job(&cache, &base, &spec);
    assert_eq!(init_misses(&rec), Some(1));

    let half_dt = JobSpec {
        dt: Some(0.5 * first.dt),
        ..spec.clone()
    };
    let shorter = cached_job(&cache, &base, &half_dt);
    assert_eq!(init_misses(&rec), Some(2), "a new dt must sample anew");
    assert_eq!(shorter.dt, 0.5 * first.dt);

    let case6 = request("6", ENGINES[0]);
    cached_job(&cache, &case6, &case6.spec());
    assert_eq!(init_misses(&rec), Some(3), "a new case must sample anew");

    // The same job again finds all three artifacts and returns the same
    // bits; the threaded engine shares the serial entry (the executor is
    // not part of what is sampled).
    let again = cached_job(&cache, &base, &spec);
    let threaded = request("5", ENGINES[2]);
    let art = cache.job_artifacts(threaded.mesh_key(), &threaded.spec());
    let serial = cache.job_artifacts(base.mesh_key(), &spec);
    assert!(Arc::ptr_eq(&art.init, &serial.init));
    assert_eq!(init_misses(&rec), Some(3));
    assert_eq!(again.state_hash, first.state_hash);
}
