//! The wire-level job spec: what a tenant POSTs to `/jobs`, validated and
//! translated into the mesh-cache key and the `mpas-core` runner spec.

use crate::cache::MeshKey;
use mpas_core::{Executor, JobSpec};
use mpas_mesh::Reordering;
use mpas_swe::KernelBackend;
use mpas_telemetry::export::{parse_json, JsonValue};
use mpas_telemetry::json_escape;
use mpas_telemetry::store::RunManifest;

/// A validated job submission. Every field has a default, so `{}` is a
/// legal body (ten steps of case 5 on a level-4 mesh, serial, simd).
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Scenario label: a Williamson digit (`"1"`..`"6"`) or a catalog name
    /// (`"williamson-N"`, `"galewsky"`, `"tracer-case5"`).
    pub case: String,
    /// Case-2 flow-orientation angle, radians.
    pub alpha: f64,
    /// Icosahedral subdivision level.
    pub level: u32,
    /// Lloyd relaxation sweeps.
    pub lloyd: u32,
    /// RK-4 steps to run.
    pub steps: usize,
    /// Executor spec (`serial`, `threaded:N`, `hybrid:N:M`).
    pub executor: String,
    /// Mesh numbering.
    pub reorder: Reordering,
    /// Kernel tier (`scalar` or `simd`).
    pub backend: KernelBackend,
    /// Vertical layers (k > 1 requires `backend: simd` + serial executor).
    pub layers: usize,
    /// Progress/cancellation cadence in steps (0 = end only).
    pub progress_every: usize,
}

impl Default for JobRequest {
    fn default() -> Self {
        JobRequest {
            case: "5".to_string(),
            alpha: 0.0,
            level: 4,
            lloyd: 0,
            steps: 10,
            executor: "serial".to_string(),
            reorder: Reordering::None,
            backend: KernelBackend::Simd,
            layers: 1,
            progress_every: 1,
        }
    }
}

fn get_u32(obj: &JsonValue, key: &str, default: u32) -> Result<u32, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .filter(|x| *x >= 0.0 && x.fract() == 0.0)
            .map(|x| x as u32)
            .ok_or_else(|| format!("{key} must be a non-negative integer")),
    }
}

fn get_str(obj: &JsonValue, key: &str, default: &str) -> Result<String, String> {
    match obj.get(key) {
        None => Ok(default.to_string()),
        Some(v) => v
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("{key} must be a string")),
    }
}

impl JobRequest {
    /// Parse and validate a JSON submission body.
    pub fn parse(body: &str) -> Result<JobRequest, String> {
        let body = if body.trim().is_empty() { "{}" } else { body };
        let v = parse_json(body).map_err(|at| format!("bad JSON at byte {at}"))?;
        if v.as_obj().is_none() {
            return Err("body must be a JSON object".to_string());
        }
        let d = JobRequest::default();
        let req = JobRequest {
            case: get_str(&v, "case", &d.case)?,
            alpha: match v.get("alpha") {
                None => d.alpha,
                Some(a) => a
                    .as_f64()
                    .ok_or_else(|| "alpha must be a number".to_string())?,
            },
            level: get_u32(&v, "level", d.level)?,
            lloyd: get_u32(&v, "lloyd", d.lloyd)?,
            steps: get_u32(&v, "steps", d.steps as u32)? as usize,
            executor: get_str(&v, "executor", &d.executor)?,
            reorder: {
                let name = get_str(&v, "reorder", "none")?;
                Reordering::parse(&name)
                    .ok_or_else(|| format!("unknown reorder {name} (none, sfc or bfs)"))?
            },
            backend: {
                let name = get_str(&v, "backend", d.backend.name())?;
                KernelBackend::parse(&name)
                    .ok_or_else(|| format!("unknown backend {name} (scalar or simd)"))?
            },
            layers: get_u32(&v, "layers", d.layers as u32)? as usize,
            progress_every: get_u32(&v, "progress_every", d.progress_every as u32)? as usize,
        };
        // Fail fast at submission time, not on a worker.
        mpas_core::parse_case(&req.case, req.alpha)?;
        mpas_core::parse_executor(&req.executor)?;
        if req.steps == 0 {
            return Err("steps must be >= 1".to_string());
        }
        if req.level > 7 {
            return Err("level must be <= 7".to_string());
        }
        if req.layers == 0 {
            return Err("layers must be >= 1".to_string());
        }
        if req.layers > 1 {
            if req.backend != KernelBackend::Simd {
                return Err("layers > 1 requires backend simd".to_string());
            }
            if req.executor != "serial" {
                return Err("layers > 1 requires the serial executor".to_string());
            }
        }
        Ok(req)
    }

    /// The mesh-cache key this job shares.
    pub fn mesh_key(&self) -> MeshKey {
        MeshKey {
            level: self.level,
            lloyd: self.lloyd,
            reorder: self.reorder,
        }
    }

    /// The executor (already validated in [`JobRequest::parse`]).
    pub fn executor(&self) -> Executor {
        mpas_core::parse_executor(&self.executor).expect("validated at parse time")
    }

    /// The `mpas-core` runner spec for this request.
    pub fn spec(&self) -> JobSpec {
        let mut spec = JobSpec::new(
            mpas_core::parse_case(&self.case, self.alpha).expect("validated at parse time"),
            self.steps,
        );
        spec.executor = self.executor();
        spec.backend = self.backend;
        spec.layers = self.layers;
        spec.progress_every = self.progress_every;
        // Catalog switches (tracers, advection-only) ride on the label.
        let mut cfg = spec.config();
        mpas_core::apply_case_config(&self.case, &mut cfg);
        spec.n_tracers = cfg.n_tracers;
        spec.advection_only = cfg.advection_only;
        spec
    }

    /// The manifest the server records the job's telemetry under.
    pub fn manifest(&self) -> RunManifest {
        RunManifest {
            alpha: self.alpha,
            reorder: self.reorder.name().to_string(),
            ..RunManifest::new(
                &self.case,
                self.level,
                self.lloyd,
                self.backend.name(),
                self.layers,
                &self.executor,
                0,
                self.steps,
            )
        }
    }

    /// The request echoed back as JSON (inside status documents).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"case\": \"{}\", \"alpha\": {}, \"level\": {}, \"lloyd\": {}, \
             \"steps\": {}, \"executor\": \"{}\", \"reorder\": \"{}\", \
             \"backend\": \"{}\", \"layers\": {}, \
             \"progress_every\": {}}}",
            json_escape(&self.case),
            self.alpha,
            self.level,
            self.lloyd,
            self.steps,
            json_escape(&self.executor),
            self.reorder.name(),
            self.backend.name(),
            self.layers,
            self.progress_every,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_body_yields_defaults() {
        let req = JobRequest::parse("").unwrap();
        assert_eq!(req.case, "5");
        assert_eq!(req.level, 4);
        assert_eq!(req.steps, 10);
        assert_eq!(req.backend, KernelBackend::Simd);
        assert_eq!(req.layers, 1);
    }

    #[test]
    fn full_body_round_trips_through_to_json() {
        let body = "{\"case\": \"6\", \"level\": 3, \"steps\": 7, \
                    \"executor\": \"threaded:2\", \
                    \"reorder\": \"sfc\", \"backend\": \"scalar\", \"progress_every\": 2}";
        let req = JobRequest::parse(body).unwrap();
        assert_eq!(req.level, 3);
        assert_eq!(req.reorder, Reordering::Sfc);
        assert_eq!(req.backend, KernelBackend::Scalar);
        let echoed = JobRequest::parse(&req.to_json()).unwrap();
        assert_eq!(echoed.to_json(), req.to_json());
    }

    #[test]
    fn retired_fused_backend_is_rejected_and_its_field_ignored() {
        let err = JobRequest::parse("{\"backend\": \"fused\"}").unwrap_err();
        assert!(err.contains("scalar") && err.contains("simd"), "{err}");
        // The legacy boolean is an unknown key now, ignored like any other.
        let req = JobRequest::parse("{\"fused\": false}").unwrap();
        assert_eq!(req.backend, KernelBackend::Simd);
    }

    #[test]
    fn retired_policy_key_is_ignored() {
        // Jobs run no modeled scheduler, so `policy` is an unknown key.
        let req = JobRequest::parse("{\"policy\": \"fifo\", \"steps\": 3}").unwrap();
        assert_eq!(req.steps, 3);
        assert!(!req.to_json().contains("policy"));
    }

    #[test]
    fn retired_flight_capacity_key_is_ignored() {
        // The shared flight ring keeps one size for the server's life, so
        // no job can lift its bound: `flight_capacity` is an unknown key.
        let req = JobRequest::parse("{\"flight_capacity\": 1e12, \"steps\": 3}").unwrap();
        assert_eq!(req.steps, 3);
        assert!(!req.to_json().contains("flight_capacity"));
    }

    #[test]
    fn layered_jobs_are_validated_and_translate_to_the_spec() {
        let req =
            JobRequest::parse("{\"backend\": \"simd\", \"layers\": 4, \"steps\": 2}").unwrap();
        assert_eq!(req.layers, 4);
        let spec = req.spec();
        assert_eq!(spec.backend, KernelBackend::Simd);
        assert_eq!(spec.layers, 4);
        // Layered constraints are rejected at submission time.
        assert!(JobRequest::parse("{\"backend\": \"scalar\", \"layers\": 4}").is_err());
        assert!(JobRequest::parse(
            "{\"backend\": \"simd\", \"layers\": 4, \"executor\": \"threaded:2\"}"
        )
        .is_err());
        assert!(JobRequest::parse("{\"layers\": 0}").is_err());
        assert!(JobRequest::parse("{\"backend\": \"avx\"}").is_err());
    }

    #[test]
    fn catalog_cases_are_accepted() {
        for case in [
            "1",
            "3",
            "4",
            "williamson-1",
            "williamson-6",
            "galewsky",
            "tracer-case5",
        ] {
            let req = JobRequest::parse(&format!("{{\"case\": \"{case}\"}}")).unwrap();
            assert_eq!(req.case, case);
            let _ = req.spec();
        }
        let spec = JobRequest::parse("{\"case\": \"tracer-case5\"}")
            .unwrap()
            .spec();
        assert_eq!(spec.n_tracers, 2);
        let spec = JobRequest::parse("{\"case\": \"williamson-1\"}")
            .unwrap()
            .spec();
        assert!(spec.advection_only);
    }

    #[test]
    fn invalid_fields_are_rejected_at_submission() {
        assert!(JobRequest::parse("{\"case\": \"7\"}").is_err());
        assert!(JobRequest::parse("{\"executor\": \"cuda\"}").is_err());
        assert!(JobRequest::parse("{\"steps\": 0}").is_err());
        assert!(JobRequest::parse("{\"level\": 9}").is_err());
        assert!(JobRequest::parse("{\"backend\": 1}").is_err());
        assert!(JobRequest::parse("not json").is_err());
        assert!(JobRequest::parse("[1,2]").is_err());
    }

    #[test]
    fn spec_translation_preserves_the_request() {
        let req = JobRequest::parse("{\"steps\": 3, \"executor\": \"hybrid:2:1\"}").unwrap();
        let spec = req.spec();
        assert_eq!(spec.steps, 3);
        assert_eq!(
            spec.executor,
            Executor::Hybrid {
                cpu_threads: 2,
                acc_threads: 1
            }
        );
        assert_eq!(req.mesh_key().level, 4);
    }
}
