//! Keyed build-once caches for the expensive immutable artifacts tenants
//! share: meshes (keyed by level/lloyd/reorder), fused-coefficient tables
//! (keyed by mesh key + a digest of the numerical config) and the initial
//! fields a job starts from (keyed by mesh key, case, config digest and
//! the resolved dt).
//!
//! Concurrency contract: the first request for a key builds while holding
//! only that key's slot lock, so concurrent first requests for the *same*
//! key block and then all receive the one built `Arc`, while requests for
//! *different* keys build in parallel. The cache-miss counters therefore
//! count actual constructions — the concurrency test pins the mesh miss
//! counter to exactly 1 for N identical tenants.

use mpas_core::JobSpec;
use mpas_mesh::{Mesh, Reordering};
use mpas_swe::{InitialFields, KernelBackend, KernelCoeffs, ModelConfig, TestCase};
use mpas_telemetry::digest::Fnv1a;
use mpas_telemetry::{names, Recorder};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Identity of a shared mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeshKey {
    /// Icosahedral subdivision level.
    pub level: u32,
    /// Lloyd relaxation sweeps.
    pub lloyd: u32,
    /// Cell/edge/vertex numbering.
    pub reorder: Reordering,
}

/// Identity of a shared coefficient table: the mesh it was built for plus
/// the numerical options that shaped it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoeffsKey {
    /// The mesh the table was built on.
    pub mesh: MeshKey,
    /// FNV-1a digest of every [`ModelConfig`] field (see [`config_digest`]).
    pub config: u64,
}

/// Identity of shared initial fields: the mesh they were sampled on, the
/// scenario, the numerical options (tracer count, the forcing's kernels)
/// and the resolved time step (the forcing's APVM term reads it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InitKey {
    /// The mesh the fields were sampled on.
    pub mesh: MeshKey,
    /// The scenario's label ([`TestCase::name`]).
    pub case: &'static str,
    /// Bit pattern of Williamson 1/2's flow-axis tilt (0 for other cases).
    pub alpha: u64,
    /// FNV-1a digest of every [`ModelConfig`] field (see [`config_digest`]).
    pub config: u64,
    /// Bit pattern of the resolved time step, seconds.
    pub dt: u64,
}

impl InitKey {
    /// The key of `test_case` on `mesh` under `config` at step `dt`.
    pub fn new(mesh: MeshKey, config: &ModelConfig, test_case: TestCase, dt: f64) -> Self {
        let alpha = match test_case {
            TestCase::Case1 { alpha } | TestCase::Case2 { alpha } => alpha.to_bits(),
            _ => 0,
        };
        InitKey {
            mesh,
            case: test_case.name(),
            alpha,
            config: config_digest(config),
            dt: dt.to_bits(),
        }
    }
}

/// The shared artifacts one job runs on.
pub struct JobArtifacts {
    /// The mesh.
    pub mesh: Arc<Mesh>,
    /// The coefficient table for the mesh and the job's config.
    pub coeffs: Arc<KernelCoeffs>,
    /// The fields the job starts from.
    pub init: Arc<InitialFields>,
}

/// FNV-1a over the bit patterns of every `ModelConfig` field, so any
/// config change — including ones that do not affect coefficient values
/// today — gets its own cache entry rather than a silently stale table.
pub fn config_digest(config: &ModelConfig) -> u64 {
    let backend_i = KernelBackend::ALL
        .iter()
        .position(|b| *b == config.kernel_backend)
        .expect("backend listed in ALL") as u64;
    let mut d = Fnv1a::new();
    for w in [
        config.gravity.to_bits(),
        config.apvm_factor.to_bits(),
        config.del2_viscosity.to_bits(),
        config.del4_viscosity.to_bits(),
        config.high_order_h_edge as u64,
        config.advection_only as u64,
        backend_i,
        config.n_tracers as u64,
        config.n_layers as u64,
    ] {
        d.write_u64(w);
    }
    d.finish()
}

type Slot<T> = Arc<Mutex<Option<Arc<T>>>>;

/// The shared-artifact cache. Cheap to clone a handle to via `Arc`.
pub struct ArtifactCache {
    meshes: Mutex<HashMap<MeshKey, Slot<Mesh>>>,
    coeffs: Mutex<HashMap<CoeffsKey, Slot<KernelCoeffs>>>,
    inits: Mutex<HashMap<InitKey, Slot<InitialFields>>>,
    rec: Recorder,
}

impl ArtifactCache {
    /// An empty cache recording hit/miss/build-time telemetry into `rec`.
    pub fn new(rec: Recorder) -> Self {
        ArtifactCache {
            meshes: Mutex::new(HashMap::new()),
            coeffs: Mutex::new(HashMap::new()),
            inits: Mutex::new(HashMap::new()),
            rec,
        }
    }

    fn slot<K: Copy + Eq + std::hash::Hash, T>(
        map: &Mutex<HashMap<K, Slot<T>>>,
        key: K,
    ) -> Slot<T> {
        map.lock()
            .expect("cache map poisoned")
            .entry(key)
            .or_default()
            .clone()
    }

    fn get_or_build<K, T>(
        &self,
        map: &Mutex<HashMap<K, Slot<T>>>,
        key: K,
        miss_metric: &str,
        build_ms_metric: &str,
        build: impl FnOnce() -> T,
    ) -> Arc<T>
    where
        K: Copy + Eq + std::hash::Hash,
    {
        let slot = Self::slot(map, key);
        let mut guard = slot.lock().expect("cache slot poisoned");
        if let Some(ready) = guard.as_ref() {
            self.rec.add(names::SERVER_CACHE_HIT, 1);
            return ready.clone();
        }
        let t0 = Instant::now();
        let built = Arc::new(build());
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;
        *guard = Some(built.clone());
        self.rec.add(names::SERVER_CACHE_MISS, 1);
        self.rec.add(miss_metric, 1);
        self.rec.set_gauge(build_ms_metric, build_ms);
        built
    }

    /// The shared mesh for `key`, building it on first use.
    pub fn mesh(&self, key: MeshKey) -> Arc<Mesh> {
        self.get_or_build(
            &self.meshes,
            key,
            names::SERVER_CACHE_MESH_MISS,
            names::MESH_BUILD_MS,
            || {
                let mesh = mpas_core::build_mesh(key.level, key.lloyd, key.reorder);
                Arc::try_unwrap(mesh).unwrap_or_else(|arc| (*arc).clone())
            },
        )
    }

    /// The shared coefficient table for `mesh` under `config`, building it
    /// on first use. `key` must be the key `mesh` was obtained with.
    pub fn kernel_coeffs(
        &self,
        key: MeshKey,
        mesh: &Arc<Mesh>,
        config: &ModelConfig,
    ) -> Arc<KernelCoeffs> {
        let ck = CoeffsKey {
            mesh: key,
            config: config_digest(config),
        };
        self.get_or_build(
            &self.coeffs,
            ck,
            names::SERVER_CACHE_COEFFS_MISS,
            names::COEFFS_BUILD_MS,
            || KernelCoeffs::build(mesh, config),
        )
    }

    /// The shared initial fields of `test_case` on `mesh` under `config`
    /// at step `dt` (`None` resolves to the mesh's stable default before
    /// the lookup), sampling them on first use with `kc`, the table built
    /// for `mesh` and `config`. `key` must be the key `mesh` was obtained
    /// with.
    pub fn initial_fields(
        &self,
        key: MeshKey,
        mesh: &Arc<Mesh>,
        config: &ModelConfig,
        test_case: TestCase,
        kc: &KernelCoeffs,
        dt: Option<f64>,
    ) -> Arc<InitialFields> {
        let dt = dt.unwrap_or_else(|| ModelConfig::suggested_dt(mesh));
        self.get_or_build(
            &self.inits,
            InitKey::new(key, config, test_case, dt),
            names::SERVER_CACHE_INIT_MISS,
            names::INIT_BUILD_MS,
            || InitialFields::sample(mesh, config, test_case, kc, Some(dt)),
        )
    }

    /// Every shared artifact `spec` runs with on the mesh of `key`,
    /// building (or sampling) whatever is missing.
    pub fn job_artifacts(&self, key: MeshKey, spec: &JobSpec) -> JobArtifacts {
        let mesh = self.mesh(key);
        let config = spec.config();
        let coeffs = self.kernel_coeffs(key, &mesh, &config);
        let init = self.initial_fields(key, &mesh, &config, spec.test_case, &coeffs, spec.dt);
        JobArtifacts { mesh, coeffs, init }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(level: u32) -> MeshKey {
        MeshKey {
            level,
            lloyd: 0,
            reorder: Reordering::None,
        }
    }

    #[test]
    fn same_key_returns_the_same_arc_and_counts_one_miss() {
        let rec = Recorder::new();
        let cache = ArtifactCache::new(rec.clone());
        let a = cache.mesh(key(2));
        let b = cache.mesh(key(2));
        assert!(Arc::ptr_eq(&a, &b));
        let snap = rec.snapshot();
        assert_eq!(snap.counter(names::SERVER_CACHE_MESH_MISS), Some(1));
        assert_eq!(snap.counter(names::SERVER_CACHE_HIT), Some(1));
        assert!(snap.gauge(names::MESH_BUILD_MS).unwrap() > 0.0);
    }

    #[test]
    fn concurrent_first_requests_build_exactly_once() {
        let rec = Recorder::new();
        let cache = Arc::new(ArtifactCache::new(rec.clone()));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = cache.clone();
                std::thread::spawn(move || cache.mesh(key(3)))
            })
            .collect();
        let meshes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for m in &meshes[1..] {
            assert!(Arc::ptr_eq(&meshes[0], m));
        }
        assert_eq!(
            rec.snapshot().counter(names::SERVER_CACHE_MESH_MISS),
            Some(1)
        );
    }

    #[test]
    fn coeffs_key_separates_configs_on_one_mesh() {
        let rec = Recorder::new();
        let cache = ArtifactCache::new(rec.clone());
        let mk = key(2);
        let mesh = cache.mesh(mk);
        let base = ModelConfig::default();
        let viscous = ModelConfig {
            del2_viscosity: 1e4,
            ..Default::default()
        };
        let a = cache.kernel_coeffs(mk, &mesh, &base);
        let b = cache.kernel_coeffs(mk, &mesh, &base);
        let c = cache.kernel_coeffs(mk, &mesh, &viscous);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(
            rec.snapshot().counter(names::SERVER_CACHE_COEFFS_MISS),
            Some(2)
        );
    }

    #[test]
    fn concurrent_first_init_requests_sample_exactly_once() {
        let rec = Recorder::new();
        let cache = Arc::new(ArtifactCache::new(rec.clone()));
        let mk = key(3);
        let mesh = cache.mesh(mk);
        let config = ModelConfig::default();
        let kc = cache.kernel_coeffs(mk, &mesh, &config);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (cache, mesh, kc) = (cache.clone(), mesh.clone(), kc.clone());
                std::thread::spawn(move || {
                    cache.initial_fields(mk, &mesh, &config, TestCase::Case4, &kc, None)
                })
            })
            .collect();
        let inits: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for init in &inits[1..] {
            assert!(Arc::ptr_eq(&inits[0], init));
        }
        let snap = rec.snapshot();
        assert_eq!(snap.counter(names::SERVER_CACHE_INIT_MISS), Some(1));
        assert!(snap.gauge(names::INIT_BUILD_MS).unwrap() > 0.0);
    }

    #[test]
    fn init_key_separates_cases_configs_and_dt() {
        let rec = Recorder::new();
        let cache = ArtifactCache::new(rec.clone());
        let mk = key(2);
        let mesh = cache.mesh(mk);
        let base = ModelConfig::default();
        let tracers = ModelConfig {
            n_tracers: 2,
            ..Default::default()
        };
        let kc = cache.kernel_coeffs(mk, &mesh, &base);
        let kc_tracers = cache.kernel_coeffs(mk, &mesh, &tracers);
        let dt = ModelConfig::suggested_dt(&mesh);
        let get = |config: &ModelConfig, kc: &KernelCoeffs, tc: TestCase, dt: Option<f64>| {
            cache.initial_fields(mk, &mesh, config, tc, kc, dt)
        };
        let a = get(&base, &kc, TestCase::Case5, None);
        // The default dt is resolved before the lookup.
        assert!(Arc::ptr_eq(&a, &get(&base, &kc, TestCase::Case5, Some(dt))));
        let others = [
            get(&base, &kc, TestCase::Case6, None),
            get(&base, &kc, TestCase::Case2 { alpha: 0.0 }, None),
            get(&base, &kc, TestCase::Case2 { alpha: 0.3 }, None),
            get(&tracers, &kc_tracers, TestCase::Case5, None),
            get(&base, &kc, TestCase::Case5, Some(0.5 * dt)),
        ];
        for (i, x) in others.iter().enumerate() {
            assert!(!Arc::ptr_eq(&a, x), "entry {i} shares the base entry");
            for y in &others[i + 1..] {
                assert!(!Arc::ptr_eq(x, y));
            }
        }
        assert_eq!(others[3].state.n_tracers(), 2);
        assert_eq!(others[4].dt, 0.5 * dt);
        assert_eq!(
            rec.snapshot().counter(names::SERVER_CACHE_INIT_MISS),
            Some(1 + others.len() as u64)
        );
    }

    #[test]
    fn config_digest_is_field_sensitive() {
        let base = ModelConfig::default();
        let tweaked = ModelConfig {
            apvm_factor: base.apvm_factor + 0.125,
            ..base
        };
        let again = ModelConfig {
            apvm_factor: base.apvm_factor + 0.125,
            ..base
        };
        assert_ne!(config_digest(&base), config_digest(&tweaked));
        assert_eq!(config_digest(&tweaked), config_digest(&again));
        // The kernel tier and the layer count key the cache too.
        for backend in KernelBackend::ALL {
            if backend == base.kernel_backend {
                continue;
            }
            let other = ModelConfig {
                kernel_backend: backend,
                ..base
            };
            assert_ne!(config_digest(&base), config_digest(&other));
        }
        let layered = ModelConfig {
            kernel_backend: KernelBackend::Simd,
            n_layers: 4,
            ..base
        };
        let flat_simd = ModelConfig {
            kernel_backend: KernelBackend::Simd,
            ..base
        };
        assert_ne!(config_digest(&layered), config_digest(&flat_simd));
    }
}
