//! Shared case/mesh/executor setup.
//!
//! The CLI (`swe_run`), the job server (`swe_serve`), and the tests all
//! translate the same external spellings — case numbers, `threaded:4`-style
//! executor specs, reorder names — into model inputs. This module is the
//! single home for those translations so a new spelling (or a new validity
//! rule) lands everywhere at once.

use crate::simulation::Executor;
use mpas_mesh::{Mesh, Reordering};
use mpas_swe::{ModelConfig, TestCase};
use std::sync::Arc;

/// Parse a scenario label into its test case: a bare Williamson digit
/// (`"1"`..`"6"`), a catalog name (`"williamson-N"`, `"galewsky"`,
/// `"tracer-case5"`). `alpha` is the flow-orientation angle used by cases
/// 1 and 2.
pub fn parse_case(case: &str, alpha: f64) -> Result<TestCase, String> {
    match case {
        "1" | "williamson-1" => Ok(TestCase::Case1 { alpha }),
        "2" | "williamson-2" => Ok(TestCase::Case2 { alpha }),
        "3" | "williamson-3" => Ok(TestCase::Case3),
        "4" | "williamson-4" => Ok(TestCase::Case4),
        "5" | "williamson-5" | "tracer-case5" => Ok(TestCase::Case5),
        "6" | "williamson-6" => Ok(TestCase::Case6),
        "galewsky" => Ok(TestCase::Galewsky),
        other => Err(format!(
            "unsupported case {other} (1-6, williamson-1..6, galewsky or tracer-case5)"
        )),
    }
}

/// Fold the catalog's per-scenario config switches into `config`: case 1
/// holds the wind fixed (`advection_only`), the tracer scenario carries
/// passive tracers. Labels outside the catalog leave `config` untouched.
pub fn apply_case_config(case: &str, config: &mut ModelConfig) {
    if let Some(sc) = mpas_swe::validation::scenario(case) {
        config.advection_only = sc.advection_only;
        config.n_tracers = sc.n_tracers;
    }
}

/// Parse an executor spec: `serial`, `threaded:N` or `hybrid:N:M`
/// (thread counts default to 2 when omitted).
pub fn parse_executor(spec: &str) -> Result<Executor, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    match parts[0] {
        "serial" => Ok(Executor::Serial),
        "threaded" => Ok(Executor::Threaded {
            threads: parts.get(1).and_then(|s| s.parse().ok()).unwrap_or(2),
        }),
        "hybrid" => Ok(Executor::Hybrid {
            cpu_threads: parts.get(1).and_then(|s| s.parse().ok()).unwrap_or(2),
            acc_threads: parts.get(2).and_then(|s| s.parse().ok()).unwrap_or(2),
        }),
        other => Err(format!(
            "unknown executor {other} (serial, threaded:N or hybrid:N:M)"
        )),
    }
}

/// Renumber `mesh` if a reordering is requested ([`Reordering::None`] is
/// free: the input `Arc` is returned untouched). This builds a second mesh
/// while the first is alive; it is for meshes built elsewhere (a density
/// mesh handed to the builder). [`build_mesh`] needs no copy.
pub fn apply_reorder(mesh: Arc<Mesh>, reorder: Reordering) -> Arc<Mesh> {
    if reorder == Reordering::None {
        return mesh;
    }
    let perm = reorder.permutation(&mesh);
    Arc::new(mesh.reordered(&perm))
}

/// Generate a level-`level` icosahedral mesh with `lloyd` relaxation
/// sweeps, numbered per `reorder` and assembled once, in that numbering
/// ([`mpas_mesh::generate_ordered`]). This is the canonical mesh
/// constructor behind [`crate::SimulationBuilder::build`] and the server's
/// shared-mesh cache.
pub fn build_mesh(level: u32, lloyd: u32, reorder: Reordering) -> Arc<Mesh> {
    Arc::new(mpas_mesh::generate_ordered(level, lloyd, reorder))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_labels_round_trip() {
        assert_eq!(parse_case("5", 0.0).unwrap(), TestCase::Case5);
        assert_eq!(parse_case("6", 0.0).unwrap(), TestCase::Case6);
        assert_eq!(
            parse_case("2", 0.25).unwrap(),
            TestCase::Case2 { alpha: 0.25 }
        );
        assert_eq!(
            parse_case("1", 0.1).unwrap(),
            TestCase::Case1 { alpha: 0.1 }
        );
        assert_eq!(parse_case("williamson-3", 0.0).unwrap(), TestCase::Case3);
        assert_eq!(parse_case("williamson-4", 0.0).unwrap(), TestCase::Case4);
        assert_eq!(parse_case("galewsky", 0.0).unwrap(), TestCase::Galewsky);
        assert_eq!(parse_case("tracer-case5", 0.0).unwrap(), TestCase::Case5);
        assert!(parse_case("7", 0.0).is_err());
    }

    #[test]
    fn catalog_config_switches_apply() {
        let mut cfg = ModelConfig::default();
        apply_case_config("williamson-1", &mut cfg);
        assert!(cfg.advection_only);
        assert_eq!(cfg.n_tracers, 0);
        let mut cfg = ModelConfig::default();
        apply_case_config("tracer-case5", &mut cfg);
        assert!(!cfg.advection_only);
        assert_eq!(cfg.n_tracers, 2);
        let mut cfg = ModelConfig::default();
        apply_case_config("not-a-case", &mut cfg);
        assert_eq!(cfg, ModelConfig::default());
    }

    #[test]
    fn executor_specs_parse_with_defaults() {
        assert_eq!(parse_executor("serial").unwrap(), Executor::Serial);
        assert_eq!(
            parse_executor("threaded:6").unwrap(),
            Executor::Threaded { threads: 6 }
        );
        assert_eq!(
            parse_executor("threaded").unwrap(),
            Executor::Threaded { threads: 2 }
        );
        assert_eq!(
            parse_executor("hybrid:3:1").unwrap(),
            Executor::Hybrid {
                cpu_threads: 3,
                acc_threads: 1
            }
        );
        assert!(parse_executor("cuda").is_err());
    }

    #[test]
    fn build_mesh_matches_inline_generate_and_reorder() {
        let direct = {
            let mesh = Arc::new(mpas_mesh::generate(2, 0));
            let perm = Reordering::Sfc.permutation(&mesh);
            Arc::new(mesh.reordered(&perm))
        };
        let via_setup = build_mesh(2, 0, Reordering::Sfc);
        assert_eq!(direct.n_cells(), via_setup.n_cells());
        assert_eq!(direct.x_cell, via_setup.x_cell);
    }

    #[test]
    fn apply_reorder_none_is_identity() {
        let mesh = build_mesh(1, 0, Reordering::None);
        let same = apply_reorder(mesh.clone(), Reordering::None);
        assert!(Arc::ptr_eq(&mesh, &same));
    }
}
