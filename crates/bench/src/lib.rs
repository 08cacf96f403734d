//! The paper-claims ledger and the shared harness of the bench binaries.
//!
//! [`paper`] holds every table and figure of the paper's evaluation as a
//! section that returns typed rows beside the paper's values; the
//! `bench_paper` binary runs them and writes `BENCH_paper.json` (README,
//! "Paper claims"). Trained sections read `ECNN_BENCH_SCALE` (default 1,
//! see [`bench_scale`]) to lengthen their runs. The other binaries time
//! the kernels (`bench_kernels`), lint the shipped programs
//! (`ecnn_lint`) and sweep fault plans (`fault_matrix`).
//!
//! All eCNN deployments go through the unified [`Engine`] API; the
//! comparison sections additionally run the baseline flows through the
//! shared [`Backend`](ecnn_core::engine::Backend) registry.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
use ecnn_core::engine::{Engine, Workload};
use ecnn_core::SystemReport;
use ecnn_isa::compile::compile;
use ecnn_isa::params::QuantizedModel;
use ecnn_model::ernet::{ErNetSpec, ErNetTask};
use ecnn_model::{zoo, RealTimeSpec};

pub mod paper;

/// Effective eCNN peak used for budgets (matches `EcnnConfig::paper()`).
pub const ECNN_TOPS: f64 = 40.96;

/// Step-count multiplier for the trained sections: `ECNN_BENCH_SCALE`,
/// a positive integer, default 1. As with the engine's `ECNN_*`
/// overrides, an invalid value (`0` or unparseable) is ignored with a
/// one-line note on stderr.
pub fn bench_scale() -> usize {
    let value = std::env::var("ECNN_BENCH_SCALE").ok();
    parse_scale(value.as_deref()).unwrap_or_else(|| {
        if let Some(v) = value {
            eprintln!("ECNN_BENCH_SCALE={v} ignored (invalid), using 1");
        }
        1
    })
}

/// A valid `ECNN_BENCH_SCALE` value: a positive integer.
fn parse_scale(value: Option<&str>) -> Option<usize> {
    value?.parse().ok().filter(|&n| n > 0)
}

/// The model picks evaluated per real-time spec (the paper's published
/// picks where known, in-budget derivations elsewhere).
pub fn model_matrix() -> Vec<(RealTimeSpec, ErNetSpec, usize)> {
    vec![
        (
            RealTimeSpec::UHD30,
            ErNetSpec::new(ErNetTask::Sr4, 17, 3, 1),
            128,
        ),
        (
            RealTimeSpec::HD60,
            ErNetSpec::new(ErNetTask::Sr4, 24, 4, 0),
            128,
        ),
        (
            RealTimeSpec::HD30,
            ErNetSpec::new(ErNetTask::Sr4, 34, 4, 0),
            128,
        ),
        (
            RealTimeSpec::UHD30,
            ErNetSpec::new(ErNetTask::Sr2, 4, 2, 0),
            128,
        ),
        (
            RealTimeSpec::HD60,
            ErNetSpec::new(ErNetTask::Sr2, 8, 2, 0),
            128,
        ),
        (
            RealTimeSpec::HD30,
            ErNetSpec::new(ErNetTask::Sr2, 14, 3, 0),
            128,
        ),
        (
            RealTimeSpec::UHD30,
            ErNetSpec::new(ErNetTask::Dn, 3, 1, 0),
            128,
        ),
        (
            RealTimeSpec::HD60,
            ErNetSpec::new(ErNetTask::Dn, 8, 1, 0),
            128,
        ),
        (
            RealTimeSpec::HD30,
            ErNetSpec::new(ErNetTask::Dn, 12, 1, 6),
            128,
        ),
    ]
}

/// The Appendix A DnERNet-12ch picks.
pub fn dn12_matrix() -> Vec<(RealTimeSpec, ErNetSpec, usize)> {
    vec![
        (
            RealTimeSpec::UHD30,
            ErNetSpec::new(ErNetTask::Dn12, 8, 2, 5),
            256,
        ),
        (
            RealTimeSpec::HD60,
            ErNetSpec::new(ErNetTask::Dn12, 13, 3, 0),
            256,
        ),
        (
            RealTimeSpec::HD30,
            ErNetSpec::new(ErNetTask::Dn12, 19, 3, 15),
            256,
        ),
    ]
}

/// The 14 shipped paper models with deterministic demo parameters, as
/// `(name, quantized model, block size)`: the nine Table 4 ERNet picks
/// ([`model_matrix`]), the three Appendix A DnERNet-12ch picks
/// ([`dn12_matrix`]) and the Section 7.3 style-transfer pair, whose
/// decoder runs on the encoder's output block.
pub fn paper_models() -> Vec<(String, QuantizedModel, usize)> {
    let mut models: Vec<_> = model_matrix()
        .into_iter()
        .chain(dn12_matrix())
        .map(|(rt, spec, xi)| {
            let model = spec.build().expect("paper matrix specs are valid");
            (
                format!("{spec} @ {}", rt.name),
                QuantizedModel::uniform(&model),
                xi,
            )
        })
        .collect();
    let (enc, dec) = zoo::style_transfer();
    let qenc = QuantizedModel::uniform(&enc);
    let enc_do_side = compile(&qenc, 256)
        .expect("style encoder compiles")
        .program
        .do_side;
    models.push(("style-encoder".into(), qenc, 256));
    models.push((
        "style-decoder".into(),
        QuantizedModel::uniform(&dec),
        enc_do_side,
    ));
    models
}

/// Builds the paper-configuration engine for a spec with deterministic
/// demo parameters at real-time target `rt`.
pub fn engine_for(spec: ErNetSpec, xi: usize, rt: RealTimeSpec) -> Engine {
    Engine::builder()
        .ernet(spec)
        .block(xi)
        .realtime(rt)
        .build()
        .expect("paper models compile")
}

/// Builds an engine with the default UHD30 target (resolution-independent
/// uses: compiled program, parameter memory, …).
pub fn engine(spec: ErNetSpec, xi: usize) -> Engine {
    engine_for(spec, xi, RealTimeSpec::UHD30)
}

/// The unified workload for one matrix row (for backend comparisons).
pub fn workload_row(spec: ErNetSpec, xi: usize, rt: RealTimeSpec) -> Workload {
    Workload::ernet(spec, xi, rt).expect("valid spec")
}

/// System report for one matrix row.
pub fn report_row(spec: ErNetSpec, xi: usize, rt: RealTimeSpec) -> SystemReport {
    engine_for(spec, xi, rt).system_report()
}

/// Prints a horizontal rule with a title.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_scale_accepts_only_positive_integers() {
        assert_eq!(parse_scale(None), None);
        assert_eq!(parse_scale(Some("3")), Some(3));
        assert_eq!(parse_scale(Some("0")), None);
        assert_eq!(parse_scale(Some("ten")), None);
        assert_eq!(parse_scale(Some("-1")), None);
    }

    #[test]
    fn all_matrix_models_meet_their_specs() {
        for (rt, spec, xi) in model_matrix().into_iter().chain(dn12_matrix()) {
            let rep = report_row(spec, xi, rt);
            assert!(
                rep.meets_realtime,
                "{spec} @ {rt}: {:.1} fps",
                rep.frame.fps
            );
        }
    }

    #[test]
    fn all_matrix_models_fit_parameter_memory() {
        for (_, spec, xi) in model_matrix().into_iter().chain(dn12_matrix()) {
            let eng = engine(spec, xi);
            assert!(
                eng.compiled().packed.total_bytes() <= 1288 * 1024,
                "{spec}: {} B",
                eng.compiled().packed.total_bytes()
            );
        }
    }
}
