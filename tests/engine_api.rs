//! The unified engine/backend API: cross-backend smoke coverage,
//! streaming-session buffer reuse and the `EngineConfig` surface
//! (setters, struct and environment overrides resolve to one value).

use ecnn_repro::core::{Kernels, VerifyMode};
use ecnn_repro::prelude::*;
use ecnn_repro::tensor::{ImageKind, SyntheticImage};

/// A 96x96 output target for the tiny config-surface engines.
const TINY: RealTimeSpec = RealTimeSpec {
    name: "tiny96",
    width: 96,
    height: 96,
    fps: 30.0,
};

fn tiny_builder() -> EngineBuilder {
    Engine::builder()
        .ernet(ErNetSpec::new(ErNetTask::Dn, 1, 1, 0))
        .block(48)
        .realtime(TINY)
}

/// Every registered backend answers the same workload through the shared
/// trait surface.
#[test]
fn all_registered_backends_report_one_workload() {
    let workload = Workload::ernet(
        ErNetSpec::new(ErNetTask::Dn, 3, 1, 0),
        128,
        RealTimeSpec::UHD30,
    )
    .unwrap();
    let backends = registry();
    assert_eq!(backends.len(), 5, "ecnn + four baselines");
    let mut reports = Vec::new();
    for backend in &backends {
        let r = backend
            .frame_report(&workload)
            .unwrap_or_else(|e| panic!("{}: {e}", backend.name()));
        assert_eq!(r.backend, backend.name());
        assert_eq!(r.workload, "DnERNet-B3R1N0");
        assert!(
            r.fps.is_finite() && r.fps > 0.0,
            "{}: fps {}",
            backend.name(),
            r.fps
        );
        assert!(r.dram_bytes_per_frame > 0.0, "{}", backend.name());
        reports.push(r);
    }
    // The block-based flow wins the bandwidth comparison — the paper's
    // headline — and the table renders one row per backend.
    let ecnn = &reports[0];
    let frame_based = reports
        .iter()
        .find(|r| r.backend == "frame-based")
        .expect("frame-based registered");
    assert!(frame_based.dram_bytes_per_frame > 10.0 * ecnn.dram_bytes_per_frame);
    let table = FrameReport::table(&reports);
    assert_eq!(table.lines().count(), 1 + reports.len());
    for backend in &backends {
        assert!(
            table.contains(backend.name()),
            "table misses {}",
            backend.name()
        );
    }
}

/// A session streams consecutive frames without reallocating any of its
/// working buffers, and matches the one-shot path bit-for-bit.
#[test]
fn session_streams_without_per_frame_reallocation() {
    let engine = Engine::builder()
        .ernet(ErNetSpec::new(ErNetTask::Dn, 1, 1, 0))
        .block(40)
        .build()
        .unwrap();
    let frames: Vec<_> = (0..4)
        .map(|seed| SyntheticImage::new(ImageKind::Mixed, seed).rgb(72, 72))
        .collect();

    let mut session = engine.session();
    session.process(&frames[0]).unwrap();
    let ptrs = session.scratch_ptrs();
    for (i, frame) in frames.iter().enumerate().skip(1) {
        let streamed = session.process(frame).unwrap().clone();
        assert_eq!(
            session.scratch_ptrs(),
            ptrs,
            "frame {i} must reuse the session buffers"
        );
        let (one_shot, _) = engine.run_image(frame).unwrap();
        assert_eq!(streamed, one_shot, "frame {i} must match the one-shot path");
    }
    assert_eq!(session.frames(), frames.len());
    assert_eq!(
        session.frame_reallocs(),
        0,
        "no per-frame block-buffer reallocation"
    );
}

/// `EngineBuilder::build` rejects incoherent knob combinations with a
/// structured error instead of silently falling back.
#[test]
fn build_rejects_incoherent_config_combinations() {
    // Zero block size, via the all-at-once setter.
    let err = Engine::builder()
        .ernet(ErNetSpec::new(ErNetTask::Dn, 1, 1, 0))
        .engine_config(EngineConfig {
            block: 0,
            ..EngineConfig::new(48)
        })
        .build()
        .unwrap_err();
    assert!(matches!(err, EngineError::Config { param, .. } if param == "block"));

    // Verify(Off) is coherent, and the layout follows the plan's own
    // proof, as the narrow-accumulator license does: still coalesced.
    let engine = tiny_builder().verify(VerifyMode::Off).build().unwrap();
    assert!(engine.coalesced());
    assert!(engine.verify_report().is_none());
}

/// The builder setters, `engine_config` and the resolved `Engine::config`
/// agree: one struct is the source of truth.
#[test]
fn resolved_config_reflects_every_knob() {
    let cfg = EngineConfig {
        block: 48,
        kernels: Kernels::Reference,
        verify: VerifyMode::Strict,
        faults: None,
    };
    let via_setters = tiny_builder()
        .kernels(Kernels::Reference)
        .verify(VerifyMode::Strict)
        .build()
        .unwrap();
    let via_struct = Engine::builder()
        .ernet(ErNetSpec::new(ErNetTask::Dn, 1, 1, 0))
        .realtime(TINY)
        .engine_config(cfg.clone())
        .build()
        .unwrap();
    assert_eq!(via_setters.config(), &cfg);
    assert_eq!(via_struct.config(), &cfg);
    assert_eq!(via_setters.kernels(), Kernels::Reference);
    assert!(via_setters.coalesced());
    // The machine (hardware) config is a separate axis.
    assert_eq!(
        via_setters.machine().total_bb_bytes(),
        via_struct.machine().total_bb_bytes()
    );
}

/// The unified `ECNN_*` override namespace: parsed in one place, pure,
/// invalid values and retired variables tolerated but recorded; a later
/// invalid value of a repeated variable keeps the earlier applied one.
#[test]
fn env_override_namespace_parses_and_applies() {
    let overrides = EnvOverrides::parse([
        ("ECNN_KERNELS", "reference".to_string()),
        ("ECNN_WORKERS", "2".to_string()), // retired knob: noted, ignored
        ("ECNN_COALESCE", "false".to_string()), // retired knob: noted, ignored
        ("ECNN_VERIFY", "strict".to_string()),
        ("ECNN_VERIFY", "paranoid".to_string()), // invalid repeat: noted, ignored
        ("ECNN_FAULTS", "explode@1".to_string()), // invalid value: noted, ignored
    ]);
    assert_eq!(overrides.kernels, Some(Kernels::Reference));
    assert_eq!(overrides.verify, Some(VerifyMode::Strict));
    assert_eq!(overrides.notes.len(), 6);
    assert!(overrides
        .notes
        .contains(&"ECNN_VERIFY=paranoid ignored (invalid)".to_string()));
    for retired in ["ECNN_WORKERS=2", "ECNN_COALESCE=false"] {
        assert!(
            overrides
                .notes
                .contains(&format!("{retired} ignored (invalid)")),
            "{:?}",
            overrides.notes
        );
    }
    assert!(overrides.notes.iter().any(|n| n.contains("explode@1")));
    assert_eq!(overrides.faults, None);

    let mut cfg = EngineConfig::new(48);
    overrides.apply(&mut cfg);
    assert_eq!(cfg.kernels, Kernels::Reference);
    assert_eq!(cfg.verify, VerifyMode::Strict);
}
