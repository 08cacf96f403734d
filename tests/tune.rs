//! Plan-time autotuner: static culling, strict admission, tuning-record
//! replay and the unified `EngineConfig` coherence checks.
//!
//! Everything here runs tiny denoising models at tiny custom
//! [`RealTimeSpec`]s so the timed stage stays in the millisecond range;
//! the full eSR-4K acceptance run lives in the release-mode
//! `bench_autotune` binary.

use ecnn_repro::core::config::MAX_WORKERS;
use ecnn_repro::core::tune::CandidateStatus;
use ecnn_repro::core::{Kernels, VerifyMode};
use ecnn_repro::prelude::*;
use ecnn_repro::tensor::{ImageKind, SyntheticImage};

/// A 96x96 output target: small enough that even the debug-mode timed
/// stage is a handful of milliseconds per frame.
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

fn tiny_space() -> TuneSpace {
    TuneSpace {
        // On the 96x96 target, 32 (16 blocks of 24x24 output) ranks
        // above the builder's 48 (9 blocks of 40x40, a third of it
        // off-frame), so the shortlist can leave the default block size.
        blocks: vec![48, 32],
        workers: vec![1, 2],
        kernels: vec![Kernels::Simd, Kernels::Reference],
    }
}

fn tiny_options() -> TuneOptions {
    TuneOptions {
        space: tiny_space(),
        shortlist: 2,
        ..TuneOptions::default()
    }
}

/// The tentpole contract: candidates are admitted under Strict, ranked
/// statically, at least half the space never reaches timing, the default
/// config is always timed, and the pinned winner is measured no slower
/// than the default.
#[test]
fn autotune_culls_statically_and_pins_a_measured_winner() {
    let (engine, report) = tiny_builder().autotune(&tiny_options()).unwrap();

    // 2 blocks x 2 workers x 2 kernels; the default config (48, serial,
    // SIMD) is part of the cross product.
    assert_eq!(report.enumerated, 8);
    assert_eq!(report.rejected, 0, "both block sizes admit: {report}");
    assert_eq!(
        report.rejected + report.culled + report.timed,
        report.enumerated,
        "every candidate is accounted for"
    );
    assert!(
        report.static_cull_permille() >= 500,
        "at least half the space must be eliminated before timing: {report}"
    );
    // The shortlist (2) plus possibly the default config.
    assert!(report.timed >= 2 && report.timed <= 3, "{report}");

    // The default config was timed, and the winner is measured no slower.
    let default_ns = report
        .default_ns_per_frame
        .expect("the default config is always timed");
    assert!(
        report.record.measured_ns_per_frame <= default_ns,
        "winner {} ns must be <= default {} ns",
        report.record.measured_ns_per_frame,
        default_ns
    );

    // The returned engine runs the pinned config, strict-verified.
    assert_eq!(engine.config(), &report.record.config);
    assert_eq!(engine.config().verify, VerifyMode::Strict);
    assert!(engine.verify_report().is_some());

    // The winner is one of the timed candidates.
    assert!(report.candidates.iter().any(|c| c.config
        == report.record.config
        && matches!(c.status, CandidateStatus::Timed(ns) if ns == report.record.measured_ns_per_frame)));
}

/// Round trip: serialize the pinned record, replay it through
/// `EngineBuilder::tuned`, and get an identical resolved config and
/// bit-identical pixels.
#[test]
fn tuning_record_replays_to_identical_config_and_output() {
    let (engine, report) = tiny_builder().autotune(&tiny_options()).unwrap();
    let json = report.record.to_json();
    let record = TuningRecord::from_json(&json).unwrap();
    assert_eq!(record, report.record);

    // No block setter: an explicit one would beat the record's, and the
    // winner may sit at either block size of the space.
    let replayed = Engine::builder()
        .ernet(ErNetSpec::new(ErNetTask::Dn, 1, 1, 0))
        .realtime(TINY)
        .tuned(record.clone())
        .build()
        .unwrap();
    assert_eq!(replayed.config(), engine.config());

    let img = SyntheticImage::new(ImageKind::Mixed, 11).rgb(96, 96);
    let (tuned_out, _) = engine.run_image_auto(&img).unwrap();
    let (replayed_out, _) = replayed.run_image_auto(&img).unwrap();
    assert_eq!(tuned_out, replayed_out, "replay must be bit-identical");
}

/// A record tuned for one deployment cannot silently misconfigure
/// another: a different model or resolution is a structured error.
#[test]
fn tuning_record_rejects_fingerprint_mismatch() {
    let (_, report) = tiny_builder().autotune(&tiny_options()).unwrap();
    let record = report.record;

    // Same model, different resolution.
    let other_spec = RealTimeSpec {
        name: "tiny144",
        width: 144,
        height: 144,
        fps: 30.0,
    };
    let err = Engine::builder()
        .ernet(ErNetSpec::new(ErNetTask::Dn, 1, 1, 0))
        .realtime(other_spec)
        .tuned(record.clone())
        .build()
        .unwrap_err();
    match err {
        EngineError::Config { param, detail } => {
            assert_eq!(param, "tuning-record");
            assert!(detail.contains("fingerprint mismatch"), "{detail}");
        }
        other => panic!("expected Config error, got {other:?}"),
    }

    // Different model, same resolution.
    let err = Engine::builder()
        .ernet(ErNetSpec::new(ErNetTask::Dn, 2, 1, 0))
        .realtime(TINY)
        .tuned(record.clone())
        .build()
        .unwrap_err();
    assert!(matches!(err, EngineError::Config { param, .. } if param == "tuning-record"));

    // The matching workload still replays fine.
    assert!(tiny_builder().tuned(record).build().is_ok());
}

/// A candidate the strict build rejects (incoherent worker count, block
/// the compiler refuses) is never timed, and can never be pinned.
#[test]
fn autotune_never_times_a_rejected_candidate() {
    let opts = TuneOptions {
        space: TuneSpace {
            // 7 is not a feasible block side for this model; 0 workers is
            // incoherent. Both must die at admission, not at timing.
            blocks: vec![48, 7],
            workers: vec![1, 0],
            kernels: vec![Kernels::Simd],
        },
        shortlist: 8,
        ..TuneOptions::default()
    };
    let (_, report) = tiny_builder().autotune(&opts).unwrap();
    assert!(report.rejected >= 2, "{report}");
    for c in &report.candidates {
        if matches!(c.status, CandidateStatus::Rejected(_)) {
            assert_ne!(
                c.config, report.record.config,
                "a rejected config must never be pinned"
            );
        }
    }
    // The pinned config still admits under Strict on a fresh build.
    assert!(tiny_builder()
        .engine_config(report.record.config)
        .build()
        .is_ok());
}

/// `EngineBuilder::build` rejects incoherent knob combinations with a
/// structured error instead of silently falling back.
#[test]
fn build_rejects_incoherent_config_combinations() {
    // Zero workers, and more than one OS thread each could sensibly
    // take: both are rejected before any session (or thread) exists.
    let err = tiny_builder().workers(0).build().unwrap_err();
    assert!(matches!(err, EngineError::Config { param, .. } if param == "workers"));
    let err = tiny_builder().workers(MAX_WORKERS + 1).build().unwrap_err();
    assert!(
        matches!(err, EngineError::Config { param, .. } if param == "workers"),
        "got {err:?}"
    );
    let err = tiny_builder().workers(100_000).build().unwrap_err();
    assert!(matches!(err, EngineError::Config { param, .. } if param == "workers"));

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
/// agree: one serializable struct is the source of truth.
#[test]
fn resolved_config_reflects_every_knob() {
    let cfg = EngineConfig {
        block: 48,
        workers: 3,
        kernels: Kernels::Reference,
        verify: VerifyMode::Strict,
        faults: None,
    };
    let via_setters = tiny_builder()
        .workers(3)
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
    assert_eq!(via_setters.workers(), 3);
    assert_eq!(via_setters.kernels(), Kernels::Reference);
    assert!(via_setters.coalesced());
    // The machine (hardware) config is a separate axis.
    assert_eq!(
        via_setters.machine().total_bb_bytes(),
        via_struct.machine().total_bb_bytes()
    );
    // And the config itself round-trips through its JSON form.
    assert_eq!(EngineConfig::from_json(&cfg.to_json()).unwrap(), cfg);
}

/// `run_image_auto` / `async_session_auto` follow the resolved worker
/// count and stay bit-identical to the serial path.
#[test]
fn auto_paths_follow_resolved_workers_bit_identically() {
    let serial = tiny_builder().build().unwrap();
    let parallel = tiny_builder().workers(2).build().unwrap();
    assert_eq!(parallel.workers(), 2);

    let img = SyntheticImage::new(ImageKind::Texture, 3).rgb(96, 96);
    let (serial_out, _) = serial.run_image(&img).unwrap();
    let (auto_out, _) = parallel.run_image_auto(&img).unwrap();
    assert_eq!(auto_out, serial_out);

    let mut pipelined = parallel.async_session_auto();
    assert_eq!(pipelined.workers(), 2);
    let ticket = pipelined.submit(img.clone()).unwrap();
    let (pipe_out, _) = pipelined.wait(ticket).unwrap();
    assert_eq!(pipe_out, serial_out);
}

/// The unified `ECNN_*` override namespace: parsed in one place, pure,
/// invalid values tolerated but recorded.
#[test]
fn env_override_namespace_parses_and_applies() {
    let overrides = EnvOverrides::parse([
        ("ECNN_KERNELS", "reference".to_string()),
        ("ECNN_WORKERS", "2".to_string()),
        ("ECNN_COALESCE", "false".to_string()), // no such knob: noted, ignored
        ("ECNN_VERIFY", "strict".to_string()),
        ("ECNN_WORKERS", "banana".to_string()), // later invalid value: noted, ignored
    ]);
    assert_eq!(overrides.kernels, Some(Kernels::Reference));
    assert_eq!(overrides.verify, Some(VerifyMode::Strict));
    assert_eq!(overrides.notes.len(), 5);
    assert!(overrides
        .notes
        .contains(&"ECNN_COALESCE=false ignored (invalid)".to_string()));
    assert!(overrides.notes.iter().any(|n| n.contains("banana")));

    let mut cfg = EngineConfig::new(48);
    overrides.apply(&mut cfg);
    assert_eq!(cfg.kernels, Kernels::Reference);
    assert_eq!(cfg.verify, VerifyMode::Strict);

    // A worker count is bounded by the thread ceiling: the largest
    // allowed value applies, one more is noted and ignored like `0`.
    let at_cap = EnvOverrides::parse([("ECNN_WORKERS", MAX_WORKERS.to_string())]);
    assert_eq!(at_cap.workers, Some(MAX_WORKERS));
    for too_many in [MAX_WORKERS + 1, 100_000] {
        let over = EnvOverrides::parse([("ECNN_WORKERS", too_many.to_string())]);
        assert_eq!(over.workers, None);
        assert!(!over.any());
        assert_eq!(
            over.notes,
            [format!("ECNN_WORKERS={too_many} ignored (invalid)")]
        );
    }
}
