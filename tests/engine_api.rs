//! The unified engine/backend API: cross-backend smoke coverage and
//! streaming-session buffer reuse.

use ecnn_repro::prelude::*;
use ecnn_repro::tensor::{ImageKind, SyntheticImage};

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
    assert_eq!(
        backends.len(),
        7,
        "ecnn + two sharded variants + four baselines"
    );
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
    // headline — and the table renders one row per backend. Sharding
    // keeps the traffic totals intact.
    let ecnn = &reports[0];
    let frame_based = reports
        .iter()
        .find(|r| r.backend == "frame-based")
        .expect("frame-based registered");
    assert!(frame_based.dram_bytes_per_frame > 10.0 * ecnn.dram_bytes_per_frame);
    for sharded in reports.iter().filter(|r| r.backend.starts_with("ecnn[x")) {
        // Per-shard analytic byte counts truncate independently, so the
        // sum may differ from the whole-frame value by under a byte per
        // shard per direction.
        let diff = (sharded.dram_bytes_per_frame - ecnn.dram_bytes_per_frame).abs();
        assert!(diff <= 8.0, "{}: traffic drift {diff} B", sharded.backend);
    }
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

/// Backends that cannot execute images say so through the typed error
/// instead of panicking (the baselines used to be bare functions).
#[test]
fn non_executable_backends_decline_run_image() {
    let workload = Workload::ernet(
        ErNetSpec::new(ErNetTask::Dn, 1, 1, 0),
        40,
        RealTimeSpec::HD30,
    )
    .unwrap();
    let img = SyntheticImage::new(ImageKind::Smooth, 5).rgb(56, 56);
    for backend in registry() {
        let result = backend.run_image(&workload, &img);
        if backend.supports_run_image() {
            let (out, stats) = result.expect("ecnn runs images");
            assert_eq!(out.shape(), (3, 56, 56));
            assert!(stats.blocks > 0);
        } else {
            match result {
                Err(EngineError::Unsupported {
                    backend: name,
                    capability,
                }) => {
                    assert_eq!(name, backend.name());
                    assert_eq!(capability, "run_image");
                }
                other => panic!("{}: expected Unsupported, got {other:?}", backend.name()),
            }
        }
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
