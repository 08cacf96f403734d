//! Integration tests for the plan/execute split and one-shot sharding:
//! parity of [`Engine::run_image_sharded`] against the plain engine, and
//! the plane pool's zero-allocation steady state.

use ecnn_core::engine::{EcnnBackend, Engine, Workload};
use ecnn_model::ernet::{ErNetSpec, ErNetTask};
use ecnn_model::RealTimeSpec;
use ecnn_tensor::{ImageKind, SyntheticImage};

fn workload() -> Workload {
    Workload::ernet(
        ErNetSpec::new(ErNetTask::Dn, 2, 1, 0),
        40,
        RealTimeSpec::HD30,
    )
    .unwrap()
}

fn engine() -> Engine {
    EcnnBackend::paper().engine(&workload()).unwrap()
}

/// The headline parity claim: at N = 1, 2, 4 one-shot sharding produces
/// bit-identical output pixels and identical block and work totals vs
/// the plain single-engine path, on two images.
#[test]
fn sharded_backend_parity_at_1_2_4() {
    let eng = engine();
    for img in [
        SyntheticImage::new(ImageKind::Mixed, 11).rgb(56, 72),
        SyntheticImage::new(ImageKind::Texture, 23).rgb(72, 96),
    ] {
        let (ref_out, ref_stats) = eng.run_image(&img).unwrap();
        let size = (img.height(), img.width());
        for n in [1usize, 2, 4] {
            // Pixels: bit-identical (the block grid is partitioned, never
            // recomputed differently).
            let (out, stats) = eng.run_image_sharded(&img, n).unwrap();
            assert_eq!(out, ref_out, "{size:?} x{n}: pixels must be bit-identical");
            assert_eq!(
                stats.blocks, ref_stats.blocks,
                "{size:?} x{n}: block totals"
            );
            // Work totals are shard-invariant (no halo recompute); only
            // the pool counters differ (one cold arena per worker).
            assert_eq!(
                stats.exec.work(),
                ref_stats.exec.work(),
                "{size:?} x{n}: per-frame work totals (MACs, bytes, instructions)"
            );
        }
    }
}

/// Sharding must also hold on upscaling workloads (output grid ≠ input
/// grid) and on frame sizes that do not divide evenly into block rows.
#[test]
fn sharded_parity_on_sr_with_ragged_grid() {
    let w = Workload::ernet(
        ErNetSpec::new(ErNetTask::Sr2, 2, 1, 0),
        32,
        RealTimeSpec::HD30,
    )
    .unwrap();
    // 50x38: neither dimension is a multiple of the 42px output block.
    let img = SyntheticImage::new(ImageKind::Edges, 5).rgb(50, 38);
    let eng = EcnnBackend::paper().engine(&w).unwrap();
    let (ref_out, _) = eng.run_image(&img).unwrap();
    assert_eq!(ref_out.shape(), (3, 100, 76));
    for n in [2usize, 3, 4] {
        let (out, _) = eng.run_image_sharded(&img, n).unwrap();
        assert_eq!(out, ref_out, "x{n}");
    }
}

/// After the first frame has warmed the plane pool, a multi-frame session
/// performs zero per-block plane allocations — the acceptance criterion
/// for the arena.
#[test]
fn session_pool_allocates_nothing_after_warmup() {
    let eng = engine();
    let mut session = eng.session();
    let frames: Vec<_> = (0..4)
        .map(|seed| SyntheticImage::new(ImageKind::Mixed, seed).rgb(56, 56))
        .collect();
    for (i, frame) in frames.iter().enumerate() {
        session.process(frame).unwrap();
        let exec = session.last_frame_stats().exec;
        if i == 0 {
            assert!(exec.planes_allocated > 0, "first frame populates the arena");
        } else {
            assert_eq!(
                exec.planes_allocated, 0,
                "frame {i}: warm frames must not allocate planes"
            );
            assert!(exec.planes_reused > 0);
        }
    }
    assert_eq!(session.frames(), 4);
}

/// The batched entry point drains a frame queue through one pool and
/// matches per-frame processing bit-exactly.
#[test]
fn run_frames_matches_sequential_processing() {
    let eng = engine();
    let frames: Vec<_> = (0..3)
        .map(|seed| SyntheticImage::new(ImageKind::Smooth, 40 + seed).rgb(56, 56))
        .collect();
    let batched = eng.session().run_frames(frames.iter()).unwrap();
    assert_eq!(batched.len(), 3);
    let mut session = eng.session();
    for (i, frame) in frames.iter().enumerate() {
        let out = session.process(frame).unwrap();
        assert_eq!(&batched[i], out, "frame {i}");
    }
    // The whole batch ran on one warm pool: only the first frame allocated.
    let mut probe = eng.session();
    probe.run_frames(frames.iter()).unwrap();
    assert_eq!(probe.last_frame_stats().exec.planes_allocated, 0);
}
