//! Integration tests for the pipelined [`AsyncSession`] and the geometry
//! fixes that ride along: async-vs-serial parity at several worker
//! counts, back-pressure, ticket semantics, and the integer-exact output
//! dimensions shared by the serial, sharded and pipelined paths.

use ecnn_core::engine::{EngineError, Workload};
use ecnn_core::pipe::{AsyncSession, FramePoll};
use ecnn_core::{EcnnBackend, Engine};
use ecnn_model::ernet::{ErNetSpec, ErNetTask};
use ecnn_model::layer::{Activation, Layer, Op, PoolKind};
use ecnn_model::{Model, RealTimeSpec};
use ecnn_tensor::{ImageKind, SyntheticImage, Tensor};

fn engine() -> Engine {
    Engine::builder()
        .ernet(ErNetSpec::new(ErNetTask::Dn, 2, 1, 0))
        .block(40)
        .realtime(RealTimeSpec::HD30)
        .build()
        .unwrap()
}

/// A queue of frames whose geometry changes mid-stream.
fn mixed_resolution_frames() -> Vec<Tensor<f32>> {
    [(56, 56), (72, 96), (56, 72), (96, 56), (56, 56)]
        .iter()
        .enumerate()
        .map(|(seed, &(h, w))| SyntheticImage::new(ImageKind::Mixed, seed as u64).rgb(h, w))
        .collect()
}

/// The tentpole parity claim: `AsyncSession` output is bit-identical to
/// `Session::run_frames` at 1, 2 and 4 workers over a mixed-resolution
/// frame queue, with matching per-frame block and work totals.
#[test]
fn async_session_matches_run_frames_at_1_2_4_workers() {
    let eng = engine();
    let frames = mixed_resolution_frames();
    let serial = eng.session().run_frames(frames.iter()).unwrap();
    for workers in [1usize, 2, 4] {
        let mut session = eng.async_session(workers);
        let tickets: Vec<_> = frames
            .iter()
            .map(|f| session.submit(f.clone()).unwrap())
            .collect();
        assert_eq!(tickets.len(), frames.len());
        assert!(tickets.iter().enumerate().all(|(i, t)| t.frame() == i));
        let results = session.drain().unwrap();
        assert_eq!(results.len(), frames.len());
        for (i, (out, stats)) in results.iter().enumerate() {
            assert_eq!(
                out, &serial[i],
                "x{workers} frame {i}: pixels must be bit-identical"
            );
            let (_, ref_stats) = eng.run_image(&frames[i]).unwrap();
            assert_eq!(stats.blocks, ref_stats.blocks, "x{workers} frame {i}");
            assert_eq!(
                stats.exec.work(),
                ref_stats.exec.work(),
                "x{workers} frame {i}: work totals are band-invariant"
            );
        }
        // Every result was claimed by the drain: the tickets are spent.
        match session.poll(tickets[0]) {
            Err(EngineError::Ticket { frame: 0 }) => {}
            other => panic!("expected a spent ticket, got {other:?}"),
        }
    }
}

/// Polling transitions Pending -> Ready and spends the ticket.
#[test]
fn poll_delivers_each_result_exactly_once() {
    let eng = engine();
    let img = SyntheticImage::new(ImageKind::Texture, 9).rgb(56, 72);
    let (reference, _) = eng.run_image(&img).unwrap();
    let mut session = eng.async_session(2);
    let ticket = session.submit(img).unwrap();
    let (out, stats) = loop {
        match session.poll(ticket).unwrap() {
            FramePoll::Ready(out, stats) => break (out, stats),
            FramePoll::Pending => std::thread::sleep(std::time::Duration::from_millis(1)),
        }
    };
    assert_eq!(out, reference);
    assert!(stats.blocks > 0);
    assert!(matches!(
        session.poll(ticket),
        Err(EngineError::Ticket { frame: 0 })
    ));
    // A ticket the session never issued is rejected too.
    let stray = session.submit(SyntheticImage::new(ImageKind::Smooth, 1).rgb(56, 56));
    let stray = stray.unwrap();
    assert_eq!(stray.frame(), 1);
    let (_, _) = session.wait(stray).unwrap();
}

/// The bounded in-flight window applies back-pressure: with capacity 1 a
/// submit cannot overtake the frame already in the pipeline.
#[test]
fn submit_backpressure_bounds_in_flight_frames() {
    let eng = engine();
    let mut session = AsyncSession::with_capacity(&eng, 2, 1);
    assert_eq!(session.capacity(), 1);
    assert_eq!(session.workers(), 2);
    let frames: Vec<_> = (0..4)
        .map(|s| SyntheticImage::new(ImageKind::Edges, s).rgb(56, 56))
        .collect();
    for frame in &frames {
        session.submit(frame.clone()).unwrap();
        assert!(
            session.in_flight() <= 1,
            "capacity 1 admits at most one in-flight frame"
        );
    }
    let results = session.drain().unwrap();
    assert_eq!(results.len(), 4);
    assert_eq!(session.pending(), 0);
}

/// Bad frames fail synchronously at submit and never occupy the pipeline.
#[test]
fn submit_validates_geometry_up_front() {
    let eng = engine();
    let mut session = eng.async_session(2);
    let gray = Tensor::<f32>::zeros(1, 56, 56);
    assert!(matches!(
        session.submit(gray),
        Err(EngineError::Image(m)) if m.channels == 1 && m.expected_channels == 3
    ));
    assert_eq!(session.in_flight(), 0);
    assert_eq!(session.pending(), 0);
    // The rejected frame consumed no ticket slot: the next valid submit
    // still works and drains clean.
    let ok = session
        .submit(SyntheticImage::new(ImageKind::Smooth, 5).rgb(56, 56))
        .unwrap();
    let (out, _) = session.wait(ok).unwrap();
    assert_eq!(out.shape(), (3, 56, 56));
}

/// Tickets are bound to the session that issued them: redeeming one on
/// another session is a structured error, never another session's frame.
#[test]
fn tickets_do_not_cross_sessions() {
    let eng = engine();
    let mut a = eng.async_session(1);
    let mut b = eng.async_session(1);
    let ticket_a = a
        .submit(SyntheticImage::new(ImageKind::Mixed, 1).rgb(56, 56))
        .unwrap();
    let ticket_b = b
        .submit(SyntheticImage::new(ImageKind::Edges, 2).rgb(56, 56))
        .unwrap();
    // Same frame index, different sessions.
    assert_eq!(ticket_a.frame(), ticket_b.frame());
    assert!(matches!(
        b.poll(ticket_a),
        Err(EngineError::Ticket { frame: 0 })
    ));
    assert!(matches!(
        a.wait(ticket_b),
        Err(EngineError::Ticket { frame: 0 })
    ));
    // The right tickets still redeem on their own sessions.
    a.wait(ticket_a).unwrap();
    b.wait(ticket_b).unwrap();
}

/// An in-flight band failure abandons the frame's remaining bands (the
/// skip path still closes the band accounting — no hang), completes the
/// frame as a structured `EngineError::Frame`, propagates out of `drain`
/// at the failing frame, and leaves later frames claimable.
#[test]
fn in_flight_failure_completes_frame_and_preserves_later_ones() {
    let eng = engine();
    // One worker and a wide-open window: the worker is still busy with
    // frame 0 when the failure is injected into frame 1, so frame 1's
    // bands take the skip path.
    let mut session = AsyncSession::with_capacity(&eng, 1, 8);
    let frames: Vec<_> = (0..3)
        .map(|s| SyntheticImage::new(ImageKind::Mixed, 60 + s).rgb(56, 56))
        .collect();
    let tickets: Vec<_> = frames
        .iter()
        .map(|f| session.submit(f.clone()).unwrap())
        .collect();
    assert!(session.inject_band_failure(
        tickets[1],
        EngineError::Exec(ecnn_sim::exec::ExecError::ReadFromDo)
    ));
    match session.drain() {
        Err(EngineError::Frame { frame, source, .. }) => {
            assert_eq!(frame, 1);
            assert!(matches!(*source, EngineError::Exec(_)));
        }
        other => panic!("expected frame 1 to fail, got {other:?}"),
    }
    // Frame 2 finished normally and is still claimable after the failed
    // drain; frame 0's result was dropped by it (run_frames semantics).
    let (out, _) = session.wait(tickets[2]).unwrap();
    let (reference, _) = eng.run_image(&frames[2]).unwrap();
    assert_eq!(out, reference);
    assert!(matches!(
        session.poll(tickets[0]),
        Err(EngineError::Ticket { frame: 0 })
    ));
}

/// In-flight failures are structured: frame index, worker and block, with
/// a chained source.
#[test]
fn frame_error_carries_frame_shard_and_block() {
    let e = EngineError::Frame {
        frame: 3,
        worker: 1,
        block: 7,
        source: Box::new(EngineError::Rows {
            start: 2,
            end: 4,
            available: 1,
        }),
    };
    let msg = e.to_string();
    assert!(msg.contains("frame 3"), "{msg}");
    assert!(msg.contains("worker 1"), "{msg}");
    assert!(msg.contains("block 7"), "{msg}");
    assert!(std::error::Error::source(&e).is_some());
}

/// A 1/3-downscaler whose output dimensions are only correct when derived
/// integer-exactly (`dim * num / den`), never by truncating the float
/// product.
fn downscale3_engine() -> Engine {
    let layers = vec![
        Layer::new(Op::Conv3x3 {
            in_c: 3,
            out_c: 3,
            act: Activation::Relu,
        }),
        Layer::new(Op::Downsample {
            kind: PoolKind::Stride,
            factor: 3,
        }),
    ];
    let model = Model::new("dn3", 3, 3, layers).unwrap();
    Engine::builder().model(model).block(32).build().unwrap()
}

/// Regression for the sharded output-dimension derivation: on a ragged
/// non-power-of-two frame with a non-power-of-two scale denominator, the
/// serial, sharded and pipelined paths must agree on the integer-exact
/// output geometry and produce bit-identical pixels.
#[test]
fn out_dims_are_integer_exact_on_ragged_non_pow2_frames() {
    let eng = downscale3_engine();
    // 50x38 input at scale 1/3: exactly (16, 12) output pixels — ragged
    // against the 10px output blocks in both dimensions.
    let img = SyntheticImage::new(ImageKind::Mixed, 21).rgb(50, 38);
    assert_eq!(eng.out_dims(&img).unwrap(), (16, 12));
    let (reference, ref_stats) = eng.run_image(&img).unwrap();
    assert_eq!(reference.shape(), (3, 16, 12));
    // The grid has 2 block rows, so 3 and `usize::MAX` shards clamp to 2
    // workers: the thread bound lives in the call, and no count spawns
    // more threads than there are bands.
    for n in [2usize, 3, usize::MAX] {
        let (out, stats) = eng.run_image_sharded(&img, n).unwrap();
        assert_eq!(out, reference, "x{n} sharded pixels");
        assert_eq!(stats.exec.work(), ref_stats.exec.work(), "x{n} work");
    }
    let mut session = eng.async_session(2);
    let ticket = session.submit(img).unwrap();
    let (out, _) = session.wait(ticket).unwrap();
    assert_eq!(out, reference, "pipelined pixels");
}

/// And the same regression through a ragged SR frame.
#[test]
fn sr_ragged_sharded_dims_match_serial() {
    let w = Workload::ernet(
        ErNetSpec::new(ErNetTask::Sr2, 2, 1, 0),
        32,
        RealTimeSpec::HD30,
    )
    .unwrap();
    // 53x41 is odd in both dimensions: x2 output (106, 82) is ragged
    // against the 42px output block.
    let img = SyntheticImage::new(ImageKind::Edges, 31).rgb(53, 41);
    let eng = EcnnBackend::paper().engine(&w).unwrap();
    let (reference, _) = eng.run_image(&img).unwrap();
    assert_eq!(reference.shape(), (3, 106, 82));
    for n in [2usize, 4] {
        let (out, _) = eng.run_image_sharded(&img, n).unwrap();
        assert_eq!(out, reference, "x{n}");
    }
}

/// Frames with an empty output grid are a structured `Rows` error at
/// entry — on every path — instead of a silent zero-block run.
#[test]
fn empty_output_grid_is_a_structured_error() {
    let eng = downscale3_engine();
    // 2 input rows at scale 1/3: zero output rows.
    let img = SyntheticImage::new(ImageKind::Smooth, 2).rgb(2, 50);
    for err in [
        eng.run_image(&img).unwrap_err(),
        eng.run_image_sharded(&img, 2).unwrap_err(),
        eng.async_session(2).submit(img).unwrap_err(),
    ] {
        match err {
            EngineError::Rows { available, .. } => assert_eq!(available, 0),
            other => panic!("expected an empty-grid Rows error, got {other:?}"),
        }
    }
}
