//! Supervised execution end to end: deterministic fault injection,
//! band retry/backoff, worker respawn, frame deadlines, and the
//! verifier-licensed kernel-degradation ladder.
//!
//! Every test runs the tiny Dn ERNet at 56x56 so even the retried runs
//! stay in the millisecond range; the eSR-4K acceptance run lives in the
//! release-mode `fault_matrix` binary. All fault decisions are pure
//! functions of pinned seeds — nothing here can flake.

use ecnn_core::engine::EngineError;
use ecnn_core::pipe::AsyncSession;
use ecnn_core::supervise::ATTEMPT_BUCKETS;
use ecnn_core::{FaultPlan, Kernels, SupervisorPolicy};
use ecnn_model::ernet::{ErNetSpec, ErNetTask};
use ecnn_model::RealTimeSpec;
use ecnn_tensor::{ImageKind, SyntheticImage, Tensor};
use std::time::Duration;

fn builder() -> ecnn_core::engine::EngineBuilder {
    ecnn_core::Engine::builder()
        .ernet(ErNetSpec::new(ErNetTask::Dn, 2, 1, 0))
        .block(40)
        .realtime(RealTimeSpec::HD30)
}

fn frames(n: usize) -> Vec<Tensor<f32>> {
    (0..n)
        .map(|s| SyntheticImage::new(ImageKind::Mixed, 90 + s as u64).rgb(56, 56))
        .collect()
}

/// A policy with enough attempts to survive high fault rates and a
/// backoff short enough for debug-mode tests.
fn patient() -> SupervisorPolicy {
    SupervisorPolicy {
        max_attempts: 8,
        backoff_base: Duration::from_micros(200),
        backoff_cap: Duration::from_millis(2),
        ..SupervisorPolicy::default()
    }
}

/// The acceptance claim: with a seeded plan panicking and corrupting a
/// quarter of band dispatches, the supervised session completes every
/// frame bit-identical to the fault-free run, and the supervisor's
/// interventions are visible in both the per-frame and session stats.
#[test]
fn faulty_run_is_bit_identical_to_fault_free() {
    let clean = builder().build().unwrap();
    let faulty = builder()
        .faults(FaultPlan::parse("seed=42;panic@120;corrupt@130").unwrap())
        .build()
        .unwrap();
    assert!(faulty.fault_plan().is_some());

    let frames = frames(6);
    let reference = clean.session().run_frames(frames.iter()).unwrap();

    let mut session = AsyncSession::with_policy(&faulty, 2, 4, patient());
    let tickets: Vec<_> = frames
        .iter()
        .map(|f| session.submit(f.clone()).unwrap())
        .collect();
    let results = session.drain().unwrap();
    assert_eq!(results.len(), frames.len());
    for (i, (out, _)) in results.iter().enumerate() {
        assert_eq!(out, &reference[i], "frame {i} must be bit-identical");
    }
    drop(tickets);

    let stats = session.supervisor_stats();
    assert!(
        stats.counters.faults_injected > 0,
        "the seeded plan must actually fire: {stats}"
    );
    assert!(
        stats.counters.retries > 0,
        "injected failures must be retried: {stats}"
    );
    // Every band settled exactly once: the attempt histogram accounts
    // for bands(=2 per frame at 2 workers) x frames.
    let settled: u32 = stats.counters.attempts.iter().sum();
    assert_eq!(settled as usize, 2 * frames.len(), "{stats}");
    assert_eq!(stats.counters.attempts.len(), ATTEMPT_BUCKETS);
    // The interventions also surface per frame through ImageRunStats.
    assert!(
        results.iter().any(|(_, s)| s.supervisor.any()),
        "at least one frame saw an intervention"
    );
}

/// A worker killed by an injected panic is respawned — the pool never
/// shrinks — and the panic payload is carried into the retry accounting.
#[test]
fn injected_panics_respawn_workers_and_complete() {
    let clean = builder().build().unwrap();
    let faulty = builder()
        .faults(FaultPlan::parse("seed=1;panic@500:frames=0..4").unwrap())
        .build()
        .unwrap();
    let frames = frames(4);
    let reference = clean.session().run_frames(frames.iter()).unwrap();

    let mut session = AsyncSession::with_policy(&faulty, 2, 4, patient());
    for f in &frames {
        session.submit(f.clone()).unwrap();
    }
    let results = session.drain().unwrap();
    for (i, (out, _)) in results.iter().enumerate() {
        assert_eq!(out, &reference[i], "frame {i}");
    }
    let stats = session.supervisor_stats();
    assert!(
        stats.counters.respawns >= 1,
        "a 50% panic rate over 8 band dispatches must kill at least one worker: {stats}"
    );
    assert_eq!(session.workers(), 2, "respawn keeps the pool at size");
}

/// A band that exhausts `max_attempts` fails its frame with the panic
/// payload preserved through the `EngineError::Frame` chain; the pool
/// recovers and later frames run clean.
#[test]
fn exhausted_attempts_fail_frame_with_panic_payload() {
    let eng = builder()
        .faults(FaultPlan::parse("seed=2;panic@1000:frames=0..1").unwrap())
        .build()
        .unwrap();
    let policy = SupervisorPolicy {
        max_attempts: 2,
        backoff_base: Duration::from_micros(100),
        ..patient()
    };
    let mut session = AsyncSession::with_policy(&eng, 2, 4, policy);
    let frames = frames(2);
    let t0 = session.submit(frames[0].clone()).unwrap();
    let t1 = session.submit(frames[1].clone()).unwrap();
    match session.wait(t0) {
        Err(EngineError::Frame { frame, source, .. }) => {
            assert_eq!(frame, 0);
            match *source {
                EngineError::Worker { message, .. } => {
                    let message = message.expect("panic payload must be preserved");
                    assert!(message.contains("injected fault"), "{message}");
                }
                other => panic!("expected the worker panic as the source, got {other:?}"),
            }
        }
        other => panic!("expected frame 0 to fail, got {other:?}"),
    }
    // Frame 1 is outside the fault's frame range: clean completion on
    // the respawned pool.
    let (out, stats) = session.wait(t1).unwrap();
    let (reference, _) = eng.run_image(&frames[1]).unwrap();
    assert_eq!(out, reference);
    assert!(!stats.supervisor.any(), "frame 1 needed no intervention");
    let stats = session.supervisor_stats();
    // Band 0 of frame 0: first dispatch panics, one retry, second panic
    // exhausts the budget.
    assert!(stats.counters.retries >= 1, "{stats}");
    assert!(stats.counters.respawns >= 1, "{stats}");
}

/// One-shot sharding runs on the supervised session, so it honours the
/// engine's fault plan: injected panics are retried and the output stays
/// bit-identical to a clean engine.
#[test]
fn one_shot_sharding_honours_the_engine_fault_plan() {
    let clean = builder().build().unwrap();
    let faulty = builder()
        .faults(FaultPlan::parse("seed=42;panic@400").unwrap())
        .build()
        .unwrap();
    let img = SyntheticImage::new(ImageKind::Mixed, 11).rgb(56, 72);
    let (reference, _) = clean.run_image(&img).unwrap();
    let (out, stats) = faulty.run_image_sharded(&img, 2).unwrap();
    assert_eq!(out, reference, "retried bands must be bit-identical");
    assert!(
        stats.supervisor.faults_injected > 0,
        "the plan must fire on the one-shot path: {}",
        stats.supervisor
    );
    assert!(stats.supervisor.retries > 0, "{}", stats.supervisor);
}

/// A one-shot sharded run whose band keeps failing surfaces the same
/// error shape a pipelined stream does: `Frame` naming the frame, worker
/// and block, chained to the worker panic that carries the injected
/// fault's message.
#[test]
fn sharded_band_failure_is_a_frame_error_with_the_panic_payload() {
    let eng = builder()
        .faults(FaultPlan::parse("seed=3;panic@1000:frames=0..1:band=0").unwrap())
        .build()
        .unwrap();
    let img = SyntheticImage::new(ImageKind::Mixed, 11).rgb(56, 72);
    let err = eng.run_image_sharded(&img, 2).unwrap_err();
    let msg = err.to_string();
    assert!(std::error::Error::source(&err).is_some());
    match err {
        EngineError::Frame {
            frame: 0,
            block,
            source,
            ..
        } => {
            assert_eq!(block, 0, "band 0 starts at block 0");
            match *source {
                EngineError::Worker { message: Some(m) } => {
                    assert!(m.contains("injected fault"), "{m}");
                }
                other => panic!("expected the worker panic as the source, got {other:?}"),
            }
        }
        other => panic!("expected frame 0 to fail, got {other:?}"),
    }
    for part in ["frame 0", "worker", "block 0", "injected fault"] {
        assert!(msg.contains(part), "{msg}");
    }
}

/// Persistent kernel-scoped corruption provably walks the whole ladder —
/// Simd -> Packed -> Reference kernels, then coalesced -> keyed layout —
/// with every step recorded, and the degraded output stays bit-identical.
#[test]
fn persistent_corruption_walks_the_full_ladder() {
    let plan = FaultPlan::parse(concat!(
        "seed=5",
        ";corrupt@1000:persistent:kernels=simd",
        ";corrupt@1000:persistent:kernels=packed",
        ";corrupt@1000:persistent:layout=coalesced",
    ))
    .unwrap();
    let clean = builder().build().unwrap();
    let faulty = builder().faults(plan).build().unwrap();
    assert_eq!(faulty.kernels(), Kernels::Simd);
    assert!(faulty.coalesced());

    let policy = SupervisorPolicy {
        max_attempts: 6,
        degrade_after: 1,
        backoff_base: Duration::from_micros(100),
        ..SupervisorPolicy::default()
    };
    // One worker = one band per frame: the walk is a strict sequence.
    let mut session = AsyncSession::with_policy(&faulty, 1, 2, policy);
    let img = frames(1).remove(0);
    let ticket = session.submit(img.clone()).unwrap();
    let (out, frame_stats) = session.wait(ticket).unwrap();
    let (reference, _) = clean.run_image(&img).unwrap();
    assert_eq!(out, reference, "degraded rungs are bit-identical");

    let report = session.supervision_report();
    let stats = &report.stats;
    assert_eq!(
        stats.degradations.len(),
        3,
        "three rungs below simd+coalesced: {stats}"
    );
    let steps: Vec<String> = stats
        .degradations
        .iter()
        .map(|ev| format!("{}->{}", ev.from, ev.to))
        .collect();
    assert_eq!(
        steps,
        vec![
            "simd+coalesced->packed+coalesced",
            "packed+coalesced->reference+coalesced",
            "reference+coalesced->reference+keyed",
        ]
    );
    assert_eq!(stats.rung, 3, "the session now runs the bottom rung");
    assert_eq!(report.ladder.len(), 4);
    assert_eq!(frame_stats.supervisor.degradations, 3);
    // 4 dispatches: 3 corrupted (one per abandoned rung) + 1 success.
    assert_eq!(frame_stats.supervisor.faults_injected, 3);
    assert_eq!(frame_stats.supervisor.attempts[3], 1, "band took 4 tries");
}

/// A Reference engine has only the keyed layout below it: persistent
/// corruption takes that one step, then cannot degrade further and fails
/// the frame as a structured `Corrupt` error after the attempt budget.
#[test]
fn corruption_without_a_lower_rung_fails_structurally() {
    let eng = builder()
        .kernels(Kernels::Reference)
        .faults(FaultPlan::parse("seed=6;corrupt@1000:persistent").unwrap())
        .build()
        .unwrap();
    let policy = SupervisorPolicy {
        max_attempts: 3,
        degrade_after: 1,
        backoff_base: Duration::from_micros(100),
        ..SupervisorPolicy::default()
    };
    let mut session = AsyncSession::with_policy(&eng, 1, 2, policy);
    let ticket = session.submit(frames(1).remove(0)).unwrap();
    match session.wait(ticket) {
        Err(EngineError::Frame { source, .. }) => {
            assert!(
                matches!(
                    *source,
                    EngineError::Corrupt {
                        kernels: "reference",
                        ..
                    }
                ),
                "got {source:?}"
            );
        }
        other => panic!("expected a corrupt frame failure, got {other:?}"),
    }
    let stats = session.supervisor_stats();
    let steps: Vec<String> = stats
        .degradations
        .iter()
        .map(|ev| format!("{}->{}", ev.from, ev.to))
        .collect();
    assert_eq!(
        steps,
        ["reference+coalesced->reference+keyed"],
        "only the layout is left to fall: {stats}"
    );
    assert_eq!(stats.rung, 1, "the session ends on the keyed floor");
    assert_eq!(stats.counters.retries, 2, "3 attempts = 2 retries");
}

/// A frame overrunning its soft deadline gets its delayed straggler band
/// resubmitted; first completion wins and the output is unchanged.
#[test]
fn deadline_resubmits_stragglers_first_completion_wins() {
    let clean = builder().build().unwrap();
    let faulty = builder()
        .faults(FaultPlan::parse("seed=7;delay@1000:frames=0..1:band=0:ms=120").unwrap())
        .build()
        .unwrap();
    let policy = SupervisorPolicy {
        frame_deadline: Some(Duration::from_millis(25)),
        ..patient()
    };
    let mut session = AsyncSession::with_policy(&faulty, 2, 2, policy);
    let img = frames(1).remove(0);
    let ticket = session.submit(img.clone()).unwrap();
    let (out, frame_stats) = session.wait(ticket).unwrap();
    let (reference, _) = clean.run_image(&img).unwrap();
    assert_eq!(
        out, reference,
        "duplicate completions must not double-paste"
    );
    assert!(
        frame_stats.supervisor.deadline_hits >= 1,
        "the 120ms stall must trip the 25ms deadline: {}",
        frame_stats.supervisor
    );
    assert!(frame_stats.supervisor.faults_injected >= 1);
}

/// Drain hardening: an erroring drain still collects every outstanding
/// ticket first — nothing is left in flight, later results stay
/// claimable, and the session keeps serving new frames.
#[test]
fn erroring_drain_leaves_pipeline_quiescent_and_usable() {
    let eng = builder().build().unwrap();
    let mut session = AsyncSession::with_capacity(&eng, 1, 8);
    let frames = frames(3);
    let tickets: Vec<_> = frames
        .iter()
        .map(|f| session.submit(f.clone()).unwrap())
        .collect();
    assert!(session.inject_band_failure(
        tickets[1],
        EngineError::Exec(ecnn_sim::exec::ExecError::ReadFromDo)
    ));
    match session.drain() {
        Err(EngineError::Frame { frame, .. }) => assert_eq!(frame, 1),
        other => panic!("expected frame 1 to fail, got {other:?}"),
    }
    // Quiescent: the failed drain waited for everything in flight.
    assert_eq!(session.in_flight(), 0);
    // Frame 2 finished normally and stays claimable; a second drain
    // returns it instead of erroring again.
    let remaining = session.drain().unwrap();
    assert_eq!(remaining.len(), 1);
    let (reference, _) = eng.run_image(&frames[2]).unwrap();
    assert_eq!(remaining[0].0, reference);
    // And the session keeps serving.
    let next = session.submit(frames[0].clone()).unwrap();
    let (out, _) = session.wait(next).unwrap();
    let (reference, _) = eng.run_image(&frames[0]).unwrap();
    assert_eq!(out, reference);
}

/// The engine threads the fault plan through config, reports and the
/// frame-note surface; an empty plan is compiled out (`fault_plan()` is
/// `None`).
#[test]
fn fault_plan_threads_through_engine_and_reports() {
    let plan = FaultPlan::parse("seed=9;corrupt@50").unwrap();
    let eng = builder().faults(plan.clone()).build().unwrap();
    assert_eq!(eng.fault_plan(), Some(&plan));
    assert_eq!(eng.config().faults.as_ref(), Some(&plan));
    let note = eng.frame_report().note;
    assert!(note.contains("faults [seed=9;corrupt@50]"), "{note}");
    // The serialized config carries the plan in its own grammar.
    let json = eng.config().to_json();
    assert!(
        json.ends_with(", \"faults\": \"seed=9;corrupt@50\"}"),
        "{json}"
    );
    // The empty plan is inert and invisible.
    let clean = builder().faults(FaultPlan::default()).build().unwrap();
    assert_eq!(clean.fault_plan(), None);
    assert!(
        !clean.frame_report().note.contains("faults"),
        "empty plan leaves no note"
    );
}
