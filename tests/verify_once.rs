//! One build, one proof: an engine verifies its program exactly once, and
//! every plan its sessions build carries that verification's licences.
//!
//! * **licences** — on every shipped paper model, a session's plan has
//!   the narrow licences, plane layout, memory plan and live channel
//!   extents of the self-verifying `BlockPlan::new`;
//! * **verify count** — `ecnn_isa::verify::runs()` moves by one per build
//!   under every `VerifyMode`, and by zero for a session, every ladder
//!   rung, `AsyncSession` workers (walking the ladder), a respawned
//!   worker and the cost report.
//!
//! The verify counter is process-wide, so both tests hold one lock: no
//! other test of this binary verifies while a count is taken.

use ecnn_core::engine::EngineBuilder;
use ecnn_core::pipe::AsyncSession;
use ecnn_core::supervise::ladder;
use ecnn_core::{Engine, FaultPlan, SupervisorPolicy};
use ecnn_isa::verify::{runs, VerifyMode};
use ecnn_model::ernet::{ErNetSpec, ErNetTask};
use ecnn_model::RealTimeSpec;
use ecnn_sim::exec::BlockPlan;
use ecnn_tensor::{ImageKind, SyntheticImage, Tensor};
use std::sync::Mutex;
use std::time::Duration;

static COUNTING: Mutex<()> = Mutex::new(());

fn counting() -> std::sync::MutexGuard<'static, ()> {
    COUNTING.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn sessions_carry_the_licences_blockplan_new_proves() {
    let _lock = counting();
    for (name, qm, xi) in ecnn_bench::paper_models() {
        let engine = Engine::builder()
            .quantized(qm)
            .block(xi)
            .build()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let c = engine.compiled();
        let own = BlockPlan::new(&c.program, &c.leafs).unwrap();
        let session = engine.session();
        let plan = session.plan();
        assert_eq!(plan.narrow_licensed(), own.narrow_licensed(), "{name}");
        assert_eq!(plan.coalesced(), own.coalesced(), "{name}");
        assert_eq!(plan.memory_plan(), own.memory_plan(), "{name}");
        assert_eq!(plan.live_channels(), own.live_channels(), "{name}");
        assert_eq!(engine.coalesced(), own.coalesced(), "{name}");
        // Every rung keeps the narrow licences; only the layout moves.
        for rung in ladder(engine.kernels(), engine.coalesced()) {
            let session = engine.session_at(rung);
            let plan = session.plan();
            assert_eq!(
                plan.narrow_licensed(),
                own.narrow_licensed(),
                "{name} {rung}"
            );
            assert_eq!(plan.coalesced(), rung.coalesce, "{name} {rung}");
            assert_eq!(plan.live_channels(), own.live_channels(), "{name} {rung}");
        }
    }
}

fn builder(mode: VerifyMode) -> EngineBuilder {
    Engine::builder()
        .ernet(ErNetSpec::new(ErNetTask::Dn, 2, 1, 0))
        .block(40)
        .realtime(RealTimeSpec::HD30)
        .verify(mode)
}

fn frame(seed: u64) -> Tensor<f32> {
    SyntheticImage::new(ImageKind::Mixed, seed).rgb(56, 56)
}

/// The ladder walk's policy: one failure per rung steps down.
fn walking() -> SupervisorPolicy {
    SupervisorPolicy {
        max_attempts: 6,
        degrade_after: 1,
        backoff_base: Duration::from_micros(100),
        ..SupervisorPolicy::default()
    }
}

/// Enough attempts to absorb a 50% panic rate, with short backoffs.
fn patient() -> SupervisorPolicy {
    SupervisorPolicy {
        max_attempts: 8,
        backoff_base: Duration::from_micros(200),
        backoff_cap: Duration::from_millis(2),
        ..SupervisorPolicy::default()
    }
}

/// Builds with `builder`, asserting the build verified exactly once.
fn build_once(builder: EngineBuilder, what: &str) -> Engine {
    let before = runs();
    let engine = builder.build().unwrap();
    assert_eq!(runs() - before, 1, "{what}: one verification per build");
    engine
}

#[test]
fn a_build_proves_its_program_once_and_nothing_after_it() {
    let _lock = counting();
    for mode in [VerifyMode::Off, VerifyMode::Lints, VerifyMode::Strict] {
        // Serial session, every ladder rung, the cost report.
        let engine = build_once(builder(mode), mode.as_str());
        let after_build = runs();
        engine.session().process(&frame(1)).unwrap();
        for rung in ladder(engine.kernels(), engine.coalesced()) {
            drop(engine.session_at(rung));
        }
        let cost = engine.cost_report();
        assert!(
            cost.memory.is_some(),
            "{mode:?}: the held proof licenses a memory plan"
        );
        assert_eq!(engine.verify_report().is_none(), mode == VerifyMode::Off);
        assert_eq!(runs(), after_build, "{mode:?}: session, rungs, cost report");

        // One worker walking the whole ladder under persistent,
        // rung-scoped corruption.
        let walk = FaultPlan::parse(concat!(
            "seed=5",
            ";corrupt@1000:persistent:kernels=simd",
            ";corrupt@1000:persistent:kernels=packed",
            ";corrupt@1000:persistent:layout=coalesced",
        ))
        .unwrap();
        let engine = build_once(builder(mode).faults(walk), mode.as_str());
        let after_build = runs();
        let mut session = AsyncSession::with_policy(&engine, 1, 2, walking());
        let ticket = session.submit(frame(3)).unwrap();
        session.wait(ticket).unwrap();
        assert_eq!(session.supervisor_stats().degradations.len(), 3, "{mode:?}");
        drop(session);
        assert_eq!(runs(), after_build, "{mode:?}: a worker's ladder walk");

        // Two workers, one of them killed and respawned.
        let panics = FaultPlan::parse("seed=1;panic@500:frames=0..4").unwrap();
        let engine = build_once(builder(mode).faults(panics), mode.as_str());
        let after_build = runs();
        let mut session = AsyncSession::with_policy(&engine, 2, 4, patient());
        for seed in 0..4 {
            session.submit(frame(10 + seed)).unwrap();
        }
        session.drain().unwrap();
        assert!(
            session.supervisor_stats().counters.respawns >= 1,
            "{mode:?}"
        );
        drop(session);
        assert_eq!(runs(), after_build, "{mode:?}: workers and a respawn");
    }
}
