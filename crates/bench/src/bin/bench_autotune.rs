//! `bench_autotune` — the autotuner acceptance run on eSR-4K.
//!
//! Tunes the paper's headline workload (UHD30 SR×4, the Table 4 pick) over
//! the default [`ecnn_core::tune::TuneSpace`] (block side × worker count;
//! the kernel axis is `Simd` alone, since `Packed` is >20× slower per
//! block), prints the per-candidate report, asserts
//! the autotuner's two contracts —
//!
//! * at least half the candidate space is eliminated statically (strict
//!   admission + cost-model culling) before any frame is timed, and
//! * the pinned winner's measured frame time is no worse than the default
//!   configuration's (the default is always in the timed shortlist) —
//!
//! and writes the pinned record to `TUNE_esr4k.json`. The record is
//! checked in; `ecnn-lint --tune-check TUNE_esr4k.json` re-validates its
//! static half (fingerprint, strict build, cost digest) on every CI run
//! without timing anything. Run release: a 4K SR×4 frame is ~1 s of
//! simulated inference per serial timed frame.

use ecnn_bench::model_matrix;
use ecnn_core::engine::Engine;
use ecnn_core::tune::TuneOptions;

fn main() {
    let (rt, spec, xi) = model_matrix()
        .into_iter()
        .next()
        .expect("the paper matrix leads with eSR-4K");
    println!("bench_autotune: tuning {spec} @ {rt}");

    // The full default options (shortlist 4, 1 warm-up + 2 timed frames
    // per candidate) are right for a deployment tune; here every timed
    // frame is ~1 min of simulated 4K inference, so the acceptance run
    // keeps the full 9-candidate static space but times the minimum
    // that still exercises both contracts: the top-2 shortlist plus the
    // always-included default, one frame each.
    let opts = TuneOptions {
        warmup_frames: 0,
        timed_frames: 1,
        shortlist: 2,
        ..TuneOptions::default()
    };
    let n_space = opts.space.blocks.len() * opts.space.workers.len() * opts.space.kernels.len();
    println!(
        "space: {} blocks x {} workers x {} kernels = {} candidates, shortlist {}",
        opts.space.blocks.len(),
        opts.space.workers.len(),
        opts.space.kernels.len(),
        n_space,
        opts.shortlist,
    );

    let (engine, report) = Engine::builder()
        .ernet(spec)
        .block(xi)
        .realtime(rt)
        .autotune(&opts)
        .expect("eSR-4K autotunes");
    println!("{report}");

    // Acceptance gate 1: the static stages must eliminate at least half
    // the space before any timing happens.
    assert!(
        report.static_cull_permille() >= 500,
        "static cull {}.{}% < 50%",
        report.static_cull_permille() / 10,
        report.static_cull_permille() % 10,
    );

    // Acceptance gate 2: the pinned config is measured no slower than the
    // default configuration on the same frames.
    let default_ns = report
        .default_ns_per_frame
        .expect("the default config is always timed");
    assert!(
        report.record.measured_ns_per_frame <= default_ns,
        "winner {} ns > default {} ns",
        report.record.measured_ns_per_frame,
        default_ns,
    );
    println!(
        "winner {:.3} ms/frame vs default {:.3} ms/frame ({}.{}% of the space timed)",
        report.record.measured_ns_per_frame as f64 / 1e6,
        default_ns as f64 / 1e6,
        (1000 - report.static_cull_permille()) / 10,
        (1000 - report.static_cull_permille()) % 10,
    );

    // The engine handed back runs the pinned config, strict-verified.
    assert_eq!(engine.config(), &report.record.config);
    assert!(engine.verify_report().is_some());

    std::fs::write("TUNE_esr4k.json", report.record.to_json())
        .expect("TUNE_esr4k.json is writable");
    println!("wrote TUNE_esr4k.json (validate with: ecnn-lint --tune-check TUNE_esr4k.json)");
}
