//! Layer probes of the traced run: direct, timed calls into the build
//! path, the block executor and the session.

use crate::check;
use crate::drive::Runner;
use crate::trace::Tracer;
use crate::workload::Workload;
use ecnn_core::engine::Engine;
use ecnn_isa::compile::compile;
use ecnn_isa::verify::verify;
use ecnn_sim::exec::{execute_with, quantize_input, BlockPlan, PlanePool};
use ecnn_tensor::Tensor;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each build-path step.
const BUILD_REPS: usize = 5;
/// Passes over the frame's block rows.
const PROBE_PASSES: usize = 5;

#[derive(Default)]
pub struct Probes {
    pub compile_ms: Vec<f64>,
    pub verify_ms: Vec<f64>,
    pub plan_ms: Vec<f64>,
    /// `execute_with`, per block of one frame, in grid order, per pass.
    pub block_ms: Vec<f64>,
    /// `Session::process_rows`, per block row of the same frame, per pass.
    pub row_ms: Vec<f64>,
    pub planned_peak_bytes: usize,
    pub pool_peak_bytes: usize,
}

/// Runs `f` inside a span and returns its result and wall time in ms.
fn timed<T>(
    tr: &mut Tracer,
    name: &'static str,
    frame: Option<usize>,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let span = tr.enter(name, frame);
    let t = Instant::now();
    let out = f();
    let dt = t.elapsed().as_secs_f64() * 1e3;
    tr.exit(span);
    (out, dt)
}

pub fn probe_layers<'e>(
    eng: &'e Engine,
    wl: &Workload,
    runner: &mut Runner<'e>,
    input: &Tensor<f32>,
    (rows, cols): (usize, usize),
    tr: &mut Tracer,
) -> Result<Probes, String> {
    let mut p = Probes::default();
    let qm = eng.quantized_model();
    for _ in 0..BUILD_REPS {
        let (c, t) = timed(tr, "compile", None, || compile(qm, wl.block));
        let c = c.map_err(|e| format!("compile: {e}"))?;
        p.compile_ms.push(t);
        let (report, t) = timed(tr, "verify", None, || verify(&c.program, &c.leafs));
        black_box(report);
        p.verify_ms.push(t);
        let (plan, t) = timed(tr, "BlockPlan::new", None, || {
            BlockPlan::new(&c.program, &c.leafs)
        });
        black_box(plan.map_err(|e| format!("plan: {e}"))?);
        p.plan_ms.push(t);
    }

    let c = eng.compiled();
    let mut plan = BlockPlan::new(&c.program, &c.leafs).map_err(|e| format!("plan: {e}"))?;
    if !eng.coalesced() {
        plan.force_keyed();
    }
    let crop = |row, col| quantize_input(&check::block_crop(eng, input, row, col), &c.program);
    let mut pool = PlanePool::new();
    execute_with(&plan, &mut pool, &crop(0, 0), eng.kernels())
        .map_err(|e| format!("execute: {e}"))?;

    let mut fresh;
    let session = match runner {
        Runner::Serial(s) => s,
        Runner::Stream(_) => {
            fresh = tr.span("session.open", None, || eng.session());
            &mut fresh
        }
    };
    // Each block row through the session, then the same row's blocks
    // through bare `execute_with`, back to back, so that their difference
    // is the session's own work and not drift between phases; repeated,
    // since a one-block frame gives a single pair per pass.
    for r in (0..PROBE_PASSES).flat_map(|_| 0..rows) {
        let (res, t) = timed(tr, "Session::process_rows", Some(r), || {
            session.process_rows(input, r..r + 1).map(|_| ())
        });
        res.map_err(|e| format!("process_rows: {e}"))?;
        p.row_ms.push(t);
        for col in 0..cols {
            let codes = crop(r, col);
            let (res, t) = timed(tr, "execute_with", Some(r * cols + col), || {
                execute_with(&plan, &mut pool, &codes, eng.kernels())
                    .map(|out| black_box(out.as_slice()[0]))
            });
            res.map_err(|e| format!("execute: {e}"))?;
            p.block_ms.push(t);
        }
    }
    p.planned_peak_bytes = plan.planned_peak_bytes();
    p.pool_peak_bytes = pool.peak_resident_bytes();
    Ok(p)
}
