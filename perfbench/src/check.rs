//! Output checks that rely on neither a pinned pixel digest nor the
//! block path under test:
//!
//! * denoisers: output windows against `ecnn_nn::quant::fixed_forward`,
//!   the layer-level fixed-point reference, run on the same window of the
//!   zero-extended frame;
//! * every frame: executed work counters against the static cost model
//!   times the block count;
//! * one block per run: the engine's kernels against a second kernel rung.

use ecnn_core::engine::{Engine, ImageRunStats};
use ecnn_isa::verify::memplan::CostReport;
use ecnn_nn::quant::fixed_forward;
use ecnn_sim::exec::{execute_with, quantize_input, BlockPlan, PlanePool};
use ecnn_sim::Kernels;
use ecnn_tensor::Tensor;

/// Side of a checked output window, in pixels.
const WINDOW: usize = 32;

/// A region of an output frame: origin and size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rect {
    pub y: usize,
    pub x: usize,
    pub h: usize,
    pub w: usize,
}

/// A copy of one region of an output frame, kept until it is checked.
pub struct Window {
    pub rect: Rect,
    pub out: Tensor<f32>,
}

impl Window {
    pub fn copy(frame: &Tensor<f32>, rect: Rect) -> Self {
        Self {
            rect,
            out: frame.crop_padded(rect.y as isize, rect.x as isize, rect.h, rect.w),
        }
    }
}

/// Interior block boundaries along one axis, or the midpoint when the
/// axis has a single block.
fn seams(len: usize, side: usize) -> Vec<usize> {
    let inner: Vec<usize> = (1..len.div_ceil(side)).map(|k| k * side).collect();
    if inner.is_empty() {
        vec![len / 2]
    } else {
        inner
    }
}

/// Origin of the window centred on `centre`, kept inside `0..len`.
fn place(centre: usize, len: usize) -> usize {
    centre
        .saturating_sub(WINDOW / 2)
        .min(len.saturating_sub(WINDOW))
}

/// The window checked on the frame of turn `turn`: alternately across a
/// block-seam crossing and at a frame corner, rotating with `turn` so
/// that a run covers every seam and every edge.
pub fn region(out_h: usize, out_w: usize, do_side: usize, turn: usize) -> Rect {
    let k = turn / 2;
    let (y, x) = if turn.is_multiple_of(2) {
        let ys = seams(out_h, do_side);
        let xs = seams(out_w, do_side);
        let k = k % (ys.len() * xs.len());
        (
            place(ys[k / xs.len()], out_h),
            place(xs[k % xs.len()], out_w),
        )
    } else {
        let (bottom, right) = (place(out_h, out_h), place(out_w, out_w));
        [(0, 0), (0, right), (bottom, 0), (bottom, right)][k % 4]
    };
    Rect {
        y,
        x,
        h: WINDOW,
        w: WINDOW,
    }
}

/// Whole-frame reference output over `rect`, for scale-1 models whose
/// truncated-pyramid inference makes each output pixel a function of the
/// zero-extended input within the receptive border alone.
pub fn reference(eng: &Engine, input: &Tensor<f32>, rect: Rect) -> Tensor<f32> {
    let p = &eng.compiled().program;
    let border = (p.di_side - p.do_side) / 2;
    let qm = eng.quantized_model();
    let ext = input.crop_padded(
        rect.y as isize - border as isize,
        rect.x as isize - border as isize,
        rect.h + 2 * border,
        rect.w + 2 * border,
    );
    let codes = ext.map(|v| qm.input_q.quantize(v));
    let out = fixed_forward(qm, &codes);
    let out_q = qm
        .layers
        .iter()
        .rev()
        .flatten()
        .next()
        .expect("a model has a parameterised layer")
        .out_q;
    out.map(|c| out_q.dequantize(c).clamp(0.0, 1.0))
}

/// Compares a kept window with the reference, bit for bit.
pub fn window_matches(eng: &Engine, input: &Tensor<f32>, win: &Window) -> Result<(), String> {
    let want = reference(eng, input, win.rect);
    if want.shape() != win.out.shape() {
        return Err(format!(
            "window {:?}: reference shape {:?}, output {:?}",
            win.rect,
            want.shape(),
            win.out.shape()
        ));
    }
    let diff = want
        .as_slice()
        .iter()
        .zip(win.out.as_slice())
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    if diff > 0 {
        return Err(format!(
            "window {:?}: {diff} of {} samples differ from fixed_forward",
            win.rect,
            want.as_slice().len()
        ));
    }
    Ok(())
}

/// Checks a frame's executed work counters against the static cost
/// model's per-block counts times the grid's block count.
pub fn work_matches(stats: &ImageRunStats, cost: &CostReport, blocks: usize) -> Result<(), String> {
    if stats.blocks != blocks {
        return Err(format!(
            "{} blocks executed, grid has {blocks}",
            stats.blocks
        ));
    }
    let w = stats.exec.work();
    let n = blocks as u64;
    let pairs = [
        ("mac3", w.mac3, cost.mac3),
        ("mac1", w.mac1, cost.mac1),
        ("bb_read", w.bb_read_bytes, cost.bb_read_bytes),
        ("bb_write", w.bb_write_bytes, cost.bb_write_bytes),
        ("di", w.di_bytes, cost.di_bytes),
        ("do", w.do_bytes, cost.do_bytes),
        ("instructions", w.instructions, cost.instructions),
    ];
    for (name, got, per_block) in pairs {
        if got != per_block * n {
            return Err(format!(
                "{name}: executed {got}, cost model {per_block} x {blocks} blocks = {}",
                per_block * n
            ));
        }
    }
    Ok(())
}

/// The input crop of grid cell `(row, col)`: the block's receptive field,
/// zero-padded past the frame edge.
pub fn block_crop(eng: &Engine, input: &Tensor<f32>, row: usize, col: usize) -> Tensor<f32> {
    let p = &eng.compiled().program;
    let (num, den) = eng.model().output_scale_rational();
    let in_step = p.do_side * den / num;
    let border = (p.di_side.saturating_sub(in_step) / 2) as isize;
    input.crop_padded(
        (row * in_step) as isize - border,
        (col * in_step) as isize - border,
        p.di_side,
        p.di_side,
    )
}

/// Executes one block with the engine's kernels and with a second kernel
/// rung on fresh pools, and compares the output codes and work counters.
pub fn kernel_rungs_agree(eng: &Engine, crop: &Tensor<f32>) -> Result<(), String> {
    let c = eng.compiled();
    let plan = BlockPlan::new(&c.program, &c.leafs).map_err(|e| format!("plan: {e}"))?;
    let codes = quantize_input(crop, &c.program);
    let first = eng.kernels();
    let second = if first == Kernels::Packed {
        Kernels::Reference
    } else {
        Kernels::Packed
    };
    let mut pool_a = PlanePool::new();
    let a = execute_with(&plan, &mut pool_a, &codes, first)
        .map_err(|e| format!("{}: {e}", first.as_str()))?
        .clone();
    let mut pool_b = PlanePool::new();
    let b = execute_with(&plan, &mut pool_b, &codes, second)
        .map_err(|e| format!("{}: {e}", second.as_str()))?;
    if &a != b {
        return Err(format!(
            "block output differs between {} and {} kernels",
            first.as_str(),
            second.as_str()
        ));
    }
    if pool_a.stats().work() != pool_b.stats().work() {
        return Err(format!(
            "block work counters differ between {} and {} kernels",
            first.as_str(),
            second.as_str()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_rotates_over_seams_and_corners() {
        let all: Vec<Rect> = (0..8).map(|t| region(232, 464, 116, t)).collect();
        for r in &all {
            assert!(r.y + r.h <= 232 && r.x + r.w <= 464);
        }
        // Even turns visit the 1 x 3 interior seam crossings of a 2 x 4
        // grid; odd turns the four corners.
        let mut seam: Vec<_> = all.iter().step_by(2).map(|r| (r.y, r.x)).collect();
        seam.sort_unstable();
        seam.dedup();
        assert_eq!(seam, [(100, 100), (100, 216), (100, 332)]);
        assert_eq!(
            all[7],
            Rect {
                y: 200,
                x: 432,
                h: 32,
                w: 32
            }
        );
    }
}
