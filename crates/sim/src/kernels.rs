//! Flat-slice convolution micro-kernels, plus the kept scalar reference.
//!
//! [`execute_with`](crate::exec::execute_with) dispatches its accumulation inner
//! loops here. The fast paths consume the plan-time
//! [`PackedKernelParams`](ecnn_isa::params::PackedKernelParams) cache —
//! weights pair-packed once, biases pre-aligned, zero taps masked — and
//! come in two shapes:
//!
//! * **Row kernels** (the `Packed` rung, which also runs every
//!   instruction `Simd` holds no narrow licence for, and the narrow
//!   fallbacks): one `(oc, ic, ky)` channel pair at a time, each output
//!   row driven as raw input-row slices with the 3 horizontal taps fused
//!   per row. Rows and columns are split into a *border*
//!   (bounds-checked, zero-padded inference only) and an *interior* span
//!   that runs with no bounds checks and no branches, so the `i64` row
//!   accumulation auto-vectorizes.
//! * **Register-blocked kernels** (the narrow `i32` path on
//!   AVX-512/AVX2/SSE2, see [`simd`]): one output row and one pixel chunk
//!   at a time, 4 output channels held in registers while every
//!   input-channel pair and tap streams through a pairwise multiply-add —
//!   each input load serves 4 output channels, and each accumulator is
//!   stored once. The 3×3 kernel covers truncated-pyramid sweeps at least
//!   [`simd::BLOCKED_MIN_WIDTH`] wide, writes the biases itself (it can
//!   also requantize in registers and store codes), skips the plan's
//!   dead channels ([`simd::LiveChannels`]) and, on the AVX-512 rung,
//!   multiplies bytes where the plan licenses it ([`simd`]'s "Byte
//!   lanes"); the 1×1 kernel covers planes of at least that many pixels.
//!   Both split a large sweep's rows across the plan's lanes (see
//!   [`simd`]'s "Lanes and bands"). Zero-padded sweeps, narrower planes,
//!   NEON and scalar keep the row kernels, on the calling thread.
//!
//! The packed kernels accumulate in exact `i64` arithmetic, so any
//! summation order produces bit-identical results; narrow kernels wrap
//! modulo 2³² and are exact under the verifier's `narrow_acc` license,
//! and a narrow instruction never leaves `i32`: the fused
//! [`simd::epilogue_narrow`] requantizes straight from its accumulator.
//! The fast kernels therefore match the [`mod@reference`] kernels exactly,
//! which the parity proptests in `tests/kernel_parity.rs` enforce against
//! the `conv3x3_fixed` / `conv1x1_fixed` goldens.
//!
//! The [`mod@reference`] submodule preserves the pre-packing scalar kernels
//! verbatim: they are the baseline `bench_kernels` measures speedups
//! against (see `BENCH_kernels.json`) and the oracle of the parity suite.

use ecnn_isa::instr::{Instruction, Opcode, LEAF_CH};
use ecnn_isa::params::{PackedConv1, PackedConv3};
use ecnn_model::model::InferenceKind;
use ecnn_tensor::Tensor;

pub mod simd;

use simd::{Lanes, LiveChannels, SimdLevel, Swept};

/// Adds one fused 3-tap row into a fully interior accumulator span:
/// `acc[x] += t0·row[x] + t1·row[x+1] + t2·row[x+2]`. No bounds branches;
/// `row` must hold at least `acc.len() + 2` samples (the truncated-pyramid
/// geometry guarantees this for every row).
#[inline]
pub fn accum_row_interior(acc: &mut [i64], row: &[i16], taps: [i32; 3]) {
    let n = acc.len();
    let (t0, t1, t2) = (taps[0] as i64, taps[1] as i64, taps[2] as i64);
    let r0 = &row[..n];
    let r1 = &row[1..n + 1];
    let r2 = &row[2..n + 2];
    for (((a, &s0), &s1), &s2) in acc.iter_mut().zip(r0).zip(r1).zip(r2) {
        *a += t0 * s0 as i64 + t1 * s1 as i64 + t2 * s2 as i64;
    }
}

/// The zero-padded variant of [`accum_row_interior`]: `row` and `acc`
/// share a width, the first and last columns drop their out-of-image taps
/// (the border split), and the interior span runs branch-free.
#[inline]
pub fn accum_row_padded(acc: &mut [i64], row: &[i16], taps: [i32; 3]) {
    let n = acc.len();
    debug_assert_eq!(n, row.len());
    let (t0, t1, t2) = (taps[0] as i64, taps[1] as i64, taps[2] as i64);
    if n == 1 {
        acc[0] += t1 * row[0] as i64;
        return;
    }
    acc[0] += t1 * row[0] as i64 + t2 * row[1] as i64;
    if n > 2 {
        let inner = &mut acc[1..n - 1];
        let r0 = &row[..n - 2];
        let r1 = &row[1..n - 1];
        let r2 = &row[2..];
        for (((a, &s0), &s1), &s2) in inner.iter_mut().zip(r0).zip(r1).zip(r2) {
            *a += t0 * s0 as i64 + t1 * s1 as i64 + t2 * s2 as i64;
        }
    }
    acc[n - 1] += t0 * row[n - 2] as i64 + t1 * row[n - 1] as i64;
}

/// An accumulator lane: exact `i64`, or `i32` wrapping modulo 2³² under
/// the verifier's `narrow_acc` license.
pub(crate) trait Lane: Copy + Default {
    /// A pre-aligned bias as a lane value. The `i32` cast truncates, which
    /// is exact modulo 2³² — all the narrow path needs: under the license
    /// the *final* per-element sum fits `i32`, so the wrapped intermediate
    /// recovers the exact value (a bias whose magnitude already exceeds
    /// `i32` simply starts the modular accumulation from the congruent
    /// residue).
    fn bias(b: i64) -> Self;
}

impl Lane for i64 {
    fn bias(b: i64) -> Self {
        b
    }
}

impl Lane for i32 {
    fn bias(b: i64) -> Self {
        b as i32
    }
}

/// Overwrites each of `acc`'s channels with its pre-aligned bias.
pub(crate) fn fill_bias<T: Lane>(acc: &mut Tensor<T>, bias: &[i64]) {
    for (oc, &b) in bias.iter().enumerate() {
        acc.channel_mut(oc).fill(T::bias(b));
    }
}

/// The packed 3×3 row sweep: fills `acc` (already shaped to
/// `out_planes·32 × chh × cw`) with the packed biases, then adds every
/// unmasked `(oc, ic, ky)` tap row through `interior` (truncated-pyramid
/// rows) or `padded` (zero-padded rows), the fused 3-tap row kernels of
/// the lane type. Masked-out tap rows and channel pairs are skipped
/// without touching the weights.
fn conv3_row_sweep<T: Lane>(
    ins: &Instruction,
    input: &Tensor<i16>,
    packed: &PackedConv3,
    acc: &mut Tensor<T>,
    interior: impl Fn(&mut [T], &[i16], [i32; 3]),
    padded: impl Fn(&mut [T], &[i16], [i32; 3]),
) {
    let (_, chh, _) = acc.shape();
    let ih = input.height();
    let origin: isize = match ins.inference {
        InferenceKind::TruncatedPyramid => 1,
        InferenceKind::ZeroPadded => 0,
    };
    fill_bias(acc, &packed.bias);
    for op_ in 0..packed.out_planes {
        for ig in 0..packed.in_groups {
            let plane = op_ * packed.in_groups + ig;
            for oc in 0..LEAF_CH {
                let out_ch = op_ * LEAF_CH + oc;
                for ic in 0..LEAF_CH {
                    let m = packed.row_mask(plane, oc, ic);
                    if m == 0 {
                        continue;
                    }
                    let chan = ig * LEAF_CH + ic;
                    for ky in 0..3usize {
                        if m & (1 << ky) == 0 {
                            continue;
                        }
                        let taps = packed.taps(plane, ky, oc, ic);
                        for y in 0..chh {
                            let sy = y as isize + ky as isize - 1 + origin;
                            if sy < 0 || sy >= ih as isize {
                                continue;
                            }
                            let row = input.row(chan, sy as usize);
                            let arow = acc.row_mut(out_ch, y);
                            if origin == 1 {
                                interior(arow, row, taps);
                            } else {
                                padded(arow, row, taps);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Packed 3×3 accumulation of `input` into `acc` in exact `i64`
/// ([`conv3_row_sweep`] over [`accum_row_interior`] /
/// [`accum_row_padded`]).
pub(crate) fn conv3_acc_packed(
    ins: &Instruction,
    input: &Tensor<i16>,
    packed: &PackedConv3,
    acc: &mut Tensor<i64>,
) {
    conv3_row_sweep(
        ins,
        input,
        packed,
        acc,
        accum_row_interior,
        accum_row_padded,
    );
}

/// Packed 1×1 accumulation of one leaf: for every output channel, only
/// the plan-compacted nonzero input columns contribute, each as one flat
/// channel-slice multiply-add. `chan_base` offsets into `input`'s channels
/// (the leaf's 32-channel group for `CONV1`, 0 for an ER mid plane).
pub(crate) fn conv1_leaf_acc_packed(
    packed: &PackedConv1,
    leaf: usize,
    input: &Tensor<i16>,
    chan_base: usize,
    acc: &mut Tensor<i64>,
) {
    for oc in 0..LEAF_CH {
        for &(ic, wv) in packed.row(leaf, oc) {
            let wv = wv as i64;
            let src = input.channel(chan_base + ic as usize);
            for (a, &s) in acc.channel_mut(oc).iter_mut().zip(src) {
                *a += wv * s as i64;
            }
        }
    }
}

/// The verifier-licensed narrow variant of [`conv3_acc_packed`]: `i32`
/// lanes with wrapping accumulation. Exact — equal to the packed path's
/// `i64` sums — if and only if the plan carries the instruction's
/// `narrow_acc` range proof; the executor enforces that precondition and
/// finishes the instruction with [`simd::epilogue_narrow`].
/// Truncated-pyramid sweeps at least [`simd::BLOCKED_MIN_WIDTH`] wide run
/// the register-blocked kernel on AVX-512/AVX2/SSE2 ([`conv3_runs_blocked`]),
/// which writes the biases itself, computes only the `live` channel
/// extents, splits its rows across `lanes` and runs byte lanes where
/// `packed` is licensed for them; everything else runs the row kernels
/// over a bias-filled `acc`, every channel of it, on this thread.
/// Returns what the sweep did.
pub(crate) fn conv3_acc_packed_simd_narrow(
    ins: &Instruction,
    input: &Tensor<i16>,
    packed: &PackedConv3,
    live: LiveChannels,
    acc: &mut Tensor<i32>,
    level: SimdLevel,
    lanes: &mut Lanes,
) -> Swept {
    if ins.inference == InferenceKind::TruncatedPyramid {
        if let Some(swept) = simd::conv3_blocked_narrow(level, lanes, input, packed, live, acc) {
            return swept;
        }
    }
    conv3_row_sweep(
        ins,
        input,
        packed,
        acc,
        |a, r, t| simd::row_interior_narrow(level, a, r, t),
        |a, r, t| simd::row_padded_narrow(level, a, r, t),
    );
    Swept::default()
}

/// Whether [`conv3_acc_packed_simd_narrow`] runs `ins` at a conv output
/// `out_w` columns wide on the register-blocked sweep at `level`, the one
/// kernel that skips dead channels.
pub(crate) fn conv3_runs_blocked(ins: &Instruction, out_w: usize, level: SimdLevel) -> bool {
    ins.inference == InferenceKind::TruncatedPyramid && simd::conv3_blocked_covers(level, out_w)
}

/// Whether that register-blocked sweep of `packed` also runs on byte
/// lanes ([`simd`]'s "Byte lanes").
pub(crate) fn conv3_runs_bytes(
    ins: &Instruction,
    packed: &PackedConv3,
    out_w: usize,
    level: SimdLevel,
) -> bool {
    conv3_runs_blocked(ins, out_w, level) && simd::runs_bytes(level, out_w, packed.bytes.is_some())
}

/// [`conv3_acc_packed_simd_narrow`]'s register-blocked sweep with the
/// epilogue `ep` fused into its store ([`simd::conv3_blocked_codes`]):
/// writes the `live` channels of `dst` codes, adding the srcS plane
/// `srcs` for a `CONV`, through the ×2 pixel shuffle for `UPX2`, and
/// returns what the sweep did, or returns `None`, leaving `dst`
/// untouched, for the sweeps that run the row kernels
/// ([`conv3_runs_blocked`] is `false`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv3_codes_packed_simd_narrow(
    ins: &Instruction,
    input: &Tensor<i16>,
    packed: &PackedConv3,
    live: LiveChannels,
    ep: &simd::NarrowEpilogue,
    srcs: Option<(&Tensor<i16>, (usize, usize))>,
    dst: &mut Tensor<i16>,
    level: SimdLevel,
    lanes: &mut Lanes,
) -> Option<Swept> {
    if ins.inference != InferenceKind::TruncatedPyramid {
        return None;
    }
    let shuffle = ins.opcode == Opcode::Upx2;
    simd::conv3_blocked_codes(level, lanes, input, packed, live, ep, shuffle, srcs, dst)
}

/// The verifier-licensed narrow variant of [`conv1_leaf_acc_packed`] over
/// the leaves `leaves`, leaf `leaves.start + k` reading `input` channels
/// `32k..32k + 32` (same license and exactness argument as
/// [`conv3_acc_packed_simd_narrow`]): the register-blocked kernel on
/// AVX-512/AVX2/SSE2 for planes of at least [`simd::BLOCKED_MIN_WIDTH`]
/// pixels, its pixels split across `lanes`, else one flat channel MAC per
/// nonzero column on this thread. Returns whether it forked.
pub(crate) fn conv1_acc_packed_simd_narrow(
    packed: &PackedConv1,
    leaves: std::ops::Range<usize>,
    input: &Tensor<i16>,
    acc: &mut Tensor<i32>,
    level: SimdLevel,
    lanes: &mut Lanes,
) -> bool {
    if let Some(forked) =
        simd::conv1_blocked_narrow(level, lanes, packed, leaves.clone(), input, acc)
    {
        return forked;
    }
    for (k, leaf) in leaves.enumerate() {
        for oc in 0..LEAF_CH {
            for &(ic, wv) in packed.row(leaf, oc) {
                let src = input.channel(k * LEAF_CH + ic as usize);
                simd::ch_mac_narrow(level, acc.channel_mut(oc), src, wv);
            }
        }
    }
    false
}

/// The pre-packing scalar kernels, kept verbatim: per-MAC bounds-checked
/// `at()`/`at_mut()` accesses, per-pixel border branches, and per-call
/// bias `Vec` allocation. [`crate::exec::execute_with`] runs them with
/// [`crate::exec::Kernels::Reference`]; `bench_kernels` uses that path as
/// the measured baseline, and the parity proptests as the oracle.
pub mod reference {
    use super::*;

    /// Full-precision 3×3 convolution of `input` (all groups) producing
    /// `out_planes × 32` channels of `i64` accumulators in `acc` (already
    /// shaped by the caller to the conv extent it runs at; every element
    /// is overwritten).
    /// `weights(out_plane, in_group)` yields one leaf's 32×32×9 filter;
    /// `biases(out_plane)` yields accumulator-aligned biases.
    pub fn conv3_acc_into<'w>(
        ins: &Instruction,
        input: &Tensor<i16>,
        weights: &dyn Fn(usize, usize) -> &'w [i16],
        biases: &dyn Fn(usize) -> Vec<i64>,
        out_planes: usize,
        acc: &mut Tensor<i64>,
    ) {
        let (_, chh, cw) = acc.shape();
        let (ih, iw) = (input.height(), input.width());
        let origin: isize = match ins.inference {
            InferenceKind::TruncatedPyramid => 1,
            InferenceKind::ZeroPadded => 0,
        };
        debug_assert_eq!(acc.channels(), out_planes * LEAF_CH);
        for op_ in 0..out_planes {
            let b = biases(op_);
            // `oc` addresses both the bias table and the plane offset.
            #[allow(clippy::needless_range_loop)]
            for oc in 0..LEAF_CH {
                for y in 0..chh {
                    for x in 0..cw {
                        *acc.at_mut(op_ * LEAF_CH + oc, y, x) = b[oc];
                    }
                }
            }
            for ig in 0..ins.in_groups {
                let w = weights(op_, ig);
                for oc in 0..LEAF_CH {
                    for ic in 0..LEAF_CH {
                        let wbase = (oc * LEAF_CH + ic) * 9;
                        let chan = ig * LEAF_CH + ic;
                        for ky in 0..3usize {
                            for kx in 0..3usize {
                                let wv = w[wbase + ky * 3 + kx] as i64;
                                if wv == 0 {
                                    continue;
                                }
                                for y in 0..chh {
                                    let sy = y as isize + ky as isize - 1 + origin;
                                    if sy < 0 || sy >= ih as isize {
                                        continue;
                                    }
                                    for x in 0..cw {
                                        let sx = x as isize + kx as isize - 1 + origin;
                                        if sx < 0 || sx >= iw as isize {
                                            continue;
                                        }
                                        *acc.at_mut(op_ * LEAF_CH + oc, y, x) +=
                                            wv * input.at(chan, sy as usize, sx as usize) as i64;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// The pre-packing 1×1 accumulation for one leaf: scalar per-pixel
    /// MACs with the zero test inside the channel loops.
    pub fn conv1_leaf_acc(
        leaf_w1: &[i16],
        input: &Tensor<i16>,
        chan_base: usize,
        acc: &mut Tensor<i64>,
    ) {
        let (_, h, w) = acc.shape();
        for oc in 0..LEAF_CH {
            for ic in 0..LEAF_CH {
                let wv = leaf_w1[oc * LEAF_CH + ic] as i64;
                if wv == 0 {
                    continue;
                }
                for y in 0..h {
                    for x in 0..w {
                        *acc.at_mut(oc, y, x) += wv * input.at(chan_base + ic, y, x) as i64;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interior_row_fuses_three_taps() {
        let row: Vec<i16> = (1..=6).collect();
        let mut acc = vec![100i64; 4];
        accum_row_interior(&mut acc, &row, [1, 10, 100]);
        // acc[x] += row[x] + 10*row[x+1] + 100*row[x+2]
        assert_eq!(acc, vec![100 + 321, 100 + 432, 100 + 543, 100 + 654]);
    }

    #[test]
    fn padded_row_drops_border_taps() {
        let row: Vec<i16> = vec![2, 3, 4, 5];
        let mut acc = vec![0i64; 4];
        accum_row_padded(&mut acc, &row, [1, 10, 100]);
        assert_eq!(acc[0], 10 * 2 + 100 * 3, "left border drops t0");
        assert_eq!(acc[1], 2 + 10 * 3 + 100 * 4);
        assert_eq!(acc[2], 3 + 10 * 4 + 100 * 5);
        assert_eq!(acc[3], 4 + 10 * 5, "right border drops t2");
    }

    #[test]
    fn padded_row_handles_degenerate_widths() {
        let mut acc = vec![0i64; 1];
        accum_row_padded(&mut acc, &[7], [1, 10, 100]);
        assert_eq!(acc, vec![70], "1-wide row keeps only the center tap");
        let mut acc = vec![0i64; 2];
        accum_row_padded(&mut acc, &[3, 5], [1, 10, 100]);
        assert_eq!(acc, vec![10 * 3 + 100 * 5, 3 + 10 * 5]);
    }

    #[test]
    fn padded_matches_interior_on_pre_padded_row() {
        // A padded row computed directly must equal an interior pass over
        // the same row with explicit zero padding.
        let row: Vec<i16> = vec![-3, 8, 0, 5, 2, -1, 9];
        let taps = [7, -2, 3];
        let mut padded = vec![5i64; row.len()];
        accum_row_padded(&mut padded, &row, taps);
        let mut wide = vec![0i16];
        wide.extend_from_slice(&row);
        wide.push(0);
        let mut interior = vec![5i64; row.len()];
        accum_row_interior(&mut interior, &wide, taps);
        assert_eq!(padded, interior);
    }
}
