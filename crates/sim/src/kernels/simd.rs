//! Explicit-SIMD variants of the packed conv inner loops, with runtime
//! dispatch, a verifier-licensed narrow (`i32`) accumulation path and its
//! fused requantizing epilogue.
//!
//! # Dispatch ladder
//!
//! [`detect`] probes the CPU once (cached) and returns the best
//! [`SimdLevel`] available: AVX-512 → AVX2 → SSE2 on `x86_64`, NEON on
//! `aarch64`, scalar everywhere else. The AVX-512 rung needs AVX2,
//! AVX-512F, AVX-512BW and AVX-512 VNNI together; only the byte-lane 3×3
//! kernel (with its source repack) and the register-blocked 1×1 kernel
//! have AVX-512 bodies, and every other kernel on that rung (the
//! pair-word 3×3 kernel, the row kernels and the epilogue) runs the AVX2
//! body. The level is resolved at *plan* time (`BlockPlan`
//! stores it; `BlockPlan::with_simd_level` pins any rung
//! [`SimdLevel::is_available`] admits, for tests and benches) and
//! threaded into every kernel, so the per-row dispatch is a predictable
//! match on a plan constant — never a repeated feature probe.
//!
//! # Narrow lanes
//!
//! Every kernel here accumulates in `i32` lanes (8-wide on AVX2, 16-wide
//! in the AVX-512 conv kernels) with *wrapping* multiply-adds.
//! Two's-complement wrapping arithmetic is exact modulo 2³², so the
//! narrow result is bit-identical to the exact `i64` sum whenever the
//! final per-element sum fits `i32`. The static verifier's interval
//! analysis proves exactly that per instruction
//! (`ecnn_isa::verify::InstrRange::narrow_acc`): every conv-stage sum
//! *and* the final accumulator after the srcS add fit `i32`, so the whole
//! instruction — conv and [`epilogue_narrow`] alike — stays in `i32`. The
//! executor only routes an instruction here when its plan carries that
//! proof; intermediate wraps (in products, partial sums or the up-shifted
//! srcS term) are harmless under the license. Unlicensed instructions run
//! the packed row kernels ([`crate::kernels::accum_row_interior`] and
//! friends), which accumulate in exact `i64`.
//!
//! The scalar narrow fallbacks use explicit `wrapping_*` ops for the same
//! modular semantics (the dev/test profiles build with
//! `overflow-checks = true`).
//!
//! # Fused narrow epilogue
//!
//! [`epilogue_narrow`] finishes a licensed instruction in one pass from
//! its `i32` accumulator to `i16` destination codes: add the center-
//! cropped srcS row shifted up to the accumulator's fractional position,
//! apply the ReLU floor, round half away from zero without branches
//! (sign mask, `abs`, add half, logical shift, re-sign — `abs` of
//! `i32::MIN` is 2³¹ as an unsigned lane, so it rounds correctly), clamp
//! to the code range and pack. AVX2 runs 8 lanes, SSE2 emulates `max`,
//! `min` and `abs` with compare/`xor` masks, and NEON and scalar take the
//! scalar loop. [`NarrowEpilogue::new`] refuses the shapes it does not
//! cover (no rounding shift, or a srcS plane finer than the accumulator);
//! the plan leaves those instructions unlicensed, so they run the packed
//! row kernels.
//!
//! # Register-blocked narrow conv kernels
//!
//! On AVX-512, AVX2 and SSE2 the narrow 3×3 and 1×1 stages run
//! [`conv3_blocked_narrow`] / [`conv3_blocked_codes`] /
//! [`er_blocked_narrow`] / [`conv1_blocked_narrow`] instead of one row
//! kernel call per channel pair:
//!
//! * **Layout.** Per output row and pixel chunk (32 pixels on AVX-512, 16
//!   on AVX2, 8 on SSE2), 4 output channels × 2 vectors of `i32`
//!   accumulators stay in registers. The 3×3 kernel starts them from the
//!   bias, the 1×1 kernel from the current `acc` (it accumulates across
//!   ER leaves). On the AVX-512 rung, licensed 3×3 sweeps of at least 32
//!   columns run on byte lanes (below), every other 3×3 sweep runs the
//!   AVX2 kernel, and 1×1 planes take one more AVX2 chunk when at least
//!   16 pixels are left after the 32-pixel chunks.
//! * **Pair words.** For each input-channel pair `(2p, 2p + 1)` and tap,
//!   the kernel loads a chunk of samples from both channel rows and
//!   interleaves them with `unpacklo/hi_epi16`, so each 32-bit lane holds
//!   `(x[2p], x[2p+1])`. The plan packs the matching weights once into
//!   one 32-bit word per `(output channel, pair, tap)`
//!   ([`ecnn_isa::params::pair_word`]: channel `2p` in the low half), so
//!   one broadcast word and one `madd_epi16` (`vpmaddwd`) apply 2 taps
//!   to every pixel of the vector; the AVX-512 1×1 kernel's
//!   `dpwssd_epi32` (`vpdpwssd`) fuses that multiply-add with the
//!   accumulate. The unpacked halves come out in 128-bit-lane order: on
//!   AVX2 pixels 0–3 / 8–11 and 4–7 / 12–15, and one `permute2x128` pair
//!   per output channel restores pixel order at the store; on AVX-512
//!   pixels 0–3 / 8–11 / 16–19 / 24–27 and the 4 after each, and one
//!   `permutex2var_epi64` pair does it. The 1×1 kernels apply the
//!   inverse on their loads.
//! * **Exactness.** `vpmaddwd` computes `a₀b₀ + a₁b₁` of `i16` pairs into
//!   `i32`. Each product fits `i32`; the sum overflows only when both are
//!   (−32768)·(−32768), and then wraps to −2³¹, the residue of 2³¹ modulo
//!   2³². Every other step is a wrapping `i32` add, so the blocked result
//!   is congruent modulo 2³² to the exact sum — the same argument as the
//!   row kernels, covered by the same `narrow_acc` license. `vpdpwssd`
//!   adds the same two exact products to the lane with wraparound (the
//!   kernels never use the saturating `vpdpwssds`), so its result is
//!   congruent modulo 2³² to `vpmaddwd` followed by the add, and the same
//!   license covers it.
//! * **Tails.** The 3×3 kernel overwrites its output, so a ragged last
//!   chunk simply starts at `cw − chunk` and recomputes the overlap. The
//!   1×1 kernel accumulates, so its last `px mod chunk` pixels run the
//!   scalar loop over the compacted nonzero columns.
//! * **Fused codes store.** [`conv3_blocked_codes`] is the 3×3 sweep in
//!   codes mode: it adds a `CONV`'s srcS codes (sign-extended and
//!   shifted up to the accumulator, for the channels the srcS plane has),
//!   applies the rest of the [`NarrowEpilogue`] to the registers (floor,
//!   branch-free round, clamp) and `packs_epi32(lo, hi)` writes `i16`
//!   codes. Per 128-bit lane that pack emits `lo`'s 4 pixels and then
//!   `hi`'s, which is already pixel order for the pair-word kernels (the
//!   byte kernel, whose accumulators are in pixel order, permutes qwords
//!   once). In shuffle mode (`UPX2`, srcS-free) the 4 output channels of
//!   a block are the 4 phases `(dy, dx)` of one shuffled channel: the
//!   packed phase codes are interleaved with `unpacklo/hi_epi16` into
//!   rows `2y` and `2y + 1` (one `permute2x128` pair on AVX2,
//!   `to_pixel_order` on AVX-512, none on SSE2). The store writes only
//!   the live blocks, so a destination needs only the live channels. The
//!   executor uses it for each ER band's mid codes and for the final
//!   codes of every CONV and srcS-free UPX2 whose destination has a slot
//!   of its own, which then need no `i32` plane and no pre-shuffle codes;
//!   sweeps the blocked kernels do not cover still go through an `i32`
//!   plane and [`epilogue_narrow`].
//! * **Zero-skipping.** A plan-time mask per (4-channel output block,
//!   input pair, `ky`) skips all-zero tap rows, so pruned models still
//!   skip work; the byte kernel skips a quad's tap row when both of its
//!   pairs' masks do.
//! * **Channel liveness.** The 3×3 sweep takes the instruction's
//!   [`LiveChannels`] from the plan: it skips input pairs (quads, on byte
//!   lanes) past the live source channels (the zero padding of a 3- or
//!   12-channel DI plane) and output blocks past the live output channels
//!   (a DO plane's channels the output assembly never reads). A dead pair
//!   contributes only zeros, and a dead block is never stored, so its
//!   accumulator channels keep stale values that nothing reads. The work
//!   counters still charge the accelerator's full 32-channel MACs.
//! * **Fallbacks.** Zero-padded 3×3 sweeps, conv widths (3×3) or planes
//!   (1×1) below [`BLOCKED_MIN_WIDTH`], NEON and scalar run the row
//!   kernels below.
//!
//! # Byte lanes
//!
//! Every shipped model's feature codes and weights have at most 8 bits,
//! so on the AVX-512 rung a licensed 3×3 sweep multiplies bytes: one
//! `vpdpbusd` adds 4 `u8 × i8` products to each 32-bit lane, twice the
//! MACs of a pair-word `vpdpwssd`.
//!
//! * **Licence.** On top of `narrow_acc`, the plan stamps a byte-lane
//!   licence ([`ecnn_isa::params::ByteLanes`]) on a 3×3 stage whose
//!   weights all fit `i8` (packing left its quad words out otherwise) and
//!   whose source codes fit `u8` after a fixed offset: 128 when the
//!   declared source format and the stored formats of its source planes
//!   are signed of at most 8 bits, 0 when they are unsigned of at most 8
//!   bits. Every stored code is clamped to its format, so this is a
//!   plan-time check. Sweeps of at least [`BYTE_LANES_MIN_WIDTH`]
//!   columns run on byte lanes, which `ExecStats::byte_lane_sweeps`
//!   counts.
//! * **Repack.** A lane repacks the source rows each band reads into its
//!   own buffer as quad-interleaved `u8` rows: per pixel one 32-bit word
//!   holding channels `4q..4q + 4` plus the offset (`packus`, then byte
//!   and word unpacks, then `to_pixel_order`). An `ER` band's leaves
//!   share one repack. A band whose offset codes do not all fit `u8`
//!   (only an input block outside its format can hold one) runs the
//!   pair-word kernel instead.
//! * **Quad words and correction.** The plan packs each `(output
//!   channel, quad, tap)`'s four `i8` weights into one word
//!   ([`ecnn_isa::params::quad_word`]) on the same walk as the pair
//!   words, and folds the offset's term into the licence's bias:
//!   `Σ w·(x + o) = Σ w·x + o·Σ w`, so the bias loses `o` times the sum
//!   of every weight the kernel multiplies — all taps of the quads
//!   holding a live channel. A dead channel inside such a quad reads as
//!   `o` and its weights are in the sum; skipped quads and all-zero tap
//!   rows are in neither.
//! * **Exactness.** Each `u8 × i8` product and their sum of 4 fit `i32`,
//!   and the kernel uses the wrapping `vpdpbusd` (never the saturating
//!   `vpdpbusds`), so the lane is congruent modulo 2³² to the corrected
//!   bias plus the offset-code products, which is congruent to the exact
//!   sum. Under `narrow_acc` that sum fits `i32`: the result is exact,
//!   by the same argument as the pair words.
//!
//! # Lanes and bands
//!
//! The register-blocked entry points take a [`Lanes`] and split one
//! sweep's output rows (the 1×1's pixels) into contiguous ranges, a few
//! per lane. The calling thread and up to `lanes − 1` scoped threads
//! (`std::thread::scope`) claim ranges until none is left, so a lane
//! whose core is busy elsewhere takes fewer, and all are joined before
//! the entry point returns. Each lane owns a [`LaneScratch`] of band
//! buffers: byte-lane sweeps and `ER` instructions run each range in
//! bands of [`BAND_ROWS`] rows. [`er_blocked_narrow`] runs a whole `ER`
//! instruction in one fan-out, and per band every leaf's 3×3 expansion
//! stores mid codes into the lane's mid band, that leaf's 1×1
//! accumulates them into the lane's `i32` band, and the final epilogue
//! (srcS, ReLU, rounding) writes the band's destination rows — so the
//! epilogue runs on every lane and no instruction-sized mid or `i32`
//! plane exists. Every row is computed by the same code from the same
//! complete input plane as on one lane, so the split is bit-identical by
//! construction; the lanes write disjoint rows of the caller's planes.
//! The pool sizes the band buffers once from the plan
//! ([`BandScratch`]), so warm blocks allocate nothing. A sweep under
//! [`FAN_OUT_MIN_MACS`] host MACs runs on the calling thread alone.
//!
//! # Safety
//!
//! This is the single module in the workspace allowed to contain `unsafe`
//! (the crate root relaxes `forbid(unsafe_code)` to `deny`, and CI greps
//! that the keyword appears nowhere else). All unsafe code is of exactly
//! three shapes, each with a `SAFETY` comment at the block:
//!
//! 1. calling a `#[target_feature]` function after [`detect`] confirmed
//!    the feature at runtime;
//! 2. unaligned vector loads/stores whose bounds the surrounding loop
//!    condition establishes (`j + LANES <= n`, with the row-slice length
//!    contracts documented on each public wrapper; the blocked kernels'
//!    plane offsets are bounded by the shape checks of their safe
//!    wrappers);
//! 3. the lanes' shared planes: the blocked kernels store to (and the 1×1
//!    reads from) a caller's plane, or a lane's band buffer, through the
//!    raw pointer of a private `LanePlane`, which is `Send` and `Sync`
//!    because each lane touches only the rows of the ranges it claimed.
#![allow(unsafe_code)]

use ecnn_isa::instr::LEAF_CH;
use ecnn_isa::params::{
    ByteLanes, PackedConv1, PackedConv3, CONV3_BLOCK_QUADS, CONV3_BLOCK_WORDS, IC_PAIRS, IC_QUADS,
    OC_BLOCK, OC_BLOCKS,
};
use ecnn_tensor::{QFormat, Tensor};
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The instruction-set tier the row kernels dispatch on. All variants
/// exist on every architecture (so cross-arch code can name them); levels
/// foreign to the compilation target simply fall back to the scalar loop
/// and [`detect`] never returns them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// 512-bit AVX-512F/BW with VNNI: licensed 3×3 sweeps run 32-pixel
    /// chunks of byte lanes through `vpdpbusd`, the 1×1 kernel through
    /// `vpdpwssd`; every other kernel runs the AVX2 body (the level
    /// implies AVX2).
    Avx512,
    /// 256-bit AVX2: 8×`i32` narrow lanes.
    Avx2,
    /// 128-bit SSE2: 4×`i32` narrow lanes (emulated `mullo`).
    Sse2,
    /// 128-bit NEON (`aarch64`): 4×`i32` narrow lanes.
    Neon,
    /// Portable scalar loops (wrapping ops on the narrow path).
    Scalar,
}

impl SimdLevel {
    /// Every level, widest first.
    pub const ALL: [SimdLevel; 5] = [
        SimdLevel::Avx512,
        SimdLevel::Avx2,
        SimdLevel::Sse2,
        SimdLevel::Neon,
        SimdLevel::Scalar,
    ];

    /// Stable lower-case name (`"avx512"`, `"avx2"`, `"sse2"`, `"neon"`,
    /// `"scalar"`).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Avx512 => "avx512",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Neon => "neon",
            SimdLevel::Scalar => "scalar",
        }
    }

    /// Whether this CPU can run `self`: [`detect`]'s level or a rung
    /// below it on the same ladder (AVX-512 → AVX2 → SSE2 → scalar, or
    /// NEON → scalar). Scalar is always available.
    pub fn is_available(self) -> bool {
        let best = detect();
        match self {
            SimdLevel::Avx512 => best == SimdLevel::Avx512,
            SimdLevel::Avx2 => matches!(best, SimdLevel::Avx512 | SimdLevel::Avx2),
            SimdLevel::Sse2 => {
                matches!(best, SimdLevel::Avx512 | SimdLevel::Avx2 | SimdLevel::Sse2)
            }
            SimdLevel::Neon => best == SimdLevel::Neon,
            SimdLevel::Scalar => true,
        }
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Best [`SimdLevel`] this CPU supports, probed once via
/// `is_x86_feature_detected!` / `is_aarch64_feature_detected!` and cached
/// for the process lifetime.
pub fn detect() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2")
                && is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512bw")
                && is_x86_feature_detected!("avx512vnni")
            {
                return SimdLevel::Avx512;
            }
            if is_x86_feature_detected!("avx2") {
                return SimdLevel::Avx2;
            }
            if is_x86_feature_detected!("sse2") {
                return SimdLevel::Sse2;
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            if std::arch::is_aarch64_feature_detected!("neon") {
                return SimdLevel::Neon;
            }
        }
        SimdLevel::Scalar
    })
}

// --------------------------------------------------------------------------
// Scalar fallbacks (also the tail loops of every vector kernel).
// --------------------------------------------------------------------------

fn scalar_row_interior_narrow(acc: &mut [i32], row: &[i16], taps: [i32; 3]) {
    let n = acc.len();
    let (t0, t1, t2) = (taps[0], taps[1], taps[2]);
    let r0 = &row[..n];
    let r1 = &row[1..n + 1];
    let r2 = &row[2..n + 2];
    for (((a, &s0), &s1), &s2) in acc.iter_mut().zip(r0).zip(r1).zip(r2) {
        *a = a
            .wrapping_add(t0.wrapping_mul(s0 as i32))
            .wrapping_add(t1.wrapping_mul(s1 as i32))
            .wrapping_add(t2.wrapping_mul(s2 as i32));
    }
}

fn scalar_ch_mac_narrow(acc: &mut [i32], src: &[i16], w: i32) {
    for (a, &s) in acc.iter_mut().zip(src) {
        *a = a.wrapping_add(w.wrapping_mul(s as i32));
    }
}

/// One element of the fused narrow epilogue, in the vector kernels' exact
/// branch-free steps. The magnitude is taken as `u32`, so `i32::MIN`
/// (magnitude 2³¹) rounds correctly too.
#[inline]
fn scalar_epilogue_one(ep: &NarrowEpilogue, acc: i32, srcs: i32) -> i16 {
    let a = acc
        .wrapping_add(srcs.wrapping_shl(ep.srcs_shift))
        .max(ep.floor);
    let sign = a >> 31;
    let mag = (a ^ sign).wrapping_sub(sign) as u32;
    let r = (mag.wrapping_add(ep.half() as u32) >> ep.shift) as i32;
    ((r ^ sign).wrapping_sub(sign)).clamp(ep.min, ep.max) as i16
}

fn scalar_epilogue(ep: &NarrowEpilogue, acc: &[i32], srcs: Option<&[i16]>, dst: &mut [i16]) {
    match srcs {
        Some(s) => {
            for ((d, &a), &v) in dst.iter_mut().zip(acc).zip(s) {
                *d = scalar_epilogue_one(ep, a, v as i32);
            }
        }
        None => {
            for (d, &a) in dst.iter_mut().zip(acc) {
                *d = scalar_epilogue_one(ep, a, 0);
            }
        }
    }
}

// --------------------------------------------------------------------------
// AVX2 (x86_64)
// --------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{CONV3_BLOCK_WORDS, IC_PAIRS, LEAF_CH, OC_BLOCK, OC_BLOCKS};
    use std::arch::x86_64::*;

    #[target_feature(enable = "avx2")]
    pub unsafe fn row_interior_narrow(acc: &mut [i32], row: &[i16], taps: [i32; 3]) {
        let n = acc.len();
        let (t0, t1, t2) = (
            _mm256_set1_epi32(taps[0]),
            _mm256_set1_epi32(taps[1]),
            _mm256_set1_epi32(taps[2]),
        );
        let mut j = 0usize;
        while j + 8 <= n {
            // SAFETY: `j + 8 <= n` and `row.len() >= n + 2` (wrapper
            // contract), so the three 128-bit source loads at offsets
            // `j..j+8+2` and the 256-bit accumulator load/store at
            // `j..j+8` are all in bounds. Unaligned-access intrinsics.
            unsafe {
                let s0 =
                    _mm256_cvtepi16_epi32(_mm_loadu_si128(row.as_ptr().add(j) as *const __m128i));
                let s1 = _mm256_cvtepi16_epi32(_mm_loadu_si128(
                    row.as_ptr().add(j + 1) as *const __m128i
                ));
                let s2 = _mm256_cvtepi16_epi32(_mm_loadu_si128(
                    row.as_ptr().add(j + 2) as *const __m128i
                ));
                let a = _mm256_loadu_si256(acc.as_ptr().add(j) as *const __m256i);
                let sum = _mm256_add_epi32(
                    _mm256_mullo_epi32(t0, s0),
                    _mm256_add_epi32(_mm256_mullo_epi32(t1, s1), _mm256_mullo_epi32(t2, s2)),
                );
                _mm256_storeu_si256(
                    acc.as_mut_ptr().add(j) as *mut __m256i,
                    _mm256_add_epi32(a, sum),
                );
            }
            j += 8;
        }
        super::scalar_row_interior_narrow(&mut acc[j..], &row[j..], taps);
    }

    /// Pixels per register-blocked chunk.
    const LANES: usize = 16;

    /// Output rows `rows` of a register-blocked narrow 3×3 sweep (see
    /// [`super::conv3_blocked_narrow`]) over 16-pixel chunks.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, `rows.end <= s.out_h`, and no other
    /// thread may touch `rows` of `out` meanwhile.
    #[target_feature(enable = "avx2")]
    pub unsafe fn conv3_blocked(
        s: &super::Conv3Sweep<'_>,
        out: &super::Conv3Store<'_>,
        rows: std::ops::Range<usize>,
    ) {
        for y in rows {
            for op_ in 0..s.out_planes {
                for ocb in 0..s.live.blocks(op_) {
                    for x in super::chunk_starts(s.out_w, LANES) {
                        // SAFETY: AVX2 is enabled here, and `chunk_starts`
                        // keeps `x + 16 <= out_w`.
                        unsafe { conv3_chunk(s, out, y, op_, ocb, x) };
                    }
                }
            }
        }
    }

    /// One chunk of [`conv3_blocked`]: output row `y`, columns
    /// `x..x + 16`, channels `4·ocb..4·ocb + 4` of output plane `op_`.
    /// 4 × 2 `i32` accumulators start from the bias, take every live
    /// input pair with a nonzero tap row through `vpmaddwd`, and are
    /// stored once: raw, or requantized and packed to codes.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, `y < out_h`, `op_ < out_planes`,
    /// `ocb < OC_BLOCKS` and `x + 16 <= out_w` (the sweep's shape checks
    /// bound every other offset, the live pairs among them).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn conv3_chunk(
        s: &super::Conv3Sweep<'_>,
        out: &super::Conv3Store<'_>,
        y: usize,
        op_: usize,
        ocb: usize,
        x: usize,
    ) {
        let (ih, iw, cw) = (s.in_h, s.in_w, s.out_w);
        let oc0 = op_ * LEAF_CH + ocb * OC_BLOCK;
        let mut lo = [_mm256_setzero_si256(); OC_BLOCK];
        for (l, &v) in lo.iter_mut().zip(&s.bias[oc0..oc0 + OC_BLOCK]) {
            *l = _mm256_set1_epi32(v as i32);
        }
        let mut hi = lo;
        for ig in 0..s.in_groups {
            let block = (op_ * s.in_groups + ig) * OC_BLOCKS + ocb;
            let masks = &s.block_mask[block * IC_PAIRS..][..s.live.pairs(ig)];
            let words = &s.words[block * CONV3_BLOCK_WORDS..(block + 1) * CONV3_BLOCK_WORDS];
            for (p, &m) in masks.iter().enumerate() {
                if m == 0 {
                    continue;
                }
                let even = ((ig * LEAF_CH + 2 * p) * ih + y) * iw + x;
                let odd = even + ih * iw;
                for ky in 0..3 {
                    if m & (1 << ky) == 0 {
                        continue;
                    }
                    for kx in 0..3 {
                        let off = ky * iw + kx;
                        let w = &words[(p * 9 + ky * 3 + kx) * OC_BLOCK..][..OC_BLOCK];
                        // SAFETY: `Conv3Sweep::new` checked that channel
                        // `2p + 1` of group `ig` exists, `y + ky < ih` and
                        // `x + kx + 16 <= cw + 2 <= iw`, so both 256-bit
                        // loads stay inside one input row.
                        let (a, b) = unsafe {
                            (
                                _mm256_loadu_si256(
                                    s.input.as_ptr().add(even + off) as *const __m256i
                                ),
                                _mm256_loadu_si256(
                                    s.input.as_ptr().add(odd + off) as *const __m256i
                                ),
                            )
                        };
                        // Per 128-bit lane: pixels 0-3 / 8-11 (lo) and
                        // 4-7 / 12-15 (hi), channel 2p in each low half.
                        let il = _mm256_unpacklo_epi16(a, b);
                        let ih_ = _mm256_unpackhi_epi16(a, b);
                        for o in 0..OC_BLOCK {
                            let wv = _mm256_set1_epi32(w[o]);
                            lo[o] = _mm256_add_epi32(lo[o], _mm256_madd_epi16(il, wv));
                            hi[o] = _mm256_add_epi32(hi[o], _mm256_madd_epi16(ih_, wv));
                        }
                    }
                }
            }
        }
        let (chh, yy) = (out.height, y - out.row0);
        match &out.kind {
            super::StoreKind::Acc(acc) => {
                for o in 0..OC_BLOCK {
                    let dst = ((oc0 + o) * chh + yy) * cw + x;
                    // SAFETY: `oc0 + o < out_planes · 32`, `yy < height`
                    // and `x + 16 <= cw` bound both stores to row `yy` of
                    // channel `oc0 + o` of `acc`, a row the caller owns.
                    unsafe {
                        _mm256_storeu_si256(
                            acc.ptr.add(dst) as *mut __m256i,
                            _mm256_permute2x128_si256::<0x20>(lo[o], hi[o]),
                        );
                        _mm256_storeu_si256(
                            acc.ptr.add(dst + 8) as *mut __m256i,
                            _mm256_permute2x128_si256::<0x31>(lo[o], hi[o]),
                        );
                    }
                }
            }
            super::StoreKind::Codes(ep, codes, srcs) => {
                let k = EpilogueVecs::new(ep);
                for o in 0..OC_BLOCK {
                    let (mut a, mut b) = (lo[o], hi[o]);
                    if let Some(sr) = srcs.filter(|sr| oc0 + o < sr.channels) {
                        // SAFETY: `SrcS::new` checked the plane covers
                        // every output pixel at its offset, and
                        // `x + 16 <= cw`.
                        let v =
                            unsafe { _mm256_loadu_si256(sr.at(oc0 + o, y, x) as *const __m256i) };
                        // Pixels 0-7 and 8-15, then into the lo/hi order.
                        let s0 = _mm256_cvtepi16_epi32(_mm256_castsi256_si128(v));
                        let s1 = _mm256_cvtepi16_epi32(_mm256_extracti128_si256::<1>(v));
                        let sl = _mm256_permute2x128_si256::<0x20>(s0, s1);
                        let sh = _mm256_permute2x128_si256::<0x31>(s0, s1);
                        a = _mm256_add_epi32(a, _mm256_sll_epi32(sl, k.up));
                        b = _mm256_add_epi32(b, _mm256_sll_epi32(sh, k.up));
                    }
                    let dst = ((oc0 + o) * chh + yy) * cw + x;
                    // Per 128-bit lane the pack emits lo's 4 pixels, then
                    // hi's: pixels 0-7 / 8-15, already in order.
                    let v = _mm256_packs_epi32(round_clamp(a, &k), round_clamp(b, &k));
                    // SAFETY: as for the accumulator stores, on an `i16`
                    // plane of the same rows that `Conv3Sweep::new`
                    // checked holds every live block's channels.
                    unsafe { _mm256_storeu_si256(codes.ptr.add(dst) as *mut __m256i, v) };
                }
            }
            super::StoreKind::Shuffled(ep, codes) => {
                let k = EpilogueVecs::new(ep);
                let mut v = [_mm256_setzero_si256(); OC_BLOCK];
                for o in 0..OC_BLOCK {
                    // Phase o's 16 codes, in pixel order.
                    v[o] = _mm256_packs_epi32(round_clamp(lo[o], &k), round_clamp(hi[o], &k));
                }
                let c = op_ * OC_BLOCKS + ocb;
                for dy in 0..2 {
                    // Row 2y + dy alternates phases (dy, 0) and (dy, 1):
                    // per 128-bit lane the unpacks pair up pixels 0-3 /
                    // 8-11 and 4-7 / 12-15, so one `permute2x128` pair
                    // puts the 32 codes in column order.
                    let a = _mm256_unpacklo_epi16(v[2 * dy], v[2 * dy + 1]);
                    let b = _mm256_unpackhi_epi16(v[2 * dy], v[2 * dy + 1]);
                    let dst = (c * 2 * chh + 2 * yy + dy) * 2 * cw + 2 * x;
                    // SAFETY: `Conv3Sweep::new` checked the plane holds
                    // one channel per live block, channel `c` among them;
                    // `2yy + dy < 2height` and `2x + 32 <= 2cw` keep both
                    // stores inside row `2yy + dy` of channel `c`.
                    unsafe {
                        _mm256_storeu_si256(
                            codes.ptr.add(dst) as *mut __m256i,
                            _mm256_permute2x128_si256::<0x20>(a, b),
                        );
                        _mm256_storeu_si256(
                            codes.ptr.add(dst + 16) as *mut __m256i,
                            _mm256_permute2x128_si256::<0x31>(a, b),
                        );
                    }
                }
            }
        }
    }

    /// Register-blocked narrow 1×1 accumulation of one leaf (see
    /// [`super::conv1_blocked_narrow`]) over every whole 16-pixel chunk of
    /// pixels `from..to` of the flat channel planes; returns the pixel
    /// after the last chunk.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, `to <= s.px`, and no other thread may
    /// touch pixels `from..to` of the sweep's planes meanwhile.
    #[target_feature(enable = "avx2")]
    pub unsafe fn conv1_blocked(s: &super::Conv1Sweep<'_>, from: usize, to: usize) -> usize {
        let n = s.px;
        let mut j = from;
        while j + LANES <= to {
            for ocb in 0..OC_BLOCKS {
                let block = s.leaf * OC_BLOCKS + ocb;
                let (mut lo, mut hi) = (
                    [_mm256_setzero_si256(); OC_BLOCK],
                    [_mm256_setzero_si256(); OC_BLOCK],
                );
                for o in 0..OC_BLOCK {
                    let a = (ocb * OC_BLOCK + o) * n + j;
                    // SAFETY: `Conv1Sweep::new` checked the accumulator
                    // holds 32 planes of `n` pixels, and `j + 16 <= to <= n`;
                    // the caller owns pixels `from..to`.
                    let (a0, a1) = unsafe {
                        (
                            _mm256_loadu_si256(s.acc.add(a) as *const __m256i),
                            _mm256_loadu_si256(s.acc.add(a + 8) as *const __m256i),
                        )
                    };
                    // Into the interleaved pixel order `madd` produces.
                    lo[o] = _mm256_permute2x128_si256::<0x20>(a0, a1);
                    hi[o] = _mm256_permute2x128_si256::<0x31>(a0, a1);
                }
                for p in 0..IC_PAIRS {
                    if s.block_mask[block * IC_PAIRS + p] == 0 {
                        continue;
                    }
                    let even = (s.chan_base + 2 * p) * n + j;
                    // SAFETY: `Conv1Sweep::new` checked the input holds
                    // channels `chan_base..chan_base + 32` of `n` samples,
                    // and `j + 16 <= to <= n`.
                    let (a, b) = unsafe {
                        (
                            _mm256_loadu_si256(s.input.add(even) as *const __m256i),
                            _mm256_loadu_si256(s.input.add(even + n) as *const __m256i),
                        )
                    };
                    let il = _mm256_unpacklo_epi16(a, b);
                    let ih = _mm256_unpackhi_epi16(a, b);
                    let w = &s.words[(block * IC_PAIRS + p) * OC_BLOCK..][..OC_BLOCK];
                    for o in 0..OC_BLOCK {
                        let wv = _mm256_set1_epi32(w[o]);
                        lo[o] = _mm256_add_epi32(lo[o], _mm256_madd_epi16(il, wv));
                        hi[o] = _mm256_add_epi32(hi[o], _mm256_madd_epi16(ih, wv));
                    }
                }
                for o in 0..OC_BLOCK {
                    let a = (ocb * OC_BLOCK + o) * n + j;
                    // SAFETY: the same in-bounds span the loads above read.
                    unsafe {
                        _mm256_storeu_si256(
                            s.acc.add(a) as *mut __m256i,
                            _mm256_permute2x128_si256::<0x20>(lo[o], hi[o]),
                        );
                        _mm256_storeu_si256(
                            s.acc.add(a + 8) as *mut __m256i,
                            _mm256_permute2x128_si256::<0x31>(lo[o], hi[o]),
                        );
                    }
                }
            }
            j += LANES;
        }
        j
    }

    /// The epilogue constants, splatted once per row or chunk.
    struct EpilogueVecs {
        up: __m128i,
        floor: __m256i,
        half: __m256i,
        shift: __m128i,
        min: __m256i,
        max: __m256i,
    }

    impl EpilogueVecs {
        /// # Safety
        ///
        /// The CPU must support AVX2.
        #[target_feature(enable = "avx2")]
        unsafe fn new(ep: &super::NarrowEpilogue) -> Self {
            Self {
                up: _mm_cvtsi32_si128(ep.srcs_shift as i32),
                floor: _mm256_set1_epi32(ep.floor),
                half: _mm256_set1_epi32(ep.half()),
                shift: _mm_cvtsi32_si128(ep.shift as i32),
                min: _mm256_set1_epi32(ep.min),
                max: _mm256_set1_epi32(ep.max),
            }
        }
    }

    /// Activation floor, branch-free round half away from zero (sign
    /// mask, `abs`, add half, logical shift, re-sign) and clamp of 8
    /// lanes (see [`super::NarrowEpilogue`]).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn round_clamp(a: __m256i, k: &EpilogueVecs) -> __m256i {
        let a = _mm256_max_epi32(a, k.floor);
        let sign = _mm256_srai_epi32(a, 31);
        let r = _mm256_srl_epi32(_mm256_add_epi32(_mm256_abs_epi32(a), k.half), k.shift);
        let r = _mm256_sub_epi32(_mm256_xor_si256(r, sign), sign);
        _mm256_min_epi32(_mm256_max_epi32(r, k.min), k.max)
    }

    /// One row of the fused narrow epilogue (see
    /// [`super::epilogue_narrow`]), 8 lanes per step: srcS up-shift and
    /// add, activation floor, branch-free round half away from zero
    /// (sign mask, `abs`, add half, logical shift, re-sign), clamp, and a
    /// saturating pack to `i16` whose 128-bit-lane halves one
    /// `permute4x64` puts back in order.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, and `dst` (and `srcs`, when present)
    /// must hold `acc.len()` elements.
    #[target_feature(enable = "avx2")]
    pub unsafe fn epilogue_row(
        ep: &super::NarrowEpilogue,
        acc: &[i32],
        srcs: Option<&[i16]>,
        dst: &mut [i16],
    ) {
        let n = acc.len();
        let k = EpilogueVecs::new(ep);
        let mut j = 0usize;
        while j + 8 <= n {
            // SAFETY: `j + 8 <= n` and the wrapper checked `dst` and
            // `srcs` hold `n` elements, so the 256-bit accumulator load,
            // the 128-bit srcS load and the 128-bit code store at
            // `j..j+8` are in bounds.
            unsafe {
                let mut a = _mm256_loadu_si256(acc.as_ptr().add(j) as *const __m256i);
                if let Some(s) = srcs {
                    let v =
                        _mm256_cvtepi16_epi32(_mm_loadu_si128(s.as_ptr().add(j) as *const __m128i));
                    a = _mm256_add_epi32(a, _mm256_sll_epi32(v, k.up));
                }
                let r = round_clamp(a, &k);
                let codes = _mm256_permute4x64_epi64::<0b00_00_10_00>(_mm256_packs_epi32(r, r));
                _mm_storeu_si128(
                    dst.as_mut_ptr().add(j) as *mut __m128i,
                    _mm256_castsi256_si128(codes),
                );
            }
            j += 8;
        }
        super::scalar_epilogue(ep, &acc[j..], srcs.map(|s| &s[j..]), &mut dst[j..]);
    }
}

// --------------------------------------------------------------------------
// AVX-512F/BW + VNNI (x86_64): the register-blocked narrow conv kernels
// --------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{PackedConv3, CONV3_BLOCK_QUADS, IC_PAIRS, IC_QUADS, LEAF_CH, OC_BLOCK, OC_BLOCKS};
    use std::arch::x86_64::*;

    /// Pixels per register-blocked chunk.
    pub const LANES: usize = 32;

    /// Restores pixel order from the `unpacklo/hi_epi16` halves of a
    /// chunk: per 128-bit lane, `lo` holds pixels 0-3 / 8-11 / 16-19 /
    /// 24-27 and `hi` the 4 pixels after each. Returns pixels 0-15 and
    /// 16-31.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn to_pixel_order(lo: __m512i, hi: __m512i) -> (__m512i, __m512i) {
        (
            _mm512_permutex2var_epi64(lo, _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11), hi),
            _mm512_permutex2var_epi64(lo, _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15), hi),
        )
    }

    /// The inverse of [`to_pixel_order`]: pixels 0-15 and 16-31 into the
    /// `lo`/`hi` order the multiply-adds produce.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn from_pixel_order(a0: __m512i, a1: __m512i) -> (__m512i, __m512i) {
        (
            _mm512_permutex2var_epi64(a0, _mm512_setr_epi64(0, 1, 4, 5, 8, 9, 12, 13), a1),
            _mm512_permutex2var_epi64(a0, _mm512_setr_epi64(2, 3, 6, 7, 10, 11, 14, 15), a1),
        )
    }

    /// The epilogue constants, splatted once per chunk.
    struct EpilogueVecs {
        up: __m128i,
        floor: __m512i,
        half: __m512i,
        shift: __m128i,
        min: __m512i,
        max: __m512i,
    }

    impl EpilogueVecs {
        /// # Safety
        ///
        /// The CPU must support AVX-512F.
        #[target_feature(enable = "avx512f")]
        unsafe fn new(ep: &super::NarrowEpilogue) -> Self {
            Self {
                up: _mm_cvtsi32_si128(ep.srcs_shift as i32),
                floor: _mm512_set1_epi32(ep.floor),
                half: _mm512_set1_epi32(ep.half()),
                shift: _mm_cvtsi32_si128(ep.shift as i32),
                min: _mm512_set1_epi32(ep.min),
                max: _mm512_set1_epi32(ep.max),
            }
        }
    }

    /// The AVX2 `round_clamp` on 16 lanes.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn round_clamp(a: __m512i, k: &EpilogueVecs) -> __m512i {
        let a = _mm512_max_epi32(a, k.floor);
        let sign = _mm512_srai_epi32::<31>(a);
        let r = _mm512_srl_epi32(_mm512_add_epi32(_mm512_abs_epi32(a), k.half), k.shift);
        let r = _mm512_sub_epi32(_mm512_xor_si512(r, sign), sign);
        _mm512_min_epi32(_mm512_max_epi32(r, k.min), k.max)
    }

    /// Repacks input rows `rows` of the sweep's source into `dst` as
    /// quad-interleaved `u8` rows (see [`super::QuadRows`]): per pixel
    /// one 32-bit word holding channels `4q..4q + 4`, each code plus
    /// `offset`, channel `4q` in the low byte. Returns whether every
    /// offset code fit `u8`; the caller must not read `dst` otherwise.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F/BW, the sweep must be at least 32
    /// pixels wide, `rows.end <= s.in_h`, and `dst` must hold
    /// [`super::QuadRows::len`] words for `rows.len()` rows.
    #[target_feature(enable = "avx2,avx512f,avx512bw")]
    pub unsafe fn repack(
        s: &super::Conv3Sweep<'_>,
        offset: i16,
        rows: std::ops::Range<usize>,
        dst: &mut [u32],
    ) -> bool {
        let (ih, iw) = (s.in_h, s.in_w);
        let q = super::QuadRows::new(s, rows.len());
        let off = _mm512_set1_epi16(offset);
        let max = _mm512_set1_epi16(255);
        let mut bad = 0u32;
        for qi in 0..q.quads {
            for (r, y) in rows.clone().enumerate() {
                let src = |j: usize| ((4 * qi + j) * ih + y) * iw;
                let row = q.at(qi, r, 0);
                for x in super::chunk_starts(q.width, LANES) {
                    let mut c = [_mm512_setzero_si512(); 4];
                    for (j, c) in c.iter_mut().enumerate() {
                        // SAFETY: channel `4qi + j` is one of the
                        // sweep's source channels (`Conv3Sweep::new`),
                        // `y < in_h`, and `x + 32 <= width <= in_w`.
                        let v = unsafe {
                            _mm512_loadu_si512(s.input.as_ptr().add(src(j) + x) as *const _)
                        };
                        *c = _mm512_add_epi16(v, off);
                        bad |= _mm512_cmpgt_epu16_mask(*c, max);
                    }
                    // Per 128-bit lane k: channels 0/2 and 1/3 of pixels
                    // 8k..8k+8 as bytes, then byte pairs (0, 1) and (2, 3),
                    // then words: pixels 8k..8k+4 (lo) and 8k+4..8k+8 (hi).
                    let p02 = _mm512_packus_epi16(c[0], c[2]);
                    let p13 = _mm512_packus_epi16(c[1], c[3]);
                    let a = _mm512_unpacklo_epi8(p02, p13);
                    let b = _mm512_unpackhi_epi8(p02, p13);
                    let (w0, w1) =
                        to_pixel_order(_mm512_unpacklo_epi16(a, b), _mm512_unpackhi_epi16(a, b));
                    // SAFETY: the caller sized `dst` for these rows, and
                    // `x + 32 <= width` keeps both stores in row `r`.
                    unsafe {
                        _mm512_storeu_si512(dst.as_mut_ptr().add(row + x) as *mut _, w0);
                        _mm512_storeu_si512(dst.as_mut_ptr().add(row + x + 16) as *mut _, w1);
                    }
                }
            }
        }
        bad == 0
    }

    /// Output rows `rows` of a licensed byte-lane 3×3 sweep over 32-pixel
    /// chunks, reading the source from `quads`, which [`repack`] filled
    /// with input rows `rows.start..rows.end + 2`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, AVX-512F/BW and AVX-512 VNNI, the sweep
    /// must carry a byte-lane licence and be at least 32 pixels wide,
    /// `rows` must lie in the sweep and in `out`'s rows, `quads` must
    /// hold those repacked rows, and no other thread may touch `rows` of
    /// `out` meanwhile.
    #[target_feature(enable = "avx2,avx512f,avx512bw,avx512vnni")]
    pub unsafe fn conv3_bytes(
        s: &super::Conv3Sweep<'_>,
        quads: &[u32],
        out: &super::Conv3Store<'_>,
        rows: std::ops::Range<usize>,
    ) {
        let q = super::QuadRows::new(s, rows.len() + 2);
        for y in rows.clone() {
            for op_ in 0..s.out_planes {
                for ocb in 0..s.live.blocks(op_) {
                    for x in super::chunk_starts(s.out_w, LANES) {
                        // SAFETY: the features are enabled here, and
                        // `chunk_starts` keeps `x + 32 <= out_w`.
                        unsafe { bytes_chunk(s, quads, &q, y - rows.start, out, y, op_, ocb, x) };
                    }
                }
            }
        }
    }

    /// One chunk of [`conv3_bytes`]: output row `y` (row `r` of the
    /// repacked band starts its taps), columns `x..x + 32`, channels
    /// `4·ocb..4·ocb + 4` of output plane `op_`. 4 × 2 `zmm` accumulators
    /// start from the offset-corrected bias and take one wrapping
    /// `vpdpbusd` (4 byte products per 32-bit lane) per output channel,
    /// read quad and tap for each 16-pixel half; the accumulators are in
    /// pixel order.
    ///
    /// # Safety
    ///
    /// As [`conv3_bytes`], with `y` one of its rows, `op_ < out_planes`,
    /// `ocb < OC_BLOCKS` and `x + 32 <= out_w`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,avx512f,avx512bw,avx512vnni")]
    #[inline]
    unsafe fn bytes_chunk(
        s: &super::Conv3Sweep<'_>,
        quads: &[u32],
        q: &super::QuadRows,
        r: usize,
        out: &super::Conv3Store<'_>,
        y: usize,
        op_: usize,
        ocb: usize,
        x: usize,
    ) {
        let bytes = s.bytes.expect("a licensed byte-lane sweep");
        let oc0 = op_ * LEAF_CH + ocb * OC_BLOCK;
        let mut lo = [_mm512_setzero_si512(); OC_BLOCK];
        for (l, &v) in lo.iter_mut().zip(&bytes.bias[oc0..oc0 + OC_BLOCK]) {
            *l = _mm512_set1_epi32(v as i32);
        }
        let mut hi = lo;
        for ig in 0..s.in_groups {
            let block = (op_ * s.in_groups + ig) * OC_BLOCKS + ocb;
            let masks = &s.block_mask[block * IC_PAIRS..(block + 1) * IC_PAIRS];
            let words = &s.quads[block * CONV3_BLOCK_QUADS..(block + 1) * CONV3_BLOCK_QUADS];
            for qi in 0..PackedConv3::live_quads(s.live.input, ig) {
                let m = masks[2 * qi] | masks[2 * qi + 1];
                if m == 0 {
                    continue;
                }
                let row = q.at(ig * IC_QUADS + qi, r, x);
                for ky in 0..3 {
                    if m & (1 << ky) == 0 {
                        continue;
                    }
                    for kx in 0..3 {
                        let off = row + ky * q.width + kx;
                        let w = &words[(qi * 9 + ky * 3 + kx) * OC_BLOCK..][..OC_BLOCK];
                        // SAFETY: `QuadRows::new` counted quad
                        // `ig·8 + qi` among the repacked ones, `r + ky`
                        // is a repacked row, and
                        // `x + kx + 32 <= cw + 2 = width`.
                        let (a0, a1) = unsafe {
                            (
                                _mm512_loadu_si512(quads.as_ptr().add(off) as *const _),
                                _mm512_loadu_si512(quads.as_ptr().add(off + 16) as *const _),
                            )
                        };
                        for o in 0..OC_BLOCK {
                            // The wrapping `vpdpbusd`: lane + Σ u8·i8 over
                            // the quad, modulo 2³² (never `vpdpbusds`).
                            let wv = _mm512_set1_epi32(w[o]);
                            lo[o] = _mm512_dpbusd_epi32(lo[o], a0, wv);
                            hi[o] = _mm512_dpbusd_epi32(hi[o], a1, wv);
                        }
                    }
                }
            }
        }
        let (chh, cw, yy) = (out.height, s.out_w, y - out.row0);
        // `packs_epi32(a, b)` emits a's 4 pixels then b's per 128-bit
        // lane; this qword order puts pixels 0-15 of `a` and 16-31 of `b`
        // back in order.
        let order = _mm512_setr_epi64(0, 2, 4, 6, 1, 3, 5, 7);
        match &out.kind {
            super::StoreKind::Acc(acc) => {
                for o in 0..OC_BLOCK {
                    let dst = ((oc0 + o) * chh + yy) * cw + x;
                    // SAFETY: `x + 32 <= cw` bounds both stores to row
                    // `yy` of channel `oc0 + o` of `acc`.
                    unsafe {
                        _mm512_storeu_si512(acc.ptr.add(dst) as *mut _, lo[o]);
                        _mm512_storeu_si512(acc.ptr.add(dst + 16) as *mut _, hi[o]);
                    }
                }
            }
            super::StoreKind::Codes(ep, codes, srcs) => {
                let k = EpilogueVecs::new(ep);
                for o in 0..OC_BLOCK {
                    let (mut a, mut b) = (lo[o], hi[o]);
                    if let Some(sr) = srcs.filter(|sr| oc0 + o < sr.channels) {
                        // SAFETY: as in the AVX2 kernel, with
                        // `x + 32 <= cw`.
                        let v = unsafe { _mm512_loadu_si512(sr.at(oc0 + o, y, x) as *const _) };
                        let s0 = _mm512_cvtepi16_epi32(_mm512_castsi512_si256(v));
                        let s1 = _mm512_cvtepi16_epi32(_mm512_extracti64x4_epi64::<1>(v));
                        a = _mm512_add_epi32(a, _mm512_sll_epi32(s0, k.up));
                        b = _mm512_add_epi32(b, _mm512_sll_epi32(s1, k.up));
                    }
                    let dst = ((oc0 + o) * chh + yy) * cw + x;
                    let v = _mm512_packs_epi32(round_clamp(a, &k), round_clamp(b, &k));
                    // SAFETY: as for the accumulator stores, on an `i16`
                    // plane of the same rows that `Conv3Sweep::new`
                    // checked holds every live block's channels.
                    unsafe {
                        _mm512_storeu_si512(
                            codes.ptr.add(dst) as *mut _,
                            _mm512_permutexvar_epi64(order, v),
                        )
                    };
                }
            }
            super::StoreKind::Shuffled(ep, codes) => {
                let k = EpilogueVecs::new(ep);
                let mut v = [_mm512_setzero_si512(); OC_BLOCK];
                for o in 0..OC_BLOCK {
                    // Phase o's 32 codes, in pixel order.
                    let p = _mm512_packs_epi32(round_clamp(lo[o], &k), round_clamp(hi[o], &k));
                    v[o] = _mm512_permutexvar_epi64(order, p);
                }
                let c = op_ * OC_BLOCKS + ocb;
                for dy in 0..2 {
                    // Row 2y + dy alternates phases (dy, 0) and (dy, 1):
                    // per 128-bit lane the unpacks pair up pixels 0-3 and
                    // 4-7 of each 8, the lane order `to_pixel_order`
                    // restores.
                    let (a, b) = to_pixel_order(
                        _mm512_unpacklo_epi16(v[2 * dy], v[2 * dy + 1]),
                        _mm512_unpackhi_epi16(v[2 * dy], v[2 * dy + 1]),
                    );
                    let dst = (c * 2 * chh + 2 * yy + dy) * 2 * cw + 2 * x;
                    // SAFETY: as in the AVX2 kernel, with
                    // `2x + 64 <= 2cw`.
                    unsafe {
                        _mm512_storeu_si512(codes.ptr.add(dst) as *mut _, a);
                        _mm512_storeu_si512(codes.ptr.add(dst + 32) as *mut _, b);
                    }
                }
            }
        }
    }

    /// The AVX2 `conv1_blocked` over whole 32-pixel chunks.
    ///
    /// # Safety
    ///
    /// As the AVX2 `conv1_blocked`, with AVX-512F/BW and VNNI for AVX2.
    #[target_feature(enable = "avx2,avx512f,avx512bw,avx512vnni")]
    pub unsafe fn conv1_blocked(s: &super::Conv1Sweep<'_>, from: usize, to: usize) -> usize {
        let n = s.px;
        let mut j = from;
        while j + LANES <= to {
            for ocb in 0..OC_BLOCKS {
                let block = s.leaf * OC_BLOCKS + ocb;
                let mut lo = [_mm512_setzero_si512(); OC_BLOCK];
                let mut hi = lo;
                for o in 0..OC_BLOCK {
                    let a = (ocb * OC_BLOCK + o) * n + j;
                    // SAFETY: as in the AVX2 kernel, with
                    // `j + 32 <= to <= n`.
                    let (a0, a1) = unsafe {
                        (
                            _mm512_loadu_si512(s.acc.add(a) as *const _),
                            _mm512_loadu_si512(s.acc.add(a + 16) as *const _),
                        )
                    };
                    (lo[o], hi[o]) = from_pixel_order(a0, a1);
                }
                for p in 0..IC_PAIRS {
                    if s.block_mask[block * IC_PAIRS + p] == 0 {
                        continue;
                    }
                    let even = (s.chan_base + 2 * p) * n + j;
                    // SAFETY: as in the AVX2 kernel, with
                    // `j + 32 <= to <= n`.
                    let (a, b) = unsafe {
                        (
                            _mm512_loadu_si512(s.input.add(even) as *const _),
                            _mm512_loadu_si512(s.input.add(even + n) as *const _),
                        )
                    };
                    let il = _mm512_unpacklo_epi16(a, b);
                    let ih = _mm512_unpackhi_epi16(a, b);
                    let w = &s.words[(block * IC_PAIRS + p) * OC_BLOCK..][..OC_BLOCK];
                    for o in 0..OC_BLOCK {
                        let wv = _mm512_set1_epi32(w[o]);
                        lo[o] = _mm512_dpwssd_epi32(lo[o], il, wv);
                        hi[o] = _mm512_dpwssd_epi32(hi[o], ih, wv);
                    }
                }
                for o in 0..OC_BLOCK {
                    let a = (ocb * OC_BLOCK + o) * n + j;
                    let (p0, p1) = to_pixel_order(lo[o], hi[o]);
                    // SAFETY: the same in-bounds span the loads above read.
                    unsafe {
                        _mm512_storeu_si512(s.acc.add(a) as *mut _, p0);
                        _mm512_storeu_si512(s.acc.add(a + 16) as *mut _, p1);
                    }
                }
            }
            j += LANES;
        }
        j
    }
}

// --------------------------------------------------------------------------
// SSE2 (x86_64 baseline)
// --------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod sse2 {
    use super::{CONV3_BLOCK_WORDS, IC_PAIRS, LEAF_CH, OC_BLOCK, OC_BLOCKS};
    use std::arch::x86_64::*;

    /// Sign-extends the low 4 `i16` lanes of `x` to 4 `i32` lanes without
    /// SSE4.1's `cvtepi16_epi32`: self-interleave puts each sample in the
    /// high half of a 32-bit lane, and the arithmetic right shift
    /// sign-extends it down.
    #[target_feature(enable = "sse2")]
    unsafe fn extend_lo_epi16(x: __m128i) -> __m128i {
        _mm_srai_epi32(_mm_unpacklo_epi16(x, x), 16)
    }

    /// SSE2 emulation of `_mm_mullo_epi32` (SSE4.1): the low 32 bits of a
    /// 32×32 product are sign-agnostic, so two unsigned even/odd-lane
    /// `_mm_mul_epu32` passes recombined lane-wise produce exactly the
    /// wrapping signed product the narrow path needs.
    #[target_feature(enable = "sse2")]
    unsafe fn mullo_epi32(a: __m128i, b: __m128i) -> __m128i {
        let even = _mm_mul_epu32(a, b);
        let odd = _mm_mul_epu32(_mm_srli_si128(a, 4), _mm_srli_si128(b, 4));
        _mm_unpacklo_epi32(
            _mm_shuffle_epi32::<0b00_00_10_00>(even),
            _mm_shuffle_epi32::<0b00_00_10_00>(odd),
        )
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn row_interior_narrow(acc: &mut [i32], row: &[i16], taps: [i32; 3]) {
        let n = acc.len();
        let (t0, t1, t2) = (
            _mm_set1_epi32(taps[0]),
            _mm_set1_epi32(taps[1]),
            _mm_set1_epi32(taps[2]),
        );
        let mut j = 0usize;
        while j + 4 <= n {
            // SAFETY: `j + 4 <= n` and `row.len() >= n + 2` bound the
            // 64-bit source loads at `j..j+4+2` and the 128-bit
            // accumulator load/store at `j..j+4`.
            unsafe {
                let s0 = extend_lo_epi16(_mm_loadl_epi64(row.as_ptr().add(j) as *const __m128i));
                let s1 =
                    extend_lo_epi16(_mm_loadl_epi64(row.as_ptr().add(j + 1) as *const __m128i));
                let s2 =
                    extend_lo_epi16(_mm_loadl_epi64(row.as_ptr().add(j + 2) as *const __m128i));
                let a = _mm_loadu_si128(acc.as_ptr().add(j) as *const __m128i);
                let sum = _mm_add_epi32(
                    mullo_epi32(t0, s0),
                    _mm_add_epi32(mullo_epi32(t1, s1), mullo_epi32(t2, s2)),
                );
                _mm_storeu_si128(
                    acc.as_mut_ptr().add(j) as *mut __m128i,
                    _mm_add_epi32(a, sum),
                );
            }
            j += 4;
        }
        super::scalar_row_interior_narrow(&mut acc[j..], &row[j..], taps);
    }

    /// SSE2 form of the AVX2 `conv3_blocked`: 8-pixel chunks, whose
    /// 128-bit `unpacklo/hi` halves are already in pixel order.
    ///
    /// # Safety
    ///
    /// As the AVX2 `conv3_blocked`, with SSE2 for AVX2.
    #[target_feature(enable = "sse2")]
    pub unsafe fn conv3_blocked(
        s: &super::Conv3Sweep<'_>,
        out: &super::Conv3Store<'_>,
        rows: std::ops::Range<usize>,
    ) {
        for y in rows {
            for op_ in 0..s.out_planes {
                for ocb in 0..s.live.blocks(op_) {
                    for x in super::chunk_starts(s.out_w, 8) {
                        // SAFETY: SSE2 is enabled here, and `chunk_starts`
                        // keeps `x + 8 <= out_w`.
                        unsafe { conv3_chunk(s, out, y, op_, ocb, x) };
                    }
                }
            }
        }
    }

    /// One 8-pixel chunk of [`conv3_blocked`] (see the AVX2
    /// `conv3_chunk`).
    ///
    /// # Safety
    ///
    /// The CPU must support SSE2, `y < out_h`, `op_ < out_planes`,
    /// `ocb < OC_BLOCKS` and `x + 8 <= out_w`.
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn conv3_chunk(
        s: &super::Conv3Sweep<'_>,
        out: &super::Conv3Store<'_>,
        y: usize,
        op_: usize,
        ocb: usize,
        x: usize,
    ) {
        let (ih, iw, cw) = (s.in_h, s.in_w, s.out_w);
        let oc0 = op_ * LEAF_CH + ocb * OC_BLOCK;
        let mut lo = [_mm_setzero_si128(); OC_BLOCK];
        for (l, &v) in lo.iter_mut().zip(&s.bias[oc0..oc0 + OC_BLOCK]) {
            *l = _mm_set1_epi32(v as i32);
        }
        let mut hi = lo;
        for ig in 0..s.in_groups {
            let block = (op_ * s.in_groups + ig) * OC_BLOCKS + ocb;
            let masks = &s.block_mask[block * IC_PAIRS..][..s.live.pairs(ig)];
            let words = &s.words[block * CONV3_BLOCK_WORDS..(block + 1) * CONV3_BLOCK_WORDS];
            for (p, &m) in masks.iter().enumerate() {
                if m == 0 {
                    continue;
                }
                let even = ((ig * LEAF_CH + 2 * p) * ih + y) * iw + x;
                let odd = even + ih * iw;
                for ky in 0..3 {
                    if m & (1 << ky) == 0 {
                        continue;
                    }
                    for kx in 0..3 {
                        let off = ky * iw + kx;
                        let w = &words[(p * 9 + ky * 3 + kx) * OC_BLOCK..][..OC_BLOCK];
                        // SAFETY: as in the AVX2 kernel, with
                        // `x + kx + 8 <= cw + 2 <= iw`.
                        let (a, b) = unsafe {
                            (
                                _mm_loadu_si128(s.input.as_ptr().add(even + off) as *const __m128i),
                                _mm_loadu_si128(s.input.as_ptr().add(odd + off) as *const __m128i),
                            )
                        };
                        let il = _mm_unpacklo_epi16(a, b);
                        let ih_ = _mm_unpackhi_epi16(a, b);
                        for o in 0..OC_BLOCK {
                            let wv = _mm_set1_epi32(w[o]);
                            lo[o] = _mm_add_epi32(lo[o], _mm_madd_epi16(il, wv));
                            hi[o] = _mm_add_epi32(hi[o], _mm_madd_epi16(ih_, wv));
                        }
                    }
                }
            }
        }
        let (chh, yy) = (out.height, y - out.row0);
        match &out.kind {
            super::StoreKind::Acc(acc) => {
                for o in 0..OC_BLOCK {
                    let dst = ((oc0 + o) * chh + yy) * cw + x;
                    // SAFETY: `x + 8 <= cw` bounds both stores to row `yy`
                    // of channel `oc0 + o`.
                    unsafe {
                        _mm_storeu_si128(acc.ptr.add(dst) as *mut __m128i, lo[o]);
                        _mm_storeu_si128(acc.ptr.add(dst + 4) as *mut __m128i, hi[o]);
                    }
                }
            }
            super::StoreKind::Codes(ep, codes, srcs) => {
                let k = EpilogueVecs::new(ep);
                for o in 0..OC_BLOCK {
                    let (mut a, mut b) = (lo[o], hi[o]);
                    if let Some(sr) = srcs.filter(|sr| oc0 + o < sr.channels) {
                        // SAFETY: as in the AVX2 kernel, with `x + 8 <= cw`.
                        let v = unsafe { _mm_loadu_si128(sr.at(oc0 + o, y, x) as *const __m128i) };
                        a = _mm_add_epi32(a, _mm_sll_epi32(extend_lo_epi16(v), k.up));
                        let s1 = _mm_srai_epi32(_mm_unpackhi_epi16(v, v), 16);
                        b = _mm_add_epi32(b, _mm_sll_epi32(s1, k.up));
                    }
                    let dst = ((oc0 + o) * chh + yy) * cw + x;
                    let v = _mm_packs_epi32(round_clamp(a, &k), round_clamp(b, &k));
                    // SAFETY: as for the accumulator stores, on an `i16`
                    // plane of the same rows that `Conv3Sweep::new`
                    // checked holds every live block's channels.
                    unsafe { _mm_storeu_si128(codes.ptr.add(dst) as *mut __m128i, v) };
                }
            }
            super::StoreKind::Shuffled(ep, codes) => {
                let k = EpilogueVecs::new(ep);
                let mut v = [_mm_setzero_si128(); OC_BLOCK];
                for o in 0..OC_BLOCK {
                    // Phase o's 8 codes, in pixel order.
                    v[o] = _mm_packs_epi32(round_clamp(lo[o], &k), round_clamp(hi[o], &k));
                }
                let c = op_ * OC_BLOCKS + ocb;
                for dy in 0..2 {
                    // Row 2y + dy alternates phases (dy, 0) and (dy, 1).
                    let dst = (c * 2 * chh + 2 * yy + dy) * 2 * cw + 2 * x;
                    // SAFETY: as in the AVX2 kernel, with
                    // `2x + 16 <= 2cw`.
                    unsafe {
                        _mm_storeu_si128(
                            codes.ptr.add(dst) as *mut __m128i,
                            _mm_unpacklo_epi16(v[2 * dy], v[2 * dy + 1]),
                        );
                        _mm_storeu_si128(
                            codes.ptr.add(dst + 8) as *mut __m128i,
                            _mm_unpackhi_epi16(v[2 * dy], v[2 * dy + 1]),
                        );
                    }
                }
            }
        }
    }

    /// SSE2 form of the AVX2 `conv1_blocked` over 8-pixel chunks.
    ///
    /// # Safety
    ///
    /// As the AVX2 `conv1_blocked`, with SSE2 for AVX2.
    #[target_feature(enable = "sse2")]
    pub unsafe fn conv1_blocked(s: &super::Conv1Sweep<'_>, from: usize, to: usize) -> usize {
        const LANES: usize = 8;
        let n = s.px;
        let mut j = from;
        while j + LANES <= to {
            for ocb in 0..OC_BLOCKS {
                let block = s.leaf * OC_BLOCKS + ocb;
                let (mut lo, mut hi) = (
                    [_mm_setzero_si128(); OC_BLOCK],
                    [_mm_setzero_si128(); OC_BLOCK],
                );
                for o in 0..OC_BLOCK {
                    let a = (ocb * OC_BLOCK + o) * n + j;
                    // SAFETY: as in the AVX2 kernel, with
                    // `j + 8 <= to <= n`.
                    unsafe {
                        lo[o] = _mm_loadu_si128(s.acc.add(a) as *const __m128i);
                        hi[o] = _mm_loadu_si128(s.acc.add(a + 4) as *const __m128i);
                    }
                }
                for p in 0..IC_PAIRS {
                    if s.block_mask[block * IC_PAIRS + p] == 0 {
                        continue;
                    }
                    let even = (s.chan_base + 2 * p) * n + j;
                    // SAFETY: as in the AVX2 kernel, with
                    // `j + 8 <= to <= n`.
                    let (a, b) = unsafe {
                        (
                            _mm_loadu_si128(s.input.add(even) as *const __m128i),
                            _mm_loadu_si128(s.input.add(even + n) as *const __m128i),
                        )
                    };
                    let il = _mm_unpacklo_epi16(a, b);
                    let ih = _mm_unpackhi_epi16(a, b);
                    let w = &s.words[(block * IC_PAIRS + p) * OC_BLOCK..][..OC_BLOCK];
                    for o in 0..OC_BLOCK {
                        let wv = _mm_set1_epi32(w[o]);
                        lo[o] = _mm_add_epi32(lo[o], _mm_madd_epi16(il, wv));
                        hi[o] = _mm_add_epi32(hi[o], _mm_madd_epi16(ih, wv));
                    }
                }
                for o in 0..OC_BLOCK {
                    let a = (ocb * OC_BLOCK + o) * n + j;
                    // SAFETY: the same in-bounds span the loads above read.
                    unsafe {
                        _mm_storeu_si128(s.acc.add(a) as *mut __m128i, lo[o]);
                        _mm_storeu_si128(s.acc.add(a + 4) as *mut __m128i, hi[o]);
                    }
                }
            }
            j += LANES;
        }
        j
    }

    /// SSE2 emulation of `_mm_max_epi32` (SSE4.1).
    ///
    /// # Safety
    ///
    /// The CPU must support SSE2 (as for every function here).
    #[target_feature(enable = "sse2")]
    unsafe fn max_epi32(a: __m128i, b: __m128i) -> __m128i {
        let gt = _mm_cmpgt_epi32(a, b);
        _mm_or_si128(_mm_and_si128(gt, a), _mm_andnot_si128(gt, b))
    }

    /// SSE2 emulation of `_mm_min_epi32` (SSE4.1).
    #[target_feature(enable = "sse2")]
    unsafe fn min_epi32(a: __m128i, b: __m128i) -> __m128i {
        let gt = _mm_cmpgt_epi32(a, b);
        _mm_or_si128(_mm_and_si128(gt, b), _mm_andnot_si128(gt, a))
    }

    /// Activation floor, branch-free round half away from zero and clamp
    /// of 4 lanes (see [`super::NarrowEpilogue`]); `abs` and the re-sign
    /// are SSE2 `xor`/`sub` with the sign mask (SSSE3 has `abs_epi32`).
    #[target_feature(enable = "sse2")]
    unsafe fn round_clamp(a: __m128i, k: &EpilogueVecs) -> __m128i {
        let a = max_epi32(a, k.floor);
        let sign = _mm_srai_epi32(a, 31);
        let mag = _mm_sub_epi32(_mm_xor_si128(a, sign), sign);
        let r = _mm_srl_epi32(_mm_add_epi32(mag, k.half), k.shift);
        let r = _mm_sub_epi32(_mm_xor_si128(r, sign), sign);
        min_epi32(max_epi32(r, k.min), k.max)
    }

    /// The epilogue constants splatted once per row or sweep.
    struct EpilogueVecs {
        up: __m128i,
        floor: __m128i,
        half: __m128i,
        shift: __m128i,
        min: __m128i,
        max: __m128i,
    }

    impl EpilogueVecs {
        /// # Safety
        ///
        /// The CPU must support SSE2.
        #[target_feature(enable = "sse2")]
        unsafe fn new(ep: &super::NarrowEpilogue) -> Self {
            Self {
                up: _mm_cvtsi32_si128(ep.srcs_shift as i32),
                floor: _mm_set1_epi32(ep.floor),
                half: _mm_set1_epi32(ep.half()),
                shift: _mm_cvtsi32_si128(ep.shift as i32),
                min: _mm_set1_epi32(ep.min),
                max: _mm_set1_epi32(ep.max),
            }
        }
    }

    /// SSE2 form of the AVX2 `epilogue_row`: 8 lanes per step as two
    /// 4-lane halves, sign-extended from `i16` by self-interleave and
    /// packed back with one saturating `packs_epi32` (exact: both halves
    /// are already clamped to the code range).
    ///
    /// # Safety
    ///
    /// The CPU must support SSE2, and `dst` (and `srcs`, when present)
    /// must hold `acc.len()` elements.
    #[target_feature(enable = "sse2")]
    pub unsafe fn epilogue_row(
        ep: &super::NarrowEpilogue,
        acc: &[i32],
        srcs: Option<&[i16]>,
        dst: &mut [i16],
    ) {
        let n = acc.len();
        let k = EpilogueVecs::new(ep);
        let mut j = 0usize;
        while j + 8 <= n {
            // SAFETY: `j + 8 <= n` and the wrapper checked `dst` and
            // `srcs` hold `n` elements, so the two 128-bit accumulator
            // loads at `j..j+8`, the 128-bit srcS load and the 128-bit
            // code store at `j..j+8` are in bounds.
            unsafe {
                let mut a0 = _mm_loadu_si128(acc.as_ptr().add(j) as *const __m128i);
                let mut a1 = _mm_loadu_si128(acc.as_ptr().add(j + 4) as *const __m128i);
                if let Some(s) = srcs {
                    let x = _mm_loadu_si128(s.as_ptr().add(j) as *const __m128i);
                    let s0 = _mm_srai_epi32(_mm_unpacklo_epi16(x, x), 16);
                    let s1 = _mm_srai_epi32(_mm_unpackhi_epi16(x, x), 16);
                    a0 = _mm_add_epi32(a0, _mm_sll_epi32(s0, k.up));
                    a1 = _mm_add_epi32(a1, _mm_sll_epi32(s1, k.up));
                }
                let codes = _mm_packs_epi32(round_clamp(a0, &k), round_clamp(a1, &k));
                _mm_storeu_si128(dst.as_mut_ptr().add(j) as *mut __m128i, codes);
            }
            j += 8;
        }
        super::scalar_epilogue(ep, &acc[j..], srcs.map(|s| &s[j..]), &mut dst[j..]);
    }
}

// --------------------------------------------------------------------------
// NEON (aarch64)
// --------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::*;

    #[target_feature(enable = "neon")]
    pub unsafe fn row_interior_narrow(acc: &mut [i32], row: &[i16], taps: [i32; 3]) {
        let n = acc.len();
        let mut j = 0usize;
        while j + 4 <= n {
            // SAFETY: `j + 4 <= n` and `row.len() >= n + 2` bound the
            // 4-lane source loads at `j..j+4+2` and the accumulator
            // load/store at `j..j+4`. NEON MLA wraps modularly, matching
            // the narrow path's licensed semantics.
            unsafe {
                let s0 = vmovl_s16(vld1_s16(row.as_ptr().add(j)));
                let s1 = vmovl_s16(vld1_s16(row.as_ptr().add(j + 1)));
                let s2 = vmovl_s16(vld1_s16(row.as_ptr().add(j + 2)));
                let mut a = vld1q_s32(acc.as_ptr().add(j));
                a = vmlaq_n_s32(a, s0, taps[0]);
                a = vmlaq_n_s32(a, s1, taps[1]);
                a = vmlaq_n_s32(a, s2, taps[2]);
                vst1q_s32(acc.as_mut_ptr().add(j), a);
            }
            j += 4;
        }
        super::scalar_row_interior_narrow(&mut acc[j..], &row[j..], taps);
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn ch_mac_narrow(acc: &mut [i32], src: &[i16], w: i32) {
        let n = acc.len().min(src.len());
        let mut j = 0usize;
        while j + 4 <= n {
            // SAFETY: `j + 4 <= n <= src.len()` bounds both accesses.
            unsafe {
                let s = vmovl_s16(vld1_s16(src.as_ptr().add(j)));
                let a = vld1q_s32(acc.as_ptr().add(j));
                vst1q_s32(acc.as_mut_ptr().add(j), vmlaq_n_s32(a, s, w));
            }
            j += 4;
        }
        super::scalar_ch_mac_narrow(&mut acc[j..], &src[j..n], w);
    }
}

// --------------------------------------------------------------------------
// Safe dispatch wrappers
// --------------------------------------------------------------------------

/// [`crate::kernels::accum_row_interior`] on wrapping `i32` accumulators:
/// `acc[x] += t0·row[x] + t1·row[x+1] + t2·row[x+2]`. `row` must hold at
/// least `acc.len() + 2` samples. Only exact under the verifier's
/// `narrow_acc` license (final per-element sums fit `i32`); see the
/// module docs.
#[inline]
pub fn row_interior_narrow(level: SimdLevel, acc: &mut [i32], row: &[i16], taps: [i32; 3]) {
    debug_assert!(row.len() >= acc.len() + 2);
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx512` and `Avx2` both imply `detect` observed AVX2.
        SimdLevel::Avx512 | SimdLevel::Avx2 => unsafe { avx2::row_interior_narrow(acc, row, taps) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level == Sse2` only when `detect` observed SSE2.
        SimdLevel::Sse2 => unsafe { sse2::row_interior_narrow(acc, row, taps) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: `level == Neon` only when `detect` observed NEON.
        SimdLevel::Neon => unsafe { neon::row_interior_narrow(acc, row, taps) },
        _ => scalar_row_interior_narrow(acc, row, taps),
    }
}

/// [`crate::kernels::accum_row_padded`] on wrapping `i32` accumulators:
/// same-width `row`/`acc`, border columns peeled scalar (dropping their
/// out-of-image taps), interior span vectorized.
#[inline]
pub fn row_padded_narrow(level: SimdLevel, acc: &mut [i32], row: &[i16], taps: [i32; 3]) {
    let n = acc.len();
    debug_assert_eq!(n, row.len());
    let (t0, t1, t2) = (taps[0], taps[1], taps[2]);
    if n == 1 {
        acc[0] = acc[0].wrapping_add(t1.wrapping_mul(row[0] as i32));
        return;
    }
    acc[0] = acc[0]
        .wrapping_add(t1.wrapping_mul(row[0] as i32))
        .wrapping_add(t2.wrapping_mul(row[1] as i32));
    if n > 2 {
        // Interior element `x` (1 ≤ x ≤ n-2) reads `row[x-1..x+2]`: an
        // interior pass over `acc[1..n-1]` with the full row (length
        // `(n-2) + 2`) is exactly that window.
        row_interior_narrow(level, &mut acc[1..n - 1], row, taps);
    }
    acc[n - 1] = acc[n - 1]
        .wrapping_add(t0.wrapping_mul(row[n - 2] as i32))
        .wrapping_add(t1.wrapping_mul(row[n - 1] as i32));
}

/// Flat channel-slice multiply-add on wrapping `i32` accumulators (the
/// 1×1 stage): `acc[i] += w · src[i]` over `min(acc.len(), src.len())`
/// elements. On x86 the narrow 1×1 stage runs [`conv1_blocked_narrow`] on every plane of at
/// least [`BLOCKED_MIN_WIDTH`] pixels, so the smaller planes left here
/// take the scalar loop.
#[inline]
pub fn ch_mac_narrow(level: SimdLevel, acc: &mut [i32], src: &[i16], w: i32) {
    match level {
        #[cfg(target_arch = "aarch64")]
        // SAFETY: `level == Neon` only when `detect` observed NEON.
        SimdLevel::Neon => unsafe { neon::ch_mac_narrow(acc, src, w) },
        _ => scalar_ch_mac_narrow(acc, src, w),
    }
}

/// Narrowest conv output (3×3: row width; 1×1: pixels per channel) the
/// register-blocked kernels take; narrower planes keep the row kernels.
pub const BLOCKED_MIN_WIDTH: usize = 16;

/// The live channel extents of one 3×3 instruction (`BlockPlan` derives
/// them): the leading `input` channels of its gathered source that can
/// be nonzero, and the leading `output` channels, pre-shuffle and
/// counted across every output plane, that something reads. The
/// register-blocked sweep skips input pair `p` of a source group once
/// `2p` reaches that group's live count, and output block `ocb` of a
/// plane once `4·ocb` does: a dead pair only multiplies zeros, and a
/// dead block's accumulators are never stored, so nothing reads them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LiveChannels {
    /// Leading source channels that can be nonzero.
    pub input: usize,
    /// Leading output channels (pre-shuffle for `UPX2`) that are read.
    pub output: usize,
}

impl LiveChannels {
    /// Every channel of a sweep from `in_groups` source groups into
    /// `out_planes` 32-channel output planes.
    pub fn full(in_groups: usize, out_planes: usize) -> Self {
        Self {
            input: in_groups * LEAF_CH,
            output: out_planes * LEAF_CH,
        }
    }

    /// Input pairs `(2p, 2p + 1)` of source group `ig` the sweep reads.
    pub(crate) fn pairs(self, ig: usize) -> usize {
        self.input
            .saturating_sub(ig * LEAF_CH)
            .min(LEAF_CH)
            .div_ceil(2)
    }

    /// `OC_BLOCK`-channel output blocks of output plane `op_` the sweep
    /// computes.
    pub(crate) fn blocks(self, op_: usize) -> usize {
        self.output
            .saturating_sub(op_ * LEAF_CH)
            .min(LEAF_CH)
            .div_ceil(OC_BLOCK)
    }
}

/// The bounds-checked operands of one register-blocked 3×3 sweep: every
/// raw offset the kernels form stays inside these slices.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
struct Conv3Sweep<'a> {
    input: &'a [i16],
    in_h: usize,
    in_w: usize,
    out_h: usize,
    out_w: usize,
    out_planes: usize,
    in_groups: usize,
    live: LiveChannels,
    words: &'a [i32],
    quads: &'a [i32],
    block_mask: &'a [u8],
    bias: &'a [i64],
    /// The byte-lane licence, when the plan stamped one.
    bytes: Option<&'a ByteLanes>,
}

impl<'a> Conv3Sweep<'a> {
    /// The sweep computing the `live` channels of an `out_h × out_w` conv
    /// output into `out`, which must hold every chunk the sweep stores.
    fn new(
        input: &'a Tensor<i16>,
        packed: &'a PackedConv3,
        (out_h, out_w): (usize, usize),
        live: LiveChannels,
        out: &Conv3Store<'_>,
    ) -> Self {
        let (in_c, in_h, in_w) = input.shape();
        let (planes, out_c) = (
            packed.out_planes * packed.in_groups,
            packed.out_planes * LEAF_CH,
        );
        assert!(
            out_w >= BLOCKED_MIN_WIDTH && in_h >= out_h + 2 && in_w >= out_w + 2,
            "blocked 3x3 needs truncated-pyramid geometry: {in_h}x{in_w} -> {out_h}x{out_w}"
        );
        assert!(in_c >= packed.in_groups * LEAF_CH);
        assert_eq!(packed.words.len(), planes * OC_BLOCKS * CONV3_BLOCK_WORDS);
        assert_eq!(packed.block_mask.len(), planes * OC_BLOCKS * IC_PAIRS);
        assert_eq!(packed.bias.len(), out_c);
        assert!(
            live.input <= packed.in_groups * LEAF_CH && live.output <= out_c,
            "live extents {live:?} exceed the sweep"
        );
        if let Some(b) = &packed.bytes {
            assert_eq!(
                b.live_input, live.input,
                "the byte-lane licence's live inputs"
            );
            assert_eq!(b.bias.len(), out_c);
            assert_eq!(packed.quads.len(), planes * OC_BLOCKS * CONV3_BLOCK_QUADS);
        }
        // Every store layout spends `height · out_w` elements per
        // pre-shuffle channel, and the chunks store the live channels
        // rounded up to whole blocks.
        assert!(
            out.len() >= live.output.next_multiple_of(OC_BLOCK) * out.height * out_w,
            "the store cannot hold the live channels {live:?} at {}x{out_w}",
            out.height
        );
        Self {
            input: input.as_slice(),
            in_h,
            in_w,
            out_h,
            out_w,
            out_planes: packed.out_planes,
            in_groups: packed.in_groups,
            live,
            words: &packed.words,
            quads: &packed.quads,
            block_mask: &packed.block_mask,
            bias: &packed.bias,
            bytes: packed.bytes.as_ref(),
        }
    }

    /// Whether the sweep runs on byte lanes at `level` ([`runs_bytes`]).
    fn runs_bytes(&self, level: SimdLevel) -> bool {
        runs_bytes(level, self.out_w, self.bytes.is_some())
    }
}

/// The layout of a lane's repacked source band (see
/// [`LaneScratch`]): `quads` quad-interleaved rows of `rows` rows each,
/// `width` 32-bit words per row (the conv width plus the 2-column halo),
/// quad `q` holding source channels `4q..4q + 4`. The live quads of a
/// sweep are the leading ones, since only the last live source group can
/// be partly live.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
struct QuadRows {
    quads: usize,
    rows: usize,
    width: usize,
}

#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
impl QuadRows {
    fn new(s: &Conv3Sweep<'_>, rows: usize) -> Self {
        Self {
            quads: total_quads(s.live, s.in_groups),
            rows,
            width: s.out_w + 2,
        }
    }

    /// Words the band holds.
    fn len(&self) -> usize {
        self.quads * self.rows * self.width
    }

    /// The word of column `x` of row `r` of quad `q`.
    fn at(&self, q: usize, r: usize, x: usize) -> usize {
        (q * self.rows + r) * self.width + x
    }
}

/// Input quads a sweep over `in_groups` source groups with `live`
/// channels reads.
fn total_quads(live: LiveChannels, in_groups: usize) -> usize {
    (0..in_groups)
        .map(|ig| PackedConv3::live_quads(live.input, ig))
        .sum()
}

/// A srcS plane a fused codes store adds, read at `offset` from each
/// conv output pixel: `channels × height × width` codes.
#[derive(Clone, Copy)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
struct SrcS<'a> {
    plane: &'a [i16],
    channels: usize,
    height: usize,
    width: usize,
    offset: (usize, usize),
}

#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
impl<'a> SrcS<'a> {
    /// The plane `(plane, offset)` read by an `out_h × out_w` conv output.
    ///
    /// # Panics
    ///
    /// Panics if the plane does not cover the output at the offset.
    fn new(
        (plane, offset): (&'a Tensor<i16>, (usize, usize)),
        (out_h, out_w): (usize, usize),
    ) -> Self {
        let (channels, height, width) = plane.shape();
        assert!(
            height >= offset.0 + out_h && width >= offset.1 + out_w,
            "srcS smaller than the conv output"
        );
        Self {
            plane: plane.as_slice(),
            channels,
            height,
            width,
            offset,
        }
    }

    /// The srcS code read by output pixel `(y, x)` of channel `c`.
    fn at(&self, c: usize, y: usize, x: usize) -> *const i16 {
        let (oy, ox) = self.offset;
        self.plane[(c * self.height + y + oy) * self.width + ox + x..].as_ptr()
    }

    /// The srcS row read by `width` outputs of row `y` of channel `c`.
    fn row(&self, c: usize, y: usize, width: usize) -> &'a [i16] {
        let (oy, ox) = self.offset;
        &self.plane[(c * self.height + y + oy) * self.width + ox..][..width]
    }
}

/// A plane the lanes of one row fan-out ([`fan_out`]) write, and read
/// back, through a raw pointer. Each lane touches only the output rows
/// (or pixels) of the ranges it claimed, so no element is touched by two
/// lanes, and the `&mut` borrow the plane was made from keeps every other
/// access out for `'a`.
#[derive(Clone, Copy)]
struct LanePlane<'a, T> {
    ptr: *mut T,
    len: usize,
    _plane: PhantomData<&'a mut [T]>,
}

// SAFETY: a `LanePlane` crosses threads only into the lanes of one
// fan-out, which touch disjoint rows of it (see the type's docs), and
// `T: Send` lets its elements be written from those threads.
unsafe impl<T: Send> Send for LanePlane<'_, T> {}
// SAFETY: as for `Send`: the lanes sharing it never touch one element.
unsafe impl<T: Send> Sync for LanePlane<'_, T> {}

impl<'a, T> LanePlane<'a, T> {
    fn new(plane: &'a mut [T]) -> Self {
        Self {
            ptr: plane.as_mut_ptr(),
            len: plane.len(),
            _plane: PhantomData,
        }
    }

    /// The plane as a read-only input, for a lane to read back what it
    /// wrote.
    fn input(&self) -> (*const T, usize) {
        (self.ptr.cast_const(), self.len)
    }

    /// Elements `start..start + len` as a slice.
    ///
    /// # Safety
    ///
    /// No other lane may touch those elements while the slice lives.
    ///
    /// # Panics
    ///
    /// Panics if the span ends past the plane.
    // The lanes share the plane by `&`; the contract above rules out the
    // aliasing this lint guards against.
    #[allow(clippy::mut_from_ref)]
    unsafe fn span(&self, start: usize, len: usize) -> &mut [T] {
        assert!(start + len <= self.len, "span past the plane");
        // SAFETY: in bounds (asserted above) of the plane the `&mut`
        // borrow of `'a` holds, and exclusive by the caller's contract.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), len) }
    }
}

/// The bounds-checked operands of one leaf's register-blocked 1×1 pass.
/// Both planes are raw: in an `ER` band the input is the lane's mid
/// band, which the same lane wrote through a [`LanePlane`].
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
struct Conv1Sweep<'a> {
    input: *const i16,
    acc: *mut i32,
    /// Pixels per channel plane (input and accumulator alike).
    px: usize,
    chan_base: usize,
    leaf: usize,
    words: &'a [i32],
    block_mask: &'a [u8],
}

impl<'a> Conv1Sweep<'a> {
    /// Leaf `leaf` of `packed`, from the `input_len` samples at `input`
    /// (channels `chan_base..chan_base + 32` read) into the 32 planes of
    /// `acc`; every plane holds the same number of pixels.
    fn new(
        packed: &'a PackedConv1,
        leaf: usize,
        (input, input_len): (*const i16, usize),
        chan_base: usize,
        acc: LanePlane<'_, i32>,
    ) -> Self {
        let px = acc.len / LEAF_CH;
        assert!(acc.len == LEAF_CH * px && input_len >= (chan_base + LEAF_CH) * px);
        assert!(leaf < packed.leaves);
        assert_eq!(packed.words.len(), packed.leaves * LEAF_CH * IC_PAIRS);
        assert_eq!(
            packed.block_mask.len(),
            packed.leaves * OC_BLOCKS * IC_PAIRS
        );
        Self {
            input,
            acc: acc.ptr,
            px,
            chan_base,
            leaf,
            words: &packed.words,
            block_mask: &packed.block_mask,
        }
    }
}

/// Where a register-blocked 3×3 sweep of a `chh × cw` conv output stores
/// each finished chunk: `height` rows of a plane whose first row is
/// output row `row0` (the whole conv output, or a lane's band of it).
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
struct Conv3Store<'a> {
    height: usize,
    row0: usize,
    kind: StoreKind<'a>,
}

/// The layout of a [`Conv3Store`]. Every layout holds at least the live
/// output channels rounded up to whole `OC_BLOCK`s.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
enum StoreKind<'a> {
    /// The raw `i32` accumulators, `channels × height × cw`.
    Acc(LanePlane<'a, i32>),
    /// Destination codes, `channels × height × cw`: the srcS plane (if
    /// any, for the channels it has) shifted up and added, then the rest
    /// of the epilogue applied to the registers and a saturating pack to
    /// `i16` (exact, since the lanes are already clamped to the code
    /// range).
    Codes(&'a NarrowEpilogue, LanePlane<'a, i16>, Option<SrcS<'a>>),
    /// srcS-free [`StoreKind::Codes`] through the ×2 pixel shuffle of
    /// `UPX2`, `channels / 4 × 2·height × 2cw`. The shuffle takes
    /// pre-shuffle channel `4c + 2dy + dx` to phase `(dy, dx)` of channel
    /// `c`, so the 4 accumulators of output block `ocb` of plane `op_`
    /// are the 4 phases of channel `8·op_ + ocb`: each chunk interleaves
    /// them into rows `2y` and `2y + 1` of that channel.
    Shuffled(&'a NarrowEpilogue, LanePlane<'a, i16>),
}

// The shuffled store's 4 phases per block.
const _: () = assert!(OC_BLOCK == 4);

impl<'a> Conv3Store<'a> {
    /// A store over the whole `height`-row conv output.
    fn whole(height: usize, kind: StoreKind<'a>) -> Self {
        Self {
            height,
            row0: 0,
            kind,
        }
    }

    /// Elements the store can hold.
    fn len(&self) -> usize {
        match &self.kind {
            StoreKind::Acc(a) => a.len,
            StoreKind::Codes(_, c, _) | StoreKind::Shuffled(_, c) => c.len,
        }
    }
}

/// Column starts of `lanes`-wide chunks covering `width >= lanes`
/// columns. The last chunk is pulled back to end at `width`, overlapping
/// its predecessor: the 3×3 kernels recompute those pixels from the bias,
/// so the stores agree.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn chunk_starts(width: usize, lanes: usize) -> impl Iterator<Item = usize> {
    (0..width.div_ceil(lanes)).map(move |i| (i * lanes).min(width - lanes))
}

/// Whether `level` has register-blocked kernels at all.
fn blocked_rung(level: SimdLevel) -> bool {
    cfg!(target_arch = "x86_64")
        && matches!(level, SimdLevel::Avx512 | SimdLevel::Avx2 | SimdLevel::Sse2)
}

/// Whether [`conv3_blocked_narrow`], [`conv3_blocked_codes`] and
/// [`er_blocked_narrow`] run, rather than decline, a sweep whose conv
/// output is `out_w` columns wide at `level`.
pub(crate) fn conv3_blocked_covers(level: SimdLevel, out_w: usize) -> bool {
    blocked_rung(level) && out_w >= BLOCKED_MIN_WIDTH
}

/// Narrowest conv output the byte-lane kernel takes: its 32-pixel chunk.
/// Narrower licensed sweeps on the AVX-512 rung run the AVX2 pair-word
/// kernel.
pub const BYTE_LANES_MIN_WIDTH: usize = 32;

/// Whether a licensed (`licensed`) 3×3 sweep of an `out_w`-column conv
/// output runs on byte lanes at `level`: the AVX-512 rung and at least
/// [`BYTE_LANES_MIN_WIDTH`] columns.
pub(crate) fn runs_bytes(level: SimdLevel, out_w: usize, licensed: bool) -> bool {
    level == SimdLevel::Avx512 && out_w >= BYTE_LANES_MIN_WIDTH && licensed
}

/// Output rows a lane computes per band of an `ER` instruction or a
/// byte-lane sweep (see the module docs' "Bands").
pub const BAND_ROWS: usize = 8;

/// What a register-blocked sweep did: whether it forked across lanes and
/// whether its 3×3 stage ran on byte lanes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Swept {
    /// The rows were split across lanes on scoped threads.
    pub forked: bool,
    /// The 3×3 stage ran `vpdpbusd` over repacked byte quads.
    pub bytes: bool,
}

/// One lane's band buffers: the repacked byte quads of its current band,
/// and an `ER` band's mid codes and 1×1 accumulators. A lane grows them
/// on first use; `PlanePool` sizes them once from the plan
/// ([`BandScratch`]), so warm blocks allocate nothing.
#[derive(Clone, Debug, Default)]
struct LaneScratch {
    quads: Vec<u32>,
    mid: Vec<i16>,
    acc: Vec<i32>,
}

/// The leading `len` elements of `buf`, grown (zero-filled) first if it
/// is shorter.
fn grown<T: Copy + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
    &mut buf[..len]
}

/// Elements one lane's band buffers need for a plan (the maximum over its
/// sweeps): the repacked quad words, the `ER` mid codes and the `ER` 1×1
/// accumulators.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct BandScratch {
    /// `u32` quad words of a repacked source band.
    quads: usize,
    /// `i16` mid codes of an `ER` band.
    mid: usize,
    /// `i32` 1×1 accumulators of an `ER` band.
    acc: usize,
}

impl BandScratch {
    /// The larger of each buffer.
    #[must_use]
    pub(crate) fn max(self, other: BandScratch) -> BandScratch {
        BandScratch {
            quads: self.quads.max(other.quads),
            mid: self.mid.max(other.mid),
            acc: self.acc.max(other.acc),
        }
    }

    /// What a byte-lane 3×3 sweep over `in_groups` source groups with
    /// `live` channels into an `out_h × out_w` conv output needs.
    pub(crate) fn bytes(
        live: LiveChannels,
        in_groups: usize,
        (out_h, out_w): (usize, usize),
    ) -> Self {
        Self {
            quads: total_quads(live, in_groups) * (BAND_ROWS.min(out_h) + 2) * (out_w + 2),
            ..Self::default()
        }
    }

    /// What a register-blocked `ER` instruction of an `out_h × out_w`
    /// conv output needs besides its byte quads.
    pub(crate) fn er((out_h, out_w): (usize, usize)) -> Self {
        let band = LEAF_CH * BAND_ROWS.min(out_h) * out_w;
        Self {
            quads: 0,
            mid: band,
            acc: band,
        }
    }
}

/// The lanes a register-blocked sweep splits its rows across, each with
/// its band buffers ([`LaneScratch`]).
#[derive(Clone, Debug)]
pub struct Lanes {
    scratch: Vec<LaneScratch>,
}

impl Default for Lanes {
    fn default() -> Self {
        Self::new(1)
    }
}

impl Lanes {
    /// `lanes` lanes (at least one) with empty buffers.
    pub fn new(lanes: usize) -> Self {
        Self {
            scratch: vec![LaneScratch::default(); lanes.max(1)],
        }
    }

    /// The lane count.
    fn count(&self) -> usize {
        self.scratch.len()
    }

    /// Sets the lane count to `lanes` (at least one) and grows every
    /// lane's buffers to `need`; returns how many buffers were
    /// (re)allocated.
    pub(crate) fn reserve(&mut self, lanes: usize, need: BandScratch) -> u64 {
        fn grow<T: Copy + Default>(buf: &mut Vec<T>, len: usize) -> u64 {
            let short = buf.len() < len;
            grown(buf, len);
            u64::from(short)
        }
        self.scratch.resize_with(lanes.max(1), LaneScratch::default);
        self.scratch
            .iter_mut()
            .map(|s| {
                grow(&mut s.quads, need.quads)
                    + grow(&mut s.mid, need.mid)
                    + grow(&mut s.acc, need.acc)
            })
            .sum()
    }

    /// Bytes the lanes' buffers hold, at capacity.
    pub(crate) fn bytes(&self) -> usize {
        self.scratch
            .iter()
            .map(|s| s.quads.capacity() * 4 + s.mid.capacity() * 2 + s.acc.capacity() * 4)
            .sum()
    }
}

/// Host MACs below which a fanned-out sweep runs on the calling thread
/// alone. A scoped spawn and join costs about 20 µs; a sweep of this size
/// takes about 0.6 ms on one core, so splitting it pays that back.
pub const FAN_OUT_MIN_MACS: u64 = 1 << 25;

/// Ranges per lane a fan-out splits its rows into.
const RANGES_PER_LANE: usize = 8;

/// Runs `lane` over `0..rows` in contiguous ranges, `RANGES_PER_LANE`
/// per lane (one row each when the rows are fewer), on at most
/// `lanes.count()` threads: the calling one and scoped ones, all joined
/// before it returns (a lane's panic resumes here), each with its own
/// [`LaneScratch`]. Each thread claims the next range until none is
/// left, so a lane whose core is busy elsewhere takes fewer and the
/// sweep does not wait on it. One lane, a single row, or fewer than
/// [`FAN_OUT_MIN_MACS`] `macs` runs inline on the first lane's buffers.
/// Returns whether it forked.
fn fan_out(
    lanes: &mut Lanes,
    rows: usize,
    macs: u64,
    lane: impl Fn(&mut LaneScratch, Range<usize>) + Sync,
) -> bool {
    let n = lanes.count().min(rows).max(1);
    let scratch = &mut lanes.scratch[..n];
    if n < 2 || macs < FAN_OUT_MIN_MACS {
        lane(&mut scratch[0], 0..rows);
        return false;
    }
    let ranges = rows.min(n * RANGES_PER_LANE);
    // Only hands out range indices; the join publishes the lanes' writes.
    let next = AtomicUsize::new(0);
    let claim = |sc: &mut LaneScratch| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= ranges {
            break;
        }
        lane(sc, rows * i / ranges..rows * (i + 1) / ranges);
    };
    let claim = &claim;
    let (first, rest) = scratch.split_first_mut().expect("two lanes or more");
    std::thread::scope(|s| {
        for sc in rest {
            // The threads already running claim what a refused one would.
            if std::thread::Builder::new()
                .spawn_scoped(s, move || claim(sc))
                .is_err()
            {
                break;
            }
        }
        claim(first);
    });
    true
}

/// The bands of `rows`: `BAND_ROWS` rows each, the last one shorter.
fn bands(rows: Range<usize>) -> impl Iterator<Item = Range<usize>> {
    rows.clone()
        .step_by(BAND_ROWS)
        .map(move |y| y..(y + BAND_ROWS).min(rows.end))
}

/// Output rows `rows` of the sweep `s` into `out` at `level` on the
/// pair-word kernels, which [`conv3_blocked_covers`] admitted; no other
/// lane may touch those rows of `out` meanwhile.
///
/// # Panics
///
/// Panics if `rows` ends past the sweep or lies outside `out`'s rows, or
/// this CPU cannot run `level`.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn conv3_rows(level: SimdLevel, s: &Conv3Sweep<'_>, out: &Conv3Store<'_>, rows: Range<usize>) {
    assert!(rows.end <= s.out_h, "rows {rows:?} of {}", s.out_h);
    assert!(
        rows.is_empty() || (rows.start >= out.row0 && rows.end <= out.row0 + out.height),
        "rows {rows:?} outside the store's {}..{}",
        out.row0,
        out.row0 + out.height
    );
    assert!(level.is_available(), "{level} is not available on this CPU");
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an available `Avx512` or `Avx2` level means `detect`
        // observed AVX2; `rows` lies in the sweep and the store (asserted
        // above) and is the caller's own.
        SimdLevel::Avx512 | SimdLevel::Avx2 => unsafe { avx2::conv3_blocked(s, out, rows) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an available `Sse2` level means `detect` observed SSE2;
        // `rows` as above.
        SimdLevel::Sse2 => unsafe { sse2::conv3_blocked(s, out, rows) },
        _ => unreachable!("{level} has no register-blocked 3x3 kernel"),
    }
}

/// Output rows `rows` of the sweep `s` into `out` at `level`: on byte
/// lanes when [`Conv3Sweep::runs_bytes`], band by band, each band's
/// source rows repacked into `sc` first (a band whose codes do not fit
/// the licence's offset, which only an input block outside its format
/// can hold, runs the pair-word kernel); on the pair-word kernels
/// otherwise.
fn conv3_lane(
    level: SimdLevel,
    s: &Conv3Sweep<'_>,
    out: &Conv3Store<'_>,
    sc: &mut [u32],
    rows: Range<usize>,
) {
    if !s.runs_bytes(level) {
        return conv3_rows(level, s, out, rows);
    }
    for band in bands(rows) {
        if !repack(s, sc, band.clone()) {
            conv3_rows(level, s, out, band);
            continue;
        }
        bytes_rows(s, sc, out, band);
    }
}

/// Repacks the source rows band `band` of the byte-lane sweep `s` reads
/// into `sc`; whether every code fit the licence's offset.
///
/// # Panics
///
/// Panics if the sweep does not run on byte lanes at the AVX-512 rung
/// (which must be available), the band ends past it, or `sc` is too
/// short.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn repack(s: &Conv3Sweep<'_>, sc: &mut [u32], band: Range<usize>) -> bool {
    assert!(s.runs_bytes(SimdLevel::Avx512) && SimdLevel::Avx512.is_available());
    assert!(band.end <= s.out_h, "band {band:?} of {}", s.out_h);
    let rows = band.start..band.end + 2;
    assert!(
        sc.len() >= QuadRows::new(s, rows.len()).len(),
        "lane scratch too short"
    );
    let offset = s.bytes.expect("a licensed sweep").offset;
    #[cfg(target_arch = "x86_64")]
    // SAFETY: AVX-512F/BW are available (asserted above), the sweep is at
    // least 32 wide (`runs_bytes`), `rows.end <= out_h + 2 <= in_h`, and
    // `sc` holds the band (asserted above).
    return unsafe { avx512::repack(s, offset, rows, sc) };
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("byte lanes run on x86_64 only")
}

/// Output rows `band` of the byte-lane sweep `s` into `out`, from the
/// band `repack` left in `sc`.
///
/// # Panics
///
/// As [`repack`], and if `band` lies outside `out`'s rows.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn bytes_rows(s: &Conv3Sweep<'_>, sc: &[u32], out: &Conv3Store<'_>, band: Range<usize>) {
    assert!(s.runs_bytes(SimdLevel::Avx512) && SimdLevel::Avx512.is_available());
    assert!(band.end <= s.out_h, "band {band:?} of {}", s.out_h);
    assert!(band.start >= out.row0 && band.end <= out.row0 + out.height);
    assert!(
        sc.len() >= QuadRows::new(s, band.len() + 2).len(),
        "lane scratch too short"
    );
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the features, the licence and the width as in `repack`;
    // `band` lies in the sweep and the store (asserted above), `sc` holds
    // its repacked rows, and the band is the caller's own.
    unsafe {
        avx512::conv3_bytes(s, sc, out, band)
    };
}

/// The dispatch of [`conv3_blocked_narrow`] and [`conv3_blocked_codes`]:
/// the output rows fanned out across `lanes`, each lane on byte lanes or
/// the pair-word kernels ([`conv3_lane`]).
fn conv3_blocked(
    level: SimdLevel,
    lanes: &mut Lanes,
    input: &Tensor<i16>,
    packed: &PackedConv3,
    (out_h, out_w): (usize, usize),
    live: LiveChannels,
    out: Conv3Store<'_>,
) -> Option<Swept> {
    if !conv3_blocked_covers(level, out_w) {
        return None;
    }
    let sweep = Conv3Sweep::new(input, packed, (out_h, out_w), live, &out);
    let macs = (live.input * live.output * 9 * out_h * out_w) as u64;
    let need = if sweep.runs_bytes(level) {
        QuadRows::new(&sweep, BAND_ROWS.min(out_h) + 2).len()
    } else {
        0
    };
    let forked = fan_out(lanes, out_h, macs, |sc, rows| {
        conv3_lane(level, &sweep, &out, grown(&mut sc.quads, need), rows)
    });
    Some(Swept {
        forked,
        bytes: sweep.runs_bytes(level),
    })
}

/// Register-blocked narrow 3×3 sweep of a truncated-pyramid conv:
/// overwrites every element of the `live` output blocks of `acc`
/// (`out_planes·32 × chh × cw`) with the bias plus the taps of the
/// `live` input pairs, reading `input` rows `y..y+3`, columns `x..x+3`
/// for output `(y, x)`; dead blocks keep whatever `acc` held. The output
/// rows are split across `lanes` ([`FAN_OUT_MIN_MACS`] keeps small sweeps
/// on this thread), each computing its rows exactly as one thread would;
/// a sweep `packed` licenses for byte lanes runs them on the AVX-512
/// rung at 32 columns or more. Returns what it did, or `None`, leaving
/// `acc` untouched, when `level` has no blocked kernel or `cw` is below
/// [`BLOCKED_MIN_WIDTH`]; the caller then runs the row kernels. Exact
/// under the same `narrow_acc` license as [`row_interior_narrow`] (see
/// the module docs for the multiply-adds' one wrap), provided the source
/// channels past `live.input` are zero.
///
/// # Panics
///
/// Panics if `input` is smaller than the pyramid geometry needs, the
/// packed shapes disagree with `acc`, `live` exceeds them or differs from
/// the byte-lane licence's, or this CPU cannot run `level`
/// ([`SimdLevel::is_available`]).
pub fn conv3_blocked_narrow(
    level: SimdLevel,
    lanes: &mut Lanes,
    input: &Tensor<i16>,
    packed: &PackedConv3,
    live: LiveChannels,
    acc: &mut Tensor<i32>,
) -> Option<Swept> {
    let (out_c, out_h, out_w) = acc.shape();
    assert_eq!(out_c, packed.out_planes * LEAF_CH, "accumulator channels");
    let store = Conv3Store::whole(out_h, StoreKind::Acc(LanePlane::new(acc.as_mut_slice())));
    conv3_blocked(level, lanes, input, packed, (out_h, out_w), live, store)
}

/// [`conv3_blocked_narrow`] with the fused epilogue in its store: each
/// chunk's accumulators take the srcS plane `srcs` (its channels, read at
/// its offset) shifted up, then are floored, rounded and clamped in
/// registers and packed straight into `dst` codes, equal to
/// [`epilogue_narrow`] of the accumulators [`conv3_blocked_narrow`] would
/// store — no `i32` plane is written. With `shuffle` (srcS-free only),
/// the codes go through `UPX2`'s ×2 pixel shuffle on the way
/// ([`Tensor::pixel_shuffle_into`] order), so `dst` is the shuffled
/// plane, twice the conv output in each dimension. `dst` needs only the
/// `live` output channels, rounded up to whole `OC_BLOCK`s (each block
/// is one channel after a shuffle); the sweep writes every element of
/// those and nothing else. Lanes and the return value are as for
/// [`conv3_blocked_narrow`].
///
/// # Panics
///
/// As [`conv3_blocked_narrow`], with `dst` in place of `acc`, and if
/// `dst` has fewer channels than the live blocks, `srcs` does not cover
/// the conv output at its offset, or, with `shuffle`, there is a srcS
/// plane or `dst` has odd dimensions.
#[allow(clippy::too_many_arguments)]
pub fn conv3_blocked_codes(
    level: SimdLevel,
    lanes: &mut Lanes,
    input: &Tensor<i16>,
    packed: &PackedConv3,
    live: LiveChannels,
    ep: &NarrowEpilogue,
    shuffle: bool,
    srcs: Option<(&Tensor<i16>, (usize, usize))>,
    dst: &mut Tensor<i16>,
) -> Option<Swept> {
    let (_, h, w) = dst.shape();
    let codes = LanePlane::new(dst.as_mut_slice());
    if !shuffle {
        let srcs = srcs.map(|p| SrcS::new(p, (h, w)));
        let store = Conv3Store::whole(h, StoreKind::Codes(ep, codes, srcs));
        return conv3_blocked(level, lanes, input, packed, (h, w), live, store);
    }
    assert!(srcs.is_none(), "a shuffled store adds no srcS");
    assert!(
        h % 2 == 0 && w % 2 == 0,
        "a shuffled plane has even dimensions, not {h}x{w}"
    );
    let store = Conv3Store::whole(h / 2, StoreKind::Shuffled(ep, codes));
    conv3_blocked(level, lanes, input, packed, (h / 2, w / 2), live, store)
}

/// Pixels `pixels` of the 1×1 pass `s` of `packed` at `level`: whole
/// chunks blocked, the rest scalar over the compacted nonzero columns.
/// No other lane may touch those pixels of either plane meanwhile.
///
/// # Panics
///
/// Panics if `pixels` ends past the planes or `level` has no blocked
/// kernel this CPU can run.
#[cfg_attr(not(target_arch = "x86_64"), allow(unreachable_code, unused_variables))]
fn conv1_pixels(level: SimdLevel, s: &Conv1Sweep<'_>, packed: &PackedConv1, pixels: Range<usize>) {
    let (from, to) = (pixels.start, pixels.end);
    assert!(from <= to && to <= s.px, "pixels {pixels:?} of {}", s.px);
    assert!(level.is_available(), "{level} is not available on this CPU");
    let done = match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level` is available (asserted above): `detect` observed
        // AVX2, AVX-512F/BW and AVX-512 VNNI. `from..to` lies in the planes
        // (asserted above) and is the caller's own. AVX2 takes one more
        // 16-pixel chunk when at least 16 pixels are left.
        SimdLevel::Avx512 => unsafe {
            let done = avx512::conv1_blocked(s, from, to);
            avx2::conv1_blocked(s, done, to)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an available `Avx2` level means `detect` observed AVX2;
        // the pixels as above.
        SimdLevel::Avx2 => unsafe { avx2::conv1_blocked(s, from, to) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an available `Sse2` level means `detect` observed SSE2;
        // the pixels as above.
        SimdLevel::Sse2 => unsafe { sse2::conv1_blocked(s, from, to) },
        _ => unreachable!("{level} has no register-blocked 1x1 kernel"),
    };
    for oc in 0..LEAF_CH {
        for &(ic, w) in packed.row(s.leaf, oc) {
            let src = (s.chan_base + ic as usize) * s.px + done;
            // SAFETY: `Conv1Sweep::new` checked that both planes hold `px`
            // pixels of these channels, `done..to` lies in `pixels`, and
            // no other lane touches those pixels meanwhile.
            let (acc, src) = unsafe {
                (
                    std::slice::from_raw_parts_mut(s.acc.add(oc * s.px + done), to - done),
                    std::slice::from_raw_parts(s.input.add(src), to - done),
                )
            };
            scalar_ch_mac_narrow(acc, src, w);
        }
    }
}

/// Register-blocked narrow 1×1 accumulation of the leaves `leaves`,
/// leaf `leaves.start + k` reading `input` channels `32k..32k + 32`:
/// `acc[oc] += Σ_ic w[oc][ic] · input[32k + ic]` over the flat channel
/// planes, leaf by leaf. The pixels are split across `lanes` as
/// [`conv3_blocked_narrow`] splits rows. Whole chunks run blocked; the
/// last `n mod chunk` pixels of a lane's `n` run the scalar loop over
/// the compacted nonzero columns, which wraps to the same `i32` sums.
/// Returns whether it forked, or `None`, leaving `acc` untouched, when
/// `level` has no blocked kernel or a plane has fewer than
/// [`BLOCKED_MIN_WIDTH`] pixels.
///
/// # Panics
///
/// Panics if the input and accumulator planes differ in size, `input`
/// lacks a leaf's channels, `leaves` exceeds `packed`, or this CPU
/// cannot run `level` ([`SimdLevel::is_available`]).
pub fn conv1_blocked_narrow(
    level: SimdLevel,
    lanes: &mut Lanes,
    packed: &PackedConv1,
    leaves: Range<usize>,
    input: &Tensor<i16>,
    acc: &mut Tensor<i32>,
) -> Option<bool> {
    let px = acc.height() * acc.width();
    if px < BLOCKED_MIN_WIDTH || !blocked_rung(level) {
        return None;
    }
    assert!(acc.channels() == LEAF_CH && input.height() * input.width() == px);
    assert!(leaves.end <= packed.leaves && input.channels() >= leaves.len() * LEAF_CH);
    let acc = LanePlane::new(acc.as_mut_slice());
    let macs = (leaves.len() * LEAF_CH * LEAF_CH * px) as u64;
    Some(fan_out(lanes, px, macs, |_, pixels| {
        let raw = (input.as_slice().as_ptr(), input.as_slice().len());
        for (k, leaf) in leaves.clone().enumerate() {
            let s = Conv1Sweep::new(packed, leaf, raw, k * LEAF_CH, acc);
            conv1_pixels(level, &s, packed, pixels.clone());
        }
    }))
}

/// Where [`er_blocked_narrow`] finishes an `ER` instruction.
pub enum ErFinish<'a> {
    /// Straight into destination codes: each band's 1×1 accumulators take
    /// the srcS plane (its channels, read at its offset) and the rest of
    /// the final epilogue `ep` into the band's rows of `dst`, 32 channels
    /// of the conv output. `dst` must not share storage with the source.
    Codes {
        /// The final epilogue (srcS alignment, ReLU, requantizer).
        ep: &'a NarrowEpilogue,
        /// The srcS plane and its crop offset.
        srcs: Option<(&'a Tensor<i16>, (usize, usize))>,
        /// The destination codes.
        dst: &'a mut Tensor<i16>,
    },
    /// Into the 1×1 accumulators (32 channels of the conv output), which
    /// the caller finishes.
    Acc(&'a mut Tensor<i32>),
}

/// The register-blocked narrow `ER` instruction, finished from its
/// bands: one fan-out across `lanes` splits the conv output rows, and a
/// lane runs each of its ranges in bands of [`BAND_ROWS`] rows. Per
/// band, every leaf's 3×3 expansion of `input` stores mid codes through
/// the mid requantizer `mid_ep` into the lane's mid band (on byte lanes
/// when the leaves carry the licence, the band's source repacked once for
/// all of them), and that leaf's 1×1 accumulates them into the lane's
/// band of `i32` accumulators, which start from `conv1`'s biases; then
/// `finish` takes the band. Returns what it did, or `None`, touching
/// nothing, exactly when [`conv3_blocked_codes`] would decline the sweep.
///
/// # Panics
///
/// As [`conv3_blocked_codes`] and [`conv1_blocked_narrow`], and if the
/// finish target is not 32 channels of the conv output, or `conv3` and
/// `conv1` disagree on the leaves.
pub fn er_blocked_narrow(
    level: SimdLevel,
    lanes: &mut Lanes,
    input: &Tensor<i16>,
    conv3: &[PackedConv3],
    mid_ep: &NarrowEpilogue,
    conv1: &PackedConv1,
    finish: ErFinish<'_>,
) -> Option<Swept> {
    let (h, w) = match &finish {
        ErFinish::Codes { dst, .. } => (dst.height(), dst.width()),
        ErFinish::Acc(acc) => (acc.height(), acc.width()),
    };
    if !conv3_blocked_covers(level, w) {
        return None;
    }
    assert_eq!(conv3.len(), conv1.leaves, "ER leaves");
    assert!(conv3.iter().all(|c| (c.in_groups, c.out_planes) == (1, 1)));
    let full = LiveChannels::full(1, 1);
    let (codes, acc) = match finish {
        ErFinish::Codes { ep, srcs, dst } => {
            assert_eq!(dst.channels(), LEAF_CH, "ER destination");
            let srcs = srcs.map(|p| SrcS::new(p, (h, w)));
            (Some((ep, srcs, LanePlane::new(dst.as_mut_slice()))), None)
        }
        ErFinish::Acc(acc) => {
            assert_eq!(acc.channels(), LEAF_CH, "ER accumulators");
            (None, Some(LanePlane::new(acc.as_mut_slice())))
        }
    };
    let bytes = runs_bytes(level, w, conv3.iter().all(|c| c.bytes.is_some()));
    let macs = (conv3.len() * LEAF_CH * LEAF_CH * 10 * h * w) as u64;
    let forked = fan_out(lanes, h, macs, |sc, rows| {
        for band in bands(rows) {
            let (b0, bh) = (band.start, band.len());
            let LaneScratch {
                quads,
                mid,
                acc: acc_band,
            } = sc;
            let mid_plane = LanePlane::new(grown(mid, LEAF_CH * bh * w));
            let acc_band = grown(acc_band, LEAF_CH * bh * w);
            for (a, &b) in acc_band.chunks_exact_mut(bh * w).zip(&conv1.bias) {
                a.fill(b as i32);
            }
            let acc_plane = LanePlane::new(&mut acc_band[..]);
            let store = Conv3Store {
                height: bh,
                row0: b0,
                kind: StoreKind::Codes(mid_ep, mid_plane, None),
            };
            let sweeps = conv3
                .iter()
                .map(|c3| Conv3Sweep::new(input, c3, (h, w), full, &store));
            // The leaves share the source: one repack serves them all.
            let mut repacked: Option<&[u32]> = None;
            for (leaf, s) in sweeps.enumerate() {
                if bytes && leaf == 0 {
                    let q = grown(quads, QuadRows::new(&s, bh + 2).len());
                    repacked = repack(&s, q, band.clone()).then_some(&*q);
                }
                match repacked {
                    Some(q) => bytes_rows(&s, q, &store, band.clone()),
                    None => conv3_rows(level, &s, &store, band.clone()),
                }
                let s1 = Conv1Sweep::new(conv1, leaf, mid_plane.input(), 0, acc_plane);
                conv1_pixels(level, &s1, conv1, 0..bh * w);
            }
            let acc_band = &acc_band[..];
            for c in 0..LEAF_CH {
                for y in band.clone() {
                    let a = &acc_band[(c * bh + y - b0) * w..][..w];
                    let at = (c * h + y) * w;
                    if let Some((ep, srcs, dst)) = &codes {
                        let s = srcs
                            .as_ref()
                            .filter(|s| c < s.channels)
                            .map(|s| s.row(c, y, w));
                        // SAFETY: row `y` of channel `c` lies in this
                        // lane's band, which no other lane touches.
                        epilogue_row(level, ep, a, s, unsafe { dst.span(at, w) });
                    } else if let Some(plane) = &acc {
                        // SAFETY: as above, on the accumulator plane.
                        unsafe { plane.span(at, w) }.copy_from_slice(a);
                    }
                }
            }
        }
    });
    Some(Swept { forked, bytes })
}

/// The constants of one fused narrow epilogue ([`epilogue_narrow`]): the
/// srcS alignment shift, the activation floor, the requantizer's rounding
/// shift and the destination code range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NarrowEpilogue {
    /// Left shift aligning srcS codes to the accumulator (`0..=31`).
    srcs_shift: u32,
    /// `0` with ReLU, `i32::MIN` (a no-op `max`) without.
    floor: i32,
    /// Requantizer right shift (`1..=31`).
    shift: u32,
    min: i32,
    max: i32,
}

impl NarrowEpilogue {
    /// The epilogue that adds a srcS plane stored at `srcs_frac`
    /// fractional bits (when present) to an accumulator at `acc_frac`,
    /// applies ReLU when `relu`, and requantizes into `dst` codes exactly
    /// as [`ecnn_tensor::qformat::rescale_code`] +
    /// [`QFormat::clamp_code`] do. `None` for the shapes the narrow path
    /// leaves to the `i64` packed kernels: a requantizer that does not
    /// round down (shift outside `1..=31`), or a srcS plane finer than
    /// the accumulator (its alignment would round) or more than 31 bits
    /// coarser.
    pub fn new(acc_frac: i32, dst: QFormat, relu: bool, srcs_frac: Option<i32>) -> Option<Self> {
        let shift = u32::try_from(acc_frac - dst.frac() as i32)
            .ok()
            .filter(|s| (1..=31).contains(s))?;
        let srcs_shift = match srcs_frac {
            Some(f) => u32::try_from(acc_frac - f).ok().filter(|&s| s <= 31)?,
            None => 0,
        };
        Some(Self {
            srcs_shift,
            floor: if relu { 0 } else { i32::MIN },
            shift,
            min: dst.min_code(),
            max: dst.max_code(),
        })
    }

    /// The rounding bias `2^(shift − 1)`.
    fn half(&self) -> i32 {
        1 << (self.shift - 1)
    }
}

/// One row of [`epilogue_narrow`]; `srcs` and `dst` must match `acc` in
/// length.
fn epilogue_row(
    level: SimdLevel,
    ep: &NarrowEpilogue,
    acc: &[i32],
    srcs: Option<&[i16]>,
    dst: &mut [i16],
) {
    assert_eq!(acc.len(), dst.len(), "epilogue row lengths");
    if let Some(s) = srcs {
        assert_eq!(acc.len(), s.len(), "epilogue srcS row length");
    }
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx512` and `Avx2` both imply `detect` observed AVX2;
        // the asserts above are the row-length contract of the kernel.
        SimdLevel::Avx512 | SimdLevel::Avx2 => unsafe { avx2::epilogue_row(ep, acc, srcs, dst) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level == Sse2` only when `detect` observed SSE2; same
        // row-length contract.
        SimdLevel::Sse2 => unsafe { sse2::epilogue_row(ep, acc, srcs, dst) },
        _ => scalar_epilogue(ep, acc, srcs, dst),
    }
}

/// The fused narrow epilogue of one instruction, straight from its `i32`
/// accumulator into destination codes in one pass, over the leading
/// `channels` channels (the rest of `dst` is left as it is): every
/// element gets the srcS code cropped at the plane's `(row, col)` offset
/// (channels below the plane's channel count) shifted up by the
/// alignment, the activation floor, a branch-free round half away from
/// zero, and the clamp to the code range. Wrapping `i32` adds make the
/// srcS step exact whenever the final sum fits `i32`, which the
/// verifier's `narrow_acc` license proves.
///
/// # Panics
///
/// Panics if `dst` differs from `acc` in shape, `channels` exceeds it, or
/// `srcs` does not cover `acc` spatially from its offset.
pub fn epilogue_narrow(
    level: SimdLevel,
    ep: &NarrowEpilogue,
    acc: &Tensor<i32>,
    srcs: Option<(&Tensor<i16>, (usize, usize))>,
    dst: &mut Tensor<i16>,
    channels: usize,
) {
    let (ac, ah, aw) = acc.shape();
    assert_eq!(dst.shape(), (ac, ah, aw), "epilogue destination shape");
    assert!(channels <= ac, "epilogue over {channels} of {ac} channels");
    let Some((plane, (oy, ox))) = srcs else {
        let n = channels * ah * aw;
        epilogue_row(
            level,
            ep,
            &acc.as_slice()[..n],
            None,
            &mut dst.as_mut_slice()[..n],
        );
        return;
    };
    let (pc, ph, pw) = plane.shape();
    assert!(
        ph >= oy + ah && pw >= ox + aw,
        "srcS smaller than the accumulator"
    );
    for c in 0..channels {
        if c >= pc {
            epilogue_row(level, ep, acc.channel(c), None, dst.channel_mut(c));
        } else if (ph, pw) == (ah, aw) {
            epilogue_row(
                level,
                ep,
                acc.channel(c),
                Some(plane.channel(c)),
                dst.channel_mut(c),
            );
        } else {
            for y in 0..ah {
                let s = &plane.row(c, y + oy)[ox..ox + aw];
                epilogue_row(level, ep, acc.row(c, y), Some(s), dst.row_mut(c, y));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every level available on this host, scalar always included.
    fn levels() -> Vec<SimdLevel> {
        SimdLevel::ALL
            .into_iter()
            .filter(|l| l.is_available())
            .collect()
    }

    #[test]
    fn availability_follows_the_detected_ladder() {
        let best = detect();
        assert!(best.is_available() && SimdLevel::Scalar.is_available());
        // x86 and NEON rungs never coexist.
        assert!(!(SimdLevel::Neon.is_available() && SimdLevel::Sse2.is_available()));
        // Every rung below an available x86 rung is available too.
        let x86 = [SimdLevel::Avx512, SimdLevel::Avx2, SimdLevel::Sse2];
        for (i, l) in x86.iter().enumerate() {
            if l.is_available() {
                assert!(x86[i..].iter().all(|l| l.is_available()), "{l}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn detect_takes_the_avx512_rung_whenever_the_cpu_has_it() {
        let avx512 = is_x86_feature_detected!("avx2")
            && is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx512vnni");
        assert_eq!(
            detect() == SimdLevel::Avx512,
            avx512,
            "detected {}",
            detect()
        );
    }

    fn row(n: usize, seed: i64) -> Vec<i16> {
        (0..n)
            .map(|i| (((i as i64 * 2654435761 + seed * 97) % 509) - 254) as i16)
            .collect()
    }

    #[test]
    fn interior_matches_scalar_for_all_levels_and_ragged_widths() {
        // Widths straddling every lane count (and far past one vector).
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 64, 100] {
            let r = row(n + 2, n as i64);
            let taps = [7, -1000, 313];
            let mut want = vec![5i64; n];
            crate::kernels::accum_row_interior(&mut want, &r, taps);
            for &l in &levels() {
                let mut a = vec![5i32; n];
                row_interior_narrow(l, &mut a, &r, taps);
                let widened: Vec<i64> = a.iter().map(|&v| v as i64).collect();
                assert_eq!(widened, want, "narrow level {l} n {n}");
            }
        }
    }

    #[test]
    fn padded_matches_scalar_for_all_levels_and_edge_widths() {
        for n in [1usize, 2, 3, 4, 5, 8, 9, 17, 33] {
            let r = row(n, n as i64 + 11);
            let taps = [-3, 12, 2];
            let mut want = vec![-9i64; n];
            crate::kernels::accum_row_padded(&mut want, &r, taps);
            for &l in &levels() {
                let mut a = vec![-9i32; n];
                row_padded_narrow(l, &mut a, &r, taps);
                let widened: Vec<i64> = a.iter().map(|&v| v as i64).collect();
                assert_eq!(widened, want, "narrow level {l} n {n}");
            }
        }
    }

    #[test]
    fn ch_mac_matches_scalar_for_all_levels() {
        for n in [1usize, 4, 7, 8, 9, 40, 101] {
            let s = row(n, 3);
            let want: Vec<i64> = s.iter().map(|&v| 17 - 777 * v as i64).collect();
            for &l in &levels() {
                let mut a = vec![17i32; n];
                ch_mac_narrow(l, &mut a, &s, -777);
                let widened: Vec<i64> = a.iter().map(|&v| v as i64).collect();
                assert_eq!(widened, want, "narrow level {l} n {n}");
            }
        }
    }

    use ecnn_isa::instr::{FeatLoc, Instruction, Opcode, QSpec};
    use ecnn_isa::params::LeafParams;
    use ecnn_model::model::InferenceKind;
    use ecnn_tensor::QFormat;

    /// Whether `level` has register-blocked narrow conv kernels.
    fn has_blocked(level: SimdLevel) -> bool {
        matches!(level, SimdLevel::Avx512 | SimdLevel::Avx2 | SimdLevel::Sse2)
    }

    /// Blocked-kernel widths: one chunk exactly, a one-pixel overlapping
    /// last chunk, ragged widths on both sides of two chunks, and many
    /// chunks — for 16- and 32-pixel chunks alike (widths below 32 run
    /// the AVX2 kernel on the AVX-512 rung).
    const BLOCKED_WIDTHS: [usize; 10] = [16, 17, 31, 32, 33, 47, 63, 64, 65, 130];

    fn leaf(seed: i64) -> LeafParams {
        let mut l = LeafParams::zero();
        let pat = |i: usize, m: i64| (((i as i64 * 2654435761 + seed * m) % 509) - 254) as i16;
        for (i, w) in l.w3.iter_mut().enumerate() {
            // Zero one tap row `ky` (or none, or all) per register block
            // `(oc / 4, ic / 2)`, so the block masks take every shape.
            let (oc, ic, ky) = (i / (9 * LEAF_CH), i / 9 % LEAF_CH, i % 9 / 3);
            let dead = (oc / OC_BLOCK + ic / 2 + seed as usize) % 5;
            *w = if dead == ky || dead == 4 {
                0
            } else {
                pat(i, 13)
            };
        }
        for (i, w) in l.w1.iter_mut().enumerate() {
            *w = if i % 3 == 0 { 0 } else { pat(i, 17) };
        }
        for (i, b) in l.b3.iter_mut().enumerate() {
            *b = pat(i, 19);
        }
        l
    }

    /// A packed 3×3 sweep of `opcode` over `in_groups` input groups with
    /// `out_groups` output planes (`UPX2`) and one leaf per plane.
    fn packed3(
        opcode: Opcode,
        in_groups: usize,
        out_groups: usize,
        leafs: &[LeafParams],
    ) -> PackedConv3 {
        let ins = Instruction {
            opcode,
            inference: InferenceKind::TruncatedPyramid,
            src: FeatLoc::di(),
            dst: FeatLoc::bb(0),
            src_s: None,
            in_groups,
            out_groups,
            expansion: 1,
            in_size: (18, 18),
            out_size: (16, 16),
            relu: false,
            pool: None,
            pool_factor: 1,
            q: QSpec {
                src: QFormat::signed(4),
                dst: QFormat::signed(4),
                src_s: None,
                mid: None,
                w3: QFormat::signed(7),
                b3: QFormat::signed(5),
                w1: None,
                b1: None,
            },
            param_restart: 0,
            layer: 0,
        };
        PackedConv3::pack(&ins, leafs)
    }

    fn plane(c: usize, h: usize, w: usize, seed: usize) -> Tensor<i16> {
        Tensor::from_fn(c, h, w, |c, y, x| {
            (((c * 7919 + y * 104729 + x * 31 + seed * 613) % 4093) as i16) - 2046
        })
    }

    /// The scalar narrow row loops over the same packed sweep: the
    /// oracle the blocked 3×3 kernels must match bit for bit.
    fn scalar_conv3(input: &Tensor<i16>, p: &PackedConv3, chh: usize, cw: usize) -> Tensor<i32> {
        let mut acc = Tensor::<i32>::zeros(p.out_planes * LEAF_CH, chh, cw);
        for (oc, &b) in p.bias.iter().enumerate() {
            acc.channel_mut(oc).fill(b as i32);
        }
        for op_ in 0..p.out_planes {
            for ig in 0..p.in_groups {
                let pl = op_ * p.in_groups + ig;
                for oc in 0..LEAF_CH {
                    for ic in 0..LEAF_CH {
                        for ky in 0..3 {
                            let taps = p.taps(pl, ky, oc, ic);
                            for y in 0..chh {
                                let row = input.row(ig * LEAF_CH + ic, y + ky);
                                scalar_row_interior_narrow(
                                    acc.row_mut(op_ * LEAF_CH + oc, y),
                                    row,
                                    taps,
                                );
                            }
                        }
                    }
                }
            }
        }
        acc
    }

    #[test]
    fn blocked_conv3_matches_scalar_rows_at_every_level() {
        let cases = [
            (Opcode::Conv, 1, 1, vec![leaf(1)]),
            (Opcode::Conv, 2, 1, vec![leaf(2), leaf(3)]),
            (Opcode::Upx2, 1, 2, vec![leaf(4), leaf(5)]),
        ];
        for (opcode, in_groups, out_groups, leafs) in cases {
            let p = packed3(opcode, in_groups, out_groups, &leafs);
            for cw in BLOCKED_WIDTHS {
                let chh = 3;
                let input = plane(in_groups * LEAF_CH, chh + 2, cw + 2, cw);
                let want = scalar_conv3(&input, &p, chh, cw);
                for &l in &levels() {
                    let mut acc = Tensor::from_fn(p.out_planes * LEAF_CH, chh, cw, |_, _, _| -7);
                    let ran =
                        conv3_blocked_narrow(l, &mut Lanes::new(1), &input, &p, full(&p), &mut acc);
                    assert_eq!(ran.is_some(), has_blocked(l), "level {l} dispatch");
                    if ran.is_some() {
                        assert_eq!(acc, want, "{opcode:?} ig {in_groups} level {l} width {cw}");
                    }
                }
            }
        }
    }

    fn full(p: &PackedConv3) -> LiveChannels {
        LiveChannels::full(p.in_groups, p.out_planes)
    }

    /// With live extents, the blocked sweep matches the scalar rows on
    /// every live output block of a source whose dead channels are zero,
    /// and never stores to a dead block.
    #[test]
    fn blocked_conv3_sweeps_only_live_channels() {
        let cases = [
            // The RGB head (3 live inputs) and a 3-channel tail.
            (Opcode::Conv, 1, 1, vec![leaf(12)], 3, 3),
            // 12 live inputs (unshuffled RGB) and a dead second group;
            // a live count ending mid-block.
            (Opcode::Conv, 2, 1, vec![leaf(13), leaf(14)], 12, 30),
            // A half-live second group.
            (Opcode::Conv, 2, 1, vec![leaf(18), leaf(19)], 48, 17),
            // A UPX2 store with 3 post-shuffle channels read: 12
            // pre-shuffle channels of plane 0, none of plane 1.
            (Opcode::Upx2, 1, 2, vec![leaf(15), leaf(16)], 20, 12),
            // Every channel live.
            (Opcode::Conv, 1, 1, vec![leaf(17)], 32, 32),
        ];
        for (opcode, in_groups, out_groups, leafs, live_in, live_out) in cases {
            let p = packed3(opcode, in_groups, out_groups, &leafs);
            let live = LiveChannels {
                input: live_in,
                output: live_out,
            };
            for cw in [16, 33] {
                let chh = 2;
                let mut input = plane(in_groups * LEAF_CH, chh + 2, cw + 2, cw);
                for c in live_in..input.channels() {
                    input.channel_mut(c).fill(0);
                }
                let want = scalar_conv3(&input, &p, chh, cw);
                for &l in &levels() {
                    let mut acc = Tensor::from_fn(p.out_planes * LEAF_CH, chh, cw, |_, _, _| -7);
                    if conv3_blocked_narrow(l, &mut Lanes::new(1), &input, &p, live, &mut acc)
                        .is_none()
                    {
                        continue;
                    }
                    for c in 0..acc.channels() {
                        let stored = c % LEAF_CH / OC_BLOCK < live.blocks(c / LEAF_CH);
                        assert_eq!(stored, c < live_out.next_multiple_of(OC_BLOCK));
                        if stored {
                            assert_eq!(acc.channel(c), want.channel(c), "{opcode:?} level {l}");
                        } else {
                            assert!(acc.channel(c).iter().all(|&v| v == -7), "dead {c}");
                        }
                    }
                }
            }
        }
    }

    /// `fan_out` hands each row to exactly one range, never an empty one,
    /// `RANGES_PER_LANE` per lane or one per row, and runs one lane or a
    /// sweep under the floor inline.
    #[test]
    fn fan_out_partitions_the_rows() {
        for (lanes, rows) in [(1, 5), (2, 5), (3, 70), (4, 3), (8, 1), (3, 0)] {
            for macs in [FAN_OUT_MIN_MACS - 1, FAN_OUT_MIN_MACS] {
                let seen = std::sync::Mutex::new(Vec::new());
                let forked = fan_out(&mut Lanes::new(lanes), rows, macs, |_, r| {
                    seen.lock().unwrap().push(r)
                });
                let mut seen = seen.into_inner().unwrap();
                seen.sort_by_key(|r| r.start);
                let split = lanes.min(rows);
                assert_eq!(forked, macs >= FAN_OUT_MIN_MACS && split > 1);
                let ranges = rows.min(split * RANGES_PER_LANE);
                assert_eq!(seen.len(), if forked { ranges } else { 1 });
                assert!(rows == 0 || seen.iter().all(|r| !r.is_empty()));
                let flat: Vec<usize> = seen.into_iter().flatten().collect();
                assert_eq!(flat, (0..rows).collect::<Vec<_>>(), "{lanes} lanes");
            }
        }
    }

    #[test]
    fn blocked_kernels_decline_narrow_planes() {
        let p = packed3(Opcode::Conv, 1, 1, &[leaf(6)]);
        let input = plane(LEAF_CH, 5, 17, 0);
        let p1 = PackedConv1::pack(&[leaf(6)], 5, 11);
        let mid = plane(LEAF_CH, 3, 5, 1);
        for &l in &levels() {
            let mut acc = Tensor::<i32>::zeros(LEAF_CH, 3, 15);
            assert_eq!(
                conv3_blocked_narrow(l, &mut Lanes::new(2), &input, &p, full(&p), &mut acc),
                None,
                "level {l}"
            );
            let mut acc = Tensor::<i32>::zeros(LEAF_CH, 3, 5);
            assert_eq!(
                conv1_blocked_narrow(l, &mut Lanes::new(2), &p1, 0..1, &mid, &mut acc),
                None,
                "level {l}"
            );
        }
    }

    #[test]
    fn blocked_conv1_matches_scalar_at_every_level() {
        let leafs = [leaf(7), leaf(8)];
        let p = PackedConv1::pack(&leafs, 5, 11);
        let shapes = BLOCKED_WIDTHS
            .iter()
            .map(|&n| (1, n))
            .chain([(5, 7), (12, 12)]);
        for (h, w) in shapes {
            // Both leaves read their own 32-channel group, as CONV1 does.
            let input = plane(2 * LEAF_CH, h, w, h * w);
            let start = Tensor::from_fn(LEAF_CH, h, w, |c, y, x| {
                (c * 1000 + y * 10 + x) as i32 - 9000
            });
            let mut want = start.clone();
            for li in 0..leafs.len() {
                for oc in 0..LEAF_CH {
                    for &(ic, wv) in p.row(li, oc) {
                        let src = input.channel(li * LEAF_CH + ic as usize);
                        scalar_ch_mac_narrow(want.channel_mut(oc), src, wv);
                    }
                }
            }
            for &l in &levels() {
                let mut acc = start.clone();
                let ran = conv1_blocked_narrow(
                    l,
                    &mut Lanes::new(1),
                    &p,
                    0..leafs.len(),
                    &input,
                    &mut acc,
                );
                assert_eq!(ran.is_some(), has_blocked(l), "level {l} dispatch");
                if has_blocked(l) {
                    assert_eq!(acc, want, "level {l} plane {h}x{w}");
                }
            }
        }
    }

    #[test]
    fn blocked_kernels_wrap_like_scalar_at_the_madd_overflow() {
        // (−32768)·(−32768) + (−32768)·(−32768) = 2³¹ is the one pair sum
        // `vpmaddwd` wraps; the blocked result must still be congruent —
        // here equal — to the scalar wrapping loops.
        let mut l = LeafParams::zero();
        l.w3.fill(i16::MIN);
        l.w1.fill(i16::MIN);
        let p3 = PackedConv3::pack_leaf(&l, 7, 7);
        let p1 = PackedConv1::pack(std::slice::from_ref(&l), 7, 7);
        // 47 columns: two overlapping 32-pixel chunks on the AVX-512 rung;
        // the 94-pixel 1×1 planes end in a 16-pixel and a scalar tail.
        let (chh, cw) = (2, 47);
        let input = Tensor::from_fn(LEAF_CH, chh + 2, cw + 2, |_, _, _| i16::MIN);
        let want3 = scalar_conv3(&input, &p3, chh, cw);
        let mid = Tensor::from_fn(LEAF_CH, chh, cw, |_, _, _| i16::MIN);
        let mut want1 = Tensor::<i32>::zeros(LEAF_CH, chh, cw);
        for oc in 0..LEAF_CH {
            for &(ic, wv) in p1.row(0, oc) {
                scalar_ch_mac_narrow(want1.channel_mut(oc), mid.channel(ic as usize), wv);
            }
        }
        for &lv in levels().iter().filter(|&&lv| has_blocked(lv)) {
            let mut acc = Tensor::<i32>::zeros(LEAF_CH, chh, cw);
            assert!(
                conv3_blocked_narrow(lv, &mut Lanes::new(1), &input, &p3, full(&p3), &mut acc)
                    .is_some()
            );
            assert_eq!(acc, want3, "3x3 level {lv}");
            let mut acc = Tensor::<i32>::zeros(LEAF_CH, chh, cw);
            assert!(
                conv1_blocked_narrow(lv, &mut Lanes::new(1), &p1, 0..1, &mid, &mut acc).is_some()
            );
            assert_eq!(acc, want1, "1x1 level {lv}");
        }
    }

    /// The fused store writes exactly the live blocks' codes of the
    /// epilogue over the stored accumulators — pixel-shuffled for `UPX2`,
    /// one post-shuffle channel per block — into a plane holding only
    /// those channels, every element of it.
    #[test]
    fn fused_codes_store_matches_the_epilogue_of_the_stored_accumulators() {
        let cases = [
            (Opcode::Conv, 1, 1, vec![leaf(9)], 32),
            (Opcode::Conv, 2, 1, vec![leaf(10), leaf(11)], 32),
            // A 3-channel DO tail: one block, 4 stored channels.
            (Opcode::Conv, 1, 1, vec![leaf(20)], 3),
            // Shuffled: every channel of 2 planes, and a 3-channel DO
            // tail (12 pre-shuffle channels, 3 blocks of plane 0).
            (Opcode::Upx2, 1, 2, vec![leaf(21), leaf(22)], 64),
            (Opcode::Upx2, 2, 4, (23..27).map(leaf).collect(), 12),
        ];
        for (opcode, in_groups, out_groups, leafs, live_out) in cases {
            let p = packed3(opcode, in_groups, out_groups, &leafs);
            let live = LiveChannels {
                input: in_groups * LEAF_CH,
                output: live_out,
            };
            let shuffle = opcode == Opcode::Upx2;
            let (f, stored) = (
                if shuffle { 2 } else { 1 },
                live_out.next_multiple_of(OC_BLOCK),
            );
            let c = stored / (f * f);
            for cw in BLOCKED_WIDTHS {
                let chh = 2;
                let input = plane(in_groups * LEAF_CH, chh + 2, cw + 2, cw + 5);
                let acc = scalar_conv3(&input, &p, chh, cw);
                // Shift 1 saturates nearly every code, 18 spreads the sums
                // over the code range, 30 rounds nearly all to 0 or ±1.
                for (shift, relu) in [(1, true), (18, true), (18, false), (30, false)] {
                    let q = QFormat::signed(4);
                    let ep = NarrowEpilogue::new(q.frac() as i32 + shift, q, relu, None).unwrap();
                    let mut codes = Tensor::<i16>::zeros(acc.channels(), chh, cw);
                    epilogue_narrow(SimdLevel::Scalar, &ep, &acc, None, &mut codes, stored);
                    let codes = if shuffle {
                        codes.pixel_shuffle(2)
                    } else {
                        codes
                    };
                    let want = codes.with_channels(c);
                    for &l in &levels() {
                        let mut dst = Tensor::from_fn(c, f * chh, f * cw, |_, _, _| 0x5555i16);
                        let ran = conv3_blocked_codes(
                            l,
                            &mut Lanes::new(1),
                            &input,
                            &p,
                            live,
                            &ep,
                            shuffle,
                            None,
                            &mut dst,
                        );
                        assert_eq!(ran.is_some(), has_blocked(l), "level {l} dispatch");
                        if ran.is_some() {
                            assert_eq!(
                                dst, want,
                                "{opcode:?} ig {in_groups} live {live_out} level {l} \
                                 width {cw} shift {shift} relu {relu}"
                            );
                        } else {
                            assert!(dst.as_slice().iter().all(|&v| v == 0x5555), "untouched");
                        }
                    }
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    #[should_panic(expected = "cannot hold the live channels")]
    fn fused_codes_store_refuses_a_plane_short_of_the_live_blocks() {
        let p = packed3(Opcode::Upx2, 1, 2, &[leaf(1), leaf(2)]);
        let ep = NarrowEpilogue::new(10, QFormat::signed(4), false, None).unwrap();
        let live = LiveChannels {
            input: LEAF_CH,
            output: 13,
        };
        let input = plane(LEAF_CH, 4, 18, 0);
        // 13 live pre-shuffle channels are 4 blocks: 4 shuffled channels.
        let mut dst = Tensor::<i16>::zeros(3, 4, 32);
        conv3_blocked_codes(
            SimdLevel::Sse2,
            &mut Lanes::new(1),
            &input,
            &p,
            live,
            &ep,
            true,
            None,
            &mut dst,
        );
    }

    #[test]
    fn narrow_wraps_modularly_instead_of_panicking() {
        // Out-of-license inputs must wrap (mod 2^32), never trap — the
        // executor guarantees it only routes proven instructions here, but
        // the kernel itself is total.
        for &l in &levels() {
            let mut a = vec![i32::MAX; 9];
            let src = vec![i16::MAX; 9];
            ch_mac_narrow(l, &mut a, &src, i32::MAX);
            let want = (i32::MAX as i64
                + ((i32::MAX as i64 * i16::MAX as i64) & 0xFFFF_FFFF) as i32 as i64)
                as i32;
            assert!(a.iter().all(|&v| v == want), "level {l}");
        }
    }

    /// The `i64` oracle of one epilogue element: srcS aligned up, ReLU,
    /// then the executor's `i64` `rescale_code` + `clamp_code`.
    fn epilogue_oracle(sum: i64, relu: bool, acc_frac: i32, q: QFormat) -> i16 {
        let v = if relu { sum.max(0) } else { sum };
        q.clamp_code(ecnn_tensor::qformat::rescale_code(
            v,
            acc_frac,
            q.frac() as i32,
        ))
    }

    /// Final (post-srcS) sums worth pinning for a rounding shift: exact
    /// ties ±half and their neighbours, both ends of `i32`, and values
    /// just past both ends of `q`'s code range.
    fn epilogue_targets(shift: i32, q: QFormat) -> Vec<i64> {
        let half = 1i64 << (shift - 1);
        let unit = 1i64 << shift;
        let (lo, hi) = (q.min_code() as i64, q.max_code() as i64);
        [
            0,
            half,
            -half,
            3 * half,
            -3 * half,
            half - 1,
            1 - half,
            half + 1,
            -half - 1,
            i32::MIN as i64,
            i32::MAX as i64,
            i32::MIN as i64 + 1,
            hi * unit + half,
            hi * unit + half - 1,
            lo * unit - half,
            (hi + 1) * unit,
            (lo - 1) * unit - 1,
        ]
        .into_iter()
        .map(|v| v.clamp(i32::MIN as i64, i32::MAX as i64))
        .collect()
    }

    #[test]
    fn epilogue_matches_rescale_and_clamp_at_every_level() {
        // Widths around every vector length (8 lanes) and many chunks.
        const WIDTHS: [usize; 7] = [1, 7, 8, 15, 16, 17, 130];
        for q in [QFormat::signed(4), QFormat::unsigned(4)] {
            for shift in [1i32, 3, 12, 31] {
                let acc_frac = q.frac() as i32 + shift;
                let targets = epilogue_targets(shift, q);
                for relu in [false, true] {
                    // No srcS, a same-frac srcS, and one shifted up by 5.
                    for srcs_shift in [None, Some(0u32), Some(5)] {
                        let ep = NarrowEpilogue::new(
                            acc_frac,
                            q,
                            relu,
                            srcs_shift.map(|k| acc_frac - k as i32),
                        )
                        .expect("supported shape");
                        for w in WIDTHS {
                            // 3 accumulator channels; the srcS plane has 2
                            // (channel 2 gets none) and a 1-row, 2-column
                            // center-crop border.
                            let (c, h) = (3, 2);
                            let srcs = srcs_shift.map(|_| {
                                Tensor::from_fn(2, h + 2, w + 4, |c, y, x| {
                                    (((c * 53 + y * 29 + x * 7) % 255) as i16) - 128
                                })
                            });
                            let up = |c: usize, y: usize, x: usize| -> i64 {
                                match (&srcs, srcs_shift) {
                                    (Some(p), Some(k)) if c < 2 => {
                                        (p.at(c, y + 1, x + 2) as i64) << k
                                    }
                                    _ => 0,
                                }
                            };
                            let mut rng = (w * 131 + shift as usize) as i64;
                            let acc = Tensor::from_fn(c, h, w, |c, y, x| {
                                let i = (c * h + y) * w + x;
                                rng = (rng * 1103515245 + 12345) % 2147483648;
                                let target = if i % 3 == 2 {
                                    // Spread over a little past the code range.
                                    let span = (q.max_code() as i64 + 3) << shift;
                                    (rng % (2 * span + 1) - span)
                                        .clamp(i32::MIN as i64, i32::MAX as i64)
                                } else {
                                    targets[(i + c) % targets.len()]
                                };
                                // The accumulator that reaches `target` after
                                // the srcS add, when that fits `i32`.
                                i32::try_from(target - up(c, y, x)).unwrap_or(0)
                            });
                            let want = Tensor::from_fn(c, h, w, |c, y, x| {
                                let sum = acc.at(c, y, x) as i64 + up(c, y, x);
                                epilogue_oracle(sum, relu, acc_frac, q)
                            });
                            // Every channel, and a one-channel prefix that
                            // must leave the rest of `dst` as it was.
                            for (l, live) in levels().into_iter().flat_map(|l| [(l, c), (l, 1)]) {
                                let mut dst = Tensor::from_fn(c, h, w, |_, _, _| 0x5555i16);
                                let srcs = srcs.as_ref().map(|p| (p, (1, 2)));
                                epilogue_narrow(l, &ep, &acc, srcs, &mut dst, live);
                                let want = Tensor::from_fn(c, h, w, |c, y, x| {
                                    if c < live {
                                        want.at(c, y, x)
                                    } else {
                                        0x5555
                                    }
                                });
                                assert_eq!(
                                    dst, want,
                                    "level {l} {q} shift {shift} relu {relu} \
                                     srcS {srcs_shift:?} width {w} channels {live}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn epilogue_declines_shapes_the_narrow_path_does_not_cover() {
        let q = QFormat::signed(4);
        assert!(NarrowEpilogue::new(5, q, false, None).is_some());
        assert!(NarrowEpilogue::new(35, q, false, Some(4)).is_some());
        // No rounding shift: equal or up-shifting requantizers.
        assert!(NarrowEpilogue::new(4, q, false, None).is_none());
        assert!(NarrowEpilogue::new(2, q, true, None).is_none());
        assert!(NarrowEpilogue::new(36, q, false, None).is_none());
        // srcS finer than the accumulator, or more than 31 bits coarser.
        assert!(NarrowEpilogue::new(10, q, false, Some(11)).is_none());
        assert!(NarrowEpilogue::new(34, q, false, Some(2)).is_none());
    }

    /// A leaf whose 3×3 weights sit at the `i8` extremes −128 and 127,
    /// with one tap row zeroed (or none, or all) per 4-channel block and
    /// input quad, so the quad masks take every shape.
    fn extreme_leaf(seed: usize) -> LeafParams {
        let mut l = leaf(seed as i64);
        for (i, w) in l.w3.iter_mut().enumerate() {
            let (oc, ic, ky) = (i / (9 * LEAF_CH), i / 9 % LEAF_CH, i % 9 / 3);
            let dead = (oc / OC_BLOCK + ic / 4 + seed) % 5;
            *w = match (dead == ky || dead == 4, (i * 7 + seed) % 3) {
                (true, _) => 0,
                (false, 0) => -128,
                (false, 1) => 127,
                (false, _) => (i % 255) as i16 - 128,
            };
        }
        l
    }

    /// Codes of a `c × h × w` plane at the ends of `lo..=hi`, with a
    /// sprinkle of values between, zero past the `live` channels.
    fn extreme_plane(
        c: usize,
        h: usize,
        w: usize,
        (lo, hi): (i16, i16),
        live: usize,
    ) -> Tensor<i16> {
        Tensor::from_fn(c, h, w, |c, y, x| {
            match (c >= live, (c * 31 + y * 17 + x * 7) % 5) {
                (true, _) => 0,
                (false, 0 | 1) => lo,
                (false, 2 | 3) => hi,
                (false, _) => lo + ((c + y + x) % (hi - lo) as usize) as i16,
            }
        })
    }

    /// The portable model of the byte-lane 3×3 sum: per output, the
    /// offset-corrected bias plus, over the read quads and taps, the
    /// `u8` codes (code + offset) times the `i8` quad-word weights, in
    /// wrapping `i32` — what `vpdpbusd` computes lane by lane.
    fn byte_lane_conv3(input: &Tensor<i16>, p: &PackedConv3, chh: usize, cw: usize) -> Tensor<i32> {
        let b = p.bytes.as_ref().expect("a licensed sweep");
        let mut acc = Tensor::<i32>::zeros(p.out_planes * LEAF_CH, chh, cw);
        for c in 0..acc.channels() {
            let (op_, oc) = (c / LEAF_CH, c % LEAF_CH);
            for y in 0..chh {
                for x in 0..cw {
                    let mut sum = b.bias[c] as i32;
                    for ig in 0..p.in_groups {
                        let block =
                            ((op_ * p.in_groups + ig) * OC_BLOCKS + oc / OC_BLOCK) * IC_PAIRS;
                        for q in 0..PackedConv3::live_quads(b.live_input, ig) {
                            let m = p.block_mask[block + 2 * q] | p.block_mask[block + 2 * q + 1];
                            for k in (0..9).filter(|k| m & (1 << (k / 3)) != 0) {
                                let plane = op_ * p.in_groups + ig;
                                let block = plane * OC_BLOCKS + oc / OC_BLOCK;
                                let i = (q * 9 + k) * OC_BLOCK + oc % OC_BLOCK;
                                let word = p.quads[block * CONV3_BLOCK_QUADS + i];
                                for j in 0..4 {
                                    let code =
                                        input.at(ig * LEAF_CH + 4 * q + j, y + k / 3, x + k % 3);
                                    let u = u8::try_from(code + b.offset).expect("code fits u8");
                                    let w = ecnn_isa::params::quad_byte(word, j);
                                    sum = sum.wrapping_add(i32::from(u).wrapping_mul(w));
                                }
                            }
                        }
                    }
                    *acc.at_mut(c, y, x) = sum;
                }
            }
        }
        acc
    }

    /// Portable: the byte-lane sum over offset codes equals the
    /// pair-word sum over the codes at the code extremes — signed
    /// −128/127 at offset 128, unsigned 0/255 at offset 0 — with `i8`
    /// extreme weights, every tap, sparse masks and dead quads (live
    /// inputs ending inside a quad or a group). On an AVX-512 VNNI host,
    /// the byte kernel also matches that model on every store.
    #[test]
    fn byte_lanes_match_pair_words_at_the_code_extremes() {
        let cases = [
            (Opcode::Conv, 1, 1, 32, 32),
            (Opcode::Conv, 1, 1, 3, 32),
            (Opcode::Conv, 2, 1, 12, 30),
            (Opcode::Conv, 2, 1, 50, 17),
            (Opcode::Upx2, 1, 2, 32, 64),
            (Opcode::Upx2, 1, 2, 20, 12),
        ];
        let avx512 = SimdLevel::Avx512.is_available();
        for (offset, range) in [(128i16, (-128i16, 127i16)), (0, (0, 255))] {
            for (n, &(opcode, in_groups, out_groups, live_in, live_out)) in cases.iter().enumerate()
            {
                let leafs: Vec<_> = (0..in_groups.max(out_groups))
                    .map(|i| extreme_leaf(n + i))
                    .collect();
                let mut p = packed3(opcode, in_groups, out_groups, &leafs);
                let pairs = p.clone();
                p.license_bytes(offset, live_in);
                let live = LiveChannels {
                    input: live_in,
                    output: live_out,
                };
                let widths: &[usize] = if avx512 {
                    &[32, 33, 47, 63, 64, 65, 130]
                } else {
                    &[5, 9]
                };
                for &cw in widths {
                    let chh = 3;
                    let input = extreme_plane(in_groups * LEAF_CH, chh + 2, cw + 2, range, live_in);
                    let want = scalar_conv3(&input, &pairs, chh, cw);
                    let model = byte_lane_conv3(&input, &p, chh, cw);
                    let live_c = |c: usize| c % LEAF_CH / OC_BLOCK < live.blocks(c / LEAF_CH);
                    for c in (0..want.channels()).filter(|&c| live_c(c)) {
                        assert_eq!(
                            model.channel(c),
                            want.channel(c),
                            "model {opcode:?} ch {c} width {cw}"
                        );
                    }
                    if avx512 {
                        check_byte_stores(&input, &p, live, (chh, cw), &model);
                    }
                }
            }
        }
    }

    /// The AVX-512 byte kernel against the byte-lane model on the
    /// `Acc`, `Codes`, `Codes` + srcS at a (1, 2) offset and `Shuffled`
    /// stores.
    fn check_byte_stores(
        input: &Tensor<i16>,
        p: &PackedConv3,
        live: LiveChannels,
        (chh, cw): (usize, usize),
        model: &Tensor<i32>,
    ) {
        let level = SimdLevel::Avx512;
        let at = format!("in {} out {} width {cw}", live.input, live.output);
        let stored = live.output.next_multiple_of(OC_BLOCK);
        let bytes = Some(Swept {
            forked: false,
            bytes: true,
        });
        let mut acc = Tensor::from_fn(model.channels(), chh, cw, |_, _, _| -7);
        let swept = conv3_blocked_narrow(level, &mut Lanes::new(1), input, p, live, &mut acc);
        assert_eq!(swept, bytes, "{at}");
        for c in 0..model.channels() {
            let live_c = c % LEAF_CH / OC_BLOCK < live.blocks(c / LEAF_CH);
            if live_c {
                assert_eq!(acc.channel(c), model.channel(c), "Acc {at} ch {c}");
            }
        }
        let q = QFormat::signed(4);
        let shuffle = p.out_planes > 1;
        let srcs_plane = extreme_plane(LEAF_CH, chh + 3, cw + 4, (-128, 127), LEAF_CH);
        for srcs in [None, Some((&srcs_plane, (1, 2)))]
            .into_iter()
            .filter(|s| !shuffle || s.is_none())
        {
            let ep = NarrowEpilogue::new(20, q, srcs.is_none(), srcs.map(|_| 4)).unwrap();
            let mut codes = Tensor::<i16>::zeros(model.channels(), chh, cw);
            epilogue_narrow(SimdLevel::Scalar, &ep, model, srcs, &mut codes, stored);
            let f = if shuffle { 2 } else { 1 };
            let want = if shuffle {
                codes.pixel_shuffle(2)
            } else {
                codes
            }
            .with_channels(stored / (f * f));
            let mut dst = Tensor::from_fn(stored / (f * f), f * chh, f * cw, |_, _, _| 0x5555i16);
            let swept = conv3_blocked_codes(
                level,
                &mut Lanes::new(1),
                input,
                p,
                live,
                &ep,
                shuffle,
                srcs,
                &mut dst,
            );
            assert_eq!(swept, bytes, "{at}");
            assert_eq!(
                dst,
                want,
                "codes {at} shuffle {shuffle} srcS {}",
                srcs.is_some()
            );
        }
    }

    /// On an AVX-512 VNNI host, the `ER` band finish on byte lanes, at 1
    /// and 4 lanes (the sweep is over the fan-out floor), equals the
    /// byte-lane model's expansion, mid requantizer, 1×1 and final
    /// epilogue with srcS, into codes and into accumulators.
    #[test]
    fn er_bands_on_byte_lanes_match_the_model() {
        if !SimdLevel::Avx512.is_available() {
            return;
        }
        let (chh, cw) = (21, 130);
        let leafs: Vec<_> = (0..2).map(|i| extreme_leaf(40 + i)).collect();
        let conv3: Vec<_> = leafs
            .iter()
            .map(|l| {
                let mut p = PackedConv3::pack_leaf(l, 5, 4 + 7);
                p.license_bytes(128, LEAF_CH);
                p
            })
            .collect();
        let p1 = PackedConv1::pack(&leafs, 5, 11);
        let input = extreme_plane(LEAF_CH, chh + 2, cw + 2, (-128, 127), LEAF_CH);
        let mid_ep = NarrowEpilogue::new(11, QFormat::signed(4), true, None).unwrap();
        let ep = NarrowEpilogue::new(11, QFormat::signed(4), false, Some(4)).unwrap();
        let mut acc1 = Tensor::<i32>::zeros(LEAF_CH, chh, cw);
        for (oc, &b) in p1.bias.iter().enumerate() {
            acc1.channel_mut(oc).fill(b as i32);
        }
        for (li, c3) in conv3.iter().enumerate() {
            let acc3 = byte_lane_conv3(&input, c3, chh, cw);
            let mut mid = Tensor::<i16>::zeros(LEAF_CH, chh, cw);
            epilogue_narrow(SimdLevel::Scalar, &mid_ep, &acc3, None, &mut mid, LEAF_CH);
            for oc in 0..LEAF_CH {
                for &(ic, w) in p1.row(li, oc) {
                    scalar_ch_mac_narrow(acc1.channel_mut(oc), mid.channel(ic as usize), w);
                }
            }
        }
        let srcs = Some((&input, (1, 1)));
        let mut want = Tensor::<i16>::zeros(LEAF_CH, chh, cw);
        epilogue_narrow(SimdLevel::Scalar, &ep, &acc1, srcs, &mut want, LEAF_CH);
        assert!((conv3.len() * LEAF_CH * LEAF_CH * 10 * chh * cw) as u64 >= FAN_OUT_MIN_MACS);
        for lanes in [1, 4] {
            let lanes_ = &mut Lanes::new(lanes);
            let mut dst = Tensor::<i16>::zeros(LEAF_CH, chh, cw);
            let finish = ErFinish::Codes {
                ep: &ep,
                srcs,
                dst: &mut dst,
            };
            let swept = er_blocked_narrow(
                SimdLevel::Avx512,
                lanes_,
                &input,
                &conv3,
                &mid_ep,
                &p1,
                finish,
            );
            assert_eq!(
                swept,
                Some(Swept {
                    forked: lanes > 1,
                    bytes: true
                })
            );
            assert_eq!(dst, want, "codes at {lanes} lanes");
            let mut acc = Tensor::<i32>::zeros(LEAF_CH, chh, cw);
            er_blocked_narrow(
                SimdLevel::Avx512,
                lanes_,
                &input,
                &conv3,
                &mid_ep,
                &p1,
                ErFinish::Acc(&mut acc),
            );
            assert_eq!(acc, acc1, "accumulators at {lanes} lanes");
        }
    }

    /// A band whose codes do not fit the licence's offset (an input
    /// outside its format) runs the pair-word kernel, so the sum stays
    /// exact.
    #[test]
    fn byte_lanes_fall_back_on_codes_outside_the_offset() {
        if !SimdLevel::Avx512.is_available() {
            return;
        }
        let mut p = packed3(Opcode::Conv, 1, 1, &[extreme_leaf(3)]);
        p.license_bytes(128, LEAF_CH);
        let (chh, cw) = (BAND_ROWS + 3, 40);
        // One code past 127 in the second band's rows only.
        let mut input = extreme_plane(LEAF_CH, chh + 2, cw + 2, (-128, 127), LEAF_CH);
        *input.at_mut(5, BAND_ROWS + 1, 7) = 300;
        let want = scalar_conv3(&input, &p, chh, cw);
        let mut acc = Tensor::<i32>::zeros(LEAF_CH, chh, cw);
        let full = LiveChannels::full(1, 1);
        conv3_blocked_narrow(
            SimdLevel::Avx512,
            &mut Lanes::new(1),
            &input,
            &p,
            full,
            &mut acc,
        );
        assert_eq!(acc, want);
    }

    #[test]
    fn quad_words_hold_four_i8_weights() {
        let w = [-128, 127, 0, -1];
        let word = ecnn_isa::params::quad_word(w).expect("fits i8");
        assert_eq!(
            (0..4)
                .map(|k| ecnn_isa::params::quad_byte(word, k))
                .collect::<Vec<_>>(),
            w.map(i32::from)
        );
        assert_eq!(ecnn_isa::params::quad_word([0, 128, 0, 0]), None);
        assert_eq!(ecnn_isa::params::quad_word([-129, 0, 0, 0]), None);
        // A weight past `i8` leaves the sweep without quad words, so no
        // licence can be stamped.
        let mut l = extreme_leaf(1);
        l.w3[100] = 200;
        let mut p = packed3(Opcode::Conv, 1, 1, &[l]);
        assert!(p.quads.is_empty());
        p.license_bytes(128, LEAF_CH);
        assert!(p.bytes.is_none());
    }
}
