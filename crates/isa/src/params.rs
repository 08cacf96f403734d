//! Quantized model parameters and the packed 21-bitstream format
//! (Section 5.2, Fig. 11).
//!
//! Weights are split into 20 parallel bitstreams — 18 for CONV3×3 (one per
//! filter position × output-channel half) and 2 for CONV1×1 — plus one bias
//! bitstream, so the IDU's 21 decoders can decode a leaf-module's 10,240
//! weights in 256 cycles. Each instruction's parameters form one
//! byte-aligned *restart segment* per stream, with its own Huffman table;
//! the instruction's parameter operand carries the segment index (the
//! paper's byte-aligned restart attribute).

use crate::coding::{self, decode_segment, CodingError, EntropyStats, Histogram, MAX_CATEGORY};
use crate::instr::{Instruction, Opcode, LEAF_CH};
use ecnn_model::layer::Op;
use ecnn_model::model::Model;
use ecnn_tensor::conv::align_code;
use ecnn_tensor::QFormat;
use serde::{Deserialize, Serialize};

/// Number of CONV3×3 weight bitstreams (9 filter positions × 2 halves).
pub const W3_STREAMS: usize = 18;
/// Number of CONV1×1 weight bitstreams (2 output-channel halves).
pub const W1_STREAMS: usize = 2;
/// Coefficients per CONV3×3 stream per leaf-module (16 oc × 32 ic).
pub const W3_PER_LEAF: usize = 512;
/// Coefficients per CONV1×1 stream per leaf-module (16 oc × 32 ic).
pub const W1_PER_LEAF: usize = 512;
/// Bias slots per leaf-module (32 CONV3×3 + 32 CONV1×1).
pub const BIAS_PER_LEAF: usize = 64;

fn hw(c: usize) -> usize {
    c.div_ceil(LEAF_CH) * LEAF_CH
}

/// Quantized parameters of one model layer (hardware-padded channel counts).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LayerParams {
    /// CONV3×3 weight codes, layout `[out_hw][in_hw][9]` (empty when the
    /// layer has no 3×3 stage).
    pub w3: Vec<i16>,
    /// CONV3×3 weight format.
    pub w3_q: QFormat,
    /// CONV3×3 bias codes `[out_hw]`.
    pub b3: Vec<i16>,
    /// CONV3×3 bias format.
    pub b3_q: QFormat,
    /// CONV1×1 weight codes `[out_hw][in_hw]` (ER reduction or CONV1 layer).
    pub w1: Vec<i16>,
    /// CONV1×1 weight format.
    pub w1_q: QFormat,
    /// CONV1×1 bias codes `[out_hw]`.
    pub b1: Vec<i16>,
    /// CONV1×1 bias format.
    pub b1_q: QFormat,
    /// Output feature format of this layer.
    pub out_q: QFormat,
    /// ER intermediate (post-ReLU expanded) feature format.
    pub mid_q: QFormat,
}

impl LayerParams {
    /// Expected `w3` length for an op.
    pub fn w3_len(op: &Op) -> usize {
        match *op {
            Op::Conv3x3 { in_c, out_c, .. } => hw(out_c) * hw(in_c) * 9,
            Op::ErModule {
                channels,
                expansion,
            } => hw(channels * expansion) * hw(channels) * 9,
            _ => 0,
        }
    }

    /// Expected `w1` length for an op.
    pub fn w1_len(op: &Op) -> usize {
        match *op {
            Op::Conv1x1 { in_c, out_c, .. } => hw(out_c) * hw(in_c),
            Op::ErModule {
                channels,
                expansion,
            } => hw(channels) * hw(channels * expansion),
            _ => 0,
        }
    }

    /// Validates the parameter-vector lengths against an op, and that
    /// every code lies in the parameter coder's range (`|v| ≤ 2047`,
    /// categories up to [`MAX_CATEGORY`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch or out-of-range code.
    pub fn check(&self, op: &Op) -> Result<(), String> {
        let want_w3 = Self::w3_len(op);
        if self.w3.len() != want_w3 {
            return Err(format!("w3 length {} != {}", self.w3.len(), want_w3));
        }
        let want_w1 = Self::w1_len(op);
        if self.w1.len() != want_w1 {
            return Err(format!("w1 length {} != {}", self.w1.len(), want_w1));
        }
        let want_b3 = if want_w3 > 0 {
            match *op {
                Op::Conv3x3 { out_c, .. } => hw(out_c),
                Op::ErModule {
                    channels,
                    expansion,
                } => hw(channels * expansion),
                _ => 0,
            }
        } else {
            0
        };
        if self.b3.len() != want_b3 {
            return Err(format!("b3 length {} != {}", self.b3.len(), want_b3));
        }
        // The parameter coder's categories stop at MAX_CATEGORY.
        for (name, codes) in [
            ("w3", &self.w3),
            ("b3", &self.b3),
            ("w1", &self.w1),
            ("b1", &self.b1),
        ] {
            if let Some((i, v)) = codes
                .iter()
                .enumerate()
                .find(|&(_, &v)| usize::from(coding::category(v.into())) > MAX_CATEGORY)
            {
                return Err(format!(
                    "{name}[{i}] = {v} is outside the parameter coder's range ±2047"
                ));
            }
        }
        Ok(())
    }
}

/// A model together with all fixed-point parameters and feature formats —
/// the deployable artifact that the compiler lowers to an FBISA program.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QuantizedModel {
    /// The architecture.
    pub model: Model,
    /// Input image format (UQ8 for `[0,1)` 8-bit images).
    pub input_q: QFormat,
    /// Per-layer parameters; `None` for parameter-free ops.
    pub layers: Vec<Option<LayerParams>>,
}

impl QuantizedModel {
    /// Deterministic, well-scaled parameters for testing and benchmarking
    /// without a training run: small patterned weights, Q7 weight formats
    /// and Q4 feature formats.
    pub fn uniform(model: &Model) -> Self {
        let mut layers = Vec::with_capacity(model.len());
        for (li, layer) in model.layers().iter().enumerate() {
            if !layer.op.has_params() {
                layers.push(None);
                continue;
            }
            let w3_len = LayerParams::w3_len(&layer.op);
            let w1_len = LayerParams::w1_len(&layer.op);
            let b3_len = match layer.op {
                Op::Conv3x3 { out_c, .. } => hw(out_c),
                Op::ErModule {
                    channels,
                    expansion,
                } => hw(channels * expansion),
                _ => 0,
            };
            let b1_len = match layer.op {
                Op::Conv1x1 { out_c, .. } => hw(out_c),
                Op::ErModule { channels, .. } => hw(channels),
                _ => 0,
            };
            let pat = |i: usize, m: usize| (((i * 7 + li * 13 + m) % 11) as i16) - 5;
            layers.push(Some(LayerParams {
                w3: (0..w3_len).map(|i| pat(i, 1)).collect(),
                w3_q: QFormat::signed(7),
                b3: (0..b3_len).map(|i| pat(i, 2)).collect(),
                b3_q: QFormat::signed(7),
                w1: (0..w1_len).map(|i| pat(i, 3)).collect(),
                w1_q: QFormat::signed(7),
                b1: (0..b1_len).map(|i| pat(i, 4)).collect(),
                b1_q: QFormat::signed(7),
                out_q: QFormat::signed(4),
                mid_q: QFormat::unsigned(4),
            }));
        }
        Self {
            model: model.clone(),
            input_q: QFormat::unsigned(8),
            layers,
        }
    }

    /// Validates every layer's parameter shapes and code ranges (see
    /// [`LayerParams::check`]).
    ///
    /// # Errors
    ///
    /// Returns `(layer index, message)` for the first invalid layer.
    pub fn check(&self) -> Result<(), (usize, String)> {
        if self.layers.len() != self.model.len() {
            return Err((0, "layer count mismatch".into()));
        }
        for (i, (layer, params)) in self.model.layers().iter().zip(&self.layers).enumerate() {
            match (layer.op.has_params(), params) {
                (true, Some(p)) => p.check(&layer.op).map_err(|e| (i, e))?,
                (true, None) => return Err((i, "missing parameters".into())),
                (false, Some(_)) => return Err((i, "unexpected parameters".into())),
                (false, None) => {}
            }
        }
        Ok(())
    }

    /// Raw (uncompressed) hardware parameter bytes: one byte per weight and
    /// bias slot across all layers.
    pub fn raw_param_bytes(&self) -> usize {
        self.layers
            .iter()
            .flatten()
            .map(|p| p.w3.len() + p.b3.len() + p.w1.len() + p.b1.len())
            .sum()
    }
}

/// Parameters of a single leaf-module, as distributed by the IDU.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LeafParams {
    /// 32×32×9 CONV3×3 weights, layout `[oc][ic][k]` (zeros for CONV1).
    pub w3: Vec<i16>,
    /// 32 CONV3×3 biases (zeros except on each output group's first leaf).
    pub b3: Vec<i16>,
    /// 32×32 CONV1×1 weights (zeros for plain CONV).
    pub w1: Vec<i16>,
    /// 32 CONV1×1 biases (zeros except on the first leaf).
    pub b1: Vec<i16>,
}

impl LeafParams {
    /// An all-zero leaf.
    pub fn zero() -> Self {
        Self {
            w3: vec![0; LEAF_CH * LEAF_CH * 9],
            b3: vec![0; LEAF_CH],
            w1: vec![0; LEAF_CH * LEAF_CH],
            b1: vec![0; LEAF_CH],
        }
    }
}

/// Plan-time packed kernel parameters of one instruction: everything the
/// flat-slice execution micro-kernels need, prepared once when a program
/// is planned and reused across every frame.
///
/// * weights are packed once into pair words (two input channels' `i16`
///   weights per `i32`) in the order the register-blocked SIMD kernels
///   stream them; the row kernels decode single-pair taps from the same
///   table; the 3×3 stages also pack quad words (four `i8` weights per
///   `i32`) for the byte-lane kernel when every weight fits `i8`;
/// * biases are pre-aligned to the accumulator's fractional position
///   (`prod_frac`), already summed across leaf-modules where the datapath
///   sums them;
/// * all-zero tap rows and channel pairs carry a zero mask bit so the
///   kernels skip them without inspecting the weights again.
#[derive(Clone, Debug, PartialEq)]
pub struct PackedKernelParams {
    /// 3×3 stages: one entry for `CONV`/`UPX2`/`DNX2`, one per leaf for
    /// `ER` (each leaf convolves its own expansion plane), empty for
    /// `CONV1`.
    pub conv3: Vec<PackedConv3>,
    /// 1×1 stage (`ER` reduction / `CONV1`), when the opcode has one.
    pub conv1: Option<PackedConv1>,
    /// Verifier-licensed narrow accumulation: `true` only when the static
    /// interval analysis (`crate::verify`) proved every conv-stage
    /// accumulator value of this instruction fits an `i32`
    /// (`InstrRange::narrow_acc`), so SIMD kernels may run `i32` lanes
    /// instead of the packed kernels' exact `i64` accumulators.
    /// [`PackedKernelParams::pack`] always leaves this `false`; the
    /// planner stamps it from a verify report — no proof, no narrow path.
    pub narrow_acc: bool,
}

impl PackedKernelParams {
    /// Packs one instruction's leaf parameters.
    ///
    /// # Panics
    ///
    /// Panics if `ins` fails [`Instruction::check`]-level invariants (a
    /// 1×1/ER opcode without its formats) — callers pack instructions that
    /// already passed compilation.
    pub fn pack(ins: &Instruction, leafs: &[LeafParams]) -> Self {
        let prod3 = ins.q.w3.frac() as i32 + ins.q.src.frac() as i32;
        let b3_frac = ins.q.b3.frac() as i32;
        match ins.opcode {
            Opcode::Conv | Opcode::Dnx2 | Opcode::Upx2 => Self {
                conv3: vec![PackedConv3::pack(ins, leafs)],
                conv1: None,
                narrow_acc: false,
            },
            Opcode::Er => {
                let w1q = ins.q.w1.expect("ER carries 1x1 formats");
                let b1q = ins.q.b1.expect("ER carries 1x1 formats");
                let midq = ins.q.mid.expect("ER carries a mid format");
                let prod1 = w1q.frac() as i32 + midq.frac() as i32;
                Self {
                    conv3: leafs
                        .iter()
                        .map(|l| PackedConv3::pack_leaf(l, b3_frac, prod3))
                        .collect(),
                    conv1: Some(PackedConv1::pack(leafs, b1q.frac() as i32, prod1)),
                    narrow_acc: false,
                }
            }
            Opcode::Conv1 => {
                let w1q = ins.q.w1.expect("CONV1 carries 1x1 formats");
                let b1q = ins.q.b1.expect("CONV1 carries 1x1 formats");
                let prod1 = w1q.frac() as i32 + ins.q.src.frac() as i32;
                Self {
                    conv3: Vec::new(),
                    conv1: Some(PackedConv1::pack(leafs, b1q.frac() as i32, prod1)),
                    narrow_acc: false,
                }
            }
        }
    }

    /// Approximate heap footprint of the packed parameters, in bytes.
    pub fn bytes(&self) -> usize {
        self.conv3
            .iter()
            .map(|c| {
                c.bias.len() * 8
                    + c.words.len() * 4
                    + c.mask.len()
                    + c.block_mask.len()
                    + c.quads.len() * 4
                    + c.quad_sums.len() * 4
                    + c.bytes.as_ref().map_or(0, |b| b.bias.len() * 8)
            })
            .sum::<usize>()
            + self.conv1.as_ref().map_or(0, |c| {
                c.bias.len() * 8
                    + c.nz.len() * 8
                    + c.nz_idx.len() * 4
                    + c.words.len() * 4
                    + c.block_mask.len()
            })
    }
}

/// Output channels one register-blocked kernel step computes together.
pub const OC_BLOCK: usize = 4;
/// 4-channel output blocks per leaf-module.
pub const OC_BLOCKS: usize = LEAF_CH / OC_BLOCK;
/// Input-channel pairs `(2p, 2p + 1)` per leaf-module.
pub const IC_PAIRS: usize = LEAF_CH / 2;
/// Pair words of one `(plane, output block)` of a [`PackedConv3`]:
/// `IC_PAIRS` pairs × 9 taps × `OC_BLOCK` output channels.
pub const CONV3_BLOCK_WORDS: usize = IC_PAIRS * 9 * OC_BLOCK;
/// Input-channel quads `4q..4q + 4` per leaf-module.
pub const IC_QUADS: usize = LEAF_CH / 4;
/// Quad words of one `(plane, output block)` of a [`PackedConv3`]:
/// `IC_QUADS` quads × 9 taps × `OC_BLOCK` output channels.
pub const CONV3_BLOCK_QUADS: usize = IC_QUADS * 9 * OC_BLOCK;

/// Packs the weights of input channels `2p` (low half) and `2p + 1`
/// (high half) into one 32-bit word, the operand layout of a
/// pairwise multiply-add (`vpmaddwd`) against interleaved samples.
#[inline]
pub fn pair_word(even: i16, odd: i16) -> i32 {
    (u32::from(even as u16) | (u32::from(odd as u16) << 16)) as i32
}

/// The weight of input channel `2p + half` stored in a [`pair_word`].
#[inline]
pub fn pair_half(word: i32, half: usize) -> i32 {
    (word >> (16 * half)) as i16 as i32
}

/// Packs the weights of input channels `4q..4q + 4` (channel `4q` in the
/// low byte) into one 32-bit word of `i8`s, the signed operand of a
/// byte multiply-add (`vpdpbusd`) against quad-interleaved `u8` samples;
/// `None` when a weight does not fit `i8`.
#[inline]
pub fn quad_word(w: [i16; 4]) -> Option<i32> {
    let mut bytes = [0u8; 4];
    for (b, &v) in bytes.iter_mut().zip(&w) {
        *b = i8::try_from(v).ok()? as u8;
    }
    Some(i32::from_le_bytes(bytes))
}

/// The weight of input channel `4q + k` stored in a [`quad_word`].
#[inline]
pub fn quad_byte(word: i32, k: usize) -> i32 {
    (word >> (8 * k)) as i8 as i32
}

/// The byte-lane licence of a [`PackedConv3`], which the planner stamps
/// once it has proven the sweep's source codes fit `u8` after `offset`:
/// the kernel then reads `code + offset` as unsigned bytes, and
/// `bias` already subtracts what the offset adds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ByteLanes {
    /// Added to every source code: 128 for signed codes of at most 8
    /// bits, 0 for unsigned ones.
    pub offset: i16,
    /// The leading live source channels the sweep reads, in whole quads
    /// (see [`PackedConv3::license_bytes`]).
    pub live_input: usize,
    /// Per output channel, the pre-aligned bias minus `offset` times the
    /// sum of every weight the kernel multiplies: all taps of the quads
    /// holding the live input channels.
    pub bias: Vec<i64>,
}

/// One packed 3×3 sweep: `out_planes × in_groups` leaf filters as
/// pair-packed words, pre-aligned biases, and zero-skip masks.
#[derive(Clone, Debug, PartialEq)]
pub struct PackedConv3 {
    /// Output planes the sweep produces (`out_groups` for `UPX2`, else 1).
    pub out_planes: usize,
    /// 32-channel input groups the sweep reads.
    pub in_groups: usize,
    /// `out_planes × LEAF_CH` biases aligned to the 3×3 product format
    /// (summed across leaf-modules except for `UPX2`, whose leaves write
    /// distinct pre-shuffle planes).
    pub bias: Vec<i64>,
    /// The one copy of the weights, as [`pair_word`]s in the order the
    /// register-blocked kernels stream them: index
    /// `(((plane · OC_BLOCKS + ocb) · IC_PAIRS + p) · 9 + ky · 3 + kx) ·
    /// OC_BLOCK + o` holds the taps of output channel `ocb · OC_BLOCK + o`
    /// against input channels `2p`, `2p + 1`, with
    /// `plane = op · in_groups + ig`. [`PackedConv3::taps`] decodes
    /// single-pair taps from it for the row kernels.
    pub words: Vec<i32>,
    /// Per `(plane, oc, ic)` channel pair: low 3 bits flag tap rows `ky`
    /// with any nonzero tap. A zero byte skips the pair entirely.
    pub mask: Vec<u8>,
    /// Per `(plane, ocb, p)`: the OR of [`PackedConv3::mask`] over the
    /// block's 4 output × 2 input channels — the register-blocked
    /// kernels' zero-skip granularity.
    pub block_mask: Vec<u8>,
    /// The same weights as [`quad_word`]s for the byte-lane kernel,
    /// index `(((plane · OC_BLOCKS + ocb) · IC_QUADS + q) · 9 + ky · 3 +
    /// kx) · OC_BLOCK + o`; empty when a weight does not fit `i8`.
    pub quads: Vec<i32>,
    /// Per `(plane, oc, q)`: the sum of the 36 weights of output channel
    /// `oc` against input quad `q`, all taps (the byte-lane licence's
    /// offset correction); empty with [`PackedConv3::quads`].
    pub quad_sums: Vec<i32>,
    /// The byte-lane licence: `None` until the planner stamps one
    /// ([`PackedConv3::license_bytes`]).
    pub bytes: Option<ByteLanes>,
}

impl PackedConv3 {
    /// Packs the 3×3 stage of a `CONV`/`UPX2`/`DNX2` instruction.
    pub fn pack(ins: &Instruction, leafs: &[LeafParams]) -> Self {
        let out_planes = if ins.opcode == Opcode::Upx2 {
            ins.out_groups
        } else {
            1
        };
        let in_groups = ins.in_groups;
        let prod3 = ins.q.w3.frac() as i32 + ins.q.src.frac() as i32;
        let b3_frac = ins.q.b3.frac() as i32;
        let mut packed = Self::empty(out_planes, in_groups);
        for op_ in 0..out_planes {
            for oc in 0..LEAF_CH {
                packed.bias[op_ * LEAF_CH + oc] = if ins.opcode == Opcode::Upx2 {
                    align_code(leafs[op_].b3[oc] as i64, b3_frac, prod3)
                } else {
                    leafs
                        .iter()
                        .map(|l| align_code(l.b3[oc] as i64, b3_frac, prod3))
                        .sum()
                };
            }
            for ig in 0..in_groups {
                let w = if ins.opcode == Opcode::Upx2 {
                    &leafs[op_].w3
                } else {
                    &leafs[ig].w3
                };
                packed.fill_plane(op_ * in_groups + ig, w);
            }
        }
        packed.fill_quads();
        packed
    }

    /// Packs one ER leaf's expansion filter (a single 32→32 plane) with
    /// its own bias vector.
    pub fn pack_leaf(leaf: &LeafParams, b3_frac: i32, prod3: i32) -> Self {
        let mut packed = Self::empty(1, 1);
        for oc in 0..LEAF_CH {
            packed.bias[oc] = align_code(leaf.b3[oc] as i64, b3_frac, prod3);
        }
        packed.fill_plane(0, &leaf.w3);
        packed.fill_quads();
        packed
    }

    fn empty(out_planes: usize, in_groups: usize) -> Self {
        let planes = out_planes * in_groups;
        Self {
            out_planes,
            in_groups,
            bias: vec![0; out_planes * LEAF_CH],
            words: vec![0; planes * OC_BLOCKS * CONV3_BLOCK_WORDS],
            mask: vec![0; planes * LEAF_CH * LEAF_CH],
            block_mask: vec![0; planes * OC_BLOCKS * IC_PAIRS],
            quads: vec![0; planes * OC_BLOCKS * CONV3_BLOCK_QUADS],
            quad_sums: vec![0; planes * LEAF_CH * IC_QUADS],
            bytes: None,
        }
    }

    /// Index into [`PackedConv3::words`] of tap `(ky, kx)` of output
    /// channel `oc` against input pair `p`.
    #[inline]
    fn word_index(plane: usize, oc: usize, p: usize, ky: usize, kx: usize) -> usize {
        let block = plane * OC_BLOCKS + oc / OC_BLOCK;
        block * CONV3_BLOCK_WORDS + ((p * 9 + ky * 3 + kx) * OC_BLOCK) + oc % OC_BLOCK
    }

    /// Pair-packs one leaf filter (layout `[oc][ic][9]`) into plane
    /// `plane`'s slots, flagging nonzero tap rows, and sums each quad's
    /// weights; a weight outside `i8` drops the quad words of every
    /// plane.
    fn fill_plane(&mut self, plane: usize, w3: &[i16]) {
        if w3.iter().any(|&v| v != v as i8 as i16) {
            self.quads = Vec::new();
            self.quad_sums = Vec::new();
        }
        // Channels `4q..4q + 4` of output channel `oc` are 36 contiguous
        // weights, `oc`-major like the sums.
        let sums = self
            .quad_sums
            .chunks_exact_mut(LEAF_CH * IC_QUADS)
            .nth(plane);
        for (sum, w) in sums.into_iter().flatten().zip(w3.chunks_exact(4 * 9)) {
            *sum = w.iter().map(|&v| i32::from(v)).sum();
        }
        for oc in 0..LEAF_CH {
            let tap = |ic: usize, k: usize| w3[(oc * LEAF_CH + ic) * 9 + k];
            for p in 0..IC_PAIRS {
                for k in 0..9 {
                    self.words[Self::word_index(plane, oc, p, k / 3, k % 3)] =
                        pair_word(tap(2 * p, k), tap(2 * p + 1, k));
                }
            }
            for ic in 0..LEAF_CH {
                let taps = &w3[(oc * LEAF_CH + ic) * 9..][..9];
                let m = (0..3)
                    .filter(|&ky| taps[ky * 3..ky * 3 + 3].iter().any(|&v| v != 0))
                    .fold(0u8, |m, ky| m | 1 << ky);
                self.mask[(plane * LEAF_CH + oc) * LEAF_CH + ic] = m;
                self.block_mask[(plane * OC_BLOCKS + oc / OC_BLOCK) * IC_PAIRS + ic / 2] |= m;
            }
        }
    }

    /// Fills the quad words from the pair words, once every plane is
    /// filled and kept them (every weight fits `i8`): quad `q` of a tap
    /// is the low bytes of pairs `2q` and `2q + 1`, the same
    /// [`quad_word`] of channels `4q..4q + 4`.
    fn fill_quads(&mut self) {
        if self.quads.is_empty() {
            return;
        }
        let pairs = self.words.chunks_exact(CONV3_BLOCK_WORDS);
        for (quads, pairs) in self.quads.chunks_exact_mut(CONV3_BLOCK_QUADS).zip(pairs) {
            let taps = 9 * OC_BLOCK;
            for (q, out) in quads.chunks_exact_mut(taps).enumerate() {
                let (even, odd) = (
                    &pairs[2 * q * taps..][..taps],
                    &pairs[(2 * q + 1) * taps..][..taps],
                );
                for ((o, &a), &b) in out.iter_mut().zip(even).zip(odd) {
                    let (a, b) = (a as u32, b as u32);
                    *o = (a & 0xFF | (a >> 8) & 0xFF00 | (b & 0xFF) << 16 | (b << 8) & 0xFF00_0000)
                        as i32;
                }
            }
        }
    }

    /// The 3 horizontal taps of row `ky` for channel pair `(oc, ic)` of
    /// `plane`, decoded from the pair words.
    #[inline]
    pub fn taps(&self, plane: usize, ky: usize, oc: usize, ic: usize) -> [i32; 3] {
        [0, 1, 2].map(|kx| {
            pair_half(
                self.words[Self::word_index(plane, oc, ic / 2, ky, kx)],
                ic % 2,
            )
        })
    }

    /// Nonzero-tap-row mask of channel pair `(oc, ic)` of `plane`.
    #[inline]
    pub fn row_mask(&self, plane: usize, oc: usize, ic: usize) -> u8 {
        self.mask[plane * LEAF_CH * LEAF_CH + oc * LEAF_CH + ic]
    }

    /// Input quads of source group `ig` a sweep over the leading
    /// `live_input` source channels reads: the quads holding a live
    /// channel.
    #[inline]
    pub fn live_quads(live_input: usize, ig: usize) -> usize {
        live_input
            .saturating_sub(ig * LEAF_CH)
            .min(LEAF_CH)
            .div_ceil(4)
    }

    /// Stamps the byte-lane licence for source codes read as `code +
    /// offset` over the leading `live_input` channels: every output
    /// channel's bias loses `offset` times the sum of the weights of the
    /// quads [`PackedConv3::live_quads`] reads, so the kernel's sum over
    /// offset codes equals the sum over the codes. Dead channels inside
    /// a read quad carry zero codes, which read as `offset`, and their
    /// weights are in the sum; quads past them are skipped by kernel and
    /// sum alike. Leaves the licence `None` when the weights do not fit
    /// `i8` (no quad words).
    pub fn license_bytes(&mut self, offset: i16, live_input: usize) {
        if self.quads.is_empty() {
            return;
        }
        let mut bias = self.bias.clone();
        for (c, b) in bias.iter_mut().enumerate() {
            let (op_, oc) = (c / LEAF_CH, c % LEAF_CH);
            for ig in 0..self.in_groups {
                let sums =
                    &self.quad_sums[((op_ * self.in_groups + ig) * LEAF_CH + oc) * IC_QUADS..];
                let sum: i64 = sums[..Self::live_quads(live_input, ig)]
                    .iter()
                    .map(|&v| i64::from(v))
                    .sum();
                *b -= i64::from(offset) * sum;
            }
        }
        self.bytes = Some(ByteLanes {
            offset,
            live_input,
            bias,
        });
    }
}

/// One packed 1×1 stage: pre-aligned summed biases plus, per
/// `(leaf, out_channel)`, the compacted list of nonzero input columns —
/// the plan-time form of the executor's old per-MAC zero test — and the
/// same weights as [`pair_word`]s for the register-blocked kernels.
#[derive(Clone, Debug, PartialEq)]
pub struct PackedConv1 {
    /// Leaf-modules packed.
    pub leaves: usize,
    /// `LEAF_CH` biases aligned to the 1×1 product format, summed across
    /// leaves (the ADDE accumulates every leaf into one output group).
    pub bias: Vec<i64>,
    /// Row starts into [`PackedConv1::nz`], indexed `leaf · LEAF_CH + oc`,
    /// with a trailing sentinel.
    pub nz_idx: Vec<u32>,
    /// Compacted `(in_channel, widened weight)` pairs.
    pub nz: Vec<(u16, i32)>,
    /// Pair words, index `((leaf · OC_BLOCKS + ocb) · IC_PAIRS + p) ·
    /// OC_BLOCK + o`: output channel `ocb · OC_BLOCK + o` against input
    /// channels `2p`, `2p + 1`.
    pub words: Vec<i32>,
    /// Per `(leaf, ocb, p)`: nonzero when any of the block's 4 × 2
    /// weights is nonzero.
    pub block_mask: Vec<u8>,
}

impl PackedConv1 {
    /// Packs the 1×1 weights/biases of `leafs`, aligning biases from
    /// `b1_frac` to `prod_frac`.
    pub fn pack(leafs: &[LeafParams], b1_frac: i32, prod_frac: i32) -> Self {
        let mut bias = vec![0i64; LEAF_CH];
        for (oc, b) in bias.iter_mut().enumerate() {
            *b = leafs
                .iter()
                .map(|l| align_code(l.b1[oc] as i64, b1_frac, prod_frac))
                .sum();
        }
        let mut nz_idx = Vec::with_capacity(leafs.len() * LEAF_CH + 1);
        nz_idx.push(0u32);
        let mut nz = Vec::new();
        let mut words = vec![0i32; leafs.len() * LEAF_CH * IC_PAIRS];
        let mut block_mask = vec![0u8; leafs.len() * OC_BLOCKS * IC_PAIRS];
        for (li, leaf) in leafs.iter().enumerate() {
            for oc in 0..LEAF_CH {
                for ic in 0..LEAF_CH {
                    let v = leaf.w1[oc * LEAF_CH + ic];
                    if v != 0 {
                        nz.push((ic as u16, v as i32));
                    }
                }
                nz_idx.push(nz.len() as u32);
                for p in 0..IC_PAIRS {
                    let (even, odd) = (
                        leaf.w1[oc * LEAF_CH + 2 * p],
                        leaf.w1[oc * LEAF_CH + 2 * p + 1],
                    );
                    let block = (li * OC_BLOCKS + oc / OC_BLOCK) * IC_PAIRS + p;
                    words[block * OC_BLOCK + oc % OC_BLOCK] = pair_word(even, odd);
                    block_mask[block] |= u8::from(even != 0 || odd != 0);
                }
            }
        }
        Self {
            leaves: leafs.len(),
            bias,
            nz_idx,
            nz,
            words,
            block_mask,
        }
    }

    /// The nonzero `(in_channel, weight)` columns of output channel `oc`
    /// of leaf `leaf`.
    #[inline]
    pub fn row(&self, leaf: usize, oc: usize) -> &[(u16, i32)] {
        let i = leaf * LEAF_CH + oc;
        &self.nz[self.nz_idx[i] as usize..self.nz_idx[i + 1] as usize]
    }
}

/// Offsets of one instruction's restart segment in every stream.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentInfo {
    /// Leaf-modules in the segment.
    pub leaf_count: usize,
    /// Byte offset in each CONV3×3 stream.
    pub w3_offset: usize,
    /// Byte offset in each CONV1×1 stream.
    pub w1_offset: usize,
    /// Byte offset in the bias stream.
    pub bias_offset: usize,
    /// Whether the segment carries 3×3 coefficients.
    pub has_w3: bool,
    /// Whether the segment carries 1×1 coefficients.
    pub has_w1: bool,
}

/// One restart segment's values of a group of synchronized streams,
/// gathered in one walk with each stream's category histogram counted on
/// the way.
struct Gather<const N: usize> {
    values: [Vec<i16>; N],
    hists: [Histogram; N],
}

impl<const N: usize> Gather<N> {
    /// Empty buffers for `N` streams of `per_stream` values each.
    fn new(per_stream: usize) -> Self {
        Self {
            values: std::array::from_fn(|_| Vec::with_capacity(per_stream)),
            hists: [Histogram::default(); N],
        }
    }

    /// Appends `v` to stream `s`.
    ///
    /// # Panics
    ///
    /// Panics if `|v| ≥ 2048`, which the coder cannot code.
    #[inline]
    fn push(&mut self, s: usize, v: i16) {
        coding::count(&mut self.hists[s], v);
        self.values[s].push(v);
    }

    /// Encodes each stream's segment onto the end of its stream (`N` of
    /// them), pads every segment to the longest one's length (the streams
    /// stay synchronized at segment boundaries), and adds the histograms
    /// to `total`.
    fn encode_synchronized(self, streams: &mut [Vec<u8>], total: &mut Histogram) {
        for ((stream, values), h) in streams.iter_mut().zip(&self.values).zip(&self.hists) {
            coding::encode_counted(values, h, stream);
            for (t, n) in total.iter_mut().zip(h) {
                *t += n;
            }
        }
        let end = streams.iter().map(Vec::len).max().unwrap_or(0);
        for stream in streams {
            stream.resize(end, 0);
        }
    }
}

/// The packed 21-stream parameter image plus a segment directory.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PackedParams {
    /// 18 CONV3×3 weight streams, padded to equal per-segment lengths.
    pub w3_streams: Vec<Vec<u8>>,
    /// 2 CONV1×1 weight streams.
    pub w1_streams: Vec<Vec<u8>>,
    /// The bias stream.
    pub bias_stream: Vec<u8>,
    /// Per-instruction segment directory (indexed by `param_restart`).
    pub segments: Vec<SegmentInfo>,
    /// Aggregate entropy-coding statistics over all weight coefficients.
    pub stats: EntropyStats,
}

impl PackedParams {
    /// Packs per-instruction leaf parameters into the 21 synchronized
    /// streams. `instr_leafs[i]` are instruction `i`'s leaf-modules in
    /// issue order; `kinds[i]` says which engines the instruction uses.
    pub fn pack(instr_leafs: &[Vec<LeafParams>], kinds: &[(bool, bool)]) -> Self {
        assert_eq!(instr_leafs.len(), kinds.len());
        let mut w3_streams: Vec<Vec<u8>> = vec![Vec::new(); W3_STREAMS];
        let mut w1_streams: Vec<Vec<u8>> = vec![Vec::new(); W1_STREAMS];
        let mut bias_stream: Vec<u8> = Vec::new();
        let mut segments = Vec::with_capacity(instr_leafs.len());
        // Category histogram over every coefficient, for the stats.
        let mut total: Histogram = Default::default();

        for (leafs, &(has_w3, has_w1)) in instr_leafs.iter().zip(kinds) {
            segments.push(SegmentInfo {
                leaf_count: leafs.len(),
                w3_offset: w3_streams[0].len(),
                w1_offset: w1_streams[0].len(),
                bias_offset: bias_stream.len(),
                has_w3,
                has_w1,
            });
            // One walk over each leaf's weights in memory order deals
            // every value to its stream: CONV3×3 filter `f = oc·32 + ic`,
            // tap `p`, goes to stream `2p + oc/16`; CONV1×1 weight
            // `oc·32 + ic` to stream `oc/16`. Within a stream, values stay
            // in (leaf, oc, ic) order.
            if has_w3 {
                let mut g = Gather::<W3_STREAMS>::new(leafs.len() * W3_PER_LEAF);
                for leaf in leafs {
                    for (f, taps) in leaf.w3.chunks_exact(9).enumerate() {
                        let half = f / (16 * LEAF_CH);
                        for (p, &v) in taps.iter().enumerate() {
                            g.push(2 * p + half, v);
                        }
                    }
                }
                g.encode_synchronized(&mut w3_streams, &mut total);
            }
            if has_w1 {
                let mut g = Gather::<W1_STREAMS>::new(leafs.len() * W1_PER_LEAF);
                for leaf in leafs {
                    for (i, &v) in leaf.w1.iter().enumerate() {
                        g.push(i / (16 * LEAF_CH), v);
                    }
                }
                g.encode_synchronized(&mut w1_streams, &mut total);
            }
            let mut g = Gather::<1>::new(leafs.len() * BIAS_PER_LEAF);
            for leaf in leafs {
                for &v in leaf.b3.iter().chain(&leaf.b1) {
                    g.push(0, v);
                }
            }
            g.encode_synchronized(std::slice::from_mut(&mut bias_stream), &mut total);
        }

        let stats = coding::stats_of(&total);
        Self {
            w3_streams,
            w1_streams,
            bias_stream,
            segments,
            stats,
        }
    }

    /// Decodes instruction `restart`'s leaf parameters (the IDU's job).
    ///
    /// # Errors
    ///
    /// Returns [`CodingError`] on malformed streams or a bad index.
    pub fn unpack(&self, restart: usize) -> Result<Vec<LeafParams>, CodingError> {
        let seg = self.segments.get(restart).ok_or(CodingError::BadTable)?;
        let n = seg.leaf_count;
        let mut leafs = vec![LeafParams::zero(); n];
        if seg.has_w3 {
            for s in 0..W3_STREAMS {
                let (p, half) = (s / 2, s % 2);
                let bytes = &self.w3_streams[s][seg.w3_offset..];
                let (vals, _) = decode_segment(bytes, n * W3_PER_LEAF)?;
                let mut it = vals.into_iter();
                for leaf in leafs.iter_mut() {
                    for oc in half * 16..half * 16 + 16 {
                        for ic in 0..LEAF_CH {
                            leaf.w3[(oc * LEAF_CH + ic) * 9 + p] =
                                it.next().expect("length checked");
                        }
                    }
                }
            }
        }
        if seg.has_w1 {
            for half in 0..W1_STREAMS {
                let bytes = &self.w1_streams[half][seg.w1_offset..];
                let (vals, _) = decode_segment(bytes, n * W1_PER_LEAF)?;
                let mut it = vals.into_iter();
                for leaf in leafs.iter_mut() {
                    for oc in half * 16..half * 16 + 16 {
                        for ic in 0..LEAF_CH {
                            leaf.w1[oc * LEAF_CH + ic] = it.next().expect("length checked");
                        }
                    }
                }
            }
        }
        {
            let bytes = &self.bias_stream[seg.bias_offset..];
            let (vals, _) = decode_segment(bytes, n * BIAS_PER_LEAF)?;
            let mut it = vals.into_iter();
            for leaf in leafs.iter_mut() {
                for b in leaf.b3.iter_mut() {
                    *b = it.next().expect("length checked");
                }
                for b in leaf.b1.iter_mut() {
                    *b = it.next().expect("length checked");
                }
            }
        }
        Ok(leafs)
    }

    /// Total parameter-memory bytes occupied (all 21 streams).
    pub fn total_bytes(&self) -> usize {
        self.w3_streams.iter().map(Vec::len).sum::<usize>()
            + self.w1_streams.iter().map(Vec::len).sum::<usize>()
            + self.bias_stream.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecnn_model::ernet::{ErNetSpec, ErNetTask};

    fn leaf_with_pattern(seed: i16) -> LeafParams {
        let mut l = LeafParams::zero();
        for (i, w) in l.w3.iter_mut().enumerate() {
            *w = ((i as i16).wrapping_mul(31).wrapping_add(seed) % 17) - 8;
        }
        for (i, w) in l.w1.iter_mut().enumerate() {
            *w = ((i as i16).wrapping_mul(13).wrapping_add(seed) % 9) - 4;
        }
        for (i, b) in l.b3.iter_mut().enumerate() {
            *b = ((i as i16).wrapping_add(seed)) % 5 - 2;
        }
        for (i, b) in l.b1.iter_mut().enumerate() {
            *b = ((i as i16).wrapping_mul(3).wrapping_add(seed)) % 7 - 3;
        }
        l
    }

    #[test]
    fn pack_unpack_round_trip() {
        let instrs = vec![
            vec![leaf_with_pattern(1)],
            vec![leaf_with_pattern(2), leaf_with_pattern(3)],
            vec![leaf_with_pattern(4); 4],
        ];
        let kinds = vec![(true, false), (true, true), (true, false)];
        let packed = PackedParams::pack(&instrs, &kinds);
        for (i, want) in instrs.iter().enumerate() {
            let got = packed.unpack(i).unwrap();
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want) {
                assert_eq!(g.w3, w.w3, "instr {i} w3");
                assert_eq!(g.b3, w.b3, "instr {i} b3");
                if kinds[i].1 {
                    assert_eq!(g.w1, w.w1, "instr {i} w1");
                    assert_eq!(g.b1, w.b1, "instr {i} b1");
                }
            }
        }
    }

    #[test]
    fn streams_stay_synchronized() {
        let instrs = vec![vec![leaf_with_pattern(5)], vec![leaf_with_pattern(6)]];
        let kinds = vec![(true, false), (true, false)];
        let packed = PackedParams::pack(&instrs, &kinds);
        let len0 = packed.w3_streams[0].len();
        for s in &packed.w3_streams {
            assert_eq!(s.len(), len0, "all 18 streams must stay in lockstep");
        }
        // Second segment's offset equals the first segment's padded length.
        assert_eq!(packed.segments[1].w3_offset, len0 / 2);
    }

    #[test]
    fn unpack_bad_index_fails() {
        let packed = PackedParams::pack(&[], &[]);
        assert!(packed.unpack(0).is_err());
    }

    #[test]
    fn uniform_model_params_validate() {
        let m = ErNetSpec::new(ErNetTask::Dn, 3, 2, 1).build().unwrap();
        let qm = QuantizedModel::uniform(&m);
        qm.check().unwrap();
        // head + 3 ER + bodyend + tail have parameters; no shuffles here.
        assert_eq!(qm.layers.iter().flatten().count(), 6);
    }

    #[test]
    fn raw_param_bytes_scale_with_expansion() {
        let small =
            QuantizedModel::uniform(&ErNetSpec::new(ErNetTask::Dn, 3, 1, 0).build().unwrap());
        let big = QuantizedModel::uniform(&ErNetSpec::new(ErNetTask::Dn, 3, 4, 0).build().unwrap());
        assert!(big.raw_param_bytes() > 3 * small.raw_param_bytes() / 2);
    }

    #[test]
    fn layer_params_check_catches_bad_lengths() {
        let m = ErNetSpec::new(ErNetTask::Dn, 1, 1, 0).build().unwrap();
        let mut qm = QuantizedModel::uniform(&m);
        // Corrupt the head conv's w3 length.
        if let Some(p) = qm.layers.iter_mut().flatten().next() {
            p.w3.pop();
        }
        assert!(qm.check().is_err());
    }

    #[test]
    fn layer_params_check_rejects_codes_the_coder_cannot_code() {
        let m = ErNetSpec::new(ErNetTask::Dn, 1, 1, 0).build().unwrap();
        let mut qm = QuantizedModel::uniform(&m);
        let (li, p) = (qm.layers.iter_mut().enumerate())
            .find_map(|(i, p)| p.as_mut().map(|p| (i, p)))
            .unwrap();
        p.b3[0] = 2047;
        assert!(qm.check().is_ok(), "category 11 is codable");
        qm.layers[li].as_mut().unwrap().b3[0] = -2048;
        let (at, msg) = qm.check().unwrap_err();
        assert_eq!(at, li);
        assert!(msg.contains("b3[0] = -2048"), "{msg}");
    }

    #[test]
    fn compression_ratio_reported() {
        let instrs = vec![vec![leaf_with_pattern(9); 2]];
        let packed = PackedParams::pack(&instrs, &[(true, true)]);
        assert!(packed.stats.compression_ratio > 1.0);
        assert!(packed.total_bytes() > 0);
    }

    use crate::instr::{FeatLoc, QSpec};
    use ecnn_model::model::InferenceKind;

    fn conv_instr(opcode: Opcode, in_groups: usize, out_groups: usize) -> Instruction {
        Instruction {
            opcode,
            inference: InferenceKind::TruncatedPyramid,
            src: FeatLoc::di(),
            dst: FeatLoc::bb(0),
            src_s: None,
            in_groups,
            out_groups,
            expansion: 1,
            in_size: (16, 16),
            out_size: (14, 14),
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
        }
    }

    #[test]
    fn packed_conv3_widens_taps_and_sums_biases() {
        let ins = conv_instr(Opcode::Conv, 2, 1);
        let leafs = vec![leaf_with_pattern(3), leaf_with_pattern(8)];
        let p = PackedConv3::pack(&ins, &leafs);
        assert_eq!((p.out_planes, p.in_groups), (1, 2));
        // prod_frac = w3.frac + src.frac = 11; biases upshift from 5 by 6.
        for oc in 0..LEAF_CH {
            let want: i64 = leafs.iter().map(|l| (l.b3[oc] as i64) << 6).sum();
            assert_eq!(p.bias[oc], want, "bias {oc}");
        }
        for (ig, leaf) in leafs.iter().enumerate() {
            for oc in 0..LEAF_CH {
                for ic in 0..LEAF_CH {
                    for ky in 0..3 {
                        let taps = p.taps(ig, ky, oc, ic);
                        let row_nonzero = (0..3).any(|kx| {
                            let w = leaf.w3[(oc * LEAF_CH + ic) * 9 + ky * 3 + kx];
                            assert_eq!(taps[kx], w as i32);
                            w != 0
                        });
                        assert_eq!(
                            p.row_mask(ig, oc, ic) & (1 << ky) != 0,
                            row_nonzero,
                            "mask bit ({ig},{oc},{ic},{ky})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn packed_conv3_masks_all_zero_pairs() {
        let ins = conv_instr(Opcode::Conv, 1, 1);
        let mut leaf = leaf_with_pattern(2);
        // Zero out pair (oc=1, ic=2) and row ky=1 of pair (0, 0).
        for k in 0..9 {
            leaf.w3[(LEAF_CH + 2) * 9 + k] = 0;
        }
        for kx in 0..3 {
            leaf.w3[3 + kx] = 0;
        }
        leaf.w3[0] = 1; // keep rows 0 and 2 of pair (0,0) live
        leaf.w3[6] = 1;
        let p = PackedConv3::pack(&ins, &[leaf]);
        assert_eq!(p.row_mask(0, 1, 2), 0, "all-zero pair is masked out");
        assert_eq!(p.row_mask(0, 0, 0), 0b101, "zero tap row is masked out");
    }

    #[test]
    fn pair_words_round_trip_extreme_codes() {
        for (even, odd) in [
            (i16::MIN, i16::MAX),
            (-1, 0),
            (0, -1),
            (i16::MIN, i16::MIN),
            (7, -3),
        ] {
            let w = pair_word(even, odd);
            assert_eq!(
                (pair_half(w, 0), pair_half(w, 1)),
                (even as i32, odd as i32)
            );
        }
    }

    #[test]
    fn packed_conv3_block_mask_ors_its_block() {
        let ins = conv_instr(Opcode::Conv, 1, 1);
        let mut leaf = leaf_with_pattern(5);
        // Zero the whole block (ocb 1, pair 3): output channels 4..8
        // against input channels 6 and 7, and tap row ky = 2 of block
        // (ocb 0, pair 0).
        for oc in 4..8 {
            for ic in 6..8 {
                leaf.w3[(oc * LEAF_CH + ic) * 9..][..9].fill(0);
            }
        }
        for oc in 0..4 {
            for ic in 0..2 {
                leaf.w3[(oc * LEAF_CH + ic) * 9 + 6..][..3].fill(0);
            }
        }
        let p = PackedConv3::pack(&ins, &[leaf]);
        for ocb in 0..OC_BLOCKS {
            for pair in 0..IC_PAIRS {
                let want = (0..OC_BLOCK)
                    .flat_map(|o| (0..2).map(move |h| (ocb * OC_BLOCK + o, 2 * pair + h)))
                    .fold(0, |m, (oc, ic)| m | p.row_mask(0, oc, ic));
                assert_eq!(
                    p.block_mask[ocb * IC_PAIRS + pair],
                    want,
                    "block ({ocb},{pair})"
                );
            }
        }
        assert_eq!(p.block_mask[IC_PAIRS + 3], 0, "all-zero block is skipped");
        assert_eq!(p.block_mask[0] & 0b100, 0, "zero tap row is skipped");
    }

    #[test]
    fn packed_conv3_upx2_uses_per_plane_leaves() {
        let mut ins = conv_instr(Opcode::Upx2, 1, 4);
        ins.out_size = (28, 28);
        let leafs: Vec<LeafParams> = (0..4).map(|i| leaf_with_pattern(i as i16)).collect();
        let p = PackedConv3::pack(&ins, &leafs);
        assert_eq!((p.out_planes, p.in_groups), (4, 1));
        for (op_, leaf) in leafs.iter().enumerate() {
            assert_eq!(p.bias[op_ * LEAF_CH], (leaf.b3[0] as i64) << 6);
            assert_eq!(p.taps(op_, 0, 0, 0)[0], leaf.w3[0] as i32);
        }
    }

    #[test]
    fn packed_conv1_compacts_nonzero_columns() {
        let leafs = vec![leaf_with_pattern(1), leaf_with_pattern(4)];
        let p = PackedConv1::pack(&leafs, 5, 9);
        assert_eq!(p.leaves, 2);
        for oc in 0..LEAF_CH {
            let want: i64 = leafs.iter().map(|l| (l.b1[oc] as i64) << 4).sum();
            assert_eq!(p.bias[oc], want);
        }
        for (li, leaf) in leafs.iter().enumerate() {
            for oc in 0..LEAF_CH {
                let row = p.row(li, oc);
                let want: Vec<(u16, i32)> = (0..LEAF_CH)
                    .filter_map(|ic| {
                        let w = leaf.w1[oc * LEAF_CH + ic];
                        (w != 0).then_some((ic as u16, w as i32))
                    })
                    .collect();
                assert_eq!(row, want.as_slice(), "leaf {li} oc {oc}");
                for pair in 0..IC_PAIRS {
                    let block = (li * OC_BLOCKS + oc / OC_BLOCK) * IC_PAIRS + pair;
                    let word = p.words[block * OC_BLOCK + oc % OC_BLOCK];
                    for h in 0..2 {
                        let w = leaf.w1[oc * LEAF_CH + 2 * pair + h] as i32;
                        assert_eq!(pair_half(word, h), w, "leaf {li} oc {oc} pair {pair}");
                        assert!(w == 0 || p.block_mask[block] != 0);
                    }
                }
            }
        }
    }

    #[test]
    fn packed_kernel_params_shape_follows_opcode() {
        let ins = conv_instr(Opcode::Conv, 2, 1);
        let leafs = vec![leaf_with_pattern(1), leaf_with_pattern(2)];
        let p = PackedKernelParams::pack(&ins, &leafs);
        assert_eq!(p.conv3.len(), 1);
        assert!(p.conv1.is_none());
        assert!(p.bytes() > 0);

        let mut er = conv_instr(Opcode::Er, 1, 1);
        er.expansion = 2;
        er.q.mid = Some(QFormat::unsigned(4));
        er.q.w1 = Some(QFormat::signed(7));
        er.q.b1 = Some(QFormat::signed(5));
        let p = PackedKernelParams::pack(&er, &leafs);
        assert_eq!(p.conv3.len(), 2, "one 3x3 stage per ER leaf");
        assert!(p.conv1.is_some());

        let mut c1 = conv_instr(Opcode::Conv1, 1, 1);
        c1.q.w1 = Some(QFormat::signed(7));
        c1.q.b1 = Some(QFormat::signed(5));
        let p = PackedKernelParams::pack(&c1, &leafs[..1]);
        assert!(p.conv3.is_empty());
        assert_eq!(p.conv1.as_ref().unwrap().leaves, 1);
    }
}
