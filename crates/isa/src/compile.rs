//! The FBISA compiler: lowers a [`QuantizedModel`] to a [`Program`] plus
//! packed parameters.
//!
//! Lowering rules (Section 5.1):
//!
//! * 32ch→32ch CONV3×3 → one `CONV` instruction (one leaf-module).
//! * ERModule(Rm) → one `ER` instruction with `Rm` leaf-modules and
//!   `srcS = src` for the module residual.
//! * CONV3×3 + PixelShuffle → `UPX2` (pre-shuffle output groups written in
//!   shuffle order); wide inputs chain partial sums across `UPX2`
//!   instructions in the *shuffled* domain (the shuffle is a pure
//!   reordering, so the sums commute with it), with the layer's ReLU on
//!   the last input group only. Like the chunked convolutions below, the
//!   chain is exact only up to the partials' requantization: each
//!   partial is stored at the layer's 8-bit `out_q`, so a wide UPX2 can
//!   differ from an unsplit fixed-point convolution.
//! * CONV3×3 + Downsample(s) → `DNX2` with the pool applied after the final
//!   accumulation; consecutive model pools fold into `pool_factor`.
//! * Wide convolutions split into ≤4-leaf instructions: one output group at
//!   a time, input groups chunked by four with partial sums staged through
//!   a scratch tensor and accumulated via `srcS`.
//! * Residual connections become `srcS` operands on the first chunk.
//!
//! Block-buffer allocation is greedy first-fit over the three 512 KB
//! buffers with exact liveness; tensors that cannot fit (CV case studies,
//! SR tails) are placed with a `bb_overflow` flag recorded on the program.

use crate::instr::{FeatLoc, Instruction, Opcode, QSpec, LEAF_CH, MAX_LEAF_MODULES};
use crate::params::{LayerParams, LeafParams, PackedParams, QuantizedModel};
use crate::program::Program;
use ecnn_model::layer::{Activation, Op, SkipRef};
use ecnn_model::model::InferenceKind;
use ecnn_tensor::QFormat;
use std::fmt;

/// Strict per-buffer capacity of eCNN's block buffers (Table 2: 3×512 KB).
pub const BB_BYTES: usize = 512 * 1024;
/// Number of physical block buffers.
pub const BB_COUNT: usize = 3;

/// Compilation errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// The block geometry is infeasible (pyramid collapse, indivisible
    /// shuffle factor, …).
    Geometry(String),
    /// The model uses an op sequence the ISA cannot express.
    Unsupported(String),
    /// Parameter shapes are inconsistent.
    BadParams(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Geometry(m) => write!(f, "block geometry: {m}"),
            CompileError::Unsupported(m) => write!(f, "unsupported construct: {m}"),
            CompileError::BadParams(m) => write!(f, "bad parameters: {m}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// A compiled artifact: program, per-instruction leaf parameters (issue
/// order) and the packed 21-stream parameter image.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// The instruction stream and block metadata.
    pub program: Program,
    /// Leaf parameters per instruction (what the IDU distributes).
    pub leafs: Vec<Vec<LeafParams>>,
    /// Entropy-coded parameter memory image.
    pub packed: PackedParams,
}

/// Compiles `qm` for input blocks of side `xi` (image-domain side at `DI`;
/// for zero-padded models, the frame side).
///
/// # Errors
///
/// See [`CompileError`].
pub fn compile(qm: &QuantizedModel, xi: usize) -> Result<CompiledProgram, CompileError> {
    qm.check()
        .map_err(|(i, e)| CompileError::BadParams(format!("layer {i}: {e}")))?;
    Compiler::new(qm, xi)?.run()
}

/// Geometry walk respecting the model's inference kind.
fn geometry(qm: &QuantizedModel, xi: usize) -> Result<Vec<usize>, CompileError> {
    let model = &qm.model;
    let mut sides = Vec::with_capacity(model.len() + 1);
    sides.push(xi);
    for (i, layer) in model.layers().iter().enumerate() {
        let inp = *sides.last().expect("nonempty");
        let out = match layer.op {
            Op::Conv3x3 { .. } | Op::ErModule { .. } => {
                if model.inference() == InferenceKind::TruncatedPyramid {
                    if inp <= 2 {
                        return Err(CompileError::Geometry(format!(
                            "layer {i}: block collapses (side {inp})"
                        )));
                    }
                    inp - 2
                } else {
                    inp
                }
            }
            Op::Conv1x1 { .. } => inp,
            Op::PixelShuffle { factor } => inp * factor,
            Op::PixelUnshuffle { factor } | Op::Downsample { factor, .. } => {
                if inp % factor != 0 {
                    return Err(CompileError::Geometry(format!(
                        "layer {i}: side {inp} not divisible by {factor}"
                    )));
                }
                inp / factor
            }
        };
        sides.push(out);
    }
    Ok(sides)
}

/// A value slot: which chain position's tensor lives where.
#[derive(Clone, Copy, Debug, PartialEq)]
struct ValueInfo {
    loc: FeatLoc,
    side: usize,
    groups: usize,
    q: QFormat,
}

struct Compiler<'a> {
    qm: &'a QuantizedModel,
    sides: Vec<usize>,
    last_use: Vec<usize>,
    /// Live value per chain position.
    values: Vec<Option<ValueInfo>>,
    /// Bytes allocated per physical buffer.
    bb_used: [usize; BB_COUNT],
    /// Monotonic group-slot counter per buffer (unique bases).
    bb_slot: [u8; BB_COUNT],
    overflow: bool,
    /// Next virtual overflow buffer id.
    next_virtual: u8,
    instructions: Vec<Instruction>,
    leafs: Vec<Vec<LeafParams>>,
}

impl<'a> Compiler<'a> {
    fn new(qm: &'a QuantizedModel, xi: usize) -> Result<Self, CompileError> {
        let sides = geometry(qm, xi)?;
        let model = &qm.model;
        // last_use[p]: last layer index that reads chain position p.
        let mut last_use = vec![0usize; model.len() + 1];
        for (i, layer) in model.layers().iter().enumerate() {
            last_use[i] = last_use[i].max(i); // consumed as main input by layer i
            if let Some(skip) = layer.skip {
                let p = match skip {
                    SkipRef::Input => 0,
                    SkipRef::Layer(j) => j + 1,
                };
                last_use[p] = last_use[p].max(i);
            }
        }
        Ok(Self {
            qm,
            sides,
            last_use,
            values: vec![None; model.len() + 1],
            bb_used: [0; BB_COUNT],
            bb_slot: [0; BB_COUNT],
            overflow: false,
            next_virtual: BB_COUNT as u8,
            instructions: Vec::new(),
            leafs: Vec::new(),
        })
    }

    fn hw_groups(c: usize) -> usize {
        c.div_ceil(LEAF_CH)
    }

    /// Allocates a tensor of `groups` 32ch planes with side `side`.
    fn alloc(&mut self, side: usize, groups: usize, q: QFormat) -> ValueInfo {
        let bytes = groups * LEAF_CH * side * side;
        for id in 0..BB_COUNT {
            if self.bb_used[id] + bytes <= BB_BYTES {
                self.bb_used[id] += bytes;
                let loc = FeatLoc::Bb {
                    id: id as u8,
                    group: self.bb_slot[id],
                };
                self.bb_slot[id] = self.bb_slot[id].wrapping_add(groups as u8);
                return ValueInfo {
                    loc,
                    side,
                    groups,
                    q,
                };
            }
        }
        // Relaxed placement: virtual buffer, flag recorded.
        self.overflow = true;
        let id = self.next_virtual;
        self.next_virtual += 1;
        ValueInfo {
            loc: FeatLoc::Bb { id, group: 0 },
            side,
            groups,
            q,
        }
    }

    fn free(&mut self, v: ValueInfo) {
        if let FeatLoc::Bb { id, .. } = v.loc {
            if (id as usize) < BB_COUNT {
                self.bb_used[id as usize] =
                    self.bb_used[id as usize].saturating_sub(v.groups * LEAF_CH * v.side * v.side);
            }
        }
    }

    /// Frees values whose last use is `layer_idx` or earlier.
    fn expire(&mut self, layer_idx: usize) {
        for p in 0..self.values.len() {
            if let Some(v) = self.values[p] {
                if self.last_use[p] <= layer_idx && !v.loc.is_virtual() {
                    self.free(v);
                    self.values[p] = None;
                }
            }
        }
    }

    fn skip_value(&self, layer: usize) -> Option<ValueInfo> {
        let skip = self.qm.model.layers()[layer].skip?;
        let p = match skip {
            SkipRef::Input => 0,
            SkipRef::Layer(j) => j + 1,
        };
        self.values[p]
    }

    fn run(mut self) -> Result<CompiledProgram, CompileError> {
        let model = &self.qm.model;
        let inference = model.inference();
        let in_q = self.qm.input_q;
        let mut input_unshuffle = None;

        // The model input arrives through DI.
        self.values[0] = Some(ValueInfo {
            loc: FeatLoc::di(),
            side: self.sides[0],
            groups: Self::hw_groups(model.in_channels()),
            q: in_q,
        });

        let n_layers = model.len();
        let mut i = 0usize;
        while i < n_layers {
            let layer = model.layers()[i];
            let src = self.values[i].ok_or_else(|| {
                CompileError::Unsupported(format!("layer {i}: input tensor not materialized"))
            })?;
            match layer.op {
                Op::PixelUnshuffle { factor } => {
                    if i != 0 {
                        return Err(CompileError::Unsupported(
                            "pixel unshuffle is only supported on the DI stream".into(),
                        ));
                    }
                    input_unshuffle = Some(factor);
                    let c = model.out_channels_at(i);
                    self.values[i + 1] = Some(ValueInfo {
                        loc: FeatLoc::di(),
                        side: self.sides[i + 1],
                        groups: Self::hw_groups(c),
                        q: in_q,
                    });
                    i += 1;
                }
                Op::PixelShuffle { .. } => {
                    return Err(CompileError::Unsupported(format!(
                        "layer {i}: standalone pixel shuffle (must follow a convolution)"
                    )));
                }
                Op::Downsample { .. } => {
                    return Err(CompileError::Unsupported(format!(
                        "layer {i}: standalone downsample (must follow a convolution)"
                    )));
                }
                Op::Conv3x3 { in_c, out_c, act } => {
                    // Fuse a following shuffle or any run of downsamples.
                    let mut consumed = 1usize;
                    let mut opcode = Opcode::Conv;
                    let mut pool = None;
                    let mut pool_factor = 1usize;
                    let mut shuffle = false;
                    if i + 1 < n_layers {
                        match model.layers()[i + 1].op {
                            Op::PixelShuffle { factor: 2 } => {
                                opcode = Opcode::Upx2;
                                shuffle = true;
                                consumed = 2;
                            }
                            Op::Downsample { kind, factor } => {
                                opcode = Opcode::Dnx2;
                                pool = Some(kind);
                                pool_factor = factor;
                                consumed = 2;
                                // Fold consecutive pools.
                                while i + consumed < n_layers {
                                    if let Op::Downsample { factor: f2, .. } =
                                        model.layers()[i + consumed].op
                                    {
                                        pool_factor *= f2;
                                        consumed += 1;
                                    } else {
                                        break;
                                    }
                                }
                            }
                            _ => {}
                        }
                    }
                    let out_pos = i + consumed;
                    self.lower_conv(
                        i,
                        out_pos,
                        src,
                        in_c,
                        out_c,
                        act,
                        opcode,
                        pool,
                        pool_factor,
                        shuffle,
                        inference,
                        false,
                    )?;
                    i = out_pos;
                }
                Op::Conv1x1 { in_c, out_c, act } => {
                    self.lower_conv(
                        i,
                        i + 1,
                        src,
                        in_c,
                        out_c,
                        act,
                        Opcode::Conv1,
                        None,
                        1,
                        false,
                        inference,
                        true,
                    )?;
                    i += 1;
                }
                Op::ErModule {
                    channels,
                    expansion,
                } => {
                    if expansion > MAX_LEAF_MODULES {
                        return Err(CompileError::Unsupported(format!(
                            "layer {i}: ER expansion {expansion} exceeds {MAX_LEAF_MODULES}"
                        )));
                    }
                    let p = self.params(i)?;
                    let out_side = self.sides[i + 1];
                    let is_last = i + 1 == n_layers;
                    let dst =
                        self.dest(i + 1, out_side, Self::hw_groups(channels), p.out_q, is_last);
                    let q = QSpec {
                        src: src.q,
                        dst: p.out_q,
                        src_s: Some(src.q),
                        mid: Some(p.mid_q),
                        w3: p.w3_q,
                        b3: p.b3_q,
                        w1: Some(p.w1_q),
                        b1: Some(p.b1_q),
                    };
                    let restart = self.instructions.len() as u32;
                    self.instructions.push(Instruction {
                        opcode: Opcode::Er,
                        inference,
                        src: src.loc,
                        dst: dst.loc,
                        src_s: Some(src.loc),
                        in_groups: 1,
                        out_groups: 1,
                        expansion,
                        in_size: (src.side, src.side),
                        out_size: (out_side, out_side),
                        relu: false,
                        pool: None,
                        pool_factor: 1,
                        q,
                        param_restart: restart,
                        layer: i,
                    });
                    self.leafs.push(er_leafs(p, expansion));
                    self.values[i + 1] = Some(dst);
                    self.expire(i);
                    i += 1;
                }
            }
        }

        let out_pos = n_layers;
        let out_val = self.values[out_pos]
            .ok_or_else(|| CompileError::Unsupported("model output was not produced".into()))?;
        debug_assert_eq!(out_val.loc, FeatLoc::dout());

        let kinds: Vec<(bool, bool)> = self
            .instructions
            .iter()
            .map(|ins| (ins.opcode.has_conv3x3(), ins.opcode.has_conv1x1()))
            .collect();
        let packed = PackedParams::pack(&self.leafs, &kinds);

        let program = Program {
            name: model.name().to_string(),
            instructions: self.instructions,
            inference,
            di_side: self.sides[0],
            di_channels: model.in_channels(),
            di_q: in_q,
            do_side: *self.sides.last().expect("nonempty"),
            do_channels: model.out_channels(),
            do_q: self
                .qm
                .layers
                .iter()
                .rev()
                .flatten()
                .next()
                .map(|p| p.out_q)
                .unwrap_or(in_q),
            input_unshuffle,
            bb_overflow: self.overflow,
        };
        program
            .check()
            .map_err(|(i, e)| CompileError::Unsupported(format!("instruction {i}: {e}")))?;
        Ok(CompiledProgram {
            program,
            leafs: self.leafs,
            packed,
        })
    }

    fn params(&self, layer: usize) -> Result<&'a LayerParams, CompileError> {
        self.qm.layers[layer]
            .as_ref()
            .ok_or_else(|| CompileError::BadParams(format!("layer {layer}: missing params")))
    }

    /// Destination for the value at `pos`: `DO` when it is the model output,
    /// otherwise a fresh buffer allocation.
    fn dest(
        &mut self,
        _pos: usize,
        side: usize,
        groups: usize,
        q: QFormat,
        is_output: bool,
    ) -> ValueInfo {
        if is_output {
            ValueInfo {
                loc: FeatLoc::dout(),
                side,
                groups,
                q,
            }
        } else {
            self.alloc(side, groups, q)
        }
    }

    /// Lowers a (possibly wide) convolution, including fused shuffle/pool.
    #[allow(clippy::too_many_arguments)]
    fn lower_conv(
        &mut self,
        layer: usize,
        out_pos: usize,
        src: ValueInfo,
        in_c: usize,
        out_c: usize,
        act: Activation,
        opcode: Opcode,
        pool: Option<ecnn_model::layer::PoolKind>,
        pool_factor: usize,
        shuffle: bool,
        inference: InferenceKind,
        is_1x1: bool,
    ) -> Result<(), CompileError> {
        let p = self.params(layer)?;
        let in_groups = Self::hw_groups(in_c);
        let conv_out_groups = Self::hw_groups(out_c);
        let out_side = self.sides[out_pos];
        // Conv-grid output side (pre-shuffle/pool).
        let conv_side = if shuffle {
            out_side / 2
        } else {
            out_side * pool_factor
        };
        let dst_groups = if shuffle {
            // Post-shuffle channel count = out_c / 4.
            Self::hw_groups(out_c / 4)
        } else {
            conv_out_groups
        };
        let is_last = out_pos == self.qm.model.len();
        let skip = self.skip_value(layer);
        if skip.is_some() && act == Activation::Relu {
            return Err(CompileError::Unsupported(format!(
                "layer {layer}: ReLU combined with a residual is ambiguous in the datapath"
            )));
        }
        let dst = self.dest(out_pos, out_side, dst_groups, p.out_q, is_last);

        if shuffle {
            // UPX2: one instruction per post-shuffle group and per input
            // group, accumulating in the shuffled domain.
            let post_groups = dst_groups;
            for pg in 0..post_groups {
                for (ci, ig) in (0..in_groups).enumerate() {
                    let first = ci == 0;
                    let src_s = if first {
                        skip.map(|s| offset_group(s.loc, pg))
                    } else {
                        Some(offset_group(dst.loc, pg))
                    };
                    let srcs_q = if first {
                        skip.map(|s| s.q)
                    } else {
                        Some(p.out_q)
                    };
                    let restart = self.instructions.len() as u32;
                    // Pre-shuffle conv groups for this post group: 4 planes
                    // (or fewer when out_c < 128).
                    let pre_lo = pg * 4;
                    let pre_hi = (pre_lo + 4).min(conv_out_groups);
                    let q = QSpec {
                        src: src.q,
                        dst: p.out_q,
                        src_s: srcs_q,
                        mid: None,
                        w3: p.w3_q,
                        b3: p.b3_q,
                        w1: None,
                        b1: None,
                    };
                    self.instructions.push(Instruction {
                        opcode: Opcode::Upx2,
                        inference,
                        src: offset_group(src.loc, ig),
                        dst: offset_group(dst.loc, pg),
                        src_s,
                        in_groups: 1,
                        out_groups: pre_hi - pre_lo,
                        expansion: 1,
                        in_size: (src.side, src.side),
                        out_size: (out_side, out_side),
                        // Chained partials stay linear: only the last
                        // input group's instruction applies the ReLU.
                        relu: act == Activation::Relu && ci == in_groups - 1,
                        pool: None,
                        pool_factor: 1,
                        q,
                        param_restart: restart,
                        layer,
                    });
                    let mut leaf_set = Vec::new();
                    for og in pre_lo..pre_hi {
                        leaf_set.push(conv_leaf(p, in_groups, og, ig, ig == 0, is_1x1));
                    }
                    self.leafs.push(leaf_set);
                }
            }
        } else {
            // Plain / pooled / 1x1 conv: per output group, chunk input groups
            // by MAX_LEAF_MODULES with scratch-staged partial sums.
            for og in 0..conv_out_groups {
                let chunks: Vec<Vec<usize>> = (0..in_groups)
                    .collect::<Vec<_>>()
                    .chunks(MAX_LEAF_MODULES)
                    .map(<[usize]>::to_vec)
                    .collect();
                let n_chunks = chunks.len();
                let mut scratch: Option<ValueInfo> = None;
                for (ci, chunk) in chunks.iter().enumerate() {
                    let last = ci == n_chunks - 1;
                    let (this_dst, this_pool, this_factor, this_opcode) = if last {
                        (offset_group(dst.loc, og), pool, pool_factor, opcode)
                    } else {
                        let s = match scratch {
                            Some(s) => s,
                            None => {
                                let s = self.alloc(conv_side, 1, p.out_q);
                                scratch = Some(s);
                                s
                            }
                        };
                        (
                            s.loc,
                            None,
                            1,
                            if is_1x1 { Opcode::Conv1 } else { Opcode::Conv },
                        )
                    };
                    let src_s = if ci == 0 {
                        skip.map(|s| offset_group(s.loc, og))
                    } else {
                        Some(scratch.expect("set in earlier chunk").loc)
                    };
                    let srcs_q = if ci == 0 {
                        skip.map(|s| s.q)
                    } else {
                        Some(p.out_q)
                    };
                    let restart = self.instructions.len() as u32;
                    let q = QSpec {
                        src: src.q,
                        dst: p.out_q,
                        src_s: srcs_q,
                        mid: None,
                        w3: if is_1x1 { p.w1_q } else { p.w3_q },
                        b3: if is_1x1 { p.b1_q } else { p.b3_q },
                        w1: if is_1x1 { Some(p.w1_q) } else { None },
                        b1: if is_1x1 { Some(p.b1_q) } else { None },
                    };
                    let out_size = if last {
                        (out_side, out_side)
                    } else {
                        (conv_side, conv_side)
                    };
                    self.instructions.push(Instruction {
                        opcode: this_opcode,
                        inference,
                        src: offset_group(src.loc, chunk[0]),
                        dst: this_dst,
                        src_s,
                        in_groups: chunk.len(),
                        out_groups: 1,
                        expansion: 1,
                        in_size: (src.side, src.side),
                        out_size,
                        relu: act == Activation::Relu && last,
                        pool: this_pool,
                        pool_factor: this_factor,
                        q,
                        param_restart: restart,
                        layer,
                    });
                    let mut leaf_set = Vec::new();
                    for &ig in chunk {
                        leaf_set.push(conv_leaf(p, in_groups, og, ig, ig == 0, is_1x1));
                    }
                    self.leafs.push(leaf_set);
                }
                if let Some(s) = scratch {
                    self.free(s);
                }
            }
        }
        self.values[out_pos] = Some(dst);
        self.expire(out_pos - 1);
        Ok(())
    }
}

fn offset_group(loc: FeatLoc, delta: usize) -> FeatLoc {
    loc.offset(delta)
}

/// Extracts the (og, ig) leaf of a conv layer's parameters. `with_bias`
/// attaches the output group's biases (only the ig==0 leaf carries them).
fn conv_leaf(
    p: &LayerParams,
    in_groups: usize,
    og: usize,
    ig: usize,
    with_bias: bool,
    is_1x1: bool,
) -> LeafParams {
    let mut leaf = LeafParams::zero();
    let in_hw = in_groups * LEAF_CH;
    if is_1x1 {
        for oc in 0..LEAF_CH {
            for ic in 0..LEAF_CH {
                leaf.w1[oc * LEAF_CH + ic] = p.w1[(og * LEAF_CH + oc) * in_hw + ig * LEAF_CH + ic];
            }
        }
        if with_bias {
            leaf.b1
                .copy_from_slice(&p.b1[og * LEAF_CH..(og + 1) * LEAF_CH]);
        }
    } else {
        for oc in 0..LEAF_CH {
            for ic in 0..LEAF_CH {
                for k in 0..9 {
                    leaf.w3[(oc * LEAF_CH + ic) * 9 + k] =
                        p.w3[((og * LEAF_CH + oc) * in_hw + ig * LEAF_CH + ic) * 9 + k];
                }
            }
        }
        if with_bias {
            leaf.b3
                .copy_from_slice(&p.b3[og * LEAF_CH..(og + 1) * LEAF_CH]);
        }
    }
    leaf
}

/// Extracts the per-plane leafs of an ER module: leaf `e` holds expansion
/// plane `e`'s 3×3 filters and its 32 columns of the 1×1 reduction.
fn er_leafs(p: &LayerParams, expansion: usize) -> Vec<LeafParams> {
    let wide = expansion * LEAF_CH;
    let mut out = Vec::with_capacity(expansion);
    for e in 0..expansion {
        let mut leaf = LeafParams::zero();
        for oc in 0..LEAF_CH {
            let plane_oc = e * LEAF_CH + oc;
            for ic in 0..LEAF_CH {
                for k in 0..9 {
                    leaf.w3[(oc * LEAF_CH + ic) * 9 + k] = p.w3[(plane_oc * LEAF_CH + ic) * 9 + k];
                }
            }
        }
        leaf.b3
            .copy_from_slice(&p.b3[e * LEAF_CH..(e + 1) * LEAF_CH]);
        for oc in 0..LEAF_CH {
            for ic in 0..LEAF_CH {
                leaf.w1[oc * LEAF_CH + ic] = p.w1[oc * wide + e * LEAF_CH + ic];
            }
        }
        if e == 0 {
            leaf.b1.copy_from_slice(&p.b1[0..LEAF_CH]);
        }
        out.push(leaf);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecnn_model::ernet::{ErNetSpec, ErNetTask};
    use ecnn_model::layer::Layer;
    use ecnn_model::model::Model;
    use ecnn_model::zoo;

    fn compile_ernet(task: ErNetTask, b: usize, r: usize, n: usize, xi: usize) -> CompiledProgram {
        let m = ErNetSpec::new(task, b, r, n).build().unwrap();
        let qm = QuantizedModel::uniform(&m);
        compile(&qm, xi).unwrap()
    }

    #[test]
    fn dnernet_b3_is_six_instructions() {
        // Fig. 18: the six-layer DnERNet-B3R1N0 compiles to a 6-line program.
        let c = compile_ernet(ErNetTask::Dn, 3, 1, 0, 128);
        assert_eq!(c.program.instructions.len(), 6);
        let ops: Vec<Opcode> = c.program.instructions.iter().map(|i| i.opcode).collect();
        assert_eq!(
            ops,
            vec![
                Opcode::Conv,
                Opcode::Er,
                Opcode::Er,
                Opcode::Er,
                Opcode::Conv,
                Opcode::Conv
            ]
        );
        // First reads DI, last writes DO.
        assert_eq!(c.program.instructions[0].src, FeatLoc::di());
        assert_eq!(c.program.instructions[5].dst, FeatLoc::dout());
        // Block geometry: 128 -> 116 output.
        assert_eq!(c.program.di_side, 128);
        assert_eq!(c.program.do_side, 116);
        assert!(!c.program.bb_overflow, "DnERNet fits the 3x512KB buffers");
    }

    #[test]
    fn global_residual_uses_srcs() {
        let c = compile_ernet(ErNetTask::Dn, 3, 1, 0, 128);
        // Instruction 4 is the body-end conv with the global skip.
        let body_end = &c.program.instructions[4];
        assert!(body_end.src_s.is_some());
        // Its srcS must be the head conv's destination.
        assert_eq!(body_end.src_s.unwrap(), c.program.instructions[0].dst);
    }

    #[test]
    fn er_instructions_carry_self_residual() {
        let c = compile_ernet(ErNetTask::Dn, 2, 3, 1, 64);
        for ins in &c.program.instructions {
            if ins.opcode == Opcode::Er {
                assert_eq!(ins.src_s, Some(ins.src));
            }
        }
        // First module Rm = 4 (N=1), second Rm = 3.
        let ers: Vec<usize> = c
            .program
            .instructions
            .iter()
            .filter(|i| i.opcode == Opcode::Er)
            .map(|i| i.expansion)
            .collect();
        assert_eq!(ers, vec![4, 3]);
    }

    #[test]
    fn sr4_has_upx2_instructions_and_39_lines() {
        let c = compile_ernet(ErNetTask::Sr4, 34, 4, 0, 128);
        let n_up = c
            .program
            .instructions
            .iter()
            .filter(|i| i.opcode == Opcode::Upx2)
            .count();
        assert_eq!(n_up, 2);
        // head + 34 ER + bodyend + 2 UPX2 + tail = 39 (paper quotes 45 for
        // its exact variant).
        assert_eq!(c.program.instructions.len(), 39);
        // Output block side: LR 128 -> 54 after 37 convs, x2 -> 108 -> conv
        // -> 106 -> x2 -> 212 -> tail conv -> 210.
        assert_eq!(c.program.do_side, 210);
    }

    #[test]
    fn dn12_unshuffles_on_di() {
        let c = compile_ernet(ErNetTask::Dn12, 8, 2, 5, 256);
        assert_eq!(c.program.input_unshuffle, Some(2));
        assert_eq!(c.program.di_side, 256);
        assert_eq!(c.program.di_channels, 3);
        // 256 image side -> 128 core side -> 11 convs -> 106 -> x2 = 212.
        assert_eq!(c.program.do_side, 212);
        // The tail is an UPX2 (12 -> 3 shuffle).
        assert_eq!(c.program.instructions.last().unwrap().opcode, Opcode::Upx2);
    }

    #[test]
    fn leaf_module_counts_match_parameter_cost() {
        let c = compile_ernet(ErNetTask::Dn, 3, 2, 0, 128);
        // head 1 + 3 ER x2 + bodyend 1 + tail 1 = 9 leafs.
        assert_eq!(c.program.total_leaf_modules(), 9);
        for (ins, leafs) in c.program.instructions.iter().zip(&c.leafs) {
            assert_eq!(ins.leaf_modules(), leafs.len());
        }
    }

    #[test]
    fn packed_params_unpack_to_compiled_leafs() {
        let c = compile_ernet(ErNetTask::Dn, 2, 2, 1, 96);
        for (i, want) in c.leafs.iter().enumerate() {
            let got = c.packed.unpack(i).unwrap();
            assert_eq!(&got, want, "instruction {i}");
        }
    }

    #[test]
    fn recognition_compiles_with_wide_channels() {
        let m = zoo::recognition(1000);
        let qm = QuantizedModel::uniform(&m);
        let c = compile(&qm, 224).unwrap();
        // Zero-padded: DI side == DO side pre-pooling chain; output is 7 (two
        // max pools folded 28 -> 7 ... wait: pools are folded into convs).
        assert_eq!(c.program.inference, InferenceKind::ZeroPadded);
        assert!(c.program.instructions.len() > 60, "wide convs split");
        // All instructions respect the leaf cap.
        for ins in &c.program.instructions {
            assert!(ins.leaf_modules() <= MAX_LEAF_MODULES);
        }
        // Classifier output: 1000 logits at 1x1 (pools fold 28 -> 1 onto the
        // final stage-3 convolution).
        assert_eq!(c.program.do_side, 1);
        assert_eq!(c.program.do_channels, 1000);
    }

    #[test]
    fn style_transfer_compiles_both_submodels() {
        let (enc, dec) = zoo::style_transfer();
        let qe = QuantizedModel::uniform(&enc);
        let qd = QuantizedModel::uniform(&dec);
        let ce = compile(&qe, 128).unwrap();
        // encoder: 128 -> 2 convs -> down x2 ... output at 1/4 res.
        assert_eq!(ce.program.di_side, 128);
        let cd = compile(&qd, ce.program.do_side).unwrap();
        assert!(cd.program.do_side > 0);
        for ins in ce
            .program
            .instructions
            .iter()
            .chain(&cd.program.instructions)
        {
            assert!(ins.leaf_modules() <= MAX_LEAF_MODULES);
        }
    }

    #[test]
    fn chained_upx2_applies_relu_on_the_last_input_group_only() {
        // 64 input channels (two groups) chain two UPX2 partial sums per
        // post-shuffle group through srcS; a ReLU on the first would clamp
        // a partial sum, not the layer's output.
        let m = Model::new(
            "wide-upx2-relu",
            64,
            64,
            vec![
                Layer::new(Op::Conv3x3 {
                    in_c: 64,
                    out_c: 256,
                    act: Activation::Relu,
                }),
                Layer::new(Op::PixelShuffle { factor: 2 }),
            ],
        )
        .unwrap();
        let c = compile(&QuantizedModel::uniform(&m), 32).unwrap();
        let relus: Vec<bool> = c
            .program
            .instructions
            .iter()
            .filter(|i| i.opcode == Opcode::Upx2)
            .map(|i| i.relu)
            .collect();
        // Two post-shuffle groups, each chaining two input groups.
        assert_eq!(relus, vec![false, true, false, true]);
    }

    #[test]
    fn too_small_block_is_rejected() {
        let m = ErNetSpec::new(ErNetTask::Dn, 10, 1, 0).build().unwrap();
        let qm = QuantizedModel::uniform(&m);
        // 13 convs need side > 26.
        assert!(matches!(compile(&qm, 26), Err(CompileError::Geometry(_))));
        assert!(compile(&qm, 64).is_ok());
    }

    #[test]
    fn restart_indices_are_sequential() {
        let c = compile_ernet(ErNetTask::Sr2, 5, 2, 2, 96);
        for (i, ins) in c.program.instructions.iter().enumerate() {
            assert_eq!(ins.param_restart as usize, i);
        }
        assert_eq!(c.packed.segments.len(), c.program.instructions.len());
    }

    #[test]
    fn display_program_looks_like_fig18() {
        let c = compile_ernet(ErNetTask::Dn, 3, 1, 0, 128);
        let text = c.program.to_string();
        assert!(text.contains("CONV"));
        assert!(text.contains("ER"));
        assert!(text.contains("src=DI"));
        assert!(text.contains("dst=DO"));
        assert_eq!(text.lines().count(), 7); // header + 6 instructions
    }
}
