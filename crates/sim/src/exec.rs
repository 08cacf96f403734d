//! Functional (bit-exact) execution of FBISA programs on one image block,
//! split into a *plan* and an *execute* phase.
//!
//! [`BlockPlan`] walks a [`Program`] once up front: it validates leaf
//! bookkeeping and operand availability (write-before-read) and computes
//! every feature plane's shape and lifetime. Its licences — each
//! instruction's narrow path and the coalesced memory plan — come from the
//! static verifier's report of that exact program: [`BlockPlan::new`]
//! verifies the program itself, while [`BlockPlan::proven`] takes the
//! report a [`Proven`] program carries. An engine proves its program once
//! per build and plans every session through the latter, so no session,
//! degradation rung or worker proves it again; the build itself only walks
//! the plan's plane table ([`crosscheck_proven`]) and packs no kernel
//! parameter, which each session's plan does. [`execute_with`] then runs the
//! plan against a [`PlanePool`] — a reusable arena of plane slots plus the
//! scratch accumulators — writing results in place, so steady-state block
//! execution allocates nothing. The plan maps every plane to one slot:
//! the verifier-licensed [`MemoryPlan`] when it proves one (coalesced),
//! else one slot per `(buffer, group)` (keyed). One pool
//! serves one worker: the streaming `Session` keeps one per stream and each
//! pipelined worker thread one of its own.
//!
//! The executor mirrors the CIU datapath of Section 6.3 exactly:
//!
//! * features are 8-bit Q-format codes in block buffers;
//! * every convolution accumulates in full precision (the hardware's
//!   carry-save trees never round internally): `i32` where the verifier
//!   proves it exact (the licensed narrow SIMD path, which also
//!   requantizes straight from `i32` in one fused pass), `i64` everywhere
//!   else — the `Packed` and `Reference` paths, and any `Simd` instruction
//!   without that licence, which runs the `Packed` row kernels;
//! * `srcS` operands are aligned to the accumulator's fractional position
//!   and added before activation (the ADDE adder);
//! * ER leaf-modules requantize the expanded features to 8 bits between the
//!   LCONV3×3 and LCONV1×1 engines (the area-saving quantizer of
//!   Section 6.3.1);
//! * the single output rounding happens at the Q-format of the destination
//!   operand, then the Dst Reorder applies pixel-shuffle or pooling.
//!
//! Each opcode reads its source, runs its accumulation stage on the
//! selected kernel rung, and ends in one tail shared by every opcode and
//! rung: srcS read, ADDE, activation, rounding, Dst Reorder, destination
//! store. Only the tail's rounding step differs by rung — the fused narrow
//! epilogue over a licensed instruction's `i32` sums, or the exact `i64`
//! add, ReLU and requantization everywhere else.
//!
//! The accumulation inner loops live in [`crate::kernels`]: the plan packs
//! every instruction's parameters once
//! ([`BlockPlan::packed`] — widened tap-major weights, pre-aligned biases,
//! zero-tap masks) and the default flat-slice micro-kernels consume that
//! cache with an interior/border row split, so steady-state frames do
//! zero kernel-parameter preparation. [`execute_with`] can instead run
//! the kept scalar [`Kernels::Reference`] path, which is bit-identical
//! and serves as the measured baseline and parity oracle.
//!
//! The plan also derives each 3×3 instruction's live channel extents
//! ([`BlockPlan::live_channels`]). The 3-channel RGB input and output
//! ride in padded 32-channel DI and DO planes: the DI padding is zero,
//! and the output assembly reads only the logical DO channels. Licensed
//! [`Kernels::Simd`] executions on the register-blocked sweep skip the
//! dead channels ([`BlockPlan::dead_mac3`]) and never requantize dead DO
//! channels; pixels and the [`ExecStats`] work counters, which charge
//! the accelerator's full 32-channel MACs, are unchanged.
//!
//! Every execution runs at one [`Extents`] table: per instruction, the
//! rows×cols of its source, its conv output and its destination, and the
//! srcS crop offset. The plan's own table ([`BlockPlan::extents`]) is the
//! compiled geometry. A block at the right or bottom frame edge keeps
//! only the top-left `kh×kw` of its output, and
//! [`BlockPlan::clipped`] derives the table that computes just that: one
//! backward pass from the kept DO extent, where a 3×3 reads its conv
//! extent plus 2, `UPX2` needs half its destination rows pre-shuffle,
//! `DNX2` the pool factor times them, a srcS producer must cover the
//! crop offset plus the accumulated extent, and each plane's extent is
//! the largest its consumers read, capped at the compiled one. The crop
//! offsets stay the compiled ones, so a truncated-pyramid block is exact
//! anchored at its top-left corner. [`execute_at`] runs any table on the
//! same pool (planes are reshaped compactly inside their full-size
//! storage); [`execute_with`] runs the plan's own. The [`ExecStats`]
//! counters charge the compiled block either way: the accelerator
//! sweeps whole blocks; [`BlockPlan::skipped_macs`] reports what the host
//! leaves out.

use crate::config::EcnnConfig;
use crate::kernels;
use crate::kernels::simd::{
    self, BandScratch, ErFinish, Lanes, LiveChannels, NarrowEpilogue, Swept,
};
use ecnn_isa::instr::{FeatLoc, Instruction, Opcode, LEAF_CH};
use ecnn_isa::params::{LeafParams, PackedConv3, PackedKernelParams, OC_BLOCK};
use ecnn_isa::program::Program;
use ecnn_isa::verify::memplan::MemoryPlan;
use ecnn_isa::verify::{DiagCode, Diagnostic, Proven, VerifyReport};
use ecnn_model::layer::PoolKind;
use ecnn_model::model::InferenceKind;
use ecnn_tensor::conv::align_code;
use ecnn_tensor::qformat::rescale_code;
use ecnn_tensor::{QFormat, Tensor};
use std::collections::HashMap;
use std::fmt;

/// Execution errors (all indicate compiler/simulator bugs, not user error).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// An operand referenced a plane that was never written.
    MissingPlane(FeatLoc),
    /// An instruction tried to read the DO stream.
    ReadFromDo,
    /// Spatial sizes disagreed with the instruction's attributes.
    Shape(String),
    /// Instruction/leaf bookkeeping mismatch.
    Leafs(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::MissingPlane(l) => write!(f, "operand {l} was never written"),
            ExecError::ReadFromDo => write!(f, "cannot read from DO"),
            ExecError::Shape(m) => write!(f, "shape mismatch: {m}"),
            ExecError::Leafs(m) => write!(f, "leaf bookkeeping: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Which kernel implementation actually ran — the per-execution
/// attribution behind [`ExecStats::kernel_variant`], so a silently
/// misdetected SIMD fallback is visible in every stats report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelVariant {
    /// No execution recorded yet.
    #[default]
    None,
    /// The kept pre-packing scalar kernels ([`Kernels::Reference`]).
    Reference,
    /// The flat-slice packed kernels ([`Kernels::Packed`]).
    Packed,
    /// [`Kernels::Simd`] resolved to the portable scalar fallback.
    SimdScalar,
    /// [`Kernels::Simd`] running the SSE2 kernels.
    SimdSse2,
    /// [`Kernels::Simd`] running the AVX2 kernels.
    SimdAvx2,
    /// [`Kernels::Simd`] running the AVX-512 VNNI conv kernels (AVX2 for
    /// the rest).
    SimdAvx512,
    /// [`Kernels::Simd`] running the NEON kernels.
    SimdNeon,
    /// Executions with different variants were merged into one counter
    /// stream.
    Mixed,
}

impl KernelVariant {
    /// Folds another execution's variant into this tag: `None` yields to
    /// anything, equal tags keep, differing tags degrade to [`Mixed`].
    ///
    /// [`Mixed`]: KernelVariant::Mixed
    #[must_use]
    pub fn merge(self, other: KernelVariant) -> KernelVariant {
        match (self, other) {
            (KernelVariant::None, x) | (x, KernelVariant::None) => x,
            (a, b) if a == b => a,
            _ => KernelVariant::Mixed,
        }
    }

    /// Stable lower-case name (e.g. `"packed"`, `"simd-avx2"`, `"mixed"`).
    pub fn name(self) -> &'static str {
        match self {
            KernelVariant::None => "none",
            KernelVariant::Reference => "reference",
            KernelVariant::Packed => "packed",
            KernelVariant::SimdScalar => "simd-scalar",
            KernelVariant::SimdSse2 => "simd-sse2",
            KernelVariant::SimdAvx2 => "simd-avx2",
            KernelVariant::SimdAvx512 => "simd-avx512",
            KernelVariant::SimdNeon => "simd-neon",
            KernelVariant::Mixed => "mixed",
        }
    }
}

impl fmt::Display for KernelVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Activity counters accumulated over block executions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// LCONV3×3 multiply-accumulates actually performed.
    pub mac3: u64,
    /// LCONV1×1 multiply-accumulates actually performed.
    pub mac1: u64,
    /// Bytes read from block buffers.
    pub bb_read_bytes: u64,
    /// Bytes written to block buffers.
    pub bb_write_bytes: u64,
    /// Bytes consumed from the DI stream.
    pub di_bytes: u64,
    /// Bytes produced on the DO stream.
    pub do_bytes: u64,
    /// Instructions executed.
    pub instructions: u64,
    /// Pool buffers whose backing storage had to be (re)allocated.
    pub planes_allocated: u64,
    /// Pool buffers handed out with their storage recycled in place.
    pub planes_reused: u64,
    /// Instruction executions whose kernel parameters were served from the
    /// plan's packed cache (built once at plan time) — the observable that
    /// steady-state frames perform zero kernel-parameter preparation.
    pub params_reused: u64,
    /// Instruction executions that ran the verifier-licensed narrow
    /// (`i32`-lane) path, accumulation and epilogue. Zero unless
    /// [`Kernels::Simd`] ran *and* the plan carried `narrow_acc` range
    /// proofs.
    pub narrow_instrs: u64,
    /// Instruction executions whose register-blocked sweep split its rows
    /// across the plan's lanes ([`BlockPlan::with_lanes`]) on scoped
    /// threads: one fork and one join each. Zero with one lane, and for
    /// every sweep under [`FAN_OUT_MIN_MACS`] host MACs.
    ///
    /// [`FAN_OUT_MIN_MACS`]: kernels::simd::FAN_OUT_MIN_MACS
    pub lane_forks: u64,
    /// Instruction executions whose 3×3 sweep ran on byte lanes: the
    /// AVX-512 VNNI `vpdpbusd` kernel over quad-interleaved `u8` source
    /// codes, for sweeps the plan licensed (8-bit source formats, `i8`
    /// weights) at least 32 columns wide. Zero on every other rung.
    pub byte_lane_sweeps: u64,
    /// Which kernel implementation produced these counters (merged across
    /// executions; [`KernelVariant::Mixed`] when they disagreed).
    pub kernel_variant: KernelVariant,
}

impl ExecStats {
    /// Adds `other`'s counters into `self`.
    pub fn accumulate(&mut self, other: &ExecStats) {
        self.mac3 += other.mac3;
        self.mac1 += other.mac1;
        self.bb_read_bytes += other.bb_read_bytes;
        self.bb_write_bytes += other.bb_write_bytes;
        self.di_bytes += other.di_bytes;
        self.do_bytes += other.do_bytes;
        self.instructions += other.instructions;
        self.planes_allocated += other.planes_allocated;
        self.planes_reused += other.planes_reused;
        self.params_reused += other.params_reused;
        self.narrow_instrs += other.narrow_instrs;
        self.lane_forks += other.lane_forks;
        self.byte_lane_sweeps += other.byte_lane_sweeps;
        self.kernel_variant = self.kernel_variant.merge(other.kernel_variant);
    }

    /// The deterministic work counters alone: the pool-recycling,
    /// packed-cache, lane-fork and byte-lane counters (which depend on
    /// arena warm-up state, kernel path and lane count, not on the input)
    /// are zeroed.
    /// This is the subset that is comparable across differently-warmed
    /// workers — e.g. a cold one-shot run vs a streaming session, or
    /// differently sharded executions of the same frame.
    pub fn work(&self) -> ExecStats {
        ExecStats {
            planes_allocated: 0,
            planes_reused: 0,
            params_reused: 0,
            narrow_instrs: 0,
            lane_forks: 0,
            byte_lane_sweeps: 0,
            kernel_variant: KernelVariant::None,
            ..*self
        }
    }

    /// Evenly attributes a multi-frame accumulation across `frames`
    /// frames (integer division: each counter's per-frame share, with
    /// sub-frame remainders dropped). Pipelined runs interleave bands of
    /// several frames on one pool, so throughput reporting divides the
    /// merged totals back down; `frames == 0` returns the counters
    /// unchanged.
    pub fn per_frame(&self, frames: u64) -> ExecStats {
        if frames == 0 {
            return *self;
        }
        ExecStats {
            mac3: self.mac3 / frames,
            mac1: self.mac1 / frames,
            bb_read_bytes: self.bb_read_bytes / frames,
            bb_write_bytes: self.bb_write_bytes / frames,
            di_bytes: self.di_bytes / frames,
            do_bytes: self.do_bytes / frames,
            instructions: self.instructions / frames,
            planes_allocated: self.planes_allocated / frames,
            planes_reused: self.planes_reused / frames,
            params_reused: self.params_reused / frames,
            narrow_instrs: self.narrow_instrs / frames,
            lane_forks: self.lane_forks / frames,
            byte_lane_sweeps: self.byte_lane_sweeps / frames,
            kernel_variant: self.kernel_variant,
        }
    }

    /// Counters accumulated since `mark`, an earlier snapshot of the same
    /// monotonically growing stream. The variant tag (not a counter) is
    /// carried over from `self`.
    pub fn delta_since(&self, mark: &ExecStats) -> ExecStats {
        ExecStats {
            mac3: self.mac3 - mark.mac3,
            mac1: self.mac1 - mark.mac1,
            bb_read_bytes: self.bb_read_bytes - mark.bb_read_bytes,
            bb_write_bytes: self.bb_write_bytes - mark.bb_write_bytes,
            di_bytes: self.di_bytes - mark.di_bytes,
            do_bytes: self.do_bytes - mark.do_bytes,
            instructions: self.instructions - mark.instructions,
            planes_allocated: self.planes_allocated - mark.planes_allocated,
            planes_reused: self.planes_reused - mark.planes_reused,
            params_reused: self.params_reused - mark.params_reused,
            narrow_instrs: self.narrow_instrs - mark.narrow_instrs,
            lane_forks: self.lane_forks - mark.lane_forks,
            byte_lane_sweeps: self.byte_lane_sweeps - mark.byte_lane_sweeps,
            kernel_variant: self.kernel_variant,
        }
    }

    /// Counts what one register-blocked sweep did.
    fn record(&mut self, swept: Swept) {
        self.lane_forks += u64::from(swept.forked);
        self.byte_lane_sweeps += u64::from(swept.bytes);
    }
}

/// Observed value extrema of one instruction from a range-instrumented
/// execution (see [`execute_traced`]). Each field mirrors one bound of
/// the verifier's `InstrRange` prediction; `None` when the instruction
/// produced no values at that stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InstrTrace {
    /// Final accumulator extrema: after srcS accumulation and ReLU,
    /// before requantization.
    pub acc: Option<(i64, i64)>,
    /// `ER` only: raw 3×3 expansion accumulator extrema across all
    /// leaves, before the internal ReLU/quantizer.
    pub er_acc3: Option<(i64, i64)>,
    /// Stored destination code extrema after requantization (for `DNX2`,
    /// scanned on the pre-pool grid, a superset of the pooled plane).
    pub dst: Option<(i64, i64)>,
}

/// Per-instruction observed extrema of one traced block execution.
#[derive(Clone, Debug, Default)]
pub struct ExecTrace {
    /// One record per instruction, in program order.
    pub instrs: Vec<InstrTrace>,
}

/// One observed-vs-predicted range violation found by
/// [`ExecTrace::check_against`]: `(instruction, stage, observed,
/// predicted)`.
pub type RangeViolation = (usize, &'static str, (i64, i64), (i64, i64));

impl ExecTrace {
    /// Checks every observed extremum against the verifier's predicted
    /// ranges, returning the first violation.
    pub fn check_against(&self, report: &VerifyReport) -> Option<RangeViolation> {
        for (i, t) in self.instrs.iter().enumerate() {
            let Some(Some(pred)) = report.ranges.get(i) else {
                continue;
            };
            let stages = [
                ("acc", t.acc, Some(pred.acc)),
                ("er_acc3", t.er_acc3, pred.er_acc3),
                ("dst", t.dst, Some(pred.dst)),
            ];
            for (name, observed, predicted) in stages {
                if let (Some(o), Some(p)) = (observed, predicted) {
                    if o.0 < p.0 || o.1 > p.1 {
                        return Some((i, name, o, p));
                    }
                }
            }
        }
        None
    }
}

fn scan_i64(t: &Tensor<i64>) -> Option<(i64, i64)> {
    let s = t.as_slice();
    let (first, rest) = s.split_first()?;
    Some(
        rest.iter()
            .fold((*first, *first), |(lo, hi), &v| (lo.min(v), hi.max(v))),
    )
}

fn scan_i16(t: &Tensor<i16>) -> Option<(i64, i64)> {
    let s = t.as_slice();
    let (first, rest) = s.split_first()?;
    let f = *first as i64;
    Some(
        rest.iter()
            .fold((f, f), |(lo, hi), &v| (lo.min(v as i64), hi.max(v as i64))),
    )
}

fn merge_extrema(slot: &mut Option<(i64, i64)>, obs: Option<(i64, i64)>) {
    if let Some((lo, hi)) = obs {
        *slot = Some(match *slot {
            Some((a, b)) => (a.min(lo), b.max(hi)),
            None => (lo, hi),
        });
    }
}

/// Planning-time record of one plane: where it lives, its shape, and its
/// lifetime in instruction indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlaneInfo {
    /// The `(buffer, group)` the plane occupies.
    pub loc: FeatLoc,
    /// Channel count: [`LEAF_CH`] for every plane except post-shuffle
    /// `UPX2` destinations, which carry `out_groups·LEAF_CH/4` channels.
    pub channels: usize,
    /// Spatial height.
    pub height: usize,
    /// Spatial width.
    pub width: usize,
    /// Instruction index that writes the plane; `None` for DI planes,
    /// which are streamed in before execution starts.
    pub born: Option<usize>,
    /// Index of the last instruction that reads the plane;
    /// `program.instructions.len()` marks the output-assembly step (DO
    /// planes). `None` for a plane that is never read.
    pub last_use: Option<usize>,
}

impl PlaneInfo {
    /// Elements (one byte each on the accelerator) of the compiled plane.
    fn elems(&self) -> usize {
        self.channels * self.height * self.width
    }
}

/// Operand plane indices (into `BlockPlan::planes`) of one instruction.
#[derive(Clone, Debug)]
struct Operands {
    /// One entry per gathered source group, in group order.
    src: Vec<usize>,
    /// The srcS operand, when present.
    src_s: Option<usize>,
    /// The destination plane.
    dst: usize,
}

/// The spatial extents, as `(rows, cols)`, one instruction runs at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstrExtents {
    /// The source planes it reads (at least the conv extent plus the 3×3
    /// halo; equal to it for `CONV1`).
    pub input: (usize, usize),
    /// Its conv output: the accumulator, pre-shuffle for `UPX2` and
    /// pre-pool for `DNX2`.
    pub conv: (usize, usize),
    /// The destination plane it writes.
    pub dst: (usize, usize),
    /// Where the accumulated extent starts inside the srcS plane: the
    /// compiled center crop, `(0, 0)` without srcS.
    pub srcs_offset: (usize, usize),
}

/// The extents one block execution runs at (see the module docs): the
/// compiled geometry ([`BlockPlan::extents`]) or an edge block's clipped
/// table ([`BlockPlan::clipped`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Extents {
    di: (usize, usize),
    instrs: Vec<InstrExtents>,
    out: (usize, usize),
}

impl Extents {
    /// One entry per instruction, in program order.
    pub fn instrs(&self) -> &[InstrExtents] {
        &self.instrs
    }

    /// The assembled output block (post-shuffle).
    pub fn out(&self) -> (usize, usize) {
        self.out
    }
}

/// The extent `ins` accumulates srcS over: its conv output, or its
/// shuffled destination for a `UPX2`.
fn srcs_domain(ins: &Instruction, conv: (usize, usize)) -> (usize, usize) {
    if ins.opcode == Opcode::Upx2 {
        dst_extent(ins, conv)
    } else {
        conv
    }
}

/// The rows (and columns) a conv output of `ins` reads beyond its own
/// extent: 2 for a truncated-pyramid 3×3, none for a 1×1 or a
/// zero-padded 3×3.
fn halo(ins: &Instruction) -> usize {
    if ins.opcode == Opcode::Conv1 || ins.inference == InferenceKind::ZeroPadded {
        0
    } else {
        2
    }
}

/// The destination extent of `ins` for a conv output `conv`.
fn dst_extent(ins: &Instruction, conv: (usize, usize)) -> (usize, usize) {
    match ins.opcode {
        Opcode::Upx2 => (2 * conv.0, 2 * conv.1),
        Opcode::Dnx2 => (conv.0 / ins.pool_factor, conv.1 / ins.pool_factor),
        _ => conv,
    }
}

/// The up-front execution plan for one [`Program`]: a single walk over the
/// instruction stream that validates leaf bookkeeping and operand
/// availability (write-before-read) and computes every plane's shape and
/// lifetime, so that [`execute_with`] can run check- and allocation-free
/// against a [`PlanePool`].
#[derive(Clone, Debug)]
pub struct BlockPlan<'a> {
    program: &'a Program,
    leafs: &'a [Vec<LeafParams>],
    /// Post-unshuffle DI plane count.
    di_groups: usize,
    /// Every plane the program touches: DI planes first, then one entry
    /// per instruction write, in program order.
    planes: Vec<PlaneInfo>,
    /// Each instruction's operand planes (indices into `planes`).
    bindings: Vec<Operands>,
    /// The DO planes assembled into the logical output block, in group
    /// order.
    do_planes: Vec<usize>,
    /// The compiled geometry as an extents table.
    extents: Extents,
    /// Per-instruction packed kernel parameters: weights widened once to
    /// `i32` in tap-major order, biases pre-aligned to the accumulator's
    /// fractional position, zero taps/leaves masked. Built on the plan's
    /// single walk and reused by every frame, so steady-state execution
    /// performs zero kernel-parameter preparation. Each entry also carries
    /// its `narrow_acc` license, stamped from the verifier's interval
    /// analysis at plan time.
    packed: Vec<PackedKernelParams>,
    /// The SIMD tier [`Kernels::Simd`] dispatches to, resolved once at
    /// plan time by runtime feature detection.
    simd: kernels::simd::SimdLevel,
    /// The threads a register-blocked sweep splits its rows across (see
    /// [`BlockPlan::with_lanes`]).
    lanes: usize,
    /// What one lane's band buffers must hold for a `Simd` execution at
    /// `simd` (see [`BlockPlan::band_scratch`]).
    band: BandScratch,
    /// Per-instruction live channel extents (see
    /// [`BlockPlan::live_channels`]).
    live: Vec<LiveChannels>,
    /// The verifier-licensed coalesced memory layout, stamped at plan
    /// time only when verification found no hard errors (mirroring the
    /// `narrow_acc` license). `None` means the keyed layout.
    memplan: Option<MemoryPlan>,
    /// The physical pool slot of each entry of `planes`: `memplan`'s
    /// slots when it is licensed, else the keyed table ([`keyed_slots`]).
    /// Every checkout and read goes through it.
    slots: Vec<usize>,
}

impl<'a> BlockPlan<'a> {
    /// Plans `program` with the IDU-decoded `leafs` (one vector per
    /// instruction, as produced by the compiler or `PackedParams::unpack`):
    /// verifies them ([`ecnn_isa::verify::verify`]) and stamps the
    /// report's licences on the plan. This is the self-verifying
    /// constructor; an engine's sessions plan through
    /// [`BlockPlan::proven`] instead, so a program is proven once per
    /// build.
    ///
    /// # Errors
    ///
    /// [`ExecError::Leafs`] for leaf-count mismatches,
    /// [`ExecError::MissingPlane`] / [`ExecError::ReadFromDo`] for operands
    /// that are read before any instruction writes them, and
    /// [`ExecError::Shape`] for statically inconsistent plane geometry.
    pub fn new(program: &'a Program, leafs: &'a [Vec<LeafParams>]) -> Result<Self, ExecError> {
        Self::licensed(program, leafs, &ecnn_isa::verify::verify(program, leafs))
    }

    /// Plans a [`Proven`] program with the licences of the verification
    /// it carries, without verifying again.
    ///
    /// # Errors
    ///
    /// As [`BlockPlan::new`].
    pub fn proven(proof: &'a Proven) -> Result<Self, ExecError> {
        let c = proof.compiled();
        Self::licensed(&c.program, &c.leafs, proof.report())
    }

    /// The plan walk shared by both constructors plus the packed kernel
    /// parameters, each stamped with its narrow licence; `report` must be
    /// the verification of exactly `program` and `leafs`, which both
    /// callers guarantee.
    fn licensed(
        program: &'a Program,
        leafs: &'a [Vec<LeafParams>],
        report: &VerifyReport,
    ) -> Result<Self, ExecError> {
        let mut plan = Self::walk(program, leafs, report)?;
        plan.packed = program
            .instructions
            .iter()
            .zip(leafs)
            .map(|(ins, l)| PackedKernelParams::pack(ins, l))
            .collect();
        // Stamp each instruction's narrow license from the verifier's
        // interval analysis: `narrow_acc` proves every convolution-stage
        // accumulator and the post-srcS accumulator fit `i32`, which
        // licenses the SIMD kernels' `i32` path end to end. An
        // instruction whose shifts the fused narrow epilogue does not
        // cover runs the `i64` packed kernels instead, as does every
        // instruction of a report with errors (or an unanalyzable one,
        // `ranges[i] == None`) — no proof, no narrow path.
        if !report.has_errors() {
            for ((p, r), ins) in plan
                .packed
                .iter_mut()
                .zip(&report.ranges)
                .zip(&program.instructions)
            {
                p.narrow_acc =
                    r.as_ref().is_some_and(|r| r.narrow_acc) && narrow_epilogues(ins).is_some();
            }
        }
        // Stamp each licensed 3×3 sweep's byte-lane licence where its
        // source codes provably fit `u8` after a fixed offset; packing
        // left the quad words out where a weight does not fit `i8`.
        let offsets: Vec<Option<i16>> = (0..plan.packed.len())
            .map(|i| plan.byte_offset(i))
            .collect();
        for ((p, offset), live) in plan.packed.iter_mut().zip(offsets).zip(&plan.live) {
            if let (true, Some(offset)) = (p.narrow_acc, offset) {
                for c3 in &mut p.conv3 {
                    c3.license_bytes(offset, live.input);
                }
            }
        }
        plan.band = plan.band_scratch();
        Ok(plan)
    }

    /// The offset that takes every source code of instruction `i` into
    /// `u8`: 0 when the declared source format and the formats its
    /// source planes were stored in (their producers' destination
    /// formats, or the DI format, whose zero padding fits too) are all
    /// unsigned of at most 8 bits, 128 when they all fit signed 8 bits,
    /// `None` otherwise. Every stored code is clamped to its format, so
    /// the offset codes fit whatever the pixels.
    fn byte_offset(&self, i: usize) -> Option<i16> {
        let program = self.program;
        let stored = self.bindings[i]
            .src
            .iter()
            .map(|&p| match self.planes[p].born {
                Some(j) => program.instructions[j].q.dst,
                None => program.di_q,
            });
        let (lo, hi) = std::iter::once(program.instructions[i].q.src)
            .chain(stored)
            .fold((0, 0), |(lo, hi), q| {
                (q.min_code().min(lo), q.max_code().max(hi))
            });
        match (lo, hi) {
            (0, ..=255) => Some(0),
            (-128.., ..=127) => Some(128),
            _ => None,
        }
    }

    /// What one lane's band buffers must hold for a [`Kernels::Simd`]
    /// execution at the plan's SIMD level, at most: a byte-lane sweep's
    /// repacked source band, and an `ER` band's mid codes and 1×1
    /// accumulators, at the compiled extents (clipped ones are smaller).
    /// The pool sizes each lane's buffers to it once.
    fn band_scratch(&self) -> BandScratch {
        let mut need = BandScratch::default();
        for (i, ins) in self.program.instructions.iter().enumerate() {
            let (pk, conv) = (&self.packed[i], self.extents.instrs[i].conv);
            if !pk.narrow_acc || !kernels::conv3_runs_blocked(ins, conv.1, self.simd) {
                continue;
            }
            if let Some(c3) = pk.conv3.first() {
                if kernels::conv3_runs_bytes(ins, c3, conv.1, self.simd) {
                    need = need.max(BandScratch::bytes(self.live[i], c3.in_groups, conv));
                }
            }
            if ins.opcode == Opcode::Er {
                need = need.max(BandScratch::er(conv));
            }
        }
        need
    }

    /// The plan walk: structural checks, the plane table, operand
    /// bindings, extents, live channels and the memory-plan licence —
    /// everything but the packed kernel parameters, which it leaves
    /// empty, so the plan it returns cannot execute.
    fn walk(
        program: &'a Program,
        leafs: &'a [Vec<LeafParams>],
        report: &VerifyReport,
    ) -> Result<Self, ExecError> {
        if leafs.len() != program.instructions.len() {
            return Err(ExecError::Leafs(format!(
                "{} leaf sets for {} instructions",
                leafs.len(),
                program.instructions.len()
            )));
        }
        let s = program.input_unshuffle.unwrap_or(1);
        if s == 0 || !program.di_side.is_multiple_of(s) {
            return Err(ExecError::Shape(format!(
                "DI side {} not divisible by unshuffle factor {s}",
                program.di_side
            )));
        }
        let di_plane_side = program.di_side / s;
        let di_groups = (program.di_channels * s * s).div_ceil(LEAF_CH);

        let mut planes: Vec<PlaneInfo> = Vec::new();
        // Latest write per location (index into `planes`).
        let mut live: HashMap<FeatLoc, usize> = HashMap::new();
        for g in 0..di_groups {
            let loc = FeatLoc::Di { group: g as u8 };
            live.insert(loc, planes.len());
            planes.push(PlaneInfo {
                loc,
                channels: LEAF_CH,
                height: di_plane_side,
                width: di_plane_side,
                born: None,
                last_use: None,
            });
        }

        let mark_read = |planes: &mut Vec<PlaneInfo>,
                         live: &HashMap<FeatLoc, usize>,
                         loc: FeatLoc,
                         at: usize,
                         expect_side: Option<usize>|
         -> Result<usize, ExecError> {
            if matches!(loc, FeatLoc::Do { .. }) {
                return Err(ExecError::ReadFromDo);
            }
            let idx = *live.get(&loc).ok_or(ExecError::MissingPlane(loc))?;
            let info = &mut planes[idx];
            if let Some(side) = expect_side {
                if info.height != side || info.width != side {
                    return Err(ExecError::Shape(format!(
                        "plane {}x{} vs expected side {side}",
                        info.height, info.width
                    )));
                }
            }
            info.last_use = Some(at);
            Ok(idx)
        };

        // Plane-table indices of every instruction's operands, recorded on
        // the same walk.
        let mut bindings: Vec<Operands> = Vec::with_capacity(program.instructions.len());

        for (i, (ins, leafset)) in program.instructions.iter().zip(leafs).enumerate() {
            // Structural invariants first, so the executor's `expect`
            // sites on Q-format presence are genuinely unreachable.
            if let Err(e) = ins.check() {
                return Err(ExecError::Leafs(format!("instr {i}: {e}")));
            }
            if ins.src_s.is_some() && ins.q.src_s.is_none() {
                return Err(ExecError::Leafs(format!(
                    "instr {i}: srcS operand without a srcS format"
                )));
            }
            if ins.opcode == Opcode::Er && ins.q.mid.is_none() {
                return Err(ExecError::Leafs(format!(
                    "instr {i}: ER without a mid format"
                )));
            }
            if ins.opcode.has_conv1x1() && ins.q.b1.is_none() {
                return Err(ExecError::Leafs(format!(
                    "instr {i}: 1x1 opcode without a 1x1 bias format"
                )));
            }
            if leafset.len() != ins.leaf_modules() {
                return Err(ExecError::Leafs(format!(
                    "{} leafs but instruction declares {}",
                    leafset.len(),
                    ins.leaf_modules()
                )));
            }
            let mut src_idx = Vec::with_capacity(ins.in_groups);
            for g in 0..ins.in_groups {
                src_idx.push(mark_read(
                    &mut planes,
                    &live,
                    ins.src.offset(g),
                    i,
                    Some(ins.in_size.0),
                )?);
            }
            let srcs_idx = match ins.src_s {
                // Geometry is checked at accumulation time (the srcS crop
                // depends on the destination domain).
                Some(srcs) => Some(mark_read(&mut planes, &live, srcs, i, None)?),
                None => None,
            };
            if matches!(ins.dst, FeatLoc::Di { .. }) {
                return Err(ExecError::Shape("cannot write to DI".into()));
            }
            bindings.push(Operands {
                src: src_idx,
                src_s: srcs_idx,
                dst: planes.len(),
            });
            live.insert(ins.dst, planes.len());
            planes.push(PlaneInfo {
                loc: ins.dst,
                // Post-shuffle UPX2 planes pack out_groups·LEAF_CH pre-
                // shuffle channels into out_groups·LEAF_CH/4 at 2× side.
                channels: if ins.opcode == Opcode::Upx2 {
                    ins.out_groups * LEAF_CH / 4
                } else {
                    LEAF_CH
                },
                height: ins.out_size.1,
                width: ins.out_size.0,
                born: Some(i),
                last_use: None,
            });
        }

        let out_groups = program.do_channels.div_ceil(LEAF_CH);
        let live_extents = program
            .instructions
            .iter()
            .map(|ins| live_channels(program, ins))
            .collect();
        let end = program.instructions.len();
        let mut do_idx = Vec::with_capacity(out_groups);
        for g in 0..out_groups {
            let loc = FeatLoc::Do { group: g as u8 };
            let idx = *live.get(&loc).ok_or(ExecError::MissingPlane(loc))?;
            if planes[idx].height != program.do_side {
                return Err(ExecError::Shape(format!(
                    "DO plane side {} vs {}",
                    planes[idx].height, program.do_side
                )));
            }
            planes[idx].last_use = Some(end);
            do_idx.push(idx);
        }

        // Coalesced plane layout, under the narrow licence's rule: only
        // an error-free verification proves no two simultaneously-live
        // planes share a slot. A divergent plane table (the verifier
        // derived a different plane count than this walk) also drops the
        // plan — no proof, no coalescing.
        let memplan = if report.has_errors() {
            None
        } else {
            MemoryPlan::build(report).filter(|m| m.plane_slots.len() == planes.len())
        };
        let slots = memplan
            .as_ref()
            .map_or_else(|| keyed_slots(&planes), |m| m.plane_slots.clone());
        let extents = Extents {
            di: (di_plane_side, di_plane_side),
            instrs: program
                .instructions
                .iter()
                .zip(&bindings)
                .map(|(ins, b)| {
                    let (cw, chh) = ins.conv_out_size();
                    let srcs_offset = b.src_s.map_or((0, 0), |s| {
                        let (ah, aw) = srcs_domain(ins, (chh, cw));
                        let plane = &planes[s];
                        (
                            plane.height.saturating_sub(ah) / 2,
                            plane.width.saturating_sub(aw) / 2,
                        )
                    });
                    InstrExtents {
                        input: (ins.in_size.1, ins.in_size.0),
                        conv: (chh, cw),
                        dst: (ins.out_size.1, ins.out_size.0),
                        srcs_offset,
                    }
                })
                .collect(),
            out: (program.do_side, program.do_side),
        };
        Ok(Self {
            program,
            leafs,
            di_groups,
            planes,
            bindings,
            do_planes: do_idx,
            extents,
            packed: Vec::new(),
            simd: kernels::simd::detect(),
            lanes: 1,
            band: BandScratch::default(),
            live: live_extents,
            memplan,
            slots,
        })
    }

    /// The planned program.
    pub fn program(&self) -> &'a Program {
        self.program
    }

    /// Every plane the program touches, with shapes and lifetimes: DI
    /// planes first (born `None`), then one entry per instruction write in
    /// program order.
    pub fn planes(&self) -> &[PlaneInfo] {
        &self.planes
    }

    /// Number of 32-channel DI planes streamed in per block.
    pub fn di_groups(&self) -> usize {
        self.di_groups
    }

    /// The per-instruction packed kernel-parameter cache the flat-slice
    /// micro-kernels consume (one entry per instruction, in program
    /// order).
    pub fn packed(&self) -> &[PackedKernelParams] {
        &self.packed
    }

    /// Heap bytes the packed kernel-parameter cache occupies.
    pub fn packed_bytes(&self) -> usize {
        self.packed.iter().map(PackedKernelParams::bytes).sum()
    }

    /// The SIMD tier [`Kernels::Simd`] executions of this plan dispatch
    /// to (resolved once at plan time by runtime feature detection).
    pub fn simd_level(&self) -> kernels::simd::SimdLevel {
        self.simd
    }

    /// Per-instruction live channel extents, in program order. A 3×3
    /// instruction (`CONV`, `DNX2`, `UPX2`) reading DI group `g` has
    /// `clamp(di_channels·s² − 32g, 0, 32)` live input channels per group
    /// (`s` the input unshuffle factor): the streamed-in padding is zero.
    /// One writing DO group `g` has `clamp(do_channels − 32g, 0, 32)` live
    /// output channels, four times that pre-shuffle for `UPX2`: the
    /// output assembly reads no others. Every other extent is full.
    /// Licensed [`Kernels::Simd`] executions on the register-blocked
    /// sweep compute only these extents ([`BlockPlan::dead_mac3`]); the
    /// other kernels compute every channel.
    pub fn live_channels(&self) -> &[LiveChannels] {
        &self.live
    }

    /// The 3×3 MACs per block that channel liveness removes from a
    /// [`Kernels::Simd`] execution of this plan: the dead input pairs
    /// (quads, on byte lanes) and output blocks of every licensed
    /// instruction the register-blocked
    /// sweep runs at the plan's SIMD level. [`ExecStats::mac3`] still
    /// counts the accelerator's MACs, dead ones included; the host
    /// executes `mac3 − dead_mac3()`. Equal to
    /// [`BlockPlan::skipped_macs`] of the plan's own extents.
    pub fn dead_mac3(&self) -> u64 {
        self.skipped_macs(&self.extents)
    }

    /// The MACs per block ([`ExecStats::mac3`] plus [`ExecStats::mac1`],
    /// which charge the compiled block) that a [`Kernels::Simd`]
    /// execution at `ext` leaves out: the dead channels of
    /// [`BlockPlan::dead_mac3`], at `ext`'s conv extents, plus every MAC
    /// outside those extents. The host executes `mac3 + mac1 −
    /// skipped_macs(ext)`.
    pub fn skipped_macs(&self, ext: &Extents) -> u64 {
        let mut skipped = 0;
        for (i, ins) in self.program.instructions.iter().enumerate() {
            let (nh, nw) = self.extents.instrs[i].conv;
            let (h, w) = ext.instrs[i].conv;
            let leaves = ins.leaf_modules();
            let (full, run) = match ins.opcode {
                Opcode::Conv | Opcode::Dnx2 | Opcode::Upx2 => {
                    let pk = &self.packed[i];
                    let p3 = &pk.conv3[0];
                    let full = p3.in_groups * p3.out_planes * LEAF_CH * LEAF_CH * 9;
                    let swept = if pk.narrow_acc && kernels::conv3_runs_blocked(ins, w, self.simd) {
                        // Byte lanes read whole quads, pair words pairs.
                        let live = self.live[i];
                        let bytes = kernels::conv3_runs_bytes(ins, p3, w, self.simd);
                        let swept_in: usize = (0..p3.in_groups)
                            .map(|ig| match bytes {
                                true => 4 * PackedConv3::live_quads(live.input, ig),
                                false => 2 * live.pairs(ig),
                            })
                            .sum();
                        let swept_out: usize = (0..p3.out_planes)
                            .map(|op_| OC_BLOCK * live.blocks(op_))
                            .sum();
                        swept_in * swept_out * 9
                    } else {
                        full
                    };
                    (full * nh * nw, swept * h * w)
                }
                Opcode::Conv1 => {
                    let per_px = leaves * LEAF_CH * LEAF_CH;
                    (per_px * nh * nw, per_px * h * w)
                }
                Opcode::Er => {
                    let per_px = leaves * LEAF_CH * LEAF_CH * 10;
                    (per_px * nh * nw, per_px * h * w)
                }
            };
            skipped += (full - run) as u64;
        }
        skipped
    }

    /// The compiled geometry as an extents table: what [`execute_with`]
    /// runs.
    pub fn extents(&self) -> &Extents {
        &self.extents
    }

    /// Rejects a table the kernels cannot run on this plan's program:
    /// one of another length, an extent past the compiled one, or a conv
    /// extent its source cannot feed (a 3×3 reads 2 more rows and
    /// columns, a 1×1 exactly as many). Plane extents that disagree
    /// between producer and consumer surface as [`ExecError::Shape`]
    /// during execution.
    fn check_extents(&self, ext: &Extents) -> Result<(), ExecError> {
        let within = |a: (usize, usize), b: (usize, usize)| a.0 <= b.0 && a.1 <= b.1;
        let full = &self.extents;
        let fits = ext.instrs.len() == full.instrs.len()
            && within(ext.di, full.di)
            && within(ext.out, full.out)
            && self
                .program
                .instructions
                .iter()
                .zip(ext.instrs.iter().zip(&full.instrs))
                .all(|(ins, (e, f))| {
                    let halo = halo(ins);
                    within(e.input, f.input)
                        && within(e.conv, f.conv)
                        && within((e.conv.0 + halo, e.conv.1 + halo), e.input)
                        && (ins.opcode != Opcode::Conv1 || e.conv == e.input)
                });
        if fits {
            Ok(())
        } else {
            Err(ExecError::Shape(
                "extents table does not fit the planned program".into(),
            ))
        }
    }

    /// The extents table of a block whose kept output is its top-left
    /// `keep = (rows, cols)` (see the module docs): every instruction
    /// computes only what the kept output depends on. `None` when `keep`
    /// covers the whole block, or is empty, and for zero-padded programs,
    /// whose 3×3s would treat the clip line as padding; those run the
    /// plan's own table. Also `None` when the derived table would not be
    /// runnable (the groups of one gathered source or of the output
    /// disagree in extent, or a `CONV1` run at its source's extent
    /// outgrows its srcS), which the shipped models never hit.
    pub fn clipped(&self, keep: (usize, usize)) -> Option<Extents> {
        let p = self.program;
        let keep = (keep.0.min(p.do_side), keep.1.min(p.do_side));
        if p.inference == InferenceKind::ZeroPadded
            || keep == self.extents.out
            || keep.0 == 0
            || keep.1 == 0
        {
            return None;
        }
        let grow = |e: &mut (usize, usize), (h, w): (usize, usize)| {
            *e = (e.0.max(h), e.1.max(w));
        };
        // Backward: the extent each plane's consumers read.
        let mut need = vec![(0, 0); self.planes.len()];
        for &d in &self.do_planes {
            grow(&mut need[d], keep);
        }
        let mut conv = vec![(0, 0); p.instructions.len()];
        for (i, ins) in p.instructions.iter().enumerate().rev() {
            let b = &self.bindings[i];
            let full = self.extents.instrs[i];
            // A written plane nobody reads still gets one pixel.
            let d = (need[b.dst].0.max(1), need[b.dst].1.max(1));
            let c = match ins.opcode {
                Opcode::Upx2 => (d.0.div_ceil(2), d.1.div_ceil(2)),
                Opcode::Dnx2 => (d.0 * ins.pool_factor, d.1 * ins.pool_factor),
                _ => d,
            };
            let c = (c.0.min(full.conv.0), c.1.min(full.conv.1));
            conv[i] = c;
            let halo = halo(ins);
            let input = (
                (c.0 + halo).min(full.input.0),
                (c.1 + halo).min(full.input.1),
            );
            for &s in &b.src {
                grow(&mut need[s], input);
            }
            if let Some(s) = b.src_s {
                let (ah, aw) = srcs_domain(ins, c);
                let (oy, ox) = full.srcs_offset;
                grow(&mut need[s], (oy + ah, ox + aw));
            }
        }
        // Forward: each plane has the extent its producer writes. A CONV1
        // maps pixels one to one, so it runs at its source's extent.
        let mut extent = need;
        let di = extent[..self.di_groups]
            .iter()
            .fold((1, 1), |a, &e| (a.0.max(e.0), a.1.max(e.1)));
        extent[..self.di_groups].fill(di);
        let mut instrs = Vec::with_capacity(p.instructions.len());
        for (i, ins) in p.instructions.iter().enumerate() {
            let b = &self.bindings[i];
            let full = self.extents.instrs[i];
            let input = extent[b.src[0]];
            if b.src.iter().any(|&s| extent[s] != input) {
                return None;
            }
            let conv = if ins.opcode == Opcode::Conv1 {
                input
            } else {
                conv[i]
            };
            if let Some(s) = b.src_s {
                let (ah, aw) = srcs_domain(ins, conv);
                let (oy, ox) = full.srcs_offset;
                if extent[s].0 < oy + ah || extent[s].1 < ox + aw {
                    return None;
                }
            }
            let dst = dst_extent(ins, conv);
            extent[b.dst] = dst;
            instrs.push(InstrExtents {
                input,
                conv,
                dst,
                srcs_offset: full.srcs_offset,
            });
        }
        let out = extent[self.do_planes[0]];
        if self.do_planes.iter().any(|&d| extent[d] != out) {
            return None;
        }
        Some(Extents { di, instrs, out })
    }

    /// How many instructions carry the verifier's narrow-accumulation
    /// (`i32`-safe) range proof.
    pub fn narrow_licensed(&self) -> usize {
        self.packed.iter().filter(|p| p.narrow_acc).count()
    }

    /// This plan with [`Kernels::Simd`] executions dispatched to `level`
    /// instead of the detected tier, so tests and benches can time or
    /// compare rungs on one host. `None` when this CPU cannot run `level`
    /// ([`SimdLevel::is_available`]).
    ///
    /// [`SimdLevel::is_available`]: kernels::simd::SimdLevel::is_available
    pub fn with_simd_level(mut self, level: kernels::simd::SimdLevel) -> Option<Self> {
        level.is_available().then(|| {
            self.simd = level;
            self.band = self.band_scratch();
            self
        })
    }

    /// This plan with every register-blocked sweep of a [`Kernels::Simd`]
    /// execution (the 3×3 sweeps, the 1×1 accumulations and each `ER`'s
    /// leaves) splitting its output rows across `lanes` threads: the
    /// calling thread and `lanes − 1` scoped ones, joined once per
    /// instruction ([`ExecStats::lane_forks`] counts the forks). Every
    /// row is computed by the same code from the same complete input
    /// plane, and the lanes write disjoint rows of the pool's planes, so
    /// output blocks and [`ExecStats::work`] are the same at every lane
    /// count. A sweep under [`FAN_OUT_MIN_MACS`] host MACs, and every
    /// other kernel, runs on the calling thread. Plans start at one lane
    /// (`0` is taken as one); `Engine::session` gives its plan the host's
    /// cores.
    ///
    /// [`FAN_OUT_MIN_MACS`]: kernels::simd::FAN_OUT_MIN_MACS
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes.max(1);
        self
    }

    /// The lanes a register-blocked sweep of this plan splits its rows
    /// across ([`BlockPlan::with_lanes`]).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The verifier-licensed coalesced memory layout, when one was proven
    /// at plan time (`None` means executions run the keyed
    /// one-slot-per-`(buffer, group)` layout).
    pub fn memory_plan(&self) -> Option<&MemoryPlan> {
        self.memplan.as_ref()
    }

    /// Whether executions of this plan run coalesced (a licensed
    /// [`MemoryPlan`] routes every plane onto shared physical slots).
    pub fn coalesced(&self) -> bool {
        self.memplan.is_some()
    }

    /// Revokes the coalesced memory plan, swapping in the keyed slot
    /// table: one slot per `(buffer, group)`. For parity tests, memory
    /// benchmarks and the supervisor's floor rung.
    pub fn force_keyed(&mut self) {
        self.memplan = None;
        self.slots = keyed_slots(&self.planes);
    }

    /// Peak plane bytes one block execution of *this* plan needs: the
    /// proven coalesced peak when a [`MemoryPlan`] is licensed, the keyed
    /// [`BlockPlan::peak_plane_bytes`] fallback otherwise. The pool's
    /// observed high-water mark ([`PlanePool::peak_resident_bytes`])
    /// never exceeds this.
    pub fn planned_peak_bytes(&self) -> usize {
        self.memplan
            .as_ref()
            .map_or_else(|| self.peak_plane_bytes(), |m| m.peak_bytes)
    }

    /// Peak bytes of *keyed* `(buffer, group)` plane storage one block
    /// execution needs. Scratch buffers (the gather input, the
    /// accumulators, the ER mid plane, the pre-pool / pre-shuffle plane and
    /// the assembled output) are pool-resident too but not counted here — a
    /// warm pool's total footprint is larger, dominated by the 4-byte
    /// (narrow) or 8-byte (`i64`) accumulator elements.
    pub fn peak_plane_bytes(&self) -> usize {
        // Slots are recycled in place, so the pool's footprint is the max
        // shape ever taken per slot.
        let mut peak = vec![0; self.planes.len()];
        for (p, s) in self.planes.iter().zip(keyed_slots(&self.planes)) {
            peak[s] = peak[s].max(p.elems() * std::mem::size_of::<i16>());
        }
        peak.iter().sum()
    }
}

/// The keyed slot table: one slot per distinct `(buffer, group)`, in order
/// of first appearance, so an in-place srcS chain (dst and srcS at one
/// location) shares one slot, which `finish` reads through a copy.
fn keyed_slots(planes: &[PlaneInfo]) -> Vec<usize> {
    let mut first: HashMap<FeatLoc, usize> = HashMap::new();
    planes
        .iter()
        .map(|p| {
            let next = first.len();
            *first.entry(p.loc).or_insert(next)
        })
        .collect()
}

/// The plane storage half of a [`PlanePool`], split out so the executor
/// can borrow it alongside the scratch accumulators: one plane per
/// physical slot of the plan's slot table. The arena tracks a
/// resident-bytes high-water mark, so the observed peak can be audited
/// against the planner's proven peak.
#[derive(Debug, Default)]
struct PlaneArena {
    slots: Vec<Option<Tensor<i16>>>,
    resident_bytes: usize,
    peak_resident_bytes: usize,
}

/// A reusable arena of feature planes, one per physical slot of a plan's
/// slot table, and scratch accumulators. One pool serves one executor
/// worker; after the first block has warmed every buffer to its peak
/// size, [`execute_with`] performs zero allocations per block. The pool
/// also owns the [`ExecStats`] counters its executions accumulate.
#[derive(Debug, Default)]
pub struct PlanePool {
    arena: PlaneArena,
    /// Multi-group source operands, gathered (single-group sources are
    /// read in place).
    wide: Option<Tensor<i16>>,
    /// Main `i64` accumulator of the `Packed` and `Reference` paths (and
    /// of unlicensed instructions under `Simd`, which run `Packed`'s
    /// kernels); a licensed narrow execution never touches it.
    acc_a: Option<Tensor<i64>>,
    /// Secondary `i64` accumulator: the shuffle target of a UPX2 with
    /// srcS (srcS accumulates in the shuffled domain), and ER's per-leaf
    /// 3×3 stage.
    acc_b: Option<Tensor<i64>>,
    /// Narrow (`i32`) twin of `acc_a`, used only by verifier-licensed
    /// [`Kernels::Simd`] executions, whose fused epilogue requantizes
    /// straight from it into the destination codes: CONV1's 1×1
    /// accumulator, and the CONV, UPX2 and ER instructions that do not
    /// finish from registers or bands (DNX2, a srcS UPX2, a keyed
    /// in-place chain, and sweeps the register-blocked kernels do not
    /// cover).
    acc_a32: Option<Tensor<i32>>,
    /// Narrow twin of `acc_b`: UPX2 shuffle target when srcS accumulates
    /// in the shuffled domain, and the ER per-leaf 3×3 stage of the sweeps
    /// the register-blocked kernels do not cover (their bands store mid
    /// codes directly).
    acc_b32: Option<Tensor<i32>>,
    /// ER requantized expansion plane of the sweeps the register-blocked
    /// kernels do not cover (theirs is a lane's band buffer).
    mid: Option<Tensor<i16>>,
    /// Pre-pool (DNX2) codes on every rung, and pre-shuffle (srcS-free
    /// UPX2) codes of the UPX2 sweeps that do not store their codes from
    /// registers.
    quant: Option<Tensor<i16>>,
    /// Copy of a srcS plane that shares its storage with the destination
    /// (the keyed layout's in-place chains).
    srcs_copy: Option<Tensor<i16>>,
    /// Assembled logical output block.
    out: Option<Tensor<i16>>,
    /// The lanes of the register-blocked sweeps and their band buffers
    /// (a byte-lane sweep's repacked source, an `ER` band's mid codes and
    /// 1×1 accumulators), sized from the plan before a `Simd` block.
    lanes: Lanes,
    stats: ExecStats,
}

/// Ensures `slot` holds a tensor, recording whether recycling it for
/// `needed` elements keeps its storage (`planes_reused`) or must allocate
/// (`planes_allocated`).
fn ensure_slot<'s, T: Copy + Default>(
    slot: &'s mut Option<Tensor<T>>,
    stats: &mut ExecStats,
    needed: usize,
) -> &'s mut Tensor<T> {
    match slot {
        Some(t) => {
            if t.capacity() < needed {
                stats.planes_allocated += 1;
            } else {
                stats.planes_reused += 1;
            }
        }
        None => {
            stats.planes_allocated += 1;
            *slot = Some(Tensor::zeros(1, 1, 1));
        }
    }
    slot.as_mut().expect("slot filled above")
}

/// [`ensure_slot`] plus an in-place [`Tensor::reset_no_fill`] to `c×h×w`
/// — for scratch whose every element the caller is about to overwrite
/// (stale values may survive the reshape).
fn ensure_overwrite<'s, T: Copy + Default>(
    slot: &'s mut Option<Tensor<T>>,
    stats: &mut ExecStats,
    c: usize,
    h: usize,
    w: usize,
) -> &'s mut Tensor<T> {
    let t = ensure_slot(slot, stats, c * h * w);
    t.reset_no_fill(c, h, w);
    t
}

/// Checks out the pooled plane in `slot` with shape `c×h×w`, recycling
/// its storage when capacity allows, and maintaining the arena's
/// resident-bytes high-water mark. `zero` selects whether recycled
/// contents are cleared; pass `false` only when every element will be
/// overwritten.
fn checkout<'m>(
    arena: &'m mut PlaneArena,
    stats: &mut ExecStats,
    slot: usize,
    c: usize,
    h: usize,
    w: usize,
    zero: bool,
) -> &'m mut Tensor<i16> {
    let needed = c * h * w;
    let displaced = plane_at(arena, slot).map_or(0, Tensor::len);
    arena.resident_bytes = arena.resident_bytes - displaced * std::mem::size_of::<i16>()
        + needed * std::mem::size_of::<i16>();
    arena.peak_resident_bytes = arena.peak_resident_bytes.max(arena.resident_bytes);
    if arena.slots.len() <= slot {
        arena.slots.resize_with(slot + 1, || None);
    }
    let t = ensure_slot(&mut arena.slots[slot], stats, needed);
    if zero {
        t.reset(c, h, w);
    } else {
        t.reset_no_fill(c, h, w);
    }
    t
}

/// The plane stored in `slot`, if any.
fn plane_at(arena: &PlaneArena, slot: usize) -> Option<&Tensor<i16>> {
    arena.slots.get(slot).and_then(Option::as_ref)
}

/// Reads the pooled plane for `loc` from its `slot`, charging
/// block-buffer read traffic for the compiled plane `info`, whatever
/// extent it runs at.
fn read_plane<'m>(
    arena: &'m PlaneArena,
    stats: &mut ExecStats,
    loc: FeatLoc,
    slot: usize,
    info: &PlaneInfo,
) -> Result<&'m Tensor<i16>, ExecError> {
    if matches!(loc, FeatLoc::Do { .. }) {
        return Err(ExecError::ReadFromDo);
    }
    let plane = plane_at(arena, slot).ok_or(ExecError::MissingPlane(loc))?;
    if matches!(loc, FeatLoc::Bb { .. }) {
        stats.bb_read_bytes += info.elems() as u64;
    }
    Ok(plane)
}

impl PlanePool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks out the plane in `slot` with shape `channels×height×width`
    /// (zero-filled), recycling its storage when capacity allows. Every
    /// slot owns disjoint storage: a checked-out plane never aliases
    /// another live plane.
    pub fn checkout(
        &mut self,
        slot: usize,
        channels: usize,
        height: usize,
        width: usize,
    ) -> &mut Tensor<i16> {
        checkout(
            &mut self.arena,
            &mut self.stats,
            slot,
            channels,
            height,
            width,
            true,
        )
    }

    /// The plane currently pooled in `slot`, if any.
    pub fn plane(&self, slot: usize) -> Option<&Tensor<i16>> {
        plane_at(&self.arena, slot)
    }

    /// Counters accumulated by executions (and checkouts) on this pool.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Number of pooled planes currently resident (occupied slots).
    pub fn resident_planes(&self) -> usize {
        self.arena.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Plane bytes currently resident (occupied slots, at their current
    /// logical shapes; scratch is counted by
    /// [`PlanePool::scratch_bytes`]).
    pub fn resident_bytes(&self) -> usize {
        self.arena.resident_bytes
    }

    /// Bytes allocated for the pool's scratch, at capacity: the gathered
    /// source, the `i64` and `i32` accumulators, the ER mid plane, the
    /// pre-pool and pre-shuffle codes, the srcS copy, the assembled
    /// output block and every lane's band buffers. With the planes'
    /// storage it is the pool's memory.
    pub fn scratch_bytes(&self) -> usize {
        fn bytes<T: Copy + Default>(t: &Option<Tensor<T>>) -> usize {
            t.as_ref()
                .map_or(0, |t| t.capacity() * std::mem::size_of::<T>())
        }
        bytes(&self.wide)
            + bytes(&self.acc_a)
            + bytes(&self.acc_b)
            + bytes(&self.acc_a32)
            + bytes(&self.acc_b32)
            + bytes(&self.mid)
            + bytes(&self.quant)
            + bytes(&self.srcs_copy)
            + bytes(&self.out)
            + self.lanes.bytes()
    }

    /// High-water mark of [`PlanePool::resident_bytes`] over every
    /// checkout this pool has served — the observed counterpart of
    /// `BlockPlan::planned_peak_bytes`, which it provably never exceeds.
    /// Survives [`PlanePool::clear`].
    pub fn peak_resident_bytes(&self) -> usize {
        self.arena.peak_resident_bytes
    }

    /// Drops every pooled buffer (planes, scratch and the assembled
    /// output) while keeping the counters and the resident-bytes
    /// high-water mark.
    pub fn clear(&mut self) {
        self.arena.slots.clear();
        self.arena.resident_bytes = 0;
        self.wide = None;
        self.acc_a = None;
        self.acc_b = None;
        self.acc_a32 = None;
        self.acc_b32 = None;
        self.mid = None;
        self.quant = None;
        self.srcs_copy = None;
        self.out = None;
        self.lanes = Lanes::default();
    }
}

/// Which accumulation kernels [`execute_with`] runs. All three produce
/// bit-identical output blocks on every input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernels {
    /// The flat-slice micro-kernels fed by the plan's packed parameter
    /// cache (interior/border split, zero per-frame prep) — the
    /// supervisor's second degradation rung.
    Packed,
    /// The kept pre-packing scalar kernels
    /// ([`crate::kernels::reference`]): bit-identical output, used as the
    /// measured perf baseline and the parity-test oracle.
    Reference,
    /// Explicit SIMD micro-kernels ([`crate::kernels::simd`]) over the
    /// same packed layout, dispatched at plan time by runtime feature
    /// detection ([`BlockPlan::simd_level`]); instructions whose plan
    /// entry carries the verifier's `narrow_acc` proof run in `i32` end
    /// to end: the `i32`-lane accumulation (register-blocked where the
    /// rung and sweep allow) and the fused requantizing epilogue.
    /// Instructions without it run the exact `i64` [`Kernels::Packed`]
    /// kernels.
    Simd,
}

impl Kernels {
    /// Every selectable kernel family, fastest first — the supervisor's
    /// degradation-ladder order (`supervise::ladder`).
    pub const ALL: [Kernels; 3] = [Kernels::Simd, Kernels::Packed, Kernels::Reference];

    /// Stable lowercase name (`"simd"`, `"packed"`, `"reference"`), the
    /// inverse of [`Kernels::parse`] — the serialization token used by
    /// `EngineConfig::to_json` and the `ECNN_KERNELS` override.
    pub fn as_str(self) -> &'static str {
        match self {
            Kernels::Packed => "packed",
            Kernels::Reference => "reference",
            Kernels::Simd => "simd",
        }
    }

    /// Parses a `Kernels` from a case-insensitive name as used by the
    /// `ECNN_KERNELS` env override and `bench_kernels --variant`
    /// (`"packed"`, `"simd"`, `"reference"`).
    pub fn parse(name: &str) -> Option<Kernels> {
        match name.to_ascii_lowercase().as_str() {
            "packed" => Some(Kernels::Packed),
            "simd" => Some(Kernels::Simd),
            "reference" => Some(Kernels::Reference),
            _ => None,
        }
    }

    /// The [`KernelVariant`] tag an execution of this selection reports,
    /// given the plan's resolved SIMD tier.
    pub fn variant(self, level: kernels::simd::SimdLevel) -> KernelVariant {
        use kernels::simd::SimdLevel;
        match self {
            Kernels::Packed => KernelVariant::Packed,
            Kernels::Reference => KernelVariant::Reference,
            Kernels::Simd => match level {
                SimdLevel::Avx512 => KernelVariant::SimdAvx512,
                SimdLevel::Avx2 => KernelVariant::SimdAvx2,
                SimdLevel::Sse2 => KernelVariant::SimdSse2,
                SimdLevel::Neon => KernelVariant::SimdNeon,
                SimdLevel::Scalar => KernelVariant::SimdScalar,
            },
        }
    }
}

/// Executes one planned block on `pool` with the `kernels` family,
/// returning the pool-owned logical output block (side
/// `program.do_side`), valid until the next execution. Every kernel
/// family produces bit-identical output blocks and identical
/// [`ExecStats::work`] counters; only speed (and the non-work cache
/// counters) differ.
///
/// `input` holds the *logical* input channels (e.g. 3 for RGB) as codes in
/// the program's `di_q` format, with side `program.di_side`.
///
/// # Errors
///
/// See [`ExecError`]. Operand availability and leaf bookkeeping were
/// already validated by [`BlockPlan::new`]; the remaining runtime errors
/// guard data-dependent geometry.
pub fn execute_with<'p>(
    plan: &BlockPlan<'_>,
    pool: &'p mut PlanePool,
    input: &Tensor<i16>,
    kernels: Kernels,
) -> Result<&'p Tensor<i16>, ExecError> {
    execute_inner(plan, plan.extents(), pool, input, kernels, None)
}

/// [`execute_with`] at the extents table `ext`: the plan's own
/// ([`BlockPlan::extents`]) or one of its clipped edge tables
/// ([`BlockPlan::clipped`]). The output block is `ext.out()` large, the
/// top-left of the full block's output exactly; the [`ExecStats`] work
/// counters charge the full block whatever `ext` is.
///
/// # Errors
///
/// As [`execute_with`]; [`ExecError::Shape`] when `ext` is not a table of
/// `plan`'s program the kernels can run.
pub fn execute_at<'p>(
    plan: &BlockPlan<'_>,
    ext: &Extents,
    pool: &'p mut PlanePool,
    input: &Tensor<i16>,
    kernels: Kernels,
) -> Result<&'p Tensor<i16>, ExecError> {
    execute_inner(plan, ext, pool, input, kernels, None)
}

/// [`execute_with`] on the reference kernels with per-instruction range
/// instrumentation: every accumulator is scanned for its extrema right
/// before requantization (and every `ER` expansion accumulator before its
/// internal ReLU), so the observed ranges can be checked against the
/// static verifier's predicted `InstrRange`s via
/// [`ExecTrace::check_against`].
///
/// # Errors
///
/// See [`execute_with`].
pub fn execute_traced(
    plan: &BlockPlan<'_>,
    pool: &mut PlanePool,
    input: &Tensor<i16>,
) -> Result<(Tensor<i16>, ExecTrace), ExecError> {
    let mut trace = ExecTrace {
        instrs: vec![InstrTrace::default(); plan.program.instructions.len()],
    };
    let out = execute_inner(
        plan,
        plan.extents(),
        pool,
        input,
        Kernels::Reference,
        Some(&mut trace.instrs),
    )?
    .clone();
    Ok((out, trace))
}

fn execute_inner<'p>(
    plan: &BlockPlan<'_>,
    ext: &Extents,
    pool: &'p mut PlanePool,
    input: &Tensor<i16>,
    kernels: Kernels,
    mut traces: Option<&mut [InstrTrace]>,
) -> Result<&'p Tensor<i16>, ExecError> {
    let p = plan.program;
    plan.check_extents(ext)?;
    if input.height() != p.di_side || input.width() != p.di_side {
        return Err(ExecError::Shape(format!(
            "input {}x{} vs DI side {}",
            input.height(),
            input.width(),
            p.di_side
        )));
    }
    if input.channels() != p.di_channels {
        return Err(ExecError::Shape(format!(
            "input channels {} vs {}",
            input.channels(),
            p.di_channels
        )));
    }
    stream_input(plan, ext.di, pool, input);
    if kernels == Kernels::Simd {
        pool.stats.planes_allocated += pool.lanes.reserve(plan.lanes, plan.band);
    }
    pool.stats.kernel_variant = pool.stats.kernel_variant.merge(kernels.variant(plan.simd));
    for (i, ins) in p.instructions.iter().enumerate() {
        let trace = traces.as_deref_mut().map(|t| &mut t[i]);
        let e = &ext.instrs[i];
        match ins.opcode {
            Opcode::Conv | Opcode::Dnx2 | Opcode::Upx2 => {
                exec_conv3(plan, i, e, pool, kernels, trace)?
            }
            Opcode::Conv1 => exec_conv1(plan, i, e, pool, kernels, trace)?,
            Opcode::Er => exec_er(plan, i, e, pool, kernels, trace)?,
        }
        // Both fast paths consume the plan's packed parameter cache.
        if kernels != Kernels::Reference {
            pool.stats.params_reused += 1;
        }
        pool.stats.instructions += 1;
    }
    assemble_output(plan, ext.out, pool)
}

/// Checks the plan of a [`Proven`] program without building it: the
/// structural checks and plane table of [`BlockPlan::proven`], with no
/// kernel parameter packed, cross-checked against the proof's report
/// ([`crosscheck_plan`]). Returns whether plans of the program run
/// coalesced ([`BlockPlan::coalesced`]) and the divergences.
///
/// # Errors
///
/// As [`BlockPlan::proven`].
pub fn crosscheck_proven(proof: &Proven) -> Result<(bool, Vec<Diagnostic>), ExecError> {
    let c = proof.compiled();
    let plan = BlockPlan::walk(&c.program, &c.leafs, proof.report())?;
    Ok((plan.coalesced(), crosscheck_plan(&plan, proof.report())))
}

/// Cross-checks the simulator's plan against the static verifier's
/// independently derived plane table — the two halves of the
/// differential oracle. Returns one `plan-divergence` diagnostic per
/// disagreement (shape, placement, or lifetime); an empty vector means
/// the two derivations agree exactly.
pub fn crosscheck_plan(plan: &BlockPlan<'_>, report: &VerifyReport) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut diverge = |instr: Option<usize>, detail: String| {
        out.push(Diagnostic {
            code: DiagCode::PlanDivergence,
            severity: DiagCode::PlanDivergence.severity(),
            instr,
            detail,
        });
    };
    let planned = plan.planes();
    if planned.len() != report.planes.len() {
        diverge(
            None,
            format!(
                "plan tracks {} planes, verifier derived {}",
                planned.len(),
                report.planes.len()
            ),
        );
        return out;
    }
    for (info, rec) in planned.iter().zip(&report.planes) {
        if info.loc != rec.loc {
            diverge(
                rec.born,
                format!("plane {} vs verifier {}", info.loc, rec.loc),
            );
            continue;
        }
        if (info.channels, info.height, info.width) != (rec.channels, rec.height, rec.width) {
            diverge(
                rec.born,
                format!(
                    "{}: plan shape {}x{}x{} vs verifier {}x{}x{}",
                    rec.loc,
                    info.channels,
                    info.height,
                    info.width,
                    rec.channels,
                    rec.height,
                    rec.width
                ),
            );
        }
        if info.born != rec.born || info.last_use != rec.last_use {
            diverge(
                rec.born,
                format!(
                    "{}: plan lifetime {:?}..{:?} vs verifier {:?}..{:?}",
                    rec.loc, info.born, info.last_use, rec.born, rec.last_use
                ),
            );
        }
    }
    out
}

/// The live channel extents of `ins` in `program` (see
/// [`BlockPlan::live_channels`]).
fn live_channels(program: &Program, ins: &Instruction) -> LiveChannels {
    let upx2 = ins.opcode == Opcode::Upx2;
    let full = LiveChannels::full(ins.in_groups, if upx2 { ins.out_groups } else { 1 });
    if !matches!(ins.opcode, Opcode::Conv | Opcode::Dnx2 | Opcode::Upx2) {
        return full;
    }
    let s = program.input_unshuffle.unwrap_or(1);
    let input = match ins.src {
        FeatLoc::Di { group } => {
            (program.di_channels * s * s).saturating_sub(group as usize * LEAF_CH)
        }
        _ => full.input,
    };
    let output = match ins.dst {
        FeatLoc::Do { group } => {
            let read = program
                .do_channels
                .saturating_sub(group as usize * LEAF_CH)
                .min(LEAF_CH);
            if upx2 {
                4 * read
            } else {
                read
            }
        }
        _ => full.output,
    };
    LiveChannels {
        input: input.min(full.input),
        output: output.min(full.output),
    }
}

/// Unpacks the top-left `(h, w)` of the DI stream into pooled 32-channel
/// planes, applying the DI-side unshuffle (DnERNet-12ch) and zero-channel
/// padding in place. The DI bytes charged are the whole streamed block's.
fn stream_input(
    plan: &BlockPlan<'_>,
    (h, w): (usize, usize),
    pool: &mut PlanePool,
    input: &Tensor<i16>,
) {
    pool.stats.di_bytes += input.len() as u64;
    let s = plan.program.input_unshuffle.unwrap_or(1);
    let in_ch = input.channels();
    for g in 0..plan.di_groups {
        let plane = checkout(
            &mut pool.arena,
            &mut pool.stats,
            plan.slots[g],
            LEAF_CH,
            h,
            w,
            false,
        );
        for c in 0..LEAF_CH {
            let oc = g * LEAF_CH + c;
            let ic = oc / (s * s);
            if ic >= in_ch {
                // Zero-channel padding (the plane is not pre-cleared).
                plane.channel_mut(c).fill(0);
                continue;
            }
            if s == 1 && w == input.width() {
                plane
                    .channel_mut(c)
                    .copy_from_slice(&input.channel(ic)[..h * w]);
                continue;
            }
            let rem = oc % (s * s);
            let (dy, dx) = (rem / s, rem % s);
            for y in 0..h {
                let src = input.row(ic, y * s + dy);
                for (d, &v) in plane
                    .row_mut(c, y)
                    .iter_mut()
                    .zip(src[dx..].iter().step_by(s))
                {
                    *d = v;
                }
            }
        }
    }
}

/// The source operand of instruction `idx`, its `in_groups` consecutive
/// planes at extent `(h, w)`, each read from its slot: the pooled plane
/// itself for one group, else the planes gathered into the pool's wide
/// scratch.
fn gather<'m>(
    arena: &'m PlaneArena,
    wide: &'m mut Option<Tensor<i16>>,
    stats: &mut ExecStats,
    plan: &BlockPlan<'_>,
    idx: usize,
    (h, w): (usize, usize),
) -> Result<&'m Tensor<i16>, ExecError> {
    let ins = &plan.program.instructions[idx];
    let planes = &plan.bindings[idx].src;
    let group = |g: usize, stats: &mut ExecStats| -> Result<&'m Tensor<i16>, ExecError> {
        let p = planes[g];
        let plane = read_plane(
            arena,
            stats,
            ins.src.offset(g),
            plan.slots[p],
            &plan.planes[p],
        )?;
        if plane.shape() != (LEAF_CH, h, w) {
            return Err(ExecError::Shape(format!(
                "plane {:?} vs expected {LEAF_CH}x{h}x{w}",
                plane.shape()
            )));
        }
        Ok(plane)
    };
    if ins.in_groups == 1 {
        return group(0, stats);
    }
    let wide = ensure_overwrite(wide, stats, ins.in_groups * LEAF_CH, h, w);
    for (g, slab) in wide
        .as_mut_slice()
        .chunks_exact_mut(LEAF_CH * h * w)
        .enumerate()
    {
        // Groups are consecutive 32-channel slabs: one contiguous copy.
        slab.copy_from_slice(group(g, stats)?.as_slice());
    }
    Ok(wide)
}

/// Charges write traffic for the compiled destination plane `info`,
/// whatever extent it was written at.
fn count_write(stats: &mut ExecStats, program: &Program, info: &PlaneInfo) {
    let (len, px) = (info.elems(), info.height * info.width);
    match info.loc {
        FeatLoc::Bb { .. } => stats.bb_write_bytes += len as u64,
        FeatLoc::Do { group } => {
            // Only logical channels leave the chip.
            stats.do_bytes += len
                .min(LEAF_CH.min(program.do_channels.saturating_sub(group as usize * LEAF_CH)) * px)
                as u64;
        }
        FeatLoc::Di { .. } => unreachable!("plan rejects DI writes"),
    }
}

fn exec_conv3(
    plan: &BlockPlan<'_>,
    idx: usize,
    ext: &InstrExtents,
    pool: &mut PlanePool,
    kind: Kernels,
    trace: Option<&mut InstrTrace>,
) -> Result<(), ExecError> {
    let ins = &plan.program.instructions[idx];
    let leafs = plan.leafs[idx].as_slice();
    // Leaf ordering (see compiler): UPX2 has one leaf per pre-shuffle
    // output plane; CONV/DNX2 have one leaf per input group.
    let upx2 = ins.opcode == Opcode::Upx2;
    let out_planes = if upx2 { ins.out_groups } else { 1 };
    let (chh, cw) = ext.conv;
    let pk = &plan.packed[idx];
    let live = plan.live[idx];
    // Verifier-licensed narrow path: every conv-stage sum and the
    // post-srcS sum provably fit `i32`, so the wrapping `i32`-lane
    // accumulation and the fused epilogue are exact.
    let narrow = kind == Kernels::Simd && pk.narrow_acc;
    // Register-resident finish: a licensed CONV (srcS added in the
    // store) or srcS-free UPX2 sweep on the register-blocked kernels
    // stores its final codes straight into the destination plane
    // (pixel-shuffled for UPX2), checked out at the live output channels
    // only, so no `i32` accumulator and no pre-shuffle codes are
    // written. A sweep whose destination shares a slot with a source or
    // its srcS (a keyed in-place chain) keeps the accumulator.
    let binding = &plan.bindings[idx];
    let dst_slot = plan.slots[binding.dst];
    let srcs = binding.src_s.map(|p| (p, plan.slots[p]));
    let stores = narrow
        && match ins.opcode {
            Opcode::Conv => true,
            Opcode::Upx2 => srcs.is_none(),
            _ => false,
        }
        && kernels::conv3_runs_blocked(ins, cw, plan.simd)
        && binding
            .src
            .iter()
            .chain(srcs.as_ref().map(|(p, _)| p))
            .all(|&p| plan.slots[p] != dst_slot);
    let stage = if stores {
        let f = if upx2 { 2 } else { 1 };
        let c = live.output.next_multiple_of(OC_BLOCK) / (f * f);
        checkout(
            &mut pool.arena,
            &mut pool.stats,
            dst_slot,
            c,
            f * chh,
            f * cw,
            false,
        );
        // INVARIANT: `BlockPlan::new` licenses only instructions whose
        // epilogues `narrow_epilogues` covers.
        let (ep, _) = narrow_epilogues(ins).expect("plan licenses supported epilogues only");
        // Out of its slot while the sweep reads the source planes, and
        // back before any error leaves.
        let mut dst = pool.arena.slots[dst_slot]
            .take()
            .expect("checked out above");
        let ran = gather(
            &pool.arena,
            &mut pool.wide,
            &mut pool.stats,
            plan,
            idx,
            ext.input,
        )
        .and_then(|input| {
            let srcs = srcs_plane(
                plan,
                idx,
                &pool.arena,
                &mut pool.stats,
                (LEAF_CH, chh, cw),
                ext,
            )?;
            Ok(kernels::conv3_codes_packed_simd_narrow(
                ins,
                input,
                &pk.conv3[0],
                live,
                &ep,
                srcs.map(|(_, p)| (p, ext.srcs_offset)),
                &mut dst,
                plan.simd,
                &mut pool.lanes,
            ))
        });
        pool.arena.slots[dst_slot] = Some(dst);
        pool.stats
            .record(ran?.expect("conv3_runs_blocked admitted the sweep"));
        Stage::Stored
    } else {
        let input = gather(
            &pool.arena,
            &mut pool.wide,
            &mut pool.stats,
            plan,
            idx,
            ext.input,
        )?;
        if narrow {
            let acc = ensure_overwrite(
                &mut pool.acc_a32,
                &mut pool.stats,
                out_planes * LEAF_CH,
                chh,
                cw,
            );
            let swept = kernels::conv3_acc_packed_simd_narrow(
                ins,
                input,
                &pk.conv3[0],
                live,
                acc,
                plan.simd,
                &mut pool.lanes,
            );
            pool.stats.record(swept);
            Stage::Narrow
        } else {
            let acc = ensure_overwrite(
                &mut pool.acc_a,
                &mut pool.stats,
                out_planes * LEAF_CH,
                chh,
                cw,
            );
            if kind == Kernels::Reference {
                let weights = |op_: usize, ig: usize| {
                    let leaf = if upx2 { &leafs[op_] } else { &leafs[ig] };
                    leaf.w3.as_slice()
                };
                let (b3_frac, frac) = (ins.q.b3.frac() as i32, acc_frac(ins));
                let biases = |op_: usize| -> Vec<i64> {
                    let mut b = vec![0i64; LEAF_CH];
                    if upx2 {
                        for (oc, bv) in b.iter_mut().enumerate() {
                            *bv = align_code(leafs[op_].b3[oc] as i64, b3_frac, frac);
                        }
                    } else {
                        for leaf in leafs {
                            for (oc, bv) in b.iter_mut().enumerate() {
                                *bv += align_code(leaf.b3[oc] as i64, b3_frac, frac);
                            }
                        }
                    }
                    b
                };
                kernels::reference::conv3_acc_into(ins, input, &weights, &biases, out_planes, acc);
            } else {
                kernels::conv3_acc_packed(ins, input, &pk.conv3[0], acc);
            }
            Stage::Wide
        }
    };
    // The accelerator's MACs: the compiled block, whatever `ext` runs.
    let (cw, chh) = ins.conv_out_size();
    pool.stats.mac3 += (out_planes * ins.in_groups * LEAF_CH * LEAF_CH * 9 * cw * chh) as u64;
    finish(plan, idx, ext, pool, stage, trace)
}

/// Overwrites `acc` with the reference path's 1×1 biases: every leaf's,
/// aligned to the accumulator and summed.
fn reference_bias1(acc: &mut Tensor<i64>, ins: &Instruction, leafs: &[LeafParams]) {
    // INVARIANT: format presence validated by `BlockPlan::new`.
    let b1_frac = ins.q.b1.expect("plan validated the 1x1 bias format").frac() as i32;
    let frac = acc_frac(ins);
    for oc in 0..LEAF_CH {
        let b = leafs
            .iter()
            .map(|leaf| align_code(leaf.b1[oc] as i64, b1_frac, frac))
            .sum();
        acc.channel_mut(oc).fill(b);
    }
}

fn exec_conv1(
    plan: &BlockPlan<'_>,
    idx: usize,
    ext: &InstrExtents,
    pool: &mut PlanePool,
    kind: Kernels,
    trace: Option<&mut InstrTrace>,
) -> Result<(), ExecError> {
    let ins = &plan.program.instructions[idx];
    let leafs = plan.leafs[idx].as_slice();
    let input = gather(
        &pool.arena,
        &mut pool.wide,
        &mut pool.stats,
        plan,
        idx,
        ext.input,
    )?;
    let (h, w) = ext.conv;
    let pk = &plan.packed[idx];
    // Licensed narrow path (see `exec_conv3`).
    let narrow = kind == Kernels::Simd && pk.narrow_acc;
    if narrow {
        let packed = pk.conv1.as_ref().expect("CONV1 packs a 1x1");
        let acc = ensure_overwrite(&mut pool.acc_a32, &mut pool.stats, LEAF_CH, h, w);
        kernels::fill_bias(acc, &packed.bias);
        let forked = kernels::conv1_acc_packed_simd_narrow(
            packed,
            0..packed.leaves,
            input,
            acc,
            plan.simd,
            &mut pool.lanes,
        );
        pool.stats.lane_forks += u64::from(forked);
    } else {
        let acc = ensure_overwrite(&mut pool.acc_a, &mut pool.stats, LEAF_CH, h, w);
        if kind == Kernels::Reference {
            reference_bias1(acc, ins, leafs);
            for (ig, leaf) in leafs.iter().enumerate() {
                kernels::reference::conv1_leaf_acc(&leaf.w1, input, ig * LEAF_CH, acc);
            }
        } else {
            let packed = pk.conv1.as_ref().expect("CONV1 packs a 1x1");
            // Bias fill over row slices, zero columns hoisted to the
            // plan-time compaction.
            kernels::fill_bias(acc, &packed.bias);
            for leaf in 0..packed.leaves {
                kernels::conv1_leaf_acc_packed(packed, leaf, input, leaf * LEAF_CH, acc);
            }
        }
    }
    let (w, h) = ins.in_size;
    pool.stats.mac1 += (leafs.len() * LEAF_CH * LEAF_CH * h * w) as u64;
    let stage = if narrow { Stage::Narrow } else { Stage::Wide };
    finish(plan, idx, ext, pool, stage, trace)
}

fn exec_er(
    plan: &BlockPlan<'_>,
    idx: usize,
    ext: &InstrExtents,
    pool: &mut PlanePool,
    kind: Kernels,
    mut trace: Option<&mut InstrTrace>,
) -> Result<(), ExecError> {
    let ins = &plan.program.instructions[idx];
    let (chh, cw) = ext.conv;
    // A licensed ER on the register-blocked kernels finishes band by band
    // straight into its destination rows, unless the destination shares
    // a slot with its source or srcS (a keyed in-place chain), which then
    // finishes from `acc_a32`. The destination is out of its slot while
    // the bands read the source, and back before any error leaves.
    let binding = &plan.bindings[idx];
    let dst_slot = plan.slots[binding.dst];
    let to_dst = kind == Kernels::Simd
        && plan.packed[idx].narrow_acc
        && kernels::conv3_runs_blocked(ins, cw, plan.simd)
        && binding
            .src
            .iter()
            .chain(&binding.src_s)
            .all(|&p| plan.slots[p] != dst_slot);
    let mut dst = to_dst.then(|| {
        checkout(
            &mut pool.arena,
            &mut pool.stats,
            dst_slot,
            LEAF_CH,
            chh,
            cw,
            false,
        );
        pool.arena.slots[dst_slot]
            .take()
            .expect("checked out above")
    });
    let stage = er_stage(
        plan,
        idx,
        ext,
        pool,
        kind,
        dst.as_mut(),
        trace.as_deref_mut(),
    );
    if let Some(d) = dst {
        pool.arena.slots[dst_slot] = Some(d);
    }
    let stage = stage?;
    let (nw, nh) = ins.conv_out_size();
    pool.stats.mac1 += (plan.leafs[idx].len() * LEAF_CH * LEAF_CH * nw * nh) as u64;
    finish(plan, idx, ext, pool, stage, trace)
}

/// The accumulation stage of `ER` instruction `idx`: into `dst` when the
/// caller took it out of its slot for a band finish, else into the `i32`
/// or `i64` accumulator [`finish`] rounds.
fn er_stage(
    plan: &BlockPlan<'_>,
    idx: usize,
    ext: &InstrExtents,
    pool: &mut PlanePool,
    kind: Kernels,
    dst: Option<&mut Tensor<i16>>,
    mut trace: Option<&mut InstrTrace>,
) -> Result<Stage, ExecError> {
    let ins = &plan.program.instructions[idx];
    let leafs = plan.leafs[idx].as_slice();
    // INVARIANT: format presence validated by `BlockPlan::new`.
    let midq = ins.q.mid.expect("plan validated the mid format");
    let prod3 = ins.q.w3.frac() as i32 + ins.q.src.frac() as i32;
    let (chh, cw) = ext.conv;
    let input = gather(
        &pool.arena,
        &mut pool.wide,
        &mut pool.stats,
        plan,
        idx,
        ext.input,
    )?;
    let packed = &plan.packed[idx];
    // The accelerator's MACs per leaf: the compiled block's.
    let (nw, nh) = ins.conv_out_size();
    let mac3 = (LEAF_CH * LEAF_CH * 9 * nw * nh) as u64;
    if kind == Kernels::Simd && packed.narrow_acc {
        // Licensed narrow path. For ER the verifier's `narrow_acc` proves
        // *both* stages fit `i32`: the per-leaf 3×3 expansion accumulators
        // (which the mid requantizer consumes, so they must be exact, not
        // merely congruent) and the 1×1 reduction accumulator, before and
        // after the srcS add.
        let (ep, mid_ep) = narrow_epilogues(ins).expect("plan licenses supported epilogues only");
        let mid_ep = mid_ep.expect("ER carries a mid epilogue");
        let p1 = packed.conv1.as_ref().expect("ER packs a 1x1");
        pool.stats.mac3 += mac3 * leafs.len() as u64;
        if kernels::conv3_runs_blocked(ins, cw, plan.simd) {
            // Expansion planes: CONV3x3 -> ReLU -> quantize to mid format
            // in registers, each leaf's LCONV1x1 into the 32ch output,
            // band by band in one fan-out, then the final epilogue.
            let (finish, stage) = match dst {
                Some(dst) => {
                    let shape = (LEAF_CH, chh, cw);
                    let srcs = srcs_plane(plan, idx, &pool.arena, &mut pool.stats, shape, ext)?;
                    let srcs = srcs.map(|(_, p)| (p, ext.srcs_offset));
                    (ErFinish::Codes { ep: &ep, srcs, dst }, Stage::Stored)
                }
                None => {
                    let acc1 =
                        ensure_overwrite(&mut pool.acc_a32, &mut pool.stats, LEAF_CH, chh, cw);
                    (ErFinish::Acc(acc1), Stage::Narrow)
                }
            };
            let lanes = &mut pool.lanes;
            let swept = simd::er_blocked_narrow(
                plan.simd,
                lanes,
                input,
                &packed.conv3,
                &mid_ep,
                p1,
                finish,
            );
            pool.stats
                .record(swept.expect("conv3_runs_blocked admitted the sweep"));
            return Ok(stage);
        }
        // The row-kernel sweeps go through an `i32` plane.
        let acc1 = ensure_overwrite(&mut pool.acc_a32, &mut pool.stats, LEAF_CH, chh, cw);
        kernels::fill_bias(acc1, &p1.bias);
        let mid = ensure_overwrite(&mut pool.mid, &mut pool.stats, LEAF_CH, chh, cw);
        let one = &mut Lanes::default();
        for (li, conv3) in packed.conv3.iter().enumerate() {
            let full = LiveChannels::full(conv3.in_groups, conv3.out_planes);
            let acc3 = ensure_overwrite(&mut pool.acc_b32, &mut pool.stats, LEAF_CH, chh, cw);
            kernels::conv3_acc_packed_simd_narrow(ins, input, conv3, full, acc3, plan.simd, one);
            simd::epilogue_narrow(plan.simd, &mid_ep, acc3, None, mid, LEAF_CH);
            kernels::conv1_acc_packed_simd_narrow(p1, li..li + 1, mid, acc1, plan.simd, one);
        }
        return Ok(Stage::Narrow);
    }
    {
        let acc1 = ensure_overwrite(&mut pool.acc_a, &mut pool.stats, LEAF_CH, chh, cw);
        match kind {
            Kernels::Reference => reference_bias1(acc1, ins, leafs),
            // Pre-aligned 1x1 biases, already summed across leaves.
            _ => kernels::fill_bias(acc1, &packed.conv1.as_ref().expect("ER packs a 1x1").bias),
        }
    }
    for (li, leaf) in leafs.iter().enumerate() {
        // Expansion plane: CONV3x3 -> ReLU -> quantize to mid format.
        let acc3 = ensure_overwrite(&mut pool.acc_b, &mut pool.stats, LEAF_CH, chh, cw);
        if kind == Kernels::Reference {
            let weights = |_: usize, _: usize| leaf.w3.as_slice();
            let b3_frac = ins.q.b3.frac() as i32;
            let biases = |_: usize| -> Vec<i64> {
                (0..LEAF_CH)
                    .map(|oc| align_code(leaf.b3[oc] as i64, b3_frac, prod3))
                    .collect()
            };
            let mut single = Instruction::clone(ins);
            single.in_groups = 1;
            // The plane convolves the single 32ch input group.
            kernels::reference::conv3_acc_into(&single, input, &weights, &biases, 1, acc3);
        } else {
            kernels::conv3_acc_packed(ins, input, &packed.conv3[li], acc3);
        }
        pool.stats.mac3 += mac3;
        if let Some(t) = trace.as_deref_mut() {
            merge_extrema(&mut t.er_acc3, scan_i64(acc3));
        }
        let mid = ensure_overwrite(&mut pool.mid, &mut pool.stats, LEAF_CH, chh, cw);
        for (m, &a) in mid.as_mut_slice().iter_mut().zip(acc3.as_slice()) {
            let v = if a < 0 { 0 } else { a }; // ER's internal ReLU
            *m = midq.clamp_code(rescale_code(v, prod3, midq.frac() as i32));
        }
        // LCONV1x1: plane's columns accumulate into the 32ch output.
        let acc1 = pool.acc_a.as_mut().expect("bias-filled above");
        if kind == Kernels::Reference {
            kernels::reference::conv1_leaf_acc(&leaf.w1, mid, 0, acc1);
        } else {
            let p1 = packed.conv1.as_ref().expect("ER packs a 1x1");
            kernels::conv1_leaf_acc_packed(p1, li, mid, 0, acc1);
        }
    }
    Ok(Stage::Wide)
}

/// The slot and plane of instruction `idx`'s srcS, read once (charging
/// its block-buffer traffic) and checked to cover an accumulator shaped
/// `acc` at the table's offset; `None` without srcS.
fn srcs_plane<'m>(
    plan: &BlockPlan<'_>,
    idx: usize,
    arena: &'m PlaneArena,
    stats: &mut ExecStats,
    acc: (usize, usize, usize),
    ext: &InstrExtents,
) -> Result<Option<(usize, &'m Tensor<i16>)>, ExecError> {
    let (Some(loc), Some(p)) = (
        plan.program.instructions[idx].src_s,
        plan.bindings[idx].src_s,
    ) else {
        return Ok(None);
    };
    let slot = plan.slots[p];
    let plane = read_plane(arena, stats, loc, slot, &plan.planes[p])?;
    check_srcs_domain(acc, plane, ext.srcs_offset)?;
    Ok(Some((slot, plane)))
}

/// Fractional bits of `ins`'s final accumulator: the 3×3 products over the
/// source codes (CONV, DNX2, UPX2), the 1×1 products over the source codes
/// (CONV1) or over ER's mid codes.
fn acc_frac(ins: &Instruction) -> i32 {
    // INVARIANT: format presence validated by `BlockPlan::new`.
    let w1 = || ins.q.w1.expect("plan validated the 1x1 weight format");
    let (w, x) = match ins.opcode {
        Opcode::Conv | Opcode::Dnx2 | Opcode::Upx2 => (ins.q.w3, ins.q.src),
        Opcode::Conv1 => (w1(), ins.q.src),
        Opcode::Er => (w1(), ins.q.mid.expect("plan validated the mid format")),
    };
    w.frac() as i32 + x.frac() as i32
}

/// Whether the instruction's final epilogue applies ReLU. ER's ReLU lives
/// inside the leaf, before the mid quantizer.
fn final_relu(ins: &Instruction) -> bool {
    ins.relu && ins.opcode != Opcode::Er
}

/// The fused narrow epilogues of `ins`: the final one (srcS, ReLU and
/// requantization to the destination format) and, for `ER`, the mid
/// quantizer (internal ReLU, requantization to the mid format). `None`
/// when either has a shape [`NarrowEpilogue::new`] does not cover —
/// `BlockPlan::new` then leaves the instruction unlicensed, so `Simd` runs
/// it on the `i64` packed kernels.
fn narrow_epilogues(ins: &Instruction) -> Option<(NarrowEpilogue, Option<NarrowEpilogue>)> {
    let mid = match ins.opcode {
        Opcode::Er => {
            let conv3 = ins.q.w3.frac() as i32 + ins.q.src.frac() as i32;
            Some(NarrowEpilogue::new(conv3, ins.q.mid?, true, None)?)
        }
        _ => None,
    };
    let srcs_frac = ins.q.src_s.map(|q| q.frac() as i32);
    let last = NarrowEpilogue::new(acc_frac(ins), ins.q.dst, final_relu(ins), srcs_frac)?;
    Some((last, mid))
}

/// Write access to the checked-out plane in slot `dst` together with read
/// access to the distinct plane in slot `src`: the final rounding writes
/// one while it reads the other. `None` if either is absent.
fn dst_and_src(
    arena: &mut PlaneArena,
    dst: usize,
    src: usize,
) -> Option<(&mut Tensor<i16>, &Tensor<i16>)> {
    let [d, s] = arena.slots.get_disjoint_mut([dst, src]).ok()?;
    Some((d.as_mut()?, s.as_ref()?))
}

/// What an instruction's conv stage left for [`finish`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    /// The exact `i64` accumulator in `acc_a`.
    Wide,
    /// A licensed instruction's `i32` accumulator in `acc_a32`.
    Narrow,
    /// A licensed instruction's final codes, already in its destination
    /// plane (the register finish of `exec_conv3`, the band finish of
    /// `er_stage`).
    Stored,
}

/// The accumulator an instruction's conv stage left in the pool.
enum Acc<'a> {
    /// A verifier-licensed narrow instruction's `i32` accumulator.
    Narrow(&'a mut Tensor<i32>),
    /// The exact `i64` accumulator of every other instruction.
    Wide(&'a mut Tensor<i64>),
}

/// The accumulator in `acc`, or its ×2 pixel shuffle into `scratch` when
/// `shuffle`.
fn shuffled<'s, T: Copy + Default>(
    acc: &'s mut Option<Tensor<T>>,
    scratch: &'s mut Option<Tensor<T>>,
    stats: &mut ExecStats,
    shuffle: bool,
) -> &'s mut Tensor<T> {
    let acc = acc.as_mut().expect("the conv stage filled the accumulator");
    if !shuffle {
        return acc;
    }
    let out = ensure_slot(scratch, stats, acc.len());
    acc.pixel_shuffle_into(2, out);
    out
}

/// Checks the `(height, width)` an instruction produced against the
/// destination extent its table declares.
fn check_produced((oh, ow): (usize, usize), ext: &InstrExtents) -> Result<(), ExecError> {
    if (oh, ow) != ext.dst {
        let (dh, dw) = ext.dst;
        return Err(ExecError::Shape(format!(
            "produced {ow}x{oh} vs declared {dw}x{dh}"
        )));
    }
    Ok(())
}

/// Finishes instruction `idx` from what its conv stage left (`stage`):
/// the ADDE, activation, single rounding and Dst Reorder tail every
/// opcode and kernel rung shares. Codes the stage already stored in the
/// destination (a CONV, srcS-free UPX2 or ER on the register-blocked
/// kernels, srcS read and added there) only take the produced-size check
/// and the traffic count. Otherwise
/// UPX2 with srcS shuffles the accumulator (`acc_a32` or `acc_a`) first
/// (srcS accumulates in the shuffled domain). srcS is read once, through
/// a copy when the destination overwrites it in place. The sum is rounded
/// into the destination codes, or into scratch codes that DNX2 pools and
/// the remaining srcS-free UPX2 (row kernels, `Packed`, `Reference`)
/// pixel-shuffle into the destination. Only the rounding differs by rung:
/// a narrow instruction runs the fused [`simd::epilogue_narrow`] over the
/// plan's live output channels (a quarter of them after a shuffle; the
/// conv stage may have left the rest stale, a direct store never writes
/// them and nothing reads the stale codes a reordered store leaves), every
/// other one adds srcS, applies ReLU and requantizes every channel in
/// `i64`, recording `trace` extrema.
fn finish(
    plan: &BlockPlan<'_>,
    idx: usize,
    ext: &InstrExtents,
    pool: &mut PlanePool,
    stage: Stage,
    mut trace: Option<&mut InstrTrace>,
) -> Result<(), ExecError> {
    let program = plan.program;
    let ins = &program.instructions[idx];
    let binding = &plan.bindings[idx];
    let PlanePool {
        arena,
        acc_a,
        acc_b,
        acc_a32,
        acc_b32,
        quant,
        srcs_copy,
        stats,
        ..
    } = pool;
    let dst_slot = plan.slots[binding.dst];
    let shuffle_codes = ins.opcode == Opcode::Upx2 && ins.src_s.is_none();
    let shuffle_acc = ins.opcode == Opcode::Upx2 && !shuffle_codes;
    let mut acc = match stage {
        Stage::Stored => {
            stats.narrow_instrs += 1;
            let dst = plane_at(arena, dst_slot).expect("the conv stage stored dst");
            check_produced((dst.height(), dst.width()), ext)?;
            if let Some(t) = trace {
                merge_extrema(&mut t.dst, scan_i16(dst));
            }
            count_write(stats, program, &plan.planes[binding.dst]);
            return Ok(());
        }
        Stage::Narrow => {
            stats.narrow_instrs += 1;
            Acc::Narrow(shuffled(acc_a32, acc_b32, stats, shuffle_acc))
        }
        Stage::Wide => Acc::Wide(shuffled(acc_a, acc_b, stats, shuffle_acc)),
    };
    let (ac, ah, aw) = match &acc {
        Acc::Narrow(a) => a.shape(),
        Acc::Wide(a) => a.shape(),
    };
    let (oc, oh, ow) = match ins.opcode {
        Opcode::Upx2 if shuffle_codes => (ac / 4, 2 * ah, 2 * aw),
        Opcode::Dnx2 => (ac, ah / ins.pool_factor, aw / ins.pool_factor),
        _ => (ac, ah, aw),
    };
    check_produced((oh, ow), ext)?;
    let live = plan.live[idx].output / if shuffle_acc { 4 } else { 1 };
    let offset = ext.srcs_offset;
    let mut round = |srcs: Option<&Tensor<i16>>, codes: &mut Tensor<i16>| {
        match &mut acc {
            Acc::Narrow(a) => {
                // INVARIANT: `BlockPlan::new` licenses only instructions
                // whose epilogues `narrow_epilogues` covers.
                let (ep, _) =
                    narrow_epilogues(ins).expect("plan licenses supported epilogues only");
                simd::epilogue_narrow(plan.simd, &ep, a, srcs.map(|s| (s, offset)), codes, live);
            }
            Acc::Wide(a) => {
                let frac = acc_frac(ins);
                if let (Some(plane), Some(sq)) = (srcs, ins.q.src_s) {
                    add_aligned(a, plane, offset, sq.frac() as i32, frac);
                }
                if final_relu(ins) {
                    a.as_mut_slice().iter_mut().for_each(|v| *v = (*v).max(0));
                }
                if let Some(t) = trace.as_deref_mut() {
                    merge_extrema(&mut t.acc, scan_i64(a));
                }
                requantize_into(a, frac, ins.q.dst, codes);
            }
        }
        if let Some(t) = trace.as_deref_mut() {
            merge_extrema(&mut t.dst, scan_i16(codes));
        }
    };
    let srcs_slot = srcs_plane(plan, idx, arena, stats, (ac, ah, aw), ext)?.map(|(slot, _)| slot);
    if ins.opcode == Opcode::Dnx2 || shuffle_codes {
        // Round into scratch, then reorder the codes into dst.
        let codes = ensure_overwrite(quant, stats, ac, ah, aw);
        round(srcs_slot.and_then(|s| plane_at(arena, s)), codes);
        let dst = checkout(arena, stats, dst_slot, oc, oh, ow, false);
        match ins.pool {
            Some(kind) => pool_into(codes, kind, ins.pool_factor, dst),
            None => codes.pixel_shuffle_into(2, dst),
        }
    } else if srcs_slot == Some(dst_slot) {
        // dst overwrites srcS in place: read a copy.
        let plane = plane_at(arena, dst_slot).expect("srcS was read above");
        let (pc, ph, pw) = plane.shape();
        let copy = ensure_overwrite(srcs_copy, stats, pc, ph, pw);
        copy.as_mut_slice().copy_from_slice(plane.as_slice());
        let dst = checkout(arena, stats, dst_slot, ac, ah, aw, false);
        round(Some(copy), dst);
    } else {
        let dst = checkout(arena, stats, dst_slot, ac, ah, aw, false);
        match srcs_slot {
            None => round(None, dst),
            Some(src_slot) => {
                let (dst, plane) = dst_and_src(arena, dst_slot, src_slot)
                    .expect("srcS was read and dst checked out above");
                round(Some(plane), dst);
            }
        }
    }
    count_write(stats, program, &plan.planes[binding.dst]);
    Ok(())
}

/// Assembles the logical output block, `(h, w)` large, from the pooled DO
/// planes.
fn assemble_output<'p>(
    plan: &BlockPlan<'_>,
    (h, w): (usize, usize),
    pool: &'p mut PlanePool,
) -> Result<&'p Tensor<i16>, ExecError> {
    let program = plan.program;
    // Every (channel, y, x) is written below — the DO groups tile the
    // logical channel range — so stale contents need no clearing.
    let out = ensure_overwrite(&mut pool.out, &mut pool.stats, program.do_channels, h, w);
    for (g, &p) in plan.do_planes.iter().enumerate() {
        let plane = plane_at(&pool.arena, plan.slots[p])
            .ok_or(ExecError::MissingPlane(FeatLoc::Do { group: g as u8 }))?;
        if (plane.height(), plane.width()) != (h, w) {
            return Err(ExecError::Shape(format!(
                "DO plane {}x{} vs output {w}x{h}",
                plane.width(),
                plane.height(),
            )));
        }
        for c in 0..LEAF_CH {
            let oc = g * LEAF_CH + c;
            if oc >= program.do_channels {
                break;
            }
            out.channel_mut(oc).copy_from_slice(plane.channel(c));
        }
    }
    Ok(out)
}

/// Guards the srcS accumulation domain of an accumulator shaped
/// `(channels, height, width)` read at `(oy, ox)` inside the plane: the
/// plane must cover it spatially (it is cropped, never extended) and
/// carry at least the accumulated channel count. `finish` checks it
/// before its rounding step reads srcS, so the executor returns a
/// structured error where it used to assert; `ecnn_isa::verify` proves
/// the same property statically (`shape-mismatch`).
fn check_srcs_domain(
    (ac, ah, aw): (usize, usize, usize),
    plane: &Tensor<i16>,
    (oy, ox): (usize, usize),
) -> Result<(), ExecError> {
    let (pc, ph, pw) = plane.shape();
    if ph < oy + ah || pw < ox + aw {
        return Err(ExecError::Shape(format!(
            "srcS plane {pw}x{ph} smaller than the {aw}x{ah} accumulator at offset ({ox}, {oy})"
        )));
    }
    if pc < ac.min(LEAF_CH) {
        return Err(ExecError::Shape(format!(
            "srcS carries {pc} channel(s) for a {ac}-channel accumulator"
        )));
    }
    Ok(())
}

/// Adds a quantized plane into an accumulator tensor, cropping the plane
/// at `(oy, ox)` when it is larger than the accumulator (truncated-pyramid
/// skips). Row-sliced; the common upshift alignment is hoisted to one
/// shift per element with no per-element branch.
///
/// INVARIANT: callers run [`check_srcs_domain`] first, so the domain
/// asserts below are unreachable from public entry points.
fn add_aligned(
    acc: &mut Tensor<i64>,
    plane: &Tensor<i16>,
    (oy, ox): (usize, usize),
    plane_frac: i32,
    acc_frac: i32,
) {
    let (ac, ah, aw) = acc.shape();
    let (pc, ph, pw) = plane.shape();
    assert!(pc >= ac.min(LEAF_CH), "srcS channel mismatch");
    assert!(
        ph >= oy + ah && pw >= ox + aw,
        "srcS smaller than accumulator"
    );
    let up = acc_frac >= plane_frac;
    let shift = (acc_frac - plane_frac).unsigned_abs();
    let mut add_rows = |dst: &mut [i64], src: &[i16]| {
        if up {
            for (a, &v) in dst.iter_mut().zip(src) {
                *a += (v as i64) << shift;
            }
        } else {
            for (a, &v) in dst.iter_mut().zip(src) {
                *a += align_code(v as i64, plane_frac, acc_frac);
            }
        }
    };
    if (ph, pw) == (ah, aw) {
        for c in 0..ac.min(pc) {
            acc.zip_rows(c, plane, c, &mut add_rows);
        }
    } else {
        for c in 0..ac.min(pc) {
            for y in 0..ah {
                add_rows(acc.row_mut(c, y), &plane.row(c, y + oy)[ox..ox + aw]);
            }
        }
    }
}

/// Requantizes full-precision accumulators at `acc_frac` into `dst`'s
/// codes at format `q` — the datapath's single output rounding. `dst` is
/// already shaped to match `acc`; every element is overwritten.
fn requantize_into(acc: &Tensor<i64>, acc_frac: i32, q: QFormat, dst: &mut Tensor<i16>) {
    debug_assert_eq!(acc.len(), dst.len());
    let dst_frac = q.frac() as i32;
    for (d, &a) in dst.as_mut_slice().iter_mut().zip(acc.as_slice()) {
        *d = q.clamp_code(rescale_code(a, acc_frac, dst_frac));
    }
}

/// Pooling on quantized codes (Dst Reorder) into a pre-shaped destination,
/// one output row at a time: stride pooling samples the source row with a
/// `step_by`, max pooling folds each source row's `factor`-wide windows
/// into the output row.
fn pool_into(t: &Tensor<i16>, kind: PoolKind, factor: usize, dst: &mut Tensor<i16>) {
    let (c, _, _) = t.shape();
    debug_assert_eq!(dst.channels(), c);
    let (dh, dw) = (dst.height(), dst.width());
    for ch in 0..c {
        for y in 0..dh {
            match kind {
                PoolKind::Stride => {
                    let src = t.row(ch, y * factor);
                    for (d, &v) in dst
                        .row_mut(ch, y)
                        .iter_mut()
                        .zip(src.iter().step_by(factor))
                    {
                        *d = v;
                    }
                }
                PoolKind::Max => {
                    let out = dst.row_mut(ch, y);
                    out.fill(i16::MIN);
                    for dy in 0..factor {
                        let src = &t.row(ch, y * factor + dy)[..dw * factor];
                        for (d, window) in out.iter_mut().zip(src.chunks_exact(factor)) {
                            for &v in window {
                                *d = (*d).max(v);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Convenience: quantize a float image block into input codes for
/// [`execute_with`].
pub fn quantize_input(block: &Tensor<f32>, program: &Program) -> Tensor<i16> {
    block.map(|v| program.di_q.quantize(v))
}

/// Convenience: dequantize an output block back to floats.
pub fn dequantize_output(block: &Tensor<i16>, program: &Program) -> Tensor<f32> {
    block.map(|c| program.do_q.dequantize(c))
}

/// Peak MACs available in `cycles` CIU cycles (for utilization reports).
pub fn peak_macs(config: &EcnnConfig, cycles: u64) -> u64 {
    cycles * config.total_multipliers()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecnn_isa::compile::compile;
    use ecnn_isa::params::QuantizedModel;
    use ecnn_model::ernet::{ErNetSpec, ErNetTask};
    use ecnn_model::layer::{Activation, Layer, Op};
    use ecnn_model::model::Model;
    use ecnn_tensor::conv::{conv3x3_fixed, FixedConvParams, Padding};
    use ecnn_tensor::SyntheticImage;

    /// Plans `leafs` for `program` and runs one block on a fresh pool with
    /// the SIMD kernels engines default to.
    fn run_block(
        program: &Program,
        leafs: &[Vec<LeafParams>],
        input: &Tensor<i16>,
    ) -> Result<(Tensor<i16>, ExecStats), ExecError> {
        let plan = BlockPlan::new(program, leafs)?;
        let mut pool = PlanePool::new();
        let out = execute_with(&plan, &mut pool, input, Kernels::Simd)?.clone();
        Ok((out, pool.stats()))
    }

    /// Single 3->32 conv: the simulator must agree with the golden fixed
    /// kernel exactly.
    #[test]
    fn single_conv_matches_golden_kernel() {
        let m = Model::new(
            "one-conv",
            3,
            32,
            vec![Layer::new(Op::Conv3x3 {
                in_c: 3,
                out_c: 32,
                act: Activation::None,
            })],
        )
        .unwrap();
        let qm = QuantizedModel::uniform(&m);
        let c = compile(&qm, 16).unwrap();
        let img = SyntheticImage::new(ecnn_tensor::ImageKind::Mixed, 3).rgb(16, 16);
        let input = img.map(|v| qm.input_q.quantize(v));

        let (out, _) = run_block(&c.program, &c.leafs, &input).unwrap();
        assert_eq!(out.shape(), (32, 14, 14));

        // Golden: hardware-padded 32ch input into conv3x3_fixed.
        let p = qm.layers[0].as_ref().unwrap();
        let padded = input.with_channels(32);
        let golden = conv3x3_fixed(
            &padded,
            qm.input_q.frac() as i32,
            &FixedConvParams {
                weights: &p.w3,
                w_format: p.w3_q,
                bias: &p.b3,
                b_format: p.b3_q,
                out_format: p.out_q,
            },
            32,
            Padding::Valid,
        );
        assert_eq!(out, golden);
    }

    #[test]
    fn er_module_residual_is_exact_identity_with_zero_weights() {
        // An ER module with all-zero weights must reduce to the residual:
        // output == center crop of input (requantized).
        let m = Model::new(
            "er-id",
            32,
            32,
            vec![Layer::new(Op::ErModule {
                channels: 32,
                expansion: 2,
            })],
        )
        .unwrap();
        let mut qm = QuantizedModel::uniform(&m);
        {
            let p = qm.layers[0].as_mut().unwrap();
            p.w3.iter_mut().for_each(|w| *w = 0);
            p.w1.iter_mut().for_each(|w| *w = 0);
            p.b3.iter_mut().for_each(|b| *b = 0);
            p.b1.iter_mut().for_each(|b| *b = 0);
            p.out_q = qm.input_q; // same format => exact pass-through
        }
        let c = compile(&qm, 12).unwrap();
        let input = Tensor::from_fn(32, 12, 12, |ch, y, x| ((ch + y * 3 + x) % 200) as i16);
        let (out, _) = run_block(&c.program, &c.leafs, &input).unwrap();
        assert_eq!(out.shape(), (32, 10, 10));
        for ch in 0..32 {
            for y in 0..10 {
                for x in 0..10 {
                    assert_eq!(out.at(ch, y, x), input.at(ch, y + 1, x + 1));
                }
            }
        }
    }

    #[test]
    fn dnernet_runs_end_to_end() {
        let m = ErNetSpec::new(ErNetTask::Dn, 3, 1, 0).build().unwrap();
        let qm = QuantizedModel::uniform(&m);
        let c = compile(&qm, 64).unwrap();
        let img = SyntheticImage::new(ecnn_tensor::ImageKind::Texture, 9).rgb(64, 64);
        let input = quantize_input(&img, &c.program);
        let (out, stats) = run_block(&c.program, &c.leafs, &input).unwrap();
        assert_eq!(out.shape(), (3, 52, 52));
        assert_eq!(stats.instructions, 6);
        assert!(stats.mac3 > 0 && stats.mac1 > 0);
        assert!(stats.di_bytes > 0 && stats.do_bytes > 0);
    }

    #[test]
    fn sr2_upsamples_block() {
        let m = ErNetSpec::new(ErNetTask::Sr2, 2, 1, 0).build().unwrap();
        let qm = QuantizedModel::uniform(&m);
        let c = compile(&qm, 32).unwrap();
        // 32 - 2*5 convs at LR = 22 -> x2 = 44 -> tail conv -> 42.
        assert_eq!(c.program.do_side, 42);
        let img = SyntheticImage::new(ecnn_tensor::ImageKind::Smooth, 4).rgb(32, 32);
        let input = quantize_input(&img, &c.program);
        let (out, _) = run_block(&c.program, &c.leafs, &input).unwrap();
        assert_eq!(out.shape(), (3, 42, 42));
    }

    #[test]
    fn dn12_shuffle_path_round_trips_shape() {
        let m = ErNetSpec::new(ErNetTask::Dn12, 2, 1, 0).build().unwrap();
        let qm = QuantizedModel::uniform(&m);
        let c = compile(&qm, 64).unwrap();
        let img = SyntheticImage::new(ecnn_tensor::ImageKind::Mixed, 5).rgb(64, 64);
        let input = quantize_input(&img, &c.program);
        let (out, _) = run_block(&c.program, &c.leafs, &input).unwrap();
        // 64 -> unshuffle 32 -> 5 convs -> 22 -> shuffle -> 44.
        assert_eq!(out.shape(), (3, 44, 44));
    }

    #[test]
    fn unpacked_params_execute_identically() {
        // Executing with Huffman-decoded parameters must match the directly
        // compiled leafs bit-for-bit.
        let m = ErNetSpec::new(ErNetTask::Dn, 2, 2, 1).build().unwrap();
        let qm = QuantizedModel::uniform(&m);
        let c = compile(&qm, 48).unwrap();
        let decoded: Vec<_> = (0..c.program.instructions.len())
            .map(|i| c.packed.unpack(i).unwrap())
            .collect();
        let img = SyntheticImage::new(ecnn_tensor::ImageKind::Edges, 2).rgb(48, 48);
        let input = quantize_input(&img, &c.program);
        let (out_a, _) = run_block(&c.program, &c.leafs, &input).unwrap();
        let (out_b, _) = run_block(&c.program, &decoded, &input).unwrap();
        assert_eq!(out_a, out_b);
    }

    #[test]
    fn missing_plane_is_reported() {
        let m = ErNetSpec::new(ErNetTask::Dn, 1, 1, 0).build().unwrap();
        let qm = QuantizedModel::uniform(&m);
        let c = compile(&qm, 32).unwrap();
        // Run with too few leaf sets.
        let img = SyntheticImage::new(ecnn_tensor::ImageKind::Smooth, 1).rgb(32, 32);
        let input = quantize_input(&img, &c.program);
        assert!(matches!(
            run_block(&c.program, &c.leafs[..2], &input),
            Err(ExecError::Leafs(_))
        ));
    }

    #[test]
    fn wrong_input_shape_is_reported() {
        let m = ErNetSpec::new(ErNetTask::Dn, 1, 1, 0).build().unwrap();
        let qm = QuantizedModel::uniform(&m);
        let c = compile(&qm, 32).unwrap();
        let img = SyntheticImage::new(ecnn_tensor::ImageKind::Smooth, 1).rgb(16, 16);
        let input = quantize_input(&img, &c.program);
        assert!(matches!(
            run_block(&c.program, &c.leafs, &input),
            Err(ExecError::Shape(_))
        ));
    }

    #[test]
    fn plan_computes_shapes_and_lifetimes() {
        let m = ErNetSpec::new(ErNetTask::Dn, 2, 1, 0).build().unwrap();
        let qm = QuantizedModel::uniform(&m);
        let c = compile(&qm, 40).unwrap();
        let plan = BlockPlan::new(&c.program, &c.leafs).unwrap();
        let planes = plan.planes();
        assert_eq!(
            planes.len(),
            plan.di_groups() + c.program.instructions.len()
        );
        // DI planes are streamed in, not written by instructions.
        assert!(planes[..plan.di_groups()].iter().all(|p| p.born.is_none()));
        // Every instruction write records its shape; a read never precedes
        // its write.
        for p in &planes[plan.di_groups()..] {
            let born = p.born.expect("instruction planes have a writer");
            assert_eq!(p.channels, LEAF_CH);
            if let Some(last) = p.last_use {
                assert!(last > born, "lifetime runs forward");
            }
        }
        // The DO plane survives until output assembly.
        let end = c.program.instructions.len();
        assert!(planes
            .iter()
            .any(|p| matches!(p.loc, FeatLoc::Do { .. }) && p.last_use == Some(end)));
        assert!(plan.peak_plane_bytes() > 0);
    }

    #[test]
    fn pool_allocates_once_across_blocks() {
        let m = ErNetSpec::new(ErNetTask::Dn, 2, 1, 0).build().unwrap();
        let qm = QuantizedModel::uniform(&m);
        let c = compile(&qm, 40).unwrap();
        let plan = BlockPlan::new(&c.program, &c.leafs).unwrap();
        let mut pool = PlanePool::new();
        let img = SyntheticImage::new(ecnn_tensor::ImageKind::Mixed, 8).rgb(40, 40);
        let input = quantize_input(&img, &c.program);
        execute_with(&plan, &mut pool, &input, Kernels::Simd).unwrap();
        let warm = pool.stats();
        assert!(warm.planes_allocated > 0, "first block allocates the arena");
        for _ in 0..3 {
            execute_with(&plan, &mut pool, &input, Kernels::Simd).unwrap();
        }
        let steady = pool.stats().delta_since(&warm);
        assert_eq!(steady.planes_allocated, 0, "warm blocks must not allocate");
        assert!(steady.planes_reused > 0);
        // Three identical warm blocks attribute back to exactly one
        // block's worth of deterministic work.
        let per_block = steady.per_frame(3);
        assert_eq!(per_block.work(), warm.work());
        assert_eq!(steady.per_frame(0), steady, "0 frames: unchanged");
    }

    #[test]
    fn licensed_execution_never_touches_the_i64_accumulators() {
        // eSR-4K (SR4 B17R3N1) at a small block: every instruction is
        // licensed, so a SIMD block in either layout must finish in `i32`
        // end to end.
        let m = ErNetSpec::new(ErNetTask::Sr4, 17, 3, 1).build().unwrap();
        let qm = QuantizedModel::uniform(&m);
        let c = compile(&qm, 64).unwrap();
        let plan = BlockPlan::new(&c.program, &c.leafs).unwrap();
        assert_eq!(plan.narrow_licensed(), c.program.instructions.len());
        let mut keyed = plan.clone();
        keyed.force_keyed();
        let img = SyntheticImage::new(ecnn_tensor::ImageKind::Texture, 3).rgb(64, 64);
        let input = quantize_input(&img, &c.program);
        let mut outs = Vec::new();
        for p in [&plan, &keyed] {
            let mut pool = PlanePool::new();
            let out = execute_with(p, &mut pool, &input, Kernels::Simd)
                .unwrap()
                .clone();
            assert!(pool.acc_a.is_none() && pool.acc_b.is_none());
            assert_eq!(
                pool.stats().narrow_instrs,
                c.program.instructions.len() as u64
            );
            outs.push(out);
        }
        assert_eq!(outs[0], outs[1], "coalesced vs keyed");
    }

    #[test]
    fn blocked_er_stores_mid_codes_without_an_i32_plane() {
        // DnERNet-B3R1N0's ER sweeps are all at least 16 wide at block
        // 64: on every register-blocked rung the 3×3 stage stores mid
        // codes straight from its registers, so the `i32` expansion plane
        // is never allocated; the scalar rung still goes through it. All
        // rungs agree with `Packed` bit for bit.
        let m = ErNetSpec::new(ErNetTask::Dn, 3, 1, 0).build().unwrap();
        let qm = QuantizedModel::uniform(&m);
        let c = compile(&qm, 64).unwrap();
        assert!(c
            .program
            .instructions
            .iter()
            .any(|i| i.opcode == Opcode::Er));
        let plan = BlockPlan::new(&c.program, &c.leafs).unwrap();
        assert_eq!(plan.narrow_licensed(), c.program.instructions.len());
        let img = SyntheticImage::new(ecnn_tensor::ImageKind::Edges, 5).rgb(64, 64);
        let input = quantize_input(&img, &c.program);
        let mut pool = PlanePool::new();
        let want = execute_with(&plan, &mut pool, &input, Kernels::Packed)
            .unwrap()
            .clone();
        for level in kernels::simd::SimdLevel::ALL {
            let Some(p) = plan.clone().with_simd_level(level) else {
                assert!(!level.is_available(), "available {level} refused");
                continue;
            };
            assert_eq!(p.simd_level(), level);
            let mut pool = PlanePool::new();
            let out = execute_with(&p, &mut pool, &input, Kernels::Simd).unwrap();
            assert_eq!(out, &want, "{level}");
            let blocked = cfg!(target_arch = "x86_64") && level != kernels::simd::SimdLevel::Scalar;
            assert_eq!(pool.acc_b32.is_none(), blocked, "{level}: i32 ER plane");
            assert_eq!(pool.stats().kernel_variant, Kernels::Simd.variant(level));
        }
    }

    /// A licensed `Simd` block on every register-blocked rung finishes
    /// its CONV (srcS included) and srcS-free UPX2 sweeps in registers
    /// and its ERs from their bands: no pre-shuffle codes, no `i32`
    /// accumulator plane and no ER mid plane is ever allocated, and DO
    /// planes hold their live channels (rounded up to `OC_BLOCK`).
    /// Pixels and work equal `Packed`'s, on a full DnERNet block and a
    /// clipped eSR-4K edge block.
    #[test]
    fn register_finish_keeps_only_er_accumulators_and_live_do_channels() {
        use kernels::simd::{SimdLevel, BLOCKED_MIN_WIDTH};
        let cases = [
            (ErNetSpec::new(ErNetTask::Dn, 3, 1, 0), None),
            // eSR-4K's do_side at block 64 is 90: an edge block whose
            // clipped sweeps all stay at least 16 wide.
            (ErNetSpec::new(ErNetTask::Sr4, 17, 3, 1), Some((60, 70))),
        ];
        for (spec, keep) in cases {
            let m = spec.build().unwrap();
            let c = compile(&QuantizedModel::uniform(&m), 64).unwrap();
            let plan = BlockPlan::new(&c.program, &c.leafs).unwrap();
            assert_eq!(plan.narrow_licensed(), c.program.instructions.len());
            let ext = match keep {
                Some(k) => plan.clipped(k).expect("an edge keep clips"),
                None => plan.extents().clone(),
            };
            let instrs = || c.program.instructions.iter().zip(ext.instrs());
            assert!(instrs()
                .filter(|(i, _)| matches!(i.opcode, Opcode::Conv | Opcode::Upx2))
                .all(|(_, e)| e.conv.1 >= BLOCKED_MIN_WIDTH));
            assert!(instrs().any(|(i, _)| i.opcode == Opcode::Er));
            let img = SyntheticImage::new(ecnn_tensor::ImageKind::Texture, 4).rgb(64, 64);
            let input = quantize_input(&img, &c.program);
            let mut pool = PlanePool::new();
            let want = execute_at(&plan, &ext, &mut pool, &input, Kernels::Packed)
                .unwrap()
                .clone();
            let work = pool.stats().work();
            let blocked = SimdLevel::ALL
                .into_iter()
                .filter(|&l| l.is_available() && simd::conv3_blocked_covers(l, BLOCKED_MIN_WIDTH));
            for level in blocked {
                let p = plan.clone().with_simd_level(level).unwrap();
                let mut pool = PlanePool::new();
                let out = execute_at(&p, &ext, &mut pool, &input, Kernels::Simd).unwrap();
                assert_eq!(out, &want, "{spec} {level}");
                assert_eq!(pool.stats().work(), work, "{spec} {level}");
                assert!(pool.quant.is_none(), "{spec} {level}: pre-shuffle codes");
                assert!(pool.acc_a32.is_none(), "{spec} {level}: i32 accumulators");
                assert!(pool.mid.is_none(), "{spec} {level}: ER mid plane");
                for (g, &d) in plan.do_planes.iter().enumerate() {
                    let live = c.program.do_channels - g * LEAF_CH;
                    let plane = pool.plane(plan.slots[d]).expect("DO plane");
                    assert_eq!(
                        plane.channels(),
                        live.min(LEAF_CH).next_multiple_of(OC_BLOCK),
                        "{spec} {level}: DO group {g}"
                    );
                }
            }
        }
    }

    #[test]
    fn plan_packs_kernel_params_once() {
        let m = ErNetSpec::new(ErNetTask::Dn, 2, 2, 1).build().unwrap();
        let qm = QuantizedModel::uniform(&m);
        let c = compile(&qm, 40).unwrap();
        let plan = BlockPlan::new(&c.program, &c.leafs).unwrap();
        assert_eq!(plan.packed().len(), c.program.instructions.len());
        assert!(plan.packed_bytes() > 0);
        for (ins, packed) in c.program.instructions.iter().zip(plan.packed()) {
            assert_eq!(!packed.conv3.is_empty(), ins.opcode.has_conv3x3());
            assert_eq!(packed.conv1.is_some(), ins.opcode.has_conv1x1());
        }
        // Every execution is served from the packed cache; the reference
        // path never touches it.
        let mut pool = PlanePool::new();
        let img = SyntheticImage::new(ecnn_tensor::ImageKind::Mixed, 4).rgb(40, 40);
        let input = quantize_input(&img, &c.program);
        execute_with(&plan, &mut pool, &input, Kernels::Packed).unwrap();
        assert_eq!(
            pool.stats().params_reused,
            c.program.instructions.len() as u64
        );
        let mut ref_pool = PlanePool::new();
        execute_with(&plan, &mut ref_pool, &input, Kernels::Reference).unwrap();
        assert_eq!(ref_pool.stats().params_reused, 0);
    }

    #[test]
    fn reference_kernels_match_packed_on_all_opcodes() {
        // Sr4 with unequal body/tail exercises CONV, ER, UPX2 and the
        // srcS/relu epilogues in one program; Dn12 adds DNX2 + unshuffle.
        for (spec, side) in [
            (ErNetSpec::new(ErNetTask::Sr4, 2, 2, 1), 32),
            (ErNetSpec::new(ErNetTask::Dn12, 2, 1, 0), 48),
        ] {
            let m = spec.build().unwrap();
            let qm = QuantizedModel::uniform(&m);
            let c = compile(&qm, side).unwrap();
            let plan = BlockPlan::new(&c.program, &c.leafs).unwrap();
            let img = SyntheticImage::new(ecnn_tensor::ImageKind::Texture, 7).rgb(side, side);
            let input = quantize_input(&img, &c.program);
            let mut fast_pool = PlanePool::new();
            let fast = execute_with(&plan, &mut fast_pool, &input, Kernels::Packed)
                .unwrap()
                .clone();
            let mut ref_pool = PlanePool::new();
            let reference = execute_with(&plan, &mut ref_pool, &input, Kernels::Reference).unwrap();
            assert_eq!(&fast, reference, "{spec}");
            assert_eq!(fast_pool.stats().work(), ref_pool.stats().work(), "{spec}");
        }
    }

    #[test]
    fn pool_reuse_does_not_leak_state_across_blocks() {
        // A warm pool must produce bit-identical output to a fresh one.
        // Dead DO channels and dead accumulator blocks keep block A's
        // values under `Simd` (all of them after a `Packed` block A), so
        // any reader of them fails here, in either layout: the eSR-4K and
        // DnERNet picks (RGB head and tail) and DnERNet-12ch (12 live DI
        // channels, UPX2 tail into DO). `Packed` is the pixel oracle.
        for (spec, xi) in [
            (ErNetSpec::new(ErNetTask::Sr2, 2, 1, 0), 32),
            (ErNetSpec::new(ErNetTask::Sr4, 17, 3, 1), 64),
            (ErNetSpec::new(ErNetTask::Dn, 3, 1, 0), 128),
            (ErNetSpec::new(ErNetTask::Dn12, 8, 2, 5), 128),
        ] {
            let m = spec.build().unwrap();
            let qm = QuantizedModel::uniform(&m);
            let c = compile(&qm, xi).unwrap();
            let a = quantize_input(
                &SyntheticImage::new(ecnn_tensor::ImageKind::Edges, 1).rgb(xi, xi),
                &c.program,
            );
            let b = quantize_input(
                &SyntheticImage::new(ecnn_tensor::ImageKind::Texture, 2).rgb(xi, xi),
                &c.program,
            );
            let plan = BlockPlan::new(&c.program, &c.leafs).unwrap();
            let mut keyed = plan.clone();
            keyed.force_keyed();
            let want = execute_with(&plan, &mut PlanePool::new(), &b, Kernels::Packed)
                .unwrap()
                .clone();
            for plan in [&plan, &keyed] {
                let fresh = execute_with(plan, &mut PlanePool::new(), &b, Kernels::Simd)
                    .unwrap()
                    .clone();
                assert_eq!(fresh, want, "{spec} @ {xi}: Simd vs Packed");
                for warm_up in [Kernels::Simd, Kernels::Packed] {
                    let mut warm = PlanePool::new();
                    execute_with(plan, &mut warm, &a, warm_up).unwrap();
                    let out = execute_with(plan, &mut warm, &b, Kernels::Simd).unwrap();
                    assert_eq!(out, &fresh, "{spec} @ {xi} after {warm_up:?}");
                }
            }
        }
    }

    /// A keyed in-place srcS chain (destination and srcS in one slot)
    /// cannot finish from registers or bands, which would overwrite the
    /// srcS codes they still read: it keeps the `i32` accumulator and
    /// matches `Packed`, while the coalesced layout never allocates one.
    /// Byte lanes run on both layouts alike.
    #[test]
    fn keyed_in_place_chains_finish_from_the_accumulator() {
        // DnERNet-B3R1N0 rewired so that its second ER and its srcS CONV
        // write the buffer they read their srcS from (never their
        // source, which the verifier rejects).
        let m = ErNetSpec::new(ErNetTask::Dn, 3, 1, 0).build().unwrap();
        let mut c = compile(&QuantizedModel::uniform(&m), 64).unwrap();
        let ins = &mut c.program.instructions;
        let bb0 = ins[1].src;
        assert_eq!(ins[4].src_s, Some(bb0));
        (ins[2].src_s, ins[2].dst) = (Some(bb0), bb0);
        (ins[3].src, ins[3].src_s) = (bb0, Some(bb0));
        ins[4].dst = bb0;
        ins[5].src = bb0;
        let plan = BlockPlan::new(&c.program, &c.leafs).unwrap();
        assert!(plan.coalesced());
        let mut keyed = plan.clone();
        keyed.force_keyed();
        let in_place = |p: &BlockPlan<'_>| {
            p.bindings
                .iter()
                .any(|b| b.src_s.is_some_and(|s| p.slots[s] == p.slots[b.dst]))
        };
        assert!(in_place(&keyed) && !in_place(&plan));
        let img = SyntheticImage::new(ecnn_tensor::ImageKind::Edges, 6).rgb(64, 64);
        let input = quantize_input(&img, &c.program);
        let want = execute_with(&plan, &mut PlanePool::new(), &input, Kernels::Packed)
            .unwrap()
            .clone();
        let mut bytes = Vec::new();
        for p in [&plan, &keyed] {
            let mut pool = PlanePool::new();
            let out = execute_with(p, &mut pool, &input, Kernels::Simd).unwrap();
            assert_eq!(out, &want, "keyed {}", !p.coalesced());
            let blocked = kernels::simd::conv3_blocked_covers(p.simd_level(), 16);
            assert_eq!(pool.acc_a32.is_some(), !p.coalesced() && blocked);
            bytes.push(pool.stats().byte_lane_sweeps);
        }
        assert_eq!(bytes[0], bytes[1], "byte lanes on both layouts");
    }

    /// The plan's liveness table and dead-MAC count, pinned on the
    /// eSR-4K and DnERNet paper picks and a DnERNet-12ch pick.
    #[test]
    fn liveness_table_and_dead_macs_are_pinned() {
        let rgb_head = LiveChannels {
            input: 3,
            output: LEAF_CH,
        };
        let rgb_tail = LiveChannels {
            input: LEAF_CH,
            output: 3,
        };
        for (spec, xi, head, tail, dead, total) in [
            (
                ErNetSpec::new(ErNetTask::Sr4, 17, 3, 1),
                128,
                rgb_head,
                rgb_tail,
                1_093_413_888u64,
                9_024_827_392u64,
            ),
            (
                ErNetSpec::new(ErNetTask::Dn, 3, 1, 0),
                128,
                rgb_head,
                rgb_tail,
                236_533_248,
                855_965_696,
            ),
            (
                ErNetSpec::new(ErNetTask::Dn12, 8, 2, 5),
                256,
                LiveChannels {
                    input: 12,
                    output: LEAF_CH,
                },
                // A UPX2 store of 3 post-shuffle channels: 12 pre-shuffle.
                LiveChannels {
                    input: LEAF_CH,
                    output: 12,
                },
                156_165_120,
                3_341_295_616,
            ),
        ] {
            let m = spec.build().unwrap();
            let qm = QuantizedModel::uniform(&m);
            let c = compile(&qm, xi).unwrap();
            let plan = BlockPlan::new(&c.program, &c.leafs).unwrap();
            let live = plan.live_channels();
            let last = live.len() - 1;
            assert_eq!(live[0], head, "{spec} head");
            assert_eq!(live[last], tail, "{spec} tail");
            for (i, l) in live.iter().enumerate().take(last).skip(1) {
                let ins = &c.program.instructions[i];
                let planes = if ins.opcode == Opcode::Upx2 {
                    ins.out_groups
                } else {
                    1
                };
                assert_eq!(*l, LiveChannels::full(ins.in_groups, planes), "{spec} {i}");
            }
            let report = ecnn_isa::verify::verify_compiled(&c);
            let cost = ecnn_isa::verify::memplan::cost_model(&c.program, &report);
            assert_eq!(cost.mac3 + cost.mac1, total, "{spec} MACs");
            // Every blocked rung skips the same channels; the row kernels
            // skip none.
            for level in kernels::simd::SimdLevel::ALL {
                let Some(plan) = plan.clone().with_simd_level(level) else {
                    continue;
                };
                let want = if kernels::simd::conv3_blocked_covers(level, 16) {
                    dead
                } else {
                    0
                };
                assert_eq!(plan.dead_mac3(), want, "{spec} dead MACs at {level}");
            }
        }
    }

    #[test]
    fn checkout_recycles_storage_per_key() {
        let mut pool = PlanePool::new();
        let ptr = pool.checkout(0, LEAF_CH, 10, 10).as_slice().as_ptr();
        // Shrinking reuses the same storage; a different slot gets its own.
        let ptr2 = pool.checkout(0, LEAF_CH, 8, 8).as_slice().as_ptr();
        assert_eq!(ptr, ptr2);
        let other = pool.checkout(1, LEAF_CH, 8, 8).as_slice().as_ptr();
        assert_ne!(ptr, other);
        let s = pool.stats();
        assert_eq!(s.planes_allocated, 2);
        assert_eq!(s.planes_reused, 1);
        assert_eq!(pool.resident_planes(), 2);
    }

    /// A table the kernels cannot run on the plan, here another block
    /// size's compiled geometry, is a structured error, not a kernel
    /// panic.
    #[test]
    fn execute_at_rejects_a_table_of_another_geometry() {
        let m = ErNetSpec::new(ErNetTask::Dn, 2, 1, 0).build().unwrap();
        let qm = QuantizedModel::uniform(&m);
        let (small, large) = (compile(&qm, 40).unwrap(), compile(&qm, 64).unwrap());
        let plan = BlockPlan::new(&small.program, &small.leafs).unwrap();
        let other = BlockPlan::new(&large.program, &large.leafs).unwrap();
        let input = Tensor::zeros(3, 40, 40);
        let mut pool = PlanePool::new();
        let run = execute_at(&plan, other.extents(), &mut pool, &input, Kernels::Simd);
        assert!(matches!(run, Err(ExecError::Shape(_))), "{run:?}");
        assert!(execute_at(&plan, plan.extents(), &mut pool, &input, Kernels::Simd).is_ok());
    }
}
