//! Static verification of FBISA programs: plane liveness/placement
//! re-derivation, fixed-point range analysis, and ranked diagnostics.
//!
//! [`verify`] walks a [`Program`] plus its IDU-decoded leaf parameters
//! once, *before* any kernel runs, and
//!
//! 1. re-derives every feature plane's shape, lifetime and
//!    `(buffer, group)` placement independently of the simulator's
//!    `BlockPlan` (the two implementations cross-check each other — see
//!    `ecnn_sim::exec::crosscheck_plan`);
//! 2. runs an abstract interpretation with interval arithmetic over the
//!    quantized pipeline — per-channel code ranges propagated through
//!    [`QSpec`](crate::instr::QSpec) fractional shifts, 3×3/1×1 tap sums,
//!    bias pre-sums, activations and residual accumulation — to prove the
//!    `i64` accumulators and `i32` requantization stores cannot overflow
//!    for *any* input in the declared `DI` range;
//! 3. emits a ranked [`Diagnostic`] list covering hard errors (overflow,
//!    operand-before-def, plane aliasing, shape mismatches the executor
//!    would only hit at run time) and lints (all-zero leaf filters, dead
//!    planes, redundant requantization headroom, bands narrower than the
//!    conv footprint).
//!
//! The interval analysis is sound but not exact: per-plane state is one
//! code interval per channel (spatial positions are hulled), and
//! zero-padded borders hull every tap contribution with zero. Observed
//! accumulator extrema of any execution therefore always lie inside the
//! predicted [`InstrRange`]s — the property `tests/verify.rs` pins with
//! the range-instrumented reference executor.

pub mod memplan;

use crate::compile::CompiledProgram;
use crate::instr::{FeatLoc, Instruction, Opcode, LEAF_CH};
use crate::params::LeafParams;
use crate::program::Program;
use ecnn_model::model::InferenceKind;
use ecnn_tensor::QFormat;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// How strictly the engine treats verification results. Under every mode
/// an engine build verifies its program exactly once ([`Proven`]), and
/// that one report licenses the narrow kernels and the coalesced plane
/// layout of all its sessions; the mode only decides which findings
/// reject the build.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum VerifyMode {
    /// Reject nothing. The program is still proven once per build, so a
    /// clean program runs licensed as under the other modes, and one
    /// with hard errors runs unlicensed (wide accumulators, keyed
    /// layout); the engine exposes no report.
    Off,
    /// Hard errors are fatal, lints are recorded on the report but
    /// tolerated. The default.
    #[default]
    Lints,
    /// Both hard errors and lints are fatal.
    Strict,
}

impl VerifyMode {
    /// Stable lowercase name (`"off"`, `"lints"`, `"strict"`) — the
    /// serialization token used by `EngineConfig` records and the
    /// `ECNN_VERIFY` environment override; inverse of
    /// [`VerifyMode::parse`].
    pub fn as_str(self) -> &'static str {
        match self {
            VerifyMode::Off => "off",
            VerifyMode::Lints => "lints",
            VerifyMode::Strict => "strict",
        }
    }

    /// Parses a mode from its case-insensitive [`VerifyMode::as_str`]
    /// name; `None` for anything else.
    pub fn parse(name: &str) -> Option<VerifyMode> {
        match name.to_ascii_lowercase().as_str() {
            "off" => Some(VerifyMode::Off),
            "lints" => Some(VerifyMode::Lints),
            "strict" => Some(VerifyMode::Strict),
            _ => None,
        }
    }
}

/// Diagnostic severity: [`Severity::Error`] marks programs the executor
/// would corrupt, panic on, or reject; [`Severity::Warning`] marks legal
/// but wasteful or suspicious constructs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Lint: legal but wasteful/suspicious.
    Warning,
    /// Hard error: the program misbehaves or is unrepresentable.
    Error,
}

/// Stable diagnostic codes, one per property class the verifier checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DiagCode {
    /// Leaf-module bookkeeping broken: wrong leaf-set length, an
    /// [`Instruction::check`] violation, or a group layout the datapath
    /// cannot map onto leaf-modules.
    LeafMismatch,
    /// An operand used before any instruction defines it: a read of a
    /// never-written plane, a read from the `DO` stream, or a write to
    /// the `DI` stream.
    UndefOperand,
    /// Statically inconsistent geometry: conv grid vs input block, srcS
    /// domain smaller than the accumulator, `DO` side vs program
    /// metadata, non-square blocks.
    ShapeMismatch,
    /// The destination group lies inside the instruction's own source
    /// gather range — a same-cycle read/write hazard on real block
    /// buffers (`srcS == dst` accumulation is the one sanctioned idiom).
    AliasHazard,
    /// Proven possible overflow: an `i64` accumulator, the `i32`
    /// requantization store, or a fractional-shift amount the datapath
    /// cannot realize.
    AccOverflow,
    /// Q-format wiring broken: a consumer's declared operand format
    /// disagrees with the producer's stored format (silent wrong pixels),
    /// or a format the opcode needs is missing.
    QFormatMismatch,
    /// The verifier's independently derived plane table disagrees with
    /// the simulator's `BlockPlan` (differential-oracle failure; emitted
    /// by `ecnn_sim::exec::crosscheck_plan`).
    PlanDivergence,
    /// A leaf-module whose entire 3×3 (or 1×1) filter is zero: the packer
    /// masks it, so the leaf only burns decode cycles.
    ZeroTaps,
    /// A written plane no instruction (and no `DO` assembly) ever reads.
    DeadPlane,
    /// A requantization stage that provably does nothing: the accumulator
    /// already sits at the destination's fractional position and its
    /// proven range never clamps, so the store is a bit-exact copy.
    RedundantRequant,
    /// A zero-padded 3×3 convolution over a block narrower than its own
    /// footprint: every output pixel is dominated by padding.
    NarrowBand,
}

impl DiagCode {
    /// The severity class this code always carries.
    pub fn severity(self) -> Severity {
        match self {
            DiagCode::LeafMismatch
            | DiagCode::UndefOperand
            | DiagCode::ShapeMismatch
            | DiagCode::AliasHazard
            | DiagCode::AccOverflow
            | DiagCode::QFormatMismatch
            | DiagCode::PlanDivergence => Severity::Error,
            DiagCode::ZeroTaps
            | DiagCode::DeadPlane
            | DiagCode::RedundantRequant
            | DiagCode::NarrowBand => Severity::Warning,
        }
    }

    /// Stable mnemonic used by `ecnn-lint` and test assertions.
    pub fn as_str(self) -> &'static str {
        match self {
            DiagCode::LeafMismatch => "leaf-mismatch",
            DiagCode::UndefOperand => "undef-operand",
            DiagCode::ShapeMismatch => "shape-mismatch",
            DiagCode::AliasHazard => "alias-hazard",
            DiagCode::AccOverflow => "acc-overflow",
            DiagCode::QFormatMismatch => "qformat-mismatch",
            DiagCode::PlanDivergence => "plan-divergence",
            DiagCode::ZeroTaps => "zero-taps",
            DiagCode::DeadPlane => "dead-plane",
            DiagCode::RedundantRequant => "redundant-requant",
            DiagCode::NarrowBand => "narrow-band",
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One verifier finding: a stable code, its severity, the instruction it
/// anchors to (`None` for program-level findings) and a human-readable
/// detail naming the worst-case bound or the mismatching operand.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: DiagCode,
    /// Severity (always `code.severity()`).
    pub severity: Severity,
    /// Instruction index the finding anchors to.
    pub instr: Option<usize>,
    /// Human-readable detail.
    pub detail: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        match self.instr {
            Some(i) => write!(f, "{sev}[{}] instr {i}: {}", self.code, self.detail),
            None => write!(f, "{sev}[{}]: {}", self.code, self.detail),
        }
    }
}

/// Independently re-derived record of one feature plane — the verifier's
/// half of the differential oracle against the simulator's `PlaneInfo`
/// table (same ordering: `DI` planes first, then one record per
/// instruction write).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlaneRecord {
    /// The `(buffer, group)` the plane occupies.
    pub loc: FeatLoc,
    /// Channel count ([`LEAF_CH`] except post-shuffle `UPX2` planes).
    pub channels: usize,
    /// Spatial height.
    pub height: usize,
    /// Spatial width.
    pub width: usize,
    /// Instruction index that writes the plane (`None` for `DI` planes).
    pub born: Option<usize>,
    /// Last instruction index that reads the plane;
    /// `program.instructions.len()` marks the `DO` assembly step. `None`
    /// for a plane nothing reads.
    pub last_use: Option<usize>,
}

/// Proven per-instruction value bounds, in code units.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstrRange {
    /// Final accumulator interval (after srcS accumulation and ReLU,
    /// before requantization), hulled across output channels.
    pub acc: (i64, i64),
    /// `ER` only: the raw 3×3 expansion accumulator interval (before the
    /// internal ReLU/quantizer), hulled across leaves and channels.
    pub er_acc3: Option<(i64, i64)>,
    /// Stored destination codes after requantization and clamping,
    /// hulled across channels.
    pub dst: (i64, i64),
    /// Whether the analysis proves that every *convolution-stage*
    /// accumulator value (bias plus tap contributions, before srcS
    /// accumulation and before any activation — for `ER`, both the
    /// per-leaf 3×3 expansion stage and the 1×1 reduction stage) *and*
    /// the final accumulator after the srcS add (before ReLU, so also
    /// [`InstrRange::acc`]) fit an `i32`.
    ///
    /// This is the license for running the whole instruction narrow —
    /// SIMD accumulation and the fused requantizing epilogue alike.
    /// Two's-complement wrapping arithmetic is exact modulo 2³², so a
    /// kernel that accumulates in `i32` lanes produces the exact value
    /// whenever the *final* per-element sum fits `i32` — intermediate
    /// wraps are harmless. The conv-stage bound makes the conv sums
    /// exact (the ER mid quantizer consumes its 3×3 sums directly); the
    /// post-srcS bound makes the wrapping srcS add exact, so the ReLU and
    /// the rounding shift see the true value. Hence `narrow_acc` ⇒ the
    /// `i32` path is bit-identical to the `i64` one.
    pub narrow_acc: bool,
}

/// The verifier's full output: ranked diagnostics, the re-derived plane
/// table, and per-instruction proven value ranges.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// All findings, errors first, then by instruction index.
    pub diagnostics: Vec<Diagnostic>,
    /// Re-derived plane table (`DI` planes first, then one per
    /// instruction write), for cross-checking against `BlockPlan`.
    pub planes: Vec<PlaneRecord>,
    /// Per-instruction proven ranges; `None` where structural errors made
    /// the instruction unanalyzable.
    pub ranges: Vec<Option<InstrRange>>,
}

impl VerifyReport {
    fn push(&mut self, code: DiagCode, instr: Option<usize>, detail: String) {
        self.diagnostics.push(Diagnostic {
            code,
            severity: code.severity(),
            instr,
            detail,
        });
    }

    /// Hard errors only.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Lints only.
    pub fn lints(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// Whether any hard error was found.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Whether the report is empty (no errors, no lints).
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Whether the program passes under `mode`: always under
    /// [`VerifyMode::Off`], no errors under [`VerifyMode::Lints`], no
    /// findings at all under [`VerifyMode::Strict`].
    pub fn passes(&self, mode: VerifyMode) -> bool {
        match mode {
            VerifyMode::Off => true,
            VerifyMode::Lints => !self.has_errors(),
            VerifyMode::Strict => self.is_clean(),
        }
    }

    /// Sorts findings by rank: errors before warnings, then by
    /// instruction index (program-level findings first).
    /// Sorts diagnostics most-severe first, then by instruction index.
    ///
    /// `verify` returns a ranked report; call this again after extending
    /// [`Self::diagnostics`] externally (e.g. with plan cross-check
    /// findings) to restore the order.
    pub fn rank(&mut self) {
        self.diagnostics.sort_by_key(|d| {
            (
                d.severity == Severity::Warning,
                d.instr.map_or(0, |i| i.saturating_add(1)),
            )
        });
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return write!(f, "verify: clean ({} planes analyzed)", self.planes.len());
        }
        let errors = self.errors().count();
        let lints = self.diagnostics.len().saturating_sub(errors);
        writeln!(f, "verify: {errors} error(s), {lints} lint(s)")?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// A per-channel code interval, computed in `i128` so that `i64`
/// overflow is *detected* rather than suffered.
type Iv = (i128, i128);

fn iv_add(a: Iv, b: Iv) -> Iv {
    (a.0.saturating_add(b.0), a.1.saturating_add(b.1))
}

fn iv_hull(a: Iv, b: Iv) -> Iv {
    (a.0.min(b.0), a.1.max(b.1))
}

/// `a·b`, saturating at the `i128` range like `i128::saturating_mul`. A
/// weight (or a filter's weight sum) times a stored code fits `i64`, and
/// then one checked `i64` multiply gives the product; only a factor or
/// product outside `i64` takes the far slower `i128` multiply.
fn mul(a: i64, b: i128) -> i128 {
    i64::try_from(b)
        .ok()
        .and_then(|b| a.checked_mul(b))
        .map_or_else(|| i128::from(a).saturating_mul(b), i128::from)
}

fn iv_mul(w: i64, r: Iv) -> Iv {
    if w >= 0 {
        (mul(w, r.0), mul(w, r.1))
    } else {
        (mul(w, r.1), mul(w, r.0))
    }
}

fn iv_relu(a: Iv) -> Iv {
    (a.0.max(0), a.1.max(0))
}

fn iv_abs_bound(a: Iv) -> i128 {
    a.0.abs().max(a.1.abs())
}

/// The interval and magnitude bound of one 3×3 filter's contribution
/// `Σₖ wₖ·xₖ` over sources `xₖ ∈ r`: the tap-by-tap fold of
/// [`iv_mul`] and [`iv_add`] (with each tap hulled with zero when
/// `zero_pad`, since border pixels lose it), and the sum of the taps'
/// [`iv_abs_bound`]s, computed in one step.
///
/// With `P` the sum of the positive taps and `N` that of the negative
/// ones, the fold is `(P·lo + N·hi, P·hi + N·lo)`: every positive tap
/// contributes `(w·lo, w·hi)` and every negative one `(w·hi, w·lo)`.
/// Hulling a tap's product with zero is the product over
/// `(min(lo, 0), max(hi, 0))`, and each tap's magnitude bound is
/// `|w|·max(|lo|, |hi|)`, so the bounds sum to `(P − N)·max(|lo|, |hi|)`.
/// Taps are 16-bit and codes far below 2⁶⁴, so no step comes near the
/// `i128` saturation point and the result equals the per-tap fold in
/// any order, bit for bit.
fn fold_taps(taps: &[i16], r: Iv, zero_pad: bool) -> (Iv, i128) {
    let (p, n) = taps.iter().fold((0i64, 0i64), |(p, n), &w| {
        let w = i64::from(w);
        (p.saturating_add(w.max(0)), n.saturating_add(w.min(0)))
    });
    let (lo, hi) = if zero_pad {
        (r.0.min(0), r.1.max(0))
    } else {
        r
    };
    let iv = (
        mul(p, lo).saturating_add(mul(n, hi)),
        mul(p, hi).saturating_add(mul(n, lo)),
    );
    (iv, mul(p.saturating_sub(n), iv_abs_bound((lo, hi))))
}

fn fits_i64(a: Iv) -> bool {
    a.0 >= i64::MIN as i128 && a.1 <= i64::MAX as i128
}

fn fits_i32(a: Iv) -> bool {
    a.0 >= i32::MIN as i128 && a.1 <= i32::MAX as i128
}

/// Emulates `ecnn_tensor::qformat::rescale_code`'s round-half-away
/// downshift on one endpoint (monotone, so endpoints bound the image).
fn rescale_down(v: i128, shift: i32) -> i128 {
    let half = 1i128 << shift.saturating_sub(1);
    if v >= 0 {
        v.saturating_add(half) >> shift
    } else {
        (v.saturating_neg().saturating_add(half) >> shift).saturating_neg()
    }
}

/// Emulates `align_code` over an interval. Returns `Err` with a message
/// when the shift amount or the shifted magnitude exceeds what the
/// executor's `i64` arithmetic can realize.
fn align_iv(v: Iv, from_frac: i32, to_frac: i32) -> Result<Iv, String> {
    if to_frac >= from_frac {
        let shift = to_frac.saturating_sub(from_frac);
        if shift >= 63 {
            return Err(format!("alignment upshift by {shift} bits"));
        }
        let out = (v.0 << shift, v.1 << shift);
        if !fits_i64(out) {
            return Err(format!(
                "aligned value range [{}, {}] exceeds i64",
                out.0, out.1
            ));
        }
        Ok(out)
    } else {
        let shift = from_frac.saturating_sub(to_frac);
        if shift >= 63 {
            return Err(format!("alignment downshift by {shift} bits"));
        }
        Ok((rescale_down(v.0, shift), rescale_down(v.1, shift)))
    }
}

/// Requantizes an accumulator interval from `from_frac` to the code range
/// of `q`, mirroring the executor's `rescale_code` + `clamp_code` pair.
/// Returns the pre-clamp interval (for overflow/headroom checks) and the
/// stored post-clamp interval.
fn requant_iv(acc: Iv, from_frac: i32, q: QFormat) -> Result<(Iv, Iv), String> {
    let to_frac = q.frac() as i32;
    let shift = from_frac.saturating_sub(to_frac);
    let raw = if shift > 0 {
        if shift >= 63 {
            return Err(format!("requantization downshift by {shift} bits"));
        }
        // `acc + half` must not overflow the executor's i64.
        let half = 1i128 << shift.saturating_sub(1);
        if !fits_i64((acc.0.saturating_sub(half), acc.1.saturating_add(half))) {
            return Err(format!(
                "rounding bias overflows i64 (acc range [{}, {}], shift {shift})",
                acc.0, acc.1
            ));
        }
        (rescale_down(acc.0, shift), rescale_down(acc.1, shift))
    } else {
        let up = shift.saturating_neg();
        if up >= 63 {
            return Err(format!("requantization upshift by {up} bits"));
        }
        (acc.0 << up, acc.1 << up)
    };
    if !fits_i32(raw) {
        return Err(format!(
            "requantized range [{}, {}] exceeds the i32 store",
            raw.0, raw.1
        ));
    }
    let clamped = (
        raw.0.clamp(q.min_code() as i128, q.max_code() as i128),
        raw.1.clamp(q.min_code() as i128, q.max_code() as i128),
    );
    Ok((raw, clamped))
}

/// Analysis state of one live plane: its stored fractional position and
/// one code interval per channel.
#[derive(Clone, Debug)]
struct PlaneState {
    frac: i32,
    ranges: Vec<Iv>,
}

impl PlaneState {
    fn full(q: QFormat, channels: usize) -> Self {
        Self {
            frac: q.frac() as i32,
            ranges: vec![(q.min_code() as i128, q.max_code() as i128); channels],
        }
    }

    fn hull(&self) -> Iv {
        self.ranges
            .iter()
            .copied()
            .reduce(iv_hull)
            .unwrap_or((0, 0))
    }
}

/// Verifies a compiled program (see [`verify`]).
pub fn verify_compiled(compiled: &CompiledProgram) -> VerifyReport {
    verify(&compiled.program, &compiled.leafs)
}

/// A compiled program together with the report of its one verification.
///
/// Only [`Proven::new`] makes one, by running [`verify`], and the program
/// stays read-only afterwards, so the report licenses — narrow
/// accumulation, the coalesced memory plan — exactly the program and
/// leaves it proved. An engine holds one per build, and every plan its
/// sessions build takes its licences from it instead of re-verifying.
#[derive(Clone, Debug)]
pub struct Proven {
    compiled: CompiledProgram,
    report: VerifyReport,
}

impl Proven {
    /// Verifies `compiled` and keeps the report with it. The report may
    /// carry hard errors: a proof records what holds, and deciding
    /// whether the program may run is the caller's [`VerifyMode`].
    pub fn new(compiled: CompiledProgram) -> Self {
        let report = verify_compiled(&compiled);
        Self { compiled, report }
    }

    /// The proven program.
    pub fn compiled(&self) -> &CompiledProgram {
        &self.compiled
    }

    /// The report of its verification.
    pub fn report(&self) -> &VerifyReport {
        &self.report
    }
}

/// Calls of [`verify`] in this process.
static RUNS: AtomicU64 = AtomicU64::new(0);

/// How many times [`verify`] has run in this process — how a caller
/// checks that a build proves its program once and that nothing after it
/// proves it again.
pub fn runs() -> u64 {
    RUNS.load(Ordering::Relaxed)
}

/// Statically verifies `program` with its IDU-decoded leaf parameters
/// (one `Vec<LeafParams>` per instruction, as produced by the compiler or
/// `PackedParams::unpack`).
///
/// Never panics and never executes a kernel: all findings are reported as
/// [`Diagnostic`]s on the returned [`VerifyReport`], including the
/// conditions under which the executor itself would panic (srcS domain
/// underflow, out-of-range shift amounts, missing Q-formats).
pub fn verify(program: &Program, leafs: &[Vec<LeafParams>]) -> VerifyReport {
    RUNS.fetch_add(1, Ordering::Relaxed);
    let mut rpt = VerifyReport::default();
    if leafs.len() != program.instructions.len() {
        rpt.push(
            DiagCode::LeafMismatch,
            None,
            format!(
                "{} leaf sets for {} instructions",
                leafs.len(),
                program.instructions.len()
            ),
        );
        rpt.rank();
        return rpt;
    }
    let s = program.input_unshuffle.unwrap_or(1);
    if s == 0 || !program.di_side.is_multiple_of(s) {
        rpt.push(
            DiagCode::ShapeMismatch,
            None,
            format!(
                "DI side {} not divisible by unshuffle factor {s}",
                program.di_side
            ),
        );
        rpt.rank();
        return rpt;
    }
    let di_plane_side = program.di_side.checked_div(s).unwrap_or(0);
    let di_groups = program
        .di_channels
        .saturating_mul(s)
        .saturating_mul(s)
        .div_ceil(LEAF_CH);

    // Plane table + live map + per-plane analysis state, all derived
    // from scratch (independently of BlockPlan).
    let mut live: HashMap<FeatLoc, usize> = HashMap::new();
    let mut states: Vec<Option<PlaneState>> = Vec::new();
    for g in 0..di_groups {
        let loc = FeatLoc::Di { group: g as u8 };
        live.insert(loc, rpt.planes.len());
        rpt.planes.push(PlaneRecord {
            loc,
            channels: LEAF_CH,
            height: di_plane_side,
            width: di_plane_side,
            born: None,
            last_use: None,
        });
        // Streamed channels carry the full declared DI code range;
        // hardware zero-channel padding pins the rest to exactly zero.
        let mut st = PlaneState::full(program.di_q, LEAF_CH);
        for c in 0..LEAF_CH {
            let logical = (g.saturating_mul(LEAF_CH).saturating_add(c))
                .checked_div(s.saturating_mul(s))
                .unwrap_or(0);
            if logical >= program.di_channels {
                st.ranges[c] = (0, 0);
            }
        }
        states.push(Some(st));
    }

    for (i, (ins, leafset)) in program.instructions.iter().zip(leafs).enumerate() {
        let mut broken = false;
        if let Err(e) = ins.check() {
            rpt.push(DiagCode::LeafMismatch, Some(i), e);
            broken = true;
        }
        if leafset.len() != ins.leaf_modules() {
            rpt.push(
                DiagCode::LeafMismatch,
                Some(i),
                format!(
                    "{} leafs but instruction declares {}",
                    leafset.len(),
                    ins.leaf_modules()
                ),
            );
            broken = true;
        }
        // Group layouts the datapath sweep cannot map onto leaf-modules:
        // every opcode writes one destination group per instruction
        // (UPX2's extra groups are pre-shuffle planes of that one write).
        if ins.opcode != Opcode::Upx2 && ins.out_groups != 1 {
            rpt.push(
                DiagCode::LeafMismatch,
                Some(i),
                format!(
                    "{} writes one output group per instruction (declared {})",
                    ins.opcode.mnemonic(),
                    ins.out_groups
                ),
            );
            broken = true;
        }
        if ins.opcode == Opcode::Upx2 && ins.in_groups != 1 {
            rpt.push(
                DiagCode::LeafMismatch,
                Some(i),
                format!(
                    "UPX2 sweeps a single input group (declared {})",
                    ins.in_groups
                ),
            );
            broken = true;
        }
        if ins.inference != program.inference {
            rpt.push(
                DiagCode::ShapeMismatch,
                Some(i),
                "instruction inference kind differs from the program's".into(),
            );
        }
        if ins.opcode == Opcode::Er && ins.q.mid.is_none() {
            rpt.push(
                DiagCode::QFormatMismatch,
                Some(i),
                "ER without a mid format (the executor would panic)".into(),
            );
            broken = true;
        }
        if ins.opcode.has_conv1x1() && ins.q.b1.is_none() {
            rpt.push(
                DiagCode::QFormatMismatch,
                Some(i),
                "1x1 opcode without a 1x1 bias format (the executor would panic)".into(),
            );
            broken = true;
        }
        if ins.in_size.0 != ins.in_size.1 || ins.out_size.0 != ins.out_size.1 {
            rpt.push(
                DiagCode::ShapeMismatch,
                Some(i),
                format!(
                    "non-square block {:?} -> {:?} (the block pipeline is square)",
                    ins.in_size, ins.out_size
                ),
            );
            broken = true;
        }
        if ins.opcode == Opcode::Dnx2 && ins.pool_factor == 0 {
            rpt.push(
                DiagCode::ShapeMismatch,
                Some(i),
                "DNX2 pool factor of zero".into(),
            );
            broken = true;
        }

        // --- Source operands: definedness, geometry, format wiring. ---
        let mut src_states: Vec<Option<usize>> = Vec::with_capacity(ins.in_groups);
        for g in 0..ins.in_groups {
            let loc = ins.src.offset(g);
            src_states.push(read_operand(
                &mut rpt,
                &live,
                i,
                loc,
                Some(ins.in_size.0),
                "src",
            ));
        }
        let src_ok = src_states.iter().all(Option::is_some);
        let src_idx: Vec<usize> = src_states.iter().flatten().copied().collect();
        for &idx in &src_idx {
            rpt.planes[idx].last_use = Some(i);
        }

        // --- Conv geometry, re-derived from the input block. ---
        let zero_pad = ins.inference == InferenceKind::ZeroPadded;
        let geom_ok = !broken && check_geometry(&mut rpt, i, ins, zero_pad);

        // --- srcS operand. ---
        let acc_dom = acc_domain(ins);
        let mut srcs_state: Option<usize> = None;
        if let Some(srcs) = ins.src_s {
            match ins.q.src_s {
                None => {
                    rpt.push(
                        DiagCode::QFormatMismatch,
                        Some(i),
                        "srcS operand without a srcS format (the executor would panic)".into(),
                    );
                    broken = true;
                }
                Some(_) => {
                    srcs_state = read_operand(&mut rpt, &live, i, srcs, None, "srcS");
                    if let Some(idx) = srcs_state {
                        rpt.planes[idx].last_use = Some(i);
                        let p = rpt.planes[idx];
                        let (dc, dh, dw) = acc_dom;
                        if p.height < dh || p.width < dw {
                            rpt.push(
                                DiagCode::ShapeMismatch,
                                Some(i),
                                format!(
                                    "srcS plane {}x{} smaller than the {dw}x{dh} accumulator \
                                     (the executor would panic)",
                                    p.width, p.height
                                ),
                            );
                            broken = true;
                        }
                        if p.channels < dc.min(LEAF_CH) {
                            rpt.push(
                                DiagCode::ShapeMismatch,
                                Some(i),
                                format!(
                                    "srcS carries {} channel(s) for a {dc}-channel accumulator",
                                    p.channels
                                ),
                            );
                            broken = true;
                        }
                    }
                }
            }
        }

        // --- Aliasing: dst inside this instruction's src gather range. ---
        if let (FeatLoc::Bb { id: sid, group: sg }, FeatLoc::Bb { id: did, group: dg }) =
            (ins.src, ins.dst)
        {
            let span = sg as usize..(sg as usize).saturating_add(ins.in_groups);
            if sid == did && span.contains(&(dg as usize)) {
                rpt.push(
                    DiagCode::AliasHazard,
                    Some(i),
                    format!(
                        "dst {} lies inside the src gather range {}..+{}",
                        ins.dst, ins.src, ins.in_groups
                    ),
                );
            }
        }

        // --- Lints that need only the instruction itself. ---
        for (li, leaf) in leafset.iter().enumerate() {
            if ins.opcode.has_conv3x3() && leaf.w3.iter().all(|&w| w == 0) {
                rpt.push(
                    DiagCode::ZeroTaps,
                    Some(i),
                    format!("leaf {li}: 3x3 filter is entirely zero"),
                );
            }
            if ins.opcode.has_conv1x1() && leaf.w1.iter().all(|&w| w == 0) {
                rpt.push(
                    DiagCode::ZeroTaps,
                    Some(i),
                    format!("leaf {li}: 1x1 filter is entirely zero"),
                );
            }
        }
        if ins.opcode.has_conv3x3() && zero_pad && ins.in_size.0 < 3 {
            rpt.push(
                DiagCode::NarrowBand,
                Some(i),
                format!(
                    "input block {}x{} narrower than the 3x3 footprint",
                    ins.in_size.0, ins.in_size.1
                ),
            );
        }

        // --- The destination write. ---
        if matches!(ins.dst, FeatLoc::Do { .. }) && ins.relu && ins.q.dst.is_signed() {
            // Purely informational in the current models; no diagnostic.
        }
        let dst_channels = if ins.opcode == Opcode::Upx2 {
            ins.out_groups.saturating_mul(LEAF_CH) / 4
        } else {
            LEAF_CH
        };
        if matches!(ins.dst, FeatLoc::Di { .. }) {
            rpt.push(
                DiagCode::UndefOperand,
                Some(i),
                "instruction writes to the DI stream".into(),
            );
            rpt.ranges.push(None);
            continue;
        }

        // --- Interval analysis. ---
        let analyzable = !broken && geom_ok && src_ok;
        let range = if analyzable {
            analyze(
                &mut rpt,
                i,
                ins,
                leafset,
                &src_idx,
                srcs_state,
                &states,
                dst_channels,
            )
        } else {
            None
        };
        // Even when analysis fails, the stored plane is still bounded by
        // its format's code range (requantization clamps every store).
        let st = match &range {
            Some((_, per_ch)) => Some(PlaneState {
                frac: ins.q.dst.frac() as i32,
                ranges: per_ch.clone(),
            }),
            None => Some(PlaneState::full(ins.q.dst, dst_channels)),
        };
        rpt.ranges.push(range.map(|(r, _)| r));
        live.insert(ins.dst, rpt.planes.len());
        rpt.planes.push(PlaneRecord {
            loc: ins.dst,
            channels: dst_channels,
            height: ins.out_size.1,
            width: ins.out_size.0,
            born: Some(i),
            last_use: None,
        });
        states.push(st);
    }

    // --- DO assembly: every output group defined, sized, and formatted. ---
    let out_groups = program.do_channels.div_ceil(LEAF_CH);
    let end = program.instructions.len();
    for g in 0..out_groups {
        let loc = FeatLoc::Do { group: g as u8 };
        let Some(&idx) = live.get(&loc) else {
            rpt.push(
                DiagCode::UndefOperand,
                None,
                format!("output group {loc} is never written"),
            );
            continue;
        };
        let p = rpt.planes[idx];
        rpt.planes[idx].last_use = Some(end);
        if p.height != program.do_side || p.width != program.do_side {
            rpt.push(
                DiagCode::ShapeMismatch,
                p.born,
                format!(
                    "{loc} plane {}x{} vs declared DO side {}",
                    p.width, p.height, program.do_side
                ),
            );
        }
        let logical = LEAF_CH.min(
            program
                .do_channels
                .saturating_sub(g.saturating_mul(LEAF_CH)),
        );
        if p.channels < logical {
            rpt.push(
                DiagCode::ShapeMismatch,
                p.born,
                format!(
                    "{loc} plane carries {} channel(s) for {logical} logical output channel(s)",
                    p.channels
                ),
            );
        }
        if let Some(st) = states[idx].as_ref() {
            if st.frac != program.do_q.frac() as i32 {
                rpt.push(
                    DiagCode::QFormatMismatch,
                    p.born,
                    format!(
                        "{loc} stored at Q{} but the DO stream declares {}",
                        st.frac, program.do_q
                    ),
                );
            }
        }
    }

    // --- Dead planes: written, never consumed. ---
    let dead: Vec<(Option<usize>, FeatLoc)> = rpt
        .planes
        .iter()
        .filter(|p| p.born.is_some() && p.last_use.is_none())
        .map(|p| (p.born, p.loc))
        .collect();
    for (born, loc) in dead {
        rpt.push(
            DiagCode::DeadPlane,
            born,
            format!("{loc} is written but never read"),
        );
    }

    rpt.rank();
    rpt
}

/// Spatial/channel domain of the accumulator at srcS-accumulation time.
fn acc_domain(ins: &Instruction) -> (usize, usize, usize) {
    match ins.opcode {
        // UPX2 accumulates srcS after the shuffle, in the destination
        // domain; DNX2 before pooling, on the conv grid.
        Opcode::Upx2 => (
            ins.out_groups.saturating_mul(LEAF_CH) / 4,
            ins.out_size.1,
            ins.out_size.0,
        ),
        Opcode::Dnx2 => {
            let (cw, chh) = ins.conv_out_size();
            (LEAF_CH, chh, cw)
        }
        Opcode::Conv | Opcode::Er => {
            let (cw, chh) = ins.conv_out_size();
            (LEAF_CH, chh, cw)
        }
        Opcode::Conv1 => (LEAF_CH, ins.in_size.1, ins.in_size.0),
    }
}

/// Resolves one read operand: definedness plus an optional square-side
/// check. Returns the plane-table index when the operand resolves.
/// (Fractional-position wiring is checked against the producer's stored
/// state inside the interval analysis.)
fn read_operand(
    rpt: &mut VerifyReport,
    live: &HashMap<FeatLoc, usize>,
    at: usize,
    loc: FeatLoc,
    expect_side: Option<usize>,
    role: &str,
) -> Option<usize> {
    if matches!(loc, FeatLoc::Do { .. }) {
        rpt.push(
            DiagCode::UndefOperand,
            Some(at),
            format!("{role} reads from the DO stream"),
        );
        return None;
    }
    let Some(&idx) = live.get(&loc) else {
        rpt.push(
            DiagCode::UndefOperand,
            Some(at),
            format!("{role} operand {loc} was never written"),
        );
        return None;
    };
    let p = rpt.planes[idx];
    if let Some(side) = expect_side {
        if p.height != side || p.width != side {
            rpt.push(
                DiagCode::ShapeMismatch,
                Some(at),
                format!(
                    "{role} plane {loc} is {}x{} vs declared side {side}",
                    p.width, p.height
                ),
            );
            return None;
        }
    }
    Some(idx)
}

/// Re-derives the conv grid from the input block and cross-checks the
/// declared output size. Returns whether the geometry is consistent.
fn check_geometry(rpt: &mut VerifyReport, i: usize, ins: &Instruction, zero_pad: bool) -> bool {
    let declared = ins.conv_out_size();
    if ins.opcode == Opcode::Upx2 && !ins.out_size.0.is_multiple_of(2) {
        rpt.push(
            DiagCode::ShapeMismatch,
            Some(i),
            format!("UPX2 output side {} is not even", ins.out_size.0),
        );
        return false;
    }
    // CONV1 and zero-padded 3x3 convs preserve the block side; valid
    // (truncated-pyramid) 3x3 convs shrink it by the 2-pixel border.
    let derived = if ins.opcode == Opcode::Conv1 || zero_pad {
        Some(ins.in_size.0)
    } else {
        ins.in_size.0.checked_sub(2)
    };
    match derived {
        Some(d) if d == declared.0 && d > 0 => true,
        Some(d) => {
            rpt.push(
                DiagCode::ShapeMismatch,
                Some(i),
                format!(
                    "conv grid {}x{} declared but input block {}x{} yields {d}x{d}",
                    declared.0, declared.1, ins.in_size.0, ins.in_size.1
                ),
            );
            false
        }
        None => {
            rpt.push(
                DiagCode::ShapeMismatch,
                Some(i),
                format!(
                    "input block {}x{} smaller than the 3x3 valid-conv footprint",
                    ins.in_size.0, ins.in_size.1
                ),
            );
            false
        }
    }
}

/// Abstract interpretation of one instruction. Returns the proven
/// [`InstrRange`] plus the per-channel stored ranges of the written
/// plane, or `None` when an overflow diagnostic was emitted (the caller
/// then falls back to the destination format's full code range, which
/// the clamped store still guarantees).
#[allow(clippy::too_many_arguments)]
fn analyze(
    rpt: &mut VerifyReport,
    i: usize,
    ins: &Instruction,
    leafset: &[LeafParams],
    src_idx: &[usize],
    srcs_idx: Option<usize>,
    states: &[Option<PlaneState>],
    dst_channels: usize,
) -> Option<(InstrRange, Vec<Iv>)> {
    // Gathered source ranges: `in_groups * LEAF_CH` channel intervals.
    // The executor reads every source code at the *declared* src
    // fraction, so any drift from a producer's stored fraction means
    // silent wrong pixels — flag it per group.
    let mut src_ranges: Vec<Iv> = Vec::with_capacity(src_idx.len().saturating_mul(LEAF_CH));
    for &idx in src_idx {
        match states[idx].as_ref() {
            Some(st) => {
                if st.frac != ins.q.src.frac() as i32 {
                    rpt.push(
                        DiagCode::QFormatMismatch,
                        Some(i),
                        format!(
                            "src stored at Q{} but the instruction declares {}",
                            st.frac, ins.q.src
                        ),
                    );
                    return None;
                }
                src_ranges.extend_from_slice(&st.ranges);
            }
            None => return None,
        }
    }
    let zero_pad = ins.inference == InferenceKind::ZeroPadded;
    let overflow = |rpt: &mut VerifyReport, msg: String| {
        rpt.push(DiagCode::AccOverflow, Some(i), msg);
    };

    match ins.opcode {
        Opcode::Conv | Opcode::Dnx2 | Opcode::Upx2 => {
            let prod3 = (ins.q.w3.frac() as i32).saturating_add(ins.q.src.frac() as i32);
            let b3 = ins.q.b3.frac() as i32;
            let out_planes = if ins.opcode == Opcode::Upx2 {
                ins.out_groups
            } else {
                1
            };
            let mut acc: Vec<Iv> = Vec::with_capacity(out_planes.saturating_mul(LEAF_CH));
            for op_ in 0..out_planes {
                for oc in 0..LEAF_CH {
                    // Bias pre-sum, aligned to the product position.
                    let mut bias: Iv = (0, 0);
                    let bias_leafs: &[LeafParams] = if ins.opcode == Opcode::Upx2 {
                        &leafset[op_..op_.saturating_add(1)]
                    } else {
                        leafset
                    };
                    for leaf in bias_leafs {
                        let v = leaf.b3[oc] as i128;
                        match align_iv((v, v), b3, prod3) {
                            Ok(a) => bias = iv_add(bias, a),
                            Err(e) => {
                                overflow(rpt, format!("3x3 bias: {e}"));
                                return None;
                            }
                        }
                    }
                    let mut sum = bias;
                    let mut abs_sum = iv_abs_bound(bias);
                    for (ig, chunk) in src_ranges.chunks_exact(LEAF_CH).enumerate() {
                        let leaf = if ins.opcode == Opcode::Upx2 {
                            &leafset[op_]
                        } else {
                            &leafset[ig]
                        };
                        let filters = leaf.w3.chunks_exact(9).skip(oc.saturating_mul(LEAF_CH));
                        for (taps, &r) in filters.zip(chunk) {
                            let (c, abs) = fold_taps(taps, r, zero_pad);
                            sum = iv_add(sum, c);
                            abs_sum = abs_sum.saturating_add(abs);
                        }
                    }
                    if abs_sum > i64::MAX as i128 {
                        overflow(
                            rpt,
                            format!("3x3 accumulator can reach magnitude {abs_sum} (> i64)"),
                        );
                        return None;
                    }
                    acc.push(sum);
                }
            }
            // Narrow license, conv half: every conv-stage sum (pre-srcS,
            // pre-ReLU, pre-shuffle) provably fits i32 (`finish` adds the
            // post-srcS half).
            let narrow = acc.iter().all(|&a| fits_i32(a));
            // UPX2 shuffles 4 consecutive pre-shuffle channels into one.
            if ins.opcode == Opcode::Upx2 {
                acc = acc
                    .chunks_exact(4)
                    .map(|c| c.iter().copied().reduce(iv_hull).unwrap_or((0, 0)))
                    .collect();
            }
            finish(
                rpt,
                i,
                ins,
                acc,
                prod3,
                srcs_idx,
                states,
                dst_channels,
                None,
                narrow,
            )
        }
        Opcode::Conv1 => {
            let (w1q, b1q) = (ins.q.w1?, ins.q.b1?);
            let prod1 = (w1q.frac() as i32).saturating_add(ins.q.src.frac() as i32);
            let b1 = b1q.frac() as i32;
            let mut acc: Vec<Iv> = Vec::with_capacity(LEAF_CH);
            for oc in 0..LEAF_CH {
                let mut sum: Iv = (0, 0);
                for leaf in leafset {
                    let v = leaf.b1[oc] as i128;
                    match align_iv((v, v), b1, prod1) {
                        Ok(a) => sum = iv_add(sum, a),
                        Err(e) => {
                            overflow(rpt, format!("1x1 bias: {e}"));
                            return None;
                        }
                    }
                }
                let mut abs_sum = iv_abs_bound(sum);
                for (ig, chunk) in src_ranges.chunks_exact(LEAF_CH).enumerate() {
                    let leaf = &leafset[ig.min(leafset.len().saturating_sub(1))];
                    for (ic, &r) in chunk.iter().enumerate() {
                        let w = i64::from(leaf.w1[oc.saturating_mul(LEAF_CH).saturating_add(ic)]);
                        if w == 0 {
                            continue;
                        }
                        let c = iv_mul(w, r);
                        sum = iv_add(sum, c);
                        abs_sum = abs_sum.saturating_add(iv_abs_bound(c));
                    }
                }
                if abs_sum > i64::MAX as i128 {
                    overflow(
                        rpt,
                        format!("1x1 accumulator can reach magnitude {abs_sum} (> i64)"),
                    );
                    return None;
                }
                acc.push(sum);
            }
            let narrow = acc.iter().all(|&a| fits_i32(a));
            finish(
                rpt,
                i,
                ins,
                acc,
                prod1,
                srcs_idx,
                states,
                dst_channels,
                None,
                narrow,
            )
        }
        Opcode::Er => {
            let (w1q, b1q, midq) = (ins.q.w1?, ins.q.b1?, ins.q.mid?);
            let prod3 = (ins.q.w3.frac() as i32).saturating_add(ins.q.src.frac() as i32);
            let prod1 = (w1q.frac() as i32).saturating_add(midq.frac() as i32);
            let b3 = ins.q.b3.frac() as i32;
            let b1 = b1q.frac() as i32;
            // 1x1 biases, summed across leaves.
            let mut acc1: Vec<Iv> = Vec::with_capacity(LEAF_CH);
            for oc in 0..LEAF_CH {
                let mut sum: Iv = (0, 0);
                for leaf in leafset {
                    let v = leaf.b1[oc] as i128;
                    match align_iv((v, v), b1, prod1) {
                        Ok(a) => sum = iv_add(sum, a),
                        Err(e) => {
                            overflow(rpt, format!("ER 1x1 bias: {e}"));
                            return None;
                        }
                    }
                }
                acc1.push(sum);
            }
            let mut abs1: Vec<i128> = acc1.iter().map(|&a| iv_abs_bound(a)).collect();
            let mut er_raw: Option<Iv> = None;
            for leaf in leafset {
                // Per-leaf expansion plane: 3x3 -> ReLU -> mid quantizer.
                let mut mid: Vec<Iv> = Vec::with_capacity(LEAF_CH);
                for oc in 0..LEAF_CH {
                    let v = leaf.b3[oc] as i128;
                    let mut sum = match align_iv((v, v), b3, prod3) {
                        Ok(a) => a,
                        Err(e) => {
                            overflow(rpt, format!("ER 3x3 bias: {e}"));
                            return None;
                        }
                    };
                    let mut abs_sum = iv_abs_bound(sum);
                    let filters = leaf.w3.chunks_exact(9).skip(oc.saturating_mul(LEAF_CH));
                    for (taps, &r) in filters.zip(src_ranges.iter().take(LEAF_CH)) {
                        let (c, abs) = fold_taps(taps, r, zero_pad);
                        sum = iv_add(sum, c);
                        abs_sum = abs_sum.saturating_add(abs);
                    }
                    if abs_sum > i64::MAX as i128 {
                        overflow(
                            rpt,
                            format!("ER 3x3 accumulator can reach magnitude {abs_sum} (> i64)"),
                        );
                        return None;
                    }
                    er_raw = Some(match er_raw {
                        Some(h) => iv_hull(h, sum),
                        None => sum,
                    });
                    // The internal ReLU feeds the mid quantizer.
                    let (_, stored) = match requant_iv(iv_relu(sum), prod3, midq) {
                        Ok(v) => v,
                        Err(e) => {
                            overflow(rpt, format!("ER mid quantizer: {e}"));
                            return None;
                        }
                    };
                    mid.push(stored);
                }
                // LCONV1x1 reduction of this leaf's mid plane.
                for oc in 0..LEAF_CH {
                    for (ic, &r) in mid.iter().enumerate() {
                        let w = i64::from(leaf.w1[oc.saturating_mul(LEAF_CH).saturating_add(ic)]);
                        if w == 0 {
                            continue;
                        }
                        let c = iv_mul(w, r);
                        acc1[oc] = iv_add(acc1[oc], c);
                        abs1[oc] = abs1[oc].saturating_add(iv_abs_bound(c));
                    }
                }
            }
            if let Some(&worst) = abs1.iter().max() {
                if worst > i64::MAX as i128 {
                    overflow(
                        rpt,
                        format!("ER 1x1 accumulator can reach magnitude {worst} (> i64)"),
                    );
                    return None;
                }
            }
            let er64 = er_raw.map(|r| (r.0 as i64, r.1 as i64));
            // Narrow license covers both ER conv stages: the per-leaf 3×3
            // expansion accumulators (pre-ReLU) and the 1×1 reduction
            // accumulators after every leaf (pre-srcS).
            let narrow = er_raw.is_some_and(fits_i32) && acc1.iter().all(|&a| fits_i32(a));
            finish(
                rpt,
                i,
                ins,
                acc1,
                prod1,
                srcs_idx,
                states,
                dst_channels,
                er64,
                narrow,
            )
        }
    }
}

/// Shared tail of every opcode's analysis: srcS accumulation, ReLU,
/// requantization with overflow/headroom checks, and the stored
/// destination ranges.
#[allow(clippy::too_many_arguments)]
fn finish(
    rpt: &mut VerifyReport,
    i: usize,
    ins: &Instruction,
    mut acc: Vec<Iv>,
    acc_frac: i32,
    srcs_idx: Option<usize>,
    states: &[Option<PlaneState>],
    dst_channels: usize,
    er_acc3: Option<(i64, i64)>,
    narrow_acc: bool,
) -> Option<(InstrRange, Vec<Iv>)> {
    if let (Some(idx), Some(sq)) = (srcs_idx, ins.q.src_s) {
        let st = states[idx].as_ref()?;
        if st.frac != sq.frac() as i32 {
            rpt.push(
                DiagCode::QFormatMismatch,
                Some(i),
                format!(
                    "srcS stored at Q{} but the instruction declares {sq}",
                    st.frac
                ),
            );
            return None;
        }
        for (c, a) in acc.iter_mut().enumerate() {
            let r = st.ranges.get(c).copied().unwrap_or_else(|| st.hull());
            match align_iv(r, sq.frac() as i32, acc_frac) {
                Ok(al) => *a = iv_add(*a, al),
                Err(e) => {
                    rpt.push(DiagCode::AccOverflow, Some(i), format!("srcS: {e}"));
                    return None;
                }
            }
        }
    }
    // The narrow path adds srcS in wrapping `i32`: exact only when the
    // post-srcS (pre-ReLU) sum fits too.
    let narrow_acc = narrow_acc && acc.iter().all(|&a| fits_i32(a));
    // ER never applies the post-activation here (its ReLU lives inside
    // the leaf, before the mid quantizer) — mirroring the executor.
    if ins.relu && ins.opcode != Opcode::Er {
        for a in acc.iter_mut() {
            *a = iv_relu(*a);
        }
    }
    let acc_hull = acc.iter().copied().reduce(iv_hull).unwrap_or((0, 0));
    if !fits_i64(acc_hull) {
        rpt.push(
            DiagCode::AccOverflow,
            Some(i),
            format!(
                "accumulator range [{}, {}] exceeds i64",
                acc_hull.0, acc_hull.1
            ),
        );
        return None;
    }
    let mut stored: Vec<Iv> = Vec::with_capacity(acc.len());
    let mut raw_hull: Option<Iv> = None;
    for &a in &acc {
        match requant_iv(a, acc_frac, ins.q.dst) {
            Ok((raw, clamped)) => {
                raw_hull = Some(match raw_hull {
                    Some(h) => iv_hull(h, raw),
                    None => raw,
                });
                stored.push(clamped);
            }
            Err(e) => {
                rpt.push(DiagCode::AccOverflow, Some(i), e);
                return None;
            }
        }
    }
    // Map the analyzed channel set onto the stored plane's channel count
    // (identical except for degenerate hand-built programs).
    stored.resize(dst_channels, stored.last().copied().unwrap_or((0, 0)));
    let dst_hull = stored.iter().copied().reduce(iv_hull).unwrap_or((0, 0));

    // No-op requantization lint: the accumulator already sits at the
    // destination's fractional position and its proven range never
    // clamps, so the rescale-round-clamp stage is a bit-exact copy.
    if let Some(raw) = raw_hull {
        let (lo, hi) = (ins.q.dst.min_code() as i128, ins.q.dst.max_code() as i128);
        let never_clamps = raw.0 >= lo && raw.1 <= hi;
        if acc_frac == ins.q.dst.frac() as i32 && never_clamps {
            rpt.push(
                DiagCode::RedundantRequant,
                Some(i),
                format!(
                    "requantization to {} is a no-op: accumulator already at Q{acc_frac} \
                     with range [{}, {}] inside the format",
                    ins.q.dst, raw.0, raw.1
                ),
            );
        }
    }
    Some((
        InstrRange {
            acc: (acc_hull.0 as i64, acc_hull.1 as i64),
            er_acc3,
            dst: (dst_hull.0 as i64, dst_hull.1 as i64),
            narrow_acc,
        },
        stored,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::params::QuantizedModel;
    use ecnn_model::ernet::{ErNetSpec, ErNetTask};

    fn verify_task(task: ErNetTask, b: usize, r: usize, n: usize, side: usize) -> VerifyReport {
        let m = ErNetSpec::new(task, b, r, n).build().unwrap();
        let qm = QuantizedModel::uniform(&m);
        let c = compile(&qm, side).unwrap();
        verify_compiled(&c)
    }

    #[test]
    fn paper_programs_verify_clean() {
        for (task, b, r, n) in [
            (ErNetTask::Dn, 3, 1, 0),
            (ErNetTask::Sr2, 2, 2, 1),
            (ErNetTask::Sr4, 1, 2, 1),
            (ErNetTask::Dn12, 2, 1, 0),
        ] {
            let rpt = verify_task(task, b, r, n, 64);
            assert!(rpt.is_clean(), "{task:?} b={b} r={r} n={n}:\n{rpt}");
        }
    }

    #[test]
    fn report_ranges_cover_every_instruction() {
        let rpt = verify_task(ErNetTask::Dn, 3, 1, 0, 64);
        assert!(rpt.ranges.iter().all(Option::is_some));
        assert!(!rpt.planes.is_empty());
        assert!(rpt.passes(VerifyMode::Strict));
    }

    /// The tap-by-tap fold [`fold_taps`] replaces, kept as its oracle:
    /// each tap's product interval (in plain saturating `i128`), hulled
    /// with zero under zero padding, added one at a time, with the taps'
    /// magnitude bounds summed.
    fn per_tap_fold(taps: &[i16], r: Iv, zero_pad: bool) -> (Iv, i128) {
        let (mut sum, mut abs) = ((0, 0), 0);
        for &w in taps {
            let w = i128::from(w);
            let mut c = if w >= 0 {
                (w.saturating_mul(r.0), w.saturating_mul(r.1))
            } else {
                (w.saturating_mul(r.1), w.saturating_mul(r.0))
            };
            if zero_pad {
                c = iv_hull(c, (0, 0));
            }
            sum = iv_add(sum, c);
            abs += iv_abs_bound(c);
        }
        (sum, abs)
    }

    #[test]
    fn mul_saturates_like_i128() {
        let wide = [
            0,
            1,
            -1,
            i128::from(i64::MAX),
            i128::from(i64::MIN),
            i128::from(i64::MAX) + 1,
            i128::from(i64::MIN) - 1,
            i128::MAX,
            i128::MIN,
        ];
        for a in [0, 1, -1, 2047, -2047, i64::MAX, i64::MIN] {
            for b in wide {
                assert_eq!(mul(a, b), i128::from(a).saturating_mul(b), "{a} * {b}");
            }
        }
    }

    proptest::proptest! {
        /// The folded interval and magnitude bound equal the per-tap
        /// fold for random 9-tap filters across the whole codable range
        /// (with a random subset of taps zeroed), source ranges of
        /// either sign or straddling zero, and zero padding on and off.
        #[test]
        fn prop_folded_taps_equal_the_per_tap_fold(
            weights in proptest::collection::vec(-2047i16..=2047, 9..10),
            zeros in 0u32..512,
            a in -(1i64 << 31)..(1i64 << 31),
            b in -(1i64 << 31)..(1i64 << 31),
            pad in 0u8..2,
        ) {
            let taps: Vec<i16> = weights
                .iter()
                .enumerate()
                .map(|(k, &w)| if zeros >> k & 1 == 1 { 0 } else { w })
                .collect();
            let r = (i128::from(a.min(b)), i128::from(a.max(b)));
            let zero_pad = pad == 1;
            proptest::prop_assert_eq!(
                fold_taps(&taps, r, zero_pad),
                per_tap_fold(&taps, r, zero_pad)
            );
        }
    }
}
