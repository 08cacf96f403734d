//! The unified engine/backend API: one entry point for eCNN and every
//! comparison flow, plus streaming multi-frame sessions.
//!
//! * [`Workload`] bundles what to run: a quantized model, an input block
//!   size and a [`RealTimeSpec`] target.
//! * [`Backend`] is the reporting surface every inference flow implements
//!   (the eCNN simulator here, the frame-based / fused-layer / TPU / Diffy
//!   flows in `ecnn-baselines`): a [`FrameReport`] for any workload.
//! * [`EngineBuilder`] is the fluent front door to the eCNN simulator;
//!   [`Engine`] the built instance and the one entry to bit-exact
//!   execution; [`Session`] a streaming handle that reuses its
//!   block/stitch buffers across frames.
//! * [`EngineError`] is the one structured error type for the whole
//!   surface, with [`std::error::Error::source`] chaining.

use crate::config::EngineConfig;
use crate::faults::FaultPlan;
use crate::report::SystemReport;
use crate::supervise::{DegradeRung, SupervisorCounters};
use ecnn_dram::{DramConfig, DramPowerModel};
use ecnn_isa::compile::{compile, CompileError, CompiledProgram};
use ecnn_isa::params::QuantizedModel;
use ecnn_isa::verify::memplan::{cost_model, CostReport};
use ecnn_isa::verify::{Proven, VerifyMode, VerifyReport};
use ecnn_model::ernet::ErNetSpec;
use ecnn_model::{Model, ModelError, RealTimeSpec};
use ecnn_sim::cost::PowerModel;
use ecnn_sim::exec::{execute_at, BlockPlan, ExecError, ExecStats, Extents, Kernels, PlanePool};
use ecnn_sim::timing::simulate_frame;
use ecnn_sim::EcnnConfig;
use ecnn_tensor::Tensor;
use std::fmt;

/// What to run: a quantized model bound to a block size and a real-time
/// target. Backends interpret the same workload in their own flow.
#[derive(Clone, Debug)]
pub struct Workload {
    /// The quantized model (carries the IR in `qm.model`).
    pub qm: QuantizedModel,
    /// Input block side for the block-based flow.
    pub block: usize,
    /// Output resolution and frame-rate target.
    pub spec: RealTimeSpec,
    /// Feature width in bits charged by frame-based baselines.
    pub feature_bits: u32,
}

impl Workload {
    /// A workload with the default 16-bit baseline feature width.
    pub fn new(qm: QuantizedModel, block: usize, spec: RealTimeSpec) -> Self {
        Self {
            qm,
            block,
            spec,
            feature_bits: 16,
        }
    }

    /// Builds an ERNet spec with uniform demo parameters.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] for invalid specs.
    pub fn ernet(spec: ErNetSpec, block: usize, rt: RealTimeSpec) -> Result<Self, EngineError> {
        let model = spec.build()?;
        Ok(Self::new(QuantizedModel::uniform(&model), block, rt))
    }

    /// The model IR.
    pub fn model(&self) -> &Model {
        &self.qm.model
    }

    /// Same workload with a different baseline feature width.
    pub fn with_feature_bits(mut self, bits: u32) -> Self {
        self.feature_bits = bits;
        self
    }
}

/// An image whose geometry does not match the deployed program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ImageMismatch {
    /// Offered image width in pixels.
    pub width: usize,
    /// Offered image height in pixels.
    pub height: usize,
    /// Offered image channels.
    pub channels: usize,
    /// Channels the deployed model consumes.
    pub expected_channels: usize,
    /// Input block side the program was compiled for.
    pub block: usize,
}

impl fmt::Display for ImageMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "image {}x{} with {} channel(s): model wants {} channel(s) (input blocks {}x{})",
            self.width, self.height, self.channels, self.expected_channels, self.block, self.block
        )
    }
}

/// Errors across the engine/backend surface.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// The builder was missing a required component.
    Missing(&'static str),
    /// A model spec failed to build.
    Model(ModelError),
    /// Compilation failed (infeasible geometry, unsupported op, …).
    Compile(CompileError),
    /// Block execution failed (simulator invariant violation).
    Exec(ExecError),
    /// Static verification rejected the program (see
    /// [`mod@ecnn_isa::verify`]); the report carries the ranked diagnostics.
    Verify(Box<VerifyReport>),
    /// The resolved [`EngineConfig`] is incoherent (a zero block size):
    /// a structured build-time rejection instead of a silent fallback.
    Config {
        /// Which knob is at fault (`"block"`).
        param: &'static str,
        /// Human-readable description of the conflict.
        detail: String,
    },
    /// The image cannot be processed by this deployment.
    Image(ImageMismatch),
    /// A worker panicked while running a band — the source of the
    /// [`EngineError::Frame`] that names the worker.
    Worker {
        /// The panic payload, when it was a `&str` / `String` message —
        /// so post-mortems name the actual panic.
        message: Option<String>,
    },
    /// A band's output failed an integrity check — the corruption-class
    /// failure the supervision layer's degradation ladder reacts to
    /// (today produced only by [`crate::faults`] injection; a real
    /// detector would raise the same variant). The band is never pasted,
    /// so a frame that eventually completes stays bit-identical.
    Corrupt {
        /// First block row of the band whose output was corrupt.
        band: usize,
        /// Kernel family that produced the corrupt output.
        kernels: &'static str,
    },
    /// A band of a parallel run exhausted its attempts — the one
    /// band-failure shape of both one-shot sharded runs and pipelined
    /// streams. Carries the frame's submission index, the worker that hit
    /// the failure and the failing block of the frame's grid, plus the
    /// underlying error.
    Frame {
        /// Submission index of the frame within its [`crate::pipe::AsyncSession`]
        /// (always 0 for [`Engine::run_image_sharded`]).
        frame: usize,
        /// Worker index within the session's pool.
        worker: usize,
        /// Row-major index of the failing block in the frame's block grid.
        block: usize,
        /// The error the worker hit.
        source: Box<EngineError>,
    },
    /// A frame ticket unknown to the session it was polled on: never
    /// issued there, or its result was already claimed.
    Ticket {
        /// Submission index the ticket names.
        frame: usize,
    },
    /// A band-execution request addressed block rows outside the frame's
    /// grid (or an empty range).
    Rows {
        /// First requested block row.
        start: usize,
        /// One past the last requested block row.
        end: usize,
        /// Block rows the frame's grid actually has.
        available: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Missing(what) => write!(f, "engine builder: missing {what}"),
            EngineError::Model(e) => write!(f, "model: {e}"),
            EngineError::Compile(e) => write!(f, "compile: {e}"),
            EngineError::Exec(e) => write!(f, "execute: {e}"),
            EngineError::Verify(report) => {
                let first = report
                    .errors()
                    .next()
                    .or_else(|| report.diagnostics.first());
                match first {
                    Some(d) => write!(
                        f,
                        "verify: {} finding(s), first: {d}",
                        report.diagnostics.len()
                    ),
                    None => write!(f, "verify: rejected"),
                }
            }
            EngineError::Config { param, detail } => {
                write!(f, "config: {param}: {detail}")
            }
            EngineError::Image(m) => write!(f, "image: {m}"),
            EngineError::Worker { message } => match message {
                Some(msg) => write!(f, "worker panicked: {msg}"),
                None => write!(f, "worker panicked"),
            },
            EngineError::Corrupt { band, kernels } => {
                write!(
                    f,
                    "corrupt band output detected at block row {band} ({kernels} kernels)"
                )
            }
            EngineError::Frame {
                frame,
                worker,
                block,
                source,
            } => {
                write!(
                    f,
                    "frame {frame} failed in flight (worker {worker}, block {block}): {source}"
                )
            }
            EngineError::Ticket { frame } => {
                write!(f, "frame ticket {frame}: unknown or already claimed")
            }
            EngineError::Rows {
                start,
                end,
                available,
            } => {
                write!(
                    f,
                    "block rows {start}..{end} outside the frame grid of {available} row(s)"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Model(e) => Some(e),
            EngineError::Compile(e) => Some(e),
            EngineError::Exec(e) => Some(e),
            EngineError::Frame { source, .. } => Some(&**source),
            _ => None,
        }
    }
}

impl From<ModelError> for EngineError {
    fn from(e: ModelError) -> Self {
        EngineError::Model(e)
    }
}

impl From<CompileError> for EngineError {
    fn from(e: CompileError) -> Self {
        EngineError::Compile(e)
    }
}

impl From<ExecError> for EngineError {
    fn from(e: ExecError) -> Self {
        EngineError::Exec(e)
    }
}

/// Per-image execution statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ImageRunStats {
    /// Blocks executed.
    pub blocks: usize,
    /// Aggregated executor counters.
    pub exec: ExecStats,
    /// Supervision counters for this frame (retries, respawns, deadline
    /// hits, degradations, per-band attempt histogram). All-zero on the
    /// unsupervised serial session.
    pub supervisor: SupervisorCounters,
}

impl ImageRunStats {
    fn absorb(&mut self, s: ExecStats, blocks: usize) {
        self.blocks += blocks;
        self.exec.accumulate(&s);
    }

    /// Adds another run's counters into this one (band merging).
    pub fn merge(&mut self, other: &ImageRunStats) {
        self.absorb(other.exec, other.blocks);
        self.supervisor.absorb(&other.supervisor);
    }
}

/// Backend-agnostic frame-level result: what one inference flow delivers
/// on one workload. Every backend fills the common fields; flow-specific
/// quantities that have no equivalent elsewhere stay `None`.
#[derive(Clone, Debug)]
pub struct FrameReport {
    /// Backend name.
    pub backend: String,
    /// Model name.
    pub workload: String,
    /// The real-time target evaluated against.
    pub spec: RealTimeSpec,
    /// Achievable frames per second.
    pub fps: f64,
    /// Whether `fps` meets the spec.
    pub meets_realtime: bool,
    /// DRAM traffic per output frame, bytes.
    pub dram_bytes_per_frame: f64,
    /// Sustained DRAM bandwidth at the spec-capped rate, bytes/s.
    pub dram_bps: f64,
    /// On-chip SRAM holding features (block buffers, line buffers or
    /// unified buffer), bytes.
    pub feature_sram_bytes: f64,
    /// Power estimate in watts, when the flow models power.
    pub power_w: Option<f64>,
    /// Effective compute throughput in TOPS, when modelled.
    pub tops: Option<f64>,
    /// Datapath utilization in `[0, 1]`, when modelled.
    pub utilization: Option<f64>,
    /// Flow-specific remark (provenance, caveats).
    pub note: String,
}

impl FrameReport {
    /// Header matching [`FrameReport`]'s `Display` row.
    pub fn table_header() -> String {
        format!(
            "{:<12} {:<22} {:>6} {:>8} {:>3} {:>10} {:>10} {:>8} {:>6}",
            "backend", "workload", "spec", "fps", "RT", "DRAM GB/s", "SRAM KB", "power W", "util%"
        )
    }

    /// Renders `reports` as one aligned comparison table.
    pub fn table(reports: &[FrameReport]) -> String {
        let mut s = Self::table_header();
        for r in reports {
            s.push('\n');
            s.push_str(&r.to_string());
        }
        s
    }
}

impl fmt::Display for FrameReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let opt = |v: Option<f64>, mul: f64| match v {
            Some(x) => format!("{:.1}", x * mul),
            None => "-".into(),
        };
        write!(
            f,
            "{:<12} {:<22} {:>6} {:>8.1} {:>3} {:>10.2} {:>10.0} {:>8} {:>6}",
            self.backend,
            self.workload,
            self.spec.name,
            self.fps,
            if self.meets_realtime { "yes" } else { "NO" },
            self.dram_bps / 1e9,
            self.feature_sram_bytes / 1024.0,
            opt(self.power_w, 1.0),
            opt(self.utilization, 100.0),
        )
    }
}

/// One inference flow: the eCNN block-based simulator or any of the
/// comparison baselines, as an analytical [`FrameReport`]. Bit-exact
/// images run on [`Engine`] ([`EcnnBackend::engine`] builds one from a
/// [`Workload`]).
pub trait Backend {
    /// Short stable identifier (`"ecnn"`, `"frame-based"`, …).
    fn name(&self) -> &str;

    /// Frame-level throughput / traffic / power for `workload`.
    ///
    /// # Errors
    ///
    /// Backend-specific; the eCNN backend propagates compilation errors.
    fn frame_report(&self, workload: &Workload) -> Result<FrameReport, EngineError>;
}

/// Fluent constructor for [`Engine`]: model spec → quantization → block
/// size → real-time spec → machine/power/DRAM models, with paper defaults
/// for everything but the model and block size.
///
/// Every plan-time knob — block size, kernel family, verification mode,
/// fault plan — resolves into one canonical [`EngineConfig`]; the
/// per-knob setters below are thin sugar over it. Resolution order,
/// weakest first: defaults, the explicit setters (or
/// [`EngineBuilder::engine_config`]), and the `ECNN_*` environment
/// overrides (see [`crate::config`]). [`Engine::config`] returns the
/// resolved value. Parallelism is not plan-time: pass the worker count
/// to [`Engine::async_session`] or [`Engine::run_image_sharded`].
#[derive(Clone, Debug, Default)]
pub struct EngineBuilder {
    pub(crate) ernet: Option<ErNetSpec>,
    pub(crate) model: Option<Model>,
    pub(crate) qm: Option<QuantizedModel>,
    pub(crate) block: Option<usize>,
    pub(crate) spec: Option<RealTimeSpec>,
    feature_bits: Option<u32>,
    machine: Option<EcnnConfig>,
    power: Option<PowerModel>,
    dram_power: Option<DramPowerModel>,
    verify: Option<VerifyMode>,
    kernels: Option<Kernels>,
    faults: Option<FaultPlan>,
}

impl EngineBuilder {
    /// Use an ERNet family spec (built during [`EngineBuilder::build`]).
    pub fn ernet(mut self, spec: ErNetSpec) -> Self {
        self.ernet = Some(spec);
        self
    }

    /// Use an already-built model IR (quantized uniformly unless
    /// [`EngineBuilder::quantized`] provides parameters).
    pub fn model(mut self, model: Model) -> Self {
        self.model = Some(model);
        self
    }

    /// Use trained quantized parameters (implies their model).
    pub fn quantized(mut self, qm: QuantizedModel) -> Self {
        self.qm = Some(qm);
        self
    }

    /// Input block side (`xi`).
    pub fn block(mut self, xi: usize) -> Self {
        self.block = Some(xi);
        self
    }

    /// Real-time target; defaults to [`RealTimeSpec::UHD30`].
    pub fn realtime(mut self, spec: RealTimeSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Feature bits charged by frame-based baselines on this workload.
    pub fn feature_bits(mut self, bits: u32) -> Self {
        self.feature_bits = Some(bits);
        self
    }

    /// Machine (hardware) configuration; defaults to
    /// [`EcnnConfig::paper`]. Distinct from the plan-time
    /// [`EngineConfig`]: this describes the modelled silicon, not the
    /// software execution strategy.
    pub fn machine(mut self, config: EcnnConfig) -> Self {
        self.machine = Some(config);
        self
    }

    /// On-chip power model; defaults to [`PowerModel::paper_40nm`].
    pub fn power(mut self, power: PowerModel) -> Self {
        self.power = Some(power);
        self
    }

    /// DRAM power model; defaults to [`DramPowerModel::DDR4_3200`].
    pub fn dram_power(mut self, dram: DramPowerModel) -> Self {
        self.dram_power = Some(dram);
        self
    }

    /// Static-verification mode run at build time; defaults to
    /// [`VerifyMode::Lints`] (hard errors fatal, lints tolerated and
    /// recorded on [`Engine::verify_report`]). [`VerifyMode::Strict`]
    /// also fails the build on lints; [`VerifyMode::Off`] skips the
    /// verifier and the plan cross-check entirely.
    pub fn verify(mut self, mode: VerifyMode) -> Self {
        self.verify = Some(mode);
        self
    }

    /// Accumulation kernels every execution path of this engine runs
    /// ([`Session`], [`crate::pipe::AsyncSession`] workers,
    /// [`Engine::run_image_sharded`] shards). Defaults to
    /// [`Kernels::Simd`] — runtime-dispatched explicit SIMD with the
    /// verifier-licensed narrow path, bit-identical to the other
    /// variants. The `ECNN_KERNELS` environment variable
    /// (`packed|simd|reference`, case-insensitive) overrides whatever is
    /// set here, for ops debugging without a rebuild.
    pub fn kernels(mut self, kernels: Kernels) -> Self {
        self.kernels = Some(kernels);
        self
    }

    /// Deterministic fault-injection plan the supervision layer runs
    /// under (see [`crate::faults`]); default none. The `ECNN_FAULTS`
    /// environment variable overrides whatever is set here (and
    /// `ECNN_FAULTS=off` clears it), like the other `ECNN_*` knobs.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Sets every plan-time knob at once from a resolved
    /// [`EngineConfig`] — equivalent to calling [`EngineBuilder::block`],
    /// [`EngineBuilder::kernels`], [`EngineBuilder::verify`] and
    /// [`EngineBuilder::faults`] explicitly.
    pub fn engine_config(mut self, cfg: EngineConfig) -> Self {
        self.block = Some(cfg.block);
        self.kernels = Some(cfg.kernels);
        self.verify = Some(cfg.verify);
        self.faults = cfg.faults;
        self
    }

    /// Compiles the workload and returns a runnable [`Engine`].
    ///
    /// # Errors
    ///
    /// [`EngineError::Missing`] without a model or block size;
    /// [`EngineError::Config`] for an incoherent resolved
    /// [`EngineConfig`] (zero block);
    /// [`EngineError::Model`] / [`EngineError::Compile`] for invalid specs
    /// or infeasible geometry; [`EngineError::Verify`] when the static
    /// verifier rejects the compiled program under the selected
    /// [`VerifyMode`].
    ///
    /// The build runs the static verifier exactly once, under every
    /// [`VerifyMode`]. The engine keeps that report with the program
    /// ([`Proven`]), and every plan its sessions build — serial,
    /// per degradation rung, per [`crate::pipe::AsyncSession`] worker and
    /// respawn — takes its narrow and memory-plan licences from it
    /// ([`BlockPlan::proven`]) instead of proving the program again.
    pub fn build(self) -> Result<Engine, EngineError> {
        let qm = match (self.qm, self.model, self.ernet) {
            (Some(qm), _, _) => qm,
            (None, Some(model), _) => QuantizedModel::uniform(&model),
            (None, None, Some(spec)) => QuantizedModel::uniform(&spec.build()?),
            (None, None, None) => return Err(EngineError::Missing("model")),
        };
        // Resolve the canonical plan-time config: defaults ← explicit
        // setters ← ECNN_* environment overrides (the ops escape hatch, so
        // a deployed binary can be steered onto a known-good path without
        // a rebuild).
        let mut cfg = EngineConfig {
            block: self.block.ok_or(EngineError::Missing("block size"))?,
            kernels: self.kernels.unwrap_or(Kernels::Simd),
            verify: self.verify.unwrap_or_default(),
            faults: self.faults,
        };
        let env = EngineConfig::from_env_overrides();
        env.apply(&mut cfg);
        // Coherence checks: reject contradictions instead of silently
        // falling back.
        if cfg.block == 0 {
            return Err(EngineError::Config {
                param: "block",
                detail: "block size must be nonzero".into(),
            });
        }
        let mut workload = Workload::new(qm, cfg.block, self.spec.unwrap_or(RealTimeSpec::UHD30));
        if let Some(bits) = self.feature_bits {
            workload = workload.with_feature_bits(bits);
        }
        // The build's one verification: every plan of this engine's
        // sessions takes its licences from `proof`. `VerifyMode::Off`
        // skips the rejection below, not the proof.
        let proof = Proven::new(compile(&workload.qm, workload.block)?);
        let reject = |divergences: Vec<_>| {
            let mut rpt = proof.report().clone();
            rpt.diagnostics.extend(divergences);
            Err(EngineError::Verify(Box::new(rpt)))
        };
        // A program with hard errors never reaches the planner.
        if cfg.verify != VerifyMode::Off && proof.report().has_errors() {
            return reject(Vec::new());
        }
        // Walk the plan up front so structurally invalid programs surface
        // here as a structured error rather than on the first frame — and
        // cross-check its plane table against the verifier's independent
        // derivation (differential oracle). Its licences decide the plane
        // layout sessions run; each session packs its own plan's kernel
        // parameters, so the walk packs none.
        let (coalesced, divergences) = ecnn_sim::exec::crosscheck_proven(&proof)?;
        if cfg.verify != VerifyMode::Off
            && (!divergences.is_empty() || !proof.report().passes(cfg.verify))
        {
            return reject(divergences);
        }
        Ok(Engine {
            machine: self.machine.unwrap_or_else(EcnnConfig::paper),
            power: self.power.unwrap_or_else(PowerModel::paper_40nm),
            dram_power: self.dram_power.unwrap_or(DramPowerModel::DDR4_3200),
            workload,
            proof,
            resolved: cfg,
            coalesced,
            env_notes: env.notes,
        })
    }
}

/// A compiled eCNN workload bound to a machine configuration — the
/// unified entry point of the block-based pipeline.
#[derive(Clone, Debug)]
pub struct Engine {
    machine: EcnnConfig,
    power: PowerModel,
    dram_power: DramPowerModel,
    workload: Workload,
    /// The compiled program and the report of its one verification.
    proof: Proven,
    resolved: EngineConfig,
    /// Whether the program's plan proved a `MemoryPlan`, so sessions run
    /// coalesced.
    coalesced: bool,
    env_notes: Vec<String>,
}

impl Engine {
    /// Starts a fluent build.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// The resolved plan-time [`EngineConfig`] this engine runs under —
    /// every knob after defaults, explicit setters and `ECNN_*` overrides
    /// were folded together.
    pub fn config(&self) -> &EngineConfig {
        &self.resolved
    }

    /// Machine (hardware) configuration — the modelled silicon, distinct
    /// from the plan-time [`Engine::config`].
    pub fn machine(&self) -> &EcnnConfig {
        &self.machine
    }

    /// The `ECNN_*` environment overrides observed at build time (one
    /// note per variable seen, applied or ignored); empty when the
    /// environment set none. Also surfaced in the
    /// [`FrameReport`] note.
    pub fn env_overrides(&self) -> &[String] {
        &self.env_notes
    }

    /// The workload this engine was built for.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The compiled program.
    pub fn compiled(&self) -> &CompiledProgram {
        self.proof.compiled()
    }

    /// The build-time static-verification report (plane table, proven
    /// value ranges, surviving lints). `None` when the engine was built
    /// with [`VerifyMode::Off`], which proves the program all the same
    /// but does not vouch for it.
    pub fn verify_report(&self) -> Option<&VerifyReport> {
        (self.resolved.verify != VerifyMode::Off).then(|| self.proof.report())
    }

    /// The kernel selection every session/worker/shard of this engine
    /// executes with (see [`EngineBuilder::kernels`]).
    pub fn kernels(&self) -> Kernels {
        self.resolved.kernels
    }

    /// Whether sessions of this engine run the coalesced plane layout:
    /// `true` exactly when the program's plan proved a `MemoryPlan` at
    /// build (see [`crate::config`]'s plane-layout rule), else they run
    /// the keyed layout.
    pub fn coalesced(&self) -> bool {
        self.coalesced
    }

    /// The active fault-injection plan, when one is configured and
    /// non-empty (see [`crate::faults`]). `None` — the production case —
    /// means supervised dispatch skips injection entirely.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.resolved.faults.as_ref().filter(|p| !p.is_empty())
    }

    /// The static cost model of the compiled program: exact per-block
    /// MAC / traffic / instruction counts (proven equal to one block
    /// execution's observed [`ExecStats`] work counters), the keyed peak
    /// plane bytes, and — when verification licensed one — the coalesced
    /// [`ecnn_isa::verify::memplan::MemoryPlan`]. Computed on demand from
    /// the build's verification report, under every [`VerifyMode`]; no
    /// frame needs to run.
    pub fn cost_report(&self) -> CostReport {
        cost_model(&self.compiled().program, self.proof.report())
    }

    /// The source model.
    pub fn model(&self) -> &Model {
        &self.workload.qm.model
    }

    /// The quantized model this engine was built from.
    pub fn quantized_model(&self) -> &QuantizedModel {
        &self.workload.qm
    }

    /// Opens a streaming session that reuses block/stitch buffers across
    /// frames — the hot path for multi-frame traffic.
    ///
    /// The session runs on the calling thread, and each block's heavy
    /// sweeps split their output rows across the host's cores
    /// (`std::thread::available_parallelism`, at most
    /// [`MAX_WORKERS`](crate::pipe::MAX_WORKERS)) through
    /// [`BlockPlan::with_lanes`]; a sweep too small to pay for a thread
    /// runs on the calling thread alone. Pixels and
    /// [`ExecStats::work`] do not depend on the lane count.
    pub fn session(&self) -> Session<'_> {
        let lanes = std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .min(crate::pipe::MAX_WORKERS);
        Session::new_with(self, self.resolved.kernels, self.coalesced, lanes)
    }

    /// Opens a session executing on an explicit degradation rung —
    /// kernels and plane layout overridden per session, everything else
    /// (program, plan geometry, quantization) unchanged. This is how the
    /// supervisor's workers fall Simd → Packed → Reference and coalesced
    /// → keyed without rebuilding the engine; every rung is
    /// verifier-licensed and bit-identical. The session runs every sweep
    /// on one lane: a pipe worker is one of several threads that already
    /// fill the cores with bands.
    pub fn session_at(&self, rung: DegradeRung) -> Session<'_> {
        Session::new_with(self, rung.kernels, rung.coalesce, 1)
    }

    /// Opens a pipelined session on `workers` long-lived worker threads:
    /// submitted frames are quantized, executed and stitched as
    /// overlapping band stages, and results come back through poll-based
    /// tickets. Output pixels are bit-identical to [`Session::run_frames`]
    /// at any worker count, which is clamped to
    /// `1..=`[`MAX_WORKERS`](crate::pipe::MAX_WORKERS); see
    /// [`crate::pipe::AsyncSession`].
    pub fn async_session(&self, workers: usize) -> crate::pipe::AsyncSession {
        crate::pipe::AsyncSession::new(self, workers)
    }

    /// Runs a single image through the block pipeline (partition →
    /// recompute → stitch) on the bit-exact simulator.
    ///
    /// One-shot convenience over [`Engine::session`]; streaming callers
    /// should hold a session to amortize buffer allocation.
    ///
    /// # Errors
    ///
    /// [`EngineError::Image`] for geometry mismatches; propagates
    /// simulator errors.
    pub fn run_image(
        &self,
        image: &Tensor<f32>,
    ) -> Result<(Tensor<f32>, ImageRunStats), EngineError> {
        let mut session = self.session();
        session.process(image)?;
        let stats = session.last_frame_stats();
        Ok((session.into_frame().expect("frame processed above"), stats))
    }

    /// Frame-level timing / traffic / power report at the workload's
    /// real-time spec.
    pub fn system_report(&self) -> SystemReport {
        let spec = self.workload.spec;
        let frame = simulate_frame(
            self.compiled(),
            &self.workload.qm.model,
            &self.machine,
            spec.width,
            spec.height,
        );
        let power = self.power.evaluate(&frame);
        // DRAM power at the *spec* rate (the processor idles once real-time
        // is met), split read/write by DI/DO shares.
        let target_fps = spec.fps.min(frame.fps);
        let rd = frame.di_bytes_per_frame as f64 * target_fps;
        let wr = frame.do_bytes_per_frame as f64 * target_fps;
        let dram_power = self.dram_power.power(rd, wr);
        let dram_config = DramConfig::minimal_for(rd + wr, 0.55);
        SystemReport {
            spec,
            frame,
            power,
            dram_power,
            dram_config,
            meets_realtime: false, // fixed below
        }
        .finalize()
    }

    /// Output frame dimensions `(out_h, out_w)` for `image`, derived
    /// integer-exactly from the model's rational output scale. This is
    /// the single source of truth every execution path (whole-frame,
    /// band, sharded, pipelined) stitches against: truncating the float
    /// product `dim * output_scale()` can land one pixel short of the
    /// block-grid geometry for non-power-of-two scale denominators.
    ///
    /// # Errors
    ///
    /// [`EngineError::Image`] for geometry mismatches; [`EngineError::Rows`]
    /// when the output would be empty (zero output rows or columns), so
    /// every downstream grid has at least one block row.
    pub fn out_dims(&self, image: &Tensor<f32>) -> Result<(usize, usize), EngineError> {
        let p = &self.compiled().program;
        if image.channels() != p.di_channels {
            return Err(EngineError::Image(ImageMismatch {
                width: image.width(),
                height: image.height(),
                channels: image.channels(),
                expected_channels: p.di_channels,
                block: p.di_side,
            }));
        }
        let (num, den) = self.workload.qm.model.output_scale_rational();
        let out_h = image.height() * num / den;
        let out_w = image.width() * num / den;
        if out_h == 0 || out_w == 0 {
            // A frame with no output blocks: structured error at entry
            // rather than a silent empty grid downstream.
            return Err(EngineError::Rows {
                start: 0,
                end: 0,
                available: 0,
            });
        }
        Ok((out_h, out_w))
    }

    /// Block-grid shape `(rows, cols)` of the output frame for `image` —
    /// the one derivation every partitioned path (sharded, pipelined)
    /// addresses blocks by, each at least 1 whenever [`Engine::out_dims`]
    /// accepts the image.
    ///
    /// # Errors
    ///
    /// [`EngineError::Image`] for geometry mismatches; [`EngineError::Rows`]
    /// for frames whose output grid would be empty.
    pub fn grid_dims(&self, image: &Tensor<f32>) -> Result<(usize, usize), EngineError> {
        let (out_h, out_w) = self.out_dims(image)?;
        let xo = self.compiled().program.do_side;
        Ok((out_h.div_ceil(xo), out_w.div_ceil(xo)))
    }

    /// The unified cross-backend view of [`Engine::system_report`].
    pub fn frame_report(&self) -> FrameReport {
        let sr = self.system_report();
        let cost = self.cost_report();
        let (mem_bytes, mem_mode) = match (&cost.memory, self.coalesced) {
            (Some(m), true) => (m.peak_bytes, "coalesced"),
            _ => (cost.keyed_peak_bytes, "keyed"),
        };
        let env_note = if self.env_notes.is_empty() {
            String::new()
        } else {
            format!(", env [{}]", self.env_notes.join(", "))
        };
        let fault_note = match self.fault_plan() {
            Some(plan) => format!(", faults [{plan}]"),
            None => String::new(),
        };
        FrameReport {
            backend: "ecnn".into(),
            workload: self.workload.qm.model.name().to_string(),
            spec: sr.spec,
            fps: sr.frame.fps,
            meets_realtime: sr.meets_realtime,
            dram_bytes_per_frame: (sr.frame.di_bytes_per_frame + sr.frame.do_bytes_per_frame)
                as f64,
            dram_bps: sr.dram_bandwidth_bps(),
            feature_sram_bytes: self.machine.total_bb_bytes() as f64,
            power_w: Some(sr.power.total_w() + sr.dram_power.total_mw() / 1e3),
            tops: Some(sr.frame.achieved_tops),
            utilization: Some(sr.frame.lconv3_busy),
            note: format!(
                "block {}x{}, NBR {:.2}, NCR {:.2}, DRAM {}, kernels {}, planes {}KB {}{}{}",
                self.workload.block,
                self.workload.block,
                sr.frame.nbr,
                sr.frame.ncr,
                sr.dram_config.map_or("(none fits)", |c| c.name),
                self.resolved
                    .kernels
                    .variant(ecnn_sim::kernels::simd::detect())
                    .name(),
                mem_bytes.div_ceil(1024),
                mem_mode,
                fault_note,
                env_note,
            ),
        }
    }
}

/// Streaming multi-frame inference over one [`Engine`].
///
/// The session is the per-worker execution context of the plan/execute
/// split: it holds the engine's [`BlockPlan`] plus one [`PlanePool`], and
/// all working buffers — the receptive-field crop, its quantized codes,
/// the dequantized output block, the stitched frame and the pooled planes
/// — are allocated once and reused across blocks *and* frames, so
/// steady-state streaming performs zero per-block allocations (observable
/// via [`ExecStats::planes_allocated`]).
///
/// Blocks run one after another on the thread that calls
/// [`Session::process`]. Within a block, the plan's lanes
/// ([`BlockPlan::lanes`]) split each heavy sweep's rows across scoped
/// threads joined before the next instruction: the host's cores for a
/// session from [`Engine::session`], one lane for a pipe worker's
/// ([`Engine::session_at`]). [`ExecStats::lane_forks`] counts the forks.
pub struct Session<'e> {
    engine: &'e Engine,
    /// The engine program's execution plan (shape/lifetime of every plane).
    plan: BlockPlan<'e>,
    /// This worker's plane arena.
    pool: PlanePool,
    /// Clipped extents tables of the edge blocks, keyed by kept output
    /// `(rows, cols)`: at most the right edge, bottom edge and corner of
    /// one frame geometry. `None` marks a keep that runs the full table.
    edge_tables: Vec<((usize, usize), Option<Extents>)>,
    /// Receptive-field crop scratch, `di_channels × xi × xi`.
    block_f: Tensor<f32>,
    /// Quantized input codes scratch, same shape.
    codes: Tensor<i16>,
    /// Dequantized output block scratch, `do_channels × xo × xo`.
    block_out: Tensor<f32>,
    /// Stitched output frame (allocated on the first frame, resized only
    /// when the input geometry changes).
    frame: Option<Tensor<f32>>,
    frames: usize,
    frame_reallocs: usize,
    /// Row-major grid index of the most recently started block.
    last_block: Option<usize>,
    last_stats: ImageRunStats,
    totals: ImageRunStats,
    /// Kernel selection inherited from the engine at session open.
    kernels: Kernels,
}

impl<'e> Session<'e> {
    fn new_with(engine: &'e Engine, kernels: Kernels, coalesced: bool, lanes: usize) -> Self {
        let p = &engine.compiled().program;
        let mut plan = BlockPlan::proven(&engine.proof)
            .expect("engine build validated the plan")
            .with_lanes(lanes);
        if !coalesced {
            plan.force_keyed();
        }
        Self {
            engine,
            plan,
            pool: PlanePool::new(),
            edge_tables: Vec::new(),
            block_f: Tensor::zeros(p.di_channels, p.di_side, p.di_side),
            codes: Tensor::zeros(p.di_channels, p.di_side, p.di_side),
            block_out: Tensor::zeros(p.do_channels, p.do_side, p.do_side),
            frame: None,
            frames: 0,
            frame_reallocs: 0,
            last_block: None,
            last_stats: ImageRunStats::default(),
            totals: ImageRunStats::default(),
            kernels,
        }
    }

    /// The engine this session streams on.
    pub fn engine(&self) -> &Engine {
        self.engine
    }

    /// The kernel selection this session executes with (inherited from
    /// [`Engine::kernels`] at open).
    pub fn kernels(&self) -> Kernels {
        self.kernels
    }

    /// The plan this session executes: the engine's proven program with
    /// the build's licences, on this session's plane layout.
    pub fn plan(&self) -> &BlockPlan<'e> {
        &self.plan
    }

    /// Processes one frame; the returned reference points at the
    /// session-owned stitched frame, valid until the next call.
    ///
    /// # Errors
    ///
    /// [`EngineError::Image`] for geometry mismatches; propagates
    /// simulator errors.
    pub fn process(&mut self, image: &Tensor<f32>) -> Result<&Tensor<f32>, EngineError> {
        let rows = self.engine.grid_dims(image)?.0;
        self.process_rows(image, 0..rows)
    }

    /// Drains a queue of frames through the session, returning one
    /// stitched output per frame. The batched entry point for
    /// serving-style callers: every frame reuses the session's pooled
    /// buffers, only the returned copies allocate.
    ///
    /// # Errors
    ///
    /// Stops at the first failing frame (outputs of earlier frames are
    /// dropped); see [`Session::process`].
    pub fn run_frames<'a, I>(&mut self, frames: I) -> Result<Vec<Tensor<f32>>, EngineError>
    where
        I: IntoIterator<Item = &'a Tensor<f32>>,
    {
        frames
            .into_iter()
            .map(|f| self.process(f).cloned())
            .collect()
    }

    /// Processes only the block rows `rows` of `image`'s grid, stitching
    /// them into a band-sized frame — the building block every pipelined
    /// worker runs. Blocks are addressed in the *global* grid, so a
    /// band's pixels are bit-identical to the same rows of a whole-frame
    /// [`Session::process`].
    ///
    /// A block that crosses the right or bottom frame edge keeps only the
    /// top-left of its output, so it runs the plan's clipped extents
    /// table for that keep ([`BlockPlan::clipped`]): the right-edge,
    /// bottom-edge or corner table, built on first use and cached (at
    /// most three per frame geometry). Its pixels equal the full block's
    /// cropped to the frame; the work counters still charge full blocks.
    ///
    /// # Errors
    ///
    /// [`EngineError::Image`] for geometry mismatches, [`EngineError::Rows`]
    /// for an empty or out-of-grid row range; propagates simulator errors
    /// ([`Session::last_block_started`] then names the failing block).
    pub fn process_rows(
        &mut self,
        image: &Tensor<f32>,
        rows: std::ops::Range<usize>,
    ) -> Result<&Tensor<f32>, EngineError> {
        // Cleared up front so a failure before the first block does not
        // leave a previous frame's index in `last_block_started`.
        self.last_block = None;
        let (out_h, out_w) = self.engine.out_dims(image)?;
        let (total_rows, cols) = self.engine.grid_dims(image)?;
        let p = &self.engine.compiled().program;
        let (num, den) = self.engine.workload.qm.model.output_scale_rational();
        let xo = p.do_side;
        let xi = p.di_side;
        // Input-block origin of the output block at `b`: `b/scale − border`
        // with the receptive border `(xi − xo/scale)/2` in input pixels,
        // floored in exact integers. A fractional border (SR×2) then
        // shifts every block alike, so neighbouring blocks read the same
        // input grid.
        let (num, den) = (num as isize, den as isize);
        let origin = |b: usize| {
            (2 * b as isize * den + xo as isize * den - xi as isize * num).div_euclid(2 * num)
        };
        if rows.is_empty() || rows.end > total_rows {
            return Err(EngineError::Rows {
                start: rows.start,
                end: rows.end,
                available: total_rows,
            });
        }
        let band_top = rows.start * xo;
        let band_h = (rows.end * xo).min(out_h) - band_top;
        match &self.frame {
            Some(f) if f.shape() == (p.do_channels, band_h, out_w) => {}
            Some(_) => {
                self.frame_reallocs += 1;
                self.frame = Some(Tensor::zeros(p.do_channels, band_h, out_w));
            }
            None => self.frame = Some(Tensor::zeros(p.do_channels, band_h, out_w)),
        }
        let frame = self.frame.as_mut().expect("frame allocated above");
        // Snapshot the pool counters at frame start (not carried over from
        // the previous frame) so a frame aborted by an executor error
        // cannot leak its partial work into the next frame's delta.
        let mark = self.pool.stats();
        let mut blocks = 0usize;
        for row in rows {
            // rows.end <= ceil(out_h / xo), so by < out_h always holds.
            let by = row * xo;
            let mut bx = 0usize;
            while bx < out_w {
                self.last_block = Some(row * cols + bx / xo);
                image.crop_padded_into(origin(by), origin(bx), &mut self.block_f);
                self.block_f
                    .map_into(&mut self.codes, |v| p.di_q.quantize(v));
                let keep = ((out_h - by).min(xo), (out_w - bx).min(xo));
                let ext = edge_extents(&mut self.edge_tables, &self.plan, keep);
                let out_codes =
                    execute_at(&self.plan, ext, &mut self.pool, &self.codes, self.kernels)?;
                blocks += 1;
                let (c, h, w) = out_codes.shape();
                self.block_out.reset_no_fill(c, h, w);
                out_codes.map_into(&mut self.block_out, |c| {
                    p.do_q.dequantize(c).clamp(0.0, 1.0)
                });
                frame.paste(&self.block_out, by - band_top, bx);
                bx += xo;
            }
        }
        let delta = self.pool.stats().delta_since(&mark);
        self.last_stats = ImageRunStats::default();
        self.last_stats.absorb(delta, blocks);
        self.totals.absorb(delta, blocks);
        self.frames += 1;
        Ok(self.frame.as_ref().expect("frame allocated above"))
    }

    /// Frames processed so far.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Row-major grid index of the most recently started block — names
    /// the failing block when [`Session::process_rows`] errors.
    pub fn last_block_started(&self) -> Option<usize> {
        self.last_block
    }

    /// Counters of this session's plane pool (cumulative over the whole
    /// session; per-frame deltas are in [`Session::last_frame_stats`]).
    pub fn pool_stats(&self) -> ExecStats {
        self.pool.stats()
    }

    /// Statistics of the most recent frame.
    pub fn last_frame_stats(&self) -> ImageRunStats {
        self.last_stats
    }

    /// Statistics accumulated over every frame of the session.
    pub fn total_stats(&self) -> ImageRunStats {
        self.totals
    }

    /// How often the stitched-frame buffer had to be reallocated after the
    /// first frame (i.e. geometry changes mid-stream). Zero for a steady
    /// stream.
    pub fn frame_reallocs(&self) -> usize {
        self.frame_reallocs
    }

    /// The stitched output of the most recent [`Session::process`] /
    /// [`Session::process_rows`] call (`None` before the first frame) —
    /// lets long-lived workers hand the band onward without cloning it
    /// or consuming the session.
    pub fn last_frame(&self) -> Option<&Tensor<f32>> {
        self.frame.as_ref()
    }

    /// Consumes the session, returning the stitched frame buffer
    /// (`None` before the first [`Session::process`]).
    pub fn into_frame(self) -> Option<Tensor<f32>> {
        self.frame
    }

    /// Raw base addresses of the reused scratch buffers (crop, codes,
    /// output block, frame) — lets tests assert that streaming does not
    /// reallocate between frames.
    #[doc(hidden)]
    pub fn scratch_ptrs(&self) -> (*const f32, *const i16, *const f32, *const f32) {
        (
            self.block_f.as_slice().as_ptr(),
            self.codes.as_slice().as_ptr(),
            self.block_out.as_slice().as_ptr(),
            self.frame
                .as_ref()
                .map_or(std::ptr::null(), |f| f.as_slice().as_ptr()),
        )
    }
}

/// The extents table a block keeping the top-left `keep` of its output
/// runs: the plan's own for an interior block, else the clipped table
/// cached in `cache`, derived on first use. The cache holds at most the
/// three edge keeps of one frame geometry; a fourth keep (the geometry
/// changed) starts it afresh.
fn edge_extents<'t>(
    cache: &'t mut Vec<((usize, usize), Option<Extents>)>,
    plan: &'t BlockPlan<'_>,
    keep: (usize, usize),
) -> &'t Extents {
    if keep == plan.extents().out() {
        return plan.extents();
    }
    let i = match cache.iter().position(|(k, _)| *k == keep) {
        Some(i) => i,
        None => {
            if cache.len() == 3 {
                cache.clear();
            }
            cache.push((keep, plan.clipped(keep)));
            cache.len() - 1
        }
    };
    cache[i].1.as_ref().unwrap_or(plan.extents())
}

/// The eCNN simulator as a [`Backend`].
#[derive(Clone, Debug)]
pub struct EcnnBackend {
    config: EcnnConfig,
    power: PowerModel,
    dram_power: DramPowerModel,
}

impl EcnnBackend {
    /// The paper's configuration (Table 2 + Table 6 calibration).
    pub fn paper() -> Self {
        Self {
            config: EcnnConfig::paper(),
            power: PowerModel::paper_40nm(),
            dram_power: DramPowerModel::DDR4_3200,
        }
    }

    /// Builds the engine for `workload` on this machine.
    ///
    /// # Errors
    ///
    /// Propagates compilation errors.
    pub fn engine(&self, workload: &Workload) -> Result<Engine, EngineError> {
        Engine::builder()
            .quantized(workload.qm.clone())
            .block(workload.block)
            .realtime(workload.spec)
            .feature_bits(workload.feature_bits)
            .machine(self.config)
            .power(self.power)
            .dram_power(self.dram_power)
            .build()
    }
}

impl Default for EcnnBackend {
    fn default() -> Self {
        Self::paper()
    }
}

impl Backend for EcnnBackend {
    fn name(&self) -> &str {
        "ecnn"
    }

    fn frame_report(&self, workload: &Workload) -> Result<FrameReport, EngineError> {
        Ok(self.engine(workload)?.frame_report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecnn_model::ernet::ErNetTask;
    use ecnn_tensor::{ImageKind, SyntheticImage};

    fn engine(task: ErNetTask, b: usize, xi: usize) -> Engine {
        Engine::builder()
            .ernet(ErNetSpec::new(task, b, 1, 0))
            .block(xi)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_requires_model_and_block() {
        assert_eq!(
            Engine::builder().block(64).build().unwrap_err(),
            EngineError::Missing("model")
        );
        assert_eq!(
            Engine::builder()
                .ernet(ErNetSpec::new(ErNetTask::Dn, 1, 1, 0))
                .build()
                .unwrap_err(),
            EngineError::Missing("block size")
        );
    }

    #[test]
    fn error_chain_has_sources() {
        // Pyramid collapse: block smaller than the receptive field.
        let err = Engine::builder()
            .ernet(ErNetSpec::new(ErNetTask::Dn, 20, 1, 0))
            .block(8)
            .build()
            .unwrap_err();
        assert!(matches!(err, EngineError::Compile(_)));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn out_of_range_parameter_codes_fail_the_build_structurally() {
        // A code the parameter coder has no category for used to panic
        // inside the image encoder; it is a compile error naming the
        // layer and the value.
        let model = ErNetSpec::new(ErNetTask::Dn, 3, 1, 0).build().unwrap();
        let mut qm = QuantizedModel::uniform(&model);
        let layer = qm.layers.iter().position(Option::is_some).unwrap();
        qm.layers[layer].as_mut().unwrap().b3[0] = 4000;
        let err = Engine::builder()
            .quantized(qm)
            .block(128)
            .build()
            .unwrap_err();
        match err {
            EngineError::Compile(CompileError::BadParams(msg)) => {
                assert!(msg.contains(&format!("layer {layer}")), "{msg}");
                assert!(msg.contains("b3[0] = 4000"), "{msg}");
            }
            other => panic!("expected a BadParams compile error, got {other}"),
        }
    }

    #[test]
    fn session_streams_frames_without_reallocating() {
        let eng = engine(ErNetTask::Dn, 1, 40);
        let mut session = eng.session();
        let a = SyntheticImage::new(ImageKind::Mixed, 1).rgb(56, 56);
        let b = SyntheticImage::new(ImageKind::Edges, 2).rgb(56, 56);
        session.process(&a).unwrap();
        let ptrs = session.scratch_ptrs();
        for img in [&b, &a, &b] {
            session.process(img).unwrap();
            assert_eq!(session.scratch_ptrs(), ptrs, "buffers must be reused");
        }
        assert_eq!(session.frames(), 4);
        assert_eq!(session.frame_reallocs(), 0);
        assert!(session.total_stats().blocks > session.last_frame_stats().blocks);
    }

    #[test]
    fn session_matches_one_shot_run_image() {
        let eng = engine(ErNetTask::Dn, 2, 40);
        let img = SyntheticImage::new(ImageKind::Texture, 7).rgb(56, 56);
        let (one_shot, stats) = eng.run_image(&img).unwrap();
        let mut session = eng.session();
        // A different frame first, then the probe: reuse must not leak
        // state across frames.
        let other = SyntheticImage::new(ImageKind::Smooth, 3).rgb(56, 56);
        session.process(&other).unwrap();
        let streamed = session.process(&img).unwrap();
        assert_eq!(streamed, &one_shot);
        let last = session.last_frame_stats();
        assert_eq!(last.blocks, stats.blocks);
        // The work counters match; the pool counters differ by design: the
        // warm session recycles every plane where the one-shot path had to
        // populate a cold arena.
        assert_eq!(last.exec.work(), stats.exec.work());
        assert_eq!(
            last.exec.planes_allocated, 0,
            "warm frames allocate nothing"
        );
        assert!(last.exec.planes_reused > 0);
    }

    #[test]
    fn image_mismatch_is_structured() {
        let eng = engine(ErNetTask::Dn, 1, 32);
        let gray = Tensor::<f32>::zeros(1, 32, 32);
        match eng.run_image(&gray) {
            Err(EngineError::Image(m)) => {
                assert_eq!(m.channels, 1);
                assert_eq!(m.expected_channels, 3);
                assert_eq!(m.block, 32);
            }
            other => panic!("expected image mismatch, got {other:?}"),
        }
    }

    #[test]
    fn system_report_dnernet_uhd30() {
        let eng = Engine::builder()
            .ernet(ErNetSpec::new(ErNetTask::Dn, 3, 1, 0))
            .block(128)
            .realtime(RealTimeSpec::UHD30)
            .build()
            .unwrap();
        let r = eng.system_report();
        assert!(r.meets_realtime, "fps {}", r.frame.fps);
        assert_eq!(r.dram_config.unwrap().name, "DDR-400");
        assert!(r.power.total_w() > 5.0 && r.power.total_w() < 8.5);
        assert!(r.dram_power.dynamic_mw() < 150.0);
    }

    #[test]
    fn zero_padded_models_build_at_frame_size() {
        let eng = Engine::builder()
            .model(ecnn_model::zoo::recognition(10))
            .block(224)
            .build()
            .unwrap();
        let p = &eng.compiled().program;
        assert_eq!(p.inference, ecnn_model::model::InferenceKind::ZeroPadded);
        assert_eq!(p.do_side, 1);
        // Wide features exceed the strict 3x512KB buffers: recorded, not
        // fatal.
        assert!(p.bb_overflow);
    }

    #[test]
    fn ecnn_backend_reports_and_runs() {
        let w = Workload::ernet(
            ErNetSpec::new(ErNetTask::Dn, 3, 1, 0),
            128,
            RealTimeSpec::UHD30,
        )
        .unwrap();
        let be = EcnnBackend::paper();
        let r = be.frame_report(&w).unwrap();
        assert_eq!(r.backend, "ecnn");
        assert!(r.meets_realtime, "fps {}", r.fps);
        assert!(r.power_w.unwrap() > 5.0);
        // The backend's engine runs the workload's images bit-exactly.
        let img = SyntheticImage::new(ImageKind::Smooth, 5).rgb(56, 56);
        let (out, stats) = be.engine(&w).unwrap().run_image(&img).unwrap();
        assert_eq!(out.shape(), (3, 56, 56));
        assert!(stats.blocks > 0);
    }
}
