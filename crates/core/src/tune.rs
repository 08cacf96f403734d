//! Plan-time autotuner: search the [`EngineConfig`] space statically,
//! micro-bench only a shortlist, pin the winner as a replayable record.
//!
//! The paper hand-picks its deployment knobs (block size, worker count,
//! kernel family) per model and resolution.
//! [`EngineBuilder::autotune`] automates that choice in three stages:
//!
//! 1. **Admit** — every enumerated candidate builds a real engine under
//!    [`VerifyMode::Strict`]. A configuration the static verifier
//!    rejects is *never timed*: no proof, no measurement.
//! 2. **Cull** — admitted candidates are ranked by the static cost
//!    model ([`Engine::cost_report`] →
//!    [`CostReport::rank_score`](ecnn_isa::verify::memplan::CostReport::rank_score)),
//!    which is free (no frame runs). Only the best
//!    [`TuneOptions::shortlist`] candidates — plus the default
//!    configuration, always — graduate to timing; the rest are culled.
//! 3. **Time** — the shortlist runs warm-up and timed frames of a
//!    deterministic synthetic image at the actual model and resolution
//!    (serial [`crate::engine::Session`] at one worker, a pipelined
//!    [`crate::pipe::AsyncSession`] above). The median frame time picks
//!    the winner.
//!
//! Because the default configuration is always in the timed shortlist,
//! the pinned winner's measured frame time is ≤ the default's by
//! construction.
//!
//! The winner is pinned as a [`TuningRecord`]: the resolved
//! [`EngineConfig`] verbatim, a [`Fingerprint`] of the model, quantized
//! parameters and resolution it was tuned for, and the static
//! [`CostDigest`] at pin time. [`EngineBuilder::tuned`] replays the
//! record — and rejects it with a structured error when the fingerprint
//! no longer matches, so a record tuned for one deployment cannot
//! silently misconfigure another. `ecnn-lint --tune-check` re-validates
//! a checked-in record (strict verification + cost digest) without
//! timing anything, cheap enough for CI.

use crate::config::EngineConfig;
use crate::engine::{Engine, EngineBuilder, EngineError};
use crate::json::{escape, Json};
use ecnn_isa::params::QuantizedModel;
use ecnn_isa::verify::memplan::CostReport;
use ecnn_isa::verify::VerifyMode;
use ecnn_model::RealTimeSpec;
use ecnn_sim::Kernels;
use ecnn_tensor::{ImageKind, SyntheticImage, Tensor};
use std::fmt;
use std::time::Instant;

/// Identity of the workload a [`TuningRecord`] was measured on: model
/// architecture, quantized parameters and target resolution. A record
/// replays only onto a build whose fingerprint matches exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Model name (e.g. `SR4ERNet-B17R3N1`).
    pub model: String,
    /// FNV-1a hash over the quantized parameter codes and formats.
    pub param_hash: u64,
    /// Output-scale numerator ([`ecnn_model::model::Model::output_scale_rational`]).
    pub scale_num: usize,
    /// Output-scale denominator.
    pub scale_den: usize,
    /// Target output width in pixels.
    pub width: usize,
    /// Target output height in pixels.
    pub height: usize,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

impl Fingerprint {
    /// Fingerprints a quantized model at a target resolution.
    pub fn of(qm: &QuantizedModel, spec: RealTimeSpec) -> Self {
        let mut hash = FNV_OFFSET;
        fnv1a(&mut hash, qm.model.name().as_bytes());
        fnv1a(&mut hash, &(qm.model.in_channels() as u64).to_le_bytes());
        fnv1a(&mut hash, &(qm.model.out_channels() as u64).to_le_bytes());
        fnv1a(&mut hash, format!("{:?}", qm.input_q).as_bytes());
        for params in qm.layers.iter() {
            match params {
                None => fnv1a(&mut hash, b"-"),
                Some(p) => {
                    for codes in [&p.w3, &p.b3, &p.w1, &p.b1] {
                        fnv1a(&mut hash, &(codes.len() as u64).to_le_bytes());
                        for &c in codes.iter() {
                            fnv1a(&mut hash, &c.to_le_bytes());
                        }
                    }
                    fnv1a(
                        &mut hash,
                        format!(
                            "{:?}{:?}{:?}{:?}{:?}{:?}",
                            p.w3_q, p.b3_q, p.w1_q, p.b1_q, p.out_q, p.mid_q
                        )
                        .as_bytes(),
                    );
                }
            }
        }
        let (scale_num, scale_den) = qm.model.output_scale_rational();
        Self {
            model: qm.model.name().to_string(),
            param_hash: hash,
            scale_num,
            scale_den,
            width: spec.width,
            height: spec.height,
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"model\": {}, \"param_hash\": {}, \"scale_num\": {}, \"scale_den\": {}, \
             \"width\": {}, \"height\": {}}}",
            escape(&self.model),
            self.param_hash,
            self.scale_num,
            self.scale_den,
            self.width,
            self.height,
        )
    }

    fn from_json_value(v: &Json) -> Result<Self, String> {
        Ok(Self {
            model: v.require("model")?.as_str()?.to_string(),
            param_hash: v.require("param_hash")?.as_u64()?,
            scale_num: v.require("scale_num")?.as_usize()?,
            scale_den: v.require("scale_den")?.as_usize()?,
            width: v.require("width")?.as_usize()?,
            height: v.require("height")?.as_usize()?,
        })
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}x{}, scale {}/{}, params {:016x})",
            self.model, self.width, self.height, self.scale_num, self.scale_den, self.param_hash
        )
    }
}

/// The static cost-model facts a [`TuningRecord`] pins alongside its
/// configuration, so `ecnn-lint --tune-check` can detect a stale record
/// (compiler or cost-model drift) without timing anything.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostDigest {
    /// Total MACs per block ([`CostReport::block_macs`]).
    pub macs: u64,
    /// Total BB + DRAM bytes per block ([`CostReport::block_traffic`]).
    pub traffic: u64,
    /// Peak plane-pool bytes of the layout the program runs
    /// ([`CostReport::planned_peak_bytes`]).
    pub peak_bytes: u64,
}

impl CostDigest {
    /// Digest of `cost`.
    pub fn of(cost: &CostReport) -> Self {
        Self {
            macs: cost.block_macs(),
            traffic: cost.block_traffic(),
            peak_bytes: cost.planned_peak_bytes() as u64,
        }
    }

    fn to_json(self) -> String {
        format!(
            "{{\"macs\": {}, \"traffic\": {}, \"peak_bytes\": {}}}",
            self.macs, self.traffic, self.peak_bytes,
        )
    }

    fn from_json_value(v: &Json) -> Result<Self, String> {
        Ok(Self {
            macs: v.require("macs")?.as_u64()?,
            traffic: v.require("traffic")?.as_u64()?,
            peak_bytes: v.require("peak_bytes")?.as_u64()?,
        })
    }
}

/// A pinned autotuning result: the winning [`EngineConfig`] verbatim,
/// the [`Fingerprint`] it is licensed for, the static [`CostDigest`] at
/// pin time and the measured median frame time. Serializable
/// ([`TuningRecord::to_json`] / [`TuningRecord::from_json`]) so a tuned
/// deployment can check the record in and replay it via
/// [`EngineBuilder::tuned`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TuningRecord {
    /// Workload identity the record was tuned on.
    pub fingerprint: Fingerprint,
    /// The winning configuration, embedded verbatim.
    pub config: EngineConfig,
    /// Static cost facts at pin time.
    pub cost: CostDigest,
    /// Median measured frame time of [`TuningRecord::config`], in
    /// nanoseconds, on the tuning host.
    pub measured_ns_per_frame: u64,
}

impl TuningRecord {
    /// Deterministic JSON encoding (single object, stable key order).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"fingerprint\": {}, \"config\": {}, \"cost\": {}, \"measured_ns_per_frame\": {}}}\n",
            self.fingerprint.to_json(),
            self.config.to_json(),
            self.cost.to_json(),
            self.measured_ns_per_frame,
        )
    }

    /// Parses the [`TuningRecord::to_json`] encoding.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = Json::parse(text.trim_end())?;
        Ok(Self {
            fingerprint: Fingerprint::from_json_value(v.require("fingerprint")?)?,
            config: EngineConfig::from_json_value(v.require("config")?)?,
            cost: CostDigest::from_json_value(v.require("cost")?)?,
            measured_ns_per_frame: v.require("measured_ns_per_frame")?.as_u64()?,
        })
    }
}

/// The candidate axes [`EngineBuilder::autotune`] enumerates the cross
/// product of. Every candidate is admitted under [`VerifyMode::Strict`]
/// regardless of the builder's verify setting.
#[derive(Clone, Debug)]
pub struct TuneSpace {
    /// Input block sides to try.
    pub blocks: Vec<usize>,
    /// Worker counts to try (serial and pipelined).
    pub workers: Vec<usize>,
    /// Kernel families to try.
    pub kernels: Vec<Kernels>,
}

impl Default for TuneSpace {
    fn default() -> Self {
        Self {
            blocks: vec![64, 128, 256],
            workers: vec![1, 2, 4],
            // `Packed` is over 20× slower per block than `Simd` and cannot
            // win; it stays a degradation rung, not a tuning candidate.
            kernels: vec![Kernels::Simd],
        }
    }
}

impl TuneSpace {
    /// The cross product of every axis, as Strict-verify configs.
    pub fn enumerate(&self) -> Vec<EngineConfig> {
        let mut out = Vec::new();
        for &block in &self.blocks {
            for &workers in &self.workers {
                for &kernels in &self.kernels {
                    out.push(EngineConfig {
                        block,
                        workers,
                        kernels,
                        verify: VerifyMode::Strict,
                        // Tuning never embeds a fault plan: records
                        // describe production configs.
                        faults: None,
                    });
                }
            }
        }
        out
    }
}

/// Knobs of one [`EngineBuilder::autotune`] run.
#[derive(Clone, Debug)]
pub struct TuneOptions {
    /// Candidate axes to enumerate.
    pub space: TuneSpace,
    /// Warm-up frames per shortlisted candidate (not timed).
    pub warmup_frames: usize,
    /// Timed frames per shortlisted candidate (median wins).
    pub timed_frames: usize,
    /// How many statically best candidates graduate to timing (the
    /// default configuration is always timed in addition).
    pub shortlist: usize,
    /// Resolution to tune at; defaults to the builder's real-time spec
    /// (or [`RealTimeSpec::UHD30`]).
    pub spec: Option<RealTimeSpec>,
    /// Seed of the deterministic synthetic timing frame.
    pub seed: u64,
}

impl Default for TuneOptions {
    fn default() -> Self {
        Self {
            space: TuneSpace::default(),
            warmup_frames: 1,
            timed_frames: 2,
            shortlist: 4,
            spec: None,
            seed: 7,
        }
    }
}

/// What happened to one enumerated candidate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CandidateStatus {
    /// Failed admission: strict verification, compilation or a coherence
    /// check rejected it. Never timed.
    Rejected(String),
    /// Admitted, but the static cost ranking kept it off the shortlist.
    /// Never timed.
    Culled,
    /// Timed; median frame nanoseconds.
    Timed(u64),
}

/// One enumerated candidate with its static rank and outcome.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The candidate configuration (always `verify: Strict`).
    pub config: EngineConfig,
    /// Static rank score, lower = better
    /// ([`CostReport::rank_score`](ecnn_isa::verify::memplan::CostReport::rank_score));
    /// `u128::MAX` for rejected candidates.
    pub score: u128,
    /// Admission / culling / timing outcome.
    pub status: CandidateStatus,
}

/// Everything a tuning run did: per-candidate outcomes, stage counters
/// and the pinned [`TuningRecord`].
#[derive(Clone, Debug)]
pub struct TuneReport {
    /// Candidates enumerated (cross product plus the default config).
    pub enumerated: usize,
    /// Candidates rejected at admission (never timed).
    pub rejected: usize,
    /// Admitted candidates culled statically (never timed).
    pub culled: usize,
    /// Candidates actually timed (shortlist + default).
    pub timed: usize,
    /// Every candidate, in enumeration order.
    pub candidates: Vec<Candidate>,
    /// Median frame time of the default configuration, when it was
    /// admitted (it always is for a buildable workload).
    pub default_ns_per_frame: Option<u64>,
    /// The pinned winner.
    pub record: TuningRecord,
}

impl TuneReport {
    /// Permille of the enumerated space eliminated *before* timing
    /// (rejected + culled). The acceptance gate: at least half the
    /// space must be statically eliminated — `>= 500`.
    pub fn static_cull_permille(&self) -> usize {
        (self.rejected + self.culled)
            .saturating_mul(1000)
            .checked_div(self.enumerated)
            .unwrap_or(0)
    }
}

impl fmt::Display for TuneReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "autotune: {} enumerated, {} rejected, {} culled, {} timed ({}.{}% static cull)",
            self.enumerated,
            self.rejected,
            self.culled,
            self.timed,
            self.static_cull_permille() / 10,
            self.static_cull_permille() % 10,
        )?;
        for c in &self.candidates {
            match &c.status {
                CandidateStatus::Rejected(why) => writeln!(f, "  reject {} -- {why}", c.config)?,
                CandidateStatus::Culled => {
                    writeln!(f, "  cull   {} (score {})", c.config, c.score)?
                }
                CandidateStatus::Timed(ns) => {
                    writeln!(f, "  timed  {} -> {:.3} ms", c.config, *ns as f64 / 1e6)?
                }
            }
        }
        write!(
            f,
            "  winner {} ({:.3} ms)",
            self.record.config,
            self.record.measured_ns_per_frame as f64 / 1e6
        )
    }
}

/// Deterministic synthetic timing frame at the model's input geometry.
fn synth_frame(channels: usize, height: usize, width: usize, seed: u64) -> Tensor<f32> {
    if channels == 3 {
        return SyntheticImage::new(ImageKind::Mixed, seed).rgb(height, width);
    }
    let mut t = Tensor::zeros(channels, height, width);
    for c in 0..channels {
        for y in 0..height {
            for x in 0..width {
                let v = (c.wrapping_mul(31) ^ y.wrapping_mul(7) ^ x.wrapping_mul(13)) as u64 + seed;
                *t.at_mut(c, y, x) = ((v % 255) as f32) / 255.0;
            }
        }
    }
    t
}

/// Times one admitted candidate on warm state: a warm [`crate::engine::Session`]
/// at one worker, a warm pipelined [`crate::pipe::AsyncSession`] above.
/// Returns the median frame time in nanoseconds.
fn time_candidate(
    engine: &Engine,
    frame: &Tensor<f32>,
    opts: &TuneOptions,
) -> Result<u64, EngineError> {
    let timed = opts.timed_frames.max(1);
    let mut samples = Vec::with_capacity(timed);
    if engine.workers() <= 1 {
        let mut session = engine.session();
        for _ in 0..opts.warmup_frames {
            session.process(frame)?;
        }
        for _ in 0..timed {
            let start = Instant::now();
            session.process(frame)?;
            samples.push(start.elapsed());
        }
    } else {
        let mut session = engine.async_session_auto();
        for _ in 0..opts.warmup_frames {
            let ticket = session.submit(frame.clone())?;
            session.wait(ticket)?;
        }
        for _ in 0..timed {
            let input = frame.clone();
            let start = Instant::now();
            let ticket = session.submit(input)?;
            session.wait(ticket)?;
            samples.push(start.elapsed());
        }
    }
    samples.sort();
    let median = samples[samples.len() / 2];
    Ok(u64::try_from(median.as_nanos()).unwrap_or(u64::MAX))
}

fn tune_error(detail: String) -> EngineError {
    EngineError::Config {
        param: "autotune",
        detail,
    }
}

impl EngineBuilder {
    /// Searches the [`TuneOptions::space`] for the fastest configuration
    /// of this builder's workload and returns the winning [`Engine`]
    /// (built, strict-verified, ready to run) together with the
    /// [`TuneReport`] carrying the pinned [`TuningRecord`].
    ///
    /// Candidates bypass the `ECNN_*` environment overrides (a tuning
    /// run must measure what it says it measures) and are always
    /// admitted under [`VerifyMode::Strict`]; the builder's own
    /// `verify`, `kernels` and `workers` settings are
    /// superseded by each candidate. The default configuration
    /// ([`EngineConfig::new`] at the builder's block size, strict) is
    /// always timed, so the winner is measured no slower than the
    /// default by construction.
    ///
    /// # Errors
    ///
    /// [`EngineError::Missing`] without a model;
    /// [`EngineError::Config`] when the space is empty, the tuning
    /// resolution is smaller than one output pixel, or *no* candidate
    /// survives strict admission; propagates execution errors from the
    /// timed frames.
    pub fn autotune(self, opts: &TuneOptions) -> Result<(Engine, TuneReport), EngineError> {
        let spec = opts.spec.or(self.spec).unwrap_or(RealTimeSpec::UHD30);
        let base_block = self
            .block
            .or_else(|| opts.space.blocks.first().copied())
            .ok_or_else(|| tune_error("empty block axis and no builder block size".into()))?;
        let mut configs = opts.space.enumerate();
        let default_cfg = EngineConfig {
            verify: VerifyMode::Strict,
            ..EngineConfig::new(base_block)
        };
        if !configs.contains(&default_cfg) {
            configs.push(default_cfg.clone());
        }
        if configs.is_empty() {
            return Err(tune_error("empty tuning space".into()));
        }
        let enumerated = configs.len();

        // Stage 1: admission. Every candidate builds a real engine under
        // Strict — a config the verifier rejects is never timed.
        let mut candidates = Vec::with_capacity(enumerated);
        let mut engines: Vec<Option<Engine>> = Vec::with_capacity(enumerated);
        let mut rejected = 0usize;
        for cfg in configs {
            let mut b = self.clone().engine_config(cfg.clone()).realtime(spec);
            b.skip_env = true;
            match b.build() {
                Ok(engine) => {
                    let xo = engine.compiled().program.do_side;
                    let blocks_per_frame =
                        (spec.height.div_ceil(xo) * spec.width.div_ceil(xo)) as u64;
                    let score = engine
                        .cost_report()
                        .rank_score(blocks_per_frame, cfg.workers as u64);
                    candidates.push(Candidate {
                        config: cfg,
                        score,
                        status: CandidateStatus::Culled, // provisional; timing updates it
                    });
                    engines.push(Some(engine));
                }
                Err(EngineError::Missing(what)) => return Err(EngineError::Missing(what)),
                Err(e) => {
                    rejected += 1;
                    candidates.push(Candidate {
                        config: cfg,
                        score: u128::MAX,
                        status: CandidateStatus::Rejected(e.to_string()),
                    });
                    engines.push(None);
                }
            }
        }
        let mut admitted: Vec<usize> = (0..candidates.len())
            .filter(|&i| engines[i].is_some())
            .collect();
        if admitted.is_empty() {
            return Err(tune_error(
                "no candidate admitted: every configuration failed strict \
                 verification or compilation"
                    .into(),
            ));
        }

        // Stage 2: static cull. Rank by the cost model; only the
        // shortlist (plus the default config, always) is ever timed.
        admitted.sort_by_key(|&i| candidates[i].score);
        let mut shortlist: Vec<usize> = admitted
            .iter()
            .copied()
            .take(opts.shortlist.max(1))
            .collect();
        if let Some(&d) = admitted
            .iter()
            .find(|&&i| candidates[i].config == default_cfg)
        {
            if !shortlist.contains(&d) {
                shortlist.push(d);
            }
        }

        // Stage 3: timing, on the actual model at the actual resolution.
        let first = engines[shortlist[0]]
            .as_ref()
            .expect("shortlist is admitted");
        let (num, den) = first.model().output_scale_rational();
        let in_h = spec.height * den / num;
        let in_w = spec.width * den / num;
        if in_h == 0 || in_w == 0 {
            return Err(tune_error(format!(
                "tuning spec {}x{} is smaller than one input pixel at scale {num}/{den}",
                spec.width, spec.height
            )));
        }
        let channels = first.compiled().program.di_channels;
        let frame = synth_frame(channels, in_h, in_w, opts.seed);
        let mut default_ns = None;
        let mut best: Option<(usize, u64)> = None;
        for &i in &shortlist {
            let engine = engines[i].as_ref().expect("shortlist is admitted");
            let ns = time_candidate(engine, &frame, opts)?;
            candidates[i].status = CandidateStatus::Timed(ns);
            if candidates[i].config == default_cfg {
                default_ns = Some(ns);
            }
            if best.is_none_or(|(_, b)| ns < b) {
                best = Some((i, ns));
            }
        }
        let (win, win_ns) = best.expect("shortlist is nonempty");
        let engine = engines[win].take().expect("winner is admitted");
        let record = TuningRecord {
            fingerprint: Fingerprint::of(engine.quantized_model(), spec),
            config: candidates[win].config.clone(),
            cost: CostDigest::of(&engine.cost_report()),
            measured_ns_per_frame: win_ns,
        };
        let timed = shortlist.len();
        let report = TuneReport {
            enumerated,
            rejected,
            culled: admitted.len() - timed,
            timed,
            candidates,
            default_ns_per_frame: default_ns,
            record,
        };
        Ok((engine, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_json_round_trips() {
        let record = TuningRecord {
            fingerprint: Fingerprint {
                model: "SR4ERNet-B17R3N1".into(),
                param_hash: u64::MAX - 1,
                scale_num: 4,
                scale_den: 1,
                width: 3840,
                height: 2160,
            },
            config: EngineConfig {
                block: 128,
                workers: 4,
                kernels: Kernels::Packed,
                verify: VerifyMode::Strict,
                faults: None,
            },
            cost: CostDigest {
                macs: 123_456_789,
                traffic: 987_654_321,
                peak_bytes: 1 << 20,
            },
            measured_ns_per_frame: 42_000_000,
        };
        let json = record.to_json();
        assert_eq!(TuningRecord::from_json(&json).unwrap(), record);
        // u64 hashes survive exactly (no float precision cliff).
        assert_eq!(
            TuningRecord::from_json(&json)
                .unwrap()
                .fingerprint
                .param_hash,
            u64::MAX - 1
        );
    }

    #[test]
    fn space_enumerates_cross_product_strict() {
        let space = TuneSpace::default();
        let configs = space.enumerate();
        // 3 blocks × 3 worker counts × 1 kernel family.
        assert_eq!(space.kernels, [Kernels::Simd]);
        assert_eq!(configs.len(), 9);
        assert!(configs.iter().all(|c| c.verify == VerifyMode::Strict));
    }

    #[test]
    fn fingerprint_separates_workloads() {
        let model = ecnn_model::ernet::ErNetSpec::new(ecnn_model::ernet::ErNetTask::Dn, 3, 1, 0)
            .build()
            .unwrap();
        let qm = QuantizedModel::uniform(&model);
        let a = Fingerprint::of(&qm, RealTimeSpec::UHD30);
        assert_eq!(a, Fingerprint::of(&qm, RealTimeSpec::UHD30));
        assert_ne!(a, Fingerprint::of(&qm, RealTimeSpec::HD30));
        let mut qm2 = qm.clone();
        if let Some(p) = qm2.layers.iter_mut().flatten().next() {
            if let Some(w) = p.w3.first_mut() {
                *w = w.wrapping_add(1);
            }
        }
        assert_ne!(
            a.param_hash,
            Fingerprint::of(&qm2, RealTimeSpec::UHD30).param_hash
        );
    }
}
