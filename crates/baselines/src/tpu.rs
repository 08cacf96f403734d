//! SCALE-Sim-style systolic-array model in the classical TPU configuration
//! (Section 7.2's comparison: 256×256 PEs, 92 TOPS @ 700 MHz, 28 MB SRAM).
//!
//! Output-stationary dataflow: a convolution of `P` output pixels, `K`
//! output channels and `R·S·C` reduction length costs
//! `ceil(P/rows) × ceil(K/cols) × R·S·C` cycles — utilization collapses for
//! narrow (32-channel) imaging layers, which is one half of the paper's
//! argument; the other half is frame-based feature traffic.
//!
//! DRAM model: each layer's output feature map is written to DRAM once, and
//! read back unless it still resides in the unified buffer (ER expanded
//! features are treated as fused/consumed in place). This reproduces the
//! magnitude and resolution scaling of the paper's SCALE-Sim numbers; the
//! residual gap is noted in the UHD30 test below.

use ecnn_core::engine::{Backend, EngineError, FrameReport, Workload};
use ecnn_model::layer::Op;
use ecnn_model::Model;
use serde::{Deserialize, Serialize};

/// Systolic-array configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TpuConfig {
    /// PE rows (output pixels fold).
    pub rows: usize,
    /// PE columns (output channels fold).
    pub cols: usize,
    /// Clock in Hz.
    pub clock_hz: f64,
    /// Unified buffer + accumulator SRAM bytes.
    pub sram_bytes: f64,
    /// Peak DRAM bandwidth, bytes/s.
    pub dram_peak_bps: f64,
}

impl TpuConfig {
    /// The classical TPU (Jouppi et al., ISCA'17): 92 TOPS @ 40 W, 28 MB.
    pub const fn classic() -> Self {
        Self {
            rows: 256,
            cols: 256,
            clock_hz: 700e6,
            sram_bytes: 28.0 * 1024.0 * 1024.0,
            dram_peak_bps: 34e9,
        }
    }

    /// Peak throughput in TOPS.
    pub fn peak_tops(&self) -> f64 {
        (self.rows * self.cols) as f64 * 2.0 * self.clock_hz / 1e12
    }
}

/// Simulation result for one model at one frame size.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TpuReport {
    /// Compute-bound frames per second.
    pub compute_fps: f64,
    /// DRAM traffic per frame in bytes.
    pub dram_bytes_per_frame: f64,
    /// Achievable fps (compute- and bandwidth-bound).
    pub fps: f64,
    /// Sustained DRAM bandwidth at the achieved rate.
    pub dram_bps: f64,
    /// Array utilization (MACs issued / peak).
    pub utilization: f64,
    /// Throughput efficiency, fps per TOPS.
    pub fps_per_tops: f64,
    /// Arithmetic intensity, TOPS per (GB/s).
    pub tops_per_gbps: f64,
}

/// Simulates frame-based inference of `model` on the systolic array.
pub fn simulate(
    model: &Model,
    cfg: &TpuConfig,
    out_width: usize,
    out_height: usize,
    feature_bits: u32,
) -> TpuReport {
    let scales = model.scale_walk();
    let channels = model.channel_walk();
    let out_scale = model.output_scale();
    let out_px = (out_width * out_height) as f64;
    let bpe = feature_bits as f64 / 8.0;

    let mut cycles = 0.0f64;
    let mut macs = 0.0f64;
    let mut dram_bytes = (out_px / (out_scale * out_scale)) * channels[0] as f64 * bpe // input
        + out_px * *channels.last().expect("nonempty") as f64 * bpe; // output
    for (i, layer) in model.layers().iter().enumerate() {
        let rel = scales[i + 1] / out_scale;
        let p = out_px * rel * rel;
        // Convolution geometry per layer kind; ER = fused 3x3 + 1x1.
        let convs: Vec<(usize, usize, usize)> = match layer.op {
            Op::Conv3x3 { in_c, out_c, .. } => vec![(in_c, out_c, 9)],
            Op::Conv1x1 { in_c, out_c, .. } => vec![(in_c, out_c, 1)],
            Op::ErModule {
                channels: c,
                expansion,
            } => {
                vec![(c, c * expansion, 9), (c * expansion, c, 1)]
            }
            _ => vec![],
        };
        for (in_c, out_c, taps) in convs {
            let fold = (p / cfg.rows as f64).ceil() * (out_c as f64 / cfg.cols as f64).ceil();
            cycles += fold * (taps * in_c) as f64;
            macs += p * (in_c * out_c * taps) as f64;
        }
        // Feature traffic: every layer output is written once; read back
        // only when it cannot stay resident until its consumer runs (a
        // ~4 MB margin of the unified buffer is reserved for streaming
        // tiles and weights).
        if layer.op.has_params() && i + 1 < model.len() {
            let bytes = p * layer.op.out_channels(channels[i]) as f64 * bpe;
            dram_bytes += bytes; // write
            if bytes > cfg.sram_bytes - 4.0 * 1024.0 * 1024.0 {
                dram_bytes += bytes; // evicted before the next layer reads it
            }
        }
    }
    let compute_fps = cfg.clock_hz / cycles;
    let bw_fps = cfg.dram_peak_bps / dram_bytes;
    let fps = compute_fps.min(bw_fps);
    let utilization = macs / (cycles * (cfg.rows * cfg.cols) as f64);
    let tops = macs * 2.0 * fps / 1e12;
    TpuReport {
        compute_fps,
        dram_bytes_per_frame: dram_bytes,
        fps,
        dram_bps: dram_bytes * fps,
        utilization,
        fps_per_tops: fps / cfg.peak_tops(),
        tops_per_gbps: tops / (dram_bytes * fps / 1e9),
    }
}

/// The systolic-array model as an engine [`Backend`].
#[derive(Clone, Debug)]
pub struct TpuBackend {
    /// Array configuration.
    pub config: TpuConfig,
    /// Feature width used on-wire (the Section 7.2 comparison runs the
    /// TPU with 8-bit features, independent of the workload's Eq.-1
    /// feature width).
    pub feature_bits: u32,
    /// Reported board power, when known.
    pub power_w: Option<f64>,
}

impl TpuBackend {
    /// The classical TPU: 92 TOPS @ 40 W, 28 MB of unified buffer.
    pub fn classic() -> Self {
        Self {
            config: TpuConfig::classic(),
            feature_bits: 8,
            power_w: Some(40.0),
        }
    }
}

impl Default for TpuBackend {
    fn default() -> Self {
        Self::classic()
    }
}

impl Backend for TpuBackend {
    fn name(&self) -> &str {
        "tpu"
    }

    fn frame_report(&self, workload: &Workload) -> Result<FrameReport, EngineError> {
        let model = workload.model();
        let spec = workload.spec;
        let r = simulate(
            model,
            &self.config,
            spec.width,
            spec.height,
            self.feature_bits,
        );
        let rate = r.fps.min(spec.fps);
        Ok(FrameReport {
            backend: self.name().into(),
            workload: model.name().to_string(),
            spec,
            fps: r.fps,
            meets_realtime: r.fps >= spec.fps,
            dram_bytes_per_frame: r.dram_bytes_per_frame,
            dram_bps: r.dram_bytes_per_frame * rate,
            feature_sram_bytes: self.config.sram_bytes,
            power_w: self.power_w,
            tops: Some(r.tops_per_gbps * r.dram_bytes_per_frame * rate / 1e9),
            utilization: Some(r.utilization),
            note: format!(
                "SCALE-Sim-style {}x{} output-stationary array ({:.0} TOPS peak)",
                self.config.rows,
                self.config.cols,
                self.config.peak_tops()
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecnn_model::ernet::{ErNetSpec, ErNetTask};

    #[test]
    fn classic_tpu_is_92_tops() {
        assert!((TpuConfig::classic().peak_tops() - 91.75).abs() < 0.1);
    }

    #[test]
    fn sr4ernet_b17_on_tpu_is_below_realtime_uhd() {
        // Paper: SCALE-Sim gives 4K UHD 21.9 fps for SR4ERNet-B17R3N1 with
        // 12.2 GB/s of DRAM bandwidth.
        let m = ErNetSpec::new(ErNetTask::Sr4, 17, 3, 1).build().unwrap();
        let r = simulate(&m, &TpuConfig::classic(), 3840, 2160, 8);
        assert!(r.fps < 30.0, "fps {}", r.fps);
        assert!(r.fps > 10.0 && r.fps < 40.0, "fps {}", r.fps);
        // Paper reports 12.2 GB/s; our model charges the x4 tail's huge
        // post-shuffle map a second touch, landing ~2x higher. Either
        // way: an order of magnitude above eCNN.
        let gbps = r.dram_bps / 1e9;
        assert!(gbps > 5.0 && gbps < 30.0, "dram {gbps} GB/s");
    }

    #[test]
    fn sr4ernet_b34_on_tpu_hd() {
        // Paper: Full HD 55.3 fps for SR4ERNet-B34R4N0 at 8.3 GB/s.
        let m = ErNetSpec::new(ErNetTask::Sr4, 34, 4, 0).build().unwrap();
        let r = simulate(&m, &TpuConfig::classic(), 1920, 1080, 8);
        assert!(r.fps > 25.0 && r.fps < 90.0, "fps {}", r.fps);
    }

    #[test]
    fn narrow_layers_waste_the_array() {
        // 32-channel layers can use at most 32/256 of the columns.
        let m = ErNetSpec::new(ErNetTask::Dn, 3, 1, 0).build().unwrap();
        let r = simulate(&m, &TpuConfig::classic(), 1920, 1080, 8);
        assert!(r.utilization < 0.30, "util {}", r.utilization);
    }

    #[test]
    fn ecnn_beats_tpu_on_arithmetic_intensity() {
        // The paper's claim: 6.4x / 14.4x TOPS per GB/s advantage. Block-based
        // eCNN traffic for SR4 models is ~0.2-0.9 GB/s at these rates while
        // the TPU moves whole feature maps.
        let m = ErNetSpec::new(ErNetTask::Sr4, 17, 3, 1).build().unwrap();
        let r = simulate(&m, &TpuConfig::classic(), 3840, 2160, 8);
        // eCNN: ~41 TOPS at ~1 GB/s => ~40 TOPS/GBps; TPU here should be
        // well below 10.
        assert!(r.tops_per_gbps < 10.0, "tpu intensity {}", r.tops_per_gbps);
    }
}
