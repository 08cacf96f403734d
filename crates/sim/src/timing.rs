//! Cycle-accurate frame timing (Section 6.1.1's instruction pipelining).
//!
//! Per block, the IDU decodes instruction *i+1*'s parameters while the CIU
//! computes instruction *i*; the per-instruction latency is therefore
//! `max(CIU(i), IDU(i+1))`. Blocks repeat the same program, so the pipeline
//! wraps around block boundaries (parameters are re-decoded per block via
//! the restart mechanism). DI/DO transfers ride the FIFO interfaces
//! concurrently with compute and are assumed DMA-overlapped — the paper's
//! "highly regular ... optimized in a deterministic way" DRAM access.

use crate::config::EcnnConfig;
use ecnn_isa::compile::CompiledProgram;
use ecnn_isa::instr::Opcode;
use ecnn_isa::program::Program;
use ecnn_model::{ChannelMode, Complexity, Model};
use serde::{Deserialize, Serialize};

/// Timing/traffic report for running one model over full frames.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FrameReport {
    /// Model name.
    pub model: String,
    /// Output frame width in pixels.
    pub width: usize,
    /// Output frame height in pixels.
    pub height: usize,
    /// Blocks per frame.
    pub blocks: usize,
    /// Pipelined cycles per block (steady state).
    pub cycles_per_block: u64,
    /// Cycles per frame.
    pub cycles_per_frame: u64,
    /// Seconds per frame at the configured clock.
    pub seconds_per_frame: f64,
    /// Achievable frames per second.
    pub fps: f64,
    /// Fraction of frame cycles with the LCONV3×3 engine busy.
    pub lconv3_busy: f64,
    /// Fraction of frame cycles with the LCONV1×1 engine busy.
    pub lconv1_busy: f64,
    /// Effective compute throughput in TOPS (hardware ops actually issued).
    pub achieved_tops: f64,
    /// DI bytes per frame (input blocks, including recomputed overlaps).
    pub di_bytes_per_frame: u64,
    /// DO bytes per frame.
    pub do_bytes_per_frame: u64,
    /// Sustained DRAM read bandwidth at the achieved frame rate, bytes/s.
    pub dram_read_bps: f64,
    /// Sustained DRAM write bandwidth at the achieved frame rate, bytes/s.
    pub dram_write_bps: f64,
    /// Measured NBR: (DI+DO traffic) / (output image bytes).
    pub nbr: f64,
    /// Measured NCR: hardware MACs per frame / intrinsic hardware MACs.
    pub ncr: f64,
    /// Parameter-memory bytes used by the packed streams.
    pub param_bytes: usize,
    /// Whether the packed parameters fit the configuration's memory.
    pub param_fits: bool,
}

impl FrameReport {
    /// Total DRAM bandwidth (read + write) at the achieved rate.
    pub fn dram_total_bps(&self) -> f64 {
        self.dram_read_bps + self.dram_write_bps
    }

    /// DRAM bandwidth if the processor is throttled to `fps` (e.g. a
    /// real-time target instead of the max achievable rate).
    pub fn dram_total_bps_at(&self, fps: f64) -> f64 {
        (self.di_bytes_per_frame + self.do_bytes_per_frame) as f64 * fps
    }

    /// Energy per frame in joules given an average power in watts.
    pub fn energy_per_frame_j(&self, avg_power_w: f64) -> f64 {
        avg_power_w * self.seconds_per_frame
    }
}

/// Per-block pipelined cycle count plus engine busy cycles.
fn block_schedule(program: &Program) -> (u64, u64, u64) {
    let n = program.instructions.len();
    let mut total = 0u64;
    let mut busy3 = 0u64;
    let mut busy1 = 0u64;
    for i in 0..n {
        let ciu = program.instructions[i].ciu_cycles();
        let idu_next = program.instructions[(i + 1) % n].idu_cycles();
        total += ciu.max(idu_next);
        match program.instructions[i].opcode {
            Opcode::Conv1 => busy1 += ciu,
            Opcode::Er => {
                busy3 += ciu;
                busy1 += ciu;
            }
            _ => busy3 += ciu,
        }
    }
    (total, busy3, busy1)
}

/// Simulates a full frame of `width × height` *output* pixels for the model
/// `compiled` was built from (needed for intrinsic-complexity accounting).
pub fn simulate_frame(
    compiled: &CompiledProgram,
    model: &Model,
    config: &EcnnConfig,
    width: usize,
    height: usize,
) -> FrameReport {
    let program = &compiled.program;
    let blocks = program.blocks_for_output(width, height);
    // Border blocks are narrower: FBISA's per-instruction block-size
    // attribute lets the host shorten the tile sweep at frame edges, so the
    // effective block count is fractional. This charges an edge block in
    // proportion to its kept output. The host executor clips edge blocks
    // too (`BlockPlan::clipped`), but each clipped instruction keeps its
    // full overlap margin, so it runs more than that share: 0.7675 of a
    // block for `esr4k_edge`'s 248×344 keep, where this charges 0.713.
    let eff_blocks =
        (width as f64 / program.do_side as f64) * (height as f64 / program.do_side as f64);
    let (cycles_per_block, busy3, busy1) = block_schedule(program);
    let cycles_per_frame = (cycles_per_block as f64 * eff_blocks).round() as u64;
    let seconds = cycles_per_frame as f64 / config.clock_hz;
    let fps = 1.0 / seconds;

    // Hardware MACs issued per frame: every busy cycle engages the full
    // engine (the datapath has no partial-lane mode).
    let mac3 = (busy3 as f64 * config.lconv3_multipliers as f64 * eff_blocks) as u64;
    let mac1 = (busy1 as f64 * config.lconv1_multipliers as f64 * eff_blocks) as u64;
    let achieved_tops = (mac3 + mac1) as f64 * 2.0 / seconds / 1e12;

    let di = (program.di_bytes_per_block() as f64 * eff_blocks) as u64;
    let dout = (program.do_bytes_per_block() as f64 * eff_blocks) as u64;
    let out_image_bytes = (width * height * program.do_channels) as f64;
    let nbr = (di + dout) as f64 / out_image_bytes;

    let intrinsic =
        Complexity::of(model, ChannelMode::Hardware).macs_per_pixel * (width * height) as f64;
    let ncr = (mac3 + mac1) as f64 / intrinsic;

    let param_bytes = compiled.packed.total_bytes();
    FrameReport {
        model: program.name.clone(),
        width,
        height,
        blocks,
        cycles_per_block,
        cycles_per_frame,
        seconds_per_frame: seconds,
        fps,
        lconv3_busy: busy3 as f64 / cycles_per_block as f64,
        lconv1_busy: busy1 as f64 / cycles_per_block as f64,
        achieved_tops,
        di_bytes_per_frame: di,
        do_bytes_per_frame: dout,
        dram_read_bps: di as f64 * fps,
        dram_write_bps: dout as f64 * fps,
        nbr,
        ncr,
        param_bytes,
        param_fits: param_bytes <= config.param_memory_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecnn_isa::compile::compile;
    use ecnn_isa::params::QuantizedModel;
    use ecnn_model::ernet::{ErNetSpec, ErNetTask};

    fn build(task: ErNetTask, b: usize, r: usize, n: usize, xi: usize) -> (Model, CompiledProgram) {
        let m = ErNetSpec::new(task, b, r, n).build().unwrap();
        let qm = QuantizedModel::uniform(&m);
        let c = compile(&qm, xi).unwrap();
        (m, c)
    }

    #[test]
    fn dnernet_uhd30_is_realtime() {
        // Paper Fig. 19: DnERNet-B3R1N0 sustains UHD30 (33.3 ms/frame).
        let (m, c) = build(ErNetTask::Dn, 3, 1, 0, 128);
        let r = simulate_frame(&c, &m, &EcnnConfig::paper(), 3840, 2160);
        assert!(r.fps >= 30.0, "fps {}", r.fps);
        assert!(r.fps < 70.0, "fps {} suspiciously high", r.fps);
    }

    #[test]
    fn dnernet_uhd30_bandwidth_matches_fig21() {
        // Paper Fig. 21: 1.66 GB/s at UHD30 (NBR 2.2).
        let (m, c) = build(ErNetTask::Dn, 3, 1, 0, 128);
        let r = simulate_frame(&c, &m, &EcnnConfig::paper(), 3840, 2160);
        let bw = r.dram_total_bps_at(30.0);
        assert!((bw / 1e9 - 1.66).abs() < 0.15, "bw {} GB/s", bw / 1e9);
        assert!((r.nbr - 2.22).abs() < 0.2, "nbr {}", r.nbr);
    }

    #[test]
    fn sr4_uhd30_pick_is_realtime() {
        // SR4ERNet-B17R3N1 is the paper's UHD30 model.
        let (m, c) = build(ErNetTask::Sr4, 17, 3, 1, 128);
        let r = simulate_frame(&c, &m, &EcnnConfig::paper(), 3840, 2160);
        assert!(r.fps >= 30.0, "fps {}", r.fps);
    }

    #[test]
    fn sr4_hd30_pick_is_realtime_but_not_uhd() {
        let (m, c) = build(ErNetTask::Sr4, 34, 4, 0, 128);
        let cfg = EcnnConfig::paper();
        let hd = simulate_frame(&c, &m, &cfg, 1920, 1080);
        assert!(hd.fps >= 30.0, "HD fps {}", hd.fps);
        let uhd = simulate_frame(&c, &m, &cfg, 3840, 2160);
        assert!(uhd.fps < 30.0, "UHD fps {}", uhd.fps);
    }

    #[test]
    fn utilization_is_high_for_imaging_models() {
        let (m, c) = build(ErNetTask::Dn, 3, 1, 0, 128);
        let r = simulate_frame(&c, &m, &EcnnConfig::paper(), 3840, 2160);
        // CIU-bound: the 3x3 engine is busy nearly every cycle.
        assert!(r.lconv3_busy > 0.9, "busy3 {}", r.lconv3_busy);
        // ER cycles engage the 1x1 engine too (3 of 6 instructions).
        assert!(
            r.lconv1_busy > 0.2 && r.lconv1_busy < 0.9,
            "busy1 {}",
            r.lconv1_busy
        );
        assert!(r.achieved_tops > 30.0, "tops {}", r.achieved_tops);
    }

    #[test]
    fn er_heavy_models_use_lconv1_more() {
        let cfg = EcnnConfig::paper();
        let (ml, cl) = build(ErNetTask::Dn, 3, 1, 0, 128);
        let light = simulate_frame(&cl, &ml, &cfg, 1920, 1080);
        let (mh, ch) = build(ErNetTask::Dn, 6, 4, 0, 128);
        let heavy = simulate_frame(&ch, &mh, &cfg, 1920, 1080);
        assert!(heavy.lconv1_busy > light.lconv1_busy);
    }

    #[test]
    fn ncr_measured_matches_analytical() {
        let (m, c) = build(ErNetTask::Dn, 3, 1, 0, 128);
        let r = simulate_frame(&c, &m, &EcnnConfig::paper(), 3840, 2160);
        let analytical = ecnn_model::blockflow::ncr(&m, 128.0, ChannelMode::Hardware).unwrap();
        // Frame-level NCR includes border-block padding and 4x2-tile
        // rounding, so it sits slightly above the per-block analytical value.
        assert!(
            r.ncr >= analytical * 0.95 && r.ncr < analytical * 1.3,
            "measured {} vs analytical {}",
            r.ncr,
            analytical
        );
    }

    #[test]
    fn params_fit_for_paper_models() {
        for (task, b, r_, n) in [
            (ErNetTask::Dn, 3, 1, 0),
            (ErNetTask::Sr4, 17, 3, 1),
            (ErNetTask::Sr4, 34, 4, 0),
        ] {
            let (m, c) = build(task, b, r_, n, 128);
            let rep = simulate_frame(&c, &m, &EcnnConfig::paper(), 1920, 1080);
            assert!(
                rep.param_fits,
                "{task:?}-B{b}R{r_}N{n}: {} bytes of {}",
                rep.param_bytes,
                EcnnConfig::paper().param_memory_bytes,
            );
        }
    }

    #[test]
    fn deeper_models_are_slower() {
        let cfg = EcnnConfig::paper();
        let (m1, c1) = build(ErNetTask::Dn, 3, 1, 0, 128);
        let (m2, c2) = build(ErNetTask::Dn, 12, 2, 0, 128);
        let f1 = simulate_frame(&c1, &m1, &cfg, 1920, 1080);
        let f2 = simulate_frame(&c2, &m2, &cfg, 1920, 1080);
        assert!(f2.fps < f1.fps / 2.0);
    }
}
