//! The analytic sections: closed forms, the cycle/traffic model and the
//! calibrated area/power model. Deterministic; pinned in `BENCH_paper.json`.

use super::{Paper, Row, Subject};
use crate::{dn12_matrix, engine, model_matrix, report_row, workload_row, ECNN_TOPS};
use ecnn_baselines::framebased::{
    eq1_plain_bandwidth, frame_based_feature_bandwidth, frame_vs_block_ratio, required_tops,
};
use ecnn_baselines::fusion::fused_line_buffer_bytes;
use ecnn_baselines::registry;
use ecnn_baselines::tpu::TpuBackend;
use ecnn_core::engine::{Backend, EcnnBackend};
use ecnn_isa::compile::compile;
use ecnn_isa::instr::{Opcode, MAX_LEAF_MODULES};
use ecnn_isa::params::QuantizedModel;
use ecnn_model::blockflow::{nbr, ncr, ncr_vs_buffer, plain_nbr, plain_ncr};
use ecnn_model::ernet::{ErNetSpec, ErNetTask};
use ecnn_model::scan::scan_candidates;
use ecnn_model::{zoo, ChannelMode, RealTimeSpec};
use ecnn_sim::banking::{shuffle_write_stalls, BankMapping};
use ecnn_sim::cost::{AreaReport, PowerModel};
use ecnn_sim::timing::simulate_frame;
use ecnn_sim::EcnnConfig;

/// The subject `<prefix>.<model>.<spec>` of a per-pick row.
fn pick(prefix: &str, spec: ErNetSpec, rt: RealTimeSpec) -> Subject {
    Subject(format!("{prefix}.{}.{}", spec.name(), rt.name))
}

/// Section 2: frame-based DRAM bandwidth (Eq. 1), the compute wall and
/// the fused-layer SRAM alternative.
pub(super) fn motivation_bandwidth() -> Vec<Row> {
    let (vdsr, srresnet) = (zoo::vdsr(), zoo::srresnet());
    let fhd = eq1_plain_bandwidth(1080, 1920, 64, 20, 30.0, 16) / 1e9;
    let uhd = eq1_plain_bandwidth(2160, 3840, 64, 20, 30.0, 16) / 1e9;
    let (ratio, nbr26) = (uhd / fhd, frame_vs_block_ratio(64, 20, 26.0));
    let hd_tops = required_tops(&vdsr, 1920, 1080, 30.0);
    let uhd_tops = required_tops(&vdsr, 3840, 2160, 30.0);
    let sram = fused_line_buffer_bytes(&vdsr, 1920, 16) / 1e6;
    let sram_sr = fused_line_buffer_bytes(&srresnet, 1920 / 4, 16) / 1e6;
    let m = Subject("motivation".into());
    vec![
        m.claim("eq1.VDSR.HD30.dram_gbps", fhd, "GB/s", Paper::point("303")),
        m.measured("eq1.VDSR.UHD30.dram_gbps", uhd, "GB/s"),
        m.claim("eq1.VDSR.UHD30_over_HD30", ratio, "x", Paper::point("4")),
        m.measured("compute.VDSR.HD30.tops", hd_tops, "TOPS"),
        m.measured("compute.VDSR.UHD30.tops", uhd_tops, "TOPS"),
        m.claim("fusion.VDSR.HD.sram_mb", sram, "MB", Paper::point("9.3")),
        m.measured("fusion.SRResNet.HD.sram_mb", sram_sr, "MB"),
        m.measured("frame_over_block.VDSR.nbr26", nbr26, "x"),
    ]
}

/// Fig. 5: (a) NBR and NCR of a plain CONV3×3 network against the
/// depth-input ratio β (Eq. 2/3), with the paper's anchors "NBR = 26× at
/// β = 0.4" and "~90% recompute" there; (b) NCR against block-buffer size
/// for VDSR (20 layers) and SRResNet (37), 64 channels of 16-bit features:
/// "VDSR ~2× at 1 MB; SRResNet needs ~2 MB for similar NCR".
pub(super) fn fig5_overheads() -> Vec<Row> {
    let mut rows = Vec::new();
    for i in 0..=9 {
        let beta = 0.05 * i as f64;
        let (nbr, ncr) = (plain_nbr(beta), plain_ncr(beta));
        let b = Subject(format!("fig5a.beta{beta:.2}"));
        if i == 8 {
            // The redundant share of all computation.
            let recompute = (1.0 - 1.0 / ncr) * 100.0;
            rows.push(b.claim("nbr", nbr, "x", Paper::point("26")));
            rows.push(b.measured("ncr", ncr, "x"));
            rows.push(b.claim("recompute_pct", recompute, "%", Paper::point("90")));
        } else {
            rows.push(b.measured("nbr", nbr, "x"));
            rows.push(b.measured("ncr", ncr, "x"));
        }
    }
    let nets = [
        ("VDSR", zoo::vdsr(), 1024),
        ("SRResNet", zoo::srresnet(), 2048),
    ];
    for (name, model, anchor_kb) in nets {
        let m = Subject(format!("fig5b.{name}"));
        for kb in [256, 512, 768, 1024, 1536, 2048, 3072, 4096] {
            let bytes = kb as f64 * 1024.0;
            let v = ncr_vs_buffer(&model, bytes, 64, 16, ChannelMode::Algorithmic);
            let id = format!("{kb}KB.ncr");
            rows.push(if kb == anchor_kb {
                m.claim(&id, v, "x", Paper::point("2"))
            } else {
                m.measured(&id, v, "x")
            });
        }
    }
    rows
}

/// Fig. 8 (top): the largest feasible RE per odd B under each computation
/// constraint (SR4ERNet, xi = 128), and each frontier's NCR and
/// intrinsic-complexity span.
pub(super) fn fig8_model_scan() -> Vec<Row> {
    let mut rows = Vec::new();
    for rt in RealTimeSpec::ALL {
        let f = Subject(format!("fig8.{}", rt.name));
        let frontier = scan_candidates(ErNetTask::Sr4, rt.kop_budget(ECNN_TOPS), 128.0, 45);
        for c in frontier.iter().filter(|c| c.spec.b % 2 == 1) {
            rows.push(f.measured(&format!("B{}.re", c.spec.b), c.re, "RE"));
        }
        let kop = frontier.iter().map(|c| c.intrinsic_kop);
        let (min, max) = (
            kop.clone().fold(f64::MAX, f64::min),
            kop.fold(0.0, f64::max),
        );
        rows.extend([
            f.measured("ncr_first", frontier.first().map(|c| c.ncr), "x"),
            f.measured("ncr_last", frontier.last().map(|c| c.ncr), "x"),
            f.measured("intrinsic_kop_min", min, "KOP/px"),
            f.measured("intrinsic_kop_max", max, "KOP/px"),
        ]);
    }
    rows
}

/// Table 1: which engine stages each FBISA opcode uses, the leaf-module
/// limit and the parameter streams a parameter operand indexes.
pub(super) fn table1_isa() -> Vec<Row> {
    let t = Subject("table1".into());
    let flag = |b: bool| f64::from(u8::from(b));
    let mut rows = Vec::new();
    for op in [
        Opcode::Conv,
        Opcode::Er,
        Opcode::Upx2,
        Opcode::Dnx2,
        Opcode::Conv1,
    ] {
        let m = op.mnemonic();
        rows.push(t.measured(&format!("{m}.conv3x3"), flag(op.has_conv3x3()), "bool"));
        rows.push(t.measured(&format!("{m}.conv1x1"), flag(op.has_conv1x1()), "bool"));
    }
    let dep = engine(ErNetSpec::new(ErNetTask::Dn, 3, 1, 0), 128);
    let packed = &dep.compiled().packed;
    let streams = packed.w3_streams.len() + packed.w1_streams.len() + 1;
    rows.push(t.measured("max_leaf_modules", MAX_LEAF_MODULES as f64, "count"));
    rows.push(t.measured("param_streams", streams as f64, "count"));
    rows
}

/// Table 2: the eCNN configuration and the three computation constraints,
/// which Fig. 8 labels 164, 328 and 655 KOP/pixel.
pub(super) fn table2_config() -> Vec<Row> {
    const BUDGET: &str =
        "exact pixel rates; the paper's 164/328/655 equal 40.96 TOPS over 250/125/62.5 Mpix/s";
    let c = EcnnConfig::paper();
    let kb = |bytes: usize| (bytes / 1024) as f64;
    let t = Subject("table2".into());
    let mut rows = vec![
        t.measured("clock_mhz", c.clock_hz / 1e6, "MHz"),
        t.measured("lconv3_multipliers", c.lconv3_multipliers as f64, "count"),
        t.measured("lconv1_multipliers", c.lconv1_multipliers as f64, "count"),
        t.measured("total_multipliers", c.total_multipliers() as f64, "count"),
        t.measured("peak_tops", c.peak_tops(), "TOPS"),
        t.measured("block_buffers", c.block_buffers as f64, "count"),
        t.measured("block_buffer_kb", kb(c.block_buffer_bytes), "KB"),
        t.measured("banks_per_buffer", c.banks_per_buffer as f64, "count"),
        t.measured("param_memory_kb", kb(c.param_memory_bytes), "KB"),
        t.measured("idu_cycles", c.idu_cycles_per_leaf as f64, "cycles/leaf"),
    ];
    for (rt, paper) in RealTimeSpec::ALL.into_iter().zip(["164", "328", "655"]) {
        let budget = rt.kop_budget(ECNN_TOPS);
        let id = format!("{}.kop_budget", rt.name);
        rows.push(
            t.claim(&id, budget, "KOP/px", Paper::point(paper))
                .unless(BUDGET),
        );
    }
    rows
}

/// Fig. 18: the six-line FBISA program of DnERNet-B3R1N0 (xi = 128) and
/// its coded parameter streams.
pub(super) fn fig18_program() -> Vec<Row> {
    let dep = engine(ErNetSpec::new(ErNetTask::Dn, 3, 1, 0), 128);
    let (program, packed) = (&dep.compiled().program, &dep.compiled().packed);
    let lines = program.instructions.len() as f64;
    let f = Subject("fig18.DnERNet-B3R1N0".into());
    vec![
        f.claim("instructions", lines, "count", Paper::point("6")),
        f.measured("leaf_modules", program.total_leaf_modules() as f64, "count"),
        f.measured("param_bytes", packed.total_bytes() as f64, "B"),
        f.measured("compression", packed.stats.compression_ratio, "x"),
        f.measured("segments", packed.segments.len() as f64, "count"),
    ]
}

/// Table 6: area breakdown (TSMC 40 nm), the 3× parameter-memory variant
/// of Section 7.3 and the average power over the nine picks.
pub(super) fn table6_area_power() -> Vec<Row> {
    const X3: &str =
        "the 7.9% parameter-memory share is scaled linearly, a little under the paper's layout";
    const POWER: &str =
        "the calibrated model keeps LCONV3x3 ~100% busy in all nine picks, so each draws over 7.2 W";
    let a = AreaReport::paper_40nm(1.0);
    let total = a.total_mm2();
    let area = Subject("table6.area".into());
    let mut rows = Vec::new();
    for (part, mm2) in [
        ("lconv3", a.lconv3_mm2),
        ("lconv1", a.lconv1_mm2),
        ("block_buffers", a.block_buffers_mm2),
        ("param_memory", a.param_memory_mm2),
        ("other", a.other_mm2),
    ] {
        rows.push(area.measured(&format!("{part}_mm2"), mm2, "mm2"));
        rows.push(area.measured(&format!("{part}_pct"), mm2 / total * 100.0, "%"));
    }
    let total_x3 = AreaReport::paper_40nm(3.0).total_mm2();
    let picks = model_matrix();
    let watts = picks
        .iter()
        .map(|&(rt, spec, xi)| report_row(spec, xi, rt).power.total_w());
    let average = watts.sum::<f64>() / picks.len() as f64;
    let (x3, power) = (
        Subject("table6.area.param_memory_x3".into()),
        Subject("table6.power".into()),
    );
    rows.extend([
        area.claim("total_mm2", total, "mm2", Paper::point("55.23")),
        x3.claim("total_mm2", total_x3, "mm2", Paper::point("63.99"))
            .unless(X3),
        power
            .claim("average_w", average, "W", Paper::point("6.94"))
            .unless(POWER),
    ]);
    rows
}

/// Fig. 19: inference time, frame rate and NCR of every pick. The paper:
/// every pick meets its spec, and NCR grows with depth (per family, the
/// UHD30, HD60 and HD30 picks in that order).
pub(super) fn fig19_inference() -> Vec<Row> {
    let mut rows = Vec::new();
    let mut last: Option<(ErNetTask, f64)> = None;
    let mut violations = 0;
    for (rt, spec, xi) in model_matrix() {
        let f = report_row(spec, xi, rt).frame;
        let p = pick("fig19", spec, rt);
        rows.push(p.measured("ms_per_frame", f.seconds_per_frame * 1e3, "ms"));
        rows.push(p.claim("fps", f.fps, "fps", Paper::at_least(rt.fps)));
        rows.push(p.measured("ncr", f.ncr, "x"));
        if matches!(last, Some((task, ncr)) if task == spec.task && f.ncr <= ncr) {
            violations += 1;
        }
        last = Some((spec.task, f.ncr));
    }
    let shape = Subject("fig19.ncr_grows_with_depth".into());
    rows.push(shape.claim("violations", violations as f64, "count", Paper::SHAPE));
    rows
}

/// Fig. 20: power per pick (left) and the circuit-type breakdown of the
/// three SR4ERNet picks (right): combinational 82–87%, sequential ~10%,
/// SRAM 3–7%.
pub(super) fn fig20_power() -> Vec<Row> {
    const COMB: &str = "LCONV3x3 runs ~100% busy, so the datapath share tops the paper's range";
    const SEQ: &str = "the fixed 0.70 W sequential term is a smaller share of the higher total";
    let mut rows = Vec::new();
    for (i, (rt, spec, xi)) in model_matrix().into_iter().enumerate() {
        let w = report_row(spec, xi, rt).power;
        let p = pick("fig20", spec, rt);
        rows.push(p.measured("total_w", w.total_w(), "W"));
        rows.push(p.measured("lconv3_w", w.lconv3_w, "W"));
        rows.push(p.measured("lconv1_w", w.lconv1_w, "W"));
        rows.push(p.measured("sram_w", w.sram_w, "W"));
        if i < 3 {
            let (comb, seq, sram) = w.circuit_fractions();
            let (comb_range, sram_range) = (Paper::range(82.0, 87.0), Paper::range(3.0, 7.0));
            rows.push(
                p.claim("combinational_pct", comb * 100.0, "%", comb_range)
                    .unless(COMB),
            );
            rows.push(
                p.claim("sequential_pct", seq * 100.0, "%", Paper::point("10"))
                    .unless(SEQ),
            );
            rows.push(p.claim("sram_pct", sram * 100.0, "%", sram_range));
        }
    }
    rows
}

/// Fig. 21: DRAM bandwidth, NBR, smallest sufficient interface and DRAM
/// power per pick. The paper: DnERNet 1.66 / 0.94 / 0.50 GB/s, under
/// 120 mW dynamic, 267 mW leakage.
pub(super) fn fig21_dram() -> Vec<Row> {
    const DN: &str = "cause not isolated: the traffic model streams 2% less at this pick";
    let mut rows = Vec::new();
    let mut leak_mw = None;
    for (rt, spec, xi) in model_matrix() {
        let r = report_row(spec, xi, rt);
        let p = pick("fig21", spec, rt);
        let gbps = r.dram_bandwidth_bps() / 1e9;
        let paper = match (spec.task, rt.name) {
            (ErNetTask::Dn, "UHD30") => Some("1.66"),
            (ErNetTask::Dn, "HD60") => Some("0.94"),
            (ErNetTask::Dn, "HD30") => Some("0.50"),
            _ => None,
        };
        rows.push(match paper {
            Some(paper) => p
                .claim("dram_gbps", gbps, "GB/s", Paper::point(paper))
                .unless(DN),
            None => p.measured("dram_gbps", gbps, "GB/s"),
        });
        let interface = r.dram_config.map(|c| c.peak_bytes_per_sec / 1e9);
        let dynamic = r.dram_power.dynamic_mw();
        rows.push(p.measured("nbr", r.frame.nbr, "x"));
        rows.push(p.measured("interface_peak_gbps", interface, "GB/s"));
        rows.push(p.claim("dram_dynamic_mw", dynamic, "mW", Paper::at_most(120.0)));
        leak_mw = Some(r.dram_power.background_mw);
    }
    let f = Subject("fig21".into());
    rows.push(f.claim("dram_background_mw", leak_mw, "mW", Paper::point("267")));
    rows
}

/// Table 7: every registered flow on the same two workloads, and the TPU
/// (SCALE-Sim) comparison: 21.9 / 55.3 fps at 12.2 / 8.3 GB/s, and eCNN
/// ahead by 3.1× / 1.2× in fps per TOPS and 6.4× / 14.4× in TOPS per GB/s.
pub(super) fn table7_comparison() -> Vec<Row> {
    const FPS: &str = "the output-stationary cycle estimate is not SCALE-Sim and runs faster";
    const DRAM: &str = "the TPU model charges the x4 tail's post-shuffle map a second DRAM touch";
    const INTENSITY: &str =
        "cause not isolated: both chips are taken at effective TOPS over sustained GB/s here";
    let sr4 = ErNetSpec::new(ErNetTask::Sr4, 17, 3, 1);
    let mut rows = Vec::new();
    for spec in [ErNetSpec::new(ErNetTask::Dn, 3, 1, 0), sr4] {
        let w = workload_row(spec, 128, RealTimeSpec::UHD30);
        for b in registry() {
            let r = b.frame_report(&w).expect("all backends report");
            let p = pick(&format!("table7.{}", b.name()), spec, RealTimeSpec::UHD30);
            rows.push(p.measured("fps", r.fps, "fps"));
            rows.push(p.measured("dram_gbps", r.dram_bps / 1e9, "GB/s"));
            rows.push(p.measured("sram_kb", r.feature_sram_bytes / 1024.0, "KB"));
            rows.push(p.measured("power_w", r.power_w, "W"));
            rows.push(p.measured("utilization_pct", r.utilization.map(|u| u * 100.0), "%"));
        }
    }
    let tpu = TpuBackend::classic();
    let b34 = ErNetSpec::new(ErNetTask::Sr4, 34, 4, 0);
    for (spec, rt, paper) in [
        (sr4, RealTimeSpec::UHD30, ["21.9", "12.2", "3.1", "6.4"]),
        (b34, RealTimeSpec::HD30, ["55.3", "8.3", "1.2", "14.4"]),
    ] {
        let w = workload_row(spec, 128, rt);
        let t = tpu.frame_report(&w).expect("tpu report");
        let e = EcnnBackend::paper().frame_report(&w).expect("ecnn report");
        let intensity = |tops: Option<f64>, bps: f64| tops.expect("modelled") / (bps / 1e9);
        let (e_int, t_int) = (intensity(e.tops, e.dram_bps), intensity(t.tops, t.dram_bps));
        let per_tops = (e.fps / ECNN_TOPS) / (t.fps / tpu.config.peak_tops());
        let p = pick("table7.tpu_detail", spec, rt);
        let paper = paper.map(Paper::point);
        rows.extend([
            p.claim("fps", t.fps, "fps", paper[0]).unless(FPS),
            p.claim("dram_gbps", t.dram_bps / 1e9, "GB/s", paper[1])
                .unless(DRAM),
            p.measured("ecnn_tops_per_gbps", e_int, "TOPS/(GB/s)"),
            p.measured("tpu_tops_per_gbps", t_int, "TOPS/(GB/s)"),
            p.claim("ecnn_over_tpu_fps_per_peak_tops", per_tops, "x", paper[2])
                .unless("follows the TPU fps miss"),
            p.claim("ecnn_over_tpu_tops_per_gbps", e_int / t_int, "x", paper[3])
                .unless(INTENSITY),
        ]);
    }
    rows
}

/// Table A.1 / Fig. A.1 (hardware): every DnERNet-12ch pick is real-time
/// at no more than 1.8 GB/s of DRAM.
pub(super) fn table_a1_dn12() -> Vec<Row> {
    const DRAM: &str =
        "cause not isolated: the UHD30 pick's DI/DO traffic at xi = 256 tops the bound";
    let mut rows = Vec::new();
    for (rt, spec, xi) in dn12_matrix() {
        let r = report_row(spec, xi, rt);
        let p = pick("tableA1", spec, rt);
        let gbps = r.dram_bandwidth_bps() / 1e9;
        rows.push(p.claim("fps", r.frame.fps, "fps", Paper::at_least(rt.fps)));
        rows.push(
            p.claim("dram_gbps", gbps, "GB/s", Paper::at_most(1.8))
                .unless(DRAM),
        );
    }
    rows
}

/// Section 7.3: style transfer's two sub-models at Full HD, DRAM traffic
/// including the exchange between them (paper: 29.5 fps, 1.91 GB/s).
pub(super) fn app_style_transfer() -> Vec<Row> {
    const FPS: &str =
        "cause not isolated: encoder and decoder frame times are summed, no exchange stall";
    let (enc, dec) = zoo::style_transfer();
    let cfg = EcnnConfig::paper();
    let ce = compile(&QuantizedModel::uniform(&enc), 256).expect("encoder compiles");
    let cd = compile(&QuantizedModel::uniform(&dec), ce.program.do_side).expect("decoder compiles");
    let fe = simulate_frame(&ce, &enc, &cfg, 1920 / 4, 1080 / 4);
    let fd = simulate_frame(&cd, &dec, &cfg, 1920, 1080);
    let fps = 1.0 / (fe.seconds_per_frame + fd.seconds_per_frame);
    let bytes = fe.di_bytes_per_frame + fe.do_bytes_per_frame;
    let bytes = bytes + fd.di_bytes_per_frame + fd.do_bytes_per_frame;
    let gbps = bytes as f64 * fps / 1e9;
    let s = Subject("app.style".into());
    let mut rows = Vec::new();
    for (name, program) in [("encoder", &ce.program), ("decoder", &cd.program)] {
        let m = Subject(format!("app.style.{name}"));
        rows.push(m.measured("instructions", program.instructions.len() as f64, "count"));
        rows.push(m.measured("leaf_modules", program.total_leaf_modules() as f64, "count"));
    }
    rows.extend([
        s.claim("HD.fps", fps, "fps", Paper::point("29.5"))
            .unless(FPS),
        s.claim("HD.dram_gbps", gbps, "GB/s", Paper::point("1.91"))
            .unless("follows the fps miss: the traffic is charged at the higher frame rate"),
    ]);
    rows
}

/// Section 7.3: the 40-layer (~5M-parameter) recognition model, one
/// 224×224 image per block, on eCNN with a 3× parameter memory. The paper:
/// 1344 images/s (0.74 ms), 231 KB and 308 MB/s of DRAM, 5.25 mJ/image.
pub(super) fn app_recognition() -> Vec<Row> {
    const SLOW: &str =
        "cause not isolated: the cycle model charges about twice the paper's time per image";
    const BYTES: &str = "counts only the 224x224x3 input and the class scores as traffic";
    let model = zoo::recognition(1000);
    let c = compile(&QuantizedModel::uniform(&model), 224).expect("compiles");
    let cfg = EcnnConfig::paper().with_param_memory_scale(3);
    let f = simulate_frame(&c, &model, &cfg, 1, 1);
    let (ms, fps) = (f.seconds_per_frame * 1e3, 1.0 / f.seconds_per_frame);
    let bytes = (f.di_bytes_per_frame + f.do_bytes_per_frame) as f64;
    let kb = bytes / 1024.0;
    let mj = PowerModel::paper_40nm().evaluate(&f).total_w() * ms;
    let layers = model.depth_conv3x3() as f64;
    let params = model.param_count() as f64 / 1e6;
    let param_kb = (c.packed.total_bytes() / 1024) as f64;
    let capacity = Paper::at_most((cfg.param_memory_bytes / 1024) as f64);
    let r = Subject("app.recognition".into());
    vec![
        r.claim("conv3x3_layers", layers, "count", Paper::point("40")),
        r.claim("params_m", params, "M", Paper::point("5")),
        r.claim("images_per_s", fps, "1/s", Paper::point("1344"))
            .unless(SLOW),
        r.claim("ms_per_image", ms, "ms", Paper::point("0.74"))
            .unless(SLOW),
        r.claim("dram_kb_per_image", kb, "KB", Paper::point("231"))
            .unless(BYTES),
        r.claim("dram_mbps", bytes * fps / 1e6, "MB/s", Paper::point("308"))
            .unless("follows the images/s and KB/image misses"),
        r.claim("energy_mj_per_image", mj, "mJ", Paper::point("5.25"))
            .unless("follows the time-per-image miss"),
        r.claim("param_kb", param_kb, "KB", capacity),
    ]
}

/// Fig. 17: bank-conflict stalls of pixel-shuffle writes under the normal
/// and the interleaved eight-bank mapping; the paper's interleaved mapping
/// is conflict-free.
pub(super) fn ablation_banking() -> Vec<Row> {
    let mut rows = Vec::new();
    let mut conflicted = 0;
    for (w, h) in [(16, 16), (24, 24), (29, 29), (32, 32), (32, 63), (48, 48)] {
        let normal = shuffle_write_stalls(w, h, BankMapping::Normal);
        let interleaved = shuffle_write_stalls(w, h, BankMapping::Interleaved);
        let b = Subject(format!("fig17.{w}x{h}"));
        rows.push(b.measured("normal_stalls", normal as f64, "cycles"));
        rows.push(b.measured("interleaved_stalls", interleaved as f64, "cycles"));
        conflicted += usize::from(interleaved > 0);
    }
    let shape = Subject("fig17.interleaved_conflicts".into());
    rows.push(shape.claim("violations", conflicted as f64, "count", Paper::SHAPE));
    rows
}

/// Ablation: recompute-overlaps (block flow) against fused-layer line
/// buffers and frame-based streaming, across DnERNet depth at Full HD 30.
pub(super) fn ablation_recompute() -> Vec<Row> {
    let mut rows = Vec::new();
    for b in [1usize, 3, 6, 9, 12, 15] {
        let m = ErNetSpec::new(ErNetTask::Dn, b, 1, 0)
            .build()
            .expect("valid spec");
        let frame = frame_based_feature_bandwidth(&m, 1920, 1080, 30.0, 8) / 1e9;
        let block_nbr = nbr(&m, 128.0, 1.0).expect("B <= 15 fits a 128 block");
        let block = 1920.0 * 1080.0 * 3.0 * 30.0 * block_nbr / 1e9;
        let sram = fused_line_buffer_bytes(&m, 1920, 8) / 1e6;
        let a = Subject(format!("ablation.recompute.{}", m.name()));
        rows.extend([
            a.measured("frame_gbps", frame, "GB/s"),
            a.measured("fusion_sram_mb", sram, "MB"),
            a.measured("block_gbps", block, "GB/s"),
            a.measured("block_ncr", ncr(&m, 128.0, ChannelMode::Hardware), "x"),
        ]);
    }
    rows
}
