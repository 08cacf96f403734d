//! Parity proptests for the flat-slice packed and runtime-dispatched SIMD
//! micro-kernels.
//!
//! Six oracles pin the kernel rewrites down:
//!
//! * the *tensor-crate goldens*: random single-conv programs must match a
//!   composition of the untouched `conv3x3_fixed` / `conv1x1_fixed`
//!   reference kernels bit-for-bit — on the packed path and the
//!   (narrow-licensed) SIMD path, over both inference kinds (zero-padded border rows and truncated-pyramid interiors) and
//!   sides that are never lane multiples;
//! * the *kept reference path*: random ERNet programs with randomized
//!   (and sparsified) parameters must execute bit-identically under the
//!   full variant matrix `{Simd, Packed, Reference}`;
//! * the *work counters*: `ExecStats::work()` (mac3/mac1/traffic) must be
//!   unchanged by the kernel selection, and warm packed/SIMD execution
//!   must do zero kernel-prep allocations;
//! * the *zero-skip masks*: heavily pruned programs, where the register-
//!   blocked kernels skip most tap rows, must still match packed and
//!   reference execution bit for bit;
//! * the *narrow license*: unproven programs must never select the
//!   `i32` accumulation path, the untouched uniform paper model must be
//!   fully licensed, and the license must survive the Session /
//!   AsyncSession / `run_image_sharded` plumbing bit-identically;
//! * the *SIMD rungs*: eSR-4K and DnERNet-B3R1N0 blocks match `Packed` at
//!   every level the host can run (AVX-512, AVX2, SSE2, scalar on x86),
//!   and the AVX-512 rung runs every licensed wide 3×3 sweep on byte
//!   lanes;
//! * the *lanes*: splitting each sweep's rows across 1–4 threads
//!   (`BlockPlan::with_lanes`) leaves every paper model's block codes and
//!   work counters unchanged, and a caller-thread `Engine::session` on the
//!   host's cores matches a one-lane pipe worker's frames.

use ecnn_core::engine::Engine;
use ecnn_core::supervise::DegradeRung;
use ecnn_isa::compile::compile;
use ecnn_isa::instr::{FeatLoc, Instruction, Opcode, QSpec, LEAF_CH};
use ecnn_isa::params::{LeafParams, PackedConv1, PackedConv3, QuantizedModel};
use ecnn_isa::program::Program;
use ecnn_model::ernet::{ErNetSpec, ErNetTask};
use ecnn_model::layer::{Activation, Layer, Op, PoolKind, SkipRef};
use ecnn_model::model::{InferenceKind, Model};
use ecnn_model::RealTimeSpec;
use ecnn_nn::quant::fixed_forward;
use ecnn_sim::exec::{execute_at, execute_with, quantize_input, BlockPlan, Kernels, PlanePool};
use ecnn_sim::kernels::simd::{self, ErFinish, Lanes, LiveChannels, NarrowEpilogue};
use ecnn_tensor::conv::{conv1x1_fixed, conv3x3_fixed, FixedConvParams, Padding};
use ecnn_tensor::{ImageKind, QFormat, SyntheticImage, Tensor};
use proptest::prelude::*;

/// Overwrites every parameter of `qm` with seeded pseudo-random codes in
/// `[-8, 8]`, zeroing roughly `sparsity_pct`% of them so the packed
/// zero-tap/zero-column masks are exercised.
fn scramble(qm: &mut QuantizedModel, seed: u64, sparsity_pct: u64) {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as i64
    };
    for p in qm.layers.iter_mut().flatten() {
        for w in
            p.w3.iter_mut()
                .chain(p.w1.iter_mut())
                .chain(p.b3.iter_mut())
                .chain(p.b1.iter_mut())
        {
            let r = next();
            *w = if r.unsigned_abs() % 100 < sparsity_pct {
                0
            } else {
                (r.rem_euclid(17) - 8) as i16
            };
        }
    }
}

fn image_kind(sel: u64) -> ImageKind {
    match sel % 4 {
        0 => ImageKind::Smooth,
        1 => ImageKind::Edges,
        2 => ImageKind::Texture,
        _ => ImageKind::Mixed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A random head-conv + 1×1 program equals the golden reference
    /// composition, for both inference kinds.
    #[test]
    fn random_conv_programs_match_golden_composition(
        seed in 0u64..1_000_000,
        side in 12usize..48,
        sparsity in 0u64..70,
        padded_sel in 0u64..2,
    ) {
        let padded = padded_sel == 1;
        let inference = if padded {
            InferenceKind::ZeroPadded
        } else {
            InferenceKind::TruncatedPyramid
        };
        let m = Model::new(
            "conv-then-1x1",
            3,
            32,
            vec![
                Layer::new(Op::Conv3x3 { in_c: 3, out_c: 32, act: Activation::None }),
                Layer::new(Op::Conv1x1 { in_c: 32, out_c: 32, act: Activation::None }),
            ],
        )
        .unwrap()
        .with_inference(inference);
        let mut qm = QuantizedModel::uniform(&m);
        scramble(&mut qm, seed, sparsity);
        let c = compile(&qm, side).unwrap();
        let img = SyntheticImage::new(image_kind(seed), seed % 97).rgb(side, side);
        let input = img.map(|v| qm.input_q.quantize(v));

        let plan = BlockPlan::new(&c.program, &c.leafs).unwrap();
        let mut pool = PlanePool::new();
        let out = execute_with(&plan, &mut pool, &input, Kernels::Packed)
            .unwrap()
            .clone();
        let mut simd_pool = PlanePool::new();
        let simd_out = execute_with(&plan, &mut simd_pool, &input, Kernels::Simd)
            .unwrap()
            .clone();

        // Golden: hardware-padded 32ch input through the untouched
        // fixed-point reference kernels, layer by layer.
        let padding = if padded { Padding::Zero } else { Padding::Valid };
        let p0 = qm.layers[0].as_ref().unwrap();
        let mid = conv3x3_fixed(
            &input.with_channels(32),
            qm.input_q.frac() as i32,
            &FixedConvParams {
                weights: &p0.w3,
                w_format: p0.w3_q,
                bias: &p0.b3,
                b_format: p0.b3_q,
                out_format: p0.out_q,
            },
            32,
            padding,
        );
        let p1 = qm.layers[1].as_ref().unwrap();
        let golden = conv1x1_fixed(
            &mid,
            p0.out_q.frac() as i32,
            &FixedConvParams {
                weights: &p1.w1,
                w_format: p1.w1_q,
                bias: &p1.b1,
                b_format: p1.b1_q,
                out_format: p1.out_q,
            },
            32,
        );
        prop_assert_eq!(&out, &golden);
        prop_assert_eq!(&simd_out, &golden);
    }

    /// Random ERNet programs execute bit-identically across the full
    /// variant matrix (SIMD, packed, reference), with identical
    /// deterministic work counters, and warm
    /// packed execution performs zero kernel-prep allocations.
    #[test]
    fn packed_and_reference_paths_agree(
        seed in 0u64..1_000_000,
        b in 1usize..4,
        r in 1usize..3,
        sel in 0usize..4,
        sparsity in 0u64..70,
    ) {
        let task = match sel {
            0 => ErNetTask::Dn,
            1 => ErNetTask::Sr2,
            2 => ErNetTask::Sr4,
            _ => ErNetTask::Dn12,
        };
        let n = if b > 1 { 1 } else { 0 };
        let m = ErNetSpec::new(task, b, r, n).build().unwrap();
        let mut qm = QuantizedModel::uniform(&m);
        scramble(&mut qm, seed, sparsity);
        let side = if task == ErNetTask::Dn12 { 48 } else { 32 };
        let c = compile(&qm, side).unwrap();
        let img = SyntheticImage::new(image_kind(seed), seed % 89).rgb(side, side);
        let input = quantize_input(&img, &c.program);

        let plan = BlockPlan::new(&c.program, &c.leafs).unwrap();
        let mut fast_pool = PlanePool::new();
        let fast = execute_with(&plan, &mut fast_pool, &input, Kernels::Packed)
            .unwrap()
            .clone();
        let warm_mark = fast_pool.stats();
        let warm = execute_with(&plan, &mut fast_pool, &input, Kernels::Packed)
            .unwrap()
            .clone();
        let mut ref_pool = PlanePool::new();
        let reference = execute_with(&plan, &mut ref_pool, &input, Kernels::Reference)
            .unwrap()
            .clone();

        prop_assert_eq!(&fast, &reference);
        prop_assert_eq!(&warm, &reference);
        // mac/traffic counters are invariant under the kernel selection.
        prop_assert_eq!(fast_pool.stats().delta_since(&warm_mark).work(), ref_pool.stats().work());
        // Steady state: the packed cache serves every instruction and the
        // arena recycles every buffer — zero kernel-prep allocations.
        let steady = fast_pool.stats().delta_since(&warm_mark);
        prop_assert_eq!(steady.planes_allocated, 0);
        prop_assert_eq!(steady.params_reused, c.program.instructions.len() as u64);
        prop_assert_eq!(ref_pool.stats().params_reused, 0);

        // SIMD joins the same equivalence class with the same work
        // counters.
        let mut simd_pool = PlanePool::new();
        let simd = execute_with(&plan, &mut simd_pool, &input, Kernels::Simd)
            .unwrap()
            .clone();
        prop_assert_eq!(&simd, &reference);
        prop_assert_eq!(simd_pool.stats().work(), ref_pool.stats().work());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Heavily pruned ERNet programs: most register-blocked `(output
    /// block, input pair, ky)` cells are all-zero and skipped, so the
    /// zero-skip masks decide most of the work. The SIMD path must still
    /// match the packed and reference paths bit for bit, with the same
    /// work counters and one narrow execution per licensed instruction.
    #[test]
    fn high_sparsity_masks_keep_simd_identical(
        seed in 0u64..1_000_000,
        sel in 0usize..3,
        sparsity in 85u64..100,
    ) {
        let task = match sel {
            0 => ErNetTask::Dn,
            1 => ErNetTask::Sr2,
            _ => ErNetTask::Sr4,
        };
        let m = ErNetSpec::new(task, 2, 2, 1).build().unwrap();
        let mut qm = QuantizedModel::uniform(&m);
        scramble(&mut qm, seed, sparsity);
        // Scale the surviving 3×3 taps up so that one skipped tap row
        // moves the requantized outputs instead of rounding away.
        for p in qm.layers.iter_mut().flatten() {
            p.w3.iter_mut().for_each(|w| *w *= 8);
        }
        let side = 40;
        let c = compile(&qm, side).unwrap();
        let img = SyntheticImage::new(image_kind(seed), seed % 83).rgb(side, side);
        let input = quantize_input(&img, &c.program);
        let plan = BlockPlan::new(&c.program, &c.leafs).unwrap();

        let mut runs = Vec::new();
        for kind in [Kernels::Simd, Kernels::Packed, Kernels::Reference] {
            let mut pool = PlanePool::new();
            let out = execute_with(&plan, &mut pool, &input, kind).unwrap().clone();
            runs.push((out, pool.stats()));
        }
        let (simd_out, simd_stats) = &runs[0];
        prop_assert_eq!(simd_stats.narrow_instrs, plan.narrow_licensed() as u64);
        for (out, stats) in &runs[1..] {
            prop_assert_eq!(simd_out, out);
            prop_assert_eq!(simd_stats.work(), stats.work());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The narrow epilogue's reordering paths against the reference
    /// kernels: a 64- or 96-channel conv into `PixelShuffle{2}` compiles
    /// to one UPX2 instruction per input group, each after the first
    /// accumulating srcS from the previous one's output in the shuffled
    /// domain (in place under the keyed layout); a residual conv into
    /// stride or max `Downsample`
    /// compiles to a DNX2 that adds a center-cropped srcS before pooling.
    /// Both run narrow under `Simd` — licensed and counted — and match
    /// `Reference` bit for bit on `Simd` and `Packed`, in the coalesced
    /// and the keyed layout. Every rung finishes through the executor's
    /// one tail, so the DNX2 cases also meet the fixed-point golden
    /// `fixed_forward`, which shares no code with it. The UPX2 cases
    /// cannot: the compiler requantizes the chained partials to the
    /// layer's 8-bit format, which an unsplit convolution never does.
    #[test]
    fn narrow_shuffle_and_pool_epilogues_match_reference(
        seed in 0u64..1_000_000,
        half_side in 10usize..20,
        sparsity in 0u64..50,
        sel in 0usize..4,
    ) {
        let side = 2 * half_side;
        let (m, opcode) = if sel < 2 {
            // Two or three input groups chain srcS; the 1×1 tail keeps
            // the shuffled plane in a block buffer (srcS can never be
            // read back from DO).
            let mid_c = if sel == 0 { 64 } else { 96 };
            let m = Model::new(
                "conv-upx2",
                3,
                32,
                vec![
                    Layer::new(Op::Conv3x3 { in_c: 3, out_c: mid_c, act: Activation::Relu }),
                    Layer::new(Op::Conv3x3 { in_c: mid_c, out_c: 128, act: Activation::None }),
                    Layer::new(Op::PixelShuffle { factor: 2 }),
                    Layer::new(Op::Conv1x1 { in_c: 32, out_c: 32, act: Activation::None }),
                ],
            );
            (m, Opcode::Upx2)
        } else {
            let kind = if sel == 2 { PoolKind::Stride } else { PoolKind::Max };
            let m = Model::new(
                "residual-dnx2",
                3,
                32,
                vec![
                    Layer::new(Op::Conv3x3 { in_c: 3, out_c: 32, act: Activation::Relu }),
                    Layer::with_skip(
                        Op::Conv3x3 { in_c: 32, out_c: 32, act: Activation::None },
                        SkipRef::Layer(0),
                    ),
                    Layer::new(Op::Downsample { kind, factor: 2 }),
                ],
            );
            (m, Opcode::Dnx2)
        };
        let mut qm = QuantizedModel::uniform(&m.unwrap());
        scramble(&mut qm, seed, sparsity);
        let c = compile(&qm, side).unwrap();
        let plan = BlockPlan::new(&c.program, &c.leafs).unwrap();
        // The reordering instructions are licensed, srcS included.
        let licensed_srcs = c
            .program
            .instructions
            .iter()
            .zip(plan.packed())
            .filter(|(ins, p)| ins.opcode == opcode && ins.src_s.is_some() && p.narrow_acc)
            .count();
        prop_assert!(licensed_srcs > 0, "no licensed {:?} with srcS", opcode);
        let mut keyed = plan.clone();
        keyed.force_keyed();

        let img = SyntheticImage::new(image_kind(seed), seed % 79).rgb(side, side);
        let input = quantize_input(&img, &c.program);
        let mut ref_pool = PlanePool::new();
        let reference = execute_with(&plan, &mut ref_pool, &input, Kernels::Reference)
            .unwrap()
            .clone();
        if opcode == Opcode::Dnx2 {
            prop_assert!(reference == fixed_forward(&qm, &input), "Reference vs fixed_forward");
        }
        for (p, label) in [(&plan, "coalesced"), (&keyed, "keyed")] {
            for kernels in [Kernels::Simd, Kernels::Packed] {
                let mut pool = PlanePool::new();
                let out = execute_with(p, &mut pool, &input, kernels).unwrap().clone();
                prop_assert!(out == reference, "{:?} in the {} layout", kernels, label);
                prop_assert_eq!(pool.stats().work(), ref_pool.stats().work());
                let narrow = match kernels {
                    Kernels::Simd => plan.narrow_licensed() as u64,
                    _ => 0,
                };
                prop_assert_eq!(pool.stats().narrow_instrs, narrow);
            }
        }
    }
}

/// The narrow license covers the srcS add, not just the conv stage: a
/// forged program whose conv sums are tiny but whose srcS plane sits 25
/// fractional bits below the accumulator (`Q0` into `Q25`) reaches
/// 127·2²⁵ > `i32::MAX` only after the srcS add. That instruction must
/// run on the `i64` packed kernels — a narrow run would wrap in the fused
/// epilogue — while its producer stays narrow, and the output must equal
/// `Reference`.
#[test]
fn srcs_upshift_past_i32_runs_packed() {
    let conv =
        |src: FeatLoc, dst: FeatLoc, src_q: QFormat, w3: QFormat, dst_q: QFormat| Instruction {
            opcode: Opcode::Conv,
            inference: InferenceKind::TruncatedPyramid,
            src,
            dst,
            src_s: None,
            in_groups: 1,
            out_groups: 1,
            expansion: 1,
            in_size: (16, 16),
            out_size: (14, 14),
            relu: false,
            pool: None,
            pool_factor: 1,
            q: QSpec {
                src: src_q,
                dst: dst_q,
                src_s: None,
                mid: None,
                w3,
                b3: QFormat::signed(7),
                w1: None,
                b1: None,
            },
            param_restart: 0,
            layer: 0,
        };
    let di_q = QFormat::unsigned(8);
    // Producer: integer weights, UQ8 input -> Q0 codes up to 127.
    let head = conv(
        FeatLoc::di(),
        FeatLoc::bb(0),
        di_q,
        QFormat::signed(0),
        QFormat::signed(0),
    );
    // Consumer: accumulator at Q8 + Q17 = Q25, srcS at Q0, dst at Q0.
    let mut tail = conv(
        FeatLoc::di(),
        FeatLoc::dout(),
        di_q,
        QFormat::signed(17),
        QFormat::signed(0),
    );
    tail.src_s = Some(FeatLoc::bb(0));
    tail.q.src_s = Some(QFormat::signed(0));
    // The consumer reads a 14x14 srcS plane with a 14x14 accumulator.
    let program = Program {
        name: "srcs-upshift".into(),
        instructions: vec![head, tail],
        inference: InferenceKind::TruncatedPyramid,
        di_side: 16,
        di_channels: 1,
        di_q,
        do_side: 14,
        do_channels: 1,
        do_q: QFormat::signed(0),
        input_unshuffle: None,
        bb_overflow: false,
    };
    let centre = |w: i16| {
        let mut leaf = LeafParams::zero();
        leaf.w3[4] = w;
        leaf
    };
    let leafs = vec![vec![centre(127)], vec![centre(1)]];
    let report = ecnn_isa::verify::verify(&program, &leafs);
    assert!(!report.has_errors(), "{:?}", report.diagnostics);
    let acc = report.ranges[1].expect("analyzed").acc;
    assert!(
        acc.1 > i32::MAX as i64,
        "the srcS add must leave i32: {acc:?}"
    );

    let plan = BlockPlan::new(&program, &leafs).unwrap();
    let narrow: Vec<bool> = plan.packed().iter().map(|p| p.narrow_acc).collect();
    assert_eq!(narrow, [true, false], "producer narrow, consumer packed");

    // Full-scale input: the srcS codes reach 127, so the final sums
    // really exceed i32.
    let input = Tensor::from_fn(1, 16, 16, |_, y, x| 200 + ((y * 16 + x) % 56) as i16);
    let mut pool = PlanePool::new();
    let simd_out = execute_with(&plan, &mut pool, &input, Kernels::Simd)
        .unwrap()
        .clone();
    assert_eq!(pool.stats().narrow_instrs, 1);
    let mut ref_pool = PlanePool::new();
    let reference = execute_with(&plan, &mut ref_pool, &input, Kernels::Reference).unwrap();
    assert_eq!(&simd_out, reference);
}

/// An instruction whose accumulator hull the verifier cannot fit in
/// `i32` must never run narrow. Legal in-format codes on 32-channel
/// stages can never overflow an `i32` accumulator (32·9·|w|·|src| stays
/// under 2³¹ for 8-bit codes), so the regression forges a two-group
/// (64-channel) conv and then maxes the compiled leaf weights directly:
/// the wide stage's hull reaches ~2.4e9 > `i32::MAX` and loses its
/// license while the narrow head stages keep theirs — the run must take
/// the narrow path exactly on the licensed subset and still match the
/// reference kernels bit-for-bit (the packed `i64` kernels the unproven
/// instruction runs on are always exact).
#[test]
fn unproven_instructions_never_select_narrow() {
    let m = Model::new(
        "wide",
        3,
        32,
        vec![
            Layer::new(Op::Conv3x3 {
                in_c: 3,
                out_c: 64,
                act: Activation::None,
            }),
            Layer::new(Op::Conv3x3 {
                in_c: 64,
                out_c: 32,
                act: Activation::None,
            }),
        ],
    )
    .unwrap();
    let qm = QuantizedModel::uniform(&m);
    let mut c = compile(&qm, 32).unwrap();
    for leafs in &mut c.leafs {
        for leaf in leafs.iter_mut() {
            for w in leaf.w3.iter_mut().chain(leaf.w1.iter_mut()) {
                *w = i16::MAX;
            }
        }
    }
    let plan = BlockPlan::new(&c.program, &c.leafs).unwrap();
    assert!(
        plan.narrow_licensed() < c.program.instructions.len(),
        "the forged two-group conv must lose its narrow license"
    );
    assert!(
        plan.narrow_licensed() > 0,
        "the in-bounds head stages keep theirs"
    );

    let img = SyntheticImage::new(ImageKind::Mixed, 7).rgb(32, 32);
    let input = quantize_input(&img, &c.program);
    let mut simd_pool = PlanePool::new();
    let simd_out = execute_with(&plan, &mut simd_pool, &input, Kernels::Simd)
        .unwrap()
        .clone();
    // Narrow executions track the license set exactly — never the
    // unproven instruction.
    assert_eq!(
        simd_pool.stats().narrow_instrs,
        plan.narrow_licensed() as u64
    );
    let mut ref_pool = PlanePool::new();
    let reference = execute_with(&plan, &mut ref_pool, &input, Kernels::Reference).unwrap();
    assert_eq!(&simd_out, reference);
}

/// The untouched uniform paper model is fully narrow-provable: every
/// instruction carries a license, a SIMD frame takes the narrow path on
/// each of them, and the stats are tagged with the dispatched level.
#[test]
fn paper_model_is_narrow_licensed_end_to_end() {
    let m = ErNetSpec::new(ErNetTask::Sr2, 3, 1, 1).build().unwrap();
    let qm = QuantizedModel::uniform(&m);
    let c = compile(&qm, 32).unwrap();
    let plan = BlockPlan::new(&c.program, &c.leafs).unwrap();
    assert_eq!(
        plan.narrow_licensed(),
        c.program.instructions.len(),
        "every instruction of the uniform paper model must prove narrow"
    );

    let img = SyntheticImage::new(ImageKind::Texture, 11).rgb(32, 32);
    let input = quantize_input(&img, &c.program);
    let mut pool = PlanePool::new();
    execute_with(&plan, &mut pool, &input, Kernels::Simd).unwrap();
    assert_eq!(
        pool.stats().narrow_instrs,
        plan.narrow_licensed() as u64,
        "one narrow execution per licensed instruction per frame"
    );
    assert_eq!(
        pool.stats().kernel_variant,
        Kernels::Simd.variant(simd::detect())
    );
    assert!(pool.stats().kernel_variant.name().starts_with("simd"));
}

/// Every SIMD rung this host can run produces `Packed`'s pixels on the
/// paper's eSR-4K (SR4 B17R3N1: CONV, ER, UPX2 and srcS epilogues) and
/// on DnERNet-B3R1N0. The rungs are pinned with
/// `BlockPlan::with_simd_level`, so an AVX-512 host also checks the AVX2,
/// SSE2 and scalar bodies. The covered levels, and whether byte lanes
/// ran, are written to stderr directly (not through the captured
/// `eprintln!`), so CI logs show whether a runner had the AVX-512 rung
/// at all.
#[test]
fn every_available_simd_level_matches_packed_on_paper_models() {
    use std::io::Write;
    let covered: Vec<simd::SimdLevel> = simd::SimdLevel::ALL
        .into_iter()
        .filter(|l| l.is_available())
        .collect();
    let names: Vec<&str> = covered.iter().map(|l| l.name()).collect();
    let _ = writeln!(
        std::io::stderr(),
        "kernel_parity: SIMD levels covered: {} (detected {})",
        names.join(", "),
        simd::detect()
    );
    let models = [
        (ErNetSpec::new(ErNetTask::Sr4, 17, 3, 1), 64),
        (ErNetSpec::new(ErNetTask::Dn, 3, 1, 0), 96),
    ];
    let mut byte_sweeps = 0;
    for (spec, xi) in models {
        let m = spec.build().unwrap();
        let qm = QuantizedModel::uniform(&m);
        let c = compile(&qm, xi).unwrap();
        let plan = BlockPlan::new(&c.program, &c.leafs).unwrap();
        let img = SyntheticImage::new(ImageKind::Mixed, 17).rgb(xi, xi);
        let input = quantize_input(&img, &c.program);
        let mut pool = PlanePool::new();
        let want = execute_with(&plan, &mut pool, &input, Kernels::Packed)
            .unwrap()
            .clone();
        for &level in &covered {
            let p = plan.clone().with_simd_level(level).expect("available");
            let mut pool = PlanePool::new();
            let out = execute_with(&p, &mut pool, &input, Kernels::Simd).unwrap();
            assert_eq!(out, &want, "{spec} level {level}");
            assert_eq!(
                pool.stats().narrow_instrs,
                c.program.instructions.len() as u64,
                "{spec} level {level}: every instruction narrow"
            );
            byte_sweeps += pool.stats().byte_lane_sweeps;
        }
        for level in simd::SimdLevel::ALL {
            assert_eq!(
                plan.clone().with_simd_level(level).is_some(),
                covered.contains(&level),
                "{level}: the setter refuses exactly the unavailable levels"
            );
        }
    }
    let bytes = if covered.contains(&simd::SimdLevel::Avx512) {
        assert!(byte_sweeps > 0, "the AVX-512 rung ran no byte-lane sweep");
        format!("ran on {byte_sweeps} sweeps")
    } else {
        "not covered: no AVX-512 VNNI".to_string()
    };
    let _ = writeln!(std::io::stderr(), "kernel_parity: byte lanes {bytes}");
}

/// `ExecStats::byte_lane_sweeps` counts the 3×3 sweeps that ran on byte
/// lanes: on the AVX-512 rung every one of an eSR-4K@128 block (all of
/// them at least 32 columns wide), none with the plan pinned to AVX2,
/// and none of a program whose source formats are 9 bits wide, which
/// still matches `Packed` bit for bit.
#[test]
fn byte_lane_sweeps_count_every_licensed_wide_3x3_sweep() {
    use simd::SimdLevel;
    let spec = ErNetSpec::new(ErNetTask::Sr4, 17, 3, 1);
    let c = compile(&QuantizedModel::uniform(&spec.build().unwrap()), 128).unwrap();
    let plan = BlockPlan::new(&c.program, &c.leafs).unwrap();
    let wide = c
        .program
        .instructions
        .iter()
        .zip(plan.extents().instrs())
        .filter(|(i, e)| i.opcode.has_conv3x3() && e.conv.1 >= simd::BYTE_LANES_MIN_WIDTH)
        .count();
    assert_eq!(
        wide,
        c.program.instructions.len(),
        "{spec}@128: every sweep is wide"
    );
    let input = block_input(&c.program, 5);
    for level in [SimdLevel::Avx512, SimdLevel::Avx2] {
        let Some(p) = plan.clone().with_simd_level(level) else {
            continue;
        };
        let mut pool = PlanePool::new();
        execute_with(&p, &mut pool, &input, Kernels::Simd).unwrap();
        let want = if level == SimdLevel::Avx512 { wide } else { 0 };
        assert_eq!(pool.stats().byte_lane_sweeps, want as u64, "{spec} {level}");
        assert_eq!(
            pool.stats().work().byte_lane_sweeps,
            0,
            "byte lanes are not work"
        );
    }

    let spec = ErNetSpec::new(ErNetTask::Dn, 3, 1, 0);
    let mut c = compile(&QuantizedModel::uniform(&spec.build().unwrap()), 96).unwrap();
    for ins in &mut c.program.instructions {
        ins.q.src = QFormat::with_bits(ins.q.src.is_signed(), ins.q.src.frac(), 9);
    }
    let plan = BlockPlan::new(&c.program, &c.leafs).unwrap();
    assert_eq!(plan.narrow_licensed(), c.program.instructions.len());
    let input = block_input(&c.program, 6);
    let want = execute_with(&plan, &mut PlanePool::new(), &input, Kernels::Packed)
        .unwrap()
        .clone();
    let mut pool = PlanePool::new();
    let out = execute_with(&plan, &mut pool, &input, Kernels::Simd).unwrap();
    assert_eq!(out, &want, "{spec} with 9-bit source formats");
    assert_eq!(
        pool.stats().byte_lane_sweeps,
        0,
        "{spec} with 9-bit source formats"
    );
}

/// The kernel selection survives every execution surface bit-identically:
/// for each `Kernels` choice, `Engine::run_image`, a two-worker
/// `AsyncSession` and a two-shard `Engine::run_image_sharded` all agree
/// with each other and across kernel choices, and the plumbing reports
/// the choice it was given.
#[test]
fn kernel_choice_is_honored_across_session_pipeline_and_shards() {
    let img = SyntheticImage::new(ImageKind::Edges, 31).rgb(80, 80);

    let mut baseline: Option<(ecnn_tensor::Tensor<f32>, u64)> = None;
    for k in [Kernels::Reference, Kernels::Packed, Kernels::Simd] {
        let engine = Engine::builder()
            .ernet(ErNetSpec::new(ErNetTask::Dn, 2, 1, 0))
            .block(40)
            .realtime(RealTimeSpec::HD30)
            .kernels(k)
            .build()
            .unwrap();
        assert_eq!(engine.kernels(), k);
        assert_eq!(engine.session().kernels(), k);

        let (out, stats) = engine.run_image(&img).unwrap();
        let expect_variant = k.variant(simd::detect());
        assert_eq!(stats.exec.kernel_variant, expect_variant, "{k:?} tag");
        match &baseline {
            None => baseline = Some((out.clone(), stats.exec.work().mac3)),
            Some((ref_out, mac3)) => {
                assert_eq!(&out, ref_out, "{k:?} run_image parity");
                assert_eq!(stats.exec.work().mac3, *mac3, "{k:?} mac parity");
            }
        }
        let ref_out = &baseline.as_ref().unwrap().0;

        // Pipelined path: the async workers build sessions off the same
        // engine and must inherit the choice.
        let mut async_session = engine.async_session(2);
        let t0 = async_session.submit(img.clone()).unwrap();
        let t1 = async_session.submit(img.clone()).unwrap();
        let frames = async_session.drain().unwrap();
        assert_eq!(frames.len(), 2);
        let _ = (t0, t1);
        for (frame, fstats) in &frames {
            assert_eq!(frame, ref_out, "{k:?} async parity");
            assert_eq!(fstats.exec.kernel_variant, expect_variant);
        }

        // Sharded path: each shard worker sessions off the same engine and
        // must inherit the choice.
        let (sout, sstats) = engine.run_image_sharded(&img, 2).unwrap();
        assert_eq!(&sout, ref_out, "{k:?} sharded parity");
        assert_eq!(sstats.exec.kernel_variant, expect_variant);
    }
}

/// A valid input block for `program`: a synthetic RGB block for
/// camera-facing models, pseudo-random in-format codes for feature-space
/// inputs (the style decoder's).
fn block_input(program: &Program, seed: u64) -> Tensor<i16> {
    if program.di_channels == 3 || program.input_unshuffle.is_some() {
        let img = SyntheticImage::new(image_kind(seed), seed).rgb(program.di_side, program.di_side);
        return quantize_input(&img, program);
    }
    let (lo, hi) = (program.di_q.min_code(), program.di_q.max_code());
    Tensor::from_fn(
        program.di_channels,
        program.di_side,
        program.di_side,
        |c, y, x| {
            let h = (c * 7919 + y * 104_729 + x * 31 + seed as usize) % 65_521;
            (lo + (h as i32).rem_euclid(hi - lo + 1)) as i16
        },
    )
}

/// Whether `level` has the register-blocked kernels, the only ones that
/// split their rows across lanes.
fn fans_out(level: simd::SimdLevel) -> bool {
    matches!(
        level,
        simd::SimdLevel::Avx512 | simd::SimdLevel::Avx2 | simd::SimdLevel::Sse2
    )
}

/// A block's codes and work counters do not depend on the lanes its
/// sweeps split their rows across: every one of the 14 paper models, one
/// block on the detected SIMD rung at 1–4 lanes, on the full extents
/// table and on a clipped edge table (eSR-4K's at `esr4k_edge`'s
/// 248×344 keep).
#[test]
fn lanes_are_bit_identical_on_the_paper_models() {
    let mut forked = false;
    for (name, qm, xi) in ecnn_bench::paper_models() {
        let c = compile(&qm, xi).unwrap();
        let plan = BlockPlan::new(&c.program, &c.leafs).unwrap();
        let input = block_input(&c.program, xi as u64);
        let d = c.program.do_side;
        // Elsewhere a corner keep, which also keeps the test's time down.
        let keep = if name.starts_with("SR4ERNet-B17R3N1 ") {
            (248, 344)
        } else {
            (d / 2, d / 3)
        };
        let clipped = plan.clipped(keep);
        for ext in std::iter::once(plan.extents()).chain(clipped.as_ref()) {
            let mut pool = PlanePool::new();
            let want = execute_at(&plan, ext, &mut pool, &input, Kernels::Simd)
                .unwrap()
                .clone();
            let work = pool.stats().work();
            for lanes in 2..=4 {
                let p = plan.clone().with_lanes(lanes);
                let mut pool = PlanePool::new();
                let out = execute_at(&p, ext, &mut pool, &input, Kernels::Simd).unwrap();
                let at = format!("{name}: {lanes} lanes, output {:?}", ext.out());
                assert_eq!(out, &want, "{at}");
                assert_eq!(pool.stats().work(), work, "{at}");
                forked |= pool.stats().lane_forks > 0;
            }
        }
    }
    assert!(
        forked || !fans_out(simd::detect()),
        "no paper block forked, so the lanes went untested"
    );
}

/// Sweeps over the fan-out floor split exactly: a 3×3 sweep with more
/// lanes than output rows runs one row per lane on each of its stores
/// (accumulators, codes, codes with srcS, pixel-shuffled codes), as does
/// the `ER` band finish into codes and into accumulators, and a 1×1
/// accumulation splits its pixels with a scalar tail per lane; each
/// stores what one lane stores.
#[test]
fn sweeps_with_more_lanes_than_rows_match_one_lane() {
    let level = simd::detect();
    if !fans_out(level) {
        return;
    }
    // 3 rows of 1400 columns: 39 M MACs per 32-channel 3x3 sweep.
    let (chh, cw, lanes) = (3, 1400, 8);
    assert!((LEAF_CH * LEAF_CH * 9 * chh * cw) as u64 >= simd::FAN_OUT_MIN_MACS);
    let leafs: Vec<LeafParams> = (0..3u64)
        .map(|seed| {
            let mut qm_leaf = LeafParams::zero();
            let mut state = seed + 1;
            for w in qm_leaf
                .w3
                .iter_mut()
                .chain(qm_leaf.w1.iter_mut())
                .chain(qm_leaf.b3.iter_mut())
                .chain(qm_leaf.b1.iter_mut())
            {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                *w = ((state >> 40) % 33) as i16 - 16;
            }
            qm_leaf
        })
        .collect();
    // Licensed for byte lanes too: the codes fit `u8` after +128 and the
    // weights fit `i8`, so a VNNI host splits the byte-lane sweeps.
    let mut p3 = PackedConv3::pack_leaf(&leafs[0], 7, 9);
    p3.license_bytes(128, LEAF_CH);
    let input = Tensor::from_fn(LEAF_CH, chh + 2, cw + 2, |c, y, x| {
        ((c * 131 + y * 71 + x * 7) % 255) as i16 - 127
    });
    let live = LiveChannels::full(1, 1);

    let acc = |lanes| {
        let mut acc = Tensor::<i32>::zeros(LEAF_CH, chh, cw);
        let lanes = &mut Lanes::new(lanes);
        let swept = simd::conv3_blocked_narrow(level, lanes, &input, &p3, live, &mut acc);
        (swept.map(|s| s.forked), acc)
    };
    let (one, want) = acc(1);
    assert_eq!(one, Some(false));
    assert_eq!(acc(lanes), (Some(true), want), "accumulator store");

    let ep = NarrowEpilogue::new(16, QFormat::signed(4), true, None).unwrap();
    let srcs_ep = NarrowEpilogue::new(16, QFormat::signed(4), false, Some(9)).unwrap();
    for (shuffle, srcs) in [(false, false), (false, true), (true, false)] {
        let f = if shuffle { 2 } else { 1 };
        let codes = |lanes| {
            let mut dst = Tensor::<i16>::zeros(LEAF_CH / (f * f), f * chh, f * cw);
            let (ep, srcs) = match srcs {
                true => (&srcs_ep, Some((&input, (1, 2)))),
                false => (&ep, None),
            };
            let lanes = &mut Lanes::new(lanes);
            let swept = simd::conv3_blocked_codes(
                level, lanes, &input, &p3, live, ep, shuffle, srcs, &mut dst,
            );
            (swept.map(|s| s.forked), dst)
        };
        let (one, want) = codes(1);
        assert_eq!(one, Some(false));
        assert_eq!(
            codes(lanes),
            (Some(true), want),
            "codes store, shuffle {shuffle}, srcS {srcs}"
        );
    }

    // The 1x1: 32813 pixels of 3 leaves, 8 ragged ranges.
    let p1 = PackedConv1::pack(&leafs, 5, 11);
    let (h1, w1) = (1, 32_813);
    let src = Tensor::from_fn(3 * LEAF_CH, h1, w1, |c, _, x| {
        ((c * 31 + x * 17) % 255) as i16 - 127
    });
    let conv1 = |lanes| {
        let mut acc = Tensor::from_fn(LEAF_CH, h1, w1, |c, _, x| (c * 1000 + x) as i32);
        let lanes = &mut Lanes::new(lanes);
        let forked = simd::conv1_blocked_narrow(level, lanes, &p1, 0..3, &src, &mut acc);
        (forked, acc)
    };
    let (one, want) = conv1(1);
    assert_eq!(one, Some(false));
    assert_eq!(conv1(lanes), (Some(true), want), "1x1");

    let conv3: Vec<PackedConv3> = leafs
        .iter()
        .map(|l| {
            let mut p = PackedConv3::pack_leaf(l, 7, 9);
            p.license_bytes(128, LEAF_CH);
            p
        })
        .collect();
    let mid_ep = NarrowEpilogue::new(9, QFormat::signed(4), true, None).unwrap();
    let last_ep = NarrowEpilogue::new(11, QFormat::signed(4), false, Some(4)).unwrap();
    let er = |lanes| {
        let mut dst = Tensor::<i16>::zeros(LEAF_CH, chh, cw);
        let finish = ErFinish::Codes {
            ep: &last_ep,
            srcs: Some((&input, (1, 1))),
            dst: &mut dst,
        };
        let lanes = &mut Lanes::new(lanes);
        let swept = simd::er_blocked_narrow(level, lanes, &input, &conv3, &mid_ep, &p1, finish);
        let mut acc = Tensor::<i32>::zeros(LEAF_CH, chh, cw);
        let finish = ErFinish::Acc(&mut acc);
        let swept_acc = simd::er_blocked_narrow(level, lanes, &input, &conv3, &mid_ep, &p1, finish);
        assert_eq!(swept, swept_acc, "both finishes sweep alike");
        (swept.map(|s| s.forked), dst, acc)
    };
    let (one, dst, acc) = er(1);
    assert_eq!(one, Some(false));
    assert_eq!(er(lanes), (Some(true), dst, acc), "ER bands");
}

/// `Engine::session` runs on the host's cores and `session_at` on one
/// lane, and their frames agree: the 86×62 eSR-4K frame (one clipped
/// edge block) and a 2×2-block DnERNet frame.
#[test]
fn caller_thread_session_matches_the_one_lane_rung() {
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cases = [
        (ErNetSpec::new(ErNetTask::Sr4, 17, 3, 1), (62, 86)),
        (ErNetSpec::new(ErNetTask::Dn, 3, 1, 0), (232, 232)),
    ];
    for (spec, (h, w)) in cases {
        let engine = Engine::builder()
            .ernet(spec)
            .block(128)
            .realtime(RealTimeSpec::UHD30)
            .build()
            .unwrap();
        let img = SyntheticImage::new(ImageKind::Mixed, 5).rgb(h, w);
        let mut session = engine.session();
        assert_eq!(session.plan().lanes(), host, "{spec}");
        let out = session.process(&img).unwrap().clone();
        let rung = DegradeRung {
            kernels: Kernels::Simd,
            coalesce: engine.coalesced(),
        };
        let mut worker = engine.session_at(rung);
        assert_eq!(worker.plan().lanes(), 1, "{spec}");
        assert_eq!(worker.process(&img).unwrap(), &out, "{spec}");
        assert_eq!(
            worker.last_frame_stats().exec.work(),
            session.last_frame_stats().exec.work(),
            "{spec}"
        );
    }
}

/// `ExecStats::lane_forks` counts fan-outs, and the work floor keeps
/// small sweeps inline: a DnERNet-B2R1N0 block-40 session never forks,
/// nor does its block at four lanes, while one eSR-4K block at two lanes
/// forks.
#[test]
fn lane_forks_count_only_sweeps_over_the_floor() {
    let spec = ErNetSpec::new(ErNetTask::Dn, 2, 1, 0);
    let engine = Engine::builder()
        .ernet(spec)
        .block(40)
        .realtime(RealTimeSpec::HD30)
        .build()
        .unwrap();
    let mut session = engine.session();
    session
        .process(&SyntheticImage::new(ImageKind::Edges, 3).rgb(80, 80))
        .unwrap();
    let stats = session.last_frame_stats();
    assert!(stats.blocks > 1);
    assert_eq!(stats.exec.lane_forks, 0, "{spec} block 40 session");

    for (spec, xi, lanes, forks) in [
        (spec, 40, 4, false),
        (
            ErNetSpec::new(ErNetTask::Sr4, 17, 3, 1),
            128,
            2,
            fans_out(simd::detect()),
        ),
    ] {
        let qm = QuantizedModel::uniform(&spec.build().unwrap());
        let c = compile(&qm, xi).unwrap();
        let plan = BlockPlan::new(&c.program, &c.leafs)
            .unwrap()
            .with_lanes(lanes);
        let mut pool = PlanePool::new();
        let input = block_input(&c.program, 1);
        execute_with(&plan, &mut pool, &input, Kernels::Simd).unwrap();
        let n = pool.stats().lane_forks;
        assert_eq!(
            n > 0,
            forks,
            "{spec} block {xi} at {lanes} lanes forked {n} times"
        );
        assert_eq!(pool.stats().work().lane_forks, 0, "forks are not work");
    }
}
