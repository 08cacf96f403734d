//! Conformance: the paper's central equivalence (Sec. 3, Fig. 3). Block-based
//! inference with recomputed overlaps must equal the fixed-point reference
//! run on the zero-extended whole frame, bit for bit, on every path that
//! runs a frame: the serial session, one-shot sharding and the pipelined
//! session. For SR×2, whose receptive border is a half-pixel, every block
//! size must stitch the frame a single block computes.
//!
//! Edge blocks run a clipped extents table (`BlockPlan::clipped`): the
//! top-left of a clipped execution must equal the full block's output on
//! every truncated-pyramid family and kernel rung, and a frame whose
//! edge blocks are clipped must equal the same frame stitched from full
//! blocks.

use ecnn_core::Engine;
use ecnn_isa::compile::compile;
use ecnn_isa::params::QuantizedModel;
use ecnn_model::ernet::{ErNetSpec, ErNetTask};
use ecnn_model::{zoo, Model};
use ecnn_nn::quant::fixed_forward;
use ecnn_sim::exec::{execute_at, execute_with, quantize_input, BlockPlan, Kernels, PlanePool};
use ecnn_sim::SimdLevel;
use ecnn_tensor::{ImageKind, SyntheticImage, Tensor};

/// The whole-frame reference: zero-extend `img` by the receptive border,
/// then run the fixed-point forward pass with valid convolutions.
fn whole_frame_reference(eng: &Engine, img: &Tensor<f32>) -> Tensor<f32> {
    let p = &eng.compiled().program;
    let border = (p.di_side - p.do_side) / 2;
    let qm = eng.quantized_model();
    let ext = img.crop_padded(
        -(border as isize),
        -(border as isize),
        img.height() + 2 * border,
        img.width() + 2 * border,
    );
    let codes = ext.map(|v| qm.input_q.quantize(v));
    let out_q = qm.layers.iter().rev().flatten().next().unwrap().out_q;
    fixed_forward(qm, &codes).map(|c| out_q.dequantize(c).clamp(0.0, 1.0))
}

fn assert_bit_exact(out: &Tensor<f32>, reference: &Tensor<f32>, what: &str) {
    assert_eq!(out.shape(), reference.shape(), "{what}: shape");
    let differing = out
        .as_slice()
        .iter()
        .zip(reference.as_slice())
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    assert_eq!(
        differing, 0,
        "{what}: {differing} samples differ from the reference"
    );
}

#[test]
fn stitched_image_matches_whole_frame_reference_bit_exactly() {
    for (spec, block, (h, w)) in [
        (ErNetSpec::new(ErNetTask::Dn, 2, 1, 0), 40, (56, 72)),
        (ErNetSpec::new(ErNetTask::Dn12, 2, 1, 0), 48, (80, 96)),
    ] {
        let eng = Engine::builder().ernet(spec).block(block).build().unwrap();
        let img = SyntheticImage::new(ImageKind::Mixed, 31).rgb(h, w);
        let reference = whole_frame_reference(&eng, &img);
        assert_eq!(reference.shape(), (3, h, w), "{spec}: reference shape");

        let mut session = eng.session();
        let out = session.process(&img).unwrap().clone();
        assert!(
            session.last_frame_stats().blocks > 1,
            "{spec}: must exercise stitching"
        );
        assert_bit_exact(&out, &reference, &format!("{spec} Session::process"));

        for workers in [2, 3] {
            let (out, _) = eng.run_image_sharded(&img, workers).unwrap();
            assert_bit_exact(
                &out,
                &reference,
                &format!("{spec} run_image_sharded x{workers}"),
            );
        }

        let mut pipelined = eng.async_session(2);
        let ticket = pipelined.submit(img.clone()).unwrap();
        let (out, _) = pipelined.wait(ticket).unwrap();
        assert_bit_exact(&out, &reference, &format!("{spec} AsyncSession x2"));
    }
}

#[test]
fn sr2_stitching_is_block_size_invariant() {
    // SR2ERNet-B2R1N0's receptive border is 5.5 input pixels: every
    // block's crop origin must floor it alike, or neighbouring blocks
    // read inputs one pixel apart.
    let spec = ErNetSpec::new(ErNetTask::Sr2, 2, 1, 0);
    let img = SyntheticImage::new(ImageKind::Mixed, 31).rgb(48, 64);
    let whole = Engine::builder().ernet(spec).block(128).build().unwrap();
    let mut session = whole.session();
    let reference = session.process(&img).unwrap().clone();
    assert_eq!(session.last_frame_stats().blocks, 1, "one block at 128");
    assert_eq!(reference.shape(), (3, 96, 128));

    for block in [41, 44, 57] {
        let eng = Engine::builder().ernet(spec).block(block).build().unwrap();
        let mut session = eng.session();
        let out = session.process(&img).unwrap().clone();
        assert!(
            session.last_frame_stats().blocks > 1,
            "block {block}: must exercise stitching"
        );
        assert_bit_exact(&out, &reference, &format!("block {block} Session::process"));

        let (out, _) = eng.run_image_sharded(&img, 2).unwrap();
        assert_bit_exact(
            &out,
            &reference,
            &format!("block {block} run_image_sharded x2"),
        );

        let mut pipelined = eng.async_session(2);
        let ticket = pipelined.submit(img.clone()).unwrap();
        let (out, _) = pipelined.wait(ticket).unwrap();
        assert_bit_exact(&out, &reference, &format!("block {block} AsyncSession x2"));
    }
}

/// The kept top-left `(rows, cols)` of a block with output side `side`,
/// one per clip shape: right edge, bottom edge, corner, a single pixel,
/// and the whole block.
fn keeps(side: usize) -> [(usize, usize); 5] {
    [
        (side, side / 2 + 1),
        (side / 3 + 1, side),
        ((2 * side / 3).max(1), (side / 2).max(1)),
        (1, 1),
        (side, side),
    ]
}

/// A deterministic input block for `qm` compiled at `xi`: a synthetic RGB
/// block for camera-facing models, a pseudo-random feature block otherwise.
fn block_input(
    qm: &QuantizedModel,
    xi: usize,
) -> (ecnn_isa::compile::CompiledProgram, Tensor<i16>) {
    let c = compile(qm, xi).unwrap();
    let p = &c.program;
    let input = if p.di_channels == 3 {
        quantize_input(&SyntheticImage::new(ImageKind::Mixed, 5).rgb(xi, xi), p)
    } else {
        let mut state = 0x9e37_79b9_u64;
        Tensor::from_fn(p.di_channels, xi, xi, |_, _, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            p.di_q
                .quantize(((state >> 40) & 0xff_ffff) as f32 / (1 << 24) as f32)
        })
    };
    (c, input)
}

/// Runs `plan` on `input` with `kernels` at every clip shape and checks
/// the clipped output against the top-left of the full one, and the work
/// counters against the full block's.
fn assert_clipped_blocks_match(
    name: &str,
    plan: &BlockPlan<'_>,
    input: &Tensor<i16>,
    kernels: Kernels,
) {
    let p = plan.program();
    let mut pool = PlanePool::new();
    let full = execute_with(plan, &mut pool, input, kernels)
        .unwrap()
        .clone();
    let full_work = pool.stats().work();
    for keep in keeps(p.do_side) {
        let what = format!("{name} {kernels:?} keep {keep:?}");
        let Some(ext) = plan.clipped(keep) else {
            assert_eq!(keep, (p.do_side, p.do_side), "{what}: no clipped table");
            continue;
        };
        let mark = pool.stats();
        let out = execute_at(plan, &ext, &mut pool, input, kernels).unwrap();
        assert_eq!(
            out.shape(),
            (p.do_channels, ext.out().0, ext.out().1),
            "{what}"
        );
        assert!(
            ext.out().0 >= keep.0 && ext.out().1 >= keep.1,
            "{what}: covers the keep"
        );
        assert!(
            ext.out().0 < p.do_side || ext.out().1 < p.do_side,
            "{what}: clipped table computes less"
        );
        for c in 0..p.do_channels {
            for y in 0..keep.0 {
                assert_eq!(
                    &out.row(c, y)[..keep.1],
                    &full.row(c, y)[..keep.1],
                    "{what}: channel {c} row {y}"
                );
            }
        }
        assert_eq!(
            pool.stats().delta_since(&mark).work(),
            full_work,
            "{what}: work"
        );
        assert!(
            plan.skipped_macs(&ext) > plan.dead_mac3(),
            "{what}: skips area"
        );
    }
}

/// Block level: a clipped execution equals the full block cropped to the
/// kept region, on every truncated-pyramid family (SR4, SR2, DN, DN12 and
/// StyleTransfer's DNX2 encoder and UPX2 decoder), on the `Simd` rung at
/// every SIMD level this CPU runs and in the keyed plane layout, and on
/// `Packed` and `Reference` for the B2-sized models.
#[test]
fn clipped_blocks_equal_the_full_block_cropped() {
    let (enc, dec) = zoo::style_transfer();
    let mut models: Vec<(String, Model, usize, bool)> = [
        (ErNetTask::Sr4, 64),
        (ErNetTask::Sr2, 48),
        (ErNetTask::Dn, 40),
        (ErNetTask::Dn12, 48),
    ]
    .into_iter()
    .map(|(task, xi)| {
        let spec = ErNetSpec::new(task, 2, 1, 0);
        (spec.to_string(), spec.build().unwrap(), xi, true)
    })
    .collect();
    models.push(("style-encoder".into(), enc, 96, false));
    models.push(("style-decoder".into(), dec, 24, false));
    for (name, model, xi, all_rungs) in models {
        let qm = QuantizedModel::uniform(&model);
        let (c, input) = block_input(&qm, xi);
        let plan = BlockPlan::new(&c.program, &c.leafs).unwrap();
        for level in [
            SimdLevel::Avx512,
            SimdLevel::Avx2,
            SimdLevel::Sse2,
            SimdLevel::Neon,
            SimdLevel::Scalar,
        ] {
            if let Some(p) = plan.clone().with_simd_level(level) {
                assert_clipped_blocks_match(&format!("{name} {level}"), &p, &input, Kernels::Simd);
            }
        }
        // The keyed layout's in-place srcS chains reshape one plane.
        let mut keyed = plan.clone();
        keyed.force_keyed();
        assert_clipped_blocks_match(&format!("{name} keyed"), &keyed, &input, Kernels::Simd);
        if all_rungs {
            for kernels in [Kernels::Packed, Kernels::Reference] {
                assert_clipped_blocks_match(&name, &plan, &input, kernels);
            }
        }
    }
}

/// Zero-padded programs never get a clipped table: their 3×3s would
/// treat the clip line as padding.
#[test]
fn zero_padded_programs_keep_full_extents() {
    let dn = ErNetSpec::new(ErNetTask::Dn, 2, 1, 0).build().unwrap();
    for model in [
        zoo::recognition_tiny(10),
        dn.with_inference(ecnn_model::model::InferenceKind::ZeroPadded),
    ] {
        let qm = QuantizedModel::uniform(&model);
        let c = compile(&qm, 32).unwrap();
        let plan = BlockPlan::new(&c.program, &c.leafs).unwrap();
        let side = c.program.do_side;
        for keep in keeps(side).into_iter().chain([(1, side), (side, 1)]) {
            assert!(
                plan.clipped(keep).is_none(),
                "{}: keep {keep:?}",
                model.name()
            );
        }
    }
}

/// Frame level: a frame whose grid ends in clipped right-edge,
/// bottom-edge and corner blocks equals the same frame stitched from
/// full blocks, on the serial session, one-shot sharding and the
/// pipelined session. The full-block stitch runs the frame zero-extended
/// to a whole number of blocks (what a clipped block leaves out is
/// exactly that extension's output) and crops it back.
#[test]
fn clipped_edge_frames_equal_full_block_stitching() {
    for (task, block) in [
        (ErNetTask::Dn, 40),
        (ErNetTask::Dn12, 48),
        (ErNetTask::Sr2, 48),
        (ErNetTask::Sr4, 64),
    ] {
        let spec = ErNetSpec::new(task, 2, 1, 0);
        let eng = Engine::builder().ernet(spec).block(block).build().unwrap();
        let xo = eng.compiled().program.do_side;
        let (num, den) = eng.model().output_scale_rational();
        let (h, w) = (3 * xo / 2 * den / num, 5 * xo / 2 * den / num);
        let img = SyntheticImage::new(ImageKind::Mixed, 17).rgb(h, w);
        let (out_h, out_w) = eng.out_dims(&img).unwrap();
        assert!(
            out_h % xo != 0 && out_w % xo != 0,
            "{spec}: the grid must end in clipped blocks"
        );
        // The smallest whole-block output side at least `out` whose input
        // side is integral.
        let whole = |out: usize| {
            let mut m = out.div_ceil(xo);
            while (m * xo * den) % num != 0 {
                m += 1;
            }
            m * xo * den / num
        };
        let extended = img.crop_padded(0, 0, whole(out_h), whole(out_w));
        let mut session = eng.session();
        let stitched = session.process(&extended).unwrap();
        assert_eq!(stitched.height() % xo, 0, "{spec}: whole blocks");
        assert_eq!(stitched.width() % xo, 0, "{spec}: whole blocks");
        let reference = stitched.crop_padded(0, 0, out_h, out_w);

        let out = session.process(&img).unwrap().clone();
        assert_bit_exact(&out, &reference, &format!("{spec} Session::process"));
        let (out, _) = eng.run_image_sharded(&img, 2).unwrap();
        assert_bit_exact(&out, &reference, &format!("{spec} run_image_sharded x2"));
        let mut pipelined = eng.async_session(2);
        let ticket = pipelined.submit(img).unwrap();
        let (out, _) = pipelined.wait(ticket).unwrap();
        assert_bit_exact(&out, &reference, &format!("{spec} AsyncSession x2"));
    }
}
