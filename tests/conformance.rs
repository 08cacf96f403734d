//! Conformance: the paper's central equivalence (Sec. 3, Fig. 3). Block-based
//! inference with recomputed overlaps must equal the fixed-point reference
//! run on the zero-extended whole frame, bit for bit, on every path that
//! runs a frame: the serial session, one-shot sharding and the pipelined
//! session. For SR×2, whose receptive border is a half-pixel, every block
//! size must stitch the frame a single block computes.

use ecnn_core::Engine;
use ecnn_model::ernet::{ErNetSpec, ErNetTask};
use ecnn_nn::quant::fixed_forward;
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
