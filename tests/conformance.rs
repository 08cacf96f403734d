//! Conformance: the paper's central equivalence (Sec. 3, Fig. 3). Block-based
//! inference with recomputed overlaps must equal the fixed-point reference
//! run on the zero-extended whole frame, bit for bit, on every path that
//! runs a frame: the serial session, one-shot sharding and the pipelined
//! session.

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
        "{what}: {differing} samples differ from the whole-frame reference"
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
