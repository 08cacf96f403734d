//! Reference and case-study models.
//!
//! * Comparison networks from the literature used throughout the paper's
//!   evaluation: [`vdsr`], [`srresnet`], [`edsr_baseline`].
//! * The FBISA-compatible computer-vision case studies of Section 7.3:
//!   [`style_transfer`] (Fig. 22a, split into two sub-models) and
//!   [`recognition`] (Fig. 22b, a 40-layer residual classifier that avoids
//!   512-channel ResBlocks).

use crate::layer::{Activation, Layer, Op, PoolKind, SkipRef};
use crate::model::{InferenceKind, Model};

fn conv3(in_c: usize, out_c: usize, act: Activation) -> Layer {
    Layer::new(Op::Conv3x3 { in_c, out_c, act })
}

/// Appends a two-convolution residual block at width `c`; returns the index
/// of the block's output layer.
fn push_resblock(layers: &mut Vec<Layer>, c: usize) -> usize {
    let entry = layers.len(); // output of layers[entry-1] is the block input
    layers.push(conv3(c, c, Activation::Relu));
    layers.push(Layer::with_skip(
        Op::Conv3x3 {
            in_c: c,
            out_c: c,
            act: Activation::None,
        },
        SkipRef::Layer(entry - 1),
    ));
    layers.len() - 1
}

/// VDSR (Kim et al., CVPR 2016): 20 CONV3×3 layers, 64 channels, residual
/// learning on the luma channel. Algorithmic complexity 1.33 MOP/pixel —
/// the paper's running example for frame-based bandwidth (Eq. 1) and the
/// Diffy comparison.
pub fn vdsr() -> Model {
    let mut layers = vec![conv3(1, 64, Activation::Relu)];
    for _ in 0..18 {
        layers.push(conv3(64, 64, Activation::Relu));
    }
    layers.push(Layer::with_skip(
        Op::Conv3x3 {
            in_c: 64,
            out_c: 1,
            act: Activation::None,
        },
        SkipRef::Input,
    ));
    Model::new("VDSR", 1, 1, layers).expect("VDSR is well-formed")
}

/// SRResNet (Ledig et al., CVPR 2017) in the EDSR re-implementation the
/// paper compares against: 16 residual blocks at 64 channels, two ×2
/// sub-pixel upsamplers — 37 CONV3×3 stages (used in Fig. 5b).
pub fn srresnet() -> Model {
    let mut layers = vec![conv3(3, 64, Activation::Relu)];
    let head_idx = 0;
    for _ in 0..16 {
        push_resblock(&mut layers, 64);
    }
    layers.push(Layer::with_skip(
        Op::Conv3x3 {
            in_c: 64,
            out_c: 64,
            act: Activation::None,
        },
        SkipRef::Layer(head_idx),
    ));
    for _ in 0..2 {
        layers.push(conv3(64, 256, Activation::None));
        layers.push(Layer::new(Op::PixelShuffle { factor: 2 }));
    }
    layers.push(conv3(64, 3, Activation::None));
    Model::new("SRResNet", 3, 3, layers).expect("SRResNet is well-formed")
}

/// EDSR-baseline (Lim et al., 2017) at the given scale (2 or 4): 16 residual
/// blocks, 64 channels, no batch norm. The Fig. 2(b) depth-wise ablation
/// replaces these blocks' convolutions (see `ecnn-nn`).
///
/// # Panics
///
/// Panics if `scale` is not 2 or 4.
pub fn edsr_baseline(scale: usize) -> Model {
    assert!(
        scale == 2 || scale == 4,
        "EDSR-baseline scale must be 2 or 4"
    );
    let mut layers = vec![conv3(3, 64, Activation::None)];
    let head_idx = 0;
    for _ in 0..16 {
        push_resblock(&mut layers, 64);
    }
    layers.push(Layer::with_skip(
        Op::Conv3x3 {
            in_c: 64,
            out_c: 64,
            act: Activation::None,
        },
        SkipRef::Layer(head_idx),
    ));
    let ups = if scale == 4 { 2 } else { 1 };
    for _ in 0..ups {
        layers.push(conv3(64, 256, Activation::None));
        layers.push(Layer::new(Op::PixelShuffle { factor: 2 }));
    }
    layers.push(conv3(64, 3, Activation::None));
    Model::new(format!("EDSR-baseline-x{scale}"), 3, 3, layers)
        .expect("EDSR-baseline is well-formed")
}

/// The style-transfer network of Fig. 22(a), split into two sub-models to
/// bound the NCR (the paper's own mitigation for the enlarged receptive
/// field): an encoder with three residual blocks at quarter resolution, and
/// a decoder with two more blocks plus two sub-pixel upsamplers.
///
/// Returns `(sub_model_1, sub_model_2)`; sub-model 1 output (128ch at 1/4
/// resolution) streams through DRAM into sub-model 2.
pub fn style_transfer() -> (Model, Model) {
    // Sub-model 1: full-res head, two conv+DNX2 downsamplers, 3 ResBlocks.
    let mut l1 = vec![conv3(3, 32, Activation::Relu)];
    l1.push(conv3(32, 64, Activation::Relu));
    l1.push(Layer::new(Op::Downsample {
        kind: PoolKind::Stride,
        factor: 2,
    }));
    l1.push(conv3(64, 128, Activation::Relu));
    l1.push(Layer::new(Op::Downsample {
        kind: PoolKind::Stride,
        factor: 2,
    }));
    for _ in 0..3 {
        push_resblock(&mut l1, 128);
    }
    let m1 = Model::new("StyleTransfer-enc", 3, 128, l1).expect("well-formed");

    // Sub-model 2: 2 ResBlocks, two upsamplers, RGB tail.
    let mut l2 = Vec::new();
    l2.push(conv3(128, 128, Activation::Relu));
    let first = l2.len() - 1;
    l2.push(Layer::with_skip(
        Op::Conv3x3 {
            in_c: 128,
            out_c: 128,
            act: Activation::None,
        },
        SkipRef::Layer(first),
    ));
    push_resblock(&mut l2, 128);
    l2.push(conv3(128, 256, Activation::None));
    l2.push(Layer::new(Op::PixelShuffle { factor: 2 }));
    l2.push(conv3(64, 128, Activation::None));
    l2.push(Layer::new(Op::PixelShuffle { factor: 2 }));
    l2.push(conv3(32, 3, Activation::None));
    let m2 = Model::new("StyleTransfer-dec", 128, 3, l2).expect("well-formed");
    (m1, m2)
}

/// The 40-layer object-recognition network of Fig. 22(b): a residual
/// classifier that avoids 512-channel ResBlocks and "puts more computation
/// in thinner layers", totalling ≈5M parameters like the paper's model
/// (69.7% top-1 on ImageNet in the original; evaluated on synthetic data
/// here).
///
/// Uses zero-padded inference: the whole 224×224 frame is one block.
pub fn recognition(num_classes: usize) -> Model {
    let mut layers = vec![conv3(3, 32, Activation::Relu)];
    // Stage 0: two thin full-res convolutions.
    layers.push(conv3(32, 32, Activation::Relu));
    layers.push(conv3(32, 32, Activation::Relu));
    // Stage 1: 224 -> 112, nine 64ch ResBlocks.
    layers.push(conv3(32, 64, Activation::Relu));
    layers.push(Layer::new(Op::Downsample {
        kind: PoolKind::Stride,
        factor: 2,
    }));
    for _ in 0..9 {
        push_resblock(&mut layers, 64);
    }
    // Stage 2: 112 -> 56, six 128ch ResBlocks.
    layers.push(conv3(64, 128, Activation::Relu));
    layers.push(Layer::new(Op::Downsample {
        kind: PoolKind::Stride,
        factor: 2,
    }));
    for _ in 0..6 {
        push_resblock(&mut layers, 128);
    }
    // Stage 3: 56 -> 28, two 256ch ResBlocks.
    layers.push(conv3(128, 256, Activation::Relu));
    layers.push(Layer::new(Op::Downsample {
        kind: PoolKind::Stride,
        factor: 2,
    }));
    for _ in 0..2 {
        push_resblock(&mut layers, 256);
    }
    // Head: 28 -> 14 -> global average via max-style pooling chain, then a
    // 1x1 classifier (the FC layer as a 1x1 convolution).
    layers.push(Layer::new(Op::Downsample {
        kind: PoolKind::Max,
        factor: 2,
    }));
    layers.push(Layer::new(Op::Downsample {
        kind: PoolKind::Max,
        factor: 14,
    }));
    layers.push(Layer::new(Op::Conv1x1 {
        in_c: 256,
        out_c: num_classes,
        act: Activation::None,
    }));
    Model::new("Recognition40", 3, num_classes, layers)
        .expect("recognition net is well-formed")
        .with_inference(InferenceKind::ZeroPadded)
}

/// A scaled-down recognition network for 32×32 inputs — used by the test
/// suite and the `app_recognition` bench to exercise the classification
/// training path at CPU-friendly cost.
pub fn recognition_tiny(num_classes: usize) -> Model {
    let mut layers = vec![conv3(3, 32, Activation::Relu)];
    push_resblock(&mut layers, 32);
    layers.push(conv3(32, 64, Activation::Relu));
    layers.push(Layer::new(Op::Downsample {
        kind: PoolKind::Stride,
        factor: 2,
    }));
    push_resblock(&mut layers, 64);
    layers.push(Layer::new(Op::Downsample {
        kind: PoolKind::Max,
        factor: 2,
    }));
    layers.push(Layer::new(Op::Downsample {
        kind: PoolKind::Max,
        factor: 8,
    }));
    layers.push(Layer::new(Op::Conv1x1 {
        in_c: 64,
        out_c: num_classes,
        act: Activation::None,
    }));
    Model::new("RecognitionTiny", 3, num_classes, layers)
        .expect("tiny recognition net is well-formed")
        .with_inference(InferenceKind::ZeroPadded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complexity::{ChannelMode, Complexity};

    #[test]
    fn vdsr_depth_and_params() {
        let m = vdsr();
        assert_eq!(m.depth_conv3x3(), 20);
        // Paper Section 5.2: 651K parameters.
        let p = m.param_count();
        assert!((p as i64 - 651_000).abs() < 20_000, "VDSR params {p}");
    }

    #[test]
    fn srresnet_depth_and_params() {
        let m = srresnet();
        assert_eq!(m.depth_conv3x3(), 37);
        // Paper Section 5.2: 1479K parameters.
        let p = m.param_count();
        assert!(
            (p as i64 - 1_479_000).abs() < 120_000,
            "SRResNet params {p}"
        );
        assert_eq!(m.output_scale(), 4.0);
    }

    #[test]
    fn srresnet_outperforms_vdsr_in_capacity() {
        let v = Complexity::of(&vdsr(), ChannelMode::Algorithmic);
        let s = Complexity::of(&srresnet(), ChannelMode::Algorithmic);
        // At the LR grid SRResNet is much heavier per LR pixel, but per HR
        // output pixel the x4 upsampling amortizes it below VDSR.
        assert!(s.kop_per_pixel < v.kop_per_pixel);
        assert!(s.params > v.params);
    }

    #[test]
    fn edsr_baseline_scales() {
        assert_eq!(edsr_baseline(2).output_scale(), 2.0);
        assert_eq!(edsr_baseline(4).output_scale(), 4.0);
    }

    #[test]
    #[should_panic]
    fn edsr_rejects_odd_scale() {
        let _ = edsr_baseline(3);
    }

    #[test]
    fn style_transfer_round_trips_resolution() {
        let (enc, dec) = style_transfer();
        assert_eq!(enc.output_scale(), 0.25);
        assert_eq!(dec.output_scale(), 4.0);
        assert_eq!(enc.out_channels(), dec.in_channels());
    }

    #[test]
    fn recognition_is_40_conv_layers_and_5m_params() {
        let m = recognition(1000);
        assert_eq!(m.depth_conv3x3(), 40, "paper: 40-layer residual network");
        let p = m.param_count();
        assert!(
            (4_800_000..6_000_000).contains(&p),
            "paper: ~5M parameters, got {p}"
        );
        assert_eq!(m.inference(), InferenceKind::ZeroPadded);
    }

    #[test]
    fn recognition_avoids_512_channels() {
        let m = recognition(1000);
        for l in m.layers() {
            if let Op::Conv3x3 { in_c, out_c, .. } = l.op {
                assert!(in_c <= 256 && out_c <= 256);
            }
        }
    }

    #[test]
    fn recognition_spatial_walk_reaches_1x1() {
        let m = recognition(10);
        // 224 / 2 / 2 / 2 / 2 / 14 = 1 (zero-padded: convs keep size).
        let mut side = 224usize;
        for l in m.layers() {
            if let Op::Downsample { factor, .. } = l.op {
                assert_eq!(side % factor, 0);
                side /= factor;
            }
        }
        assert_eq!(side, 1);
    }

    #[test]
    fn recognition_tiny_reaches_1x1_logits() {
        let m = recognition_tiny(4);
        m.validate().unwrap();
        // 32 /2 /2 /8 = 1 under zero-padded convs.
        let mut side = 32usize;
        for l in m.layers() {
            if let Op::Downsample { factor, .. } = l.op {
                side /= factor;
            }
        }
        assert_eq!(side, 1);
        assert_eq!(*m.channel_walk().last().unwrap(), 4);
    }

    #[test]
    fn all_zoo_models_validate() {
        vdsr().validate().unwrap();
        srresnet().validate().unwrap();
        edsr_baseline(2).validate().unwrap();
        edsr_baseline(4).validate().unwrap();
        let (a, b) = style_transfer();
        a.validate().unwrap();
        b.validate().unwrap();
        recognition(1000).validate().unwrap();
    }
}
