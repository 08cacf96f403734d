//! Synthetic training/validation data (the offline stand-in for
//! DIV2K / Waterloo Exploration / Set5 / CBSD68).

use ecnn_tensor::image::{add_gaussian_noise, downsample_box};
use ecnn_tensor::{ImageKind, SyntheticImage, Tensor};
use rand::prelude::*;
use rand::rngs::StdRng;

/// The restoration task a dataset is built for.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TaskKind {
    /// Gaussian denoising at the given σ (paper: 25/255).
    Denoise {
        /// Noise standard deviation on `[0,1]` images.
        sigma: f32,
    },
    /// Single-image super-resolution at an integer scale (2 or 4).
    Sr {
        /// Upscaling factor.
        scale: usize,
    },
}

impl TaskKind {
    /// The paper's σ=25 denoising setting.
    pub fn denoise25() -> Self {
        TaskKind::Denoise {
            sigma: 25.0 / 255.0,
        }
    }
}

/// One training pair: degraded input and clean target.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Model input (LR or noisy), RGB in `[0,1]`.
    pub input: Tensor<f32>,
    /// Ground truth at output resolution.
    pub target: Tensor<f32>,
}

/// Builds `n` samples with `size × size` targets. Content cycles through
/// all [`ImageKind`] families for diversity; fully deterministic in `seed`.
pub fn make_dataset(task: TaskKind, n: usize, size: usize, seed: u64) -> Vec<Sample> {
    let kinds = [
        ImageKind::Mixed,
        ImageKind::Texture,
        ImageKind::Smooth,
        ImageKind::Edges,
    ];
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDA7A);
    (0..n)
        .map(|i| {
            let kind = kinds[i % kinds.len()];
            let target =
                SyntheticImage::new(kind, seed.wrapping_add(i as u64 * 101)).rgb(size, size);
            let input = match task {
                TaskKind::Denoise { sigma } => add_gaussian_noise(&target, sigma, &mut rng),
                TaskKind::Sr { scale } => downsample_box(&target, scale),
            };
            Sample { input, target }
        })
        .collect()
}

/// A labeled classification sample for the recognition case study: the
/// class is the texture family index, the label a one-hot `C×1×1` tensor.
pub fn make_classification_dataset(
    n: usize,
    size: usize,
    classes: usize,
    seed: u64,
) -> Vec<(Tensor<f32>, usize)> {
    let kinds = [
        ImageKind::Smooth,
        ImageKind::Texture,
        ImageKind::Edges,
        ImageKind::Mixed,
    ];
    let classes = classes.min(kinds.len());
    (0..n)
        .map(|i| {
            let class = i % classes;
            let img =
                SyntheticImage::new(kinds[class], seed.wrapping_add(i as u64 * 13)).rgb(size, size);
            (img, class)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecnn_tensor::psnr;

    #[test]
    fn denoise_dataset_has_expected_noise_level() {
        let data = make_dataset(TaskKind::denoise25(), 8, 48, 3);
        assert_eq!(data.len(), 8);
        for s in &data {
            assert_eq!(s.input.shape(), s.target.shape());
            let p = psnr(&s.target, &s.input, 1.0);
            assert!(p > 18.0 && p < 24.0, "noisy psnr {p}");
        }
    }

    #[test]
    fn sr_dataset_shapes() {
        let data = make_dataset(TaskKind::Sr { scale: 4 }, 4, 64, 5);
        for s in &data {
            assert_eq!(s.target.shape(), (3, 64, 64));
            assert_eq!(s.input.shape(), (3, 16, 16));
        }
    }

    #[test]
    fn datasets_are_deterministic() {
        let a = make_dataset(TaskKind::denoise25(), 3, 32, 9);
        let b = make_dataset(TaskKind::denoise25(), 3, 32, 9);
        assert_eq!(a[2].input, b[2].input);
        let c = make_dataset(TaskKind::denoise25(), 3, 32, 10);
        assert_ne!(a[2].input, c[2].input);
    }

    #[test]
    fn classification_labels_cycle() {
        let d = make_classification_dataset(8, 16, 4, 1);
        assert_eq!(d[0].1, 0);
        assert_eq!(d[5].1, 1);
        assert_eq!(d.len(), 8);
    }
}
