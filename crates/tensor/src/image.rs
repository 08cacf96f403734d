//! Procedural images, degradation operators and quality metrics.
//!
//! The paper trains and validates on DIV2K, Waterloo Exploration, Set5/Set14,
//! BSD100/CBSD68 and Urban100. Those datasets are unavailable offline, so this
//! module synthesizes deterministic multi-octave textures with edges and
//! gradients — content that, like natural images, mixes smooth regions with
//! high-frequency detail, which is what super-resolution and denoising models
//! must trade off.

use crate::tensor::Tensor;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Families of procedural content, roughly ordered by high-frequency energy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ImageKind {
    /// Smooth multi-octave value noise (cloud-like).
    Smooth,
    /// Band-limited texture with mid-frequency detail.
    Texture,
    /// Hard geometric edges (bars, boxes) — stressing ringing/blocking.
    Edges,
    /// A composite of all of the above, the default training diet.
    Mixed,
}

/// Deterministic procedural image generator.
///
/// # Example
///
/// ```
/// use ecnn_tensor::{ImageKind, SyntheticImage};
/// let img = SyntheticImage::new(ImageKind::Mixed, 7).rgb(32, 32);
/// assert_eq!(img.shape(), (3, 32, 32));
/// // All samples are in [0, 1].
/// assert!(img.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
/// ```
#[derive(Clone, Debug)]
pub struct SyntheticImage {
    kind: ImageKind,
    seed: u64,
}

impl SyntheticImage {
    /// Creates a generator for the given content family and seed.
    pub fn new(kind: ImageKind, seed: u64) -> Self {
        Self { kind, seed }
    }

    /// Renders a 3-channel RGB image in `[0, 1]`.
    pub fn rgb(&self, height: usize, width: usize) -> Tensor<f32> {
        let mut t = Tensor::zeros(3, height, width);
        for c in 0..3 {
            let chan_seed = self
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(c as u64);
            for y in 0..height {
                for x in 0..width {
                    let v = match self.kind {
                        ImageKind::Smooth => {
                            self.value_noise(chan_seed, x, y, &[16.0, 8.0], &[0.7, 0.3])
                        }
                        ImageKind::Texture => {
                            self.value_noise(chan_seed, x, y, &[16.0, 6.0, 3.0], &[0.45, 0.35, 0.2])
                        }
                        ImageKind::Edges => self.edges(chan_seed, x, y),
                        ImageKind::Mixed => {
                            let a = self.value_noise(
                                chan_seed,
                                x,
                                y,
                                &[16.0, 6.0, 3.0],
                                &[0.5, 0.3, 0.2],
                            );
                            let b = self.edges(chan_seed ^ 0xABCD, x, y);
                            let m = self.value_noise(chan_seed ^ 0x5555, x, y, &[24.0], &[1.0]);
                            a * m + b * (1.0 - m)
                        }
                    };
                    *t.at_mut(c, y, x) = v.clamp(0.0, 1.0);
                }
            }
        }
        t
    }

    /// Renders a single-channel (luma) image in `[0, 1]`.
    pub fn luma(&self, height: usize, width: usize) -> Tensor<f32> {
        let rgb = self.rgb(height, width);
        Tensor::from_fn(1, height, width, |_, y, x| {
            0.299 * rgb.at(0, y, x) + 0.587 * rgb.at(1, y, x) + 0.114 * rgb.at(2, y, x)
        })
    }

    fn value_noise(&self, seed: u64, x: usize, y: usize, scales: &[f32], weights: &[f32]) -> f32 {
        let mut v = 0.0;
        for (i, (&s, &w)) in scales.iter().zip(weights).enumerate() {
            let fx = x as f32 / s;
            let fy = y as f32 / s;
            let x0 = fx.floor() as i64;
            let y0 = fy.floor() as i64;
            let tx = smoothstep(fx - x0 as f32);
            let ty = smoothstep(fy - y0 as f32);
            let oct_seed = seed.wrapping_add((i as u64) << 32);
            let v00 = lattice(oct_seed, x0, y0);
            let v10 = lattice(oct_seed, x0 + 1, y0);
            let v01 = lattice(oct_seed, x0, y0 + 1);
            let v11 = lattice(oct_seed, x0 + 1, y0 + 1);
            let a = v00 + (v10 - v00) * tx;
            let b = v01 + (v11 - v01) * tx;
            v += w * (a + (b - a) * ty);
        }
        v
    }

    fn edges(&self, seed: u64, x: usize, y: usize) -> f32 {
        // Deterministic arrangement of bars and rectangles.
        let bar_period = 7 + (seed % 5) as usize;
        let vertical = ((x / bar_period) % 2) as f32;
        let horizontal = ((y / (bar_period + 3)) % 2) as f32;
        let box_on = {
            let bx = x / 24;
            let by = y / 24;
            (lattice(seed ^ 0xB0B0, bx as i64, by as i64) > 0.5) as u8 as f32
        };
        0.15 + 0.5 * (vertical * 0.6 + horizontal * 0.4) + 0.25 * box_on
    }
}

#[inline]
fn smoothstep(t: f32) -> f32 {
    t * t * (3.0 - 2.0 * t)
}

/// Hash a lattice point to a deterministic value in `[0, 1)`.
#[inline]
fn lattice(seed: u64, x: i64, y: i64) -> f32 {
    let mut h = seed
        ^ (x as u64).wrapping_mul(0x517C_C1B7_2722_0A95)
        ^ (y as u64).wrapping_mul(0x2545_F491_4F6C_DD1D);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    (h >> 40) as f32 / (1u64 << 24) as f32
}

/// Adds i.i.d. Gaussian noise with standard deviation `sigma` (in the same
/// scale as the image — pass `25.0 / 255.0` for the paper's σ=25 setting).
pub fn add_gaussian_noise(image: &Tensor<f32>, sigma: f32, rng: &mut StdRng) -> Tensor<f32> {
    image.map(|v| (v + sigma * gaussian(rng)).clamp(0.0, 1.0))
}

fn gaussian(rng: &mut StdRng) -> f32 {
    // Box–Muller transform; avoids needing rand_distr offline.
    loop {
        let u1: f32 = rng.gen();
        if u1 > 1e-12 {
            let u2: f32 = rng.gen();
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
        }
    }
}

/// Box-filter downsampling by an integer factor `s` (the SR degradation
/// operator; the paper uses bicubic but box preserves the same
/// information-loss structure for synthetic content).
///
/// # Panics
///
/// Panics if the spatial dimensions are not divisible by `s`.
pub fn downsample_box(image: &Tensor<f32>, s: usize) -> Tensor<f32> {
    let (c, h, w) = image.shape();
    assert!(
        s > 0 && h % s == 0 && w % s == 0,
        "size not divisible by {s}"
    );
    let inv = 1.0 / (s * s) as f32;
    Tensor::from_fn(c, h / s, w / s, |ch, y, x| {
        let mut acc = 0.0;
        for dy in 0..s {
            for dx in 0..s {
                acc += image.at(ch, y * s + dy, x * s + dx);
            }
        }
        acc * inv
    })
}

/// Nearest-neighbour upsampling by factor `s` (the trivial SR baseline).
pub fn upsample_nearest(image: &Tensor<f32>, s: usize) -> Tensor<f32> {
    let (c, h, w) = image.shape();
    Tensor::from_fn(c, h * s, w * s, |ch, y, x| image.at(ch, y / s, x / s))
}

/// Bilinear upsampling by factor `s` (a stronger non-learned SR baseline).
pub fn upsample_bilinear(image: &Tensor<f32>, s: usize) -> Tensor<f32> {
    let (c, h, w) = image.shape();
    let (oh, ow) = (h * s, w * s);
    Tensor::from_fn(c, oh, ow, |ch, y, x| {
        let fy = (y as f32 + 0.5) / s as f32 - 0.5;
        let fx = (x as f32 + 0.5) / s as f32 - 0.5;
        let y0 = fy.floor().max(0.0) as usize;
        let x0 = fx.floor().max(0.0) as usize;
        let y1 = (y0 + 1).min(h - 1);
        let x1 = (x0 + 1).min(w - 1);
        let ty = (fy - y0 as f32).clamp(0.0, 1.0);
        let tx = (fx - x0 as f32).clamp(0.0, 1.0);
        let a = image.at(ch, y0, x0) * (1.0 - tx) + image.at(ch, y0, x1) * tx;
        let b = image.at(ch, y1, x0) * (1.0 - tx) + image.at(ch, y1, x1) * tx;
        a * (1.0 - ty) + b * ty
    })
}

/// Peak signal-to-noise ratio in dB between two same-shaped images with the
/// given peak value (1.0 for `[0,1]` images).
///
/// Returns `f64::INFINITY` for identical images.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn psnr(a: &Tensor<f32>, b: &Tensor<f32>, peak: f32) -> f64 {
    assert_eq!(a.shape(), b.shape(), "psnr shape mismatch");
    let mse = a.sub(b).mean_sq();
    if mse == 0.0 {
        f64::INFINITY
    } else {
        10.0 * ((peak as f64) * (peak as f64) / mse).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let a = SyntheticImage::new(ImageKind::Mixed, 3).rgb(16, 16);
        let b = SyntheticImage::new(ImageKind::Mixed, 3).rgb(16, 16);
        assert_eq!(a, b);
        let c = SyntheticImage::new(ImageKind::Mixed, 4).rgb(16, 16);
        assert_ne!(a, c);
    }

    #[test]
    fn all_kinds_produce_in_range_pixels() {
        for kind in [
            ImageKind::Smooth,
            ImageKind::Texture,
            ImageKind::Edges,
            ImageKind::Mixed,
        ] {
            let img = SyntheticImage::new(kind, 11).rgb(24, 20);
            assert_eq!(img.shape(), (3, 24, 20));
            assert!(
                img.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn images_have_nontrivial_content() {
        for kind in [
            ImageKind::Smooth,
            ImageKind::Texture,
            ImageKind::Edges,
            ImageKind::Mixed,
        ] {
            let img = SyntheticImage::new(kind, 5).rgb(32, 32);
            let mean = img.as_slice().iter().sum::<f32>() / img.len() as f32;
            let var = img
                .as_slice()
                .iter()
                .map(|v| (v - mean).powi(2))
                .sum::<f32>()
                / img.len() as f32;
            assert!(var > 1e-4, "{kind:?} is flat (var={var})");
        }
    }

    #[test]
    fn luma_matches_rgb_weights() {
        let g = SyntheticImage::new(ImageKind::Texture, 2);
        let rgb = g.rgb(8, 8);
        let l = g.luma(8, 8);
        let want = 0.299 * rgb.at(0, 3, 4) + 0.587 * rgb.at(1, 3, 4) + 0.114 * rgb.at(2, 3, 4);
        assert!((l.at(0, 3, 4) - want).abs() < 1e-6);
    }

    #[test]
    fn noise_changes_image_by_sigma() {
        let img = SyntheticImage::new(ImageKind::Smooth, 1).rgb(64, 64);
        let mut rng = StdRng::seed_from_u64(9);
        let noisy = add_gaussian_noise(&img, 25.0 / 255.0, &mut rng);
        let p = psnr(&img, &noisy, 1.0);
        // σ=25/255 → PSNR ≈ 20.17 dB on unclipped data; clipping raises it a bit.
        assert!(p > 19.0 && p < 23.0, "psnr {p}");
    }

    #[test]
    fn downsample_box_averages() {
        let img = Tensor::from_fn(1, 4, 4, |_, y, x| (y * 4 + x) as f32);
        let d = downsample_box(&img, 2);
        assert_eq!(d.shape(), (1, 2, 2));
        assert_eq!(d.at(0, 0, 0), (0.0 + 1.0 + 4.0 + 5.0) / 4.0);
        assert_eq!(d.at(0, 1, 1), (10.0 + 11.0 + 14.0 + 15.0) / 4.0);
    }

    #[test]
    fn upsample_round_trip_preserves_means() {
        let img = SyntheticImage::new(ImageKind::Smooth, 8).rgb(16, 16);
        let up = upsample_nearest(&img, 2);
        assert_eq!(up.shape(), (3, 32, 32));
        let down = downsample_box(&up, 2);
        for (a, b) in down.as_slice().iter().zip(img.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn bilinear_beats_nearest_on_smooth_content() {
        let hr = SyntheticImage::new(ImageKind::Smooth, 21).rgb(64, 64);
        let lr = downsample_box(&hr, 2);
        let near = upsample_nearest(&lr, 2);
        let bil = upsample_bilinear(&lr, 2);
        assert!(psnr(&hr, &bil, 1.0) > psnr(&hr, &near, 1.0));
    }

    #[test]
    fn psnr_known_value() {
        let a = Tensor::from_fn(1, 2, 2, |_, _, _| 0.5);
        let mut b = a.clone();
        *b.at_mut(0, 0, 0) = 0.6; // mse = 0.01/4
        let p = psnr(&a, &b, 1.0);
        assert!((p - 10.0 * (1.0 / 0.0025f64).log10()).abs() < 1e-4);
        assert!(psnr(&a, &a, 1.0).is_infinite());
    }
}
