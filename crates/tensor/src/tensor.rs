//! Dense channel-major (CHW) tensors.
//!
//! [`Tensor`] is deliberately small: the eCNN datapath only needs 3-D feature
//! volumes with channel-major layout (the hardware streams 4×2 pixel tiles of
//! 32 channels, so channel-major keeps tile extraction contiguous per
//! channel). Batching is handled by the training substrate as `Vec<Tensor>`.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A dense 3-D tensor in channel-major (CHW) layout.
///
/// `T` is the element type: `f32` for the reference/training path, `i8` for
/// quantized features and weights, `i32` for full-precision accumulators.
///
/// # Example
///
/// ```
/// use ecnn_tensor::Tensor;
/// let mut t = Tensor::<f32>::zeros(2, 3, 4);
/// *t.at_mut(1, 2, 3) = 7.0;
/// assert_eq!(t.at(1, 2, 3), 7.0);
/// assert_eq!(t.shape(), (2, 3, 4));
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor<T = f32> {
    channels: usize,
    height: usize,
    width: usize,
    data: Vec<T>,
}

impl<T: fmt::Debug> fmt::Debug for Tensor<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tensor")
            .field("channels", &self.channels)
            .field("height", &self.height)
            .field("width", &self.width)
            .field("len", &self.data.len())
            .finish()
    }
}

impl<T: Copy + Default> Tensor<T> {
    /// Creates a tensor filled with `T::default()` (zero for numeric types).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn zeros(channels: usize, height: usize, width: usize) -> Self {
        assert!(
            channels > 0 && height > 0 && width > 0,
            "tensor dimensions must be nonzero: {channels}x{height}x{width}"
        );
        Self {
            channels,
            height,
            width,
            data: vec![T::default(); channels * height * width],
        }
    }

    /// Creates a tensor by evaluating `f(c, y, x)` at every element.
    pub fn from_fn(
        channels: usize,
        height: usize,
        width: usize,
        mut f: impl FnMut(usize, usize, usize) -> T,
    ) -> Self {
        let mut t = Self::zeros(channels, height, width);
        for c in 0..channels {
            for y in 0..height {
                for x in 0..width {
                    *t.at_mut(c, y, x) = f(c, y, x);
                }
            }
        }
        t
    }

    /// Builds a tensor from a flat CHW vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != channels * height * width`.
    pub fn from_vec(channels: usize, height: usize, width: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            channels * height * width,
            "data length does not match shape"
        );
        assert!(channels > 0 && height > 0 && width > 0);
        Self {
            channels,
            height,
            width,
            data,
        }
    }

    /// Extracts the `channels`-deep rectangle with top-left `(y0, x0)` and
    /// size `h×w`, zero-padding (default-padding) out-of-bounds samples.
    ///
    /// Out-of-bounds reads appear when the block-based flow gathers the
    /// receptive field of a border block; the paper's zero-padded inference
    /// type maps to exactly this behaviour.
    pub fn crop_padded(&self, y0: isize, x0: isize, h: usize, w: usize) -> Self {
        let mut out = Self::zeros(self.channels, h, w);
        for c in 0..self.channels {
            for y in 0..h {
                let sy = y0 + y as isize;
                if sy < 0 || sy >= self.height as isize {
                    continue;
                }
                for x in 0..w {
                    let sx = x0 + x as isize;
                    if sx < 0 || sx >= self.width as isize {
                        continue;
                    }
                    *out.at_mut(c, y, x) = self.at(c, sy as usize, sx as usize);
                }
            }
        }
        out
    }

    /// Reshapes the tensor in place to `channels × height × width`, filling
    /// every element with `T::default()`. The backing storage is kept, so
    /// once a buffer has been grown to its peak size no further allocation
    /// happens — the plane-pool arena's recycling primitive.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn reset(&mut self, channels: usize, height: usize, width: usize) {
        assert!(
            channels > 0 && height > 0 && width > 0,
            "tensor dimensions must be nonzero: {channels}x{height}x{width}"
        );
        self.channels = channels;
        self.height = height;
        self.width = width;
        self.data.clear();
        self.data.resize(channels * height * width, T::default());
    }

    /// [`Tensor::reset`] without the zero-fill: surviving elements keep
    /// their previous (stale) values, so this writes nothing beyond any
    /// grown tail. Only for buffers whose every element is about to be
    /// overwritten.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn reset_no_fill(&mut self, channels: usize, height: usize, width: usize) {
        assert!(
            channels > 0 && height > 0 && width > 0,
            "tensor dimensions must be nonzero: {channels}x{height}x{width}"
        );
        self.channels = channels;
        self.height = height;
        self.width = width;
        self.data.resize(channels * height * width, T::default());
    }

    /// [`Tensor::pixel_shuffle`] into a caller-owned buffer, reusing its
    /// storage (the buffer is reshaped to the shuffled geometry; every
    /// element is overwritten). Row-sliced: output row `y` of channel
    /// `oc` interleaves source row `y / s` of the `s` channels
    /// `oc·s² + (y mod s)·s + dx`, `dx = 0..s`.
    ///
    /// # Panics
    ///
    /// Panics if the channel count is not divisible by `s²`.
    pub fn pixel_shuffle_into(&self, s: usize, dst: &mut Tensor<T>) {
        assert!(s > 0 && self.channels.is_multiple_of(s * s));
        let c = self.channels / (s * s);
        dst.reset_no_fill(c, self.height * s, self.width * s);
        for oc in 0..c {
            for y in 0..dst.height {
                let ic = oc * s * s + (y % s) * s;
                let out = dst.row_mut(oc, y);
                if s == 2 {
                    // The ×2 upsampler: pairwise interleave, vectorizable.
                    let (r0, r1) = (self.row(ic, y / 2), self.row(ic + 1, y / 2));
                    for (pair, (&a, &b)) in out.chunks_exact_mut(2).zip(r0.iter().zip(r1)) {
                        pair[0] = a;
                        pair[1] = b;
                    }
                    continue;
                }
                for dx in 0..s {
                    let src = self.row(ic + dx, y / s);
                    for (d, &v) in out[dx..].iter_mut().step_by(s).zip(src) {
                        *d = v;
                    }
                }
            }
        }
    }

    /// [`Tensor::crop_padded`] into a caller-owned buffer: `dst`'s shape
    /// selects the crop size, and its storage is reused — the streaming
    /// session's per-frame hot path.
    pub fn crop_padded_into(&self, y0: isize, x0: isize, dst: &mut Tensor<T>) {
        assert_eq!(
            dst.channels, self.channels,
            "channel mismatch in crop_padded_into"
        );
        let (h, w) = (dst.height, dst.width);
        dst.data.fill(T::default());
        for c in 0..self.channels {
            for y in 0..h {
                let sy = y0 + y as isize;
                if sy < 0 || sy >= self.height as isize {
                    continue;
                }
                for x in 0..w {
                    let sx = x0 + x as isize;
                    if sx < 0 || sx >= self.width as isize {
                        continue;
                    }
                    *dst.at_mut(c, y, x) = self.at(c, sy as usize, sx as usize);
                }
            }
        }
    }

    /// Elementwise [`Tensor::map`] into a caller-owned buffer of the same
    /// shape, reusing its storage.
    pub fn map_into<U: Copy + Default>(&self, dst: &mut Tensor<U>, mut f: impl FnMut(T) -> U) {
        assert_eq!(
            (self.channels, self.height, self.width),
            (dst.channels, dst.height, dst.width),
            "shape mismatch in map_into"
        );
        for (d, &s) in dst.data.iter_mut().zip(&self.data) {
            *d = f(s);
        }
    }

    /// Copies `src` into `self` with its top-left corner at `(y0, x0)`.
    ///
    /// Used by the block stitcher to paste finished output blocks into the
    /// frame. Samples of `src` that fall outside `self` are ignored.
    pub fn paste(&mut self, src: &Tensor<T>, y0: usize, x0: usize) {
        assert_eq!(self.channels, src.channels, "channel mismatch in paste");
        for c in 0..self.channels {
            for y in 0..src.height {
                if y0 + y >= self.height {
                    break;
                }
                for x in 0..src.width {
                    if x0 + x >= self.width {
                        break;
                    }
                    *self.at_mut(c, y0 + y, x0 + x) = src.at(c, y, x);
                }
            }
        }
    }

    /// Returns a new tensor with channels grown (zero-filled) or truncated to
    /// `channels`. The paper pads RGB inputs with 29 zero channels to present
    /// 32-channel features to the datapath.
    pub fn with_channels(&self, channels: usize) -> Self {
        let mut out = Self::zeros(channels, self.height, self.width);
        for c in 0..channels.min(self.channels) {
            for y in 0..self.height {
                for x in 0..self.width {
                    *out.at_mut(c, y, x) = self.at(c, y, x);
                }
            }
        }
        out
    }

    /// Space-to-depth: packs `s×s` spatial neighborhoods into channels
    /// (`C → C·s²`, `H → H/s`, `W → W/s`). This is the "pixel unshuffle" used
    /// by DnERNet-12ch (Appendix A).
    ///
    /// # Panics
    ///
    /// Panics if the spatial dimensions are not divisible by `s`.
    pub fn pixel_unshuffle(&self, s: usize) -> Self {
        assert!(s > 0 && self.height.is_multiple_of(s) && self.width.is_multiple_of(s));
        let (c, h, w) = (self.channels, self.height / s, self.width / s);
        Tensor::from_fn(c * s * s, h, w, |oc, y, x| {
            let ic = oc / (s * s);
            let rem = oc % (s * s);
            let (dy, dx) = (rem / s, rem % s);
            self.at(ic, y * s + dy, x * s + dx)
        })
    }

    /// Depth-to-space: the inverse of [`Tensor::pixel_unshuffle`]
    /// (`C → C/s²`, `H → H·s`, `W → W·s`), i.e. the sub-pixel upsampler used
    /// by the SR heads (Fig. 7).
    ///
    /// # Panics
    ///
    /// Panics if the channel count is not divisible by `s²`.
    pub fn pixel_shuffle(&self, s: usize) -> Self {
        assert!(s > 0 && self.channels.is_multiple_of(s * s));
        let c = self.channels / (s * s);
        Tensor::from_fn(c, self.height * s, self.width * s, |oc, y, x| {
            let (dy, dx) = (y % s, x % s);
            let ic = oc * s * s + dy * s + dx;
            self.at(ic, y / s, x / s)
        })
    }
}

impl<T: Copy> Tensor<T> {
    /// Element at `(c, y, x)`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds via the index check) if out of bounds.
    #[inline(always)]
    pub fn at(&self, c: usize, y: usize, x: usize) -> T {
        debug_assert!(c < self.channels && y < self.height && x < self.width);
        self.data[(c * self.height + y) * self.width + x]
    }

    /// Mutable element at `(c, y, x)`.
    #[inline(always)]
    pub fn at_mut(&mut self, c: usize, y: usize, x: usize) -> &mut T {
        debug_assert!(c < self.channels && y < self.height && x < self.width);
        &mut self.data[(c * self.height + y) * self.width + x]
    }

    /// Shape as `(channels, height, width)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.channels, self.height, self.width)
    }

    /// Number of channels.
    #[inline]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Spatial height.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Spatial width.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Elements the backing storage can hold without reallocating (≥
    /// [`Tensor::len`]); lets arenas detect whether a [`Tensor::reset`]
    /// will allocate.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Always false: zero-sized tensors cannot be constructed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Flat CHW view of the data.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable flat CHW view of the data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Contiguous row `y` of channel `c`.
    #[inline]
    pub fn row(&self, c: usize, y: usize) -> &[T] {
        let base = (c * self.height + y) * self.width;
        &self.data[base..base + self.width]
    }

    /// Mutable contiguous row `y` of channel `c`.
    #[inline]
    pub fn row_mut(&mut self, c: usize, y: usize) -> &mut [T] {
        let base = (c * self.height + y) * self.width;
        &mut self.data[base..base + self.width]
    }

    /// The contiguous `height × width` slab of channel `c`.
    #[inline]
    pub fn channel(&self, c: usize) -> &[T] {
        let px = self.height * self.width;
        &self.data[c * px..(c + 1) * px]
    }

    /// Mutable contiguous slab of channel `c`.
    #[inline]
    pub fn channel_mut(&mut self, c: usize) -> &mut [T] {
        let px = self.height * self.width;
        &mut self.data[c * px..(c + 1) * px]
    }

    /// Iterator over the contiguous rows of channel `c`, top to bottom.
    #[inline]
    pub fn rows(&self, c: usize) -> std::slice::ChunksExact<'_, T> {
        self.channel(c).chunks_exact(self.width)
    }

    /// Mutable iterator over the rows of channel `c`.
    #[inline]
    pub fn rows_mut(&mut self, c: usize) -> std::slice::ChunksExactMut<'_, T> {
        let width = self.width;
        self.channel_mut(c).chunks_exact_mut(width)
    }

    /// Applies `f` to corresponding rows of `self`'s channel `c` and
    /// `other`'s channel `oc` — the row-sliced form of an elementwise
    /// channel combination (both tensors must share spatial dimensions).
    ///
    /// # Panics
    ///
    /// Panics if the spatial dimensions differ.
    pub fn zip_rows<U: Copy>(
        &mut self,
        c: usize,
        other: &Tensor<U>,
        oc: usize,
        mut f: impl FnMut(&mut [T], &[U]),
    ) {
        assert_eq!(
            (self.height, self.width),
            (other.height, other.width),
            "spatial mismatch in zip_rows"
        );
        for (dst, src) in self.rows_mut(c).zip(other.rows(oc)) {
            f(dst, src);
        }
    }

    /// Consumes the tensor, returning the flat CHW data.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Applies `f` elementwise, producing a tensor of a possibly different
    /// element type.
    pub fn map<U: Copy + Default>(&self, mut f: impl FnMut(T) -> U) -> Tensor<U> {
        Tensor {
            channels: self.channels,
            height: self.height,
            width: self.width,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }
}

impl Tensor<f32> {
    /// Elementwise sum with `other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, other: &Tensor<f32>) -> Tensor<f32> {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise difference `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub(&self, other: &Tensor<f32>) -> Tensor<f32> {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise combination of two same-shaped tensors.
    pub fn zip(&self, other: &Tensor<f32>, mut f: impl FnMut(f32, f32) -> f32) -> Tensor<f32> {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        Tensor {
            channels: self.channels,
            height: self.height,
            width: self.width,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Tensor<f32>) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += *b;
        }
    }

    /// In-place scaling by `s`.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Mean of squared elements; the building block of MSE/PSNR.
    pub fn mean_sq(&self) -> f64 {
        self.data
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            / self.data.len() as f64
    }

    /// Largest absolute element.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }
}

/// Generic scalar arithmetic used by the fixed-point reference kernels.
pub trait Scalar:
    Copy + Default + Add<Output = Self> + Sub<Output = Self> + Mul<Output = Self> + AddAssign
{
}
impl<T> Scalar for T where
    T: Copy + Default + Add<Output = T> + Sub<Output = T> + Mul<Output = T> + AddAssign
{
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_index() {
        let mut t = Tensor::<f32>::zeros(2, 3, 4);
        assert_eq!(t.shape(), (2, 3, 4));
        assert_eq!(t.len(), 24);
        *t.at_mut(1, 2, 3) = 5.0;
        assert_eq!(t.at(1, 2, 3), 5.0);
        assert_eq!(t.at(0, 0, 0), 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_dim_panics() {
        let _ = Tensor::<f32>::zeros(0, 1, 1);
    }

    #[test]
    fn from_fn_layout_is_chw() {
        let t = Tensor::from_fn(2, 2, 2, |c, y, x| (c * 100 + y * 10 + x) as f32);
        assert_eq!(t.as_slice(), &[0., 1., 10., 11., 100., 101., 110., 111.]);
    }

    #[test]
    fn crop_padded_zero_fills() {
        let t = Tensor::from_fn(1, 4, 4, |_, y, x| (y * 4 + x) as f32);
        let c = t.crop_padded(-1, -1, 3, 3);
        assert_eq!(c.at(0, 0, 0), 0.0); // out of bounds
        assert_eq!(c.at(0, 1, 1), 0.0); // t[0,0]
        assert_eq!(c.at(0, 2, 2), 5.0); // t[1,1]
    }

    #[test]
    fn crop_then_paste_round_trips_interior() {
        let t = Tensor::from_fn(2, 6, 6, |c, y, x| (c * 36 + y * 6 + x) as f32);
        let block = t.crop_padded(2, 3, 3, 2);
        let mut out = Tensor::<f32>::zeros(2, 6, 6);
        out.paste(&block, 2, 3);
        for c in 0..2 {
            for y in 2..5 {
                for x in 3..5 {
                    assert_eq!(out.at(c, y, x), t.at(c, y, x));
                }
            }
        }
    }

    #[test]
    fn paste_clips_at_border() {
        let mut big = Tensor::<f32>::zeros(1, 4, 4);
        let small = Tensor::from_fn(1, 3, 3, |_, _, _| 1.0);
        big.paste(&small, 2, 2);
        assert_eq!(big.at(0, 3, 3), 1.0);
        assert_eq!(big.at(0, 2, 2), 1.0);
        assert_eq!(big.at(0, 1, 1), 0.0);
    }

    #[test]
    fn with_channels_pads_and_truncates() {
        let t = Tensor::from_fn(3, 2, 2, |c, _, _| c as f32);
        let padded = t.with_channels(5);
        assert_eq!(padded.at(2, 0, 0), 2.0);
        assert_eq!(padded.at(4, 1, 1), 0.0);
        let cut = padded.with_channels(2);
        assert_eq!(cut.channels(), 2);
        assert_eq!(cut.at(1, 0, 0), 1.0);
    }

    #[test]
    fn shuffle_unshuffle_round_trip() {
        let t = Tensor::from_fn(3, 4, 6, |c, y, x| (c * 1000 + y * 10 + x) as f32);
        let u = t.pixel_unshuffle(2);
        assert_eq!(u.shape(), (12, 2, 3));
        let back = u.pixel_shuffle(2);
        assert_eq!(back, t);
    }

    #[test]
    fn pixel_shuffle_matches_subpixel_definition() {
        // channel layout: oc*s*s + dy*s + dx
        let t = Tensor::from_fn(4, 1, 1, |c, _, _| c as f32);
        let s = t.pixel_shuffle(2);
        assert_eq!(s.shape(), (1, 2, 2));
        assert_eq!(s.at(0, 0, 0), 0.0);
        assert_eq!(s.at(0, 0, 1), 1.0);
        assert_eq!(s.at(0, 1, 0), 2.0);
        assert_eq!(s.at(0, 1, 1), 3.0);
    }

    #[test]
    fn map_changes_type() {
        let t = Tensor::from_fn(1, 2, 2, |_, y, x| (y * 2 + x) as f32);
        let q: Tensor<i8> = t.map(|v| v as i8);
        assert_eq!(q.at(0, 1, 1), 3i8);
    }

    #[test]
    fn arithmetic_helpers() {
        let a = Tensor::from_fn(1, 2, 2, |_, y, x| (y + x) as f32);
        let b = Tensor::from_fn(1, 2, 2, |_, _, _| 1.0);
        assert_eq!(a.add(&b).at(0, 1, 1), 3.0);
        assert_eq!(a.sub(&b).at(0, 0, 0), -1.0);
        let mut c = a.clone();
        c.add_assign(&b);
        c.scale(2.0);
        assert_eq!(c.at(0, 1, 1), 6.0);
        assert_eq!(b.mean_sq(), 1.0);
        assert_eq!(a.max_abs(), 2.0);
    }

    #[test]
    fn reset_reuses_storage_and_zero_fills() {
        let mut t = Tensor::from_fn(2, 4, 4, |_, _, _| 7.0f32);
        let ptr = t.as_slice().as_ptr();
        let cap = t.capacity();
        t.reset(1, 3, 3);
        assert_eq!(t.shape(), (1, 3, 3));
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(t.as_slice().as_ptr(), ptr, "shrinking must not reallocate");
        assert_eq!(t.capacity(), cap);
        t.reset(2, 4, 4); // back to the peak: capacity suffices
        assert_eq!(t.as_slice().as_ptr(), ptr);
    }

    #[test]
    fn pixel_shuffle_into_matches_allocating_version() {
        let t = Tensor::from_fn(8, 3, 5, |c, y, x| (c * 100 + y * 10 + x) as f32);
        let mut dst = Tensor::<f32>::zeros(1, 1, 1);
        t.pixel_shuffle_into(2, &mut dst);
        assert_eq!(dst, t.pixel_shuffle(2));
        // Integer codes and accumulators, s = 3 on non-square shapes, and
        // a recycled buffer holding stale values of a larger shape.
        for (s, c, h, w) in [(2, 8, 3, 5), (3, 18, 2, 7), (3, 9, 5, 1), (2, 4, 1, 1)] {
            let f = |c: usize, y: usize, x: usize| (c * 1000 + y * 37 + x) as i32 - 5000;
            let t32 = Tensor::from_fn(c, h, w, f);
            let t16 = Tensor::from_fn(c, h, w, |c, y, x| f(c, y, x) as i16);
            let mut d32 = Tensor::<i32>::from_fn(2, 40, 40, |_, _, _| -1);
            let mut d16 = Tensor::<i16>::from_fn(2, 40, 40, |_, _, _| -1);
            t32.pixel_shuffle_into(s, &mut d32);
            t16.pixel_shuffle_into(s, &mut d16);
            assert_eq!(d32, t32.pixel_shuffle(s), "i32 s={s} {c}x{h}x{w}");
            assert_eq!(d16, t16.pixel_shuffle(s), "i16 s={s} {c}x{h}x{w}");
        }
    }

    #[test]
    fn row_is_contiguous() {
        let t = Tensor::from_fn(2, 3, 4, |c, y, x| (c * 100 + y * 10 + x) as f32);
        assert_eq!(t.row(1, 2), &[120.0, 121.0, 122.0, 123.0]);
    }

    #[test]
    fn row_mut_and_channel_views() {
        let mut t = Tensor::from_fn(2, 3, 4, |c, y, x| (c * 100 + y * 10 + x) as f32);
        t.row_mut(1, 2).fill(-1.0);
        assert_eq!(t.at(1, 2, 3), -1.0);
        assert_eq!(t.at(1, 1, 3), 113.0, "other rows untouched");
        assert_eq!(t.channel(0).len(), 12);
        assert_eq!(t.channel(1)[2 * 4 + 1], -1.0);
        t.channel_mut(0).fill(7.0);
        assert_eq!(t.at(0, 2, 3), 7.0);
        assert_eq!(t.at(1, 0, 0), 100.0);
    }

    #[test]
    fn rows_iterate_top_to_bottom() {
        let t = Tensor::from_fn(2, 3, 2, |c, y, x| (c * 100 + y * 10 + x) as f32);
        let rows: Vec<&[f32]> = t.rows(1).collect();
        assert_eq!(
            rows,
            vec![&[100.0, 101.0][..], &[110.0, 111.0], &[120.0, 121.0]]
        );
        let mut u = t.clone();
        for (i, row) in u.rows_mut(0).enumerate() {
            row.fill(i as f32);
        }
        assert_eq!(u.at(0, 2, 1), 2.0);
    }

    #[test]
    fn zip_rows_combines_channel_pairs() {
        let mut a = Tensor::from_fn(2, 2, 3, |c, y, x| (c * 100 + y * 10 + x) as f32);
        let b = Tensor::from_fn(1, 2, 3, |_, y, x| (y * 10 + x) as f32 * 2.0);
        a.zip_rows(1, &b, 0, |dst, src| {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        });
        assert_eq!(a.at(1, 1, 2), 112.0 + 24.0);
        assert_eq!(a.at(0, 1, 2), 12.0, "other channels untouched");
    }
}
