//! ERNet model builders (paper Section 4 and Appendix A).
//!
//! The template follows Fig. 7 / Fig. 18:
//!
//! ```text
//! [unshuffle]  PixelUnshuffle ×2            (DnERNet-12ch only)
//! head         CONV3×3 (in→32)
//! body         B × ERModule(32, Rm)         (first N modules use R+1, rest R)
//! bodyE        CONV3×3 (32→32) + global residual from head output
//! up × k       CONV3×3 (32→128) + PixelShuffle ×2   (k = 2 for SR×4, 1 for SR×2)
//! tail         CONV3×3 (32→out)
//! [shuffle]    PixelShuffle ×2              (DnERNet-12ch only)
//! ```
//!
//! which yields `D = B + 3 + k` CONV3×3 stages — consistent with the paper's
//! "six-layer DnERNet" for B=3 and the six-line FBISA program of Fig. 18.

use crate::layer::{Activation, Layer, Op, SkipRef};
use crate::model::{Model, ModelError};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// The ERNet application family.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ErNetTask {
    /// Four-times super-resolution (two pixel-shuffle upsamplers).
    Sr4,
    /// Two-times super-resolution (one upsampler).
    Sr2,
    /// Denoising at full resolution.
    Dn,
    /// Denoising on 2×2-unshuffled 12-channel inputs (Appendix A).
    Dn12,
}

impl ErNetTask {
    /// Model-name prefix (`SR4ERNet`, `DnERNet-12ch`, …).
    pub fn prefix(self) -> &'static str {
        match self {
            ErNetTask::Sr4 => "SR4ERNet",
            ErNetTask::Sr2 => "SR2ERNet",
            ErNetTask::Dn => "DnERNet",
            ErNetTask::Dn12 => "DnERNet-12ch",
        }
    }

    /// Number of ×2 upsampler stages.
    pub fn upsamplers(self) -> usize {
        match self {
            ErNetTask::Sr4 => 2,
            ErNetTask::Sr2 => 1,
            ErNetTask::Dn | ErNetTask::Dn12 => 0,
        }
    }

    /// Output-image scale relative to the input image.
    pub fn scale(self) -> usize {
        match self {
            ErNetTask::Sr4 => 4,
            ErNetTask::Sr2 => 2,
            ErNetTask::Dn | ErNetTask::Dn12 => 1,
        }
    }
}

/// Hyper-parameters of one ERNet: `B` modules with base expansion `R`, the
/// first `N` of which use `R+1` (so `RE = R + N/B`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ErNetSpec {
    /// Task family.
    pub task: ErNetTask,
    /// Number of ERModules (depth driver).
    pub b: usize,
    /// Base integer expansion ratio.
    pub r: usize,
    /// Number of leading modules with expansion `R+1`.
    pub n: usize,
    /// Feature width (32 in all paper models).
    pub channels: usize,
}

impl ErNetSpec {
    /// Spec with the paper's 32-channel width.
    ///
    /// # Panics
    ///
    /// Panics if `n > b`, `b == 0`, or `r == 0`.
    pub fn new(task: ErNetTask, b: usize, r: usize, n: usize) -> Self {
        assert!(b > 0, "B must be positive");
        assert!(r > 0, "R must be positive");
        assert!(n <= b, "N must not exceed B");
        Self {
            task,
            b,
            r,
            n,
            channels: 32,
        }
    }

    /// Overall fractional expansion ratio `RE = R + N/B`.
    pub fn re(&self) -> f64 {
        self.r as f64 + self.n as f64 / self.b as f64
    }

    /// Canonical model name, e.g. `SR4ERNet-B34R4N0`.
    pub fn name(&self) -> String {
        format!("{}-B{}R{}N{}", self.task.prefix(), self.b, self.r, self.n)
    }

    /// Builds the model.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] (cannot occur for well-formed specs; kept
    /// for API honesty).
    pub fn build(&self) -> Result<Model, ModelError> {
        let c = self.channels;
        let mut layers = Vec::new();
        let (in_logical, out_logical) = match self.task {
            ErNetTask::Dn12 => {
                layers.push(Layer::new(Op::PixelUnshuffle { factor: 2 }));
                (3, 3)
            }
            _ => (3, 3),
        };
        let head_in = if self.task == ErNetTask::Dn12 {
            12
        } else {
            in_logical
        };
        layers.push(Layer::new(Op::Conv3x3 {
            in_c: head_in,
            out_c: c,
            act: Activation::None,
        }));
        let head_idx = layers.len() - 1;
        for m in 0..self.b {
            let rm = if m < self.n { self.r + 1 } else { self.r };
            layers.push(Layer::new(Op::ErModule {
                channels: c,
                expansion: rm,
            }));
        }
        // Body-end convolution with the global residual back to the head.
        layers.push(Layer::with_skip(
            Op::Conv3x3 {
                in_c: c,
                out_c: c,
                act: Activation::None,
            },
            SkipRef::Layer(head_idx),
        ));
        for _ in 0..self.task.upsamplers() {
            layers.push(Layer::new(Op::Conv3x3 {
                in_c: c,
                out_c: c * 4,
                act: Activation::None,
            }));
            layers.push(Layer::new(Op::PixelShuffle { factor: 2 }));
        }
        let tail_out = if self.task == ErNetTask::Dn12 {
            12
        } else {
            out_logical
        };
        layers.push(Layer::new(Op::Conv3x3 {
            in_c: c,
            out_c: tail_out,
            act: Activation::None,
        }));
        if self.task == ErNetTask::Dn12 {
            layers.push(Layer::new(Op::PixelShuffle { factor: 2 }));
        }
        Model::new(self.name(), in_logical, out_logical, layers)
    }
}

impl fmt::Display for ErNetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Error from parsing an ERNet model name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseErNetError(String);

impl fmt::Display for ParseErNetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid ERNet name: {}", self.0)
    }
}

impl std::error::Error for ParseErNetError {}

impl FromStr for ErNetSpec {
    type Err = ParseErNetError;

    /// Parses names like `SR4ERNet-B17R3N1` or `DnERNet-12ch-B8R2N5`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseErNetError(s.to_string());
        let (task, rest) = if let Some(r) = s.strip_prefix("SR4ERNet-") {
            (ErNetTask::Sr4, r)
        } else if let Some(r) = s.strip_prefix("SR2ERNet-") {
            (ErNetTask::Sr2, r)
        } else if let Some(r) = s.strip_prefix("DnERNet-12ch-") {
            (ErNetTask::Dn12, r)
        } else if let Some(r) = s.strip_prefix("DnERNet-") {
            (ErNetTask::Dn, r)
        } else {
            return Err(err());
        };
        let rest = rest.strip_prefix('B').ok_or_else(err)?;
        let rpos = rest.find('R').ok_or_else(err)?;
        let npos = rest.find('N').ok_or_else(err)?;
        if npos < rpos {
            return Err(err());
        }
        let b: usize = rest[..rpos].parse().map_err(|_| err())?;
        let r: usize = rest[rpos + 1..npos].parse().map_err(|_| err())?;
        let n: usize = rest[npos + 1..].parse().map_err(|_| err())?;
        if b == 0 || r == 0 || n > b {
            return Err(err());
        }
        Ok(ErNetSpec::new(task, b, r, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complexity::{ChannelMode, Complexity};

    #[test]
    fn names_round_trip() {
        for (task, b, r, n) in [
            (ErNetTask::Sr4, 34, 4, 0),
            (ErNetTask::Sr4, 17, 3, 1),
            (ErNetTask::Sr2, 10, 2, 5),
            (ErNetTask::Dn, 3, 1, 0),
            (ErNetTask::Dn12, 8, 2, 5),
        ] {
            let spec = ErNetSpec::new(task, b, r, n);
            let parsed: ErNetSpec = spec.name().parse().unwrap();
            assert_eq!(parsed, spec);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("SRXERNet-B1R1N0".parse::<ErNetSpec>().is_err());
        assert!("SR4ERNet-B0R1N0".parse::<ErNetSpec>().is_err());
        assert!("SR4ERNet-B4N1R3".parse::<ErNetSpec>().is_err());
        assert!("SR4ERNet-B4R3N9".parse::<ErNetSpec>().is_err());
        assert!("DnERNet".parse::<ErNetSpec>().is_err());
    }

    #[test]
    fn re_is_fractional() {
        assert_eq!(
            ErNetSpec::new(ErNetTask::Sr4, 17, 3, 1).re(),
            3.0 + 1.0 / 17.0
        );
        assert_eq!(ErNetSpec::new(ErNetTask::Dn, 3, 1, 0).re(), 1.0);
    }

    #[test]
    fn depth_is_b_plus_3_plus_k() {
        let dn = ErNetSpec::new(ErNetTask::Dn, 3, 1, 0).build().unwrap();
        assert_eq!(dn.depth_conv3x3(), 6);
        let sr4 = ErNetSpec::new(ErNetTask::Sr4, 17, 3, 1).build().unwrap();
        assert_eq!(sr4.depth_conv3x3(), 17 + 3 + 2);
        let sr2 = ErNetSpec::new(ErNetTask::Sr2, 10, 2, 0).build().unwrap();
        assert_eq!(sr2.depth_conv3x3(), 10 + 3 + 1);
    }

    #[test]
    fn scales_match_task() {
        assert_eq!(
            ErNetSpec::new(ErNetTask::Sr4, 4, 1, 0)
                .build()
                .unwrap()
                .output_scale(),
            4.0
        );
        assert_eq!(
            ErNetSpec::new(ErNetTask::Sr2, 4, 1, 0)
                .build()
                .unwrap()
                .output_scale(),
            2.0
        );
        assert_eq!(
            ErNetSpec::new(ErNetTask::Dn12, 4, 1, 0)
                .build()
                .unwrap()
                .output_scale(),
            1.0
        );
    }

    #[test]
    fn dn12_uses_12_channel_core() {
        let m = ErNetSpec::new(ErNetTask::Dn12, 8, 2, 5).build().unwrap();
        // input 3ch, unshuffled to 12, head to 32.
        let walk = m.channel_walk();
        assert_eq!(walk[0], 3);
        assert_eq!(walk[1], 12);
        assert_eq!(walk[2], 32);
        assert_eq!(*walk.last().unwrap(), 3);
    }

    #[test]
    fn first_n_modules_use_r_plus_1() {
        let m = ErNetSpec::new(ErNetTask::Dn, 4, 2, 2).build().unwrap();
        let expansions: Vec<usize> = m
            .layers()
            .iter()
            .filter_map(|l| match l.op {
                Op::ErModule { expansion, .. } => Some(expansion),
                _ => None,
            })
            .collect();
        assert_eq!(expansions, vec![3, 3, 2, 2]);
    }

    #[test]
    fn sr4_b17r3n1_intrinsic_complexity_matches_paper_scale() {
        // The paper's UHD30 pick; its intrinsic complexity must sit near (but
        // below) the 164 KOP/px budget divided by its NCR (~1.5).
        let m = ErNetSpec::new(ErNetTask::Sr4, 17, 3, 1).build().unwrap();
        let c = Complexity::of(&m, ChannelMode::Hardware);
        assert!(
            c.kop_per_pixel > 90.0 && c.kop_per_pixel < 130.0,
            "intrinsic {} KOP/px",
            c.kop_per_pixel
        );
    }

    #[test]
    fn global_residual_points_at_head() {
        let m = ErNetSpec::new(ErNetTask::Dn, 3, 1, 0).build().unwrap();
        let body_end = m
            .layers()
            .iter()
            .enumerate()
            .find(|(_, l)| l.skip.is_some())
            .map(|(i, l)| (i, l.skip.unwrap()))
            .unwrap();
        assert_eq!(body_end.1, SkipRef::Layer(0));
        assert_eq!(body_end.0, 1 + 3); // head + 3 modules
    }

    #[test]
    fn param_counts_are_small_models() {
        // Paper Section 5.2: VDSR 651K, SRResNet 1479K; ERNets are in the
        // same small-model class (well under ResNet-18's 11M).
        let m = ErNetSpec::new(ErNetTask::Sr4, 34, 4, 0).build().unwrap();
        let p = m.param_count();
        assert!(p > 800_000 && p < 2_600_000, "params {p}");
    }
}
