//! The eCNN processor simulator (paper Section 6).
//!
//! Three complementary views of the machine:
//!
//! * [`exec`] — a **functional**, bit-exact executor of FBISA programs:
//!   8-bit Q-format features and weights, full-precision accumulation, the
//!   ER internal requantization, `srcS` residual/partial-sum accumulation,
//!   pixel-shuffle and pooling write reorders. Validated against the
//!   `ecnn-tensor` golden kernels and the `ecnn-nn` fixed-point reference.
//!   Split into a plan phase ([`exec::BlockPlan`]: one up-front walk
//!   computing every plane's shape and lifetime, plus the packed
//!   kernel-parameter cache) and an execute phase ([`exec::execute_with`])
//!   running in place against a reusable [`exec::PlanePool`] arena.
//! * [`kernels`] — the flat-slice convolution micro-kernels the executor
//!   dispatches to (interior/border split over raw row slices), together
//!   with the kept scalar reference kernels used as perf baseline and
//!   parity oracle, and the explicit-SIMD variants in [`kernels::simd`]
//!   (AVX2/SSE2/NEON with runtime dispatch, plus the verifier-licensed
//!   narrow `i32` accumulation path).
//! * [`timing`] — the **cycle** model: the two-stage instruction pipeline
//!   (IDU parameter decoding for instruction *i+1* overlaps CIU compute of
//!   instruction *i*), one leaf-module per 4×2 tile per cycle in the CIU,
//!   256 decode cycles per leaf-module in the IDU, per-frame block counts
//!   and DRAM traffic.
//! * [`cost`] — the **area/power** model calibrated to the paper's Table 6
//!   layout results (55.23 mm², 6.94 W average at 40 nm), plus the
//!   eight-bank block-buffer
//!   conflict model of Fig. 17 in [`banking`].
//!
//! [`config`] holds the Table 2 machine constants shared by all views.

// `deny` rather than the workspace-wide `forbid`: the single audited
// [`kernels::simd`] module opts back in with a scoped `allow` for its
// `std::arch` intrinsics. Everything else in the crate stays unsafe-free
// (CI greps that `unsafe` appears nowhere outside `kernels/simd.rs`).
#![deny(unsafe_code)]
#![deny(missing_docs)]
pub mod banking;
pub mod config;
pub mod cost;
pub mod exec;
pub mod kernels;
pub mod timing;

pub use config::EcnnConfig;
pub use cost::{AreaReport, PowerReport};
pub use exec::{
    crosscheck_plan, crosscheck_proven, execute_traced, execute_with, BlockPlan, ExecError,
    ExecStats, ExecTrace, InstrTrace, KernelVariant, Kernels, PlaneInfo, PlanePool, RangeViolation,
};
pub use kernels::simd::SimdLevel;
pub use timing::{simulate_frame, FrameReport};
