//! Training substrate for the eCNN reproduction.
//!
//! The paper trains ERNets on GPU farms over DIV2K/Waterloo; this crate is
//! the offline, from-scratch CPU equivalent: a small but
//! real CNN trainer covering exactly the FBISA-supported layer set, plus the
//! paper's three-stage procedure (Section 4.2/4.3):
//!
//! 1. **Scan** — lightweight training of every candidate from
//!    `ecnn_model::scan` ([`pipeline::scan_stage`]).
//! 2. **Polish** — full training of the picked model.
//! 3. **Quantize + fine-tune** — dynamic fixed-point Q-format search by
//!    L1/L2 error (Eq. 4) and straight-through-estimator fine-tuning with
//!    clipped activations ([`quant`]).
//!
//! Ablation machinery for the motivation figures lives in [`prune`]
//! (magnitude pruning, Fig. 2a) and the depthwise ERNet variants built by
//! [`float_model::FloatModel::edsr_depthwise`] (Fig. 2b).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
pub mod data;
pub mod float_model;
pub mod pipeline;
pub mod prune;
pub mod quant;
pub mod schedule;
pub mod train;

pub use data::{make_dataset, TaskKind};
pub use float_model::{FloatModel, FopKind};
pub use quant::{fixed_forward, quantize, QuantConfig};
pub use train::{eval_psnr, train, TrainConfig, TrainStats};
