//! Umbrella crate for the eCNN reproduction workspace.
//!
//! Re-exports the public API of every member crate so that examples and
//! integration tests can depend on a single package, plus a [`prelude`]
//! with the handful of types most programs need. See [`ecnn_core`] for
//! the high-level entry points.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
pub use ecnn_baselines as baselines;
pub use ecnn_core as core;
pub use ecnn_dram as dram;
pub use ecnn_isa as isa;
pub use ecnn_model as model;
pub use ecnn_nn as nn;
pub use ecnn_sim as sim;
pub use ecnn_tensor as tensor;

/// The common surface: one `use ecnn_repro::prelude::*;` covers building
/// an engine, streaming frames and comparing backends.
pub mod prelude {
    pub use ecnn_baselines::registry;
    pub use ecnn_core::config::{EngineConfig, EnvOverrides};
    pub use ecnn_core::engine::{
        Backend, EcnnBackend, Engine, EngineBuilder, EngineError, FrameReport, Session, Workload,
    };
    pub use ecnn_core::pipe::{AsyncSession, FramePoll, FrameTicket};
    pub use ecnn_core::SystemReport;
    pub use ecnn_isa::params::QuantizedModel;
    pub use ecnn_isa::verify::{VerifyMode, VerifyReport};
    pub use ecnn_model::ernet::{ErNetSpec, ErNetTask};
    pub use ecnn_model::RealTimeSpec;
}
