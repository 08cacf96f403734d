//! Baseline inference flows and comparison accelerators, exposed as
//! engine [`Backend`]s so that eCNN and every baseline run the same
//! [`Workload`](ecnn_core::engine::Workload) through one API.
//!
//! * [`framebased`] — the conventional layer-by-layer flow whose feature
//!   traffic Eq. (1) quantifies (the Section 2 motivation).
//! * [`fusion`] — the fused-layer line-buffer alternative (Alwani et al.):
//!   SRAM grows linearly with depth × width × channels.
//! * [`tpu`] — a SCALE-Sim-style output-stationary systolic-array model in
//!   the classical TPU configuration (Section 7.2's comparison).
//! * [`diffy`] — Diffy's activation-difference bit-sparsity compression
//!   applied to the frame-based flow, plus the published IDEAL/Diffy
//!   operating points used in Table 7.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
pub mod diffy;
pub mod framebased;
pub mod fusion;
pub mod tpu;

use ecnn_core::engine::{Backend, EcnnBackend};

pub use diffy::DiffyBackend;
pub use framebased::{frame_based_feature_bandwidth, FrameBasedBackend};
pub use fusion::{fused_line_buffer_bytes, FusionBackend};
pub use tpu::{TpuBackend, TpuConfig, TpuReport};

/// Every registered backend in paper order: the eCNN simulator first,
/// then the four comparison flows, all in their default (paper)
/// configurations.
pub fn registry() -> Vec<Box<dyn Backend>> {
    vec![
        Box::new(EcnnBackend::paper()),
        Box::new(FrameBasedBackend::default()),
        Box::new(FusionBackend::default()),
        Box::new(TpuBackend::classic()),
        Box::new(DiffyBackend::calibrated()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecnn_core::engine::Workload;
    use ecnn_model::ernet::{ErNetSpec, ErNetTask};
    use ecnn_model::RealTimeSpec;

    #[test]
    fn registry_covers_all_flows() {
        let backends = registry();
        let names: Vec<_> = backends.iter().map(|b| b.name().to_string()).collect();
        assert_eq!(
            names,
            ["ecnn", "frame-based", "fused-layer", "tpu", "diffy"]
        );
    }

    #[test]
    fn every_backend_reports_the_same_workload() {
        let w = Workload::ernet(
            ErNetSpec::new(ErNetTask::Dn, 3, 1, 0),
            128,
            RealTimeSpec::HD30,
        )
        .unwrap();
        for backend in registry() {
            let r = backend
                .frame_report(&w)
                .unwrap_or_else(|e| panic!("{}: {e}", backend.name()));
            assert_eq!(r.backend, backend.name());
            assert!(r.fps > 0.0, "{}: fps {}", backend.name(), r.fps);
            assert!(r.dram_bytes_per_frame > 0.0, "{}", backend.name());
        }
    }

    #[test]
    fn block_flow_moves_orders_of_magnitude_less_traffic() {
        // The paper's core claim, through the unified API: at HD30 the
        // frame-based flow needs far more DRAM bandwidth than eCNN.
        let w = Workload::ernet(
            ErNetSpec::new(ErNetTask::Dn, 3, 1, 0),
            128,
            RealTimeSpec::HD30,
        )
        .unwrap();
        let ecnn = EcnnBackend::paper().frame_report(&w).unwrap();
        let frame = FrameBasedBackend::default().frame_report(&w).unwrap();
        let diffy = DiffyBackend::calibrated().frame_report(&w).unwrap();
        assert!(frame.dram_bytes_per_frame > 20.0 * ecnn.dram_bytes_per_frame);
        // Diffy compresses the frame-based traffic but stays above eCNN.
        assert!(diffy.dram_bytes_per_frame < frame.dram_bytes_per_frame);
        assert!(diffy.dram_bytes_per_frame > ecnn.dram_bytes_per_frame);
    }
}
