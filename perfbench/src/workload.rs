//! The named workloads: which model, block size, input geometry and entry
//! point each one drives. `README.md` beside this crate records why each
//! was chosen.

use ecnn_model::ernet::{ErNetSpec, ErNetTask};
use ecnn_model::RealTimeSpec;
use ecnn_tensor::{ImageKind, SyntheticImage, Tensor};

/// The entry point a workload drives, always closed loop with one client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `Session::process`, one frame at a time on the calling thread.
    Serial,
    /// `AsyncSession` on `workers` threads with its default window
    /// (`2 * workers` frames), kept full: the client submits until
    /// `submit` blocks on back-pressure, then claims the oldest frame.
    Stream { workers: usize },
}

pub struct Workload {
    pub name: &'static str,
    pub spec: ErNetSpec,
    /// Input block side the engine compiles for.
    pub block: usize,
    /// Real-time target the simulated accelerator is reported at.
    pub realtime: RealTimeSpec,
    /// Input frame width and height, in pixels.
    pub width: usize,
    pub height: usize,
    pub mode: Mode,
    /// Whether whole-frame `fixed_forward` on the zero-extended frame is
    /// an oracle for this model. It is not for super-resolution, whose
    /// block stitching is not yet block-size invariant.
    pub whole_frame_oracle: bool,
}

pub const NAMES: [&str; 2] = ["esr4k_edge", "edn_stream"];

pub fn by_name(name: &str) -> Option<Workload> {
    let w = match name {
        "esr4k_edge" => Workload {
            name: "esr4k_edge",
            spec: ErNetSpec::new(ErNetTask::Sr4, 17, 3, 1),
            block: 128,
            realtime: RealTimeSpec::UHD30,
            width: 86,
            height: 62,
            mode: Mode::Serial,
            whole_frame_oracle: false,
        },
        "edn_stream" => Workload {
            name: "edn_stream",
            spec: ErNetSpec::new(ErNetTask::Dn, 3, 1, 0),
            block: 128,
            realtime: RealTimeSpec::UHD30,
            width: 232,
            height: 232,
            mode: Mode::Stream { workers: 2 },
            whole_frame_oracle: true,
        },
        _ => return None,
    };
    Some(w)
}

impl Workload {
    /// Input frame `i` of a run seeded with `seed`; consecutive frames
    /// always differ.
    pub fn frame(&self, seed: u64, i: usize) -> Tensor<f32> {
        SyntheticImage::new(ImageKind::Mixed, seed.wrapping_add(i as u64))
            .rgb(self.height, self.width)
    }

    /// Worker threads the workload runs on.
    pub fn workers(&self) -> usize {
        match self.mode {
            Mode::Serial => 1,
            Mode::Stream { workers } => workers,
        }
    }
}
