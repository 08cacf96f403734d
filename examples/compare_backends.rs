//! One workload, every flow: run the paper's UHD30 denoiser and x4
//! super-resolver through every registered backend — the eCNN simulator
//! and the four comparison baselines — and print one shared table.
//!
//! ```sh
//! cargo run --release --example compare_backends
//! ```

use ecnn_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for (label, spec) in [
        (
            "DnERNet-B3R1N0 (denoise)",
            ErNetSpec::new(ErNetTask::Dn, 3, 1, 0),
        ),
        (
            "SR4ERNet-B17R3N1 (x4 SR)",
            ErNetSpec::new(ErNetTask::Sr4, 17, 3, 1),
        ),
    ] {
        let workload = Workload::ernet(spec, 128, RealTimeSpec::UHD30)?;
        println!("\n=== {label} @ {} ===", workload.spec);
        let mut reports = Vec::new();
        for backend in registry() {
            reports.push(backend.frame_report(&workload)?);
        }
        println!("{}", FrameReport::table(&reports));
    }
    println!(
        "\n(block-based eCNN holds DRAM traffic near the output-image stream \
         while frame-based flows move every intermediate feature map; \
         fusion avoids the traffic but pays depth-linear SRAM.)"
    );
    Ok(())
}
