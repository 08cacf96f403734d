//! Table 4: PSNR of polished ERNet models per spec (CPU-scale training on
//! synthetic data — absolute values differ from the paper; the orderings
//! are the reproduced claim).

use ecnn_bench::{bench_scale, section};
use ecnn_model::ernet::{ErNetSpec, ErNetTask};
use ecnn_nn::data::{make_dataset, TaskKind};
use ecnn_nn::pipeline::{input_psnr, polish};
use ecnn_nn::schedule::repro_stages;

fn main() {
    let stage = &repro_stages(bench_scale())[1];
    section("Table 4: polished ERNet PSNR per spec (synthetic validation)");

    // Per family: the UHD30 (shallow) and HD30 (deep) picks. Deeper models
    // with more budget should score at least as well.
    let rows = [
        (
            "SR2ERNet UHD30",
            ErNetSpec::new(ErNetTask::Sr2, 4, 2, 0),
            TaskKind::Sr { scale: 2 },
        ),
        (
            "SR2ERNet HD30",
            ErNetSpec::new(ErNetTask::Sr2, 8, 2, 0),
            TaskKind::Sr { scale: 2 },
        ),
        (
            "DnERNet UHD30",
            ErNetSpec::new(ErNetTask::Dn, 3, 1, 0),
            TaskKind::denoise25(),
        ),
        (
            "DnERNet HD30",
            ErNetSpec::new(ErNetTask::Dn, 6, 1, 0),
            TaskKind::denoise25(),
        ),
    ];
    for (label, spec, task) in rows {
        let (_, psnr) = polish(spec, task, stage, 11);
        let val = make_dataset(task, 4, stage.patch, 11 ^ 0xCD);
        println!(
            "{label:<16} ({}): {psnr:.2} dB  [degraded input baseline: {:.2} dB]",
            spec.name(),
            input_psnr(&val)
        );
    }
    println!("(paper: HD30 picks match SRResNet/FFDNet; UHD30 SR4 beats VDSR by 0.49 dB)");
    println!("(run with ECNN_BENCH_SCALE>=10 for converged CPU trainings)");
}
