//! Table 6: area and power of eCNN (calibrated model, see `ecnn_sim::cost`).

use ecnn_bench::{model_matrix, report_row, section};
use ecnn_sim::cost::AreaReport;

fn main() {
    section("Table 6: area breakdown (TSMC 40 nm)");
    let a = AreaReport::paper_40nm(1.0);
    let t = a.total_mm2();
    println!(
        "LCONV3x3 engine   : {:>6.2} mm2 ({:>4.1}%)",
        a.lconv3_mm2,
        a.lconv3_mm2 / t * 100.0
    );
    println!(
        "LCONV1x1 engine   : {:>6.2} mm2 ({:>4.1}%)",
        a.lconv1_mm2,
        a.lconv1_mm2 / t * 100.0
    );
    println!(
        "block buffers     : {:>6.2} mm2 ({:>4.1}%)",
        a.block_buffers_mm2,
        a.block_buffers_mm2 / t * 100.0
    );
    println!(
        "parameter memory  : {:>6.2} mm2 ({:>4.1}%)",
        a.param_memory_mm2,
        a.param_memory_mm2 / t * 100.0
    );
    println!(
        "other (IDU, glue) : {:>6.2} mm2 ({:>4.1}%)",
        a.other_mm2,
        a.other_mm2 / t * 100.0
    );
    println!("total             : {:>6.2} mm2 (paper: 55.23)", t);
    println!(
        "3x param memory   : {:>6.2} mm2 (paper recognition variant: 63.99)",
        AreaReport::paper_40nm(3.0).total_mm2()
    );

    section("Table 6: average power across the polished models");
    let mut total = 0.0;
    let mut n = 0;
    for (rt, spec, xi) in model_matrix() {
        let r = report_row(spec, xi, rt);
        total += r.power.total_w();
        n += 1;
    }
    println!(
        "average power: {:.2} W (paper: 6.94 W at 0.9 V / 250 MHz)",
        total / n as f64
    );
}
