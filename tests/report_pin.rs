//! The static verifier's output, pinned line for line.
//!
//! Every shipped paper model plus DnERNet-B3R1N0 (the streaming
//! benchmark's model) is compiled with its deterministic demo parameters,
//! and so is one zero-padded recognition network whose second layer reads
//! a strictly positive plane, so that the zero-padding border term of the
//! 3×3 interval analysis decides its bounds. Each model's
//! [`VerifyReport`] is reduced to four lines: its per-instruction proven
//! ranges (every [`InstrRange`] field), its diagnostics, its plane table
//! and its coalesced [`MemoryPlan`], each a count and a 64-bit FNV-1a
//! digest of a canonical text rendering. `tests/report_pin.txt` holds the
//! expected table: a verifier change that moves one bound, finding or
//! slot of any model fails here. On a mismatch the test prints the whole
//! actual table.

use ecnn_isa::compile::compile;
use ecnn_isa::params::QuantizedModel;
use ecnn_isa::verify::memplan::MemoryPlan;
use ecnn_isa::verify::{verify_compiled, InstrRange, VerifyReport};
use ecnn_model::ernet::{ErNetSpec, ErNetTask};
use ecnn_model::model::InferenceKind;
use ecnn_model::zoo;

const PINNED: &str = include_str!("report_pin.txt");

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn range_text(r: &Option<InstrRange>) -> String {
    match r {
        None => "-".into(),
        Some(r) => format!(
            "acc {} {} er {} dst {} {} narrow {}",
            r.acc.0,
            r.acc.1,
            r.er_acc3
                .map_or("-".into(), |(lo, hi)| format!("{lo} {hi}")),
            r.dst.0,
            r.dst.1,
            r.narrow_acc
        ),
    }
}

/// The pin lines of one model's report: `name | section | count | digest`.
fn report_lines(name: &str, report: &VerifyReport) -> Vec<String> {
    let line = |section: &str, rows: Vec<String>| {
        format!(
            "{name} | {section} | {} | {:016x}",
            rows.len(),
            fnv1a(rows.join("\n").as_bytes())
        )
    };
    let ranges = report.ranges.iter().map(range_text).collect();
    let diagnostics = report
        .diagnostics
        .iter()
        .map(|d| format!("{:?} {:?} {:?} {}", d.code, d.severity, d.instr, d.detail))
        .collect();
    let planes = report
        .planes
        .iter()
        .map(|p| {
            format!(
                "{} {} {}x{} born {:?} last {:?}",
                p.loc, p.channels, p.height, p.width, p.born, p.last_use
            )
        })
        .collect();
    let memory = match MemoryPlan::build(report) {
        None => vec!["-".into()],
        Some(m) => vec![
            format!("slots {:?}", m.plane_slots),
            format!("bytes {:?}", m.slot_bytes),
            format!("peak {} keyed {}", m.peak_bytes, m.keyed_bytes),
        ],
    };
    vec![
        line("ranges", ranges),
        line("diagnostics", diagnostics),
        line("planes", planes),
        line("memplan", memory),
    ]
}

/// A zero-padded recognition network whose first layer has non-negative
/// weights and positive biases: its ReLU output, the second layer's
/// source, is bounded away from zero, so the border taps' zero hull (not
/// the interior product) sets that layer's lower bounds.
fn zero_padded_model() -> QuantizedModel {
    let mut qm = QuantizedModel::uniform(&zoo::recognition_tiny(4));
    assert_eq!(qm.model.inference(), InferenceKind::ZeroPadded);
    let first = qm.layers[0].as_mut().expect("layer 0 is a conv");
    for w in &mut first.w3 {
        *w = w.abs();
    }
    for b in &mut first.b3 {
        *b = 5;
    }
    qm
}

#[test]
fn verify_reports_match_the_pinned_table() {
    let dn = ErNetSpec::new(ErNetTask::Dn, 3, 1, 0).build().unwrap();
    let mut models = ecnn_bench::paper_models();
    models.push((
        "DnERNet-B3R1N0 @ 128".into(),
        QuantizedModel::uniform(&dn),
        128,
    ));
    models.push((
        "RecognitionTiny zero-padded @ 32".into(),
        zero_padded_model(),
        32,
    ));
    assert_eq!(models.len(), 16);
    let actual: Vec<String> = models
        .iter()
        .flat_map(|(name, qm, xi)| {
            let c = compile(qm, *xi).unwrap_or_else(|e| panic!("{name}: {e}"));
            report_lines(name, &verify_compiled(&c))
        })
        .collect();
    let pinned: Vec<&str> = PINNED.lines().collect();
    let first_diff = actual
        .iter()
        .map(String::as_str)
        .zip(&pinned)
        .position(|(a, p)| a != *p);
    assert!(
        first_diff.is_none() && actual.len() == pinned.len(),
        "verify report differs from tests/report_pin.txt (first differing line {:?}); actual table:\n{}",
        first_diff.map(|i| (&actual[i], pinned[i])),
        actual.join("\n")
    );
}
