//! The coded parameter image, pinned byte for byte.
//!
//! Every shipped paper model plus DnERNet-B3R1N0 (the streaming
//! benchmark's model) is compiled with its deterministic demo parameters,
//! and each of its 21 parameter streams — 18 CONV3×3, 2 CONV1×1, one bias
//! — and its segment directory is reduced to a length and a 64-bit FNV-1a
//! digest. `tests/image_pin.txt` holds the expected table, one line per
//! stream: an encoder change that moves a single bit of any image fails
//! here. On a mismatch the test prints the whole actual table.

use ecnn_isa::compile::compile;
use ecnn_isa::params::{PackedParams, QuantizedModel};
use ecnn_model::ernet::{ErNetSpec, ErNetTask};

const PINNED: &str = include_str!("image_pin.txt");

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The pin lines of one model's image: `name | stream | length | digest`.
fn image_lines(name: &str, image: &PackedParams) -> Vec<String> {
    let line = |stream: String, bytes: &[u8]| {
        format!(
            "{name} | {stream} | {} | {:016x}",
            bytes.len(),
            fnv1a(bytes)
        )
    };
    let mut lines = Vec::new();
    for (s, bytes) in image.w3_streams.iter().enumerate() {
        lines.push(line(format!("w3[{s}]"), bytes));
    }
    for (s, bytes) in image.w1_streams.iter().enumerate() {
        lines.push(line(format!("w1[{s}]"), bytes));
    }
    lines.push(line("bias".into(), &image.bias_stream));
    let mut directory = Vec::new();
    for seg in &image.segments {
        for field in [
            seg.leaf_count,
            seg.w3_offset,
            seg.w1_offset,
            seg.bias_offset,
        ] {
            directory.extend_from_slice(&(field as u64).to_le_bytes());
        }
        directory.extend([u8::from(seg.has_w3), u8::from(seg.has_w1)]);
    }
    lines.push(format!(
        "{name} | segments | {} | {:016x}",
        image.segments.len(),
        fnv1a(&directory)
    ));
    lines.push(format!(
        "{name} | stats | {:.9} | {:.9}",
        image.stats.shannon_bits, image.stats.encoded_bits
    ));
    lines
}

#[test]
fn coded_images_match_the_pinned_table() {
    let dn = ErNetSpec::new(ErNetTask::Dn, 3, 1, 0).build().unwrap();
    let mut models = ecnn_bench::paper_models();
    models.push((
        "DnERNet-B3R1N0 @ 128".into(),
        QuantizedModel::uniform(&dn),
        128,
    ));
    assert_eq!(models.len(), 15);
    let actual: Vec<String> = models
        .iter()
        .flat_map(|(name, qm, xi)| {
            let c = compile(qm, *xi).unwrap_or_else(|e| panic!("{name}: {e}"));
            image_lines(name, &c.packed)
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
        "coded image differs from tests/image_pin.txt (first differing line {:?}); actual table:\n{}",
        first_diff.map(|i| (&actual[i], pinned[i])),
        actual.join("\n")
    );
}
