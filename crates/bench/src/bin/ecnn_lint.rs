//! `ecnn-lint` — static verification of the shipped paper models.
//!
//! Runs the [`mod@ecnn_isa::verify`] pass (plane re-derivation, fixed-point
//! interval analysis, liveness/aliasing checks) plus the plan cross-check
//! over every compiled paper model: the Table 4 / Appendix A ERNet matrix
//! and the Section 7.3 style-transfer pair. Each model's coded parameter
//! image is also decoded segment by segment (`PackedParams::unpack`); an
//! image that does not decode to the compiler's leaves is a hard error.
//!
//! Flags:
//!
//! * `--cost` — additionally run the `verify::memplan` static cost model:
//!   per-model MAC / traffic totals (proven equal to one block execution's
//!   observed work counters) and the keyed vs coalesced peak plane bytes.
//! * `--json` — machine-readable output: one JSON document on stdout
//!   (diagnostics embedded; with `--cost` also the cost/memory table) and
//!   nothing else, for CI consumption. `BENCH_memory.json` is the checked-
//!   in snapshot of `ecnn-lint --json --cost`.
//!
//! Exit codes (CI-friendly, independent of flags):
//!
//! * `0` — every program verifies clean (no errors, no lints),
//! * `1` — lints only (warnings printed, hard guarantees hold),
//! * `2` — at least one hard error (overflow, aliasing, shape, …).

use ecnn_core::json::escape;
use ecnn_isa::compile::{compile, CompiledProgram};
use ecnn_isa::params::QuantizedModel;
use ecnn_isa::verify::memplan::{cost_model, CostReport};
use ecnn_isa::verify::{DiagCode, Diagnostic, Proven, Severity, VerifyReport};
use ecnn_sim::exec::crosscheck_proven;
use std::fmt::Write as _;

/// A program-level finding raised by the harness itself (compile or plan
/// failure on a model the verifier should have been able to check).
fn harness_error(detail: String) -> Diagnostic {
    Diagnostic {
        code: DiagCode::PlanDivergence,
        severity: Severity::Error,
        instr: None,
        detail,
    }
}

/// One model's lint (and optional cost) results.
struct ModelReport {
    name: String,
    instructions: usize,
    report: VerifyReport,
    cost: Option<CostReport>,
}

/// Verifies one compiled model, optionally running the static cost model.
fn lint_one(name: &str, qm: &QuantizedModel, block: usize, want_cost: bool) -> ModelReport {
    let compiled = match compile(qm, block) {
        Ok(c) => c,
        Err(e) => {
            let mut rpt = VerifyReport::default();
            rpt.diagnostics
                .push(harness_error(format!("compilation failed: {e}")));
            return ModelReport {
                name: name.to_string(),
                instructions: 0,
                report: rpt,
                cost: None,
            };
        }
    };
    let proof = Proven::new(compiled);
    let mut report = proof.report().clone();
    report
        .diagnostics
        .extend(image_mismatch(proof.compiled()).map(harness_error));
    match crosscheck_proven(&proof) {
        Ok((_, divergences)) => report.diagnostics.extend(divergences),
        Err(e) => report.diagnostics.push(harness_error(format!(
            "BlockPlan rejected a verifier-admitted program: {e}"
        ))),
    }
    report.rank();
    let program = &proof.compiled().program;
    let cost = want_cost.then(|| cost_model(program, &report));
    ModelReport {
        name: name.to_string(),
        instructions: program.instructions.len(),
        report,
        cost,
    }
}

/// Decodes every instruction's segment of the coded parameter image, as
/// the IDU would, and names the first one that does not give back the
/// compiler's leaves.
fn image_mismatch(compiled: &CompiledProgram) -> Option<String> {
    for (i, (ins, leafs)) in compiled
        .program
        .instructions
        .iter()
        .zip(&compiled.leafs)
        .enumerate()
    {
        match compiled.packed.unpack(ins.param_restart as usize) {
            Ok(decoded) if decoded == *leafs => {}
            Ok(_) => {
                return Some(format!(
                    "instr {i}: the coded image decodes to other leaves"
                ))
            }
            Err(e) => return Some(format!("instr {i}: the coded image does not decode: {e}")),
        }
    }
    None
}

fn print_text(m: &ModelReport) {
    let (ne, nl) = (m.report.errors().count(), m.report.lints().count());
    let verdict = match (ne, nl) {
        (0, 0) => "clean".to_string(),
        (0, l) => format!("{l} lint(s)"),
        (e, l) => format!("{e} error(s), {l} lint(s)"),
    };
    println!("{}: {} instr, {verdict}", m.name, m.instructions);
    for d in &m.report.diagnostics {
        println!("  {d}");
    }
    if let Some(cost) = &m.cost {
        println!(
            "  cost: mac3 {} mac1 {} bb_read {} bb_write {} di {} do {}",
            cost.mac3,
            cost.mac1,
            cost.bb_read_bytes,
            cost.bb_write_bytes,
            cost.di_bytes,
            cost.do_bytes
        );
        match &cost.memory {
            Some(mem) => println!(
                "  memory: keyed {} B, coalesced {} B over {} slot(s) ({} planes), saved {}.{}%",
                mem.keyed_bytes,
                mem.peak_bytes,
                mem.slots(),
                mem.plane_slots.len(),
                mem.saved_permille() / 10,
                mem.saved_permille() % 10,
            ),
            None => println!(
                "  memory: keyed {} B, no coalescing license",
                cost.keyed_peak_bytes
            ),
        }
    }
}

/// Hand-rolled JSON (no serializer in the offline vendor set). Key order
/// and formatting are deterministic so CI can diff the output against the
/// checked-in `BENCH_memory.json` snapshot byte for byte.
fn print_json(models: &[ModelReport], exit: i32) {
    let mut out = String::new();
    out.push_str("{\n  \"models\": [\n");
    for (i, m) in models.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\n      \"name\": {},\n      \"instructions\": {},\n      \"errors\": {},\n      \"lints\": {},\n      \"diagnostics\": [",
            escape(&m.name),
            m.instructions,
            m.report.errors().count(),
            m.report.lints().count(),
        );
        for (j, d) in m.report.diagnostics.iter().enumerate() {
            let sev = match d.severity {
                Severity::Error => "error",
                Severity::Warning => "warning",
            };
            let _ = write!(
                out,
                "{}\n        {{\"code\": {}, \"severity\": \"{sev}\", \"instr\": {}, \"detail\": {}}}",
                if j == 0 { "" } else { "," },
                escape(d.code.as_str()),
                d.instr.map_or("null".to_string(), |n| n.to_string()),
                escape(&d.detail),
            );
        }
        if !m.report.diagnostics.is_empty() {
            out.push_str("\n      ");
        }
        out.push(']');
        if let Some(cost) = &m.cost {
            let _ = write!(
                out,
                ",\n      \"cost\": {{\n        \"mac3\": {},\n        \"mac1\": {},\n        \"bb_read\": {},\n        \"bb_write\": {},\n        \"di\": {},\n        \"do\": {},\n        \"instructions\": {}\n      }},\n      \"memory\": ",
                cost.mac3,
                cost.mac1,
                cost.bb_read_bytes,
                cost.bb_write_bytes,
                cost.di_bytes,
                cost.do_bytes,
                cost.instructions,
            );
            match &cost.memory {
                Some(mem) => {
                    let _ = write!(
                        out,
                        "{{\n        \"keyed_bytes\": {},\n        \"coalesced_bytes\": {},\n        \"slots\": {},\n        \"planes\": {},\n        \"saved_permille\": {}\n      }}",
                        mem.keyed_bytes,
                        mem.peak_bytes,
                        mem.slots(),
                        mem.plane_slots.len(),
                        mem.saved_permille(),
                    );
                }
                None => {
                    let _ = write!(
                        out,
                        "{{\n        \"keyed_bytes\": {},\n        \"coalesced_bytes\": null\n      }}",
                        cost.keyed_peak_bytes
                    );
                }
            }
        }
        let _ = write!(
            out,
            "\n    }}{}\n",
            if i + 1 == models.len() { "" } else { "," }
        );
    }
    let _ = write!(out, "  ],\n  \"exit\": {exit}\n}}");
    println!("{out}");
}

fn main() {
    let mut json = false;
    let mut want_cost = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--cost" => want_cost = true,
            other => {
                eprintln!("ecnn-lint: unknown flag {other} (expected --json and/or --cost)");
                std::process::exit(2);
            }
        }
    }

    let models = ecnn_bench::paper_models();
    let mut reports = Vec::with_capacity(models.len());
    let mut worst: Option<Severity> = None;
    for (name, qm, xi) in &models {
        let m = lint_one(name, qm, *xi, want_cost);
        for d in &m.report.diagnostics {
            worst = Some(worst.map_or(d.severity, |w| w.max(d.severity)));
        }
        if !json {
            print_text(&m);
        }
        reports.push(m);
    }
    let code = match worst {
        None => 0,
        Some(Severity::Warning) => 1,
        Some(Severity::Error) => 2,
    };
    if json {
        print_json(&reports, code);
    } else {
        println!("ecnn-lint: {} model(s) checked, exit {code}", reports.len());
    }
    std::process::exit(code);
}
