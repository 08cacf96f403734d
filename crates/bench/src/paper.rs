//! The paper-claims ledger: every number the evaluation reproduces, as a
//! typed [`Row`] beside the paper's value.
//!
//! Each table or figure of the paper is one [`Section`] that returns its
//! rows. A row carries a claim id (`fig19.SR4ERNet-B17R3N1.UHD30.fps`), the
//! reproduced value, its unit and, where the paper states one, the paper's
//! value as a closed range ([`Paper`]). The ranges follow one rule:
//!
//! * a printed point value gets ± half a unit of its last printed digit
//!   (also for "~" values: "~5M" is `[4.5, 5.5]` M) — [`Paper::point`];
//! * a stated range ("82–87%") is used as stated — [`Paper::range`];
//! * a stated bound ("at most 1.8 GB/s", "meets its spec") is one-sided —
//!   [`Paper::at_most`], [`Paper::at_least`];
//! * a shape claim ("NCR grows with depth") is a count of violations
//!   against `[0, 0]` — [`Paper::SHAPE`].
//!
//! The [`Status`] follows from the range alone: `pass` when the value lies
//! in it, `not_reproduced` otherwise (with the one-line reason its section
//! gives), `measured` when the paper gives no value.
//!
//! Analytic sections (timing, DRAM, power, area, NBR/NCR, ISA tables) are
//! deterministic and run in well under a second; `BENCH_paper.json` holds
//! their rows and `tests/paper_ledger.rs` pins it byte for byte. Trained
//! sections run at [`bench_scale`] and are recorded in
//! `BENCH_paper_trained.json`, unpinned.

use crate::bench_scale;
use ecnn_core::json::escape;
use std::fmt::Write as _;

mod analytic;
mod trained;

/// A paper value as a closed range; an infinite end is an open side.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Paper {
    /// Lower end (`-inf` for an upper bound).
    pub lo: f64,
    /// Upper end (`+inf` for a lower bound).
    pub hi: f64,
}

impl Paper {
    /// A shape claim: the value is a count of violations, which must be 0.
    pub const SHAPE: Paper = Paper { lo: 0.0, hi: 0.0 };

    /// A point value as the paper prints it (`"6.94"`, `"303"`), widened by
    /// half a unit of its last printed digit.
    pub fn point(printed: &str) -> Paper {
        let decimals = printed.split_once('.').map_or(0, |(_, frac)| frac.len());
        let mantissa: i64 = printed
            .replace('.', "")
            .parse()
            .unwrap_or_else(|_| panic!("paper value {printed:?} is not a decimal"));
        let scale = 10f64.powi(decimals as i32 + 1);
        Paper {
            lo: (mantissa * 10 - 5) as f64 / scale,
            hi: (mantissa * 10 + 5) as f64 / scale,
        }
    }

    /// A range the paper states.
    pub fn range(lo: f64, hi: f64) -> Paper {
        Paper { lo, hi }
    }

    /// A stated upper bound.
    pub fn at_most(hi: f64) -> Paper {
        Paper::range(f64::NEG_INFINITY, hi)
    }

    /// A stated lower bound.
    pub fn at_least(lo: f64) -> Paper {
        Paper::range(lo, f64::INFINITY)
    }
}

impl std::fmt::Display for Paper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.lo.is_finite(), self.hi.is_finite()) {
            (true, true) => write!(f, "[{}, {}]", self.lo, self.hi),
            (false, _) => write!(f, "<= {}", self.hi),
            (true, false) => write!(f, ">= {}", self.lo),
        }
    }
}

/// A row's standing against the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// The value lies in the paper's range.
    Pass,
    /// The value is missing or outside the paper's range.
    NotReproduced,
    /// The paper gives no value.
    Measured,
}

impl Status {
    /// The status as written in the ledger.
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Pass => "pass",
            Status::NotReproduced => "not_reproduced",
            Status::Measured => "measured",
        }
    }

    /// The status the range rule gives `value` against `paper`.
    fn of(value: Option<f64>, paper: Option<Paper>) -> Status {
        match (value, paper) {
            (_, None) => Status::Measured,
            (Some(v), Some(p)) if p.lo <= v && v <= p.hi => Status::Pass,
            _ => Status::NotReproduced,
        }
    }
}

/// One ledger row. Only this module builds rows, so each status follows
/// the range rule.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub struct Row {
    /// Claim id: `<table or figure>.<subject>.<quantity>`.
    pub id: String,
    /// The reproduced value, rounded to six significant digits; `None`
    /// where nothing is computed (e.g. a block flow that collapses).
    pub value: Option<f64>,
    /// Unit of `value` and of the paper range.
    pub unit: &'static str,
    /// The paper's value, when it states one.
    pub paper: Option<Paper>,
    /// Standing against `paper`, by the range rule.
    pub status: Status,
    /// Why the claim is not reproduced (only on `not_reproduced` rows).
    pub reason: Option<&'static str>,
}

/// `x` rounded to six significant digits.
fn sig6(x: f64) -> f64 {
    format!("{x:.5e}")
        .parse()
        .expect("a formatted float parses")
}

impl Row {
    /// Records why the claim misses; kept only when it does miss.
    fn unless(mut self, reason: &'static str) -> Row {
        if self.status == Status::NotReproduced {
            self.reason = Some(reason);
        }
        self
    }
}

/// The rows about one subject: ids `<subject>.<quantity>`.
struct Subject(String);

impl Subject {
    /// A quantity the paper gives no number for.
    fn measured(&self, quantity: &str, value: impl Into<Option<f64>>, unit: &'static str) -> Row {
        self.row(quantity, value.into(), unit, None)
    }

    /// A quantity checked against the paper's range.
    fn claim(
        &self,
        quantity: &str,
        value: impl Into<Option<f64>>,
        unit: &'static str,
        paper: Paper,
    ) -> Row {
        self.row(quantity, value.into(), unit, Some(paper))
    }

    fn row(
        &self,
        quantity: &str,
        value: Option<f64>,
        unit: &'static str,
        paper: Option<Paper>,
    ) -> Row {
        let value = value.map(sig6);
        Row {
            id: format!("{}.{quantity}", self.0),
            value,
            unit,
            paper,
            status: Status::of(value, paper),
            reason: None,
        }
    }
}

/// How a section is run.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// Deterministic and fast: pinned in `BENCH_paper.json`.
    Analytic(fn() -> Vec<Row>),
    /// Trains models; takes the [`bench_scale`] step multiplier.
    Trained(fn(usize) -> Vec<Row>),
}

/// One table or figure of the paper.
#[derive(Clone, Copy, Debug)]
pub struct Section {
    /// Section name (the `bench_paper` argument).
    pub name: &'static str,
    /// How it runs.
    pub kind: Kind,
}

impl Section {
    const fn analytic(name: &'static str, run: fn() -> Vec<Row>) -> Section {
        Section {
            name,
            kind: Kind::Analytic(run),
        }
    }

    const fn trained(name: &'static str, run: fn(usize) -> Vec<Row>) -> Section {
        Section {
            name,
            kind: Kind::Trained(run),
        }
    }
}

/// Every section, in the paper's order.
pub const SECTIONS: &[Section] = &[
    Section::analytic("motivation_bandwidth", analytic::motivation_bandwidth),
    Section::trained("fig2_sparsity", trained::fig2_sparsity),
    Section::analytic("fig5_overheads", analytic::fig5_overheads),
    Section::analytic("fig8_model_scan", analytic::fig8_model_scan),
    Section::trained("fig8_model_scan_trained", trained::fig8_model_scan),
    Section::analytic("table1_isa", analytic::table1_isa),
    Section::analytic("table2_config", analytic::table2_config),
    Section::trained("table3_training", trained::table3_training),
    Section::trained("table4_psnr", trained::table4_psnr),
    Section::trained("table5_quant", trained::table5_quant),
    Section::analytic("fig18_program", analytic::fig18_program),
    Section::analytic("table6_area_power", analytic::table6_area_power),
    Section::analytic("fig19_inference", analytic::fig19_inference),
    Section::analytic("fig20_power", analytic::fig20_power),
    Section::analytic("fig21_dram", analytic::fig21_dram),
    Section::analytic("table7_comparison", analytic::table7_comparison),
    Section::analytic("tableA1_dn12", analytic::table_a1_dn12),
    Section::trained("tableA1_dn12_trained", trained::table_a1_dn12),
    Section::analytic("app_style_transfer", analytic::app_style_transfer),
    Section::analytic("app_recognition", analytic::app_recognition),
    Section::trained("app_recognition_trained", trained::app_recognition),
    Section::analytic("ablation_banking", analytic::ablation_banking),
    Section::analytic("ablation_recompute", analytic::ablation_recompute),
];

/// The rows of a set of sections.
#[derive(Clone, Debug, PartialEq)]
pub struct Ledger {
    /// The training step multiplier, when a trained section ran.
    pub bench_scale: Option<usize>,
    /// Each section's name and rows, in [`SECTIONS`] order.
    pub sections: Vec<(&'static str, Vec<Row>)>,
}

impl Ledger {
    /// Runs the named sections (each once, in [`SECTIONS`] order). An
    /// unknown name is returned as the error.
    pub fn run(names: &[&str]) -> Result<Ledger, String> {
        if let Some(bad) = names
            .iter()
            .find(|n| SECTIONS.iter().all(|s| s.name != **n))
        {
            return Err(bad.to_string());
        }
        let chosen = SECTIONS.iter().filter(|s| names.contains(&s.name));
        let trained = chosen.clone().any(|s| matches!(s.kind, Kind::Trained(_)));
        let bench_scale = trained.then(bench_scale);
        let sections = chosen
            .map(|s| match s.kind {
                Kind::Analytic(run) => (s.name, run()),
                Kind::Trained(run) => (s.name, run(bench_scale.expect("read above"))),
            })
            .collect();
        Ok(Ledger {
            bench_scale,
            sections,
        })
    }

    /// Runs every analytic section: the rows of `BENCH_paper.json`.
    pub fn analytic() -> Ledger {
        let names: Vec<&str> = SECTIONS
            .iter()
            .filter(|s| matches!(s.kind, Kind::Analytic(_)))
            .map(|s| s.name)
            .collect();
        Ledger::run(&names).expect("registered names")
    }

    /// Every row, in order.
    pub fn rows(&self) -> impl Iterator<Item = &Row> {
        self.sections.iter().flat_map(|(_, rows)| rows)
    }

    /// The ledger as deterministic JSON, one row per line.
    pub fn to_json(&self) -> String {
        let sections: Vec<String> = self
            .sections
            .iter()
            .map(|(name, rows)| {
                let rows: Vec<String> = rows
                    .iter()
                    .map(|r| format!("        {}", r.to_json()))
                    .collect();
                let name = escape(name);
                format!(
                    "    {{\n      \"name\": {name},\n      \"rows\": [\n{}\n      ]\n    }}",
                    rows.join(",\n")
                )
            })
            .collect();
        let scale = self.bench_scale.map_or("null".into(), |s| s.to_string());
        format!(
            "{{\n  \"bench_scale\": {scale},\n  \"sections\": [\n{}\n  ]\n}}\n",
            sections.join(",\n")
        )
    }

    /// The ledger as one aligned text table.
    pub fn table(&self) -> String {
        let width = self.rows().map(|r| r.id.len()).max().unwrap_or(0);
        let mut out = String::new();
        for row in self.rows() {
            let value = row.value.map_or("-".into(), |v| v.to_string());
            let paper = row.paper.map_or(String::new(), |p| p.to_string());
            let status = row.status.as_str();
            let _ = write!(
                out,
                "{:<width$}  {value:>12} {:<11} {paper:<18} {status}",
                row.id, row.unit
            );
            if let Some(reason) = row.reason {
                let _ = write!(out, ": {reason}");
            }
            out.push('\n');
        }
        out
    }
}

impl Row {
    /// The row as one JSON object.
    fn to_json(&self) -> String {
        let num = |x: Option<f64>| {
            x.filter(|v| v.is_finite())
                .map_or("null".into(), |v| v.to_string())
        };
        let paper = self.paper.map_or("null".into(), |p| {
            format!(
                "{{\"lo\": {}, \"hi\": {}}}",
                num(Some(p.lo)),
                num(Some(p.hi))
            )
        });
        let reason = self
            .reason
            .map_or(String::new(), |r| format!(", \"reason\": {}", escape(r)));
        format!(
            "{{\"id\": {}, \"value\": {}, \"unit\": {}, \"paper\": {paper}, \"status\": \"{}\"{reason}}}",
            escape(&self.id),
            num(self.value),
            escape(self.unit),
            self.status.as_str(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_values_widen_by_half_their_last_digit() {
        assert_eq!(Paper::point("6.94"), Paper::range(6.935, 6.945));
        assert_eq!(Paper::point("303"), Paper::range(302.5, 303.5));
        assert_eq!(Paper::point("0.50"), Paper::range(0.495, 0.505));
    }

    #[test]
    fn status_follows_the_range() {
        let t = Subject("t".into());
        let p = Paper::point("6.94");
        assert_eq!(t.claim("a", 6.94, "W", p).status, Status::Pass);
        let miss = t.claim("b", 7.33, "W", p).unless("too hot");
        assert_eq!(
            (miss.status, miss.reason),
            (Status::NotReproduced, Some("too hot"))
        );
        assert_eq!(t.claim("c", 6.94, "W", p).unless("x").reason, None);
        assert_eq!(t.claim("d", None, "W", p).status, Status::NotReproduced);
        assert_eq!(t.measured("e", 1.0, "W").status, Status::Measured);
        assert_eq!(
            t.claim("f", 0.0, "count", Paper::SHAPE).status,
            Status::Pass
        );
        assert_eq!(
            t.claim("g", 31.4, "fps", Paper::at_least(30.0)).status,
            Status::Pass
        );
        assert_eq!(t.measured("h", 31.415926, "fps").value, Some(31.4159));
    }

    #[test]
    fn unknown_sections_are_named() {
        assert_eq!(Ledger::run(&["fig99"]), Err("fig99".into()));
    }
}
