//! The paper-claims ledger, pinned byte for byte.
//!
//! `BENCH_paper.json` is the checked-in output of `bench_paper`: every
//! analytic section's rows. The first test regenerates it through the
//! library and compares; a change to any analytic number (timing, DRAM,
//! power, area, NBR/NCR) fails here. After an intended change, regenerate
//! with `cargo run --release -p ecnn-bench --bin bench_paper >
//! BENCH_paper.json` and read the diff. The second test checks the
//! ledger's own rules on the same rows.

use ecnn_bench::paper::{Ledger, Status};
use std::collections::HashSet;

const PINNED: &str = include_str!("../BENCH_paper.json");

#[test]
fn analytic_rows_match_the_checked_in_ledger() {
    let actual = Ledger::analytic().to_json();
    for (i, (got, want)) in actual.lines().zip(PINNED.lines()).enumerate() {
        assert_eq!(got, want, "BENCH_paper.json line {} differs", i + 1);
    }
    assert_eq!(
        actual.lines().count(),
        PINNED.lines().count(),
        "BENCH_paper.json has a different number of lines"
    );
    assert_eq!(actual, PINNED);
}

#[test]
fn rows_follow_the_ledger_rules() {
    let ledger = Ledger::analytic();
    let mut ids = HashSet::new();
    for row in ledger.rows() {
        assert!(ids.insert(row.id.as_str()), "duplicate claim id {}", row.id);
        let expected = match (row.paper, row.value) {
            (None, _) => Status::Measured,
            (Some(p), Some(v)) if p.lo <= v && v <= p.hi => Status::Pass,
            _ => Status::NotReproduced,
        };
        assert_eq!(row.status, expected, "{}", row.id);
        assert_eq!(
            row.reason.is_some(),
            row.status == Status::NotReproduced,
            "{}: every not_reproduced row, and only those, has a reason",
            row.id
        );
    }
}
