//! JSON string escaping for the deterministic hand-rolled writers:
//! [`crate::config::EngineConfig::to_json`], the paper ledger and
//! `ecnn-lint --json`. The offline vendor set's `serde` stub generates no
//! real codegen, so every JSON document in the workspace is formatted by
//! hand around this one escaper.

use std::fmt::Write as _;

/// `s` as a JSON string literal: quoted, with `"`, `\` and control
/// characters escaped.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_quotes_backslashes_and_controls() {
        assert_eq!(escape("plain"), "\"plain\"");
        assert_eq!(
            escape("quote \" back \\ nl \n tab \t bell \u{7}"),
            "\"quote \\\" back \\\\ nl \\n tab \\u0009 bell \\u0007\""
        );
        assert_eq!(escape("µs ✓"), "\"µs ✓\"");
    }
}
