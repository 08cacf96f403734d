//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps every call it makes into a layer's public function
//! in a span (name, start, end, parent, frame id). Spans stay in memory
//! until the run ends, then go out as JSON lines plus a per-name table of
//! counts and self time. A disabled tracer records nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub frame: Option<usize>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; [`Tracer::exit`] closes it.
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Per-name aggregate of the spans: how many, and where the time went.
pub struct Row {
    pub name: &'static str,
    pub count: usize,
    pub total_ms: f64,
    pub self_ms: f64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, frame: Option<usize>) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            frame,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        self.spans[id].end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        frame: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.enter(name, frame);
        let out = f();
        self.exit(open);
        out
    }

    /// Per-name counts, total and self time (a span's duration minus the
    /// part its child spans cover), in order of first appearance.
    pub fn table(&self) -> Vec<Row> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut order: Vec<&'static str> = Vec::new();
        let mut rows: BTreeMap<&'static str, Row> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let row = rows.entry(s.name).or_insert_with(|| {
                order.push(s.name);
                Row {
                    name: s.name,
                    count: 0,
                    total_ms: 0.0,
                    self_ms: 0.0,
                }
            });
            row.count += 1;
            row.total_ms += s.dur_ns() as f64 / 1e6;
            row.self_ms += s.dur_ns().saturating_sub(*child) as f64 / 1e6;
        }
        order
            .into_iter()
            .filter_map(|name| rows.remove(name))
            .collect()
    }

    /// Writes every span as one JSON line, after a first line holding the
    /// run manifest.
    pub fn write_jsonl(&self, path: &Path, manifest: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{manifest}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"frame\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.frame),
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        let outer = tr.enter("outer", None);
        tr.span("inner", Some(1), || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        tr.exit(outer);
        let rows = tr.table();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "outer");
        assert!(rows[0].self_ms < rows[0].total_ms);
        assert!(rows[1].total_ms >= 5.0);
        assert_eq!(rows[1].total_ms, rows[1].self_ms);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        tr.span("x", None, || ());
        assert!(tr.table().is_empty());
    }
}
