//! The run manifest: where, on what, and under which resolved
//! configuration the numbers were taken.

use crate::workload::Workload;
use ecnn_core::engine::Engine;

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `git describe` of the working directory, never looking above it (the
/// benchmark may run from a plain copy of the sources).
fn git_describe() -> String {
    let Ok(cwd) = std::env::current_dir() else {
        return "unknown".into();
    };
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    std::process::Command::new("git")
        .args(["describe", "--always", "--tags"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// One JSON line: host, `nproc`, SIMD level, the workload, the engine's
/// resolved config, env overrides and fault plan, seed, run length,
/// tracing and `git describe`.
pub fn manifest(wl: &Workload, eng: &Engine, seed: u64, seconds: f64, trace: bool) -> String {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let overrides: Vec<String> = eng.env_overrides().iter().map(|o| json_str(o)).collect();
    let faults = eng
        .fault_plan()
        .map_or("null".to_string(), |p| json_str(&p.to_string()));
    format!(
        "{{\"host\": {}, \"nproc\": {nproc}, \"simd\": {}, \"workload\": {}, \"model\": {}, \
         \"input\": [{}, {}], \"workers\": {}, \"config\": {}, \"env_overrides\": [{}], \
         \"fault_plan\": {faults}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"git\": {}}}",
        json_str(&host),
        json_str(ecnn_sim::kernels::simd::detect().name()),
        json_str(wl.name),
        json_str(eng.model().name()),
        wl.width,
        wl.height,
        wl.workers(),
        eng.config().to_json(),
        overrides.join(", "),
        json_str(&git_describe()),
    )
}
