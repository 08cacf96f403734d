//! `perfbench`: the repository benchmark of the eCNN host simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation runs one named workload closed loop for `--seconds`,
//! checks every output frame, and prints a human-readable report followed
//! by one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! Untraced runs (`--trace 0`) report the end-to-end metrics; traced runs
//! (`--trace 1`) record spans around every call into the layers, write
//! them out, and report the per-layer metrics. `README.md` beside this
//! crate defines every workload and metric.

mod calib;
mod check;
mod drive;
mod manifest;
mod probe;
mod trace;
mod workload;

use calib::{Calibration, NOMINAL_CHUNK_MS};
use drive::{Ctx, FrameRec, PipeProbe, Runner, Stop};
use ecnn_core::engine::{Engine, ImageRunStats};
use ecnn_core::partition_rows;
use ecnn_isa::verify::memplan::CostReport;
use ecnn_sim::timing::simulate_frame;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workload::Workload;

/// Engine builds, each followed by a session open, per run; `setup_s` is
/// their median.
const SETUP_REPS: usize = 15;
/// Calibration chunks timed before each setup repetition. Longer pauses
/// between builds made `setup_s` swing by up to 2x between runs.
const SETUP_CAL_CHUNKS: usize = 20;
/// Longest untraced twin loop of a traced run, seconds.
const TWIN_SECONDS: f64 = 10.0;
/// Fewest frames a latency percentile needs beyond it.
const TAIL_SAMPLES: usize = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn next_value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = next_value(&mut it, &flag)?,
            "--seed" => {
                args.seed = next_value(&mut it, &flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = next_value(&mut it, &flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match next_value(&mut it, &flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            println!("{}", result.json());
            if result.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: correctness check failed");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// One named, unit-carrying number of the result.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct RunResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl RunResult {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Builds the workload's engine, refusing any run whose configuration
/// was steered by an `ECNN_*` override or carries a fault plan.
fn build(wl: &Workload) -> Result<Engine, String> {
    let eng = Engine::builder()
        .ernet(wl.spec)
        .block(wl.block)
        .realtime(wl.realtime)
        .build()
        .map_err(|e| format!("engine build: {e}"))?;
    if !eng.env_overrides().is_empty() {
        return Err(format!(
            "refusing to run under ECNN_* overrides: {}",
            eng.env_overrides().join(", ")
        ));
    }
    if let Some(plan) = eng.fault_plan() {
        return Err(format!("refusing to run with a fault plan: {plan}"));
    }
    Ok(eng)
}

#[derive(Default)]
struct Setup {
    /// Build plus session open, seconds, per repetition.
    total: Vec<f64>,
    /// Build alone, seconds, per repetition.
    build: Vec<f64>,
    /// Mean calibration chunk time around the repetitions, ms.
    cal_ms: f64,
}

fn run(args: &Args) -> Result<RunResult, String> {
    let wl = workload::by_name(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?} (one of {})",
            args.workload,
            workload::NAMES.join(", ")
        )
    })?;
    let mut tr = Tracer::new(args.trace);
    let mut cal = Calibration::new(wl.workers());
    let mut setup = Setup::default();
    let mut setup_cal = Vec::with_capacity(SETUP_REPS);
    for rep in 1..=SETUP_REPS {
        setup_cal.push(cal.sample(SETUP_CAL_CHUNKS));
        let span = tr.enter("setup", None);
        let t = Instant::now();
        let eng = tr.span("EngineBuilder::build", None, || build(&wl))?;
        let built = t.elapsed();
        let runner = tr.span("session.open", None, || drive::open(&eng, wl.mode));
        setup.total.push(t.elapsed().as_secs_f64());
        setup.build.push(built.as_secs_f64());
        tr.exit(span);
        if rep == SETUP_REPS {
            setup.cal_ms = setup_cal.iter().sum::<f64>() / setup_cal.len() as f64;
            return measure(args, &wl, &eng, runner, setup, tr, cal);
        }
    }
    unreachable!("the last setup repetition measures")
}

pub(crate) fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of `v` (0 for an empty slice).
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Per-frame failures: errors, work-counter mismatches and window
/// mismatches against the whole-frame reference.
fn check_frames(
    eng: &Engine,
    ctx: &Ctx,
    frames: &[FrameRec],
    cost: &CostReport,
    blocks: usize,
) -> Vec<Option<String>> {
    let check = |f: &FrameRec| {
        let stats = match &f.result {
            Ok(stats) => stats,
            Err(e) => return Some(format!("error: {e}")),
        };
        check::work_matches(stats, cost, blocks)
            .and_then(|()| match &f.window {
                Some(w) => check::window_matches(eng, &ctx.wl.frame(ctx.seed, f.index), w),
                None => Ok(()),
            })
            .err()
    };
    // The references run after the timed loop, on the reference host's
    // two cores.
    let part = frames.len().div_ceil(2).max(1);
    std::thread::scope(|s| {
        let parts: Vec<_> = frames
            .chunks(part)
            .map(|chunk| s.spawn(move || chunk.iter().map(check).collect::<Vec<_>>()))
            .collect();
        parts
            .into_iter()
            .flat_map(|h| h.join().expect("a check thread panicked"))
            .collect()
    })
}

fn measure<'e>(
    args: &Args,
    wl: &Workload,
    eng: &'e Engine,
    mut runner: Runner<'e>,
    setup: Setup,
    mut tr: Tracer,
    mut cal: Calibration,
) -> Result<RunResult, String> {
    let manifest = manifest::manifest(wl, eng, args.seed, args.seconds, args.trace);
    println!(
        "perfbench {} | {} block {} | {}x{} in | seed {} | {} s | trace {}",
        wl.name,
        eng.model().name(),
        wl.block,
        wl.width,
        wl.height,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("manifest {manifest}");

    let warm_input = wl.frame(args.seed, 0);
    let (out_h, out_w) = eng.out_dims(&warm_input).map_err(|e| e.to_string())?;
    let (rows, cols) = eng.grid_dims(&warm_input).map_err(|e| e.to_string())?;
    let blocks = rows * cols;
    let cost = eng.cost_report();
    let do_side = eng.compiled().program.do_side;
    let ctx = Ctx {
        wl,
        seed: args.seed,
        out_h,
        out_w,
        do_side,
        windows: true,
    };

    // Untimed warm-up frame: pools, caches and worker threads settle.
    let warm = drive::timed_loop(
        &ctx,
        &mut runner,
        &mut Tracer::new(false),
        &mut cal,
        0,
        Stop::Frames(1),
    );
    if let Some(e) = warm.frames.iter().find_map(|f| f.result.as_ref().err()) {
        return Err(format!("warm-up frame: {e}"));
    }

    let main = drive::timed_loop(
        &ctx,
        &mut runner,
        &mut tr,
        &mut cal,
        1,
        Stop::Seconds(args.seconds),
    );
    let rss_mb = peak_rss_mb()?;
    let mut failures = check_frames(eng, &ctx, &main.frames, &cost, blocks);
    let mut global: Vec<String> = main.drain_error.iter().cloned().collect();

    // The serial workload's extra checks, on its last frame: parity with
    // the pipelined session, and a second kernel rung on one block.
    let mut pipe = PipeProbe::of_loop(&main, wl.workers());
    if let (Runner::Serial(_), Some((index, frame))) = (&runner, &main.last) {
        let pos = main
            .frames
            .iter()
            .position(|f| f.index == *index)
            .expect("the last frame is recorded");
        let stats = *main.frames[pos]
            .result
            .as_ref()
            .expect("the last frame succeeded");
        let input = wl.frame(args.seed, *index);
        let (verdict, probe) =
            drive::async_parity(eng, input.clone(), frame, &stats, *index, &mut tr);
        pipe = probe;
        let cell = (args.seed as usize).wrapping_add(*index) % blocks;
        let crop = check::block_crop(eng, &input, cell / cols, cell % cols);
        let rungs = tr.span("execute_with", Some(*index), || {
            check::kernel_rungs_agree(eng, &crop)
        });
        if let Err(e) = verdict.and(rungs) {
            failures[pos].get_or_insert(e);
        }
    }

    let sr = tr.span("Engine::system_report", None, || eng.system_report());
    let power_w = tr
        .span("Engine::frame_report", None, || eng.frame_report())
        .power_w
        .ok_or("the frame report carries no power estimate")?;

    // Host-time figures, wall clock and at the reference host's unloaded
    // speed (see `calib`).
    let (lat_ms, lat_norm) = main.latencies_ms();
    let (wall_mpix_per_s, mpix_per_s) = main.mpix_per_s(out_h * out_w);
    let setup_s = median(&setup.total) * NOMINAL_CHUNK_MS / setup.cal_ms;
    let stats: Vec<ImageRunStats> = main
        .frames
        .iter()
        .filter_map(|f| f.result.as_ref().ok().copied())
        .collect();
    let first_stats = stats.first().copied().unwrap_or_default();
    let macs_per_frame = (first_stats.exec.mac3 + first_stats.exec.mac1) as f64;

    // Edge waste: executed MACs beside the timing model's effective
    // (fractional, edge-clipped) blocks for this workload's geometry.
    let geo = simulate_frame(eng.compiled(), eng.model(), eng.machine(), out_w, out_h);
    let eff_blocks_geo = geo.cycles_per_frame as f64 / geo.cycles_per_block as f64;
    let eff_macs = cost.block_macs() as f64 * eff_blocks_geo;
    let offframe_share = 1.0 - eff_macs / macs_per_frame.max(1.0);

    let attempted = main.frames.len();
    let mut per_layer = Vec::new();
    if args.trace {
        // Tracing overhead: the first frames again, untraced, for at most
        // `TWIN_SECONDS`, which keeps a traced run within the time an
        // untraced one takes plus its probes.
        tr.set_on(false);
        let twin_ctx = Ctx {
            windows: false,
            ..ctx
        };
        let twin = drive::timed_loop(
            &twin_ctx,
            &mut runner,
            &mut tr,
            &mut cal,
            1,
            Stop::Seconds(args.seconds.min(TWIN_SECONDS)),
        );
        tr.set_on(true);
        let twin_failures = check_frames(eng, &twin_ctx, &twin.frames, &cost, blocks);
        global.extend(
            twin_failures
                .into_iter()
                .flatten()
                .map(|e| format!("untraced twin: {e}")),
        );
        let twin_mpix_per_s = twin.mpix_per_s(out_h * out_w).1;
        println!("tracing overhead: traced {mpix_per_s:.5} - untraced {twin_mpix_per_s:.5} Mpix/s");

        let p = probe::probe_layers(eng, wl, &mut runner, &warm_input, (rows, cols), &mut tr)?;
        let block_ms = median(&p.block_ms);
        let row_sum: f64 = p.row_ms.iter().sum();
        let block_sum: f64 = p.block_ms.iter().sum();
        let per_frame = pipe.frames.max(1) as f64;
        let n_frames = stats.len().max(1) as f64;
        let sum = |f: fn(&ImageRunStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
        let counters = pipe.counters;
        per_layer = vec![
            metric("build.engine_ms", median(&setup.build) * 1e3, "ms"),
            metric("build.compile_ms", median(&p.compile_ms), "ms"),
            metric("build.verify_ms", median(&p.verify_ms), "ms"),
            metric("build.plan_ms", median(&p.plan_ms), "ms"),
            metric("exec.block_ms_p50", block_ms, "ms"),
            metric(
                "exec.gmac_per_s",
                cost.block_macs() as f64 / block_ms / 1e6,
                "GMAC/s",
            ),
            metric("exec.macs_per_frame", macs_per_frame, "MAC"),
            metric("exec.eff_macs_per_frame", eff_macs, "MAC"),
            metric("exec.offframe_mac_share", offframe_share, "ratio"),
            metric(
                "exec.bb_bytes_per_frame",
                (first_stats.exec.bb_read_bytes + first_stats.exec.bb_write_bytes) as f64,
                "B",
            ),
            metric(
                "exec.planes_allocated_per_frame",
                sum(|s| s.exec.planes_allocated) / n_frames,
                "count",
            ),
            metric(
                "exec.narrow_share",
                sum(|s| s.exec.narrow_instrs) / sum(|s| s.exec.instructions).max(1.0),
                "ratio",
            ),
            metric("session.blocks_per_frame", blocks as f64, "count"),
            metric(
                "session.useful_block_ratio",
                (out_h * out_w) as f64 / (do_side * do_side * blocks) as f64,
                "ratio",
            ),
            metric("session.row_ms_p50", median(&p.row_ms), "ms"),
            metric("session.overhead_share", 1.0 - block_sum / row_sum, "ratio"),
            metric(
                "pipe.submit_block_ms",
                ms(pipe.submit_block) / per_frame,
                "ms",
            ),
            metric("pipe.claim_wait_ms", ms(pipe.claim_wait) / per_frame, "ms"),
            metric(
                "pipe.parallel_efficiency",
                blocks as f64 * block_ms / (pipe.workers as f64 * ms(pipe.wall) / per_frame),
                "ratio",
            ),
            metric(
                "pipe.bands_per_frame",
                partition_rows(rows, pipe.workers).len() as f64,
                "count",
            ),
            metric("pipe.retries", counters.retries.into(), "count"),
            metric("pipe.respawns", counters.respawns.into(), "count"),
            metric("pipe.deadline_hits", counters.deadline_hits.into(), "count"),
            metric("pipe.degradations", counters.degradations.into(), "count"),
            metric(
                "timing.cycles_per_block",
                sr.frame.cycles_per_block as f64,
                "cycles",
            ),
            metric(
                "timing.eff_blocks_per_frame",
                sr.frame.cycles_per_frame as f64 / sr.frame.cycles_per_block as f64,
                "count",
            ),
            metric("timing.lconv3_busy", sr.frame.lconv3_busy, "ratio"),
            metric(
                "memory.planned_peak_bytes",
                p.planned_peak_bytes as f64,
                "B",
            ),
            metric("memory.pool_peak_bytes", p.pool_peak_bytes as f64, "B"),
            metric(
                "trace.overhead_mpix_per_s",
                mpix_per_s - twin_mpix_per_s,
                "Mpix/s",
            ),
        ];
        print_table("per-layer metrics (traced run, wall clock)", &per_layer);
        if let Runner::Serial(_) = runner {
            let frame_p50 = median(&lat_ms);
            println!(
                "account: {blocks} blocks x exec.block_ms_p50 {block_ms:.1} ms = {:.1} ms, plus session \
                 overhead {:.1} ms (rows {row_sum:.1} ms - their blocks {block_sum:.1} ms), is {:.1}% \
                 of the wall-clock frame span p50 {frame_p50:.1} ms",
                blocks as f64 * block_ms,
                row_sum - block_sum,
                100.0 * (blocks as f64 * block_ms + row_sum - block_sum) / frame_p50,
            );
        }
        print_spans(&tr);
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/spans-{}-{}.jsonl",
            wl.name, args.seed
        ));
        tr.write_jsonl(&path, &manifest)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }

    let failed = failures.iter().filter(|f| f.is_some()).count();
    for (f, why) in main.frames.iter().zip(&failures) {
        if let Some(why) = why {
            eprintln!("frame {} failed: {why}", f.index);
        }
    }
    for why in &global {
        eprintln!("run check failed: {why}");
    }
    let end_to_end = vec![
        metric("out_mpix_per_s", mpix_per_s, "Mpix/s"),
        metric("frame_ms_p50", median(&lat_norm), "ms"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", rss_mb, "MB"),
        metric("sim_fps", sr.frame.fps, "fps"),
        metric("sim_dram_gbps", sr.dram_bandwidth_bps() / 1e9, "GB/s"),
        metric("sim_power_w", power_w, "W"),
    ];
    print_table(
        if args.trace {
            "end-to-end metrics (traced; the reported ones come from --trace 0)"
        } else {
            "end-to-end metrics (host times at the reference host's unloaded speed)"
        },
        &end_to_end,
    );
    println!("frame_ms_p50 over n={} frames", lat_norm.len());
    if lat_norm.len() >= 10 * TAIL_SAMPLES {
        println!(
            "frame_ms_p90 = {:.3} ms (n={})",
            quantile(&lat_norm, 0.9),
            lat_norm.len()
        );
    }
    println!(
        "wall clock: out_mpix_per_s {wall_mpix_per_s:.6} Mpix/s, frame_ms_p50 {:.3} ms, setup_s \
         {:.6} s; calibration chunk {:.3} ms in the loop, {:.3} ms in set-up (nominal \
         {NOMINAL_CHUNK_MS} ms)",
        median(&lat_ms),
        median(&setup.total),
        main.cal_ms(),
        setup.cal_ms,
    );
    println!(
        "frame_fail_ratio = {} ({failed} of {attempted} frames)",
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "edge waste: executed {macs_per_frame:.4e} MAC/frame in {blocks} blocks; timing model \
         {eff_macs:.4e} MAC/frame in {eff_blocks_geo:.2} effective blocks; off-frame share {:.1}%",
        100.0 * offframe_share
    );

    let metrics = if args.trace { per_layer } else { end_to_end };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", m.name));
    }
    Ok(RunResult {
        correct: failed == 0 && global.is_empty() && attempted > 0,
        attempted,
        failed,
        metrics,
    })
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("-- {title}");
    for m in metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn print_spans(tr: &Tracer) {
    println!("-- spans: count, total and self time per call");
    println!(
        "  {:<26} {:>6} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for row in tr.table() {
        println!(
            "  {:<26} {:>6} {:>12.3} {:>12.3}",
            row.name, row.count, row.total_ms, row.self_ms
        );
    }
}
