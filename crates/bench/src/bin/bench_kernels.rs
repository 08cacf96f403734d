//! Kernel perf trajectory: times one eSR-4K block execution on every
//! kernel variant — the runtime-dispatched SIMD path, the SIMD path
//! pinned to the AVX2 rung (so an AVX-512 host times both rungs), the
//! packed flat-slice path and the kept scalar reference — over the same
//! plan, codes and run, and writes `BENCH_kernels.json` with the median
//! time per block and MAC/s per variant, so later changes can compare
//! against a recorded baseline.
//!
//! Every timing is one *block*, not one frame: a single `execute_with`
//! call of the engine's UHD30 pick (ERNet SR4, B=17, R=3, N=1) at its
//! 128-pixel input block — the work `Session::process` runs per block on
//! a 4K stream (a 4K frame is 84 such blocks). The JSON keeps its
//! historical `*_per_frame` key names (`median_ns_per_frame`,
//! `mac_per_frame`, …) for trajectory comparison; read them as per
//! block.
//!
//! Flags:
//!
//! * `--reps N` — timed repetitions per variant (default 7 fast / 3
//!   reference / 9 per lane count for `lanes`; `ECNN_BENCH_REPS` kept as
//!   a fallback).
//! * `--variant simd|simd-avx2|packed|reference|lanes` — run only the
//!   named variant (repeatable; default all). `simd-avx2` is skipped on a
//!   host without AVX2. Every variant but `lanes` runs one lane.
//! * `--json PATH` — output path (default `BENCH_kernels.json`).
//!
//! `mac_per_frame` and every `mac_per_s` count the accelerator's MACs
//! (`ExecStats`). `host_mac_per_frame` is what the `simd` variant
//! executes: that count minus the dead channels it skips
//! (`BlockPlan::dead_mac3`).
//!
//! The `simd` variant also times the same block clipped to its top-left
//! 248×344 (`simd-edge`): the corner block of the `esr4k_edge` frame,
//! which `Session::process` runs through `BlockPlan::clipped`'s table.
//! Its `edge_host_mac_per_frame` subtracts `BlockPlan::skipped_macs`.
//!
//! Every variant also records its pool's memory after the timed blocks:
//! `plane_bytes`, the feature planes' high-water mark
//! (`PlanePool::peak_resident_bytes`), and `scratch_bytes`, the
//! accumulators, lane band buffers and other scratch at capacity
//! (`PlanePool::scratch_bytes`), and the 3×3 sweeps per block that ran
//! on byte lanes (`ExecStats::byte_lane_sweeps`).
//!
//! The `simd` variant also times one DnERNet-B3R1N0 block at 128 on one
//! lane (`simd-dnernet`): the block each pipe worker of a streaming
//! denoiser runs, so its pool's `plane_bytes` and `scratch_bytes` are
//! the memory each such worker holds.
//!
//! The `lanes` variant (`simd-edge-lanes` in the JSON; it selects
//! `simd` too, for the block's MAC counts) times the edge
//! block at one lane and at the host's lanes (`BlockPlan::with_lanes`,
//! `available_parallelism`), alternating the two every rep, and times a
//! fixed integer MAC chunk ([`Calibration`]) right before each block.
//! Each block time is also reported scaled to the chunk's nominal speed,
//! so runs on a host whose speed drifts compare. It records the lane
//! forks per block and the cost of one fork (a scoped spawn and join of
//! `lanes − 1` idle threads) as a share of the N-lane block.

use ecnn_isa::compile::compile;
use ecnn_isa::params::QuantizedModel;
use ecnn_model::ernet::{ErNetSpec, ErNetTask};
use ecnn_sim::exec::{execute_at, quantize_input, BlockPlan, Extents, Kernels, PlanePool};
use ecnn_sim::SimdLevel;
use ecnn_tensor::{ImageKind, SyntheticImage, Tensor};
use std::hint::black_box;
use std::time::Instant;

fn median(mut ns: Vec<u128>) -> u128 {
    ns.sort_unstable();
    ns[ns.len() / 2]
}

fn env_reps(default: usize) -> usize {
    std::env::var("ECNN_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
        .max(1)
}

/// CPU features relevant to the dispatch ladder, as detected at runtime:
/// AVX2 and SSE2, the AVX-512F/BW + VNNI set the AVX-512 rung requires,
/// and the 256-bit AVX-VNNI extension no rung uses yet.
fn cpu_features() -> Vec<&'static str> {
    let mut f = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            f.push("avx2");
        }
        if is_x86_feature_detected!("sse2") {
            f.push("sse2");
        }
        if is_x86_feature_detected!("avx512f") {
            f.push("avx512f");
        }
        if is_x86_feature_detected!("avx512bw") {
            f.push("avx512bw");
        }
        if is_x86_feature_detected!("avx512vnni") {
            f.push("avx512vnni");
        }
        if is_x86_feature_detected!("avxvnni") {
            f.push("avxvnni");
        }
    }
    #[cfg(target_arch = "aarch64")]
    if std::arch::is_aarch64_feature_detected!("neon") {
        f.push("neon");
    }
    f
}

/// The kept top-left `(rows, cols)` of the timed edge block.
const EDGE_KEEP: (usize, usize) = (248, 344);

/// Host-speed calibration: a fixed integer multiply-accumulate chunk,
/// `i16` samples times `i16` weights into wrapping `i32` sums over 4 MB
/// of buffers, about a third of the edge block's planes. A neighbour on a
/// shared host slows every core for seconds at a time; a block time
/// divided by the chunk time taken just before it cancels that drift to
/// the degree the two slow alike. The chunk runs on one thread, so it
/// tracks the calling core, not whether the others are free for lanes.
struct Calibration {
    x: Vec<i16>,
    w: Vec<i16>,
    acc: Vec<i32>,
}

impl Calibration {
    /// Samples per buffer.
    const LEN: usize = 1 << 19;
    /// Chunk time on the idle 2-core AVX-512 VNNI VM `BENCH_kernels.json`
    /// was recorded on (the lowest of four 9-rep medians), ns.
    const NOMINAL_NS: f64 = 1_700_000.0;

    fn new() -> Self {
        Self {
            x: (0..Self::LEN).map(|i| (i % 509) as i16 - 254).collect(),
            w: (0..Self::LEN).map(|i| (i % 17) as i16 - 8).collect(),
            acc: vec![0; Self::LEN],
        }
    }

    /// Runs the chunk once and returns its time in ns.
    fn chunk_ns(&mut self) -> u128 {
        let t0 = Instant::now();
        for pass in 0..4i32 {
            let k = black_box(pass + 1);
            for ((a, &x), &w) in self.acc.iter_mut().zip(&self.x).zip(&self.w) {
                *a = a.wrapping_add(i32::from(x).wrapping_mul(i32::from(w) + k));
            }
        }
        black_box(&mut self.acc);
        t0.elapsed().as_nanos()
    }

    /// `ns` as if the chunk beside it had run at its nominal speed.
    fn scaled(ns: u128, chunk_ns: u128) -> u128 {
        (ns as f64 * Self::NOMINAL_NS / chunk_ns as f64) as u128
    }
}

/// The median cost of one lane fork: a scoped spawn and join of
/// `lanes − 1` threads that do nothing, as `BlockPlan::with_lanes` forks
/// them once per instruction.
fn fork_ns(lanes: usize) -> u128 {
    let ns = (0..201)
        .map(|_| {
            let t0 = Instant::now();
            std::thread::scope(|s| {
                for _ in 1..lanes {
                    s.spawn(|| black_box(0));
                }
            });
            t0.elapsed().as_nanos()
        })
        .collect();
    median(ns)
}

/// Times the edge block `ext` of `plan` on the SIMD rung at one lane and
/// at `lanes`, alternating which runs first every rep, with a calibration
/// chunk before each block; checks that both lane counts produce the same
/// block.
fn time_lanes(
    plan: &BlockPlan<'_>,
    ext: &Extents,
    codes: &Tensor<i16>,
    lanes: usize,
    reps: usize,
) -> LaneTiming {
    let plans = [plan.clone().with_lanes(1), plan.clone().with_lanes(lanes)];
    let mut pools = [PlanePool::new(), PlanePool::new()];
    let mut calib = Calibration::new();
    let warm: Vec<_> = plans
        .iter()
        .zip(&mut pools)
        .map(|(p, pool)| {
            execute_at(p, ext, pool, codes, Kernels::Simd)
                .expect("warm-up")
                .clone()
        })
        .collect();
    assert_eq!(warm[0], warm[1], "{lanes} lanes change the edge block");
    let mark = pools[1].stats();
    let (mut raw, mut scaled, mut chunks) = ([vec![], vec![]], [vec![], vec![]], vec![]);
    for rep in 0..reps {
        for k in [rep % 2, 1 - rep % 2] {
            let chunk = calib.chunk_ns();
            let t0 = Instant::now();
            let out =
                execute_at(&plans[k], ext, &mut pools[k], codes, Kernels::Simd).expect("block");
            let ns = t0.elapsed().as_nanos();
            black_box(out);
            raw[k].push(ns);
            scaled[k].push(Calibration::scaled(ns, chunk));
            chunks.push(chunk);
        }
    }
    let [raw1, rawn] = raw;
    let [scaled1, scaledn] = scaled;
    LaneTiming {
        lanes,
        reps,
        one: (median(raw1), median(scaled1)),
        many: (median(rawn), median(scaledn)),
        chunk_ns: median(chunks),
        forks_per_block: pools[1]
            .stats()
            .delta_since(&mark)
            .per_frame(reps as u64)
            .lane_forks,
        fork_ns: fork_ns(lanes),
    }
}

/// The `lanes` variant's result.
struct LaneTiming {
    lanes: usize,
    reps: usize,
    /// Median raw and scaled ns per block, at one lane and at `lanes`.
    one: (u128, u128),
    many: (u128, u128),
    chunk_ns: u128,
    forks_per_block: u64,
    fork_ns: u128,
}

impl LaneTiming {
    /// The forks' cost as a share of the N-lane block.
    fn fork_share(&self) -> f64 {
        (self.forks_per_block as u128 * self.fork_ns) as f64 / self.many.0 as f64
    }
}

struct Measured {
    name: &'static str,
    median_ns: u128,
    mac_per_s: f64,
    reps: usize,
    narrow_instrs: u64,
    variant_tag: String,
    /// The pool's plane high-water mark (`PlanePool::peak_resident_bytes`).
    plane_bytes: usize,
    /// The pool's scratch at capacity (`PlanePool::scratch_bytes`).
    scratch_bytes: usize,
    /// 3×3 sweeps per block on byte lanes (`ExecStats::byte_lane_sweeps`).
    byte_lane_sweeps: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_kernels [--reps N] \
         [--variant simd|simd-avx2|packed|reference|lanes]... \
         [--json PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let mut reps_override: Option<usize> = None;
    let mut only: Vec<String> = Vec::new();
    let mut json_path = String::from("BENCH_kernels.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--reps" => {
                reps_override = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&r| r >= 1)
                        .unwrap_or_else(|| usage()),
                );
            }
            "--variant" => only.push(
                args.next()
                    .map(|v| v.to_ascii_lowercase())
                    .unwrap_or_else(|| usage()),
            ),
            "--json" => json_path = args.next().unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }
    if only.iter().any(|v| v == "lanes") && !only.iter().any(|v| v == "simd") {
        only.push("simd".into());
    }
    for v in &only {
        if !matches!(
            v.as_str(),
            "simd" | "simd-avx2" | "packed" | "reference" | "lanes"
        ) {
            eprintln!("unknown variant: {v}");
            usage();
        }
    }

    let spec = ErNetSpec::new(ErNetTask::Sr4, 17, 3, 1);
    let xi = 128usize;
    let m = spec.build().expect("paper model builds");
    let qm = QuantizedModel::uniform(&m);
    let compiled = compile(&qm, xi).expect("paper model compiles");
    let plan = BlockPlan::new(&compiled.program, &compiled.leafs).expect("plan");
    let avx2_plan = plan.clone().with_simd_level(SimdLevel::Avx2);
    let edge = plan
        .clipped(EDGE_KEEP)
        .expect("the edge keep clips eSR-4K's block");
    let img = SyntheticImage::new(ImageKind::Mixed, 9).rgb(xi, xi);
    let codes = quantize_input(&img, &compiled.program);
    let dn_spec = ErNetSpec::new(ErNetTask::Dn, 3, 1, 0);
    let dn_model = dn_spec.build().expect("paper model builds");
    let dnernet = compile(&QuantizedModel::uniform(&dn_model), xi).expect("paper model compiles");

    ecnn_bench::section(&format!("kernel bench: {spec} block {xi}"));
    let features = cpu_features();
    println!(
        "packed parameter cache: {} KiB  simd level: {}  cpu features: [{}]  \
         narrow-licensed instrs: {}/{}",
        plan.packed_bytes() / 1024,
        plan.simd_level(),
        features.join(", "),
        plan.narrow_licensed(),
        compiled.program.instructions.len(),
    );

    let variants: [(&'static str, Option<&BlockPlan<'_>>, Kernels, usize); 4] = [
        ("simd", Some(&plan), Kernels::Simd, env_reps(7)),
        ("simd-avx2", avx2_plan.as_ref(), Kernels::Simd, env_reps(7)),
        ("packed", Some(&plan), Kernels::Packed, env_reps(7)),
        ("reference", Some(&plan), Kernels::Reference, env_reps(3)),
    ];
    let mut results: Vec<Measured> = Vec::new();
    let mut macs_per_block = 0u64;
    // (steady-state allocations, packed instructions served) per block:
    // from the packed variant when it ran, else the first that did.
    let mut steady: Option<(u64, u64)> = None;
    // Times `reps` blocks of `vplan` at `ext` on `codes`; returns the
    // accelerator's MACs per block.
    let mut run = |name: &'static str,
                   vplan: &BlockPlan<'_>,
                   ext: &Extents,
                   codes: &Tensor<i16>,
                   kind,
                   reps| {
        let mut pool = PlanePool::new();
        // Warm-up: grows the arena to its peak so timed blocks are
        // steady-state.
        execute_at(vplan, ext, &mut pool, codes, kind).expect("warm-up");
        let warm = pool.stats();
        let mut ns = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t0 = Instant::now();
            let out = execute_at(vplan, ext, &mut pool, codes, kind).expect("block");
            ns.push(t0.elapsed().as_nanos());
            std::hint::black_box(out);
        }
        let delta = pool.stats().delta_since(&warm).per_frame(reps as u64);
        let macs = delta.mac3 + delta.mac1;
        if kind == Kernels::Packed || steady.is_none() {
            steady = Some((delta.planes_allocated, delta.params_reused));
        }
        let med = median(ns);
        let mac_per_s = macs as f64 / (med as f64 / 1e9);
        let (plane_bytes, scratch_bytes) = (pool.peak_resident_bytes(), pool.scratch_bytes());
        println!(
            "{name:>9}: median {:.3} ms/block  {:.2} GMAC/s  ({reps} reps, variant {}, \
             narrow instrs/block {}, byte-lane sweeps/block {}, planes {:.2} MB, \
             scratch {:.2} MB)",
            med as f64 / 1e6,
            mac_per_s / 1e9,
            delta.kernel_variant,
            delta.narrow_instrs,
            delta.byte_lane_sweeps,
            plane_bytes as f64 / 1e6,
            scratch_bytes as f64 / 1e6,
        );
        results.push(Measured {
            name,
            median_ns: med,
            mac_per_s,
            reps,
            narrow_instrs: delta.narrow_instrs,
            variant_tag: delta.kernel_variant.name().to_string(),
            plane_bytes,
            scratch_bytes,
            byte_lane_sweeps: delta.byte_lane_sweeps,
        });
        macs
    };
    for (name, vplan, kind, default_reps) in variants {
        if !only.is_empty() && !only.iter().any(|v| v == name) {
            continue;
        }
        let Some(vplan) = vplan else {
            println!("{name:>9}: skipped (rung not available on this CPU)");
            continue;
        };
        let reps = reps_override.unwrap_or(default_reps);
        macs_per_block = run(name, vplan, vplan.extents(), &codes, kind, reps);
        if name == "simd" {
            // The same plan and codes at the edge keep; `mac_per_s`
            // still counts the full block's MACs, as `ExecStats` does.
            run("simd-edge", vplan, &edge, &codes, kind, reps);
            let dn = &dnernet;
            let plan = BlockPlan::new(&dn.program, &dn.leafs).expect("plan");
            let img = SyntheticImage::new(ImageKind::Mixed, 9).rgb(xi, xi);
            let dn_codes = quantize_input(&img, &dn.program);
            run("simd-dnernet", &plan, plan.extents(), &dn_codes, kind, reps);
        }
    }

    let lane_timing = (only.is_empty() || only.iter().any(|v| v == "lanes")).then(|| {
        let lanes = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let t = time_lanes(
            &plan,
            &edge,
            &codes,
            lanes,
            reps_override.unwrap_or(env_reps(9)),
        );
        let ms = |ns: u128| ns as f64 / 1e6;
        println!(
            "{:>9}: 1 lane {:.3} ms/block (scaled {:.3})  {} lanes {:.3} ms/block (scaled {:.3})  \
             {:.2}x (scaled {:.2}x)  ({} reps, chunk {:.3} ms)",
            "lanes",
            ms(t.one.0),
            ms(t.one.1),
            t.lanes,
            ms(t.many.0),
            ms(t.many.1),
            t.one.0 as f64 / t.many.0 as f64,
            t.one.1 as f64 / t.many.1 as f64,
            t.reps,
            ms(t.chunk_ns),
        );
        println!(
            "{:>9}: {} forks/block, {:.1} us per fork: {:.2}% of the {}-lane block",
            "",
            t.forks_per_block,
            t.fork_ns as f64 / 1e3,
            100.0 * t.fork_share(),
            t.lanes,
        );
        t
    });
    if results.is_empty() {
        eprintln!("no variant ran");
        std::process::exit(1);
    }
    let (steady_allocs, params_reused) = steady.expect("every variant that ran recorded it");
    let find = |n: &str| results.iter().find(|r| r.name == n);
    let ratio = |a: Option<&Measured>, b: Option<&Measured>| -> Option<f64> {
        Some(a?.median_ns as f64 / b?.median_ns as f64)
    };
    let speedup_ref = ratio(find("reference"), find("packed"));
    let speedup_simd = ratio(find("packed"), find("simd"));
    let speedup_edge = ratio(find("simd"), find("simd-edge"));
    if let Some(s) = speedup_ref {
        println!("packed vs reference: {s:.2}x");
    }
    if let Some(s) = speedup_simd {
        println!("simd vs packed: {s:.2}x");
    }
    if let Some(s) = speedup_edge {
        println!(
            "simd full vs {}x{} edge block: {s:.2}x",
            EDGE_KEEP.0, EDGE_KEEP.1
        );
    }
    println!(
        "steady-state allocs/block: {steady_allocs}  \
         packed instructions served/block: {params_reused}"
    );
    // GMAC/s above counts the accelerator's MACs (`ExecStats`); the
    // `Simd` sweeps skip the dead channels of the RGB head and tail.
    let dead_macs = plan.dead_mac3();
    assert!(
        dead_macs <= macs_per_block,
        "dead MACs {dead_macs} exceed the block's {macs_per_block}"
    );
    let host_macs = macs_per_block - dead_macs;
    println!("host MACs/block under simd: {host_macs} of {macs_per_block}");
    let skipped = plan.skipped_macs(&edge);
    assert!(
        dead_macs < skipped && skipped <= macs_per_block,
        "the edge block skips {skipped} MACs: not between the dead {dead_macs} and the block's {macs_per_block}"
    );
    let edge_host_macs = macs_per_block - skipped;
    println!(
        "host MACs/block under simd at {}x{}: {edge_host_macs} ({:.4} of the full block's)",
        EDGE_KEEP.0,
        EDGE_KEEP.1,
        edge_host_macs as f64 / host_macs as f64
    );

    // Hand-rolled JSON (no serializer in the offline vendor set): the old
    // top-level fields are kept verbatim for trajectory comparison, the
    // per-variant objects grow `narrow_instrs_per_frame` + `variant`, and
    // new top-level fields record the dispatch decision.
    let mut json = format!(
        "{{\n  \"bench\": \"esr4k_block_execution\",\n  \"model\": \"{spec}\",\n  \
         \"block\": {xi},\n  \"mac_per_frame\": {macs_per_block},\n  \
         \"host_mac_per_frame\": {host_macs},\n  \
         \"edge_keep\": [{}, {}],\n  \"edge_host_mac_per_frame\": {edge_host_macs},\n  \
         \"simd_level\": \"{}\",\n  \"cpu_features\": [{}],\n  \
         \"narrow_licensed_instrs\": {},\n  \"program_instrs\": {},\n",
        EDGE_KEEP.0,
        EDGE_KEEP.1,
        plan.simd_level(),
        features
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect::<Vec<_>>()
            .join(", "),
        plan.narrow_licensed(),
        compiled.program.instructions.len(),
    );
    for r in &results {
        json.push_str(&format!(
            "  \"{}\": {{ \"median_ns_per_frame\": {}, \"mac_per_s\": {:.0}, \"reps\": {}, \
             \"variant\": \"{}\", \"narrow_instrs_per_frame\": {}, \
             \"byte_lane_sweeps_per_frame\": {}, \"plane_bytes\": {}, \"scratch_bytes\": {} }},\n",
            r.name,
            r.median_ns,
            r.mac_per_s,
            r.reps,
            r.variant_tag,
            r.narrow_instrs,
            r.byte_lane_sweeps,
            r.plane_bytes,
            r.scratch_bytes
        ));
    }
    if let Some(s) = speedup_ref {
        json.push_str(&format!("  \"speedup_packed_vs_reference\": {s:.3},\n"));
    }
    if let Some(s) = speedup_simd {
        json.push_str(&format!("  \"speedup_simd_vs_packed\": {s:.3},\n"));
    }
    if let Some(s) = speedup_edge {
        json.push_str(&format!("  \"speedup_simd_full_vs_edge\": {s:.3},\n"));
    }
    if let Some(t) = &lane_timing {
        json.push_str(&format!(
            "  \"simd-edge-lanes\": {{ \"lanes\": {}, \"reps\": {}, \
             \"median_ns_1_lane\": {}, \"median_ns_n_lanes\": {}, \
             \"scaled_ns_1_lane\": {}, \"scaled_ns_n_lanes\": {}, \
             \"calib_chunk_ns\": {}, \"calib_nominal_ns\": {}, \
             \"lane_forks_per_block\": {}, \"fork_ns\": {}, \"fork_share\": {:.5} }},\n  \
             \"speedup_lanes\": {:.3},\n  \"speedup_lanes_scaled\": {:.3},\n",
            t.lanes,
            t.reps,
            t.one.0,
            t.many.0,
            t.one.1,
            t.many.1,
            t.chunk_ns,
            Calibration::NOMINAL_NS,
            t.forks_per_block,
            t.fork_ns,
            t.fork_share(),
            t.one.0 as f64 / t.many.0 as f64,
            t.one.1 as f64 / t.many.1 as f64,
        ));
    }
    json.push_str(&format!(
        "  \"steady_state_allocs_per_frame\": {steady_allocs},\n  \
         \"packed_params_reused_per_frame\": {params_reused}\n}}\n"
    ));
    std::fs::write(&json_path, &json).expect("write bench json");
    println!("wrote {json_path}");
}
