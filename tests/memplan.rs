//! The verified memory planner's contract, pinned from three sides:
//!
//! * **differential cost model** — the static [`cost_model`] totals must
//!   equal the observed `ExecStats` work counters of one block execution
//!   exactly, on every shipped paper model (the Table 4 / Appendix A
//!   matrix plus the style-transfer pair), whose `Simd` pixels also equal
//!   the `Packed` rung's;
//! * **peak audit** — the pool's observed resident-plane high-water mark
//!   never exceeds the planner's proven peak, in both the coalesced and
//!   the keyed layout, and the coalesced saving is realized at runtime
//!   (not just on paper);
//! * **coalescing safety** — coalesced execution is bit-identical to
//!   keyed execution across random scrambled/sparsified ERNet programs,
//!   both inference kinds, all kernel variants and shard counts 1/2/4;
//!   and forged programs with overlapping lifetimes (or outright alias
//!   hazards) never get their planes merged;
//! * **clipped edge blocks** — frames whose edge blocks run clipped
//!   extents tables still charge the cost model's full blocks, and the
//!   host MACs eSR-4K's edge block skips are pinned.

use ecnn_core::engine::{EcnnBackend, Engine, ImageRunStats, Workload};
use ecnn_core::supervise::ladder;
use ecnn_isa::compile::compile;
use ecnn_isa::instr::{FeatLoc, Instruction, Opcode, QSpec};
use ecnn_isa::params::{LeafParams, QuantizedModel};
use ecnn_isa::program::Program;
use ecnn_isa::verify::memplan::{cost_model, MemoryPlan};
use ecnn_isa::verify::{verify, verify_compiled};
use ecnn_model::ernet::{ErNetSpec, ErNetTask};
use ecnn_model::model::InferenceKind;
use ecnn_model::RealTimeSpec;
use ecnn_sim::exec::{execute_with, quantize_input, BlockPlan, Kernels, PlanePool};
use ecnn_sim::SimdLevel;
use ecnn_tensor::{ImageKind, QFormat, SyntheticImage, Tensor};
use proptest::prelude::*;

/// Overwrites every parameter of `qm` with seeded pseudo-random codes in
/// `[-8, 8]`, zeroing roughly `sparsity_pct`% of them (same generator as
/// the kernel-parity suite).
fn scramble(qm: &mut QuantizedModel, seed: u64, sparsity_pct: u64) {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as i64
    };
    for p in qm.layers.iter_mut().flatten() {
        for w in
            p.w3.iter_mut()
                .chain(p.w1.iter_mut())
                .chain(p.b3.iter_mut())
                .chain(p.b1.iter_mut())
        {
            let r = next();
            *w = if r.unsigned_abs() % 100 < sparsity_pct {
                0
            } else {
                (r.rem_euclid(17) - 8) as i16
            };
        }
    }
}

fn image_kind(sel: u64) -> ImageKind {
    match sel % 4 {
        0 => ImageKind::Smooth,
        1 => ImageKind::Edges,
        2 => ImageKind::Texture,
        _ => ImageKind::Mixed,
    }
}

/// A deterministic valid input block for `program`, compiled at block
/// size `xi`: a synthetic RGB block for camera-facing models (the
/// executor pixel-unshuffles internally where the program asks for it),
/// pseudo-random in-format codes for feature-space inputs like the style
/// decoder's.
fn input_for(program: &Program, xi: usize, seed: u64) -> Tensor<i16> {
    if program.di_channels == 3 || program.input_unshuffle.is_some() {
        let img = SyntheticImage::new(image_kind(seed), seed % 89).rgb(xi, xi);
        quantize_input(&img, program)
    } else {
        let mut state = seed | 1;
        Tensor::from_fn(
            program.di_channels,
            program.di_side,
            program.di_side,
            |_, _, _| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                program
                    .di_q
                    .quantize(((state >> 40) & 0xff_ffff) as f32 / (1 << 24) as f32)
            },
        )
    }
}

/// Differential oracle for the static cost model: on every shipped paper
/// model the [`cost_model`] totals equal the observed work counters of
/// one block execution field by field, its `Simd` output block equals
/// the `Packed` rung's on every available SIMD level, the verifier-side
/// keyed-peak
/// estimate equals the simulator-side [`BlockPlan::peak_plane_bytes`],
/// the observed resident peak stays under the proven coalesced peak, and
/// the eSR-4K pick saves at least the 25% the plan promises.
#[test]
fn static_cost_model_matches_observed_work_on_the_paper_matrix() {
    let mut checked_esr4k = false;
    for (i, (name, qm, xi)) in ecnn_bench::paper_models().into_iter().enumerate() {
        let c = compile(&qm, xi).expect(&name);
        let report = verify_compiled(&c);
        assert!(!report.has_errors(), "{name}: {:?}", report.diagnostics);
        let cost = cost_model(&c.program, &report);
        let plan = BlockPlan::new(&c.program, &c.leafs).expect(&name);
        assert!(plan.coalesced(), "{name}: clean model must coalesce");
        let mem = plan.memory_plan().expect("clean model licenses a plan");
        assert_eq!(
            mem.keyed_bytes,
            plan.peak_plane_bytes(),
            "{name}: keyed audit"
        );
        assert_eq!(cost.keyed_peak_bytes, mem.keyed_bytes, "{name}");
        assert_eq!(cost.memory.as_ref(), Some(mem), "{name}");
        assert!(mem.peak_bytes < mem.keyed_bytes, "{name}: no saving");
        if name.starts_with("SR4ERNet-B17R3N1") {
            // The acceptance bar: >= 25% peak plane bytes saved on eSR-4K.
            assert!(
                mem.saved_permille() >= 250,
                "eSR-4K saves only {}permille",
                mem.saved_permille()
            );
            checked_esr4k = true;
        }

        // Every shipped model runs narrow end to end: an instruction
        // that lost its licence would fall silently to the packed `i64`
        // kernels under `Simd`.
        let instrs = c.program.instructions.len();
        assert_eq!(plan.narrow_licensed(), instrs, "{name}: narrow licences");
        let input = input_for(&c.program, xi, 0x5eed ^ i as u64);
        let mut pool = PlanePool::new();
        let out = execute_with(&plan, &mut pool, &input, Kernels::Simd)
            .expect(&name)
            .clone();
        // Pixel oracle: `Packed` computes every channel in exact `i64`,
        // `Simd` skips the dead ones (zero-padded DI inputs, unread DO
        // outputs).
        let packed = execute_with(&plan, &mut PlanePool::new(), &input, Kernels::Packed)
            .expect(&name)
            .clone();
        assert_eq!(out, packed, "{name}: Simd vs Packed pixels");
        // Every other available rung, the scalar one included, agrees too.
        for level in SimdLevel::ALL {
            let Some(rung) = plan.clone().with_simd_level(level) else {
                continue;
            };
            let out = execute_with(&rung, &mut PlanePool::new(), &input, Kernels::Simd)
                .expect(&name)
                .clone();
            assert_eq!(out, packed, "{name}: Simd at {level} vs Packed pixels");
        }
        assert_eq!(
            pool.stats().narrow_instrs,
            instrs as u64,
            "{name}: narrow executions"
        );
        let work = pool.stats().work();
        assert_eq!(cost.mac3, work.mac3, "{name}: mac3");
        assert_eq!(cost.mac1, work.mac1, "{name}: mac1");
        assert_eq!(cost.bb_read_bytes, work.bb_read_bytes, "{name}: bb_read");
        assert_eq!(cost.bb_write_bytes, work.bb_write_bytes, "{name}: bb_write");
        assert_eq!(cost.di_bytes, work.di_bytes, "{name}: di");
        assert_eq!(cost.do_bytes, work.do_bytes, "{name}: do");
        assert_eq!(cost.instructions, work.instructions, "{name}: instructions");
        // The per-instruction breakdown is consistent with the totals.
        let mac3: u64 = cost.per_instr.iter().map(|ic| ic.mac3).sum();
        let bb_read: u64 = cost.per_instr.iter().map(|ic| ic.bb_read_bytes).sum();
        assert_eq!(mac3, cost.mac3, "{name}: per-instr mac3");
        assert_eq!(bb_read, cost.bb_read_bytes, "{name}: per-instr bb_read");
        // Peak audit: the observed high-water mark respects the proof.
        assert!(
            pool.peak_resident_bytes() <= plan.planned_peak_bytes(),
            "{name}: observed {} > planned {}",
            pool.peak_resident_bytes(),
            plan.planned_peak_bytes()
        );
    }
    assert!(checked_esr4k, "the eSR-4K pick must be in the matrix");
}

/// The peak invariant holds in *both* layouts of the same program, the
/// two layouts produce bit-identical output with identical work
/// counters, and the coalesced saving shows up in the pool's observed
/// footprint — not just in the plan.
#[test]
fn observed_peak_never_exceeds_planned_in_either_layout() {
    let spec = ErNetSpec::new(ErNetTask::Dn, 3, 1, 0);
    let qm = QuantizedModel::uniform(&spec.build().unwrap());
    let c = compile(&qm, 128).unwrap();
    let plan = BlockPlan::new(&c.program, &c.leafs).unwrap();
    let mut keyed = plan.clone();
    keyed.force_keyed();
    assert!(plan.coalesced());
    assert!(!keyed.coalesced());
    assert!(keyed.memory_plan().is_none());
    assert!(plan.planned_peak_bytes() < keyed.planned_peak_bytes());

    let input = input_for(&c.program, 128, 7);
    let mut cpool = PlanePool::new();
    let cout = execute_with(&plan, &mut cpool, &input, Kernels::Packed)
        .unwrap()
        .clone();
    let mut kpool = PlanePool::new();
    let kout = execute_with(&keyed, &mut kpool, &input, Kernels::Packed)
        .unwrap()
        .clone();
    assert_eq!(cout, kout, "layouts must be bit-identical");
    assert_eq!(cpool.stats().work(), kpool.stats().work());
    assert!(cpool.peak_resident_bytes() <= plan.planned_peak_bytes());
    assert!(kpool.peak_resident_bytes() <= keyed.planned_peak_bytes());
    assert!(
        cpool.peak_resident_bytes() < kpool.peak_resident_bytes(),
        "the proven saving must be realized at runtime"
    );
}

/// The layout choice survives the engine / sharding plumbing
/// bit-identically: a coalesced engine, a session on the keyed floor rung
/// (`Engine::session_at`) and `Engine::run_image_sharded` at shard counts
/// 1/2/4 all produce the same image, and the engine's cost report
/// surfaces both layouts' peaks.
#[test]
fn layout_choice_survives_engines_and_shards_bit_identically() {
    let w = Workload::ernet(
        ErNetSpec::new(ErNetTask::Dn, 2, 1, 0),
        40,
        RealTimeSpec::HD30,
    )
    .unwrap();
    let img = SyntheticImage::new(ImageKind::Edges, 31).rgb(80, 80);

    let ce = EcnnBackend::paper().engine(&w).unwrap();
    assert!(ce.coalesced());
    let (cout, _) = ce.run_image(&img).unwrap();
    let floor = *ladder(ce.kernels(), ce.coalesced())
        .last()
        .expect("ladders are non-empty");
    assert!(!floor.coalesce, "the floor rung is keyed");
    let mut keyed = ce.session_at(floor);
    assert_eq!(
        keyed.process(&img).unwrap(),
        &cout,
        "keyed floor-rung parity"
    );

    for shards in [1usize, 2, 4] {
        let (a, _) = ce.run_image_sharded(&img, shards).unwrap();
        assert_eq!(a, cout, "coalesced x{shards} parity");
    }

    // The static picture: one licensed plan, below the keyed peak.
    let cost = ce.cost_report();
    let mem = cost
        .memory
        .as_ref()
        .expect("clean workload licenses a plan");
    assert!(mem.peak_bytes < cost.keyed_peak_bytes);
    assert_eq!(cost.planned_peak_bytes(), mem.peak_bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random scrambled/sparsified ERNet programs execute bit-identically
    /// coalesced and keyed, over both inference kinds and the full kernel
    /// variant matrix (packed, reference, SIMD), with identical work
    /// counters and the peak invariant holding on every run.
    #[test]
    fn coalesced_execution_is_bit_identical_to_keyed(
        seed in 0u64..1_000_000,
        b in 1usize..4,
        r in 1usize..3,
        sel in 0usize..4,
        sparsity in 0u64..70,
        padded_sel in 0u64..2,
    ) {
        let task = match sel {
            0 => ErNetTask::Dn,
            1 => ErNetTask::Sr2,
            2 => ErNetTask::Sr4,
            _ => ErNetTask::Dn12,
        };
        let inference = if padded_sel == 1 {
            InferenceKind::ZeroPadded
        } else {
            InferenceKind::TruncatedPyramid
        };
        let n = if b > 1 { 1 } else { 0 };
        let m = ErNetSpec::new(task, b, r, n)
            .build()
            .unwrap()
            .with_inference(inference);
        let mut qm = QuantizedModel::uniform(&m);
        scramble(&mut qm, seed, sparsity);
        let side = if task == ErNetTask::Dn12 { 48 } else { 32 };
        let c = compile(&qm, side).unwrap();
        let img = SyntheticImage::new(image_kind(seed), seed % 89).rgb(side, side);
        let input = quantize_input(&img, &c.program);

        let plan = BlockPlan::new(&c.program, &c.leafs).unwrap();
        // Scrambled-but-legal parameters must not cost the license: the
        // plan is a function of the program's structure, not its values.
        prop_assert!(plan.coalesced());
        let mut keyed = plan.clone();
        keyed.force_keyed();

        for k in [Kernels::Packed, Kernels::Reference, Kernels::Simd] {
            let mut cpool = PlanePool::new();
            let cout = execute_with(&plan, &mut cpool, &input, k).unwrap().clone();
            let mut kpool = PlanePool::new();
            let kout = execute_with(&keyed, &mut kpool, &input, k).unwrap().clone();
            prop_assert_eq!(&cout, &kout);
            prop_assert_eq!(cpool.stats().work(), kpool.stats().work());
            prop_assert!(cpool.peak_resident_bytes() <= plan.planned_peak_bytes());
            prop_assert!(kpool.peak_resident_bytes() <= keyed.planned_peak_bytes());
        }
    }
}

// --- Forged programs: the pass must refuse unsafe sharing -------------

/// One leaf whose only tap is `w` at the 3×3 center of channel 0 (same
/// fixture as the verifier suite).
fn identity_leaf(w: i16) -> LeafParams {
    let mut leaf = LeafParams::zero();
    leaf.w3[4] = w;
    leaf
}

/// A minimal DI → DO single-CONV program (truncated pyramid, 16 → 14)
/// that verifies completely clean.
fn single_conv() -> (Program, Vec<Vec<LeafParams>>) {
    let dst_q = QFormat::signed(5);
    let ins = Instruction {
        opcode: Opcode::Conv,
        inference: InferenceKind::TruncatedPyramid,
        src: FeatLoc::di(),
        dst: FeatLoc::dout(),
        src_s: None,
        in_groups: 1,
        out_groups: 1,
        expansion: 1,
        in_size: (16, 16),
        out_size: (14, 14),
        relu: false,
        pool: None,
        pool_factor: 1,
        q: QSpec {
            src: QFormat::unsigned(8),
            dst: dst_q,
            src_s: None,
            mid: None,
            w3: QFormat::signed(7),
            b3: QFormat::signed(7),
            w1: None,
            b1: None,
        },
        param_restart: 0,
        layer: 0,
    };
    let program = Program {
        name: "single-conv".into(),
        instructions: vec![ins],
        inference: InferenceKind::TruncatedPyramid,
        di_side: 16,
        di_channels: 1,
        di_q: QFormat::unsigned(8),
        do_side: 14,
        do_channels: 1,
        do_q: dst_q,
        input_unshuffle: None,
        bb_overflow: false,
    };
    (program, vec![vec![identity_leaf(1)]])
}

/// A forged (clean) program whose `BB0` plane is still live when `BB1`
/// is born: head DI→BB0, mid BB0→BB1 (a dead store — lint, not error),
/// tail BB0→DO. The planner must give the two overlapping planes
/// different slots while still folding the disjoint ones together, and
/// both layouts must execute identically.
#[test]
fn forged_overlapping_lifetimes_refuse_to_share_a_slot() {
    let (mut p, mut l) = single_conv();
    let q5 = QFormat::signed(5);
    let mut head = p.instructions[0].clone();
    head.dst = FeatLoc::bb(0);
    let mut mid = head.clone();
    mid.src = FeatLoc::bb(0);
    mid.dst = FeatLoc::bb(1);
    mid.in_size = (14, 14);
    mid.out_size = (12, 12);
    mid.q.src = q5;
    let mut tail = mid.clone();
    tail.dst = FeatLoc::dout();
    p.instructions = vec![head, mid, tail];
    p.do_side = 12;
    l = vec![l[0].clone(), vec![identity_leaf(1)], vec![identity_leaf(1)]];

    let report = verify(&p, &l);
    assert!(!report.has_errors(), "{:?}", report.diagnostics);
    let m = MemoryPlan::build(&report).expect("lints alone do not cost the license");
    // Plane table order: [DI, BB0, BB1, DO].
    assert_eq!(m.plane_slots.len(), 4);
    assert_ne!(
        m.plane_slots[1], m.plane_slots[2],
        "BB1 is born while BB0 is live — sharing would corrupt the tail read"
    );
    assert!(m.slots() < 4, "the disjoint planes must still coalesce");

    let plan = BlockPlan::new(&p, &l).unwrap();
    assert!(plan.coalesced());
    let mut keyed = plan.clone();
    keyed.force_keyed();
    let input = input_for(&p, 16, 3);
    let mut cpool = PlanePool::new();
    let cout = execute_with(&plan, &mut cpool, &input, Kernels::Reference)
        .unwrap()
        .clone();
    let mut kpool = PlanePool::new();
    let kout = execute_with(&keyed, &mut kpool, &input, Kernels::Reference)
        .unwrap()
        .clone();
    assert_eq!(cout, kout);
}

/// An alias-hazard program (in-place BB0→BB0 convolution) carries a hard
/// error: the planner refuses to emit any layout at all, and the
/// simulator's plan — if it constructs — falls back to keyed.
#[test]
fn alias_hazard_suppresses_the_coalescing_license() {
    let (mut p, mut l) = single_conv();
    let q5 = QFormat::signed(5);
    let mut head = p.instructions[0].clone();
    head.dst = FeatLoc::bb(0);
    let mut mid = head.clone();
    mid.src = FeatLoc::bb(0);
    mid.dst = FeatLoc::bb(0);
    mid.in_size = (14, 14);
    mid.out_size = (12, 12);
    mid.q.src = q5;
    let mut tail = mid.clone();
    tail.src = FeatLoc::bb(0);
    tail.dst = FeatLoc::dout();
    tail.in_size = (12, 12);
    tail.out_size = (10, 10);
    p.instructions = vec![head, mid, tail];
    p.do_side = 10;
    l = vec![l[0].clone(), vec![identity_leaf(1)], vec![identity_leaf(1)]];

    let report = verify(&p, &l);
    assert!(report.has_errors());
    assert!(
        MemoryPlan::build(&report).is_none(),
        "an erroneous report licenses no plan"
    );
    if let Ok(plan) = BlockPlan::new(&p, &l) {
        assert!(!plan.coalesced(), "unproven programs must stay keyed");
        assert!(plan.memory_plan().is_none());
    }
}

/// Edge blocks run clipped extents tables, yet the work counters keep
/// charging the compiled block: on a frame whose grid has right-edge,
/// bottom-edge and corner blocks, executed work equals the static cost
/// model's per-block counts times the block count, on the serial session
/// and on a 2-worker pipelined session.
#[test]
fn clipped_edge_blocks_still_charge_the_compiled_block() {
    let spec = ErNetSpec::new(ErNetTask::Dn, 2, 1, 0);
    let eng = Engine::builder().ernet(spec).block(40).build().unwrap();
    let xo = eng.compiled().program.do_side;
    // Three block rows by two block columns, the last of each clipped.
    let img = SyntheticImage::new(ImageKind::Mixed, 3).rgb(2 * xo + 5, xo + 7);
    let cost = eng.cost_report();
    let check = |stats: &ImageRunStats, what: &str| {
        assert_eq!(stats.blocks, 6, "{what}: blocks");
        let w = stats.exec.work();
        let pairs = [
            ("mac3", w.mac3, cost.mac3),
            ("mac1", w.mac1, cost.mac1),
            ("bb_read", w.bb_read_bytes, cost.bb_read_bytes),
            ("bb_write", w.bb_write_bytes, cost.bb_write_bytes),
            ("di", w.di_bytes, cost.di_bytes),
            ("do", w.do_bytes, cost.do_bytes),
            ("instructions", w.instructions, cost.instructions),
        ];
        for (name, got, per_block) in pairs {
            assert_eq!(got, per_block * 6, "{what}: {name}");
        }
    };
    let mut session = eng.session();
    session.process(&img).unwrap();
    check(&session.last_frame_stats(), "Session");
    let mut pipelined = eng.async_session(2);
    let ticket = pipelined.submit(img).unwrap();
    let (_, stats) = pipelined.wait(ticket).unwrap();
    check(&stats, "AsyncSession x2");
}

/// `esr4k_edge` keeps 248×344 of eSR-4K's one 346×346 output block. Its
/// clipped table runs 0.7675 of the full block's host MACs (channel
/// liveness counted): from 0.81 of the head instruction's area to 0.713
/// of the tail's, against the timing model's proportional 0.713.
#[test]
fn esr4k_edge_block_host_macs_are_pinned() {
    let spec = ErNetSpec::new(ErNetTask::Sr4, 17, 3, 1);
    let c = compile(&QuantizedModel::uniform(&spec.build().unwrap()), 128).unwrap();
    let plan = BlockPlan::new(&c.program, &c.leafs).unwrap();
    let charged = cost_model(&c.program, &verify_compiled(&c)).block_macs();
    assert_eq!(charged, 9_024_827_392);
    let ext = plan.clipped((248, 344)).expect("the edge keep clips");
    assert_eq!(ext.out(), (248, 344));
    // Every instruction keeps its full overlap margin: the head conv runs
    // 102×126 of its 126×126, the tail exactly the kept 248×344 of 346×346.
    let (full, clipped) = (plan.extents().instrs(), ext.instrs());
    assert_eq!((full[0].conv, clipped[0].conv), ((126, 126), (102, 126)));
    let tail = clipped.len() - 1;
    assert_eq!(
        (full[tail].conv, clipped[tail].conv),
        ((346, 346), (248, 344))
    );
    // The register-blocked sweep, which skips dead channels, runs on
    // every x86 rung; other hosts skip no channels.
    if let Some(plan) = plan.with_simd_level(SimdLevel::Sse2) {
        assert_eq!(charged - plan.dead_mac3(), 7_931_413_504);
        assert_eq!(charged - plan.skipped_macs(&ext), 6_087_502_336);
    }
}
