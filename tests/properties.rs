//! Cross-crate property tests on the core invariants.

use ecnn_core::partition_rows;
use ecnn_isa::coding::{decode_segment, encode_segment};
use ecnn_isa::compile::compile;
use ecnn_isa::params::QuantizedModel;
use ecnn_model::blockflow::{nbr, ncr, plain_nbr, plain_ncr, FootprintWalk};
use ecnn_model::ernet::{ErNetSpec, ErNetTask};
use ecnn_model::layer::{Activation, Layer, Op};
use ecnn_model::{ChannelMode, Model};
use ecnn_sim::exec::PlanePool;
use ecnn_tensor::QFormat;
use proptest::prelude::*;

fn plain(depth: usize) -> Model {
    let mut layers = vec![Layer::new(Op::Conv3x3 {
        in_c: 3,
        out_c: 3,
        act: Activation::Relu,
    })];
    for _ in 1..depth {
        layers.push(Layer::new(Op::Conv3x3 {
            in_c: 3,
            out_c: 3,
            act: Activation::Relu,
        }));
    }
    Model::new("plain", 3, 3, layers).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Eq. (2) equals the exact walk on plain networks for any feasible
    /// (depth, block) pair.
    #[test]
    fn nbr_closed_form_matches_walk(depth in 1usize..15, xi in 40usize..200) {
        prop_assume!(xi > 2 * depth + 4);
        let m = plain(depth);
        let beta = depth as f64 / xi as f64;
        let exact = nbr(&m, xi as f64, 1.0).unwrap();
        prop_assert!((exact - plain_nbr(beta)).abs() < 1e-9);
    }

    /// NCR decreases monotonically with block size.
    #[test]
    fn ncr_monotone_in_block_size(depth in 2usize..10) {
        let m = plain(depth);
        let a = ncr(&m, 64.0, ChannelMode::Algorithmic).unwrap();
        let b = ncr(&m, 128.0, ChannelMode::Algorithmic).unwrap();
        let c = ncr(&m, 256.0, ChannelMode::Algorithmic).unwrap();
        prop_assert!(a > b && b > c);
        prop_assert!(c > 1.0);
        // And the closed form brackets the discrete sum within 10%.
        let closed = plain_ncr(depth as f64 / 128.0);
        prop_assert!((b - closed).abs() / closed < 0.10);
    }

    /// Forward/backward footprint walks are inverses.
    #[test]
    fn footprint_walks_invert(depth in 1usize..12, xi in 30usize..200) {
        prop_assume!(xi > 2 * depth + 2);
        let m = plain(depth);
        let f = FootprintWalk::forward(&m, xi as f64).unwrap();
        let b = FootprintWalk::backward(&m, f.xo()).unwrap();
        prop_assert!((b.xi() - xi as f64).abs() < 1e-9);
    }

    /// Entropy coding round-trips arbitrary i16 parameter segments.
    #[test]
    fn coding_round_trip(values in proptest::collection::vec(-255i16..=255, 0..200)) {
        let bytes = encode_segment(&values);
        let (decoded, _) = decode_segment(&bytes, values.len()).unwrap();
        prop_assert_eq!(decoded, values);
    }

    /// Q-format quantization error is bounded by half a step inside range.
    #[test]
    fn qformat_error_bound(frac in -4i8..10, x in -100.0f32..100.0) {
        let q = QFormat::signed(frac);
        let clipped = x.clamp(q.min_value(), q.max_value());
        let err = (q.round_trip(x) - clipped).abs();
        prop_assert!(err <= q.step() / 2.0 + 1e-5, "err {} step {}", err, q.step());
    }

    /// The plane pool never hands out an aliased live plane: however the
    /// arena recycles storage across checkouts (same slot, shrinking or
    /// growing shapes), the planes of distinct slots occupy disjoint
    /// memory, and every checkout's accounting lands in exactly one of
    /// the two pool counters.
    #[test]
    fn plane_pool_never_aliases_live_planes(
        seeds in proptest::collection::vec(0usize..1_000_000, 1..32)
    ) {
        // As many slots as the 3 buffers x 4 groups plus 4 DI and 4 DO
        // groups a keyed table could hold.
        const SLOTS: usize = 20;
        let mut pool = PlanePool::new();
        let mut checkouts = 0u64;
        // Two passes: the second revisits every slot and recycles storage.
        for _pass in 0..2 {
            for &s in &seeds {
                // Decode a slot and a shape from the seed: a handful of
                // slots, sides 1..=24.
                let slot = s % SLOTS;
                let side = 1 + s / 37 % 24;
                pool.checkout(slot, 32, side, side);
                checkouts += 1;
            }
            // Every pair of live planes in distinct slots must occupy
            // disjoint storage.
            let live: Vec<(usize, usize, usize)> = (0..SLOTS)
                .filter_map(|slot| {
                    pool.plane(slot).map(|t| {
                        let ptr = t.as_slice().as_ptr() as usize;
                        (slot, ptr, ptr + std::mem::size_of_val(t.as_slice()))
                    })
                })
                .collect();
            for (i, a) in live.iter().enumerate() {
                for b in &live[i + 1..] {
                    prop_assert!(
                        a.2 <= b.1 || b.2 <= a.1,
                        "planes {:?} and {:?} overlap: [{:#x},{:#x}) vs [{:#x},{:#x})",
                        a.0, b.0, a.1, a.2, b.1, b.2
                    );
                }
            }
        }
        let stats = pool.stats();
        prop_assert_eq!(stats.planes_allocated + stats.planes_reused, checkouts);
        // The second pass found every slot resident.
        prop_assert!(stats.planes_reused >= seeds.len() as u64);
    }

    /// The band partition the sharded and pipelined paths are built on:
    /// for any `rows >= 1` the ranges cover `0..rows` contiguously, none
    /// is empty, and earlier ranges take the remainder (lengths are
    /// non-increasing and spread by at most one).
    #[test]
    fn partition_rows_invariants(rows in 1usize..400, n in 1usize..40) {
        let ranges = partition_rows(rows, n);
        prop_assert_eq!(ranges.len(), n.min(rows));
        prop_assert_eq!(ranges[0].start, 0);
        prop_assert_eq!(ranges.last().unwrap().end, rows);
        for w in ranges.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
        let lens: Vec<usize> = ranges.iter().map(std::ops::Range::len).collect();
        prop_assert!(lens.iter().all(|&l| l >= 1), "non-empty");
        prop_assert_eq!(lens.iter().sum::<usize>(), rows);
        for w in lens.windows(2) {
            prop_assert!(w[0] >= w[1], "earlier ranges take the remainder");
            prop_assert!(w[0] - w[1] <= 1, "near-equal split");
        }
    }

    /// Zero rows yield zero ranges — never a single empty one whose
    /// `start * cols` would misname block 0 of a blockless frame.
    #[test]
    fn partition_rows_of_empty_grid_is_empty(n in 0usize..40) {
        prop_assert!(partition_rows(0, n).is_empty());
    }

    /// Every feasible ERNet compiles, respects the 4-leaf cap, and its
    /// packed parameters decode to the compiler's leafs.
    #[test]
    fn ernets_compile_and_roundtrip(b in 1usize..6, r in 1usize..4, sel in 0usize..3) {
        let n = sel.min(b);
        let task = match sel % 3 { 0 => ErNetTask::Dn, 1 => ErNetTask::Sr2, _ => ErNetTask::Sr4 };
        let spec = ErNetSpec::new(task, b, r, n);
        let m = spec.build().unwrap();
        let qm = QuantizedModel::uniform(&m);
        let c = compile(&qm, 64).unwrap();
        for ins in &c.program.instructions {
            prop_assert!(ins.leaf_modules() <= 4);
        }
        let first = c.packed.unpack(0).unwrap();
        prop_assert_eq!(&first, &c.leafs[0]);
    }
}
