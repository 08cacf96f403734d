//! Multi-accelerator sharding over any [`Backend`].
//!
//! The block-based dataflow makes a frame's block grid embarrassingly
//! parallel: no block reads another block's output. [`ShardedBackend`]
//! exploits that by partitioning the grid's block rows across `N` workers
//! and merging the per-shard reports:
//!
//! * latency merges as the **max** over shards (cycles = max ⇒ fps = min),
//! * traffic, energy and SRAM merge as the **sum** over shards.
//!
//! Images run through [`Engine::run_image_sharded`], a one-frame
//! submit/wait on the supervised [`AsyncSession`](crate::pipe::AsyncSession)
//! — the crate's one parallel executor — so one-shot sharding gets the
//! same retry, worker respawn and [`FaultPlan`](crate::faults::FaultPlan)
//! handling as a pipelined stream, and a failed band surfaces as the same
//! [`EngineError::Frame`]. Pixels are bit-identical to the single-engine
//! path at any shard count because every worker executes exactly the
//! blocks the whole-frame flow would, against the same full input image
//! (no halo recompute is needed — the receptive-field overlap is already
//! part of each block's crop).
//!
//! Analytical [`FrameReport`]s shard the real-time spec's height at block
//! granularity, so per-shard block counts sum exactly to the unsharded
//! count and summed totals (DRAM bytes per frame, …) match the unsharded
//! report up to the sub-byte truncation each shard's analytic byte count
//! applies independently.

use crate::engine::{Backend, Engine, EngineError, FrameReport, ImageRunStats, Workload};
use ecnn_model::RealTimeSpec;
use ecnn_tensor::Tensor;

impl Engine {
    /// Runs one image with the frame's block grid partitioned row-wise
    /// across `shards` workers: a one-frame submit/wait on a supervised
    /// [`Engine::async_session`], so band retries, worker respawn and the
    /// engine's [`FaultPlan`](crate::faults::FaultPlan) apply. Bit-identical
    /// pixels and identical summed work counters vs [`Engine::run_image`]
    /// at any shard count; `shards` is clamped to the grid's block rows,
    /// and one shard runs the serial path.
    ///
    /// # Errors
    ///
    /// [`EngineError::Image`] / [`EngineError::Rows`] for frames the engine
    /// cannot grid, before any worker spawns; [`EngineError::Frame`] (frame
    /// 0, with the failing worker and block) when a band exhausts its
    /// attempts.
    pub fn run_image_sharded(
        &self,
        image: &Tensor<f32>,
        shards: usize,
    ) -> Result<(Tensor<f32>, ImageRunStats), EngineError> {
        let n = shards.clamp(1, self.grid_rows(image)?);
        if n == 1 {
            return self.run_image(image);
        }
        let mut session = self.async_session(n);
        let ticket = session.submit(image.clone())?;
        session.wait(ticket)
    }
}

/// Splits `rows` block rows into `min(n, rows)` contiguous, non-empty,
/// near-equal ranges covering `0..rows` (earlier ranges take the
/// remainder). Total over every input: zero rows yield zero ranges —
/// never a single empty one — so a worker can never be handed a band
/// with no blocks; callers that require work reject empty grids up
/// front ([`Engine::out_dims`] returns [`EngineError::Rows`]).
pub fn partition_rows(rows: usize, n: usize) -> Vec<std::ops::Range<usize>> {
    if rows == 0 {
        return Vec::new();
    }
    let n = n.clamp(1, rows);
    let base = rows / n;
    let rem = rows % n;
    let mut start = 0;
    (0..n)
        .map(|i| {
            let len = base + usize::from(i < rem);
            let r = start..start + len;
            start += len;
            r
        })
        .collect()
}

/// Any [`Backend`] partitioned across `N` workers.
///
/// * [`Backend::frame_report`] shards the workload's real-time spec by
///   height (at block-row granularity when the inner flow has a
///   [`Backend::block_engine`], so summed totals match the unsharded
///   report exactly) and merges per-shard reports with cycles = max,
///   traffic/energy/SRAM = sum.
/// * [`Backend::run_image`] partitions the frame's block grid across
///   supervised workers via [`Engine::run_image_sharded`] when the inner
///   flow has a [`Backend::block_engine`]; other flows fall back to their
///   own (unsharded) implementation.
pub struct ShardedBackend<B> {
    inner: B,
    shards: usize,
    name: String,
}

impl<B: Backend> ShardedBackend<B> {
    /// Wraps `inner`, partitioning work across `shards` workers. The
    /// backend is named `"{inner}[x{shards}]"`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(inner: B, shards: usize) -> Self {
        assert!(shards > 0, "a sharded backend needs at least one worker");
        let name = format!("{}[x{shards}]", inner.name());
        Self {
            inner,
            shards,
            name,
        }
    }

    /// The wrapped flow.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Number of workers the grid is partitioned across.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Shards `spec`'s height into per-worker bands. With a block side the
    /// bands align to block rows (all but the last are whole multiples of
    /// `granularity`), so per-shard block counts sum exactly to the
    /// unsharded count; without one the raw pixel height is split.
    fn shard_specs(&self, spec: RealTimeSpec, granularity: Option<usize>) -> Vec<RealTimeSpec> {
        let g = granularity.unwrap_or(1).max(1);
        let rows = spec.height.div_ceil(g).max(1);
        let ranges = partition_rows(rows, self.shards.min(rows));
        ranges
            .iter()
            .map(|r| {
                let height = (r.end * g).min(spec.height) - r.start * g;
                RealTimeSpec { height, ..spec }
            })
            .collect()
    }
}

/// Merges per-shard reports: fps = min (cycles = max), DRAM traffic /
/// power / TOPS / SRAM = sum, utilization = max (the binding shard).
fn merge_reports(name: &str, spec: RealTimeSpec, reports: &[FrameReport]) -> FrameReport {
    let first = &reports[0];
    let fps = reports.iter().map(|r| r.fps).fold(f64::INFINITY, f64::min);
    let dram_bytes_per_frame: f64 = reports.iter().map(|r| r.dram_bytes_per_frame).sum();
    let sum_opt = |f: fn(&FrameReport) -> Option<f64>| -> Option<f64> {
        reports.iter().map(f).sum::<Option<f64>>()
    };
    FrameReport {
        backend: name.to_string(),
        workload: first.workload.clone(),
        spec,
        fps,
        meets_realtime: fps >= spec.fps,
        dram_bytes_per_frame,
        dram_bps: dram_bytes_per_frame * spec.fps.min(fps),
        feature_sram_bytes: reports.iter().map(|r| r.feature_sram_bytes).sum(),
        power_w: sum_opt(|r| r.power_w),
        tops: sum_opt(|r| r.tops),
        utilization: reports
            .iter()
            .filter_map(|r| r.utilization)
            .fold(None, |m, u| Some(m.map_or(u, |v: f64| v.max(u)))),
        note: format!(
            "{} shard(s): cycles=max, traffic/energy=sum; per-shard: {}",
            reports.len(),
            first.note
        ),
    }
}

impl<B: Backend + Sync> Backend for ShardedBackend<B> {
    fn name(&self) -> &str {
        &self.name
    }

    fn frame_report(&self, workload: &Workload) -> Result<FrameReport, EngineError> {
        // Block-parallel flows compile once and report every shard band
        // off the same engine, at block-row granularity — so summed
        // per-shard totals equal the unsharded report. Analytical flows
        // split the raw spec height and re-report per band.
        let reports = match self.inner.block_engine(workload) {
            Some(engine) => {
                let engine = engine?;
                let do_side = engine.compiled().program.do_side;
                self.shard_specs(workload.spec, Some(do_side))
                    .into_iter()
                    .map(|spec| engine.frame_report_at(spec))
                    .collect()
            }
            None => self
                .shard_specs(workload.spec, None)
                .into_iter()
                .map(|spec| {
                    let mut w = workload.clone();
                    w.spec = spec;
                    self.inner.frame_report(&w)
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        Ok(merge_reports(&self.name, workload.spec, &reports))
    }

    fn supports_run_image(&self) -> bool {
        self.inner.supports_run_image()
    }

    fn run_image(
        &self,
        workload: &Workload,
        image: &Tensor<f32>,
    ) -> Result<(Tensor<f32>, ImageRunStats), EngineError> {
        match self.inner.block_engine(workload) {
            Some(engine) => engine?.run_image_sharded(image, self.shards),
            None => self.inner.run_image(workload, image),
        }
    }

    fn block_engine(&self, workload: &Workload) -> Option<Result<Engine, EngineError>> {
        self.inner.block_engine(workload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EcnnBackend;
    use ecnn_model::ernet::{ErNetSpec, ErNetTask};
    use ecnn_tensor::{ImageKind, SyntheticImage};

    fn workload() -> Workload {
        Workload::ernet(
            ErNetSpec::new(ErNetTask::Dn, 2, 1, 0),
            40,
            RealTimeSpec::HD30,
        )
        .unwrap()
    }

    #[test]
    fn partition_rows_is_exact_and_contiguous() {
        for rows in 1..12 {
            for n in 1..6 {
                let ranges = partition_rows(rows, n);
                assert_eq!(ranges.len(), n.min(rows));
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, rows);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                    assert!(!w[0].is_empty() && !w[1].is_empty());
                }
            }
        }
    }

    #[test]
    fn sharded_names_and_delegation() {
        let b = ShardedBackend::new(EcnnBackend::paper(), 2);
        assert_eq!(b.name(), "ecnn[x2]");
        assert_eq!(b.shards(), 2);
        assert!(b.supports_run_image());
        assert!(b.block_engine(&workload()).is_some());
    }

    #[test]
    fn single_shard_report_matches_inner() {
        let w = workload();
        let inner = EcnnBackend::paper().frame_report(&w).unwrap();
        let merged = ShardedBackend::new(EcnnBackend::paper(), 1)
            .frame_report(&w)
            .unwrap();
        assert_eq!(merged.backend, "ecnn[x1]");
        assert_eq!(merged.fps, inner.fps);
        assert_eq!(merged.dram_bytes_per_frame, inner.dram_bytes_per_frame);
        assert_eq!(merged.dram_bps, inner.dram_bps);
        assert_eq!(merged.feature_sram_bytes, inner.feature_sram_bytes);
        assert_eq!(merged.power_w, inner.power_w);
        assert_eq!(merged.utilization, inner.utilization);
        assert_eq!(merged.meets_realtime, inner.meets_realtime);
    }

    #[test]
    fn merged_traffic_totals_are_shard_invariant() {
        let w = workload();
        let inner = EcnnBackend::paper().frame_report(&w).unwrap();
        for n in [2, 4] {
            let merged = ShardedBackend::new(EcnnBackend::paper(), n)
                .frame_report(&w)
                .unwrap();
            // Block-granular shards preserve the traffic total up to the
            // independent sub-byte truncation of each shard's analytic
            // byte count.
            let diff = (merged.dram_bytes_per_frame - inner.dram_bytes_per_frame).abs();
            assert!(
                diff <= 2.0 * n as f64,
                "x{n}: traffic drift {diff} B on {} B",
                inner.dram_bytes_per_frame
            );
            assert!(merged.fps >= inner.fps, "x{n}: sharding cannot slow down");
            assert_eq!(
                merged.feature_sram_bytes,
                inner.feature_sram_bytes * n as f64
            );
        }
    }

    #[test]
    fn worker_failure_carries_shard_and_block() {
        // Band 1 panics on every attempt: the error names the frame, the
        // worker and band 1's first block, chained to the worker panic.
        let engine = Engine::builder()
            .ernet(ErNetSpec::new(ErNetTask::Dn, 2, 1, 0))
            .block(40)
            .realtime(RealTimeSpec::HD30)
            .faults(crate::faults::FaultPlan::parse("seed=1;panic@1000:band=1").unwrap())
            .build()
            .unwrap();
        let img = SyntheticImage::new(ImageKind::Smooth, 1).rgb(56, 72);
        let (rows, cols) = engine.grid_dims(&img).unwrap();
        let first_block = partition_rows(rows, 2)[1].start * cols;
        let e = engine.run_image_sharded(&img, 2).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("worker"), "{msg}");
        assert!(msg.contains(&format!("block {first_block}")), "{msg}");
        assert!(std::error::Error::source(&e).is_some());
        match e {
            EngineError::Frame {
                frame: 0,
                worker,
                block,
                ..
            } => {
                assert!(worker < 2, "worker {worker} outside a 2-worker pool");
                assert_eq!(block, first_block);
            }
            other => panic!("expected a Frame error, got {other:?}"),
        }
    }

    #[test]
    fn out_of_grid_rows_are_a_structured_error() {
        let engine = EcnnBackend::paper().engine(&workload()).unwrap();
        let img = SyntheticImage::new(ImageKind::Smooth, 1).rgb(56, 56);
        let mut session = engine.session();
        match session.process_rows(&img, 9..12) {
            Err(EngineError::Rows {
                start,
                end,
                available,
            }) => {
                assert_eq!((start, end), (9, 12));
                assert!(available < 9);
            }
            other => {
                let _ = other.map(|_| ());
                panic!("expected a Rows error");
            }
        }
        assert!(matches!(
            session.process_rows(&img, 1..1),
            Err(EngineError::Rows { .. })
        ));
    }

    #[test]
    fn sharded_image_run_is_bit_identical() {
        let w = workload();
        let img = SyntheticImage::new(ImageKind::Mixed, 11).rgb(56, 72);
        let (plain, plain_stats) = EcnnBackend::paper().run_image(&w, &img).unwrap();
        for n in [1, 2, 4] {
            let sharded = ShardedBackend::new(EcnnBackend::paper(), n);
            let (out, stats) = sharded.run_image(&w, &img).unwrap();
            assert_eq!(out, plain, "x{n} pixels must be bit-identical");
            assert_eq!(stats.blocks, plain_stats.blocks, "x{n} block totals");
            // Work totals are shard-invariant (no halo recompute); only
            // the pool counters differ (one cold arena per worker).
            assert_eq!(
                stats.exec.work(),
                plain_stats.exec.work(),
                "x{n} work totals must match"
            );
        }
    }
}
