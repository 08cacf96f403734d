//! Interleaved host-speed calibration.
//!
//! Neighbours on a shared host can slow every core by 20–50% for tens of
//! seconds at a time, which moves wall-clock figures between runs far
//! more than any code change of interest. The benchmark therefore times a
//! fixed integer multiply-accumulate chunk (code of its own, untouched by
//! the repository) between frames, and scales its host-time figures by
//! `NOMINAL_CHUNK_MS / mean chunk time`: they read as if taken at the
//! reference host's unloaded speed. The raw wall-clock figures and the
//! calibration itself are printed beside them.
//!
//! The chunk streams a 12 MB working set, about the size of eSR-4K's
//! block planes, so that it slows under cache and memory contention as
//! the workloads do; a cache-resident chunk tracked them worse. It runs
//! on as many threads at once as the workload has workers.

use std::hint::black_box;
use std::time::Instant;

/// Chunk time on the reference host (2-core AVX2 Xeon VM) when idle.
pub const NOMINAL_CHUNK_MS: f64 = 1.8;
const LEN: usize = 1 << 21;
const REPS: usize = 3;

/// One thread's chunk buffers.
struct Lane {
    a: Vec<i16>,
    acc: Vec<i32>,
}

impl Lane {
    /// Runs one chunk and returns its time in ms.
    fn chunk(&mut self) -> f64 {
        let t = Instant::now();
        for r in 0..REPS {
            let k = black_box(7 - r as i32);
            for (o, &x) in self.acc.iter_mut().zip(&self.a) {
                *o = o.wrapping_add(i32::from(x) * k);
            }
            black_box(&mut self.acc);
        }
        t.elapsed().as_secs_f64() * 1e3
    }
}

pub struct Calibration {
    lanes: Vec<Lane>,
}

impl Calibration {
    /// Buffers for `threads` concurrent chunks.
    pub fn new(threads: usize) -> Self {
        let lanes = (0..threads.max(1))
            .map(|_| Lane {
                a: (0..LEN).map(|i| (i * 7 % 251) as i16 - 125).collect(),
                acc: vec![0; LEN],
            })
            .collect();
        Self { lanes }
    }

    /// Times `n` chunks on every lane at once and returns their mean,
    /// without the slowest tenth: a chunk the scheduler preempted says
    /// nothing about core speed.
    pub fn sample(&mut self, n: usize) -> f64 {
        let mut times: Vec<f64> = std::thread::scope(|s| {
            let lanes: Vec<_> = self
                .lanes
                .iter_mut()
                .map(|lane| s.spawn(move || (0..n).map(|_| lane.chunk()).collect::<Vec<_>>()))
                .collect();
            lanes
                .into_iter()
                .flat_map(|h| h.join().expect("a calibration lane panicked"))
                .collect()
        });
        times.sort_by(f64::total_cmp);
        times.truncate(times.len() - times.len() / 10);
        if times.is_empty() {
            NOMINAL_CHUNK_MS
        } else {
            times.iter().sum::<f64>() / times.len() as f64
        }
    }
}
