//! The closed-loop client: feeds frames to the workload's session, times
//! them, and keeps what the checks need.

use crate::calib::{Calibration, NOMINAL_CHUNK_MS};
use crate::check::{self, Window};
use crate::trace::Tracer;
use crate::workload::{Mode, Workload};
use ecnn_core::engine::{Engine, ImageRunStats, Session};
use ecnn_core::pipe::{AsyncSession, FrameTicket};
use ecnn_core::supervise::SupervisorCounters;
use ecnn_tensor::Tensor;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Calibration chunks timed per lane at each calibration point: between
/// serial frames, and in a stream's pauses. Fewer make each point noisy
/// enough that the scaled figures overcorrect under load.
const CAL_CHUNKS: usize = 50;
/// Frames a stream submits between calibration pauses, in which it lets
/// its window drain so that no worker runs while the chunks are timed.
const CAL_EVERY: usize = 16;
/// Worker threads of the `AsyncSession` the serial workload's parity
/// check runs on.
const PARITY_WORKERS: usize = 2;

/// The session a workload drives; a run holds exactly one.
#[allow(clippy::large_enum_variant)]
pub enum Runner<'e> {
    Serial(Session<'e>),
    Stream(AsyncSession),
}

pub fn open(eng: &Engine, mode: Mode) -> Runner<'_> {
    match mode {
        Mode::Serial => Runner::Serial(eng.session()),
        Mode::Stream { workers } => Runner::Stream(AsyncSession::new(eng, workers)),
    }
}

/// Fixed facts of a run the loop needs.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    pub wl: &'a Workload,
    pub seed: u64,
    pub out_h: usize,
    pub out_w: usize,
    pub do_side: usize,
    /// Whether frames keep a check window (the untraced twin loop of a
    /// traced run does not).
    pub windows: bool,
}

impl Ctx<'_> {
    fn keep(&self, index: usize, frame: &Tensor<f32>) -> Option<Window> {
        if !(self.windows && self.wl.whole_frame_oracle) {
            return None;
        }
        let turn = (self.seed as usize).wrapping_add(index);
        let rect = check::region(self.out_h, self.out_w, self.do_side, turn);
        Some(Window::copy(frame, rect))
    }
}

pub struct FrameRec {
    pub index: usize,
    pub latency: Duration,
    pub result: Result<ImageRunStats, String>,
    pub window: Option<Window>,
    /// The calibration segment the frame ran in.
    segment: usize,
}

#[derive(Default)]
pub struct LoopOut {
    pub frames: Vec<FrameRec>,
    pub submit_block: Duration,
    pub claim_wait: Duration,
    /// The last successful frame's index and output.
    pub last: Option<(usize, Tensor<f32>)>,
    /// Why the session was left with frames in flight or unclaimed.
    pub drain_error: Option<String>,
    pub supervisor: SupervisorCounters,
    /// Wall time of each segment the loop measures: one frame of a serial
    /// loop, or a stream's run from a first submit to a drained window.
    segment_wall: Vec<Duration>,
    /// Mean calibration chunk time at the start of each segment and after
    /// the last, ms.
    cal_points: Vec<f64>,
    serial: bool,
}

impl LoopOut {
    /// Time the throughput is measured over: the segments, less the
    /// calibration between them.
    pub fn wall(&self) -> Duration {
        self.segment_wall.iter().sum()
    }

    /// Mean calibration chunk time over the loop, ms.
    pub fn cal_ms(&self) -> f64 {
        self.cal_points.iter().sum::<f64>() / self.cal_points.len().max(1) as f64
    }

    /// Host-time scale of segment `k` to the reference host's unloaded
    /// speed, from the calibration just before and just after it.
    fn scale(&self, k: usize) -> f64 {
        2.0 * NOMINAL_CHUNK_MS / (self.cal_points[k] + self.cal_points[k + 1])
    }

    /// Latencies of the successful frames, ms: wall clock, and at the
    /// reference host's unloaded speed.
    pub fn latencies_ms(&self) -> (Vec<f64>, Vec<f64>) {
        self.frames
            .iter()
            .filter(|f| f.result.is_ok())
            .map(|f| {
                let ms = f.latency.as_secs_f64() * 1e3;
                (ms, ms * self.scale(f.segment))
            })
            .unzip()
    }

    /// Output megapixels per second of the successful frames: wall clock,
    /// and at the reference host's unloaded speed. A serial loop holds one
    /// frame at a time, so its throughput is the inverse of its median
    /// frame time; a stream's is its frames over its scaled segments.
    pub fn mpix_per_s(&self, px_per_frame: usize) -> (f64, f64) {
        let (_, norm) = self.latencies_ms();
        let mpix = (px_per_frame * norm.len()) as f64 / 1e6;
        let wall = mpix / self.wall().as_secs_f64().max(f64::MIN_POSITIVE);
        let scaled = if self.serial {
            px_per_frame as f64 / 1e3 / crate::median(&norm).max(f64::MIN_POSITIVE)
        } else {
            let s: f64 = (0..self.segment_wall.len())
                .map(|k| self.segment_wall[k].as_secs_f64() * self.scale(k))
                .sum();
            mpix / s.max(f64::MIN_POSITIVE)
        };
        (wall, scaled)
    }
}

#[derive(Clone, Copy)]
pub enum Stop {
    Seconds(f64),
    Frames(usize),
}

impl Stop {
    fn more(self, start: Instant, started: usize) -> bool {
        match self {
            Stop::Seconds(s) => start.elapsed().as_secs_f64() < s,
            Stop::Frames(n) => started < n,
        }
    }
}

/// Runs frames `first..` closed loop until `stop`, in segments with a
/// calibration point before each and after the last, timed while no
/// worker runs. A serial segment is one frame, so the client's input
/// synthesis between frames is excluded. A stream keeps synthesizing
/// while the workers run, as a decoder would, and ends a segment every
/// `CAL_EVERY` frames by letting its window drain.
pub fn timed_loop(
    ctx: &Ctx,
    runner: &mut Runner,
    tr: &mut Tracer,
    cal: &mut Calibration,
    first: usize,
    stop: Stop,
) -> LoopOut {
    let mut out = LoopOut {
        serial: matches!(runner, Runner::Serial(_)),
        ..LoopOut::default()
    };
    let start = Instant::now();
    let mut next = first;
    out.cal_points.push(cal.sample(CAL_CHUNKS));
    match runner {
        Runner::Serial(session) => {
            while stop.more(start, next - first) {
                let img = ctx.wl.frame(ctx.seed, next);
                let span = tr.enter("Session::process", Some(next));
                let t = Instant::now();
                let res = session.process(&img);
                let latency = t.elapsed();
                tr.exit(span);
                let (result, window) = match res {
                    Ok(frame) => {
                        let window = ctx.keep(next, frame);
                        out.last = Some((next, frame.clone()));
                        (Ok(session.last_frame_stats()), window)
                    }
                    Err(e) => (Err(e.to_string()), None),
                };
                out.frames.push(FrameRec {
                    index: next,
                    latency,
                    result,
                    window,
                    segment: out.segment_wall.len(),
                });
                out.segment_wall.push(latency);
                out.cal_points.push(cal.sample(CAL_CHUNKS));
                next += 1;
            }
        }
        Runner::Stream(session) => {
            // One ticket beyond the window, so the window stays full and
            // `submit` meets back-pressure.
            let outstanding = session.capacity() + 1;
            let mut pending: VecDeque<(FrameTicket, Instant, usize)> = VecDeque::new();
            let mut segment_start = None;
            let mut last_claim = start;
            let mut in_segment = 0;
            loop {
                while pending.len() < outstanding
                    && in_segment < CAL_EVERY
                    && stop.more(start, next - first)
                {
                    let img = ctx.wl.frame(ctx.seed, next);
                    let span = tr.enter("AsyncSession::submit", Some(next));
                    let t = Instant::now();
                    let res = session.submit(img);
                    let blocked = t.elapsed();
                    tr.exit(span);
                    segment_start.get_or_insert(t);
                    out.submit_block += blocked;
                    in_segment += 1;
                    match res {
                        Ok(ticket) => pending.push_back((ticket, t, next)),
                        Err(e) => out.frames.push(FrameRec {
                            index: next,
                            latency: blocked,
                            result: Err(e.to_string()),
                            window: None,
                            segment: out.segment_wall.len(),
                        }),
                    }
                    next += 1;
                }
                let Some((ticket, submitted, index)) = pending.pop_front() else {
                    break;
                };
                let span = tr.enter("AsyncSession::wait", Some(index));
                let t = Instant::now();
                let res = session.wait(ticket);
                out.claim_wait += t.elapsed();
                tr.exit(span);
                let latency = submitted.elapsed();
                last_claim = Instant::now();
                let (result, window) = match res {
                    Ok((frame, stats)) => {
                        let window = ctx.keep(index, &frame);
                        out.last = Some((index, frame));
                        (Ok(stats), window)
                    }
                    Err(e) => (Err(e.to_string()), None),
                };
                out.frames.push(FrameRec {
                    index,
                    latency,
                    result,
                    window,
                    segment: out.segment_wall.len(),
                });
                if pending.is_empty() && in_segment == CAL_EVERY {
                    if let Some(s) = segment_start.take() {
                        out.segment_wall.push(last_claim - s);
                    }
                    out.cal_points.push(cal.sample(CAL_CHUNKS));
                    in_segment = 0;
                }
            }
            if let Some(s) = segment_start {
                out.segment_wall.push(last_claim - s);
                out.cal_points.push(cal.sample(CAL_CHUNKS));
            }
            let span = tr.enter("AsyncSession::drain", None);
            let t = Instant::now();
            let rest = session.drain();
            out.claim_wait += t.elapsed();
            tr.exit(span);
            out.drain_error = match rest {
                Ok(v) if v.is_empty() => None,
                Ok(v) => Some(format!("drain returned {} unclaimed frame(s)", v.len())),
                Err(e) => Some(format!("drain: {e}")),
            };
            out.supervisor = session.supervisor_stats().counters;
        }
    }
    out
}

/// How a run's `AsyncSession` spent its time.
pub struct PipeProbe {
    pub frames: usize,
    pub submit_block: Duration,
    pub claim_wait: Duration,
    pub wall: Duration,
    pub workers: usize,
    pub counters: SupervisorCounters,
}

impl PipeProbe {
    pub fn of_loop(out: &LoopOut, workers: usize) -> Self {
        Self {
            frames: out.frames.len(),
            submit_block: out.submit_block,
            claim_wait: out.claim_wait,
            wall: out.wall(),
            workers,
            counters: out.supervisor,
        }
    }
}

/// Checks the serial workload's frame `index` against an `AsyncSession`
/// run of the same input, which also measures the pipe layer on this
/// workload's geometry.
pub fn async_parity(
    eng: &Engine,
    input: Tensor<f32>,
    want: &Tensor<f32>,
    want_stats: &ImageRunStats,
    index: usize,
    tr: &mut Tracer,
) -> (Result<(), String>, PipeProbe) {
    let mut session = tr.span("session.open", None, || {
        AsyncSession::new(eng, PARITY_WORKERS)
    });
    let span = tr.enter("AsyncSession::submit", Some(index));
    let t = Instant::now();
    let ticket = session.submit(input);
    let submit_block = t.elapsed();
    tr.exit(span);
    let span = tr.enter("AsyncSession::wait", Some(index));
    let t_wait = Instant::now();
    let res = ticket.and_then(|ticket| session.wait(ticket));
    let claim_wait = t_wait.elapsed();
    tr.exit(span);
    let probe = PipeProbe {
        frames: 1,
        submit_block,
        claim_wait,
        wall: t.elapsed(),
        workers: PARITY_WORKERS,
        counters: session.supervisor_stats().counters,
    };
    let verdict = match res {
        Err(e) => Err(format!("AsyncSession: {e}")),
        Ok((frame, _)) if frame != *want => {
            Err("AsyncSession output differs from the serial session's".into())
        }
        Ok((_, stats)) if stats.exec.work() != want_stats.exec.work() => {
            Err("AsyncSession work counters differ from the serial session's".into())
        }
        Ok(_) => Ok(()),
    };
    (verdict, probe)
}
