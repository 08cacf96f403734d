//! Pipelined asynchronous inference sessions, under supervision — the
//! crate's one parallel executor.
//!
//! The block-based dataflow streams: the paper's accelerator overlaps
//! block fetch, compute and writeback to sustain real-time 4K rates.
//! [`AsyncSession`] brings that overlap to the serving path. Where
//! [`Session::run_frames`](crate::engine::Session::run_frames) drains its
//! queue strictly serially — frame `i+1` waits until frame `i` is
//! quantized, executed *and* stitched — an `AsyncSession` keeps a small
//! pool of long-lived worker threads (fed through a `crossbeam` MPMC
//! channel), splits every submitted frame into contiguous block-row bands
//! ([`partition_rows`]), and lets the stages of different frames
//! overlap: while one worker stitches the tail band of frame `i`, others
//! are already quantizing and executing the head bands of frame `i+1`.
//! One-shot parallel runs ([`Engine::run_image_sharded`]) are a
//! one-frame submit/wait on the same session.
//!
//! A serving-style caller pipelines decode → inference → encode without
//! blocking:
//!
//! 1. [`AsyncSession::submit`] hands a decoded frame in and returns a
//!    [`FrameTicket`] immediately (blocking only when the bounded
//!    in-flight window is full — the back-pressure that keeps a fast
//!    producer from outrunning the executor);
//! 2. [`AsyncSession::poll`] is non-blocking: [`FramePoll::Pending`]
//!    while the frame is in flight, [`FramePoll::Ready`] with the
//!    stitched output and its per-frame [`ImageRunStats`] once done;
//! 3. [`AsyncSession::drain`] waits for everything still in flight and
//!    returns the remaining results in submission order.
//!
//! # Supervision
//!
//! Band dispatches run under a supervisor thread governed by a
//! [`SupervisorPolicy`] (see [`crate::supervise`]): a failed dispatch is
//! retried with capped exponential backoff, preferably on a different
//! worker; a worker killed by a panic is respawned and the bands it was
//! running are treated as failed dispatches (with the panic payload
//! carried into [`EngineError::Worker`]); a frame that overruns its soft
//! deadline gets its straggler bands resubmitted — first completion wins,
//! late duplicates are discarded before pasting; and repeated
//! corruption-class failures ([`EngineError::Corrupt`]) walk the session
//! down the verifier-licensed degradation ladder (Simd → Packed →
//! Reference kernels, then coalesced → keyed layout), which trades only
//! speed, never pixels. If the engine's [`EngineConfig`](crate::config::EngineConfig)
//! carries a [`FaultPlan`](crate::faults::FaultPlan) (or `ECNN_FAULTS`
//! set one), workers roll it deterministically per dispatch and inject
//! the planned panics, delays and corruptions — the harness the
//! supervisor is proven against. Outcomes surface per frame in
//! [`ImageRunStats::supervisor`] and session-wide through
//! [`AsyncSession::supervisor_stats`] / [`AsyncSession::supervision_report`].
//!
//! Output pixels are **bit-identical** to the serial session at any
//! worker count — with or without supervisor interventions: every band
//! executes exactly the blocks the whole-frame flow would (global grid
//! addressing, same receptive-field crops), bands land in disjoint rows
//! of the output frame, duplicate completions re-paste identical bytes,
//! and every ladder rung is proven bit-identical by the static verifier.
//! Per-frame stats are merged from the bands' counters; each worker
//! holds one warm [`Session`](crate::engine::Session) whose plane pool is
//! reused across bands *and* frames, so steady-state pipelining performs
//! zero per-block allocations, exactly like the serial path. A frame
//! whose band exhausts [`SupervisorPolicy::max_attempts`] surfaces as
//! [`EngineError::Frame`] carrying the frame's submission index, the
//! worker and the failing block — earliest failing band wins.

use crate::engine::{Engine, EngineError, ImageRunStats};
use crate::faults::Fault;
use crate::report::SupervisionReport;
use crate::supervise::{
    classify, ladder, panic_message, DegradeEvent, DegradeRung, FailureClass, SupervisorCounters,
    SupervisorPolicy, SupervisorStats,
};
use crossbeam::channel::{self, Receiver, Sender};
use ecnn_tensor::Tensor;
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The most worker threads one [`AsyncSession`] spawns: every constructor
/// clamps its `workers` argument to `1..=MAX_WORKERS`, since each worker
/// is one OS thread.
pub const MAX_WORKERS: usize = 256;

impl Engine {
    /// Runs one image with the frame's block grid partitioned row-wise
    /// across `shards` workers: a one-frame submit/wait on a supervised
    /// [`Engine::async_session`], so band retries, worker respawn and the
    /// engine's [`FaultPlan`](crate::faults::FaultPlan) apply. Bit-identical
    /// pixels and identical summed work counters vs [`Engine::run_image`]
    /// at any shard count: every worker executes exactly the blocks the
    /// whole-frame flow would, against the same full input image, so no
    /// halo recompute is needed. `shards` is clamped to the grid's block
    /// rows, and one shard runs the serial path.
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
        let n = shards.clamp(1, self.grid_dims(image)?.0);
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
pub fn partition_rows(rows: usize, n: usize) -> Vec<Range<usize>> {
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

/// Claim check for one submitted frame; redeem it with
/// [`AsyncSession::poll`]. Tickets are cheap copies — the frame index
/// they carry doubles as the submission order — and are bound to the
/// session that issued them: redeeming one elsewhere is a structured
/// [`EngineError::Ticket`], never another session's frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FrameTicket {
    session: u64,
    frame: usize,
}

impl FrameTicket {
    /// Submission index of the frame within its session (0-based).
    pub fn frame(&self) -> usize {
        self.frame
    }
}

/// Result of a non-blocking [`AsyncSession::poll`].
#[derive(Debug)]
pub enum FramePoll {
    /// The frame finished: its stitched output and per-frame stats
    /// (boxed, so a `Pending` poll stays small).
    Ready(Tensor<f32>, Box<ImageRunStats>),
    /// The frame is still in flight; poll again later.
    Pending,
}

/// One dispatch of one band of one in-flight frame, as queued to the
/// worker pool. Retries and deadline resubmissions enqueue fresh tasks
/// with a bumped `attempt`.
struct BandTask {
    frame: usize,
    /// Band index within the frame's partition (stable across retries).
    band: usize,
    rows: Range<usize>,
    image: Arc<Tensor<f32>>,
    /// 1-based dispatch counter for this band (feeds the fault dice).
    attempt: u32,
    /// Worker the supervisor would rather not run this dispatch
    /// (best-effort: the one that just failed or is stuck on it).
    exclude: Option<usize>,
}

/// What flows through the task channel. `Shutdown` sentinels let the
/// session drop cleanly even though workers and the supervisor hold
/// `Sender` clones of their own (for requeues and retries), which keeps
/// the channel from ever disconnecting on its own.
enum Msg {
    Band(BandTask),
    Shutdown,
}

/// The failure a frame's earliest failing band recorded.
struct Failure {
    band_start: usize,
    worker: usize,
    block: usize,
    source: EngineError,
}

/// Lifecycle of one band of an in-flight frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BandPhase {
    /// At least one dispatch is queued or running.
    Active,
    /// Every dispatch failed; a retry is scheduled with the supervisor.
    Backoff,
    /// The band is accounted for — succeeded, finally failed, or skipped
    /// because its frame already failed. Late duplicate dispatches of a
    /// settled band conclude without effect.
    Settled,
}

/// Supervision state of one band of an in-flight frame.
struct BandSlot {
    rows: Range<usize>,
    /// Dispatches issued so far (the initial one included).
    attempts: u32,
    /// Dispatches currently queued or running (deadline resubmission can
    /// push this above 1; first completion settles the band).
    live: u32,
    /// Workers currently executing a dispatch of this band.
    running_on: Vec<usize>,
    /// Worker of the most recent dispatch (excluded from the next retry
    /// under [`SupervisorPolicy::redispatch_elsewhere`]).
    last_worker: Option<usize>,
    phase: BandPhase,
}

/// Accumulation state of one submitted, not-yet-finished frame.
struct InFlight {
    /// The output frame under assembly, behind its own lock so workers
    /// stitching different frames (or callers polling the session) never
    /// serialize on a band paste — only bands of the *same* frame, whose
    /// pastes target disjoint rows, take turns here. `None` once the
    /// frame completed and the tensor was handed out; a straggler
    /// duplicate that finishes later simply has nothing to paste into.
    out: Arc<Mutex<Option<Tensor<f32>>>>,
    stats: ImageRunStats,
    /// Bands not yet settled; `0` completes the frame.
    open: usize,
    failure: Option<Failure>,
    bands: Vec<BandSlot>,
    /// Kept for re-dispatch: retries and deadline resubmissions build
    /// fresh [`BandTask`]s from here.
    image: Arc<Tensor<f32>>,
    cols: usize,
    /// Soft deadline; the supervisor resubmits straggler bands when it
    /// expires, then re-arms it.
    deadline: Option<Instant>,
    /// Per-frame supervision counters, merged into the frame's
    /// [`ImageRunStats`] on completion.
    counters: SupervisorCounters,
}

type FrameResult = Result<(Tensor<f32>, ImageRunStats), EngineError>;

/// A band retry scheduled for a future instant (capped backoff).
struct Retry {
    due: Instant,
    frame: usize,
    band: usize,
}

#[derive(Default)]
struct State {
    inflight: HashMap<usize, InFlight>,
    done: HashMap<usize, FrameResult>,
    /// Scheduled band retries, unordered (the supervisor scans for due
    /// ones — the set is tiny).
    retries: Vec<Retry>,
    /// Workers that died (panicked); the supervisor joins and respawns
    /// them.
    dead: Vec<usize>,
    /// Current position on the degradation ladder (index into the
    /// session's [`ladder`]).
    rung: usize,
    /// Corruption-class failures seen on the current rung.
    rung_failures: u32,
    /// Session-lifetime supervision outcomes.
    stats: SupervisorStats,
    /// Tells the supervisor thread to exit.
    stop: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled whenever a frame completes (its result moved to `done`).
    frame_done: Condvar,
    /// Wakes the supervisor: scheduled retry, armed deadline, dead
    /// worker, or shutdown.
    supervisor: Condvar,
}

/// Everything a worker or the supervisor needs, cloneable so respawned
/// workers get the same wiring.
#[derive(Clone)]
struct Ctx {
    engine: Arc<Engine>,
    shared: Arc<Shared>,
    ladder: Arc<Vec<DegradeRung>>,
    policy: Arc<SupervisorPolicy>,
    tx: Sender<Msg>,
    rx: Receiver<Msg>,
    n_workers: usize,
}

/// A pipelined, poll-based inference session over one [`Engine`], with
/// supervised execution.
///
/// Construct via [`Engine::async_session`] (or
/// [`AsyncSession::with_capacity`] / [`AsyncSession::with_policy`] to
/// tune the back-pressure window and the supervision policy). Dropping
/// the session closes the task channel and joins the workers; queued
/// work is finished first, unclaimed results are discarded.
///
/// See the [module docs](crate::pipe) for the full contract.
pub struct AsyncSession {
    engine: Arc<Engine>,
    shared: Arc<Shared>,
    tasks: Sender<Msg>,
    /// Worker handles, shared with the supervisor (respawn replaces a
    /// slot's handle in place).
    workers: Arc<Mutex<Vec<Option<JoinHandle<()>>>>>,
    supervisor: Option<JoinHandle<()>>,
    policy: Arc<SupervisorPolicy>,
    ladder: Arc<Vec<DegradeRung>>,
    n_workers: usize,
    capacity: usize,
    /// Distinguishes this session's tickets from every other session's.
    session_id: u64,
    next_frame: usize,
    /// Submitted-but-unclaimed frames, in submission order (for `drain`).
    order: VecDeque<usize>,
}

impl AsyncSession {
    /// Pipelined session on `workers` threads with the default in-flight
    /// window of `2 * workers` frames and the default
    /// [`SupervisorPolicy`]. Every constructor clamps `workers` to
    /// `1..=`[`MAX_WORKERS`]: each worker is one OS thread.
    ///
    /// The engine is cloned once into the session (the worker threads
    /// outlive the borrow a scoped approach could offer) — open one
    /// session per stream and keep it, rather than one per frame.
    pub fn new(engine: &Engine, workers: usize) -> Self {
        let workers = workers.clamp(1, MAX_WORKERS);
        Self::with_capacity(engine, workers, 2 * workers)
    }

    /// Pipelined session with an explicit back-pressure window:
    /// [`AsyncSession::submit`] blocks while `capacity` frames are in
    /// flight (submitted and not yet fully stitched). `capacity == 1`
    /// degenerates to lock-step serial behaviour with band parallelism.
    pub fn with_capacity(engine: &Engine, workers: usize, capacity: usize) -> Self {
        Self::with_policy(engine, workers, capacity, SupervisorPolicy::default())
    }

    /// Pipelined session with an explicit back-pressure window and
    /// supervision policy.
    pub fn with_policy(
        engine: &Engine,
        workers: usize,
        capacity: usize,
        policy: SupervisorPolicy,
    ) -> Self {
        let workers = workers.clamp(1, MAX_WORKERS);
        let engine = Arc::new(engine.clone());
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            frame_done: Condvar::new(),
            supervisor: Condvar::new(),
        });
        let (tx, rx) = channel::unbounded::<Msg>();
        let ctx = Ctx {
            engine: engine.clone(),
            shared: shared.clone(),
            ladder: Arc::new(ladder(engine.kernels(), engine.coalesced())),
            policy: Arc::new(policy),
            tx: tx.clone(),
            rx,
            n_workers: workers,
        };
        let handles = Arc::new(Mutex::new(
            (0..workers)
                .map(|worker| {
                    let ctx = ctx.clone();
                    Some(std::thread::spawn(move || worker_loop(&ctx, worker)))
                })
                .collect::<Vec<_>>(),
        ));
        let supervisor = {
            let ctx = ctx.clone();
            let handles = handles.clone();
            Some(std::thread::spawn(move || supervisor_loop(&ctx, &handles)))
        };
        static NEXT_SESSION: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        Self {
            engine,
            shared,
            tasks: tx,
            workers: handles,
            supervisor,
            policy: ctx.policy,
            ladder: ctx.ladder,
            n_workers: workers,
            capacity: capacity.max(1),
            session_id: NEXT_SESSION.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            next_frame: 0,
            order: VecDeque::new(),
        }
    }

    /// The engine this session pipelines on.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Number of worker threads (constant: a dead worker is respawned,
    /// the pool never shrinks).
    pub fn workers(&self) -> usize {
        self.n_workers
    }

    /// Back-pressure window: the maximum number of frames in flight.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The supervision policy this session runs under.
    pub fn policy(&self) -> &SupervisorPolicy {
        &self.policy
    }

    /// Frames currently in flight (submitted, not yet finished).
    pub fn in_flight(&self) -> usize {
        self.lock_state().inflight.len()
    }

    /// Submitted frames whose results have not been claimed yet (in
    /// flight or finished-but-unpolled).
    pub fn pending(&self) -> usize {
        self.order.len()
    }

    /// Session-lifetime supervision outcomes so far: aggregated
    /// counters, the per-band attempt histogram, every ladder step.
    pub fn supervisor_stats(&self) -> SupervisorStats {
        self.lock_state().stats.clone()
    }

    /// Full supervision snapshot: policy, degradation ladder, stats.
    pub fn supervision_report(&self) -> SupervisionReport {
        SupervisionReport {
            policy: (*self.policy).clone(),
            ladder: (*self.ladder).clone(),
            stats: self.lock_state().stats.clone(),
            workers: self.n_workers,
        }
    }

    /// Submits one decoded frame for pipelined inference, taking
    /// ownership of it, and returns the ticket to claim the result with.
    /// Geometry is validated here, so a bad frame fails synchronously and
    /// never occupies the pipeline. Blocks while [`AsyncSession::capacity`]
    /// frames are in flight (back-pressure); completion by the workers —
    /// not polling — frees the window, so a submit-only caller cannot
    /// deadlock itself. The flip side: finished results are held until
    /// claimed, so a long stream must interleave [`AsyncSession::poll`] /
    /// [`AsyncSession::wait`] (or periodic [`AsyncSession::drain`]s) with
    /// its submits to bound memory — one stitched output frame per
    /// unclaimed result.
    ///
    /// # Errors
    ///
    /// [`EngineError::Image`] / [`EngineError::Rows`] for frames the
    /// engine cannot grid.
    pub fn submit(&mut self, frame: Tensor<f32>) -> Result<FrameTicket, EngineError> {
        let (out_h, out_w) = self.engine.out_dims(&frame)?;
        let (rows, cols) = self.engine.grid_dims(&frame)?;
        let p = &self.engine.compiled().program;
        let bands = partition_rows(rows, self.n_workers);
        let id = self.next_frame;
        self.next_frame += 1;

        let image = Arc::new(frame);
        let deadline = self.policy.frame_deadline.map(|d| Instant::now() + d);
        let mut state = self.lock_state();
        while state.inflight.len() >= self.capacity {
            state = self
                .shared
                .frame_done
                .wait(state)
                .expect("session lock poisoned");
        }
        state.inflight.insert(
            id,
            InFlight {
                out: Arc::new(Mutex::new(Some(Tensor::zeros(p.do_channels, out_h, out_w)))),
                stats: ImageRunStats::default(),
                open: bands.len(),
                failure: None,
                bands: bands
                    .iter()
                    .map(|rows| BandSlot {
                        rows: rows.clone(),
                        attempts: 1,
                        live: 1,
                        running_on: Vec::new(),
                        last_worker: None,
                        phase: BandPhase::Active,
                    })
                    .collect(),
                image: image.clone(),
                cols,
                deadline,
                counters: SupervisorCounters::default(),
            },
        );
        drop(state);

        for (band, rows) in bands.into_iter().enumerate() {
            self.tasks
                .send(Msg::Band(BandTask {
                    frame: id,
                    band,
                    rows,
                    image: image.clone(),
                    attempt: 1,
                    exclude: None,
                }))
                .expect("workers outlive the session");
        }
        if deadline.is_some() {
            // The supervisor recomputes its sleep to cover the new frame.
            self.shared.supervisor.notify_all();
        }
        self.order.push_back(id);
        Ok(FrameTicket {
            session: self.session_id,
            frame: id,
        })
    }

    /// Non-blocking claim: [`FramePoll::Ready`] hands the finished frame
    /// over (the ticket is spent), [`FramePoll::Pending`] means it is
    /// still in flight.
    ///
    /// # Errors
    ///
    /// [`EngineError::Frame`] if the frame failed in flight (the ticket
    /// is spent); [`EngineError::Ticket`] for a ticket this session never
    /// issued or whose result was already claimed.
    pub fn poll(&mut self, ticket: FrameTicket) -> Result<FramePoll, EngineError> {
        if ticket.session != self.session_id {
            return Err(EngineError::Ticket {
                frame: ticket.frame,
            });
        }
        let mut state = self.lock_state();
        if let Some(result) = state.done.remove(&ticket.frame) {
            drop(state);
            self.order.retain(|&id| id != ticket.frame);
            return result.map(|(out, stats)| FramePoll::Ready(out, Box::new(stats)));
        }
        if state.inflight.contains_key(&ticket.frame) {
            return Ok(FramePoll::Pending);
        }
        Err(EngineError::Ticket {
            frame: ticket.frame,
        })
    }

    /// Blocking claim: waits until the frame finishes.
    ///
    /// # Errors
    ///
    /// As [`AsyncSession::poll`].
    pub fn wait(
        &mut self,
        ticket: FrameTicket,
    ) -> Result<(Tensor<f32>, ImageRunStats), EngineError> {
        if ticket.session != self.session_id {
            return Err(EngineError::Ticket {
                frame: ticket.frame,
            });
        }
        let mut state = self.lock_state();
        loop {
            if let Some(result) = state.done.remove(&ticket.frame) {
                drop(state);
                self.order.retain(|&id| id != ticket.frame);
                return result;
            }
            if !state.inflight.contains_key(&ticket.frame) {
                return Err(EngineError::Ticket {
                    frame: ticket.frame,
                });
            }
            state = self
                .shared
                .frame_done
                .wait(state)
                .expect("session lock poisoned");
        }
    }

    /// Waits for every in-flight frame and returns all unclaimed results
    /// in submission order — the pipelined counterpart of
    /// [`Session::run_frames`](crate::engine::Session::run_frames).
    ///
    /// Every outstanding ticket is collected **before** the first error
    /// is propagated: by the time this returns, nothing is in flight and
    /// no worker holds a band of an abandoned frame — the pipeline is
    /// quiescent either way.
    ///
    /// # Errors
    ///
    /// Returns the first failing frame's [`EngineError::Frame`] (by
    /// submission order). Results of earlier frames are dropped, matching
    /// `run_frames`; later frames — finished, by the wait above — stay
    /// claimable through [`AsyncSession::poll`], and a repeated `drain`
    /// surfaces the next failure (or the remaining successes).
    pub fn drain(&mut self) -> Result<Vec<(Tensor<f32>, ImageRunStats)>, EngineError> {
        // Lock through a clone of the shared handle so the guard does not
        // pin `self` while `order` is drained.
        let shared = self.shared.clone();
        let mut state = shared.state.lock().expect("session lock poisoned");
        while !state.inflight.is_empty() {
            state = shared
                .frame_done
                .wait(state)
                .expect("session lock poisoned");
        }
        let mut results = Vec::with_capacity(self.order.len());
        while let Some(id) = self.order.pop_front() {
            match state.done.remove(&id) {
                Some(Ok(pair)) => results.push(pair),
                Some(Err(e)) => return Err(e),
                None => return Err(EngineError::Ticket { frame: id }),
            }
        }
        Ok(results)
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, State> {
        self.shared.state.lock().expect("session lock poisoned")
    }

    /// Test support: records `source` as an in-flight frame failure, as
    /// if its first band had finally failed on a worker — exercising the
    /// skip/attribution/completion machinery that real inputs cannot
    /// reach (geometry is validated at submit and compiled plans at
    /// engine build). Bypasses the retry ladder deliberately. Returns
    /// whether the frame was still in flight.
    #[doc(hidden)]
    pub fn inject_band_failure(&mut self, ticket: FrameTicket, source: EngineError) -> bool {
        if ticket.session != self.session_id {
            return false;
        }
        let mut state = self.lock_state();
        if !state.inflight.contains_key(&ticket.frame) {
            return false;
        }
        fail_frame(
            &mut state,
            &self.shared,
            ticket.frame,
            Failure {
                band_start: 0,
                worker: 0,
                block: 0,
                source,
            },
        );
        true
    }
}

impl Drop for AsyncSession {
    fn drop(&mut self) {
        // Stop the supervisor first so no respawn races the shutdown.
        self.lock_state().stop = true;
        self.shared.supervisor.notify_all();
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
        // One sentinel per worker: queued band tasks drain first (FIFO),
        // then each live worker consumes exactly one sentinel and exits.
        // A worker that died without a respawn simply leaves its sentinel
        // behind; its join below returns the panic, which we discard.
        for _ in 0..self.n_workers {
            let _ = self.tasks.send(Msg::Shutdown);
        }
        let handles: Vec<JoinHandle<()>> = self
            .workers
            .lock()
            .expect("worker-handle lock poisoned")
            .iter_mut()
            .filter_map(|h| h.take())
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Notifies the supervisor when a worker thread dies by panic (the
/// injected-fault path): armed on entry, disarmed on orderly exit, the
/// `Drop` impl runs during the unwind.
struct DeathNotice {
    shared: Arc<Shared>,
    worker: usize,
    armed: bool,
}

impl Drop for DeathNotice {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        // A poisoned lock here would mean a panic *while holding* the
        // state lock, which no code path does; don't double-panic on it.
        if let Ok(mut state) = self.shared.state.lock() {
            state.dead.push(self.worker);
        }
        self.shared.supervisor.notify_all();
    }
}

/// What a worker decided about a just-received dispatch, under the lock.
enum Claim {
    /// Run it: the frame's output handle and the rung to execute on.
    Run(Arc<Mutex<Option<Tensor<f32>>>>, usize),
    /// This worker is excluded; put it back for a sibling.
    Requeue,
    /// Nothing to run (frame gone/failed or band settled); accounting is
    /// already done.
    Skip,
}

fn worker_loop(ctx: &Ctx, worker: usize) {
    let mut guard = DeathNotice {
        shared: ctx.shared.clone(),
        worker,
        armed: true,
    };
    let xo = ctx.engine.compiled().program.do_side;
    let mut rung = 0usize;
    let mut session = ctx.engine.session_at(ctx.ladder[rung]);
    while let Ok(msg) = ctx.rx.recv() {
        let task = match msg {
            Msg::Shutdown => break,
            Msg::Band(task) => task,
        };
        let claim = {
            let mut state = ctx.shared.state.lock().expect("session lock poisoned");
            claim_dispatch(&mut state, &ctx.shared, &task, worker, ctx.n_workers)
        };
        let (out, want_rung) = match claim {
            Claim::Skip => continue,
            Claim::Requeue => {
                let _ = ctx.tx.send(Msg::Band(task));
                // Give a sibling a moment to pick it up before this
                // worker sees it again (the exclusion is best-effort).
                std::thread::sleep(Duration::from_micros(200));
                continue;
            }
            Claim::Run(out, want_rung) => (out, want_rung),
        };
        if want_rung != rung {
            rung = want_rung;
            session = ctx.engine.session_at(ctx.ladder[rung]);
        }
        // Deterministic fault injection: a pure function of the dispatch
        // site, rolled only when the engine carries a non-empty plan.
        if let Some(plan) = ctx.engine.fault_plan() {
            let r = ctx.ladder[rung];
            match plan.roll(task.frame, task.band, task.attempt, r.kernels, r.coalesce) {
                Some(Fault::Panic) => {
                    record_injected(ctx, task.frame);
                    // Escapes the loop entirely: the thread dies, the
                    // DeathNotice wakes the supervisor, which joins this
                    // worker, respawns the slot and fails the band as a
                    // dispatch (real executor panics below stay caught —
                    // they are bugs, not environmental faults). The
                    // dispatch stays registered in `running_on` so the
                    // respawn sweep can find and fail it.
                    panic!(
                        "injected fault: worker {worker} frame {} band {} attempt {}",
                        task.frame, task.band, task.attempt
                    );
                }
                Some(Fault::Delay(d)) => {
                    record_injected(ctx, task.frame);
                    std::thread::sleep(d);
                }
                Some(Fault::Corrupt) => {
                    record_injected(ctx, task.frame);
                    let source = EngineError::Corrupt {
                        band: task.rows.start,
                        kernels: r.kernels.as_str(),
                    };
                    drop(out);
                    conclude_dispatch(ctx, &task, worker, Err((source, None)));
                    continue;
                }
                None => {}
            }
        }
        // The executor and stitch only panic on internal invariant
        // violations; the catch spans the whole execute-and-paste step so
        // any such bug (including a lock poisoned by a sibling band's
        // panic) becomes a structured per-dispatch error that still books
        // its band — never a hung pipeline.
        let ran = catch_unwind(AssertUnwindSafe(|| {
            session
                .process_rows(&task.image, task.rows.clone())
                .map(|_| ())?;
            // Stitch under the frame's own lock: bands of other frames
            // (and session polls) proceed concurrently. A late duplicate
            // of a settled band either re-pastes identical bytes or finds
            // the output already handed out (`None`) — bit-identical
            // either way.
            let band = session.last_frame().expect("band stitched by process_rows");
            if let Some(dst) = out.lock().expect("frame lock poisoned").as_mut() {
                dst.paste(band, task.rows.start * xo, 0);
            }
            Ok(session.last_frame_stats())
        }));
        let outcome = match ran {
            Ok(Ok(stats)) => Ok(stats),
            Ok(Err(source)) => Err((source, session.last_block_started())),
            Err(panic) => {
                // The session (pool, scratch) may be mid-block; rebuild it.
                session = ctx.engine.session_at(ctx.ladder[rung]);
                Err((
                    EngineError::Worker {
                        message: panic_message(&*panic),
                    },
                    None,
                ))
            }
        };
        // The frame handle must be released before the accounting: frame
        // completion takes the state lock first and the output lock
        // second, never the other way around.
        drop(out);
        conclude_dispatch(ctx, &task, worker, outcome);
    }
    guard.armed = false;
}

/// Per-frame fault accounting, in its own lock scope (so an injected
/// panic right after never poisons the state lock).
fn record_injected(ctx: &Ctx, frame: usize) {
    let mut state = ctx.shared.state.lock().expect("session lock poisoned");
    if let Some(fl) = state.inflight.get_mut(&frame) {
        fl.counters.faults_injected += 1;
    }
}

/// Books one received dispatch under the lock: drops stale ones, settles
/// bands of failing frames, bounces excluded workers.
fn claim_dispatch(
    state: &mut State,
    shared: &Shared,
    task: &BandTask,
    worker: usize,
    n_workers: usize,
) -> Claim {
    let rung = state.rung;
    let Some(fl) = state.inflight.get_mut(&task.frame) else {
        // The frame already completed (a duplicate outlived it).
        return Claim::Skip;
    };
    let slot = &mut fl.bands[task.band];
    if slot.phase == BandPhase::Settled {
        slot.live -= 1;
        return Claim::Skip;
    }
    if fl.failure.is_some() {
        // The frame is already failing: settle the band unrun (the skip
        // path that keeps accounting closed — no hang).
        slot.phase = BandPhase::Settled;
        slot.live -= 1;
        let attempts = slot.attempts;
        fl.open -= 1;
        fl.counters.record_attempts(attempts);
        if fl.open == 0 {
            complete_frame(state, shared, task.frame);
        }
        return Claim::Skip;
    }
    if task.exclude == Some(worker) && n_workers > 1 {
        return Claim::Requeue;
    }
    slot.running_on.push(worker);
    slot.last_worker = Some(worker);
    Claim::Run(fl.out.clone(), rung)
}

/// Books the end of one dispatch: deregisters the worker, then settles
/// the band (success) or routes the failure to the supervisor machinery.
/// The injected-panic path never gets here — its dispatch stays
/// registered so the respawn sweep fails it with the joined payload.
fn conclude_dispatch(
    ctx: &Ctx,
    task: &BandTask,
    worker: usize,
    outcome: Result<ImageRunStats, (EngineError, Option<usize>)>,
) {
    let mut state = ctx.shared.state.lock().expect("session lock poisoned");
    let Some(fl) = state.inflight.get_mut(&task.frame) else {
        return;
    };
    let slot = &mut fl.bands[task.band];
    slot.running_on.retain(|&w| w != worker);
    slot.live -= 1;
    if slot.phase == BandPhase::Settled {
        // A duplicate already settled this band; nothing more to book.
        return;
    }
    match outcome {
        Ok(stats) => {
            slot.phase = BandPhase::Settled;
            let attempts = slot.attempts;
            fl.open -= 1;
            fl.counters.record_attempts(attempts);
            if fl.failure.is_none() {
                fl.stats.merge(&stats);
            }
            if fl.open == 0 {
                complete_frame(&mut state, &ctx.shared, task.frame);
            }
        }
        Err((source, block)) => {
            band_failed(
                &mut state, ctx, task.frame, task.band, worker, source, block,
            );
        }
    }
}

/// One dispatch of `band` failed. Corruption-class failures advance the
/// degradation ladder; then the band either waits for a still-live
/// sibling dispatch, schedules a backoff retry, or — attempts exhausted —
/// fails its frame (earliest failing band wins).
fn band_failed(
    state: &mut State,
    ctx: &Ctx,
    frame: usize,
    band: usize,
    worker: usize,
    source: EngineError,
    block: Option<usize>,
) {
    // Ladder accounting first: the rung is session state, not frame
    // state — persistent corruption on one stream degrades the session
    // for all subsequent frames (and clears the fault if it was scoped
    // to the abandoned kernels/layout).
    let mut degraded = false;
    if classify(&source) == FailureClass::Corrupt {
        state.rung_failures += 1;
        if state.rung_failures >= ctx.policy.degrade_after && state.rung + 1 < ctx.ladder.len() {
            let from = ctx.ladder[state.rung];
            state.rung += 1;
            state.rung_failures = 0;
            state.stats.rung = state.rung;
            state.stats.degradations.push(DegradeEvent {
                frame,
                from,
                to: ctx.ladder[state.rung],
            });
            degraded = true;
        }
    }
    let Some(fl) = state.inflight.get_mut(&frame) else {
        return;
    };
    if degraded {
        fl.counters.degradations += 1;
    }
    let slot = &mut fl.bands[band];
    slot.last_worker = Some(worker);
    if slot.phase != BandPhase::Active {
        return;
    }
    if slot.live > 0 {
        // A duplicate dispatch of this band is still out; let it decide.
        return;
    }
    if fl.failure.is_none() && slot.attempts < ctx.policy.max_attempts {
        slot.phase = BandPhase::Backoff;
        let backoff = ctx.policy.backoff(slot.attempts);
        fl.counters.retries += 1;
        state.retries.push(Retry {
            due: Instant::now() + backoff,
            frame,
            band,
        });
        ctx.shared.supervisor.notify_all();
        return;
    }
    // Out of attempts (or the frame is failing anyway): settle for good
    // and record the failure.
    slot.phase = BandPhase::Settled;
    let band_start = slot.rows.start;
    let attempts = slot.attempts;
    fl.open -= 1;
    fl.counters.record_attempts(attempts);
    let cols = fl.cols;
    fail_frame(
        state,
        &ctx.shared,
        frame,
        Failure {
            band_start,
            worker,
            block: block.unwrap_or(band_start * cols),
            source,
        },
    );
}

/// Records a frame failure (earliest failing band wins), settles every
/// band still waiting in backoff, cancels their scheduled retries, and
/// completes the frame if nothing else is outstanding. Bands with live
/// dispatches settle through the skip path as those conclude.
fn fail_frame(state: &mut State, shared: &Shared, frame: usize, failure: Failure) {
    let Some(fl) = state.inflight.get_mut(&frame) else {
        return;
    };
    if fl
        .failure
        .as_ref()
        .is_none_or(|cur| failure.band_start < cur.band_start)
    {
        fl.failure = Some(failure);
    }
    let open = &mut fl.open;
    let counters = &mut fl.counters;
    for slot in &mut fl.bands {
        if slot.phase == BandPhase::Backoff {
            slot.phase = BandPhase::Settled;
            *open -= 1;
            counters.record_attempts(slot.attempts);
        }
    }
    let open_now = fl.open;
    state.retries.retain(|r| r.frame != frame);
    if open_now == 0 {
        complete_frame(state, shared, frame);
    }
}

/// Moves a fully-settled frame to `done` and wakes pollers. Lock order:
/// state lock (held by the caller) first, output lock second — workers
/// never hold both.
fn complete_frame(state: &mut State, shared: &Shared, frame: usize) {
    let mut fl = state.inflight.remove(&frame).expect("frame is in flight");
    fl.stats.supervisor = fl.counters;
    state.stats.counters.absorb(&fl.counters);
    let result = match fl.failure {
        None => {
            let out = fl
                .out
                .lock()
                .expect("frame lock poisoned")
                .take()
                .expect("completed frame still owns its output");
            Ok((out, fl.stats))
        }
        Some(f) => Err(EngineError::Frame {
            frame,
            worker: f.worker,
            block: f.block,
            source: Box::new(f.source),
        }),
    };
    state.done.insert(frame, result);
    shared.frame_done.notify_all();
}

/// The supervisor thread: fires due retries, expires frame deadlines,
/// and joins + respawns dead workers. Event-driven — it sleeps on the
/// `supervisor` condvar until the next scheduled instant (or
/// indefinitely when nothing is scheduled), so an idle or fault-free
/// session costs nothing.
fn supervisor_loop(ctx: &Ctx, handles: &Arc<Mutex<Vec<Option<JoinHandle<()>>>>>) {
    loop {
        let respawn: Vec<usize>;
        {
            let mut state = ctx.shared.state.lock().expect("session lock poisoned");
            loop {
                if state.stop {
                    return;
                }
                if !state.dead.is_empty() {
                    respawn = std::mem::take(&mut state.dead);
                    break;
                }
                let now = Instant::now();
                let mut fired = false;
                let mut i = 0;
                while i < state.retries.len() {
                    if state.retries[i].due <= now {
                        let retry = state.retries.swap_remove(i);
                        fire_retry(&mut state, ctx, &retry);
                        fired = true;
                    } else {
                        i += 1;
                    }
                }
                let expired: Vec<usize> = state
                    .inflight
                    .iter()
                    .filter(|(_, fl)| fl.deadline.is_some_and(|d| d <= now))
                    .map(|(&frame, _)| frame)
                    .collect();
                for frame in expired {
                    fire_deadline(&mut state, ctx, frame, now);
                    fired = true;
                }
                if fired {
                    continue;
                }
                let next = state
                    .retries
                    .iter()
                    .map(|r| r.due)
                    .chain(state.inflight.values().filter_map(|fl| fl.deadline))
                    .min();
                state = match next {
                    Some(due) => {
                        let now = Instant::now();
                        if due <= now {
                            continue;
                        }
                        ctx.shared
                            .supervisor
                            .wait_timeout(state, due - now)
                            .expect("session lock poisoned")
                            .0
                    }
                    None => ctx
                        .shared
                        .supervisor
                        .wait(state)
                        .expect("session lock poisoned"),
                };
            }
        }
        // Join and respawn outside the state lock: a join can block on
        // the dying thread's unwind, and the replacement spawn allocates.
        for worker in respawn {
            let handle = handles
                .lock()
                .expect("worker-handle lock poisoned")
                .get_mut(worker)
                .and_then(|h| h.take());
            let message = handle
                .and_then(|h| h.join().err())
                .and_then(|p| panic_message(&*p));
            let ctx2 = ctx.clone();
            let replacement = std::thread::spawn(move || worker_loop(&ctx2, worker));
            if let Some(slot) = handles
                .lock()
                .expect("worker-handle lock poisoned")
                .get_mut(worker)
            {
                *slot = Some(replacement);
            }
            let mut state = ctx.shared.state.lock().expect("session lock poisoned");
            state.stats.counters.respawns += 1;
            fail_bands_running_on(&mut state, ctx, worker, message);
        }
    }
}

/// A scheduled retry came due: re-dispatch the band (bumped attempt,
/// excluding the worker that failed it last, if the policy says so).
fn fire_retry(state: &mut State, ctx: &Ctx, retry: &Retry) {
    let Some(fl) = state.inflight.get_mut(&retry.frame) else {
        return;
    };
    if fl.failure.is_some() {
        // `fail_frame` settles backoff bands and cancels retries; one
        // that raced it here has nothing left to do.
        return;
    }
    let slot = &mut fl.bands[retry.band];
    if slot.phase != BandPhase::Backoff {
        return;
    }
    slot.attempts += 1;
    slot.live += 1;
    slot.phase = BandPhase::Active;
    let exclude = if ctx.policy.redispatch_elsewhere {
        slot.last_worker
    } else {
        None
    };
    let task = BandTask {
        frame: retry.frame,
        band: retry.band,
        rows: slot.rows.clone(),
        image: fl.image.clone(),
        attempt: slot.attempts,
        exclude,
    };
    let _ = ctx.tx.send(Msg::Band(task));
}

/// A frame overran its soft deadline: resubmit every straggler band that
/// still has attempts left (first completion wins), then re-arm.
fn fire_deadline(state: &mut State, ctx: &Ctx, frame: usize, now: Instant) {
    let rearm = ctx.policy.frame_deadline.map(|d| now + d);
    let Some(fl) = state.inflight.get_mut(&frame) else {
        return;
    };
    fl.deadline = rearm;
    if fl.failure.is_some() {
        return;
    }
    let image = fl.image.clone();
    let mut resubmitted = false;
    for (band, slot) in fl.bands.iter_mut().enumerate() {
        if slot.phase == BandPhase::Active
            && slot.live > 0
            && slot.attempts < ctx.policy.max_attempts
        {
            slot.attempts += 1;
            slot.live += 1;
            let exclude = if ctx.policy.redispatch_elsewhere {
                slot.running_on.last().copied()
            } else {
                None
            };
            let _ = ctx.tx.send(Msg::Band(BandTask {
                frame,
                band,
                rows: slot.rows.clone(),
                image: image.clone(),
                attempt: slot.attempts,
                exclude,
            }));
            resubmitted = true;
        }
    }
    if resubmitted {
        fl.counters.deadline_hits += 1;
    }
}

/// A worker died: every dispatch it was running becomes a failed
/// dispatch carrying the joined panic message.
fn fail_bands_running_on(state: &mut State, ctx: &Ctx, worker: usize, message: Option<String>) {
    let running: Vec<(usize, usize)> = state
        .inflight
        .iter()
        .flat_map(|(&frame, fl)| {
            fl.bands
                .iter()
                .enumerate()
                .filter(|(_, slot)| slot.running_on.contains(&worker))
                .map(move |(band, _)| (frame, band))
        })
        .collect();
    for (frame, band) in running {
        let Some(fl) = state.inflight.get_mut(&frame) else {
            continue;
        };
        let slot = &mut fl.bands[band];
        slot.running_on.retain(|&w| w != worker);
        slot.live -= 1;
        if slot.phase == BandPhase::Settled {
            continue;
        }
        band_failed(
            state,
            ctx,
            frame,
            band,
            worker,
            EngineError::Worker {
                message: message.clone(),
            },
            None,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EcnnBackend, Workload};
    use crate::faults::FaultPlan;
    use ecnn_model::ernet::{ErNetSpec, ErNetTask};
    use ecnn_model::RealTimeSpec;
    use ecnn_tensor::{ImageKind, SyntheticImage};

    fn engine() -> Engine {
        let w = Workload::ernet(
            ErNetSpec::new(ErNetTask::Dn, 2, 1, 0),
            40,
            RealTimeSpec::HD30,
        )
        .unwrap();
        EcnnBackend::paper().engine(&w).unwrap()
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
    fn worker_failure_carries_shard_and_block() {
        // Band 1 panics on every attempt: the error names the frame, the
        // worker and band 1's first block, chained to the worker panic.
        let engine = Engine::builder()
            .ernet(ErNetSpec::new(ErNetTask::Dn, 2, 1, 0))
            .block(40)
            .realtime(RealTimeSpec::HD30)
            .faults(FaultPlan::parse("seed=1;panic@1000:band=1").unwrap())
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
    fn rows_outside_the_grid_are_a_structured_error() {
        let engine = engine();
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
}
