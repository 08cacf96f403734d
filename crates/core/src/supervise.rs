//! Supervision policy and observability for pipelined execution: retry
//! with capped backoff, worker respawn, per-frame soft deadlines, and
//! the verifier-licensed kernel-degradation ladder.
//!
//! [`crate::pipe::AsyncSession`] wraps its worker pool with a supervisor
//! governed by a [`SupervisorPolicy`]:
//!
//! * a failed band dispatch is **retried** up to
//!   [`SupervisorPolicy::max_attempts`] times with capped exponential
//!   backoff, preferring a different worker than the one that failed;
//! * a **panicked worker** is respawned (the pool never shrinks), its
//!   panic payload extracted into the
//!   [`EngineError::Worker`] message,
//!   and the bands it was running are treated as failed dispatches;
//! * a frame exceeding its **soft deadline** gets its still-running
//!   straggler bands resubmitted to other workers — first completion
//!   wins, duplicates are discarded before pasting, so the stitched
//!   output stays bit-identical;
//! * repeated **corruption-class** failures walk the session down the
//!   [`ladder`]: Simd → Packed → Reference kernels, then coalesced →
//!   keyed layout. Every rung is licensed by the PR 6 static verifier —
//!   all variants are proven bit-identical, so degrading trades only
//!   speed, never pixels. Each step is recorded as a [`DegradeEvent`].
//!
//! Outcomes surface in two grains: per-frame [`SupervisorCounters`]
//! merged into [`ImageRunStats`](crate::engine::ImageRunStats), and the
//! session-lifetime [`SupervisorStats`] (with the per-band attempt
//! histogram) behind [`AsyncSession::supervisor_stats`](crate::pipe::AsyncSession::supervisor_stats)
//! / [`SupervisionReport`](crate::report::SupervisionReport).

use crate::engine::EngineError;
use ecnn_sim::Kernels;
use std::fmt;
use std::time::Duration;

/// One rung of the degradation ladder: a kernel family plus a plane
/// layout, both verifier-licensed and bit-identical to every other rung.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DegradeRung {
    /// Kernel family sessions on this rung execute with.
    pub kernels: Kernels,
    /// Whether sessions on this rung run the coalesced plane layout.
    pub coalesce: bool,
}

impl fmt::Display for DegradeRung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}+{}",
            self.kernels.as_str(),
            if self.coalesce { "coalesced" } else { "keyed" }
        )
    }
}

/// The degradation ladder of an engine running `kernels` on its proven
/// layout (`coalesced`, see `Engine::coalesced`), fastest rung first —
/// always non-empty, starting at those kernels and that layout. Kernel
/// families degrade along [`Kernels::ALL`] (fastest → reference), then
/// the coalesced layout falls back to keyed. An engine already at
/// Reference+keyed gets the single-rung ladder (nowhere to fall).
pub fn ladder(kernels: Kernels, coalesced: bool) -> Vec<DegradeRung> {
    let pos = Kernels::ALL
        .iter()
        .position(|&k| k == kernels)
        .unwrap_or(Kernels::ALL.len() - 1);
    let mut rungs: Vec<DegradeRung> = Kernels::ALL[pos..]
        .iter()
        .map(|&kernels| DegradeRung {
            kernels,
            coalesce: coalesced,
        })
        .collect();
    if coalesced {
        rungs.push(DegradeRung {
            kernels: Kernels::Reference,
            coalesce: false,
        });
    }
    rungs
}

/// How the supervisor reacts to failures; see the [module docs](self).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SupervisorPolicy {
    /// Total dispatches one band may consume (first try included) before
    /// its frame fails with the band's last error.
    pub max_attempts: u32,
    /// Backoff before retry `n` is `backoff_base * 2^(n-1)`, capped at
    /// [`SupervisorPolicy::backoff_cap`].
    pub backoff_base: Duration,
    /// Upper bound on the exponential backoff.
    pub backoff_cap: Duration,
    /// Prefer dispatching a retry to a different worker than the one
    /// that just failed it (best effort; moot on a single-worker pool).
    pub redispatch_elsewhere: bool,
    /// Soft per-frame deadline: when a frame is still incomplete this
    /// long after submission, its running straggler bands are
    /// resubmitted to other workers (first completion wins). `None`
    /// disables deadlines.
    pub frame_deadline: Option<Duration>,
    /// Corruption-class failures on the current rung before the session
    /// steps down the degradation ladder.
    pub degrade_after: u32,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(50),
            redispatch_elsewhere: true,
            frame_deadline: None,
            degrade_after: 2,
        }
    }
}

impl SupervisorPolicy {
    /// Backoff before the retry that would be dispatch number
    /// `attempts + 1`, given `attempts` dispatches so far: capped
    /// exponential, `base * 2^(attempts-1)`.
    pub fn backoff(&self, attempts: u32) -> Duration {
        let factor = 1u32 << attempts.saturating_sub(1).min(16);
        self.backoff_base
            .saturating_mul(factor)
            .min(self.backoff_cap)
    }
}

/// Failure class of a band dispatch, deciding the supervisor's reaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureClass {
    /// Worker panic, injected delay overruns, other environmental
    /// failures: retrying on another worker is expected to succeed.
    Transient,
    /// Detected-corruption failures
    /// ([`EngineError::Corrupt`]):
    /// repeats count toward degrading the session's execution rung.
    Corrupt,
}

/// Classifies one band error for the supervisor.
pub fn classify(error: &EngineError) -> FailureClass {
    match error {
        EngineError::Corrupt { .. } => FailureClass::Corrupt,
        _ => FailureClass::Transient,
    }
}

/// Buckets of the per-band attempt histogram: 1, 2, 3, and ≥4 dispatches.
pub const ATTEMPT_BUCKETS: usize = 4;

/// Copy-able supervision counters, kept per frame (merged into
/// [`ImageRunStats`](crate::engine::ImageRunStats)) and session-wide
/// (inside [`SupervisorStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupervisorCounters {
    /// Band retries scheduled after failed dispatches.
    pub retries: u32,
    /// Worker threads respawned after a panic.
    pub respawns: u32,
    /// Frame-deadline expiries that resubmitted straggler bands.
    pub deadline_hits: u32,
    /// Steps taken down the degradation ladder.
    pub degradations: u32,
    /// Faults the configured [`FaultPlan`](crate::faults::FaultPlan)
    /// injected into dispatches.
    pub faults_injected: u32,
    /// Histogram of settled bands by total dispatch count
    /// (see [`ATTEMPT_BUCKETS`]).
    pub attempts: [u32; ATTEMPT_BUCKETS],
}

impl SupervisorCounters {
    /// Adds another counter set into this one.
    pub fn absorb(&mut self, other: &SupervisorCounters) {
        self.retries += other.retries;
        self.respawns += other.respawns;
        self.deadline_hits += other.deadline_hits;
        self.degradations += other.degradations;
        self.faults_injected += other.faults_injected;
        for (mine, theirs) in self.attempts.iter_mut().zip(other.attempts) {
            *mine += theirs;
        }
    }

    /// Books one settled band that took `attempts` dispatches.
    pub fn record_attempts(&mut self, attempts: u32) {
        let bucket = (attempts.max(1) as usize - 1).min(ATTEMPT_BUCKETS - 1);
        self.attempts[bucket] += 1;
    }

    /// Whether the supervisor intervened at all (anything beyond
    /// single-dispatch success).
    pub fn any(&self) -> bool {
        self.retries > 0
            || self.respawns > 0
            || self.deadline_hits > 0
            || self.degradations > 0
            || self.faults_injected > 0
    }
}

impl fmt::Display for SupervisorCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "retries {} respawns {} deadline-hits {} degradations {} faults {} attempts [{}]",
            self.retries,
            self.respawns,
            self.deadline_hits,
            self.degradations,
            self.faults_injected,
            self.attempts
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join("/"),
        )
    }
}

/// One recorded step down the degradation ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DegradeEvent {
    /// Frame whose corruption-class failure triggered the step.
    pub frame: usize,
    /// Rung the session left.
    pub from: DegradeRung,
    /// Rung the session now runs on.
    pub to: DegradeRung,
}

impl fmt::Display for DegradeEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frame {}: {} -> {}", self.frame, self.from, self.to)
    }
}

/// Session-lifetime supervision outcomes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Aggregated counters over every frame (including the per-band
    /// attempt histogram).
    pub counters: SupervisorCounters,
    /// Every ladder step taken, in order.
    pub degradations: Vec<DegradeEvent>,
    /// Current ladder position (index into [`ladder`]; `0` = the
    /// configured rung).
    pub rung: usize,
}

impl fmt::Display for SupervisorStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} rung {}", self.counters, self.rung)?;
        for ev in &self.degradations {
            write!(f, "; {ev}")?;
        }
        Ok(())
    }
}

/// Extracts a human-readable message from a panic payload (`&str` or
/// `String` — what `panic!` produces), so post-mortems name the actual
/// panic instead of a bare worker index.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> Option<String> {
    if let Some(s) = payload.downcast_ref::<&str>() {
        return Some((*s).to_string());
    }
    payload.downcast_ref::<String>().cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn ladder_walks_kernels_then_layout() {
        let rungs = ladder(Kernels::Simd, true);
        assert_eq!(
            rungs,
            vec![
                DegradeRung {
                    kernels: Kernels::Simd,
                    coalesce: true
                },
                DegradeRung {
                    kernels: Kernels::Packed,
                    coalesce: true
                },
                DegradeRung {
                    kernels: Kernels::Reference,
                    coalesce: true
                },
                DegradeRung {
                    kernels: Kernels::Reference,
                    coalesce: false
                },
            ]
        );
        // Already at the bottom: single-rung ladder.
        assert_eq!(ladder(Kernels::Reference, false).len(), 1);
        assert_eq!(format!("{}", rungs[3]), "reference+keyed");
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let policy = SupervisorPolicy::default();
        assert_eq!(policy.backoff(1), Duration::from_millis(1));
        assert_eq!(policy.backoff(2), Duration::from_millis(2));
        assert_eq!(policy.backoff(3), Duration::from_millis(4));
        assert_eq!(policy.backoff(12), policy.backoff_cap);
        // Attempt 0 (no dispatch yet) behaves like attempt 1.
        assert_eq!(policy.backoff(0), Duration::from_millis(1));
    }

    #[test]
    fn counters_absorb_and_histogram() {
        let mut a = SupervisorCounters::default();
        assert!(!a.any());
        a.record_attempts(1);
        a.record_attempts(2);
        a.record_attempts(9);
        assert_eq!(a.attempts, [1, 1, 0, 1]);
        let mut b = SupervisorCounters {
            retries: 2,
            faults_injected: 3,
            ..SupervisorCounters::default()
        };
        b.absorb(&a);
        assert!(b.any());
        assert_eq!(b.attempts, [1, 1, 0, 1]);
        assert_eq!(b.retries, 2);
        let shown = b.to_string();
        assert!(shown.contains("retries 2"));
        assert!(shown.contains("[1/1/0/1]"));
    }

    #[test]
    fn classification_and_panic_payloads() {
        let corrupt = EngineError::Corrupt {
            band: 3,
            kernels: "simd",
        };
        assert_eq!(classify(&corrupt), FailureClass::Corrupt);
        assert_eq!(
            classify(&EngineError::Worker { message: None }),
            FailureClass::Transient
        );
        let p = catch_unwind(AssertUnwindSafe(|| panic!("boom {}", 7))).unwrap_err();
        assert_eq!(panic_message(&*p).as_deref(), Some("boom 7"));
        let p = catch_unwind(AssertUnwindSafe(|| panic!("static"))).unwrap_err();
        assert_eq!(panic_message(&*p).as_deref(), Some("static"));
    }
}
