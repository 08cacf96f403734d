//! Combined system reports: compute + on-chip power + DRAM, plus the
//! supervision snapshot a pipelined session exposes.

use crate::supervise::{DegradeRung, SupervisorPolicy, SupervisorStats};
use ecnn_dram::{DramConfig, DramPower};
use ecnn_model::RealTimeSpec;
use ecnn_sim::cost::PowerReport;
use ecnn_sim::timing::FrameReport;
use std::fmt;

/// Everything the evaluation section reports about one (model, spec) pair.
#[derive(Clone, Debug)]
pub struct SystemReport {
    /// The real-time target.
    pub spec: RealTimeSpec,
    /// Cycle-model results.
    pub frame: FrameReport,
    /// On-chip power breakdown.
    pub power: PowerReport,
    /// DRAM power at the spec rate.
    pub dram_power: DramPower,
    /// Smallest sufficient DRAM interface, if any.
    pub dram_config: Option<DramConfig>,
    /// Whether the achievable fps meets the spec.
    pub meets_realtime: bool,
}

impl SystemReport {
    pub(crate) fn finalize(mut self) -> Self {
        self.meets_realtime = self.frame.fps >= self.spec.fps;
        self
    }

    /// DRAM bandwidth at the (capped) spec rate, bytes per second.
    pub fn dram_bandwidth_bps(&self) -> f64 {
        self.frame
            .dram_total_bps_at(self.spec.fps.min(self.frame.fps))
    }

    /// Energy per output frame in millijoules (core + DRAM).
    pub fn energy_per_frame_mj(&self) -> f64 {
        let fps = self.spec.fps.min(self.frame.fps);
        (self.power.total_w() + self.dram_power.total_mw() / 1e3) / fps * 1e3
    }
}

impl fmt::Display for SystemReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} @ {}", self.frame.model, self.spec)?;
        writeln!(
            f,
            "  fps {:.1} ({}) | {:.1} ms/frame | NCR {:.2} | NBR {:.2}",
            self.frame.fps,
            if self.meets_realtime {
                "real-time"
            } else {
                "below target"
            },
            self.frame.seconds_per_frame * 1e3,
            self.frame.ncr,
            self.frame.nbr,
        )?;
        writeln!(
            f,
            "  power {:.2} W | DRAM {:.2} GB/s on {} ({:.0} mW dynamic)",
            self.power.total_w(),
            self.dram_bandwidth_bps() / 1e9,
            self.dram_config.map_or("(none fits)", |c| c.name),
            self.dram_power.dynamic_mw(),
        )
    }
}

/// Snapshot of a pipelined session's supervision state: the policy it
/// runs under, the verifier-licensed degradation ladder, and everything
/// the supervisor did over the session's lifetime. Obtain via
/// [`AsyncSession::supervision_report`](crate::pipe::AsyncSession::supervision_report).
#[derive(Clone, Debug)]
pub struct SupervisionReport {
    /// The policy the session supervises under.
    pub policy: SupervisorPolicy,
    /// The degradation ladder, fastest rung first (index 0 = the
    /// configured rung); every rung is bit-identical by construction.
    pub ladder: Vec<DegradeRung>,
    /// Session-lifetime outcomes: counters, ladder steps, current rung.
    pub stats: SupervisorStats,
    /// Worker threads in the pool (constant — respawn replaces a dead
    /// worker, the pool never shrinks).
    pub workers: usize,
}

impl fmt::Display for SupervisionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "supervision: {} workers | <= {} attempts/band, backoff {:?}..{:?} | deadline {}",
            self.workers,
            self.policy.max_attempts,
            self.policy.backoff_base,
            self.policy.backoff_cap,
            match self.policy.frame_deadline {
                Some(d) => format!("{d:?}"),
                None => "off".to_string(),
            },
        )?;
        write!(f, "  ladder:")?;
        for (i, rung) in self.ladder.iter().enumerate() {
            let here = if i == self.stats.rung { "*" } else { "" };
            write!(f, " {rung}{here}")?;
        }
        writeln!(f)?;
        write!(f, "  {}", self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use ecnn_model::ernet::{ErNetSpec, ErNetTask};

    #[test]
    fn display_summarizes_all_quantities() {
        let eng = Engine::builder()
            .ernet(ErNetSpec::new(ErNetTask::Dn, 3, 1, 0))
            .block(128)
            .realtime(RealTimeSpec::UHD30)
            .build()
            .unwrap();
        let r = eng.system_report();
        let s = r.to_string();
        assert!(s.contains("DnERNet-B3R1N0"));
        assert!(s.contains("fps"));
        assert!(s.contains("DDR-400"));
        assert!(r.energy_per_frame_mj() > 0.0);
    }

    #[test]
    fn supervision_report_displays_policy_ladder_and_stats() {
        let r = SupervisionReport {
            policy: SupervisorPolicy::default(),
            ladder: crate::supervise::ladder(ecnn_sim::Kernels::Simd, true),
            stats: SupervisorStats::default(),
            workers: 2,
        };
        let s = r.to_string();
        assert!(s.contains("2 workers"), "{s}");
        assert!(s.contains("simd+coalesced*"), "{s}");
        assert!(s.contains("reference+keyed"), "{s}");
        assert!(s.contains("retries 0"), "{s}");
    }
}
