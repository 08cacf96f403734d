//! The canonical plan-time configuration surface: one serializable
//! [`EngineConfig`] holding every knob of a compiled engine.
//!
//! [`EngineConfig`] is a single value that
//!
//! * the [`EngineBuilder`](crate::engine::EngineBuilder) setters are thin
//!   sugar over (and [`Engine::config`](crate::engine::Engine::config)
//!   returns resolved),
//! * the documented `ECNN_*` environment namespace overrides in exactly
//!   one place ([`EngineConfig::from_env_overrides`]).
//!
//! Parallelism is not a knob: it is an argument of the call that spawns
//! the threads ([`Engine::async_session`](crate::engine::Engine::async_session),
//! [`Engine::run_image_sharded`](crate::engine::Engine::run_image_sharded)),
//! since a worker count describes the host, not the compiled program.
//!
//! # Environment overrides
//!
//! A deployed binary can be steered onto a known-good path without a
//! rebuild through the `ECNN_*` namespace, parsed once at
//! [`EngineBuilder::build`](crate::engine::EngineBuilder::build):
//!
//! | variable        | values                          | overrides            |
//! |-----------------|---------------------------------|----------------------|
//! | `ECNN_KERNELS`  | `simd` \| `packed` \| `reference` | [`EngineConfig::kernels`]  |
//! | `ECNN_VERIFY`   | `off` \| `lints` \| `strict`    | [`EngineConfig::verify`]   |
//! | `ECNN_FAULTS`   | [fault-plan grammar](crate::faults) \| `off` | [`EngineConfig::faults`] |
//!
//! Values are case-insensitive; invalid values are ignored (never
//! fatal) but recorded, and every applied or ignored override is
//! surfaced in the engine's `FrameReport` note so an overridden fleet
//! is observable.
//!
//! # Plane layout
//!
//! The plane layout is not a knob. A session runs coalesced (planes
//! with disjoint lifetimes share pool slots) exactly when its plan's
//! verification proves a `MemoryPlan`, under every [`VerifyMode`], as the
//! narrow-accumulator license does; otherwise it runs the keyed table,
//! one slot per `(buffer, group)`. The keyed table is also the
//! supervisor's floor rung and the tests' reference layout.

use crate::faults::FaultPlan;
use crate::json::escape;
use ecnn_isa::verify::VerifyMode;
use ecnn_sim::Kernels;
use std::fmt;

/// Every plan-time knob of an eCNN engine, in one serializable value.
///
/// `PartialEq`/`Eq` make resolved configs directly comparable; the JSON
/// form ([`EngineConfig::to_json`]) is deterministic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Input block side (`xi`) the program is compiled for.
    pub block: usize,
    /// Accumulation kernel family every execution path runs.
    pub kernels: Kernels,
    /// Static-verification mode run at build time.
    pub verify: VerifyMode,
    /// Deterministic fault-injection plan the supervision layer runs
    /// under (see [`crate::faults`]). `None` — the default, and what
    /// every production config should carry — injects nothing and is
    /// skipped entirely on the dispatch path.
    pub faults: Option<FaultPlan>,
}

impl EngineConfig {
    /// The default configuration at a given block size: SIMD kernels,
    /// lint-level verification, no fault plan — exactly what
    /// `Engine::builder().block(xi)` resolves to.
    pub fn new(block: usize) -> Self {
        Self {
            block,
            kernels: Kernels::Simd,
            verify: VerifyMode::default(),
            faults: None,
        }
    }

    /// Deterministic single-line JSON encoding, stable key order. The
    /// `faults` key is emitted only when a plan is set.
    pub fn to_json(&self) -> String {
        let faults = match &self.faults {
            Some(plan) => format!(", \"faults\": {}", escape(&plan.to_string())),
            None => String::new(),
        };
        format!(
            "{{\"block\": {}, \"kernels\": {}, \"verify\": {}{}}}",
            self.block,
            escape(self.kernels.as_str()),
            escape(self.verify.as_str()),
            faults,
        )
    }

    /// Reads the unified `ECNN_*` override namespace from the process
    /// environment — the single place these variables are parsed (see
    /// the [module docs](self) for the table).
    pub fn from_env_overrides() -> EnvOverrides {
        EnvOverrides::parse(
            ["ECNN_KERNELS", "ECNN_VERIFY", "ECNN_FAULTS"]
                .into_iter()
                .filter_map(|name| std::env::var(name).ok().map(|v| (name, v))),
        )
    }
}

impl fmt::Display for EngineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "block {} kernels {} verify {}",
            self.block,
            self.kernels.as_str(),
            self.verify.as_str(),
        )?;
        if let Some(plan) = self.faults.as_ref().filter(|p| !p.is_empty()) {
            write!(f, " faults[{plan}]")?;
        }
        Ok(())
    }
}

/// The parsed `ECNN_*` environment overrides: which knobs were set, and
/// a note per variable seen (applied or ignored) for report surfacing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EnvOverrides {
    /// `ECNN_KERNELS`, when set to a valid kernel name.
    pub kernels: Option<Kernels>,
    /// `ECNN_VERIFY`, when set to a valid mode name.
    pub verify: Option<VerifyMode>,
    /// `ECNN_FAULTS`, when set to a valid fault-plan string. `off` /
    /// `none` / the empty string parse to `Some(empty plan)`, which
    /// *overrides* (clears) a plan configured elsewhere — the ops
    /// kill switch for a fault-injection canary.
    pub faults: Option<FaultPlan>,
    /// One human-readable note per `ECNN_*` variable observed, e.g.
    /// `"ECNN_KERNELS=packed"` or `"ECNN_VERIFY=paranoid ignored (invalid)"`.
    pub notes: Vec<String>,
}

impl EnvOverrides {
    /// Parses `(name, value)` pairs from the `ECNN_*` namespace. Pure —
    /// [`EngineConfig::from_env_overrides`] feeds it the real
    /// environment; tests feed it literals. Unknown names and invalid
    /// values are never fatal: they are recorded in
    /// [`EnvOverrides::notes`] and otherwise ignored, preserving the
    /// historical `ECNN_KERNELS` tolerance.
    pub fn parse<'a, I>(vars: I) -> Self
    where
        I: IntoIterator<Item = (&'a str, String)>,
    {
        let mut o = Self::default();
        for (name, value) in vars {
            // An invalid value leaves an earlier valid one in place.
            let applied = match name {
                "ECNN_KERNELS" => Kernels::parse(&value).map(|k| o.kernels = Some(k)),
                "ECNN_VERIFY" => VerifyMode::parse(&value).map(|v| o.verify = Some(v)),
                "ECNN_FAULTS" => FaultPlan::parse(&value).ok().map(|p| o.faults = Some(p)),
                _ => None,
            }
            .is_some();
            if applied {
                o.notes
                    .push(format!("{name}={}", value.to_ascii_lowercase()));
            } else {
                o.notes.push(format!("{name}={value} ignored (invalid)"));
            }
        }
        o
    }

    /// Whether any override knob is set.
    pub fn any(&self) -> bool {
        self.kernels.is_some() || self.verify.is_some() || self.faults.is_some()
    }

    /// Applies the set knobs onto `cfg` (env beats everything else —
    /// the ops escape hatch).
    pub fn apply(&self, cfg: &mut EngineConfig) {
        if let Some(k) = self.kernels {
            cfg.kernels = k;
        }
        if let Some(v) = self.verify {
            cfg.verify = v;
        }
        if let Some(p) = &self.faults {
            // An explicitly empty plan ("ECNN_FAULTS=off") clears a plan
            // configured elsewhere; Engine::fault_plan treats it as none.
            cfg.faults = Some(p.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact JSON form run manifests embed: a reader keyed on it
    /// must not see it drift silently.
    #[test]
    fn config_json_is_pinned() {
        let cfg = EngineConfig {
            block: 128,
            kernels: Kernels::Packed,
            verify: VerifyMode::Strict,
            faults: None,
        };
        assert_eq!(
            cfg.to_json(),
            "{\"block\": 128, \"kernels\": \"packed\", \"verify\": \"strict\"}"
        );
        let mut with_plan = EngineConfig::new(64);
        with_plan.faults = Some(FaultPlan::parse("seed=9;panic@250").unwrap());
        assert_eq!(
            with_plan.to_json(),
            "{\"block\": 64, \"kernels\": \"simd\", \"verify\": \"lints\", \
             \"faults\": \"seed=9;panic@250\"}"
        );
        assert_eq!(
            with_plan.to_string(),
            "block 64 kernels simd verify lints faults[seed=9;panic@250]"
        );
    }

    #[test]
    fn env_overrides_parse_the_unified_namespace() {
        let o = EnvOverrides::parse([
            ("ECNN_KERNELS", "Reference".to_string()),
            ("ECNN_VERIFY", "strict".to_string()),
            ("ECNN_FAULTS", "seed=5;delay@100:ms=3".to_string()),
        ]);
        assert_eq!(o.kernels, Some(Kernels::Reference));
        assert_eq!(o.verify, Some(VerifyMode::Strict));
        assert_eq!(
            o.faults,
            Some(FaultPlan::parse("seed=5;delay@100:ms=3").unwrap())
        );
        assert!(o.any());
        assert_eq!(o.notes.len(), 3);

        let mut cfg = EngineConfig::new(128);
        o.apply(&mut cfg);
        assert_eq!(cfg.kernels, Kernels::Reference);
        assert_eq!(cfg.verify, VerifyMode::Strict);
        assert!(cfg.faults.is_some());
    }

    #[test]
    fn env_overrides_tolerate_invalid_values() {
        let o = EnvOverrides::parse([
            ("ECNN_KERNELS", "cuda".to_string()),
            ("ECNN_VERIFY", "paranoid".to_string()),
            ("ECNN_FAULTS", "explode@10".to_string()),
        ]);
        assert!(!o.any());
        assert_eq!(o.notes.len(), 3);
        assert!(o.notes.iter().all(|n| n.contains("ignored")));
        let mut cfg = EngineConfig::new(128);
        let before = cfg.clone();
        o.apply(&mut cfg);
        assert_eq!(cfg, before, "invalid overrides must not change anything");
    }

    #[test]
    fn env_faults_off_clears_a_configured_plan() {
        let o = EnvOverrides::parse([("ECNN_FAULTS", "off".to_string())]);
        assert!(o.any(), "an explicit off is an override, not a no-op");
        let mut cfg = EngineConfig::new(128);
        cfg.faults = Some(FaultPlan::parse("seed=1;panic@1000").unwrap());
        o.apply(&mut cfg);
        assert_eq!(
            cfg.faults.as_ref().map(FaultPlan::is_empty),
            Some(true),
            "off must clear the plan"
        );
    }
}
