//! Benchmark harnesses regenerating every table and figure of the paper's
//! evaluation (§6). One binary per exhibit:
//!
//! | Exhibit | Binary | Library entry |
//! |---|---|---|
//! | Tab. 1 (LoC reduction)        | `table1_loc`            | [`tables::table1`] |
//! | Tab. 2 (backend interfaces)   | `table2_backends`       | [`tables::table2`] |
//! | Tab. 3 (instantiations)       | `table3_instantiations` | [`tables::table3`] |
//! | Tab. 4 (plugins)              | `table4_plugins`        | [`tables::table4`] |
//! | Tab. 5 (generation time)      | `table5_gentime`        | [`tables::table5`] |
//! | Fig. 5 (RPC/pool/monolith)    | `fig5_rpc_exploration`  | [`figures::fig5`] |
//! | Fig. 6 (metastability 1–4)    | `fig6_metastability`    | [`figures::fig6`] |
//! | Fig. 7 (vulnerability grid)   | `fig7_vulnerability`    | [`figures::fig7`] |
//! | Fig. 8 (inconsistency)        | `fig8_inconsistency`    | [`figures::fig8`] |
//! | Fig. 9 (Sifter)               | `fig9_sifter`           | [`figures::fig9`] |
//! | Fig. 10 (circuit breaker)     | `fig10_circuit_breaker` | [`figures::fig10`] |
//! | Fig. 11 (realism)             | `fig11_realism`         | [`figures::fig11`] |
//! | Fig. 12 (cache interface)     | `fig12_cache_interface` | [`figures::fig12`] |
//!
//! The resilience matrix and cross-validation binaries
//! (`ablation_{faults,overload,reconfig,consistency}`, `lint_validation`,
//! `capacity_validation`) share the [`matrix`] skeleton.
//!
//! Each binary accepts `--quick` for a reduced-duration run. Absolute
//! numbers come from the simulation substrate, so they are not the paper's
//! testbed numbers; the *shapes* (who wins, crossovers, metastable
//! hysteresis) are the reproduction targets. `EXPERIMENTS.md` records both.
//!
//! Workload scale note: the simulated cluster uses the paper's 8-machine
//! shape; Figs. 5/11/12 run at the paper's own request-rate ranges. The
//! metastability studies (Figs. 6/7/10) run on a CPU-reduced cluster
//! (2 cores/machine) with rates scaled by ~1/4, preserving the
//! overload-ratio shape while keeping event counts tractable.

pub mod figures;
pub mod matrix;
pub mod report;
pub mod tables;

/// Run mode for the harness binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Full experiment durations.
    Full,
    /// Reduced durations for smoke runs and CI.
    Quick,
}

impl Mode {
    /// Parses from process args: `--quick` selects [`Mode::Quick`].
    pub fn from_args() -> Mode {
        if std::env::args().any(|a| a == "--quick") {
            Mode::Quick
        } else {
            Mode::Full
        }
    }

    /// Whether this is a quick run.
    pub fn quick(self) -> bool {
        self == Mode::Quick
    }

    /// Scales a duration (seconds) down in quick mode.
    pub fn secs(self, full: u64) -> u64 {
        match self {
            Mode::Full => full,
            Mode::Quick => (full / 3).max(2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_scaling() {
        assert_eq!(Mode::Full.secs(60), 60);
        assert_eq!(Mode::Quick.secs(60), 20);
        assert_eq!(Mode::Quick.secs(3), 2);
        assert!(Mode::Quick.quick());
        assert!(!Mode::Full.quick());
    }
}
