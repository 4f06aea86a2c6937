//! Benchmark harnesses regenerating every table and figure of the paper's
//! evaluation (§6). One binary per exhibit:
//!
//! | Exhibit | Binary | Library entry |
//! |---|---|---|
//! | Tab. 1 (LoC reduction)        | `table1_loc`            | [`tables::table1`] |
//! | Tab. 2 (backend interfaces)   | `table2_backends`       | [`tables::table2`] |
//! | Tab. 3 (instantiations)       | `table3_instantiations` | [`tables::table3`] |
//! | Tab. 4 (plugins)              | `table4_plugins`        | [`tables::table4`] |
//! | Tab. 5 (instances per system) | `table5_gentime`        | [`tables::table5`] |
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
//! `capacity_validation`) take every piece they share from one definition:
//! the mitigation arms, the fault matrix's workload and crash scenario and
//! the compile step live in [`matrix`], and the four Fig. 6 metastability
//! types (one constructor each, run by the figure and by
//! `ablation_overload`) in [`figures::fig6`].
//!
//! Every binary but `lint_gate` takes one optional flag, parsed by [`Run`]:
//! nothing runs the full-length exhibit and writes `results/<name>.txt`;
//! `--smoke` runs a CI-sized version and writes `results/ci_*.txt`, which
//! `ci.sh` compares byte for byte. Exhibits whose full run takes about a
//! second (Tabs. 1–5, Figs. 8 and 9) have no separate smoke size. Absolute
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

/// The run size of a harness binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Run {
    /// `--smoke`: the CI-sized run, whose report is a committed
    /// `results/ci_*.txt` that CI compares byte for byte.
    Smoke,
    /// No flag: the full-length run behind a committed paper exhibit.
    Full,
}

impl Run {
    /// Parses a binary's arguments (program name excluded). Besides
    /// `--smoke`, only the selector `words` are accepted; the ones given are
    /// returned in order. Anything else is an error naming the argument.
    pub fn parse<'a>(args: &[&'a str], words: &[&str]) -> Result<(Run, Vec<&'a str>), String> {
        let mut run = Run::Full;
        let mut picked = Vec::new();
        for &a in args {
            if a == "--smoke" {
                run = Run::Smoke;
            } else if words.contains(&a) {
                picked.push(a);
            } else {
                return Err(format!("unknown argument `{a}`"));
            }
        }
        Ok((run, picked))
    }

    /// [`Run::parse`] over the process arguments with no selector words;
    /// exits with status 2 and a usage line on anything but `--smoke`.
    pub fn from_args() -> Run {
        Run::from_args_with(&[]).0
    }

    /// [`Run::parse`] over the process arguments; exits with status 2 and a
    /// usage line on an argument that is neither `--smoke` nor in `words`.
    pub fn from_args_with(words: &[&str]) -> (Run, Vec<String>) {
        let args: Vec<String> = std::env::args().collect();
        let rest: Vec<&str> = args.iter().skip(1).map(String::as_str).collect();
        match Run::parse(&rest, words) {
            Ok((run, picked)) => (run, picked.into_iter().map(String::from).collect()),
            Err(e) => {
                let words: String = words.iter().map(|w| format!(" [{w}]")).collect();
                eprintln!("{e}\nusage: {} [--smoke]{words}", args[0]);
                std::process::exit(2);
            }
        }
    }

    /// `smoke` under `--smoke`, else `full`.
    pub fn pick<T>(self, smoke: T, full: T) -> T {
        match self {
            Run::Smoke => smoke,
            Run::Full => full,
        }
    }

    /// Prints the report and writes it to `results/<full>`, or under
    /// `--smoke` to `results/<smoke>`, leaving the other report alone.
    /// Exhibits gated at full length pass the same name twice.
    pub fn emit(self, out: &str, full: &str, smoke: &str) {
        print!("{out}");
        std::fs::create_dir_all("results").expect("results dir");
        let path = format!("results/{}", self.pick(smoke, full));
        std::fs::write(&path, out).unwrap_or_else(|e| panic!("write {path}: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_only_smoke_and_selector_words() {
        assert_eq!(Run::parse(&[], &[]), Ok((Run::Full, vec![])));
        assert_eq!(Run::parse(&["--smoke"], &[]), Ok((Run::Smoke, vec![])));
        let types = ["type1", "type2"];
        assert_eq!(
            Run::parse(&["type2", "--smoke"], &types),
            Ok((Run::Smoke, vec!["type2"]))
        );
        assert!(Run::parse(&["--smok"], &[]).is_err());
        assert!(Run::parse(&["--fast"], &[]).is_err());
        assert!(Run::parse(&["type1"], &[]).is_err());
        assert!(Run::parse(&["type3"], &types).is_err());
    }

    #[test]
    fn pick_follows_the_run_size() {
        assert_eq!(Run::Smoke.pick(1, 2), 1);
        assert_eq!(Run::Full.pick(1, 2), 2);
    }
}
