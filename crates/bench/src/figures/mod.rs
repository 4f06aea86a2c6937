//! Figure reproductions (Figs. 5–12). Each submodule exposes a data-producing
//! function (used by tests and the EXPERIMENTS.md tooling) and a `print`
//! entry used by its harness binary.

pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;

use blueprint_core::{Blueprint, CompiledApp};
use blueprint_simrt::time::{secs, SimTime};
use blueprint_simrt::{Fault, FaultPlan, Sim, SimConfig};
use blueprint_wiring::WiringSpec;
use blueprint_workflow::WorkflowSpec;
use blueprint_workload::recorder::IntervalStats;
use blueprint_workload::resilience::{ResilienceConfig, Scenario};

/// Compiles an app for simulation only.
pub fn compile(workflow: &WorkflowSpec, wiring: &WiringSpec) -> CompiledApp {
    Blueprint::new()
        .without_artifacts()
        .compile(workflow, wiring)
        .expect("variant compiles")
}

/// Boots a compiled app with the given seed.
pub fn boot(app: &CompiledApp, seed: u64) -> Sim {
    app.simulation_with(SimConfig {
        seed,
        ..Default::default()
    })
    .expect("simulation boots")
}

/// The workload configuration of a figure run: the experiment driver's
/// one-second bins and five-second drain, with the given seed and entity
/// space. Callers set the load (`rps` and `duration_s`, or `phases`).
pub fn figure_cfg(seed: u64, entities: u64) -> ResilienceConfig {
    ResilienceConfig {
        seed,
        entities,
        interval_ns: secs(1),
        drain_ns: secs(5),
        ..ResilienceConfig::default()
    }
}

/// `cores` of CPU contention on `host` from `at_s` for `dur_s` seconds —
/// the FIRM-style anomaly injector's trigger — as a named scenario whose
/// window is the contention.
pub fn cpu_hog(name: &str, host: String, cores: f64, at_s: u64, dur_s: u64) -> Scenario {
    Scenario {
        name: name.to_string(),
        faults: FaultPlan::none().at(
            secs(at_s),
            Fault::CpuHog {
                host,
                cores,
                duration_ns: secs(dur_s),
            },
        ),
        window: (secs(at_s), secs(at_s + dur_s)),
        ..Scenario::baseline()
    }
}

/// Error rate over the bins of `series` that start in `[from_ns, to_ns)`,
/// or `None` when those bins hold no completion. The integer counts are
/// summed first, so the value is exactly the one a recorder window over
/// the same span gives.
pub fn window_error_rate(
    series: &[IntervalStats],
    from_ns: SimTime,
    to_ns: SimTime,
) -> Option<f64> {
    let (errors, count) = series
        .iter()
        .filter(|s| s.start_ns >= from_ns && s.start_ns < to_ns)
        .fold((0usize, 0usize), |(e, n), s| (e + s.errors, n + s.count));
    (count > 0).then(|| errors as f64 / count as f64)
}

/// Converts an interval series into `(t_secs, [mean_ms, p99_ms, error_rate,
/// goodput])` rows, skipping empty tail intervals.
pub fn latency_rows(series: &[IntervalStats]) -> Vec<(f64, Vec<f64>)> {
    series
        .iter()
        .filter(|s| s.count > 0)
        .map(|s| {
            (
                s.start_ns as f64 / 1e9,
                vec![
                    s.mean_ns / 1e6,
                    s.p99_ns as f64 / 1e6,
                    s.error_rate(),
                    s.ok as f64,
                ],
            )
        })
        .collect()
}

/// The machine (host name) a named service runs on in a compiled system —
/// the anomaly injector needs a concrete target, like FIRM pinning a cgroup.
pub fn host_of_service(app: &CompiledApp, service: &str) -> String {
    let sys = app.system();
    let svc = sys
        .services
        .iter()
        .find(|s| s.name == service)
        .unwrap_or_else(|| panic!("service {service} in system"));
    sys.hosts[sys.processes[svc.process].host].name.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_apps::{hotel_reservation as hr, WiringOpts};

    #[test]
    fn host_lookup_resolves() {
        let app = compile(&hr::workflow(), &hr::wiring(&WiringOpts::default()));
        let host = host_of_service(&app, "reservation");
        assert!(host.starts_with("machine_"), "{host}");
    }
}
