//! Cross-validation of the static capacity model against the simulator
//! (the BP013–BP015 headline exhibit).
//!
//! For each app the harness computes the analytic saturation bracket from
//! the lint capacity model — the *pessimistic* knee (full demand:
//! serialization, GC, driver marshalling; under-predicts capacity) and the
//! *optimistic* knee (base demand only; over-predicts capacity) — then
//! sweeps offered load over the bracket with [`latency_throughput_with`]
//! (`par_run` under the hood) and asserts:
//!
//! * below the pessimistic knee the simulator keeps up (goodput tracks
//!   offered load);
//! * the measured knee (peak goodput over the sweep, i.e. the saturation
//!   plateau) lands inside the static `[pessimistic, optimistic]` bracket;
//! * past the optimistic knee **BP013 capacity-saturation** denies, carries
//!   the optimistic knee as its machine-readable bound, and names the true
//!   bottleneck service;
//! * at a sustainable operating rate (90% of the pessimistic knee) BP013
//!   still warns on the base wiring, while the lint-suggested fix
//!   (replicate the bottleneck so placement spreads the demand) is
//!   completely BP013-silent at the same rate and measurably raises the
//!   measured knee — which again lands inside the *fixed* wiring's bracket.
//!
//! All cases run on the CPU-reduced cluster (24 machines, 2 cores) with
//! tracing disabled, the same convention as the fig6/fig7 exhibits, so the
//! knees sit at rates the sweeps can cover quickly.
//!
//! One case (train_ticket) runs its capacity arms with stop-the-world GC
//! pauses stripped: with default GC its deep call chains convoy behind
//! process-wide freezes and goodput collapses metastably near *half* the
//! CPU knee — a queueing instability the analytic model documents as out
//! of scope (the pauses' CPU cost *is* in the pessimistic demand). The
//! harness pins that collapse with a dedicated known-limit check so the
//! boundary of the model's validity is itself regression-tested.
//!
//! Output goes to stdout and `results/capacity_validation.txt`; the file is
//! timestamp-free and byte-identical across `BLUEPRINT_THREADS` settings
//! (the CI smoke compares `=1` vs `=4`). `--quick` shortens the runs;
//! `--smoke` shortens them further for CI and writes
//! `results/ci_capacity.txt`.

use std::fmt::Write as _;

use blueprint_apps::{hotel_reservation, sock_shop, train_ticket, WiringOpts};
use blueprint_bench::matrix::Run;
use blueprint_bench::report;
use blueprint_core::Blueprint;
use blueprint_lint::model::{Mode as ModelMode, Model};
use blueprint_lint::{context::LintContext, Diagnostic, LintConfig, Linter, Severity};
use blueprint_simrt::SystemSpec;
use blueprint_wiring::{mutate, WiringSpec};
use blueprint_workflow::WorkflowSpec;
use blueprint_workload::generator::ApiMix;
use blueprint_workload::parallel::Threads;
use blueprint_workload::sweep::{latency_throughput_with, SweepPoint};

/// One application under test.
struct Case {
    name: &'static str,
    workflow: WorkflowSpec,
    wiring: WiringSpec,
    /// Traffic mix rows `(entry, method, weight)` — the same rows feed the
    /// static model (`LintConfig::with_mix`) and the workload generator.
    mix: Vec<(&'static str, &'static str, f64)>,
    entities: u64,
    /// The service BP013 is expected to name busiest on the bottleneck
    /// machine under pessimistic demand.
    bottleneck: &'static str,
    /// Services the fix arm replicates (empty = bracket-only case; some
    /// bottlenecks — e.g. an entry service or a shared backend — have no
    /// replicate fix, so those cases only validate the bracket).
    fix: Vec<&'static str>,
    /// Replica count for the fix arm.
    replicas: i64,
    /// Minimum measured-knee gain the fix must deliver.
    min_gain: f64,
    /// Run the simulation arms with stop-the-world GC pauses stripped from
    /// every process. The analytic model charges GC's *CPU* cost (amortized
    /// per allocated byte) but cannot express the convoy dynamics of the
    /// pauses themselves: a pause freezes a whole process, arrivals during
    /// the freeze burst out together, the burst lengthens the next pause's
    /// queue, and past a threshold the feedback is metastable — goodput
    /// collapses far below the CPU knee. Deep call chains over many small
    /// hosts (train_ticket) cross that threshold inside the bracket, so
    /// their capacity arms control for it; the collapse itself is pinned by
    /// a separate known-limit check.
    strip_gc: bool,
}

/// Static capacity predictions for one wiring.
struct Prediction {
    /// Pessimistic (full-demand) saturating rate: lower bracket edge.
    knee_lo: f64,
    /// Optimistic (base-demand) saturating rate: upper bracket edge.
    knee_hi: f64,
    /// The busiest contributor (by pessimistic demand) on the machine that
    /// sets the optimistic knee — the machine BP013's deny fires on.
    busiest: String,
}

/// Extracts the static bracket from the lint capacity model.
fn predict(workflow: &WorkflowSpec, wiring: &WiringSpec, cfg: &LintConfig) -> Prediction {
    let app = Blueprint::new()
        .without_artifacts()
        .without_simulation()
        .compile(workflow, wiring)
        .expect("wiring compiles");
    let ctx = LintContext::with_workflow(app.ir(), wiring, cfg, Some(workflow));
    let model = Model::build(&ctx).expect("workflow present");
    let mix = model.mix();
    assert!(!mix.is_empty(), "traffic mix resolves against entries");
    let base = model.mix_demand(&mix, ModelMode::Optimistic);
    let full = model.mix_demand(&mix, ModelMode::Pessimistic);
    let knee_hi = model.knee_rps(&base).expect("nonzero demand");
    let knee_lo = model.knee_rps(&full).expect("nonzero demand");
    // The machine that sets the optimistic knee (where BP013 denies first),
    // and its busiest contributor under pessimistic demand — the same
    // ordering BP013 uses in its message.
    let bottleneck_host = (0..model.machines.len())
        .filter_map(|h| model.host_knee_rps(&base, h).map(|k| (h, k)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("machines exist")
        .0;
    let busiest = {
        let mut best: Option<(String, f64)> = None;
        for (&n, &d) in full.by_service.iter().chain(&full.by_backend) {
            if model.host_of(n) != bottleneck_host {
                continue;
            }
            if best.as_ref().map(|(_, bd)| d > *bd).unwrap_or(true) {
                best = Some((ctx.node_name(n), d));
            }
        }
        best.map(|(n, _)| n).unwrap_or_default()
    };
    Prediction {
        knee_lo,
        knee_hi,
        busiest,
    }
}

/// Builds the lint config carrying a case's mix and a target rate for the
/// BP013 check.
fn lint_cfg(case: &Case, rps: Option<f64>) -> LintConfig {
    let mut cfg = LintConfig::default();
    for (entry, method, w) in &case.mix {
        cfg = cfg.with_mix(entry, method, *w);
    }
    if let Some(r) = rps {
        cfg = cfg.with_target_rps(r);
    }
    cfg
}

/// Runs the linter over a compiled wiring at a target rate and returns the
/// BP013 diagnostics.
fn bp013_at(case: &Case, wiring: &WiringSpec, rps: f64) -> Vec<Diagnostic> {
    let app = Blueprint::new()
        .without_artifacts()
        .without_simulation()
        .compile(&case.workflow, wiring)
        .expect("wiring compiles");
    Linter::new(lint_cfg(case, Some(rps)))
        .run_with_workflow(app.ir(), wiring, Some(&case.workflow))
        .into_iter()
        .filter(|d| d.rule == "BP013")
        .collect()
}

fn api_mix(case: &Case) -> ApiMix {
    let mut m = ApiMix::new();
    for (entry, method, w) in &case.mix {
        m = m.add(entry, method, *w);
    }
    m
}

/// A sweep ladder spanning the bracket: points below the pessimistic knee
/// to show the system keeping up, a point at the pessimistic knee itself
/// (so the measured peak clears the bracket floor even when the simulator
/// saturates near it), then points at and just past the bracket to hit the
/// saturation peak. Deep-overload points are useless for knee measurement —
/// warmup backlog eats into the measurement window and *depresses* goodput
/// below capacity — so the ladder stays near the knee.
fn ladder(p: &Prediction, smoke: bool) -> Vec<f64> {
    let mid = 0.5 * (p.knee_lo + p.knee_hi);
    let mut rates: Vec<f64> = if smoke {
        vec![0.6 * p.knee_lo, 0.9 * p.knee_lo, p.knee_lo, 1.1 * p.knee_hi]
    } else {
        vec![
            0.5 * p.knee_lo,
            0.7 * p.knee_lo,
            0.9 * p.knee_lo,
            p.knee_lo,
            mid,
            p.knee_hi,
            1.1 * p.knee_hi,
        ]
    };
    // Round to whole rps so the report reads cleanly and stays exact.
    for r in &mut rates {
        *r = r.round();
    }
    rates.dedup();
    rates
}

/// The measured saturation knee: peak goodput over the sweep (past
/// saturation an open-loop sweep's goodput plateaus at capacity).
fn measured_knee(points: &[SweepPoint]) -> f64 {
    points.iter().map(|p| p.goodput_rps).fold(0.0f64, f64::max)
}

fn sweep(
    system: &SystemSpec,
    mix: &ApiMix,
    rates: &[f64],
    duration_s: u64,
    entities: u64,
) -> Vec<SweepPoint> {
    latency_throughput_with(
        system,
        mix,
        rates,
        duration_s,
        entities,
        97,
        Threads::from_env(),
    )
    .expect("sweep runs")
}

fn sweep_rows(points: &[SweepPoint]) -> Vec<Vec<String>> {
    points
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}", p.offered_rps),
                format!("{:.0}", p.goodput_rps),
                format!("{:.3}", p.goodput_rps / p.offered_rps),
                report::f3(p.p50_ms),
                report::f3(p.p99_ms),
                format!("{:.3}", p.error_rate),
            ]
        })
        .collect()
}

/// Sweeps one arm, appends its table + knee verdict to the report, and
/// asserts the keep-up and bracket properties.
fn run_arm(
    out: &mut String,
    label: &str,
    case: &Case,
    wiring: &WiringSpec,
    p: &Prediction,
    duration_s: u64,
    smoke: bool,
) -> f64 {
    let app = Blueprint::new()
        .without_artifacts()
        .compile(&case.workflow, wiring)
        .expect("wiring compiles");
    let mut system = app.system().clone();
    let label = if case.strip_gc {
        for proc in &mut system.processes {
            proc.gc = None;
        }
        format!("{label} (GC pauses stripped)")
    } else {
        label.to_string()
    };
    let rates = ladder(p, smoke);
    let points = sweep(&system, &api_mix(case), &rates, duration_s, case.entities);
    let knee = measured_knee(&points);
    let _ = write!(
        out,
        "{}",
        report::table(
            &label,
            &["offered", "goodput", "ratio", "p50 ms", "p99 ms", "err"],
            &sweep_rows(&points),
        )
    );
    let _ = writeln!(
        out,
        "  measured knee {:.0} rps vs static bracket [{:.0}, {:.0}]",
        knee, p.knee_lo, p.knee_hi
    );
    // Keep-up holds with margin below the pessimistic knee; the knee_lo
    // point itself may already queue (the simulator can saturate anywhere
    // inside the bracket), so it only feeds the peak measurement. Keep-up
    // counts all completions — workflows with intrinsic Fail steps (train)
    // lose a few percent to application errors at any load.
    for pt in points
        .iter()
        .filter(|pt| pt.offered_rps <= 0.9 * p.knee_lo + 1.0)
    {
        let completed_rps = pt.goodput_rps / (1.0 - pt.error_rate).max(1e-9);
        assert!(
            completed_rps >= 0.97 * pt.offered_rps,
            "[{label}] saturates below the pessimistic knee: {:.0} rps offered, \
             {:.0} completed",
            pt.offered_rps,
            completed_rps
        );
    }
    assert!(
        knee >= 0.95 * p.knee_lo && knee <= 1.02 * p.knee_hi,
        "[{label}] measured knee {knee:.0} outside the static bracket [{:.0}, {:.0}]",
        p.knee_lo,
        p.knee_hi
    );
    knee
}

fn main() {
    let run = Run::from_args();
    let duration_s = if run.smoke { 4 } else { run.mode.secs(12) };

    // CPU-reduced cluster, tracing off — same convention as fig6/fig7.
    let opts = WiringOpts {
        cluster: (24, 2.0),
        ..WiringOpts::default().without_tracing()
    };

    let cases = vec![
        Case {
            name: "hotel_reservation",
            workflow: hotel_reservation::workflow(),
            wiring: hotel_reservation::wiring(&opts),
            mix: vec![
                ("frontend", "SearchHotels", 0.60),
                ("frontend", "Recommend", 0.38),
                ("frontend", "Login", 0.01),
                ("frontend", "Reserve", 0.01),
            ],
            entities: hotel_reservation::ENTITIES,
            bottleneck: "recommendation",
            // recommendation saturates first in the optimistic model (and in
            // the simulator); profile is the pessimistic hot spot (its cache
            // miss path reads mongodb), so silencing the warn needs both.
            fix: vec!["recommendation", "profile"],
            replicas: 3,
            min_gain: 1.05,
            strip_gc: false,
        },
        Case {
            name: "sock_shop",
            workflow: sock_shop::workflow(),
            wiring: sock_shop::wiring(&opts),
            mix: vec![
                ("frontend", "Browse", 0.70),
                ("frontend", "AddToCart", 0.15),
                ("frontend", "Login", 0.10),
                ("frontend", "Checkout", 0.05),
            ],
            entities: sock_shop::ENTITIES,
            bottleneck: "catalogue",
            fix: vec!["catalogue"],
            replicas: 3,
            min_gain: 1.20,
            strip_gc: false,
        },
        Case {
            name: "train_ticket",
            workflow: train_ticket::workflow(),
            wiring: train_ticket::wiring(&opts),
            mix: vec![
                ("ts_ui_gateway", "QueryTicket", 0.50),
                ("ts_ui_gateway", "Preserve", 0.20),
                ("ts_ui_gateway", "QueryOrder", 0.15),
                ("ts_ui_gateway", "Login", 0.10),
                ("ts_ui_gateway", "Cancel", 0.05),
            ],
            entities: train_ticket::ENTITIES,
            bottleneck: "ts_route",
            // ts_route shares its machine with ts_travel_plan and the next
            // machines are nearly as hot — no single replicate fix moves the
            // knee enough to silence BP013, so this case is bracket-only.
            fix: vec![],
            replicas: 0,
            min_gain: 1.0,
            // With default GC, train's deep sequential chains convoy behind
            // stop-the-world pauses and collapse near half the CPU knee —
            // see the known-limit check below.
            strip_gc: true,
        },
    ];

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Capacity cross-validation — static bracket vs simulated knee, {duration_s}s per rate, \
         seed 97, cluster (24 machines x 2 cores), tracing off"
    );

    for case in &cases {
        let cfg = lint_cfg(case, None);
        let p = predict(&case.workflow, &case.wiring, &cfg);
        let _ = writeln!(
            out,
            "\n== {} ==\n  static bracket: [{:.0}, {:.0}] rps (pessimistic, optimistic); \
             busiest {}",
            case.name, p.knee_lo, p.knee_hi, p.busiest
        );
        assert_eq!(
            p.busiest, case.bottleneck,
            "[{}] the model's busiest service drifted",
            case.name
        );

        // ---- BP013 denies past the optimistic knee, with the knee as its
        //      machine-readable bound and the true bottleneck named. -------
        let r_deny = (1.05 * p.knee_hi).round();
        let denies = bp013_at(case, &case.wiring, r_deny);
        let deny = denies
            .iter()
            .find(|d| d.severity == Severity::Deny)
            .unwrap_or_else(|| panic!("[{}] BP013 denies at {r_deny:.0} rps", case.name));
        let bound = deny.bound.expect("BP013 deny carries a bound");
        assert!(
            (bound - p.knee_hi).abs() <= 1.0,
            "[{}] BP013 bound {bound:.0} drifted from the optimistic knee {:.0}",
            case.name,
            p.knee_hi
        );
        assert!(
            deny.message
                .contains(&format!("busiest: {}", case.bottleneck)),
            "[{}] BP013 names the wrong bottleneck: {}",
            case.name,
            deny.message
        );
        let _ = writeln!(
            out,
            "  BP013 at {r_deny:.0} rps (past the knee): DENY, bound {bound:.0} rps\n    {}",
            deny.message
        );

        // ---- Base arm: sweep across the bracket. ------------------------
        let knee = run_arm(
            &mut out,
            &format!("{} default wiring", case.name),
            case,
            &case.wiring,
            &p,
            duration_s,
            run.smoke,
        );

        // ---- Known model limit: stop-the-world GC convoys. --------------
        // For cases whose capacity arms strip GC, demonstrate *why*: at an
        // operating rate the model calls sustainable (and which the GC-free
        // arm above sustains), the default-GC wiring collapses. This is a
        // queueing instability — the pauses' CPU cost is already in the
        // pessimistic demand — so it is pinned here as a documented limit
        // of the analytic model rather than folded into the bracket.
        if case.strip_gc {
            let r_op = (0.9 * p.knee_lo).round();
            let app = Blueprint::new()
                .without_artifacts()
                .compile(&case.workflow, &case.wiring)
                .expect("wiring compiles");
            let pts = sweep(
                app.system(),
                &api_mix(case),
                &[r_op],
                duration_s,
                case.entities,
            );
            let ratio = pts[0].goodput_rps / r_op;
            let _ = writeln!(
                out,
                "  known limit: default GC at {r_op:.0} rps -> goodput {:.0} (x{:.2} of \
                 offered), p99 {} ms — stop-the-world convoy collapse below the CPU knee; \
                 outside the analytic model's scope",
                pts[0].goodput_rps,
                ratio,
                report::f3(pts[0].p99_ms),
            );
            assert!(
                ratio < 0.85,
                "[{}] expected the default-GC convoy collapse at {r_op:.0} rps \
                 (documented model limit); measured ratio {ratio:.3}",
                case.name
            );
        }

        if case.fix.is_empty() {
            continue;
        }

        // ---- Operating rate: base warns, the replicate fix is silent. ---
        let r_op = (0.9 * p.knee_lo).round();
        let warns = bp013_at(case, &case.wiring, r_op);
        assert!(
            warns.iter().any(|d| d.severity == Severity::Warn),
            "[{}] BP013 warns at the {r_op:.0} rps operating rate",
            case.name
        );
        let mut fixed_wiring = case.wiring.clone();
        for svc in &case.fix {
            mutate::replicate(&mut fixed_wiring, svc, case.replicas).expect("replicate fix");
        }
        let fixed_p = predict(&case.workflow, &fixed_wiring, &cfg);
        assert!(
            bp013_at(case, &fixed_wiring, r_op).is_empty(),
            "[{}] the replicate fix must silence BP013 at {r_op:.0} rps",
            case.name
        );
        let _ = writeln!(
            out,
            "  BP013 at {r_op:.0} rps (operating rate): WARN on the default wiring; \
             replicate {:?} x{} -> silent; fixed bracket [{:.0}, {:.0}] rps",
            case.fix, case.replicas, fixed_p.knee_lo, fixed_p.knee_hi
        );

        // ---- Fixed arm: the knee moves, and the new bracket holds. ------
        let fixed_knee = run_arm(
            &mut out,
            &format!(
                "{} + BP013 fix (replicate {:?} x{})",
                case.name, case.fix, case.replicas
            ),
            case,
            &fixed_wiring,
            &fixed_p,
            duration_s,
            run.smoke,
        );
        let _ = writeln!(
            out,
            "  fix moves the measured knee {:.0} -> {:.0} rps (x{:.2})",
            knee,
            fixed_knee,
            fixed_knee / knee
        );
        assert!(
            fixed_knee >= case.min_gain * knee,
            "[{}] the BP013 fix must raise the knee by >= x{:.2}: {:.0} -> {:.0}",
            case.name,
            case.min_gain,
            knee,
            fixed_knee
        );
    }

    let _ = writeln!(
        out,
        "\nVerdict: every measured knee lands inside its static [pessimistic, optimistic] \
         bracket, BP013 denies past the optimistic knee with the knee as its bound and the \
         true bottleneck named, and the suggested replicate fix is BP013-silent at the \
         operating rate and raises the measured knee."
    );
    run.emit(&out, "capacity_validation.txt", "ci_capacity.txt");
}
