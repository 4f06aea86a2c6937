//! Cross-validation of the static lint predictions against the fault
//! simulator (the `blueprint-lint` headline exhibit).
//!
//! For each quantitative hazard rule this harness builds the flagged wiring
//! variant via [`blueprint_wiring::mutate`], runs the PR-3 fault matrix over
//! it, and asserts that the *dynamic* outcome brackets the *static*
//! prediction:
//!
//! * **BP001 retry-amplification** — the retry-storm arm (max=10 retries at
//!   every hop, no breaker) is flagged with the worst-case bound `11^3`;
//!   under a mid-run crash the measured wire amplification must stay ≤ that
//!   bound, and the lint-suggested fix (a circuit breaker on every service)
//!   must both silence the rule and visibly suppress the amplification.
//! * **BP002 timeout-inversion** — a flat 250 ms deadline on every tier is
//!   flagged (the frontend's downstream budget is 20× its own deadline);
//!   graded per-tier deadlines sized exactly to the downstream budget are
//!   lint-clean, and under a rate-DB brownout the inverted arm must show at
//!   least as many failed requests as the graded arm.
//! * **BP010 missing-deadline-propagation / BP011 unbudgeted-retry-fanout**
//!   — checked statically against the `ablation_overload` arms: the
//!   unmitigated Type-1 wiring (10 retries per hop, nothing capping them)
//!   fires BP011 on every retried service with the per-hop bound 11; the
//!   ablation's retry-budget arm silences it. A *partial* deadline rollout
//!   (entry only) fires BP010 on every downstream hop, while the ablation's
//!   full `attach_overload_protection` arm is clean on both rules. The
//!   dynamic counterpart — the budget arm holding wire amplification at
//!   `1 + ratio` while the unmitigated arm goes metastable — is asserted by
//!   `ablation_overload` itself (see `results/overload_matrix.txt`).
//! * **BP012 drainless-restart-hazard** — checked statically against a
//!   drainless rolling restart of the search tier (the plan the
//!   `ablation_reconfig` drainless arm measures). The rule is plan-relative:
//!   the compile-time linter carries no restart targets, so the arms here
//!   are linted manually. The exposed wiring fires; each of the rule's own
//!   suggested fixes — a circuit breaker, replication behind a balancer with
//!   retrying callers, or simply draining first — silences it. The dynamic
//!   counterpart (the drainless arm's error spike, the drained arm's zero
//!   unavailability) is asserted by `ablation_reconfig` itself (see
//!   `results/reconfig_matrix.txt`).
//! * **BP016 stale-read-hazard / BP017 failover-lost-write** — checked
//!   statically against the very wirings the consistency matrix runs
//!   ([`consistency_arms`]: the direct-timeline SocialNetwork, 2 read
//!   replicas of `ut_db`, 100–400 ms async lag, read-after-write through
//!   `ut_db`). The unguarded `read-replica` arm fires BP016; the `session`
//!   arm — the mode the rule's suggested `attach_session_consistency` fix
//!   sets — is silent. BP017 is plan-relative like BP012: a plan that kills
//!   `ut_db` fires on every arm acking writes at w=1 (including the
//!   session arm — read-your-writes is not durability), and the
//!   `quorum-w2-r2` arm is silent on both rules. The dynamic counterpart —
//!   the unguarded arm's stale reads and crash-lost writes, and the guarded
//!   arms' empty anomaly columns — is asserted by `ablation_consistency`
//!   (see `results/consistency_matrix.txt`).
//!
//! Output goes to stdout and `results/lint_validation.txt`; the file is
//! timestamp-free and byte-identical across `BLUEPRINT_THREADS` settings
//! (the CI smoke compares `=1` vs `=4`). `--smoke` shortens the runs for
//! CI and writes `results/ci_lint_validation.txt`.

use std::fmt::Write as _;

use blueprint_apps::{hotel_reservation as hr, social_network as sn, WiringOpts};
use blueprint_bench::figures::{compile, fig6};
use blueprint_bench::matrix::{
    assert_conserved, cell, consistency_arms, fault_cfg, mid_run_fault, overload_arms, retry_storm,
    search_crash, with_breaker, CONSISTENCY_LAG_MS, FAULT_RPS,
};
use blueprint_bench::report;
use blueprint_bench::Run;
use blueprint_lint::{Diagnostic, LintConfig, Linter};
use blueprint_simrt::time::secs;
use blueprint_simrt::{Fault, SystemSpec};
use blueprint_wiring::{mutate, Arg, WiringSpec};
use blueprint_workload::parallel::Threads;
use blueprint_workload::resilience::{run_matrix, CellReport};

/// One experiment arm: the static findings plus the deployable system.
struct Arm {
    name: &'static str,
    diags: Vec<Diagnostic>,
    system: SystemSpec,
}

impl Arm {
    /// Compiles a HotelReservation arm; hazard variants still compile,
    /// since lint never fails the build.
    fn build(name: &'static str, wiring: &WiringSpec) -> Arm {
        let app = compile(&hr::workflow(), wiring);
        Arm {
            name,
            diags: app.diagnostics.clone(),
            system: app.system().clone(),
        }
    }

    fn findings(&self, rule: &str) -> Vec<&Diagnostic> {
        self.diags.iter().filter(|d| d.rule == rule).collect()
    }
}

/// BP001 arms: the fault matrix's retry storm and its breaker arm, the fix
/// BP001 suggests.
fn bp001_arms() -> (Arm, Arm) {
    let hazard = retry_storm(WiringOpts::default().without_tracing());
    (
        Arm::build("retry-storm", &hazard),
        Arm::build("retry-storm+breaker", &with_breaker(hazard)),
    )
}

/// BP002 arms: a flat 250 ms deadline on every tier (inverted against the
/// fan-out's downstream budget) vs graded per-tier deadlines sized to it.
fn bp002_arms() -> (Arm, Arm) {
    let base = WiringOpts::default().without_tracing();
    let inverted = hr::wiring(&WiringOpts {
        timeout_ms: Some(250),
        retries: 3,
        ..base
    });

    // The fix BP002 suggests: raise each tier's deadline to its downstream
    // budget. With 4 attempts per hop and 250 ms leaves: search covers
    // 4×250×2 = 2000 ms, frontend covers 4×(2000 + 4×250) = 12000 ms.
    let mut graded = hr::wiring(&WiringOpts { retries: 3, ..base });
    graded
        .define_kw(
            "timeout_leaf",
            "Timeout",
            vec![],
            vec![("ms", Arg::Int(250))],
        )
        .expect("timeout_leaf");
    for leaf in [
        "geo",
        "rate",
        "profile",
        "recommendation",
        "reservation",
        "user",
    ] {
        mutate::add_server_modifier(&mut graded, leaf, "timeout_leaf").expect("leaf timeout");
    }
    graded
        .define_kw(
            "timeout_mid",
            "Timeout",
            vec![],
            vec![("ms", Arg::Int(2000))],
        )
        .expect("timeout_mid");
    mutate::add_server_modifier(&mut graded, "search", "timeout_mid").expect("mid timeout");
    graded
        .define_kw(
            "timeout_frontend",
            "Timeout",
            vec![],
            vec![("ms", Arg::Int(12_000))],
        )
        .expect("timeout_frontend");
    mutate::add_server_modifier(&mut graded, "frontend", "timeout_frontend")
        .expect("frontend timeout");

    (
        Arm::build("flat-250ms", &inverted),
        Arm::build("graded-deadlines", &graded),
    )
}

/// BP010/BP011 arms, over `ablation_overload`'s own Type-1 case: the
/// unmitigated 10-retry wiring, a partial deadline rollout (entry only —
/// the hazard BP010 exists to catch), the ablation's retry-budget arm, and
/// its fully protected `all` arm (`attach_overload_protection`).
fn bp010_bp011_arms() -> (Arm, Arm, Arm, Arm) {
    let unmitigated = fig6::meta_cases().swap_remove(0).wiring;
    let arms = overload_arms(&unmitigated);
    let arm = |label: &str| &arms.iter().find(|(l, _)| *l == label).expect("arm").1;

    let mut partial = unmitigated.clone();
    partial
        .define_kw(
            "deadline_fe",
            "Deadline",
            vec![],
            vec![("ms", Arg::Int(1_000))],
        )
        .expect("deadline_fe");
    mutate::add_server_modifier(&mut partial, "frontend", "deadline_fe")
        .expect("frontend deadline");

    (
        Arm::build("unmitigated-10-retries", &unmitigated),
        Arm::build("deadline-entry-only", &partial),
        Arm::build("retry-budget", arm("retry-budget")),
        Arm::build("overload-protected", arm("all")),
    )
}

/// BP012 arms: the rule only exists relative to a restart plan, so each arm
/// is compiled and then linted manually with the plan's targets. Returns the
/// BP012 findings for the given wiring under a restart of `search`.
fn bp012_findings(wiring: &WiringSpec, drainless: bool) -> Vec<Diagnostic> {
    let app = compile(&hr::workflow(), wiring);
    Linter::new(LintConfig::default().with_restart_target("search", drainless))
        .run(app.ir(), wiring)
        .into_iter()
        .filter(|d| d.rule == "BP012")
        .collect()
}

/// BP016/BP017 findings for one consistency arm of the replicated
/// SocialNetwork. Both rules need the behavior programs (BP016's
/// read-after-write path check) and BP017 additionally needs the plan, so
/// the arms are linted manually like the BP012 ones; `kill_store` projects
/// the consistency matrix's primary-crash scenario onto the plan.
fn consistency_findings(wiring: &WiringSpec, kill_store: bool) -> Vec<Diagnostic> {
    let wf = sn::workflow_direct_timeline();
    let app = compile(&wf, wiring);
    let mut cfg = LintConfig::default();
    if kill_store {
        cfg = cfg.with_restart_target("ut_db", true);
    }
    Linter::new(cfg).run_with_workflow(app.ir(), wiring, Some(&wf))
}

fn row(c: &CellReport) -> Vec<String> {
    vec![
        c.variant.clone(),
        c.scenario.clone(),
        c.conservation.ok.to_string(),
        c.conservation.errors.to_string(),
        if c.conservation.holds() {
            "yes".into()
        } else {
            "LOST".into()
        },
        c.counters.retries.to_string(),
        c.counters.breaker_rejections.to_string(),
        report::f3(c.wire_amplification()),
    ]
}

/// Renders one arm's static findings for a rule into the report.
fn static_section(out: &mut String, rule: &str, arm: &Arm) {
    static_lines(out, rule, arm.name, &arm.findings(rule));
}

fn static_lines(out: &mut String, rule: &str, name: &str, found: &[&Diagnostic]) {
    if found.is_empty() {
        let _ = writeln!(out, "  {name:<22} {rule} silent");
    } else {
        for d in found {
            let _ = writeln!(
                out,
                "  {name:<22} {rule} fires: {} (bound {})",
                d.message,
                d.bound.map_or("-".into(), |b| format!("{b:.0}")),
            );
        }
    }
}

fn main() {
    let run = Run::from_args();
    let duration_s = run.pick(8, 20);
    let cfg = fault_cfg(duration_s);

    // ---- Static side: lint each arm. -----------------------------------
    let (storm, storm_fixed) = bp001_arms();
    let (inverted, graded) = bp002_arms();

    // BP001 must fire on the storm arm with the worst-case chain product
    // 11^3 (frontend -> search -> {geo|rate}, 11 attempts per hop), and the
    // suggested breaker fix must silence it.
    let storm_findings = storm.findings("BP001");
    assert_eq!(storm_findings.len(), 1, "{:?}", storm.diags);
    let bp001_bound = storm_findings[0].bound.expect("BP001 carries a bound");
    assert_eq!(
        bp001_bound,
        11.0 * 11.0 * 11.0,
        "worst chain is 3 hops deep"
    );
    assert!(
        storm_fixed.findings("BP001").is_empty(),
        "breaker fix must silence BP001: {:?}",
        storm_fixed.diags
    );

    // BP002 must fire on the flat-deadline arm (frontend + search both have
    // deadlines below their downstream budgets) and stay silent on the
    // graded arm, whose deadlines equal the budgets exactly.
    let inv_findings = inverted.findings("BP002");
    assert_eq!(inv_findings.len(), 2, "{:?}", inverted.diags);
    let bp002_bound = inv_findings
        .iter()
        .filter_map(|d| d.bound)
        .fold(0.0f64, f64::max);
    assert_eq!(
        bp002_bound, 5000.0,
        "frontend budget: 4 attempts × 250 ms × 5 callees"
    );
    assert!(
        graded.findings("BP002").is_empty(),
        "graded deadlines must satisfy BP002: {:?}",
        graded.diags
    );

    // BP010/BP011 against the overload-ablation arms. BP011 must flag every
    // retried service on the unmitigated arm with the per-hop bound 11
    // (1 + 10 retries), and both the budget and the fully protected arm
    // must be silent. BP010 must stay silent with no deadline anywhere,
    // flag every downstream hop under a partial (entry-only) rollout, and
    // go silent again once `attach_overload_protection` covers the chain.
    let (unmitigated, partial, budgeted, protected) = bp010_bp011_arms();
    let bp011_findings = unmitigated.findings("BP011");
    assert!(!bp011_findings.is_empty(), "{:?}", unmitigated.diags);
    for d in &bp011_findings {
        assert_eq!(d.bound, Some(11.0), "per-hop attempts: 1 + 10 retries");
    }
    assert!(
        budgeted.findings("BP011").is_empty(),
        "the retry-budget arm must silence BP011: {:?}",
        budgeted.diags
    );
    assert!(
        unmitigated.findings("BP010").is_empty(),
        "no deadline anywhere means nothing to propagate: {:?}",
        unmitigated.diags
    );
    let bp010_findings = partial.findings("BP010");
    assert!(!bp010_findings.is_empty(), "{:?}", partial.diags);
    assert!(
        bp010_findings
            .iter()
            .any(|d| d.message.contains("service search")),
        "the mid tier drops the entry deadline: {bp010_findings:?}"
    );
    for rule in ["BP010", "BP011"] {
        assert!(
            protected.findings(rule).is_empty(),
            "attach_overload_protection must leave {rule} clean: {:?}",
            protected.diags
        );
    }

    // BP012 against a planned drainless restart of search. The exposed
    // wiring (retried callers, but no breaker and no replica sibling) must
    // fire; each suggested fix — breaker, replicate behind a balancer with
    // retrying callers, or draining first — must silence it.
    let reconfig_base = hr::wiring(&WiringOpts {
        retries: 2,
        ..WiringOpts::default().without_tracing()
    });
    let reconfig_breaker = with_breaker(reconfig_base.clone());
    let mut reconfig_replicated = reconfig_base.clone();
    mutate::replicate(&mut reconfig_replicated, "search", 3).expect("replicate search");
    let bp012_exposed = bp012_findings(&reconfig_base, true);
    let bp012_breaker = bp012_findings(&reconfig_breaker, true);
    let bp012_replicated = bp012_findings(&reconfig_replicated, true);
    let bp012_drained = bp012_findings(&reconfig_base, false);
    assert_eq!(bp012_exposed.len(), 1, "{bp012_exposed:?}");
    assert!(
        bp012_exposed[0]
            .message
            .contains("no load-balanced sibling"),
        "{bp012_exposed:?}"
    );
    for (name, found) in [
        ("breaker", &bp012_breaker),
        ("replicated+retries", &bp012_replicated),
        ("drained", &bp012_drained),
    ] {
        assert!(
            found.is_empty(),
            "the {name} fix must silence BP012: {found:?}"
        );
    }

    // BP016/BP017 against the consistency-matrix arms. The unguarded
    // replicated store fires BP016; the session arm (the wiring
    // attach_session_consistency makes of it) silences it but not BP017
    // (session mode still acks on the primary alone); the quorum arm
    // silences both. The anomaly columns these predict are asserted by
    // ablation_consistency.
    let arms = consistency_arms();
    let arm = |label: &str| {
        let (_, w) = arms.iter().find(|(l, _)| *l == label).expect("arm");
        w
    };
    let (exposed, quorum_fixed, session_fixed) =
        (arm("read-replica"), arm("quorum-w2-r2"), arm("session"));
    let rule_of = |diags: &[Diagnostic], rule: &str| -> Vec<Diagnostic> {
        diags.iter().filter(|d| d.rule == rule).cloned().collect()
    };
    let exposed_diags = consistency_findings(exposed, true);
    let session_diags = consistency_findings(session_fixed, true);
    let quorum_diags = consistency_findings(quorum_fixed, true);
    let bp016_exposed = rule_of(&exposed_diags, "BP016");
    let bp017_exposed = rule_of(&exposed_diags, "BP017");
    let bp016_session = rule_of(&session_diags, "BP016");
    let bp017_session = rule_of(&session_diags, "BP017");
    let bp016_quorum = rule_of(&quorum_diags, "BP016");
    let bp017_quorum = rule_of(&quorum_diags, "BP017");
    let bp017_planless = rule_of(&consistency_findings(exposed, false), "BP017");
    assert_eq!(bp016_exposed.len(), 1, "{bp016_exposed:?}");
    assert_eq!(bp016_exposed[0].nodes[0].name, "ut_db");
    assert_eq!(
        bp016_exposed[0].bound,
        Some(CONSISTENCY_LAG_MS.1 as f64),
        "BP016 carries the max lag as its bound"
    );
    assert_eq!(bp017_exposed.len(), 1, "{bp017_exposed:?}");
    assert!(
        bp016_session.is_empty(),
        "the session arm must silence BP016: {bp016_session:?}"
    );
    assert_eq!(
        bp017_session.len(),
        1,
        "session mode still acks at w=1 — the plan hazard stands: {bp017_session:?}"
    );
    for (rule, found) in [("BP016", &bp016_quorum), ("BP017", &bp017_quorum)] {
        assert!(
            found.is_empty(),
            "the quorum arm must silence {rule}: {found:?}"
        );
    }
    assert!(
        bp017_planless.is_empty(),
        "BP017 is plan-relative — no plan, no findings: {bp017_planless:?}"
    );

    // ---- Dynamic side: the fault matrix over the same arms. -------------
    let crash = search_crash(duration_s);
    // ×1200 pushes rate_db's sub-millisecond ops past the 250 ms leaf
    // deadline — the regime the timeout tiering is supposed to survive.
    let brownout = Fault::Brownout {
        backend: "rate_db".into(),
        duration_ns: secs(2),
        slow_factor: 1200.0,
        unavailable: false,
    };
    let brownout = mid_run_fault("rate_db brownout ×1200 2s", duration_s, brownout);
    let bp001_cells = run_matrix(
        &[
            (storm.name.to_string(), storm.system.clone()),
            (storm_fixed.name.to_string(), storm_fixed.system.clone()),
        ],
        std::slice::from_ref(&crash),
        &hr::paper_mix(),
        &cfg,
        Threads::from_env(),
    )
    .expect("BP001 matrix runs");
    let bp002_cells = run_matrix(
        &[
            (inverted.name.to_string(), inverted.system.clone()),
            (graded.name.to_string(), graded.system.clone()),
        ],
        std::slice::from_ref(&brownout),
        &hr::paper_mix(),
        &cfg,
        Threads::from_env(),
    )
    .expect("BP002 matrix runs");

    assert_conserved(&bp001_cells);
    assert_conserved(&bp002_cells);

    // BP001 bracket: measured wire amplification stays under the static
    // worst-case bound, and the fix visibly suppresses the storm.
    let storm_cell = cell(&bp001_cells, storm.name, &crash.name);
    let fixed_cell = cell(&bp001_cells, storm_fixed.name, &crash.name);
    assert!(
        storm_cell.wire_amplification() <= bp001_bound,
        "measured amplification {} exceeds the static bound {bp001_bound}",
        storm_cell.wire_amplification()
    );
    assert!(
        storm_cell.wire_amplification() > fixed_cell.wire_amplification(),
        "breaker fix failed to suppress amplification: storm {:.3} vs fixed {:.3}",
        storm_cell.wire_amplification(),
        fixed_cell.wire_amplification()
    );

    // BP002 bracket: the inverted arm loses at least as many requests under
    // the brownout as the graded arm, and its callers burn more attempts on
    // the wire (aborting while downstream work is still running).
    let inv_cell = cell(&bp002_cells, inverted.name, &brownout.name);
    let graded_cell = cell(&bp002_cells, graded.name, &brownout.name);
    assert!(
        inv_cell.conservation.errors > graded_cell.conservation.errors,
        "the lint-suggested graded deadlines must fail fewer requests than the \
         inversion: {} vs {}",
        inv_cell.conservation.errors,
        graded_cell.conservation.errors
    );

    // The BP002 arms carry retries of their own (BP001 warns at 4^3 there);
    // their measured amplification must bracket that bound too.
    for (arm, c) in [(&inverted, inv_cell), (&graded, graded_cell)] {
        if let Some(b) = arm.findings("BP001").first().and_then(|d| d.bound) {
            assert!(
                c.wire_amplification() <= b,
                "[{}] measured amplification {} exceeds the static bound {b}",
                arm.name,
                c.wire_amplification()
            );
        }
    }

    // ---- Report. --------------------------------------------------------
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Lint cross-validation — HotelReservation, {} rps, {}s, seed {}",
        FAULT_RPS, duration_s, cfg.seed
    );
    let _ = writeln!(out, "\nStatic predictions:");
    static_section(&mut out, "BP001", &storm);
    static_section(&mut out, "BP001", &storm_fixed);
    static_section(&mut out, "BP002", &inverted);
    static_section(&mut out, "BP002", &graded);
    static_section(&mut out, "BP010", &partial);
    static_section(&mut out, "BP010", &protected);
    static_section(&mut out, "BP011", &unmitigated);
    static_section(&mut out, "BP011", &budgeted);
    fn refs(v: &[Diagnostic]) -> Vec<&Diagnostic> {
        v.iter().collect()
    }
    static_lines(
        &mut out,
        "BP012",
        "drainless-exposed",
        &refs(&bp012_exposed),
    );
    static_lines(
        &mut out,
        "BP012",
        "drainless+breaker",
        &refs(&bp012_breaker),
    );
    static_lines(
        &mut out,
        "BP012",
        "drainless+replicas",
        &refs(&bp012_replicated),
    );
    static_lines(&mut out, "BP012", "drained", &refs(&bp012_drained));
    static_lines(
        &mut out,
        "BP016",
        "replicated-exposed",
        &refs(&bp016_exposed),
    );
    static_lines(&mut out, "BP016", "session-fix", &refs(&bp016_session));
    static_lines(&mut out, "BP016", "quorum-fix", &refs(&bp016_quorum));
    static_lines(
        &mut out,
        "BP017",
        "kill-ut_db-exposed",
        &refs(&bp017_exposed),
    );
    static_lines(
        &mut out,
        "BP017",
        "kill-ut_db+session",
        &refs(&bp017_session),
    );
    static_lines(&mut out, "BP017", "kill-ut_db+quorum", &refs(&bp017_quorum));
    out.push('\n');
    let _ = write!(
        out,
        "{}",
        report::table(
            "Dynamic outcomes",
            &[
                "variant",
                "scenario",
                "ok",
                "errors",
                "conserved",
                "retries",
                "breaker rej",
                "wire amp",
            ],
            &bp001_cells
                .iter()
                .chain(&bp002_cells)
                .map(row)
                .collect::<Vec<_>>(),
        )
    );
    let _ = writeln!(out, "\nVerdicts:");
    let _ = writeln!(
        out,
        "  BP001 bracket holds: measured wire amplification {} <= static bound {} \
         and the breaker fix suppresses it ({} -> {})",
        report::f3(storm_cell.wire_amplification()),
        report::f3(bp001_bound),
        report::f3(storm_cell.wire_amplification()),
        report::f3(fixed_cell.wire_amplification()),
    );
    let _ = writeln!(
        out,
        "  BP002 bracket holds: inverted deadlines fail {} requests vs {} with \
         graded deadlines (static budget bound {} ms)",
        inv_cell.conservation.errors,
        graded_cell.conservation.errors,
        report::f3(bp002_bound),
    );
    let _ = writeln!(
        out,
        "  BP010/BP011 bracket the overload ablation arms: {} hops drop a \
         partial deadline rollout, {} services carry unbudgeted x11 retries, \
         and attach_overload_protection silences both (dynamic bound held in \
         results/overload_matrix.txt)",
        bp010_findings.len(),
        bp011_findings.len(),
    );
    let _ = writeln!(
        out,
        "  BP012 is plan-relative: a drainless rolling restart of search fires \
         on the exposed wiring and every suggested fix (breaker, replicate with \
         retrying callers, drain first) silences it (dynamic bound held in \
         results/reconfig_matrix.txt: drained arms show zero unavailability, \
         the unprotected drainless arm shows the spike)",
    );
    let _ = writeln!(
        out,
        "  BP016/BP017 cover the consistency matrix: the unguarded replicated \
         ut_db ({}-{} ms lag) fires BP016, a plan killing it fires BP017 at \
         w=1; attach_session_consistency silences BP016 only (read-your-writes \
         is not durability) and the quorum fix silences both (dynamic bound \
         held in results/consistency_matrix.txt: the unguarded arm's stale \
         reads and crash-lost writes vanish on the guarded arms)",
        CONSISTENCY_LAG_MS.0, CONSISTENCY_LAG_MS.1,
    );
    run.emit(&out, "lint_validation.txt", "ci_lint_validation.txt");
}
