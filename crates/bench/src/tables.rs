//! Tab. 1–5 reproductions.

use blueprint_apps::{
    alibaba, hotel_reservation, media, social_network, sock_shop, train_ticket, WiringOpts,
};
use blueprint_core::Blueprint;
use blueprint_plugins::{loc, Registry};
use blueprint_simrt::SimError;
use blueprint_wiring::WiringSpec;
use blueprint_workflow::WorkflowSpec;
use blueprint_workload::parallel::{par_run, Threads};

use crate::report;

fn app_list() -> Vec<(&'static str, WorkflowSpec, WiringSpec, usize)> {
    let opts = WiringOpts::default();
    vec![
        (
            "DSB SocialNetwork",
            social_network::workflow(),
            social_network::wiring(&opts),
            8_209,
        ),
        ("DSB Media", media::workflow(), media::wiring(&opts), 7_794),
        (
            "DSB HotelReservation",
            hotel_reservation::workflow(),
            hotel_reservation::wiring(&opts),
            5_160,
        ),
        (
            "TrainTicket",
            train_ticket::workflow(),
            train_ticket::wiring(&opts),
            54_466,
        ),
        (
            "SockShop",
            sock_shop::workflow(),
            sock_shop::wiring(&opts),
            13_987,
        ),
    ]
}

/// Tab. 1: workflow-spec + wiring LoC vs the code footprint Blueprint
/// eliminates. The "generated LoC" column measures the scaffolding artifacts
/// the compiler produces for the default variant — the code the original
/// implementations carried by hand — and the reduction column compares
/// (spec + wiring) against (spec + wiring + generated), next to the paper's
/// reported reduction.
pub fn table1() -> String {
    let spec_locs = blueprint_apps::loc::spec_loc();
    let mut rows = Vec::new();
    for (name, wf, wiring, paper_orig) in app_list() {
        let (_, spec_loc, _, paper_spec) = *spec_locs
            .iter()
            .find(|(n, _, _, _)| *n == name)
            .expect("app in spec_loc table");
        let app = Blueprint::new()
            .compile(&wf, &wiring)
            .expect("app compiles");
        let generated = app.artifacts().total_loc();
        let total_ours = spec_loc + wiring.loc();
        let reduction = (total_ours + generated) as f64 / total_ours as f64;
        let paper_reduction = paper_orig as f64 / paper_spec as f64;
        rows.push(vec![
            name.to_string(),
            spec_loc.to_string(),
            wiring.loc().to_string(),
            generated.to_string(),
            format!("{reduction:.1}x"),
            format!("{paper_reduction:.1}x (paper)"),
        ]);
    }
    report::table(
        "Tab. 1 — LoC of Blueprint implementations (spec + wiring) vs generated scaffolding",
        &[
            "system",
            "spec LoC",
            "wiring LoC",
            "generated LoC",
            "reduction",
            "paper",
        ],
        &rows,
    )
}

/// Tab. 2: backend interface sizes.
pub fn table2() -> String {
    let rows: Vec<Vec<String>> = loc::table2_backend_interfaces()
        .into_iter()
        .map(|r| vec![r.category, r.name, r.ours.to_string(), r.paper.to_string()])
        .collect();
    report::table(
        "Tab. 2 — LoC for backend interfaces and shared kind-level compiler support",
        &["category", "name", "ours", "paper"],
        &rows,
    )
}

/// Tab. 3: per-instantiation implementation LoC.
pub fn table3() -> String {
    let registry = Registry::extended();
    let rows: Vec<Vec<String>> = loc::table3_instantiations(&registry)
        .into_iter()
        .map(|r| vec![r.category, r.name, r.ours.to_string(), r.paper.to_string()])
        .collect();
    report::table(
        "Tab. 3 — LoC per backend/RPC/deployer instantiation",
        &["type", "instantiation", "ours", "paper (impl+compiler)"],
        &rows,
    )
}

/// Tab. 4: per-plugin implementation LoC.
pub fn table4() -> String {
    let registry = Registry::extended();
    let rows: Vec<Vec<String>> = loc::table4_plugins(&registry)
        .into_iter()
        .map(|r| vec![r.name, r.ours.to_string(), r.paper.to_string()])
        .collect();
    report::table(
        "Tab. 4 — LoC per scaffolding plugin",
        &["plugin", "ours", "paper (compiler+stdlib)"],
        &rows,
    )
}

/// One Tab. 5 row.
#[derive(Debug, Clone)]
pub struct GenTimeRow {
    /// System name.
    pub system: String,
    /// Service instances in the lowered system.
    pub services: usize,
    /// The paper's generation time (seconds).
    pub paper_secs: f64,
}

/// Tab. 5 rows: compile every app (artifacts + simulation lowering) and the
/// synthetic Alibaba topology at `alibaba_scale` services, and count the
/// instances each generated system has. The rows hold no wall-clock time, so
/// the table is deterministic; `examples/benchmark`'s host-normalised
/// `compile_s` and `examples/setup_phases.rs` measure generation time.
///
/// The compiles are independent (each worker owns its `Blueprint` toolchain
/// and spec inputs, all `Send`), so they run on the parallel engine.
pub fn table5_rows(alibaba_scale: usize) -> Vec<GenTimeRow> {
    let paper = [
        ("DSB SocialNetwork", 1.172),
        ("DSB Media", 1.698),
        ("DSB HotelReservation", 1.281),
        ("TrainTicket", 3.723),
        ("SockShop", 0.925),
    ];
    let apps = app_list();
    // Jobs 0..apps.len() compile the ported apps; the last job builds and
    // compiles the (much larger) synthetic Alibaba topology.
    par_run(apps.len() + 1, Threads::from_env(), |i| {
        if let Some((name, wf, wiring, _)) = apps.get(i) {
            let app = Blueprint::new().compile(wf, wiring).expect("app compiles");
            let paper_secs = paper
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, s)| *s)
                .unwrap_or(0.0);
            Ok::<_, SimError>(GenTimeRow {
                system: name.to_string(),
                services: app.system().services.len() + app.system().backends.len(),
                paper_secs,
            })
        } else {
            let (wf, wiring) = alibaba::topology(alibaba_scale, 42);
            let app = Blueprint::new()
                .compile(&wf, &wiring)
                .expect("alibaba compiles");
            Ok(GenTimeRow {
                system: format!("Alibaba-TraceSet ({alibaba_scale})"),
                services: app.system().services.len(),
                paper_secs: 707.0,
            })
        }
    })
    .expect("generation-time rows")
}

/// Tab. 5 rendered.
pub fn table5(alibaba_scale: usize) -> String {
    let rows: Vec<Vec<String>> = table5_rows(alibaba_scale)
        .into_iter()
        .map(|r| {
            vec![
                r.system,
                r.services.to_string(),
                format!("{:.3}", r.paper_secs),
            ]
        })
        .collect();
    report::table(
        "Tab. 5 — generated instances per system, next to the paper's generation time \
         (see EXPERIMENTS.md for this toolchain's compile time)",
        &["system", "instances", "paper (s)"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shows_large_reductions() {
        let t = table1();
        assert!(t.contains("DSB SocialNetwork"));
        assert!(t.contains("TrainTicket"));
        // Every app should eliminate several times its spec size.
        for line in t.lines().skip(3) {
            if let Some(red) = line.split_whitespace().rev().nth(2) {
                if let Some(x) = red.strip_suffix('x') {
                    let v: f64 = x.parse().unwrap();
                    assert!(v > 2.0, "reduction too small in: {line}");
                }
            }
        }
    }

    #[test]
    fn tables_2_3_4_render() {
        assert!(table2().contains("Cache"));
        assert!(table3().contains("mongodb"));
        assert!(table4().contains("circuit-breaker"));
    }

    #[test]
    fn table5_small_scale() {
        let rows = table5_rows(50);
        assert_eq!(rows.len(), 6);
        // Compile time grows with topology size: TrainTicket (63 instances)
        // takes longer than SockShop (13).
        let tt = rows.iter().find(|r| r.system == "TrainTicket").unwrap();
        let ss = rows.iter().find(|r| r.system == "SockShop").unwrap();
        assert!(tt.services > ss.services);
    }
}
