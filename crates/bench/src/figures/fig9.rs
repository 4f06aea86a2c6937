//! Fig. 9 — reproduction of Sifter's Fig. 6 over the Blueprint-generated
//! SocialNetwork (paper §6.3 "Reproducible Research").
//!
//! X-Trace support is enabled for SocialNetwork (3 wiring lines via the
//! extension plugin), 1000 ComposePost requests are traced, and at five
//! instants anomalous requests are induced (a short burst of CPU contention
//! makes the victim request time out and retry, changing its trace
//! structure). Sifter's sampling probability must spike at the anomalies.

use blueprint_apps::{social_network as sn, TracerChoice, WiringOpts};
use blueprint_simrt::time::{ms, secs};
use blueprint_simrt::Fault;
use blueprint_trace::{Sifter, SifterConfig};

/// Per-request Sifter decision.
#[derive(Debug, Clone)]
pub struct RequestSample {
    /// Request index (submission order).
    pub index: usize,
    /// Whether this request was made anomalous.
    pub anomalous: bool,
    /// Sifter model loss.
    pub loss: f64,
    /// Sampling probability.
    pub probability: f64,
}

/// Indices at which anomalies are induced (5 instants, like Sifter's Fig. 6).
pub fn anomaly_indices(total: usize) -> Vec<usize> {
    (1..=5).map(|i| i * total / 6).collect()
}

/// Runs the experiment: returns per-request Sifter decisions in order.
pub fn run() -> Vec<RequestSample> {
    let total = 1_000;
    let anomalies = anomaly_indices(total);

    let opts = WiringOpts {
        tracing: Some(TracerChoice::XTrace),
        ..WiringOpts::default().with_timeout_retries(12, 2)
    };
    let app = super::compile(&sn::workflow(), &sn::wiring(&opts));
    let mut sim = app
        .simulation_with(blueprint_simrt::SimConfig {
            seed: 91,
            record_traces: true,
            ..Default::default()
        })
        .expect("simulation boots");
    let hosts: Vec<String> = app.system().hosts.iter().map(|h| h.name.clone()).collect();

    // Warm the sampler on normal traffic first (Sifter runs on a continuous
    // stream; its Fig. 6 starts from a trained model).
    let warm = total / 2;
    // Submit sequentially; for anomalous indices, saturate the whole cluster
    // briefly so the victim request's inner RPCs time out and retry — the
    // structural change Sifter keys on.
    let mut order: Vec<(u64, bool)> = Vec::new();
    for i in 0..warm {
        let root = sim
            .submit("gateway", "ComposePost", 90_000 + i as u64)
            .expect("submit");
        order.push((root, false));
        let t = sim.now() + ms(50);
        sim.run_until(t);
    }
    for i in 0..total {
        let anomalous = anomalies.contains(&i);
        if anomalous {
            for h in &hosts {
                sim.inject_fault(&Fault::CpuHog {
                    host: h.clone(),
                    cores: 7.95,
                    duration_ns: ms(400),
                })
                .expect("hog");
            }
        }
        let root = sim
            .submit("gateway", "ComposePost", 10_000 + i as u64)
            .expect("submit");
        order.push((root, anomalous));
        let t = sim.now() + if anomalous { secs(2) } else { ms(50) };
        sim.run_until(t);
    }
    sim.run_until(sim.now() + secs(5));

    // Collect finished traces by root id, then feed them to Sifter in
    // submission order.
    let traces = sim.traces.drain_finished();
    let by_root: std::collections::HashMap<u64, &blueprint_trace::Trace> =
        traces.iter().map(|t| (t.id.0, t)).collect();
    let mut sifter = Sifter::new(SifterConfig {
        seed: 91,
        learning_rate: 0.08,
        ..SifterConfig::default()
    });
    let mut out = Vec::new();
    for (i, (root, anomalous)) in order.iter().enumerate() {
        let Some(trace) = by_root.get(root) else {
            continue;
        };
        let d = sifter.observe_trace(trace);
        if i < warm {
            continue; // Warmup traces train the model but are not reported.
        }
        out.push(RequestSample {
            index: i - warm,
            anomalous: *anomalous,
            loss: d.loss,
            probability: d.probability,
        });
    }
    out
}

/// Renders a sparse view (every 25th request plus all anomalies), then the
/// summary and the spike check.
pub fn print(samples: &[RequestSample]) -> String {
    let mut out =
        String::from("== Fig. 9 — Sifter sampling probability over ComposePost requests ==\n");
    out.push_str(&format!(
        "{:>6}  {:>10}  {:>12}  {}\n",
        "index", "loss", "probability", "anomalous"
    ));
    for s in samples {
        if s.anomalous || s.index % 25 == 0 {
            out.push_str(&format!(
                "{:>6}  {:>10.4}  {:>12.5}  {}\n",
                s.index,
                s.loss,
                s.probability,
                if s.anomalous { "<== anomaly" } else { "" }
            ));
        }
    }
    out.push_str(&summary(samples));
    out.push_str(&format!(
        "anomalies spike above normals: {}\n",
        spikes_at_anomalies(samples)
    ));
    out
}

/// Summary: mean probability of anomalous vs steady-state normal requests.
pub fn summary(samples: &[RequestSample]) -> String {
    let warmup = samples.len() / 10;
    let (mut an, mut an_n, mut no, mut no_n) = (0.0, 0, 0.0, 0);
    for s in samples.iter().skip(warmup) {
        if s.anomalous {
            an += s.probability;
            an_n += 1;
        } else {
            no += s.probability;
            no_n += 1;
        }
    }
    let an_mean = an / an_n.max(1) as f64;
    let no_mean = no / no_n.max(1) as f64;
    format!(
        "summary: mean P(sample) anomalous={:.4} normal={:.4} ratio={:.1}x\n",
        an_mean,
        no_mean,
        an_mean / no_mean.max(1e-9)
    )
}

/// The reproduction target: anomalous requests are sampled with visibly
/// higher probability than steady-state normal requests — every anomaly sits
/// above the normal mean, and on average the anomalies are ≥1.5× as likely
/// to be sampled.
pub fn spikes_at_anomalies(samples: &[RequestSample]) -> bool {
    let warmup = samples.len() / 10;
    let normals: Vec<f64> = samples
        .iter()
        .skip(warmup)
        .filter(|s| !s.anomalous)
        .map(|s| s.probability)
        .collect();
    let anomalies: Vec<f64> = samples
        .iter()
        .filter(|s| s.anomalous && s.index >= warmup)
        .map(|s| s.probability)
        .collect();
    if normals.is_empty() || anomalies.is_empty() {
        return false;
    }
    let mean_normal = normals.iter().sum::<f64>() / normals.len() as f64;
    let mean_anomalous = anomalies.iter().sum::<f64>() / anomalies.len() as f64;
    anomalies.iter().all(|p| *p > mean_normal) && mean_anomalous > mean_normal * 1.5
}
