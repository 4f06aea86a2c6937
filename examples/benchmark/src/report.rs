//! Collecting reps into per-workload results, the correctness gates that
//! span reps, and the printed JSON.

use std::collections::BTreeMap;

use crate::host;
use crate::json::Json;
use crate::metrics::{Metric, END_TO_END, HOST_CALIB, PER_LAYER, TRACE_OVERHEAD};
use crate::stats::{summarize, Summary};
use crate::workloads::{Rep, Workload, ANCHOR_COMPLETIONS, ANCHOR_DIGEST, ANCHOR_SEED};

/// Every rep of one workload.
#[derive(Debug)]
pub struct WorkloadRun {
    pub workload: Workload,
    /// Untraced reps that printed a result.
    pub reps: Vec<Rep>,
    /// The traced rep, once run.
    pub traced: Option<Rep>,
    /// Simulated requests submitted over every rep, traced included.
    pub attempted: u64,
    /// Requests of reps whose checks failed.
    pub failed: u64,
    /// Reps that printed no result (their requests are counted once the
    /// size of a rep is known).
    pub lost_reps: u64,
    /// Failed correctness checks, by rep.
    pub checks: Vec<String>,
}

impl WorkloadRun {
    pub fn new(workload: Workload) -> Self {
        WorkloadRun {
            workload,
            reps: Vec::new(),
            traced: None,
            attempted: 0,
            failed: 0,
            lost_reps: 0,
            checks: Vec::new(),
        }
    }

    /// Checks a rep against its own gates and against the first rep: every
    /// rep of a workload must produce the same completion digest and the
    /// same deterministic outputs.
    fn admit(&mut self, rep: Result<Rep, String>, label: &str) -> Option<Rep> {
        let rep = match rep {
            Ok(rep) => rep,
            Err(e) => {
                self.lost_reps += 1;
                self.checks.push(format!("{label}: {e}"));
                return None;
            }
        };
        let mut failed: Vec<String> = rep.failed_checks.clone();
        if let Some(first) = self.reps.first() {
            if rep.digest != first.digest {
                failed.push(format!(
                    "completion digest {} differs from the first rep's {}",
                    rep.digest, first.digest
                ));
            }
            if rep.fingerprint != first.fingerprint {
                failed.push(format!(
                    "outputs `{}` differ from the first rep's `{}`",
                    rep.fingerprint, first.fingerprint
                ));
            }
        }
        self.attempted += rep.ops;
        if !failed.is_empty() {
            self.failed += rep.ops;
            self.checks
                .extend(failed.into_iter().map(|c| format!("{label}: {c}")));
        }
        Some(rep)
    }

    pub fn add(&mut self, rep: Result<Rep, String>) {
        let label = format!("rep {}", self.reps.len() + self.lost_reps as usize + 1);
        if let Some(rep) = self.admit(rep, &label) {
            self.reps.push(rep);
        }
    }

    pub fn add_traced(&mut self, rep: Result<Rep, String>) {
        self.traced = self.admit(rep, "traced rep");
    }

    /// Requests of a rep, for counting reps that printed nothing.
    fn ops_per_rep(&self) -> u64 {
        self.reps.first().map_or(1, |r| r.ops)
    }

    pub fn attempted(&self) -> u64 {
        self.attempted + self.lost_reps * self.ops_per_rep()
    }

    pub fn failed(&self) -> u64 {
        self.failed + self.lost_reps * self.ops_per_rep()
    }

    /// Summary of an end-to-end metric over the untraced reps.
    pub fn summary(&self, name: &str) -> Option<Summary> {
        let values: Vec<f64> = self
            .reps
            .iter()
            .filter_map(|r| r.metrics.get(name).copied())
            .collect();
        summarize(&values)
    }

    /// Whether the anchor run reproduced its pin (hotel-open-2k at the
    /// anchor seed only). Reported, not gated: the pin may move on purpose.
    pub fn pin_match(&self, seed: u64) -> Option<bool> {
        (self.workload == Workload::HotelOpen && seed == ANCHOR_SEED).then(|| {
            self.reps
                .first()
                .is_some_and(|r| r.stream_len == ANCHOR_COMPLETIONS && r.digest == ANCHOR_DIGEST)
        })
    }

    /// Per-layer metrics: the traced rep's own, the tracing overhead
    /// against the untraced reps' median wall time (both normalised to the
    /// reference host), and the host probe.
    pub fn layers(&self, calib: Option<Summary>) -> BTreeMap<String, f64> {
        let Some(traced) = &self.traced else {
            return BTreeMap::new();
        };
        let mut out = traced.layers.clone();
        let wall = |r: &Rep| r.wall_s * host::scale(r.probe_ms);
        let walls: Vec<f64> = self.reps.iter().map(wall).collect();
        let overhead =
            summarize(&walls).map_or(f64::NAN, |s| 100.0 * (wall(traced) / s.median - 1.0));
        out.insert(TRACE_OVERHEAD.to_string(), overhead);
        out.insert(HOST_CALIB.to_string(), calib.map_or(f64::NAN, |s| s.median));
        out
    }
}

/// A whole benchmark run.
#[derive(Debug)]
pub struct Report {
    pub seed: u64,
    pub nproc: usize,
    pub git_rev: String,
    pub rustc: String,
    pub traced: bool,
    pub rounds: usize,
    pub runs: Vec<WorkloadRun>,
}

fn summary_json(s: Option<Summary>, unit: &str) -> Json {
    let s = s.unwrap_or(Summary {
        median: f64::NAN,
        q1: f64::NAN,
        q3: f64::NAN,
        n: 0,
    });
    Json::obj()
        .with("unit", unit)
        .with("median", s.median)
        .with("q1", s.q1)
        .with("q3", s.q3)
        .with("n", s.n)
}

/// A metric's summary, with the median of its raw (not normalised) values.
fn metric_json(run: &WorkloadRun, m: &Metric) -> Json {
    let raw: Vec<f64> = run
        .reps
        .iter()
        .filter_map(|r| r.raw.get(m.name).copied())
        .collect();
    summary_json(run.summary(m.name), m.unit)
        .with("raw_median", summarize(&raw).map_or(f64::NAN, |s| s.median))
}

fn value_json(value: Option<f64>, m: &Metric) -> Json {
    Json::obj()
        .with("value", value.unwrap_or(f64::NAN))
        .with("unit", m.unit)
}

impl Report {
    pub fn correct(&self) -> bool {
        self.runs
            .iter()
            .all(|r| r.checks.is_empty() && (!self.traced || r.traced.is_some()))
    }

    fn attempted(&self) -> u64 {
        self.runs.iter().map(WorkloadRun::attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.runs.iter().map(WorkloadRun::failed).sum()
    }

    /// `host.calib_ms`: the median host-probe reading over every rep.
    fn calib(&self) -> Option<Summary> {
        let probes: Vec<f64> = self
            .runs
            .iter()
            .flat_map(|r| r.reps.iter().chain(&r.traced))
            .map(|rep| rep.probe_ms)
            .collect();
        summarize(&probes)
    }

    /// Run metadata, printed before the result line.
    pub fn meta_json(&self) -> Json {
        let shards: Vec<Json> = self
            .runs
            .iter()
            .map(|r| {
                Json::obj().with("workload", r.workload.name()).with(
                    "shards",
                    r.reps.first().map_or(Json::Null, |rep| rep.shards.into()),
                )
            })
            .collect();
        Json::obj().with(
            "meta",
            Json::obj()
                .with("seed", self.seed)
                .with("rounds", self.rounds)
                .with("nproc", self.nproc)
                .with("git_rev", self.git_rev.as_str())
                .with("rustc", self.rustc.as_str())
                .with("shards", shards)
                .with(HOST_CALIB, summary_json(self.calib(), "ms")),
        )
    }

    /// The full report: every metric's median, quartiles and sample count
    /// on every workload, with the correctness verdicts.
    pub fn full_json(&self) -> Json {
        let workloads: Vec<Json> = self
            .runs
            .iter()
            .map(|r| {
                let metrics = END_TO_END
                    .iter()
                    .map(|m| (m.name.to_string(), metric_json(r, m)))
                    .collect();
                let first = r.reps.first();
                let mut w = Json::obj()
                    .with("name", r.workload.name())
                    .with("reps", r.reps.len())
                    .with("ops", r.attempted())
                    .with("failed_ops", r.failed())
                    .with(
                        "modelled_errors",
                        r.reps.iter().map(|rep| rep.errors).sum::<u64>(),
                    )
                    .with("completions_per_rep", first.map_or(0, |rep| rep.stream_len))
                    .with(
                        "digest",
                        first.map_or(Json::Null, |rep| rep.digest.as_str().into()),
                    );
                if let Some(pin) = r.pin_match(self.seed) {
                    w = w.with("pin_match", pin);
                }
                w = w
                    .with(
                        "checks",
                        r.checks
                            .iter()
                            .map(|c| Json::from(c.as_str()))
                            .collect::<Vec<_>>(),
                    )
                    .with("metrics", Json::Obj(metrics));
                if self.traced {
                    w = w.with("layers", self.layers_json(r));
                }
                w
            })
            .collect();
        Json::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted())
            .with("failed", self.failed())
            .with("seed", self.seed)
            .with("rounds", self.rounds)
            .with("workloads", workloads)
    }

    /// Every per-layer metric of a workload's traced rep, by name.
    fn layers_json(&self, run: &WorkloadRun) -> Json {
        let layers = run.layers(self.calib());
        Json::Obj(
            PER_LAYER
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        value_json(layers.get(m.name).copied(), m),
                    )
                })
                .collect(),
        )
    }

    /// The one-workload result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics` — the end-to-end medians, or with `traced`
    /// the per-layer values.
    pub fn result_json(&self, traced: bool) -> Json {
        let Some(run) = self.runs.first() else {
            return Json::obj();
        };
        let metrics = if traced {
            self.layers_json(run)
        } else {
            Json::Obj(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let median = run.summary(m.name).map(|s| s.median);
                        (m.name.to_string(), value_json(median, m))
                    })
                    .collect(),
            )
        };
        Json::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted())
            .with("failed", self.failed())
            .with("metrics", metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn rep(digest: &str, value: f64, traced: bool) -> Rep {
        Rep {
            metrics: END_TO_END
                .iter()
                .map(|m| (m.name.to_string(), value))
                .collect(),
            wall_s: 1.0,
            probe_ms: 1.25,
            ops: 100,
            digest: digest.to_string(),
            layers: if traced {
                PER_LAYER
                    .iter()
                    .filter(|m| ![TRACE_OVERHEAD, HOST_CALIB].contains(&m.name))
                    .map(|m| (m.name.to_string(), 1.0))
                    .collect()
            } else {
                BTreeMap::new()
            },
            ..Rep::default()
        }
    }

    fn report(traced: bool) -> Report {
        Report {
            seed: 11,
            nproc: 2,
            git_rev: "unknown".into(),
            rustc: "unknown".into(),
            traced,
            rounds: 3,
            runs: WORKLOADS
                .iter()
                .map(|(w, _, _)| {
                    let mut run = WorkloadRun::new(*w);
                    for v in [3.0, 1.0, 2.0] {
                        run.add(Ok(rep("00ff", v, false)));
                    }
                    if traced {
                        run.add_traced(Ok(rep("00ff", 1.0, true)));
                    }
                    run
                })
                .collect(),
        }
    }

    fn keys(v: &Json) -> Vec<&str> {
        v.as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect()
    }

    #[test]
    fn printed_json_names_exactly_the_declared_workloads_and_metrics() {
        for traced in [false, true] {
            let r = report(traced);
            assert!(r.correct());

            // The one-workload result line (`--workload`).
            let line = Json::parse(&r.result_json(traced).to_string()).unwrap();
            assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
            let declared: Vec<&str> = if traced {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            let metrics = line.get("metrics").unwrap();
            assert_eq!(keys(metrics), declared);
            for (_, m) in metrics.as_object().unwrap() {
                assert!(m.get("value").unwrap().as_f64().is_some(), "{m}");
                assert_eq!(keys(m), ["value", "unit"]);
            }
            if !traced {
                let v = metrics.get("sim_req_per_s").unwrap();
                assert_eq!(v.get("value").unwrap().as_f64(), Some(2.0));
            }

            // The full report.
            let full = Json::parse(&r.full_json().to_string()).unwrap();
            let names: Vec<&str> = full
                .get("workloads")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|w| w.get("name").unwrap().as_str().unwrap())
                .collect();
            let declared: Vec<&str> = WORKLOADS.iter().map(|(_, n, _)| *n).collect();
            assert_eq!(names, declared);
            for w in full.get("workloads").unwrap().as_array().unwrap() {
                let m = w.get("metrics").unwrap();
                assert_eq!(
                    keys(m),
                    END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
                );
                let s = m.get("setup_s").unwrap();
                assert_eq!(keys(s), ["unit", "median", "q1", "q3", "n", "raw_median"]);
                assert_eq!(s.get("n").unwrap().as_f64(), Some(3.0));
                if traced {
                    let layers = w.get("layers").unwrap();
                    assert_eq!(
                        keys(layers),
                        PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
                    );
                    assert!(layers.as_object().unwrap().iter().all(|(_, v)| v
                        .get("value")
                        .unwrap()
                        .as_f64()
                        .is_some()));
                }
            }
        }
    }

    #[test]
    fn digest_mismatch_fails_the_rep_and_its_ops() {
        let mut run = WorkloadRun::new(Workload::HotelClosed);
        run.add(Ok(rep("00ff", 1.0, false)));
        run.add(Ok(rep("00fe", 1.0, false)));
        run.add(Err("rep exited with signal 9".into()));
        assert_eq!(run.attempted(), 300);
        assert_eq!(run.failed(), 200);
        assert_eq!(run.checks.len(), 2);
        run.add_traced(Ok(rep("00fe", 1.0, true)));
        assert_eq!(run.failed(), 300, "the traced rep must match too");
    }

    #[test]
    fn pin_is_reported_only_for_the_anchor() {
        let mut run = WorkloadRun::new(Workload::HotelOpen);
        let mut r = rep(ANCHOR_DIGEST, 1.0, false);
        r.stream_len = ANCHOR_COMPLETIONS;
        run.add(Ok(r));
        assert_eq!(run.pin_match(ANCHOR_SEED), Some(true));
        assert_eq!(run.pin_match(11), None);
        assert_eq!(
            WorkloadRun::new(Workload::Alibaba).pin_match(ANCHOR_SEED),
            None
        );
    }
}
