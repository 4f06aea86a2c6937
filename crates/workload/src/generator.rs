//! Open-loop workload generation.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use blueprint_simrt::time::SimTime;

/// One workload phase: a constant request rate for a duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Phase duration, ns.
    pub duration_ns: SimTime,
    /// Arrival rate, requests per second.
    pub rps: f64,
}

impl Phase {
    /// Convenience constructor with seconds + rps.
    pub fn new(duration_s: u64, rps: f64) -> Self {
        Phase {
            duration_ns: duration_s * 1_000_000_000,
            rps,
        }
    }
}

/// A weighted API mix: `(entry, method, weight)` triples.
///
/// Mirrors the paper's mixed workloads, e.g. HotelReservation's
/// "60% hotels, 38% recommendations, 1% user, 1% reserve".
#[derive(Debug, Clone, Default)]
pub struct ApiMix {
    entries: Vec<(String, String, f64)>,
    total: f64,
}

impl ApiMix {
    /// Creates an empty mix.
    pub fn new() -> Self {
        ApiMix::default()
    }

    /// Adds an API with a weight.
    pub fn add(mut self, entry: &str, method: &str, weight: f64) -> Self {
        assert!(weight > 0.0);
        self.total += weight;
        self.entries
            .push((entry.to_string(), method.to_string(), weight));
        self
    }

    /// Single-API mix.
    pub fn single(entry: &str, method: &str) -> Self {
        ApiMix::new().add(entry, method, 1.0)
    }

    /// Samples an API.
    pub fn sample(&self, rng: &mut SmallRng) -> (&str, &str) {
        assert!(!self.entries.is_empty(), "empty API mix");
        let mut x = rng.gen::<f64>() * self.total;
        for (e, m, w) in &self.entries {
            if x < *w {
                return (e, m);
            }
            x -= w;
        }
        let last = self.entries.last().expect("non-empty");
        (&last.0, &last.1)
    }

    /// Number of APIs in the mix.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the mix is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One generated arrival.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Arrival time.
    pub at_ns: SimTime,
    /// Entry point name.
    pub entry: String,
    /// Method name.
    pub method: String,
    /// Entity id.
    pub entity: u64,
}

/// Open-loop arrival generator: phased rates, Poisson or uniform spacing,
/// uniform entity ids.
#[derive(Debug, Clone)]
pub struct OpenLoopGen {
    phases: Vec<Phase>,
    mix: ApiMix,
    /// Entity space size (ids drawn uniformly from `0..entities`).
    entities: u64,
    /// Poisson (exponential interarrival) vs deterministic spacing.
    poisson: bool,
    rng: SmallRng,
    // Iterator state.
    phase_idx: usize,
    phase_start: SimTime,
    next_at: SimTime,
}

impl OpenLoopGen {
    /// Creates a generator.
    pub fn new(phases: Vec<Phase>, mix: ApiMix, entities: u64, seed: u64) -> Self {
        assert!(!phases.is_empty(), "need at least one phase");
        assert!(entities > 0);
        OpenLoopGen {
            phases,
            mix,
            entities,
            poisson: true,
            rng: SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
            phase_idx: 0,
            phase_start: 0,
            next_at: 0,
        }
    }

    /// Switches to deterministic (uniform) interarrival spacing.
    pub fn deterministic(mut self) -> Self {
        self.poisson = false;
        self
    }

    /// Total workload duration.
    pub fn duration_ns(&self) -> SimTime {
        self.phases.iter().map(|p| p.duration_ns).sum()
    }

    /// Expected number of arrivals: rate × duration summed over the phases
    /// (the count, up to rounding of the spacing, under deterministic
    /// spacing; the mean under Poisson).
    pub fn expected_arrivals(&self) -> f64 {
        self.phases
            .iter()
            .map(|p| p.rps * p.duration_ns as f64 / 1e9)
            .sum()
    }

    fn interarrival_ns(&mut self, rps: f64) -> SimTime {
        let mean = 1e9 / rps;
        if self.poisson {
            let u: f64 = self.rng.gen_range(1e-12f64..1.0);
            (-u.ln() * mean).round().max(1.0) as SimTime
        } else {
            mean.round().max(1.0) as SimTime
        }
    }
}

impl Iterator for OpenLoopGen {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        loop {
            let phase = *self.phases.get(self.phase_idx)?;
            let phase_end = self.phase_start + phase.duration_ns;
            if self.next_at >= phase_end {
                self.phase_idx += 1;
                self.phase_start = phase_end;
                continue;
            }
            let at_ns = self.next_at;
            let gap = self.interarrival_ns(phase.rps);
            self.next_at = at_ns + gap;
            let (entry, method) = {
                let (e, m) = self.mix.sample(&mut self.rng);
                (e.to_string(), m.to_string())
            };
            let entity = self.rng.gen_range(0..self.entities);
            return Some(Arrival {
                at_ns,
                entry,
                method,
                entity,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_spacing_hits_target_rate() {
        let gen = OpenLoopGen::new(
            vec![Phase::new(2, 1000.0)],
            ApiMix::single("front", "M"),
            100,
            1,
        )
        .deterministic();
        let arrivals: Vec<Arrival> = gen.collect();
        assert_eq!(arrivals.len(), 2000);
        assert_eq!(arrivals[1].at_ns - arrivals[0].at_ns, 1_000_000);
        assert!(arrivals.last().unwrap().at_ns < 2_000_000_000);
    }

    #[test]
    fn poisson_rate_is_close() {
        let gen = OpenLoopGen::new(
            vec![Phase::new(5, 2000.0)],
            ApiMix::single("f", "M"),
            10,
            42,
        );
        let n = gen.count();
        assert!((8_000..=12_000).contains(&n), "n={n}");
    }

    #[test]
    fn expected_arrivals_sums_rate_times_duration() {
        let phases = vec![
            Phase::new(2, 1000.0),
            Phase {
                duration_ns: 500_000_000,
                rps: 200.0,
            },
        ];
        let gen = OpenLoopGen::new(phases, ApiMix::single("f", "M"), 10, 3);
        assert_eq!(gen.expected_arrivals(), 2100.0);
        assert_eq!(gen.clone().deterministic().count(), 2100);
    }

    #[test]
    fn phases_switch_rates() {
        let gen = OpenLoopGen::new(
            vec![Phase::new(1, 100.0), Phase::new(1, 1000.0)],
            ApiMix::single("f", "M"),
            10,
            7,
        )
        .deterministic();
        let arrivals: Vec<Arrival> = gen.collect();
        let first = arrivals.iter().filter(|a| a.at_ns < 1_000_000_000).count();
        let second = arrivals.len() - first;
        assert_eq!(first, 100);
        assert_eq!(second, 1000);
        // Arrival times are monotone.
        assert!(arrivals.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    }

    #[test]
    fn mix_ratios_respected() {
        let mix = ApiMix::new().add("f", "A", 0.9).add("f", "B", 0.1);
        let gen = OpenLoopGen::new(vec![Phase::new(2, 5000.0)], mix, 10, 3).deterministic();
        let arrivals: Vec<Arrival> = gen.collect();
        let a = arrivals.iter().filter(|x| x.method == "A").count();
        let frac = a as f64 / arrivals.len() as f64;
        assert!((0.87..=0.93).contains(&frac), "frac={frac}");
    }

    #[test]
    fn entities_in_range() {
        let gen = OpenLoopGen::new(vec![Phase::new(1, 1000.0)], ApiMix::single("f", "M"), 5, 3);
        for a in gen {
            assert!(a.entity < 5);
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let mk = || {
            OpenLoopGen::new(vec![Phase::new(1, 500.0)], ApiMix::single("f", "M"), 50, 11)
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }
}
