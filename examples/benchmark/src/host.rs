//! Host-speed probe, independent of the code under test.
//!
//! The hosts this benchmark runs on are shared: bursts of contention from
//! other tenants slow everything by 30–50% for seconds at a time, and raw
//! timings of the same commit then spread by 10–20% between runs. Each rep
//! therefore probes the host with a fixed kernel — generate and sort 2^16
//! splitmix64 values — before set-up, between its phases, after each pass
//! and between closed-loop segments, and expresses each phase's timings in
//! *reference-host* units: raw time × [`REF_PROBE_MS`] / the median of the
//! probe points around and inside that phase. On a quiet reference host the
//! two are equal.

use std::time::{Duration, Instant};

/// The probe kernel's time on the quiet reference host (a 2-vCPU Xeon VM
/// at 2.1 GHz), ms. It only sets the scale of normalised timings.
pub const REF_PROBE_MS: f64 = 1.25;

/// Kernel runs back to back at each probe point; the point reads their
/// median.
const PROBE_RUNS: usize = 5;

/// Times the probe kernel at chosen points of a rep.
pub struct Probe {
    buf: Vec<u64>,
    samples: Vec<f64>,
    spent: Duration,
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe {
    /// The kernel's buffer is allocated once, so probing leaves the
    /// allocator's state alone after the first call.
    pub fn new() -> Self {
        Probe {
            buf: Vec::with_capacity(1 << 16),
            samples: Vec::new(),
            spent: Duration::ZERO,
        }
    }

    fn kernel(&mut self) -> f64 {
        let start = Instant::now();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        self.buf.clear();
        self.buf.extend((0..1u32 << 16).map(|_| {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }));
        self.buf.sort_unstable();
        std::hint::black_box(&self.buf);
        start.elapsed().as_secs_f64() * 1e3
    }

    /// Probes the host now (the median of a few kernel runs) and returns
    /// the index of this probe point.
    pub fn measure(&mut self) -> usize {
        let start = Instant::now();
        let runs: Vec<f64> = (0..PROBE_RUNS).map(|_| self.kernel()).collect();
        let point = crate::stats::summarize(&runs).map_or(f64::NAN, |s| s.median);
        self.samples.push(point);
        self.spent += start.elapsed();
        self.samples.len() - 1
    }

    /// Host time spent probing, to be left out of measured wall times.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// Median of the probe points with indices `first..=last`, ms (NaN if
    /// there are none).
    pub fn median(&self, first: usize, last: usize) -> f64 {
        let points = self.samples.get(first..=last).unwrap_or_default();
        crate::stats::summarize(points).map_or(f64::NAN, |s| s.median)
    }

    /// Index of the latest probe point.
    pub fn last(&self) -> usize {
        self.samples.len().saturating_sub(1)
    }
}

/// The factor that turns a raw time measured while the probe read
/// `probe_ms` into reference-host time.
pub fn scale(probe_ms: f64) -> f64 {
    REF_PROBE_MS / probe_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_records_each_point_and_its_time() {
        let mut p = Probe::new();
        assert!(p.median(0, 0).is_nan());
        assert_eq!((p.measure(), p.measure()), (0, 1));
        assert_eq!(p.last(), 1);
        let both = p.median(0, 1);
        assert!(both > 0.0 && both == (p.samples[0] + p.samples[1]) / 2.0);
        assert!(p.median(2, 3).is_nan());
        assert!(p.spent() > Duration::ZERO);
        assert!((scale(REF_PROBE_MS) - 1.0).abs() < 1e-12);
        assert!(scale(2.0 * REF_PROBE_MS) < 1.0);
    }
}
