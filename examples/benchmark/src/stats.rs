//! Order statistics: the benchmark's own definitions, independent of the
//! code under test so that a change to the workload crate's quantile code
//! cannot move the yardstick.

/// Median, quartiles and sample count of repeated measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Summarises a sample set the way Python's `statistics.median` and
/// `statistics.quantiles(values, n=4)` (default "exclusive" method) do, so
/// the quartiles printed here match what a script recomputes from the raw
/// values. `None` for an empty set.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = match n {
        0 => return None,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    };
    let (q1, q3) = if n == 1 {
        (v[0], v[0])
    } else {
        (exclusive_quartile(&v, 1), exclusive_quartile(&v, 3))
    };
    Some(Summary { median, q1, q3, n })
}

/// The `i`-th of the three cut points of Python's exclusive-method
/// `quantiles(n=4)` over sorted data of length ≥ 2.
fn exclusive_quartile(sorted: &[f64], i: usize) -> f64 {
    let len = sorted.len();
    let m = len + 1;
    let j = (i * m / 4).clamp(1, len - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least a fraction `q` of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint::workload::quantile::exact_quantile;

    #[test]
    fn median_and_quartiles_match_python() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[3.0, 1.0, 2.0, 5.0, 4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = summarize(&[20.0, 10.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
        let s = summarize(&[4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn percentile_agrees_with_the_workload_crate() {
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        for n in [1usize, 2, 3, 7, 10, 99, 100, 101, 1000] {
            let samples: Vec<u64> = (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x % 10_000
                })
                .collect();
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(
                    percentile(&sorted, q),
                    exact_quantile(&samples, q),
                    "n={n} q={q}"
                );
            }
        }
        assert_eq!(percentile(&[], 0.5), None);
    }
}
