//! Exact nearest-rank quantiles.

/// Exact quantile of a sample set (nearest-rank on a sorted copy).
///
/// Nearest-rank means the smallest sample `x` such that at least a fraction
/// `q` of the samples are ≤ `x` — i.e. `sorted[⌈q·n⌉ - 1]` (clamped to the
/// valid range), never an interpolated value, so the result is always an
/// observed sample. `q` outside `[0, 1]` clamps. Returns `None` for empty
/// input.
pub fn exact_quantile(samples: &[u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut v: Vec<u64> = samples.to_vec();
    v.sort_unstable();
    Some(v[nearest_rank_index(v.len(), q)])
}

/// Nearest-rank index: the smallest 0-based index `i` such that at least
/// `q·n` of the samples are ≤ `sorted[i]`, i.e. `⌈q·n⌉ - 1` clamped to
/// `[0, n-1]`. Rank arithmetic is on `q·n` directly — not on a rounded
/// `q·(n-1)` interpolation index — so e.g. the median of two samples is the
/// lower one and p99 of 100 samples is the 99th, matching the textbook
/// "smallest value with P(X ≤ x) ≥ q" definition
/// (`exact_quantile_nearest_rank_regressions` pins these cases).
fn nearest_rank_index(n: usize, q: f64) -> usize {
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_quantile_basics() {
        assert_eq!(exact_quantile(&[], 0.5), None);
        assert_eq!(exact_quantile(&[7], 0.99), Some(7));
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(exact_quantile(&v, 0.0), Some(1));
        assert_eq!(exact_quantile(&v, 1.0), Some(100));
        let med = exact_quantile(&v, 0.5).unwrap();
        assert!((49..=52).contains(&med));
    }

    #[test]
    fn exact_quantile_nearest_rank_regressions() {
        // 1 element: every quantile is that element.
        for q in [0.0, 0.01, 0.5, 0.9, 1.0] {
            assert_eq!(exact_quantile(&[42], q), Some(42), "q={q}");
        }
        // 2 elements: by nearest-rank, q <= 0.5 is the lower sample and
        // anything above is the upper. The old round()-based formula put the
        // median at the *upper* element.
        assert_eq!(exact_quantile(&[10, 20], 0.0), Some(10));
        assert_eq!(exact_quantile(&[10, 20], 0.5), Some(10));
        assert_eq!(exact_quantile(&[10, 20], 0.51), Some(20));
        assert_eq!(exact_quantile(&[10, 20], 0.99), Some(20));
        assert_eq!(exact_quantile(&[10, 20], 1.0), Some(20));
        // 100 elements 1..=100: rank q·100 is exact — p99 must be 99, not
        // rounded up to 100.
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(exact_quantile(&v, 0.50), Some(50));
        assert_eq!(exact_quantile(&v, 0.90), Some(90));
        assert_eq!(exact_quantile(&v, 0.99), Some(99));
        assert_eq!(exact_quantile(&v, 0.999), Some(100));
        // Out-of-range q clamps rather than panics.
        assert_eq!(exact_quantile(&v, -0.5), Some(1));
        assert_eq!(exact_quantile(&v, 1.5), Some(100));
    }
}
