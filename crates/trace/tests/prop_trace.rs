//! Property tests of the trace model and the Sifter sampler.

use blueprint_trace::{Sifter, SifterConfig, Span, SpanId, Trace, TraceCollector, TraceId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random cases per property; case `i` draws from
/// `SmallRng::seed_from_u64(seed ^ i)`.
const CASES: u64 = 128;

/// Builds a random span tree with `n` spans (parents precede children).
fn random_tree(n: usize, seed: u64) -> Trace {
    let mut spans = Vec::new();
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in 0..n {
        let parent = if i == 0 {
            None
        } else {
            Some(SpanId((next() % i as u64) as u32))
        };
        spans.push(Span {
            id: SpanId(i as u32),
            parent,
            service: format!("s{}", next() % 5),
            operation: format!("m{}", next() % 3),
            start_ns: i as u64 * 10,
            end_ns: i as u64 * 10 + 100,
            error: next() % 10 == 0,
        });
    }
    Trace {
        id: TraceId(seed),
        spans,
    }
}

/// Token streams are balanced (every `+label` has a matching `-label`)
/// and visit every span exactly once when the tree is connected.
#[test]
fn token_stream_balanced() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x7201 ^ case);
        let t = random_tree(rng.gen_range(1..40), rng.gen());
        let toks = t.token_stream();
        assert_eq!(toks.len(), 2 * t.len(), "case {case}");
        let mut depth: i64 = 0;
        for tok in &toks {
            depth += if tok.starts_with('+') { 1 } else { -1 };
            assert!(depth >= 0, "case {case}");
        }
        assert_eq!(depth, 0, "case {case}");
    }
}

/// Signature depth never exceeds the span count, and equal trees have
/// equal signatures.
#[test]
fn signature_is_structural() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x7202 ^ case);
        let (n, seed) = (rng.gen_range(1..40), rng.gen());
        let a = random_tree(n, seed);
        let b = random_tree(n, seed);
        assert_eq!(a.signature(), b.signature(), "case {case}");
        assert!((1..=n).contains(&a.depth()), "case {case}");
    }
}

/// The collector reassembles an interleaved batch of traces losslessly.
#[test]
fn collector_reassembles() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x7203 ^ case);
        let sizes: Vec<usize> = (0..rng.gen_range(1..6))
            .map(|_| rng.gen_range(1..8))
            .collect();
        let mut c = TraceCollector::new();
        let mut open: Vec<(TraceId, Vec<SpanId>)> = Vec::new();
        for (i, &n) in sizes.iter().enumerate() {
            let tid = TraceId(i as u64);
            let root = c.start_span(tid, None, "root", "op", 0);
            let mut ids = vec![root];
            for k in 1..n {
                let parent = ids[k / 2];
                ids.push(c.start_span(tid, Some(parent), "svc", "op", k as u64));
            }
            open.push((tid, ids));
        }
        // Close all spans, children-first, interleaved across traces.
        let max_len = open.iter().map(|(_, v)| v.len()).max().unwrap();
        for k in (0..max_len).rev() {
            for (tid, ids) in &open {
                if let Some(span) = ids.get(k) {
                    c.end_span(*tid, *span, 1_000 + k as u64, false);
                }
            }
        }
        let finished = c.drain_finished();
        assert_eq!(finished.len(), sizes.len(), "case {case}");
        for t in finished {
            assert_eq!(t.len(), sizes[t.id.0 as usize], "case {case}");
            assert!(t.root().is_some(), "case {case}");
        }
        assert_eq!(c.open_count(), 0, "case {case}");
    }
}

/// Sifter probabilities are always valid and deterministic in the seed.
#[test]
fn sifter_probabilities_valid() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x7204 ^ case);
        let seeds: Vec<u64> = (0..rng.gen_range(5..30)).map(|_| rng.gen()).collect();
        let run = || {
            let mut s = Sifter::new(SifterConfig {
                seed: 5,
                ..Default::default()
            });
            let mut ps = Vec::new();
            for &seed in &seeds {
                let t = random_tree(1 + (seed % 20) as usize, seed);
                let d = s.observe_trace(&t);
                assert!((0.0..=1.0).contains(&d.probability), "case {case}");
                assert!(d.loss.is_finite() && d.loss >= 0.0, "case {case}");
                ps.push((d.loss, d.probability, d.sampled));
            }
            ps
        };
        assert_eq!(run(), run(), "case {case}");
    }
}
