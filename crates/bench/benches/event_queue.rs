//! Microbenchmark of the simulator's event queue implementations: the
//! `BinaryHeap<Reverse<Entry>>` baseline vs the hierarchical timing wheel
//! (`blueprint_simrt::evq`), at 10k / 100k / 1M concurrent timers.
//!
//! The workload is the classic *hold model* (Vaucher & Duval): pre-fill the
//! queue with N timers uniformly spread over a 10-virtual-second window,
//! then measure the steady state — pop the minimum, re-arm one timer at a
//! random offset from the popped time — so the population stays at exactly
//! N while the clock sweeps forward, which is what the simulator's event
//! loop looks like mid-run. Results feed `results/event_queue_bench.txt`,
//! which is why the simulator uses the wheel.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use blueprint_simrt::evq::{Entry, Wheel};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Width of the virtual-time window the timer population spreads over.
const WINDOW_NS: u64 = 10_000_000_000;

/// The push/pop surface both contenders share.
trait Queue: Default {
    fn push(&mut self, e: Entry<u64>);
    fn pop(&mut self) -> Option<Entry<u64>>;
}

/// The `BinaryHeap<Reverse<Entry>>` baseline.
#[derive(Default)]
struct Heap(BinaryHeap<Reverse<Entry<u64>>>);

impl Queue for Heap {
    fn push(&mut self, e: Entry<u64>) {
        self.0.push(Reverse(e));
    }
    fn pop(&mut self) -> Option<Entry<u64>> {
        self.0.pop().map(|Reverse(e)| e)
    }
}

impl Queue for Wheel<u64> {
    fn push(&mut self, e: Entry<u64>) {
        Wheel::push(self, e);
    }
    fn pop(&mut self) -> Option<Entry<u64>> {
        Wheel::pop(self)
    }
}

fn prefill<Q: Queue>(n: u64) -> (Q, SmallRng, u64) {
    let mut rng = SmallRng::seed_from_u64(42);
    let mut q = Q::default();
    for seq in 0..n {
        let time = rng.gen_range(0..WINDOW_NS);
        q.push(Entry {
            time,
            seq,
            item: seq,
        });
    }
    (q, rng, n)
}

fn bench_hold<Q: Queue>(c: &mut Criterion, n: u64, label: &str) {
    let (mut q, mut rng, mut seq) = prefill::<Q>(n);
    c.bench_function(label, |b| {
        b.iter(|| {
            // Steady state: one pop, one re-arm at a random future offset.
            let e = q.pop().expect("population is constant");
            let hold = rng.gen_range(1..WINDOW_NS);
            q.push(Entry {
                time: e.time + hold,
                seq,
                item: seq,
            });
            seq += 1;
            black_box(e.item)
        })
    });
}

/// Same population, but every timer lands on one of a few tick-aligned
/// timestamps — the pathological tie storm where the heap's comparisons and
/// the wheel's due-heap both do maximal work per op.
fn bench_ties<Q: Queue>(c: &mut Criterion, n: u64, label: &str) {
    let mut rng = SmallRng::seed_from_u64(43);
    let mut q = Q::default();
    for seq in 0..n {
        let time = rng.gen_range(0..8u64) * 1_000_000;
        q.push(Entry {
            time,
            seq,
            item: seq,
        });
    }
    let mut seq = n;
    c.bench_function(label, |b| {
        b.iter(|| {
            let e = q.pop().expect("population is constant");
            q.push(Entry {
                time: e.time + rng.gen_range(0..8u64) * 1_000_000,
                seq,
                item: seq,
            });
            seq += 1;
            black_box(e.item)
        })
    });
}

fn bench_event_queues(c: &mut Criterion) {
    for (n, tag) in [(10_000u64, "10k"), (100_000, "100k"), (1_000_000, "1m")] {
        bench_hold::<Heap>(c, n, &format!("evq_hold_heap_{tag}"));
        bench_hold::<Wheel<u64>>(c, n, &format!("evq_hold_wheel_{tag}"));
    }
    bench_ties::<Heap>(c, 100_000, "evq_ties_heap_100k");
    bench_ties::<Wheel<u64>>(c, 100_000, "evq_ties_wheel_100k");
}

criterion_group!(benches, bench_event_queues);
criterion_main!(benches);
