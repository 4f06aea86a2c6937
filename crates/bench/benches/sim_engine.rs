//! Criterion benchmark of the simulator's processor-sharing host. End-to-end
//! simulator cost (per-request dispatch, simulated requests per second) is
//! measured by `examples/benchmark`'s `hotel-closed-1` and `hotel-open-2k`
//! workloads.

use criterion::{criterion_group, criterion_main, Criterion};

use blueprint_simrt::host::PsHost;

fn bench_ps_host(c: &mut Criterion) {
    // Each job carries a payload continuation, as in the simulator; one
    // drain buffer is reused across completions and iterations.
    let mut due: Vec<u64> = Vec::new();
    c.bench_function("ps_host_add_drain_1000_jobs", |b| {
        b.iter(|| {
            let mut h = PsHost::new(8.0);
            for i in 0..1000u64 {
                h.add(i, 10_000.0, (i % 16) as usize, i);
            }
            let mut t = 1_000;
            let mut done = 0;
            while done < 1000 {
                match h.next_completion(t) {
                    Some(next) => {
                        t = next;
                        due.clear();
                        h.collect_due(t, &mut due);
                        done += due.len();
                    }
                    None => break,
                }
            }
            assert_eq!(done, 1000);
        })
    });
}

criterion_group!(benches, bench_ps_host);
criterion_main!(benches);
