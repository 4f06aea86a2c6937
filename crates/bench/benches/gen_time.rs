//! Criterion benchmark of Blueprint's generation time (the Tab. 5 metric):
//! full compiles (specs → IR → artifacts + simulation spec) of each ported
//! application and of the synthetic Alibaba topology at several scales, up
//! to four times the paper's own 2,882 instances (the last two scales check
//! that the compile stays linear past paper scale).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use blueprint_apps::{
    alibaba, hotel_reservation, social_network, sock_shop, train_ticket, WiringOpts,
};
use blueprint_core::Blueprint;

fn bench_apps(c: &mut Criterion) {
    let opts = WiringOpts::default();
    let mut group = c.benchmark_group("gen_time_apps");
    group.sample_size(20);

    let hr = (
        hotel_reservation::workflow(),
        hotel_reservation::wiring(&opts),
    );
    group.bench_function("hotel_reservation", |b| {
        b.iter(|| Blueprint::new().compile(&hr.0, &hr.1).expect("compiles"))
    });
    let sn = (social_network::workflow(), social_network::wiring(&opts));
    group.bench_function("social_network", |b| {
        b.iter(|| Blueprint::new().compile(&sn.0, &sn.1).expect("compiles"))
    });
    let ss = (sock_shop::workflow(), sock_shop::wiring(&opts));
    group.bench_function("sock_shop", |b| {
        b.iter(|| Blueprint::new().compile(&ss.0, &ss.1).expect("compiles"))
    });
    let tt = (train_ticket::workflow(), train_ticket::wiring(&opts));
    group.bench_function("train_ticket", |b| {
        b.iter(|| Blueprint::new().compile(&tt.0, &tt.1).expect("compiles"))
    });
    group.finish();
}

fn bench_alibaba_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("gen_time_alibaba");
    group.sample_size(10);
    for scale in [
        100usize,
        400,
        1_000,
        alibaba::PAPER_SCALE,
        2 * alibaba::PAPER_SCALE,
        4 * alibaba::PAPER_SCALE,
    ] {
        let (wf, w) = alibaba::topology(scale, 42);
        group.bench_with_input(BenchmarkId::from_parameter(scale), &scale, |b, _| {
            b.iter(|| Blueprint::new().compile(&wf, &w).expect("compiles"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_apps, bench_alibaba_scaling);
criterion_main!(benches);
