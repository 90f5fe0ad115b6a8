//! Bench for E5 and E7's background: workload generation and
//! characterization throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use spider_core::config::Scale;
use spider_core::experiments::e05_workload;
use spider_simkit::{SimDuration, SimRng};
use spider_workload::characterize::characterize;
use spider_workload::mix::CenterWorkload;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("tbl_workload");
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    g.sample_size(10);
    g.bench_function("experiment_e5_small", |b| {
        b.iter(|| black_box(e05_workload::run(Scale::Small)));
    });
    g.bench_function("generate_production_mix_10min", |b| {
        b.iter(|| {
            let mut rng = SimRng::seed_from_u64(1);
            black_box(
                CenterWorkload::olcf_production().generate(SimDuration::from_mins(10), &mut rng),
            )
        });
    });
    // E7's background: only the analytics and visualization streams of one
    // hour-long application run.
    g.bench_function("generate_e7_background_streams_1h", |b| {
        b.iter(|| {
            let mut rng = SimRng::seed_from_u64(1);
            black_box(CenterWorkload::olcf_production().generate_streams(
                SimDuration::from_hours(1),
                &mut rng,
                48..76,
            ))
        });
    });
    // E5 characterizes the per-stream traces without merging them.
    let wl = CenterWorkload::olcf_production();
    let mut rng = SimRng::seed_from_u64(2);
    let streams = wl.generate_streams(SimDuration::from_mins(10), &mut rng, 0..wl.total_streams());
    let requests: usize = streams.iter().map(Vec::len).sum();
    g.bench_function(format!("characterize_{requests}_requests"), |b| {
        b.iter(|| black_box(characterize(streams.iter().flatten())));
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
