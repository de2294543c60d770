//! Criterion benchmarks of the explorer's search core, staged so
//! per-stage regressions show up, not only end-to-end numbers:
//! interval-arena build (graph analysis + one VF/power evaluation per
//! tile option of every contiguous interval), one prefix-DP pass over a
//! prepared arena (the relaxation hot loop plus winner reconstruction),
//! and a full `explore` on the DDC reference graph (arena + DP +
//! realization).
use bench::synthetic_pipeline;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use synchro_apps::{reference_graph, Application};
use synchroscalar::explorer::perf::PreparedSearch;
use synchroscalar::explorer::{explore, ExplorerConfig, TileCandidates};

fn bench_interval_arena(c: &mut Criterion) {
    let graph = synthetic_pipeline(16);
    let config = ExplorerConfig::new(1e6, 128).with_candidates(TileCandidates::All);
    c.bench_function("explorer_interval_arena_build_16", |b| {
        b.iter(|| {
            PreparedSearch::new(black_box(&graph), &config)
                .expect("pipeline analyses")
                .option_count()
        })
    });
}

fn bench_prefix_dp(c: &mut Criterion) {
    let graph = synthetic_pipeline(16);
    let config = ExplorerConfig::new(1e6, 128).with_candidates(TileCandidates::All);
    let prepared = PreparedSearch::new(&graph, &config).expect("pipeline analyses");
    c.bench_function("explorer_prefix_dp_16_128", |b| {
        b.iter(|| black_box(&prepared).run_dp())
    });
}

fn bench_full_explore(c: &mut Criterion) {
    let reference = reference_graph(Application::Ddc);
    let config = ExplorerConfig::new(reference.iteration_rate_hz, 50);
    c.bench_function("explorer_explore_ddc_full", |b| {
        b.iter(|| explore(black_box(&reference.graph), &config).expect("ddc explores"))
    });
}

criterion_group!(
    benches,
    bench_interval_arena,
    bench_prefix_dp,
    bench_full_explore
);
criterion_main!(benches);
