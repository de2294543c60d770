//! Criterion benchmarks of the evaluation pipeline and the cycle-accurate
//! column simulator: how fast a full table/figure regeneration runs.
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use synchro_apps::{Application, ApplicationProfile};
use synchro_isa::assemble;
use synchro_power::Technology;
use synchro_sim::{Chip, Column, ColumnConfig};
use synchroscalar::experiments::{figure8, leakage_sensitivity, table4};
use synchroscalar::pipeline::{evaluate_application, EvaluationOptions};

fn bench_power_pipeline(c: &mut Criterion) {
    let tech = Technology::isca2004();
    let profile = ApplicationProfile::of(Application::Wifi80211a);
    c.bench_function("evaluate_802_11a", |b| {
        b.iter(|| evaluate_application(black_box(&profile), &tech, &EvaluationOptions::default()))
    });
    c.bench_function("table4_full", |b| b.iter(|| table4(black_box(&tech))));
    c.bench_function("figure8_bus_sweep", |b| {
        b.iter(|| figure8(black_box(&tech)))
    });
    c.bench_function("leakage_sensitivity_full", |b| {
        b.iter(|| leakage_sensitivity(black_box(&tech)))
    });
}

fn bench_column_simulator(c: &mut Criterion) {
    let program = assemble(
        "setp p0, 0\nsetp p1, 256\nclracc a0\nloop 64, 5\nld r0, p0, 0\nld r1, p1, 0\nmac a0, r0, r1\naddp p0, 1\naddp p1, 1\nmovacc r2, a0\nhalt\n",
    )
    .unwrap();
    c.bench_function("column_dot_product_64", |b| {
        b.iter(|| {
            let mut col = Column::new(ColumnConfig::isca2004(), program.clone(), None);
            col.run(10_000).unwrap()
        })
    });
}

/// `Chip::run` against the naive tick loop on a divider-heavy mix:
/// co-prime dividers leave ~98 % of reference ticks empty, which `run`
/// never visits because each column walks only its own divider's ticks.
fn bench_chip_run(c: &mut Criterion) {
    let build = || {
        let mut chip = Chip::new();
        for divider in [97u32, 193, 389] {
            chip.add_column(Column::new(
                ColumnConfig::isca2004().with_divider(divider),
                assemble("loop 200, 2\nli r0, 1\nadd r1, r1, r0\nhalt\n").unwrap(),
                None,
            ));
        }
        chip
    };
    c.bench_function("chip_run", |b| {
        b.iter(|| {
            let mut chip = build();
            chip.run(200_000).unwrap()
        })
    });
    c.bench_function("chip_run_ticked", |b| {
        b.iter(|| {
            let mut chip = build();
            chip.run_ticked(200_000).unwrap()
        })
    });
    // The two paths must agree bit-for-bit on everything they count.
    let (mut fast, mut slow) = (build(), build());
    fast.run(200_000).unwrap();
    slow.run_ticked(200_000).unwrap();
    assert_eq!(fast.stats(), slow.stats());
    assert_eq!(fast.column_stats(), slow.column_stats());
}

/// End-to-end mapper compile + execute for the DDC reference graph.
fn bench_mapper(c: &mut Criterion) {
    use synchroscalar::mapper::{self, MapperOptions};
    let (graph, mapping, rate) = mapper::ddc_reference();
    let options = MapperOptions {
        iterations: 4,
        iteration_rate_hz: rate,
        ..MapperOptions::default()
    };
    c.bench_function("mapper_ddc_compile_execute", |b| {
        b.iter(|| {
            let mut compiled = mapper::compile(&graph, &mapping, &options).unwrap();
            compiled.execute().unwrap()
        })
    });
}

/// Compile alone for the 24-stage deep pipeline split 12 | 12 across a
/// 2-chip board: SDF analysis, 24 columns with their programs and DOU
/// tables, both chips' TDM schedules and the bridge schedule.
fn bench_board_compile(c: &mut Criterion) {
    use synchroscalar::apps::{deep_pipeline, DEEP_PIPELINE_RATE_HZ};
    use synchroscalar::mapper::{self, BoardConfig, MapperOptions};
    use synchroscalar::sdf::{ActorId, Mapping};
    let graph = deep_pipeline();
    let mut mapping = Mapping::new();
    for (i, actor) in graph.actors().iter().enumerate() {
        mapping.place_on_chip(i / 12, ActorId(i), actor.max_parallel_tiles, 1.0);
    }
    let options = MapperOptions {
        iterations: 4,
        iteration_rate_hz: DEEP_PIPELINE_RATE_HZ,
        ..MapperOptions::default()
    };
    let board = BoardConfig::default();
    c.bench_function("mapper_compile_board_deep_pipeline", |b| {
        b.iter(|| mapper::compile_board(black_box(&graph), &mapping, &options, &board).unwrap())
    });
}

criterion_group!(
    pipeline,
    bench_power_pipeline,
    bench_column_simulator,
    bench_chip_run,
    bench_mapper,
    bench_board_compile
);
criterion_main!(pipeline);
