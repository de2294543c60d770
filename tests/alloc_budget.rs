//! Allocation budget of compiling a mapping, running it on the fast tier,
//! and exploring: a chip, a board and a degraded-mode ladder.
//!
//! A counting global allocator tallies every allocation this test binary
//! makes.  The binary holds a single test, so nothing else allocates while
//! it measures.  The compile and execute budgets are the counts measured
//! when the fast tier became firing jumps in the interpreter's run loop,
//! plus about 10 %: a change that copies a column's DOU table or program
//! again, builds its segment configuration one split at a time, or builds
//! a second column to run the fast tier on, spends more than that.  The
//! explorer budgets are the counts measured when degraded rungs began to
//! package their best winner alone and boards were priced by range
//! tables over one arena, plus about 10 %: packaging every winner's curve
//! point again, a DP cell that allocates, or a board search that builds
//! a graph or an arena per chip, spends more than that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use synchroscalar::apps::{
    deep_pipeline, reference_graph, Application, ApplicationProfile, DEEP_PIPELINE_RATE_HZ,
};
use synchroscalar::explorer::{
    explore, explore_board, explore_degraded, BoardSearch, CommSpec, ExplorerConfig, ResourceLoss,
};
use synchroscalar::mapper::{self, BoardConfig, ExecutionTier, MapperOptions};
use synchroscalar::sdf::{ActorId, Mapping};

/// The system allocator, counting each call that hands out memory
/// (`alloc`, `alloc_zeroed` and `realloc`).
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with its arguments unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let value = f();
    (value, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn compile_and_fast_execute_stay_within_their_allocation_budgets() {
    // The DDC reference chip (7 columns).
    let (graph, mapping, rate) = mapper::ddc_reference();
    let options = MapperOptions {
        iterations: 4,
        iteration_rate_hz: rate,
        tier: ExecutionTier::Fast,
        ..MapperOptions::default()
    };
    let (compiled, ddc_compile) =
        counted(|| mapper::compile(&graph, &mapping, &options).expect("DDC compiles"));
    let mut compiled = compiled;
    let (report, ddc_execute) = counted(|| compiled.execute().expect("DDC runs"));
    assert!(report.firings_exact());

    // The 24-stage deep pipeline on a 2-chip board, 12 | 12.
    let graph = deep_pipeline();
    let mut mapping = Mapping::new();
    for (i, actor) in graph.actors().iter().enumerate() {
        mapping.place_on_chip(i / 12, ActorId(i), actor.max_parallel_tiles, 1.0);
    }
    let options = MapperOptions {
        iterations: 4,
        iteration_rate_hz: DEEP_PIPELINE_RATE_HZ,
        tier: ExecutionTier::Fast,
        ..MapperOptions::default()
    };
    let (compiled, board_compile) = counted(|| {
        mapper::compile_board(&graph, &mapping, &options, &BoardConfig::default())
            .expect("the 12 | 12 split compiles")
    });
    let mut compiled = compiled;
    let (report, board_execute) = counted(|| compiled.execute().expect("the board runs"));
    assert!(report.firings_exact());

    // The explorer under the mapper's default bus frame, single-actor
    // columns, as board mapping and degraded-mode recovery run it.
    let defaults = MapperOptions::default();
    let framed = |rate: f64, budget: u32| {
        ExplorerConfig::new(rate, budget)
            .single_actor_columns()
            .with_comm(CommSpec::from_clock(
                defaults.bus_splits as u32,
                defaults.bus_frequency_hz,
                rate,
            ))
    };
    // The deep pipeline's whole curve on one 64-tile chip, fused.
    let (exploration, chip_explore) = counted(|| {
        explore(&graph, &ExplorerConfig::new(DEEP_PIPELINE_RATE_HZ, 64))
            .expect("the deep pipeline explores")
    });
    assert!(exploration.best.feasible);
    // The deep pipeline split across a board of up to two 40-tile chips.
    let (board, board_explore) = counted(|| {
        explore_board(
            &graph,
            &framed(DEEP_PIPELINE_RATE_HZ, 40).with_board(BoardSearch::new(2)),
        )
        .expect("the deep pipeline boards")
    });
    assert_eq!(board.chip_count(), 2);
    // The DDC at its reference tiles with one 8-tile column lost.
    let ddc = reference_graph(Application::Ddc);
    let ddc_tiles = ApplicationProfile::of(Application::Ddc).reference_tiles();
    let (curve, degraded_explore) = counted(|| {
        explore_degraded(
            &ddc.graph,
            &framed(ddc.iteration_rate_hz, ddc_tiles),
            &[ResourceLoss::column("one 8-tile column lost", 8)],
        )
        .expect("the DDC degrades")
    });
    assert!(curve.points[0].feasible);

    // Measured: 114, 30, 401 and 88 allocations.  With a blueprint copy
    // of each column and a replica built on each fast execute: 126, 46,
    // 455 and 163; before the tables were shared and flat: 240, 106, 937
    // and 451.  Explorer: 180, 119 and 57 allocations; with a subgraph,
    // an arena and a search per chip of each ranked board split, the
    // board took 389; with every winner packaged on board splits and
    // degraded rungs, and each winner's groups rebuilt into fresh
    // vectors: 511, 969 and 300.  The full explore keeps its earlier
    // count as its budget: it packages every winner either way, and the
    // flat DP table must not add to it.
    let counts = [
        ("DDC compile", ddc_compile, 125),
        ("DDC fast execute", ddc_execute, 33),
        ("deep-pipeline board compile", board_compile, 441),
        ("deep-pipeline board fast execute", board_execute, 97),
        ("deep-pipeline 64-tile explore", chip_explore, 511),
        ("deep-pipeline 2-chip board explore", board_explore, 131),
        ("DDC degraded explore", degraded_explore, 63),
    ];
    // `--nocapture` shows the counts, for re-measuring a budget.
    for (what, count, budget) in counts {
        println!("{what}: {count} allocations (budget {budget})");
    }
    for (what, count, budget) in counts {
        assert!(
            count <= budget,
            "{what} made {count} allocations, over its budget of {budget}"
        );
    }
}
