//! Allocation budget of compiling a mapping and running it on the fast
//! tier.
//!
//! A counting global allocator tallies every allocation this test binary
//! makes.  The binary holds a single test, so nothing else allocates while
//! it measures.  The budgets are the counts measured when the fast tier
//! became firing jumps in the interpreter's run loop, plus about 10 %: a
//! change that copies a column's DOU table or program again, builds its
//! segment configuration one split at a time, or builds a second column to
//! run the fast tier on, spends more than that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use synchroscalar::apps::{deep_pipeline, DEEP_PIPELINE_RATE_HZ};
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

    // Measured: 114, 30, 401 and 88 allocations.  With a blueprint copy
    // of each column and a replica built on each fast execute: 126, 46,
    // 455 and 163; before the tables were shared and flat: 240, 106, 937
    // and 451.
    let counts = [
        ("DDC compile", ddc_compile, 125),
        ("DDC fast execute", ddc_execute, 33),
        ("deep-pipeline board compile", board_compile, 441),
        ("deep-pipeline board fast execute", board_execute, 97),
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
