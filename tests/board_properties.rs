//! Property and end-to-end suite for the multi-chip board path.
//!
//! Properties: chip-to-chip bridge transport conserves tokens (simulated
//! bridge words match the analytic per-iteration flows, lane for lane),
//! compiled bridge schedules replay conflict-free, and a board of one
//! chip is bit-identical to the legacy single-chip pipeline, faulted runs
//! and pricing included.  A pinned regression checks that explored
//! boards fit every chip's TDM frame, and every feasible board answer of
//! the deep pipeline, healthy or degraded, compiles and runs.
//!
//! The pinned end-to-end scenario is the issue's tentpole: the 24-stage
//! deep pipeline is rejected on one chip (46 cross words against the
//! reference 25-slot TDM frame) but partitions feasibly across 2–4
//! chips, executes bit-identically on both tiers, and reports priced
//! bridge occupancy.

use proptest::prelude::*;
use synchroscalar::apps::{deep_pipeline, DEEP_PIPELINE_RATE_HZ};
use synchroscalar::experiments;
use synchroscalar::explorer::{explore, explore_board, BoardSearch, CommSpec, ExplorerConfig};
use synchroscalar::mapper::{
    self, BoardConfig, ExecutionTier, FaultedRun, MapperError, MapperOptions,
};
use synchroscalar::power::Technology;
use synchroscalar::router::RouteError;
use synchroscalar::sdf::{Mapping, SdfGraph};
use synchroscalar::sim::FaultPlan;

const RATE_CHOICES: [(u64, u64); 4] = [(1, 1), (1, 2), (2, 1), (2, 2)];

/// A rate-consistent chain of `cycles.len()` actors, placed across
/// `chips` board chips in contiguous runs.
fn split_chain(
    cycles: &[u64],
    caps: &[u32],
    rates: &[(u64, u64)],
    splits: &[usize],
) -> (SdfGraph, Mapping) {
    let mut graph = SdfGraph::new();
    let mut mapping = Mapping::new();
    let mut prev = None;
    for (i, (&c, &cap)) in cycles.iter().zip(caps).enumerate() {
        let actor = graph.add_actor(format!("a{i}"), c, cap);
        if let Some(p) = prev {
            let (produce, consume) = rates[i - 1];
            graph.add_edge(p, actor, produce, consume, 0).unwrap();
        }
        let chip = splits.iter().filter(|&&s| i >= s).count();
        mapping.place_on_chip(chip, actor, cap, 1.0);
        prev = Some(actor);
    }
    (graph, mapping)
}

proptest! {
    /// Every word a producing chip emits arrives at the consuming chip:
    /// the simulated bridge traffic equals the analytic per-iteration
    /// flows scaled by the iteration count, lane totals sum to the whole,
    /// every chip fires exactly per the repetition vector, and the
    /// compiled bridge/bus schedules replay conflict-free.
    #[test]
    fn bridge_transport_conserves_tokens_and_stays_conflict_free(
        cycles in prop::collection::vec(1u64..60, 3..6),
        cap_picks in prop::collection::vec(0usize..3, 3..6),
        rate_picks in prop::collection::vec(0usize..4, 2..5),
        iterations in 1u64..5,
        split_a in 1usize..3,
        split_b in 0usize..4,
    ) {
        let n = cycles.len().min(cap_picks.len()).min(rate_picks.len() + 1);
        let caps: Vec<u32> = cap_picks[..n].iter().map(|&i| [1u32, 2, 4][i]).collect();
        let rates: Vec<(u64, u64)> =
            rate_picks[..n - 1].iter().map(|&i| RATE_CHOICES[i]).collect();
        // One or two cut points inside the chain → boards of 2 or 3 chips.
        let split_a = split_a.min(n - 1);
        let mut splits = vec![split_a];
        if split_b > split_a && split_b < n {
            splits.push(split_b);
        }
        let (graph, mapping) = split_chain(&cycles[..n], &caps, &rates, &splits);
        prop_assume!(mapping.validate(&graph).is_empty());
        let options = MapperOptions {
            iterations,
            tier: ExecutionTier::Fast,
            ..MapperOptions::default()
        };
        let mut compiled =
            match mapper::compile_board(&graph, &mapping, &options, &BoardConfig::default()) {
                Ok(c) => c,
                // Rejections (e.g. oversubscribed frames at extreme rates)
                // are covered by the equivalence suite; conservation is a
                // property of accepted boards.
                Err(_) => return Ok(()),
            };
        prop_assert!(compiled.route().bridge().validate().is_ok());
        for chip_route in compiled.route().chips() {
            prop_assert!(chip_route.validate().is_ok());
        }
        let report = match compiled.execute() {
            Ok(r) => r,
            Err(_) => return Ok(()),
        };
        prop_assert!(report.firings_exact());
        prop_assert_eq!(report.bridge_words, report.predicted_bridge_words);
        prop_assert_eq!(
            report.lane_words.iter().sum::<u64>(),
            report.bridge_words,
            "lane totals must cover the whole bridge traffic"
        );
        prop_assert!(report.occupied_bridge_slots <= report.scheduled_bridge_slots);
        // Default lanes move one word per cycle, so occupied cycles and
        // words coincide.
        prop_assert_eq!(report.occupied_bridge_slots, report.bridge_words);
    }

    /// A mapping placed entirely on chip 0 must behave identically
    /// whether compiled through the legacy single-chip entry point or as
    /// a board of one: same execution report, same chip statistics, the
    /// same faulted run under a column kill, and the same pricing
    /// context.
    #[test]
    fn single_chip_board_matches_the_legacy_path_bit_for_bit(
        cycles in prop::collection::vec(1u64..60, 2..5),
        cap_picks in prop::collection::vec(0usize..3, 2..5),
        rate_picks in prop::collection::vec(0usize..4, 1..4),
        iterations in 1u64..5,
        fast in any::<bool>(),
        victim in 0usize..4,
        kill_tick in 0u64..500,
    ) {
        let n = cycles.len().min(cap_picks.len()).min(rate_picks.len() + 1);
        let caps: Vec<u32> = cap_picks[..n].iter().map(|&i| [1u32, 2, 4][i]).collect();
        let rates: Vec<(u64, u64)> =
            rate_picks[..n - 1].iter().map(|&i| RATE_CHOICES[i]).collect();
        let (graph, mapping) = split_chain(&cycles[..n], &caps, &rates, &[]);
        prop_assume!(mapping.validate(&graph).is_empty());
        let options = MapperOptions {
            iterations,
            tier: if fast { ExecutionTier::Fast } else { ExecutionTier::Interpreted },
            ..MapperOptions::default()
        };
        let legacy = mapper::compile(&graph, &mapping, &options);
        let board = mapper::compile_board(&graph, &mapping, &options, &BoardConfig::default());
        let (mut legacy, mut board) = match (legacy, board) {
            (Ok(l), Ok(b)) => (l, b),
            (l, b) => {
                prop_assert_eq!(format!("{:?}", l.err()), format!("{:?}", b.err()));
                return Ok(());
            }
        };
        prop_assert_eq!(board.chips(), 1);
        let tech = Technology::isca2004();
        prop_assert_eq!(
            format!("{:?}", legacy.price_spec(&tech)),
            format!("{:?}", board.price_spec(&tech))
        );
        match (legacy.execute(), board.execute()) {
            (Ok(chip_report), Ok(board_report)) => {
                prop_assert_eq!(board_report.chips.len(), 1);
                prop_assert_eq!(&board_report.chips[0], &chip_report);
                prop_assert_eq!(board_report.bridge_words, 0);
                prop_assert_eq!(board_report.scheduled_bridge_slots, 0);
                prop_assert_eq!(legacy.chip().stats(), board.board().chip(0).unwrap().stats());
                prop_assert_eq!(
                    legacy.chip().column_stats(),
                    board.board().chip(0).unwrap().column_stats()
                );
                prop_assert_eq!(
                    legacy.chip().horizontal_stats(),
                    board.board().chip(0).unwrap().horizontal_stats()
                );
            }
            (l, b) => {
                prop_assert_eq!(format!("{:?}", l.err()), format!("{:?}", b.err()));
            }
        }

        let mut plan = FaultPlan::none();
        plan.kill_column(0, victim % n, kill_tick);
        let mut legacy = mapper::compile(&graph, &mapping, &options).unwrap();
        let mut board =
            mapper::compile_board(&graph, &mapping, &options, &BoardConfig::default()).unwrap();
        let chip_run = legacy.execute_faulted(&plan);
        let board_run = board.execute_faulted(&plan).map(|run| FaultedRun {
            report: run.report.chips[0].clone(),
            fault: run.fault,
        });
        prop_assert_eq!(format!("{chip_run:?}"), format!("{board_run:?}"));
        prop_assert_eq!(legacy.chip().stats(), board.board().chip(0).unwrap().stats());
    }
}

/// The tentpole, pinned end to end: one chip cannot carry the 24-stage
/// deep pipeline's traffic, a 2-chip partition (found inside a 4-chip
/// allowance) can, both execution tiers agree bit for bit on the board,
/// and the bridge's occupancy and priced power land in the experiments
/// table.
#[test]
fn deep_pipeline_is_rejected_on_one_chip_but_boards_feasibly() {
    let graph = deep_pipeline();
    let rate = DEEP_PIPELINE_RATE_HZ;
    let options = MapperOptions {
        iterations: 4,
        iteration_rate_hz: rate,
        ..MapperOptions::default()
    };

    // 1. Single chip: the tile search succeeds, the router refuses — 46
    //    cross words cannot fit the reference 25-slot frame.
    let single = explore(
        &graph,
        &ExplorerConfig::new(rate, 64).single_actor_columns(),
    )
    .expect("the tile/power search itself succeeds");
    let (realized, flat) = single.best.realize(&graph).expect("winners realize");
    let err = mapper::compile(&realized, &flat, &options).unwrap_err();
    assert!(
        matches!(
            err,
            MapperError::Route(RouteError::PeriodOverflow {
                demand: 46,
                capacity: 25
            })
        ),
        "{err}"
    );

    // 2. Board exploration: chip counts are searched ascending, so the
    //    4-chip allowance settles on the cheapest feasible board — two
    //    chips with one 2-word bridge crossing.
    let comm = CommSpec::from_clock(1, options.bus_frequency_hz, rate);
    let config = ExplorerConfig::new(rate, 40)
        .single_actor_columns()
        .with_comm(comm)
        .with_board(BoardSearch::new(4));
    let board = explore_board(&graph, &config).expect("2 chips suffice");
    assert_eq!(board.chip_count(), 2);
    assert_eq!(board.bridge_words_per_iteration, 2);
    assert_eq!(
        (board.chips[0].start, board.chips[0].end, board.chips[1].end),
        (0, 12, 24),
        "the balanced middle split wins"
    );
    let mapping = board.mapping();
    assert!(mapping.validate_on_board(&graph, 2).is_empty());
    assert_eq!(mapping.placements().len(), 24);

    // 3. Both tiers execute the partition bit-identically.
    let compile_on = |tier| {
        let options = MapperOptions {
            tier,
            ..options.clone()
        };
        mapper::compile_board(&graph, &mapping, &options, &BoardConfig::default())
            .expect("the partition compiles")
    };
    let mut interpreted = compile_on(ExecutionTier::Interpreted);
    let mut fast = compile_on(ExecutionTier::Fast);
    let a = interpreted.execute().unwrap();
    let b = fast.execute().unwrap();
    assert_eq!(a, b, "tiers diverge on the board");
    for chip in 0..2 {
        assert_eq!(
            interpreted.board().chip(chip).unwrap().stats(),
            fast.board().chip(chip).unwrap().stats()
        );
    }
    assert!(a.firings_exact());
    assert_eq!(a.bridge_words, 2 * 4, "2 words/iteration × 4 iterations");
    assert_eq!(a.bridge_words, a.predicted_bridge_words);
    assert!(a.occupied_bridge_slots >= a.bridge_words);

    // 4. The experiments table reports the same story with the bridge
    //    traffic priced.
    let rows = experiments::board_summary(&Technology::isca2004());
    assert!(rows[0].rejection.is_some());
    let feasible: Vec<_> = rows.iter().filter(|r| r.rejection.is_none()).collect();
    assert!(!feasible.is_empty());
    for row in feasible {
        assert_eq!(row.chips, 2);
        assert!(row.bridge_power_mw > 0.0);
        assert!(row.bridge_utilization > 0.0);
    }
}

/// A 12-actor chain of 29-cycle actors with 16-tile caps and `k:k`
/// edges, except `k:2k` into actors 6 and 9: actors 0–5 fire 4 times per
/// iteration, 6–8 twice and 9–11 once.  A chip holding a range whose
/// repetition counts share a factor `g > 1` iterates `g` times per board
/// iteration.
fn decimating_chain(k: u64) -> SdfGraph {
    let mut graph = SdfGraph::new();
    let mut prev = None;
    for i in 0..12 {
        let actor = graph.add_actor(format!("a{i}"), 29, 16);
        if let Some(p) = prev {
            let consume = if i == 6 || i == 9 { 2 * k } else { k };
            graph.add_edge(p, actor, k, consume, 0).unwrap();
        }
        prev = Some(actor);
    }
    graph
}

/// The board explorer must check each chip's cross words against the
/// frame of one chip iteration, as the router does: a chip whose range
/// iterates `g > 1` times per board iteration and is checked against the
/// board's frame is admitted at `g` times its capacity, and
/// `compile_board` rejects the answer (48, 96 and 192 words against 25,
/// 50 and 100 slots here).
#[test]
fn explored_boards_fit_every_chips_frame() {
    for (k, rate) in [(2u64, 16e6), (4, 8e6), (8, 4e6)] {
        let graph = decimating_chain(k);
        let explore_with = |search: BoardSearch| {
            let config = ExplorerConfig::new(rate, 64)
                .single_actor_columns()
                .with_comm(CommSpec::from_clock(1, 400e6, rate))
                .with_board(search);
            explore_board(&graph, &config)
        };
        let compiles_and_runs = |mapping: &Mapping| {
            let options = MapperOptions {
                iterations: 2,
                iteration_rate_hz: rate,
                ..MapperOptions::default()
            };
            let mut compiled =
                mapper::compile_board(&graph, mapping, &options, &BoardConfig::default())
                    .unwrap_or_else(|e| panic!("k = {k}: the explored board must compile: {e}"));
            assert!(compiled.execute().unwrap().firings_exact(), "k = {k}");
        };
        let board = explore_with(BoardSearch::new(4))
            .unwrap_or_else(|e| panic!("k = {k}: the board search finds a board: {e}"));
        let ranges: Vec<(usize, usize)> = board.chips.iter().map(|c| (c.start, c.end)).collect();
        assert_eq!(ranges, [(0, 3), (3, 7), (7, 12)], "k = {k}");
        compiles_and_runs(&board.mapping());
    }
}

/// Every feasible board answer compiles under the mapper's default bus
/// and bridge and runs with exact firings: the deep pipeline at budgets 40
/// and 64 on up to 2, 3 and 4 chips, and the three degraded boards that
/// perfbench's `fault_recovery` re-explores — a 2- and a 4-tile column
/// loss at full rate (every chip's budget shrinks), and the severed
/// bridge at half rate (its frame twice as long, no cut allowed).
#[test]
fn explored_board_answers_compile_and_run() {
    let graph = deep_pipeline();
    let defaults = MapperOptions::default();
    let comm = CommSpec::from_clock(
        defaults.bus_splits as u32,
        defaults.bus_frequency_hz,
        DEEP_PIPELINE_RATE_HZ,
    );
    let compiles_and_runs = |rate: f64, budget: u32, comm: CommSpec, search: BoardSearch| {
        let config = ExplorerConfig::new(rate, budget)
            .single_actor_columns()
            .with_comm(comm)
            .with_board(search);
        let board = explore_board(&graph, &config)
            .unwrap_or_else(|e| panic!("{budget} tiles, {search:?}: {e}"));
        let options = MapperOptions {
            iterations: 2,
            iteration_rate_hz: rate,
            ..MapperOptions::default()
        };
        let mut compiled =
            mapper::compile_board(&graph, &board.mapping(), &options, &BoardConfig::default())
                .unwrap_or_else(|e| panic!("{budget} tiles, {search:?}: must compile: {e}"));
        assert!(compiled.execute().unwrap().firings_exact(), "{search:?}");
        board.chip_count()
    };
    for budget in [40, 64] {
        for max_chips in 2..=4 {
            let chips = compiles_and_runs(
                DEEP_PIPELINE_RATE_HZ,
                budget,
                comm,
                BoardSearch::new(max_chips),
            );
            assert_eq!(chips, 2, "{budget} tiles on up to {max_chips} chips");
        }
    }
    for tiles_lost in [2, 4] {
        compiles_and_runs(
            DEEP_PIPELINE_RATE_HZ,
            40 - tiles_lost,
            comm,
            BoardSearch::new(2),
        );
    }
    let half_rate = CommSpec {
        period: comm.period * 2,
        ..comm
    };
    let severed = BoardSearch::new(2).with_bridge_capacity(0);
    let chips = compiles_and_runs(DEEP_PIPELINE_RATE_HZ / 2.0, 40, half_rate, severed);
    assert_eq!(chips, 1, "a severed bridge leaves one chip");
}
