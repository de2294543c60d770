//! A Synchroscalar fleet, end to end: partition one SDF graph across a
//! board of chips, bridge-route the inter-chip traffic and simulate the
//! whole board in shared reference time.
//!
//! 1. the 24-stage deep pipeline moves 46 words per iteration — the
//!    reference chip's 25-slot TDM frame rejects every single-chip
//!    mapping,
//! 2. the board explorer shards the graph across chips (the cheapest
//!    contiguous split at the fewest chips that admit one, every chip
//!    priced by one prefix DP over the whole graph), settling on two
//!    chips with one 2-word bridge crossing,
//! 3. the board compiles: one chip + bus program per partition plus a
//!    conflict-free TDM schedule for the chip-to-chip bridge lanes,
//! 4. the simulated board executes with the bridge transfers replayed in
//!    reference time, and the bridge traffic is priced into the power
//!    budget.
//!
//! Run with `cargo run --release --example board_mapping`.

use synchroscalar::apps::{deep_pipeline, DEEP_PIPELINE_RATE_HZ};
use synchroscalar::explorer::{explore, explore_board, BoardSearch, CommSpec, ExplorerConfig};
use synchroscalar::mapper::{self, BoardConfig, MapperOptions};
use synchroscalar::power::{InterconnectModel, SlotActivity, Technology};

fn main() {
    let graph = deep_pipeline();
    let rate = DEEP_PIPELINE_RATE_HZ;
    let options = MapperOptions {
        iterations: 8,
        iteration_rate_hz: rate,
        ..MapperOptions::default()
    };

    // 1. One chip is not enough: the tile/power search succeeds, the
    //    router refuses the traffic.
    let single = explore(
        &graph,
        &ExplorerConfig::new(rate, 64).single_actor_columns(),
    )
    .expect("the tile search itself succeeds");
    let (realized, flat) = single.best.realize(&graph).expect("winners realize");
    match mapper::compile(&realized, &flat, &options) {
        Err(error) => println!("One chip rejects the 24-stage pipeline: {error}"),
        Ok(_) => unreachable!("46 words cannot fit a 25-slot frame"),
    }

    // 2. Shard across a board instead: up to 4 chips, the cheapest split
    //    at the fewest chips that admit a feasible one.
    let comm = CommSpec::from_clock(1, options.bus_frequency_hz, rate);
    let config = ExplorerConfig::new(rate, 40)
        .single_actor_columns()
        .with_comm(comm)
        .with_board(BoardSearch::new(4));
    let board = explore_board(&graph, &config).expect("two chips suffice");
    println!(
        "\nBoard exploration: {} chip(s), {} bridge word(s)/iteration, {} split(s) tried",
        board.chip_count(),
        board.bridge_words_per_iteration,
        board.splits_tried
    );
    for (chip, part) in board.chips.iter().enumerate() {
        println!(
            "  chip {chip}: actors {:>2}..{:<2}  {} tiles, {:.1} mW",
            part.start, part.end, part.solution.total_tiles, part.solution.power_mw
        );
    }

    // 3. Compile the chip-qualified mapping into a runnable board.
    let mapping = board.mapping();
    let board_config = BoardConfig::default();
    let mut compiled = mapper::compile_board(&graph, &mapping, &options, &board_config)
        .expect("the partition compiles");
    let bridge = compiled.route().bridge().clone();
    bridge
        .validate()
        .expect("bridge schedules are conflict-free");
    println!(
        "\nBridge TDM frame: {} cycles, {} occupied / {} idle slots ({:.0}% utilised)",
        bridge.period(),
        bridge.occupied_slots(),
        bridge.idle_slots(),
        bridge.utilization() * 100.0
    );

    // 4. Execute and price the inter-chip traffic.
    let report = compiled.execute().expect("compiled boards drain");
    println!(
        "Executed {} iterations: {} bridge words (analytic prediction {}), firings exact: {}",
        compiled.iterations(),
        report.bridge_words,
        report.predicted_bridge_words,
        report.firings_exact()
    );
    assert_eq!(report.bridge_words, report.predicted_bridge_words);
    let tech = Technology::isca2004();
    let model = InterconnectModel::new(&tech);
    let slots = SlotActivity::per_iteration(bridge.occupied_slots(), bridge.idle_slots(), rate);
    let bridge_mw = model.power_mw_bridge_slots(compiled.bridge_energy_pj_per_word(), &slots);
    println!(
        "Power: {:.1} mW compute across the board + {:.3} mW bridge I/O",
        board.total_power_mw(),
        bridge_mw
    );
}
