//! Automatic mapping walkthrough: graph in → Pareto frontier + validated
//! chip out.
//!
//! Where `sdf_to_chip` compiles the paper's *hand-built* DDC mapping,
//! this example lets the `synchroscalar::explorer` derive the mapping
//! itself: it searches tile allocations (and, in a second pass, actor
//! fusion) for the minimum-power configuration at 64 MS/s, prints the
//! power-vs-tiles Pareto frontier, and then compiles, executes and
//! cross-validates the winner on the cycle-accurate simulator.
//!
//! Run with: `cargo run --example auto_mapping`

use synchro_apps::{Application, ApplicationProfile};
use synchro_power::Technology;
use synchroscalar::explorer::{evaluate_mapping, explore, ExplorerConfig};
use synchroscalar::mapper::{self, MapperOptions};
use synchroscalar::pipeline::{try_evaluate_application, EvaluationOptions};

fn main() {
    // 1. The application as a dataflow graph — no mapping supplied.
    let (graph, hand_mapping, rate) = mapper::ddc_reference();
    println!(
        "DDC as an SDF graph ({} actors) at {} M iterations/s; searching mappings under a 50-tile budget...\n",
        graph.actors().len(),
        rate / 1e6
    );

    // 2. Search one-actor-per-column mappings (the paper's structure).
    let config = ExplorerConfig::new(rate, 50).single_actor_columns();
    let exploration = explore(&graph, &config).unwrap();
    println!(
        "Explored {} candidate mappings across {} groupings in {:.0} µs.",
        exploration.stats.mappings_evaluated,
        exploration.stats.groupings_examined,
        exploration.stats.elapsed_seconds * 1e6
    );

    println!("\nPower-vs-tiles Pareto frontier (Figure 8-style):");
    println!(
        "  {:>5} {:>10} {:>9}  allocation",
        "tiles", "power mW", "area mm2"
    );
    for solution in &exploration.frontier {
        println!(
            "  {:>5} {:>10.1} {:>9.1}  {:?}{}",
            solution.total_tiles,
            solution.power_mw,
            solution.area_mm2(),
            solution.allocation(),
            if solution.feasible {
                ""
            } else {
                "  (infeasible)"
            }
        );
    }

    // 3. At the paper's 50-tile budget the search rediscovers Table 4.
    let winner = exploration.solution_for_tiles(50).unwrap();
    let reference = evaluate_mapping(&graph, &hand_mapping, &config).unwrap();
    println!("\nAt the Table 4 budget (50 tiles) the explorer derives:");
    println!("  {:<16} {:>5} {:>8} {:>6}", "column", "tiles", "MHz", "V");
    for col in &winner.columns {
        println!(
            "  {:<16} {:>5} {:>8.0} {:>6.1}",
            col.name(&graph),
            col.tiles,
            col.frequency_mhz,
            col.voltage
        );
    }
    println!(
        "  auto-derived power {:.1} mW vs hand-built reference {:.1} mW",
        winner.power_mw, reference.power_mw
    );

    // 4. Compile and execute the winner, cross-validating against the
    //    analytic pipeline.
    let options = MapperOptions {
        iterations: 4,
        iteration_rate_hz: rate,
        ..MapperOptions::default()
    };
    let mut compiled = mapper::compile_explored(&graph, winner, &options).unwrap();
    let execution = compiled.execute().unwrap();
    let report = try_evaluate_application(
        &ApplicationProfile::of(Application::Ddc),
        &Technology::isca2004(),
        &EvaluationOptions::default(),
    )
    .unwrap();
    let validation = mapper::cross_validate(&compiled, &execution, &report);
    println!(
        "\nWinner executed on the simulated chip: firings exact: {}, bus traffic error {:.2}%, agrees with the analytic report: {}",
        validation.firings_exact,
        validation.bus_traffic_error * 100.0,
        validation.agrees_within(1e-6)
    );
    assert!(validation.agrees_within(1e-6));

    // 5. Second pass: allow actor fusion and beat the paper.
    let fused = explore(&graph, &ExplorerConfig::new(rate, 50)).unwrap();
    println!("\nAllowing actor→column fusion, the search finds a cheaper chip:");
    for col in &fused.best.columns {
        println!(
            "  {:<28} {:>5} tiles {:>8.0} MHz {:>6.1} V",
            col.name(&graph),
            col.tiles,
            col.frequency_mhz,
            col.voltage
        );
    }
    println!(
        "  fused power {:.1} mW ({:.1}% below the hand-built mapping)",
        fused.best.power_mw,
        (1.0 - fused.best.power_mw / reference.power_mw) * 100.0
    );
    let mut fused_chip = mapper::compile_explored(&graph, &fused.best, &options).unwrap();
    let fused_run = fused_chip.execute().unwrap();
    assert!(fused_run.firings_exact());
    println!("  fused winner also executes with exact firing rates on the simulator.");
}
