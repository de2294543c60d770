//! Automatic mapping & design-space exploration cross-validation.
//!
//! Part 1 runs the full graph → auto-map → chip flow for every paper
//! application at its Table 4 tile budget and checks, end to end, that
//! the explorer rediscovers the published operating points and that the
//! winners execute and cross-validate on the cycle-accurate simulator.
//!
//! Part 2 measures time to answer: the wall time of one `explore` call
//! (graph analysis, interval arena, prefix DP and realization) over a
//! workload matrix of 10–48-stage pipelines × 64/128/256-tile budgets ×
//! both voltage policies.  Each cell records the min and median over
//! [`RUNS`] calls, the mappings evaluated, and the answer (curve and
//! frontier lengths, best power) in `BENCH_explorer.json`.  Pass
//! `--quick` to shrink the matrix to one tiny workload so CI can smoke
//! the JSON-emitting path without timing noise; a quick run prints its
//! record and leaves `BENCH_explorer.json` alone.

use std::time::Instant;

use bench::{rule, synthetic_pipeline};
use synchro_power::Technology;
use synchroscalar::experiments::auto_mapping_summary;
use synchroscalar::explorer::{
    explore, explore_bus_widths, CommSpec, ExplorerConfig, ExplorerError, TileCandidates,
    VoltagePolicy,
};

/// Timed `explore` calls per matrix cell.
const RUNS: usize = 7;

struct MatrixRow {
    stages: usize,
    budget: u32,
    policy_name: &'static str,
    /// Fastest and median wall time of one `explore` call (ms).
    min_ms: f64,
    median_ms: f64,
    mappings: u64,
    curve_len: usize,
    frontier_len: usize,
    best_power_mw: f64,
}

fn policy_name(policy: VoltagePolicy) -> &'static str {
    match policy {
        VoltagePolicy::PerColumn => "per-column",
        VoltagePolicy::SingleVoltage => "single-voltage",
    }
}

fn measure_row(stages: usize, budget: u32, policy: VoltagePolicy) -> MatrixRow {
    let graph = synthetic_pipeline(stages);
    let config = ExplorerConfig::new(1e6, budget)
        .with_candidates(TileCandidates::All)
        .with_voltage_policy(policy);
    let mut times = Vec::with_capacity(RUNS);
    let mut answer = None;
    for _ in 0..RUNS {
        let started = Instant::now();
        let exploration = explore(&graph, &config).expect("synthetic pipeline explores");
        times.push(started.elapsed().as_secs_f64() * 1e3);
        answer = Some(exploration);
    }
    times.sort_by(f64::total_cmp);
    let exploration = answer.expect("at least one run");
    MatrixRow {
        stages,
        budget,
        policy_name: policy_name(policy),
        min_ms: times[0],
        median_ms: times[RUNS / 2],
        mappings: exploration.stats.mappings_evaluated,
        curve_len: exploration.curve.len(),
        frontier_len: exploration.frontier.len(),
        best_power_mw: exploration.best.power_mw,
    }
}

/// One row of the bus-width sweep: re-explore a synthetic pipeline with
/// the communication-feasibility prune at each width, so narrow frames
/// reject the single-actor space and wider ones readmit it.
struct SweepRow {
    splits: u32,
    capacity: u64,
    feasible: bool,
    pruned: u64,
    best_power_mw: Option<f64>,
}

fn bus_width_sweep() -> Vec<SweepRow> {
    // 6 stages with 1:1 edges: the all-singleton grouping crosses 5
    // boundaries (5 words/iteration).  With a 3-cycle period, width 1
    // offers 3 slots (infeasible), width 2 offers 6 (feasible).
    let graph = synthetic_pipeline(6);
    let config = ExplorerConfig::new(1e6, 16)
        .with_candidates(TileCandidates::All)
        .single_actor_columns();
    explore_bus_widths(&graph, &config, CommSpec::new(1, 3), &[1, 2, 4])
        .into_iter()
        .map(|point| match point.outcome {
            Ok(exploration) => SweepRow {
                splits: point.comm.splits,
                capacity: point.comm.capacity(),
                feasible: true,
                pruned: exploration.stats.groupings_comm_pruned,
                best_power_mw: Some(exploration.best.power_mw),
            },
            Err(ExplorerError::CommInfeasible { pruned, .. }) => SweepRow {
                splits: point.comm.splits,
                capacity: point.comm.capacity(),
                feasible: false,
                pruned,
                best_power_mw: None,
            },
            Err(other) => panic!("unexpected sweep failure: {other}"),
        })
        .collect()
}

fn row_json(row: &MatrixRow) -> String {
    format!(
        concat!(
            "    {{\"stages\": {}, \"tile_budget\": {}, \"candidates\": \"all\", \"voltage_policy\": \"{}\", ",
            "\"explore_ms_min\": {:.4}, \"explore_ms_median\": {:.4}, \"mappings_evaluated\": {}, ",
            "\"curve_len\": {}, \"frontier_len\": {}, \"best_power_mw\": {:.6}}}"
        ),
        row.stages,
        row.budget,
        row.policy_name,
        row.min_ms,
        row.median_ms,
        row.mappings,
        row.curve_len,
        row.frontier_len,
        row.best_power_mw,
    )
}

fn sweep_json(row: &SweepRow) -> String {
    format!(
        "    {{\"splits\": {}, \"capacity\": {}, \"feasible\": {}, \"groupings_comm_pruned\": {}, \"best_power_mw\": {}}}",
        row.splits,
        row.capacity,
        row.feasible,
        row.pruned,
        row.best_power_mw
            .map_or("null".to_string(), |p| format!("{p:.3}")),
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    // Part 1 — the whole suite through graph → auto-map → chip.
    let rows = auto_mapping_summary(&Technology::isca2004());
    println!("Automatic mapping at the Table 4 tile budgets:");
    rule(96);
    println!(
        "{:<14} {:>5} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "Application", "Tiles", "Auto mW", "Ref mW", "Fused mW", "dF max %", "Validated"
    );
    rule(96);
    for row in &rows {
        println!(
            "{:<14} {:>5} {:>12.1} {:>12.1} {:>12.1} {:>12.4} {:>12}",
            row.application,
            row.tiles,
            row.auto_power_mw,
            row.reference_power_mw,
            row.fused_power_mw,
            row.max_frequency_error * 100.0,
            row.cross_validated
        );
    }
    rule(96);
    assert!(
        rows.iter().all(|r| r.cross_validated),
        "every auto-mapped application must cross-validate"
    );
    assert!(
        rows.iter().all(|r| r.max_frequency_error < 1e-9),
        "auto-mapped frequencies must match Table 4"
    );
    assert!(
        rows.iter()
            .all(|r| r.auto_power_mw <= r.reference_power_mw + 1e-9),
        "auto mappings must not cost more than the hand-built references"
    );

    // Part 2 — time to answer over the workload matrix.  Each cell
    // carries its voltage policy.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut matrix: Vec<(usize, u32, VoltagePolicy)> = Vec::new();
    let (stage_counts, budgets): (&[usize], &[u32]) = if quick {
        (&[6], &[16])
    } else {
        (&[10, 16, 24, 32, 48], &[64, 128, 256])
    };
    for &stages in stage_counts {
        for &budget in budgets {
            for policy in [VoltagePolicy::PerColumn, VoltagePolicy::SingleVoltage] {
                matrix.push((stages, budget, policy));
            }
        }
    }

    println!(
        "\nTime to answer ({} matrix, all tile candidates, min/median of {RUNS} explore calls):",
        if quick { "quick" } else { "full" }
    );
    rule(104);
    println!(
        "{:>6} {:>7} {:>15} {:>10} {:>10} {:>12} {:>6} {:>9} {:>12}",
        "Stages",
        "Budget",
        "Policy",
        "Min ms",
        "Median ms",
        "Mappings",
        "Curve",
        "Frontier",
        "Best mW"
    );
    rule(104);
    let mut measured = Vec::new();
    for (stages, budget, policy) in matrix {
        let row = measure_row(stages, budget, policy);
        println!(
            "{:>6} {:>7} {:>15} {:>10.3} {:>10.3} {:>12} {:>6} {:>9} {:>12.1}",
            row.stages,
            row.budget,
            row.policy_name,
            row.min_ms,
            row.median_ms,
            row.mappings,
            row.curve_len,
            row.frontier_len,
            row.best_power_mw
        );
        measured.push(row);
    }
    rule(104);

    // Part 3 — the bus-width sweep: the communication-feasibility prune
    // exercised across horizontal-bus widths (words per cycle).
    let sweep = bus_width_sweep();
    println!("\nBus-width sweep (6-stage pipeline, 3-cycle TDM period, single-actor columns):");
    rule(72);
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>14}",
        "Width", "Capacity", "Feasible", "Pruned", "Best mW"
    );
    rule(72);
    for row in &sweep {
        println!(
            "{:>6} {:>10} {:>10} {:>10} {:>14}",
            row.splits,
            row.capacity,
            row.feasible,
            row.pruned,
            row.best_power_mw
                .map_or("n/a".to_string(), |p| format!("{p:.1}")),
        );
    }
    rule(72);
    assert!(
        !sweep[0].feasible && sweep[0].pruned > 0,
        "the narrowest bus must exercise the feasibility prune"
    );
    assert!(
        sweep[1..].iter().all(|r| r.feasible),
        "wider buses must readmit the mapping"
    );

    let rows_json: Vec<String> = measured.iter().map(row_json).collect();
    let sweep_json_rows: Vec<String> = sweep.iter().map(sweep_json).collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"explorer\",\n",
            "  \"schema_version\": 3,\n",
            "  \"generated_at\": \"{}\",\n",
            "  \"quick\": {},\n",
            "  \"host_cores\": {},\n",
            "  \"runs_per_cell\": {},\n",
            "  \"metric\": \"wall time of one single-threaded explore call: graph analysis, interval arena, prefix DP and realization\",\n",
            "  \"workloads\": [\n",
            "{}\n",
            "  ],\n",
            "  \"bus_width_sweep\": [\n",
            "{}\n",
            "  ]\n",
            "}}\n"
        ),
        synchroscalar::trace::iso8601_utc_now(),
        quick,
        cores,
        RUNS,
        rows_json.join(",\n"),
        sweep_json_rows.join(",\n"),
    );
    if quick {
        // A quick run's one tiny workload is a smoke check, not a record:
        // print it and leave the committed record alone.
        println!("\nQuick run record (BENCH_explorer.json left unchanged):\n{json}");
    } else {
        std::fs::write("BENCH_explorer.json", &json).expect("write BENCH_explorer.json");
        println!("\nPerf record written to BENCH_explorer.json");
    }
}
