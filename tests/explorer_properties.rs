//! Property-based tests of the automatic mapping / design-space
//! exploration engine: every solution respects the tile budget, agrees
//! with `Mapping::requirements` at the target rate, stays inside the VF
//! envelope when flagged feasible, and the Pareto frontier is actually
//! non-dominated; plus the pinned regression that auto-mapping the DDC
//! and the 802.11a receiver reproduces the paper's Table 4 frequencies.

use proptest::prelude::*;
use synchro_power::{Technology, VfCurve};
use synchro_sdf::SdfGraph;
use synchroscalar::explorer::{dominates, evaluate_mapping, explore, ExplorerConfig};
use synchroscalar::mapper;

/// Build a pipeline chain with the given per-actor costs and parallelism
/// caps (1:1 edges).
fn chain(cycles: &[u64], caps: &[u32]) -> SdfGraph {
    let mut graph = SdfGraph::new();
    let mut prev = None;
    for (i, (&c, &cap)) in cycles.iter().zip(caps).enumerate() {
        let actor = graph.add_actor(format!("a{i}"), c, cap);
        if let Some(p) = prev {
            graph.add_edge(p, actor, 1, 1, 0).unwrap();
        }
        prev = Some(actor);
    }
    graph
}

const CAP_CHOICES: [u32; 6] = [1, 2, 4, 8, 16, 32];

proptest! {
    /// Every solution on the curve respects the budget, round-trips
    /// through `Mapping::requirements`, and feasible solutions stay
    /// inside the VF envelope.
    #[test]
    fn solutions_respect_budget_requirements_and_envelope(
        cycles in prop::collection::vec(1u64..500, 2..6),
        cap_picks in prop::collection::vec(0usize..6, 2..6),
        budget in 4u32..40,
    ) {
        let n = cycles.len().min(cap_picks.len());
        let caps: Vec<u32> = cap_picks[..n].iter().map(|&i| CAP_CHOICES[i]).collect();
        let graph = chain(&cycles[..n], &caps);
        let rate = 1e6;
        let tech = Technology::isca2004();
        let curve_model = VfCurve::fo4_20(&tech);
        let config = ExplorerConfig::new(rate, budget);
        let exploration = explore(&graph, &config).unwrap();

        prop_assert!(exploration.best.total_tiles <= budget);
        for solution in &exploration.curve {
            prop_assert!(solution.total_tiles <= budget);
            prop_assert_eq!(
                solution.allocation().iter().sum::<u32>(),
                solution.total_tiles
            );
            // Realized mappings are well-formed and reproduce the
            // solution's frequencies at the target rate.
            let (realized, mapping) = solution.realize(&graph).unwrap();
            prop_assert!(mapping.validate(&realized).is_empty());
            let requirements = mapping.requirements(&realized, rate).unwrap();
            for (req, col) in requirements.iter().zip(&solution.columns) {
                let tolerance = 1e-9 * col.frequency_mhz.max(1.0);
                prop_assert!((req.frequency_mhz - col.frequency_mhz).abs() <= tolerance);
            }
            // The search prices each point from its stored interval
            // evaluations; an independent re-evaluation of the realized
            // mapping agrees bit for bit.
            let evaluated = evaluate_mapping(&realized, &mapping, &config).unwrap();
            prop_assert_eq!(evaluated.power_mw.to_bits(), solution.power_mw.to_bits());
            prop_assert_eq!(evaluated.feasible, solution.feasible);
            // Feasible solutions fit the supply envelope and their
            // voltage actually sustains the required frequency.
            for col in &solution.columns {
                if solution.feasible {
                    prop_assert!(col.within_envelope);
                    prop_assert!(col.voltage <= tech.max_voltage + 1e-9);
                }
                prop_assert!(
                    curve_model.interpolate(col.voltage) + 1e-6 >= col.frequency_mhz
                );
            }
        }
        // The best feasible solution is no worse than any feasible curve
        // point.
        if exploration.best.feasible {
            for solution in exploration.curve.iter().filter(|s| s.feasible) {
                prop_assert!(exploration.best.power_mw <= solution.power_mw + 1e-9);
            }
        }
    }

    /// The frontier is mutually non-dominated and no curve point
    /// dominates a frontier point.
    #[test]
    fn frontier_is_non_dominated(
        cycles in prop::collection::vec(1u64..2_000, 2..7),
        cap_picks in prop::collection::vec(0usize..6, 2..7),
        budget in 4u32..48,
    ) {
        let n = cycles.len().min(cap_picks.len());
        let caps: Vec<u32> = cap_picks[..n].iter().map(|&i| CAP_CHOICES[i]).collect();
        let graph = chain(&cycles[..n], &caps);
        let exploration = explore(&graph, &ExplorerConfig::new(1e6, budget)).unwrap();

        prop_assert!(!exploration.frontier.is_empty());
        for (i, a) in exploration.frontier.iter().enumerate() {
            for (j, b) in exploration.frontier.iter().enumerate() {
                if i != j {
                    prop_assert!(
                        !dominates(b.total_tiles, b.power_mw, a.total_tiles, a.power_mw),
                        "frontier point {j} dominates frontier point {i}"
                    );
                }
            }
            // The frontier covers achievable designs: no curve point of
            // the same feasibility class may dominate a frontier point.
            for b in exploration.curve.iter().filter(|s| s.feasible == a.feasible) {
                prop_assert!(
                    !dominates(b.total_tiles, b.power_mw, a.total_tiles, a.power_mw),
                    "curve point dominates a frontier point"
                );
            }
        }
    }
}

/// Pinned regression: auto-mapping the DDC at the Table 4 tile budget
/// reproduces the published per-column frequencies exactly and costs no
/// more than the hand-built mapping.
#[test]
fn auto_mapping_ddc_reproduces_table4() {
    let (graph, reference_mapping, rate) = mapper::ddc_reference();
    let config = ExplorerConfig::new(rate, 50).single_actor_columns();
    let exploration = explore(&graph, &config).unwrap();
    let winner = exploration
        .solution_for_tiles(50)
        .expect("50 tiles reachable");
    assert_eq!(winner.allocation(), vec![8, 8, 2, 16, 16]);
    for (freq, expected) in winner
        .frequencies_mhz()
        .iter()
        .zip([120.0, 200.0, 40.0, 380.0, 370.0])
    {
        assert!(
            (freq - expected).abs() < 1e-9,
            "{freq} MHz vs Table 4 {expected} MHz"
        );
    }
    let reference = evaluate_mapping(&graph, &reference_mapping, &config).unwrap();
    assert!(exploration.best.power_mw <= reference.power_mw + 1e-9);
}

/// Pinned regression: auto-mapping the 802.11a receiver at the Table 4
/// tile budget reproduces the published per-column frequencies exactly.
#[test]
fn auto_mapping_wifi_reproduces_table4() {
    let (graph, reference_mapping, rate) = mapper::wifi_reference();
    let config = ExplorerConfig::new(rate, 20).single_actor_columns();
    let exploration = explore(&graph, &config).unwrap();
    let winner = exploration
        .solution_for_tiles(20)
        .expect("20 tiles reachable");
    assert_eq!(winner.allocation(), vec![2, 1, 16, 1]);
    for (freq, expected) in winner
        .frequencies_mhz()
        .iter()
        .zip([90.0, 60.0, 540.0, 330.0])
    {
        assert!(
            (freq - expected).abs() < 1e-9,
            "{freq} MHz vs Table 4 {expected} MHz"
        );
    }
    let reference = evaluate_mapping(&graph, &reference_mapping, &config).unwrap();
    assert!(exploration.best.power_mw <= reference.power_mw + 1e-9);
}
