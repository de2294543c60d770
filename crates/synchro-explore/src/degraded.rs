//! Degraded-mode remapping: re-search the design space with failed
//! resources excluded, walking the iteration rate down a rational
//! ladder until a feasible mapping exists.
//!
//! Synchroscalar's static schedules have no runtime recovery path — a
//! dead column or severed bridge lane stalls the run (see
//! `synchroscalar::mapper`).  Recovery is therefore a *recompilation*
//! problem: shrink the resource envelope by what was lost and re-run
//! the explorer.  When the full iteration rate no longer fits, the
//! application degrades gracefully instead of failing outright: the
//! rate walks down [`RATE_LADDER`] — small rational fractions of the
//! full rate, so every re-rated column clock stays rationally related
//! to the reference clock and the chip's divider lattice (the paper's
//! rationally-related-clocks invariant survives degradation) — until a
//! feasible mapping appears.
//!
//! [`explore_degraded`] produces one [`DegradationCurve`] over a list
//! of [`ResourceLoss`]es for a single chip; [`explore_degraded_board`]
//! is the board-level analogue (per-chip tile losses and bridge
//! capacity losses, falling back to fewer chips when the partitioner
//! can).  Because the ladder is walked from the top, a full-rate remap
//! is found whenever one exists.

use crate::model::{check_inputs, Evaluator, GraphContext};
use crate::{
    explore_board, plan_search, run_search, search, BoardSearch, CommSpec, ExplorerConfig,
    ExplorerError, ExplorerSolution, SearchStats, Searched,
};
use synchro_sdf::SdfGraph;

/// The rational rate ladder degraded-mode re-exploration walks, from
/// full rate down.  Each entry is `(numerator, denominator)` of the
/// fraction of the original iteration rate attempted; small rationals
/// keep the re-rated clocks gcd-consistent with the reference clock's
/// divider lattice.
pub const RATE_LADDER: [(u64, u64); 9] = [
    (1, 1),
    (7, 8),
    (3, 4),
    (2, 3),
    (1, 2),
    (1, 3),
    (1, 4),
    (1, 6),
    (1, 8),
];

/// One unit of failed hardware to re-explore without: tiles (a dead
/// column's allocation), horizontal-bus splits (a dead bus wire), or —
/// on a board — bridge capacity (a severed or degraded lane).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceLoss {
    /// Human-readable description of the failure (e.g. `"column 3
    /// failed (16 tiles)"`) — carried into the curve point verbatim.
    pub label: String,
    /// Tiles removed from the budget (a failed column removes its whole
    /// allocation; on a board this shrinks *every* chip's budget, the
    /// conservative single-budget model [`explore_board`] searches
    /// under).
    pub tiles_lost: u32,
    /// Horizontal-bus splits removed from the communication frame
    /// (ignored when the configuration has no comm prune to enforce
    /// it against).
    pub splits_lost: u32,
    /// Board only: overriding cap on inter-chip words per iteration
    /// (`Some(0)` = bridge direction severed).  Ignored by the
    /// single-chip [`explore_degraded`].
    pub bridge_capacity: Option<u64>,
}

impl ResourceLoss {
    /// A failed column taking `tiles` tiles with it.
    pub fn column(label: impl Into<String>, tiles: u32) -> Self {
        ResourceLoss {
            label: label.into(),
            tiles_lost: tiles,
            splits_lost: 0,
            bridge_capacity: None,
        }
    }

    /// `splits` horizontal-bus splits lost.
    pub fn bus_splits(label: impl Into<String>, splits: u32) -> Self {
        ResourceLoss {
            label: label.into(),
            tiles_lost: 0,
            splits_lost: splits,
            bridge_capacity: None,
        }
    }

    /// Bridge capacity reduced to `remaining_words` words per iteration
    /// (0 = severed).
    pub fn bridge(label: impl Into<String>, remaining_words: u64) -> Self {
        ResourceLoss {
            label: label.into(),
            tiles_lost: 0,
            splits_lost: 0,
            bridge_capacity: Some(remaining_words),
        }
    }

    /// Add a tile loss to this loss (compound failures).
    #[must_use]
    pub fn with_tiles_lost(mut self, tiles: u32) -> Self {
        self.tiles_lost = tiles;
        self
    }

    /// Add a split loss to this loss (compound failures).
    #[must_use]
    pub fn with_splits_lost(mut self, splits: u32) -> Self {
        self.splits_lost = splits;
        self
    }
}

/// The outcome of re-exploring under one [`ResourceLoss`]: the highest
/// ladder rate at which a feasible mapping exists, and its cost.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationPoint {
    /// The loss's label, verbatim.
    pub label: String,
    /// Tiles the loss removed from the budget.
    pub tiles_lost: u32,
    /// Bus splits the loss removed from the frame.
    pub splits_lost: u32,
    /// Numerator of the achieved rate fraction (0 when infeasible at
    /// every ladder rate).
    pub rate_num: u64,
    /// Denominator of the achieved rate fraction (1 when infeasible).
    pub rate_den: u64,
    /// The achieved iteration rate (Hz); 0.0 when infeasible at every
    /// ladder rate.
    pub rate_hz: f64,
    /// Total power of the degraded mapping (mW); 0.0 when infeasible.
    pub power_mw: f64,
    /// Tiles the degraded mapping uses; 0 when infeasible.
    pub tiles_used: u32,
    /// Whether any ladder rate produced a feasible mapping.
    pub feasible: bool,
}

impl DegradationPoint {
    /// Is this a full-rate remap (no throughput lost)?
    pub fn is_full_rate(&self) -> bool {
        self.feasible && self.rate_num == self.rate_den
    }

    fn infeasible(loss: &ResourceLoss) -> Self {
        DegradationPoint {
            label: loss.label.clone(),
            tiles_lost: loss.tiles_lost,
            splits_lost: loss.splits_lost,
            rate_num: 0,
            rate_den: 1,
            rate_hz: 0.0,
            power_mw: 0.0,
            tiles_used: 0,
            feasible: false,
        }
    }
}

/// A degraded-mode curve: one [`DegradationPoint`] per attempted loss,
/// in the order the losses were passed.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationCurve {
    /// The undegraded target rate every point's fraction refers to.
    pub full_rate_hz: f64,
    /// One point per loss, in input order.
    pub points: Vec<DegradationPoint>,
}

impl DegradationCurve {
    /// Is the achieved rate non-increasing across the points in order?
    /// Callers passing losses sorted by increasing severity get a
    /// sanity check that more damage never buys more throughput
    /// (infeasible points count as rate 0).
    pub fn is_monotone(&self) -> bool {
        self.points.windows(2).all(|w| w[1].rate_hz <= w[0].rate_hz)
    }

    /// The points that found no feasible rate at all.
    pub fn infeasible_losses(&self) -> Vec<&DegradationPoint> {
        self.points.iter().filter(|p| !p.feasible).collect()
    }
}

/// `num/den` of `rate_hz`: `rate_hz × num / den` wherever that product is
/// finite, and `rate_hz / den × num` where it overflows.  Ladder
/// fractions are at most 1, so the rung's rate stays finite for every
/// finite `rate_hz`, where the plain product turns a rate near
/// `f64::MAX` into +inf.
fn rung_rate(rate_hz: f64, (num, den): (u64, u64)) -> f64 {
    let rate = rate_hz * num as f64 / den as f64;
    if rate.is_finite() {
        rate
    } else {
        rate_hz / den as f64 * num as f64
    }
}

/// `config` shrunk by `loss` and re-rated to `num/den` of the full
/// rate.  The comm frame loses `splits_lost` splits (floor 0 — a frame
/// with no splits left prunes every grouping with cross-column
/// traffic), and its period scales by `den/num`: the bus clock is
/// unchanged, so a slower iteration earns proportionally more bus
/// cycles per iteration.  The rescale is exact in 128 bits; only a
/// period past `u64::MAX`, a frame no demand can fill anyway, saturates.
/// Board bounds are handled by the board walker, not here.
fn degraded_config(
    config: &ExplorerConfig,
    loss: &ResourceLoss,
    (num, den): (u64, u64),
) -> ExplorerConfig {
    let comm = config.comm.map(|c| CommSpec {
        splits: c.splits.saturating_sub(loss.splits_lost),
        period: u64::try_from(u128::from(c.period) * u128::from(den) / u128::from(num.max(1)))
            .unwrap_or(u64::MAX),
        ..c
    });
    ExplorerConfig {
        iteration_rate_hz: rung_rate(config.iteration_rate_hz, (num, den)),
        tile_budget: config.tile_budget.saturating_sub(loss.tiles_lost),
        comm,
        ..config.clone()
    }
}

fn point_for(
    loss: &ResourceLoss,
    (num, den): (u64, u64),
    rate_hz: f64,
    power_mw: f64,
    tiles_used: u32,
) -> DegradationPoint {
    DegradationPoint {
        label: loss.label.clone(),
        tiles_lost: loss.tiles_lost,
        splits_lost: loss.splits_lost,
        rate_num: num,
        rate_den: den,
        rate_hz,
        power_mw,
        tiles_used,
        feasible: true,
    }
}

/// Re-explore `graph` under each loss in `losses`, walking
/// [`RATE_LADDER`] from full rate down until a feasible mapping exists
/// (so a full-rate remap is found whenever one exists), and return the
/// per-loss [`DegradationCurve`].
///
/// The graph is analysed once, and per ladder rate one [`Evaluator`]
/// prices the operating points of every loss still unresolved at that
/// rate.  Each loss's arena is built for its own shrunk budget.  Losses
/// that stay infeasible at every rung produce `feasible: false` points
/// with rate 0 rather than an error.
///
/// # Errors
///
/// Structural errors (unanalysable graphs, invalid configurations such
/// as [`ExplorerError::InvalidConfig`]) propagate; resource-exhaustion
/// errors ([`ExplorerError::is_resource_exhaustion`]) are what the
/// ladder walks through and never escape.
pub fn explore_degraded(
    graph: &SdfGraph,
    config: &ExplorerConfig,
    losses: &[ResourceLoss],
) -> Result<DegradationCurve, ExplorerError> {
    check_inputs(&config.tech, config.iteration_rate_hz, config.efficiency)?;
    let ctx = GraphContext::new(graph)?;
    let mut points: Vec<Option<DegradationPoint>> = vec![None; losses.len()];
    for &(num, den) in RATE_LADDER.iter() {
        if points.iter().all(Option::is_some) {
            break;
        }
        let rate_hz = rung_rate(config.iteration_rate_hz, (num, den));
        let evaluator = Evaluator::new(&config.tech, rate_hz, config.efficiency)?;
        for (slot, loss) in points.iter_mut().zip(losses) {
            if slot.is_some() {
                continue;
            }
            let swept = degraded_config(config, loss, (num, den));
            match rung_best(graph, &ctx, &evaluator, &swept) {
                Ok((best, _)) if best.feasible => {
                    *slot = Some(point_for(
                        loss,
                        (num, den),
                        rate_hz,
                        best.power_mw,
                        best.total_tiles,
                    ));
                }
                // An infeasible best (envelope violated everywhere) is
                // exhaustion in kind: keep walking the ladder.
                Ok(_) => {}
                Err(e) if e.is_resource_exhaustion() => {}
                Err(e) => return Err(e),
            }
        }
    }
    Ok(DegradationCurve {
        full_rate_hz: config.iteration_rate_hz,
        points: points
            .into_iter()
            .zip(losses)
            .map(|(p, loss)| p.unwrap_or_else(|| DegradationPoint::infeasible(loss)))
            .collect(),
    })
}

/// One rung's search under `swept`, with `evaluator` pricing at its
/// rate: the best winner alone, packaged, and the search counters.
fn rung_best(
    graph: &SdfGraph,
    ctx: &GraphContext,
    evaluator: &Evaluator,
    swept: &ExplorerConfig,
) -> Result<(ExplorerSolution, SearchStats), ExplorerError> {
    let max_group_size = plan_search(graph, ctx, swept)?;
    let arena = search::IntervalArena::build(
        ctx,
        evaluator,
        swept.candidates,
        swept.tile_budget,
        max_group_size,
    );
    run_search(swept, ctx, evaluator, &arena, max_group_size, swept.comm).map(Searched::best)
}

/// Board-level [`explore_degraded`]: each loss shrinks every chip's
/// tile budget by `tiles_lost`, the comm frame by `splits_lost`, and —
/// when [`ResourceLoss::bridge_capacity`] is set — caps the
/// partitioner's inter-chip words per iteration, then re-runs
/// [`explore_board`] down the rate ladder.  A severed bridge
/// (`bridge_capacity: Some(0)`) prunes every multi-chip split, so
/// recovery — if any — comes from squeezing onto fewer chips at a
/// reduced rate.
///
/// # Errors
///
/// As for [`explore_degraded`]; [`ExplorerError::BoardInfeasible`] is
/// exhaustion and is walked through, not returned.
pub fn explore_degraded_board(
    graph: &SdfGraph,
    config: &ExplorerConfig,
    losses: &[ResourceLoss],
) -> Result<DegradationCurve, ExplorerError> {
    check_inputs(&config.tech, config.iteration_rate_hz, config.efficiency)?;
    let mut points: Vec<Option<DegradationPoint>> = vec![None; losses.len()];
    for &(num, den) in RATE_LADDER.iter() {
        if points.iter().all(Option::is_some) {
            break;
        }
        let rate_hz = rung_rate(config.iteration_rate_hz, (num, den));
        for (slot, loss) in points.iter_mut().zip(losses) {
            if slot.is_some() {
                continue;
            }
            let mut swept = degraded_config(config, loss, (num, den));
            if let Some(cap) = loss.bridge_capacity {
                let board = swept.board.unwrap_or_default();
                let capacity = Some(board.bridge_capacity.map_or(cap, |have| have.min(cap)));
                swept.board = Some(BoardSearch {
                    bridge_capacity: capacity,
                    ..board
                });
            }
            match explore_board(graph, &swept) {
                // `explore_board` only returns partitions feasible on
                // every chip, so a success is a feasible point.
                Ok(exploration) => {
                    *slot = Some(point_for(
                        loss,
                        (num, den),
                        rate_hz,
                        exploration.total_power_mw(),
                        exploration.total_tiles(),
                    ));
                }
                Err(e) if e.is_resource_exhaustion() => {}
                Err(e) => return Err(e),
            }
        }
    }
    Ok(DegradationCurve {
        full_rate_hz: config.iteration_rate_hz,
        points: points
            .into_iter()
            .zip(losses)
            .map(|(p, loss)| p.unwrap_or_else(|| DegradationPoint::infeasible(loss)))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explore, VoltagePolicy};
    use proptest::prelude::*;

    /// One actor whose per-tile frequency is `1000 / tiles` MHz at the
    /// full 1 M iterations/s rate (the FO4-20 envelope tops out at
    /// 560 MHz @ the ISCA-2004 1.7 V ceiling, so 2 tiles are needed at
    /// full rate).
    fn hungry_actor() -> SdfGraph {
        let mut g = SdfGraph::new();
        g.add_actor("dsp", 1000, 8);
        g
    }

    /// Two stages with cross traffic, each comfortable at full rate.
    fn chatty_pair() -> SdfGraph {
        let mut g = SdfGraph::new();
        let a = g.add_actor("front", 100, 4);
        let b = g.add_actor("back", 100, 4);
        g.add_edge(a, b, 1, 1, 0).unwrap();
        g
    }

    #[test]
    fn ladder_descends_from_full_rate() {
        assert_eq!(RATE_LADDER[0], (1, 1));
        for w in RATE_LADDER.windows(2) {
            let (an, ad) = w[0];
            let (bn, bd) = w[1];
            assert!(
                an * bd > bn * ad,
                "ladder must be strictly descending: {w:?}"
            );
        }
    }

    #[test]
    fn frame_rescale_is_exact_past_u64() {
        // At 3/4 of the rate the period is 2^63 × 4 / 3, which fits in 64
        // bits although the product 2^63 × 4 does not.
        let config = ExplorerConfig::new(1e6, 8).with_comm(CommSpec::new(8, 1 << 63));
        let loss = ResourceLoss::column("none", 0);
        let period = |point| degraded_config(&config, &loss, point).comm.unwrap().period;
        assert_eq!(period((3, 4)), 12_297_829_382_473_034_410);
        assert_eq!(period((1, 1)), 1 << 63);
        // At 1/4 of the rate the period itself passes `u64::MAX`.
        assert_eq!(period((1, 4)), u64::MAX);
    }

    #[test]
    fn full_rate_remap_is_found_when_slack_exists() {
        // Budget 8, the mapping needs 2: losing 4 tiles still fits at
        // full rate, and the remap must say so.
        let g = hungry_actor();
        let config = ExplorerConfig::new(1e6, 8);
        let curve = explore_degraded(&g, &config, &[ResourceLoss::column("4 tiles down", 4)])
            .expect("structural success");
        assert_eq!(curve.points.len(), 1);
        let p = &curve.points[0];
        assert!(p.is_full_rate(), "expected a full-rate remap, got {p:?}");
        assert_eq!(p.rate_hz, 1e6);
        assert!(p.tiles_used >= 2 && p.tiles_used <= 4);
        assert!(p.power_mw > 0.0);
    }

    #[test]
    fn rate_walks_down_when_the_budget_no_longer_reaches_full_rate() {
        // Losing 7 of 8 tiles leaves 1: 1000 MHz at full rate is out of
        // envelope; the ladder lands exactly on (1, 2) → 500 MHz.
        let g = hungry_actor();
        let config = ExplorerConfig::new(1e6, 8);
        let losses = [
            ResourceLoss::column("1 tile down", 1),
            ResourceLoss::column("7 tiles down", 7),
        ];
        let curve = explore_degraded(&g, &config, &losses).unwrap();
        assert!(curve.points[0].is_full_rate());
        let degraded = &curve.points[1];
        assert!(degraded.feasible);
        assert_eq!((degraded.rate_num, degraded.rate_den), (1, 2));
        assert_eq!(degraded.rate_hz, 5e5);
        assert!(curve.is_monotone());
    }

    #[test]
    fn exhausted_splits_yield_an_honest_infeasible_point() {
        // Two single-actor columns must talk; the only split is gone,
        // so no rate helps — the point must say infeasible, not error.
        let g = chatty_pair();
        let config = ExplorerConfig::new(1e6, 8)
            .single_actor_columns()
            .with_comm(CommSpec::new(1, 8));
        let curve =
            explore_degraded(&g, &config, &[ResourceLoss::bus_splits("split 0 dead", 1)]).unwrap();
        let p = &curve.points[0];
        assert!(!p.feasible);
        assert_eq!(p.rate_hz, 0.0);
        assert_eq!((p.rate_num, p.rate_den), (0, 1));
        assert!(curve.infeasible_losses().len() == 1);
    }

    #[test]
    fn structural_errors_propagate_instead_of_masquerading_as_points() {
        let empty = SdfGraph::new();
        let config = ExplorerConfig::new(1e6, 8);
        let err = explore_degraded(&empty, &config, &[ResourceLoss::column("any", 1)])
            .expect_err("empty graph is structural");
        assert!(!err.is_resource_exhaustion(), "got {err:?}");
    }

    #[test]
    fn degraded_points_match_a_direct_exploration_at_the_same_rung() {
        // The walker must be bit-identical to calling `explore` by hand
        // with the shrunk budget at the achieved rate.
        let g = hungry_actor();
        let config = ExplorerConfig::new(1e6, 8);
        let loss = ResourceLoss::column("6 tiles down", 6);
        let curve = explore_degraded(&g, &config, std::slice::from_ref(&loss)).unwrap();
        let p = &curve.points[0];
        let direct = explore(
            &g,
            &ExplorerConfig {
                iteration_rate_hz: p.rate_hz,
                tile_budget: 2,
                ..config
            },
        )
        .unwrap();
        assert!(direct.best.feasible);
        assert_eq!(direct.best.power_mw.to_bits(), p.power_mw.to_bits());
        assert_eq!(direct.best.total_tiles, p.tiles_used);
    }

    /// Two hungry stages that cannot share one 4-tile chip at full
    /// rate: each needs 4 tiles (500 MHz per tile), so the partitioner
    /// must split them across two chips.
    fn board_pair() -> SdfGraph {
        let mut g = SdfGraph::new();
        let a = g.add_actor("front", 2000, 4);
        let b = g.add_actor("back", 2000, 4);
        g.add_edge(a, b, 1, 1, 0).unwrap();
        g
    }

    fn board_config() -> ExplorerConfig {
        ExplorerConfig::new(1e6, 4)
            .single_actor_columns()
            .with_board(BoardSearch::new(2))
    }

    #[test]
    fn board_tile_losses_walk_the_rate_down_per_chip() {
        let g = board_pair();
        let curve = explore_degraded_board(
            &g,
            &board_config(),
            &[ResourceLoss::column("2 tiles down on every chip", 2)],
        )
        .unwrap();
        // 2 tiles per chip sustain 600 MHz per tile only at half rate.
        let p = &curve.points[0];
        assert!(p.feasible);
        assert_eq!((p.rate_num, p.rate_den), (1, 2));
    }

    #[test]
    fn severed_bridges_fall_back_to_fewer_chips_at_reduced_rate() {
        let g = board_pair();
        let curve = explore_degraded_board(
            &g,
            &board_config(),
            &[ResourceLoss::bridge("bridge 0→1 severed", 0)],
        )
        .unwrap();
        // With the bridge gone every 2-chip split is pruned; both
        // actors squeeze onto one 4-tile chip at half rate.
        let p = &curve.points[0];
        assert!(p.feasible, "got {p:?}");
        assert_eq!((p.rate_num, p.rate_den), (1, 2));
        assert_eq!(p.tiles_used, 4);
        assert!(curve.is_monotone());
    }

    #[test]
    fn rates_near_f64_max_walk_the_ladder_instead_of_overflowing() {
        // At `f64::MAX` the 7/8 rung's product `rate × 7` is +inf, which
        // the explorer rejects as a rate the caller never passed.  Every
        // rung's rate must stay finite, so both walkers return the
        // infeasible curve (every option costs +inf there).
        for rate in [f64::MAX, f64::MAX / 7.0] {
            for (num, den) in RATE_LADDER {
                let rung = rung_rate(rate, (num, den));
                assert!(rung.is_finite() && rung > 0.0, "{rate:e} × {num}/{den}");
            }
        }
        let loss = ResourceLoss::column("1 tile down", 1);
        let chip = explore_degraded(
            &hungry_actor(),
            &ExplorerConfig::new(f64::MAX, 8),
            std::slice::from_ref(&loss),
        )
        .expect("a finite rate walks the ladder");
        let board = explore_degraded_board(
            &board_pair(),
            &ExplorerConfig {
                iteration_rate_hz: f64::MAX,
                ..board_config()
            },
            std::slice::from_ref(&loss),
        )
        .expect("a finite rate walks the ladder");
        for curve in [&chip, &board] {
            assert_eq!(curve.full_rate_hz, f64::MAX);
            assert_eq!(curve.points.len(), 1);
            assert!(!curve.points[0].feasible, "{:?}", curve.points[0]);
        }
        // Where the product is finite its bits are kept.
        for (num, den) in RATE_LADDER {
            assert_eq!(
                rung_rate(16e6, (num, den)).to_bits(),
                (16e6 * num as f64 / den as f64).to_bits()
            );
        }
    }

    proptest! {
        /// Each rung's winner-only search is `explore(..).best` of the
        /// rung's configuration bit for bit (its `Debug` text prints every
        /// float exactly), with the same counters and the same errors,
        /// under both voltage policies: random 1–6-actor chains, fused or
        /// single-actor, with no frame or a 1-split frame of 0–11 cycles,
        /// budgets 1–31 and 0–7 tiles lost, at every ladder rate.  The
        /// walker's point then matches the first rung whose best is
        /// feasible.
        #[test]
        fn rung_winners_match_the_explored_best(
            cycles in prop::collection::vec(1u64..2_000, 6),
            caps in prop::collection::vec(1u32..9, 6),
            n in 1usize..7,
            fused in any::<bool>(),
            single_voltage in any::<bool>(),
            budget in 1u32..32,
            tiles_lost in 0u32..8,
            frame_pick in 0u64..24,
        ) {
            let mut graph = SdfGraph::new();
            let mut prev = None;
            for i in 0..n {
                let actor = graph.add_actor(format!("a{i}"), cycles[i], caps[i]);
                if let Some(p) = prev {
                    graph.add_edge(p, actor, 1, 1, 0).unwrap();
                }
                prev = Some(actor);
            }
            let policy = if single_voltage {
                VoltagePolicy::SingleVoltage
            } else {
                VoltagePolicy::PerColumn
            };
            let mut config = ExplorerConfig::new(1e6, budget).with_voltage_policy(policy);
            if !fused {
                config = config.single_actor_columns();
            }
            if frame_pick < 12 {
                config = config.with_comm(CommSpec::new(1, frame_pick));
            }
            let loss = ResourceLoss::column("lost", tiles_lost);
            let ctx = GraphContext::new(&graph).unwrap();
            let show = |s: &ExplorerSolution| format!("{s:?}");
            let mut first_feasible = None;
            for rung in RATE_LADDER {
                let swept = degraded_config(&config, &loss, rung);
                let evaluator =
                    Evaluator::new(&swept.tech, swept.iteration_rate_hz, swept.efficiency)
                        .unwrap();
                match (rung_best(&graph, &ctx, &evaluator, &swept), explore(&graph, &swept)) {
                    (Ok((best, stats)), Ok(full)) => {
                        prop_assert_eq!(show(&best), show(&full.best));
                        prop_assert_eq!(stats.mappings_evaluated, full.stats.mappings_evaluated);
                        prop_assert_eq!(stats.states_pruned, full.stats.states_pruned);
                        prop_assert_eq!(
                            stats.groupings_comm_pruned,
                            full.stats.groupings_comm_pruned
                        );
                        if best.feasible && first_feasible.is_none() {
                            first_feasible = Some((rung, best));
                        }
                    }
                    (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                    (a, b) => {
                        return Err(TestCaseError::fail(format!(
                            "rung {rung:?}: winner only {:?} vs explore {:?}",
                            a.map(|(best, _)| best),
                            b.map(|full| full.best)
                        )));
                    }
                }
            }
            let curve = explore_degraded(&graph, &config, std::slice::from_ref(&loss)).unwrap();
            let point = &curve.points[0];
            match first_feasible {
                Some(((num, den), best)) => {
                    prop_assert!(point.feasible);
                    prop_assert_eq!((point.rate_num, point.rate_den), (num, den));
                    prop_assert_eq!(point.power_mw.to_bits(), best.power_mw.to_bits());
                    prop_assert_eq!(point.tiles_used, best.total_tiles);
                }
                None => prop_assert!(!point.feasible),
            }
        }
    }
}
