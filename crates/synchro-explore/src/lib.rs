//! Automatic mapping and design-space exploration for Synchroscalar
//! (re-exported as `synchroscalar::explorer`).
//!
//! The paper's central claim is that statically scheduled SDF
//! applications let Synchroscalar *derive* per-column frequencies and
//! voltages that minimise power at a fixed rate.  This crate closes that
//! loop: given an [`SdfGraph`], a target iteration rate, a tile budget
//! and a [`Technology`], [`explore`] searches tile allocations and
//! actor→column groupings, computes each column's frequency from the
//! repetition vector, its voltage from the Figure 5 VF curve and its
//! power from the `synchro-power` models, and returns
//!
//! * the minimum-power feasible mapping,
//! * the full power-vs-tiles curve (one entry per reachable tile count),
//! * the Pareto frontier of that curve (the Figure 8-style trade-off).
//!
//! One exact engine answers every query: a single-threaded prefix
//! dynamic program over actor boundaries and exact tile counts.  Each
//! interval's cost is evaluated once into a flat arena; each DP cell
//! keeps the partial mappings no other partial covers in power,
//! committed cross-column words and feasibility; and winners are rebuilt
//! from back-pointers only at the last boundary.  The work is
//! O(n·g·B·k) — actors × max group size × tile budget × tile options per
//! group — so no grouping is ever enumerated (see the README's
//! "Performance" section).
//!
//! A solution [`realize`](ExplorerSolution::realize)s back into a plain
//! `(SdfGraph, Mapping)` pair — the original graph for single-actor
//! columns, or a [`cluster`]ed graph when the search fused adjacent
//! actors into one column — so winners compile through
//! `synchroscalar::mapper::compile` unchanged.
//!
//! ```
//! use synchro_explore::{explore, ExplorerConfig};
//! use synchro_sdf::SdfGraph;
//!
//! // A two-stage filter at 1 M iterations/s under a 12-tile budget.
//! let mut graph = SdfGraph::new();
//! let head = graph.add_actor("head", 200, 8);
//! let tail = graph.add_actor("tail", 120, 8);
//! graph.add_edge(head, tail, 1, 1, 0).unwrap();
//! let exploration = explore(&graph, &ExplorerConfig::new(1e6, 12)).unwrap();
//! assert!(exploration.best.feasible);
//! assert!(exploration.best.total_tiles <= 12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;
use std::ops::Range;

use synchro_power::{AreaModel, Technology};
use synchro_sdf::{ActorId, Mapping, MappingViolation, SdfError, SdfGraph};
use synchro_trace::{Trace, TraceEvent};

mod degraded;
mod model;
mod pareto;
mod search;
mod space;

pub use degraded::{
    explore_degraded, explore_degraded_board, DegradationCurve, DegradationPoint, ResourceLoss,
    RATE_LADDER,
};
pub use model::ColumnEval;
pub use pareto::dominates;
pub use search::SearchStats;
pub use space::{cluster, TileCandidates};

use model::{check_inputs, Evaluator, GraphContext};

/// Errors raised by the explorer.
#[derive(Debug)]
pub enum ExplorerError {
    /// Graph analysis failed (inconsistent rates, deadlock, empty graph).
    Sdf(SdfError),
    /// The tile budget cannot host even one tile per column group.
    BudgetTooSmall {
        /// Minimum number of column groups any grouping produces.
        min_groups: usize,
        /// The configured budget.
        budget: u32,
    },
    /// The search space contained no candidate at all.
    NoSolutions,
    /// A hand-built mapping failed [`Mapping::validate`].
    InvalidMapping {
        /// The reported violations.
        violations: Vec<MappingViolation>,
    },
    /// A hand-built mapping does not place every actor exactly once.
    IncompleteMapping {
        /// An actor without a placement (or placed more than once).
        actor: ActorId,
    },
    /// The communication feasibility prune left nothing: no mapping
    /// within the tile budget has cross-column traffic that fits the
    /// configured TDM frame.
    CommInfeasible {
        /// The configured frame capacity in slots per iteration.
        capacity: u64,
        /// Groupings whose cross-column words exceed the frame (counted
        /// over the grouping DAG, saturating at `u64::MAX`).
        pruned: u64,
    },
    /// No contiguous partition of the graph across the permitted chip
    /// count produced a feasible per-chip exploration (see
    /// [`explore_board`]).
    BoardInfeasible {
        /// Most chips the partitioner was allowed to use.
        max_chips: usize,
        /// Candidate splits whose per-chip explorations were attempted.
        splits_tried: usize,
    },
    /// A configuration value the cost model cannot price: an iteration
    /// rate that is not finite and positive, a NaN parallel efficiency,
    /// or a [`Technology`] parameter that `Technology::validate` rejects.
    InvalidConfig {
        /// The offending [`ExplorerConfig`] field, or the offending field
        /// of its `tech`.
        field: &'static str,
        /// The value supplied.
        value: f64,
    },
}

impl fmt::Display for ExplorerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExplorerError::Sdf(e) => write!(f, "graph analysis: {e}"),
            ExplorerError::BudgetTooSmall { min_groups, budget } => write!(
                f,
                "tile budget {budget} cannot host {min_groups} column groups"
            ),
            ExplorerError::NoSolutions => write!(f, "search space contained no candidates"),
            ExplorerError::InvalidMapping { violations } => {
                write!(f, "mapping has {} violation(s)", violations.len())?;
                for v in violations {
                    write!(f, "; {v}")?;
                }
                Ok(())
            }
            ExplorerError::IncompleteMapping { actor } => {
                write!(f, "actor {} is not placed exactly once", actor.0)
            }
            ExplorerError::CommInfeasible { capacity, pruned } => write!(
                f,
                "no mapping within the tile budget fits its cross-column traffic in the \
                 {capacity}-slot TDM frame ({pruned} groupings rejected)"
            ),
            ExplorerError::BoardInfeasible {
                max_chips,
                splits_tried,
            } => write!(
                f,
                "no contiguous partition across up to {max_chips} chip(s) was feasible \
                 ({splits_tried} splits tried)"
            ),
            ExplorerError::InvalidConfig { field, value } => {
                write!(f, "configuration field `{field}` has invalid value {value}")
            }
        }
    }
}

impl ExplorerError {
    /// Is this a resource-exhaustion failure — the search was well-posed
    /// but the hardware budget (tiles, TDM slots, bridge capacity, chip
    /// count) could not host any solution?  Exhaustion errors are the
    /// retryable class degraded-mode remapping walks the rate ladder on;
    /// the rest are malformed inputs that no amount of extra hardware or
    /// rate slack fixes.
    pub fn is_resource_exhaustion(&self) -> bool {
        matches!(
            self,
            ExplorerError::BudgetTooSmall { .. }
                | ExplorerError::NoSolutions
                | ExplorerError::CommInfeasible { .. }
                | ExplorerError::BoardInfeasible { .. }
        )
    }

    /// A stable machine-readable code naming the rejection class, the
    /// explorer-side counterpart of `RouteError::code` — used by the
    /// trace `RejectionLedger` to aggregate why candidate mappings died.
    pub fn code(&self) -> &'static str {
        match self {
            ExplorerError::Sdf(_) => "sdf",
            ExplorerError::BudgetTooSmall { .. } => "budget_too_small",
            ExplorerError::NoSolutions => "no_solutions",
            ExplorerError::InvalidMapping { .. } => "invalid_mapping",
            ExplorerError::IncompleteMapping { .. } => "incomplete_mapping",
            ExplorerError::CommInfeasible { .. } => "comm_infeasible",
            ExplorerError::BoardInfeasible { .. } => "board_infeasible",
            ExplorerError::InvalidConfig { .. } => "invalid_config",
        }
    }
}

impl Error for ExplorerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExplorerError::Sdf(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SdfError> for ExplorerError {
    fn from(value: SdfError) -> Self {
        ExplorerError::Sdf(value)
    }
}

/// Which supply-voltage policy the explorer's cost model reports under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VoltagePolicy {
    /// Each column gets the minimum quantised voltage its own frequency
    /// requires — the paper's headline per-column voltage scaling.
    #[default]
    PerColumn,
    /// Every column shares one chip-wide supply: the maximum voltage any
    /// column requires.  The search still ranks candidates by the
    /// per-column relaxation (the mapping that minimises per-column power
    /// is the one Table 4 re-costs under a single supply); the reported
    /// costs, voltages and best/frontier selection are then computed at
    /// the shared voltage.
    SingleVoltage,
}

/// The communication capacity the explorer prunes against: one TDM frame
/// of the horizontal bus per graph iteration, described by its width in
/// words per cycle and its period in bus cycles.
///
/// The prune is an optimistic upper bound — a grouping is rejected only
/// when its total cross-column words per iteration exceed the whole
/// frame (`splits × period × segment_groups` slots), which no schedule
/// could ever fit.  Survivors still go through the exact
/// `synchro-route` compiler, which also enforces reachability under the
/// concrete segment topology.
///
/// The search tracks the cross-column words each partial mapping has
/// already committed and makes its dominance check Pareto over
/// `(power, cross words)`, so a schedulable-but-pricier prefix is never
/// shadowed by a cheaper unschedulable one; prefixes whose committed
/// traffic already overflows the frame are dropped as they form.  The
/// result is exact under the constraint (property-tested against an
/// exhaustive oracle that filters whole groupings).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommSpec {
    /// Bus width in words per cycle (independent splits).
    pub splits: u32,
    /// Bus cycles per graph iteration.
    pub period: u64,
    /// Electrically separate column groups each split's segment switches
    /// create (1 = broadcast).  Capacity multiplier for the optimistic
    /// bound: disjoint groups can reuse a split in the same cycle.
    pub segment_groups: u32,
}

impl CommSpec {
    /// A broadcast frame of `splits` words per cycle over `period` cycles.
    pub fn new(splits: u32, period: u64) -> Self {
        CommSpec {
            splits: splits.max(1),
            period,
            segment_groups: 1,
        }
    }

    /// Derive the period from a bus clock and the iteration rate (whole
    /// bus cycles per graph iteration).
    pub fn from_clock(splits: u32, bus_frequency_hz: f64, iteration_rate_hz: f64) -> Self {
        let period = if bus_frequency_hz > 0.0 && iteration_rate_hz > 0.0 {
            (bus_frequency_hz / iteration_rate_hz).floor() as u64
        } else {
            0
        };
        CommSpec::new(splits, period)
    }

    /// Override the segment-group count (the "segment count" search
    /// dimension).
    #[must_use]
    pub fn with_segment_groups(mut self, segment_groups: u32) -> Self {
        self.segment_groups = segment_groups.max(1);
        self
    }

    /// Slots per iteration the frame offers at most.
    pub fn capacity(&self) -> u64 {
        u64::from(self.splits)
            .saturating_mul(self.period)
            .saturating_mul(u64::from(self.segment_groups))
    }
}

/// The board-partitioning stage searched when [`ExplorerConfig::board`]
/// is set: [`explore_board`] shards the graph across up to `max_chips`
/// chips by a min-cut-flavoured contiguous split, running one per-chip
/// exploration (with the per-chip comm prune) for each candidate split
/// until every chip is feasible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoardSearch {
    /// Most chips a partition may use (1 tries the single-chip path
    /// first; the partitioner always prefers fewer chips).
    pub max_chips: usize,
    /// Candidate splits attempted per chip count, in ranked order
    /// (fewest cut words first, then best work balance).
    pub splits_per_chip_count: usize,
    /// Optional cap on inter-chip words per iteration: splits whose cut
    /// exceeds it are pruned before any per-chip search runs, mirroring
    /// the intra-chip comm prune at the bridge level.
    pub bridge_capacity: Option<u64>,
}

impl Default for BoardSearch {
    fn default() -> Self {
        BoardSearch {
            max_chips: 4,
            splits_per_chip_count: 8,
            bridge_capacity: None,
        }
    }
}

impl BoardSearch {
    /// A board of up to `max_chips` chips with default split ranking.
    pub fn new(max_chips: usize) -> Self {
        BoardSearch {
            max_chips: max_chips.max(1),
            ..Default::default()
        }
    }

    /// Cap the inter-chip words per iteration the partitioner accepts.
    #[must_use]
    pub fn with_bridge_capacity(mut self, words: u64) -> Self {
        self.bridge_capacity = Some(words);
        self
    }

    /// Override how many ranked splits are attempted per chip count.
    #[must_use]
    pub fn with_splits_per_chip_count(mut self, splits: usize) -> Self {
        self.splits_per_chip_count = splits.max(1);
        self
    }
}

/// Configuration of one exploration.
#[derive(Debug, Clone)]
pub struct ExplorerConfig {
    /// Target graph-iteration rate (iterations per second); must be
    /// finite and positive.
    pub iteration_rate_hz: f64,
    /// Maximum total tiles any solution may use.
    pub tile_budget: u32,
    /// Technology the cost model evaluates under.
    pub tech: Technology,
    /// Candidate tile counts per column group.
    pub candidates: TileCandidates,
    /// Largest number of adjacent actors the search may fuse into one
    /// column group.  `1` restricts the space to the paper's structure of
    /// one algorithm block per column group (what Table 4 publishes);
    /// larger values let the explorer trade fusion against parallelism.
    /// Fusion requires actor insertion order to be topological (every
    /// edge running from a lower to a higher actor id); graphs with
    /// backward edges are searched with single-actor columns only.
    pub max_group_size: usize,
    /// Parallel efficiency assumed when splitting work across tiles
    /// (1.0 = perfect speedup, matching the reference mappings); clamped
    /// to `[0.01, 1]`, and must not be NaN.
    pub efficiency: f64,
    /// Optional communication-feasibility prune: groupings whose
    /// cross-column traffic cannot fit the TDM frame are rejected before
    /// their tile allocations are searched.  `None` (the default) keeps
    /// the unconstrained behaviour.
    pub comm: Option<CommSpec>,
    /// Supply-voltage policy the reported costs are computed under.
    pub voltage_policy: VoltagePolicy,
    /// Optional board-partitioning stage: when set, [`explore_board`]
    /// shards the graph across up to `max_chips` chips (each chip budgeted
    /// and comm-pruned independently with this configuration).  [`explore`]
    /// itself ignores the field — single-chip exploration is the board
    /// path's size-1 special case.
    pub board: Option<BoardSearch>,
    /// Trace handle the search reports into: phase spans
    /// (`explore.plan` / `explore.arena` / `explore.search`) and
    /// `explore.*` registry counters mirroring [`SearchStats`].
    /// Disabled by default — the search pays nothing for it.
    pub trace: Trace,
}

impl ExplorerConfig {
    /// A default configuration: ISCA 2004 technology, power-of-two tile
    /// candidates, grouping enabled, no communication prune.
    pub fn new(iteration_rate_hz: f64, tile_budget: u32) -> Self {
        ExplorerConfig {
            iteration_rate_hz,
            tile_budget,
            tech: Technology::isca2004(),
            candidates: TileCandidates::PowersOfTwo,
            max_group_size: usize::MAX,
            efficiency: 1.0,
            comm: None,
            voltage_policy: VoltagePolicy::PerColumn,
            board: None,
            trace: Trace::off(),
        }
    }

    /// Restrict the search to one actor per column group — the structure
    /// of every hand-built Table 4 mapping.
    #[must_use]
    pub fn single_actor_columns(mut self) -> Self {
        self.max_group_size = 1;
        self
    }

    /// Override the candidate tile counts.
    #[must_use]
    pub fn with_candidates(mut self, candidates: TileCandidates) -> Self {
        self.candidates = candidates;
        self
    }

    /// Override the technology.
    #[must_use]
    pub fn with_tech(mut self, tech: Technology) -> Self {
        self.tech = tech;
        self
    }

    /// Enable the communication-feasibility prune against one TDM frame.
    #[must_use]
    pub fn with_comm(mut self, comm: CommSpec) -> Self {
        self.comm = Some(comm);
        self
    }

    /// Override the voltage policy the costs are reported under.
    #[must_use]
    pub fn with_voltage_policy(mut self, policy: VoltagePolicy) -> Self {
        self.voltage_policy = policy;
        self
    }

    /// Enable the board-partitioning stage (see [`explore_board`]).
    #[must_use]
    pub fn with_board(mut self, board: BoardSearch) -> Self {
        self.board = Some(board);
        self
    }

    /// Install a trace handle: search spans, prune counters and — on
    /// failure — a structured `RouteReject` naming the
    /// [`ExplorerError::code`] are emitted into it (feed a
    /// `RejectionLedger` to aggregate why candidates died).
    #[must_use]
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = trace;
        self
    }

    /// The thread count the search runs on: always 1, since the search
    /// is single-threaded.  Kept so harnesses that record a thread count
    /// keep working.
    pub fn resolved_threads(&self) -> usize {
        1
    }
}

/// One column group of a solution: the actors it hosts and its evaluated
/// operating point.  It owns no heap data.
#[derive(Debug, Clone)]
pub struct ColumnSolution {
    /// The contiguous actor ids fused into this column group (one id for
    /// single-actor columns).
    pub actors: Range<usize>,
    /// Tiles assigned.
    pub tiles: u32,
    /// Required per-tile frequency (MHz).
    pub frequency_mhz: f64,
    /// Assigned supply voltage (V).
    pub voltage: f64,
    /// Whether the operating point fits the supply envelope.
    pub within_envelope: bool,
    /// Power breakdown.
    pub power: synchro_power::ColumnPower,
}

impl ColumnSolution {
    /// Human-readable name: the member actors' names in `graph` (the graph
    /// the solution was explored on) joined with `+`.
    pub fn name(&self, graph: &SdfGraph) -> String {
        graph.actors()[self.actors.clone()]
            .iter()
            .map(|a| a.name.as_str())
            .collect::<Vec<_>>()
            .join("+")
    }
}

/// One point of the design space: a complete mapping with its cost.
#[derive(Debug, Clone)]
pub struct ExplorerSolution {
    /// Column groups in pipeline order.
    pub columns: Vec<ColumnSolution>,
    /// Total tiles used.
    pub total_tiles: u32,
    /// Total power (mW) under the explorer's cost model.
    pub power_mw: f64,
    /// Whether every column fits the supply envelope.
    pub feasible: bool,
    efficiency: f64,
}

impl ExplorerSolution {
    /// Is every column group a single actor (directly expressible as a
    /// `Mapping` over the original graph)?
    pub fn is_single_actor_columns(&self) -> bool {
        self.columns.iter().all(|c| c.actors.len() == 1)
    }

    /// Per-column frequencies in pipeline order.
    pub fn frequencies_mhz(&self) -> Vec<f64> {
        self.columns.iter().map(|c| c.frequency_mhz).collect()
    }

    /// Per-column tile counts in pipeline order.
    pub fn allocation(&self) -> Vec<u32> {
        self.columns.iter().map(|c| c.tiles).collect()
    }

    /// Chip area of the solution (tiles rounded up to whole columns).
    pub fn area_mm2(&self) -> f64 {
        AreaModel::isca2004().chip_area_mm2(self.total_tiles)
    }

    /// Turn the solution back into a `(graph, mapping)` pair ready for
    /// `synchroscalar::mapper::compile`: the original graph with a
    /// multi-actor mapping when every column hosts one actor, or the
    /// [`cluster`]ed graph with a one-actor-per-column mapping when the
    /// search fused adjacent actors.
    ///
    /// # Errors
    ///
    /// Propagates rate-consistency errors from clustering.
    pub fn realize(&self, graph: &SdfGraph) -> Result<(SdfGraph, Mapping), ExplorerError> {
        let groups: Vec<(usize, usize)> = self
            .columns
            .iter()
            .map(|c| (c.actors.start, c.actors.end))
            .collect();
        let allocation = self.allocation();
        if self.is_single_actor_columns() {
            let mapping = space::mapping_for(&groups, &allocation, self.efficiency, true);
            Ok((graph.clone(), mapping))
        } else {
            let clustered = space::cluster(graph, &groups)?;
            let mapping = space::mapping_for(&groups, &allocation, self.efficiency, false);
            Ok((clustered, mapping))
        }
    }
}

/// The result of one [`explore`] run.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// The minimum-power feasible solution (or the minimum-power solution
    /// overall when nothing fits the envelope — check
    /// [`ExplorerSolution::feasible`]).
    pub best: ExplorerSolution,
    /// The cheapest solution at every reachable exact tile count (the
    /// cheapest feasible one where any exists), one entry per count,
    /// sorted by tiles ascending.
    pub curve: Vec<ExplorerSolution>,
    /// The non-dominated (tiles, power) subset of `curve` — the Figure
    /// 8-style Pareto frontier.
    pub frontier: Vec<ExplorerSolution>,
    /// Search counters.
    pub stats: SearchStats,
}

impl Exploration {
    /// The curve entry using exactly `tiles` tiles, if that count was
    /// reachable.
    pub fn solution_for_tiles(&self, tiles: u32) -> Option<&ExplorerSolution> {
        self.curve.iter().find(|s| s.total_tiles == tiles)
    }
}

/// Search tile allocations and actor→column groupings of `graph` for the
/// minimum-power mapping sustaining `config.iteration_rate_hz` within
/// `config.tile_budget` tiles.
///
/// # Errors
///
/// Returns [`ExplorerError`] for an invalid rate or efficiency
/// ([`ExplorerError::InvalidConfig`]), unanalyzable graphs, impossible
/// budgets, or an exhausted search space.
pub fn explore(graph: &SdfGraph, config: &ExplorerConfig) -> Result<Exploration, ExplorerError> {
    let result = explore_impl(graph, config, |searched| searched.exploration());
    reject_on_err(&config.trace, &result);
    result
}

/// [`explore`] packaging only the best winner: its solution and the
/// search counters.  The trace sees the same spans, counters and
/// rejection as an [`explore`] call.
fn explore_best(
    graph: &SdfGraph,
    config: &ExplorerConfig,
) -> Result<(ExplorerSolution, SearchStats), ExplorerError> {
    let result = explore_impl(graph, config, |searched| searched.best());
    reject_on_err(&config.trace, &result);
    result
}

/// Emit a structured rejection event for a failed exploration, mirroring
/// the router's convention so one `RejectionLedger` aggregates both.
fn reject_on_err<T>(trace: &Trace, result: &Result<T, ExplorerError>) {
    if let Err(err) = result {
        trace.emit(|| TraceEvent::RouteReject {
            code: err.code(),
            detail: err.to_string(),
        });
    }
}

/// Plan, build the arena, search, and hand the finished search to
/// `package`, which picks what of it the caller reads.
fn explore_impl<T>(
    graph: &SdfGraph,
    config: &ExplorerConfig,
    package: impl FnOnce(Searched<'_>) -> T,
) -> Result<T, ExplorerError> {
    let trace = &config.trace;
    let (ctx, max_group_size, evaluator) = {
        let _span = trace.span("explore.plan");
        let evaluator = Evaluator::new(&config.tech, config.iteration_rate_hz, config.efficiency)?;
        let ctx = GraphContext::new(graph)?;
        let max_group_size = plan_search(graph, &ctx, config)?;
        (ctx, max_group_size, evaluator)
    };
    let arena = {
        let _span = trace.span("explore.arena");
        search::IntervalArena::build(
            &ctx,
            &evaluator,
            config.candidates,
            config.tile_budget,
            max_group_size,
        )
    };
    let (packaged, s) = {
        let _span = trace.span("explore.search");
        let searched = run_search(
            config,
            &ctx,
            &evaluator,
            &arena,
            max_group_size,
            config.comm,
        )?;
        let stats = searched.outcome.stats.clone();
        (package(searched), stats)
    };
    // Unify the ad-hoc SearchStats counters into the metrics registry.
    for (name, delta) in [
        ("explore.mappings_evaluated", s.mappings_evaluated),
        ("explore.groupings_examined", s.groupings_examined),
        ("explore.states_pruned", s.states_pruned),
        ("explore.groupings_comm_pruned", s.groupings_comm_pruned),
    ] {
        trace.counter(name, delta);
    }
    Ok(packaged)
}

/// Validate `config` against the analysed graph and return the largest
/// group size the search may fuse.  Split out of [`explore`] so sweeps
/// sharing one [`search::IntervalArena`] across invocations plan once
/// per point without re-running the search tail.
fn plan_search(
    graph: &SdfGraph,
    ctx: &GraphContext,
    config: &ExplorerConfig,
) -> Result<usize, ExplorerError> {
    let n = ctx.n;
    // Fusing is only sound when actor order is a topological order with
    // strictly forward edges: contiguous groups of a forward-edged chain
    // cluster to an acyclic graph, whereas a backward edge (a feedback
    // loop carried by initial tokens) could deadlock the clustered graph.
    // Self-loops stay internal to any group and are harmless.
    let forward_edges = graph.edges().iter().all(|e| e.from.0 <= e.to.0);
    let fusion_limit = if forward_edges {
        config.max_group_size
    } else {
        1
    };
    let max_group_size = fusion_limit.clamp(1, n.max(1));
    let min_groups = n.div_ceil(max_group_size);
    if (config.tile_budget as usize) < min_groups {
        return Err(ExplorerError::BudgetTooSmall {
            min_groups,
            budget: config.tile_budget,
        });
    }
    Ok(max_group_size)
}

/// Run the search over a prebuilt arena.  `comm` is explicit (rather
/// than read from `config`) so comm sweeps reuse one arena — interval
/// costs do not depend on the frame.
fn run_search<'a>(
    config: &'a ExplorerConfig,
    ctx: &'a GraphContext,
    evaluator: &'a Evaluator,
    arena: &'a search::IntervalArena,
    max_group_size: usize,
    comm: Option<CommSpec>,
) -> Result<Searched<'a>, ExplorerError> {
    let outcome = search::prefix_dp(ctx, arena, config.tile_budget, max_group_size, comm);
    if outcome.winners().next().is_none() {
        // `plan_search` admits only budgets that host the fewest-group
        // grouping at one tile per group, and every interval offers a
        // 1-tile option, so only the frame can empty the last boundary.
        return Err(match comm {
            Some(comm) => ExplorerError::CommInfeasible {
                capacity: comm.capacity(),
                pruned: search::comm_rejected_groupings(ctx, max_group_size, comm.capacity()),
            },
            None => ExplorerError::NoSolutions,
        });
    }
    Ok(Searched {
        config,
        ctx,
        evaluator,
        arena,
        outcome,
    })
}

/// A search with at least one winner, and what packaging its winners
/// reads.  Winners are packaged from the arena's stored evaluations of
/// the options the DP chose; nothing is evaluated again.
struct Searched<'a> {
    config: &'a ExplorerConfig,
    ctx: &'a GraphContext,
    evaluator: &'a Evaluator,
    arena: &'a search::IntervalArena,
    outcome: search::SearchOutcome,
}

impl Searched<'_> {
    /// Rebuild `winner`'s groups and their stored evaluations, pipeline
    /// order, into `groups` and `evals`.
    fn rebuild(
        &self,
        winner: &search::Entry,
        groups: &mut space::Grouping,
        evals: &mut Vec<ColumnEval>,
    ) {
        groups.clear();
        evals.clear();
        for (start, end, tiles) in self.outcome.groups(winner) {
            groups.push((start, end));
            evals.push(
                *self
                    .arena
                    .eval(start, end, tiles)
                    .expect("the DP only picks options the arena holds"),
            );
        }
        groups.reverse();
        evals.reverse();
    }

    /// `winner` packaged as a public solution; `groups` and `evals` are
    /// reused buffers.
    fn solution(
        &self,
        winner: &search::Entry,
        groups: &mut space::Grouping,
        evals: &mut Vec<ColumnEval>,
    ) -> ExplorerSolution {
        self.rebuild(winner, groups, evals);
        let solution = package(
            self.ctx,
            self.evaluator,
            groups,
            evals,
            self.config.voltage_policy,
        );
        // The DP summed the same stored evaluations group by group, in
        // the order packaging sums them, so the totals must agree bit
        // for bit.  This checks the back-pointer walk and the packaging,
        // not the cost model: `evaluate_mapping`'s independent re-pricing
        // is pinned by the explorer property tests.  Under the
        // single-voltage policy the packaged cost is deliberately
        // re-priced at the shared supply, so the identity only holds for
        // the per-column relaxation the search ran on.
        if self.config.voltage_policy == VoltagePolicy::PerColumn {
            debug_assert_eq!(
                solution.power_mw.to_bits(),
                winner.power.to_bits(),
                "search cost diverged from packaged cost"
            );
            debug_assert_eq!(solution.feasible, winner.feasible);
        }
        solution
    }

    /// Package every winner: the curve (one solution per reachable tile
    /// count, tiles ascending), its Pareto frontier and the best.
    fn exploration(self) -> Exploration {
        let (mut groups, mut evals) = (Vec::new(), Vec::new());
        let curve: Vec<ExplorerSolution> = self
            .outcome
            .winners()
            .map(|winner| self.solution(winner, &mut groups, &mut evals))
            .collect();

        // The Pareto frontier covers achievable (feasible) designs; only
        // when nothing fits the envelope does it fall back to the whole
        // curve.
        let frontier_pool: Vec<&ExplorerSolution> = {
            let feasible: Vec<&ExplorerSolution> = curve.iter().filter(|s| s.feasible).collect();
            if feasible.is_empty() {
                curve.iter().collect()
            } else {
                feasible
            }
        };
        let points: Vec<(u32, f64)> = frontier_pool
            .iter()
            .map(|s| (s.total_tiles, s.power_mw))
            .collect();
        let frontier: Vec<ExplorerSolution> = pareto::frontier_indices(&points)
            .into_iter()
            .map(|i| frontier_pool[i].clone())
            .collect();
        let best = pick_best(curve.iter().map(|s| (s, s.power_mw, s.feasible)))
            .expect("a search has winners")
            .clone();
        Exploration {
            best,
            curve,
            frontier,
            stats: self.outcome.stats,
        }
    }

    /// Package the best winner alone: the one [`Searched::exploration`]
    /// would pick, by packaged price.  Under the per-column policy that
    /// is the DP's own sum; under the single-voltage policy each winner
    /// is re-priced, and only the best is packaged.
    fn best(self) -> (ExplorerSolution, SearchStats) {
        let (mut groups, mut evals) = (Vec::new(), Vec::new());
        let mut price = |winner: &search::Entry| match self.config.voltage_policy {
            VoltagePolicy::PerColumn => winner.power,
            VoltagePolicy::SingleVoltage => {
                self.rebuild(winner, &mut groups, &mut evals);
                packaged_evals(
                    self.ctx,
                    self.evaluator,
                    &groups,
                    &evals,
                    VoltagePolicy::SingleVoltage,
                )
                .fold(0.0, |power, (_, eval)| power + eval.power.total_mw())
            }
        };
        let winner = pick_best(
            self.outcome
                .winners()
                .map(|winner| (winner, price(winner), winner.feasible)),
        )
        .expect("a search has winners");
        let solution = self.solution(winner, &mut groups, &mut evals);
        (solution, self.outcome.stats)
    }
}

/// The first cheapest feasible point, or the first cheapest point when
/// none is feasible: the one rule every search picks its best by.
/// Points are `(point, power, feasible)`.
fn pick_best<T>(points: impl Iterator<Item = (T, f64, bool)>) -> Option<T> {
    let mut best: Option<(T, f64, bool)> = None;
    for (point, power, feasible) in points {
        let better = best
            .as_ref()
            .is_none_or(|&(_, p, f)| (feasible && !f) || (feasible == f && power < p));
        if better {
            best = Some((point, power, feasible));
        }
    }
    best.map(|(point, ..)| point)
}

/// Evaluate a hand-built mapping (one actor per placement, every actor
/// placed exactly once) under the explorer's cost model, so automatic and
/// reference mappings are compared on equal footing.
///
/// # Errors
///
/// Returns [`ExplorerError::InvalidConfig`] for a rate or efficiency the
/// cost model cannot price, [`ExplorerError::InvalidMapping`] /
/// [`ExplorerError::IncompleteMapping`] for ill-formed mappings, and
/// propagates graph-analysis failures.
pub fn evaluate_mapping(
    graph: &SdfGraph,
    mapping: &Mapping,
    config: &ExplorerConfig,
) -> Result<ExplorerSolution, ExplorerError> {
    let evaluator = Evaluator::new(&config.tech, config.iteration_rate_hz, config.efficiency)?;
    let violations = mapping.validate(graph);
    if !violations.is_empty() {
        return Err(ExplorerError::InvalidMapping { violations });
    }
    let mut placed = vec![false; graph.actors().len()];
    for p in mapping.placements() {
        if placed[p.actor.0] {
            return Err(ExplorerError::IncompleteMapping { actor: p.actor });
        }
        placed[p.actor.0] = true;
    }
    if let Some(missing) = placed.iter().position(|&p| !p) {
        return Err(ExplorerError::IncompleteMapping {
            actor: ActorId(missing),
        });
    }
    let ctx = GraphContext::new(graph)?;
    let groups: Vec<(usize, usize)> = mapping
        .placements()
        .iter()
        .map(|p| (p.actor.0, p.actor.0 + 1))
        .collect();
    let evals: Vec<ColumnEval> = groups
        .iter()
        .zip(mapping.placements())
        .map(|(&(start, end), p)| {
            evaluator.evaluate_column(
                ctx.group_work(start, end),
                ctx.group_cap(start, end),
                ctx.boundary_tokens(start, end),
                p.tiles,
            )
        })
        .collect();
    Ok(package(
        &ctx,
        &evaluator,
        &groups,
        &evals,
        config.voltage_policy,
    ))
}

/// One point of a bus-width sweep: the communication constraint the
/// exploration ran under and its outcome.
#[derive(Debug)]
pub struct BusWidthPoint {
    /// The frame the prune used (splits = the swept width).
    pub comm: CommSpec,
    /// The exploration at that width, or the structured infeasibility
    /// (typically [`ExplorerError::CommInfeasible`] for widths too narrow
    /// for any grouping).
    pub outcome: Result<Exploration, ExplorerError>,
}

/// Sweep the horizontal-bus width (words per cycle) as a search
/// dimension: re-explore `graph` under `config` with the
/// communication-feasibility prune set to each width in `widths`,
/// keeping `base`'s period and segment-group count.
///
/// Interval costs do not depend on the frame, so the sweep analyses the
/// graph and builds the [`search::IntervalArena`] once and reruns only
/// the DP per width — each point is bit-identical to an independent
/// [`explore`] call at that width.
pub fn explore_bus_widths(
    graph: &SdfGraph,
    config: &ExplorerConfig,
    base: CommSpec,
    widths: &[u32],
) -> Vec<BusWidthPoint> {
    let comm_of = |splits: u32| CommSpec {
        splits: splits.max(1),
        ..base
    };
    let shared = (|| {
        let ctx = GraphContext::new(graph).ok()?;
        let max_group_size = plan_search(graph, &ctx, config).ok()?;
        let evaluator =
            Evaluator::new(&config.tech, config.iteration_rate_hz, config.efficiency).ok()?;
        let arena = search::IntervalArena::build(
            &ctx,
            &evaluator,
            config.candidates,
            config.tile_budget,
            max_group_size,
        );
        Some((ctx, max_group_size, evaluator, arena))
    })();
    widths
        .iter()
        .map(|&splits| {
            let comm = comm_of(splits);
            let outcome = match &shared {
                Some((ctx, max_group_size, evaluator, arena)) => {
                    run_search(config, ctx, evaluator, arena, *max_group_size, Some(comm))
                        .map(Searched::exploration)
                }
                // Validation, analysis or planning failed: fall back to
                // the plain path so every point reports the structured
                // error.
                None => explore(graph, &config.clone().with_comm(comm)),
            };
            BusWidthPoint { comm, outcome }
        })
        .collect()
}

/// One point of a tile-budget sweep: the budget the exploration ran
/// under and its outcome.
#[derive(Debug)]
pub struct BudgetPoint {
    /// The tile budget of this point.
    pub budget: u32,
    /// The exploration at that budget, or its structured failure
    /// (typically [`ExplorerError::BudgetTooSmall`] for budgets below the
    /// minimum group count).
    pub outcome: Result<Exploration, ExplorerError>,
}

/// Sweep the tile budget as a search dimension: re-explore `graph` under
/// `config` at each budget in `budgets`.
///
/// The graph is analysed once.  The budget changes which tile counts each
/// interval offers, so the arena is rebuilt per point.  Each point is
/// bit-identical to an independent [`explore`] call at that budget.
pub fn explore_budget_sweep(
    graph: &SdfGraph,
    config: &ExplorerConfig,
    budgets: &[u32],
) -> Vec<BudgetPoint> {
    let at_budget = |budget: u32| ExplorerConfig {
        tile_budget: budget,
        ..config.clone()
    };
    let (Ok(evaluator), Ok(ctx)) = (
        Evaluator::new(&config.tech, config.iteration_rate_hz, config.efficiency),
        GraphContext::new(graph),
    ) else {
        // Invalid configuration or unanalysable graph: every point
        // reports the structured error.
        return budgets
            .iter()
            .map(|&budget| BudgetPoint {
                budget,
                outcome: explore(graph, &at_budget(budget)),
            })
            .collect();
    };
    budgets
        .iter()
        .map(|&budget| {
            let swept = at_budget(budget);
            let outcome = plan_search(graph, &ctx, &swept).and_then(|max_group_size| {
                let arena = search::IntervalArena::build(
                    &ctx,
                    &evaluator,
                    swept.candidates,
                    budget,
                    max_group_size,
                );
                run_search(&swept, &ctx, &evaluator, &arena, max_group_size, swept.comm)
                    .map(Searched::exploration)
            });
            BudgetPoint { budget, outcome }
        })
        .collect()
}

/// One chip of a board exploration: the contiguous actor range it hosts
/// and its winning per-chip solution.
#[derive(Debug, Clone)]
pub struct ChipExploration {
    /// First actor (inclusive) of the chip's range in the original graph.
    pub start: usize,
    /// One past the last actor of the chip's range.
    pub end: usize,
    /// The chip-local winner: single-actor columns over the chip's
    /// subgraph, actor ids local to the range (add `start` to recover
    /// the original ids).
    pub solution: ExplorerSolution,
}

/// The result of one [`explore_board`] run: a contiguous partition of
/// the graph across chips, one feasible exploration per chip, and the
/// inter-chip traffic the partition commits to the bridges.
#[derive(Debug, Clone)]
pub struct BoardExploration {
    /// Per-chip ranges and solutions, in pipeline order.
    pub chips: Vec<ChipExploration>,
    /// Words per graph iteration crossing chip boundaries (the demand
    /// the chip-to-chip bridge lanes must carry).
    pub bridge_words_per_iteration: u64,
    /// Candidate splits whose per-chip explorations were attempted
    /// before (and including) the winner.
    pub splits_tried: usize,
    /// Search counters summed over the winning split's per-chip runs.
    pub stats: SearchStats,
}

impl BoardExploration {
    /// Chips in the winning partition.
    pub fn chip_count(&self) -> usize {
        self.chips.len()
    }

    /// Total tiles across every chip.
    pub fn total_tiles(&self) -> u32 {
        self.chips.iter().map(|c| c.solution.total_tiles).sum()
    }

    /// Total compute power across every chip (mW, excluding bridge
    /// transfer energy — that is priced by `synchro-power` from the
    /// simulated bridge slot activity).
    pub fn total_power_mw(&self) -> f64 {
        self.chips.iter().map(|c| c.solution.power_mw).sum()
    }

    /// The chip-qualified mapping over the *original* graph, ready for
    /// board compilation: chip `c`'s columns become
    /// `place_on_chip(c, ..)` placements in pipeline order.
    pub fn mapping(&self) -> Mapping {
        let mut mapping = Mapping::new();
        for (chip, ce) in self.chips.iter().enumerate() {
            for col in &ce.solution.columns {
                mapping.place_on_chip(
                    chip,
                    ActorId(ce.start + col.actors.start),
                    col.tiles,
                    ce.solution.efficiency,
                );
            }
        }
        mapping
    }
}

/// Shard `graph` across up to [`BoardSearch::max_chips`] chips: try chip
/// counts ascending (a feasible single chip needs no board), and per
/// count rank every contiguous split min-cut first (fewest cut words,
/// then best work balance), attempting per-chip explorations — each chip
/// budgeted at `config.tile_budget` and pruned by `config.comm` — until
/// one split is feasible on every chip.
///
/// Each chip's subgraph keeps its actors' global firing rates: a range
/// whose repetition counts share a factor `g` iterates `g` times faster
/// than the whole graph, so its exploration runs at
/// `iteration_rate_hz × g`.  Board exploration is restricted to
/// single-actor columns so the winning mapping stays expressible over
/// the original graph (fusion-aware partitioning is a recorded
/// follow-up).
///
/// Reads the partition bounds from [`ExplorerConfig::board`]
/// (defaulting to [`BoardSearch::default`] when unset).
///
/// # Errors
///
/// [`ExplorerError::BoardInfeasible`] when no attempted split is
/// feasible on every chip; [`ExplorerError::InvalidConfig`] (for the
/// board's rate or a chip's scaled rate) and analysis errors propagate as
/// in [`explore`].
pub fn explore_board(
    graph: &SdfGraph,
    config: &ExplorerConfig,
) -> Result<BoardExploration, ExplorerError> {
    let result = explore_board_impl(graph, config);
    reject_on_err(&config.trace, &result);
    result
}

fn explore_board_impl(
    graph: &SdfGraph,
    config: &ExplorerConfig,
) -> Result<BoardExploration, ExplorerError> {
    check_inputs(&config.tech, config.iteration_rate_hz, config.efficiency)?;
    let board = config.board.unwrap_or_default();
    let ctx = GraphContext::new(graph)?;
    let reps = graph.repetition_vector()?;
    let n = ctx.n;
    let max_chips = board.max_chips.clamp(1, n.max(1));
    let mut splits_tried = 0usize;
    // A split ranked by (bridge cut words, work imbalance, lexicographic).
    type RankedSplit = (u64, u64, Vec<(usize, usize)>);
    for chips in 1..=max_chips {
        let mut candidates: Vec<RankedSplit> = contiguous_splits(n, chips)
            .into_iter()
            .map(|split| {
                let cut = ctx.grouping_cross_words(&split);
                let works: Vec<u64> = split
                    .iter()
                    .map(|&(start, end)| ctx.group_work(start, end))
                    .collect();
                let imbalance = works.iter().max().unwrap_or(&0) - works.iter().min().unwrap_or(&0);
                (cut, imbalance, split)
            })
            .collect();
        candidates.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        for (cut, _, split) in candidates
            .into_iter()
            .take(board.splits_per_chip_count.max(1))
        {
            // Bridge-capacity prune: the board-level analogue of the
            // per-chip comm prune — a split whose cut traffic cannot fit
            // the bridges is unschedulable under any per-chip mapping.
            if board.bridge_capacity.is_some_and(|cap| cut > cap) {
                continue;
            }
            splits_tried += 1;
            if let Some((chips, stats)) = explore_split(graph, config, &reps, &split)? {
                return Ok(BoardExploration {
                    chips,
                    bridge_words_per_iteration: cut,
                    splits_tried,
                    stats,
                });
            }
        }
    }
    Err(ExplorerError::BoardInfeasible {
        max_chips,
        splits_tried,
    })
}

/// Every way to split `0..n` into `chips` non-empty contiguous ranges.
fn contiguous_splits(n: usize, chips: usize) -> Vec<Vec<(usize, usize)>> {
    fn recurse(
        n: usize,
        chips: usize,
        cuts: &mut Vec<usize>,
        result: &mut Vec<Vec<(usize, usize)>>,
    ) {
        let placed = cuts.len();
        if placed == chips - 1 {
            let mut split = Vec::with_capacity(chips);
            let mut start = 0usize;
            for &cut in cuts.iter() {
                split.push((start, cut));
                start = cut;
            }
            split.push((start, n));
            result.push(split);
            return;
        }
        let lower = cuts.last().map_or(1, |&c| c + 1);
        // Leave room for the remaining boundaries (strictly increasing,
        // all below n).
        let upper = n - (chips - 1 - placed - 1) - 1;
        for cut in lower..=upper {
            cuts.push(cut);
            recurse(n, chips, cuts, result);
            cuts.pop();
        }
    }
    if chips == 0 || chips > n {
        return Vec::new();
    }
    let mut result = Vec::new();
    let mut cuts = Vec::with_capacity(chips.saturating_sub(1));
    recurse(n, chips, &mut cuts, &mut result);
    result
}

/// A split's per-chip winners and summed search counters, or `None` when
/// the split is rejected.
type SplitOutcome = Option<(Vec<ChipExploration>, SearchStats)>;

/// Attempt one split: explore every chip's subgraph independently and
/// accept only when every chip's winner is feasible.  Any other per-chip
/// failure (budget, comm, infeasible envelope, inconsistent subgraph)
/// rejects the split with `Ok(None)`; an invalid chip configuration (a
/// scaled rate that overflows) is returned.
fn explore_split(
    graph: &SdfGraph,
    config: &ExplorerConfig,
    reps: &[u64],
    split: &[(usize, usize)],
) -> Result<SplitOutcome, ExplorerError> {
    let mut chips = Vec::with_capacity(split.len());
    let mut stats = SearchStats::default();
    for &(start, end) in split {
        let Some((sub, rate_factor)) = chip_subgraph(graph, reps, start, end) else {
            return Ok(None);
        };
        let (best, chip_stats) = match explore_best(&sub, &chip_config(config, rate_factor)) {
            Ok(found) => found,
            Err(e @ ExplorerError::InvalidConfig { .. }) => return Err(e),
            Err(_) => return Ok(None),
        };
        if !best.feasible {
            return Ok(None);
        }
        stats.mappings_evaluated += chip_stats.mappings_evaluated;
        stats.groupings_examined += chip_stats.groupings_examined;
        stats.states_pruned += chip_stats.states_pruned;
        stats.groupings_comm_pruned += chip_stats.groupings_comm_pruned;
        stats.threads_used = stats.threads_used.max(chip_stats.threads_used);
        stats.elapsed_seconds += chip_stats.elapsed_seconds;
        chips.push(ChipExploration {
            start,
            end,
            solution: best,
        });
    }
    Ok(Some((chips, stats)))
}

/// The configuration one chip of a split is searched under: single-actor
/// columns at `rate_factor` times the board's rate.  The chip's subgraph
/// iterates `rate_factor` times per board iteration and counts its cross
/// words per its own iteration, so its frame is the bus cycles of one of
/// those: what `CommSpec::from_clock` gives at the scaled rate.
fn chip_config(config: &ExplorerConfig, rate_factor: u64) -> ExplorerConfig {
    ExplorerConfig {
        iteration_rate_hz: config.iteration_rate_hz * rate_factor as f64,
        max_group_size: 1,
        comm: config.comm.map(|comm| CommSpec {
            period: comm.period / rate_factor,
            ..comm
        }),
        board: None,
        ..config.clone()
    }
}

/// Extract the contiguous actor range `start..end` as a standalone graph
/// with its internal edges, returning it with the range's iteration-rate
/// factor: the gcd `g` of the range's repetition counts (the subgraph's
/// own repetition vector is the range's counts divided by `g`, so it
/// iterates `g` times per whole-graph iteration).  Returns `None` when
/// the extracted range does not normalise that way (e.g. a disconnected
/// range whose components renormalise independently) — such a split
/// cannot preserve per-actor firing rates and is rejected.
fn chip_subgraph(
    graph: &SdfGraph,
    reps: &[u64],
    start: usize,
    end: usize,
) -> Option<(SdfGraph, u64)> {
    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let rate_factor = reps[start..end].iter().copied().fold(0u64, gcd);
    if rate_factor == 0 {
        return None;
    }
    let mut sub = SdfGraph::new();
    for actor in &graph.actors()[start..end] {
        sub.add_actor(
            actor.name.clone(),
            actor.cycles_per_firing,
            actor.max_parallel_tiles,
        );
    }
    for edge in graph.edges() {
        if (start..end).contains(&edge.from.0) && (start..end).contains(&edge.to.0) {
            sub.add_edge(
                ActorId(edge.from.0 - start),
                ActorId(edge.to.0 - start),
                edge.produce,
                edge.consume,
                edge.initial_tokens,
            )
            .ok()?;
        }
    }
    let expected: Vec<u64> = reps[start..end].iter().map(|&r| r / rate_factor).collect();
    if sub.repetition_vector().ok()? != expected {
        return None;
    }
    Some((sub, rate_factor))
}

/// Stable hooks for the repo's criterion benches, exposing the search
/// core's internal stages (interval-arena build, prefix DP) so per-stage
/// regressions are visible without making the internals part of the
/// supported API.  Not for downstream use.
#[doc(hidden)]
pub mod perf {
    use crate::model::{Evaluator, GraphContext};
    use crate::search::{prefix_dp, IntervalArena};
    use crate::{plan_search, CommSpec, ExplorerConfig, ExplorerError};
    use synchro_sdf::SdfGraph;

    /// A graph analysed and interval-evaluated once, ready to run DP
    /// passes without rebuilding the arena.
    pub struct PreparedSearch {
        ctx: GraphContext,
        arena: IntervalArena,
        budget: u32,
        max_group_size: usize,
        comm: Option<CommSpec>,
    }

    impl PreparedSearch {
        /// Analyse `graph`, validate `config` as [`crate::explore`] does,
        /// and build the interval arena.
        ///
        /// # Errors
        ///
        /// Propagates graph-analysis and budget failures.
        pub fn new(graph: &SdfGraph, config: &ExplorerConfig) -> Result<Self, ExplorerError> {
            let ctx = GraphContext::new(graph)?;
            let max_group_size = plan_search(graph, &ctx, config)?;
            let evaluator =
                Evaluator::new(&config.tech, config.iteration_rate_hz, config.efficiency)?;
            let arena = IntervalArena::build(
                &ctx,
                &evaluator,
                config.candidates,
                config.tile_budget,
                max_group_size,
            );
            Ok(PreparedSearch {
                ctx,
                arena,
                budget: config.tile_budget,
                max_group_size,
                comm: config.comm,
            })
        }

        /// Total interval options evaluated into the arena.
        pub fn option_count(&self) -> usize {
            self.arena.option_count()
        }

        /// Run the prefix DP once (winners rebuilt, not realized) and
        /// return the partial mappings it evaluated.
        pub fn run_dp(&self) -> u64 {
            prefix_dp(
                &self.ctx,
                &self.arena,
                self.budget,
                self.max_group_size,
                self.comm,
            )
            .stats
            .mappings_evaluated
        }
    }
}

/// Package per-column evaluations (one per group of `groups`, pipeline
/// order) as a public solution.  Under [`VoltagePolicy::SingleVoltage`]
/// every column is re-priced at the chip-wide maximum required voltage
/// (the same semantics the analytic pipeline's single-voltage comparison
/// uses).
fn package(
    ctx: &GraphContext,
    evaluator: &Evaluator,
    groups: &[(usize, usize)],
    evals: &[ColumnEval],
    policy: VoltagePolicy,
) -> ExplorerSolution {
    let mut columns = Vec::with_capacity(groups.len());
    let mut total_tiles = 0;
    let mut power_mw = 0.0;
    let mut feasible = true;
    for ((start, end), eval) in packaged_evals(ctx, evaluator, groups, evals, policy) {
        total_tiles += eval.tiles;
        power_mw += eval.power.total_mw();
        feasible &= eval.within_envelope;
        columns.push(ColumnSolution {
            actors: start..end,
            tiles: eval.tiles,
            frequency_mhz: eval.frequency_mhz,
            voltage: eval.voltage,
            within_envelope: eval.within_envelope,
            power: eval.power,
        });
    }
    ExplorerSolution {
        columns,
        total_tiles,
        power_mw,
        feasible,
        efficiency: evaluator.efficiency(),
    }
}

/// Each group of `groups` with the evaluation [`package`] prices it at:
/// its own under [`VoltagePolicy::PerColumn`], re-priced at the chip-wide
/// maximum required voltage under [`VoltagePolicy::SingleVoltage`].
fn packaged_evals<'a>(
    ctx: &'a GraphContext,
    evaluator: &'a Evaluator,
    groups: &'a [(usize, usize)],
    evals: &'a [ColumnEval],
    policy: VoltagePolicy,
) -> impl Iterator<Item = ((usize, usize), ColumnEval)> + 'a {
    let shared = (policy == VoltagePolicy::SingleVoltage)
        .then(|| evals.iter().map(|e| e.voltage).fold(0.0, f64::max));
    groups.iter().zip(evals).map(move |(&(start, end), eval)| {
        let eval = match shared {
            Some(voltage) => evaluator.reprice_at_voltage(
                eval,
                ctx.group_cap(start, end),
                ctx.boundary_tokens(start, end),
                voltage,
            ),
            None => *eval,
        };
        ((start, end), eval)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The DDC front end (Table 4 cycle counts) at 16 M iterations/s.
    fn ddc() -> SdfGraph {
        let mut g = SdfGraph::new();
        let mixer = g.add_actor("Digital Mixer", 15, 16);
        let integ = g.add_actor("CIC Integrator", 25, 16);
        let comb = g.add_actor("CIC Comb", 5, 4);
        let cfir = g.add_actor("CFIR", 380, 32);
        let pfir = g.add_actor("PFIR", 370, 32);
        g.add_edge(mixer, integ, 1, 1, 0).unwrap();
        g.add_edge(integ, comb, 1, 4, 0).unwrap();
        g.add_edge(comb, cfir, 1, 1, 0).unwrap();
        g.add_edge(cfir, pfir, 1, 1, 0).unwrap();
        g
    }

    fn ddc_reference_mapping(g: &SdfGraph) -> Mapping {
        let mut m = Mapping::new();
        for (i, tiles) in [8u32, 8, 2, 16, 16].into_iter().enumerate() {
            m.place(ActorId(i), tiles, 1.0);
        }
        let _ = g;
        m
    }

    #[test]
    fn single_actor_search_rediscovers_the_table4_ddc_mapping() {
        let g = ddc();
        let config = ExplorerConfig::new(16e6, 50).single_actor_columns();
        let exploration = explore(&g, &config).unwrap();
        let at_budget = exploration.solution_for_tiles(50).expect("50 reachable");
        assert_eq!(at_budget.allocation(), vec![8, 8, 2, 16, 16]);
        let freqs = at_budget.frequencies_mhz();
        for (got, want) in freqs.iter().zip([120.0, 200.0, 40.0, 380.0, 370.0]) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
        assert!(at_budget.feasible);
        // The overall winner is at least as cheap as the hand mapping.
        let reference = evaluate_mapping(&g, &ddc_reference_mapping(&g), &config).unwrap();
        assert!(exploration.best.power_mw <= reference.power_mw + 1e-9);
    }

    #[test]
    fn grouping_search_beats_the_hand_built_ddc_mapping() {
        let g = ddc();
        let config = ExplorerConfig::new(16e6, 50);
        let grouped = explore(&g, &config).unwrap();
        let reference = evaluate_mapping(&g, &ddc_reference_mapping(&g), &config).unwrap();
        assert!(
            grouped.best.power_mw < reference.power_mw,
            "fusion should beat the reference: {} vs {}",
            grouped.best.power_mw,
            reference.power_mw
        );
        assert!(grouped.best.feasible);
    }

    #[test]
    fn engines_agree_on_best_and_frontier() {
        // The prefix DP against the exhaustive test oracle on the DDC:
        // every tile count, the best power and the frontier agree.
        let g = ddc();
        let config = ExplorerConfig::new(16e6, 40);
        let dp = explore(&g, &config).unwrap();
        let ctx = GraphContext::new(&g).unwrap();
        let evaluator = Evaluator::new(&config.tech, config.iteration_rate_hz, 1.0).unwrap();
        let (oracle, _) =
            search::reference::exhaustive(&ctx, &evaluator, config.candidates, 40, 5, None);
        let curve: Vec<(u32, u64)> = dp
            .curve
            .iter()
            .map(|s| (s.total_tiles, s.power_mw.to_bits()))
            .collect();
        let expected: Vec<(u32, u64)> = oracle
            .iter()
            .map(|c| (c.allocation.iter().sum(), c.power_mw.to_bits()))
            .collect();
        assert_eq!(curve, expected);
        let feasible: Vec<&search::Candidate> = oracle.iter().filter(|c| c.feasible).collect();
        let best = feasible
            .iter()
            .map(|c| c.power_mw)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(dp.best.power_mw.to_bits(), best.to_bits());
        let points: Vec<(u32, f64)> = feasible
            .iter()
            .map(|c| (c.allocation.iter().sum(), c.power_mw))
            .collect();
        let frontier: Vec<(u32, u64)> = pareto::frontier_indices(&points)
            .into_iter()
            .map(|i| (points[i].0, points[i].1.to_bits()))
            .collect();
        let got: Vec<(u32, u64)> = dp
            .frontier
            .iter()
            .map(|s| (s.total_tiles, s.power_mw.to_bits()))
            .collect();
        assert_eq!(got, frontier);
    }

    #[test]
    fn frontier_is_non_dominated_and_curve_respects_budget() {
        let g = ddc();
        let exploration = explore(&g, &ExplorerConfig::new(16e6, 50)).unwrap();
        assert!(!exploration.frontier.is_empty());
        for s in &exploration.curve {
            assert!(s.total_tiles <= 50);
            assert!(s.power_mw > 0.0);
        }
        for pair in exploration.frontier.windows(2) {
            assert!(pair[0].total_tiles < pair[1].total_tiles);
            assert!(pair[0].power_mw > pair[1].power_mw);
        }
        // The frontier covers feasible designs; no feasible curve point
        // may dominate a frontier point.
        for a in &exploration.frontier {
            for b in exploration.curve.iter().filter(|s| s.feasible) {
                assert!(
                    !(dominates(b.total_tiles, b.power_mw, a.total_tiles, a.power_mw)),
                    "frontier point dominated by a feasible curve point"
                );
            }
        }
    }

    #[test]
    fn realized_solutions_round_trip_through_requirements() {
        let g = ddc();
        let exploration = explore(&g, &ExplorerConfig::new(16e6, 50)).unwrap();
        for solution in exploration.frontier.iter().chain([&exploration.best]) {
            let (graph, mapping) = solution.realize(&g).unwrap();
            assert!(mapping.validate(&graph).is_empty());
            let requirements = mapping.requirements(&graph, 16e6).unwrap();
            for (req, col) in requirements.iter().zip(&solution.columns) {
                assert!(
                    (req.frequency_mhz - col.frequency_mhz).abs()
                        < 1e-6 * col.frequency_mhz.max(1.0),
                    "{}: {} vs {}",
                    col.name(&g),
                    req.frequency_mhz,
                    col.frequency_mhz
                );
            }
        }
    }

    #[test]
    fn budget_too_small_is_reported() {
        let g = ddc();
        let err = explore(&g, &ExplorerConfig::new(16e6, 3).single_actor_columns()).unwrap_err();
        assert!(matches!(
            err,
            ExplorerError::BudgetTooSmall {
                min_groups: 5,
                budget: 3
            }
        ));
        assert!(err.to_string().contains('5'));
    }

    #[test]
    fn failed_explorations_emit_structured_rejections() {
        use std::sync::Arc;
        use synchro_trace::RingBufferSink;

        let g = ddc();
        let ring = Arc::new(RingBufferSink::new(64));
        let config = ExplorerConfig::new(16e6, 3)
            .single_actor_columns()
            .with_trace(Trace::to(ring.clone()));
        let err = explore(&g, &config).unwrap_err();
        assert_eq!(err.code(), "budget_too_small");
        let rejects: Vec<(&'static str, String)> = ring
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::RouteReject { code, detail } => Some((*code, detail.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(rejects.len(), 1);
        assert_eq!(rejects[0].0, "budget_too_small");
        assert!(rejects[0].1.contains("tile budget 3"));
    }

    #[test]
    fn every_error_has_a_code_and_an_exhaustion_class() {
        let cases = [
            (ExplorerError::Sdf(SdfError::Empty), "sdf", false),
            (
                ExplorerError::BudgetTooSmall {
                    min_groups: 5,
                    budget: 3,
                },
                "budget_too_small",
                true,
            ),
            (ExplorerError::NoSolutions, "no_solutions", true),
            (
                ExplorerError::InvalidMapping { violations: vec![] },
                "invalid_mapping",
                false,
            ),
            (
                ExplorerError::IncompleteMapping { actor: ActorId(0) },
                "incomplete_mapping",
                false,
            ),
            (
                ExplorerError::CommInfeasible {
                    capacity: 6,
                    pruned: 1,
                },
                "comm_infeasible",
                true,
            ),
            (
                ExplorerError::BoardInfeasible {
                    max_chips: 2,
                    splits_tried: 3,
                },
                "board_infeasible",
                true,
            ),
            (
                ExplorerError::InvalidConfig {
                    field: "efficiency",
                    value: f64::NAN,
                },
                "invalid_config",
                false,
            ),
        ];
        for (err, code, exhaustion) in cases {
            assert_eq!(err.code(), code);
            assert_eq!(err.is_resource_exhaustion(), exhaustion, "{err}");
        }
    }

    /// A rate that is not finite and positive, a NaN efficiency, or a
    /// technology parameter `Technology::validate` rejects is a
    /// structured `InvalidConfig` from every public entry point.  Before,
    /// a NaN or infinite rate panicked while picking the best solution
    /// and a negative rate returned negative power marked feasible.  The
    /// degraded ladder and the board search return the error rather than
    /// walking past it or reporting `BoardInfeasible`.
    #[test]
    fn invalid_rates_and_efficiency_are_rejected_at_every_entry_point() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", 100, 4);
        let b = g.add_actor("b", 100, 4);
        g.add_edge(a, b, 1, 1, 0).unwrap();
        let mut mapping = Mapping::new();
        mapping.place(a, 2, 1.0);
        mapping.place(b, 2, 1.0);
        let losses = [ResourceLoss::column("one tile", 1)];
        let mut cases: Vec<(ExplorerConfig, &str, f64)> = [f64::NAN, f64::INFINITY, 0.0, -1e6]
            .into_iter()
            .map(|rate| (ExplorerConfig::new(rate, 8), "iteration_rate_hz", rate))
            .collect();
        let mut nan_efficiency = ExplorerConfig::new(1e6, 8);
        nan_efficiency.efficiency = f64::NAN;
        cases.push((nan_efficiency, "efficiency", f64::NAN));
        // Technology parameters `Technology::validate` rejects.  A NaN
        // power parameter or column-bus length, or an infinite floor
        // voltage, used to panic on the best-solution pick; a NaN voltage
        // or feature size returned a finite power marked feasible.
        type Setter = fn(&mut Technology, f64);
        let tech_cases: [(&str, Setter, f64); 10] = [
            (
                "tile_power_mw_per_mhz",
                |t, v| t.tile_power_mw_per_mhz = v,
                f64::NAN,
            ),
            (
                "leakage_ma_per_tile",
                |t, v| t.leakage_ma_per_tile = v,
                f64::NAN,
            ),
            (
                "wire_cap_ff_per_mm",
                |t, v| t.wire_cap_ff_per_mm = v,
                f64::NAN,
            ),
            (
                "column_bus_length_mm",
                |t, v| t.column_bus_length_mm = v,
                f64::NAN,
            ),
            (
                "chip_bus_length_mm",
                |t, v| t.chip_bus_length_mm = v,
                f64::NAN,
            ),
            ("min_voltage", |t, v| t.min_voltage = v, f64::INFINITY),
            ("max_voltage", |t, v| t.max_voltage = v, f64::NAN),
            (
                "threshold_voltage",
                |t, v| t.threshold_voltage = v,
                f64::NAN,
            ),
            ("feature_nm", |t, v| t.feature_nm = v, f64::NAN),
            (
                "column_bus_length_mm",
                |t, v| t.column_bus_length_mm = v,
                -1.0,
            ),
        ];
        for (field, set, value) in tech_cases {
            let mut tech = Technology::isca2004();
            set(&mut tech, value);
            cases.push((ExplorerConfig::new(1e6, 8).with_tech(tech), field, value));
        }
        for (config, field, value) in cases {
            let board = config.clone().with_board(BoardSearch::new(2));
            let check = |entry: &str, result: Result<(), ExplorerError>| match result {
                Err(ExplorerError::InvalidConfig { field: f, value: v }) => {
                    assert_eq!((f, v.to_bits()), (field, value.to_bits()), "{entry}");
                }
                other => panic!("{entry} with {field} = {value}: {other:?}"),
            };
            check("explore", explore(&g, &config).map(drop));
            check(
                "evaluate_mapping",
                evaluate_mapping(&g, &mapping, &config).map(drop),
            );
            check("explore_board", explore_board(&g, &board).map(drop));
            check(
                "explore_degraded",
                explore_degraded(&g, &config, &losses).map(drop),
            );
            check(
                "explore_degraded (no losses)",
                explore_degraded(&g, &config, &[]).map(drop),
            );
            check(
                "explore_degraded_board",
                explore_degraded_board(&g, &board, &losses).map(drop),
            );
            for point in explore_bus_widths(&g, &config, CommSpec::new(1, 8), &[1, 2]) {
                check("explore_bus_widths", point.outcome.map(drop));
            }
            for point in explore_budget_sweep(&g, &config, &[4, 8]) {
                check("explore_budget_sweep", point.outcome.map(drop));
            }
            check(
                "PreparedSearch::new",
                perf::PreparedSearch::new(&g, &config).map(drop),
            );
        }
    }

    #[test]
    fn evaluate_mapping_rejects_malformed_mappings() {
        let g = ddc();
        let config = ExplorerConfig::new(16e6, 50);
        let mut over = Mapping::new();
        for (i, tiles) in [8u32, 8, 9, 16, 16].into_iter().enumerate() {
            over.place(ActorId(i), tiles, 1.0); // comb cap is 4
        }
        assert!(matches!(
            evaluate_mapping(&g, &over, &config),
            Err(ExplorerError::InvalidMapping { .. })
        ));
        let mut partial = Mapping::new();
        partial.place(ActorId(0), 8, 1.0);
        assert!(matches!(
            evaluate_mapping(&g, &partial, &config),
            Err(ExplorerError::IncompleteMapping { .. })
        ));
    }

    #[test]
    fn backward_edges_disable_fusion_so_winners_stay_realizable() {
        // A valid DAG whose actor-id order is not topological: a0 → a2 → a1.
        // Fusing the index-adjacent (but dataflow-non-adjacent) a0+a1
        // would cluster into a deadlocked cycle, so the search must fall
        // back to single-actor columns.
        let mut g = SdfGraph::new();
        let a0 = g.add_actor("a0", 100, 8);
        let a1 = g.add_actor("a1", 150, 8);
        let a2 = g.add_actor("a2", 120, 8);
        g.add_edge(a0, a2, 1, 1, 0).unwrap();
        g.add_edge(a2, a1, 1, 1, 0).unwrap();
        let exploration = explore(&g, &ExplorerConfig::new(1e6, 12)).unwrap();
        for solution in exploration.curve.iter().chain([&exploration.best]) {
            assert!(solution.is_single_actor_columns());
            let (graph, mapping) = solution.realize(&g).unwrap();
            assert!(graph.schedule().is_ok());
            assert!(mapping.validate(&graph).is_empty());
        }
    }

    #[test]
    fn infeasible_budgets_return_flagged_solutions() {
        // One serial actor that needs far more than the envelope allows.
        let mut g = SdfGraph::new();
        g.add_actor("serial", 5_000, 1);
        let exploration = explore(&g, &ExplorerConfig::new(1e6, 4)).unwrap();
        assert!(!exploration.best.feasible);
        assert!(exploration.best.columns[0].voltage > 1.7);
    }

    #[test]
    fn single_voltage_policy_costs_at_least_per_column() {
        let g = ddc();
        let per_column = ExplorerConfig::new(16e6, 50).single_actor_columns();
        let single = per_column
            .clone()
            .with_voltage_policy(VoltagePolicy::SingleVoltage);
        let pc = explore(&g, &per_column).unwrap();
        let sv = explore(&g, &single).unwrap();
        // Same mapping structure at the reference budget, higher cost.
        let pc50 = pc.solution_for_tiles(50).unwrap();
        let sv50 = sv.solution_for_tiles(50).unwrap();
        assert_eq!(pc50.allocation(), sv50.allocation());
        assert!(sv50.power_mw > pc50.power_mw);
        // Every column runs at the chip-wide maximum required voltage.
        let shared = pc50.columns.iter().map(|c| c.voltage).fold(0.0, f64::max);
        for col in &sv50.columns {
            assert!((col.voltage - shared).abs() < 1e-12, "{}", col.name(&g));
        }
        // Frequencies are unchanged — only the supply moved.
        assert_eq!(pc50.frequencies_mhz(), sv50.frequencies_mhz());
        // evaluate_mapping prices the reference mapping identically.
        let reference = evaluate_mapping(&g, &ddc_reference_mapping(&g), &single).unwrap();
        assert!((reference.power_mw - sv50.power_mw).abs() < 1e-9);
    }

    #[test]
    fn reference_comm_configuration_keeps_table4_points_schedulable() {
        // The DDC moves 10 words per iteration; the reference bus (one
        // split at 400 MHz over 16 M iterations/s → 25 slots) must keep
        // the Table 4 operating point intact.
        let g = ddc();
        let comm = CommSpec::from_clock(1, 400e6, 16e6);
        assert_eq!(comm.period, 25);
        let config = ExplorerConfig::new(16e6, 50)
            .single_actor_columns()
            .with_comm(comm);
        let exploration = explore(&g, &config).unwrap();
        assert_eq!(exploration.stats.groupings_comm_pruned, 0);
        let at_budget = exploration.solution_for_tiles(50).expect("50 reachable");
        assert_eq!(at_budget.allocation(), vec![8, 8, 2, 16, 16]);
        // A frame too small for the 10 words rejects the whole
        // single-actor space as communication-infeasible.
        let narrow = ExplorerConfig::new(16e6, 50)
            .single_actor_columns()
            .with_comm(CommSpec::new(1, 6));
        assert!(matches!(
            explore(&g, &narrow),
            Err(ExplorerError::CommInfeasible {
                capacity: 6,
                pruned: 1
            })
        ));
        // With fusion allowed, the search routes around the narrow bus by
        // fusing the rate-changing front end.
        let fused = explore(
            &g,
            &ExplorerConfig::new(16e6, 50).with_comm(CommSpec::new(1, 6)),
        )
        .unwrap();
        assert!(fused.stats.groupings_comm_pruned > 0);
        assert!(!fused.best.is_single_actor_columns());
    }

    #[test]
    fn bus_width_sweep_exposes_the_feasibility_knee() {
        let g = ddc();
        let config = ExplorerConfig::new(16e6, 50).single_actor_columns();
        // Period 6: a single split (6 slots) cannot carry the 10 words,
        // two splits (12 slots) can.
        let points = explore_bus_widths(&g, &config, CommSpec::new(1, 6), &[1, 2, 4]);
        assert_eq!(points.len(), 3);
        assert!(matches!(
            points[0].outcome,
            Err(ExplorerError::CommInfeasible { .. })
        ));
        for point in &points[1..] {
            let exploration = point.outcome.as_ref().expect("wide enough");
            assert!(exploration.best.feasible);
        }
        assert_eq!(points[2].comm.splits, 4);
        // Segment groups widen the optimistic capacity the same way.
        assert_eq!(CommSpec::new(1, 6).with_segment_groups(2).capacity(), 12);
    }

    #[test]
    fn stats_count_work_and_record_threads() {
        let g = ddc();
        let exploration = explore(&g, &ExplorerConfig::new(16e6, 50)).unwrap();
        assert!(exploration.stats.mappings_evaluated > 0);
        assert!(exploration.stats.groupings_examined >= 1);
        assert_eq!(exploration.stats.threads_used, 1);
        assert!(exploration.stats.elapsed_seconds >= 0.0);
    }

    #[test]
    fn comm_aware_search_finds_the_optimum_above_sixteen_actors() {
        // An 18-stage chain under a 25-slot frame.  A front capped at
        // max(budget + 1, 64) partials per prefix dropped the optimal
        // prefix here and returned a 485.76 mW mapping; the uncapped
        // DP finds the 476.61 mW optimum.
        let costs = [
            267u64, 98, 197, 365, 279, 392, 297, 131, 329, 182, 287, 105, 405, 116, 300, 276, 306,
            397,
        ];
        let caps = [1u32, 8, 1, 4, 2, 16, 4, 8, 1, 4, 1, 4, 8, 8, 2, 1, 2, 8];
        let tokens = [2u64, 2, 3, 3, 3, 3, 1, 1, 1, 3, 1, 1, 1, 1, 1, 3, 2];
        let mut g = SdfGraph::new();
        let actors: Vec<ActorId> = costs
            .iter()
            .zip(&caps)
            .enumerate()
            .map(|(i, (&cycles, &cap))| g.add_actor(format!("s{i}"), cycles, cap))
            .collect();
        for (i, &t) in tokens.iter().enumerate() {
            g.add_edge(actors[i], actors[i + 1], t, t, 0).unwrap();
        }
        let config = ExplorerConfig::new(1e6, 63).with_comm(CommSpec::new(1, 25));
        let exploration = explore(&g, &config).unwrap();
        assert!(exploration.best.feasible);
        assert_eq!(
            exploration.best.power_mw.to_bits(),
            476.606805248f64.to_bits(),
            "{} mW",
            exploration.best.power_mw
        );
        let groups: Vec<(usize, usize)> = exploration
            .best
            .columns
            .iter()
            .map(|c| (c.actors.start, c.actors.end))
            .collect();
        let ctx = GraphContext::new(&g).unwrap();
        assert!(ctx.grouping_cross_words(&groups) <= 25);
    }

    #[test]
    fn budget_sweep_matches_fresh_explores_bit_for_bit() {
        let g = ddc();
        let config = ExplorerConfig::new(16e6, 50).single_actor_columns();
        let budgets = [50u32, 40, 24, 3];
        let points = explore_budget_sweep(&g, &config, &budgets);
        assert_eq!(points.len(), budgets.len());
        for (point, &budget) in points.iter().zip(&budgets) {
            assert_eq!(point.budget, budget);
            let fresh = explore(
                &g,
                &ExplorerConfig {
                    tile_budget: budget,
                    ..config.clone()
                },
            );
            match (&point.outcome, &fresh) {
                (Ok(swept), Ok(full)) => {
                    assert_eq!(
                        swept.best.power_mw.to_bits(),
                        full.best.power_mw.to_bits(),
                        "budget {budget}"
                    );
                    assert_eq!(swept.best.allocation(), full.best.allocation());
                    let curve = |e: &Exploration| {
                        e.curve
                            .iter()
                            .map(|s| (s.total_tiles, s.power_mw.to_bits()))
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(curve(swept), curve(full));
                }
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                (a, b) => panic!("budget {budget}: sweep {a:?} vs fresh {b:?}"),
            }
        }
        assert!(matches!(
            points[3].outcome,
            Err(ExplorerError::BudgetTooSmall { .. })
        ));
    }

    #[test]
    fn board_of_one_matches_the_single_chip_explorer() {
        let g = ddc();
        let config = ExplorerConfig::new(16e6, 50).with_board(BoardSearch::new(1));
        let board = explore_board(&g, &config).unwrap();
        assert_eq!(board.chip_count(), 1);
        assert_eq!(board.bridge_words_per_iteration, 0);
        assert_eq!((board.chips[0].start, board.chips[0].end), (0, 5));
        // A one-chip board degenerates to the single-chip single-actor
        // search, bit for bit.
        let single = explore(&g, &ExplorerConfig::new(16e6, 50).single_actor_columns()).unwrap();
        assert_eq!(
            board.chips[0].solution.power_mw.to_bits(),
            single.best.power_mw.to_bits()
        );
        assert_eq!(
            board.chips[0].solution.allocation(),
            single.best.allocation()
        );
        let mapping = board.mapping();
        assert_eq!(mapping.chips(), 1);
        assert!(mapping.validate_on_board(&g, 1).is_empty());
    }

    #[test]
    fn board_splits_a_comm_starved_graph_across_two_chips() {
        // The single-actor DDC needs 10 cross words per iteration; a
        // 6-slot frame rejects every single-chip mapping (see
        // `reference_comm_configuration_keeps_table4_points_schedulable`)
        // but a 2-chip split routes the worst boundary over a bridge.
        let comm = CommSpec::new(1, 6);
        let config = ExplorerConfig::new(16e6, 50)
            .single_actor_columns()
            .with_comm(comm)
            .with_board(BoardSearch::new(2));
        let board = explore_board(&ddc(), &config).unwrap();
        assert_eq!(board.chip_count(), 2);
        // The winner is the best balanced split whose chips both fit the
        // frame: mixer+integrator on chip 0 (no internal traffic beyond
        // the fused front end), the rest on chip 1 (6 words ≤ 6 slots),
        // with the 4-word rate-change boundary on the bridge.
        assert_eq!((board.chips[0].start, board.chips[0].end), (0, 2));
        assert_eq!((board.chips[1].start, board.chips[1].end), (2, 5));
        assert_eq!(board.bridge_words_per_iteration, 4);
        assert!(board.splits_tried >= 2, "cheaper cuts are tried first");
        for chip in &board.chips {
            assert!(chip.solution.feasible);
        }
        assert!(board.total_tiles() > 0);
        assert!(board.total_power_mw() > 0.0);
        let mapping = board.mapping();
        assert_eq!(mapping.chips(), 2);
        assert_eq!(mapping.placements().len(), 5);
        assert!(mapping.validate_on_board(&ddc(), 2).is_empty());
        // The chip-local actor ids recover the original actors: chip 1's
        // first column is the CIC comb (global actor 2).
        assert_eq!(mapping.placements()[2].actor, ActorId(2));
        assert_eq!(mapping.placements()[2].chip, 1);
    }

    #[test]
    fn board_search_reports_exhaustion_and_respects_bridge_capacity() {
        // No frame capacity at all: every split leaves some chip with
        // internal traffic, so the whole board space is infeasible.
        let starved = ExplorerConfig::new(16e6, 50)
            .single_actor_columns()
            .with_comm(CommSpec::new(1, 0))
            .with_board(BoardSearch::new(2));
        let err = explore_board(&ddc(), &starved).unwrap_err();
        assert!(matches!(
            err,
            ExplorerError::BoardInfeasible { max_chips: 2, .. }
        ));
        assert!(err.to_string().contains("2 chip"));
        // A zero-capacity bridge prunes every multi-chip split before it
        // is attempted: only the (infeasible) single-chip split is tried.
        let bridgeless = ExplorerConfig::new(16e6, 50)
            .single_actor_columns()
            .with_comm(CommSpec::new(1, 6))
            .with_board(BoardSearch::new(4).with_bridge_capacity(0));
        let err = explore_board(&ddc(), &bridgeless).unwrap_err();
        assert!(matches!(
            err,
            ExplorerError::BoardInfeasible {
                max_chips: 4,
                splits_tried: 1
            }
        ));
    }

    #[test]
    fn board_chips_preserve_global_firing_rates() {
        // Chip 0 hosts the 4×-rate front end (mixer + integrator fire
        // four times per graph iteration): its subgraph's repetition
        // vector normalises to [1, 1], so its sub-exploration must run
        // at 4 × 16 MHz for the actors to keep their global work rates.
        // Every column's frequency must therefore equal the actor's
        // whole-graph work (cycles × repetitions × 16 MHz) over its
        // tiles, exactly as on a single chip.
        let comm = CommSpec::new(1, 6);
        let config = ExplorerConfig::new(16e6, 50)
            .single_actor_columns()
            .with_comm(comm)
            .with_board(BoardSearch::new(2));
        let board = explore_board(&ddc(), &config).unwrap();
        let cycles = [15.0f64, 25.0, 5.0, 380.0, 370.0];
        let reps = [4.0f64, 4.0, 1.0, 1.0, 1.0];
        for chip in &board.chips {
            for col in &chip.solution.columns {
                let global = chip.start + col.actors.start;
                let want = cycles[global] * reps[global] * 16.0 / col.tiles as f64;
                assert!(
                    (col.frequency_mhz - want).abs() < 1e-6 * want,
                    "actor {global}: {} vs {want}",
                    col.frequency_mhz
                );
            }
        }
    }

    /// A pipeline chain; edge `i → i + 1` produces and consumes
    /// `rates[i]` tokens per firing.
    fn rated_chain(cycles: &[u64], caps: &[u32], rates: &[(u64, u64)]) -> SdfGraph {
        let mut graph = SdfGraph::new();
        let mut prev = None;
        for (i, (&c, &cap)) in cycles.iter().zip(caps).enumerate() {
            let actor = graph.add_actor(format!("a{i}"), c, cap);
            if let Some(p) = prev {
                let (produce, consume) = rates[i - 1];
                graph.add_edge(p, actor, produce, consume, 0).unwrap();
            }
            prev = Some(actor);
        }
        graph
    }

    /// Every search counter but the time.
    fn counters(stats: &SearchStats) -> [u64; 5] {
        [
            stats.mappings_evaluated,
            stats.groupings_examined,
            stats.states_pruned,
            stats.groupings_comm_pruned,
            stats.threads_used as u64,
        ]
    }

    proptest::proptest! {
        /// The best winner packaged alone, as a board split's chips are,
        /// is `explore(..).best` bit for bit (its `Debug` text prints
        /// every float exactly), with the same counters and the same
        /// errors, under both voltage policies: on random 1–8-actor
        /// chains with 1:1, 2:1 and 1:2 edges, fused or single-actor,
        /// with no frame or a 0–11-slot one.  A board of up to two chips
        /// then keeps, per chip, `explore(..).best` of that chip's
        /// subgraph and configuration.
        #[test]
        fn winner_only_best_matches_the_explored_best(
            cycles in proptest::collection::vec(1u64..600, 8),
            cap_picks in proptest::collection::vec(0usize..6, 8),
            rate_picks in proptest::collection::vec(0usize..4, 8),
            n in 1usize..9,
            fused in proptest::prelude::any::<bool>(),
            single_voltage in proptest::prelude::any::<bool>(),
            budget in 1u32..48,
            frame_pick in 0u64..24,
        ) {
            const CAPS: [u32; 6] = [1, 2, 4, 8, 16, 32];
            const RATES: [(u64, u64); 4] = [(1, 1), (1, 1), (2, 1), (1, 2)];
            let caps: Vec<u32> = cap_picks[..n].iter().map(|&i| CAPS[i]).collect();
            let rates: Vec<(u64, u64)> = rate_picks.iter().map(|&i| RATES[i]).collect();
            let graph = rated_chain(&cycles[..n], &caps, &rates);
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
            let show = |s: &ExplorerSolution| format!("{s:?}");
            match (explore_best(&graph, &config), explore(&graph, &config)) {
                (Ok((best, stats)), Ok(full)) => {
                    proptest::prop_assert_eq!(show(&best), show(&full.best));
                    proptest::prop_assert_eq!(counters(&stats), counters(&full.stats));
                }
                (Err(a), Err(b)) => proptest::prop_assert_eq!(a.to_string(), b.to_string()),
                (a, b) => {
                    return Err(proptest::prelude::TestCaseError::fail(format!(
                        "winner only {:?} vs explore {:?}",
                        a.map(|(best, _)| best),
                        b.map(|full| full.best)
                    )));
                }
            }

            let board = config.clone().with_board(BoardSearch::new(2));
            if let Ok(found) = explore_board(&graph, &board) {
                let reps = graph.repetition_vector().unwrap();
                for chip in &found.chips {
                    let (sub, rate_factor) =
                        chip_subgraph(&graph, &reps, chip.start, chip.end).unwrap();
                    let full = explore(&sub, &chip_config(&board, rate_factor)).unwrap();
                    proptest::prop_assert_eq!(show(&chip.solution), show(&full.best));
                }
            }
        }
    }
}
