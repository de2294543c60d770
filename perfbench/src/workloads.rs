//! The three workloads.  Each is a fixed list of requests built from the
//! seed in set-up; the runner cycles through the list as a closed loop
//! (one client, one request in flight).
//!
//! * `map_suite` — graph → explore → realize → route → compile (fast
//!   tier, ring sink) → execute → analyze → energy report.  The explorer
//!   dominates: both branches of `SearchStrategy::Auto` run (exhaustive up
//!   to 16 stages, beam above), while fast-tier validation stays cheap.
//! * `long_trace` — fixed reference mappings and the 2-chip
//!   `deep_pipeline` board, each run for a long interpreted trace and
//!   re-run on the fast tier as a bit-identity check.  The simulator does
//!   almost all the work and the explorer none.
//! * `fault_recovery` — a column or bridge lane of a mapped design dies
//!   mid-run; the run must end in `SimFault::Stalled`, then degraded
//!   re-exploration walks the rate ladder, and the recovered mapping is
//!   re-explored, routed, compiled and validated.

use std::borrow::Cow;
use std::sync::Arc;

use synchroscalar::apps::{
    deep_pipeline, reference_graph, Application, ApplicationProfile, DEEP_PIPELINE_RATE_HZ,
};
use synchroscalar::explorer::{
    evaluate_mapping, explore, explore_board, explore_degraded, explore_degraded_board,
    BoardSearch, CommSpec, DegradationPoint, ExplorerConfig, ResourceLoss,
};
use synchroscalar::mapper::{ExecutionTier, MapperOptions};
use synchroscalar::power::Technology;
use synchroscalar::sdf::{Mapping, SdfError, SdfGraph};
use synchroscalar::sim::{FaultPlan, SimFault};
use synchroscalar::trace::analyze::{attribute, bottlenecks};
use synchroscalar::trace::{RingBufferSink, Trace};

use crate::harness::{relative_gap, Answer, Ctx, Step};
use crate::inputs::{self, Digest, Rng};
use crate::pipeline::{self, Compiled};

/// Stage counts of the generated `map_suite` chains.  Up to 16 stages
/// `SearchStrategy::Auto` enumerates groupings exhaustively; above it
/// runs the beam engine.
const CHAIN_STAGES: std::ops::RangeInclusive<usize> = 6..=24;
/// Generated chains per stage count in one pass.  Five, so the seed's
/// effect on any one chain's search time averages out, except for the
/// 13–16-stage exhaustive searches (17–190 ms each, 2–4× per stage): one
/// each keeps them the four slowest requests.  The 12-stage searches
/// (7–10 ms) sit between those and the 6 ms ones of 22 and 23 stages;
/// with nine of them and 90 requests per pass, p90 (nearest rank 81) is
/// the tenth slowest, the sixth of the nine, away from both steps.
fn chains_per_stage_count(stages: usize) -> usize {
    match stages {
        13..=16 => 1,
        12 => 9,
        _ => 5,
    }
}
/// Graph iterations of each `map_suite` validation run: on the fast tier
/// for the chains, and on the interpreted tier for the profiles and the
/// board, long enough that their execution time gives a steady
/// simulator speed yet stays a small share of the pass.
const MAP_ITERATIONS: u64 = 8;
const MAP_INTERPRETED_ITERATIONS: u64 = 32;
/// Compute slots per firing in `map_suite` validation runs.  A fused
/// column's cost is a sum of stage costs, so at the mapper's default cap
/// the scaled slot counts are arbitrary, the hyperperiod reaches 10^14,
/// dividers overflow into ZORM throttling and some runs never drain.
/// With at most 12 compute slots every column has 4 to 15 slots per
/// firing, so the hyperperiod divides 8 × lcm(4..15) = 2 882 880 and every
/// divider stays exact, whatever grouping the explorer picks.
pub const MAP_COMPUTE_CAP: u64 = 12;
/// Capture ring per `map_suite` request; overflow is a failed check.
const RING_CAPACITY: usize = 1 << 20;
/// Per-chip budget and chip count of the deep-pipeline board.
const BOARD_CHIP_BUDGET: u32 = 40;
const BOARD_MAX_CHIPS: usize = 2;
/// Graph iterations of a faulted run, and of the recovered mapping's
/// validation run (fast tier).
const FAULT_ITERATIONS: u64 = 24;
const VALIDATION_ITERATIONS: u64 = 8;
/// Energy attribution must match the report counters this closely.
const ENERGY_TOLERANCE: f64 = 1e-3;
/// Explorer costs recomputed from the same mapping must agree this closely.
const POWER_TOLERANCE: f64 = 1e-9;

/// A workload: a fixed list of requests built in set-up.
pub trait Workload {
    /// Requests in one pass.
    fn len(&self) -> usize;
    /// Run request `index` once.
    fn request(&self, index: usize, ctx: &mut Ctx) -> Step<Answer>;
    /// What request `index` is, for failure messages.
    fn label(&self, index: usize) -> String;
    /// Requests the set-up warm-up runs once, covering every layer the
    /// workload calls.
    fn warm_up(&self) -> Vec<usize>;
    /// Digest of the generated inputs.
    fn digest(&self) -> String;
    /// Set-up notes for the run header.
    fn notes(&self) -> Vec<String>;
}

/// A design: a graph, its rate and tile budget, on one chip or a board of
/// chips, and its mapping (empty until the explorer picks one).
#[derive(Debug, Clone)]
pub struct Design {
    pub label: String,
    pub graph: SdfGraph,
    pub mapping: Mapping,
    pub rate_hz: f64,
    pub budget: u32,
    pub board: bool,
}

impl Design {
    fn unmapped(label: String, graph: SdfGraph, rate_hz: f64, budget: u32, board: bool) -> Self {
        Design {
            label,
            graph,
            mapping: Mapping::new(),
            rate_hz,
            budget,
            board,
        }
    }

    fn compile_layer(&self) -> &'static str {
        if self.board {
            "compile_board"
        } else {
            "compile"
        }
    }

    /// `(chip, column, tiles)` of every placed column.
    fn columns(&self) -> Vec<(usize, usize, u32)> {
        let mut next = vec![0usize; self.mapping.chips()];
        self.mapping
            .placements()
            .iter()
            .map(|p| {
                let column = next[p.chip];
                next[p.chip] += 1;
                (p.chip, column, p.tiles)
            })
            .collect()
    }
}

/// The explorer configuration board mapping and degraded-mode recovery
/// start from: single-actor columns with the communication prune, plus
/// the board partitioner for boards.
fn recovery_config(rate_hz: f64, budget: u32, board: bool) -> ExplorerConfig {
    let defaults = MapperOptions::default();
    let comm = CommSpec::from_clock(
        defaults.bus_splits as u32,
        defaults.bus_frequency_hz,
        rate_hz,
    );
    let config = ExplorerConfig::new(rate_hz, budget)
        .single_actor_columns()
        .with_comm(comm);
    if board {
        config.with_board(BoardSearch::new(BOARD_MAX_CHIPS))
    } else {
        config
    }
}

/// The six Table 4 reference mappings at their reference rates.
fn reference_designs() -> Vec<Design> {
    Application::all()
        .into_iter()
        .map(|app| {
            let reference = reference_graph(app);
            Design {
                label: app.name().to_owned(),
                graph: reference.graph,
                mapping: reference.mapping,
                rate_hz: reference.iteration_rate_hz,
                budget: ApplicationProfile::of(app).reference_tiles(),
                board: false,
            }
        })
        .collect()
}

/// The 24-stage deep pipeline on a board, not yet partitioned.
fn unmapped_board() -> Design {
    Design::unmapped(
        "deep_pipeline board".to_owned(),
        deep_pipeline(),
        DEEP_PIPELINE_RATE_HZ,
        BOARD_CHIP_BUDGET,
        true,
    )
}

/// The 24-stage deep pipeline, partitioned by the board explorer.
fn board_design() -> Result<Design, String> {
    let mut design = unmapped_board();
    let board = explore_board(
        &design.graph,
        &recovery_config(design.rate_hz, design.budget, design.board),
    )
    .map_err(|e| format!("deep_pipeline does not partition: {e}"))?;
    design.mapping = board.mapping();
    design.label = format!(
        "deep_pipeline board ({} chips, {} split)",
        board.chip_count(),
        board
            .chips
            .iter()
            .map(|c| (c.end - c.start).to_string())
            .collect::<Vec<_>>()
            .join("/")
    );
    Ok(design)
}

fn describe_design(design: &Design) -> String {
    let placements: Vec<(usize, usize, u32)> = design
        .mapping
        .placements()
        .iter()
        .map(|p| (p.chip, p.actor.0, p.tiles))
        .collect();
    format!(
        "{} rate={} placements={placements:?}",
        design.label, design.rate_hz
    )
}

fn sdf_checks(ctx: &mut Ctx, graph: &SdfGraph) -> Step<()> {
    ctx.call("sdf", || -> Result<(), SdfError> {
        graph.repetition_vector()?;
        graph.schedule()?;
        graph.buffer_bounds()?;
        Ok(())
    })
    .map(|_| ())
}

/// Route a realized mapping directly through the router.
fn route(
    ctx: &mut Ctx,
    graph: &SdfGraph,
    mapping: &Mapping,
    rate_hz: f64,
    board: bool,
) -> Step<()> {
    match ctx.call("route", || pipeline::route(graph, mapping, rate_hz, board)) {
        Ok(((frame, occupied), _)) => {
            ctx.counts.route_frame_slots += frame;
            ctx.counts.route_occupied_slots += occupied;
            Ok(())
        }
        Err(failed) => {
            ctx.counts.route_rejects += 1;
            Err(failed)
        }
    }
}

// ---------------------------------------------------------------- map_suite

/// One `map_suite` request: a design the explorer maps afresh.
struct MapItem {
    design: Design,
    /// Validate on the interpreted tier: the reference profiles and the
    /// board, whose short traces cost about a millisecond and give the
    /// simulator-speed metrics.  The generated chains use the fast
    /// tier, since an interpreted run of a long chain would take longer
    /// than its search.
    interpreted: bool,
}

pub struct MapSuite {
    items: Vec<MapItem>,
    discarded: usize,
    digest: Digest,
    tech: Technology,
}

impl MapSuite {
    pub fn new(seed: u64) -> Self {
        let mut digest = Digest::new();
        let mut items: Vec<MapItem> = reference_designs()
            .into_iter()
            .map(|design| Design {
                mapping: Mapping::new(),
                ..design
            })
            .chain([unmapped_board()])
            .map(|design| {
                digest.add(&format!(
                    "{} rate={} budget={}",
                    design.label, design.rate_hz, design.budget
                ));
                MapItem {
                    design,
                    interpreted: true,
                }
            })
            .collect();
        let stage_counts: Vec<(usize, usize)> = CHAIN_STAGES
            .flat_map(|n| (0..chains_per_stage_count(n)).map(move |k| (n, k)))
            .collect();
        let sizes: Vec<usize> = stage_counts.iter().map(|&(n, _)| n).collect();
        let generated = inputs::chains(&mut Rng::new(seed), &sizes);
        for (chain, (n, k)) in generated.chains.iter().zip(&stage_counts) {
            digest.add(&chain.describe());
            items.push(MapItem {
                design: Design::unmapped(
                    format!("chain{n}.{k}"),
                    chain.graph(),
                    chain.rate_hz,
                    inputs::CHAIN_BUDGET,
                    false,
                ),
                interpreted: false,
            });
        }
        // Interleave sizes, so the request order does not follow cost.
        Rng::new(seed ^ 0x5eed).shuffle(&mut items);
        MapSuite {
            items,
            discarded: generated.discarded,
            digest,
            tech: Technology::isca2004(),
        }
    }

    /// Explore a single-chip request and realize its winner.
    fn explore_chip(&self, ctx: &mut Ctx, item: &Design) -> Step<(f64, SdfGraph, Mapping)> {
        let config = ExplorerConfig::new(item.rate_hz, item.budget);
        let (exploration, _) = ctx.call("explore", || explore(&item.graph, &config))?;
        ctx.counts
            .explored(&exploration.stats, exploration.frontier.len());
        let best = &exploration.best;
        ctx.check("check.feasible", best.feasible, || {
            "no feasible mapping".to_owned()
        })?;
        let ((graph, mapping), _) = ctx.call("realize", || best.realize(&item.graph))?;
        let (evaluated, _) =
            ctx.call("evaluate", || evaluate_mapping(&graph, &mapping, &config))?;
        ctx.check(
            "check.explorer_power",
            relative_gap(evaluated.power_mw, best.power_mw) <= POWER_TOLERANCE,
            || {
                format!(
                    "explorer {} mW, evaluate_mapping {} mW",
                    best.power_mw, evaluated.power_mw
                )
            },
        )?;
        Ok((best.power_mw, graph, mapping))
    }
}

impl Workload for MapSuite {
    fn len(&self) -> usize {
        self.items.len()
    }

    fn label(&self, index: usize) -> String {
        self.items[index].design.label.clone()
    }

    fn request(&self, index: usize, ctx: &mut Ctx) -> Step<Answer> {
        let MapItem {
            design: item,
            interpreted,
        } = &self.items[index];
        let interpreted = *interpreted;
        sdf_checks(ctx, &item.graph)?;
        let (power_mw, graph, mapping) = if item.board {
            let config = recovery_config(item.rate_hz, item.budget, true);
            let (board, _) = ctx.call("explore.board", || explore_board(&item.graph, &config))?;
            ctx.counts.explored(&board.stats, 0);
            ctx.counts.splits_tried += board.splits_tried as u64;
            let (mapping, _) = ctx.run("realize", || board.mapping())?;
            (board.total_power_mw(), Cow::Borrowed(&item.graph), mapping)
        } else {
            let (power, graph, mapping) = self.explore_chip(ctx, item)?;
            (power, Cow::Owned(graph), mapping)
        };
        route(ctx, &graph, &mapping, item.rate_hz, item.board)?;

        let ring = Arc::new(RingBufferSink::new(RING_CAPACITY));
        let options = MapperOptions {
            iterations: if interpreted {
                MAP_INTERPRETED_ITERATIONS
            } else {
                MAP_ITERATIONS
            },
            iteration_rate_hz: item.rate_hz,
            compute_cycle_cap: MAP_COMPUTE_CAP,
            tier: if interpreted {
                ExecutionTier::Interpreted
            } else {
                ExecutionTier::Fast
            },
            trace: Trace::to(ring.clone()),
            ..MapperOptions::default()
        };
        let (mut compiled, _) = ctx.call(item.compile_layer(), || {
            Compiled::compile(&graph, &mapping, &options, item.board)
        })?;
        ctx.counts.compile_calls += 1;
        let execute = match (interpreted, item.board) {
            (false, _) => "execute.fast",
            (true, false) => "execute.interpreted",
            (true, true) => "execute.board",
        };
        let (report, exec_ns) = ctx.call(execute, || compiled.execute())?;
        report.count(&mut ctx.counts);
        ctx.check("check.firings_exact", report.firings_exact(), || {
            "firing counts differ from the repetition vector".to_owned()
        })?;

        let (spec, _) = ctx.run("price", || compiled.price_spec(&self.tech))?;
        let ticks = report.reference_ticks();
        let ((ledger, stats, events), _) = ctx.run("analyze", || {
            let stats = ring.stats();
            let events = ring.events();
            let ledger = attribute(&events, &spec, ticks);
            std::hint::black_box(bottlenecks(&events, &spec, ticks));
            (ledger, stats, events.len())
        })?;
        ctx.counts.analyze_events += events as u64;
        ctx.counts.unpriced_events += ledger.unpriced_events;
        ctx.counts.ring_dropped += stats.dropped;
        ctx.check("check.ring", !stats.truncated(), || {
            format!("capture ring truncated: {stats:?}")
        })?;
        let (energy, _) = ctx.run("price", || compiled.execution_energy(&report, &self.tech))?;
        let report_j = energy.map_or(f64::NAN, |e| e.total_j());
        let gap = relative_gap(ledger.total_j(), report_j);
        ctx.counts.energy_gap_max = ctx.counts.energy_gap_max.max(gap);
        ctx.check("check.energy", gap <= ENERGY_TOLERANCE, || {
            format!("attributed {} J vs report {report_j} J", ledger.total_j())
        })?;

        // Simulator speed is the interpreter's; fast-tier time does not
        // scale with simulated cycles.
        Ok(if interpreted {
            Answer::simulated(power_mw, 1.0, item.board, report.column_cycles(), exec_ns)
        } else {
            Answer {
                power_mw,
                rate_frac: 1.0,
                ..Answer::default()
            }
        })
    }

    fn warm_up(&self) -> Vec<usize> {
        (0..self.items.len())
            .filter(|&i| self.items[i].interpreted)
            .collect()
    }

    fn digest(&self) -> String {
        self.digest.hex()
    }

    fn notes(&self) -> Vec<String> {
        vec![
            format!(
                "{} requests per pass: 6 reference profiles, the deep_pipeline board, {} generated chains ({} candidates discarded by the static filter)",
                self.items.len(),
                self.items.len() - 7,
                self.discarded
            ),
            format!(
                "order: {}",
                self.items
                    .iter()
                    .map(|i| i.design.label.as_str())
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
        ]
    }
}

// --------------------------------------------------------------- long_trace

pub struct LongTrace {
    designs: Vec<Design>,
    iterations: Vec<u64>,
    digest: Digest,
    tech: Technology,
}

/// Iterations of each design's long trace, in `reference_designs` order
/// (DDC, stereo vision, 802.11a, 802.11a + AES, MPEG-4 QCIF, MPEG-4 CIF)
/// plus the board, sized so each interpreted run takes about 25 ms on a
/// 2-core x86-64 host and no design dominates the latency distribution.
const TRACE_ITERATIONS: [u64; 7] = [900, 2400, 2000, 1500, 2000, 1900, 200];

impl LongTrace {
    pub fn new(seed: u64) -> Result<Self, String> {
        let mut designs = reference_designs();
        designs.push(board_design()?);
        let mut rng = Rng::new(seed);
        let mut digest = Digest::new();
        // The seed varies each trace's length by up to ±2 %: enough to
        // change every simulated count, too little to move the latency
        // percentiles between seeds.
        let iterations: Vec<u64> = TRACE_ITERATIONS
            .iter()
            .map(|&n| rng.range(n - n / 50, n + n / 50 + 1))
            .collect();
        for (design, n) in designs.iter().zip(&iterations) {
            digest.add(&format!("{} iterations={n}", describe_design(design)));
        }
        Ok(LongTrace {
            designs,
            iterations,
            digest,
            tech: Technology::isca2004(),
        })
    }
}

impl Workload for LongTrace {
    fn len(&self) -> usize {
        self.designs.len()
    }

    fn label(&self, index: usize) -> String {
        self.designs[index].label.clone()
    }

    fn request(&self, index: usize, ctx: &mut Ctx) -> Step<Answer> {
        let design = &self.designs[index];
        let options = MapperOptions {
            iterations: self.iterations[index],
            iteration_rate_hz: design.rate_hz,
            tier: ExecutionTier::Interpreted,
            ..MapperOptions::default()
        };
        let compile = design.compile_layer();
        let (mut interpreted, _) = ctx.call(compile, || {
            Compiled::compile(&design.graph, &design.mapping, &options, design.board)
        })?;
        let layer = if design.board {
            "execute.board"
        } else {
            "execute.interpreted"
        };
        let (report, exec_ns) = ctx.call(layer, || interpreted.execute())?;
        report.count(&mut ctx.counts);

        let fast_options = MapperOptions {
            tier: ExecutionTier::Fast,
            ..options
        };
        let (mut fast, _) = ctx.call(compile, || {
            Compiled::compile(&design.graph, &design.mapping, &fast_options, design.board)
        })?;
        ctx.counts.compile_calls += 2;
        let (fast_report, _) = ctx.call("execute.fast", || fast.execute())?;
        ctx.check("check.tier_report", fast_report == report, || {
            "fast-tier report differs from the interpreter's".to_owned()
        })?;
        ctx.check(
            "check.tier_counters",
            fast.counters() == interpreted.counters(),
            || "fast-tier counters differ from the interpreter's".to_owned(),
        )?;
        ctx.check("check.firings_exact", report.firings_exact(), || {
            "firing counts differ from the repetition vector".to_owned()
        })?;
        let (energy, _) = ctx.run("price", || {
            interpreted.execution_energy(&report, &self.tech)
        })?;

        let power_mw = energy.map_or(f64::NAN, |e| e.average_power_mw());
        Ok(Answer::simulated(
            power_mw,
            1.0,
            design.board,
            report.column_cycles(),
            exec_ns,
        ))
    }

    fn warm_up(&self) -> Vec<usize> {
        (0..self.designs.len()).collect()
    }

    fn digest(&self) -> String {
        self.digest.hex()
    }

    fn notes(&self) -> Vec<String> {
        self.designs
            .iter()
            .zip(&self.iterations)
            .map(|(d, n)| format!("{}: {n} interpreted iterations", d.label))
            .collect()
    }
}

// ----------------------------------------------------------- fault_recovery

#[derive(Debug, Clone, Copy)]
enum Target {
    Column { chip: usize, column: usize },
    Lane(usize),
}

struct FaultRequest {
    design: usize,
    target: Target,
    kill_tick: u64,
    loss: ResourceLoss,
}

pub struct FaultRecovery {
    designs: Vec<Design>,
    requests: Vec<FaultRequest>,
    digest: Digest,
}

/// Columns of the board killed per pass, chosen by the seed.
const BOARD_COLUMN_KILLS: usize = 4;

impl FaultRecovery {
    pub fn new(seed: u64) -> Result<Self, String> {
        let mut designs = reference_designs();
        designs.push(board_design()?);
        let mut rng = Rng::new(seed);
        let mut requests = Vec::new();
        for (index, design) in designs.iter().enumerate() {
            // The kill tick must land before the design can halt; the
            // hyperperiod comes from one throw-away compile.
            let options = MapperOptions {
                iterations: FAULT_ITERATIONS,
                iteration_rate_hz: design.rate_hz,
                ..MapperOptions::default()
            };
            let compiled =
                Compiled::compile(&design.graph, &design.mapping, &options, design.board)
                    .map_err(|e| format!("{}: {e}", design.label))?;
            let hyperperiod = compiled.hyperperiod();
            let columns = design.columns();
            let mut targets: Vec<(Target, ResourceLoss)> = columns
                .iter()
                .map(|&(chip, column, tiles)| {
                    let label = format!(
                        "{} chip {chip} column {column} ({tiles} tiles)",
                        design.label
                    );
                    (
                        Target::Column { chip, column },
                        ResourceLoss::column(label, tiles),
                    )
                })
                .collect();
            if design.board {
                let lane = compiled
                    .lane(0, 1)
                    .ok_or_else(|| format!("{}: no 0→1 bridge lane", design.label))?;
                rng.shuffle(&mut targets);
                targets.truncate(BOARD_COLUMN_KILLS);
                targets.push((
                    Target::Lane(lane),
                    ResourceLoss::bridge(format!("{} bridge 0→1 severed", design.label), 0),
                ));
            }
            for (target, loss) in targets {
                requests.push(FaultRequest {
                    design: index,
                    target,
                    kill_tick: rng.range(hyperperiod, hyperperiod * (FAULT_ITERATIONS / 2)),
                    loss,
                });
            }
        }
        rng.shuffle(&mut requests);
        let mut digest = Digest::new();
        for design in &designs {
            digest.add(&describe_design(design));
        }
        for r in &requests {
            digest.add(&format!("{} {:?} tick={}", r.design, r.target, r.kill_tick));
        }
        Ok(FaultRecovery {
            designs,
            requests,
            digest,
        })
    }

    /// Re-explore at the recovered point and realize the winner.
    fn re_explore<'a>(
        ctx: &mut Ctx,
        design: &'a Design,
        config: &ExplorerConfig,
    ) -> Step<(f64, Cow<'a, SdfGraph>, Mapping)> {
        if design.board {
            let (board, _) = ctx.call("explore.board", || explore_board(&design.graph, config))?;
            ctx.counts.explored(&board.stats, 0);
            ctx.counts.splits_tried += board.splits_tried as u64;
            let (mapping, _) = ctx.run("realize", || board.mapping())?;
            Ok((
                board.total_power_mw(),
                Cow::Borrowed(&design.graph),
                mapping,
            ))
        } else {
            let (exploration, _) = ctx.call("explore", || explore(&design.graph, config))?;
            ctx.counts
                .explored(&exploration.stats, exploration.frontier.len());
            let best = &exploration.best;
            let ((graph, mapping), _) = ctx.call("realize", || best.realize(&design.graph))?;
            Ok((best.power_mw, Cow::Owned(graph), mapping))
        }
    }
}

/// `config` as degraded-mode exploration re-rates it for `loss` at the
/// recovered point: the rate and the bus frame scale by the ladder
/// fraction, the budget loses the dead tiles, and a bridge loss caps the
/// partitioner's inter-chip words.
fn recovered_config(
    config: &ExplorerConfig,
    loss: &ResourceLoss,
    point: &DegradationPoint,
) -> ExplorerConfig {
    let (num, den) = (point.rate_num, point.rate_den);
    let comm = config.comm.map(|c| CommSpec {
        splits: c.splits.saturating_sub(loss.splits_lost),
        period: c.period.saturating_mul(den) / num.max(1),
        ..c
    });
    let board = config.board.map(|b| BoardSearch {
        bridge_capacity: match (b.bridge_capacity, loss.bridge_capacity) {
            (Some(have), Some(cap)) => Some(have.min(cap)),
            (have, cap) => cap.or(have),
        },
        ..b
    });
    ExplorerConfig {
        iteration_rate_hz: config.iteration_rate_hz * num as f64 / den as f64,
        tile_budget: config.tile_budget.saturating_sub(loss.tiles_lost),
        comm,
        board,
        ..config.clone()
    }
}

impl Workload for FaultRecovery {
    fn len(&self) -> usize {
        self.requests.len()
    }

    fn label(&self, index: usize) -> String {
        let request = &self.requests[index];
        format!(
            "{} killed at tick {}",
            request.loss.label, request.kill_tick
        )
    }

    fn request(&self, index: usize, ctx: &mut Ctx) -> Step<Answer> {
        let request = &self.requests[index];
        let design = &self.designs[request.design];
        let options = MapperOptions {
            iterations: FAULT_ITERATIONS,
            iteration_rate_hz: design.rate_hz,
            tier: ExecutionTier::Interpreted,
            ..MapperOptions::default()
        };
        let compile = design.compile_layer();
        let (mut compiled, _) = ctx.call(compile, || {
            Compiled::compile(&design.graph, &design.mapping, &options, design.board)
        })?;
        ctx.counts.compile_calls += 1;
        let mut plan = FaultPlan::none();
        match request.target {
            Target::Column { chip, column } => plan.kill_column(chip, column, request.kill_tick),
            Target::Lane(lane) => plan.kill_lane(lane, request.kill_tick),
        };
        let ((report, fault), exec_ns) =
            ctx.call("execute.faulted", || compiled.execute_faulted(&plan))?;
        report.count(&mut ctx.counts);
        // A dead column never halts, so the watchdog must end the run in a
        // stall; a dead bridge lane drops its words, so the run drains
        // short of the predicted bridge traffic.
        let detected = match (request.target, fault) {
            (
                Target::Column { .. },
                Some(SimFault::Stalled {
                    reference_cycles, ..
                }),
            ) => {
                ctx.counts.stalls += 1;
                ctx.counts.detect_ticks += reference_cycles.saturating_sub(request.kill_tick);
                true
            }
            (Target::Lane(_), None) => report.bridge_words_lost() > 0,
            _ => false,
        };
        ctx.check("check.fault_outcome", detected, || {
            format!("unexpected outcome {fault:?} of the faulted run")
        })?;

        let config = recovery_config(design.rate_hz, design.budget, design.board);
        let losses = [request.loss.clone()];
        let (curve, _) = ctx.call("explore.degraded", || {
            if design.board {
                explore_degraded_board(&design.graph, &config, &losses)
            } else {
                explore_degraded(&design.graph, &config, &losses)
            }
        })?;
        let point = curve.points[0].clone();
        let cycles = report.column_cycles();
        let answer = |power_mw, rate_frac| {
            Answer::simulated(power_mw, rate_frac, design.board, cycles, exec_ns)
        };
        if !point.feasible {
            // No rate on the ladder fits what is left: a structured
            // answer, with nothing to re-map.
            return Ok(answer(0.0, 0.0));
        }

        let recovered = recovered_config(&config, &request.loss, &point);
        let (power_mw, graph, mapping) = Self::re_explore(ctx, design, &recovered)?;
        ctx.check(
            "check.recovery_power",
            relative_gap(power_mw, point.power_mw) <= POWER_TOLERANCE,
            || {
                format!(
                    "re-explored {power_mw} mW, degraded point {} mW",
                    point.power_mw
                )
            },
        )?;
        route(ctx, &graph, &mapping, point.rate_hz, design.board)?;
        let validation = MapperOptions {
            iterations: VALIDATION_ITERATIONS,
            iteration_rate_hz: point.rate_hz,
            tier: ExecutionTier::Fast,
            ..MapperOptions::default()
        };
        let (mut recovered_chip, _) = ctx.call(compile, || {
            Compiled::compile(&graph, &mapping, &validation, design.board)
        })?;
        ctx.counts.compile_calls += 1;
        let (validated, _) = ctx.call("execute.fast", || recovered_chip.execute())?;
        validated.count(&mut ctx.counts);
        ctx.check("check.firings_exact", validated.firings_exact(), || {
            "firing counts differ from the repetition vector".to_owned()
        })?;
        Ok(answer(
            point.power_mw,
            point.rate_num as f64 / point.rate_den as f64,
        ))
    }

    fn warm_up(&self) -> Vec<usize> {
        (0..self.requests.len()).collect()
    }

    fn digest(&self) -> String {
        self.digest.hex()
    }

    fn notes(&self) -> Vec<String> {
        let mut notes = vec![format!("{} recoveries per pass", self.requests.len())];
        notes.extend(self.designs.iter().map(|d| format!("design: {}", d.label)));
        notes
    }
}
