//! Thin adapters over the library's chip and board entry points, so each
//! workload drives one design type whether it targets one chip or a board.
//! They call the public API only and add no behaviour of their own.

use synchroscalar::bus::BusStats;
use synchroscalar::mapper::{
    self, BoardConfig, ExecutionReport, MapperError, MapperOptions, ReportEnergy,
};
use synchroscalar::power::Technology;
use synchroscalar::router::{self, BoardSpec, BusSpec, RouteError};
use synchroscalar::sdf::{Mapping, SdfGraph};
use synchroscalar::sim::{ChipStats, ColumnStats, FaultPlan, SimFault};
use synchroscalar::trace::analyze::PriceSpec;
use synchroscalar::{BoardExecutionReport, CompiledBoard, CompiledChip};

/// A compiled single chip or board.
pub enum Compiled {
    Chip(CompiledChip),
    Board(CompiledBoard),
}

/// The report of one run of a [`Compiled`] design.
#[derive(Debug, Clone, PartialEq)]
pub enum Report {
    Chip(ExecutionReport),
    Board(BoardExecutionReport),
}

/// Per-chip lifetime counters plus, on a board, the bridge counters: what
/// the two execution tiers must agree on bit for bit.
type ChipCounters = (ChipStats, Vec<ColumnStats>, Vec<BusStats>, Option<BusStats>);
pub type Counters = (Vec<ChipCounters>, Option<(BusStats, Vec<u64>)>);

fn chip_counters(chip: &synchroscalar::sim::Chip) -> ChipCounters {
    (
        chip.stats(),
        chip.column_stats(),
        chip.column_bus_stats(),
        chip.horizontal_stats(),
    )
}

impl Compiled {
    pub fn compile(
        graph: &SdfGraph,
        mapping: &Mapping,
        options: &MapperOptions,
        board: bool,
    ) -> Result<Self, MapperError> {
        if board {
            mapper::compile_board(graph, mapping, options, &BoardConfig::default())
                .map(Compiled::Board)
        } else {
            mapper::compile(graph, mapping, options).map(Compiled::Chip)
        }
    }

    pub fn hyperperiod(&self) -> u64 {
        match self {
            Compiled::Chip(c) => c.hyperperiod(),
            Compiled::Board(b) => b.hyperperiod(),
        }
    }

    pub fn execute(&mut self) -> Result<Report, MapperError> {
        match self {
            Compiled::Chip(c) => c.execute().map(Report::Chip),
            Compiled::Board(b) => b.execute().map(Report::Board),
        }
    }

    pub fn execute_faulted(
        &mut self,
        plan: &FaultPlan,
    ) -> Result<(Report, Option<SimFault>), MapperError> {
        match self {
            Compiled::Chip(c) => c
                .execute_faulted(plan)
                .map(|run| (Report::Chip(run.report), run.fault)),
            Compiled::Board(b) => b
                .execute_faulted(plan)
                .map(|run| (Report::Board(run.report), run.fault)),
        }
    }

    pub fn price_spec(&self, tech: &Technology) -> PriceSpec {
        match self {
            Compiled::Chip(c) => c.price_spec(tech),
            Compiled::Board(b) => b.price_spec(tech),
        }
    }

    pub fn execution_energy(&self, report: &Report, tech: &Technology) -> Option<ReportEnergy> {
        match (self, report) {
            (Compiled::Chip(c), Report::Chip(r)) => Some(c.execution_energy(r, tech)),
            (Compiled::Board(b), Report::Board(r)) => Some(b.execution_energy(r, tech)),
            _ => None,
        }
    }

    pub fn counters(&self) -> Counters {
        match self {
            Compiled::Chip(c) => (vec![chip_counters(c.chip())], None),
            Compiled::Board(b) => {
                let board = b.board();
                let chips = (0..board.chips())
                    .filter_map(|i| board.chip(i))
                    .map(chip_counters)
                    .collect();
                (
                    chips,
                    Some((board.bridge_stats(), board.lane_words().to_vec())),
                )
            }
        }
    }

    /// Index of the bridge lane carrying `from → to` traffic.
    pub fn lane(&self, from: usize, to: usize) -> Option<usize> {
        match self {
            Compiled::Chip(_) => None,
            Compiled::Board(b) => b
                .route()
                .spec()
                .lanes()
                .iter()
                .position(|l| l.from == from && l.to == to),
        }
    }
}

impl Report {
    pub fn firings_exact(&self) -> bool {
        match self {
            Report::Chip(r) => r.firings_exact(),
            Report::Board(r) => r.firings_exact(),
        }
    }

    pub fn reference_ticks(&self) -> u64 {
        match self {
            Report::Chip(r) => r.reference_ticks,
            Report::Board(r) => r.reference_ticks,
        }
    }

    pub fn column_cycles(&self) -> u64 {
        match self {
            Report::Chip(r) => r.column_cycles.iter().sum(),
            Report::Board(r) => r.chips.iter().flat_map(|c| c.column_cycles.iter()).sum(),
        }
    }

    /// Bridge words the run failed to deliver against the prediction.
    pub fn bridge_words_lost(&self) -> u64 {
        match self {
            Report::Chip(_) => 0,
            Report::Board(r) => r.predicted_bridge_words.saturating_sub(r.bridge_words),
        }
    }

    pub fn count(&self, counts: &mut crate::harness::Counts) {
        match self {
            Report::Chip(r) => counts.executed(r),
            Report::Board(r) => counts.executed_board(r),
        }
    }
}

/// Route `mapping` directly through the router, as the mapper would at
/// the default bus and bridge clocks; returns the frame's slot capacity
/// and its occupied slots per iteration.
pub fn route(
    graph: &SdfGraph,
    mapping: &Mapping,
    rate_hz: f64,
    board: bool,
) -> Result<(u64, u64), RouteError> {
    let bus_hz = MapperOptions::default().bus_frequency_hz;
    let mut columns = vec![0usize; mapping.chips()];
    for p in mapping.placements() {
        columns[p.chip] += 1;
    }
    if !board {
        let spec = BusSpec::from_clock(columns[0], 1, bus_hz, rate_hz)?;
        let schedule = router::compile(graph, mapping, &spec)?;
        return Ok((spec.frame_slots(), schedule.occupied_slots()));
    }
    let chips = columns
        .iter()
        .map(|&c| BusSpec::from_clock(c.max(1), 1, bus_hz, rate_hz))
        .collect::<Result<Vec<_>, _>>()?;
    let config = BoardConfig::default();
    let spec = BoardSpec::full(
        chips,
        config.bridge_width_words,
        config.bridge_latency_cycles,
        config.bridge_energy_pj_per_word,
        BusSpec::clock_period(config.bridge_frequency_hz, rate_hz)?,
    )?;
    let route = router::compile_board(graph, mapping, &spec)?;
    let frame: u64 = spec.chips().iter().map(BusSpec::frame_slots).sum();
    let occupied: u64 = route.chips().iter().map(|s| s.occupied_slots()).sum();
    Ok((
        frame + route.bridge().scheduled_slots(),
        occupied + route.bridge().occupied_slots(),
    ))
}
