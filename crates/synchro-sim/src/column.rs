//! One Synchroscalar column: SIMD controller + four tiles + DOU + bus.

use std::error::Error;
use std::fmt;

use synchro_bus::{BusError, BusStats, SegmentConfig, SegmentedBus};
use synchro_dou::{Dou, DouProgram};
use synchro_isa::Program;
use synchro_simd::{BackEdge, Issue, RateMatcher, SimdController, StallReason};
use synchro_tile::{ExecError, Tile, TileMark};
use synchro_trace::{Trace, TraceEvent};

/// Errors surfaced while simulating a column.
#[derive(Debug)]
pub enum ColumnError {
    /// A tile rejected an instruction or faulted on memory.
    Tile {
        /// Index of the faulting tile within the column.
        tile: usize,
        /// The underlying execution error.
        source: ExecError,
    },
    /// The DOU asked the bus for a physically impossible transfer.
    Bus(BusError),
}

impl fmt::Display for ColumnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnError::Tile { tile, source } => write!(f, "tile {tile}: {source}"),
            ColumnError::Bus(e) => write!(f, "bus: {e}"),
        }
    }
}

impl Error for ColumnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ColumnError::Tile { source, .. } => Some(source),
            ColumnError::Bus(e) => Some(e),
        }
    }
}

impl From<BusError> for ColumnError {
    fn from(value: BusError) -> Self {
        ColumnError::Bus(value)
    }
}

/// Static configuration of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnConfig {
    /// Number of tiles in the column (4 in the paper).
    pub tiles: usize,
    /// Clock divider relative to the chip reference clock (1 = full rate).
    pub clock_divider: u32,
    /// Supply voltage assigned to the column, in volts (recorded for the
    /// power pipeline; the functional simulation does not depend on it).
    pub voltage: f64,
    /// Which tiles are enabled (idle tiles are supply gated).
    pub enabled_tiles: Vec<bool>,
    /// Optional Zero-Overhead Rate Matching configuration.
    pub rate_matcher: Option<RateMatcher>,
}

impl ColumnConfig {
    /// The paper's default: four enabled tiles, full-rate clock, 1.0 V.
    pub fn isca2004() -> Self {
        ColumnConfig {
            tiles: 4,
            clock_divider: 1,
            voltage: 1.0,
            enabled_tiles: vec![true; 4],
            rate_matcher: None,
        }
    }

    /// Builder-style override of the clock divider.
    #[must_use]
    pub fn with_divider(mut self, divider: u32) -> Self {
        self.clock_divider = divider.max(1);
        self
    }

    /// Builder-style override of the supply voltage.
    #[must_use]
    pub fn with_voltage(mut self, voltage: f64) -> Self {
        self.voltage = voltage;
        self
    }
}

impl Default for ColumnConfig {
    fn default() -> Self {
        ColumnConfig::isca2004()
    }
}

/// Per-column execution statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ColumnStats {
    /// Column clock cycles executed.
    pub cycles: u64,
    /// Compute instructions broadcast.
    pub broadcasts: u64,
    /// Branch stall cycles.
    pub branch_stalls: u64,
    /// Rate-matching stall cycles.
    pub rate_match_stalls: u64,
    /// Bus word transfers performed by the DOU.
    pub bus_word_transfers: u64,
}

impl ColumnStats {
    /// Counter-wise `self - earlier`, for reporting one run's activity out
    /// of two lifetime snapshots of the same column.
    #[must_use]
    pub fn delta(&self, earlier: &ColumnStats) -> ColumnStats {
        ColumnStats {
            cycles: self.cycles - earlier.cycles,
            broadcasts: self.broadcasts - earlier.broadcasts,
            branch_stalls: self.branch_stalls - earlier.branch_stalls,
            rate_match_stalls: self.rate_match_stalls - earlier.rate_match_stalls,
            bus_word_transfers: self.bus_word_transfers - earlier.bus_word_transfers,
        }
    }
}

/// One column of the chip.
#[derive(Debug)]
pub struct Column {
    config: ColumnConfig,
    controller: SimdController,
    tiles: Vec<Tile>,
    dou: Option<Dou>,
    bus: SegmentedBus,
    segment_config: SegmentConfig,
    stats: ColumnStats,
    trace: Trace,
    chip_id: u32,
    column_id: u32,
    failed: bool,
    /// Whether [`Column::run`] and [`crate::Chip::run`] may jump firings.
    jumps: bool,
    /// The column at the last back-edge its run loop saw.
    mark: Option<Mark>,
}

/// A column at the back-edge of its controller's outermost loop — the end
/// of a firing — as a firing jump compares and repeats it.
#[derive(Debug)]
struct Mark {
    controller: BackEdge,
    tiles: Vec<TileMark>,
    dou: Option<Dou>,
    bus: BusStats,
    stats: ColumnStats,
}

impl Column {
    /// Build a column from its configuration, SIMD program and optional DOU
    /// program.
    ///
    /// A `clock_divider` of zero (possible when a [`ColumnConfig`] is built
    /// by hand rather than through [`ColumnConfig::with_divider`]) is
    /// normalised to 1 here, and so is a rate matcher's `period`, so every
    /// later consumer can rely on the invariants `clock_divider >= 1` and
    /// `period >= 1`.
    pub fn new(
        mut config: ColumnConfig,
        program: Program,
        dou_program: Option<DouProgram>,
    ) -> Self {
        config.clock_divider = config.clock_divider.max(1);
        if let Some(rate) = &mut config.rate_matcher {
            rate.period = rate.period.max(1);
        }
        let mut controller = SimdController::new(program);
        if let Some(rate) = config.rate_matcher {
            controller.set_rate_matcher(rate);
        }
        let mut tiles: Vec<Tile> = (0..config.tiles).map(|_| Tile::new()).collect();
        for (i, tile) in tiles.iter_mut().enumerate() {
            let enabled = config.enabled_tiles.get(i).copied().unwrap_or(true);
            tile.set_enabled(enabled);
        }
        let bus = SegmentedBus::new(8, config.tiles.max(1));
        let segment_config = SegmentConfig::all_closed(8, config.tiles.max(1));
        Column {
            config,
            controller,
            tiles,
            dou: dou_program.map(Dou::new),
            bus,
            segment_config,
            stats: ColumnStats::default(),
            trace: Trace::off(),
            chip_id: 0,
            column_id: 0,
            failed: false,
            jumps: false,
            mark: None,
        }
    }

    /// Let the run loop jump repeated firings (the fast tier); off by
    /// default.
    pub fn set_firing_jumps(&mut self, jumps: bool) {
        self.jumps = jumps;
    }

    /// Install a trace sink and the `(chip, column)` identity stamped on
    /// every event the column emits.
    pub fn set_trace(&mut self, trace: Trace, chip: u32, column: u32) {
        self.trace = trace;
        self.chip_id = chip;
        self.column_id = column;
    }

    /// The trace handle events flow through (disabled by default).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The column's configuration.
    pub fn config(&self) -> &ColumnConfig {
        &self.config
    }

    /// Access a tile (e.g. to stage data into its local memory); the next
    /// jump then waits for two more firings.
    pub fn tile_mut(&mut self, index: usize) -> Option<&mut Tile> {
        self.mark = None;
        self.tiles.get_mut(index)
    }

    /// Shared access to a tile.
    pub fn tile(&self, index: usize) -> Option<&Tile> {
        self.tiles.get(index)
    }

    /// Has the column's program halted?
    ///
    /// A [failed](Column::fail) column is *not* halted: the hardware is
    /// dead, not done, and a driver waiting for `all_halted` will starve.
    pub fn is_halted(&self) -> bool {
        self.controller.is_halted()
    }

    /// Mark the column as failed hardware: every subsequent step is an
    /// unbilled no-op, but the column never reports halted — the static
    /// schedule has no recovery path, so consumers of its data starve.
    pub fn fail(&mut self) {
        self.failed = true;
    }

    /// Has the column been killed by a fault?
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> ColumnStats {
        self.stats
    }

    /// The column's segmented vertical-bus statistics, including the
    /// scheduled-vs-occupied slot split the power calibration consumes.
    pub fn bus_stats(&self) -> synchro_bus::BusStats {
        self.bus.stats()
    }

    /// Advance the column by one of its own clock cycles.
    ///
    /// # Errors
    ///
    /// Returns [`ColumnError`] when a tile faults or the DOU schedules an
    /// impossible bus transfer (both indicate a broken static schedule).
    pub fn step(&mut self) -> Result<(), ColumnError> {
        if self.failed || self.controller.is_halted() {
            return Ok(());
        }

        // 1. The SIMD controller issues one slot.  The step that merely
        // observes the HALT (or the end of the program) does no work and
        // must not be billed as a column cycle.
        let issue = self.controller.step();
        if issue == Issue::Halted {
            return Ok(());
        }
        self.stats.cycles += 1;
        if self.trace.enabled() {
            self.trace_cycles(1, u64::from(issue == Issue::Stall(StallReason::RateMatch)));
        }
        match issue {
            Issue::Broadcast(inst) => {
                self.stats.broadcasts += 1;
                // Tile 0 of the column drives data-dependent control.
                let condition = Tile::execute_broadcast(&mut self.tiles, inst)
                    .map_err(|(tile, source)| ColumnError::Tile { tile, source })?;
                if let Some(v) = condition {
                    self.controller.set_condition(v);
                }
            }
            Issue::Stall(StallReason::Branch) => self.stats.branch_stalls += 1,
            Issue::Stall(StallReason::RateMatch) => self.stats.rate_match_stalls += 1,
            Issue::Halted => unreachable!("halted issues are filtered above"),
        }

        // 2. The DOU moves data between tiles through the segmented bus.
        // Every DOU step is a scheduled bus cycle — idle pattern cycles
        // reserve the splits without driving them, which the bus counts
        // as scheduled-but-idle slots for the power calibration.
        if let Some(dou) = &mut self.dou {
            let output = dou.step();
            if let Some(segments) = &output.segments {
                self.segment_config.clone_from(segments);
            }
            self.bus.cycle(&self.segment_config, &output.ops)?;
            for op in &output.ops {
                let value = self
                    .tiles
                    .get(op.producer)
                    .and_then(Tile::peek_outgoing)
                    .unwrap_or(0);
                for &consumer in &op.consumers {
                    if let Some(t) = self.tiles.get_mut(consumer) {
                        t.deliver(value);
                    }
                }
                self.stats.bus_word_transfers += 1;
            }
        }
        Ok(())
    }

    /// Apply up to `max_cycles` cycles of a zero-overhead NOP loop at
    /// once, with the effect of as many [`Column::step`] calls: `k` is the
    /// least of the controller's [`SimdController::nop_run`], the DOU's
    /// idle states ahead ([`Dou::skip_idle`]) and `max_cycles`.  The batch
    /// advances the controller, bills `k` NOPs to each enabled tile, steps
    /// the DOU through `k` idle states, schedules `k` empty vertical-bus
    /// cycles, adds to [`ColumnStats`] and, with tracing on, emits the `k`
    /// per-cycle [`TraceEvent::DividerTick`]s in order.
    ///
    /// Returns `k`: 0 when the next cycle is anything else, or the column
    /// has a rate matcher (whose steps re-lock on a period boundary), has
    /// failed or has halted.  A batch never halts the column.
    #[inline]
    pub(crate) fn step_nops(&mut self, max_cycles: u64) -> u64 {
        if self.failed || self.config.rate_matcher.is_some() {
            return 0;
        }
        let run = self.controller.nop_run().min(max_cycles);
        if run == 0 {
            return 0;
        }
        let k = match &mut self.dou {
            Some(dou) => {
                let k = dou.skip_idle(run);
                self.bus.idle_cycles(k);
                k
            }
            None => run,
        };
        if k == 0 {
            return 0;
        }
        self.controller.issue_nops(k);
        Tile::broadcast_nops(&mut self.tiles, k);
        let first_slot = self.stats.cycles;
        self.stats.cycles += k;
        self.stats.broadcasts += k;
        if self.trace.enabled() {
            let divider = u64::from(self.config.clock_divider);
            for slot in first_slot..self.stats.cycles {
                self.trace.emit(|| TraceEvent::DividerTick {
                    chip: self.chip_id,
                    column: self.column_id,
                    tick: slot * divider,
                    count: 1,
                });
            }
        }
        k
    }

    /// Trace the last `cycles` billed cycles, `stalls` of them ZORM
    /// stalls, as one event per track stamped at the last.  A live column
    /// steps on exactly the ticks its divider selects (halt-observing
    /// steps are unbilled), so billed cycle k lands on tick (k-1) ×
    /// divider, and the matcher re-locks on each multiple of its period.
    fn trace_cycles(&self, cycles: u64, stalls: u64) {
        let (chip, column, end) = (self.chip_id, self.column_id, self.stats.cycles);
        let tick = (end - 1).saturating_mul(u64::from(self.config.clock_divider));
        if let Some(rate) = self.config.rate_matcher {
            let period = u64::from(rate.period);
            let count = end.div_ceil(period) - (end - cycles).div_ceil(period);
            if count > 0 {
                self.trace.emit(|| TraceEvent::RateMatcherRelock {
                    chip,
                    column,
                    tick,
                    count,
                });
            }
        }
        self.trace.emit(|| TraceEvent::DividerTick {
            chip,
            column,
            tick,
            count: cycles,
        });
        if stalls > 0 {
            self.trace.emit(|| TraceEvent::ZormStall {
                chip,
                column,
                tick,
                cycles: stalls,
            });
        }
    }

    /// Run the column until it halts or `max_cycles` of its own clock
    /// elapse, as that many [`Column::step`] calls would; returns the
    /// cycles consumed.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ColumnError`] encountered.
    pub fn run(&mut self, max_cycles: u64) -> Result<u64, ColumnError> {
        let start = self.stats.cycles;
        self.advance(max_cycles).map_err(|(_, error)| error)?;
        Ok(self.stats.cycles - start)
    }

    /// The loop of [`Column::run`] and [`crate::Chip::run`]: up to `steps`
    /// steps, as batches, single steps and jumps; returns the steps before
    /// the HALT-observing one (or, with the error, the failing one).
    pub(crate) fn advance(&mut self, steps: u64) -> Result<u64, (u64, ColumnError)> {
        match (self.failed, self.jumps) {
            (true, _) => Ok(0),
            (false, true) => self.advance_with::<true>(steps),
            (false, false) => self.advance_with::<false>(steps),
        }
    }

    fn advance_with<const JUMPS: bool>(&mut self, steps: u64) -> Result<u64, (u64, ColumnError)> {
        let mut done = 0;
        while done < steps {
            let batched = self.step_nops(steps - done);
            if batched > 0 {
                done += batched;
                continue;
            }
            self.step().map_err(|error| (done, error))?;
            if self.controller.is_halted() {
                break;
            }
            done += 1;
            if JUMPS {
                done += self.jump(steps - done).map_err(|error| (done, error))?;
            }
        }
        Ok(done)
    }

    /// At the back-edge of the controller's outermost loop — the end of a
    /// firing — jump the firings within `left` steps that repeat the last
    /// one ([`Column::repeat`]), then mark the column for the next
    /// back-edge.  Returns the steps jumped.
    fn jump(&mut self, left: u64) -> Result<u64, ColumnError> {
        if self.controller.back_edge().is_none() {
            return Ok(0);
        }
        let mark = self.mark.take();
        let jumped = mark
            .as_ref()
            .map_or(Ok(0), |mark| self.repeat(mark, left))?;
        let mut tiles = mark.map_or_else(Vec::new, |mark| mark.tiles);
        tiles.clear();
        tiles.extend(self.tiles.iter().map(Tile::mark));
        self.mark = self.controller.back_edge().map(|controller| Mark {
            controller,
            tiles,
            dou: self.dou.clone(),
            bus: self.bus.stats(),
            stats: self.stats,
        });
        Ok(jumped)
    }

    /// Apply at once the firings within `left` steps that repeat the one
    /// since `mark`, and return the steps they take.
    ///
    /// They do when the column stands where it stood at `mark` — the
    /// controller (its loop counter aside), every tile's datapath, the DOU
    /// state — and that firing touched no tile memory and set no segment
    /// switches.  `j` of them apply at once, `j` short of the loop's last
    /// iteration, of a DOU counter reaching zero and of `left`: statistics
    /// grow by `j ×` the firing's, loop and DOU counters count down, ZORM
    /// stalls follow the matcher's schedule, and a trace gets one event per
    /// track.  A DOU under ZORM never jumps: the stalls shift its pattern.
    ///
    /// # Errors
    ///
    /// [`BusError::Overflow`] when a count would pass `u64::MAX`; the
    /// column's state is then unspecified, but no count has wrapped.
    fn repeat(&mut self, mark: &Mark, left: u64) -> Result<u64, ColumnError> {
        let overflow = |what| ColumnError::Bus(BusError::Overflow { what });
        let zorm = self.config.rate_matcher.is_some_and(|m| m.stalls > 0);
        let mut times = self.controller.repeats(&mark.controller, left);
        let mut tiles = self.tiles.iter().zip(&mark.tiles);
        if times == 0 || (zorm && self.dou.is_some()) || !tiles.all(|(t, m)| t.repeats(m)) {
            return Ok(0);
        }
        if let (Some(dou), Some(m)) = (&mut self.dou, &mark.dou) {
            times = dou.repeat(m, times).ok_or(overflow("DOU statistics"))?;
            if times == 0 {
                return Ok(0);
            }
        }
        let (cycles, stalls) = self
            .controller
            .repeat(&mark.controller, times)
            .ok_or(overflow("controller statistics"))?;
        for (tile, m) in self.tiles.iter_mut().zip(&mark.tiles) {
            if !tile.repeat(m, times) {
                return Err(overflow("tile statistics"));
            }
        }
        self.bus.repeat(&mark.bus, times)?;
        let (now, then) = (self.stats, mark.stats);
        let add = |now: u64, then: u64| (now - then).checked_mul(times)?.checked_add(now);
        let stats = (|| {
            Some(ColumnStats {
                cycles: now.cycles.checked_add(cycles)?,
                broadcasts: add(now.broadcasts, then.broadcasts)?,
                branch_stalls: add(now.branch_stalls, then.branch_stalls)?,
                rate_match_stalls: now.rate_match_stalls.checked_add(stalls)?,
                bus_word_transfers: add(now.bus_word_transfers, then.bus_word_transfers)?,
            })
        })();
        self.stats = stats.ok_or(overflow("column statistics"))?;
        if self.trace.enabled() {
            self.trace_cycles(cycles, stalls);
        }
        Ok(cycles)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;
    use synchro_bus::BusOp;
    use synchro_dou::{PatternCycle, ScheduleCompiler};
    use synchro_isa::{assemble, DataReg, ProgramBuilder};
    use synchro_trace::{normalize, RingBufferSink};

    #[test]
    fn simd_broadcast_executes_on_all_enabled_tiles() {
        let program = assemble("li r0, 7\nadd r1, r0, r0\nhalt\n").unwrap();
        let mut col = Column::new(ColumnConfig::isca2004(), program, None);
        col.run(100).unwrap();
        for i in 0..4 {
            assert_eq!(col.tile(i).unwrap().reg(DataReg::new(1)), 14);
        }
        assert_eq!(col.stats().broadcasts, 2);
        assert!(col.is_halted());
    }

    #[test]
    fn disabled_tiles_do_not_execute() {
        let program = assemble("li r0, 7\nhalt\n").unwrap();
        let mut config = ColumnConfig::isca2004();
        config.enabled_tiles = vec![true, false, true, false];
        let mut col = Column::new(config, program, None);
        col.run(10).unwrap();
        assert_eq!(col.tile(0).unwrap().reg(DataReg::new(0)), 7);
        assert_eq!(col.tile(1).unwrap().reg(DataReg::new(0)), 0);
        assert_eq!(col.tile(2).unwrap().reg(DataReg::new(0)), 7);
        assert_eq!(col.tile(3).unwrap().reg(DataReg::new(0)), 0);
    }

    #[test]
    fn dou_moves_r7_between_tiles() {
        // Every tile loads its own value into R7 (SIMD, so all tiles load
        // the same immediate here), sends, then receives: the DOU schedule
        // routes tile 0's word to tile 3.
        let program = assemble("li r7, 42\nsend\nnop\nrecv r2\nhalt\n").unwrap();
        let mut compiler = ScheduleCompiler::new();
        // Cycle 0 (li): idle.  Cycle 1 (send): idle — the write buffer is
        // filled during this cycle.  Cycle 2 (nop): transfer tile0 → tile3.
        compiler.idle();
        compiler.idle();
        compiler.push(PatternCycle {
            segments: None,
            ops: vec![BusOp {
                split: 0,
                producer: 0,
                consumers: vec![3],
            }],
        });
        compiler.idle();
        let dou_program = compiler.compile(1).unwrap();
        let mut col = Column::new(ColumnConfig::isca2004(), program, Some(dou_program));
        col.run(20).unwrap();
        assert_eq!(col.tile(3).unwrap().reg(DataReg::new(2)), 42);
        assert_eq!(col.stats().bus_word_transfers, 1);
    }

    #[test]
    fn broken_dou_schedule_is_reported() {
        // Two producers on the same fully-connected split in one cycle.
        let program = assemble("li r7, 1\nsend\nnop\nhalt\n").unwrap();
        let mut compiler = ScheduleCompiler::new();
        compiler.idle();
        compiler.idle();
        compiler.push(PatternCycle {
            segments: None,
            ops: vec![
                BusOp {
                    split: 0,
                    producer: 0,
                    consumers: vec![1],
                },
                BusOp {
                    split: 0,
                    producer: 2,
                    consumers: vec![3],
                },
            ],
        });
        let dou_program = compiler.compile(1).unwrap();
        let mut col = Column::new(ColumnConfig::isca2004(), program, Some(dou_program));
        let err = col.run(20).unwrap_err();
        assert!(matches!(err, ColumnError::Bus(_)));
        assert!(err.to_string().contains("bus"));
    }

    #[test]
    fn rate_matcher_inflates_cycle_count_without_changing_results() {
        let src = "loop 8, 2\nli r0, 3\nadd r1, r1, r0\nhalt\n";
        let p = assemble(src).unwrap();
        let mut plain = Column::new(ColumnConfig::isca2004(), p.clone(), None);
        let plain_cycles = plain.run(1000).unwrap();

        let mut config = ColumnConfig::isca2004();
        config.rate_matcher = RateMatcher::for_rates(200.0, 100.0);
        let mut throttled = Column::new(config, p, None);
        let throttled_cycles = throttled.run(1000).unwrap();

        assert_eq!(
            plain.tile(0).unwrap().reg(DataReg::new(1)),
            throttled.tile(0).unwrap().reg(DataReg::new(1))
        );
        assert!(throttled_cycles > plain_cycles);
        assert!(throttled.stats().rate_match_stalls > 0);
    }

    #[test]
    fn halted_column_ignores_further_steps() {
        let p = assemble("halt\n").unwrap();
        let mut col = Column::new(ColumnConfig::isca2004(), p, None);
        col.step().unwrap();
        let before = col.stats().cycles;
        col.step().unwrap();
        assert_eq!(col.stats().cycles, before);
    }

    #[test]
    fn tile_fault_is_reported_with_tile_index() {
        let p = assemble("setp p0, 9000\nld r0, p0, 0\nhalt\n").unwrap();
        let mut col = Column::new(ColumnConfig::isca2004(), p, None);
        let err = col.run(10).unwrap_err();
        match err {
            ColumnError::Tile { tile, .. } => assert_eq!(tile, 0),
            other => panic!("expected tile error, got {other}"),
        }
    }

    #[test]
    fn fault_on_a_later_tile_is_reported_with_its_index() {
        // Tile 0 is disabled, so tile 1 is the first to fault.
        let p = assemble("setp p0, 9000\nld r0, p0, 0\nhalt\n").unwrap();
        let mut config = ColumnConfig::isca2004();
        config.enabled_tiles = vec![false, true, true, true];
        let mut col = Column::new(config, p, None);
        match col.run(10).unwrap_err() {
            ColumnError::Tile { tile, .. } => assert_eq!(tile, 1),
            other => panic!("expected tile error, got {other}"),
        }
    }

    /// Run a program that sets the condition from `r0 = value` on every
    /// tile and branches on it, and return tile 1's `r1`: 2 if the branch
    /// was taken, 1 if not.
    fn branch_outcome(value: i32, enabled_tiles: Vec<bool>) -> i32 {
        let src = format!(
            "li r0, {value}\nsetcond r0\nbrnz taken\nli r1, 1\nhalt\ntaken:\nli r1, 2\nhalt\n"
        );
        let config = ColumnConfig {
            enabled_tiles,
            ..ColumnConfig::isca2004()
        };
        let mut col = Column::new(config, assemble(&src).unwrap(), None);
        col.run(20).unwrap();
        assert!(col.is_halted());
        col.tile(1).unwrap().reg(DataReg::new(1))
    }

    #[test]
    fn set_cond_on_tile_zero_steers_the_branch() {
        assert_eq!(branch_outcome(5, vec![true; 4]), 2);
        assert_eq!(branch_outcome(0, vec![true; 4]), 1);
    }

    #[test]
    fn disabled_tile_zero_leaves_the_condition_at_zero() {
        assert_eq!(branch_outcome(5, vec![false, true, true, true]), 1);
    }

    #[test]
    fn hand_built_zero_period_rate_matcher_stalls_instead_of_panicking() {
        // A period of 0 used to divide by zero on the first step; it is
        // normalised to 1, which saturates the matcher: every slot stalls.
        let config = ColumnConfig {
            rate_matcher: Some(RateMatcher {
                period: 0,
                stalls: 1,
            }),
            ..ColumnConfig::isca2004()
        };
        let mut col = Column::new(config, assemble("li r0, 1\nhalt\n").unwrap(), None);
        assert_eq!(col.config().rate_matcher.unwrap().period, 1);
        assert_eq!(col.run(50).unwrap(), 50);
        assert!(!col.is_halted());
        assert_eq!(col.stats().rate_match_stalls, 50);
        assert_eq!(col.stats().broadcasts, 0);
    }

    #[test]
    fn hand_built_zero_divider_is_normalised_at_construction() {
        let config = ColumnConfig {
            clock_divider: 0,
            ..ColumnConfig::isca2004()
        };
        let col = Column::new(config, assemble("halt\n").unwrap(), None);
        assert_eq!(col.config().clock_divider, 1);
    }

    #[test]
    fn halt_observation_does_not_inflate_cycle_count() {
        // 3 broadcasts, then one step that only discovers the HALT: the
        // column must report exactly 3 cycles, not 4.
        let p = assemble("li r0, 1\nadd r1, r1, r0\nadd r1, r1, r0\nhalt\n").unwrap();
        let mut col = Column::new(ColumnConfig::isca2004(), p, None);
        let cycles = col.run(100).unwrap();
        assert!(col.is_halted());
        assert_eq!(cycles, 3);
        assert_eq!(col.stats().cycles, 3);
        assert_eq!(col.stats().broadcasts, 3);
    }

    #[test]
    fn config_builders_work() {
        let c = ColumnConfig::isca2004().with_divider(5).with_voltage(0.8);
        assert_eq!(c.clock_divider, 5);
        assert!((c.voltage - 0.8).abs() < 1e-12);
        assert_eq!(ColumnConfig::default(), ColumnConfig::isca2004());
    }

    /// The mapper's firing, `iters` times: tag, send, `nops` compute NOPs
    /// in a zero-overhead loop, receive.
    pub(crate) fn firing_program(iters: u32, nops: u32) -> Program {
        let mut b = ProgramBuilder::new();
        b.counted_loop(iters, |b| {
            b.load_imm(DataReg::new(7), 5);
            b.send();
            b.counted_loop(nops, |b| {
                b.nop();
            });
            b.recv(DataReg::new(2));
        });
        b.halt();
        b.build().unwrap()
    }

    /// The mapper's DOU pattern for a `slots`-cycle firing: tile 0's word
    /// goes to the other tiles one cycle after the send.
    pub(crate) fn firing_dou(slots: usize, tiles: usize, iters: u32) -> DouProgram {
        let mut schedule = ScheduleCompiler::new();
        schedule.idle_for(2).push_op(BusOp {
            split: 0,
            producer: 0,
            consumers: (1..tiles).collect(),
        });
        schedule.idle_for(slots.saturating_sub(3));
        schedule.compile(iters).unwrap()
    }

    #[test]
    fn mapper_firing_issues_its_compute_nops_in_one_batch() {
        let mut col = Column::new(
            ColumnConfig::isca2004(),
            firing_program(2, 20),
            Some(firing_dou(23, 4, 2)),
        );
        // li, send, and the first NOP (which the DOU's transfer shares)
        // step one at a time.
        for _ in 0..3 {
            assert_eq!(col.step_nops(100), 0);
            col.step().unwrap();
        }
        assert_eq!(col.step_nops(100), 19, "the other 19 NOPs in one batch");
        assert_eq!(col.step_nops(100), 0, "then the recv");
        assert_eq!(col.stats().cycles, 22);
        assert_eq!(col.tile(3).unwrap().stats().nops, 20);
        assert_eq!(col.bus_stats().scheduled_slots, 8 * 22);
        assert_eq!(col.run(100).unwrap(), 24, "the rest of the program");
        assert!(col.is_halted());
        // A rate-matched column steps every cycle.
        let mut throttled = Column::new(
            ColumnConfig {
                rate_matcher: Some(RateMatcher {
                    period: 4,
                    stalls: 1,
                }),
                ..ColumnConfig::isca2004()
            },
            firing_program(1, 20),
            None,
        );
        // Stall, li, send, NOP (pushing the loop), stall: three NOPs are
        // ahead before the next stall.
        throttled.run(5).unwrap();
        assert_eq!(throttled.controller.nop_run(), 3);
        assert_eq!(throttled.step_nops(100), 0);
    }

    /// Every piece of state a batch or a jump touches, plus the segment
    /// switches.
    fn assert_same_column(batched: &Column, stepped: &Column) -> Result<(), TestCaseError> {
        prop_assert_eq!(&batched.controller, &stepped.controller);
        prop_assert_eq!(&batched.dou, &stepped.dou);
        prop_assert_eq!(&batched.tiles, &stepped.tiles);
        prop_assert_eq!(batched.stats, stepped.stats);
        prop_assert_eq!(batched.bus.stats(), stepped.bus.stats());
        prop_assert_eq!(&batched.segment_config, &stepped.segment_config);
        Ok(())
    }

    proptest! {
        /// `Column::run(n)`, which issues NOP loops in batches, leaves the
        /// controller, DOU, every tile (random enable bits), the column
        /// and vertical-bus statistics and the trace equal to `n` calls of
        /// `Column::step`, over a run cut into random windows.  Columns
        /// run the mapper's firing with no DOU, the mapper's DOU pattern
        /// or a random one (transfers, segment changes, idle cycles), and
        /// some have a ZORM rate matcher.
        #[test]
        fn batched_run_matches_single_steps(
            iters in 1u32..6,
            nops in 0u32..24,
            tiles in 1usize..5,
            enabled in any::<u8>(),
            dou_kind in 0u32..3,
            pattern in prop::collection::vec(any::<u8>(), 1..12),
            repetitions in 0u32..4,
            zorm in 0u32..4,
            period in 2u32..9,
            divider in 1u32..4,
            windows in prop::collection::vec(0u64..40, 1..12),
        ) {
            let slots = nops as usize + 3;
            let dou = match dou_kind {
                0 => None,
                1 => Some(firing_dou(slots, tiles, iters)),
                _ => {
                    let closed = SegmentConfig::all_closed(8, tiles);
                    let mut schedule = ScheduleCompiler::new();
                    for byte in &pattern {
                        schedule.push(match byte % 4 {
                            0 => PatternCycle {
                                segments: Some(closed.clone()),
                                ops: vec![BusOp {
                                    split: usize::from(byte >> 5),
                                    producer: 0,
                                    consumers: (1..tiles).collect(),
                                }],
                            },
                            1 => PatternCycle {
                                segments: Some(SegmentConfig::all_open(8, tiles)),
                                ops: Vec::new(),
                            },
                            _ => PatternCycle::default(),
                        });
                    }
                    Some(schedule.compile(repetitions).unwrap())
                }
            };
            let config = ColumnConfig {
                tiles,
                clock_divider: divider,
                enabled_tiles: (0..tiles).map(|i| enabled >> i & 1 == 1).collect(),
                // One column in four has a ZORM matcher.
                rate_matcher: (zorm == 0).then_some(RateMatcher {
                    period,
                    stalls: 1 + u32::from(enabled) % (period - 1),
                }),
                ..ColumnConfig::isca2004()
            };
            let build = |ring: &Arc<RingBufferSink>| {
                let mut col = Column::new(config.clone(), firing_program(iters, nops), dou.clone());
                col.set_trace(Trace::to(ring.clone()), 0, 3);
                col
            };
            let (batched_ring, stepped_ring) =
                (Arc::new(RingBufferSink::new(1 << 16)), Arc::new(RingBufferSink::new(1 << 16)));
            let mut batched = build(&batched_ring);
            let mut stepped = build(&stepped_ring);
            for n in windows {
                let before = stepped.stats.cycles;
                let reference: Result<u64, ColumnError> =
                    (0..n).try_for_each(|_| stepped.step()).map(|()| stepped.stats.cycles - before);
                let result = batched.run(n);
                prop_assert_eq!(format!("{result:?}"), format!("{reference:?}"));
                if result.is_err() {
                    return Ok(());
                }
                assert_same_column(&batched, &stepped)?;
                prop_assert_eq!(batched_ring.events(), stepped_ring.events());
            }
            prop_assert_eq!(batched_ring.dropped() + stepped_ring.dropped(), 0);
        }
    }

    /// A column program of `iters` firings: the mapper's (`kind` 0 or 1),
    /// one whose tiles count firings in `r1` so no two firings end alike
    /// (2), or one that stores to tile memory in every firing (3).
    fn jump_program(kind: u32, iters: u32, nops: u32) -> Program {
        let tail = match kind {
            2 => "add r1, r1, r7\n",
            3 => "st r2, p0, 3\n",
            _ => "",
        };
        let body = 5 + u32::from(!tail.is_empty());
        let src = format!(
            "loop {iters}, {body}\nli r7, 5\nsend\nloop {nops}, 1\nnop\nrecv r2\n{tail}halt\n"
        );
        synchro_isa::assemble(&src).unwrap()
    }

    proptest! {
        /// A chip whose column jumps firings ([`Column::jump`]) leaves the
        /// controller, every tile (random enable bits), the DOU, the
        /// segment switches, the column, vertical-bus and chip statistics
        /// and the normalised trace equal to `Chip::run_ticked`, which
        /// steps every cycle, after every window of a run cut at random
        /// ticks, mid-firing included.  Columns are the mapper's: 1–4
        /// tiles, divider 1–4, no DOU, the mapper's DOU or a random one
        /// (transfers, segment changes, idle cycles), one in three behind a
        /// ZORM matcher.  Programs whose firings differ, or that touch
        /// tile memory, must match without ever jumping.
        #[test]
        fn firing_jumps_match_single_steps(
            kind in 0u32..4,
            iters in 1u32..40,
            nops in 0u32..10,
            tiles in 1usize..5,
            enabled in any::<u8>(),
            dou_kind in 0u32..3,
            pattern in prop::collection::vec(any::<u8>(), 1..8),
            zorm in 0u32..3,
            period in 2u32..9,
            divider in 1u32..5,
            windows in prop::collection::vec(0u64..400, 1..8),
        ) {
            let slots = nops as usize + 3 + usize::from(kind >= 2);
            let dou = match dou_kind {
                0 => None,
                1 => Some(firing_dou(slots, tiles, iters)),
                _ => {
                    let mut schedule = ScheduleCompiler::new();
                    for byte in &pattern {
                        schedule.push(match byte % 4 {
                            0 => PatternCycle {
                                segments: Some(SegmentConfig::all_closed(8, tiles)),
                                ops: vec![BusOp {
                                    split: usize::from(byte >> 5),
                                    producer: 0,
                                    consumers: (1..tiles).collect(),
                                }],
                            },
                            1 => PatternCycle {
                                segments: Some(SegmentConfig::all_open(8, tiles)),
                                ops: Vec::new(),
                            },
                            _ => PatternCycle::default(),
                        });
                    }
                    Some(schedule.compile(u32::from(pattern[0]) % 4).unwrap())
                }
            };
            let config = ColumnConfig {
                tiles,
                clock_divider: divider,
                enabled_tiles: (0..tiles).map(|i| enabled >> i & 1 == 1).collect(),
                rate_matcher: (zorm == 0).then_some(RateMatcher {
                    period,
                    stalls: 1 + u32::from(enabled) % (period - 1),
                }),
                ..ColumnConfig::isca2004()
            };
            let build = |jumps: bool, ring: &Arc<RingBufferSink>| {
                let mut column = Column::new(config.clone(), jump_program(kind, iters, nops), dou.clone());
                column.set_firing_jumps(jumps);
                let mut chip = crate::Chip::new();
                chip.set_trace(Trace::to(ring.clone()), 0);
                chip.add_column(column);
                chip
            };
            let (jumped_ring, stepped_ring) =
                (Arc::new(RingBufferSink::new(1 << 16)), Arc::new(RingBufferSink::new(1 << 16)));
            let mut jumped = build(true, &jumped_ring);
            let mut stepped = build(false, &stepped_ring);
            for window in windows.into_iter().chain([u64::MAX]) {
                let result = jumped.run(window);
                let reference = stepped.run_ticked(window);
                prop_assert_eq!(format!("{result:?}"), format!("{reference:?}"));
                if result.is_err() {
                    return Ok(());
                }
                prop_assert_eq!(jumped.stats(), stepped.stats());
                let (a, b) = (jumped.column(0).unwrap(), stepped.column(0).unwrap());
                assert_same_column(a, b)?;
            }
            prop_assert!(jumped.all_halted());
            let (events, reference) = (jumped_ring.events(), stepped_ring.events());
            prop_assert_eq!(jumped_ring.dropped() + stepped_ring.dropped(), 0);
            prop_assert_eq!(normalize(&events), normalize(&reference));
            let jumps = events
                .iter()
                .filter(|e| matches!(e, TraceEvent::DividerTick { count, .. } if *count > 1))
                .count();
            // (Disabled tiles execute nothing, so on a column without an
            // enabled tile every firing is alike and may jump.)
            if kind >= 2 && config.enabled_tiles.contains(&true) {
                prop_assert_eq!(jumps, 0, "firings that differ or touch memory never jump");
            }
        }
    }

    #[test]
    fn steady_firings_jump_and_the_rest_step() {
        // 40 mapper firings with the mapper's DOU: the first two step, the
        // jump covers all but the last, which steps to the HALT.
        let firing = |jumps| {
            let mut column = Column::new(
                ColumnConfig::isca2004(),
                firing_program(40, 6),
                Some(firing_dou(9, 4, 40)),
            );
            column.set_firing_jumps(jumps);
            column
        };
        let (mut jumped, mut stepped) = (firing(true), firing(false));
        let ring = Arc::new(RingBufferSink::new(1 << 12));
        jumped.set_trace(Trace::to(ring.clone()), 0, 0);
        assert_eq!(jumped.run(u64::MAX).unwrap(), 40 * 9);
        assert_eq!(stepped.run(u64::MAX).unwrap(), 40 * 9);
        assert!(jumped.is_halted());
        assert_same_column(&jumped, &stepped).unwrap();
        let jumps: Vec<TraceEvent> = ring
            .events()
            .into_iter()
            .filter(|e| matches!(e, TraceEvent::DividerTick { count, .. } if *count > 1))
            .collect();
        let last_jumped_cycle = 39 * 9 - 1;
        assert_eq!(
            jumps,
            [TraceEvent::DividerTick {
                chip: 0,
                column: 0,
                tick: last_jumped_cycle,
                count: 37 * 9,
            }]
        );
        // A window that ends mid-jump jumps only the firings that fit.
        let mut cut = firing(true);
        assert_eq!(cut.run(9 * 10 + 4).unwrap(), 9 * 10 + 4);
        assert_eq!(
            cut.controller.back_edge(),
            None,
            "four cycles into firing 11"
        );
        // Staging a tile forgets the last firing: the next jump waits for
        // two more.
        cut.tile_mut(0);
        assert!(cut.mark.is_none());
        assert_eq!(cut.run(u64::MAX).unwrap(), 40 * 9 - 94);
        assert_same_column(&cut, &stepped).unwrap();
    }
}
