//! The whole chip: columns in rationally-related clock domains plus the
//! horizontal inter-column bus.

use crate::column::{Column, ColumnError, ColumnStats};
use crate::program::{checked_product, checked_sum, Slot, SlotProgram, SlotSink};
use synchro_bus::{BusError, BusStats, HorizontalBus};
use synchro_trace::{Trace, TraceEvent};

/// Chip-level statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChipStats {
    /// Reference-clock ticks simulated.
    pub reference_cycles: u64,
    /// Sum of column clock cycles actually executed.
    pub column_cycles: u64,
    /// Horizontal bus traffic.
    pub horizontal_transfers: u64,
}

/// One scheduled transfer of a [`BusProgram`]: `words` back-to-back words
/// from column `from` to columns `to`, issued when the reference clock
/// passes `tick` (an offset within the program's period).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusSlot {
    /// Reference-tick offset within the period at which the slot fires.
    pub tick: u64,
    /// Producing column.
    pub from: usize,
    /// Consuming columns.
    pub to: Vec<usize>,
    /// Words transferred back to back.
    pub words: u64,
}

/// A chip's periodic, statically compiled horizontal-bus schedule: the
/// [`SlotProgram`] a chip plays onto its [`HorizontalBus`].  Its
/// scheduled slots per period are `splits × bus cycles`.
pub type BusProgram = SlotProgram<BusSlot>;

impl Slot for BusSlot {
    fn tick(&self) -> u64 {
        self.tick
    }

    fn words(&self) -> u64 {
        self.words
    }
}

/// A Synchroscalar chip: a set of columns, each in its own clock (and
/// voltage) domain, connected by one horizontal bus.
#[derive(Debug, Default)]
pub struct Chip {
    columns: Vec<Column>,
    horizontal: Option<HorizontalBus>,
    bus_program: Option<Box<BusProgram>>,
    stats: ChipStats,
    trace: Trace,
    chip_id: u32,
}

impl Chip {
    /// An empty chip.
    pub fn new() -> Self {
        Chip::default()
    }

    /// Add a column; returns its index.  The horizontal bus grows to span
    /// the new column while keeping any traffic statistics it has already
    /// accumulated.
    pub fn add_column(&mut self, mut column: Column) -> usize {
        let index = self.columns.len();
        if self.trace.enabled() {
            column.set_trace(self.trace.clone(), self.chip_id, index as u32);
        }
        self.columns.push(column);
        let columns = self.columns.len();
        match &mut self.horizontal {
            Some(bus) => bus.resize(columns),
            None => self.horizontal = Some(HorizontalBus::new(columns)),
        }
        index
    }

    /// Install a trace sink on the chip and every column it holds (columns
    /// added later inherit it), stamping events with board chip index
    /// `chip_id`.
    pub fn set_trace(&mut self, trace: Trace, chip_id: u32) {
        self.trace = trace;
        self.chip_id = chip_id;
        for (index, column) in self.columns.iter_mut().enumerate() {
            column.set_trace(self.trace.clone(), chip_id, index as u32);
        }
    }

    /// The trace handle events flow through (disabled by default).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The board chip index stamped on this chip's events.
    pub fn chip_id(&self) -> u32 {
        self.chip_id
    }

    /// Number of columns.
    pub fn columns(&self) -> usize {
        self.columns.len()
    }

    /// Access a column.
    pub fn column(&self, index: usize) -> Option<&Column> {
        self.columns.get(index)
    }

    /// Mutable access to a column (e.g. to stage tile memories).
    pub fn column_mut(&mut self, index: usize) -> Option<&mut Column> {
        self.columns.get_mut(index)
    }

    /// Record one inter-column transfer on the horizontal bus (the DOUs of
    /// the producing and consuming columns coordinate the actual word
    /// movement; the chip model accounts the traffic for the power model).
    ///
    /// # Errors
    ///
    /// Returns an error if a column index is out of range — including any
    /// transfer on a chip with no columns at all.
    pub fn horizontal_transfer(&mut self, from: usize, to: &[usize]) -> Result<(), BusError> {
        self.horizontal_transfer_words(from, to, 1)
    }

    /// Record `words` back-to-back inter-column transfers in one call —
    /// statistics-equivalent to `words` [`Chip::horizontal_transfer`]
    /// calls, without the loop (bulk accounting for statically scheduled
    /// traffic).
    ///
    /// # Errors
    ///
    /// Returns an error if a column index is out of range — including any
    /// transfer on a chip with no columns at all.
    pub fn horizontal_transfer_words(
        &mut self,
        from: usize,
        to: &[usize],
        words: u64,
    ) -> Result<(), BusError> {
        // `horizontal` is `Some` exactly when at least one column exists; a
        // zero-column chip has no bus to transfer on.
        let Some(bus) = self.horizontal.as_mut() else {
            return Err(BusError::IndexOutOfRange {
                what: "column",
                index: from,
                limit: 0,
            });
        };
        let total = self.stats.horizontal_transfers;
        let transfers = checked_sum(total, words, "horizontal bus traffic")?;
        bus.transfer_words(from, to, words)?;
        self.stats.horizontal_transfers = transfers;
        Ok(())
    }

    /// Horizontal bus statistics, if any column exists.
    pub fn horizontal_stats(&self) -> Option<BusStats> {
        self.horizontal.as_ref().map(HorizontalBus::stats)
    }

    /// Load a statically compiled bus schedule.  The program starts at the
    /// current reference tick; [`Chip::tick`] / [`Chip::run`] then drive
    /// the horizontal bus slot by slot as the reference clock passes each
    /// slot's time, replacing after-the-fact aggregate billing.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::IndexOutOfRange`] if a slot
    /// references a column the chip does not have.
    pub fn load_bus_program(&mut self, mut program: BusProgram) -> Result<(), BusError> {
        let columns = self.columns.len();
        for slot in program.slots() {
            for &c in std::iter::once(&slot.from).chain(&slot.to) {
                if c >= columns {
                    return Err(BusError::IndexOutOfRange {
                        what: "column",
                        index: c,
                        limit: columns,
                    });
                }
            }
        }
        program.load_at(self.stats.reference_cycles);
        self.bus_program = Some(Box::new(program));
        Ok(())
    }

    /// Drive the loaded bus program to completion regardless of how far
    /// the reference clock has advanced — the drain step a chip driver
    /// calls once every column has halted, so the final iteration's slots
    /// (which may lie past the halting tick) are still accounted.  The
    /// remaining periods are issued in closed form ([`SlotProgram`]).
    /// Idempotent: a finished (or absent) program is a no-op.
    ///
    /// # Errors
    ///
    /// Propagates bus faults, which indicate a broken schedule, and
    /// returns [`BusError::Overflow`] when a bulk count or a running total
    /// passes `u64::MAX`; the chip's statistics are then unspecified.
    pub fn finish_bus_program(&mut self) -> Result<(), ColumnError> {
        Ok(self.advance_program(u64::MAX)?)
    }

    /// True when every column has halted.
    ///
    /// A [failed](Chip::fail_column) column never halts, so a chip with a
    /// dead column can only be retired by a starvation watchdog.
    pub fn all_halted(&self) -> bool {
        self.columns.iter().all(Column::is_halted)
    }

    /// Kill column `column` at reference tick `tick`: it stops executing
    /// and billing cycles but never reports halted (dead, not done).
    /// Emits [`TraceEvent::FaultColumnKilled`] and returns `false` if the
    /// column does not exist.
    pub fn fail_column(&mut self, column: usize, tick: u64) -> bool {
        let Some(col) = self.columns.get_mut(column) else {
            return false;
        };
        col.fail();
        self.trace.emit(|| TraceEvent::FaultColumnKilled {
            chip: self.chip_id,
            column: column as u32,
            tick,
        });
        true
    }

    /// True when any column has been killed by a fault.
    pub fn any_failed(&self) -> bool {
        self.columns.iter().any(Column::is_failed)
    }

    /// Chip statistics so far.
    pub fn stats(&self) -> ChipStats {
        self.stats
    }

    /// Per-column statistics.
    pub fn column_stats(&self) -> Vec<ColumnStats> {
        self.columns.iter().map(Column::stats).collect()
    }

    /// Per-column segmented vertical-bus statistics, in column order.
    pub fn column_bus_stats(&self) -> Vec<BusStats> {
        self.columns.iter().map(Column::bus_stats).collect()
    }

    /// Advance the reference clock by one tick.  Each column steps only on
    /// ticks its clock divider selects, so a column with divider `d` runs
    /// at exactly `1/d` of the reference frequency.
    ///
    /// # Errors
    ///
    /// Propagates the first column error encountered.
    pub fn tick(&mut self) -> Result<(), ColumnError> {
        let tick_index = self.stats.reference_cycles;
        self.stats.reference_cycles += 1;
        // The statically scheduled bus fires first: every program slot due
        // up to and including this tick is issued before the columns step.
        // The program reads no column state, so this order cannot change
        // what [`Chip::run`] (which drives the bus once per window)
        // produces.
        self.advance_program(tick_index + 1)?;
        for column in &mut self.columns {
            // `Column::new` guarantees `clock_divider >= 1`.
            let divider = u64::from(column.config().clock_divider);
            if tick_index.is_multiple_of(divider) && !column.is_halted() && !column.is_failed() {
                let before = column.stats().cycles;
                column.step()?;
                // A step that only observes the HALT executes no cycle.
                self.stats.column_cycles += column.stats().cycles - before;
            }
        }
        Ok(())
    }

    /// Run the reference clock until every column halts or `max_ticks`
    /// elapse.  Returns the number of reference ticks consumed.
    ///
    /// Each live column is advanced through the whole window on its own,
    /// in one loop over the ticks its divider selects: `start.div_ceil(d)
    /// · d`, then every `d` ticks while the tick is below the window's
    /// end, stopping at the step that observes its HALT.  This is exact
    /// because within a window the columns are independent:
    /// [`Column::step`] reads and writes only its own controller, tiles,
    /// DOU and vertical bus, and the horizontal [`BusProgram`] issues its
    /// slots by reference time alone, never reading column state.  So
    /// every column, then the bus program, can run to the window's end in
    /// turn.  If every column has halted, the clock stops one tick after
    /// the latest halt-observing step, otherwise at the window's end.
    ///
    /// A column's loop is [`Column::run`]'s: NOP loops in batches, with
    /// firing jumps on ([`Column::set_firing_jumps`]) repeated firings at
    /// once, every other cycle by [`Column::step`].
    ///
    /// The produced [`ChipStats`], per-column, vertical- and
    /// horizontal-bus statistics, tile state and tick count are
    /// bit-identical to the tick-by-tick loop ([`Chip::run_ticked`]),
    /// which steps every cycle and never jumps, kept as the
    /// differential-testing reference, for any split of a run into
    /// windows.  Trace events carry the same ticks, but one window's
    /// events arrive grouped by column (then the bus slots) rather than
    /// interleaved by tick, and a jump, or a bus slot over whole periods,
    /// is one event stamped at its last; [`synchro_trace::normalize`],
    /// trace analysis and the Chrome exporter key on each event's own tick
    /// and count, so only a
    /// truncating ring buffer keeps a different tail.  After an error the
    /// trace may also hold events past the error tick, from columns that
    /// ran through the window before the failing one; the tick-by-tick
    /// loop stops at the error and never emits them.
    ///
    /// # Errors
    ///
    /// Returns the column error at the earliest reference tick, ties
    /// going to the lowest column — the error the tick-by-tick loop
    /// meets first — and [`BusError::Overflow`] when a count passes
    /// `u64::MAX`, the reference clock among them: a window asked of a
    /// clock at `u64::MAX` with a column still live.  Chip state after an
    /// error is unspecified.
    pub fn run(&mut self, max_ticks: u64) -> Result<u64, ColumnError> {
        let start = self.stats.reference_cycles;
        let end = start.saturating_add(max_ticks);
        if max_ticks == 0 || self.all_halted() {
            return Ok(0);
        }
        if end == start {
            let live = |c: &Column| !c.is_halted() && !c.is_failed();
            if self.columns.iter().any(live) {
                return Err(ColumnError::Bus(BusError::Overflow {
                    what: "reference ticks",
                }));
            }
            return Ok(0);
        }
        let mut first_error: Option<(u64, ColumnError)> = None;
        let mut last_halt: Option<u64> = None;
        for column in &mut self.columns {
            if column.is_halted() || column.is_failed() {
                continue;
            }
            // A later column only matters before the earliest error so far:
            // at that tick an earlier column has already failed.
            let cap = first_error.as_ref().map_or(end, |&(tick, _)| tick);
            // `Column::new` guarantees `clock_divider >= 1`.
            let divider = u64::from(column.config().clock_divider);
            let before = column.stats().cycles;
            // The column steps on `first`, `first + d`, … below `cap`; the
            // `done`-th of those ticks is `first + done · d < cap`, so it
            // never overflows.
            let first = start.div_ceil(divider).saturating_mul(divider);
            let steps = if first < cap {
                (cap - first).div_ceil(divider)
            } else {
                0
            };
            match column.advance(steps) {
                Ok(done) if column.is_halted() => {
                    last_halt = last_halt.max(Some(first + done * divider));
                }
                Ok(_) => {}
                Err((done, error)) => first_error = Some((first + done * divider, error)),
            }
            let cycles = column.stats().cycles - before;
            self.stats.column_cycles =
                checked_sum(self.stats.column_cycles, cycles, "chip column cycles")?;
        }
        if let Some((tick, error)) = first_error {
            self.stats.reference_cycles = tick + 1;
            self.advance_program(tick + 1)?;
            return Err(error);
        }
        let stop = match last_halt {
            Some(tick) if self.all_halted() => tick + 1,
            _ => end,
        };
        self.stats.reference_cycles = stop;
        self.advance_program(stop)?;
        Ok(stop - start)
    }

    /// The naive tick-by-tick equivalent of [`Chip::run`], kept as the
    /// differential-testing and benchmarking reference.
    ///
    /// # Errors
    ///
    /// Propagates the first column error encountered.
    pub fn run_ticked(&mut self, max_ticks: u64) -> Result<u64, ColumnError> {
        let start = self.stats.reference_cycles;
        for _ in 0..max_ticks {
            if self.all_halted() {
                break;
            }
            self.tick()?;
        }
        Ok(self.stats.reference_cycles - start)
    }
}

impl SlotSink<BusSlot> for Chip {
    const SCHEDULED: &'static str = "scheduled bus slots";

    fn program(&mut self) -> &mut Option<Box<BusProgram>> {
        &mut self.bus_program
    }

    fn issue(&mut self, slot: &BusSlot, count: u64, last: u64) -> Result<(), BusError> {
        let words = checked_product(slot.words, count, "bus slot words")?;
        self.horizontal_transfer_words(slot.from, &slot.to, words)?;
        self.trace.emit(|| TraceEvent::BusSlot {
            chip: self.chip_id,
            tick: last,
            from: slot.from as u32,
            to: slot.to.iter().map(|&c| c as u32).collect(),
            words,
            count,
        });
        Ok(())
    }

    fn schedule(&mut self, slots: u64) -> Result<(), BusError> {
        match self.horizontal.as_mut() {
            Some(bus) => bus.account_scheduled_slots(slots),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnConfig;
    use synchro_isa::{assemble, DataReg};

    fn counting_column(iterations: u32, divider: u32) -> Column {
        let src = format!("loop {iterations}, 2\nli r0, 1\nadd r1, r1, r0\nhalt\n");
        let program = assemble(&src).unwrap();
        Column::new(
            ColumnConfig::isca2004().with_divider(divider),
            program,
            None,
        )
    }

    #[test]
    fn clock_dividers_give_rationally_related_rates() {
        let mut chip = Chip::new();
        chip.add_column(counting_column(10, 1));
        chip.add_column(counting_column(10, 2));
        chip.add_column(counting_column(10, 5));
        // Run a fixed window shorter than any program's completion.
        for _ in 0..10 {
            chip.tick().unwrap();
        }
        let stats = chip.column_stats();
        assert_eq!(stats[0].cycles, 10);
        assert_eq!(stats[1].cycles, 5);
        assert_eq!(stats[2].cycles, 2);
        assert_eq!(chip.stats().reference_cycles, 10);
        assert_eq!(chip.stats().column_cycles, 17);
    }

    #[test]
    fn run_stops_when_all_columns_halt() {
        let mut chip = Chip::new();
        chip.add_column(counting_column(3, 1));
        chip.add_column(counting_column(3, 2));
        let ticks = chip.run(1000).unwrap();
        assert!(chip.all_halted());
        assert!(ticks < 1000);
        // Exact cycle accounting: 3 iterations × 2 instructions, and the
        // step that merely observes the HALT is not billed.
        let stats = chip.column_stats();
        assert_eq!(stats[0].cycles, 6);
        assert_eq!(stats[1].cycles, 6);
        assert_eq!(chip.stats().column_cycles, 12);
        // Both columns computed the same result despite different clocks.
        let r1 = chip
            .column(0)
            .unwrap()
            .tile(0)
            .unwrap()
            .reg(DataReg::new(1));
        let r2 = chip
            .column(1)
            .unwrap()
            .tile(0)
            .unwrap()
            .reg(DataReg::new(1));
        assert_eq!(r1, 3);
        assert_eq!(r1, r2);
    }

    #[test]
    fn slower_column_takes_proportionally_more_reference_ticks() {
        let mut fast = Chip::new();
        fast.add_column(counting_column(50, 1));
        let fast_ticks = fast.run(100_000).unwrap();

        let mut slow = Chip::new();
        slow.add_column(counting_column(50, 4));
        let slow_ticks = slow.run(100_000).unwrap();

        // The divider-4 column needs ~4× the reference ticks.
        let ratio = slow_ticks as f64 / fast_ticks as f64;
        assert!((ratio - 4.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn horizontal_bus_accounts_inter_column_traffic() {
        let mut chip = Chip::new();
        chip.add_column(counting_column(1, 1));
        chip.add_column(counting_column(1, 1));
        chip.horizontal_transfer(0, &[1]).unwrap();
        chip.horizontal_transfer(1, &[0]).unwrap();
        assert_eq!(chip.stats().horizontal_transfers, 2);
        let bus = chip.horizontal_stats().unwrap();
        assert_eq!(bus.word_transfers, 2);
        assert!(chip.horizontal_transfer(5, &[0]).is_err());
    }

    #[test]
    fn empty_chip_is_trivially_halted() {
        let mut chip = Chip::new();
        assert!(chip.all_halted());
        assert_eq!(chip.run(10).unwrap(), 0);
        assert_eq!(chip.columns(), 0);
        assert!(chip.horizontal_stats().is_none());
    }

    #[test]
    fn adding_a_column_preserves_horizontal_bus_stats() {
        let mut chip = Chip::new();
        chip.add_column(counting_column(1, 1));
        chip.add_column(counting_column(1, 1));
        chip.horizontal_transfer(0, &[1]).unwrap();
        chip.horizontal_transfer(1, &[0]).unwrap();
        let before = chip.horizontal_stats().unwrap();
        assert_eq!(before.word_transfers, 2);

        // Adding a third column after traffic has occurred must keep the
        // accumulated statistics and span the newcomer.
        chip.add_column(counting_column(1, 1));
        let after = chip.horizontal_stats().unwrap();
        assert_eq!(after, before, "bus stats were discarded by add_column");
        chip.horizontal_transfer(2, &[0, 1]).unwrap();
        assert_eq!(chip.horizontal_stats().unwrap().word_transfers, 3);
        assert_eq!(chip.stats().horizontal_transfers, 3);
    }

    #[test]
    fn zero_column_chip_rejects_horizontal_transfers() {
        let mut chip = Chip::new();
        let err = chip.horizontal_transfer(0, &[]).unwrap_err();
        assert!(matches!(
            err,
            synchro_bus::BusError::IndexOutOfRange { limit: 0, .. }
        ));
        assert_eq!(chip.stats().horizontal_transfers, 0);
        assert!(chip.horizontal_stats().is_none());
    }

    #[test]
    fn event_driven_run_matches_ticked_run_bit_for_bit() {
        let build = || {
            let mut chip = Chip::new();
            chip.add_column(counting_column(40, 3));
            chip.add_column(counting_column(25, 7));
            chip.add_column(counting_column(10, 16));
            chip
        };
        let mut fast = build();
        let mut slow = build();
        let fast_ticks = fast.run(10_000).unwrap();
        let slow_ticks = slow.run_ticked(10_000).unwrap();
        assert_eq!(fast_ticks, slow_ticks);
        assert_eq!(fast.stats(), slow.stats());
        assert_eq!(fast.column_stats(), slow.column_stats());
        assert!(fast.all_halted() && slow.all_halted());
    }

    /// A column that faults on a load from `address` after `nops` cycles
    /// and one `setp`.
    fn faulting_column(nops: usize, address: u32, divider: u32) -> Column {
        let src = format!(
            "{}setp p0, {address}\nld r0, p0, 0\nhalt\n",
            "nop\n".repeat(nops)
        );
        Column::new(
            ColumnConfig::isca2004().with_divider(divider),
            assemble(&src).unwrap(),
            None,
        )
    }

    #[test]
    fn run_reports_the_earliest_tick_error_ties_to_the_lowest_column() {
        // Column 0 faults at tick 11; columns 1 and 2, stepped after it in
        // a window, both fault earlier, at tick 2 (divider 2 and
        // divider 1).  Tick 2 wins, and of the tied columns column 1.
        let build = || {
            let mut chip = Chip::new();
            chip.add_column(faulting_column(10, 30000, 1));
            chip.add_column(faulting_column(0, 20000, 2));
            chip.add_column(faulting_column(1, 10000, 1));
            chip
        };
        let windowed = build().run(100).unwrap_err();
        let ticked = build().run_ticked(100).unwrap_err();
        assert_eq!(format!("{windowed:?}"), format!("{ticked:?}"));
        match windowed {
            ColumnError::Tile {
                source: synchro_tile::ExecError::Memory(fault),
                ..
            } => assert_eq!(fault.address, 20000),
            other => panic!("expected column 1's memory fault, got {other}"),
        }
    }

    #[test]
    fn failed_column_starves_the_chip_but_keeps_tiers_bit_identical() {
        let build = || {
            let mut chip = Chip::new();
            chip.add_column(counting_column(40, 3));
            chip.add_column(counting_column(25, 7));
            chip
        };
        let mut fast = build();
        let mut slow = build();
        for chip in [&mut fast, &mut slow] {
            chip.run(50).unwrap();
            assert!(chip.fail_column(1, chip.stats().reference_cycles));
            assert!(!chip.fail_column(9, 0), "unknown column is rejected");
            assert!(chip.any_failed());
        }
        let fast_ticks = fast.run(10_000).unwrap();
        let slow_ticks = slow.run_ticked(10_000).unwrap();
        assert_eq!(fast_ticks, slow_ticks);
        assert_eq!(fast.stats(), slow.stats());
        assert_eq!(fast.column_stats(), slow.column_stats());
        // The dead column billed nothing after the kill and never halts,
        // so the chip as a whole never reports halted: starvation.
        assert!(!fast.all_halted() && !slow.all_halted());
        assert!(fast.column(0).unwrap().is_halted());
        assert!(!fast.column(1).unwrap().is_halted());
        assert!(fast.column(1).unwrap().is_failed());
        // Both drivers consumed the full window instead of wedging inside.
        assert_eq!(fast_ticks, 10_000);
    }

    #[test]
    fn bus_program_drives_the_horizontal_bus_as_time_passes() {
        let mut chip = Chip::new();
        chip.add_column(counting_column(100, 1));
        chip.add_column(counting_column(100, 1));
        // Two slots per 10-tick period, 3 periods, 4 scheduled slots/period.
        let program = BusProgram::new(
            10,
            3,
            4,
            vec![
                BusSlot {
                    tick: 2,
                    from: 0,
                    to: vec![1],
                    words: 2,
                },
                BusSlot {
                    tick: 7,
                    from: 1,
                    to: vec![0],
                    words: 1,
                },
            ],
        );
        assert_eq!(program.words_per_period(), 3);
        chip.load_bus_program(program).unwrap();
        chip.run(3).unwrap();
        assert_eq!(chip.stats().horizontal_transfers, 2, "slot at tick 2 fired");
        chip.run(7).unwrap();
        assert_eq!(chip.stats().horizontal_transfers, 3);
        // Period 0 has fully elapsed: its scheduled slots are accounted.
        assert_eq!(chip.horizontal_stats().unwrap().scheduled_slots, 4);
        chip.run(20).unwrap();
        assert_eq!(chip.stats().horizontal_transfers, 9);
        chip.finish_bus_program().unwrap();
        assert_eq!(chip.stats().horizontal_transfers, 9, "program already done");
        assert_eq!(chip.horizontal_stats().unwrap().scheduled_slots, 12);
        assert_eq!(chip.horizontal_stats().unwrap().occupied_slots, 9);
        assert_eq!(chip.horizontal_stats().unwrap().idle_slots(), 3);
    }

    #[test]
    fn finish_bus_program_drains_slots_past_the_halt() {
        let mut chip = Chip::new();
        chip.add_column(counting_column(1, 1));
        chip.add_column(counting_column(1, 1));
        let program = BusProgram::new(
            1000,
            2,
            1000,
            vec![BusSlot {
                tick: 500,
                from: 0,
                to: vec![1],
                words: 5,
            }],
        );
        chip.load_bus_program(program).unwrap();
        // Both columns halt after a couple of ticks, far before tick 500.
        chip.run(10_000).unwrap();
        assert!(chip.all_halted());
        assert_eq!(chip.stats().horizontal_transfers, 0);
        chip.finish_bus_program().unwrap();
        assert_eq!(chip.stats().horizontal_transfers, 10);
        assert_eq!(chip.horizontal_stats().unwrap().scheduled_slots, 2000);
        // Idempotent.
        chip.finish_bus_program().unwrap();
        assert_eq!(chip.stats().horizontal_transfers, 10);
    }

    #[test]
    fn batched_bus_drain_matches_interpreted_drain_bit_for_bit() {
        let build = || {
            let mut chip = Chip::new();
            chip.add_column(counting_column(100, 1));
            chip.add_column(counting_column(100, 1));
            let program = BusProgram::new(
                10,
                1000,
                7,
                vec![
                    BusSlot {
                        tick: 2,
                        from: 0,
                        to: vec![1],
                        words: 2,
                    },
                    BusSlot {
                        tick: 7,
                        from: 1,
                        to: vec![0],
                        words: 3,
                    },
                ],
            );
            chip.load_bus_program(program).unwrap();
            chip
        };
        // Drain from several mid-program positions, including mid-period
        // (tick 25 leaves period 2 half fired) and the untouched start.
        for pre_ticks in [0u64, 3, 25, 99] {
            let mut interpreted = build();
            let mut batched = build();
            interpreted.run(pre_ticks).unwrap();
            batched.run(pre_ticks).unwrap();
            interpreted.advance_program(u64::MAX).unwrap();
            batched.finish_bus_program().unwrap();
            assert_eq!(interpreted.stats(), batched.stats(), "pre {pre_ticks}");
            assert_eq!(
                interpreted.horizontal_stats(),
                batched.horizontal_stats(),
                "pre {pre_ticks}"
            );
            // The batched drain completes the program: the replay and a
            // second drain are no-ops afterwards.
            batched.advance_program(u64::MAX).unwrap();
            batched.finish_bus_program().unwrap();
            assert_eq!(interpreted.stats(), batched.stats());
        }
        // A chip without a program is a no-op too.
        let mut bare = Chip::new();
        bare.finish_bus_program().unwrap();
        assert_eq!(bare.stats().horizontal_transfers, 0);
    }

    #[test]
    fn batched_drain_past_u64_is_an_error_not_a_wrapped_count() {
        // One slot in each of `u64::MAX` one-tick periods, drained from
        // the start: the first period's words, then the rest in bulk.
        let drain = |words, to: Vec<usize>| {
            let mut chip = Chip::new();
            for _ in 0..3 {
                chip.add_column(counting_column(1, 1));
            }
            let slot = BusSlot {
                tick: 0,
                from: 0,
                to,
                words,
            };
            let program = BusProgram::new(1, u64::MAX, 8, vec![slot]);
            chip.load_bus_program(program).unwrap();
            match chip.finish_bus_program() {
                Err(ColumnError::Bus(synchro_bus::BusError::Overflow { what })) => what,
                other => panic!("expected an overflow, got {other:?}"),
            }
        };
        // 2 × (2^64 − 2) words.
        assert_eq!(drain(2, vec![1]), "bus slot words");
        // 2^64 − 1 words fit, but 2 × (2^64 − 1) deliveries do not.
        assert_eq!(drain(1, vec![1, 2]), "horizontal bus traffic");
        // The words and deliveries fit; 8 × (2^64 − 1) scheduled slots do
        // not.
        assert_eq!(drain(1, vec![1]), "scheduled bus slots");
    }

    #[test]
    fn scheduled_slot_total_past_u64_is_an_error_not_a_wrapped_sum() {
        // Two scheduled slots in the first period, then 2 × (2^63 − 1) for
        // the rest: each charge fits in 64 bits, their sum does not.
        let mut chip = Chip::new();
        chip.add_column(counting_column(1, 1));
        let program = BusProgram::new(1, 1 << 63, 2, Vec::new());
        chip.load_bus_program(program).unwrap();
        chip.advance_program(1).unwrap();
        assert_eq!(chip.horizontal_stats().unwrap().scheduled_slots, 2);
        match chip.finish_bus_program() {
            Err(ColumnError::Bus(BusError::Overflow { what })) => {
                assert_eq!(what, "horizontal bus traffic")
            }
            other => panic!("expected an overflow, got {other:?}"),
        }
        assert_eq!(chip.horizontal_stats().unwrap().scheduled_slots, 2);
    }

    #[test]
    fn bus_program_rejects_unknown_columns() {
        let mut chip = Chip::new();
        chip.add_column(counting_column(1, 1));
        let program = BusProgram::new(
            4,
            1,
            4,
            vec![BusSlot {
                tick: 0,
                from: 0,
                to: vec![3],
                words: 1,
            }],
        );
        assert!(matches!(
            chip.load_bus_program(program),
            Err(synchro_bus::BusError::IndexOutOfRange { index: 3, .. })
        ));
    }

    #[test]
    fn bus_program_keeps_run_and_run_ticked_bit_identical() {
        let build = || {
            let mut chip = Chip::new();
            chip.add_column(counting_column(40, 3));
            chip.add_column(counting_column(25, 7));
            let program = BusProgram::new(
                11,
                9,
                22,
                vec![
                    BusSlot {
                        tick: 0,
                        from: 0,
                        to: vec![1],
                        words: 1,
                    },
                    BusSlot {
                        tick: 6,
                        from: 1,
                        to: vec![0],
                        words: 2,
                    },
                ],
            );
            chip.load_bus_program(program).unwrap();
            chip
        };
        let mut fast = build();
        let mut slow = build();
        // Uneven windows so program periods straddle run boundaries.
        for window in [13u64, 1, 29, 7, 200] {
            assert_eq!(fast.run(window).unwrap(), slow.run_ticked(window).unwrap());
            assert_eq!(fast.stats(), slow.stats());
            assert_eq!(fast.horizontal_stats(), slow.horizontal_stats());
        }
        fast.finish_bus_program().unwrap();
        slow.finish_bus_program().unwrap();
        assert_eq!(fast.stats(), slow.stats());
        assert_eq!(fast.horizontal_stats(), slow.horizontal_stats());
        assert_eq!(fast.stats().horizontal_transfers, 9 * 3);
    }

    /// A divider-`u32::MAX` column running `loop u32::MAX { nop }`,
    /// nested in an outer `loop u32::MAX` when `nested`.
    fn nop_loop_column(nested: bool) -> Column {
        let mut b = synchro_isa::ProgramBuilder::new();
        if nested {
            b.counted_loop(u32::MAX, |b| {
                b.counted_loop(u32::MAX, |b| {
                    b.nop();
                });
            });
        } else {
            b.counted_loop(u32::MAX, |b| {
                b.nop();
            });
        }
        b.halt();
        Column::new(
            ColumnConfig::isca2004().with_divider(u32::MAX),
            b.build().unwrap(),
            None,
        )
    }

    #[test]
    fn nop_batches_keep_ticks_exact_near_u64_max() {
        let d = u64::from(u32::MAX);
        // A window of u64::MAX ticks holds 2^32 + 1 of the column's ticks,
        // the last at 2^32 · d = 2^64 - 2^32; one more would pass u64::MAX.
        let mut chip = Chip::new();
        chip.add_column(nop_loop_column(true));
        assert_eq!(chip.run(u64::MAX).unwrap(), u64::MAX);
        let steps = (1u64 << 32) + 1;
        assert_eq!(chip.column_stats()[0].cycles, steps);
        assert_eq!(chip.stats().column_cycles, steps);
        let tile = chip.column(0).unwrap().tile(3).unwrap().stats();
        assert_eq!((tile.instructions, tile.nops), (steps, steps));

        // u32::MAX NOPs, then the HALT observed on the column's tick
        // number u32::MAX, at d · d = 2^64 - 2^33 + 1.
        let mut chip = Chip::new();
        chip.add_column(nop_loop_column(false));
        assert_eq!(chip.run(u64::MAX).unwrap(), d * d + 1);
        assert!(chip.all_halted());
        assert_eq!(chip.column_stats()[0].cycles, d);
    }

    #[test]
    fn event_driven_run_burns_empty_windows_exactly() {
        // A single divider-1000 column: a 500-tick window contains one
        // firing tick (tick 0) and 499 empty ticks, all of which must be
        // accounted in the reference-cycle counter.
        let mut chip = Chip::new();
        chip.add_column(counting_column(1000, 1000));
        assert_eq!(chip.run(500).unwrap(), 500);
        assert_eq!(chip.stats().reference_cycles, 500);
        assert_eq!(chip.column_stats()[0].cycles, 1);
        // A second window starts mid-period and fires at tick 1000.
        assert_eq!(chip.run(600).unwrap(), 600);
        assert_eq!(chip.column_stats()[0].cycles, 2);
    }
}
