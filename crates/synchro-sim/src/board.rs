//! A board of chips: co-advances several [`Chip`]s in shared reference
//! time and replays the statically compiled chip-to-chip bridge schedule.
//!
//! The board is the multi-chip generalization of the single-chip driver:
//! each chip keeps its own columns, horizontal bus and [`BusProgram`]
//! exactly as before, while the board holds the fleet, a board-level
//! reference clock (the frontier of the chips' reference clocks), and a
//! periodic [`BridgeProgram`] that accounts inter-chip transfers the same
//! way a chip's bus program accounts intra-chip slots.  Bridge statistics
//! reuse [`BusStats`], so the occupied/scheduled slot split survives into
//! the power calibration unchanged.
//!
//! [`BusProgram`]: crate::chip::BusProgram

use crate::chip::Chip;
use crate::column::ColumnError;
use crate::program::{checked_product, checked_sum, Slot, SlotProgram, SlotSink};
use synchro_bus::{BusError, BusStats};
use synchro_trace::{Trace, TraceEvent};

/// One scheduled transfer of a [`BridgeProgram`]: `words` words over
/// bridge lane `lane` from a column of `from_chip` to a column of
/// `to_chip`, occupying `cycles` back-to-back bridge cycles, issued when
/// the board reference clock passes `tick` (an offset within the
/// program's period).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BridgeTransfer {
    /// Reference-tick offset within the period at which the slot fires.
    pub tick: u64,
    /// Bridge lane carrying the words.
    pub lane: usize,
    /// Producing chip.
    pub from_chip: usize,
    /// Consuming chip.
    pub to_chip: usize,
    /// Words transferred.
    pub words: u64,
    /// Bridge cycles the slot occupies (`words.div_ceil(lane width)`).
    pub cycles: u64,
}

/// A board's periodic, statically compiled bridge schedule — the
/// board-level counterpart of a chip's [`BusProgram`](crate::BusProgram),
/// played by the same [`SlotProgram`].  Its scheduled slots per period are
/// the bridge cycles it reserves, `lanes × bridge period`.
pub type BridgeProgram = SlotProgram<BridgeTransfer>;

impl Slot for BridgeTransfer {
    fn tick(&self) -> u64 {
        self.tick
    }

    fn words(&self) -> u64 {
        self.words
    }
}

/// A board of Synchroscalar chips sharing one reference clock, joined by
/// chip-to-chip bridge lanes.
#[derive(Debug, Default)]
pub struct Board {
    chips: Vec<Chip>,
    bridge_program: Option<Box<BridgeProgram>>,
    bridge: BusStats,
    lane_words: Vec<u64>,
    /// Per-lane fault tick: slots on lane `l` whose absolute reference
    /// tick is `>= lane_dead_from[l]` are dropped undelivered.
    lane_dead_from: Vec<Option<u64>>,
    reference_cycles: u64,
    trace: Trace,
}

impl Board {
    /// An empty board.
    pub fn new() -> Self {
        Board::default()
    }

    /// Add a chip; returns its index.
    pub fn add_chip(&mut self, mut chip: Chip) -> usize {
        let index = self.chips.len();
        if self.trace.enabled() {
            chip.set_trace(self.trace.clone(), index as u32);
        }
        self.chips.push(chip);
        index
    }

    /// Install a trace sink on the board and every chip (and hence column)
    /// it holds; chips added later inherit it, stamped with their board
    /// chip index.
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
        for (index, chip) in self.chips.iter_mut().enumerate() {
            chip.set_trace(self.trace.clone(), index as u32);
        }
    }

    /// The trace handle events flow through (disabled by default).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Number of chips.
    pub fn chips(&self) -> usize {
        self.chips.len()
    }

    /// Access a chip.
    pub fn chip(&self, index: usize) -> Option<&Chip> {
        self.chips.get(index)
    }

    /// Mutable access to a chip (e.g. to load its bus program).
    pub fn chip_mut(&mut self, index: usize) -> Option<&mut Chip> {
        self.chips.get_mut(index)
    }

    /// The board reference clock: the frontier the fleet has advanced to.
    pub fn reference_cycles(&self) -> u64 {
        self.reference_cycles
    }

    /// Bridge traffic statistics (occupied/scheduled bridge cycles, words,
    /// per-word deliveries) — same shape as a horizontal bus's
    /// [`BusStats`].
    pub fn bridge_stats(&self) -> BusStats {
        self.bridge
    }

    /// Words moved per bridge lane so far (indexed like the board spec's
    /// lanes).
    pub fn lane_words(&self) -> &[u64] {
        &self.lane_words
    }

    /// True when every column of every chip has halted.
    pub fn all_halted(&self) -> bool {
        self.chips.iter().all(Chip::all_halted)
    }

    /// Kill column `column` of chip `chip` at reference tick `tick`
    /// (see [`Chip::fail_column`]).  Returns `false` if either index is
    /// out of range.
    pub fn fail_column(&mut self, chip: usize, column: usize, tick: u64) -> bool {
        self.chips
            .get_mut(chip)
            .is_some_and(|c| c.fail_column(column, tick))
    }

    /// Kill bridge lane `lane` at reference tick `tick`: every scheduled
    /// slot on the lane whose absolute tick is `>= tick` is dropped
    /// undelivered (and unaccounted).  Emits
    /// [`TraceEvent::FaultLaneKilled`], with the lane's endpoints taken
    /// from the loaded bridge program's first slot on that lane.
    pub fn fail_lane(&mut self, lane: usize, tick: u64) {
        if lane >= self.lane_dead_from.len() {
            self.lane_dead_from.resize(lane + 1, None);
        }
        let dead = self.lane_dead_from[lane].get_or_insert(tick);
        *dead = (*dead).min(tick);
        let endpoints = self
            .bridge_program
            .as_ref()
            .and_then(|p| p.slots().iter().find(|t| t.lane == lane))
            .map(|t| (t.from_chip as u32, t.to_chip as u32))
            .unwrap_or((0, 0));
        self.trace.emit(|| TraceEvent::FaultLaneKilled {
            lane: lane as u32,
            from_chip: endpoints.0,
            to_chip: endpoints.1,
            tick,
        });
    }

    /// True when any column of any chip has been killed by a fault.
    pub fn any_failed(&self) -> bool {
        self.chips.iter().any(Chip::any_failed)
    }

    /// True when any bridge lane has been killed by a fault.
    pub fn any_lane_failed(&self) -> bool {
        self.lane_dead_from.iter().any(Option::is_some)
    }

    /// Load a statically compiled bridge schedule.  The program starts at
    /// the current board reference tick; [`Board::run`] then replays the
    /// transfers as the reference clock passes each slot's time.
    ///
    /// # Errors
    ///
    /// Returns [`synchro_bus::BusError::IndexOutOfRange`] if a slot
    /// references a chip the board does not have.
    pub fn load_bridge_program(&mut self, mut program: BridgeProgram) -> Result<(), BusError> {
        let chips = self.chips.len();
        let mut lanes = self.lane_words.len();
        for slot in program.slots() {
            for &c in [slot.from_chip, slot.to_chip].iter() {
                if c >= chips {
                    return Err(BusError::IndexOutOfRange {
                        what: "chip",
                        index: c,
                        limit: chips,
                    });
                }
            }
            lanes = lanes.max(slot.lane + 1);
        }
        self.lane_words.resize(lanes, 0);
        program.load_at(self.reference_cycles);
        self.bridge_program = Some(Box::new(program));
        Ok(())
    }

    /// Drive the loaded bridge program to completion regardless of how far
    /// the reference clock has advanced — the drain step a board driver
    /// calls once every chip has halted.  The remaining periods are issued
    /// in closed form ([`SlotProgram`]), even after a lane has died.
    /// Idempotent: a finished (or absent) program is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Overflow`] when a bulk count or a running total
    /// passes `u64::MAX`; the bridge statistics are then unspecified.
    pub fn finish_bridge_program(&mut self) -> Result<(), ColumnError> {
        Ok(self.advance_program(u64::MAX)?)
    }

    /// Co-advance the fleet by up to `max_ticks` board reference ticks:
    /// every chip runs to the common absolute reference target (each with
    /// its own [`Chip::run`], so the per-chip statistics are
    /// bit-identical to running it alone), then the board clock moves to
    /// the fleet's frontier and the bridge schedule replays up to it.
    /// Returns the board reference ticks consumed.
    ///
    /// A fully halted fleet consumes no ticks — like a single chip, the
    /// remaining bridge slots are drained by
    /// [`Board::finish_bridge_program`].
    ///
    /// # Errors
    ///
    /// Propagates the first column error encountered.
    pub fn run(&mut self, max_ticks: u64) -> Result<u64, ColumnError> {
        self.advance(max_ticks, Chip::run)
    }

    /// The naive tick-by-tick equivalent of [`Board::run`], kept as the
    /// differential-testing reference: every chip runs
    /// [`Chip::run_ticked`] to the common absolute reference target, then
    /// the board clock and the bridge schedule advance exactly as in
    /// [`Board::run`].
    ///
    /// # Errors
    ///
    /// Propagates the first column error encountered.
    pub fn run_ticked(&mut self, max_ticks: u64) -> Result<u64, ColumnError> {
        self.advance(max_ticks, Chip::run_ticked)
    }

    /// Run every live chip to the common target with `run_chip`, then move
    /// the board clock to the fleet's frontier and replay the bridge
    /// schedule up to it.
    fn advance(
        &mut self,
        max_ticks: u64,
        run_chip: impl Fn(&mut Chip, u64) -> Result<u64, ColumnError>,
    ) -> Result<u64, ColumnError> {
        let start = self.reference_cycles;
        let end = start.saturating_add(max_ticks);
        for chip in &mut self.chips {
            let now = chip.stats().reference_cycles;
            if now < end && !chip.all_halted() {
                run_chip(chip, end - now)?;
            }
        }
        self.reference_cycles = self
            .chips
            .iter()
            .map(|c| c.stats().reference_cycles)
            .fold(self.reference_cycles, u64::max);
        self.advance_program(self.reference_cycles)?;
        Ok(self.reference_cycles - start)
    }
}

impl SlotSink<BridgeTransfer> for Board {
    const SCHEDULED: &'static str = "scheduled bridge cycles";

    fn program(&mut self) -> &mut Option<Box<BridgeProgram>> {
        &mut self.bridge_program
    }

    /// Account `count` occurrences' words and occupied bridge cycles,
    /// leaving every total unchanged if one would pass `u64::MAX`.
    fn issue(&mut self, slot: &BridgeTransfer, count: u64, last: u64) -> Result<(), BusError> {
        let words = checked_product(slot.words, count, "bridge slot words")?;
        let cycles = checked_product(slot.cycles, count, "bridge slot cycles")?;
        let add = |total, n| checked_sum(total, n, "bridge traffic");
        let b = self.bridge;
        let bridge = BusStats {
            active_cycles: add(b.active_cycles, cycles)?,
            word_transfers: add(b.word_transfers, words)?,
            occupied_slots: add(b.occupied_slots, cycles)?,
            deliveries: add(b.deliveries, words)?,
            ..b
        };
        // Loading the program sized `lane_words` for each of its lanes.
        self.lane_words[slot.lane] = add(self.lane_words[slot.lane], words)?;
        self.bridge = bridge;
        self.trace.emit(|| TraceEvent::BridgeTransfer {
            lane: slot.lane as u32,
            from_chip: slot.from_chip as u32,
            to_chip: slot.to_chip as u32,
            tick: last,
            words,
            count,
        });
        Ok(())
    }

    fn schedule(&mut self, slots: u64) -> Result<(), BusError> {
        self.bridge.scheduled_slots =
            checked_sum(self.bridge.scheduled_slots, slots, "bridge traffic")?;
        Ok(())
    }

    fn dead_from(&self, slot: &BridgeTransfer) -> Option<u64> {
        self.lane_dead_from.get(slot.lane).copied().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{Column, ColumnConfig};
    use synchro_isa::assemble;

    fn counting_column(iterations: u32, divider: u32) -> Column {
        let src = format!("loop {iterations}, 2\nli r0, 1\nadd r1, r1, r0\nhalt\n");
        let program = assemble(&src).unwrap();
        let config = ColumnConfig {
            tiles: 1,
            clock_divider: divider,
            voltage: 1.0,
            enabled_tiles: vec![true],
            rate_matcher: None,
        };
        Column::new(config, program, None)
    }

    fn one_column_chip(iterations: u32, divider: u32) -> Chip {
        let mut chip = Chip::new();
        chip.add_column(counting_column(iterations, divider));
        chip
    }

    fn two_chip_board() -> Board {
        let mut board = Board::new();
        board.add_chip(one_column_chip(4, 1));
        board.add_chip(one_column_chip(2, 3));
        board
    }

    fn bridge_program(iterations: u64) -> BridgeProgram {
        BridgeProgram::new(
            8,
            iterations,
            2 * 8,
            vec![
                BridgeTransfer {
                    tick: 0,
                    lane: 0,
                    from_chip: 0,
                    to_chip: 1,
                    words: 2,
                    cycles: 2,
                },
                BridgeTransfer {
                    tick: 4,
                    lane: 1,
                    from_chip: 1,
                    to_chip: 0,
                    words: 1,
                    cycles: 1,
                },
            ],
        )
    }

    #[test]
    fn chips_co_advance_in_reference_time() {
        let mut board = two_chip_board();
        board.run(100).unwrap();
        assert!(board.all_halted());
        // Chip 0 (divider 1) halts early; chip 1 (divider 3) runs longer.
        let r0 = board.chip(0).unwrap().stats().reference_cycles;
        let r1 = board.chip(1).unwrap().stats().reference_cycles;
        assert!(r0 < r1, "{r0} vs {r1}");
        assert_eq!(board.reference_cycles(), r0.max(r1));
        // A halted fleet consumes no further ticks.
        assert_eq!(board.run(10).unwrap(), 0);
    }

    #[test]
    fn bridge_program_replays_like_a_bus_program() {
        let mut board = two_chip_board();
        board.load_bridge_program(bridge_program(3)).unwrap();
        board.run(u64::MAX).unwrap();
        board.finish_bridge_program().unwrap();
        let stats = board.bridge_stats();
        assert_eq!(stats.word_transfers, 3 * 3);
        assert_eq!(stats.occupied_slots, 3 * 3);
        assert_eq!(stats.scheduled_slots, 3 * 16);
        assert_eq!(board.lane_words(), &[6, 3]);
    }

    #[test]
    fn batched_drain_is_bit_identical_to_replay() {
        let mut interpreted = two_chip_board();
        interpreted.load_bridge_program(bridge_program(5)).unwrap();
        interpreted.run(u64::MAX).unwrap();
        interpreted.advance_program(u64::MAX).unwrap();

        let mut batched = two_chip_board();
        batched.load_bridge_program(bridge_program(5)).unwrap();
        batched.run(u64::MAX).unwrap();
        batched.finish_bridge_program().unwrap();

        assert_eq!(interpreted.bridge_stats(), batched.bridge_stats());
        assert_eq!(interpreted.lane_words(), batched.lane_words());
        // Idempotent, and the replay after a drain is a no-op.
        batched.advance_program(u64::MAX).unwrap();
        batched.finish_bridge_program().unwrap();
        assert_eq!(interpreted.bridge_stats(), batched.bridge_stats());
    }

    #[test]
    fn batched_drain_past_u64_is_an_error_not_a_wrapped_count() {
        // One slot in each of `u64::MAX` one-tick periods, drained from
        // the start: a count of 1 per period fits in 64 bits, 2 do not.
        let drain = |words, cycles, scheduled| {
            let mut board = two_chip_board();
            let slot = BridgeTransfer {
                tick: 0,
                lane: 0,
                from_chip: 0,
                to_chip: 1,
                words,
                cycles,
            };
            let program = BridgeProgram::new(1, u64::MAX, scheduled, vec![slot]);
            board.load_bridge_program(program).unwrap();
            board.finish_bridge_program().map(|()| board.bridge_stats())
        };
        let stats = drain(1, 1, 1).unwrap();
        assert_eq!(stats.word_transfers, u64::MAX);
        assert_eq!(stats.scheduled_slots, u64::MAX);
        for ((words, cycles, scheduled), expected) in [
            ((2, 1, 1), "bridge slot words"),
            ((1, 2, 1), "bridge slot cycles"),
            ((1, 1, 2), "scheduled bridge cycles"),
        ] {
            match drain(words, cycles, scheduled) {
                Err(ColumnError::Bus(synchro_bus::BusError::Overflow { what })) => {
                    assert_eq!(what, expected)
                }
                other => panic!("expected a {expected} overflow, got {other:?}"),
            }
        }
    }

    #[test]
    fn bridge_totals_past_u64_are_an_error_not_a_wrapped_sum() {
        // One word on each of two lanes in each of `u64::MAX − 1` two-tick
        // periods: each lane's bulk charge fits in 64 bits, their sum does
        // not.
        let mut board = Board::new();
        board.add_chip(one_column_chip(1, 1));
        board.add_chip(one_column_chip(1, 1));
        let slot = |tick, lane: usize| BridgeTransfer {
            tick,
            lane,
            from_chip: lane,
            to_chip: 1 - lane,
            words: 1,
            cycles: 1,
        };
        let program = BridgeProgram::new(2, u64::MAX - 1, 1, vec![slot(0, 0), slot(1, 1)]);
        board.load_bridge_program(program).unwrap();
        let overflow = |result| match result {
            Err(ColumnError::Bus(synchro_bus::BusError::Overflow { what })) => what,
            other => panic!("expected an overflow, got {other:?}"),
        };
        assert_eq!(overflow(board.finish_bridge_program()), "bridge traffic");
        // The failing charge, lane 1's, left every total as lane 0's
        // charge did.
        let stats = board.bridge_stats();
        assert_eq!(stats.word_transfers, u64::MAX - 1);
        assert_eq!(stats.deliveries, u64::MAX - 1);
        assert_eq!(stats.occupied_slots, u64::MAX - 1);
        assert_eq!(board.lane_words(), &[u64::MAX - 1, 0]);

        // Two scheduled cycles in the first period, then 2 × (2^63 − 1) for
        // the rest: again each charge fits and their sum does not.
        let mut board = two_chip_board();
        let program = BridgeProgram::new(1, 1 << 63, 2, Vec::new());
        board.load_bridge_program(program).unwrap();
        board.advance_program(1).unwrap();
        assert_eq!(board.bridge_stats().scheduled_slots, 2);
        assert_eq!(overflow(board.finish_bridge_program()), "bridge traffic");
        assert_eq!(board.bridge_stats().scheduled_slots, 2);
    }

    #[test]
    fn partial_progress_then_batched_drain_matches() {
        let mut replayed = two_chip_board();
        replayed.load_bridge_program(bridge_program(4)).unwrap();
        replayed.run(u64::MAX).unwrap();
        replayed.advance_program(u64::MAX).unwrap();

        // Fire only a prefix by hand, then drain the rest in bulk.
        let mut mixed = two_chip_board();
        mixed.load_bridge_program(bridge_program(4)).unwrap();
        mixed.advance_program(13).unwrap(); // first period + slot 0 of second
        mixed.finish_bridge_program().unwrap();
        assert_eq!(replayed.bridge_stats(), mixed.bridge_stats());
        assert_eq!(replayed.lane_words(), mixed.lane_words());
    }

    #[test]
    fn dead_lane_drops_slots_from_the_fault_tick_on() {
        let mut board = two_chip_board();
        board.load_bridge_program(bridge_program(3)).unwrap();
        // Lane 0 fires at ticks 0, 8, 16; kill it before the second firing.
        board.fail_lane(0, 5);
        assert!(board.any_lane_failed());
        board.run(u64::MAX).unwrap();
        board.advance_program(u64::MAX).unwrap();
        // Only lane 0's tick-0 slot delivered; lane 1 is untouched.
        assert_eq!(board.lane_words(), &[2, 3]);
        let stats = board.bridge_stats();
        assert_eq!(stats.word_transfers, 2 + 3);
        // Scheduled slots are still reserved — the TDM frame does not
        // shrink because a lane died.
        assert_eq!(stats.scheduled_slots, 3 * 16);
        // The closed-form drain delivers the same: the dead lane's
        // occurrences before its fault tick, counted in one division.
        let mut batched = two_chip_board();
        batched.load_bridge_program(bridge_program(3)).unwrap();
        batched.fail_lane(0, 5);
        batched.run(u64::MAX).unwrap();
        batched.finish_bridge_program().unwrap();
        assert_eq!(batched.bridge_stats(), stats);
        assert_eq!(batched.lane_words(), board.lane_words());
    }

    #[test]
    fn ticked_runs_match_windowed_runs() {
        // Uneven windows, with a lane killed between them and, in the
        // second case, a column of chip 1 too (the board then never halts).
        for kill_column in [false, true] {
            let drive = |ticked: bool| {
                let mut board = two_chip_board();
                board.load_bridge_program(bridge_program(3)).unwrap();
                for (i, window) in [5, 7, 40].into_iter().enumerate() {
                    if i == 1 {
                        board.fail_lane(0, 9);
                        if kill_column {
                            board.fail_column(1, 0, 5);
                        }
                    }
                    let ran = if ticked {
                        board.run_ticked(window)
                    } else {
                        board.run(window)
                    };
                    ran.unwrap();
                }
                (
                    board.reference_cycles(),
                    board.bridge_stats(),
                    board.lane_words().to_vec(),
                    board.chip(0).unwrap().column_stats(),
                    board.chip(1).unwrap().column_stats(),
                )
            };
            assert_eq!(drive(true), drive(false), "kill_column: {kill_column}");
        }
    }

    #[test]
    fn failed_board_column_prevents_all_halted() {
        let mut board = two_chip_board();
        assert!(board.fail_column(1, 0, 0));
        assert!(!board.fail_column(5, 0, 0));
        assert!(board.any_failed());
        board.run(1_000).unwrap();
        assert!(!board.all_halted());
        assert!(board.chip(0).unwrap().all_halted());
        assert!(board.chip(1).unwrap().any_failed());
    }

    #[test]
    fn load_rejects_out_of_range_chips() {
        let mut board = Board::new();
        board.add_chip(one_column_chip(1, 1));
        let program = BridgeProgram::new(
            4,
            1,
            4,
            vec![BridgeTransfer {
                tick: 0,
                lane: 0,
                from_chip: 0,
                to_chip: 1,
                words: 1,
                cycles: 1,
            }],
        );
        assert!(board.load_bridge_program(program).is_err());
    }
}
