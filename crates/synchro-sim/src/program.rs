//! One periodic slot program for the horizontal bus and the bridge: a
//! chip plays its [`crate::BusProgram`] and a board its
//! [`crate::BridgeProgram`] through one [`SlotProgram`].  The two differ
//! only in how one slot is accounted and traced, and in the bridge's dead
//! lanes ([`SlotSink`]).

use synchro_bus::BusError;

/// A slot of a [`SlotProgram`]: it fires at a reference-tick offset
/// within the period and moves words.
pub trait Slot {
    /// Reference-tick offset within the period at which the slot fires.
    fn tick(&self) -> u64;
    /// Words one occurrence of the slot moves.
    fn words(&self) -> u64;
}

/// A periodic, statically compiled TDM schedule: `slots` fire every
/// `period` reference ticks, `iterations` times in total, counted from the
/// reference tick the program is loaded at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotProgram<S> {
    period: u64,
    iterations: u64,
    /// TDM slots the schedule reserves per period, accounted into
    /// [`synchro_bus::BusStats::scheduled_slots`] as periods complete so
    /// the idle/occupied split survives for the power calibration.
    scheduled_slots_per_period: u64,
    slots: Vec<S>,
    /// Playback cursor: the reference tick the program was loaded at, and
    /// the period and the slot within it that fire next.
    origin: u64,
    iteration: u64,
    next_slot: usize,
}

impl<S: Slot> SlotProgram<S> {
    /// Build a program.  `slots` must be sorted by `tick` and lie inside
    /// `period`; `iterations` is the number of periods the program runs.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero, slots are unsorted, or a slot's tick
    /// falls outside the period (all indicate a broken schedule compiler).
    pub fn new(
        period: u64,
        iterations: u64,
        scheduled_slots_per_period: u64,
        slots: Vec<S>,
    ) -> Self {
        assert!(period > 0, "a slot program needs a positive period");
        // Sorted slots fire within the period when the last one does.
        assert!(
            slots.is_sorted_by_key(S::tick) && slots.last().is_none_or(|s| s.tick() < period),
            "slot program slots must be sorted by tick and fire within the period"
        );
        SlotProgram {
            period,
            iterations,
            scheduled_slots_per_period,
            slots,
            origin: 0,
            iteration: 0,
            next_slot: 0,
        }
    }

    /// Reference ticks per period.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Periods the program runs.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// The slots of one period.
    pub fn slots(&self) -> &[S] {
        &self.slots
    }

    /// Words the program transfers per period.
    pub fn words_per_period(&self) -> u64 {
        self.slots.iter().map(Slot::words).sum()
    }

    /// Start playback from the top at absolute reference tick `origin`.
    pub(crate) fn load_at(&mut self, origin: u64) {
        (self.origin, self.iteration, self.next_slot) = (origin, 0, 0);
    }

    /// Issue every occurrence whose absolute reference tick lies before
    /// `end` and charge each elapsed period's scheduled slots, in O(slots)
    /// work: whole periods from the cursor on as one bulk occurrence per
    /// slot, stamped at the last, and one charge; a period begun earlier or
    /// cut by `end` one occurrence at a time.  The statistics are those of
    /// playing every occurrence alone, by the linearity of the accounting.
    /// `advance(u64::MAX)` plays out the program.  It reads nothing but
    /// reference time, so the windowed and tick-by-tick drivers agree.
    fn advance<K: SlotSink<S>>(&mut self, end: u64, sink: &mut K) -> Result<(), BusError> {
        while self.iteration < self.iterations {
            // Periods from the cursor's on that have elapsed by `end`.
            let elapsed = match end {
                u64::MAX => u64::MAX,
                end => end.saturating_sub(self.origin) / self.period,
            };
            let whole = elapsed.min(self.iterations).saturating_sub(self.iteration);
            if self.next_slot == 0 && whole > 0 {
                for slot in &self.slots {
                    self.issue(sink, slot, self.iteration, whole)?;
                }
                let per_period = self.scheduled_slots_per_period;
                sink.schedule(checked_product(per_period, whole, K::SCHEDULED)?)?;
                self.iteration += whole;
            } else if let Some(slot) = self.slots.get(self.next_slot) {
                let at = self.tick_at(self.iteration, slot.tick());
                if at >= end {
                    return Ok(());
                }
                self.issue(sink, slot, self.iteration, 1)?;
                self.next_slot += 1;
            } else if whole > 0 {
                // The period's window has fully elapsed: charge its
                // scheduled TDM slots and roll over.
                sink.schedule(self.scheduled_slots_per_period)?;
                (self.iteration, self.next_slot) = (self.iteration + 1, 0);
            } else {
                return Ok(());
            }
        }
        Ok(())
    }

    /// Issue `slot`'s occurrences in `count` periods from period `from` on
    /// as one, but only those that fire before its hardware died: dead
    /// hardware stays dead, so they come first, and the `k`-th fires at
    /// `first + k · period`.
    fn issue<K: SlotSink<S>>(
        &self,
        sink: &mut K,
        slot: &S,
        from: u64,
        count: u64,
    ) -> Result<(), BusError> {
        let first = self.tick_at(from, slot.tick());
        let live = match sink.dead_from(slot) {
            Some(dead) => count.min(dead.saturating_sub(first).div_ceil(self.period)),
            None => count,
        };
        match live {
            0 => Ok(()),
            live => sink.issue(slot, live, self.tick_at(from + live - 1, slot.tick())),
        }
    }

    /// Absolute reference tick `offset` ticks into period `iteration`,
    /// saturating at `u64::MAX`.
    fn tick_at(&self, iteration: u64, offset: u64) -> u64 {
        self.origin
            .saturating_add(iteration.saturating_mul(self.period))
            .saturating_add(offset)
    }
}

/// What plays a [`SlotProgram`]: a chip onto its horizontal bus, a board
/// onto its bridge.  The sink holds its loaded program and says how one
/// slot is accounted and traced; the playback is shared.
pub(crate) trait SlotSink<S: Slot>: Sized {
    /// What a bulk count of scheduled slots is called in an overflow
    /// error.
    const SCHEDULED: &'static str;

    /// The loaded program, if any; boxed, so taking it out to play moves a pointer.
    fn program(&mut self) -> &mut Option<Box<SlotProgram<S>>>;

    /// Account `count` occurrences of `slot`, the last at absolute
    /// reference tick `last`, and trace them as one event.
    fn issue(&mut self, slot: &S, count: u64, last: u64) -> Result<(), BusError>;

    /// Account `slots` scheduled (occupied + idle) TDM slots.
    fn schedule(&mut self, slots: u64) -> Result<(), BusError>;

    /// The absolute reference tick from which `slot`'s hardware is dead,
    /// if it has died: occurrences from then on deliver nothing.
    fn dead_from(&self, _slot: &S) -> Option<u64> {
        None
    }

    /// Play the loaded program to tick `end` ([`SlotProgram::advance`]);
    /// `u64::MAX` plays out all that remains.
    fn advance_program(&mut self, end: u64) -> Result<(), BusError> {
        self.play_program(|program, sink| program.advance(end, sink))
    }

    /// Run `play` on the loaded program, taken out of the sink while it
    /// plays so the sink can account into itself.
    fn play_program(
        &mut self,
        play: impl FnOnce(&mut SlotProgram<S>, &mut Self) -> Result<(), BusError>,
    ) -> Result<(), BusError> {
        let mut program = self.program().take();
        let played = program
            .as_mut()
            .map_or(Ok(()), |program| play(program, self));
        *self.program() = program;
        played
    }
}

/// `a × b`, or [`BusError::Overflow`] naming `what`.
pub(crate) fn checked_product(a: u64, b: u64, what: &'static str) -> Result<u64, BusError> {
    a.checked_mul(b).ok_or(BusError::Overflow { what })
}

/// `a + b`, or [`BusError::Overflow`] naming `what`.
pub(crate) fn checked_sum(a: u64, b: u64, what: &'static str) -> Result<u64, BusError> {
    a.checked_add(b).ok_or(BusError::Overflow { what })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::{Board, BridgeProgram, BridgeTransfer};
    use crate::chip::{BusProgram, BusSlot, Chip};
    use crate::column::{Column, ColumnConfig};
    use proptest::prelude::*;
    use std::sync::Arc;
    use synchro_trace::{normalize, RingBufferSink, Trace, TraceEvent};

    const COLUMNS: usize = 4;

    /// A chip of `columns` dead columns: it never halts, so its reference
    /// clock runs through any window without stepping a column.
    fn dead_chip(columns: usize) -> Chip {
        let mut chip = Chip::new();
        for c in 0..columns {
            let program = synchro_isa::assemble("halt\n").unwrap();
            chip.add_column(Column::new(ColumnConfig::isca2004(), program, None));
            chip.fail_column(c, 0);
        }
        chip
    }

    /// A traced chip of `COLUMNS` columns whose reference clock stands at
    /// `origin`.
    fn traced_chip(origin: u64) -> (Chip, Arc<RingBufferSink>) {
        let ring = Arc::new(RingBufferSink::new(1 << 16));
        let mut chip = dead_chip(COLUMNS);
        chip.run(origin).unwrap();
        chip.set_trace(Trace::to(ring.clone()), 0);
        (chip, ring)
    }

    /// A traced board of two chips whose reference clock stands at
    /// `origin`.
    fn traced_board(origin: u64) -> (Board, Arc<RingBufferSink>) {
        let ring = Arc::new(RingBufferSink::new(1 << 16));
        let mut board = Board::new();
        board.set_trace(Trace::to(ring.clone()));
        for _ in 0..2 {
            board.add_chip(dead_chip(1));
        }
        board.run(origin).unwrap();
        (board, ring)
    }

    impl<S: Slot> SlotProgram<S> {
        /// The playback `advance` replaced, kept as its oracle: every
        /// occurrence before `end` on its own, in tick order, and each
        /// elapsed period's scheduled slots in its own charge.
        fn advance_each<K: SlotSink<S>>(&mut self, end: u64, sink: &mut K) -> Result<(), BusError> {
            while self.iteration < self.iterations {
                if let Some(slot) = self.slots.get(self.next_slot) {
                    let at = self.tick_at(self.iteration, slot.tick());
                    if at >= end {
                        return Ok(());
                    }
                    if sink.dead_from(slot).is_none_or(|dead| at < dead) {
                        sink.issue(slot, 1, at)?;
                    }
                    self.next_slot += 1;
                } else if self.tick_at(self.iteration + 1, 0) <= end {
                    sink.schedule(self.scheduled_slots_per_period)?;
                    (self.iteration, self.next_slot) = (self.iteration + 1, 0);
                } else {
                    return Ok(());
                }
            }
            Ok(())
        }
    }

    /// Play the loaded program to the `cut` tick, then to its end: with
    /// `advance` or, as the reference, one occurrence at a time.
    fn play<S: Slot>(sink: &mut impl SlotSink<S>, cut: u64, closed_form: bool) {
        for end in [cut, u64::MAX] {
            if closed_form {
                sink.advance_program(end).unwrap();
            } else {
                sink.play_program(|program, sink| program.advance_each(end, sink))
                    .unwrap();
            }
        }
    }

    /// The per-occurrence stream a trace stands for: a slot event of
    /// `count` occurrences becomes `count` events of one occurrence each,
    /// one `period` apart and the last at its tick.  Sorted, so streams
    /// that issue the same occurrences in another order compare equal.
    fn occurrences(events: &[TraceEvent], period: u64) -> Vec<String> {
        let mut out = Vec::new();
        for event in events {
            let (last, total, n) = match event {
                TraceEvent::BusSlot {
                    tick, words, count, ..
                }
                | TraceEvent::BridgeTransfer {
                    tick, words, count, ..
                } => (*tick, *words, *count),
                _ => (0, 0, 0),
            };
            if n == 0 {
                out.push(format!("{event:?}"));
            }
            for k in (0..n).rev() {
                let mut one = event.clone();
                if let TraceEvent::BusSlot {
                    tick, words, count, ..
                }
                | TraceEvent::BridgeTransfer {
                    tick, words, count, ..
                } = &mut one
                {
                    (*tick, *words, *count) = (last - k * period, total / n, 1);
                }
                out.push(format!("{one:?}"));
            }
        }
        out.sort();
        out
    }

    proptest! {
        /// The closed-form `advance`, to a random cut (mid-period
        /// included) and then to the end, issues exactly what playing the
        /// program one occurrence at a time does: equal chip, bus, bridge
        /// and lane statistics and the same occurrences in the trace,
        /// batched or not.  Bridge lanes die at random ticks before the
        /// program, inside it and past its end.  A second drain is a
        /// no-op.
        #[test]
        fn drain_matches_advancing_to_the_end(
            period in 1u64..65,
            iterations in 0u64..41,
            bits in prop::collection::vec(any::<u64>(), 0..5),
            scheduled in 0u64..256,
            lanes in 2usize..5,
            origin in 0u64..100,
            cut in any::<u64>(),
            kills in prop::collection::vec(any::<u64>(), 0..4),
        ) {
            let span = origin + (iterations + 2) * period;
            let cut = cut % span;
            let mut bus_slots: Vec<BusSlot> = bits
                .iter()
                .map(|&b| {
                    let from = (b >> 16) as usize % COLUMNS;
                    BusSlot {
                        tick: b % period,
                        from,
                        to: vec![(from + 1 + (b >> 20) as usize % (COLUMNS - 1)) % COLUMNS],
                        words: 1 + (b >> 8) % 4,
                    }
                })
                .collect();
            bus_slots.sort_by_key(|s| s.tick);
            let mut bridge_slots: Vec<BridgeTransfer> = bits
                .iter()
                .map(|&b| {
                    let lane = (b >> 24) as usize % lanes;
                    BridgeTransfer {
                        tick: b % period,
                        lane,
                        from_chip: lane % 2,
                        to_chip: 1 - lane % 2,
                        words: 1 + (b >> 8) % 4,
                        cycles: 1 + (b >> 12) % 4,
                    }
                })
                .collect();
            bridge_slots.sort_by_key(|s| s.tick);

            let bus = |drain| {
                let (mut chip, ring) = traced_chip(origin);
                let program = BusProgram::new(period, iterations, scheduled, bus_slots.clone());
                chip.load_bus_program(program).unwrap();
                play::<BusSlot>(&mut chip, cut, drain);
                (chip, ring)
            };
            let (reference, reference_ring) = bus(false);
            let (mut drained, drained_ring) = bus(true);
            prop_assert_eq!(reference.stats(), drained.stats());
            prop_assert_eq!(reference.horizontal_stats(), drained.horizontal_stats());
            let (expected, events) = (reference_ring.events(), drained_ring.events());
            prop_assert_eq!(normalize(&expected), normalize(&events));
            prop_assert_eq!(occurrences(&expected, period), occurrences(&events, period));
            drained.finish_bus_program().unwrap();
            prop_assert_eq!(reference.stats(), drained.stats());
            prop_assert_eq!(reference.horizontal_stats(), drained.horizontal_stats());
            prop_assert_eq!(drained_ring.len(), events.len());

            let bridge = |drain| {
                let (mut board, ring) = traced_board(origin);
                let program = BridgeProgram::new(period, iterations, scheduled, bridge_slots.clone());
                board.load_bridge_program(program).unwrap();
                for &kill in &kills {
                    board.fail_lane((kill >> 32) as usize % lanes, kill % (span + period));
                }
                play::<BridgeTransfer>(&mut board, cut, drain);
                (board, ring)
            };
            let (reference, reference_ring) = bridge(false);
            let (mut drained, drained_ring) = bridge(true);
            prop_assert_eq!(reference.bridge_stats(), drained.bridge_stats());
            prop_assert_eq!(reference.lane_words(), drained.lane_words());
            let (expected, events) = (reference_ring.events(), drained_ring.events());
            prop_assert_eq!(normalize(&expected), normalize(&events));
            prop_assert_eq!(occurrences(&expected, period), occurrences(&events, period));
            drained.finish_bridge_program().unwrap();
            prop_assert_eq!(reference.bridge_stats(), drained.bridge_stats());
            prop_assert_eq!(reference.lane_words(), drained.lane_words());
            prop_assert_eq!(drained_ring.len(), events.len());
        }
    }
}
