//! Cycle-accurate whole-chip simulation of Synchroscalar.
//!
//! A [`Chip`] is a set of [`Column`]s, each with its own clock divider
//! (Section 2.4: every column's clock is rationally related to the
//! reference clock), a SIMD controller, four tiles, a DOU and a segmented
//! vertical bus, plus one horizontal inter-column bus.  The simulator steps
//! the reference clock; a column advances on the reference ticks its
//! divider selects, so two columns with dividers 2 and 5 run at exactly
//! 1/2 and 1/5 of the reference frequency — no asynchronous FIFOs are
//! modelled, matching the paper's rationally-related-clocks design point.
//!
//! The principal output is cycle counts (per column and per chip), which
//! the mapping methodology converts into the frequency each column must
//! run at and hence, via `synchro-power`, into power.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod board;
pub mod chip;
pub mod column;
pub mod fault;
pub mod program;

pub use board::{Board, BridgeProgram, BridgeTransfer};
pub use chip::{BusProgram, BusSlot, Chip, ChipStats};
pub use column::{Column, ColumnConfig, ColumnError, ColumnStats};
pub use fault::{FaultEvent, FaultPlan, FaultTarget, SimFault};
pub use program::{Slot, SlotProgram};

#[cfg(test)]
mod fast {
    //! The fast execution tier's tests: chips whose columns jump firings
    //! ([`crate::Column::set_firing_jumps`]) against the same chips run
    //! tick by tick.

    mod tests {
        use std::sync::Arc;

        use crate::column::tests::{firing_dou, firing_program};
        use crate::{BusProgram, BusSlot, Chip, Column, ColumnConfig, ColumnError};
        use synchro_bus::BusError;
        use synchro_dou::DouProgram;
        use synchro_isa::{assemble, ProgramBuilder};
        use synchro_simd::RateMatcher;
        use synchro_trace::{normalize, RingBufferSink, Trace, TraceEvent};

        /// Run the chip `build` returns to its halt twice, once tick by
        /// tick and once with firing jumps, drain both bus programs, and
        /// require equal chip, column, bus and tile state and equal
        /// normalised traces.  Returns the jumps taken.
        fn assert_equivalent(build: impl Fn() -> Chip) -> usize {
            let run = |jumps: bool| {
                let ring = Arc::new(RingBufferSink::new(1 << 20));
                let mut chip = build();
                chip.set_trace(Trace::to(ring.clone()), 0);
                for c in 0..chip.columns() {
                    chip.column_mut(c).unwrap().set_firing_jumps(jumps);
                }
                while !chip.all_halted() {
                    if jumps {
                        chip.run(1 << 20).unwrap();
                    } else {
                        chip.run_ticked(1 << 20).unwrap();
                    }
                }
                chip.finish_bus_program().unwrap();
                assert_eq!(ring.dropped(), 0, "ring sized for the whole run");
                (chip, ring.events())
            };
            let ((stepped, reference), (jumped, events)) = (run(false), run(true));
            assert_eq!(normalize(&reference), normalize(&events));
            assert!(
                events.len() <= reference.len(),
                "jumps batch, never inflate"
            );
            assert_eq!(stepped.stats(), jumped.stats());
            assert_eq!(stepped.column_stats(), jumped.column_stats());
            assert_eq!(stepped.column_bus_stats(), jumped.column_bus_stats());
            assert_eq!(stepped.horizontal_stats(), jumped.horizontal_stats());
            for c in 0..stepped.columns() {
                let (a, b) = (stepped.column(c).unwrap(), jumped.column(c).unwrap());
                for t in 0..a.config().tiles {
                    assert_eq!(a.tile(t), b.tile(t), "column {c} tile {t}");
                }
            }
            events
                .iter()
                .filter(|e| matches!(e, TraceEvent::DividerTick { count, .. } if *count > 1))
                .count()
        }

        #[test]
        fn plain_firing_batches_bit_identically() {
            let jumps = assert_equivalent(|| {
                let program = firing_program(37, 4);
                let dou = firing_dou(7, 4, 37);
                let mut chip = Chip::new();
                chip.add_column(Column::new(
                    ColumnConfig::isca2004().with_divider(3),
                    program,
                    Some(dou),
                ));
                chip
            });
            assert_eq!(
                jumps, 1,
                "one jump between the first two and the last firing"
            );
        }

        #[test]
        fn zorm_stalls_are_expanded_in_closed_form() {
            // 30 useful slots on a (period 4, stalls 1) matcher: the simd
            // crate pins 10-or-11 stalls; the closed form must land exactly
            // where the interpreter does (11: the halt lands after a stall).
            for (firings, period, stalls, divider) in [
                (30u32, 4u32, 1u32, 1u32),
                (7, 5, 3, 6),
                (1, 7, 2, 2),
                (13, 1024, 511, 3),
            ] {
                let jumps = assert_equivalent(move || {
                    let mut config = ColumnConfig::isca2004().with_divider(divider);
                    config.rate_matcher = Some(RateMatcher { period, stalls });
                    let mut chip = Chip::new();
                    chip.add_column(Column::new(config, firing_program(firings, 0), None));
                    chip
                });
                assert_eq!(jumps, usize::from(firings >= 4), "{firings} firings");
            }
        }

        #[test]
        fn multi_column_chip_with_bus_program_batches_bit_identically() {
            let jumps = assert_equivalent(|| {
                let mut chip = Chip::new();
                for (firings, compute, divider) in [(15u32, 4u32, 6u32), (10, 6, 7)] {
                    let slots = compute as usize + 3;
                    chip.add_column(Column::new(
                        ColumnConfig::isca2004().with_divider(divider),
                        firing_program(firings, compute),
                        Some(firing_dou(slots, 4, firings)),
                    ));
                }
                let slot = |tick, from, to, words| BusSlot {
                    tick,
                    from,
                    to: vec![to],
                    words,
                };
                let program =
                    BusProgram::new(126, 5, 126, vec![slot(10, 0, 1, 3), slot(90, 1, 0, 2)]);
                chip.load_bus_program(program).unwrap();
                chip
            });
            assert_eq!(jumps, 2, "one jump per column");
        }

        #[test]
        fn zero_firings_still_bill_the_zorm_stall_prefix() {
            // An immediately-halting program behind a (4, 1) matcher: the
            // interpreter bills one stall before the first useful slot can
            // observe the HALT, and there is no firing to jump.
            let jumps = assert_equivalent(|| {
                let mut config = ColumnConfig::isca2004();
                config.rate_matcher = Some(RateMatcher {
                    period: 4,
                    stalls: 1,
                });
                let mut chip = Chip::new();
                chip.add_column(Column::new(config, assemble("halt\n").unwrap(), None));
                chip
            });
            assert_eq!(jumps, 0);
        }

        /// `loop u32::MAX { li; send; loop u32::MAX { nop }; recv }`: firings
        /// of 2^32 + 2 cycles, nearly 2^64 of them in all.
        fn long_firings(divider: u32, dou: Option<DouProgram>) -> Column {
            let mut b = ProgramBuilder::new();
            b.counted_loop(u32::MAX, |b| {
                b.load_imm(synchro_isa::DataReg::new(7), 1);
                b.send();
                b.counted_loop(u32::MAX, |b| {
                    b.nop();
                });
                b.recv(synchro_isa::DataReg::new(2));
            });
            b.halt();
            let config = ColumnConfig::isca2004().with_divider(divider);
            let mut column = Column::new(config, b.build().unwrap(), dou);
            column.set_firing_jumps(true);
            column
        }

        #[test]
        fn closed_form_cycle_overflow_is_an_error() {
            let firing = u64::from(u32::MAX) + 3;
            // Without a DOU a window of u64::MAX cycles jumps all but a
            // few firings and fits: exactly u64::MAX cycles are billed.
            let mut column = long_firings(1, None);
            assert_eq!(column.run(u64::MAX).unwrap(), u64::MAX);
            assert!(!column.is_halted());
            // An idle DOU schedules all 8 vertical-bus splits on every
            // cycle, so the same jump bills 8 × its cycles of scheduled
            // slots: past u64::MAX.  The jump returns the overflow and
            // leaves the bus as the two stepped firings left it.
            let idle = DouProgram::new(Vec::new(), [0; 4]).unwrap();
            let mut column = long_firings(1, Some(idle));
            match column.run(u64::MAX) {
                Err(ColumnError::Bus(BusError::Overflow { what })) => {
                    assert_eq!(what, "vertical bus traffic")
                }
                other => panic!("expected a bus overflow, got {other:?}"),
            }
            assert_eq!(column.bus_stats().scheduled_slots, 8 * 2 * firing);
        }

        #[test]
        fn halt_tick_past_u64_max_is_an_error_not_a_wrapped_tick() {
            let firings = u64::from(u32::MAX);
            let chip = |divider| {
                let config = ColumnConfig::isca2004().with_divider(divider);
                let mut column = Column::new(config, firing_program(u32::MAX, 4), None);
                column.set_firing_jumps(true);
                let mut chip = Chip::new();
                chip.add_column(column);
                chip
            };
            // u32::MAX firings of 7 cycles at divider u32::MAX: the halt
            // tick is 30,064,771,065 × 4,294,967,295, past u64::MAX.  The
            // clock stops at u64::MAX with the column live, having stepped
            // on each of the (2^64 − 1) / (2^32 − 1) = 2^32 + 1 multiples
            // of the divider below it, and a further window is an error.
            let mut long = chip(u32::MAX);
            assert_eq!(long.run(u64::MAX).unwrap(), u64::MAX);
            assert!(!long.all_halted());
            assert_eq!(long.stats().reference_cycles, u64::MAX);
            assert_eq!(long.stats().column_cycles, (1 << 32) + 1);
            match long.run(1) {
                Err(ColumnError::Bus(BusError::Overflow { what })) => {
                    assert_eq!(what, "reference ticks")
                }
                other => panic!("expected a reference-tick overflow, got {other:?}"),
            }
            assert_eq!(long.stats().reference_cycles, u64::MAX, "not wrapped");
            assert_eq!(long.run(0).unwrap(), 0, "an empty window is no error");

            // The same firings at divider 2^29 fit: the HALT is observed
            // on the step after the last firing's 7 cycles, at tick
            // u32::MAX × 7 × 2^29, and the clock stops one tick later.
            let mut fits = chip(1 << 29);
            let halt = firings * 7 * (1 << 29);
            assert_eq!(fits.run(u64::MAX).unwrap(), halt + 1);
            assert!(fits.all_halted());
            assert_eq!(fits.stats().column_cycles, firings * 7);
            assert_eq!(fits.run(1).unwrap(), 0, "a halted chip needs no tick");
        }

        #[test]
        fn chip_cycle_sum_overflow_is_an_error() {
            // Two columns each bill u64::MAX cycles in a window of
            // u64::MAX ticks: each count fits, the chip's total does not.
            let mut chip = Chip::new();
            chip.add_column(long_firings(1, None));
            chip.add_column(long_firings(1, None));
            match chip.run(u64::MAX) {
                Err(ColumnError::Bus(BusError::Overflow { what })) => {
                    assert_eq!(what, "chip column cycles")
                }
                other => panic!("expected a chip-cycle overflow, got {other:?}"),
            }
            assert_eq!(
                chip.stats().column_cycles,
                u64::MAX,
                "column 0's cycles, unwrapped"
            );
        }
    }
}
