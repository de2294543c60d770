//! The fast execution tier: batched steady-state simulation.
//!
//! Synchroscalar programs are statically scheduled — a mapped column
//! repeats one firing pattern a known number of times, the DOU replays a
//! fixed per-firing transfer pattern, and the horizontal bus runs a
//! periodic TDM schedule.  Every statistic the interpreter produces is a
//! sum over cycles of that steady state, so instead of interpreting
//! millions of firings the fast tier:
//!
//! 1. **profiles** one firing through the existing interpreter
//!    ([`FiringProfile::measure`]), capturing the per-firing
//!    [`ColumnStats`] and vertical-bus [`BusStats`] deltas,
//! 2. **verifies** the pattern is steady (a second profiled firing must
//!    produce the same deltas),
//! 3. **replays** the remaining firings in closed form
//!    ([`FastTier::run`]): per-column counters are `firings × delta`,
//!    Zero-Overhead Rate Matching stalls are expanded analytically (they
//!    are *not* uniform per firing), the reference clock jumps straight
//!    to the tick on which the slowest column observes its `HALT`, and
//!    the horizontal-bus program is drained in closed form
//!    ([`crate::Chip::finish_bus_program`], as every run ends).
//!
//! The produced [`crate::ChipStats`], per-column [`ColumnStats`] and all
//! [`BusStats`] are bit-identical to an interpreted run of the same chip
//! (enforced by the `sim_equivalence` differential suite); tile register
//! files are *not* reproduced — the fast tier force-halts the controllers
//! without executing data movement.

use std::error::Error;
use std::fmt;

use crate::chip::Chip;
use crate::column::{Column, ColumnConfig, ColumnError, ColumnStats};
use synchro_bus::BusStats;
use synchro_dou::DouProgram;
use synchro_isa::Program;
use synchro_trace::TraceEvent;

/// Errors raised while profiling a firing or applying a batch.
#[derive(Debug)]
pub enum FastTierError {
    /// The profiling replica faulted while interpreting a firing.
    Column(ColumnError),
    /// The program halted before the declared firing length elapsed — the
    /// program is shorter than the caller's steady-state model.
    HaltedEarly {
        /// Column cycles the probe actually executed.
        executed: u64,
        /// Column cycles one firing was declared to take.
        expected: u64,
    },
    /// Two profiled firings produced different deltas: the program is not
    /// steady-state per firing and cannot be batched.
    NonUniform {
        /// The probe index (1-based) whose delta diverged from the first.
        firing: u64,
    },
    /// The column combines a rate matcher with a DOU.  ZORM stall cycles
    /// step the DOU too, desynchronising the transfer pattern from the
    /// firing pattern, so no per-firing closed form exists.
    RateMatchedDou {
        /// The offending column index.
        column: usize,
    },
    /// A rate matcher with `stalls >= period` never issues a useful slot;
    /// the column would stall forever.
    SaturatedRateMatcher {
        /// The offending column index.
        column: usize,
    },
    /// A batch names a column the chip does not have.
    UnknownColumn {
        /// The offending column index.
        column: usize,
    },
    /// Two batches name the same column.
    DuplicateColumn {
        /// The offending column index.
        column: usize,
    },
    /// A batch names a column that has already halted, or a live column
    /// has no batch: the closed form models a full run from reset.
    BadCoverage {
        /// The offending column index.
        column: usize,
        /// True when the column was already halted, false when it is live
        /// but unbatched.
        halted: bool,
    },
    /// The chip has already been stepped; batched replay assumes a chip at
    /// reference tick zero with unstepped columns.
    ChipNotFresh,
    /// A closed-form count of the batch does not fit in 64 bits: the
    /// column's cycles, its halt tick or a statistic it would bill.
    Overflow {
        /// The offending column index.
        column: usize,
        /// Which quantity overflowed.
        what: &'static str,
    },
}

impl fmt::Display for FastTierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FastTierError::Column(e) => write!(f, "profiling replica faulted: {e}"),
            FastTierError::HaltedEarly { executed, expected } => write!(
                f,
                "program halted after {executed} of {expected} declared cycles per firing"
            ),
            FastTierError::NonUniform { firing } => {
                write!(f, "firing {firing} diverged from the profiled delta")
            }
            FastTierError::RateMatchedDou { column } => write!(
                f,
                "column {column} combines a rate matcher with a DOU; no per-firing closed form"
            ),
            FastTierError::SaturatedRateMatcher { column } => write!(
                f,
                "column {column} has a rate matcher with stalls >= period and can never halt"
            ),
            FastTierError::UnknownColumn { column } => {
                write!(f, "batch references unknown column {column}")
            }
            FastTierError::DuplicateColumn { column } => {
                write!(f, "column {column} appears in more than one batch")
            }
            FastTierError::BadCoverage { column, halted } => {
                if *halted {
                    write!(f, "column {column} already halted before batching")
                } else {
                    write!(f, "live column {column} has no batch")
                }
            }
            FastTierError::ChipNotFresh => {
                write!(f, "chip already stepped; batched replay needs a fresh chip")
            }
            FastTierError::Overflow { column, what } => {
                write!(f, "column {column}: {what} overflows 64 bits")
            }
        }
    }
}

impl Error for FastTierError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FastTierError::Column(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ColumnError> for FastTierError {
    fn from(value: ColumnError) -> Self {
        FastTierError::Column(value)
    }
}

/// The per-firing execution delta of one column, measured by interpreting
/// a firing on a throw-away replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiringProfile {
    cycles: u64,
    stats: ColumnStats,
    bus: BusStats,
    has_dou: bool,
}

impl FiringProfile {
    /// Interpret one firing of `program` (with `dou_program`, if any) on a
    /// fresh replica of a column built from `config` and record the
    /// per-firing [`ColumnStats`] and vertical-bus [`BusStats`] deltas.
    ///
    /// The replica runs with the rate matcher stripped: ZORM stalls are
    /// *not* uniform per firing and are reconstructed in closed form when
    /// the profile is applied.  When `firings_available >= 2` a second
    /// firing is interpreted and compared, so a program whose firings are
    /// not all identical is rejected instead of silently mis-batched.
    ///
    /// `cycles_per_firing` is the column-cycle length of one firing (for
    /// mapper-generated programs, the column's TDM slot count).
    ///
    /// # Errors
    ///
    /// [`FastTierError::HaltedEarly`] when the program halts inside a
    /// probed firing, [`FastTierError::NonUniform`] when the second firing
    /// diverges, [`FastTierError::Column`] when the replica faults.
    pub fn measure(
        config: &ColumnConfig,
        program: &Program,
        dou_program: Option<&DouProgram>,
        cycles_per_firing: u64,
        firings_available: u64,
    ) -> Result<FiringProfile, FastTierError> {
        let has_dou = dou_program.is_some();
        let mut replica_config = config.clone();
        replica_config.rate_matcher = None;
        let mut replica = Column::new(replica_config, program.clone(), dou_program.cloned());

        let probes = firings_available.min(2);
        let mut first: Option<(ColumnStats, BusStats)> = None;
        for probe in 0..probes {
            let stats_before = replica.stats();
            let bus_before = replica.bus_stats();
            let consumed = replica.run(cycles_per_firing)?;
            if consumed != cycles_per_firing {
                return Err(FastTierError::HaltedEarly {
                    executed: consumed,
                    expected: cycles_per_firing,
                });
            }
            let delta = (
                replica.stats().delta(&stats_before),
                replica.bus_stats().delta(&bus_before),
            );
            match &first {
                None => first = Some(delta),
                Some(reference) if *reference != delta => {
                    return Err(FastTierError::NonUniform { firing: probe + 1 });
                }
                Some(_) => {}
            }
        }
        let (stats, bus) = first.unwrap_or_default();
        debug_assert_eq!(
            stats.rate_match_stalls, 0,
            "the replica runs without a rate matcher"
        );
        Ok(FiringProfile {
            cycles: cycles_per_firing,
            stats,
            bus,
            has_dou,
        })
    }

    /// Column cycles one firing takes.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Per-firing column-statistics delta.
    pub fn stats(&self) -> ColumnStats {
        self.stats
    }

    /// Per-firing vertical-bus delta.
    pub fn bus(&self) -> BusStats {
        self.bus
    }
}

/// One column's batched workload: replay `firings` firings of `profile`
/// on column `column`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnBatch {
    /// Chip column index the batch applies to.
    pub column: usize,
    /// Total firings to replay.
    pub firings: u64,
    /// The measured per-firing delta.
    pub profile: FiringProfile,
}

/// A validated per-column application plan: every count the batch bills,
/// computed in checked arithmetic before the chip is touched.
struct BatchPlan {
    column: usize,
    /// The column's statistics delta; `cycles` is its billed cycles.
    stats: ColumnStats,
    /// The vertical-bus delta of all firings.
    bus: BusStats,
    /// The reference tick of the column's halt-observing step.
    halt_tick: u64,
}

/// The batched execution tier: a set of [`ColumnBatch`]es applied to a
/// fresh [`Chip`] in closed form.
#[derive(Debug, Default)]
pub struct FastTier {
    batches: Vec<ColumnBatch>,
}

impl FastTier {
    /// An empty tier.
    pub fn new() -> Self {
        FastTier::default()
    }

    /// Add one column's batch.
    pub fn push(&mut self, batch: ColumnBatch) {
        self.batches.push(batch);
    }

    /// The batches added so far.
    pub fn batches(&self) -> &[ColumnBatch] {
        &self.batches
    }

    /// The reference tick on which the slowest batched column observes its
    /// `HALT` — the chip halts after processing this tick, so an
    /// equivalent interpreted run consumes exactly this many ticks plus
    /// one.  `None` when there are no batches (nothing runs).
    ///
    /// Pure: validates the batches against `chip` without mutating it, so
    /// a driver can decide *before* applying whether the interpreted path
    /// would have completed within its tick budget.
    ///
    /// # Errors
    ///
    /// Any [`FastTierError`] the application itself would raise,
    /// including [`FastTierError::Overflow`] when the halt tick (or one
    /// past it) does not fit in 64 bits.
    pub fn completion_tick(&self, chip: &Chip) -> Result<Option<u64>, FastTierError> {
        Ok(self.plan(chip)?.iter().map(|p| p.halt_tick).max())
    }

    /// Apply every batch to `chip`: fold `firings × profile` into each
    /// column's counters (expanding ZORM stalls in closed form), force the
    /// controllers halted, jump the reference clock to one past the
    /// slowest column's halt-observing tick, and drain any loaded bus
    /// program in bulk.  Returns the reference ticks consumed — the same
    /// number an interpreted run-to-halt would consume.
    ///
    /// # Errors
    ///
    /// Validation errors ([`FastTierError`], including
    /// [`FastTierError::Overflow`]) leave the chip untouched; a bus fault
    /// during the drain indicates a broken schedule.
    pub fn run(&self, chip: &mut Chip) -> Result<u64, FastTierError> {
        let plans = self.plan(chip)?;
        let trace = chip.trace().clone();
        let chip_id = chip.chip_id();
        let mut final_tick = None;
        for plan in &plans {
            let column = chip
                .column_mut(plan.column)
                .expect("column validated by plan()");
            let billed_cycles = plan.stats.cycles;
            if trace.enabled() && billed_cycles > 0 {
                // One batched event per track, normalizing to the stream
                // the interpreter emits one event per billed cycle: the
                // k-th billed cycle lands on tick (k-1) × divider (the
                // last one a divider before the halt tick), the rate
                // matcher re-locks once per started period, and every
                // ZORM stall cycle is billed.
                let divider = u64::from(column.config().clock_divider);
                let last_tick = plan.halt_tick - divider;
                if let Some(rate) = column.config().rate_matcher {
                    // `Column::new` guarantees `period >= 1`.
                    let relocks = billed_cycles.div_ceil(u64::from(rate.period));
                    trace.emit(|| TraceEvent::RateMatcherRelock {
                        chip: chip_id,
                        column: plan.column as u32,
                        tick: last_tick,
                        count: relocks,
                    });
                }
                trace.emit(|| TraceEvent::DividerTick {
                    chip: chip_id,
                    column: plan.column as u32,
                    tick: last_tick,
                    count: billed_cycles,
                });
                if plan.stats.rate_match_stalls > 0 {
                    trace.emit(|| TraceEvent::ZormStall {
                        chip: chip_id,
                        column: plan.column as u32,
                        tick: last_tick,
                        cycles: plan.stats.rate_match_stalls,
                    });
                }
            }
            column.apply_batched(plan.stats, &plan.bus);
            chip.add_column_cycles(billed_cycles);
            final_tick = final_tick.max(Some(plan.halt_tick));
        }
        // The interpreted scheduler leaves the reference clock one past
        // the tick on which the last column observed its HALT (`plan`
        // checked that it fits).
        if let Some(tick) = final_tick {
            chip.fast_forward_reference(tick + 1);
        }
        chip.finish_bus_program()?;
        Ok(chip.stats().reference_cycles)
    }

    /// Validate the batches against `chip` and compute each column's
    /// closed-form totals.
    fn plan(&self, chip: &Chip) -> Result<Vec<BatchPlan>, FastTierError> {
        if chip.stats().reference_cycles != 0 || chip.stats().column_cycles != 0 {
            return Err(FastTierError::ChipNotFresh);
        }
        let mut seen = vec![false; chip.columns()];
        let mut plans = Vec::with_capacity(self.batches.len());
        let mut chip_cycles: u64 = 0;
        for batch in &self.batches {
            let column = chip
                .column(batch.column)
                .ok_or(FastTierError::UnknownColumn {
                    column: batch.column,
                })?;
            if std::mem::replace(&mut seen[batch.column], true) {
                return Err(FastTierError::DuplicateColumn {
                    column: batch.column,
                });
            }
            if column.is_halted() {
                return Err(FastTierError::BadCoverage {
                    column: batch.column,
                    halted: true,
                });
            }
            let overflow = |what| FastTierError::Overflow {
                column: batch.column,
                what,
            };
            let config = column.config();
            let (billed_cycles, rate_match_stalls) =
                closed_form_cycles(config, batch.column, batch.firings, &batch.profile)?;
            // The halt-observing step is the column's step number
            // `billed_cycles` (0-indexed), scheduled at this tick; the
            // chip's clock then stops one tick later.
            let halt_tick = billed_cycles
                .checked_mul(u64::from(config.clock_divider))
                .filter(|&tick| tick < u64::MAX)
                .ok_or(overflow("halt tick"))?;
            chip_cycles = chip_cycles
                .checked_add(billed_cycles)
                .ok_or(overflow("chip column cycles"))?;
            // A firing can bill more bus slots or words than cycles, so
            // each product is checked on its own.
            let times = |count: u64| {
                count
                    .checked_mul(batch.firings)
                    .ok_or(overflow("billed statistics"))
            };
            let (column_delta, bus_delta) = (batch.profile.stats, batch.profile.bus);
            let stats = ColumnStats {
                cycles: billed_cycles,
                broadcasts: times(column_delta.broadcasts)?,
                branch_stalls: times(column_delta.branch_stalls)?,
                rate_match_stalls,
                bus_word_transfers: times(column_delta.bus_word_transfers)?,
            };
            let bus = BusStats {
                active_cycles: times(bus_delta.active_cycles)?,
                word_transfers: times(bus_delta.word_transfers)?,
                deliveries: times(bus_delta.deliveries)?,
                scheduled_slots: times(bus_delta.scheduled_slots)?,
                occupied_slots: times(bus_delta.occupied_slots)?,
            };
            plans.push(BatchPlan {
                column: batch.column,
                stats,
                bus,
                halt_tick,
            });
        }
        // Every live column must be batched, or the chip never halts.
        for (index, batched) in seen.iter().enumerate() {
            let live = chip.column(index).is_some_and(|c| !c.is_halted());
            if live && !batched {
                return Err(FastTierError::BadCoverage {
                    column: index,
                    halted: false,
                });
            }
        }
        Ok(plans)
    }
}

/// Closed-form billed column cycles and rate-match stalls for `firings`
/// firings of `profile` under the column's (possibly rate-matched) issue
/// schedule.
///
/// Without a matcher every step is useful: `billed = firings × cycles`.
/// With ZORM `(period P, stalls S)` the first `S` issue slots of every
/// `P`-slot window stall (billed, but useless), so the `n`-th useful slot
/// (1-indexed) sits at step `(n-1 div P-S) × P + S + (n-1 mod P-S)`.  The
/// program needs `useful = firings × cycles` useful slots and then one
/// more on which the `HALT` is observed (unbilled); every step before
/// that observation is billed.  Both products are checked:
/// [`FastTierError::Overflow`] when a count does not fit in 64 bits.
fn closed_form_cycles(
    config: &ColumnConfig,
    column: usize,
    firings: u64,
    profile: &FiringProfile,
) -> Result<(u64, u64), FastTierError> {
    let overflow = || FastTierError::Overflow {
        column,
        what: "column cycles",
    };
    let useful = firings.checked_mul(profile.cycles).ok_or_else(overflow)?;
    let matcher = config.rate_matcher.filter(|m| m.stalls > 0);
    let Some(matcher) = matcher else {
        return Ok((useful, 0));
    };
    if profile.has_dou {
        return Err(FastTierError::RateMatchedDou { column });
    }
    let (period, stalls) = (u64::from(matcher.period), u64::from(matcher.stalls));
    if stalls >= period {
        return Err(FastTierError::SaturatedRateMatcher { column });
    }
    let useful_per_period = period - stalls;
    // Step index of the halt-observing slot: the (useful + 1)-th useful
    // slot of the stall-striped schedule.
    let full_periods = useful / useful_per_period;
    let into_period = useful % useful_per_period;
    let halt_step = full_periods
        .checked_mul(period)
        .and_then(|step| step.checked_add(stalls + into_period))
        .ok_or_else(overflow)?;
    Ok((halt_step, halt_step - useful))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::{BusProgram, BusSlot};
    use crate::column::tests::{firing_dou, firing_program};
    use crate::program::SlotSink;
    use synchro_isa::assemble;
    use synchro_simd::RateMatcher;

    /// Interpreted-vs-batched equivalence on one self-contained chip,
    /// including the normalized trace streams both tiers emit.
    fn assert_equivalent(build: impl Fn() -> (Chip, Vec<ColumnBatch>)) {
        use std::sync::Arc;
        use synchro_trace::{normalize, RingBufferSink, Trace};

        let (mut interpreted, _) = build();
        let (mut batched, batches) = build();
        let interpreted_ring = Arc::new(RingBufferSink::new(1 << 20));
        let batched_ring = Arc::new(RingBufferSink::new(1 << 20));
        interpreted.set_trace(Trace::to(interpreted_ring.clone()), 0);
        batched.set_trace(Trace::to(batched_ring.clone()), 0);
        // Interpreted reference: run to halt, then play the bus program's
        // tail one occurrence at a time, so the fast tier's closed-form
        // drain is checked against per-occurrence playback.
        while !interpreted.all_halted() {
            interpreted.run(1 << 20).unwrap();
        }
        interpreted.advance_program(u64::MAX).unwrap();
        let mut tier = FastTier::new();
        for b in batches {
            tier.push(b);
        }
        let predicted = tier.completion_tick(&batched).unwrap();
        tier.run(&mut batched).unwrap();
        assert_eq!(
            interpreted_ring.dropped(),
            0,
            "ring sized for the whole run"
        );
        assert_eq!(
            normalize(&interpreted_ring.events()),
            normalize(&batched_ring.events()),
            "tiers must emit equivalent event streams"
        );
        assert!(
            batched_ring.len() <= interpreted_ring.len(),
            "the fast tier batches, never inflates"
        );
        assert_eq!(interpreted.stats(), batched.stats());
        assert_eq!(interpreted.column_stats(), batched.column_stats());
        assert_eq!(interpreted.horizontal_stats(), batched.horizontal_stats());
        for i in 0..interpreted.columns() {
            assert_eq!(
                interpreted.column(i).unwrap().bus_stats(),
                batched.column(i).unwrap().bus_stats(),
                "column {i} vertical bus"
            );
        }
        assert!(batched.all_halted());
        if let Some(tick) = predicted {
            assert_eq!(batched.stats().reference_cycles, tick + 1);
        }
    }

    #[test]
    fn plain_firing_batches_bit_identically() {
        assert_equivalent(|| {
            let firings = 37u32;
            let compute = 4u32;
            let slots = u64::from(compute) + 3;
            let program = firing_program(firings, compute);
            let dou = firing_dou(slots as usize, 4, firings);
            let config = ColumnConfig::isca2004().with_divider(3);
            let profile =
                FiringProfile::measure(&config, &program, Some(&dou), slots, u64::from(firings))
                    .unwrap();
            let mut chip = Chip::new();
            chip.add_column(Column::new(config, program, Some(dou)));
            let batch = ColumnBatch {
                column: 0,
                firings: u64::from(firings),
                profile,
            };
            (chip, vec![batch])
        });
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
            assert_equivalent(move || {
                let program = firing_program(firings, 0);
                let mut config = ColumnConfig::isca2004().with_divider(divider);
                config.rate_matcher = Some(RateMatcher { period, stalls });
                let profile =
                    FiringProfile::measure(&config, &program, None, 3, u64::from(firings)).unwrap();
                let mut chip = Chip::new();
                chip.add_column(Column::new(config, program, None));
                let batch = ColumnBatch {
                    column: 0,
                    firings: u64::from(firings),
                    profile,
                };
                (chip, vec![batch])
            });
        }
    }

    #[test]
    fn multi_column_chip_with_bus_program_batches_bit_identically() {
        assert_equivalent(|| {
            let mut chip = Chip::new();
            let mut batches = Vec::new();
            for (i, (firings, compute, divider)) in
                [(15u32, 4u32, 6u32), (10, 6, 7)].into_iter().enumerate()
            {
                let slots = u64::from(compute) + 3;
                let program = firing_program(firings, compute);
                let dou = firing_dou(slots as usize, 4, firings);
                let config = ColumnConfig::isca2004().with_divider(divider);
                let profile = FiringProfile::measure(
                    &config,
                    &program,
                    Some(&dou),
                    slots,
                    u64::from(firings),
                )
                .unwrap();
                chip.add_column(Column::new(config, program, Some(dou)));
                batches.push(ColumnBatch {
                    column: i,
                    firings: u64::from(firings),
                    profile,
                });
            }
            let program = BusProgram::new(
                126,
                5,
                126,
                vec![
                    BusSlot {
                        tick: 10,
                        from: 0,
                        to: vec![1],
                        words: 3,
                    },
                    BusSlot {
                        tick: 90,
                        from: 1,
                        to: vec![0],
                        words: 2,
                    },
                ],
            );
            chip.load_bus_program(program).unwrap();
            (chip, batches)
        });
    }

    #[test]
    fn zero_firings_still_bill_the_zorm_stall_prefix() {
        // An immediately-halting program behind a (4, 1) matcher: the
        // interpreter bills one stall before the first useful slot can
        // observe the HALT.
        assert_equivalent(|| {
            let program = assemble("halt\n").unwrap();
            let mut config = ColumnConfig::isca2004();
            config.rate_matcher = Some(RateMatcher {
                period: 4,
                stalls: 1,
            });
            let profile = FiringProfile::measure(&config, &program, None, 0, 0).unwrap();
            let mut chip = Chip::new();
            chip.add_column(Column::new(config, program, None));
            let batch = ColumnBatch {
                column: 0,
                firings: 0,
                profile,
            };
            (chip, vec![batch])
        });
    }

    #[test]
    fn profiling_rejects_non_steady_programs() {
        // Firing length 2 with a program that issues 3-cycle firings:
        // the first probe consumes mid-firing state, the second diverges
        // (recv/li boundaries shift), or the run halts early.
        let program = firing_program(2, 0);
        let err = FiringProfile::measure(&ColumnConfig::isca2004(), &program, None, 4, 2);
        assert!(
            matches!(
                err,
                Err(FastTierError::NonUniform { .. }) | Err(FastTierError::HaltedEarly { .. })
            ),
            "got {err:?}"
        );
        // A declared length past the whole program halts early.
        let short = assemble("nop\nhalt\n").unwrap();
        let err = FiringProfile::measure(&ColumnConfig::isca2004(), &short, None, 5, 1);
        assert!(matches!(
            err,
            Err(FastTierError::HaltedEarly {
                executed: 1,
                expected: 5
            })
        ));
    }

    #[test]
    fn batch_validation_catches_misuse() {
        let program = firing_program(3, 1);
        let config = ColumnConfig::isca2004();
        let profile = FiringProfile::measure(&config, &program, None, 4, 3).unwrap();
        let batch = |column| ColumnBatch {
            column,
            firings: 3,
            profile: profile.clone(),
        };

        // Unknown column.
        let mut chip = Chip::new();
        chip.add_column(Column::new(config.clone(), program.clone(), None));
        let mut tier = FastTier::new();
        tier.push(batch(7));
        assert!(matches!(
            tier.run(&mut chip),
            Err(FastTierError::UnknownColumn { column: 7 })
        ));

        // Duplicate column.
        let mut tier = FastTier::new();
        tier.push(batch(0));
        tier.push(batch(0));
        assert!(matches!(
            tier.run(&mut chip),
            Err(FastTierError::DuplicateColumn { column: 0 })
        ));

        // Live column without a batch.
        let tier = FastTier::new();
        assert!(matches!(
            tier.completion_tick(&chip),
            Err(FastTierError::BadCoverage {
                column: 0,
                halted: false
            })
        ));

        // Stepped chip is rejected.
        chip.run(2).unwrap();
        let mut tier = FastTier::new();
        tier.push(batch(0));
        assert!(matches!(
            tier.run(&mut chip),
            Err(FastTierError::ChipNotFresh)
        ));

        // Rate matcher + DOU has no closed form.
        let mut zorm = ColumnConfig::isca2004();
        zorm.rate_matcher = Some(RateMatcher {
            period: 4,
            stalls: 1,
        });
        let dou = firing_dou(4, 4, 3);
        let dou_profile = FiringProfile::measure(&zorm, &program, Some(&dou), 4, 3).unwrap();
        let mut chip = Chip::new();
        chip.add_column(Column::new(zorm, program.clone(), Some(dou)));
        let mut tier = FastTier::new();
        tier.push(ColumnBatch {
            column: 0,
            firings: 3,
            profile: dou_profile,
        });
        assert!(matches!(
            tier.run(&mut chip),
            Err(FastTierError::RateMatchedDou { column: 0 })
        ));

        // A saturated matcher can never halt.  A hand-built period of 0
        // is normalised to 1, so with a stall it is saturated too.
        for (period, stalls) in [(4, 4), (0, 1)] {
            let mut saturated = ColumnConfig::isca2004();
            saturated.rate_matcher = Some(RateMatcher { period, stalls });
            let sat_profile = FiringProfile::measure(&saturated, &program, None, 4, 3).unwrap();
            let mut chip = Chip::new();
            chip.add_column(Column::new(saturated, program.clone(), None));
            let mut tier = FastTier::new();
            tier.push(ColumnBatch {
                column: 0,
                firings: 3,
                profile: sat_profile,
            });
            assert!(matches!(
                tier.run(&mut chip),
                Err(FastTierError::SaturatedRateMatcher { column: 0 })
            ));
        }
    }

    /// A one-column chip and its batch of `firings` firings of
    /// `firing_program(_, compute)` at `divider`, measured on the replica.
    fn single_batch(
        firings: u64,
        compute: u32,
        divider: u32,
        rate_matcher: Option<RateMatcher>,
    ) -> (Chip, FastTier) {
        let program = firing_program(u32::try_from(firings).unwrap_or(u32::MAX), compute);
        let config = ColumnConfig {
            rate_matcher,
            ..ColumnConfig::isca2004().with_divider(divider)
        };
        let profile =
            FiringProfile::measure(&config, &program, None, u64::from(compute) + 3, 2).unwrap();
        let mut chip = Chip::new();
        chip.add_column(Column::new(config, program, None));
        let mut tier = FastTier::new();
        tier.push(ColumnBatch {
            column: 0,
            firings,
            profile,
        });
        (chip, tier)
    }

    /// Asserts `tier` reports `what` overflowing on column 0 from both
    /// entry points and leaves `chip` untouched.
    fn assert_overflow(chip: &mut Chip, tier: &FastTier, what: &str) {
        for result in [tier.completion_tick(chip), tier.run(chip).map(Some)] {
            match result {
                Err(FastTierError::Overflow { column: 0, what: w }) if w == what => {}
                other => panic!("expected a {what} overflow, got {other:?}"),
            }
        }
        assert_eq!(chip.stats(), crate::chip::ChipStats::default());
        assert_eq!(chip.column_stats(), vec![ColumnStats::default()]);
        assert!(!chip.all_halted());
    }

    #[test]
    fn halt_tick_past_u64_max_is_an_error_not_a_wrapped_tick() {
        // u32::MAX firings of a 7-cycle firing at divider u32::MAX: the
        // halt tick is 30,064,771,065 × 4,294,967,295 =
        // 129,127,208,455,837,319,175, past u64::MAX.  Unchecked, release
        // builds returned the wrapped tick 18,446,744,013,580,009,479.
        let (mut chip, tier) = single_batch(u64::from(u32::MAX), 4, u32::MAX, None);
        assert_overflow(&mut chip, &tier, "halt tick");

        // The same firings at divider 2^29 fit: the halt tick is exact.
        let (mut chip, tier) = single_batch(u64::from(u32::MAX), 4, 1 << 29, None);
        let halt = u64::from(u32::MAX) * 7 * (1 << 29);
        assert_eq!(tier.completion_tick(&chip).unwrap(), Some(halt));
        assert_eq!(tier.run(&mut chip).unwrap(), halt + 1);
    }

    #[test]
    fn closed_form_cycle_overflow_is_an_error() {
        // firings × cycles past u64::MAX.
        let (mut chip, tier) = single_batch(u64::MAX / 6, 4, 1, None);
        assert_overflow(&mut chip, &tier, "column cycles");
        // The useful cycles fit, but ZORM stretches them past u64::MAX.
        let matcher = RateMatcher {
            period: 4,
            stalls: 1,
        };
        let (mut chip, tier) = single_batch(u64::MAX / 8, 4, 1, Some(matcher));
        assert_overflow(&mut chip, &tier, "column cycles");
        // A halt tick of exactly u64::MAX leaves no tick to stop after.
        let (mut chip, tier) = single_batch(u64::MAX / 5, 2, 1, None);
        assert_eq!(u64::MAX / 5 * 5, u64::MAX);
        assert_overflow(&mut chip, &tier, "halt tick");
    }

    #[test]
    fn chip_cycle_sum_overflow_is_an_error() {
        // Two columns each bill just over u64::MAX / 2 cycles: each halt
        // tick fits, the chip's column-cycle total does not.
        let (mut chip, mut tier) = single_batch(u64::MAX / 6 + 1, 0, 1, None);
        let second = chip.add_column(Column::new(
            ColumnConfig::isca2004(),
            firing_program(u32::MAX, 0),
            None,
        ));
        let batch = ColumnBatch {
            column: second,
            ..tier.batches()[0].clone()
        };
        tier.push(batch);
        assert!(matches!(
            tier.completion_tick(&chip),
            Err(FastTierError::Overflow {
                column: 1,
                what: "chip column cycles"
            })
        ));
        assert!(tier.run(&mut chip).is_err());
        assert_eq!(chip.stats(), crate::chip::ChipStats::default());
    }

    #[test]
    fn error_messages_are_informative() {
        let e = FastTierError::HaltedEarly {
            executed: 2,
            expected: 5,
        };
        assert!(e.to_string().contains("2 of 5"));
        assert!(FastTierError::ChipNotFresh.to_string().contains("fresh"));
        assert!(FastTierError::RateMatchedDou { column: 3 }
            .to_string()
            .contains("column 3"));
        assert_eq!(
            FastTierError::Overflow {
                column: 2,
                what: "halt tick"
            }
            .to_string(),
            "column 2: halt tick overflows 64 bits"
        );
    }
}
