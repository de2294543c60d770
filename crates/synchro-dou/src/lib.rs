//! The Data Orchestration Unit (DOU) — Section 2.3 / Figure 3 of the paper.
//!
//! Each column has one DOU: a 128-state finite state machine clocked at the
//! bus frequency whose per-state outputs drive the column's bus segment
//! switches and the per-tile communication buffers, providing
//! *zero-overhead, statically-scheduled* inter-tile communication.  Four
//! pre-programmed 32-bit down-counters let the FSM encode up to four nested
//! loops: each state names the counter it tests (`CNTR`); if that counter
//! is zero the FSM takes `NXTSTATE0` and reloads the counter, otherwise it
//! decrements the counter and takes `NXTSTATE1`.
//!
//! [`ScheduleCompiler`] builds a DOU program from a periodic communication
//! pattern (a list of per-cycle bus operations repeated a given number of
//! times), which is how the application mappings in `synchro-apps` express
//! their communication.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;
use std::sync::Arc;
use synchro_bus::{BusOp, SegmentConfig};

/// Maximum number of states a DOU can hold (Figure 3: 128 states).
pub const MAX_STATES: usize = 128;
/// Number of nested-loop down-counters (Figure 3: four).
pub const NUM_COUNTERS: usize = 4;

/// Errors raised while building or running a DOU program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DouError {
    /// The program needs more than [`MAX_STATES`] states.
    TooManyStates {
        /// Number of states requested.
        requested: usize,
    },
    /// A state referenced a counter outside `0..NUM_COUNTERS`.
    BadCounter {
        /// The counter index used.
        counter: usize,
    },
    /// A next-state pointer referenced a state outside the program.
    BadNextState {
        /// The state holding the bad pointer.
        state: usize,
        /// The out-of-range target.
        target: usize,
    },
    /// The compiler was given an empty communication pattern.
    EmptyPattern,
}

impl fmt::Display for DouError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DouError::TooManyStates { requested } => write!(
                f,
                "DOU program needs {requested} states but the hardware holds only {MAX_STATES}"
            ),
            DouError::BadCounter { counter } => {
                write!(
                    f,
                    "counter index {counter} out of range (0..{NUM_COUNTERS})"
                )
            }
            DouError::BadNextState { state, target } => {
                write!(f, "state {state} points to non-existent state {target}")
            }
            DouError::EmptyPattern => write!(f, "communication pattern must not be empty"),
        }
    }
}

impl Error for DouError {}

/// The outputs a DOU asserts during one bus cycle: the segment switch
/// configuration plus the set of word transfers to perform.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DouOutput {
    /// Segment switch configuration for this cycle (`None` leaves the
    /// previous configuration in place).
    pub segments: Option<SegmentConfig>,
    /// Word transfers to perform this cycle.
    pub ops: Vec<BusOp>,
}

impl DouOutput {
    /// True when the cycle asserts no transfer and no segment
    /// configuration.
    fn is_idle(&self) -> bool {
        self.ops.is_empty() && self.segments.is_none()
    }
}

/// One state of the DOU state machine (one row of Figure 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DouState {
    /// Which down-counter this state tests.
    pub counter: usize,
    /// Next state when the tested counter has reached zero (the counter is
    /// then reloaded with its initial value).
    pub next_if_zero: usize,
    /// Next state when the tested counter is non-zero (the counter is
    /// decremented).
    pub next_if_nonzero: usize,
    /// Outputs asserted while in this state.
    pub output: DouOutput,
}

/// A complete DOU program: the state table plus counter initial values.
///
/// Building a program also derives, once, each state's *idle run*: how
/// many states [`Dou::skip_idle`] may cross in one jump from there.  A
/// state with outputs has run 0.  An idle *pass-through* state (both
/// next pointers name the following state) starts a run of every
/// consecutive pass-through state that tests the same counter.  Any
/// other idle state (a loop-back, a self-loop) is a run of 1, stepped
/// as [`Dou::step`] does.
///
/// A DOU is programmed once per mapping and then only replays its table,
/// so clones of a program share it: cloning a `DouProgram` copies two
/// reference-counted pointers, never the state table or its idle runs,
/// and every [`Dou`] loaded from the clones steps through the one table
/// while keeping its own state, counters and statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DouProgram {
    states: Arc<[DouState]>,
    counter_init: [u32; NUM_COUNTERS],
    runs: Arc<[u8]>,
}

impl DouProgram {
    /// Build and validate a program.
    ///
    /// # Errors
    ///
    /// Returns a [`DouError`] if the program exceeds 128 states, uses a bad
    /// counter index, or contains a dangling next-state pointer.
    pub fn new(states: Vec<DouState>, counter_init: [u32; NUM_COUNTERS]) -> Result<Self, DouError> {
        if states.len() > MAX_STATES {
            return Err(DouError::TooManyStates {
                requested: states.len(),
            });
        }
        Self::from_table(states.into(), counter_init)
    }

    /// Validate a table of at most [`MAX_STATES`] states and derive its
    /// idle runs.
    fn from_table(
        states: Arc<[DouState]>,
        counter_init: [u32; NUM_COUNTERS],
    ) -> Result<Self, DouError> {
        for (i, s) in states.iter().enumerate() {
            if s.counter >= NUM_COUNTERS {
                return Err(DouError::BadCounter { counter: s.counter });
            }
            for target in [s.next_if_zero, s.next_if_nonzero] {
                if target >= states.len() {
                    return Err(DouError::BadNextState { state: i, target });
                }
            }
        }
        let runs = idle_runs(&states);
        Ok(DouProgram {
            states,
            counter_init,
            runs,
        })
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True if the program has no states.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The state table.
    pub fn states(&self) -> &[DouState] {
        &self.states
    }

    /// The counter initial values.
    pub fn counter_init(&self) -> [u32; NUM_COUNTERS] {
        self.counter_init
    }
}

/// Each state's idle run (see [`DouProgram`]), in one backward pass over
/// a stack buffer, then copied into one allocation.  A table holds at
/// most [`MAX_STATES`] states, so a run fits a `u8`.
fn idle_runs(states: &[DouState]) -> Arc<[u8]> {
    let passes = |i: usize| {
        let s = &states[i];
        s.output.is_idle() && s.next_if_zero == i + 1 && s.next_if_nonzero == i + 1
    };
    let mut runs = [0u8; MAX_STATES];
    for i in (0..states.len()).rev() {
        runs[i] = if !states[i].output.is_idle() {
            0
        } else if passes(i) && passes(i + 1) && states[i + 1].counter == states[i].counter {
            runs[i + 1] + 1
        } else {
            1
        };
    }
    Arc::from(&runs[..states.len()])
}

/// The DOU state machine itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dou {
    program: DouProgram,
    counters: [u32; NUM_COUNTERS],
    state: usize,
    cycles: u64,
    transfers: u64,
}

impl Dou {
    /// Load a program and reset to state 0 with counters at their initial
    /// values.
    pub fn new(program: DouProgram) -> Self {
        let counters = program.counter_init();
        Dou {
            program,
            counters,
            state: 0,
            cycles: 0,
            transfers: 0,
        }
    }

    /// The current state index.
    pub fn state(&self) -> usize {
        self.state
    }

    /// The current value of down-counter `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= NUM_COUNTERS`.
    pub fn counter(&self, i: usize) -> u32 {
        self.counters[i]
    }

    /// Total bus cycles stepped.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total word transfers emitted.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Advance one bus cycle: emit the current state's outputs, then move
    /// to the next state according to the tested counter.  The outputs are
    /// borrowed from the state table, so a step allocates nothing.
    pub fn step(&mut self) -> &DouOutput {
        static IDLE: DouOutput = DouOutput {
            segments: None,
            ops: Vec::new(),
        };
        if self.program.is_empty() {
            return &IDLE;
        }
        self.cycles += 1;
        let s = &self.program.states()[self.state];
        self.transfers += s.output.ops.len() as u64;
        let c = s.counter;
        if self.counters[c] == 0 {
            self.counters[c] = self.program.counter_init()[c];
            self.state = s.next_if_zero;
        } else {
            self.counters[c] -= 1;
            self.state = s.next_if_nonzero;
        }
        &s.output
    }

    /// Step through up to `max` idle states — states that assert no
    /// transfer and no segment configuration — with exactly the counter
    /// and state transitions as many [`Dou::step`] calls make, stopping
    /// at the first state with outputs (which is left unstepped).  Returns
    /// the states stepped.  An empty program is idle forever.
    ///
    /// Each of the program's idle runs (see [`DouProgram`]) is crossed in
    /// one jump of `j` states, `j` the least of the run and the states
    /// left to `max`: the state index grows by `j`, and the one counter
    /// the run tests counts down `j` times in closed form, reloading each
    /// time it is found at zero.  A run of 1 is an ordinary step.
    pub fn skip_idle(&mut self, max: u64) -> u64 {
        if self.program.is_empty() {
            return max;
        }
        let mut stepped = 0;
        while stepped < max {
            let run = self.program.runs[self.state];
            if run == 0 {
                break;
            }
            let s = &self.program.states[self.state];
            let c = s.counter;
            let value = self.counters[c];
            let j = u64::from(run).min(max - stepped);
            self.counters[c] = count_down(value, self.program.counter_init[c], j);
            self.state = if j > 1 {
                self.state + j as usize
            } else if value == 0 {
                s.next_if_zero
            } else {
                s.next_if_nonzero
            };
            stepped += j;
        }
        self.cycles += stepped;
        stepped
    }

    /// Repeat up to `max` more times the steps since `earlier`, a clone of
    /// this DOU: the repetitions applied, or `None`, changing nothing, past
    /// `u64::MAX`.  None apply unless the DOU is back in `earlier`'s state
    /// and those steps took the path on which every test finds its counter
    /// non-zero, setting no segments.  Each repetition tests each counter
    /// as often, so they stop before one would be found at zero, and the
    /// counters just count down.
    pub fn repeat(&mut self, earlier: &Dou, max: u64) -> Option<u64> {
        let Some(tests) = self
            .tests_since(earlier)
            .filter(|_| self.state == earlier.state)
        else {
            return Some(0);
        };
        let mut times = max;
        for (c, &tested) in tests.iter().enumerate().filter(|(_, &t)| t > 0) {
            // The steps since `earlier` found the counter non-zero at each
            // of its tests exactly when it started at least that high.
            if u64::from(earlier.counters[c]) < tested {
                return Some(0);
            }
            times = times.min(u64::from(self.counters[c]) / tested);
        }
        let add = |now: u64, then: u64| (now - then).checked_mul(times)?.checked_add(now);
        let cycles = add(self.cycles, earlier.cycles)?;
        let transfers = add(self.transfers, earlier.transfers)?;
        for (counter, tested) in self.counters.iter_mut().zip(tests) {
            // At most the counter's value, so it fits.
            *counter -= (tested * times) as u32;
        }
        (self.cycles, self.transfers) = (cycles, transfers);
        Some(times)
    }

    /// Each counter's tests along the steps since `earlier`, taken as the
    /// path from its state on which every test finds its counter
    /// non-zero.  That path follows `next_if_nonzero`, so it returns to its
    /// start every `length` steps or never; `None` when the steps are not
    /// a whole number of such returns, or a state on it sets the segments.
    fn tests_since(&self, earlier: &Dou) -> Option<[u64; NUM_COUNTERS]> {
        let steps = self.cycles - earlier.cycles;
        let mut tests = [0u64; NUM_COUNTERS];
        if steps == 0 {
            return Some(tests);
        }
        let mut state = earlier.state;
        for length in 1..=self.program.len() as u64 {
            let s = &self.program.states[state];
            if s.output.segments.is_some() {
                return None;
            }
            tests[s.counter] += 1;
            state = s.next_if_nonzero;
            if state == earlier.state {
                let returns = steps.is_multiple_of(length).then_some(steps / length)?;
                return Some(tests.map(|t| t * returns));
            }
        }
        None
    }
}

/// A down-counter at `value`, reloaded with `init` when a step finds it at
/// zero, after `steps` steps: it reaches zero after `value` steps, and
/// from then on cycles `init, init - 1, …, 0` with period `init + 1`.
fn count_down(value: u32, init: u32, steps: u64) -> u32 {
    let value64 = u64::from(value);
    if steps <= value64 {
        return (value64 - steps) as u32;
    }
    let init64 = u64::from(init);
    (init64 - (steps - value64 - 1) % (init64 + 1)) as u32
}

/// One cycle of a periodic communication pattern handed to the compiler:
/// the outputs its state asserts (a default cycle keeps the default
/// all-closed configuration and transfers nothing).
pub type PatternCycle = DouOutput;

/// Compiles a periodic communication pattern into a DOU program.
///
/// The pattern is a sequence of [`PatternCycle`]s repeated `repetitions`
/// times (0 means forever), exactly the structure produced when an inner
/// loop of a mapped kernel is statically scheduled.
///
/// The compiler keeps only the cycles that assert something, with their
/// positions: idle cycles, however many, are a count.  [`compile`]
/// builds the state table in one allocation and moves those cycles'
/// outputs into it.
///
/// [`compile`]: ScheduleCompiler::compile
#[derive(Debug, Clone, Default)]
pub struct ScheduleCompiler {
    len: usize,
    active: Vec<(usize, DouOutput)>,
}

impl ScheduleCompiler {
    /// Start an empty pattern.
    pub fn new() -> Self {
        ScheduleCompiler::default()
    }

    /// Append one cycle to the pattern.
    pub fn push(&mut self, cycle: PatternCycle) -> &mut Self {
        if !cycle.is_idle() {
            self.active.push((self.len, cycle));
        }
        self.idle_for(1)
    }

    /// Append an idle (no-transfer) cycle.
    pub fn idle(&mut self) -> &mut Self {
        self.idle_for(1)
    }

    /// Append `n` idle cycles.
    pub fn idle_for(&mut self, n: usize) -> &mut Self {
        self.len = self.len.saturating_add(n);
        self
    }

    /// Append a cycle performing a single transfer under the prevailing
    /// segment configuration — the common case when compiling a mapped
    /// actor's token-distribution schedule.
    pub fn push_op(&mut self, op: BusOp) -> &mut Self {
        self.push(PatternCycle {
            segments: None,
            ops: vec![op],
        })
    }

    /// Number of cycles in the pattern so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the pattern is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Compile the pattern into a [`DouProgram`] that repeats it
    /// `repetitions` times (`0` = repeat forever).
    ///
    /// The generated program uses counter 0 for the repetition count: each
    /// pattern cycle becomes one state whose `next_if_nonzero` continues
    /// the pattern and whose final state loops back via the counter test.
    /// Compiling consumes the pattern, whose outputs move into the table.
    ///
    /// # Errors
    ///
    /// Returns [`DouError::EmptyPattern`] for an empty pattern or
    /// [`DouError::TooManyStates`] if the pattern exceeds 128 cycles.
    pub fn compile(self, repetitions: u32) -> Result<DouProgram, DouError> {
        let n = self.len;
        if n == 0 {
            return Err(DouError::EmptyPattern);
        }
        if n > MAX_STATES {
            return Err(DouError::TooManyStates { requested: n });
        }
        let mut active = self.active.into_iter().peekable();
        let states = (0..n)
            .map(|i| {
                let last = i == n - 1;
                let (next_if_zero, next_if_nonzero) = if last {
                    // On the last pattern cycle, test counter 0: if
                    // exhausted, stay parked on the last state (or wrap for
                    // infinite repetition); otherwise wrap to the start.
                    if repetitions == 0 {
                        (0, 0)
                    } else {
                        (n - 1, 0)
                    }
                } else {
                    (i + 1, i + 1)
                };
                DouState {
                    counter: if last { 0 } else { 1 },
                    next_if_zero,
                    next_if_nonzero,
                    output: active
                        .next_if(|(at, _)| *at == i)
                        .map_or_else(DouOutput::default, |(_, output)| output),
                }
            })
            .collect();
        let mut counter_init = [0u32; NUM_COUNTERS];
        // Counter 0 counts the remaining repetitions after the first pass.
        counter_init[0] = repetitions.saturating_sub(1);
        // Counter 1 is a dummy always-nonzero counter for intermediate
        // states (they ignore its value because both next pointers match).
        counter_init[1] = u32::MAX;
        DouProgram::from_table(states, counter_init)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn op(split: usize, producer: usize, consumer: usize) -> BusOp {
        BusOp {
            split,
            producer,
            consumers: vec![consumer],
        }
    }

    #[test]
    fn program_validation_catches_errors() {
        let too_many: Vec<DouState> = (0..129)
            .map(|_| DouState {
                counter: 0,
                next_if_zero: 0,
                next_if_nonzero: 0,
                output: DouOutput::default(),
            })
            .collect();
        assert!(matches!(
            DouProgram::new(too_many, [0; 4]),
            Err(DouError::TooManyStates { requested: 129 })
        ));

        let bad_counter = vec![DouState {
            counter: 4,
            next_if_zero: 0,
            next_if_nonzero: 0,
            output: DouOutput::default(),
        }];
        assert!(matches!(
            DouProgram::new(bad_counter, [0; 4]),
            Err(DouError::BadCounter { counter: 4 })
        ));

        let dangling = vec![DouState {
            counter: 0,
            next_if_zero: 5,
            next_if_nonzero: 0,
            output: DouOutput::default(),
        }];
        assert!(matches!(
            DouProgram::new(dangling, [0; 4]),
            Err(DouError::BadNextState {
                state: 0,
                target: 5
            })
        ));
    }

    #[test]
    fn counter_semantics_match_figure_3() {
        // A single state testing counter 0 initialised to 3: the FSM should
        // decrement through 3,2,1 staying put (next_if_nonzero = 0), then
        // on reaching zero reload and take next_if_zero = 0.
        let program = DouProgram::new(
            vec![DouState {
                counter: 0,
                next_if_zero: 0,
                next_if_nonzero: 0,
                output: DouOutput::default(),
            }],
            [3, 0, 0, 0],
        )
        .unwrap();
        let mut dou = Dou::new(program);
        assert_eq!(dou.counter(0), 3);
        dou.step();
        assert_eq!(dou.counter(0), 2);
        dou.step();
        dou.step();
        assert_eq!(dou.counter(0), 0);
        dou.step();
        assert_eq!(dou.counter(0), 3, "counter reloads on zero");
        assert_eq!(dou.cycles(), 4);
    }

    #[test]
    fn push_op_and_idle_for_build_the_expected_pattern() {
        let mut compiler = ScheduleCompiler::new();
        compiler.idle_for(2).push_op(op(0, 0, 3)).idle_for(3);
        assert_eq!(compiler.len(), 6);
        let program = compiler.compile(0).unwrap();
        let mut dou = Dou::new(program);
        let counts: Vec<usize> = (0..6).map(|_| dou.step().ops.len()).collect();
        assert_eq!(counts, vec![0, 0, 1, 0, 0, 0]);
    }

    #[test]
    fn compiled_pattern_repeats_in_order() {
        let mut compiler = ScheduleCompiler::new();
        compiler.push(PatternCycle {
            segments: None,
            ops: vec![op(0, 0, 1)],
        });
        compiler.push(PatternCycle {
            segments: None,
            ops: vec![op(1, 2, 3)],
        });
        compiler.idle();
        let program = compiler.compile(2).unwrap();
        let mut dou = Dou::new(program);

        let mut produced: Vec<usize> = Vec::new();
        for _ in 0..6 {
            let out = dou.step();
            produced.push(out.ops.len());
        }
        // Two repetitions of [1 op, 1 op, 0 ops].
        assert_eq!(produced, vec![1, 1, 0, 1, 1, 0]);
        assert_eq!(dou.transfers(), 4);
    }

    #[test]
    fn finite_repetition_parks_after_completion() {
        let mut compiler = ScheduleCompiler::new();
        compiler.push(PatternCycle {
            segments: None,
            ops: vec![op(0, 0, 1)],
        });
        let program = compiler.compile(1).unwrap();
        let mut dou = Dou::new(program);
        assert_eq!(dou.step().ops.len(), 1);
        // After the single repetition the FSM parks on the last state and
        // keeps emitting it; the column will have halted by then, but the
        // FSM must not wander to an invalid state.
        for _ in 0..3 {
            let _ = dou.step();
            assert!(dou.state() < 1 + 1);
        }
    }

    #[test]
    fn infinite_pattern_never_stops() {
        let mut compiler = ScheduleCompiler::new();
        compiler.push(PatternCycle {
            segments: None,
            ops: vec![op(0, 1, 0)],
        });
        compiler.idle();
        let program = compiler.compile(0).unwrap();
        let mut dou = Dou::new(program);
        let counts: Vec<usize> = (0..8).map(|_| dou.step().ops.len()).collect();
        assert_eq!(counts, vec![1, 0, 1, 0, 1, 0, 1, 0]);
    }

    #[test]
    fn empty_pattern_is_rejected() {
        assert!(matches!(
            ScheduleCompiler::new().compile(1),
            Err(DouError::EmptyPattern)
        ));
    }

    #[test]
    fn pattern_longer_than_128_cycles_is_rejected() {
        let mut compiler = ScheduleCompiler::new();
        for _ in 0..200 {
            compiler.idle();
        }
        assert!(matches!(
            compiler.compile(1),
            Err(DouError::TooManyStates { .. })
        ));
    }

    #[test]
    fn segment_configuration_is_carried_through() {
        let mut compiler = ScheduleCompiler::new();
        let mut cfg = SegmentConfig::all_closed(8, 4);
        cfg.set(0, 1, false);
        compiler.push(PatternCycle {
            segments: Some(cfg.clone()),
            ops: vec![op(0, 0, 1), op(0, 3, 2)],
        });
        let program = compiler.compile(0).unwrap();
        let mut dou = Dou::new(program);
        let out = dou.step();
        assert_eq!(out.segments, Some(cfg));
        assert_eq!(out.ops.len(), 2);
    }

    #[test]
    fn empty_program_steps_to_nothing() {
        let program = DouProgram::new(Vec::new(), [0; 4]).unwrap();
        let mut dou = Dou::new(program);
        let out = dou.step();
        assert!(out.ops.is_empty());
        assert!(out.segments.is_none());
    }

    #[test]
    fn skip_idle_stops_at_the_first_transfer() {
        // The mapper's pattern: two idle cycles, one transfer, three idle.
        let mut compiler = ScheduleCompiler::new();
        compiler.idle_for(2).push_op(op(0, 0, 3)).idle_for(3);
        let mut dou = Dou::new(compiler.compile(2).unwrap());
        assert_eq!(dou.skip_idle(10), 2);
        assert_eq!(dou.state(), 2);
        assert_eq!(dou.skip_idle(10), 0, "state 2 transfers");
        assert_eq!(dou.step().ops.len(), 1);
        assert_eq!(dou.skip_idle(2), 2, "capped by `max`");
        assert_eq!(dou.skip_idle(10), 3, "the last state wraps to state 0");
        assert_eq!(dou.cycles(), 8);
        assert_eq!(
            dou.counter(1),
            u32::MAX - 7,
            "the dummy counter counts down in every state but the last"
        );

        let mut empty = Dou::new(DouProgram::new(Vec::new(), [0; 4]).unwrap());
        assert_eq!(empty.skip_idle(7), 7, "an empty program is idle forever");
        assert_eq!(empty.cycles(), 0, "and its steps bill nothing");
    }

    /// A counter initial value: 0, 1–3, `u32::MAX` or anything.
    fn init_value(raw: u64) -> u32 {
        match raw % 4 {
            0 => 0,
            1 => 1 + (raw >> 2) as u32 % 3,
            2 => u32::MAX,
            _ => (raw >> 2) as u32,
        }
    }

    /// A valid state table of `raws.len()` states drawn from `raws`: any
    /// counter, any next states, and outputs that are idle (half the
    /// states), a transfer, or a segment change with no transfer.
    fn random_program(raws: &[u64], inits: [u64; NUM_COUNTERS]) -> DouProgram {
        let n = raws.len();
        let states = raws
            .iter()
            .map(|&raw| {
                let output = match (raw >> 16) % 4 {
                    0 => DouOutput {
                        segments: None,
                        ops: vec![op(0, 0, 1)],
                    },
                    1 => DouOutput {
                        segments: Some(SegmentConfig::all_open(8, 4)),
                        ops: Vec::new(),
                    },
                    _ => DouOutput::default(),
                };
                DouState {
                    counter: (raw % NUM_COUNTERS as u64) as usize,
                    next_if_zero: (raw >> 2) as usize % n,
                    next_if_nonzero: (raw >> 8) as usize % n,
                    output,
                }
            })
            .collect();
        DouProgram::new(states, inits.map(init_value)).unwrap()
    }

    proptest! {
        /// On random state tables and counter values, `skip_idle(max)`
        /// leaves the whole DOU equal to as many `step` calls, every one
        /// from an idle state, and stops short of `max` exactly at a state
        /// with a transfer or a segment change.
        #[test]
        fn skip_idle_matches_single_steps(
            raws in prop::collection::vec(any::<u64>(), 1..10),
            inits in prop::array::uniform4(any::<u64>()),
            maxes in prop::collection::vec(0u64..12, 1..24),
        ) {
            let program = random_program(&raws, inits);
            let mut dou = Dou::new(program.clone());
            for max in maxes {
                let mut stepped = dou.clone();
                let skipped = dou.skip_idle(max);
                prop_assert!(skipped <= max);
                for _ in 0..skipped {
                    prop_assert_eq!(&program.states()[stepped.state()].output, &DouOutput::default());
                    stepped.step();
                }
                prop_assert_eq!(&dou, &stepped);
                if skipped < max {
                    prop_assert_ne!(&program.states()[dou.state()].output, &DouOutput::default());
                }
                // Step once past wherever the skip stopped.
                dou.step();
            }
        }
    }

    /// The walk `skip_idle` replaced, kept as its oracle: one `step` per
    /// idle state, stopping at the first state with outputs.
    fn walk_idle(dou: &mut Dou, max: u64) -> u64 {
        let mut walked = 0;
        while walked < max && dou.program.states[dou.state].output == DouOutput::default() {
            dou.step();
            walked += 1;
        }
        walked
    }

    /// A counter's starting value: at or near 0, so that a reload falls
    /// inside a jump, or its initial value; never above the initial
    /// value, as in a running DOU.
    fn start_value(raw: u64, init: u32) -> u32 {
        match raw % 5 {
            4 => init,
            near => (near as u32).min(init),
        }
    }

    /// The compiler's table for a random pattern whose cycles are idle
    /// (half of them), a transfer or a segment change.
    fn pattern_program(raws: &[u64], repetitions: u32) -> DouProgram {
        let mut compiler = ScheduleCompiler::new();
        for &raw in raws {
            match raw % 4 {
                0 => compiler.push_op(op(0, 0, 1)),
                1 => compiler.push(PatternCycle {
                    segments: Some(SegmentConfig::all_open(8, 4)),
                    ops: Vec::new(),
                }),
                _ => compiler.idle(),
            };
        }
        compiler.compile(repetitions).unwrap()
    }

    /// A hand-built chain: every state but the last passes through to the
    /// next, testing counter 0 (five times in eight, so runs form) or
    /// another counter (which ends a run); one state in eight transfers.
    /// The last state goes anywhere.
    fn chain_program(raws: &[u64], inits: [u64; NUM_COUNTERS]) -> DouProgram {
        let n = raws.len();
        let states = raws
            .iter()
            .enumerate()
            .map(|(i, &raw)| {
                let (next_if_zero, next_if_nonzero) = if i + 1 < n {
                    (i + 1, i + 1)
                } else {
                    ((raw >> 8) as usize % n, (raw >> 16) as usize % n)
                };
                DouState {
                    counter: [0, 0, 0, 0, 0, 1, 2, 3][(raw % 8) as usize],
                    next_if_zero,
                    next_if_nonzero,
                    output: if (raw >> 3) % 8 == 0 {
                        DouOutput {
                            segments: None,
                            ops: vec![op(0, 0, 1)],
                        }
                    } else {
                        DouOutput::default()
                    },
                }
            })
            .collect();
        DouProgram::new(states, inits.map(init_value)).unwrap()
    }

    /// From counters started at `starts`, at every state visited,
    /// `skip_idle(max)` with `max` one below, at, one beyond and far
    /// beyond the state's run leaves the whole DOU equal to the walk.
    /// Between checks the walk moves the DOU on, then one step.
    fn check_jumps(
        program: DouProgram,
        starts: [u64; NUM_COUNTERS],
        moves: &[u64],
    ) -> Result<(), TestCaseError> {
        let mut dou = Dou::new(program);
        for (c, &raw) in starts.iter().enumerate() {
            dou.counters[c] = start_value(raw, dou.program.counter_init[c]);
        }
        for &mv in moves {
            let run = u64::from(dou.program.runs[dou.state]);
            for max in [run.saturating_sub(1), run, run + 1, run + 1 + mv % 512] {
                let (mut jumped, mut walked) = (dou.clone(), dou.clone());
                prop_assert_eq!(jumped.skip_idle(max), walk_idle(&mut walked, max));
                prop_assert_eq!(&jumped, &walked);
            }
            walk_idle(&mut dou, mv % 16);
            dou.step();
        }
        Ok(())
    }

    proptest! {
        /// On the compiler's tables (repetitions 0–3) and on pass-through
        /// chains whose counters start at and near 0, each idle run's jump
        /// leaves the DOU exactly where the state-by-state walk does.
        #[test]
        fn skip_idle_jumps_match_the_walk(
            cycles in prop::collection::vec(any::<u64>(), 1..48),
            repetitions in 0u32..4,
            chain in prop::collection::vec(any::<u64>(), 1..48),
            inits in prop::array::uniform4(any::<u64>()),
            starts in prop::array::uniform4(any::<u64>()),
            moves in prop::collection::vec(any::<u64>(), 1..32),
        ) {
            check_jumps(pattern_program(&cycles, repetitions), starts, &moves)?;
            check_jumps(chain_program(&chain, inits), starts, &moves)?;
        }
    }

    /// The table the compiler built before it kept idle cycles as a count,
    /// kept as its oracle: one state per pattern cycle, pushed in order.
    fn dense_table(cycles: &[PatternCycle], repetitions: u32) -> Vec<DouState> {
        let n = cycles.len();
        let mut states = Vec::with_capacity(n);
        for (i, c) in cycles.iter().enumerate() {
            let last = i == n - 1;
            let (next_if_zero, next_if_nonzero) = match (last, repetitions) {
                (true, 0) => (0, 0),
                (true, _) => (n - 1, 0),
                (false, _) => (i + 1, i + 1),
            };
            states.push(DouState {
                counter: if last { 0 } else { 1 },
                next_if_zero,
                next_if_nonzero,
                output: c.clone(),
            });
        }
        states
    }

    proptest! {
        /// Random patterns of idle runs, transfers and segment changes
        /// compile to the state table and counters of one state per cycle.
        #[test]
        fn compiled_table_matches_one_state_per_cycle(
            raws in prop::collection::vec(any::<u64>(), 1..48),
            repetitions in 0u32..4,
        ) {
            let mut compiler = ScheduleCompiler::new();
            let mut cycles = Vec::new();
            for &raw in &raws {
                let cycle = match raw % 4 {
                    0 => PatternCycle { segments: None, ops: vec![op(0, 0, 1)] },
                    1 => PatternCycle {
                        segments: Some(SegmentConfig::all_open(8, 4)),
                        ops: Vec::new(),
                    },
                    _ => PatternCycle::default(),
                };
                let idle = (raw >> 8) as usize % 3;
                compiler.push(cycle.clone()).idle_for(idle);
                cycles.push(cycle);
                cycles.extend(std::iter::repeat_n(PatternCycle::default(), idle));
            }
            prop_assert_eq!(compiler.len(), cycles.len());
            let compiled = compiler.compile(repetitions);
            if cycles.len() > MAX_STATES {
                prop_assert_eq!(
                    compiled,
                    Err(DouError::TooManyStates { requested: cycles.len() })
                );
            } else {
                let dense = DouProgram::new(dense_table(&cycles, repetitions), [
                    repetitions.saturating_sub(1),
                    u32::MAX,
                    0,
                    0,
                ]);
                prop_assert_eq!(compiled, dense);
            }
        }
    }

    #[test]
    fn clones_share_the_table_and_step_independently() {
        let compile = || {
            let mut compiler = ScheduleCompiler::new();
            compiler.idle_for(2).push_op(op(0, 0, 3)).idle_for(5);
            compiler.compile(3).unwrap()
        };
        let program = compile();
        let (mut a, mut b) = (Dou::new(program.clone()), Dou::new(program.clone()));
        assert!(Arc::ptr_eq(&a.program.states, &program.states));
        assert!(Arc::ptr_eq(&b.program.runs, &program.runs));
        let (mut fresh_a, mut fresh_b) = (Dou::new(compile()), Dou::new(compile()));
        assert!(!Arc::ptr_eq(&fresh_a.program.states, &program.states));
        // Interleave: `a` skips and steps, `b` only steps, each matched
        // move for move by a DOU loaded from its own fresh compile.
        for round in 0..9u64 {
            assert_eq!(a.skip_idle(round % 4), fresh_a.skip_idle(round % 4));
            a.step();
            fresh_a.step();
            for _ in 0..=round % 3 {
                assert_eq!(b.step(), fresh_b.step());
            }
            assert_eq!(a, fresh_a);
            assert_eq!(b, fresh_b);
        }
        assert_ne!(a, b, "the two DOUs moved differently");
        assert_eq!(Dou::new(program), Dou::new(compile()));
    }

    #[test]
    fn per_cycle_types_keep_their_size() {
        // The interpreter reads one `DouState` per DOU step and copies
        // `SegmentConfig`s into the column; neither may grow.
        assert!(std::mem::size_of::<DouState>() <= 72);
        assert!(std::mem::size_of::<SegmentConfig>() <= 24);
    }

    #[test]
    fn error_display_mentions_limits() {
        assert!(DouError::TooManyStates { requested: 300 }
            .to_string()
            .contains("128"));
        assert!(DouError::BadCounter { counter: 9 }
            .to_string()
            .contains('9'));
    }
}
