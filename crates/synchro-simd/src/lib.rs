//! The per-column SIMD controller (Section 2.2) and Zero-Overhead Rate
//! Matching (Section 2.4).
//!
//! One controller drives the four tiles of a column from a single program
//! memory.  It executes all control instructions itself — zero-overhead
//! hardware loops, unconditional jumps and conditional branches (each
//! conditional branch delays the column by one cycle, the "short pipeline"
//! stall the paper describes) — and only forwards compute instructions to
//! the tiles.  A small programmable counter implements Zero-Overhead Rate
//! Matching (ZORM): it periodically injects NOP issue cycles so the
//! column's effective computation rate can be matched exactly to the
//! stream's data rate without padding the code with NOPs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use synchro_isa::{CondCode, Instruction, Program};

/// Configuration of the rate-matching counter: out of every `period` issue
/// slots, `stalls` are converted into NOPs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateMatcher {
    /// Length of the repeating period, in issue slots.
    pub period: u32,
    /// Number of NOP slots injected per period.
    pub stalls: u32,
}

impl RateMatcher {
    /// A matcher that never stalls.
    pub fn disabled() -> Self {
        RateMatcher {
            period: 1,
            stalls: 0,
        }
    }

    /// Build a matcher that throttles a column running at `column_mhz` so
    /// its useful issue rate equals `effective_mhz`.  Returns `None` when
    /// no throttling is needed (the column is not faster than required).
    pub fn for_rates(column_mhz: f64, effective_mhz: f64) -> Option<Self> {
        if effective_mhz >= column_mhz || column_mhz <= 0.0 {
            return None;
        }
        // Choose the smallest period (≤ 1024) giving at least the required
        // stall fraction.
        let stall_fraction = 1.0 - effective_mhz / column_mhz;
        for period in 2..=1024u32 {
            let stalls = (stall_fraction * f64::from(period)).ceil() as u32;
            if stalls < period
                && (f64::from(stalls) / f64::from(period) - stall_fraction).abs() < 1e-9
            {
                return Some(RateMatcher { period, stalls });
            }
        }
        // Fall back to the closest 1024-slot approximation.
        let stalls = (stall_fraction * 1024.0).round() as u32;
        Some(RateMatcher {
            period: 1024,
            stalls: stalls.clamp(1, 1023),
        })
    }

    /// The fraction of issue slots converted to NOPs.
    pub fn stall_fraction(&self) -> f64 {
        f64::from(self.stalls) / f64::from(self.period)
    }
}

/// What the controller issues to its tiles in one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Issue {
    /// Broadcast this compute instruction to every enabled tile.
    Broadcast(Instruction),
    /// The column idles this cycle (branch stall or ZORM throttling); the
    /// tiles see a NOP.
    Stall(StallReason),
    /// The program has halted.
    Halted,
}

/// Why an issue slot was spent idling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// The single-cycle conditional branch stall of Section 2.2.
    Branch,
    /// A Zero-Overhead Rate Matching NOP (Section 2.4).
    RateMatch,
}

/// Execution statistics for one column controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ControllerStats {
    /// Total issue cycles consumed (including stalls).
    pub cycles: u64,
    /// Compute instructions broadcast to the tiles.
    pub broadcasts: u64,
    /// Branch stall cycles.
    pub branch_stalls: u64,
    /// Rate-matching NOP cycles.
    pub rate_match_stalls: u64,
    /// Zero-overhead loop iterations completed.
    pub loop_iterations: u64,
    /// Conditional branches resolved.
    pub branches: u64,
}

/// A controller at the back-edge of its outermost zero-overhead loop with
/// no inner loop open — the end of an iteration, a mapped column's firing
/// — with its statistics: what a firing jump compares and repeats from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackEdge {
    frame: LoopFrame,
    condition: i32,
    stats: ControllerStats,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LoopFrame {
    /// First instruction of the body.
    start: u32,
    /// One past the last instruction of the body.
    end: u32,
    /// Iterations remaining after the current one.
    remaining: u32,
}

/// The SIMD column controller.
#[derive(Debug, Clone, PartialEq)]
pub struct SimdController {
    program: Program,
    pc: u32,
    loops: Vec<LoopFrame>,
    condition: i32,
    rate: RateMatcher,
    slot_in_period: u32,
    halted: bool,
    stats: ControllerStats,
}

impl SimdController {
    /// Create a controller for `program` with rate matching disabled.
    pub fn new(program: Program) -> Self {
        SimdController {
            program,
            pc: 0,
            loops: Vec::new(),
            condition: 0,
            rate: RateMatcher::disabled(),
            slot_in_period: 0,
            halted: false,
            stats: ControllerStats::default(),
        }
    }

    /// Enable Zero-Overhead Rate Matching with the given configuration.
    ///
    /// A `period` of zero is normalised to 1, so a hand-built matcher
    /// with stalls is saturated (every slot stalls) rather than a
    /// division by zero on the next step.
    pub fn set_rate_matcher(&mut self, rate: RateMatcher) {
        self.rate = RateMatcher {
            period: rate.period.max(1),
            ..rate
        };
        self.slot_in_period = 0;
    }

    /// Update the column condition register (driven by a tile executing
    /// `SetCond`).
    pub fn set_condition(&mut self, value: i32) {
        self.condition = value;
    }

    /// Has the program halted?
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// The current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// Advance one issue cycle and return what the tiles should execute.
    pub fn step(&mut self) -> Issue {
        if self.halted {
            return Issue::Halted;
        }
        self.stats.cycles += 1;

        // ZORM: the first `stalls` slots of every period are NOPs.
        if self.rate.stalls > 0 {
            let slot = self.slot_in_period;
            self.slot_in_period = (self.slot_in_period + 1) % self.rate.period;
            if slot < self.rate.stalls {
                self.stats.rate_match_stalls += 1;
                return Issue::Stall(StallReason::RateMatch);
            }
        }

        loop {
            // Zero-overhead loop back-edges are taken without consuming an
            // issue slot: the PC is used for the decision, not an
            // instruction (Section 2.2).
            if let Some(frame) = self.loops.last_mut() {
                if self.pc == frame.end {
                    if frame.remaining > 0 {
                        frame.remaining -= 1;
                        self.pc = frame.start;
                        self.stats.loop_iterations += 1;
                    } else {
                        self.loops.pop();
                        self.stats.loop_iterations += 1;
                    }
                    continue;
                }
            }

            let Some(inst) = self.program.fetch(self.pc as usize) else {
                self.halted = true;
                return Issue::Halted;
            };

            match inst {
                Instruction::Halt => {
                    self.halted = true;
                    return Issue::Halted;
                }
                Instruction::Jump { target } => {
                    self.pc = target;
                    continue;
                }
                Instruction::Branch { cond, target } => {
                    self.stats.branches += 1;
                    let taken = match cond {
                        CondCode::Zero => self.condition == 0,
                        CondCode::NotZero => self.condition != 0,
                    };
                    self.pc = if taken { target } else { self.pc + 1 };
                    // The branch resolves in the controller's short pipeline
                    // but delays the instruction stream by one cycle.
                    self.stats.branch_stalls += 1;
                    return Issue::Stall(StallReason::Branch);
                }
                Instruction::LoopBegin { count, body_len } => {
                    let start = self.pc + 1;
                    // A body past the program's end (even past `u32::MAX`)
                    // ends where the program does: the controller halts.
                    let end = start.saturating_add(body_len);
                    if count > 0 && body_len > 0 {
                        self.loops.push(LoopFrame {
                            start,
                            end,
                            remaining: count - 1,
                        });
                        self.pc = start;
                    } else {
                        // Zero-iteration loop: skip the body entirely.
                        self.pc = end;
                    }
                    continue;
                }
                other => {
                    self.pc += 1;
                    self.stats.broadcasts += 1;
                    return Issue::Broadcast(other);
                }
            }
        }
    }

    /// Issue slots ahead that are certain to broadcast a `Nop`: the
    /// iterations left in the innermost zero-overhead loop when its body
    /// is a single `Nop` and the controller sits at the loop's back-edge,
    /// cut short at the next ZORM stall.  Zero when the next slot may be
    /// anything else.
    ///
    /// This is the compute phase of a mapped firing (`loop n { nop }`),
    /// which [`SimdController::issue_nops`] retires in one call.
    #[inline]
    pub fn nop_run(&self) -> u64 {
        let Some(frame) = self.loops.last() else {
            return 0;
        };
        if self.halted
            || self.pc != frame.end
            || frame.end - frame.start != 1
            || self.program.fetch(frame.start as usize) != Some(Instruction::Nop)
        {
            return 0;
        }
        let run = u64::from(frame.remaining);
        if self.rate.stalls == 0 {
            return run;
        }
        // Slots `stalls..period` of the matcher's period are useful; the
        // next stall comes when the slot counter wraps to 0.
        if self.slot_in_period < self.rate.stalls {
            return 0;
        }
        run.min(u64::from(self.rate.period - self.slot_in_period))
    }

    /// Issue up to `count` of the slots [`SimdController::nop_run`]
    /// promises in one call, leaving exactly the state as many
    /// [`SimdController::step`] calls would, each returning
    /// `Issue::Broadcast(Instruction::Nop)`: the loop frame's count, the
    /// ZORM slot counter and the `cycles`, `broadcasts` and
    /// `loop_iterations` statistics.  Returns the slots issued, which is
    /// `count` clamped to the run.
    #[inline]
    pub fn issue_nops(&mut self, count: u64) -> u64 {
        let issued = count.min(self.nop_run());
        let Some(frame) = self.loops.last_mut() else {
            return 0;
        };
        if issued == 0 {
            return 0;
        }
        // `issued <= frame.remaining`, a u32.
        frame.remaining -= issued as u32;
        self.stats.cycles += issued;
        self.stats.broadcasts += issued;
        self.stats.loop_iterations += issued;
        if self.rate.stalls > 0 {
            // `issued <= period - slot_in_period`, so this wraps at most
            // once, to 0.
            let slot = u64::from(self.slot_in_period) + issued;
            self.slot_in_period = (slot % u64::from(self.rate.period)) as u32;
        }
        issued
    }

    /// The controller's [`BackEdge`] when it sits at the back-edge of its
    /// outermost loop with no inner loop open; `None` anywhere else.
    #[inline]
    pub fn back_edge(&self) -> Option<BackEdge> {
        match self.loops[..] {
            [frame] if !self.halted && self.pc == frame.end => Some(BackEdge {
                frame,
                condition: self.condition,
                stats: self.stats,
            }),
            _ => None,
        }
    }

    /// How many more times the iteration since `since` can repeat within
    /// `slots` issue slots, stopping short of the loop's last iteration: 0
    /// unless the controller is back at the same loop's back-edge, one
    /// iteration later, with the same condition.
    pub fn repeats(&self, since: &BackEdge, slots: u64) -> u64 {
        let Some(now) = self.back_edge() else {
            return 0;
        };
        let useful = self.useful_since(since);
        let (frame, then) = (now.frame, since.frame);
        if (frame.start, frame.end, now.condition) != (then.start, then.end, since.condition)
            || frame.remaining.checked_add(1) != Some(then.remaining)
            || useful == 0
        {
            return 0;
        }
        (self.useful_within(slots) / useful).min(u64::from(frame.remaining.saturating_sub(1)))
    }

    /// Repeat the iteration since `since` `times` more times, at most what
    /// [`SimdController::repeats`] allows: the loop counter counts down,
    /// each statistic grows by `times ×` the iteration's, but the issue
    /// slots and ZORM stalls come from the matcher's schedule, whose slot
    /// counter moves past them.  Returns those slots and stalls, or `None`,
    /// changing nothing, when a count would pass `u64::MAX`.
    pub fn repeat(&mut self, since: &BackEdge, times: u64) -> Option<(u64, u64)> {
        let useful = self.useful_since(since).checked_mul(times)?;
        let slots = self.slots_for(useful)?;
        let (now, then) = (self.stats, since.stats);
        let add = |now: u64, then: u64| (now - then).checked_mul(times)?.checked_add(now);
        let stats = ControllerStats {
            cycles: now.cycles.checked_add(slots)?,
            broadcasts: add(now.broadcasts, then.broadcasts)?,
            branch_stalls: add(now.branch_stalls, then.branch_stalls)?,
            rate_match_stalls: now.rate_match_stalls.checked_add(slots - useful)?,
            loop_iterations: add(now.loop_iterations, then.loop_iterations)?,
            branches: add(now.branches, then.branches)?,
        };
        let frame = self.loops.first_mut()?;
        frame.remaining = frame.remaining.checked_sub(u32::try_from(times).ok()?)?;
        self.stats = stats;
        if self.rate.stalls > 0 {
            let slot = u128::from(self.slot_in_period) + u128::from(slots);
            self.slot_in_period = (slot % u128::from(self.rate.period)) as u32;
        }
        Some((slots, slots - useful))
    }

    /// Issue slots since `since` that the matcher did not stall.
    fn useful_since(&self, since: &BackEdge) -> u64 {
        let (now, then) = (self.stats, since.stats);
        (now.cycles - then.cycles) - (now.rate_match_stalls - then.rate_match_stalls)
    }

    /// Useful slots among the next `slots`: ZORM stalls the first `stalls`
    /// of every `period` slots, so `(a ÷ period) × (period − stalls) + (a
    /// mod period − stalls)⁺` of the slots before slot `a` are useful.
    fn useful_within(&self, slots: u64) -> u64 {
        let (period, stalls) = (u128::from(self.rate.period), u128::from(self.rate.stalls));
        if stalls == 0 {
            return slots;
        }
        if stalls >= period {
            return 0;
        }
        let before = |a: u128| a / period * (period - stalls) + (a % period).saturating_sub(stalls);
        let at = u128::from(self.slot_in_period);
        (before(at + u128::from(slots)) - before(at)) as u64
    }

    /// Slots, stalls included, up to the end of the `useful`-th useful one
    /// from here (`None` past `u64::MAX`): the `n`-th useful slot
    /// (1-indexed) is `(n−1) ÷ (period − stalls) × period + stalls + (n−1)
    /// mod (period − stalls)`.
    fn slots_for(&self, useful: u64) -> Option<u64> {
        let (period, stalls) = (u128::from(self.rate.period), u128::from(self.rate.stalls));
        if stalls == 0 || useful == 0 {
            return Some(useful);
        }
        let useful_period = period.checked_sub(stalls).filter(|&u| u > 0)?;
        let at = u128::from(self.slot_in_period);
        let n = at.saturating_sub(stalls) + u128::from(useful) - 1;
        let end = n / useful_period * period + stalls + n % useful_period + 1;
        u64::try_from(end - at).ok()
    }

    /// Run until the program halts or `max_cycles` elapse, returning every
    /// issued slot.  Intended for tests and small kernels.
    pub fn run(&mut self, max_cycles: u64) -> Vec<Issue> {
        let mut out = Vec::new();
        for _ in 0..max_cycles {
            let issue = self.step();
            if issue == Issue::Halted {
                break;
            }
            out.push(issue);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use synchro_isa::{assemble, AluOp, DataReg, ProgramBuilder};

    fn broadcasts(issues: &[Issue]) -> Vec<Instruction> {
        issues
            .iter()
            .filter_map(|i| match i {
                Issue::Broadcast(inst) => Some(*inst),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn straight_line_program_is_broadcast_in_order() {
        let p = assemble("li r0, 1\nadd r1, r0, r0\nhalt\n").unwrap();
        let mut c = SimdController::new(p);
        let issues = c.run(10);
        let b = broadcasts(&issues);
        assert_eq!(b.len(), 2);
        assert_eq!(
            b[0],
            Instruction::LoadImm {
                dst: DataReg::new(0),
                imm: 1
            }
        );
        assert!(matches!(b[1], Instruction::Alu { op: AluOp::Add, .. }));
        assert!(c.is_halted());
    }

    #[test]
    fn zero_overhead_loop_has_no_stall_cycles() {
        // A 4-iteration loop over 2 instructions must take exactly 8 issue
        // cycles — the loop bookkeeping is free (Section 2.2).
        let p = assemble("loop 4, 2\nli r0, 1\nadd r1, r1, r0\nhalt\n").unwrap();
        let mut c = SimdController::new(p);
        let issues = c.run(100);
        assert_eq!(issues.len(), 8);
        assert!(issues.iter().all(|i| matches!(i, Issue::Broadcast(_))));
        assert_eq!(c.stats().broadcasts, 8);
        assert_eq!(c.stats().branch_stalls, 0);
    }

    #[test]
    fn loop_body_past_u32_max_ends_at_the_program_end() {
        // A body of `u32::MAX` instructions runs past the program's end,
        // and its end past `u32::MAX`: the controller halts at the end of
        // the program, as for any body that runs past it.
        let program = |count| {
            Program::new(vec![
                Instruction::Nop,
                Instruction::LoopBegin {
                    count,
                    body_len: u32::MAX,
                },
                Instruction::Nop,
            ])
        };
        let nop = Issue::Broadcast(Instruction::Nop);
        let mut looped = SimdController::new(program(2));
        assert_eq!(
            [looped.step(), looped.step(), looped.step()],
            [nop, nop, Issue::Halted]
        );
        // A zero-iteration loop skips its body, to the same end.
        let mut skipped = SimdController::new(program(0));
        assert_eq!([skipped.step(), skipped.step()], [nop, Issue::Halted]);
    }

    #[test]
    fn zero_iteration_loop_skips_its_body() {
        let p = assemble("loop 0, 2\nli r0, 1\nli r0, 2\nli r1, 3\nhalt\n").unwrap();
        let mut c = SimdController::new(p);
        let b = broadcasts(&c.run(10));
        assert_eq!(
            b,
            vec![Instruction::LoadImm {
                dst: DataReg::new(1),
                imm: 3
            }]
        );
    }

    #[test]
    fn nested_loops_multiply_iteration_counts() {
        // outer 3 × inner 2 over one instruction = 6 broadcasts of the body
        // plus one outer-body instruction per outer iteration.
        let src = "
            loop 3, 4
            li r0, 1
            loop 2, 1
            add r1, r1, r0
            sub r2, r2, r0
            halt
        ";
        let p = assemble(src).unwrap();
        let mut c = SimdController::new(p);
        let b = broadcasts(&c.run(100));
        let adds = b
            .iter()
            .filter(|i| matches!(i, Instruction::Alu { op: AluOp::Add, .. }))
            .count();
        let subs = b
            .iter()
            .filter(|i| matches!(i, Instruction::Alu { op: AluOp::Sub, .. }))
            .count();
        assert_eq!(adds, 6, "inner body runs 3×2 times");
        assert_eq!(subs, 3, "outer tail runs 3 times");
    }

    #[test]
    fn conditional_branch_costs_exactly_one_stall() {
        let src = "
            li r0, 0
            brz skip
            li r1, 99
        skip:
            li r2, 7
            halt
        ";
        let p = assemble(src).unwrap();
        let mut c = SimdController::new(p);
        // Condition register is 0, so `brz` is taken and r1 is never set.
        let issues = c.run(20);
        let stalls = issues
            .iter()
            .filter(|i| matches!(i, Issue::Stall(StallReason::Branch)))
            .count();
        assert_eq!(stalls, 1);
        let b = broadcasts(&issues);
        assert_eq!(b.len(), 2);
        assert!(matches!(b[1], Instruction::LoadImm { imm: 7, .. }));
        assert_eq!(c.stats().branches, 1);
    }

    #[test]
    fn branch_respects_condition_register() {
        let src = "
            brnz taken
            li r1, 1
            halt
        taken:
            li r2, 2
            halt
        ";
        let p = assemble(src).unwrap();
        let mut not_taken = SimdController::new(p.clone());
        not_taken.set_condition(0);
        let b = broadcasts(&not_taken.run(10));
        assert!(matches!(b[0], Instruction::LoadImm { imm: 1, .. }));

        let mut taken = SimdController::new(p);
        taken.set_condition(5);
        let b = broadcasts(&taken.run(10));
        assert!(matches!(b[0], Instruction::LoadImm { imm: 2, .. }));
    }

    #[test]
    fn unconditional_jump_is_free() {
        let src = "
            jmp over
            li r0, 1
        over:
            li r1, 2
            halt
        ";
        let p = assemble(src).unwrap();
        let mut c = SimdController::new(p);
        let issues = c.run(10);
        assert_eq!(issues.len(), 1, "jump consumes no issue slot");
    }

    #[test]
    fn rate_matcher_injects_exact_nop_fraction() {
        // Throttle a column to 3/4 of its clock: 1 stall per 4 slots.
        let rate = RateMatcher::for_rates(200.0, 150.0).unwrap();
        assert_eq!(rate.period, 4);
        assert_eq!(rate.stalls, 1);
        assert!((rate.stall_fraction() - 0.25).abs() < 1e-12);

        let p = assemble("loop 30, 1\nli r0, 1\nhalt\n").unwrap();
        let mut c = SimdController::new(p);
        c.set_rate_matcher(rate);
        let issues = c.run(1000);
        let stalls = issues
            .iter()
            .filter(|i| matches!(i, Issue::Stall(StallReason::RateMatch)))
            .count();
        let work = broadcasts(&issues).len();
        assert_eq!(work, 30);
        // 30 useful slots at 3 useful per 4 issued => 10 stalls, plus at
        // most one trailing stall before the HALT is discovered.
        assert!(stalls == 10 || stalls == 11, "stalls = {stalls}");
    }

    #[test]
    fn rate_matcher_is_none_when_no_throttle_needed() {
        assert!(RateMatcher::for_rates(100.0, 100.0).is_none());
        assert!(RateMatcher::for_rates(100.0, 150.0).is_none());
        assert!(RateMatcher::for_rates(0.0, 10.0).is_none());
    }

    #[test]
    fn rate_matcher_handles_awkward_ratios() {
        // 64 MS/s stream on a 120 MHz column needing 7 of every 15 cycles:
        // any ratio must yield a stall fraction within one slot in 1024.
        let r = RateMatcher::for_rates(120.0, 113.0).unwrap();
        let want = 1.0 - 113.0 / 120.0;
        assert!((r.stall_fraction() - want).abs() < 1.0 / 1024.0 + 1e-9);
    }

    #[test]
    fn zero_period_matcher_saturates_instead_of_dividing_by_zero() {
        // A hand-built period of 0 is normalised to 1: every slot stalls.
        let p = assemble("li r0, 1\nhalt\n").unwrap();
        let mut c = SimdController::new(p);
        c.set_rate_matcher(RateMatcher {
            period: 0,
            stalls: 1,
        });
        let issues = c.run(10);
        assert_eq!(issues, vec![Issue::Stall(StallReason::RateMatch); 10]);
        assert!(!c.is_halted());

        // Without stalls a zero period throttles nothing.
        let mut c = SimdController::new(assemble("li r0, 1\nhalt\n").unwrap());
        c.set_rate_matcher(RateMatcher {
            period: 0,
            stalls: 0,
        });
        assert_eq!(broadcasts(&c.run(10)).len(), 1);
        assert!(c.is_halted());
    }

    #[test]
    fn halted_controller_stays_halted() {
        let p = assemble("halt\n").unwrap();
        let mut c = SimdController::new(p);
        assert_eq!(c.step(), Issue::Halted);
        assert_eq!(c.step(), Issue::Halted);
        assert!(c.is_halted());
    }

    #[test]
    fn running_off_the_end_halts() {
        let p = assemble("nop\n").unwrap();
        let mut c = SimdController::new(p);
        assert!(matches!(c.step(), Issue::Broadcast(Instruction::Nop)));
        assert_eq!(c.step(), Issue::Halted);
    }

    #[test]
    fn nop_loop_is_issued_in_one_call() {
        // li; loop 5 { nop }; halt.  The first NOP pushes the loop frame;
        // the other four are promised by `nop_run` and issued at once.
        let p = assemble("li r0, 1\nloop 5, 1\nnop\nhalt\n").unwrap();
        let mut c = SimdController::new(p);
        assert_eq!(c.nop_run(), 0, "the next slot is the li");
        c.step();
        assert_eq!(c.nop_run(), 0, "the loop frame is pushed by the next step");
        assert_eq!(c.step(), Issue::Broadcast(Instruction::Nop));
        assert_eq!(c.nop_run(), 4);
        assert_eq!(c.issue_nops(10), 4, "clamped to the run");
        assert_eq!(c.nop_run(), 0);
        assert_eq!(c.stats().broadcasts, 6);
        assert_eq!(c.stats().loop_iterations, 4);
        assert_eq!(c.step(), Issue::Halted);
        assert_eq!(c.stats().loop_iterations, 5, "the exit pops the frame");
    }

    #[test]
    fn nop_run_stops_at_the_next_rate_match_stall() {
        // (period 4, stalls 1): slot 0 of every period stalls, so from
        // slot 1 at most three NOPs follow before the next stall.
        let p = assemble("loop 20, 1\nnop\nhalt\n").unwrap();
        let mut c = SimdController::new(p);
        c.set_rate_matcher(RateMatcher {
            period: 4,
            stalls: 1,
        });
        assert_eq!(c.step(), Issue::Stall(StallReason::RateMatch));
        assert_eq!(c.step(), Issue::Broadcast(Instruction::Nop));
        assert_eq!(c.nop_run(), 2);
        assert_eq!(c.issue_nops(2), 2);
        assert_eq!(c.nop_run(), 0, "slot 0 of the next period stalls");
        assert_eq!(c.step(), Issue::Stall(StallReason::RateMatch));
        assert_eq!(c.nop_run(), 3);
    }

    /// A program drawn from `script`, one item per word: `nop`, `li`, a
    /// counted loop over one `nop` (0–39 iterations), a nested counted
    /// loop (0–3 iterations, up to three deep) whose body the following
    /// words fill until a closing word, a conditional branch to any of
    /// the first 48 instructions (into loop bodies too), or a forward
    /// jump.  Jumps only go forward, so no step can loop without issuing.
    fn random_program(script: &[u32]) -> Program {
        fn items(b: &mut ProgramBuilder, script: &mut std::slice::Iter<'_, u32>, depth: u32) {
            while let Some(&word) = script.next() {
                let arg = word >> 3;
                match word % 8 {
                    0 => {
                        b.nop();
                    }
                    1 => {
                        b.load_imm(DataReg::new(0), arg as i32);
                    }
                    2 | 3 => {
                        b.counted_loop(arg % 40, |b| {
                            b.nop();
                        });
                    }
                    4 if depth < 3 => {
                        b.counted_loop(arg % 4, |b| items(b, script, depth + 1));
                    }
                    5 => {
                        let cond = if arg & 1 == 0 {
                            CondCode::Zero
                        } else {
                            CondCode::NotZero
                        };
                        b.push(Instruction::Branch {
                            cond,
                            target: (arg >> 1) % 48,
                        });
                    }
                    6 => {
                        let here = b.len() as u32;
                        b.push(Instruction::Jump {
                            target: here + 1 + arg % 4,
                        });
                    }
                    7 if depth > 0 => return,
                    _ => {}
                }
            }
        }
        let mut b = ProgramBuilder::new();
        items(&mut b, &mut script.iter(), 0);
        b.halt();
        b.build().unwrap()
    }

    proptest! {
        /// Wherever a random program's controller stands (in any loop,
        /// after branches, with ZORM on or off, halted), issuing
        /// `k <= nop_run()` NOPs in one call leaves the whole controller
        /// equal to `k` `step` calls, each of which broadcasts a `Nop`;
        /// asking for more is clamped to the run, and with no run ahead
        /// nothing changes.
        #[test]
        fn issued_nops_match_single_steps(
            script in prop::collection::vec(any::<u32>(), 1..40),
            zorm in any::<bool>(),
            period in 1u32..9,
            stalls in 0u32..10,
            draws in prop::collection::vec(any::<u64>(), 1..16),
        ) {
            let mut c = SimdController::new(random_program(&script));
            if zorm {
                c.set_rate_matcher(RateMatcher { period, stalls: stalls.min(period) });
            }
            let mut draws = draws.iter().cycle();
            for _ in 0..400 {
                let run = c.nop_run();
                let draw = *draws.next().unwrap();
                if run == 0 {
                    let before = c.clone();
                    prop_assert_eq!(c.issue_nops(1 + draw % 4), 0);
                    prop_assert_eq!(&c, &before);
                    c.step();
                    c.set_condition((draw >> 8) as i32 % 2);
                    continue;
                }
                // Three draws in four stay within the run; the fourth
                // asks for more than it.
                let asked = if draw % 4 == 3 { run + draw % 7 } else { 1 + (draw >> 2) % run };
                let k = asked.min(run);
                let mut stepped = c.clone();
                for _ in 0..k {
                    prop_assert_eq!(stepped.step(), Issue::Broadcast(Instruction::Nop));
                }
                prop_assert_eq!(c.issue_nops(asked), k);
                prop_assert_eq!(&c, &stepped);
            }
        }
    }
}
