//! The per-request harness: every layer call goes through [`Ctx::call`],
//! which times it, records a span when tracing, and turns an error or a
//! panic into a failed operation booked under the layer's name instead of
//! ending the run.  Correctness checks go through [`Ctx::check`].

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::stats::Recorder;

/// Marker returned when an operation of a request failed; the failure
/// itself is already booked in the [`Ctx`].
#[derive(Debug)]
pub struct Failed;

pub type Step<T> = Result<T, Failed>;

/// Per-layer counts of one pass over a workload's requests.  Every field
/// is a modelled quantity or a count the layers return, so a pass over
/// the same inputs gives the same values on every run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts {
    pub explore_calls: u64,
    pub mappings_evaluated: u64,
    pub groupings_examined: u64,
    pub states_pruned: u64,
    pub threads_used: u64,
    pub frontier_points: u64,
    pub splits_tried: u64,
    pub comm_pruned: u64,
    pub route_frame_slots: u64,
    pub route_occupied_slots: u64,
    pub route_rejects: u64,
    pub compile_calls: u64,
    pub stalls: u64,
    pub detect_ticks: u64,
    pub column_cycles: u64,
    pub firings: u64,
    pub reference_ticks: u64,
    pub bus_slots_scheduled: u64,
    pub bus_slots_occupied: u64,
    pub bridge_words: u64,
    pub analyze_events: u64,
    pub unpriced_events: u64,
    pub ring_dropped: u64,
    pub energy_gap_max: f64,
}

impl Counts {
    pub fn explored(&mut self, stats: &synchroscalar::explorer::SearchStats, frontier: usize) {
        self.explore_calls += 1;
        self.mappings_evaluated += stats.mappings_evaluated;
        self.groupings_examined += stats.groupings_examined;
        self.states_pruned += stats.states_pruned;
        self.comm_pruned += stats.groupings_comm_pruned;
        self.threads_used = self.threads_used.max(stats.threads_used as u64);
        self.frontier_points += frontier as u64;
    }

    pub fn executed(&mut self, report: &synchroscalar::mapper::ExecutionReport) {
        self.column_cycles += report.column_cycles.iter().sum::<u64>();
        self.firings += report.firing_counts.iter().sum::<u64>();
        self.reference_ticks += report.reference_ticks;
        self.bus_slots_scheduled += report.scheduled_bus_slots;
        self.bus_slots_occupied += report.occupied_bus_slots;
    }

    pub fn executed_board(&mut self, report: &synchroscalar::BoardExecutionReport) {
        for chip in &report.chips {
            self.column_cycles += chip.column_cycles.iter().sum::<u64>();
            self.firings += chip.firing_counts.iter().sum::<u64>();
            self.bus_slots_scheduled += chip.scheduled_bus_slots;
            self.bus_slots_occupied += chip.occupied_bus_slots;
        }
        self.reference_ticks += report.reference_ticks;
        self.bridge_words += report.bridge_words;
    }
}

/// What one successful request contributes to the end-to-end metrics.
#[derive(Debug, Default, Clone)]
pub struct Answer {
    /// The answer's power (explorer best, simulated average, or the
    /// recovered mapping's), mW.
    pub power_mw: f64,
    /// Achieved iteration rate over the requested one.
    pub rate_frac: f64,
    /// Simulated column cycles and host CPU time of single-chip execution.
    pub chip_cycles: u64,
    pub chip_exec_ns: u64,
    /// The same for boards.
    pub board_cycles: u64,
    pub board_exec_ns: u64,
}

impl Answer {
    /// An answer whose execution time and simulated cycles count toward
    /// the board figures when `board`, else toward the single-chip ones.
    pub fn simulated(
        power_mw: f64,
        rate_frac: f64,
        board: bool,
        cycles: u64,
        exec_ns: u64,
    ) -> Self {
        let mut answer = Answer {
            power_mw,
            rate_frac,
            ..Answer::default()
        };
        if board {
            (answer.board_cycles, answer.board_exec_ns) = (cycles, exec_ns);
        } else {
            (answer.chip_cycles, answer.chip_exec_ns) = (cycles, exec_ns);
        }
        answer
    }
}

/// Failures booked under one layer or check name.
#[derive(Debug, Default, Clone)]
pub struct Failures {
    pub count: u64,
    pub first: String,
}

/// State shared by every request of a run.
#[derive(Debug)]
pub struct Ctx {
    pub recorder: Recorder,
    pub failures: BTreeMap<&'static str, Failures>,
    pub counts: Counts,
    /// Label of the request in flight, named in failure messages.
    pub label: String,
}

impl Ctx {
    pub fn new() -> Self {
        Ctx {
            recorder: Recorder::new(),
            failures: BTreeMap::new(),
            counts: Counts::default(),
            label: String::new(),
        }
    }

    fn fail(&mut self, name: &'static str, why: String) -> Failed {
        let entry = self.failures.entry(name).or_default();
        if entry.count == 0 {
            entry.first = format!("{}: {why}", self.label);
        }
        entry.count += 1;
        Failed
    }

    /// Run one layer call: time it, record its span, and book an error or
    /// a panic as a failed operation of `layer`.  Returns the value and
    /// the call's CPU time in ns; the span holds its wall-clock interval.
    pub fn call<T, E: std::fmt::Display>(
        &mut self,
        layer: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Step<(T, u64)> {
        let start_ns = self.recorder.now_ns();
        let cpu_start = cpu_ns();
        let outcome = catch_unwind(AssertUnwindSafe(f));
        let cpu = cpu_ns() - cpu_start;
        self.recorder
            .record(layer, start_ns, self.recorder.now_ns());
        match outcome {
            Ok(Ok(value)) => Ok((value, cpu)),
            Ok(Err(error)) => Err(self.fail(layer, error.to_string())),
            Err(panic) => {
                let message = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_owned());
                Err(self.fail(layer, format!("panic: {message}")))
            }
        }
    }

    /// [`Ctx::call`] for infallible calls.
    pub fn run<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> Step<(T, u64)> {
        self.call(layer, || Ok::<T, std::convert::Infallible>(f()))
    }

    /// A correctness check on one operation's output.
    pub fn check(
        &mut self,
        name: &'static str,
        ok: bool,
        why: impl FnOnce() -> String,
    ) -> Step<()> {
        if ok {
            Ok(())
        } else {
            Err(self.fail(name, why()))
        }
    }
}

#[repr(C)]
struct Timespec {
    secs: i64,
    nanos: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, now: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used so far, every thread included, in ns.
/// Unlike wall-clock time it leaves out the time a shared host's other
/// guests steal from this one's virtual CPUs.
pub fn cpu_ns() -> u64 {
    let mut now = Timespec { secs: 0, nanos: 0 };
    // SAFETY: `now` is a valid, writable timespec for the call.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    now.secs as u64 * 1_000_000_000 + now.nanos as u64
}

/// Relative difference, 0 when both sides are 0.
pub fn relative_gap(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (a - b).abs() / a.abs().max(b.abs())
    }
}
