//! Deterministic runtime fault injection.
//!
//! A [`FaultPlan`] is a list of hardware-loss events pinned to reference
//! ticks: at tick N a column dies (it stops executing and billing cycles
//! but never reports halted — the paper's static schedules have no
//! recovery path, so the rest of the chip starves) or a bridge lane dies
//! (slots scheduled on it from that tick on are dropped undelivered).
//! Both execution tiers consume the same plan with the same firing rule —
//! an event fires iff the machine has not fully halted when its tick is
//! reached — so a faulted run stays bit-identical across tiers up to the
//! injection point and agrees on the structured [`SimFault`] outcome.

use std::error::Error;
use std::fmt;

/// The hardware resource a [`FaultEvent`] kills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// A whole SIMD column: from the event tick on it executes nothing
    /// and bills no cycles, but never halts.
    Column {
        /// Board chip index.
        chip: usize,
        /// Column index within the chip.
        column: usize,
    },
    /// A chip-to-chip bridge lane: slots scheduled on it at or after the
    /// event tick are dropped undelivered.
    BridgeLane {
        /// Bridge lane index (the board spec's lane order).
        lane: usize,
    },
}

/// One scheduled hardware loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Reference tick the fault fires at (if the machine is still live).
    pub at_tick: u64,
    /// What dies.
    pub target: FaultTarget,
}

/// A deterministic injection schedule: fault events sorted by tick.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan — running with it is exactly the un-faulted run.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Schedule a column kill at reference tick `at_tick`.
    pub fn kill_column(&mut self, chip: usize, column: usize, at_tick: u64) -> &mut Self {
        self.push(FaultEvent {
            at_tick,
            target: FaultTarget::Column { chip, column },
        });
        self
    }

    /// Schedule a bridge-lane kill at reference tick `at_tick`.
    pub fn kill_lane(&mut self, lane: usize, at_tick: u64) -> &mut Self {
        self.push(FaultEvent {
            at_tick,
            target: FaultTarget::BridgeLane { lane },
        });
        self
    }

    fn push(&mut self, event: FaultEvent) {
        let at = self.events.partition_point(|e| e.at_tick <= event.at_tick);
        self.events.insert(at, event);
    }

    /// True when no event is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled events, sorted by tick.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}

/// The structured outcome of a run that could not complete because of
/// injected (or modelled) hardware loss — returned instead of wedging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimFault {
    /// The starvation watchdog saw zero column, bus, and bridge progress
    /// across a full observation window while columns were still live.
    Stalled {
        /// Reference tick the run was abandoned at.
        reference_cycles: u64,
        /// Watchdog window (reference ticks) that observed no progress.
        window: u64,
    },
}

impl fmt::Display for SimFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimFault::Stalled {
                reference_cycles,
                window,
            } => write!(
                f,
                "simulation stalled at reference tick {reference_cycles}: no progress \
                 across a {window}-tick watchdog window"
            ),
        }
    }
}

impl Error for SimFault {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_sort_events_by_tick_and_keep_insertion_order_on_ties() {
        let mut plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert!(plan.events().is_empty());
        plan.kill_lane(1, 500)
            .kill_column(0, 2, 100)
            .kill_column(1, 0, 500);
        assert!(!plan.is_empty());
        assert_eq!(plan.events()[0].at_tick, 100);
        let ticks: Vec<u64> = plan.events().iter().map(|e| e.at_tick).collect();
        assert_eq!(ticks, vec![100, 500, 500]);
        // Ties keep insertion order: the lane kill was scheduled first.
        assert_eq!(plan.events()[1].target, FaultTarget::BridgeLane { lane: 1 });
    }

    #[test]
    fn sim_fault_display_names_the_stall_point() {
        let fault = SimFault::Stalled {
            reference_cycles: 1440,
            window: 720,
        };
        let text = fault.to_string();
        assert!(text.contains("1440") && text.contains("720"), "{text}");
    }
}
