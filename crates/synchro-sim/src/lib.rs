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
pub mod fast;
pub mod fault;
pub mod program;

pub use board::{Board, BridgeProgram, BridgeTransfer};
pub use chip::{BusProgram, BusSlot, Chip, ChipStats};
pub use column::{Column, ColumnConfig, ColumnError, ColumnStats};
pub use fast::{ColumnBatch, FastTier, FastTierError, FiringProfile};
pub use fault::{FaultEvent, FaultPlan, FaultTarget, SimFault};
pub use program::{Slot, SlotProgram};
