//! Cycle-accurate model of one Synchroscalar processor tile.
//!
//! A tile contains the Blackfin-like datapath of Section 4.2: eight 32-bit
//! data registers (with `R7` designated as the communication register), two
//! 40-bit accumulators fed by the MAC unit, six pointer registers, a 32 KB
//! word-addressed local data SRAM, and the read/write bus buffers through
//! which the column's DOU moves data.  All control flow lives in the SIMD
//! controller (crate `synchro-simd`); a tile only ever executes the compute
//! instruction broadcast to it each cycle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datapath;
pub mod memory;

pub use datapath::{ExecError, Tile, TileEvent, TileMark, TileStats};
pub use memory::LocalMemory;
