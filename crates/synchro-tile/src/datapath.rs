//! The tile datapath: registers, accumulators and single-cycle execution.

use crate::memory::{LocalMemory, MemoryFault};
use std::error::Error;
use std::fmt;
use synchro_isa::{AluOp, DataReg, Instruction, PtrReg};

/// Events a tile reports back to its column after executing one instruction.
/// The SIMD controller and DOU use these to drive condition codes and bus
/// traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileEvent {
    /// Nothing of interest happened.
    None,
    /// The tile copied `R7` into its bus write buffer (`CommSend`).
    Sent(i32),
    /// The tile asked for its bus read buffer (`CommRecv`); the value it
    /// consumed is carried for tracing.
    Received(i32),
    /// The tile requested that its value become the column condition
    /// register (`SetCond`).
    Condition(i32),
}

/// Errors produced by tile execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A control instruction reached the datapath; the SIMD controller
    /// should have consumed it.
    ControlReachedTile(Instruction),
    /// A local memory access faulted.
    Memory(MemoryFault),
    /// An accumulator index other than 0/1 was used.
    BadAccumulator(u8),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::ControlReachedTile(i) => {
                write!(f, "control instruction `{i}` must not reach a tile")
            }
            ExecError::Memory(m) => write!(f, "local memory fault: {m}"),
            ExecError::BadAccumulator(a) => write!(f, "accumulator index {a} out of range"),
        }
    }
}

impl Error for ExecError {}

impl From<MemoryFault> for ExecError {
    fn from(value: MemoryFault) -> Self {
        ExecError::Memory(value)
    }
}

/// Per-tile execution statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TileStats {
    /// Instructions executed (including NOPs broadcast to the tile).
    pub instructions: u64,
    /// NOPs among them (idle or rate-matching cycles).
    pub nops: u64,
    /// Multiply-accumulate operations.
    pub macs: u64,
    /// Local memory accesses (loads + stores).
    pub memory_ops: u64,
    /// Communication operations (sends + receives).
    pub comm_ops: u64,
}

/// A tile's datapath state and statistics, without its memory: what a
/// firing jump compares and repeats from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileMark {
    regs: [i32; 8],
    ptrs: [u32; 6],
    accs: [i64; 2],
    buffers: [Option<i32>; 2],
    stats: TileStats,
}

/// One Synchroscalar tile.
#[derive(Debug, Clone, PartialEq)]
pub struct Tile {
    regs: [i32; 8],
    ptrs: [u32; 6],
    accs: [i64; 2],
    memory: LocalMemory,
    write_buffer: Option<i32>,
    read_buffer: Option<i32>,
    enabled: bool,
    stats: TileStats,
}

impl Tile {
    /// A new tile with the default 32 KB local memory, enabled.  The
    /// memory reads as zeros and allocates its backing store on the
    /// tile's first store (see [`LocalMemory`]).
    pub fn new() -> Self {
        Tile {
            regs: [0; 8],
            ptrs: [0; 6],
            accs: [0; 2],
            memory: LocalMemory::new(),
            write_buffer: None,
            read_buffer: None,
            enabled: true,
            stats: TileStats::default(),
        }
    }

    /// Enable or disable the tile.  Disabled (idle) tiles are supply gated:
    /// they execute nothing and consume no energy (Section 2.2).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Is the tile enabled?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Read a data register.
    pub fn reg(&self, r: DataReg) -> i32 {
        self.regs[r.index()]
    }

    /// Write a data register.
    pub fn set_reg(&mut self, r: DataReg, value: i32) {
        self.regs[r.index()] = value;
    }

    /// Read a pointer register.
    pub fn ptr(&self, p: PtrReg) -> u32 {
        self.ptrs[p.index()]
    }

    /// Read an accumulator (full 64-bit internal precision, modelling the
    /// 40-bit hardware with headroom).
    pub fn acc(&self, index: u8) -> i64 {
        self.accs[usize::from(index.min(1))]
    }

    /// Mutable access to the tile-local memory (used to stage kernel data).
    pub fn memory_mut(&mut self) -> &mut LocalMemory {
        &mut self.memory
    }

    /// Shared access to the tile-local memory.
    pub fn memory(&self) -> &LocalMemory {
        &self.memory
    }

    /// Execution statistics accumulated so far.
    pub fn stats(&self) -> TileStats {
        self.stats
    }

    /// The tile's [`TileMark`] now.
    pub fn mark(&self) -> TileMark {
        TileMark {
            regs: self.regs,
            ptrs: self.ptrs,
            accs: self.accs,
            buffers: [self.write_buffer, self.read_buffer],
            stats: self.stats,
        }
    }

    /// True when the registers, pointers, accumulators and bus buffers are
    /// back where `mark` left them and the activity since touched no
    /// memory, so repeating it ends in this state again.
    pub fn repeats(&self, mark: &TileMark) -> bool {
        let same = TileMark {
            stats: mark.stats,
            ..self.mark()
        } == *mark;
        same && self.stats.memory_ops == mark.stats.memory_ops
    }

    /// Bill `times` more repetitions of the activity since `mark` (see
    /// [`Tile::repeats`]).  Returns `false`, billing nothing, when a count
    /// would pass `u64::MAX`.
    #[must_use]
    pub fn repeat(&mut self, mark: &TileMark, times: u64) -> bool {
        let (now, then) = (self.stats, mark.stats);
        let add = |now: u64, then: u64| (now - then).checked_mul(times)?.checked_add(now);
        let stats = (|| {
            Some(TileStats {
                instructions: add(now.instructions, then.instructions)?,
                nops: add(now.nops, then.nops)?,
                macs: add(now.macs, then.macs)?,
                memory_ops: add(now.memory_ops, then.memory_ops)?,
                comm_ops: add(now.comm_ops, then.comm_ops)?,
            })
        })();
        stats.map(|stats| self.stats = stats).is_some()
    }

    /// Deliver a value into the tile's bus read buffer (performed by the
    /// DOU at a statically scheduled cycle).
    pub fn deliver(&mut self, value: i32) {
        self.read_buffer = Some(value);
    }

    /// Take the value most recently placed in the write buffer, if any
    /// (performed by the DOU when it schedules this tile as a producer).
    pub fn take_outgoing(&mut self) -> Option<i32> {
        self.write_buffer.take()
    }

    /// Peek the outgoing write-buffer value without consuming it (the bus
    /// can broadcast the same producer value to several consumers).
    pub fn peek_outgoing(&self) -> Option<i32> {
        self.write_buffer
    }

    /// Execute one broadcast instruction.  Control instructions are
    /// rejected — they belong to the SIMD controller.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on control instructions reaching the tile,
    /// memory faults, or bad accumulator indices.
    pub fn execute(&mut self, inst: Instruction) -> Result<TileEvent, ExecError> {
        if !self.enabled {
            return Ok(TileEvent::None);
        }
        if inst.is_control() {
            return Err(ExecError::ControlReachedTile(inst));
        }
        self.stats.instructions += 1;
        let event = match inst {
            Instruction::Nop => {
                self.stats.nops += 1;
                TileEvent::None
            }
            Instruction::Alu { op, dst, a, b } => {
                let va = self.reg(a);
                let vb = self.reg(b);
                let result = alu(op, va, vb);
                self.set_reg(dst, result);
                TileEvent::None
            }
            Instruction::LoadImm { dst, imm } => {
                self.set_reg(dst, imm);
                TileEvent::None
            }
            Instruction::Mac { acc, a, b } => {
                if acc > 1 {
                    return Err(ExecError::BadAccumulator(acc));
                }
                self.stats.macs += 1;
                let product = i64::from(self.reg(a)) * i64::from(self.reg(b));
                self.accs[usize::from(acc)] = self.accs[usize::from(acc)].wrapping_add(product);
                TileEvent::None
            }
            Instruction::ClearAcc { acc } => {
                if acc > 1 {
                    return Err(ExecError::BadAccumulator(acc));
                }
                self.accs[usize::from(acc)] = 0;
                TileEvent::None
            }
            Instruction::MoveAcc { dst, acc } => {
                if acc > 1 {
                    return Err(ExecError::BadAccumulator(acc));
                }
                let v = self.accs[usize::from(acc)];
                let clamped = v.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32;
                self.set_reg(dst, clamped);
                TileEvent::None
            }
            Instruction::Load { dst, ptr, offset } => {
                self.stats.memory_ops += 1;
                let addr = i64::from(self.ptr(ptr)) + i64::from(offset);
                let v = self.memory.read(addr)?;
                self.set_reg(dst, v);
                TileEvent::None
            }
            Instruction::Store { src, ptr, offset } => {
                self.stats.memory_ops += 1;
                let addr = i64::from(self.ptr(ptr)) + i64::from(offset);
                let v = self.reg(src);
                self.memory.write(addr, v)?;
                TileEvent::None
            }
            Instruction::SetPtr { ptr, addr } => {
                self.ptrs[ptr.index()] = addr;
                TileEvent::None
            }
            Instruction::AddPtr { ptr, offset } => {
                let cur = i64::from(self.ptrs[ptr.index()]) + i64::from(offset);
                self.ptrs[ptr.index()] = cur.clamp(0, i64::from(u32::MAX)) as u32;
                TileEvent::None
            }
            Instruction::CommSend => {
                self.stats.comm_ops += 1;
                let v = self.reg(DataReg::COMM);
                self.write_buffer = Some(v);
                TileEvent::Sent(v)
            }
            Instruction::CommRecv { dst } => {
                self.stats.comm_ops += 1;
                let v = self.read_buffer.take().unwrap_or(0);
                self.set_reg(dst, v);
                TileEvent::Received(v)
            }
            Instruction::SetCond { src } => TileEvent::Condition(self.reg(src)),
            // Control instructions were rejected above.
            Instruction::LoopBegin { .. }
            | Instruction::Jump { .. }
            | Instruction::Branch { .. }
            | Instruction::Halt => unreachable!("control instructions rejected earlier"),
        };
        Ok(event)
    }

    /// Execute one SIMD broadcast on every tile of a column, in tile
    /// order, with the same effect as calling [`Tile::execute`] on each.
    ///
    /// The instruction is decoded once.  A `Nop`, which is almost every
    /// cycle of a counted compute loop, bills each enabled tile in one
    /// loop; every other instruction runs the per-tile
    /// [`Tile::execute`] loop.  Returns the value of tile 0's `SetCond`
    /// (`None` for any other instruction, or when tile 0 is disabled):
    /// tile 0 drives the column's data-dependent control.
    ///
    /// # Errors
    ///
    /// Returns the index and error of the first tile that fails.  The
    /// tiles before it have executed the instruction; the tiles after it
    /// are untouched.
    #[inline]
    pub fn execute_broadcast(
        tiles: &mut [Tile],
        inst: Instruction,
    ) -> Result<Option<i32>, (usize, ExecError)> {
        if matches!(inst, Instruction::Nop) {
            Self::broadcast_nops(tiles, 1);
            return Ok(None);
        }
        Self::execute_each(tiles, inst)
    }

    /// Bill `count` broadcast `Nop`s to every enabled tile of a column at
    /// once: the effect of `count` [`Tile::execute_broadcast`] calls with
    /// `Instruction::Nop`.
    #[inline]
    pub fn broadcast_nops(tiles: &mut [Tile], count: u64) {
        for tile in tiles.iter_mut() {
            // Branch-free: a disabled tile is billed nothing.
            let billed = count * u64::from(tile.enabled);
            tile.stats.instructions += billed;
            tile.stats.nops += billed;
        }
    }

    /// The per-tile loop behind [`Tile::execute_broadcast`], kept out of
    /// line so the column step inlines only the `Nop` loop.
    #[inline(never)]
    fn execute_each(
        tiles: &mut [Tile],
        inst: Instruction,
    ) -> Result<Option<i32>, (usize, ExecError)> {
        let mut condition = None;
        for (i, tile) in tiles.iter_mut().enumerate() {
            match tile.execute(inst) {
                Ok(TileEvent::Condition(v)) if i == 0 => condition = Some(v),
                Ok(_) => {}
                Err(error) => return Err((i, error)),
            }
        }
        Ok(condition)
    }
}

impl Default for Tile {
    fn default() -> Self {
        Tile::new()
    }
}

fn alu(op: AluOp, a: i32, b: i32) -> i32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => ((a as u32) << (b as u32 & 31)) as i32,
        AluOp::Shr => ((a as u32) >> (b as u32 & 31)) as i32,
        AluOp::Asr => a >> (b as u32 & 31),
        AluOp::Min => a.min(b),
        AluOp::Max => a.max(b),
        AluOp::Abs => a.wrapping_abs(),
        AluOp::CmpEq => i32::from(a == b),
        AluOp::CmpLt => i32::from(a < b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use synchro_isa::CondCode;

    fn r(n: u8) -> DataReg {
        DataReg::new(n)
    }

    #[test]
    fn alu_operations_match_semantics() {
        assert_eq!(alu(AluOp::Add, 2, 3), 5);
        assert_eq!(alu(AluOp::Sub, 2, 3), -1);
        assert_eq!(alu(AluOp::Mul, -4, 3), -12);
        assert_eq!(alu(AluOp::And, 0b1100, 0b1010), 0b1000);
        assert_eq!(alu(AluOp::Or, 0b1100, 0b1010), 0b1110);
        assert_eq!(alu(AluOp::Xor, 0b1100, 0b1010), 0b0110);
        assert_eq!(alu(AluOp::Shl, 1, 4), 16);
        assert_eq!(alu(AluOp::Shr, -1, 28), 0xF);
        assert_eq!(alu(AluOp::Asr, -16, 2), -4);
        assert_eq!(alu(AluOp::Min, -5, 3), -5);
        assert_eq!(alu(AluOp::Max, -5, 3), 3);
        assert_eq!(alu(AluOp::Abs, -5, 0), 5);
        assert_eq!(alu(AluOp::CmpEq, 7, 7), 1);
        assert_eq!(alu(AluOp::CmpLt, 3, 7), 1);
        assert_eq!(alu(AluOp::CmpLt, 7, 3), 0);
    }

    #[test]
    fn add_wraps_like_hardware() {
        assert_eq!(alu(AluOp::Add, i32::MAX, 1), i32::MIN);
    }

    #[test]
    fn load_imm_and_alu_through_execute() {
        let mut t = Tile::new();
        t.execute(Instruction::LoadImm { dst: r(0), imm: 21 })
            .unwrap();
        t.execute(Instruction::LoadImm { dst: r(1), imm: 2 })
            .unwrap();
        t.execute(Instruction::Alu {
            op: AluOp::Mul,
            dst: r(2),
            a: r(0),
            b: r(1),
        })
        .unwrap();
        assert_eq!(t.reg(r(2)), 42);
        assert_eq!(t.stats().instructions, 3);
    }

    #[test]
    fn mac_accumulates_and_saturates_on_move() {
        let mut t = Tile::new();
        t.set_reg(r(0), 1 << 20);
        t.set_reg(r(1), 1 << 20);
        for _ in 0..8 {
            t.execute(Instruction::Mac {
                acc: 0,
                a: r(0),
                b: r(1),
            })
            .unwrap();
        }
        assert_eq!(t.acc(0), 8i64 << 40);
        t.execute(Instruction::MoveAcc { dst: r(2), acc: 0 })
            .unwrap();
        assert_eq!(t.reg(r(2)), i32::MAX, "move saturates to 32 bits");
        t.execute(Instruction::ClearAcc { acc: 0 }).unwrap();
        assert_eq!(t.acc(0), 0);
        assert_eq!(t.stats().macs, 8);
    }

    #[test]
    fn bad_accumulator_is_rejected() {
        let mut t = Tile::new();
        assert!(matches!(
            t.execute(Instruction::Mac {
                acc: 2,
                a: r(0),
                b: r(1)
            }),
            Err(ExecError::BadAccumulator(2))
        ));
    }

    #[test]
    fn memory_load_store_roundtrip() {
        let mut t = Tile::new();
        t.execute(Instruction::SetPtr {
            ptr: PtrReg::new(0),
            addr: 100,
        })
        .unwrap();
        t.execute(Instruction::LoadImm { dst: r(3), imm: -7 })
            .unwrap();
        t.execute(Instruction::Store {
            src: r(3),
            ptr: PtrReg::new(0),
            offset: 5,
        })
        .unwrap();
        t.execute(Instruction::Load {
            dst: r(4),
            ptr: PtrReg::new(0),
            offset: 5,
        })
        .unwrap();
        assert_eq!(t.reg(r(4)), -7);
        assert_eq!(t.stats().memory_ops, 2);
    }

    #[test]
    fn pointer_arithmetic() {
        let mut t = Tile::new();
        t.execute(Instruction::SetPtr {
            ptr: PtrReg::new(1),
            addr: 10,
        })
        .unwrap();
        t.execute(Instruction::AddPtr {
            ptr: PtrReg::new(1),
            offset: -4,
        })
        .unwrap();
        assert_eq!(t.ptr(PtrReg::new(1)), 6);
        t.execute(Instruction::AddPtr {
            ptr: PtrReg::new(1),
            offset: -100,
        })
        .unwrap();
        assert_eq!(t.ptr(PtrReg::new(1)), 0, "pointer clamps at zero");
    }

    #[test]
    fn pointer_saturates_at_the_top_instead_of_wrapping() {
        // `setp p0, 4294967295; addp p0, 1` used to wrap p0 to 0, so the
        // store and load after it silently hit word 0.
        let mut t = Tile::new();
        let p0 = PtrReg::new(0);
        t.execute(Instruction::SetPtr {
            ptr: p0,
            addr: u32::MAX,
        })
        .unwrap();
        t.execute(Instruction::AddPtr { ptr: p0, offset: 1 })
            .unwrap();
        assert_eq!(t.ptr(p0), u32::MAX, "pointer saturates at u32::MAX");
        let fault = Err(ExecError::Memory(MemoryFault {
            address: i64::from(u32::MAX),
            size_words: LocalMemory::DEFAULT_WORDS,
        }));
        let store = Instruction::Store {
            src: r(1),
            ptr: p0,
            offset: 0,
        };
        assert_eq!(t.execute(store), fault);
        let load = Instruction::Load {
            dst: r(2),
            ptr: p0,
            offset: 0,
        };
        assert_eq!(t.execute(load), fault);
        assert_eq!(t.memory(), &LocalMemory::new(), "nothing was stored");
    }

    #[test]
    fn memory_fault_propagates() {
        let mut t = Tile::new();
        t.execute(Instruction::SetPtr {
            ptr: PtrReg::new(0),
            addr: 9000,
        })
        .unwrap();
        assert!(matches!(
            t.execute(Instruction::Load {
                dst: r(0),
                ptr: PtrReg::new(0),
                offset: 0
            }),
            Err(ExecError::Memory(_))
        ));
    }

    #[test]
    fn communication_send_and_receive() {
        let mut t = Tile::new();
        t.set_reg(DataReg::COMM, 99);
        let ev = t.execute(Instruction::CommSend).unwrap();
        assert_eq!(ev, TileEvent::Sent(99));
        assert_eq!(t.peek_outgoing(), Some(99));
        assert_eq!(t.take_outgoing(), Some(99));
        assert_eq!(t.take_outgoing(), None);

        t.deliver(123);
        let ev = t.execute(Instruction::CommRecv { dst: r(5) }).unwrap();
        assert_eq!(ev, TileEvent::Received(123));
        assert_eq!(t.reg(r(5)), 123);
        // A second receive without a delivery yields zero.
        let ev = t.execute(Instruction::CommRecv { dst: r(5) }).unwrap();
        assert_eq!(ev, TileEvent::Received(0));
        assert_eq!(t.stats().comm_ops, 3);
    }

    #[test]
    fn set_cond_reports_register_value() {
        let mut t = Tile::new();
        t.set_reg(r(2), 17);
        let ev = t.execute(Instruction::SetCond { src: r(2) }).unwrap();
        assert_eq!(ev, TileEvent::Condition(17));
    }

    #[test]
    fn control_instructions_are_rejected() {
        let mut t = Tile::new();
        assert!(matches!(
            t.execute(Instruction::Halt),
            Err(ExecError::ControlReachedTile(Instruction::Halt))
        ));
    }

    #[test]
    fn disabled_tile_is_inert() {
        let mut t = Tile::new();
        t.set_enabled(false);
        assert!(!t.is_enabled());
        let ev = t
            .execute(Instruction::LoadImm { dst: r(0), imm: 5 })
            .unwrap();
        assert_eq!(ev, TileEvent::None);
        assert_eq!(t.reg(r(0)), 0);
        assert_eq!(t.stats().instructions, 0);
    }

    #[test]
    fn nop_counts_in_stats() {
        let mut t = Tile::new();
        t.execute(Instruction::Nop).unwrap();
        t.execute(Instruction::Nop).unwrap();
        assert_eq!(t.stats().nops, 2);
        assert_eq!(t.stats().instructions, 2);
    }

    /// The oracle for [`Tile::execute_broadcast`]: the per-tile loop a
    /// column used to run, calling [`Tile::execute`] on each tile in turn.
    fn execute_tile_by_tile(
        tiles: &mut [Tile],
        inst: Instruction,
    ) -> Result<Option<i32>, (usize, ExecError)> {
        let mut condition = None;
        for (i, tile) in tiles.iter_mut().enumerate() {
            if let TileEvent::Condition(v) = tile.execute(inst).map_err(|e| (i, e))? {
                if i == 0 {
                    condition = Some(v);
                }
            }
        }
        Ok(condition)
    }

    /// splitmix64, to expand one drawn seed into a whole tile's state.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A pointer: inside or just past the test memories, anywhere, or
    /// within 16 of `u32::MAX`.
    fn pointer(raw: u64) -> u32 {
        let bits = (raw >> 2) as u32;
        match raw % 3 {
            0 => bits % 80,
            1 => bits,
            _ => u32::MAX - bits % 16,
        }
    }

    /// A word offset: small (either sign), near `i32::MAX` or `i32::MIN`,
    /// or anywhere.
    fn offset(raw: u64) -> i32 {
        let bits = (raw >> 2) as i32;
        match raw % 4 {
            0 => bits.rem_euclid(24) - 8,
            1 => i32::MAX - bits.rem_euclid(4),
            2 => i32::MIN + bits.rem_euclid(4),
            _ => bits,
        }
    }

    /// A tile whose whole state is drawn from `seed`: registers,
    /// pointers, accumulators, a 0–63-word memory holding up to three
    /// stored words, both bus buffers, the enable bit and running
    /// statistics.
    fn random_tile(seed: u64) -> Tile {
        let mut s = seed;
        let size = (next(&mut s) % 64) as usize;
        let mut memory = LocalMemory::with_words(size);
        for _ in 0..next(&mut s) % 4 {
            let raw = next(&mut s);
            if size > 0 {
                let address = (raw % size as u64) as i64;
                memory.write(address, (raw >> 32) as i32).unwrap();
            }
        }
        let flags = next(&mut s);
        let mut count = || next(&mut s) % (1 << 40);
        let stats = TileStats {
            instructions: count(),
            nops: count(),
            macs: count(),
            memory_ops: count(),
            comm_ops: count(),
        };
        Tile {
            regs: std::array::from_fn(|_| next(&mut s) as i32),
            ptrs: std::array::from_fn(|_| pointer(next(&mut s))),
            accs: std::array::from_fn(|_| next(&mut s) as i64),
            memory,
            write_buffer: (flags & 1 == 1).then_some((flags >> 32) as i32),
            read_buffer: (flags & 2 == 2).then_some((flags >> 8) as i32),
            enabled: flags & 4 == 4,
            stats,
        }
    }

    const ALU_OPS: [AluOp; 14] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::Shr,
        AluOp::Asr,
        AluOp::Min,
        AluOp::Max,
        AluOp::Abs,
        AluOp::CmpEq,
        AluOp::CmpLt,
    ];

    /// An instruction of class `class` (0–18) with operands from `raw`:
    /// every compute class, `Nop` three times as often as the others (the
    /// mapper's loops are mostly NOPs), accumulator indices 0–2 (2 is
    /// invalid), and the four control instructions the controller never
    /// broadcasts.
    fn instruction(class: u64, raw: u64) -> Instruction {
        let reg = |shift: u32| DataReg::new((raw >> shift) as u8 % 8);
        let ptr = PtrReg::new((raw >> 12) as u8 % 6);
        let acc = (raw >> 16) as u8 % 3;
        let word = (raw >> 32) as u32;
        match class {
            0..=2 => Instruction::Nop,
            3 => Instruction::Alu {
                op: ALU_OPS[(raw >> 20) as usize % ALU_OPS.len()],
                dst: reg(0),
                a: reg(4),
                b: reg(8),
            },
            4 => Instruction::LoadImm {
                dst: reg(0),
                imm: word as i32,
            },
            5 => Instruction::Mac {
                acc,
                a: reg(4),
                b: reg(8),
            },
            6 => Instruction::ClearAcc { acc },
            7 => Instruction::MoveAcc { dst: reg(0), acc },
            8 => Instruction::Load {
                dst: reg(0),
                ptr,
                offset: offset(raw >> 24),
            },
            9 => Instruction::Store {
                src: reg(4),
                ptr,
                offset: offset(raw >> 24),
            },
            10 => Instruction::SetPtr {
                ptr,
                addr: pointer(raw >> 24),
            },
            11 => Instruction::AddPtr {
                ptr,
                offset: offset(raw >> 24),
            },
            12 => Instruction::CommSend,
            13 => Instruction::CommRecv { dst: reg(0) },
            14 => Instruction::SetCond { src: reg(4) },
            15 => Instruction::LoopBegin {
                count: word,
                body_len: (raw >> 20) as u32 % 4,
            },
            16 => Instruction::Jump { target: word },
            17 => Instruction::Branch {
                cond: if raw & 1 == 0 {
                    CondCode::Zero
                } else {
                    CondCode::NotZero
                },
                target: word,
            },
            _ => Instruction::Halt,
        }
    }

    proptest! {
        /// Broadcasting to 1–16 tiles with random state and enable bits
        /// returns the same result as the per-tile `execute` loop (the
        /// failing tile and its error, or tile 0's condition) and leaves
        /// every tile equal to it: registers, pointers, accumulators,
        /// memory, buffers, enable bit and statistics.  Each case runs up
        /// to eight broadcasts and stops after the first error.
        #[test]
        fn broadcast_matches_the_per_tile_oracle(
            seeds in prop::collection::vec(any::<u64>(), 1..17),
            classes in prop::collection::vec(0u64..19, 1..9),
            raws in prop::collection::vec(any::<u64>(), 8),
        ) {
            let mut tiles: Vec<Tile> = seeds.iter().map(|&seed| random_tile(seed)).collect();
            let mut oracle = tiles.clone();
            for (&class, &raw) in classes.iter().zip(&raws) {
                let inst = instruction(class, raw);
                let got = Tile::execute_broadcast(&mut tiles, inst);
                let want = execute_tile_by_tile(&mut oracle, inst);
                prop_assert_eq!(&got, &want, "result of `{}`", inst);
                prop_assert_eq!(&tiles, &oracle, "tiles after `{}`", inst);
                if got.is_err() {
                    break;
                }
            }
        }

        /// Billing `count` NOPs at once leaves 1–16 random tiles equal to
        /// `count` per-tile `Nop` executions: disabled tiles are billed
        /// nothing.
        #[test]
        fn nop_batch_matches_single_nops(
            seeds in prop::collection::vec(any::<u64>(), 1..17),
            count in 0u64..40,
        ) {
            let mut tiles: Vec<Tile> = seeds.iter().map(|&seed| random_tile(seed)).collect();
            let mut oracle = tiles.clone();
            Tile::broadcast_nops(&mut tiles, count);
            for _ in 0..count {
                execute_tile_by_tile(&mut oracle, Instruction::Nop).unwrap();
            }
            prop_assert_eq!(&tiles, &oracle);
        }
    }
}
