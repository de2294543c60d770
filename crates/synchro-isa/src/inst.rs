//! Instruction and register definitions.

use std::fmt;

/// One of the eight 32-bit data registers.  `R7` is the designated
/// communication register whose value the DOU places onto the column bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DataReg(u8);

impl DataReg {
    /// The communication register (`R7`).
    pub const COMM: DataReg = DataReg(7);

    /// Construct register `Rn`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 7`.
    pub fn new(n: u8) -> Self {
        assert!(n < 8, "data register index {n} out of range (0..8)");
        DataReg(n)
    }

    /// The register index (0–7).
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// All eight data registers in order.
    pub fn all() -> [DataReg; 8] {
        [
            DataReg(0),
            DataReg(1),
            DataReg(2),
            DataReg(3),
            DataReg(4),
            DataReg(5),
            DataReg(6),
            DataReg(7),
        ]
    }
}

impl fmt::Display for DataReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// One of six pointer registers used for SRAM addressing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PtrReg(u8);

impl PtrReg {
    /// Construct pointer register `Pn`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 5`.
    pub fn new(n: u8) -> Self {
        assert!(n < 6, "pointer register index {n} out of range (0..6)");
        PtrReg(n)
    }

    /// The register index (0–5).
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Display for PtrReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Two-operand ALU / MAC operations executed by a tile in one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// `dst = a + b` (wrapping 32-bit).
    Add,
    /// `dst = a - b` (wrapping 32-bit).
    Sub,
    /// `dst = a * b` (low 32 bits of the 16×16→32 / 32×32 product).
    Mul,
    /// `dst = a & b`.
    And,
    /// `dst = a | b`.
    Or,
    /// `dst = a ^ b`.
    Xor,
    /// `dst = a << (b & 31)` (logical).
    Shl,
    /// `dst = a >> (b & 31)` (logical).
    Shr,
    /// `dst = a >> (b & 31)` (arithmetic).
    Asr,
    /// `dst = min(a, b)` (signed).
    Min,
    /// `dst = max(a, b)` (signed).
    Max,
    /// `dst = |a|` (b ignored).
    Abs,
    /// Set `dst` to 1 if `a == b`, else 0.
    CmpEq,
    /// Set `dst` to 1 if `a < b` (signed), else 0.
    CmpLt,
}

/// Condition codes for SIMD-controller branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CondCode {
    /// Branch if the controller's condition register is zero.
    Zero,
    /// Branch if the controller's condition register is non-zero.
    NotZero,
}

/// A Synchroscalar instruction.
///
/// Compute instructions are broadcast by the SIMD controller to every
/// enabled tile in a column; control instructions (`Loop*`, `Branch`,
/// `Jump`, `Halt`) are consumed by the controller itself and never reach
/// the tiles (Section 2.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// No operation (also what ZORM rate-matching injects).
    Nop,
    /// `dst = op(a, b)`.
    Alu {
        /// Operation to perform.
        op: AluOp,
        /// Destination register.
        dst: DataReg,
        /// First source register.
        a: DataReg,
        /// Second source register.
        b: DataReg,
    },
    /// `dst = imm` (sign-extended 32-bit immediate).
    LoadImm {
        /// Destination register.
        dst: DataReg,
        /// Immediate value.
        imm: i32,
    },
    /// Multiply-accumulate into an accumulator: `acc += a * b`.
    Mac {
        /// Accumulator index (0 or 1).
        acc: u8,
        /// First source register.
        a: DataReg,
        /// Second source register.
        b: DataReg,
    },
    /// Clear an accumulator.
    ClearAcc {
        /// Accumulator index (0 or 1).
        acc: u8,
    },
    /// Move the (saturated) low 32 bits of an accumulator into a register.
    MoveAcc {
        /// Destination register.
        dst: DataReg,
        /// Accumulator index (0 or 1).
        acc: u8,
    },
    /// Load `dst` from local SRAM at `[ptr + offset]` (word addressed).
    Load {
        /// Destination register.
        dst: DataReg,
        /// Base pointer register.
        ptr: PtrReg,
        /// Word offset.
        offset: i32,
    },
    /// Store `src` to local SRAM at `[ptr + offset]` (word addressed).
    Store {
        /// Source register.
        src: DataReg,
        /// Base pointer register.
        ptr: PtrReg,
        /// Word offset.
        offset: i32,
    },
    /// Set a pointer register to an absolute word address.
    SetPtr {
        /// Pointer register to set.
        ptr: PtrReg,
        /// Absolute word address.
        addr: u32,
    },
    /// Add a (possibly negative) word offset to a pointer register.  The
    /// sum saturates to `0..=u32::MAX` rather than wrapping, so a pointer
    /// pushed past either end stays out of range for every later access
    /// (at the top, the next load or store is a memory fault).
    AddPtr {
        /// Pointer register to modify.
        ptr: PtrReg,
        /// Signed word offset.
        offset: i32,
    },
    /// Copy `R7` into the tile's bus *write buffer* (the producer half of
    /// DOU-orchestrated communication).
    CommSend,
    /// Copy the tile's bus *read buffer* into `dst` (the consumer half).
    CommRecv {
        /// Destination register.
        dst: DataReg,
    },
    /// Copy the controller's condition register from a tile register
    /// (tile 0 of the column drives data-dependent control decisions).
    SetCond {
        /// Source register whose value becomes the condition register.
        src: DataReg,
    },
    /// Zero-overhead loop: repeat the next `body_len` instructions `count`
    /// times.  Executed entirely in the SIMD controller's sequencer.
    LoopBegin {
        /// Number of iterations.
        count: u32,
        /// Number of instructions in the loop body.
        body_len: u32,
    },
    /// Unconditional jump to an absolute instruction index.
    Jump {
        /// Target instruction index.
        target: u32,
    },
    /// Conditional branch to an absolute instruction index.  Costs one stall
    /// cycle in the column (Section 2.2).
    Branch {
        /// Condition under which the branch is taken.
        cond: CondCode,
        /// Target instruction index.
        target: u32,
    },
    /// Stop the column.
    Halt,
}

impl Instruction {
    /// True if the instruction is consumed by the SIMD controller and never
    /// broadcast to the tiles.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Instruction::LoopBegin { .. }
                | Instruction::Jump { .. }
                | Instruction::Branch { .. }
                | Instruction::Halt
        )
    }

    /// True if the instruction is a conditional branch (incurring the
    /// single-cycle stall the paper describes).
    pub fn is_conditional_branch(&self) -> bool {
        matches!(self, Instruction::Branch { .. })
    }

    /// True if the instruction touches the communication buffers.
    pub fn is_communication(&self) -> bool {
        matches!(self, Instruction::CommSend | Instruction::CommRecv { .. })
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instruction::Nop => write!(f, "nop"),
            Instruction::Alu { op, dst, a, b } => write!(f, "{op:?} {dst}, {a}, {b}"),
            Instruction::LoadImm { dst, imm } => write!(f, "li {dst}, {imm}"),
            Instruction::Mac { acc, a, b } => write!(f, "mac a{acc}, {a}, {b}"),
            Instruction::ClearAcc { acc } => write!(f, "clracc a{acc}"),
            Instruction::MoveAcc { dst, acc } => write!(f, "movacc {dst}, a{acc}"),
            Instruction::Load { dst, ptr, offset } => write!(f, "ld {dst}, [{ptr}+{offset}]"),
            Instruction::Store { src, ptr, offset } => write!(f, "st {src}, [{ptr}+{offset}]"),
            Instruction::SetPtr { ptr, addr } => write!(f, "setp {ptr}, {addr}"),
            Instruction::AddPtr { ptr, offset } => write!(f, "addp {ptr}, {offset}"),
            Instruction::CommSend => write!(f, "send"),
            Instruction::CommRecv { dst } => write!(f, "recv {dst}"),
            Instruction::SetCond { src } => write!(f, "setcond {src}"),
            Instruction::LoopBegin { count, body_len } => write!(f, "loop {count}, {body_len}"),
            Instruction::Jump { target } => write!(f, "jmp {target}"),
            Instruction::Branch { cond, target } => write!(f, "br {cond:?}, {target}"),
            Instruction::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_register_bounds() {
        assert_eq!(DataReg::new(0).index(), 0);
        assert_eq!(DataReg::new(7).index(), 7);
        assert_eq!(DataReg::COMM, DataReg::new(7));
        assert_eq!(DataReg::all().len(), 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn data_register_out_of_range_panics() {
        let _ = DataReg::new(8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pointer_register_out_of_range_panics() {
        let _ = PtrReg::new(6);
    }

    #[test]
    fn control_classification() {
        assert!(Instruction::Halt.is_control());
        assert!(Instruction::Jump { target: 0 }.is_control());
        assert!(Instruction::LoopBegin {
            count: 4,
            body_len: 2
        }
        .is_control());
        assert!(!Instruction::Nop.is_control());
        assert!(!Instruction::CommSend.is_control());
    }

    #[test]
    fn branch_classification() {
        let b = Instruction::Branch {
            cond: CondCode::Zero,
            target: 3,
        };
        assert!(b.is_conditional_branch());
        assert!(!Instruction::Jump { target: 3 }.is_conditional_branch());
    }

    #[test]
    fn communication_classification() {
        assert!(Instruction::CommSend.is_communication());
        assert!(Instruction::CommRecv {
            dst: DataReg::new(0)
        }
        .is_communication());
        assert!(!Instruction::Nop.is_communication());
    }

    #[test]
    fn display_is_readable() {
        let i = Instruction::Alu {
            op: AluOp::Add,
            dst: DataReg::new(0),
            a: DataReg::new(1),
            b: DataReg::new(2),
        };
        assert_eq!(i.to_string(), "Add r0, r1, r2");
        assert_eq!(Instruction::Nop.to_string(), "nop");
    }
}
