//! Instruction set architecture of the TVM.
//!
//! The TVM is a deterministic 32-bit register machine whose complete state —
//! instruction pointer, flags, sixteen general-purpose registers and a flat
//! byte-addressed memory — lives in a single [`StateVector`](crate::state::StateVector).
//! This mirrors the role the 32-bit x86 subset plays in the ASC paper: the
//! architecture above it (recognizer, predictors, cache, allocator) never
//! inspects instruction semantics, only state vectors, so any deterministic
//! ISA with loops, calls, pointers and flags exercises the same machinery.
//!
//! Instructions are a fixed eight bytes: `[opcode, a, b, c, imm as i32 LE]`.
//! The meaning of the `a`/`b`/`c` register fields and the immediate depends on
//! the opcode and is documented on [`Opcode`].

use std::fmt;

/// Number of general-purpose registers.
pub const NUM_REGS: usize = 16;

/// Size in bytes of one encoded instruction.
pub const INSTRUCTION_BYTES: u32 = 8;

/// Register index conventionally used as the stack pointer by the assembler
/// and the `call`/`ret`/`push`/`pop` instructions.
pub const SP: Reg = Reg(15);

/// Register index the assembler names `fp` (the frame pointer).
pub const FP: Reg = Reg(14);

/// A validated register index in `0..NUM_REGS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub(crate) u8);

impl Reg {
    /// Creates a register index, returning `None` when out of range.
    ///
    /// # Examples
    /// ```
    /// use asc_tvm::isa::Reg;
    /// assert!(Reg::new(3).is_some());
    /// assert!(Reg::new(16).is_none());
    /// ```
    pub fn new(index: u8) -> Option<Self> {
        if (index as usize) < NUM_REGS {
            Some(Reg(index))
        } else {
            None
        }
    }

    /// The raw index of this register.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Condition flags produced by `cmp`/`cmpi` and consumed by conditional jumps.
///
/// Stored in the 32-bit flags word of the state vector; only the low three
/// bits are meaningful. Keeping the comparison *outcome* (rather than x86's
/// carry/overflow algebra) in explicit bits is what lets the paper's logistic
/// regression predictor latch onto individual flag bits (§5.2, Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    /// Operands compared equal.
    pub eq: bool,
    /// First operand was less than the second as signed 32-bit integers.
    pub lt_signed: bool,
    /// First operand was less than the second as unsigned 32-bit integers.
    pub lt_unsigned: bool,
}

impl Flags {
    /// Bit mask of the equality flag in the flags word.
    pub const EQ_BIT: u32 = 1 << 0;
    /// Bit mask of the signed less-than flag in the flags word.
    pub const LTS_BIT: u32 = 1 << 1;
    /// Bit mask of the unsigned less-than flag in the flags word.
    pub const LTU_BIT: u32 = 1 << 2;

    /// Computes the flags for comparing `a` against `b`.
    pub fn compare(a: u32, b: u32) -> Self {
        Flags { eq: a == b, lt_signed: (a as i32) < (b as i32), lt_unsigned: a < b }
    }

    /// Packs the flags into the low bits of a 32-bit word.
    pub fn to_word(self) -> u32 {
        ((self.eq as u32) * Self::EQ_BIT)
            | ((self.lt_signed as u32) * Self::LTS_BIT)
            | ((self.lt_unsigned as u32) * Self::LTU_BIT)
    }

    /// Unpacks flags from a 32-bit word, ignoring reserved bits.
    pub fn from_word(word: u32) -> Self {
        Flags {
            eq: word & Self::EQ_BIT != 0,
            lt_signed: word & Self::LTS_BIT != 0,
            lt_unsigned: word & Self::LTU_BIT != 0,
        }
    }
}

macro_rules! opcodes {
    ($(#[$enum_meta:meta])* $vis:vis enum $name:ident { $($(#[$meta:meta])* $variant:ident = $value:expr, $mnemonic:expr;)* }) => {
        $(#[$enum_meta])*
        $vis enum $name {
            $($(#[$meta])* $variant = $value,)*
        }

        impl $name {
            /// All opcodes in encoding order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)*];

            /// Decodes an opcode from its byte encoding.
            pub fn from_byte(byte: u8) -> Option<Self> {
                match byte {
                    $($value => Some($name::$variant),)*
                    _ => None,
                }
            }

            /// The byte encoding of this opcode.
            pub fn to_byte(self) -> u8 {
                self as u8
            }

            /// The assembler mnemonic of this opcode.
            pub fn mnemonic(self) -> &'static str {
                match self {
                    $($name::$variant => $mnemonic,)*
                }
            }

            /// Looks an opcode up by assembler mnemonic (lower case).
            pub fn from_mnemonic(s: &str) -> Option<Self> {
                match s {
                    $($mnemonic => Some($name::$variant),)*
                    _ => None,
                }
            }
        }
    };
}

opcodes! {
    /// Every instruction the TVM can execute.
    ///
    /// Field usage by group (fields not listed are ignored and should be zero):
    ///
    /// | group | fields |
    /// |---|---|
    /// | `halt`, `nop`, `ret` | — |
    /// | `movi rd, imm` | `a`=rd, `imm` |
    /// | `mov/neg/not rd, rs` | `a`=rd, `b`=rs |
    /// | three-register ALU (`add` … `sar`) | `a`=rd, `b`=rs1, `c`=rs2 |
    /// | immediate ALU (`addi` … `sari`) | `a`=rd, `b`=rs1, `imm` |
    /// | `ldw/ldb rd, [rs1+imm]` | `a`=rd, `b`=rs1, `imm` |
    /// | `stw/stb [rs1+imm], rs2` | `a`=rs1 (base), `b`=rs2 (source), `imm` |
    /// | `cmp rs1, rs2` | `a`=rs1, `b`=rs2 |
    /// | `cmpi rs1, imm` | `a`=rs1, `imm` |
    /// | jumps / `call` | `imm` = absolute target address |
    /// | `jmpr rs` | `a`=rs |
    /// | `push rs` / `pop rd` | `a` |
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    #[repr(u8)]
    pub enum Opcode {
        /// Stop execution; the machine reports a halted outcome.
        Halt = 0x00, "halt";
        /// Do nothing.
        Nop = 0x01, "nop";
        /// `rd = imm`
        MovI = 0x02, "movi";
        /// `rd = rs`
        Mov = 0x03, "mov";
        /// `rd = rs1 + rs2` (wrapping)
        Add = 0x04, "add";
        /// `rd = rs1 - rs2` (wrapping)
        Sub = 0x05, "sub";
        /// `rd = rs1 * rs2` (wrapping)
        Mul = 0x06, "mul";
        /// `rd = rs1 / rs2` as signed integers; errors on division by zero.
        Div = 0x07, "div";
        /// `rd = rs1 % rs2` as signed integers; errors on division by zero.
        Rem = 0x08, "rem";
        /// `rd = rs1 & rs2`
        And = 0x09, "and";
        /// `rd = rs1 | rs2`
        Or = 0x0a, "or";
        /// `rd = rs1 ^ rs2`
        Xor = 0x0b, "xor";
        /// `rd = rs1 << (rs2 & 31)`
        Shl = 0x0c, "shl";
        /// `rd = rs1 >> (rs2 & 31)` (logical)
        Shr = 0x0d, "shr";
        /// `rd = rs1 >> (rs2 & 31)` (arithmetic)
        Sar = 0x0e, "sar";
        /// `rd = rs1 + imm` (wrapping)
        AddI = 0x0f, "addi";
        /// `rd = rs1 * imm` (wrapping)
        MulI = 0x10, "muli";
        /// `rd = rs1 / imm` signed; errors on division by zero.
        DivI = 0x11, "divi";
        /// `rd = rs1 % imm` signed; errors on division by zero.
        RemI = 0x12, "remi";
        /// `rd = rs1 & imm`
        AndI = 0x13, "andi";
        /// `rd = rs1 | imm`
        OrI = 0x14, "ori";
        /// `rd = rs1 ^ imm`
        XorI = 0x15, "xori";
        /// `rd = rs1 << (imm & 31)`
        ShlI = 0x16, "shli";
        /// `rd = rs1 >> (imm & 31)` (logical)
        ShrI = 0x17, "shri";
        /// `rd = rs1 >> (imm & 31)` (arithmetic)
        SarI = 0x18, "sari";
        /// `rd = -rs` (two's complement)
        Neg = 0x19, "neg";
        /// `rd = !rs` (bitwise)
        Not = 0x1a, "not";
        /// `rd = mem32[rs1 + imm]`
        LdW = 0x1b, "ldw";
        /// `rd = zero_extend(mem8[rs1 + imm])`
        LdB = 0x1c, "ldb";
        /// `mem32[rs1 + imm] = rs2`
        StW = 0x1d, "stw";
        /// `mem8[rs1 + imm] = low byte of rs2`
        StB = 0x1e, "stb";
        /// Set flags from comparing `rs1` with `rs2`.
        Cmp = 0x1f, "cmp";
        /// Set flags from comparing `rs1` with `imm`.
        CmpI = 0x20, "cmpi";
        /// Unconditional jump to the absolute address `imm`.
        Jmp = 0x21, "jmp";
        /// Jump when the last comparison was equal.
        Jeq = 0x22, "jeq";
        /// Jump when the last comparison was not equal.
        Jne = 0x23, "jne";
        /// Jump when signed less-than.
        Jlt = 0x24, "jlt";
        /// Jump when signed less-than or equal.
        Jle = 0x25, "jle";
        /// Jump when signed greater-than.
        Jgt = 0x26, "jgt";
        /// Jump when signed greater-than or equal.
        Jge = 0x27, "jge";
        /// Jump when unsigned less-than.
        Jltu = 0x28, "jltu";
        /// Jump when unsigned greater-than or equal.
        Jgeu = 0x29, "jgeu";
        /// Jump to the address held in register `a`.
        JmpR = 0x2a, "jmpr";
        /// Push the return address and jump to the absolute address `imm`.
        Call = 0x2b, "call";
        /// Pop the return address and jump to it.
        Ret = 0x2c, "ret";
        /// Push register `a` onto the stack (SP-relative, descending).
        Push = 0x2d, "push";
        /// Pop the top of the stack into register `a`.
        Pop = 0x2e, "pop";
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// One decoded TVM instruction.
///
/// # Examples
/// ```
/// use asc_tvm::isa::{Instruction, Opcode, Reg};
/// let add = Instruction::rrr(Opcode::Add, Reg::new(1).unwrap(), Reg::new(2).unwrap(), Reg::new(3).unwrap());
/// assert_eq!(add.opcode, Opcode::Add);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instruction {
    /// The operation to perform.
    pub opcode: Opcode,
    /// First register field (usually the destination).
    pub a: u8,
    /// Second register field (usually the first source).
    pub b: u8,
    /// Third register field (usually the second source).
    pub c: u8,
    /// Signed 32-bit immediate.
    pub imm: i32,
}

impl Instruction {
    /// An instruction with no operands (`halt`, `nop`, `ret`).
    pub fn bare(opcode: Opcode) -> Self {
        Instruction { opcode, a: 0, b: 0, c: 0, imm: 0 }
    }

    /// A three-register instruction such as `add rd, rs1, rs2`.
    pub fn rrr(opcode: Opcode, rd: Reg, rs1: Reg, rs2: Reg) -> Self {
        Instruction { opcode, a: rd.0, b: rs1.0, c: rs2.0, imm: 0 }
    }

    /// A register-register instruction such as `mov rd, rs`.
    pub fn rr(opcode: Opcode, rd: Reg, rs: Reg) -> Self {
        Instruction { opcode, a: rd.0, b: rs.0, c: 0, imm: 0 }
    }

    /// A register + immediate instruction such as `addi rd, rs1, imm`.
    pub fn rri(opcode: Opcode, rd: Reg, rs1: Reg, imm: i32) -> Self {
        Instruction { opcode, a: rd.0, b: rs1.0, c: 0, imm }
    }

    /// A single-register + immediate instruction such as `movi rd, imm` or `cmpi rs, imm`.
    pub fn ri(opcode: Opcode, r: Reg, imm: i32) -> Self {
        Instruction { opcode, a: r.0, b: 0, c: 0, imm }
    }

    /// A single-register instruction such as `push rs` or `jmpr rs`.
    pub fn r(opcode: Opcode, r: Reg) -> Self {
        Instruction { opcode, a: r.0, b: 0, c: 0, imm: 0 }
    }

    /// An immediate-only instruction such as `jmp target` or `call target`.
    pub fn i(opcode: Opcode, imm: i32) -> Self {
        Instruction { opcode, a: 0, b: 0, c: 0, imm }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Opcode::*;
        let op = self.opcode;
        match op {
            Halt | Nop | Ret => write!(f, "{op}"),
            MovI => write!(f, "{op} r{}, {}", self.a, self.imm),
            Mov | Neg | Not => write!(f, "{op} r{}, r{}", self.a, self.b),
            Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | Sar => {
                write!(f, "{op} r{}, r{}, r{}", self.a, self.b, self.c)
            }
            AddI | MulI | DivI | RemI | AndI | OrI | XorI | ShlI | ShrI | SarI => {
                write!(f, "{op} r{}, r{}, {}", self.a, self.b, self.imm)
            }
            LdW | LdB => write!(f, "{op} r{}, [r{}+{}]", self.a, self.b, self.imm),
            StW | StB => write!(f, "{op} [r{}+{}], r{}", self.a, self.imm, self.b),
            Cmp => write!(f, "{op} r{}, r{}", self.a, self.b),
            CmpI => write!(f, "{op} r{}, {}", self.a, self.imm),
            Jmp | Jeq | Jne | Jlt | Jle | Jgt | Jge | Jltu | Jgeu | Call => {
                write!(f, "{op} {}", self.imm)
            }
            JmpR | Push | Pop => write!(f, "{op} r{}", self.a),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_roundtrip_through_byte() {
        for &op in Opcode::ALL {
            assert_eq!(Opcode::from_byte(op.to_byte()), Some(op));
        }
    }

    #[test]
    fn opcode_roundtrip_through_mnemonic() {
        for &op in Opcode::ALL {
            assert_eq!(Opcode::from_mnemonic(op.mnemonic()), Some(op));
        }
        assert_eq!(Opcode::from_mnemonic("bogus"), None);
    }

    #[test]
    fn opcode_bytes_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for &op in Opcode::ALL {
            assert!(seen.insert(op.to_byte()), "duplicate encoding for {op}");
        }
    }

    #[test]
    fn unknown_opcode_byte_rejected() {
        assert_eq!(Opcode::from_byte(0xee), None);
    }

    #[test]
    fn reg_bounds() {
        assert_eq!(Reg::new(0).map(|r| r.index()), Some(0));
        assert_eq!(Reg::new(15).map(|r| r.index()), Some(15));
        assert!(Reg::new(16).is_none());
        assert_eq!(SP.index(), 15);
    }

    #[test]
    fn flags_roundtrip() {
        let all = [
            Flags::compare(1, 1),
            Flags::compare(1, 2),
            Flags::compare(2, 1),
            Flags::compare(u32::MAX, 1),
            Flags::compare(1, u32::MAX),
        ];
        for f in all {
            assert_eq!(Flags::from_word(f.to_word()), f);
        }
    }

    #[test]
    fn flags_signed_vs_unsigned() {
        // -1 (as u32::MAX) is signed-less-than 1 but unsigned-greater.
        let f = Flags::compare(u32::MAX, 1);
        assert!(f.lt_signed);
        assert!(!f.lt_unsigned);
        assert!(!f.eq);
    }

    #[test]
    fn instruction_display_mentions_operands() {
        let i = Instruction::rri(Opcode::AddI, Reg::new(2).unwrap(), Reg::new(3).unwrap(), -7);
        let text = i.to_string();
        assert!(text.contains("addi"));
        assert!(text.contains("r2"));
        assert!(text.contains("-7"));
    }
}
