//! # asc-asm — assembler for the TVM ISA
//!
//! This crate stands in for the standard toolchain (GCC + binutils) the paper
//! compiles its benchmarks with: it turns human-readable assembly into the
//! freestanding [`Program`](asc_tvm::program::Program) images the
//! trajectory-based simulator executes. The benchmark kernels in
//! `asc-workloads` lower through this crate.
//!
//! ```
//! use asc_asm::assemble;
//! use asc_tvm::machine::Machine;
//! use asc_tvm::isa::Reg;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble(
//!     "main:\n movi r1, 6\n movi r2, 7\n mul r3, r1, r2\n halt\n",
//! )?;
//! let mut machine = Machine::load(&program)?;
//! machine.run_to_halt(100)?;
//! assert_eq!(machine.reg(Reg::new(3).unwrap()), 42);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assemble;
pub mod ast;
pub mod error;
pub mod parser;

pub use assemble::{assemble, Assembler};
pub use error::{AsmError, AsmErrorKind, AsmResult};
