//! # asc-tvm — the trajectory-based functional simulator
//!
//! This crate is the execution substrate of the ASC reproduction: a
//! deterministic 32-bit register machine (the **TVM**) whose entire state —
//! instruction pointer, flags, register file and memory — lives in a single
//! flat [`state::StateVector`]. Executing one instruction is a pure function
//! from state vector to state vector ([`exec::transition`]); executing a
//! program traces a *trajectory* through state space, which is exactly the
//! model of computation the paper builds ASC on (§3.1).
//!
//! It provides:
//!
//! * the instruction set ([`isa`]) and its binary encoding ([`encode`]),
//! * state vectors ([`state`]) and per-byte dependency tracking ([`deps`])
//!   with the paper's `null / read / written / written-after-read` FSM,
//! * the transition function and a machine driver ([`exec`], [`machine`]),
//! * tier-1 execution: superinstruction fusion and block-threaded dispatch
//!   of hot straight-line regions ([`tier`]),
//! * program images and loading ([`program`]),
//! * sparse state captures ([`delta`]), the trajectory cache's entry
//!   halves.
//!
//! ## Quick example
//!
//! ```
//! use asc_tvm::encode::encode_all;
//! use asc_tvm::isa::{Instruction, Opcode, Reg};
//! use asc_tvm::machine::Machine;
//! use asc_tvm::program::Program;
//!
//! # fn main() -> Result<(), asc_tvm::error::VmError> {
//! let r1 = Reg::new(1).unwrap();
//! let code = encode_all(&[
//!     Instruction::ri(Opcode::MovI, r1, 20),
//!     Instruction::rri(Opcode::MulI, r1, r1, 2),
//!     Instruction::rri(Opcode::AddI, r1, r1, 2),
//!     Instruction::bare(Opcode::Halt),
//! ]);
//! let program = Program::new(code, 0, 4096)?;
//! let mut machine = Machine::load(&program)?;
//! machine.run_to_halt(100)?;
//! assert_eq!(machine.reg(r1), 42);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delta;
pub mod deps;
pub mod encode;
pub mod error;
pub mod exec;
pub mod isa;
pub mod machine;
pub mod program;
pub mod state;
pub mod tier;

pub use deps::{DepStatus, DepVector};
pub use error::{VmError, VmResult};
pub use exec::{
    transition, transition_cached, transition_with, DecodeCache, DecodedCache, DepSink,
    NoDecodeCache, NoDeps, StepOutcome,
};
pub use isa::{Flags, Instruction, Opcode, Reg};
pub use machine::{Machine, RunExit};
pub use program::Program;
pub use state::StateVector;
pub use tier::{BlockCache, SegmentExit, TierConfig, TierStats};
