//! Loadable program images.
//!
//! A [`Program`] is the output of the assembler: a flat code image,
//! initialised data segments, an entry point and a recommended memory size.
//! It plays the role of the freestanding static binaries the paper runs on
//! its simulator.

use crate::error::{VmError, VmResult};
use crate::isa::{INSTRUCTION_BYTES, SP};
use crate::state::StateVector;
use std::collections::BTreeMap;

/// A relocatable-free, fully linked TVM program image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Machine code, loaded at memory address 0.
    code: Vec<u8>,
    /// Initialised data segments: memory address → bytes.
    data: BTreeMap<u32, Vec<u8>>,
    /// Address of the first instruction to execute.
    entry: u32,
    /// Memory segment size the program expects (code + data + heap + stack).
    mem_size: usize,
    /// Exported symbols (label → address) for tests and experiment harnesses.
    symbols: BTreeMap<String, u32>,
    /// Number of source lines this image was produced from (the paper's
    /// "lines of C code" column in Table 1).
    source_lines: usize,
}

impl Program {
    /// Creates a program from a code image.
    ///
    /// The program is loaded at address 0 and `mem_size` bytes of memory are
    /// reserved overall (code, data, heap and a descending stack).
    ///
    /// # Errors
    /// Returns [`VmError::ProgramTooLarge`] when the code image alone exceeds
    /// `mem_size`.
    pub fn new(code: Vec<u8>, entry: u32, mem_size: usize) -> VmResult<Self> {
        if code.len() > mem_size {
            return Err(VmError::ProgramTooLarge { image: code.len(), mem_size });
        }
        Ok(Program {
            code,
            data: BTreeMap::new(),
            entry,
            mem_size,
            symbols: BTreeMap::new(),
            source_lines: 0,
        })
    }

    /// Adds an initialised data segment at `addr`.
    ///
    /// # Errors
    /// Returns [`VmError::ProgramTooLarge`] when the segment does not fit in
    /// the program's memory.
    pub fn with_data(mut self, addr: u32, bytes: Vec<u8>) -> VmResult<Self> {
        let end = addr as usize + bytes.len();
        if end > self.mem_size {
            return Err(VmError::ProgramTooLarge { image: end, mem_size: self.mem_size });
        }
        self.data.insert(addr, bytes);
        Ok(self)
    }

    /// Records an exported symbol.
    pub fn with_symbol(mut self, name: impl Into<String>, addr: u32) -> Self {
        self.symbols.insert(name.into(), addr);
        self
    }

    /// Records how many source lines produced this image.
    pub fn with_source_lines(mut self, lines: usize) -> Self {
        self.source_lines = lines;
        self
    }

    /// The raw code image.
    pub fn code(&self) -> &[u8] {
        &self.code
    }

    /// Number of encoded instructions in the code image.
    pub fn instruction_count(&self) -> usize {
        self.code.len() / INSTRUCTION_BYTES as usize
    }

    /// The entry point address.
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// The memory size this program expects.
    pub fn mem_size(&self) -> usize {
        self.mem_size
    }

    /// Number of source lines recorded for this image (0 when unknown).
    pub fn source_lines(&self) -> usize {
        self.source_lines
    }

    /// Looks up an exported symbol.
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).copied()
    }

    /// All exported symbols in address order of insertion name order.
    pub fn symbols(&self) -> impl Iterator<Item = (&str, u32)> {
        self.symbols.iter().map(|(name, addr)| (name.as_str(), *addr))
    }

    /// Materialises the initial state vector for this program: code and data
    /// loaded, IP at the entry point and the stack pointer at the top of
    /// memory.
    ///
    /// # Errors
    /// Returns [`VmError::MemoryOutOfBounds`] if a data segment lies outside
    /// memory (only possible when segments were constructed inconsistently).
    pub fn initial_state(&self) -> VmResult<StateVector> {
        let mut state = StateVector::new(self.mem_size)?;
        state.write_mem(0, &self.code)?;
        for (addr, bytes) in &self.data {
            state.write_mem(*addr, bytes)?;
        }
        state.set_ip(self.entry);
        state.set_reg(SP, self.mem_size as u32);
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_all;
    use crate::isa::{Instruction, Opcode, Reg};

    #[test]
    fn initial_state_has_code_data_entry_and_stack() {
        let code = encode_all(&[Instruction::bare(Opcode::Halt)]);
        let program = Program::new(code.clone(), 0, 1024)
            .unwrap()
            .with_data(512, vec![1, 2, 3, 4])
            .unwrap()
            .with_symbol("blob", 512)
            .with_source_lines(3);
        let state = program.initial_state().unwrap();
        assert_eq!(state.read_mem(0, code.len()).unwrap(), &code[..]);
        assert_eq!(state.read_mem(512, 4).unwrap(), &[1, 2, 3, 4]);
        assert_eq!(state.ip(), 0);
        assert_eq!(state.reg(Reg::new(15).unwrap()), 1024);
        assert_eq!(program.symbol("blob"), Some(512));
        assert_eq!(program.symbol("missing"), None);
        assert_eq!(program.source_lines(), 3);
        assert_eq!(program.instruction_count(), 1);
    }

    #[test]
    fn oversized_program_rejected() {
        let code = vec![0u8; 128];
        assert!(matches!(Program::new(code, 0, 64), Err(VmError::ProgramTooLarge { .. })));
    }

    #[test]
    fn oversized_data_rejected() {
        let program = Program::new(vec![0u8; 8], 0, 64).unwrap();
        assert!(program.with_data(60, vec![0u8; 8]).is_err());
    }
}
