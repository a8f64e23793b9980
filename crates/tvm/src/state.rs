//! The state vector: the complete, flat representation of machine state.
//!
//! A [`StateVector`] is the paper's `x`: a byte array containing *all*
//! information needed to deterministically compute the next state — the
//! instruction pointer, the flags word, the sixteen general-purpose registers
//! and the program's memory (code, globals, heap and stack). Program
//! execution is a walk through the space of these vectors; the ASC
//! architecture operates purely on them.

use crate::error::{VmError, VmResult};
use crate::isa::{Flags, Reg, NUM_REGS};

/// Byte offset of the 32-bit instruction pointer within the state vector.
pub const IP_OFFSET: usize = 0;
/// Byte offset of the 32-bit flags word.
pub const FLAGS_OFFSET: usize = 4;
/// Byte offset of the first general-purpose register.
pub const REG_OFFSET: usize = 8;
/// Total size of the architectural header (IP + flags + registers).
pub const HEADER_BYTES: usize = REG_OFFSET + NUM_REGS * 4;
/// Byte offset at which program-visible memory begins.
pub const MEM_BASE: usize = HEADER_BYTES;

/// The complete state of a TVM computation as one flat byte vector.
///
/// Addresses used by programs (`ip`, load/store addresses, the stack pointer)
/// are offsets into the *memory segment*, i.e. state byte `MEM_BASE + addr`.
///
/// # Examples
/// ```
/// use asc_tvm::state::StateVector;
/// let mut s = StateVector::new(1024).unwrap();
/// s.set_reg_index(3, 42);
/// assert_eq!(s.reg_index(3), 42);
/// assert_eq!(s.len_bits(), (asc_tvm::state::HEADER_BYTES + 1024) * 8);
/// ```
#[derive(PartialEq, Eq, Hash)]
pub struct StateVector {
    bytes: Vec<u8>,
}

impl Clone for StateVector {
    fn clone(&self) -> Self {
        StateVector { bytes: self.bytes.clone() }
    }

    /// Copies `source` into this vector's existing buffer: callers that keep
    /// one retained "previous state" pay a `memcpy` per update, not an
    /// allocation.
    fn clone_from(&mut self, source: &Self) {
        self.bytes.clone_from(&source.bytes);
    }
}

impl StateVector {
    /// Creates a zeroed state vector with `mem_size` bytes of program memory.
    ///
    /// # Errors
    /// Returns [`VmError::StateTooSmall`] when `mem_size` is zero.
    pub fn new(mem_size: usize) -> VmResult<Self> {
        if mem_size == 0 {
            return Err(VmError::StateTooSmall {
                requested: HEADER_BYTES,
                minimum: HEADER_BYTES + 1,
            });
        }
        Ok(StateVector { bytes: vec![0u8; HEADER_BYTES + mem_size] })
    }

    /// Reconstructs a state vector from raw bytes (header + memory).
    ///
    /// # Errors
    /// Returns [`VmError::StateTooSmall`] when fewer than `HEADER_BYTES + 1`
    /// bytes are supplied.
    pub fn from_bytes(bytes: Vec<u8>) -> VmResult<Self> {
        if bytes.len() <= HEADER_BYTES {
            return Err(VmError::StateTooSmall {
                requested: bytes.len(),
                minimum: HEADER_BYTES + 1,
            });
        }
        Ok(StateVector { bytes })
    }

    /// Total length of the state vector in bytes.
    pub fn len_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Total length of the state vector in bits (the paper's `n`).
    pub fn len_bits(&self) -> usize {
        self.bytes.len() * 8
    }

    /// Size of the program-visible memory segment in bytes.
    pub fn mem_size(&self) -> usize {
        self.bytes.len() - HEADER_BYTES
    }

    /// A read-only view of the raw state bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// A mutable view of the raw state bytes.
    ///
    /// Prefer the typed accessors; this exists for the speculation and cache
    /// machinery which patches individual bytes by index.
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// Reads one raw state byte by absolute index.
    ///
    /// # Panics
    /// Panics when `index` is out of bounds; callers are expected to hold
    /// indices obtained from this state vector or its dependency vector.
    pub fn byte(&self, index: usize) -> u8 {
        self.bytes[index]
    }

    /// Writes one raw state byte by absolute index.
    ///
    /// # Panics
    /// Panics when `index` is out of bounds.
    pub fn set_byte(&mut self, index: usize, value: u8) {
        self.bytes[index] = value;
    }

    /// Reads the bit at absolute bit index `bit` (LSB-first within a byte).
    pub fn bit(&self, bit: usize) -> bool {
        (self.bytes[bit / 8] >> (bit % 8)) & 1 == 1
    }

    /// Writes the bit at absolute bit index `bit`.
    pub fn set_bit(&mut self, bit: usize, value: bool) {
        let byte = &mut self.bytes[bit / 8];
        if value {
            *byte |= 1 << (bit % 8);
        } else {
            *byte &= !(1 << (bit % 8));
        }
    }

    /// Reads a little-endian 32-bit word at absolute byte index `index`.
    #[inline]
    pub fn word(&self, index: usize) -> u32 {
        let bytes: [u8; 4] = self.bytes[index..index + 4].try_into().expect("word read in bounds");
        u32::from_le_bytes(bytes)
    }

    /// Writes a little-endian 32-bit word at absolute byte index `index`.
    #[inline]
    pub fn set_word(&mut self, index: usize, value: u32) {
        self.bytes[index..index + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// The current instruction pointer (a memory-segment address).
    pub fn ip(&self) -> u32 {
        self.word(IP_OFFSET)
    }

    /// Sets the instruction pointer.
    pub fn set_ip(&mut self, ip: u32) {
        self.set_word(IP_OFFSET, ip);
    }

    /// The current condition flags.
    pub fn flags(&self) -> Flags {
        Flags::from_word(self.word(FLAGS_OFFSET))
    }

    /// Sets the condition flags.
    pub fn set_flags(&mut self, flags: Flags) {
        self.set_word(FLAGS_OFFSET, flags.to_word());
    }

    /// Reads general-purpose register `r`.
    pub fn reg(&self, r: Reg) -> u32 {
        self.word(REG_OFFSET + r.index() * 4)
    }

    /// Writes general-purpose register `r`.
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        self.set_word(REG_OFFSET + r.index() * 4, value);
    }

    /// Reads register `index`, panicking when out of range.
    ///
    /// # Panics
    /// Panics when `index >= NUM_REGS`.
    pub fn reg_index(&self, index: usize) -> u32 {
        assert!(index < NUM_REGS, "register index {index} out of range");
        self.word(REG_OFFSET + index * 4)
    }

    /// Writes register `index`, panicking when out of range.
    ///
    /// # Panics
    /// Panics when `index >= NUM_REGS`.
    pub fn set_reg_index(&mut self, index: usize, value: u32) {
        assert!(index < NUM_REGS, "register index {index} out of range");
        self.set_word(REG_OFFSET + index * 4, value);
    }

    /// Translates a memory-segment address to an absolute state byte index.
    ///
    /// # Errors
    /// Returns [`VmError::MemoryOutOfBounds`] when `addr..addr+len` does not
    /// lie inside the memory segment.
    pub fn mem_index(&self, addr: u32, len: u32) -> VmResult<usize> {
        let mem_size = self.mem_size() as u64;
        let end = addr as u64 + len as u64;
        if end > mem_size {
            return Err(VmError::MemoryOutOfBounds { addr, len, mem_size: mem_size as u32 });
        }
        Ok(MEM_BASE + addr as usize)
    }

    /// Reads a 32-bit little-endian word from memory-segment address `addr`.
    ///
    /// # Errors
    /// Returns [`VmError::MemoryOutOfBounds`] on an out-of-range access.
    pub fn load_word(&self, addr: u32) -> VmResult<u32> {
        let index = self.mem_index(addr, 4)?;
        Ok(self.word(index))
    }

    /// Writes a 32-bit little-endian word to memory-segment address `addr`.
    ///
    /// # Errors
    /// Returns [`VmError::MemoryOutOfBounds`] on an out-of-range access.
    pub fn store_word(&mut self, addr: u32, value: u32) -> VmResult<()> {
        let index = self.mem_index(addr, 4)?;
        self.set_word(index, value);
        Ok(())
    }

    /// Reads a byte from memory-segment address `addr`.
    ///
    /// # Errors
    /// Returns [`VmError::MemoryOutOfBounds`] on an out-of-range access.
    pub fn load_byte(&self, addr: u32) -> VmResult<u8> {
        let index = self.mem_index(addr, 1)?;
        Ok(self.byte(index))
    }

    /// Writes a byte to memory-segment address `addr`.
    ///
    /// # Errors
    /// Returns [`VmError::MemoryOutOfBounds`] on an out-of-range access.
    pub fn store_byte(&mut self, addr: u32, value: u8) -> VmResult<()> {
        let index = self.mem_index(addr, 1)?;
        self.set_byte(index, value);
        Ok(())
    }

    /// Copies `data` into memory starting at memory-segment address `addr`.
    ///
    /// # Errors
    /// Returns [`VmError::MemoryOutOfBounds`] when the copy does not fit.
    pub fn write_mem(&mut self, addr: u32, data: &[u8]) -> VmResult<()> {
        let index = self.mem_index(addr, data.len() as u32)?;
        self.bytes[index..index + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Reads `len` bytes of memory starting at memory-segment address `addr`.
    ///
    /// # Errors
    /// Returns [`VmError::MemoryOutOfBounds`] when the range is out of bounds.
    pub fn read_mem(&self, addr: u32, len: usize) -> VmResult<&[u8]> {
        let index = self.mem_index(addr, len as u32)?;
        Ok(&self.bytes[index..index + len])
    }

    /// Appends to `out` one `(byte index, xor)` pair per aligned 32-bit word
    /// in which `self` and `other` differ, in ascending order: the byte index
    /// of the word's first byte and the little-endian XOR of the two words
    /// (bit `b` of the XOR is absolute state bit `index * 8 + b`). A trailing
    /// partial word is zero-extended.
    ///
    /// Both vectors must have the same length; differing lengths are treated
    /// as if the longer one were truncated (callers compare states of the
    /// same machine, so lengths normally agree).
    ///
    /// The scan compares 32 bytes at a time and only looks inside blocks
    /// that differ, so its cost is a `memcmp` of the state plus work
    /// proportional to the handful of words that actually changed.
    pub fn diff_words_into(&self, other: &StateVector, out: &mut Vec<(usize, u32)>) {
        const BLOCK: usize = 32;
        let len = self.bytes.len().min(other.bytes.len());
        let (a, b) = (&self.bytes[..len], &other.bytes[..len]);
        let mut push_words = |base: usize, a: &[u8], b: &[u8]| {
            for (k, (x, y)) in a.chunks(4).zip(b.chunks(4)).enumerate() {
                if x != y {
                    let (mut wx, mut wy) = ([0u8; 4], [0u8; 4]);
                    wx[..x.len()].copy_from_slice(x);
                    wy[..y.len()].copy_from_slice(y);
                    out.push((base + k * 4, u32::from_le_bytes(wx) ^ u32::from_le_bytes(wy)));
                }
            }
        };
        let blocks = a.chunks_exact(BLOCK).zip(b.chunks_exact(BLOCK));
        for (k, (x, y)) in blocks.enumerate() {
            if x != y {
                push_words(k * BLOCK, x, y);
            }
        }
        let tail = len - len % BLOCK;
        push_words(tail, &a[tail..], &b[tail..]);
    }
}

impl std::fmt::Debug for StateVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateVector")
            .field("ip", &self.ip())
            .field("flags", &self.flags())
            .field("regs", &(0..NUM_REGS).map(|i| self.reg_index(i)).collect::<Vec<_>>())
            .field("mem_size", &self.mem_size())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::SP;

    #[test]
    fn new_rejects_zero_memory() {
        assert!(StateVector::new(0).is_err());
        assert!(StateVector::new(1).is_ok());
    }

    #[test]
    fn register_read_write_roundtrip() {
        let mut s = StateVector::new(64).unwrap();
        for i in 0..NUM_REGS {
            s.set_reg_index(i, (i as u32) * 0x01010101);
        }
        for i in 0..NUM_REGS {
            assert_eq!(s.reg_index(i), (i as u32) * 0x01010101);
        }
        s.set_reg(SP, 0xdead_beef);
        assert_eq!(s.reg(SP), 0xdead_beef);
    }

    #[test]
    fn ip_and_flags_live_in_header() {
        let mut s = StateVector::new(16).unwrap();
        s.set_ip(0x1234);
        s.set_flags(Flags { eq: true, lt_signed: false, lt_unsigned: true });
        assert_eq!(s.ip(), 0x1234);
        assert_eq!(s.flags(), Flags { eq: true, lt_signed: false, lt_unsigned: true });
        // The header does not overlap memory.
        assert_eq!(s.load_word(0).unwrap(), 0);
    }

    #[test]
    fn memory_bounds_checked() {
        let mut s = StateVector::new(8).unwrap();
        assert!(s.store_word(4, 7).is_ok());
        assert!(s.store_word(5, 7).is_err());
        assert!(s.load_byte(7).is_ok());
        assert!(s.load_byte(8).is_err());
        let err = s.load_word(u32::MAX).unwrap_err();
        assert!(matches!(err, VmError::MemoryOutOfBounds { .. }));
    }

    #[test]
    fn word_little_endian() {
        let mut s = StateVector::new(8).unwrap();
        s.store_word(0, 0x0403_0201).unwrap();
        assert_eq!(s.load_byte(0).unwrap(), 1);
        assert_eq!(s.load_byte(3).unwrap(), 4);
    }

    #[test]
    fn bit_accessors() {
        let mut s = StateVector::new(8).unwrap();
        let bit = (MEM_BASE + 2) * 8 + 5;
        assert!(!s.bit(bit));
        s.set_bit(bit, true);
        assert!(s.bit(bit));
        assert_eq!(s.load_byte(2).unwrap(), 1 << 5);
        s.set_bit(bit, false);
        assert!(!s.bit(bit));
    }

    #[test]
    fn diff_words_reports_changed_words_in_order() {
        let mut a = StateVector::new(101).unwrap(); // 173 bytes: partial tail word
        let b = a.clone();
        let mut diff = Vec::new();
        a.diff_words_into(&b, &mut diff);
        assert!(diff.is_empty());
        a.set_reg_index(1, 5);
        a.store_byte(10, 0x80).unwrap();
        a.store_byte(11, 0x01).unwrap(); // same aligned word as byte 10
        a.store_byte(100, 0xFF).unwrap(); // the last byte of the state
        a.diff_words_into(&b, &mut diff);
        assert_eq!(
            diff,
            vec![(REG_OFFSET + 4, 5), (MEM_BASE + 8, 0x0180_0000), (MEM_BASE + 100, 0xFF),]
        );
        // Every reported bit really differs, and nothing else does.
        let changed: usize = diff.iter().map(|&(_, xor)| xor.count_ones() as usize).sum();
        let by_bit = (0..a.len_bits()).filter(|&bit| a.bit(bit) != b.bit(bit)).count();
        assert_eq!(changed, by_bit);
        for &(index, xor) in &diff {
            for offset in (0..32).filter(|offset| xor >> offset & 1 == 1) {
                assert_ne!(a.bit(index * 8 + offset), b.bit(index * 8 + offset));
            }
        }
    }

    #[test]
    fn clone_from_reuses_the_buffer() {
        let mut a = StateVector::new(64).unwrap();
        let mut b = StateVector::new(64).unwrap();
        b.set_ip(77);
        let buffer = a.as_bytes().as_ptr();
        a.clone_from(&b);
        assert_eq!(a, b);
        assert_eq!(a.as_bytes().as_ptr(), buffer);
    }

    #[test]
    fn from_bytes_roundtrip() {
        let mut s = StateVector::new(16).unwrap();
        s.set_ip(99);
        let raw = s.as_bytes().to_vec();
        let restored = StateVector::from_bytes(raw).unwrap();
        assert_eq!(restored, s);
        assert!(StateVector::from_bytes(vec![0u8; HEADER_BYTES]).is_err());
    }
}
