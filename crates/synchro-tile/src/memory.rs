//! Tile-local data SRAM.
//!
//! Each tile has 32 KB of data memory (8192 32-bit words).  Code and data
//! are resident in local memories when cycle counts are taken (methodology
//! step 6), so there is no cache model — every access is a single cycle.
//!
//! The model allocates a memory's backing store on its first store, not
//! when the tile is built: a tile that only loads (or never touches its
//! SRAM) reads zeros and costs no 32 KB allocation.  No simulated count
//! depends on when the store is allocated.

use std::error::Error;
use std::fmt;

/// Error raised on an out-of-range SRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryFault {
    /// The offending word address.
    pub address: i64,
    /// The memory size in words.
    pub size_words: usize,
}

impl fmt::Display for MemoryFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "address {} outside local memory of {} words",
            self.address, self.size_words
        )
    }
}

impl Error for MemoryFault {}

/// A word-addressed tile-local SRAM.
///
/// The capacity is fixed at construction, but the backing store is
/// allocated — zeroed, at full size — only on the first store
/// ([`write`](Self::write) or [`load_block`](Self::load_block)).  Until
/// then every word reads as 0.  Programs that never store (the column
/// programs the SDF mapper emits only send, receive and count) therefore
/// never allocate or zero their 32 KB.  Equality compares contents, so an
/// untouched memory equals one that has only been stored zeros.
#[derive(Debug, Clone)]
pub struct LocalMemory {
    /// Capacity in words.
    size: usize,
    /// Backing store: empty until the first store, then exactly `size`
    /// words long.  Boxed rather than a `Vec`: with no capacity field,
    /// `LocalMemory` stays three words, which keeps `Tile` small in the
    /// interpreter's column loop.
    words: Box<[i32]>,
}

impl LocalMemory {
    /// Number of 32-bit words in the paper's 32 KB tile memory.
    pub const DEFAULT_WORDS: usize = 8192;

    /// Create a zero-initialised memory of the default 32 KB size.
    pub fn new() -> Self {
        Self::with_words(Self::DEFAULT_WORDS)
    }

    /// Create a zero-initialised memory of `words` 32-bit words.  Nothing
    /// is allocated until the first store.
    pub fn with_words(words: usize) -> Self {
        LocalMemory {
            size: words,
            words: Box::default(),
        }
    }

    /// Memory capacity in words.
    pub fn len(&self) -> usize {
        self.size
    }

    /// True if the memory has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Read the word at `address`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryFault`] if the address is negative or beyond the end
    /// of the memory.
    pub fn read(&self, address: i64) -> Result<i32, MemoryFault> {
        self.check(address)?;
        Ok(self.words.get(address as usize).copied().unwrap_or(0))
    }

    /// Write `value` to the word at `address`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryFault`] if the address is negative or beyond the end
    /// of the memory.
    pub fn write(&mut self, address: i64, value: i32) -> Result<(), MemoryFault> {
        self.check(address)?;
        self.backing_mut()[address as usize] = value;
        Ok(())
    }

    /// Bulk-load `values` starting at word `base` (used to stage input
    /// samples and coefficients before a kernel runs).
    ///
    /// # Errors
    ///
    /// Returns [`MemoryFault`] if the block does not fit (see
    /// [`read_block`](Self::read_block) for the address it reports).
    pub fn load_block(&mut self, base: usize, values: &[i32]) -> Result<(), MemoryFault> {
        let end = self.block_end(base, values.len())?;
        self.backing_mut()[base..end].copy_from_slice(values);
        Ok(())
    }

    /// Copy out `count` words starting at `base`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryFault`] if the range does not fit.  The fault names
    /// the range's last word; when `base + count` overflows, the range has
    /// no last word and the fault names its first out-of-range word
    /// instead.  Addresses beyond `i64::MAX` saturate to it.
    pub fn read_block(&self, base: usize, count: usize) -> Result<Vec<i32>, MemoryFault> {
        let end = self.block_end(base, count)?;
        if self.words.is_empty() {
            return Ok(vec![0; count]);
        }
        Ok(self.words[base..end].to_vec())
    }

    /// The zeroed backing store, allocated at full size on first use.
    fn backing_mut(&mut self) -> &mut [i32] {
        if self.words.is_empty() {
            self.allocate();
        }
        &mut self.words
    }

    /// Allocate the zeroed backing store.  Out of line, so the allocation
    /// code stays out of `Tile::execute`, which the interpreter runs every
    /// cycle; only a memory's first store calls it.
    #[cold]
    #[inline(never)]
    fn allocate(&mut self) {
        self.words = vec![0; self.size].into_boxed_slice();
    }

    /// The end of the block of `count` words at `base`, if it fits.
    fn block_end(&self, base: usize, count: usize) -> Result<usize, MemoryFault> {
        let last = match base.checked_add(count) {
            Some(end) if end <= self.size => return Ok(end),
            Some(end) => end - 1,
            None => base.max(self.size),
        };
        Err(MemoryFault {
            address: i64::try_from(last).unwrap_or(i64::MAX),
            size_words: self.size,
        })
    }

    fn check(&self, address: i64) -> Result<(), MemoryFault> {
        if address < 0 || address as usize >= self.size {
            Err(MemoryFault {
                address,
                size_words: self.size,
            })
        } else {
            Ok(())
        }
    }
}

impl PartialEq for LocalMemory {
    fn eq(&self, other: &Self) -> bool {
        let all_zero = |words: &[i32]| words.iter().all(|&w| w == 0);
        self.size == other.size
            && match (self.words.is_empty(), other.words.is_empty()) {
                (true, true) => true,
                (true, false) => all_zero(&other.words),
                (false, true) => all_zero(&self.words),
                (false, false) => self.words == other.words,
            }
    }
}

impl Eq for LocalMemory {}

impl Default for LocalMemory {
    fn default() -> Self {
        LocalMemory::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_size_is_32_kb() {
        let m = LocalMemory::new();
        assert_eq!(m.len(), 8192);
        assert!(!m.is_empty());
    }

    #[test]
    fn a_new_memory_holds_no_allocation_until_its_first_store() {
        // An empty boxed slice owns no allocation.
        let mut m = LocalMemory::new();
        assert!(m.words.is_empty());
        assert_eq!(m.read(8191), Ok(0));
        assert_eq!(m.read_block(0, 4), Ok(vec![0; 4]));
        assert!(m.words.is_empty(), "loads do not allocate");
        m.write(5, 0).unwrap();
        assert_eq!(m.words.len(), LocalMemory::DEFAULT_WORDS);
        assert_eq!(m, LocalMemory::new(), "a stored zero changes nothing");
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = LocalMemory::with_words(16);
        m.write(3, -42).unwrap();
        assert_eq!(m.read(3).unwrap(), -42);
        assert_eq!(m.read(4).unwrap(), 0);
    }

    #[test]
    fn out_of_range_accesses_fault() {
        let mut m = LocalMemory::with_words(4);
        assert!(m.read(4).is_err());
        assert!(m.read(-1).is_err());
        assert!(m.write(100, 1).is_err());
        let fault = m.read(9).unwrap_err();
        assert_eq!(fault.size_words, 4);
        assert!(fault.to_string().contains('9'));
    }

    #[test]
    fn block_operations() {
        let mut m = LocalMemory::with_words(8);
        m.load_block(2, &[1, 2, 3]).unwrap();
        assert_eq!(m.read_block(2, 3).unwrap(), vec![1, 2, 3]);
        assert!(m.load_block(6, &[1, 2, 3]).is_err());
        assert!(m.read_block(7, 5).is_err());
        // A range whose end overflows `usize` faults instead of panicking,
        // at its first out-of-range word saturated to `i64::MAX`.
        let overflow = MemoryFault {
            address: i64::MAX,
            size_words: 8,
        };
        assert_eq!(m.load_block(usize::MAX, &[1, 2]), Err(overflow));
        assert_eq!(m.read_block(usize::MAX - 1, 4), Err(overflow));
        assert_eq!(
            m.read_block(5, usize::MAX).unwrap_err().address,
            8,
            "the first word past the end"
        );
        assert_eq!(m.read_block(0, 8).unwrap(), vec![0, 0, 1, 2, 3, 0, 0, 0]);
    }

    /// The eager memory [`LocalMemory`] replaced, kept as a test oracle:
    /// zeroed in full at construction.  Block ranges are computed in
    /// `u128`, so no range overflows.
    struct EagerMemory {
        words: Vec<i32>,
    }

    impl EagerMemory {
        fn with_words(size: usize) -> Self {
            EagerMemory {
                words: vec![0; size],
            }
        }

        fn fault(&self, address: i64) -> MemoryFault {
            MemoryFault {
                address,
                size_words: self.words.len(),
            }
        }

        fn read(&self, address: i64) -> Result<i32, MemoryFault> {
            usize::try_from(address)
                .ok()
                .and_then(|a| self.words.get(a).copied())
                .ok_or(self.fault(address))
        }

        fn write(&mut self, address: i64, value: i32) -> Result<(), MemoryFault> {
            let fault = self.fault(address);
            let word = usize::try_from(address)
                .ok()
                .and_then(|a| self.words.get_mut(a))
                .ok_or(fault)?;
            *word = value;
            Ok(())
        }

        fn block(&self, base: usize, count: usize) -> Result<std::ops::Range<usize>, MemoryFault> {
            let size = self.words.len() as u128;
            let end = base as u128 + count as u128;
            if end <= size {
                return Ok(base..end as usize);
            }
            let word = if end <= usize::MAX as u128 {
                end - 1
            } else {
                (base as u128).max(size)
            };
            Err(self.fault(word.min(i64::MAX as u128) as i64))
        }

        fn load_block(&mut self, base: usize, values: &[i32]) -> Result<(), MemoryFault> {
            let range = self.block(base, values.len())?;
            self.words[range].copy_from_slice(values);
            Ok(())
        }

        fn read_block(&self, base: usize, count: usize) -> Result<Vec<i32>, MemoryFault> {
            Ok(self.words[self.block(base, count)?].to_vec())
        }
    }

    /// A word address drawn from one of five classes, chosen by `pick`:
    /// in range, just past the end, negative, near `i64::MAX`, or any.
    fn address(pick: u64, raw: u64, size: usize) -> i64 {
        let small = (raw % 8) as i64;
        match pick % 5 {
            0 if size > 0 => (raw % size as u64) as i64,
            0 | 1 => size as i64 + small,
            2 => -1 - small,
            3 => i64::MAX - small,
            _ => raw as i64,
        }
    }

    /// A block start drawn from one of four classes, chosen by `pick`:
    /// in range, just past the end, near `usize::MAX`, or any.
    fn base(pick: u64, raw: u64, size: usize) -> usize {
        let small = (raw % 8) as usize;
        match pick % 4 {
            0 => raw as usize % (size + 1),
            1 => size + small,
            2 => usize::MAX - small,
            _ => raw as usize,
        }
    }

    proptest! {
        /// Random operation sequences on 0–64-word memories give the same
        /// results and faults as the eager oracle, and the lazy memory
        /// compares equal to another exactly when the oracle's contents
        /// do.  Addresses are in range, out of range, negative or near
        /// the top of the address space; block counts include ones whose
        /// end overflows `usize`.
        #[test]
        fn lazy_memory_matches_the_eager_oracle(
            size in 0usize..65,
            ops in prop::collection::vec(0u64..4, 0..24),
            picks in prop::collection::vec(any::<u64>(), 24),
            raws in prop::collection::vec(any::<u64>(), 24),
            values in prop::collection::vec(any::<i32>(), 64),
            zero_writes in any::<bool>(),
        ) {
            let fresh = LocalMemory::with_words(size);
            let mut lazy = fresh.clone();
            let mut eager = EagerMemory::with_words(size);
            for (i, &op) in ops.iter().enumerate() {
                let (pick, raw) = (picks[i], raws[i]);
                let value = if zero_writes { 0 } else { values[i] };
                match op {
                    0 => {
                        let a = address(pick, raw, size);
                        prop_assert_eq!(lazy.read(a), eager.read(a), "read {}", a);
                    }
                    1 => {
                        let a = address(pick, raw, size);
                        prop_assert_eq!(lazy.write(a, value), eager.write(a, value), "write {}", a);
                    }
                    2 => {
                        let b = base(pick, raw, size);
                        let len = (raw >> 32) as usize % (size + 2);
                        let block: Vec<i32> = if zero_writes {
                            vec![0; len]
                        } else {
                            values[..len.min(64)].to_vec()
                        };
                        prop_assert_eq!(
                            lazy.load_block(b, &block),
                            eager.load_block(b, &block),
                            "load_block {} x {}", b, block.len()
                        );
                    }
                    _ => {
                        let b = base(pick, raw, size);
                        let count = match (raw >> 32) % 3 {
                            0 => (raw >> 40) as usize % (size + 2),
                            1 => usize::MAX - (raw >> 40) as usize % 4,
                            _ => (raw >> 40) as usize,
                        };
                        prop_assert_eq!(
                            lazy.read_block(b, count),
                            eager.read_block(b, count),
                            "read_block {} x {}", b, count
                        );
                    }
                }
                prop_assert_eq!(lazy.len(), size);
                prop_assert_eq!(lazy.is_empty(), size == 0);
                let all_zero = eager.words.iter().all(|&w| w == 0);
                prop_assert_eq!(lazy == fresh, all_zero);
                prop_assert_eq!(fresh == lazy, all_zero);
            }
            prop_assert_eq!(lazy.read_block(0, size), Ok(eager.words.clone()));
            prop_assert!(lazy.words.is_empty() || lazy.words.len() == size);
            prop_assert!(lazy != LocalMemory::with_words(size + 1));

            // Against allocated memories: an equal copy, and one differing
            // in a single word.
            let mut copy = LocalMemory::with_words(size);
            copy.load_block(0, &eager.words).unwrap();
            prop_assert_eq!(&lazy, &copy);
            prop_assert_eq!(&copy, &lazy);
            prop_assert!(lazy.clone() == lazy);
            if size > 0 {
                let at = (raws[0] as usize % size) as i64;
                copy.write(at, eager.read(at).unwrap().wrapping_add(1)).unwrap();
                prop_assert_ne!(&lazy, &copy);
                prop_assert_ne!(&copy, &lazy);
            }
        }
    }
}
