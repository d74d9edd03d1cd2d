//! Main memory: latency model plus a *real* backing image.
//!
//! The paper's recovery story for clean lines is "non-corrupted data can be
//! found from the next level of the memory hierarchy" — which is only
//! testable if the next level actually holds data. [`MainMemory`] therefore
//! maintains a sparse line image: lines that were ever written back are
//! stored explicitly; untouched lines read as a deterministic function of
//! their address, so a freshly filled line always has reproducible contents
//! without materialising the whole address space. Explicit lines live in
//! one flat word array, indexed through a map from line address to slot,
//! so writes update lines in place and cloning a memory (as
//! `System::fork` does) copies two arrays rather than one `Box` per line.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::addr::LineAddr;

/// Mixes a 64-bit value (splitmix64 finaliser); used to synthesise the
/// pristine contents of never-written memory lines.
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hashes a [`LineAddr`] key with [`mix64`]: deterministic across
/// processes and a single finaliser per lookup, where the standard
/// library's SipHash is seeded per process and costs several rounds.
/// It is not collision-resistant: a trace crafted to collide can only
/// slow down its own simulation, never change its result.
#[derive(Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = mix64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = mix64(self.0 ^ x);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Maps an explicit line to its slot in the flat word array.
type LineMap = HashMap<LineAddr, usize, BuildHasherDefault<LineHasher>>;

/// Main-memory model: fixed access latency and a sparse line image.
///
/// ```
/// use aep_mem::memory::MainMemory;
/// use aep_mem::addr::LineAddr;
///
/// let mut mem = MainMemory::new(100, 8);
/// let pristine = mem.read_line(LineAddr(7));
/// // Deterministic: reading again yields the same words.
/// assert_eq!(mem.read_line(LineAddr(7)), pristine);
///
/// let mut updated = pristine.clone();
/// updated[0] = 42;
/// mem.write_line(LineAddr(7), &updated);
/// assert_eq!(mem.read_line(LineAddr(7)), updated);
/// ```
#[derive(Debug, Clone)]
pub struct MainMemory {
    latency: u64,
    words_per_line: usize,
    /// Slot of each explicit line; slot `i` holds
    /// `words[i * words_per_line..][..words_per_line]`.
    slots: LineMap,
    words: Vec<u64>,
    reads: u64,
    writes: u64,
}

impl MainMemory {
    /// Creates a memory with `latency` cycles per access and
    /// `words_per_line` 64-bit words per line.
    ///
    /// # Panics
    ///
    /// Panics if `words_per_line == 0`.
    #[must_use]
    pub fn new(latency: u64, words_per_line: usize) -> Self {
        assert!(words_per_line > 0, "lines must hold at least one word");
        MainMemory {
            latency,
            words_per_line,
            slots: LineMap::default(),
            words: Vec::new(),
            reads: 0,
            writes: 0,
        }
    }

    /// Access latency in cycles.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Reads a full line (pristine lines are synthesised deterministically).
    pub fn read_line(&mut self, line: LineAddr) -> Box<[u64]> {
        let mut data = vec![0; self.words_per_line].into_boxed_slice();
        self.read_line_into(line, &mut data);
        data
    }

    /// [`MainMemory::read_line`] into a caller-owned buffer: copies the
    /// line's words into `out` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not exactly one line.
    pub fn read_line_into(&mut self, line: LineAddr, out: &mut [u64]) {
        self.reads += 1;
        match self.explicit(line) {
            Some(data) => out.copy_from_slice(data),
            None => Self::pristine_into(line, out),
        }
    }

    /// The synthetic contents of a never-written line.
    #[must_use]
    pub fn pristine(line: LineAddr, words_per_line: usize) -> Box<[u64]> {
        let mut data = vec![0; words_per_line].into_boxed_slice();
        Self::pristine_into(line, &mut data);
        data
    }

    /// Word `i` of never-written `line`.
    fn pristine_word(line: LineAddr, words_per_line: usize, i: usize) -> u64 {
        mix64(
            line.0
                .wrapping_mul(words_per_line as u64)
                .wrapping_add(i as u64),
        )
    }

    /// Fills `out` (one line) with the synthetic contents of never-written
    /// `line`.
    fn pristine_into(line: LineAddr, out: &mut [u64]) {
        let words_per_line = out.len();
        for (i, word) in out.iter_mut().enumerate() {
            *word = Self::pristine_word(line, words_per_line, i);
        }
    }

    /// The explicit image of `line`, if it was ever written.
    fn explicit(&self, line: LineAddr) -> Option<&[u64]> {
        let base = *self.slots.get(&line)? * self.words_per_line;
        Some(&self.words[base..base + self.words_per_line])
    }

    /// The explicit image of `line`, materialised from its pristine
    /// contents on first write. Later writes update it in place.
    fn line_mut(&mut self, line: LineAddr) -> &mut [u64] {
        let wpl = self.words_per_line;
        let words = &mut self.words;
        let slot = *self.slots.entry(line).or_insert_with(|| {
            let slot = words.len() / wpl;
            words.resize(words.len() + wpl, 0);
            Self::pristine_into(line, &mut words[slot * wpl..(slot + 1) * wpl]);
            slot
        });
        &mut self.words[slot * wpl..(slot + 1) * wpl]
    }

    /// Writes a full line back to memory.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one line.
    pub fn write_line(&mut self, line: LineAddr, data: &[u64]) {
        assert_eq!(
            data.len(),
            self.words_per_line,
            "write must be one full line"
        );
        self.writes += 1;
        self.line_mut(line).copy_from_slice(data);
    }

    /// Merges masked store words into a line (used when a no-write-allocate
    /// level forwards a partial line).
    pub fn write_words(&mut self, line: LineAddr, word_mask: u64, words: &[u64]) {
        for (i, slot) in self.line_mut(line).iter_mut().enumerate() {
            if word_mask & (1 << i) != 0 {
                *slot = words[i];
            }
        }
        self.writes += 1;
    }

    /// Corruption witness: `true` when the line's current memory image
    /// (explicit or pristine) equals `expected`. Unlike [`Self::read_line`]
    /// this does not count as an access, so fault-injection bookkeeping
    /// never perturbs traffic statistics.
    #[must_use]
    pub fn line_matches(&self, line: LineAddr, expected: &[u64]) -> bool {
        match self.explicit(line) {
            Some(data) => data == expected,
            None => {
                expected.len() == self.words_per_line
                    && expected
                        .iter()
                        .enumerate()
                        .all(|(i, &w)| w == Self::pristine_word(line, self.words_per_line, i))
            }
        }
    }

    /// Number of line reads served.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of line writes absorbed.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Number of lines with explicit (written-back) contents.
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pristine_lines_are_deterministic() {
        let mut mem = MainMemory::new(100, 8);
        let a = mem.read_line(LineAddr(123));
        let b = mem.read_line(LineAddr(123));
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        // Distinct lines get distinct contents (overwhelmingly likely
        // by construction, asserted here as a regression guard).
        assert_ne!(mem.read_line(LineAddr(124)), a);
    }

    #[test]
    fn adjacent_lines_do_not_share_words() {
        // Line i's last word and line i+1's first word use different
        // mix inputs: i*wpl + (wpl-1) vs (i+1)*wpl.
        let a = MainMemory::pristine(LineAddr(1), 8);
        let b = MainMemory::pristine(LineAddr(2), 8);
        assert_ne!(a[7], b[0]);
    }

    #[test]
    fn writes_override_pristine_contents() {
        let mut mem = MainMemory::new(100, 8);
        let data: Box<[u64]> = (0..8).collect();
        mem.write_line(LineAddr(5), &data);
        assert_eq!(mem.read_line(LineAddr(5)), data);
        assert_eq!(mem.resident_lines(), 1);
        assert_eq!(mem.writes(), 1);
    }

    #[test]
    fn masked_word_writes_merge() {
        let mut mem = MainMemory::new(100, 8);
        let pristine = mem.read_line(LineAddr(9));
        let mut words = vec![0u64; 8];
        words[2] = 0xAA;
        words[6] = 0xBB;
        mem.write_words(LineAddr(9), (1 << 2) | (1 << 6), &words);
        let after = mem.read_line(LineAddr(9));
        assert_eq!(after[2], 0xAA);
        assert_eq!(after[6], 0xBB);
        assert_eq!(after[0], pristine[0]);
        assert_eq!(after[7], pristine[7]);
    }

    #[test]
    fn line_matches_witnesses_without_counting_accesses() {
        let mut mem = MainMemory::new(100, 8);
        let pristine = MainMemory::pristine(LineAddr(3), 8);
        assert!(mem.line_matches(LineAddr(3), &pristine));
        let mut wrong = pristine.clone();
        wrong[0] ^= 1;
        assert!(!mem.line_matches(LineAddr(3), &wrong));
        mem.write_line(LineAddr(3), &wrong);
        assert!(mem.line_matches(LineAddr(3), &wrong));
        assert!(!mem.line_matches(LineAddr(3), &pristine));
        assert_eq!(mem.reads(), 0, "witness must not count as traffic");
    }

    #[test]
    #[should_panic(expected = "full line")]
    fn short_write_panics() {
        let mut mem = MainMemory::new(100, 8);
        mem.write_line(LineAddr(0), &[0u64; 4]);
    }

    #[test]
    fn mix64_is_a_permutationish_hash() {
        // Spot-check dispersion: small inputs map to well-spread outputs.
        let outs: Vec<u64> = (0..16).map(mix64).collect();
        let mut sorted = outs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), outs.len(), "no collisions among small inputs");
    }
}
