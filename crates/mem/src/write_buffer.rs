//! The coalescing write buffer between the write-through L1D and the L2.
//!
//! The paper's baseline (like POWER4 and Itanium) keeps the L1 data cache
//! write-through so it can be parity-protected, and interposes a *"write
//! buffer \[that\] reduces data traffic to L2 cache by combining multiple
//! write backs into single one"* (Skadron & Clark). This module implements
//! that structure: a fully associative, FIFO-retired buffer of L2-line-sized
//! entries; stores to a buffered line coalesce into the existing entry.

use crate::addr::LineAddr;
use crate::Cycle;

/// One buffered line: its address, which 64-bit words have been written,
/// and when. The payloads live in the buffer's fixed storage; see
/// [`WriteBuffer::pop_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteEntry {
    /// The L2-line address the entry will be written to.
    pub line: LineAddr,
    /// Bit *i* set ⇒ word *i* of the line carries store data.
    pub word_mask: u64,
    /// Cycle of the first store merged into this entry.
    pub allocated_at: Cycle,
}

/// Result of pushing a store into the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Merged into an existing entry for the same line.
    Coalesced,
    /// A fresh entry was allocated.
    Inserted,
    /// The buffer is full; the store must stall until an entry retires.
    Full,
}

/// Cumulative write-buffer statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteBufferStats {
    /// Stores merged into existing entries.
    pub coalesced: u64,
    /// Fresh entries allocated.
    pub inserted: u64,
    /// Stores that found the buffer full.
    pub full_stalls: u64,
    /// Entries retired to the L2.
    pub retired: u64,
}

impl WriteBufferStats {
    /// Publishes every counter into the registry under the current scope.
    pub fn register_stats(&self, reg: &mut aep_obs::Registry) {
        reg.counter("coalesced", self.coalesced);
        reg.counter("inserted", self.inserted);
        reg.counter("full_stalls", self.full_stalls);
        reg.counter("retired", self.retired);
    }
}

/// A fully associative, FIFO-retired, coalescing write buffer.
///
/// Entries live in a fixed ring of `capacity` slots, and their payloads in
/// one flat array of `capacity × words_per_line` words: pushing and
/// retiring never allocate.
///
/// ```
/// use aep_mem::write_buffer::{PushOutcome, WriteBuffer};
/// use aep_mem::addr::LineAddr;
///
/// let mut wb = WriteBuffer::new(2, 8);
/// assert_eq!(wb.push(LineAddr(1), 0, 0xAA, 0), PushOutcome::Inserted);
/// assert_eq!(wb.push(LineAddr(1), 3, 0xBB, 1), PushOutcome::Coalesced);
/// assert_eq!(wb.push(LineAddr(2), 0, 0xCC, 2), PushOutcome::Inserted);
/// assert_eq!(wb.push(LineAddr(3), 0, 0xDD, 3), PushOutcome::Full);
/// let mut words = [0u64; 8];
/// let oldest = wb.pop_into(&mut words).unwrap(); // FIFO
/// assert_eq!(oldest.line, LineAddr(1));
/// assert_eq!((words[0], words[3]), (0xAA, 0xBB));
/// ```
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    /// Ring of entry slots; the live ones are `head..head + len` (mod
    /// capacity), oldest first.
    entries: Vec<WriteEntry>,
    /// Slot `i`'s payload is `words[i * words_per_line..][..words_per_line]`.
    words: Vec<u64>,
    head: usize,
    len: usize,
    words_per_line: usize,
    stats: WriteBufferStats,
}

impl WriteBuffer {
    /// Creates a buffer with `capacity` entries of `words_per_line` words.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `words_per_line` is 0 or over 64.
    #[must_use]
    pub fn new(capacity: usize, words_per_line: usize) -> Self {
        assert!(capacity > 0, "write buffer needs at least one entry");
        assert!(
            (1..=64).contains(&words_per_line),
            "words per line must be in 1..=64"
        );
        let empty = WriteEntry {
            line: LineAddr(0),
            word_mask: 0,
            allocated_at: 0,
        };
        WriteBuffer {
            entries: vec![empty; capacity],
            words: vec![0; capacity * words_per_line],
            head: 0,
            len: 0,
            words_per_line,
            stats: WriteBufferStats::default(),
        }
    }

    /// Number of buffered entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no entries are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` when no further entry can be allocated.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.len == self.entries.len()
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> WriteBufferStats {
        self.stats
    }

    /// The ring slot `offset` entries past the head (`offset` is below
    /// the capacity, so one conditional subtract wraps it).
    fn slot_at(&self, offset: usize) -> usize {
        let slot = self.head + offset;
        if slot >= self.entries.len() {
            slot - self.entries.len()
        } else {
            slot
        }
    }

    /// The ring slot of the live entry for `line`, if any.
    fn find(&self, line: LineAddr) -> Option<usize> {
        (0..self.len)
            .map(|i| self.slot_at(i))
            .find(|&slot| self.entries[slot].line == line)
    }

    /// Slot `slot`'s payload words.
    fn slot_words(&mut self, slot: usize) -> &mut [u64] {
        let base = slot * self.words_per_line;
        &mut self.words[base..base + self.words_per_line]
    }

    /// Pushes one store (line, word index, payload) into the buffer.
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range for the configured line.
    pub fn push(&mut self, line: LineAddr, word: usize, value: u64, now: Cycle) -> PushOutcome {
        assert!(word < self.words_per_line, "word index out of range");
        if let Some(slot) = self.find(line) {
            self.entries[slot].word_mask |= 1 << word;
            self.slot_words(slot)[word] = value;
            self.stats.coalesced += 1;
            return PushOutcome::Coalesced;
        }
        if self.is_full() {
            self.stats.full_stalls += 1;
            return PushOutcome::Full;
        }
        let slot = self.slot_at(self.len);
        self.len += 1;
        self.entries[slot] = WriteEntry {
            line,
            word_mask: 1 << word,
            allocated_at: now,
        };
        let words = self.slot_words(slot);
        words.fill(0);
        words[word] = value;
        self.stats.inserted += 1;
        PushOutcome::Inserted
    }

    /// Retires the oldest entry (FIFO), if any, discarding its payload.
    pub fn pop(&mut self) -> Option<WriteEntry> {
        if self.is_empty() {
            return None;
        }
        let entry = self.entries[self.head];
        self.head = self.slot_at(1);
        self.len -= 1;
        self.stats.retired += 1;
        Some(entry)
    }

    /// Retires the oldest entry (FIFO), if any, copying its payload into
    /// `words` (valid where the entry's `word_mask` is set).
    ///
    /// # Panics
    ///
    /// Panics if `words` is not exactly one line.
    pub fn pop_into(&mut self, words: &mut [u64]) -> Option<WriteEntry> {
        let slot = self.head;
        let entry = self.pop()?;
        words.copy_from_slice(self.slot_words(slot));
        Some(entry)
    }

    /// `true` when a load to `line` would hit buffered store data
    /// (store-to-load forwarding from the buffer).
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalescing_merges_same_line() {
        let mut wb = WriteBuffer::new(16, 8);
        assert_eq!(wb.push(LineAddr(9), 1, 10, 0), PushOutcome::Inserted);
        assert_eq!(wb.push(LineAddr(9), 5, 20, 1), PushOutcome::Coalesced);
        assert_eq!(wb.push(LineAddr(9), 1, 30, 2), PushOutcome::Coalesced);
        assert_eq!(wb.len(), 1);
        let mut words = [0u64; 8];
        let e = wb.pop_into(&mut words).unwrap();
        assert_eq!(e.word_mask, (1 << 1) | (1 << 5));
        assert_eq!(words[1], 30, "later store wins");
        assert_eq!(words[5], 20);
        assert_eq!(e.allocated_at, 0);
    }

    #[test]
    fn fifo_retirement_order() {
        let mut wb = WriteBuffer::new(4, 8);
        for i in 0..4 {
            wb.push(LineAddr(i), 0, i, i);
        }
        for i in 0..4 {
            assert_eq!(wb.pop().unwrap().line, LineAddr(i));
        }
        assert!(wb.pop().is_none());
    }

    #[test]
    fn full_buffer_reports_stall() {
        let mut wb = WriteBuffer::new(2, 8);
        wb.push(LineAddr(1), 0, 0, 0);
        wb.push(LineAddr(2), 0, 0, 0);
        assert!(wb.is_full());
        assert_eq!(wb.push(LineAddr(3), 0, 0, 0), PushOutcome::Full);
        // Coalescing still works when full.
        assert_eq!(wb.push(LineAddr(2), 7, 9, 1), PushOutcome::Coalesced);
        assert_eq!(wb.stats().full_stalls, 1);
    }

    #[test]
    fn contains_sees_buffered_lines() {
        let mut wb = WriteBuffer::new(2, 8);
        wb.push(LineAddr(4), 0, 0, 0);
        assert!(wb.contains(LineAddr(4)));
        assert!(!wb.contains(LineAddr(5)));
        wb.pop();
        assert!(!wb.contains(LineAddr(4)));
    }

    #[test]
    fn stats_track_all_outcomes() {
        let mut wb = WriteBuffer::new(1, 8);
        wb.push(LineAddr(1), 0, 0, 0);
        wb.push(LineAddr(1), 1, 0, 0);
        wb.push(LineAddr(2), 0, 0, 0);
        wb.pop();
        let s = wb.stats();
        assert_eq!(s.inserted, 1);
        assert_eq!(s.coalesced, 1);
        assert_eq!(s.full_stalls, 1);
        assert_eq!(s.retired, 1);
    }

    #[test]
    fn ring_slots_are_reused_with_fresh_payloads() {
        let mut wb = WriteBuffer::new(3, 8);
        let mut words = [0u64; 8];
        wb.push(LineAddr(100), 7, 1, 0);
        let mut oldest = (LineAddr(100), 7, 1);
        for round in 0..10u64 {
            let word = (round % 8) as usize;
            wb.push(LineAddr(round), word, 100 + round, round);
            // The oldest entry retires, so the ring head walks every slot
            // and each slot is reused for a different word.
            let entry = wb.pop_into(&mut words).unwrap();
            let mut expected = [0u64; 8];
            expected[oldest.1] = oldest.2;
            assert_eq!(entry.line, oldest.0);
            assert_eq!(words, expected, "a reused slot starts zeroed");
            oldest = (LineAddr(round), word, 100 + round);
        }
    }

    #[test]
    #[should_panic(expected = "word index")]
    fn out_of_range_word_panics() {
        WriteBuffer::new(1, 8).push(LineAddr(0), 8, 0, 0);
    }
}
