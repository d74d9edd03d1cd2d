//! Parity check codes.
//!
//! The paper protects clean L2 lines, the tag array, and the status bits with
//! simple parity: *"Every 64 bits data requires 1 bit parity check code as in
//! Itanium processor"*. Parity detects any odd number of flipped bits but
//! corrects nothing; it is sufficient for state that can be re-fetched from
//! the next level of the memory hierarchy.

/// A single even-parity check bit over a 64-bit word.
///
/// Even parity: the check bit is chosen so that the total number of set bits
/// in (data, check) is even. Any odd number of bit flips is detected.
///
/// ```
/// use aep_ecc::parity::ParityBit;
///
/// let p = ParityBit::encode(0b1011);
/// assert!(ParityBit::verify(0b1011, p));
/// assert!(!ParityBit::verify(0b1010, p)); // one bit flipped: detected
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ParityBit;

impl ParityBit {
    /// Computes the even-parity bit for `data`.
    #[must_use]
    pub fn encode(data: u64) -> bool {
        data.count_ones() % 2 == 1
    }

    /// Checks `data` against a previously computed parity bit.
    ///
    /// Returns `true` when parity is consistent (no error, or an undetectable
    /// even number of flips).
    #[must_use]
    pub fn verify(data: u64, parity: bool) -> bool {
        Self::encode(data) == parity
    }
}

/// Itanium-style interleaved parity over an arbitrary-length line:
/// one even-parity bit per 64-bit data word.
///
/// For the paper's 64-byte L2 line this yields 8 parity bits per line
/// (1 byte), i.e. a 1.5625 % storage overhead versus 12.5 % for SECDED.
///
/// ```
/// use aep_ecc::parity::InterleavedParity;
///
/// let line = [0u64, 1, 2, 3, 4, 5, 6, 7]; // a 64-byte cache line
/// let code = InterleavedParity::encode(&line);
/// assert_eq!(code.bits(), 8);
/// assert!(InterleavedParity::verify(&line, code).is_ok());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct InterleavedParity {
    /// Parity bit *i* covers data word *i*; up to 64 words per line.
    mask: u64,
    words: u8,
}

/// A parity mismatch detected by [`InterleavedParity::verify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParityError {
    /// Index of the first 64-bit word whose parity check failed.
    pub word: usize,
}

impl core::fmt::Display for ParityError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "parity mismatch in 64-bit word {}", self.word)
    }
}

impl std::error::Error for ParityError {}

impl InterleavedParity {
    /// Most words a protected line may hold: one parity bit each in a
    /// 64-bit mask.
    pub const MAX_WORDS: usize = 64;

    /// Encodes one parity bit per 64-bit word of `line`.
    ///
    /// # Panics
    ///
    /// Panics if `line` has more than [`Self::MAX_WORDS`] words (4 KB);
    /// cache lines are far smaller in practice.
    #[must_use]
    pub fn encode(line: &[u64]) -> Self {
        assert!(
            line.len() <= Self::MAX_WORDS,
            "line too long for interleaved parity"
        );
        let mut mask = 0u64;
        for (i, &w) in line.iter().enumerate() {
            if ParityBit::encode(w) {
                mask |= 1 << i;
            }
        }
        InterleavedParity {
            mask,
            words: line.len() as u8,
        }
    }

    /// Number of parity (check) bits stored for the encoded line.
    #[must_use]
    pub fn bits(self) -> u32 {
        u32::from(self.words)
    }

    /// Verifies `line` against this parity code.
    ///
    /// # Errors
    ///
    /// Returns [`ParityError`] identifying the first mismatching word when
    /// any per-word parity check fails.
    ///
    /// # Panics
    ///
    /// Panics if `line` has a different number of words than was encoded.
    pub fn verify(line: &[u64], code: Self) -> Result<(), ParityError> {
        assert_eq!(
            line.len(),
            code.words as usize,
            "line length must match the encoded line"
        );
        let fresh = Self::encode(line);
        if fresh.mask == code.mask {
            Ok(())
        } else {
            let diff = fresh.mask ^ code.mask;
            Err(ParityError {
                word: diff.trailing_zeros() as usize,
            })
        }
    }

    /// The raw parity-bit vector (bit *i* covers word *i*).
    #[must_use]
    pub fn raw_mask(self) -> u64 {
        self.mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_bit_zero_word() {
        assert!(!ParityBit::encode(0));
        assert!(ParityBit::verify(0, false));
    }

    #[test]
    fn parity_bit_all_ones() {
        // 64 set bits -> even -> parity bit false.
        assert!(!ParityBit::encode(u64::MAX));
    }

    #[test]
    fn parity_detects_every_single_bit_flip() {
        let data = 0xA5A5_5A5A_DEAD_BEEFu64;
        let p = ParityBit::encode(data);
        for bit in 0..64 {
            assert!(
                !ParityBit::verify(data ^ (1 << bit), p),
                "flip of bit {bit} went undetected"
            );
        }
    }

    #[test]
    fn parity_misses_double_bit_flips() {
        // Documented limitation: even numbers of flips are invisible.
        let data = 0x0123_4567_89AB_CDEFu64;
        let p = ParityBit::encode(data);
        assert!(ParityBit::verify(data ^ 0b11, p));
    }

    #[test]
    fn interleaved_roundtrip() {
        let line = [0xFFu64, 0, 0x8000_0000_0000_0000, 7, 1, 2, 3, 4];
        let code = InterleavedParity::encode(&line);
        assert!(InterleavedParity::verify(&line, code).is_ok());
    }

    #[test]
    fn interleaved_reports_first_bad_word() {
        let mut line = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let code = InterleavedParity::encode(&line);
        line[5] ^= 1 << 63;
        let err = InterleavedParity::verify(&line, code).unwrap_err();
        assert_eq!(err.word, 5);
        assert_eq!(err.to_string(), "parity mismatch in 64-bit word 5");
    }

    #[test]
    fn interleaved_bits_matches_word_count() {
        assert_eq!(InterleavedParity::encode(&[0; 8]).bits(), 8);
        assert_eq!(InterleavedParity::encode(&[0; 4]).bits(), 4);
        assert_eq!(InterleavedParity::encode(&[]).bits(), 0);
    }

    #[test]
    #[should_panic(expected = "line length must match")]
    fn interleaved_length_mismatch_panics() {
        let code = InterleavedParity::encode(&[0u64; 8]);
        let _ = InterleavedParity::verify(&[0u64; 4], code);
    }

    #[test]
    fn interleaved_detects_flip_in_each_word() {
        let line: Vec<u64> = (0..8).map(|i| 0x1111_1111_1111_1111u64 * i).collect();
        let code = InterleavedParity::encode(&line);
        for w in 0..8 {
            for bit in [0usize, 13, 63] {
                let mut bad = line.clone();
                bad[w] ^= 1 << bit;
                let err = InterleavedParity::verify(&bad, code).unwrap_err();
                assert_eq!(err.word, w);
            }
        }
    }
}
