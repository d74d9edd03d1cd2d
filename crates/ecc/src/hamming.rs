//! SECDED Hamming(72,64): the dirty-line code.
//!
//! The paper's dirty cache lines are protected by the industry-standard
//! single-error-correction / double-error-detection code: **8 check bits per
//! 64 data bits** (an extended Hamming code), exactly as in the Itanium and
//! POWER4 L2/L3 caches it cites. This module implements the code as a real
//! encoder/decoder, not a model: syndromes are computed, single-bit errors
//! are located and repaired, and double-bit errors are flagged.
//!
//! # Construction
//!
//! The codeword occupies positions `1..=71`. Positions that are powers of
//! two (1, 2, 4, 8, 16, 32, 64) hold the seven Hamming check bits; the
//! remaining 64 positions hold the data bits in LSB-first order. An eighth
//! *overall parity* bit covers the entire 71-bit word, upgrading the
//! single-error-correcting Hamming code to SECDED.

use crate::{Decoded, FlippedBit};

/// Number of check bits in the (72,64) code.
pub const CHECK_BITS: u32 = 8;
/// Number of data bits covered by one codeword.
pub const DATA_BITS: u32 = 64;
/// Highest occupied codeword position (data + 7 Hamming checks).
const TOP_POSITION: u32 = 71;
/// Marks a codeword position that holds no data bit.
const NO_DATA: u8 = u8::MAX;

/// `DATA_POSITION[i]` = codeword position (1-based) of data bit `i`: the
/// non-power-of-two positions in ascending order.
const DATA_POSITION: [u8; DATA_BITS as usize] = {
    let mut out = [0u8; DATA_BITS as usize];
    let mut next = 0;
    let mut pos = 1u32;
    while pos <= TOP_POSITION {
        if !pos.is_power_of_two() {
            out[next] = pos as u8;
            next += 1;
        }
        pos += 1;
    }
    assert!(next == DATA_BITS as usize);
    out
};

/// `POSITION_TO_DATA[p]` = the data bit at codeword position `p`, or
/// [`NO_DATA`] for check-bit slots and positions past the codeword.
const POSITION_TO_DATA: [u8; 128] = {
    let mut out = [NO_DATA; 128];
    let mut bit = 0;
    while bit < DATA_BITS as usize {
        out[DATA_POSITION[bit] as usize] = bit as u8;
        bit += 1;
    }
    out
};

/// The check byte of the single-bit word `1 << bit`: Hamming checks
/// `c0..c6` are the bits of the data bit's position, and the overall
/// parity covers the data bit plus every Hamming check it toggles.
const fn single_bit_check(bit: usize) -> u8 {
    let hamming = DATA_POSITION[bit];
    let overall = (1 + hamming.count_ones() as u8) & 1;
    hamming | (overall << 7)
}

/// Byte-sliced encoder: `ENCODE[k][b]` is the check byte of the word whose
/// only set bits are byte `b` at byte lane `k`. Every check bit is a GF(2)
/// linear function of the data, so a word's check byte is the XOR of its
/// eight lanes' entries.
static ENCODE: [[u8; 256]; 8] = {
    let mut table = [[0u8; 256]; 8];
    let mut lane = 0;
    while lane < 8 {
        let mut byte = 1usize;
        while byte < 256 {
            // Extend from the entry without the lowest set bit.
            let low = byte.trailing_zeros() as usize;
            table[lane][byte] = table[lane][byte & (byte - 1)] ^ single_bit_check(lane * 8 + low);
            byte += 1;
        }
        lane += 1;
    }
    table
};

/// A SECDED Hamming(72,64) encoder/decoder.
///
/// A zero-sized strategy object: the position layout and the byte-sliced
/// encode table are compile-time constants shared by every instance, so
/// encoding is eight table lookups XORed together.
///
/// ```
/// use aep_ecc::hamming::Secded64;
///
/// let code = Secded64::new();
/// let check = code.encode(42);
/// assert!(code.decode(42, check).is_clean());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Secded64 {
    _private: (),
}

impl Secded64 {
    /// The (72,64) code.
    #[must_use]
    pub const fn new() -> Self {
        Secded64 { _private: () }
    }

    /// Encodes `data`, returning the 8 check bits.
    ///
    /// Layout of the returned byte: bits 0–6 are Hamming check bits
    /// `c0..c6` (covering positions with index bit `i` set); bit 7 is the
    /// overall SECDED parity over the 71-bit Hamming word.
    #[must_use]
    #[inline]
    pub fn encode(&self, data: u64) -> u8 {
        let b = data.to_le_bytes();
        ENCODE[0][b[0] as usize]
            ^ ENCODE[1][b[1] as usize]
            ^ ENCODE[2][b[2] as usize]
            ^ ENCODE[3][b[3] as usize]
            ^ ENCODE[4][b[4] as usize]
            ^ ENCODE[5][b[5] as usize]
            ^ ENCODE[6][b[6] as usize]
            ^ ENCODE[7][b[7] as usize]
    }

    /// Decodes a `(data, check)` pair, correcting a single flipped bit.
    ///
    /// Returns [`Decoded::Clean`] when consistent, [`Decoded::Corrected`]
    /// with the repaired word for any single-bit flip (data or check), and
    /// [`Decoded::Uncorrectable`] for double-bit (and detectable multi-bit)
    /// errors.
    #[must_use]
    pub fn decode(&self, data: u64, check: u8) -> Decoded {
        // Recomputed XOR stored: the low seven bits are the Hamming
        // syndrome, and the parity of the whole byte is the overall-parity
        // mismatch over the stored 72-bit codeword.
        let diff = self.encode(data) ^ check;
        let syndrome = u32::from(diff & 0x7F);
        let overall_mismatch = diff.count_ones() % 2 == 1;

        match (syndrome, overall_mismatch) {
            (0, false) => Decoded::Clean { data },
            (0, true) => {
                // Only the overall parity bit itself flipped.
                Decoded::Corrected {
                    data,
                    flipped: FlippedBit::Check(7),
                }
            }
            (s, true) => {
                // Odd number of flips; a single flip at position `s`.
                if s > TOP_POSITION {
                    // Syndrome points outside the codeword: >=3 flips.
                    return Decoded::Uncorrectable;
                }
                if s.is_power_of_two() {
                    // A Hamming check bit flipped; data is intact.
                    let idx = s.trailing_zeros() as u8;
                    Decoded::Corrected {
                        data,
                        flipped: FlippedBit::Check(idx),
                    }
                } else {
                    let bit = POSITION_TO_DATA[s as usize];
                    Decoded::Corrected {
                        data: data ^ (1u64 << bit),
                        flipped: FlippedBit::Data(bit),
                    }
                }
            }
            (_, false) => {
                // Non-zero syndrome but even overall parity: double error.
                Decoded::Uncorrectable
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code() -> Secded64 {
        Secded64::new()
    }

    #[test]
    fn clean_roundtrip() {
        let c = code();
        for data in [
            0u64,
            1,
            u64::MAX,
            0xDEAD_BEEF_0BAD_F00D,
            0x8000_0000_0000_0001,
        ] {
            let check = c.encode(data);
            assert_eq!(c.decode(data, check), Decoded::Clean { data });
        }
    }

    #[test]
    fn corrects_every_single_data_bit_flip() {
        let c = code();
        let data = 0x0123_4567_89AB_CDEFu64;
        let check = c.encode(data);
        for bit in 0..64u8 {
            let corrupted = data ^ (1u64 << bit);
            match c.decode(corrupted, check) {
                Decoded::Corrected { data: d, flipped } => {
                    assert_eq!(d, data, "bit {bit} not repaired");
                    assert_eq!(flipped, FlippedBit::Data(bit));
                }
                other => panic!("bit {bit}: expected correction, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrects_every_single_check_bit_flip() {
        let c = code();
        let data = 0xFEDC_BA98_7654_3210u64;
        let check = c.encode(data);
        for bit in 0..8u8 {
            let corrupted_check = check ^ (1 << bit);
            match c.decode(data, corrupted_check) {
                Decoded::Corrected { data: d, flipped } => {
                    assert_eq!(d, data);
                    assert_eq!(flipped, FlippedBit::Check(bit));
                }
                other => panic!("check bit {bit}: expected correction, got {other:?}"),
            }
        }
    }

    #[test]
    fn detects_all_double_data_bit_flips() {
        // Exhaustive over all C(64,2) = 2016 pairs for one word.
        let c = code();
        let data = 0xA5A5_5A5A_0F0F_F0F0u64;
        let check = c.encode(data);
        for i in 0..64u8 {
            for j in (i + 1)..64u8 {
                let corrupted = data ^ (1u64 << i) ^ (1u64 << j);
                assert_eq!(
                    c.decode(corrupted, check),
                    Decoded::Uncorrectable,
                    "double flip ({i},{j}) not detected"
                );
            }
        }
    }

    #[test]
    fn detects_double_flips_spanning_data_and_check() {
        let c = code();
        let data = 0x1357_9BDF_2468_ACE0u64;
        let check = c.encode(data);
        for d in [0u8, 17, 63] {
            for k in 0..8u8 {
                let decoded = c.decode(data ^ (1u64 << d), check ^ (1 << k));
                assert_eq!(
                    decoded,
                    Decoded::Uncorrectable,
                    "data bit {d} + check bit {k} flip not detected"
                );
            }
        }
    }

    #[test]
    fn detects_double_check_bit_flips() {
        let c = code();
        let data = 42u64;
        let check = c.encode(data);
        for i in 0..8u8 {
            for j in (i + 1)..8u8 {
                let decoded = c.decode(data, check ^ (1 << i) ^ (1 << j));
                assert_eq!(decoded, Decoded::Uncorrectable, "check flips ({i},{j})");
            }
        }
    }

    /// SECDED's blind spot, measured: a triple-bit flip has odd overall
    /// parity, so the decoder treats it as a single-bit error and
    /// "corrects" along the syndrome — which for most triples lands on a
    /// fourth bit, yielding `Corrected` with a *wrong* word. This is the
    /// miscorrection path the fault campaign must classify as SDC, not as
    /// a successful correction.
    #[test]
    fn triple_flips_miscorrect_to_a_wrong_word() {
        let c = code();
        let data = 0x0123_4567_89AB_CDEFu64;
        let check = c.encode(data);
        let mut miscorrected = 0u32;
        let mut due = 0u32;
        for i in 0..64u8 {
            for j in (i + 1)..64u8 {
                for k in (j + 1)..64u8 {
                    let corrupted = data ^ (1u64 << i) ^ (1u64 << j) ^ (1u64 << k);
                    match c.decode(corrupted, check) {
                        Decoded::Corrected { data: d, .. } => {
                            // A triple flip can never be repaired back to
                            // the true word — the decoder flips at most
                            // one more bit.
                            assert_ne!(
                                d, data,
                                "triple ({i},{j},{k}) impossibly repaired to the original"
                            );
                            miscorrected += 1;
                        }
                        Decoded::Uncorrectable => due += 1,
                        Decoded::Clean { .. } => {
                            panic!("triple ({i},{j},{k}) read back clean")
                        }
                    }
                }
            }
        }
        // Both outcomes are well-populated: miscorrection is the common
        // case (the syndrome usually lands on a valid data position), DUE
        // the minority (syndrome on a check position or out of range).
        assert!(miscorrected > 0, "no triple miscorrected");
        assert!(due > 0, "no triple detected as uncorrectable");
        assert!(
            miscorrected > due,
            "expected miscorrection to dominate: {miscorrected} vs {due}"
        );
    }

    /// One deterministic, seeded miscorrection witness — the exact pattern
    /// the faultsim accumulation test relies on — plus the cross-check
    /// that plain parity *does* flag the same odd-count corruption.
    #[test]
    fn seeded_triple_flip_is_flagged_by_parity_but_not_secded() {
        let c = code();
        let data = 0xDEAD_BEEF_0BAD_F00Du64;
        let check = c.encode(data);
        // Find the first miscorrecting triple so the witness stays stable
        // under any future table change.
        let witness = (0..64u8)
            .flat_map(|i| (i + 1..64).map(move |j| (i, j)))
            .flat_map(|(i, j)| (j + 1..64).map(move |k| (i, j, k)))
            .find_map(|(i, j, k)| {
                let corrupted = data ^ (1u64 << i) ^ (1u64 << j) ^ (1u64 << k);
                match c.decode(corrupted, check) {
                    Decoded::Corrected { data: d, .. } => Some((corrupted, d)),
                    _ => None,
                }
            })
            .expect("some triple miscorrects");
        let (corrupted, wrong) = witness;
        assert_ne!(wrong, data);
        // The same corruption has odd weight, so a per-word parity bit
        // sees it even though SECDED silently mis-"corrects" it.
        let parity = crate::parity::ParityBit::encode(data);
        assert!(!crate::parity::ParityBit::verify(corrupted, parity));
        // The phantom repair flips at most one more bit (a data bit, or
        // none when the syndrome points at a check position), so the wrong
        // word sits within Hamming distance 4 of the truth while the
        // decoder reports success.
        assert!((wrong ^ data).count_ones() <= 4);
    }

    #[test]
    fn encoding_is_deterministic_and_sensitive() {
        let c = code();
        let a = c.encode(1000);
        let b = c.encode(1001);
        assert_eq!(c.encode(1000), a);
        assert_eq!(c.encode(1001), b);
        // Words differing in one bit must differ in their check bits,
        // otherwise that data flip would be undetectable.
        assert_ne!(a, b);
    }

    #[test]
    fn default_equals_new() {
        assert_eq!(Secded64::default(), Secded64::new());
    }
}

/// The table encoder checked against the textbook construction it
/// replaced: one masked popcount per Hamming check bit, plus an explicit
/// overall-parity pass, decoded by recomputing every check separately.
#[cfg(test)]
mod oracle {
    use super::*;
    use aep_rng::SmallRng;

    /// The masked-popcount reference code.
    struct Reference {
        /// `check_mask[c]` selects the data bits covered by Hamming check `c`.
        check_mask: [u64; 7],
    }

    impl Reference {
        fn new() -> Self {
            let mut check_mask = [0u64; 7];
            for (bit, &pos) in DATA_POSITION.iter().enumerate() {
                for (c, mask) in check_mask.iter_mut().enumerate() {
                    if pos & (1 << c) != 0 {
                        *mask |= 1u64 << bit;
                    }
                }
            }
            Reference { check_mask }
        }

        fn check_bit(&self, data: u64, c: u32) -> bool {
            (data & self.check_mask[c as usize]).count_ones() % 2 == 1
        }

        fn overall_parity(data: u64, hamming_check: u8) -> bool {
            (data.count_ones() + u32::from(hamming_check & 0x7F).count_ones()) % 2 == 1
        }

        fn encode(&self, data: u64) -> u8 {
            let mut check = 0u8;
            for c in 0..7u32 {
                if self.check_bit(data, c) {
                    check |= 1 << c;
                }
            }
            if Self::overall_parity(data, check) {
                check |= 1 << 7;
            }
            check
        }

        fn decode(&self, data: u64, check: u8) -> Decoded {
            let mut syndrome = 0u32;
            for c in 0..7u32 {
                if self.check_bit(data, c) != (check & (1 << c) != 0) {
                    syndrome |= 1 << c;
                }
            }
            let overall_mismatch =
                Self::overall_parity(data, check & 0x7F) != (check & (1 << 7) != 0);
            match (syndrome, overall_mismatch) {
                (0, false) => Decoded::Clean { data },
                (0, true) => Decoded::Corrected {
                    data,
                    flipped: FlippedBit::Check(7),
                },
                (s, true) if s > TOP_POSITION => Decoded::Uncorrectable,
                (s, true) if s.is_power_of_two() => Decoded::Corrected {
                    data,
                    flipped: FlippedBit::Check(s.trailing_zeros() as u8),
                },
                (s, true) => match DATA_POSITION.iter().position(|&p| u32::from(p) == s) {
                    Some(bit) => Decoded::Corrected {
                        data: data ^ (1u64 << bit),
                        flipped: FlippedBit::Data(bit as u8),
                    },
                    None => Decoded::Uncorrectable,
                },
                (_, false) => Decoded::Uncorrectable,
            }
        }
    }

    /// Flips codeword bit `k` of `(data, check)`: `0..64` are data bits,
    /// `64..72` are check bits.
    fn flip(data: u64, check: u8, k: u32) -> (u64, u8) {
        if k < 64 {
            (data ^ (1u64 << k), check)
        } else {
            (data, check ^ (1 << (k - 64)))
        }
    }

    fn assert_decodes_alike(reference: &Reference, data: u64, check: u8) {
        assert_eq!(
            Secded64::new().decode(data, check),
            reference.decode(data, check),
            "decode({data:#018x}, {check:#04x})"
        );
    }

    #[test]
    fn table_encoder_matches_masked_popcounts() {
        let reference = Reference::new();
        let code = Secded64::new();
        let mut words = vec![0u64, u64::MAX];
        words.extend((0..64).map(|bit| 1u64 << bit));
        let mut rng = SmallRng::seed_from_u64(0x5EC_DED);
        words.extend((0..100_000).map(|_| rng.next_u64()));
        for data in words {
            assert_eq!(code.encode(data), reference.encode(data), "{data:#018x}");
        }
    }

    #[test]
    fn decode_matches_reference_on_every_single_and_double_flip() {
        let reference = Reference::new();
        let mut rng = SmallRng::seed_from_u64(0xD0_0B1E);
        for data in [0u64, u64::MAX, rng.next_u64(), rng.next_u64()] {
            let check = reference.encode(data);
            assert_decodes_alike(&reference, data, check);
            for i in 0..72 {
                let (d1, c1) = flip(data, check, i);
                assert_decodes_alike(&reference, d1, c1);
                for j in (i + 1)..72 {
                    let (d2, c2) = flip(d1, c1, j);
                    assert_decodes_alike(&reference, d2, c2);
                }
            }
        }
    }

    #[test]
    fn decode_matches_reference_on_sampled_triple_flips() {
        let reference = Reference::new();
        let mut rng = SmallRng::seed_from_u64(0x7_1217_F11B);
        for _ in 0..20_000 {
            let data = rng.next_u64();
            let check = reference.encode(data);
            let i = rng.gen_range(0..72u32);
            let mut j = rng.gen_range(0..71u32);
            if j >= i {
                j += 1;
            }
            let mut k = rng.gen_range(0..72u32);
            while k == i || k == j {
                k = rng.gen_range(0..72u32);
            }
            let (d, c) = flip(data, check, i);
            let (d, c) = flip(d, c, j);
            let (d, c) = flip(d, c, k);
            assert_decodes_alike(&reference, d, c);
        }
    }
}
