//! Error-detecting and error-correcting code substrate for the
//! *Area-Efficient Error Protection for Caches* (DATE 2006) reproduction.
//!
//! This crate implements, bit-for-bit, the coding circuits the paper's cache
//! protection schemes rely on:
//!
//! * [`parity`] — simple parity check codes, including the Itanium-style
//!   interleaved scheme of **one check bit per 64 data bits** used for clean
//!   cache lines, tag arrays, and status bits.
//! * [`hamming`] — **SECDED Hamming(72,64)**: single-error-correcting,
//!   double-error-detecting code with 8 check bits per 64 data bits, the code
//!   the paper (and POWER4 / Itanium) uses for dirty lines.
//! * [`inject`] — the deterministic, seeded single/double-bit fault draw
//!   behind the live fault-injection campaigns (`aep-faultsim`).
//! * [`area`] — check-bit overhead accounting ([`area::CodeArea`]) used by
//!   the paper's area model (conventional 132 KB vs. proposed 54 KB).
//!
//! # Quick example
//!
//! ```
//! use aep_ecc::hamming::Secded64;
//! use aep_ecc::Decoded;
//!
//! let code = Secded64::new();
//! let data = 0xDEAD_BEEF_CAFE_F00Du64;
//! let check = code.encode(data);
//!
//! // A single flipped data bit is corrected:
//! let corrupted = data ^ (1 << 17);
//! match code.decode(corrupted, check) {
//!     Decoded::Corrected { data: d, .. } => assert_eq!(d, data),
//!     other => panic!("expected correction, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod hamming;
pub mod inject;
pub mod parity;

pub use area::CodeArea;
pub use hamming::Secded64;
pub use inject::{FaultInjector, FaultSpec};
pub use parity::{InterleavedParity, ParityBit};

/// Outcome of decoding a protected word.
///
/// Returned by [`Secded64::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decoded {
    /// Data and check bits are consistent; no error observed.
    Clean {
        /// The (unchanged) data word.
        data: u64,
    },
    /// A single-bit error was detected and corrected.
    Corrected {
        /// The corrected data word.
        data: u64,
        /// Which bit was repaired.
        flipped: FlippedBit,
    },
    /// An uncorrectable error (two or more flipped bits) was detected.
    Uncorrectable,
}

impl Decoded {
    /// The decoded data, if the word was clean or correctable.
    #[must_use]
    pub fn data(self) -> Option<u64> {
        match self {
            Decoded::Clean { data } | Decoded::Corrected { data, .. } => Some(data),
            Decoded::Uncorrectable => None,
        }
    }

    /// `true` when no error at all was observed.
    #[must_use]
    pub fn is_clean(self) -> bool {
        matches!(self, Decoded::Clean { .. })
    }

    /// `true` when an error was observed (corrected or not).
    #[must_use]
    pub fn is_error(self) -> bool {
        !self.is_clean()
    }
}

/// Location of a corrected single-bit error inside a SECDED codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlippedBit {
    /// A bit in the 64-bit data word (0 = LSB).
    Data(u8),
    /// A bit in the 8-bit check field (0 = LSB).
    Check(u8),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decoded_data_accessor() {
        assert_eq!(Decoded::Clean { data: 7 }.data(), Some(7));
        assert_eq!(
            Decoded::Corrected {
                data: 9,
                flipped: FlippedBit::Data(3)
            }
            .data(),
            Some(9)
        );
        assert_eq!(Decoded::Uncorrectable.data(), None);
    }

    #[test]
    fn decoded_predicates() {
        assert!(Decoded::Clean { data: 0 }.is_clean());
        assert!(!Decoded::Clean { data: 0 }.is_error());
        assert!(Decoded::Uncorrectable.is_error());
        assert!(Decoded::Corrected {
            data: 0,
            flipped: FlippedBit::Check(1)
        }
        .is_error());
    }

    #[test]
    fn types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Decoded>();
    }
}
