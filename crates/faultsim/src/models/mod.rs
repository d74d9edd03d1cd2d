//! Geometry-aware strike models: what one particle actually corrupts.
//!
//! PR 2's campaign injected independent single-bit upsets — the
//! best-possible case for every code in the lineup. Real strikes deposit
//! charge over a physical neighbourhood, and which *logical* bits that
//! neighbourhood holds is decided by the data array's layout
//! ([`aep_mem::ArrayLayout`]). This module defines the strike-model
//! taxonomy, the multi-word flip patterns they produce, and the slug
//! grammar the CLI exposes (`--model burst:2`, `col:4`, `row:8`,
//! `accum:scrub`).
//!
//! * [`StrikeModel::Single`] — today's behavior, bit-for-bit: one word,
//!   one bit (or two with `p_double`), drawn from the same
//!   [`FaultInjector`] stream the PR 2 campaign used.
//! * [`StrikeModel::Burst`] — `k` electrically adjacent bits inside one
//!   word. Layout-independent; even `k` defeats per-word parity outright.
//! * [`StrikeModel::Col`] / [`StrikeModel::Row`] — spatial strikes mapped
//!   through the physical layout ([`spatial`]); bit-interleaving decides
//!   whether they stay inside one codeword.
//! * [`StrikeModel::Accum`] — scrub-interval-dependent error accumulation
//!   ([`accum`]): a latent flip survives between scrub passes and
//!   coincides with a fresh spatial strike in the same codeword,
//!   escalating detectable errors into SECDED miscorrection.

pub mod accum;
pub mod spatial;

use aep_ecc::inject::{FaultInjector, FaultSpec};
use aep_mem::cache::Cache;
use aep_mem::ArrayLayout;
use aep_rng::SmallRng;

/// All bits one strike flips inside a single 64-bit word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordFlips {
    /// Word index within the line.
    pub word: usize,
    /// Flipped bits (XOR mask, never zero in a finished pattern).
    pub mask: u64,
}

/// The full footprint of one strike: flips grouped per word, sorted by
/// word index, with non-zero masks — a canonical form, so two equal
/// patterns compare equal regardless of draw order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StrikePattern {
    flips: Vec<WordFlips>,
}

impl StrikePattern {
    /// Adds one flipped cell. Repeated hits on the same cell stay a
    /// single flip (a particle upsets a cell once; OR semantics).
    pub fn add(&mut self, word: usize, bit: u8) {
        assert!(bit < 64, "bit index out of range");
        match self.flips.iter_mut().find(|f| f.word == word) {
            Some(f) => f.mask |= 1u64 << bit,
            None => {
                self.flips.push(WordFlips {
                    word,
                    mask: 1u64 << bit,
                });
                self.flips.sort_unstable_by_key(|f| f.word);
            }
        }
    }

    /// Replaces the pattern with the single-word footprint of a classic
    /// [`FaultSpec`] draw, reusing its storage.
    pub fn set_spec(&mut self, spec: FaultSpec) {
        self.flips.clear();
        self.flips.push(WordFlips {
            word: spec.word,
            mask: spec.mask(),
        });
    }

    /// Per-word flips, sorted by word index.
    #[must_use]
    pub fn flips(&self) -> &[WordFlips] {
        &self.flips
    }

    /// Total flipped bits across the line.
    #[must_use]
    pub fn total_bits(&self) -> u32 {
        self.flips.iter().map(|f| f.mask.count_ones()).sum()
    }

    /// XORs the pattern into a line image.
    ///
    /// # Panics
    ///
    /// Panics if any struck word is out of range.
    pub fn apply_to(&self, line: &mut [u64]) {
        for f in &self.flips {
            line[f.word] ^= f.mask;
        }
    }

    /// Flips every cell of the pattern in the live cache array, one
    /// [`Cache::strike`] per bit (each one a counted soft-error event).
    pub fn strike_cache(&self, l2: &mut Cache, set: usize, way: usize) {
        for f in &self.flips {
            let mut mask = f.mask;
            while mask != 0 {
                let bit = mask.trailing_zeros() as u8;
                l2.strike(set, way, f.word, bit);
                mask &= mask - 1;
            }
        }
    }
}

#[cfg(test)]
impl StrikePattern {
    /// The footprint one `draw` adds to an empty pattern.
    pub(crate) fn drawn(draw: impl FnOnce(&mut StrikePattern)) -> Self {
        let mut p = StrikePattern::default();
        draw(&mut p);
        p
    }
}

/// Default modeled scrub interval of `accum:scrub`, in cycles.
pub const DEFAULT_SCRUB_CYCLES: u64 = 100_000;

/// How one particle strike is shaped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrikeModel {
    /// Independent single-bit upsets (with the legacy `p_double` same-word
    /// escalation) — the PR 2 campaign, kept draw-for-draw identical.
    Single,
    /// `width` adjacent bits within one word.
    Burst {
        /// Flipped bits (2..=64).
        width: u32,
    },
    /// `span` adjacent columns along one physical row: `min(span, D)`
    /// different words under interleaving degree `D`.
    Col {
        /// Struck adjacent columns (>= 1).
        span: u32,
    },
    /// The same column through `span` adjacent physical rows: one bit in
    /// each of `span` words, `D` words apart.
    Row {
        /// Struck adjacent rows (>= 1).
        span: u32,
    },
    /// Error accumulation between scrub passes: a fresh 4-column spatial
    /// cluster lands on a codeword that, with probability
    /// `scrub / (scrub + mean_gap)`, still carries an unscrubbed latent
    /// flip — the coincident-strike path that turns SECDED's
    /// double-detection into miscorrection.
    Accum {
        /// Modeled scrub interval in cycles.
        scrub_cycles: u64,
    },
}

impl StrikeModel {
    /// Parses the CLI slug grammar: `single`, `burst:K`, `col:K`,
    /// `row:K`, `accum:scrub`, `accum:scrub:CYCLES`.
    #[must_use]
    pub fn parse(slug: &str) -> Option<Self> {
        match slug {
            "single" => return Some(StrikeModel::Single),
            "accum:scrub" => {
                return Some(StrikeModel::Accum {
                    scrub_cycles: DEFAULT_SCRUB_CYCLES,
                })
            }
            _ => {}
        }
        if let Some(n) = slug.strip_prefix("accum:scrub:") {
            let scrub_cycles: u64 = n.parse().ok().filter(|&c| c >= 1)?;
            return Some(StrikeModel::Accum { scrub_cycles });
        }
        let (kind, n) = slug.split_once(':')?;
        let k: u32 = n.parse().ok()?;
        match kind {
            "burst" if (2..=64).contains(&k) => Some(StrikeModel::Burst { width: k }),
            "col" if k >= 1 => Some(StrikeModel::Col { span: k }),
            "row" if k >= 1 => Some(StrikeModel::Row { span: k }),
            _ => None,
        }
    }

    /// The canonical slug (`parse(m.slug()) == Some(m)`).
    #[must_use]
    pub fn slug(&self) -> String {
        match *self {
            StrikeModel::Single => "single".to_owned(),
            StrikeModel::Burst { width } => format!("burst:{width}"),
            StrikeModel::Col { span } => format!("col:{span}"),
            StrikeModel::Row { span } => format!("row:{span}"),
            StrikeModel::Accum { scrub_cycles } if scrub_cycles == DEFAULT_SCRUB_CYCLES => {
                "accum:scrub".to_owned()
            }
            StrikeModel::Accum { scrub_cycles } => format!("accum:scrub:{scrub_cycles}"),
        }
    }

    /// Draws one strike footprint into `out`, replacing what it held and
    /// reusing its storage.
    ///
    /// The [`StrikeModel::Single`] arm consumes exactly one
    /// [`FaultInjector::weighted`] draw and never touches `rng` — that is
    /// what keeps the default model's campaigns byte-identical to the
    /// pre-model driver, which interleaved the same two streams in the
    /// same order. Spatial models draw from `rng` only.
    pub fn draw_into(
        &self,
        layout: &ArrayLayout,
        rng: &mut SmallRng,
        injector: &mut FaultInjector,
        p_double: f64,
        mean_gap_cycles: f64,
        out: &mut StrikePattern,
    ) {
        out.flips.clear();
        match *self {
            StrikeModel::Single => out.set_spec(injector.weighted(layout.words(), p_double)),
            StrikeModel::Burst { width } => spatial::draw_burst(layout, rng, width, out),
            StrikeModel::Col { span } => spatial::draw_col(layout, rng, span, out),
            StrikeModel::Row { span } => spatial::draw_row(layout, rng, span, out),
            StrikeModel::Accum { scrub_cycles } => {
                accum::draw_accum(layout, rng, scrub_cycles, mean_gap_cycles, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slug_roundtrip() {
        for slug in [
            "single",
            "burst:2",
            "burst:64",
            "col:4",
            "row:8",
            "accum:scrub",
            "accum:scrub:5000",
        ] {
            let m = StrikeModel::parse(slug).unwrap_or_else(|| panic!("{slug} must parse"));
            assert_eq!(m.slug(), slug, "canonical slug roundtrip");
        }
        assert_eq!(
            StrikeModel::parse("accum:scrub:100000"),
            Some(StrikeModel::Accum {
                scrub_cycles: DEFAULT_SCRUB_CYCLES
            }),
            "explicit default interval parses"
        );
    }

    #[test]
    fn bad_slugs_are_rejected() {
        for slug in [
            "",
            "burst",
            "burst:0",
            "burst:1",
            "burst:65",
            "col:0",
            "row:0",
            "accum",
            "accum:scrub:0",
            "accum:flush",
            "nosuch",
            "single:2",
        ] {
            assert_eq!(StrikeModel::parse(slug), None, "{slug:?} must not parse");
        }
    }

    #[test]
    fn pattern_is_canonical_under_draw_order() {
        let mut a = StrikePattern::default();
        a.add(5, 3);
        a.add(1, 0);
        a.add(5, 3); // duplicate cell: OR semantics
        a.add(5, 4);
        let mut b = StrikePattern::default();
        b.add(5, 4);
        b.add(5, 3);
        b.add(1, 0);
        assert_eq!(a, b);
        assert_eq!(a.total_bits(), 3);
        assert_eq!(a.flips()[0].word, 1, "sorted by word");
    }

    #[test]
    fn apply_to_matches_strike_cache_footprint() {
        let mut p = StrikePattern::default();
        p.add(0, 7);
        p.add(2, 63);
        p.add(2, 0);
        let mut line = vec![0u64; 4];
        p.apply_to(&mut line);
        assert_eq!(line, vec![1 << 7, 0, (1 << 63) | 1, 0]);
        // Applying twice cancels (XOR).
        p.apply_to(&mut line);
        assert_eq!(line, vec![0; 4]);
    }

    #[test]
    fn from_spec_preserves_the_injector_footprint() {
        let spec = FaultSpec {
            word: 3,
            bit: 10,
            second_bit: Some(44),
        };
        let mut p = StrikePattern::default();
        p.add(0, 1);
        p.add(5, 2);
        p.set_spec(spec);
        assert_eq!(p.flips().len(), 1, "replaces what the pattern held");
        assert_eq!(p.flips()[0].word, 3);
        assert_eq!(p.flips()[0].mask, (1 << 10) | (1 << 44));
    }
}
