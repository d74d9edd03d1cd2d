//! The error-accumulation engine: scrub-interval-dependent coincident
//! strikes.
//!
//! Latent flips are not scrubbed instantly — they persist until the next
//! scrub pass visits the word. When a fresh spatial strike lands in a
//! codeword that still carries a latent flip, the combined footprint has
//! one more error than the code was sized for, and SECDED's guarantees
//! invert: an odd total of three-plus flips produces an *odd* overall
//! parity, so the decoder takes its single-error-correction arm, follows
//! an aliased syndrome, and hands back a wrong-but-"corrected" word —
//! miscorrection, the dominant SDC mechanism of the on-die-ECC literature
//! (HARP, Patel).
//!
//! Rather than simulating scrub passes cycle-by-cycle across a campaign's
//! millions of independent trials, the engine samples the *stationary*
//! coincidence: with strikes a mean of `gap` cycles apart and a scrub
//! visiting each word every `scrub` cycles, the previous strike on the
//! struck codeword is still unscrubbed with probability
//! `scrub / (scrub + gap)` (the memoryless race between the next strike
//! and the next scrub pass). That is an *accelerated* coincidence model —
//! campaigns strike one line at a time, so a per-trial latent bit stands
//! in for the array-wide accumulation — but the escalation chain it
//! exercises (detectable → miscorrected → SDC) is the real decoder path,
//! not a modeled one.
//!
//! Interleaving defuses it: at degree `D >= 4`, the fresh 4-column
//! cluster contributes at most one flip per codeword, so latent + fresh
//! is at most a double — detected, never miscorrected.

use aep_mem::ArrayLayout;
use aep_rng::SmallRng;

use super::{spatial, StrikePattern};

/// Width of the fresh spatial cluster accompanying the latent flip.
pub const CLUSTER_COLUMNS: u32 = 4;

/// Probability that a latent flip still sits in the struck codeword when
/// the fresh strike arrives.
#[must_use]
pub fn latent_probability(scrub_cycles: u64, mean_gap_cycles: f64) -> f64 {
    let scrub = scrub_cycles as f64;
    scrub / (scrub + mean_gap_cycles.max(1.0))
}

/// Draws one accumulation event: a fresh 4-adjacent-column cluster plus,
/// with [`latent_probability`], one latent flip in the first struck word
/// (the codeword the scrub pass has not reached yet), drawn into the
/// empty pattern `p`.
pub fn draw_accum(
    layout: &ArrayLayout,
    rng: &mut SmallRng,
    scrub_cycles: u64,
    mean_gap_cycles: f64,
    p: &mut StrikePattern,
) {
    spatial::draw_col(layout, rng, CLUSTER_COLUMNS, p);
    let u: f64 = rng.gen();
    if u < latent_probability(scrub_cycles, mean_gap_cycles) {
        let first = p.flips()[0];
        // A latent flip occupies a cell the fresh cluster did not hit.
        let mut bit = rng.gen_range(0..64usize) as u8;
        while first.mask & (1u64 << bit) != 0 {
            bit = (bit + 1) % 64;
        }
        p.add(first.word, bit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latent_probability_tracks_the_scrub_race() {
        // Slow scrub, fast strikes: almost always coincident.
        assert!(latent_probability(1_000_000, 100.0) > 0.99);
        // Fast scrub, slow strikes: almost never.
        assert!(latent_probability(10, 10_000.0) < 0.01);
        let p = latent_probability(2_000, 2_000.0);
        assert!((p - 0.5).abs() < 1e-12, "equal races split evenly");
    }

    #[test]
    fn linear_layout_concentrates_latent_plus_cluster_in_one_word() {
        let layout = ArrayLayout::linear(8);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut fives = 0;
        for _ in 0..200 {
            let p = StrikePattern::drawn(|p| draw_accum(&layout, &mut rng, 1_000_000, 100.0, p));
            assert_eq!(p.flips().len(), 1, "D=1 keeps the whole event in one word");
            let bits = p.total_bits();
            assert!(bits == 4 || bits == 5, "cluster (+ latent), got {bits}");
            if bits == 5 {
                fives += 1;
            }
        }
        assert!(fives > 150, "latent flips must dominate at this scrub rate");
    }

    #[test]
    fn interleave_four_caps_every_codeword_at_a_double() {
        let layout = ArrayLayout::new(8, 4);
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..500 {
            let p = StrikePattern::drawn(|p| draw_accum(&layout, &mut rng, 1_000_000, 100.0, p));
            for f in p.flips() {
                assert!(
                    f.mask.count_ones() <= 2,
                    "D=4 must leave latent+fresh at most double per word"
                );
            }
            assert!(
                p.flips()
                    .iter()
                    .filter(|f| f.mask.count_ones() == 2)
                    .count()
                    <= 1,
                "only the latent word can reach two flips"
            );
        }
    }

    #[test]
    fn latent_bit_never_collides_with_the_cluster() {
        let layout = ArrayLayout::linear(8);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..500 {
            let p = StrikePattern::drawn(|p| draw_accum(&layout, &mut rng, 1_000_000, 100.0, p));
            // OR semantics: total bits equals the popcount of the union,
            // so a collision would have shown as 4 bits with latent drawn.
            assert!(p.total_bits() >= 4);
        }
    }
}
