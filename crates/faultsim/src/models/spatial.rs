//! Spatial strike draws: bursts, column strikes, and row strikes mapped
//! through the physical [`ArrayLayout`].
//!
//! Each draw picks a uniformly random anchor and flips a contiguous
//! physical neighbourhood. Spans larger than the physical extent clamp to
//! it (a particle cannot corrupt cells that do not exist), so every slug
//! is valid for every geometry and the clamped footprint is still the
//! worst case that geometry admits.

use aep_mem::ArrayLayout;
use aep_rng::SmallRng;

use super::StrikePattern;

/// `width` adjacent bits inside one uniformly chosen word. The burst is
/// electrical (one storage row of one word), so the layout's interleave
/// does not spread it. The flips are added to `p`.
pub fn draw_burst(layout: &ArrayLayout, rng: &mut SmallRng, width: u32, p: &mut StrikePattern) {
    let width = width.clamp(1, 64);
    let word = rng.gen_range(0..layout.words());
    let start = rng.gen_range(0..(64 - width as usize + 1)) as u32;
    let mask = if width == 64 {
        u64::MAX
    } else {
        ((1u64 << width) - 1) << start
    };
    let mut m = mask;
    while m != 0 {
        p.add(word, m.trailing_zeros() as u8);
        m &= m - 1;
    }
}

/// `span` adjacent columns along one physical row: under interleaving
/// degree `D` the columns alternate between `min(span, D)` words. The
/// flips are added to `p`.
pub fn draw_col(layout: &ArrayLayout, rng: &mut SmallRng, span: u32, p: &mut StrikePattern) {
    let group = rng.gen_range(0..layout.groups());
    let cols = layout.columns();
    let span = (span as usize).clamp(1, cols);
    let start = rng.gen_range(0..(cols - span + 1));
    for c in start..start + span {
        let (word, bit) = layout.cell(group, c);
        p.add(word, bit);
    }
}

/// The same column through `span` adjacent physical rows: one bit in each
/// of `span` words spaced `D` apart — always the interleaving-friendly
/// shape (one flip per codeword), whatever the degree. The flips are
/// added to `p`.
pub fn draw_row(layout: &ArrayLayout, rng: &mut SmallRng, span: u32, p: &mut StrikePattern) {
    let groups = layout.groups();
    let span = (span as usize).clamp(1, groups);
    let start = rng.gen_range(0..(groups - span + 1));
    let column = rng.gen_range(0..layout.columns());
    for g in start..start + span {
        let (word, bit) = layout.cell(g, column);
        p.add(word, bit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aep_rng::SmallRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }
    #[test]
    fn burst_is_contiguous_in_one_word() {
        let layout = ArrayLayout::new(8, 4);
        let mut r = rng();
        for _ in 0..200 {
            let p = StrikePattern::drawn(|p| draw_burst(&layout, &mut r, 3, p));
            assert_eq!(p.flips().len(), 1, "a burst stays in one word");
            let mask = p.flips()[0].mask;
            assert_eq!(mask.count_ones(), 3);
            let shifted = mask >> mask.trailing_zeros();
            assert_eq!(shifted, 0b111, "bits are adjacent");
        }
    }

    #[test]
    fn col_strike_spreads_with_interleave() {
        // D = 1: four adjacent columns are four adjacent bits of one word.
        let linear = ArrayLayout::linear(8);
        let mut r = rng();
        for _ in 0..100 {
            let p = StrikePattern::drawn(|p| draw_col(&linear, &mut r, 4, p));
            assert_eq!(p.flips().len(), 1);
            assert_eq!(p.flips()[0].mask.count_ones(), 4);
        }
        // D = 4: the same strike lands one bit in each of four words.
        let interleaved = ArrayLayout::new(8, 4);
        for _ in 0..100 {
            let p = StrikePattern::drawn(|p| draw_col(&interleaved, &mut r, 4, p));
            assert_eq!(p.flips().len(), 4, "interleaving spreads the cluster");
            assert!(p.flips().iter().all(|f| f.mask.count_ones() == 1));
        }
        // D = 2 splits it two-and-two.
        let half = ArrayLayout::new(8, 2);
        for _ in 0..100 {
            let p = StrikePattern::drawn(|p| draw_col(&half, &mut r, 4, p));
            assert_eq!(p.flips().len(), 2);
            assert!(p.flips().iter().all(|f| f.mask.count_ones() == 2));
        }
    }

    #[test]
    fn row_strike_is_one_bit_per_word() {
        for d in [1usize, 2, 4] {
            let layout = ArrayLayout::new(8, d);
            let mut r = rng();
            for _ in 0..100 {
                let p = StrikePattern::drawn(|p| draw_row(&layout, &mut r, 8, p));
                let expect = (8usize / d).min(8);
                assert_eq!(p.flips().len(), expect, "span clamps to {expect} rows");
                assert!(p.flips().iter().all(|f| f.mask.count_ones() == 1));
                // Struck words are D apart (same bitline, adjacent rows).
                let words: Vec<usize> = p.flips().iter().map(|f| f.word).collect();
                for pair in words.windows(2) {
                    assert_eq!(pair[1] - pair[0], d);
                }
            }
        }
    }

    #[test]
    fn oversized_spans_clamp_to_the_array() {
        let layout = ArrayLayout::linear(8);
        let mut r = rng();
        let p = StrikePattern::drawn(|p| draw_col(&layout, &mut r, 1000, p));
        assert_eq!(p.total_bits(), 64, "clamps to one full row");
        let p = StrikePattern::drawn(|p| draw_row(&layout, &mut r, 1000, p));
        assert_eq!(p.flips().len(), 8, "clamps to all rows");
    }

    #[test]
    fn draws_are_seed_deterministic() {
        let layout = ArrayLayout::new(8, 2);
        let mut a = rng();
        let mut b = rng();
        for _ in 0..50 {
            assert_eq!(
                StrikePattern::drawn(|p| draw_col(&layout, &mut a, 4, p)),
                StrikePattern::drawn(|p| draw_col(&layout, &mut b, 4, p))
            );
        }
    }
}
