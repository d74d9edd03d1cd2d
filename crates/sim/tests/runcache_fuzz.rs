//! Seeded byte-mutation fuzz of the run-cache entry parser, which reads
//! files under `results/cache/` that another process (or a crash
//! mid-write) may have left in any state.
//!
//! It starts from the rendered entry of a real run and applies a few
//! thousand seeded single- and multi-byte mutations and truncations.
//! Every mutant must come back as a hit or a miss, never a panic; a
//! truncated entry must be a miss; and a mutant that still parses must
//! survive a render/parse round trip unchanged.

use aep_core::SchemeKind;
use aep_rng::SmallRng;
use aep_sim::runcache::{parse_stats, render_stats};
use aep_sim::{ExperimentConfig, Runner};
use aep_workloads::Benchmark;

const MUTANTS: usize = 3_000;

/// Bytes that steer mutants into the format's corners (separators,
/// digits, hex digits) rather than into arbitrary garbage only.
const STRUCTURAL: &[u8] = b"=\n.-_:0123456789abcdefx ";

fn byte(rng: &mut SmallRng) -> u8 {
    if rng.gen_bool(0.5) {
        STRUCTURAL[rng.gen_range(0..STRUCTURAL.len())]
    } else {
        (rng.next_u64() & 0xff) as u8
    }
}

/// A mutated copy of `seed`, and whether the mutation was a truncation.
/// Invalid UTF-8 is replaced (U+FFFD), since the parser takes `&str`.
fn mutate(rng: &mut SmallRng, seed: &str) -> (String, bool) {
    let mut bytes = seed.as_bytes().to_vec();
    let at = rng.gen_range(0..bytes.len());
    let op = rng.gen_range(0..5u32);
    match op {
        0 => bytes[at] = byte(rng),
        1 => {
            for _ in 0..rng.gen_range(2..9usize) {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] = byte(rng);
            }
        }
        2 => bytes.truncate(at),
        3 => {
            let end = (at + rng.gen_range(1..16usize)).min(bytes.len());
            bytes.drain(at..end);
        }
        _ => {
            for _ in 0..rng.gen_range(1..16usize) {
                bytes.insert(at, byte(rng));
            }
        }
    }
    (String::from_utf8_lossy(&bytes).into_owned(), op == 2)
}

#[test]
fn mutated_entries_are_misses_or_round_trip() {
    let stats = Runner::new(ExperimentConfig::fast_test(
        Benchmark::Gap,
        SchemeKind::Proposed {
            cleaning_interval: 1 << 16,
        },
    ))
    .run();
    let entry = render_stats(&stats);
    assert_eq!(parse_stats(&entry), Some(stats));

    let mut rng = SmallRng::seed_from_u64(0x0ca_c4e5);
    let (mut hits, mut misses) = (0, 0);
    for _ in 0..MUTANTS {
        let (mutant, truncated) = mutate(&mut rng, &entry);
        match parse_stats(&mutant) {
            Some(parsed) => {
                assert!(!truncated, "a truncated entry parsed:\n{mutant}");
                hits += 1;
                let text = render_stats(&parsed);
                assert_eq!(parse_stats(&text).as_ref(), Some(&parsed), "{mutant}");
            }
            None => misses += 1,
        }
    }
    assert!(hits > 0 && misses > 0, "{hits} parsed, {misses} rejected");
}
