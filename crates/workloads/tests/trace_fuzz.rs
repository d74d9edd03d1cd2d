//! Seeded mutation fuzzing of the `AEPWTR01` trace decoder.
//!
//! Every committed corpus trace is mutated 1,500 times (3,000 mutants
//! over the two traces): each mutant applies one to three seeded edits —
//! overwrite a byte, insert a byte, delete a byte, or truncate — to the
//! file's bytes. Decoding a mutant must be total: it yields a typed
//! [`TraceError`], or records that survive an `encode`/`decode` round
//! trip unchanged. A panic anywhere fails the test. CI runs it in debug
//! and release builds, so arithmetic on decoded fields is checked for
//! overflow too.

use aep_rng::SmallRng;
use aep_workloads::{decode, encode, find_trace, TraceError};

/// The committed corpus the fuzzer mutates.
const CORPUS: [&str; 2] = ["mixed_phases", "storm_burst"];

/// Mutants per corpus trace.
const MUTANTS_PER_TRACE: usize = 1_500;

/// Applies one seeded edit to `bytes`.
fn mutate(bytes: &mut Vec<u8>, rng: &mut SmallRng) {
    match rng.gen_range(0..4u8) {
        0 if !bytes.is_empty() => {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = rng.gen_range(0..256u16) as u8;
        }
        1 => {
            let at = rng.gen_range(0..bytes.len() + 1);
            bytes.insert(at, rng.gen_range(0..256u16) as u8);
        }
        2 if !bytes.is_empty() => {
            let at = rng.gen_range(0..bytes.len());
            bytes.remove(at);
        }
        _ => {
            let len = rng.gen_range(0..bytes.len() + 1);
            bytes.truncate(len);
        }
    }
}

/// What decoding one mutant gave.
#[derive(Debug, Default)]
struct Tally {
    errors: usize,
    decoded: usize,
}

fn check_mutant(mutant: &[u8], tally: &mut Tally) {
    match decode(mutant) {
        Err(error) => {
            // A typed error that renders a reason (never a panic).
            assert!(!error.to_string().is_empty());
            assert!(!matches!(
                error,
                TraceError::NotFound { .. } | TraceError::Io(_)
            ));
            tally.errors += 1;
        }
        Ok(records) => {
            let bytes = encode(&records).expect("decoded records re-encode");
            assert_eq!(
                decode(&bytes).expect("a re-encoded trace decodes"),
                records,
                "decoded records must round-trip"
            );
            tally.decoded += 1;
        }
    }
}

#[test]
fn seeded_mutations_of_the_corpus_decode_totally() {
    let mut rng = SmallRng::seed_from_u64(0x7ace_f022);
    let mut tally = Tally::default();
    for name in CORPUS {
        let path = find_trace(name).expect("the committed corpus is present");
        let original = std::fs::read(&path).expect("the corpus trace is readable");
        assert!(decode(&original).is_ok(), "{name} decodes unmutated");
        for _ in 0..MUTANTS_PER_TRACE {
            let mut mutant = original.clone();
            for _ in 0..rng.gen_range(1..4u8) {
                mutate(&mut mutant, &mut rng);
            }
            check_mutant(&mutant, &mut tally);
        }
    }
    assert_eq!(
        tally.errors + tally.decoded,
        CORPUS.len() * MUTANTS_PER_TRACE
    );
    // Both outcomes occur: the mutations reach past the header checks.
    assert!(tally.errors > 0 && tally.decoded > 0, "{tally:?}");
}
