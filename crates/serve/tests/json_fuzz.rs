//! Seeded byte-mutation fuzz of the two parsers that read bytes from
//! outside the process: the daemon's request lines and stats snapshots.
//!
//! Each starts from a valid document — a full `submit` request and a
//! committed golden snapshot — and applies a few thousand seeded
//! single- and multi-byte mutations and truncations. Every mutant must
//! come back `Ok` or as a typed `Err`, never a panic; a mutant that
//! still parses must survive a render/parse round trip unchanged.

use aep_core::SchemeKind;
use aep_obs::StatsSnapshot;
use aep_rng::SmallRng;
use aep_serve::protocol::{parse_request, Request};
use aep_serve::SubmitRequest;
use aep_sim::Scale;
use aep_workloads::Benchmark;

const GOLDEN: &str = include_str!("../../../results/golden/smoke_gap_proposed_1048576.snap.json");

const MUTANTS: usize = 3_000;

/// Bytes that steer mutants into the grammar's corners rather than into
/// string payloads only.
const STRUCTURAL: &[u8] = b"{}[]\":,\\-+.0123456789eEtfnu \n";

fn byte(rng: &mut SmallRng) -> u8 {
    if rng.gen_bool(0.5) {
        STRUCTURAL[rng.gen_range(0..STRUCTURAL.len())]
    } else {
        (rng.next_u64() & 0xff) as u8
    }
}

/// One seeded mutant of `seed`: a single-byte overwrite, a burst of
/// overwrites, a truncation, a deletion, or an insertion. Invalid UTF-8
/// is replaced (U+FFFD), since both parsers take `&str`.
fn mutate(rng: &mut SmallRng, seed: &str) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    let at = rng.gen_range(0..bytes.len());
    match rng.gen_range(0..5u32) {
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
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn mutated_request_lines_are_typed_errors_or_round_trip() {
    let mut req = SubmitRequest::new(
        Benchmark::Gzip,
        SchemeKind::ProposedMulti {
            cleaning_interval: 1 << 20,
            entries_per_set: 2,
        },
    );
    req.id = Some("fuzz-\"1\"\\é".into());
    req.seed = Some(2006);
    req.scrub = Some(4096);
    req.scale = Some(Scale::Smoke);
    req.warmup = Some(1_000);
    req.measure = Some(2_000);
    let line = req.render();
    assert_eq!(
        parse_request(&line),
        Ok(Request::Submit(Box::new(req.clone())))
    );

    let mut rng = SmallRng::seed_from_u64(0x5e7e_2006);
    let (mut ok, mut err) = (0, 0);
    for _ in 0..MUTANTS {
        let mutant = mutate(&mut rng, &line);
        match parse_request(&mutant) {
            Ok(Request::Submit(parsed)) => {
                ok += 1;
                assert_eq!(
                    parse_request(&parsed.render()),
                    Ok(Request::Submit(parsed.clone())),
                    "{mutant}"
                );
            }
            Ok(_) => ok += 1,
            Err(_) => err += 1,
        }
    }
    assert!(ok > 0 && err > 0, "{ok} parsed, {err} rejected");
}

#[test]
fn mutated_snapshots_are_typed_errors_or_round_trip() {
    let golden = StatsSnapshot::from_json(GOLDEN).expect("golden parses");
    assert_eq!(golden.to_json(), GOLDEN);

    let mut rng = SmallRng::seed_from_u64(0x0b5_5eed);
    let (mut ok, mut err) = (0, 0);
    for _ in 0..MUTANTS {
        let mutant = mutate(&mut rng, GOLDEN);
        match StatsSnapshot::from_json(&mutant) {
            Ok(snap) => {
                ok += 1;
                let text = snap.to_json();
                let back = StatsSnapshot::from_json(&text).expect("re-rendered snapshot parses");
                assert_eq!(back.to_json(), text, "{mutant}");
            }
            Err(_) => err += 1,
        }
    }
    assert!(ok > 0 && err > 0, "{ok} parsed, {err} rejected");
}
