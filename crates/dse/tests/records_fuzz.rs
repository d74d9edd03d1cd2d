//! Seeded byte-mutation fuzz of the `.dse` records parser, which reads
//! files under `results/dse/` that a user may have edited or a crash
//! mid-write may have cut short.
//!
//! It starts from the records `write_records` renders for a small grid
//! (every workload family, challenger schemes, scrub periods, two L2
//! geometries, two interleave degrees, and objective values a decimal
//! round trip would mangle) and applies a few thousand seeded single- and
//! multi-byte mutations and truncations. Every mutant must come back as a
//! typed error or as a batch that survives a write/parse round trip
//! unchanged — never a panic.

use aep_dse::registry::challenger_templates;
use aep_dse::{
    expand_schemes, parse_records, write_records, EvaluatedPoint, Geometry, ObjectiveSpec,
    ObjectiveVector, Space,
};
use aep_rng::SmallRng;
use aep_sim::Scale;
use aep_workloads::{diversity_workloads, Benchmark, Workload};

const MUTANTS: usize = 3_000;

/// Bytes that steer mutants into the format's corners (separators,
/// digits, hex digits, slug characters) rather than into arbitrary
/// garbage only.
const STRUCTURAL: &[u8] = b"=|,:\n._-0123456789abcdefxKMpoint ";

fn byte(rng: &mut SmallRng) -> u8 {
    if rng.gen_bool(0.5) {
        STRUCTURAL[rng.gen_range(0..STRUCTURAL.len())]
    } else {
        (rng.next_u64() & 0xff) as u8
    }
}

/// A mutated copy of `seed`. Invalid UTF-8 is replaced (U+FFFD), since
/// the parser takes `&str`.
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

/// The records of a small grid with hand-picked objective values.
fn seed_records() -> String {
    let mut workloads: Vec<Workload> = vec![Benchmark::Gzip.into()];
    workloads.extend(diversity_workloads().into_iter().step_by(3));
    let space = Space::grid_with_interleave(
        &workloads,
        &expand_schemes(&challenger_templates(), &[1 << 20]),
        &[None, Some(4096)],
        &[
            Geometry::date2006(),
            Geometry::parse("512K").expect("a geometry"),
        ],
        &[1, 4],
    );
    let spec = ObjectiveSpec::parse("ipc,area,fit").expect("a spec");
    let odd = [0.1 + 0.2, f64::NAN, -0.0, f64::INFINITY, 1e-300, 54.0];
    let evaluated: Vec<EvaluatedPoint> = space
        .points()
        .iter()
        .enumerate()
        .map(|(i, point)| EvaluatedPoint {
            point: point.clone(),
            objectives: ObjectiveVector {
                values: (0..3).map(|k| odd[(i + k) % odd.len()]).collect(),
            },
        })
        .collect();
    write_records(Scale::Smoke, &spec, &evaluated)
}

#[test]
fn mutated_records_are_errors_or_round_trip() {
    let seed = seed_records();
    let (scale, spec, batch) = parse_records(&seed).expect("the seed parses");
    assert_eq!(
        write_records(scale, &spec, &batch),
        seed,
        "the seed round-trips"
    );

    let mut rng = SmallRng::seed_from_u64(0xd5e_2ec0);
    let (mut parsed, mut rejected) = (0, 0);
    for _ in 0..MUTANTS {
        let mutant = mutate(&mut rng, &seed);
        match parse_records(&mutant) {
            Ok((scale, spec, batch)) => {
                parsed += 1;
                let text = write_records(scale, &spec, &batch);
                let (scale2, spec2, batch2) = parse_records(&text)
                    .unwrap_or_else(|e| panic!("{e}: a re-written mutant fails:\n{mutant}"));
                assert_eq!(write_records(scale2, &spec2, &batch2), text, "{mutant}");
            }
            Err(e) => {
                rejected += 1;
                assert!(
                    e.line >= 1 && e.line <= mutant.lines().count().max(1),
                    "{e}"
                );
            }
        }
    }
    assert!(
        parsed > 0 && rejected > 0,
        "{parsed} parsed, {rejected} rejected"
    );
}
