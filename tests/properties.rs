//! Randomized property tests on the core data structures and invariants,
//! spanning crates.
//!
//! Formerly written with `proptest`; the workspace must now build with no
//! crates.io access, so the same properties are exercised with a seeded
//! [`aep_rng::SmallRng`] driving hand-rolled input generators. Every test
//! is deterministic: a failure reproduces from the fixed seeds below.

use aep::core::{Directive, NonUniformScheme, ProtectionScheme, SchemeKind};
use aep::ecc::parity::{InterleavedParity, ParityBit, ParityError};
use aep::ecc::{Decoded, Secded64};
use aep::mem::cache::{AccessKind, Cache, CleanRule, WbClass};
use aep::mem::write_buffer::{PushOutcome, WriteBuffer};
use aep::mem::{CacheConfig, LineAddr, MainMemory};
use aep_rng::SmallRng;

// ---------------- SECDED ------------------------------------------------

/// Any single flipped data bit is corrected back to the original.
#[test]
fn secded_corrects_any_single_data_flip() {
    let code = Secded64::new();
    let mut rng = SmallRng::seed_from_u64(0x05ec_ded1);
    for _ in 0..8 {
        let data: u64 = rng.gen();
        let check = code.encode(data);
        for bit in 0..64 {
            let decoded = code.decode(data ^ (1u64 << bit), check);
            assert_eq!(decoded.data(), Some(data), "bit {bit} of {data:#x}");
        }
    }
}

/// Any single flipped check bit leaves the data intact.
#[test]
fn secded_survives_any_single_check_flip() {
    let code = Secded64::new();
    let mut rng = SmallRng::seed_from_u64(0x05ec_ded2);
    for _ in 0..32 {
        let data: u64 = rng.gen();
        let check = code.encode(data);
        for bit in 0..8 {
            let decoded = code.decode(data, check ^ (1 << bit));
            assert_eq!(decoded.data(), Some(data), "check bit {bit}");
        }
    }
}

/// Any double data-bit flip is detected (never silently accepted or
/// "corrected" to the wrong value).
#[test]
fn secded_detects_any_double_data_flip() {
    let code = Secded64::new();
    let mut rng = SmallRng::seed_from_u64(0x05ec_ded3);
    for _ in 0..512 {
        let data: u64 = rng.gen();
        let a = rng.gen_range(0..64u8);
        let mut b = rng.gen_range(0..64u8);
        while b == a {
            b = rng.gen_range(0..64u8);
        }
        let check = code.encode(data);
        let decoded = code.decode(data ^ (1u64 << a) ^ (1u64 << b), check);
        assert_eq!(decoded, Decoded::Uncorrectable, "bits {a},{b}");
    }
}

/// Clean decode is the identity.
#[test]
fn secded_clean_roundtrip() {
    let code = Secded64::new();
    let mut rng = SmallRng::seed_from_u64(0x05ec_ded4);
    for _ in 0..512 {
        let data: u64 = rng.gen();
        let check = code.encode(data);
        assert_eq!(code.decode(data, check), Decoded::Clean { data });
    }
}

// ---------------- parity -------------------------------------------------

/// Parity detects every odd-weight error pattern and misses every
/// even-weight one (the documented limitation).
#[test]
fn parity_detects_exactly_odd_weight_errors() {
    let mut rng = SmallRng::seed_from_u64(0xba51);
    for _ in 0..512 {
        let data: u64 = rng.gen();
        let pattern: u64 = rng.gen();
        let p = ParityBit::encode(data);
        let consistent = ParityBit::verify(data ^ pattern, p);
        assert_eq!(
            consistent,
            pattern.count_ones().is_multiple_of(2),
            "{pattern:#x}"
        );
    }
}

/// Interleaved parity localises the first corrupted word.
#[test]
fn interleaved_parity_flags_corrupted_word() {
    let mut rng = SmallRng::seed_from_u64(0xba52);
    for _ in 0..256 {
        let len = rng.gen_range(1..16usize);
        let words: Vec<u64> = (0..len).map(|_| rng.gen()).collect();
        let word = rng.gen_range(0..len);
        let bit = rng.gen_range(0..64u8);
        let code = InterleavedParity::encode(&words);
        let mut bad = words.clone();
        bad[word] ^= 1u64 << bit;
        assert_eq!(
            InterleavedParity::verify(&bad, code),
            Err(ParityError { word }),
            "word {word} bit {bit}"
        );
    }
}

// ---------------- cache LRU vs reference model ---------------------------

/// The cache agrees with a brute-force reference model of a
/// set-associative LRU cache on any access sequence.
#[test]
fn cache_matches_reference_lru_model() {
    let mut rng = SmallRng::seed_from_u64(0xca0e);
    for round in 0..16 {
        let mut cfg = CacheConfig::tiny_l2();
        cfg.store_data = false;
        cfg.track_written = false;
        let sets = cfg.sets();
        let ways = cfg.ways as usize;
        let mut cache = Cache::new(cfg);

        // Reference: per-set Vec<line> in LRU order (front = LRU).
        let mut model: Vec<Vec<u64>> = vec![Vec::new(); sets as usize];

        let accesses = rng.gen_range(1..300usize);
        for i in 0..accesses {
            let line = LineAddr(rng.gen_range(0..64u64));
            let is_write: bool = rng.gen();
            let set = line.set_index(sets);
            let kind = if is_write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let hit = cache.lookup(line, kind, i as u64).is_hit();
            let model_hit = model[set].contains(&line.0);
            assert_eq!(hit, model_hit, "round {round} access {i} to {line:?}");
            if model_hit {
                model[set].retain(|&l| l != line.0);
                model[set].push(line.0);
            } else {
                let outcome = cache.install(line, false, i as u64, None);
                if model[set].len() == ways {
                    let victim = model[set].remove(0);
                    assert_eq!(
                        outcome.evicted.as_ref().map(|e| e.line.0),
                        Some(victim),
                        "LRU victim mismatch"
                    );
                } else {
                    assert!(outcome.evicted.is_none());
                }
                model[set].push(line.0);
            }
        }
    }
}

/// The incremental dirty counter always equals a full recount.
#[test]
fn dirty_counter_matches_recount() {
    let mut rng = SmallRng::seed_from_u64(0xd127);
    for _ in 0..16 {
        let mut cache = Cache::new(CacheConfig::tiny_l2());
        let ops = rng.gen_range(1..300usize);
        for i in 0..ops {
            let line = LineAddr(rng.gen_range(0..128u64));
            let now = i as u64;
            match rng.gen_range(0..3u8) {
                0 => {
                    if !cache.lookup(line, AccessKind::Read, now).is_hit() {
                        cache.install(line, false, now, Some(&[0; 8]));
                    }
                }
                1 => {
                    if !cache.lookup(line, AccessKind::Write, now).is_hit() {
                        cache.install(line, true, now, Some(&[1; 8]));
                    }
                }
                _ => {
                    let set = line.set_index(cache.sets() as u64);
                    cache.clean_set(set, now, CleanRule::WrittenBit, &mut Vec::new());
                }
            }
            assert_eq!(cache.dirty_line_count(), cache.recount_dirty_lines());
        }
    }
}

// ---------------- write buffer -------------------------------------------

/// The write buffer never exceeds capacity, coalesces exactly on line
/// match, and retires FIFO.
#[test]
fn write_buffer_model() {
    let mut rng = SmallRng::seed_from_u64(0x3b);
    for _ in 0..16 {
        let mut wb = WriteBuffer::new(4, 8);
        let mut model: Vec<u64> = Vec::new(); // line order
        let pushes = rng.gen_range(1..200usize);
        for i in 0..pushes {
            let line = LineAddr(rng.gen_range(0..8u64));
            let word = rng.gen_range(0..8usize);
            let outcome = wb.push(line, word, i as u64, i as u64);
            let expected = if model.contains(&line.0) {
                PushOutcome::Coalesced
            } else if model.len() == 4 {
                PushOutcome::Full
            } else {
                model.push(line.0);
                PushOutcome::Inserted
            };
            assert_eq!(outcome, expected);
            assert!(wb.len() <= 4);
            if outcome == PushOutcome::Full {
                // Drain one (as the hierarchy does) and retry.
                let popped = wb.pop().expect("full buffer pops");
                assert_eq!(popped.line.0, model.remove(0));
                assert_eq!(
                    wb.push(line, word, i as u64, i as u64),
                    PushOutcome::Inserted
                );
                model.push(line.0);
            }
        }
        // Full FIFO drain.
        for expected in model {
            assert_eq!(wb.pop().expect("entry").line.0, expected);
        }
        assert!(wb.pop().is_none());
    }
}

// ---------------- proposed-scheme invariant ------------------------------

/// Under any stream of reads/writes/cleanings, the shared-ECC-array
/// invariant holds: at most one dirty line per set, and the ECC entry
/// always tracks exactly the dirty line.
#[test]
fn nonuniform_invariant_under_random_traffic() {
    let mut rng = SmallRng::seed_from_u64(0x10_4a7);
    for round in 0..8 {
        let cfg = CacheConfig::tiny_l2();
        let kind = SchemeKind::Proposed {
            cleaning_interval: 1 << 20,
        };
        let mut scheme = NonUniformScheme::new(&cfg, kind);
        let mut l2 = Cache::new(cfg);
        l2.set_event_emission(true);
        let mut mem = MainMemory::new(10, 8);

        let ops = rng.gen_range(1..300usize);
        for i in 0..ops {
            let line = LineAddr(rng.gen_range(0..96u64));
            let now = i as u64;
            match rng.gen_range(0..4u8) {
                0 => {
                    // Read (fill from memory on miss).
                    if !l2.lookup(line, AccessKind::Read, now).is_hit() {
                        let data = mem.read_line(line);
                        l2.install(line, false, now, Some(&data));
                    }
                }
                1 | 2 => {
                    // Write (write-allocate on miss).
                    if !l2.lookup(line, AccessKind::Write, now).is_hit() {
                        let data = mem.read_line(line);
                        l2.install(line, true, now, Some(&data));
                    }
                }
                _ => {
                    let set = line.set_index(l2.sets() as u64);
                    let mut out = Vec::new();
                    l2.clean_set(set, now, CleanRule::WrittenBit, &mut out);
                    for cleaned in out {
                        if let Some(data) = l2.line_data(set, cleaned.way) {
                            mem.write_line(cleaned.line, data);
                        }
                    }
                }
            }
            // Drain events, applying ECC-eviction directives.
            loop {
                let events = l2.take_events();
                if events.is_empty() {
                    break;
                }
                let mut directives = Vec::new();
                for event in &events {
                    scheme.on_event(event, &l2, &mut directives);
                }
                for Directive::ForceClean { set, way } in directives {
                    if let Some(ev) = l2.force_clean(set, way, now, WbClass::EccEviction) {
                        if let Some(data) = l2.line_data(set, ev.way) {
                            mem.write_line(ev.line, data);
                        }
                    }
                }
            }
            assert_eq!(
                scheme.find_invariant_violation(&l2),
                None,
                "round {round} after op {i}"
            );
        }

        // Every dirty line is recoverable from a single-bit strike.
        for set in 0..l2.sets() {
            for way in 0..l2.ways() {
                let view = l2.line_view(set, way);
                if view.valid && view.dirty {
                    let before = l2.line_data(set, way).unwrap().to_vec();
                    l2.strike(set, way, 0, 7);
                    let outcome = scheme.verify_line(&mut l2, set, way, &mut mem);
                    assert!(outcome.is_recovered());
                    assert_eq!(l2.line_data(set, way).unwrap(), before.as_slice());
                }
            }
        }
    }
}

// ---------------- trace codec --------------------------------------------

use aep::cpu::trace::{TraceReader, TraceWriter};
use aep::cpu::{MicroOp, OpClass, NO_REG};
use aep::mem::Addr;

fn arb_op(rng: &mut SmallRng) -> MicroOp {
    let class = match rng.gen_range(0..7u8) {
        0 => OpClass::IntAlu,
        1 => OpClass::IntMul,
        2 => OpClass::FpAdd,
        3 => OpClass::FpMul,
        4 => OpClass::Load,
        5 => OpClass::Store,
        _ => OpClass::Branch,
    };
    let maybe_reg = |rng: &mut SmallRng| -> u8 {
        if rng.gen::<bool>() {
            rng.gen_range(0..64u8)
        } else {
            NO_REG
        }
    };
    let addr: u64 = rng.gen();
    let (pc, src1, src2, dst) = (rng.gen(), maybe_reg(rng), maybe_reg(rng), maybe_reg(rng));
    let (taken, target) = (rng.gen(), rng.gen());
    // The one operand: an address for memory ops, a target for branches.
    let operand = match class {
        OpClass::Load | OpClass::Store => Addr::new(addr).0,
        OpClass::Branch => target,
        _ => 0,
    };
    MicroOp {
        pc,
        operand,
        class,
        src1,
        src2,
        dst,
        taken,
    }
}

/// Any op sequence survives a trace encode/decode roundtrip exactly.
#[test]
fn trace_codec_roundtrips() {
    let mut rng = SmallRng::seed_from_u64(0x7ace);
    for _ in 0..64 {
        let n = rng.gen_range(0..64usize);
        let ops: Vec<MicroOp> = (0..n).map(|_| arb_op(&mut rng)).collect();
        let mut buf = Vec::new();
        let mut writer = TraceWriter::new(&mut buf).expect("vec sink");
        for op in &ops {
            writer.write_op(op).expect("vec sink");
        }
        writer.flush().expect("vec sink");
        let decoded = TraceReader::new(buf.as_slice())
            .expect("magic")
            .read_all()
            .expect("well-formed");
        assert_eq!(decoded, ops);
    }
}

/// Corrupting the magic header is always rejected.
#[test]
fn trace_reader_rejects_bad_magic() {
    let mut rng = SmallRng::seed_from_u64(0x7acf);
    for _ in 0..64 {
        let byte = rng.gen_range(0..8usize);
        let delta = rng.gen_range(1..256u16) as u8;
        let mut buf = Vec::new();
        TraceWriter::new(&mut buf)
            .expect("vec sink")
            .flush()
            .expect("vec sink");
        buf[byte] = buf[byte].wrapping_add(delta);
        assert!(TraceReader::new(buf.as_slice()).is_err());
    }
}
