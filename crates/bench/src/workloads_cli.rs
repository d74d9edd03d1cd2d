//! `exp workloads` — the workload-diversity report and its CI gate.
//!
//! `report` runs every calibrated benchmark plus every registered
//! diversity workload (Zipf, adversarial, trace replay) through the
//! differential checker's probe matrix and emits a JSON coverage
//! matrix: which checker features each workload reaches, and — the
//! number CI cares about — which features each new generator family
//! reaches that the 14 calibrated workloads never do. With `--check`
//! the run becomes a gate: it fails if any new family reaches nothing
//! beyond the calibrated suite, if any run trips the lockstep checker,
//! or if the committed trace corpus has drifted from its generator.
//!
//! `gen-corpus` regenerates the committed corpus under `traces/`.
//! Generation is pure arithmetic (no RNG, no clock), so the emitted
//! bytes are stable across runs and machines; `report --check`
//! re-derives them and byte-compares against the files on disk.
//!
//! Exit codes follow the repo contract: 0 = clean, 1 = gate failure,
//! 2 = usage error.

use std::path::{Path, PathBuf};

use aep_check::{probe_matrix, run_stream, Coverage};
use aep_faultsim::fan_out;
use aep_obs::json::escape;
use aep_workloads::{
    encode, find_trace, write_trace_file, Benchmark, TraceRecord, Workload, TRACE_DIR,
};

use crate::flags::{default_jobs, FlagError, Flags};

/// Base address for corpus trace footprints. Distinct from the
/// adversarial generators' base so replayed lines never collide with
/// live-generator lines in mixed line-ups.
const CORPUS_BASE: u64 = 0x2000_0000;

/// Alias stride that maps to the same set in any power-of-two cache
/// up to 4096 sets (matches the adversarial generators).
const CORPUS_SET_STRIDE: u64 = 4096 * 64;

fn usage() -> String {
    "usage: exp workloads report [--check] [--out FILE] [--seed S] [--jobs N]\n\
     \x20      exp workloads gen-corpus [--dir DIR]\n\n\
     report      run calibrated + diversity workloads through the\n\
     \x20           checker probe matrix; write the coverage matrix JSON\n\
     \x20           (default: results/workloads/coverage_matrix.json)\n\
     \x20 --check    gate mode: fail (exit 1) unless every new generator\n\
     \x20            family reaches >=1 feature beyond the calibrated\n\
     \x20            suite, no run trips the checker, and the committed\n\
     \x20            trace corpus byte-matches its generator\n\
     \x20 --out FILE coverage matrix destination ('-' for stdout only)\n\
     \x20 --seed S   stream seed (default: 2006)\n\
     \x20 --jobs N   worker threads; output is identical for any N\n\n\
     gen-corpus  regenerate the committed traces under traces/\n\
     \x20 --dir DIR  corpus directory (default: traces)\n\n\
     exit codes: 0 clean, 1 gate failure, 2 usage error"
        .to_owned()
}

/// The committed trace corpus, derived from pure arithmetic so
/// `gen-corpus` is reproducible and `report --check` can detect drift.
#[must_use]
pub fn corpus() -> Vec<(&'static str, Vec<TraceRecord>)> {
    vec![
        ("storm_burst", storm_burst_records()),
        ("mixed_phases", mixed_phases_records()),
    ]
}

/// A recorded set-conflict storm: store bursts over 12 lines that all
/// alias to one cache set, forcing a continuous run of ECC write-backs
/// under the one-dirty-line-per-set schemes.
fn storm_burst_records() -> Vec<TraceRecord> {
    let mut records = Vec::with_capacity(3072);
    for i in 0..3072u64 {
        let line = i % 12;
        let word = (i / 12) % 8;
        let addr = CORPUS_BASE + line * CORPUS_SET_STRIDE + word * 8;
        if i % 17 == 16 {
            // An occasional read keeps read-fill paths in the mix.
            records.push(TraceRecord::load(addr, 8));
        } else {
            records.push(TraceRecord::store(addr, 8));
        }
    }
    records
}

/// A recorded phase mix: a sleeper store, a write-once flood over
/// fresh lines, a hot-line rewrite burst, then a conflict sweep that
/// finally evicts the long-stale sleeper — touching write-once streak,
/// hot rewrite, and stale-dirty-evict features in one replay loop.
fn mixed_phases_records() -> Vec<TraceRecord> {
    // The probe caches have 16 sets of 64-byte lines, so set(addr) =
    // (addr / 64) % 16. The sleeper sits alone in set 15; the flood
    // and hot phases avoid that set entirely, so the sleeper stays
    // resident (and dirty) for thousands of cycles until phase C's
    // aliasing loads force it out.
    let mut records = Vec::with_capacity(2048);
    for round in 0..2u64 {
        let base = CORPUS_BASE + round * 0x0100_0000;
        // Sleeper: one dirty line in set 15, untouched until phase C.
        records.push(TraceRecord::store(base + 15 * 64, 8));
        // Phase A: write-once flood over sets 0..=14 (skips set 15).
        for i in 0..512u64 {
            let line = (i / 15) * 16 + (i % 15);
            records.push(TraceRecord::store(base + 0x1_0000 + line * 64, 8));
        }
        // Phase B: hammer one line in set 14, far beyond the rewrite
        // streak threshold.
        for i in 0..256u64 {
            records.push(TraceRecord::store(base + 14 * 64 + (i % 8) * 8, 8));
        }
        // Phase C: aliasing loads into set 15 evict the sleeper, now
        // stale-dirty by the full length of phases A and B.
        for k in 1..=16u64 {
            records.push(TraceRecord::load(base + 15 * 64 + k * CORPUS_SET_STRIDE, 8));
        }
        // Read sweep over the flood lines to mix read hits back in.
        for i in 0..128u64 {
            let line = (i / 15) * 16 + (i % 15);
            records.push(TraceRecord::load(base + 0x1_0000 + line * 64, 8));
        }
    }
    records
}

/// One workload's merged outcome across the whole probe matrix.
struct Cell {
    workload: Workload,
    coverage: Coverage,
    violations: u64,
    events_checked: u64,
}

fn run_matrix(workloads: &[Workload], seed: u64, jobs: usize) -> Vec<Cell> {
    let probes = probe_matrix();
    fan_out(workloads.len(), jobs, |i| {
        let workload = workloads[i].clone();
        let mut coverage = Coverage::default();
        let mut violations = 0u64;
        let mut events_checked = 0u64;
        for probe in &probes {
            let outcome = run_stream(workload.stream(seed), probe);
            coverage.merge(outcome.coverage);
            violations += outcome.total_violations;
            events_checked += outcome.events_checked;
        }
        Cell {
            workload,
            coverage,
            violations,
            events_checked,
        }
    })
}

fn feature_labels(bits: u32) -> Vec<&'static str> {
    Coverage::FEATURES
        .iter()
        .filter(|(bit, _)| bits & bit != 0)
        .map(|&(_, label)| label)
        .collect()
}

fn json_str_list(labels: &[&str]) -> String {
    let quoted: Vec<String> = labels.iter().copied().map(escape).collect();
    format!("[{}]", quoted.join(", "))
}

/// Checks the committed corpus against its in-memory generator.
/// Returns human-readable failure descriptions (empty ⇒ clean).
fn corpus_drift_failures() -> Vec<String> {
    let mut failures = Vec::new();
    for (name, records) in corpus() {
        let Some(path) = find_trace(name) else {
            failures.push(format!(
                "trace '{name}' missing from {TRACE_DIR}/ (run `exp workloads gen-corpus`)"
            ));
            continue;
        };
        let on_disk = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) => {
                failures.push(format!("trace '{name}' unreadable: {e}"));
                continue;
            }
        };
        let expected = match encode(&records) {
            Ok(bytes) => bytes,
            Err(e) => {
                failures.push(format!("trace '{name}' generator failed to encode: {e}"));
                continue;
            }
        };
        if on_disk != expected {
            failures.push(format!(
                "trace '{name}' drifted from its generator ({} vs {} bytes); \
                 run `exp workloads gen-corpus`",
                on_disk.len(),
                expected.len()
            ));
        }
        // Round-trip: the on-disk bytes must decode to the generator's
        // records (guards the reader against format regressions).
        match aep_workloads::decode(&on_disk) {
            Ok(decoded) if decoded == records => {}
            Ok(_) => failures.push(format!("trace '{name}' decodes to different records")),
            Err(e) => failures.push(format!("trace '{name}' fails to decode: {e}")),
        }
    }
    failures
}

#[allow(clippy::too_many_lines)]
fn run_report(args: &[String]) -> i32 {
    let mut check = false;
    let mut out: Option<PathBuf> = Some(PathBuf::from("results/workloads/coverage_matrix.json"));
    let mut seed = 2_006u64;
    let mut jobs = default_jobs();
    let parsed = Flags::each(args, |f, flag| {
        match flag {
            "--check" => check = true,
            "--out" => out = Some(f.path("a file path (or '-')")?).filter(|p| p.as_os_str() != "-"),
            "--seed" => seed = f.uint()?,
            "--jobs" => jobs = f.positive()?,
            "help" | "--help" | "-h" => return Err(FlagError::Help),
            _ => return Err(f.unknown()),
        }
        Ok(())
    });
    if let Err(e) = parsed {
        return e.exit_code("exp workloads report", &usage());
    }

    let mut failures = corpus_drift_failures();

    let mut workloads: Vec<Workload> = Benchmark::all().iter().map(|&b| b.into()).collect();
    let diversity = aep_dse::registry::diversity_workloads();
    for w in &diversity {
        if let Err(e) = w.validate() {
            failures.push(format!("diversity workload '{}' invalid: {e}", w.name()));
        }
    }
    // A missing trace would panic at stream time; bail out through the
    // gate path instead of crashing.
    if !failures.is_empty() && check {
        for f in &failures {
            eprintln!("[workloads] GATE FAIL: {f}");
        }
        return 1;
    }
    workloads.extend(diversity.iter().cloned());

    let cells = run_matrix(&workloads, seed, jobs);

    let mut calibrated_union = Coverage::default();
    for cell in &cells {
        if cell.workload.family() == "calibrated" {
            calibrated_union.merge(cell.coverage);
        }
    }
    let mut family_union: Vec<(&'static str, Coverage)> = vec![
        ("zipf", Coverage::default()),
        ("adversarial", Coverage::default()),
        ("trace", Coverage::default()),
    ];
    let mut total_violations = 0u64;
    for cell in &cells {
        total_violations += cell.violations;
        for (family, union) in &mut family_union {
            if cell.workload.family() == *family {
                union.merge(cell.coverage);
            }
        }
    }

    // Human-readable matrix.
    println!(
        "[workloads] probe matrix: {} probes x {} workloads, seed {}",
        probe_matrix().len(),
        cells.len(),
        seed
    );
    for cell in &cells {
        let beyond = cell.coverage.0 & !calibrated_union.0;
        println!(
            "[workloads] {:<24} {:<11} coverage {:>2}/{}  beyond {:<2} violations {}",
            cell.workload.name(),
            cell.workload.family(),
            cell.coverage.count(),
            Coverage::FEATURES.len(),
            Coverage(beyond).count(),
            cell.violations
        );
    }
    for (family, union) in &family_union {
        let beyond = union.0 & !calibrated_union.0;
        println!(
            "[workloads] family {:<11} reaches beyond calibrated: {}",
            family,
            if beyond == 0 {
                "(nothing)".to_owned()
            } else {
                feature_labels(beyond).join(", ")
            }
        );
    }

    // JSON matrix.
    let mut json = String::from("{\n");
    json.push_str("  \"schema\": \"aep-workload-coverage/1\",\n");
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!("  \"probes\": {},\n", probe_matrix().len()));
    json.push_str(&format!(
        "  \"features\": {},\n",
        json_str_list(&Coverage::FEATURES.map(|(_, l)| l))
    ));
    json.push_str("  \"workloads\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        let beyond = cell.coverage.0 & !calibrated_union.0;
        json.push_str(&format!(
            "    {{\"name\": {}, \"family\": {}, \"features\": {}, \
             \"beyond_calibrated\": {}, \"violations\": {}, \"events_checked\": {}}}{}\n",
            escape(&cell.workload.name()),
            escape(cell.workload.family()),
            json_str_list(&feature_labels(cell.coverage.0)),
            json_str_list(&feature_labels(beyond)),
            cell.violations,
            cell.events_checked,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"calibrated_union\": {},\n",
        json_str_list(&feature_labels(calibrated_union.0))
    ));
    json.push_str("  \"families\": {\n");
    for (i, (family, union)) in family_union.iter().enumerate() {
        let beyond = union.0 & !calibrated_union.0;
        json.push_str(&format!(
            "    {}: {{\"features\": {}, \"beyond_calibrated\": {}}}{}\n",
            escape(family),
            json_str_list(&feature_labels(union.0)),
            json_str_list(&feature_labels(beyond)),
            if i + 1 == family_union.len() { "" } else { "," }
        ));
    }
    json.push_str("  },\n");

    // Gate evaluation.
    for (family, union) in &family_union {
        if union.0 & !calibrated_union.0 == 0 {
            failures.push(format!(
                "family '{family}' reaches no feature beyond the calibrated suite"
            ));
        }
    }
    if total_violations > 0 {
        failures.push(format!(
            "checker reported {total_violations} violations across the matrix"
        ));
    }

    json.push_str(&format!(
        "  \"gate\": {{\"passed\": {}, \"failures\": {}}}\n",
        failures.is_empty(),
        json_str_list(&failures.iter().map(String::as_str).collect::<Vec<_>>())
    ));
    json.push_str("}\n");

    if let Some(path) = &out {
        if let Some(parent) = path.parent() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("cannot create {}: {e}", parent.display());
                return 1;
            }
        }
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("cannot write {}: {e}", path.display());
            return 1;
        }
        println!("[workloads] coverage matrix written to {}", path.display());
    } else {
        print!("{json}");
    }

    if check {
        if failures.is_empty() {
            println!("[workloads] gate PASS: every family reaches beyond the calibrated suite");
            0
        } else {
            for f in &failures {
                eprintln!("[workloads] GATE FAIL: {f}");
            }
            1
        }
    } else {
        for f in &failures {
            println!("[workloads] note: {f}");
        }
        0
    }
}

fn run_gen_corpus(args: &[String]) -> i32 {
    let mut dir = PathBuf::from(TRACE_DIR);
    let parsed = Flags::each(args, |f, flag| {
        match flag {
            "--dir" => dir = f.path("a directory")?,
            "help" | "--help" | "-h" => return Err(FlagError::Help),
            _ => return Err(f.unknown()),
        }
        Ok(())
    });
    if let Err(e) = parsed {
        return e.exit_code("exp workloads gen-corpus", &usage());
    }
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return 1;
    }
    for (name, records) in corpus() {
        let path: PathBuf = Path::new(&dir).join(format!("{name}.trace"));
        match write_trace_file(&path, &records) {
            Ok(()) => println!(
                "[workloads] wrote {} ({} records)",
                path.display(),
                records.len()
            ),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return 1;
            }
        }
    }
    0
}

/// Runs `exp workloads` with its own argument grammar; returns the
/// process exit code.
#[must_use]
pub fn run(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("report") => run_report(&args[1..]),
        Some("gen-corpus") => run_gen_corpus(&args[1..]),
        Some("help" | "--help" | "-h") => {
            println!("{}", usage());
            0
        }
        None => {
            eprintln!("{}", usage());
            2
        }
        Some(other) => {
            eprintln!("exp workloads: unknown subcommand '{other}'\n\n{}", usage());
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_generation_is_deterministic() {
        let a = corpus();
        let b = corpus();
        assert_eq!(a.len(), b.len());
        for ((na, ra), (nb, rb)) in a.iter().zip(b.iter()) {
            assert_eq!(na, nb);
            assert_eq!(ra, rb);
            let ea = encode(ra).unwrap();
            let eb = encode(rb).unwrap();
            assert_eq!(ea, eb, "encoded bytes must be stable for {na}");
        }
    }

    #[test]
    fn committed_corpus_matches_generator() {
        // The corpus on disk must byte-match what gen-corpus would
        // write today — the same check `report --check` gates on.
        let failures = corpus_drift_failures();
        assert!(failures.is_empty(), "corpus drift: {failures:?}");
    }

    #[test]
    fn usage_exits_cleanly() {
        assert_eq!(run(&[]), 2);
        assert_eq!(run(&["help".into()]), 0);
        assert_eq!(run(&["nosuch".into()]), 2);
        assert_eq!(run(&["report".into(), "--jobs".into(), "zero".into()]), 2);
    }
}
