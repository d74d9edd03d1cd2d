//! Persistent on-disk cache of experiment results.
//!
//! Paper-scale experiment sessions re-run the same (benchmark, scheme)
//! configurations across process invocations — `exp fig3` and `exp fig5`
//! share an entire interval sweep, but an in-process memo dies with the
//! process. This module persists each finished [`RunStats`] as one small
//! text file under a cache directory (`results/cache/` by default),
//! keyed by everything the result depends on: scale, benchmark, scheme,
//! seed, and a hash of the full [`ExperimentConfig`] (so a change to
//! window sizes or the Table 1 machine invalidates old entries instead
//! of resurrecting them).
//!
//! The format is a deliberately dependency-free `key=value` text file.
//! Floating-point fields are stored as the hexadecimal IEEE-754 bit
//! pattern (`f64::to_bits`), which makes the round trip lossless: a
//! figure rendered from cached results is byte-identical to one rendered
//! from fresh runs.
//!
//! # Concurrency
//!
//! The cache is shared by design — the `exp serve` daemon, parallel lab
//! workers, and independent `exp` processes may all read and write one
//! directory at once. Two disciplines make that safe without locks:
//!
//! * **Unique-tmp write-then-rename.** Every store writes to a tmp file
//!   whose name embeds the process id and a process-global sequence
//!   number, then renames it over the final path. Renames within a
//!   directory are atomic on POSIX, so a reader sees either the old
//!   complete entry or the new complete entry — never a torn mix — even
//!   when two writers race on the same key.
//! * **Corrupt-entry-is-a-miss recovery.** A reader that does find a
//!   damaged entry (partial file from a crashed writer on a filesystem
//!   without atomic rename, stale format, hand-edited text) treats it as
//!   a miss, re-runs the experiment, and overwrites the entry — the
//!   cache is advisory, never authoritative.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use aep_core::EnergyCounters;
use aep_workloads::Workload;

use crate::runner::{ExperimentConfig, L2Window, RunStats};

/// Format version stamped into every cache file; bump on layout changes.
const FORMAT_VERSION: u64 = 1;

/// Process-global sequence for unique tmp-file names (see
/// [`RunCache::store`]): two threads storing the same key concurrently
/// must never share a tmp path, or the later rename could publish a
/// half-written file.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A directory of cached [`RunStats`], one file per configuration.
#[derive(Debug, Clone)]
pub struct RunCache {
    root: PathBuf,
}

impl RunCache {
    /// A cache rooted at `root` (created lazily on first store).
    #[must_use]
    pub fn new(root: impl Into<PathBuf>) -> Self {
        RunCache { root: root.into() }
    }

    /// The conventional cache location, `results/cache` under `base`.
    #[must_use]
    pub fn default_under(base: impl AsRef<Path>) -> Self {
        RunCache::new(base.as_ref().join("results").join("cache"))
    }

    /// The cache directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The cache key for `cfg` run at the scale named `scale`.
    ///
    /// Human-readable prefix (scale, benchmark, scheme, seed) plus an
    /// FNV-1a hash of the full config debug form, so *any* config change
    /// — window sizes, hierarchy geometry, scrubbing — changes the key.
    #[must_use]
    pub fn key(scale: &str, cfg: &ExperimentConfig) -> String {
        format!(
            "{scale}-{}-{}-s{}-{:016x}",
            cfg.benchmark.name(),
            scheme_slug(cfg.scheme),
            cfg.seed,
            fnv1a(format!("{cfg:?}").as_bytes())
        )
    }

    /// Loads the cached result for `key`, if present and parseable.
    ///
    /// Unreadable or stale-format files behave as misses: the caller
    /// re-runs the experiment and overwrites them.
    #[must_use]
    pub fn load(&self, key: &str) -> Option<RunStats> {
        self.load_checked(key).unwrap_or(None)
    }

    /// Like [`RunCache::load`], but distinguishes a plain miss from a
    /// cache-directory I/O problem (permissions, bad mount, …) so callers
    /// can warn instead of silently recomputing. A present-but-stale or
    /// malformed entry is still an ordinary miss (`Ok(None)`).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error for any failure other than the
    /// entry not existing.
    pub fn load_checked(&self, key: &str) -> io::Result<Option<RunStats>> {
        match std::fs::read_to_string(self.path_for(key)) {
            Ok(text) => Ok(parse_stats(&text)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Stores `stats` under `key`, creating the cache directory if needed.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or writing the
    /// file (callers typically log and continue; the cache is advisory).
    pub fn store(&self, key: &str, stats: &RunStats) -> io::Result<()> {
        self.publish(key, &render_stats(stats))
    }

    /// Loads an arbitrary text entry stored with [`RunCache::store_raw`]
    /// (non-`RunStats` results — e.g. fault-injection campaign tables).
    #[must_use]
    pub fn load_raw(&self, key: &str) -> Option<String> {
        std::fs::read_to_string(self.path_for(key)).ok()
    }

    /// Stores an arbitrary text entry under `key` with the same
    /// write-then-rename discipline as [`RunCache::store`].
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or writing the
    /// file.
    pub fn store_raw(&self, key: &str, text: &str) -> io::Result<()> {
        self.publish(key, text)
    }

    /// Write-then-rename publication. The tmp name is unique per
    /// (process, store call) so concurrent writers — same key or not —
    /// never interleave on one tmp file; the final rename is atomic
    /// within the directory, so readers only ever observe complete
    /// entries.
    fn publish(&self, key: &str, text: &str) -> io::Result<()> {
        std::fs::create_dir_all(&self.root)?;
        let path = self.path_for(key);
        let tmp = self.root.join(format!(
            "{key}.tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, text)?;
        let renamed = std::fs::rename(&tmp, &path);
        if renamed.is_err() {
            // Don't leave the orphan tmp behind on a failed publish.
            let _ = std::fs::remove_file(&tmp);
        }
        renamed
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.root.join(format!("{key}.run"))
    }
}

// The slug vocabulary lives beside `SchemeKind` in `aep-core` (the
// explorer's point IDs use it too); re-exported to keep call sites stable.
pub use aep_core::{parse_scheme_slug, scheme_slug};

/// 64-bit FNV-1a over `bytes` — the dependency-free hash behind cache
/// keys (and the fault campaign's config digests).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Renders `stats` as the cache-file text.
#[must_use]
pub fn render_stats(stats: &RunStats) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "version={FORMAT_VERSION}");
    let _ = writeln!(s, "benchmark={}", stats.benchmark.name());
    let _ = writeln!(s, "scheme={}", scheme_slug(stats.scheme));
    let _ = writeln!(s, "cycles={}", stats.cycles);
    let _ = writeln!(s, "committed={}", stats.committed);
    let _ = writeln!(s, "ipc={:016x}", stats.ipc.to_bits());
    let w = &stats.l2;
    let _ = writeln!(
        s,
        "l2.avg_dirty_fraction={:016x}",
        w.avg_dirty_fraction.to_bits()
    );
    let _ = writeln!(s, "l2.avg_dirty_lines={:016x}", w.avg_dirty_lines.to_bits());
    let _ = writeln!(
        s,
        "l2.final_dirty_fraction={:016x}",
        w.final_dirty_fraction.to_bits()
    );
    let _ = writeln!(s, "l2.wb_replacement={}", w.wb_replacement);
    let _ = writeln!(s, "l2.wb_cleaning={}", w.wb_cleaning);
    let _ = writeln!(s, "l2.wb_ecc={}", w.wb_ecc);
    let _ = writeln!(s, "l2.loads_stores={}", w.loads_stores);
    let _ = writeln!(
        s,
        "mispredict_ratio={:016x}",
        stats.mispredict_ratio.to_bits()
    );
    let _ = writeln!(s, "l1d_miss_ratio={:016x}", stats.l1d_miss_ratio.to_bits());
    let _ = writeln!(s, "l2_miss_ratio={:016x}", stats.l2_miss_ratio.to_bits());
    let e = &stats.energy;
    let _ = writeln!(s, "energy.parity_checks={}", e.parity_checks);
    let _ = writeln!(s, "energy.ecc_checks={}", e.ecc_checks);
    let _ = writeln!(s, "energy.parity_encodes={}", e.parity_encodes);
    let _ = writeln!(s, "energy.ecc_encodes={}", e.ecc_encodes);
    s
}

/// Parses cache-file text back into a [`RunStats`] (`None` on any
/// malformed, missing, or version-mismatched field, or without the
/// trailing newline [`render_stats`] always writes: a truncated entry
/// can still hold every field, its last number cut short).
#[must_use]
pub fn parse_stats(text: &str) -> Option<RunStats> {
    if !text.ends_with('\n') {
        return None;
    }
    let mut fields = std::collections::HashMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (k, v) = line.split_once('=')?;
        fields.insert(k, v);
    }
    let u64_of = |k: &str| -> Option<u64> { fields.get(k)?.parse().ok() };
    let f64_of = |k: &str| -> Option<f64> {
        Some(f64::from_bits(
            u64::from_str_radix(fields.get(k)?, 16).ok()?,
        ))
    };
    if u64_of("version")? != FORMAT_VERSION {
        return None;
    }
    let bench_name = *fields.get("benchmark")?;
    let benchmark = Workload::parse(bench_name)?;
    let scheme = parse_scheme_slug(fields.get("scheme")?)?;
    Some(RunStats {
        benchmark,
        scheme,
        cycles: u64_of("cycles")?,
        committed: u64_of("committed")?,
        ipc: f64_of("ipc")?,
        l2: L2Window {
            avg_dirty_fraction: f64_of("l2.avg_dirty_fraction")?,
            avg_dirty_lines: f64_of("l2.avg_dirty_lines")?,
            final_dirty_fraction: f64_of("l2.final_dirty_fraction")?,
            wb_replacement: u64_of("l2.wb_replacement")?,
            wb_cleaning: u64_of("l2.wb_cleaning")?,
            wb_ecc: u64_of("l2.wb_ecc")?,
            loads_stores: u64_of("l2.loads_stores")?,
        },
        mispredict_ratio: f64_of("mispredict_ratio")?,
        l1d_miss_ratio: f64_of("l1d_miss_ratio")?,
        l2_miss_ratio: f64_of("l2_miss_ratio")?,
        energy: EnergyCounters {
            parity_checks: u64_of("energy.parity_checks")?,
            ecc_checks: u64_of("energy.ecc_checks")?,
            parity_encodes: u64_of("energy.parity_encodes")?,
            ecc_encodes: u64_of("energy.ecc_encodes")?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aep_core::SchemeKind;
    use aep_workloads::Benchmark;

    fn sample_stats() -> RunStats {
        RunStats {
            benchmark: Benchmark::Gzip.into(),
            scheme: SchemeKind::Proposed {
                cleaning_interval: 1024 * 1024,
            },
            cycles: 50_000,
            committed: 123_456,
            ipc: 2.469_12,
            l2: L2Window {
                avg_dirty_fraction: 0.123_456_789_012_345,
                avg_dirty_lines: 2_022.718_281_828,
                final_dirty_fraction: 0.25,
                wb_replacement: 777,
                wb_cleaning: 42,
                wb_ecc: 7,
                loads_stores: 98_765,
            },
            mispredict_ratio: 0.061_8,
            l1d_miss_ratio: 0.031_41,
            l2_miss_ratio: 0.001_23,
            energy: EnergyCounters {
                parity_checks: 1,
                ecc_checks: 2,
                parity_encodes: 3,
                ecc_encodes: 4,
            },
        }
    }

    #[test]
    fn text_roundtrip_is_lossless() {
        let stats = sample_stats();
        let parsed = parse_stats(&render_stats(&stats)).expect("parses");
        assert_eq!(parsed, stats);
        // Bit-exact on the floating-point fields, not merely approximate:
        assert_eq!(parsed.ipc.to_bits(), stats.ipc.to_bits());
        assert_eq!(
            parsed.l2.avg_dirty_lines.to_bits(),
            stats.l2.avg_dirty_lines.to_bits()
        );
    }

    #[test]
    fn non_finite_floats_roundtrip() {
        // The hex-bit encoding must survive every non-finite class — a
        // decimal format would turn these into "NaN"/"inf" and miss.
        let quiet_nan_with_payload = f64::from_bits(0x7ff8_dead_beef_0123);
        let mut stats = sample_stats();
        stats.l2_miss_ratio = f64::INFINITY;
        stats.l1d_miss_ratio = f64::NEG_INFINITY;
        stats.ipc = quiet_nan_with_payload;
        stats.mispredict_ratio = -0.0;
        let parsed = parse_stats(&render_stats(&stats)).expect("parses");
        assert_eq!(parsed.l2_miss_ratio.to_bits(), f64::INFINITY.to_bits());
        assert_eq!(parsed.l1d_miss_ratio.to_bits(), f64::NEG_INFINITY.to_bits());
        // NaN payload bits preserved exactly (NaN != NaN, so compare bits).
        assert_eq!(parsed.ipc.to_bits(), quiet_nan_with_payload.to_bits());
        assert_eq!(parsed.mispredict_ratio.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn scheme_slugs_roundtrip() {
        let kinds = [
            SchemeKind::Uniform,
            SchemeKind::ParityOnly,
            SchemeKind::UniformWithCleaning {
                cleaning_interval: 65_536,
            },
            SchemeKind::Proposed {
                cleaning_interval: 1024 * 1024,
            },
            SchemeKind::ProposedMulti {
                cleaning_interval: 4 * 1024 * 1024,
                entries_per_set: 2,
            },
            SchemeKind::SilentWriteEcc {
                cleaning_interval: 1024 * 1024,
            },
            SchemeKind::ReuseCopyback {
                cleaning_interval: 1024 * 1024,
                multiplier: 4,
            },
        ];
        for kind in kinds {
            assert_eq!(parse_scheme_slug(&scheme_slug(kind)), Some(kind));
        }
        assert_eq!(parse_scheme_slug("bogus"), None);
        assert_eq!(parse_scheme_slug("proposed"), None);
        assert_eq!(parse_scheme_slug("uniform:1"), None);
        assert_eq!(parse_scheme_slug("silent"), None);
        assert_eq!(parse_scheme_slug("reuse:1048576"), None);
    }

    #[test]
    fn malformed_text_is_a_miss() {
        assert!(parse_stats("").is_none());
        assert!(parse_stats("version=99\n").is_none());
        let stats = sample_stats();
        let text = render_stats(&stats);
        let truncated: String = text.lines().take(5).collect::<Vec<_>>().join("\n");
        assert!(parse_stats(&truncated).is_none());
    }

    #[test]
    fn every_strict_prefix_of_an_entry_is_a_miss() {
        // A prefix cut inside the last line (`energy.ecc_encodes=2` of
        // `=2205`) still holds every field; only the missing newline
        // tells it from the whole entry.
        let mut stats = sample_stats();
        stats.energy.ecc_encodes = 2_205;
        let text = render_stats(&stats);
        for end in 0..text.len() {
            assert!(
                parse_stats(&text[..end]).is_none(),
                "prefix of {end} bytes parsed"
            );
        }
        let parsed = parse_stats(&text).expect("the whole entry parses");
        assert_eq!(render_stats(&parsed), text);
    }

    #[test]
    fn keys_separate_configs() {
        let cfg = |b, k| ExperimentConfig::fast_test(b, k);
        let a = RunCache::key("smoke", &cfg(Benchmark::Gzip, SchemeKind::Uniform));
        let b = RunCache::key("smoke", &cfg(Benchmark::Mcf, SchemeKind::Uniform));
        let c = RunCache::key("smoke", &cfg(Benchmark::Gzip, SchemeKind::ParityOnly));
        let d = RunCache::key("quick", &cfg(Benchmark::Gzip, SchemeKind::Uniform));
        let mut cfg2 = cfg(Benchmark::Gzip, SchemeKind::Uniform);
        cfg2.measure_cycles += 1;
        let e = RunCache::key("smoke", &cfg2);
        let keys = [&a, &b, &c, &d, &e];
        for (i, x) in keys.iter().enumerate() {
            for y in keys.iter().skip(i + 1) {
                assert_ne!(x, y);
            }
        }
    }

    #[test]
    fn raw_entries_roundtrip() {
        let dir = std::env::temp_dir().join(format!(
            "aep-runcache-raw-test-{}-{:x}",
            std::process::id(),
            fnv1a(b"raw_roundtrip")
        ));
        let cache = RunCache::new(&dir);
        assert!(cache.load_raw("faults-x").is_none());
        cache
            .store_raw("faults-x", "version=1\nmasked=3\n")
            .expect("store succeeds");
        assert_eq!(
            cache.load_raw("faults-x").as_deref(),
            Some("version=1\nmasked=3\n")
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_roundtrip() {
        let dir = std::env::temp_dir().join(format!(
            "aep-runcache-test-{}-{:x}",
            std::process::id(),
            fnv1a(b"disk_roundtrip")
        ));
        let cache = RunCache::new(&dir);
        let stats = sample_stats();
        let key = "smoke-gzip-proposed:1048576-s2006-0123456789abcdef";
        assert!(cache.load(key).is_none(), "cold cache must miss");
        cache.store(key, &stats).expect("store succeeds");
        assert_eq!(cache.load(key), Some(stats));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_entry_file_is_a_miss_and_recoverable() {
        let dir = std::env::temp_dir().join(format!(
            "aep-runcache-corrupt-test-{}-{:x}",
            std::process::id(),
            fnv1a(b"corrupt_entry")
        ));
        let cache = RunCache::new(&dir);
        let key = "smoke-gzip-uniform-s2006-00000000deadbeef";
        // Simulate a torn write from a crashed writer on a filesystem
        // without atomic rename: a directly-placed garbage entry.
        std::fs::create_dir_all(cache.root()).unwrap();
        std::fs::write(cache.root().join(format!("{key}.run")), "vers").unwrap();
        assert_eq!(cache.load(key), None, "corrupt entry must read as a miss");
        assert!(
            matches!(cache.load_checked(key), Ok(None)),
            "corruption is a miss, not an I/O error"
        );
        // Recovery: the caller re-runs and overwrites the damaged entry.
        let stats = sample_stats();
        cache.store(key, &stats).expect("store over corrupt entry");
        assert_eq!(cache.load(key), Some(stats));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Satellite contract: two threads hammering the *same* key must
    /// never let any reader observe a torn entry — every load is either
    /// a miss (before the first publish) or one of the two complete
    /// payloads, bit-exact.
    #[test]
    fn concurrent_same_key_writers_never_tear() {
        let dir = std::env::temp_dir().join(format!(
            "aep-runcache-race-test-{}-{:x}",
            std::process::id(),
            fnv1a(b"concurrent_writers")
        ));
        std::fs::remove_dir_all(&dir).ok();
        let cache = RunCache::new(&dir);
        let key = "smoke-gzip-uniform-s2006-feedfacecafebeef";

        let mut stats_a = sample_stats();
        stats_a.committed = 0xaaaa_aaaa;
        stats_a.ipc = 1.111_111_111_111;
        let mut stats_b = sample_stats();
        stats_b.committed = 0xbbbb_bbbb;
        stats_b.ipc = 2.222_222_222_222;

        const ROUNDS: usize = 200;
        std::thread::scope(|scope| {
            for payload in [&stats_a, &stats_b] {
                let cache = cache.clone();
                scope.spawn(move || {
                    for _ in 0..ROUNDS {
                        cache.store(key, payload).expect("store");
                    }
                });
            }
            let cache = cache.clone();
            let (a, b) = (stats_a.clone(), stats_b.clone());
            scope.spawn(move || {
                let mut hits = 0usize;
                while hits < ROUNDS {
                    match cache.load_checked(key) {
                        Ok(Some(seen)) => {
                            assert!(
                                seen == a || seen == b,
                                "reader saw a torn/foreign entry: {seen:?}"
                            );
                            hits += 1;
                        }
                        Ok(None) => {
                            // A miss is only legal before the first
                            // publish; after that, renames are atomic and
                            // the entry never vanishes. We can't observe
                            // "first publish happened" race-free from
                            // here, so just keep polling — the assert
                            // above is the torn-read oracle.
                        }
                        Err(e) => panic!("reader hit I/O error: {e}"),
                    }
                }
            });
        });
        // Steady state: exactly one complete winner, no leftover tmp files.
        let survivors: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(survivors, vec![format!("{key}.run")]);
        let final_entry = cache.load(key).expect("winner present");
        assert!(final_entry == stats_a || final_entry == stats_b);
        std::fs::remove_dir_all(&dir).ok();
    }
}
