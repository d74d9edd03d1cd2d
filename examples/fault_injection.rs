//! Soft-error injection campaign: strike the L2 of a running Table 1
//! machine and watch each protection scheme correct, refetch — or lose
//! data.
//!
//! This is the reliability argument of the paper made executable: the
//! proposed non-uniform scheme recovers every single-bit strike uniform
//! ECC recovers (dirty lines via the shared ECC array, clean lines via
//! parity + refetch) while costing 59 % less check storage; a parity-only
//! design loses every consumed strike on a dirty line.
//!
//! ```sh
//! cargo run --release --example fault_injection
//! ```

use aep::core::SchemeKind;
use aep::sim::build_scheme;
use aep::workloads::Benchmark;
use aep_faultsim::{run_campaign_report, CampaignConfig};

fn main() {
    const TRIALS: u32 = 1_000;
    const P_DOUBLE: f64 = 0.02; // 2% of strikes flip two bits of a word

    let jobs = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "{TRIALS} live strikes per scheme on gap ({:.0}% double-bit)\n",
        P_DOUBLE * 100.0
    );
    println!(
        "{:<22} {:>7} {:>9} {:>8} {:>6} {:>6} {:>9} {:>9}",
        "scheme", "masked", "corrected", "refetch", "DUE", "SDC", "no-loss%", "storage"
    );

    let schemes = [
        SchemeKind::Uniform,
        SchemeKind::Proposed {
            cleaning_interval: 1 << 20,
        },
        SchemeKind::ParityOnly,
    ];
    for kind in schemes {
        let mut cfg = CampaignConfig::new(Benchmark::Gap, kind);
        // Warm long enough for the L2 to reach its steady dirty
        // population, so most strikes land on live data.
        cfg.warmup_cycles = 1_500_000;
        cfg.trials = TRIALS;
        cfg.p_double = P_DOUBLE;
        let report = run_campaign_report(&cfg, jobs);
        let t = &report.total;
        let scheme = build_scheme(kind, &cfg.hierarchy);
        println!(
            "{:<22} {:>7} {:>9} {:>8} {:>6} {:>6} {:>8.2}% {:>9}",
            scheme.name(),
            t.masked,
            t.corrected,
            t.refetch_recovered,
            t.due,
            t.sdc,
            t.survival_rate() * 100.0,
            scheme.area().total().to_string(),
        );
    }

    println!(
        "\nReading the table: masked strikes never mattered (invalid frame, \
         overwritten, or a clean\nline dropped intact). Uniform ECC and the \
         proposed scheme lose only double-bit strikes;\nparity-only also loses \
         every consumed dirty-line strike, and same-word doubles slip past\nits \
         parity silently (SDC). The proposed scheme closes that gap with a 32 KB \
         shared ECC\narray, at 59% less storage than uniform ECC."
    );
}
