//! Cleaning-interval design sweep for a single benchmark: the trade-off
//! at the heart of the paper's §5.1 (Figures 3–6), plus the proposed
//! scheme's operating point.
//!
//! ```sh
//! cargo run --release --example interval_sweep [benchmark]
//! ```

use aep::core::lineup::CLEANING_INTERVALS;
use aep::core::scheme::human_interval;
use aep::core::SchemeKind;
use aep::sim::{ExperimentConfig, Runner};
use aep::workloads::Benchmark;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "apsi".into());
    let benchmark = Benchmark::all()
        .into_iter()
        .find(|b| b.name() == name)
        .unwrap_or_else(|| {
            eprintln!(
                "unknown benchmark '{name}'; choose one of: {}",
                Benchmark::all().map(|b| b.name()).join(" ")
            );
            std::process::exit(2);
        });

    println!("cleaning-interval sweep on {benchmark}\n");
    println!(
        "{:<14} {:>8} {:>12} {:>8}",
        "config", "%dirty", "WB/1k-ops", "IPC"
    );

    let run = |label: String, scheme: SchemeKind| {
        let stats = Runner::new(ExperimentConfig::quick(benchmark, scheme)).run();
        println!(
            "{label:<14} {:>7.1}% {:>12.2} {:>8.3}",
            stats.l2.avg_dirty_fraction * 100.0,
            stats.l2.wb_percent() * 10.0, // per 1000 loads/stores
            stats.ipc
        );
    };

    run("org".into(), SchemeKind::Uniform);
    for interval in CLEANING_INTERVALS {
        run(
            format!("clean@{}", human_interval(interval)),
            SchemeKind::UniformWithCleaning {
                cleaning_interval: interval,
            },
        );
    }
    run(
        "proposed@1M".into(),
        SchemeKind::Proposed {
            cleaning_interval: 1024 * 1024,
        },
    );

    println!(
        "\nSmaller intervals clean more aggressively: fewer dirty lines (less ECC\n\
         state to protect) but more write-back traffic. The paper picks 1M cycles;\n\
         the proposed row adds the shared per-set ECC array, which caps dirty lines\n\
         at one per set (25% of a 4-way cache) regardless of the workload."
    );
}
