//! Black-box tests of the `exp` binary's CLI contract: `help` renders
//! usage on stdout and succeeds, while unknown commands and malformed
//! flags render usage/diagnostics on stderr and exit nonzero.
//!
//! Exit-code contract (documented in `exp help`):
//!   0 — success (including a passing `exp gate`)
//!   1 — stats-gate regression (counter drift, missing/extra keys,
//!       missing or malformed goldens)
//!   2 — usage errors (unknown command, malformed flag)

use std::process::Command;

fn exp(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args)
        .output()
        .expect("exp binary runs")
}

/// Every table command `exp` dispatches.
const TABLES: [&str; 19] = [
    "table1",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "perf",
    "area",
    "calibrate",
    "ablation",
    "reliability",
    "energy",
    "lifetimes",
    "sensitivity",
    "cleaners",
    "seeds",
];

#[test]
fn help_prints_usage_on_stdout_and_succeeds() {
    let declared: Vec<&str> = aep_bench::experiments::figures()
        .iter()
        .map(|f| f.slug)
        .collect();
    assert_eq!(declared, TABLES, "every declared table is listed here");
    let others = [
        "all",
        "faults",
        "run",
        "trace",
        "gate",
        "explore",
        "check",
        "bench",
        "faults-bench",
        "lanes",
        "serve",
        "submit",
        "hammer",
        "workloads",
    ];
    for args in [&[][..], &["help"][..], &["--help"][..]] {
        let out = exp(args);
        assert!(out.status.success(), "{args:?} must exit 0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage: exp <command>"), "{args:?}");
        for command in TABLES.iter().chain(&others) {
            assert!(
                stdout
                    .lines()
                    .any(|l| l.split_whitespace().next() == Some(command)),
                "usage must list `{command}`:\n{stdout}"
            );
        }
    }
}

/// The extension tables no other test or CI step runs: each must exit 0
/// and print its title and a `MEAN` row.
#[test]
fn every_extension_table_renders_at_smoke_scale() {
    let dir = TempWorkdir::new("tables");
    for slug in [
        "calibrate",
        "ablation",
        "reliability",
        "energy",
        "lifetimes",
        "sensitivity",
        "cleaners",
        "seeds",
    ] {
        let title = aep_bench::experiments::figure(slug)
            .expect("declared table")
            .title();
        let out = exp_in(
            &dir.0,
            &[slug, "--scale", "smoke", "--no-cache", "--jobs", "2"],
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{slug}: {out:?}");
        assert_eq!(stdout.lines().next(), Some(title.as_str()), "{slug}");
        assert!(
            stdout.lines().any(|l| l.starts_with("MEAN ")),
            "{slug} has no MEAN row:\n{stdout}"
        );
    }
}

/// `exp faults --stats-json` publishes each scheme's campaign under
/// `faults.model.<model>.<scheme>` (it used to abort on the dotted key).
#[test]
fn faults_stats_json_publishes_every_scheme() {
    let dir = TempWorkdir::new("faults-json");
    let args = ["faults", "--scale", "smoke", "--no-cache", "--jobs", "2"];
    let out = exp_in(
        &dir.0,
        &[&args[..], &["--trials", "20", "--stats-json"]].concat(),
    );
    assert!(out.status.success(), "{out:?}");
    let json = aep_obs::json::parse(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
    let stats = json.as_object().expect("object")["stats"]
        .as_object()
        .expect("stats");
    for scheme in aep_bench::faults::faults_schemes() {
        let key = format!(
            "faults.model.single.{}.masked",
            aep_sim::runcache::scheme_slug(scheme)
        );
        assert!(stats.contains_key(&key), "missing {key}");
    }
}

/// `seeds` and `sensitivity` plan through the lab, so a second render
/// comes entirely from the disk cache and prints the same bytes.
#[test]
fn planned_extension_tables_rerender_from_the_cache() {
    let dir = TempWorkdir::new("warm");
    for slug in ["seeds", "sensitivity"] {
        let args = [slug, "--scale", "smoke", "--jobs", "2"];
        let cold = exp_in(&dir.0, &args);
        let warm = exp_in(&dir.0, &args);
        assert!(cold.status.success() && warm.status.success(), "{slug}");
        let stderr = String::from_utf8_lossy(&warm.stderr);
        let batch = stderr
            .lines()
            .find(|l| l.starts_with("[lab] batch:"))
            .unwrap_or_else(|| panic!("{slug}: no batch line in {stderr}"));
        assert!(batch.ends_with(", 0 evaluated"), "{slug}: {batch}");
        assert_eq!(cold.stdout, warm.stdout, "{slug} re-render differs");
    }
}

#[test]
fn unknown_command_prints_usage_on_stderr_and_fails() {
    let out = exp(&["figure99"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command 'figure99'"));
    assert!(stderr.contains("usage: exp <command>"));
    assert!(
        out.stdout.is_empty(),
        "diagnostics belong on stderr, not stdout"
    );
}

#[test]
fn malformed_flags_fail_with_a_diagnostic() {
    for (args, needle) in [
        (&["fig1", "--scale", "huge"][..], "unknown scale"),
        (&["fig1", "--jobs", "0"][..], "--jobs requires"),
        (&["faults", "--trials", "none"][..], "--trials requires"),
        (&["faults", "--p-double", "2.0"][..], "--p-double requires"),
        (&["faults", "--bench", "nosuch"][..], "unknown workload"),
        (&["faults", "--model", "nosuch"][..], "unknown fault model"),
        (
            &["faults", "--model", "burst:99"][..],
            "unknown fault model",
        ),
        (
            &["faults", "--interleave", "0"][..],
            "--interleave requires",
        ),
        (
            &["faults", "--scale", "smoke", "--interleave", "3"][..],
            "does not divide",
        ),
        (
            &[
                "run",
                "--scale",
                "smoke",
                "--faults-trials",
                "10",
                "--interleave",
                "3",
            ][..],
            "does not divide",
        ),
        (&["fig1", "--frobnicate"][..], "unknown argument"),
        (&["run", "--scheme", "nosuch"][..], "unknown scheme"),
        // Challenger slugs need their knob suffixes: a bare `silent`, a
        // human-suffixed interval, or a reuse slug without its multiplier
        // are all usage errors, and the diagnostic teaches the grammar.
        (&["run", "--scheme", "silent"][..], "silent:N|reuse:N:M"),
        (&["run", "--scheme", "silent:1M"][..], "unknown scheme"),
        (&["run", "--scheme", "reuse:1048576"][..], "unknown scheme"),
        (
            &["run", "--scheme", "reuse:1048576:0:9"][..],
            "unknown scheme",
        ),
        (&["trace", "--capacity", "0"][..], "--capacity requires"),
        (
            &["run", "--faults-trials", "no"][..],
            "--faults-trials requires",
        ),
        (&["gate", "--golden"][..], "--golden requires"),
        (&["faults", "--seed", "x"][..], "--seed requires"),
        (&["fig1", "--out"][..], "--out requires"),
        (
            &["workloads", "report", "--seed", "x"][..],
            "--seed requires",
        ),
        (
            &["workloads", "report", "--jobs", "0"][..],
            "--jobs requires",
        ),
        (&["workloads", "report", "--out"][..], "--out requires"),
        (&["workloads", "gen-corpus", "--dir"][..], "--dir requires"),
        (
            &["workloads", "gen-corpus", "--frobnicate"][..],
            "unknown argument",
        ),
    ] {
        let out = exp(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: stderr was {stderr}");
    }
}

/// A scratch golden directory that cleans up after itself.
struct TempGolden(std::path::PathBuf);

impl TempGolden {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("aep-gate-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp golden dir");
        TempGolden(dir)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for TempGolden {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// The full gate exit-code contract in one pass over a scratch golden
/// directory: regenerate (0), pass (0), tolerated rate drift (0, noted),
/// hard counter regression (1), missing goldens (1).
#[test]
fn gate_exit_codes_cover_pass_drift_and_regression() {
    let golden = TempGolden::new("contract");

    // Missing goldens: hard failure with a regeneration hint.
    let out = exp(&["gate", "--golden", golden.path()]);
    assert_eq!(out.status.code(), Some(1), "empty golden dir must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("missing golden"), "stderr: {stderr}");
    assert!(
        stderr.contains("--regen"),
        "must hint the regeneration flow"
    );

    // Regenerate, then the gate passes with exit 0.
    let out = exp(&["gate", "--golden", golden.path(), "--regen"]);
    assert!(out.status.success(), "regen must succeed");
    let out = exp(&["gate", "--golden", golden.path()]);
    assert_eq!(out.status.code(), Some(0), "fresh goldens must pass");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("gate PASS"), "stdout: {stdout}");

    // Tolerated drift: nudge one rate by ~1 % (inside the ±2 % band).
    // window.ipc is a plain decimal in every snapshot, so rewrite it.
    let victim = std::fs::read_dir(&golden.0)
        .expect("golden dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "json"))
        .expect("at least one golden");
    let original = std::fs::read_to_string(&victim).expect("read golden");
    let drifted = nudge_rate(&original, "window.ipc", 1.01);
    std::fs::write(&victim, &drifted).expect("write drifted golden");
    let out = exp(&["gate", "--golden", golden.path()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "1% rate drift must be tolerated"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("rate drift (tolerated)"),
        "drift must be noted: {stdout}"
    );

    // Hard regression: a counter perturbation must exit 1.
    let perturbed = original.replace(
        "\"cpu.pipeline.committed\": { \"kind\": \"counter\", \"value\": ",
        "\"cpu.pipeline.committed\": { \"kind\": \"counter\", \"value\": 9",
    );
    assert_ne!(perturbed, original, "perturbation must hit the snapshot");
    std::fs::write(&victim, &perturbed).expect("write perturbed golden");
    let out = exp(&["gate", "--golden", golden.path()]);
    assert_eq!(out.status.code(), Some(1), "counter drift must fail");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("counter mismatch"), "stdout: {stdout}");
    assert!(stdout.contains("gate FAIL"), "stdout: {stdout}");
}

/// A scratch working directory for `exp explore` runs, so the relative
/// `results/{cache,dse}` outputs land in temp space and clean up on drop.
struct TempWorkdir(std::path::PathBuf);

impl TempWorkdir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("aep-explore-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp workdir");
        TempWorkdir(dir)
    }
}

impl Drop for TempWorkdir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn exp_in(dir: &std::path::Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("exp binary runs")
}

#[test]
fn explore_help_renders_usage_and_succeeds() {
    let out = exp(&["explore", "help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("exp explore"));
    assert!(stdout.contains("grid"));
    assert!(stdout.contains("frontier"));
}

#[test]
fn explore_usage_errors_exit_2_with_a_diagnostic() {
    for (args, needle) in [
        (&["explore"][..], "missing mode"),
        (&["explore", "walk"][..], "unknown mode 'walk'"),
        (&["explore", "grid", "--scale", "huge"][..], "unknown scale"),
        (&["explore", "grid", "--jobs", "0"][..], "--jobs needs"),
        (&["explore", "grid", "--budget", "0"][..], "--budget needs"),
        (&["explore", "grid", "--trials", "0"][..], "--trials needs"),
        (&["explore", "grid", "--in"][..], "--in requires"),
        (
            &["explore", "grid", "--objectives", "ipc,bogus"][..],
            "unknown objective 'bogus'",
        ),
        (
            &["explore", "grid", "--axes", "scheme=nosuch"][..],
            "unknown scheme 'nosuch'",
        ),
        (
            &["explore", "grid", "--axes", "scrub=0"][..],
            "bad scrub period '0'",
        ),
        (
            &["explore", "grid", "--axes", "interleave=0"][..],
            "bad interleave degree '0'",
        ),
        (
            &["explore", "grid", "--fault-model", "nosuch"][..],
            "unknown fault model 'nosuch'",
        ),
        (&["explore", "grid", "--frobnicate"][..], "unknown argument"),
    ] {
        let out = exp(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: stderr was {stderr}");
        assert!(
            stderr.contains("usage: exp explore"),
            "{args:?} must render the explore usage"
        );
    }
}

#[test]
fn explore_frontier_without_records_exits_1() {
    let work = TempWorkdir::new("no-records");
    let out = exp_in(&work.0, &["explore", "frontier", "--in", "nope.dse"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read"), "stderr: {stderr}");
}

/// The end-to-end acceptance path at smoke scale: a {scheme × interval}
/// grid puts the proposed scheme at the 1M interval on the frontier, the
/// frontier JSON is byte-identical across worker counts, a warm-cache
/// rerun simulates nothing, and `explore frontier` re-analyses the
/// persisted records to the identical report.
#[test]
fn explore_grid_acceptance_determinism_and_reanalysis() {
    let work = TempWorkdir::new("grid");
    let grid = |jobs: &str| {
        exp_in(
            &work.0,
            &[
                "explore",
                "grid",
                "--scale",
                "smoke",
                "--axes",
                "scheme=uniform,proposed;interval=256K,1M;bench=gzip",
                "--objectives",
                "ipc,area,traffic",
                "--jobs",
                jobs,
            ],
        )
    };

    let out = grid("2");
    assert!(
        out.status.success(),
        "grid run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // One batch for the grid; reading each point back is a memo hit,
    // which prints nothing.
    let stderr = String::from_utf8_lossy(&out.stderr);
    let batches = stderr.lines().filter(|l| l.starts_with("[lab] batch:"));
    assert_eq!(batches.count(), 1, "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("## Pareto frontier"), "stdout: {stdout}");
    assert!(
        stdout.contains("gzip-proposed_1048576"),
        "proposed@1M must make the frontier: {stdout}"
    );

    let json_path = work.0.join("results/dse/grid_smoke_frontier.json");
    let first = std::fs::read_to_string(&json_path).expect("frontier JSON written");
    let proposed_line = first
        .lines()
        .find(|l| l.contains("\"id\": \"gzip-proposed_1048576\""))
        .expect("proposed@1M appears in the frontier JSON");
    assert!(
        proposed_line.contains("\"frontier\": true"),
        "proposed@1M must be non-dominated: {proposed_line}"
    );

    // Warm rerun with a different worker count: zero fresh simulations
    // and byte-identical frontier JSON.
    let out = grid("1");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("fresh simulations this invocation: 0"),
        "warm cache must satisfy the rerun: {stderr}"
    );
    let second = std::fs::read_to_string(&json_path).expect("frontier JSON rewritten");
    assert_eq!(first, second, "frontier JSON must not depend on --jobs");

    // Re-analysis from the lossless records reproduces the same report.
    let out = exp_in(
        &work.0,
        &["explore", "frontier", "--in", "results/dse/grid_smoke.dse"],
    );
    assert!(
        out.status.success(),
        "frontier mode failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let reanalysis =
        std::fs::read_to_string(work.0.join("results/dse/reanalysis_smoke_frontier.json"))
            .expect("reanalysis JSON written");
    assert_eq!(
        first, reanalysis,
        ".dse records must re-analyse bit-for-bit"
    );
}

/// A fault-campaign cache entry with fewer chunks than its config is a
/// damaged one, even when its totals add up: the explorer reruns the
/// campaign and rewrites the entry, as `exp faults` does.
#[test]
fn explore_reruns_a_campaign_entry_with_missing_chunks() {
    let work = TempWorkdir::new("chunks");
    let args = [
        "explore",
        "grid",
        "--scale",
        "smoke",
        "--axes",
        "scheme=proposed;interval=1M;bench=gzip",
        "--objectives",
        "area,due",
        "--trials",
        "40",
        "--jobs",
        "2",
    ];
    let out = exp_in(&work.0, &args);
    assert!(out.status.success(), "{out:?}");
    let entry_path = std::fs::read_dir(work.0.join("results/cache"))
        .expect("cache written")
        .map(|e| e.expect("cache entry").path())
        .find(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            name.starts_with("faults-smoke-gzip-") && name.ends_with(".run")
        })
        .expect("the campaign is cached");
    let entry = std::fs::read_to_string(&entry_path).expect("entry readable");
    assert_eq!(entry.lines().filter(|l| l.starts_with("chunk=")).count(), 4);

    // Drop the last chunk and take it out of the totals, so the entry
    // still parses and sums, but covers 30 of 40 trials.
    let mut lines: Vec<String> = entry.lines().map(str::to_owned).collect();
    let last = lines.pop().expect("a chunk line");
    let dropped: Vec<u64> = last["chunk=".len()..]
        .split(',')
        .map(|n| n.parse().expect("count"))
        .collect();
    let fields = [
        "masked=",
        "corrected=",
        "refetch=",
        "due=",
        "sdc=",
        "struck_valid=",
        "struck_dirty=",
    ];
    for line in &mut lines {
        if let Some(i) = fields.iter().position(|f| line.starts_with(f)) {
            let total: u64 = line[fields[i].len()..].parse().expect("count");
            *line = format!("{}{}", fields[i], total - dropped[i]);
        }
    }
    let damaged: String = lines.iter().map(|l| format!("{l}\n")).collect();
    std::fs::write(&entry_path, damaged).expect("cache writable");

    let out = exp_in(&work.0, &args);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        std::fs::read_to_string(&entry_path).expect("entry readable"),
        entry,
        "the damaged entry must be rerun and rewritten"
    );
}

/// Multiplies the decimal value of `key`'s rate line by `factor`,
/// re-rendering with full precision (snapshot rates are shortest
/// round-trip decimals, so parse-perturb-print stays in tolerance).
fn nudge_rate(json: &str, key: &str, factor: f64) -> String {
    let needle = format!("\"{key}\": {{ \"kind\": \"rate\", \"value\": ");
    let mut out = String::new();
    for line in json.lines() {
        if let Some(pos) = line.find(&needle) {
            let value_start = pos + needle.len();
            let rest = &line[value_start..];
            let end = rest.find(' ').expect("rate value ends with space");
            let value: f64 = rest[..end].parse().expect("rate parses");
            out.push_str(&line[..value_start]);
            out.push_str(&format!("{:?}", value * factor));
            out.push_str(&rest[end..]);
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

#[test]
fn check_help_renders_usage_and_succeeds() {
    let out = exp(&["check", "help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: exp check"));
    assert!(stdout.contains("--inject-violation"));
}

#[test]
fn check_usage_errors_exit_2_with_a_diagnostic() {
    for (args, needle) in [
        (&["check", "--frobnicate"][..], "unknown argument"),
        (&["check", "--scale", "huge"][..], "unknown check scale"),
        (
            &["check", "--fuzz-iters", "many"][..],
            "--fuzz-iters requires",
        ),
        (&["check", "--seed", "x"][..], "--seed requires"),
        (&["check", "--jobs", "0"][..], "--jobs requires"),
        (&["check", "--out"][..], "--out requires"),
    ] {
        let out = exp(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: stderr was {stderr}");
    }
}

#[test]
fn check_smoke_run_is_clean_and_exits_0() {
    let work = TempWorkdir::new("check-clean");
    let out = exp_in(
        &work.0,
        &[
            "check",
            "--scale",
            "smoke",
            "--fuzz-iters",
            "8",
            "--seed",
            "1",
        ],
    );
    assert_eq!(out.status.code(), Some(0), "clean run exits 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[check] all checks clean"));
    // Every registered scheme family appears in the lockstep report.
    for scheme in ["org", "parity-only", "proposed@1M", "proposed2e@1M"] {
        assert!(stdout.contains(scheme), "lockstep must cover {scheme}");
    }
}

#[test]
fn check_injected_violation_exits_1_with_a_shrunk_reproducer() {
    let work = TempWorkdir::new("check-inject");
    let out = exp_in(
        &work.0,
        &[
            "check",
            "--scale",
            "smoke",
            "--fuzz-iters",
            "8",
            "--seed",
            "7",
            "--inject-violation",
        ],
    );
    assert_eq!(out.status.code(), Some(1), "caught violation exits 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[check] FAIL"));
    assert!(
        stdout.contains("no live or retiring"),
        "the violation names the lost-protection window"
    );
    let repro = work.0.join("results/check/reproducer_seed7.json");
    let body = std::fs::read_to_string(&repro).expect("reproducer written");
    assert!(body.contains("\"genome\""));
    assert!(body.contains("\"violations\""));
}

#[test]
fn serve_subcommand_help_and_usage_errors() {
    for sub in ["serve", "submit", "hammer"] {
        let out = exp(&[sub, "help"]);
        assert!(out.status.success(), "{sub} help must exit 0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(&format!("usage: exp {sub}")),
            "{sub} help renders its usage"
        );
    }
    for (args, needle) in [
        (&["serve", "--frobnicate"][..], "unknown argument"),
        (&["serve", "--scale", "huge"][..], "unknown scale"),
        (&["serve", "--jobs", "0"][..], "--jobs requires"),
        (
            &["serve", "--queue-depth", "0"][..],
            "--queue-depth requires",
        ),
        (&["serve", "--tcp"][..], "--tcp requires"),
        (&["serve", "--client-cap", "0"][..], "--client-cap requires"),
        (&["serve", "--unix"][..], "--unix requires"),
        (&["submit", "--frobnicate"][..], "unknown argument"),
        (&["submit", "--bench", "nosuch"][..], "unknown benchmark"),
        (&["submit", "--scheme", "nosuch"][..], "unknown scheme"),
        (&["submit", "--seed", "x"][..], "--seed requires"),
        (&["submit", "--warmup", "x"][..], "--warmup requires"),
        (&["submit", "--measure", "x"][..], "--measure requires"),
        (&["submit", "--scrub", "x"][..], "--scrub requires"),
        (&["submit", "--id"][..], "--id requires"),
        (
            &["submit", "--connect", "carrier-pigeon", "--ping"][..],
            "bad endpoint",
        ),
        (&["hammer", "--frobnicate"][..], "unknown argument"),
        (&["hammer", "--steps", "0,2"][..], "--steps requires"),
        (&["hammer", "--steps", ""][..], "--steps requires"),
        (&["hammer", "--step-ms", "0"][..], "--step-ms requires"),
        (&["hammer", "--floor-rps", "-1"][..], "--floor-rps requires"),
        (&["hammer", "--floor-hit", "2"][..], "--floor-hit requires"),
        (&["hammer", "--measure", "0"][..], "--measure requires"),
        (&["hammer", "--seed", "x"][..], "--seed requires"),
        (&["hammer", "--out"][..], "--out requires"),
        (
            &["hammer", "--connect", "carrier-pigeon"][..],
            "bad endpoint",
        ),
    ] {
        let out = exp(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: stderr was {stderr}");
    }
}

/// The challenger schemes are first-class `--scheme` citizens: `exp run`
/// accepts their slugs and reports their scoped counters, and
/// `exp faults --challengers` appends both to the campaign line-up.
#[test]
fn challenger_slugs_run_end_to_end() {
    let out = exp(&[
        "run",
        "--scale",
        "smoke",
        "--scheme",
        "silent:1048576",
        "--bench",
        "flood:4096",
    ]);
    assert!(
        out.status.success(),
        "silent run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("scheme = silent:1048576"),
        "snapshot must name the scheme: {stdout}"
    );
    assert!(
        stdout.contains("scheme.silent."),
        "the silent-store counters must be published: {stdout}"
    );

    let out = exp(&[
        "run",
        "--scale",
        "smoke",
        "--scheme",
        "reuse:1048576:4",
        "--bench",
        "gzip",
    ]);
    assert!(
        out.status.success(),
        "reuse run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("scheme = reuse:1048576:4"), "{stdout}");

    let work = TempWorkdir::new("faults-challengers");
    let out = exp_in(
        &work.0,
        &[
            "faults",
            "--scale",
            "smoke",
            "--trials",
            "8",
            "--challengers",
            "--no-cache",
        ],
    );
    assert!(
        out.status.success(),
        "challenger campaign failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for label in ["proposed@1M", "silent-ecc@1M", "reuse-cb4x@1M"] {
        assert!(
            stdout.contains(label),
            "campaign table must include {label}: {stdout}"
        );
    }
}

#[test]
fn submit_against_no_daemon_exits_1() {
    // Port 1 on loopback is never a daemon of ours; connect must fail
    // with a runtime (exit 1) diagnostic, not a usage error.
    let out = exp(&["submit", "--connect", "tcp:127.0.0.1:1", "--ping"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot connect"), "stderr: {stderr}");
}

/// Every command line in the CI workflows and scripts, with `\`
/// continuations joined, as `(source file, command)` pairs.
fn ci_command_lines(root: &std::path::Path) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for (dir, ext) in [(".github/workflows", "yml"), ("scripts", "sh")] {
        let entries = std::fs::read_dir(root.join(dir)).expect("CI directory exists");
        for entry in entries {
            let path = entry.expect("readable entry").path();
            if path.extension().is_some_and(|e| e == ext) {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut commands = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable CI file");
        let source = path.strip_prefix(root).unwrap().display().to_string();
        let mut command = String::new();
        for line in text.lines() {
            match line.trim_end().strip_suffix('\\') {
                Some(head) => {
                    command.push_str(head);
                    command.push(' ');
                }
                None => {
                    command.push_str(line);
                    commands.push((source.clone(), std::mem::take(&mut command)));
                }
            }
        }
    }
    commands
}

#[test]
fn every_ci_floor_file_is_committed_with_its_floor_key() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut checked = 0;
    for (source, command) in ci_command_lines(&root) {
        let tokens: Vec<&str> = command.split_whitespace().collect();
        let Some(at) = tokens.iter().position(|&t| t == "--check-floor") else {
            continue;
        };
        let file = tokens
            .get(at + 1)
            .unwrap_or_else(|| panic!("{source}: --check-floor without a file"))
            .trim_matches(|c| c == '"' || c == '\'');
        // `faults-bench` gates the campaign floor; `bench` the lane engine.
        let path: &[&str] = if tokens.contains(&"faults-bench") {
            &["min_trials_per_mcycle"]
        } else {
            assert!(tokens.contains(&"bench"), "{source}: unknown harness");
            &["lanes", "aggregate_speedup"]
        };
        let text = std::fs::read_to_string(root.join(file))
            .unwrap_or_else(|e| panic!("{source} checks a floor in {file}, which is missing: {e}"));
        let doc = aep_obs::json::parse(&text)
            .unwrap_or_else(|e| panic!("{source}: {file} is not valid JSON: {e}"));
        let floor = path
            .iter()
            .try_fold(&doc, |v, key| v.get(key))
            .and_then(aep_obs::json::Value::as_f64);
        assert!(
            floor.is_some(),
            "{source}: {file} has no numeric {path:?} floor"
        );
        checked += 1;
    }
    assert!(
        checked >= 2,
        "expected the engine and campaign floor checks"
    );
}

/// The throughput harnesses write their reports under `--out`, so a run
/// from the repository root with `--out` leaves the committed floor
/// records alone.
#[test]
fn harness_reports_land_under_out() {
    for (args, file) in [
        (&["bench"][..], "BENCH_engine.json"),
        (
            &["faults-bench", "--trials", "100", "--jobs", "1"][..],
            "BENCH_faults.json",
        ),
    ] {
        let work = TempWorkdir::new(&format!("harness-{file}"));
        let out = exp_in(
            &work.0,
            &[args, &["--scale", "smoke", "--out", "reports"]].concat(),
        );
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let report = std::fs::read_to_string(work.0.join("reports").join(file))
            .unwrap_or_else(|e| panic!("{args:?} writes reports/{file}: {e}"));
        assert!(aep_obs::json::parse(&report).is_ok(), "{file} is JSON");
        assert!(
            !work.0.join(file).exists(),
            "{args:?} must not write {file} into the working directory"
        );
    }
}
