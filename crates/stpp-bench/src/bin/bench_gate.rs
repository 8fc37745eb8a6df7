//! `bench_gate` — the CI perf-regression gate.
//!
//! Reads a `bench_json` report and the checked-in thresholds from
//! `bench_gate.toml`, compares the report's **relative ratios** against
//! them, and exits non-zero on any violation. Gating on ratios (seed vs
//! current path, cold vs warm, wire vs in-process) makes the gate
//! tolerant of wall-clock noise on unpinned CI runners: both sides of
//! each ratio come from the same run on the same machine, so machine
//! speed cancels.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p stpp-bench --bin bench_gate -- \
//!     --report bench-smoke.json [--gate bench_gate.toml] [--degrade 0.5]
//! ```
//!
//! Without `--report` it gates the checked-in `BENCH_pipeline.json`, and
//! without `--gate` the checked-in `bench_gate.toml`. An unknown flag, a
//! positional word, a missing value or a bad number exits with code 2. A
//! thresholds file that leaves out a threshold the gate reads, sets one
//! twice, or sets one the gate does not read fails the gate (code 1), so
//! a stale or misspelt floor cannot pass unread.
//!
//! `--degrade F` multiplies every measured speedup by `F` (and divides
//! the overhead ratio by it) before gating — an artificial regression
//! used to verify the gate actually fails when fed bad numbers.

use std::collections::HashMap;
use std::process::ExitCode;

use stpp_bench::cli;
use stpp_bench::report::{BenchReport, SCHEMA};

/// The usage line printed with every command-line error.
const USAGE: &str =
    "usage: bench_gate [--report <report.json>] [--gate <thresholds.toml>] [--degrade <factor>]";

/// A parsed command line.
struct Args {
    report_path: String,
    gate_path: String,
    degrade: f64,
}

/// Parses the arguments after the program name. Each flag is optional
/// and may be given once; anything else is an error.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut report, mut gate, mut degrade) = (None, None, None);
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let slot = match arg.as_str() {
            "--report" => &mut report,
            "--gate" => &mut gate,
            "--degrade" => &mut degrade,
            other => return Err(cli::unexpected(other)),
        };
        cli::value_of(slot, &arg, &mut args)?;
    }
    let degrade = match degrade {
        None => 1.0,
        Some(text) => text
            .parse::<f64>()
            .ok()
            .filter(|f| f.is_finite() && *f > 0.0)
            .ok_or_else(|| format!("bad --degrade `{text}` (expected a positive number)"))?,
    };
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    Ok(Args {
        report_path: report.unwrap_or_else(|| format!("{root}/BENCH_pipeline.json")),
        gate_path: gate.unwrap_or_else(|| format!("{root}/bench_gate.toml")),
        degrade,
    })
}

/// The thresholds the gate reads. The `[thresholds]` section must set
/// each exactly once and nothing else.
const THRESHOLDS: [&str; 4] = [
    "min_speedup_batch_vs_seed",
    "min_speedup_serve_warm_vs_cold",
    "max_overhead_net_vs_warm",
    "min_speedup_first_result_vs_batch",
];

/// Parses the `[thresholds]` section of a minimal TOML file: `key =
/// number` lines, `#` comments, one section header. Returns an error
/// string naming the first malformed line, the first key that is not in
/// [`THRESHOLDS`] or is set twice, or the first threshold left out.
fn parse_thresholds(text: &str) -> Result<HashMap<&'static str, f64>, String> {
    let mut out = HashMap::new();
    let mut in_thresholds = false;
    for (number, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(section) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            in_thresholds = section.trim() == "thresholds";
            continue;
        }
        if !in_thresholds {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("line {}: expected `key = value`, got `{raw}`", number + 1));
        };
        let key = key.trim();
        let Some(&known) = THRESHOLDS.iter().find(|&&k| k == key) else {
            return Err(format!(
                "line {}: `{key}` is not a threshold bench_gate reads",
                number + 1
            ));
        };
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|_| format!("line {}: `{}` is not a number", number + 1, value.trim()))?;
        if out.insert(known, value).is_some() {
            return Err(format!("line {}: `{key}` is set twice", number + 1));
        }
    }
    match THRESHOLDS.iter().find(|&&key| !out.contains_key(key)) {
        Some(missing) => Err(format!("missing `{missing}`")),
        None => Ok(out),
    }
}

fn main() -> ExitCode {
    let Args { report_path, gate_path, degrade } = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => return cli::usage_error(&error, USAGE),
    };

    // The thresholds first: a bad thresholds file fails whatever the
    // report holds.
    let gate_text = match std::fs::read_to_string(&gate_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("bench_gate: cannot read thresholds {gate_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let limits = match parse_thresholds(&gate_text) {
        Ok(map) => map,
        Err(e) => {
            eprintln!("bench_gate: {gate_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let report_text = match std::fs::read_to_string(&report_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("bench_gate: cannot read report {report_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report: BenchReport = match serde_json::from_str(&report_text) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("bench_gate: cannot parse report {report_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if report.schema != SCHEMA {
        eprintln!(
            "bench_gate: report schema `{}` is not `{SCHEMA}` — regenerate the report with this \
             tree's bench_json",
            report.schema
        );
        return ExitCode::FAILURE;
    }
    if report.populations.is_empty() {
        eprintln!("bench_gate: report has no populations");
        return ExitCode::FAILURE;
    }

    if degrade != 1.0 {
        eprintln!("bench_gate: applying artificial degrade factor {degrade} (gate self-test)");
    }

    // Gate on the worst population: the slowest speedup and the largest
    // overhead observed anywhere in the sweep.
    let mut violations: Vec<String> = Vec::new();
    let mut worst_batch = f64::INFINITY;
    let mut worst_warm = f64::INFINITY;
    let mut worst_net = 0.0f64;
    for population in &report.populations {
        worst_batch = worst_batch.min(population.speedup_batch_vs_seed * degrade);
        worst_warm = worst_warm.min(population.speedup_serve_warm_vs_cold * degrade);
        worst_net = worst_net.max(population.overhead_net_vs_warm / degrade);
        // Noise-free quality guards: the batch engine must localize
        // exactly the tags the seed path localizes, and exactly the tags
        // the sequential path localizes (the thread count never changes
        // a result, so any difference is a correctness bug, not noise).
        if population.batch.localized != population.seed_sequential_exact.localized {
            violations.push(format!(
                "{} tags: batch localized {} tags but the seed path localized {} — the batch \
                 path is dropping tags",
                population.tags,
                population.batch.localized,
                population.seed_sequential_exact.localized,
            ));
        }
        if population.sequential.localized != population.batch.localized {
            violations.push(format!(
                "{} tags: sequential localized {} tags but batch localized {} — the thread \
                 count is changing results",
                population.tags, population.sequential.localized, population.batch.localized,
            ));
        }
        eprintln!(
            "bench_gate: {:4} tags | batch {:5.2}x vs seed (seed {:.2} ms, batch {:.2} ms) | \
             warm {:5.2}x vs cold | net {:5.2}x warm",
            population.tags,
            population.speedup_batch_vs_seed,
            population.seed_sequential_exact.localize_ms,
            population.batch.localize_ms,
            population.speedup_serve_warm_vs_cold,
            population.overhead_net_vs_warm,
        );
    }

    let min_batch = limits["min_speedup_batch_vs_seed"];
    if worst_batch < min_batch {
        violations.push(format!(
            "batch speedup vs seed regressed to {worst_batch:.2}x (threshold {min_batch}x)"
        ));
    }
    let min_warm = limits["min_speedup_serve_warm_vs_cold"];
    if worst_warm < min_warm {
        violations.push(format!(
            "warm-service speedup vs cold regressed to {worst_warm:.2}x (threshold {min_warm}x)"
        ));
    }
    let max_net = limits["max_overhead_net_vs_warm"];
    if worst_net > max_net {
        violations
            .push(format!("wire overhead vs warm grew to {worst_net:.2}x (threshold {max_net}x)"));
    }

    // The streaming floor: the first provisional estimate must land
    // before batch-at-quiescence could produce *any* ordering on the
    // conveyor workload — the whole point of incremental detection. A
    // first result that needed the entire stream is equally a
    // regression (streaming degenerated into batch), and that check is
    // noise-free.
    let min_ttfr = limits["min_speedup_first_result_vs_batch"];
    let streaming = &report.streaming;
    if streaming.first_result_reports >= streaming.reports {
        violations.push(format!(
            "streaming needed {} of {} reports for its first provisional estimate — \
             incremental detection degenerated into batch",
            streaming.first_result_reports, streaming.reports,
        ));
    }
    let ttfr = streaming.speedup_first_result_vs_batch * degrade;
    eprintln!(
        "bench_gate: streaming | first result {ttfr:5.2}x earlier than batch at quiescence ({} of \
         {} reports)",
        streaming.first_result_reports, streaming.reports,
    );
    if ttfr < min_ttfr {
        violations.push(format!(
            "streaming first result regressed to {ttfr:.2}x batch-at-quiescence (threshold \
             {min_ttfr}x)"
        ));
    }

    if violations.is_empty() {
        eprintln!(
            "bench_gate: PASS (batch {worst_batch:.2}x >= {min_batch}, warm {worst_warm:.2}x >= \
             {min_warm}, net {worst_net:.2}x <= {max_net}, streaming first result {ttfr:.2}x >= \
             {min_ttfr})"
        );
        ExitCode::SUCCESS
    } else {
        // On GitHub Actions, surface each violation as an inline `::error`
        // annotation (stdout is the annotation channel); the plain stderr
        // line is the fallback everywhere else — and is kept on CI too,
        // so raw logs stay greppable.
        let on_actions = std::env::var_os("GITHUB_ACTIONS").is_some();
        for violation in &violations {
            if on_actions {
                println!("::error title=bench_gate::{violation}");
            }
            eprintln!("bench_gate: FAIL: {violation}");
        }
        ExitCode::FAILURE
    }
}
