//! Scenario runner CLI.
//!
//! ```text
//! scenario_run [--mode pipeline|service|wire] [--threads N] [--record] <file>...
//! ```
//!
//! Runs every scenario file and prints each run's report. The default
//! mode executes clean scenarios through every runner and
//! impairment-carrying scenarios through the wire runner only (the
//! other runners have no wire to impair).
//!
//! `--record` re-pins a scenario's expected orderings from a pipeline
//! run and rewrites the file in canonical form — the declarative
//! successor of the golden-fixture `--regenerate` flow.
//!
//! Exit status: 0 when every expectation holds; 1 when a run completed
//! but violated an expectation; 3 when a file failed to load or a run
//! could not complete (this wins over 1); 2 for a bad command line (an
//! unknown flag, a flag given twice, a missing or flag-looking value,
//! `--threads 0`, no files), reported with the usage line before
//! anything runs.

use std::path::PathBuf;
use std::process::ExitCode;

use stpp_scenario::{cli, run_scenario, RunMode, RunOptions, ScenarioSpec};

const USAGE: &str =
    "usage: scenario_run [--mode pipeline|service|wire] [--threads N] [--record] <file>...";

/// Exit status of a violated expectation.
const VIOLATED: u8 = 1;
/// Exit status of a file that failed to load or a run that could not
/// complete.
const FAILED: u8 = 3;

struct Args {
    modes: Option<Vec<RunMode>>,
    threads: Option<usize>,
    record: bool,
    files: Vec<PathBuf>,
}

/// Parses the arguments after the program name; `Ok(None)` asks for the
/// usage text. Each flag may be given once.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Option<Args>, String> {
    let (mut mode, mut threads, mut record, mut files) = (None, None, false, Vec::new());
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let slot = match arg.as_str() {
            "--mode" => &mut mode,
            "--threads" => &mut threads,
            "--record" if record => return Err("`--record` given more than once".into()),
            "--record" => {
                record = true;
                continue;
            }
            "--help" | "-h" => return Ok(None),
            flag if flag.starts_with('-') => return Err(cli::unexpected(flag)),
            file => {
                files.push(PathBuf::from(file));
                continue;
            }
        };
        cli::value_of(slot, &arg, &mut args)?;
    }
    let modes = match mode.as_deref() {
        None => None,
        Some("pipeline") => Some(vec![RunMode::Pipeline]),
        Some("service") => Some(vec![RunMode::Service]),
        Some("wire") => Some(vec![RunMode::Wire]),
        Some("all") => return Err("pass --mode only to narrow; `all` is the default".into()),
        Some(other) => return Err(format!("unknown mode `{other}`")),
    };
    let threads = threads
        .map(|text| {
            text.parse::<usize>()
                .ok()
                .filter(|&threads| threads > 0)
                .ok_or_else(|| format!("`--threads` needs a positive count, got `{text}`"))
        })
        .transpose()?;
    if files.is_empty() {
        return Err("no scenario files given".into());
    }
    Ok(Some(Args { modes, threads, record, files }))
}

fn record(spec: &ScenarioSpec, path: &PathBuf, threads: Option<usize>) -> Result<(), String> {
    let report = run_scenario(spec, &RunOptions { mode: RunMode::Pipeline, threads })
        .map_err(|e| e.to_string())?;
    let mut pinned = spec.clone();
    pinned.expectations.order_x = Some(report.outcome.order_x.clone());
    pinned.expectations.order_y = Some(report.outcome.order_y.clone());
    pinned.expectations.undetected = Some(report.outcome.undetected.clone());
    std::fs::write(path, pinned.to_json()).map_err(|e| e.to_string())?;
    println!(
        "recorded {}: order_x={:?} order_y={:?} undetected={:?}",
        path.display(),
        report.outcome.order_x,
        report.outcome.order_y,
        report.outcome.undetected
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(error) => return cli::usage_error(&error, USAGE),
    };

    let (mut failed, mut violated) = (false, false);
    for file in &args.files {
        let spec = match ScenarioSpec::load(file) {
            Ok(spec) => spec,
            Err(e) => {
                eprintln!("{}: {e}", file.display());
                failed = true;
                continue;
            }
        };

        if args.record {
            if let Err(e) = record(&spec, file, args.threads) {
                eprintln!("{}: {e}", file.display());
                failed = true;
            }
            continue;
        }

        let modes = args.modes.clone().unwrap_or_else(|| {
            if spec.impairments.is_some() || spec.fleet.is_some() {
                // Impairments and fleets only exist on the wire.
                vec![RunMode::Wire]
            } else {
                vec![RunMode::Pipeline, RunMode::Service, RunMode::Wire]
            }
        });

        for mode in modes {
            match run_scenario(&spec, &RunOptions { mode, threads: args.threads }) {
                Ok(report) => {
                    print!("{}", report.render());
                    violated |= !report.passed();
                }
                Err(e) => {
                    eprintln!("{} [{mode}]: run failed: {e}", file.display());
                    failed = true;
                }
            }
        }
    }

    if failed {
        ExitCode::from(FAILED)
    } else if violated {
        ExitCode::from(VIOLATED)
    } else {
        ExitCode::SUCCESS
    }
}
