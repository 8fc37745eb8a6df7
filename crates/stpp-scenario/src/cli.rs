//! Strict command lines for the workspace's binaries (`scenario_run`,
//! and `bench_gate` and `bench_json` in `stpp-bench`).
//!
//! A misspelt or misplaced argument must fail, not fall back to a
//! default: `bench_gate bench-smoke.json` would gate the checked-in
//! report instead, `bench_json --smok` would run the full sweep and
//! overwrite it, and a self-check scenario run with a mistyped flag must
//! not pass for a violated expectation. Every error exits with code 2
//! and the usage line.

use std::process::ExitCode;

/// Reads the value after `flag` into `slot`. The flag may be given once,
/// and its value must not itself look like a flag.
pub fn value_of(
    slot: &mut Option<String>,
    flag: &str,
    args: &mut impl Iterator<Item = String>,
) -> Result<(), String> {
    if slot.is_some() {
        return Err(format!("`{flag}` given more than once"));
    }
    match args.next() {
        Some(value) if !value.starts_with("--") => {
            *slot = Some(value);
            Ok(())
        }
        _ => Err(format!("`{flag}` needs a value")),
    }
}

/// The error for an argument no flag claims.
pub fn unexpected(arg: &str) -> String {
    if arg.starts_with("--") {
        format!("unknown flag `{arg}`")
    } else {
        format!("unexpected argument `{arg}`")
    }
}

/// Prints a command-line error and the usage line; exit code 2.
pub fn usage_error(error: &str, usage: &str) -> ExitCode {
    eprintln!("{error}\n{usage}");
    ExitCode::from(2)
}
