//! Exit status of the bench binaries on bad command lines: code 2 and the
//! usage line, before anything is read, run or written; and of
//! `bench_gate` on a thresholds file it does not fully read: code 1,
//! naming the offending key.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(binary: &str, args: &[&str]) -> Output {
    Command::new(binary).args(args).output().expect("spawn the bench binary")
}

fn assert_usage_error(binary: &str, args: &[&str]) {
    let out = run(binary, args);
    assert_eq!(out.status.code(), Some(2), "{binary} {args:?}");
    assert!(out.stdout.is_empty(), "{binary} {args:?} printed {:?}", out.stdout);
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"), "{binary} {args:?}");
}

#[test]
fn bench_gate_rejects_bad_command_lines() {
    let gate = env!("CARGO_BIN_EXE_bench_gate");
    for args in [
        &["bench-smoke.json"][..],
        &["--report", "bench-smoke.json", "extra"],
        &["--reprot", "bench-smoke.json"],
        &["--report"],
        &["--report", "--gate", "bench_gate.toml"],
        &["--report", "a.json", "--report", "b.json"],
        &["--degrade", "abc"],
        &["--degrade", "0"],
        &["--degrade", "-0.5"],
        &["--degrade", "NaN"],
    ] {
        assert_usage_error(gate, args);
    }
}

#[test]
fn bench_gate_reads_the_report_a_valid_command_line_names() {
    // Past the parser, a missing report is an ordinary failure (exit 1)
    // that names the file it was asked to read.
    let out = run(
        env!("CARGO_BIN_EXE_bench_gate"),
        &["--report", "no-such-report.json", "--degrade", "0.3"],
    );
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no-such-report.json"));
}

/// Writes `text` to a temporary thresholds file and gates a missing report
/// against it: the thresholds are read first, so a bad file fails before
/// the report is opened.
fn gate_with_thresholds(name: &str, text: &str) -> Output {
    let path = std::env::temp_dir().join(format!("bench-gate-{name}-{}.toml", std::process::id()));
    std::fs::write(&path, text).expect("write the thresholds file");
    let out = run(
        env!("CARGO_BIN_EXE_bench_gate"),
        &["--report", "no-such-report.json", "--gate", path.to_str().expect("utf-8 temp path")],
    );
    let _ = std::fs::remove_file(&path);
    out
}

#[test]
fn bench_gate_rejects_thresholds_it_does_not_read() {
    let checked_in =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench_gate.toml"))
            .expect("read the checked-in bench_gate.toml");
    let stale = format!("{checked_in}\nmin_speedup_async_vs_blocking_64conn = 1.0\n");
    let stale_fleet = format!("{checked_in}\nmin_speedup_fleet2_vs_single = 1.05\n");
    let repeated = format!("{checked_in}\nmin_speedup_batch_vs_seed = 0.1\n");
    let misspelt =
        checked_in.replace("min_speedup_serve_warm_vs_cold", "min_speedup_serve_warm_vs_clod");
    let missing =
        checked_in.replace("max_overhead_net_vs_warm = ", "# max_overhead_net_vs_warm = ");
    for (name, text, named) in [
        ("stale", &stale, "`min_speedup_async_vs_blocking_64conn` is not a threshold"),
        ("stale-fleet", &stale_fleet, "`min_speedup_fleet2_vs_single` is not a threshold"),
        ("repeated", &repeated, "`min_speedup_batch_vs_seed` is set twice"),
        ("misspelt", &misspelt, "`min_speedup_serve_warm_vs_clod` is not a threshold"),
        ("missing", &missing, "missing `max_overhead_net_vs_warm`"),
    ] {
        let out = gate_with_thresholds(name, text);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.contains(named), "{name}: {stderr}");
    }
    // The checked-in file itself is read in full: the gate gets as far
    // as the missing report.
    let out = gate_with_thresholds("checked-in", &checked_in);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read report"));
}

#[test]
fn bench_json_rejects_bad_command_lines_before_writing() {
    let json = env!("CARGO_BIN_EXE_bench_json");
    let out_path: PathBuf =
        std::env::temp_dir().join(format!("bench-json-cli-{}.json", std::process::id()));
    let out = out_path.to_str().expect("utf-8 temp path");
    for args in [
        &["--smok", "--out", out][..],
        &["--smoke", "--out", out, "report.json"],
        &["--smoke", "--smoke", "--out", out],
        &["--smoke", "--out"],
        &["--smoke", "--out", out, "--scenario"],
        &["--smoke", "--out", out, "--connections", "64"],
    ] {
        assert_usage_error(json, args);
        assert!(!out_path.exists(), "bench_json {args:?} wrote {out}");
    }
}
