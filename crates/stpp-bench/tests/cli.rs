//! Exit status of the bench binaries on bad command lines: code 2 and the
//! usage line, before anything is read, run or written.

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
        &["--smoke", "--out", out, "--connections", "1,x"],
        &["--smoke", "--out", out, "--connections", "0"],
    ] {
        assert_usage_error(json, args);
        assert!(!out_path.exists(), "bench_json {args:?} wrote {out}");
    }
}
