//! The binary's exit status on a bad command line: non-zero, with no
//! result line, before any input is generated.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_servebench")).args(args).output().expect("spawn servebench")
}

#[test]
fn bad_command_lines_exit_non_zero_without_a_result() {
    let valid = ["--workload", "airport_portal", "--seed", "1", "--seconds", "1", "--trace", "0"];
    let mut unknown = valid.to_vec();
    unknown.push("--verbose");
    let mut positional = valid.to_vec();
    positional.insert(0, "report.json");
    for args in [unknown, positional, valid[..7].to_vec(), valid[2..].to_vec()] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(out.stdout.is_empty(), "args {args:?} printed {:?}", out.stdout);
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    }
}
