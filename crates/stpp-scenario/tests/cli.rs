//! Exit status of `scenario_run`: 2 and the usage line for a bad command
//! line, before anything runs; 3 when a file fails to load or a run
//! cannot complete; 1 only for a violated expectation.

use std::process::{Command, Output};

/// A checked-in scenario, by its path under `scenarios/`.
fn scenario(name: &str) -> String {
    format!("{}/../../scenarios/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scenario_run"))
        .args(args)
        .output()
        .expect("spawn scenario_run")
}

#[test]
fn bad_command_lines_exit_2_with_the_usage_line() {
    let portal = scenario("portal.json");
    let portal = portal.as_str();
    for args in [
        &[][..],
        &["--no-such-flag", portal],
        &["-x", portal],
        &["--mode"],
        &["--mode", portal],
        &["--mode", "--record", portal],
        &["--mode", "all", portal],
        &["--mode", "batch", portal],
        &["--mode", "wire", "--mode", "pipeline", portal],
        &["--threads", "2", "--threads", "3", portal],
        &["--threads", "--record", portal],
        &["--threads", "0", portal],
        &["--threads", "-1", portal],
        &["--threads", "two", portal],
        &["--record", "--record", portal],
        &["--mode", "pipeline"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "scenario_run {args:?}");
        assert!(out.stdout.is_empty(), "scenario_run {args:?} ran something");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: scenario_run"), "scenario_run {args:?}: {stderr}");
    }
}

#[test]
fn help_prints_the_usage_line_and_succeeds() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: scenario_run"));
}

#[test]
fn a_violated_expectation_exits_1() {
    let out = run(&["--mode", "pipeline", &scenario("selfcheck/violated_floor.json")]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("[FAIL] order_x"));
}

#[test]
fn a_file_that_fails_to_load_exits_3_even_beside_a_violation() {
    let missing = scenario("no-such-scenario.json");
    let out = run(&["--mode", "pipeline", &missing]);
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no-such-scenario.json"));

    let violated = scenario("selfcheck/violated_floor.json");
    for args in [[&violated, &missing], [&missing, &violated]] {
        let out = run(&["--mode", "pipeline", args[0], args[1]]);
        assert_eq!(out.status.code(), Some(3), "{args:?}");
    }
}

#[test]
fn a_passing_scenario_exits_0() {
    let out = run(&["--mode", "pipeline", &scenario("portal.json")]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
}
