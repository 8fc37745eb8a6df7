//! Determinism across runners: the same scenario + seed must produce
//! the *identical* [`RunOutcome`] whether it runs through the in-process
//! pipeline, the [`LocalizationService`], or over TCP — and regardless
//! of thread count. This is the scenario-level restatement of the
//! pipeline's bit-identical parallelism guarantee.

use stpp_scenario::{
    run_scenario, DeploymentSpec, DurationSpec, Expectations, LayoutSpec, PopulationSpec, RunMode,
    RunOptions, ScenarioSpec, ScheduleSpec, ServerSpec,
};

fn small_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "determinism probe".to_string(),
        seed: 4242,
        population: PopulationSpec {
            layout: LayoutSpec::Row { start_x_m: 0.3, y_m: 0.0, spacing_m: 0.3, count: 3 },
            phase_offset_jitter_rad: 0.0,
        },
        deployment: DeploymentSpec::Conveyor {
            belt_speed_mps: 0.3,
            antenna_standoff_y_m: 1.0,
            antenna_height_z_m: 1.0,
            antenna_x_m: 0.0,
            margin_x_m: 0.5,
        },
        channel: None,
        schedule: ScheduleSpec { requests: 2, gap: DurationSpec::ZERO },
        server: ServerSpec::default(),
        storm: None,
        streaming: None,
        client: None,
        impairments: None,
        expectations: Expectations::default(),
    }
}

#[test]
fn outcome_is_identical_across_runners_and_threads() {
    let spec = small_spec();
    let mut reference = None;
    for mode in [RunMode::Pipeline, RunMode::Service, RunMode::Wire] {
        for threads in [1usize, 2] {
            let opts = RunOptions { threads: Some(threads), ..RunOptions::mode(mode) };
            let report = run_scenario(&spec, &opts)
                .unwrap_or_else(|e| panic!("{mode} x{threads} failed: {e}"));
            assert!(report.passed(), "{mode} x{threads}:\n{}", report.render());
            match &reference {
                None => reference = Some(report.outcome),
                Some(expected) => assert_eq!(
                    &report.outcome, expected,
                    "{mode} x{threads} diverged from the pipeline outcome"
                ),
            }
        }
    }
}

#[test]
fn repeated_runs_are_reproducible() {
    let spec = small_spec();
    let opts = RunOptions::mode(RunMode::Pipeline);
    let first = run_scenario(&spec, &opts).expect("first run");
    let second = run_scenario(&spec, &opts).expect("second run");
    assert_eq!(first.outcome, second.outcome);
}

#[test]
fn violated_expectations_fail_with_a_readable_report() {
    let mut spec = small_spec();
    // Deliberately wrong: a pinned ordering that cannot match and a
    // latency ceiling nothing can beat.
    spec.expectations.order_x = Some(vec![9, 9, 9]);
    spec.expectations.max_request_latency = Some(DurationSpec { seconds: 0.0 });
    let report = run_scenario(&spec, &RunOptions::mode(RunMode::Pipeline)).expect("run completes");
    assert!(!report.passed());
    let rendered = report.render();
    assert!(rendered.contains("FAIL"), "missing FAIL marker:\n{rendered}");
    assert!(rendered.contains("order_x"), "failing check not named:\n{rendered}");
    assert!(
        report.checks.iter().any(|c| !c.passed && c.name == "order_x"),
        "order_x must be the failed check"
    );
}
