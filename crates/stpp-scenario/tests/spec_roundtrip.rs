//! Round-trip property for the scenario schema.
//!
//! Two contracts:
//!
//! 1. `parse(serialize(s)) == s` for *arbitrary* valid specs — the
//!    canonical serializer and the hand-written parser are exact
//!    inverses, including float bit patterns, duration strings, escaped
//!    names, and every optional knob.
//! 2. The checked-in `scenarios/` suite is stored in canonical form
//!    (`serialize(parse(file)) == file`), so `--record` rewrites are
//!    always byte-stable diffs.

use proptest::prelude::*;
use proptest::ProptestConfig;
use stpp_scenario::{
    ChannelSpec, ClientSpec, DeploymentSpec, DurationSpec, Expectations, ImpairmentSpec,
    LayoutSpec, MultipathSpec, PopulationSpec, ScenarioSpec, ScheduleSpec, ServerSpec, StormSpec,
    StreamingSpec, TagPosition,
};

/// Proptest configuration honouring the `PROPTEST_CASES` environment
/// variable (the CI scenarios job pins it; the vendored proptest does
/// not read it on its own).
fn proptest_cases(default_cases: u32) -> ProptestConfig {
    let cases =
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default_cases);
    ProptestConfig::with_cases(cases)
}

fn arb_name() -> impl Strategy<Value = String> {
    // Includes every character class the escaper special-cases.
    prop::collection::vec(
        prop_oneof![
            Just('a'),
            Just('Z'),
            Just('0'),
            Just(' '),
            Just('-'),
            Just('"'),
            Just('\\'),
            Just('\n'),
            Just('\t'),
            Just('\u{1}'),
            Just('é'),
            Just('∮'),
        ],
        0..12,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

fn arb_duration(max_seconds: f64) -> impl Strategy<Value = DurationSpec> {
    (0.0..max_seconds).prop_map(|seconds| DurationSpec { seconds })
}

fn arb_layout() -> impl Strategy<Value = LayoutSpec> {
    prop_oneof![
        (-5.0f64..5.0, -5.0f64..5.0, 0.01f64..2.0, 0u64..50).prop_map(
            |(start_x_m, y_m, spacing_m, count)| LayoutSpec::Row {
                start_x_m,
                y_m,
                spacing_m,
                count
            }
        ),
        prop::collection::vec(
            (-5.0f64..5.0, -5.0f64..5.0).prop_map(|(x_m, y_m)| TagPosition { x_m, y_m }),
            0..6
        )
        .prop_map(LayoutSpec::Explicit),
    ]
}

fn arb_deployment() -> impl Strategy<Value = DeploymentSpec> {
    prop_oneof![
        (0.01f64..2.0, -1.0f64..1.0, 0.0f64..2.0, 0.01f64..1.0, any::<bool>()).prop_map(
            |(standoff_y_m, height_z_m, margin_x_m, speed_mps, manual)| {
                DeploymentSpec::AntennaSweep {
                    standoff_y_m,
                    height_z_m,
                    margin_x_m,
                    speed_mps,
                    manual,
                }
            }
        ),
        (0.01f64..2.0, 0.01f64..3.0, -1.0f64..2.0, -2.0f64..2.0, 0.0f64..2.0).prop_map(
            |(
                belt_speed_mps,
                antenna_standoff_y_m,
                antenna_height_z_m,
                antenna_x_m,
                margin_x_m,
            )| {
                DeploymentSpec::Conveyor {
                    belt_speed_mps,
                    antenna_standoff_y_m,
                    antenna_height_z_m,
                    antenna_x_m,
                    margin_x_m,
                }
            }
        ),
    ]
}

fn arb_channel() -> impl Strategy<Value = ChannelSpec> {
    (
        prop::option::of(0.0f64..2.0),
        prop::option::of(0.0f64..6.0),
        prop::option::of(0.0f64..1.0),
        prop::option::of(prop_oneof![
            Just(MultipathSpec::FreeSpace),
            Just(MultipathSpec::IndoorShelf)
        ]),
    )
        .prop_map(
            |(phase_noise_std_rad, rssi_noise_std_db, base_miss_probability, multipath)| {
                ChannelSpec {
                    phase_noise_std_rad,
                    rssi_noise_std_db,
                    base_miss_probability,
                    multipath,
                }
            },
        )
}

fn arb_every() -> impl Strategy<Value = u64> {
    // 1 is rejected by the parser (it would impair every frame).
    prop_oneof![Just(0u64), 2u64..100]
}

fn arb_impairments() -> impl Strategy<Value = ImpairmentSpec> {
    (
        (any::<u64>(), arb_duration(1.0), 0.0f64..1.0),
        (arb_every(), arb_every(), 0u64..17, arb_duration(2.0)),
        (arb_every(), arb_every(), arb_duration(1.0), 0u64..1001),
    )
        .prop_map(
            |(
                (seed, delay, reorder_rate),
                (truncate_every, churn_every, pause_drills, pause_hold),
                (blackhole_every, stall_every, stall, kill_after_requests),
            )| {
                ImpairmentSpec {
                    seed,
                    delay,
                    reorder_rate,
                    truncate_every,
                    churn_every,
                    blackhole_every,
                    stall_every,
                    stall,
                    kill_after_requests,
                    pause_drills,
                    pause_hold,
                }
            },
        )
}

fn arb_client() -> impl Strategy<Value = ClientSpec> {
    (
        (1u64..1001, arb_duration(10.0), arb_duration(30.0), 0.0f64..1.0),
        ((0.001f64..60.0).prop_map(|seconds| DurationSpec { seconds }), 1u64..1001),
        (arb_duration(60.0), any::<u64>()),
    )
        .prop_map(
            |(
                (attempts, base_backoff, max_backoff, jitter),
                (deadline, circuit_threshold),
                (circuit_cooldown, seed),
            )| ClientSpec {
                attempts,
                base_backoff,
                max_backoff,
                jitter,
                deadline,
                circuit_threshold,
                circuit_cooldown,
                seed,
            },
        )
}

fn arb_server() -> impl Strategy<Value = ServerSpec> {
    (1u64..4097, 1u64..65, prop::option::of(1u64..65537)).prop_map(
        |(queue_depth, pool_workers, max_connections)| ServerSpec {
            queue_depth,
            pool_workers,
            max_connections,
        },
    )
}

fn arb_storm() -> impl Strategy<Value = StormSpec> {
    (1u64..257, 1u64..101, 1u64..(1u64 << 20) + 1, arb_duration(0.1)).prop_map(
        |(connections, requests_per_connection, chunk_bytes, chunk_gap)| StormSpec {
            connections,
            requests_per_connection,
            chunk_bytes,
            chunk_gap,
        },
    )
}

fn arb_streaming() -> impl Strategy<Value = StreamingSpec> {
    (1u64..100_001).prop_map(|poll_every_reports| StreamingSpec { poll_every_reports })
}

fn arb_ids() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<u64>(), 0..8)
}

fn arb_expectations() -> impl Strategy<Value = Expectations> {
    (
        (prop::option::of(arb_ids()), prop::option::of(arb_ids()), prop::option::of(arb_ids())),
        (
            prop::option::of(0.0f64..1.0),
            prop::option::of(0.0f64..1.0),
            prop::option::of(arb_duration(10.0)),
            prop::option::of(0.0f64..1.0),
        ),
        (
            prop::option::of(any::<u64>()),
            prop::option::of(any::<u64>()),
            prop::option::of(any::<u64>()),
            any::<bool>(),
            prop::option::of(any::<u64>()),
        ),
        (
            prop::option::of(any::<u64>()),
            prop::option::of(any::<u64>()),
            prop::option::of(any::<u64>()),
        ),
        (
            prop::option::of(any::<u64>()),
            prop::option::of(any::<u64>()),
            prop::option::of(any::<u64>()),
            prop::option::of(any::<u64>()),
        ),
        (prop::option::of(any::<u64>()), prop::option::of(arb_duration(10.0))),
    )
        .prop_map(
            |(
                (order_x, order_y, undetected),
                (min_accuracy_x, min_accuracy_y, max_request_latency, max_busy_rate),
                (
                    min_busy_responses,
                    max_transport_errors,
                    min_transport_errors,
                    warm_zero_builds,
                    min_geometry_hits,
                ),
                (min_retries, max_retries, min_timeouts),
                (max_timeouts, min_circuit_opens, max_circuit_opens, min_storm_connections),
                (min_provisional_results, max_time_to_first_result),
            )| Expectations {
                order_x,
                order_y,
                undetected,
                min_accuracy_x,
                min_accuracy_y,
                max_request_latency,
                max_busy_rate,
                min_busy_responses,
                max_transport_errors,
                min_transport_errors,
                warm_zero_builds,
                min_geometry_hits,
                min_retries,
                max_retries,
                min_timeouts,
                max_timeouts,
                min_circuit_opens,
                max_circuit_opens,
                min_storm_connections,
                min_provisional_results,
                max_time_to_first_result,
            },
        )
}

fn arb_spec() -> impl Strategy<Value = ScenarioSpec> {
    (
        (
            (arb_name(), any::<u64>()),
            (arb_layout(), 0.0f64..6.3),
            arb_deployment(),
            prop::option::of(arb_channel()),
        ),
        (
            (1u64..10_001, arb_duration(5.0)),
            arb_server(),
            (prop::option::of(arb_storm()), prop::option::of(arb_streaming())),
            prop::option::of(arb_client()),
            prop::option::of(arb_impairments()),
            arb_expectations(),
        ),
    )
        .prop_map(
            |(
                ((name, seed), (layout, phase_offset_jitter_rad), deployment, channel),
                ((requests, gap), server, (storm, streaming), client, impairments, expectations),
            )| ScenarioSpec {
                name,
                seed,
                population: PopulationSpec { layout, phase_offset_jitter_rad },
                deployment,
                channel,
                schedule: ScheduleSpec { requests, gap },
                server,
                storm,
                streaming,
                client,
                impairments,
                expectations,
            },
        )
}

proptest! {
    #![proptest_config(proptest_cases(128))]

    #[test]
    fn arbitrary_specs_round_trip(spec in arb_spec()) {
        let json = spec.to_json();
        let back = ScenarioSpec::from_json(&json)
            .unwrap_or_else(|e| panic!("canonical serialization must parse: {e}\n{json}"));
        prop_assert_eq!(&back, &spec, "round trip drifted through:\n{}", json);
        // Serialization is idempotent: re-serializing the parsed spec
        // reproduces the same bytes.
        prop_assert_eq!(back.to_json(), json);
    }
}

/// Every checked-in scenario (the suite the CI job runs) is stored in
/// canonical form, so `--record` rewrites touch only lines that changed.
#[test]
fn checked_in_scenarios_are_canonical() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut seen = 0;
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("scenarios/ directory exists")
        .map(|e| e.expect("readable directory entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    entries.sort();
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("readable scenario");
        let spec = ScenarioSpec::from_json(&text)
            .unwrap_or_else(|e| panic!("{} must parse: {e}", path.display()));
        assert_eq!(
            spec.to_json(),
            text,
            "{} is not in canonical form; re-run `scenario_run --record`",
            path.display()
        );
        seen += 1;
    }
    assert!(seen >= 6, "expected at least 6 checked-in scenarios, found {seen}");
}
