//! Golden end-to-end fixtures: three small recorded scenarios (portal,
//! shelf, conveyor) with their expected orderings checked in as JSON.
//! The pipeline must reproduce the recorded orderings exactly on any
//! thread count, so a refactor that silently shifts results — even one
//! that keeps all the property tests statistically happy — fails
//! `cargo test` with a named scenario.
//!
//! Regenerating (only when an *intentional* behaviour change shifts the
//! expected orderings):
//!
//! ```text
//! cargo test -p stpp-core --test golden -- --ignored regenerate
//! ```

use serde::{Deserialize, Serialize};
use stpp_core::{BatchLocalizer, StppInput};

use rfid_geometry::RowLayout;
use rfid_reader::{AntennaSweepParams, ConveyorParams, ReaderSimulation, ScenarioBuilder};
use stpp_core::StppConfig;

/// One checked-in scenario: the recorded pipeline input plus the
/// orderings the pipeline produced when it was recorded.
#[derive(Debug, Serialize, Deserialize)]
struct GoldenFixture {
    name: String,
    input: StppInput,
    expected_order_x: Vec<u64>,
    expected_order_y: Vec<u64>,
    expected_undetected: Vec<u64>,
}

fn fixture_path(name: &str) -> String {
    format!("{}/tests/fixtures/{name}.json", env!("CARGO_MANIFEST_DIR"))
}

/// The three recorded scenarios, built deterministically from seeded
/// simulations. Used both to regenerate the fixtures and (via the
/// checked-in JSON) to pin results.
fn scenarios() -> Vec<(&'static str, StppInput)> {
    // Portal: a conveyor carrying a short row of cartons through a
    // reader gate at the paper's belt speed.
    let portal = {
        let layout = RowLayout::new(0.4, 0.0, 0.35, 4).build();
        let scenario = ScenarioBuilder::new(1201)
            .with_name("portal gate")
            .conveyor(&layout, ConveyorParams::default())
            .expect("portal scenario");
        StppInput::from_recording(&ReaderSimulation::new(scenario, 1201).run())
            .expect("portal input")
    };
    // Shelf: a handheld antenna sweep along a row of five book tags.
    let shelf = {
        let layout = RowLayout::new(0.0, 0.0, 0.12, 5).build();
        let scenario = ScenarioBuilder::new(1301)
            .with_name("library shelf")
            .antenna_sweep(&layout, AntennaSweepParams::default())
            .expect("shelf scenario");
        StppInput::from_recording(&ReaderSimulation::new(scenario, 1301).run())
            .expect("shelf input")
    };
    // Conveyor: a faster belt with a tighter row and a closer antenna.
    let conveyor = {
        let layout = RowLayout::new(0.3, 0.05, 0.25, 5).build();
        let params = ConveyorParams {
            belt_speed: 0.5,
            antenna_standoff_y: 0.8,
            ..ConveyorParams::default()
        };
        let scenario = ScenarioBuilder::new(1401)
            .with_name("sortation conveyor")
            .conveyor(&layout, params)
            .expect("conveyor scenario");
        StppInput::from_recording(&ReaderSimulation::new(scenario, 1401).run())
            .expect("conveyor input")
    };
    vec![("portal", portal), ("shelf", shelf), ("conveyor", conveyor)]
}

#[test]
fn golden_fixtures_hold_on_every_thread_count() {
    for name in ["portal", "shelf", "conveyor"] {
        let path = fixture_path(name);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing fixture {path}: {e}"));
        let fixture: GoldenFixture =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("corrupt fixture {path}: {e:?}"));
        assert_eq!(fixture.name, name);
        for threads in [1usize, 2] {
            let result = BatchLocalizer::new(StppConfig::default(), threads)
                .localize(&fixture.input)
                .unwrap_or_else(|e| panic!("{name}: localize failed: {e}"));
            let label = format!("{name} threads={threads}");
            assert_eq!(result.order_x, fixture.expected_order_x, "order_x drifted: {label}");
            assert_eq!(result.order_y, fixture.expected_order_y, "order_y drifted: {label}");
            assert_eq!(
                result.undetected, fixture.expected_undetected,
                "undetected set drifted: {label}"
            );
        }
    }
}

/// The fixtures are reproducible from their seeds: the checked-in input
/// must equal a fresh deterministic re-simulation (guards against a
/// fixture file edited by hand or generated from drifted simulator
/// code without being regenerated).
#[test]
fn golden_fixture_inputs_match_their_seeded_simulations() {
    for (name, input) in scenarios() {
        let text = std::fs::read_to_string(fixture_path(name)).expect("fixture exists");
        let fixture: GoldenFixture = serde_json::from_str(&text).expect("fixture parses");
        assert_eq!(fixture.input, input, "{name}: fixture input drifted from its seed");
    }
}

/// Regenerates the checked-in fixtures from the seeded simulations and
/// the pipeline. Run explicitly (see module docs); never runs in CI.
#[test]
#[ignore = "regenerates the checked-in fixtures; run explicitly after an intentional behaviour change"]
fn regenerate() {
    for (name, input) in scenarios() {
        let result = BatchLocalizer::new(StppConfig::default(), 1)
            .localize(&input)
            .expect("fixture scenarios must localize");
        let fixture = GoldenFixture {
            name: name.to_string(),
            input,
            expected_order_x: result.order_x,
            expected_order_y: result.order_y,
            expected_undetected: result.undetected,
        };
        let json = serde_json::to_string(&fixture).expect("fixture serializes");
        let path = fixture_path(name);
        std::fs::create_dir_all(format!("{}/tests/fixtures", env!("CARGO_MANIFEST_DIR")))
            .expect("fixtures dir");
        std::fs::write(&path, json + "\n").expect("write fixture");
        eprintln!("wrote {path}");
    }
}
