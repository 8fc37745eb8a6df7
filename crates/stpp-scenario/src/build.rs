//! Turning a parsed [`ScenarioSpec`] into a concrete STPP workload.
//!
//! Building is deterministic: the spec's seed drives both the scenario
//! builder (motion-profile and tag-jitter draws) and the reader
//! simulation, exactly mirroring how the golden fixtures were produced —
//! so a scenario file that re-expresses a fixture yields a bit-identical
//! [`StppInput`].

use std::sync::Arc;

use rfid_geometry::{Point3, RowLayout, TagLayout};
use rfid_phys::MultipathEnvironment;
use rfid_reader::{
    AntennaSweepParams, ConveyorParams, ManualMotionModel, ReaderSimulation, ScenarioBuilder,
    TagReadReport,
};
use stpp_core::StppInput;

use crate::error::ScenarioError;
use crate::spec::{ChannelSpec, DeploymentSpec, LayoutSpec, MultipathSpec, ScenarioSpec};

/// A built scenario: the recorded localization input plus the ground
/// truth it was generated from.
#[derive(Debug, Clone)]
pub struct BuiltScenario {
    /// The recorded phase profiles, ready for localization. Shared so
    /// the runner can submit the same batch many times without copying.
    pub input: Arc<StppInput>,
    /// Ground-truth tag order along X.
    pub truth_x: Vec<u64>,
    /// Ground-truth tag order along Y.
    pub truth_y: Vec<u64>,
    /// The recorded reader reports in time order — the stream a
    /// `streaming` block replays into a session. `input` above is the
    /// same recording batched per tag, so a session fed from here and
    /// finished localizes bit-identically to a batch request.
    pub reports: Vec<TagReadReport>,
}

fn layout_of(spec: &LayoutSpec) -> TagLayout {
    match spec {
        LayoutSpec::Row { start_x_m, y_m, spacing_m, count } => {
            RowLayout::new(*start_x_m, *y_m, *spacing_m, *count as usize).build()
        }
        LayoutSpec::Explicit(tags) => {
            let mut layout = TagLayout::new();
            for (id, tag) in tags.iter().enumerate() {
                layout.push(id as u64, Point3::new(tag.x_m, tag.y_m, 0.0));
            }
            layout
        }
    }
}

fn apply_channel_overrides(
    scenario: &mut rfid_reader::Scenario,
    overrides: &ChannelSpec,
    layout: &TagLayout,
) {
    if let Some(x) = overrides.phase_noise_std_rad {
        scenario.channel.noise.phase_std_rad = x;
    }
    if let Some(x) = overrides.rssi_noise_std_db {
        scenario.channel.noise.rssi_std_db = x;
    }
    if let Some(x) = overrides.base_miss_probability {
        scenario.channel.noise.base_miss_probability = x;
    }
    if let Some(multipath) = overrides.multipath {
        scenario.channel.multipath = match multipath {
            MultipathSpec::FreeSpace => MultipathEnvironment::free_space(),
            MultipathSpec::IndoorShelf => {
                let extent = layout.bounds().map(|b| b.max.x - b.min.x).unwrap_or(1.0);
                MultipathEnvironment::indoor_shelf(extent)
            }
        };
    }
}

/// Builds the spec into a recorded [`StppInput`] plus ground truth.
///
/// The channel overrides are applied *after* the builder runs, mutating
/// only the overridden knobs — the antenna pattern, link budget and
/// channel plan stay at the deployment's realistic defaults, which is
/// what keeps the golden-fixture ports bit-identical when no overrides
/// are present.
pub fn build_scenario(spec: &ScenarioSpec) -> Result<BuiltScenario, ScenarioError> {
    let layout = layout_of(&spec.population.layout);
    if layout.is_empty() {
        return Err(ScenarioError::EmptyPopulation);
    }

    let builder = ScenarioBuilder::new(spec.seed)
        .with_name(spec.name.clone())
        .with_phase_offset_jitter(spec.population.phase_offset_jitter_rad);

    let scenario = match spec.deployment {
        DeploymentSpec::AntennaSweep {
            standoff_y_m,
            height_z_m,
            margin_x_m,
            speed_mps,
            manual,
        } => builder.antenna_sweep(
            &layout,
            AntennaSweepParams {
                standoff_y: standoff_y_m,
                height_z: height_z_m,
                margin_x: margin_x_m,
                motion: ManualMotionModel::cart(speed_mps),
                manual,
            },
        ),
        DeploymentSpec::Conveyor {
            belt_speed_mps,
            antenna_standoff_y_m,
            antenna_height_z_m,
            antenna_x_m,
            margin_x_m,
        } => builder.conveyor(
            &layout,
            ConveyorParams {
                belt_speed: belt_speed_mps,
                antenna_standoff_y: antenna_standoff_y_m,
                antenna_height_z: antenna_height_z_m,
                antenna_x: antenna_x_m,
                margin_x: margin_x_m,
            },
        ),
    };
    let mut scenario = scenario.ok_or(ScenarioError::EmptyPopulation)?;

    if let Some(overrides) = &spec.channel {
        apply_channel_overrides(&mut scenario, overrides, &layout);
    }

    let truth_x = scenario.truth_order_x();
    let truth_y = scenario.truth_order_y();

    let recording = ReaderSimulation::new(scenario, spec.seed).run();
    let input = StppInput::from_recording(&recording)
        .map_err(|e| ScenarioError::Simulation { reason: e.to_string() })?;
    let reports = recording.stream.reports().to_vec();

    Ok(BuiltScenario { input: Arc::new(input), truth_x, truth_y, reports })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PopulationSpec, ScheduleSpec, ServerSpec};

    fn spec(layout: LayoutSpec) -> ScenarioSpec {
        ScenarioSpec {
            name: "build test".to_string(),
            seed: 42,
            population: PopulationSpec { layout, phase_offset_jitter_rad: 0.0 },
            deployment: DeploymentSpec::Conveyor {
                belt_speed_mps: 0.3,
                antenna_standoff_y_m: 1.0,
                antenna_height_z_m: 1.0,
                antenna_x_m: 0.0,
                margin_x_m: 0.5,
            },
            channel: None,
            schedule: ScheduleSpec::default(),
            server: ServerSpec::default(),
            storm: None,
            streaming: None,
            client: None,
            impairments: None,
            expectations: Default::default(),
        }
    }

    #[test]
    fn row_layout_builds_deterministically() {
        let spec = spec(LayoutSpec::Row { start_x_m: 0.0, y_m: 0.0, spacing_m: 0.3, count: 4 });
        let a = build_scenario(&spec).expect("builds");
        let b = build_scenario(&spec).expect("builds");
        assert_eq!(a.input, b.input);
        assert_eq!(a.truth_x, vec![0, 1, 2, 3]);
        assert_eq!(a.input.observations.len(), 4);
    }

    #[test]
    fn zero_count_row_is_empty_population() {
        let spec = spec(LayoutSpec::Row { start_x_m: 0.0, y_m: 0.0, spacing_m: 0.3, count: 0 });
        assert_eq!(build_scenario(&spec).unwrap_err(), ScenarioError::EmptyPopulation);
    }

    #[test]
    fn explicit_empty_tags_is_empty_population() {
        let spec = spec(LayoutSpec::Explicit(Vec::new()));
        assert_eq!(build_scenario(&spec).unwrap_err(), ScenarioError::EmptyPopulation);
    }

    #[test]
    fn channel_override_changes_the_recording() {
        let base = spec(LayoutSpec::Row { start_x_m: 0.0, y_m: 0.0, spacing_m: 0.3, count: 4 });
        let mut noisy = base.clone();
        noisy.channel =
            Some(ChannelSpec { phase_noise_std_rad: Some(0.5), ..ChannelSpec::default() });
        let a = build_scenario(&base).expect("builds");
        let b = build_scenario(&noisy).expect("builds");
        assert_ne!(a.input, b.input);
    }
}
