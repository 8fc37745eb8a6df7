//! Scenario descriptions: tag layout + motion case + channel.
//!
//! A [`Scenario`] is a complete, self-contained description of one
//! experiment run: where every tag is (and how it moves), how the antenna
//! moves, what the propagation environment looks like, and how long the
//! sweep lasts. [`ScenarioBuilder`] provides the two setups the paper
//! evaluates:
//!
//! * **Antenna-moving** (library / white board): stationary tags in a
//!   plane, the antenna sweeps along the X axis on a line offset from the
//!   tags, pushed by hand (jittery speed) or at constant speed.
//! * **Tag-moving** (airport conveyor): a stationary antenna, tags riding a
//!   belt at constant speed, each with its own longitudinal and lateral
//!   offset.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rfid_gen2::{Epc, InventoryConfig};
use rfid_geometry::{
    LinearTrajectory, Point3, SpeedProfileTrajectory, TagLayout, Trajectory, Vec3,
};
use rfid_phys::{ChannelConfig, ReaderAntenna};
use serde::{Deserialize, Serialize};

use crate::motion::ManualMotionModel;

/// How the reader antenna moves during the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AntennaMotion {
    /// The antenna never moves (tag-moving case).
    Stationary(Point3),
    /// Constant-velocity straight-line motion.
    Linear(LinearTrajectory),
    /// Straight-line motion with a jittery, human speed profile.
    Manual(SpeedProfileTrajectory),
}

impl AntennaMotion {
    /// Antenna position at time `t`.
    pub fn position_at(&self, t: f64) -> Point3 {
        match self {
            AntennaMotion::Stationary(p) => *p,
            AntennaMotion::Linear(traj) => traj.position_at(t),
            AntennaMotion::Manual(traj) => traj.position_at(t),
        }
    }

    /// The antenna's nominal speed (m/s): exact for linear motion, the mean
    /// of the speed profile over `duration_s` for manual motion, zero when
    /// stationary.
    pub fn nominal_speed_over(&self, duration_s: f64) -> f64 {
        match self {
            AntennaMotion::Stationary(_) => 0.0,
            AntennaMotion::Linear(traj) => traj.velocity.norm(),
            AntennaMotion::Manual(traj) => traj.profile.mean_speed(duration_s.max(1e-6)),
        }
    }

    /// The antenna's nominal speed using a long (100 s) averaging horizon;
    /// prefer [`AntennaMotion::nominal_speed_over`] with the sweep duration
    /// when it is known.
    pub fn nominal_speed(&self) -> f64 {
        self.nominal_speed_over(100.0)
    }
}

/// How one tag moves during the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TagTrack {
    /// The tag never moves (antenna-moving case).
    Fixed(Point3),
    /// The tag rides a conveyor belt: position at time `t` is
    /// `start + velocity · t`.
    Conveyor {
        /// Position at `t = 0`.
        start: Point3,
        /// Belt velocity, m/s.
        velocity: Vec3,
    },
}

impl TagTrack {
    /// Tag position at time `t`.
    pub fn position_at(&self, t: f64) -> Point3 {
        match *self {
            TagTrack::Fixed(p) => p,
            TagTrack::Conveyor { start, velocity } => start + velocity * t,
        }
    }
}

/// One simulated tag: identity, motion and hardware phase offset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimTag {
    /// Ground-truth identifier (index into the layout).
    pub id: u64,
    /// The EPC the tag backscatters.
    pub epc: Epc,
    /// How the tag moves.
    pub track: TagTrack,
    /// The tag's reflection phase offset θ_TAG (radians). Zero by default:
    /// the paper's experiments use a homogeneous tag population, and the
    /// Y-axis ordering compares absolute bottom-phase values across tags,
    /// which assumes matched offsets. Set per-tag values to study device
    /// diversity.
    pub phase_offset_rad: f64,
}

/// Which experimental case a scenario models (purely descriptive).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MotionCase {
    /// Stationary tags, moving antenna (library / white board).
    AntennaMoving,
    /// Moving tags, stationary antenna (conveyor belt).
    TagMoving,
}

/// A complete experiment description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Human-readable name (used in experiment output).
    pub name: String,
    /// The tags.
    pub tags: Vec<SimTag>,
    /// Antenna motion.
    pub antenna_motion: AntennaMotion,
    /// Channel configuration (antenna pattern, link budget, multipath,
    /// noise, channel plan).
    pub channel: ChannelConfig,
    /// Gen2 inventory configuration.
    pub inventory: InventoryConfig,
    /// The channel index the reader stays on (the paper uses channel 6,
    /// index 5).
    pub channel_index: usize,
    /// Sweep duration, seconds.
    pub duration_s: f64,
    /// Which experimental case this is.
    pub case: MotionCase,
}

impl Scenario {
    /// The tag with the given EPC, if any.
    pub fn tag_by_epc(&self, epc: Epc) -> Option<&SimTag> {
        self.tags.iter().find(|t| t.epc == epc)
    }

    /// The tag with the given ground-truth id, if any.
    pub fn tag_by_id(&self, id: u64) -> Option<&SimTag> {
        self.tags.iter().find(|t| t.id == id)
    }

    /// Ground-truth layout at time `t` (relative positions are preserved
    /// over time in both cases, so orderings are time invariant).
    pub fn layout_at(&self, t: f64) -> TagLayout {
        let mut layout = TagLayout::new();
        for tag in &self.tags {
            layout.push(tag.id, tag.track.position_at(t));
        }
        layout
    }

    /// Ground-truth order of tag ids along the X axis.
    pub fn truth_order_x(&self) -> Vec<u64> {
        self.layout_at(0.0).order_along_x()
    }

    /// Ground-truth order of tag ids along the Y axis.
    pub fn truth_order_y(&self) -> Vec<u64> {
        self.layout_at(0.0).order_along_y()
    }

    /// Number of tags.
    pub fn tag_count(&self) -> usize {
        self.tags.len()
    }
}

/// Parameters for the antenna-moving sweep builder.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AntennaSweepParams {
    /// Perpendicular distance from the antenna trajectory to the tag plane
    /// along Y, metres (the paper uses ≈0.3 m for the bookshelf and 0.5 m
    /// in the Figure 1 walkthrough). The antenna travels at
    /// `y = -standoff_y` relative to the nearest tag row at `y = 0`.
    ///
    /// The default is 0.35 m: at 920 MHz the phase period boundaries fall
    /// at multiples of λ/2 ≈ 0.163 m, and a standoff of 0.35 m leaves
    /// ~0.14 m of Y span before the V-zone bottom phase wraps — the regime
    /// in which STPP's Y ordering is well defined (the paper's layouts stay
    /// within a similar span).
    pub standoff_y: f64,
    /// Height of the antenna above (or below) the tag plane along Z,
    /// metres. The paper places the antenna below all tags so every tag has
    /// a distinct distance to the trajectory.
    pub height_z: f64,
    /// Extra travel before the first tag and after the last tag, metres.
    pub margin_x: f64,
    /// The motion model (speed + jitter).
    pub motion: ManualMotionModel,
    /// Whether to use the jittery manual profile (`true`) or a perfectly
    /// linear sweep (`false`).
    pub manual: bool,
}

impl Default for AntennaSweepParams {
    fn default() -> Self {
        AntennaSweepParams {
            standoff_y: 0.35,
            height_z: 0.0,
            margin_x: 0.5,
            motion: ManualMotionModel::cart(0.1),
            manual: true,
        }
    }
}

/// Parameters for the conveyor (tag-moving) builder.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConveyorParams {
    /// Belt speed along +X, m/s (0.3 m/s in the paper).
    pub belt_speed: f64,
    /// Antenna position: lateral distance from the belt centre line,
    /// metres (1 m in the paper).
    pub antenna_standoff_y: f64,
    /// Antenna height above the belt, metres (1 m in the paper).
    pub antenna_height_z: f64,
    /// Where along X the antenna sits.
    pub antenna_x: f64,
    /// Extra belt travel after the last tag passes the antenna, metres.
    pub margin_x: f64,
}

impl Default for ConveyorParams {
    fn default() -> Self {
        ConveyorParams {
            belt_speed: 0.3,
            antenna_standoff_y: 1.0,
            antenna_height_z: 1.0,
            antenna_x: 0.0,
            margin_x: 0.5,
        }
    }
}

/// Builds [`Scenario`]s for the paper's experimental setups.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    seed: u64,
    channel: Option<ChannelConfig>,
    inventory: InventoryConfig,
    name: String,
    phase_offset_jitter: f64,
}

impl ScenarioBuilder {
    /// Creates a builder with the given deterministic seed.
    pub fn new(seed: u64) -> Self {
        ScenarioBuilder {
            seed,
            channel: None,
            inventory: InventoryConfig::typical(),
            name: "scenario".to_string(),
            phase_offset_jitter: 0.0,
        }
    }

    /// Names the scenario.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Overrides the channel configuration (default: a realistic indoor
    /// channel sized to the layout).
    pub fn with_channel(mut self, channel: ChannelConfig) -> Self {
        self.channel = Some(channel);
        self
    }

    /// Overrides the Gen2 inventory configuration.
    pub fn with_inventory(mut self, inventory: InventoryConfig) -> Self {
        self.inventory = inventory;
        self
    }

    /// Gives each tag a random θ_TAG offset uniform in `[0, jitter)`
    /// radians — models a mixed-model tag population.
    pub fn with_phase_offset_jitter(mut self, jitter: f64) -> Self {
        self.phase_offset_jitter = jitter.max(0.0);
        self
    }

    /// Builds the antenna-moving scenario: the tags of `layout` stay fixed
    /// and the antenna sweeps along X.
    ///
    /// Returns `None` if the layout is empty.
    pub fn antenna_sweep(
        &self,
        layout: &TagLayout,
        params: AntennaSweepParams,
    ) -> Option<Scenario> {
        if layout.is_empty() {
            return None;
        }
        let bounds = layout.bounds()?;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);

        let start_x = bounds.min.x - params.margin_x;
        let end_x = bounds.max.x + params.margin_x;
        let travel = (end_x - start_x).max(1e-3);
        // The antenna travels on a line offset from the *near edge* of the
        // tag region: tags with larger Y are farther from the trajectory.
        let y_line = bounds.min.y - params.standoff_y;
        let z_line = bounds.min.z - params.height_z;
        let start = Point3::new(start_x, y_line, z_line);

        let duration = params.motion.nominal_time_for(travel) * 1.25 + 2.0;
        let antenna_motion = if params.manual {
            let profile = params.motion.generate(duration, &mut rng);
            AntennaMotion::Manual(
                SpeedProfileTrajectory::new(start, Vec3::X, profile)
                    .expect("X axis is a valid direction"),
            )
        } else {
            AntennaMotion::Linear(LinearTrajectory::new(
                start,
                Vec3::X * params.motion.nominal_speed,
            ))
        };

        let tags = self.materialise_tags(layout, &mut rng, TagTrack::Fixed);
        // A narrow-beam panel facing the tag plane: the reading zone along X
        // then spans roughly ±0.5 m, so measured profiles contain about four
        // phase periods, as in the paper's deployment.
        let channel = self.channel.clone().unwrap_or_else(|| {
            ChannelConfig::realistic(
                ReaderAntenna::narrow_beam(Vec3::new(0.0, 1.0, 0.0)),
                bounds.max.x - bounds.min.x,
            )
        });
        let channel_index = channel.plan.paper_default_channel();

        Some(Scenario {
            name: self.name.clone(),
            tags,
            antenna_motion,
            channel,
            inventory: self.inventory,
            channel_index,
            duration_s: duration,
            case: MotionCase::AntennaMoving,
        })
    }

    /// Builds the tag-moving scenario: the antenna stays fixed and the tags
    /// of `layout` ride a conveyor belt along +X, all starting upstream of
    /// the antenna. The layout's X coordinate becomes the tag's
    /// longitudinal position on the belt (larger X = farther downstream =
    /// nearer the antenna at t = 0, so it passes the antenna *earlier*)
    /// and its Y coordinate the lateral offset across the belt.
    ///
    /// Returns `None` if the layout is empty.
    pub fn conveyor(&self, layout: &TagLayout, params: ConveyorParams) -> Option<Scenario> {
        if layout.is_empty() {
            return None;
        }
        let bounds = layout.bounds()?;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);

        let belt_velocity = Vec3::X * params.belt_speed;
        // Tags start upstream of the antenna: shift them so that the first
        // tag is `margin_x` before the antenna along X at t = 0.
        let shift = params.antenna_x - bounds.max.x - params.margin_x;
        let tags = self.materialise_tags(layout, &mut rng, |pos| TagTrack::Conveyor {
            start: Point3::new(pos.x + shift, pos.y, pos.z),
            velocity: belt_velocity,
        });

        let antenna_pos = Point3::new(
            params.antenna_x,
            bounds.min.y - params.antenna_standoff_y,
            bounds.min.z + params.antenna_height_z,
        );

        // Sweep long enough for the farthest-back tag to travel past the
        // antenna plus a margin.
        let total_travel = (bounds.max.x - bounds.min.x) + 2.0 * params.margin_x;
        let duration = if params.belt_speed > 0.0 {
            total_travel / params.belt_speed * 1.25 + 2.0
        } else {
            10.0
        };

        // Aim the antenna at the point of the tag plane it is closest to, so
        // the beam is centred on the belt where the tags pass.
        let aim = Point3::new(params.antenna_x, bounds.min.y, bounds.min.z);
        let boresight = aim - antenna_pos;
        let channel = self.channel.clone().unwrap_or_else(|| {
            ChannelConfig::realistic(
                ReaderAntenna::narrow_beam(boresight),
                bounds.max.x - bounds.min.x + 1.0,
            )
        });
        let channel_index = channel.plan.paper_default_channel();

        Some(Scenario {
            name: self.name.clone(),
            tags,
            antenna_motion: AntennaMotion::Stationary(antenna_pos),
            channel,
            inventory: self.inventory,
            channel_index,
            duration_s: duration,
            case: MotionCase::TagMoving,
        })
    }

    fn materialise_tags<F>(
        &self,
        layout: &TagLayout,
        rng: &mut ChaCha8Rng,
        make_track: F,
    ) -> Vec<SimTag>
    where
        F: Fn(Point3) -> TagTrack,
    {
        layout
            .iter()
            .map(|(id, pos)| SimTag {
                id,
                epc: Epc::from_serial(id),
                track: make_track(pos),
                phase_offset_rad: if self.phase_offset_jitter > 0.0 {
                    rng.gen_range(0.0..self.phase_offset_jitter)
                } else {
                    0.0
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_geometry::RowLayout;

    fn row(count: usize, spacing: f64) -> TagLayout {
        RowLayout::new(0.0, 0.0, spacing, count).build()
    }

    #[test]
    fn antenna_sweep_builder_basic_properties() {
        let layout = row(5, 0.1);
        let scenario = ScenarioBuilder::new(1)
            .with_name("test sweep")
            .antenna_sweep(&layout, AntennaSweepParams::default())
            .unwrap();
        assert_eq!(scenario.case, MotionCase::AntennaMoving);
        assert_eq!(scenario.tag_count(), 5);
        assert_eq!(scenario.name, "test sweep");
        assert!(scenario.duration_s > 0.0);
        // The antenna starts before the first tag, offset in Y.
        let start = scenario.antenna_motion.position_at(0.0);
        assert!(start.x < 0.0);
        assert!(start.y < 0.0);
        // Tags are stationary.
        let tag = &scenario.tags[0];
        assert_eq!(tag.track.position_at(0.0), tag.track.position_at(100.0));
        // Ground truth order is the row order.
        assert_eq!(scenario.truth_order_x(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn antenna_sweep_moves_monotonically_forward() {
        let layout = row(3, 0.1);
        let scenario =
            ScenarioBuilder::new(2).antenna_sweep(&layout, AntennaSweepParams::default()).unwrap();
        let mut last_x = f64::NEG_INFINITY;
        for i in 0..100 {
            let t = scenario.duration_s * i as f64 / 100.0;
            let x = scenario.antenna_motion.position_at(t).x;
            assert!(x >= last_x - 1e-12);
            last_x = x;
        }
        // By the end of the sweep the antenna has passed the last tag.
        assert!(last_x > 0.2);
    }

    #[test]
    fn linear_sweep_when_manual_disabled() {
        let layout = row(3, 0.1);
        let params = AntennaSweepParams { manual: false, ..AntennaSweepParams::default() };
        let scenario = ScenarioBuilder::new(3).antenna_sweep(&layout, params).unwrap();
        match &scenario.antenna_motion {
            AntennaMotion::Linear(traj) => {
                assert!((traj.velocity.norm() - 0.1).abs() < 1e-12);
            }
            other => panic!("expected linear motion, got {other:?}"),
        }
        assert!((scenario.antenna_motion.nominal_speed() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn conveyor_builder_basic_properties() {
        let layout = row(4, 0.2);
        let scenario =
            ScenarioBuilder::new(4).conveyor(&layout, ConveyorParams::default()).unwrap();
        assert_eq!(scenario.case, MotionCase::TagMoving);
        // Antenna does not move.
        let p0 = scenario.antenna_motion.position_at(0.0);
        assert_eq!(p0, scenario.antenna_motion.position_at(10.0));
        assert_eq!(scenario.antenna_motion.nominal_speed(), 0.0);
        // Tags move along +X at the belt speed.
        let tag = &scenario.tags[0];
        let d = tag.track.position_at(1.0) - tag.track.position_at(0.0);
        assert!((d.x - 0.3).abs() < 1e-12);
        assert!(d.y.abs() < 1e-12);
        // All tags start upstream of the antenna.
        for t in &scenario.tags {
            assert!(t.track.position_at(0.0).x < p0.x);
        }
    }

    #[test]
    fn conveyor_preserves_relative_order() {
        let layout = row(4, 0.2);
        let scenario =
            ScenarioBuilder::new(5).conveyor(&layout, ConveyorParams::default()).unwrap();
        assert_eq!(scenario.truth_order_x(), vec![0, 1, 2, 3]);
        // Relative order unchanged later in time.
        let later = scenario.layout_at(5.0);
        assert_eq!(later.order_along_x(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_layout_is_rejected() {
        let builder = ScenarioBuilder::new(6);
        assert!(builder.antenna_sweep(&TagLayout::new(), AntennaSweepParams::default()).is_none());
        assert!(builder.conveyor(&TagLayout::new(), ConveyorParams::default()).is_none());
    }

    #[test]
    fn phase_offset_jitter_produces_distinct_offsets() {
        let layout = row(10, 0.05);
        let scenario = ScenarioBuilder::new(7)
            .with_phase_offset_jitter(1.0)
            .antenna_sweep(&layout, AntennaSweepParams::default())
            .unwrap();
        let offsets: Vec<f64> = scenario.tags.iter().map(|t| t.phase_offset_rad).collect();
        assert!(offsets.iter().any(|&o| o > 0.0));
        let first = offsets[0];
        assert!(offsets.iter().any(|&o| (o - first).abs() > 1e-6));
        // Without jitter every offset is zero.
        let plain =
            ScenarioBuilder::new(7).antenna_sweep(&layout, AntennaSweepParams::default()).unwrap();
        assert!(plain.tags.iter().all(|t| t.phase_offset_rad == 0.0));
    }

    #[test]
    fn lookup_by_epc_and_id() {
        let layout = row(3, 0.1);
        let scenario =
            ScenarioBuilder::new(8).antenna_sweep(&layout, AntennaSweepParams::default()).unwrap();
        let tag = scenario.tag_by_id(2).unwrap();
        assert_eq!(scenario.tag_by_epc(tag.epc).unwrap().id, 2);
        assert!(scenario.tag_by_id(99).is_none());
        assert!(scenario.tag_by_epc(Epc::from_serial(99)).is_none());
    }

    #[test]
    fn deterministic_given_seed() {
        let layout = row(5, 0.1);
        let a =
            ScenarioBuilder::new(9).antenna_sweep(&layout, AntennaSweepParams::default()).unwrap();
        let b =
            ScenarioBuilder::new(9).antenna_sweep(&layout, AntennaSweepParams::default()).unwrap();
        assert_eq!(a, b);
    }
}
