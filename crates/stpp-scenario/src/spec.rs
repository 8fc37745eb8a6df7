//! The declarative scenario schema.
//!
//! A scenario file is a JSON object describing one complete workload:
//! the tag population and its geometry, the deployment (antenna-moving
//! sweep or tag-moving conveyor), optional channel-noise overrides, a
//! request schedule, optional wire impairments, and the end-of-run
//! [`Expectations`] the runner enforces.
//!
//! People write these files, so the types derive the document readers:
//! their `#[serde(...)]` attributes, which mean what they mean in real
//! serde, let fields come in any order, give an absent field its default
//! (`None` for an `Option`), and reject an unknown or repeated key. A
//! duration is a string with a unit, read and written by hand.
//! [`ScenarioSpec::from_json`] then makes the range checks the types do
//! not carry, all in one `validate`, and answers every failure with a
//! typed [`ScenarioError`] carrying the JSON path of the offending field;
//! hostile documents — malformed or too deeply nested JSON, non-finite
//! knobs, bad duration strings — never panic.
//! [`ScenarioSpec::to_json`] writes the canonical pretty-printed form,
//! such that `parse(serialize(s)) == s` for every valid spec.

use serde::{Deserialize, Deserializer, Serialize, Serializer};

use crate::error::ScenarioError;

/// A duration knob, stored in seconds. On the wire it is a string with
/// an explicit unit (`"250ms"`, `"1.5s"`) so a bare number cannot be
/// misread as the wrong unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurationSpec {
    /// The duration in seconds (finite, non-negative).
    pub seconds: f64,
}

impl DurationSpec {
    /// A zero-length duration.
    pub const ZERO: DurationSpec = DurationSpec { seconds: 0.0 };

    /// Parses `"123ms"` / `"1.5s"` style strings; the error is the reason.
    fn parse(text: &str) -> Result<DurationSpec, String> {
        let text = text.trim();
        let (number, scale) = if let Some(stripped) = text.strip_suffix("ms") {
            (stripped, 1e-3)
        } else if let Some(stripped) = text.strip_suffix('s') {
            (stripped, 1.0)
        } else {
            return Err("expected an `s` or `ms` suffix".to_string());
        };
        let value: f64 =
            number.trim().parse().map_err(|_| format!("`{number}` is not a number"))?;
        if !value.is_finite() {
            return Err("must be finite".to_string());
        }
        if value < 0.0 {
            return Err("must be non-negative".to_string());
        }
        Ok(DurationSpec { seconds: value * scale })
    }

    /// This duration as a [`std::time::Duration`].
    pub fn as_std(&self) -> std::time::Duration {
        std::time::Duration::from_secs_f64(self.seconds)
    }
}

/// The canonical form, always in seconds: `"0.25s"`.
impl Serialize for DurationSpec {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        out.str(&format!("{:?}s", self.seconds));
    }
}

/// A string the parser rejects is a custom error, which
/// [`ScenarioError`] reports as [`ScenarioError::BadDuration`].
impl Deserialize for DurationSpec {
    fn deserialize<D: Deserializer>(source: &mut D) -> Result<Self, D::Error> {
        DurationSpec::parse(source.str()?).map_err(|reason| serde::Error::custom(reason).into())
    }
}

/// Where the tags are.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case", deny_unknown_fields)]
pub enum LayoutSpec {
    /// An evenly spaced row along X (the paper's canonical layout).
    Row {
        /// X of the first tag, metres.
        start_x_m: f64,
        /// Y of the whole row, metres.
        y_m: f64,
        /// Spacing between adjacent tags, metres (> 0).
        spacing_m: f64,
        /// Number of tags.
        count: u64,
    },
    /// Explicit per-tag positions in the tag plane; ids are assigned in
    /// listing order.
    #[serde(rename = "tags")]
    Explicit(Vec<TagPosition>),
}

/// One explicitly placed tag.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TagPosition {
    /// X coordinate, metres.
    pub x_m: f64,
    /// Y coordinate, metres.
    pub y_m: f64,
}

/// The tag population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct PopulationSpec {
    /// Tag geometry.
    pub layout: LayoutSpec,
    /// Per-tag reflection-phase jitter θ_TAG drawn uniformly from
    /// `[0, jitter)` radians — models a mixed-model tag population.
    #[serde(default)]
    pub phase_offset_jitter_rad: f64,
}

/// How reader and tags move relative to each other.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case", deny_unknown_fields)]
pub enum DeploymentSpec {
    /// Stationary tags, hand-pushed antenna sweeping along X (library /
    /// shelf case).
    AntennaSweep {
        /// Perpendicular antenna-to-tag-plane distance, metres.
        #[serde(default = "standoff_y_m")]
        standoff_y_m: f64,
        /// Antenna height below the tag plane, metres.
        #[serde(default)]
        height_z_m: f64,
        /// Extra travel before the first and after the last tag, metres.
        #[serde(default = "margin_x_m")]
        margin_x_m: f64,
        /// Nominal sweep speed, m/s (> 0).
        #[serde(default = "speed_mps")]
        speed_mps: f64,
        /// `true` for the jittery hand-pushed profile, `false` for a
        /// perfectly linear sweep.
        #[serde(default = "manual")]
        manual: bool,
    },
    /// Stationary antenna, tags riding a conveyor belt (portal /
    /// sortation case).
    Conveyor {
        /// Belt speed along +X, m/s (> 0).
        #[serde(default = "belt_speed_mps")]
        belt_speed_mps: f64,
        /// Antenna lateral distance from the belt centre line, metres.
        #[serde(default = "one_metre")]
        antenna_standoff_y_m: f64,
        /// Antenna height above the belt, metres.
        #[serde(default = "one_metre")]
        antenna_height_z_m: f64,
        /// Antenna position along X, metres.
        #[serde(default)]
        antenna_x_m: f64,
        /// Extra belt travel margin, metres.
        #[serde(default = "margin_x_m")]
        margin_x_m: f64,
    },
}

// The deployment knobs' defaults.
fn standoff_y_m() -> f64 {
    0.35
}
fn margin_x_m() -> f64 {
    0.5
}
fn speed_mps() -> f64 {
    0.1
}
fn manual() -> bool {
    true
}
fn belt_speed_mps() -> f64 {
    0.3
}
fn one_metre() -> f64 {
    1.0
}

/// Multipath environment override.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum MultipathSpec {
    /// No reflectors at all.
    FreeSpace,
    /// The indoor-shelf reflector set sized to the layout.
    IndoorShelf,
}

/// Channel-noise overrides. Absent knobs keep the deployment's default
/// realistic channel (calibrated to the paper's measured profiles).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ChannelSpec {
    /// Phase-noise standard deviation, radians.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub phase_noise_std_rad: Option<f64>,
    /// RSSI-noise standard deviation, dB.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub rssi_noise_std_db: Option<f64>,
    /// Baseline per-interrogation miss probability, `[0, 1]`.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub base_miss_probability: Option<f64>,
    /// Multipath environment override.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub multipath: Option<MultipathSpec>,
}

/// The reader-side request schedule: how many times the recorded batch
/// is submitted, and the gap between submissions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct ScheduleSpec {
    /// Number of localization requests (≥ 1).
    pub requests: u64,
    /// Idle gap between consecutive requests.
    pub gap: DurationSpec,
}

impl Default for ScheduleSpec {
    fn default() -> Self {
        ScheduleSpec { requests: 1, gap: DurationSpec::ZERO }
    }
}

/// Server sizing for the service and wire runners.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct ServerSpec {
    /// Admission-queue depth (requests beyond it get `Busy`).
    pub queue_depth: u64,
    /// Persistent detection-pool workers.
    pub pool_workers: u64,
    /// Concurrent-connection cap override; a connection accepted at the
    /// cap gets the typed `TooManyConnections` frame. `None` keeps the
    /// server default.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub max_connections: Option<u64>,
}

impl Default for ServerSpec {
    fn default() -> Self {
        ServerSpec { queue_depth: 32, pool_workers: 2, max_connections: None }
    }
}

/// A wire-only connection storm: many concurrent raw connections, each
/// trickling its request frames a few bytes at a time (exercising the
/// server's frame reads across short reads), directly against the server
/// address (the chaos proxy, if any, is bypassed — the storm probes the
/// server, not the wire impairments).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct StormSpec {
    /// Concurrent storm connections, `[1, 256]`; required.
    pub connections: u64,
    /// Localize requests each connection performs, `[1, 100]`.
    #[serde(default = "one")]
    pub requests_per_connection: u64,
    /// Bytes written per trickle chunk, `[1, 1048576]`.
    #[serde(default = "chunk_bytes")]
    pub chunk_bytes: u64,
    /// Pause between consecutive chunks (capped at 100ms).
    #[serde(default = "chunk_gap")]
    pub chunk_gap: DurationSpec,
}

// The storm knobs' defaults.
fn one() -> u64 {
    1
}
fn chunk_bytes() -> u64 {
    2048
}
fn chunk_gap() -> DurationSpec {
    DurationSpec { seconds: 0.001 }
}

/// The streaming feed: besides the scheduled whole-recording batch
/// requests, the runner replays the recorded reports in time order into
/// a streaming session, polling a provisional (mid-stream) X ordering
/// as it goes and finishing the session at end of stream. The finished
/// session's result must be bit-identical to the batch result — the
/// runner hard-fails the run otherwise. Service mode drives a
/// [`ServiceSession`](stpp_serve::ServiceSession) in process; wire mode
/// drives `OpenSession`/`IngestReports`/`Provisional`/`FlushSession`
/// frames on a direct connection (the chaos proxy, if any, is bypassed
/// — the feed probes the streaming path, not the wire impairments).
/// Pipeline mode has no session layer and skips the feed, so streaming
/// expectations are skipped there.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct StreamingSpec {
    /// Poll the provisional ordering after every Nth ingested report
    /// (and once more at end of stream), `[1, 100000]`.
    pub poll_every_reports: u64,
}

impl Default for StreamingSpec {
    fn default() -> Self {
        StreamingSpec { poll_every_reports: 50 }
    }
}

/// Wire-level impairments, applied by the chaos proxy between the
/// client and the spawned server. Only the wire runner exercises these;
/// the server itself stays untouched.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct ImpairmentSpec {
    /// RNG seed for the probabilistic impairments.
    pub seed: u64,
    /// Fixed extra delay injected before forwarding each request frame.
    pub delay: DurationSpec,
    /// Probability that a request frame is held briefly before
    /// forwarding, letting frames on other connections overtake it.
    pub reorder_rate: f64,
    /// Truncate (tear the connection mid-frame) every Nth request frame
    /// per connection; `0` disables, `1` would loop forever so the
    /// minimum active value is 2.
    pub truncate_every: u64,
    /// Cleanly close the proxied connection every Nth request frame per
    /// connection; `0` disables, minimum active value 2.
    pub churn_every: u64,
    /// Blackhole (swallow without forwarding) every Nth request frame
    /// per connection — the connection stays open and the server never
    /// sees the frame, so only the client's deadline can save the call;
    /// `0` disables, minimum active value 2.
    pub blackhole_every: u64,
    /// Stall mid-frame every Nth request frame per connection: the
    /// header is forwarded, then the proxy sleeps [`stall`](Self::stall)
    /// before forwarding the payload (stall-then-resume — the request
    /// eventually completes unless the stall outlives a deadline); `0`
    /// disables, minimum active value 2.
    pub stall_every: u64,
    /// How long each [`stall_every`](Self::stall_every) stall lasts.
    pub stall: DurationSpec,
    /// Kill the server abruptly after this many completed requests and
    /// restart a fresh one on the same address — the crash-recovery
    /// drill. `0` disables. The restarted server has cold caches and no
    /// sessions, exactly like a real crash.
    pub kill_after_requests: u64,
    /// Number of queue-overfill drills: each occupies an admission slot
    /// with `Pause` and then probes with localize calls expecting
    /// `Busy`.
    pub pause_drills: u64,
    /// How long each drill's `Pause` holds its slot.
    pub pause_hold: DurationSpec,
}

impl Default for ImpairmentSpec {
    fn default() -> Self {
        ImpairmentSpec {
            seed: 0,
            delay: DurationSpec::ZERO,
            reorder_rate: 0.0,
            truncate_every: 0,
            churn_every: 0,
            blackhole_every: 0,
            stall_every: 0,
            stall: DurationSpec { seconds: 0.05 },
            kill_after_requests: 0,
            pause_drills: 0,
            pause_hold: DurationSpec { seconds: 0.3 },
        }
    }
}

/// The wire runner's client-side resilience policy — the knobs of the
/// [`RetryPolicy`](stpp_serve::RetryPolicy) and circuit breaker its
/// [`ResilientClient`](stpp_serve::ResilientClient) runs under. Absent
/// (`client` omitted from the scenario), the defaults below apply.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct ClientSpec {
    /// Attempt budget per logical call, `[1, 1000]`.
    pub attempts: u64,
    /// Backoff before the second attempt (doubles per retry).
    pub base_backoff: DurationSpec,
    /// Ceiling on any single backoff sleep.
    pub max_backoff: DurationSpec,
    /// Jitter fraction, `[0, 1]` (deterministic, seeded).
    pub jitter: f64,
    /// Per-request deadline (socket read/write/connect timeout).
    pub deadline: DurationSpec,
    /// Consecutive transport-level failures that open the circuit,
    /// `[1, 1000]`.
    pub circuit_threshold: u64,
    /// Cooldown before an open circuit admits a half-open probe.
    pub circuit_cooldown: DurationSpec,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for ClientSpec {
    fn default() -> Self {
        ClientSpec {
            attempts: 16,
            base_backoff: DurationSpec { seconds: 0.01 },
            max_backoff: DurationSpec { seconds: 0.25 },
            jitter: 0.25,
            deadline: DurationSpec { seconds: 2.0 },
            circuit_threshold: 5,
            circuit_cooldown: DurationSpec { seconds: 0.25 },
            seed: 0,
        }
    }
}

/// End-of-run expectations, checked by the runner. Every absent field
/// is simply not checked.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct Expectations {
    /// Pinned X ordering (exact match).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub order_x: Option<Vec<u64>>,
    /// Pinned Y ordering (exact match).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub order_y: Option<Vec<u64>>,
    /// Pinned undetected set (exact match).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub undetected: Option<Vec<u64>>,
    /// Ordering-accuracy floor along X, `[0, 1]`.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub min_accuracy_x: Option<f64>,
    /// Ordering-accuracy floor along Y, `[0, 1]`.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub min_accuracy_y: Option<f64>,
    /// Per-request latency ceiling (the slowest request must beat it).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub max_request_latency: Option<DurationSpec>,
    /// Ceiling on `busy_responses / localize attempts`, `[0, 1]`.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub max_busy_rate: Option<f64>,
    /// Floor on observed `Busy` responses (drills included).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub min_busy_responses: Option<u64>,
    /// Ceiling on transport errors (torn/churned connections).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub max_transport_errors: Option<u64>,
    /// Floor on transport errors — a chaos scenario asserts its
    /// impairments actually fired.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub min_transport_errors: Option<u64>,
    /// Assert warm requests (second onwards) build zero reference banks.
    #[serde(skip_serializing_if = "std::ops::Not::not")]
    pub warm_zero_builds: bool,
    /// Floor on geometry-cache hits across the run.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub min_geometry_hits: Option<u64>,
    /// Floor on client retry attempts (beyond each call's first) — a
    /// fault scenario asserts its chaos actually forced retries.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub min_retries: Option<u64>,
    /// Ceiling on client retry attempts — recovery must stay cheap.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub max_retries: Option<u64>,
    /// Floor on deadline expiries (blackhole scenarios assert the
    /// deadline fired).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub min_timeouts: Option<u64>,
    /// Ceiling on deadline expiries.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub max_timeouts: Option<u64>,
    /// Floor on circuit-open transitions.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub min_circuit_opens: Option<u64>,
    /// Ceiling on circuit-open transitions (a recovering run must not
    /// flap).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub max_circuit_opens: Option<u64>,
    /// Floor on storm connections fully served (every trickled request
    /// answered `Localized` with the deterministic result).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub min_storm_connections: Option<u64>,
    /// Floor on provisional polls that returned at least one estimated
    /// tag (streaming feed only; requires a `streaming` block).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub min_provisional_results: Option<u64>,
    /// Ceiling on the time-to-first-result: the stream time between the
    /// first ingested report and the first provisional poll that
    /// returned an estimate, measured on the deterministic report clock
    /// — not wall time, so the bound is stable in CI (streaming feed
    /// only).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub max_time_to_first_result: Option<DurationSpec>,
}

/// One complete declarative scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ScenarioSpec {
    /// Human-readable scenario name.
    pub name: String,
    /// Deterministic seed for both the scenario builder and the reader
    /// simulation.
    pub seed: u64,
    /// The tag population.
    pub population: PopulationSpec,
    /// The deployment.
    pub deployment: DeploymentSpec,
    /// Channel-noise overrides (`None` = deployment default).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub channel: Option<ChannelSpec>,
    /// The request schedule.
    #[serde(default)]
    pub schedule: ScheduleSpec,
    /// Server sizing (service and wire runners).
    #[serde(default)]
    pub server: ServerSpec,
    /// Connection storm (`None` = no storm; wire runner only).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub storm: Option<StormSpec>,
    /// Streaming feed (`None` = batch requests only; service and wire
    /// runners).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub streaming: Option<StreamingSpec>,
    /// Wire-client resilience policy (`None` = defaults).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub client: Option<ClientSpec>,
    /// Wire impairments (`None` = clean wire).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub impairments: Option<ImpairmentSpec>,
    /// End-of-run expectations.
    #[serde(default)]
    pub expectations: Expectations,
}

impl ScenarioSpec {
    /// Parses a scenario from its JSON text.
    pub fn from_json(text: &str) -> Result<ScenarioSpec, ScenarioError> {
        let spec: ScenarioSpec = serde_json::from_str(text)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Loads and parses a scenario file.
    pub fn load(path: &std::path::Path) -> Result<ScenarioSpec, ScenarioError> {
        let text = std::fs::read_to_string(path).map_err(|e| ScenarioError::Io {
            path: path.display().to_string(),
            reason: e.to_string(),
        })?;
        ScenarioSpec::from_json(&text)
    }

    /// Serializes the spec to canonical pretty-printed JSON such that
    /// `parse(serialize(s)) == s`.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("a spec always serializes") + "\n"
    }

    /// The range checks the field types do not carry: each failure is an
    /// [`ScenarioError::InvalidValue`] at the field's path.
    fn validate(&self) -> Result<(), ScenarioError> {
        let population = &self.population;
        if let LayoutSpec::Row { spacing_m, .. } = population.layout {
            positive("population.layout.row.spacing_m", spacing_m)?;
        }
        non_negative("population.phase_offset_jitter_rad", population.phase_offset_jitter_rad)?;
        match self.deployment {
            DeploymentSpec::AntennaSweep { standoff_y_m, margin_x_m, speed_mps, .. } => {
                positive("deployment.antenna_sweep.standoff_y_m", standoff_y_m)?;
                non_negative("deployment.antenna_sweep.margin_x_m", margin_x_m)?;
                positive("deployment.antenna_sweep.speed_mps", speed_mps)?;
            }
            DeploymentSpec::Conveyor {
                belt_speed_mps, antenna_standoff_y_m, margin_x_m, ..
            } => {
                positive("deployment.conveyor.belt_speed_mps", belt_speed_mps)?;
                positive("deployment.conveyor.antenna_standoff_y_m", antenna_standoff_y_m)?;
                non_negative("deployment.conveyor.margin_x_m", margin_x_m)?;
            }
        }
        if let Some(channel) = &self.channel {
            let noise = [
                ("channel.phase_noise_std_rad", channel.phase_noise_std_rad),
                ("channel.rssi_noise_std_db", channel.rssi_noise_std_db),
            ];
            for (path, std) in noise {
                std.map_or(Ok(()), |x| non_negative(path, x))?;
            }
            let miss = channel.base_miss_probability;
            miss.map_or(Ok(()), |x| fraction("channel.base_miss_probability", x))?;
        }
        count("schedule.requests", self.schedule.requests, 10_000)?;
        let server = &self.server;
        count("server.queue_depth", server.queue_depth, 4096)?;
        count("server.pool_workers", server.pool_workers, 64)?;
        server.max_connections.map_or(Ok(()), |n| count("server.max_connections", n, 65_536))?;
        if let Some(storm) = &self.storm {
            count("storm.connections", storm.connections, 256)?;
            count("storm.requests_per_connection", storm.requests_per_connection, 100)?;
            count("storm.chunk_bytes", storm.chunk_bytes, 1 << 20)?;
            at_most("storm.chunk_gap", storm.chunk_gap, 0.1)?;
        }
        if let Some(streaming) = &self.streaming {
            count("streaming.poll_every_reports", streaming.poll_every_reports, 100_000)?;
        }
        if let Some(imp) = &self.impairments {
            at_most("impairments.delay", imp.delay, 1.0)?;
            fraction("impairments.reorder_rate", imp.reorder_rate)?;
            for (path, every) in [
                ("impairments.truncate_every", imp.truncate_every),
                ("impairments.churn_every", imp.churn_every),
                ("impairments.blackhole_every", imp.blackhole_every),
                ("impairments.stall_every", imp.stall_every),
            ] {
                require(every != 1, path, || {
                    "1 would impair every frame and the run could never make progress; use 0 \
                     to disable or ≥ 2"
                        .to_string()
                })?;
            }
            at_most("impairments.stall", imp.stall, 1.0)?;
            let kills = imp.kill_after_requests;
            require(kills <= 1000, "impairments.kill_after_requests", || {
                format!("{kills} is above the cap of 1000")
            })?;
            let drills = imp.pause_drills;
            require(drills <= 16, "impairments.pause_drills", || {
                format!("{drills} drills is above the cap of 16")
            })?;
            at_most("impairments.pause_hold", imp.pause_hold, 2.0)?;
        }
        if let Some(client) = &self.client {
            count("client.attempts", client.attempts, 1000)?;
            at_most("client.base_backoff", client.base_backoff, 10.0)?;
            at_most("client.max_backoff", client.max_backoff, 30.0)?;
            fraction("client.jitter", client.jitter)?;
            at_most("client.deadline", client.deadline, 60.0)?;
            require(client.deadline.seconds > 0.0, "client.deadline", || {
                "a zero deadline would fail every call before it starts".to_string()
            })?;
            count("client.circuit_threshold", client.circuit_threshold, 1000)?;
            at_most("client.circuit_cooldown", client.circuit_cooldown, 60.0)?;
        }
        let expectations = &self.expectations;
        for (path, floor) in [
            ("expectations.min_accuracy_x", expectations.min_accuracy_x),
            ("expectations.min_accuracy_y", expectations.min_accuracy_y),
            ("expectations.max_busy_rate", expectations.max_busy_rate),
        ] {
            floor.map_or(Ok(()), |x| fraction(path, x))?;
        }
        Ok(())
    }
}

/// `Ok` when `ok`, else an [`ScenarioError::InvalidValue`] at `path`.
fn require(ok: bool, path: &str, reason: impl FnOnce() -> String) -> Result<(), ScenarioError> {
    if ok {
        Ok(())
    } else {
        Err(ScenarioError::InvalidValue { path: path.to_string(), reason: reason() })
    }
}

fn positive(path: &str, x: f64) -> Result<(), ScenarioError> {
    require(x > 0.0, path, || format!("{x} is not positive"))
}

fn non_negative(path: &str, x: f64) -> Result<(), ScenarioError> {
    require(x >= 0.0, path, || format!("{x} is negative"))
}

fn fraction(path: &str, x: f64) -> Result<(), ScenarioError> {
    require((0.0..=1.0).contains(&x), path, || format!("{x} is outside [0, 1]"))
}

/// A count in `[1, max]`.
fn count(path: &str, n: u64, max: u64) -> Result<(), ScenarioError> {
    require((1..=max).contains(&n), path, || format!("{n} is outside [1, {max}]"))
}

/// A duration of at most `cap` seconds: a longer one would stall the run.
fn at_most(path: &str, d: DurationSpec, cap: f64) -> Result<(), ScenarioError> {
    require(d.seconds <= cap, path, || format!("{}s is above the cap of {cap}s", d.seconds))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> &'static str {
        r#"{
            "name": "smoke",
            "seed": 7,
            "population": { "layout": { "row": { "start_x_m": 0.0, "y_m": 0.0, "spacing_m": 0.1, "count": 3 } } },
            "deployment": { "antenna_sweep": {} }
        }"#
    }

    #[test]
    fn minimal_scenario_parses_with_defaults() {
        let spec = ScenarioSpec::from_json(minimal()).expect("parses");
        assert_eq!(spec.name, "smoke");
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.schedule, ScheduleSpec::default());
        assert_eq!(spec.server, ServerSpec::default());
        assert!(spec.channel.is_none());
        assert!(spec.impairments.is_none());
        assert_eq!(spec.expectations, Expectations::default());
        match spec.deployment {
            DeploymentSpec::AntennaSweep { standoff_y_m, speed_mps, manual, .. } => {
                assert_eq!(standoff_y_m, 0.35);
                assert_eq!(speed_mps, 0.1);
                assert!(manual);
            }
            other => panic!("wrong deployment: {other:?}"),
        }
    }

    #[test]
    fn server_and_storm_knobs_parse_and_round_trip() {
        let text = minimal().replace(
            "\"seed\": 7",
            r#""seed": 7,
            "server": { "queue_depth": 4, "max_connections": 128 },
            "storm": { "connections": 64, "chunk_bytes": 512, "chunk_gap": "2ms" },
            "expectations": { "min_storm_connections": 64 }"#,
        );
        let spec = ScenarioSpec::from_json(&text).expect("parses");
        assert_eq!(spec.server.queue_depth, 4);
        assert_eq!(spec.server.max_connections, Some(128));
        let storm = spec.storm.expect("storm block");
        assert_eq!(storm.connections, 64);
        assert_eq!(storm.requests_per_connection, 1); // default
        assert_eq!(storm.chunk_bytes, 512);
        assert_eq!(storm.chunk_gap.seconds, 0.002);
        assert_eq!(spec.expectations.min_storm_connections, Some(64));
        let back = ScenarioSpec::from_json(&spec.to_json()).expect("canonical form parses");
        assert_eq!(spec, back);

        // A stale `core` field is an error, not silently ignored.
        let bad = minimal().replace("\"seed\": 7", r#""seed": 7, "server": { "core": "async" }"#);
        assert_eq!(
            ScenarioSpec::from_json(&bad),
            Err(ScenarioError::UnknownField { path: "server.core".to_string() })
        );
        let bad = minimal().replace("\"seed\": 7", r#""seed": 7, "storm": {}"#);
        assert_eq!(
            ScenarioSpec::from_json(&bad),
            Err(ScenarioError::MissingField { path: "storm.connections".to_string() })
        );
    }

    #[test]
    fn streaming_block_parses_validates_and_round_trips() {
        let text = minimal().replace(
            "\"seed\": 7",
            r#""seed": 7,
            "streaming": { "poll_every_reports": 25 },
            "expectations": { "min_provisional_results": 2, "max_time_to_first_result": "1.5s" }"#,
        );
        let spec = ScenarioSpec::from_json(&text).expect("parses");
        let streaming = spec.streaming.expect("streaming block");
        assert_eq!(streaming.poll_every_reports, 25);
        assert_eq!(spec.expectations.min_provisional_results, Some(2));
        assert_eq!(spec.expectations.max_time_to_first_result.map(|d| d.seconds), Some(1.5));
        let back = ScenarioSpec::from_json(&spec.to_json()).expect("canonical form parses");
        assert_eq!(spec, back);

        // Defaults apply to an empty block.
        let text = minimal().replace("\"seed\": 7", r#""seed": 7, "streaming": {}"#);
        let spec = ScenarioSpec::from_json(&text).expect("parses");
        assert_eq!(spec.streaming, Some(StreamingSpec::default()));

        // A zero poll cadence would never poll; it is a typed rejection.
        let bad = minimal()
            .replace("\"seed\": 7", r#""seed": 7, "streaming": { "poll_every_reports": 0 }"#);
        assert!(matches!(ScenarioSpec::from_json(&bad), Err(ScenarioError::InvalidValue { .. })));
    }

    #[test]
    fn canonical_round_trip() {
        let spec = ScenarioSpec::from_json(minimal()).expect("parses");
        let json = spec.to_json();
        let back = ScenarioSpec::from_json(&json).expect("canonical form parses");
        assert_eq!(spec, back);
    }

    #[test]
    fn unknown_field_is_rejected_with_its_path() {
        let text = minimal().replace("\"seed\": 7", "\"seed\": 7, \"sede\": 7");
        assert_eq!(
            ScenarioSpec::from_json(&text),
            Err(ScenarioError::UnknownField { path: "sede".to_string() })
        );
        let text = minimal().replace("\"manual\"", "\"x\""); // no-op: minimal has no manual
        assert!(ScenarioSpec::from_json(&text).is_ok());
        let nested = minimal()
            .replace(r#""antenna_sweep": {}"#, r#""antenna_sweep": { "standoff_m": 0.3 }"#);
        assert_eq!(
            ScenarioSpec::from_json(&nested),
            Err(ScenarioError::UnknownField {
                path: "deployment.antenna_sweep.standoff_m".to_string()
            })
        );
        // Stale fleet keys are errors, not silently ignored.
        for (insert, path) in [
            (r#""fleet": { "shards": 2 }"#, "fleet"),
            (r#""expectations": { "min_shards_used": 2 }"#, "expectations.min_shards_used"),
            (
                r#""expectations": { "max_cross_shard_builds": 0 }"#,
                "expectations.max_cross_shard_builds",
            ),
        ] {
            let text = minimal().replace("\"seed\": 7", &format!("\"seed\": 7, {insert}"));
            assert_eq!(
                ScenarioSpec::from_json(&text),
                Err(ScenarioError::UnknownField { path: path.to_string() })
            );
        }
    }

    #[test]
    fn non_finite_knob_is_typed() {
        let text = minimal()
            .replace(r#""antenna_sweep": {}"#, r#""antenna_sweep": { "standoff_y_m": 1e999 }"#);
        assert_eq!(
            ScenarioSpec::from_json(&text),
            Err(ScenarioError::NonFinite {
                path: "deployment.antenna_sweep.standoff_y_m".to_string()
            })
        );
    }

    #[test]
    fn bad_durations_are_typed() {
        for bad in ["", "5", "5parsecs", "-3s", "s", "1e999s"] {
            let text = minimal().replace(
                r#""deployment": { "antenna_sweep": {} }"#,
                &format!(
                    r#""deployment": {{ "antenna_sweep": {{}} }}, "schedule": {{ "gap": "{bad}" }}"#
                ),
            );
            match ScenarioSpec::from_json(&text) {
                Err(ScenarioError::BadDuration { path, .. }) => {
                    assert_eq!(path, "schedule.gap", "input {bad:?}")
                }
                other => panic!("input {bad:?}: expected BadDuration, got {other:?}"),
            }
        }
    }

    #[test]
    fn duration_units_scale() {
        let spec = |gap: &str| {
            let text = minimal().replace(
                r#""deployment": { "antenna_sweep": {} }"#,
                &format!(
                    r#""deployment": {{ "antenna_sweep": {{}} }}, "schedule": {{ "gap": "{gap}" }}"#
                ),
            );
            ScenarioSpec::from_json(&text).expect("parses").schedule.gap.seconds
        };
        assert_eq!(spec("250ms"), 0.25);
        assert_eq!(spec("1.5s"), 1.5);
        assert_eq!(spec("0s"), 0.0);
    }

    #[test]
    fn malformed_json_is_typed() {
        assert!(matches!(ScenarioSpec::from_json("{ not json"), Err(ScenarioError::Json { .. })));
        assert!(matches!(
            ScenarioSpec::from_json("[1, 2, 3]"),
            Err(ScenarioError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn a_one_of_block_names_its_stray_key() {
        let row = r#""row": { "start_x_m": 0.0, "y_m": 0.0, "spacing_m": 0.1, "count": 3 }"#;
        let layout = |body: String| {
            minimal().replace(&format!("\"layout\": {{ {row} }}"), &format!("\"layout\": {body}"))
        };
        let deployment = |body: &str| {
            minimal().replace(
                r#""deployment": { "antenna_sweep": {} }"#,
                &format!("\"deployment\": {body}"),
            )
        };
        let unknown = |path: &str| Err(ScenarioError::UnknownField { path: path.to_string() });
        // A stray key before the variant's, and both variants at once.
        let text = layout(format!("{{ \"zz\": 1, {row} }}"));
        assert_eq!(ScenarioSpec::from_json(&text), unknown("population.layout.zz"));
        let text = layout(format!("{{ \"tags\": [], {row} }}"));
        assert_eq!(ScenarioSpec::from_json(&text), unknown("population.layout.tags"));
        let text = deployment(r#"{ "conveyor": {}, "antenna_sweep": {} }"#);
        assert_eq!(ScenarioSpec::from_json(&text), unknown("deployment.conveyor"));
        // A key naming no variant, alone, is a bad value of the block.
        for body in [r#"{ "conveyer": {} }"#, r#"{ "zz": 1 }"#] {
            match ScenarioSpec::from_json(&deployment(body)) {
                Err(ScenarioError::InvalidValue { path, .. }) => assert_eq!(path, "deployment"),
                other => panic!("{body}: expected InvalidValue, got {other:?}"),
            }
        }
    }
}
