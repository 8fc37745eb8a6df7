//! The declarative scenario schema and its hand-written parser.
//!
//! A scenario file is a JSON object describing one complete workload:
//! the tag population and its geometry, the deployment (antenna-moving
//! sweep or tag-moving conveyor), optional channel-noise overrides, a
//! request schedule, optional wire impairments, and the end-of-run
//! [`Expectations`] the runner enforces.
//!
//! The parser is written by hand over the raw [`serde::Value`] tree (the
//! derive layer would silently ignore unknown fields): every error is a
//! typed [`ScenarioError`] carrying the JSON path of the offending
//! field, unknown fields are rejected, and hostile documents — malformed
//! JSON, non-finite knobs, bad duration strings — never panic.
//! Serialization ([`ScenarioSpec::to_json`]) emits a canonical
//! pretty-printed form such that `parse(serialize(s)) == s` for every
//! valid spec.

use serde::Value;

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

    /// Parses `"123ms"` / `"1.5s"` style strings.
    fn parse(text: &str, path: &str) -> Result<DurationSpec, ScenarioError> {
        let bad = |reason: &str| ScenarioError::BadDuration {
            path: path.to_string(),
            reason: reason.to_string(),
        };
        let text = text.trim();
        let (number, scale) = if let Some(stripped) = text.strip_suffix("ms") {
            (stripped, 1e-3)
        } else if let Some(stripped) = text.strip_suffix('s') {
            (stripped, 1.0)
        } else {
            return Err(bad("expected an `s` or `ms` suffix"));
        };
        let value: f64 =
            number.trim().parse().map_err(|_| bad(&format!("`{number}` is not a number")))?;
        if !value.is_finite() {
            return Err(bad("must be finite"));
        }
        if value < 0.0 {
            return Err(bad("must be non-negative"));
        }
        Ok(DurationSpec { seconds: value * scale })
    }

    /// The canonical serialized form (always in seconds).
    fn render(&self) -> String {
        format!("{:?}s", self.seconds)
    }

    /// This duration as a [`std::time::Duration`].
    pub fn as_std(&self) -> std::time::Duration {
        std::time::Duration::from_secs_f64(self.seconds)
    }
}

/// Where the tags are.
#[derive(Debug, Clone, PartialEq)]
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
    Explicit(Vec<TagPosition>),
}

/// One explicitly placed tag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TagPosition {
    /// X coordinate, metres.
    pub x_m: f64,
    /// Y coordinate, metres.
    pub y_m: f64,
}

/// The tag population.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationSpec {
    /// Tag geometry.
    pub layout: LayoutSpec,
    /// Per-tag reflection-phase jitter θ_TAG drawn uniformly from
    /// `[0, jitter)` radians — models a mixed-model tag population.
    pub phase_offset_jitter_rad: f64,
}

/// How reader and tags move relative to each other.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeploymentSpec {
    /// Stationary tags, hand-pushed antenna sweeping along X (library /
    /// shelf case).
    AntennaSweep {
        /// Perpendicular antenna-to-tag-plane distance, metres.
        standoff_y_m: f64,
        /// Antenna height below the tag plane, metres.
        height_z_m: f64,
        /// Extra travel before the first and after the last tag, metres.
        margin_x_m: f64,
        /// Nominal sweep speed, m/s (> 0).
        speed_mps: f64,
        /// `true` for the jittery hand-pushed profile, `false` for a
        /// perfectly linear sweep.
        manual: bool,
    },
    /// Stationary antenna, tags riding a conveyor belt (portal /
    /// sortation case).
    Conveyor {
        /// Belt speed along +X, m/s (> 0).
        belt_speed_mps: f64,
        /// Antenna lateral distance from the belt centre line, metres.
        antenna_standoff_y_m: f64,
        /// Antenna height above the belt, metres.
        antenna_height_z_m: f64,
        /// Antenna position along X, metres.
        antenna_x_m: f64,
        /// Extra belt travel margin, metres.
        margin_x_m: f64,
    },
}

/// Multipath environment override.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultipathSpec {
    /// No reflectors at all.
    FreeSpace,
    /// The indoor-shelf reflector set sized to the layout.
    IndoorShelf,
}

/// Channel-noise overrides. Absent knobs keep the deployment's default
/// realistic channel (calibrated to the paper's measured profiles).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChannelSpec {
    /// Phase-noise standard deviation, radians.
    pub phase_noise_std_rad: Option<f64>,
    /// RSSI-noise standard deviation, dB.
    pub rssi_noise_std_db: Option<f64>,
    /// Baseline per-interrogation miss probability, `[0, 1]`.
    pub base_miss_probability: Option<f64>,
    /// Multipath environment override.
    pub multipath: Option<MultipathSpec>,
}

/// The reader-side request schedule: how many times the recorded batch
/// is submitted, and the gap between submissions.
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerSpec {
    /// Admission-queue depth (requests beyond it get `Busy`).
    pub queue_depth: u64,
    /// Persistent detection-pool workers.
    pub pool_workers: u64,
    /// Concurrent-connection cap override; a connection accepted at the
    /// cap gets the typed `TooManyConnections` frame. `None` keeps the
    /// server default.
    pub max_connections: Option<u64>,
}

impl Default for ServerSpec {
    fn default() -> Self {
        ServerSpec { queue_depth: 32, pool_workers: 2, max_connections: None }
    }
}

/// A sharded fleet for the wire runner: `shards` independent servers,
/// each bound with a [`ShardIdentity`](stpp_serve::ShardIdentity) over
/// the same consistent-hash ring, fronted by a
/// [`FleetClient`](stpp_serve::FleetClient) that routes each request's
/// geometry to its owning shard. Presence of this block switches the
/// scenario's default mode to wire-only (like `impairments`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSpec {
    /// Number of shard servers, `[1, 16]`.
    pub shards: u64,
    /// Per-shard admission-queue depth override, `[1, 4096]`; `None`
    /// keeps the scenario's `server.queue_depth`.
    pub queue_depth: Option<u64>,
    /// Per-shard concurrent-connection cap override, `[1, 65536]`;
    /// `None` keeps the scenario's `server.max_connections`.
    pub max_connections: Option<u64>,
    /// Distinct request geometries, `[1, 16]`: request *i* uses variant
    /// `i % variants` (each variant perturbs the perpendicular
    /// distance), so a multi-variant schedule spreads across the ring.
    pub variants: u64,
    /// Deliberately dispatch every Nth request to the *wrong* shard —
    /// the misroute drill: the shard answers with a `Redirect` bounce
    /// (building nothing) and the fleet client follows it to the owner;
    /// `0` disables, `1` would misroute everything so the minimum
    /// active value is 2.
    pub misroute_every: u64,
    /// Kill this shard index abruptly mid-run and restart it on the
    /// same address with the same identity — the sharded
    /// crash-recovery drill. `None` disables.
    pub kill_shard: Option<u64>,
    /// How many completed requests before the
    /// [`kill_shard`](Self::kill_shard) kill fires, `[1, 1000]`.
    /// Required iff `kill_shard` is set.
    pub kill_after_requests: u64,
    /// Seed for the consistent-hash ring (shared by every shard and the
    /// fleet client — they must agree on placement).
    pub seed: u64,
}

impl Default for FleetSpec {
    fn default() -> Self {
        FleetSpec {
            shards: 2,
            queue_depth: None,
            max_connections: None,
            variants: 1,
            misroute_every: 0,
            kill_shard: None,
            kill_after_requests: 0,
            seed: 0,
        }
    }
}

/// A wire-only connection storm: many concurrent raw connections, each
/// trickling its request frames a few bytes at a time (exercising the
/// server's frame reads across short reads), directly against the server
/// address (the chaos proxy, if any, is bypassed — the storm probes the
/// server, not the wire impairments).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StormSpec {
    /// Concurrent storm connections, `[1, 256]`.
    pub connections: u64,
    /// Localize requests each connection performs, `[1, 100]`.
    pub requests_per_connection: u64,
    /// Bytes written per trickle chunk, `[1, 1048576]`.
    pub chunk_bytes: u64,
    /// Pause between consecutive chunks (capped at 100ms).
    pub chunk_gap: DurationSpec,
}

impl Default for StormSpec {
    fn default() -> Self {
        StormSpec {
            connections: 8,
            requests_per_connection: 1,
            chunk_bytes: 2048,
            chunk_gap: DurationSpec { seconds: 0.001 },
        }
    }
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
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Expectations {
    /// Pinned X ordering (exact match).
    pub order_x: Option<Vec<u64>>,
    /// Pinned Y ordering (exact match).
    pub order_y: Option<Vec<u64>>,
    /// Pinned undetected set (exact match).
    pub undetected: Option<Vec<u64>>,
    /// Ordering-accuracy floor along X, `[0, 1]`.
    pub min_accuracy_x: Option<f64>,
    /// Ordering-accuracy floor along Y, `[0, 1]`.
    pub min_accuracy_y: Option<f64>,
    /// Per-request latency ceiling (the slowest request must beat it).
    pub max_request_latency: Option<DurationSpec>,
    /// Ceiling on `busy_responses / localize attempts`, `[0, 1]`.
    pub max_busy_rate: Option<f64>,
    /// Floor on observed `Busy` responses (drills included).
    pub min_busy_responses: Option<u64>,
    /// Ceiling on transport errors (torn/churned connections).
    pub max_transport_errors: Option<u64>,
    /// Floor on transport errors — a chaos scenario asserts its
    /// impairments actually fired.
    pub min_transport_errors: Option<u64>,
    /// Assert warm requests (second onwards) build zero reference banks.
    pub warm_zero_builds: bool,
    /// Floor on geometry-cache hits across the run.
    pub min_geometry_hits: Option<u64>,
    /// Floor on client retry attempts (beyond each call's first) — a
    /// fault scenario asserts its chaos actually forced retries.
    pub min_retries: Option<u64>,
    /// Ceiling on client retry attempts — recovery must stay cheap.
    pub max_retries: Option<u64>,
    /// Floor on deadline expiries (blackhole scenarios assert the
    /// deadline fired).
    pub min_timeouts: Option<u64>,
    /// Ceiling on deadline expiries.
    pub max_timeouts: Option<u64>,
    /// Floor on circuit-open transitions.
    pub min_circuit_opens: Option<u64>,
    /// Ceiling on circuit-open transitions (a recovering run must not
    /// flap).
    pub max_circuit_opens: Option<u64>,
    /// Floor on storm connections fully served (every trickled request
    /// answered `Localized` with the deterministic result).
    pub min_storm_connections: Option<u64>,
    /// Floor on distinct shards that served at least one request — a
    /// fleet scenario asserts its workload actually spread across the
    /// ring (fleet runs only).
    pub min_shards_used: Option<u64>,
    /// Floor on `Redirect` bounces followed — a misroute drill asserts
    /// the bounce protocol actually fired (fleet runs only).
    pub min_redirects: Option<u64>,
    /// Ceiling on `Redirect` bounces — a well-routed fleet must not
    /// ping-pong (fleet runs only).
    pub max_redirects: Option<u64>,
    /// Ceiling on cross-shard reference-bank rebuilds: bank builds on
    /// any request *after* a variant's first. `0` proves shard
    /// affinity — every repeat landed on the shard that already holds
    /// the variant's banks (fleet runs only; a shard kill legitimately
    /// rebuilds).
    pub max_cross_shard_builds: Option<u64>,
    /// Floor on provisional polls that returned at least one estimated
    /// tag (streaming feed only; requires a `streaming` block).
    pub min_provisional_results: Option<u64>,
    /// Ceiling on the time-to-first-result: the stream time between the
    /// first ingested report and the first provisional poll that
    /// returned an estimate, measured on the deterministic report clock
    /// — not wall time, so the bound is stable in CI (streaming feed
    /// only).
    pub max_time_to_first_result: Option<DurationSpec>,
}

/// One complete declarative scenario.
#[derive(Debug, Clone, PartialEq)]
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
    pub channel: Option<ChannelSpec>,
    /// The request schedule.
    pub schedule: ScheduleSpec,
    /// Server sizing (service and wire runners).
    pub server: ServerSpec,
    /// Sharded fleet (`None` = single server; wire runner only).
    pub fleet: Option<FleetSpec>,
    /// Connection storm (`None` = no storm; wire runner only).
    pub storm: Option<StormSpec>,
    /// Streaming feed (`None` = batch requests only; service and wire
    /// runners).
    pub streaming: Option<StreamingSpec>,
    /// Wire-client resilience policy (`None` = defaults).
    pub client: Option<ClientSpec>,
    /// Wire impairments (`None` = clean wire).
    pub impairments: Option<ImpairmentSpec>,
    /// End-of-run expectations.
    pub expectations: Expectations,
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// A map walker that tracks which keys were consumed so `finish` can
/// reject unknown (or duplicated) fields with their exact path.
struct Fields<'a> {
    path: String,
    entries: &'a [(String, Value)],
    used: Vec<bool>,
}

impl<'a> Fields<'a> {
    fn new(value: &'a Value, path: &str) -> Result<Self, ScenarioError> {
        match value {
            Value::Map(entries) => {
                Ok(Fields { path: path.to_string(), entries, used: vec![false; entries.len()] })
            }
            _ => Err(ScenarioError::TypeMismatch { path: path.to_string(), expected: "an object" }),
        }
    }

    fn child(&self, name: &str) -> String {
        if self.path.is_empty() {
            name.to_string()
        } else {
            format!("{}.{name}", self.path)
        }
    }

    fn optional(&mut self, name: &str) -> Option<(&'a Value, String)> {
        for (i, (key, value)) in self.entries.iter().enumerate() {
            if key == name && !self.used[i] {
                self.used[i] = true;
                return Some((value, self.child(name)));
            }
        }
        None
    }

    fn required(&mut self, name: &str) -> Result<(&'a Value, String), ScenarioError> {
        self.optional(name).ok_or_else(|| ScenarioError::MissingField { path: self.child(name) })
    }

    fn finish(self) -> Result<(), ScenarioError> {
        for (i, (key, _)) in self.entries.iter().enumerate() {
            if !self.used[i] {
                return Err(ScenarioError::UnknownField { path: self.child(key) });
            }
        }
        Ok(())
    }
}

fn f64_at(value: &Value, path: &str) -> Result<f64, ScenarioError> {
    let x = match value {
        Value::F64(x) => *x,
        Value::U64(n) => *n as f64,
        Value::I64(n) => *n as f64,
        _ => {
            return Err(ScenarioError::TypeMismatch {
                path: path.to_string(),
                expected: "a number",
            })
        }
    };
    if !x.is_finite() {
        return Err(ScenarioError::NonFinite { path: path.to_string() });
    }
    Ok(x)
}

fn u64_at(value: &Value, path: &str) -> Result<u64, ScenarioError> {
    match value {
        Value::U64(n) => Ok(*n),
        Value::I64(n) if *n >= 0 => Ok(*n as u64),
        _ => Err(ScenarioError::TypeMismatch {
            path: path.to_string(),
            expected: "a non-negative integer",
        }),
    }
}

fn bool_at(value: &Value, path: &str) -> Result<bool, ScenarioError> {
    match value {
        Value::Bool(b) => Ok(*b),
        _ => Err(ScenarioError::TypeMismatch { path: path.to_string(), expected: "a boolean" }),
    }
}

fn str_at<'a>(value: &'a Value, path: &str) -> Result<&'a str, ScenarioError> {
    match value {
        Value::Str(s) => Ok(s),
        _ => Err(ScenarioError::TypeMismatch { path: path.to_string(), expected: "a string" }),
    }
}

fn duration_at(value: &Value, path: &str) -> Result<DurationSpec, ScenarioError> {
    DurationSpec::parse(str_at(value, path)?, path)
}

fn ids_at(value: &Value, path: &str) -> Result<Vec<u64>, ScenarioError> {
    let items = match value {
        Value::Seq(items) => items,
        _ => {
            return Err(ScenarioError::TypeMismatch {
                path: path.to_string(),
                expected: "an array of tag ids",
            })
        }
    };
    items.iter().enumerate().map(|(i, item)| u64_at(item, &format!("{path}[{i}]"))).collect()
}

fn unit_fraction_at(value: &Value, path: &str) -> Result<f64, ScenarioError> {
    let x = f64_at(value, path)?;
    if !(0.0..=1.0).contains(&x) {
        return Err(ScenarioError::InvalidValue {
            path: path.to_string(),
            reason: format!("{x} is outside [0, 1]"),
        });
    }
    Ok(x)
}

fn non_negative_at(value: &Value, path: &str) -> Result<f64, ScenarioError> {
    let x = f64_at(value, path)?;
    if x < 0.0 {
        return Err(ScenarioError::InvalidValue {
            path: path.to_string(),
            reason: format!("{x} is negative"),
        });
    }
    Ok(x)
}

fn positive_at(value: &Value, path: &str) -> Result<f64, ScenarioError> {
    let x = f64_at(value, path)?;
    if x <= 0.0 {
        return Err(ScenarioError::InvalidValue {
            path: path.to_string(),
            reason: format!("{x} is not positive"),
        });
    }
    Ok(x)
}

fn parse_layout(value: &Value, path: &str) -> Result<LayoutSpec, ScenarioError> {
    let mut fields = Fields::new(value, path)?;
    if let Some((row, row_path)) = fields.optional("row") {
        let mut row_fields = Fields::new(row, &row_path)?;
        let layout = LayoutSpec::Row {
            start_x_m: {
                let (v, p) = row_fields.required("start_x_m")?;
                f64_at(v, &p)?
            },
            y_m: {
                let (v, p) = row_fields.required("y_m")?;
                f64_at(v, &p)?
            },
            spacing_m: {
                let (v, p) = row_fields.required("spacing_m")?;
                positive_at(v, &p)?
            },
            count: {
                let (v, p) = row_fields.required("count")?;
                u64_at(v, &p)?
            },
        };
        row_fields.finish()?;
        fields.finish()?;
        return Ok(layout);
    }
    if let Some((tags, tags_path)) = fields.optional("tags") {
        let items = match tags {
            Value::Seq(items) => items,
            _ => {
                return Err(ScenarioError::TypeMismatch {
                    path: tags_path,
                    expected: "an array of tag positions",
                })
            }
        };
        let mut positions = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let item_path = format!("{tags_path}[{i}]");
            let mut tag_fields = Fields::new(item, &item_path)?;
            positions.push(TagPosition {
                x_m: {
                    let (v, p) = tag_fields.required("x_m")?;
                    f64_at(v, &p)?
                },
                y_m: {
                    let (v, p) = tag_fields.required("y_m")?;
                    f64_at(v, &p)?
                },
            });
            tag_fields.finish()?;
        }
        fields.finish()?;
        return Ok(LayoutSpec::Explicit(positions));
    }
    Err(ScenarioError::InvalidValue {
        path: path.to_string(),
        reason: "expected exactly one of `row` or `tags`".to_string(),
    })
}

fn parse_population(value: &Value, path: &str) -> Result<PopulationSpec, ScenarioError> {
    let mut fields = Fields::new(value, path)?;
    let layout = {
        let (v, p) = fields.required("layout")?;
        parse_layout(v, &p)?
    };
    let phase_offset_jitter_rad = match fields.optional("phase_offset_jitter_rad") {
        Some((v, p)) => non_negative_at(v, &p)?,
        None => 0.0,
    };
    fields.finish()?;
    Ok(PopulationSpec { layout, phase_offset_jitter_rad })
}

fn parse_deployment(value: &Value, path: &str) -> Result<DeploymentSpec, ScenarioError> {
    let mut fields = Fields::new(value, path)?;
    if let Some((sweep, sweep_path)) = fields.optional("antenna_sweep") {
        let mut sweep_fields = Fields::new(sweep, &sweep_path)?;
        let deployment = DeploymentSpec::AntennaSweep {
            standoff_y_m: match sweep_fields.optional("standoff_y_m") {
                Some((v, p)) => positive_at(v, &p)?,
                None => 0.35,
            },
            height_z_m: match sweep_fields.optional("height_z_m") {
                Some((v, p)) => f64_at(v, &p)?,
                None => 0.0,
            },
            margin_x_m: match sweep_fields.optional("margin_x_m") {
                Some((v, p)) => non_negative_at(v, &p)?,
                None => 0.5,
            },
            speed_mps: match sweep_fields.optional("speed_mps") {
                Some((v, p)) => positive_at(v, &p)?,
                None => 0.1,
            },
            manual: match sweep_fields.optional("manual") {
                Some((v, p)) => bool_at(v, &p)?,
                None => true,
            },
        };
        sweep_fields.finish()?;
        fields.finish()?;
        return Ok(deployment);
    }
    if let Some((belt, belt_path)) = fields.optional("conveyor") {
        let mut belt_fields = Fields::new(belt, &belt_path)?;
        let deployment = DeploymentSpec::Conveyor {
            belt_speed_mps: match belt_fields.optional("belt_speed_mps") {
                Some((v, p)) => positive_at(v, &p)?,
                None => 0.3,
            },
            antenna_standoff_y_m: match belt_fields.optional("antenna_standoff_y_m") {
                Some((v, p)) => positive_at(v, &p)?,
                None => 1.0,
            },
            antenna_height_z_m: match belt_fields.optional("antenna_height_z_m") {
                Some((v, p)) => f64_at(v, &p)?,
                None => 1.0,
            },
            antenna_x_m: match belt_fields.optional("antenna_x_m") {
                Some((v, p)) => f64_at(v, &p)?,
                None => 0.0,
            },
            margin_x_m: match belt_fields.optional("margin_x_m") {
                Some((v, p)) => non_negative_at(v, &p)?,
                None => 0.5,
            },
        };
        belt_fields.finish()?;
        fields.finish()?;
        return Ok(deployment);
    }
    Err(ScenarioError::InvalidValue {
        path: path.to_string(),
        reason: "expected exactly one of `antenna_sweep` or `conveyor`".to_string(),
    })
}

fn parse_channel(value: &Value, path: &str) -> Result<ChannelSpec, ScenarioError> {
    let mut fields = Fields::new(value, path)?;
    let channel = ChannelSpec {
        phase_noise_std_rad: match fields.optional("phase_noise_std_rad") {
            Some((v, p)) => Some(non_negative_at(v, &p)?),
            None => None,
        },
        rssi_noise_std_db: match fields.optional("rssi_noise_std_db") {
            Some((v, p)) => Some(non_negative_at(v, &p)?),
            None => None,
        },
        base_miss_probability: match fields.optional("base_miss_probability") {
            Some((v, p)) => Some(unit_fraction_at(v, &p)?),
            None => None,
        },
        multipath: match fields.optional("multipath") {
            Some((v, p)) => Some(match str_at(v, &p)? {
                "free_space" => MultipathSpec::FreeSpace,
                "indoor_shelf" => MultipathSpec::IndoorShelf,
                other => {
                    return Err(ScenarioError::InvalidValue {
                        path: p,
                        reason: format!(
                            "`{other}` is not a multipath model (expected `free_space` or `indoor_shelf`)"
                        ),
                    })
                }
            }),
            None => None,
        },
    };
    fields.finish()?;
    Ok(channel)
}

fn parse_schedule(value: &Value, path: &str) -> Result<ScheduleSpec, ScenarioError> {
    let mut fields = Fields::new(value, path)?;
    let requests = match fields.optional("requests") {
        Some((v, p)) => {
            let n = u64_at(v, &p)?;
            if n == 0 || n > 10_000 {
                return Err(ScenarioError::InvalidValue {
                    path: p,
                    reason: format!("{n} is outside [1, 10000]"),
                });
            }
            n
        }
        None => 1,
    };
    let gap = match fields.optional("gap") {
        Some((v, p)) => duration_at(v, &p)?,
        None => DurationSpec::ZERO,
    };
    fields.finish()?;
    Ok(ScheduleSpec { requests, gap })
}

fn parse_server(value: &Value, path: &str) -> Result<ServerSpec, ScenarioError> {
    let mut fields = Fields::new(value, path)?;
    let bounded = |v: &Value, p: String, hi: u64| -> Result<u64, ScenarioError> {
        let n = u64_at(v, &p)?;
        if n == 0 || n > hi {
            return Err(ScenarioError::InvalidValue {
                path: p,
                reason: format!("{n} is outside [1, {hi}]"),
            });
        }
        Ok(n)
    };
    let queue_depth = match fields.optional("queue_depth") {
        Some((v, p)) => bounded(v, p, 4096)?,
        None => 32,
    };
    let pool_workers = match fields.optional("pool_workers") {
        Some((v, p)) => bounded(v, p, 64)?,
        None => 2,
    };
    let max_connections = match fields.optional("max_connections") {
        Some((v, p)) => Some(bounded(v, p, 65536)?),
        None => None,
    };
    fields.finish()?;
    Ok(ServerSpec { queue_depth, pool_workers, max_connections })
}

fn parse_fleet(value: &Value, path: &str) -> Result<FleetSpec, ScenarioError> {
    let mut fields = Fields::new(value, path)?;
    let defaults = FleetSpec::default();
    let bounded = |v: &Value, p: String, hi: u64| -> Result<u64, ScenarioError> {
        let n = u64_at(v, &p)?;
        if n == 0 || n > hi {
            return Err(ScenarioError::InvalidValue {
                path: p,
                reason: format!("{n} is outside [1, {hi}]"),
            });
        }
        Ok(n)
    };
    let shards = {
        let (v, p) = fields.required("shards")?;
        bounded(v, p, 16)?
    };
    let spec = FleetSpec {
        shards,
        queue_depth: match fields.optional("queue_depth") {
            Some((v, p)) => Some(bounded(v, p, 4096)?),
            None => None,
        },
        max_connections: match fields.optional("max_connections") {
            Some((v, p)) => Some(bounded(v, p, 65536)?),
            None => None,
        },
        variants: match fields.optional("variants") {
            Some((v, p)) => bounded(v, p, 16)?,
            None => defaults.variants,
        },
        misroute_every: match fields.optional("misroute_every") {
            Some((v, p)) => {
                let n = u64_at(v, &p)?;
                if n == 1 {
                    return Err(ScenarioError::InvalidValue {
                        path: p,
                        reason: "1 would misroute every request; use 0 to disable or ≥ 2"
                            .to_string(),
                    });
                }
                n
            }
            None => defaults.misroute_every,
        },
        kill_shard: match fields.optional("kill_shard") {
            Some((v, p)) => {
                let n = u64_at(v, &p)?;
                if n >= shards {
                    return Err(ScenarioError::InvalidValue {
                        path: p,
                        reason: format!("shard {n} does not exist in a fleet of {shards}"),
                    });
                }
                Some(n)
            }
            None => None,
        },
        kill_after_requests: match fields.optional("kill_after_requests") {
            Some((v, p)) => bounded(v, p, 1000)?,
            None => defaults.kill_after_requests,
        },
        seed: match fields.optional("seed") {
            Some((v, p)) => u64_at(v, &p)?,
            None => defaults.seed,
        },
    };
    if spec.kill_shard.is_some() != (spec.kill_after_requests > 0) {
        return Err(ScenarioError::InvalidValue {
            path: format!("{path}.kill_shard"),
            reason: "kill_shard and kill_after_requests must be set together".to_string(),
        });
    }
    fields.finish()?;
    Ok(spec)
}

fn parse_storm(value: &Value, path: &str) -> Result<StormSpec, ScenarioError> {
    let mut fields = Fields::new(value, path)?;
    let defaults = StormSpec::default();
    let bounded = |v: &Value, p: String, hi: u64| -> Result<u64, ScenarioError> {
        let n = u64_at(v, &p)?;
        if n == 0 || n > hi {
            return Err(ScenarioError::InvalidValue {
                path: p,
                reason: format!("{n} is outside [1, {hi}]"),
            });
        }
        Ok(n)
    };
    let spec = StormSpec {
        connections: {
            let (v, p) = fields.required("connections")?;
            bounded(v, p, 256)?
        },
        requests_per_connection: match fields.optional("requests_per_connection") {
            Some((v, p)) => bounded(v, p, 100)?,
            None => defaults.requests_per_connection,
        },
        chunk_bytes: match fields.optional("chunk_bytes") {
            Some((v, p)) => bounded(v, p, 1 << 20)?,
            None => defaults.chunk_bytes,
        },
        chunk_gap: match fields.optional("chunk_gap") {
            Some((v, p)) => {
                let d = duration_at(v, &p)?;
                if d.seconds > 0.1 {
                    return Err(ScenarioError::InvalidValue {
                        path: p,
                        reason: "per-chunk gaps above 100ms would stall the run".to_string(),
                    });
                }
                d
            }
            None => defaults.chunk_gap,
        },
    };
    fields.finish()?;
    Ok(spec)
}

fn parse_streaming(value: &Value, path: &str) -> Result<StreamingSpec, ScenarioError> {
    let mut fields = Fields::new(value, path)?;
    let defaults = StreamingSpec::default();
    let spec = StreamingSpec {
        poll_every_reports: match fields.optional("poll_every_reports") {
            Some((v, p)) => {
                let n = u64_at(v, &p)?;
                if n == 0 || n > 100_000 {
                    return Err(ScenarioError::InvalidValue {
                        path: p,
                        reason: format!("{n} is outside [1, 100000]"),
                    });
                }
                n
            }
            None => defaults.poll_every_reports,
        },
    };
    fields.finish()?;
    Ok(spec)
}

fn parse_impairments(value: &Value, path: &str) -> Result<ImpairmentSpec, ScenarioError> {
    let mut fields = Fields::new(value, path)?;
    let defaults = ImpairmentSpec::default();
    let every = |v: &Value, p: String| -> Result<u64, ScenarioError> {
        let n = u64_at(v, &p)?;
        if n == 1 {
            return Err(ScenarioError::InvalidValue {
                path: p,
                reason: "1 would impair every frame and the run could never make progress; use 0 \
                         to disable or ≥ 2"
                    .to_string(),
            });
        }
        Ok(n)
    };
    let spec = ImpairmentSpec {
        seed: match fields.optional("seed") {
            Some((v, p)) => u64_at(v, &p)?,
            None => defaults.seed,
        },
        delay: match fields.optional("delay") {
            Some((v, p)) => {
                let d = duration_at(v, &p)?;
                if d.seconds > 1.0 {
                    return Err(ScenarioError::InvalidValue {
                        path: p,
                        reason: "per-frame delay above 1s would stall the run".to_string(),
                    });
                }
                d
            }
            None => defaults.delay,
        },
        reorder_rate: match fields.optional("reorder_rate") {
            Some((v, p)) => unit_fraction_at(v, &p)?,
            None => defaults.reorder_rate,
        },
        truncate_every: match fields.optional("truncate_every") {
            Some((v, p)) => every(v, p)?,
            None => defaults.truncate_every,
        },
        churn_every: match fields.optional("churn_every") {
            Some((v, p)) => every(v, p)?,
            None => defaults.churn_every,
        },
        blackhole_every: match fields.optional("blackhole_every") {
            Some((v, p)) => every(v, p)?,
            None => defaults.blackhole_every,
        },
        stall_every: match fields.optional("stall_every") {
            Some((v, p)) => every(v, p)?,
            None => defaults.stall_every,
        },
        stall: match fields.optional("stall") {
            Some((v, p)) => {
                let d = duration_at(v, &p)?;
                if d.seconds > 1.0 {
                    return Err(ScenarioError::InvalidValue {
                        path: p,
                        reason: "mid-frame stalls above 1s would stall the run".to_string(),
                    });
                }
                d
            }
            None => defaults.stall,
        },
        kill_after_requests: match fields.optional("kill_after_requests") {
            Some((v, p)) => {
                let n = u64_at(v, &p)?;
                if n > 1000 {
                    return Err(ScenarioError::InvalidValue {
                        path: p,
                        reason: format!("{n} is above the cap of 1000"),
                    });
                }
                n
            }
            None => defaults.kill_after_requests,
        },
        pause_drills: match fields.optional("pause_drills") {
            Some((v, p)) => {
                let n = u64_at(v, &p)?;
                if n > 16 {
                    return Err(ScenarioError::InvalidValue {
                        path: p,
                        reason: format!("{n} drills is above the cap of 16"),
                    });
                }
                n
            }
            None => defaults.pause_drills,
        },
        pause_hold: match fields.optional("pause_hold") {
            Some((v, p)) => {
                let d = duration_at(v, &p)?;
                if d.seconds > 2.0 {
                    return Err(ScenarioError::InvalidValue {
                        path: p,
                        reason: "drill holds above 2s make the suite needlessly slow".to_string(),
                    });
                }
                d
            }
            None => defaults.pause_hold,
        },
    };
    fields.finish()?;
    Ok(spec)
}

fn parse_client(value: &Value, path: &str) -> Result<ClientSpec, ScenarioError> {
    let mut fields = Fields::new(value, path)?;
    let defaults = ClientSpec::default();
    let bounded = |v: &Value, p: String, hi: u64| -> Result<u64, ScenarioError> {
        let n = u64_at(v, &p)?;
        if n == 0 || n > hi {
            return Err(ScenarioError::InvalidValue {
                path: p,
                reason: format!("{n} is outside [1, {hi}]"),
            });
        }
        Ok(n)
    };
    let capped_duration = |v: &Value, p: String, cap: f64| -> Result<DurationSpec, ScenarioError> {
        let d = duration_at(v, &p)?;
        if d.seconds > cap {
            return Err(ScenarioError::InvalidValue {
                path: p,
                reason: format!("{} is above the cap of {cap}s", d.seconds),
            });
        }
        Ok(d)
    };
    let spec = ClientSpec {
        attempts: match fields.optional("attempts") {
            Some((v, p)) => bounded(v, p, 1000)?,
            None => defaults.attempts,
        },
        base_backoff: match fields.optional("base_backoff") {
            Some((v, p)) => capped_duration(v, p, 10.0)?,
            None => defaults.base_backoff,
        },
        max_backoff: match fields.optional("max_backoff") {
            Some((v, p)) => capped_duration(v, p, 30.0)?,
            None => defaults.max_backoff,
        },
        jitter: match fields.optional("jitter") {
            Some((v, p)) => unit_fraction_at(v, &p)?,
            None => defaults.jitter,
        },
        deadline: match fields.optional("deadline") {
            Some((v, p)) => {
                let d = capped_duration(v, p.clone(), 60.0)?;
                if d.seconds <= 0.0 {
                    return Err(ScenarioError::InvalidValue {
                        path: p,
                        reason: "the deadline must be positive — a zero deadline would fail \
                                 every call before it starts"
                            .to_string(),
                    });
                }
                d
            }
            None => defaults.deadline,
        },
        circuit_threshold: match fields.optional("circuit_threshold") {
            Some((v, p)) => bounded(v, p, 1000)?,
            None => defaults.circuit_threshold,
        },
        circuit_cooldown: match fields.optional("circuit_cooldown") {
            Some((v, p)) => capped_duration(v, p, 60.0)?,
            None => defaults.circuit_cooldown,
        },
        seed: match fields.optional("seed") {
            Some((v, p)) => u64_at(v, &p)?,
            None => defaults.seed,
        },
    };
    fields.finish()?;
    Ok(spec)
}

fn parse_expectations(value: &Value, path: &str) -> Result<Expectations, ScenarioError> {
    let mut fields = Fields::new(value, path)?;
    let expectations = Expectations {
        order_x: match fields.optional("order_x") {
            Some((v, p)) => Some(ids_at(v, &p)?),
            None => None,
        },
        order_y: match fields.optional("order_y") {
            Some((v, p)) => Some(ids_at(v, &p)?),
            None => None,
        },
        undetected: match fields.optional("undetected") {
            Some((v, p)) => Some(ids_at(v, &p)?),
            None => None,
        },
        min_accuracy_x: match fields.optional("min_accuracy_x") {
            Some((v, p)) => Some(unit_fraction_at(v, &p)?),
            None => None,
        },
        min_accuracy_y: match fields.optional("min_accuracy_y") {
            Some((v, p)) => Some(unit_fraction_at(v, &p)?),
            None => None,
        },
        max_request_latency: match fields.optional("max_request_latency") {
            Some((v, p)) => Some(duration_at(v, &p)?),
            None => None,
        },
        max_busy_rate: match fields.optional("max_busy_rate") {
            Some((v, p)) => Some(unit_fraction_at(v, &p)?),
            None => None,
        },
        min_busy_responses: match fields.optional("min_busy_responses") {
            Some((v, p)) => Some(u64_at(v, &p)?),
            None => None,
        },
        max_transport_errors: match fields.optional("max_transport_errors") {
            Some((v, p)) => Some(u64_at(v, &p)?),
            None => None,
        },
        min_transport_errors: match fields.optional("min_transport_errors") {
            Some((v, p)) => Some(u64_at(v, &p)?),
            None => None,
        },
        warm_zero_builds: match fields.optional("warm_zero_builds") {
            Some((v, p)) => bool_at(v, &p)?,
            None => false,
        },
        min_geometry_hits: match fields.optional("min_geometry_hits") {
            Some((v, p)) => Some(u64_at(v, &p)?),
            None => None,
        },
        min_retries: match fields.optional("min_retries") {
            Some((v, p)) => Some(u64_at(v, &p)?),
            None => None,
        },
        max_retries: match fields.optional("max_retries") {
            Some((v, p)) => Some(u64_at(v, &p)?),
            None => None,
        },
        min_timeouts: match fields.optional("min_timeouts") {
            Some((v, p)) => Some(u64_at(v, &p)?),
            None => None,
        },
        max_timeouts: match fields.optional("max_timeouts") {
            Some((v, p)) => Some(u64_at(v, &p)?),
            None => None,
        },
        min_circuit_opens: match fields.optional("min_circuit_opens") {
            Some((v, p)) => Some(u64_at(v, &p)?),
            None => None,
        },
        max_circuit_opens: match fields.optional("max_circuit_opens") {
            Some((v, p)) => Some(u64_at(v, &p)?),
            None => None,
        },
        min_storm_connections: match fields.optional("min_storm_connections") {
            Some((v, p)) => Some(u64_at(v, &p)?),
            None => None,
        },
        min_shards_used: match fields.optional("min_shards_used") {
            Some((v, p)) => Some(u64_at(v, &p)?),
            None => None,
        },
        min_redirects: match fields.optional("min_redirects") {
            Some((v, p)) => Some(u64_at(v, &p)?),
            None => None,
        },
        max_redirects: match fields.optional("max_redirects") {
            Some((v, p)) => Some(u64_at(v, &p)?),
            None => None,
        },
        max_cross_shard_builds: match fields.optional("max_cross_shard_builds") {
            Some((v, p)) => Some(u64_at(v, &p)?),
            None => None,
        },
        min_provisional_results: match fields.optional("min_provisional_results") {
            Some((v, p)) => Some(u64_at(v, &p)?),
            None => None,
        },
        max_time_to_first_result: match fields.optional("max_time_to_first_result") {
            Some((v, p)) => Some(duration_at(v, &p)?),
            None => None,
        },
    };
    fields.finish()?;
    Ok(expectations)
}

impl ScenarioSpec {
    /// Parses a scenario from its JSON text.
    pub fn from_json(text: &str) -> Result<ScenarioSpec, ScenarioError> {
        let value: Value = serde_json::from_str(text)
            .map_err(|e| ScenarioError::Json { reason: e.to_string() })?;
        ScenarioSpec::from_value(&value)
    }

    /// Parses a scenario from an already-decoded [`Value`] tree.
    pub fn from_value(value: &Value) -> Result<ScenarioSpec, ScenarioError> {
        let mut fields = Fields::new(value, "")?;
        let spec = ScenarioSpec {
            name: {
                let (v, p) = fields.required("name")?;
                str_at(v, &p)?.to_string()
            },
            seed: {
                let (v, p) = fields.required("seed")?;
                u64_at(v, &p)?
            },
            population: {
                let (v, p) = fields.required("population")?;
                parse_population(v, &p)?
            },
            deployment: {
                let (v, p) = fields.required("deployment")?;
                parse_deployment(v, &p)?
            },
            channel: match fields.optional("channel") {
                Some((v, p)) => Some(parse_channel(v, &p)?),
                None => None,
            },
            schedule: match fields.optional("schedule") {
                Some((v, p)) => parse_schedule(v, &p)?,
                None => ScheduleSpec::default(),
            },
            server: match fields.optional("server") {
                Some((v, p)) => parse_server(v, &p)?,
                None => ServerSpec::default(),
            },
            fleet: match fields.optional("fleet") {
                Some((v, p)) => Some(parse_fleet(v, &p)?),
                None => None,
            },
            storm: match fields.optional("storm") {
                Some((v, p)) => Some(parse_storm(v, &p)?),
                None => None,
            },
            streaming: match fields.optional("streaming") {
                Some((v, p)) => Some(parse_streaming(v, &p)?),
                None => None,
            },
            client: match fields.optional("client") {
                Some((v, p)) => Some(parse_client(v, &p)?),
                None => None,
            },
            impairments: match fields.optional("impairments") {
                Some((v, p)) => Some(parse_impairments(v, &p)?),
                None => None,
            },
            expectations: match fields.optional("expectations") {
                Some((v, p)) => parse_expectations(v, &p)?,
                None => Expectations::default(),
            },
        };
        fields.finish()?;
        if spec.fleet.is_some() && (spec.storm.is_some() || spec.impairments.is_some()) {
            return Err(ScenarioError::InvalidValue {
                path: "fleet".to_string(),
                reason: "a fleet scenario cannot also declare `storm` or `impairments`".to_string(),
            });
        }
        if spec.fleet.is_some() && spec.streaming.is_some() {
            return Err(ScenarioError::InvalidValue {
                path: "streaming".to_string(),
                reason: "a streaming feed cannot ride a sharded fleet — a session lives on one \
                         shard"
                    .to_string(),
            });
        }
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

    /// The canonical [`Value`] tree of this spec (what
    /// [`to_json`](Self::to_json) pretty-prints).
    pub fn to_value(&self) -> Value {
        let mut root = vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            ("seed".to_string(), Value::U64(self.seed)),
            ("population".to_string(), population_value(&self.population)),
            ("deployment".to_string(), deployment_value(&self.deployment)),
        ];
        if let Some(channel) = &self.channel {
            root.push(("channel".to_string(), channel_value(channel)));
        }
        root.push((
            "schedule".to_string(),
            Value::Map(vec![
                ("requests".to_string(), Value::U64(self.schedule.requests)),
                ("gap".to_string(), Value::Str(self.schedule.gap.render())),
            ]),
        ));
        let mut server = vec![
            ("queue_depth".to_string(), Value::U64(self.server.queue_depth)),
            ("pool_workers".to_string(), Value::U64(self.server.pool_workers)),
        ];
        if let Some(max) = self.server.max_connections {
            server.push(("max_connections".to_string(), Value::U64(max)));
        }
        root.push(("server".to_string(), Value::Map(server)));
        if let Some(fleet) = &self.fleet {
            let mut entries = vec![("shards".to_string(), Value::U64(fleet.shards))];
            if let Some(depth) = fleet.queue_depth {
                entries.push(("queue_depth".to_string(), Value::U64(depth)));
            }
            if let Some(max) = fleet.max_connections {
                entries.push(("max_connections".to_string(), Value::U64(max)));
            }
            entries.push(("variants".to_string(), Value::U64(fleet.variants)));
            entries.push(("misroute_every".to_string(), Value::U64(fleet.misroute_every)));
            if let Some(shard) = fleet.kill_shard {
                entries.push(("kill_shard".to_string(), Value::U64(shard)));
                entries.push((
                    "kill_after_requests".to_string(),
                    Value::U64(fleet.kill_after_requests),
                ));
            }
            entries.push(("seed".to_string(), Value::U64(fleet.seed)));
            root.push(("fleet".to_string(), Value::Map(entries)));
        }
        if let Some(storm) = &self.storm {
            root.push((
                "storm".to_string(),
                Value::Map(vec![
                    ("connections".to_string(), Value::U64(storm.connections)),
                    (
                        "requests_per_connection".to_string(),
                        Value::U64(storm.requests_per_connection),
                    ),
                    ("chunk_bytes".to_string(), Value::U64(storm.chunk_bytes)),
                    ("chunk_gap".to_string(), Value::Str(storm.chunk_gap.render())),
                ]),
            ));
        }
        if let Some(streaming) = &self.streaming {
            root.push((
                "streaming".to_string(),
                Value::Map(vec![(
                    "poll_every_reports".to_string(),
                    Value::U64(streaming.poll_every_reports),
                )]),
            ));
        }
        if let Some(client) = &self.client {
            root.push((
                "client".to_string(),
                Value::Map(vec![
                    ("attempts".to_string(), Value::U64(client.attempts)),
                    ("base_backoff".to_string(), Value::Str(client.base_backoff.render())),
                    ("max_backoff".to_string(), Value::Str(client.max_backoff.render())),
                    ("jitter".to_string(), Value::F64(client.jitter)),
                    ("deadline".to_string(), Value::Str(client.deadline.render())),
                    ("circuit_threshold".to_string(), Value::U64(client.circuit_threshold)),
                    ("circuit_cooldown".to_string(), Value::Str(client.circuit_cooldown.render())),
                    ("seed".to_string(), Value::U64(client.seed)),
                ]),
            ));
        }
        if let Some(imp) = &self.impairments {
            root.push((
                "impairments".to_string(),
                Value::Map(vec![
                    ("seed".to_string(), Value::U64(imp.seed)),
                    ("delay".to_string(), Value::Str(imp.delay.render())),
                    ("reorder_rate".to_string(), Value::F64(imp.reorder_rate)),
                    ("truncate_every".to_string(), Value::U64(imp.truncate_every)),
                    ("churn_every".to_string(), Value::U64(imp.churn_every)),
                    ("blackhole_every".to_string(), Value::U64(imp.blackhole_every)),
                    ("stall_every".to_string(), Value::U64(imp.stall_every)),
                    ("stall".to_string(), Value::Str(imp.stall.render())),
                    ("kill_after_requests".to_string(), Value::U64(imp.kill_after_requests)),
                    ("pause_drills".to_string(), Value::U64(imp.pause_drills)),
                    ("pause_hold".to_string(), Value::Str(imp.pause_hold.render())),
                ]),
            ));
        }
        root.push(("expectations".to_string(), expectations_value(&self.expectations)));
        Value::Map(root)
    }

    /// Serializes the spec to canonical pretty-printed JSON such that
    /// `parse(serialize(s)) == s`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_pretty(&mut out, &self.to_value(), 0);
        out.push('\n');
        out
    }
}

fn population_value(population: &PopulationSpec) -> Value {
    let layout = match &population.layout {
        LayoutSpec::Row { start_x_m, y_m, spacing_m, count } => Value::Map(vec![(
            "row".to_string(),
            Value::Map(vec![
                ("start_x_m".to_string(), Value::F64(*start_x_m)),
                ("y_m".to_string(), Value::F64(*y_m)),
                ("spacing_m".to_string(), Value::F64(*spacing_m)),
                ("count".to_string(), Value::U64(*count)),
            ]),
        )]),
        LayoutSpec::Explicit(tags) => Value::Map(vec![(
            "tags".to_string(),
            Value::Seq(
                tags.iter()
                    .map(|t| {
                        Value::Map(vec![
                            ("x_m".to_string(), Value::F64(t.x_m)),
                            ("y_m".to_string(), Value::F64(t.y_m)),
                        ])
                    })
                    .collect(),
            ),
        )]),
    };
    Value::Map(vec![
        ("layout".to_string(), layout),
        ("phase_offset_jitter_rad".to_string(), Value::F64(population.phase_offset_jitter_rad)),
    ])
}

fn deployment_value(deployment: &DeploymentSpec) -> Value {
    match deployment {
        DeploymentSpec::AntennaSweep {
            standoff_y_m,
            height_z_m,
            margin_x_m,
            speed_mps,
            manual,
        } => Value::Map(vec![(
            "antenna_sweep".to_string(),
            Value::Map(vec![
                ("standoff_y_m".to_string(), Value::F64(*standoff_y_m)),
                ("height_z_m".to_string(), Value::F64(*height_z_m)),
                ("margin_x_m".to_string(), Value::F64(*margin_x_m)),
                ("speed_mps".to_string(), Value::F64(*speed_mps)),
                ("manual".to_string(), Value::Bool(*manual)),
            ]),
        )]),
        DeploymentSpec::Conveyor {
            belt_speed_mps,
            antenna_standoff_y_m,
            antenna_height_z_m,
            antenna_x_m,
            margin_x_m,
        } => Value::Map(vec![(
            "conveyor".to_string(),
            Value::Map(vec![
                ("belt_speed_mps".to_string(), Value::F64(*belt_speed_mps)),
                ("antenna_standoff_y_m".to_string(), Value::F64(*antenna_standoff_y_m)),
                ("antenna_height_z_m".to_string(), Value::F64(*antenna_height_z_m)),
                ("antenna_x_m".to_string(), Value::F64(*antenna_x_m)),
                ("margin_x_m".to_string(), Value::F64(*margin_x_m)),
            ]),
        )]),
    }
}

fn channel_value(channel: &ChannelSpec) -> Value {
    let mut entries = Vec::new();
    if let Some(x) = channel.phase_noise_std_rad {
        entries.push(("phase_noise_std_rad".to_string(), Value::F64(x)));
    }
    if let Some(x) = channel.rssi_noise_std_db {
        entries.push(("rssi_noise_std_db".to_string(), Value::F64(x)));
    }
    if let Some(x) = channel.base_miss_probability {
        entries.push(("base_miss_probability".to_string(), Value::F64(x)));
    }
    if let Some(multipath) = channel.multipath {
        let name = match multipath {
            MultipathSpec::FreeSpace => "free_space",
            MultipathSpec::IndoorShelf => "indoor_shelf",
        };
        entries.push(("multipath".to_string(), Value::Str(name.to_string())));
    }
    Value::Map(entries)
}

fn expectations_value(expectations: &Expectations) -> Value {
    let mut entries = Vec::new();
    let ids = |ids: &Vec<u64>| Value::Seq(ids.iter().map(|&id| Value::U64(id)).collect());
    if let Some(order) = &expectations.order_x {
        entries.push(("order_x".to_string(), ids(order)));
    }
    if let Some(order) = &expectations.order_y {
        entries.push(("order_y".to_string(), ids(order)));
    }
    if let Some(order) = &expectations.undetected {
        entries.push(("undetected".to_string(), ids(order)));
    }
    if let Some(x) = expectations.min_accuracy_x {
        entries.push(("min_accuracy_x".to_string(), Value::F64(x)));
    }
    if let Some(x) = expectations.min_accuracy_y {
        entries.push(("min_accuracy_y".to_string(), Value::F64(x)));
    }
    if let Some(d) = expectations.max_request_latency {
        entries.push(("max_request_latency".to_string(), Value::Str(d.render())));
    }
    if let Some(x) = expectations.max_busy_rate {
        entries.push(("max_busy_rate".to_string(), Value::F64(x)));
    }
    if let Some(n) = expectations.min_busy_responses {
        entries.push(("min_busy_responses".to_string(), Value::U64(n)));
    }
    if let Some(n) = expectations.max_transport_errors {
        entries.push(("max_transport_errors".to_string(), Value::U64(n)));
    }
    if let Some(n) = expectations.min_transport_errors {
        entries.push(("min_transport_errors".to_string(), Value::U64(n)));
    }
    if expectations.warm_zero_builds {
        entries.push(("warm_zero_builds".to_string(), Value::Bool(true)));
    }
    if let Some(n) = expectations.min_geometry_hits {
        entries.push(("min_geometry_hits".to_string(), Value::U64(n)));
    }
    if let Some(n) = expectations.min_retries {
        entries.push(("min_retries".to_string(), Value::U64(n)));
    }
    if let Some(n) = expectations.max_retries {
        entries.push(("max_retries".to_string(), Value::U64(n)));
    }
    if let Some(n) = expectations.min_timeouts {
        entries.push(("min_timeouts".to_string(), Value::U64(n)));
    }
    if let Some(n) = expectations.max_timeouts {
        entries.push(("max_timeouts".to_string(), Value::U64(n)));
    }
    if let Some(n) = expectations.min_circuit_opens {
        entries.push(("min_circuit_opens".to_string(), Value::U64(n)));
    }
    if let Some(n) = expectations.max_circuit_opens {
        entries.push(("max_circuit_opens".to_string(), Value::U64(n)));
    }
    if let Some(n) = expectations.min_storm_connections {
        entries.push(("min_storm_connections".to_string(), Value::U64(n)));
    }
    if let Some(n) = expectations.min_shards_used {
        entries.push(("min_shards_used".to_string(), Value::U64(n)));
    }
    if let Some(n) = expectations.min_redirects {
        entries.push(("min_redirects".to_string(), Value::U64(n)));
    }
    if let Some(n) = expectations.max_redirects {
        entries.push(("max_redirects".to_string(), Value::U64(n)));
    }
    if let Some(n) = expectations.max_cross_shard_builds {
        entries.push(("max_cross_shard_builds".to_string(), Value::U64(n)));
    }
    if let Some(n) = expectations.min_provisional_results {
        entries.push(("min_provisional_results".to_string(), Value::U64(n)));
    }
    if let Some(d) = expectations.max_time_to_first_result {
        entries.push(("max_time_to_first_result".to_string(), Value::Str(d.render())));
    }
    Value::Map(entries)
}

// ---------------------------------------------------------------------------
// Pretty printer
// ---------------------------------------------------------------------------

/// Pretty-prints a [`Value`] with two-space indentation, matching the
/// vendored `serde_json` writer's escaping and number formatting so the
/// output parses back to the identical tree.
fn write_pretty(out: &mut String, value: &Value, indent: usize) {
    use std::fmt::Write as _;
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(x) => {
            if x.is_finite() {
                let _ = write!(out, "{x:?}");
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_escaped(out, s),
        Value::Seq(items) if items.is_empty() => out.push_str("[]"),
        Value::Seq(items) => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                pad(out, indent + 1);
                write_pretty(out, item, indent + 1);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            pad(out, indent);
            out.push(']');
        }
        Value::Map(entries) if entries.is_empty() => out.push_str("{}"),
        Value::Map(entries) => {
            out.push_str("{\n");
            for (i, (key, val)) in entries.iter().enumerate() {
                pad(out, indent + 1);
                write_escaped(out, key);
                out.push_str(": ");
                write_pretty(out, val, indent + 1);
                if i + 1 < entries.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            pad(out, indent);
            out.push('}');
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
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

        // Streaming cannot ride a fleet: a session lives on one shard.
        let bad = minimal()
            .replace("\"seed\": 7", r#""seed": 7, "streaming": {}, "fleet": { "shards": 2 }"#);
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
}
