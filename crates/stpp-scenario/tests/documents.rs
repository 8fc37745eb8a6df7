//! Pinned answers of the scenario reader, for documents people write:
//!
//! 1. an error table: each document carries exactly one fault, and the
//!    reader must answer it with a given [`ScenarioError`] variant at a
//!    given JSON path (the reason text is free);
//! 2. the defaults: an empty block parses to the values
//!    `scenarios/README.md` documents;
//! 3. key order: every checked-in scenario, with the keys of every object
//!    shuffled, parses to the same spec as the file itself.

use serde::Value;
use stpp_scenario::{
    ChannelSpec, ClientSpec, DeploymentSpec, DurationSpec, Expectations, ImpairmentSpec,
    ScenarioError, ScenarioSpec, ScheduleSpec, ServerSpec, StormSpec, StreamingSpec,
};

/// A valid document that sets every block and every field, so that each
/// row of the table can break exactly one of them.
const BASE: &str = r#"{
  "name": "documents base",
  "seed": 7,
  "population": {
    "layout": { "row": { "start_x_m": 0.2, "y_m": 0.0, "spacing_m": 0.3, "count": 4 } },
    "phase_offset_jitter_rad": 0.1
  },
  "deployment": {
    "conveyor": {
      "belt_speed_mps": 0.3,
      "antenna_standoff_y_m": 1.0,
      "antenna_height_z_m": 1.0,
      "antenna_x_m": 0.0,
      "margin_x_m": 0.5
    }
  },
  "channel": {
    "phase_noise_std_rad": 0.1,
    "rssi_noise_std_db": 0.5,
    "base_miss_probability": 0.1,
    "multipath": "free_space"
  },
  "schedule": { "requests": 2, "gap": "5ms" },
  "server": { "queue_depth": 4, "pool_workers": 2, "max_connections": 16 },
  "storm": { "connections": 4, "requests_per_connection": 2, "chunk_bytes": 512, "chunk_gap": "1ms" },
  "streaming": { "poll_every_reports": 25 },
  "client": {
    "attempts": 8,
    "base_backoff": "10ms",
    "max_backoff": "250ms",
    "jitter": 0.25,
    "deadline": "2s",
    "circuit_threshold": 5,
    "circuit_cooldown": "250ms",
    "seed": 3
  },
  "impairments": {
    "seed": 9,
    "delay": "1ms",
    "reorder_rate": 0.1,
    "truncate_every": 3,
    "churn_every": 0,
    "blackhole_every": 0,
    "stall_every": 0,
    "stall": "50ms",
    "kill_after_requests": 0,
    "pause_drills": 1,
    "pause_hold": "300ms"
  },
  "expectations": {
    "order_x": [3, 2, 1, 0],
    "order_y": [0, 1, 2, 3],
    "undetected": [],
    "min_accuracy_x": 0.5,
    "min_accuracy_y": 0.5,
    "max_request_latency": "2s",
    "max_busy_rate": 0.5,
    "min_busy_responses": 0,
    "max_transport_errors": 8,
    "min_transport_errors": 0,
    "warm_zero_builds": true,
    "min_geometry_hits": 1,
    "min_retries": 0,
    "max_retries": 8,
    "min_timeouts": 0,
    "max_timeouts": 8,
    "min_circuit_opens": 0,
    "max_circuit_opens": 1,
    "min_storm_connections": 4,
    "min_provisional_results": 1,
    "max_time_to_first_result": "1s"
  }
}"#;

/// The antenna-sweep deployment, every field set.
const SWEEP: &str = r#"{ "antenna_sweep": { "standoff_y_m": 0.35, "height_z_m": 0.0,
    "margin_x_m": 0.5, "speed_mps": 0.1, "manual": true } }"#;

/// An explicit two-tag layout.
const TAGS: &str = r#"{ "tags": [ { "x_m": 0.1, "y_m": 0.0 }, { "x_m": 0.4, "y_m": 0.0 } ] }"#;

/// A string value that [`Doc::text`] writes unquoted: the only way to put
/// a number such as `1e999`, which no finite `f64` writes, into a document.
const RAW: &str = "@raw:";

/// One step of a JSON path.
enum Step {
    Key(String),
    Index(usize),
}

/// Splits `a.b[2].c` into its steps.
fn steps(path: &str) -> Vec<Step> {
    let mut out = Vec::new();
    for part in path.split('.') {
        let mut pieces = part.split('[');
        let key = pieces.next().expect("a path part");
        if !key.is_empty() {
            out.push(Step::Key(key.to_string()));
        }
        for index in pieces {
            let index = index.strip_suffix(']').expect("a closing bracket");
            out.push(Step::Index(index.parse().expect("a numeric index")));
        }
    }
    out
}

fn json(text: &str) -> Value {
    serde_json::parse(text).unwrap_or_else(|e| panic!("test JSON `{text}` parses: {e}"))
}

/// A document under edit.
#[derive(Clone)]
struct Doc(Value);

impl Doc {
    fn base() -> Doc {
        Doc(json(BASE))
    }

    /// The value at `steps`, which must exist.
    fn at<'a>(value: &'a mut Value, steps: &[Step]) -> &'a mut Value {
        let mut value = value;
        for step in steps {
            value = match (value, step) {
                (Value::Map(entries), Step::Key(key)) => {
                    &mut entries.iter_mut().find(|(k, _)| k == key).expect("the key exists").1
                }
                (Value::Seq(items), Step::Index(i)) => &mut items[*i],
                _ => panic!("the path does not fit the document"),
            };
        }
        value
    }

    /// Sets `path` (adding the key when it is absent) to the JSON `value`.
    fn set(mut self, path: &str, value: &str) -> Doc {
        let mut steps = steps(path);
        let last = steps.pop().expect("a non-empty path");
        let value = json(value);
        match (Doc::at(&mut self.0, &steps), last) {
            (Value::Map(entries), Step::Key(key)) => {
                match entries.iter_mut().find(|(k, _)| *k == key) {
                    Some(entry) => entry.1 = value,
                    None => entries.push((key, value)),
                }
            }
            (Value::Seq(items), Step::Index(i)) => items[i] = value,
            _ => panic!("`{path}` does not fit the document"),
        }
        self
    }

    /// Sets `path` to `raw`, written into the text as it is.
    fn set_raw(self, path: &str, raw: &str) -> Doc {
        let marker = serde_json::to_string(&format!("{RAW}{raw}")).expect("a string writes");
        self.set(path, &marker)
    }

    /// Removes the key at `path`.
    fn remove(mut self, path: &str) -> Doc {
        let mut steps = steps(path);
        let Some(Step::Key(key)) = steps.pop() else { panic!("`{path}` ends in a key") };
        let Value::Map(entries) = Doc::at(&mut self.0, &steps) else { panic!("not an object") };
        let before = entries.len();
        entries.retain(|(k, _)| *k != key);
        assert_eq!(entries.len() + 1, before, "`{path}` is in the document once");
        self
    }

    /// Appends the entry `key: value` to the object at `path` (the root
    /// for `""`), even when the object already has that key.
    fn push(mut self, path: &str, key: &str, value: &str) -> Doc {
        let Value::Map(entries) = Doc::at(&mut self.0, &steps(path)) else {
            panic!("`{path}` is not an object")
        };
        entries.push((key.to_string(), json(value)));
        self
    }

    fn text(&self) -> String {
        let text = serde_json::to_string(&self.0).expect("a tree writes");
        // Unquote every raw marker.
        let quoted = format!("\"{RAW}");
        let mut out = String::new();
        let mut rest = text.as_str();
        while let Some(start) = rest.find(&quoted) {
            out.push_str(&rest[..start]);
            let after = &rest[start + quoted.len()..];
            let end = after.find('"').expect("a closing quote");
            out.push_str(&after[..end]);
            rest = &after[end + 1..];
        }
        out.push_str(rest);
        out
    }
}

/// The variant name and path of an error the table can pin.
fn variant_and_path(error: &ScenarioError) -> (&'static str, &str) {
    match error {
        ScenarioError::UnknownField { path } => ("UnknownField", path),
        ScenarioError::MissingField { path } => ("MissingField", path),
        ScenarioError::TypeMismatch { path, .. } => ("TypeMismatch", path),
        ScenarioError::NonFinite { path } => ("NonFinite", path),
        ScenarioError::BadDuration { path, .. } => ("BadDuration", path),
        ScenarioError::InvalidValue { path, .. } => ("InvalidValue", path),
        other => ("another variant", Box::leak(format!("{other:?}").into_boxed_str())),
    }
}

/// Every field the reader range-checks, each with values just outside
/// its range.
const OUT_OF_RANGE: &[(&str, &[&str])] = &[
    ("population.layout.row.spacing_m", &["0.0", "-0.001"]),
    ("population.phase_offset_jitter_rad", &["-0.001"]),
    ("deployment.antenna_sweep.standoff_y_m", &["0.0"]),
    ("deployment.antenna_sweep.margin_x_m", &["-0.001"]),
    ("deployment.antenna_sweep.speed_mps", &["0.0"]),
    ("deployment.conveyor.belt_speed_mps", &["0.0"]),
    ("deployment.conveyor.antenna_standoff_y_m", &["0.0"]),
    ("deployment.conveyor.margin_x_m", &["-0.001"]),
    ("channel.phase_noise_std_rad", &["-0.001"]),
    ("channel.rssi_noise_std_db", &["-0.001"]),
    ("channel.base_miss_probability", &["-0.001", "1.001"]),
    ("schedule.requests", &["0", "10001"]),
    ("server.queue_depth", &["0", "4097"]),
    ("server.pool_workers", &["0", "65"]),
    ("server.max_connections", &["0", "65537"]),
    ("storm.connections", &["0", "257"]),
    ("storm.requests_per_connection", &["0", "101"]),
    ("storm.chunk_bytes", &["0", "1048577"]),
    ("storm.chunk_gap", &["\"101ms\""]),
    ("streaming.poll_every_reports", &["0", "100001"]),
    ("impairments.delay", &["\"1.001s\""]),
    ("impairments.reorder_rate", &["-0.001", "1.001"]),
    ("impairments.truncate_every", &["1"]),
    ("impairments.churn_every", &["1"]),
    ("impairments.blackhole_every", &["1"]),
    ("impairments.stall_every", &["1"]),
    ("impairments.stall", &["\"1.001s\""]),
    ("impairments.kill_after_requests", &["1001"]),
    ("impairments.pause_drills", &["17"]),
    ("impairments.pause_hold", &["\"2.001s\""]),
    ("client.attempts", &["0", "1001"]),
    ("client.base_backoff", &["\"10.001s\""]),
    ("client.max_backoff", &["\"30.001s\""]),
    ("client.jitter", &["-0.001", "1.001"]),
    ("client.deadline", &["\"0s\"", "\"60.001s\""]),
    ("client.circuit_threshold", &["0", "1001"]),
    ("client.circuit_cooldown", &["\"60.001s\""]),
    ("expectations.min_accuracy_x", &["-0.001", "1.001"]),
    ("expectations.min_accuracy_y", &["1.001"]),
    ("expectations.max_busy_rate", &["1.001"]),
];

/// Every duration field.
const DURATIONS: &[&str] = &[
    "schedule.gap",
    "storm.chunk_gap",
    "impairments.delay",
    "impairments.stall",
    "impairments.pause_hold",
    "client.base_backoff",
    "client.max_backoff",
    "client.deadline",
    "client.circuit_cooldown",
    "expectations.max_request_latency",
    "expectations.max_time_to_first_result",
];

/// Every object a document can hold, by path, on the documents that hold
/// it.
fn every_object() -> Vec<(Doc, &'static str)> {
    let sweep = Doc::base().set("deployment", SWEEP);
    let tags = Doc::base().set("population.layout", TAGS);
    vec![
        (Doc::base(), ""),
        (Doc::base(), "population"),
        (Doc::base(), "population.layout"),
        (Doc::base(), "population.layout.row"),
        (tags.clone(), "population.layout.tags[0]"),
        (tags, "population.layout.tags[1]"),
        (Doc::base(), "deployment"),
        (Doc::base(), "deployment.conveyor"),
        (sweep.clone(), "deployment"),
        (sweep, "deployment.antenna_sweep"),
        (Doc::base(), "channel"),
        (Doc::base(), "schedule"),
        (Doc::base(), "server"),
        (Doc::base(), "storm"),
        (Doc::base(), "streaming"),
        (Doc::base(), "client"),
        (Doc::base(), "impairments"),
        (Doc::base(), "expectations"),
    ]
}

/// The table: a document with one fault, and the variant and path the
/// reader must answer it with.
fn rows() -> Vec<(Doc, &'static str, String)> {
    let row = |doc: Doc, variant: &'static str, path: &str| (doc, variant, path.to_string());
    let sweep = || Doc::base().set("deployment", SWEEP);
    let tags = || Doc::base().set("population.layout", TAGS);
    // Sets a field of either deployment: the sweep's live in `SWEEP`.
    let on_field = |path: &str, value: &str| {
        if path.starts_with("deployment.antenna_sweep") {
            sweep().set(path, value)
        } else {
            Doc::base().set(path, value)
        }
    };
    let mut rows = Vec::new();

    // The 12 required fields.
    for path in [
        "name",
        "seed",
        "population",
        "deployment",
        "population.layout",
        "population.layout.row.start_x_m",
        "population.layout.row.y_m",
        "population.layout.row.spacing_m",
        "population.layout.row.count",
        "storm.connections",
    ] {
        rows.push(row(Doc::base().remove(path), "MissingField", path));
    }
    for path in ["population.layout.tags[1].x_m", "population.layout.tags[1].y_m"] {
        rows.push(row(tags().remove(path), "MissingField", path));
    }

    // The 40 range-checked fields, just outside their ranges.
    for &(path, values) in OUT_OF_RANGE {
        for value in values {
            rows.push(row(on_field(path, value), "InvalidValue", path));
        }
    }
    // A multipath model that does not exist, and a one-of block naming none.
    rows.push(row(
        Doc::base().set("channel.multipath", "\"hall\""),
        "InvalidValue",
        "channel.multipath",
    ));
    rows.push(row(Doc::base().set("population.layout", "{}"), "InvalidValue", "population.layout"));
    rows.push(row(Doc::base().set("deployment", "{}"), "InvalidValue", "deployment"));

    // A stray key in every object, after the keys it holds.
    for (doc, path) in every_object() {
        let stray = if path.is_empty() { "zz".to_string() } else { format!("{path}.zz") };
        rows.push(row(doc.push(path, "zz", "1"), "UnknownField", &stray));
    }
    // A key repeated inside a nested block.
    rows.push(row(
        Doc::base().push("server", "queue_depth", "8"),
        "UnknownField",
        "server.queue_depth",
    ));
    rows.push(row(
        Doc::base().push("population.layout.row", "count", "4"),
        "UnknownField",
        "population.layout.row.count",
    ));
    rows.push(row(
        Doc::base().push("expectations", "order_x", "[0]"),
        "UnknownField",
        "expectations.order_x",
    ));
    rows.push(row(
        tags().push("population.layout.tags[0]", "x_m", "0.2"),
        "UnknownField",
        "population.layout.tags[0].x_m",
    ));
    rows.push(row(
        Doc::base().push(
            "population.layout",
            "row",
            r#"{ "start_x_m": 0.0, "y_m": 0.0, "spacing_m": 0.1, "count": 1 }"#,
        ),
        "UnknownField",
        "population.layout.row",
    ));

    // Each duration field, without its unit and negative.
    for path in DURATIONS {
        for value in ["\"5\"", "\"-1s\"", "\"5 parsecs\""] {
            rows.push(row(Doc::base().set(path, value), "BadDuration", path));
        }
    }

    // Nested floats that overflow to infinity.
    for path in [
        "population.layout.row.start_x_m",
        "deployment.conveyor.antenna_x_m",
        "channel.phase_noise_std_rad",
        "expectations.min_accuracy_x",
    ] {
        rows.push(row(Doc::base().set_raw(path, "1e999"), "NonFinite", path));
        rows.push(row(Doc::base().set_raw(path, "-1e999"), "NonFinite", path));
    }
    rows.push(row(
        tags().set_raw("population.layout.tags[1].y_m", "1e999"),
        "NonFinite",
        "population.layout.tags[1].y_m",
    ));

    // Values of the wrong JSON type.
    for (path, value) in [
        // A string, a float and a negative number where an integer belongs.
        ("seed", "\"7\""),
        ("population.layout.row.count", "4.5"),
        ("server.queue_depth", "-1"),
        ("expectations.min_retries", "-1"),
        // An object where the `order_x` array belongs, and a bad element.
        ("expectations.order_x", "{}"),
        ("expectations.order_x[3]", "-1"),
        ("expectations.order_y[0]", "\"a\""),
        // Strings, objects and arrays where they do not belong.
        ("name", "7"),
        ("population.layout.row.y_m", "\"0\""),
        ("population", "[]"),
        ("population.layout", "\"row\""),
        ("deployment.conveyor", "5"),
        ("server", "[]"),
        ("channel.multipath", "5"),
        ("channel.multipath", r#"{ "free_space": null }"#),
        ("expectations.warm_zero_builds", "1"),
        ("schedule.gap", "5"),
        // `null` is not absence.
        ("channel", "null"),
        ("expectations.min_retries", "null"),
        ("client.jitter", "null"),
    ] {
        rows.push(row(Doc::base().set(path, value), "TypeMismatch", path));
    }
    rows.push(row(
        Doc::base().set("population.layout", r#"{ "tags": 5 }"#),
        "TypeMismatch",
        "population.layout.tags",
    ));
    rows.push(row(
        tags().set("population.layout.tags[0]", "5"),
        "TypeMismatch",
        "population.layout.tags[0]",
    ));
    rows.push(row(
        sweep().set("deployment.antenna_sweep.manual", "1"),
        "TypeMismatch",
        "deployment.antenna_sweep.manual",
    ));
    rows
}

#[test]
fn the_base_documents_are_valid() {
    for doc in [
        Doc::base(),
        Doc::base().set("deployment", SWEEP),
        Doc::base().set("population.layout", TAGS),
    ] {
        ScenarioSpec::from_json(&doc.text())
            .unwrap_or_else(|e| panic!("a base document must parse: {e}\n{}", doc.text()));
    }
}

#[test]
fn one_fault_gets_its_variant_and_path() {
    let rows = rows();
    let mut wrong = Vec::new();
    for (doc, variant, path) in &rows {
        let text = doc.text();
        match ScenarioSpec::from_json(&text) {
            Ok(_) => wrong.push(format!("{variant} `{path}`: parsed\n  {text}")),
            Err(error) => {
                if variant_and_path(&error) != (*variant, path.as_str()) {
                    wrong.push(format!("{variant} `{path}`: got {error:?}\n  {text}"));
                }
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "{} of {} rows answered wrong:\n{}",
        wrong.len(),
        rows.len(),
        wrong.join("\n")
    );
    assert!(rows.len() >= 150, "the table has {} rows", rows.len());
}

/// A document with `block` set to `{}` and every other optional block
/// left out.
fn with_empty(block: &str) -> ScenarioSpec {
    let mut doc = Doc::base();
    for optional in [
        "channel",
        "schedule",
        "server",
        "storm",
        "streaming",
        "client",
        "impairments",
        "expectations",
    ] {
        doc = doc.remove(optional);
    }
    let doc = match block {
        "antenna_sweep" | "conveyor" => doc.set("deployment", &format!("{{ \"{block}\": {{}} }}")),
        block => doc.set(block, "{}"),
    };
    ScenarioSpec::from_json(&doc.text()).unwrap_or_else(|e| panic!("`{block}: {{}}` parses: {e}"))
}

fn seconds(seconds: f64) -> DurationSpec {
    DurationSpec { seconds }
}

#[test]
fn empty_blocks_take_the_documented_defaults() {
    assert_eq!(
        with_empty("antenna_sweep").deployment,
        DeploymentSpec::AntennaSweep {
            standoff_y_m: 0.35,
            height_z_m: 0.0,
            margin_x_m: 0.5,
            speed_mps: 0.1,
            manual: true,
        }
    );
    assert_eq!(
        with_empty("conveyor").deployment,
        DeploymentSpec::Conveyor {
            belt_speed_mps: 0.3,
            antenna_standoff_y_m: 1.0,
            antenna_height_z_m: 1.0,
            antenna_x_m: 0.0,
            margin_x_m: 0.5,
        }
    );
    let schedule = ScheduleSpec { requests: 1, gap: seconds(0.0) };
    assert_eq!(with_empty("schedule").schedule, schedule);
    let server = ServerSpec { queue_depth: 32, pool_workers: 2, max_connections: None };
    assert_eq!(with_empty("server").server, server);
    assert_eq!(with_empty("streaming").streaming, Some(StreamingSpec { poll_every_reports: 50 }));
    assert_eq!(
        with_empty("impairments").impairments,
        Some(ImpairmentSpec {
            seed: 0,
            delay: seconds(0.0),
            reorder_rate: 0.0,
            truncate_every: 0,
            churn_every: 0,
            blackhole_every: 0,
            stall_every: 0,
            stall: seconds(0.05),
            kill_after_requests: 0,
            pause_drills: 0,
            pause_hold: seconds(0.3),
        })
    );
    assert_eq!(
        with_empty("client").client,
        Some(ClientSpec {
            attempts: 16,
            base_backoff: seconds(0.01),
            max_backoff: seconds(0.25),
            jitter: 0.25,
            deadline: seconds(2.0),
            circuit_threshold: 5,
            circuit_cooldown: seconds(0.25),
            seed: 0,
        })
    );
    assert_eq!(
        with_empty("channel").channel,
        Some(ChannelSpec {
            phase_noise_std_rad: None,
            rssi_noise_std_db: None,
            base_miss_probability: None,
            multipath: None,
        })
    );
    let expectations = with_empty("expectations").expectations;
    assert_eq!(expectations, Expectations::default());
    assert!(!expectations.warm_zero_builds && expectations.order_x.is_none());

    // Absent blocks: the defaulted ones as if empty, the optional ones off.
    let bare = with_empty("streaming");
    assert_eq!((bare.schedule, bare.server), (schedule, server));
    assert_eq!(bare.expectations, Expectations::default());
    assert_eq!((bare.channel, bare.storm, bare.client, bare.impairments), (None, None, None, None));
    assert_eq!(bare.population.phase_offset_jitter_rad, 0.1);
    let jitter = Doc::base().remove("population.phase_offset_jitter_rad");
    let spec = ScenarioSpec::from_json(&jitter.text()).expect("the jitter is optional");
    assert_eq!(spec.population.phase_offset_jitter_rad, 0.0);
    // A storm needs only its connection count.
    let storm = Doc::base().set("storm", r#"{ "connections": 8 }"#);
    let spec = ScenarioSpec::from_json(&storm.text()).expect("a storm of connections alone");
    assert_eq!(
        spec.storm,
        Some(StormSpec {
            connections: 8,
            requests_per_connection: 1,
            chunk_bytes: 2048,
            chunk_gap: seconds(0.001),
        })
    );
}

/// A seeded xorshift generator: the shuffles are the same on every run.
struct Shuffler(u64);

impl Shuffler {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }

    /// Shuffles the keys of every object in `value`, arrays kept in order.
    fn shuffle(&mut self, value: &mut Value) {
        match value {
            Value::Map(entries) => {
                for i in (1..entries.len()).rev() {
                    let j = self.below(i + 1);
                    entries.swap(i, j);
                }
                for (_, value) in entries {
                    self.shuffle(value);
                }
            }
            Value::Seq(items) => items.iter_mut().for_each(|item| self.shuffle(item)),
            _ => {}
        }
    }
}

#[test]
fn key_order_does_not_matter() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut files: Vec<_> = [dir.clone(), dir.join("selfcheck")]
        .iter()
        .flat_map(|dir| std::fs::read_dir(dir).expect("a scenarios directory"))
        .map(|entry| entry.expect("a directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 12, "the checked-in scenarios: {files:?}");
    for (n, path) in files.iter().enumerate() {
        let text = std::fs::read_to_string(path).expect("a readable scenario");
        let spec = ScenarioSpec::from_json(&text)
            .unwrap_or_else(|e| panic!("{} parses: {e}", path.display()));
        let mut shuffler = Shuffler(0x9E37_79B9_7F4A_7C15 ^ (n as u64 + 1));
        for round in 0..64 {
            let mut tree = json(&text);
            shuffler.shuffle(&mut tree);
            let shuffled = serde_json::to_string(&tree).expect("a tree writes");
            let back = ScenarioSpec::from_json(&shuffled).unwrap_or_else(|e| {
                panic!("{} shuffle {round} parses: {e}\n{shuffled}", path.display())
            });
            assert_eq!(back, spec, "{} shuffle {round}:\n{shuffled}", path.display());
        }
    }
}
