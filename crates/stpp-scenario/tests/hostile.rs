//! Hostile-input properties: a scenario file from an untrusted editor
//! can be malformed in any way, and the parser must answer with a typed
//! [`ScenarioError`] — never a panic, never a silently-ignored field.

use proptest::prelude::*;
use proptest::ProptestConfig;
use stpp_scenario::{build_scenario, ScenarioError, ScenarioSpec};

fn proptest_cases(default_cases: u32) -> ProptestConfig {
    let cases =
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default_cases);
    ProptestConfig::with_cases(cases)
}

const VALID: &str = r#"{
  "name": "hostile base",
  "seed": 11,
  "population": {
    "layout": { "row": { "start_x_m": 0.2, "y_m": 0.0, "spacing_m": 0.3, "count": 4 } },
    "phase_offset_jitter_rad": 0.0
  },
  "deployment": { "conveyor": {} },
  "schedule": { "requests": 2, "gap": "5ms" },
  "impairments": { "delay": "1ms", "reorder_rate": 0.1 },
  "expectations": { "min_accuracy_x": 0.5, "max_request_latency": "2s" }
}"#;

/// Characters that make good JSON shrapnel: structure, quotes, escapes,
/// digits, and letters that can corrupt keywords.
fn json_shrapnel() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![
            Just('{'),
            Just('}'),
            Just('['),
            Just(']'),
            Just('"'),
            Just('\\'),
            Just(','),
            Just(':'),
            Just('.'),
            Just('-'),
            Just('+'),
            Just('e'),
            Just('n'),
            Just('u'),
            Just('t'),
            Just('f'),
            Just('0'),
            Just('9'),
            Just(' '),
            Just('\n'),
        ],
        0..64,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

proptest! {
    #![proptest_config(proptest_cases(256))]

    #[test]
    fn arbitrary_text_never_panics(text in json_shrapnel()) {
        // Any outcome is fine except a panic; a non-object document can
        // never be a scenario.
        let _ = ScenarioSpec::from_json(&text);
    }

    #[test]
    fn corrupted_valid_documents_never_panic(
        offset in any::<prop::sample::Index>(),
        replacement in json_shrapnel(),
        len in 0usize..8,
    ) {
        // Splice arbitrary shrapnel into a valid document at an
        // arbitrary byte offset (snapped to a char boundary).
        let mut start = offset.index(VALID.len());
        while !VALID.is_char_boundary(start) {
            start -= 1;
        }
        let mut end = (start + len).min(VALID.len());
        while !VALID.is_char_boundary(end) {
            end += 1;
        }
        let mutated = format!("{}{}{}", &VALID[..start], replacement, &VALID[end..]);
        let _ = ScenarioSpec::from_json(&mutated);
    }

    #[test]
    fn unknown_fields_are_rejected_not_ignored(tail in 0u32..1_000_000) {
        // A typo'd knob must never be silently dropped — that is the
        // whole reason the parser is hand-written over the Value tree.
        let field = format!("zz_unknown_{tail}");
        let text = VALID.replacen("\"seed\": 11,", &format!("\"seed\": 11, \"{field}\": 1,"), 1);
        prop_assert_eq!(
            ScenarioSpec::from_json(&text),
            Err(ScenarioError::UnknownField { path: field })
        );
    }

    #[test]
    fn non_finite_numeric_knobs_are_typed(knob in prop_oneof![Just("1e999"), Just("-1e999")]) {
        // The vendored serde_json parses 1e999 to ±∞ rather than
        // erroring, so the finiteness gate lives in the scenario parser.
        let text = VALID.replacen("\"start_x_m\": 0.2", &format!("\"start_x_m\": {knob}"), 1);
        prop_assert_eq!(
            ScenarioSpec::from_json(&text),
            Err(ScenarioError::NonFinite {
                path: "population.layout.row.start_x_m".to_string()
            })
        );
    }

    #[test]
    fn hostile_duration_strings_are_typed(text in json_shrapnel()) {
        let doc = VALID.replacen(
            "\"gap\": \"5ms\"",
            &format!("\"gap\": {}", serde_json::to_string(&text).unwrap()),
            1,
        );
        match ScenarioSpec::from_json(&doc) {
            Ok(spec) => {
                // Only a well-formed duration may get through.
                prop_assert!(spec.schedule.gap.seconds.is_finite());
                prop_assert!(spec.schedule.gap.seconds >= 0.0);
            }
            Err(ScenarioError::BadDuration { path, .. }) => prop_assert_eq!(path, "schedule.gap"),
            Err(other) => prop_assert!(false, "unexpected error: {other:?}"),
        }
    }
}

#[test]
fn zero_tag_populations_are_typed_build_errors() {
    // Parsing admits them (the schema is purely structural); building
    // the simulated sweep is where emptiness becomes meaningless.
    for layout in [
        r#"{ "row": { "start_x_m": 0.0, "y_m": 0.0, "spacing_m": 0.3, "count": 0 } }"#,
        r#"{ "tags": [] }"#,
    ] {
        let text = VALID.replacen(
            r#"{ "row": { "start_x_m": 0.2, "y_m": 0.0, "spacing_m": 0.3, "count": 4 } }"#,
            layout,
            1,
        );
        let spec = ScenarioSpec::from_json(&text).expect("structurally valid");
        assert_eq!(
            build_scenario(&spec).unwrap_err(),
            ScenarioError::EmptyPopulation,
            "layout {layout}"
        );
    }
}

#[test]
fn duplicated_fields_are_rejected() {
    let text = VALID.replacen("\"seed\": 11,", "\"seed\": 11, \"seed\": 12,", 1);
    assert_eq!(
        ScenarioSpec::from_json(&text),
        Err(ScenarioError::UnknownField { path: "seed".to_string() })
    );
}

#[test]
fn deeply_nested_documents_are_typed_json_errors() {
    // Parsed without a depth bound, 100,000 nested arrays overflow the
    // stack and abort the process.
    for text in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
        assert!(matches!(ScenarioSpec::from_json(&text), Err(ScenarioError::Json { .. })));
    }
}
