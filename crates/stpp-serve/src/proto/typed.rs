//! The typed reader for the two hot request frames.
//!
//! `Localize` and `IngestReports` carry one small map per phase sample or
//! report. Through the [`Value`](serde::Value) tree each of those costs
//! about three heap allocations (the map and its two owned key strings),
//! which on a shelf sweep adds up to as much time as localizing it. This
//! reader walks the same bytes straight into [`StppInput`] and
//! [`WireReport`]s.
//!
//! It accepts only the canonical layout every encoder in this crate
//! writes: exactly the declared fields, in declaration order, with every
//! float tagged as a float. Anything else (reordered or extra fields, an
//! integer-tagged float, a count larger than the bytes left) is a typed
//! [`ProtoError`], and every count is checked against the bytes left
//! before anything is allocated for it. On the bytes it accepts it
//! returns exactly what the derive path returns.

use rfid_gen2::Epc;
use stpp_core::{PhaseProfile, PhaseSample, StppInput, TagObservations};

use super::{
    Decoder, ProtoError, Request, WireReport, TAG_F64, TAG_MAP, TAG_NULL, TAG_SEQ, TAG_U64,
};

/// 16-bit words in an EPC.
const EPC_WORDS: usize = Epc::BITS / 16;

/// Encoded size of a container header: the tag byte and a `u32` count.
const CONTAINER: usize = 5;
/// Encoded size of a tagged 8-byte scalar.
const SCALAR: usize = 9;

/// Encoded size of a map key.
const fn key_size(name: &str) -> usize {
    4 + name.len()
}

/// Encoded size of a map key and its scalar value.
const fn field_size(name: &str) -> usize {
    key_size(name) + SCALAR
}

/// Encoded size of one phase sample.
const SAMPLE_BYTES: usize = CONTAINER + field_size("time_s") + field_size("phase_rad");
/// Encoded size of one wire report.
const REPORT_BYTES: usize =
    CONTAINER + field_size("epc_serial") + field_size("time_s") + field_size("phase_rad");
/// Encoded size of one tag observation without samples: its map, `id`,
/// `epc: {words: [six scalars]}` and `profile: {samples: []}`.
const OBSERVATION_BYTES: usize = CONTAINER
    + field_size("id")
    + key_size("epc")
    + CONTAINER
    + key_size("words")
    + CONTAINER
    + EPC_WORDS * SCALAR
    + key_size("profile")
    + CONTAINER
    + key_size("samples")
    + CONTAINER;

/// Decodes a `Localize` or `IngestReports` payload; `None` when the
/// payload names any other variant.
pub(super) fn decode_hot(payload: &[u8]) -> Option<Result<Request, ProtoError>> {
    let mut decoder = Decoder { bytes: payload, pos: 0 };
    let request = match decoder.variant()? {
        b"Localize" => decoder.localize(),
        b"IngestReports" => decoder.ingest_reports(),
        _ => return None,
    };
    Some(request.and_then(|request| decoder.finish().map(|()| request)))
}

fn malformed(reason: String) -> ProtoError {
    ProtoError::Malformed { reason }
}

/// Checks that the encoded key `bytes` names `name`.
fn check_key(bytes: &[u8], name: &str) -> Result<(), ProtoError> {
    if bytes[..4] != (name.len() as u32).to_le_bytes() || &bytes[4..] != name.as_bytes() {
        return Err(malformed(format!("expected field `{name}`")));
    }
    Ok(())
}

impl<'a> Decoder<'a> {
    /// The name of an externally tagged variant (`{"Variant": ...}`), or
    /// `None` when the payload does not start like one.
    fn variant(&mut self) -> Option<&'a [u8]> {
        if self.u8().ok()? != TAG_MAP || self.u32().ok()? != 1 {
            return None;
        }
        let len = self.u32().ok()? as usize;
        self.take(len).ok()
    }

    /// A tag byte, which must be `expected`.
    fn tag(&mut self, expected: u8, what: &str) -> Result<(), ProtoError> {
        match self.u8()? {
            found if found == expected => Ok(()),
            found => Err(malformed(format!("{what} has tag {found}, expected {expected}"))),
        }
    }

    /// A map header with exactly `fields` entries.
    fn map(&mut self, fields: u32, what: &str) -> Result<(), ProtoError> {
        let header = self.take(CONTAINER)?;
        if header[0] != TAG_MAP || header[1..] != fields.to_le_bytes() {
            return Err(malformed(format!("{what} is not a map of {fields} fields")));
        }
        Ok(())
    }

    /// A map key, which must be `name`.
    fn key(&mut self, name: &str) -> Result<(), ProtoError> {
        check_key(self.take(key_size(name))?, name)
    }

    /// Field `name` holding a scalar tagged `tag`, as its raw 8 bytes.
    fn field(&mut self, name: &str, tag: u8) -> Result<u64, ProtoError> {
        let (key, scalar) = self.take(field_size(name))?.split_at(key_size(name));
        check_key(key, name)?;
        if scalar[0] != tag {
            return Err(malformed(format!("{name} has tag {}, expected {tag}", scalar[0])));
        }
        Ok(u64::from_le_bytes(scalar[1..].try_into().expect("8 bytes")))
    }

    /// Field `name` holding null or a scalar tagged `tag`.
    fn optional_field(&mut self, name: &str, tag: u8) -> Result<Option<u64>, ProtoError> {
        self.key(name)?;
        match self.u8()? {
            TAG_NULL => Ok(None),
            found if found == tag => self.u64().map(Some),
            found => Err(malformed(format!("{name} has tag {found}, expected {tag} or null"))),
        }
    }

    /// Field `name` holding a sequence header whose items take
    /// `item_bytes` each; a count the bytes left cannot hold is
    /// [`ProtoError::Truncated`].
    fn seq_field(&mut self, name: &str, item_bytes: usize) -> Result<usize, ProtoError> {
        self.key(name)?;
        self.tag(TAG_SEQ, name)?;
        let count = self.u32()? as usize;
        if count > self.remaining() / item_bytes {
            return Err(ProtoError::Truncated);
        }
        Ok(count)
    }

    /// `Request::Localize { input, threads }`, after the variant name.
    fn localize(&mut self) -> Result<Request, ProtoError> {
        self.map(2, "Localize")?;
        self.key("input")?;
        self.map(4, "input")?;
        let tags = self.seq_field("observations", OBSERVATION_BYTES)?;
        let mut observations = Vec::with_capacity(tags);
        for _ in 0..tags {
            observations.push(self.observation()?);
        }
        let nominal_speed_mps = f64::from_bits(self.field("nominal_speed_mps", TAG_F64)?);
        let wavelength_m = f64::from_bits(self.field("wavelength_m", TAG_F64)?);
        let perpendicular_distance_m =
            self.optional_field("perpendicular_distance_m", TAG_F64)?.map(f64::from_bits);
        let threads = self.optional_field("threads", TAG_U64)?;
        let input =
            StppInput { observations, nominal_speed_mps, wavelength_m, perpendicular_distance_m };
        Ok(Request::Localize { input, threads })
    }

    /// One [`TagObservations`].
    fn observation(&mut self) -> Result<TagObservations, ProtoError> {
        self.map(3, "observation")?;
        let id = self.field("id", TAG_U64)?;
        self.key("epc")?;
        self.map(1, "epc")?;
        self.key("words")?;
        self.tag(TAG_SEQ, "words")?;
        let count = self.u32()?;
        if count as usize != EPC_WORDS {
            return Err(malformed(format!("EPC has {count} words, expected {EPC_WORDS}")));
        }
        let mut words = [0u16; EPC_WORDS];
        for word in &mut words {
            self.tag(TAG_U64, "EPC word")?;
            let raw = self.u64()?;
            *word = u16::try_from(raw)
                .map_err(|_| malformed(format!("EPC word {raw} does not fit 16 bits")))?;
        }
        self.key("profile")?;
        self.map(1, "profile")?;
        let count = self.seq_field("samples", SAMPLE_BYTES)?;
        let mut samples = Vec::with_capacity(count);
        for _ in 0..count {
            self.map(2, "sample")?;
            let time_s = f64::from_bits(self.field("time_s", TAG_F64)?);
            let phase_rad = f64::from_bits(self.field("phase_rad", TAG_F64)?);
            samples.push(PhaseSample { time_s, phase_rad });
        }
        let epc = Epc::from_words(words);
        Ok(TagObservations { id, epc, profile: PhaseProfile::from_samples(samples) })
    }

    /// `Request::IngestReports { session, reports }`, after the variant
    /// name.
    fn ingest_reports(&mut self) -> Result<Request, ProtoError> {
        self.map(2, "IngestReports")?;
        let session = self.field("session", TAG_U64)?;
        let count = self.seq_field("reports", REPORT_BYTES)?;
        let mut reports = Vec::with_capacity(count);
        for _ in 0..count {
            self.map(3, "report")?;
            let epc_serial = self.field("epc_serial", TAG_U64)?;
            let time_s = f64::from_bits(self.field("time_s", TAG_F64)?);
            let phase_rad = f64::from_bits(self.field("phase_rad", TAG_F64)?);
            reports.push(WireReport { epc_serial, time_s, phase_rad });
        }
        Ok(Request::IngestReports { session, reports })
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use serde::{Serialize, Value};

    use super::*;
    use crate::proto::{decode_tree, encode_frame, encode_value, Message, HEADER_LEN};

    /// The payload of a message's frame.
    fn payload<T: Serialize>(message: &T) -> Vec<u8> {
        encode_frame(message).expect("encode")[HEADER_LEN..].to_vec()
    }

    /// Any `f64` bit pattern, NaNs, infinities and subnormals included.
    fn any_f64() -> impl Strategy<Value = f64> {
        any::<u64>().prop_map(f64::from_bits)
    }

    fn arb_observation() -> impl Strategy<Value = TagObservations> {
        (
            any::<u64>(),
            prop::collection::vec(any::<u16>(), EPC_WORDS),
            prop::collection::vec((any_f64(), any_f64()), 0..400),
        )
            .prop_map(|(id, words, pairs)| TagObservations {
                id,
                epc: Epc::from_words(words.try_into().expect("six words")),
                profile: PhaseProfile::from_samples(
                    pairs
                        .into_iter()
                        .map(|(time_s, phase_rad)| PhaseSample { time_s, phase_rad })
                        .collect(),
                ),
            })
    }

    fn arb_hot_request() -> impl Strategy<Value = Request> {
        prop_oneof![
            (
                prop::collection::vec(arb_observation(), 0..5),
                any_f64(),
                any_f64(),
                prop::option::of(any_f64()),
                prop::option::of(any::<u64>()),
            )
                .prop_map(
                    |(observations, speed, wavelength, perpendicular, threads)| {
                        Request::Localize {
                            input: StppInput {
                                observations,
                                nominal_speed_mps: speed,
                                wavelength_m: wavelength,
                                perpendicular_distance_m: perpendicular,
                            },
                            threads,
                        }
                    }
                ),
            (any::<u64>(), prop::collection::vec((any::<u64>(), any_f64(), any_f64()), 0..600))
                .prop_map(|(session, reports)| Request::IngestReports {
                    session,
                    reports: reports
                        .into_iter()
                        .map(|(epc_serial, time_s, phase_rad)| WireReport {
                            epc_serial,
                            time_s,
                            phase_rad,
                        })
                        .collect(),
                }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn typed_decoder_matches_the_derive_path(request in arb_hot_request()) {
            let bytes = payload(&request);
            let typed = decode_hot(&bytes).expect("a hot frame").expect("typed decode");
            let tree: Request = decode_tree(&bytes).expect("derive decode");
            // Re-encoding compares bit for bit, NaN payloads included.
            prop_assert_eq!(payload(&typed), payload(&tree));
            prop_assert_eq!(payload(&typed), bytes);
        }

        #[test]
        fn whatever_the_typed_decoder_accepts_the_derive_path_reads_the_same(
            request in arb_hot_request(),
            offset in any::<prop::sample::Index>(),
            xor in 1u8..=255,
        ) {
            let mut bytes = payload(&request);
            let i = offset.index(bytes.len());
            bytes[i] ^= xor;
            if let Some(Ok(typed)) = decode_hot(&bytes) {
                let tree: Request = decode_tree(&bytes).expect("the derive path reads it too");
                prop_assert_eq!(payload(&typed), payload(&tree));
            }
        }
    }

    /// A one-tag, three-sample `Localize` request.
    fn localize_request() -> Request {
        let samples = (0..3)
            .map(|k| PhaseSample { time_s: 0.25 * k as f64, phase_rad: 1.5 + k as f64 })
            .collect();
        Request::Localize {
            input: StppInput {
                observations: vec![TagObservations {
                    id: 7,
                    epc: Epc::from_serial(7),
                    profile: PhaseProfile::from_samples(samples),
                }],
                nominal_speed_mps: 0.3,
                wavelength_m: 0.326,
                perpendicular_distance_m: Some(1.4),
            },
            threads: None,
        }
    }

    /// The node at `path` in a tree: map entries by key, sequence items
    /// by index.
    fn node<'v>(mut value: &'v mut Value, path: &[&str]) -> &'v mut Value {
        for step in path {
            value = match value {
                Value::Map(entries) => {
                    &mut entries.iter_mut().find(|(key, _)| key == step).expect("key").1
                }
                Value::Seq(items) => &mut items[step.parse::<usize>().expect("index")],
                other => panic!("no `{step}` in {other:?}"),
            };
        }
        value
    }

    /// Encodes `request` after `edit` changed the node at `path`.
    fn edited(request: &Request, path: &[&str], edit: impl FnOnce(&mut Value)) -> Vec<u8> {
        let mut tree = request.to_value();
        edit(node(&mut tree, path));
        let mut bytes = Vec::new();
        encode_value(&tree, &mut bytes);
        bytes
    }

    const SAMPLE: &[&str] = &["Localize", "input", "observations", "0", "profile", "samples", "1"];
    const EPC_WORDS_PATH: &[&str] = &["Localize", "input", "observations", "0", "epc", "words"];

    fn assert_malformed(bytes: &[u8]) {
        match decode_hot(bytes) {
            Some(Err(ProtoError::Malformed { .. })) => {}
            other => panic!("expected a Malformed error, got {other:?}"),
        }
    }

    #[test]
    fn non_canonical_fields_are_malformed_although_the_derive_path_reads_them() {
        let request = localize_request();
        let reordered = edited(&request, SAMPLE, |sample| {
            let Value::Map(fields) = sample else { panic!("a sample is a map") };
            fields.swap(0, 1);
        });
        let extra = edited(&request, SAMPLE, |sample| {
            let Value::Map(fields) = sample else { panic!("a sample is a map") };
            fields.push(("rssi_dbm".into(), Value::F64(-60.0)));
        });
        let integer_time = edited(&request, &[SAMPLE, &["time_s"]].concat(), |time| {
            *time = Value::U64(2);
        });
        for bytes in [reordered, extra, integer_time] {
            assert_malformed(&bytes);
            assert!(decode_tree::<Request>(&bytes).is_ok(), "the derive path is lenient");
        }
    }

    #[test]
    fn out_of_range_epcs_are_malformed() {
        let request = localize_request();
        let five_words = edited(&request, EPC_WORDS_PATH, |words| {
            let Value::Seq(items) = words else { panic!("EPC words are a sequence") };
            items.pop();
        });
        let wide_word = edited(&request, &[EPC_WORDS_PATH, &["2"]].concat(), |word| {
            *word = Value::U64(0x1_0000);
        });
        for bytes in [five_words, wide_word] {
            assert_malformed(&bytes);
            assert!(decode_tree::<Request>(&bytes).is_err());
        }
    }

    /// Overwrites the `u32` count of the sequence under key `name`.
    fn with_count(mut bytes: Vec<u8>, name: &str, count: u32) -> Vec<u8> {
        let mut key = (name.len() as u32).to_le_bytes().to_vec();
        key.extend_from_slice(name.as_bytes());
        let at = bytes.windows(key.len()).position(|w| w == key).expect("key present");
        let count_at = at + key.len() + 1;
        bytes[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
        bytes
    }

    #[test]
    fn counts_beyond_the_bytes_left_are_truncated_before_allocation() {
        // Reserving u32::MAX samples would ask for 64 GiB and abort the
        // test; the count check comes first.
        let localize = payload(&localize_request());
        let reports = payload(&Request::IngestReports {
            session: 3,
            reports: vec![WireReport { epc_serial: 9, time_s: 0.5, phase_rad: 2.0 }],
        });
        for bytes in [
            with_count(localize.clone(), "samples", u32::MAX),
            with_count(localize, "observations", u32::MAX),
            with_count(reports, "reports", u32::MAX),
        ] {
            assert!(matches!(decode_hot(&bytes), Some(Err(ProtoError::Truncated))));
        }
    }

    #[test]
    fn item_sizes_match_the_encoder() {
        let Request::Localize { input, threads } = localize_request() else { unreachable!() };
        let with = |observations: Vec<TagObservations>| {
            payload(&Request::Localize {
                input: StppInput { observations, ..input.clone() },
                threads,
            })
            .len()
        };
        let mut bare = input.observations[0].clone();
        bare.profile = PhaseProfile::new();
        assert_eq!(with(vec![bare.clone()]) - with(Vec::new()), OBSERVATION_BYTES);
        assert_eq!(with(input.observations.clone()) - with(vec![bare]), 3 * SAMPLE_BYTES);

        let report = WireReport { epc_serial: 1, time_s: 2.0, phase_rad: 3.0 };
        let ingest = |reports| payload(&Request::IngestReports { session: 1, reports }).len();
        assert_eq!(ingest(vec![report; 2]) - ingest(Vec::new()), 2 * REPORT_BYTES);
    }

    #[test]
    fn other_variants_take_the_derive_path() {
        for request in [Request::Stats, Request::Provisional { session: 4 }] {
            assert!(decode_hot(&payload(&request)).is_none());
            assert_eq!(Request::decode_payload(&payload(&request)), Ok(request));
        }
    }
}
