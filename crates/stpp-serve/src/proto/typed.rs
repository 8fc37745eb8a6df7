//! The typed reader for the hot frames.
//!
//! The two hot requests, `Localize` and `IngestReports`, carry one small
//! map per phase sample or report; the hot responses carry one map per
//! tag: `Localized` and `Flushed` a [`LocalizationResponse`], and
//! `Provisional` a [`ProvisionalOrdering`]. Through the
//! [`Value`](serde::Value) tree each of those maps costs several heap
//! allocations (the map and its owned key strings), which on a shelf
//! sweep adds up to as much time as localizing it and on a streaming
//! session to more than the poll it answers. This reader walks the same
//! bytes straight into the typed structs.
//!
//! It accepts only the canonical layout every encoder in this crate
//! writes: exactly the declared fields, in declaration order, with every
//! float tagged as a float. Anything else (reordered or extra fields, an
//! integer-tagged float, a count larger than the bytes left) is a typed
//! [`ProtoError`], and every count is checked against the bytes left
//! before anything is allocated for it. On the bytes it accepts it
//! returns exactly what the derive path returns.

use rfid_gen2::Epc;
use stpp_core::{
    BankCacheStats, PhaseProfile, PhaseSample, StppInput, StppResult, TagObservations,
    TagVZoneSummary,
};

use super::{
    Decoder, ProtoError, Request, Response, WireReport, TAG_F64, TAG_FALSE, TAG_MAP, TAG_NULL,
    TAG_SEQ, TAG_TRUE, TAG_U64,
};
use crate::service::{LocalizationResponse, RequestMetrics};
use crate::session::{ProvisionalOrdering, ProvisionalTag};

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
/// Encoded size of an EPC: `{words: [six scalars]}`.
const EPC_BYTES: usize = CONTAINER + key_size("words") + CONTAINER + EPC_WORDS * SCALAR;
/// Encoded size of one tag observation without samples: its map, `id`,
/// `epc` and `profile: {samples: []}`.
const OBSERVATION_BYTES: usize = CONTAINER
    + field_size("id")
    + key_size("epc")
    + EPC_BYTES
    + key_size("profile")
    + CONTAINER
    + key_size("samples")
    + CONTAINER;
/// Encoded size of one V-zone summary without coarse segments.
const SUMMARY_BYTES: usize = CONTAINER
    + field_size("id")
    + field_size("nadir_time_s")
    + field_size("nadir_phase")
    + key_size("coarse")
    + CONTAINER
    + field_size("vzone_duration_s");
/// Encoded size of one provisional tag without a match cost.
const PROVISIONAL_TAG_BYTES: usize = CONTAINER
    + key_size("epc")
    + EPC_BYTES
    + field_size("nadir_time_s")
    + field_size("confidence")
    + field_size("samples")
    + key_size("match_cost")
    + 1;

/// Decodes a `Localize` or `IngestReports` payload; `None` when the
/// payload names any other variant.
pub(super) fn decode_hot_request(payload: &[u8]) -> Option<Result<Request, ProtoError>> {
    decode_variant(payload, |decoder, name| match name {
        b"Localize" => Some(decoder.localize()),
        b"IngestReports" => Some(decoder.ingest_reports()),
        _ => None,
    })
}

/// Decodes a `Localized`, `Flushed` or `Provisional` payload; `None` when
/// the payload names any other variant.
pub(super) fn decode_hot_response(payload: &[u8]) -> Option<Result<Response, ProtoError>> {
    decode_variant(payload, |decoder, name| match name {
        b"Localized" => Some(decoder.localized()),
        b"Flushed" => Some(decoder.flushed()),
        b"Provisional" => Some(decoder.provisional()),
        _ => None,
    })
}

/// Reads the variant name of an externally tagged payload and hands the
/// rest to `read`, which returns `None` for a variant it leaves to the
/// derive path. A read message must use up the payload.
fn decode_variant<T>(
    payload: &[u8],
    read: impl FnOnce(&mut Decoder<'_>, &[u8]) -> Option<Result<T, ProtoError>>,
) -> Option<Result<T, ProtoError>> {
    let mut decoder = Decoder { bytes: payload, pos: 0 };
    let name = decoder.variant()?;
    let message = read(&mut decoder, name)?;
    Some(message.and_then(|message| decoder.finish().map(|()| message)))
}

fn malformed(reason: String) -> ProtoError {
    ProtoError::Malformed { reason }
}

/// Checks that the encoded key `bytes` names `name`.
#[inline]
fn check_key(bytes: &[u8], name: &str) -> Result<(), ProtoError> {
    if bytes[..4] != (name.len() as u32).to_le_bytes() || &bytes[4..] != name.as_bytes() {
        return Err(malformed(format!("expected field `{name}`")));
    }
    Ok(())
}

// The per-item helpers carry `#[inline]`: they run once per sample, report
// or tag, and because every reader here shares them the inliner otherwise
// keeps them out of line, which made `IngestReports` decoding measurably
// slower.
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
    #[inline]
    fn map(&mut self, fields: u32, what: &str) -> Result<(), ProtoError> {
        let header = self.take(CONTAINER)?;
        if header[0] != TAG_MAP || header[1..] != fields.to_le_bytes() {
            return Err(malformed(format!("{what} is not a map of {fields} fields")));
        }
        Ok(())
    }

    /// A map key, which must be `name`.
    #[inline]
    fn key(&mut self, name: &str) -> Result<(), ProtoError> {
        check_key(self.take(key_size(name))?, name)
    }

    /// A scalar tagged `tag`, as its raw 8 bytes.
    #[inline]
    fn scalar(&mut self, tag: u8, what: &str) -> Result<u64, ProtoError> {
        let scalar = self.take(SCALAR)?;
        if scalar[0] != tag {
            return Err(malformed(format!("{what} has tag {}, expected {tag}", scalar[0])));
        }
        Ok(u64::from_le_bytes(scalar[1..].try_into().expect("8 bytes")))
    }

    /// Field `name` holding a scalar tagged `tag`, as its raw 8 bytes.
    #[inline]
    fn field(&mut self, name: &str, tag: u8) -> Result<u64, ProtoError> {
        let (key, scalar) = self.take(field_size(name))?.split_at(key_size(name));
        check_key(key, name)?;
        if scalar[0] != tag {
            return Err(malformed(format!("{name} has tag {}, expected {tag}", scalar[0])));
        }
        Ok(u64::from_le_bytes(scalar[1..].try_into().expect("8 bytes")))
    }

    /// Field `name` holding a float.
    #[inline]
    fn f64_field(&mut self, name: &str) -> Result<f64, ProtoError> {
        self.field(name, TAG_F64).map(f64::from_bits)
    }

    /// Field `name` holding an unsigned integer that fits `usize`.
    fn usize_field(&mut self, name: &str) -> Result<usize, ProtoError> {
        let raw = self.field(name, TAG_U64)?;
        usize::try_from(raw).map_err(|_| malformed(format!("{name} {raw} does not fit usize")))
    }

    /// Field `name` holding a boolean.
    fn bool_field(&mut self, name: &str) -> Result<bool, ProtoError> {
        self.key(name)?;
        match self.u8()? {
            TAG_FALSE => Ok(false),
            TAG_TRUE => Ok(true),
            found => Err(malformed(format!("{name} has tag {found}, expected a boolean"))),
        }
    }

    /// Consumes a null and returns `true`, or leaves any other value in
    /// place and returns `false`.
    fn null(&mut self) -> Result<bool, ProtoError> {
        let is_null = *self.bytes.get(self.pos).ok_or(ProtoError::Truncated)? == TAG_NULL;
        self.pos += usize::from(is_null);
        Ok(is_null)
    }

    /// Field `name` holding null or a scalar tagged `tag`.
    fn optional_field(&mut self, name: &str, tag: u8) -> Result<Option<u64>, ProtoError> {
        self.key(name)?;
        if self.null()? {
            return Ok(None);
        }
        self.scalar(tag, name).map(Some)
    }

    /// Field `name` holding a sequence header whose items take at least
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

    /// Field `name` holding a sequence of scalars tagged `tag`.
    fn scalar_seq(&mut self, name: &str, tag: u8) -> Result<Vec<u64>, ProtoError> {
        let count = self.seq_field(name, SCALAR)?;
        (0..count).map(|_| self.scalar(tag, name)).collect()
    }

    /// An [`Epc`]: a map holding six 16-bit words.
    fn epc(&mut self) -> Result<Epc, ProtoError> {
        self.map(1, "epc")?;
        self.key("words")?;
        self.tag(TAG_SEQ, "words")?;
        let count = self.u32()?;
        if count as usize != EPC_WORDS {
            return Err(malformed(format!("EPC has {count} words, expected {EPC_WORDS}")));
        }
        let mut words = [0u16; EPC_WORDS];
        for word in &mut words {
            let raw = self.scalar(TAG_U64, "EPC word")?;
            *word = u16::try_from(raw)
                .map_err(|_| malformed(format!("EPC word {raw} does not fit 16 bits")))?;
        }
        Ok(Epc::from_words(words))
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
        let nominal_speed_mps = self.f64_field("nominal_speed_mps")?;
        let wavelength_m = self.f64_field("wavelength_m")?;
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
        let epc = self.epc()?;
        self.key("profile")?;
        self.map(1, "profile")?;
        let count = self.seq_field("samples", SAMPLE_BYTES)?;
        let mut samples = Vec::with_capacity(count);
        for _ in 0..count {
            self.map(2, "sample")?;
            let time_s = self.f64_field("time_s")?;
            let phase_rad = self.f64_field("phase_rad")?;
            samples.push(PhaseSample { time_s, phase_rad });
        }
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
            let time_s = self.f64_field("time_s")?;
            let phase_rad = self.f64_field("phase_rad")?;
            reports.push(WireReport { epc_serial, time_s, phase_rad });
        }
        Ok(Request::IngestReports { session, reports })
    }

    /// `Response::Localized { response }`, after the variant name.
    fn localized(&mut self) -> Result<Response, ProtoError> {
        self.map(1, "Localized")?;
        self.key("response")?;
        Ok(Response::Localized { response: self.localization()? })
    }

    /// `Response::Flushed { session, outcome }`, after the variant name.
    fn flushed(&mut self) -> Result<Response, ProtoError> {
        self.map(2, "Flushed")?;
        let session = self.field("session", TAG_U64)?;
        self.key("outcome")?;
        let outcome = if self.null()? { None } else { Some(self.localization()?) };
        Ok(Response::Flushed { session, outcome })
    }

    /// One [`LocalizationResponse`].
    fn localization(&mut self) -> Result<LocalizationResponse, ProtoError> {
        self.map(2, "LocalizationResponse")?;
        self.key("result")?;
        self.map(4, "result")?;
        let order_x = self.scalar_seq("order_x", TAG_U64)?;
        let order_y = self.scalar_seq("order_y", TAG_U64)?;
        let count = self.seq_field("summaries", SUMMARY_BYTES)?;
        let mut summaries = Vec::with_capacity(count);
        for _ in 0..count {
            summaries.push(self.summary()?);
        }
        let undetected = self.scalar_seq("undetected", TAG_U64)?;
        self.key("metrics")?;
        let metrics = self.metrics()?;
        let result = StppResult { order_x, order_y, summaries, undetected };
        Ok(LocalizationResponse { result, metrics })
    }

    /// One [`TagVZoneSummary`].
    fn summary(&mut self) -> Result<TagVZoneSummary, ProtoError> {
        self.map(5, "summary")?;
        let id = self.field("id", TAG_U64)?;
        let nadir_time_s = self.f64_field("nadir_time_s")?;
        let nadir_phase = self.f64_field("nadir_phase")?;
        let coarse = self.scalar_seq("coarse", TAG_F64)?.into_iter().map(f64::from_bits).collect();
        let vzone_duration_s = self.f64_field("vzone_duration_s")?;
        Ok(TagVZoneSummary { id, nadir_time_s, nadir_phase, coarse, vzone_duration_s })
    }

    /// One [`RequestMetrics`].
    fn metrics(&mut self) -> Result<RequestMetrics, ProtoError> {
        self.map(10, "metrics")?;
        let tags = self.usize_field("tags")?;
        let localized = self.usize_field("localized")?;
        let undetected = self.usize_field("undetected")?;
        let threads = self.usize_field("threads")?;
        let geometry_cache_hit = self.bool_field("geometry_cache_hit")?;
        self.key("bank_cache")?;
        self.map(3, "bank_cache")?;
        let bank_cache = BankCacheStats {
            hits: self.field("hits", TAG_U64)?,
            misses: self.field("misses", TAG_U64)?,
            builds: self.field("builds", TAG_U64)?,
        };
        Ok(RequestMetrics {
            tags,
            localized,
            undetected,
            threads,
            geometry_cache_hit,
            bank_cache,
            prepare_seconds: self.f64_field("prepare_seconds")?,
            detect_seconds: self.f64_field("detect_seconds")?,
            order_seconds: self.f64_field("order_seconds")?,
            total_seconds: self.f64_field("total_seconds")?,
        })
    }

    /// `Response::Provisional { session, ordering }`, after the variant
    /// name.
    fn provisional(&mut self) -> Result<Response, ProtoError> {
        self.map(2, "Provisional")?;
        let session = self.field("session", TAG_U64)?;
        self.key("ordering")?;
        self.map(3, "ordering")?;
        let count = self.seq_field("order_x", PROVISIONAL_TAG_BYTES)?;
        let mut order_x = Vec::with_capacity(count);
        for _ in 0..count {
            self.map(5, "provisional tag")?;
            self.key("epc")?;
            let epc = self.epc()?;
            let nadir_time_s = self.f64_field("nadir_time_s")?;
            let confidence = self.f64_field("confidence")?;
            let samples = self.field("samples", TAG_U64)?;
            let match_cost = self.optional_field("match_cost", TAG_F64)?.map(f64::from_bits);
            order_x.push(ProvisionalTag { epc, nadir_time_s, confidence, samples, match_cost });
        }
        let tags_estimated = self.field("tags_estimated", TAG_U64)?;
        let tags_pending = self.field("tags_pending", TAG_U64)?;
        let ordering = ProvisionalOrdering { order_x, tags_estimated, tags_pending };
        Ok(Response::Provisional { session, ordering })
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

    /// The payload the `Value` tree encodes for a message: the oracle of
    /// the direct writer.
    fn tree_payload<T: Serialize>(message: &T) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_value(&message.to_value(), &mut bytes);
        bytes
    }

    /// Any `f64` bit pattern, NaNs, infinities and subnormals included.
    fn any_f64() -> impl Strategy<Value = f64> {
        any::<u64>().prop_map(f64::from_bits)
    }

    fn arb_observation() -> impl Strategy<Value = TagObservations> {
        (any::<u64>(), arb_epc(), prop::collection::vec((any_f64(), any_f64()), 0..400)).prop_map(
            |(id, epc, pairs)| TagObservations {
                id,
                epc,
                profile: PhaseProfile::from_samples(
                    pairs
                        .into_iter()
                        .map(|(time_s, phase_rad)| PhaseSample { time_s, phase_rad })
                        .collect(),
                ),
            },
        )
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

    fn arb_epc() -> impl Strategy<Value = Epc> {
        prop::collection::vec(any::<u16>(), EPC_WORDS)
            .prop_map(|words| Epc::from_words(words.try_into().expect("six words")))
    }

    fn arb_summary() -> impl Strategy<Value = TagVZoneSummary> {
        (any::<u64>(), any_f64(), any_f64(), prop::collection::vec(any_f64(), 0..12), any_f64())
            .prop_map(|(id, nadir_time_s, nadir_phase, coarse, vzone_duration_s)| TagVZoneSummary {
                id,
                nadir_time_s,
                nadir_phase,
                coarse,
                vzone_duration_s,
            })
    }

    fn arb_metrics() -> impl Strategy<Value = RequestMetrics> {
        (
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()),
            (any::<u64>(), any::<u64>(), any::<u64>()),
            (any_f64(), any_f64(), any_f64(), any_f64()),
        )
            .prop_map(|(counts, (hits, misses, builds), seconds)| {
                let (tags, localized, undetected, threads, geometry_cache_hit) = counts;
                let (prepare_seconds, detect_seconds, order_seconds, total_seconds) = seconds;
                RequestMetrics {
                    tags: tags as usize,
                    localized: localized as usize,
                    undetected: undetected as usize,
                    threads: threads as usize,
                    geometry_cache_hit,
                    bank_cache: BankCacheStats { hits, misses, builds },
                    prepare_seconds,
                    detect_seconds,
                    order_seconds,
                    total_seconds,
                }
            })
    }

    fn arb_localization() -> impl Strategy<Value = LocalizationResponse> {
        let ids = || prop::collection::vec(any::<u64>(), 0..40);
        (ids(), ids(), prop::collection::vec(arb_summary(), 0..40), ids(), arb_metrics()).prop_map(
            |(order_x, order_y, summaries, undetected, metrics)| LocalizationResponse {
                result: StppResult { order_x, order_y, summaries, undetected },
                metrics,
            },
        )
    }

    fn arb_provisional_tag() -> impl Strategy<Value = ProvisionalTag> {
        (arb_epc(), any_f64(), any_f64(), any::<u64>(), prop::option::of(any_f64())).prop_map(
            |(epc, nadir_time_s, confidence, samples, match_cost)| ProvisionalTag {
                epc,
                nadir_time_s,
                confidence,
                samples,
                match_cost,
            },
        )
    }

    fn arb_hot_response() -> impl Strategy<Value = Response> {
        prop_oneof![
            arb_localization().prop_map(|response| Response::Localized { response }),
            (any::<u64>(), prop::option::of(arb_localization()))
                .prop_map(|(session, outcome)| Response::Flushed { session, outcome }),
            (
                any::<u64>(),
                prop::collection::vec(arb_provisional_tag(), 0..60),
                any::<u64>(),
                any::<u64>()
            )
                .prop_map(|(session, order_x, tags_estimated, tags_pending)| {
                    Response::Provisional {
                        session,
                        ordering: ProvisionalOrdering { order_x, tags_estimated, tags_pending },
                    }
                }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn typed_decoder_matches_the_derive_path(request in arb_hot_request()) {
            let bytes = payload(&request);
            prop_assert_eq!(&bytes, &tree_payload(&request));
            let typed = decode_hot_request(&bytes).expect("a hot frame").expect("typed decode");
            let tree: Request = decode_tree(&bytes).expect("derive decode");
            // Re-encoding compares bit for bit, NaN payloads included.
            prop_assert_eq!(payload(&typed), payload(&tree));
            prop_assert_eq!(payload(&typed), bytes);
        }

        #[test]
        fn typed_response_decoder_matches_the_derive_path(response in arb_hot_response()) {
            let bytes = payload(&response);
            prop_assert_eq!(&bytes, &tree_payload(&response));
            let typed = decode_hot_response(&bytes).expect("a hot frame").expect("typed decode");
            let tree: Response = decode_tree(&bytes).expect("derive decode");
            prop_assert_eq!(payload(&typed), payload(&tree));
            prop_assert_eq!(payload(&typed), bytes);
        }

        #[test]
        fn whatever_the_typed_response_decoder_accepts_the_derive_path_reads_the_same(
            response in arb_hot_response(),
            offset in any::<prop::sample::Index>(),
            xor in 1u8..=255,
        ) {
            let mut bytes = payload(&response);
            let i = offset.index(bytes.len());
            bytes[i] ^= xor;
            if let Some(Ok(typed)) = decode_hot_response(&bytes) {
                let tree: Response = decode_tree(&bytes).expect("the derive path reads it too");
                prop_assert_eq!(payload(&typed), payload(&tree));
            }
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
            if let Some(Ok(typed)) = decode_hot_request(&bytes) {
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

    /// Encodes `message` after `edit` changed the node at `path`.
    fn edited<T: Serialize>(message: &T, path: &[&str], edit: impl FnOnce(&mut Value)) -> Vec<u8> {
        let mut tree = message.to_value();
        edit(node(&mut tree, path));
        let mut bytes = Vec::new();
        encode_value(&tree, &mut bytes);
        bytes
    }

    const SAMPLE: &[&str] = &["Localize", "input", "observations", "0", "profile", "samples", "1"];
    const EPC_WORDS_PATH: &[&str] = &["Localize", "input", "observations", "0", "epc", "words"];

    fn assert_malformed(bytes: &[u8]) {
        match decode_hot_request(bytes) {
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
            assert!(matches!(decode_hot_request(&bytes), Some(Err(ProtoError::Truncated))));
        }
        let localized = payload(&Response::Localized { response: localization_response() });
        let provisional = payload(&provisional_response());
        for bytes in [
            with_count(localized.clone(), "order_x", u32::MAX),
            with_count(localized.clone(), "summaries", u32::MAX),
            with_count(localized.clone(), "coarse", u32::MAX),
            with_count(localized, "undetected", u32::MAX),
            with_count(provisional, "order_x", u32::MAX),
        ] {
            assert!(matches!(decode_hot_response(&bytes), Some(Err(ProtoError::Truncated))));
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

        let response = localization_response();
        let with_summaries = |summaries: Vec<TagVZoneSummary>| {
            let result = StppResult { summaries, ..response.result.clone() };
            payload(&LocalizationResponse { result, ..response.clone() }).len()
        };
        let mut bare = response.result.summaries[0].clone();
        bare.coarse.clear();
        assert_eq!(
            with_summaries(vec![bare.clone(); 2]) - with_summaries(Vec::new()),
            2 * SUMMARY_BYTES
        );

        let Response::Provisional { ordering, .. } = provisional_response() else { unreachable!() };
        let tag = ProvisionalTag { match_cost: None, ..ordering.order_x[0] };
        let with_tags =
            |order_x| payload(&ProvisionalOrdering { order_x, ..ordering.clone() }).len();
        assert_eq!(with_tags(vec![tag; 3]) - with_tags(Vec::new()), 3 * PROVISIONAL_TAG_BYTES);
    }

    #[test]
    fn other_variants_take_the_derive_path() {
        for request in [Request::Stats, Request::Provisional { session: 4 }] {
            assert!(decode_hot_request(&payload(&request)).is_none());
            assert_eq!(Request::decode_payload(&payload(&request)), Ok(request));
        }
        for response in [Response::Busy { depth: 3 }, Response::Ingested { session: 1, pending: 2 }]
        {
            assert!(decode_hot_response(&payload(&response)).is_none());
            assert_eq!(Response::decode_payload(&payload(&response)), Ok(response));
        }
    }

    /// A two-tag localization answer.
    fn localization_response() -> LocalizationResponse {
        let summary = |id: u64| TagVZoneSummary {
            id,
            nadir_time_s: 1.0 + id as f64,
            nadir_phase: 0.5,
            coarse: vec![0.25, 0.75],
            vzone_duration_s: 0.4,
        };
        LocalizationResponse {
            result: StppResult {
                order_x: vec![1, 0],
                order_y: vec![0, 1],
                summaries: vec![summary(0), summary(1)],
                undetected: vec![2],
            },
            metrics: RequestMetrics {
                tags: 3,
                localized: 2,
                undetected: 1,
                threads: 1,
                geometry_cache_hit: false,
                bank_cache: BankCacheStats { hits: 0, misses: 2, builds: 2 },
                prepare_seconds: 1e-4,
                detect_seconds: 2e-3,
                order_seconds: 1e-5,
                total_seconds: 2.2e-3,
            },
        }
    }

    /// A one-tag provisional answer.
    fn provisional_response() -> Response {
        let tag = ProvisionalTag {
            epc: Epc::from_serial(4),
            nadir_time_s: 2.5,
            confidence: 0.5,
            samples: 40,
            match_cost: Some(0.125),
        };
        Response::Provisional {
            session: 6,
            ordering: ProvisionalOrdering {
                order_x: vec![tag],
                tags_estimated: 1,
                tags_pending: 0,
            },
        }
    }

    fn assert_malformed_response(bytes: &[u8]) {
        match decode_hot_response(bytes) {
            Some(Err(ProtoError::Malformed { .. })) => {}
            other => panic!("expected a Malformed error, got {other:?}"),
        }
    }

    #[test]
    fn non_canonical_response_fields_are_malformed_although_the_derive_path_reads_them() {
        let localized = Response::Localized { response: localization_response() };
        let metrics: &[&str] = &["Localized", "response", "metrics"];
        let integer_seconds = edited(&localized, &[metrics, &["total_seconds"]].concat(), |x| {
            *x = Value::U64(2);
        });
        let integer_coarse = edited(
            &localized,
            &["Localized", "response", "result", "summaries", "1", "coarse", "0"],
            |x| *x = Value::I64(-1),
        );
        let reordered = edited(&localized, metrics, |fields| {
            let Value::Map(fields) = fields else { panic!("metrics are a map") };
            fields.swap(0, 1);
        });
        let extra = edited(&provisional_response(), &["Provisional", "ordering"], |fields| {
            let Value::Map(fields) = fields else { panic!("an ordering is a map") };
            fields.push(("tags_lost".into(), Value::U64(0)));
        });
        let integer_cost = edited(
            &provisional_response(),
            &["Provisional", "ordering", "order_x", "0", "match_cost"],
            |x| *x = Value::U64(1),
        );
        for bytes in [integer_seconds, integer_coarse, reordered, extra, integer_cost] {
            assert_malformed_response(&bytes);
            assert!(decode_tree::<Response>(&bytes).is_ok(), "the derive path is lenient");
        }
    }

    #[test]
    fn a_non_boolean_cache_hit_is_malformed() {
        let localized = Response::Localized { response: localization_response() };
        let bytes =
            edited(&localized, &["Localized", "response", "metrics", "geometry_cache_hit"], |x| {
                *x = Value::U64(1)
            });
        assert_malformed_response(&bytes);
        assert!(decode_tree::<Response>(&bytes).is_err());
    }
}
