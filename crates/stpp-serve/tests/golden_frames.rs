//! Golden wire frames: one frame of every `Request` and `Response`
//! variant, with the exact bytes checked in as `golden_frames.hex`.
//!
//! The other byte-identity checks compare two encoders of the same build
//! with each other; only bytes recorded from an earlier build pin the
//! wire itself. The fixture was written by the `Value`-tree codec, so
//! these tests show that the direct encoder and the typed decoders speak
//! exactly the protocol-version-1 layout it did.
//!
//! The payloads are deliberately awkward: NaNs with payload bits, −0.0,
//! subnormals, `None` next to `Some`, empty next to multi-item sequences
//! and a multi-byte UTF-8 string.
//!
//! ```text
//! cargo test -p stpp-serve --test golden_frames
//! ```

use rfid_gen2::Epc;
use stpp_core::{
    BankCacheStats, DetectError, LocalizationError, PhaseProfile, PhaseSample, StppInput,
    StppResult, TagObservations, TagVZoneSummary,
};
use stpp_serve::proto::{decode_frame, encode_frame, HealthReport, Request, Response};
use stpp_serve::{
    IngestError, LocalizationResponse, ProvisionalOrdering, ProvisionalTag, RequestMetrics,
    ServerStats, ServiceStats, SessionGeometry, WireReport,
};

/// `name hex` lines, one frame each; `#` starts a comment line.
const FIXTURE: &str = include_str!("golden_frames.hex");

/// A quiet NaN with payload bits set.
const NAN: u64 = 0x7ff8_0000_0000_0a5a;
/// A negative signalling-pattern NaN.
const NEG_NAN: u64 = 0xfff4_0000_0000_0001;
/// The smallest positive subnormal.
const SUBNORMAL: u64 = 0x0000_0000_0000_0001;
/// The bits of −0.0.
const NEG_ZERO: u64 = 0x8000_0000_0000_0000;

fn bits(raw: u64) -> f64 {
    f64::from_bits(raw)
}

enum Frame {
    Request(Request),
    Response(Response),
}

impl Frame {
    fn encode(&self) -> Vec<u8> {
        match self {
            Frame::Request(request) => encode_frame(request),
            Frame::Response(response) => encode_frame(response),
        }
        .expect("encode")
    }

    /// Decodes `bytes` as the same message type and encodes the result
    /// again: equal bytes mean every float came back bit for bit.
    fn reencode_decoded(&self, bytes: &[u8]) -> Vec<u8> {
        let (again, consumed) = match self {
            Frame::Request(_) => {
                let (request, consumed) = decode_frame::<Request>(bytes).expect("decode request");
                (encode_frame(&request), consumed)
            }
            Frame::Response(_) => {
                let (response, consumed) =
                    decode_frame::<Response>(bytes).expect("decode response");
                (encode_frame(&response), consumed)
            }
        };
        assert_eq!(consumed, bytes.len(), "a golden frame is decoded whole");
        again.expect("re-encode")
    }

    fn debug(&self) -> String {
        match self {
            Frame::Request(request) => format!("{request:?}"),
            Frame::Response(response) => format!("{response:?}"),
        }
    }

    fn debug_decoded(&self, bytes: &[u8]) -> String {
        match self {
            Frame::Request(_) => format!("{:?}", decode_frame::<Request>(bytes).expect("decode").0),
            Frame::Response(_) => {
                format!("{:?}", decode_frame::<Response>(bytes).expect("decode").0)
            }
        }
    }
}

fn samples(pairs: &[(f64, f64)]) -> PhaseProfile {
    PhaseProfile::from_samples(
        pairs.iter().map(|&(time_s, phase_rad)| PhaseSample { time_s, phase_rad }).collect(),
    )
}

fn localize() -> Request {
    Request::Localize {
        input: StppInput {
            observations: vec![
                TagObservations {
                    id: 7,
                    epc: Epc::from_serial(7),
                    profile: samples(&[
                        (0.0, bits(NEG_ZERO)),
                        (bits(SUBNORMAL), bits(NAN)),
                        (0.25, 6.25),
                    ]),
                },
                TagObservations {
                    id: u64::MAX,
                    epc: Epc::from_words([0xffff, 0, 1, 2, 3, 0xabcd]),
                    profile: PhaseProfile::new(),
                },
            ],
            nominal_speed_mps: 0.3,
            wavelength_m: 0.326,
            perpendicular_distance_m: None,
        },
        threads: Some(3),
    }
}

fn reports() -> Vec<WireReport> {
    vec![
        WireReport { epc_serial: 1, time_s: bits(SUBNORMAL), phase_rad: bits(NEG_ZERO) },
        WireReport { epc_serial: 2, time_s: 0.5, phase_rad: bits(NAN) },
        WireReport { epc_serial: u64::MAX, time_s: 1e300, phase_rad: 3.5 },
    ]
}

/// A three-tag answer: one summary with no coarse segments, one with
/// NaN and −0.0 among them, timing fields holding the awkward floats.
fn localization() -> LocalizationResponse {
    LocalizationResponse {
        result: StppResult {
            order_x: vec![2, 0, 1],
            order_y: vec![0, 1, 2],
            summaries: vec![
                TagVZoneSummary {
                    id: 0,
                    nadir_time_s: 1.25,
                    nadir_phase: bits(NEG_ZERO),
                    coarse: vec![0.5, 1.5, 2.5],
                    vzone_duration_s: 0.75,
                },
                TagVZoneSummary {
                    id: 1,
                    nadir_time_s: bits(SUBNORMAL),
                    nadir_phase: 4.0,
                    coarse: Vec::new(),
                    vzone_duration_s: 0.0,
                },
                TagVZoneSummary {
                    id: 2,
                    nadir_time_s: 0.125,
                    nadir_phase: bits(NEG_NAN),
                    coarse: vec![bits(NAN), bits(NEG_ZERO)],
                    vzone_duration_s: f64::INFINITY,
                },
            ],
            undetected: vec![9],
        },
        metrics: RequestMetrics {
            tags: 4,
            localized: 3,
            undetected: 1,
            threads: 2,
            geometry_cache_hit: true,
            bank_cache: BankCacheStats { hits: 5, misses: 1, builds: 1 },
            prepare_seconds: 1.5e-4,
            detect_seconds: bits(NEG_ZERO),
            order_seconds: bits(SUBNORMAL),
            total_seconds: bits(NAN),
        },
    }
}

fn provisional() -> ProvisionalOrdering {
    ProvisionalOrdering {
        order_x: vec![
            ProvisionalTag {
                epc: Epc::from_serial(3),
                nadir_time_s: bits(NEG_ZERO),
                confidence: 0.625,
                samples: 311,
                match_cost: Some(bits(SUBNORMAL)),
            },
            ProvisionalTag {
                epc: Epc::from_words([1, 2, 3, 4, 5, 6]),
                nadir_time_s: 12.5,
                confidence: 0.0,
                samples: 0,
                match_cost: None,
            },
            ProvisionalTag {
                epc: Epc::from_serial(u64::MAX),
                nadir_time_s: bits(NAN),
                confidence: 1.0,
                samples: u64::MAX,
                match_cost: Some(bits(NEG_NAN)),
            },
        ],
        tags_estimated: 3,
        tags_pending: 2,
    }
}

/// Every frame of the fixture, by name.
fn frames() -> Vec<(&'static str, Frame)> {
    use Frame::{Request as Req, Response as Resp};
    vec![
        ("Request::Localize", Req(localize())),
        (
            "Request::OpenSession",
            Req(Request::OpenSession {
                geometry: SessionGeometry {
                    nominal_speed_mps: 0.1,
                    wavelength_m: bits(NEG_ZERO),
                    perpendicular_distance_m: Some(bits(NAN)),
                },
                quiescence_s: None,
            }),
        ),
        ("Request::IngestReports", Req(Request::IngestReports { session: 12, reports: reports() })),
        (
            "Request::IngestReports/empty",
            Req(Request::IngestReports { session: 0, reports: vec![] }),
        ),
        ("Request::FlushSession", Req(Request::FlushSession { session: 12, finish: true })),
        ("Request::Provisional", Req(Request::Provisional { session: 12 })),
        ("Request::Stats", Req(Request::Stats)),
        ("Request::Pause", Req(Request::Pause { seconds: bits(SUBNORMAL) })),
        ("Request::Shutdown", Req(Request::Shutdown)),
        ("Request::Drain", Req(Request::Drain)),
        ("Request::Health", Req(Request::Health)),
        ("Request::Poison", Req(Request::Poison)),
        ("Response::Localized", Resp(Response::Localized { response: localization() })),
        ("Response::Busy", Resp(Response::Busy { depth: 8 })),
        (
            "Response::Rejected",
            Resp(Response::Rejected {
                error: LocalizationError::MalformedProfile {
                    id: 3,
                    error: DetectError::UnsortedSamples { index: 17 },
                },
            }),
        ),
        (
            "Response::Rejected/InvalidGeometry",
            Resp(Response::Rejected {
                error: LocalizationError::InvalidGeometry("speed must be positive".into()),
            }),
        ),
        (
            "Response::Rejected/NoDetections",
            Resp(Response::Rejected { error: LocalizationError::NoDetections }),
        ),
        ("Response::SessionOpened", Resp(Response::SessionOpened { session: 12 })),
        ("Response::Ingested", Resp(Response::Ingested { session: 12, pending: 3 })),
        (
            "Response::IngestRejected",
            Resp(Response::IngestRejected {
                session: 12,
                error: IngestError::SessionFull { epc: Epc::from_serial(5), limit: 1000 },
            }),
        ),
        (
            "Response::Flushed",
            Resp(Response::Flushed { session: 12, outcome: Some(localization()) }),
        ),
        ("Response::Flushed/empty", Resp(Response::Flushed { session: 12, outcome: None })),
        ("Response::UnknownSession", Resp(Response::UnknownSession { session: u64::MAX })),
        (
            "Response::Provisional",
            Resp(Response::Provisional { session: 12, ordering: provisional() }),
        ),
        (
            "Response::Provisional/empty",
            Resp(Response::Provisional { session: 1, ordering: ProvisionalOrdering::default() }),
        ),
        (
            "Response::Stats",
            Resp(Response::Stats {
                service: ServiceStats {
                    requests: 40,
                    geometry_hits: 38,
                    geometry_misses: 2,
                    sessions_opened: 1,
                    ..ServiceStats::default()
                },
                server: ServerStats {
                    queue_depth: 64,
                    pool_workers: 2,
                    connections: 3,
                    requests: 41,
                    connection_rejections: 1,
                    ..ServerStats::default()
                },
            }),
        ),
        ("Response::Paused", Resp(Response::Paused)),
        ("Response::ShuttingDown", Resp(Response::ShuttingDown)),
        ("Response::Draining", Resp(Response::Draining)),
        (
            "Response::Health",
            Resp(Response::Health {
                report: HealthReport {
                    uptime_seconds: 12.5,
                    draining: true,
                    in_flight: 1,
                    queue_depth: 64,
                    sessions_open: 2,
                    sessions_reaped: 0,
                    requests: 41,
                    connections_open: 3,
                    connection_rejections: 0,
                },
            }),
        ),
        (
            "Response::InternalError",
            Resp(Response::InternalError { reason: "handler panicked: größe ≠ 0".into() }),
        ),
        ("Response::TooManyConnections", Resp(Response::TooManyConnections { limit: 64 })),
        ("Response::Redirect", Resp(Response::Redirect { shard: 1 })),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    assert!(text.len().is_multiple_of(2), "odd hex length");
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("hex digit"))
        .collect()
}

/// The fixture's `(name, bytes)` entries, in file order.
fn fixture() -> Vec<(&'static str, Vec<u8>)> {
    FIXTURE
        .lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            let (name, bytes) = line.split_once(' ').expect("`name hex` line");
            (name, unhex(bytes))
        })
        .collect()
}

#[test]
fn the_fixture_holds_exactly_these_frames() {
    let names: Vec<&str> = fixture().into_iter().map(|(name, _)| name).collect();
    let expected: Vec<&str> = frames().into_iter().map(|(name, _)| name).collect();
    assert_eq!(names, expected);
}

#[test]
fn encode_frame_reproduces_every_golden_frame() {
    for ((name, frame), (_, golden)) in frames().into_iter().zip(fixture()) {
        assert_eq!(hex(&frame.encode()), hex(&golden), "{name}");
    }
}

#[test]
fn decode_frame_reads_every_golden_frame_back() {
    for ((name, frame), (_, golden)) in frames().into_iter().zip(fixture()) {
        assert_eq!(hex(&frame.reencode_decoded(&golden)), hex(&golden), "{name}");
        assert_eq!(frame.debug_decoded(&golden), frame.debug(), "{name}");
    }
}
