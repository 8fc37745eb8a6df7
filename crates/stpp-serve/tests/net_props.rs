//! Property and integration tests for the wire layer.
//!
//! Three contracts:
//!
//! 1. **Round trip** — `decode(encode(frame)) == frame` for arbitrary
//!    valid request/response frames (floats bit-exact), whether the bytes
//!    arrive whole or in arbitrary short reads.
//! 2. **No panics on hostile bytes** — truncated or corrupted frames
//!    yield a typed [`ProtoError`], never a panic.
//! 3. **Wire transparency** — a client/server round trip over localhost
//!    returns results bit-identical to the in-process service (and the
//!    sequential pipeline) for pool worker counts 1, 2, and 4.

use std::io::Read;
use std::sync::Arc;

use proptest::prelude::*;
use stpp_core::{PhaseProfile, RelativeLocalizer, StppInput, TagObservations};
use stpp_serve::proto::{
    decode_frame, encode_frame, encode_localize_request_into, read_frame, Request, Response,
    ServerStats, WireReport,
};
use stpp_serve::{
    LocalizationService, LocalizeReply, ProtoError, ServerConfig, ServiceConfig, SessionGeometry,
    StppClient, StppServer,
};

// ---------------------------------------------------------------------------
// Frame strategies
// ---------------------------------------------------------------------------

fn finite_f64() -> impl Strategy<Value = f64> {
    // Finite doubles spanning many orders of magnitude (the vendored
    // `any::<f64>()` never produces NaN/∞); the encoding carries raw bit
    // patterns, so no decimal-friendliness is needed.
    any::<f64>()
}

fn arb_geometry() -> impl Strategy<Value = SessionGeometry> {
    (finite_f64(), finite_f64(), prop::option::of(finite_f64())).prop_map(
        |(nominal_speed_mps, wavelength_m, perpendicular_distance_m)| SessionGeometry {
            nominal_speed_mps,
            wavelength_m,
            perpendicular_distance_m,
        },
    )
}

fn arb_input() -> impl Strategy<Value = StppInput> {
    let obs = (any::<u64>(), prop::collection::vec((finite_f64(), finite_f64()), 0..8)).prop_map(
        |(id, pairs)| TagObservations {
            id,
            epc: rfid_gen2::Epc::from_serial(id),
            profile: PhaseProfile::from_pairs(&pairs),
        },
    );
    (prop::collection::vec(obs, 0..4), finite_f64(), finite_f64(), prop::option::of(finite_f64()))
        .prop_map(|(observations, speed, wavelength, perp)| StppInput {
            observations,
            nominal_speed_mps: speed,
            wavelength_m: wavelength,
            perpendicular_distance_m: perp,
        })
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (arb_input(), prop::option::of(any::<u64>()))
            .prop_map(|(input, threads)| Request::Localize { input, threads }),
        (arb_geometry(), prop::option::of(finite_f64()))
            .prop_map(|(geometry, quiescence_s)| Request::OpenSession { geometry, quiescence_s }),
        (
            any::<u64>(),
            prop::collection::vec(
                (any::<u64>(), finite_f64(), finite_f64()).prop_map(
                    |(epc_serial, time_s, phase_rad)| WireReport { epc_serial, time_s, phase_rad }
                ),
                0..6
            )
        )
            .prop_map(|(session, reports)| Request::IngestReports { session, reports }),
        (any::<u64>(), any::<bool>())
            .prop_map(|(session, finish)| Request::FlushSession { session, finish }),
        Just(Request::Stats),
        finite_f64().prop_map(|seconds| Request::Pause { seconds }),
        Just(Request::Shutdown),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        any::<u64>().prop_map(|depth| Response::Busy { depth }),
        any::<u64>().prop_map(|session| Response::SessionOpened { session }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(session, pending)| Response::Ingested { session, pending }),
        any::<u64>().prop_map(|session| Response::UnknownSession { session }),
        ((any::<u64>(), any::<u64>(), any::<u64>()), (any::<u64>(), any::<u64>(), any::<u64>()))
            .prop_map(|((a, b, c), (d, e, f))| Response::Stats {
                service: stpp_serve::ServiceStats {
                    requests: a,
                    geometry_hits: b,
                    geometry_misses: c,
                    registry_flushes: 0,
                    registry_evictions: d,
                    sessions_opened: e,
                    session_batches: f,
                },
                server: ServerStats { requests: a, ..ServerStats::default() },
            }),
        Just(Response::Paused),
        Just(Response::ShuttingDown),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn request_frames_round_trip(request in arb_request()) {
        let frame = encode_frame(&request).expect("encode");
        let (back, consumed): (Request, usize) = decode_frame(&frame).expect("decode");
        prop_assert_eq!(back, request);
        prop_assert_eq!(consumed, frame.len());
    }

    #[test]
    fn response_frames_round_trip(response in arb_response()) {
        let frame = encode_frame(&response).expect("encode");
        let (back, consumed): (Response, usize) = decode_frame(&frame).expect("decode");
        prop_assert_eq!(back, response);
        prop_assert_eq!(consumed, frame.len());
    }

    #[test]
    fn borrowed_localize_encoding_matches_owned(
        input in arb_input(),
        threads in prop::option::of(any::<u64>()),
    ) {
        // The hand-rolled borrowed encoder must stay byte-identical to
        // the derive-based path; a new `StppInput` field breaks this
        // test before it can desync the wire.
        let owned =
            encode_frame(&Request::Localize { input: input.clone(), threads }).expect("encode");
        let mut borrowed = Vec::new();
        encode_localize_request_into(&input, threads, &mut borrowed).expect("encode borrowed");
        prop_assert_eq!(borrowed, owned);
    }

    #[test]
    fn truncated_frames_yield_typed_errors_not_panics(
        request in arb_request(),
        cut in 0.0f64..1.0,
    ) {
        let frame = encode_frame(&request).expect("encode");
        let len = ((frame.len() as f64) * cut) as usize;
        match decode_frame::<Request>(&frame[..len.min(frame.len().saturating_sub(1))]) {
            Err(
                ProtoError::Truncated
                | ProtoError::Malformed { .. }
                | ProtoError::BadMagic { .. }
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error: {other:?}"),
            Ok(_) => prop_assert!(false, "a strict prefix must not decode"),
        }
    }

    #[test]
    fn corrupted_frames_never_panic(
        request in arb_request(),
        offset in any::<prop::sample::Index>(),
        xor in 1u8..=255,
    ) {
        let mut frame = encode_frame(&request).expect("encode");
        let i = offset.index(frame.len());
        frame[i] ^= xor;
        // Any outcome is acceptable except a panic: some corruptions only
        // flip a float bit (still a valid frame), the rest must map to a
        // typed error.
        let _ = decode_frame::<Request>(&frame);
    }
}

// ---------------------------------------------------------------------------
// Stream decoding: `read_frame` over short reads
// ---------------------------------------------------------------------------

/// Whole-buffer reference decode: every frame in `bytes`, or the first
/// typed error.
fn decode_all_whole(mut bytes: &[u8]) -> Result<Vec<Request>, String> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        let (request, consumed) = decode_frame::<Request>(bytes).map_err(|e| format!("{e:?}"))?;
        out.push(request);
        bytes = &bytes[consumed..];
    }
    Ok(out)
}

/// A reader that hands out `bytes` in the pieces delimited by `splits`
/// (sorted positions into `bytes`): no `read` call crosses a split, so
/// [`read_frame`] meets every short read the splits describe, inside the
/// header as well as inside the payload.
struct ChunkedReader<'a> {
    bytes: &'a [u8],
    splits: &'a [usize],
    pos: usize,
}

impl Read for ChunkedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let next = self.splits.partition_point(|&split| split <= self.pos);
        let boundary = self.splits.get(next).copied().unwrap_or(self.bytes.len());
        let n = (boundary - self.pos).min(buf.len());
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Stream decode with [`read_frame`], fed in the chunks delimited by
/// `splits`, until a clean EOF or the first typed error.
fn decode_all_chunked(bytes: &[u8], splits: &[usize]) -> Result<Vec<Request>, String> {
    let mut reader = ChunkedReader { bytes, splits, pos: 0 };
    let mut out = Vec::new();
    while let Some(request) = read_frame::<_, Request>(&mut reader).map_err(|e| format!("{e:?}"))? {
        out.push(request);
    }
    Ok(out)
}

/// The frames of `requests`, back to back.
fn encode_all(requests: &[Request]) -> Vec<u8> {
    requests.iter().flat_map(|request| encode_frame(request).expect("encode")).collect()
}

/// Sorted split positions into a buffer of `len` bytes.
fn sorted_splits(raw: &[prop::sample::Index], len: usize) -> Vec<usize> {
    let mut splits: Vec<usize> = raw.iter().map(|ix| ix.index(len + 1)).collect();
    splits.sort_unstable();
    splits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// [`read_frame`] over short reads must be a pure re-chunking of the
    /// whole-buffer decode: same frames out for byte-by-byte reads and for
    /// arbitrary chunk boundaries.
    #[test]
    fn read_frame_is_chunking_invariant(
        requests in prop::collection::vec(arb_request(), 1..4),
        raw_splits in prop::collection::vec(any::<prop::sample::Index>(), 0..8),
    ) {
        let bytes = encode_all(&requests);
        let whole = decode_all_whole(&bytes).expect("valid frames decode");
        prop_assert_eq!(&whole, &requests);

        // Byte-by-byte: the worst-case trickle.
        let every_byte: Vec<usize> = (1..bytes.len()).collect();
        prop_assert_eq!(
            decode_all_chunked(&bytes, &every_byte).expect("byte-by-byte"),
            whole.clone()
        );

        // Arbitrary chunk boundaries.
        let splits = sorted_splits(&raw_splits, bytes.len());
        prop_assert_eq!(decode_all_chunked(&bytes, &splits).expect("chunked"), whole);
    }

    /// Corrupted streams must yield the *same* typed error (or the same
    /// successfully re-interpreted frames — some flips only touch float
    /// payload bits) from [`read_frame`] as from the whole-buffer decode,
    /// byte-by-byte or in one piece.
    #[test]
    fn read_frame_errors_match_whole_buffer_errors(
        requests in prop::collection::vec(arb_request(), 1..3),
        offset in any::<prop::sample::Index>(),
        xor in 1u8..=255,
    ) {
        let mut bytes = encode_all(&requests);
        let i = offset.index(bytes.len());
        bytes[i] ^= xor;

        let whole = decode_all_whole(&bytes);
        let every_byte: Vec<usize> = (1..bytes.len()).collect();
        prop_assert_eq!(
            decode_all_chunked(&bytes, &every_byte),
            whole.clone(),
            "byte-by-byte must agree with whole-buffer on corrupted input"
        );
        prop_assert_eq!(
            decode_all_chunked(&bytes, &[]),
            whole,
            "one piece must agree with whole-buffer on corrupted input"
        );
    }

    /// A strict prefix of a valid stream, read in arbitrary chunks,
    /// decodes the complete frames and then ends in a clean EOF exactly
    /// when the cut lands on a frame boundary, and in
    /// [`ProtoError::Truncated`] otherwise — never a panic, never a
    /// phantom frame.
    #[test]
    fn read_frame_flags_truncated_tails(
        requests in prop::collection::vec(arb_request(), 1..3),
        cut in 0.0f64..1.0,
        raw_splits in prop::collection::vec(any::<prop::sample::Index>(), 0..8),
    ) {
        let bytes = encode_all(&requests);
        let len = (((bytes.len() - 1) as f64) * cut) as usize;
        let splits = sorted_splits(&raw_splits, len);
        let mut reader = ChunkedReader { bytes: &bytes[..len], splits: &splits, pos: 0 };
        let mut decoded = 0usize;
        let mut boundary = 0usize;
        loop {
            match read_frame::<_, Request>(&mut reader) {
                Ok(Some(request)) => {
                    prop_assert_eq!(&request, &requests[decoded]);
                    boundary += encode_frame(&request).expect("encode").len();
                    decoded += 1;
                }
                Ok(None) => {
                    prop_assert_eq!(boundary, len, "clean EOF away from a frame boundary");
                    break;
                }
                Err(ProtoError::Truncated) => {
                    prop_assert!(boundary < len, "a truncation needs a partial tail");
                    break;
                }
                Err(other) => prop_assert!(false, "a strict prefix ended in {other:?}"),
            }
        }
        prop_assert!(decoded < requests.len(), "a strict prefix decoded every frame");
    }
}

#[test]
fn borrowed_localize_encoding_reuses_its_buffer() {
    // Regression for the carried-over `input.clone()` in
    // `StppClient::localize`: encoding a large batch repeatedly into the
    // same scratch buffer must not reallocate after the first call. The
    // buffer's capacity and base pointer are observable proxies — any
    // per-call growth (e.g. from rebuilding an owned request) would move
    // or grow the allocation.
    let observations: Vec<TagObservations> = (0..64)
        .map(|id| {
            let pairs: Vec<(f64, f64)> =
                (0..512).map(|k| (k as f64 * 1e-3, (id * 7 + k) as f64 * 1e-2)).collect();
            TagObservations {
                id: id as u64,
                epc: rfid_gen2::Epc::from_serial(id as u64),
                profile: PhaseProfile::from_pairs(&pairs),
            }
        })
        .collect();
    let input = StppInput {
        observations,
        nominal_speed_mps: 0.5,
        wavelength_m: 0.326,
        perpendicular_distance_m: Some(0.8),
    };

    let mut buf = Vec::new();
    encode_localize_request_into(&input, Some(2), &mut buf).expect("warm-up encode");
    let warm_len = buf.len();
    let warm_capacity = buf.capacity();
    let warm_ptr = buf.as_ptr();
    for _ in 0..8 {
        encode_localize_request_into(&input, Some(2), &mut buf).expect("steady-state encode");
        assert_eq!(buf.len(), warm_len);
        assert_eq!(buf.capacity(), warm_capacity, "steady-state encode grew the buffer");
        assert_eq!(buf.as_ptr(), warm_ptr, "steady-state encode reallocated the buffer");
    }
}

// ---------------------------------------------------------------------------
// End-to-end wire transparency
// ---------------------------------------------------------------------------

fn synthetic_input(tag_xs: &[f64], d_perp: f64, mu: f64) -> StppInput {
    let wavelength = 0.326f64;
    let speed = 0.1f64;
    let observations: Vec<TagObservations> = tag_xs
        .iter()
        .enumerate()
        .map(|(id, &tag_x)| {
            let pairs: Vec<(f64, f64)> = (0..600)
                .map(|i| {
                    let t = i as f64 * 0.05;
                    let d = ((speed * t - tag_x).powi(2) + d_perp * d_perp).sqrt();
                    (t, std::f64::consts::TAU * 2.0 * d / wavelength + mu)
                })
                .collect();
            TagObservations {
                id: id as u64,
                epc: rfid_gen2::Epc::from_serial(id as u64),
                profile: PhaseProfile::from_pairs(&pairs),
            }
        })
        .collect();
    StppInput {
        observations,
        nominal_speed_mps: speed,
        wavelength_m: wavelength,
        perpendicular_distance_m: Some(d_perp),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn server_responses_are_bit_identical_to_the_in_process_service_for_any_worker_count(
        tag_xs in prop::collection::vec(0.3f64..2.6, 3..6),
        mu in 0.0f64..std::f64::consts::TAU,
    ) {
        let input = synthetic_input(&tag_xs, 0.3, mu);
        let sequential = RelativeLocalizer::with_defaults().localize(&input).expect("sequential");
        for workers in [1usize, 2, 4] {
            let config =
                ServiceConfig { pool_workers: workers, ..ServiceConfig::default() };
            let in_process = LocalizationService::new(config)
                .localize(Arc::new(input.clone()))
                .expect("in-process")
                .result;
            prop_assert_eq!(&in_process, &sequential, "workers = {}", workers);

            // The server gets its own (cold) service instance, so the
            // first wire request exercises the cold path.
            let service = LocalizationService::new(config);
            let server = StppServer::bind("127.0.0.1:0", service, ServerConfig::default())
                .expect("bind");
            let handle = server.spawn().expect("spawn");
            let mut client = StppClient::connect(handle.addr()).expect("connect");
            let reply = client.localize(&input, None).expect("wire localize");
            let LocalizeReply::Localized(response) = reply else {
                return Err(TestCaseError::Fail("unexpected Busy on an idle server".into()));
            };
            prop_assert_eq!(&response.result, &sequential, "workers = {} (wire)", workers);
            prop_assert_eq!(
                response.metrics.bank_cache.builds > 0,
                true,
                "cold wire request must build banks"
            );
            // Warm repeat over the wire: zero builds, still identical.
            let LocalizeReply::Localized(warm) =
                client.localize(&input, None).expect("warm localize")
            else {
                return Err(TestCaseError::Fail("unexpected Busy on an idle server".into()));
            };
            prop_assert_eq!(&warm.result, &sequential);
            prop_assert_eq!(warm.metrics.bank_cache.builds, 0);
            client.shutdown().expect("shutdown");
            handle.join().expect("server exits");
        }
    }
}

#[test]
fn wire_sessions_match_in_process_sessions() {
    let input = synthetic_input(&[0.6, 1.1, 1.7], 0.3, 0.8);
    let sequential = RelativeLocalizer::with_defaults().localize(&input).expect("sequential");
    let geometry = SessionGeometry {
        nominal_speed_mps: input.nominal_speed_mps,
        wavelength_m: input.wavelength_m,
        perpendicular_distance_m: input.perpendicular_distance_m,
    };

    let service = LocalizationService::with_defaults();
    let server = StppServer::bind("127.0.0.1:0", service, ServerConfig::default()).expect("bind");
    let handle = server.spawn().expect("spawn");
    let mut client = StppClient::connect(handle.addr()).expect("connect");

    let session = client.open_session(geometry, None).expect("open");
    // Stream the reports in time order, batched per time step.
    let samples_per_tag = input.observations[0].profile.len();
    for i in 0..samples_per_tag {
        let reports: Vec<stpp_serve::WireReport> = input
            .observations
            .iter()
            .map(|obs| {
                let s = obs.profile.samples()[i];
                stpp_serve::WireReport {
                    epc_serial: obs.epc.serial(),
                    time_s: s.time_s,
                    phase_rad: s.phase_rad,
                }
            })
            .collect();
        client.ingest(session, &reports).expect("ingest");
    }
    let reply = client.flush_session(session, true).expect("finish");
    let stpp_serve::FlushReply::Flushed(Some(response)) = reply else {
        panic!("expected a localized batch, got {reply:?}");
    };
    assert_eq!(response.result, sequential, "wire session must match the offline pipeline");
    // The session is consumed: further use is a typed error.
    assert_eq!(
        client.flush_session(session, false),
        Err(stpp_serve::ClientError::UnknownSession { session })
    );
    // Unknown sessions are typed errors, not panics.
    assert_eq!(
        client.ingest(9999, &[]),
        Err(stpp_serve::ClientError::UnknownSession { session: 9999 })
    );
    client.shutdown().expect("shutdown");
    handle.join().expect("server exits");
}

#[test]
fn overfilled_admission_queue_returns_typed_busy() {
    // queue_depth = 1: one Pause occupies the only slot; a concurrent
    // Localize must be rejected with the typed Busy frame. The second
    // client polls Stats (control plane, never throttled) until the
    // pause is in flight, so the rejection is deterministic.
    let service = LocalizationService::with_defaults();
    let server = StppServer::bind(
        "127.0.0.1:0",
        service,
        ServerConfig { queue_depth: 1, ..ServerConfig::default() },
    )
    .expect("bind");
    let handle = server.spawn().expect("spawn");
    let addr = handle.addr();

    let pauser = std::thread::spawn(move || {
        let mut client = StppClient::connect(addr).expect("connect pauser");
        assert!(client.pause(3.0).expect("pause"), "the empty queue must admit the pause");
    });

    let mut client = StppClient::connect(addr).expect("connect");
    // Wait (bounded — a stalled runner must fail, not hang) until the
    // pause occupies the slot.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let (_, server_stats) = client.stats().expect("stats");
        if server_stats.in_flight >= 1 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "pause never observed in flight in 30 s");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let input = synthetic_input(&[0.6, 1.2], 0.3, 0.0);
    let reply = client.localize(&input, None).expect("localize under load");
    assert_eq!(reply, LocalizeReply::Busy { depth: 1 }, "full queue must reject with Busy");
    let (_, server_stats) = client.stats().expect("stats");
    assert!(server_stats.busy_rejections >= 1);

    pauser.join().expect("pauser");
    // Slot released: the same request is admitted now.
    let reply = client.localize(&input, None).expect("localize after load");
    assert!(matches!(reply, LocalizeReply::Localized(_)), "freed queue must admit");
    client.shutdown().expect("shutdown");
    handle.join().expect("server exits");
}
