//! Streaming-equivalence suite: how reports arrive must never change
//! what the pipeline concludes.
//!
//! The incremental streaming path (PR 10) promises that the final
//! ordering of a finished session is **bit-identical** to the batch
//! path no matter how the report stream was sliced on its way in —
//! one report at a time, arbitrary bursts, or the whole stream at once
//! — no matter how often provisional orderings were polled in between,
//! for any detection thread count, and over the wire. This file states
//! that property directly.

use std::sync::Arc;

use proptest::prelude::*;
use stpp_core::{BatchLocalizer, PhaseProfile, StppConfig, StppInput, TagObservations};
use stpp_serve::{
    FlushReply, LocalizationService, ServerConfig, ServiceConfig, SessionGeometry, StppClient,
    StppServer, WireReport,
};

/// One simulated reader report: `(epc serial, time, phase)`.
type Report = (u64, f64, f64);

/// A noise-free conveyor-style report stream in arrival (time) order:
/// every tag contributes one V-shaped profile, interleaved the way a
/// real reader would emit them.
fn report_stream(tag_xs: &[f64], d_perp: f64, mu: f64) -> Vec<Report> {
    let wavelength = 0.326f64;
    let speed = 0.1f64;
    let mut reports = Vec::with_capacity(tag_xs.len() * 600);
    for i in 0..600 {
        let t = i as f64 * 0.05;
        for (id, &tag_x) in tag_xs.iter().enumerate() {
            let d = ((speed * t - tag_x).powi(2) + d_perp * d_perp).sqrt();
            let phase = std::f64::consts::TAU * 2.0 * d / wavelength + mu;
            reports.push((id as u64, t, phase));
        }
    }
    reports
}

/// The same stream as a batch [`StppInput`] — the reference the batch
/// pipeline localizes directly.
fn batch_input(tag_xs: &[f64], d_perp: f64, reports: &[Report]) -> StppInput {
    let observations: Vec<TagObservations> = (0..tag_xs.len() as u64)
        .map(|id| {
            let pairs: Vec<(f64, f64)> =
                reports.iter().filter(|r| r.0 == id).map(|r| (r.1, r.2)).collect();
            TagObservations {
                id,
                epc: rfid_gen2::Epc::from_serial(id),
                profile: PhaseProfile::from_pairs(&pairs),
            }
        })
        .collect();
    StppInput {
        observations,
        nominal_speed_mps: 0.1,
        wavelength_m: 0.326,
        perpendicular_distance_m: Some(d_perp),
    }
}

fn geometry_of(input: &StppInput) -> SessionGeometry {
    SessionGeometry {
        nominal_speed_mps: input.nominal_speed_mps,
        wavelength_m: input.wavelength_m,
        perpendicular_distance_m: input.perpendicular_distance_m,
    }
}

/// Replays the stream into a fresh session in bursts of `chunk`
/// reports, polling a provisional ordering after every burst when
/// `poll` is set, and returns the finished result.
fn stream_session(
    service: &Arc<LocalizationService>,
    geometry: SessionGeometry,
    reports: &[Report],
    chunk: usize,
    poll: bool,
) -> stpp_core::StppResult {
    let mut session = service.open_session(geometry).expect("open session");
    for burst in reports.chunks(chunk.max(1)) {
        for &(id, t, phase) in burst {
            session.ingest_sample(rfid_gen2::Epc::from_serial(id), t, phase).expect("finite");
        }
        if poll {
            let ordering = session.provisional();
            assert!(ordering.tags_estimated + ordering.tags_pending > 0);
        }
    }
    session.finish().expect("finish").expect("session saw reports").result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One-at-a-time, random bursts, and all-at-once ingestion — with
    /// and without interleaved provisional polls — produce the exact
    /// final result of the batch pipeline, for 1- and 2-thread
    /// detection pools.
    #[test]
    fn ingestion_granularity_never_changes_the_final_result(
        tag_xs in proptest::collection::vec(0.4f64..2.6, 3..6),
        burst in 1usize..97,
        mu in 0.0f64..std::f64::consts::TAU,
    ) {
        let reports = report_stream(&tag_xs, 0.3, mu);
        let input = batch_input(&tag_xs, 0.3, &reports);
        let reference = BatchLocalizer::new(StppConfig::default(), 1)
            .localize(&input)
            .expect("batch reference");
        for threads in [1usize, 2] {
            let service = LocalizationService::new(ServiceConfig {
                threads,
                ..ServiceConfig::default()
            });
            let geometry = geometry_of(&input);
            let one_at_a_time = stream_session(&service, geometry, &reports, 1, false);
            let bursts_polled = stream_session(&service, geometry, &reports, burst, true);
            let all_at_once = stream_session(&service, geometry, &reports, reports.len(), true);
            prop_assert_eq!(&one_at_a_time, &reference, "one-at-a-time, threads = {}", threads);
            prop_assert_eq!(&bursts_polled, &reference, "burst = {}, threads = {}", burst, threads);
            prop_assert_eq!(&all_at_once, &reference, "all-at-once, threads = {}", threads);
        }
    }
}

/// Streams a session over the wire in bursts, polling a provisional
/// ordering after every burst, and returns the finished result.
fn stream_over_wire(
    client: &mut StppClient,
    geometry: SessionGeometry,
    reports: &[Report],
    chunk: usize,
) -> stpp_core::StppResult {
    let session = client.open_session(geometry, None).expect("open wire session");
    let mut last_estimated = 0u64;
    for burst in reports.chunks(chunk) {
        let wire: Vec<WireReport> = burst
            .iter()
            .map(|&(id, t, phase)| WireReport { epc_serial: id, time_s: t, phase_rad: phase })
            .collect();
        client.ingest(session, &wire).expect("ingest burst");
        last_estimated = client.provisional(session).expect("poll provisional").tags_estimated;
    }
    // By end of stream every tag is past its nadir: the last wire poll
    // must have estimated the full population.
    assert_eq!(last_estimated, 3, "wire provisional must converge by end of stream");
    match client.flush_session(session, true).expect("finishing flush") {
        FlushReply::Flushed(outcome) => outcome.expect("session saw reports").result,
        FlushReply::Busy { depth } => panic!("idle test server bounced the flush (depth {depth})"),
    }
}

/// The wire streaming path — `OpenSession` / `IngestReports` /
/// `Provisional` / finishing `FlushSession` — yields the batch result
/// bit-identically for different burst sizes and detection thread
/// counts.
#[test]
fn wire_streaming_is_identical_across_burst_sizes_and_thread_counts() {
    let tag_xs = [1.4, 0.6, 1.0];
    let reports = report_stream(&tag_xs, 0.3, 0.8);
    let input = batch_input(&tag_xs, 0.3, &reports);
    let reference =
        BatchLocalizer::new(StppConfig::default(), 1).localize(&input).expect("batch reference");
    let geometry = geometry_of(&input);

    for threads in [1usize, 2] {
        let service =
            LocalizationService::new(ServiceConfig { threads, ..ServiceConfig::default() });
        let server =
            StppServer::bind("127.0.0.1:0", service, ServerConfig::default()).expect("bind");
        let handle = server.spawn().expect("spawn");
        let mut client = StppClient::connect(handle.addr()).expect("connect");
        for chunk in [1usize, 113, reports.len()] {
            let result = stream_over_wire(&mut client, geometry, &reports, chunk);
            assert_eq!(
                result, reference,
                "wire streaming diverged (threads {threads}, burst {chunk})"
            );
        }
        client.shutdown().expect("shutdown");
        handle.join().expect("server exits");
    }
}
