//! Integration tests for the readiness-based async server core.
//!
//! The contract under test: [`ServerCore::Async`] is **bit-identical**
//! to [`ServerCore::Blocking`] on the wire — same responses, same typed
//! errors, same counters — while multiplexing every connection on a
//! fixed thread budget. The storm test drives 64 concurrent trickle-fed
//! connections through a server whose detection pool is two workers and
//! proves the process grew no per-connection threads.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use stpp_core::{PhaseProfile, RelativeLocalizer, StppInput, TagObservations};
use stpp_serve::proto::read_frame;
use stpp_serve::{
    ClientError, FlushReply, LocalizationService, LocalizeReply, Request, Response, ServerConfig,
    ServerCore, ServiceConfig, SessionGeometry, StppClient, StppServer, WireReport,
};

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

fn geometry_of(input: &StppInput) -> SessionGeometry {
    SessionGeometry {
        nominal_speed_mps: input.nominal_speed_mps,
        wavelength_m: input.wavelength_m,
        perpendicular_distance_m: input.perpendicular_distance_m,
    }
}

/// Current thread count of this process (Linux; the async core is
/// epoll-based, so the whole suite is Linux-anyway).
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("Threads: line")
        .trim()
        .parse()
        .expect("thread count")
}

/// One full scripted exchange against a server running `core`; returns
/// everything the wire said, for cross-core comparison.
fn scripted_exchange(
    core: ServerCore,
) -> (stpp_core::StppResult, stpp_core::StppResult, u64, String) {
    let input = synthetic_input(&[0.6, 1.1, 1.7], 0.3, 0.8);
    let service = LocalizationService::with_defaults();
    let config = ServerConfig { core, ..ServerConfig::default() };
    let server = StppServer::bind("127.0.0.1:0", service, config).expect("bind");
    assert_eq!(server.core(), core);
    let handle = server.spawn().expect("spawn");

    let mut client = StppClient::connect(handle.addr()).expect("connect");
    // 1. One-shot localize.
    let localized = match client.localize(&input, None).expect("localize") {
        LocalizeReply::Localized(response) => response.result,
        LocalizeReply::Busy { .. } => panic!("an idle server must not be busy"),
    };
    // 2. A full streaming session, flushed to completion.
    let session = client.open_session(geometry_of(&input), None).expect("open");
    let samples_per_tag = input.observations[0].profile.len();
    for i in 0..samples_per_tag {
        let reports: Vec<WireReport> = input
            .observations
            .iter()
            .map(|obs| {
                let s = obs.profile.samples()[i];
                WireReport {
                    epc_serial: obs.epc.serial(),
                    time_s: s.time_s,
                    phase_rad: s.phase_rad,
                }
            })
            .collect();
        client.ingest(session, &reports).expect("ingest");
    }
    let streamed = match client.flush_session(session, true).expect("flush") {
        FlushReply::Flushed(Some(response)) => response.result,
        other => panic!("a finished session must yield a batch, got {other:?}"),
    };
    // 3. Typed errors: an unknown session, and the poison drill.
    let unknown = match client.ingest(0xDEAD_BEEF, &[]) {
        Err(ClientError::UnknownSession { session }) => session,
        other => panic!("expected UnknownSession, got {other:?}"),
    };
    let poison_reason = client.poison().expect("typed InternalError frame");
    // The connection survives the isolated panic on both cores.
    let health = client.health().expect("health after poison");
    assert!(!health.draining);
    assert!(health.connections_open >= 1, "this very connection is open");

    client.shutdown().expect("shutdown");
    handle.join().expect("server exits");
    (localized, streamed, unknown, poison_reason)
}

/// Both cores speak the same protocol through the same handler: every
/// scripted response — results, typed errors, panic payloads — must
/// compare equal across cores, and match the offline pipeline.
#[test]
fn async_core_is_bit_identical_to_blocking() {
    let input = synthetic_input(&[0.6, 1.1, 1.7], 0.3, 0.8);
    let offline = RelativeLocalizer::with_defaults().localize(&input).expect("offline");

    let blocking = scripted_exchange(ServerCore::Blocking);
    let async_core = scripted_exchange(ServerCore::Async);

    assert_eq!(blocking.0, offline, "blocking localize must match the offline pipeline");
    assert_eq!(blocking, async_core, "the two cores must answer bit-identically");
}

/// The acceptance drill: 64 concurrent connections trickling their
/// request bytes a few at a time, against a server whose detection pool
/// (2 workers) is far smaller than the connection count. Every client
/// must be answered, and the process must not grow per-connection
/// threads while all 64 trickle at once.
#[test]
fn sixty_four_trickled_connections_on_a_two_worker_pool() {
    const CLIENTS: usize = 64;
    let service =
        LocalizationService::new(ServiceConfig { pool_workers: 2, ..ServiceConfig::default() });
    let config =
        ServerConfig { core: ServerCore::Async, queue_depth: 8, ..ServerConfig::default() };
    let server = StppServer::bind("127.0.0.1:0", service, config).expect("bind");
    let handle = server.spawn().expect("spawn");
    let addr = handle.addr();
    // Let the reactor and its fixed dispatch set come up before the
    // baseline thread count is taken.
    std::thread::sleep(Duration::from_millis(100));
    let baseline_threads = process_threads();

    // Two rendezvous points: all clients mid-trickle (so 64 connections
    // are simultaneously open and half-fed), then release to finish.
    let mid_trickle = Arc::new(Barrier::new(CLIENTS + 1));
    let release = Arc::new(Barrier::new(CLIENTS + 1));
    let frame = stpp_serve::proto::encode_frame(&Request::Health).expect("encode");
    let workers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let mid_trickle = Arc::clone(&mid_trickle);
            let release = Arc::clone(&release);
            let frame = frame.clone();
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
                let half = frame.len() / 2;
                // First half, three bytes at a time.
                for chunk in frame[..half].chunks(3) {
                    stream.write_all(chunk).expect("trickle");
                    std::thread::sleep(Duration::from_millis(1));
                }
                mid_trickle.wait();
                release.wait();
                for chunk in frame[half..].chunks(3) {
                    stream.write_all(chunk).expect("trickle");
                    std::thread::sleep(Duration::from_millis(1));
                }
                match read_frame::<_, Response>(&mut stream).expect("response") {
                    Some(Response::Health { report }) => report,
                    other => panic!("expected Health, got {other:?}"),
                }
            })
        })
        .collect();

    mid_trickle.wait();
    // All 64 connections are open and mid-request right now. The only
    // threads beyond baseline are this test's own client threads — the
    // server multiplexes everything on its fixed set.
    let storm_threads = process_threads();
    assert!(
        storm_threads <= baseline_threads + CLIENTS + 4,
        "server must not grow per-connection threads: baseline {baseline_threads}, \
         mid-storm {storm_threads} with {CLIENTS} client threads"
    );
    release.wait();

    let mut served = 0;
    for worker in workers {
        let report = worker.join().expect("client thread");
        assert!(report.connections_open >= 1);
        served += 1;
    }
    assert_eq!(served, CLIENTS, "every trickled connection must be answered");

    let mut client = StppClient::connect(addr).expect("connect");
    let (_service_stats, server_stats) = client.stats().expect("stats");
    assert!(
        server_stats.connections >= CLIENTS as u64,
        "all {CLIENTS} connections must be counted, got {}",
        server_stats.connections
    );
    assert_eq!(server_stats.pool_workers, 2, "the pool must stay far below the connection count");
    assert_eq!(server_stats.connection_rejections, 0, "nobody hit the connection limit");
    client.shutdown().expect("shutdown");
    handle.join().expect("server exits");
}

/// Over-limit connections get the typed [`Response::TooManyConnections`]
/// frame — on both cores — and the rejection shows up in the health
/// counters while established connections keep working.
#[test]
fn connection_limit_rejects_with_a_typed_frame_on_both_cores() {
    for core in [ServerCore::Blocking, ServerCore::Async] {
        let service = LocalizationService::with_defaults();
        let config = ServerConfig { core, max_connections: 2, ..ServerConfig::default() };
        let server = StppServer::bind("127.0.0.1:0", service, config).expect("bind");
        let handle = server.spawn().expect("spawn");
        let addr = handle.addr();

        let mut first = StppClient::connect(addr).expect("first");
        let mut second = StppClient::connect(addr).expect("second");
        // Round-trips prove both slots are established server-side.
        first.health().expect("first health");
        second.health().expect("second health");

        let mut rejected = TcpStream::connect(addr).expect("third connect");
        rejected.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        match read_frame::<_, Response>(&mut rejected).expect("rejection frame") {
            Some(Response::TooManyConnections { limit }) => assert_eq!(limit, 2),
            other => panic!("[{core:?}] expected TooManyConnections, got {other:?}"),
        }

        // Established connections are unaffected, and the health report
        // carries both gauge and rejection counter.
        let health = first.health().expect("health after rejection");
        assert_eq!(health.connections_open, 2, "[{core:?}] both admitted connections are open");
        assert!(health.connection_rejections >= 1, "[{core:?}] the rejection must be counted");

        first.shutdown().expect("shutdown");
        handle.join().expect("server exits");
    }
}

/// Wall-clock quiescence is implemented by the async core only, so the
/// blocking core refuses the setting at bind time instead of accepting
/// it and never flushing.
#[test]
fn wallclock_quiescence_is_rejected_on_the_blocking_core() {
    let config = ServerConfig {
        core: ServerCore::Blocking,
        wallclock_quiescence: Some(Duration::from_millis(50)),
        ..ServerConfig::default()
    };
    let error = StppServer::bind("127.0.0.1:0", LocalizationService::with_defaults(), config)
        .err()
        .expect("the blocking core must reject wallclock_quiescence");
    assert_eq!(error.kind(), std::io::ErrorKind::InvalidInput);
    assert!(error.to_string().contains("wallclock_quiescence"), "{error}");
    // Without the setting, the blocking core binds as before.
    let config = ServerConfig { core: ServerCore::Blocking, ..ServerConfig::default() };
    StppServer::bind("127.0.0.1:0", LocalizationService::with_defaults(), config)
        .expect("plain blocking bind");
}

/// Async-core exclusive: a session whose report *stream* stalls still
/// gets its quiescent tags flushed by wall clock, from the reactor's
/// timer wheel — no client flush call involved.
#[test]
fn wallclock_quiescence_flushes_a_stalled_session() {
    let input = synthetic_input(&[0.6, 1.1], 0.3, 0.8);
    let service = LocalizationService::with_defaults();
    let config = ServerConfig {
        core: ServerCore::Async,
        wallclock_quiescence: Some(Duration::from_millis(50)),
        ..ServerConfig::default()
    };
    let server = StppServer::bind("127.0.0.1:0", service, config).expect("bind");
    let handle = server.spawn().expect("spawn");

    let mut client = StppClient::connect(handle.addr()).expect("connect");
    let session = client.open_session(geometry_of(&input), None).expect("open");
    // Both tags' full profiles, then a lone clock-pusher report far in
    // the future: by *report* clock the two tags are quiescent, but the
    // client never calls flush — its stream just stops.
    let samples_per_tag = input.observations[0].profile.len();
    for i in 0..samples_per_tag {
        let reports: Vec<WireReport> = input
            .observations
            .iter()
            .map(|obs| {
                let s = obs.profile.samples()[i];
                WireReport {
                    epc_serial: obs.epc.serial(),
                    time_s: s.time_s,
                    phase_rad: s.phase_rad,
                }
            })
            .collect();
        client.ingest(session, &reports).expect("ingest");
    }
    client
        .ingest(session, &[WireReport { epc_serial: 999, time_s: 60.0, phase_rad: 0.0 }])
        .expect("clock pusher");

    // The stall. The reactor's quiescence scan must flush server-side.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let flushed = loop {
        let (_service_stats, server_stats) = client.stats().expect("stats");
        if server_stats.wallclock_flushes >= 1 {
            break server_stats.wallclock_flushes;
        }
        assert!(std::time::Instant::now() < deadline, "wall-clock flush never happened");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(flushed >= 1);
    // The flushed batch ran real localization on the service.
    let (service_stats, _server_stats) = client.stats().expect("stats");
    assert!(service_stats.session_batches >= 1, "the flush must have localized a batch");
    // The session itself is still alive for the client.
    client
        .ingest(session, &[WireReport { epc_serial: 999, time_s: 61.0, phase_rad: 0.1 }])
        .expect("session survives the server-side flush");

    client.shutdown().expect("shutdown");
    handle.join().expect("server exits");
}

/// The crash drill and graceful drain both work on the readiness core:
/// kill returns promptly and frees the port; drain refuses new work and
/// exits cleanly.
#[test]
fn async_core_kill_and_drain_lifecycle() {
    // Kill: abrupt teardown, port freed for an immediate rebind.
    let service = LocalizationService::with_defaults();
    let config = ServerConfig { core: ServerCore::Async, ..ServerConfig::default() };
    let server = StppServer::bind("127.0.0.1:0", service, config).expect("bind");
    let handle = server.spawn().expect("spawn");
    let addr = handle.addr();
    let mut client = StppClient::connect(addr).expect("connect");
    client.health().expect("health");
    handle.kill().expect("kill returns");

    // Rebind the exact address; drain it cleanly this time.
    let service = LocalizationService::with_defaults();
    let config = ServerConfig { core: ServerCore::Async, ..ServerConfig::default() };
    let listener = {
        // The listener port must be free immediately after kill.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match TcpListener::bind(addr) {
                Ok(l) => break l,
                Err(_) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                Err(e) => panic!("port not freed after kill: {e}"),
            }
        }
    };
    drop(listener);
    let server = StppServer::bind(addr, service, config).expect("rebind");
    let handle = server.spawn().expect("respawn");
    let mut client = StppClient::connect(addr).expect("reconnect");
    let input = synthetic_input(&[0.5, 0.9], 0.3, 0.0);
    client.localize(&input, None).expect("localize on respawned server");
    client.drain().expect("drain acknowledged");
    handle.join().expect("drained server exits cleanly");
    assert!(TcpStream::connect(addr).is_err(), "drained server must stop accepting");
}
