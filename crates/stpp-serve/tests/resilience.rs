//! Fault-tolerance integration tests: deadlines, retry budgets, the
//! circuit breaker, drain/health, panic isolation, the connection limit,
//! accept failures, session reaping, wall-clock quiescence flushes, and
//! crash-recovery replay.
//!
//! Every hostile peer here is a plain TCP socket doing something a real
//! broken network or server could do — accepting and never answering,
//! stalling mid-frame, or dying outright — and every client-side failure
//! must surface as a *typed* error with its deadline respected.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use stpp_core::{PhaseProfile, RelativeLocalizer, StppInput, TagObservations};
use stpp_serve::proto::{read_frame, write_frame};
use stpp_serve::{
    ClientError, FailureKind, LocalizationService, Request, ResilientClient, ResilientError,
    ResilientSession, Response, RetryPolicy, ServerConfig, SessionGeometry, StppClient, StppServer,
    WireReport,
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

/// A tight policy for tests that must fail fast.
fn fast_policy(attempts: u32) -> RetryPolicy {
    RetryPolicy {
        max_attempts: attempts,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(5),
        jitter: 0.0,
        seed: 0,
        deadline: Duration::from_millis(200),
    }
}

/// An ephemeral port with nothing listening on it (bound, then dropped).
fn dead_addr() -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind probe");
    listener.local_addr().expect("addr")
    // listener drops here; connecting now gets ConnectionRefused.
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Backoff is a pure function of (policy, attempt): deterministic
    /// across calls, never above the cap, and never negative.
    #[test]
    fn backoff_is_deterministic_and_capped(
        base_ms in 0u64..500,
        max_ms in 0u64..2_000,
        jitter in 0.0f64..1.0,
        seed in any::<u64>(),
        attempt in 0u32..80,
    ) {
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(base_ms),
            max_backoff: Duration::from_millis(max_ms),
            jitter,
            seed,
            ..RetryPolicy::default()
        };
        let a = policy.backoff_for(attempt);
        let b = policy.backoff_for(attempt);
        prop_assert_eq!(a, b, "backoff must be deterministic");
        let cap = policy.max_backoff.max(policy.base_backoff);
        prop_assert!(a <= cap, "backoff {a:?} exceeds cap {cap:?}");
    }
}

#[test]
fn dead_server_exhausts_the_budget_with_a_typed_error() {
    let mut client = ResilientClient::new(dead_addr(), fast_policy(3));
    let input = synthetic_input(&[0.5], 0.3, 0.0);
    let started = Instant::now();
    match client.localize(&input, None) {
        Err(ResilientError::BudgetExhausted { attempts: 3, last: FailureKind::Connect }) => {}
        other => panic!("expected a connect-exhausted budget, got {other:?}"),
    }
    assert_eq!(client.counters().connect_failures, 3);
    assert_eq!(client.counters().attempts, 3);
    // Three attempts, two backoffs of ≤ 5ms each, connect deadline 200ms:
    // the whole call is bounded. Allow generous slack for slow CI.
    assert!(started.elapsed() < Duration::from_secs(5), "call must not hang");
}

#[test]
fn circuit_opens_after_consecutive_failures_and_fails_fast() {
    let mut client =
        ResilientClient::new(dead_addr(), fast_policy(4)).with_circuit(2, Duration::from_secs(60));
    let input = synthetic_input(&[0.5], 0.3, 0.0);
    // The threshold (2) is below the budget (4), so the circuit trips
    // *inside* the first call and its gate ends the call early.
    let first = client.localize(&input, None);
    assert!(matches!(first, Err(ResilientError::CircuitOpen { .. })), "got {first:?}");
    assert!(client.circuit_open(), "circuit must be open after repeated failures");
    assert!(client.counters().circuit_opens >= 1);
    // With the cooldown far away, the next call fails fast without a
    // single new connection attempt.
    let before = client.counters().attempts;
    match client.localize(&input, None) {
        Err(ResilientError::CircuitOpen { consecutive_failures }) => {
            assert!(consecutive_failures >= 2)
        }
        other => panic!("expected CircuitOpen, got {other:?}"),
    }
    assert_eq!(client.counters().attempts, before, "open circuit must not attempt I/O");
}

#[test]
fn half_open_probe_recovers_once_the_server_is_back() {
    let addr = dead_addr();
    let mut client =
        ResilientClient::new(addr, fast_policy(3)).with_circuit(2, Duration::from_millis(50));
    let input = synthetic_input(&[0.5, 0.9], 0.3, 0.0);
    assert!(client.localize(&input, None).is_err());
    assert!(client.circuit_open());

    // Bring a real server up on the exact address the client targets.
    let service = LocalizationService::with_defaults();
    let server = StppServer::bind(addr, service, ServerConfig::default()).expect("rebind");
    let handle = server.spawn().expect("spawn");

    // After the cooldown, the half-open probe must reconnect and close
    // the circuit again.
    std::thread::sleep(Duration::from_millis(80));
    let response = client.localize(&input, None).expect("probe succeeds after recovery");
    assert_eq!(response.result.order_x.len() + response.result.undetected.len(), 2);
    assert!(!client.circuit_open(), "success must close the circuit");

    let mut direct = StppClient::connect(addr).expect("direct");
    direct.shutdown().expect("shutdown");
    handle.join().expect("server exits");
}

/// A hostile peer that accepts connections and reads forever without
/// ever writing a byte back.
#[test]
fn accepts_then_never_responds_hits_the_deadline() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let sink = std::thread::spawn(move || {
        let mut held = Vec::new();
        // Accept both attempts; never respond.
        for _ in 0..2 {
            if let Ok((mut socket, _)) = listener.accept() {
                let mut buf = [0u8; 4096];
                let _ = socket.read(&mut buf);
                held.push(socket);
            }
        }
        held
    });

    let mut client = ResilientClient::new(addr, fast_policy(2));
    let input = synthetic_input(&[0.5], 0.3, 0.0);
    let started = Instant::now();
    match client.localize(&input, None) {
        Err(ResilientError::BudgetExhausted { last: FailureKind::Timeout, .. }) => {}
        other => panic!("expected timeout-exhausted budget, got {other:?}"),
    }
    assert!(client.counters().timeouts >= 1);
    // Two attempts at a 200ms deadline each (reads after full writes).
    assert!(started.elapsed() < Duration::from_secs(10), "deadline must bound the call");
    drop(sink); // the acceptor thread dies with the process either way
}

/// A hostile peer that accepts, then answers with *half* a frame header
/// and stalls: the client must classify the eventual failure as a typed
/// transport/timeout error, never a panic or a hang.
#[test]
fn accepts_then_stalls_mid_frame_is_a_typed_error() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        while let Ok((mut socket, _)) = listener.accept() {
            let mut buf = [0u8; 4096];
            let _ = socket.read(&mut buf);
            // Half a header: magic and version, then silence; the
            // socket closes when this thread loops.
            let _ = socket.write_all(b"STPP\x01\x00");
        }
    });

    let mut client = ResilientClient::new(addr, fast_policy(2));
    let input = synthetic_input(&[0.5], 0.3, 0.0);
    match client.localize(&input, None) {
        Err(ResilientError::BudgetExhausted { last, .. }) => {
            assert!(
                matches!(last, FailureKind::Timeout | FailureKind::Transport),
                "mid-frame stall must classify as timeout or transport, got {last:?}"
            );
        }
        other => panic!("expected an exhausted budget, got {other:?}"),
    }
    let c = client.counters();
    assert!(c.timeouts + c.transport_failures >= 1);
}

#[test]
fn drain_finishes_cleanly_and_health_reports_sane_numbers() {
    let service = LocalizationService::with_defaults();
    let server = StppServer::bind("127.0.0.1:0", service, ServerConfig::default()).expect("bind");
    let handle = server.spawn().expect("spawn");
    let addr = handle.addr();

    let mut client = StppClient::connect(addr).expect("connect");
    let input = synthetic_input(&[0.5, 0.9], 0.3, 0.0);
    client.localize(&input, None).expect("localize");

    let health = client.health().expect("health");
    assert!(!health.draining);
    assert!(health.uptime_seconds >= 0.0);
    assert_eq!(health.sessions_open, 0);
    assert!(health.requests >= 1, "the localize must be counted");
    assert!(health.connections_open >= 1, "this very connection must be in the gauge");
    assert_eq!(health.connection_rejections, 0, "nobody hit the connection limit here");

    client.drain().expect("drain acknowledged");
    handle.join().expect("drained server exits cleanly");
    // A drained server is gone: new connections are refused.
    assert!(TcpStream::connect(addr).is_err(), "drained server must stop accepting");
}

#[test]
fn poisoned_request_is_isolated_and_the_server_survives() {
    let service = LocalizationService::with_defaults();
    let server = StppServer::bind("127.0.0.1:0", service, ServerConfig::default()).expect("bind");
    let handle = server.spawn().expect("spawn");
    let addr = handle.addr();

    let mut victim = StppClient::connect(addr).expect("connect victim");
    let reason = victim.poison().expect("typed InternalError, not a dropped connection");
    assert!(reason.contains("poison"), "the panic payload must surface: {reason}");

    // The same connection keeps working after the isolated panic…
    let input = synthetic_input(&[0.5, 0.9], 0.3, 0.0);
    victim.localize(&input, None).expect("victim connection survives");
    // …and so does the server as a whole.
    let mut other = StppClient::connect(addr).expect("connect other");
    other.localize(&input, None).expect("fresh connection works");
    let (_service_stats, server_stats) = other.stats().expect("stats");
    assert!(server_stats.internal_errors >= 1, "the poison drill must be counted");

    other.shutdown().expect("shutdown");
    handle.join().expect("server exits");
}

/// Over-limit connections get the typed [`Response::TooManyConnections`]
/// frame, and the rejection shows up in the health counters while
/// established connections keep working.
#[test]
fn connection_limit_rejects_with_a_typed_frame() {
    let service = LocalizationService::with_defaults();
    let config = ServerConfig { max_connections: 2, ..ServerConfig::default() };
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
        other => panic!("expected TooManyConnections, got {other:?}"),
    }

    // Established connections are unaffected, and the health report
    // carries both gauge and rejection counter.
    let health = first.health().expect("health after rejection");
    assert_eq!(health.connections_open, 2, "both admitted connections are open");
    assert!(health.connection_rejections >= 1, "the rejection must be counted");

    first.shutdown().expect("shutdown");
    handle.join().expect("server exits");
}

/// Marks the re-executed test binary that runs the body of
/// [`acceptor_survives_a_failed_accept`] under a low descriptor limit.
#[cfg(unix)]
const ACCEPT_ERROR_CHILD: &str = "STPP_ACCEPT_ERROR_CHILD";

/// A failed `accept` must not end `serve()`: the acceptor skips it, and a
/// connection that queued while descriptors ran out is answered once they
/// are free again. The body runs in a child process whose descriptor
/// limit (`ulimit -n`, the child's alone) is low enough to fill.
#[cfg(unix)]
#[test]
fn acceptor_survives_a_failed_accept() {
    if std::env::var_os(ACCEPT_ERROR_CHILD).is_some() {
        return accept_error_child();
    }
    let name = "acceptor_survives_a_failed_accept";
    let out = std::process::Command::new("sh")
        .args(["-c", "ulimit -n 64 && exec \"$0\" \"$@\""])
        .arg(std::env::current_exe().expect("test binary path"))
        .args([name, "--exact", "--test-threads", "1"])
        .env(ACCEPT_ERROR_CHILD, "1")
        .output()
        .expect("spawn the descriptor-limited child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "child failed ({}):\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The child's half of [`acceptor_survives_a_failed_accept`].
#[cfg(unix)]
fn accept_error_child() {
    let service = LocalizationService::with_defaults();
    let server = StppServer::bind("127.0.0.1:0", service, ServerConfig::default()).expect("bind");
    let handle = server.spawn().expect("spawn");
    let addr = handle.addr();
    // One round trip first, so the server has made every descriptor it
    // opens on its own (lazily, on the first connection) before the
    // table fills. The client stays open: a closing connection would
    // free descriptors behind the test's back.
    let mut warm = StppClient::connect(addr).expect("connect before the table fills");
    warm.health().expect("health before the table fills");

    // Fill the descriptor table, then free one slot for the client's
    // socket: the connection queues in the backlog with no descriptor
    // left for the acceptor.
    let mut held = Vec::new();
    let full = loop {
        match std::fs::File::open("/dev/null") {
            Ok(file) if held.len() < 4096 => held.push(file),
            Ok(_) => panic!("the descriptor limit never ran out"),
            Err(error) => break error,
        }
    };
    assert_eq!(full.raw_os_error(), Some(24), "expected EMFILE, got {full}");
    held.pop();
    // Should another thread of this process take the freed slot first,
    // free one more and retry.
    let mut stream = loop {
        match TcpStream::connect(addr) {
            Ok(stream) => break stream,
            Err(error) if error.raw_os_error() == Some(24) && held.pop().is_some() => {}
            Err(error) => panic!("connect with the last descriptor: {error}"),
        }
    };
    assert!(std::fs::File::open("/dev/null").is_err(), "the table must be full again");
    write_frame(&mut stream, &Request::Health).expect("send health");
    // Give the acceptor time to fail on the queued connection, more than
    // once; then free the descriptors.
    std::thread::sleep(Duration::from_millis(200));
    drop(held);

    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    match read_frame::<_, Response>(&mut stream) {
        Ok(Some(Response::Health { report })) => assert!(report.connections_open >= 1),
        other => panic!("the queued connection must be answered, got {other:?}"),
    }
    let mut client = StppClient::connect(addr).expect("the listener is still up");
    client.shutdown().expect("shutdown");
    handle.join().expect("serve() returns Ok after the failed accepts");
}

#[test]
fn idle_sessions_are_reaped_after_their_ttl() {
    let service = LocalizationService::with_defaults();
    let config =
        ServerConfig { session_ttl: Some(Duration::from_millis(50)), ..ServerConfig::default() };
    let server = StppServer::bind("127.0.0.1:0", service, config).expect("bind");
    let handle = server.spawn().expect("spawn");
    let addr = handle.addr();

    let mut client = StppClient::connect(addr).expect("connect");
    let geometry = SessionGeometry {
        nominal_speed_mps: 0.1,
        wavelength_m: 0.326,
        perpendicular_distance_m: None,
    };
    let session = client.open_session(geometry, None).expect("open");
    std::thread::sleep(Duration::from_millis(400));

    match client.ingest(session, &[WireReport { epc_serial: 1, time_s: 0.0, phase_rad: 0.0 }]) {
        Err(ClientError::UnknownSession { .. }) => {}
        other => panic!("a reaped session must answer UnknownSession, got {other:?}"),
    }
    let (_service_stats, server_stats) = client.stats().expect("stats");
    assert!(server_stats.sessions_reaped >= 1, "the reap must be counted");

    client.shutdown().expect("shutdown");
    handle.join().expect("server exits");
}

/// A session whose report *stream* stalls still gets its quiescent tags
/// flushed by wall clock, from the session sweep — no client flush call
/// involved. The sweep runs with and without a session TTL beside it.
#[test]
fn wallclock_quiescence_flushes_a_stalled_session() {
    let input = synthetic_input(&[0.6, 1.1], 0.3, 0.8);
    let geometry = SessionGeometry {
        nominal_speed_mps: input.nominal_speed_mps,
        wavelength_m: input.wavelength_m,
        perpendicular_distance_m: input.perpendicular_distance_m,
    };
    for session_ttl in [ServerConfig::default().session_ttl, None] {
        let service = LocalizationService::with_defaults();
        let config = ServerConfig {
            session_ttl,
            wallclock_quiescence: Some(Duration::from_millis(50)),
            ..ServerConfig::default()
        };
        let server = StppServer::bind("127.0.0.1:0", service, config).expect("bind");
        let handle = server.spawn().expect("spawn");

        let mut client = StppClient::connect(handle.addr()).expect("connect");
        let session = client.open_session(geometry, None).expect("open");
        // Both tags' full profiles, then a lone clock-pusher report far in
        // the future: by *report* clock the two tags are quiescent, but
        // the client never calls flush — its stream just stops.
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

        // The stall. The session sweep must flush server-side.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (_service_stats, server_stats) = client.stats().expect("stats");
            if server_stats.wallclock_flushes >= 1 {
                break;
            }
            assert!(Instant::now() < deadline, "wall-clock flush never happened ({session_ttl:?})");
            std::thread::sleep(Duration::from_millis(20));
        }
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
}

#[test]
fn session_ids_are_non_sequential_and_seed_dependent() {
    let mut ids = Vec::new();
    for seed in [0u64, 7] {
        let service = LocalizationService::with_defaults();
        let config = ServerConfig { session_seed: seed, ..ServerConfig::default() };
        let server = StppServer::bind("127.0.0.1:0", service, config).expect("bind");
        let handle = server.spawn().expect("spawn");
        let mut client = StppClient::connect(handle.addr()).expect("connect");
        let geometry = SessionGeometry {
            nominal_speed_mps: 0.1,
            wavelength_m: 0.326,
            perpendicular_distance_m: None,
        };
        let a = client.open_session(geometry, None).expect("open a");
        let b = client.open_session(geometry, None).expect("open b");
        assert_ne!(a, b);
        assert_ne!(b, a + 1, "ids must not be sequential");
        ids.push((a, b));
        client.shutdown().expect("shutdown");
        handle.join().expect("server exits");
    }
    assert_ne!(ids[0], ids[1], "different seeds must yield different id streams");
}

/// The crown jewel: a streaming session killed mid-stream recovers by
/// replaying into a restarted server on the same address, and the final
/// result is bit-identical to the offline pipeline.
#[test]
fn killed_server_session_replays_and_matches_the_offline_pipeline() {
    let input = synthetic_input(&[0.6, 1.1, 1.7], 0.3, 0.8);
    let offline = RelativeLocalizer::with_defaults().localize(&input).expect("offline");
    let geometry = SessionGeometry {
        nominal_speed_mps: input.nominal_speed_mps,
        wavelength_m: input.wavelength_m,
        perpendicular_distance_m: input.perpendicular_distance_m,
    };

    let service = LocalizationService::with_defaults();
    let server = StppServer::bind("127.0.0.1:0", service, ServerConfig::default()).expect("bind");
    let handle = server.spawn().expect("spawn");
    let addr = handle.addr();

    let policy = RetryPolicy {
        max_attempts: 8,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(20),
        jitter: 0.0,
        seed: 0,
        deadline: Duration::from_secs(2),
    };
    let client = ResilientClient::new(addr, policy);
    let mut session = ResilientSession::open(client, geometry, None);

    // Stream the reports in time order, batched per time step; kill the
    // server halfway through.
    let samples_per_tag = input.observations[0].profile.len();
    let kill_at = samples_per_tag / 2;
    let mut handle = Some(handle);
    for i in 0..samples_per_tag {
        if i == kill_at {
            handle.take().expect("first kill").kill().expect("kill");
            let service = LocalizationService::with_defaults();
            let server = StppServer::bind(addr, service, ServerConfig::default()).expect("rebind");
            handle = Some(server.spawn().expect("respawn"));
        }
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
        session.ingest(&reports).expect("ingest survives the crash");
    }
    let response =
        session.flush(true).expect("final flush").expect("a finished session yields a batch");
    assert_eq!(
        response.result, offline,
        "replayed session must match the offline pipeline bit-for-bit"
    );
    assert!(session.reopens() >= 1, "the kill must have forced at least one replay");

    let mut direct = StppClient::connect(addr).expect("direct");
    direct.shutdown().expect("shutdown");
    handle.take().expect("handle").join().expect("server exits");
}
