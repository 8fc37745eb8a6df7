//! The blocking-I/O TCP server over [`LocalizationService`].
//!
//! One [`StppServer`] owns one service (and therefore one persistent
//! detection pool and one geometry-keyed bank-cache LRU) and serves any
//! number of portal/shelf-reader connections. Each connection is a strict
//! request/response alternation handled on its own thread, so responses
//! always come back in request order; concurrency comes from connections
//! sharing the pool.
//!
//! ## Backpressure
//!
//! Detection work ([`Request::Localize`], [`Request::FlushSession`],
//! [`Request::Pause`]) passes an **admission queue** bounded by
//! [`ServerConfig::queue_depth`]: at most that many detection requests
//! may be admitted (queued on the pool or executing) at once. A request
//! arriving beyond the bound is rejected immediately with the typed
//! [`Response::Busy`] frame — the client sees the rejection in
//! microseconds instead of its request silently queueing without bound.
//! With `queue_depth > pool_workers`, admitted requests beyond the worker
//! count wait inside the pool's job queue; the admission bound caps that
//! wait list. Control-plane frames (stats, health, session ingestion,
//! open, drain, shutdown) bypass admission — they stay responsive under
//! full load.
//!
//! ## Sessions
//!
//! Streaming sessions live server-side, keyed by a **non-sequential**
//! id (a seeded splitmix64 of a private counter — ids are unique but not
//! guessable from one another, so a client cannot stumble into a
//! neighbour's session by off-by-one). Ingestion is cheap and
//! unthrottled; flushes run detection and are admission-controlled like
//! any localize call. A session idle longer than
//! [`ServerConfig::session_ttl`] is reaped by a background sweep
//! (counted in [`ServerStats::sessions_reaped`]); clients that outlive a
//! reap see the typed [`Response::UnknownSession`] and reopen. The same
//! sweep performs the opt-in [`ServerConfig::wallclock_quiescence`]
//! flushes.
//!
//! ## Fault tolerance
//!
//! * **I/O timeouts** — every connection socket gets
//!   [`ServerConfig::io_timeout`] on reads and writes, so a wedged or
//!   vanished peer can hold a connection thread for at most the timeout,
//!   never forever.
//! * **Accept failures** — a failed `accept` (say, the process is out of
//!   file descriptors) is skipped after a short pause; the listener keeps
//!   serving, and the connection waiting in the backlog is accepted once
//!   descriptors free up.
//! * **Panic isolation** — the request handler runs under
//!   [`std::panic::catch_unwind`]; a poisoned request produces a typed
//!   [`Response::InternalError`] frame (counted in
//!   [`ServerStats::internal_errors`]) and the connection keeps serving.
//!   The [`Request::Poison`] drill frame exists to prove it.
//! * **Graceful drain** — [`Request::Drain`] stops the acceptor,
//!   acknowledges with [`Response::Draining`], waits for in-flight work
//!   to finish, flushes every open session's quiescent tags, and returns
//!   from [`StppServer::serve`] cleanly. [`Request::Health`] reports
//!   uptime, queue depth, session counts, and drain state at any time.

use std::collections::HashMap;
use std::io::BufWriter;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use rfid_gen2::Epc;

use crate::proto::{read_frame, write_frame, HealthReport, Request, Response, ServerStats};
use crate::retry::splitmix64;
use crate::service::{LocalizationRequest, LocalizationService};
use crate::session::ServiceSession;

/// How long a drain waits for in-flight work before giving up and
/// returning anyway (a wedged detection must not make drain hang).
const DRAIN_GRACE: Duration = Duration::from_secs(10);
/// Pause after a failed `accept` before the acceptor tries again.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// Configuration of a [`StppServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Maximum detection requests admitted concurrently (queued or
    /// executing); beyond this, requests are rejected with
    /// [`Response::Busy`]. Clamped to at least 1.
    pub queue_depth: usize,
    /// Read/write timeout applied to every connection socket; `None`
    /// disables it (a wedged peer can then hold its connection thread
    /// indefinitely — only for trusted loopback tests).
    pub io_timeout: Option<Duration>,
    /// Idle time after which a streaming session is reaped by the
    /// background session sweep (counted in
    /// [`ServerStats::sessions_reaped`]); `None` disables reaping.
    pub session_ttl: Option<Duration>,
    /// Seed for the non-sequential session ids.
    pub session_seed: u64,
    /// Maximum concurrently open connections. A connection accepted at
    /// the limit is answered with the typed
    /// [`Response::TooManyConnections`] frame and closed (counted in
    /// [`ServerStats::connection_rejections`]); established connections
    /// are unaffected. Clamped to at least 1.
    pub max_connections: usize,
    /// This server's place in a sharded fleet; `None` (the default)
    /// serves every geometry. When set, the server builds the same
    /// consistent-hash ring as every [`FleetClient`](crate::fleet::FleetClient)
    /// and answers [`Request::Localize`] / [`Request::OpenSession`]
    /// frames whose geometry key belongs to a *different* shard with
    /// [`Response::Redirect`] naming the owner — a misdirected request
    /// is bounced before admission instead of building cold banks here.
    pub shard: Option<crate::fleet::ShardIdentity>,
    /// Wall-clock quiescence flushing for streaming sessions (opt-in).
    /// When set, a session untouched for this long has its quiescent
    /// tags flushed server-side by the background session sweep — so a
    /// portal whose report *stream* stalls still gets its finished tags
    /// localized, even though the session's report-clock never
    /// advances. An idle session is flushed at most once per period.
    /// Flushes are counted in [`ServerStats::wallclock_flushes`];
    /// results surface through the warm service cache on the client's
    /// next flush. `None` (the default) keeps flushing purely
    /// client-driven.
    pub wallclock_quiescence: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_depth: 32,
            io_timeout: Some(Duration::from_secs(30)),
            session_ttl: Some(Duration::from_secs(600)),
            session_seed: 0,
            max_connections: 1024,
            shard: None,
            wallclock_quiescence: None,
        }
    }
}

/// A server-side session slot plus its idle clock.
struct SessionEntry {
    inner: Mutex<Option<ServiceSession>>,
    /// Milliseconds since server start of the last touch, for the TTL
    /// and wall-clock quiescence sweeps.
    last_touch_ms: AtomicU64,
    /// Milliseconds since server start of the last wall-clock quiescence
    /// flush, so an idle session is flushed once per period rather than
    /// on every sweep, and flushing never resets the TTL idle clock.
    last_flush_ms: AtomicU64,
}

/// State shared by the acceptor, the session sweep and every connection
/// thread.
struct ServerState {
    service: Arc<LocalizationService>,
    queue_depth: usize,
    io_timeout: Option<Duration>,
    session_ttl: Option<Duration>,
    session_seed: u64,
    max_connections: usize,
    /// The fleet ring plus this server's own shard index, when sharded
    /// (built once at bind from [`ServerConfig::shard`]).
    shard: Option<(crate::fleet::ShardRouter, u32)>,
    wallclock_quiescence: Option<Duration>,
    started: Instant,
    sessions: Mutex<HashMap<u64, Arc<SessionEntry>>>,
    next_session: AtomicU64,
    in_flight: AtomicUsize,
    busy_rejections: AtomicU64,
    requests: AtomicU64,
    connections: AtomicU64,
    connections_open: AtomicU64,
    connection_rejections: AtomicU64,
    wallclock_flushes: AtomicU64,
    sessions_reaped: AtomicU64,
    internal_errors: AtomicU64,
    shutdown: AtomicBool,
    draining: AtomicBool,
    /// Live connection sockets, so [`ServerHandle::kill`] can tear them
    /// down abruptly (the crash drill).
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
}

/// An RAII connection-gauge increment; dropping it marks the connection
/// closed however the serving loop exits.
struct ConnGauge<'a>(&'a ServerState);

impl<'a> ConnGauge<'a> {
    /// Claims a connection slot against [`ServerConfig::max_connections`],
    /// or counts the rejection when full.
    fn try_open(state: &'a ServerState) -> Option<ConnGauge<'a>> {
        let opened = state
            .connections_open
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < state.max_connections as u64).then_some(n + 1)
            })
            .is_ok();
        if !opened {
            state.connection_rejections.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        state.connections.fetch_add(1, Ordering::Relaxed);
        Some(ConnGauge(state))
    }
}

impl Drop for ConnGauge<'_> {
    fn drop(&mut self) {
        self.0.connections_open.fetch_sub(1, Ordering::SeqCst);
    }
}

/// An RAII admission slot; dropping it releases the slot — including
/// when a panic unwinds through the handler.
struct AdmissionSlot<'a>(&'a ServerState);

impl Drop for AdmissionSlot<'_> {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

impl ServerState {
    /// Tries to occupy one admission slot.
    fn try_admit(&self) -> Option<AdmissionSlot<'_>> {
        let admitted = self
            .in_flight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.queue_depth).then_some(n + 1)
            })
            .is_ok();
        if admitted {
            Some(AdmissionSlot(self))
        } else {
            self.busy_rejections.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn server_stats(&self) -> ServerStats {
        ServerStats {
            in_flight: self.in_flight.load(Ordering::SeqCst) as u64,
            queue_depth: self.queue_depth as u64,
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            sessions_open: self.sessions.lock().expect("session table poisoned").len() as u64,
            pool_workers: self.service.pool_workers() as u64,
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            sessions_reaped: self.sessions_reaped.load(Ordering::Relaxed),
            internal_errors: self.internal_errors.load(Ordering::Relaxed),
            connections_open: self.connections_open.load(Ordering::SeqCst),
            connection_rejections: self.connection_rejections.load(Ordering::Relaxed),
            wallclock_flushes: self.wallclock_flushes.load(Ordering::Relaxed),
        }
    }

    fn health(&self) -> HealthReport {
        HealthReport {
            uptime_seconds: self.started.elapsed().as_secs_f64(),
            draining: self.draining.load(Ordering::SeqCst),
            in_flight: self.in_flight.load(Ordering::SeqCst) as u64,
            queue_depth: self.queue_depth as u64,
            sessions_open: self.sessions.lock().expect("session table poisoned").len() as u64,
            sessions_reaped: self.sessions_reaped.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            connections_open: self.connections_open.load(Ordering::SeqCst),
            connection_rejections: self.connection_rejections.load(Ordering::Relaxed),
        }
    }

    /// When this server is a fleet member and `key` belongs to a
    /// different shard, the owner to redirect to.
    fn misdirected(&self, key: crate::service::GeometryKey) -> Option<u64> {
        let (router, me) = self.shard.as_ref()?;
        let owner = router.shard_for(&key);
        (owner != *me).then_some(owner as u64)
    }

    /// Removes every session idle longer than the TTL.
    fn reap_idle_sessions(&self, ttl: Duration) {
        let now_ms = self.uptime_ms();
        let ttl_ms = ttl.as_millis() as u64;
        let mut table = self.sessions.lock().expect("session table poisoned");
        let before = table.len();
        table.retain(|_, entry| {
            now_ms.saturating_sub(entry.last_touch_ms.load(Ordering::Relaxed)) <= ttl_ms
        });
        let reaped = (before - table.len()) as u64;
        if reaped > 0 {
            self.sessions_reaped.fetch_add(reaped, Ordering::Relaxed);
        }
    }

    /// Flushes the quiescent tags of every session untouched — by a
    /// request or by an earlier flush — for at least `period`. Each flush
    /// runs under [`catch_unwind`], so a panicking detection costs that
    /// one flush, not the sweep thread. Outcomes are discarded (no client
    /// asked); the localized batch still warmed the service cache and
    /// left the session, exactly like a drain-time flush.
    fn flush_idle_sessions(&self, period: Duration) {
        let now_ms = self.uptime_ms();
        let period_ms = period.as_millis() as u64;
        let due: Vec<Arc<SessionEntry>> = self
            .sessions
            .lock()
            .expect("session table poisoned")
            .values()
            .filter(|entry| {
                let last = entry
                    .last_touch_ms
                    .load(Ordering::Relaxed)
                    .max(entry.last_flush_ms.load(Ordering::Relaxed));
                now_ms.saturating_sub(last) >= period_ms
            })
            .cloned()
            .collect();
        for entry in due {
            entry.last_flush_ms.store(now_ms, Ordering::Relaxed);
            let flushed = catch_unwind(AssertUnwindSafe(|| {
                let mut guard = entry.inner.lock().expect("session poisoned");
                guard.as_mut().map(|active| active.flush_quiescent()).is_some()
            }))
            .unwrap_or(false);
            if flushed {
                self.wallclock_flushes.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Drains every remaining session's quiescent tags (drain-time
    /// best-effort flush; outcomes have no client to go to).
    fn flush_all_sessions(&self) {
        let entries: Vec<Arc<SessionEntry>> =
            self.sessions.lock().expect("session table poisoned").drain().map(|(_, e)| e).collect();
        for entry in entries {
            let mut guard = entry.inner.lock().expect("session poisoned");
            if let Some(active) = guard.as_mut() {
                let _ = active.flush_quiescent();
            }
        }
    }
}

/// A bound, not-yet-serving STPP TCP server (see the module docs).
pub struct StppServer {
    listener: TcpListener,
    state: Arc<ServerState>,
}

/// Handle to a server running on a background thread (see
/// [`StppServer::spawn`]).
pub struct ServerHandle {
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the server to stop (a client must send
    /// [`Request::Shutdown`] or [`Request::Drain`] for that to happen).
    pub fn join(self) -> std::io::Result<()> {
        self.thread.join().expect("server thread panicked")
    }

    /// Kills the server abruptly — the crash drill. Every live
    /// connection socket is torn down mid-whatever-it-was-doing, the
    /// acceptor stops, and open sessions are lost exactly as a real
    /// crash would lose them. The listener port is freed on return, so a
    /// replacement server can bind the same address immediately.
    pub fn kill(self) -> std::io::Result<()> {
        self.state.shutdown.store(true, Ordering::SeqCst);
        wake_acceptor(self.addr);
        let conns: Vec<TcpStream> = {
            let mut table = self.state.conns.lock().expect("connection table poisoned");
            table.drain().map(|(_, s)| s).collect()
        };
        for stream in conns {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        self.thread.join().expect("server thread panicked")
    }
}

impl StppServer {
    /// Binds a listener and wires it to the service. `127.0.0.1:0` picks
    /// an ephemeral port (see [`local_addr`](Self::local_addr)).
    ///
    /// # Errors
    ///
    /// Any error of binding the listener.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<LocalizationService>,
        config: ServerConfig,
    ) -> std::io::Result<StppServer> {
        let listener = TcpListener::bind(addr)?;
        Ok(StppServer {
            listener,
            state: Arc::new(ServerState {
                service,
                queue_depth: config.queue_depth.max(1),
                io_timeout: config.io_timeout,
                session_ttl: config.session_ttl,
                session_seed: config.session_seed,
                max_connections: config.max_connections.max(1),
                shard: config.shard.map(|identity| (identity.router(), identity.index)),
                wallclock_quiescence: config.wallclock_quiescence,
                started: Instant::now(),
                sessions: Mutex::new(HashMap::new()),
                next_session: AtomicU64::new(0),
                in_flight: AtomicUsize::new(0),
                busy_rejections: AtomicU64::new(0),
                requests: AtomicU64::new(0),
                connections: AtomicU64::new(0),
                connections_open: AtomicU64::new(0),
                connection_rejections: AtomicU64::new(0),
                wallclock_flushes: AtomicU64::new(0),
                sessions_reaped: AtomicU64::new(0),
                internal_errors: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
                draining: AtomicBool::new(false),
                conns: Mutex::new(HashMap::new()),
                next_conn: AtomicU64::new(0),
            }),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves connections, one thread each, until a client sends
    /// [`Request::Shutdown`] or [`Request::Drain`]; blocks until then. A
    /// drain additionally waits for in-flight work (bounded by an
    /// internal grace period) and flushes every open session before
    /// returning.
    ///
    /// # Errors
    ///
    /// Only an error reading the listener's own address; a failed
    /// `accept` is skipped and the listener keeps serving.
    pub fn serve(self) -> std::io::Result<()> {
        let local_addr = self.listener.local_addr()?;
        spawn_session_sweeper(Arc::clone(&self.state));
        for stream in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else {
                // Transient (out of descriptors, a peer that reset while
                // queued): the pending connection stays in the backlog,
                // so pause instead of spinning, then accept again.
                thread::sleep(ACCEPT_RETRY);
                continue;
            };
            let state = self.state.clone();
            thread::spawn(move || handle_connection(&state, stream, local_addr));
        }
        if self.state.draining.load(Ordering::SeqCst) {
            // Finish in-flight work (bounded), then flush what sessions
            // still hold, so a drained server exits with nothing queued.
            let deadline = Instant::now() + DRAIN_GRACE;
            while self.state.in_flight.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
                thread::sleep(Duration::from_millis(2));
            }
            self.state.flush_all_sessions();
        }
        Ok(())
    }

    /// Runs [`serve`](Self::serve) on a background thread and returns a
    /// handle carrying the bound address — the one-liner examples and
    /// tests use.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let state = Arc::clone(&self.state);
        let thread = thread::spawn(move || self.serve());
        Ok(ServerHandle { addr, thread, state })
    }
}

/// Starts the background session sweep when [`ServerConfig::session_ttl`]
/// or [`ServerConfig::wallclock_quiescence`] is set. Each tick reaps the
/// sessions idle past the TTL, then flushes the sessions idle for the
/// quiescence period; the thread exits when the server shuts down. It
/// ticks at the shorter of the two settings' cadences — a quarter of the
/// setting, floor 10 ms, cap 250 ms so shutdown lag stays small — so a
/// session outlives its TTL, or waits for its flush, by about a quarter
/// of the setting at most, plus the time the tick's earlier flushes take.
fn spawn_session_sweeper(state: Arc<ServerState>) {
    let cadence =
        |d: Duration| (d / 4).clamp(Duration::from_millis(10), Duration::from_millis(250));
    let settings = state.session_ttl.into_iter().chain(state.wallclock_quiescence);
    let Some(tick) = settings.map(cadence).min() else {
        return;
    };
    thread::spawn(move || {
        while !state.shutdown.load(Ordering::SeqCst) {
            thread::sleep(tick);
            if let Some(ttl) = state.session_ttl {
                state.reap_idle_sessions(ttl);
            }
            if let Some(period) = state.wallclock_quiescence {
                state.flush_idle_sessions(period);
            }
        }
    });
}

/// Connects to the (possibly wildcard-bound) acceptor once so a blocked
/// `accept` observes the shutdown flag.
fn wake_acceptor(local_addr: SocketAddr) {
    let mut wake_addr = local_addr;
    if wake_addr.ip().is_unspecified() {
        wake_addr.set_ip(match wake_addr {
            SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
            SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
        });
    }
    let _ = TcpStream::connect_timeout(&wake_addr, Duration::from_secs(1));
}

/// The per-connection request/response loop. Any protocol error tears the
/// connection down (the peer is misbehaving or gone); the server itself
/// keeps serving. A handler panic does *not* tear it down — it is caught
/// and answered with [`Response::InternalError`].
fn handle_connection(state: &ServerState, stream: TcpStream, local_addr: SocketAddr) {
    let Some(_gauge) = ConnGauge::try_open(state) else {
        // Over the connection limit: answer with the typed rejection and
        // close. Best-effort — a peer that vanished mid-handshake just
        // sees the close.
        let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
        let mut writer = BufWriter::new(stream);
        let _ = write_frame(
            &mut writer,
            &Response::TooManyConnections { limit: state.max_connections as u64 },
        );
        return;
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(state.io_timeout);
    let _ = stream.set_write_timeout(state.io_timeout);
    // Register the socket so a kill() can cut this connection loose even
    // while it blocks in read.
    let conn_id = state.next_conn.fetch_add(1, Ordering::Relaxed);
    if let Ok(clone) = stream.try_clone() {
        state.conns.lock().expect("connection table poisoned").insert(conn_id, clone);
    }
    // Reads and writes share the one descriptor through `&TcpStream`.
    let mut reader = &stream;
    let mut writer = BufWriter::new(&stream);
    loop {
        let request = match read_frame::<_, Request>(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => break, // clean disconnect
            Err(_) => break,   // malformed, timed out, or gone peer
        };
        state.requests.fetch_add(1, Ordering::Relaxed);
        let ends_server = matches!(request, Request::Shutdown | Request::Drain);
        // Panic isolation: a poisoned request must answer with a typed
        // frame, not kill this thread mid-exchange. Admission slots are
        // RAII, so an unwinding handler still releases its slot.
        let response = catch_unwind(AssertUnwindSafe(|| handle_request(state, request)))
            .unwrap_or_else(|panic| {
                state.internal_errors.fetch_add(1, Ordering::Relaxed);
                Response::InternalError { reason: panic_reason(panic.as_ref()) }
            });
        if write_frame(&mut writer, &response).is_err() {
            break;
        }
        if ends_server {
            // Wake the blocked acceptor so `serve` observes the flag.
            wake_acceptor(local_addr);
            break;
        }
    }
    state.conns.lock().expect("connection table poisoned").remove(&conn_id);
}

/// Best-effort rendering of a panic payload for the wire.
fn panic_reason(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "handler panicked".to_string()
    }
}

/// Answers one request.
fn handle_request(state: &ServerState, request: Request) -> Response {
    match request {
        Request::Localize { input, threads } => {
            // Ownership gate before admission: a bounced request must
            // neither occupy a detection slot nor build banks here.
            let key =
                crate::service::GeometryKey::for_request(&state.service.config().stpp, &input);
            if let Some(owner) = state.misdirected(key) {
                return Response::Redirect { shard: owner };
            }
            let Some(_slot) = state.try_admit() else {
                return Response::Busy { depth: state.queue_depth as u64 };
            };
            let request = LocalizationRequest {
                input: Arc::new(input),
                threads: threads.map(|t| t as usize),
            };
            match state.service.localize_request(request) {
                Ok(response) => Response::Localized { response },
                Err(error) => Response::Rejected { error },
            }
        }
        Request::OpenSession { geometry, quiescence_s } => {
            // Sessions are pinned to the shard owning their geometry —
            // every batch the session flushes resolves to the same key.
            let key =
                crate::service::GeometryKey::for_session(&state.service.config().stpp, &geometry);
            if let Some(owner) = state.misdirected(key) {
                return Response::Redirect { shard: owner };
            }
            let opened = match quiescence_s {
                Some(q) => state.service.open_session_with_quiescence(geometry, q),
                None => state.service.open_session(geometry),
            };
            let session_handle = match opened {
                Ok(session) => session,
                // No session was created, so there is no id to carry;
                // the caller correlates the rejection with its
                // `OpenSession` request, not with the placeholder id.
                Err(error) => return Response::IngestRejected { session: 0, error },
            };
            // A seeded splitmix64 of a private counter: unique (the mix
            // is a bijection) but non-sequential, so one session id
            // reveals nothing about its neighbours.
            let counter = state.next_session.fetch_add(1, Ordering::Relaxed) + 1;
            let id = splitmix64(state.session_seed ^ counter);
            let entry = Arc::new(SessionEntry {
                inner: Mutex::new(Some(session_handle)),
                last_touch_ms: AtomicU64::new(state.uptime_ms()),
                last_flush_ms: AtomicU64::new(state.uptime_ms()),
            });
            state.sessions.lock().expect("session table poisoned").insert(id, entry);
            Response::SessionOpened { session: id }
        }
        Request::IngestReports { session, reports } => {
            let Some(entry) = lookup_session(state, session) else {
                return Response::UnknownSession { session };
            };
            let mut guard = entry.inner.lock().expect("session poisoned");
            let Some(active) = guard.as_mut() else {
                return Response::UnknownSession { session };
            };
            for report in &reports {
                if let Err(error) = active.ingest_sample(
                    Epc::from_serial(report.epc_serial),
                    report.time_s,
                    report.phase_rad,
                ) {
                    // Earlier reports of this frame stay ingested; the
                    // client learns exactly which constraint failed.
                    return Response::IngestRejected { session, error };
                }
            }
            Response::Ingested { session, pending: active.pending_tags() as u64 }
        }
        Request::FlushSession { session, finish } => {
            let Some(_slot) = state.try_admit() else {
                return Response::Busy { depth: state.queue_depth as u64 };
            };
            let Some(entry) = lookup_session(state, session) else {
                return Response::UnknownSession { session };
            };
            let mut guard = entry.inner.lock().expect("session poisoned");
            if guard.is_none() {
                return Response::UnknownSession { session };
            }
            let flushed = if finish {
                let active = guard.take().expect("session checked above");
                state.sessions.lock().expect("session table poisoned").remove(&session);
                active.finish()
            } else {
                guard.as_mut().expect("session checked above").flush_quiescent()
            };
            match flushed {
                Ok(outcome) => Response::Flushed { session, outcome },
                Err(error) => Response::Rejected { error },
            }
        }
        Request::Provisional { session } => {
            // Control plane, like ingestion: the incremental update is
            // cheap (only samples since the last poll are folded in) and
            // a saturated admission queue must not block an operator's
            // mid-stream view.
            let Some(entry) = lookup_session(state, session) else {
                return Response::UnknownSession { session };
            };
            let mut guard = entry.inner.lock().expect("session poisoned");
            let Some(active) = guard.as_mut() else {
                return Response::UnknownSession { session };
            };
            Response::Provisional { session, ordering: active.provisional() }
        }
        Request::Stats => {
            Response::Stats { service: state.service.stats(), server: state.server_stats() }
        }
        Request::Health => Response::Health { report: state.health() },
        Request::Pause { seconds } => {
            let Some(_slot) = state.try_admit() else {
                return Response::Busy { depth: state.queue_depth as u64 };
            };
            let seconds = if seconds.is_finite() { seconds.clamp(0.0, 10.0) } else { 0.0 };
            thread::sleep(Duration::from_secs_f64(seconds));
            Response::Paused
        }
        Request::Shutdown => {
            state.shutdown.store(true, Ordering::SeqCst);
            Response::ShuttingDown
        }
        Request::Drain => {
            state.draining.store(true, Ordering::SeqCst);
            state.shutdown.store(true, Ordering::SeqCst);
            Response::Draining
        }
        Request::Poison => {
            // The drill: panic on purpose so tests (and operators) can
            // verify panic isolation end to end.
            panic!("poison drill: deliberate handler panic");
        }
    }
}

fn lookup_session(state: &ServerState, session: u64) -> Option<Arc<SessionEntry>> {
    let entry = state.sessions.lock().expect("session table poisoned").get(&session).cloned();
    if let Some(entry) = &entry {
        entry.last_touch_ms.store(state.uptime_ms(), Ordering::Relaxed);
    }
    entry
}
