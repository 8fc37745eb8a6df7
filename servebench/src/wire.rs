//! The server under test and the closed-loop clients that load it.
//!
//! A run starts a real [`StppServer`] on loopback with
//! `ServerConfig::default()` over a `LocalizationService` with
//! `ServiceConfig::default()`, and drives it from [`CLIENTS`] threads with
//! one connection each. Every client sends its next request only after
//! the previous answer arrived: a library cart or an airport portal waits
//! for its ordering before it moves on.
//!
//! One closed-loop cycle serves every phase, untraced and traced. The
//! clients speak the proto layer's framing over a [`Conn`] — the calls
//! `StppClient` makes, into request and response buffers reused across
//! requests — so a traced connection can time encode, round trip and
//! decode apart and keep the bytes it exchanged. `StppClient` carries the
//! control frames (`Stats`, `Health`, `Shutdown`).

use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use stpp_serve::proto::{
    decode_frame, encode_frame, encode_localize_request_into, HEADER_LEN, MAX_FRAME_PAYLOAD,
};
use stpp_serve::{
    LocalizationResponse, LocalizationService, ProtoError, Request, Response, ServerConfig,
    ServerHandle, ServiceConfig, ServiceStats, StppClient, StppServer,
};

use crate::cli::Workload;
use crate::stats;
use crate::trace::{Open, Tracer};
use crate::workload::{Flush, Inputs, Stream, CLIENTS};

/// A server running on a background thread.
pub struct Server {
    handle: ServerHandle,
}

impl Server {
    /// Creates the service and binds the server on an ephemeral loopback
    /// port, both with their default configuration.
    pub fn start() -> Result<Server, String> {
        let service = LocalizationService::new(ServiceConfig::default());
        let server = StppServer::bind("127.0.0.1:0", service, ServerConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        Ok(Server { handle: server.spawn().map_err(|e| format!("spawn: {e}"))? })
    }

    fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Opens a control connection.
    pub fn control(&self) -> Result<StppClient, String> {
        StppClient::connect(self.addr()).map_err(|e| format!("connect: {e}"))
    }

    /// Asks the server to stop and waits until its serve loop returned.
    pub fn stop(self) -> Result<(), String> {
        self.control()?.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        self.handle.join().map_err(|e| format!("server exited with {e}"))
    }
}

/// What one client (or all of them, merged) saw.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed: transport errors, `Busy`, unexpected
    /// rejections, internal errors, answers unlike the reference.
    pub failed: u64,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
    /// The workload's ordering latency, seconds: the `Localize` round trip
    /// (library, airport) or the round trip of a flush that released tags
    /// (conveyor).
    pub latency_s: Vec<f64>,
    /// `Provisional` round trips, seconds (conveyor).
    pub poll_s: Vec<f64>,
    /// Tags localized in the answers.
    pub tags: u64,
    /// Reader reports whose requests all completed.
    pub reports: u64,
    /// Reference banks the answers report building.
    pub bank_builds: u64,
    /// The answers' own service time (`RequestMetrics::total_seconds`).
    pub service_s: Vec<f64>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
        self.latency_s.extend(other.latency_s);
        self.poll_s.extend(other.poll_s);
        self.tags += other.tags;
        self.reports += other.reports;
        self.bank_builds += other.bank_builds;
        self.service_s.extend(other.service_s);
    }

    /// Records an answer that carried a localization.
    pub fn answered(&mut self, response: &LocalizationResponse) {
        self.tags += response.metrics.localized as u64;
        self.bank_builds += response.metrics.bank_cache.builds;
        self.service_s.push(response.metrics.total_seconds);
    }
}

/// What a cycle sent: one `Localize` batch, or part of one belt stream,
/// each by its index in [`Inputs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Sent {
    /// `Inputs::batches[i]`.
    Batch(usize),
    /// `Inputs::streams[i]`.
    Stream(usize),
}

/// Client-side cost of one cycle, seconds and bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleCost {
    /// Encoding the requests.
    pub encode_s: f64,
    /// Writing the requests and reading the answers.
    pub round_trip_s: f64,
    /// Decoding the answers.
    pub decode_s: f64,
    /// Bytes of the request frames.
    pub request_bytes: usize,
    /// Reader samples the cycle sent.
    pub samples: usize,
}

/// One request and its answer as they crossed the wire.
pub struct Exchange {
    /// The request frame.
    pub request: Vec<u8>,
    /// The response frame.
    pub response: Vec<u8>,
    /// Write to last byte read, seconds.
    pub round_trip_s: f64,
}

/// The exchanges of one cycle, kept for the in-process replay of the
/// server half.
pub struct Cycle {
    /// The id its client spans carry; the replay's spans share it.
    pub request_id: u64,
    /// What the cycle sent.
    pub sent: Sent,
    /// Its exchanges, in order.
    pub exchanges: Vec<Exchange>,
}

/// What a traced connection records: spans, per-cycle costs, round trips
/// per batch and, when capturing, the bytes of the first cycle of each
/// batch and of the first pass of each stream.
pub struct Recorder {
    /// The connection's spans.
    pub tracer: Tracer,
    /// Client-side cost of every cycle.
    pub costs: Vec<CycleCost>,
    /// Kept cycles, in the order they ran.
    pub captured: Vec<Cycle>,
    /// `Localize` round trips per batch index, seconds.
    pub round_trips: BTreeMap<usize, Vec<f64>>,
    capture: bool,
    kept: BTreeSet<Sent>,
    request_base: u64,
    cycles: u64,
    open: Option<OpenCycle>,
    cost: CycleCost,
    exchanges: Vec<Exchange>,
}

/// The cycle a [`Recorder`] is in.
struct OpenCycle {
    span: Open,
    request_id: u64,
    sent: Sent,
    /// Whether its bytes are kept.
    keep: bool,
}

impl Recorder {
    /// A recorder with its own tracer; `tid` must be unique in the run.
    pub fn new(epoch: Instant, tid: u32, capture: bool) -> Recorder {
        Recorder {
            tracer: Tracer::new(epoch, tid),
            costs: Vec::new(),
            captured: Vec::new(),
            round_trips: BTreeMap::new(),
            capture,
            kept: BTreeSet::new(),
            request_base: u64::from(tid) << 32,
            cycles: 0,
            open: None,
            cost: CycleCost::default(),
            exchanges: Vec::new(),
        }
    }

    fn begin(&mut self, samples: usize, sent: Sent) {
        let request_id = self.request_base + self.cycles;
        self.cycles += 1;
        let keep = self.capture
            && match sent {
                Sent::Batch(_) => self.kept.insert(sent),
                Sent::Stream(_) => !self.kept.contains(&sent),
            };
        let span = self.tracer.begin("client.cycle", request_id);
        self.open = Some(OpenCycle { span, request_id, sent, keep });
        self.cost = CycleCost { samples, ..CycleCost::default() };
    }

    fn end(&mut self) {
        let open = self.open.take().expect("a cycle is open");
        self.tracer.end(open.span);
        self.costs.push(self.cost);
        if open.keep {
            let exchanges = std::mem::take(&mut self.exchanges);
            self.captured.push(Cycle { request_id: open.request_id, sent: open.sent, exchanges });
        }
    }

    fn request_id(&self) -> u64 {
        self.open.as_ref().map_or(0, |o| o.request_id)
    }

    fn note(
        &mut self,
        encode_s: f64,
        round_trip_s: f64,
        decode_s: f64,
        request: &[u8],
        response: &[u8],
    ) {
        let open = self.open.as_ref().expect("a cycle is open");
        let (sent, keep) = (open.sent, open.keep);
        self.cost.encode_s += encode_s;
        self.cost.round_trip_s += round_trip_s;
        self.cost.decode_s += decode_s;
        self.cost.request_bytes += request.len();
        if let Sent::Batch(batch) = sent {
            self.round_trips.entry(batch).or_default().push(round_trip_s);
        }
        if keep {
            self.exchanges.push(Exchange {
                request: request.to_vec(),
                response: response.to_vec(),
                round_trip_s,
            });
        }
    }
}

/// Writes one request frame and reads one whole response frame into
/// `response`.
fn round_trip(
    stream: &mut TcpStream,
    request: &[u8],
    response: &mut Vec<u8>,
) -> Result<(), String> {
    stream.write_all(request).map_err(|e| format!("write: {e}"))?;
    response.resize(HEADER_LEN, 0);
    stream.read_exact(response).map_err(|e| format!("read: {e}"))?;
    let len = u32::from_le_bytes(response[6..HEADER_LEN].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(format!("response payload of {len} bytes"));
    }
    response.resize(HEADER_LEN + len, 0);
    stream.read_exact(&mut response[HEADER_LEN..]).map_err(|e| format!("read: {e}"))
}

fn decode(response: &[u8]) -> Result<Response, String> {
    decode_frame::<Response>(response).map(|(r, _)| r).map_err(|e| format!("decode: {e}"))
}

/// Encodes `request` as one frame into `buf`, as `StppClient::request`
/// does.
fn frame_of(request: &Request, buf: &mut Vec<u8>) -> Result<(), ProtoError> {
    *buf = encode_frame(request)?;
    Ok(())
}

/// One client connection.
pub struct Conn {
    stream: TcpStream,
    request: Vec<u8>,
    response: Vec<u8>,
    /// Present on a traced connection.
    recorder: Option<Recorder>,
}

impl Conn {
    fn connect(addr: SocketAddr, recorder: Option<Recorder>) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| format!("timeout: {e}"))?;
        Ok(Conn { stream, request: Vec::new(), response: Vec::new(), recorder })
    }

    fn begin(&mut self, samples: usize, sent: Sent) {
        if let Some(recorder) = &mut self.recorder {
            recorder.begin(samples, sent);
        }
    }

    fn end(&mut self) {
        if let Some(recorder) = &mut self.recorder {
            recorder.end();
        }
    }

    /// Marks a stream as gone through once, so its later passes are not
    /// kept.
    fn stream_done(&mut self, stream: usize) {
        if let Some(recorder) = &mut self.recorder {
            recorder.kept.insert(Sent::Stream(stream));
        }
    }

    /// Encodes a request with `encode` into the reused request buffer,
    /// sends it and decodes the answer; on a traced connection each step
    /// is a span of the open cycle.
    fn call(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>) -> Result<(), ProtoError>,
    ) -> Result<Response, String> {
        let Some(recorder) = &mut self.recorder else {
            encode(&mut self.request).map_err(|e| format!("encode: {e}"))?;
            round_trip(&mut self.stream, &self.request, &mut self.response)?;
            return decode(&self.response);
        };
        let id = recorder.request_id();
        let tracer = &mut recorder.tracer;
        let (encoded, encode_s) = tracer.time("client.encode", id, || encode(&mut self.request));
        encoded.map_err(|e| format!("encode: {e}"))?;
        let (exchanged, round_trip_s) = tracer.time("client.roundtrip", id, || {
            round_trip(&mut self.stream, &self.request, &mut self.response)
        });
        exchanged?;
        let (decoded, decode_s) = tracer.time("client.decode", id, || decode(&self.response));
        recorder.note(encode_s, round_trip_s, decode_s, &self.request, &self.response);
        decoded
    }
}

/// Sends batch `index` as one `Localize` request and checks its answer.
fn localize_once(conn: &mut Conn, inputs: &Inputs, index: usize, tally: &mut Tally) {
    let batch = &inputs.batches[index];
    tally.attempted += 1;
    conn.begin(batch.samples, Sent::Batch(index));
    let started = Instant::now();
    let reply = conn.call(|buf| encode_localize_request_into(&batch.input, None, buf));
    let round_trip = started.elapsed().as_secs_f64();
    conn.end();
    match (reply, &batch.reference) {
        (Ok(Response::Localized { response }), Ok(want)) if response.result == *want => {
            tally.latency_s.push(round_trip);
            tally.reports += batch.samples as u64;
            tally.answered(&response);
        }
        (Ok(Response::Localized { .. }), _) => {
            tally.fail("a Localize answer differs from the in-process reference".to_string())
        }
        (Ok(Response::Rejected { error }), Err(want)) if error == *want => {}
        (Ok(other), _) => tally.fail(format!("Localize answered {other:?}")),
        (Err(e), _) => tally.fail(format!("Localize: {e}")),
    }
}

/// Checks a flush answer against the session replay; `true` when it
/// matched.
fn flush_matches(reply: Result<Response, String>, want: &Flush, tally: &mut Tally) -> bool {
    match (reply, want) {
        (Ok(Response::Flushed { outcome: None, .. }), Flush::Empty) => true,
        (Ok(Response::Flushed { outcome: Some(response), .. }), Flush::Released(result))
            if response.result == *result =>
        {
            tally.answered(&response);
            true
        }
        (Ok(Response::Rejected { error }), Flush::Rejected(want)) if error == *want => true,
        (reply, want) => {
            let got = match reply {
                Ok(Response::Flushed { outcome: Some(_), .. }) => "a different localization".into(),
                other => format!("{other:?}"),
            };
            tally.fail(format!("flush answered {got}, the in-process session {want:?}"));
            false
        }
    }
}

/// Replays belt stream `index` through a fresh server-side session: per
/// frame `IngestReports`, `Provisional`, `FlushSession { finish: false }`,
/// then `FlushSession { finish: true }`. Stops at the first failure.
fn stream_once(conn: &mut Conn, inputs: &Inputs, index: usize, tally: &mut Tally) {
    let stream: &Stream = &inputs.streams[index];
    let sent = Sent::Stream(index);
    tally.attempted += 1;
    conn.begin(0, sent);
    let open = Request::OpenSession { geometry: stream.geometry, quiescence_s: None };
    let opened = conn.call(|buf| frame_of(&open, buf));
    conn.end();
    let session = match opened {
        Ok(Response::SessionOpened { session }) => session,
        other => return tally.fail(format!("OpenSession answered {other:?}")),
    };
    for (frame, want) in stream.frames.iter().zip(&stream.expected) {
        tally.attempted += 3;
        conn.begin(frame.len(), sent);
        let ingest = Request::IngestReports { session, reports: frame.clone() };
        let ingested = conn.call(|buf| frame_of(&ingest, buf));
        let started = Instant::now();
        let polled = conn.call(|buf| frame_of(&Request::Provisional { session }, buf));
        let poll_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let flush = Request::FlushSession { session, finish: false };
        let flushed = conn.call(|buf| frame_of(&flush, buf));
        let flush_s = started.elapsed().as_secs_f64();
        conn.end();
        match ingested {
            Ok(Response::Ingested { pending, .. }) if pending == want.pending => {}
            other => return tally.fail(format!("IngestReports answered {other:?}")),
        }
        match polled {
            Ok(Response::Provisional { ordering, .. }) if ordering == want.provisional => {
                tally.poll_s.push(poll_s)
            }
            Ok(Response::Provisional { .. }) => {
                return tally.fail("a Provisional answer differs from the session replay".into())
            }
            other => return tally.fail(format!("Provisional answered {other:?}")),
        }
        if !flush_matches(flushed, &want.flush, tally) {
            return;
        }
        if want.flush.released_tags() {
            tally.latency_s.push(flush_s);
        }
        tally.reports += frame.len() as u64;
    }
    tally.attempted += 1;
    let want = stream.finish.as_ref().expect("conveyor streams carry their finish answer");
    conn.begin(0, sent);
    let started = Instant::now();
    let finish = Request::FlushSession { session, finish: true };
    let finished = conn.call(|buf| frame_of(&finish, buf));
    let finish_s = started.elapsed().as_secs_f64();
    conn.end();
    conn.stream_done(index);
    if flush_matches(finished, want, tally) && want.released_tags() {
        tally.latency_s.push(finish_s);
    }
}

/// One closed-loop cycle of the workload for client `index`; `round` is
/// the cycle count so far. Library and airport clients walk the batches
/// from staggered starting points; each conveyor client replays its own
/// belt stream.
fn cycle(conn: &mut Conn, inputs: &Inputs, index: usize, round: usize, tally: &mut Tally) {
    match inputs.workload {
        Workload::LibraryShelf | Workload::AirportPortal => {
            let n = inputs.batches.len();
            localize_once(conn, inputs, (index * n / CLIENTS + round) % n, tally);
        }
        Workload::ConveyorStream => stream_once(conn, inputs, index, tally),
    }
}

/// Runs `f(client, index, tally)` on one thread per client and merges
/// their tallies.
fn run_clients<C: Send>(clients: &mut [C], f: impl Fn(&mut C, usize, &mut Tally) + Sync) -> Tally {
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(index, client)| {
                let f = &f;
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    f(client, index, &mut tally);
                    tally
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut total = Tally::default();
    for tally in tallies {
        total.merge(tally);
    }
    total
}

/// Length of one measured segment.
pub const SEGMENT: Duration = Duration::from_millis(500);

/// What a measured phase recorded.
#[derive(Default)]
pub struct Phase {
    /// Every client's tally.
    pub tally: Tally,
    /// Seconds spent inside segments.
    pub secs: f64,
    /// Process CPU time per reader report, microseconds, one value per
    /// segment that completed reports.
    pub cpu_us_per_report: Vec<f64>,
    /// The traced connections' recorders, in the order they ran.
    pub recorders: Vec<Recorder>,
}

impl Phase {
    /// Adds another phase into this one.
    pub fn merge(&mut self, other: Phase) {
        self.tally.merge(other.tally);
        self.secs += other.secs;
        self.cpu_us_per_report.extend(other.cpu_us_per_report);
        self.recorders.extend(other.recorders);
    }
}

/// The closed loop: every client runs cycles until `length` has passed;
/// `rounds` carries each client's cycle count across calls. `recorder`
/// gives each new connection its recorder (`None`: untraced).
///
/// The phase runs in [`SEGMENT`]s, each on fresh connections and fresh
/// client threads. Which CPUs the clients and their server-side
/// connection threads share decides how costly every wake-up is, and a
/// placement, once taken, tends to last; a new one per segment spreads
/// the run over many placements instead of betting it on one. Stops after
/// the first segment with a failure.
pub fn measure(
    server: &Server,
    inputs: &Inputs,
    length: Duration,
    rounds: &mut [usize; CLIENTS],
    mut recorder: impl FnMut() -> Option<Recorder>,
) -> Result<Phase, String> {
    let count = ((length.as_secs_f64() / SEGMENT.as_secs_f64()).round() as u32).max(1);
    let per_segment = length / count;
    let mut phase = Phase::default();
    for _ in 0..count {
        let mut clients: Vec<(Conn, &mut usize)> = rounds
            .iter_mut()
            .map(|round| Conn::connect(server.addr(), recorder()).map(|conn| (conn, round)))
            .collect::<Result<_, _>>()?;
        let cpu_started = stats::process_cpu_s();
        let started = Instant::now();
        let until = started + per_segment;
        let tally = run_clients(&mut clients, |(conn, round), index, tally| {
            while Instant::now() < until && tally.failed == 0 {
                cycle(conn, inputs, index, **round, tally);
                **round += 1;
            }
        });
        phase.secs += started.elapsed().as_secs_f64();
        if tally.reports > 0 {
            let cpu_s = stats::process_cpu_s() - cpu_started;
            phase.cpu_us_per_report.push(cpu_s * 1e6 / tally.reports as f64);
        }
        phase.recorders.extend(clients.into_iter().filter_map(|(conn, _)| conn.recorder));
        let failed = tally.failed > 0;
        phase.tally.merge(tally);
        if failed {
            break;
        }
    }
    Ok(phase)
}

/// What one set-up cost.
#[derive(Debug, Clone, Copy)]
pub struct SetUp {
    /// Wall seconds from creating the service until the last answer.
    pub wall_s: f64,
    /// CPU seconds the process used over the same span.
    pub cpu_s: f64,
}

/// Set-up: creates the service and server, connects the clients and sends
/// every distinct input once — the batches split across the clients, or
/// each conveyor client's stream once through. That answers every
/// (geometry, sampling interval) the workload uses, so the measured phase
/// builds no reference bank, and it is the same amount of work for every
/// seed. Returns the warm server and what setting it up cost.
pub fn set_up(inputs: &Inputs) -> Result<(Server, SetUp), String> {
    let cpu_started = stats::process_cpu_s();
    let started = Instant::now();
    let server = Server::start()?;
    let mut clients =
        (0..CLIENTS).map(|_| Conn::connect(server.addr(), None)).collect::<Result<Vec<_>, _>>()?;
    let tally = run_clients(&mut clients, |conn, index, tally| match inputs.workload {
        Workload::LibraryShelf | Workload::AirportPortal => {
            for i in (index..inputs.batches.len()).step_by(CLIENTS) {
                localize_once(conn, inputs, i, tally);
            }
        }
        Workload::ConveyorStream => stream_once(conn, inputs, index, tally),
    });
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = stats::process_cpu_s() - cpu_started;
    if tally.failed > 0 {
        return Err(format!("set-up traffic failed: {}", tally.errors.join("; ")));
    }
    Ok((server, SetUp { wall_s, cpu_s }))
}

/// What the server reports about itself after a measured phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerReport {
    /// `Busy` rejections since the server started.
    pub busy_rejections: u64,
    /// Handler panics answered with `InternalError` since start.
    pub internal_errors: u64,
    /// Geometry-registry lookups that hit, over the measured phase.
    pub geometry_hits: u64,
    /// Geometry-registry lookups, over the measured phase.
    pub geometry_lookups: u64,
}

/// The service counters before a measured phase.
pub fn service_stats(server: &Server) -> Result<ServiceStats, String> {
    Ok(server.control()?.stats().map_err(|e| format!("Stats: {e}"))?.0)
}

/// Reads the `Stats` and `Health` frames after a measured phase and lists
/// every way the server's state shows a problem: busy rejections, internal
/// errors, requests still in flight, sessions left open, or reference
/// banks built while measuring (`bank_builds`, as the answers report
/// them).
pub fn check_server(
    server: &Server,
    before: &ServiceStats,
    bank_builds: u64,
) -> Result<(ServerReport, Vec<String>), String> {
    let mut client = server.control()?;
    let (service, stats) = client.stats().map_err(|e| format!("Stats: {e}"))?;
    let health = client.health().map_err(|e| format!("Health: {e}"))?;
    let mut problems = Vec::new();
    if stats.busy_rejections > 0 {
        problems.push(format!("{} Busy rejections", stats.busy_rejections));
    }
    if stats.internal_errors > 0 {
        problems.push(format!("{} internal errors", stats.internal_errors));
    }
    if health.in_flight > 0 {
        problems.push(format!("{} requests still in flight", health.in_flight));
    }
    if health.sessions_open > 0 {
        problems.push(format!("{} sessions left open", health.sessions_open));
    }
    if bank_builds > 0 {
        problems.push(format!("{bank_builds} reference banks built while measuring"));
    }
    let geometry_hits = service.geometry_hits - before.geometry_hits;
    let geometry_lookups = geometry_hits + service.geometry_misses - before.geometry_misses;
    let report = ServerReport {
        busy_rejections: stats.busy_rejections,
        internal_errors: stats.internal_errors,
        geometry_hits,
        geometry_lookups,
    };
    Ok((report, problems))
}
