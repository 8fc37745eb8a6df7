//! The wire protocol: versioned, length-prefixed binary frames.
//!
//! Every message travels as one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  = b"STPP"
//! 4       2     version (u16 LE) = 1
//! 6       4     payload length N (u32 LE), N <= MAX_FRAME_PAYLOAD
//! 10      N     payload: the message in the tagged binary encoding
//! ```
//!
//! The payload is the message's `serde` data model in a compact tagged
//! binary encoding (one tag byte per value; `u64`/`i64` little-endian,
//! `f64` as its IEEE-754 **bit pattern**, strings and containers
//! length-prefixed, structs as maps keyed by field name, enum variants
//! externally tagged by name). Floats therefore round-trip bit-exactly —
//! the property the serving layer's "responses are bit-identical to the
//! in-process service" guarantee rests on.
//!
//! Encoding builds nothing in between: every frame is written straight
//! into its buffer from the message's [`Serialize`] events
//! ([`encode_frame`], and through it [`write_frame`];
//! [`encode_localize_request_into`] does the same over a borrowed
//! input).
//!
//! Decoding goes through the [`Message`] trait. The hot frames carry one
//! small map per phase sample, report or tag: the `Localize` and
//! `IngestReports` requests, and the `Localized`, `Flushed` and
//! `Provisional` responses. They are read straight into typed structs
//! from the bytes, in canonical field order. Every other variant decodes
//! through the derive-based [`Value`] tree.
//!
//! Clients send [`Request`] frames and read [`Response`] frames; a
//! connection is a strict request/response alternation, so responses come
//! back in request order. Malformed, truncated, or oversized frames
//! surface as a typed [`ProtoError`] — never a panic — and the
//! [`Response::Busy`] frame is the server's typed backpressure rejection
//! (see the [`server`](crate::server) module for the queue semantics).

use std::io::{Read, Write};

use serde::{Deserialize, Serialize, Serializer, Value};
use stpp_core::{LocalizationError, StppInput};

use crate::service::{LocalizationResponse, ServiceStats};
use crate::session::{IngestError, ProvisionalOrdering, SessionGeometry};

mod typed;

/// The 4-byte frame magic.
pub const MAGIC: [u8; 4] = *b"STPP";
/// The protocol version this build speaks.
pub const PROTOCOL_VERSION: u16 = 1;
/// Upper bound on a frame payload (64 MiB). Larger length prefixes are
/// rejected before any allocation, so a hostile peer cannot balloon the
/// server by lying about the length.
pub const MAX_FRAME_PAYLOAD: usize = 64 << 20;
/// Frame header size: magic + version + payload length.
pub const HEADER_LEN: usize = 10;
/// Maximum nesting depth a decoded payload may have (a hostile payload of
/// nested sequences must not blow the stack).
const MAX_DEPTH: usize = 64;

/// Typed protocol failures. Decoding never panics: every malformed input
/// maps onto one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The frame did not start with [`MAGIC`].
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The peer speaks a protocol version this build does not.
    UnsupportedVersion {
        /// The version actually found.
        found: u16,
    },
    /// The length prefix exceeds [`MAX_FRAME_PAYLOAD`].
    FrameTooLarge {
        /// The advertised payload length.
        len: u64,
    },
    /// The frame ended before its advertised length (or mid-header).
    Truncated,
    /// The payload bytes do not decode into the expected message.
    Malformed {
        /// What went wrong.
        reason: String,
    },
    /// An I/O error on the underlying stream.
    Io {
        /// The error kind.
        kind: std::io::ErrorKind,
        /// The error message.
        message: String,
    },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::BadMagic { found } => write!(f, "bad frame magic {found:?}"),
            ProtoError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported protocol version {found} (this build speaks {PROTOCOL_VERSION})"
                )
            }
            ProtoError::FrameTooLarge { len } => {
                write!(f, "frame payload of {len} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte cap")
            }
            ProtoError::Truncated => write!(f, "frame truncated"),
            ProtoError::Malformed { reason } => write!(f, "malformed frame payload: {reason}"),
            ProtoError::Io { kind, message } => write!(f, "i/o error ({kind:?}): {message}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io { kind: e.kind(), message: e.to_string() }
    }
}

/// One reader report on the wire: the minimal `(tag, time, phase)`
/// triple a portal forwards into a server-side streaming session.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WireReport {
    /// The tag's EPC serial number.
    pub epc_serial: u64,
    /// Time of the read, seconds since the start of the sweep.
    pub time_s: f64,
    /// RF phase in `[0, 2π)` radians.
    pub phase_rad: f64,
}

/// A client-to-server frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Localize one batch. Counts against the server's admission queue.
    Localize {
        /// The pipeline input.
        input: StppInput,
        /// Detection fanout override (`None` = server default).
        threads: Option<u64>,
    },
    /// Open a server-side streaming session.
    OpenSession {
        /// The deployment geometry the session localizes against.
        geometry: SessionGeometry,
        /// Quiescence window override, seconds (`None` = server default).
        quiescence_s: Option<f64>,
    },
    /// Ingest a batch of reader reports into a session (control plane:
    /// does not count against the admission queue).
    IngestReports {
        /// The session id from [`Response::SessionOpened`].
        session: u64,
        /// The reports, in stream order.
        reports: Vec<WireReport>,
    },
    /// Release a session's quiescent tags (or, with `finish`, everything)
    /// as one localization batch. Counts against the admission queue.
    FlushSession {
        /// The session id.
        session: u64,
        /// `true` ends the session, localizing every remaining tag.
        finish: bool,
    },
    /// Poll a session's provisional (mid-stream) X ordering. Control
    /// plane: an incremental per-tag update over the samples that arrived
    /// since the last poll, non-consuming, never rejected `Busy`. A
    /// compatible protocol extension (name-tagged variant, like
    /// [`Response::Redirect`]): decoders that predate it only fail if
    /// they actually receive one.
    Provisional {
        /// The session id.
        session: u64,
    },
    /// Fetch the service + server counters (control plane).
    Stats,
    /// Occupy one admission slot for the given duration without doing any
    /// work — a load-drill frame for capacity tests and backpressure
    /// drills (the `serving_net` example uses it to overfill the queue
    /// deterministically). Clamped server-side to 10 s.
    Pause {
        /// How long to hold the slot, seconds.
        seconds: f64,
    },
    /// Stop accepting new connections. In-flight connections finish their
    /// current exchanges.
    Shutdown,
    /// Graceful drain: stop accepting connections, let in-flight work
    /// finish, flush every open session's quiescent tags server-side,
    /// then exit the serve loop cleanly (control plane).
    Drain,
    /// Fetch the liveness/health report (control plane: answered even
    /// when the admission queue is full).
    Health,
    /// Deliberately panic inside the request handler — a drill proving
    /// panic isolation converts a poisoned request into a typed
    /// [`Response::InternalError`] instead of killing the connection
    /// thread (control plane).
    Poison,
}

/// The server's liveness report, answered to [`Request::Health`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct HealthReport {
    /// Seconds since the server started serving.
    pub uptime_seconds: f64,
    /// Whether a drain is in progress (new connections are refused).
    pub draining: bool,
    /// Detection requests currently admitted (queued or executing).
    pub in_flight: u64,
    /// The admission bound.
    pub queue_depth: u64,
    /// Streaming sessions currently open.
    pub sessions_open: u64,
    /// Idle sessions reaped by the TTL sweep so far.
    pub sessions_reaped: u64,
    /// Request frames handled so far.
    pub requests: u64,
    /// Connections currently open.
    pub connections_open: u64,
    /// Connections refused because the server's connection limit
    /// ([`ServerConfig::max_connections`](crate::ServerConfig::max_connections))
    /// was reached.
    pub connection_rejections: u64,
}

/// Server-level counters reported by [`Response::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ServerStats {
    /// Detection requests currently admitted (queued or executing).
    pub in_flight: u64,
    /// The admission bound: requests beyond this are rejected with
    /// [`Response::Busy`].
    pub queue_depth: u64,
    /// Requests rejected with [`Response::Busy`] so far.
    pub busy_rejections: u64,
    /// Streaming sessions currently open.
    pub sessions_open: u64,
    /// Persistent workers in the service's detection pool.
    pub pool_workers: u64,
    /// Connections accepted so far.
    pub connections: u64,
    /// Request frames handled so far.
    pub requests: u64,
    /// Idle sessions reaped by the TTL sweep so far.
    pub sessions_reaped: u64,
    /// Requests whose handler panicked and was converted into a typed
    /// [`Response::InternalError`].
    pub internal_errors: u64,
    /// Connections currently open.
    pub connections_open: u64,
    /// Connections refused because the server's connection limit was
    /// reached (each answered with [`Response::TooManyConnections`]).
    pub connection_rejections: u64,
    /// Server-initiated wall-clock quiescence flushes performed by the
    /// session sweep (0 unless `ServerConfig::wallclock_quiescence` is
    /// set).
    pub wallclock_flushes: u64,
}

/// A server-to-client frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The localization result + per-request metrics, bit-identical to
    /// the in-process [`LocalizationService`](crate::LocalizationService).
    Localized {
        /// Result and metrics.
        response: LocalizationResponse,
    },
    /// Typed backpressure rejection: the admission queue is full. Retry
    /// later (or shed load upstream).
    Busy {
        /// The server's admission bound, for client-side pacing.
        depth: u64,
    },
    /// The request was invalid (malformed input, no detections, …).
    Rejected {
        /// The pipeline's typed error.
        error: LocalizationError,
    },
    /// A session was opened.
    SessionOpened {
        /// Id to use in subsequent session frames.
        session: u64,
    },
    /// Reports were ingested.
    Ingested {
        /// The session id.
        session: u64,
        /// Tags currently accumulating in the session.
        pending: u64,
    },
    /// A report was rejected at the ingestion boundary. Reports earlier
    /// in the same frame stay ingested.
    IngestRejected {
        /// The session id.
        session: u64,
        /// The typed ingestion error.
        error: IngestError,
    },
    /// A flush completed. `outcome` is `None` when no tag was quiescent
    /// (or, for `finish`, the session never accumulated one).
    Flushed {
        /// The session id.
        session: u64,
        /// The localized batch, if any.
        outcome: Option<LocalizationResponse>,
    },
    /// The named session does not exist (never opened, or consumed by a
    /// `finish`).
    UnknownSession {
        /// The offending session id.
        session: u64,
    },
    /// A provisional ordering, answered to [`Request::Provisional`].
    /// Advisory: the authoritative result still arrives via
    /// [`Response::Flushed`], bit-identical to offline batch
    /// localization. A compatible protocol extension (see
    /// [`Response::Redirect`]).
    Provisional {
        /// The session id.
        session: u64,
        /// The provisional mid-stream ordering.
        ordering: ProvisionalOrdering,
    },
    /// The service and server counters.
    Stats {
        /// Service-level counters.
        service: ServiceStats,
        /// Server-level counters.
        server: ServerStats,
    },
    /// A [`Request::Pause`] completed.
    Paused,
    /// The server acknowledged [`Request::Shutdown`].
    ShuttingDown,
    /// The server acknowledged [`Request::Drain`] and is winding down.
    Draining,
    /// The liveness report.
    Health {
        /// The report.
        report: HealthReport,
    },
    /// The request handler panicked; panic isolation caught it, the
    /// connection survives, and this frame carries the panic message.
    InternalError {
        /// The panic payload, best-effort rendered.
        reason: String,
    },
    /// Typed over-limit rejection: the server already has its maximum
    /// number of connections open. The frame is written once on the
    /// excess connection, which is then closed; retry after backing off
    /// (existing connections are unaffected).
    TooManyConnections {
        /// The server's connection limit, for client-side pacing.
        limit: u64,
    },
    /// Shard-routing bounce: this server is part of a sharded fleet and
    /// the request's geometry key is owned by a *different* shard, so it
    /// refuses to serve the request cold and names the owner instead.
    /// Only servers configured with a
    /// [`ShardIdentity`](crate::fleet::ShardIdentity) ever emit it; a
    /// [`FleetClient`](crate::fleet::FleetClient) follows the bounce
    /// transparently. A compatible protocol extension: the enum encoding
    /// is tagged by variant name, so decoders that predate the variant
    /// only fail if they actually receive one.
    Redirect {
        /// The shard index that owns the request's geometry.
        shard: u64,
    },
}

// ---------------------------------------------------------------------------
// Tagged binary encoding
// ---------------------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_U64: u8 = 3;
const TAG_I64: u8 = 4;
const TAG_F64: u8 = 5;
const TAG_STR: u8 = 6;
const TAG_SEQ: u8 = 7;
const TAG_MAP: u8 = 8;

/// Writes [`Serializer`] events as the tagged binary payload, straight
/// into a frame buffer.
struct PayloadWriter<'a>(&'a mut Vec<u8>);

impl PayloadWriter<'_> {
    /// A tag byte and its 8-byte little-endian scalar, in one append.
    fn scalar(&mut self, tag: u8, bytes: [u8; 8]) {
        let mut item = [tag; 9];
        item[1..].copy_from_slice(&bytes);
        self.0.extend_from_slice(&item);
    }

    /// A tag byte and its `u32` count, in one append.
    fn container(&mut self, tag: u8, len: usize) {
        let mut header = [tag; 5];
        header[1..].copy_from_slice(&(len as u32).to_le_bytes());
        self.0.extend_from_slice(&header);
    }
}

impl Serializer for PayloadWriter<'_> {
    fn null(&mut self) {
        self.0.push(TAG_NULL);
    }

    fn bool(&mut self, value: bool) {
        self.0.push(if value { TAG_TRUE } else { TAG_FALSE });
    }

    fn u64(&mut self, value: u64) {
        self.scalar(TAG_U64, value.to_le_bytes());
    }

    fn i64(&mut self, value: i64) {
        self.scalar(TAG_I64, value.to_le_bytes());
    }

    fn f64(&mut self, value: f64) {
        self.scalar(TAG_F64, value.to_bits().to_le_bytes());
    }

    fn str(&mut self, value: &str) {
        self.0.push(TAG_STR);
        encode_bytes(value.as_bytes(), self.0);
    }

    fn seq(&mut self, len: usize) {
        self.container(TAG_SEQ, len);
    }

    fn map(&mut self, len: usize) {
        self.container(TAG_MAP, len);
    }

    fn key(&mut self, key: &str) {
        encode_bytes(key.as_bytes(), self.0);
    }
}

/// The encoder the frames used to go through: the whole [`Value`] tree
/// first, then its bytes. Kept as the oracle the direct writer is tested
/// against.
#[cfg(test)]
fn encode_value(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::U64(n) => {
            out.push(TAG_U64);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::I64(n) => {
            out.push(TAG_I64);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::F64(x) => {
            out.push(TAG_F64);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            encode_bytes(s.as_bytes(), out);
        }
        Value::Seq(items) => {
            out.push(TAG_SEQ);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Map(entries) => {
            out.push(TAG_MAP);
            out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for (key, val) in entries {
                encode_bytes(key.as_bytes(), out);
                encode_value(val, out);
            }
        }
    }
}

fn encode_bytes(bytes: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Cursor over a payload slice; every read is bounds-checked.
struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).ok_or(ProtoError::Truncated)?;
        if end > self.bytes.len() {
            return Err(ProtoError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Bytes not read yet.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Rejects bytes left over after a complete message.
    fn finish(&self) -> Result<(), ProtoError> {
        match self.remaining() {
            0 => Ok(()),
            left => Err(ProtoError::Malformed { reason: format!("{left} trailing payload bytes") }),
        }
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn str(&mut self) -> Result<String, ProtoError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ProtoError::Malformed { reason: "invalid UTF-8 string".into() })
    }

    /// A container claiming `count` elements must have at least one byte
    /// of payload per element left — rejects length bombs before any
    /// allocation grows.
    fn check_count(&self, count: u32) -> Result<usize, ProtoError> {
        let count = count as usize;
        if count > self.remaining() {
            return Err(ProtoError::Truncated);
        }
        Ok(count)
    }

    fn value(&mut self, depth: usize) -> Result<Value, ProtoError> {
        if depth > MAX_DEPTH {
            return Err(ProtoError::Malformed {
                reason: format!("nesting deeper than {MAX_DEPTH}"),
            });
        }
        match self.u8()? {
            TAG_NULL => Ok(Value::Null),
            TAG_FALSE => Ok(Value::Bool(false)),
            TAG_TRUE => Ok(Value::Bool(true)),
            TAG_U64 => Ok(Value::U64(self.u64()?)),
            TAG_I64 => Ok(Value::I64(self.u64()? as i64)),
            TAG_F64 => Ok(Value::F64(f64::from_bits(self.u64()?))),
            TAG_STR => Ok(Value::Str(self.str()?)),
            TAG_SEQ => {
                let raw = self.u32()?;
                let count = self.check_count(raw)?;
                let mut items = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    items.push(self.value(depth + 1)?);
                }
                Ok(Value::Seq(items))
            }
            TAG_MAP => {
                let raw = self.u32()?;
                let count = self.check_count(raw)?;
                let mut entries = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    let key = self.str()?;
                    let val = self.value(depth + 1)?;
                    entries.push((key, val));
                }
                Ok(Value::Map(entries))
            }
            tag => Err(ProtoError::Malformed { reason: format!("unknown value tag {tag}") }),
        }
    }
}

// ---------------------------------------------------------------------------
// Frame encode / decode
// ---------------------------------------------------------------------------

/// Encodes a message into one complete frame (header + payload). An
/// oversized payload is a typed error in release builds too — sending it
/// anyway would either tear the connection down peer-side
/// ([`ProtoError::FrameTooLarge`] there) or, past `u32::MAX`, wrap the
/// length prefix and desync the stream.
pub fn encode_frame<T: Serialize>(message: &T) -> Result<Vec<u8>, ProtoError> {
    let mut frame = Vec::with_capacity(256);
    encode_frame_into(message, &mut frame)?;
    Ok(frame)
}

/// Encodes a message as one frame into `buf`, replacing its contents: the
/// header, then the payload streamed straight from the message's
/// [`Serialize`] events.
fn encode_frame_into<T: Serialize>(message: &T, buf: &mut Vec<u8>) -> Result<(), ProtoError> {
    buf.clear();
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    // Payload length; patched once the payload is written.
    buf.extend_from_slice(&0u32.to_le_bytes());
    message.serialize(&mut PayloadWriter(buf));
    let payload_len = buf.len() - HEADER_LEN;
    if payload_len > MAX_FRAME_PAYLOAD {
        return Err(ProtoError::FrameTooLarge { len: payload_len as u64 });
    }
    buf[6..HEADER_LEN].copy_from_slice(&(payload_len as u32).to_le_bytes());
    Ok(())
}

/// Validates a frame header (magic, version, length cap) and returns the
/// payload length. Shared by the slice and stream decoders.
fn validate_header(header: &[u8; HEADER_LEN]) -> Result<usize, ProtoError> {
    let found: [u8; 4] = header[0..4].try_into().expect("4 bytes");
    if found != MAGIC {
        return Err(ProtoError::BadMagic { found });
    }
    let version = u16::from_le_bytes(header[4..6].try_into().expect("2 bytes"));
    if version != PROTOCOL_VERSION {
        return Err(ProtoError::UnsupportedVersion { found: version });
    }
    let payload_len = u32::from_le_bytes(header[6..10].try_into().expect("4 bytes")) as usize;
    if payload_len > MAX_FRAME_PAYLOAD {
        return Err(ProtoError::FrameTooLarge { len: payload_len as u64 });
    }
    Ok(payload_len)
}

/// A message that frames decode into: [`Request`] or [`Response`]. The
/// slice and stream decoders both hand the complete payload to
/// [`decode_payload`](Self::decode_payload).
pub trait Message: Sized {
    /// Decodes one complete frame payload.
    fn decode_payload(payload: &[u8]) -> Result<Self, ProtoError>;
}

/// `Localize` and `IngestReports` are read straight into typed structs;
/// every other variant goes through the derive-based tree.
impl Message for Request {
    fn decode_payload(payload: &[u8]) -> Result<Self, ProtoError> {
        typed::decode_hot_request(payload).unwrap_or_else(|| decode_tree(payload))
    }
}

/// `Localized`, `Flushed` and `Provisional` are read straight into typed
/// structs; every other variant goes through the derive-based tree.
impl Message for Response {
    fn decode_payload(payload: &[u8]) -> Result<Self, ProtoError> {
        typed::decode_hot_response(payload).unwrap_or_else(|| decode_tree(payload))
    }
}

/// Decodes a payload through the derive path: the whole [`Value`] tree
/// first, then the message from the tree.
fn decode_tree<T: Deserialize>(payload: &[u8]) -> Result<T, ProtoError> {
    let mut decoder = Decoder { bytes: payload, pos: 0 };
    let value = decoder.value(0)?;
    decoder.finish()?;
    T::from_value(&value).map_err(|e| ProtoError::Malformed { reason: e.to_string() })
}

/// Decodes one frame from the front of `bytes`, returning the message and
/// the number of bytes consumed. Trailing bytes (the next frame) are left
/// untouched.
pub fn decode_frame<T: Message>(bytes: &[u8]) -> Result<(T, usize), ProtoError> {
    if bytes.len() < HEADER_LEN {
        return Err(ProtoError::Truncated);
    }
    let header: [u8; HEADER_LEN] = bytes[0..HEADER_LEN].try_into().expect("header bytes");
    let payload_len = validate_header(&header)?;
    let end = HEADER_LEN + payload_len;
    if bytes.len() < end {
        return Err(ProtoError::Truncated);
    }
    let message = T::decode_payload(&bytes[HEADER_LEN..end])?;
    Ok((message, end))
}

/// Encodes a [`Request::Localize`] frame directly from a *borrowed*
/// input into a reusable buffer, byte-identical to
/// [`encode_frame`]`(&Request::Localize { input: input.clone(), .. })`
/// but without cloning the observations. High-volume clients (the
/// scenario harness's wire runner, bench loops) call this once per
/// request with the same scratch buffer, so steady-state encoding
/// allocates nothing.
pub fn encode_localize_request_into(
    input: &StppInput,
    threads: Option<u64>,
    buf: &mut Vec<u8>,
) -> Result<(), ProtoError> {
    encode_frame_into(&LocalizeRef { input, threads }, buf)
}

/// [`Request::Localize`] over a borrowed input. It emits the events of
/// the derived encoding of the owned variant, so the bytes are the same;
/// a proptest pins that.
struct LocalizeRef<'a> {
    input: &'a StppInput,
    threads: Option<u64>,
}

impl Serialize for LocalizeRef<'_> {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        out.map(1);
        out.key("Localize");
        out.map(2);
        out.key("input");
        self.input.serialize(out);
        out.key("threads");
        self.threads.serialize(out);
    }
}

/// Writes one frame to a stream.
pub fn write_frame<W: Write, T: Serialize>(writer: &mut W, message: &T) -> Result<(), ProtoError> {
    writer.write_all(&encode_frame(message)?)?;
    writer.flush()?;
    Ok(())
}

/// Reads one frame from a stream. Returns `Ok(None)` on a clean EOF at a
/// frame boundary (the peer closed the connection); EOF mid-frame is
/// [`ProtoError::Truncated`].
pub fn read_frame<R: Read, T: Message>(reader: &mut R) -> Result<Option<T>, ProtoError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    while filled < HEADER_LEN {
        match reader.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(ProtoError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let payload_len = validate_header(&header)?;
    let mut payload = vec![0u8; payload_len];
    reader.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ProtoError::Truncated
        } else {
            ProtoError::from(e)
        }
    })?;
    T::decode_payload(&payload).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips_a_request() {
        let request = Request::Pause { seconds: 0.25 };
        let frame = encode_frame(&request).expect("encode");
        assert_eq!(&frame[0..4], &MAGIC);
        let (back, consumed): (Request, usize) = decode_frame(&frame).expect("decode");
        assert_eq!(back, request);
        assert_eq!(consumed, frame.len());
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for bits in [0x3ff0_0000_0000_0001u64, 0x0000_0000_0000_0001, 0x7fef_ffff_ffff_ffff] {
            let request = Request::Pause { seconds: f64::from_bits(bits) };
            let (back, _): (Request, usize) =
                decode_frame(&encode_frame(&request).expect("encode")).unwrap();
            let Request::Pause { seconds } = back else { panic!("wrong variant") };
            assert_eq!(seconds.to_bits(), bits);
        }
    }

    #[test]
    fn provisional_frames_round_trip_bit_exactly() {
        let request = Request::Provisional { session: 42 };
        let (back, _): (Request, usize) =
            decode_frame(&encode_frame(&request).expect("encode")).expect("decode");
        assert_eq!(back, request);

        let ordering = crate::session::ProvisionalOrdering {
            order_x: vec![
                crate::session::ProvisionalTag {
                    epc: rfid_gen2::Epc::from_serial(7),
                    nadir_time_s: f64::from_bits(0x3ff0_0000_0000_0001),
                    confidence: 0.625,
                    samples: 311,
                    match_cost: Some(f64::from_bits(0x0000_0000_0000_0001)),
                },
                crate::session::ProvisionalTag {
                    epc: rfid_gen2::Epc::from_serial(3),
                    nadir_time_s: 12.5,
                    confidence: 0.0,
                    samples: 12,
                    match_cost: None,
                },
            ],
            tags_estimated: 2,
            tags_pending: 1,
        };
        let response = Response::Provisional { session: 42, ordering };
        let (back, _): (Response, usize) =
            decode_frame(&encode_frame(&response).expect("encode")).expect("decode");
        // PartialEq on f64 fields would accept -0.0 == 0.0; the frames
        // must preserve the exact bit patterns (subnormals included).
        let Response::Provisional { session, ordering: decoded } = back else {
            panic!("wrong variant");
        };
        let Response::Provisional { ordering: sent, .. } = response else { unreachable!() };
        assert_eq!(session, 42);
        assert_eq!(decoded, sent);
        assert_eq!(
            decoded.order_x[0].nadir_time_s.to_bits(),
            sent.order_x[0].nadir_time_s.to_bits()
        );
        assert_eq!(
            decoded.order_x[0].match_cost.map(f64::to_bits),
            sent.order_x[0].match_cost.map(f64::to_bits)
        );
    }

    #[test]
    fn the_direct_writer_matches_the_tree_encoder_on_every_scalar_kind() {
        // The golden frames cover every message; no message carries a
        // negative integer, a char or a unit, so they are checked here.
        let message = (-3i64, (i8::MIN, u8::MAX), ("s", 'c', ()), (true, -0.0f64, None::<u8>));
        let mut tree = Vec::new();
        encode_value(&message.to_value(), &mut tree);
        assert_eq!(encode_frame(&message).expect("encode")[HEADER_LEN..], tree[..]);
    }

    #[test]
    fn bad_magic_and_version_are_typed_errors() {
        let mut frame = encode_frame(&Request::Stats).expect("encode");
        frame[0] = b'X';
        assert!(matches!(
            decode_frame::<Request>(&frame),
            Err(ProtoError::BadMagic { found }) if found[0] == b'X'
        ));
        let mut frame = encode_frame(&Request::Stats).expect("encode");
        frame[4] = 0xFF;
        assert!(matches!(
            decode_frame::<Request>(&frame),
            Err(ProtoError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut frame = encode_frame(&Request::Stats).expect("encode");
        frame[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_frame::<Request>(&frame), Err(ProtoError::FrameTooLarge { .. })));
    }

    #[test]
    fn truncation_is_a_typed_error_never_a_panic() {
        let frame = encode_frame(&Request::OpenSession {
            geometry: crate::session::SessionGeometry {
                nominal_speed_mps: 0.1,
                wavelength_m: 0.326,
                perpendicular_distance_m: Some(0.3),
            },
            quiescence_s: None,
        })
        .expect("encode");
        for len in 0..frame.len() {
            let err = decode_frame::<Request>(&frame[..len]).expect_err("truncated must fail");
            assert!(
                matches!(err, ProtoError::Truncated | ProtoError::Malformed { .. }),
                "prefix of {len} bytes: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn stream_read_write_round_trip_and_clean_eof() {
        let a = Request::Stats;
        let b = Request::Shutdown;
        let mut wire = Vec::new();
        write_frame(&mut wire, &a).unwrap();
        write_frame(&mut wire, &b).unwrap();
        let mut reader = &wire[..];
        assert_eq!(read_frame::<_, Request>(&mut reader).unwrap(), Some(a));
        assert_eq!(read_frame::<_, Request>(&mut reader).unwrap(), Some(b));
        // Clean EOF at the frame boundary.
        assert_eq!(read_frame::<_, Request>(&mut reader).unwrap(), None);
        // EOF mid-frame is Truncated.
        let mut torn = &wire[..wire.len() - 3];
        assert_eq!(read_frame::<_, Request>(&mut torn).unwrap(), Some(Request::Stats));
        assert!(matches!(read_frame::<_, Request>(&mut torn), Err(ProtoError::Truncated)));
    }

    #[test]
    fn deep_nesting_is_bounded() {
        // A hand-built payload of 1000 nested single-element sequences
        // must be rejected, not overflow the stack.
        let mut payload = Vec::new();
        for _ in 0..1000 {
            payload.push(TAG_SEQ);
            payload.extend_from_slice(&1u32.to_le_bytes());
        }
        payload.push(TAG_NULL);
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        assert!(matches!(decode_frame::<Request>(&frame), Err(ProtoError::Malformed { .. })));
    }
}
