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
//! Neither direction builds anything in between. Every frame is written
//! straight into its buffer from the message's [`Serialize`] events
//! ([`encode_frame`], and through it [`write_frame`];
//! [`encode_localize_request_into`] does the same over a borrowed
//! input). Every frame is read straight from its bytes by the message's
//! derived [`Deserialize`] reader, with the payload decoder as its
//! [`Deserializer`] source ([`decode_frame`], [`read_frame`]).
//!
//! The reader accepts only the canonical layout the writer emits: every
//! struct field in declaration order, nothing missing and nothing extra,
//! every float tagged as a float and every integer in its type's range.
//! Anything else is [`ProtoError::Malformed`]. A sequence whose count the
//! bytes left cannot hold is [`ProtoError::Truncated`] before anything is
//! allocated for it, and no sequence reserves more memory up front than
//! the payload has bytes left. There is no depth bound: the readers nest
//! only as deep as the message types do, and none of those is recursive.
//!
//! Clients send [`Request`] frames and read [`Response`] frames; a
//! connection is a strict request/response alternation, so responses come
//! back in request order. Malformed, truncated, or oversized frames
//! surface as a typed [`ProtoError`] — never a panic — and the
//! [`Response::Busy`] frame is the server's typed backpressure rejection
//! (see the [`server`](crate::server) module for the queue semantics).

use std::io::{Read, Write};

use serde::{Deserialize, Deserializer, Serialize, Serializer};
use stpp_core::{LocalizationError, StppInput};

use crate::service::{LocalizationResponse, ServiceStats};
use crate::session::{IngestError, ProvisionalOrdering, SessionGeometry};

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

/// A derived reader's own error (a wrong field count, an unknown variant,
/// an integer out of range) is a malformed payload.
impl From<serde::Error> for ProtoError {
    fn from(e: serde::Error) -> Self {
        malformed(e.to_string())
    }
}

fn malformed(reason: String) -> ProtoError {
    ProtoError::Malformed { reason }
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
    /// compatible protocol extension: the enum encoding is tagged by
    /// variant name, so decoders that predate it only fail if they
    /// actually receive one.
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
    /// Detection requests currently admitted (each detecting on its
    /// connection thread).
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
    /// Detection requests currently admitted (each detecting on its
    /// connection thread).
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
    /// [`Request::Provisional`]).
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

fn encode_bytes(bytes: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Cursor over a payload slice; every read is bounds-checked. It is the
/// [`Deserializer`] source every message's reader pulls from.
struct Decoder<'a> {
    /// The bytes not read yet.
    rest: &'a [u8],
}

// The per-field reads carry `#[inline(always)]`: they run once per field
// of every sample, report or tag, inside readers generic over the source,
// and under plain `#[inline]` the release build kept them out of line, one
// call per field.
impl<'a> Decoder<'a> {
    #[inline(always)]
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if n > self.rest.len() {
            return Err(ProtoError::Truncated);
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    /// Rejects bytes left over after a complete message.
    fn finish(&self) -> Result<(), ProtoError> {
        match self.remaining() {
            0 => Ok(()),
            left => Err(malformed(format!("{left} trailing payload bytes"))),
        }
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// A tag byte, which must be `expected`.
    fn tag(&mut self, expected: u8) -> Result<(), ProtoError> {
        match self.take(1)?[0] {
            found if found == expected => Ok(()),
            found => Err(wrong_tag(found, expected)),
        }
    }

    /// A scalar tagged `tag`, as its raw 8 bytes.
    #[inline(always)]
    fn scalar(&mut self, tag: u8) -> Result<u64, ProtoError> {
        let scalar = self.take(9)?;
        if scalar[0] != tag {
            return Err(wrong_tag(scalar[0], tag));
        }
        Ok(u64::from_le_bytes(scalar[1..].try_into().expect("8 bytes")))
    }

    /// Length-prefixed UTF-8: a string's body or a variant name.
    fn text(&mut self) -> Result<&'a str, ProtoError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| malformed("invalid UTF-8 string".into()))
    }

    /// A container tagged `tag` and its count. A container claiming
    /// `count` items must have at least one byte of payload per item left,
    /// which rejects length bombs before anything is allocated for them.
    #[inline(always)]
    fn container(&mut self, tag: u8) -> Result<usize, ProtoError> {
        let header = self.take(5)?;
        if header[0] != tag {
            return Err(wrong_tag(header[0], tag));
        }
        let count = u32::from_le_bytes(header[1..].try_into().expect("4 bytes")) as usize;
        if count > self.remaining() {
            return Err(ProtoError::Truncated);
        }
        Ok(count)
    }
}

fn wrong_tag(found: u8, expected: u8) -> ProtoError {
    malformed(format!("value tag {found} where tag {expected} belongs"))
}

impl Deserializer for Decoder<'_> {
    type Error = ProtoError;

    fn null(&mut self) -> Result<(), ProtoError> {
        self.tag(TAG_NULL)
    }

    #[inline(always)]
    fn bool(&mut self) -> Result<bool, ProtoError> {
        match self.take(1)?[0] {
            TAG_FALSE => Ok(false),
            TAG_TRUE => Ok(true),
            found => Err(malformed(format!("value tag {found} where a boolean belongs"))),
        }
    }

    #[inline(always)]
    fn u64(&mut self) -> Result<u64, ProtoError> {
        self.scalar(TAG_U64)
    }

    /// Non-negative integers are written as `u64`s, so either tag reads.
    fn i64(&mut self) -> Result<i64, ProtoError> {
        let scalar = self.take(9)?;
        let raw = u64::from_le_bytes(scalar[1..].try_into().expect("8 bytes"));
        match scalar[0] {
            TAG_I64 => Ok(raw as i64),
            TAG_U64 => i64::try_from(raw)
                .map_err(|_| malformed(format!("integer {raw} out of range for i64"))),
            found => Err(malformed(format!("value tag {found} where an integer belongs"))),
        }
    }

    #[inline(always)]
    fn f64(&mut self) -> Result<f64, ProtoError> {
        self.scalar(TAG_F64).map(f64::from_bits)
    }

    fn str(&mut self) -> Result<&str, ProtoError> {
        self.tag(TAG_STR)?;
        self.text()
    }

    #[inline(always)]
    fn seq(&mut self) -> Result<usize, ProtoError> {
        self.container(TAG_SEQ)
    }

    #[inline(always)]
    fn map(&mut self) -> Result<usize, ProtoError> {
        self.container(TAG_MAP)
    }

    #[inline(always)]
    fn key(&mut self, name: &str) -> Result<(), ProtoError> {
        let key = self.take(4 + name.len())?;
        if key[..4] != (name.len() as u32).to_le_bytes() || &key[4..] != name.as_bytes() {
            return Err(malformed(format!("expected field `{name}`")));
        }
        Ok(())
    }

    #[inline(always)]
    fn option(&mut self) -> Result<bool, ProtoError> {
        let is_null = *self.rest.first().ok_or(ProtoError::Truncated)? == TAG_NULL;
        if is_null {
            self.rest = &self.rest[1..];
        }
        Ok(!is_null)
    }

    fn variant(&mut self) -> Result<(&str, bool), ProtoError> {
        match self.take(1)?[0] {
            TAG_STR => Ok((self.text()?, false)),
            TAG_MAP => match self.u32()? {
                1 => Ok((self.text()?, true)),
                len => Err(malformed(format!("an enum is a map of {len} entries, not 1"))),
            },
            found => Err(malformed(format!("value tag {found} where an enum belongs"))),
        }
    }

    #[inline(always)]
    fn remaining(&self) -> usize {
        self.rest.len()
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

/// Reads one message from a complete frame payload, which it must use up.
fn decode_payload<T: Deserialize>(payload: &[u8]) -> Result<T, ProtoError> {
    let mut decoder = Decoder { rest: payload };
    let message = T::deserialize(&mut decoder)?;
    decoder.finish()?;
    Ok(message)
}

/// Decodes one frame from the front of `bytes`, returning the message and
/// the number of bytes consumed. Trailing bytes (the next frame) are left
/// untouched.
pub fn decode_frame<T: Deserialize>(bytes: &[u8]) -> Result<(T, usize), ProtoError> {
    if bytes.len() < HEADER_LEN {
        return Err(ProtoError::Truncated);
    }
    let header: [u8; HEADER_LEN] = bytes[0..HEADER_LEN].try_into().expect("header bytes");
    let payload_len = validate_header(&header)?;
    let end = HEADER_LEN + payload_len;
    if bytes.len() < end {
        return Err(ProtoError::Truncated);
    }
    let message = decode_payload(&bytes[HEADER_LEN..end])?;
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
pub fn read_frame<R: Read, T: Deserialize>(reader: &mut R) -> Result<Option<T>, ProtoError> {
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
    decode_payload(&payload).map(Some)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rfid_gen2::Epc;
    use serde::Value;
    use stpp_core::{
        BankCacheStats, PhaseProfile, PhaseSample, StppResult, TagObservations, TagVZoneSummary,
    };

    use super::*;
    use crate::service::RequestMetrics;
    use crate::session::{ProvisionalTag, SessionGeometry};

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
    fn every_scalar_kind_round_trips() {
        // The golden frames cover every message; no message carries a
        // negative integer, a char or a unit, so they are checked here.
        type Scalars = (i64, (i8, u8, i32), (String, char, ()), (bool, f64, Option<u8>));
        let message: Scalars =
            (-3, (i8::MIN, u8::MAX, 7), ("s".into(), 'c', ()), (true, -0.0, None));
        let (back, _): (Scalars, usize) =
            decode_frame(&encode_frame(&message).expect("encode")).expect("decode");
        assert_eq!(back, message);
        assert_eq!(back.3 .1.to_bits(), (-0.0f64).to_bits());
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

    /// The payload of a message's frame.
    fn payload<T: Serialize>(message: &T) -> Vec<u8> {
        encode_frame(message).expect("encode")[HEADER_LEN..].to_vec()
    }

    /// A frame around a hand-built payload.
    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    /// Any `f64` bit pattern, NaNs, infinities and subnormals included.
    fn any_f64() -> impl Strategy<Value = f64> {
        any::<u64>().prop_map(f64::from_bits)
    }

    fn arb_epc() -> impl Strategy<Value = Epc> {
        prop::collection::vec(any::<u16>(), 6)
            .prop_map(|words| Epc::from_words(words.try_into().expect("six words")))
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

    /// Decodes `frame` as a `T` and re-encodes it: a strict reader accepts
    /// only the canonical bytes, so what it accepts re-encodes to itself.
    fn re_encoded<T: Serialize + Deserialize>(frame: &[u8]) -> Option<Vec<u8>> {
        decode_frame::<T>(frame).ok().map(|(message, _)| encode_frame(&message).expect("encode"))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn hot_requests_re_encode_to_the_same_bytes(request in arb_hot_request()) {
            // Re-encoding compares bit for bit, NaN payloads included.
            let frame = encode_frame(&request).expect("encode");
            prop_assert_eq!(re_encoded::<Request>(&frame), Some(frame));
        }

        #[test]
        fn hot_responses_re_encode_to_the_same_bytes(response in arb_hot_response()) {
            let frame = encode_frame(&response).expect("encode");
            prop_assert_eq!(re_encoded::<Response>(&frame), Some(frame));
        }

        #[test]
        fn whatever_a_corrupted_request_decodes_to_re_encodes_to_its_bytes(
            request in arb_hot_request(),
            offset in any::<prop::sample::Index>(),
            xor in 1u8..=255,
        ) {
            let mut frame = encode_frame(&request).expect("encode");
            let i = HEADER_LEN + offset.index(frame.len() - HEADER_LEN);
            frame[i] ^= xor;
            if let Some(bytes) = re_encoded::<Request>(&frame) {
                prop_assert_eq!(bytes, frame);
            }
        }

        #[test]
        fn whatever_a_corrupted_response_decodes_to_re_encodes_to_its_bytes(
            response in arb_hot_response(),
            offset in any::<prop::sample::Index>(),
            xor in 1u8..=255,
        ) {
            let mut frame = encode_frame(&response).expect("encode");
            let i = HEADER_LEN + offset.index(frame.len() - HEADER_LEN);
            frame[i] ^= xor;
            if let Some(bytes) = re_encoded::<Response>(&frame) {
                prop_assert_eq!(bytes, frame);
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

    /// The frame of `message` after `edit` changed the node at `path` of
    /// its tree.
    fn edited<T: Serialize>(message: &T, path: &[&str], edit: impl FnOnce(&mut Value)) -> Vec<u8> {
        let mut tree = message.to_value();
        edit(node(&mut tree, path));
        encode_frame(&tree).expect("encode")
    }

    /// Swaps the first two fields of a map.
    fn reorder(fields: &mut Value) {
        let Value::Map(fields) = fields else { panic!("not a map") };
        fields.swap(0, 1);
    }

    /// Appends a field to a map.
    fn extend(fields: &mut Value) {
        let Value::Map(fields) = fields else { panic!("not a map") };
        fields.push(("extra".into(), Value::U64(0)));
    }

    fn assert_malformed<T: Deserialize + std::fmt::Debug>(frame: &[u8]) {
        match decode_frame::<T>(frame) {
            Err(ProtoError::Malformed { .. }) => {}
            other => panic!("expected a Malformed error, got {other:?}"),
        }
    }

    #[test]
    fn non_canonical_requests_are_malformed() {
        const SAMPLE: &[&str] =
            &["Localize", "input", "observations", "0", "profile", "samples", "1"];
        const WORDS: &[&str] = &["Localize", "input", "observations", "0", "epc", "words"];
        let request = localize_request();
        let geometry = SessionGeometry {
            nominal_speed_mps: 0.1,
            wavelength_m: 0.326,
            perpendicular_distance_m: None,
        };
        let open = Request::OpenSession { geometry, quiescence_s: Some(2.0) };
        for frame in [
            edited(&request, SAMPLE, reorder),
            edited(&request, SAMPLE, extend),
            edited(&request, &[SAMPLE, &["time_s"]].concat(), |x| *x = Value::U64(2)),
            edited(&request, WORDS, |words| {
                let Value::Seq(items) = words else { panic!("EPC words are a sequence") };
                items.pop();
            }),
            edited(&request, &[WORDS, &["2"]].concat(), |x| *x = Value::U64(0x1_0000)),
            edited(&open, &["OpenSession"], reorder),
            edited(&open, &["OpenSession", "geometry"], extend),
            edited(&open, &["OpenSession", "quiescence_s"], |x| *x = Value::U64(2)),
            edited(&Request::Stats, &[], |x| *x = Value::Map(vec![("Stats".into(), Value::Null)])),
        ] {
            assert_malformed::<Request>(&frame);
        }
    }

    #[test]
    fn non_canonical_responses_are_malformed() {
        const METRICS: &[&str] = &["Localized", "response", "metrics"];
        let localized = Response::Localized { response: localization_response() };
        let stats =
            Response::Stats { service: ServiceStats::default(), server: ServerStats::default() };
        for frame in [
            edited(&localized, &[METRICS, &["total_seconds"]].concat(), |x| *x = Value::U64(2)),
            edited(
                &localized,
                &["Localized", "response", "result", "summaries", "1", "coarse", "0"],
                |x| *x = Value::I64(-1),
            ),
            edited(&localized, METRICS, reorder),
            edited(&localized, &[METRICS, &["geometry_cache_hit"]].concat(), |x| {
                *x = Value::U64(1)
            }),
            edited(&provisional_response(), &["Provisional", "ordering"], extend),
            edited(
                &provisional_response(),
                &["Provisional", "ordering", "order_x", "0", "match_cost"],
                |x| *x = Value::U64(1),
            ),
            edited(&stats, &["Stats", "server"], extend),
            edited(&stats, &["Stats"], reorder),
            edited(&Response::Busy { depth: 3 }, &["Busy", "depth"], |x| *x = Value::I64(-3)),
        ] {
            assert_malformed::<Response>(&frame);
        }
    }

    /// Overwrites the `u32` count of the sequence under key `name`.
    fn with_count(mut payload: Vec<u8>, name: &str, count: u32) -> Vec<u8> {
        let mut key = (name.len() as u32).to_le_bytes().to_vec();
        key.extend_from_slice(name.as_bytes());
        let at = payload.windows(key.len()).position(|w| w == key).expect("key present");
        let count_at = at + key.len() + 1;
        payload[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
        payload
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
            assert!(matches!(decode_frame::<Request>(&frame(&bytes)), Err(ProtoError::Truncated)));
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
            assert!(matches!(decode_frame::<Response>(&frame(&bytes)), Err(ProtoError::Truncated)));
        }
    }

    /// Marks the re-executed test binary that runs the body of
    /// [`a_count_the_items_cannot_fill_reserves_only_the_bytes_left`]
    /// under a low address-space limit.
    #[cfg(unix)]
    const ADDRESS_SPACE_CHILD: &str = "STPP_ADDRESS_SPACE_CHILD";

    /// A count that passes the one-byte-per-item check but not the
    /// items' real size must not reserve the items' memory up front. The
    /// body runs in a child process whose address space (`ulimit -v`, the
    /// child's alone) is 1 GiB, which reserving the count in full would
    /// overrun.
    #[cfg(unix)]
    #[test]
    fn a_count_the_items_cannot_fill_reserves_only_the_bytes_left() {
        if std::env::var_os(ADDRESS_SPACE_CHILD).is_some() {
            return address_space_child();
        }
        let name = "proto::tests::a_count_the_items_cannot_fill_reserves_only_the_bytes_left";
        let out = std::process::Command::new("sh")
            .args(["-c", "ulimit -v 1048576 && exec \"$0\" \"$@\""])
            .arg(std::env::current_exe().expect("test binary path"))
            .args([name, "--exact", "--test-threads", "1"])
            .env(ADDRESS_SPACE_CHILD, "1")
            .output()
            .expect("spawn the address-space-limited child");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "child failed ({}):\n{stdout}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }

    /// The child's half of
    /// [`a_count_the_items_cannot_fill_reserves_only_the_bytes_left`]: 32 Mi
    /// observations, one padding byte each, would take more than 1 GiB
    /// reserved in full.
    #[cfg(unix)]
    fn address_space_child() {
        let count = 32 << 20;
        assert!(count * std::mem::size_of::<TagObservations>() > 1 << 30);
        let Request::Localize { input, threads } = localize_request() else { unreachable!() };
        let empty =
            Request::Localize { input: StppInput { observations: Vec::new(), ..input }, threads };
        let mut bytes = with_count(payload(&empty), "observations", count as u32);
        bytes.resize(bytes.len() + count, 0);
        assert!(matches!(
            decode_frame::<Request>(&frame(&bytes)),
            Err(ProtoError::Malformed { .. } | ProtoError::Truncated)
        ));
    }
}
