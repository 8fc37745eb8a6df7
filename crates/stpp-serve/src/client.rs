//! The blocking TCP client for the STPP wire protocol.
//!
//! [`StppClient`] wraps one connection to a [`StppServer`](crate::StppServer)
//! with typed request helpers. Calls are synchronous: each helper writes
//! one [`Request`] frame and reads exactly one [`Response`] frame, so a
//! client observes responses strictly in request order. Backpressure
//! surfaces in the return types — [`LocalizeReply::Busy`] is a normal
//! outcome the caller is forced to consider, not an error to forget.

use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use stpp_core::{LocalizationError, StppInput};

use crate::proto::{
    encode_localize_request_into, read_frame, write_frame, HealthReport, ProtoError, Request,
    Response, ServerStats, WireReport,
};
use crate::retry::{FailureKind, ResilientError, RetryPolicy};
use crate::service::{LocalizationResponse, ServiceStats};
use crate::session::{IngestError, ProvisionalOrdering, SessionGeometry};

/// Default socket read/write timeout for a plain [`StppClient::connect`].
/// Generous — it exists so that *no* call path can block forever on a
/// wedged peer, not to pace retries (that's [`RetryPolicy::deadline`]).
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Errors a client call can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// A transport/protocol failure (I/O, framing, decode).
    Proto(ProtoError),
    /// The server rejected the request with a typed pipeline error.
    Rejected(LocalizationError),
    /// The server rejected a report at the ingestion boundary.
    Ingest(IngestError),
    /// The named session does not exist on the server.
    UnknownSession {
        /// The offending session id.
        session: u64,
    },
    /// The server answered with a frame this call did not expect.
    Unexpected {
        /// Debug rendering of the unexpected frame.
        frame: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Rejected(e) => write!(f, "request rejected: {e}"),
            ClientError::Ingest(e) => write!(f, "ingestion rejected: {e}"),
            ClientError::UnknownSession { session } => write!(f, "unknown session {session}"),
            ClientError::Unexpected { frame } => write!(f, "unexpected response frame: {frame}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// Outcome of a localize call: the result, or the server's typed
/// backpressure rejection.
#[derive(Debug, Clone, PartialEq)]
pub enum LocalizeReply {
    /// The batch was localized (bit-identical to the in-process service).
    Localized(LocalizationResponse),
    /// The admission queue was full; retry later.
    Busy {
        /// The server's admission bound.
        depth: u64,
    },
}

/// Outcome of a flush call.
#[derive(Debug, Clone, PartialEq)]
pub enum FlushReply {
    /// The flush ran; `None` means no tag was quiescent yet.
    Flushed(Option<LocalizationResponse>),
    /// The admission queue was full; retry later.
    Busy {
        /// The server's admission bound.
        depth: u64,
    },
}

/// One blocking connection to an STPP server (see the module docs).
#[derive(Debug)]
pub struct StppClient {
    stream: TcpStream,
    /// Reused encode buffer for [`localize`](Self::localize): the frame
    /// is serialized straight from the borrowed input, so repeated calls
    /// with same-sized batches stop allocating after warm-up.
    scratch: Vec<u8>,
}

impl StppClient {
    /// Connects to a server with the [`DEFAULT_IO_TIMEOUT`] on reads and
    /// writes, so no call on the returned client can block forever.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<StppClient, ClientError> {
        let stream = TcpStream::connect(addr).map_err(ProtoError::from)?;
        let _ = stream.set_nodelay(true);
        let client = StppClient { stream, scratch: Vec::new() };
        client.set_io_timeout(Some(DEFAULT_IO_TIMEOUT))?;
        Ok(client)
    }

    /// Connects with an explicit connect deadline and I/O timeout.
    /// `io_timeout = None` removes the socket timeouts entirely (the
    /// caller takes responsibility for bounding the call some other way).
    pub fn connect_with(
        addr: SocketAddr,
        connect_timeout: Duration,
        io_timeout: Option<Duration>,
    ) -> Result<StppClient, ClientError> {
        let stream =
            TcpStream::connect_timeout(&addr, connect_timeout).map_err(ProtoError::from)?;
        let _ = stream.set_nodelay(true);
        let client = StppClient { stream, scratch: Vec::new() };
        client.set_io_timeout(io_timeout)?;
        Ok(client)
    }

    /// Sets the socket read/write timeout for every subsequent call.
    /// A timed-out call surfaces as [`ClientError::Proto`] with an
    /// [`std::io::ErrorKind::WouldBlock`]/`TimedOut` kind, and the
    /// connection should be considered desynced.
    pub fn set_io_timeout(&self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(timeout).map_err(ProtoError::from)?;
        self.stream.set_write_timeout(timeout).map_err(ProtoError::from)?;
        Ok(())
    }

    /// Sends one raw request frame and reads the matching response frame.
    /// The typed helpers below are usually more convenient.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, request)?;
        match read_frame::<_, Response>(&mut self.stream)? {
            Some(response) => Ok(response),
            None => Err(ClientError::Proto(ProtoError::Truncated)),
        }
    }

    /// Localizes one batch on the server.
    ///
    /// The request frame is encoded from the borrowed `input` into a
    /// buffer owned by the client — no clone of the observations, and no
    /// per-call allocation once the buffer has grown to the batch size.
    pub fn localize(
        &mut self,
        input: &StppInput,
        threads: Option<usize>,
    ) -> Result<LocalizeReply, ClientError> {
        encode_localize_request_into(input, threads.map(|t| t as u64), &mut self.scratch)?;
        self.stream.write_all(&self.scratch).map_err(ProtoError::from)?;
        self.stream.flush().map_err(ProtoError::from)?;
        let response = match read_frame::<_, Response>(&mut self.stream)? {
            Some(response) => response,
            None => return Err(ClientError::Proto(ProtoError::Truncated)),
        };
        match response {
            Response::Localized { response } => Ok(LocalizeReply::Localized(response)),
            Response::Busy { depth } => Ok(LocalizeReply::Busy { depth }),
            Response::Rejected { error } => Err(ClientError::Rejected(error)),
            other => Err(unexpected(other)),
        }
    }

    /// [`localize`](Self::localize), absorbing [`LocalizeReply::Busy`]
    /// under `policy`'s attempt budget and backoff schedule. For callers
    /// that must process every batch (portals, shelf carts) and treat
    /// backpressure as delay — but *bounded* delay: a server that stays
    /// saturated for the whole budget yields a typed
    /// [`ResilientError::BudgetExhausted`] instead of spinning forever.
    /// The policy's deadline is propagated to the socket timeouts for
    /// the duration of the call. Typed rejections and transport failures
    /// surface as [`ResilientError::Fatal`] (no reconnection here — use
    /// [`ResilientClient`](crate::ResilientClient) for that).
    pub fn localize_retrying(
        &mut self,
        input: &StppInput,
        threads: Option<usize>,
        policy: &RetryPolicy,
    ) -> Result<LocalizationResponse, ResilientError> {
        self.set_io_timeout(Some(policy.deadline))?;
        let attempts = policy.max_attempts.max(1);
        for attempt in 0..attempts {
            match self.localize(input, threads)? {
                LocalizeReply::Localized(response) => return Ok(response),
                LocalizeReply::Busy { .. } => {
                    if attempt + 1 < attempts {
                        std::thread::sleep(policy.backoff_for(attempt));
                    }
                }
            }
        }
        Err(ResilientError::BudgetExhausted { attempts, last: FailureKind::Busy })
    }

    /// Opens a server-side streaming session; returns its id.
    pub fn open_session(
        &mut self,
        geometry: SessionGeometry,
        quiescence_s: Option<f64>,
    ) -> Result<u64, ClientError> {
        match self.request(&Request::OpenSession { geometry, quiescence_s })? {
            Response::SessionOpened { session } => Ok(session),
            Response::IngestRejected { error, .. } => Err(ClientError::Ingest(error)),
            other => Err(unexpected(other)),
        }
    }

    /// Polls a session's provisional (mid-stream) X ordering. Control
    /// plane: non-consuming, never rejected `Busy`, and advisory — the
    /// authoritative ordering still comes from
    /// [`flush_session`](Self::flush_session).
    pub fn provisional(&mut self, session: u64) -> Result<ProvisionalOrdering, ClientError> {
        match self.request(&Request::Provisional { session })? {
            Response::Provisional { ordering, .. } => Ok(ordering),
            Response::UnknownSession { session } => Err(ClientError::UnknownSession { session }),
            other => Err(unexpected(other)),
        }
    }

    /// Ingests a batch of reports into a session; returns the number of
    /// tags currently pending in it.
    pub fn ingest(&mut self, session: u64, reports: &[WireReport]) -> Result<u64, ClientError> {
        match self.request(&Request::IngestReports { session, reports: reports.to_vec() })? {
            Response::Ingested { pending, .. } => Ok(pending),
            Response::IngestRejected { error, .. } => Err(ClientError::Ingest(error)),
            Response::UnknownSession { session } => Err(ClientError::UnknownSession { session }),
            other => Err(unexpected(other)),
        }
    }

    /// Releases a session's quiescent tags as one localization batch;
    /// with `finish = true`, ends the session and localizes everything
    /// left.
    pub fn flush_session(&mut self, session: u64, finish: bool) -> Result<FlushReply, ClientError> {
        match self.request(&Request::FlushSession { session, finish })? {
            Response::Flushed { outcome, .. } => Ok(FlushReply::Flushed(outcome)),
            Response::Busy { depth } => Ok(FlushReply::Busy { depth }),
            Response::Rejected { error } => Err(ClientError::Rejected(error)),
            Response::UnknownSession { session } => Err(ClientError::UnknownSession { session }),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the service- and server-level counters.
    pub fn stats(&mut self) -> Result<(ServiceStats, ServerStats), ClientError> {
        match self.request(&Request::Stats)? {
            Response::Stats { service, server } => Ok((service, server)),
            other => Err(unexpected(other)),
        }
    }

    /// Occupies one admission slot for `seconds` (load drill). Returns
    /// `false` when the queue was already full.
    pub fn pause(&mut self, seconds: f64) -> Result<bool, ClientError> {
        match self.request(&Request::Pause { seconds })? {
            Response::Paused => Ok(true),
            Response::Busy { .. } => Ok(false),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the server's liveness/health report (uptime, queue depth,
    /// active sessions, reap count). Control-plane: never rejected Busy.
    pub fn health(&mut self) -> Result<HealthReport, ClientError> {
        match self.request(&Request::Health)? {
            Response::Health { report } => Ok(report),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the server to drain: stop accepting connections, finish
    /// in-flight work, flush quiescent sessions, then exit its serve
    /// loop cleanly.
    pub fn drain(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Drain)? {
            Response::Draining => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Sends the poison drill frame. The server's handler panics on it
    /// deliberately; panic isolation must convert that into a typed
    /// [`Response::InternalError`] whose reason is returned here, with
    /// the connection still usable afterwards.
    pub fn poison(&mut self) -> Result<String, ClientError> {
        match self.request(&Request::Poison)? {
            Response::InternalError { reason } => Ok(reason),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the server to stop accepting connections.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}

fn unexpected(response: Response) -> ClientError {
    ClientError::Unexpected { frame: format!("{response:?}") }
}
