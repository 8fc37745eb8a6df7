//! # stpp-serve
//!
//! The serving layer over the STPP pipeline: a long-lived
//! [`LocalizationService`] that a portal process creates **once** and
//! shares (behind an [`std::sync::Arc`]) across every conveyor batch,
//! sweep, and worker thread — plus the network front that puts it on the
//! wire.
//!
//! What the per-run pipeline rebuilds on every call, the service keeps:
//!
//! * a process-wide LRU registry of
//!   [`ReferenceBankCache`](stpp_core::ReferenceBankCache)s keyed by the
//!   request's effective geometry ([`GeometryKey`]), so a repeated
//!   same-geometry request performs **zero** reference-bank
//!   constructions — verified by instrumentation counters
//!   ([`BankCacheStats`](stpp_core::BankCacheStats)) that every response
//!   reports back in its [`RequestMetrics`];
//! * a persistent detection [`WorkerPool`]: long-lived workers with
//!   long-lived scratch arenas replace the per-request scoped-thread
//!   spawn, and their scratch-local counters make the per-request
//!   bank-cache metrics exact even under concurrency;
//! * per-request stage timings (prepare / detect / order) for latency
//!   attribution;
//! * a streaming path: a [`ServiceSession`] ingests
//!   [`TagReadReport`](rfid_reader::TagReadReport)s incrementally,
//!   rejects malformed samples at the boundary ([`IngestError`]), and
//!   triggers localization when tag profiles go quiescent — the paper's
//!   online operation rather than one-shot batch calls.
//!
//! The network layer ([`proto`] / [`server`] / [`client`]) carries all of
//! that over a versioned, length-prefixed binary protocol: many portals
//! share one [`StppServer`] (one pool, one warm bank registry), with a
//! bounded admission queue whose overflow is the typed
//! [`Response::Busy`] backpressure frame.
//!
//! Service output is **bit-identical** to the sequential
//! [`RelativeLocalizer`](stpp_core::RelativeLocalizer) for any pool size
//! or fanout, in process or over the wire, warm or cold cache.
//!
//! ```
//! use std::sync::Arc;
//! use stpp_serve::LocalizationService;
//! # use rfid_geometry::RowLayout;
//! # use rfid_reader::{AntennaSweepParams, ReaderSimulation, ScenarioBuilder};
//! # use stpp_core::StppInput;
//! let service = LocalizationService::with_defaults();
//! # let layout = RowLayout::new(0.0, 0.0, 0.1, 4).build();
//! # let scenario =
//! #     ScenarioBuilder::new(7).antenna_sweep(&layout, AntennaSweepParams::default()).unwrap();
//! # let recording = ReaderSimulation::new(scenario, 7).run();
//! let input = Arc::new(StppInput::from_recording(&recording).unwrap());
//! let first = service.localize(input.clone()).unwrap();
//! let repeat = service.localize(input).unwrap();
//! assert_eq!(first.result, repeat.result);
//! assert_eq!(repeat.metrics.bank_cache.builds, 0); // warm: zero bank builds
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod fleet;
pub mod pool;
pub mod proto;
pub mod retry;
pub mod server;
pub mod service;
pub mod session;

pub use client::{ClientError, FlushReply, LocalizeReply, StppClient};
pub use fleet::{FleetClient, FleetHealth, ShardIdentity, ShardRouter};
pub use pool::WorkerPool;
pub use proto::{HealthReport, ProtoError, Request, Response, ServerStats, WireReport};
pub use retry::{
    FailureKind, ResilienceCounters, ResilientClient, ResilientError, ResilientSession, RetryPolicy,
};
pub use server::{ServerConfig, ServerHandle, StppServer};
pub use service::{
    GeometryKey, LocalizationRequest, LocalizationResponse, LocalizationService, RequestMetrics,
    ServiceConfig, ServiceStats,
};
pub use session::{
    IngestError, ProvisionalOrdering, ProvisionalTag, ServiceSession, SessionGeometry,
};
