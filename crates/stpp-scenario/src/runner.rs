//! The deterministic scenario runner.
//!
//! One scenario can be executed three ways — [`RunMode::Pipeline`]
//! straight through [`BatchLocalizer`], [`RunMode::Service`] through an
//! in-process [`LocalizationService`], and [`RunMode::Wire`] over TCP
//! against a spawned [`StppServer`] (optionally behind the chaos
//! proxy). All three produce the same [`RunOutcome`] for a clean
//! scenario: the localization results are bit-identical by the
//! pipeline's determinism guarantee, and the runner *asserts* that
//! guarantee by failing hard if any repeated request drifts.

use std::sync::Arc;
use std::time::Instant;

use stpp_core::{metrics, BatchLocalizer, StppConfig, StppInput, StppResult};
use stpp_serve::proto::{encode_localize_request_into, read_frame, write_frame};
use stpp_serve::{
    FleetClient, FlushReply, LocalizationRequest, LocalizationService, Request, ResilienceCounters,
    ResilientClient, ResilientError, Response, RetryPolicy, ServerConfig, ServiceConfig,
    SessionGeometry, ShardIdentity, StppClient, StppServer, WireReport,
};

use crate::build::{build_scenario, BuiltScenario};
use crate::chaos::ChaosProxy;
use crate::error::ScenarioError;
use crate::report::{
    CheckResult, LatencySummary, RunMode, RunOutcome, RunReport, ServiceObservations,
    StreamingObservations,
};
use crate::spec::{
    ClientSpec, Expectations, FleetSpec, ImpairmentSpec, ScenarioSpec, StormSpec, StreamingSpec,
};

/// Circuit-open waits per request before the runner gives up: the
/// resilient client already bounds each call by its own attempt budget,
/// so this only caps how many cooldown cycles a single request may ride
/// out.
const MAX_CIRCUIT_WAITS_PER_REQUEST: u64 = 32;

/// Options for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Which executor to use.
    pub mode: RunMode,
    /// Detection thread-count override (`None` = executor default). Any
    /// value yields the same outcome; the determinism suite pins that.
    pub threads: Option<usize>,
}

impl RunOptions {
    /// Options for the given mode with default threads.
    pub fn mode(mode: RunMode) -> RunOptions {
        RunOptions { mode, threads: None }
    }
}

/// A runner failure — the run could not be completed (distinct from a
/// completed run whose expectations failed; that is a [`RunReport`]
/// with failing checks).
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The scenario itself is invalid or would not build.
    Scenario(ScenarioError),
    /// The pipeline rejected the recorded input.
    Localization(String),
    /// A wire-mode client failure that is not a retryable transport
    /// error (for example a typed rejection).
    Client(String),
    /// Spawning the server or proxy failed.
    Io(String),
    /// A request exceeded the attempt cap (impairments too harsh for
    /// progress).
    RetriesExhausted {
        /// The attempt cap that was hit.
        attempts: u64,
    },
    /// Two repetitions of the same request produced different results —
    /// the pipeline's bit-identical guarantee was violated.
    NonDeterministic {
        /// Which request drifted.
        request: u64,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Scenario(e) => write!(f, "scenario error: {e}"),
            RunError::Localization(e) => write!(f, "localization rejected: {e}"),
            RunError::Client(e) => write!(f, "client error: {e}"),
            RunError::Io(e) => write!(f, "i/o error: {e}"),
            RunError::RetriesExhausted { attempts } => {
                write!(f, "request exceeded {attempts} attempts without being admitted")
            }
            RunError::NonDeterministic { request } => {
                write!(f, "request {request} produced a different result than request 0")
            }
        }
    }
}

impl std::error::Error for RunError {}

impl From<ScenarioError> for RunError {
    fn from(e: ScenarioError) -> Self {
        RunError::Scenario(e)
    }
}

/// What one executed request contributed. `variant` is the geometry
/// variant the request carried (always 0 outside fleet runs): the
/// determinism check compares each sample against the first sample *of
/// its variant*, and cache accounting treats each variant's first
/// request as the cold one.
struct RequestSample {
    result: StppResult,
    latency_s: f64,
    geometry_cache_hit: bool,
    bank_builds: u64,
    variant: u64,
}

#[derive(Default)]
struct Tally {
    samples: Vec<RequestSample>,
    busy_responses: u64,
    transport_errors: u64,
    retries: u64,
    timeouts: u64,
    circuit_opens: u64,
    reconnects: u64,
    server_restarts: u64,
    drills_run: u64,
    storm_connections: u64,
    shards_used: u64,
    redirects: u64,
    cross_shard_builds: u64,
    streaming: Option<StreamingObservations>,
}

impl Tally {
    fn new() -> Tally {
        Tally::default()
    }

    /// Absorbs a wire client's resilience counters. `transport_errors`
    /// keeps its historical meaning (any failure that cost a
    /// connection), so it sums transport and connect failures.
    fn absorb(&mut self, c: ResilienceCounters) {
        self.busy_responses = c.busy;
        self.transport_errors = c.transport_failures + c.connect_failures;
        self.retries = c.retries;
        self.timeouts = c.timeouts;
        self.circuit_opens = c.circuit_opens;
        self.reconnects = c.reconnects;
    }
}

/// Runs a scenario in the given mode and evaluates its expectations.
///
/// A completed run always returns `Ok` — failed expectations live in
/// the report's checks, so the caller can render *why*. `Err` means the
/// run itself could not finish.
pub fn run_scenario(spec: &ScenarioSpec, opts: &RunOptions) -> Result<RunReport, RunError> {
    let built = build_scenario(spec)?;
    let tally = match opts.mode {
        RunMode::Pipeline => run_pipeline(spec, &built, opts)?,
        RunMode::Service => run_service(spec, &built, opts)?,
        RunMode::Wire => run_wire(spec, &built, opts)?,
    };
    finish(spec, &built, opts.mode, tally)
}

fn run_pipeline(
    spec: &ScenarioSpec,
    built: &BuiltScenario,
    opts: &RunOptions,
) -> Result<Tally, RunError> {
    let localizer = BatchLocalizer::new(StppConfig::default(), opts.threads.unwrap_or(1));
    let mut tally = Tally::new();
    for i in 0..spec.schedule.requests {
        pace(spec, i);
        let started = Instant::now();
        let result =
            localizer.localize(&built.input).map_err(|e| RunError::Localization(e.to_string()))?;
        tally.samples.push(RequestSample {
            result,
            latency_s: started.elapsed().as_secs_f64(),
            geometry_cache_hit: false,
            bank_builds: 0,
            variant: 0,
        });
    }
    Ok(tally)
}

fn run_service(
    spec: &ScenarioSpec,
    built: &BuiltScenario,
    opts: &RunOptions,
) -> Result<Tally, RunError> {
    let service = LocalizationService::new(service_config(spec));
    let mut tally = Tally::new();
    for i in 0..spec.schedule.requests {
        pace(spec, i);
        let started = Instant::now();
        let response = service
            .localize_request(LocalizationRequest {
                input: Arc::clone(&built.input),
                threads: opts.threads,
            })
            .map_err(|e| RunError::Localization(e.to_string()))?;
        tally.samples.push(RequestSample {
            result: response.result,
            latency_s: started.elapsed().as_secs_f64(),
            geometry_cache_hit: response.metrics.geometry_cache_hit,
            bank_builds: response.metrics.bank_cache.builds,
            variant: 0,
        });
    }
    if let Some(streaming) = &spec.streaming {
        let reference = tally.samples.first().expect("schedule ran").result.clone();
        tally.streaming = Some(stream_in_process(streaming, &service, built, &reference)?);
    }
    Ok(tally)
}

/// The session geometry a streamed scenario opens its session with —
/// the same deployment facts the batched input carries, so the session
/// and the batch requests share one geometry key (and therefore warm
/// reference banks).
fn session_geometry(built: &BuiltScenario) -> SessionGeometry {
    SessionGeometry {
        nominal_speed_mps: built.input.nominal_speed_mps,
        wavelength_m: built.input.wavelength_m,
        perpendicular_distance_m: built.input.perpendicular_distance_m,
    }
}

/// Accounts one provisional poll: `now_s` is the timestamp of the last
/// report ingested before the poll, so the time-to-first-result is
/// measured on the deterministic report clock.
fn observe_poll(tally: &mut StreamingObservations, tags_estimated: u64, now_s: f64, first_s: f64) {
    tally.polls += 1;
    if tags_estimated > 0 {
        tally.provisional_results += 1;
        if tally.time_to_first_result_s.is_none() {
            tally.time_to_first_result_s = Some(now_s - first_s);
        }
    }
}

fn empty_streaming_tally() -> StreamingObservations {
    StreamingObservations {
        reports_ingested: 0,
        polls: 0,
        provisional_results: 0,
        time_to_first_result_s: None,
    }
}

/// The in-process streaming feed: replays the recorded reports in time
/// order into a [`ServiceSession`](stpp_serve::ServiceSession), polling
/// a provisional ordering every `poll_every_reports` reports (and once
/// at end of stream), then finishes the session. The finished result
/// must be bit-identical to the batch reference — streaming changes
/// *when* answers appear, never what the final answer is.
fn stream_in_process(
    spec: &StreamingSpec,
    service: &Arc<LocalizationService>,
    built: &BuiltScenario,
    reference: &StppResult,
) -> Result<StreamingObservations, RunError> {
    let mut session = session_open_checked(service, built)?;
    let mut tally = empty_streaming_tally();
    let first_s = built.reports.first().map(|r| r.time_s).unwrap_or(0.0);
    let every = spec.poll_every_reports as usize;
    let total = built.reports.len();
    for (i, report) in built.reports.iter().enumerate() {
        session.ingest(report).map_err(|e| RunError::Localization(e.to_string()))?;
        tally.reports_ingested += 1;
        if (i + 1) % every == 0 || i + 1 == total {
            let ordering = session.provisional();
            observe_poll(&mut tally, ordering.tags_estimated, report.time_s, first_s);
        }
    }
    let response = session
        .finish()
        .map_err(|e| RunError::Localization(e.to_string()))?
        .ok_or_else(|| RunError::Localization("streaming session saw no reports".to_string()))?;
    if &response.result != reference {
        return Err(RunError::NonDeterministic { request: 0 });
    }
    Ok(tally)
}

fn session_open_checked(
    service: &Arc<LocalizationService>,
    built: &BuiltScenario,
) -> Result<stpp_serve::ServiceSession, RunError> {
    service.open_session(session_geometry(built)).map_err(|e| RunError::Client(e.to_string()))
}

/// The wire streaming feed: the same replay as [`stream_in_process`],
/// driven through `OpenSession`/`IngestReports`/`Provisional`/
/// `FlushSession` frames on a direct connection to the server (any
/// chaos proxy is bypassed — the feed probes the streaming path, not
/// the wire impairments). Reports travel in `poll_every_reports`-sized
/// chunks with a provisional poll after each, so the poll positions —
/// and therefore every provisional ordering and the time-to-first-
/// result — are identical to the in-process feed's.
fn stream_over_wire(
    spec: &StreamingSpec,
    server_addr: std::net::SocketAddr,
    built: &BuiltScenario,
    reference: &StppResult,
) -> Result<StreamingObservations, RunError> {
    let mut client = StppClient::connect(server_addr).map_err(|e| RunError::Io(e.to_string()))?;
    let session = client
        .open_session(session_geometry(built), None)
        .map_err(|e| RunError::Client(e.to_string()))?;
    let mut tally = empty_streaming_tally();
    let first_s = built.reports.first().map(|r| r.time_s).unwrap_or(0.0);
    for batch in built.reports.chunks(spec.poll_every_reports as usize) {
        let reports: Vec<WireReport> = batch
            .iter()
            .map(|r| WireReport {
                epc_serial: r.epc.serial(),
                time_s: r.time_s,
                phase_rad: r.phase_rad,
            })
            .collect();
        client.ingest(session, &reports).map_err(|e| RunError::Client(e.to_string()))?;
        tally.reports_ingested += reports.len() as u64;
        let ordering = client.provisional(session).map_err(|e| RunError::Client(e.to_string()))?;
        let now_s = batch.last().expect("chunks are non-empty").time_s;
        observe_poll(&mut tally, ordering.tags_estimated, now_s, first_s);
    }
    // The finishing flush takes an admission slot, so it can bounce
    // `Busy` under load; ride that out like the storm does.
    let response = 'flush: {
        for _ in 0..MAX_STORM_ATTEMPTS_PER_REQUEST {
            match client.flush_session(session, true) {
                Ok(FlushReply::Flushed(outcome)) => break 'flush outcome,
                Ok(FlushReply::Busy { .. }) => {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                }
                Err(e) => return Err(RunError::Client(e.to_string())),
            }
        }
        return Err(RunError::RetriesExhausted { attempts: MAX_STORM_ATTEMPTS_PER_REQUEST });
    }
    .ok_or_else(|| RunError::Client("streaming session saw no reports".to_string()))?;
    if &response.result != reference {
        return Err(RunError::NonDeterministic { request: 0 });
    }
    Ok(tally)
}

fn run_wire(
    spec: &ScenarioSpec,
    built: &BuiltScenario,
    opts: &RunOptions,
) -> Result<Tally, RunError> {
    if let Some(fleet) = &spec.fleet {
        return run_fleet(spec, fleet, built, opts);
    }
    let server_config = server_config(spec);
    let service = LocalizationService::new(service_config(spec));
    let server = StppServer::bind(("127.0.0.1", 0), service, server_config)
        .map_err(|e| RunError::Io(e.to_string()))?;
    let mut handle = Some(server.spawn().map_err(|e| RunError::Io(e.to_string()))?);
    let server_addr = handle.as_ref().expect("just spawned").addr();

    let proxy = match &spec.impairments {
        Some(imp) => {
            Some(ChaosProxy::spawn(server_addr, imp).map_err(|e| RunError::Io(e.to_string()))?)
        }
        None => None,
    };
    let client_addr = proxy.as_ref().map(|p| p.addr()).unwrap_or(server_addr);

    let client_spec = spec.client.unwrap_or_default();
    let mut client = resilient_client(client_addr, &client_spec);
    // `0` is the spec's own "crash drill disabled" value, not an error
    // fallback: scenarios without impairments simply never kill.
    let kill_after = spec.impairments.as_ref().map_or(0, |imp| imp.kill_after_requests);

    // The run proper, kept fallible-but-contained so the server and
    // proxy are always torn down before returning.
    let run = (|| -> Result<Tally, RunError> {
        let mut tally = Tally::new();
        for i in 0..spec.schedule.requests {
            pace(spec, i);
            let started = Instant::now();
            let response = localize_resilient(&mut client, &client_spec, built, opts)?;
            tally.samples.push(RequestSample {
                result: response.result,
                latency_s: started.elapsed().as_secs_f64(),
                geometry_cache_hit: response.metrics.geometry_cache_hit,
                bank_builds: response.metrics.bank_cache.builds,
                variant: 0,
            });
            if kill_after > 0 && i + 1 == kill_after {
                // Crash drill: hard-kill the server mid-run and rebind a
                // fresh one on the same address. The client must notice
                // the dead connection, reconnect, and carry on — the
                // golden orderings stay pinned across the restart.
                if let Some(old) = handle.take() {
                    let _ = old.kill();
                }
                let service = LocalizationService::new(service_config(spec));
                let server = StppServer::bind(server_addr, service, server_config)
                    .map_err(|e| RunError::Io(e.to_string()))?;
                handle = Some(server.spawn().map_err(|e| RunError::Io(e.to_string()))?);
                tally.server_restarts += 1;
            }
        }
        if let Some(imp) = &spec.impairments {
            run_drills(imp, server_addr, &mut client, &client_spec, built, opts, &mut tally)?;
        }
        // `absorb` *assigns* the client counters, so the storm (which
        // adds its own `Busy` observations) must run after it.
        tally.absorb(client.counters());
        if let Some(storm) = &spec.storm {
            run_storm(storm, server_addr, built, opts, &mut tally)?;
        }
        if let Some(streaming) = &spec.streaming {
            let reference = tally.samples.first().expect("schedule ran").result.clone();
            tally.streaming = Some(stream_over_wire(streaming, server_addr, built, &reference)?);
        }
        Ok(tally)
    })();

    // Teardown: drain the server via a direct connection (the proxy may
    // be impaired) so in-flight work finishes before the thread joins,
    // then stop the proxy.
    if let Ok(mut direct) = StppClient::connect(server_addr) {
        let _ = direct.drain();
    }
    if let Some(handle) = handle.take() {
        let _ = handle.join();
    }
    if let Some(proxy) = proxy {
        proxy.shutdown();
    }

    run
}

/// The sharded-fleet wire runner: `shards` servers, each bound with its
/// [`ShardIdentity`] on the scenario's shared ring seed, fronted by a
/// [`FleetClient`]. Requests cycle through `variants` distinct
/// geometries (so the workload spreads across the ring), the misroute
/// drill periodically dispatches to a deliberately wrong shard (whose
/// `Redirect` bounce the client follows), and the shard-kill drill
/// restarts one shard on its own address mid-run. Every wire response is
/// asserted bit-identical to the in-process pipeline's result for its
/// variant — the fleet changes *where* work runs, never what it
/// computes.
fn run_fleet(
    spec: &ScenarioSpec,
    fleet_spec: &FleetSpec,
    built: &BuiltScenario,
    opts: &RunOptions,
) -> Result<Tally, RunError> {
    let shards = fleet_spec.shards as usize;

    // Per-shard sizing: the scenario's server block with the fleet's
    // per-shard overrides applied.
    let mut shard_config = server_config(spec);
    if let Some(depth) = fleet_spec.queue_depth {
        shard_config.queue_depth = depth as usize;
    }
    if let Some(max) = fleet_spec.max_connections {
        shard_config.max_connections = max as usize;
    }

    // The geometry variants: variant 0 is the built input as-is; each
    // later variant perturbs the deployment-known perpendicular
    // distance, so it carries a distinct geometry key (and therefore its
    // own reference banks, owned by whichever shard the ring places it
    // on).
    let base = built
        .input
        .perpendicular_distance_m
        .unwrap_or(StppConfig::default().perpendicular_distance_m);
    let variants: Vec<Arc<StppInput>> = (0..fleet_spec.variants)
        .map(|v| {
            if v == 0 {
                Arc::clone(&built.input)
            } else {
                let mut input = (*built.input).clone();
                input.perpendicular_distance_m = Some(base * (1.0 + 0.05 * v as f64));
                Arc::new(input)
            }
        })
        .collect();

    // The in-process reference per variant: every wire response must be
    // bit-identical to it — a stronger form of the runner's determinism
    // check.
    let localizer = BatchLocalizer::new(StppConfig::default(), opts.threads.unwrap_or(1));
    let references: Vec<StppResult> = variants
        .iter()
        .map(|input| localizer.localize(input).map_err(|e| RunError::Localization(e.to_string())))
        .collect::<Result<_, _>>()?;

    let spawn_shard =
        |index: usize, addr: std::net::SocketAddr| -> Result<stpp_serve::ServerHandle, RunError> {
            let service = LocalizationService::new(service_config(spec));
            let config = ServerConfig {
                shard: Some(ShardIdentity::new(
                    index as u32,
                    fleet_spec.shards as u32,
                    fleet_spec.seed,
                )),
                ..shard_config
            };
            let server =
                StppServer::bind(addr, service, config).map_err(|e| RunError::Io(e.to_string()))?;
            server.spawn().map_err(|e| RunError::Io(e.to_string()))
        };

    let mut handles: Vec<Option<stpp_serve::ServerHandle>> = Vec::with_capacity(shards);
    let mut addrs = Vec::with_capacity(shards);
    for index in 0..shards {
        let handle = spawn_shard(index, std::net::SocketAddr::from(([127, 0, 0, 1], 0)))?;
        addrs.push(handle.addr());
        handles.push(Some(handle));
    }

    let client_spec = spec.client.unwrap_or_default();
    let mut fleet = FleetClient::new(
        addrs.clone(),
        StppConfig::default(),
        retry_policy(&client_spec),
        fleet_spec.seed,
    )
    .with_circuit(client_spec.circuit_threshold as u32, client_spec.circuit_cooldown.as_std());

    let run = (|| -> Result<Tally, RunError> {
        let mut tally = Tally::new();
        let mut variant_seen = vec![false; variants.len()];
        for i in 0..spec.schedule.requests {
            pace(spec, i);
            let variant = (i % fleet_spec.variants) as usize;
            let input = &variants[variant];
            let misroute = fleet_spec.misroute_every > 0
                && shards > 1
                && (i + 1) % fleet_spec.misroute_every == 0;
            let target = misroute.then(|| (fleet.shard_for(input) + 1) % fleet_spec.shards as u32);
            let started = Instant::now();
            let (_served_by, response) =
                fleet_localize(&mut fleet, &client_spec, input, target, opts)?;
            if response.result != references[variant] {
                return Err(RunError::NonDeterministic { request: i });
            }
            if variant_seen[variant] {
                tally.cross_shard_builds += response.metrics.bank_cache.builds;
            } else {
                variant_seen[variant] = true;
            }
            tally.samples.push(RequestSample {
                result: response.result,
                latency_s: started.elapsed().as_secs_f64(),
                geometry_cache_hit: response.metrics.geometry_cache_hit,
                bank_builds: response.metrics.bank_cache.builds,
                variant: variant as u64,
            });
            if let Some(kill) = fleet_spec.kill_shard {
                if i + 1 == fleet_spec.kill_after_requests {
                    // Shard-kill drill: hard-kill one shard mid-run and
                    // rebind a fresh (cold) one on the same address with
                    // the same identity. The fleet client's per-shard
                    // retry budget must notice, reconnect, and carry on;
                    // every other shard stays warm and untouched.
                    let kill = kill as usize;
                    if let Some(old) = handles[kill].take() {
                        let _ = old.kill();
                    }
                    handles[kill] = Some(spawn_shard(kill, addrs[kill])?);
                    tally.server_restarts += 1;
                }
            }
        }
        tally.absorb(fleet.counters());
        tally.shards_used = fleet.shards_used();
        tally.redirects = fleet.redirects();
        Ok(tally)
    })();

    // Teardown: drain every shard directly so in-flight work finishes
    // before the accept threads join.
    for (index, addr) in addrs.iter().enumerate() {
        if let Ok(mut direct) = StppClient::connect(*addr) {
            let _ = direct.drain();
        }
        if let Some(handle) = handles[index].take() {
            let _ = handle.join();
        }
    }

    run
}

/// One localize call through the fleet client (see
/// [`localize_resilient`] — same terminal-outcome mapping, with an open
/// per-shard circuit ridden out across bounded cooldown waits).
/// `target` dispatches to an explicit shard (the misroute drill);
/// `None` routes normally.
fn fleet_localize(
    fleet: &mut FleetClient,
    client_spec: &ClientSpec,
    input: &StppInput,
    target: Option<u32>,
    opts: &RunOptions,
) -> Result<(u32, stpp_serve::LocalizationResponse), RunError> {
    for _ in 0..MAX_CIRCUIT_WAITS_PER_REQUEST {
        let result = match target {
            Some(shard) => fleet.localize_on(shard, input, opts.threads),
            None => fleet.localize(input, opts.threads),
        };
        match result {
            Ok(served) => return Ok(served),
            Err(ResilientError::CircuitOpen { .. }) => {
                std::thread::sleep(client_spec.circuit_cooldown.as_std());
            }
            Err(ResilientError::BudgetExhausted { attempts, .. }) => {
                return Err(RunError::RetriesExhausted { attempts: attempts as u64 })
            }
            Err(ResilientError::Fatal(e)) => return Err(RunError::Client(e.to_string())),
        }
    }
    Err(RunError::RetriesExhausted { attempts: MAX_CIRCUIT_WAITS_PER_REQUEST })
}

/// The [`RetryPolicy`] a scenario's `client` block describes.
fn retry_policy(spec: &ClientSpec) -> RetryPolicy {
    RetryPolicy {
        max_attempts: spec.attempts as u32,
        base_backoff: spec.base_backoff.as_std(),
        max_backoff: spec.max_backoff.as_std(),
        jitter: spec.jitter,
        seed: spec.seed,
        deadline: spec.deadline.as_std(),
    }
}

/// Builds the wire client the scenario's `client` block describes.
fn resilient_client(addr: std::net::SocketAddr, spec: &ClientSpec) -> ResilientClient {
    ResilientClient::new(addr, retry_policy(spec))
        .with_circuit(spec.circuit_threshold as u32, spec.circuit_cooldown.as_std())
}

/// One localize call through the resilient client. Retries, `Busy`
/// absorption, reconnects, and deadlines all live inside the client; the
/// runner only decides what each terminal outcome means for the run. An
/// open circuit is ridden out (bounded cooldown waits) so a scenario can
/// pin `circuit_opens` and still finish.
fn localize_resilient(
    client: &mut ResilientClient,
    client_spec: &ClientSpec,
    built: &BuiltScenario,
    opts: &RunOptions,
) -> Result<stpp_serve::LocalizationResponse, RunError> {
    for _ in 0..MAX_CIRCUIT_WAITS_PER_REQUEST {
        match client.localize(&built.input, opts.threads) {
            Ok(response) => return Ok(response),
            Err(ResilientError::CircuitOpen { .. }) => {
                // Let the cooldown elapse, then the half-open probe runs.
                std::thread::sleep(client_spec.circuit_cooldown.as_std());
            }
            Err(ResilientError::BudgetExhausted { attempts, .. }) => {
                return Err(RunError::RetriesExhausted { attempts: attempts as u64 })
            }
            Err(ResilientError::Fatal(e)) => return Err(RunError::Client(e.to_string())),
        }
    }
    Err(RunError::RetriesExhausted { attempts: MAX_CIRCUIT_WAITS_PER_REQUEST })
}

/// Queue-overfill drills: each drill occupies an admission slot with a
/// raw `Pause` frame on a *direct* (unimpaired) connection, probes the
/// main path until a request gets through, then reaps the `Paused`
/// response. With `queue_depth` sized down this forces real `Busy`
/// rejections through the public machinery — the server is never
/// special-cased.
#[allow(clippy::too_many_arguments)]
fn run_drills(
    imp: &ImpairmentSpec,
    server_addr: std::net::SocketAddr,
    client: &mut ResilientClient,
    client_spec: &ClientSpec,
    built: &BuiltScenario,
    opts: &RunOptions,
    tally: &mut Tally,
) -> Result<(), RunError> {
    for _ in 0..imp.pause_drills {
        let mut drill =
            std::net::TcpStream::connect(server_addr).map_err(|e| RunError::Io(e.to_string()))?;
        write_frame(&mut drill, &Request::Pause { seconds: imp.pause_hold.seconds })
            .map_err(|e| RunError::Io(e.to_string()))?;
        // While the drill holds its slot, the main path must still make
        // progress (absorbing `Busy` along the way). The probe repeats
        // the same input, so its result joins the determinism check even
        // though it is not a scheduled request.
        let response = localize_resilient(client, client_spec, built, opts)?;
        if let Some(first) = tally.samples.first() {
            if response.result != first.result {
                return Err(RunError::NonDeterministic { request: tally.samples.len() as u64 });
            }
        }
        match read_frame::<_, Response>(&mut drill) {
            Ok(Some(Response::Paused)) | Ok(Some(Response::Busy { .. })) => {}
            Ok(other) => {
                return Err(RunError::Client(format!("drill got unexpected frame: {other:?}")))
            }
            Err(e) => return Err(RunError::Io(e.to_string())),
        }
        tally.drills_run += 1;
    }
    Ok(())
}

/// Attempts each storm connection gets per request before the run is
/// declared stuck: every `Busy` rejection, torn connection, or
/// over-limit rejection costs one.
const MAX_STORM_ATTEMPTS_PER_REQUEST: u64 = 500;

/// The connection storm: `connections` raw TCP clients, each trickling
/// its `Localize` frames `chunk_bytes` at a time (exercising the
/// server's frame reads across short reads), straight at the server
/// address — any chaos proxy is bypassed, because the storm probes the
/// server, not the wire impairments. A `Busy` rejection is counted and retried
/// on the same connection; a torn or over-limit connection reconnects.
/// A connection counts as served only when every one of its requests
/// came back `Localized` with the run's deterministic result.
fn run_storm(
    storm: &StormSpec,
    server_addr: std::net::SocketAddr,
    built: &BuiltScenario,
    opts: &RunOptions,
    tally: &mut Tally,
) -> Result<(), RunError> {
    use std::io::Write as _;

    let mut frame = Vec::new();
    encode_localize_request_into(&built.input, opts.threads.map(|t| t as u64), &mut frame)
        .map_err(|e| RunError::Client(e.to_string()))?;
    let frame = &frame[..];
    let expected = &tally.samples.first().expect("storm runs after the schedule").result;
    let sample_count = tally.samples.len() as u64;
    let chunk = storm.chunk_bytes.max(1) as usize;
    let gap = storm.chunk_gap.as_std();

    let connect = || -> std::io::Result<std::net::TcpStream> {
        let stream = std::net::TcpStream::connect(server_addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
        Ok(stream)
    };
    let trickle = |stream: &mut std::net::TcpStream| -> std::io::Result<()> {
        for (i, piece) in frame.chunks(chunk).enumerate() {
            if i > 0 && gap > std::time::Duration::ZERO {
                std::thread::sleep(gap);
            }
            stream.write_all(piece)?;
        }
        stream.flush()
    };

    // One OS thread per storm connection — the *client* side is allowed
    // to burn threads; the point is that the server side must not.
    let results: Vec<Result<(bool, u64), RunError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..storm.connections)
            .map(|_| {
                scope.spawn(|| -> Result<(bool, u64), RunError> {
                    let mut busy = 0u64;
                    let mut stream = None;
                    for _ in 0..storm.requests_per_connection {
                        let mut served = false;
                        for _ in 0..MAX_STORM_ATTEMPTS_PER_REQUEST {
                            let conn = match stream.as_mut() {
                                Some(conn) => conn,
                                None => match connect() {
                                    Ok(conn) => stream.insert(conn),
                                    Err(_) => {
                                        std::thread::sleep(std::time::Duration::from_millis(2));
                                        continue;
                                    }
                                },
                            };
                            let reply = trickle(conn).map_err(|e| e.to_string()).and_then(|()| {
                                read_frame::<_, Response>(conn).map_err(|e| e.to_string())
                            });
                            match reply {
                                Ok(Some(Response::Localized { response })) => {
                                    if &response.result != expected {
                                        return Err(RunError::NonDeterministic {
                                            request: sample_count,
                                        });
                                    }
                                    served = true;
                                    break;
                                }
                                Ok(Some(Response::Busy { .. })) => {
                                    busy += 1;
                                    std::thread::sleep(std::time::Duration::from_millis(2));
                                }
                                Ok(Some(Response::TooManyConnections { .. }))
                                | Ok(None)
                                | Err(_) => {
                                    // Over the connection cap or torn
                                    // mid-exchange: drop and reconnect.
                                    stream = None;
                                    std::thread::sleep(std::time::Duration::from_millis(2));
                                }
                                Ok(Some(other)) => {
                                    return Err(RunError::Client(format!(
                                        "storm got unexpected frame: {other:?}"
                                    )))
                                }
                            }
                        }
                        if !served {
                            return Ok((false, busy));
                        }
                    }
                    Ok((true, busy))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("storm thread panicked")).collect()
    });

    for result in results {
        let (served, busy) = result?;
        tally.busy_responses += busy;
        if served {
            tally.storm_connections += 1;
        }
    }
    Ok(())
}

fn service_config(spec: &ScenarioSpec) -> ServiceConfig {
    ServiceConfig { pool_workers: spec.server.pool_workers as usize, ..ServiceConfig::default() }
}

fn server_config(spec: &ScenarioSpec) -> ServerConfig {
    let mut config =
        ServerConfig { queue_depth: spec.server.queue_depth as usize, ..ServerConfig::default() };
    if let Some(max) = spec.server.max_connections {
        config.max_connections = max as usize;
    }
    config
}

fn pace(spec: &ScenarioSpec, request_index: u64) {
    if request_index > 0 && spec.schedule.gap.seconds > 0.0 {
        std::thread::sleep(spec.schedule.gap.as_std());
    }
}

fn finish(
    spec: &ScenarioSpec,
    built: &BuiltScenario,
    mode: RunMode,
    tally: Tally,
) -> Result<RunReport, RunError> {
    let first = tally.samples.first().expect("schedule guarantees at least one request");
    // Determinism: each sample must match the first sample of its
    // variant (a fleet run carries several geometries; everything else
    // is all variant 0, where this is the original all-equal check).
    for (i, sample) in tally.samples.iter().enumerate().skip(1) {
        let reference = tally
            .samples
            .iter()
            .find(|s| s.variant == sample.variant)
            .expect("the sample itself matches at worst");
        if sample.result != reference.result {
            return Err(RunError::NonDeterministic { request: i as u64 });
        }
    }

    let result = &first.result;
    // In the tag-moving case a tag placed further back on the belt
    // (larger layout X) passes the antenna later, and STPP orders tags
    // by passing time — so the detected order is reversed before
    // comparing against the ascending-X ground truth (same convention
    // as the airport conveyor app).
    let detected_x: Vec<u64> = match spec.deployment {
        crate::spec::DeploymentSpec::Conveyor { .. } => {
            result.order_x.iter().rev().copied().collect()
        }
        crate::spec::DeploymentSpec::AntennaSweep { .. } => result.order_x.clone(),
    };
    let accuracy_x = metrics::ordering_accuracy(&detected_x, &built.truth_x);
    let accuracy_y = metrics::ordering_accuracy(&result.order_y, &built.truth_y);
    let outcome = RunOutcome {
        requests: tally.samples.len() as u64,
        tags: built.input.observations.len() as u64,
        localized: result.localized_count() as u64,
        order_x: result.order_x.clone(),
        order_y: result.order_y.clone(),
        undetected: result.undetected.clone(),
        accuracy_x,
        accuracy_y,
        busy_responses: tally.busy_responses,
        transport_errors: tally.transport_errors,
        retries: tally.retries,
        timeouts: tally.timeouts,
        circuit_opens: tally.circuit_opens,
        reconnects: tally.reconnects,
        server_restarts: tally.server_restarts,
        drills_run: tally.drills_run,
        storm_connections: tally.storm_connections,
        shards_used: tally.shards_used,
        redirects: tally.redirects,
        cross_shard_builds: tally.cross_shard_builds,
    };

    let n = tally.samples.len() as f64;
    let latency = LatencySummary {
        max_seconds: tally.samples.iter().map(|s| s.latency_s).fold(0.0, f64::max),
        mean_seconds: tally.samples.iter().map(|s| s.latency_s).sum::<f64>() / n,
    };

    let service = match mode {
        RunMode::Pipeline => None,
        RunMode::Service | RunMode::Wire => {
            // Each variant's first request is the cold one; builds on
            // any later request of that variant are warm builds. With a
            // single variant this is exactly the original
            // first-vs-the-rest split.
            let mut seen = Vec::new();
            let (mut cold_builds, mut warm_builds) = (0, 0);
            for sample in &tally.samples {
                if seen.contains(&sample.variant) {
                    warm_builds += sample.bank_builds;
                } else {
                    seen.push(sample.variant);
                    cold_builds += sample.bank_builds;
                }
            }
            Some(ServiceObservations {
                geometry_hits: tally.samples.iter().filter(|s| s.geometry_cache_hit).count() as u64,
                cold_builds,
                warm_builds,
            })
        }
    };

    let streaming = tally.streaming;
    let checks = evaluate(
        &spec.expectations,
        &outcome,
        &latency,
        service.as_ref(),
        streaming.as_ref(),
        mode,
    );

    Ok(RunReport {
        scenario: spec.name.clone(),
        mode,
        outcome,
        latency,
        service,
        streaming,
        checks,
    })
}

fn evaluate(
    exp: &Expectations,
    outcome: &RunOutcome,
    latency: &LatencySummary,
    service: Option<&ServiceObservations>,
    streaming: Option<&StreamingObservations>,
    mode: RunMode,
) -> Vec<CheckResult> {
    let mut checks = Vec::new();
    let skipped =
        |name: &str| CheckResult::pass(name, format!("skipped (not applicable in {mode} mode)"));

    let pin = |name: &str, expected: &Option<Vec<u64>>, actual: &[u64]| -> Option<CheckResult> {
        expected.as_ref().map(|expected| {
            if expected == actual {
                CheckResult::pass(name, format!("{actual:?} matches the pinned ordering"))
            } else {
                CheckResult::fail(name, format!("got {actual:?}, pinned {expected:?}"))
            }
        })
    };
    checks.extend(pin("order_x", &exp.order_x, &outcome.order_x));
    checks.extend(pin("order_y", &exp.order_y, &outcome.order_y));
    checks.extend(pin("undetected", &exp.undetected, &outcome.undetected));

    let floor = |name: &str, observed: f64, required: Option<f64>| -> Option<CheckResult> {
        required.map(|required| {
            if observed >= required {
                CheckResult::pass(name, format!("{observed:.3} ≥ floor {required:.3}"))
            } else {
                CheckResult::fail(name, format!("{observed:.3} < floor {required:.3}"))
            }
        })
    };
    checks.extend(floor("min_accuracy_x", outcome.accuracy_x, exp.min_accuracy_x));
    checks.extend(floor("min_accuracy_y", outcome.accuracy_y, exp.min_accuracy_y));

    if let Some(ceiling) = exp.max_request_latency {
        let observed = latency.max_seconds;
        checks.push(if observed <= ceiling.seconds {
            CheckResult::pass(
                "max_request_latency",
                format!(
                    "slowest request {:.1}ms ≤ ceiling {:.1}ms",
                    observed * 1e3,
                    ceiling.seconds * 1e3
                ),
            )
        } else {
            CheckResult::fail(
                "max_request_latency",
                format!(
                    "slowest request {:.1}ms > ceiling {:.1}ms",
                    observed * 1e3,
                    ceiling.seconds * 1e3
                ),
            )
        });
    }

    if let Some(ceiling) = exp.max_busy_rate {
        let attempts = outcome.requests + outcome.busy_responses;
        let rate = if attempts > 0 { outcome.busy_responses as f64 / attempts as f64 } else { 0.0 };
        checks.push(if rate <= ceiling {
            CheckResult::pass("max_busy_rate", format!("{rate:.3} ≤ ceiling {ceiling:.3}"))
        } else {
            CheckResult::fail("max_busy_rate", format!("{rate:.3} > ceiling {ceiling:.3}"))
        });
    }

    if let Some(min) = exp.min_busy_responses {
        checks.push(if mode != RunMode::Wire {
            skipped("min_busy_responses")
        } else if outcome.busy_responses >= min {
            CheckResult::pass(
                "min_busy_responses",
                format!("{} ≥ floor {min}", outcome.busy_responses),
            )
        } else {
            CheckResult::fail(
                "min_busy_responses",
                format!("{} < floor {min}", outcome.busy_responses),
            )
        });
    }

    if let Some(max) = exp.max_transport_errors {
        checks.push(if outcome.transport_errors <= max {
            CheckResult::pass(
                "max_transport_errors",
                format!("{} ≤ ceiling {max}", outcome.transport_errors),
            )
        } else {
            CheckResult::fail(
                "max_transport_errors",
                format!("{} > ceiling {max}", outcome.transport_errors),
            )
        });
    }

    if let Some(min) = exp.min_transport_errors {
        checks.push(if mode != RunMode::Wire {
            skipped("min_transport_errors")
        } else if outcome.transport_errors >= min {
            CheckResult::pass(
                "min_transport_errors",
                format!("{} ≥ floor {min}", outcome.transport_errors),
            )
        } else {
            CheckResult::fail(
                "min_transport_errors",
                format!("{} < floor {min}", outcome.transport_errors),
            )
        });
    }

    if exp.warm_zero_builds {
        checks.push(match service {
            None => skipped("warm_zero_builds"),
            Some(s) if s.warm_builds == 0 => CheckResult::pass(
                "warm_zero_builds",
                format!("cold request built {} banks, warm requests built 0", s.cold_builds),
            ),
            Some(s) => CheckResult::fail(
                "warm_zero_builds",
                format!("warm requests built {} banks (expected 0)", s.warm_builds),
            ),
        });
    }

    if let Some(min) = exp.min_geometry_hits {
        checks.push(match service {
            None => skipped("min_geometry_hits"),
            Some(s) if s.geometry_hits >= min => {
                CheckResult::pass("min_geometry_hits", format!("{} ≥ floor {min}", s.geometry_hits))
            }
            Some(s) => {
                CheckResult::fail("min_geometry_hits", format!("{} < floor {min}", s.geometry_hits))
            }
        });
    }

    // Resilience counters only move on the wire: floors are skipped in
    // the in-process modes (which can never retry), while ceilings are
    // checked everywhere — a non-wire mode exceeding zero would mean the
    // counters leaked into paths that must not have them.
    let wire_floor = |name: &str, observed: u64, required: Option<u64>| -> Option<CheckResult> {
        required.map(|min| {
            if mode != RunMode::Wire {
                skipped(name)
            } else if observed >= min {
                CheckResult::pass(name, format!("{observed} ≥ floor {min}"))
            } else {
                CheckResult::fail(name, format!("{observed} < floor {min}"))
            }
        })
    };
    let ceiling = |name: &str, observed: u64, required: Option<u64>| -> Option<CheckResult> {
        required.map(|max| {
            if observed <= max {
                CheckResult::pass(name, format!("{observed} ≤ ceiling {max}"))
            } else {
                CheckResult::fail(name, format!("{observed} > ceiling {max}"))
            }
        })
    };
    checks.extend(wire_floor("min_retries", outcome.retries, exp.min_retries));
    checks.extend(ceiling("max_retries", outcome.retries, exp.max_retries));
    checks.extend(wire_floor("min_timeouts", outcome.timeouts, exp.min_timeouts));
    checks.extend(ceiling("max_timeouts", outcome.timeouts, exp.max_timeouts));
    checks.extend(wire_floor("min_circuit_opens", outcome.circuit_opens, exp.min_circuit_opens));
    checks.extend(ceiling("max_circuit_opens", outcome.circuit_opens, exp.max_circuit_opens));
    checks.extend(wire_floor(
        "min_storm_connections",
        outcome.storm_connections,
        exp.min_storm_connections,
    ));
    checks.extend(wire_floor("min_shards_used", outcome.shards_used, exp.min_shards_used));
    checks.extend(wire_floor("min_redirects", outcome.redirects, exp.min_redirects));
    checks.extend(ceiling("max_redirects", outcome.redirects, exp.max_redirects));
    checks.extend(ceiling(
        "max_cross_shard_builds",
        outcome.cross_shard_builds,
        exp.max_cross_shard_builds,
    ));

    // Streaming expectations only observe the streaming feed, which the
    // pipeline mode (no session layer) never runs — skipped there, like
    // the wire-only floors above.
    if let Some(min) = exp.min_provisional_results {
        checks.push(match streaming {
            None => skipped("min_provisional_results"),
            Some(s) if s.provisional_results >= min => CheckResult::pass(
                "min_provisional_results",
                format!("{} ≥ floor {min}", s.provisional_results),
            ),
            Some(s) => CheckResult::fail(
                "min_provisional_results",
                format!("{} < floor {min}", s.provisional_results),
            ),
        });
    }
    if let Some(ceiling) = exp.max_time_to_first_result {
        checks.push(match streaming {
            None => skipped("max_time_to_first_result"),
            Some(s) => match s.time_to_first_result_s {
                Some(t) if t <= ceiling.seconds => CheckResult::pass(
                    "max_time_to_first_result",
                    format!("first provisional at {t:.3}s ≤ ceiling {:.3}s", ceiling.seconds),
                ),
                Some(t) => CheckResult::fail(
                    "max_time_to_first_result",
                    format!("first provisional at {t:.3}s > ceiling {:.3}s", ceiling.seconds),
                ),
                None => CheckResult::fail(
                    "max_time_to_first_result",
                    "no provisional poll ever returned an estimate".to_string(),
                ),
            },
        });
    }

    checks
}
