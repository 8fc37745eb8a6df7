//! The long-lived localization service.
//!
//! A portal deployment localizes conveyor after conveyor of tag
//! populations with the *same* scenario geometry. The per-run pipeline
//! rebuilds its reference banks — and spawns fresh detection threads with
//! fresh scratch arenas — for every call; [`LocalizationService`] instead
//! owns one process-wide LRU of [`ReferenceBankCache`]s keyed by the
//! request's effective geometry **and** one persistent
//! [`WorkerPool`] whose workers keep their
//! [`DetectScratch`](stpp_core::DetectScratch) arenas warm across
//! requests. Every request detects on its calling thread, with pool
//! workers helping when its fanout allows, and reports per-request
//! metrics (exact bank-cache counters, per-stage timings). Output is
//! bit-identical to the sequential [`RelativeLocalizer`] for any pool
//! size or per-request fanout, warm or cold.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use stpp_core::{
    BankCacheStats, LocalizationError, ReferenceBankCache, RelativeLocalizer, StppConfig,
    StppInput, StppResult,
};

use crate::pool::WorkerPool;
use crate::session::{IngestError, ServiceSession, SessionGeometry};

/// Configuration of a [`LocalizationService`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// The pipeline configuration every request runs with.
    pub stpp: StppConfig,
    /// Default per-request detection fanout (requests may override it):
    /// the number of claim loops a request runs, counting the calling
    /// thread's own, so a request sends `threads − 1` helper jobs to the
    /// pool. Clamped to the pool size and the request's tag count.
    pub threads: usize,
    /// Number of persistent worker threads in the service's detection
    /// pool (each with a long-lived scratch). They run helper claim
    /// loops only: every request also detects on its calling thread.
    /// Defaults to the available parallelism; clamped to at least 1.
    pub pool_workers: usize,
    /// Upper bound on the number of distinct geometries whose bank caches
    /// are retained. The registry is a small LRU: inserting beyond the
    /// bound evicts the least-recently-used geometry only (the pre-LRU
    /// growth guard flushed the whole registry).
    pub max_cached_geometries: usize,
    /// Default quiescence window for streaming sessions, seconds: a tag
    /// whose last read is at least this much older than the newest
    /// ingested timestamp is considered to have left the reading zone.
    pub session_quiescence_s: f64,
    /// Maximum samples one streaming session may buffer before ingestion
    /// is rejected with [`IngestError::SessionFull`](crate::IngestError).
    /// Bounds the memory a misbehaving (or never-flushing) report stream
    /// can pin; the default of 4 million samples is ~64 MiB per session.
    pub session_max_samples: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let parallelism = thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        ServiceConfig {
            stpp: StppConfig::default(),
            threads: parallelism,
            pool_workers: parallelism,
            max_cached_geometries: 64,
            session_quiescence_s: 1.5,
            session_max_samples: 4_000_000,
        }
    }
}

/// The effective geometry of a request — everything that determines the
/// *contents* of a reference bank. Requests with equal keys can share one
/// [`ReferenceBankCache`]; requests with different keys must not (the
/// cache's own entries are keyed by sampling interval only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GeometryKey {
    speed_bits: u64,
    wavelength_bits: u64,
    perpendicular_bits: u64,
    window: usize,
    offset_candidates: usize,
    periods: usize,
}

impl GeometryKey {
    /// Derives the key a request resolves to: the input's sweep geometry
    /// combined with the configuration fields baked into bank
    /// construction. Uses [`StppConfig::effective_perpendicular_m`], so
    /// an input carrying its own surveyed perpendicular distance keys
    /// differently from one falling back to the deployment default.
    pub fn for_request(config: &StppConfig, input: &StppInput) -> GeometryKey {
        GeometryKey {
            speed_bits: input.nominal_speed_mps.to_bits(),
            wavelength_bits: input.wavelength_m.to_bits(),
            perpendicular_bits: config.effective_perpendicular_m(input).to_bits(),
            window: config.window,
            offset_candidates: config.offset_candidates,
            periods: config.reference_periods,
        }
    }

    /// Derives the key a streaming session's flush batches will resolve
    /// to under `config`. A [`ServiceSession`] builds its batches as an
    /// [`StppInput`] carrying exactly the [`SessionGeometry`] fields, so
    /// this agrees with [`for_request`](Self::for_request) on every batch
    /// the session ever flushes, so a session's provisional polls and its
    /// flushed batches share one registry entry (one set of warm banks).
    pub fn for_session(config: &StppConfig, geometry: &SessionGeometry) -> GeometryKey {
        GeometryKey {
            speed_bits: geometry.nominal_speed_mps.to_bits(),
            wavelength_bits: geometry.wavelength_m.to_bits(),
            perpendicular_bits: geometry
                .perpendicular_distance_m
                .filter(|d| d.is_finite() && *d > 0.0)
                .unwrap_or(config.perpendicular_distance_m)
                .to_bits(),
            window: config.window,
            offset_candidates: config.offset_candidates,
            periods: config.reference_periods,
        }
    }
}

/// One localization request: the input plus optional per-request
/// overrides. The input lives behind an [`Arc`] so the service can hand
/// it to its persistent worker pool without copying the observations.
#[derive(Debug, Clone)]
pub struct LocalizationRequest {
    /// The pipeline input (per-tag observations + sweep geometry).
    pub input: Arc<StppInput>,
    /// Detection fanout for this request; `None` uses the service
    /// default.
    pub threads: Option<usize>,
}

/// Per-request instrumentation returned alongside every result.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestMetrics {
    /// Number of tags in the request.
    pub tags: usize,
    /// Number of tags localized (present in the orderings).
    pub localized: usize,
    /// Number of tags observed but not localizable.
    pub undetected: usize,
    /// Detection fanout the request actually ran with: the requested (or
    /// service-default) count capped at the pool size and the tag
    /// population, exactly as the worker pool clamps it. It counts claim
    /// loops including the calling thread's, so 1 means the request never
    /// left its caller.
    pub threads: usize,
    /// Whether the request's geometry already had a bank cache registered
    /// (a *geometry* hit still says nothing about the banks inside — see
    /// `bank_cache`).
    pub geometry_cache_hit: bool,
    /// Bank-cache counter deltas attributed to this request: `builds = 0`
    /// is the warm-path guarantee. Deltas are **exact** even under
    /// concurrency: they are summed from the scratch-local counters of
    /// the request's claim loops (the caller's and its helpers'), not
    /// snapshotted from the shared cache's
    /// global counters (which interleave concurrent requests).
    pub bank_cache: BankCacheStats,
    /// Time spent validating the request and constructing the detection
    /// engine, seconds.
    pub prepare_seconds: f64,
    /// Time spent in per-tag V-zone detection (the DTW stage), seconds.
    pub detect_seconds: f64,
    /// Time spent assembling the X/Y orderings, seconds.
    pub order_seconds: f64,
    /// End-to-end service time for the request, seconds.
    pub total_seconds: f64,
}

/// A localization result plus its request metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalizationResponse {
    /// The ordered result, bit-identical to the sequential localizer's.
    pub result: StppResult,
    /// Instrumentation for this request.
    pub metrics: RequestMetrics,
}

/// Monotonic service-level counters (see [`LocalizationService::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Requests served (successfully or not).
    pub requests: u64,
    /// Requests whose geometry already had a registered bank cache.
    pub geometry_hits: u64,
    /// Requests that registered a new geometry.
    pub geometry_misses: u64,
    /// Times the whole geometry registry was flushed. Always 0 since the
    /// registry became an LRU (kept for dashboard compatibility with the
    /// pre-LRU growth guard, whose flush this counted).
    pub registry_flushes: u64,
    /// Geometries evicted from the LRU registry to admit a new one.
    pub registry_evictions: u64,
    /// Streaming sessions opened.
    pub sessions_opened: u64,
    /// Batches localized on behalf of streaming sessions.
    pub session_batches: u64,
}

/// One registered geometry: its shared bank cache plus the logical
/// timestamp of its last use (the LRU ordering).
struct RegistryEntry {
    cache: Arc<ReferenceBankCache>,
    last_used: u64,
}

/// The geometry-keyed LRU of bank caches.
struct GeometryRegistry {
    entries: HashMap<GeometryKey, RegistryEntry>,
    tick: u64,
}

/// A long-lived localization service holding one process-wide,
/// geometry-keyed LRU of reference-bank caches and one persistent
/// detection worker pool.
///
/// Wrap it in an [`Arc`] (see [`LocalizationService::new`]) and share it
/// across threads and requests: every method takes `&self`, and repeated
/// requests for the same geometry perform **zero** reference-bank
/// constructions after the first.
#[derive(Debug)]
pub struct LocalizationService {
    config: ServiceConfig,
    pub(crate) pool: WorkerPool,
    banks: Mutex<GeometryRegistry>,
    requests: AtomicU64,
    geometry_hits: AtomicU64,
    geometry_misses: AtomicU64,
    registry_evictions: AtomicU64,
    pub(crate) sessions_opened: AtomicU64,
    pub(crate) session_batches: AtomicU64,
}

impl std::fmt::Debug for GeometryRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GeometryRegistry")
            .field("geometries", &self.entries.len())
            .field("tick", &self.tick)
            .finish()
    }
}

impl LocalizationService {
    /// Creates a service ready for process-wide sharing. Spawns the
    /// persistent worker pool.
    pub fn new(config: ServiceConfig) -> Arc<Self> {
        let config = ServiceConfig {
            threads: config.threads.max(1),
            pool_workers: config.pool_workers.max(1),
            max_cached_geometries: config.max_cached_geometries.max(1),
            ..config
        };
        Arc::new(LocalizationService {
            pool: WorkerPool::new(config.pool_workers),
            config,
            banks: Mutex::new(GeometryRegistry { entries: HashMap::new(), tick: 0 }),
            requests: AtomicU64::new(0),
            geometry_hits: AtomicU64::new(0),
            geometry_misses: AtomicU64::new(0),
            registry_evictions: AtomicU64::new(0),
            sessions_opened: AtomicU64::new(0),
            session_batches: AtomicU64::new(0),
        })
    }

    /// Creates a service with the default configuration.
    pub fn with_defaults() -> Arc<Self> {
        LocalizationService::new(ServiceConfig::default())
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Number of persistent workers in the detection pool.
    pub fn pool_workers(&self) -> usize {
        self.pool.workers()
    }

    /// Localizes one request with the service default fanout. The `Arc`
    /// is cloned, not the observations — callers keep their handle.
    pub fn localize(
        &self,
        input: Arc<StppInput>,
    ) -> Result<LocalizationResponse, LocalizationError> {
        self.localize_request(LocalizationRequest { input, threads: None })
    }

    /// Localizes one request.
    pub fn localize_request(
        &self,
        request: LocalizationRequest,
    ) -> Result<LocalizationResponse, LocalizationError> {
        let started = Instant::now();
        self.requests.fetch_add(1, Ordering::Relaxed);
        let input = request.input;
        // Reject invalid requests *before* touching the geometry
        // registry: a stream of malformed requests (NaN speed, empty
        // populations) must not register never-usable caches and
        // eventually evict the warm banks of valid geometries. Same
        // validator the pipeline itself runs, so the rejection condition
        // cannot drift.
        input.validate()?;
        // Mirror the worker pool's clamp so the metrics report the
        // parallelism the request actually ran with.
        let threads = request
            .threads
            .unwrap_or(self.config.threads)
            .min(self.config.pool_workers)
            .min(input.observations.len())
            .max(1);

        let (cache, geometry_cache_hit) = self.bank_cache_for(&self.config.stpp, &input);

        let localizer = RelativeLocalizer::new(self.config.stpp);
        let prepared = Arc::new(localizer.prepare_shared(input.clone(), cache)?);
        let prepare_seconds = started.elapsed().as_secs_f64();

        let detect_started = Instant::now();
        let (per_tag, bank_cache) = self.pool.detect(&prepared, threads);
        let per_tag = per_tag?;
        let detect_seconds = detect_started.elapsed().as_secs_f64();

        let order_started = Instant::now();
        let result = prepared.assemble(per_tag)?;
        let order_seconds = order_started.elapsed().as_secs_f64();

        let metrics = RequestMetrics {
            tags: input.observations.len(),
            localized: result.localized_count(),
            undetected: result.undetected.len(),
            threads,
            geometry_cache_hit,
            bank_cache,
            prepare_seconds,
            detect_seconds,
            order_seconds,
            total_seconds: started.elapsed().as_secs_f64(),
        };
        Ok(LocalizationResponse { result, metrics })
    }

    /// Opens a streaming ingestion session against this service with the
    /// default quiescence window. Fails with
    /// [`IngestError::InvalidQuiescence`] when the *configured* default is
    /// not a positive, finite number of seconds.
    pub fn open_session(
        self: &Arc<Self>,
        geometry: SessionGeometry,
    ) -> Result<ServiceSession, IngestError> {
        let quiescence = self.config.session_quiescence_s;
        self.open_session_with_quiescence(geometry, quiescence)
    }

    /// Opens a streaming ingestion session with an explicit quiescence
    /// window (seconds of read silence after which a tag is considered to
    /// have left the reading zone). The window must be a positive, finite
    /// number of seconds: a NaN window compares every tag as
    /// never-quiescent, a zero or negative one flushes every tag on every
    /// poll — both are rejected here with
    /// [`IngestError::InvalidQuiescence`] instead of silently producing a
    /// session that never (or always) flushes.
    pub fn open_session_with_quiescence(
        self: &Arc<Self>,
        geometry: SessionGeometry,
        quiescence_s: f64,
    ) -> Result<ServiceSession, IngestError> {
        if !quiescence_s.is_finite() || quiescence_s <= 0.0 {
            return Err(IngestError::InvalidQuiescence);
        }
        self.sessions_opened.fetch_add(1, Ordering::Relaxed);
        Ok(ServiceSession::new(self.clone(), geometry, quiescence_s))
    }

    /// The bank cache registered for this request's geometry, creating it
    /// if needed (evicting the least-recently-used geometry when the
    /// registry is full). The boolean reports whether the geometry was
    /// already registered.
    fn bank_cache_for(
        &self,
        config: &StppConfig,
        input: &StppInput,
    ) -> (Arc<ReferenceBankCache>, bool) {
        self.registry_cache(GeometryKey::for_request(config, input))
    }

    /// The bank cache a streaming session's provisional estimation shares
    /// with the batches the session will flush:
    /// [`GeometryKey::for_session`] agrees with
    /// [`GeometryKey::for_request`] on every batch the session ever
    /// builds, so provisional polls warm the very banks the final
    /// detection uses (and vice versa).
    pub(crate) fn session_bank_cache(&self, geometry: &SessionGeometry) -> Arc<ReferenceBankCache> {
        self.registry_cache(GeometryKey::for_session(&self.config.stpp, geometry)).0
    }

    /// Registry lookup shared by the request and session paths.
    fn registry_cache(&self, key: GeometryKey) -> (Arc<ReferenceBankCache>, bool) {
        let mut registry = self.banks.lock().expect("geometry registry poisoned");
        registry.tick += 1;
        let tick = registry.tick;
        if let Some(entry) = registry.entries.get_mut(&key) {
            entry.last_used = tick;
            self.geometry_hits.fetch_add(1, Ordering::Relaxed);
            return (entry.cache.clone(), true);
        }
        self.geometry_misses.fetch_add(1, Ordering::Relaxed);
        if registry.entries.len() >= self.config.max_cached_geometries {
            // Evict the least-recently-used geometry (ties cannot occur:
            // every access stamps a fresh tick).
            if let Some(victim) =
                registry.entries.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| *k)
            {
                registry.entries.remove(&victim);
                self.registry_evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let cache = ReferenceBankCache::shared();
        registry.entries.insert(key, RegistryEntry { cache: cache.clone(), last_used: tick });
        (cache, false)
    }

    /// Number of geometries currently holding a bank cache.
    pub fn cached_geometries(&self) -> usize {
        self.banks.lock().expect("geometry registry poisoned").entries.len()
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            requests: self.requests.load(Ordering::Relaxed),
            geometry_hits: self.geometry_hits.load(Ordering::Relaxed),
            geometry_misses: self.geometry_misses.load(Ordering::Relaxed),
            registry_flushes: 0,
            registry_evictions: self.registry_evictions.load(Ordering::Relaxed),
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            session_batches: self.session_batches.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_geometry::RowLayout;
    use rfid_reader::{AntennaSweepParams, ReaderSimulation, ScenarioBuilder};

    fn row_input(tags: usize, seed: u64) -> Arc<StppInput> {
        let layout = RowLayout::new(0.0, 0.0, 0.08, tags).build();
        let scenario = ScenarioBuilder::new(seed)
            .antenna_sweep(&layout, AntennaSweepParams::default())
            .unwrap();
        let recording = ReaderSimulation::new(scenario, seed).run();
        Arc::new(StppInput::from_recording(&recording).expect("valid input"))
    }

    /// A synthetic input at an explicit sampling interval, so tests can
    /// force two requests of the *same* geometry onto different bank-cache
    /// entries (the cache is keyed per quantised interval).
    fn synthetic_input(tags: usize, dt: f64) -> Arc<StppInput> {
        let wavelength = 0.326f64;
        let speed = 0.1f64;
        let d_perp = 0.3f64;
        let samples = (30.0 / dt) as usize;
        let observations = (0..tags)
            .map(|id| {
                let tag_x = 0.6 + 0.3 * id as f64;
                let pairs: Vec<(f64, f64)> = (0..samples)
                    .map(|i| {
                        let t = i as f64 * dt;
                        let d = ((speed * t - tag_x).powi(2) + d_perp * d_perp).sqrt();
                        (t, std::f64::consts::TAU * 2.0 * d / wavelength)
                    })
                    .collect();
                stpp_core::TagObservations {
                    id: id as u64,
                    epc: rfid_gen2::Epc::from_serial(id as u64),
                    profile: stpp_core::PhaseProfile::from_pairs(&pairs),
                }
            })
            .collect();
        Arc::new(StppInput {
            observations,
            nominal_speed_mps: speed,
            wavelength_m: wavelength,
            perpendicular_distance_m: Some(d_perp),
        })
    }

    #[test]
    fn warm_requests_build_zero_banks_and_match_sequential() {
        let input = row_input(6, 3);
        let sequential = RelativeLocalizer::with_defaults().localize(&input).expect("sequential");
        let service = LocalizationService::with_defaults();

        let cold = service.localize(input.clone()).expect("cold request");
        assert_eq!(cold.result, sequential);
        assert!(!cold.metrics.geometry_cache_hit);
        assert!(cold.metrics.bank_cache.builds > 0, "cold request must build banks");

        let warm = service.localize(input).expect("warm request");
        assert_eq!(warm.result, sequential);
        assert!(warm.metrics.geometry_cache_hit);
        assert_eq!(warm.metrics.bank_cache.builds, 0, "warm request must build zero banks");
        assert!(warm.metrics.bank_cache.hits > 0);
        assert_eq!(service.cached_geometries(), 1);

        let stats = service.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.geometry_hits, 1);
        assert_eq!(stats.geometry_misses, 1);
    }

    #[test]
    fn distinct_geometries_get_distinct_caches() {
        let a = row_input(4, 3);
        let mut b = (*row_input(4, 3)).clone();
        b.perpendicular_distance_m = Some(0.45);
        let b = Arc::new(b);
        let service = LocalizationService::with_defaults();
        service.localize(a.clone()).expect("a");
        service.localize(b.clone()).expect("b");
        assert_eq!(service.cached_geometries(), 2);
        // Same effective geometry resolves to the same key, different
        // perpendicular to a different one.
        let cfg = StppConfig::default();
        assert_eq!(GeometryKey::for_request(&cfg, &a), GeometryKey::for_request(&cfg, &a));
        assert_ne!(GeometryKey::for_request(&cfg, &a), GeometryKey::for_request(&cfg, &b));
    }

    #[test]
    fn registry_evicts_least_recently_used_geometry_only() {
        let config = ServiceConfig { max_cached_geometries: 2, ..ServiceConfig::default() };
        let service = LocalizationService::new(config);
        let base = row_input(3, 9);
        let with_perp = |perp: f64| {
            let mut input = (*base).clone();
            input.perpendicular_distance_m = Some(perp);
            Arc::new(input)
        };
        let (a, b, c) = (with_perp(0.30), with_perp(0.36), with_perp(0.42));
        service.localize(a.clone()).expect("a");
        service.localize(b.clone()).expect("b");
        // Touch A so B becomes the least recently used…
        service.localize(a.clone()).expect("a again");
        // …and inserting C evicts exactly B.
        service.localize(c.clone()).expect("c");
        assert_eq!(service.cached_geometries(), 2);
        let stats = service.stats();
        assert_eq!(stats.registry_evictions, 1);
        assert_eq!(stats.registry_flushes, 0, "the LRU never flushes the registry");
        // A survived the eviction (still a geometry hit)…
        assert!(service.localize(a).expect("warm a").metrics.geometry_cache_hit);
        // …while B was evicted and must re-register.
        assert!(!service.localize(b).expect("cold b").metrics.geometry_cache_hit);
    }

    #[test]
    fn registry_churn_within_capacity_never_flushes_or_evicts() {
        let config = ServiceConfig { max_cached_geometries: 3, ..ServiceConfig::default() };
        let service = LocalizationService::new(config);
        let base = row_input(3, 9);
        let inputs: Vec<Arc<StppInput>> = [0.30, 0.36, 0.42]
            .iter()
            .map(|perp| {
                let mut input = (*base).clone();
                input.perpendicular_distance_m = Some(*perp);
                Arc::new(input)
            })
            .collect();
        // Churn: three geometries revisited repeatedly, in rotating order.
        for round in 0..4 {
            for i in 0..inputs.len() {
                let input = inputs[(i + round) % inputs.len()].clone();
                service.localize(input).expect("request");
            }
        }
        assert_eq!(service.cached_geometries(), 3);
        let stats = service.stats();
        assert_eq!(stats.registry_flushes, 0);
        assert_eq!(stats.registry_evictions, 0, "churn within capacity must not evict");
        assert_eq!(stats.geometry_misses, 3, "each geometry registers exactly once");
    }

    #[test]
    fn invalid_requests_do_not_pollute_the_geometry_registry() {
        let service = LocalizationService::with_defaults();
        let empty = Arc::new(StppInput {
            observations: Vec::new(),
            nominal_speed_mps: 0.1,
            wavelength_m: 0.326,
            perpendicular_distance_m: None,
        });
        assert_eq!(service.localize(empty), Err(LocalizationError::EmptyInput));
        let mut bad_speed = (*row_input(3, 9)).clone();
        bad_speed.nominal_speed_mps = f64::NAN;
        assert!(matches!(
            service.localize(Arc::new(bad_speed)),
            Err(LocalizationError::InvalidGeometry(_))
        ));
        // Neither request registered a geometry (each NaN bit pattern
        // would otherwise be a fresh key marching toward the eviction of
        // the warm caches).
        assert_eq!(service.cached_geometries(), 0);
        assert_eq!(service.stats().geometry_misses, 0);
    }

    #[test]
    fn per_request_metrics_account_for_the_population() {
        let input = row_input(5, 11);
        let service = LocalizationService::with_defaults();
        let response = service.localize(input).expect("request");
        let m = response.metrics;
        assert_eq!(m.tags, 5);
        assert_eq!(m.localized + m.undetected, 5);
        assert!(m.threads >= 1);
        assert!(m.prepare_seconds >= 0.0 && m.detect_seconds >= 0.0 && m.order_seconds >= 0.0);
        assert!(m.total_seconds >= m.detect_seconds);
        // Metrics serialize for scrape endpoints.
        let json = serde_json::to_string(&m).expect("metrics serialize");
        assert!(json.contains("detect_seconds"));
    }

    #[test]
    fn request_thread_override_is_honoured_and_output_invariant() {
        let input = row_input(7, 21);
        let config = ServiceConfig { pool_workers: 4, ..ServiceConfig::default() };
        let service = LocalizationService::new(config);
        let reference = service.localize(input.clone()).expect("reference").result;
        for threads in [1usize, 2, 5, 16] {
            let response = service
                .localize_request(LocalizationRequest {
                    input: input.clone(),
                    threads: Some(threads),
                })
                .expect("request");
            // The metric reports the clamped fanout (4 pool workers, 7
            // tags here).
            assert_eq!(response.metrics.threads, threads.min(4).min(7));
            assert_eq!(response.result, reference, "threads = {threads}");
        }
    }

    #[test]
    fn concurrent_same_geometry_requests_report_exact_bank_deltas() {
        // Regression (PR 3 follow-up): per-request `bank_cache` deltas
        // used to be global-counter snapshots, so a warm request running
        // concurrently with a cold one on the same geometry could
        // attribute the cold request's builds to itself. The deltas are
        // now summed from the per-worker scratch counters, which only one
        // request can touch at a time — so the warm request must report
        // exactly zero builds no matter what builds happen concurrently
        // on the same cache.
        let service =
            LocalizationService::new(ServiceConfig { pool_workers: 2, ..ServiceConfig::default() });
        // Same geometry key, different sampling intervals → the cold
        // request builds banks in the *same* shared cache the warm
        // request is using.
        let warm_input = synthetic_input(3, 0.05);
        let cold_input = synthetic_input(3, 0.13);
        assert_eq!(
            GeometryKey::for_request(&service.config().stpp, &warm_input),
            GeometryKey::for_request(&service.config().stpp, &cold_input),
            "both intervals must resolve to one geometry"
        );
        service.localize(warm_input.clone()).expect("warm-up");

        for _ in 0..4 {
            let barrier = Arc::new(std::sync::Barrier::new(2));
            let warm = {
                let service = service.clone();
                let input = warm_input.clone();
                let barrier = barrier.clone();
                thread::spawn(move || {
                    barrier.wait();
                    service.localize(input).expect("warm request")
                })
            };
            let cold = {
                let service = service.clone();
                let input = cold_input.clone();
                let barrier = barrier.clone();
                thread::spawn(move || {
                    barrier.wait();
                    service.localize(input).expect("cold request")
                })
            };
            let warm = warm.join().expect("warm thread");
            let cold = cold.join().expect("cold thread");
            assert_eq!(
                warm.metrics.bank_cache.builds, 0,
                "warm request must not be charged the concurrent cold build"
            );
            assert_eq!(warm.metrics.bank_cache.misses, 0);
            assert!(warm.metrics.bank_cache.hits > 0);
            // The cold request's first iteration pays its own builds; on
            // later iterations its interval is warm too.
            assert!(cold.metrics.bank_cache.hits + cold.metrics.bank_cache.builds > 0);
        }
    }
}
