//! The persistent detection worker pool.
//!
//! `detect_all` in `stpp-core` spawns (and joins) fresh scoped threads
//! and allocates fresh [`DetectScratch`] arenas for every request — fine
//! for one-shot `BatchLocalizer` calls, but a serving process pays that
//! setup on every request. [`WorkerPool`] instead keeps a fixed set of
//! long-lived workers, each owning **one scratch for its whole life**: the
//! DTW arenas, segment buffers, and reference-bank fast path stay warm
//! across requests, and nothing is spawned or allocated per request on
//! the pool side.
//!
//! **The caller runs a claim loop.** [`WorkerPool::detect`] does not hand
//! its request off and sleep: the calling thread is one of the request's
//! `fanout` claim loops, running on a scratch the pool keeps for callers
//! (one per concurrent caller, never shared with another pool), and the
//! pool receives only `fanout − 1` helper jobs. A one-tag request — the
//! common conveyor flush — therefore never leaves the calling thread.
//! The request completes when every claim loop that registered before
//! the cursor ran out has finished; a helper that starts later claims
//! nothing, and nobody waits for it.
//!
//! Determinism is inherited from the slot model: per-tag detections are
//! independent, claim loops take observation indices from a shared
//! atomic cursor, and every result lands in its own slot — so the
//! assembled output is bit-identical for any pool size, fanout, or claim
//! interleaving (the same guarantee `detect_all` makes, now without the
//! per-request spawn). On a malformed profile the claim loop fails fast
//! exactly like `detect_all`: loops stop claiming once any error is
//! recorded and the lowest-indexed recorded error is reported.
//!
//! Because every scratch — a worker's or a caller's — is `&mut`-owned
//! for the duration of a claim loop, the scratch's
//! [`bank_stats`](DetectScratch::bank_stats) deltas observed around the
//! loop belong to that request alone; the pool sums them per request,
//! which is what makes the service's per-request
//! `RequestMetrics::bank_cache` exact under concurrency.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};

use stpp_core::{
    BankCacheStats, DetectScratch, LocalizationError, SharedPreparedRequest, TagVZoneSummary,
};

/// A job the pool can run: any closure over a worker's long-lived
/// scratch.
type Job = Box<dyn FnOnce(&mut DetectScratch) + Send + 'static>;

/// Queue + shutdown flag behind the pool mutex.
struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

/// State shared between the pool handle and its workers.
struct PoolShared {
    state: Mutex<PoolState>,
    job_ready: Condvar,
    jobs_executed: AtomicU64,
}

/// A fixed-size pool of persistent detection workers (see the module
/// docs). Dropping the pool shuts the workers down and joins them.
#[derive(Debug)]
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: usize,
    handles: Vec<JoinHandle<()>>,
    /// Idle scratches for the callers' own claim loops: a caller takes
    /// one for the length of its loop, so the list grows to the largest
    /// number of concurrent callers and stays warm with this pool's
    /// banks.
    caller_scratches: Mutex<Vec<DetectScratch>>,
}

impl std::fmt::Debug for PoolShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolShared")
            .field("jobs_executed", &self.jobs_executed.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Spawns a pool with `workers` persistent threads (clamped to at
    /// least 1), each owning one long-lived [`DetectScratch`].
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState { queue: VecDeque::new(), shutdown: false }),
            job_ready: Condvar::new(),
            jobs_executed: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = shared.clone();
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool { shared, workers, handles, caller_scratches: Mutex::new(Vec::new()) }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Total jobs the workers have completed since the pool started.
    pub fn jobs_executed(&self) -> u64 {
        self.shared.jobs_executed.load(Ordering::Relaxed)
    }

    fn submit(&self, job: Job) {
        let mut state = self.shared.state.lock().expect("worker pool poisoned");
        state.queue.push_back(job);
        drop(state);
        self.shared.job_ready.notify_one();
    }

    /// Runs per-tag detection for `request` with up to `fanout`
    /// concurrent claim loops (clamped to the pool size and the tag
    /// count): the calling thread runs one, and `fanout − 1` helper jobs
    /// go to the pool. Blocks until every slot is resolved. Returns the
    /// index-aligned summaries — bit-identical to the sequential scan —
    /// plus the request's exact bank-cache counter deltas (summed from
    /// the scratches of the loops that ran).
    pub fn detect(
        &self,
        request: &Arc<SharedPreparedRequest>,
        fanout: usize,
    ) -> (Result<Vec<Option<TagVZoneSummary>>, LocalizationError>, BankCacheStats) {
        let tags = request.observation_count();
        let fanout = fanout.min(self.workers).min(tags).max(1);
        let task = Arc::new(DetectTask {
            request: request.clone(),
            cursor: AtomicUsize::new(0),
            failed: AtomicBool::new(false),
            progress: Mutex::new(DetectProgress {
                // The caller's own loop, registered up front.
                running: 1,
                closed: false,
                panicked: false,
                results: Vec::with_capacity(tags),
                bank_stats: BankCacheStats::default(),
            }),
            done: Condvar::new(),
        });
        for _ in 1..fanout {
            let task = task.clone();
            self.submit(Box::new(move |scratch| {
                if task.register() {
                    run_claim_loop(&task, scratch);
                }
            }));
        }
        let mut scratch = self
            .caller_scratches
            .lock()
            .expect("caller scratches poisoned")
            .pop()
            .unwrap_or_default();
        run_claim_loop(&task, &mut scratch);
        self.caller_scratches.lock().expect("caller scratches poisoned").push(scratch);

        let mut progress = task.progress.lock().expect("detect task poisoned");
        while progress.running > 0 {
            progress = task.done.wait(progress).expect("detect task poisoned");
        }
        if progress.panicked {
            // Re-raise in the requesting thread: the pool workers stay
            // alive, and the caller's own isolation (the server converts
            // this into a typed `InternalError` frame) takes over.
            drop(progress);
            panic!("detection job panicked in the worker pool");
        }
        let bank_stats = progress.bank_stats;
        type SlotResult = Result<Option<TagVZoneSummary>, LocalizationError>;
        let mut slots: Vec<SlotResult> = Vec::new();
        slots.resize_with(tags, || Ok(None));
        for (i, result) in progress.results.drain(..) {
            slots[i] = result;
        }
        // Lowest-indexed recorded error wins, matching `detect_all`.
        (slots.into_iter().collect(), bank_stats)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("worker pool poisoned");
            state.shutdown = true;
        }
        self.shared.job_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One request's fan-out state, shared by the caller and its helper
/// jobs.
struct DetectTask {
    request: Arc<SharedPreparedRequest>,
    cursor: AtomicUsize,
    failed: AtomicBool,
    progress: Mutex<DetectProgress>,
    done: Condvar,
}

struct DetectProgress {
    /// Claim loops registered and not yet finished; the request is
    /// complete when this reaches 0.
    running: usize,
    /// Set when the first claim loop stops (the cursor ran out or a
    /// failure was recorded); no claim loop registers after it.
    closed: bool,
    /// Set when a claim-loop detection panicked; [`WorkerPool::detect`]
    /// re-raises the panic in the *calling* thread so the server's
    /// panic-isolation layer (not the pool worker) decides what to do
    /// with it.
    panicked: bool,
    results: Vec<(usize, Result<Option<TagVZoneSummary>, LocalizationError>)>,
    bank_stats: BankCacheStats,
}

impl DetectTask {
    /// Registers a helper's claim loop. Returns `false` once the request
    /// is closed: the helper started too late to claim anything, and the
    /// caller does not wait for it.
    fn register(&self) -> bool {
        let mut progress = self.progress.lock().expect("detect task poisoned");
        if progress.closed {
            return false;
        }
        progress.running += 1;
        true
    }
}

/// One registered claim loop: grab observation indices from the task
/// cursor until exhausted (or a failure is recorded), detecting each
/// into `scratch`.
///
/// A panicking detection must not strand the request: the loop
/// deregisters on every exit path (the caller would otherwise block on
/// the condvar forever), the panic is recorded for the caller to
/// re-raise, and the scratch is rebuilt because an unwound detection may
/// have left it inconsistent.
fn run_claim_loop(task: &DetectTask, scratch: &mut DetectScratch) {
    let tags = task.request.observation_count();
    let stats_before = scratch.bank_stats();
    let mut out = Vec::new();
    let mut panicked = false;
    while !task.failed.load(Ordering::Relaxed) {
        let i = task.cursor.fetch_add(1, Ordering::Relaxed);
        if i >= tags {
            break;
        }
        let detection = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            task.request.detect_slot(i, scratch)
        }));
        let result = match detection {
            Ok(result) => result,
            Err(_) => {
                task.failed.store(true, Ordering::Relaxed);
                panicked = true;
                *scratch = DetectScratch::new();
                break;
            }
        };
        if result.is_err() {
            task.failed.store(true, Ordering::Relaxed);
        }
        out.push((i, result));
    }
    let delta = scratch.bank_stats().since(stats_before);
    let mut progress = task.progress.lock().expect("detect task poisoned");
    progress.results.append(&mut out);
    progress.panicked |= panicked;
    progress.bank_stats.hits += delta.hits;
    progress.bank_stats.misses += delta.misses;
    progress.bank_stats.builds += delta.builds;
    progress.closed = true;
    progress.running -= 1;
    if progress.running == 0 {
        task.done.notify_one();
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut scratch = DetectScratch::new();
    loop {
        let job = {
            let mut state = shared.state.lock().expect("worker pool poisoned");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared.job_ready.wait(state).expect("worker pool poisoned");
            }
        };
        // Last-resort isolation for arbitrary submitted jobs: a panic
        // must not kill the worker (the pool would silently shrink). The
        // scratch may be mid-update when the unwind happens, so it is
        // rebuilt.
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(&mut scratch))).is_err() {
            scratch = DetectScratch::new();
        }
        shared.jobs_executed.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;
    use stpp_core::{ReferenceBankCache, RelativeLocalizer, StppInput};

    use crate::service::{LocalizationService, ServiceConfig};

    fn synthetic_input(tags: usize) -> Arc<StppInput> {
        let wavelength = 0.326f64;
        let speed = 0.1f64;
        let d_perp = 0.3f64;
        let observations = (0..tags)
            .map(|id| {
                let tag_x = 0.5 + 0.3 * id as f64;
                let pairs: Vec<(f64, f64)> = (0..500)
                    .map(|i| {
                        let t = i as f64 * 0.05;
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

    fn prepare(input: &Arc<StppInput>) -> Arc<SharedPreparedRequest> {
        Arc::new(
            RelativeLocalizer::with_defaults()
                .prepare_shared(input.clone(), ReferenceBankCache::shared())
                .expect("prepare"),
        )
    }

    #[test]
    fn pool_detection_is_bit_identical_to_sequential_for_any_fanout() {
        let input = synthetic_input(6);
        let sequential = RelativeLocalizer::with_defaults().localize(&input).expect("sequential");
        for workers in [1usize, 2, 4] {
            let pool = WorkerPool::new(workers);
            for fanout in [1usize, 2, 8] {
                let request = Arc::new(
                    RelativeLocalizer::with_defaults()
                        .prepare_shared(input.clone(), ReferenceBankCache::shared())
                        .expect("prepare"),
                );
                let (per_tag, _) = pool.detect(&request, fanout);
                let result = request.assemble(per_tag.expect("detect")).expect("assemble");
                assert_eq!(result, sequential, "workers = {workers}, fanout = {fanout}");
            }
        }
    }

    #[test]
    fn pool_reports_exact_bank_stats_per_request() {
        let input = synthetic_input(4);
        let pool = WorkerPool::new(2);
        let cache = ReferenceBankCache::shared();
        let localizer = RelativeLocalizer::with_defaults();
        let cold = Arc::new(localizer.prepare_shared(input.clone(), cache.clone()).unwrap());
        let (result, stats) = pool.detect(&cold, 2);
        assert!(result.is_ok());
        assert!(stats.builds > 0, "cold request must build banks");
        // The warm repeat on the same shared cache builds nothing — and
        // the per-request stats say so exactly.
        let warm = Arc::new(localizer.prepare_shared(input.clone(), cache).unwrap());
        let (result, stats) = pool.detect(&warm, 2);
        assert!(result.is_ok());
        assert_eq!(stats.builds, 0, "warm request must build zero banks");
        assert!(stats.hits > 0);
        // The callers ran a claim loop each: at most one helper job per
        // request reached the pool.
        assert!(pool.jobs_executed() <= 2, "{} jobs ran", pool.jobs_executed());
    }

    #[test]
    fn pool_shuts_down_cleanly_when_dropped() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.workers(), 3);
        drop(pool); // must not hang
    }

    #[test]
    fn pool_workers_survive_a_panicking_job() {
        let pool = WorkerPool::new(1);
        // A panicking job must neither kill the single worker nor poison
        // its scratch for later requests.
        pool.submit(Box::new(|_scratch| panic!("deliberate job panic")));
        let input = synthetic_input(3);
        let sequential = RelativeLocalizer::with_defaults().localize(&input).expect("sequential");
        let request = Arc::new(
            RelativeLocalizer::with_defaults()
                .prepare_shared(input, ReferenceBankCache::shared())
                .expect("prepare"),
        );
        let (per_tag, _) = pool.detect(&request, 1);
        let result = request.assemble(per_tag.expect("detect")).expect("assemble");
        assert_eq!(result, sequential);
        // The request ran on the caller alone. A probe queued behind the
        // panicked job runs a detection on the worker's rebuilt scratch;
        // by the time it answers, the panicked job has been counted.
        let (tx, rx) = mpsc::channel();
        let probe = request.clone();
        pool.submit(Box::new(move |scratch| {
            tx.send(probe.detect_with_scratch(scratch)).expect("send");
        }));
        let per_tag = rx.recv_timeout(Duration::from_secs(10)).expect("the worker is alive");
        assert_eq!(request.assemble(per_tag.expect("detect")).expect("assemble"), sequential);
        assert!(pool.jobs_executed() >= 1, "panicked job still counts as executed");
    }

    #[test]
    fn one_tag_requests_never_reach_the_workers() {
        let input = synthetic_input(1);
        let pool = WorkerPool::new(2);
        let (per_tag, _) = pool.detect(&prepare(&input), 2);
        assert!(per_tag.expect("detect")[0].is_some());
        assert_eq!(pool.jobs_executed(), 0, "a one-tag detect runs on its caller");

        let config = ServiceConfig { threads: 2, pool_workers: 2, ..ServiceConfig::default() };
        let service = LocalizationService::new(config);
        let response = service.localize(input).expect("localize");
        assert_eq!(response.metrics.threads, 1);
        assert_eq!(service.pool.jobs_executed(), 0, "a one-tag localize runs on its caller");
    }

    #[test]
    fn the_caller_finishes_its_request_while_every_worker_is_busy() {
        let input = synthetic_input(6);
        let sequential = RelativeLocalizer::with_defaults().localize(&input).expect("sequential");
        let mut reference = DetectScratch::new();
        prepare(&input).detect_with_scratch(&mut reference).expect("sequential scan");

        // With two workers the request's one helper job queues behind the
        // parked jobs: it starts after the tags ran out and is not waited
        // for.
        for workers in [1usize, 2] {
            let pool = Arc::new(WorkerPool::new(workers));
            let (parked_tx, parked_rx) = mpsc::channel();
            let (release, wait) = mpsc::channel::<()>();
            let wait = Arc::new(Mutex::new(wait));
            for _ in 0..workers {
                let (parked_tx, wait) = (parked_tx.clone(), wait.clone());
                pool.submit(Box::new(move |_scratch| {
                    parked_tx.send(()).expect("parked");
                    let _ = wait.lock().expect("wait").recv();
                }));
            }
            for _ in 0..workers {
                parked_rx.recv_timeout(Duration::from_secs(10)).expect("a worker parks");
            }
            let (tx, rx) = mpsc::channel();
            let caller = {
                let pool = pool.clone();
                let request = prepare(&input);
                thread::spawn(move || {
                    let (per_tag, stats) = pool.detect(&request, 2);
                    tx.send((request.assemble(per_tag.expect("detect")), stats)).expect("send");
                })
            };
            let outcome = rx.recv_timeout(Duration::from_secs(30));
            let queued = pool.shared.state.lock().expect("queue").queue.len();
            for _ in 0..workers {
                release.send(()).expect("release a parked worker");
            }
            let (result, stats) = outcome.expect("detect must return without the parked workers");
            caller.join().expect("caller thread");
            assert_eq!(
                queued,
                workers - 1,
                "fanout 2 sends one helper when the pool has two workers"
            );
            assert_eq!(result.expect("assemble"), sequential, "workers = {workers}");
            // A fresh caller scratch on a fresh cache makes the same
            // lookups as a fresh sequential scan.
            assert_eq!(stats, reference.bank_stats(), "workers = {workers}");
            assert!(stats.builds > 0);
        }
    }

    #[test]
    fn a_new_service_on_the_same_thread_builds_its_own_banks() {
        let input = synthetic_input(1);
        for service in 0..2 {
            let config = ServiceConfig { threads: 2, pool_workers: 2, ..ServiceConfig::default() };
            let response =
                LocalizationService::new(config).localize(input.clone()).expect("localize");
            assert!(
                response.metrics.bank_cache.builds > 0,
                "service {service}'s first request must build its banks"
            );
        }
    }
}
