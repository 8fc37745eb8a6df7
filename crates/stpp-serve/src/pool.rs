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
//! Determinism is inherited from the slot model: per-tag detections are
//! independent, workers claim observation indices from a shared atomic
//! cursor, and every result lands in its own slot — so the assembled
//! output is bit-identical for any pool size, fanout, or claim
//! interleaving (the same guarantee `detect_all` makes, now without the
//! per-request spawn). On a malformed profile the claim loop fails fast
//! exactly like `detect_all`: workers stop claiming once any error is
//! recorded and the lowest-indexed recorded error is reported.
//!
//! Because each worker's scratch is `&mut`-owned for the duration of a
//! job, the scratch's [`bank_stats`](DetectScratch::bank_stats) deltas
//! observed around the job belong to that job alone; the pool sums them
//! per request, which is what makes the service's per-request
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
        WorkerPool { shared, workers, handles }
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

    /// Runs per-tag detection for `request` across the pool with up to
    /// `fanout` concurrent claim loops (clamped to the pool size and the
    /// tag count) and blocks until every slot is resolved. Returns the
    /// index-aligned summaries — bit-identical to the sequential scan —
    /// plus the request's exact bank-cache counter deltas (summed from
    /// the participating workers' scratches).
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
                pending_jobs: fanout,
                panicked: false,
                results: Vec::with_capacity(tags),
                bank_stats: BankCacheStats::default(),
            }),
            done: Condvar::new(),
        });
        for _ in 0..fanout {
            let task = task.clone();
            self.submit(Box::new(move |scratch| run_claim_loop(&task, scratch)));
        }
        let mut progress = task.progress.lock().expect("detect task poisoned");
        while progress.pending_jobs > 0 {
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

/// One request's fan-out state, shared by its claim-loop jobs.
struct DetectTask {
    request: Arc<SharedPreparedRequest>,
    cursor: AtomicUsize,
    failed: AtomicBool,
    progress: Mutex<DetectProgress>,
    done: Condvar,
}

struct DetectProgress {
    pending_jobs: usize,
    /// Set when a claim-loop detection panicked; [`WorkerPool::detect`]
    /// re-raises the panic in the *calling* thread so the server's
    /// panic-isolation layer (not the pool worker) decides what to do
    /// with it.
    panicked: bool,
    results: Vec<(usize, Result<Option<TagVZoneSummary>, LocalizationError>)>,
    bank_stats: BankCacheStats,
}

/// The claim loop one pool job runs: grab observation indices from the
/// task cursor until exhausted (or a failure is recorded), detecting each
/// into the worker's long-lived scratch.
///
/// A panicking detection must not strand the request: `pending_jobs` is
/// decremented on every exit path (the waiter would otherwise block on
/// the condvar forever), the panic is recorded for the waiter to
/// re-raise, and the worker's scratch is rebuilt because an unwound
/// detection may have left it inconsistent.
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
    progress.pending_jobs -= 1;
    if progress.pending_jobs == 0 {
        task.done.notify_all();
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
    use stpp_core::{ReferenceBankCache, RelativeLocalizer, StppInput};

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
        assert!(pool.jobs_executed() >= 2);
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
        assert!(pool.jobs_executed() >= 1, "panicked job still counts as executed");
    }
}
