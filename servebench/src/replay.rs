//! In-process replays of single layers through their public functions.
//!
//! The session replay drives a [`ServiceSession`] exactly as the server
//! does for `IngestReports`, `Provisional` and `FlushSession` frames; the
//! conveyor workload takes its expected wire answers from it, and the
//! traced run times the session layer with it. The pipeline replay splits
//! one `Localize` request into the calls the service makes —
//! `prepare_shared`, `WorkerPool::detect`, `assemble` — plus the ordering
//! engine and per-tag `detect_slot`, each in its own span.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use rfid_gen2::Epc;
use stpp_core::{
    BankCacheStats, DetectScratch, LocalizationError, OrderingEngine, PhaseProfile,
    ReferenceBankCache, ReferenceProfileParams, RelativeLocalizer, SegmentedProfile, StppConfig,
    StppInput, TagObservations, VZoneDetector,
};
use stpp_serve::proto::encode_frame;
use stpp_serve::{
    GeometryKey, LocalizationResponse, LocalizationService, ServiceConfig, SessionGeometry,
    WorkerPool,
};

use crate::trace::Tracer;
use crate::workload::{Batch, Flush, FrameOutcome, Stream};

/// The detector configuration the pipeline builds for `input`; used to
/// find the reference-bank sampling interval of a profile.
pub fn detector_for(input: &StppInput) -> VZoneDetector {
    let config = StppConfig::default();
    VZoneDetector::new(
        ReferenceProfileParams::new(
            input.nominal_speed_mps,
            config.effective_perpendicular_m(input),
            input.wavelength_m,
        )
        .with_periods(config.reference_periods),
    )
    .with_window(config.window)
    .with_offset_candidates(config.offset_candidates)
}

/// Maps a session flush result onto [`Flush`].
pub fn flush_of(result: Result<Option<LocalizationResponse>, LocalizationError>) -> Flush {
    match result {
        Ok(None) => Flush::Empty,
        Ok(Some(response)) => Flush::Released(response.result),
        Err(error) => Flush::Rejected(error),
    }
}

/// Tags one flush released, rebuilt as the batch input the session
/// localized.
#[derive(Debug, Clone)]
pub struct Release {
    /// Serials of the released tags.
    pub ids: Vec<u64>,
    /// The batch: the released tags' buffered samples, in EPC order.
    pub input: Arc<StppInput>,
    /// What the flush answered.
    pub flush: Flush,
}

/// The outcome and cost of replaying one stream through a session.
#[derive(Debug, Default)]
pub struct StreamReplay {
    /// Per-frame answers.
    pub frames: Vec<FrameOutcome>,
    /// The `finish` answer.
    pub finish: Option<Flush>,
    /// Every release, in order (the finish included).
    pub released: Vec<Release>,
    /// Reports ingested.
    pub reports: usize,
    /// Seconds spent in `ingest_sample`.
    pub ingest_s: f64,
    /// Per-poll `provisional` seconds.
    pub provisional_s: Vec<f64>,
    /// Σ pending tags at each poll.
    pub pending_at_polls: u64,
    /// Seconds of each non-finish flush that released tags.
    pub release_flush_s: Vec<f64>,
    /// Non-finish flushes.
    pub flushes: usize,
    /// Non-finish flushes that released nothing.
    pub empty_flushes: usize,
    /// Heap entries the flushes examined (`flush_examined` delta).
    pub flush_examined: u64,
}

impl StreamReplay {
    /// Adds another replay's costs and counts to this one's.
    pub fn add_cost(&mut self, other: StreamReplay) {
        self.reports += other.reports;
        self.ingest_s += other.ingest_s;
        self.provisional_s.extend(other.provisional_s);
        self.pending_at_polls += other.pending_at_polls;
        self.release_flush_s.extend(other.release_flush_s);
        self.flushes += other.flushes;
        self.empty_flushes += other.empty_flushes;
        self.flush_examined += other.flush_examined;
    }
}

/// The tags the benchmark sees buffered in a session: per EPC, its
/// samples and last-seen time.
type Buffered = BTreeMap<Epc, (Vec<(f64, f64)>, f64)>;

/// Removes the tags a flush released from `buffered` and rebuilds the
/// batch they formed. `leaving` are the tags the session's quiescence
/// rule releases; the answer must agree with it.
fn release(
    buffered: &mut Buffered,
    leaving: Vec<Epc>,
    geometry: SessionGeometry,
    flush: &Flush,
) -> Result<Option<Release>, String> {
    if leaving.is_empty() == flush.released_tags() {
        return Err(format!("flush answered {flush:?} with {} tags quiescent", leaving.len()));
    }
    if leaving.is_empty() {
        return Ok(None);
    }
    let ids: Vec<u64> = leaving.iter().map(Epc::serial).collect();
    if let Flush::Released(result) = flush {
        let mut answered: Vec<u64> = result
            .summaries
            .iter()
            .map(|s| s.id)
            .chain(result.undetected.iter().copied())
            .collect();
        answered.sort_unstable();
        let mut expected = ids.clone();
        expected.sort_unstable();
        if answered != expected {
            return Err("a flush released other tags than the quiescent ones".to_string());
        }
    }
    let observations = leaving
        .iter()
        .map(|epc| {
            let (pairs, _) = buffered.remove(epc).expect("leaving tags are buffered");
            TagObservations {
                id: epc.serial(),
                epc: *epc,
                profile: PhaseProfile::from_pairs(&pairs),
            }
        })
        .collect();
    let input = Arc::new(StppInput {
        observations,
        nominal_speed_mps: geometry.nominal_speed_mps,
        wavelength_m: geometry.wavelength_m,
        perpendicular_distance_m: geometry.perpendicular_distance_m,
    });
    Ok(Some(Release { ids, input, flush: flush.clone() }))
}

/// Replays `stream` through a fresh session of `service`: per frame,
/// ingest every report, poll the provisional ordering, flush quiescent
/// tags; then finish. Spans go to `tracer` under `request`.
pub fn replay_stream(
    service: &Arc<LocalizationService>,
    stream: &Stream,
    tracer: Option<(&mut Tracer, u64)>,
) -> Result<StreamReplay, String> {
    let mut scratch_tracer;
    let (tracer, request) = match tracer {
        Some(t) => t,
        None => {
            scratch_tracer = Tracer::new(std::time::Instant::now(), 0);
            (&mut scratch_tracer, 0)
        }
    };
    let quiescence_s = service.config().session_quiescence_s;
    let mut session =
        service.open_session(stream.geometry).map_err(|e| format!("open session: {e}"))?;
    let mut buffered = Buffered::new();
    let mut clock = f64::NEG_INFINITY;
    let mut out = StreamReplay::default();
    for frame in &stream.frames {
        let open = tracer.begin("session.ingest", request);
        for r in frame {
            session
                .ingest_sample(Epc::from_serial(r.epc_serial), r.time_s, r.phase_rad)
                .map_err(|e| format!("ingest: {e}"))?;
        }
        out.ingest_s += tracer.end(open);
        out.reports += frame.len();
        for r in frame {
            let entry =
                buffered.entry(Epc::from_serial(r.epc_serial)).or_insert((Vec::new(), r.time_s));
            entry.0.push((r.time_s, r.phase_rad));
            entry.1 = entry.1.max(r.time_s);
            clock = clock.max(r.time_s);
        }
        let pending = session.pending_tags() as u64;
        let (provisional, secs) =
            tracer.time("session.provisional", request, || session.provisional());
        out.provisional_s.push(secs);
        out.pending_at_polls += pending;
        let examined = session.flush_examined();
        let (flushed, secs) = tracer.time("session.flush", request, || session.flush_quiescent());
        out.flush_examined += session.flush_examined() - examined;
        let flush = flush_of(flushed);
        out.flushes += 1;
        if flush.released_tags() {
            out.release_flush_s.push(secs);
        } else {
            out.empty_flushes += 1;
        }
        let leaving: Vec<Epc> = buffered
            .iter()
            .filter(|(_, (_, seen))| clock - seen >= quiescence_s)
            .map(|(epc, _)| *epc)
            .collect();
        out.released.extend(release(&mut buffered, leaving, stream.geometry, &flush)?);
        out.frames.push(FrameOutcome { pending, provisional, flush });
    }
    let (finished, _) = tracer.time("session.finish", request, || session.finish());
    let finish = flush_of(finished);
    let leaving: Vec<Epc> = buffered.keys().copied().collect();
    out.released.extend(release(&mut buffered, leaving, stream.geometry, &finish)?);
    out.finish = Some(finish);
    Ok(out)
}

/// Long-lived state of the pipeline replay: one warm bank cache per
/// geometry, as the service's registry keeps them, a pool sized like the
/// service's, and a warm scratch.
pub struct Pipeline {
    caches: HashMap<GeometryKey, Arc<ReferenceBankCache>>,
    pool: WorkerPool,
    scratch: DetectScratch,
    localizer: RelativeLocalizer,
    engine: OrderingEngine,
    threads: usize,
}

/// Timings and counts of one replayed request.
#[derive(Debug, Clone, Default)]
pub struct PipelineSample {
    /// `prepare_shared`, seconds.
    pub prepare_s: f64,
    /// `WorkerPool::detect` wall time, seconds.
    pub detect_s: f64,
    /// Detection fanout.
    pub fanout: usize,
    /// `SharedPreparedRequest::assemble`, seconds.
    pub assemble_s: f64,
    /// `order_x` + `order_y`, seconds.
    pub order_s: f64,
    /// `comparison_count` of the Y ordering.
    pub comparisons: usize,
    /// Warm per-tag `detect_slot`, seconds each.
    pub slot_s: Vec<f64>,
    /// Tags with a V-zone.
    pub detected: usize,
    /// Σ over tags and offset candidates of pattern × measured segments.
    pub cells: u64,
    /// Bank lookups of the pool's detection.
    pub bank: BankCacheStats,
}

impl Pipeline {
    /// Creates the replay state with the service defaults.
    pub fn new() -> Pipeline {
        let service = ServiceConfig::default();
        Pipeline {
            caches: HashMap::new(),
            pool: WorkerPool::new(service.pool_workers),
            scratch: DetectScratch::new(),
            localizer: RelativeLocalizer::new(service.stpp),
            engine: OrderingEngine {
                y_segments: service.stpp.y_segments,
                strategy: service.stpp.y_strategy,
            },
            threads: service.threads,
        }
    }

    /// Reference banks across every geometry's cache.
    pub fn banks(&self) -> usize {
        self.caches.values().map(|cache| cache.len()).sum()
    }

    /// Replays `batch` layer by layer and checks the assembled answer
    /// against the batch reference, bit for bit.
    pub fn replay(
        &mut self,
        batch: &Batch,
        tracer: &mut Tracer,
        request: u64,
    ) -> Result<PipelineSample, String> {
        let input = &batch.input;
        let tags = input.observations.len();
        let cache = self
            .caches
            .entry(GeometryKey::for_request(&self.localizer.config, input))
            .or_insert_with(ReferenceBankCache::shared)
            .clone();
        let outer = tracer.begin("pipeline.request", request);
        let (prepared, prepare_s) = tracer.time("pipeline.prepare_shared", request, || {
            self.localizer.prepare_shared(input.clone(), cache.clone())
        });
        let prepared = Arc::new(prepared.map_err(|e| format!("prepare: {e}"))?);
        let fanout = self.threads.min(self.pool.workers()).min(tags).max(1);
        let ((per_tag, bank), detect_s) =
            tracer.time("pool.detect", request, || self.pool.detect(&prepared, fanout));
        let per_tag = per_tag.map_err(|e| format!("detect: {e}"))?;
        let summaries: Vec<_> = per_tag.iter().flatten().cloned().collect();
        let (result, assemble_s) =
            tracer.time("pipeline.assemble", request, || prepared.assemble(per_tag));
        let ((order_x, order_y), order_s) = tracer.time("ordering.order", request, || {
            (self.engine.order_x(&summaries), self.engine.order_y(&summaries))
        });
        let mut slot_s = Vec::with_capacity(tags);
        let mut detected = 0;
        for i in 0..tags {
            let (slot, secs) = tracer
                .time("vzone.detect_slot", request, || prepared.detect_slot(i, &mut self.scratch));
            slot_s.push(secs);
            detected += usize::from(matches!(slot, Ok(Some(_))));
        }
        tracer.end(outer);
        match (&result, &batch.reference) {
            (Ok(got), Ok(want)) => {
                if bytes(got)? != bytes(want)? {
                    return Err("replayed pipeline answer differs from the reference".to_string());
                }
                if order_x != got.order_x || order_y != got.order_y {
                    return Err("ordering engine disagrees with the assembled answer".to_string());
                }
            }
            (Err(got), Err(want)) if got == want => {}
            (got, want) => {
                return Err(format!("replayed pipeline answered {got:?}, reference {want:?}"))
            }
        }
        Ok(PipelineSample {
            prepare_s,
            detect_s,
            fanout,
            assemble_s,
            order_s,
            comparisons: self.engine.comparison_count(summaries.len()),
            slot_s,
            detected,
            cells: dtw_cells(&cache, input),
            bank,
        })
    }
}

/// The dynamic-programming cells a full alignment of every tag against
/// every offset candidate would fill: Σ pattern × measured segments.
fn dtw_cells(cache: &ReferenceBankCache, input: &StppInput) -> u64 {
    let config = StppConfig::default();
    let detector = detector_for(input);
    let mut cells = 0u64;
    for obs in input.observations.iter().filter(|o| o.profile.len() >= config.min_reads) {
        let Some(interval) = detector.reference_interval(&obs.profile) else { continue };
        let Some(bank) = cache.get_or_build(
            detector.reference_params,
            detector.window,
            detector.offset_candidates,
            interval,
        ) else {
            continue;
        };
        let measured = SegmentedProfile::build(&obs.profile, detector.window).len() as u64;
        cells += bank.patterns.iter().map(|p| p.segments.len() as u64 * measured).sum::<u64>();
    }
    cells
}

/// A value's wire encoding, for bit-for-bit comparisons.
pub fn bytes<T: serde::Serialize>(value: &T) -> Result<Vec<u8>, String> {
    encode_frame(value).map_err(|e| format!("encode: {e}"))
}
