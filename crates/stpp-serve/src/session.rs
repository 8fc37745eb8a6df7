//! Streaming ingestion sessions.
//!
//! The paper's system runs *online*: tags flow through the reading zone
//! continuously, and a tag's ordering is decided once its phase profile
//! is complete — i.e. once the tag has stopped being read. A
//! [`ServiceSession`] models exactly that: it accumulates
//! [`TagReadReport`]s incrementally, tracks a per-tag last-seen clock,
//! and when asked releases the **quiescent** tags (those whose last read
//! is older than the quiescence window relative to the newest ingested
//! timestamp) as one localization batch through the owning
//! [`LocalizationService`] — so consecutive conveyor batches reuse the
//! warm reference banks.

use std::cmp::Ordering as CmpOrdering;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use rfid_gen2::Epc;
use rfid_reader::TagReadReport;
use serde::{Deserialize, Serialize};
use stpp_core::{
    LocalizationError, PhaseProfile, ReferenceBankCache, ReferenceProfileParams, StppInput,
    StreamingTagTracker, TagObservations, VZoneDetector,
};

use crate::service::{LocalizationResponse, LocalizationService};

/// Errors a session can raise at the ingestion boundary.
///
/// Non-finite samples are rejected *here*, with the offending EPC named —
/// before they can reach profile construction — mirroring the typed
/// [`DetectError`](stpp_core::DetectError) the detectors raise for
/// profiles that bypass ingestion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IngestError {
    /// The report carries a non-finite timestamp.
    NonFiniteTime {
        /// EPC of the reported tag.
        epc: Epc,
    },
    /// The report carries a non-finite phase value.
    NonFinitePhase {
        /// EPC of the reported tag.
        epc: Epc,
    },
    /// The session already buffers its maximum number of samples
    /// ([`crate::ServiceConfig::session_max_samples`]); flush (or finish)
    /// before ingesting more. The bound keeps a misbehaving or stalled
    /// report stream from growing process memory without limit.
    SessionFull {
        /// EPC of the rejected report.
        epc: Epc,
        /// The session's sample capacity.
        limit: u64,
    },
    /// The requested quiescence window is not a positive, finite number
    /// of seconds. A NaN window would silently compare every tag as
    /// never-quiescent (`NaN - x >= q` is false) while a zero or negative
    /// one flushes every tag on every poll — both are configuration bugs,
    /// rejected when the session is opened rather than discovered as a
    /// stream that never (or always) flushes.
    InvalidQuiescence,
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::NonFiniteTime { epc } => {
                write!(f, "report for tag {epc:?} has a non-finite timestamp")
            }
            IngestError::NonFinitePhase { epc } => {
                write!(f, "report for tag {epc:?} has a non-finite phase")
            }
            IngestError::SessionFull { epc, limit } => {
                write!(
                    f,
                    "report for tag {epc:?} rejected: session already buffers {limit} samples \
                     (flush or finish first)"
                )
            }
            IngestError::InvalidQuiescence => {
                write!(f, "session quiescence window must be a positive, finite number of seconds")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// The deployment geometry a session localizes against — the fields of
/// [`StppInput`] that do not come from the report stream. Surveyed once
/// at deployment time (reader-to-shelf or antenna-to-belt distance, belt
/// speed, channel wavelength), shared by every batch the portal sees.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SessionGeometry {
    /// Nominal relative speed between reader and tags, m/s.
    pub nominal_speed_mps: f64,
    /// Carrier wavelength, metres.
    pub wavelength_m: f64,
    /// Surveyed perpendicular distance to the nearest tag row, metres;
    /// `None` falls back to the service's configured deployment guess.
    pub perpendicular_distance_m: Option<f64>,
}

/// Per-tag accumulation state.
#[derive(Debug, Clone)]
struct TagBuffer {
    pairs: Vec<(f64, f64)>,
    last_seen_s: f64,
}

/// One tag's entry in a [`ProvisionalOrdering`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProvisionalTag {
    /// The tag's EPC.
    pub epc: Epc,
    /// Provisional nadir (perpendicular-point) time, seconds — see
    /// [`ProvisionalEstimate::nadir_time_s`](stpp_core::ProvisionalEstimate).
    pub nadir_time_s: f64,
    /// Confidence in `[0, 1]` — see
    /// [`ProvisionalEstimate::confidence`](stpp_core::ProvisionalEstimate).
    pub confidence: f64,
    /// Samples in the tag's provisional view.
    pub samples: u64,
    /// Best normalised incremental candidate cost, once the reference
    /// bank has resolved and a first complete segment has been aligned.
    pub match_cost: Option<f64>,
}

/// A provisional X ordering over the tags still pending in a session —
/// produced mid-stream by [`ServiceSession::provisional`], advisory until
/// the tags quiesce and the unchanged batch path pins the final (and
/// bit-identical-to-offline) result.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ProvisionalOrdering {
    /// Tags with an estimate, ordered by provisional nadir time (the
    /// streaming analogue of the batch X ordering), EPC as tie-breaker.
    pub order_x: Vec<ProvisionalTag>,
    /// Number of tags contributing to `order_x`.
    pub tags_estimated: u64,
    /// Active tags still below the estimation threshold.
    pub tags_pending: u64,
}

/// Lazily created per-session streaming-estimation state: the detector
/// configuration mirroring the batch path's, the geometry's shared bank
/// cache, and one side-car tracker per active tag.
#[derive(Debug)]
struct StreamingState {
    detector: VZoneDetector,
    cache: Arc<ReferenceBankCache>,
    trackers: BTreeMap<Epc, TrackerEntry>,
}

#[derive(Debug)]
struct TrackerEntry {
    tracker: StreamingTagTracker,
    /// Prefix of the tag's buffered pairs already fed to the tracker.
    fed_pairs: usize,
}

impl StreamingState {
    fn new(service: &LocalizationService, geometry: SessionGeometry) -> Self {
        let stpp = &service.config().stpp;
        // Mirrors the batch `DetectionEngine` construction (and
        // `GeometryKey::for_session`): the provisional lanes align
        // against the very banks the final detection will use.
        let perpendicular = geometry
            .perpendicular_distance_m
            .filter(|d| d.is_finite() && *d > 0.0)
            .unwrap_or(stpp.perpendicular_distance_m);
        let params = ReferenceProfileParams::new(
            geometry.nominal_speed_mps,
            perpendicular,
            geometry.wavelength_m,
        )
        .with_periods(stpp.reference_periods);
        let detector = VZoneDetector::new(params)
            .with_window(stpp.window)
            .with_offset_candidates(stpp.offset_candidates);
        StreamingState {
            detector,
            cache: service.session_bank_cache(&geometry),
            trackers: BTreeMap::new(),
        }
    }
}

/// One entry of the last-seen min-heap: the tag's last-seen timestamp
/// *at the time the entry was pushed* (entries go stale when the tag is
/// read again; [`ServiceSession::flush_quiescent`] refreshes them
/// lazily). Ordered so the std max-heap pops the **oldest** entry first,
/// with the EPC as a deterministic tie-breaker.
#[derive(Debug, Clone, Copy, PartialEq)]
struct QuiescenceEntry {
    seen_s: f64,
    epc: Epc,
}

impl Eq for QuiescenceEntry {}

impl Ord for QuiescenceEntry {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reversed: the heap's "greatest" element is the oldest
        // timestamp (smallest seen_s), so peek()/pop() yield the tag
        // that has been silent the longest.
        other.seen_s.total_cmp(&self.seen_s).then_with(|| other.epc.cmp(&self.epc))
    }
}

impl PartialOrd for QuiescenceEntry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

/// A streaming ingestion session (see the module docs).
#[derive(Debug)]
pub struct ServiceSession {
    service: Arc<LocalizationService>,
    geometry: SessionGeometry,
    quiescence_s: f64,
    max_samples: usize,
    buffered: usize,
    clock_s: f64,
    active: BTreeMap<Epc, TagBuffer>,
    /// Last-seen min-heap over the active tags (lazy: an entry may be
    /// staler than its tag's true `last_seen_s`; it is refreshed when
    /// popped). Invariant: every active tag has exactly one entry, so a
    /// flush touches only the heap prefix at or below the quiescence
    /// cutoff instead of scanning every tag.
    by_last_seen: BinaryHeap<QuiescenceEntry>,
    /// Monotonic count of heap entries examined by
    /// [`flush_quiescent`](Self::flush_quiescent) — the instrumentation
    /// the flush-cost regression test asserts on.
    flush_examined: u64,
    /// Provisional-estimation side-car, created on the first
    /// [`provisional`](Self::provisional) poll. Sessions that never poll
    /// pay nothing for it.
    streaming: Option<StreamingState>,
}

impl ServiceSession {
    pub(crate) fn new(
        service: Arc<LocalizationService>,
        geometry: SessionGeometry,
        quiescence_s: f64,
    ) -> Self {
        // The opening boundary (`open_session_with_quiescence`) already
        // rejected non-finite and non-positive windows.
        debug_assert!(quiescence_s.is_finite() && quiescence_s > 0.0);
        let max_samples = service.config().session_max_samples.max(1);
        ServiceSession {
            service,
            geometry,
            quiescence_s,
            max_samples,
            buffered: 0,
            clock_s: f64::NEG_INFINITY,
            active: BTreeMap::new(),
            by_last_seen: BinaryHeap::new(),
            flush_examined: 0,
            streaming: None,
        }
    }

    /// The geometry this session localizes against.
    pub fn geometry(&self) -> SessionGeometry {
        self.geometry
    }

    /// The newest timestamp ingested so far (`None` before the first
    /// report).
    pub fn clock_s(&self) -> Option<f64> {
        if self.clock_s.is_finite() {
            Some(self.clock_s)
        } else {
            None
        }
    }

    /// Number of tags currently accumulating reads.
    pub fn pending_tags(&self) -> usize {
        self.active.len()
    }

    /// Number of samples currently buffered across all pending tags.
    pub fn pending_samples(&self) -> usize {
        self.buffered
    }

    /// Ingests one reader report. Non-finite samples are rejected with a
    /// typed error and leave the session state untouched.
    pub fn ingest(&mut self, report: &TagReadReport) -> Result<(), IngestError> {
        self.ingest_sample(report.epc, report.time_s, report.phase_rad)
    }

    /// Ingests one raw `(time, phase)` sample for a tag.
    pub fn ingest_sample(
        &mut self,
        epc: Epc,
        time_s: f64,
        phase_rad: f64,
    ) -> Result<(), IngestError> {
        if !time_s.is_finite() {
            return Err(IngestError::NonFiniteTime { epc });
        }
        if !phase_rad.is_finite() {
            return Err(IngestError::NonFinitePhase { epc });
        }
        if self.buffered >= self.max_samples {
            return Err(IngestError::SessionFull { epc, limit: self.max_samples as u64 });
        }
        self.clock_s = if self.clock_s.is_finite() { self.clock_s.max(time_s) } else { time_s };
        use std::collections::btree_map::Entry;
        let buffer = match self.active.entry(epc) {
            Entry::Vacant(slot) => {
                // First read of this tag: give it its single heap entry.
                // Later reads only advance the map's `last_seen_s`; the
                // heap entry is refreshed lazily when a flush pops it.
                self.by_last_seen.push(QuiescenceEntry { seen_s: time_s, epc });
                slot.insert(TagBuffer { pairs: Vec::new(), last_seen_s: time_s })
            }
            Entry::Occupied(slot) => slot.into_mut(),
        };
        buffer.pairs.push((time_s, phase_rad));
        buffer.last_seen_s = buffer.last_seen_s.max(time_s);
        self.buffered += 1;
        Ok(())
    }

    /// Number of tags whose profiles have gone quiescent (no read within
    /// the quiescence window of the session clock).
    pub fn quiescent_tags(&self) -> usize {
        let clock = self.clock_s;
        if !clock.is_finite() {
            return 0;
        }
        self.active.values().filter(|b| clock - b.last_seen_s >= self.quiescence_s).count()
    }

    /// Releases every quiescent tag as one localization batch. Returns
    /// `Ok(None)` when no tag is quiescent yet; otherwise the quiescent
    /// tags leave the session and are localized together through the
    /// owning service (warm banks after the first batch of a geometry).
    ///
    /// A batch whose every profile is too short or too noisy surfaces
    /// [`LocalizationError::NoDetections`]; the tags are still consumed
    /// (they have left the reading zone — more reads will never arrive).
    ///
    /// Cost: the flush walks the last-seen min-heap only while the top
    /// entry's recorded timestamp is at or below the quiescence cutoff —
    /// quiescent tags plus any entries that went stale since the tag was
    /// last examined (each such entry is refreshed once and not touched
    /// again until its *new* timestamp passes the cutoff). It never
    /// scans the full tag population the way the pre-heap implementation
    /// did, so a portal driving thousands of concurrent tags pays per
    /// flush only for the tags actually leaving (amortised `O(log n)`
    /// per examined entry); see [`flush_examined`](Self::flush_examined).
    pub fn flush_quiescent(&mut self) -> Result<Option<LocalizationResponse>, LocalizationError> {
        let clock = self.clock_s;
        if !clock.is_finite() {
            return Ok(None);
        }
        let mut quiescent: Vec<Epc> = Vec::new();
        while let Some(top) = self.by_last_seen.peek() {
            // Same predicate as `quiescent_tags`, evaluated on the
            // recorded timestamp: entries above the cutoff — and, by the
            // heap order, everything after them — cannot be quiescent.
            let within_cutoff = clock - top.seen_s >= self.quiescence_s;
            if !within_cutoff {
                break;
            }
            let entry = self.by_last_seen.pop().expect("peeked entry");
            self.flush_examined += 1;
            let Some(buffer) = self.active.get(&entry.epc) else {
                continue; // tag already flushed earlier; stale entry
            };
            if clock - buffer.last_seen_s >= self.quiescence_s {
                quiescent.push(entry.epc);
            } else {
                // The tag was read again after this entry was pushed:
                // refresh the entry with the true last-seen time.
                self.by_last_seen
                    .push(QuiescenceEntry { seen_s: buffer.last_seen_s, epc: entry.epc });
            }
        }
        if quiescent.is_empty() {
            return Ok(None);
        }
        // The heap yields tags in last-seen order; the batch contract
        // (and the offline pipeline's observation order) is EPC order.
        quiescent.sort_unstable();
        self.localize_batch(quiescent).map(Some)
    }

    /// Monotonic count of heap entries [`flush_quiescent`](Self::flush_quiescent)
    /// has examined over the session's lifetime. Exposed so tests (and
    /// dashboards) can assert the flush cost tracks the number of
    /// quiescent tags, not the number of active ones.
    pub fn flush_examined(&self) -> u64 {
        self.flush_examined
    }

    /// A provisional X ordering over the tags still pending in the
    /// session, computed incrementally: each poll feeds only the samples
    /// that arrived since the last poll into per-tag side-car trackers
    /// (running unwrapped-phase nadir plus incremental candidate-DTW
    /// lanes — see [`StreamingTagTracker`]) and re-sorts the estimates.
    /// Non-consuming: the buffered samples are untouched, and the
    /// authoritative ordering still comes from
    /// [`flush_quiescent`](Self::flush_quiescent) / [`finish`](Self::finish),
    /// whose batch path this never perturbs.
    pub fn provisional(&mut self) -> ProvisionalOrdering {
        if self.streaming.is_none() {
            self.streaming = Some(StreamingState::new(&self.service, self.geometry));
        }
        let state = self.streaming.as_mut().expect("initialised above");
        let StreamingState { detector, cache, trackers } = state;
        let mut order_x: Vec<ProvisionalTag> = Vec::new();
        let mut pending = 0u64;
        for (epc, buffer) in &self.active {
            let entry = trackers.entry(*epc).or_insert_with(|| TrackerEntry {
                tracker: StreamingTagTracker::new(detector.clone()),
                fed_pairs: 0,
            });
            for &(t, p) in &buffer.pairs[entry.fed_pairs..] {
                entry.tracker.push_sample(t, p);
            }
            entry.fed_pairs = buffer.pairs.len();
            entry.tracker.update(cache);
            match entry.tracker.estimate() {
                Some(est) => order_x.push(ProvisionalTag {
                    epc: *epc,
                    nadir_time_s: est.nadir_time_s,
                    confidence: est.confidence,
                    samples: est.samples,
                    match_cost: est.match_cost,
                }),
                None => pending += 1,
            }
        }
        order_x.sort_by(|a, b| {
            a.nadir_time_s.total_cmp(&b.nadir_time_s).then_with(|| a.epc.cmp(&b.epc))
        });
        ProvisionalOrdering { tags_estimated: order_x.len() as u64, tags_pending: pending, order_x }
    }

    /// Ends the session, localizing every remaining tag (quiescent or
    /// not) as a final batch. Returns `Ok(None)` for a session that never
    /// accumulated a tag.
    pub fn finish(mut self) -> Result<Option<LocalizationResponse>, LocalizationError> {
        let remaining: Vec<Epc> = self.active.keys().copied().collect();
        if remaining.is_empty() {
            return Ok(None);
        }
        self.localize_batch(remaining).map(Some)
    }

    /// Removes the given tags from the session and localizes them as one
    /// batch (in EPC order, matching the offline pipeline's observation
    /// order).
    fn localize_batch(
        &mut self,
        epcs: Vec<Epc>,
    ) -> Result<LocalizationResponse, LocalizationError> {
        let observations: Vec<TagObservations> = epcs
            .into_iter()
            .filter_map(|epc| {
                let buffer = self.active.remove(&epc)?;
                self.buffered -= buffer.pairs.len();
                // The tag's profile is complete: its provisional tracker
                // has served its purpose (the batch below is the
                // authoritative result).
                if let Some(state) = self.streaming.as_mut() {
                    state.trackers.remove(&epc);
                }
                Some(TagObservations {
                    id: epc.serial(),
                    epc,
                    profile: PhaseProfile::from_pairs(&buffer.pairs),
                })
            })
            .collect();
        let input = StppInput {
            observations,
            nominal_speed_mps: self.geometry.nominal_speed_mps,
            wavelength_m: self.geometry.wavelength_m,
            perpendicular_distance_m: self.geometry.perpendicular_distance_m,
        };
        self.service.session_batches.fetch_add(1, Ordering::Relaxed);
        self.service.localize(Arc::new(input))
    }
}
