//! Incremental (streaming) V-zone estimation.
//!
//! The batch pipeline sees a tag's complete phase profile and runs the
//! full segmented-DTW detection once. A live portal cannot wait for
//! completeness: reports arrive while the tag is still inside the reading
//! zone, and the deployment wants a *provisional* ordering — with an
//! honest confidence measure — long before the profile quiesces.
//!
//! [`StreamingTagTracker`] maintains, per tag and incrementally:
//!
//! * the running minimum of the *incrementally unwrapped* phase (the
//!   provisional nadir estimate — the paper's "straightforward solution",
//!   acceptable here precisely because it is advisory) and how far the
//!   phase has risen since it (the *shape* confidence: a V whose right
//!   arm has climbed out of the bottom has very likely been traversed);
//! * one [`IncrementalDtwCost`] lane per reference-bank offset candidate,
//!   fed with each newly **completed** measured segment (greedy
//!   segmentation is prefix-stable, so segments never change once the
//!   next one starts — only the trailing partial segment is withheld).
//!   The spread between the best and second-best running candidate costs
//!   is the *match* confidence: when one hardware-offset candidate
//!   clearly separates from the rest, the alignment is locking on.
//!
//! The provisional estimate is deliberately side-car state: it never
//! touches the buffered samples, and the authoritative result is still
//! produced by the unchanged batch path when the profile completes — so
//! the final ordering is bit-identical to offline batch localization by
//! construction.

use std::sync::Arc;

use rfid_phys::wrap_phase;
use serde::{Deserialize, Serialize};

use crate::dtw::IncrementalDtwCost;
use crate::profile::PhaseProfile;
use crate::reference::{ReferenceBank, ReferenceBankCache};
use crate::segment::SegmentedProfile;
use crate::vzone::VZoneDetector;

/// Phase rise (radians) out of the running minimum at which the shape
/// confidence saturates. The V-zone spans strictly less than one 2π
/// period by construction; a right arm that has climbed a full radian
/// out of the bottom is well past noise (smoothed bottoms jitter by
/// ~0.1–0.2 rad) while still reachable within every V-zone (the
/// shallowest bottoms of the paper's geometry leave ≈1 rad of headroom
/// before the wrap).
const SHAPE_RISE_FULL_CONFIDENCE_RAD: f64 = 1.0;

/// A provisional per-tag estimate, produced mid-stream (see the module
/// docs for how it firms up).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProvisionalEstimate {
    /// Provisional nadir (perpendicular-point) time: the timestamp of the
    /// running minimum of the incrementally unwrapped phase. Approximate
    /// until the tag has actually passed the perpendicular point; the
    /// batch detection replaces it with the DTW-matched,
    /// quadratic-fitted nadir.
    pub nadir_time_s: f64,
    /// Phase at the provisional nadir, wrapped to `[0, 2π)`.
    pub nadir_phase: f64,
    /// Confidence in `[0, 1]`: the mean of the *shape* confidence (how
    /// far the phase has risen out of the running minimum, saturating at
    /// 1 rad — evidence the V bottom has been traversed) and the *match*
    /// confidence (the relative cost margin between the best and
    /// second-best reference offset candidates under the incremental
    /// subsequence DTW — evidence the alignment has locked onto one
    /// hardware offset). Monotone in evidence, not a probability.
    pub confidence: f64,
    /// Samples accumulated in the provisional view.
    pub samples: u64,
    /// Best running candidate cost, normalised by the candidate's segment
    /// count (comparable to
    /// [`VZoneDetection::match_cost`](crate::vzone::VZoneDetection));
    /// `None` until the reference bank is built and a first complete
    /// segment has been aligned.
    pub match_cost: Option<f64>,
    /// Index of the currently winning offset candidate, if any.
    pub offset_index: Option<usize>,
}

/// Incremental per-tag streaming state (see the module docs).
#[derive(Debug)]
pub struct StreamingTagTracker {
    detector: VZoneDetector,
    /// Accepted samples, time-ordered, phases wrapped to `[0, 2π)`.
    pairs: Vec<(f64, f64)>,
    last_time_s: f64,
    /// Samples dropped from the provisional view (non-finite, or arriving
    /// out of time order). They still reach the batch path — the tracker
    /// is a side-car, not the buffer of record.
    dropped: usize,
    // Running nadir estimate over the *incrementally unwrapped* phase
    // (each step shifted into (−π, π]): the wrapped global minimum can
    // sit just past a flank wrap instead of at the V bottom, while the
    // unwrapped curve is V-shaped by construction. Noise-induced wraps
    // near the bottom can still bias this — which is exactly why it is
    // only provisional (the batch DTW detection is immune to them).
    prev_phase: f64,
    unwrapped: f64,
    min_unwrapped: f64,
    min_phase: f64,
    min_time_s: f64,
    max_unwrapped_after_min: f64,
    // Incremental candidate alignment.
    bank: Option<Arc<ReferenceBank>>,
    bank_unavailable: bool,
    lanes: Vec<IncrementalDtwCost>,
    fed_segments: usize,
    samples_at_last_update: usize,
    seg: SegmentedProfile,
}

impl StreamingTagTracker {
    /// Creates a tracker estimating with the given detector configuration
    /// (the same one the batch path runs, so the provisional candidates
    /// align against the very banks the final detection will use).
    pub fn new(detector: VZoneDetector) -> Self {
        StreamingTagTracker {
            detector,
            pairs: Vec::new(),
            last_time_s: f64::NEG_INFINITY,
            dropped: 0,
            prev_phase: 0.0,
            unwrapped: 0.0,
            min_unwrapped: f64::INFINITY,
            min_phase: f64::INFINITY,
            min_time_s: 0.0,
            max_unwrapped_after_min: f64::NEG_INFINITY,
            bank: None,
            bank_unavailable: false,
            lanes: Vec::new(),
            fed_segments: 0,
            samples_at_last_update: 0,
            seg: SegmentedProfile::default(),
        }
    }

    /// Number of samples in the provisional view.
    pub fn samples(&self) -> usize {
        self.pairs.len()
    }

    /// Samples excluded from the provisional view (non-finite or
    /// out-of-order arrivals).
    pub fn dropped_samples(&self) -> usize {
        self.dropped
    }

    /// Whether the reference bank has been resolved and candidate lanes
    /// are accumulating.
    pub fn aligning(&self) -> bool {
        self.bank.is_some()
    }

    /// Feeds one sample. Returns `true` when the sample entered the
    /// provisional view; non-finite samples and late (out-of-time-order)
    /// arrivals are counted in [`dropped_samples`](Self::dropped_samples)
    /// and ignored — the incremental segmentation requires a time-ordered
    /// prefix, and a handful of late reports cannot move a *provisional*
    /// estimate meaningfully (the batch path still sees them).
    pub fn push_sample(&mut self, time_s: f64, phase_rad: f64) -> bool {
        if !(time_s.is_finite() && phase_rad.is_finite()) || time_s < self.last_time_s {
            self.dropped += 1;
            return false;
        }
        let phase = wrap_phase(phase_rad);
        self.last_time_s = time_s;
        let unwrapped = if self.pairs.is_empty() {
            phase
        } else {
            let mut step = phase - self.prev_phase;
            if step > std::f64::consts::PI {
                step -= std::f64::consts::TAU;
            } else if step < -std::f64::consts::PI {
                step += std::f64::consts::TAU;
            }
            self.unwrapped + step
        };
        self.prev_phase = phase;
        self.unwrapped = unwrapped;
        self.pairs.push((time_s, phase));
        if unwrapped < self.min_unwrapped {
            self.min_unwrapped = unwrapped;
            self.min_phase = phase;
            self.min_time_s = time_s;
            self.max_unwrapped_after_min = unwrapped;
        } else if unwrapped > self.max_unwrapped_after_min {
            self.max_unwrapped_after_min = unwrapped;
        }
        true
    }

    /// Folds newly completed measured segments into the candidate lanes,
    /// resolving the reference bank on first use. Called lazily — at poll
    /// time, not per sample — so ingestion stays O(1) per report.
    ///
    /// The bank interval is estimated once, from the whole prefix seen at
    /// the first call with at least `min_samples` samples (however many
    /// samples arrived before that poll); the batch path re-estimates it
    /// from the complete profile. Both quantise onto the same coarse
    /// grid, so they agree in all but pathological cases — and a
    /// disagreement only shifts the *provisional* candidate costs, never
    /// the final result.
    pub fn update(&mut self, cache: &ReferenceBankCache) {
        if self.pairs.len() < self.detector.min_samples.max(2)
            || self.pairs.len() == self.samples_at_last_update
        {
            return;
        }
        self.samples_at_last_update = self.pairs.len();
        let profile = PhaseProfile::from_pairs(&self.pairs);
        if self.bank.is_none() {
            if self.bank_unavailable {
                return;
            }
            let Some(interval) = self.detector.reference_interval(&profile) else {
                return;
            };
            let Some(bank) = cache.get_or_build(
                self.detector.reference_params,
                self.detector.window,
                self.detector.offset_candidates,
                interval,
            ) else {
                // Degenerate geometry: memoised by the cache; don't retry.
                self.bank_unavailable = true;
                return;
            };
            self.lanes = vec![IncrementalDtwCost::new(); bank.patterns.len()];
            self.bank = Some(bank);
        }
        let bank = self.bank.as_ref().expect("bank resolved above");
        self.seg.rebuild(&profile, self.detector.window);
        // Greedy segmentation is prefix-stable: every segment except the
        // trailing one is final (it ended at a full window or a wrap that
        // later samples cannot undo). Withhold the partial tail.
        let completed = self.seg.len().saturating_sub(1);
        let penalty = self.detector.gap_penalty_per_second;
        for s in &self.seg.segments()[self.fed_segments..completed] {
            for (lane, pattern) in self.lanes.iter_mut().zip(bank.patterns.iter()) {
                lane.append(
                    &pattern.features,
                    penalty,
                    s.min_phase,
                    s.max_phase,
                    s.time_interval(),
                );
            }
        }
        self.fed_segments = completed;
    }

    /// The current provisional estimate, or `None` while the tag has
    /// fewer than the detector's `min_samples` samples.
    pub fn estimate(&self) -> Option<ProvisionalEstimate> {
        if self.pairs.len() < self.detector.min_samples || !self.min_unwrapped.is_finite() {
            return None;
        }
        let rise = (self.max_unwrapped_after_min - self.min_unwrapped).max(0.0);
        let c_shape = (rise / SHAPE_RISE_FULL_CONFIDENCE_RAD).clamp(0.0, 1.0);

        // Best and runner-up normalised candidate costs (ties keep the
        // smaller candidate index, like the batch argmin).
        let mut best: Option<(f64, usize)> = None;
        let mut second: Option<f64> = None;
        if let Some(bank) = &self.bank {
            for (k, lane) in self.lanes.iter().enumerate() {
                let Some(cost) = lane.best() else { continue };
                let normalised = cost / bank.patterns[k].features.len().max(1) as f64;
                match best {
                    Some((b, _)) if normalised >= b => match second {
                        Some(s) if normalised >= s => {}
                        _ => second = Some(normalised),
                    },
                    _ => {
                        second = best.map(|(b, _)| b).or(second);
                        best = Some((normalised, k));
                    }
                }
            }
        }
        let c_match = match (best, second) {
            (Some((b, _)), Some(s)) if s > 0.0 => ((s - b) / s).clamp(0.0, 1.0),
            _ => 0.0,
        };
        Some(ProvisionalEstimate {
            nadir_time_s: self.min_time_s,
            nadir_phase: self.min_phase,
            confidence: 0.5 * c_shape + 0.5 * c_match,
            samples: self.pairs.len() as u64,
            match_cost: best.map(|(b, _)| b),
            offset_index: best.map(|(_, k)| k),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtw::{dtw_segmented_features_into, DtwScratch, SegmentFeatures};
    use crate::reference::ReferenceProfileParams;

    const WAVELENGTH_M: f64 = 0.326;
    const SPEED_MPS: f64 = 0.1;
    const D_PERP_M: f64 = 0.3;

    fn detector() -> VZoneDetector {
        VZoneDetector::new(ReferenceProfileParams::new(SPEED_MPS, D_PERP_M, WAVELENGTH_M))
    }

    /// The analytic phase stream of a tag at `tag_x` metres along the
    /// belt, sampled every `dt` seconds for `samples` samples.
    fn tag_stream(tag_x: f64, dt: f64, samples: usize) -> Vec<(f64, f64)> {
        (0..samples)
            .map(|i| {
                let t = i as f64 * dt;
                let d = ((SPEED_MPS * t - tag_x).powi(2) + D_PERP_M * D_PERP_M).sqrt();
                (t, std::f64::consts::TAU * 2.0 * d / WAVELENGTH_M)
            })
            .collect()
    }

    #[test]
    fn rejects_out_of_order_and_non_finite_samples() {
        let mut tracker = StreamingTagTracker::new(detector());
        assert!(tracker.push_sample(0.0, 1.0));
        assert!(tracker.push_sample(0.02, 1.1));
        assert!(!tracker.push_sample(0.01, 1.2), "late arrival must be dropped");
        assert!(!tracker.push_sample(0.04, f64::NAN));
        assert!(!tracker.push_sample(f64::INFINITY, 1.0));
        assert_eq!(tracker.samples(), 2);
        assert_eq!(tracker.dropped_samples(), 3);
        // Equal timestamps are fine (two channels in one millisecond).
        assert!(tracker.push_sample(0.02, 1.05));
    }

    #[test]
    fn no_estimate_before_min_samples_then_nadir_converges() {
        let det = detector();
        let min = det.min_samples;
        let cache = ReferenceBankCache::new();
        let mut tracker = StreamingTagTracker::new(det);
        let tag_x = 1.0; // nadir at t = 10 s
        let stream = tag_stream(tag_x, 0.02, 1100);
        for (i, &(t, p)) in stream.iter().enumerate() {
            tracker.push_sample(t, p);
            if i + 1 < min {
                assert!(tracker.estimate().is_none(), "no estimate at {} samples", i + 1);
            }
        }
        tracker.update(&cache);
        let est = tracker.estimate().expect("estimate after full pass");
        assert!(
            (est.nadir_time_s - tag_x / SPEED_MPS).abs() < 0.5,
            "provisional nadir {} should be near {}",
            est.nadir_time_s,
            tag_x / SPEED_MPS
        );
        assert!((0.0..=1.0).contains(&est.confidence));
        assert!(est.confidence > 0.4, "past the nadir the estimate should be confident");
        assert!(est.match_cost.is_some(), "lanes must be aligning");
    }

    #[test]
    fn confidence_grows_after_passing_the_nadir() {
        let cache = ReferenceBankCache::new();
        let mut tracker = StreamingTagTracker::new(detector());
        let stream = tag_stream(1.0, 0.02, 1100);
        // Approaching the nadir (t < 9 s): low shape confidence.
        let split = 450;
        for &(t, p) in &stream[..split] {
            tracker.push_sample(t, p);
        }
        tracker.update(&cache);
        let before = tracker.estimate().expect("estimate on approach").confidence;
        for &(t, p) in &stream[split..] {
            tracker.push_sample(t, p);
        }
        tracker.update(&cache);
        let after = tracker.estimate().expect("estimate after traversal").confidence;
        assert!(after > before, "confidence must firm up after the V bottom: {before} -> {after}");
    }

    #[test]
    fn candidate_lanes_are_bit_identical_to_batch_over_completed_segments() {
        let det = detector();
        let window = det.window;
        let penalty = det.gap_penalty_per_second;
        let cache = ReferenceBankCache::new();
        let mut tracker = StreamingTagTracker::new(det);
        let stream = tag_stream(0.8, 0.02, 900);
        // Feed in uneven bursts with interleaved updates: lane state must
        // not depend on the chunking.
        for chunk in stream.chunks(37) {
            for &(t, p) in chunk {
                tracker.push_sample(t, p);
            }
            tracker.update(&cache);
        }
        let bank = tracker.bank.clone().expect("bank resolved");
        // Batch counterpart: the completed (all but last) segments of the
        // full profile, aligned with the path-recording kernel.
        let profile = PhaseProfile::from_pairs(&stream);
        let seg = SegmentedProfile::build(&profile, window);
        let completed = seg.len() - 1;
        assert_eq!(tracker.fed_segments, completed);
        let mut measured = SegmentFeatures::default();
        for s in &seg.segments()[..completed] {
            measured.push(s.min_phase, s.max_phase, s.time_interval());
        }
        let mut scratch = DtwScratch::new();
        for (k, pattern) in bank.patterns.iter().enumerate() {
            let want = dtw_segmented_features_into(
                &pattern.features,
                &measured,
                true,
                penalty,
                None,
                &mut scratch,
            );
            let got = tracker.lanes[k].best();
            assert_eq!(
                want.map(f64::to_bits),
                got.map(f64::to_bits),
                "candidate {k} lane must bit-match the batch kernel"
            );
        }
    }
}
