//! V-zone detection and quadratic fitting.
//!
//! The V-zone is the symmetric, non-wrapping central period of a tag's
//! phase profile; its bottom occurs exactly when the reader is
//! perpendicular to the tag. STPP detects it by matching a pre-computed
//! reference profile against the measured profile with segmented
//! (subsequence) DTW, then pins the nadir down with a quadratic fit — which
//! also rides out missing samples and noise-induced wrap-arounds near the
//! bottom.
//!
//! Two detectors are provided:
//!
//! * [`VZoneDetector`] — the paper's approach (segmented DTW + quadratic
//!   fitting). Because the hardware phase offset `μ` of the measured
//!   profile is unknown, the detector tries a small set of candidate
//!   offsets applied to the reference and keeps the lowest-cost match.
//!   Every candidate is scored by exact DTW; a lockstep screen
//!   ([`dtw_screen_lockstep`]) only skips the alignments that provably
//!   cannot win, so the chosen candidate is the exhaustive argmin.
//! * [`NaiveUnwrapDetector`] — the "straightforward solution" the paper
//!   argues against: unwrap the whole profile and take the global minimum.
//!   Kept as an ablation baseline.

use std::sync::Arc;

use rfid_phys::wrap_phase;
use serde::{Deserialize, Serialize};

use crate::dtw::{
    dtw_screen_lockstep, dtw_segmented_features_into, path_matched_range, DtwScratch,
    ScreenOutcome, SegmentFeatures,
};
use crate::profile::{PhaseProfile, PhaseSample};
use crate::reference::{BankCacheStats, ReferenceBank, ReferenceBankCache, ReferenceProfileParams};
use crate::segment::SegmentedProfile;

/// Typed detection failures for malformed input profiles.
///
/// These are *errors*, distinct from the `Ok(None)` "no V-zone found"
/// outcome: a profile that triggers one of these could previously panic
/// the detector (non-finite timestamps reaching the gap-median selection)
/// or silently fabricate a result (an empty V-zone "nadir" at index 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetectError {
    /// A sample carries a non-finite time or phase value. Profiles built
    /// through [`PhaseProfile::from_pairs`] /
    /// [`PhaseProfile::from_reports`] are pre-filtered, but profiles can
    /// also arrive through deserialization or
    /// [`PhaseProfile::from_samples`], so the detectors re-validate at
    /// their own ingestion boundary instead of panicking deep inside the
    /// match.
    NonFiniteSample {
        /// Index of the first offending sample.
        index: usize,
    },
    /// A sample's timestamp precedes its predecessor's. The detectors
    /// require time-ordered profiles (segmentation, gap medians, and
    /// unwrapping all walk the samples in time order); a shuffled profile
    /// would quietly produce a garbage alignment instead.
    UnsortedSamples {
        /// Index of the first sample that is earlier than its predecessor.
        index: usize,
    },
    /// The candidate V-zone contained no samples to take a nadir from.
    EmptyVZone,
}

impl std::fmt::Display for DetectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetectError::NonFiniteSample { index } => {
                write!(f, "profile sample {index} has a non-finite time or phase")
            }
            DetectError::UnsortedSamples { index } => {
                write!(f, "profile sample {index} is earlier than its predecessor")
            }
            DetectError::EmptyVZone => {
                write!(f, "candidate V-zone contained no samples")
            }
        }
    }
}

impl std::error::Error for DetectError {}

/// Rejects profiles containing non-finite or time-disordered samples
/// with a typed error naming the first offending sample (scan order:
/// whichever defect appears first). Equal timestamps are allowed — COTS
/// readers can report two channels in the same millisecond.
fn validate_profile(profile: &PhaseProfile) -> Result<(), DetectError> {
    let mut prev_time = f64::NEG_INFINITY;
    for (index, s) in profile.samples().iter().enumerate() {
        if !(s.time_s.is_finite() && s.phase_rad.is_finite()) {
            return Err(DetectError::NonFiniteSample { index });
        }
        if s.time_s < prev_time {
            return Err(DetectError::UnsortedSamples { index });
        }
        prev_time = s.time_s;
    }
    Ok(())
}

/// A least-squares quadratic fit `y = a·t² + b·t + c`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuadraticFit {
    /// Quadratic coefficient.
    pub a: f64,
    /// Linear coefficient.
    pub b: f64,
    /// Constant coefficient.
    pub c: f64,
}

impl QuadraticFit {
    /// Fits a quadratic to `(t, y)` points by least squares. Returns `None`
    /// for fewer than three points or a numerically degenerate system.
    pub fn fit(points: &[(f64, f64)]) -> Option<QuadraticFit> {
        if points.len() < 3 {
            return None;
        }
        // Centre the time axis for numerical stability.
        let t0 = points.iter().map(|p| p.0).sum::<f64>() / points.len() as f64;
        let (mut s0, mut s1, mut s2, mut s3, mut s4) = (0.0, 0.0, 0.0, 0.0, 0.0);
        let (mut sy, mut sty, mut st2y) = (0.0, 0.0, 0.0);
        for &(t, y) in points {
            let t = t - t0;
            let t2 = t * t;
            s0 += 1.0;
            s1 += t;
            s2 += t2;
            s3 += t2 * t;
            s4 += t2 * t2;
            sy += y;
            sty += t * y;
            st2y += t2 * y;
        }
        // Solve the 3x3 normal equations with Cramer's rule:
        // [s4 s3 s2][a]   [st2y]
        // [s3 s2 s1][b] = [sty ]
        // [s2 s1 s0][c]   [sy  ]
        let det = s4 * (s2 * s0 - s1 * s1) - s3 * (s3 * s0 - s1 * s2) + s2 * (s3 * s1 - s2 * s2);
        if det.abs() < 1e-12 {
            return None;
        }
        let a = (st2y * (s2 * s0 - s1 * s1) - s3 * (sty * s0 - s1 * sy)
            + s2 * (sty * s1 - s2 * sy))
            / det;
        let b = (s4 * (sty * s0 - sy * s1) - st2y * (s3 * s0 - s1 * s2)
            + s2 * (s3 * sy - sty * s2))
            / det;
        let c_centered = (s4 * (s2 * sy - s1 * sty) - s3 * (s3 * sy - s1 * st2y)
            + st2y * (s3 * s1 - s2 * s2))
            / det;
        // Undo the centring: y = a(t - t0)² + b(t - t0) + c_centered.
        let c = a * t0 * t0 - b * t0 + c_centered;
        let b_full = b - 2.0 * a * t0;
        Some(QuadraticFit { a, b: b_full, c })
    }

    /// Evaluates the fit at `t`.
    pub fn evaluate(&self, t: f64) -> f64 {
        self.a * t * t + self.b * t + self.c
    }

    /// The time of the extremum (`−b / 2a`), or `None` when the fit is
    /// (numerically) linear.
    pub fn vertex_time(&self) -> Option<f64> {
        if self.a.abs() < 1e-12 {
            None
        } else {
            Some(-self.b / (2.0 * self.a))
        }
    }

    /// The value at the extremum.
    pub fn vertex_value(&self) -> Option<f64> {
        self.vertex_time().map(|t| self.evaluate(t))
    }

    /// Whether the extremum is a minimum (opens upwards).
    pub fn is_minimum(&self) -> bool {
        self.a > 0.0
    }
}

/// The V-zone located inside a measured profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VZone {
    /// Index of the first V-zone sample in the measured profile.
    pub start_idx: usize,
    /// Index one past the last V-zone sample.
    pub end_idx: usize,
    /// The V-zone samples.
    pub profile: PhaseProfile,
}

impl VZone {
    /// The time span of the V-zone, seconds.
    pub fn duration(&self) -> f64 {
        self.profile.duration()
    }
}

/// The full result of V-zone detection for one tag.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VZoneDetection {
    /// The detected V-zone.
    pub vzone: VZone,
    /// The quadratic fitted to the (unwrapped) V-zone samples, if the fit
    /// succeeded.
    pub fit: Option<QuadraticFit>,
    /// Estimated time of the perpendicular point (profile nadir), seconds.
    pub nadir_time_s: f64,
    /// Estimated phase at the nadir, wrapped to `[0, 2π)`.
    pub nadir_phase: f64,
    /// The DTW matching cost (lower = better match); `None` for the naive
    /// detector.
    pub match_cost: Option<f64>,
    /// Index of the winning hardware-offset candidate in the detector's
    /// [`ReferenceBank`] (`None` for the naive detector). Exposed so the
    /// exactness suite can check the candidate screen's argmin, not just
    /// the end result.
    pub offset_index: Option<usize>,
    /// The quarter-wavelength refinement cap
    /// ([`ReferenceBank::max_half_duration_s`]) the detection was refined
    /// under, seconds; `0.0` when unknown (naive detector). Feeds the
    /// window-length-normalised coarse representation.
    pub cap_half_duration_s: f64,
}

impl VZoneDetection {
    /// The coarse representation `S(P)` of the V-zone: `k` equal-count
    /// segment means over the *unwrapped* V-zone values, each wrapped back
    /// into `[0, 2π)`. Unwrapping first protects the means against
    /// noise-induced wrap-around near the nadir. Returns `None` when the
    /// V-zone has fewer than `k` samples.
    pub fn coarse_representation(&self, k: usize) -> Option<Vec<f64>> {
        let n = self.vzone.profile.len();
        if k == 0 || n < k {
            return None;
        }
        let unwrapped = self.vzone.profile.unwrapped_phases();
        let mut means = Vec::with_capacity(k);
        for i in 0..k {
            let start = i * n / k;
            let end = (((i + 1) * n / k).max(start + 1)).min(n);
            let slice = &unwrapped[start..end];
            let mean = slice.iter().sum::<f64>() / slice.len() as f64;
            means.push(wrap_phase(mean));
        }
        Some(means)
    }

    /// The **window-length-normalised** coarse representation: `k` means
    /// over a fixed time grid of `±cap_half_duration_s` around the fitted
    /// nadir, rather than `k` equal-count slices of whatever window the
    /// refinement happened to produce.
    ///
    /// [`coarse_representation`](Self::coarse_representation) depends on
    /// the detected window's extent: a tag whose bottom phase hugs the
    /// 0/2π boundary falls back to the quarter-wavelength cap window,
    /// while its neighbours stop at their first genuine wrap — so segment
    /// `i` of one tag averages a different time offset from the nadir
    /// than segment `i` of the other, and the Y comparison mixes window
    /// sizes. Here every tag is sampled over the *same* absolute offsets
    /// (the cap is a per-sweep constant), values are anchored at the
    /// fitted bottom (`nadir_phase + unwrapped rise`), and bins the
    /// detected window does not reach are filled from the quadratic fit —
    /// so representations are directly comparable across window lengths,
    /// and no per-segment re-wrapping can scatter a boundary-hugging tag's
    /// means across the 0/2π seam.
    ///
    /// Returns `None` when `k` is zero, the V-zone has fewer than `k`
    /// samples, or no cap is known (naive detector) — callers fall back
    /// to the plain equal-count representation.
    pub fn normalized_coarse_representation(&self, k: usize) -> Option<Vec<f64>> {
        let n = self.vzone.profile.len();
        let cap = self.cap_half_duration_s;
        if k == 0 || n < k || cap <= 0.0 || !cap.is_finite() {
            return None;
        }
        let samples = self.vzone.profile.samples();
        let unwrapped = self.vzone.profile.unwrapped_phases();
        let bottom = unwrapped.iter().copied().fold(f64::INFINITY, f64::min);
        if !bottom.is_finite() {
            return None;
        }
        // Anchor the continuous (unwrapped) curve so its minimum sits at
        // the wrapped bottom phase: levels stay comparable across tags of
        // one sweep, and no individual mean is re-wrapped.
        let base = self.nadir_phase;
        let fit = self.fit.filter(|f| f.is_minimum());
        let fit_anchor = fit.and_then(|f| f.vertex_value());
        let t0 = self.nadir_time_s;
        let mut means = Vec::with_capacity(k);
        for i in 0..k {
            let lo_t = t0 - cap + 2.0 * cap * i as f64 / k as f64;
            let hi_t = t0 - cap + 2.0 * cap * (i + 1) as f64 / k as f64;
            // Samples are time-ordered: bins resolve by binary search.
            let start = samples.partition_point(|s| s.time_s < lo_t);
            let end = if i == k - 1 {
                samples.partition_point(|s| s.time_s <= hi_t)
            } else {
                samples.partition_point(|s| s.time_s < hi_t)
            };
            if end > start {
                let sum: f64 = unwrapped[start..end].iter().map(|u| base + (u - bottom)).sum();
                means.push(sum / (end - start) as f64);
            } else if let (Some(f), Some(anchor)) = (fit, fit_anchor) {
                // The detected window does not reach this bin: evaluate
                // the detector's own smoother at the bin centre. The fit
                // opens upward, so the extrapolated rise is non-negative.
                let mid = (lo_t + hi_t) / 2.0;
                means.push(base + (f.evaluate(mid) - anchor));
            } else {
                // No fit to extrapolate with: carry the nearest sample's
                // level (the window edge for bins outside the detected
                // window, the adjacent sample for an interior dropout
                // gap) so the bin at least sits at a sane level.
                let mid = (lo_t + hi_t) / 2.0;
                let right = samples.partition_point(|s| s.time_s < mid);
                let nearest = if right == 0 {
                    0
                } else if right >= n {
                    n - 1
                } else if mid - samples[right - 1].time_s <= samples[right].time_s - mid {
                    right - 1
                } else {
                    right
                };
                means.push(base + (unwrapped[nearest] - bottom));
            }
        }
        Some(means)
    }
}

/// Quantises a median sample interval onto a coarse grid (step ≲ 10 % of
/// the value: 1 ms below 20 ms, 5 ms below 50 ms, 10 ms above) and
/// clamps it to the sane reference-generation range, so profiles read
/// during the same sweep share a handful of [`ReferenceBank`] cache
/// entries. The reference is an analytically resampled profile, so a few
/// per-cent of interval slack is invisible to the segmented alignment;
/// per-tag read rates within one sweep vary far more than that.
fn quantize_interval(median_s: f64) -> f64 {
    let clamped = median_s.clamp(0.005, 0.2);
    let step = if clamped < 0.02 {
        1e-3
    } else if clamped < 0.05 {
        5e-3
    } else {
        1e-2
    };
    ((clamped / step).round() * step).clamp(0.005, 0.2)
}

/// [`PhaseProfile::median_sample_interval`] with a caller-provided gap
/// buffer (zero-alloc on the detection hot path). Long profiles are
/// estimated from a deterministic stride sample of at most 64 gaps — the
/// result only seeds the coarsely quantised reference sampling interval
/// (see [`quantize_interval`]), so the cheap estimate lands in the same
/// bucket as the exact median in all but pathological cases.
fn median_interval_with(profile: &PhaseProfile, gaps: &mut Vec<f64>) -> Option<f64> {
    const MAX_GAPS: usize = 64;
    let samples = profile.samples();
    if samples.len() < 2 {
        return None;
    }
    let total = samples.len() - 1;
    gaps.clear();
    if total <= MAX_GAPS {
        gaps.extend(samples.windows(2).map(|w| w[1].time_s - w[0].time_s));
    } else {
        let stride = total.div_ceil(MAX_GAPS);
        let mut g = 0;
        while g < total {
            gaps.push(samples[g + 1].time_s - samples[g].time_s);
            g += stride;
        }
    }
    let mid = gaps.len() / 2;
    // total_cmp instead of partial_cmp().expect("finite gaps"): callers
    // validate profiles before detection, but the selection itself must
    // never be able to panic on a NaN gap from a malformed recording.
    let (_, median, _) = gaps.select_nth_unstable_by(mid, |a, b| a.total_cmp(b));
    Some(*median)
}

/// Simple moving average used to smooth unwrapped phases before locating
/// the minimum; writes into `out`.
fn moving_average_into(values: &[f64], window: usize, out: &mut Vec<f64>) {
    let window = window.max(1);
    let half = window / 2;
    out.clear();
    out.extend((0..values.len()).map(|i| {
        let start = i.saturating_sub(half);
        let end = (i + half + 1).min(values.len());
        values[start..end].iter().sum::<f64>() / (end - start) as f64
    }));
}

/// Refines a coarse V-zone range (from DTW) into a window centred on the
/// profile nadir: the coarse range is padded, unwrapped and smoothed, the
/// minimum located, and the window grown symmetrically around it until
/// either `max_half_duration_s` is reached or the raw phase wraps (which
/// marks the true V-zone boundary). `buf_a`/`buf_b` are reusable working
/// buffers (unwrapped and smoothed phases).
///
/// When the bottom phase itself sits on the 0/2π boundary (nadir phase +
/// hardware offset ≈ 2π), the samples hug the boundary and wrap back and
/// forth *at the nadir*; treating those jitter wraps as the V-zone edge
/// truncated the window below the fittable minimum and made the tag
/// silently undetectable for a hair-thin band of hardware offsets. The
/// plain first-wrap walk therefore gets a second chance: if (and only
/// if) it produced an unusably small window around a boundary-hugging
/// bottom, the walk is redone ignoring wraps until the unwrapped phase
/// has climbed out of the boundary band — capped, as always, by
/// `max_half_duration_s`, the quarter-wavelength fitting window, which
/// is the right degenerate answer when the nadir sits *on* a period
/// boundary. Windows the plain walk already handled are untouched.
fn refine_vzone(
    measured: &PhaseProfile,
    coarse_range: std::ops::Range<usize>,
    max_half_duration_s: f64,
    min_samples: usize,
    buf_a: &mut Vec<f64>,
    buf_b: &mut Vec<f64>,
) -> Option<VZone> {
    let pad = ((coarse_range.len() as f64) * 0.3).ceil() as usize + 2;
    let start = coarse_range.start.saturating_sub(pad);
    let end = (coarse_range.end + pad).min(measured.len());
    if end <= start {
        return None;
    }
    let samples = &measured.samples()[start..end];
    if samples.len() < min_samples.max(3) {
        return None;
    }
    crate::profile::unwrap_phases_into(samples, buf_a);
    moving_average_into(buf_a, 5, buf_b);
    let min_rel = buf_b.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i)?;
    let center_time = samples[min_rel].time_s;
    let u_bottom = buf_a[min_rel];
    let is_wrap = |a: f64, b: f64| (a - b).abs() > std::f64::consts::PI;
    // The band must sit above the noise scale of a smoothed bottom
    // (~0.1–0.2 rad) and below the smallest genuine edge rise
    // (2π − θ_nadir ≈ 0.99 rad for the paper's 0.3 m / λ setup).
    const BOUNDARY_BAND_RAD: f64 = 0.3;
    let bottom_raw = samples[min_rel].phase_rad;
    let boundary_hug =
        !(BOUNDARY_BAND_RAD..=std::f64::consts::TAU - BOUNDARY_BAND_RAD).contains(&bottom_raw);
    // `skip_hug_wraps = false` is the plain walk: stop at the first wrap.
    // The retry pass additionally requires the unwrapped phase to have
    // climbed out of the boundary band before a wrap counts as the edge.
    let walk = |skip_hug_wraps: bool| -> (usize, usize) {
        let is_edge_wrap = |idx_outer: usize, idx_inner: usize| {
            is_wrap(samples[idx_inner].phase_rad, samples[idx_outer].phase_rad)
                && (!skip_hug_wraps || buf_a[idx_outer] - u_bottom > BOUNDARY_BAND_RAD)
        };
        let mut lo = min_rel;
        while lo > 0 {
            if center_time - samples[lo - 1].time_s > max_half_duration_s {
                break;
            }
            if is_edge_wrap(lo - 1, lo) {
                break;
            }
            lo -= 1;
        }
        let mut hi = min_rel + 1;
        while hi < samples.len() {
            if samples[hi].time_s - center_time > max_half_duration_s {
                break;
            }
            if is_edge_wrap(hi, hi - 1) {
                break;
            }
            hi += 1;
        }
        (lo, hi)
    };

    let usable = min_samples.max(3);
    let (mut lo, mut hi) = walk(false);
    if hi - lo < usable && boundary_hug {
        (lo, hi) = walk(true);
    }
    let abs_start = start + lo;
    let abs_end = start + hi;
    if abs_end - abs_start < 3 {
        return None;
    }
    Some(VZone {
        start_idx: abs_start,
        end_idx: abs_end,
        profile: measured.slice(abs_start..abs_end),
    })
}

fn fit_vzone(vzone: &VZone) -> Result<(Option<QuadraticFit>, f64, f64), DetectError> {
    fit_vzone_with(vzone, &mut Vec::new(), &mut Vec::new())
}

fn fit_vzone_with(
    vzone: &VZone,
    unwrapped_buf: &mut Vec<f64>,
    points_buf: &mut Vec<(f64, f64)>,
) -> Result<(Option<QuadraticFit>, f64, f64), DetectError> {
    // Fit over unwrapped values so a bottom that dips below 0 (and wraps to
    // ~2π) does not destroy the parabola.
    let samples = vzone.profile.samples();
    crate::profile::unwrap_phases_into(samples, unwrapped_buf);
    points_buf.clear();
    points_buf.extend(samples.iter().zip(unwrapped_buf.iter()).map(|(s, &u)| (s.time_s, u)));
    let points = &points_buf[..];
    // When the quadratic fit cannot place the nadir, fall back to the raw
    // minimum-phase sample. An empty or degenerate V-zone has no such
    // sample: that is a detection error, not "the nadir is at index 0" —
    // the seed implementation fabricated exactly that.
    let fallback = || -> Result<(f64, f64), DetectError> {
        let idx = vzone.profile.argmin_phase().ok_or(DetectError::EmptyVZone)?;
        let s = vzone.profile.samples()[idx];
        Ok((s.time_s, s.phase_rad))
    };
    match QuadraticFit::fit(points) {
        Some(fit) if fit.is_minimum() => {
            let t_min = samples.first().map(|s| s.time_s).unwrap_or(0.0);
            let t_max = samples.last().map(|s| s.time_s).unwrap_or(0.0);
            match fit.vertex_time() {
                Some(vt) if vt >= t_min && vt <= t_max => {
                    let value = fit.vertex_value().unwrap_or_else(|| fit.evaluate(vt));
                    Ok((Some(fit), vt, wrap_phase(value)))
                }
                _ => {
                    let (t, p) = fallback()?;
                    Ok((Some(fit), t, p))
                }
            }
        }
        other => {
            let (t, p) = fallback()?;
            Ok((other, t, p))
        }
    }
}

/// Reusable per-worker state for V-zone detection: the DTW arena, the
/// measured profile's segment representation, and the offset-candidate
/// hint carried from the previous detection.
///
/// One scratch serves any number of sequential detections; give each
/// worker thread its own. All buffers grow to the largest profile seen
/// and are then reused, so a warmed-up scratch allocates nothing per tag
/// on the DTW side.
#[derive(Debug, Default)]
pub struct DetectScratch {
    dtw: DtwScratch,
    measured_seg: SegmentedProfile,
    measured_feat: SegmentFeatures,
    /// Candidate trial order of the current detection.
    order: Vec<usize>,
    /// Per-candidate outcomes of the most recent lockstep screen.
    outcomes: Vec<ScreenOutcome>,
    /// `(normalised cost, candidate)` pairs that beat the running best.
    survivors: Vec<(f64, usize)>,
    /// Per-candidate abandon limits of the lockstep screen.
    limits: Vec<f64>,
    /// Reusable buffer for the median-interval selection.
    gaps: Vec<f64>,
    /// Working buffers for V-zone refinement and fitting.
    work_a: Vec<f64>,
    work_b: Vec<f64>,
    points: Vec<(f64, f64)>,
    /// The most recently used reference bank, keyed by its quantised
    /// interval bits — skips the shared cache's lock when consecutive
    /// tags share a sampling interval (the common case within one sweep).
    last_bank: Option<(u64, Arc<ReferenceBank>)>,
    /// The offset candidate that won the previous detection. Tags of one
    /// sweep share the reader's hardware offset, so trying last time's
    /// winner first makes the early-abandon bound tight immediately and
    /// the remaining candidates cheap to discard. The final result does
    /// not depend on the trial order (ties break on the candidate index).
    hint: Option<usize>,
    /// Monotonic bank-cache counters for the lookups performed *through
    /// this scratch* (the `last_bank` short-circuit counts as a hit).
    /// Unlike the shared cache's global atomics, these see exactly one
    /// caller, so snapshot deltas around a request are exact even while
    /// concurrent requests hammer the same cache.
    bank_stats: BankCacheStats,
}

impl DetectScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        DetectScratch::default()
    }

    /// A snapshot of this scratch's bank-cache counters: every reference
    /// bank this scratch resolved, hit or built. Counters only grow;
    /// subtract snapshots with [`BankCacheStats::since`] to attribute a
    /// run's lookups exactly, even under concurrency (no other thread can
    /// touch a `&mut` scratch).
    pub fn bank_stats(&self) -> BankCacheStats {
        self.bank_stats
    }
}

/// Configuration and state of the paper's DTW-based V-zone detector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VZoneDetector {
    /// Nominal sweep geometry used to generate the reference profile.
    pub reference_params: ReferenceProfileParams,
    /// Segmentation window `w` in samples (the paper settles on 5).
    pub window: usize,
    /// Number of candidate hardware phase offsets tried when matching the
    /// reference (the measured profile is shifted by the unknown `μ`).
    pub offset_candidates: usize,
    /// Minimum number of samples a profile must have to be processed.
    pub min_samples: usize,
    /// Minimum number of samples the detected V-zone must contain.
    pub min_vzone_samples: usize,
    /// Gap penalty (rad/s of warped time) applied to the segmented DTW so
    /// the alignment cannot collapse onto a single wide-range segment.
    pub gap_penalty_per_second: f64,
}

impl VZoneDetector {
    /// Creates a detector with the paper's defaults (`w = 5`, 4-period
    /// reference, 8 offset candidates, exact DTW).
    pub fn new(reference_params: ReferenceProfileParams) -> Self {
        VZoneDetector {
            reference_params,
            window: 5,
            offset_candidates: 8,
            min_samples: 12,
            min_vzone_samples: 5,
            gap_penalty_per_second: 0.5,
        }
    }

    /// Overrides the segmentation window.
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// Overrides the number of reference phase offsets tried.
    pub fn with_offset_candidates(mut self, candidates: usize) -> Self {
        self.offset_candidates = candidates.max(1);
        self
    }

    /// The reference sampling interval used for a measured profile: its
    /// median sample interval, clamped to a sane range and quantised onto
    /// a coarse grid (step ≲ 10 % of the value) so profiles read during
    /// the same sweep share a handful of [`ReferenceBank`] cache entries.
    pub fn reference_interval(&self, measured: &PhaseProfile) -> Option<f64> {
        // Same estimator as the hot path in `detect_cached`, so a bank
        // pre-built from this interval is the one detection would choose.
        Some(quantize_interval(median_interval_with(measured, &mut Vec::new())?))
    }

    /// Detects the V-zone in a measured profile. Returns `Ok(None)` when
    /// the profile is too short or no acceptable match is found, and
    /// `Err` when the profile itself is malformed (see [`DetectError`]).
    ///
    /// This is the convenience entry point: it builds a throwaway
    /// reference bank and scratch per call. Callers processing many
    /// profiles should hold a [`ReferenceBankCache`] and a
    /// [`DetectScratch`] and use [`detect_cached`](Self::detect_cached),
    /// which amortises the reference construction across tags and
    /// performs no per-tag DTW allocations.
    pub fn detect(&self, measured: &PhaseProfile) -> Result<Option<VZoneDetection>, DetectError> {
        self.detect_cached(measured, &ReferenceBankCache::new(), &mut DetectScratch::new())
    }

    /// [`detect`](Self::detect) with shared state: the reference bank is
    /// looked up in (or added to) `cache`, and all per-tag working memory
    /// lives in `scratch`.
    pub fn detect_cached(
        &self,
        measured: &PhaseProfile,
        cache: &ReferenceBankCache,
        scratch: &mut DetectScratch,
    ) -> Result<Option<VZoneDetection>, DetectError> {
        if measured.len() < self.min_samples {
            return Ok(None);
        }
        validate_profile(measured)?;
        let Some(median) = median_interval_with(measured, &mut scratch.gaps) else {
            return Ok(None);
        };
        let interval = quantize_interval(median);
        let key = interval.to_bits();
        let params =
            ReferenceProfileParams { sample_interval_s: interval, ..self.reference_params };
        let bank = match &scratch.last_bank {
            Some((k, bank))
                if *k == key
                    && bank.params == params
                    && bank.window == self.window
                    && bank.offset_candidates == self.offset_candidates.max(1) =>
            {
                scratch.bank_stats.hits += 1;
                bank.clone()
            }
            _ => {
                let Some(bank) = cache.get_or_build_tracked(
                    self.reference_params,
                    self.window,
                    self.offset_candidates,
                    interval,
                    &mut scratch.bank_stats,
                ) else {
                    return Ok(None);
                };
                scratch.last_bank = Some((key, bank.clone()));
                bank
            }
        };
        // The profile was validated above; skip the re-scan.
        self.detect_with_bank_validated(measured, &bank, scratch)
    }

    /// [`detect`](Self::detect) against an explicit precomputed reference
    /// bank.
    pub fn detect_with_bank(
        &self,
        measured: &PhaseProfile,
        bank: &ReferenceBank,
        scratch: &mut DetectScratch,
    ) -> Result<Option<VZoneDetection>, DetectError> {
        if measured.len() < self.min_samples {
            return Ok(None);
        }
        validate_profile(measured)?;
        self.detect_with_bank_validated(measured, bank, scratch)
    }

    /// The detection body, assuming `measured` has already passed the
    /// `min_samples` gate and [`validate_profile`] (every public entry
    /// performs both exactly once).
    fn detect_with_bank_validated(
        &self,
        measured: &PhaseProfile,
        bank: &ReferenceBank,
        scratch: &mut DetectScratch,
    ) -> Result<Option<VZoneDetection>, DetectError> {
        let DetectScratch {
            dtw,
            measured_seg,
            measured_feat,
            hint,
            work_a,
            work_b,
            points,
            order,
            outcomes,
            survivors,
            limits,
            ..
        } = scratch;
        measured_seg.rebuild(measured, self.window);
        if measured_seg.is_empty() {
            return Ok(None);
        }
        measured_feat.refill(measured_seg);
        let samples = measured.samples();
        let ctx = ScreenCtx { detector: self, bank, measured_seg, measured_feat, samples };

        // Find the best-matching offset candidate: the minimum normalised
        // cost over every candidate that passes the matched-range and
        // duration filters, ties resolved to the smaller candidate index.
        // The screen only skips alignments that provably lose (pinned
        // against an exhaustive oracle by the exactness suite).
        let best = ctx.screen(dtw, *hint, order, outcomes, survivors, limits);

        let Some((cost, winner, range)) = best else {
            return Ok(None);
        };
        *hint = Some(winner);
        // Refine the coarse DTW match into a window centred on the nadir;
        // the half-width cap was precomputed by the bank.
        let Some(vzone) = refine_vzone(
            measured,
            range,
            bank.max_half_duration_s,
            self.min_vzone_samples,
            work_a,
            work_b,
        ) else {
            return Ok(None);
        };
        if vzone.profile.len() < self.min_vzone_samples {
            return Ok(None);
        }
        let (fit, nadir_time_s, nadir_phase) = fit_vzone_with(&vzone, work_a, points)?;
        Ok(Some(VZoneDetection {
            vzone,
            fit,
            nadir_time_s,
            nadir_phase,
            match_cost: Some(cost),
            offset_index: Some(winner),
            cap_half_duration_s: bank.max_half_duration_s,
        }))
    }
}

/// The borrowed per-detection state of the candidate screen: the
/// configured detector, the reference bank, and the measured profile's
/// representations.
struct ScreenCtx<'a> {
    detector: &'a VZoneDetector,
    bank: &'a ReferenceBank,
    measured_seg: &'a SegmentedProfile,
    measured_feat: &'a SegmentFeatures,
    samples: &'a [PhaseSample],
}

/// A screening result: `(normalised cost, candidate index, matched
/// sample range)`.
type ScreenBest = Option<(f64, usize, std::ops::Range<usize>)>;

/// The abandon limit of an `n`-segment candidate against the best
/// normalised cost so far: no raw cost `c` with `c / n ≤ best_norm` (as
/// rounded) exceeds it, so the screen never abandons a candidate that
/// ties the best and wins on index. `best_norm · n` alone can round
/// below such a `c`.
fn abandon_limit(best_norm: f64, n: usize) -> f64 {
    best_norm.next_up() * n as f64
}

impl ScreenCtx<'_> {
    /// Runs the full path-recording alignment for candidate `k` and
    /// applies the acceptance filters (V-zone matched range non-empty,
    /// matched span retains a reasonable fraction of the pattern
    /// duration). Returns the normalised cost and matched sample range
    /// on success.
    fn align_candidate(
        &self,
        k: usize,
        dtw: &mut DtwScratch,
    ) -> Option<(f64, std::ops::Range<usize>)> {
        let pattern = &self.bank.patterns[k];
        let n = pattern.features.len();
        let cost = dtw_segmented_features_into(
            &pattern.features,
            self.measured_feat,
            true,
            self.detector.gap_penalty_per_second,
            None,
            dtw,
        )?;
        let normalised_cost = cost / n.max(1) as f64;
        // Which measured samples did the pattern's V-zone segments match?
        // One pass over the warping path.
        let matched_segs = path_matched_range(dtw.path(), pattern.vzone_segments.clone())?;
        let sample_range = self.measured_seg.sample_range(matched_segs);
        if sample_range.is_empty() {
            return None;
        }
        // Reject degenerate matches where the whole pattern collapses
        // into a sliver of the measured profile (e.g. onto a pause
        // plateau): the matched span must retain a reasonable fraction
        // of the pattern duration.
        let samples = self.samples;
        let matched_duration = samples[(sample_range.end - 1).min(samples.len() - 1)].time_s
            - samples[sample_range.start].time_s;
        if matched_duration < 0.3 * pattern.duration_s {
            return None;
        }
        Some((normalised_cost, sample_range))
    }

    /// The candidate screen, in three stages:
    ///
    /// 1. **Trial order** — the previous winner first (tags of one sweep
    ///    share the reader's hardware offset), then the rest in index
    ///    order.
    /// 2. **Seed** — the full path-recording alignment of the first
    ///    acceptable candidate sets the abandon threshold.
    /// 3. **Lockstep screen** — the remaining candidates advance their
    ///    cost tables together ([`dtw_screen_lockstep`]), each abandoning
    ///    once it can no longer match the seed. Survivors are re-aligned
    ///    with path recording in ascending `(cost, index)` order, so the
    ///    result is the minimum normalised cost over every acceptable
    ///    candidate, ties to the smaller index, whatever the trial order.
    fn screen(
        &self,
        dtw: &mut DtwScratch,
        hint: Option<usize>,
        order: &mut Vec<usize>,
        outcomes: &mut Vec<ScreenOutcome>,
        survivors: &mut Vec<(f64, usize)>,
        limits: &mut Vec<f64>,
    ) -> ScreenBest {
        let candidates = self.bank.patterns.len();
        let first = hint.filter(|h| *h < candidates).unwrap_or(0);
        order.clear();
        order.push(first);
        order.extend((0..candidates).filter(|k| *k != first));

        let mut pos = 0usize;
        let mut best: ScreenBest = None;
        while pos < order.len() {
            let k = order[pos];
            pos += 1;
            if let Some((norm, range)) = self.align_candidate(k, dtw) {
                best = Some((norm, k, range));
                break;
            }
        }
        let (mut best_norm, mut best_k, mut best_range) = best?;
        let remaining = &order[pos..];
        if remaining.is_empty() {
            return Some((best_norm, best_k, best_range));
        }

        // Completed costs are bit-identical to the path kernel's, so the
        // survivors can be ranked before any of them is re-aligned.
        let refs: Vec<&SegmentFeatures> =
            remaining.iter().map(|&k| &self.bank.patterns[k].features).collect();
        limits.clear();
        limits.extend(refs.iter().map(|f| abandon_limit(best_norm, f.len())));
        dtw_screen_lockstep(
            &refs,
            self.measured_feat,
            self.detector.gap_penalty_per_second,
            limits,
            dtw,
            outcomes,
        );
        survivors.clear();
        for (&k, outcome) in remaining.iter().zip(outcomes.iter()) {
            if let Some(cost) = outcome.completed() {
                let n = self.bank.patterns[k].features.len();
                let norm = cost / n.max(1) as f64;
                if norm < best_norm || (norm == best_norm && k < best_k) {
                    survivors.push((norm, k));
                }
            }
        }
        survivors.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for &(norm, k) in survivors.iter() {
            if !(norm < best_norm || (norm == best_norm && k < best_k)) {
                continue;
            }
            if let Some((full_norm, range)) = self.align_candidate(k, dtw) {
                debug_assert!(full_norm == norm);
                (best_norm, best_k, best_range) = (full_norm, k, range);
            }
        }
        Some((best_norm, best_k, best_range))
    }
}

/// The naive alternative: unwrap the whole profile and take the global
/// minimum. Vulnerable to the fragmentary, noisy segments outside the
/// V-zone (the reason the paper uses DTW), but useful as an ablation
/// baseline and as a fallback when no reference geometry is known.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NaiveUnwrapDetector {
    /// Half-width of the window (in samples) taken around the minimum for
    /// the quadratic fit.
    pub half_window: usize,
    /// Minimum number of samples a profile must have to be processed.
    pub min_samples: usize,
}

impl Default for NaiveUnwrapDetector {
    fn default() -> Self {
        NaiveUnwrapDetector { half_window: 15, min_samples: 8 }
    }
}

impl NaiveUnwrapDetector {
    /// Detects the nadir by global unwrapping. Returns `Ok(None)` when the
    /// profile is too short, `Err` when it is malformed (see
    /// [`DetectError`]).
    pub fn detect(&self, measured: &PhaseProfile) -> Result<Option<VZoneDetection>, DetectError> {
        if measured.len() < self.min_samples {
            return Ok(None);
        }
        validate_profile(measured)?;
        let unwrapped = measured.unwrapped_phases();
        let Some(min_idx) =
            unwrapped.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i)
        else {
            return Ok(None);
        };
        let start = min_idx.saturating_sub(self.half_window);
        let end = (min_idx + self.half_window + 1).min(measured.len());
        let vzone = VZone { start_idx: start, end_idx: end, profile: measured.slice(start..end) };
        if vzone.profile.len() < 3 {
            return Ok(None);
        }
        let (fit, nadir_time_s, nadir_phase) = fit_vzone(&vzone)?;
        Ok(Some(VZoneDetection {
            vzone,
            fit,
            nadir_time_s,
            nadir_phase,
            match_cost: None,
            offset_index: None,
            cap_half_duration_s: 0.0,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_phys::{PhaseModel, TWO_PI};

    /// Builds a noise-free measured profile for a tag at `(tag_x, d_perp)`
    /// swept at `speed` over `span_x` metres.
    fn synthetic_profile(
        tag_x: f64,
        d_perp: f64,
        speed: f64,
        span_x: f64,
        dt: f64,
    ) -> PhaseProfile {
        let model = PhaseModel::ideal(920.625e6);
        let mut pairs = Vec::new();
        let mut t = 0.0;
        while speed * t <= span_x {
            let x = speed * t;
            let d = ((x - tag_x).powi(2) + d_perp * d_perp).sqrt();
            pairs.push((t, model.phase_at_distance(d)));
            t += dt;
        }
        PhaseProfile::from_pairs(&pairs)
    }

    fn wavelength() -> f64 {
        PhaseModel::ideal(920.625e6).wavelength()
    }

    #[test]
    fn abandon_limit_never_cuts_a_candidate_that_ties_the_best() {
        // `c / n * n` rounds below `c` for these costs, so a limit of
        // `best_norm * n` would abandon a candidate whose normalised cost
        // equals the best and that wins the tie on its smaller index.
        for (c, n) in [(1.8807945204873528f64, 30usize), (26.92855499893484, 47)] {
            let best_norm = c / n as f64;
            assert!(best_norm * (n as f64) < c);
            assert!(abandon_limit(best_norm, n) >= c);
        }
        // Soundness over a spread of costs and lengths.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let c = (x >> 11) as f64 / (1u64 << 53) as f64 * 50.0;
            let n = 1 + (x % 97) as usize;
            assert!(abandon_limit(c / n as f64, n) >= c, "c = {c}, n = {n}");
        }
    }

    #[test]
    fn quadratic_fit_recovers_exact_parabola() {
        let points: Vec<(f64, f64)> = (0..20)
            .map(|i| {
                let t = i as f64 * 0.1;
                (t, 2.0 * (t - 0.7) * (t - 0.7) + 0.3)
            })
            .collect();
        let fit = QuadraticFit::fit(&points).unwrap();
        assert!(fit.is_minimum());
        assert!((fit.vertex_time().unwrap() - 0.7).abs() < 1e-9);
        assert!((fit.vertex_value().unwrap() - 0.3).abs() < 1e-9);
        assert!((fit.evaluate(0.0) - (2.0 * 0.49 + 0.3)).abs() < 1e-9);
    }

    #[test]
    fn quadratic_fit_rejects_degenerate_input() {
        assert!(QuadraticFit::fit(&[(0.0, 1.0), (1.0, 2.0)]).is_none());
        // All points at the same t: singular system.
        assert!(QuadraticFit::fit(&[(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)]).is_none());
    }

    #[test]
    fn quadratic_fit_handles_offset_time_axis() {
        // Large absolute times (seconds into a sweep) must not break the fit.
        let points: Vec<(f64, f64)> = (0..30)
            .map(|i| {
                let t = 1000.0 + i as f64 * 0.05;
                (t, 0.8 * (t - 1000.9) * (t - 1000.9) + 1.2)
            })
            .collect();
        let fit = QuadraticFit::fit(&points).unwrap();
        assert!((fit.vertex_time().unwrap() - 1000.9).abs() < 1e-6);
        assert!((fit.vertex_value().unwrap() - 1.2).abs() < 1e-6);
    }

    #[test]
    fn detector_finds_nadir_of_clean_profile() {
        // Tag at x = 1.0 m, perpendicular distance 0.3 m, sweep at 0.1 m/s
        // over 2 m: the nadir is at t = 10 s.
        let profile = synthetic_profile(1.0, 0.3, 0.1, 2.0, 0.03);
        let params = ReferenceProfileParams::new(0.1, 0.3, wavelength());
        let detector = VZoneDetector::new(params);
        let detection =
            detector.detect(&profile).expect("valid profile").expect("V-zone must be found");
        assert!(
            (detection.nadir_time_s - 10.0).abs() < 0.6,
            "nadir at {} expected near 10.0",
            detection.nadir_time_s
        );
        // The V-zone must be a proper sub-range of the profile.
        assert!(detection.vzone.start_idx > 0);
        assert!(detection.vzone.end_idx < profile.len());
        assert!(detection.match_cost.is_some());
    }

    #[test]
    fn detector_orders_two_tags_along_x() {
        let p1 = synthetic_profile(0.8, 0.3, 0.1, 2.0, 0.03);
        let p2 = synthetic_profile(1.0, 0.3, 0.1, 2.0, 0.03);
        let params = ReferenceProfileParams::new(0.1, 0.3, wavelength());
        let detector = VZoneDetector::new(params);
        let d1 = detector.detect(&p1).unwrap().unwrap();
        let d2 = detector.detect(&p2).unwrap().unwrap();
        assert!(d1.nadir_time_s < d2.nadir_time_s);
        // 20 cm at 0.1 m/s = 2 s apart.
        assert!(((d2.nadir_time_s - d1.nadir_time_s) - 2.0).abs() < 1.0);
    }

    #[test]
    fn detector_separates_tags_along_y_via_nadir_phase() {
        // Tag farther from the trajectory has a larger minimum distance and
        // hence a larger bottom phase — as long as both perpendicular
        // distances fall inside the same λ/2 phase period (here both lie in
        // the 0.163–0.326 m window for λ ≈ 0.326 m).
        let near = synthetic_profile(1.0, 0.28, 0.1, 2.0, 0.03);
        let far = synthetic_profile(1.0, 0.32, 0.1, 2.0, 0.03);
        let params = ReferenceProfileParams::new(0.1, 0.3, wavelength());
        let detector = VZoneDetector::new(params);
        let d_near = detector.detect(&near).unwrap().unwrap();
        let d_far = detector.detect(&far).unwrap().unwrap();
        assert!(
            d_far.nadir_phase > d_near.nadir_phase,
            "far = {}, near = {}",
            d_far.nadir_phase,
            d_near.nadir_phase
        );
    }

    #[test]
    fn detector_survives_missing_samples_and_offset() {
        // Remove a third of the samples and add a constant hardware offset.
        let clean = synthetic_profile(1.0, 0.3, 0.1, 2.0, 0.03);
        let pairs: Vec<(f64, f64)> = clean
            .samples()
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 != 0)
            .map(|(_, s)| (s.time_s, wrap_phase(s.phase_rad + 1.1)))
            .collect();
        let degraded = PhaseProfile::from_pairs(&pairs);
        let params = ReferenceProfileParams::new(0.1, 0.3, wavelength());
        let detection = VZoneDetector::new(params)
            .detect(&degraded)
            .expect("valid profile")
            .expect("must still detect");
        assert!((detection.nadir_time_s - 10.0).abs() < 1.0, "nadir {}", detection.nadir_time_s);
    }

    #[test]
    fn detector_rejects_tiny_profiles() {
        let params = ReferenceProfileParams::new(0.1, 0.3, wavelength());
        let detector = VZoneDetector::new(params);
        let tiny = PhaseProfile::from_pairs(&[(0.0, 1.0), (0.1, 1.1), (0.2, 1.2)]);
        assert!(detector.detect(&tiny).unwrap().is_none());
        assert!(detector.detect(&PhaseProfile::new()).unwrap().is_none());
    }

    #[test]
    fn naive_detector_finds_nadir_of_clean_profile() {
        let profile = synthetic_profile(1.0, 0.3, 0.1, 2.0, 0.03);
        let detection = NaiveUnwrapDetector::default().detect(&profile).unwrap().unwrap();
        assert!((detection.nadir_time_s - 10.0).abs() < 0.6);
        assert!(detection.match_cost.is_none());
    }

    #[test]
    fn coarse_representation_has_k_values_in_range() {
        let profile = synthetic_profile(1.0, 0.3, 0.1, 2.0, 0.03);
        let params = ReferenceProfileParams::new(0.1, 0.3, wavelength());
        let detection = VZoneDetector::new(params).detect(&profile).unwrap().unwrap();
        let coarse = detection.coarse_representation(6).unwrap();
        assert_eq!(coarse.len(), 6);
        for v in &coarse {
            assert!((0.0..TWO_PI).contains(v));
        }
        // Symmetric V-zone: the first and last segment means are the
        // largest, the central ones the smallest.
        let mid = coarse[2].min(coarse[3]);
        assert!(coarse[0] > mid && coarse[5] > mid);
        // Too many segments for the sample count is rejected.
        assert!(detection.coarse_representation(10_000).is_none());
    }

    #[test]
    fn nadir_on_the_wrap_boundary_is_still_detected() {
        // Regression: when the bottom phase lands exactly on the 0/2π
        // boundary (θ_nadir + hardware offset ≈ 2π), the samples near the
        // nadir wrap back and forth across the boundary. The refinement
        // used to mistake those jitter wraps for the V-zone edge,
        // truncate the window below the fittable minimum, and silently
        // report the tag undetectable — for a hair-thin band of offsets
        // (±0.001 rad around the critical value) surrounded by offsets
        // that detect fine.
        let d_perp = 0.3f64;
        let wl = 0.326f64;
        let speed = 0.1f64;
        // θ_nadir = wrap(4π·d⊥/λ) ≈ 5.283 for this geometry; an offset of
        // 2π − θ_nadir ≈ 1.0003 puts the bottom exactly on the boundary.
        let theta_nadir = rfid_phys::wrap_phase(2.0 * TWO_PI * d_perp / wl);
        let critical_mu = TWO_PI - theta_nadir;
        let detector = VZoneDetector::new(ReferenceProfileParams::new(speed, d_perp, wl));
        for mu in [critical_mu - 1e-3, critical_mu, critical_mu + 1e-3] {
            let pairs: Vec<(f64, f64)> = (0..600)
                .map(|i| {
                    let t = i as f64 * 0.05;
                    let d = ((speed * t - 1.0f64).powi(2) + d_perp * d_perp).sqrt();
                    (t, TWO_PI * 2.0 * d / wl + mu)
                })
                .collect();
            let profile = PhaseProfile::from_pairs(&pairs);
            let detection = detector
                .detect(&profile)
                .expect("valid profile")
                .unwrap_or_else(|| panic!("boundary nadir undetected at mu = {mu}"));
            assert!(
                (detection.nadir_time_s - 10.0).abs() < 0.6,
                "mu = {mu}: nadir at {}",
                detection.nadir_time_s
            );
        }
    }

    #[test]
    fn non_finite_samples_are_rejected_with_a_typed_error() {
        // Regression: profiles that bypass `from_pairs` sanitisation (e.g.
        // deserialized recordings) used to panic inside the gap-median
        // selection on NaN timestamps. Both detectors now reject them with
        // a typed error naming the offending sample.
        use crate::profile::PhaseSample;
        let mut samples: Vec<PhaseSample> = (0..40)
            .map(|i| PhaseSample { time_s: i as f64 * 0.05, phase_rad: 1.0 + 0.01 * i as f64 })
            .collect();
        samples[7].time_s = f64::NAN;
        let malformed = PhaseProfile::from_samples(samples.clone());
        let params = ReferenceProfileParams::new(0.1, 0.3, wavelength());
        assert_eq!(
            VZoneDetector::new(params).detect(&malformed),
            Err(DetectError::NonFiniteSample { index: 7 })
        );
        assert_eq!(
            NaiveUnwrapDetector::default().detect(&malformed),
            Err(DetectError::NonFiniteSample { index: 7 })
        );
        samples[7].time_s = 0.35;
        samples[3].phase_rad = f64::INFINITY;
        let malformed = PhaseProfile::from_samples(samples);
        assert_eq!(
            VZoneDetector::new(params).detect(&malformed),
            Err(DetectError::NonFiniteSample { index: 3 })
        );
        // The error is human readable.
        assert!(DetectError::NonFiniteSample { index: 3 }.to_string().contains("sample 3"));
        assert!(DetectError::EmptyVZone.to_string().contains("V-zone"));
    }

    #[test]
    fn empty_vzone_fallback_is_an_error_not_index_zero() {
        // Regression for the `argmin_phase().unwrap_or(0)` fabrication: a
        // degenerate V-zone must surface `DetectError::EmptyVZone` instead
        // of inventing a nadir at the first sample.
        let vzone = VZone { start_idx: 0, end_idx: 0, profile: PhaseProfile::from_pairs(&[]) };
        assert_eq!(fit_vzone(&vzone), Err(DetectError::EmptyVZone));
    }

    #[test]
    fn window_size_affects_detection_but_small_windows_stay_accurate() {
        let profile = synthetic_profile(1.0, 0.3, 0.1, 2.0, 0.03);
        let params = ReferenceProfileParams::new(0.1, 0.3, wavelength());
        for w in [1usize, 3, 5] {
            let detector = VZoneDetector::new(params).with_window(w);
            let detection = detector
                .detect(&profile)
                .expect("valid profile")
                .expect("detection with small window");
            assert!(
                (detection.nadir_time_s - 10.0).abs() < 0.8,
                "w={w} nadir={}",
                detection.nadir_time_s
            );
        }
    }
}
