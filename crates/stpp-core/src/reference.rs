//! Reference phase profiles.
//!
//! "Given a layout of tags and the reader, their relative positions and the
//! reader moving speed, assuming the speed is steady, we can calculate the
//! phase profile of each tag, which we call the reference phase profile."
//!
//! The reference profile is the analytic phase a tag at perpendicular
//! distance `d⊥` from the reader trajectory would produce while the reader
//! moves past it at constant speed `v`:
//!
//! ```text
//! θ(t) = wrap( 2π · 2·√((v·t − x₀)² + d⊥²) / λ )
//! ```
//!
//! The profile is generated symmetric around the perpendicular point and
//! truncated to a configurable number of phase periods (the paper found
//! that >97 % of measured profiles contain 4 partial or complete periods
//! and uses a 4-period reference as the default). The V-zone — the central
//! period that contains the nadir and does not wrap — is known by
//! construction, which is what lets DTW alignment transfer it onto a
//! measured profile.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rfid_phys::{PhaseModel, TWO_PI};
use serde::{Deserialize, Serialize};

use crate::dtw::SegmentFeatures;
use crate::profile::PhaseProfile;
use crate::segment::SegmentedProfile;

/// Parameters describing the nominal sweep geometry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReferenceProfileParams {
    /// Nominal reader (or belt) speed, m/s.
    pub speed_mps: f64,
    /// Perpendicular distance from the reader trajectory to the tag,
    /// metres. In deployment this is the rough reader-to-shelf distance
    /// (0.3 m in the paper's library setup).
    pub perpendicular_distance_m: f64,
    /// Carrier wavelength, metres.
    pub wavelength_m: f64,
    /// Sampling interval of the generated profile, seconds.
    pub sample_interval_s: f64,
    /// Number of phase periods the profile should contain (V-zone plus
    /// `periods − 1` flanking periods; the paper defaults to 4).
    pub periods: usize,
}

impl ReferenceProfileParams {
    /// The paper's default: 4 periods, 20 ms sampling.
    pub fn new(speed_mps: f64, perpendicular_distance_m: f64, wavelength_m: f64) -> Self {
        ReferenceProfileParams {
            speed_mps,
            perpendicular_distance_m,
            wavelength_m,
            sample_interval_s: 0.02,
            periods: 4,
        }
    }

    /// Overrides the number of periods.
    pub fn with_periods(mut self, periods: usize) -> Self {
        self.periods = periods.max(1);
        self
    }

    /// Overrides the sampling interval.
    pub fn with_sample_interval(mut self, interval_s: f64) -> Self {
        self.sample_interval_s = interval_s;
        self
    }

    fn is_valid(&self) -> bool {
        self.speed_mps > 0.0
            && self.speed_mps.is_finite()
            && self.perpendicular_distance_m > 0.0
            && self.wavelength_m > 0.0
            && self.sample_interval_s > 0.0
            && self.periods >= 1
    }
}

/// An analytic reference profile with its V-zone located by construction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReferenceProfile {
    /// The profile samples. Time 0 corresponds to the perpendicular point.
    pub profile: PhaseProfile,
    /// Index of the first sample inside the V-zone.
    pub vzone_start: usize,
    /// Index one past the last sample inside the V-zone.
    pub vzone_end: usize,
    /// Index of the nadir sample (minimum distance / phase).
    pub nadir: usize,
    /// The parameters the profile was generated from.
    pub params: ReferenceProfileParams,
}

impl ReferenceProfile {
    /// Generates the reference profile. Returns `None` if the parameters
    /// are degenerate (non-positive speed, distance, wavelength, interval
    /// or zero periods).
    pub fn generate(params: ReferenceProfileParams) -> Option<Self> {
        if !params.is_valid() {
            return None;
        }
        let model = PhaseModel::ideal(rfid_phys::constants::SPEED_OF_LIGHT / params.wavelength_m);
        let d_perp = params.perpendicular_distance_m;
        let lambda = params.wavelength_m;

        // One phase period corresponds to a one-way distance increase of λ/2
        // (the round trip doubles the path). The V-zone ends where the phase
        // first wraps, i.e. after the distance has grown by
        //   Δd_wrap = (2π − θ_nadir) · λ / 4π
        // beyond the perpendicular distance. Each additional period adds a
        // further λ/2. The profile extends (periods − 1)/2 extra periods on
        // each side of the V-zone so it contains `periods` periods in total.
        let theta_nadir = model.phase_at_distance(d_perp);
        let delta_wrap =
            (std::f64::consts::TAU - theta_nadir) * lambda / (2.0 * std::f64::consts::TAU);
        let extra_periods = (params.periods.saturating_sub(1)) as f64 / 2.0;
        let max_extra = delta_wrap + extra_periods * lambda / 2.0;
        let x_max = ((d_perp + max_extra).powi(2) - d_perp * d_perp).sqrt();
        let t_max = x_max / params.speed_mps;

        let mut pairs = Vec::new();
        let mut t = -t_max;
        while t <= t_max + 1e-12 {
            let x = params.speed_mps * t;
            let dist = (x * x + d_perp * d_perp).sqrt();
            pairs.push((t, model.phase_at_distance(dist)));
            t += params.sample_interval_s;
        }
        let profile = PhaseProfile::from_pairs(&pairs);
        if profile.len() < 5 {
            return None;
        }

        // Locate the nadir (closest sample to t = 0) and the V-zone (the
        // samples between the first wrap on either side of the nadir).
        let times = profile.times();
        let nadir = times
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).expect("finite times"))
            .map(|(i, _)| i)
            .expect("profile has >= 5 samples, checked above");
        let safe_wrap = (delta_wrap - 1e-6).max(1e-6);
        let x_vzone = ((d_perp + safe_wrap).powi(2) - d_perp * d_perp).sqrt();
        let t_vzone = x_vzone / params.speed_mps;
        let vzone_start = times.partition_point(|&t| t < -t_vzone);
        let vzone_end = times.partition_point(|&t| t <= t_vzone);

        Some(ReferenceProfile { profile, vzone_start, vzone_end, nadir, params })
    }

    /// The duration of the V-zone, seconds.
    pub fn vzone_duration(&self) -> f64 {
        let times = self.profile.times();
        if self.vzone_end > self.vzone_start && self.vzone_end <= times.len() {
            times[self.vzone_end - 1] - times[self.vzone_start]
        } else {
            0.0
        }
    }

    /// The phase value at the nadir (the V-zone bottom).
    pub fn nadir_phase(&self) -> f64 {
        self.profile.samples()[self.nadir].phase_rad
    }

    /// The V-zone samples as a sub-profile.
    pub fn vzone_profile(&self) -> PhaseProfile {
        self.profile.slice(self.vzone_start..self.vzone_end)
    }

    /// Applies a constant phase offset (hardware μ) to every sample,
    /// returning a new profile. Used when matching against hardware whose
    /// offsets are roughly known, and by the multi-offset search in the
    /// V-zone detector.
    pub fn with_phase_offset(&self, offset_rad: f64) -> ReferenceProfile {
        let pairs: Vec<(f64, f64)> =
            self.profile.samples().iter().map(|s| (s.time_s, s.phase_rad + offset_rad)).collect();
        ReferenceProfile {
            profile: PhaseProfile::from_pairs(&pairs),
            vzone_start: self.vzone_start,
            vzone_end: self.vzone_end,
            nadir: self.nadir,
            params: self.params,
        }
    }
}

/// One precomputed hardware-offset candidate of a [`ReferenceBank`]: the
/// segmented DTW pattern (reference V-zone plus margin) with a constant
/// phase offset applied.
#[derive(Debug, Clone, PartialEq)]
pub struct OffsetPattern {
    /// The constant phase offset applied to the reference, radians.
    pub offset_rad: f64,
    /// The segmented pattern at this offset.
    pub segments: SegmentedProfile,
    /// The pattern's segment features, pre-flattened for the DTW kernel.
    pub features: SegmentFeatures,
    /// The pattern's segment range covering the reference V-zone samples.
    pub vzone_segments: std::ops::Range<usize>,
    /// Time span of the pattern, seconds.
    pub duration_s: f64,
}

/// Everything the V-zone detector needs from a reference profile,
/// precomputed once per (geometry, sampling interval) and shared across
/// every tag and worker thread.
///
/// The seed implementation regenerated the reference and re-shifted +
/// re-segmented it for each of the 8 offset candidates *per tag* — at 300
/// tags that is 2400 profile rebuilds of identical data. The bank
/// generates the reference once, derives each offset candidate
/// analytically with
/// [`SegmentedProfile::build_with_offset`] (the shift only moves the wrap
/// split points; no sample vector is rebuilt), and precomputes the
/// pattern metadata (V-zone segment range, duration, refinement cap) the
/// detector needs per match.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceBank {
    /// The parameters the bank was generated from (including the sampling
    /// interval actually used).
    pub params: ReferenceProfileParams,
    /// Segmentation window `w` used for the patterns.
    pub window: usize,
    /// Number of offset candidates the bank was built for (patterns whose
    /// segmentation came out empty are dropped, so `patterns` may be
    /// shorter).
    pub offset_candidates: usize,
    /// One pattern per hardware-offset candidate.
    pub patterns: Vec<OffsetPattern>,
    /// Cap on the half-width of the refined V-zone window, seconds: the
    /// time the reader needs to add a quarter wavelength of one-way path
    /// beyond the perpendicular distance.
    pub max_half_duration_s: f64,
}

impl ReferenceBank {
    /// Builds the bank: generates the reference, slices the DTW pattern
    /// (V-zone plus a margin of a quarter V-zone on each side) and
    /// segments it at every offset candidate. Returns `None` when the
    /// parameters are degenerate or the pattern is empty.
    pub fn build(
        params: ReferenceProfileParams,
        window: usize,
        offset_candidates: usize,
    ) -> Option<ReferenceBank> {
        let reference = ReferenceProfile::generate(params)?;
        // The DTW pattern is the reference V-zone plus a small margin on
        // each side: the V-zone is the distinctive, wide feature; dragging
        // several steep flanking periods into the subsequence match only
        // dilutes it (and the flanks may not even fit inside the reading
        // zone).
        let vzone_len = reference.vzone_end.saturating_sub(reference.vzone_start);
        let margin = (vzone_len / 4).max(2);
        let pat_start = reference.vzone_start.saturating_sub(margin);
        let pat_end = (reference.vzone_end + margin).min(reference.profile.len());
        let pattern_profile = reference.profile.slice(pat_start..pat_end);
        if pattern_profile.is_empty() {
            return None;
        }
        let vzone_in_pattern =
            (reference.vzone_start - pat_start)..(reference.vzone_end - pat_start);
        let duration_s = pattern_profile.duration();

        let candidates = offset_candidates.max(1);
        let mut patterns = Vec::with_capacity(candidates);
        for k in 0..candidates {
            let offset_rad = TWO_PI * k as f64 / candidates as f64;
            let segments =
                SegmentedProfile::build_with_offset(&pattern_profile, window, offset_rad);
            if segments.is_empty() {
                continue;
            }
            let vzone_segments =
                segments.segments_covering(vzone_in_pattern.start, vzone_in_pattern.end);
            let features = SegmentFeatures::from_segmented(&segments);
            patterns.push(OffsetPattern {
                offset_rad,
                segments,
                features,
                vzone_segments,
                duration_s,
            });
        }
        if patterns.is_empty() {
            return None;
        }

        let d = params.perpendicular_distance_m;
        let lambda = params.wavelength_m;
        let half_x = ((d + lambda / 4.0).powi(2) - d * d).sqrt();
        let max_half_duration_s = (half_x / params.speed_mps).max(3.0 * params.sample_interval_s);
        Some(ReferenceBank {
            params,
            window,
            offset_candidates: candidates,
            patterns,
            max_half_duration_s,
        })
    }
}

/// Cache key: (sampling-interval bits, window, offset candidates).
type BankKey = (u64, usize, usize);

/// A concurrent cache of [`ReferenceBank`]s keyed by sampling interval,
/// segmentation window, and offset-candidate count. One cache is shared
/// by every tag of a localization run (and every worker of a
/// [`BatchLocalizer`](crate::batch::BatchLocalizer)): tags read during
/// the same sweep have near-identical median sampling intervals, so
/// after the first few tags every detection is a pure lookup.
///
/// The cache assumes one sweep geometry: entries are not keyed by the
/// remaining [`ReferenceProfileParams`] fields, so use a separate cache
/// per distinct geometry base. A per-run pipeline creates one implicitly;
/// a serving layer holds one per geometry process-wide behind an `Arc`
/// (see `stpp-serve`) so repeated sweeps skip bank construction entirely.
#[derive(Debug, Default)]
pub struct ReferenceBankCache {
    banks: Mutex<HashMap<BankKey, Option<Arc<ReferenceBank>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    builds: AtomicU64,
}

/// Monotonic instrumentation counters of a [`ReferenceBankCache`].
///
/// `hits`/`misses` count cache lookups (note that the detection scratch
/// short-circuits the cache when consecutive tags share a sampling
/// interval, so lookups undercount detections); `builds` counts actual
/// [`ReferenceBank::build`] invocations — the expensive event a warm
/// serving cache exists to avoid. Snapshot before and after a request and
/// subtract with [`BankCacheStats::since`] for per-request numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BankCacheStats {
    /// Lookups that found a memoised bank (or memoised failure).
    pub hits: u64,
    /// Lookups that found nothing and triggered a build.
    pub misses: u64,
    /// Reference-bank constructions performed (including failed builds of
    /// degenerate parameters, which memoise as failures).
    pub builds: u64,
}

impl BankCacheStats {
    /// The counter deltas accumulated since an `earlier` snapshot.
    pub fn since(self, earlier: BankCacheStats) -> BankCacheStats {
        BankCacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            builds: self.builds.saturating_sub(earlier.builds),
        }
    }
}

impl ReferenceBankCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        ReferenceBankCache::default()
    }

    /// Creates an empty cache already wrapped for process-wide sharing
    /// across runs, threads, and requests.
    pub fn shared() -> Arc<Self> {
        Arc::new(ReferenceBankCache::default())
    }

    /// Returns the bank for `interval_s`, building (and memoising) it on
    /// first use. `base` carries the sweep geometry; its sampling interval
    /// is overridden by `interval_s`. Degenerate parameters memoise as
    /// `None` so they are not retried per tag.
    pub fn get_or_build(
        &self,
        base: ReferenceProfileParams,
        window: usize,
        offset_candidates: usize,
        interval_s: f64,
    ) -> Option<Arc<ReferenceBank>> {
        self.get_or_build_tracked(
            base,
            window,
            offset_candidates,
            interval_s,
            &mut Default::default(),
        )
    }

    /// [`get_or_build`](Self::get_or_build) that additionally records the
    /// lookup in a caller-owned counter set. The shared cache's global
    /// atomics observe every caller interleaved; `local` observes only the
    /// calls made through it — which is what makes per-request counter
    /// deltas **exact** under concurrency (thread each worker's
    /// [`DetectScratch`](crate::vzone::DetectScratch) counters through
    /// here and sum them per request, instead of snapshotting the global
    /// counters around a request and attributing every concurrent caller's
    /// traffic to it).
    pub fn get_or_build_tracked(
        &self,
        base: ReferenceProfileParams,
        window: usize,
        offset_candidates: usize,
        interval_s: f64,
        local: &mut BankCacheStats,
    ) -> Option<Arc<ReferenceBank>> {
        let key = (interval_s.to_bits(), window, offset_candidates);
        if let Some(bank) = self.banks.lock().expect("bank cache poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            local.hits += 1;
            return bank.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        local.misses += 1;
        // Build outside the lock: bank construction is the expensive part,
        // and a duplicate build by a racing worker is harmless (the first
        // insertion wins below, keeping all workers on one instance).
        self.builds.fetch_add(1, Ordering::Relaxed);
        local.builds += 1;
        let params = ReferenceProfileParams { sample_interval_s: interval_s, ..base };
        let built = ReferenceBank::build(params, window, offset_candidates).map(Arc::new);
        self.banks.lock().expect("bank cache poisoned").entry(key).or_insert(built).clone()
    }

    /// A snapshot of the cache's instrumentation counters.
    pub fn stats(&self) -> BankCacheStats {
        BankCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct banks (including memoised failures) in the cache.
    pub fn len(&self) -> usize {
        self.banks.lock().expect("bank cache poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Checks that phases fall/rise symmetrically: helper shared by tests.
/// Uses the circular phase distance so a wrap on one side of the nadir a
/// sample earlier than on the other does not count as asymmetry.
#[cfg(test)]
fn is_symmetric_about_nadir(profile: &ReferenceProfile) -> bool {
    let phases = profile.profile.phases();
    let n = phases.len();
    let nadir = profile.nadir;
    let span = nadir.min(n - 1 - nadir);
    (1..span).all(|k| rfid_phys::phase::phase_distance(phases[nadir - k], phases[nadir + k]) < 0.2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ReferenceProfileParams {
        // Figure 3 of the paper: v = 0.1 m/s, reader 1 m above the tag
        // plane at lateral offset 0.5 m → d⊥ = √(1² + 0.5²) ≈ 1.118 m.
        ReferenceProfileParams::new(0.1, (1.0f64 + 0.25).sqrt(), 0.326)
    }

    #[test]
    fn generates_v_shaped_profile() {
        let r = ReferenceProfile::generate(params()).unwrap();
        assert!(r.profile.len() > 50);
        // The nadir phase is the minimum within the V-zone.
        let vzone = r.vzone_profile();
        let min_phase = vzone.phases().into_iter().fold(f64::INFINITY, f64::min);
        assert!((r.nadir_phase() - min_phase).abs() < 0.05);
        assert!(is_symmetric_about_nadir(&r));
    }

    #[test]
    fn vzone_is_centered_and_inside_profile() {
        let r = ReferenceProfile::generate(params()).unwrap();
        assert!(r.vzone_start < r.nadir);
        assert!(r.nadir < r.vzone_end);
        assert!(r.vzone_end <= r.profile.len());
        assert!(r.vzone_duration() > 0.0);
    }

    #[test]
    fn contains_roughly_the_requested_number_of_periods() {
        let r = ReferenceProfile::generate(params().with_periods(4)).unwrap();
        // Count wrap jumps (|Δ| > π between consecutive samples): a k-period
        // profile has about k−1 wraps on each side of the V-zone boundary...
        // in total the phase covers ~4 periods so at least 2 wraps and at
        // most 5.
        let phases = r.profile.phases();
        let wraps =
            phases.windows(2).filter(|w| (w[1] - w[0]).abs() > std::f64::consts::PI).count();
        assert!((2..=6).contains(&wraps), "wraps = {wraps}");
    }

    #[test]
    fn more_periods_makes_longer_profile() {
        let short = ReferenceProfile::generate(params().with_periods(2)).unwrap();
        let long = ReferenceProfile::generate(params().with_periods(6)).unwrap();
        assert!(long.profile.duration() > short.profile.duration());
    }

    #[test]
    fn slower_speed_stretches_profile_in_time() {
        let fast =
            ReferenceProfile::generate(ReferenceProfileParams::new(0.3, 0.5, 0.326)).unwrap();
        let slow =
            ReferenceProfile::generate(ReferenceProfileParams::new(0.1, 0.5, 0.326)).unwrap();
        assert!(slow.profile.duration() > 2.0 * fast.profile.duration());
        // But the phase ranges are the same.
        assert!((slow.nadir_phase() - fast.nadir_phase()).abs() < 0.05);
    }

    #[test]
    fn larger_perpendicular_distance_gives_shallower_vzone() {
        // The observation behind Y-axis ordering: a tag farther from the
        // trajectory has a larger bottom phase and larger V-zone values —
        // provided the two perpendicular distances fall in the same λ/2
        // phase period (0.35 m and 0.45 m both lie in the 0.326–0.489 m
        // window for λ = 0.326 m).
        let near =
            ReferenceProfile::generate(ReferenceProfileParams::new(0.1, 0.35, 0.326)).unwrap();
        let far =
            ReferenceProfile::generate(ReferenceProfileParams::new(0.1, 0.45, 0.326)).unwrap();
        assert!(far.nadir_phase() > near.nadir_phase());
        let mean = |p: &ReferenceProfile| {
            let v = p.vzone_profile().phases();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(mean(&far) > mean(&near));
    }

    #[test]
    fn degenerate_parameters_are_rejected() {
        assert!(ReferenceProfile::generate(ReferenceProfileParams::new(0.0, 0.3, 0.326)).is_none());
        assert!(ReferenceProfile::generate(ReferenceProfileParams::new(0.1, -1.0, 0.326)).is_none());
        assert!(ReferenceProfile::generate(ReferenceProfileParams::new(0.1, 0.3, 0.0)).is_none());
        assert!(ReferenceProfile::generate(
            ReferenceProfileParams::new(0.1, 0.3, 0.326).with_sample_interval(0.0)
        )
        .is_none());
    }

    #[test]
    fn phase_offset_shifts_every_sample() {
        let r = ReferenceProfile::generate(params()).unwrap();
        let shifted = r.with_phase_offset(1.0);
        assert_eq!(shifted.profile.len(), r.profile.len());
        assert_eq!(shifted.nadir, r.nadir);
        let a = r.profile.phases();
        let b = shifted.profile.phases();
        for (x, y) in a.iter().zip(b.iter()) {
            let d = rfid_phys::phase::phase_distance(x + 1.0, *y);
            assert!(d < 1e-9);
        }
    }

    #[test]
    fn reference_bank_precomputes_all_offset_patterns() {
        let bank = ReferenceBank::build(params(), 5, 8).expect("bank builds");
        assert_eq!(bank.patterns.len(), 8);
        assert!(bank.max_half_duration_s > 0.0);
        for (k, pattern) in bank.patterns.iter().enumerate() {
            assert!((pattern.offset_rad - TWO_PI * k as f64 / 8.0).abs() < 1e-12);
            assert!(!pattern.segments.is_empty());
            assert_eq!(pattern.features.len(), pattern.segments.len());
            assert!(!pattern.vzone_segments.is_empty());
            assert!(pattern.vzone_segments.end <= pattern.segments.len());
            assert!(pattern.duration_s > 0.0);
        }
        // The zero-offset pattern matches segmenting the sliced reference
        // directly.
        let reference = ReferenceProfile::generate(params()).unwrap();
        let vzone_len = reference.vzone_end - reference.vzone_start;
        let margin = (vzone_len / 4).max(2);
        let pat_start = reference.vzone_start.saturating_sub(margin);
        let pat_end = (reference.vzone_end + margin).min(reference.profile.len());
        let expected = SegmentedProfile::build(&reference.profile.slice(pat_start..pat_end), 5);
        assert_eq!(bank.patterns[0].segments, expected);
    }

    #[test]
    fn bank_cache_memoises_by_interval() {
        let cache = ReferenceBankCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), BankCacheStats::default());
        let a = cache.get_or_build(params(), 5, 8, 0.02).expect("valid bank");
        let b = cache.get_or_build(params(), 5, 8, 0.02).expect("valid bank");
        assert!(Arc::ptr_eq(&a, &b), "same interval must share one bank");
        let c = cache.get_or_build(params(), 5, 8, 0.05).expect("valid bank");
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
        // Instrumentation: two distinct intervals = two misses and two
        // builds; the repeated lookup was the single hit.
        let stats = cache.stats();
        assert_eq!(stats, BankCacheStats { hits: 1, misses: 2, builds: 2 });
        // A warm repeat performs zero constructions.
        let before = cache.stats();
        let _ = cache.get_or_build(params(), 5, 8, 0.02).expect("valid bank");
        let delta = cache.stats().since(before);
        assert_eq!(delta, BankCacheStats { hits: 1, misses: 0, builds: 0 });
        // Degenerate parameters memoise as a failure instead of retrying.
        let bad_cache = ReferenceBankCache::new();
        let bad = ReferenceProfileParams::new(0.0, 0.3, 0.326);
        assert!(bad_cache.get_or_build(bad, 5, 8, 0.02).is_none());
        assert!(bad_cache.get_or_build(bad, 5, 8, 0.02).is_none());
        assert_eq!(bad_cache.len(), 1);
    }

    #[test]
    fn nadir_phase_matches_equation_one_at_perpendicular_distance() {
        let p = params();
        let r = ReferenceProfile::generate(p).unwrap();
        let model = PhaseModel::ideal(rfid_phys::constants::SPEED_OF_LIGHT / p.wavelength_m);
        let expected = model.phase_at_distance(p.perpendicular_distance_m);
        assert!((r.nadir_phase() - expected).abs() < 0.1);
    }
}
