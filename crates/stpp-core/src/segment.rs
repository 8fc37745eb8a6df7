//! Coarse-grained segment representation of phase profiles.
//!
//! Running DTW on raw profiles costs `O(M·N)`; the paper reduces this to
//! `O(M·N / w²)` by splitting each profile into segments of `w` samples and
//! aligning the segments instead. Each [`Segment`] records the minimum and
//! maximum phase in its window, its time interval, and its sample index
//! range; segments never straddle a `0 ↔ 2π` wrap — if a wrap occurs inside
//! a window the window is split at the wrap point, exactly as the paper
//! specifies.

use rfid_phys::{wrap_phase, TWO_PI};
use serde::{Deserialize, Serialize};

use crate::profile::PhaseProfile;

/// One segment of the coarse representation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Minimum phase value inside the segment (`s^L` in the paper).
    pub min_phase: f64,
    /// Maximum phase value inside the segment (`s^U` in the paper).
    pub max_phase: f64,
    /// Mean phase value inside the segment (used by the Y-axis ordering).
    pub mean_phase: f64,
    /// Start time of the segment, seconds.
    pub start_time: f64,
    /// End time of the segment, seconds.
    pub end_time: f64,
    /// Index of the first sample in the underlying profile.
    pub start_idx: usize,
    /// Index one past the last sample in the underlying profile.
    pub end_idx: usize,
}

impl Segment {
    /// The segment's time interval (`s^T` in the paper), seconds.
    pub fn time_interval(&self) -> f64 {
        (self.end_time - self.start_time).max(0.0)
    }

    /// Number of samples in the segment.
    pub fn sample_count(&self) -> usize {
        self.end_idx - self.start_idx
    }

    /// The distance between two segments used by the segmented DTW: zero
    /// when their phase ranges overlap, otherwise the gap between the
    /// closest endpoints.
    pub fn range_distance(&self, other: &Segment) -> f64 {
        if self.min_phase > other.max_phase {
            self.min_phase - other.max_phase
        } else if other.min_phase > self.max_phase {
            other.min_phase - self.max_phase
        } else {
            0.0
        }
    }
}

/// A profile compressed into segments.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SegmentedProfile {
    segments: Vec<Segment>,
    window: usize,
}

impl SegmentedProfile {
    /// Segments `profile` using windows of `window` samples (the paper's
    /// `w`). Windows containing a phase wrap are split at the wrap so no
    /// segment spans a `0 ↔ 2π` jump. A `window` of 0 is treated as 1.
    pub fn build(profile: &PhaseProfile, window: usize) -> Self {
        Self::build_with_offset(profile, window, 0.0)
    }

    /// Segments the profile *as if* a constant phase offset had been added
    /// to every sample, without materialising the shifted profile. This is
    /// how the V-zone detector's reference bank derives all of its
    /// hardware-offset candidates from one generated reference: the shift
    /// moves the `0 ↔ 2π` wrap points, so the segmentation is recomputed
    /// over `wrap(phase + offset)` on the fly, but no sample vector is
    /// ever copied, re-sorted, or re-wrapped into a new profile.
    pub fn build_with_offset(profile: &PhaseProfile, window: usize, offset_rad: f64) -> Self {
        let mut out = SegmentedProfile::default();
        out.rebuild_with_offset(profile, window, offset_rad);
        out
    }

    /// In-place version of [`build`](Self::build): clears and refills this
    /// representation, reusing its segment storage. Part of the zero-alloc
    /// detection hot path.
    pub fn rebuild(&mut self, profile: &PhaseProfile, window: usize) {
        self.rebuild_with_offset(profile, window, 0.0);
    }

    /// In-place version of [`build_with_offset`](Self::build_with_offset).
    pub fn rebuild_with_offset(&mut self, profile: &PhaseProfile, window: usize, offset_rad: f64) {
        debug_assert!(phases_in_range(profile), "profile phases must lie in [0, 2π)");
        let window = window.max(1);
        let samples = profile.samples();
        let segments = &mut self.segments;
        segments.clear();
        self.window = window;
        let shift = |p: f64| if offset_rad == 0.0 { p } else { wrap_phase(p + offset_rad) };
        let mut start = 0usize;
        while start < samples.len() {
            let mut end = (start + window).min(samples.len());
            // Split at a wrap: a jump larger than π between consecutive
            // (shifted) samples indicates the phase crossed the 0/2π
            // boundary.
            let mut prev = shift(samples[start].phase_rad);
            let mut min_phase = prev;
            let mut max_phase = prev;
            let mut sum = prev;
            for (off, s) in samples[start + 1..end].iter().enumerate() {
                let cur = shift(s.phase_rad);
                if (cur - prev).abs() > std::f64::consts::PI {
                    end = start + 1 + off;
                    break;
                }
                min_phase = min_phase.min(cur);
                max_phase = max_phase.max(cur);
                sum += cur;
                prev = cur;
            }
            segments.push(Segment {
                min_phase,
                max_phase,
                mean_phase: sum / (end - start) as f64,
                start_time: samples[start].time_s,
                end_time: samples[end - 1].time_s,
                start_idx: start,
                end_idx: end,
            });
            start = end;
        }
    }

    /// The segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether there are no segments (empty source profile).
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The window size used to build the representation.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The index range (into the original profile) covered by segments
    /// `seg_range`, clamped to valid bounds.
    pub fn sample_range(&self, seg_range: std::ops::Range<usize>) -> std::ops::Range<usize> {
        if self.segments.is_empty()
            || seg_range.start >= self.segments.len()
            || seg_range.end <= seg_range.start
        {
            return 0..0;
        }
        let start = self.segments[seg_range.start].start_idx;
        let end_seg = seg_range.end.min(self.segments.len());
        let end = self.segments[end_seg - 1].end_idx;
        start..end
    }

    /// The range of segment indices whose sample ranges overlap the sample
    /// index range `[sample_start, sample_end)`. Returns an empty range
    /// when no segment overlaps.
    pub fn segments_covering(
        &self,
        sample_start: usize,
        sample_end: usize,
    ) -> std::ops::Range<usize> {
        let mut first = None;
        let mut last = 0usize;
        for (i, s) in self.segments.iter().enumerate() {
            if s.end_idx > sample_start && s.start_idx < sample_end {
                if first.is_none() {
                    first = Some(i);
                }
                last = i + 1;
            }
        }
        match first {
            Some(f) => f..last,
            None => 0..0,
        }
    }

    /// Splits a profile into exactly `k` segments of (nearly) equal sample
    /// count and returns the mean phase of each — the representation used
    /// to compare V-zone profiles along the Y axis. Returns `None` if the
    /// profile has fewer than `k` samples or `k` is zero.
    pub fn equal_count_means(profile: &PhaseProfile, k: usize) -> Option<Vec<f64>> {
        let n = profile.len();
        if k == 0 || n < k {
            return None;
        }
        let phases = profile.phases();
        let mut means = Vec::with_capacity(k);
        for i in 0..k {
            let start = i * n / k;
            let end = ((i + 1) * n / k).max(start + 1);
            let slice = &phases[start..end.min(n)];
            means.push(slice.iter().sum::<f64>() / slice.len() as f64);
        }
        Some(means)
    }
}

/// Sanity helper used in tests and debug assertions: every phase value must
/// lie in `[0, 2π)`.
pub(crate) fn phases_in_range(profile: &PhaseProfile) -> bool {
    profile.phases().iter().all(|&p| (0.0..TWO_PI).contains(&p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::PhaseProfile;

    fn ramp_profile(n: usize, dt: f64, start: f64, step: f64) -> PhaseProfile {
        // A profile that increases by `step` per sample, wrapped.
        let pairs: Vec<(f64, f64)> =
            (0..n).map(|i| (i as f64 * dt, start + step * i as f64)).collect();
        PhaseProfile::from_pairs(&pairs)
    }

    #[test]
    fn segments_cover_profile_without_overlap() {
        let p = ramp_profile(23, 0.1, 0.0, 0.05);
        let sp = SegmentedProfile::build(&p, 5);
        assert!(!sp.is_empty());
        let mut next = 0usize;
        for s in sp.segments() {
            assert_eq!(s.start_idx, next, "segments must be contiguous");
            assert!(s.end_idx > s.start_idx);
            assert!(s.min_phase <= s.mean_phase && s.mean_phase <= s.max_phase);
            next = s.end_idx;
        }
        assert_eq!(next, p.len());
    }

    #[test]
    fn window_size_controls_segment_count() {
        let p = ramp_profile(100, 0.05, 0.0, 0.01);
        let coarse = SegmentedProfile::build(&p, 10);
        let fine = SegmentedProfile::build(&p, 2);
        assert!(coarse.len() < fine.len());
        assert_eq!(fine.window(), 2);
        // Window 0 behaves like 1.
        assert_eq!(SegmentedProfile::build(&p, 0).len(), 100);
    }

    #[test]
    fn segments_never_contain_a_wrap() {
        // Steep ramp wraps several times; no segment may contain a jump > π.
        let p = ramp_profile(200, 0.02, 0.0, 0.3);
        let sp = SegmentedProfile::build(&p, 8);
        let samples = p.samples();
        for s in sp.segments() {
            for i in s.start_idx + 1..s.end_idx {
                let d = (samples[i].phase_rad - samples[i - 1].phase_rad).abs();
                assert!(d <= std::f64::consts::PI, "wrap inside a segment");
            }
        }
        assert!(phases_in_range(&p));
    }

    #[test]
    fn range_distance_is_zero_for_overlap_and_positive_for_gap() {
        let a = Segment {
            min_phase: 1.0,
            max_phase: 2.0,
            mean_phase: 1.5,
            start_time: 0.0,
            end_time: 1.0,
            start_idx: 0,
            end_idx: 5,
        };
        let mut b = a;
        b.min_phase = 1.5;
        b.max_phase = 3.0;
        assert_eq!(a.range_distance(&b), 0.0);
        b.min_phase = 2.5;
        assert!((a.range_distance(&b) - 0.5).abs() < 1e-12);
        assert!((b.range_distance(&a) - 0.5).abs() < 1e-12);
        b.min_phase = 0.0;
        b.max_phase = 0.4;
        assert!((a.range_distance(&b) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn sample_range_maps_back_to_profile_indices() {
        let p = ramp_profile(30, 0.1, 0.0, 0.05);
        let sp = SegmentedProfile::build(&p, 7);
        let r = sp.sample_range(0..2);
        assert_eq!(r.start, 0);
        assert_eq!(r.end, sp.segments()[1].end_idx);
        // Out-of-range queries are clamped.
        assert_eq!(sp.sample_range(100..200), 0..0);
        let full = sp.sample_range(0..sp.len());
        assert_eq!(full, 0..30);
    }

    #[test]
    fn equal_count_means_splits_evenly() {
        let p = ramp_profile(10, 0.1, 0.0, 0.1);
        let means = SegmentedProfile::equal_count_means(&p, 5).unwrap();
        assert_eq!(means.len(), 5);
        // An increasing profile gives increasing segment means.
        for w in means.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!(SegmentedProfile::equal_count_means(&p, 0).is_none());
        assert!(SegmentedProfile::equal_count_means(&p, 11).is_none());
    }

    #[test]
    fn build_with_offset_matches_segmenting_a_shifted_profile() {
        // The analytic offset path must produce exactly the segmentation
        // of a materialised shifted profile — including the wrap splits,
        // which move with the offset.
        let p = ramp_profile(120, 0.04, 0.3, 0.17);
        for offset in [0.0, 0.8, 2.9, 4.4, 6.1] {
            let analytic = SegmentedProfile::build_with_offset(&p, 6, offset);
            let shifted = PhaseProfile::from_pairs(
                &p.samples().iter().map(|s| (s.time_s, s.phase_rad + offset)).collect::<Vec<_>>(),
            );
            let materialised = SegmentedProfile::build(&shifted, 6);
            assert_eq!(analytic.len(), materialised.len(), "offset {offset}");
            for (a, b) in analytic.segments().iter().zip(materialised.segments()) {
                assert_eq!(a.start_idx, b.start_idx);
                assert_eq!(a.end_idx, b.end_idx);
                assert!((a.min_phase - b.min_phase).abs() < 1e-9);
                assert!((a.max_phase - b.max_phase).abs() < 1e-9);
                assert!((a.mean_phase - b.mean_phase).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn segments_covering_finds_overlapping_range() {
        let p = ramp_profile(30, 0.1, 0.0, 0.05);
        let sp = SegmentedProfile::build(&p, 7);
        assert_eq!(sp.segments_covering(0, 30), 0..sp.len());
        let r = sp.segments_covering(8, 15);
        assert!(!r.is_empty());
        for (i, s) in sp.segments().iter().enumerate() {
            let overlaps = s.end_idx > 8 && s.start_idx < 15;
            assert_eq!(r.contains(&i), overlaps, "segment {i}");
        }
        assert_eq!(sp.segments_covering(100, 200), 0..0);
    }

    #[test]
    fn empty_profile_produces_no_segments() {
        let sp = SegmentedProfile::build(&PhaseProfile::new(), 5);
        assert!(sp.is_empty());
        assert_eq!(sp.len(), 0);
        assert_eq!(sp.sample_range(0..1), 0..0);
    }

    #[test]
    fn time_interval_and_sample_count() {
        let p = ramp_profile(6, 0.5, 0.0, 0.01);
        let sp = SegmentedProfile::build(&p, 3);
        let s = sp.segments()[0];
        assert_eq!(s.sample_count(), 3);
        assert!((s.time_interval() - 1.0).abs() < 1e-12);
    }
}
