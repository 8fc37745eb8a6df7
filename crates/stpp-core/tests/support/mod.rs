//! Shared test-support module for the stpp-core integration suites.
//!
//! The exactness and golden suites both need deterministic synthetic
//! sweeps (geometries + recordings); keeping the generators here stops
//! each suite from growing its own slightly-different copy. The module
//! also holds the exhaustive-argmin oracle the candidate screen is
//! checked against.
//!
//! Each integration-test binary compiles its own copy of this module and
//! uses a different subset of it, hence the file-level `dead_code` allow.
#![allow(dead_code)]

use proptest::prelude::*;
use proptest::ProptestConfig;
use stpp_core::{
    dtw_segmented_features_into, path_matched_range, DtwScratch, PhaseProfile, ReferenceBank,
    ReferenceProfileParams, SegmentFeatures, SegmentedProfile, StppInput, TagObservations,
    VZoneDetector,
};

/// Proptest configuration honouring the `PROPTEST_CASES` environment
/// variable (the CI exactness job bumps it well above the local default;
/// the vendored proptest does not read it on its own).
pub fn proptest_cases(default_cases: u32) -> ProptestConfig {
    let cases =
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default_cases);
    ProptestConfig::with_cases(cases)
}

/// The V-zone detector's candidate choice by its definition (paper
/// Section 3.1.2): build the reference bank at the detector's reference
/// interval for `profile`, align every offset candidate with the
/// path-recording kernel without abandoning, keep the candidates that
/// pass the detector's acceptance filters (a non-empty V-zone matched
/// range, and a matched span of at least 0.3 × the pattern duration),
/// and return the one with the smallest normalised cost, ties to the
/// smaller index, as `(offset_index, normalised cost)`. `None` when no
/// candidate is acceptable.
pub fn oracle_argmin(detector: &VZoneDetector, profile: &PhaseProfile) -> Option<(usize, f64)> {
    let interval = detector.reference_interval(profile)?;
    let params =
        ReferenceProfileParams { sample_interval_s: interval, ..detector.reference_params };
    let bank = ReferenceBank::build(params, detector.window, detector.offset_candidates)?;
    let segmented = SegmentedProfile::build(profile, detector.window);
    let measured = SegmentFeatures::from_segmented(&segmented);
    let samples = profile.samples();
    let mut scratch = DtwScratch::new();
    let mut best: Option<(usize, f64)> = None;
    for (k, pattern) in bank.patterns.iter().enumerate() {
        let Some(cost) = dtw_segmented_features_into(
            &pattern.features,
            &measured,
            true,
            detector.gap_penalty_per_second,
            None,
            &mut scratch,
        ) else {
            continue;
        };
        let norm = cost / pattern.features.len().max(1) as f64;
        let Some(matched) = path_matched_range(scratch.path(), pattern.vzone_segments.clone())
        else {
            continue;
        };
        let range = segmented.sample_range(matched);
        if range.is_empty() {
            continue;
        }
        let span =
            samples[(range.end - 1).min(samples.len() - 1)].time_s - samples[range.start].time_s;
        if span < 0.3 * pattern.duration_s {
            continue;
        }
        if best.is_none_or(|(_, b)| norm < b) {
            best = Some((k, norm));
        }
    }
    best
}

/// A deterministic synthetic sweep: one V-shaped phase profile per tag
/// with a shared hardware offset, optional per-tag perpendicular-distance
/// spread, deterministic pseudo-noise, and periodic sample dropout.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Per-tag `(x position m, perpendicular distance m)`.
    pub tags: Vec<(f64, f64)>,
    /// Shared hardware phase offset, radians.
    pub mu: f64,
    /// Reader speed, m/s.
    pub speed: f64,
    /// Sampling interval, seconds.
    pub dt: f64,
    /// Samples per tag before dropout.
    pub samples: usize,
    /// Phase-noise amplitude, radians (deterministic pseudo-noise).
    pub noise: f64,
    /// Drop every `dropout`-th sample (`0` = keep everything).
    pub dropout: usize,
}

/// The carrier wavelength every synthetic sweep uses, metres.
pub const WAVELENGTH_M: f64 = 0.326;

impl SweepSpec {
    /// Builds the pipeline input for this sweep. Fully deterministic:
    /// the "noise" is a fixed quasi-random phase jitter derived from the
    /// sample and tag indices, so the same spec always produces the same
    /// bits.
    pub fn input(&self) -> StppInput {
        let observations: Vec<TagObservations> = self
            .tags
            .iter()
            .enumerate()
            .map(|(id, &(tag_x, d_perp))| {
                let pairs: Vec<(f64, f64)> = (0..self.samples)
                    .filter(|i| self.dropout == 0 || i % self.dropout != 0)
                    .map(|i| {
                        let t = i as f64 * self.dt;
                        let d = ((self.speed * t - tag_x).powi(2) + d_perp * d_perp).sqrt();
                        let jitter = self.noise * (i as f64 * 7.31 + id as f64 * 2.17).sin();
                        (t, std::f64::consts::TAU * 2.0 * d / WAVELENGTH_M + self.mu + jitter)
                    })
                    .collect();
                TagObservations {
                    id: id as u64,
                    epc: rfid_gen2::Epc::from_serial(id as u64),
                    profile: PhaseProfile::from_pairs(&pairs),
                }
            })
            .collect();
        StppInput {
            observations,
            nominal_speed_mps: self.speed,
            wavelength_m: WAVELENGTH_M,
            perpendicular_distance_m: Some(
                self.tags.iter().map(|t| t.1).fold(f64::INFINITY, f64::min),
            ),
        }
    }
}

/// Strategy over synthetic sweeps: 3–8 tags spread along the aisle, a
/// shared hardware offset anywhere on the circle (including the 0/2π
/// boundary region), mild noise, and optional dropout.
pub fn arb_sweep() -> impl Strategy<Value = SweepSpec> {
    (
        proptest::collection::vec((0.3f64..2.7, 0.26f64..0.40), 3..8),
        0.0f64..std::f64::consts::TAU,
        0.06f64..0.16,
        (0.03f64..0.07, 380usize..620),
        (0.0f64..0.25, 0usize..5),
    )
        .prop_map(|(tags, mu, speed, (dt, samples), (noise, dropout))| SweepSpec {
            tags,
            mu,
            speed,
            dt,
            samples,
            noise,
            // dropout 0/1 keep everything (i % 1 == 0 would drop all).
            dropout: if dropout < 2 { 0 } else { dropout },
        })
}
