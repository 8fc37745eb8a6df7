//! The end-to-end STPP pipeline.
//!
//! [`RelativeLocalizer`] consumes the phase observations of a sweep and
//! produces the relative ordering of the tags along both in-plane axes:
//! per-tag V-zone detection (segmented DTW against a reference profile +
//! quadratic fitting), then X ordering by nadir time and Y ordering by
//! coarse V-zone comparison.

use std::sync::Arc;

use rfid_geometry::Point3;
use rfid_reader::{AntennaMotion, MotionCase, Scenario, SweepRecording, TagTrack};
use serde::{Deserialize, Serialize};

use crate::ordering::{OrderingEngine, TagVZoneSummary, YOrderingStrategy};
use crate::profile::TagObservations;
use crate::reference::{ReferenceBankCache, ReferenceProfileParams};
use crate::vzone::{DetectError, DetectScratch, VZoneDetector};

/// Errors the pipeline can report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LocalizationError {
    /// The input contained no tag observations at all.
    EmptyInput,
    /// No tag had enough samples for V-zone detection.
    NoDetections,
    /// The sweep geometry needed to build the reference profile is invalid
    /// (zero speed or wavelength).
    InvalidGeometry(String),
    /// A tag's profile was malformed (non-finite samples, degenerate
    /// V-zone). The seed pipeline either panicked on such input or
    /// silently fabricated a nadir; now the offending tag is named.
    MalformedProfile {
        /// Id of the offending tag.
        id: u64,
        /// The underlying detection error.
        error: DetectError,
    },
}

impl std::fmt::Display for LocalizationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LocalizationError::EmptyInput => write!(f, "no tag observations were provided"),
            LocalizationError::NoDetections => {
                write!(f, "no tag had a detectable V-zone (profiles too short or too noisy)")
            }
            LocalizationError::InvalidGeometry(msg) => {
                write!(f, "invalid sweep geometry: {msg}")
            }
            LocalizationError::MalformedProfile { id, error } => {
                write!(f, "tag {id} has a malformed profile: {error}")
            }
        }
    }
}

impl std::error::Error for LocalizationError {}

/// Pipeline configuration. Detection always runs the paper's exact
/// segmented DTW through one candidate screen (see [`VZoneDetector`]);
/// these fields set the paper's parameters, not the algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StppConfig {
    /// Segmentation window `w` for the DTW optimisation (paper default 5).
    pub window: usize,
    /// Number of periods in the reference profile (paper default 4).
    pub reference_periods: usize,
    /// Number of segments `k` in the coarse V-zone representation used for
    /// Y ordering.
    pub y_segments: usize,
    /// Number of reference phase offsets tried during matching.
    pub offset_candidates: usize,
    /// Nominal perpendicular distance from the reader trajectory to the tag
    /// plane, metres — the deployment-time guess used to build the
    /// reference profile (≈0.3 m reader-to-shelf distance in the paper's
    /// library setup; 0.35 m here to match the default sweep geometry).
    pub perpendicular_distance_m: f64,
    /// Y ordering strategy (pivot vs full pairwise).
    pub y_strategy: YOrderingStrategy,
    /// Minimum number of reads a tag needs before we try to localize it.
    pub min_reads: usize,
}

impl Default for StppConfig {
    fn default() -> Self {
        StppConfig {
            window: 5,
            reference_periods: 4,
            y_segments: 8,
            offset_candidates: 8,
            perpendicular_distance_m: 0.35,
            y_strategy: YOrderingStrategy::Pivot,
            min_reads: 12,
        }
    }
}

/// The input to the pipeline: per-tag observations plus the nominal sweep
/// parameters needed to build reference profiles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StppInput {
    /// Per-tag phase observations.
    pub observations: Vec<TagObservations>,
    /// Nominal relative speed between reader and tags, m/s.
    pub nominal_speed_mps: f64,
    /// Carrier wavelength, metres.
    pub wavelength_m: f64,
    /// Deployment-known perpendicular distance from the reader trajectory
    /// to the nearest tag row, metres. `None` falls back to
    /// [`StppConfig::perpendicular_distance_m`]. In the paper this is the
    /// surveyed reader-to-shelf (or antenna-to-belt) distance.
    pub perpendicular_distance_m: Option<f64>,
}

impl StppInput {
    /// Builds the pipeline input from a simulated sweep recording: extracts
    /// per-tag profiles, the nominal speed (antenna speed in the
    /// antenna-moving case, belt speed in the tag-moving case) and the
    /// carrier wavelength of the channel the reader used.
    pub fn from_recording(recording: &SweepRecording) -> Result<Self, LocalizationError> {
        let observations = TagObservations::from_recording(recording);
        if observations.is_empty() {
            return Err(LocalizationError::EmptyInput);
        }
        let scenario = &recording.scenario;
        let nominal_speed = match scenario.case {
            MotionCase::AntennaMoving => {
                scenario.antenna_motion.nominal_speed_over(scenario.duration_s)
            }
            MotionCase::TagMoving => scenario
                .tags
                .first()
                .map(|t| {
                    let d = t.track.position_at(1.0) - t.track.position_at(0.0);
                    d.norm()
                })
                .unwrap_or(0.0),
        };
        if !(nominal_speed.is_finite() && nominal_speed > 0.0) {
            return Err(LocalizationError::InvalidGeometry(format!(
                "nominal speed must be positive, got {nominal_speed}"
            )));
        }
        let wavelength =
            scenario.channel.plan.wavelength(scenario.channel_index).ok_or_else(|| {
                LocalizationError::InvalidGeometry(format!(
                    "channel index {} not in the channel plan",
                    scenario.channel_index
                ))
            })?;
        // Deployment geometry: the closest approach between the antenna and
        // any tag over the sweep (the surveyed reader-to-shelf distance in
        // the paper's setup).
        let min_distance = closest_approach_m(scenario);
        let perpendicular =
            if min_distance.is_finite() && min_distance > 0.0 { Some(min_distance) } else { None };
        Ok(StppInput {
            observations,
            nominal_speed_mps: nominal_speed,
            wavelength_m: wavelength,
            perpendicular_distance_m: perpendicular,
        })
    }

    /// Validates the request-level invariants every pipeline entry
    /// enforces before doing any work: a non-empty observation set and a
    /// usable sweep geometry (finite, positive speed and wavelength).
    /// Serving layers call this *before* registering per-geometry state,
    /// so the rejection condition cannot drift from the pipeline's own.
    pub fn validate(&self) -> Result<(), LocalizationError> {
        if self.observations.is_empty() {
            return Err(LocalizationError::EmptyInput);
        }
        // Negated comparisons so that NaN inputs are rejected too.
        if !(self.nominal_speed_mps > 0.0 && self.wavelength_m > 0.0) {
            return Err(LocalizationError::InvalidGeometry(format!(
                "speed {} m/s, wavelength {} m",
                self.nominal_speed_mps, self.wavelength_m
            )));
        }
        Ok(())
    }
}

/// Distance from point `p` to the segment `[a, b]`.
fn point_to_segment_m(p: Point3, a: Point3, b: Point3) -> f64 {
    let ab = b - a;
    let len_sq = ab.norm_squared();
    if len_sq <= 1e-18 {
        return p.distance(a);
    }
    let t = ((p - a).dot(ab) / len_sq).clamp(0.0, 1.0);
    p.distance(a + ab * t)
}

/// The closest approach between the antenna and any tag over the sweep.
///
/// Every motion the builders produce is a straight relative sweep, so the
/// distance is computed in closed form as a point-to-segment distance:
///
/// * fixed tag, moving antenna (linear or manual — the manual speed
///   profile never reverses, so the antenna covers exactly the segment
///   between its endpoint positions);
/// * conveyor tag, stationary or linear antenna (the *relative* motion is
///   linear in time).
///
/// Anything else falls back to the sampled scan the seed implementation
/// used for every case — which was `O(200 · tags)` of transcendental math
/// before localization even started.
fn closest_approach_m(scenario: &Scenario) -> f64 {
    let duration = scenario.duration_s;
    let mut min_distance = f64::INFINITY;
    for tag in &scenario.tags {
        let d = match (&scenario.antenna_motion, tag.track) {
            (AntennaMotion::Stationary(p), TagTrack::Fixed(q)) => p.distance(q),
            (AntennaMotion::Stationary(p), TagTrack::Conveyor { start, velocity }) => {
                point_to_segment_m(*p, start, start + velocity * duration)
            }
            (AntennaMotion::Linear(_) | AntennaMotion::Manual(_), TagTrack::Fixed(q)) => {
                let a = scenario.antenna_motion.position_at(0.0);
                let b = scenario.antenna_motion.position_at(duration);
                point_to_segment_m(q, a, b)
            }
            (AntennaMotion::Linear(traj), TagTrack::Conveyor { start, velocity }) => {
                // In the antenna's frame the tag moves linearly with the
                // relative velocity; measure from the origin of that frame.
                let rel0 = Point3::ORIGIN + (start - traj.start);
                let rel1 = rel0 + (velocity - traj.velocity) * duration;
                point_to_segment_m(Point3::ORIGIN, rel0, rel1)
            }
            (AntennaMotion::Manual(_), TagTrack::Conveyor { .. }) => {
                // Both endpoints move and the antenna speed varies: no
                // closed form; sample like the seed did.
                let steps = 200usize;
                (0..=steps)
                    .map(|i| {
                        let t = duration * i as f64 / steps as f64;
                        scenario.antenna_motion.position_at(t).distance(tag.track.position_at(t))
                    })
                    .fold(f64::INFINITY, f64::min)
            }
        };
        min_distance = min_distance.min(d);
    }
    min_distance
}

/// The pipeline output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StppResult {
    /// Detected tag order along the X axis (movement direction).
    pub order_x: Vec<u64>,
    /// Detected tag order along the Y axis (nearest the trajectory first).
    pub order_y: Vec<u64>,
    /// Per-tag V-zone summaries for the tags that were localized.
    pub summaries: Vec<TagVZoneSummary>,
    /// Ids of tags that were observed but could not be localized (too few
    /// reads or no V-zone found). They are absent from the orderings.
    pub undetected: Vec<u64>,
}

impl StppResult {
    /// Number of localized tags.
    pub fn localized_count(&self) -> usize {
        self.summaries.len()
    }
}

/// The per-run detection engine shared by the sequential
/// [`RelativeLocalizer`] and the parallel
/// [`BatchLocalizer`](crate::batch::BatchLocalizer): the configured
/// detector plus the reference-bank cache every tag (and worker thread)
/// shares.
pub(crate) struct DetectionEngine {
    config: StppConfig,
    dtw_detector: VZoneDetector,
    cache: Arc<ReferenceBankCache>,
}

impl DetectionEngine {
    /// Validates the input geometry and builds an engine around a
    /// caller-supplied (possibly process-wide, shared) reference-bank
    /// cache. The cache must be dedicated to this input's geometry: its
    /// entries are keyed by sampling interval only.
    pub(crate) fn with_cache(
        config: StppConfig,
        input: &StppInput,
        cache: Arc<ReferenceBankCache>,
    ) -> Result<Self, LocalizationError> {
        input.validate()?;
        let reference_params = ReferenceProfileParams::new(
            input.nominal_speed_mps,
            effective_perpendicular_m(&config, input),
            input.wavelength_m,
        )
        .with_periods(config.reference_periods);
        let dtw_detector = VZoneDetector::new(reference_params)
            .with_window(config.window)
            .with_offset_candidates(config.offset_candidates);
        Ok(DetectionEngine { config, dtw_detector, cache })
    }

    /// Runs V-zone detection for one tag and condenses it into the
    /// ordering summary; `Ok(None)` marks the tag undetected, `Err` a
    /// malformed profile.
    pub(crate) fn summarize(
        &self,
        obs: &TagObservations,
        scratch: &mut DetectScratch,
    ) -> Result<Option<TagVZoneSummary>, LocalizationError> {
        if obs.profile.len() < self.config.min_reads {
            return Ok(None);
        }
        let detection = self
            .dtw_detector
            .detect_cached(&obs.profile, &self.cache, scratch)
            .map_err(|error| LocalizationError::MalformedProfile { id: obs.id, error })?;
        let Some(d) = detection else {
            return Ok(None);
        };
        // Prefer the window-length-normalised representation (fixed ±cap
        // grid anchored at the fitted bottom) so tags whose refinement
        // fell back to the quarter-wavelength cap window compare robustly
        // with their wrap-bounded neighbours; a detection without a known
        // cap keeps the plain equal-count representation.
        let coarse = d
            .normalized_coarse_representation(self.config.y_segments)
            .or_else(|| d.coarse_representation(self.config.y_segments))
            .unwrap_or_else(|| vec![d.nadir_phase; self.config.y_segments]);
        Ok(Some(TagVZoneSummary {
            id: obs.id,
            nadir_time_s: d.nadir_time_s,
            nadir_phase: d.nadir_phase,
            coarse,
            vzone_duration_s: d.vzone.duration(),
        }))
    }
}

/// The perpendicular distance the detection engine actually uses for an
/// input: the input's own surveyed value when it is usable, the
/// configured deployment guess otherwise. Exposed (crate-visibly through
/// [`StppConfig::effective_perpendicular_m`]) so serving layers can key
/// process-wide caches by the *effective* geometry.
fn effective_perpendicular_m(config: &StppConfig, input: &StppInput) -> f64 {
    input
        .perpendicular_distance_m
        .filter(|d| d.is_finite() && *d > 0.0)
        .unwrap_or(config.perpendicular_distance_m)
}

impl StppConfig {
    /// The perpendicular distance detection will use for `input`: the
    /// input's surveyed value if finite and positive, this config's
    /// deployment default otherwise. Serving layers key shared
    /// reference-bank caches by this value.
    pub fn effective_perpendicular_m(&self, input: &StppInput) -> f64 {
        effective_perpendicular_m(self, input)
    }
}

/// Assembles per-tag summaries (in observation order) into the final
/// result: the undetected list plus both axis orderings.
pub(crate) fn assemble_result(
    config: &StppConfig,
    input: &StppInput,
    per_tag: Vec<Option<TagVZoneSummary>>,
) -> Result<StppResult, LocalizationError> {
    debug_assert_eq!(per_tag.len(), input.observations.len());
    let mut summaries = Vec::new();
    let mut undetected = Vec::new();
    for (obs, summary) in input.observations.iter().zip(per_tag) {
        match summary {
            Some(s) => summaries.push(s),
            None => undetected.push(obs.id),
        }
    }
    if summaries.is_empty() {
        return Err(LocalizationError::NoDetections);
    }
    let engine = OrderingEngine { y_segments: config.y_segments, strategy: config.y_strategy };
    let order_x = engine.order_x(&summaries);
    let order_y = engine.order_y(&summaries);
    Ok(StppResult { order_x, order_y, summaries, undetected })
}

/// The relative localizer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RelativeLocalizer {
    /// The configuration in use.
    pub config: StppConfig,
}

impl RelativeLocalizer {
    /// Creates a localizer with the given configuration.
    pub fn new(config: StppConfig) -> Self {
        RelativeLocalizer { config }
    }

    /// Creates a localizer with the paper's default configuration.
    pub fn with_defaults() -> Self {
        RelativeLocalizer { config: StppConfig::default() }
    }

    /// Validates the input and constructs the per-request detection state
    /// (with a private reference-bank cache) without running detection.
    /// The construction/execution split lets callers time the stages
    /// separately and reuse caches across requests; see
    /// [`prepare_with_cache`](Self::prepare_with_cache).
    pub fn prepare<'a>(
        &self,
        input: &'a StppInput,
    ) -> Result<PreparedRequest<'a>, LocalizationError> {
        self.prepare_with_cache(input, ReferenceBankCache::shared())
    }

    /// [`prepare`](Self::prepare) with a caller-supplied reference-bank
    /// cache — the serving hook. The cache must be dedicated to this
    /// input's *effective geometry* (speed, wavelength,
    /// [`StppConfig::effective_perpendicular_m`], window, offset
    /// candidates, periods): its entries are keyed by sampling interval
    /// only, so mixing geometries in one cache returns wrong banks.
    pub fn prepare_with_cache<'a>(
        &self,
        input: &'a StppInput,
        cache: Arc<ReferenceBankCache>,
    ) -> Result<PreparedRequest<'a>, LocalizationError> {
        // `with_cache` runs `input.validate()` (non-empty observations,
        // usable geometry) before building the engine.
        let engine = DetectionEngine::with_cache(self.config, input, cache)?;
        Ok(PreparedRequest { config: self.config, input, engine })
    }

    /// [`prepare_with_cache`](Self::prepare_with_cache) for an input that
    /// lives behind an [`Arc`]: the returned request is `'static` and can
    /// be shared with a persistent worker pool (see
    /// [`SharedPreparedRequest`]).
    pub fn prepare_shared(
        &self,
        input: Arc<StppInput>,
        cache: Arc<ReferenceBankCache>,
    ) -> Result<SharedPreparedRequest, LocalizationError> {
        let engine = DetectionEngine::with_cache(self.config, &input, cache)?;
        Ok(SharedPreparedRequest { config: self.config, input, engine })
    }

    /// Runs the pipeline over the input.
    pub fn localize(&self, input: &StppInput) -> Result<StppResult, LocalizationError> {
        self.prepare(input)?.execute(1)
    }

    /// Convenience: run the full pipeline straight from a sweep recording.
    pub fn localize_recording(
        &self,
        recording: &SweepRecording,
    ) -> Result<StppResult, LocalizationError> {
        let input = StppInput::from_recording(recording)?;
        self.localize(&input)
    }
}

/// A validated localization request with its detection state constructed
/// but not yet run: the execution half of the
/// [`RelativeLocalizer::prepare`] split.
///
/// The stages can be driven separately ([`detect`](Self::detect) then
/// [`assemble`](Self::assemble)) so serving layers can attribute time to
/// detection vs ordering, or together via [`execute`](Self::execute).
/// Results are bit-identical for any thread count, and identical to
/// [`RelativeLocalizer::localize`].
pub struct PreparedRequest<'a> {
    config: StppConfig,
    input: &'a StppInput,
    engine: DetectionEngine,
}

impl<'a> PreparedRequest<'a> {
    /// The input this request was prepared for.
    pub fn input(&self) -> &'a StppInput {
        self.input
    }

    /// Runs per-tag V-zone detection with `threads` workers (1 = the
    /// sequential reference path on the calling thread). The returned
    /// vector is index-aligned with the input observations; `None` marks
    /// an undetected tag.
    pub fn detect(
        &self,
        threads: usize,
    ) -> Result<Vec<Option<TagVZoneSummary>>, LocalizationError> {
        crate::batch::detect_all(&self.engine, &self.input.observations, threads)
    }

    /// Assembles per-tag summaries (from [`detect`](Self::detect)) into
    /// the final ordered result.
    pub fn assemble(
        &self,
        per_tag: Vec<Option<TagVZoneSummary>>,
    ) -> Result<StppResult, LocalizationError> {
        assemble_result(&self.config, self.input, per_tag)
    }

    /// Detection plus assembly in one call.
    pub fn execute(&self, threads: usize) -> Result<StppResult, LocalizationError> {
        self.assemble(self.detect(threads)?)
    }
}

/// A prepared request that owns its input behind an [`Arc`], so detection
/// can be fanned across *persistent* worker threads (`'static` jobs)
/// instead of per-request scoped spawns.
///
/// This is the scratch-reuse half of the [`RelativeLocalizer::prepare`]
/// split: [`detect_slot`](Self::detect_slot) runs detection for one
/// observation into a caller-owned (long-lived) [`DetectScratch`], and
/// [`detect_with_scratch`](Self::detect_with_scratch) runs the whole
/// request sequentially through one scratch. A serving layer's worker
/// pool claims slot indices from a shared cursor, each worker detecting
/// into its own warmed-up scratch — zero per-request scratch allocations,
/// and per-worker [`DetectScratch::bank_stats`] deltas attribute
/// bank-cache traffic to the request exactly, even under concurrency.
///
/// Output is bit-identical to [`PreparedRequest`] /
/// [`RelativeLocalizer::localize`] regardless of how slots are
/// distributed: every slot computation is independent and lands in its
/// own index.
pub struct SharedPreparedRequest {
    config: StppConfig,
    input: Arc<StppInput>,
    engine: DetectionEngine,
}

impl SharedPreparedRequest {
    /// The input this request was prepared for.
    pub fn input(&self) -> &Arc<StppInput> {
        &self.input
    }

    /// Number of observations (valid `detect_slot` indices are
    /// `0..observation_count()`).
    pub fn observation_count(&self) -> usize {
        self.input.observations.len()
    }

    /// Runs V-zone detection for the observation at `index`, reusing the
    /// caller's scratch. `Ok(None)` marks the tag undetected, `Err` a
    /// malformed profile.
    ///
    /// # Panics
    ///
    /// Panics when `index >= observation_count()`.
    pub fn detect_slot(
        &self,
        index: usize,
        scratch: &mut DetectScratch,
    ) -> Result<Option<TagVZoneSummary>, LocalizationError> {
        self.engine.summarize(&self.input.observations[index], scratch)
    }

    /// Runs the whole request's detection sequentially through one
    /// long-lived scratch (the `threads = 1` reference path without the
    /// per-request scratch allocation). The returned vector is
    /// index-aligned with the observations.
    pub fn detect_with_scratch(
        &self,
        scratch: &mut DetectScratch,
    ) -> Result<Vec<Option<TagVZoneSummary>>, LocalizationError> {
        self.input.observations.iter().map(|obs| self.engine.summarize(obs, scratch)).collect()
    }

    /// Assembles per-tag summaries (index-aligned with the observations)
    /// into the final ordered result.
    pub fn assemble(
        &self,
        per_tag: Vec<Option<TagVZoneSummary>>,
    ) -> Result<StppResult, LocalizationError> {
        assemble_result(&self.config, &self.input, per_tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ordering_accuracy;
    use rfid_geometry::{GridLayout, RowLayout};
    use rfid_reader::{AntennaSweepParams, ReaderSimulation, ScenarioBuilder};

    fn run_row_sweep(count: usize, spacing: f64, seed: u64) -> (StppResult, Vec<u64>, Vec<u64>) {
        let layout = RowLayout::new(0.0, 0.0, spacing, count).build();
        let scenario = ScenarioBuilder::new(seed)
            .antenna_sweep(&layout, AntennaSweepParams::default())
            .unwrap();
        let truth_x = scenario.truth_order_x();
        let truth_y = scenario.truth_order_y();
        let recording = ReaderSimulation::new(scenario, seed).run();
        let result =
            RelativeLocalizer::with_defaults().localize_recording(&recording).expect("localize");
        (result, truth_x, truth_y)
    }

    #[test]
    fn orders_a_row_of_tags_along_x() {
        let (result, truth_x, _) = run_row_sweep(5, 0.1, 42);
        let acc = ordering_accuracy(&result.order_x, &truth_x);
        assert!(acc >= 0.8, "X ordering accuracy {acc} too low; order {:?}", result.order_x);
        assert_eq!(result.localized_count() + result.undetected.len(), 5);
    }

    #[test]
    fn orders_a_grid_along_both_axes() {
        // 3 columns x 2 rows, 10 cm apart in X and Y. Within a column the X
        // coordinates are identical (and within a row the Y coordinates
        // are), so instead of exact rank accuracy we check that the detected
        // orders respect every non-tied ground-truth pair.
        let layout = GridLayout::new(0.0, 0.0, 0.10, 0.10, 3, 2).build();
        let scenario =
            ScenarioBuilder::new(7).antenna_sweep(&layout, AntennaSweepParams::default()).unwrap();
        let positions: std::collections::HashMap<u64, (f64, f64)> = scenario
            .tags
            .iter()
            .map(|t| {
                let p = t.track.position_at(0.0);
                (t.id, (p.x, p.y))
            })
            .collect();
        let recording = ReaderSimulation::new(scenario, 7).run();
        let result =
            RelativeLocalizer::with_defaults().localize_recording(&recording).expect("localize");
        assert!(result.undetected.is_empty(), "undetected: {:?}", result.undetected);

        let pair_consistency = |order: &[u64], coord: fn(&(f64, f64)) -> f64| {
            let mut good = 0usize;
            let mut total = 0usize;
            for i in 0..order.len() {
                for j in i + 1..order.len() {
                    let a = coord(&positions[&order[i]]);
                    let b = coord(&positions[&order[j]]);
                    if (a - b).abs() < 1e-9 {
                        continue; // tied in ground truth: any order is fine
                    }
                    total += 1;
                    if a < b {
                        good += 1;
                    }
                }
            }
            good as f64 / total.max(1) as f64
        };
        let consistency_x = pair_consistency(&result.order_x, |p| p.0);
        let consistency_y = pair_consistency(&result.order_y, |p| p.1);
        assert!(consistency_x >= 0.75, "grid X pair consistency {consistency_x}");
        assert!(consistency_y >= 0.75, "grid Y pair consistency {consistency_y}");
    }

    #[test]
    fn input_from_recording_carries_speed_and_wavelength() {
        let layout = RowLayout::new(0.0, 0.0, 0.1, 3).build();
        let scenario =
            ScenarioBuilder::new(3).antenna_sweep(&layout, AntennaSweepParams::default()).unwrap();
        let recording = ReaderSimulation::new(scenario, 3).run();
        let input = StppInput::from_recording(&recording).unwrap();
        assert!(input.nominal_speed_mps > 0.05 && input.nominal_speed_mps < 0.2);
        assert!(input.wavelength_m > 0.3 && input.wavelength_m < 0.34);
        assert_eq!(input.observations.len(), 3);
    }

    #[test]
    fn closed_form_closest_approach_matches_dense_sampled_scan() {
        // Antenna-moving (manual speed profile) and conveyor scenarios:
        // the closed-form point-to-segment distance must agree with a
        // dense brute-force scan (which can only overestimate the true
        // minimum, and by very little at 10k steps).
        let layout = RowLayout::new(0.3, 0.0, 0.15, 4).build();
        let sweep =
            ScenarioBuilder::new(9).antenna_sweep(&layout, AntennaSweepParams::default()).unwrap();
        let conveyor = ScenarioBuilder::new(9)
            .conveyor(&layout, rfid_reader::ConveyorParams::default())
            .unwrap();
        for scenario in [&sweep, &conveyor] {
            let closed = closest_approach_m(scenario);
            let mut sampled = f64::INFINITY;
            let steps = 10_000;
            for tag in &scenario.tags {
                for i in 0..=steps {
                    let t = scenario.duration_s * i as f64 / steps as f64;
                    let d =
                        scenario.antenna_motion.position_at(t).distance(tag.track.position_at(t));
                    sampled = sampled.min(d);
                }
            }
            assert!(
                closed <= sampled + 1e-9 && (sampled - closed) < 1e-3,
                "closed-form {closed} vs sampled {sampled}"
            );
        }
    }

    #[test]
    fn empty_input_is_an_error() {
        let localizer = RelativeLocalizer::with_defaults();
        let input = StppInput {
            observations: Vec::new(),
            nominal_speed_mps: 0.1,
            wavelength_m: 0.326,
            perpendicular_distance_m: None,
        };
        assert_eq!(localizer.localize(&input), Err(LocalizationError::EmptyInput));
    }

    #[test]
    fn invalid_geometry_is_an_error() {
        let localizer = RelativeLocalizer::with_defaults();
        let obs = TagObservations {
            id: 0,
            epc: rfid_gen2::Epc::from_serial(0),
            profile: crate::profile::PhaseProfile::from_pairs(&[(0.0, 1.0); 20]),
        };
        let input = StppInput {
            observations: vec![obs],
            nominal_speed_mps: 0.0,
            wavelength_m: 0.326,
            perpendicular_distance_m: None,
        };
        assert!(matches!(localizer.localize(&input), Err(LocalizationError::InvalidGeometry(_))));
    }

    #[test]
    fn sparse_tags_are_reported_as_undetected() {
        let obs_good = TagObservations {
            id: 1,
            epc: rfid_gen2::Epc::from_serial(1),
            profile: crate::profile::PhaseProfile::from_pairs(
                &(0..400)
                    .map(|i| {
                        let t = i as f64 * 0.05;
                        let d = ((0.1 * t - 1.0f64).powi(2) + 0.09).sqrt();
                        (t, rfid_phys::wrap_phase(std::f64::consts::TAU * 2.0 * d / 0.326))
                    })
                    .collect::<Vec<_>>(),
            ),
        };
        let obs_sparse = TagObservations {
            id: 2,
            epc: rfid_gen2::Epc::from_serial(2),
            profile: crate::profile::PhaseProfile::from_pairs(&[(0.0, 1.0), (0.5, 1.2)]),
        };
        let input = StppInput {
            observations: vec![obs_good, obs_sparse],
            nominal_speed_mps: 0.1,
            wavelength_m: 0.326,
            perpendicular_distance_m: Some(0.3),
        };
        let result = RelativeLocalizer::with_defaults().localize(&input).unwrap();
        assert_eq!(result.undetected, vec![2]);
        assert_eq!(result.order_x, vec![1]);
    }

    #[test]
    fn error_messages_are_human_readable() {
        let e = LocalizationError::InvalidGeometry("speed 0".into());
        assert!(e.to_string().contains("speed 0"));
        assert!(LocalizationError::EmptyInput.to_string().contains("no tag"));
        assert!(LocalizationError::NoDetections.to_string().contains("V-zone"));
        let m = LocalizationError::MalformedProfile {
            id: 9,
            error: crate::vzone::DetectError::NonFiniteSample { index: 4 },
        };
        assert!(m.to_string().contains("tag 9") && m.to_string().contains("sample 4"));
    }

    #[test]
    fn malformed_profile_is_reported_not_panicked() {
        // A NaN timestamp smuggled past `from_pairs` (deserialization trust
        // level) must surface as a typed error naming the tag — the seed
        // pipeline panicked in the gap-median selection. The same error
        // must come back for any thread count (lowest offending
        // observation index wins in the batch path).
        use crate::profile::PhaseSample;
        let good = |id: u64| TagObservations {
            id,
            epc: rfid_gen2::Epc::from_serial(id),
            profile: crate::profile::PhaseProfile::from_pairs(
                &(0..80).map(|i| (i as f64 * 0.05, 1.0 + 0.02 * i as f64)).collect::<Vec<_>>(),
            ),
        };
        let mut samples: Vec<PhaseSample> =
            (0..80).map(|i| PhaseSample { time_s: i as f64 * 0.05, phase_rad: 1.0 }).collect();
        samples[11].time_s = f64::NAN;
        let bad = TagObservations {
            id: 5,
            epc: rfid_gen2::Epc::from_serial(5),
            profile: crate::profile::PhaseProfile::from_samples(samples),
        };
        let input = StppInput {
            observations: vec![good(1), bad, good(2)],
            nominal_speed_mps: 0.1,
            wavelength_m: 0.326,
            perpendicular_distance_m: Some(0.3),
        };
        let expected = Err(LocalizationError::MalformedProfile {
            id: 5,
            error: crate::vzone::DetectError::NonFiniteSample { index: 11 },
        });
        assert_eq!(RelativeLocalizer::with_defaults().localize(&input), expected);
        for threads in [1usize, 2, 4] {
            let batch = crate::batch::BatchLocalizer::new(StppConfig::default(), threads);
            assert_eq!(batch.localize(&input), expected, "threads = {threads}");
        }
    }

    #[test]
    fn wrap_boundary_tag_orders_correctly_among_normal_shelf() {
        // Regression (ROADMAP PR 3 follow-up): a tag whose bottom phase
        // hugs the 0/2π seam falls back to the quarter-wavelength cap
        // window in `refine_vzone`, while its neighbours stop at their
        // first genuine wrap — so the seed-era equal-count coarse
        // representation mixed window sizes *and* re-wrapped the boundary
        // tag's segment means across the seam, scattering them to ~0
        // while the neighbours' sat near 2π. The Y ordering then placed
        // the farthest tag nearest. The window-length-normalised
        // representation (fixed ±cap grid, means anchored at the fitted
        // bottom) must order the shelf correctly.
        let wl = 0.326f64;
        let speed = 0.1f64;
        let d_perps = [0.30f64, 0.31, 0.32];
        // Choose the hardware offset so the farthest tag's bottom phase
        // lands just below the seam (2π − 0.02: close enough that the
        // jitter wraps collapse the plain refinement walk below the
        // usable minimum and force the cap fallback, far enough that the
        // fitted bottom stays on a definite side of the seam). The mild
        // deterministic phase jitter is what makes the plain walk
        // collapse — the documented failure scenario. With the seed-era
        // equal-count representation this shelf orders [2, 0, 1]: the
        // boundary tag's cap-window outer segments unwrap past 2π, are
        // re-wrapped to ~0–1.5 rad, and drag the farthest tag to the
        // front of the Y order.
        let theta_raw = rfid_phys::wrap_phase(std::f64::consts::TAU * 2.0 * 0.32 / wl);
        let mu = rfid_phys::wrap_phase(std::f64::consts::TAU - 0.02 - theta_raw);
        let observations: Vec<TagObservations> = d_perps
            .iter()
            .enumerate()
            .map(|(i, &d_perp)| {
                let tag_x = 0.6 + 0.4 * i as f64;
                let pairs: Vec<(f64, f64)> = (0..600)
                    .map(|s| {
                        let t = s as f64 * 0.05;
                        let d = ((speed * t - tag_x).powi(2) + d_perp * d_perp).sqrt();
                        let jitter = 0.02 * (s as f64 * 7.31 + i as f64).sin();
                        (t, std::f64::consts::TAU * 2.0 * d / wl + mu + jitter)
                    })
                    .collect();
                TagObservations {
                    id: i as u64,
                    epc: rfid_gen2::Epc::from_serial(i as u64),
                    profile: crate::profile::PhaseProfile::from_pairs(&pairs),
                }
            })
            .collect();
        let input = StppInput {
            observations,
            nominal_speed_mps: speed,
            wavelength_m: wl,
            perpendicular_distance_m: Some(0.30),
        };
        let result = RelativeLocalizer::with_defaults().localize(&input).expect("localize");
        assert!(result.undetected.is_empty(), "undetected: {:?}", result.undetected);
        assert_eq!(result.order_x, vec![0, 1, 2]);
        assert_eq!(
            result.order_y,
            vec![0, 1, 2],
            "boundary-hugging tag must stay ordered by distance; summaries: {:?}",
            result.summaries.iter().map(|s| (s.id, s.coarse.clone())).collect::<Vec<_>>()
        );
    }

    #[test]
    fn shared_prepared_request_matches_one_shot_for_any_slot_distribution() {
        let layout = RowLayout::new(0.0, 0.0, 0.1, 5).build();
        let scenario =
            ScenarioBuilder::new(29).antenna_sweep(&layout, AntennaSweepParams::default()).unwrap();
        let recording = ReaderSimulation::new(scenario, 29).run();
        let input = Arc::new(StppInput::from_recording(&recording).unwrap());
        let localizer = RelativeLocalizer::with_defaults();
        let one_shot = localizer.localize(&input).expect("one-shot");

        let cache = crate::reference::ReferenceBankCache::shared();
        let shared = localizer.prepare_shared(input.clone(), cache.clone()).expect("prepare");
        assert_eq!(shared.observation_count(), 5);
        assert!(Arc::ptr_eq(shared.input(), &input));

        // Whole-request detection through one long-lived scratch.
        let mut scratch = crate::vzone::DetectScratch::new();
        let per_tag = shared.detect_with_scratch(&mut scratch).expect("detect");
        assert_eq!(shared.assemble(per_tag).expect("assemble"), one_shot);
        let first_pass = scratch.bank_stats();
        assert!(first_pass.builds > 0, "cold scratch must build banks");

        // Slot-by-slot detection in an adversarial order (reversed, as a
        // pool's claim order might interleave) reassembles identically,
        // and the warmed scratch + cache build nothing new.
        let mut per_tag: Vec<Option<crate::ordering::TagVZoneSummary>> = vec![None; 5];
        for index in (0..shared.observation_count()).rev() {
            per_tag[index] = shared.detect_slot(index, &mut scratch).expect("slot");
        }
        assert_eq!(shared.assemble(per_tag).expect("assemble"), one_shot);
        let second_pass = scratch.bank_stats().since(first_pass);
        assert_eq!(second_pass.builds, 0, "warm slots must build zero banks");
        assert!(second_pass.hits > 0, "warm slots must hit the bank cache");
        // A fresh scratch on the same shared cache also builds nothing:
        // its local counters record the hits exactly.
        let mut other = crate::vzone::DetectScratch::new();
        let _ = shared.detect_slot(0, &mut other).expect("slot");
        assert_eq!(other.bank_stats().builds, 0);
        assert!(other.bank_stats().hits > 0);
    }

    #[test]
    fn prepared_request_stages_match_one_shot_localize() {
        let layout = RowLayout::new(0.0, 0.0, 0.1, 4).build();
        let scenario =
            ScenarioBuilder::new(23).antenna_sweep(&layout, AntennaSweepParams::default()).unwrap();
        let recording = ReaderSimulation::new(scenario, 23).run();
        let input = StppInput::from_recording(&recording).unwrap();
        let localizer = RelativeLocalizer::with_defaults();
        let one_shot = localizer.localize(&input).expect("one-shot");
        let prepared = localizer.prepare(&input).expect("prepare");
        let per_tag = prepared.detect(1).expect("detect");
        let staged = prepared.assemble(per_tag).expect("assemble");
        assert_eq!(staged, one_shot);
        // The same prepared request re-executes (and a shared cache makes
        // the repeat build zero banks).
        let cache = crate::reference::ReferenceBankCache::shared();
        let warm = localizer.prepare_with_cache(&input, cache.clone()).expect("prepare");
        assert_eq!(warm.execute(2).expect("warm execute"), one_shot);
        let before = cache.stats();
        assert!(before.builds > 0, "first request must build banks");
        let again = localizer.prepare_with_cache(&input, cache.clone()).expect("prepare");
        assert_eq!(again.execute(1).expect("repeat execute"), one_shot);
        assert_eq!(cache.stats().since(before).builds, 0, "warm repeat must build no banks");
    }
}
