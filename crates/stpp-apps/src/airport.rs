//! Baggage handling in an airport (Section 5.2 of the paper).
//!
//! Bags ride a conveyor belt past a portal antenna; the handling system
//! needs the order in which bags pass so it can route them. The paper
//! evaluates three traffic periods at Sanya Phoenix airport: during peak
//! hours bags arrive nearly back-to-back (gaps under 20 cm), off-peak they
//! are spread out. This module generates per-period bag flows, orders each
//! batch of bags with a configurable scheme (STPP by default), and measures
//! both ordering accuracy and the ordering latency per batch.

use std::sync::Arc;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rfid_geometry::{Point3, TagLayout};
use rfid_reader::{ConveyorParams, ReaderSimulation, ScenarioBuilder, SweepRecording};
use serde::{Deserialize, Serialize};
use stpp_core::{ordering_accuracy, LocalizationError, RelativeLocalizer, StppConfig, StppInput};
use stpp_serve::{
    ClientError, LocalizationService, RequestMetrics, ResilientError, RetryPolicy, ServiceConfig,
    StppClient,
};

/// The airport's traffic periods, with the bag-gap statistics the paper
/// reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrafficPeriod {
    /// 07:00–09:00 — peak, bags typically closer than 20 cm.
    MorningPeak,
    /// 13:00–15:00 — off-peak, generous gaps.
    MiddayOffPeak,
    /// 19:00–21:00 — peak again.
    EveningPeak,
}

impl TrafficPeriod {
    /// All three periods, in the paper's order.
    pub fn all() -> [TrafficPeriod; 3] {
        [TrafficPeriod::MorningPeak, TrafficPeriod::MiddayOffPeak, TrafficPeriod::EveningPeak]
    }

    /// Human-readable label matching the paper's table header.
    pub fn label(&self) -> &'static str {
        match self {
            TrafficPeriod::MorningPeak => "7:00-9:00",
            TrafficPeriod::MiddayOffPeak => "13:00-15:00",
            TrafficPeriod::EveningPeak => "19:00-21:00",
        }
    }

    /// Range of gaps between consecutive bags (metres) in this period.
    pub fn gap_range_m(&self) -> (f64, f64) {
        match self {
            TrafficPeriod::MorningPeak => (0.05, 0.20),
            TrafficPeriod::MiddayOffPeak => (0.20, 0.60),
            TrafficPeriod::EveningPeak => (0.05, 0.18),
        }
    }

    /// Number of bags the paper handled in this period (sets the scale of
    /// the reproduction).
    pub fn paper_bag_count(&self) -> usize {
        match self {
            TrafficPeriod::MorningPeak => 400,
            TrafficPeriod::MiddayOffPeak => 230,
            TrafficPeriod::EveningPeak => 440,
        }
    }
}

/// One batch of bags passing the portal together (the set of tags that
/// share the reading zone).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaggageBatch {
    /// Which period the batch belongs to.
    pub period: TrafficPeriod,
    /// The layout of bag tags on the belt (X = along the belt, Y = lateral
    /// offset of the tag on the bag).
    pub layout: TagLayout,
    /// Ground-truth bag order along the belt.
    pub truth_order: Vec<u64>,
}

/// The result of ordering one batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchResult {
    /// Ordering accuracy for the batch.
    pub accuracy: f64,
    /// Number of bags in the batch.
    pub bags: usize,
    /// Number of bags ordered correctly.
    pub correct: usize,
    /// Wall-clock time spent computing the ordering (the paper's "ordering
    /// latency"), seconds.
    pub latency_s: f64,
}

/// The baggage-handling simulation.
#[derive(Debug, Clone)]
pub struct BaggageSimulation {
    /// STPP configuration used for ordering.
    pub stpp: StppConfig,
    /// Conveyor geometry (belt speed 0.3 m/s, antenna 1 m away and 1 m
    /// above, as in the paper).
    pub conveyor: ConveyorParams,
    /// Number of bags per batch (how many share the reading zone).
    pub bags_per_batch: usize,
    /// Lateral jitter of the tag position across the belt, metres.
    pub lateral_jitter_m: f64,
}

impl Default for BaggageSimulation {
    fn default() -> Self {
        BaggageSimulation {
            stpp: StppConfig::default(),
            conveyor: ConveyorParams::default(),
            bags_per_batch: 6,
            lateral_jitter_m: 0.10,
        }
    }
}

impl BaggageSimulation {
    /// Generates one batch of bags for a traffic period.
    pub fn generate_batch(&self, period: TrafficPeriod, seed: u64) -> BaggageBatch {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (gap_min, gap_max) = period.gap_range_m();
        let mut layout = TagLayout::new();
        let mut x = 0.0;
        for id in 0..self.bags_per_batch as u64 {
            let lateral = rng.gen_range(0.0..self.lateral_jitter_m.max(1e-6));
            layout.push(id, Point3::new(x, lateral, 0.0));
            x += rng.gen_range(gap_min..gap_max);
        }
        let truth_order = layout.order_along_x();
        BaggageBatch { period, layout, truth_order }
    }

    /// Runs the conveyor sweep for one batch and returns the recording.
    pub fn run_batch(&self, batch: &BaggageBatch, seed: u64) -> Option<SweepRecording> {
        let scenario = ScenarioBuilder::new(seed)
            .with_name(format!("baggage batch ({})", batch.period.label()))
            .conveyor(&batch.layout, self.conveyor)?;
        Some(ReaderSimulation::new(scenario, seed).run())
    }

    /// Orders one batch with STPP and scores it.
    ///
    /// Note on the belt direction: a bag placed further back on the belt
    /// (larger layout X) passes the antenna *later*, and STPP orders bags by
    /// the time they pass — so the detected X order is compared directly
    /// against the layout order.
    pub fn order_batch(&self, batch: &BaggageBatch, recording: &SweepRecording) -> BatchResult {
        let started = std::time::Instant::now();
        let result = RelativeLocalizer::new(self.stpp).localize_recording(recording);
        let latency = started.elapsed().as_secs_f64();
        Self::score_batch(batch, result.ok().map(|r| r.order_x), latency)
    }

    /// Scores a detected pass order against a batch's ground truth. In
    /// the tag-moving case the *later* a bag passes the antenna the
    /// further back on the belt it is, and the belt moves toward +X, so
    /// passing order equals descending layout X: the detected order is
    /// reversed before comparing against the ascending-X ground truth.
    /// `None` (localization failed) scores as an empty detection.
    fn score_batch(batch: &BaggageBatch, order_x: Option<Vec<u64>>, latency_s: f64) -> BatchResult {
        let detected: Vec<u64> = order_x.map(|o| o.into_iter().rev().collect()).unwrap_or_default();
        let accuracy = ordering_accuracy(&detected, &batch.truth_order);
        let correct = (accuracy * batch.truth_order.len() as f64).round() as usize;
        BatchResult { accuracy, bags: batch.truth_order.len(), correct, latency_s }
    }

    /// The deterministic per-batch seed of a period run (shared by the
    /// per-run and service paths so they replay identical traffic).
    fn batch_seed(seed: u64, index: usize) -> u64 {
        seed.wrapping_add(index as u64 * 7919)
    }

    /// Runs `batches` consecutive batches of a period and aggregates the
    /// results. Returns the per-batch results.
    pub fn run_period(&self, period: TrafficPeriod, batches: usize, seed: u64) -> Vec<BatchResult> {
        (0..batches)
            .filter_map(|i| {
                let batch_seed = Self::batch_seed(seed, i);
                let batch = self.generate_batch(period, batch_seed);
                let recording = self.run_batch(&batch, batch_seed)?;
                Some(self.order_batch(&batch, &recording))
            })
            .collect()
    }

    /// The surveyed portal geometry: perpendicular distance from the
    /// antenna to the belt centre line, metres. Every batch the portal
    /// sees shares this value, so requests built from it resolve to one
    /// geometry key and ride the warm reference banks.
    pub fn portal_perpendicular_m(&self) -> f64 {
        (self.conveyor.antenna_standoff_y.powi(2) + self.conveyor.antenna_height_z.powi(2)).sqrt()
    }

    /// A localization service configured for this portal (share it across
    /// every batch of the deployment).
    pub fn portal_service(&self) -> Arc<LocalizationService> {
        LocalizationService::new(ServiceConfig { stpp: self.stpp, ..ServiceConfig::default() })
    }

    /// The service input for one batch recording: measured profiles plus
    /// the *deployment-configured* portal geometry — the surveyed
    /// perpendicular distance and the belt speed — instead of the
    /// per-batch measured values. The measured closest approach wobbles
    /// with each bag's lateral jitter, and the speed measured from a
    /// bag's track differs from the belt speed in its last bits; the
    /// service keys its geometry cache on exact bits, so either would
    /// split one portal across several cache entries.
    pub fn portal_input(&self, recording: &SweepRecording) -> Result<StppInput, LocalizationError> {
        let mut input = StppInput::from_recording(recording)?;
        input.nominal_speed_mps = self.conveyor.belt_speed;
        input.perpendicular_distance_m = Some(self.portal_perpendicular_m());
        Ok(input)
    }

    /// [`order_batch`](Self::order_batch) through a long-lived
    /// [`LocalizationService`]: same scoring, but batches after the first
    /// skip reference-bank construction entirely. Returns the request
    /// metrics alongside (absent when the batch failed to localize).
    pub fn order_batch_with_service(
        &self,
        service: &LocalizationService,
        batch: &BaggageBatch,
        recording: &SweepRecording,
    ) -> (BatchResult, Option<RequestMetrics>) {
        let started = std::time::Instant::now();
        let response =
            self.portal_input(recording).and_then(|input| service.localize(Arc::new(input)));
        let latency = started.elapsed().as_secs_f64();
        let (order_x, metrics) = match response {
            Ok(r) => (Some(r.result.order_x), Some(r.metrics)),
            Err(_) => (None, None),
        };
        (Self::score_batch(batch, order_x, latency), metrics)
    }

    /// [`order_batch_with_service`](Self::order_batch_with_service) over
    /// the wire: the portal forwards the batch to a shared
    /// [`StppServer`](stpp_serve::StppServer) instead of owning a
    /// localization process. A [`LocalizeReply::Busy`](stpp_serve::LocalizeReply::Busy) backpressure
    /// rejection is retried under the default [`RetryPolicy`] budget — a
    /// portal must order every batch eventually, backpressure only delays
    /// it, but a server saturated for the whole budget yields a typed
    /// [`ResilientError::BudgetExhausted`] instead of blocking the belt
    /// forever; transport failures surface as
    /// [`ResilientError::Fatal`].
    pub fn order_batch_with_client(
        &self,
        client: &mut StppClient,
        batch: &BaggageBatch,
        recording: &SweepRecording,
    ) -> Result<(BatchResult, Option<RequestMetrics>), ResilientError> {
        let started = std::time::Instant::now();
        let Ok(input) = self.portal_input(recording) else {
            let latency = started.elapsed().as_secs_f64();
            return Ok((Self::score_batch(batch, None, latency), None));
        };
        let response = client.localize_retrying(&input, None, &RetryPolicy::default());
        let latency = started.elapsed().as_secs_f64();
        let (order_x, metrics) = match response {
            Ok(r) => (Some(r.result.order_x), Some(r.metrics)),
            Err(ResilientError::Fatal(ClientError::Rejected(_))) => (None, None),
            Err(e) => return Err(e),
        };
        Ok((Self::score_batch(batch, order_x, latency), metrics))
    }

    /// [`run_period`](Self::run_period) against a remote server — the
    /// networked portal's continuous operation.
    pub fn run_period_with_client(
        &self,
        client: &mut StppClient,
        period: TrafficPeriod,
        batches: usize,
        seed: u64,
    ) -> Result<Vec<(BatchResult, Option<RequestMetrics>)>, ResilientError> {
        (0..batches)
            .filter_map(|i| {
                let batch_seed = Self::batch_seed(seed, i);
                let batch = self.generate_batch(period, batch_seed);
                let recording = self.run_batch(&batch, batch_seed)?;
                Some(self.order_batch_with_client(client, &batch, &recording))
            })
            .collect()
    }

    /// [`run_period`](Self::run_period) against one shared service — the
    /// portal's continuous operation.
    pub fn run_period_with_service(
        &self,
        service: &LocalizationService,
        period: TrafficPeriod,
        batches: usize,
        seed: u64,
    ) -> Vec<(BatchResult, Option<RequestMetrics>)> {
        (0..batches)
            .filter_map(|i| {
                let batch_seed = Self::batch_seed(seed, i);
                let batch = self.generate_batch(period, batch_seed);
                let recording = self.run_batch(&batch, batch_seed)?;
                Some(self.order_batch_with_service(service, &batch, &recording))
            })
            .collect()
    }

    /// Aggregate accuracy over a set of batch results, expressed the way
    /// the paper's Table 3 reports it: correctly ordered bags / total bags.
    pub fn aggregate_accuracy(results: &[BatchResult]) -> (usize, usize, f64) {
        let correct: usize = results.iter().map(|r| r.correct).sum();
        let total: usize = results.iter().map(|r| r.bags).sum();
        let accuracy = if total == 0 { 1.0 } else { correct as f64 / total as f64 };
        (correct, total, accuracy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_periods_have_sensible_parameters() {
        for period in TrafficPeriod::all() {
            let (lo, hi) = period.gap_range_m();
            assert!(lo > 0.0 && lo < hi);
            assert!(!period.label().is_empty());
            assert!(period.paper_bag_count() > 100);
        }
        // Peak gaps are tighter than off-peak gaps.
        assert!(
            TrafficPeriod::MorningPeak.gap_range_m().1
                < TrafficPeriod::MiddayOffPeak.gap_range_m().1
        );
    }

    #[test]
    fn generated_batches_match_configuration() {
        let sim = BaggageSimulation { bags_per_batch: 5, ..BaggageSimulation::default() };
        let batch = sim.generate_batch(TrafficPeriod::MorningPeak, 1);
        assert_eq!(batch.layout.len(), 5);
        assert_eq!(batch.truth_order.len(), 5);
        // Bags are laid out in increasing X (they were pushed in order).
        assert_eq!(batch.truth_order, vec![0, 1, 2, 3, 4]);
        // Deterministic given the seed.
        let again = sim.generate_batch(TrafficPeriod::MorningPeak, 1);
        assert_eq!(batch, again);
    }

    #[test]
    fn end_to_end_batch_ordering_is_accurate_off_peak() {
        let sim = BaggageSimulation { bags_per_batch: 4, ..BaggageSimulation::default() };
        let batch = sim.generate_batch(TrafficPeriod::MiddayOffPeak, 11);
        let recording = sim.run_batch(&batch, 11).expect("conveyor sweep");
        let result = sim.order_batch(&batch, &recording);
        assert_eq!(result.bags, 4);
        assert!(
            result.accuracy >= 0.75,
            "off-peak accuracy {} (correct {}/{})",
            result.accuracy,
            result.correct,
            result.bags
        );
        assert!(result.latency_s >= 0.0);
    }

    #[test]
    fn service_port_reuses_banks_across_batches() {
        // Consecutive portal batches share the deployment geometry. A
        // first pass over the period warms the bank cache (batches can
        // differ in their quantised sampling interval, so the warm-up may
        // build more than one bank); re-running the same period must then
        // perform zero constructions — the portal's steady state — while
        // ordering quality holds up.
        let sim = BaggageSimulation { bags_per_batch: 4, ..BaggageSimulation::default() };
        let service = sim.portal_service();
        let warmup = sim.run_period_with_service(&service, TrafficPeriod::MiddayOffPeak, 3, 11);
        assert_eq!(warmup.len(), 3);
        assert!(
            warmup[0].1.expect("first batch metrics").bank_cache.builds > 0,
            "first batch must build banks"
        );
        assert_eq!(service.cached_geometries(), 1, "one portal geometry");

        let steady = sim.run_period_with_service(&service, TrafficPeriod::MiddayOffPeak, 3, 11);
        let (correct, total, accuracy) = BaggageSimulation::aggregate_accuracy(
            &steady.iter().map(|(r, _)| r.clone()).collect::<Vec<_>>(),
        );
        assert!(
            accuracy >= 0.7,
            "service-path off-peak accuracy {accuracy} (correct {correct}/{total})"
        );
        for (i, (_, metrics)) in steady.iter().enumerate() {
            let m = metrics.expect("batch metrics");
            assert!(m.geometry_cache_hit, "steady batch {i} must hit the geometry cache");
            assert_eq!(m.bank_cache.builds, 0, "steady batch {i} must build zero banks");
        }
    }

    #[test]
    fn peak_traffic_shares_one_portal_geometry() {
        // Every batch of a period goes through the same portal, so every
        // request must resolve to one geometry key, whatever the bags'
        // tracks measured.
        let sim = BaggageSimulation::default();
        let service = sim.portal_service();
        let results = sim.run_period_with_service(&service, TrafficPeriod::MorningPeak, 32, 7);
        assert_eq!(results.len(), 32);
        assert_eq!(service.cached_geometries(), 1, "one portal, one geometry");
    }

    #[test]
    fn networked_portal_matches_the_in_process_service_path() {
        // The same traffic ordered through a remote server must score
        // identically to the in-process service path (the results are
        // bit-identical; only latency differs), and the second pass over
        // the period must ride the server's warm banks.
        let sim = BaggageSimulation { bags_per_batch: 4, ..BaggageSimulation::default() };
        let in_process: Vec<BatchResult> = sim
            .run_period_with_service(&sim.portal_service(), TrafficPeriod::MiddayOffPeak, 2, 11)
            .into_iter()
            .map(|(r, _)| r)
            .collect();

        let server = stpp_serve::StppServer::bind(
            "127.0.0.1:0",
            sim.portal_service(),
            stpp_serve::ServerConfig::default(),
        )
        .expect("bind");
        let handle = server.spawn().expect("spawn");
        let mut client = StppClient::connect(handle.addr()).expect("connect");
        let wire = sim
            .run_period_with_client(&mut client, TrafficPeriod::MiddayOffPeak, 2, 11)
            .expect("wire period");
        assert_eq!(wire.len(), in_process.len());
        for (i, ((wire_result, metrics), local_result)) in wire.iter().zip(&in_process).enumerate()
        {
            assert_eq!(wire_result.accuracy, local_result.accuracy, "batch {i}");
            assert_eq!(wire_result.correct, local_result.correct, "batch {i}");
            assert_eq!(wire_result.bags, local_result.bags, "batch {i}");
            assert!(metrics.is_some(), "batch {i} must return metrics over the wire");
        }
        let steady = sim
            .run_period_with_client(&mut client, TrafficPeriod::MiddayOffPeak, 2, 11)
            .expect("steady period");
        for (i, (_, metrics)) in steady.iter().enumerate() {
            let m = metrics.expect("steady batch metrics");
            assert!(m.geometry_cache_hit, "steady batch {i} must hit the geometry cache");
            assert_eq!(m.bank_cache.builds, 0, "steady batch {i} must build zero banks");
        }
        client.shutdown().expect("shutdown");
        handle.join().expect("server exits");
    }

    #[test]
    fn aggregate_accuracy_sums_batches() {
        let results = vec![
            BatchResult { accuracy: 1.0, bags: 4, correct: 4, latency_s: 0.1 },
            BatchResult { accuracy: 0.5, bags: 4, correct: 2, latency_s: 0.1 },
        ];
        let (correct, total, acc) = BaggageSimulation::aggregate_accuracy(&results);
        assert_eq!(correct, 6);
        assert_eq!(total, 8);
        assert!((acc - 0.75).abs() < 1e-12);
        assert_eq!(BaggageSimulation::aggregate_accuracy(&[]).2, 1.0);
    }
}
