//! Seeded workload inputs and their in-process references.
//!
//! Everything a run sends is generated here from the `--seed` argument
//! before any server starts, together with the answer the in-process
//! pipeline gives for it. The wire answers are checked against these
//! references, so the benchmark measures only runs whose every answer is
//! right.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use stpp_apps::airport::{BaggageSimulation, TrafficPeriod};
use stpp_apps::library::{Bookshelf, BookshelfParams, MisplacedBookExperiment};
use stpp_core::{
    ordering_accuracy, BatchLocalizer, LocalizationError, RelativeLocalizer, StppConfig, StppInput,
    StppResult,
};
use stpp_serve::{
    GeometryKey, LocalizationService, ProvisionalOrdering, ServiceConfig, SessionGeometry,
    WireReport,
};

use crate::cli::Workload;
use crate::replay;

/// Closed-loop clients, one connection each (the benchmark host has two
/// CPUs).
pub const CLIENTS: usize = 2;
/// Distinct shelf sweeps per library run. Shelf sizes are stratified over
/// the 20–60 books-per-level range, so every seed sends the same size mix.
const LIBRARY_SHELVES: usize = 64;
/// Distinct portal batches per airport run.
const AIRPORT_BATCHES: usize = 128;
/// Bags on one conveyor belt stream.
const CONVEYOR_BAGS: usize = 200;
/// Reader time one `IngestReports` frame covers, seconds.
const FRAME_S: f64 = 0.25;

/// One `Localize` input with the answer the in-process pipeline gives.
#[derive(Debug, Clone)]
pub struct Batch {
    /// The request input.
    pub input: Arc<StppInput>,
    /// The in-process answer every wire answer must equal.
    pub reference: Result<StppResult, LocalizationError>,
    /// Exact-rank X accuracy of `reference` against ground truth.
    pub accuracy: f64,
    /// Reader samples in the input.
    pub samples: usize,
}

/// What a session answers to one flush.
#[derive(Debug, Clone, PartialEq)]
pub enum Flush {
    /// No tag was quiescent.
    Empty,
    /// Tags left and were localized.
    Released(StppResult),
    /// Tags left but could not be localized (e.g. `NoDetections`).
    Rejected(LocalizationError),
}

impl Flush {
    /// Whether the flush released at least one tag.
    pub fn released_tags(&self) -> bool {
        !matches!(self, Flush::Empty)
    }
}

/// The expected answers to one frame's three requests.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameOutcome {
    /// `Ingested::pending` after the frame.
    pub pending: u64,
    /// The `Provisional` ordering after the frame.
    pub provisional: ProvisionalOrdering,
    /// The `FlushSession { finish: false }` outcome after the poll.
    pub flush: Flush,
}

/// A reader report stream cut into `IngestReports` frames.
#[derive(Debug, Clone)]
pub struct Stream {
    /// The deployment geometry the session opens with.
    pub geometry: SessionGeometry,
    /// Non-empty frames of [`FRAME_S`] reader time, in time order.
    pub frames: Vec<Vec<WireReport>>,
    /// Expected answers per frame (conveyor streams only).
    pub expected: Vec<FrameOutcome>,
    /// Expected answer to `FlushSession { finish: true }`.
    pub finish: Option<Flush>,
}

/// Everything one run sends, with its references.
#[derive(Debug)]
pub struct Inputs {
    /// Which workload these inputs belong to.
    pub workload: Workload,
    /// `Localize` inputs. Library and airport clients send these; for the
    /// conveyor they are the batches its session flushes localize, used
    /// by the traced run's pipeline replay.
    pub batches: Vec<Batch>,
    /// The conveyor's belt streams, one per client.
    pub streams: Vec<Stream>,
    /// Distinct geometry keys the batches resolve to.
    pub geometries: usize,
    /// Distinct reference banks the batches use: (geometry, sampling
    /// interval) pairs.
    pub banks: usize,
}

/// A splitmix64 step: derives independent sub-seeds from the run seed.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z =
        (seed ^ index.wrapping_mul(0xd1b5_4a32_d192_ed03)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform fraction in `[0, 1)` from 64 mixed bits.
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// Generates the inputs of `workload` from `seed`.
pub fn generate(workload: Workload, seed: u64) -> Result<Inputs, String> {
    let (batches, streams) = match workload {
        Workload::LibraryShelf => (library(seed)?, Vec::new()),
        Workload::AirportPortal => (airport(seed)?, Vec::new()),
        Workload::ConveyorStream => conveyor(seed)?,
    };
    let banks: HashSet<(GeometryKey, u64)> =
        batches.iter().flat_map(|b| bank_keys(&b.input)).collect();
    let geometries: HashSet<GeometryKey> = banks.iter().map(|(key, _)| *key).collect();
    Ok(Inputs { workload, batches, streams, geometries: geometries.len(), banks: banks.len() })
}

/// The reference banks detecting `input` looks up: its geometry key with
/// the quantised sampling interval (as bits) of each tag with enough
/// reads.
pub fn bank_keys(input: &StppInput) -> HashSet<(GeometryKey, u64)> {
    let config = StppConfig::default();
    let key = GeometryKey::for_request(&config, input);
    let detector = replay::detector_for(input);
    input
        .observations
        .iter()
        .filter(|o| o.profile.len() >= config.min_reads)
        .filter_map(|o| detector.reference_interval(&o.profile))
        .map(|interval| (key, interval.to_bits()))
        .collect()
}

/// The in-process reference for a `Localize` input.
fn reference(input: &StppInput) -> Result<StppResult, String> {
    BatchLocalizer::with_available_parallelism(StppConfig::default())
        .localize(input)
        .map_err(|e| format!("in-process reference failed: {e}"))
}

fn samples(input: &StppInput) -> usize {
    input.observations.iter().map(|o| o.profile.len()).sum()
}

/// Cuts time-ordered reports into frames of [`FRAME_S`] reader time.
fn frames(reports: impl IntoIterator<Item = WireReport>) -> Vec<Vec<WireReport>> {
    let mut frames: Vec<Vec<WireReport>> = Vec::new();
    let mut frame_end = f64::NEG_INFINITY;
    for report in reports {
        if report.time_s >= frame_end {
            frame_end = ((report.time_s / FRAME_S).floor() + 1.0) * FRAME_S;
            frames.push(Vec::new());
        }
        frames.last_mut().expect("frame pushed above").push(report);
    }
    frames
}

fn geometry_of(input: &StppInput) -> SessionGeometry {
    SessionGeometry {
        nominal_speed_mps: input.nominal_speed_mps,
        wavelength_m: input.wavelength_m,
        perpendicular_distance_m: input.perpendicular_distance_m,
    }
}

impl Stream {
    /// Reports across every frame.
    pub fn reports(&self) -> usize {
        self.frames.iter().map(Vec::len).sum()
    }

    /// A `Localize` input's samples as the report stream a reader would
    /// have sent, for replays of the session layer on inputs that are not
    /// streamed on the wire.
    pub fn of_input(input: &StppInput) -> Stream {
        let mut reports: Vec<WireReport> = input
            .observations
            .iter()
            .flat_map(|o| {
                o.profile.samples().iter().map(|s| WireReport {
                    epc_serial: o.epc.serial(),
                    time_s: s.time_s,
                    phase_rad: s.phase_rad,
                })
            })
            .collect();
        reports.sort_by(|a, b| a.time_s.total_cmp(&b.time_s).then(a.epc_serial.cmp(&b.epc_serial)));
        Stream {
            geometry: geometry_of(input),
            frames: frames(reports),
            expected: Vec::new(),
            finish: None,
        }
    }
}

fn library(seed: u64) -> Result<Vec<Batch>, String> {
    let experiment = MisplacedBookExperiment::default();
    // Stratified shelf sizes in a seeded order.
    let mut sizes: Vec<usize> = (0..LIBRARY_SHELVES)
        .map(|i| {
            let u = unit(mix(seed, 2 * i as u64));
            20 + ((i as f64 + u) * 41.0 / LIBRARY_SHELVES as f64) as usize
        })
        .collect();
    for i in (1..sizes.len()).rev() {
        let j = (mix(seed, 2 * i as u64 + 1) % (i as u64 + 1)) as usize;
        sizes.swap(i, j);
    }
    let mut batches = Vec::new();
    for (i, &books) in sizes.iter().enumerate() {
        let shelf_seed = mix(seed ^ 0x11b7, i as u64);
        let params = BookshelfParams { books_per_level: books, ..BookshelfParams::default() };
        let shelf = Bookshelf::generate(params, shelf_seed);
        let recording = experiment
            .sweep_shelf(&shelf, shelf_seed)
            .ok_or_else(|| format!("shelf {i} produced no sweep"))?;
        let input = experiment.sweep_input(&recording).map_err(|e| format!("shelf {i}: {e}"))?;
        let reference = reference(&input)?;
        let accuracy = (0..shelf.params.levels)
            .map(|level| {
                let catalogue = shelf.catalogue_level(level).unwrap_or(&[]);
                let detected: Vec<u64> =
                    reference.order_x.iter().copied().filter(|id| catalogue.contains(id)).collect();
                ordering_accuracy(&detected, &shelf.physical_order(level))
            })
            .sum::<f64>()
            / shelf.params.levels.max(1) as f64;
        batches.push(Batch {
            samples: samples(&input),
            input: Arc::new(input),
            reference: Ok(reference),
            accuracy,
        });
    }
    Ok(batches)
}

/// Peak-period traffic, alternating the morning and evening peaks.
fn peak(i: usize) -> TrafficPeriod {
    if i.is_multiple_of(2) {
        TrafficPeriod::MorningPeak
    } else {
        TrafficPeriod::EveningPeak
    }
}

/// The tag-moving pass order is descending belt position, so the
/// detected X order is reversed before scoring against ascending truth.
fn belt_accuracy(order_x: &[u64], truth_ascending: &[u64]) -> f64 {
    let detected: Vec<u64> = order_x.iter().rev().copied().collect();
    ordering_accuracy(&detected, truth_ascending)
}

fn airport(seed: u64) -> Result<Vec<Batch>, String> {
    let simulation = BaggageSimulation::default();
    let mut batches = Vec::new();
    for i in 0..AIRPORT_BATCHES {
        let batch_seed = mix(seed ^ 0xa1b0, i as u64);
        let batch = simulation.generate_batch(peak(i), batch_seed);
        let recording = simulation
            .run_batch(&batch, batch_seed)
            .ok_or_else(|| format!("batch {i} produced no recording"))?;
        let input = simulation.portal_input(&recording).map_err(|e| format!("batch {i}: {e}"))?;
        let reference = reference(&input)?;
        let accuracy = belt_accuracy(&reference.order_x, &batch.truth_order);
        batches.push(Batch {
            samples: samples(&input),
            input: Arc::new(input),
            reference: Ok(reference),
            accuracy,
        });
    }
    Ok(batches)
}

fn conveyor(seed: u64) -> Result<(Vec<Batch>, Vec<Stream>), String> {
    let simulation =
        BaggageSimulation { bags_per_batch: CONVEYOR_BAGS, ..BaggageSimulation::default() };
    let service = LocalizationService::new(ServiceConfig::default());
    let mut batches = Vec::new();
    let mut streams = Vec::new();
    for i in 0..CLIENTS {
        let belt_seed = mix(seed ^ 0xc0b7, i as u64);
        let belt = simulation.generate_batch(peak(i), belt_seed);
        let recording = simulation
            .run_batch(&belt, belt_seed)
            .ok_or_else(|| format!("belt {i} produced no recording"))?;
        let input = simulation.portal_input(&recording).map_err(|e| format!("belt {i}: {e}"))?;
        let mut stream = Stream {
            geometry: geometry_of(&input),
            frames: frames(recording.stream.reports().iter().map(|r| WireReport {
                epc_serial: r.epc.serial(),
                time_s: r.time_s,
                phase_rad: r.phase_rad,
            })),
            expected: Vec::new(),
            finish: None,
        };
        let outcome = replay::replay_stream(&service, &stream, None)?;
        let belt_x: BTreeMap<u64, f64> = belt.layout.iter().map(|(id, p)| (id, p.x)).collect();
        for released in outcome.released {
            let mut truth: Vec<u64> = released.ids.clone();
            truth.sort_by(|a, b| belt_x[a].total_cmp(&belt_x[b]));
            let reference = match released.flush {
                Flush::Released(result) => Ok(result),
                Flush::Rejected(error) => Err(error),
                Flush::Empty => unreachable!("a release has tags"),
            };
            let order_x = reference.as_ref().map_or(&[][..], |r| r.order_x.as_slice());
            let accuracy = belt_accuracy(order_x, &truth);
            // The rebuilt batch must localize to exactly what the session
            // answered, or the pipeline replay would time another input.
            let rebuilt = RelativeLocalizer::with_defaults().localize(&released.input);
            if rebuilt != reference {
                return Err(format!("belt {i}: a rebuilt flush batch localizes differently"));
            }
            batches.push(Batch {
                samples: samples(&released.input),
                input: released.input,
                reference,
                accuracy,
            });
        }
        stream.expected = outcome.frames;
        stream.finish = outcome.finish;
        streams.push(stream);
    }
    Ok((batches, streams))
}
