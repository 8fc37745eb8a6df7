//! Criterion benchmarks for the STPP reproduction.
//!
//! Groups:
//! * `dtw` — full vs segmented DTW for several window sizes `w`
//!   (paper Section 3.1.2 / Figure 12 latency side), and the lockstep
//!   candidate screen on its own.
//! * `vzone` — V-zone detection per tag profile.
//! * `ordering` — pivot vs pairwise Y ordering (Section 3.2.2).
//! * `pipeline` — end-to-end localization for growing populations
//!   (context for Figure 23 / Table 1).
//! * `simulation` — sweep simulation cost (the substrate itself).
//! * `proto` — frame decoding: the hot frames the serving benchmark's
//!   workloads send, read through `decode_frame`.
//! * `pool` — one warm `LocalizationService::localize` of a conveyor-sized
//!   flush: one tag (detected on the calling thread alone) and six tags
//!   (the caller plus one pool helper).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use stpp_bench::{baseline, benchmark_recording};
use stpp_core::{
    dtw_full, dtw_screen_lockstep, dtw_segmented_features_into, dtw_segmented_into,
    dtw_segmented_with_penalty, ordering::OrderingEngine, ordering::YOrderingStrategy,
    BatchLocalizer, DetectScratch, DtwScratch, PhaseProfile, ReferenceBank, ReferenceBankCache,
    ReferenceProfile, ReferenceProfileParams, RelativeLocalizer, SegmentFeatures, SegmentedProfile,
    StppConfig, StppInput, TagObservations, VZoneDetector,
};
use stpp_serve::proto::{decode_frame, encode_frame};
use stpp_serve::{LocalizationService, Request, Response, ServiceConfig, WireReport};

fn measured_profile() -> PhaseProfile {
    let recording = benchmark_recording(1, 0.1, 7);
    TagObservations::from_recording(&recording)
        .into_iter()
        .next()
        .expect("one tag observed")
        .profile
}

fn reference_profile(interval: f64) -> ReferenceProfile {
    ReferenceProfile::generate(
        ReferenceProfileParams::new(0.1, 0.35, 0.3256).with_sample_interval(interval),
    )
    .expect("valid reference parameters")
}

fn bench_dtw(c: &mut Criterion) {
    let measured = measured_profile();
    let reference = reference_profile(measured.median_sample_interval().unwrap_or(0.02));
    let mut group = c.benchmark_group("dtw");

    group.bench_function("full", |b| {
        let r = reference.profile.phases();
        let m = measured.phases();
        b.iter(|| black_box(dtw_full(&r, &m)))
    });
    for w in [3usize, 5, 10] {
        group.bench_with_input(BenchmarkId::new("segmented", w), &w, |b, &w| {
            let rs = SegmentedProfile::build(&reference.profile, w);
            let ms = SegmentedProfile::build(&measured, w);
            b.iter(|| black_box(dtw_segmented_with_penalty(&rs, &ms, true, 0.5)))
        });
    }
    group.bench_function("segmented_scratch_reuse", |b| {
        let rs = SegmentedProfile::build(&reference.profile, 5);
        let ms = SegmentedProfile::build(&measured, 5);
        let mut scratch = DtwScratch::new();
        b.iter(|| black_box(dtw_segmented_into(&rs, &ms, true, 0.5, None, &mut scratch)))
    });
    group.bench_function("lockstep_screen", |b| {
        // The detector's candidate screen alone, without the seed
        // alignment, survivor re-alignment, refinement or fitting that
        // `vzone/detect_cached` also times: the detection's winning
        // candidate is the seed, and its normalised cost sets the abandon
        // limits of the other candidates, as on a hinted detection.
        let detector = VZoneDetector::new(ReferenceProfileParams::new(0.1, 0.35, 0.3256));
        let interval = detector.reference_interval(&measured).expect("a sampled profile");
        let params =
            ReferenceProfileParams { sample_interval_s: interval, ..detector.reference_params };
        let bank = ReferenceBank::build(params, detector.window, detector.offset_candidates)
            .expect("a valid geometry");
        let seed = detector
            .detect(&measured)
            .expect("a well-formed profile")
            .and_then(|d| d.offset_index)
            .expect("the profile has a V-zone");
        let features =
            SegmentFeatures::from_segmented(&SegmentedProfile::build(&measured, detector.window));
        let penalty = detector.gap_penalty_per_second;
        let mut scratch = DtwScratch::new();
        let seed_features = &bank.patterns[seed].features;
        let seed_norm = dtw_segmented_features_into(
            seed_features,
            &features,
            true,
            penalty,
            None,
            &mut scratch,
        )
        .expect("the seed aligns")
            / seed_features.len() as f64;
        let others: Vec<&SegmentFeatures> = (0..bank.patterns.len())
            .filter(|&k| k != seed)
            .map(|k| &bank.patterns[k].features)
            .collect();
        let limits: Vec<f64> =
            others.iter().map(|f| seed_norm.next_up() * f.len() as f64).collect();
        let mut out = Vec::new();
        b.iter(|| {
            dtw_screen_lockstep(
                &others,
                |f| f,
                &features,
                penalty,
                &limits,
                &mut scratch,
                &mut out,
            );
            black_box(out.len())
        })
    });
    group.finish();
}

fn bench_vzone_detection(c: &mut Criterion) {
    let measured = measured_profile();
    let detector = VZoneDetector::new(ReferenceProfileParams::new(0.1, 0.35, 0.3256));
    let mut group = c.benchmark_group("vzone");
    group
        .bench_function("detect_one_profile", |b| b.iter(|| black_box(detector.detect(&measured))));
    group.bench_function("detect_cached", |b| {
        let cache = ReferenceBankCache::new();
        let mut scratch = DetectScratch::new();
        b.iter(|| black_box(detector.detect_cached(&measured, &cache, &mut scratch)))
    });
    group.finish();
}

fn bench_ordering(c: &mut Criterion) {
    // Build summaries once from a real recording, then benchmark only the
    // ordering stage with both strategies.
    let recording = benchmark_recording(10, 0.08, 11);
    let input = StppInput::from_recording(&recording).expect("valid input");
    let result = RelativeLocalizer::with_defaults().localize(&input).expect("localize");
    let summaries = result.summaries;
    let mut group = c.benchmark_group("ordering");
    for (name, strategy) in
        [("pivot", YOrderingStrategy::Pivot), ("pairwise", YOrderingStrategy::Pairwise)]
    {
        group.bench_function(name, |b| {
            let engine = OrderingEngine { y_segments: 8, strategy };
            b.iter(|| black_box(engine.order_y(&summaries)))
        });
    }
    group.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    for tags in [5usize, 15, 30] {
        let recording = benchmark_recording(tags, 0.06, 21);
        group.bench_with_input(BenchmarkId::new("localize", tags), &tags, |b, _| {
            let localizer = RelativeLocalizer::with_defaults();
            b.iter(|| black_box(localizer.localize_recording(&recording)))
        });
    }
    // Frozen seed implementation vs the production batch path at one size.
    let recording = benchmark_recording(30, 0.06, 21);
    let input = StppInput::from_recording(&recording).expect("valid input");
    group.bench_function("seed_baseline/30", |b| {
        b.iter(|| black_box(baseline::seed_localize(&input)))
    });
    group.bench_function("batch/30", |b| {
        let localizer = BatchLocalizer::with_available_parallelism(StppConfig::default());
        b.iter(|| black_box(localizer.localize(&input)))
    });
    group.finish();
}

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    for tags in [5usize, 20] {
        group.bench_with_input(BenchmarkId::new("sweep", tags), &tags, |b, &tags| {
            b.iter(|| black_box(benchmark_recording(tags, 0.06, 31)))
        });
    }
    group.finish();
}

/// One frame of each hot shape: a shelf sweep's `Localize` request, a
/// conveyor stream's `IngestReports` frame and the `Localized` answer to
/// the shelf request.
fn bench_proto(c: &mut Criterion) {
    let mut group = c.benchmark_group("proto");
    // 36 tags of about 126 samples each: 4.5k samples, a mid-sized shelf.
    let input = StppInput::from_recording(&benchmark_recording(36, 0.06, 21)).expect("valid input");
    let request = Request::Localize { input: input.clone(), threads: None };
    let localize = encode_frame(&request).expect("encode");
    group.bench_function("localize", |b| b.iter(|| black_box(decode_frame::<Request>(&localize))));

    let reports = (0..36u64)
        .map(|i| WireReport {
            epc_serial: i % 12,
            time_s: 0.05 * i as f64,
            phase_rad: (0.37 * i as f64) % std::f64::consts::TAU,
        })
        .collect();
    let ingest = encode_frame(&Request::IngestReports { session: 1, reports }).expect("encode");
    group.bench_function("ingest_reports/36", |b| {
        b.iter(|| black_box(decode_frame::<Request>(&ingest)))
    });

    let response =
        LocalizationService::with_defaults().localize(Arc::new(input)).expect("localize");
    let localized = encode_frame(&Response::Localized { response }).expect("encode");
    group.bench_function("localized", |b| {
        b.iter(|| black_box(decode_frame::<Response>(&localized)))
    });
    group.finish();
}

/// `tags` bags 0.3 m apart passing a portal antenna 0.5 m away at
/// 0.5 m/s, each read at 50 Hz within 0.6 m of its closest approach
/// (61 noiseless samples a tag): the size of a conveyor flush's tags.
/// The tag ids and EPCs come from a benchmark sweep of as many tags.
fn flush_input(tags: usize) -> Arc<StppInput> {
    let (speed, d_perp, wavelength) = (0.5f64, 0.5f64, 0.3256f64);
    let observations: Vec<TagObservations> =
        TagObservations::from_recording(&benchmark_recording(tags, 0.3, 41))
            .into_iter()
            .enumerate()
            .map(|(slot, tag)| {
                let pass_s = (1.0 + 0.3 * slot as f64) / speed;
                let pairs: Vec<(f64, f64)> = (-30..=30)
                    .map(|i| {
                        let t = pass_s + 0.02 * i as f64;
                        let along = speed * (t - pass_s);
                        let d = (along * along + d_perp * d_perp).sqrt();
                        (t, (std::f64::consts::TAU * 2.0 * d / wavelength) % std::f64::consts::TAU)
                    })
                    .collect();
                TagObservations { profile: PhaseProfile::from_pairs(&pairs), ..tag }
            })
            .collect();
    assert_eq!(observations.len(), tags, "the sweep reads every tag");
    Arc::new(StppInput {
        observations,
        nominal_speed_mps: speed,
        wavelength_m: wavelength,
        perpendicular_distance_m: Some(d_perp),
    })
}

/// The serving hand-off on a flush-sized request: a two-worker service
/// with warm banks, so the time is detection plus what the pool adds.
fn bench_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool");
    let config = ServiceConfig { threads: 2, pool_workers: 2, ..ServiceConfig::default() };
    let service = LocalizationService::new(config);
    for tags in [1usize, 6] {
        let input = flush_input(tags);
        let warm = service.localize(input.clone()).expect("localize");
        assert_eq!(warm.result.localized_count(), tags, "every synthetic tag is detected");
        group.bench_with_input(BenchmarkId::new("localize", tags), &input, |b, input| {
            b.iter(|| black_box(service.localize(input.clone())))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_dtw,
    bench_vzone_detection,
    bench_ordering,
    bench_pipeline,
    bench_simulation,
    bench_proto,
    bench_pool
);
criterion_main!(benches);
