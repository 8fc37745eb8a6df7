//! Property-based tests for the STPP core algorithms.

use proptest::prelude::*;
use stpp_core::{
    dtw_full, dtw_subsequence, kendall_tau,
    metrics::mean_rank_displacement,
    ordering::{gap_metric, order_metric},
    ordering_accuracy, BatchLocalizer, PhaseProfile, QuadraticFit, ReferenceProfile,
    ReferenceProfileParams, RelativeLocalizer, SegmentedProfile, StppConfig, StppInput,
};

fn arb_sequence(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..std::f64::consts::TAU, 1..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dtw_cost_is_nonnegative_and_zero_for_identical(seq in arb_sequence(40)) {
        let r = dtw_full(&seq, &seq).unwrap();
        prop_assert!(r.cost.abs() < 1e-9);
        let other: Vec<f64> = seq.iter().map(|v| v + 0.5).collect();
        let r2 = dtw_full(&seq, &other).unwrap();
        prop_assert!(r2.cost >= 0.0);
    }

    #[test]
    fn dtw_path_is_monotone_and_covers_endpoints(a in arb_sequence(30), b in arb_sequence(30)) {
        let r = dtw_full(&a, &b).unwrap();
        prop_assert_eq!(*r.path.first().unwrap(), (0, 0));
        prop_assert_eq!(*r.path.last().unwrap(), (a.len() - 1, b.len() - 1));
        for w in r.path.windows(2) {
            prop_assert!(w[1].0 >= w[0].0 && w[1].1 >= w[0].1);
            let step = (w[1].0 - w[0].0) + (w[1].1 - w[0].1);
            prop_assert!((1..=2).contains(&step));
        }
    }

    #[test]
    fn dtw_subsequence_cost_never_exceeds_full(a in arb_sequence(25), b in arb_sequence(25)) {
        let full = dtw_full(&a, &b).unwrap();
        let sub = dtw_subsequence(&a, &b).unwrap();
        // Allowing a free start/end can only reduce (or equal) the cost.
        prop_assert!(sub.cost <= full.cost + 1e-9);
    }

    #[test]
    fn incremental_dtw_is_bit_identical_to_batch_at_every_prefix(
        ref_segs in proptest::collection::vec(
            (0.0f64..6.0, 0.0f64..1.5, 0.0f64..0.4), 1..12),
        mea_segs in proptest::collection::vec(
            (0.0f64..6.0, 0.0f64..1.5, 0.0f64..0.4), 1..40),
        penalty in 0.0f64..2.0,
    ) {
        // The streaming tracker trusts the append-only column-major
        // kernel to reproduce the row-major path-recording kernel exactly
        // after every single append; the two fill orders are written
        // separately, so pin them together bit for bit over raw segment
        // triples (lo, span, duration — including sub-floor durations,
        // exercising the shared 1e-3 floor).
        let features = |segs: &[(f64, f64, f64)]| {
            let mut f = stpp_core::SegmentFeatures::default();
            for &(lo, span, dur) in segs {
                f.push(lo, lo + span, dur);
            }
            f
        };
        let reference = features(&ref_segs);
        let mut scratch = stpp_core::DtwScratch::new();
        let mut incremental = stpp_core::IncrementalDtwCost::new();
        for j in 1..=mea_segs.len() {
            let &(lo, span, dur) = &mea_segs[j - 1];
            let got = incremental.append(&reference, penalty, lo, lo + span, dur);
            let batch = stpp_core::dtw_segmented_features_into(
                &reference, &features(&mea_segs[..j]), true, penalty, None, &mut scratch,
            );
            prop_assert_eq!(batch.map(f64::to_bits), got.map(f64::to_bits), "prefix {}", j);
        }
    }

    #[test]
    fn segmentation_partitions_the_profile(
        pairs in proptest::collection::vec((0.0f64..100.0, 0.0f64..std::f64::consts::TAU), 1..200),
        window in 1usize..12,
    ) {
        let profile = PhaseProfile::from_pairs(&pairs);
        let seg = SegmentedProfile::build(&profile, window);
        let total: usize = seg.segments().iter().map(|s| s.sample_count()).sum();
        prop_assert_eq!(total, profile.len());
        for s in seg.segments() {
            prop_assert!(s.min_phase <= s.mean_phase + 1e-12);
            prop_assert!(s.mean_phase <= s.max_phase + 1e-12);
            prop_assert!(s.sample_count() <= window.max(1));
        }
    }

    #[test]
    fn quadratic_fit_recovers_random_parabolas(
        a in 0.1f64..5.0,
        vertex_t in -5.0f64..5.0,
        vertex_v in -10.0f64..10.0,
    ) {
        let points: Vec<(f64, f64)> = (0..40)
            .map(|i| {
                let t = -6.0 + i as f64 * 0.3;
                (t, a * (t - vertex_t) * (t - vertex_t) + vertex_v)
            })
            .collect();
        let fit = QuadraticFit::fit(&points).unwrap();
        prop_assert!(fit.is_minimum());
        prop_assert!((fit.vertex_time().unwrap() - vertex_t).abs() < 1e-6);
        prop_assert!((fit.vertex_value().unwrap() - vertex_v).abs() < 1e-6);
    }

    #[test]
    fn unwrapped_profiles_have_no_large_jumps(
        pairs in proptest::collection::vec((0.0f64..50.0, 0.0f64..std::f64::consts::TAU), 2..100),
    ) {
        let profile = PhaseProfile::from_pairs(&pairs);
        let unwrapped = profile.unwrapped_phases();
        for w in unwrapped.windows(2) {
            prop_assert!((w[1] - w[0]).abs() <= std::f64::consts::PI + 1e-9);
        }
    }

    #[test]
    fn reference_profile_phase_range_is_valid(
        speed in 0.05f64..0.5,
        d_perp in 0.2f64..1.5,
        periods in 2usize..6,
    ) {
        let params = ReferenceProfileParams::new(speed, d_perp, 0.326).with_periods(periods);
        let r = ReferenceProfile::generate(params).unwrap();
        for p in r.profile.phases() {
            prop_assert!((0.0..std::f64::consts::TAU).contains(&p));
        }
        prop_assert!(r.vzone_start <= r.nadir);
        prop_assert!(r.nadir < r.vzone_end);
        prop_assert!(r.vzone_end <= r.profile.len());
    }

    #[test]
    fn batch_localizer_is_bit_identical_across_thread_counts(
        tag_xs in proptest::collection::vec(0.2f64..2.8, 3..10),
        d_perp in 0.25f64..0.34,
        mu in 0.0f64..std::f64::consts::TAU,
    ) {
        // Synthetic noise-free sweep: one V-shaped profile per tag with a
        // shared hardware offset. The parallel batch engine must produce
        // exactly the sequential localizer's result for every thread
        // count — same orderings, same summaries, bit for bit.
        let wavelength = 0.326f64;
        let speed = 0.1f64;
        let observations: Vec<stpp_core::TagObservations> = tag_xs
            .iter()
            .enumerate()
            .map(|(id, &tag_x)| {
                let pairs: Vec<(f64, f64)> = (0..600)
                    .map(|i| {
                        let t = i as f64 * 0.05;
                        let d = ((speed * t - tag_x).powi(2) + d_perp * d_perp).sqrt();
                        (t, std::f64::consts::TAU * 2.0 * d / wavelength + mu)
                    })
                    .collect();
                stpp_core::TagObservations {
                    id: id as u64,
                    epc: rfid_gen2::Epc::from_serial(id as u64),
                    profile: PhaseProfile::from_pairs(&pairs),
                }
            })
            .collect();
        let input = StppInput {
            observations,
            nominal_speed_mps: speed,
            wavelength_m: wavelength,
            perpendicular_distance_m: Some(d_perp),
        };
        let sequential = RelativeLocalizer::with_defaults().localize(&input);
        for threads in [1usize, 2, 8] {
            let batch = BatchLocalizer::new(StppConfig::default(), threads).localize(&input);
            prop_assert_eq!(&sequential, &batch, "threads = {}", threads);
        }
    }

    #[test]
    fn ordering_accuracy_bounds_and_permutation_identity(perm in Just(()).prop_flat_map(|_| {
        proptest::collection::vec(0u64..50, 2..20).prop_map(|mut v| {
            v.sort_unstable();
            v.dedup();
            v
        })
    })) {
        let truth = perm.clone();
        prop_assert_eq!(ordering_accuracy(&truth, &truth), 1.0);
        prop_assert_eq!(kendall_tau(&truth, &truth), 1.0);
        let mut reversed = truth.clone();
        reversed.reverse();
        let acc = ordering_accuracy(&reversed, &truth);
        prop_assert!((0.0..=1.0).contains(&acc));
        prop_assert!(mean_rank_displacement(&reversed, &truth) >= 0.0);
    }

    #[test]
    fn order_metric_is_antisymmetric_for_any_representations(
        p in proptest::collection::vec(0.0f64..7.0, 0..12),
        q in proptest::collection::vec(0.0f64..7.0, 0..12),
    ) {
        // Exact anti-symmetry — the property the Y-ordering comparator
        // relies on — must hold for representations of any (unequal)
        // lengths, including empty ones.
        let o_pq = order_metric(&p, &q);
        let o_qp = order_metric(&q, &p);
        // Exact IEEE equality, not an epsilon: every contributing term is
        // the bit-exact negation of its counterpart. (Value equality, so
        // +0.0 matches -0.0.)
        prop_assert!(o_pq == -o_qp, "O(P,Q) = {}, O(Q,P) = {}", o_pq, o_qp);
        prop_assert_eq!(order_metric(&p, &p), 0.0);
    }

    #[test]
    fn no_input_panics_the_detectors(
        raw in proptest::collection::vec(
            ((0u8..8, -50.0f64..50.0), (0u8..8, -50.0f64..50.0)),
            0..80,
        ),
    ) {
        // Hostile profiles — unsorted times, NaN / ±inf samples, wild
        // phases — must never panic a detector: non-finite samples come
        // back as typed errors, everything else as a normal outcome.
        let hostile = |sel: u8, v: f64| match sel {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            _ => v,
        };
        let samples: Vec<stpp_core::PhaseSample> = raw
            .iter()
            .map(|&((ts, tv), (ps, pv))| stpp_core::PhaseSample {
                time_s: hostile(ts, tv),
                phase_rad: hostile(ps, pv),
            })
            .collect();
        // Mirror the validation scan: the first defect in sample order
        // decides the expected error (non-finite wins at its index,
        // otherwise a backwards time step).
        let mut expected: Option<stpp_core::DetectError> = None;
        let mut prev_time = f64::NEG_INFINITY;
        for (index, s) in samples.iter().enumerate() {
            if !(s.time_s.is_finite() && s.phase_rad.is_finite()) {
                expected = Some(stpp_core::DetectError::NonFiniteSample { index });
                break;
            }
            if s.time_s < prev_time {
                expected = Some(stpp_core::DetectError::UnsortedSamples { index });
                break;
            }
            prev_time = s.time_s;
        }
        let profile = PhaseProfile::from_samples(samples);
        let params = ReferenceProfileParams::new(0.1, 0.3, 0.326);
        let dtw = stpp_core::VZoneDetector::new(params);
        let naive = stpp_core::NaiveUnwrapDetector::default();
        let r_dtw = dtw.detect(&profile);
        let r_naive = naive.detect(&profile);
        match expected {
            Some(err) => {
                if profile.len() >= dtw.min_samples {
                    prop_assert_eq!(&r_dtw, &Err(err));
                }
                if profile.len() >= naive.min_samples {
                    prop_assert_eq!(&r_naive, &Err(err));
                }
            }
            None => {
                // Well-formed input: a miss is fine, an error is not.
                prop_assert!(r_dtw.is_ok());
                prop_assert!(r_naive.is_ok());
            }
        }
    }

    #[test]
    fn order_and_gap_metrics_are_consistent(
        base in proptest::collection::vec(0.5f64..6.0, 4..12),
        delta in 0.01f64..1.0,
    ) {
        // Q = P + delta elementwise: Q is "farther", so O(P, Q) < 0 and
        // O(Q, P) > 0, and the gap equals len * delta.
        let q: Vec<f64> = base.iter().map(|v| v + delta).collect();
        prop_assert!(order_metric(&base, &q) < 0.0);
        prop_assert!(order_metric(&q, &base) > 0.0);
        let g = gap_metric(&base, &q);
        prop_assert!((g - delta * base.len() as f64).abs() < 1e-9);
        prop_assert!((gap_metric(&base, &base)).abs() < 1e-12);
    }
}
