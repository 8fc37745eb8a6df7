//! The exactness suite: a CI-enforced contract that the V-zone
//! detector's candidate screen computes exactly the argmin the paper
//! defines — the lowest normalised segmented-DTW cost over every
//! acceptable hardware-offset candidate, ties to the smaller index — and
//! not merely something close. The screen skips alignments it can prove
//! lose (seeding, lockstep abandoning, hint-first trial order); this
//! suite checks it against an exhaustive oracle that skips nothing
//! (`support::oracle_argmin`), pins the lockstep kernel lane by lane to
//! the path-recording kernel, and checks that the thread count never
//! changes a result.
//!
//! The CI `exactness` job runs this suite with `PROPTEST_CASES` bumped
//! well above the local default.

mod support;

use proptest::prelude::*;
use support::{arb_sweep, oracle_argmin, proptest_cases};

use stpp_core::{
    dtw_screen_lockstep, dtw_segmented_features_into, BatchLocalizer, DetectScratch, DtwScratch,
    PhaseProfile, ReferenceBankCache, ReferenceProfileParams, RelativeLocalizer, ScreenOutcome,
    SegmentFeatures, SegmentedProfile, StppConfig, VZoneDetector,
};

/// Builds segment features straight from raw `(time, phase)` pairs.
fn features_of(pairs: &[(f64, f64)], window: usize) -> SegmentFeatures {
    SegmentFeatures::from_segmented(&SegmentedProfile::build(
        &PhaseProfile::from_pairs(pairs),
        window,
    ))
}

/// The path-recording kernel's subsequence cost, the reference every
/// lockstep lane must reproduce.
fn path_cost(
    candidate: &SegmentFeatures,
    measured: &SegmentFeatures,
    penalty: f64,
    limit: Option<f64>,
    scratch: &mut DtwScratch,
) -> Option<f64> {
    dtw_segmented_features_into(candidate, measured, true, penalty, limit, scratch)
}

proptest! {
    #![proptest_config(proptest_cases(48))]

    /// The headline contract: for any generated sweep, every detection
    /// the screen produces carries the oracle's winning candidate and a
    /// bit-identical match cost, and where no candidate is acceptable
    /// the detector finds nothing. The tags run one after another
    /// through one scratch, so the first detection is cold and the rest
    /// lead with the previous winner.
    #[test]
    fn screen_matches_exhaustive_argmin_oracle(spec in arb_sweep()) {
        let input = spec.input();
        let detector = VZoneDetector::new(ReferenceProfileParams::new(
            input.nominal_speed_mps,
            input.perpendicular_distance_m.expect("synthetic sweeps carry a distance"),
            input.wavelength_m,
        ));
        let cache = ReferenceBankCache::new();
        let mut scratch = DetectScratch::new();
        for obs in &input.observations {
            let oracle = oracle_argmin(&detector, &obs.profile);
            let detection = detector
                .detect_cached(&obs.profile, &cache, &mut scratch)
                .expect("synthetic profiles are well formed");
            match (detection, oracle) {
                (Some(detection), Some((k, cost))) => {
                    prop_assert_eq!(detection.offset_index, Some(k), "tag {}", obs.id);
                    prop_assert_eq!(
                        detection.match_cost.map(f64::to_bits),
                        Some(cost.to_bits()),
                        "tag {}", obs.id
                    );
                }
                (Some(detection), None) => {
                    prop_assert!(
                        false,
                        "tag {}: detected candidate {:?} where the oracle accepts none",
                        obs.id, detection.offset_index
                    );
                }
                // The screen only picks the candidate; refinement and
                // fitting may still reject the tag afterwards.
                (None, _) => {}
            }
        }
    }

    /// End-to-end determinism across thread counts: the batch engine on
    /// 1, 2 and 4 threads (whatever mix of cold and hinted scratches its
    /// work split produces) gives the sequential localizer's result, bit
    /// for bit.
    #[test]
    fn pipeline_is_bit_identical_across_thread_counts(spec in arb_sweep()) {
        let input = spec.input();
        let config = StppConfig::default();
        let sequential = RelativeLocalizer::new(config).localize(&input);
        for threads in [1usize, 2, 4] {
            let batch = BatchLocalizer::new(config, threads).localize(&input);
            prop_assert_eq!(&sequential, &batch, "threads={}", threads);
        }
    }

    /// Kernel contract: each lane of a lockstep screen behaves exactly
    /// like a standalone path-recording alignment of the same candidate
    /// — `Completed` costs are bit-identical, and a lane is `Abandoned`
    /// or `Infeasible` precisely when the standalone alignment returns
    /// `None` under the same limit. Candidates include empty and
    /// single-sample profiles; no input may panic. Up to 9 candidates,
    /// so both odd and even lane counts around the production screen's 7
    /// are paired.
    #[test]
    fn lockstep_lanes_match_path_kernel(
        candidate_pairs in proptest::collection::vec(
            proptest::collection::vec((0.0f64..40.0, 0.0f64..std::f64::consts::TAU), 0..40),
            0..=9,
        ),
        measured_pairs in proptest::collection::vec(
            (0.0f64..40.0, 0.0f64..std::f64::consts::TAU), 0..60),
        window in 1usize..8,
        penalty in 0.0f64..2.0,
        limit_scale in 0.0f64..3.0,
        use_limits in any::<bool>(),
    ) {
        let candidates: Vec<SegmentFeatures> =
            candidate_pairs.iter().map(|p| features_of(p, window)).collect();
        let refs: Vec<&SegmentFeatures> = candidates.iter().collect();
        let measured = features_of(&measured_pairs, window);
        // Limits derived from each candidate's own exact cost so all
        // three outcomes (complete / abandon / infeasible) occur.
        let mut check = DtwScratch::new();
        let exact: Vec<Option<f64>> = candidates
            .iter()
            .map(|c| path_cost(c, &measured, penalty, None, &mut check))
            .collect();
        let limits: Vec<f64> = exact
            .iter()
            .map(|e| match (use_limits, e) {
                (true, Some(c)) => c * limit_scale,
                (true, None) => 1.0,
                (false, _) => f64::INFINITY,
            })
            .collect();
        let mut scratch = DtwScratch::new();
        let mut out = Vec::new();
        dtw_screen_lockstep(&refs, |f| f, &measured, penalty, &limits, &mut scratch, &mut out);
        prop_assert_eq!(out.len(), candidates.len());
        for (k, outcome) in out.iter().enumerate() {
            let limit = limits[k];
            let standalone =
                path_cost(&candidates[k], &measured, penalty, Some(limit), &mut check);
            match *outcome {
                ScreenOutcome::Completed(cost) => {
                    prop_assert_eq!(
                        standalone.map(f64::to_bits), Some(cost.to_bits()), "lane {}", k
                    );
                }
                ScreenOutcome::Abandoned { lower_bound } => {
                    prop_assert_eq!(standalone, None, "lane {}", k);
                    // The pinned pruning guarantee: an abandoned lane's
                    // exact cost really does exceed its limit — no
                    // candidate is ever pruned below the exact best.
                    prop_assert!(lower_bound > limit, "lane {}", k);
                    if let Some(exact_cost) = exact[k] {
                        prop_assert!(
                            exact_cost >= lower_bound,
                            "lane {}: exact {} < lower bound {}", k, exact_cost, lower_bound
                        );
                        prop_assert!(exact_cost > limit, "lane {}", k);
                    }
                }
                ScreenOutcome::Infeasible => {
                    prop_assert_eq!(standalone, None, "lane {}", k);
                    prop_assert_eq!(exact[k], None, "lane {}", k);
                }
            }
        }
    }

    /// Degenerate all-equal-cost candidates: identical lanes complete
    /// with the path kernel's cost, bit for bit, and none abandons under
    /// a limit set to exactly that cost, so the detector-level tie can
    /// resolve to the lowest candidate index.
    #[test]
    fn equal_cost_lanes_all_complete_under_their_own_cost(
        pairs in proptest::collection::vec(
            (0.0f64..40.0, 0.0f64..std::f64::consts::TAU), 2..50),
        copies in 2usize..6,
        window in 1usize..8,
        penalty in 0.0f64..2.0,
    ) {
        let feat = features_of(&pairs, window);
        let measured = features_of(&pairs, window);
        let mut scratch = DtwScratch::new();
        let Some(cost) = path_cost(&feat, &measured, penalty, None, &mut scratch) else {
            return Ok(());
        };
        let refs: Vec<&SegmentFeatures> = (0..copies).map(|_| &feat).collect();
        // Limits at exactly the exact cost: abandoning is strictly
        // greater-than, so every identical lane must still complete.
        let limits = vec![cost; copies];
        let mut out = Vec::new();
        dtw_screen_lockstep(&refs, |f| f, &measured, penalty, &limits, &mut scratch, &mut out);
        for (k, outcome) in out.iter().enumerate() {
            prop_assert_eq!(*outcome, ScreenOutcome::Completed(cost), "lane {}", k);
        }
    }
}

/// Features grown segment by segment from raw `(lo, hi, interval)`
/// triples.
fn features_from(segments: &[(f64, f64, f64)]) -> SegmentFeatures {
    let mut f = SegmentFeatures::default();
    for &(lo, hi, interval) in segments {
        f.push(lo, hi, interval);
    }
    f
}

/// Seven lanes that leave the screen on different rows — four complete
/// at their last rows, three abandon mid-table — so the live list
/// shrinks to odd lengths and the lane pairs regroup around a leftover
/// lane several times. Every lane must still match the path kernel: a
/// completed cost bit for bit, and an abandon on exactly the row whose
/// minimum first exceeds the limit (its lower bound is that row's
/// minimum, the subsequence cost of the candidate prefix ending there).
#[test]
fn lockstep_lanes_regroup_as_lanes_leave_on_different_rows() {
    let measured: Vec<(f64, f64, f64)> = (0..23)
        .map(|j| {
            let lo = 1.0 + 0.5 * (j as f64 * 0.7).sin();
            (lo, lo + 0.3, 0.04 + 0.01 * (j % 3) as f64)
        })
        .collect();
    let measured = features_from(&measured);
    // (segments, abandon row): the phase ranges sit above every measured
    // range, so each cell costs something and row minima strictly rise.
    let lanes: [(usize, Option<usize>); 7] =
        [(4, None), (9, Some(2)), (6, None), (9, Some(6)), (3, None), (10, Some(8)), (10, None)];
    let penalty = 0.5;
    let mut scratch = DtwScratch::new();
    let mut candidates = Vec::new();
    let mut limits = Vec::new();
    let mut prefix_costs = Vec::new();
    for (k, &(len, abandon_row)) in lanes.iter().enumerate() {
        let segments: Vec<(f64, f64, f64)> = (0..len)
            .map(|i| {
                let lo = 3.0 + 0.4 * ((k + i) as f64).cos();
                (lo, lo + 0.2, 0.03 + 0.005 * ((k + i) % 4) as f64)
            })
            .collect();
        // Row `i`'s minimum is the cost of the first `i + 1` segments.
        let prefix: Vec<f64> = (1..=len)
            .map(|rows| {
                path_cost(&features_from(&segments[..rows]), &measured, penalty, None, &mut scratch)
                    .expect("non-empty inputs align")
            })
            .collect();
        assert!(prefix.windows(2).all(|w| w[0] < w[1]), "lane {k}: row minima must rise");
        limits.push(match abandon_row {
            Some(row) => (prefix[row - 1] + prefix[row]) / 2.0,
            None => f64::INFINITY,
        });
        candidates.push(features_from(&segments));
        prefix_costs.push(prefix);
    }
    let refs: Vec<&SegmentFeatures> = candidates.iter().collect();
    let mut out = Vec::new();
    dtw_screen_lockstep(&refs, |f| f, &measured, penalty, &limits, &mut scratch, &mut out);
    for (k, &(len, abandon_row)) in lanes.iter().enumerate() {
        let want = match abandon_row {
            Some(row) => ScreenOutcome::Abandoned { lower_bound: prefix_costs[k][row] },
            None => ScreenOutcome::Completed(prefix_costs[k][len - 1]),
        };
        assert_eq!(out[k], want, "lane {k}");
        let standalone =
            path_cost(&candidates[k], &measured, penalty, Some(limits[k]), &mut scratch);
        assert_eq!(standalone.map(f64::to_bits), out[k].completed().map(f64::to_bits), "lane {k}");
    }
}

/// Empty edge cases must not panic and must report `Infeasible` lanes.
#[test]
fn lockstep_kernel_handles_empty_inputs() {
    let mut scratch = DtwScratch::new();
    let mut out = Vec::new();
    let empty = SegmentFeatures::default();
    let nonempty = features_of(&[(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)], 2);

    // No candidates at all.
    dtw_screen_lockstep(&[], |f| f, &nonempty, 0.5, &[], &mut scratch, &mut out);
    assert!(out.is_empty());

    // Empty measured representation: every lane is infeasible.
    dtw_screen_lockstep(&[&nonempty], |f| f, &empty, 0.5, &[f64::INFINITY], &mut scratch, &mut out);
    assert_eq!(out, vec![ScreenOutcome::Infeasible]);

    // Empty and single-segment candidates mixed with a real one.
    let single = features_of(&[(0.0, 1.0)], 4);
    dtw_screen_lockstep(
        &[&empty, &single, &nonempty],
        |f| f,
        &nonempty,
        0.5,
        &[f64::INFINITY; 3],
        &mut scratch,
        &mut out,
    );
    assert_eq!(out[0], ScreenOutcome::Infeasible);
    assert!(matches!(out[1], ScreenOutcome::Completed(_)));
    assert!(matches!(out[2], ScreenOutcome::Completed(c) if c == 0.0));
}
