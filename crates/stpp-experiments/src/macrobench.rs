//! Macro-benchmarks: Figures 17, 18 and 19 — STPP against the four
//! baseline schemes.

use rfid_geometry::{Point3, TagLayout};
use stpp_baselines::{
    BackPos, GRssi, Landmarc, OTrack, OrderingScheme, StppScheme, REFERENCE_ID_BASE,
};

use crate::common::{
    mean_accuracy, pct, run_antenna_sweep, score_scheme, staggered_layout, ExperimentReport,
    NoScoredTrials, TrialConfig,
};

/// Adds a sparse grid of LANDMARC reference tags around an existing layout.
pub fn with_reference_tags(mut layout: TagLayout, spacing: f64) -> TagLayout {
    let Some(bounds) = layout.bounds() else {
        return layout;
    };
    let mut id = REFERENCE_ID_BASE;
    let mut x = bounds.min.x - spacing;
    while x <= bounds.max.x + spacing {
        for y in [bounds.min.y, bounds.max.y + 0.02] {
            layout.push(id, Point3::new(x, y, 0.0));
            id += 1;
        }
        x += spacing * 2.0;
    }
    layout
}

fn all_schemes() -> Vec<Box<dyn OrderingScheme>> {
    vec![
        Box::new(GRssi::default()),
        Box::new(Landmarc::default()),
        Box::new(OTrack::default()),
        Box::new(BackPos::default()),
        Box::new(StppScheme::new()),
    ]
}

/// Figure 17: ordering accuracy of the five schemes over the layout suite
/// (spacings 1–10 cm), along X, along Y and combined.
pub fn fig17_scheme_comparison(trials: &TrialConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "Figure 17",
        "Ordering accuracy per scheme (layout suite, 1-10 cm spacings)",
        vec!["scheme", "along X", "along Y", "combined"],
    );
    // The five layout settings of Figure 16, approximated as staggered
    // grids with growing spacing.
    let layouts: Vec<Box<dyn Fn(u64) -> TagLayout>> = vec![
        Box::new(|seed| staggered_layout(8, 0.02, 4, 0.03, seed)),
        Box::new(|seed| staggered_layout(10, 0.04, 5, 0.04, seed)),
        Box::new(|seed| staggered_layout(12, 0.06, 6, 0.05, seed)),
        Box::new(|seed| staggered_layout(12, 0.08, 6, 0.05, seed)),
        Box::new(|seed| staggered_layout(12, 0.10, 6, 0.06, seed)),
    ];
    for scheme in all_schemes() {
        let mut sum_x = 0.0;
        let mut sum_y = 0.0;
        let mut count = 0usize;
        let mut count_y = 0usize;
        for (layout_idx, make) in layouts.iter().enumerate() {
            for t in 0..trials.trials {
                let seed = trials.trial_seed(2000 + layout_idx, t);
                // LANDMARC needs reference anchors; harmless for the others.
                let layout = with_reference_tags(make(seed), 0.15);
                let Some(recording) = run_antenna_sweep(&layout, seed) else { continue };
                let result = scheme.order(&recording);
                let (ax, ay) = score_scheme(&recording, &result);
                sum_x += ax;
                count += 1;
                if let Some(ay) = ay {
                    sum_y += ay;
                    count_y += 1;
                }
            }
        }
        let ax = sum_x / count.max(1) as f64;
        let ay = if count_y == 0 { 0.0 } else { sum_y / count_y as f64 };
        let combined = if count_y == 0 { ax } else { (ax + ay) / 2.0 };
        report.push_row(vec![scheme.name().to_string(), pct(ax), pct(ay), pct(combined)]);
    }
    report.with_notes(
        "Expected ranking (paper Figure 17): G-RSSI ≈ LANDMARC well below 50 %, OTrack below \
         50 %, BackPos around 80 %, STPP the highest at ~88 %+."
            .to_string(),
    )
}

/// Figure 18: accuracy of each scheme as the adjacent-tag distance shrinks
/// from 100 cm to 10 cm (20 tags).
pub fn fig18_accuracy_vs_distance(
    trials: &TrialConfig,
) -> Result<ExperimentReport, NoScoredTrials> {
    let mut report = ExperimentReport::new(
        "Figure 18",
        "Accuracy vs adjacent-tag distance (20 tags)",
        vec!["scheme", "100 cm", "50 cm", "25 cm", "10 cm"],
    );
    let spacings = [1.0f64, 0.5, 0.25, 0.10];
    for scheme in all_schemes() {
        let mut row = vec![scheme.name().to_string()];
        for (idx, &spacing) in spacings.iter().enumerate() {
            let layout = |seed: u64| {
                with_reference_tags(
                    staggered_layout(20, spacing, 10, 0.05, seed),
                    spacing.max(0.15),
                )
            };
            let acc = mean_accuracy(scheme.as_ref(), trials, 3000 + idx, true, layout)?;
            row.push(acc.x_cell());
        }
        report.push_row(row);
    }
    Ok(report.with_notes(
        "STPP keeps the highest median accuracy and the smallest spread as the spacing shrinks; \
         RSSI-based schemes collapse below 25 cm."
            .to_string(),
    ))
}

/// Figure 19: accuracy of STPP vs OTrack as the population grows (10 cm
/// spacing).
pub fn fig19_accuracy_vs_population(
    trials: &TrialConfig,
) -> Result<ExperimentReport, NoScoredTrials> {
    let mut report = ExperimentReport::new(
        "Figure 19",
        "Accuracy vs tag population (STPP vs OTrack, 10 cm spacing)",
        vec!["scheme", "n=5", "n=10", "n=20", "n=30"],
    );
    let populations = [5usize, 10, 20, 30];
    let schemes: Vec<Box<dyn OrderingScheme>> =
        vec![Box::new(OTrack::default()), Box::new(StppScheme::new())];
    for scheme in schemes {
        let mut row = vec![scheme.name().to_string()];
        for (idx, &n) in populations.iter().enumerate() {
            let layout = move |seed: u64| staggered_layout(n, 0.10, 10, 0.05, seed);
            let acc = mean_accuracy(scheme.as_ref(), trials, 4000 + idx, true, layout)?;
            row.push(acc.x_cell());
        }
        report.push_row(row);
    }
    Ok(report.with_notes(
        "Both schemes degrade with population, but STPP stays well above OTrack with a much \
         smaller spread, as in the paper's Figure 19."
            .to_string(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_tags_are_appended_with_high_ids() {
        let layout = with_reference_tags(staggered_layout(6, 0.05, 3, 0.05, 1), 0.2);
        assert!(layout.len() > 6);
        let refs = layout.iter().filter(|(id, _)| *id >= REFERENCE_ID_BASE).count();
        assert!(refs >= 4);
    }

    #[test]
    fn fig19_compares_two_schemes() {
        let r = fig19_accuracy_vs_population(&TrialConfig { trials: 1, seed: 3 }).expect("scored");
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0].len(), 5);
    }
}
