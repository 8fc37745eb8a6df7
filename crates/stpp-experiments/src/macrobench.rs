//! Macro-benchmarks: Figures 17, 18 and 19 — STPP against the four
//! baseline schemes.

use rfid_geometry::{Point3, TagLayout};
use stpp_baselines::{
    BackPos, GRssi, Landmarc, OTrack, OrderingScheme, StppScheme, REFERENCE_ID_BASE,
};

use crate::common::{
    mean_accuracy, pct, shape_check, staggered_layout, AccuracySums, ExperimentReport,
    MeanAccuracy, NoScoredTrials, TrialConfig,
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
/// (spacings 1–10 cm), along X, along Y and combined. Each cell pools
/// every scored trial of the five layouts; a scheme none of whose trials
/// was scored is an error naming the suite's first configuration (2000).
pub fn fig17_scheme_comparison(trials: &TrialConfig) -> Result<ExperimentReport, NoScoredTrials> {
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
    let mut measured = Vec::new();
    for scheme in all_schemes() {
        let mut sums = AccuracySums::default();
        for (layout_idx, make) in layouts.iter().enumerate() {
            // LANDMARC needs reference anchors; harmless for the others.
            sums.run(scheme.as_ref(), trials, 2000 + layout_idx, true, |seed| {
                with_reference_tags(make(seed), 0.15)
            });
        }
        let acc = sums.mean(2000)?;
        report.push_row(vec![
            scheme.name().to_string(),
            acc.x_cell(),
            acc.y_cell(),
            acc.combined_cell(),
        ]);
        measured.push((scheme.name(), acc));
    }
    Ok(report.with_notes(fig17_notes(&measured)))
}

/// The notes of Figure 17, computed from each scheme's measured accuracy:
/// the paper's claims about STPP and BackPos with the values that confirm
/// or refute them. A scheme missing from `rows`, or a combined accuracy
/// that is `n/a`, fails the claims that need it.
fn fig17_notes(rows: &[(&str, MeanAccuracy)]) -> String {
    let of = |name: &str| rows.iter().find(|(n, _)| *n == name).map(|(_, a)| a);
    let opt_pct = |v: Option<f64>| v.map_or_else(|| "n/a".to_string(), pct);
    let listing = |value: fn(&MeanAccuracy) -> Option<f64>| {
        rows.iter()
            .map(|(n, a)| format!("{n} {}", opt_pct(value(a))))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let stpp = of("STPP");
    let stpp_combined = stpp.and_then(MeanAccuracy::combined);
    let others = || rows.iter().filter(|(n, _)| *n != "STPP").map(|(_, a)| a);
    let highest_x = stpp.is_some_and(|s| others().all(|a| s.x > a.x));
    let highest_combined =
        stpp_combined.is_some_and(|s| others().all(|a| a.combined().is_none_or(|c| s > c)));
    let backpos_combined = of("BackPos").and_then(MeanAccuracy::combined);
    [
        shape_check(
            highest_x && highest_combined,
            "STPP has the highest accuracy along X and combined",
            &format!(
                "X: {}; combined: {}",
                listing(|a| Some(a.x)),
                listing(MeanAccuracy::combined)
            ),
        ),
        shape_check(
            stpp_combined.is_some_and(|c| c >= 0.88),
            "STPP's combined accuracy is ~88 % or more (checked as ≥ 88 %)",
            &format!("STPP combined {}", opt_pct(stpp_combined)),
        ),
        shape_check(
            backpos_combined.is_some_and(|c| (0.70..=0.90).contains(&c)),
            "BackPos's combined accuracy is around 80 % (checked as 80 ± 10 %)",
            &format!("BackPos combined {}", opt_pct(backpos_combined)),
        ),
    ]
    .join("\n")
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

    fn acc(x: f64, y: Option<f64>) -> MeanAccuracy {
        MeanAccuracy { x, y, scored: 20, trials: 20 }
    }

    #[test]
    fn fig17_notes_pass_when_the_ranking_has_the_papers_shape() {
        let rows = [
            ("G-RSSI", acc(0.40, Some(0.30))),
            ("LANDMARC", acc(0.42, Some(0.35))),
            ("OTrack", acc(0.45, None)),
            ("BackPos", acc(0.85, Some(0.75))),
            ("STPP", acc(0.92, Some(0.88))),
        ];
        let notes = fig17_notes(&rows);
        assert_eq!(notes.lines().count(), 3, "{notes}");
        assert!(notes.lines().all(|l| l.starts_with("- PASS")), "{notes}");
        assert!(notes.contains("combined: G-RSSI 35.0%, LANDMARC 38.5%, OTrack n/a"), "{notes}");
        assert!(notes.contains("STPP combined 90.0%"), "{notes}");
        assert!(notes.contains("BackPos combined 80.0%"), "{notes}");
    }

    #[test]
    fn fig17_notes_fail_on_the_reproductions_numbers() {
        // The values this reproduction measures: BackPos edges STPP on X,
        // STPP's combined is far below 88 % and BackPos's far below 80 %.
        let rows = [
            ("G-RSSI", acc(0.517, Some(0.237))),
            ("LANDMARC", acc(0.630, Some(0.116))),
            ("OTrack", acc(0.530, None)),
            ("BackPos", acc(0.668, Some(0.175))),
            ("STPP", acc(0.658, Some(0.448))),
        ];
        let notes = fig17_notes(&rows);
        assert_eq!(notes.lines().count(), 3, "{notes}");
        assert!(notes.lines().all(|l| l.starts_with("- FAIL")), "{notes}");
        assert!(notes.contains("X: G-RSSI 51.7%, LANDMARC 63.0%, OTrack 53.0%"), "{notes}");
        assert!(notes.contains("OTrack n/a, BackPos 42.1%, STPP 55.3%"), "{notes}");
        assert!(notes.contains("STPP combined 55.3%"), "{notes}");
        // Highest on X alone is not enough: the combined ranking counts
        // too. A STPP row without a Y ordering, or no STPP row at all,
        // fails both STPP claims.
        let mut x_only = rows;
        x_only[4].1 = acc(0.70, Some(0.10));
        assert!(fig17_notes(&x_only).starts_with("- FAIL"));
        let mut no_y = rows;
        no_y[4].1 = acc(0.70, None);
        let no_y = fig17_notes(&no_y);
        assert!(no_y.contains("STPP combined n/a"), "{no_y}");
        assert!(no_y.lines().take(2).all(|l| l.starts_with("- FAIL")), "{no_y}");
        let no_stpp = fig17_notes(&rows[..4]);
        assert!(no_stpp.lines().take(2).all(|l| l.starts_with("- FAIL")), "{no_stpp}");
    }

    #[test]
    fn fig19_compares_two_schemes() {
        let r = fig19_accuracy_vs_population(&TrialConfig { trials: 1, seed: 3 }).expect("scored");
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0].len(), 5);
    }
}
