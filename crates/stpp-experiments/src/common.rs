//! Shared experiment infrastructure: report rendering, layouts, runners.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rfid_geometry::{Point3, TagLayout};
use rfid_reader::{
    AntennaSweepParams, ConveyorParams, ReaderSimulation, ScenarioBuilder, SweepRecording,
};
use serde::{Deserialize, Serialize};
use stpp_baselines::{OrderingScheme, SchemeResult};
use stpp_core::ordering_accuracy;

/// Global knobs shared by the statistical experiments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrialConfig {
    /// Number of repetitions per configuration point.
    pub trials: usize,
    /// Base RNG seed; trial `i` of configuration `c` derives its own seed.
    pub seed: u64,
}

impl Default for TrialConfig {
    fn default() -> Self {
        TrialConfig { trials: 4, seed: 20150504 }
    }
}

impl TrialConfig {
    /// A derived seed for one (configuration, trial) pair.
    pub fn trial_seed(&self, config_idx: usize, trial_idx: usize) -> u64 {
        self.seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add((config_idx as u64) << 32)
            .wrapping_add(trial_idx as u64 + 1)
    }
}

/// A rendered experiment result: a titled table plus free-form notes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Identifier matching the paper ("Figure 13", "Table 1", ...).
    pub id: String,
    /// One-line description.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Table rows.
    pub rows: Vec<Vec<String>>,
    /// Free-form commentary (what to compare against the paper).
    pub notes: String,
}

impl ExperimentReport {
    /// Creates an empty report.
    pub fn new(id: impl Into<String>, title: impl Into<String>, headers: Vec<&str>) -> Self {
        ExperimentReport {
            id: id.into(),
            title: title.into(),
            headers: headers.into_iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: String::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Sets the commentary.
    pub fn with_notes(mut self, notes: impl Into<String>) -> Self {
        self.notes = notes.into();
        self
    }

    /// Renders the report as a markdown section.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("## {} — {}\n\n", self.id, self.title);
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.headers.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        if !self.notes.is_empty() {
            out.push_str(&format!("\n{}\n", self.notes));
        }
        out.push('\n');
        out
    }

    /// Renders the table as CSV (headers + rows).
    pub fn to_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Builds a staggered multi-row layout of `count` tags whose adjacent
/// spacing along X is `spacing` metres (with small per-tag jitter so no two
/// tags share a coordinate), wrapping onto a new row every `per_row` tags.
/// Row depth (`dy`) stays small so the whole layout sits inside one λ/2
/// phase period.
pub fn staggered_layout(
    count: usize,
    spacing: f64,
    per_row: usize,
    dy: f64,
    seed: u64,
) -> TagLayout {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut layout = TagLayout::new();
    let per_row = per_row.max(1);
    for id in 0..count as u64 {
        let row = (id as usize) / per_row;
        let col = (id as usize) % per_row;
        let jitter_x = rng.gen_range(-spacing * 0.1..spacing * 0.1);
        let jitter_y = rng.gen_range(0.0..dy * 0.3);
        layout.push(
            id,
            Point3::new(col as f64 * spacing + jitter_x, row as f64 * dy + jitter_y, 0.0),
        );
    }
    layout
}

/// A single row of `count` tags with exact spacing (no jitter).
pub fn row_layout(count: usize, spacing: f64) -> TagLayout {
    let mut layout = TagLayout::new();
    for id in 0..count as u64 {
        layout.push(id, Point3::new(id as f64 * spacing, 0.0, 0.0));
    }
    layout
}

/// Runs an antenna-moving sweep over a layout and returns the recording.
pub fn run_antenna_sweep(layout: &TagLayout, seed: u64) -> Option<SweepRecording> {
    let scenario = ScenarioBuilder::new(seed)
        .with_name("experiment antenna sweep")
        .antenna_sweep(layout, AntennaSweepParams::default())?;
    Some(ReaderSimulation::new(scenario, seed).run())
}

/// Runs a tag-moving (conveyor) sweep over a layout.
pub fn run_conveyor_sweep(layout: &TagLayout, seed: u64) -> Option<SweepRecording> {
    let scenario = ScenarioBuilder::new(seed)
        .with_name("experiment conveyor sweep")
        .conveyor(layout, ConveyorParams::default())?;
    Some(ReaderSimulation::new(scenario, seed).run())
}

/// Scores a scheme's output against a recording's ground truth. Returns
/// `(accuracy_x, accuracy_y)`; the Y accuracy is `None` when the scheme
/// does not produce a Y ordering.
pub fn score_scheme(recording: &SweepRecording, result: &SchemeResult) -> (f64, Option<f64>) {
    let truth_x: Vec<u64> = recording
        .truth_order_x()
        .into_iter()
        .filter(|id| *id < stpp_baselines::REFERENCE_ID_BASE)
        .collect();
    let truth_y: Vec<u64> = recording
        .truth_order_y()
        .into_iter()
        .filter(|id| *id < stpp_baselines::REFERENCE_ID_BASE)
        .collect();
    // In the tag-moving case the detected pass order is descending layout X.
    let detected_x: Vec<u64> = match recording.scenario.case {
        rfid_reader::MotionCase::AntennaMoving => result.order_x.clone(),
        rfid_reader::MotionCase::TagMoving => result.order_x.iter().rev().copied().collect(),
    };
    let acc_x = ordering_accuracy(&detected_x, &truth_x);
    let acc_y = result.order_y.as_ref().map(|oy| ordering_accuracy(oy, &truth_y));
    (acc_x, acc_y)
}

/// Mean ordering accuracy over the trials of one configuration that
/// produced a sweep to score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanAccuracy {
    /// Mean exact-rank accuracy along X over the scored trials.
    pub x: f64,
    /// Mean exact-rank accuracy along Y over the scored trials whose
    /// scheme produced a Y ordering; `None` when none did.
    pub y: Option<f64>,
    /// Trials that produced a sweep and were scored.
    pub scored: usize,
    /// Trials run.
    pub trials: usize,
}

impl MeanAccuracy {
    /// The X accuracy with `scored/trials` beside it, e.g. `84.0% (4/4)`.
    pub fn x_cell(&self) -> String {
        self.cell(Some(self.x))
    }

    /// The Y accuracy with `scored/trials` beside it; `n/a` when no
    /// scored trial had a Y ordering.
    pub fn y_cell(&self) -> String {
        self.cell(self.y)
    }

    /// The mean of the X and Y accuracies (Figure 17's "combined"); `None`
    /// when no scored trial had a Y ordering.
    pub fn combined(&self) -> Option<f64> {
        self.y.map(|y| (self.x + y) / 2.0)
    }

    /// The combined accuracy with `scored/trials` beside it; `n/a` when no
    /// scored trial had a Y ordering.
    pub fn combined_cell(&self) -> String {
        self.cell(self.combined())
    }

    fn cell(&self, accuracy: Option<f64>) -> String {
        let accuracy = accuracy.map_or_else(|| "n/a".to_string(), pct);
        format!("{accuracy} ({}/{})", self.scored, self.trials)
    }
}

/// No trial of a configuration produced a sweep to score (every layout
/// was empty or degenerate), so it has no accuracy to report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoScoredTrials {
    /// The configuration index passed to [`mean_accuracy`].
    pub config_idx: usize,
    /// Trials run.
    pub trials: usize,
}

impl std::fmt::Display for NoScoredTrials {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "configuration {}: none of its {} trials produced a sweep to score",
            self.config_idx, self.trials
        )
    }
}

impl std::error::Error for NoScoredTrials {}

/// Runs one scheme over `trials` independently generated sweeps of the same
/// layout-generating closure and averages the accuracy of the trials it
/// could score. A trial whose layout yields no sweep is skipped and
/// counted; a configuration with no scored trial is an error.
pub fn mean_accuracy<S, L>(
    scheme: &S,
    trials: &TrialConfig,
    config_idx: usize,
    antenna_moving: bool,
    make_layout: L,
) -> Result<MeanAccuracy, NoScoredTrials>
where
    S: OrderingScheme + ?Sized,
    L: FnMut(u64) -> TagLayout,
{
    let mut sums = AccuracySums::default();
    sums.run(scheme, trials, config_idx, antenna_moving, make_layout);
    sums.mean(config_idx)
}

/// Accuracy sums over the trials of one or more configurations, in run
/// order, so an experiment that pools several configurations into one
/// cell averages them exactly as [`mean_accuracy`] averages one.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AccuracySums {
    sum_x: f64,
    sum_y: f64,
    count_y: usize,
    scored: usize,
    trials: usize,
}

impl AccuracySums {
    /// Runs `scheme` over the `trials` sweeps of configuration
    /// `config_idx` and adds every scored trial; a trial whose layout
    /// yields no sweep is counted but not scored.
    pub(crate) fn run<S, L>(
        &mut self,
        scheme: &S,
        trials: &TrialConfig,
        config_idx: usize,
        antenna_moving: bool,
        mut make_layout: L,
    ) where
        S: OrderingScheme + ?Sized,
        L: FnMut(u64) -> TagLayout,
    {
        for t in 0..trials.trials {
            self.trials += 1;
            let seed = trials.trial_seed(config_idx, t);
            let layout = make_layout(seed);
            let recording = if antenna_moving {
                run_antenna_sweep(&layout, seed)
            } else {
                run_conveyor_sweep(&layout, seed)
            };
            let Some(recording) = recording else { continue };
            let result = scheme.order(&recording);
            let (ax, ay) = score_scheme(&recording, &result);
            self.sum_x += ax;
            if let Some(ay) = ay {
                self.sum_y += ay;
                self.count_y += 1;
            }
            self.scored += 1;
        }
    }

    /// The mean accuracy over the scored trials; an error naming
    /// `config_idx` when none was scored.
    pub(crate) fn mean(&self, config_idx: usize) -> Result<MeanAccuracy, NoScoredTrials> {
        if self.scored == 0 {
            return Err(NoScoredTrials { config_idx, trials: self.trials });
        }
        Ok(MeanAccuracy {
            x: self.sum_x / self.scored as f64,
            y: (self.count_y > 0).then(|| self.sum_y / self.count_y as f64),
            scored: self.scored,
            trials: self.trials,
        })
    }
}

/// One of the paper's claims checked against this run, as a markdown
/// list item: `PASS` or `FAIL`, the claim, and what was measured.
pub(crate) fn shape_check(holds: bool, claim: &str, measured: &str) -> String {
    format!("- {} — paper: {claim}; measured: {measured}.", if holds { "PASS" } else { "FAIL" })
}

/// Formats a fraction as a percentage string with one decimal.
pub fn pct(value: f64) -> String {
    format!("{:.1}%", value * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stpp_baselines::GRssi;

    #[test]
    fn report_rendering_roundtrip() {
        let mut r = ExperimentReport::new("Table X", "demo", vec!["a", "b"]);
        r.push_row(vec!["1".into(), "2".into()]);
        let md = r.to_markdown();
        assert!(md.contains("## Table X — demo"));
        assert!(md.contains("| 1 | 2 |"));
        let csv = r.to_csv();
        assert!(csv.starts_with("a,b\n1,2"));
    }

    #[test]
    fn staggered_layout_has_unique_coordinates() {
        let layout = staggered_layout(12, 0.05, 5, 0.05, 3);
        assert_eq!(layout.len(), 12);
        let xs: Vec<f64> = layout.iter().map(|(_, p)| p.x).collect();
        for i in 0..xs.len() {
            for j in i + 1..xs.len() {
                assert!((xs[i] - xs[j]).abs() > 1e-9 || i / 5 != j / 5);
            }
        }
        // Y span stays within the safe phase period (< 0.14 m).
        let bounds = layout.bounds().unwrap();
        assert!(bounds.extent().y < 0.14);
    }

    #[test]
    fn trial_seeds_are_distinct() {
        let t = TrialConfig::default();
        let a = t.trial_seed(0, 0);
        let b = t.trial_seed(0, 1);
        let c = t.trial_seed(1, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn mean_accuracy_runs_a_small_experiment() {
        let trials = TrialConfig { trials: 2, seed: 5 };
        let acc = mean_accuracy(&GRssi::default(), &trials, 0, true, |_| row_layout(3, 0.15))
            .expect("a three-tag row is scored");
        assert!((0.0..=1.0).contains(&acc.x));
        assert!(acc.y.is_some_and(|y| (0.0..=1.0).contains(&y)));
        assert_eq!((acc.scored, acc.trials), (2, 2));
        assert!(acc.x_cell().ends_with(" (2/2)"), "{}", acc.x_cell());
    }

    #[test]
    fn an_empty_layout_is_counted_and_never_scored() {
        let trials = TrialConfig { trials: 3, seed: 5 };
        assert!(run_antenna_sweep(&TagLayout::new(), 1).is_none(), "an empty layout has no sweep");
        let err = mean_accuracy(&GRssi::default(), &trials, 7, true, |_| TagLayout::new())
            .expect_err("nothing to score");
        assert_eq!(err, NoScoredTrials { config_idx: 7, trials: 3 });

        // Every other trial empty: only the others count.
        let mut calls = 0;
        let acc = mean_accuracy(&GRssi::default(), &trials, 7, true, |_| {
            calls += 1;
            if calls % 2 == 0 {
                TagLayout::new()
            } else {
                row_layout(3, 0.15)
            }
        })
        .expect("two trials scored");
        assert_eq!((acc.scored, acc.trials), (2, 3));
        assert!(acc.y_cell().ends_with(" (2/3)"));
    }

    #[test]
    fn pooled_sums_count_every_configurations_trials() {
        // Figure 17 pools several layouts into one cell: an empty layout
        // adds its trials to the count but no score, and a pool with
        // nothing scored is an error over all of its trials.
        let trials = TrialConfig { trials: 2, seed: 5 };
        let scheme = GRssi::default();
        let mut empty = AccuracySums::default();
        empty.run(&scheme, &trials, 7, true, |_| TagLayout::new());
        empty.run(&scheme, &trials, 8, true, |_| TagLayout::new());
        assert_eq!(empty.mean(7), Err(NoScoredTrials { config_idx: 7, trials: 4 }));

        let mut pooled = AccuracySums::default();
        pooled.run(&scheme, &trials, 7, true, |_| TagLayout::new());
        pooled.run(&scheme, &trials, 8, true, |_| row_layout(3, 0.15));
        let acc = pooled.mean(7).expect("the row layout is scored");
        let alone = mean_accuracy(&scheme, &trials, 8, true, |_| row_layout(3, 0.15))
            .expect("the row layout is scored");
        assert_eq!((acc.scored, acc.trials), (2, 4));
        assert_eq!((acc.x, acc.y), (alone.x, alone.y));
        assert_eq!(acc.combined(), alone.y.map(|y| (alone.x + y) / 2.0));
        assert!(acc.combined_cell().ends_with(" (2/4)"), "{}", acc.combined_cell());
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(0.84), "84.0%");
        assert_eq!(pct(1.0), "100.0%");
    }
}
