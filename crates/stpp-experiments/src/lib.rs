//! # stpp-experiments
//!
//! The experiment harness: one function per table/figure of the STPP
//! paper's evaluation, each regenerating the corresponding rows or series
//! from the simulation stack. Every experiment returns an
//! [`ExperimentReport`] that renders to a markdown table (and CSV), and the
//! `all_experiments` binary runs the full set and writes
//! `results/EXPERIMENTS_RESULTS.md`.
//!
//! | Module | Paper artefacts |
//! |---|---|
//! | [`profiles`] | Figures 2–9 (RSSI motivation, reference/measured profiles, DTW, segmentation, quadratic fitting) |
//! | [`microbench`] | Figure 12 (window size), Figures 13/14 (tag spacing), Table 1 (population) |
//! | [`macrobench`] | Figures 17/18/19 (scheme comparison, distance and population scaling) |
//! | [`casestudies`] | Figure 21 + Table 2 (library), Table 3 + Figure 23 (airport) |
//!
//! The number of trials per configuration is deliberately modest so the
//! whole suite completes in minutes; pass higher trial counts to the
//! individual functions for tighter confidence intervals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod casestudies;
pub mod common;
pub mod macrobench;
pub mod microbench;
pub mod profiles;

pub use common::{ExperimentReport, NoScoredTrials, TrialConfig};

/// Runs every experiment in the suite and returns the reports in paper
/// order. `trials` controls the repetition count of the statistical
/// experiments; a configuration none of whose trials could be scored
/// stops the suite with an error.
pub fn run_all(trials: &TrialConfig) -> Result<Vec<ExperimentReport>, NoScoredTrials> {
    Ok(vec![
        profiles::fig02_rssi_motivation(trials.seed),
        profiles::fig03_reference_profiles_x(),
        profiles::fig04_reference_profiles_y(),
        profiles::fig05_measured_profiles_x(trials.seed),
        profiles::fig06_measured_profiles_y(trials.seed),
        profiles::fig07_dtw_alignment(trials.seed),
        profiles::fig08_segmentation(trials.seed),
        profiles::fig09_quadratic_fitting(trials.seed),
        microbench::fig12_window_size(trials)?,
        microbench::fig13_spacing_tag_moving(trials)?,
        microbench::fig14_spacing_antenna_moving(trials)?,
        microbench::table1_population(trials)?,
        macrobench::fig17_scheme_comparison(trials)?,
        macrobench::fig18_accuracy_vs_distance(trials)?,
        macrobench::fig19_accuracy_vs_population(trials)?,
        casestudies::fig21_book_layout(trials.seed),
        casestudies::table2_misplaced_books(trials),
        casestudies::table3_airport_accuracy(trials),
        casestudies::fig23_ordering_latency(trials),
    ])
}
