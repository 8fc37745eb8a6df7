//! Regenerates fig18 of the STPP paper.
use stpp_experiments::TrialConfig;

fn main() -> Result<(), stpp_experiments::NoScoredTrials> {
    let trials = TrialConfig::default();
    let report = stpp_experiments::macrobench::fig18_accuracy_vs_distance(&trials)?;
    print!("{}", report.to_markdown());
    Ok(())
}
