//! Regenerates fig19 of the STPP paper.
use stpp_experiments::TrialConfig;

fn main() -> Result<(), stpp_experiments::NoScoredTrials> {
    let trials = TrialConfig::default();
    let report = stpp_experiments::macrobench::fig19_accuracy_vs_population(&trials)?;
    print!("{}", report.to_markdown());
    Ok(())
}
