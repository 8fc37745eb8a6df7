//! Regenerates fig17 of the STPP paper.
use stpp_experiments::TrialConfig;

fn main() -> Result<(), stpp_experiments::NoScoredTrials> {
    let trials = TrialConfig::default();
    let report = stpp_experiments::macrobench::fig17_scheme_comparison(&trials)?;
    print!("{}", report.to_markdown());
    Ok(())
}
