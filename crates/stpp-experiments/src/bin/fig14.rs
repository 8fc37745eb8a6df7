//! Regenerates fig14 of the STPP paper.
use stpp_experiments::TrialConfig;

fn main() -> Result<(), stpp_experiments::NoScoredTrials> {
    let trials = TrialConfig::default();
    let report = stpp_experiments::microbench::fig14_spacing_antenna_moving(&trials)?;
    print!("{}", report.to_markdown());
    Ok(())
}
