//! Regenerates fig13 of the STPP paper.
use stpp_experiments::TrialConfig;

fn main() -> Result<(), stpp_experiments::NoScoredTrials> {
    let trials = TrialConfig::default();
    let report = stpp_experiments::microbench::fig13_spacing_tag_moving(&trials)?;
    print!("{}", report.to_markdown());
    Ok(())
}
