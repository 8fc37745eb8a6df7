//! Regenerates table1 of the STPP paper.
use stpp_experiments::TrialConfig;

fn main() -> Result<(), stpp_experiments::NoScoredTrials> {
    let trials = TrialConfig::default();
    let report = stpp_experiments::microbench::table1_population(&trials)?;
    print!("{}", report.to_markdown());
    Ok(())
}
