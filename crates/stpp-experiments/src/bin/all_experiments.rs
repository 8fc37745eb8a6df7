//! Runs every experiment of the STPP reproduction and writes
//! `results/EXPERIMENTS_RESULTS.md` plus per-experiment CSV files.

use std::fs;
use std::path::Path;

use stpp_experiments::{run_all, NoScoredTrials, TrialConfig};

fn main() -> Result<(), NoScoredTrials> {
    let trials = TrialConfig {
        trials: std::env::var("STPP_TRIALS").ok().and_then(|v| v.parse().ok()).unwrap_or(4),
        seed: std::env::var("STPP_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(20150504),
    };
    let out_dir = Path::new("results");
    fs::create_dir_all(out_dir).expect("create results directory");

    let mut markdown = String::from("# STPP reproduction — experiment results\n\n");
    markdown.push_str(&format!(
        "Generated by `all_experiments` with {} trials per configuration (seed {}).\n\n",
        trials.trials, trials.seed
    ));
    for report in run_all(&trials)? {
        println!("=== {} — {} ===", report.id, report.title);
        print!("{}", report.to_markdown());
        markdown.push_str(&report.to_markdown());
        let slug = report.id.to_lowercase().replace(' ', "_");
        fs::write(out_dir.join(format!("{slug}.csv")), report.to_csv())
            .expect("write experiment CSV");
    }
    fs::write(out_dir.join("EXPERIMENTS_RESULTS.md"), &markdown).expect("write results markdown");
    println!("Wrote results/EXPERIMENTS_RESULTS.md");
    Ok(())
}
