//! # stpp-bench
//!
//! Criterion benchmarks for the STPP stack. The benchmark targets cover the
//! performance claims of the paper's design sections:
//!
//! * `dtw` — full DTW vs the segmented (coarse-representation) DTW across
//!   window sizes `w`, the `O(MN) → O(MN/w²)` optimisation of Section 3.1.2;
//! * `ordering` — pivot-based Y ordering (`M − 1` comparisons) vs full
//!   pairwise ordering (`M(M−1)/2`), the optimisation of Section 3.2.2;
//! * `pipeline` — end-to-end sweep simulation and localization throughput
//!   for growing tag populations (the latency context of Figure 23).
//!
//! Run with `cargo bench --workspace`.

#![forbid(unsafe_code)]

pub mod baseline;

pub use stpp_scenario::cli;

use rfid_geometry::TagLayout;
use rfid_reader::{AntennaSweepParams, ReaderSimulation, ScenarioBuilder, SweepRecording};

/// Builds a deterministic recording used by several benchmarks.
pub fn benchmark_recording(tags: usize, spacing: f64, seed: u64) -> SweepRecording {
    let mut layout = TagLayout::new();
    for id in 0..tags as u64 {
        layout.push(id, rfid_geometry::Point3::new(id as f64 * spacing, 0.0, 0.0));
    }
    let scenario = ScenarioBuilder::new(seed)
        .with_name("benchmark sweep")
        .antenna_sweep(&layout, AntennaSweepParams::default())
        .expect("non-empty benchmark layout");
    ReaderSimulation::new(scenario, seed).run()
}
