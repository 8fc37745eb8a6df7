//! The report `bench_json` writes and `bench_gate` reads: one set of
//! types for both, so the gate reads exactly the layout the harness
//! writes.

use serde::{Deserialize, Serialize};

/// The schema tag of the reports this tree writes.
pub const SCHEMA: &str = "stpp-bench-pipeline/v10";

/// One mode's timings.
#[derive(Debug, Serialize, Deserialize)]
pub struct ModeReport {
    /// Minimum wall-clock time over the repetitions (five, or 25 for the
    /// cold and warm serving modes), milliseconds.
    pub localize_ms: f64,
    /// Median wall-clock time over the repetitions, milliseconds.
    pub median_ms: f64,
    /// Number of tags the mode localized (quality guard: a faster path
    /// must not silently drop tags).
    pub localized: usize,
}

/// One population's mode matrix.
#[derive(Debug, Serialize, Deserialize)]
pub struct PopulationReport {
    /// Scenario name when the input came from `--scenario`, else `None`
    /// (synthetic benchmark population). The gate ignores this field.
    pub scenario: Option<String>,
    /// Tag population of the workload.
    pub tags: usize,
    /// Time to build the `StppInput` from the recording (profile
    /// extraction + closed-form closest-approach geometry), milliseconds.
    pub input_build_ms: f64,
    /// The seed implementation's code path: exact DTW, reference profile
    /// regenerated and re-segmented per tag, fresh scratch per tag.
    pub seed_sequential_exact: ModeReport,
    /// Current sequential path (shared reference bank + scratch) on the
    /// production configuration.
    pub sequential: ModeReport,
    /// Parallel batch engine on the production configuration.
    pub batch: ModeReport,
    /// Serving cold path: a fresh `LocalizationService` per request, so
    /// every request rebuilds its reference banks (per-run behaviour).
    pub serve_cold: ModeReport,
    /// Serving warm path: one long-lived service, repeated same-geometry
    /// requests (zero bank constructions after the first — asserted).
    pub serve_warm: ModeReport,
    /// Networked serving path: warm requests through `StppServer` /
    /// `StppClient` over localhost TCP (serialization + framing + loopback
    /// on top of `serve_warm`).
    pub serve_net: ModeReport,
    /// `seed_sequential_exact.localize_ms / batch.localize_ms`.
    pub speedup_batch_vs_seed: f64,
    /// `serve_cold.localize_ms / serve_warm.localize_ms`.
    pub speedup_serve_warm_vs_cold: f64,
    /// `serve_net.localize_ms / serve_warm.localize_ms` — the wire tax.
    pub overhead_net_vs_warm: f64,
}

/// The streaming time-to-first-result sweep: the conveyor workload's
/// report stream replayed into a `ServiceSession`, measuring how long the
/// session takes to surface its first provisional estimate versus
/// ingesting the whole stream and localizing at quiescence.
#[derive(Debug, Serialize, Deserialize)]
pub struct StreamingReport {
    /// Scenario file the workload came from.
    pub scenario: String,
    /// Tag population of the workload.
    pub tags: usize,
    /// Reports in the replayed stream.
    pub reports: usize,
    /// Reports ingested when the first provisional estimate appeared
    /// (deterministic in the workload — asserted stable across reps).
    pub first_result_reports: usize,
    /// Wall-clock from session open to the first provisional poll that
    /// returned at least one estimated tag, milliseconds (minimum over
    /// the repetitions). Includes the ingest + incremental-DTW work of
    /// the stream prefix and every intermediate poll.
    pub ttfr_streaming_ms: f64,
    /// Wall-clock to ingest the whole stream and produce the final
    /// batch result, milliseconds (minimum over the repetitions) — the
    /// earliest a non-streaming consumer can see *any* ordering.
    pub batch_quiescence_ms: f64,
    /// `batch_quiescence_ms / ttfr_streaming_ms` — above 1.0 means the
    /// first provisional answer landed before batch-at-quiescence
    /// could. The gate floors this.
    pub speedup_first_result_vs_batch: f64,
}

/// A whole `bench_json` report.
#[derive(Debug, Serialize, Deserialize)]
pub struct BenchReport {
    /// The report layout: [`SCHEMA`] for reports this tree writes.
    pub schema: String,
    /// Whether this was a `--smoke` run (small populations only).
    pub smoke: bool,
    /// Worker threads used by the batch modes.
    pub threads: usize,
    /// One entry per benchmarked population or scenario.
    pub populations: Vec<PopulationReport>,
    /// The streaming time-to-first-result sweep (always present: the
    /// gate floors its first-result speedup in smoke and full runs
    /// alike).
    pub streaming: StreamingReport,
}
