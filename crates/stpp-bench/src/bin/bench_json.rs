//! `bench_json` — the tracked pipeline benchmark harness.
//!
//! Runs the end-to-end localization pipeline over growing tag populations
//! in a set of modes (sequential and parallel on the production
//! configuration, the serving paths, plus a replica of the seed
//! implementation's per-tag reference-rebuild path) and writes the
//! results as machine-readable JSON to
//! `BENCH_pipeline.json` at the repository root. Every perf-focused PR is
//! judged against this file: run it before and after a change and compare
//! the per-population timings.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p stpp-bench --bin bench_json            # full run
//! cargo run --release -p stpp-bench --bin bench_json -- --smoke # tiny CI run
//! cargo run --release -p stpp-bench --bin bench_json -- --out p.json
//! cargo run --release -p stpp-bench --bin bench_json -- \
//!     --scenario scenarios/portal.json --scenario scenarios/shelf.json
//! ```
//!
//! An unknown flag, a positional word, a missing value or a bad number
//! exits with code 2 before anything runs, so a misspelt `--smoke` can
//! never start the full sweep and overwrite the tracked report.
//!
//! The `--smoke` mode exists so CI can prove the harness still builds,
//! runs, and emits valid JSON without paying for the 300-tag populations.
//! `--scenario FILE` (repeatable) replaces the synthetic population sweep
//! with workloads built from declarative scenario files, so a deployment
//! described once for the scenario harness can be benchmarked through the
//! identical modes.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use stpp_bench::report::{BenchReport, ModeReport, PopulationReport, StreamingReport, SCHEMA};
use stpp_bench::{baseline, benchmark_recording, cli};
use stpp_core::{
    BatchLocalizer, LocalizationError, RelativeLocalizer, StppConfig, StppInput, StppResult,
};
use stpp_serve::{
    LocalizationService, LocalizeReply, ServerConfig, ServiceConfig, SessionGeometry, StppClient,
    StppServer,
};

/// Rounds of the interleaved seed/sequential/batch loop, each timing one
/// run of every mode, and repetitions of the networked mode; the minimum
/// and the median are reported.
const REPS: usize = 5;
/// Rounds of the interleaved cold/warm serving loop. Each round times
/// one cold request and then one warm one, so machine drift lands on
/// both modes alike and cancels in their ratio.
const SERVE_ROUNDS: usize = 25;
/// Reports ingested between provisional polls in the streaming
/// time-to-first-result sweep (matches the checked-in streaming
/// scenario's `poll_every_reports`).
const STREAMING_POLL_EVERY: usize = 25;
/// Timed repetitions of the streaming sweep; minima are reported.
const STREAMING_REPS: usize = 5;

/// One mode's repetition timings. A localize failure is a harness or
/// workload bug, never a benchmark result: it propagates so `main` exits
/// non-zero instead of recording `localized = 0` as if the mode had
/// silently dropped every tag (which would trip the gate's quality
/// guards with a misleading message — or worse, pass if every mode
/// failed identically).
#[derive(Default)]
struct Timings {
    ms: Vec<f64>,
    localized: usize,
}

impl Timings {
    /// Times one repetition.
    fn time(
        &mut self,
        run: impl FnOnce() -> Result<StppResult, LocalizationError>,
    ) -> Result<(), LocalizationError> {
        let t = Instant::now();
        let result = run()?;
        self.ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.localized = result.localized_count();
        Ok(())
    }

    /// The minimum and median over the repetitions timed so far.
    fn report(mut self) -> ModeReport {
        self.ms.sort_by(f64::total_cmp);
        let n = self.ms.len();
        let median_ms =
            if n % 2 == 1 { self.ms[n / 2] } else { (self.ms[n / 2 - 1] + self.ms[n / 2]) / 2.0 };
        ModeReport { localize_ms: self.ms[0], median_ms, localized: self.localized }
    }
}

/// Times a mode over [`REPS`] repetitions.
fn time_mode<F: FnMut() -> Result<StppResult, LocalizationError>>(
    mut run: F,
) -> Result<ModeReport, LocalizationError> {
    let mut timings = Timings::default();
    for _ in 0..REPS {
        timings.time(&mut run)?;
    }
    Ok(timings.report())
}

fn bench_population(tags: usize, threads: usize) -> Result<PopulationReport, LocalizationError> {
    let recording = benchmark_recording(tags, 0.06, 21);
    let t = Instant::now();
    let input = Arc::new(StppInput::from_recording(&recording).expect("valid benchmark input"));
    let input_build_ms = t.elapsed().as_secs_f64() * 1e3;
    bench_input(None, input, input_build_ms, threads)
}

/// Benchmarks one workload built from a declarative scenario file: the
/// seeded simulation replaces the synthetic recording, everything after
/// the `StppInput` is the same mode matrix.
fn bench_scenario(path: &str, threads: usize) -> Result<PopulationReport, LocalizationError> {
    let spec = stpp_scenario::ScenarioSpec::load(std::path::Path::new(path))
        .unwrap_or_else(|e| panic!("scenario {path} must parse: {e}"));
    let t = Instant::now();
    let built = stpp_scenario::build_scenario(&spec)
        .unwrap_or_else(|e| panic!("scenario {path} must build: {e}"));
    let input_build_ms = t.elapsed().as_secs_f64() * 1e3;
    bench_input(Some(spec.name), built.input, input_build_ms, threads)
}

fn bench_input(
    scenario: Option<String>,
    input: Arc<StppInput>,
    input_build_ms: f64,
    threads: usize,
) -> Result<PopulationReport, LocalizationError> {
    let tags = input.observations.len();
    let config = StppConfig::default();

    // The seed, sequential and batch modes, interleaved round by round
    // like the serving paths below.
    let (mut seed, mut sequential, mut batch) =
        (Timings::default(), Timings::default(), Timings::default());
    for _ in 0..REPS {
        seed.time(|| baseline::seed_localize(&input))?;
        sequential.time(|| RelativeLocalizer::new(config).localize(&input))?;
        batch.time(|| BatchLocalizer::new(config, threads).localize(&input))?;
    }
    let (seed_sequential_exact, sequential, batch) =
        (seed.report(), sequential.report(), batch.report());

    // Serving paths, interleaved round by round: cold creates, uses and
    // drops a fresh service inside its own timing; warm reuses one
    // long-lived service.
    let service_config = ServiceConfig { stpp: config, threads, ..ServiceConfig::default() };
    let warm_service = LocalizationService::new(service_config);
    warm_service.localize(input.clone()).expect("warm-up request");
    let (mut cold, mut warm) = (Timings::default(), Timings::default());
    for _ in 0..SERVE_ROUNDS {
        cold.time(|| {
            let service = LocalizationService::new(service_config);
            service.localize(input.clone()).map(|r| r.result)
        })?;
        warm.time(|| {
            let response = warm_service.localize(input.clone())?;
            assert_eq!(
                response.metrics.bank_cache.builds, 0,
                "warm serving request must build zero banks"
            );
            Ok(response.result)
        })?;
    }
    let (serve_cold, serve_warm) = (cold.report(), warm.report());

    // Networked serving: the same warm service behind `StppServer`,
    // driven over localhost TCP (measures the full wire tax: request
    // serialization, framing, loopback, response deserialization).
    let server = StppServer::bind("127.0.0.1:0", warm_service, ServerConfig::default())
        .expect("bind benchmark server");
    let handle = server.spawn().expect("spawn benchmark server");
    let mut client = StppClient::connect(handle.addr()).expect("connect benchmark client");
    let serve_net = time_mode(|| match client.localize(&input, None).expect("wire request") {
        LocalizeReply::Localized(response) => {
            assert_eq!(
                response.metrics.bank_cache.builds, 0,
                "warm wire request must build zero banks"
            );
            Ok(response.result)
        }
        LocalizeReply::Busy { .. } => unreachable!("idle benchmark server cannot be busy"),
    })?;
    client.shutdown().expect("shutdown benchmark server");
    handle.join().expect("benchmark server exits");

    let speedup = seed_sequential_exact.localize_ms / batch.localize_ms.max(1e-9);
    let serve_speedup = serve_cold.localize_ms / serve_warm.localize_ms.max(1e-9);
    let net_overhead = serve_net.localize_ms / serve_warm.localize_ms.max(1e-9);
    Ok(PopulationReport {
        scenario,
        tags,
        input_build_ms,
        seed_sequential_exact,
        sequential,
        batch,
        serve_cold,
        serve_warm,
        serve_net,
        speedup_batch_vs_seed: speedup,
        speedup_serve_warm_vs_cold: serve_speedup,
        overhead_net_vs_warm: net_overhead,
    })
}

/// Measures the streaming time-to-first-result sweep on the checked-in
/// conveyor streaming scenario. The streaming and batch repetitions
/// interleave rep by rep (same drift-cancelling discipline as the
/// cold/warm serving loop), and every finished session re-asserts bit-identity against
/// the batch reference — streaming moves *when* the first answer
/// appears, never what the final answer is.
fn sweep_streaming(threads: usize) -> StreamingReport {
    let path = format!("{}/../../scenarios/streaming_conveyor.json", env!("CARGO_MANIFEST_DIR"));
    let spec = stpp_scenario::ScenarioSpec::load(std::path::Path::new(&path))
        .unwrap_or_else(|e| panic!("streaming scenario {path} must parse: {e}"));
    let built = stpp_scenario::build_scenario(&spec)
        .unwrap_or_else(|e| panic!("streaming scenario {path} must build: {e}"));
    let geometry = SessionGeometry {
        nominal_speed_mps: built.input.nominal_speed_mps,
        wavelength_m: built.input.wavelength_m,
        perpendicular_distance_m: built.input.perpendicular_distance_m,
    };
    let service_config =
        ServiceConfig { stpp: StppConfig::default(), threads, ..ServiceConfig::default() };
    let service = LocalizationService::new(service_config);
    // Warm-up + reference: one batch request builds the geometry's banks
    // (sessions share them through the session geometry key) and pins
    // the result every finished session must reproduce.
    let reference = service.localize(built.input.clone()).expect("streaming warm-up").result;

    let total = built.reports.len();
    let mut ttfr_ms = f64::INFINITY;
    let mut batch_ms = f64::INFINITY;
    let mut first_result_reports = 0usize;
    for _ in 0..STREAMING_REPS {
        // Streaming: replay in arrival order, polling a provisional
        // ordering every [`STREAMING_POLL_EVERY`] reports; the clock
        // stops at the first poll that carries an estimate. The rest of
        // the stream still flows in so the finished session can
        // re-assert bit-identity.
        let mut session = service.open_session(geometry).expect("open streaming session");
        let t = Instant::now();
        let mut first_at = None;
        for (i, report) in built.reports.iter().enumerate() {
            session.ingest(report).expect("ingest streamed report");
            if first_at.is_none()
                && ((i + 1) % STREAMING_POLL_EVERY == 0 || i + 1 == total)
                && session.provisional().tags_estimated > 0
            {
                first_at = Some((t.elapsed().as_secs_f64() * 1e3, i + 1));
            }
        }
        let (ms, at) = first_at.expect("the conveyor stream must surface a provisional estimate");
        if first_result_reports == 0 {
            first_result_reports = at;
        } else {
            assert_eq!(
                first_result_reports, at,
                "the first provisional estimate must appear at a deterministic report index"
            );
        }
        ttfr_ms = ttfr_ms.min(ms);
        let response = session
            .finish()
            .expect("finish streaming session")
            .expect("streaming session saw reports");
        assert_eq!(
            response.result, reference,
            "finished streaming session must be bit-identical to the batch path"
        );

        // Batch at quiescence: the same stream with no polls, localized
        // once at the end — the earliest any non-streaming consumer can
        // see an ordering.
        let mut session = service.open_session(geometry).expect("open batch session");
        let t = Instant::now();
        for report in &built.reports {
            session.ingest(report).expect("ingest batched report");
        }
        let response =
            session.finish().expect("finish batch session").expect("batch session saw reports");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            response.result, reference,
            "batch-at-quiescence session must be bit-identical to the batch path"
        );
        batch_ms = batch_ms.min(ms);
    }
    let speedup = batch_ms / ttfr_ms.max(1e-9);
    eprintln!(
        "  streaming: first result after {first_result_reports}/{total} reports in {ttfr_ms:8.2} \
         ms | batch at quiescence {batch_ms:8.2} ms | first result {speedup:.2}x earlier"
    );
    StreamingReport {
        scenario: spec.name,
        tags: built.input.observations.len(),
        reports: total,
        first_result_reports,
        ttfr_streaming_ms: ttfr_ms,
        batch_quiescence_ms: batch_ms,
        speedup_first_result_vs_batch: speedup,
    }
}

/// The usage line printed with every command-line error.
const USAGE: &str = "usage: bench_json [--smoke] [--out <report.json>] [--scenario <file.json>]...";

/// A parsed command line.
struct Args {
    smoke: bool,
    out_path: String,
    scenario_files: Vec<String>,
}

/// Parses the arguments after the program name. `--scenario` may repeat;
/// every other flag may be given once; anything else is an error.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut smoke, mut out) = (false, None);
    let mut scenario_files = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" if smoke => return Err("`--smoke` given more than once".into()),
            "--smoke" => smoke = true,
            "--out" => cli::value_of(&mut out, &arg, &mut args)?,
            "--scenario" => {
                let mut path = None;
                cli::value_of(&mut path, &arg, &mut args)?;
                scenario_files.extend(path);
            }
            other => return Err(cli::unexpected(other)),
        }
    }
    Ok(Args {
        smoke,
        // Default to the repository root regardless of the cwd.
        out_path: out
            .unwrap_or_else(|| format!("{}/../../BENCH_pipeline.json", env!("CARGO_MANIFEST_DIR"))),
        scenario_files,
    })
}

fn main() -> ExitCode {
    let Args { smoke, out_path, scenario_files } = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => return cli::usage_error(&error, USAGE),
    };

    // The smoke sweep keeps one tiny population (fast sanity + the small-
    // batch ratios) and one mid-size population large enough for the
    // batch engine's parallel win to rise above fixed costs.
    let populations: &[usize] = if smoke { &[5, 100] } else { &[5, 15, 30, 100, 300] };
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let mut reports = Vec::new();
    let mut bench_jobs: Vec<Box<dyn FnOnce() -> Result<PopulationReport, LocalizationError>>> =
        Vec::new();
    if scenario_files.is_empty() {
        for &tags in populations {
            bench_jobs.push(Box::new(move || {
                eprintln!("benchmarking {tags} tags…");
                bench_population(tags, threads)
            }));
        }
    } else {
        for path in scenario_files {
            bench_jobs.push(Box::new(move || {
                eprintln!("benchmarking scenario {path}…");
                bench_scenario(&path, threads)
            }));
        }
    }
    for job in bench_jobs {
        // A localize failure means the harness benchmarked nothing real;
        // fail the run loudly instead of writing a report full of zeros.
        let report = match job() {
            Ok(report) => report,
            Err(e) => {
                eprintln!("bench_json: localization failed while benchmarking: {e}");
                std::process::exit(1);
            }
        };
        eprintln!(
            "  seed {:8.2} ms | sequential {:8.2} ms | batch {:8.2} ms ({:4.1}x seed) | serve \
             cold {:8.2} ms / warm {:8.2} ms ({:3.1}x) | net {:8.2} ms ({:3.1}x warm)",
            report.seed_sequential_exact.localize_ms,
            report.sequential.localize_ms,
            report.batch.localize_ms,
            report.speedup_batch_vs_seed,
            report.serve_cold.localize_ms,
            report.serve_warm.localize_ms,
            report.speedup_serve_warm_vs_cold,
            report.serve_net.localize_ms,
            report.overhead_net_vs_warm,
        );
        reports.push(report);
    }

    // The streaming sweep rides its own workload (the checked-in
    // conveyor streaming scenario) in smoke and full modes alike: the
    // gate floors its first-result speedup over batch-at-quiescence.
    eprintln!("benchmarking streaming time-to-first-result…");
    let streaming = sweep_streaming(threads);

    let report =
        BenchReport { schema: SCHEMA.to_string(), smoke, threads, populations: reports, streaming };
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("write benchmark report");
    eprintln!("wrote {out_path}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression test for the silent-failure bug where `time_mode`
    /// swallowed localize errors as `localized = 0`: a workload poisoned
    /// with an invalid geometry must surface the error to the caller
    /// (and from there fail the whole run), not masquerade as a mode
    /// that localized zero tags.
    #[test]
    fn time_mode_propagates_localize_errors_from_a_poisoned_config() {
        let recording = benchmark_recording(3, 0.06, 21);
        let mut poisoned = StppInput::from_recording(&recording).expect("valid benchmark input");
        poisoned.wavelength_m = f64::NAN;
        let result =
            time_mode(|| RelativeLocalizer::new(StppConfig::default()).localize(&poisoned));
        assert!(
            matches!(result, Err(LocalizationError::InvalidGeometry(_))),
            "poisoned geometry must propagate as InvalidGeometry, got {result:?}"
        );
    }

    /// The happy path still reports a real localized count.
    #[test]
    fn time_mode_reports_the_localized_count() {
        let recording = benchmark_recording(3, 0.06, 21);
        let input = StppInput::from_recording(&recording).expect("valid benchmark input");
        let report = time_mode(|| RelativeLocalizer::new(StppConfig::default()).localize(&input))
            .expect("clean workload localizes");
        assert!(report.localized > 0, "benchmark workload must localize tags");
        assert!(report.localize_ms.is_finite());
        assert!(report.median_ms >= report.localize_ms);
    }
}
