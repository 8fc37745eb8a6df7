//! `servebench` — the serving benchmark of the STPP reproduction.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload <library_shelf|airport_portal|conveyor_stream> \
//!     --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! Loads a real `StppServer` on loopback from two closed-loop clients and
//! checks every answer against the in-process pipeline. `--trace 0`
//! measures the end-to-end metrics; `--trace 1` is a separate run that
//! replays the same seeded inputs and times each layer through its public
//! functions, writing the spans as Chrome trace-event JSON under
//! `servebench/out/`. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A wrong answer, a
//! failed request or a server-side problem makes the run exit non-zero.

mod cli;
mod replay;
mod stats;
mod trace;
mod traced;
mod wire;
mod workload;

use std::process::ExitCode;
use std::time::Duration;

use cli::Args;
use workload::Inputs;

/// Servers an untraced run sets up, each measured for an equal share of
/// the run; `setup_s` is the median of their set-up CPU times.
const SETUPS: usize = 9;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (requests, spans, set-ups, ...).
    pub samples: usize,
}

impl Metric {
    /// A metric with its sample count.
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric { name, value, unit, samples }
    }
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests sent in the measured phases.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// Failures and server-side problems, for the log.
    pub problems: Vec<String>,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Prints what the generated inputs look like: the properties
/// `BENCHMARK.json` records beside each workload.
fn describe(inputs: &Inputs) {
    let tags: Vec<usize> = inputs.batches.iter().map(|b| b.input.observations.len()).collect();
    let samples: Vec<usize> = inputs.batches.iter().map(|b| b.samples).collect();
    let bytes: Vec<usize> = inputs
        .batches
        .iter()
        .map(|b| {
            let mut buf = Vec::new();
            stpp_serve::proto::encode_localize_request_into(&b.input, None, &mut buf)
                .map_or(0, |()| buf.len())
        })
        .collect();
    let range = |v: &[usize]| {
        let mean = v.iter().sum::<usize>() as f64 / v.len().max(1) as f64;
        format!(
            "{}..{} (mean {mean:.0})",
            v.iter().min().unwrap_or(&0),
            v.iter().max().unwrap_or(&0)
        )
    };
    println!(
        "inputs: {} batches; tags/batch {}; samples/batch {}; Localize bytes/batch {}; {:.1} B/sample; \
         {} geometries; {} reference banks",
        inputs.batches.len(),
        range(&tags),
        range(&samples),
        range(&bytes),
        bytes.iter().sum::<usize>() as f64 / samples.iter().sum::<usize>().max(1) as f64,
        inputs.geometries,
        inputs.banks,
    );
    if inputs.streams.is_empty() {
        return;
    }
    let frames: usize = inputs.streams.iter().map(|s| s.frames.len()).sum();
    let reports: usize = inputs.streams.iter().map(workload::Stream::reports).sum();
    let ingest_bytes: usize = inputs
        .streams
        .iter()
        .flat_map(|s| &s.frames)
        .map(|f| {
            let request = stpp_serve::Request::IngestReports { session: 0, reports: f.clone() };
            stpp_serve::proto::encode_frame(&request).map_or(0, |b| b.len())
        })
        .sum();
    let pending: Vec<u64> =
        inputs.streams.iter().flat_map(|s| &s.expected).map(|f| f.pending).collect();
    println!(
        "streams: {} streams; {frames} frames; {reports} reports ({:.1}/frame); IngestReports \
         {:.1} B/report; mean pending tags per poll {:.1}",
        inputs.streams.len(),
        reports as f64 / frames.max(1) as f64,
        ingest_bytes as f64 / reports.max(1) as f64,
        pending.iter().sum::<u64>() as f64 / pending.len().max(1) as f64,
    );
}

/// The untraced run: [`SETUPS`] times, set up a server and measure it for
/// an equal share of the run. Spreading the set-ups over the run samples
/// them across the machine's changing speed, as the measured phase is.
fn run_untraced(args: &Args, inputs: &Inputs) -> Result<Report, String> {
    let share = Duration::from_secs(args.seconds) / SETUPS as u32;
    let mut setups: Vec<wire::SetUp> = Vec::with_capacity(SETUPS);
    let mut rounds = [0usize; workload::CLIENTS];
    let mut phase = wire::Phase::default();
    let mut problems = Vec::new();
    for _ in 0..SETUPS {
        let (server, setup) = wire::set_up(inputs)?;
        setups.push(setup);
        let before = wire::service_stats(&server)?;
        let measured = wire::measure(&server, inputs, share, &mut rounds, || None)?;
        let (_, found) = wire::check_server(&server, &before, measured.tally.bank_builds)?;
        server.stop()?;
        problems.extend(found);
        phase.merge(measured);
        if phase.tally.failed > 0 || !problems.is_empty() {
            break;
        }
    }
    let tally = &phase.tally;
    problems.extend(tally.errors.iter().cloned());
    // `setup_s` is CPU time: the wall time of a set-up is a sum of round
    // trips, and on a shared host their stalls make it swing. Conveyor
    // set-ups (about a thousand serial round trips) took 113-428 ms of
    // wall time within one run on a shared 2-vCPU VM.
    let shown: Vec<String> =
        setups.iter().map(|s| format!("{:.1}/{:.1}", s.wall_s * 1e3, s.cpu_s * 1e3)).collect();
    println!("set-ups, wall/CPU ms: {}", shown.join(", "));
    let mut setup_cpu: Vec<f64> = setups.iter().map(|s| s.cpu_s).collect();
    if !tally.poll_s.is_empty() {
        let mut poll = tally.poll_s.clone();
        println!(
            "poll round trip: p50 {:.4} ms, p90 {:.4} ms, p99 {:.4} ms over {} polls",
            stats::quantile(&mut poll, 0.5) * 1e3,
            stats::quantile(&mut poll, 0.9) * 1e3,
            stats::quantile(&mut poll, 0.99) * 1e3,
            poll.len()
        );
    }

    let mut latency = tally.latency_s.clone();
    let n = latency.len();
    // Throughput and the latency tail are logged, not gated: both follow
    // the CPU time a shared host's other tenants take from its virtual
    // CPUs. On a shared 2-vCPU VM, ten-seed sets of 30 s runs spread
    // (quartile distance over median) 0.06-0.18 in throughput and
    // 0.08-0.18 in p90 latency in quiet hours, but up to 0.43 and 1.07 on
    // the conveyor in a busy one. CPU time per report does not count the
    // stolen time, and its per-segment median also drops the segments that
    // other tenants slowed most; it spread 0.03-0.13 in the quiet sets.
    println!(
        "throughput: {:.1} tags/s, {:.1} reports/s over {:.2} s; latency p90 {:.4} ms, \
         p99 {:.4} ms over {n} answers",
        tally.tags as f64 / phase.secs,
        tally.reports as f64 / phase.secs,
        phase.secs,
        stats::quantile(&mut latency, 0.9) * 1e3,
        stats::quantile(&mut latency, 0.99) * 1e3,
    );
    let accuracy: Vec<f64> = inputs.batches.iter().map(|b| b.accuracy).collect();
    let mut cpu = phase.cpu_us_per_report.clone();
    let metrics = vec![
        Metric::new("setup_s", stats::median(&mut setup_cpu), "s", setup_cpu.len()),
        Metric::new("order_accuracy", stats::mean(&accuracy), "ratio", accuracy.len()),
        Metric::new("cpu_us_per_report", stats::median(&mut cpu), "us", cpu.len()),
        Metric::new("latency_p50_ms", stats::quantile(&mut latency, 0.5) * 1e3, "ms", n),
        Metric::new("rss_peak_mb", stats::peak_rss_mb(), "MB", 1),
    ];
    Ok(Report { attempted: tally.attempted, failed: tally.failed, problems, metrics })
}

fn run(args: &Args) -> Result<Report, String> {
    println!(
        "servebench: workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let inputs = workload::generate(args.workload, args.seed)?;
    describe(&inputs);
    if args.trace {
        traced::run(args, &inputs)
    } else {
        run_untraced(args, &inputs)
    }
}

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &report.metrics {
        println!("metric {:<36} {:>14.6} {:<10} n={}", m.name, m.value, m.unit, m.samples);
    }
    for problem in &report.problems {
        println!("problem: {problem}");
    }
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("servebench: metric {} is not a finite number", m.name);
        return ExitCode::FAILURE;
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
